"""Negative-tuple baseline — the paper's DD comparator (§7.2.2).

Differential Dataflow evaluates an SGQ by keeping each sliding window as
an *evolving collection*: a window movement triggers insertions of new
sgts and **explicit deletions** of expired ones, which flow through the
dataflow as weighted deltas. This module holds the operators where
that strategy differs from the direct approach; everything else is
shared with it:

* FILTER and UNION are the direct engine's stateless ``FilterOp`` and
  ``UnionOp`` (both are linear, so they map weighted deltas unchanged);
* the source is the direct WSCAN plus the window state that emits −1
  *negative tuples* on expiry;
* PATTERN is a weighted symmetric join on the shared left-deep join
  tree (``algebra.join_phi``);
* ``DDDistinctOp`` keeps multiplicities and emits set-level changes;
  as in Differential Dataflow it runs only where a set is needed: at
  each PATH's input (DRed's edge set) and at the sink. Elsewhere a key's
  weight counts its derivations (WSCAN, UNION and the join are exact on
  bags);
* recursion (PATH) is maintained with the classical **DRed** algorithm
  [Gupta et al. '93], which the paper identifies as the negative-tuple
  strategy for recursive views: on deletion, over-delete everything
  derivable from the deleted tuples, then re-derive what still has an
  alternative derivation. On cyclic graphs the over-deletion is large —
  the cost the paper's *direct* S-PATH avoids.

Collections carry no validity intervals: window membership is entirely
managed by the source's insert/delete pairs (CQL SEQ-WINDOW style).

Delta schema: ``src:long, trg:long, label:string, w:long``.
"""
from __future__ import annotations

import operator
from functools import reduce
from typing import List, Sequence, Tuple

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import LongType, StringType, StructField, StructType

from repro.core import model
from repro.core.algebra import Pos, join_phi, transitions
from repro.core.regex import compile_dfa
from repro.dataflow.operators import PhysOp, SourceOp, UnionOp, prune_valid

DD_SCHEMA = StructType(
    [
        StructField("src", LongType(), False),
        StructField("trg", LongType(), False),
        StructField("label", StringType(), False),
        StructField("w", LongType(), False),
    ]
)

_KEY = ["src", "trg", "label"]

_FACT_SCHEMA = StructType(
    [
        StructField("x", LongType(), False),
        StructField("v", LongType(), False),
        StructField("state", LongType(), False),
    ]
)


def _empty_dd(spark: SparkSession) -> DataFrame:
    return spark.createDataFrame([], DD_SCHEMA)


def _consolidate(df: DataFrame) -> DataFrame:
    return (
        df.groupBy(*_KEY).agg(F.sum("w").alias("w")).filter(F.col("w") != 0)
    )


class DDSourceOp(SourceOp):
    """Windowed source: the direct WSCAN's +1 for arriving sges, plus −1
    *negative tuples* for sges expiring from the time-based sliding window
    (the WSCAN extension the paper describes for the DD baseline)."""

    def __init__(self, spark: SparkSession, label: str, size: int, slide: int):
        super().__init__(spark, label, size, slide)
        self.window: DataFrame = model.empty_sgt(spark)

    def _on_slide(self, t_now: int) -> DataFrame:
        arriving = super()._on_slide(t_now)
        expiring = self.window.filter(F.col("exp") <= F.lit(t_now))
        self.window = (
            prune_valid(self.window, t_now)
            .unionByName(arriving)
            .coalesce(4)
            .localCheckpoint(eager=True)
        )
        out = arriving.select(*_KEY, F.lit(1).alias("w")).unionByName(
            expiring.select(*_KEY, F.lit(-1).alias("w"))
        )
        return _consolidate(out)


class DDDistinctOp(PhysOp):
    """DD's ``distinct``: maintains multiplicities and emits set-level
    changes (+1 on 0→>0, −1 on >0→0)."""

    def __init__(self, spark: SparkSession, child: PhysOp):
        super().__init__(spark)
        self.child = child
        self.counts: DataFrame = _empty_dd(spark)  # w = multiplicity > 0

    def _on_slide(self, t_now: int) -> DataFrame:
        delta = self.child.process(t_now)
        merged = (
            self.counts.unionByName(delta)
            .groupBy(*_KEY)
            .agg(F.sum("w").alias("w"))
        ).localCheckpoint(eager=True)
        old = self.counts.select(*_KEY).withColumn("_old", F.lit(1))
        now = merged.filter(F.col("w") > 0).select(*_KEY).withColumn("_now", F.lit(1))
        diff = old.join(now, on=_KEY, how="full_outer")
        out = (
            diff.filter(F.col("_old").isNull() | F.col("_now").isNull())
            .select(
                *_KEY,
                F.when(F.col("_old").isNull(), F.lit(1)).otherwise(F.lit(-1)).alias("w"),
            )
        )
        out = out.localCheckpoint(eager=True)
        self.counts = merged.filter(F.col("w") > 0)
        return out

    def current_keys(self) -> DataFrame:
        return self.counts.select(*_KEY)


class DDJoinOp(PhysOp):
    """Weighted n-way join (PATTERN on ``algebra.join_phi``). Deltas are
    propagated bilinearly with the telescoping expansion, so a deletion on
    any input retracts exactly the matches it participated in."""

    def __init__(
        self,
        spark: SparkSession,
        children: Sequence[PhysOp],
        phi: List[Tuple[Pos, Pos]],
        src_sel: Pos,
        trg_sel: Pos,
        label: str,
    ):
        super().__init__(spark)
        self.children = list(children)
        self.phi = phi
        self.src_sel = src_sel
        self.trg_sel = trg_sel
        self.label = label
        self.states: List[DataFrame] = [_empty_dd(spark) for _ in self.children]

    def _join(self, inputs: List[DataFrame]) -> DataFrame:
        """One telescoping term: the shared join tree, weights multiplied."""
        si, sp = self.src_sel
        ti, tp = self.trg_sel
        w = reduce(operator.mul, [F.col(f"w{i}") for i in range(len(inputs))])
        return join_phi(inputs, self.phi).select(
            F.col(f"{sp}{si}").alias("src"),
            F.col(f"{tp}{ti}").alias("trg"),
            F.lit(self.label).alias("label"),
            w.alias("w"),
        )

    def _on_slide(self, t_now: int) -> DataFrame:
        n = len(self.children)
        deltas = [
            c.process(t_now).localCheckpoint(eager=True) for c in self.children
        ]
        empty = [d.isEmpty() for d in deltas]
        old = self.states
        new = [
            old[i] if empty[i] else _consolidate(old[i].unionByName(deltas[i]))
            for i in range(n)
        ]
        out = _empty_dd(self.spark)
        for i in range(n):
            if empty[i]:
                continue
            inputs = [
                new[j] if j < i else (deltas[j] if j == i else old[j])
                for j in range(n)
            ]
            out = out.unionByName(self._join(inputs))
        self.states = [s.localCheckpoint(eager=True) for s in new]
        return _consolidate(out)


class DDPathOp(PhysOp):
    """DRed-maintained PATH over the (vertex × DFA-state) product graph.

    The children's weighted deltas pass through the operator's own
    ``DDDistinctOp``, whose key set is the current edge set (``edges``).
    The output counts accepting product-graph facts per ``(src, trg)``:
    a pair reached in two accepting states has weight 2, and the sink's
    distinct makes it a set.
    """

    def __init__(
        self,
        spark: SparkSession,
        children: Sequence[PhysOp],
        regex: str,
        label: str,
        max_iters: int = 200,
    ):
        super().__init__(spark)
        self.child = DDDistinctOp(spark, UnionOp(spark, children, None))
        self.label = label
        self.max_iters = max_iters
        self.dfa = compile_dfa(regex)
        self.trans = transitions(spark, self.dfa)
        self.edges: DataFrame = self.child.current_keys()
        self.facts: DataFrame = spark.createDataFrame([], _FACT_SCHEMA)

    def _steps(self, edges: DataFrame) -> DataFrame:
        return edges.join(
            F.broadcast(self.trans), F.col("label") == F.col("l")
        ).select(
            F.col("s").alias("e_s"),
            F.col("t").alias("e_t"),
            F.col("src").alias("e_src"),
            F.col("trg").alias("e_trg"),
        )

    @staticmethod
    def _one_step(facts: DataFrame, steps: DataFrame) -> DataFrame:
        return (
            facts.join(
                steps,
                (F.col("v") == F.col("e_src")) & (F.col("state") == F.col("e_s")),
            )
            .select("x", F.col("e_trg").alias("v"), F.col("e_t").alias("state"))
            .distinct()
        )

    def _base(self, steps: DataFrame) -> DataFrame:
        return (
            steps.filter(F.col("e_s") == self.dfa.start)
            .select(
                F.col("e_src").alias("x"),
                F.col("e_trg").alias("v"),
                F.col("e_t").alias("state"),
            )
            .distinct()
        )

    def _fix_add(self, facts: DataFrame, delta: DataFrame, steps: DataFrame) -> DataFrame:
        """Semi-naive insertion fixpoint: add everything reachable from delta."""
        fkeys = ["x", "v", "state"]
        for _ in range(self.max_iters):
            if delta.isEmpty():
                return facts
            facts = (
                facts.unionByName(delta).coalesce(4).localCheckpoint(eager=True)
            )
            delta = (
                self._one_step(delta, steps)
                .join(facts, on=fkeys, how="left_anti")
                .localCheckpoint(eager=True)
            )
        raise RuntimeError("DRed insertion fixpoint did not converge")

    def _on_slide(self, t_now: int) -> DataFrame:
        labels = [str(l) for l in self.dfa.labels()]
        delta = self.child.process(t_now).filter(F.col("label").isin(labels))
        adds = delta.filter(F.col("w") > 0).select(*_KEY)
        dels = delta.filter(F.col("w") < 0).select(*_KEY)
        fkeys = ["x", "v", "state"]
        finals = [int(s) for s in self.dfa.finals]
        f_old = self.facts
        old_out = f_old.filter(F.col("state").isin(finals))
        edges_old = self.edges
        self.edges = self.child.current_keys()

        facts = f_old
        if not dels.isEmpty():
            # --- over-deletion (w.r.t. the pre-deletion database) ---
            steps_old = self._steps(edges_old).localCheckpoint(eager=True)
            steps_del = self._steps(dels).localCheckpoint(eager=True)
            od = (
                self._base(steps_del)
                .unionByName(self._one_step(facts, steps_del))
                .join(facts, on=fkeys, how="left_semi")
                .distinct()
                .localCheckpoint(eager=True)
            )
            frontier = od
            for _ in range(self.max_iters):
                if frontier.isEmpty():
                    break
                frontier = (
                    self._one_step(frontier, steps_old)
                    .join(facts, on=fkeys, how="left_semi")
                    .join(od, on=fkeys, how="left_anti")
                    .localCheckpoint(eager=True)
                )
                od = od.unionByName(frontier).coalesce(4).localCheckpoint(eager=True)
            else:
                raise RuntimeError("DRed over-deletion did not converge")

            facts = facts.join(od, on=fkeys, how="left_anti").localCheckpoint(eager=True)

            # --- re-derivation from surviving facts/edges ---
            # The edges between deletion and insertion: old − dels = new − adds.
            edges_mid = self.edges.join(adds, on=_KEY, how="left_anti")
            steps_new = self._steps(edges_mid).localCheckpoint(eager=True)
            redelta = (
                self._base(steps_new)
                .unionByName(self._one_step(facts, steps_new))
                .join(od, on=fkeys, how="left_semi")
                .join(facts, on=fkeys, how="left_anti")
                .distinct()
                .localCheckpoint(eager=True)
            )
            facts = self._fix_add(facts, redelta, steps_new)

        if not adds.isEmpty():
            steps_new = self._steps(self.edges).localCheckpoint(eager=True)
            steps_add = self._steps(adds).localCheckpoint(eager=True)
            delta_f = (
                self._base(steps_add)
                .unionByName(self._one_step(facts, steps_add))
                .join(facts, on=fkeys, how="left_anti")
                .distinct()
                .localCheckpoint(eager=True)
            )
            facts = self._fix_add(facts, delta_f, steps_new)

        self.facts = facts.localCheckpoint(eager=True)

        new_out = facts.filter(F.col("state").isin(finals))
        added = new_out.join(old_out, on=fkeys, how="left_anti")
        removed = old_out.join(new_out, on=fkeys, how="left_anti")
        out = added.select(
            F.col("x").alias("src"),
            F.col("v").alias("trg"),
            F.lit(self.label).alias("label"),
            F.lit(1).alias("w"),
        ).unionByName(
            removed.select(
                F.col("x").alias("src"),
                F.col("v").alias("trg"),
                F.lit(self.label).alias("label"),
                F.lit(-1).alias("w"),
            )
        )
        return _consolidate(out)
