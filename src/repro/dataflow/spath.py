"""S-PATH: incremental PATH operator with the Δ-PATH index (§6.2).

Δ-PATH (Def. 22) maintains, per (root vertex *x*, reached vertex *v*,
DFA state *s*), the valid path segment with the **largest expiry
timestamp** — the coalesce primitive with a max-expiry aggregation
(fn. 11). Here the spanning forest is a state DataFrame

    index(x, v, state, ts, exp, path)

where ``path`` materializes the witness edge sequence (so results return
actual paths — R3; parent pointers are implicit in the materialized
sequence).

Per slide, arriving sgts seed new tree roots and extend existing
segments (Algorithm S-PATH lines 5–14); **Expand**/**Propagate** become
an inner loop that joins the changed frontier with the snapshot graph's
DFA-compatible steps until no node is inserted or gets its expiry
extended. Window maintenance is *direct*: expired index entries are
identified by their own ``exp`` and dropped — no re-derivation, in
contrast to the negative-tuple baseline (``negtuple.py``).
"""
from __future__ import annotations

from typing import Sequence

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import ArrayType, LongType, StructField, StructType

from repro.core import model
from repro.core.algebra import ProductGraph
from repro.core.coalesce import coalesce_sgts
from repro.core.regex import compile_dfa
from repro.dataflow.operators import PhysOp, prune_valid

_INDEX_SCHEMA = StructType(
    [
        StructField("x", LongType(), False),
        StructField("v", LongType(), False),
        StructField("state", LongType(), False),
        StructField("ts", LongType(), False),
        StructField("exp", LongType(), False),
        StructField("path", ArrayType(model.PATH_EDGE_TYPE), True),
    ]
)

_IDX_COLS = ["x", "v", "state", "ts", "exp", "path"]


class SPathOp(PhysOp):
    """Physical PATH operator implementing Algorithm S-PATH."""

    def __init__(
        self,
        spark: SparkSession,
        children: Sequence[PhysOp],
        regex: str,
        label: str,
        max_iters: int = 200,
    ):
        super().__init__(spark)
        self.children = list(children)
        self.label = label
        self.max_iters = max_iters
        self.dfa = compile_dfa(regex)
        self.graph = ProductGraph(spark, self.dfa)
        self.index: DataFrame = spark.createDataFrame([], _INDEX_SCHEMA)
        self.edges: DataFrame = model.empty_sgt(spark)

    # -- helpers ----------------------------------------------------------
    def _merge(self, cands: DataFrame) -> DataFrame:
        """Merge candidates into Δ-PATH. Returns the changed rows (inserted
        nodes and nodes whose expiry was extended — Expand / Propagate).

        Propagate (line 13): an update happens only when the candidate
        expires *later* than the stored segment; the stored ``ts`` is
        widened to the minimum (the intervals overlap at the current
        time, both being valid now), and the max-exp witness path wins.
        """
        best = (
            cands.groupBy("x", "v", "state")
            .agg(F.max_by(F.struct("ts", "exp", "path"), "exp").alias("m"))
            .select(
                "x",
                "v",
                "state",
                F.col("m.ts").alias("ts"),
                F.col("m.exp").alias("exp"),
                F.col("m.path").alias("path"),
            )
        )
        idx = self.index.select(
            F.col("x").alias("i_x"),
            F.col("v").alias("i_v"),
            F.col("state").alias("i_state"),
            F.col("ts").alias("i_ts"),
            F.col("exp").alias("i_exp"),
        )
        joined = best.join(
            idx,
            (F.col("x") == F.col("i_x"))
            & (F.col("v") == F.col("i_v"))
            & (F.col("state") == F.col("i_state")),
            how="left",
        )
        return (
            joined.filter(F.col("i_exp").isNull() | (F.col("exp") > F.col("i_exp")))
            .select(
                "x",
                "v",
                "state",
                F.when(F.col("i_ts").isNull(), F.col("ts"))
                .otherwise(F.least("i_ts", "ts"))
                .alias("ts"),
                "exp",
                "path",
            )
            .localCheckpoint(eager=True)
        )

    # -- slide processing --------------------------------------------------
    def _on_slide(self, t_now: int) -> DataFrame:
        delta = self.children[0].process(t_now)
        for c in self.children[1:]:
            delta = delta.unionByName(c.process(t_now))
        labels = [str(l) for l in self.dfa.labels()]
        delta = (
            coalesce_sgts(delta.filter(F.col("label").isin(labels)))
            .localCheckpoint(eager=True)
        )

        # Direct window maintenance: expired segments/edges just drop out.
        self.index = prune_valid(self.index, t_now)
        self.edges = prune_valid(self.edges, t_now)
        edges_new = coalesce_sgts(
            self.edges.unionByName(delta)
        ).localCheckpoint(eager=True)

        if delta.isEmpty():
            self.edges = edges_new
            return model.empty_sgt(self.spark)

        steps_delta = self.graph.steps(delta).localCheckpoint(eager=True)
        steps_all = self.graph.steps(edges_new).localCheckpoint(eager=True)

        # Seeds (root extensions, line 7) + extensions of stored segments.
        cands = self.graph.seeds(steps_delta).unionByName(
            self.graph.extend(self.index, steps_delta)
        )

        finals = [int(s) for s in self.dfa.finals]
        results = self.spark.createDataFrame([], _INDEX_SCHEMA)
        for it in range(self.max_iters):
            changed = self._merge(cands)
            if changed.isEmpty():
                break
            self.index = (
                self.index.join(
                    changed.select("x", "v", "state"), on=["x", "v", "state"], how="left_anti"
                )
                .unionByName(changed)
                .coalesce(4)
                .localCheckpoint(eager=True)
            )
            results = results.unionByName(
                changed.filter(F.col("state").isin(finals))
            )
            cands = self.graph.extend(changed, steps_all)
        else:
            raise RuntimeError(f"S-PATH did not converge in {self.max_iters} iterations")

        self.edges = edges_new
        out = results.select(
            F.col("x").alias("src"),
            F.col("v").alias("trg"),
            F.lit(self.label).alias("label"),
            "ts",
            "exp",
            "path",
        )
        return coalesce_sgts(out)
