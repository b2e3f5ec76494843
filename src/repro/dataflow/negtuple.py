"""Negative-tuple baseline — the paper's DD comparator (§7.2.2).

Differential Dataflow evaluates an SGQ by keeping each sliding window as
an *evolving collection*: a window movement triggers insertions of new
sgts and **explicit deletions** of expired ones, which flow through the
dataflow as weighted deltas. This module holds the operators where
that strategy differs from the direct approach; everything else is
shared with it:

* FILTER and UNION are the direct engine's stateless ``FilterOp`` and
  ``UnionOp`` (both are linear, so they map weighted deltas unchanged);
* the source is the direct WSCAN plus a driver-held window that emits
  −1 *negative tuples* on expiry; its output is a bag, like the join's;
* PATTERN is the direct engine's telescoping symmetric join
  (``sym_join.MultiJoinOp``) with negative-tuple expiry: states are not
  pruned by ``exp``, they are consolidated by weight so that a −1 cancels
  its +1, and a term is the shared left-deep join tree
  (``algebra.join_phi``) with its inputs' weights multiplied. Its output
  is a bag of weighted deltas, not consolidated;
* ``DDDistinctOp`` keeps multiplicities on the driver and emits
  set-level changes, by the rule DRed's window uses (``fold_counts``);
  as in Differential Dataflow it runs only where a set is observed: at
  each PATH's input, whose keys are DRed's edge set, and at the sink.
  Elsewhere a key's weight counts its derivations (WSCAN, UNION and the
  join are exact on bags);
* recursion (PATH) is maintained with the classical **DRed** algorithm
  [Gupta et al. '93], which the paper identifies as the negative-tuple
  strategy for recursive views: on deletion, over-delete everything
  derivable from the deleted tuples, then re-derive what still has an
  alternative derivation. On cyclic graphs the over-deletion is large —
  the cost the paper's *direct* S-PATH avoids. A product-graph fact
  ``(x, v, state)`` depends only on its root ``x`` and the edges, so
  ``DDPathOp`` is PATH's shared shell (``path_stage.PathOp``) with DRed's
  kernel, ``dred_root``, and window: a driver-held multiset of its input
  edges (``fold_counts``). The kernel sums its ±1 per reached vertex, so
  PATH's output needs no shuffle.

Collections carry no validity intervals: window membership is entirely
managed by the source's insert/delete pairs (CQL SEQ-WINDOW style).

Delta schema: ``src:long, trg:long, label:string, w:long``.
"""
from __future__ import annotations

import operator
import sys
from collections import Counter
from functools import partial, reduce
from itertools import groupby
from typing import List, Set, Tuple

import pandas as pd
from pyspark import cloudpickle
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import LongType, StringType, StructField, StructType

from repro.core import model
from repro.core.algebra import join_phi, step_index
from repro.dataflow.operators import PhysOp, SourceOp
from repro.dataflow.path_stage import PathOp
from repro.dataflow.sym_join import MultiJoinOp

# The grouped stage ships the DRed kernel to Python workers by value, so
# the workers need not import this package.
cloudpickle.register_pickle_by_value(sys.modules[__name__])

DD_SCHEMA = StructType(
    [
        StructField("src", LongType(), False),
        StructField("trg", LongType(), False),
        StructField("label", StringType(), False),
        StructField("w", LongType(), False),
    ]
)

_KEY = ["src", "trg", "label"]

_EDGES = StructType(DD_SCHEMA.fields[:3])

_FACT_SCHEMA = StructType(
    [
        StructField("x", LongType(), False),
        StructField("v", LongType(), False),
        StructField("state", LongType(), False),
    ]
)

Node = Tuple[int, int]  # (vertex, DFA state)


def _empty_dd(spark: SparkSession) -> DataFrame:
    return model.local_df(spark, [], DD_SCHEMA)


def _consolidate(df: DataFrame) -> DataFrame:
    return (
        df.groupBy(*_KEY).agg(F.sum("w").alias("w")).filter(F.col("w") != 0)
    )


class DDSourceOp(SourceOp):
    """Windowed source: the direct WSCAN's +1 for arriving sges, plus −1
    *negative tuples* for sges expiring from the time-based sliding window
    (the WSCAN extension the paper describes for the DD baseline). The
    window is held on the driver as ``rows``, ``(src, trg, label, ts,
    exp)``; the arriving rows are a projection of a local relation, so
    collecting them runs no Spark job."""

    def __init__(self, spark: SparkSession, label: str, size: int, slide: int):
        super().__init__(spark, label, size, slide)
        self.rows: List[tuple] = []

    #: The window as an sgt DataFrame, built on access.
    window = property(lambda self: model.sgt_df(self.spark, self.rows))

    def _on_slide(self, t_now: int) -> DataFrame:
        arriving = super()._on_slide(t_now).select(*_KEY, "ts", "exp").collect()
        expiring = [r for r in self.rows if r[4] <= t_now]
        self.rows = [r for r in self.rows if r[4] > t_now] + arriving
        return model.local_df(
            self.spark,
            [(*r[:3], 1) for r in arriving] + [(*r[:3], -1) for r in expiring],
            DD_SCHEMA,
        )


class DDDistinctOp(PhysOp):
    """DD's ``distinct``: maintains multiplicities and emits set-level
    changes (+1 on 0→>0, −1 on >0→0).

    A slide collects the child's weighted rows and folds them into the
    driver-held ``multiset`` with ``fold_counts``, the rule DRed's window
    fold uses; the changes are a local relation, and ``n_changes`` is
    their number."""

    def __init__(self, spark: SparkSession, child: PhysOp):
        super().__init__(spark)
        self.child = child
        self.multiset: Counter = Counter()
        self.n_changes = 0

    #: The multiplicities (> 0) as a DataFrame, built on access.
    counts = property(
        lambda self: model.local_df(
            self.spark, [(*k, n) for k, n in self.multiset.items()], DD_SCHEMA
        )
    )

    def _on_slide(self, t_now: int) -> DataFrame:
        rows = self.child.process(t_now).select(*_KEY, "w").collect()
        self.multiset, adds, dels = fold_counts(self.multiset, rows)
        changes = [(*k, 1) for k in adds] + [(*k, -1) for k in dels]
        self.n_changes = len(changes)
        return model.local_df(self.spark, changes, DD_SCHEMA)

    def current_keys(self) -> DataFrame:
        return model.local_df(self.spark, list(self.multiset), _EDGES)


class DDJoinOp(MultiJoinOp):
    """Weighted n-way join (PATTERN on ``algebra.join_phi``). It is the
    direct engine's telescoping symmetric join with negative-tuple expiry:
    states keep no intervals and are not pruned (expired sgts arrive as −1
    tuples), and a term's weight is the product of its inputs' weights, so
    a deletion on any input retracts exactly the matches it participated
    in."""

    def _empty(self) -> DataFrame:
        return _empty_dd(self.spark)

    def _expire(self, state: DataFrame, t_now: int) -> DataFrame:
        return state

    def _consolidate(self, state: DataFrame) -> DataFrame:
        """States are never pruned, so a −1 must cancel its +1: sum the
        weights per key and drop zeros."""
        return _consolidate(state)

    def _term(self, inputs: List[DataFrame]) -> DataFrame:
        si, sp = self.src_sel
        ti, tp = self.trg_sel
        w = reduce(operator.mul, [F.col(f"w{i}") for i in range(len(inputs))])
        return join_phi(inputs, self.phi).select(
            F.col(f"{sp}{si}").alias("src"),
            F.col(f"{tp}{ti}").alias("trg"),
            F.lit(self.label).alias("label"),
            w.alias("w"),
        )


def _step(nodes, steps) -> Set[Node]:
    """The product-graph nodes one step from ``nodes``."""
    return {(e[1], t) for n in nodes for t, e in steps.get(n, ())}


def _insert(facts: Set[Node], delta: Set[Node], steps: dict, bound: int) -> Set[Node]:
    """Semi-naive insertion fixpoint: add everything reachable from delta."""
    for _ in range(bound):
        if not delta:
            return facts
        facts |= delta
        delta = _step(delta, steps) - facts
    raise RuntimeError("DRed insertion fixpoint did not converge")


def dred_root(
    x: int,
    facts: Set[Node],
    start: int,
    old: dict,
    dels: dict,
    mid: dict,
    adds: dict,
    new: dict,
) -> Set[Node]:
    """DRed on the product-graph facts ``(v, state)`` rooted at ``x``;
    returns the new fact set.

    ``old``, ``dels``, ``mid``, ``adds`` and ``new`` are ``step_index``es of
    the edges before the slide, deleted, in between (old − dels = new −
    adds), added, and after it. Over-delete everything the deleted edges
    derive w.r.t. the old edges, re-derive the over-deleted facts that still
    have a derivation over ``mid``, then insert what the added edges
    derive. Every round adds a fact, so the rounds are bounded by the
    number of product-graph nodes.
    """
    facts = set(facts)
    root = {(x, start)}
    bound = len(_step(old, old) | _step(new, new)) + 1
    # --- over-deletion (w.r.t. the pre-deletion database) ---
    od = _step(root | facts, dels) & facts
    frontier = od
    for _ in range(bound):
        if not frontier:
            break
        frontier = (_step(frontier, old) & facts) - od
        od |= frontier
    else:
        raise RuntimeError("DRed over-deletion did not converge")
    facts -= od
    # --- re-derivation from surviving facts/edges ---
    facts = _insert(facts, (_step(root | facts, mid) & od) - facts, mid, bound)
    # --- insertion ---
    return _insert(facts, _step(root | facts, adds) - facts, new, bound)


def _dred_group(x, rows, start, finals, **steps):
    """``dred_root`` as the grouped stage's kernel: one root's facts in; its
    new facts (``w`` = 0) and, per ``v``, the net change of its accepting
    facts out: +1 for each that appeared, −1 for each that vanished,
    summed and under the least accepting state that changed. Zero sums are
    dropped."""
    before = set(zip(rows.v.tolist(), rows.state.tolist()))
    after = dred_root(x, before, start, **steps)
    was = {n for n in before if n[1] in finals}
    now = {n for n in after if n[1] in finals}
    out = [(*n, 0) for n in after]
    changed = sorted([(*n, 1) for n in now - was] + [(*n, -1) for n in was - now])
    for v, group in groupby(changed, key=operator.itemgetter(0)):
        group = list(group)
        w = sum(r[2] for r in group)
        if w:
            out.append((v, group[0][1], w))
    return pd.DataFrame(out, columns=["v", "state", "w"])


def fold_counts(counts: Counter, rows) -> Tuple[Counter, Set, Set]:
    """DD's set-level change rule, the fold of ``DDDistinctOp`` and of
    DRed's window: ``counts`` holds each key ``(src, trg, label)`` with its
    count of derivations (> 0), and ``rows`` are a slide's weighted deltas
    ``(src, trg, label, w)``, a bag. Returns the new counts, the keys added
    (count 0 → > 0) and those deleted (> 0 → 0)."""
    delta = Counter()
    for *key, w in rows:
        delta[tuple(key)] += w
    new = counts + delta  # keeps only the keys whose count is > 0
    adds = {k for k in delta if k in new and k not in counts}
    return new, adds, {k for k in delta if k in counts and k not in new}


class DDPathOp(PathOp):
    """DRed-maintained PATH over the (vertex × DFA-state) product graph:
    the shared shell with negative-tuple expiry and DRed's kernel. The
    window is a multiset of the input edges (``fold_counts``), whose keys
    are DRed's edge set (``edges``). The output counts accepting facts per
    ``(src, trg)`` (weight 2 for a pair reached in two accepting states),
    summed per pair in the stage; the sink's distinct makes it a set."""

    PAYLOAD = ("w",)
    STATE = _FACT_SCHEMA
    OUTPUT = DD_SCHEMA
    WINDOW = Counter
    _kernel = staticmethod(_dred_group)

    #: DRed's product-graph facts: the shell's per-root state.
    facts = property(lambda self: self.state)

    #: The current edge set, the multiset's keys, built on access.
    edges = property(lambda self: model.local_df(self.spark, list(self.window), _EDGES))

    def _fold(self, rows, t_now: int):
        """Expired edges arrive as −1 rows. DRed runs when an edge was
        added or deleted, on the edges before, deleted, kept, added, after."""
        old = self.window
        self.window, adds, dels = fold_counts(old, rows)
        if not adds and not dels:
            return None
        index = partial(step_index, self.dfa)
        return {
            "old": index(old),
            "dels": index(dels),
            "mid": index(old.keys() - dels),
            "adds": index(adds),
            "new": index(self.window),
        }
