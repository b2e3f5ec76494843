"""Micro-batch dataflow engine — the Timely Dataflow substitute (§7.1.1).

The paper's prototype compiles the canonical SGA expression into a
tree-shaped dataflow of physical operators with WSCANs at the sources
and a sink that pushes results incrementally. This engine does the same
over Spark DataFrames:

* ``compile_plan`` maps each logical SGA node to its physical operator —
  the *direct*-approach operators (mode ``"sga"``: symmetric hash join,
  S-PATH) or the *negative-tuple* baseline (mode ``"dd"``: weighted
  deltas + DRed), §6 / §7.2.2. The modes share FILTER and UNION, the
  join's telescoping shell (``DDJoinOp`` subclasses ``MultiJoinOp``) and
  PATH's (``SPathOp`` and ``DDPathOp`` subclass ``path_stage.PathOp``),
  and differ only where expiry handling does: pruning by ``exp`` vs −1
  tuples, S-PATH's vs DRed's window fold and per-root kernel. Both modes
  pass bags and make a set only where one is observed: PATH folds its
  input into a driver-held window and coalesces (SGA) or sums (DD) each
  root's output in its stage; DD's ``DDDistinctOp`` runs at each PATH's
  input (DRed's edge set) and at the sink (``result_counts``), SGA's
  ``ResultState`` at the sink. The sinks, DD's distincts and DD's
  source window are driver-held folds, one collect of their input per
  slide, so the answer set is read without a Spark job;
* ``MicroBatchEngine.run`` replays an input graph stream slide by slide
  (slide interval β = input batch size, as in §7.1.2), from the slide
  that holds the first edge, timing each window movement end-to-end —
  arriving sgts, expirations, and result production — to report
  throughput and tail latency like the paper's Table 2.

Every frame the driver builds (a source's batch, an empty state, PATH's
marker rows, a driver fold's output) is a JVM local relation
(``model.local_df``), so the only per-slide Spark job that starts Python
workers is PATH's grouped stage.

Timely's progress tracking is replaced by the driver's watermark
``t_now``: a slide's batch is fully delivered to every source before the
root is pulled, so operators never see out-of-order data.
"""
from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

import pandas as pd
from pyspark.sql import SparkSession

from repro.core.algebra import Filter, Path, Pattern, SGANode, Union, Wscan
from repro.dataflow import negtuple as dd
from repro.dataflow.metrics import RunMetrics
from repro.dataflow.operators import (
    FilterOp,
    PhysOp,
    ResultState,
    SourceOp,
    UnionOp,
)
from repro.dataflow.spath import SPathOp
from repro.dataflow.sym_join import MultiJoinOp

MODES = ("sga", "dd")

#: ``spark.sql.shuffle.partitions`` while a stream runs: slide batches are
#: small, so few partitions keep task scheduling cheap.
SHUFFLE_PARTITIONS = 4


def compile_plan(
    spark: SparkSession, node: SGANode, mode: str
) -> Tuple[PhysOp, List[SourceOp]]:
    """Compile an SGA expression into a physical dataflow.

    Returns the root operator and the list of source operators. Shared
    sub-expressions (SGQParser reuses nodes) compile to shared operator
    instances; per-slide output caching in ``PhysOp.process`` keeps the
    DAG single-evaluation.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    sources: List[SourceOp] = []
    memo: Dict[int, PhysOp] = {}
    sga = mode == "sga"

    def build(n: SGANode) -> PhysOp:
        if id(n) in memo:
            return memo[id(n)]
        if isinstance(n, Wscan):
            source = SourceOp if sga else dd.DDSourceOp
            op: PhysOp = source(spark, n.source, n.size, n.slide)
            sources.append(op)
        elif isinstance(n, Filter):
            op = FilterOp(spark, build(n.child), n.predicate)
        elif isinstance(n, Union):
            op = UnionOp(spark, [build(c) for c in n.children], n.label)
        elif isinstance(n, Pattern):
            join = MultiJoinOp if sga else dd.DDJoinOp
            children = [build(c) for c in n.children]
            op = join(spark, children, n.phi, n.src_sel, n.trg_sel, n.label)
        elif isinstance(n, Path):
            children = [build(c) for c in n.children]
            if not sga:  # DRed's edge set: a distinct over PATH's input
                children = [dd.DDDistinctOp(spark, UnionOp(spark, children, None))]
            op = (SPathOp if sga else dd.DDPathOp)(spark, children, n.regex, n.label)
        else:
            raise TypeError(f"unknown SGA node {n!r}")
        memo[id(n)] = op
        return op

    return build(node), sources


class MicroBatchEngine:
    """Persistent-query driver: replays a stream through a compiled plan."""

    def __init__(self, spark: SparkSession, plan: SGANode, mode: str = "sga"):
        self.spark = spark
        self.plan = plan
        self.mode = mode
        self.root, self.sources = compile_plan(spark, plan, mode)
        specs = {(s.size, s.slide) for s in self.sources}
        if len(specs) != 1:
            raise ValueError(f"plan must have exactly one window spec, got {specs}")
        (self.window, self.slide), = specs
        self.labels = {s.label for s in self.sources}
        if mode == "sga":
            self.result = ResultState(spark)
        else:
            self.result_counts = dd.DDDistinctOp(spark, self.root)
        self.t_now: Optional[int] = None

    # -- result access -----------------------------------------------------
    def current_pairs(self) -> List[tuple]:
        """The current answer set of the persistent query (what a user of
        the system observes after the last window movement)."""
        if self.mode == "sga":
            return self.result.current_pairs(self.t_now)
        return [(src, trg) for src, trg, _ in self.result_counts.multiset]

    # -- driving -----------------------------------------------------------
    def run(
        self,
        stream: pd.DataFrame,
        on_slide: Optional[Callable[["MicroBatchEngine", int], None]] = None,
        metrics: Optional[RunMetrics] = None,
        until: Optional[int] = None,
    ) -> RunMetrics:
        """Process the whole stream in slides of β time units.

        After the batch for boundary ``B`` is processed, the engine's time
        is ``t_now = B − 1`` (the last instant for which all input has
        arrived); expirations are evaluated against it. The first slide is
        the one that holds the first edge (the window is empty before it),
        so the first boundary is ``(min ts // β + 1) · β``. ``until`` keeps
        the window sliding (with empty batches) past the last arrival so
        pure-expiration slides are observable. ``on_slide`` runs after
        each slide (used by tests for oracle checks) and is *not*
        included in the timed section. Raises ``ValueError`` unless the
        plan's edges have non-negative integer ``ts``.
        """
        if metrics is None:
            metrics = RunMetrics(system=self.mode, query="?", dataset="?")
        stream = stream[stream.label.isin(self.labels)].reset_index(drop=True)
        if len(stream) == 0:
            return metrics
        if not pd.api.types.is_integer_dtype(stream.ts) or (stream.ts < 0).any():
            raise ValueError("stream ts must be non-negative integers")
        old_parts = self.spark.conf.get("spark.sql.shuffle.partitions")
        self.spark.conf.set("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        try:
            beta = self.slide
            t_max = int(stream.ts.max())
            if until is not None:
                t_max = max(t_max, until - beta)
            boundary = (int(stream.ts.min()) // beta + 1) * beta
            while boundary <= t_max + beta:
                batch = stream[
                    (stream.ts >= boundary - beta) & (stream.ts < boundary)
                ]
                t_now = boundary - 1
                start = time.perf_counter()
                for s in self.sources:
                    s.pending = batch[batch.label == s.label]
                delta = self.root.process(t_now)
                if self.mode == "sga":
                    n = self.result.update(delta, t_now)
                else:
                    self.result_counts.process(t_now)
                    n = self.result_counts.n_changes
                elapsed = time.perf_counter() - start
                self.t_now = t_now
                metrics.slide_seconds.append(elapsed)
                metrics.slide_edges.append(int(len(batch)))
                metrics.n_results += int(n)
                if on_slide is not None:
                    on_slide(self, t_now)
                boundary += beta
        finally:
            self.spark.conf.set("spark.sql.shuffle.partitions", old_parts)
        return metrics
