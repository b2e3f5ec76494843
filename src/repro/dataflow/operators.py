"""Physical operator base + stateless operators, *direct* approach (§6).

Operators form a dataflow (a DAG — SGQParser reuses sub-expressions, so
results are cached per slide). Each slide, the engine feeds the new
input batch to the WSCAN sources and pulls a *delta* — the sgts produced
by this window movement — from the root.

In the direct approach nothing is ever retracted: every emitted sgt
carries its own validity interval, and expirations are located directly
by comparing ``exp`` with the current time (no negative tuples). This is
the property the paper exploits for append-only streaming graphs. The
sink (``ResultState``) collects each slide's delta and keeps the result
on the driver, where it is read.
"""
from __future__ import annotations

from typing import List, Optional, Sequence

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core import model


class PhysOp:
    """Base physical operator (direct approach): ``process(t_now)`` returns
    this slide's output delta as an sgt DataFrame, cached per slide so
    shared sub-plans are evaluated once."""

    def __init__(self, spark: SparkSession):
        self.spark = spark
        self._last_t: Optional[int] = None
        self._last_out: Optional[DataFrame] = None

    def process(self, t_now: int) -> DataFrame:
        if self._last_t != t_now:
            self._last_out = self._on_slide(t_now)
            self._last_t = t_now
        return self._last_out

    def _on_slide(self, t_now: int) -> DataFrame:
        raise NotImplementedError


def prune_valid(df: DataFrame, t_now: int) -> DataFrame:
    """Direct expiration: drop rows no longer valid at ``t_now``."""
    return df.filter(F.col("exp") > F.lit(t_now))


class SourceOp(PhysOp):
    """WSCAN at a source: assigns validity intervals to the slide's batch.

    Stateless (Def. 16 is a map); the engine sets ``pending`` (a pandas
    frame of this slide's sges for one label) before each slide.
    """

    def __init__(self, spark: SparkSession, label: str, size: int, slide: int):
        super().__init__(spark)
        self.label = label
        self.size = size
        self.slide = slide
        self.pending: Optional[pd.DataFrame] = None

    def _on_slide(self, t_now: int) -> DataFrame:
        batch = self.pending
        self.pending = None
        if batch is None or len(batch) == 0:
            return model.empty_sgt(self.spark)
        return model.wscan(model.sge_df(self.spark, batch), self.size, self.slide)


class FilterOp(PhysOp):
    """Stateless FILTER (standard implementation, §6)."""

    def __init__(self, spark: SparkSession, child: PhysOp, predicate: str):
        super().__init__(spark)
        self.child = child
        self.predicate = predicate

    def _on_slide(self, t_now: int) -> DataFrame:
        return self.child.process(t_now).filter(self.predicate)


class UnionOp(PhysOp):
    """Stateless UNION with optional relabeling (standard implementation)."""

    def __init__(
        self, spark: SparkSession, children: Sequence[PhysOp], label: Optional[str]
    ):
        super().__init__(spark)
        self.children = list(children)
        self.label = label

    def _on_slide(self, t_now: int) -> DataFrame:
        out = self.children[0].process(t_now)
        for c in self.children[1:]:
            out = out.unionByName(c.process(t_now))
        if self.label:
            out = out.withColumn("label", F.lit(self.label))
        return out


class ResultState:
    """Accumulated query output (the sink): the result sgts, held on the
    driver as ``rows`` and pruned by validity, queryable as the current
    result set — what the user of a persistent query observes."""

    def __init__(self, spark: SparkSession):
        self.spark = spark
        self.rows: List[tuple] = []

    #: The result as an sgt DataFrame, built on access.
    df = property(lambda self: model.local_df(self.spark, self.rows, model.SGT_SCHEMA))

    def update(self, delta: DataFrame, t_now: int) -> int:
        """Add this slide's delta, drop what expired, and return the
        number of delta rows: one collect."""
        new = delta.select(*model.SGT_COLS).collect()
        self.rows = [r for r in self.rows if r.exp > t_now] + new
        return len(new)

    def current_pairs(self, t_now: int) -> List[tuple]:
        """The distinct ``(src, trg)`` of the sgts valid at ``t_now``."""
        return list({(r.src, r.trg) for r in self.rows if r.ts <= t_now < r.exp})
