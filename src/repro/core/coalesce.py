"""Coalesce primitive and interval utilities (paper Defs. 10–11).

Value-equivalent sgts (same ``src, trg, label``) with overlapping or
adjacent validity intervals are merged into one sgt spanning
``[min ts, max exp)``; the payload aggregation keeps the payload of the
constituent that expires furthest in the future (the ``max``-expiry
aggregation S-PATH relies on, §6.2 fn. 11).

``coalesce_intervals`` is the same coalesce over rows on the driver,
where S-PATH keeps its window adjacency and coalesces each root's
results. (Batch PATH keeps Pareto sets of intervals instead, on the
driver: ``algebra.pareto_root``.)
"""
from __future__ import annotations

import sys
from typing import Iterable, List, Sequence

from pyspark import cloudpickle
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

# S-PATH's grouped stage ships ``coalesce_intervals`` to Python workers by
# value, so the workers need not import this package.
cloudpickle.register_pickle_by_value(sys.modules[__name__])

_KEYS = ("src", "trg", "label")


def coalesce_sgts(df: DataFrame, keys: Sequence[str] = _KEYS) -> DataFrame:
    """Temporal coalescing: merge overlapping/adjacent intervals per key.

    In the package, only the batch reference ``algebra.evaluate`` calls
    it. The streaming operators never pay this shuffle: they make a set
    only where one is needed, on the driver or inside PATH's grouped
    stage.

    Classic gaps-and-islands with window functions: within a key group
    ordered by ``ts``, a row starts a new island iff its ``ts`` is strictly
    greater than the running maximum ``exp`` of all earlier rows (equality
    means adjacency ``[a,b) + [b,c)``, which coalesces). Islands collapse to
    ``[min ts, max exp)`` and the payload of the max-``exp`` row survives.
    """
    keys = list(keys)
    w_prev = Window.partitionBy(*keys).orderBy("ts", "exp").rowsBetween(
        Window.unboundedPreceding, -1
    )
    w_run = Window.partitionBy(*keys).orderBy("ts", "exp").rowsBetween(
        Window.unboundedPreceding, 0
    )
    has_path = "path" in df.columns
    island = (
        df.withColumn("_prev_max", F.max("exp").over(w_prev))
        .withColumn(
            "_new",
            F.when(
                F.col("_prev_max").isNull() | (F.col("ts") > F.col("_prev_max")), 1
            ).otherwise(0),
        )
        .withColumn("_island", F.sum("_new").over(w_run))
    )
    aggs = [F.min("ts").alias("ts"), F.max("exp").alias("exp")]
    if has_path:
        aggs.append(F.max_by("path", "exp").alias("path"))
    out = island.groupBy(*keys, "_island").agg(*aggs).drop("_island")
    cols = keys + ["ts", "exp"] + (["path"] if has_path else [])
    return out.select(*cols)


def coalesce_intervals(rows: Iterable[tuple]) -> List[tuple]:
    """``coalesce_sgts`` on the driver, for rows ``(*key, ts, exp)``
    without a payload: in ``(key, ts, exp)`` order, a row joins the
    previous island of its key iff its ``ts`` is at most the island's
    ``exp``. Returns the islands ``(*key, min ts, max exp)`` in that order.
    """
    out: List[tuple] = []
    for r in sorted(rows):
        last = out[-1] if out else None
        if last is not None and last[:-2] == r[:-2] and r[-2] <= last[-1]:
            out[-1] = (*last[:-1], max(last[-1], r[-1]))
        else:
            out.append(tuple(r))
    return out
