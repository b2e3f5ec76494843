"""Streaming graph data model (paper §3).

A *streaming graph edge* (sge, Def. 3) is ``(src, trg, label, ts)``; a
*streaming graph tuple* (sgt, Def. 7) is ``(src, trg, label, [ts, exp),
D)`` where ``[ts, exp)`` is the validity interval and the payload ``D``
is the sequence of edges that produced the tuple (paths as first-class
citizens, Def. 6).

Spark representation:

* sge DataFrame: ``src:long, trg:long, label:string, ts:long``
* sgt DataFrame: ``src:long, trg:long, label:string, ts:long, exp:long,
  path:array<struct<src:long, trg:long, label:string>>``

The payload edge struct carries only the distinguished attributes, as in
the paper's examples (e.g. Fig. 3: a PATTERN result's payload is the
derived edge, a PATH result's payload is the sequence of traversed
edges).

Every DataFrame the driver builds from its own rows goes through
``local_df``, which hands Spark a ``pyarrow.Table``. Spark plans it as a
JVM ``LocalTableScan``. A frame built from a Python list (or from pandas
with Arrow off) is instead a pickled Python RDD of ``defaultParallelism``
partitions, and every scan of it starts that many Python worker tasks,
even when it is empty.
"""
from __future__ import annotations

from typing import Iterable, Sequence

import pandas as pd
import pyarrow as pa
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.pandas.types import to_arrow_schema
from pyspark.sql.types import (
    ArrayType,
    LongType,
    StringType,
    StructField,
    StructType,
    _make_type_verifier,
)

#: Schema of a payload edge (an element of the payload sequence D).
PATH_EDGE_TYPE = StructType(
    [
        StructField("src", LongType(), False),
        StructField("trg", LongType(), False),
        StructField("label", StringType(), False),
    ]
)

#: Schema of an input graph stream (Def. 4).
SGE_SCHEMA = StructType(
    [
        StructField("src", LongType(), False),
        StructField("trg", LongType(), False),
        StructField("label", StringType(), False),
        StructField("ts", LongType(), False),
    ]
)

#: Schema of a streaming graph (sequence of sgts, Def. 8).
SGT_SCHEMA = StructType(
    [
        StructField("src", LongType(), False),
        StructField("trg", LongType(), False),
        StructField("label", StringType(), False),
        StructField("ts", LongType(), False),
        StructField("exp", LongType(), False),
        StructField("path", ArrayType(PATH_EDGE_TYPE), True),
    ]
)

#: Column order of the distinguished + temporal attributes of an sgt.
SGT_COLS = ["src", "trg", "label", "ts", "exp", "path"]


def local_df(
    spark: SparkSession, rows: Iterable[Sequence] | pd.DataFrame, schema: StructType
) -> DataFrame:
    """A DataFrame of driver-held ``rows`` (tuples in ``schema``'s column
    order, or a pandas frame holding at least its columns), built as a
    ``pyarrow.Table`` so that Spark scans it in the JVM (``LocalTableScan``).

    The checks of ``createDataFrame(list, verifySchema=True)`` still hold:
    a value of the wrong type raises, and so does (``ValueError``) a null
    in a non-nullable field. ``pyarrow.Table.from_pandas`` checks both for
    pandas columns. Tuples go through Spark's own row verifier, because
    ``pa.array`` checks neither ``nullable=False`` nor fractions (it
    truncates a float into a long column without a word).
    """
    arrow = to_arrow_schema(schema)
    if isinstance(rows, pd.DataFrame):
        table = pa.Table.from_pandas(rows, schema=arrow, preserve_index=False)
    else:
        rows = list(rows)
        verify = _make_type_verifier(schema)
        for r in rows:
            verify(r)
        table = pa.Table.from_arrays(
            [pa.array([r[i] for r in rows], type=f.type) for i, f in enumerate(arrow)],
            schema=arrow,
        )
    return spark.createDataFrame(table, schema)


def sge_df(spark: SparkSession, rows: Iterable[Sequence] | pd.DataFrame) -> DataFrame:
    """Build an input-graph-stream DataFrame from ``(src, trg, label, ts)`` rows."""
    return local_df(spark, rows, SGE_SCHEMA)


def sgt_df(spark: SparkSession, rows: Iterable[Sequence]) -> DataFrame:
    """Build an sgt DataFrame from ``(src, trg, label, ts, exp[, path])`` rows.

    When ``path`` is omitted the payload defaults to the tuple's own edge,
    matching Def. 7 for input edges.
    """
    rows = (tuple(r) + ([tuple(r[:3])],) if len(r) == 5 else r for r in rows)
    return local_df(spark, rows, SGT_SCHEMA)


def empty_sgt(spark: SparkSession) -> DataFrame:
    """An empty streaming graph."""
    return local_df(spark, [], SGT_SCHEMA)


def wscan(edges: DataFrame, size: int, slide: int = 1) -> DataFrame:
    """WSCAN windowing operator (Def. 16).

    Turns an input graph stream into a streaming graph by assigning each
    sge the validity interval ``[t, floor(t/beta)*beta + T)``; the payload
    is the edge itself. ``slide`` (β) defaults to 1, i.e. a window that
    slides every time instant.
    """
    if size <= 0 or slide <= 0:
        raise ValueError("window size and slide must be positive")
    return edges.select(
        "src",
        "trg",
        "label",
        "ts",
        (F.floor(F.col("ts") / slide) * slide + size).cast("long").alias("exp"),
        F.array(F.struct("src", "trg", "label")).alias("path"),
    )


def snapshot(sgts: DataFrame, t: int) -> DataFrame:
    """Snapshot graph at time ``t`` (Def. 12): distinct edges valid at ``t``.

    Returns the distinguished attributes only — snapshots have set
    semantics, so value-equivalent sgts collapse to one edge.
    """
    return (
        sgts.filter((F.col("ts") <= F.lit(t)) & (F.col("exp") > F.lit(t)))
        .select("src", "trg", "label")
        .distinct()
    )

