"""The per-root grouped PATH stage that both engines run once per slide.

Δ-PATH is a forest of spanning trees, one per root vertex *x* (§6.2; the
same index is in Pacaci, Bonifati & Özsu, SIGMOD 2020), and DRed's
product-graph facts ``(x, v, state)`` depend only on their root and the
window's edges. So S-PATH and DRed each run a slide as one grouped stage
over their state; they differ only in the window adjacency they keep on
the driver, the per-root kernel and the output projection.

The stage is the only per-slide Spark job that runs Python: the marker
rows are a JVM local relation (``model.local_df``), and only ``per_root``
and the kernel are shipped to the workers, so this module may import
the package.
"""
from __future__ import annotations

import sys
from functools import partial
from typing import List, Sequence, Tuple

from pyspark import cloudpickle
from pyspark.sql import DataFrame, Row
from pyspark.sql import functions as F
from pyspark.sql.types import LongType, StructField, StructType

from repro.core import model
from repro.core.regex import DFA

# The stage ships the group wrapper to Python workers by value, so the
# workers need not import this package.
cloudpickle.register_pickle_by_value(sys.modules[__name__])

#: A marker row's state: it names a new root and is no state row.
MARKER = -1


def collect_delta(delta: DataFrame, dfa: DFA, cols: Sequence[str]) -> List[Row]:
    """PATH's input delta on the driver, restricted to the DFA's labels."""
    labels = [str(l) for l in dfa.labels()]
    return delta.filter(F.col("label").isin(labels)).select(*cols).collect()


def per_root(pdf, kernel):
    """The stage's group function: ``kernel`` on one root's state rows,
    markers stripped, with ``x`` put back. (Without type hints:
    ``applyInPandas`` would try to read a UDF type from them.)"""
    x = int(pdf.x.iloc[0])
    out = kernel(x, pdf[pdf.state != MARKER])
    out.insert(0, "x", x)
    return out


def run_stage(
    state: DataFrame, dfa: DFA, arriving: dict, kernel
) -> Tuple[DataFrame, DataFrame]:
    """One ``groupBy("x").applyInPandas`` stage over ``state`` (columns
    ``x, v, state, ...``), checkpointed once; returns the new state and the
    output rows.

    A marker row per new root (the source of an arriving step that leaves
    the DFA's start state; ``arriving`` is the ``algebra.step_index`` of the
    arriving edges) gives a root without state rows a group. It fills the
    other columns with 0, or null where nullable. ``kernel(x, rows)`` maps
    one root's state rows (pandas, no ``x``) to its new state rows
    (``w`` = 0) and its output rows (``w`` ≠ 0)."""
    schema = state.schema
    pad = tuple(None if f.nullable else 0 for f in schema.fields[3:])
    markers = model.local_df(
        state.sparkSession,
        [(x, x, MARKER) + pad for x, s in arriving if s == dfa.start],
        schema,
    )
    out = (
        state.unionByName(markers)
        .groupBy("x")
        .applyInPandas(
            partial(per_root, kernel=kernel),
            StructType(schema.fields + [StructField("w", LongType(), False)]),
        )
        .localCheckpoint(eager=True)
    )
    return out.filter(F.col("w") == 0).drop("w"), out.filter(F.col("w") != 0)
