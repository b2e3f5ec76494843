"""PATH's physical operator shell, written once for both engines.

Δ-PATH is a forest of spanning trees, one per root vertex *x* (§6.2; the
same index is in Pacaci, Bonifati & Özsu, SIGMOD 2020), and DRed's
product-graph facts ``(x, v, state)`` depend only on their root and the
window's edges. So S-PATH (``spath.SPathOp``) and DRed
(``negtuple.DDPathOp``) share one shell, ``PathOp``, the PATH
counterpart of ``sym_join.MultiJoinOp``: per slide it collects its
input, has the subclass fold it into a window kept on the driver, runs
one per-root grouped stage over its state and projects the output. The
subclasses differ only where the paper says they do, in expiry
handling: the window fold (pruning by ``exp`` vs a multiset of ±w
rows) and the per-root kernel.

The stage is the only per-slide Spark job that runs Python: the marker
rows are a JVM local relation (``model.local_df``), and only ``per_root``
and the kernel are shipped to the workers, so this module may import
the package.
"""
from __future__ import annotations

import sys
from functools import partial, reduce
from typing import List, Optional, Sequence

from pyspark import cloudpickle
from pyspark.sql import DataFrame, Row, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import LongType, StructField, StructType

from repro.core import model
from repro.core.regex import compile_dfa
from repro.dataflow.operators import PhysOp

# The stage ships the group wrapper to Python workers by value, so the
# workers need not import this package.
cloudpickle.register_pickle_by_value(sys.modules[__name__])

#: A marker row's state: it names a new root and is no state row.
MARKER = -1


def per_root(pdf, kernel):
    """The stage's group function: ``kernel`` on one root's state rows,
    markers stripped, with ``x`` put back. (Without type hints:
    ``applyInPandas`` would try to read a UDF type from them.)"""
    x = int(pdf.x.iloc[0])
    out = kernel(x, pdf[pdf.state != MARKER])
    out.insert(0, "x", x)
    return out


class PathOp(PhysOp):
    """PATH's operator shell. A subclass sets ``PAYLOAD`` (the input
    columns its fold takes after ``src, trg, label``), ``STATE`` (the
    per-root state's schema: ``x, v, state, ...``), ``OUTPUT``, ``WINDOW``
    (the empty window's type), ``_fold`` and ``_kernel``.

    ``_fold(rows, t_now)`` folds the slide's input rows with the DFA's
    labels into ``window``, expires what expired, and returns the
    kernel's step indexes by keyword, the arriving ones as ``adds``, or
    ``None`` when the kernel has nothing to do. Otherwise one grouped
    stage, checkpointed once, runs ``_kernel(x, rows, start, finals,
    **steps)`` on each root's state rows (pandas, no ``x``), plus a marker
    row per new root (the source of an arriving step that leaves the
    start state). The kernel, a module-level function held as a
    ``staticmethod`` so that the stage pickles no operator, returns the
    root's new state rows (``w`` = 0) and output rows (``w`` ≠ 0), whose
    ``x, v`` become ``src, trg``."""

    def __init__(
        self,
        spark: SparkSession,
        children: Sequence[PhysOp],
        regex: str,
        label: str,
    ):
        super().__init__(spark)
        self.children = list(children)
        self.label = label
        self.dfa = compile_dfa(regex)
        self.state: DataFrame = model.local_df(spark, [], self.STATE)
        self.window = self.WINDOW()

    def _fold(self, rows: List[Row], t_now: int) -> Optional[dict]:
        raise NotImplementedError

    def _on_slide(self, t_now: int) -> DataFrame:
        delta = reduce(DataFrame.unionByName, [c.process(t_now) for c in self.children])
        labels = [str(l) for l in self.dfa.labels()]
        steps = self._fold(
            delta.filter(F.col("label").isin(labels))
            .select("src", "trg", "label", *self.PAYLOAD)
            .collect(),
            t_now,
        )
        if steps is None:
            return model.local_df(self.spark, [], self.OUTPUT)
        start, schema = self.dfa.start, self.STATE
        pad = tuple(None if f.nullable else 0 for f in schema.fields[3:])
        markers = [(x, x, MARKER) + pad for x, s in steps["adds"] if s == start]
        kernel = partial(
            self._kernel, start=start, finals=frozenset(self.dfa.finals), **steps
        )
        out = (
            self.state.unionByName(model.local_df(self.spark, markers, schema))
            .groupBy("x")
            .applyInPandas(
                partial(per_root, kernel=kernel),
                StructType(schema.fields + [StructField("w", LongType(), False)]),
            )
            .localCheckpoint(eager=True)
        )
        self.state = out.filter(F.col("w") == 0).drop("w")
        return out.filter(F.col("w") != 0).select(
            F.col("x").alias("src"),
            F.col("v").alias("trg"),
            F.lit(self.label).alias("label"),
            *self.OUTPUT.fieldNames()[3:],
        )
