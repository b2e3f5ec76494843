"""Shared helpers for snapshot-reducibility testing.

``check_plan`` is the workhorse: it evaluates an SGA expression with the
batch (reference) evaluator over a bounded stream, then asserts — via
the DuckDB oracle — that the snapshot of the result at each sampled time
equals the one-time query over the window snapshot (Def. 13).
"""
from __future__ import annotations

from typing import Iterable, Sequence

import pandas as pd

from repro.core import model
from repro.core.algebra import Path, SGANode, evaluate
from repro.core.duck_oracle import sga_snapshot_sql
from repro.oracle import assert_equivalent


def sources_by_label(spark, pdf: pd.DataFrame) -> dict:
    """Logical partitioning (Def. 9): one input stream per label."""
    return {
        l: model.sge_df(spark, pdf[pdf.label == l].reset_index(drop=True))
        for l in pdf.label.unique()
    }


def check_plan(
    spark,
    plan: SGANode,
    pdf: pd.DataFrame,
    times: Sequence[int],
) -> None:
    out = evaluate(plan, sources_by_label(spark, pdf)).localCheckpoint(eager=True)
    check_witnesses(plan, out.collect())
    for t in times:
        assert_equivalent(
            model.snapshot(out, t),
            sga_snapshot_sql(plan, t),
            stream=pdf,
        )


def check_witnesses(plan: SGANode, rows) -> None:
    """Every sgt's ``path`` is a non-empty walk from ``src`` to ``trg``; under
    a PATH root, its labels are a word of the root's regex."""
    for r in rows:
        walk = [tuple(e) for e in r.path]
        assert walk and walk[0][0] == r.src and walk[-1][1] == r.trg, r
        assert all(a[1] == b[0] for a, b in zip(walk, walk[1:])), r
        if isinstance(plan, Path):
            assert plan.dfa().accepts([e[2] for e in walk]), r


def check_result_set(result_pairs: Iterable, sql: str, pdf: pd.DataFrame) -> None:
    """Compare a collected set of (src, trg) pairs against a DuckDB query
    (used by the incremental-engine tests, where the result is plain data)."""
    import duckdb

    con = duckdb.connect()
    try:
        con.register("stream", pdf)
        expected = {tuple(r) for r in con.execute(sql).fetchall()}
    finally:
        con.close()
    got = {tuple(p) for p in result_pairs}
    assert got == expected, (
        f"result mismatch: extra={sorted(got - expected)[:10]} "
        f"missing={sorted(expected - got)[:10]}"
    )
