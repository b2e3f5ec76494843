"""Incremental SGA engine (direct approach) vs the DuckDB oracle.

After every window movement, the engine's current answer set must equal
the one-time query over the current window snapshot (Def. 13 applied at
the watermark) — for every query shape of Table 1.
"""
import pandas as pd
import pytest

from repro.core.duck_oracle import sga_snapshot_sql
from repro.core.rq import parse_rq
from repro.core.sgq_parser import build_sga, rpq_plan
from repro.dataflow.engine import MicroBatchEngine
from repro.streams import random_stream, so_stream
from tests.util import check_result_set

W, BETA = 6, 3


def pairs_sql(plan, t):
    return f"SELECT DISTINCT src, trg FROM ({sga_snapshot_sql(plan, t)})"


def run_checked(spark, plan, pdf, mode="sga", until=None):
    engine = MicroBatchEngine(spark, plan, mode=mode)
    checks = []

    def on_slide(eng, t_now):
        check_result_set(eng.current_pairs(), pairs_sql(plan, t_now), pdf)
        checks.append(t_now)

    m = engine.run(pdf, on_slide=on_slide, until=until)
    assert len(checks) >= 3, "expected at least 3 slides"
    return m


@pytest.fixture(scope="module")
def pdf():
    return random_stream(n_edges=70, n_vertices=8, t_span=18, seed=21)


def test_engine_wscan_filter(spark_small, pdf):
    from repro.core.algebra import Filter, Wscan

    run_checked(spark_small, Filter(Wscan("a", W, BETA), "src <> trg"), pdf)


def test_engine_union(spark_small, pdf):
    from repro.core.algebra import Union, Wscan

    run_checked(
        spark_small, Union([Wscan("a", W, BETA), Wscan("b", W, BETA)], label="d"), pdf
    )


def test_engine_pattern_two_way(spark_small, pdf):
    plan = build_sga(parse_rq("Ans(x, y) <- a(x, z), b(z, y)"), W, BETA)
    m = run_checked(spark_small, plan, pdf)
    assert m.total_edges > 0 and m.throughput > 0


def test_engine_pattern_triangle(spark_small, pdf):
    plan = build_sga(parse_rq("Ans(x, y) <- a(x, m), b(x, y), c(y, m)"), W, BETA)
    run_checked(spark_small, plan, pdf)


def test_engine_path_aplus(spark_small, pdf):
    run_checked(spark_small, rpq_plan("a+", W, BETA), pdf)


def test_engine_path_concat_star(spark_small, pdf):
    run_checked(spark_small, rpq_plan("a . b*", W, BETA), pdf)


def test_engine_path_abc_plus(spark_small, pdf):
    run_checked(spark_small, rpq_plan("(a . b . c)+", W, BETA), pdf)


def test_engine_q6(spark_small, pdf):
    plan = build_sga(
        parse_rq("Ans(x, y) <- a+(x, y), b(x, m), c(m, y)"), W, BETA
    )
    run_checked(spark_small, plan, pdf)


def test_engine_q8(spark_small, pdf):
    plan = build_sga(
        parse_rq("P(x, y) <- a(x, z), a(y, z); Ans(x, y) <- P+(x, y)"), W, BETA
    )
    run_checked(spark_small, plan, pdf)


def test_engine_q7_nested(spark_small):
    pdf = random_stream(n_edges=40, n_vertices=7, t_span=12, seed=33)
    plan = build_sga(
        parse_rq(
            """
            RL(x, y) <- a+(x, y), b(x, m), c(m, y)
            Ans(x, m) <- RL+(x, y), c(m, y)
            """
        ),
        W,
        BETA,
    )
    run_checked(spark_small, plan, pdf)


def test_engine_on_cyclic_so(spark_small):
    pdf = so_stream(n_edges=90, n_vertices=10, t_span=18, seed=2)
    run_checked(spark_small, rpq_plan("a2q+", W, BETA), pdf)


def test_engine_metrics_populated(spark_small, pdf):
    engine = MicroBatchEngine(spark_small, rpq_plan("a+", W, BETA))
    m = engine.run(pdf)
    assert len(m.slide_seconds) == len(m.slide_edges) >= 3
    assert m.total_edges == int((pdf.label == "a").sum())
    assert m.tail_latency >= max(m.slide_seconds) * 0.9
    row = m.row()
    assert set(row) >= {"throughput_eps", "tail_latency_s", "edges"}


def test_engine_rejects_mixed_windows(spark_small):
    from repro.core.algebra import Union, Wscan

    with pytest.raises(ValueError):
        MicroBatchEngine(spark_small, Union([Wscan("a", 5), Wscan("b", 7)]))


@pytest.mark.parametrize("ts", [-1, 0.5])
def test_engine_rejects_negative_or_fractional_ts(spark_small, ts):
    """Negative and fractional ts are outside the input contract."""
    stream = pd.DataFrame(
        [(1, 2, "a", ts), (2, 3, "a", 1)], columns=["src", "trg", "label", "ts"]
    )
    with pytest.raises(ValueError, match="non-negative integers"):
        MicroBatchEngine(spark_small, rpq_plan("a+", W, BETA)).run(stream)


@pytest.mark.parametrize("mode", ["sga", "dd"])
def test_engine_starts_at_the_first_edges_slide(spark_small, mode):
    """Slides before the first edge would see an empty window: the first
    slide is the one holding the first edge, and ``until`` still ends the
    run at the same slide."""
    plan = rpq_plan("a+", 4, 1)
    pdf = pd.DataFrame(
        [(1, 2, "a", 13), (2, 3, "a", 14), (3, 1, "a", 15)],
        columns=["src", "trg", "label", "ts"],
    )
    seen = []

    def on_slide(eng, t_now):
        check_result_set(eng.current_pairs(), pairs_sql(plan, t_now), pdf)
        seen.append(t_now)

    MicroBatchEngine(spark_small, plan, mode=mode).run(pdf, on_slide=on_slide, until=20)
    assert seen == list(range(13, 20))


def test_engine_rejects_bad_mode(spark_small):
    with pytest.raises(ValueError):
        MicroBatchEngine(spark_small, rpq_plan("a+", W, BETA), mode="nope")
