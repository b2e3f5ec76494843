"""Batch SGA operator semantics vs the DuckDB oracle (snapshot reducibility).

Every test evaluates an SGA expression over a bounded random stream and
checks, at several sampled times t, that the snapshot of the streaming
result equals the one-time query over the window snapshot — Def. 13 is
the *definition* of correctness for SGA.
"""
import pandas as pd
import pytest

from repro.core import model
from repro.core.algebra import (
    Filter,
    Path,
    Pattern,
    Union,
    Wscan,
    evaluate,
)
from repro.core.rq import parse_rq
from repro.core.sgq_parser import build_sga, rpq_plan
from repro.streams import random_stream, so_stream
from tests.util import check_plan, sources_by_label

W = 12
TIMES = [5, 11, 17, 24, 29]


@pytest.fixture(scope="module")
def pdf():
    return random_stream(n_edges=90, n_vertices=10, t_span=30, seed=3)


@pytest.fixture(scope="module")
def sources(spark_small, pdf):
    return sources_by_label(spark_small, pdf)


def test_wscan_snapshots(spark_small, pdf):
    check_plan(spark_small, Wscan("a", W), pdf, TIMES)


def test_wscan_with_slide(spark_small, pdf):
    check_plan(spark_small, Wscan("a", W, slide=5), pdf, TIMES)


def test_filter_snapshots(spark_small, pdf):
    check_plan(spark_small, Filter(Wscan("a", W), "src <> 3 AND trg > 2"), pdf, TIMES)


def test_union_snapshots(spark_small, pdf):
    check_plan(spark_small, Union([Wscan("a", W), Wscan("b", W)]), pdf, TIMES)


def test_union_relabel_snapshots(spark_small, pdf):
    check_plan(
        spark_small, Union([Wscan("a", W), Wscan("b", W)], label="d"), pdf, TIMES
    )


def test_pattern_two_way(spark_small, pdf):
    plan = Pattern(
        [Wscan("a", W), Wscan("b", W)],
        phi=[((0, "trg"), (1, "src"))],
        src_sel=(0, "src"),
        trg_sel=(1, "trg"),
        label="d",
    )
    check_plan(spark_small, plan, pdf, TIMES)


def test_pattern_triangle(spark_small, pdf):
    plan = build_sga(
        parse_rq("Ans(x, y) <- a(x, m), b(x, y), c(y, m)"), window=W
    )
    check_plan(spark_small, plan, pdf, TIMES)


def test_pattern_diamond_q5(spark_small, pdf):
    plan = build_sga(
        parse_rq("Ans(m1, m2) <- a(x, y), b(m1, x), b(m2, y), c(m2, m1)"), window=W
    )
    check_plan(spark_small, plan, pdf, TIMES)


def test_pattern_cross_product(spark_small, pdf):
    # Disconnected pattern — exercises the crossJoin path of the builder.
    plan = Pattern(
        [Wscan("a", W), Wscan("b", W)],
        phi=[],
        src_sel=(0, "src"),
        trg_sel=(1, "trg"),
        label="d",
    )
    check_plan(spark_small, plan, pdf, TIMES[:2])


@pytest.mark.parametrize("regex", ["a+", "a . b*", "a . b* . c*", "(a . b . c)+", "a | b"])
def test_path_regexes(spark_small, pdf, regex):
    check_plan(spark_small, rpq_plan(regex, W), pdf, TIMES)


def test_path_on_cyclic_so_graph(spark_small):
    pdf = so_stream(n_edges=120, n_vertices=12, t_span=24, seed=5)
    plan = rpq_plan("a2q+", 10)
    check_plan(spark_small, plan, pdf, [6, 12, 20])


def test_path_long_chain(spark_small):
    """A 70-edge a+ chain needs 70 fixpoint rounds; the round bound comes
    from the input (its product-graph steps), not a fixed limit."""
    chain = pd.DataFrame(
        [(i, i + 1, "a", 0) for i in range(70)],
        columns=["src", "trg", "label", "ts"],
    )
    check_plan(spark_small, rpq_plan("a+", W), chain, [5])


def test_q6_pattern_over_path(spark_small, pdf):
    plan = build_sga(
        parse_rq("Ans(x, y) <- a+(x, y), b(x, m), c(m, y)"), window=W
    )
    check_plan(spark_small, plan, pdf, TIMES)


def test_q8_path_over_pattern(spark_small, pdf):
    plan = build_sga(
        parse_rq("P(x, y) <- a(x, z), a(y, z); Ans(x, y) <- P+(x, y)"), window=W
    )
    check_plan(spark_small, plan, pdf, TIMES)


def test_q7_full_nesting(spark_small):
    # Smaller input: PATH over PATTERN over PATH is the heaviest composition.
    pdf = random_stream(n_edges=50, n_vertices=8, t_span=20, seed=9)
    plan = build_sga(
        parse_rq(
            """
            RL(x, y) <- a+(x, y), b(x, m), c(m, y)
            Ans(x, m) <- RL+(x, y), c(m, y)
            """
        ),
        window=8,
    )
    check_plan(spark_small, plan, pdf, [4, 9, 15])


def test_pattern_payload_is_derived_edge(spark_small, sources):
    plan = Pattern(
        [Wscan("a", W), Wscan("b", W)],
        phi=[((0, "trg"), (1, "src"))],
        src_sel=(0, "src"),
        trg_sel=(1, "trg"),
        label="d",
    )
    out = evaluate(plan, sources).collect()
    assert out
    for row in out:
        assert [tuple(e) for e in row.path] == [(row.src, row.trg, "d")]


def test_output_intervals_are_coalesced(spark_small, sources):
    """Set semantics: no two value-equivalent output sgts may overlap or be
    adjacent (Defs. 10–12)."""
    out = evaluate(rpq_plan("a+", W), sources).collect()
    by_key = {}
    for r in out:
        by_key.setdefault((r.src, r.trg, r.label), []).append((r.ts, r.exp))
    for key, ivs in by_key.items():
        ivs.sort()
        for (s1, e1), (s2, _) in zip(ivs, ivs[1:]):
            assert e1 < s2, (key, ivs)


def test_paper_example_pattern_interval():
    """Def. 19 worked example: joining sgts intersects validity intervals."""
    import pandas as pd

    from pyspark.sql import SparkSession

    spark = SparkSession.getActiveSession()
    a = model.sgt_df(spark, [(1, 2, "a", 5, 20)])
    b = model.sgt_df(spark, [(2, 3, "b", 10, 30)])
    from repro.core.algebra import join_pattern

    row = join_pattern(
        [a, b], [((0, "trg"), (1, "src"))], (0, "src"), (1, "trg"), "d"
    ).collect()[0]
    assert (row.src, row.trg, row.ts, row.exp) == (1, 3, 10, 20)


def test_pattern_empty_interval_intersection(spark_small):
    a = model.sgt_df(spark_small, [(1, 2, "a", 0, 5)])
    b = model.sgt_df(spark_small, [(2, 3, "b", 5, 9)])
    from repro.core.algebra import join_pattern

    out = join_pattern(
        [a, b], [((0, "trg"), (1, "src"))], (0, "src"), (1, "trg"), "d"
    )
    assert out.count() == 0
