"""Negative-tuple (DD baseline) engine vs the DuckDB oracle.

The baseline must be *correct* (it computes the same answers as the
direct approach — the paper compares their cost, not their results), so
the same per-slide oracle checks apply.
"""
import random

import pandas as pd
import pytest

from repro.core.rq import parse_rq
from repro.core.sgq_parser import build_sga, rpq_plan
from repro.streams import random_stream, so_stream
from tests.test_engine_sga import W, BETA, run_checked


@pytest.fixture(scope="module")
def pdf():
    return random_stream(n_edges=70, n_vertices=8, t_span=18, seed=21)


def test_dd_union_filter(spark_small, pdf):
    from repro.core.algebra import Filter, Union, Wscan

    plan = Filter(
        Union([Wscan("a", W, BETA), Wscan("b", W, BETA)], label="d"), "src <> trg"
    )
    run_checked(spark_small, plan, pdf, mode="dd")


def test_dd_pattern_two_way(spark_small, pdf):
    plan = build_sga(parse_rq("Ans(x, y) <- a(x, z), b(z, y)"), W, BETA)
    run_checked(spark_small, plan, pdf, mode="dd")


def test_dd_pattern_triangle(spark_small, pdf):
    plan = build_sga(parse_rq("Ans(x, y) <- a(x, m), b(x, y), c(y, m)"), W, BETA)
    run_checked(spark_small, plan, pdf, mode="dd")


def test_dd_path_aplus(spark_small, pdf):
    run_checked(spark_small, rpq_plan("a+", W, BETA), pdf, mode="dd")


def test_dd_path_concat_star(spark_small, pdf):
    run_checked(spark_small, rpq_plan("a . b*", W, BETA), pdf, mode="dd")


def test_dd_path_abc_plus(spark_small, pdf):
    run_checked(spark_small, rpq_plan("(a . b . c)+", W, BETA), pdf, mode="dd")


def test_dd_q6(spark_small, pdf):
    plan = build_sga(
        parse_rq("Ans(x, y) <- a+(x, y), b(x, m), c(m, y)"), W, BETA
    )
    run_checked(spark_small, plan, pdf, mode="dd")


def test_dd_q8(spark_small, pdf):
    plan = build_sga(
        parse_rq("P(x, y) <- a(x, z), a(y, z); Ans(x, y) <- P+(x, y)"), W, BETA
    )
    run_checked(spark_small, plan, pdf, mode="dd")


def test_dd_q7_nested(spark_small):
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
    run_checked(spark_small, plan, pdf, mode="dd")


def test_dd_on_cyclic_so(spark_small):
    # Many alternative derivations per pair — DRed's worst case; must stay correct.
    pdf = so_stream(n_edges=90, n_vertices=10, t_span=18, seed=2)
    run_checked(spark_small, rpq_plan("a2q+", W, BETA), pdf, mode="dd")


#: The same (src, trg, label) arrives in two slides (ts 0 and 3, also
#: b(2, 3) at ts 1 and 4), so at t = 5 both copies are in the window, at
#: t = 8 only the later one is, and at t = 11 neither.
DUPLICATES = pd.DataFrame(
    [
        (1, 2, "a", 0),
        (2, 3, "b", 1),
        (3, 2, "a", 1),
        (1, 2, "a", 3),
        (4, 2, "a", 3),
        (2, 3, "b", 4),
        (3, 4, "a", 4),
        (5, 4, "a", 4),
    ],
    columns=["src", "trg", "label", "ts"],
)


@pytest.mark.parametrize("mode", ["sga", "dd"])
@pytest.mark.parametrize(
    "program",
    [
        # bag weights reach the sink
        "Ans(x, y) <- a(x, z), b(z, y)",
        # Q8: bag weights reach PATH's input distinct
        "P(x, y) <- a(x, z), a(y, z); Ans(x, y) <- P+(x, y)",
    ],
)
def test_duplicate_edges_expire_one_copy_at_a_time(spark_small, mode, program):
    plan = build_sga(parse_rq(program), W, BETA)
    run_checked(spark_small, plan, DUPLICATES, mode=mode, until=12)


@pytest.mark.parametrize("mode", ["sga", "dd"])
def test_long_chain_in_one_slide(spark_small, mode):
    """An a+ chain of 300 edges arriving in one slide: the fixpoint needs
    300 rounds, more than any fixed round limit below it allows."""
    chain = pd.DataFrame(
        [(i, i + 1, "a", 0) for i in range(300)],
        columns=["src", "trg", "label", "ts"],
    )
    run_checked(spark_small, rpq_plan("a+", W, BETA), chain, mode=mode, until=9)


def edges(rows):
    return pd.DataFrame(rows, columns=["src", "trg", "label", "ts"])


Q8 = "P(x, y) <- a(x, z), a(y, z); Ans(x, y) <- P+(x, y)"

#: (1, 2, a) arrives at ts 0 and again at ts 6. With W = 6 and β = 3 the
#: first copy expires (exp 6) in the slide [6, 9) that brings the second,
#: so DD's source emits +1 and −1 for the key in one slide.
REARRIVING = edges([(1, 2, "a", 0), (2, 3, "a", 1), (3, 2, "a", 2),
                    (4, 2, "a", 4), (1, 2, "a", 6), (2, 5, "a", 7)])


@pytest.mark.parametrize("mode", ["sga", "dd"])
@pytest.mark.parametrize(
    "plan",
    [lambda: rpq_plan("a+", W, BETA), lambda: build_sga(parse_rq(Q8), W, BETA)],
    ids=["a+", "Q8"],
)
def test_key_arrives_as_its_copy_expires(spark_small, mode, plan):
    run_checked(spark_small, plan(), REARRIVING, mode=mode, until=12)


_burst = random.Random(5)

#: Streams no generator makes, each with its plan and the time to run to.
ADVERSARIAL = {
    # self-loops alone and inside a chain; the loop at 2 outlives 1 → 2
    "self-loops": ("a+", 12, [(1, 1, "a", 0), (1, 2, "a", 1), (2, 2, "a", 3),
                              (2, 3, "a", 4), (3, 3, "a", 7), (3, 1, "a", 7)]),
    # nothing arrives or expires in the slides [3, 6) and [9, 12)
    "empty-slides": (Q8, None, [(1, 3, "a", 0), (2, 3, "a", 1), (4, 3, "a", 2),
                                (5, 3, "a", 6), (2, 6, "a", 7), (6, 3, "a", 12)]),
    # 40 edges on 8 vertices in the slide [3, 6), which expire together
    "burst": ("a . b*", 12, [(1, 2, "a", 0), (2, 3, "b", 7)] + [
        (_burst.randrange(8), _burst.randrange(8), _burst.choice("ab"),
         _burst.randrange(3, 6)) for _ in range(40)
    ]),
    # a·b·c cycles through 1, 2, 3 and 1, 2, 4, closing and expiring
    "abc-cycles": ("(a . b . c)+", 12, [(1, 2, "a", 0), (2, 3, "b", 1),
                                         (3, 1, "c", 2), (2, 4, "b", 4),
                                         (4, 1, "c", 5), (1, 2, "a", 7)]),
}


@pytest.mark.parametrize("mode", ["sga", "dd"])
@pytest.mark.parametrize("case", list(ADVERSARIAL))
def test_adversarial_streams(spark_small, mode, case):
    program, until, rows = ADVERSARIAL[case]
    if "<-" in program:
        plan = build_sga(parse_rq(program), W, BETA)
    else:
        plan = rpq_plan(program, W, BETA)
    run_checked(spark_small, plan, edges(rows), mode=mode, until=until)
