"""The per-root PATH kernels, run without Spark: S-PATH's ``spath_root``
on the paper's Example 9 (Fig. 5), and DRed's ``dred_root`` and batch
PATH's ``pareto_root`` against from-scratch product-graph reachability;
the shared stage's group wrapper around either engine's kernel, also
pickled as the stage ships it; and the driver-side coalesce against
``coalesce_sgts``."""
import os
import subprocess
import sys
from functools import partial

import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pyspark import cloudpickle

from repro.core.algebra import pareto_root, step_index
from repro.core.coalesce import coalesce_intervals, coalesce_sgts
from repro.core.regex import compile_dfa
from repro.dataflow.negtuple import _dred_group, _step, dred_root
from repro.dataflow.path_stage import MARKER, per_root
from repro.dataflow.spath import _spath_group, spath_root

# Vertex ids for readability (the paper uses letters).
X, Y, U, V, S, Z, T = 1, 2, 3, 4, 5, 6, 7


def walk(*edges):
    """A witness path: the edges' ``(src, trg, label)``."""
    return tuple(e[:3] for e in edges)


def test_spath_root_example9_propagate():
    """Fig. 5 with |W| = 9: x→z→t→u reaches u during [15, 22); y→u
    arriving at 20 gives u a path expiring at 28. Propagate keeps u's
    earlier ``ts``, raises its ``exp`` and takes the new witness; the
    edges arriving at 21 extend u's subtree from there."""
    dfa = compile_dfa("RL+")
    (final,) = dfa.finals
    xz, zt, tu = (X, Z, "RL", 13, 22), (Z, T, "RL", 14, 23), (T, U, "RL", 15, 24)
    xy, yu = (X, Y, "RL", 19, 28), (Y, U, "RL", 20, 29)
    uv, us = (U, V, "RL", 21, 30), (U, S, "RL", 21, 30)
    nodes = {
        (Z, final): (13, 22, walk(xz)),
        (T, final): (14, 22, walk(xz, zt)),
        (U, final): (15, 22, walk(xz, zt, tu)),
        (Y, final): (19, 28, walk(xy)),
    }
    window = [xz, zt, tu, xy, yu]
    out = spath_root(
        X, nodes, step_index(dfa, [yu]), step_index(dfa, window), dfa.start, dfa.finals
    )
    assert out == [(U, final, 15, 28, walk(xy, yu))]
    assert nodes[(U, final)] == (15, 28, walk(xy, yu))
    assert nodes[(T, final)] == (14, 22, walk(xz, zt))  # untouched

    window += [uv, us]
    out = spath_root(
        X, nodes, step_index(dfa, [uv, us]), step_index(dfa, window),
        dfa.start, dfa.finals,
    )
    assert sorted(out) == [
        (V, final, 21, 28, walk(xy, yu, uv)),
        (S, final, 21, 28, walk(xy, yu, us)),
    ]
    # At t = 25 the old branch has expired; u, v and s stay reachable.
    assert {n[0] for n, seg in nodes.items() if seg[1] > 25} == {Y, U, V, S}


def test_spath_root_keeps_max_expiry_segment():
    """A later-expiring candidate wins even when it arrives later; an
    earlier-expiring one changes nothing (no Propagate, no result)."""
    dfa = compile_dfa("a+")
    (final,) = dfa.finals
    old, new = (1, 2, "a", 0, 10), (1, 2, "a", 5, 12)
    nodes = {}
    spath_root(1, nodes, step_index(dfa, [old]), step_index(dfa, [old]),
               dfa.start, dfa.finals)
    assert nodes == {(2, final): (0, 10, ((1, 2, "a"),))}
    assert spath_root(1, nodes, step_index(dfa, [(1, 2, "a", 1, 9)]),
                      step_index(dfa, [old]), dfa.start, dfa.finals) == []
    out = spath_root(1, nodes, step_index(dfa, [new]), step_index(dfa, [old, new]),
                     dfa.start, dfa.finals)
    assert out == [(2, final, 0, 12, ((1, 2, "a"),))]


def _reachable(dfa, x, steps):
    """From-scratch PATH semantics: the product-graph nodes reachable from
    ``(x, start)`` in one step or more."""
    seen, frontier = set(), {(x, dfa.start)}
    while frontier:
        frontier = _step(frontier, steps) - seen
        seen |= frontier
    return seen


VERTICES = range(4)
EDGES = st.tuples(
    st.sampled_from(VERTICES), st.sampled_from(VERTICES), st.sampled_from("ab")
)


REGEXES = st.sampled_from(["a+", "a . b*", "(a . b)+", "(a | b)* . b", "a*"])


@settings(max_examples=150, deadline=None)
@given(
    regex=REGEXES,
    windows=st.lists(st.sets(EDGES, max_size=12), min_size=1, max_size=5),
)
def test_dred_root_matches_reachability(regex, windows):
    """Random insert/delete batches on small graphs with cycles and
    self-loops: after each batch, every root's facts are exactly what is
    reachable over the new edge set."""
    dfa = compile_dfa(regex)
    index = partial(step_index, dfa)
    facts = {x: set() for x in VERTICES}
    old = set()
    for new in windows:
        adds, dels = new - old, old - new
        steps = dict(old=index(old), dels=index(dels), mid=index(old - dels),
                     adds=index(adds), new=index(new))
        for x in VERTICES:
            facts[x] = dred_root(x, facts[x], dfa.start, **steps)
            assert facts[x] == _reachable(dfa, x, steps["new"]), (x, new)
        old = new


def test_pareto_root_keeps_incomparable_intervals():
    """Walks to v valid during [0, 5) and [3, 10) are both kept: a batch
    result holds at every instant, so S-PATH's one max-expiry segment
    would lose [0, 3). A walk valid during [2, 4), inside [0, 5), is not
    kept, and a later round's [0, 10) at s evicts the stored [4, 6)."""
    dfa = compile_dfa("a+")
    (final,) = dfa.finals
    xv, xy, yv = (X, V, "a", 0, 5), (X, Y, "a", 3, 10), (Y, V, "a", 3, 12)
    xz, zv = (X, Z, "a", 0, 9), (Z, V, "a", 2, 4)
    xs, xu, us = (X, S, "a", 4, 6), (X, U, "a", 0, 10), (U, S, "a", 0, 10)
    steps = step_index(dfa, [xv, xy, yv, xz, zv, xs, xu, us])
    front = pareto_root(X, steps, dfa.start)
    assert sorted(front[(V, final)]) == [(0, 5, walk(xv)), (3, 10, walk(xy, yv))]
    assert front[(S, final)] == [(0, 10, walk(xu, us))]


@settings(max_examples=300, deadline=None)
@given(
    regex=REGEXES,
    edges=st.sets(
        st.tuples(
            st.sampled_from(VERTICES), st.sampled_from(VERTICES),
            st.sampled_from("ab"), st.integers(0, 8), st.integers(1, 6),
        ),
        max_size=12,
    ),
)
def test_pareto_root_matches_snapshot_reachability(regex, edges):
    """Random interval graphs with cycles and self-loops: at every ``t``,
    the nodes holding an interval that contains ``t`` are exactly those
    reachable over the snapshot's edges. No stored interval contains
    another, and each witness is a walk from the root, over edges valid
    throughout its interval, that drives the DFA to its node's state."""
    dfa = compile_dfa(regex)
    edges = [(s, t, l, ts, ts + d) for s, t, l, ts, d in edges]
    delta = dfa.delta()
    for x in VERTICES:
        front = pareto_root(x, step_index(dfa, edges), dfa.start)
        for (v, state), segs in front.items():
            for i, (ts, exp, path) in enumerate(segs):
                assert not any(o[0] <= ts and exp <= o[1]
                               for j, o in enumerate(segs) if j != i), segs
                assert path[0][0] == x and path[-1][1] == v, path
                assert all(a[1] == b[0] for a, b in zip(path, path[1:])), path
                assert all(any(e[:3] == p and e[3] <= ts and exp <= e[4]
                               for e in edges) for p in path), (path, ts, exp)
                reached = dfa.start
                for p in path:
                    reached = delta[(reached, p[2])]
                assert reached == state, path
        for t in range(15):
            snapshot = step_index(dfa, [e[:3] for e in edges if e[3] <= t < e[4]])
            at_t = {n for n, segs in front.items()
                    if any(ts <= t < exp for ts, exp, _ in segs)}
            assert at_t == _reachable(dfa, x, snapshot), (x, t)


def _spath_stage(dfa, before, after):
    """S-PATH's group kernel for a slide from window ``before`` to
    ``after``, a state row maker and the state's columns."""
    arriving = [e for e in after if e not in before]
    kernel = partial(_spath_group, adds=step_index(dfa, arriving),
                     new=step_index(dfa, after), start=dfa.start,
                     finals=frozenset(dfa.finals))

    def row(x, v, state, path=()):
        if state == MARKER:
            return (x, v, state, 0, 0, None)
        return (x, v, state, 0, 10, [{"src": s, "trg": t, "label": l}
                                     for s, t, l in path])

    return kernel, row, ["x", "v", "state", "ts", "exp", "path"]


def _dred_stage(dfa, before, after):
    """DRed's group kernel for the same slide, as for ``_spath_stage``."""
    index = partial(step_index, dfa)
    old, new = {e[:3] for e in before}, {e[:3] for e in after}
    kernel = partial(_dred_group, start=dfa.start, finals=frozenset(dfa.finals),
                     old=index(old), dels=index(old - new), mid=index(old & new),
                     adds=index(new - old), new=index(new))
    return kernel, lambda x, v, state, path=(): (x, v, state), ["x", "v", "state"]


STAGES = pytest.mark.parametrize("stage", [_spath_stage, _dred_stage],
                                 ids=["spath", "dred"])
A_PLUS = compile_dfa("a+")
(A_FINAL,) = A_PLUS.finals
CHAIN = [(1, 2, "a", 0, 10), (2, 3, "a", 0, 10)]


@STAGES
def test_group_marker_only_root_has_no_state(stage):
    """A root named only by its marker row reaches the kernel with no
    state rows: with nothing arriving it keeps none and emits nothing."""
    kernel, row, cols = stage(A_PLUS, CHAIN, CHAIN)
    out = per_root(pd.DataFrame([row(1, 1, MARKER)], columns=cols), kernel)
    assert len(out) == 0
    assert list(out.columns) == cols + ["w"]


@STAGES
def test_group_state_round_trips_on_empty_delta(stage):
    """With an empty delta the root's state rows come back unchanged
    (``w`` = 0) and nothing is emitted; the marker row is dropped."""
    kernel, row, cols = stage(A_PLUS, CHAIN, CHAIN)
    state = [row(1, 2, A_FINAL, [(1, 2, "a")]),
             row(1, 3, A_FINAL, [(1, 2, "a"), (2, 3, "a")])]
    out = per_root(pd.DataFrame(state + [row(1, 1, MARKER)], columns=cols), kernel)
    assert (out.w == 0).all()
    expected = pd.DataFrame(state, columns=cols).to_dict("records")
    assert sorted(map(repr, out.drop(columns="w").to_dict("records"))) == sorted(
        map(repr, expected)
    )


@STAGES
def test_group_restores_x(stage):
    """A new root's state and output rows come back under its own ``x``."""
    kernel, row, cols = stage(A_PLUS, CHAIN[:1], CHAIN)
    out = per_root(pd.DataFrame([row(2, 2, MARKER)], columns=cols), kernel)
    assert list(out.columns) == cols + ["w"]
    assert out.x.tolist() == [2, 2]
    assert sorted(zip(out.v, out.state, out.w)) == [(3, A_FINAL, 0), (3, A_FINAL, 1)]


#: Run in a fresh interpreter: unpickle the group function and its group,
#: run it, and pickle its output. ``repro`` is made unimportable, as on a
#: Python worker that has no access to the package.
UNPICKLE_AND_RUN = """
import pickle, sys
sys.modules["repro"] = None
with open("stage.pkl", "rb") as f:
    fn, group = pickle.load(f)
with open("out.pkl", "wb") as f:
    pickle.dump(fn(group), f)
"""


@STAGES
def test_group_function_runs_where_the_package_cannot_be_imported(stage, tmp_path):
    """The stage pickles ``per_root`` around the kernel with cloudpickle
    and runs it on Python workers that need not import this package:
    every module the kernel reaches must be pickled by value. Unpickled in
    a ``sys.executable`` subprocess with ``PYTHONPATH`` unset, outside the
    repository, it gives the output it gives here on a marker-only group."""
    kernel, row, cols = stage(A_PLUS, CHAIN[:1], CHAIN)
    fn = partial(per_root, kernel=kernel)
    group = pd.DataFrame([row(2, 2, MARKER)], columns=cols)
    (tmp_path / "stage.pkl").write_bytes(cloudpickle.dumps((fn, group)))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-c", UNPICKLE_AND_RUN],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    pd.testing.assert_frame_equal(pd.read_pickle(tmp_path / "out.pkl"), fn(group))


A_B_STAR = compile_dfa("a . b*")  # accepting after a (1) and after a·b (2)


def test_spath_group_coalesces_results_per_v():
    """One slide from root X reaches V, S, T and 8 both by a single a-edge
    (state 1) and through a·b (state 2). Per v the emitted segments are
    coalesced: V's overlapping and S's adjacent intervals merge, T's
    disjoint ones stay, and each island keeps the state and witness of
    its max-exp segment (8's is the direct a-edge)."""
    xv, xu, uv = (X, V, "a", 0, 10), (X, U, "a", 4, 20), (U, V, "b", 4, 20)
    xs, xy, ys = (X, S, "a", 0, 5), (X, Y, "a", 5, 12), (Y, S, "b", 5, 12)
    xt, xz, zt = (X, T, "a", 0, 3), (X, Z, "a", 6, 9), (Z, T, "b", 6, 9)
    x8, x9, e98 = (X, 8, "a", 0, 12), (X, 9, "a", 5, 8), (9, 8, "b", 5, 8)
    window = [xv, xu, uv, xs, xy, ys, xt, xz, zt, x8, x9, e98]
    steps = step_index(A_B_STAR, window)
    rows = pd.DataFrame(columns=["v", "state", "ts", "exp", "path"])
    out = _spath_group(X, rows, A_B_STAR.start, frozenset(A_B_STAR.finals),
                       adds=steps, new=steps)
    emitted = sorted(
        (v, s, ts, exp, tuple((e["src"], e["trg"], e["label"]) for e in path))
        for v, s, ts, exp, path, w in out.itertuples(index=False) if w == 1
    )
    assert emitted == sorted([
        (V, 2, 0, 20, walk(xu, uv)), (U, 1, 4, 20, walk(xu)),
        (S, 2, 0, 12, walk(xy, ys)), (Y, 1, 5, 12, walk(xy)),
        (T, 1, 0, 3, walk(xt)), (T, 2, 6, 9, walk(xz, zt)), (Z, 1, 6, 9, walk(xz)),
        (8, 1, 0, 12, walk(x8)), (9, 1, 5, 8, walk(x9)),
    ])


def test_dred_group_emits_one_net_weight_per_v():
    """V is accepted after a (state 1) and after a·b (state 2). When both
    facts appear, V gets one row of weight 2; when one vanishes as the
    other appears, V's changes cancel and it gets no row."""
    xv, xu, uv = (X, V, "a", 0, 10), (X, U, "a", 0, 10), (U, V, "b", 0, 10)
    kernel, row, cols = _dred_stage(A_B_STAR, [], [xv, xu, uv])
    out = per_root(pd.DataFrame([row(X, X, MARKER)], columns=cols), kernel)
    assert sorted(zip(out.v, out.state, out.w)) == [
        (U, 1, 0), (U, 1, 1), (V, 1, 0), (V, 1, 2), (V, 2, 0)
    ]

    kernel, row, cols = _dred_stage(A_B_STAR, [xv], [xu, uv])
    out = per_root(pd.DataFrame([row(X, V, 1)], columns=cols), kernel)
    assert sorted(zip(out.v, out.state, out.w)) == [
        (U, 1, 0), (U, 1, 1), (V, 2, 0)
    ]


INTERVALS = st.lists(
    st.tuples(
        st.integers(0, 2), st.integers(0, 1), st.sampled_from("ab"),
        st.integers(0, 12), st.integers(1, 6),
    ),
    max_size=14,
)


@settings(max_examples=25, deadline=None)
@given(rows=INTERVALS)
def test_coalesce_intervals_matches_coalesce_sgts(spark_small, rows):
    rows = [(s, t, l, ts, ts + d) for s, t, l, ts, d in rows]
    df = spark_small.createDataFrame(
        rows, "src long, trg long, label string, ts long, exp long"
    )
    expected = sorted(tuple(r) for r in coalesce_sgts(df).collect())
    assert coalesce_intervals(rows) == expected
