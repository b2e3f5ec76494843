"""Unit tests for individual physical operators (both approaches)."""
import importlib.util
import sys
import time
from collections import Counter
from pathlib import Path

import pandas as pd
import pytest
from pyspark.sql import DataFrame

from repro.core import model
from repro.core.algebra import Filter, Union, Wscan
from repro.core.duck_oracle import sga_snapshot_sql
from repro.core.rq import parse_rq
from repro.core.sgq_parser import build_sga
from repro.dataflow.engine import MicroBatchEngine, compile_plan
from repro.dataflow.negtuple import (
    DD_SCHEMA,
    DDDistinctOp,
    DDPathOp,
    DDSourceOp,
    _consolidate,
    _empty_dd,
    fold_counts,
)
from repro.dataflow.operators import (
    FilterOp,
    ResultState,
    SourceOp,
    UnionOp,
    prune_valid,
)
from repro.dataflow.path_stage import PathOp
from repro.dataflow.spath import SPathOp
from repro.dataflow.sym_join import MultiJoinOp
from repro.queries.workload import DATASETS, QUERIES, get_query
from repro.streams import random_stream
from tests.util import check_result_set


def batch(rows):
    return pd.DataFrame(rows, columns=["src", "trg", "label", "ts"])


class Feed:
    """Test stub: a child op that replays scripted deltas."""

    def __init__(self, deltas_by_t):
        self.deltas_by_t = deltas_by_t

    def process(self, t_now):
        return self.deltas_by_t[t_now]


def test_source_op_applies_wscan(spark_small):
    op = SourceOp(spark_small, "a", size=5, slide=2)
    op.pending = batch([(1, 2, "a", 3)])
    out = op.process(3).collect()
    assert len(out) == 1
    assert (out[0].ts, out[0].exp) == (3, 2 + 5)  # floor(3/2)*2+5


def test_source_op_empty_batch(spark_small):
    op = SourceOp(spark_small, "a", size=5, slide=1)
    op.pending = None
    assert op.process(0).count() == 0


def test_process_caches_per_slide(spark_small):
    op = SourceOp(spark_small, "a", size=5, slide=1)
    op.pending = batch([(1, 2, "a", 0)])
    first = op.process(0)
    again = op.process(0)  # second pull in the same slide (shared sub-plan)
    assert again is first
    assert again.count() == 1


def test_union_op_relabels(spark_small):
    a = model.sgt_df(spark_small, [(1, 2, "a", 0, 5)])
    b = model.sgt_df(spark_small, [(3, 4, "b", 0, 5)])
    op = UnionOp(spark_small, [Feed({0: a}), Feed({0: b})], label="u")
    out = op.process(0)
    assert {r.label for r in out.collect()} == {"u"}
    assert out.count() == 2


def test_prune_valid(spark_small):
    df = model.sgt_df(spark_small, [(1, 2, "a", 0, 5), (1, 3, "a", 0, 9)])
    assert prune_valid(df, 5).count() == 1


def test_result_state_accumulates_and_expires(spark_small):
    rs = ResultState(spark_small)
    n = rs.update(model.sgt_df(spark_small, [(1, 2, "a", 0, 5)]), t_now=0)
    assert n == 1 and rs.current_pairs(0) == [(1, 2)]
    assert rs.update(model.sgt_df(spark_small, [(3, 4, "a", 4, 9)]), t_now=4) == 1
    assert sorted(rs.current_pairs(4)) == [(1, 2), (3, 4)]
    assert rs.update(model.empty_sgt(spark_small), t_now=6) == 0
    assert rs.current_pairs(6) == [(3, 4)]


def test_dd_source_emits_negative_tuples(spark_small):
    """The source emits a bag: +1 per arriving sge, −1 per expiring one,
    so a key's weights sum to its change in the window."""
    def weights(out):
        rows = [(r.src, r.trg, r.w) for r in out.collect()]
        sums = Counter()
        for src, trg, w in rows:
            sums[src, trg] += w
        return sorted(rows), {k: w for k, w in sums.items() if w}

    op = DDSourceOp(spark_small, "a", size=4, slide=2)
    op.pending = batch([(1, 2, "a", 0)])
    assert weights(op.process(1)) == ([(1, 2, 1)], {(1, 2): 1})
    # exp = floor(0/2)*2+4 = 4 → negative tuple once t_now >= 4
    op.pending = None
    assert weights(op.process(5)) == ([(1, 2, -1)], {(1, 2): -1})
    # A copy arrives in the slide in which the earlier copy expires: both
    # rows are emitted, and the key's weights sum to 0.
    op.pending = batch([(3, 4, "a", 6)])
    op.process(7)
    op.pending = batch([(3, 4, "a", 10), (5, 6, "a", 11)])
    assert weights(op.process(11)) == (
        [(3, 4, -1), (3, 4, 1), (5, 6, 1)], {(5, 6): 1}
    )


def test_dd_distinct_set_semantics(spark_small):
    def dd_rows(rows):
        return spark_small.createDataFrame(rows, ["src", "trg", "label", "w"])

    feed = Feed(
        {
            0: dd_rows([(1, 2, "a", 1), (1, 2, "a", 1)]),  # multiplicity 2
            1: dd_rows([(1, 2, "a", -1)]),  # 2 → 1: still present
            2: dd_rows([(1, 2, "a", -1)]),  # 1 → 0: retraction emitted
        }
    )
    op = DDDistinctOp(spark_small, feed)
    assert {(r.src, r.trg, r.w) for r in op.process(0).collect()} == {(1, 2, 1)}
    assert op.process(1).count() == 0
    assert {(r.src, r.trg, r.w) for r in op.process(2).collect()} == {(1, 2, -1)}
    assert op.current_keys().count() == 0


def _distinct_reference(slides):
    """Per slide of weighted rows fed to a multiset: its set-level changes
    and the keys present after it."""
    counts, out = Counter(), []
    for rows in slides:
        before = {k for k, c in counts.items() if c > 0}
        for *key, w in rows:
            counts[tuple(key)] += w
        after = {k for k, c in counts.items() if c > 0}
        changes = {(*k, 1) for k in after - before} | {(*k, -1) for k in before - after}
        out.append((changes, after))
    return out


DISTINCT_CASES = pytest.mark.parametrize(
    "slides",
    [
        # added and retracted within one slide; present, then -1 and +1
        [[(1, 2, "a", 1), (1, 2, "a", -1), (3, 4, "a", 1), (5, 6, "a", 1)],
         [(5, 6, "a", -1), (5, 6, "a", 1)]],
        # weights above 1: 3 → 1 → 0
        [[(1, 2, "a", 3), (3, 4, "b", 2)], [(1, 2, "a", -2)], [(1, 2, "a", -1)]],
        # 1 → 0 → 1 across slides, and an empty slide
        [[(1, 2, "a", 1)], [(1, 2, "a", -1)], [], [(1, 2, "a", 1)]],
    ],
    ids=["within-slide", "weights-above-1", "one-zero-one"],
)


@DISTINCT_CASES
def test_dd_distinct_matches_reference(spark_small, slides):
    feed = Feed({t: model.local_df(spark_small, rows, DD_SCHEMA)
                 for t, rows in enumerate(slides)})
    op = DDDistinctOp(spark_small, feed)
    for t, (changes, keys) in enumerate(_distinct_reference(slides)):
        assert {tuple(r) for r in op.process(t).collect()} == changes, t
        assert {tuple(r) for r in op.current_keys().collect()} == keys, t


def _jobs_of(spark, fn) -> int:
    """The number of Spark jobs ``fn()`` runs, read from its own job group."""
    sc = spark.sparkContext
    group = f"jobs-of-{time.monotonic_ns()}"
    sc.setJobGroup(group, group)
    try:
        fn()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    # the status store is fed asynchronously by the listener bus
    sc._jsc.sc().listenerBus().waitUntilEmpty(30000)
    return len(sc.statusTracker().getJobIdsForGroup(group))


def _source_fold(spark):
    op = DDSourceOp(spark, "a", size=4, slide=2)
    slides = {1: batch([(1, 2, "a", 0)]), 5: batch([(3, 4, "a", 4)])}

    def run():
        for t, rows in slides.items():
            op.pending = rows
            op.process(t)

    return run, lambda: {tuple(r) for r in op.process(5).collect()}


def _distinct_fold(spark):
    feed = Feed({t: model.local_df(spark, rows, DD_SCHEMA) for t, rows in
                 enumerate([[(1, 2, "a", 1)], [(1, 2, "a", -1), (3, 4, "a", 1)]])})
    op = DDDistinctOp(spark, feed)
    return (lambda: [op.process(t) for t in (0, 1)],
            lambda: {tuple(r) for r in op.process(1).collect()})


def _sink_fold(spark):
    rs = ResultState(spark)
    deltas = {0: model.sgt_df(spark, [(1, 2, "a", 0, 5)]),
              6: model.sgt_df(spark, [(3, 4, "a", 4, 9)])}
    return (lambda: [rs.update(d, t) for t, d in deltas.items()],
            lambda: {tuple(r[:5]) for r in rs.df.collect()})


@pytest.mark.parametrize(
    "make, last",
    [
        (_source_fold, {(1, 2, "a", -1), (3, 4, "a", 1)}),
        (_distinct_fold, {(1, 2, "a", -1), (3, 4, "a", 1)}),
        (_sink_fold, {(3, 4, "a", 4, 9)}),
    ],
    ids=["source", "distinct", "sink"],
)
def test_driver_folds_run_no_spark_job(spark_small, make, last):
    """Fed local relations, DD's source window, DD's distinct and the SGA
    sink fold on the driver: two slides, in the second of which (1, 2)
    expires or is retracted, run no Spark job. ``last`` is the second
    slide's output; for the sink, the sgts it holds after it."""
    run, after = make(spark_small)
    assert _jobs_of(spark_small, run) == 0
    assert after() == last


@DISTINCT_CASES
def test_dd_window_fold_matches_reference(slides):
    """DRed's window fold, without Spark: its adds and deletes and its keys
    after each slide are the multiset's set-level changes and keys."""
    counts = Counter()
    for t, (changes, keys) in enumerate(_distinct_reference(slides)):
        counts, adds, dels = fold_counts(counts, slides[t])
        assert {(*k, 1) for k in adds} | {(*k, -1) for k in dels} == changes, t
        assert set(counts) == keys and all(c > 0 for c in counts.values()), t


def test_dd_union_consolidates(spark_small):
    """DD's UNION is the shared UnionOp: it passes its children's weighted
    rows on as a bag, and a distinct over it, as at PATH's input, sums the
    weights per key."""
    def dd_rows(rows):
        return spark_small.createDataFrame(rows, ["src", "trg", "label", "w"])

    a = Feed({0: dd_rows([(1, 2, "x", 1)])})
    b = Feed({0: dd_rows([(1, 2, "x", -1), (3, 4, "y", 1)])})
    op = DDDistinctOp(spark_small, UnionOp(spark_small, [a, b], label=None))
    out = {(r.src, r.trg, r.label, r.w) for r in op.process(0).collect()}
    assert out == {(3, 4, "y", 1)}  # +1 and −1 cancel


@pytest.mark.parametrize("mode", ["sga", "dd"])
def test_filter_union_shared_across_modes(spark_small, mode):
    plan = Filter(Union([Wscan("a", 4, 2), Wscan("b", 4, 2)], label="d"), "src <> trg")
    root, sources = compile_plan(spark_small, plan, mode)
    assert type(root) is FilterOp
    assert type(root.child) is UnionOp
    assert all(isinstance(s, SourceOp) for s in sources)


def _operators(root):
    """Every operator instance reachable from ``root``."""
    seen, stack = {}, [root]
    while stack:
        op = stack.pop()
        if id(op) not in seen:
            seen[id(op)] = op
            stack.extend(getattr(op, "children", []))
            if hasattr(op, "child"):
                stack.append(op.child)
    return list(seen.values())


@pytest.mark.parametrize("dataset", DATASETS)
@pytest.mark.parametrize("query", list(QUERIES))
def test_dd_distinct_only_at_path_input_and_sink(spark_small, dataset, query):
    """DD makes deltas a set only where one is needed: each PATH's input
    (DRed's edge set) and the sink. Both engines' PATHs are the shared
    operator shell, overriding no ``_on_slide``."""
    plan = get_query(query, dataset).plan(6, 3)
    engine = MicroBatchEngine(spark_small, plan, mode="dd")
    ops = _operators(engine.root)
    paths = [op for op in ops if type(op) is DDPathOp]
    distincts = [op for op in ops if type(op) is DDDistinctOp]
    assert [len(p.children) for p in paths] == [1] * len(paths)
    assert sorted(map(id, distincts)) == sorted(id(p.children[0]) for p in paths)
    assert type(engine.result_counts) is DDDistinctOp
    assert engine.result_counts.child is engine.root
    for path in (SPathOp, DDPathOp):
        assert issubclass(path, PathOp) and "_on_slide" not in vars(path)


def _bench_state() -> dict:
    """``STATE`` of ``slidebench/run.py``: per operator class, the
    attributes whose row counts the traced benchmark reports as state."""
    bench = Path(__file__).resolve().parent.parent / "slidebench"
    sys.path.insert(0, str(bench))  # run.py imports its sibling modules
    try:
        spec = importlib.util.spec_from_file_location("slidebench_run", bench / "run.py")
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
    finally:
        sys.path.remove(str(bench))
    return mod.STATE


#: Where the driver holds what a ``STATE`` attribute shows, by attribute;
#: the others (the join's states, PATH's per-root state) are Spark's.
DRIVER_HELD = {"edges": "window", "window": "rows", "counts": "multiset", "df": "rows"}


@pytest.mark.parametrize("mode", ["sga", "dd"])
def test_bench_state_attributes_are_dataframes(spark_small, mode):
    """On Q8, every attribute the benchmark's ``STATE`` names, on each
    operator reachable from the root and on the sink, is a DataFrame (or
    a list of them) whose row count is the size the driver holds."""
    state = _bench_state()
    plan = get_query("Q8", "so").plan(6, 3)
    stream = random_stream(n_edges=30, n_vertices=6, labels=("a2q",), t_span=12, seed=4)
    held = Counter()

    def on_slide(eng, t_now):
        sink = eng.result if mode == "sga" else eng.result_counts
        ops = {id(op): op for op in _operators(eng.root) + [sink]}.values()
        for op in ops:
            for attr in state.get(type(op).__name__, ()):
                value = getattr(op, attr)
                frames = value if isinstance(value, list) else [value]
                assert all(isinstance(df, DataFrame) for df in frames), (op, attr)
                rows = sum(df.count() for df in frames)
                if attr in DRIVER_HELD:
                    assert rows == len(getattr(op, DRIVER_HELD[attr])), (op, attr, t_now)
                    held[type(op).__name__, attr] += rows

    MicroBatchEngine(spark_small, plan, mode=mode).run(stream, on_slide=on_slide)
    expected = {"sga": {("SPathOp", "edges"), ("ResultState", "df")},
                "dd": {("DDSourceOp", "window"), ("DDDistinctOp", "counts"),
                       ("DDPathOp", "edges")}}[mode]
    assert set(held) == expected and all(held.values()), held


def test_consolidate_drops_zero_weights(spark_small):
    df = spark_small.createDataFrame(
        [(1, 2, "a", 1), (1, 2, "a", -1), (5, 6, "b", 2)],
        ["src", "trg", "label", "w"],
    )
    out = {(r.src, r.trg, r.w) for r in _consolidate(df).collect()}
    assert out == {(5, 6, 2)}


def test_empty_dd_schema(spark_small):
    assert _empty_dd(spark_small).columns == ["src", "trg", "label", "w"]


@pytest.mark.parametrize("mode", ["sga", "dd"])
def test_self_join_shares_one_state(spark_small, mode):
    """Q8's ``a(x, z), a(y, z)`` joins one source with itself: both inputs
    read one state, checkpointed once per slide."""
    root, (source,) = compile_plan(spark_small, get_query("Q8", "so").plan(6, 3), mode)
    (join,) = [op for op in _operators(root) if isinstance(op, MultiJoinOp)]
    assert join.children[0] is join.children[1]
    assert join.states[0] is join.states[1]
    source.pending = batch([(1, 3, source.label, 0), (2, 3, source.label, 1)])
    join.process(2)
    assert join.states[0] is join.states[1]
    assert join.states[0].count() == 2


def test_sga_join_of_duplicate_edges_matches_oracle(spark_small):
    """The same a-edge twice in one slide and again in the next: the join's
    state and output are bags, one match per copy (2 rows in the first
    slide, 4 in the second), and the sink's answer set still equals the
    DuckDB oracle on every slide."""
    stream = batch([(1, 2, "a", 0), (1, 2, "a", 0), (2, 3, "b", 1),
                    (1, 2, "a", 3), (2, 3, "b", 4)])
    plan = build_sga(parse_rq("Ans(x, y) <- a(x, z), b(z, y)"), 6, 3)
    checked = []

    def on_slide(eng, t_now):
        sql = f"SELECT DISTINCT src, trg FROM ({sga_snapshot_sql(plan, t_now)})"
        check_result_set(eng.current_pairs(), sql, stream)
        checked.append(t_now)

    m = MicroBatchEngine(spark_small, plan, mode="sga").run(
        stream, on_slide=on_slide, until=12
    )
    assert checked == [2, 5, 8, 11]
    assert m.n_results == 6
