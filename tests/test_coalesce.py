"""Coalesce primitive tests (Defs. 10–11)."""
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import model
from repro.core.coalesce import coalesce_sgts


def rows_of(df):
    return sorted(
        (r.src, r.trg, r.label, r.ts, r.exp) for r in df.collect()
    )


def test_overlapping_merge(spark_small):
    # Example 5 of the paper: (u,RL,v,[29,31)) and (u,RL,v,[30,31)) coalesce.
    df = model.sgt_df(spark_small, [(1, 2, "RL", 29, 31), (1, 2, "RL", 30, 31)])
    assert rows_of(coalesce_sgts(df)) == [(1, 2, "RL", 29, 31)]


def test_adjacent_merge(spark_small):
    df = model.sgt_df(spark_small, [(1, 2, "a", 0, 5), (1, 2, "a", 5, 9)])
    assert rows_of(coalesce_sgts(df)) == [(1, 2, "a", 0, 9)]


def test_disjoint_not_merged(spark_small):
    df = model.sgt_df(spark_small, [(1, 2, "a", 0, 5), (1, 2, "a", 6, 9)])
    assert rows_of(coalesce_sgts(df)) == [(1, 2, "a", 0, 5), (1, 2, "a", 6, 9)]


def test_different_keys_not_merged(spark_small):
    df = model.sgt_df(
        spark_small,
        [(1, 2, "a", 0, 5), (1, 2, "b", 0, 5), (1, 3, "a", 0, 5), (2, 2, "a", 0, 5)],
    )
    assert coalesce_sgts(df).count() == 4


def test_chain_of_overlaps(spark_small):
    df = model.sgt_df(
        spark_small,
        [(1, 2, "a", 0, 4), (1, 2, "a", 3, 7), (1, 2, "a", 6, 10), (1, 2, "a", 20, 22)],
    )
    assert rows_of(coalesce_sgts(df)) == [(1, 2, "a", 0, 10), (1, 2, "a", 20, 22)]


def test_contained_interval_absorbed(spark_small):
    df = model.sgt_df(spark_small, [(1, 2, "a", 0, 10), (1, 2, "a", 2, 5)])
    assert rows_of(coalesce_sgts(df)) == [(1, 2, "a", 0, 10)]


def test_payload_keeps_max_exp_witness(spark_small):
    df = model.sgt_df(
        spark_small,
        [
            (1, 2, "a", 0, 5, [(1, 9, "x")]),
            (1, 2, "a", 3, 9, [(9, 2, "y")]),
        ],
    )
    row = coalesce_sgts(df).collect()[0]
    assert (row.ts, row.exp) == (0, 9)
    assert [tuple(e) for e in row.path] == [(9, 2, "y")]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 20), st.integers(1, 10)), min_size=1, max_size=8
    )
)
def test_coalesce_covers_same_instants(spark_small, intervals):
    """Property: coalescing preserves exactly the set of valid instants and
    produces pairwise-disjoint, non-adjacent intervals."""
    rows = [(1, 2, "a", ts, ts + d) for ts, d in intervals]
    out = [
        (r.ts, r.exp)
        for r in coalesce_sgts(model.sgt_df(spark_small, rows)).collect()
    ]
    covered = {t for ts, d in intervals for t in range(ts, ts + d)}
    covered_out = {t for ts, exp in out for t in range(ts, exp)}
    assert covered == covered_out
    out.sort()
    for (ts1, e1), (ts2, _) in zip(out, out[1:]):
        assert e1 < ts2  # disjoint and non-adjacent


def test_no_coalesce_sgts_in_streaming_operators():
    """The streaming operators make sets only where one is needed, without
    the window shuffle: ``coalesce_sgts`` is the batch reference's."""
    dataflow = Path(__file__).resolve().parent.parent / "src" / "repro" / "dataflow"
    found = [
        f"{path.name}:{i}"
        for path in sorted(dataflow.rglob("*.py"))
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if "coalesce_sgts" in line
    ]
    assert found == []
