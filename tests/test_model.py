"""Streaming graph model tests (paper §3): WSCAN intervals, snapshots, and
the Arrow local relations the driver builds its frames as."""
import ast
from pathlib import Path

import pandas as pd
import pyarrow as pa
import pytest

from repro.core import model
from repro.dataflow.negtuple import _FACT_SCHEMA, DD_SCHEMA
from repro.dataflow.spath import _INDEX_SCHEMA


@pytest.fixture(scope="module")
def tiny_stream(spark_small):
    # Fig. 2-style excerpt: likes/follows/posts interactions.
    return model.sge_df(
        spark_small,
        [
            (1, 10, "likes", 13),
            (1, 2, "follows", 5),
            (2, 10, "posts", 4),
            (2, 11, "posts", 29),
            (3, 11, "likes", 30),
        ],
    )


def test_wscan_interval_beta1(tiny_stream):
    out = model.wscan(tiny_stream, size=24).orderBy("ts").collect()
    assert [r.exp - r.ts for r in out] == [24] * 5
    first = out[0]
    assert (first.ts, first.exp) == (4, 28)


def test_wscan_interval_with_slide(tiny_stream):
    # exp = floor(ts/beta)*beta + T  (Def. 16)
    out = {r.ts: r.exp for r in model.wscan(tiny_stream, size=24, slide=10).collect()}
    assert out[13] == 10 + 24
    assert out[5] == 0 + 24
    assert out[29] == 20 + 24
    assert out[30] == 30 + 24


def test_wscan_payload_is_own_edge(tiny_stream):
    row = (
        model.wscan(tiny_stream, size=24)
        .filter("src = 1 AND label = 'likes'")
        .collect()[0]
    )
    assert [tuple(e) for e in row.path] == [(1, 10, "likes")]


def test_wscan_rejects_bad_params(tiny_stream):
    with pytest.raises(ValueError):
        model.wscan(tiny_stream, size=0)
    with pytest.raises(ValueError):
        model.wscan(tiny_stream, size=5, slide=-1)


def test_snapshot_contents(tiny_stream):
    sgts = model.wscan(tiny_stream, size=24)
    snap = {(r.src, r.trg, r.label) for r in model.snapshot(sgts, 13).collect()}
    # valid at t=13: ts<=13 < ts+24 → edges with ts in (13-24, 13]
    assert snap == {(1, 10, "likes"), (1, 2, "follows"), (2, 10, "posts")}
    snap30 = {(r.src, r.trg, r.label) for r in model.snapshot(sgts, 30).collect()}
    assert snap30 == {(1, 10, "likes"), (2, 11, "posts"), (3, 11, "likes")}


def test_snapshot_set_semantics(spark_small):
    # Two value-equivalent sgts valid at the same instant appear once.
    sgts = model.sgt_df(
        spark_small, [(1, 2, "a", 0, 10), (1, 2, "a", 5, 12), (3, 4, "a", 0, 3)]
    )
    snap = model.snapshot(sgts, 6).collect()
    assert len(snap) == 1 and (snap[0].src, snap[0].trg) == (1, 2)


def test_interval_boundaries_half_open(spark_small):
    sgts = model.sgt_df(spark_small, [(1, 2, "a", 5, 10)])
    assert model.snapshot(sgts, 4).count() == 0  # before ts
    assert model.snapshot(sgts, 5).count() == 1  # inclusive start
    assert model.snapshot(sgts, 9).count() == 1  # last valid instant
    assert model.snapshot(sgts, 10).count() == 0  # exclusive end


def test_sgt_df_default_payload(spark_small):
    row = model.sgt_df(spark_small, [(7, 8, "x", 1, 2)]).collect()[0]
    assert [tuple(e) for e in row.path] == [(7, 8, "x")]


def test_empty_sgt_schema(spark_small):
    df = model.empty_sgt(spark_small)
    assert df.columns == model.SGT_COLS
    assert df.count() == 0


# -- local_df: driver-held rows as Arrow local relations -------------------

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def test_local_df_round_trips_path_payloads(spark_small):
    rows = [
        (1, 3, "a", 0, 5, [(1, 2, "a"), (2, 3, "b")]),
        (4, 4, "a", 1, 6, []),
        (5, 6, "b", 2, 7, None),
    ]
    got = model.local_df(spark_small, rows, model.SGT_SCHEMA).orderBy("src").collect()
    assert [
        (*r[:5], None if r.path is None else [tuple(e) for e in r.path]) for r in got
    ] == rows


@pytest.mark.parametrize(
    "schema",
    [model.SGT_SCHEMA, model.SGE_SCHEMA, DD_SCHEMA, _INDEX_SCHEMA, _FACT_SCHEMA],
    ids=["sgt", "sge", "dd", "spath-index", "dred-facts"],
)
def test_local_df_empty(spark_small, schema):
    df = model.local_df(spark_small, [], schema)
    assert df.schema == schema
    assert df.count() == 0


def test_local_df_pandas_ignores_extra_columns(spark_small):
    pdf = pd.DataFrame(
        {
            "extra": [9, 9], "ts": [3, 4], "label": ["a", "b"],
            "trg": [2, 3], "src": [1, 2],
        }
    )
    df = model.sge_df(spark_small, pdf)
    assert df.columns == ["src", "trg", "label", "ts"]
    got = [tuple(r) for r in df.orderBy("ts").collect()]
    assert got == [(1, 2, "a", 3), (2, 3, "b", 4)]


def test_local_df_is_a_jvm_local_scan(spark_small):
    """No Python worker scans a driver-built frame; a frame built from a
    list without Arrow is a Python RDD scan."""

    def plan(df):
        return df._jdf.queryExecution().executedPlan().toString()

    pdf = pd.DataFrame([(1, 2, "a", 0)], columns=["src", "trg", "label", "ts"])
    frames = [
        model.sgt_df(spark_small, [(1, 2, "a", 0, 5)]),
        model.sge_df(spark_small, pdf),
        model.empty_sgt(spark_small),
    ]
    for df in frames:
        p = plan(df)
        assert "LocalTableScan" in p, p
        assert "ExistingRDD" not in p and "PythonRDD" not in p, p
    listed = spark_small.createDataFrame([(1, 2, "a", 0)], model.SGE_SCHEMA)
    assert "ExistingRDD" in plan(listed)


@pytest.mark.parametrize(
    "rows",
    [
        [(1, None, "a", 0, 5, None)],
        [(1, 2, None, 0, 5, None)],
        [(1, 2, "a", 0, 5, [(1, 2, None)])],
    ],
    ids=["top-level-long", "top-level-string", "in-path"],
)
def test_local_df_rejects_null_in_non_nullable_field(spark_small, rows):
    with pytest.raises(ValueError, match="not nullable"):
        model.local_df(spark_small, rows, model.SGT_SCHEMA)


def test_local_df_rejects_null_in_pandas_input(spark_small):
    pdf = pd.DataFrame({"src": [1], "trg": [2], "label": [None], "ts": [0]})
    with pytest.raises(ValueError, match="non-nullable"):
        model.sge_df(spark_small, pdf)


@pytest.mark.parametrize(
    "row",
    [(1, "x", "a", 0), (1, 2, 3, 0), (1, 2, "a", 0.5)],
    ids=["long", "string", "fraction"],
)
def test_local_df_rejects_wrong_type(spark_small, row):
    with pytest.raises(TypeError):
        model.sge_df(spark_small, [row])


def test_local_df_rejects_wrong_type_in_pandas_input(spark_small):
    pdf = pd.DataFrame({"src": [1], "trg": [2], "label": ["a"], "ts": [0.5]})
    with pytest.raises(pa.ArrowInvalid):
        model.sge_df(spark_small, pdf)


def test_no_create_dataframe_outside_local_df():
    """Every driver-built frame in the package goes through ``local_df``."""
    model_py = SRC / "core" / "model.py"
    (fn,) = [
        n for n in ast.parse(model_py.read_text()).body
        if isinstance(n, ast.FunctionDef) and n.name == "local_df"
    ]
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for i, line in enumerate(path.read_text().splitlines(), 1):
            inside = path == model_py and fn.lineno <= i <= fn.end_lineno
            if "createDataFrame(" in line and not inside:
                found.append(f"{path.relative_to(SRC)}:{i}")
    assert found == []
