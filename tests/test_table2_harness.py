"""Table 2 harness end-to-end at test scale + Table 1 job output."""
import importlib.util
import io
import os

import pytest

from repro.dataflow.metrics import RunMetrics
from repro.queries import table2
from repro.queries.table2 import (
    PAPER_TABLE2,
    SCALES,
    dataset_stream,
    render_markdown,
    run_config,
    run_table2,
)


def test_paper_numbers_complete():
    # 2 datasets × 2 systems × 8 queries
    assert len(PAPER_TABLE2) == 32


@pytest.mark.parametrize("dataset", ["so", "ldbc"])
def test_dataset_streams(dataset):
    pdf = dataset_stream(dataset, "test")
    assert len(pdf) > 50
    assert pdf.ts.max() < SCALES["test"]["t_span"]


def test_run_config_both_systems(spark_small):
    stream = dataset_stream("so", "test")
    for system in ("SGA", "DD"):
        m = run_config(spark_small, "so", "Q1", system, "test", stream)
        assert m.total_edges > 0
        assert m.throughput > 0
        assert m.system == system and m.dataset == "so" and m.query == "Q1"


def test_run_table2_subset_and_markdown(spark_small):
    rows = run_table2(
        spark_small,
        datasets=["so"],
        queries=["Q5"],
        systems=["SGA", "DD"],
        scale="test",
        verbose=False,
    )
    assert len(rows) == 2
    assert all("paper_tput" in r for r in rows)
    md = render_markdown(rows)
    assert "| so | Q5 | SGA |" in md and "| so | Q5 | DD |" in md


def test_run_table2_warms_up_untimed(monkeypatch):
    """Before the first timed cell each system replays the first slide of
    the first stream; those runs yield no rows."""
    calls = []

    def fake_run_config(spark, ds, q, system, scale, stream):
        calls.append((ds, q, system, int(stream.ts.max())))
        return RunMetrics(system=system, query=q, dataset=ds)

    monkeypatch.setattr(table2, "run_config", fake_run_config)
    rows = run_table2(None, datasets=["so", "ldbc"], queries=["Q5", "Q1"],
                      scale="test", verbose=False)
    beta = SCALES["test"]["beta"]
    assert [c[:3] for c in calls[:2]] == [("so", "Q5", "SGA"), ("so", "Q5", "DD")]
    assert all(c[3] < beta for c in calls[:2])
    assert len(calls) == 2 + len(rows) and len(rows) == 8
    assert all(c[3] >= beta for c in calls[2:])


def test_systems_agree_on_results(spark_small):
    """Both engines answer the same query — their answer sets must agree
    after every slide (correctness is oracle-checked elsewhere; this
    guards the harness wiring)."""
    from repro.dataflow.engine import MicroBatchEngine
    from repro.queries.workload import get_query

    p = SCALES["test"]
    stream = dataset_stream("so", "test")
    answers = {}
    for mode in ("sga", "dd"):
        plan = get_query("Q6", "so").plan(p["window"], p["beta"])
        eng = MicroBatchEngine(spark_small, plan, mode=mode)
        slides = answers[mode] = []

        def on_slide(engine, t_now):
            slides.append((t_now, sorted(engine.current_pairs())))

        eng.run(stream, on_slide=on_slide)
    assert answers["sga"] == answers["dd"]
    assert len(answers["sga"]) > 1 and any(pairs for _, pairs in answers["sga"])


def test_run_table1_job():
    spec = importlib.util.spec_from_file_location(
        "run_table1",
        os.path.join(os.path.dirname(__file__), "..", "jobs", "run_table1.py"),
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    buf = io.StringIO()
    mod.main(out=buf)
    text = buf.getvalue()
    assert "Q8" in text and "PATH" in text and "bindings[ldbc]" in text
