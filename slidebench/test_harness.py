"""Self-test of the benchmark harness on a tiny input.

Run from the root of the repository:

    python3 -m pytest slidebench -q

One timed slide per workload. Checks that an untraced run emits every
end-to-end metric and a traced run every per-layer metric of
``BENCHMARK.json``, each with its unit, that the correctness gate
passes, and that the traced run's job accounting holds.
"""
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from spans import slide_layers  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def bench_spark():
    spark = bench.build_spark()
    yield spark
    bench.stop_spark(spark)


def _units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_untraced_run_emits_end_to_end_metrics(bench_spark, workload):
    res = bench.run_benchmark(workload, seed=5, seconds=1, trace=False,
                              spark=bench_spark)
    assert res["correct"] and res["failed"] == 0
    assert res["attempted"] == bench.FILL_SLIDES + 1
    assert _units(res["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_run_emits_per_layer_metrics_and_accounts_jobs(bench_spark):
    res = bench.run_benchmark("dd", seed=5, seconds=1, trace=True,
                              spark=bench_spark)
    assert res["correct"]
    assert _units(res["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["spark.tasks_failed"] == 0
    s = bench.NAME
    assert m[f"{s}.jobs"] > 0 and m[f"{s}.driver.jobs"] == 0
    layer_jobs = sum(m[f"{s}.{x}.jobs"] for x in bench.LAYER_NAMES)
    assert layer_jobs == m[f"{s}.jobs"]
    assert 0 < m[f"{s}.distinct.jobs"] < layer_jobs


def test_accounting_rejects_overlapping_spans_and_unexplained_time():
    class Fake:
        def setJobGroup(self, *a):
            pass

    tracer = bench.Tracer(Fake(), "t", ledger=None)
    root = tracer.open_slide(0)
    tracer.wrap("a", lambda: None)()
    tracer.close_slide()
    wall = root.end - root.start
    layers = slide_layers(tracer, root, wall)
    assert set(layers) == {"driver", "a", "trace"}
    with pytest.raises(bench.AccountingError):  # a second the spans missed
        slide_layers(tracer, root, wall + 1.0)
    tracer.spans[1].hi = root.end + 1.0  # a child outliving its slide
    with pytest.raises(bench.AccountingError):
        slide_layers(tracer, root, wall)
