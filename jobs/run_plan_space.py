"""§7.4 plan-space micro-benchmark: Q4 = (a·b·c)+ under the canonical
loop-caching plan (SGA) and the rewritten plans P1–P3 (transformation
rules of §5.4), on the SO and LDBC streams.

Usage:  spark-submit jobs/run_plan_space.py [--dataset so|ldbc] [--scale bench|test]
                                            [--out results.json]

Prints one line per plan and optionally writes the rows as JSON to
``--out`` (``benchmarks/results/plan_space.json`` is what
``jobs/render_experiments.py`` reads).
"""
import argparse
import json
import sys

from pyspark.sql import SparkSession

from repro.core.rewrite import plan_variants_q4
from repro.dataflow.engine import MicroBatchEngine
from repro.dataflow.metrics import RunMetrics
from repro.queries.table2 import SCALES, dataset_stream
from repro.queries.workload import BINDINGS


def run_plan_space(spark: SparkSession, dataset: str, scale: str = "bench"):
    p = SCALES[scale]
    b = BINDINGS[dataset]["Q4"]
    labels = (b["a"], b["b"], b["c"])
    stream = dataset_stream(dataset, scale)
    rows = []
    for name, plan in plan_variants_q4(p["window"], p["beta"], labels).items():
        engine = MicroBatchEngine(spark, plan)
        m = RunMetrics(system=f"plan:{name}", query="Q4", dataset=dataset)
        engine.run(stream, metrics=m)
        rows.append(m.row())
        print(
            f"[plan-space] {dataset} Q4 {name:>4}: "
            f"tput={m.row()['throughput_eps']:>8} e/s  tl={m.row()['tail_latency_s']}s",
            flush=True,
        )
    return rows


def main(argv=None) -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--dataset", default="so", choices=["so", "ldbc"])
    ap.add_argument("--scale", default="bench", choices=["bench", "test"])
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    spark = (
        SparkSession.builder.appName("repro-plan-space")
        .config("spark.sql.shuffle.partitions", "4")
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )
    try:
        rows = run_plan_space(spark, args.dataset, args.scale)
    finally:
        spark.stop()
    if args.out:
        with open(args.out, "w") as f:
            json.dump(rows, f, indent=2)
        print(f"wrote {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
