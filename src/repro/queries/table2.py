"""Table 2 harness: SGA (direct) vs DD (negative-tuple) on SO and LDBC.

The paper's Table 2 reports, for Q1–Q8 on the StackOverflow and
LDBC-SF10 graphs (|W| = 30 days, β = 1 day), the aggregate throughput
(edges/s) and the 99th-percentile window-slide latency of the SGA
prototype and the Differential Dataflow baseline.

This harness replays the synthetic SO/LDBC substitutes (DESIGN.md §3)
through the micro-batch engine in both modes with a scaled-down window
(default 4 slides per window, 10 window movements) and reports the same
two measures per configuration. ``PAPER_TABLE2`` keeps the published
numbers next to ours so EXPERIMENTS.md can diff shapes.
"""
from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import pandas as pd
from pyspark.sql import SparkSession

from repro.dataflow.engine import MicroBatchEngine
from repro.dataflow.metrics import RunMetrics
from repro.queries.workload import QUERIES, get_query
from repro.streams import ldbc_stream, so_stream

#: (throughput edges/s, tail latency s) from the paper's Table 2.
PAPER_TABLE2: Dict[Tuple[str, str, str], Tuple[float, float]] = {
    ("so", "SGA", "Q1"): (2884, 4), ("so", "SGA", "Q2"): (9074, 4.9),
    ("so", "SGA", "Q3"): (391, 177), ("so", "SGA", "Q4"): (348, 94.9),
    ("so", "SGA", "Q5"): (234058, 0.4), ("so", "SGA", "Q6"): (625, 51.4),
    ("so", "SGA", "Q7"): (353, 52.6), ("so", "SGA", "Q8"): (262, 87.8),
    ("so", "DD", "Q1"): (1209, 6.3), ("so", "DD", "Q2"): (4512, 5.8),
    ("so", "DD", "Q3"): (368, 121.7), ("so", "DD", "Q4"): (374, 82.8),
    ("so", "DD", "Q5"): (63330, 1), ("so", "DD", "Q6"): (283, 72.6),
    ("so", "DD", "Q7"): (275, 74), ("so", "DD", "Q8"): (173, 82.5),
    ("ldbc", "SGA", "Q1"): (95903, 1.4), ("ldbc", "SGA", "Q2"): (244653, 1.8),
    ("ldbc", "SGA", "Q3"): (224342, 1.9), ("ldbc", "SGA", "Q4"): (278647, 0.4),
    ("ldbc", "SGA", "Q5"): (14000, 79.5), ("ldbc", "SGA", "Q6"): (450957, 0.8),
    ("ldbc", "SGA", "Q7"): (130651, 10.8), ("ldbc", "SGA", "Q8"): (30622, 7.7),
    ("ldbc", "DD", "Q1"): (121133, 0.8), ("ldbc", "DD", "Q2"): (299245, 1.2),
    ("ldbc", "DD", "Q3"): (316267, 1.1), ("ldbc", "DD", "Q4"): (303068, 0.2),
    ("ldbc", "DD", "Q5"): (12053, 109.5), ("ldbc", "DD", "Q6"): (402048, 0.9),
    ("ldbc", "DD", "Q7"): (21284, 141), ("ldbc", "DD", "Q8"): (39853, 3.8),
}

#: engine-mode ↔ table-name mapping
SYSTEMS = {"SGA": "sga", "DD": "dd"}

#: Bench scale (≈paper's |W|=30β shrunk to 4β over a 40-unit stream).
SCALES = {
    "bench": {"window": 16, "beta": 4, "so_edges": 1200, "ldbc_persons": 80,
              "ldbc_messages": 600, "t_span": 32},
    "test": {"window": 8, "beta": 4, "so_edges": 220, "ldbc_persons": 25,
             "ldbc_messages": 120, "t_span": 16},
}


def dataset_stream(dataset: str, scale: str = "bench", seed: int = 42) -> pd.DataFrame:
    p = SCALES[scale]
    if dataset == "so":
        return so_stream(n_edges=p["so_edges"], t_span=p["t_span"], seed=seed)
    if dataset == "ldbc":
        return ldbc_stream(
            n_persons=p["ldbc_persons"],
            n_messages=p["ldbc_messages"],
            t_span=p["t_span"],
            seed=seed,
        )
    raise KeyError(dataset)


def run_config(
    spark: SparkSession,
    dataset: str,
    query_name: str,
    system: str,
    scale: str = "bench",
    stream: Optional[pd.DataFrame] = None,
) -> RunMetrics:
    """One Table 2 cell: run a query on a dataset under one system."""
    p = SCALES[scale]
    if stream is None:
        stream = dataset_stream(dataset, scale)
    plan = get_query(query_name, dataset).plan(p["window"], p["beta"])
    engine = MicroBatchEngine(spark, plan, mode=SYSTEMS[system])
    metrics = RunMetrics(system=system, query=query_name, dataset=dataset)
    engine.run(stream, metrics=metrics)
    return metrics


def run_table2(
    spark: SparkSession,
    datasets: Iterable[str] = ("so", "ldbc"),
    queries: Iterable[str] = tuple(QUERIES),
    systems: Iterable[str] = ("SGA", "DD"),
    scale: str = "bench",
    verbose: bool = True,
) -> List[dict]:
    queries, systems = list(queries), list(systems)
    rows = []
    for n, ds in enumerate(datasets):
        stream = dataset_stream(ds, scale)
        if n == 0 and queries:
            # Untimed, so the first timed cell does not also pay the JVM's
            # and the Python workers' start-up: the first slide per system.
            prefix = stream[stream.ts < SCALES[scale]["beta"]]
            for system in systems:
                run_config(spark, ds, queries[0], system, scale, prefix)
        for q in queries:
            for system in systems:
                m = run_config(spark, ds, q, system, scale, stream)
                row = m.row()
                paper = PAPER_TABLE2.get((ds, system, q))
                if paper:
                    row["paper_tput"], row["paper_tl"] = paper
                rows.append(row)
                if verbose:
                    print(
                        f"[table2] {ds:>4} {q} {system:>3}: "
                        f"tput={row['throughput_eps']:>8} e/s  "
                        f"tl={row['tail_latency_s']:>7}s  "
                        f"results={row['results']}",
                        flush=True,
                    )
    return rows


def render_markdown(rows: List[dict]) -> str:
    """Markdown rendering of measured vs paper numbers for EXPERIMENTS.md."""
    lines = [
        "| dataset | query | system | tput (e/s) | tail lat (s) | paper tput | paper tl |",
        "|---|---|---|---|---|---|---|",
    ]
    for r in rows:
        lines.append(
            f"| {r['dataset']} | {r['query']} | {r['system']} "
            f"| {r['throughput_eps']} | {r['tail_latency_s']} "
            f"| {r.get('paper_tput', '—')} | {r.get('paper_tl', '—')} |"
        )
    return "\n".join(lines)
