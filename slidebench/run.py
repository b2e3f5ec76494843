#!/usr/bin/env python3
"""SGA vs DD slide benchmark (the paper's Table 2 measures).

Usage, from the root of the repository:

    python3 slidebench/run.py --workload sga --seed 1 --seconds 12 --trace 0

A workload is one engine mode, ``sga`` (direct) or ``dd`` (negative
tuples). One run starts Spark, generates the SO Q8 stream
(``workloads.py``) from ``--seed`` and replays it through a
``MicroBatchEngine``. The loop is closed: slide k+1 is fed only after
slide k has produced its results.

The first ``FILL_SLIDES`` slides fill the window; they carry the JVM's
warm-up and count as set-up. The timed slides follow, so every timed
slide both inserts and expires edges. The number of timed slides is
fixed by ``--seconds`` and the nominal slide cost, so one
``--seconds`` replays the same slides on every commit.

After every slide, outside the timed section, the correctness gate
compares the engine's answer set with the DuckDB oracle's. A slide that
raises or mismatches counts as failed and is not retried; ``attempted``
and ``failed`` in the result count slides. Both engines meet the same
oracle on the same seeded input, and ``# meta`` records a digest of the
answer sets, equal for ``sga`` and ``dd`` runs of one seed.

``--trace 0`` prints the end-to-end metrics. They are CPU seconds of
this process, Spark's JVM (less its JIT compiler threads, see
``JIT_THREADS``) and its Python workers together: ``setup_s``
(Spark start, plan, engine construction and the window-fill slides),
the timed slides' median (``slide_cpu_p50_s``) and their edges per CPU
second (``edges_per_cpu_s``). In ten runs per engine on a shared
4-core host, with other tenants' load coming and going, the spread
(IQR/median) of the timed slide's wall time was 0.26 (sga) and 0.37
(dd), that of its CPU time 0.09 and 0.18. A change that saves work
moves both. The wall figures are in ``# meta`` and, from the traced run,
among the per-layer metrics. ``--trace 1`` wraps every operator
instance in spans (``spans.py``) and prints the per-layer metrics
instead. The last line of standard output is the JSON result;
the lines before it starting with ``#`` give every metric by name and
unit, and ``# meta`` records the environment and the input.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pyspark import SparkContext  # noqa: E402
from pyspark.sql import SparkSession  # noqa: E402

from repro.dataflow.engine import MicroBatchEngine  # noqa: E402
from repro.dataflow.metrics import RunMetrics  # noqa: E402
from repro.queries.workload import get_query  # noqa: E402
from spans import AccountingError, Ledger, Tracer, dump_spans, slide_layers  # noqa: E402
from workloads import (  # noqa: E402
    BETA,
    DATASET,
    FILL_SLIDES,
    NAME,
    QUERY,
    SLIDE_COST_S,
    WINDOW,
    WORKLOADS,
    edges_per_slide,
    make_stream,
    oracle_answers,
    stream_digest,
)

WORK_DIR = ROOT / ".bench_build" / "slidebench"
DRIVER_MEMORY = "2g"

#: Layers are the logical SGA operators (Def. 16-20) each engine
#: compiles: WSCAN ``source``, ``union``, PATTERN ``join`` and ``path``.
#: DD compiles each of them to its operator plus a ``DDDistinctOp``; the
#: distinct's spans are ``<layer>.distinct`` and count towards the layer
#: and towards the ``distinct`` totals. Naming layers by role, not by
#: class, gives both workloads the same metrics.
ROLES = {
    "SourceOp": "source", "DDSourceOp": "source",
    "UnionOp": "union", "DDUnionOp": "union",
    "MultiJoinOp": "join", "DDJoinOp": "join",
    "SPathOp": "path", "DDPathOp": "path",
}
#: The layers and the sink (SGA's ``ResultState.update``; DD's final
#: distinct and the engine's count of its output).
LAYER_NAMES = ("source", "union", "join", "path", "sink")
#: The attributes holding each operator's state DataFrames.
STATE = {
    "MultiJoinOp": ("states",), "SPathOp": ("index", "edges"),
    "DDSourceOp": ("window",), "DDDistinctOp": ("counts",),
    "DDJoinOp": ("states",), "DDPathOp": ("facts", "edges"),
    "ResultState": ("df",),
}


def build_spark() -> SparkSession:
    """The session settings of ``jobs/run_table2.py`` on ``local[k]``,
    k = min(4, cores), with Spark's scratch files inside the checkout."""
    tmp = WORK_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    tempfile.tempdir = None
    spark = (
        SparkSession.builder.master(f"local[{min(4, os.cpu_count() or 1)}]")
        .appName("slidebench")
        .config("spark.sql.shuffle.partitions", "4")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.driver.memory", DRIVER_MEMORY)
        .config("spark.local.dir", str(tmp))
        .config("spark.sql.warehouse.dir", str(WORK_DIR / "warehouse"))
        .config(
            "spark.driver.extraJavaOptions",
            f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData {JIT_FLAGS}",
        )
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark: Optional[SparkSession]) -> None:
    """Stop the session and the JVM that pyspark launched for it, and wait
    until the JVM has ended. ``spark.stop()`` alone leaves the JVM running
    until it notices, after this process has exited, that its stdin pipe
    closed. Also called when the session failed to start."""
    gateway = SparkContext._gateway
    try:
        if spark is not None:
            spark.stop()
    finally:
        if gateway is not None:
            SparkContext._gateway = SparkContext._jvm = None
            proc = getattr(gateway, "proc", None)
            try:
                gateway.shutdown()
            finally:
                if proc is not None:
                    proc.terminate()
                    try:
                        proc.wait(timeout=30)
                    except subprocess.TimeoutExpired:
                        proc.kill()
                        proc.wait()


def _git_commit() -> str:
    """The checkout's commit, or "unknown" outside a git work tree (git
    is not allowed to look above the checkout)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


#: The JVM's JIT compiler threads. Their CPU time is the JVM compiling
#: itself while it warms up, and how much of it lands in a slide depends
#: on timing, so the CPU figures leave it out. JIT_FLAGS keeps these
#: threads alive, so that none takes its time into the process total
#: by exiting.
JIT_THREADS = ("C1 CompilerThre", "C2 CompilerThre")
JIT_FLAGS = "-XX:-UseDynamicNumberOfCompilerThreads"


def _stat(path: Path):
    """Name and user, system, reaped children's user and system ticks
    from a Linux ``/proc/.../stat`` file."""
    text = path.read_text()
    name = text[text.index("(") + 1:text.rindex(")")]
    return name, [int(x) for x in text[text.rindex(")") + 2:].split()[11:15]]


def tree_cpu_s(pid: int) -> Dict[int, float]:
    """CPU seconds used so far by process ``pid`` and by each process below
    it (for Spark's JVM, the Python workers it starts), each including the
    children it has reaped; the JVM's without ``JIT_THREADS``."""
    out, stack = {}, [pid]
    while stack:
        p = stack.pop()
        proc = Path("/proc") / str(p)
        try:
            n = sum(_stat(proc / "stat")[1])
            tasks = list((proc / "task").iterdir())
        except (FileNotFoundError, ProcessLookupError):
            continue  # the process ended since its parent listed it
        for task in tasks:
            try:
                kids = (task / "children").read_text().split()
                name, t = _stat(task / "stat")
            except (FileNotFoundError, ProcessLookupError):
                continue  # the thread ended since the listing
            stack.extend(int(c) for c in kids)
            if name in JIT_THREADS:
                n -= t[0] + t[1]
        out[p] = n / os.sysconf("SC_CLK_TCK")
    return out


def cpu_clock() -> Callable[[], Dict[int, float]]:
    """Per-process CPU seconds of this process (key 0), Spark's JVM and the
    JVM's Python workers; ``cpu_between`` turns two readings into a time."""
    jvm = SparkContext._gateway.proc.pid
    return lambda: {0: time.process_time(), **tree_cpu_s(jvm)}


def cpu_between(a: Dict[int, float], b: Dict[int, float]) -> float:
    """CPU seconds used between readings ``a`` and ``b`` by the processes
    alive at ``b``. A process that ended in between counts 0: pyspark's
    daemon ignores SIGCHLD, so the time of a worker that ends is lost, and
    summing over live processes alone would go backwards."""
    return sum(v - a.get(p, 0.0) for p, v in b.items())


def n_timed_slides(seconds: int) -> int:
    return max(1, round(seconds / SLIDE_COST_S))


class Instrumented:
    """The traced run's wrappers around the engine's operator instances."""

    def __init__(self, tracer: Tracer, engine: MicroBatchEngine):
        self.tracer = tracer
        self.ops: Dict[str, list] = {}  # span name -> [[instance, last output]]
        seen = set()
        stack = [engine.root]
        while stack:
            op = stack.pop()
            if id(op) in seen:
                continue
            seen.add(id(op))
            self._wrap(op, self._span_name(op))
            stack.extend(getattr(op, "children", []))
            if hasattr(op, "child"):
                stack.append(op.child)
        if engine.mode == "sga":
            res = engine.result
            res.update = tracer.wrap("sink", res.update)
            self.ops["sink"] = [[res, None]]
        else:
            self._wrap_dd_sink(engine.result_counts)

    @staticmethod
    def _span_name(op) -> str:
        cls = type(op).__name__
        if cls == "DDDistinctOp":
            return Instrumented._span_name(op.child).split(".")[0] + ".distinct"
        if cls not in ROLES:
            raise TypeError(f"operator {cls} has no layer in the benchmark")
        return ROLES[cls]

    def _wrap(self, op, name: str) -> None:
        entry = [op, None]
        self.ops.setdefault(name, []).append(entry)
        inner = self.tracer.wrap(name, op.process)

        def process(t_now):
            entry[1] = inner(t_now)
            return entry[1]

        op.process = process

    def _wrap_dd_sink(self, op) -> None:
        """DD's sink is the engine's final DDDistinctOp plus the count the
        engine takes of its output; both run in ``sink`` spans."""
        self.ops["sink"] = [[op, None]]
        inner = self.tracer.wrap("sink", op.process)

        def process(t_now):
            out = inner(t_now)
            out.count = self.tracer.wrap("sink", out.count)
            return out

        op.process = process

    def row_counts(self) -> Dict[str, dict]:
        """Output-delta rows and state rows per span name (runs Spark
        jobs). The sink's output rows are the emitted deltas the engine
        counts."""
        out = {}
        for name, entries in self.ops.items():
            rows_out = state = 0
            for op, last in entries:
                if last is not None:
                    rows_out += last.count()
                for a in STATE.get(type(op).__name__, ()):
                    v = getattr(op, a)
                    state += sum(df.count() for df in (v if isinstance(v, list) else [v]))
            out[name] = {"rows_out": rows_out, "state_rows": state}
        return out


class EngineRun:
    """One engine's replay of the stream, with per-slide records."""

    def __init__(self, spark, plan, mode: str, n_slides: int,
                 expected: List[set], ledger: Optional[Ledger]):
        self.n_slides = n_slides
        self.expected = expected
        self.cpu = cpu_clock()
        self.slide_s: List[float] = []
        self.slide_cpu_s: List[float] = []
        self.edges: List[int] = []
        self.emitted: List[int] = []
        self.answers: List[set] = []
        self.layers: List[dict] = []
        self.error: Optional[str] = None

        t0, c0 = time.perf_counter(), self.cpu()
        self.engine = MicroBatchEngine(spark, plan, mode=mode)
        self.compile_s = time.perf_counter() - t0
        self.compile_cpu_s = cpu_between(c0, self.cpu())
        self.tracer = Tracer(spark.sparkContext, NAME, ledger) if ledger else None
        self.inst = Instrumented(self.tracer, self.engine) if ledger else None
        self.metrics = RunMetrics(system=mode, query=QUERY, dataset=DATASET)
        self._start = 0.0
        self._start_cpu: Dict[int, float] = {}

    def replay(self, df) -> None:
        try:
            self._start_cpu = self.cpu()  # read outside the slide's spans
            if self.tracer:
                self.tracer.open_slide(0)
            self._start = time.perf_counter()
            self.engine.run(df, on_slide=self._on_slide, metrics=self.metrics)
        except AccountingError:
            raise
        except Exception as e:  # noqa: BLE001 -- the failed slide is reported
            self.error = f"{type(e).__name__}: {e}"
            print(f"[slidebench] {NAME} failed at slide "
                  f"{len(self.slide_s)}: {self.error}", file=sys.stderr)
        finally:
            if self.tracer:
                self.tracer.stack.clear()  # the slide that never came

    def _on_slide(self, engine: MicroBatchEngine, t_now: int) -> None:
        end = time.perf_counter()
        k = len(self.slide_s)
        self.slide_s.append(end - self._start)
        tr = self.tracer
        root = tr.close_slide() if tr else None
        self.slide_cpu_s.append(cpu_between(self._start_cpu, self.cpu()))
        self.edges.append(self.metrics.slide_edges[-1])
        self.emitted.append(self.metrics.n_results - sum(self.emitted))
        if tr:
            spans = tr.spans[root.id:]
            counts = {}
            if k >= FILL_SLIDES:
                spans.append(tr.group("rows", k))
                counts = self.inst.row_counts()
            spans.append(tr.group("gate", k))
        self.answers.append({(int(a), int(b)) for a, b in engine.current_pairs()})
        if tr:
            tr.ledger.collect(spans)
            layers = slide_layers(tr, root, self.slide_s[k])
            for layer, c in counts.items():
                layers.setdefault(layer, {}).update(c)
            self.layers.append(layers)
        print(f"[slidebench] {NAME} slide {k} t={t_now} "
              f"edges={self.edges[-1]} {self.slide_s[-1]:.3f}s "
              f"cpu={self.slide_cpu_s[-1]:.3f}s "
              f"answer={len(self.answers[-1])} "
              f"ok={self.answers[-1] == self.expected[k]}",
              file=sys.stderr, flush=True)
        self._start_cpu = self.cpu()
        if tr and k + 1 < self.n_slides:
            tr.open_slide(k + 1)
        self._start = time.perf_counter()

    @property
    def timed(self) -> range:
        return range(FILL_SLIDES, len(self.slide_s))

    def failed(self) -> int:
        return sum(not (k < len(self.answers) and self.answers[k] == self.expected[k])
                   for k in range(self.n_slides))

    def throughput(self, times: List[float]) -> float:
        """Edges of the timed slides per second of ``times`` (wall or CPU)."""
        t = sum(times[i] for i in self.timed)
        return sum(self.edges[i] for i in self.timed) / t if t else 0.0

    def p50(self, times: List[float]) -> float:
        return _median(times[i] for i in self.timed)

    def warmup(self, times: List[float]) -> float:
        return sum(times[:FILL_SLIDES])

    def answers_digest(self) -> str:
        """Digest of the per-slide answer sets, comparable across engines."""
        text = repr([sorted(a) for a in self.answers])
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(r: EngineRun) -> Dict[str, dict]:
    """Per-layer medians over the timed slides, named
    ``<stream>.<layer>.<metric>``. A layer's rows out are those of its
    last operator (DD's distinct), its state rows those of all its
    operators."""
    m: Dict[str, dict] = {}
    per = [r.layers[i] for i in r.timed]

    def put(name, values, unit):
        m[f"{NAME}.{name}"] = {"value": _median(values), "unit": unit}

    def total(p, names, key):
        return sum(p.get(n, {}).get(key, 0) for n in names)

    for layer in LAYER_NAMES:
        names = (layer, layer + ".distinct")
        for key, unit in (("self_s", "s"), ("jobs", "count"), ("tasks", "count"),
                          ("state_rows", "rows")):
            put(f"{layer}.{key}", (total(p, names, key) for p in per), unit)
        if layer == "sink":
            put("sink.rows_out", (r.emitted[i] for i in r.timed), "rows")
        else:
            put(f"{layer}.rows_out", (p.get(names[1], p.get(layer, {})).get("rows_out", 0)
                                      for p in per), "rows")
    distinct = [f"{x}.distinct" for x in LAYER_NAMES]
    for key, unit in (("jobs", "count"), ("tasks", "count"), ("rows_out", "rows"),
                      ("state_rows", "rows")):
        put(f"distinct.{key}", (total(p, distinct, key) for p in per), unit)
    put("distinct.self_share", (total(p, distinct, "self_s") / r.slide_s[i]
                                for i, p in zip(r.timed, per)), "fraction")
    put("driver.self_s", (p["driver"]["self_s"] for p in per), "s")
    put("driver.jobs", (p["driver"]["jobs"] for p in per), "count")
    put("jobs", (sum(v.get("jobs", 0) for v in p.values()) for p in per), "count")
    put("tasks", (sum(v.get("tasks", 0) for v in p.values()) for p in per), "count")
    put("answer_size", (len(r.answers[i]) for i in r.timed), "rows")
    put("throughput_eps", [r.throughput(r.slide_s)], "edges/s")
    put("slide_p50_s", [r.p50(r.slide_s)], "s")
    over = sum(p["trace"]["self_s"] for p in per)
    wall = sum(r.slide_s[i] for i in r.timed)
    put("trace_overhead", [over / (wall - over) if wall > over else 0.0], "fraction")
    put("setup.compile_s", [r.compile_s], "s")
    put("setup.warmup_s", [r.warmup(r.slide_s)], "s")
    return m


def run_benchmark(workload: str, seed: int, seconds: int, trace: bool,
                  spark: Optional[SparkSession] = None) -> dict:
    """One benchmark run; returns the result record (see module doc)."""
    if workload not in WORKLOADS:
        raise KeyError(workload)
    n_slides = FILL_SLIDES + n_timed_slides(seconds)
    own_spark = spark is None
    try:
        t0, c0 = time.perf_counter(), {0: time.process_time()}
        if own_spark:
            spark = build_spark()
        spark_s = time.perf_counter() - t0
        # The JVM started inside build_spark: its CPU time counts from 0.
        spark_cpu_s = cpu_between(c0, cpu_clock()()) if own_spark else 0.0
        meta = {
            "workload": workload, "seed": seed, "trace": int(trace),
            "spark": spark.version, "master": spark.sparkContext.master,
            "driver_memory": DRIVER_MEMORY, "nproc": os.cpu_count(),
            "python": platform.python_version(), "commit": _git_commit(),
            "window": WINDOW, "beta": BETA,
        }
        ledger = Ledger(spark.sparkContext) if trace else None
        df = make_stream(seed, n_slides)
        times = [(k + 1) * BETA - 1 for k in range(n_slides)]
        t1, c1 = time.perf_counter(), time.process_time()
        plan = get_query(QUERY, DATASET).plan(WINDOW, BETA)
        plan_s = time.perf_counter() - t1
        plan_cpu_s = time.process_time() - c1
        expected = oracle_answers(plan, df, times)
        r = EngineRun(spark, plan, workload, n_slides, expected, ledger)
        r.replay(df)
        meta[NAME] = {
            "edges_per_slide": edges_per_slide(df),
            "stream_rows": len(df), "stream_digest": stream_digest(df),
            "answers_digest": r.answers_digest(),
            "slides": {"warmup": min(FILL_SLIDES, len(r.slide_s)),
                       "timed": len(r.timed)},
            "error": r.error,
        }
        if ledger:
            ledger.check()
            WORK_DIR.mkdir(parents=True, exist_ok=True)
            dump_spans(str(WORK_DIR / f"spans-{workload}-{seed}.json"),
                       {NAME: r.tracer})
    finally:
        if own_spark:
            stop_spark(spark)

    failed = r.failed()
    meta["slide_fail_frac"] = failed / n_slides
    meta["wall"] = {
        "setup_s": spark_s + plan_s + r.compile_s + r.warmup(r.slide_s),
        "throughput_eps": r.throughput(r.slide_s),
        "slide_p50_s": r.p50(r.slide_s),
    }
    if trace:
        metrics = {"setup.spark_s": {"value": spark_s, "unit": "s"},
                   "setup.plan_s": {"value": plan_s, "unit": "s"},
                   "spark.tasks_failed": {"value": ledger.tasks_failed,
                                          "unit": "count"}}
        metrics.update(layer_metrics(r))
    else:
        setup_s = spark_cpu_s + plan_cpu_s + r.compile_cpu_s + r.warmup(r.slide_cpu_s)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            f"{NAME}.edges_per_cpu_s": {"value": r.throughput(r.slide_cpu_s),
                                        "unit": "edges/cpu_s"},
            f"{NAME}.slide_cpu_p50_s": {"value": r.p50(r.slide_cpu_s), "unit": "s"},
        }
    return {"meta": meta, "correct": failed == 0, "attempted": n_slides,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # A SIGTERM unwinds like an exception, so Spark's JVM is stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    res = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    meta = res.pop("meta")
    print("# meta " + json.dumps(meta, sort_keys=True))
    for name, v in sorted(res["metrics"].items()):
        print(f"# {name} = {v['value']:.6g} {v['unit']}")
    print(f"# slide_fail_frac = {meta['slide_fail_frac']:.6g} fraction "
          f"({res['failed']}/{res['attempted']} slides)")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
