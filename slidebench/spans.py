"""Spans and Spark job accounting for the traced run.

Every layer is measured from outside the program: the tracer replaces
each compiled operator instance's ``process`` (and the sink call) by a
wrapper that opens a span around the original call. A span records
name, start, end, parent and slide, and runs under its own Spark job
group, so the jobs a layer launches while it is the innermost open span
are read back from ``statusTracker().getJobIdsForGroup`` right after the
slide. Spans are kept in memory and written out at the end of the run.

Spark is lazy. An operator returns a DataFrame plan, and the jobs that
evaluate it run when some operator calls an action on it. A layer's
self time and jobs therefore include the upstream lazy plan that its
own actions execute. The tracer adds no action of its own inside a
span; row counts are taken after the slide, under a group that belongs
to no layer.
"""
from __future__ import annotations

import json
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional

from pyspark import SparkContext


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    slide: int
    group: str
    lo: float  # wrapper entry; [lo, hi] is what the parent loses
    start: float = 0.0  # the wrapped call itself
    end: float = 0.0
    hi: float = 0.0
    children: List[int] = field(default_factory=list)
    jobs: int = 0
    tasks: int = 0


class AccountingError(RuntimeError):
    """A job or part of a slide's wall time could not be attributed."""


class Ledger:
    """Jobs and tasks seen by every tracer of a run, for the check that
    each job lands in exactly one span's group."""

    def __init__(self, sc: SparkContext):
        self.sc = sc
        self.tracker = sc.statusTracker()
        self.lock = threading.Lock()
        self.job_ids: List[int] = []
        self.seen_stages: set = set()
        self.tasks_failed = 0

    def collect(self, spans: List[Span]) -> None:
        """Attribute jobs and tasks to ``spans``, right after they ran: the
        status store keeps only ``spark.ui.retainedJobs`` jobs."""
        with self.lock:
            # the status store is fed asynchronously by the listener bus;
            # drain it so every job and task of the slide is recorded
            self.sc._jsc.sc().listenerBus().waitUntilEmpty(30000)
            for sp in spans:
                jids = sorted(self.tracker.getJobIdsForGroup(sp.group))
                sp.jobs, sp.tasks = len(jids), 0
                for jid in jids:
                    info = self.tracker.getJobInfo(jid)
                    if info is None:
                        raise AccountingError(f"job {jid} dropped by the status store")
                    for sid in info.stageIds:
                        if sid in self.seen_stages:
                            continue  # a reused stage, run by an earlier job
                        self.seen_stages.add(sid)
                        st = self.tracker.getStageInfo(sid)
                        if st is not None:
                            sp.tasks += st.numCompletedTasks + st.numFailedTasks
                            self.tasks_failed += st.numFailedTasks
                self.job_ids.extend(jids)

    def check(self) -> None:
        """Fail unless the collected jobs are each in exactly one group and
        no job between the first and the last is missing."""
        ids = sorted(self.job_ids)
        if ids and ids != list(range(ids[0], ids[0] + len(ids))):
            missing = sorted(set(range(ids[0], ids[-1] + 1)) - set(ids))
            raise AccountingError(
                f"{len(ids)} jobs {ids[0]}..{ids[-1]} not each in exactly one "
                f"group; unattributed: {missing[:8]}"
            )


class Tracer:
    """In-memory span recorder for one engine's thread, with one Spark job
    group per span."""

    def __init__(self, sc: SparkContext, tag: str, ledger: Ledger):
        self.sc = sc
        self.tag = tag
        self.ledger = ledger
        self.spans: List[Span] = []
        self.stack: List[Span] = []

    def _new(self, name: str, slide: int, lo: float, nested: bool) -> Span:
        parent = self.stack[-1] if nested and self.stack else None
        sp = Span(len(self.spans), name, parent.id if parent else None,
                  slide, f"{self.tag}.{len(self.spans)}", lo)
        self.spans.append(sp)
        if parent is not None:
            parent.children.append(sp.id)
        self.sc.setJobGroup(sp.group, name)
        return sp

    def open_slide(self, slide: int) -> Span:
        if self.stack:
            raise AccountingError(f"span {self.stack[-1].name!r} left open")
        sp = self._new("driver", slide, time.perf_counter(), nested=False)
        sp.start = sp.lo
        self.stack.append(sp)
        return sp

    def close_slide(self) -> Span:
        sp = self.stack.pop()
        if self.stack or sp.name != "driver":
            raise AccountingError(f"span {sp.name!r} still open at slide end")
        sp.end = sp.hi = time.perf_counter()
        return sp

    def group(self, name: str, slide: int) -> Span:
        """A job group attributed to no layer (row counts, oracle checks)."""
        if self.stack:
            raise AccountingError("accounting group opened inside a slide")
        return self._new(name, slide, time.perf_counter(), nested=False)

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            lo = time.perf_counter()
            if not self.stack:
                raise AccountingError(f"{name} called outside a slide")
            sp = self._new(name, self.stack[-1].slide, lo, nested=True)
            self.stack.append(sp)
            sp.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                sp.end = time.perf_counter()
                self.stack.pop()
                top = self.stack[-1]
                self.sc.setJobGroup(top.group, top.name)
                sp.hi = time.perf_counter()

        return traced


#: Slack between the slide span and the engine loop's clock: the slide
#: span opens before, and closes after, a Spark job-group call.
WALL_TOL_S = 0.05


def slide_layers(tracer: Tracer, root: Span, wall_s: float,
                 tol: float = 1e-6) -> Dict[str, dict]:
    """Per-layer self time, jobs and tasks for one slide, with the
    accounting self-checks: children nest inside their parent without
    overlapping, and the layers' self time plus the tracer's own
    bookkeeping agrees, within ``WALL_TOL_S``, with ``wall_s``, the slide
    time the engine loop measured outside the tracer. The ``driver``
    entry is the slide time covered by no layer's span; ``trace`` is the
    wrappers' bookkeeping."""
    spans = tracer.spans
    out: Dict[str, dict] = {}
    sums = {"self": 0.0, "trace": 0.0}

    def visit(sp: Span) -> None:
        prev, covered = sp.start, 0.0
        for k in (spans[c] for c in sp.children):
            if k.lo < prev - tol or k.hi > sp.end + tol:
                raise AccountingError(f"span {k.name} escapes or overlaps {sp.name}")
            covered += k.hi - k.lo
            prev = k.hi
            sums["trace"] += (k.hi - k.lo) - (k.end - k.start)
            visit(k)
        self_s = (sp.end - sp.start) - covered
        if self_s < -tol:
            raise AccountingError(f"negative self time in {sp.name}")
        rec = out.setdefault(sp.name, {"self_s": 0.0, "jobs": 0, "tasks": 0})
        rec["self_s"] += self_s
        rec["jobs"] += sp.jobs
        rec["tasks"] += sp.tasks
        sums["self"] += self_s

    visit(root)
    if abs(sums["self"] + sums["trace"] - wall_s) > WALL_TOL_S:
        raise AccountingError(
            f"self {sums['self']:.6f} s + trace {sums['trace']:.6f} s "
            f"!= slide wall {wall_s:.6f} s"
        )
    out["trace"] = {"self_s": sums["trace"], "jobs": 0, "tasks": 0}
    return out


def dump_spans(path: str, tracers: Dict[str, Tracer]) -> None:
    with open(path, "w") as f:
        json.dump({k: [asdict(s) for s in t.spans] for k, t in tracers.items()}, f)
