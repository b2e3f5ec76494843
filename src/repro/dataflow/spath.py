"""S-PATH: incremental PATH operator with the Δ-PATH index (§6.2).

Δ-PATH (Def. 22) maintains, per (root vertex *x*, reached vertex *v*,
DFA state *s*), the valid path segment with the **largest expiry
timestamp** — the coalesce primitive with a max-expiry aggregation
(fn. 11). Here the spanning forest is a state DataFrame

    index(x, v, state, ts, exp, path)

where ``path`` materializes the witness edge sequence (so results return
actual paths — R3; parent pointers are implicit in the materialized
sequence).

Δ-PATH is a forest of spanning trees, one per root, so ``SPathOp`` is
PATH's operator shell shared with DRed (``path_stage.PathOp``), whose
grouped stage runs ``spath_root`` per tree in plain Python. S-PATH
brings the window fold: the window's edges on the driver as coalesced
intervals (Defs. 10–11, ``coalesce_intervals``), indexed by (vertex,
state) with ``algebra.step_index``; a segment grows by the Def. 20 step
``algebra.extend``. The batch reference (``algebra.pareto_root``) uses
the same index and step, but keeps a Pareto set of intervals per node
rather than one max-expiry segment.

``spath_root`` is Algorithm S-PATH lines 5–14 in synchronous rounds:
arriving sgts seed the root and extend stored segments; each round merges
the candidates into the tree (**Expand** inserts a node, **Propagate**
raises its expiry) and extends the changed nodes by every window step,
until nothing changes. A root's group holds every ``(x, v)`` result of
the slide, so the kernel also coalesces them per ``v`` and the operator's
output needs no shuffle. Window maintenance is *direct*: expired index
entries are identified by their own ``exp`` and dropped — no
re-derivation, in contrast to the negative-tuple baseline
(``negtuple.py``).
"""
from __future__ import annotations

import math
import sys
from functools import partial
from typing import Dict, FrozenSet, List, Tuple

import pandas as pd
from pyspark import cloudpickle
from pyspark.sql.types import ArrayType, LongType, StructField, StructType

from repro.core import model
from repro.core.algebra import extend, step_index
from repro.core.coalesce import coalesce_intervals
from repro.dataflow.operators import prune_valid
from repro.dataflow.path_stage import PathOp

# The grouped stage ships the kernel to Python workers by value, so the
# workers need not import this package.
cloudpickle.register_pickle_by_value(sys.modules[__name__])

_INDEX_SCHEMA = StructType(
    [
        StructField("x", LongType(), False),
        StructField("v", LongType(), False),
        StructField("state", LongType(), False),
        StructField("ts", LongType(), False),
        StructField("exp", LongType(), False),
        StructField("path", ArrayType(model.PATH_EDGE_TYPE), True),
    ]
)

Node = Tuple[int, int]  # (vertex, DFA state)
Segment = Tuple[int, int, tuple]  # (ts, exp, path of (src, trg, label))


def spath_root(
    x: int,
    nodes: Dict[Node, Segment],
    delta: dict,
    steps: dict,
    start: int,
    finals: FrozenSet[int],
) -> List[tuple]:
    """Algorithm S-PATH (lines 5–14) on the spanning tree rooted at ``x``.

    ``nodes`` maps ``(v, state)`` to the root's valid Δ-PATH segment and is
    updated in place. ``delta`` and ``steps`` are ``step_index``es of the
    slide's arriving sgts and of the whole window (arrivals included), with
    edges ``(src, trg, label, ts, exp)``. Returns the final-state segments
    inserted or extended, as ``(v, state, ts, exp, path)``.

    Propagate (line 13) updates a node only when the candidate expires
    *later* than the stored segment; the stored ``ts`` is widened to the
    minimum (both are valid now) and the max-exp witness path wins. Every
    round raises some node's ``exp``, a value drawn from the window's
    expiries, so the rounds are bounded by nodes × expiries.
    """
    # Seeds (line 7) are the one-step extensions of the empty walk at x.
    cands = extend([((x, start), (-math.inf, math.inf, ()))], delta)
    cands += extend(nodes.items(), delta)
    reached = {(e[1], t) for out in steps.values() for t, e in out}
    expiries = {e[4] for out in steps.values() for _, e in out}
    results: List[tuple] = []
    for _ in range(len(reached) * len(expiries) + 1):
        best: Dict[Node, Segment] = {}
        for node, seg in cands:
            if node not in best or seg[1] > best[node][1]:
                best[node] = seg
        changed = {}
        for node, (ts, exp, path) in best.items():
            old = nodes.get(node)
            if old is None or exp > old[1]:
                changed[node] = (ts if old is None else min(old[0], ts), exp, path)
        if not changed:
            return results
        nodes.update(changed)
        results += [(*n, *seg) for n, seg in changed.items() if n[1] in finals]
        cands = extend(changed.items(), steps)
    raise RuntimeError(f"S-PATH from root {x} did not converge")


def _spath_group(x, rows, start, finals, adds, new):
    """``spath_root`` as the grouped stage's kernel: one root's index rows
    in; its new index (``w`` = 0) and the segments it emits (``w`` = 1)
    out. The emitted segments are coalesced per ``v`` (Defs. 10–11): an
    island of overlapping or adjacent intervals keeps the state and
    witness of its max-``exp`` segment."""
    nodes = {
        (v, s): (ts, exp, tuple((e["src"], e["trg"], e["label"]) for e in path))
        for v, s, ts, exp, path in zip(
            rows.v.tolist(), rows.state.tolist(), rows.ts.tolist(),
            rows.exp.tolist(), rows.path.tolist(),
        )
    }
    results = spath_root(x, nodes, adds, new, start, finals)
    out = [(*n, *seg, 0) for n, seg in nodes.items()]
    # Islands of one v are disjoint, so (v, max exp) names one island.
    last = {(v, exp): (s, path) for v, s, _, exp, path in results}
    out += [
        (v, last[v, exp][0], ts, exp, last[v, exp][1], 1)
        for v, ts, exp in coalesce_intervals((r[0], r[2], r[3]) for r in results)
    ]
    out = pd.DataFrame(out, columns=["v", "state", "ts", "exp", "path", "w"])
    out["path"] = [
        [{"src": s, "trg": t, "label": l} for s, t, l in p] for p in out.path
    ]
    return out


class SPathOp(PathOp):
    """Physical PATH operator implementing Algorithm S-PATH: the shared
    shell with direct expiry and the Δ-PATH kernel. The window is the
    window's edges ``(src, trg, label, ts, exp)``, coalesced per key."""

    PAYLOAD = ("ts", "exp")
    STATE = _INDEX_SCHEMA
    OUTPUT = model.SGT_SCHEMA
    WINDOW = list
    _kernel = staticmethod(_spath_group)

    #: The Δ-PATH index: the shell's per-root state.
    index = property(lambda self: self.state)

    #: The window's edges as an sgt DataFrame, built on access.
    edges = property(lambda self: model.sgt_df(self.spark, self.window))

    def _fold(self, rows, t_now: int):
        """Direct expiry: index entries and edges drop out by their own
        ``exp``. The kernel runs when an edge arrived."""
        arriving = coalesce_intervals(tuple(r) for r in rows)
        self.state = prune_valid(self.state, t_now)
        self.window = coalesce_intervals(
            [e for e in self.window if e[4] > t_now] + arriving
        )
        if not arriving:
            return None
        index = partial(step_index, self.dfa)
        return {"adds": index(arriving), "new": index(self.window)}
