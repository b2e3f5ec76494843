"""Streaming Graph Algebra — logical operators and batch evaluation (§5).

The SGA expression tree has five operators (Defs. 16–20): WSCAN, FILTER,
UNION, PATTERN, PATH. ``evaluate`` runs an expression over *bounded*
input graph streams and produces the full output streaming graph (all
result sgts with their validity intervals). By snapshot reducibility
(Def. 13) this is the reference semantics: the snapshot of the output at
any time ``t`` must equal the one-time query over the input snapshot at
``t`` — which is exactly what the tests check against DuckDB.

Batch PATH runs on the driver: PATH's input is collected once, indexed
by product-graph node (``step_index``), and ``pareto_root`` keeps, per
root, the Pareto set of validity intervals of the walks reaching each
node. The incremental physical operators live in ``repro.dataflow``;
this module is the ground truth they are validated against, and S-PATH
reuses its step index and its one-step extension (``extend``).
"""
from __future__ import annotations

import math
import operator
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from functools import reduce
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from pyspark import cloudpickle
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core import model
from repro.core.coalesce import coalesce_sgts
from repro.core.regex import DFA, compile_dfa

# S-PATH's grouped stage ships ``extend`` to Python workers by value, so
# the workers need not import this package.
cloudpickle.register_pickle_by_value(sys.modules[__name__])

#: A position inside a PATTERN: (input index, "src" | "trg").
Pos = Tuple[int, str]


# ---------------------------------------------------------------------------
# Expression tree
# ---------------------------------------------------------------------------
class SGANode:
    """Base class of SGA expression-tree nodes."""

    def out_label(self) -> Optional[str]:
        raise NotImplementedError

    def children_nodes(self) -> Sequence["SGANode"]:
        return ()


@dataclass
class Wscan(SGANode):
    """WSCAN (Def. 16): window an input graph stream ``source``."""

    source: str
    size: int
    slide: int = 1

    def out_label(self) -> Optional[str]:
        return self.source

    def __str__(self) -> str:
        return f"W[{self.size},{self.slide}]({self.source})"


@dataclass
class Filter(SGANode):
    """FILTER (Def. 17): ``predicate`` is a SQL boolean expression over
    the distinguished attributes ``src``, ``trg``, ``label``."""

    child: SGANode
    predicate: str

    def out_label(self) -> Optional[str]:
        return self.child.out_label()

    def children_nodes(self) -> Sequence[SGANode]:
        return (self.child,)

    def __str__(self) -> str:
        return f"σ[{self.predicate}]({self.child})"


@dataclass
class Union(SGANode):
    """UNION (Def. 18) with optional output relabeling."""

    children: List[SGANode]
    label: Optional[str] = None

    def out_label(self) -> Optional[str]:
        if self.label:
            return self.label
        labels = {c.out_label() for c in self.children}
        return labels.pop() if len(labels) == 1 else None

    def children_nodes(self) -> Sequence[SGANode]:
        return tuple(self.children)

    def __str__(self) -> str:
        body = ", ".join(str(c) for c in self.children)
        tag = f"^{self.label}" if self.label else ""
        return f"∪{tag}({body})"


@dataclass
class Pattern(SGANode):
    """PATTERN (Def. 19): n-way join on src/trg equalities ``phi``.

    ``phi`` is a list of equality terms between positions; ``src_sel`` and
    ``trg_sel`` pick the output endpoints; the result label is ``label``.
    """

    children: List[SGANode]
    phi: List[Tuple[Pos, Pos]]
    src_sel: Pos
    trg_sel: Pos
    label: str

    def out_label(self) -> Optional[str]:
        return self.label

    def children_nodes(self) -> Sequence[SGANode]:
        return tuple(self.children)

    def __str__(self) -> str:
        terms = " ∧ ".join(f"{a[1]}{a[0]}={b[1]}{b[0]}" for a, b in self.phi)
        body = ", ".join(str(c) for c in self.children)
        return (
            f"⋈[{terms}]^({self.src_sel[1]}{self.src_sel[0]},"
            f"{self.trg_sel[1]}{self.trg_sel[0]},{self.label})({body})"
        )


@dataclass
class Path(SGANode):
    """PATH (Def. 20): regular-expression path navigation with output
    label ``label``. Children provide the label streams of the regex
    alphabet. Per Def. 2, result paths have length >= 1."""

    children: List[SGANode]
    regex: str
    label: str
    _dfa: Optional[DFA] = field(default=None, repr=False, compare=False)

    def dfa(self) -> DFA:
        if self._dfa is None:
            self._dfa = compile_dfa(self.regex)
        return self._dfa

    def out_label(self) -> Optional[str]:
        return self.label

    def children_nodes(self) -> Sequence[SGANode]:
        return tuple(self.children)

    def __str__(self) -> str:
        body = ", ".join(str(c) for c in self.children)
        return f"P[{self.regex}]^{self.label}({body})"


def explain_sga(node: SGANode, indent: int = 0) -> str:
    """Multi-line plan rendering for jobs/tests."""
    pad = "  " * indent
    head = {
        Wscan: lambda n: f"WSCAN {n.source} T={n.size} β={n.slide}",
        Filter: lambda n: f"FILTER {n.predicate}",
        Union: lambda n: f"UNION -> {n.out_label()}",
        Pattern: lambda n: f"PATTERN -> {n.label}",
        Path: lambda n: f"PATH {n.regex} -> {n.label}",
    }[type(node)](node)
    lines = [pad + head]
    for c in node.children_nodes():
        lines.append(explain_sga(c, indent + 1))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Batch evaluation (reference semantics), and the PATTERN join tree and
# PATH step index that the incremental engines reuse
# ---------------------------------------------------------------------------
def join_phi(dfs: Sequence[DataFrame], phi: Sequence[Tuple[Pos, Pos]]) -> DataFrame:
    """Left-deep n-way join on the equality terms ``phi`` — the PATTERN join
    tree shared by the batch operator and both engines' incremental joins.

    Every column ``c`` of input ``i`` is renamed ``c{i}``; each term is
    attached as soon as both of its inputs are joined (a term within input
    0 filters it). Callers project the output they need.
    """
    acc = None
    for i, df in enumerate(dfs):
        df = df.select(*[F.col(c).alias(f"{c}{i}") for c in df.columns])
        conds = [
            F.col(f"{pa}{a}") == F.col(f"{pb}{b}")
            for (a, pa), (b, pb) in phi
            if max(a, b) == i
        ]
        cond = reduce(operator.and_, conds) if conds else None
        if acc is None:
            acc = df if cond is None else df.filter(cond)
        elif cond is None:
            acc = acc.crossJoin(df)
        else:
            acc = acc.join(df, on=cond, how="inner")
    return acc


def join_pattern(
    dfs: Sequence[DataFrame],
    phi: Sequence[Tuple[Pos, Pos]],
    src_sel: Pos,
    trg_sel: Pos,
    label: str,
) -> DataFrame:
    """n-way PATTERN join over sgt DataFrames — shared by the batch operator
    and the incremental symmetric join (which calls it on delta/state mixes).

    The validity-interval intersection (Def. 19) is enforced on top of
    ``join_phi``. The payload of a result is the derived edge itself, as
    in the paper's Fig. 3a. The output is not coalesced; callers coalesce
    where they need a set.
    """
    n = len(dfs)
    acc = join_phi(dfs, phi)
    ts_cols = [F.col(f"ts{i}") for i in range(n)]
    exp_cols = [F.col(f"exp{i}") for i in range(n)]
    src_c = F.col(f"{src_sel[1]}{src_sel[0]}")
    trg_c = F.col(f"{trg_sel[1]}{trg_sel[0]}")
    out = (
        acc.withColumn("ts", F.greatest(*ts_cols) if n > 1 else ts_cols[0])
        .withColumn("exp", F.least(*exp_cols) if n > 1 else exp_cols[0])
        .filter(F.col("ts") < F.col("exp"))
        .select(
            src_c.alias("src"),
            trg_c.alias("trg"),
            F.lit(label).alias("label"),
            "ts",
            "exp",
            F.array(
                F.struct(
                    src_c.alias("src"), trg_c.alias("trg"), F.lit(label).alias("label")
                )
            ).alias("path"),
        )
    )
    return out


def step_index(dfa: DFA, edges: Iterable[tuple]) -> Dict[Tuple[int, int], list]:
    """The product graph's steps by node, built on the driver for the
    per-root PATH kernels (batch PATH's and both engines'): ``(vertex,
    state)`` maps to the ``(next state, edge)`` pairs leaving it, one per
    edge out of ``vertex`` whose label has a transition from ``state`` in
    ``dfa.table()``.

    ``edges`` are tuples ``(src, trg, label, ...)``; whatever follows the
    label (S-PATH's ``ts, exp``) rides along in ``edge``.
    """
    moves = defaultdict(list)
    for s, l, t in dfa.table():
        moves[l].append((s, t))
    index = defaultdict(list)
    for e in edges:
        for s, t in moves.get(e[2], ()):
            index[(e[0], s)].append((t, e))
    return dict(index)


def extend(segments, steps) -> List[tuple]:
    """One product-graph step of PATH (Def. 20), shared by the batch
    kernel and S-PATH: extend each ``(node, (ts, exp, path))`` segment by
    every step of ``steps`` (a ``step_index``) leaving its node,
    intersecting the intervals and dropping segments whose interval is
    empty."""
    out = []
    for node, (ts, exp, path) in segments:
        for t, e in steps.get(node, ()):
            lo, hi = max(ts, e[3]), min(exp, e[4])
            if lo < hi:
                out.append(((e[1], t), (lo, hi, path + (e[:3],))))
    return out


def pareto_root(x: int, steps: dict, start: int) -> Dict[tuple, List[tuple]]:
    """Batch PATH from root ``x``: each product-graph node ``(v, state)``
    reached from ``(x, start)`` in one step or more maps to the Pareto set
    of the intervals ``[ts, exp)`` of the walks reaching it (no interval
    inside another), as segments ``(ts, exp, path)`` with a witness walk.

    ``steps`` is the ``step_index`` of PATH's input, with edges
    ``(src, trg, label, ts, exp)``. Each round extends only the segments
    admitted in the previous one, in ``(ts asc, exp desc)`` order, so a
    candidate is admitted iff no stored interval of its node contains it,
    and then evicts the intervals it contains. Dominated walks cannot add
    to any snapshot that their dominator does not cover. A walk that
    visits a product-graph node twice is dominated by the walk without the
    cycle, so round *k* admits only walks of *k* distinct steps, and the
    number of steps bounds the rounds.
    """
    front: Dict[tuple, List[tuple]] = defaultdict(list)
    admitted = [((x, start), (-math.inf, math.inf, ()))]
    bound = sum(map(len, steps.values())) + 1
    for _ in range(bound):
        cands = sorted(extend(admitted, steps), key=lambda c: (c[1][0], -c[1][1]))
        admitted = []
        for node, (ts, exp, path) in cands:
            segs = front[node]
            if any(s[0] <= ts and exp <= s[1] for s in segs):
                continue
            segs[:] = [s for s in segs if not (ts <= s[0] and s[1] <= exp)]
            segs.append((ts, exp, path))
            admitted.append((node, (ts, exp, path)))
        if not admitted:
            return dict(front)
    raise RuntimeError(f"PATH from root {x} did not converge in {bound} rounds")


def path_fixpoint(edges: DataFrame, dfa: DFA, label: str) -> DataFrame:
    """Batch PATH: PATH's input collected once and indexed by product-graph
    node (``step_index``), ``pareto_root`` on the driver from every source
    of a step out of the DFA's start state, and its final-state segments
    as sgts, coalesced."""
    rows = edges.select("src", "trg", "label", "ts", "exp").collect()
    steps = step_index(dfa, (tuple(r) for r in rows))
    out = [
        (x, v, label, ts, exp, list(path))
        for x, s in steps
        if s == dfa.start
        for (v, state), segs in pareto_root(x, steps, dfa.start).items()
        if state in dfa.finals
        for ts, exp, path in segs
    ]
    return coalesce_sgts(model.sgt_df(edges.sparkSession, out))


def evaluate(node: SGANode, sources: Dict[str, DataFrame]) -> DataFrame:
    """Evaluate an SGA expression over bounded input graph streams.

    ``sources`` maps each EDB label to its input graph stream (sge schema).
    Returns the output streaming graph (sgt schema).
    """
    if isinstance(node, Wscan):
        if node.source not in sources:
            raise KeyError(f"no input stream for label {node.source!r}")
        return model.wscan(sources[node.source], node.size, node.slide)
    if isinstance(node, Filter):
        return evaluate(node.child, sources).filter(node.predicate)
    if isinstance(node, Union):
        dfs = [evaluate(c, sources) for c in node.children]
        out = dfs[0]
        for d in dfs[1:]:
            out = out.unionByName(d)
        if node.label:
            out = out.withColumn("label", F.lit(node.label))
        return coalesce_sgts(out)
    if isinstance(node, Pattern):
        dfs = [evaluate(c, sources) for c in node.children]
        return coalesce_sgts(
            join_pattern(dfs, node.phi, node.src_sel, node.trg_sel, node.label)
        )
    if isinstance(node, Path):
        dfs = [evaluate(c, sources) for c in node.children]
        edges = dfs[0]
        for d in dfs[1:]:
            edges = edges.unionByName(d)
        return path_fixpoint(edges, node.dfa(), node.label)
    raise TypeError(f"unknown SGA node {node!r}")
