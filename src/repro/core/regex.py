"""Regular expressions over edge labels → DFA (paper Def. 20, §6.2).

PATH constrains path labels with a regular expression over the label
alphabet. ``S-PATH`` and the batch PATH operator both evaluate against a
DFA compiled here: regex text → AST → Thompson NFA → subset-construction
DFA (with unreachable/dead states removed).

Grammar (labels are identifiers; ``.`` or juxtaposition is concatenation)::

    expr   := term ('|' term)*
    term   := factor+
    factor := atom ('*' | '+')*
    atom   := LABEL | '(' expr ')'

The empty word is representable (e.g. ``a*`` accepts ε) but PATH results
are always paths of length >= 1 (Def. 2 paths are non-empty edge
sequences; S-PATH only emits on edge insertion), so callers ignore
whether the DFA start state is accepting.
"""
from __future__ import annotations

import re as _re
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set, Tuple


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------
class Regex:
    """Base class for regex AST nodes."""

    def labels(self) -> Set[str]:
        raise NotImplementedError


@dataclass(frozen=True)
class Label(Regex):
    name: str

    def labels(self) -> Set[str]:
        return {self.name}

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Concat(Regex):
    left: Regex
    right: Regex

    def labels(self) -> Set[str]:
        return self.left.labels() | self.right.labels()

    def __str__(self) -> str:
        return f"({self.left} . {self.right})"


@dataclass(frozen=True)
class Alt(Regex):
    left: Regex
    right: Regex

    def labels(self) -> Set[str]:
        return self.left.labels() | self.right.labels()

    def __str__(self) -> str:
        return f"({self.left} | {self.right})"


@dataclass(frozen=True)
class Star(Regex):
    inner: Regex

    def labels(self) -> Set[str]:
        return self.inner.labels()

    def __str__(self) -> str:
        return f"({self.inner})*"


@dataclass(frozen=True)
class Plus(Regex):
    inner: Regex

    def labels(self) -> Set[str]:
        return self.inner.labels()

    def __str__(self) -> str:
        return f"({self.inner})+"


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------
_TOKEN = _re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|[().|*+])")


def _tokenize(text: str) -> List[str]:
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"bad regex token at {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: List[str]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> str | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> str:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse_expr(self) -> Regex:
        node = self.parse_term()
        while self.peek() == "|":
            self.next()
            node = Alt(node, self.parse_term())
        return node

    def parse_term(self) -> Regex:
        node = self.parse_factor()
        while True:
            tok = self.peek()
            if tok == ".":
                self.next()
                node = Concat(node, self.parse_factor())
            elif tok is not None and (tok == "(" or tok[0].isalpha() or tok[0] == "_"):
                node = Concat(node, self.parse_factor())
            else:
                return node

    def parse_factor(self) -> Regex:
        node = self.parse_atom()
        while self.peek() in ("*", "+"):
            node = Star(node) if self.next() == "*" else Plus(node)
        return node

    def parse_atom(self) -> Regex:
        tok = self.peek()
        if tok == "(":
            self.next()
            node = self.parse_expr()
            if self.peek() != ")":
                raise ValueError("unbalanced parenthesis in regex")
            self.next()
            return node
        if tok is None or tok in (")", "|", "*", "+", "."):
            raise ValueError(f"unexpected token {tok!r} in regex")
        return Label(self.next())


def parse_regex(text: str) -> Regex:
    """Parse regex text into an AST."""
    p = _Parser(_tokenize(text))
    node = p.parse_expr()
    if p.peek() is not None:
        raise ValueError(f"trailing regex tokens: {p.tokens[p.i:]}")
    return node


# ---------------------------------------------------------------------------
# Thompson NFA → DFA
# ---------------------------------------------------------------------------
class _NFA:
    """ε-NFA fragment under construction (Thompson)."""

    def __init__(self) -> None:
        self.n = 0
        self.eps: Dict[int, Set[int]] = {}
        self.trans: Dict[Tuple[int, str], Set[int]] = {}

    def new_state(self) -> int:
        self.n += 1
        return self.n - 1

    def add_eps(self, a: int, b: int) -> None:
        self.eps.setdefault(a, set()).add(b)

    def add(self, a: int, label: str, b: int) -> None:
        self.trans.setdefault((a, label), set()).add(b)


def _build(nfa: _NFA, node: Regex) -> Tuple[int, int]:
    if isinstance(node, Label):
        a, b = nfa.new_state(), nfa.new_state()
        nfa.add(a, node.name, b)
        return a, b
    if isinstance(node, Concat):
        a1, b1 = _build(nfa, node.left)
        a2, b2 = _build(nfa, node.right)
        nfa.add_eps(b1, a2)
        return a1, b2
    if isinstance(node, Alt):
        a, b = nfa.new_state(), nfa.new_state()
        a1, b1 = _build(nfa, node.left)
        a2, b2 = _build(nfa, node.right)
        nfa.add_eps(a, a1)
        nfa.add_eps(a, a2)
        nfa.add_eps(b1, b)
        nfa.add_eps(b2, b)
        return a, b
    if isinstance(node, Star):
        a, b = nfa.new_state(), nfa.new_state()
        a1, b1 = _build(nfa, node.inner)
        nfa.add_eps(a, a1)
        nfa.add_eps(a, b)
        nfa.add_eps(b1, a1)
        nfa.add_eps(b1, b)
        return a, b
    if isinstance(node, Plus):
        a, b = nfa.new_state(), nfa.new_state()
        a1, b1 = _build(nfa, node.inner)
        nfa.add_eps(a, a1)
        nfa.add_eps(b1, a1)
        nfa.add_eps(b1, b)
        return a, b
    raise TypeError(f"unknown regex node {node!r}")


def _eps_closure(nfa: _NFA, states: FrozenSet[int]) -> FrozenSet[int]:
    stack, seen = list(states), set(states)
    while stack:
        s = stack.pop()
        for t in nfa.eps.get(s, ()):
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return frozenset(seen)


@dataclass(frozen=True)
class DFA:
    """Deterministic finite automaton over edge labels.

    ``transitions`` maps ``(state, label) -> state``; state 0 is the start
    state. Dead states (states from which no accepting state is reachable)
    are removed, so every listed transition is on a live path.
    """

    transitions: Tuple[Tuple[int, str, int], ...]
    finals: FrozenSet[int]
    n_states: int

    @property
    def start(self) -> int:
        return 0

    def delta(self) -> Dict[Tuple[int, str], int]:
        return {(s, l): t for s, l, t in self.transitions}

    def labels(self) -> Set[str]:
        return {l for _, l, _ in self.transitions}

    def accepts(self, word: List[str]) -> bool:
        d = self.delta()
        s = 0
        for l in word:
            nxt = d.get((s, l))
            if nxt is None:
                return False
            s = nxt
        return s in self.finals

    def table(self) -> List[Tuple[int, str, int]]:
        """Transition table rows ``(state, label, next_state)`` — consumed by
        ``algebra.step_index`` and the DuckDB oracle SQL generator."""
        return list(self.transitions)


def compile_dfa(regex: str | Regex) -> DFA:
    """Compile a regex (text or AST) to a minimal-ish DFA.

    Subset construction followed by removal of states that cannot reach an
    accepting state. (Full Hopcroft minimization is unnecessary — query
    regexes are tiny.)
    """
    node = parse_regex(regex) if isinstance(regex, str) else regex
    nfa = _NFA()
    start, accept = _build(nfa, node)
    alphabet = sorted(node.labels())

    init = _eps_closure(nfa, frozenset([start]))
    ids: Dict[FrozenSet[int], int] = {init: 0}
    work = [init]
    trans: List[Tuple[int, str, int]] = []
    while work:
        cur = work.pop()
        cid = ids[cur]
        for l in alphabet:
            nxt = set()
            for s in cur:
                nxt |= nfa.trans.get((s, l), set())
            if not nxt:
                continue
            closed = _eps_closure(nfa, frozenset(nxt))
            if closed not in ids:
                ids[closed] = len(ids)
                work.append(closed)
            trans.append((cid, l, ids[closed]))

    finals = {ids[s] for s in ids if accept in s}

    # Drop dead states: states from which no final state is reachable.
    rev: Dict[int, Set[int]] = {}
    for s, _, t in trans:
        rev.setdefault(t, set()).add(s)
    live: Set[int] = set(finals)
    stack = list(finals)
    while stack:
        s = stack.pop()
        for p in rev.get(s, ()):
            if p not in live:
                live.add(p)
                stack.append(p)
    live.add(0)  # keep the start state even if the language is empty
    kept = sorted(live)
    remap = {s: i for i, s in enumerate(kept)}
    trans2 = tuple(
        (remap[s], l, remap[t]) for s, l, t in trans if s in live and t in live
    )
    finals2 = frozenset(remap[s] for s in finals)
    return DFA(transitions=trans2, finals=finals2, n_states=len(kept))
