"""Incremental PATTERN: n-way symmetric hash join, *direct* approach (§6.1).

A hash table (here: a state DataFrame) is kept per input stream; when a
slide delivers new sgts on input *i*, they are joined against the other
inputs' states to produce exactly the new matches. The standard
telescoping expansion counts each match once:

    Δout = Σ_i  (S₁ⁿᵉʷ … Sᵢ₋₁ⁿᵉʷ) ⋈ ΔSᵢ ⋈ (Sᵢ₊₁ᵒˡᵈ … Sₙᵒˡᵈ)

Expirations need no processing at all: every result sgt carries
``exp = min`` of its constituents' expiries (Def. 19), so results
expire by themselves — the *internal window* behaviour the paper
describes, with external-window eviction available by timestamp.

``MultiJoinOp`` is also the negative-tuple baseline's join shell:
``negtuple.DDJoinOp`` overrides only the hooks where expiry handling
differs (empty state, expiry, consolidation, per-term projection).
"""
from __future__ import annotations

from typing import List, Sequence, Tuple

from pyspark.sql import DataFrame, SparkSession

from repro.core import model
from repro.core.algebra import Pos, join_pattern
from repro.core.coalesce import coalesce_sgts
from repro.dataflow.operators import PhysOp, prune_valid


class MultiJoinOp(PhysOp):
    """Symmetric-hash-join implementation of PATTERN (direct approach)."""

    def __init__(
        self,
        spark: SparkSession,
        children: Sequence[PhysOp],
        phi: List[Tuple[Pos, Pos]],
        src_sel: Pos,
        trg_sel: Pos,
        label: str,
    ):
        super().__init__(spark)
        self.children = list(children)
        self.phi = phi
        self.src_sel = src_sel
        self.trg_sel = trg_sel
        self.label = label
        self.states: List[DataFrame] = [self._empty() for _ in self.children]

    # -- the hooks where expiry handling differs ----------------------------
    def _empty(self) -> DataFrame:
        return model.empty_sgt(self.spark)

    def _expire(self, state: DataFrame, t_now: int) -> DataFrame:
        """Direct expiration: expired sgts are located by their ``exp``."""
        return prune_valid(state, t_now)

    def _consolidate(self, df: DataFrame) -> DataFrame:
        """Keep state and output set-semantic."""
        return coalesce_sgts(df)

    def _term(self, inputs: List[DataFrame]) -> DataFrame:
        """One telescoping term: PATTERN with interval intersection."""
        return join_pattern(inputs, self.phi, self.src_sel, self.trg_sel, self.label)

    def _on_slide(self, t_now: int) -> DataFrame:
        n = len(self.children)
        # A self-join repeats a child: checkpoint its delta once.
        seen = {}
        for c in self.children:
            if id(c) not in seen:
                d = c.process(t_now).localCheckpoint(eager=True)
                seen[id(c)] = (d, d.isEmpty())
        deltas, empty = zip(*(seen[id(c)] for c in self.children))
        old = [self._expire(s, t_now) for s in self.states]
        new = [
            o if empty[i] else o.unionByName(deltas[i]) for i, o in enumerate(old)
        ]

        out = self._empty()
        for i in range(n):
            if empty[i]:
                continue
            inputs = [
                new[j] if j < i else (deltas[j] if j == i else old[j])
                for j in range(n)
            ]
            out = out.unionByName(self._term(inputs))

        # Persist the updated hash tables. A state without a delta is the
        # previous (consolidated) state less its expired rows: still
        # consolidated.
        self.states = [
            (s if empty[i] else self._consolidate(s)).localCheckpoint(eager=True)
            for i, s in enumerate(new)
        ]
        return self._consolidate(out)
