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

States and output are bags: the same sgt may sit in a state twice, and a
match found through both copies is emitted twice, each with its own
interval. Neither changes a snapshot (Def. 12), so the join makes no set;
every consumer that needs one makes it (S-PATH's driver-side
``coalesce_intervals``, DD's ``distinct`` and the sinks). Inputs that are
the same operator (a self-join) share one delta and one state.

``MultiJoinOp`` is also the negative-tuple baseline's join shell:
``negtuple.DDJoinOp`` overrides only the hooks where expiry handling
differs (empty state, expiry, state consolidation, per-term projection).
"""
from __future__ import annotations

from typing import List, Sequence, Tuple

from pyspark.sql import DataFrame, SparkSession

from repro.core import model
from repro.core.algebra import Pos, join_pattern
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
        empty = {id(c): self._empty() for c in self.children}
        self.states: List[DataFrame] = [empty[id(c)] for c in self.children]

    # -- the hooks where expiry handling differs ----------------------------
    def _empty(self) -> DataFrame:
        return model.empty_sgt(self.spark)

    def _expire(self, state: DataFrame, t_now: int) -> DataFrame:
        """Direct expiration: expired sgts are located by their ``exp``."""
        return prune_valid(state, t_now)

    def _consolidate(self, state: DataFrame) -> DataFrame:
        """Prepare an updated state for its checkpoint: expiry is
        ``_expire``'s ``prune_valid``, so only the partitions that unions
        accumulate slide over slide are merged, to keep task scheduling
        flat."""
        return state.coalesce(4)

    def _term(self, inputs: List[DataFrame]) -> DataFrame:
        """One telescoping term: PATTERN with interval intersection."""
        return join_pattern(inputs, self.phi, self.src_sel, self.trg_sel, self.label)

    def _on_slide(self, t_now: int) -> DataFrame:
        # A self-join repeats a child: its delta and state are kept once.
        keys = [id(c) for c in self.children]
        deltas, empty = {}, {}
        for k, c in zip(keys, self.children):
            if k not in deltas:
                deltas[k] = c.process(t_now).localCheckpoint(eager=True)
                empty[k] = deltas[k].isEmpty()
        old = {k: self._expire(s, t_now) for k, s in zip(keys, self.states)}
        new = {k: o if empty[k] else o.unionByName(deltas[k]) for k, o in old.items()}

        out = self._empty()
        for i, k in enumerate(keys):
            if empty[k]:
                continue
            inputs = [
                new[kj] if j < i else (deltas[kj] if j == i else old[kj])
                for j, kj in enumerate(keys)
            ]
            out = out.unionByName(self._term(inputs))

        # Persist the updated hash tables. A state without a delta is the
        # previous one less its expired rows: it needs no consolidation.
        state = {
            k: (s if empty[k] else self._consolidate(s)).localCheckpoint(eager=True)
            for k, s in new.items()
        }
        self.states = [state[k] for k in keys]
        return out
