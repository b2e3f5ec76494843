"""Benchmark input: the fixed-geometry SO Q8 stream and the DuckDB oracle.

A workload is one engine mode; a run replays one stream, SO Q8 (a2q
self-join, users answering one question, then its transitive closure):
one plan with every layer of both engines (sources, UNION, PATTERN,
PATH, DD's distincts and the sink).

The stream comes from ``repro.streams.so_stream``. That generator draws
timestamps at random, so the number of edges per slide would vary with
the seed, and it grows its vertex set with the stream length. Both
would change the work per slide between seeds or run lengths.
``make_stream`` therefore fixes the vertex count, draws each slide from
its own generator call, and re-times the drawn rows, in their drawn
order, so that every slide holds exactly ``RATE`` a2q edges. Rows with
other labels keep their place between them. Slide k is the same
however many slides a run replays.

On a PATH query the work per slide also follows the graph's shape: the
fixpoint runs as many rounds as the longest new path, and each round
costs Spark jobs; with the shape drawn from the seed, two seeds' timed
slides differed by up to 1.85x. The benchmark therefore keeps the shape
and lets the seed choose vertex names and arrival order.

Sizing: on a 4-core machine Spark starts in about 10 s, a Spark job
costs about 0.15 s, and the first slide, which warms the JVM, takes
20-35 s. To keep a run near a minute, a run measures one engine and
one timed slide, and the window holds two slides.
"""
from __future__ import annotations

import hashlib
from typing import Dict, List, Set

import duckdb
import numpy as np
import pandas as pd

from repro.core.duck_oracle import sga_snapshot_sql
from repro.streams import so_stream

#: Slide interval β and window |W| = 2β: from the third slide on, each
#: slide inserts its edges, expires those of the slide two back and keeps
#: those of the slide before, so derivations both expire and survive. The
#: window first fills after ``FILL_SLIDES`` slides.
BETA = 4
WINDOW = 2 * BETA
FILL_SLIDES = WINDOW // BETA

#: The stream: Table 1 query and dataset, the labels the query reads,
#: a2q edges per slide and SO vertices (fixed however long the stream).
NAME = "so-q8"
DATASET = "so"
QUERY = "Q8"
LABELS = ("a2q",)
RATE = 8
VERTICES = 10
#: Nominal seconds of one timed slide, either engine; sets the number of
#: timed slides a ``--seconds`` buys.
SLIDE_COST_S = 12.0

#: Generator seed of the stream's shape: slide k is drawn at
#: ``SHAPE_SEED + k``; see ``make_stream``.
SHAPE_SEED = 1

#: The workloads: one per engine mode, each replaying the stream.
WORKLOADS: Dict[str, str] = {
    "sga": "direct engine (symmetric join, S-PATH) on SO Q8, a PATTERN "
    "feeding a PATH; bypasses DD's distinct and DRed",
    "dd": "negative-tuple engine (weighted deltas, DRed) on the same seeded "
    "stream; bypasses S-PATH and the symmetric join",
}


def _draw_slide(k: int) -> pd.DataFrame:
    """Slide k's rows, up to and including its ``RATE``-th a2q edge, with
    each row's index among the a2q edges in ``idx`` (rows of other labels
    take the index of the a2q edge after them)."""
    n = RATE * 3
    while True:
        df = so_stream(n_edges=n, n_vertices=VERTICES, t_span=1000,
                       seed=SHAPE_SEED + k)
        rel = df.label.isin(LABELS).to_numpy()
        if int(rel.sum()) >= RATE:
            break
        n *= 2
    before = np.cumsum(rel) - rel  # a2q rows strictly before each row
    keep = before < RATE
    return df[keep].assign(idx=before[keep]).reset_index(drop=True)


def make_stream(seed: int, n_slides: int) -> pd.DataFrame:
    """A stream of ``n_slides`` slides, each with exactly ``RATE`` a2q
    edges, as a ``src, trg, label, ts`` pandas frame.

    The graph's shape comes from the generator at ``SHAPE_SEED``; ``seed``
    renames the vertices and orders the edges within each slide. Every
    seed thus replays the same amount of work (fixpoint depths, deltas,
    Spark jobs) on different keys, partitions and arrival orders.
    """
    df = pd.concat(
        [_draw_slide(k).assign(slide=k) for k in range(n_slides)],
        ignore_index=True,
    )
    ts = df.slide.to_numpy() * BETA + df.idx.to_numpy() * BETA // RATE

    g = np.random.default_rng(seed)
    names = g.permutation(VERTICES) + 1  # vertex ids are 1..VERTICES
    order = np.lexsort((g.random(len(df)), ts // BETA))
    out = df.iloc[order][["src", "trg", "label"]].reset_index(drop=True)
    out["src"] = names[out.src.to_numpy() - 1]
    out["trg"] = names[out.trg.to_numpy() - 1]
    out["ts"] = ts.astype("int64")  # times stay sorted; edges move
    return out


def stream_digest(df: pd.DataFrame) -> str:
    """Content digest of a stream, to show two runs replayed one input."""
    h = pd.util.hash_pandas_object(df, index=False).to_numpy()
    return hashlib.sha256(h.tobytes()).hexdigest()[:16]


def edges_per_slide(df: pd.DataFrame) -> List[int]:
    rel = df[df.label.isin(LABELS)]
    return rel.groupby(rel.ts // BETA).size().tolist()


def oracle_answers(plan, df: pd.DataFrame, times: List[int]) -> List[Set[tuple]]:
    """Distinct ``(src, trg)`` answers of the one-time query over the window
    snapshot at each time (snapshot reducibility, Def. 13)."""
    con = duckdb.connect()
    try:
        con.register("stream", df)
        out = []
        for t in times:
            sql = f"SELECT DISTINCT src, trg FROM ({sga_snapshot_sql(plan, t)})"
            out.append({(int(a), int(b)) for a, b in con.execute(sql).fetchall()})
        return out
    finally:
        con.close()
