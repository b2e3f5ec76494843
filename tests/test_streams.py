"""Dataset-substitute generators: schema + the structural properties the
paper's analysis depends on (see DESIGN.md §3)."""
import pandas as pd
import pytest

from repro.streams import LDBC_LABELS, SO_LABELS, ldbc_stream, random_stream, so_stream


@pytest.fixture(scope="module")
def so():
    return so_stream(n_edges=2000, t_span=40, seed=1)


@pytest.fixture(scope="module")
def ldbc():
    return ldbc_stream(n_persons=60, n_messages=400, t_span=40, seed=1)


@pytest.mark.parametrize("gen", [so_stream, random_stream])
def test_schema_and_order(gen):
    kwargs = {"n_edges": 100, "t_span": 10, "seed": 0}
    if gen is random_stream:
        kwargs["n_vertices"] = 10
    df = gen(**kwargs)
    assert list(df.columns) == ["src", "trg", "label", "ts"]
    assert (df.ts.values[1:] >= df.ts.values[:-1]).all(), "must be ts-ordered"
    assert df.src.dtype == df.trg.dtype == df.ts.dtype == "int64"


def test_so_labels_and_density(so):
    assert set(so.label.unique()) <= set(SO_LABELS)
    n_vertices = len(set(so.src) | set(so.trg))
    assert len(so) / n_vertices > 10, "SO substitute must be dense"


def test_so_is_skewed(so):
    deg = so.src.value_counts()
    assert deg.iloc[0] > 10 * deg.median(), "hub vertices required (Zipf skew)"


def test_so_no_self_loops(so):
    assert (so.src != so.trg).all()


def test_so_deterministic():
    a = so_stream(n_edges=200, t_span=10, seed=5)
    b = so_stream(n_edges=200, t_span=10, seed=5)
    pd.testing.assert_frame_equal(a, b)


def test_so_is_cyclic(so):
    """Many 2-cycles (u→v and v→u both present) — 'highly cyclic'."""
    pairs = set(zip(so.src, so.trg))
    n_mutual = sum((b, a) in pairs for a, b in pairs)
    assert n_mutual > 20


def test_ldbc_schema_and_labels(ldbc):
    assert list(ldbc.columns) == ["src", "trg", "label", "ts"]
    assert set(ldbc.label.unique()) == set(LDBC_LABELS)
    assert (ldbc.ts.values[1:] >= ldbc.ts.values[:-1]).all()


def test_ldbc_replyof_is_forest(ldbc):
    """Every message replies to at most one (earlier) message — at most one
    replyOf-path between any pair (the paper's LDBC tree-shape)."""
    reply = ldbc[ldbc.label == "replyOf"]
    assert reply.src.is_unique, "a message replies at most once"
    assert (reply.src > reply.trg).all(), "replies point to earlier messages"


def test_ldbc_hascreator_unique(ldbc):
    hc = ldbc[ldbc.label == "hasCreator"]
    assert hc.src.is_unique, "each message has exactly one creator"


def test_ldbc_id_spaces_disjoint(ldbc):
    n_persons = 60
    persons = set(ldbc[ldbc.label == "knows"].src) | set(
        ldbc[ldbc.label == "knows"].trg
    )
    messages = set(ldbc[ldbc.label == "hasCreator"].src)
    assert persons <= set(range(1, n_persons + 1))
    assert min(messages) > n_persons


def test_ldbc_likes_after_creation(ldbc):
    hc = ldbc[ldbc.label == "hasCreator"].set_index("src").ts
    likes = ldbc[ldbc.label == "likes"]
    assert (likes.ts.values >= hc.loc[likes.trg].values).all()


def test_ldbc_deterministic():
    a = ldbc_stream(n_persons=20, n_messages=50, seed=3)
    b = ldbc_stream(n_persons=20, n_messages=50, seed=3)
    pd.testing.assert_frame_equal(a, b)

