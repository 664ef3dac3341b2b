"""S-stem analyzer chain: vectorized/scalar twin parity, build+query
round-trip, lifecycle contracts (ADD deltas, merge refusal, federation
refusal). Analyzer analog of the reference's fixed residue-descriptor
quantization: the index and the query MUST run one tokenization contract
(ResidueGraph.java descriptor binning is baked into both sides there)."""

import numpy as np
import pyarrow as pa
import pytest

from engine.tokenize import (
    analyze_text,
    s_stem_array,
    s_stem_token,
    tokenize_batch,
)

# token -> expected stem, covering every branch + every exception
STEM_CASES = {
    "tables": "table",      # plain -s drop (branch 3)
    "queries": "query",     # -ies -> -y (branch 1)
    "eies": "eies",         # protected suffix — terminal, no fall-through
    "aies": "aies",         # protected suffix — terminal, no fall-through
    "merges": "merge",      # -es: drop only the s (branch 2)
    "aes": "aes",           # branch-2 exception
    "sees": "sees",         # -ees exception
    "goes": "goes",         # -oes exception
    "bus": "bus",           # -us exception
    "pass": "pass",         # -ss exception
    "s": "s",               # bare token: total stem, never empty
    "cat": "cat",           # no suffix
    "as": "a",              # 2-char -s drop
}


def test_s_stem_scalar_branches():
    for tok, want in STEM_CASES.items():
        assert s_stem_token(tok) == want, tok


def test_s_stem_array_matches_scalar():
    toks = sorted(STEM_CASES)
    arr = s_stem_array(pa.array(toks, pa.string()))
    assert arr.to_pylist() == [s_stem_token(t) for t in toks]


def test_s_stem_is_total():
    # the stem never produces an empty token, so dl is analyzer-invariant
    for tok in list(STEM_CASES) + ["ss", "us", "es", "ies"]:
        assert s_stem_token(tok) != ""


def test_analyze_text_chains_and_validates():
    assert analyze_text("Tables & queries!", "s_stem") == ["table", "query"]
    assert analyze_text("Tables & queries!", "standard") == ["tables", "queries"]
    with pytest.raises(ValueError):
        analyze_text("x", "porter")


def test_tokenize_batch_stem_merges_tf():
    t = pa.table(
        {
            "doc_id": pa.array([1], pa.int64()),
            "text": ["table tables queries query s"],
        }
    )
    out = tokenize_batch(t, analyzer="s_stem")
    rows = {r["term"]: (r["tf"], r["dl"]) for r in out.to_pylist()}
    # surface forms merged, dl still counts all 5 raw tokens
    assert rows == {"table": (2, 5), "query": (2, 5), "s": (1, 5)}


def test_tokenize_batch_stem_positions_keep_raw_offsets():
    t = pa.table(
        {"doc_id": pa.array([1], pa.int64()), "text": ["tables x table"]}
    )
    out = tokenize_batch(t, analyzer="s_stem", positions=True)
    rows = {r["term"]: r["pos"] for r in out.to_pylist()}
    assert rows["table"] == [0, 2]  # both occurrences, original offsets
    assert rows["x"] == [1]


@pytest.fixture(scope="module")
def stem_index(ray_session, tmp_path_factory):
    import ray.data

    from engine.build import build_index

    docs = pa.table(
        {
            "doc_id": pa.array(range(6), pa.int64()),
            "text": [
                "tables hold rows",
                "a table holds a row",
                "queries scan tables",
                "query planner",
                "no match here",
                "bus pass grass",  # -us/-ss exceptions stay distinct terms
            ],
        }
    )
    idx = str(tmp_path_factory.mktemp("stem") / "idx")
    build_index(
        ray.data.from_arrow(docs), idx, id_col="doc_id", n_buckets=2,
        n_salts=1, analyzer="s_stem", store_text=True,
    )
    return idx


def test_stemmed_index_query_roundtrip(stem_index):
    from engine.query import Bm25Index

    bm = Bm25Index(stem_index)
    assert bm.analyzer == "s_stem"
    # plural query reaches singular docs and vice versa
    d_plural, _ = bm.topk("tables", k=10)
    d_singular, _ = bm.topk("table", k=10)
    assert sorted(d_plural.tolist()) == sorted(d_singular.tolist()) == [0, 1, 2]
    d_q, _ = bm.topk("queries", k=10)
    assert sorted(d_q.tolist()) == [2, 3]
    # exception tokens did NOT merge with their stems
    d_bus, _ = bm.topk("bus", k=10)
    assert d_bus.tolist() == [5]
    assert len(bm.topk("bu", k=10)[0]) == 0


def test_stemmed_boolean_and_phrase(stem_index):
    from engine.query import Bm25Index

    bm = Bm25Index(stem_index)
    d, _ = bm.boolean_topk("tables AND rows", k=10)
    assert sorted(d.tolist()) == [0, 1]
    d, _ = bm.boolean_topk("tables AND NOT rows", k=10)
    assert sorted(d.tolist()) == [2]


def test_stemmed_add_delta_uses_index_analyzer(ray_session, tmp_path):
    import ray.data

    from engine.build import build_index
    from engine.query import Bm25Index
    from engine.update import add_documents

    base = pa.table(
        {"doc_id": pa.array([0, 1], pa.int64()),
         "text": ["tables here", "other doc"]}
    )
    idx = str(tmp_path / "idx")
    build_index(ray.data.from_arrow(base), idx, id_col="doc_id",
                n_buckets=2, n_salts=1, analyzer="s_stem")
    delta = pa.table(
        {"doc_id": pa.array([2], pa.int64()), "text": ["more tables arrive"]}
    )
    add_documents(idx, ray.data.from_arrow(delta), id_col="doc_id")
    bm = Bm25Index(idx)
    d, _ = bm.topk("table", k=10)  # singular finds the STEMMED delta doc
    assert sorted(d.tolist()) == [0, 2]


def test_merge_refuses_analyzer_mismatch(ray_session, tmp_path):
    import ray.data

    from engine.build import build_index
    from engine.update import merge_indexes

    a = pa.table({"doc_id": pa.array([0], pa.int64()), "text": ["tables"]})
    b = pa.table({"doc_id": pa.array([1], pa.int64()), "text": ["tables"]})
    ia, ib = str(tmp_path / "a"), str(tmp_path / "b")
    build_index(ray.data.from_arrow(a), ia, id_col="doc_id", n_buckets=2,
                n_salts=1, analyzer="s_stem")
    build_index(ray.data.from_arrow(b), ib, id_col="doc_id", n_buckets=2,
                n_salts=1, analyzer="standard")
    with pytest.raises(ValueError, match="analyzer"):
        merge_indexes(ia, ib)


def test_federation_refuses_analyzer_mismatch(ray_session, tmp_path):
    import ray.data

    from engine.build import build_index
    from engine.federate import Federation

    a = pa.table({"doc_id": pa.array([0], pa.int64()), "text": ["tables"]})
    b = pa.table({"doc_id": pa.array([1], pa.int64()), "text": ["tables"]})
    ia, ib = str(tmp_path / "a"), str(tmp_path / "b")
    build_index(ray.data.from_arrow(a), ia, id_col="doc_id", n_buckets=2,
                n_salts=1, analyzer="s_stem")
    build_index(ray.data.from_arrow(b), ib, id_col="doc_id", n_buckets=2,
                n_salts=1, analyzer="standard")
    with pytest.raises(ValueError, match="analyzer"):
        Federation([ia, ib])


def test_resume_refuses_analyzer_flip(ray_session, tmp_path):
    import ray.data

    from engine.build import build_index

    docs = pa.table(
        {"doc_id": pa.array([0, 1], pa.int64()), "text": ["tables", "rows"]}
    )
    idx = str(tmp_path / "idx")
    build_index(ray.data.from_arrow(docs), idx, id_col="doc_id",
                n_buckets=2, n_salts=1, analyzer="s_stem")
    with pytest.raises(ValueError, match="routing contract"):
        build_index(ray.data.from_arrow(docs), idx, id_col="doc_id",
                    n_buckets=2, n_salts=1, analyzer="standard", resume=True)


def test_tokenize_batch_stopwords_change_dl_and_positions():
    t = pa.table(
        {
            "doc_id": pa.array([1], pa.int64()),
            "text": ["the quick fox and the slow fox"],
        }
    )
    out = tokenize_batch(t, stopwords=("the", "and"))
    rows = {r["term"]: (r["tf"], r["dl"]) for r in out.to_pylist()}
    # dl counts the ANALYZED stream (4 survivors of 7 raw tokens)
    assert rows == {"quick": (1, 4), "fox": (2, 4), "slow": (1, 4)}
    # positions are offsets in the post-stop sequence
    outp = tokenize_batch(t, stopwords=("the", "and"), positions=True)
    pos = {r["term"]: r["pos"] for r in outp.to_pylist()}
    assert pos == {"quick": [0], "fox": [1, 3], "slow": [2]}


def test_doc_length_batch_stopword_path_matches_explode():
    from engine.tokenize import doc_length_batch

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": ["the the the", "a fox", ""],
        }
    )
    out = doc_length_batch(t, stopwords=("the", "a"))
    assert out.to_pylist() == [
        {"doc_id": 1, "dl": 0},
        {"doc_id": 2, "dl": 1},
        {"doc_id": 3, "dl": 0},
    ]


def test_analyze_text_stop_then_stem_order():
    # stop matches SURFACE forms: 'tables' is not in the stop set, so it
    # survives stop and stems to 'table'; stopping 'table' would NOT remove
    # the plural (order contract: stop first, stem second)
    from engine.tokenize import analyze_text

    assert analyze_text("the tables", "s_stem", stopwords=("the",)) == ["table"]
    # stopping the SINGULAR does not catch the plural (stop sees surface forms)
    assert analyze_text("the tables", "s_stem", stopwords=("the", "table")) == ["table"]
    assert analyze_text("the tables", "s_stem", stopwords=("the", "tables")) == []


def test_stopped_index_roundtrip(ray_session, tmp_path):
    import ray.data

    from engine.build import build_index
    from engine.query import Bm25Index

    docs = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "text": ["the fox ran", "the the the fox", "no match"],
        }
    )
    idx = str(tmp_path / "idx")
    build_index(ray.data.from_arrow(docs), idx, id_col="doc_id",
                n_buckets=2, n_salts=1, stopwords=["the"])
    bm = Bm25Index(idx)
    assert bm.stopwords == frozenset({"the"})
    # stopped term yields nothing; doc 1's dl is 1 (analyzed stream)
    assert len(bm.topk("the", k=10)[0]) == 0
    d, _ = bm.topk("the fox", k=10)
    assert sorted(d.tolist()) == [0, 1]
    from engine.docmap import read_doc_lengths

    got = read_doc_lengths(idx + "/docmap")(np.array([0, 1, 2], dtype=np.int64))
    assert got.tolist() == [2, 1, 2]


def test_reindex_new_analyzer_matches_direct_build(ray_session, tmp_path):
    """reindex(src, analyzer=s_stem) must equal a from-scratch s_stem build:
    same docIDs, same topk docs and scores (the _reindex contract)."""
    import ray.data

    from engine.build import build_index
    from engine.query import Bm25Index
    from engine.update import reindex

    docs = pa.table(
        {
            "doc_id": pa.array([3, 7, 11, 20], pa.int64()),
            "text": [
                "tables hold rows",
                "a table holds a row",
                "queries scan tables",
                "the the filler doc",
            ],
        }
    )
    src = str(tmp_path / "src")
    direct = str(tmp_path / "direct")
    dst = str(tmp_path / "dst")
    kw = dict(id_col="doc_id", n_buckets=2, n_salts=1, store_text=True)
    build_index(ray.data.from_arrow(docs), src, **kw)
    build_index(ray.data.from_arrow(docs), direct, analyzer="s_stem",
                stopwords=["the"], **kw)
    rep = reindex(src, dst, analyzer="s_stem", stopwords=["the"])
    assert rep["analyzer"] == "s_stem" and rep["stopwords"] == ["the"]

    bm_d, bm_r = Bm25Index(direct), Bm25Index(dst)
    for q in ("tables", "table row", "the", "queries scan"):
        dd, sd = bm_d.topk(q, k=10)
        dr, sr = bm_r.topk(q, k=10)
        assert dd.tolist() == dr.tolist(), q
        assert sd.tolist() == sr.tolist(), q


def test_reindex_transcripts_preserves_ids(ray_session, tmp_path):
    """Transcripts reindex re-mints from stored (conv_id, turn_idx) — the
    minting invariant reproduces the identical docID assignment."""
    from engine.build import build_index
    from engine.query import Bm25Index
    from engine.synth import write_corpus
    from engine.update import reindex

    corpus = write_corpus(str(tmp_path / "corpus"), n_convs=20, seed=7, n_shards=2)
    src, dst = str(tmp_path / "src"), str(tmp_path / "dst")
    build_index(corpus, src, n_buckets=2, n_salts=1, category_col="role")
    reindex(src, dst)  # no changes: a pure rebuild
    a, b = Bm25Index(src), Bm25Index(dst)
    assert a.n_docs == b.n_docs and a.avgdl == b.avgdl
    d1, s1 = a.topk("w00001 w00002", k=20)
    d2, s2 = b.topk("w00001 w00002", k=20)
    assert d1.tolist() == d2.tolist() and s1.tolist() == s2.tolist()
    # category survived the round trip
    assert sorted(b.categories()) == sorted(a.categories())


def test_reindex_refuses_without_doc_store(ray_session, tmp_path):
    import ray.data

    from engine.build import build_index
    from engine.update import reindex

    docs = pa.table({"doc_id": pa.array([0], pa.int64()), "text": ["x y"]})
    src = str(tmp_path / "src")
    build_index(ray.data.from_arrow(docs), src, id_col="doc_id",
                n_buckets=2, n_salts=1, store_text=False)
    with pytest.raises(ValueError, match="store_text"):
        reindex(src, str(tmp_path / "dst"))


def test_stemmed_positional_phrase_and_sharded(ray_session, tmp_path):
    """Analyzer must hold through the positional path (phrase adjacency on
    RAW offsets) and the scatter/gather serving path (coordinator analyzes
    with the template index's chain)."""
    import ray.data

    from engine.build import build_index
    from engine.query import Bm25Index
    from engine.serve import ShardedQueryService

    docs = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "text": [
                "tables hold rows",
                "tables x hold",      # not adjacent
                "table holds rows",   # 'holds' stems to 'hold' too
            ],
        }
    )
    idx = str(tmp_path / "idx")
    build_index(ray.data.from_arrow(docs), idx, id_col="doc_id",
                n_buckets=2, n_salts=1, analyzer="s_stem", positions=True)
    bm = Bm25Index(idx)
    # phrase analyzed: ['table', 'hold']; adjacency on raw offsets
    d, _n = bm.phrase_match("tables hold")
    assert sorted(np.asarray(d).tolist()) == [0, 2]

    svc = ShardedQueryService(idx, n_shards=2, num_cpus=0.25)
    try:
        d1, s1 = bm.topk("tables holds", k=10)
        d2, s2 = svc.topk("tables holds", k=10)
        assert d1.tolist() == d2.tolist()
        assert s1.tolist() == s2.tolist()
    finally:
        svc.shutdown()


def test_percolator_replays_index_analyzer(ray_session, tmp_path):
    """Percolation must analyze stored queries AND streamed docs with the
    index's persisted chain — df/avgdl describe the analyzed stream, so raw
    tokenization would silently never match on a stemmed index."""
    import ray.data

    from engine.build import build_index
    from engine.percolate import Percolator

    docs = pa.table(
        {
            "doc_id": pa.array([0, 1], pa.int64()),
            "text": ["tables hold rows", "the filter runs"],
        }
    )
    idx = str(tmp_path / "idx")
    build_index(ray.data.from_arrow(docs), idx, id_col="doc_id",
                n_buckets=2, n_salts=1, analyzer="s_stem")
    # surface forms differ on both sides; stems agree ('table', 'hold')
    p = Percolator(idx, [{"query_id": "q1", "text": "table holds"}], mode="all")
    hits = p.percolate("tables hold everything")
    assert [qid for qid, _ in hits] == ["q1"]
    # phrase mode: adjacency over the ANALYZED stream
    pp = Percolator(idx, [{"query_id": "p1", "text": "tables hold"}], mode="phrase")
    assert [q for q, _ in pp.percolate("one table holds here")] == ["p1"]
    # boolean mode: leaves analyzed through the same chain
    pb = Percolator(idx, [{"query_id": "b1", "expr": "tables AND NOT filters"}],
                    mode="boolean")
    assert [q for q, _ in pb.percolate("the table stands")] == ["b1"]
    assert pb.percolate("table near a filter") == []


def test_merge_refuses_docmap_schema_mismatch(ray_session, tmp_path):
    """merge_indexes must refuse a store_text=True x store_text=False graft:
    the mixed-schema docmap would crash text surfaces long after the merge."""
    import ray.data

    from engine.build import build_index
    from engine.update import merge_indexes

    def mk(name, ids, store_text):
        t = pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "text": [f"doc {i} words" for i in ids],
            }
        )
        d = str(tmp_path / name)
        build_index(ray.data.from_arrow(t), d, id_col="doc_id",
                    n_buckets=2, n_salts=1, store_text=store_text)
        return d

    dst = mk("dst", [0, 1], store_text=True)
    src = mk("src", [2, 3], store_text=False)
    with pytest.raises(ValueError, match="docmap schemas differ"):
        merge_indexes(dst, src)
