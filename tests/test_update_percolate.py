"""Incremental ADD/REMOVE/COMPACT + percolation tests.

UpdateIntegrationTest analog (strucmotif-search-update, :100-171): ADD is
idempotent; ADD/REMOVE keep (docmap, segments, stats) consistent; queries over
an incrementally-updated index match a from-scratch rebuild.
"""

import shutil

import numpy as np
import pyarrow as pa
import pytest

from engine import state


@pytest.fixture()
def upd_index(ray_session, tiny_corpus, tiny_index, tmp_path):
    idx = str(tmp_path / "upd")
    shutil.copytree(tiny_index, idx)
    return idx


def _new_convs_table(n_convs=5, turns=3, prefix="zzzz-conv"):
    # conv_ids sort AFTER every base conv ("conv-...") so incremental docIDs
    # coincide with a from-scratch rebuild's sorted assignment
    rows = {"conv_id": [], "turn_idx": [], "text": []}
    for c in range(n_convs):
        for t in range(turns):
            rows["conv_id"].append(f"{prefix}-{c:04d}")
            rows["turn_idx"].append(t)
            rows["text"].append(f"w00000 w00777 zqnewmarker{c} added turn {t}")
    return pa.table(
        {
            "conv_id": pa.array(rows["conv_id"], pa.string()),
            "turn_idx": pa.array(rows["turn_idx"], pa.int32()),
            "text": pa.array(rows["text"], pa.string()),
        }
    )


def test_add_matches_fresh_rebuild(upd_index, tiny_corpus, tmp_path):
    import ray.data

    from engine.build import build_index
    from engine.query import Bm25Index
    from engine.update import add_documents

    new = _new_convs_table()
    rep = add_documents(upd_index, ray.data.from_arrow(new))
    assert rep["added"] == new.num_rows

    # fresh rebuild over base corpus + the same new docs
    import os

    import pyarrow.parquet as pq

    combo = str(tmp_path / "combo_corpus")
    os.makedirs(combo)
    for f in os.listdir(tiny_corpus):
        if f.endswith(".parquet"):
            shutil.copy(os.path.join(tiny_corpus, f), combo)
    full = pa.table(
        {
            "conv_id": new["conv_id"],
            "turn_idx": new["turn_idx"],
            "role": pa.array(["user"] * new.num_rows),
            "text": new["text"],
            "tool": pa.array([""] * new.num_rows),
            "ts": pa.array([0] * new.num_rows, pa.timestamp("us")),
        }
    )
    pq.write_table(full, os.path.join(combo, "part-zzz.parquet"))
    fresh = str(tmp_path / "fresh")
    build_index(combo, fresh, n_buckets=8, n_salts=4, hot_fraction=0.05, resume=False)

    bm_u, bm_f = Bm25Index(upd_index), Bm25Index(fresh)
    assert bm_u.n_docs == bm_f.n_docs
    assert bm_u.avgdl == pytest.approx(bm_f.avgdl, rel=1e-12)
    for text, k in [("zqnewmarker2", 5), ("w00777", 10), ("w00000", 10), ("zqmarker0", 10)]:
        d1, s1 = bm_u.topk(text, k)
        d2, s2 = bm_f.topk(text, k)
        np.testing.assert_array_equal(d1, d2)
        np.testing.assert_allclose(s1, s2, rtol=1e-12)


def test_add_is_idempotent(upd_index):
    import ray.data

    from engine.update import add_documents

    new = _new_convs_table()
    r1 = add_documents(upd_index, ray.data.from_arrow(new))
    n_postings_1 = state.read_stats(upd_index)["n_postings"]
    r2 = add_documents(upd_index, ray.data.from_arrow(new))  # same docs again
    assert r1["added"] == new.num_rows and r2["added"] == 0
    assert state.read_stats(upd_index)["n_postings"] == n_postings_1


def test_add_rejects_hash_scheme_mismatch(upd_index):
    """stats.json persists the content-hash scheme; an ADD run whose
    environment computes a different scheme must hard-fail (ADVICE r2) —
    otherwise every re-submitted known doc reads as MODIFIED and triggers a
    silent full purge + re-index."""
    import pytest
    import ray.data

    from engine.tokenize import hash_scheme
    from engine.update import add_documents

    stats = state.read_stats(upd_index)
    assert stats["hash_scheme"] == hash_scheme()
    stats["hash_scheme"] = "md5-lower64-DIFFERENT"
    state.write_stats(upd_index, stats)
    with pytest.raises(RuntimeError, match="hash scheme mismatch"):
        add_documents(upd_index, ray.data.from_arrow(_new_convs_table()))
    stats["hash_scheme"] = hash_scheme()
    state.write_stats(upd_index, stats)


def test_remove_then_query(upd_index):
    from engine.query import Bm25Index
    from engine.update import remove_documents

    bm0 = Bm25Index(upd_index)
    d0, _ = bm0.topk("zqmarker0", 5)
    assert len(d0) > 0
    # resolve a victim conv and remove it
    import pyarrow.parquet as pq
    import os

    dm = pq.read_table(os.path.join(upd_index, "docmap"))
    victim_conv = dm.filter(
        pa.compute.is_in(dm["doc_id"], value_set=pa.array([int(d0[0])], pa.int64()))
    )["conv_id"][0].as_py()
    rep = remove_documents(upd_index, conv_ids=[victim_conv])
    assert rep["removed"] >= 1

    bm1 = Bm25Index(upd_index)
    d1, _ = bm1.topk("zqmarker0", 5)
    assert int(d0[0]) not in set(int(x) for x in d1)
    assert bm1.n_docs == bm0.n_docs - rep["removed"]


def test_remove_rewrites_only_parts_that_lost_a_posting(upd_index):
    """REMOVE of one conversation rewrites only the parts that held one of
    its postings; ``parts_touched`` counts exactly those, and every other
    part's segment file and manifest keep their bytes."""
    import os

    import pyarrow.parquet as pq

    from engine.update import remove_documents

    def files():
        out = {}
        for p in state.committed_parts(upd_index):
            for path in (state.segment_path(upd_index, p), state.manifest_path(upd_index, p)):
                with open(path, "rb") as f:
                    out[path] = f.read()
        return out

    before = files()
    # the conversation with the fewest postings, so some parts hold none
    dm = pq.read_table(os.path.join(upd_index, "docmap"), columns=["conv_id", "dl"])
    per_conv = dm.group_by("conv_id").aggregate([("dl", "sum")]).sort_by("dl_sum")
    victim = per_conv["conv_id"][0].as_py()
    rep = remove_documents(upd_index, conv_ids=[victim])
    after = files()
    segs = [p for p in before if p.endswith(".parquet")]
    changed = [p for p in segs if after.get(p) != before[p]]
    assert rep["removed"] >= 1
    assert 0 < rep["parts_touched"] == len(changed) < len(segs)
    for p in segs:
        if p not in changed:
            m = p.replace(".parquet", ".manifest.json")
            assert after[m] == before[m], m


def test_compact_preserves_results(upd_index):
    import ray.data

    from engine.query import Bm25Index
    from engine.queries import QUERY_SET
    from engine.update import add_documents, compact_index, remove_documents

    add_documents(upd_index, ray.data.from_arrow(_new_convs_table()))
    remove_documents(upd_index, conv_ids=["zzzz-conv-0001"])
    before = Bm25Index(upd_index)
    snaps = {q["query_id"]: before.topk(q["text"], q["k"]) for q in QUERY_SET}

    rep = compact_index(upd_index)
    stats = state.read_stats(upd_index)
    assert stats["generation"] == 0

    after = Bm25Index(upd_index)
    for q in QUERY_SET:
        d0, s0 = snaps[q["query_id"]]
        d1, s1 = after.topk(q["text"], q["k"])
        np.testing.assert_array_equal(d0, d1)
        np.testing.assert_allclose(s0, s1, rtol=1e-12)


def test_percolate_matches_topk_scores(ray_session, tiny_corpus, tiny_index):
    """A percolated (query, doc) score must equal, bit for bit, the score
    ``score_all`` assigns that doc — the detect-motifs 'reuses path 3.2'
    contract — and a stored query hits a doc exactly when ``score_all``
    scores it. Checked for every QUERY_SET query over every 7th corpus turn."""
    import os

    import pyarrow.parquet as pq

    from engine.percolate import Percolator
    from engine.query import Bm25Index
    from engine.queries import QUERY_SET

    bm = Bm25Index(tiny_index)
    dm = pq.read_table(os.path.join(tiny_index, "docmap"),
                       columns=["conv_id", "turn_idx", "doc_id"]).to_pylist()
    doc_of = {(r["conv_id"], r["turn_idx"]): r["doc_id"] for r in dm}
    corpus = pq.read_table(tiny_corpus, columns=["conv_id", "turn_idx", "text"])
    sample = corpus.take(np.arange(0, corpus.num_rows, 7)).to_pylist()
    want = {}
    for q in QUERY_SET:
        d, s = bm.score_all(q["text"])
        want[q["query_id"]] = dict(zip(d.tolist(), s.tolist()))

    perc = Percolator(tiny_index, QUERY_SET, mode="any")
    pairs = 0
    for row in sample:
        doc = doc_of[(row["conv_id"], row["turn_idx"])]
        hits = dict(perc.percolate(row["text"]))
        assert set(hits) == {qid for qid, sc in want.items() if doc in sc}, doc
        for qid, score in hits.items():
            assert score == want[qid][doc], (qid, doc)
        pairs += len(hits)
    assert pairs > 100


def test_percolate_dataset_conjunctive(ray_session, tiny_index):
    import ray.data

    from engine.percolate import percolate_dataset

    # conjunctive matching requires INDEXED terms (df > 0): absent terms make
    # the query unsatisfiable, exactly like Bm25Index.topk conjunctive
    from engine.query import Bm25Index

    vocab = Bm25Index(tiny_index).reader.vocab_df()["term"].to_pylist()
    t1, t2 = vocab[0], vocab[1]
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3], pa.int64()),
                "text": pa.array(
                    [
                        f"{t1} {t2} both present",
                        f"{t1} only one",
                        "zqunrelated zqtokens zqhere",
                    ]
                ),
            }
        )
    )
    queries = [{"query_id": "PAIR", "text": f"{t1} {t2}"}]
    out = percolate_dataset(docs, tiny_index, queries, mode="all", concurrency=2).to_pandas()
    assert list(out["doc_id"]) == [1]


def test_query_service_replicas_and_timeout(ray_session, tiny_index):
    """Replica-actor serving returns identical results to the local index;
    an absurdly small deadline raises QueryTimeout (QueryTimeoutTest analog)."""
    import numpy as np
    import pytest as _pytest

    from engine.query import Bm25Index
    from engine.serve import QueryService, QueryTimeout

    svc = QueryService(tiny_index, n_replicas=2, num_cpus=0.25)
    try:
        svc.warm(["zqmarker0"])
        bm = Bm25Index(tiny_index)
        for text, k in [("zqmarker0", 5), ("w00000 zqmarker1", 10)]:
            d1, s1 = svc.topk(text, k)
            d2, s2 = bm.topk(text, k)
            np.testing.assert_array_equal(d1, d2)
            np.testing.assert_array_equal(s1, s2)
        # round-robin hits the second replica too (same results)
        d3, _ = svc.topk("zqmarker0", 5)
        np.testing.assert_array_equal(d3, bm.topk("zqmarker0", 5)[0])
        with _pytest.raises(QueryTimeout):
            svc.topk("w00000", 10, timeout_s=1e-9)
    finally:
        svc.shutdown()


def test_percolate_absent_terms_never_match(ray_session, tiny_index):
    """Index-absent (df == 0) terms must not count as 'present': topk never
    returns a doc for them, so percolate must not either — in 'any' mode an
    all-absent query matches nothing even when the DOC contains the term; in
    'all' mode one absent term makes the conjunctive query unsatisfiable."""
    from engine.percolate import Percolator
    from engine.query import Bm25Index

    bm = Bm25Index(tiny_index)
    # a term guaranteed present in the index
    live_term = bm.reader.vocab_df()["term"][0].as_py()
    absent = "zzzneverindexedzzz"
    assert bm.reader.df(absent) == 0

    p_any = Percolator(tiny_index, [{"query_id": "q", "text": absent}], mode="any")
    assert p_any.percolate(f"some text with {absent} inside") == []

    p_all = Percolator(
        tiny_index, [{"query_id": "q", "text": f"{live_term} {absent}"}], mode="all"
    )
    assert p_all.percolate(f"{live_term} {absent}") == []

    # sanity: the live term alone still matches in both modes
    p_live = Percolator(tiny_index, [{"query_id": "q", "text": live_term}], mode="all")
    assert len(p_live.percolate(f"{live_term} other words")) == 1


def test_revision_aware_add_reindexes_changed_docs(upd_index):
    """A re-submitted conversation with EDITED text must be re-indexed on ADD
    (content_hash revision gate): the new text becomes searchable, the old
    postings are gone, and an unchanged resubmission stays a no-op."""
    import ray.data

    import pyarrow.parquet as pq
    from engine.query import Bm25Index
    from engine.update import add_documents

    dm = pq.read_table(f"{upd_index}/docmap", columns=["conv_id", "turn_idx"])
    conv = dm["conv_id"][0].as_py()
    turn = dm["turn_idx"][0].as_py()

    # 1. unchanged resubmission: idempotent no-op
    bm0 = Bm25Index(upd_index)
    dmap = pq.read_table(f"{upd_index}/docmap")
    row = dmap.filter(
        pa.compute.and_(
            pa.compute.equal(dmap["conv_id"], conv), pa.compute.equal(dmap["turn_idx"], turn)
        )
    )
    old_doc_id = row["doc_id"][0].as_py()

    # reconstruct the original text? not stored — instead ADD an edited turn
    edited = ray.data.from_arrow(
        pa.table(
            {
                "conv_id": pa.array([conv], pa.string()),
                "turn_idx": pa.array([turn], pa.int32()),
                "text": pa.array(["zqeditedmarker completely new content"], pa.string()),
            }
        )
    )
    rep = add_documents(upd_index, edited)
    assert rep["replaced"] == 1 and rep["added"] == 1

    bm = Bm25Index(upd_index)
    docs, _ = bm.topk("zqeditedmarker", k=5)
    assert len(docs) == 1 and docs[0] != old_doc_id  # new docID, searchable
    # old docID fully purged from docmap
    dmap2 = pq.read_table(f"{upd_index}/docmap", columns=["doc_id"])
    assert old_doc_id not in set(dmap2["doc_id"].to_pylist())

    # 2. resubmitting the SAME edited text again: no-op
    rep2 = add_documents(upd_index, edited)
    assert rep2["added"] == 0 and rep2["replaced"] == 0


def test_add_into_empty_index(ray_session, tmp_path):
    """Bootstrap lifecycle: build over ZERO documents, then incrementally ADD
    the first real documents — nothing may divide by the empty base's
    avgdl=0, and queries over the grown index must score correctly."""
    import pyarrow as pa
    import ray.data

    from engine.build import build_index
    from engine.query import Bm25Index
    from engine.update import add_documents

    empty = pa.table(
        {
            "conv_id": pa.array([], pa.string()),
            "turn_idx": pa.array([], pa.int32()),
            "text": pa.array([], pa.string()),
        }
    )
    idx = str(tmp_path / "bootstrap_idx")
    build_index(ray.data.from_arrow(empty), idx, n_buckets=4, n_salts=2, resume=False)
    delta = pa.table(
        {
            "conv_id": pa.array(["c1", "c1"], pa.string()),
            "turn_idx": pa.array([0, 1], pa.int32()),
            "text": pa.array(["hello world", "goodbye world"], pa.string()),
        }
    )
    assert add_documents(idx, ray.data.from_arrow(delta))["added"] == 2
    bm = Bm25Index(idx)
    d, s = bm.topk("world", 5)
    assert d.tolist() == [0, 1]
    assert all(x > 0 for x in s)


def test_remove_all_then_re_add(ray_session, tmp_path):
    """Drain-and-refill lifecycle: removing every document leaves a queryable
    empty index; a subsequent ADD re-mints dense docIDs from zero."""
    import pyarrow as pa
    import ray.data

    from engine.build import build_index
    from engine.query import Bm25Index
    from engine.update import add_documents, remove_documents

    docs = pa.table(
        {
            "conv_id": pa.array(["c1", "c1", "c2"], pa.string()),
            "turn_idx": pa.array([0, 1, 0], pa.int32()),
            "text": pa.array(["hello world", "goodbye world", "other text"], pa.string()),
        }
    )
    idx = str(tmp_path / "drain_idx")
    build_index(ray.data.from_arrow(docs), idx, n_buckets=4, n_salts=2, resume=False)
    assert remove_documents(idx, conv_ids=["c1", "c2"])["removed"] == 3
    d, _ = Bm25Index(idx).topk("world", 5)
    assert len(d) == 0
    assert add_documents(idx, ray.data.from_arrow(docs))["added"] == 3
    d2, _ = Bm25Index(idx).topk("world", 5)
    assert d2.tolist() == [0, 1]


def test_add_into_raw64_backend_matches_varint(ray_session, tiny_corpus, tmp_path):
    """Codec seam through the WHOLE lifecycle: a raw64-backend index accepts
    incremental ADD (delta runs encoded with the bundle's own codec, read
    from stats.json) and answers queries bit-identically to the varint
    index given the same base + delta."""
    import ray.data

    from engine.build import build_index
    from engine.query import Bm25Index
    from engine.update import add_documents

    idx_v = str(tmp_path / "vidx")
    idx_r = str(tmp_path / "ridx")
    build_index(tiny_corpus, idx_v, n_buckets=4, n_salts=2, hot_fraction=0.05)
    build_index(tiny_corpus, idx_r, n_buckets=4, n_salts=2, hot_fraction=0.05,
                postings_codec="raw64")
    delta = _new_convs_table()
    add_documents(idx_v, ray.data.from_arrow(delta))
    add_documents(idx_r, ray.data.from_arrow(delta))
    bv, br = Bm25Index(idx_v), Bm25Index(idx_r)
    assert br.reader.codec_name == "raw64"
    for q in ("zqnewmarker0 added", "w00777", "the zqmarker0"):
        d1, s1 = bv.topk(q, 10)
        d2, s2 = br.topk(q, 10)
        np.testing.assert_array_equal(d1, d2)
        np.testing.assert_allclose(s1, s2, rtol=0, atol=0)


def test_update_and_percolate_alerts_on_delta_only(upd_index):
    """detect-motifs-on-update composite: ADD + standing-query percolation
    alerts on the freshly indexed docs ONLY — a re-submitted unchanged batch
    produces zero alerts (idempotent-ADD contract)."""
    import ray.data

    from engine.update import update_and_percolate

    queries = [
        {"query_id": "alert_new", "text": "zqnewmarker0 zqnewmarker1"},
        {"query_id": "alert_never", "text": "qqqabsenttermqqq"},
    ]
    new = _new_convs_table()
    rep, alerts = update_and_percolate(
        upd_index, ray.data.from_arrow(new), queries, mode="any"
    )
    df = alerts.to_pandas()
    assert rep["added"] == new.num_rows
    assert set(df["query_id"]) == {"alert_new"}
    # exactly the zqnewmarker{0,1} turns alert (3 turns per conv)
    assert len(df) == 6 and df["score"].gt(0).all()

    rep2, alerts2 = update_and_percolate(
        upd_index, ray.data.from_arrow(new), queries, mode="any"
    )
    assert rep2["added"] == 0
    assert len(alerts2.to_pandas()) == 0  # nothing newly indexed, no alerts


def test_percolate_phrase_counts(ray_session, tiny_index):
    """mode='phrase': match iff the exact token sequence occurs contiguously;
    score == occurrence count incl. overlapping repeats; scrambled order or
    absent phrase never matches."""
    from engine.percolate import Percolator

    perc = Percolator(
        tiny_index,
        [
            {"query_id": "p_ab", "text": "alpha beta"},
            {"query_id": "p_rep", "text": "alpha alpha"},
            {"query_id": "p_absent", "text": "beta gamma"},
        ],
        mode="phrase",
    )
    got = dict(perc.percolate("alpha beta! alpha alpha alpha beta."))
    # "alpha beta" occurs at 0 and 4; "alpha alpha" overlaps at 2,3
    assert got == {"p_ab": 2.0, "p_rep": 2.0}
    assert perc.percolate("beta alpha") == []  # order matters
    assert perc.percolate("") == []


def test_merge_indexes_matches_full_build(ray_session, tiny_corpus, tmp_path):
    """Two id-mode half-indexes grafted with merge_indexes answer every query
    bit-identically to one index built over the full corpus: same corpus
    stats, same df, same scores — posting blobs moved verbatim as new runs.
    Also exercises hot-term union (halves sample hot sets independently) and
    the docID-collision refusal."""
    import glob

    import pyarrow.parquet as pq

    from engine.build import build_index
    from engine.query import Bm25Index
    from engine.update import merge_indexes

    corpus = pa.concat_tables(
        pq.read_table(p) for p in sorted(glob.glob(tiny_corpus + "/*.parquet"))
    )
    corpus = corpus.append_column(
        "doc_id", pa.array(np.arange(corpus.num_rows, dtype=np.int64))
    )
    even = corpus.filter(pa.array((np.arange(corpus.num_rows) % 2) == 0))
    odd = corpus.filter(pa.array((np.arange(corpus.num_rows) % 2) == 1))

    import ray.data

    kw = dict(n_buckets=8, n_salts=4, hot_fraction=0.05, id_col="doc_id")
    full_dir, even_dir, odd_dir = (str(tmp_path / n) for n in ("full", "even", "odd"))
    build_index(ray.data.from_arrow(corpus), full_dir, **kw)
    build_index(ray.data.from_arrow(even), even_dir, **kw)
    build_index(ray.data.from_arrow(odd), odd_dir, **kw)

    rep = merge_indexes(even_dir, odd_dir)
    assert rep["n_docs"] == corpus.num_rows
    assert rep["merged_docs"] == odd.num_rows

    ref = Bm25Index(full_dir)
    mrg = Bm25Index(even_dir)
    assert mrg.n_docs == ref.n_docs
    assert abs(mrg.avgdl - ref.avgdl) < 1e-12
    for q in ("the zqmarker0", "zqmarker0 zqmarker1", "table dup", "the", "w00000"):
        d1, s1 = ref.topk(q, 10)
        d2, s2 = mrg.topk(q, 10)
        np.testing.assert_array_equal(d1, d2)
        np.testing.assert_allclose(s1, s2, rtol=0, atol=0)
        d1, s1 = ref.conjunctive_topk(q, 10)
        d2, s2 = mrg.conjunctive_topk(q, 10)
        np.testing.assert_array_equal(d1, d2)
        np.testing.assert_allclose(s1, s2, rtol=0, atol=0)
    # full-decode parity on a common term
    p1 = ref.reader.postings("the")
    p2 = mrg.reader.postings("the")
    np.testing.assert_array_equal(p1[0], p2[0])
    np.testing.assert_array_equal(p1[1], p2[1])

    # overlapping docIDs refuse
    with pytest.raises(ValueError, match="overlap"):
        merge_indexes(even_dir, odd_dir)


def test_percolate_boolean_matches_boolean_topk(ray_session, tiny_index):
    """Boolean percolation over every doc == boolean_topk with a corpus-size
    k: identical matched-doc sets AND bit-identical scores (the stored-query
    registry and the retrieval path share one expression semantics)."""
    from engine.percolate import Percolator
    from engine.query import Bm25Index
    from engine.synth import generate_transcripts

    corpus_tbl = generate_transcripts(100, 42).sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending")]
    )
    texts = corpus_tbl["text"].to_pylist()  # row order == docID order

    exprs = [
        ("B1", "(zqmarker0 OR zqmarker1) AND w00000"),
        ("B2", "w00000 AND NOT zqmarker0"),
        ("B3", "w00001 AND NOT (zqmarker0 OR w00000)"),
        ("B4", "w00000 AND zzzabsentzzz"),
    ]
    bm = Bm25Index(tiny_index)
    perc = Percolator(
        tiny_index, [{"query_id": q, "expr": e} for q, e in exprs], mode="boolean"
    )
    want: dict[str, dict[int, float]] = {q: {} for q, _ in exprs}
    for qid, e in exprs:
        d, s = bm.boolean_topk(e, len(texts))
        want[qid] = dict(zip(d.tolist(), s.tolist()))
    got: dict[str, dict[int, float]] = {q: {} for q, _ in exprs}
    for doc_id, text in enumerate(texts):
        for qid, sc in perc.percolate(text):
            got[qid][doc_id] = sc
    assert sum(len(v) for v in want.values()) > 0
    for qid, _ in exprs:
        assert got[qid].keys() == want[qid].keys(), qid
        for d_ in want[qid]:
            assert got[qid][d_] == want[qid][d_], (qid, d_)  # bit-identical


def test_merge_indexes_crash_resume(ray_session, tiny_corpus, tmp_path):
    """A merge killed mid-graft resumes to the SAME index a clean merge
    produces: the journal pins the generation and skips the (now-invalid)
    collision check, and per-part grafts are idempotent via the run-id
    marker — re-running after ANY crash point neither double-grafts nor
    refuses."""
    import glob
    import json
    import os

    import pyarrow.parquet as pq
    import ray

    from engine import state
    from engine.build import build_index
    from engine.query import Bm25Index
    from engine.update import _graft_part, merge_indexes

    corpus = pa.concat_tables(
        pq.read_table(p) for p in sorted(glob.glob(tiny_corpus + "/*.parquet"))
    )
    corpus = corpus.append_column(
        "doc_id", pa.array(np.arange(corpus.num_rows, dtype=np.int64))
    )
    lo = corpus.filter(pa.array(np.arange(corpus.num_rows) < corpus.num_rows // 2))
    hi = corpus.filter(pa.array(np.arange(corpus.num_rows) >= corpus.num_rows // 2))

    import ray.data

    kw = dict(n_buckets=8, n_salts=2, hot_fraction=0.05, id_col="doc_id")
    a1, b1, a2, b2 = (str(tmp_path / n) for n in ("a1", "b1", "a2", "b2"))
    for dst, src in ((a1, b1), (a2, b2)):
        build_index(ray.data.from_arrow(lo), dst, **kw)
        build_index(ray.data.from_arrow(hi), src, **kw)

    # clean merge on pair 1 = the golden result
    merge_indexes(a1, b1)

    # pair 2: simulate a crash — journal written, HALF the parts grafted
    stats = state.read_stats(a2)
    generation = int(stats.get("generation", 0)) + 1
    state.atomic_write_bytes(
        json.dumps({"src": os.path.realpath(b2), "generation": generation}).encode(),
        os.path.join(a2, "merge-journal.json"),
    )
    run_offset = generation * int(stats["n_salts"])
    parts = sorted(state.committed_parts(b2))
    ray.get([
        _graft_part.remote(a2, p, state.segment_path(b2, p), run_offset)
        for p in parts[: len(parts) // 2]
    ])
    # resume: must complete without refusing and without double-grafting
    rep = merge_indexes(a2, b2)
    assert rep["n_docs"] == corpus.num_rows
    assert not os.path.exists(os.path.join(a2, "merge-journal.json"))

    g, r = Bm25Index(a1), Bm25Index(a2)
    assert g.n_docs == r.n_docs and g.avgdl == r.avgdl
    for q in ("the zqmarker0", "w00000", "table dup", "zqmarker1"):
        d1, s1 = g.topk(q, 15)
        d2, s2 = r.topk(q, 15)
        np.testing.assert_array_equal(d1, d2)
        np.testing.assert_allclose(s1, s2, rtol=0, atol=0)
    # per-part payload CRCs identical: no duplicate runs anywhere
    pa_parts, pb_parts = state.committed_parts(a1), state.committed_parts(a2)
    assert sorted(pa_parts) == sorted(pb_parts)
    for p in pa_parts:
        assert pa_parts[p]["checksum"] == pb_parts[p]["checksum"], f"part {p}"

    # a journal for a DIFFERENT src refuses
    state.atomic_write_bytes(
        json.dumps({"src": "/elsewhere", "generation": 9}).encode(),
        os.path.join(a2, "merge-journal.json"),
    )
    with pytest.raises(ValueError, match="unfinished merge"):
        merge_indexes(a2, b2)
    os.remove(os.path.join(a2, "merge-journal.json"))


def test_merge_indexes_positional(ray_session, tiny_corpus, tmp_path):
    """Positional bundles merge too: pos_enc runs graft verbatim and phrase /
    span queries over the merged index equal a full positional build."""
    import glob

    import pyarrow.parquet as pq

    from engine.build import build_index
    from engine.query import Bm25Index
    from engine.update import merge_indexes

    corpus = pa.concat_tables(
        pq.read_table(p) for p in sorted(glob.glob(tiny_corpus + "/*.parquet"))
    )
    corpus = corpus.append_column(
        "doc_id", pa.array(np.arange(corpus.num_rows, dtype=np.int64))
    )
    half = corpus.num_rows // 2
    lo = corpus.filter(pa.array(np.arange(corpus.num_rows) < half))
    hi = corpus.filter(pa.array(np.arange(corpus.num_rows) >= half))

    import ray.data

    kw = dict(n_buckets=8, n_salts=2, id_col="doc_id", positions=True)
    full_d, lo_d, hi_d = (str(tmp_path / n) for n in ("pfull", "plo", "phi"))
    build_index(ray.data.from_arrow(corpus), full_d, **kw)
    build_index(ray.data.from_arrow(lo), lo_d, **kw)
    build_index(ray.data.from_arrow(hi), hi_d, **kw)
    merge_indexes(lo_d, hi_d)

    ref, mrg = Bm25Index(full_d), Bm25Index(lo_d)
    hits = 0
    for phrase in ("w00000 w00001", "zqmarker0 w00000"):
        d1, n1 = ref.phrase_match(phrase)
        d2, n2 = mrg.phrase_match(phrase)
        np.testing.assert_array_equal(d1, d2)
        np.testing.assert_array_equal(n1, n2)
        hits += len(d1)
    d1, n1 = ref.span_near(["w00000", "w00001", "w00002"], 8)
    d2, n2 = mrg.span_near(["w00000", "w00001", "w00002"], 8)
    np.testing.assert_array_equal(d1, d2)
    np.testing.assert_array_equal(n1, n2)
    assert hits + len(d1) > 0

    # positional x non-positional refuses
    flat = str(tmp_path / "pflat")
    build_index(ray.data.from_arrow(hi), flat, n_buckets=8, n_salts=2, id_col="doc_id")
    with pytest.raises(ValueError, match="positional"):
        merge_indexes(full_d, flat)


def test_federation_matches_full_build(ray_session, tiny_corpus, tmp_path):
    """Federated dfs_query_then_fetch over two INDEPENDENT parity-split
    builds (no merge): union stats (n, exact-int avgdl, df sums) make every
    member score its candidates bit-identically to one full-corpus index,
    and the merged top-k equals the full build's. Also exercises the
    distributed docID-collision refusal."""
    import glob

    import pyarrow.parquet as pq
    import ray.data

    from engine.build import build_index
    from engine.federate import Federation
    from engine.query import Bm25Index

    corpus = pa.concat_tables(
        pq.read_table(p) for p in sorted(glob.glob(tiny_corpus + "/*.parquet"))
    )
    corpus = corpus.append_column(
        "doc_id", pa.array(np.arange(corpus.num_rows, dtype=np.int64))
    )
    even = corpus.filter(pa.array((np.arange(corpus.num_rows) % 2) == 0))
    odd = corpus.filter(pa.array((np.arange(corpus.num_rows) % 2) == 1))

    kw = dict(n_buckets=8, n_salts=4, hot_fraction=0.05, id_col="doc_id")
    full_d, even_d, odd_d = (str(tmp_path / n) for n in ("ffull", "feven", "fodd"))
    build_index(ray.data.from_arrow(corpus), full_d, **kw)
    build_index(ray.data.from_arrow(even), even_d, **kw)
    build_index(ray.data.from_arrow(odd), odd_d, **kw)

    ref = Bm25Index(full_d)
    fed = Federation([even_d, odd_d])
    assert fed.n_docs == ref.n_docs
    assert fed.avgdl == ref.avgdl  # exact-int token total -> same division

    for q in ("the zqmarker0", "zqmarker0 zqmarker1", "table dup", "the",
              "w00000", "qqqabsentqqq"):
        d1, s1 = ref.score_all(q)
        d2, s2 = fed.score_all(q)
        np.testing.assert_array_equal(d1, d2)
        np.testing.assert_allclose(s1, s2, rtol=0, atol=0)  # bit-identical
        t1 = ref.topk(q, 10, rank_round=9)
        t2 = fed.topk(q, 10, rank_round=9)
        np.testing.assert_array_equal(t1[0], t2[0])
        np.testing.assert_allclose(t1[1], t2[1], rtol=0, atol=0)

    # collision refusal: a member overlapping another's docID space is refused
    with pytest.raises(ValueError, match="share"):
        Federation([even_d, full_d])


def test_rollover_time_sliced_federation(ray_session, tiny_corpus, tmp_path):
    """Time-partitioned (rollover) search: two ts-sliced builds behind one
    federation equal the full build bit-identically; a ts window restricted
    to one slice prunes the other member from docmap METADATA alone
    (can_match semantics), and the windowed result equals the full index's
    field_range filter."""
    import glob

    import pyarrow.parquet as pq
    import ray.data

    from engine.build import build_index
    from engine.federate import Federation
    from engine.query import Bm25Index

    corpus = pa.concat_tables(
        pq.read_table(p) for p in sorted(glob.glob(tiny_corpus + "/*.parquet"))
    )
    corpus = corpus.append_column(
        "doc_id", pa.array(np.arange(corpus.num_rows, dtype=np.int64))
    )
    ts = corpus["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
    mid = int((ts.min() + ts.max()) // 2)
    lo_half = corpus.filter(pa.array(ts < mid))
    hi_half = corpus.filter(pa.array(ts >= mid))
    assert lo_half.num_rows and hi_half.num_rows

    kw = dict(n_buckets=8, n_salts=2, id_col="doc_id", docvalues=["ts"])
    full_d, a_d, b_d = (str(tmp_path / n) for n in ("rfull", "ra", "rb"))
    build_index(ray.data.from_arrow(corpus), full_d, **kw)
    build_index(ray.data.from_arrow(lo_half), a_d, **kw)
    build_index(ray.data.from_arrow(hi_half), b_d, **kw)

    ref = Bm25Index(full_d)
    fed = Federation([a_d, b_d])

    # member ts bounds from parquet stats match the data
    (amn, amx), (bmn, bmx) = fed.field_bounds("ts")
    assert amn == ts[ts < mid].min() and amx == ts[ts < mid].max()
    assert bmn == ts[ts >= mid].min() and bmx == ts[ts >= mid].max()

    # unfiltered: bit-identical to the full build
    for q in ("the zqmarker0", "w00000", "qqqabsentqqq"):
        t1 = ref.topk(q, 10, rank_round=9)
        t2 = fed.topk(q, 10, rank_round=9)
        np.testing.assert_array_equal(t1[0], t2[0])
        np.testing.assert_allclose(t1[1], t2[1], rtol=0, atol=0)
    assert fed.last_members_searched == 2

    # window inside slice A: member B pruned, result == full-index range filter
    win = ("ts", int(amn), int(amn + (amx - amn) // 3))
    for q in ("the zqmarker0", "w00000"):
        d1, s1 = ref.topk(q, 10, rank_round=9, field_range=win)
        d2, s2 = fed.topk(q, 10, rank_round=9, field_range=win)
        np.testing.assert_array_equal(d1, d2)
        np.testing.assert_allclose(s1, s2, rtol=0, atol=0)
    assert fed.last_members_searched == 1

    # window spanning the boundary: both searched, equals the full filter
    span = ("ts", int(amx - 1), int(bmn + 1))
    d1, s1 = ref.topk("the", 10, rank_round=9, field_range=span)
    d2, s2 = fed.topk("the", 10, rank_round=9, field_range=span)
    np.testing.assert_array_equal(d1, d2)
    assert fed.last_members_searched == 2

    # empty window beyond all data: zero members searched, empty result
    d0, s0 = fed.topk("the", 10, field_range=("ts", int(bmx + 10), int(bmx + 20)))
    assert len(d0) == 0 and fed.last_members_searched == 0


def test_add_preserves_docvalues(ray_session, tiny_corpus, tmp_path):
    """ADD on a docvalues index: delta docmap rows carry the ts column, so
    field sort / range filter / field stats see delta-minted docs; an ADD
    source missing the column is refused."""
    import ray.data

    from engine.build import build_index
    from engine.query import Bm25Index
    from engine.update import add_documents

    idx = str(tmp_path / "dv_upd")
    build_index(tiny_corpus, idx, n_buckets=8, n_salts=2, docvalues=["ts"])
    base_n = Bm25Index(idx).n_docs

    far_future = 4_000_000_000_000_000  # epoch-us beyond every base ts
    new = _new_convs_table(n_convs=2, turns=2)
    new = new.append_column(
        "ts",
        pa.array(
            [far_future + i for i in range(new.num_rows)], pa.timestamp("us")
        ),
    )
    rep = add_documents(idx, ray.data.from_arrow(new))
    assert rep["added"] == new.num_rows

    bm = Bm25Index(idx)
    # most-recent-first sort must surface ONLY the delta docs first
    d, v = bm.topk_by_field("w00000", "ts", new.num_rows)
    assert (d >= base_n).all()
    assert v.tolist() == sorted(
        (far_future + i for i in range(new.num_rows)), reverse=True
    )
    # range filter pinned to the delta window
    dd, ss = bm.topk("w00000", 50, field_range=("ts", far_future, far_future + 10**6))
    assert set(dd.tolist()) == set(d.tolist())
    # stats max == newest delta ts
    n, lo, hi = bm.field_stats("zqnewmarker0", "ts")
    assert n == 2 and hi == far_future + 1  # conv 0 = source rows 0,1

    # ADD refusal when the source lacks the doc-values column
    missing = _new_convs_table(n_convs=1, turns=1, prefix="zzzz-missingdv")
    with pytest.raises(Exception, match="ts"):
        add_documents(idx, ray.data.from_arrow(missing))
