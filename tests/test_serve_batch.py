"""Distributed batch evaluation over the sharded service (own module: the
sharded-serving module fixture holds 3 full-CPU shard actors for its whole
module lifetime, and the replica batch path's actors need a full CPU each —
at the 4-CPU test budget the two cannot coexist; module isolation tears the
fixture down first)."""

from engine.queries import QUERY_SET


def test_batch_topk_sharded_bit_identity(ray_session, tiny_index):
    """Shared shard pool + coordinator actors == the replica batch path,
    bit-for-bit, for every query in the fixed set."""
    from engine.query import batch_topk
    from engine.serve import batch_topk_sharded

    a = batch_topk(QUERY_SET, tiny_index, concurrency=2)
    b = batch_topk_sharded(
        QUERY_SET, tiny_index, n_shards=2, concurrency=2, shard_num_cpus=0.25
    )
    assert a.num_rows == b.num_rows > 0
    cols = ["query_id", "rank", "doc_id", "score"]
    aa, bb = a.select(cols), b.select(cols)
    assert aa.sort_by([("query_id", "ascending"), ("rank", "ascending")]).equals(
        bb.sort_by([("query_id", "ascending"), ("rank", "ascending")])
    )


def test_query_metrics_counters(ray_session, tiny_index):
    """Serving metrics: decode/cache counters move as expected on a fresh
    handle, and QueryService.metrics() sums across replicas."""
    from engine.query import Bm25Index
    from engine.serve import QueryService

    bm = Bm25Index(tiny_index)
    m0 = bm.metrics()
    assert m0["queries_served"] == 0 and m0["runs_decoded"] == 0
    bm.topk("w00000 zqmarker0", 5)
    m1 = bm.metrics()
    assert m1["queries_served"] == 1
    assert m1["runs_decoded"] > 0 and m1["payload_column_reads"] > 0
    bm.topk("w00000 zqmarker0", 5)  # same terms -> cache hits, no new decode
    m2 = bm.metrics()
    assert m2["queries_served"] == 2
    assert m2["postings_cache_hits"] > m1["postings_cache_hits"]
    assert m2["runs_decoded"] == m1["runs_decoded"]
    assert m2["parts_quarantined"] == 0

    svc = QueryService(tiny_index, n_replicas=2, num_cpus=0.25)
    try:
        svc.topk("w00000", 5)
        svc.topk("zqmarker0", 5)
        m = svc.metrics()
        assert m["n_replicas"] == 2 and m["queries_served"] == 2
    finally:
        svc.shutdown()


def test_rank_eval_metrics_brute(tiny_index):
    """rank_eval vs a brute recompute: conjunctive judgments, ES P@k /
    recall / MRR conventions including the no-relevant and absent-term
    edges."""
    from engine.oracle import bm25_scores  # noqa: F401 (fixture parity style)
    from engine.ops.serving import rank_eval
    from engine.query import Bm25Index
    from engine.queries import QUERY_SET
    from engine.tokenize import tokenize_text

    queries = list(QUERY_SET) + [
        {"query_id": "QZ_absent", "text": "zzznotaterm", "k": 5}
    ]
    got = rank_eval(tiny_index, queries, rank_round=9).to_pandas()
    assert list(got["query_id"]) == [q["query_id"] for q in queries]
    bm = Bm25Index(tiny_index)
    for q, row in zip(queries, got.itertuples(index=False)):
        doc, _ = bm.topk(q["text"], q["k"], rank_round=9)
        terms = sorted(set(tokenize_text(q["text"])))
        rel = None
        for t in terms:
            d, _tf = bm.reader.postings(t)
            s = set(d.tolist())
            rel = s if rel is None else rel & s
        rel = rel or set()
        hits = [int(d) in rel for d in doc]
        n_hits = sum(hits)
        assert row.n_relevant == len(rel)
        assert row.n_hits == n_hits
        assert row.p_at_k_r == round(n_hits / q["k"], 6)
        assert row.recall_r == (round(n_hits / len(rel), 6) if rel else 0.0)
        first = hits.index(True) + 1 if n_hits else 0
        assert row.mrr_r == (round(1.0 / first, 6) if first else 0.0)
    # the absent-term query exercises every zero fallback
    z = got.iloc[-1]
    assert (z.n_relevant, z.n_hits, z.p_at_k_r, z.recall_r, z.mrr_r) == (0, 0, 0.0, 0.0, 0.0)


def test_hard_negatives_brute(tiny_index):
    """Hard-negative mining vs brute force: positives = conjunctive set,
    negatives = first non-relevant docs in the full (rounded score, doc)
    ranking, cross product, zero-positive and single-term edges."""
    import numpy as np

    from engine.ops.serving import hard_negatives
    from engine.query import Bm25Index
    from engine.queries import QUERY_SET
    from engine.tokenize import tokenize_text

    queries = list(QUERY_SET) + [
        {"query_id": "QZ_absent", "text": "zzznotaterm", "k": 5}
    ]
    got = hard_negatives(tiny_index, queries, n_neg=2, rank_round=9).to_pandas()
    bm = Bm25Index(tiny_index)
    want_rows = []
    for q in queries:
        doc, score = bm.score_all(q["text"])
        order = np.lexsort((doc, -np.round(score, 9)))
        ranked = doc[order].tolist()
        rel = None
        for t in sorted(set(tokenize_text(q["text"]))):
            d, _tf = bm.reader.postings(t)
            s = set(d.tolist())
            rel = s if rel is None else rel & s
        rel = rel or set()
        if not rel:
            continue
        negs = [(d, r + 1) for r, d in enumerate(ranked) if d not in rel][:2]
        for p in sorted(rel):
            for nd, nr in negs:
                want_rows.append((q["query_id"], p, nd, nr))
    assert [tuple(r) for r in got.itertuples(index=False)] == want_rows
    assert len(got) > 0
    # no negative is ever a positive for its query
    assert not set(map(tuple, got[["query_id", "neg_doc"]].values)) & set(
        map(tuple, got[["query_id", "pos_doc"]].values)
    )


def test_rerank_stub_topk_brute(tiny_index):
    """Rerank serving path vs brute force: hit set preserved (same docs as
    BM25 top-k), stub scores reproducible from md5, rank = (stub desc,
    doc asc) within each query."""
    import numpy as np

    from engine.ops.serving import rerank_stub_topk
    from engine.query import Bm25Index
    from engine.queries import QUERY_SET
    from engine.tokenize import md5_lower64

    got = rerank_stub_topk(tiny_index, QUERY_SET, rank_round=9).to_pandas()
    bm = Bm25Index(tiny_index)
    from engine.docstore import DocStore

    store = DocStore(tiny_index)
    for q in QUERY_SET:
        doc, _ = bm.topk(q["text"], q["k"], rank_round=9)
        sub = got[got["query_id"] == q["query_id"]]
        assert set(sub["doc_id"]) == set(doc.tolist())  # same hit set
        texts = store.texts(doc)
        import pyarrow as pa

        want = []
        for d in doc.tolist():
            h = int(md5_lower64(pa.array([f"{q['query_id']}:{texts[int(d)]}"]))[0])
            want.append((int(d), round((h % 1_000_000) / 1_000_000, 6)))
        want.sort(key=lambda r: (-r[1], r[0]))
        assert list(zip(sub["doc_id"], sub["stub_r"])) == want
        assert sub["rank"].tolist() == list(range(1, len(want) + 1))
