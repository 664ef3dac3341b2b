"""Golden integration tests: distributed engine vs pure-Python oracle.

The StructureIntegrationTest analog ("exactly 788 hits", :151-204): the engine
must produce rank-identical top-k docIDs AND bit/1e-9-identical BM25 scores on
the fixed query set over the deterministic tiny corpus.
"""

import glob

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from engine.oracle import build_oracle_index, topk as oracle_topk
from engine.queries import QUERY_SET
from engine.query import Bm25Index, batch_topk
from engine.segments import SegmentReader, decode_posting


@pytest.fixture(scope="module")
def oracle(tiny_corpus, tiny_index):
    corpus = pq.read_table(tiny_corpus)
    dm = pq.read_table(tiny_index + "/docmap")
    key_to_doc = {
        (c, t): d
        for c, t, d in zip(
            dm["conv_id"].to_pylist(), dm["turn_idx"].to_pylist(), dm["doc_id"].to_pylist()
        )
    }
    doc_ids = [
        key_to_doc[(c, t)]
        for c, t in zip(corpus["conv_id"].to_pylist(), corpus["turn_idx"].to_pylist())
    ]
    return build_oracle_index(doc_ids, corpus["text"].to_pylist())


def test_docid_stable_ordering(tiny_corpus, tiny_index):
    """docIDs dense + ascending in (conv_id, turn_idx) order (FIXTURES §5.2)."""
    dm = pq.read_table(tiny_index + "/docmap").to_pylist()
    dm.sort(key=lambda r: (r["conv_id"], r["turn_idx"]))
    ids = [r["doc_id"] for r in dm]
    assert ids == list(range(len(ids)))


def test_postings_sorted_and_roundtrip(tiny_index):
    """Every posting strictly increasing (FIXTURES §5.3) + df consistency."""
    reader = SegmentReader(tiny_index)
    checked = 0
    for path in sorted(glob.glob(tiny_index + "/segment-*.parquet")):
        seg = pq.read_table(path)
        for i in range(seg.num_rows):
            doc, tf = decode_posting(
                seg["doc_ids_enc"][i].as_py(), seg["tfs_enc"][i].as_py()
            )
            assert len(doc) == seg["df"][i].as_py()
            assert int(tf.sum()) == seg["cf"][i].as_py()
            if len(doc) > 1:
                assert (np.diff(doc) > 0).all()
            assert (tf >= 1).all()
            checked += 1
    assert checked > 100


def test_df_matches_oracle(tiny_index, oracle):
    reader = SegmentReader(tiny_index)
    vocab = reader.vocab_df()
    got = dict(zip(vocab["term"].to_pylist(), vocab["df"].to_pylist()))
    want = oracle.df
    assert got == want


def test_stats_match_oracle(tiny_index, oracle):
    idx = Bm25Index(tiny_index)
    assert idx.n_docs == oracle.n_docs
    assert idx.avgdl == pytest.approx(oracle.avgdl, rel=1e-12)


def test_rank_identity_all_queries(tiny_index, oracle):
    idx = Bm25Index(tiny_index)
    for q in QUERY_SET:
        doc, score = idx.topk(q["text"], q["k"])
        want = oracle_topk(oracle, q["text"], q["k"])
        assert doc.tolist() == [d for d, _ in want], q["query_id"]
        # bit-identical float64 scores (same summation order)
        assert score.tolist() == [s for _, s in want], q["query_id"]


@pytest.fixture(scope="module")
def tiny_index_cat(ray_session, tiny_corpus, tmp_path_factory):
    """Same corpus built WITH the role category column (content-class path).

    docIDs, dl and avgdl are identical to ``tiny_index`` — only the docmap
    gains the category column — so the shared ``oracle`` fixture applies."""
    from engine.build import build_index

    idx = str(tmp_path_factory.mktemp("index") / "tiny_cat")
    build_index(
        tiny_corpus, idx, n_buckets=8, n_salts=4, hot_fraction=0.05,
        category_col="role",
    )
    return idx


def test_role_category_filter_matches_oracle(tiny_index_cat, oracle):
    """Transcripts content-class filter: restricting hits to assistant turns
    via the docmap category column equals the oracle's full scoring filtered
    to the same docID set (rank + bit-identical scores)."""
    from engine.oracle import bm25_scores

    idx = Bm25Index(tiny_index_cat)
    allowed = idx.category_docs("assistant")
    assert len(allowed) > 0
    dm = pq.read_table(tiny_index_cat + "/docmap", columns=["doc_id", "category"])
    want_allowed = sorted(
        d for d, c in zip(dm["doc_id"].to_pylist(), dm["category"].to_pylist())
        if c == "assistant"
    )
    assert allowed.tolist() == want_allowed
    allowed_set = set(want_allowed)
    for q in QUERY_SET:
        doc, score = idx.topk(q["text"], q["k"], allowed=allowed)
        scores = bm25_scores(oracle, q["text"])
        ranked = sorted(
            ((d, s) for d, s in scores.items() if d in allowed_set),
            key=lambda it: (-it[1], it[0]),
        )[: q["k"]]
        assert doc.tolist() == [d for d, _ in ranked], q["query_id"]
        assert score.tolist() == [s for _, s in ranked], q["query_id"]


def test_tie_break_is_doc_ascending(tiny_index, oracle):
    idx = Bm25Index(tiny_index)
    doc, score = idx.topk("w00002", 25)
    for i in range(1, len(doc)):
        assert (score[i - 1], -doc[i - 1]) >= (score[i], -doc[i])


def test_batch_topk_actor_pool(ray_session, tiny_index, oracle):
    res = batch_topk(QUERY_SET, tiny_index, concurrency=2)
    by_q = {}
    for r in res.to_pylist():
        by_q.setdefault(r["query_id"], []).append((r["doc_id"], r["score"]))
    for q in QUERY_SET:
        want = oracle_topk(oracle, q["text"], q["k"])
        got = by_q.get(q["query_id"], [])
        assert [d for d, _ in got] == [d for d, _ in want], q["query_id"]
        assert [s for _, s in got] == [s for _, s in want], q["query_id"]


def test_absent_term_empty(tiny_index):
    idx = Bm25Index(tiny_index)
    doc, score = idx.topk("qqqabsenttermqqq", 10)
    assert len(doc) == 0


def test_conjunctive_blockskip_matches_full_decode(tiny_index):
    """The rarest-first AND intersection must equal an independent
    full-decode intersection (docIDs and bit-exact scores), idf from the
    true df."""
    import math

    import numpy as np

    from engine.query import Bm25Index
    from engine.schema import BM25_B, BM25_K1
    from engine.tokenize import tokenize_text

    def brute(bm, text, k):
        terms = sorted(set(tokenize_text(text)))
        cands = None
        for t in sorted(terms, key=lambda t: (bm.reader.df(t), t)):
            doc, _ = bm.reader.postings(t)
            if not len(doc):
                return np.empty(0, np.int64), np.empty(0)
            cands = doc if cands is None else cands[np.isin(cands, doc, assume_unique=True)]
            if not len(cands):
                return np.empty(0, np.int64), np.empty(0)
        acc = np.zeros(len(cands))
        for t in terms:
            doc, tf = bm.reader.postings(t)
            idf = math.log(1.0 + (bm.n_docs - len(doc) + 0.5) / (len(doc) + 0.5))
            tff = tf[np.searchsorted(doc, cands)].astype(np.float64)
            dl = bm.dl(cands)
            acc += idf * tff * (BM25_K1 + 1.0) / (
                tff + BM25_K1 * (1.0 - BM25_B + BM25_B * dl / bm.avgdl)
            )
        order = np.lexsort((cands, -acc))[:k]
        return cands[order], acc[order]

    ref = Bm25Index(tiny_index)
    for text in ["zqmarker1 zqmarker2", "w00000 zqmarker0", "w00001 w00002",
                 "zqmarker0 qqqabsent", "w00000 w00001 w00002"]:
        fresh = Bm25Index(tiny_index)  # cold: no postings cached yet
        d1, s1 = fresh.conjunctive_topk(text, 10)
        d2, s2 = brute(ref, text, 10)
        np.testing.assert_array_equal(d1, d2, err_msg=text)
        np.testing.assert_array_equal(s1, s2, err_msg=text)


def test_more_like_this_self_retrieval(tiny_corpus, tiny_index):
    """Doc-as-query: a document's own top-tf*idf terms retrieve it at rank 1
    on a corpus where its rare marker dominates the selection."""
    import pyarrow.parquet as pq

    from engine.query import Bm25Index

    bm = Bm25Index(tiny_index)
    dm = pq.read_table(tiny_index + "/docmap")
    key_to_doc = {
        (c, t): d
        for c, t, d in zip(
            dm["conv_id"].to_pylist(), dm["turn_idx"].to_pylist(), dm["doc_id"].to_pylist()
        )
    }
    import glob

    # find a marker-carrying turn (conv idx % stride == 3, turn 0)
    for f in sorted(glob.glob(tiny_corpus + "/*.parquet")):
        tbl = pq.read_table(f, columns=["conv_id", "turn_idx", "text"])
        for c, t, x in zip(
            tbl["conv_id"].to_pylist(), tbl["turn_idx"].to_pylist(), tbl["text"].to_pylist()
        ):
            if "zqmarker" in (x or ""):
                d, s = bm.more_like_this(x, k=5, m=4)
                assert len(d) > 0 and d[0] == key_to_doc[(c, t)]
                assert s[0] >= s[-1] > 0
                return
    raise AssertionError("no marker turn found in tiny corpus")


def _rank(items, k):
    """(doc, score) pairs -> deterministic top-k: score desc, doc asc."""
    return sorted(items, key=lambda x: (-x[1], x[0]))[:k]


def test_topk_after_pages_reassemble(tiny_index):
    """Cursor paging: pages of k concatenated == one 3k top-k, in both exact
    and rounded-ranking modes; cursor past the end yields empty."""
    bm = Bm25Index(tiny_index)
    for q in QUERY_SET:
        for rr in (None, 6):
            k = q["k"]
            d_all, s_all = bm.topk(q["text"], 3 * k, rank_round=rr)
            got_d, got_s = [], []
            cursor = None
            for _ in range(3):
                d, s = bm.topk_after(q["text"], k, cursor, rank_round=rr)
                if not len(d):
                    break
                got_d.extend(d.tolist())
                got_s.extend(s.tolist())
                key = np.round(s[-1:], rr)[0] if rr is not None else s[-1]
                cursor = (float(key), int(d[-1]))
            assert got_d == d_all.tolist(), (q["query_id"], rr)
            np.testing.assert_allclose(got_s, s_all, rtol=0, atol=0)
            if len(d_all) < 3 * k and cursor is not None:
                d, _ = bm.topk_after(q["text"], k, cursor, rank_round=rr)
                assert len(d) == 0


def test_rm3_topk_vs_bruteforce(tiny_corpus, tiny_index, oracle):
    """RM3/Rocchio two-pass == step-by-step brute force: BM25 feedback cut,
    integer tf-mass * idf term selection from stored texts, beta/key_max
    weights, weighted union rescore accumulated in ascending-term order."""
    from collections import Counter

    from engine.oracle import bm25_scores
    from engine.query import Bm25Index
    from engine.tokenize import tokenize_text

    bm = Bm25Index(tiny_index)
    dm = pq.read_table(tiny_index + "/docmap")
    key_to_doc = {
        (c, t): d
        for c, t, d in zip(
            dm["conv_id"].to_pylist(), dm["turn_idx"].to_pylist(), dm["doc_id"].to_pylist()
        )
    }
    corpus = pq.read_table(tiny_corpus)
    doc_text = {
        key_to_doc[(c, t)]: x
        for c, t, x in zip(
            corpus["conv_id"].to_pylist(),
            corpus["turn_idx"].to_pylist(),
            corpus["text"].to_pylist(),
        )
    }
    fb_docs, fb_terms, beta, sel_round, k = 8, 4, 0.5, 9, 12
    hit = 0
    for q in QUERY_SET:
        text = q["text"]
        q_toks = set(tokenize_text(text))
        # stage 1: exact BM25 cut
        s1 = _rank(list(bm25_scores(oracle, text).items()), fb_docs)
        fb = [d for d, _ in s1]
        counts = Counter()
        for d in fb:
            counts.update(tokenize_text(doc_text[d]))
        scored = sorted(
            (-round(n * bm.idf(t), sel_round), t)
            for t, n in counts.items()
            if t not in q_toks and round(n * bm.idf(t), sel_round) > 0
        )
        weights = {t: 1.0 for t in sorted(q_toks) if oracle.postings.get(t)}
        chosen = scored[:fb_terms]
        if chosen:
            key_max = -chosen[0][0]
            for negk, t in chosen:
                weights[t] = beta * (-negk) / key_max
        acc: dict[int, float] = {}
        for t in sorted(weights):  # ascending-term adds, like the engine
            for d, c in bm25_scores(oracle, t).items():
                acc[d] = acc.get(d, 0.0) + weights[t] * c
        want = _rank(list(acc.items()), k)
        d_, s_ = bm.rm3_topk(
            text, k, fb_docs=fb_docs, fb_terms=fb_terms, beta=beta,
            select_round=sel_round,
        )
        if not want:
            assert len(d_) == 0
            continue
        hit += 1
        assert d_.tolist() == [w[0] for w in want], q["query_id"]
        np.testing.assert_allclose(
            s_, [w[1] for w in want], rtol=0, atol=1e-12, err_msg=q["query_id"]
        )
        # expansion actually fired: the candidate pool grew beyond the
        # original query terms' postings union for at least some queries
        if chosen:
            exp_pool = set(acc) - {
                d for t in q_toks for d in oracle.postings.get(t, {})
            }
            hit += bool(exp_pool)
    assert hit >= 4  # >=3 scored queries, >=1 with a widened pool


def test_msm_matches_naive(tiny_index, oracle):
    """topk_msm == naive filter-by-matched-count over the oracle postings,
    for every m from 1 to nt+1 (the +1 case must be empty)."""
    from engine.oracle import bm25_scores

    from engine.tokenize import tokenize_text

    bm = Bm25Index(tiny_index)
    for q in QUERY_SET:
        terms = sorted(set(tokenize_text(q["text"])))
        for m in range(1, len(terms) + 2):
            d, s = bm.topk_msm(q["text"], m, q["k"])
            scores = bm25_scores(oracle, q["text"])
            matched = {
                doc: sum(1 for t in terms if doc in oracle.postings.get(t, {}))
                for doc in scores
            }
            want = _rank([(doc, sc) for doc, sc in scores.items() if matched[doc] >= m], q["k"])
            assert d.tolist() == [w[0] for w in want], (q["query_id"], m)
            assert np.allclose(s, [w[1] for w in want], rtol=0, atol=0), (q["query_id"], m)


def test_msm_one_equals_topk(tiny_index):
    bm = Bm25Index(tiny_index)
    for q in QUERY_SET:
        d1, s1 = bm.topk_msm(q["text"], 1, q["k"])
        d2, s2 = bm._topk_exhaustive(q["text"], q["k"], None)
        assert np.array_equal(d1, d2) and np.array_equal(s1, s2), q["query_id"]


def test_must_not_excludes_only_neg_docs(tiny_index, oracle):
    from engine.oracle import bm25_scores

    bm = Bm25Index(tiny_index)
    for q in QUERY_SET:
        for neg in ("join", "the", "zzzneverzzz"):
            d, s = bm.topk_must_not(q["text"], [neg], q["k"])
            neg_docs = set(oracle.postings.get(neg, {}))
            scores = bm25_scores(oracle, q["text"])
            want = _rank([(doc, sc) for doc, sc in scores.items() if doc not in neg_docs], q["k"])
            assert d.tolist() == [w[0] for w in want], (q["query_id"], neg)
            assert np.allclose(s, [w[1] for w in want], rtol=0, atol=0)
            assert not (set(d.tolist()) & neg_docs)


def test_prefix_terms_and_cap(tiny_index, oracle):
    bm = Bm25Index(tiny_index)
    vocab = sorted(oracle.postings)
    for prefix in ("s", "a", "zz"):
        want = [t for t in vocab if t.startswith(prefix)]
        assert bm.prefix_terms(prefix) == want
    if len(vocab) > 1:
        with pytest.raises(ValueError):
            bm.prefix_terms("", max_terms=1)


def test_suggest_terms_vs_bruteforce(tiny_index, oracle):
    """Did-you-mean == brute force: ed<=1 vocab neighbors of unindexed
    tokens ranked (-df, term); indexed tokens suggest nothing."""

    def ed1(a, b):
        if a == b:
            return True
        la, lb = len(a), len(b)
        if abs(la - lb) > 1:
            return False
        if la == lb:
            return sum(x != y for x, y in zip(a, b)) <= 1
        if la > lb:
            a, b, la, lb = b, a, lb, la
        i = j = miss = 0
        while i < la and j < lb:
            if a[i] == b[j]:
                i += 1
            else:
                miss += 1
                if miss > 1:
                    return False
            j += 1
        return True

    bm = Bm25Index(tiny_index)
    vocab_df = {t: len(p) for t, p in oracle.postings.items()}
    some = sorted(vocab_df)[0]
    probes = [some + "x", some[:-1] or "q", "zz", some]
    checked = 0
    for p in probes:
        got = bm.suggest_terms(p, max_suggestions=5)
        if p in vocab_df:
            assert got == []
            continue
        want = sorted(
            ((-df, t) for t, df in vocab_df.items() if t != p and ed1(p, t)),
        )[:5]
        assert got == [(t, -negdf) for negdf, t in want], p
        checked += 1
    assert checked >= 2


def test_regex_terms_full_match_and_cap(tiny_index, oracle):
    """RegexpQuery surface: RE2 FULL match against the vocab (a substring hit
    alone must not qualify), python-re cross-check, cap enforced."""
    import re

    bm = Bm25Index(tiny_index)
    vocab = sorted(oracle.postings)
    for pattern in ("s.*", ".*a.*", "join|merge", "[a-f]+", "zz+"):
        want = [t for t in vocab if re.fullmatch(pattern, t)]
        assert bm.regex_terms(pattern) == want, pattern
    # full-match semantics: a pattern matching only a strict substring of
    # every vocab term expands to nothing
    inner = {t[1:-1] for t in vocab if len(t) > 2 and t[1:-1]}
    for frag in sorted(inner)[:2]:
        if frag not in vocab:
            assert bm.regex_terms(re.escape(frag)) == []
    if len(vocab) > 1:
        with pytest.raises(ValueError):
            bm.regex_terms(".*", max_terms=1)


def test_category_filter_and_incremental(ray_session, tmp_path):
    """Docmap category sets (resultsContentType analog): category_docs
    resolves the class -> docID set once; filtered top-k equals an explicit
    allowed-set query; ADD carries the category column through the delta."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from engine.build import build_index
    from engine.query import Bm25Index
    from engine.update import add_documents

    docs = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
            "text": pa.array(["apple pie", "apple tart", "apple cake", "banana pie"]),
            "kind": pa.array(["exp", "comp", "exp", "exp"]),
        }
    )
    idx = str(tmp_path / "cat_idx")
    build_index(
        ray.data.from_arrow(docs), idx, id_col="doc_id", n_buckets=4, n_salts=2,
        category_col="kind",
    )
    bm = Bm25Index(idx)
    np.testing.assert_array_equal(bm.category_docs("exp"), [0, 2, 3])
    d1, s1 = bm.topk("apple", 10, allowed=bm.category_docs("exp"))
    d2, s2 = bm.topk("apple", 10, allowed=np.array([0, 2, 3]))
    np.testing.assert_array_equal(d1, d2)
    np.testing.assert_array_equal(np.asarray(s1).view(np.uint64), np.asarray(s2).view(np.uint64))
    assert set(d1) == {0, 2}  # doc 1 is comp, doc 3 has no 'apple'
    # multi-class union
    assert set(bm.category_docs({"exp", "comp"})) == {0, 1, 2, 3}

    delta = pa.table(
        {
            "doc_id": pa.array([9], pa.int64()),
            "text": pa.array(["apple strudel"]),
            "kind": pa.array(["comp"]),
        }
    )
    assert add_documents(idx, ray.data.from_arrow(delta), id_col="doc_id")["added"] == 1
    bm2 = Bm25Index(idx)
    assert set(bm2.category_docs("comp")) == {1, 9}
    d3, _ = bm2.topk("apple", 10, allowed=bm2.category_docs("comp"))
    assert set(d3) == {1, 9}


def test_part_manifest_counts_match_decoded_truth(tiny_index, oracle):
    """The per-part manifest quantities (what transcripts_index_stats reports)
    reconcile with ORACLE-verified ground truth: summed across parts,
    n_postings == sum of oracle df and n_tokens == total token count."""
    from engine import state

    parts = state.committed_parts(tiny_index)
    assert parts
    total_postings = sum(m["n_postings"] for m in parts.values())
    total_tokens = sum(m["n_tokens"] for m in parts.values())
    assert total_postings == sum(oracle.df.values())
    assert total_tokens == sum(oracle.dl.values())


def test_empty_corpus_build_and_query(ray_session, tmp_path):
    """Zero-row corpus: build commits an empty (schema-complete) docmap and
    zero parts; queries return empty instead of raising."""
    import pyarrow as pa
    import ray.data

    from engine.build import build_index

    empty = pa.table(
        {
            "conv_id": pa.array([], pa.string()),
            "turn_idx": pa.array([], pa.int32()),
            "text": pa.array([], pa.string()),
        }
    )
    idx = str(tmp_path / "empty_idx")
    rep = build_index(ray.data.from_arrow(empty), idx, n_buckets=4, n_salts=2, resume=False)
    assert rep["n_docs"] == 0 and rep["n_parts"] == 0
    bm = Bm25Index(idx)
    d, s = bm.topk("anything", 5)
    assert len(d) == 0


def test_read_error_strategy_throw_and_quarantine(tiny_index, tmp_path, caplog):
    """VERDICT r2 #5 (ReadErrorStrategy analog): with one segment file
    corrupted, THROW raises a typed error at query level while QUARANTINE
    logs a warning and serves the remaining parts."""
    import logging
    import os
    import shutil

    from engine.segments import SegmentReadError

    # pick a cold term t1 (single part) + a cold term t2 in a DIFFERENT part
    pristine = SegmentReader(tiny_index)
    hot = pristine.hot_terms
    t1 = t2 = None
    for part in range(pristine.n_buckets * pristine.n_salts):
        pristine._load_meta(part)
        cold = sorted(t for t in pristine._term_code[part] if t not in hot)
        if not cold:
            continue
        if t1 is None:
            t1, bad_part = cold[0], part
        elif t2 is None:
            t2 = cold[0]
            break
    assert t1 and t2

    idx = str(tmp_path / "corrupt_idx")
    shutil.copytree(tiny_index, idx)
    seg = os.path.join(idx, f"segment-{bad_part:05d}.parquet")
    with open(seg, "wb") as f:
        f.write(b"garbage, not a parquet file")

    # (a) THROW (default): typed error at query level
    bm = Bm25Index(idx)
    with pytest.raises(SegmentReadError):
        bm.topk(f"{t1} {t2}", 5)

    # (b) QUARANTINE: one warning, dead part skipped, remaining parts served
    caplog.set_level(logging.WARNING)
    bmq = Bm25Index(idx, read_error_strategy="quarantine")
    d, s = bmq.topk(f"{t1} {t2}", 5)
    assert any("quarantining segment part" in r.message for r in caplog.records)
    assert bmq.reader.df(t1) == 0  # dead part's postings gone
    assert bmq.reader.df(t2) > 0  # other parts still served
    assert len(d) > 0  # t2 hits still ranked
    # quarantined result == pristine index queried for t2 alone
    ref = Bm25Index(tiny_index)
    d2, s2 = ref.topk(t2, 5)
    np.testing.assert_array_equal(d, d2)
    np.testing.assert_allclose(s, s2, rtol=0, atol=0)


def test_raw64_backend_rank_identical(tiny_corpus, tiny_index, tmp_path):
    """Second codec backend end-to-end: an index built with
    postings_codec="raw64" answers every query with bit-identical docIDs and
    scores to the default varint index (the JSON-vs-Colfer backend contract,
    CORE/config/InvertedIndexBackend.java:10-18)."""
    from engine.build import build_index

    idx = str(tmp_path / "raw64_idx")
    rep = build_index(tiny_corpus, idx, n_buckets=8, n_salts=4,
                      hot_fraction=0.05, postings_codec="raw64")
    assert rep["n_docs"] > 0
    ref = Bm25Index(tiny_index)
    raw = Bm25Index(idx)
    assert raw.reader.codec_name == "raw64"
    for q in ("the zqmarker0", "zqmarker0 zqmarker1", "table dup"):
        d1, s1 = ref.topk(q, 10)
        d2, s2 = raw.topk(q, 10)
        np.testing.assert_array_equal(d1, d2)
        np.testing.assert_allclose(s1, s2, rtol=0, atol=0)


def test_exchange_combine_fold_identical(tiny_corpus, tiny_index, tmp_path, monkeypatch):
    """VERDICT r3 #6: the driver-ref-bounding combine fold (engaged when the
    split-task count exceeds exchange.COMBINE_SPLITS) must leave the index
    bit-identical to the unfolded exchange. Forced here with a 1-task window
    so every flush triggers a per-part fold (the fold runs in the driver, so
    patching the module constants reaches it)."""
    from engine import exchange
    from engine.build import build_index

    monkeypatch.setattr(exchange, "SPLIT_GROUP_REFS", 1)
    monkeypatch.setattr(exchange, "COMBINE_SPLITS", 1)
    idx = str(tmp_path / "combined_idx")
    rep = build_index(tiny_corpus, idx, n_buckets=8, n_salts=4, hot_fraction=0.05)
    assert rep["combine_rounds"] >= 1, "fold never engaged — test is vacuous"
    ref = Bm25Index(tiny_index)
    comb = Bm25Index(idx)
    for q in ("the zqmarker0", "zqmarker0 zqmarker1", "table dup", "the"):
        d1, s1 = ref.topk(q, 10)
        d2, s2 = comb.topk(q, 10)
        np.testing.assert_array_equal(d1, d2)
        np.testing.assert_allclose(s1, s2, rtol=0, atol=0)


def test_exchange_outputs_with_and_without_fold(ray_session, monkeypatch):
    """The shared exchange (build, ADD and docID minting all route through
    it) gives every output the same rows whether or not the driver-ref fold
    runs, and each dictionary slice it ships carries only its own values."""
    import ray
    import ray.data

    from engine import exchange as ex

    rng = np.random.default_rng(5)
    n, n_out = 3000, 5
    keys = np.array([f"w{i:03d}" for i in range(200)])[rng.integers(0, 200, n)]
    tbl = pa.table({
        "k": pa.array(keys).dictionary_encode(),
        "s": pa.array([f"row{i}" for i in range(n)]),
        "i": pa.array(np.arange(n)),
    })
    ds = ray.data.from_arrow([tbl.slice(o, 250) for o in range(0, n, 250)])

    def key(t):
        return np.array([int(v[1:]) % n_out for v in t["k"].to_pylist()])

    def run():
        outputs, rounds = ex.exchange(ds, n_out, key)
        rows = []
        for p, refs in enumerate(outputs):
            got = [t for t in ray.get(refs) if t is not None and t.num_rows]
            for t in got:
                for chunk in t["k"].chunks:
                    used = np.unique(chunk.indices.to_numpy(zero_copy_only=False))
                    assert len(used) == len(chunk.dictionary), "foreign dictionary values"
                    assert all(int(v[1:]) % n_out == p for v in chunk.dictionary.to_pylist())
            out = pa.concat_tables(got).sort_by("i")
            rows.append((out["i"].to_pylist(), out["k"].to_pylist(), out["s"].to_pylist()))
        return rows, rounds

    plain, rounds = run()
    assert rounds == 0
    for p, (ids, ks, ss) in enumerate(plain):
        want = np.flatnonzero(np.array([int(v[1:]) % n_out for v in keys]) == p)
        assert ids == want.tolist() and ks == keys[want].tolist()
        assert ss == [f"row{i}" for i in want]
    monkeypatch.setattr(ex, "SPLIT_GROUP_REFS", 1)
    monkeypatch.setattr(ex, "COMBINE_SPLITS", 1)
    folded, rounds = run()
    assert rounds >= 1, "fold never engaged — test is vacuous"
    assert folded == plain


def test_one_part_index_builds_and_adds(ray_session, tmp_path):
    """n_buckets=1, n_salts=1: the exchange's one output comes back from a
    ``num_returns=1`` split as a bare ref, for the build and for ADD."""
    import ray.data

    from engine.build import build_index
    from engine.update import add_documents

    idx = str(tmp_path / "one_part")
    t = pa.table({"doc_id": pa.array([1, 2, 3], pa.int64()),
                  "text": pa.array(["a b", "b c", "c d a"])})
    rep = build_index(ray.data.from_arrow(t), idx, id_col="doc_id", n_buckets=1, n_salts=1)
    assert rep["n_parts"] == 1
    add = pa.table({"doc_id": pa.array([4], pa.int64()), "text": pa.array(["a e"])})
    assert add_documents(idx, ray.data.from_arrow(add), id_col="doc_id")["parts_touched"] == 1
    d, _ = Bm25Index(idx).topk("a", 5)
    assert sorted(d.tolist()) == [1, 3, 4]


def test_pfor_backend_rank_identical(tiny_corpus, tiny_index, tmp_path):
    """Third codec backend (VERDICT r3 #7), block-based: an index built with
    postings_codec="pfor" (FOR 128-blocks + varint tail) answers top-k and
    conjunctive queries with bit-identical docIDs and scores to the default
    varint index."""
    from engine.build import build_index

    idx = str(tmp_path / "pfor_idx")
    rep = build_index(tiny_corpus, idx, n_buckets=8, n_salts=4,
                      hot_fraction=0.05, postings_codec="pfor")
    assert rep["n_docs"] > 0
    ref = Bm25Index(tiny_index)
    pf = Bm25Index(idx)
    assert pf.reader.codec_name == "pfor"
    for q in ("the zqmarker0", "zqmarker0 zqmarker1", "table dup", "the"):
        d1, s1 = ref.topk(q, 10)
        d2, s2 = pf.topk(q, 10)
        np.testing.assert_array_equal(d1, d2)
        np.testing.assert_allclose(s1, s2, rtol=0, atol=0)
        d1, s1 = ref.conjunctive_topk(q, 10)
        d2, s2 = pf.conjunctive_topk(q, 10)
        np.testing.assert_array_equal(d1, d2)
        np.testing.assert_allclose(s1, s2, rtol=0, atol=0)
    # full-decode parity on a term big enough to cross a block boundary
    for t in ("the", "table"):
        p1 = ref.reader.postings(t)
        p2 = pf.reader.postings(t)
        np.testing.assert_array_equal(p1[0], p2[0])
        np.testing.assert_array_equal(p1[1], p2[1])


def test_build_parallelism_invariant(ray_session, tiny_corpus, tmp_path):
    """The scaling criterion's job-identity invariant: the SAME corpus built
    under different input partitionings (hence different task counts /
    arrival orders, the thing that changes between an 8-CPU and a 32-CPU
    cluster) produces a byte-identical index — same per-part payload CRCs,
    same routing contract, same docmap content. Bench --scaling legs are the
    same job by construction, not by luck."""
    import json

    import ray.data

    from engine.build import build_index

    idx_a = str(tmp_path / "par_a")
    idx_b = str(tmp_path / "par_b")
    build_index(tiny_corpus, idx_a, n_buckets="auto", n_salts=4, hot_fraction=0.05)
    # different block structure: one block vs many small blocks
    ds = ray.data.read_parquet(tiny_corpus).repartition(13)
    build_index(ds, idx_b, n_buckets="auto", n_salts=4, hot_fraction=0.05)

    stats_a = json.load(open(idx_a + "/stats.json"))
    stats_b = json.load(open(idx_b + "/stats.json"))
    for key in ("n_docs", "n_postings", "n_buckets", "n_salts", "hot_terms",
                "postings_codec", "avgdl", "n_parts", "n_term_runs"):
        assert stats_a[key] == stats_b[key], key

    from engine.state import committed_parts

    parts_a = committed_parts(idx_a)
    parts_b = committed_parts(idx_b)
    assert sorted(parts_a) == sorted(parts_b)
    assert len(parts_a) > 1
    for p in parts_a:
        assert parts_a[p]["checksum"] == parts_b[p]["checksum"], f"part {p}"
        assert parts_a[p]["n_terms"] == parts_b[p]["n_terms"], f"part {p}"

    import pyarrow.parquet as pq

    dm_a = pq.read_table(idx_a + "/docmap").sort_by("doc_id")
    dm_b = pq.read_table(idx_b + "/docmap").sort_by("doc_id")
    assert dm_a.equals(dm_b)


def test_hot_term_detection_samples_corpus_wide(ray_session):
    """A hot term living ONLY in the tail of the corpus (the
    time/source-correlated layout of a real crawl) must still be detected:
    the sampler is an id-hash gate over the whole corpus, not a prefix
    ``limit()`` (VERDICT r4 #4 — a prefix sample would return zero
    occurrences here and leave one fat part). Also pins determinism: the
    gate is content-derived, so repeated runs agree."""
    import ray.data

    from engine.build import detect_hot_terms

    n, sample = 800, 200
    texts = [f"w{i % 97} x{i}" for i in range(n)]
    for i in range(n - 200, n):  # hot term only in the LAST quarter
        texts[i] += " zzhot"
    ds = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(range(n), pa.int64()), "text": pa.array(texts)})
    )
    hot = detect_hot_terms(ds, "doc_id", "text", sample, hot_fraction=0.05, n_docs=n)
    assert "zzhot" in hot
    # w* terms appear in ~8 docs each (~1% of corpus) — under the 5% cut
    assert not any(t.startswith("w") for t in hot)
    assert detect_hot_terms(ds, "doc_id", "text", sample, hot_fraction=0.05, n_docs=n) == hot


def test_boolean_parser():
    from engine.query import boolean_query_leaves, parse_boolean_query

    # precedence: NOT > AND > OR
    t = parse_boolean_query("a AND b OR c AND NOT d")
    assert t == ("or", [("and", [("term", "a"), ("term", "b")]),
                        ("and", [("term", "c"), ("not", ("term", "d"))])])
    # parens override; terms normalize through the tokenizer
    t2 = parse_boolean_query("A AND (b OR c)")
    assert t2 == ("and", [("term", "a"), ("or", [("term", "b"), ("term", "c")])])
    pos, alls = boolean_query_leaves(
        parse_boolean_query("(key AND NOT dup) OR (dup AND NOT key)")
    )
    assert pos == ["dup", "key"] and alls == ["dup", "key"]
    # double negation flips polarity back
    pos2, _ = boolean_query_leaves(parse_boolean_query("a AND NOT NOT b"))
    assert pos2 == ["a", "b"]
    import pytest as _pt

    for bad in ("a AND NOT", "(a OR b", "a )", "NOT a", "a OR NOT b",
                "NOT (a AND b)", ""):
        with _pt.raises(ValueError):
            parse_boolean_query(bad)


def test_boolean_topk_vs_bruteforce(oracle, tiny_index):
    """boolean_topk == brute-force evaluation of the expression over every
    doc's token set, scored by the pure-Python oracle's positive-leaf sums."""
    from engine.query import (Bm25Index, _eval_bool_tree, boolean_query_leaves,
                              parse_boolean_query)

    bm = Bm25Index(tiny_index)
    exprs = [
        "(the AND table) OR (dup AND zqmarker0)",
        "table AND NOT dup",
        "the AND NOT (table OR dup)",
        "(table AND NOT dup) OR (dup AND NOT table)",
        "table AND zzzabsentzzz",
        "table OR zzzabsentzzz",
    ]
    for expr in exprs:
        tree = parse_boolean_query(expr)
        pos, _ = boolean_query_leaves(tree)
        expected = {}
        for doc_id in oracle.dl:
            present = {t for t in pos if doc_id in oracle.postings.get(t, {})}
            has = lambda t: doc_id in oracle.postings.get(t, {})
            if not _eval_bool_tree(tree, has):
                continue
            score = 0.0
            for t in sorted(present):
                plist = oracle.postings[t]
                df = len(plist)
                idf = np.log(1.0 + (oracle.n_docs - df + 0.5) / (df + 0.5))
                tf = plist[doc_id]
                dl = oracle.dl[doc_id]
                denom = tf + 1.2 * (1.0 - 0.75 + 0.75 * dl / oracle.avgdl)
                score += idf * tf * (1.2 + 1.0) / denom
            if score > 0.0:
                expected[doc_id] = score
        want = sorted(expected.items(), key=lambda it: (-it[1], it[0]))[:10]
        d, s = bm.boolean_topk(expr, 10)
        assert list(d) == [w[0] for w in want], expr
        np.testing.assert_allclose(s, [w[1] for w in want], rtol=0, atol=1e-9)


def test_bm25f_conv_vs_bruteforce(ray_session, tiny_corpus, tmp_path):
    """Conversation-level BM25F == a pure-Python per-conv weighted oracle:
    same conv ranking, scores to 1e-9; dyadic weights keep tf_w/dl_w exact."""
    import glob

    import pyarrow as pa
    import pyarrow.parquet as pq

    from engine.build import build_index
    from engine.convsearch import bm25f_conv_topk, conv_field_stats
    from engine.query import Bm25Index
    from engine.tokenize import tokenize_text

    idx = str(tmp_path / "role_idx")
    build_index(tiny_corpus, idx, n_buckets=8, n_salts=4, hot_fraction=0.05,
                category_col="role")
    weights = {"user": 2.0, "assistant": 1.0, "tool": 0.25}
    stats = conv_field_stats(idx, weights)
    bm = Bm25Index(idx)

    corpus = pa.concat_tables(
        pq.read_table(p) for p in sorted(glob.glob(tiny_corpus + "/*.parquet"))
    )
    rows = sorted(
        zip(
            corpus["conv_id"].to_pylist(),
            corpus["turn_idx"].to_pylist(),
            corpus["role"].to_pylist(),
            corpus["text"].to_pylist(),
        )
    )
    tfw: dict[str, dict[str, float]] = {}
    dlw: dict[str, float] = {}
    for conv, _t, role, text in rows:
        toks = tokenize_text(text or "")
        w = weights[role]
        dlw[conv] = dlw.get(conv, 0.0) + w * len(toks)
        d = tfw.setdefault(conv, {})
        for t in toks:
            d[t] = d.get(t, 0.0) + w
    n = len(dlw)
    avg = sum(dlw.values()) / n
    assert stats["n_convs"] == n and abs(stats["avgdlw"] - avg) == 0.0

    any_hits = 0
    for qtext, k in (("w00000 w00001", 10), ("zqmarker0", 5), ("w00002 zqmarker1", 10),
                     ("zzzabsentzzz", 5)):
        exp = {}
        for t in sorted(set(tokenize_text(qtext))):
            convs_with = [c for c in tfw if t in tfw[c]]
            df = len(convs_with)
            if not df:
                continue
            idf = np.log(1.0 + (n - df + 0.5) / (df + 0.5))
            for c in convs_with:
                x = tfw[c][t]
                denom = x + 1.2 * (1.0 - 0.75 + 0.75 * dlw[c] / avg)
                exp[c] = exp.get(c, 0.0) + idf * x * (1.2 + 1.0) / denom
        want = sorted(exp.items(), key=lambda it: (-it[1], it[0]))[:k]
        c, s = bm25f_conv_topk(bm, stats, qtext, k)
        assert [str(x) for x in c] == [w_[0] for w_ in want], qtext
        np.testing.assert_allclose(s, [w_[1] for w_ in want], rtol=0, atol=1e-9)
        any_hits += len(want)
    assert any_hits > 10  # the non-absent queries must actually rank convs


def test_collapse_topk_vs_bruteforce(tiny_index):
    """Field collapsing (one best turn per conversation): engine's
    conv-start searchsorted grouping must equal a brute-force pandas
    group-best over the full score set, including rounded-score ties
    (lowest docID wins) and the cross-file docmap seam."""
    import pandas as pd

    bm = Bm25Index(tiny_index)
    dm = pq.read_table(tiny_index + "/docmap", columns=["doc_id", "conv_id"])
    conv_of = dict(zip(dm["doc_id"].to_pylist(), dm["conv_id"].to_pylist()))
    for q in QUERY_SET:
        doc, score = bm.score_all(q["text"])
        convs, dids, scores = bm.collapse_topk(q["text"], q["k"], rank_round=9)
        if not len(doc):
            assert convs == []
            continue
        df = pd.DataFrame(
            {
                "doc": doc,
                "key": np.round(score, 9),
                "score": score,
                "conv": [conv_of[int(d)] for d in doc],
            }
        ).sort_values(["key", "doc"], ascending=[False, True], kind="stable")
        best = df.groupby("conv", sort=False).head(1)
        best = best.sort_values(["key", "doc"], ascending=[False, True], kind="stable")
        exp = best.head(q["k"])
        assert dids.tolist() == exp["doc"].tolist()
        assert convs == exp["conv"].tolist()
        np.testing.assert_allclose(scores, exp["score"].to_numpy(), rtol=0, atol=0)
        # every returned conv is distinct
        assert len(set(convs)) == len(convs)


def test_significant_terms_vs_bruteforce(tiny_index, tiny_corpus):
    """significant_terms (JLH foreground-vs-background): engine's
    docstore-hydrated foreground recount + segment-metadata background df
    must equal a brute-force recomputation from the raw corpus — candidate
    floor, exact fg/bg counts, JLH float values, and the rounded-score/term
    tiebreak order."""
    from collections import Counter

    from engine.tokenize import tokenize_text

    bm = Bm25Index(tiny_index)
    corpus = pq.read_table(tiny_corpus).sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending")]
    )
    tokens_of = [set(tokenize_text(t or "")) for t in corpus["text"].to_pylist()]
    n_docs = len(tokens_of)
    bg_df: Counter = Counter()
    for s in tokens_of:
        bg_df.update(s)

    k_docs, top_terms, min_dc = 7, 5, 2
    any_terms = 0
    for q in QUERY_SET:
        doc, score = bm.score_all(q["text"])
        terms, fg, bg, sc = bm.significant_terms(
            q["text"], k_docs=k_docs, top_terms=top_terms,
            min_doc_count=min_dc, rank_round=9,
        )
        if not len(doc):
            assert terms == []
            continue
        key = np.round(score, 9)
        order = np.lexsort((doc, -key))[:k_docs]
        fgdocs = doc[order]
        n_fg = len(fgdocs)
        fgc: Counter = Counter()
        for d in fgdocs:
            fgc.update(tokens_of[int(d)])
        exp = []
        for t in sorted(t for t, c in fgc.items() if c >= min_dc):
            fgr = fgc[t] / n_fg
            bgr = bg_df[t] / n_docs
            exp.append((t, fgc[t], bg_df[t], (fgr - bgr) * (fgr / bgr)))
        exp.sort(key=lambda e: (-round(e[3], 9), e[0]))
        exp = exp[:top_terms]
        assert terms == [e[0] for e in exp], q["query_id"]
        assert fg.tolist() == [e[1] for e in exp]
        assert bg.tolist() == [e[2] for e in exp]
        np.testing.assert_allclose(sc, [e[3] for e in exp], rtol=0, atol=0)
        any_terms += len(terms)
    assert any_terms > 10  # non-absent queries must surface terms


def test_match_stats_vs_bruteforce(tiny_index, tiny_corpus):
    """Count + conversation cardinality: postings-union turn counts and the
    conv-start searchsorted attribution must equal raw-corpus brute force."""
    from engine.tokenize import tokenize_text

    bm = Bm25Index(tiny_index)
    corpus = pq.read_table(tiny_corpus).sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending")]
    )
    tokens_of = [set(tokenize_text(t or "")) for t in corpus["text"].to_pylist()]
    convs = corpus["conv_id"].to_pylist()
    nonzero = 0
    for q in QUERY_SET:
        terms = set(tokenize_text(q["text"]))
        hits = [i for i, s in enumerate(tokens_of) if s & terms]
        n_t, n_c = bm.match_stats(q["text"])
        assert n_t == len(hits), q["query_id"]
        assert n_c == len({convs[i] for i in hits})
        nonzero += n_t > 0
    assert nonzero >= 10


def test_top_hits_grouped_vs_bruteforce(tiny_index_cat):
    """Grouped top-hits (terms agg + top_hits): per-category rankings must
    equal a brute-force per-category cut of the full score set, with exact
    scores and the rounded-key/doc tiebreak."""
    import pandas as pd

    bm = Bm25Index(tiny_index_cat)
    dm = pq.read_table(tiny_index_cat + "/docmap", columns=["doc_id", "category"])
    cat_of = dict(zip(dm["doc_id"].to_pylist(), dm["category"].to_pylist()))
    assert bm.categories() == sorted(set(cat_of.values()))
    any_rows = 0
    for q in QUERY_SET:
        doc, score = bm.score_all(q["text"])
        c, r, d, s = bm.top_hits_grouped(q["text"], 3, rank_round=9)
        if not len(doc):
            assert len(d) == 0
            continue
        df = pd.DataFrame(
            {
                "doc": doc,
                "key": np.round(score, 9),
                "score": score,
                "cat": [cat_of[int(x)] for x in doc],
            }
        ).sort_values(
            ["cat", "key", "doc"], ascending=[True, False, True], kind="stable"
        )
        exp = df.groupby("cat", sort=True).head(3).copy()
        exp["rank"] = exp.groupby("cat").cumcount() + 1
        got = sorted(zip(c, r.tolist(), d.tolist(), s.tolist()))
        want = sorted(
            zip(exp["cat"], exp["rank"], exp["doc"], exp["score"])
        )
        assert [g[:3] for g in got] == [w[:3] for w in want], q["query_id"]
        assert all(g[3] == w[3] for g, w in zip(got, want))  # exact floats
        any_rows += len(got)
    assert any_rows > 50


def test_dismax_and_explain_vs_bruteforce(tiny_index):
    """DisjunctionMax ranking and the explain breakdown: per-(doc, term)
    contributions recomputed independently from raw postings must (a) combine
    to bit-identical dismax scores and ordering, and (b) appear verbatim in
    explain rows, which per doc must sum back to the score_all score."""
    import math

    from engine.schema import BM25_B, BM25_K1
    from engine.tokenize import tokenize_text

    bm = Bm25Index(tiny_index)
    any_hits = 0
    for q in QUERY_SET:
        terms = sorted(set(tokenize_text(q["text"])))
        contrib_of: dict[int, dict[str, float]] = {}
        for t in terms:
            pdoc, ptf = bm.reader.postings(t)
            if not len(pdoc):
                continue
            df = len(pdoc)
            # math.log, not np.log: the engine's scalar idf uses libm and the
            # two can differ by one ULP on some inputs
            idf = math.log(1.0 + (bm.n_docs - df + 0.5) / (df + 0.5))
            tff = ptf.astype(np.float64)
            c = idf * tff * (BM25_K1 + 1.0) / (
                tff + BM25_K1 * (1.0 - BM25_B + BM25_B * bm.dl(pdoc) / bm.avgdl)
            )
            for dd, cc in zip(pdoc.tolist(), c.tolist()):
                contrib_of.setdefault(dd, {})[t] = cc
        # dismax brute force: ascending-term sum (dict insertion order), max
        exp = {}
        for dd, cs in contrib_of.items():
            vals = list(cs.values())
            ssum = np.float64(0.0)
            for v in vals:
                ssum = ssum + v
            smax = max(vals)
            exp[dd] = smax + 0.25 * (ssum - smax)
        want = sorted(exp.items(), key=lambda it: (-round(it[1], 9), it[0]))[: q["k"]]
        d, s = bm.dismax_topk(q["text"], q["k"], tie_breaker=0.25, rank_round=9)
        assert d.tolist() == [w[0] for w in want], q["query_id"]
        np.testing.assert_allclose(s, [w[1] for w in want], rtol=0, atol=0)

        # explain: rows == brute-force contribs for the top-k docs, and per
        # doc they sum back (ascending term order) to the score_all score
        td, ts = bm.topk(q["text"], q["k"], rank_round=9)
        ed, er, et, ec = bm.explain(q["text"], q["k"], rank_round=9)
        got = {(int(dd), t): c for dd, t, c in zip(ed.tolist(), et, ec.tolist())}
        exp_rows = {
            (dd, t): c
            for dd in td.tolist()
            for t, c in contrib_of.get(int(dd), {}).items()
        }
        assert got == exp_rows
        rank_of = {int(x): r for r, x in enumerate(td.tolist(), 1)}
        assert all(rank_of[int(dd)] == r for dd, r in zip(ed.tolist(), er.tolist()))
        for dd, sc in zip(td.tolist(), ts.tolist()):
            acc = np.float64(0.0)
            for t in sorted(contrib_of.get(int(dd), {})):
                acc = acc + contrib_of[int(dd)][t]
            assert acc == sc
        any_hits += len(td)
    assert any_hits > 40


def test_time_serving_vs_bruteforce(tiny_index, tiny_corpus):
    """date_histogram + recency rescore: the broadcast-key-set corpus lookup
    must hydrate exactly the right timestamp per hit (doc_id -> (conv_id,
    turn_idx) -> corpus row), day buckets and decay-combined rankings must
    equal a brute-force recomputation over the raw corpus."""
    from collections import Counter

    import pyarrow as pa

    from engine.ops.serving import DAY_US, hits_date_histogram, rescore_recency

    bm = Bm25Index(tiny_index)
    corpus = pq.read_table(tiny_corpus).sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending")]
    )
    ts_us = corpus["ts"].cast(pa.int64()).to_pylist()  # index == doc_id
    tref = max(ts_us)
    k_docs, window, decay_days = 7, 9, 30
    D = np.int64(decay_days) * DAY_US

    hist = hits_date_histogram(bm, tiny_corpus, QUERY_SET, k_docs=k_docs, rank_round=9)
    exp_hist = set()
    exp_resc = []
    for q in QUERY_SET:
        doc, score = bm.score_all(q["text"])
        if not len(doc):
            continue
        key = np.round(score, 9)
        order = np.lexsort((doc, -key))
        top = doc[order][:k_docs]
        for day, c in Counter(int(ts_us[int(d)]) // DAY_US for d in top).items():
            exp_hist.add((q["query_id"], int(day), c))
        # rescore brute force: window cut, exact decay, re-rank, k cut
        wd, ws = doc[order][:window], score[order][:window]
        age = tref - np.array([ts_us[int(d)] for d in wd], dtype=np.int64)
        comb = ws * (np.float64(D) / (D + age).astype(np.float64))
        o2 = np.lexsort((wd, -np.round(comb, 9)))[: q["k"]]
        for r, i in enumerate(o2, 1):
            exp_resc.append((q["query_id"], r, int(wd[i]), comb[i], ws[i]))
    got_hist = set(
        zip(
            hist["query_id"].to_pylist(),
            hist["day_idx"].to_pylist(),
            hist["n_hits"].to_pylist(),
        )
    )
    assert got_hist == exp_hist and len(got_hist) > 5

    t = rescore_recency(
        bm, tiny_corpus, QUERY_SET, window=window, decay_days=decay_days, rank_round=9
    )
    got_resc = list(
        zip(
            t["query_id"].to_pylist(),
            t["rank"].to_pylist(),
            t["doc_id"].to_pylist(),
            t["combined"].to_pylist(),
            t["score"].to_pylist(),
        )
    )
    exp_resc.sort(key=lambda r: (r[0], r[1]))
    got_resc.sort(key=lambda r: (r[0], r[1]))
    assert len(got_resc) == len(exp_resc) > 20
    for g, e in zip(got_resc, exp_resc):
        assert g[:3] == e[:3]
        assert g[3] == e[3] and g[4] == e[4]  # bit-identical floats
    # recency must actually reorder at least one query's ranking
    base = {}
    for q in QUERY_SET:
        d, _ = bm.topk(q["text"], q["k"], rank_round=9)
        base[q["query_id"]] = d.tolist()
    reordered = any(
        [r[2] for r in got_resc if r[0] == qid] != base[qid][: len([r for r in got_resc if r[0] == qid])]
        for qid in base
    )
    assert reordered


def test_boosted_topk_vs_bruteforce(tiny_index, oracle):
    """boosted_topk == per-term boost * BM25 contribution summed in ascending
    term order, bit-identically (the Lucene term^boost surface)."""
    import math

    from engine.schema import BM25_B, BM25_K1
    from engine.tokenize import tokenize_text

    bm = Bm25Index(tiny_index)
    for q in QUERY_SET:
        terms = sorted(set(tokenize_text(q["text"])))
        boosts = {t: 1.0 + 0.5 * (i % 3) for i, t in enumerate(terms)}
        scores: dict[int, float] = {}
        for t in terms:
            plist = oracle.postings.get(t)
            if not plist:
                continue
            df = len(plist)
            idf = math.log(1.0 + (oracle.n_docs - df + 0.5) / (df + 0.5))
            for d, tf in plist.items():
                dl = oracle.dl[d]
                contrib = idf * tf * (BM25_K1 + 1.0) / (
                    tf + BM25_K1 * (1.0 - BM25_B + BM25_B * dl / oracle.avgdl)
                )
                scores[d] = scores.get(d, 0.0) + boosts[t] * contrib
        expect = sorted(scores.items(), key=lambda it: (-it[1], it[0]))[: q["k"]]
        d, s = bm.boosted_topk(boosts, q["k"])
        assert d.tolist() == [x for x, _ in expect], q["query_id"]
        assert s.tolist() == [y for _, y in expect], q["query_id"]  # bit-identical


def test_boosted_topk_rejects_nonpositive(tiny_index):
    bm = Bm25Index(tiny_index)
    with pytest.raises(ValueError):
        bm.boosted_topk({"w00000": 0.0}, 5)
    with pytest.raises(ValueError):
        bm.boosted_topk({}, 5)


def test_synonym_topk_vs_bruteforce(tiny_index, oracle):
    """synonym_topk == Lucene SynonymQuery blended scoring: per group,
    tf = SUM of member tfs per doc, df = MAX member df, one contribution per
    group per doc, groups summed in ascending group-key order."""
    import math

    from engine.schema import BM25_B, BM25_K1

    bm = Bm25Index(tiny_index)
    cases = [
        # genuine synonyms (head + rare marker fused), absent member, all-absent group
        [["w00000", "zqmarker0"], ["w00001", "qqqabsenttermqqq"]],
        [["zqmarker1", "zqmarker2"]],
        [["w00010", "w00200"], ["w03000", "w40000"], ["w00001"]],
        [["qqqabsenttermqqq", "zzzneverzzz"]],
        [["w00002", "w00002", "w00003"]],  # duplicate member collapses
    ]
    for groups in cases:
        gs = sorted({tuple(sorted(set(g))) for g in groups if g})
        scores: dict[int, float] = {}
        for members in gs:
            tf_sum: dict[int, int] = {}
            dfs = []
            for t in members:
                plist = oracle.postings.get(t)
                if not plist:
                    continue
                dfs.append(len(plist))
                for d, tf in plist.items():
                    tf_sum[d] = tf_sum.get(d, 0) + tf
            if not dfs:
                continue
            dfb = max(dfs)
            idf = math.log(1.0 + (oracle.n_docs - dfb + 0.5) / (dfb + 0.5))
            for d, tfs in tf_sum.items():
                dl = oracle.dl[d]
                contrib = idf * tfs * (BM25_K1 + 1.0) / (
                    tfs + BM25_K1 * (1.0 - BM25_B + BM25_B * dl / oracle.avgdl)
                )
                scores[d] = scores.get(d, 0.0) + contrib
        expect = sorted(scores.items(), key=lambda it: (-it[1], it[0]))[:15]
        d, s = bm.synonym_topk(groups, 15)
        assert d.tolist() == [x for x, _ in expect], groups
        assert s.tolist() == [y for _, y in expect], groups  # bit-identical


def test_synonym_blending_differs_from_plain_or(tiny_index, oracle):
    """A doc matching BOTH members of a group must NOT get two idf credits:
    blended score uses max-df idf over the summed tf, which differs from the
    two-term OR sum whenever dfs differ and a doc matches both."""
    bm = Bm25Index(tiny_index)
    k_all = bm.n_docs  # full candidate set, no top-k truncation
    d_syn, s_syn = bm.synonym_topk([["w00000", "zqmarker0"]], k_all)
    d_or, s_or = bm.topk("w00000 zqmarker0", k_all)
    syn = dict(zip(d_syn.tolist(), s_syn.tolist()))
    orr = dict(zip(d_or.tolist(), s_or.tolist()))
    assert set(syn) == set(orr)  # same match set, different scoring
    # any doc matching the RARE member scores through the blended (max-df)
    # idf instead of its own high idf — strictly lower than the OR score
    rare_docs = set(oracle.postings["zqmarker0"])
    assert rare_docs
    assert all(syn[d] < orr[d] - 1e-9 for d in rare_docs)


def test_suggest_complete_vs_bruteforce(tiny_index, oracle):
    """Completion suggester == vocab prefix filter ranked (-df, term)."""
    bm = Bm25Index(tiny_index)
    vocab_df = {t: len(p) for t, p in oracle.postings.items()}
    for prefix, k in [("w000", 5), ("zq", 10), ("w", 7), ("nope", 3)]:
        expect = sorted(
            ((-df, t) for t, df in vocab_df.items() if t.startswith(prefix))
        )[:k]
        got = bm.suggest_complete(prefix, k)
        assert got == [(t, -negdf) for negdf, t in expect], prefix
    with pytest.raises(ValueError):
        bm.suggest_complete("", 5)


def test_sort_by_field_vs_bruteforce(tiny_corpus, tmp_path_factory, oracle):
    """Field-sorted retrieval (ES sort:[{ts:desc}]): ANY-term match set
    ordered (ts desc, doc_id asc) through the docvalues column stored in
    the docmap at build time — never re-reading the corpus at query time."""
    import numpy as np

    from engine.build import build_index

    idx = str(tmp_path_factory.mktemp("dv") / "ts_idx")
    build_index(tiny_corpus, idx, n_buckets=8, n_salts=2, docvalues=["ts"])
    corpus = pq.read_table(tiny_corpus, columns=["conv_id", "turn_idx", "ts"])
    dm = pq.read_table(idx + "/docmap", columns=["conv_id", "turn_idx", "doc_id"])
    key_to_doc = {
        (c, t): d
        for c, t, d in zip(
            dm["conv_id"].to_pylist(), dm["turn_idx"].to_pylist(), dm["doc_id"].to_pylist()
        )
    }
    ts_us = {
        key_to_doc[(c, t)]: v
        for c, t, v in zip(
            corpus["conv_id"].to_pylist(),
            corpus["turn_idx"].to_pylist(),
            corpus["ts"].cast("int64").to_pylist(),
        )
    }
    bm = Bm25Index(idx)
    from engine.tokenize import tokenize_text

    def match_set(q):
        match = set()
        for t in set(tokenize_text(q)):
            match |= set(oracle.postings.get(t, ()))
        return match

    for q, k in [("w00000", 7), ("zqmarker0 w00001", 5), ("w00002", 10**6)]:
        full = sorted(match_set(q), key=lambda d: (-ts_us[d], d))
        expect = full[:k]
        d, v = bm.topk_by_field(q, "ts", k)
        assert d.tolist() == expect, q
        assert v.tolist() == [ts_us[d_] for d_ in expect], q
        # search_after cursor: page 2 == the global ordering's next k-window
        if len(full) > k:
            d2, v2 = bm.topk_by_field(q, "ts", k, after=(int(v[-1]), int(d[-1])))
            assert d2.tolist() == full[k : 2 * k], q
    # absent term -> empty, not an error
    d, v = bm.topk_by_field("qqqabsentqqq", "ts", 5)
    assert len(d) == 0 and len(v) == 0

    # metric aggregation: (n, min, max) over the match set
    for q in ("w00000", "zqmarker0 w00001", "qqqabsentqqq"):
        ms = match_set(q)
        n, lo, hi = bm.field_stats(q, "ts")
        assert n == len(ms)
        if ms:
            assert lo == min(ts_us[d] for d in ms) and hi == max(ts_us[d] for d in ms)
        else:
            assert lo is None and hi is None

    # non-scoring range filter: same BM25 scores, match set cut to the window,
    # ranking within the window exact (filter applied before truncation)
    all_ts = sorted(ts_us.values())
    lo, hi = all_ts[len(all_ts) // 4], all_ts[3 * len(all_ts) // 4]
    for q, k in [("w00000", 5), ("zqmarker0 w00001", 8)]:
        d, s = bm.topk(q, k, field_range=("ts", lo, hi))
        filt = [
            (dd, ss) for dd, ss in oracle_topk(oracle, q, 10**9)
            if lo <= ts_us[dd] <= hi
        ][:k]
        assert d.tolist() == [x for x, _ in filt], q
        assert np.allclose(s, [y for _, y in filt], rtol=0, atol=1e-9), q


def test_term_vectors_vs_bruteforce(tiny_index, tiny_corpus, oracle):
    """_termvectors surface: per-doc tf == Counter over the stored text,
    df == the oracle's posting-list length; absent docIDs omitted."""
    from collections import Counter

    from engine.tokenize import tokenize_text

    bm = Bm25Index(tiny_index)
    ids = [0, 3, 11, 10**9]  # last one absent
    tv = bm.term_vectors(ids).to_pylist()
    assert {r["doc_id"] for r in tv} == {0, 3, 11}
    corpus = pq.read_table(tiny_corpus)
    dm = pq.read_table(tiny_index + "/docmap", columns=["conv_id", "turn_idx", "doc_id"])
    key_to_doc = {
        (c, t): d
        for c, t, d in zip(
            dm["conv_id"].to_pylist(), dm["turn_idx"].to_pylist(), dm["doc_id"].to_pylist()
        )
    }
    text_of = {
        key_to_doc[(c, t)]: x
        for c, t, x in zip(
            corpus["conv_id"].to_pylist(),
            corpus["turn_idx"].to_pylist(),
            corpus["text"].to_pylist(),
        )
    }
    for d in (0, 3, 11):
        mine = {(r["term"], r["tf"], r["df"]) for r in tv if r["doc_id"] == d}
        want = {
            (t, n, len(oracle.postings[t]))
            for t, n in Counter(tokenize_text(text_of[d])).items()
        }
        assert mine == want, d


def test_conv_joint_topk_vs_bruteforce(tiny_index_cat):
    """Parent/child conversation join (has_child): engine's two-sided
    collapse + conv-ordinal intersect must equal a brute-force pandas
    recompute — per-role best turn by (rounded score desc, doc asc), inner
    join on conv, score sum, (rounded sum desc, conv asc) ranking."""
    import pandas as pd

    bm = Bm25Index(tiny_index_cat)
    dm = pq.read_table(
        tiny_index_cat + "/docmap", columns=["doc_id", "conv_id", "category"]
    )
    conv_of = dict(zip(dm["doc_id"].to_pylist(), dm["conv_id"].to_pylist()))
    role_of = dict(zip(dm["doc_id"].to_pylist(), dm["category"].to_pylist()))
    saw_nonempty = False
    for q in QUERY_SET:
        convs, pdoc, cdoc, total = bm.conv_joint_topk(
            q["text"], q["text"], "user", "assistant", q["k"], rank_round=9
        )
        doc, score = bm.score_all(q["text"])
        if not len(doc):
            assert convs == []
            continue
        df = pd.DataFrame(
            {
                "doc": doc,
                "key": np.round(score, 9),
                "score": score,
                "conv": [conv_of[int(d)] for d in doc],
                "role": [role_of[int(d)] for d in doc],
            }
        ).sort_values(["key", "doc"], ascending=[False, True], kind="stable")
        reps = {
            r: df[df["role"] == r].groupby("conv", sort=False).head(1)
            for r in ("user", "assistant")
        }
        j = reps["user"].merge(
            reps["assistant"], on="conv", suffixes=("_p", "_c")
        )
        if j.empty:
            assert convs == []
            continue
        saw_nonempty = True
        j["total"] = j["score_p"] + j["score_c"]
        j["tkey"] = np.round(j["total"], 9)
        j = j.sort_values(["tkey", "conv"], ascending=[False, True], kind="stable")
        exp = j.head(q["k"])
        assert convs == exp["conv"].tolist(), q["query_id"]
        assert pdoc.tolist() == exp["doc_p"].tolist()
        assert cdoc.tolist() == exp["doc_c"].tolist()
        np.testing.assert_allclose(total, exp["total"].to_numpy(), rtol=0, atol=0)
        # every conv appears once, and both reps really match their roles
        assert len(set(convs)) == len(convs)
        assert all(role_of[int(d)] == "user" for d in pdoc)
        assert all(role_of[int(d)] == "assistant" for d in cdoc)
    assert saw_nonempty
