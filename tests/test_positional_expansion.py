"""Positional payloads (J4) + query expansion (Q1/Q2) tests.

J4 analog: the reference's postings carry per-occurrence identifier payloads
(domain/bucket/ArrayBucket.java:31-34 ``identifierData``) consumed by the
path-overlap join (domain/result/TargetStructure.java:78-111); ours carry
token positions consumed by phrase matching. Q1/Q2 analog: tolerance
expansion / position-specific exchanges (ResiduePairOccurrence.java:166-227)
become per-slot OR-groups scored as sum-over-slots of the max variant
contribution. All asserted against independent pure-Python oracles.
"""

import math
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from engine.schema import BM25_B, BM25_K1
from engine.tokenize import tokenize_text


@pytest.fixture(scope="module")
def pos_index(ray_session, tiny_corpus, tmp_path_factory):
    from engine.build import build_index

    idx = str(tmp_path_factory.mktemp("index") / "tiny_pos")
    build_index(
        tiny_corpus, idx, n_buckets=8, n_salts=4, hot_fraction=0.05, positions=True
    )
    return idx


@pytest.fixture(scope="module")
def doc_tokens(tiny_corpus, pos_index):
    """doc_id -> token list, via the docmap's key<->docID contract."""
    import glob

    dm = pq.read_table(pos_index + "/docmap")
    key_to_doc = {
        (c, t): d
        for c, t, d in zip(
            dm["conv_id"].to_pylist(), dm["turn_idx"].to_pylist(), dm["doc_id"].to_pylist()
        )
    }
    out = {}
    for f in sorted(glob.glob(tiny_corpus + "/*.parquet")):
        tbl = pq.read_table(f, columns=["conv_id", "turn_idx", "text"])
        for c, t, x in zip(
            tbl["conv_id"].to_pylist(), tbl["turn_idx"].to_pylist(), tbl["text"].to_pylist()
        ):
            out[key_to_doc[(c, t)]] = tokenize_text(x or "")
    return out


def test_positions_roundtrip(pos_index, doc_tokens):
    """positions_lookup returns exactly each doc's ascending token offsets."""
    from engine.segments import SegmentReader

    reader = SegmentReader(pos_index)
    vocab = reader.vocab_df()
    terms = sorted(vocab["term"].to_pylist())
    # a deterministic spread: rarest, densest, and a stride through the middle
    by_df = sorted(zip(vocab["df"].to_pylist(), vocab["term"].to_pylist()))
    sample = {by_df[0][1], by_df[-1][1], *(t for _, t in by_df[:: max(1, len(by_df) // 25)])}
    all_docs = np.array(sorted(doc_tokens), dtype=np.int64)
    checked = 0
    for term in sorted(sample):
        got = reader.positions_lookup(term, all_docs)
        for j, d in enumerate(all_docs):
            want = [i for i, tok in enumerate(doc_tokens[int(d)]) if tok == term]
            assert got[j].tolist() == want, (term, int(d))
            checked += len(want)
    assert checked > 100


def _oracle_phrase(doc_tokens, phrase):
    seq = tokenize_text(phrase)
    out = {}
    for d, toks in doc_tokens.items():
        n = sum(
            1
            for i in range(len(toks) - len(seq) + 1)
            if toks[i : i + len(seq)] == seq
        )
        if n:
            out[d] = n
    return out


def test_phrase_match_vs_oracle(pos_index, doc_tokens):
    from engine.query import Bm25Index

    bm = Bm25Index(pos_index)
    # real bigrams/trigrams harvested deterministically from the corpus itself
    some = doc_tokens[min(doc_tokens)]
    phrases = [
        " ".join(some[0:2]),
        " ".join(some[1:4]),
        "w00000 w00001",
        "w00000 w00000",  # repeated token: overlapping occurrences count
        "zzzabsent phrase never",
    ]
    any_hits = 0
    for p in phrases:
        d, n = bm.phrase_match(p)
        want = _oracle_phrase(doc_tokens, p)
        got = dict(zip(d.tolist(), n.tolist()))
        assert got == want, p
        assert list(d) == sorted(d)  # ascending docID contract
        any_hits += len(got)
    assert any_hits > 0  # the harvested phrases must actually occur


def test_phrase_single_term_equals_tf(pos_index, doc_tokens):
    """Degenerate 1-token phrase == plain tf posting."""
    from engine.query import Bm25Index
    from engine.segments import SegmentReader

    bm = Bm25Index(pos_index)
    reader = SegmentReader(pos_index)
    term = sorted(reader.vocab_df()["term"].to_pylist())[0]
    d, n = bm.phrase_match(term)
    pd_, pt = reader.postings(term)
    np.testing.assert_array_equal(d, pd_)
    np.testing.assert_array_equal(n, pt.astype(np.int64))


def _oracle_expanded(doc_tokens, slots, k):
    """Pure-Python sum-over-slots of max-variant BM25 contribution."""
    n_docs = len(doc_tokens)
    dl = {d: len(t) for d, t in doc_tokens.items()}
    avgdl = sum(dl.values()) / n_docs
    tf = {}
    for d, toks in doc_tokens.items():
        for t in toks:
            tf.setdefault(t, {})
            tf[t][d] = tf[t].get(d, 0) + 1
    scores = {}
    for slot in slots:
        best = {}
        for t in sorted(set(slot)):
            plist = tf.get(t)
            if not plist:
                continue
            df = len(plist)
            idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
            for d, f in plist.items():
                denom = f + BM25_K1 * (1.0 - BM25_B + BM25_B * dl[d] / avgdl)
                c = idf * f * (BM25_K1 + 1.0) / denom
                if c > best.get(d, -1.0):
                    best[d] = c
        for d, c in best.items():
            scores[d] = scores.get(d, 0.0) + c
    ranked = sorted(scores.items(), key=lambda it: (-it[1], it[0]))[:k]
    return ranked


EXP_CASES = [
    [["w00000", "w00001"], ["w00002", "w00003", "w00004"]],
    [["w00777"], ["w00000"]],
    [["w00010", "w00011", "w00012"]],
    [["w00000"], ["zzzabsentzzz", "w00005"], ["w00020", "w00021"]],
]


def test_expanded_vs_oracle(pos_index, doc_tokens):
    from engine.query import Bm25Index

    bm = Bm25Index(pos_index)
    hits = 0
    for slots in EXP_CASES:
        d, s = bm.expanded_topk(slots, 12)
        want = _oracle_expanded(doc_tokens, slots, 12)
        assert d.tolist() == [x for x, _ in want], slots
        np.testing.assert_allclose(s, [y for _, y in want], rtol=1e-12)
        hits += len(d)
    assert hits > 0


def test_expanded_single_variant_equals_topk(pos_index):
    """One slot x one variant degenerates to plain single-term topk."""
    from engine.query import Bm25Index

    bm = Bm25Index(pos_index)
    d1, s1 = bm.expanded_topk([["w00000"]], 10)
    d2, s2 = bm.topk("w00000", 10)
    np.testing.assert_array_equal(d1, d2)
    np.testing.assert_allclose(s1, s2, rtol=1e-12)


def test_phrase_after_add_and_remove(ray_session, pos_index, doc_tokens, tmp_path):
    """ADD/REMOVE on a POSITIONAL index keep phrase matching exact."""
    import ray.data

    from engine.query import Bm25Index
    from engine.update import add_documents, remove_documents

    idx = str(tmp_path / "posupd")
    shutil.copytree(pos_index, idx)
    new = pa.table(
        {
            "conv_id": pa.array(["zzzz-pos-0", "zzzz-pos-0", "zzzz-pos-1"], pa.string()),
            "turn_idx": pa.array([0, 1, 0], pa.int32()),
            "text": pa.array(
                [
                    "alpha bravo charlie alpha bravo",
                    "charlie alpha bravo charlie",
                    "delta alpha bravo delta",
                ],
                pa.string(),
            ),
        }
    )
    rep = add_documents(idx, ray.data.from_arrow(new))
    assert rep["added"] == 3
    bm = Bm25Index(idx)
    d, n = bm.phrase_match("alpha bravo")
    base = max(doc_tokens) + 1
    assert dict(zip(d.tolist(), n.tolist())) == {base: 2, base + 1: 1, base + 2: 1}
    # old docs' phrases still intact after the update
    some = doc_tokens[min(doc_tokens)]
    d0, n0 = bm.phrase_match(" ".join(some[0:2]))
    want0 = _oracle_phrase(doc_tokens, " ".join(some[0:2]))
    assert dict(zip(d0.tolist(), n0.tolist())) == want0

    remove_documents(idx, conv_ids=["zzzz-pos-0"])
    bm2 = Bm25Index(idx)
    d2, n2 = bm2.phrase_match("alpha bravo")
    assert dict(zip(d2.tolist(), n2.tolist())) == {base + 2: 1}


def test_positional_kill_and_resume(ray_session, tiny_corpus, pos_index, doc_tokens, tmp_path):
    """Kill-and-resume on a POSITIONAL build: rebuilt parts must re-encode
    position payloads identically (phrase results equal the uninterrupted
    build's)."""
    import os

    from engine import state
    from engine.build import build_index
    from engine.query import Bm25Index

    idx = str(tmp_path / "pos_killed")
    shutil.copytree(pos_index, idx)
    parts = sorted(state.committed_parts(idx))
    for p in parts[:2]:  # lost parts: neither payload nor manifest
        os.remove(state.segment_path(idx, p))
        os.remove(state.manifest_path(idx, p))
    build_index(
        tiny_corpus, idx, n_buckets=8, n_salts=4, hot_fraction=0.05,
        positions=True, resume=True,
    )
    bm_r, bm_o = Bm25Index(idx), Bm25Index(pos_index)
    some = doc_tokens[min(doc_tokens)]
    for phrase in [" ".join(some[0:2]), " ".join(some[1:4]), "w00000 w00001"]:
        d1, n1 = bm_r.phrase_match(phrase)
        d2, n2 = bm_o.phrase_match(phrase)
        np.testing.assert_array_equal(d1, d2, err_msg=phrase)
        np.testing.assert_array_equal(n1, n2)


def test_term_positions_vs_tokens(pos_index, doc_tokens):
    """term_positions (highlight primitive) == exploded naive token offsets."""
    from engine.query import Bm25Index

    bm = Bm25Index(pos_index)
    vocab = sorted({t for toks in doc_tokens.values() for t in toks})
    for term in vocab[:5] + vocab[-2:]:
        d, p = bm.term_positions(term)
        want = [
            (doc, i)
            for doc in sorted(doc_tokens)
            for i, t in enumerate(doc_tokens[doc])
            if t == term
        ]
        assert list(zip(d.tolist(), p.tolist())) == want
    d, p = bm.term_positions("zzzneverzzz")
    assert len(d) == 0 and len(p) == 0
    with pytest.raises(ValueError):
        bm.term_positions("two words")


def test_sharded_phrase_and_positions_bit_identity(ray_session, pos_index):
    """Positions=True scatter/gather ships the phrase terms' position streams;
    the coordinator's positional intersection must equal the single reader's
    exactly. Plain (non-positional) fetches must NOT pay the position bytes."""
    from engine.query import Bm25Index
    from engine.serve import ShardedQueryService

    bm = Bm25Index(pos_index)
    svc = ShardedQueryService(pos_index, n_shards=3, num_cpus=0.25)
    try:
        phrases = ["w00000 w00001", "w00777", "w00001 w00000 w00002", "zzz qqq"]
        for ph in phrases:
            d1, c1 = bm.phrase_match(ph)
            d2, c2 = svc.phrase_match(ph)
            np.testing.assert_array_equal(d1, d2, err_msg=ph)
            np.testing.assert_array_equal(c1, c2, err_msg=ph)
        d1, p1 = bm.term_positions("w00000")
        d2, p2 = svc.term_positions("w00000")
        np.testing.assert_array_equal(d1, d2)
        np.testing.assert_array_equal(p1, p2)
        # a plain scoring fetch over the same positional index ships no
        # position payloads — the gathered view must refuse the lookup
        plain = svc._gather(["w00000"])
        with pytest.raises(ValueError, match="positions=True"):
            plain.reader.positions_lookup("w00000", np.array([0], dtype=np.int64))
    finally:
        svc.shutdown()


def _oracle_proximity(doc_tokens, a, b, w, ordered):
    out = {}
    for d, toks in doc_tokens.items():
        pa_ = [i for i, t in enumerate(toks) if t == a]
        pb_ = [i for i, t in enumerate(toks) if t == b]
        n = sum(
            1
            for i in pa_
            for j in pb_
            if ((0 < j - i <= w) if ordered else (abs(j - i) <= w))
        )
        if n:
            out[d] = n
    return out


def test_proximity_match_vs_oracle(pos_index, doc_tokens):
    """Windowed co-occurrence counts (ordered + unordered) match a naive
    all-pairs oracle; ascending-docID contract; absent term -> empty."""
    from engine.query import Bm25Index

    bm = Bm25Index(pos_index)
    some = doc_tokens[min(doc_tokens)]
    cases = [
        (some[0], some[1], 3, False),
        (some[0], some[1], 1, True),
        ("w00000", "w00001", 4, False),
        ("w00000", "w00001", 2, True),
    ]
    any_hits = 0
    for a, b, w, ordered in cases:
        if a == b:
            continue
        d, n = bm.proximity_match(a, b, w, ordered=ordered)
        want = _oracle_proximity(doc_tokens, a, b, w, ordered)
        assert dict(zip(d.tolist(), n.tolist())) == want, (a, b, w, ordered)
        assert list(d) == sorted(d)
        any_hits += len(want)
    assert any_hits > 0
    d, n = bm.proximity_match("w00000", "zzzabsentzzz", 5)
    assert len(d) == 0
    import pytest as _pytest

    with _pytest.raises(ValueError, match="differ"):
        bm.proximity_match("w00000", "w00000", 3)


def _oracle_span3(doc_tokens, ta, tb, tc, w):
    out = {}
    for d, toks in doc_tokens.items():
        pa_ = [i for i, t in enumerate(toks) if t == ta]
        pb_ = [i for i, t in enumerate(toks) if t == tb]
        pc_ = [i for i, t in enumerate(toks) if t == tc]
        n = sum(
            1
            for i in pa_
            for j in pb_
            for k in pc_
            if i < j < k and k - i <= w
        )
        if n:
            out[d] = n
    return out


def test_span_near_vs_oracle(pos_index, doc_tokens):
    """3-term ordered span counts match a naive all-triples oracle; n=2
    delegates to ordered proximity; absent term and bad arity error paths."""
    from engine.query import Bm25Index

    bm = Bm25Index(pos_index)
    some = doc_tokens[min(doc_tokens)]
    trip = [t for t in dict.fromkeys(some) if some.count(t)][:3]
    cases = [
        (trip[0], trip[1], trip[2], 4),
        (trip[0], trip[1], trip[2], 12),
        ("w00000", "w00001", "w00002", 6),
        (trip[2], trip[0], trip[1], 8),  # order matters
    ]
    any_hits = 0
    for ta, tb, tc, w in cases:
        if len({ta, tb, tc}) != 3:
            continue
        d, n = bm.span_near([ta, tb, tc], w)
        want = _oracle_span3(doc_tokens, ta, tb, tc, w)
        assert dict(zip(d.tolist(), n.tolist())) == want, (ta, tb, tc, w)
        assert list(d) == sorted(d)
        any_hits += len(want)
    assert any_hits > 0
    # n=2 == ordered proximity
    d2, n2 = bm.span_near(["w00000", "w00001"], 3)
    dp, np_ = bm.proximity_match("w00000", "w00001", 3, ordered=True)
    assert list(d2) == list(dp) and list(n2) == list(np_)
    d, n = bm.span_near(["w00000", "zzzabsentzzz", "w00001"], 6)
    assert len(d) == 0
    import pytest as _pytest

    with _pytest.raises(ValueError, match="distinct"):
        bm.span_near(["w00000", "w00000", "w00001"], 4)
    with _pytest.raises(ValueError, match="2 or 3"):
        bm.span_near(["a", "b", "c", "d"], 4)
    with _pytest.raises(ValueError, match="window"):
        bm.span_near(["w00000", "w00001", "w00002"], 1)


def test_span_near_topk_vs_oracle(pos_index, doc_tokens):
    """Ranked sloppy spans == brute force: sf = sum of 1/(slop+1) over all
    ordered tuples in-window, score = BM25(tf=sf) with summed idfs."""
    import math

    from engine.query import Bm25Index
    from engine.schema import BM25_B, BM25_K1

    bm = Bm25Index(pos_index)
    some = doc_tokens[min(doc_tokens)]
    trip = list(dict.fromkeys(some))[:3]
    cases = [
        (trip, 4), (trip, 10),
        (["w00000", "w00001", "w00002"], 8),
        (["w00000", "w00001"], 3),  # n=2 weight = 1/d
    ]
    any_hits = 0
    for terms, w in cases:
        if len(set(terms)) != len(terms):
            continue
        n = len(terms)
        exp = {}
        for d_, toks in doc_tokens.items():
            pos = [[i for i, t in enumerate(toks) if t == q] for q in terms]
            sf = 0.0
            if n == 2:
                for i in pos[0]:
                    for j in pos[1]:
                        if 0 < j - i <= w:
                            sf += 1.0 / (j - i)
            else:
                for i in pos[0]:
                    for j in pos[1]:
                        for k_ in pos[2]:
                            if i < j < k_ and k_ - i <= w:
                                sf += 1.0 / (k_ - i - 1)
            if sf > 0:
                exp[d_] = sf
        idf = sum(bm.idf(t) for t in sorted(set(terms)))
        scored = {}
        for d_, sf in exp.items():
            dl = len(doc_tokens[d_])
            denom = sf + BM25_K1 * (1.0 - BM25_B + BM25_B * dl / bm.avgdl)
            scored[d_] = idf * sf * (BM25_K1 + 1.0) / denom
        want = sorted(scored.items(), key=lambda it: (-it[1], it[0]))[:10]
        d, s = bm.span_near_topk(terms, w, 10)
        assert list(d) == [x[0] for x in want], (terms, w)
        np.testing.assert_allclose(s, [x[1] for x in want], rtol=0, atol=1e-9)
        any_hits += len(want)
    assert any_hits > 0
    d, s = bm.span_near_topk(["w00000", "zzzabsentzzz", "w00001"], 6, 5)
    assert len(d) == 0


def test_best_passages_vs_bruteforce(pos_index, doc_tokens):
    """Best-passage window == brute force over every start position (not
    just occurrence-anchored ones — proving the anchor restriction loses
    nothing), rounded-score argmax with earliest-start ties."""
    from engine.query import Bm25Index

    bm = Bm25Index(pos_index)
    some = doc_tokens[min(doc_tokens)]
    queries = [
        (" ".join(list(dict.fromkeys(some))[:3]), 8, 6),
        (" ".join(list(dict.fromkeys(some))[:2]), 5, 3),
        ("w00000", 5, 4),
        ("w00000 zzzabsentzzz w00001", 5, 6),  # dead term drops out
    ]
    checked = 0
    for text, k, w in queries:
        terms = sorted(set(tokenize_text(text)))
        live = [t for t in terms if bm.reader.df(t) > 0]
        idf = {t: bm.idf(t) for t in live}
        d, st, sc = bm.best_passages(text, k, window=w)
        d_ref, _ = bm.topk(text, k)
        assert d.tolist() == d_ref.tolist(), text
        for doc, got_s, got_sc in zip(d.tolist(), st.tolist(), sc.tolist()):
            toks = doc_tokens[doc]
            best = None
            for start in range(len(toks)):  # every start, not just anchors
                s = round(
                    sum(idf[t] for p, t in enumerate(toks) if t in idf
                        and start <= p < start + w),
                    6,
                )
                if best is None or s > best[1]:
                    best = (start, s)
            assert best is not None and best[1] == got_sc, (text, doc)
            # engine start is the EARLIEST occurrence-anchored argmax; any
            # earlier equal-scoring brute start must be a non-occurrence pad
            assert got_sc == round(
                sum(idf[t] for p, t in enumerate(toks) if t in idf
                    and got_s <= p < got_s + w), 6), (text, doc)
            assert toks[got_s] in idf  # anchored at a query-term occurrence
            checked += 1
    assert checked >= 10


def _oracle_phrase_prefix(doc_tokens, phrase):
    """ES match_phrase_prefix oracle: last token is a prefix; counts sum
    over every vocab expansion's exact-phrase occurrences."""
    seq = tokenize_text(phrase)
    *fixed, last = seq
    vocab = sorted({t for toks in doc_tokens.values() for t in toks})
    out = {}
    for v in (t for t in vocab if t.startswith(last)):
        for d, n in _oracle_phrase(doc_tokens, " ".join(fixed + [v])).items():
            out[d] = out.get(d, 0) + n
    return out


def test_phrase_prefix_match_vs_oracle(pos_index, doc_tokens):
    from engine.query import Bm25Index

    bm = Bm25Index(pos_index)
    some = doc_tokens[min(doc_tokens)]
    phrases = [
        f"{some[0]} {some[1][:-1]}",  # harvested bigram, last char stripped
        some[0][:-2],                 # bare prefix: sums expansion tfs
        "w00000 zzq",                 # prefix with no expansions -> empty
    ]
    any_hits = 0
    for p in phrases:
        d, n = bm.phrase_prefix_match(p, max_expansions=4096)
        want = _oracle_phrase_prefix(doc_tokens, p)
        assert dict(zip(d.tolist(), n.tolist())) == want, p
        assert list(d) == sorted(d)
        any_hits += len(d)
    assert any_hits > 0


def test_phrase_prefix_expansion_cap_raises(pos_index):
    from engine.query import Bm25Index

    bm = Bm25Index(pos_index)
    with pytest.raises(ValueError, match="expands to"):
        bm.phrase_prefix_match("w00000 w", max_expansions=2)


def test_span_not_vs_bruteforce(pos_index, doc_tokens):
    """SpanNot vs brute force over the raw positions: exclusion window,
    absent-exclude passthrough, fully-excluded docs dropped."""
    from engine.query import Bm25Index

    bm = Bm25Index(pos_index)
    checked_nontrivial = False
    for inc, exc, dist in [
        ("zqmarker0", "zqmarker1", 2),
        ("zqmarker0", "zqmarker1", 0),
        ("w00000", "w00001", 2),
        ("zqmarker1", "zzzabsent", 3),
    ]:
        d, n = bm.span_not(inc, exc, dist)
        want = {}
        n_excluded_docs = 0
        for doc_id, toks in doc_tokens.items():
            pa_ = [i for i, t in enumerate(toks) if t == inc]
            pb = [i for i, t in enumerate(toks) if t == exc]
            surv = sum(1 for i in pa_ if not any(abs(i - j) <= dist for j in pb))
            if pa_ and surv < len(pa_):
                n_excluded_docs += 1
            if surv:
                want[doc_id] = surv
        assert dict(zip(d.tolist(), n.tolist())) == want, (inc, exc, dist)
        checked_nontrivial = checked_nontrivial or n_excluded_docs > 0
    assert checked_nontrivial  # at least one case actually excluded spans
    with pytest.raises(ValueError):
        bm.span_not("zqmarker0", "zqmarker0", 2)
