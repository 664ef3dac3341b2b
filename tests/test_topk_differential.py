"""Randomized differential gate: ``Bm25Index.topk`` and ``expanded_topk``
against the pure-Python oracle (``engine/oracle.py``), bit for bit — doc ids
and float64 scores — on seeded corpora and query streams. The other scoring
surfaces are held to the same bits where their contract reduces to plain
BM25: ``topk_msm`` with m=1, ``boosted_topk`` with unit boosts and
``synonym_topk``/``expanded_topk`` with one-term groups each equal ``topk``,
and ``conjunctive_topk`` equals the oracle's scores over the docs that hold
every query term.

Corpora are Zipf-shaped over a small vocabulary, with empty docs, very long
docs and duplicated texts (exact score ties, broken by ascending doc id).
Queries repeat terms, mix in absent terms, and ask for k in {1, 10, > n_docs}.
Every postings codec is covered, and every index state the update path can
produce: a fresh build, then ADD (with one modified doc, so the purge path
runs too), REMOVE, ``compact_index`` and ``merge_indexes``.

The positional surfaces (phrase, proximity, span_near, span_not) are held to
brute-force token scans, counts exact, on a corpus whose frequent terms span
several 128-doc blocks per run, with repeated tokens and a rare seed term.
"""

import numpy as np
import pyarrow as pa
import pytest

from test_positional_expansion import _oracle_phrase, _oracle_proximity, _oracle_span3

from engine import oracle
from engine.tokenize import tokenize_text

VOCAB = [f"t{i:03d}" for i in range(120)]
ABSENT = "zzabsent"
N_QUERIES = 40


def _texts(rng, n: int) -> list[str]:
    out: list[str] = []
    for i in range(n):
        r = rng.random()
        if r < 0.08:
            out.append("")  # empty doc: dl 0, in no posting
        elif r < 0.18 and out:
            out.append(out[int(rng.integers(len(out)))])  # duplicate: tied scores
        else:
            n_tok = int(rng.integers(1500, 3000)) if r > 0.95 else int(rng.integers(1, 40))
            ranks = np.minimum(rng.zipf(1.3, n_tok), len(VOCAB)) - 1
            out.append(" ".join(VOCAB[j] for j in ranks))
    return out


def _queries(rng, n_docs: int) -> list[tuple[str, int]]:
    out = []
    for _ in range(N_QUERIES):
        n_terms = int(rng.integers(1, 5))
        ranks = np.minimum(rng.zipf(1.2, n_terms), len(VOCAB)) - 1
        terms = [VOCAB[j] for j in ranks]
        if rng.random() < 0.3:
            terms.append(terms[0])  # duplicate query term
        if rng.random() < 0.1:
            terms.append(ABSENT)
        k = [1, 10, n_docs + 5][int(rng.integers(3))]
        out.append((" ".join(terms), k))
    return out


def _slots(rng, text: str) -> list[list[str]]:
    """OR-slots over the query's distinct terms, some widened with a variant."""
    slots = []
    for t in sorted(set(tokenize_text(text))):
        slot = [t]
        if rng.random() < 0.4:
            slot.append(VOCAB[int(rng.integers(len(VOCAB)))])
        slots.append(slot)
    return slots


def _expanded_oracle(idx, slots, k):
    """Slot score = max over the slot's variants of the term's BM25 part;
    slots summed in order from 0.0 (the ``expanded_topk`` contract)."""
    slots = [sorted(set(s)) for s in slots if s]
    part = {t: oracle.bm25_scores(idx, t) for s in slots for t in s}
    docs = {d for s in slots for t in s for d in part[t]}
    acc = {d: 0.0 for d in docs}
    for s in slots:
        for d in docs:
            acc[d] += max(part[t].get(d, 0.0) for t in s)
    ranked = sorted(((d, v) for d, v in acc.items() if v > 0), key=lambda it: (-it[1], it[0]))
    return ranked[:k]


def _conjunctive_oracle(idx, text, k):
    """Oracle BM25 restricted to docs holding every distinct query term."""
    terms = set(tokenize_text(text))
    ranked = sorted(
        ((d, v) for d, v in oracle.bm25_scores(idx, text).items()
         if all(d in idx.postings.get(t, {}) for t in terms)),
        key=lambda it: (-it[1], it[0]),
    )
    return ranked[:k]


def _same(got, want, label) -> None:
    d, s = got
    assert d.tolist() == [w[0] for w in want], label
    assert s.tolist() == [w[1] for w in want], label


def _table(docs: dict[int, str]) -> pa.Table:
    ids = sorted(docs)
    return pa.table({"doc_id": pa.array(ids, pa.int64()),
                     "text": pa.array([docs[i] for i in ids], pa.string())})


def _check(index_dir: str, docs: dict[int, str], rng, label: str) -> None:
    from engine.query import Bm25Index

    idx = oracle.build_oracle_index(list(docs), list(docs.values()))
    bm = Bm25Index(index_dir)
    assert bm.n_docs == len(docs), label
    for text, k in _queries(rng, len(docs)):
        want = oracle.topk(idx, text, k)
        _same(bm.topk(text, k), want, (label, text, k))
        slots = _slots(rng, text)
        _same(bm.expanded_topk(slots, k), _expanded_oracle(idx, slots, k), (label, slots, k))
        _same(bm.conjunctive_topk(text, k), _conjunctive_oracle(idx, text, k),
              (label, "and", text, k))
        _same(bm.topk_msm(text, 1, k), want, (label, "msm", text, k))
        live = sorted({t for t in tokenize_text(text) if t in idx.postings})
        if not live:
            continue
        _same(bm.boosted_topk({t: 1.0 for t in live}, k), want, (label, "boost", text, k))
        _same(bm.synonym_topk([[t] for t in live], k), want, (label, "syn", text, k))
        _same(bm.expanded_topk([[t] for t in live], k), want, (label, "slot", text, k))


def _build(docs, index_dir, codec, positions=False):
    import ray.data

    from engine.build import build_index

    build_index(ray.data.from_arrow(_table(docs)), index_dir, id_col="doc_id",
                n_buckets=4, n_salts=2, hot_fraction=0.05, postings_codec=codec,
                resume=False, positions=positions)


@pytest.mark.parametrize("codec,seed", [("varint", 11), ("pfor", 12), ("raw64", 13)])
def test_topk_matches_oracle_through_updates(ray_session, tmp_path, codec, seed):
    import ray.data

    from engine.update import add_documents, compact_index, merge_indexes, remove_documents

    rng = np.random.default_rng(seed)
    # spaced ids on one codec keep the sparse (non-dense-docID) scoring path
    # covered from the first build on
    step = 3 if codec == "pfor" else 1
    docs = dict(zip(range(0, 400 * step, step), _texts(rng, 400)))
    index_dir = str(tmp_path / "idx")
    _build(docs, index_dir, codec)
    _check(index_dir, docs, rng, "build")

    top = max(docs) + 1
    added = dict(zip(range(top, top + 60), _texts(rng, 60)))
    modified = {min(docs): " ".join(VOCAB[:3])}
    add_documents(index_dir, ray.data.from_arrow(_table({**added, **modified})),
                  id_col="doc_id")
    docs.update(added)
    docs.update(modified)
    _check(index_dir, docs, rng, "add")

    victims = sorted(rng.choice(sorted(docs), size=40, replace=False).tolist())
    remove_documents(index_dir, doc_ids=victims)
    for v in victims:
        del docs[v]
    _check(index_dir, docs, rng, "remove")

    compact_index(index_dir)
    _check(index_dir, docs, rng, "compact")

    top = max(docs) + 1
    other = dict(zip(range(top, top + 80), _texts(rng, 80)))
    src_dir = str(tmp_path / "src")
    _build(other, src_dir, codec)
    merge_indexes(index_dir, src_dir)
    docs.update(other)
    _check(index_dir, docs, rng, "merge")


def _add_dropped_column(index_dir: str, part: int) -> None:
    """Rewrite one part as an older encoder wrote it: with the per-block
    list columns the segment schema no longer has (one entry per 128-doc
    block of each run), after ``tfs_enc``."""
    import pyarrow.parquet as pq

    from engine import state

    path = state.segment_path(index_dir, part)
    seg = pq.read_table(path)
    nblocks = (seg["df"].to_numpy() + 127) // 128
    offsets = pa.array(np.concatenate(([0], np.cumsum(nblocks))).astype(np.int32))
    at = seg.schema.get_field_index("tfs_enc") + 1
    for name, typ in [("block_last_doc", pa.int64()), ("block_max_impact", pa.float32()),
                      ("block_doc_off", pa.int32()), ("block_tf_off", pa.int32())]:
        old = pa.ListArray.from_arrays(offsets, pa.array(np.zeros(int(nblocks.sum())), typ))
        seg = seg.add_column(at, name, old)
        at += 1
    pq.write_table(seg, path, row_group_size=16384)
    info = state.committed_parts(index_dir)[part]
    state.write_part_manifest(
        index_dir, part, {k: info[k] for k in ("n_terms", "n_postings", "n_tokens")})


def test_writes_onto_parts_with_a_dropped_column(ray_session, tmp_path):
    """ADD and merge concatenate existing parts with freshly encoded runs,
    REMOVE and ``compact_index`` decode and re-encode them; parts carrying
    columns the current schema dropped must not break any of them."""
    import ray.data

    from engine import state
    from engine.update import add_documents, compact_index, merge_indexes, remove_documents

    rng = np.random.default_rng(21)
    docs = dict(enumerate(_texts(rng, 300)))
    index_dir = str(tmp_path / "idx")
    _build(docs, index_dir, "varint")
    for p in state.committed_parts(index_dir):
        _add_dropped_column(index_dir, p)
    _check(index_dir, docs, rng, "old parts")

    added = dict(zip(range(300, 360), _texts(rng, 60)))
    added[360] = " ".join(VOCAB)  # every term: every part takes new runs
    add_documents(index_dir, ray.data.from_arrow(_table(added)), id_col="doc_id")
    docs.update(added)
    _check(index_dir, docs, rng, "add onto old parts")

    other = dict(zip(range(400, 480), _texts(rng, 80)))
    src_dir = str(tmp_path / "src")
    _build(other, src_dir, "varint")
    _add_dropped_column(src_dir, min(state.committed_parts(src_dir)))
    merge_indexes(index_dir, src_dir)
    docs.update(other)
    _check(index_dir, docs, rng, "merge with old parts")

    for p in state.committed_parts(index_dir):
        _add_dropped_column(index_dir, p)
    victims = sorted(rng.choice(sorted(docs), size=30, replace=False).tolist())
    remove_documents(index_dir, doc_ids=victims)
    for v in victims:
        del docs[v]
    _check(index_dir, docs, rng, "remove from old parts")

    for p in state.committed_parts(index_dir):
        _add_dropped_column(index_dir, p)
    compact_index(index_dir)
    _check(index_dir, docs, rng, "compact old parts")


@pytest.mark.parametrize("codec", ["varint", "pfor"])
def test_conjunctive_rare_seed_matches_oracle(ray_session, tmp_path, codec):
    """``conjunctive_topk`` on fresh readers, where frequent terms span many
    128-doc blocks and a rare term seeds the candidates: the scores must
    equal the oracle's. A cold query decodes each term's runs once and
    counts them; a repeat is served from the postings cache."""
    from engine.query import Bm25Index

    rng = np.random.default_rng(31)
    frequent = VOCAB[:6]
    docs = {}
    for i in range(1500):
        words = [t for t in frequent if rng.random() < 0.6]
        words += [VOCAB[int(j)] for j in rng.integers(6, len(VOCAB), int(rng.integers(1, 12)))]
        docs[i] = " ".join(rng.permutation(words).tolist())
    for i in (600, 603, 610, 641, 655):  # a rare term within one id range
        docs[i] += " zqrare " + " ".join(frequent[: 2 + i % 4])
    index_dir = str(tmp_path / "idx")
    _build(docs, index_dir, codec)
    idx = oracle.build_oracle_index(list(docs), list(docs.values()))

    queries = [f"zqrare {t}" for t in frequent] + ["zqrare t000 t001 t002", "t003 t004 zqrare t005"]
    for text in queries:
        for k in (1, 3, 10):
            got = Bm25Index(index_dir).conjunctive_topk(text, k)  # cold cache
            _same(got, _conjunctive_oracle(idx, text, k), (codec, text, k))

    # every term's runs are decoded once and counted, then served from cache
    text = "zqrare t000 t001 t002"
    bm = Bm25Index(index_dir)
    runs = sum(bm.reader.term_rows(t, ()).num_rows for t in tokenize_text(text))
    bm.conjunctive_topk(text, 10)
    assert bm.reader.metrics["runs_decoded"] == runs
    hits = bm.reader.metrics["postings_cache_hits"]
    bm.conjunctive_topk(text, 10)
    assert bm.reader.metrics["runs_decoded"] == runs
    assert bm.reader.metrics["postings_cache_hits"] - hits == 4


FREQUENT = VOCAB[:4]
RARE = "zqrare"


def _positional_texts(rng, n: int, first_id: int = 0) -> dict[int, str]:
    """Token sequences where the four frequent terms fill most positions (so
    each of their runs spans several 128-doc blocks), a third of the docs
    hold a run of one repeated token, and a rare term sits in a handful of
    docs spread over the id range next to the frequent ones."""
    out = {}
    for i in range(first_id, first_id + n):
        n_tok = int(rng.integers(3, 40))
        toks = [FREQUENT[int(rng.integers(4))] if rng.random() < 0.6
                else VOCAB[int(rng.integers(4, 40))] for _ in range(n_tok)]
        if rng.random() < 0.3:
            at = int(rng.integers(len(toks) + 1))
            toks[at:at] = [FREQUENT[int(rng.integers(2))]] * int(rng.integers(2, 5))
        if i % 97 == 5:
            at = int(rng.integers(len(toks) + 1))
            toks[at:at] = [RARE, "t000", "t001", RARE, "t002", "t000", "t000"]
        out[i] = " ".join(toks)
    return out


def _oracle_span_not(doc_tokens, inc, exc, dist):
    out = {}
    for d, toks in doc_tokens.items():
        pb = [i for i, t in enumerate(toks) if t == exc]
        n = sum(1 for i, t in enumerate(toks)
                if t == inc and not any(abs(i - j) <= dist for j in pb))
        if n:
            out[d] = n
    return out


def _positional_cases(rng) -> list[tuple]:
    """(surface, args, token-scan oracle, oracle args) rows: fixed phrases with
    repeated tokens and the rare term, plus seeded random ones."""
    pool = FREQUENT + [RARE, VOCAB[7]]

    def pick(n):
        return [str(t) for t in rng.choice(pool, size=n, replace=False)]

    phrases = [["t000", "t000"], ["t000", "t000", "t000"], ["t001", "t000", "t001"],
               [RARE, "t000", "t001"], ["t000", RARE], ["t002", "t000", "t000"]]
    phrases += [[pool[int(j)] for j in rng.integers(len(pool), size=int(rng.integers(2, 4)))]
                for _ in range(8)]
    cases = [("phrase_match", (" ".join(p),), _oracle_phrase, (" ".join(p),)) for p in phrases]
    for _ in range(10):
        a, b = pick(2)
        w, ordered = int(rng.integers(1, 7)), bool(rng.random() < 0.5)
        cases.append(("proximity_match", (a, b, w, ordered), _oracle_proximity, (a, b, w, ordered)))
        a, b = pick(2)
        w = int(rng.integers(1, 7))
        cases.append(("span_near", ([a, b], w), _oracle_proximity, (a, b, w, True)))
        a, b, c = pick(3)
        w = int(rng.integers(2, 9))
        cases.append(("span_near", ([a, b, c], w), _oracle_span3, (a, b, c, w)))
        a, b = pick(2)
        dist = int(rng.integers(0, 4))
        cases.append(("span_not", (a, b, dist), _oracle_span_not, (a, b, dist)))
    return cases


def _check_positional(index_dir: str, docs: dict[int, str], rng, label: str) -> None:
    from engine.query import Bm25Index

    doc_tokens = {d: tokenize_text(text) for d, text in docs.items()}
    warm = Bm25Index(index_dir)
    hits = 0
    for name, args, scan, scan_args in _positional_cases(rng):
        want = scan(doc_tokens, *scan_args)
        hits += len(want)
        for reader, how in ((Bm25Index(index_dir), "cold"), (warm, "warm")):
            d, n = getattr(reader, name)(*args)
            assert d.tolist() == sorted(want), (label, how, name, args)
            assert n.tolist() == [want[x] for x in sorted(want)], (label, how, name, args)
    assert hits > 0, label


@pytest.mark.parametrize("codec,seed", [("varint", 41), ("pfor", 42)])
def test_positional_surfaces_match_token_scans(ray_session, tmp_path, codec, seed):
    """``phrase_match``, ``proximity_match`` (ordered and unordered),
    ``span_near`` (2 and 3 terms) and ``span_not`` against brute-force token
    scans, counts exact, on cold and warm readers: after a positional build
    where each frequent term's runs span several 128-doc blocks, then after
    an ADD (with one modified doc) that gives the queried terms delta runs."""
    import ray.data

    from engine.query import Bm25Index
    from engine.update import add_documents

    rng = np.random.default_rng(seed)
    docs = _positional_texts(rng, 1200)
    index_dir = str(tmp_path / "idx")
    _build(docs, index_dir, codec, positions=True)
    reader = Bm25Index(index_dir).reader
    for t in FREQUENT:
        assert int(reader.term_rows(t, ())["df"].to_numpy().max()) > 3 * 128, t
    _check_positional(index_dir, docs, rng, "build")

    added = _positional_texts(rng, 150, first_id=1200)
    added[0] = f"{RARE} t000 t000 {RARE} t001"
    add_documents(index_dir, ray.data.from_arrow(_table(added)), id_col="doc_id")
    docs.update(added)
    _check_positional(index_dir, docs, rng, "add")
