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
"""

import numpy as np
import pyarrow as pa
import pytest

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


def _build(docs, index_dir, codec):
    import ray.data

    from engine.build import build_index

    build_index(ray.data.from_arrow(_table(docs)), index_dir, id_col="doc_id",
                n_buckets=4, n_salts=2, hot_fraction=0.05, postings_codec=codec,
                resume=False)


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
    ``block_max_impact`` list column the segment schema no longer has."""
    import pyarrow.parquet as pq

    from engine import state

    path = state.segment_path(index_dir, part)
    seg = pq.read_table(path)
    last = seg["block_last_doc"].combine_chunks()
    old = pa.ListArray.from_arrays(
        last.offsets, pa.array(np.ones(len(last.values), np.float32)))
    seg = seg.add_column(seg.schema.get_field_index("block_last_doc") + 1,
                         "block_max_impact", old)
    pq.write_table(seg, path, row_group_size=16384)
    info = state.committed_parts(index_dir)[part]
    state.write_part_manifest(
        index_dir, part, {k: info[k] for k in ("n_terms", "n_postings", "n_tokens")})


def test_writes_onto_parts_with_a_dropped_column(ray_session, tmp_path):
    """ADD and merge concatenate existing parts with freshly encoded runs;
    parts carrying a column the current schema dropped must not break them."""
    import ray.data

    from engine import state
    from engine.update import add_documents, merge_indexes

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


@pytest.mark.parametrize("codec", ["varint", "pfor"])
def test_conjunctive_block_probe_matches_oracle(ray_session, tmp_path, codec):
    """``conjunctive_topk`` on fresh readers, where frequent terms span many
    128-doc blocks and a rare term seeds the candidates: the block probe
    decodes only some blocks of each frequent term, and the scores must
    still equal the oracle's (idf from the true df, not from the partial
    decode)."""
    from engine.query import Bm25Index

    rng = np.random.default_rng(31)
    frequent = VOCAB[:6]
    docs = {}
    for i in range(1500):
        words = [t for t in frequent if rng.random() < 0.6]
        words += [VOCAB[int(j)] for j in rng.integers(6, len(VOCAB), int(rng.integers(1, 12)))]
        docs[i] = " ".join(rng.permutation(words).tolist())
    for i in (600, 603, 610, 641, 655):  # one id range: most blocks skipped
        docs[i] += " zqrare " + " ".join(frequent[: 2 + i % 4])
    index_dir = str(tmp_path / "idx")
    _build(docs, index_dir, codec)
    idx = oracle.build_oracle_index(list(docs), list(docs.values()))

    bm = Bm25Index(index_dir)
    _, partial = bm._conjunctive_candidates(["t000", "zqrare"])
    assert len(partial["t000"][0]) < bm.reader.df("t000"), "probe skipped no block"

    queries = [f"zqrare {t}" for t in frequent] + ["zqrare t000 t001 t002", "t003 t004 zqrare t005"]
    for text in queries:
        for k in (1, 3, 10):
            got = Bm25Index(index_dir).conjunctive_topk(text, k)  # cold cache
            _same(got, _conjunctive_oracle(idx, text, k), (codec, text, k))
