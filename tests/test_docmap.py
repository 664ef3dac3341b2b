"""The docmap module: corpus facts, the doc-length lookup and ADD's known-key
snapshot over dense, sparse and overlapping file layouts, all read in
process; and a reader opened in a process that never starts Ray."""

import os
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from conftest import run_isolated
from engine.docmap import docmap_files, docmap_stats, read_doc_lengths, read_known_keys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _write_docmap(d, id_lists, **cols):
    """One parquet file per id list; ``cols`` maps a column name to a
    function of the ids (default: ``dl = 2 * id + 1``)."""
    cols = cols or {"dl": lambda ids: pa.array(ids * 2 + 1, pa.int32())}
    os.makedirs(d)
    for i, ids in enumerate(id_lists):
        ids = np.asarray(ids, dtype=np.int64)
        tbl = {"doc_id": pa.array(ids, pa.int64())}
        tbl.update({name: fn(ids) for name, fn in cols.items()})
        pq.write_table(pa.table(tbl), os.path.join(d, f"docmap-{i:04d}.parquet"))
    return d


def test_docmap_dl_lookup_and_unknown_ids(tmp_path):
    """Exact lengths and corpus facts on dense, sparse and overlapping file
    layouts; every unknown id raises KeyError, never a neighbour's length."""
    # disjoint ranges (one dense file, one sparse) plus a delta subdirectory
    d1 = _write_docmap(str(tmp_path / "disjoint"), [[0, 1, 2, 3], [10, 12]])
    _write_docmap(os.path.join(d1, "delta-0001"), [[19]])
    assert len(docmap_files(d1)) == 3
    facts = docmap_stats(d1)
    assert facts.n_docs == 7 and facts.ids_fit_int32
    dls = [1, 3, 5, 7, 21, 25, 39]
    assert facts.dl_total == sum(dls) and isinstance(facts.dl_total, int)
    assert facts.avgdl == sum(dls) / 7
    assert (facts.min_id, facts.max_id) == (0, 19)
    lookup = read_doc_lengths(d1)
    assert lookup.total == float(sum(dls)) and not lookup.dense
    want_ids = np.array([3, 0, 19, 10, 2], dtype=np.int64)
    got = lookup(want_ids)
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got, want_ids * 2 + 1)

    # ids exactly 0..n-1 across files: the dense direct-index path
    d0 = _write_docmap(str(tmp_path / "dense"), [[3, 4], [0, 1, 2]])
    dense = read_doc_lengths(d0)
    assert dense.dense and dense.ids.tolist() == [0, 1, 2, 3, 4]
    np.testing.assert_array_equal(dense(np.array([4, 0, 2])), [9, 1, 5])
    for bad in ([5], [-1], [0, 7]):
        with pytest.raises(KeyError):
            dense(np.asarray(bad, dtype=np.int64))

    # overlapping file ranges: one sorted lookup
    d2 = _write_docmap(str(tmp_path / "overlap"), [[0, 5, 9], [3, 7, 11]])
    assert docmap_stats(d2).n_docs == 6
    overlap = read_doc_lengths(d2)
    np.testing.assert_array_equal(overlap(np.array([7, 0, 11])), np.array([7, 0, 11]) * 2 + 1)
    for bad in ([4], [1], [12], [-1], [7, 8]):
        with pytest.raises(KeyError):
            overlap(np.asarray(bad, dtype=np.int64))

    # below the first file, inside a sparse gap, past a dense file's end
    d3 = _write_docmap(str(tmp_path / "guard"), [[5, 6, 7, 8], [20, 22, 29]])
    guard = read_doc_lengths(d3)
    for bad in ([1], [21], [9], [30]):
        with pytest.raises(KeyError):
            guard(np.asarray(bad, dtype=np.int64))
    np.testing.assert_array_equal(guard(np.array([29, 5])), np.array([29, 5]) * 2 + 1)
    np.testing.assert_array_equal(guard.contains(np.array([5, 21, 29, 30])),
                                  [True, False, True, False])

    # an empty docmap: no docs, no ids, every id unknown
    empty = _write_docmap(str(tmp_path / "empty"), [[]])
    assert docmap_stats(empty) == (0, 0, 0, -1) and docmap_stats(empty).avgdl == 0.0
    assert not docmap_stats(empty).ids_fit_int32
    with pytest.raises(KeyError):
        read_doc_lengths(empty)(np.array([0]))


def test_docmap_known_keys_snapshot(tmp_path):
    """ADD's known-key snapshot resolves (found, doc_id, content_hash)
    exactly on disjoint and overlapping key ranges, and reports the next
    free doc id."""
    hashed = {"content_hash": lambda ids: pa.array(ids * 7, pa.int64())}
    d = _write_docmap(str(tmp_path / "disjoint"), [[1, 3, 5], [10, 11, 20]], **hashed)
    kk, next_id = read_known_keys(d, transcripts=False, has_hash=True)
    assert next_id == 21
    found, dids, hsh = kk.lookup(np.array([5, 0, 20, 11, 99], dtype=np.int64))
    np.testing.assert_array_equal(found, [True, False, True, True, False])
    np.testing.assert_array_equal(dids, [5, -1, 20, 11, -1])
    np.testing.assert_array_equal(hsh, [35, 0, 140, 77, 0])

    d2 = _write_docmap(str(tmp_path / "overlap"), [[1, 9], [4, 12]], **hashed)
    kk2, next_id2 = read_known_keys(d2, transcripts=False, has_hash=True)
    assert next_id2 == 13
    found2, dids2, hsh2 = kk2.lookup(np.array([9, 4, 2], dtype=np.int64))
    np.testing.assert_array_equal(found2, [True, True, False])
    np.testing.assert_array_equal(dids2[:2], [9, 4])
    np.testing.assert_array_equal(hsh2, [63, 28, 0])

    # transcripts key on (conv_id, turn_idx); no hash column -> hashes 0
    conv, turn = {0: "b", 1: "a", 2: "a"}, {0: 0, 1: 1, 2: 0}
    d3 = _write_docmap(
        str(tmp_path / "transcripts"), [[0, 1], [2]],
        conv_id=lambda ids: pa.array([conv[i] for i in ids]),
        turn_idx=lambda ids: pa.array([turn[i] for i in ids], pa.int32()),
    )
    kk3, next_id3 = read_known_keys(d3, transcripts=True, has_hash=False)
    assert next_id3 == 3 and kk3.hashes is None
    keys = np.array(["a\x1f0", "b\x1f0", "a\x1f1", "c\x1f0"])
    found3, dids3, hsh3 = kk3.lookup(keys)
    np.testing.assert_array_equal(found3, [True, True, True, False])
    np.testing.assert_array_equal(dids3, [2, 0, 1, -1])
    assert not hsh3.any()


_NO_RAY_READER = """
import sys

import pyarrow.parquet as pq
import ray

from engine import oracle
from engine.docmap import docmap_files
from engine.query import Bm25Index

for idx in sys.argv[1:]:
    dm = pq.read_table(docmap_files(idx + "/docmap"), columns=["doc_id", "text"])
    ref = oracle.build_oracle_index(dm["doc_id"].to_pylist(), dm["text"].to_pylist())
    by_df = sorted(ref.postings, key=lambda t: (-len(ref.postings[t]), t))
    terms = by_df[:3] + by_df[len(by_df) // 2 : len(by_df) // 2 + 3] + by_df[-2:]
    queries = terms + [" ".join(terms[i : i + 3]) for i in range(0, len(terms), 2)]
    bm = Bm25Index(idx)
    for q in queries:
        for k in (1, 10, ref.n_docs + 5):
            d, s = bm.topk(q, k)
            want = oracle.topk(ref, q, k)
            assert d.tolist() == [w[0] for w in want], (idx, q, k)
            assert s.tolist() == [w[1] for w in want], (idx, q, k)
print("ray initialized:", ray.is_initialized())
"""


def test_reader_opens_and_queries_without_ray(ray_session, tiny_index, tmp_path):
    """A Bm25Index opened and queried in a process that never calls
    ray.init returns the oracle's top-k and leaves Ray uninitialized, on a
    dense (transcripts) index and on a sparse id-space index."""
    import ray.data

    from engine.build import build_index

    rng = np.random.default_rng(5)
    vocab = [f"w{i}" for i in range(40)]
    ids = np.sort(rng.choice(10_000, size=120, replace=False))
    texts = [" ".join(rng.choice(vocab, size=int(rng.integers(1, 15)))) for _ in ids]
    sparse = str(tmp_path / "sparse")
    build_index(
        ray.data.from_arrow(pa.table({"doc_id": pa.array(ids, pa.int64()), "text": texts})),
        sparse, id_col="doc_id", n_buckets=2, n_salts=1,
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("RAY_")}
    env["PYTHONPATH"] = REPO
    out = run_isolated([sys.executable, "-c", _NO_RAY_READER, tiny_index, sparse],
                       timeout=300, env=env)
    assert out.returncode == 0, out.stderr[-3000:]
    assert out.stdout.strip().endswith("ray initialized: False"), out.stdout
