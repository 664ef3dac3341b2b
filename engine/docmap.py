"""The docmap: one parquet row per document (``doc_id``, ``dl``, the content
hash, the transcript key, stored text and doc values) under
``<index>/docmap``, with ADD and merge generations in ``delta-NNNN/``
subdirectories. It is the id map the reference keeps in memory
(``StructureIndex`` / the ``known.list`` state), and the query side indexes
it as a plain array (DefaultStructureIndexProvider.java:36-89).

Everything here reads the files in the calling process with
``pyarrow.parquet``: no Ray task and no object-store round trip, so opening
a reader needs no Ray session and never waits behind an actor that holds the
last CPU. Corpus facts fold file by file, holding one file's columns at a
time; the doc-length lookup and ADD's known-key snapshot hold a few sorted
numpy arrays with one entry per doc.
"""

from __future__ import annotations

import os
from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq


def docmap_files(docmap_dir: str) -> list[str]:
    """Every docmap parquet file, delta subdirectories included, sorted by
    path."""
    return sorted(
        os.path.join(root, f)
        for root, _dirs, fs in os.walk(docmap_dir)
        for f in fs
        if f.endswith(".parquet")
    )


class DocmapStats(NamedTuple):
    n_docs: int
    dl_total: int  # exact integer token total
    min_id: int
    max_id: int

    @property
    def avgdl(self) -> float:
        return self.dl_total / self.n_docs if self.n_docs else 0.0

    @property
    def ids_fit_int32(self) -> bool:
        return bool(self.n_docs) and self.min_id >= 0 and self.max_id < 2**31


def docmap_stats(docmap_dir: str) -> DocmapStats:
    """Corpus facts folded one file at a time: no array spans the corpus."""
    n = total = 0
    lo, hi = None, None
    for p in docmap_files(docmap_dir):
        t = pq.read_table(p, columns=["doc_id", "dl"])
        if not t.num_rows:
            continue
        n += t.num_rows
        total += int(pc.sum(t["dl"]).as_py())
        mm = pc.min_max(t["doc_id"]).as_py()
        lo = mm["min"] if lo is None else min(lo, mm["min"])
        hi = mm["max"] if hi is None else max(hi, mm["max"])
    return DocmapStats(n, total, 0 if lo is None else int(lo), -1 if hi is None else int(hi))


class DocLengths:
    """doc_id -> dl as float64, one vectorized gather per call.

    When the ids are exactly ``0..n-1`` (transcripts mode mints them so) the
    lengths are indexed directly by doc id and ``dense`` is True, which also
    gates the scatter-accumulator scoring path; otherwise the ids are kept
    sorted and gathered through ``np.searchsorted``. An id the docmap does
    not hold raises KeyError on both paths: an unknown document must never
    score with a neighbour's length."""

    def __init__(self, ids: np.ndarray, dls: np.ndarray):
        ids = np.asarray(ids, dtype=np.int64)
        dls = np.asarray(dls, dtype=np.float64)
        if len(ids) > 1 and not np.all(ids[1:] >= ids[:-1]):
            order = np.argsort(ids, kind="stable")
            ids, dls = ids[order], dls[order]
        self._dls = dls
        # float64 sums of ints are exact below 2^53 tokens
        self.total = float(dls.sum())
        self.dense = len(ids) > 0 and bool(np.array_equal(ids, np.arange(len(ids))))
        self._ids = None if self.dense else ids

    @property
    def ids(self) -> np.ndarray:
        """The docmap's doc ids, ascending."""
        return np.arange(len(self._dls), dtype=np.int64) if self._ids is None else self._ids

    def contains(self, doc_ids: np.ndarray) -> np.ndarray:
        d = np.asarray(doc_ids, dtype=np.int64)
        if self._ids is None:
            return (d >= 0) & (d < len(self._dls))
        if not len(self._ids):
            return np.zeros(d.shape, dtype=bool)
        pos = np.minimum(np.searchsorted(self._ids, d), len(self._ids) - 1)
        return self._ids[pos] == d

    def __call__(self, doc_ids: np.ndarray) -> np.ndarray:
        d = np.asarray(doc_ids)
        if self._ids is None:
            if d.size and d.min() < 0:
                raise KeyError(f"doc_id {int(d.min())} is not in the docmap")
            try:
                return self._dls[d]
            except IndexError:
                raise KeyError(f"doc_id {int(d.max())} is not in the docmap") from None
        pos = np.searchsorted(self._ids, d)
        if d.size and (pos.max() >= len(self._ids) or not np.array_equal(self._ids[pos], d)):
            bad = d[~self.contains(d)]
            raise KeyError(f"doc_id {int(bad.flat[0])} is not in the docmap")
        return self._dls[pos]


def read_doc_lengths(docmap_dir: str) -> DocLengths:
    ids, dls = [], []
    for p in docmap_files(docmap_dir):
        t = pq.read_table(p, columns=["doc_id", "dl"])
        ids.append(t["doc_id"].to_numpy(zero_copy_only=False))
        dls.append(t["dl"].to_numpy(zero_copy_only=False))
    if not ids:
        return DocLengths(np.empty(0, np.int64), np.empty(0, np.float64))
    return DocLengths(np.concatenate(ids), np.concatenate(dls))


def key_strings(conv: pa.Array | pa.ChunkedArray, turn: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """(conv_id, turn_idx) -> one sortable string key per row (vectorized)."""
    k = pc.binary_join_element_wise(
        conv, turn.cast(pa.int64()).cast(pa.string()), "\x1f"
    )
    if isinstance(k, pa.ChunkedArray):
        k = k.combine_chunks()
    return k.to_numpy(zero_copy_only=False).astype(str)


class KeySnapshot(NamedTuple):
    """ADD's known-key snapshot (the ``known.list`` analog,
    io/DefaultStateRepository.java:40-116): keys sorted ascending, with each
    key's doc id and content hash (None when the docmap has no hashes)."""

    keys: np.ndarray
    doc_ids: np.ndarray
    hashes: np.ndarray | None

    def lookup(self, keys: np.ndarray):
        """-> (found mask, known doc_id or -1, known content_hash or 0)."""
        n = len(keys)
        found = np.zeros(n, dtype=bool)
        dids = np.full(n, -1, dtype=np.int64)
        hsh = np.zeros(n, dtype=np.int64)
        if not len(self.keys) or not n:
            return found, dids, hsh
        pos = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
        found[:] = self.keys[pos] == keys
        dids[found] = self.doc_ids[pos[found]]
        if self.hashes is not None:
            hsh[found] = self.hashes[pos[found]]
        return found, dids, hsh


def read_known_keys(docmap_dir: str, transcripts: bool, has_hash: bool) -> tuple[KeySnapshot, int]:
    """-> (snapshot, next free doc id). Transcripts key on (conv_id,
    turn_idx), id-mode indexes on doc_id."""
    cols = (["conv_id", "turn_idx", "doc_id"] if transcripts else ["doc_id"]) + (
        ["content_hash"] if has_hash else []
    )
    keys, dids, hs = [], [], []
    for p in docmap_files(docmap_dir):
        t = pq.read_table(p, columns=cols)
        d = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        keys.append(key_strings(t["conv_id"], t["turn_idx"]) if transcripts else d)
        dids.append(d)
        if has_hash:
            hs.append(t["content_hash"].to_numpy(zero_copy_only=False).astype(np.int64))
    if not keys:
        return KeySnapshot(np.empty(0, np.int64), np.empty(0, np.int64), None), 0
    keys, dids = np.concatenate(keys), np.concatenate(dids)
    o = np.argsort(keys, kind="stable")
    hashes = np.concatenate(hs)[o] if has_hash else None
    next_id = int(dids.max()) + 1 if len(dids) else 0
    return KeySnapshot(keys[o], dids[o], hashes), next_id
