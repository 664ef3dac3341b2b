"""Doc store: serve stored document text by docID, row-group pruned.

The reference always persists renumbered per-structure data files next to the
index and serves hit content from them rather than from the original corpus
(CORE/io/DefaultStructureDataProvider.java:106-112 — the S2 "normalized doc
store"; hits are hydrated from the store, never by re-reading the archive).
Analog here: the docmap parquet carries an optional ``text`` column
(``build_index(store_text=True)``, the default). Because parquet is columnar,
every existing reader that projects ``["doc_id", "dl"]`` is untouched; this
module is the one consumer of the ``text`` column.

Scale shape: one ``DocStore`` per query/snippet ACTOR (T1 per-worker cache
analog). Init reads only the parquet FOOTERS (per-row-group doc_id min/max —
bytes per row group, not rows); a lookup reads only the row groups whose
doc_id range covers the requested ids, and caches them per actor. Resident
set is bounded by the row groups the actor's queries have touched, 1/N of the
store under any reasonable doc_id partitioning — never the whole corpus.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .docmap import docmap_files


class DocStore:
    """Row-group-pruned (doc_id -> text) lookups over the docmap parquet."""

    def __init__(self, index_dir: str):
        paths = docmap_files(os.path.join(index_dir, "docmap"))
        self._rgs: list[tuple[str, int]] = []  # (path, row_group)
        lo, hi = [], []
        self._has_text = False
        for p in paths:
            md = pq.ParquetFile(p).metadata
            names = [md.schema.column(i).name for i in range(md.num_columns)]
            # metadata/doc-values gathers (rows, values_i64) work on ANY
            # docmap; only the text surfaces require store_text=True
            self._has_text = self._has_text or "text" in names
            id_idx = names.index("doc_id")
            for g in range(md.num_row_groups):
                st = md.row_group(g).column(id_idx).statistics
                if st is None or st.min is None:  # no stats: never prune it
                    self._rgs.append((p, g))
                    lo.append(-(2**62))
                    hi.append(2**62)
                else:
                    self._rgs.append((p, g))
                    lo.append(int(st.min))
                    hi.append(int(st.max))
        self._lo = np.array(lo, dtype=np.int64)
        self._hi = np.array(hi, dtype=np.int64)
        self._cache: dict[tuple[str, int], tuple[np.ndarray, pa.Array]] = {}

    def _row_group(self, key: tuple[str, int]) -> tuple[np.ndarray, pa.Array]:
        hit = self._cache.get(key)
        if hit is None:
            path, g = key
            t = pq.ParquetFile(path).read_row_group(g, columns=["doc_id", "text"])
            ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            order = np.argsort(ids, kind="stable")
            hit = (ids[order], t["text"].combine_chunks().take(pa.array(order)))
            self._cache[key] = hit
        return hit

    def rows(self, doc_ids: np.ndarray, columns: list[str]) -> dict[int, tuple]:
        """Sparse docmap METADATA lookup by docID — same row-group pruning as
        :meth:`texts`, returning ``{id: (col values...)}`` for the requested
        columns (e.g. ``["conv_id", "turn_idx"]`` for hit-context assembly).
        Columns absent from the docmap raise KeyError. Cached per
        (row-group, column set) like the text path, so the resident set stays
        bounded by the row groups this actor's queries touch."""
        ids = np.unique(np.asarray(doc_ids, dtype=np.int64))
        if not len(ids):
            return {}
        if not hasattr(self, "_meta_cache"):
            self._meta_cache: dict = {}
        cols_key = tuple(columns)
        out: dict[int, tuple] = {}
        want = (self._lo <= ids.max()) & (self._hi >= ids.min())
        for ri in np.flatnonzero(want):
            a = np.searchsorted(ids, self._lo[ri])
            b = np.searchsorted(ids, self._hi[ri], side="right")
            if a == b:
                continue
            key = (*self._rgs[ri], cols_key)
            hit = self._meta_cache.get(key)
            if hit is None:
                path, g = self._rgs[ri]
                t = pq.ParquetFile(path).read_row_group(
                    g, columns=["doc_id", *columns]
                )
                rg_ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
                order = np.argsort(rg_ids, kind="stable")
                vals = [
                    t[c].combine_chunks().take(pa.array(order)) for c in columns
                ]
                hit = (rg_ids[order], vals)
                self._meta_cache[key] = hit
            rg_ids, vals = hit
            sub = ids[a:b]
            pos = np.searchsorted(rg_ids, sub)
            ok = pos < len(rg_ids)
            ok &= rg_ids[np.minimum(pos, len(rg_ids) - 1)] == sub
            for j in np.flatnonzero(ok):
                p = int(pos[j])
                out[int(sub[j])] = tuple(v[p].as_py() for v in vals)
        return out

    def values_i64(self, doc_ids: np.ndarray, column: str) -> np.ndarray:
        """Vectorized doc-values gather: int64 values of ``column`` aligned to
        ``doc_ids`` (timestamps cast to epoch-microseconds). This is the hot
        path for field-sorted retrieval, range filters and field metric
        aggregations over BM25 match sets — row-group pruned like
        :meth:`texts`, with per-row-group sorted numpy arrays cached per
        actor, so a gather is searchsorted + fancy-index, no per-row Python.
        Raises KeyError on any absent docID (unknown ids must never silently
        score — same contract as the doc-length lookup, docmap.DocLengths)."""
        ids = np.asarray(doc_ids, dtype=np.int64)
        if not len(ids):
            return np.empty(0, dtype=np.int64)
        uniq, inv = np.unique(ids, return_inverse=True)
        vals = np.zeros(len(uniq), dtype=np.int64)
        filled = np.zeros(len(uniq), dtype=bool)
        if not hasattr(self, "_dv_cache"):
            self._dv_cache: dict = {}
        want = (self._lo <= uniq.max()) & (self._hi >= uniq.min())
        for ri in np.flatnonzero(want):
            a = np.searchsorted(uniq, self._lo[ri])
            b = np.searchsorted(uniq, self._hi[ri], side="right")
            if a == b:
                continue
            key = (*self._rgs[ri], column)
            hit = self._dv_cache.get(key)
            if hit is None:
                path, g = self._rgs[ri]
                t = pq.ParquetFile(path).read_row_group(g, columns=["doc_id", column])
                rg_ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
                col = t[column].combine_chunks()
                if pa.types.is_timestamp(col.type):
                    col = col.cast(pa.int64())
                arr = col.cast(pa.int64()).to_numpy(zero_copy_only=False)
                order = np.argsort(rg_ids, kind="stable")
                hit = (rg_ids[order], arr.astype(np.int64)[order])
                self._dv_cache[key] = hit
            rg_ids, rg_vals = hit
            sub = uniq[a:b]
            pos = np.searchsorted(rg_ids, sub)
            ok = pos < len(rg_ids)
            ok &= rg_ids[np.minimum(pos, len(rg_ids) - 1)] == sub
            idxs = np.arange(a, b)[ok]
            vals[idxs] = rg_vals[pos[ok]]
            filled[idxs] = True
        if not filled.all():
            missing = uniq[~filled][0]
            raise KeyError(f"doc_id {int(missing)} has no doc-values row in the docmap")
        return vals[inv]

    def texts(self, doc_ids: np.ndarray) -> dict[int, str]:
        """Texts of the given docIDs ({id: text}; absent ids are omitted).
        Reads only row groups whose [min, max] doc_id range intersects the
        request — at most a handful per call for clustered hit sets."""
        if not self._has_text:
            raise FileNotFoundError(
                "no stored text in this docmap — index was built with store_text=False"
            )
        ids = np.unique(np.asarray(doc_ids, dtype=np.int64))
        if not len(ids):
            return {}
        out: dict[int, str] = {}
        want = (self._lo <= ids.max()) & (self._hi >= ids.min())
        for ri in np.flatnonzero(want):
            # refine: does this row group's range contain ANY requested id?
            a = np.searchsorted(ids, self._lo[ri])
            b = np.searchsorted(ids, self._hi[ri], side="right")
            if a == b:
                continue
            rg_ids, rg_text = self._row_group(self._rgs[ri])
            sub = ids[a:b]
            pos = np.searchsorted(rg_ids, sub)
            ok = pos < len(rg_ids)
            ok &= rg_ids[np.minimum(pos, len(rg_ids) - 1)] == sub
            for j in np.flatnonzero(ok):
                out[int(sub[j])] = rg_text[int(pos[j])].as_py()
        return out
