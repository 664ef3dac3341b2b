"""Federated search across INDEPENDENTLY BUILT indexes — the Lucene/ES
``dfs_query_then_fetch`` two-phase surface. The reference's analog is its
multi-bundle inverted index: queries consult every committed bundle of the
same index (CORE/io/DefaultInvertedIndex.java:62-66, 120-268); federation
lifts that to whole indexes that never went through a merge.

Phase 1 (DFS): collect the union corpus statistics — n_docs and the exact
integer token total (so avgdl is ONE division of exact ints, bit-identical to
what a single full-corpus build would have stored) plus per-query-term df
sums from segment METADATA lookups only. Phase 2 (query): every member index
scores its own candidates with the union stats overriding its local ones
(``Bm25Index.score_all(global_stats=...)``), and the bounded per-index hit
lists merge into one deterministic top-k.

Because member docID spaces are disjoint (enforced), per-term accumulation
order is ascending-term on both sides, and idf/length-norm inputs are the
same floats, a federated score is BIT-IDENTICAL to the score the same doc
gets from one full-corpus index — so plain full-corpus BM25 SQL oracles the
whole federation.

Scale shape: phase 1 touches O(#indexes x #query terms) metadata; phase 2 is
each index's normal postings-bounded scoring; the merge sees only
``sum(per-index candidates)`` rows. At the 100-TB design point the member
indexes live behind their own actor pools (``serve.ShardedQueryService``) and
only stats + bounded hit lists cross the federation boundary.
"""

from __future__ import annotations

import numpy as np

from .docmap import docmap_files
from .query import Bm25Index, rank_topk


class Federation:
    """A queryable union of independently built indexes.

    Members must occupy disjoint docID spaces, checked at init against the
    doc ids each member already holds in memory once it is open (the same
    refusal contract ``update.merge_indexes`` enforces before grafting)."""

    def __init__(self, index_dirs: list[str]):
        if len(index_dirs) < 2:
            raise ValueError("a federation needs at least two member indexes")
        self.members = [Bm25Index(d) for d in index_dirs]
        analyzers = {(m.analyzer, m.stopwords) for m in self.members}
        if len(analyzers) > 1:
            # a stemmed member and an unstemmed member hold disjoint vocab
            # for the same text — a federated query would silently miss one
            raise ValueError(
                "federation refused: members use different analyzer chains "
                f"{sorted((a, sorted(s)) for a, s in analyzers)}"
            )
        for j in range(1, len(index_dirs)):
            for i in range(j):
                n_coll = int(self.members[i].dl.contains(self.members[j].dl.ids).sum())
                if n_coll:
                    raise ValueError(
                        f"federation members {index_dirs[i]} and "
                        f"{index_dirs[j]} share {n_coll} docIDs"
                    )
        # DFS phase invariants: exact-int token total -> one division, the
        # same float64 a full-corpus build writes to stats.json
        self.n_docs = sum(ix.n_docs for ix in self.members)
        self._dl_total = float(sum(int(ix._dl_total) for ix in self.members))
        self.avgdl = self._dl_total / self.n_docs if self.n_docs else 0.0

    def _global_stats(self, terms: list[str]) -> dict:
        return {
            "n_docs": self.n_docs,
            "avgdl": self.avgdl,
            "df": {
                t: sum(ix.reader.df(t) for ix in self.members) for t in terms
            },
        }

    def field_bounds(self, field: str) -> list[tuple[int, int]]:
        """Per-member (min, max) of a docmap doc-values column as int64
        (timestamps as epoch-us), from parquet row-group STATISTICS only —
        the member-pruning metadata for time-partitioned (rollover) search.
        Cached per field; a file without stats falls back to one bounded
        column read."""
        import datetime as _dt
        import os as _os

        import pyarrow as pa
        import pyarrow.parquet as pq

        cache = getattr(self, "_bounds_cache", None)
        if cache is None:
            cache = self._bounds_cache = {}
        if field in cache:
            return cache[field]

        def _i64(v) -> int:
            if isinstance(v, _dt.datetime):
                return int(np.datetime64(v.replace(tzinfo=None), "us").astype(np.int64))
            return int(v)

        out = []
        for ix in self.members:
            mn, mx = None, None
            for p in docmap_files(_os.path.join(ix.index_dir, "docmap")):
                pf = pq.ParquetFile(p)
                md = pf.metadata
                names = [md.schema.column(i).name for i in range(md.num_columns)]
                if field not in names:
                    continue
                ci = names.index(field)
                for g in range(md.num_row_groups):
                    st = md.row_group(g).column(ci).statistics
                    if st is None or st.min is None:
                        col = pf.read_row_group(g, columns=[field])[field]
                        col = col.combine_chunks()
                        if pa.types.is_timestamp(col.type):
                            col = col.cast(pa.int64())
                        arr = col.cast(pa.int64()).to_numpy(zero_copy_only=False)
                        lo, hi = int(arr.min()), int(arr.max())
                    else:
                        lo, hi = _i64(st.min), _i64(st.max)
                    mn = lo if mn is None else min(mn, lo)
                    mx = hi if mx is None else max(mx, hi)
            if mn is None:
                raise KeyError(
                    f"member {ix.index_dir} has no doc-values column {field!r}"
                )
            out.append((mn, mx))
        cache[field] = out
        return out

    def score_all(
        self,
        query_text: str,
        field_range: tuple[str, int, int] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Union of every member's exact BM25 candidates under the federation
        stats, sorted by docID.

        ``field_range=(field, lo, hi)``: non-scoring doc-values range filter
        (the rollover / time-partitioned search path). Members whose field
        bounds don't intersect the window are PRUNED — never opened, never
        scored (the ES index-level ``can_match`` pre-filter); members fully
        inside the window skip the per-doc gather; only straddling members
        pay a doc-values filter on their own candidates. Stats stay the full
        federation's (a filter never changes BM25 scores), so the full-corpus
        oracle with a WHERE window stays bit-identical."""
        terms = sorted(set(self.members[0]._terms(query_text)))
        gs = self._global_stats(terms)
        members = list(self.members)
        bounds = None
        if field_range is not None:
            f, lo, hi = field_range[0], int(field_range[1]), int(field_range[2])
            all_bounds = self.field_bounds(f)
            members, bounds = [], []
            for ix, (mn, mx) in zip(self.members, all_bounds):
                if mn <= hi and mx >= lo:
                    members.append(ix)
                    bounds.append((mn, mx))
        self.last_members_searched = len(members)
        docs, scores = [], []
        for i, ix in enumerate(members):
            d, s = ix.score_all(query_text, global_stats=gs)
            if field_range is not None and len(d):
                f, lo, hi = field_range[0], int(field_range[1]), int(field_range[2])
                mn, mx = bounds[i]
                if not (lo <= mn and mx <= hi):  # straddling member only
                    vals = ix.docvalues_i64(d, f)
                    mask = (vals >= lo) & (vals <= hi)
                    d, s = d[mask], s[mask]
            docs.append(d)
            scores.append(s)
        doc = np.concatenate(docs) if docs else np.empty(0, np.int64)
        sc = np.concatenate(scores) if scores else np.empty(0, np.float64)
        order = np.argsort(doc, kind="stable")
        return doc[order], sc[order]

    def topk(
        self,
        query_text: str,
        k: int,
        rank_round: int | None = None,
        field_range: tuple[str, int, int] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Deterministic federated top-k: (rounded score desc, docID asc) over
        the merged candidate union — same contract as ``Bm25Index.topk``.
        ``field_range`` routes through the member-pruned rollover path."""
        doc, score = self.score_all(query_text, field_range=field_range)
        return rank_topk(doc, score, k, rank_round)
