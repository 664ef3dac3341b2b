"""Whole-index merge — the Lucene ``addIndexes``/segment-concat analog.

The reference rebuilds or incrementally ADDs into one index; a multi-tenant
or partitioned-ingest deployment additionally wants to BUILD SHARDS
INDEPENDENTLY (per day, per source) and merge them later without touching
raw text. Our segment format makes that a metadata-level operation: a term's
postings are stored as one or more doc-sorted, doc-disjoint *runs*
(engine/segments.py — the salting/ADD mechanism), and every reader already
merges runs by concat + argsort.

This module is the OUT-OF-PLACE surface (``merge(a, b) -> out``) over the
single in-place graft implementation, :func:`engine.update.merge_indexes`:
copy A, then graft B's runs in (one Ray task per part, posting blobs moved
verbatim, run ids offset by the next generation). The graft

- unions ``hot_terms`` (independently-built shards sample DIFFERENT hot
  sets; a union-hot term's salted part list always includes the cold
  bucket, so every run stays reachable — the old requirement that hot sets
  match made independent shard builds practically unmergeable);
- refuses any docID that src and dst share (src ids looked up in dst's
  sorted ids, read in process);
- recomputes merged ``avgdl`` exactly from the merged docmap, so merged
  scores are bit-identical to a from-scratch build over the union corpus
  (segments hold no length-dependent data, so no run is re-encoded).
"""

from __future__ import annotations

import os
import shutil


def merge_indexes(a_dir: str, b_dir: str, out_dir: str) -> dict:
    """Merge two committed indexes into a fresh ``out_dir``; see module
    docstring. Raises ``ValueError`` on contract mismatch or docID overlap
    (``out_dir`` is removed again on refusal)."""
    from .update import merge_indexes as graft

    if os.path.exists(os.path.join(out_dir, "stats.json")):
        raise ValueError(f"out_dir {out_dir!r} already holds an index")
    shutil.copytree(a_dir, out_dir, dirs_exist_ok=True)
    try:
        return graft(out_dir, b_dir)
    except Exception:
        shutil.rmtree(out_dir, ignore_errors=True)
        raise
