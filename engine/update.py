"""Incremental index maintenance — the ``Operation.ADD / REMOVE / RECOVER``
analog (UPD/StrucmotifUpdate.java:493-546) plus a compaction pass.

Semantics mirror the reference's delta planning:

- ADD: ``requested - known`` (anti-join vs the docmap, the known.list analog)
  is tokenized, routed through the build's exchange exactly as a build routes
  it, and merged into the existing segments. New postings land as
  ADDITIONAL RUNS per term — run ids are offset by ``generation * n_salts`` so
  they never collide with base or earlier-delta runs; the segment reader
  already merges a term's runs by concat+argsort, so queries see deltas with
  no reader changes (the concat-onto-existing-bucket merge of
  DefaultInvertedIndex.java:197-231, without decoding the existing bucket).
- REMOVE: one Ray task per part reads the part, decodes all its runs at
  once (``segments.decode_bucket``, the inverse of ``encode_bucket``),
  drops the removed doc_ids and re-encodes; only the parts that held a
  removed doc are rewritten, the others stay byte-for-byte as they were.
  The doc_ids are dropped from the docmap.
- COMPACT: the same decode and re-encode of every part, with each run id
  folded to ``run % n_salts`` so delta runs collapse back into canonical
  salt runs.

DocID minting for ADD follows the reference (next free index,
DefaultStructureIndexProvider.java:115-122): new docs get ids above the
current max, ordered by ``(conv_id, turn_idx)`` among themselves. The global
sorted-order invariant therefore holds per epoch, not across epochs — a
from-scratch rebuild reassigns; COMPACT does not renumber.

Segments store no length-dependent data (doc lengths live in the docmap), so
an update that moves avgdl re-encodes nothing beyond the parts it touches:
scoring reads the live avgdl from stats.json and each doc's dl from the docmap.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data

from . import state
from .build import _Router, exchange_rows
from .docmap import (
    KeySnapshot,
    docmap_files,
    docmap_stats,
    key_strings,
    read_doc_lengths,
    read_known_keys,
)
from .exchange import exchange
from .schema import POSITIONAL_SEGMENT_SCHEMA, SEGMENT_SCHEMA
from .segments import decode_bucket, encode_bucket
from .tokenize import doc_length_batch, hash64_text, hash_scheme, tokenize_batch


def _docmap_dir(index_dir: str) -> str:
    return os.path.join(index_dir, "docmap")


def _rewrite_docmap_marker(index_dir: str) -> tuple[int, float]:
    # exact integer dl total folded file by file, so avgdl is layout-stable
    facts = docmap_stats(_docmap_dir(index_dir))
    n_docs, avgdl = facts.n_docs, facts.avgdl
    state.atomic_write_bytes(
        json.dumps({"n_docs": n_docs, "avgdl": avgdl}).encode(),
        os.path.join(_docmap_dir(index_dir), "_SUCCESS.json"),
    )
    return n_docs, avgdl


def _refresh_stats(index_dir: str, n_docs: int, avgdl: float, generation: int) -> dict:
    stats = state.read_stats(index_dir)
    parts = state.committed_parts(index_dir)
    stats.update(
        n_docs=n_docs,
        avgdl=avgdl,
        generation=generation,
        n_parts=len(parts),
        n_term_runs=int(sum(p["n_terms"] for p in parts.values())),
        n_postings=int(sum(p["n_postings"] for p in parts.values())),
    )
    state.write_stats(index_dir, stats)
    return stats


@ray.remote
def _nrows(tbl: pa.Table) -> int:
    return tbl.num_rows


@ray.remote
def _assign_delta_ids(tbl: pa.Table, first_id: int) -> pa.Table:
    """Delta docID minting: block of the key-sorted delta + its global offset."""
    out = tbl.append_column(
        "doc_id", pa.array(first_id + np.arange(tbl.num_rows), pa.int64())
    )
    return out.drop_columns(["old_doc_id"]) if "old_doc_id" in out.column_names else out


def _read_segment(path: str) -> pa.Table:
    """A segment file projected onto the current segment schema, so parts
    written by an older encoder (with since-dropped columns) concatenate
    with freshly encoded runs."""
    with pq.ParquetFile(path) as pf:
        positional = "pos_enc" in pf.schema_arrow.names
        return pf.read(columns=(POSITIONAL_SEGMENT_SCHEMA if positional else SEGMENT_SCHEMA).names)


def _append_runs(index_dir: str, part: int, runs: pa.Table) -> None:
    """Append encoded runs to part ``part`` (created if absent) and commit it.
    Existing runs are NOT decoded — the concat-onto-existing-bucket merge of
    DefaultInvertedIndex.java:197-231; rows are re-sorted by (term, run)."""
    path = state.segment_path(index_dir, part)
    if os.path.exists(path):
        runs = pa.concat_tables([_read_segment(path), runs]).sort_by(
            [("term", "ascending"), ("run", "ascending")]
        )
    state.commit_segment(index_dir, part, runs)


@ray.remote
def _merge_part(index_dir: str, part: int, run: int, codec: str, *tables) -> int | None:
    """One touched part: encode this part's delta rows as NEW RUNS with run
    id ``run`` and append them to the part."""
    live = [t for t in tables if t is not None and t.num_rows]
    if not live:
        return None
    _append_runs(index_dir, part, encode_bucket(pa.concat_tables(live), salt_const=run, codec=codec))
    return part


def add_documents(
    index_dir: str,
    source,
    *,
    text_col: str = "text",
    id_col: str | None = None,
    return_delta: bool = False,
) -> dict:
    """Merge new documents into an existing index — a RAY PIPELINE end to end
    (the delta never passes through the driver as data, only as object refs):

    1. classify (streaming map_batches): anti-join every delta row against the
       broadcast known-key snapshot (``pc.is_in``-style searchsorted filter —
       the known.list plan of StrucmotifUpdate.java:493-523). Revision-aware:
       a known key whose ``content_hash`` changed is a MODIFIED doc
       (known.list (major, minor) analog, DefaultStateRepository.java:57-61)
       — its old postings are purged and its new text re-indexed under a new
       docID. Unchanged known keys are skipped (idempotent ADD,
       StrucmotifUpdate.java:229-233).
    2. mint docIDs: key-sort the delta (Ray sort), per-block row counts ->
       driver prefix-sum over #blocks ints, per-block assign tasks.
    3. docmap delta: streaming write_parquet of (doc_id, key, dl, hash) rows.
    4. postings: tokenize -> the build's exchange under the committed
       routing -> ONE RAY TASK PER TOUCHED PART appends the delta as new
       runs (part ``p``'s run id is ``p // n_buckets + generation *
       n_salts``; existing runs untouched).

    The known-key snapshot (:class:`docmap.KeySnapshot`) is read from the
    docmap in this process, sorted once, and ``ray.put`` once; it holds one
    key, doc id and content hash per indexed doc.
    """
    stats = state.read_stats(index_dir)
    # revision hashes written at build time are compared against hashes this
    # run computes — a scheme flip (e.g. polars removed from the env) would
    # silently classify every re-submitted known doc as MODIFIED and force a
    # full purge + re-index pass, so hard-fail instead (ADVICE r2)
    stored_scheme = stats.get("hash_scheme")
    if stored_scheme is not None and stored_scheme != hash_scheme():
        raise RuntimeError(
            f"content-hash scheme mismatch: index built with {stored_scheme!r} "
            f"but this environment computes {hash_scheme()!r}; rebuild the "
            "index or restore the original hash backend"
        )
    transcripts = bool(stats.get("transcripts_mode"))
    generation = int(stats.get("generation", 0)) + 1
    n_buckets, n_salts = int(stats["n_buckets"]), int(stats["n_salts"])
    codec = stats.get("postings_codec", "varint")  # delta runs match the bundle

    ds = ray.data.read_parquet(source) if isinstance(source, str) else source

    # --- known-key snapshot (broadcast once) -----------------------------
    dm_schema = pq.read_schema(docmap_files(_docmap_dir(index_dir))[0])
    has_hash = "content_hash" in dm_schema.names
    cat_col = stats.get("category_col") if "category" in dm_schema.names else None
    # doc-values passthrough: deltas must carry every docvalues column the
    # base docmap has, or field sorts / range filters would KeyError on
    # delta-minted docIDs (and mixed-schema docmap reads would fail)
    dv_cols = [c for c in (stats.get("docvalues") or []) if c in dm_schema.names]
    if transcripts:
        ds = ds.select_columns(
            sorted(
                {"conv_id", "turn_idx", text_col}
                | ({cat_col} if cat_col else set())
                | set(dv_cols)
            )
        )
    else:
        id_col = id_col or "doc_id"
        ds = ds.select_columns(
            sorted(
                {id_col, text_col}
                | ({cat_col} if cat_col else set())
                | set(dv_cols)
            )
        )
    known_keys, next_id = read_known_keys(_docmap_dir(index_dir), transcripts, has_hash)
    kref = ray.put(known_keys)

    # --- stage 1: classify ------------------------------------------------
    def classify(batch: pa.Table) -> pa.Table:
        kk: KeySnapshot = ray.get(kref)
        if transcripts:
            bk = key_strings(batch["conv_id"], batch["turn_idx"])
        else:
            bk = batch[id_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        found, dids, hs = kk.lookup(bk)
        old_id = np.full(len(bk), -1, dtype=np.int64)
        if has_hash and found.any():
            bh = hash64_text(batch[text_col]).astype(np.int64)
            changed = found & (hs != bh)
            old_id[changed] = dids[changed]
            keep = ~found | changed
        else:
            keep = ~found
        out = batch.filter(pa.array(keep))
        return out.append_column("old_doc_id", pa.array(old_id[keep], pa.int64()))

    delta = ds.map_batches(classify, batch_format="pyarrow").materialize()
    n_delta = delta.count()
    if n_delta == 0:
        return {"added": 0, "replaced": 0, "generation": generation - 1, "parts_touched": 0}

    # --- purge superseded postings of modified docs -----------------------
    changed_blocks = [
        t
        for t in ray.get(
            delta.filter(expr="old_doc_id >= 0").select_columns(["old_doc_id"]).to_arrow_refs()
        )
        if t.num_rows
    ]
    replaced = 0
    if changed_blocks:
        changed_ids = np.sort(
            pa.concat_tables(changed_blocks)["old_doc_id"].to_numpy(zero_copy_only=False)
        )
        replaced = int(len(changed_ids))
        _purge_doc_ids(index_dir, changed_ids, codec=codec)

    # --- stage 2: mint docIDs (key-sorted delta + per-block offsets) ------
    if transcripts:
        sort_keys = ["conv_id", "turn_idx"]
        blocks = delta.sort(sort_keys).to_arrow_refs()
        counts = ray.get([_nrows.remote(r) for r in blocks])
        offsets = next_id + np.concatenate(([0], np.cumsum(counts)[:-1]))
        assigned = [
            _assign_delta_ids.remote(r, int(off)) for r, off in zip(blocks, offsets)
        ]
        delta_ds = ray.data.from_arrow_refs(assigned).materialize()
        id_col = "doc_id"
    else:
        delta_ds = delta.drop_columns(["old_doc_id"]).materialize()

    # --- stage 3: docmap delta (streaming write) ---------------------------
    has_text = "text" in dm_schema.names  # index built with a doc store

    def docmap_fn(b: pa.Table) -> pa.Table:
        dl = doc_length_batch(b, id_col=id_col, text_col=text_col,
                              stopwords=stats.get("stopwords") or None)
        cols = {"doc_id": dl["doc_id"]}
        if transcripts:
            cols.update(conv_id=b["conv_id"], turn_idx=b["turn_idx"])
        cols["dl"] = dl["dl"]
        cols["content_hash"] = pa.array(hash64_text(b[text_col]).astype(np.int64), pa.int64())
        if has_text:
            cols["text"] = b[text_col]
        if cat_col:
            cols["category"] = b[cat_col].cast(pa.string())
        for c in dv_cols:
            if c not in cols:
                if c not in b.schema.names:
                    raise ValueError(
                        f"ADD delta is missing doc-values column {c!r} "
                        "required by the base index's docmap schema"
                    )
                cols[c] = b[c].cast(dm_schema.field(c).type)
        return pa.table(cols)

    delta_dir = os.path.join(_docmap_dir(index_dir), f"delta-{generation:04d}")
    delta_ds.map_batches(docmap_fn, batch_format="pyarrow").write_parquet(delta_dir)

    # --- stage 4: tokenize -> committed routing -> per-part merge tasks ---
    run_offset = generation * n_salts
    positional = bool(stats.get("positional"))
    analyzer = str(stats.get("analyzer", "standard"))
    stop_list = stats.get("stopwords") or None
    n_parts_total = n_buckets * n_salts
    outputs, _ = exchange(
        delta_ds.map_batches(
            lambda b: exchange_rows(tokenize_batch(
                b, id_col=id_col, text_col=text_col, positions=positional,
                with_dl=False, analyzer=analyzer, stopwords=stop_list,
            )),
            batch_format="pyarrow",
        ),
        n_parts_total,
        _Router(stats.get("hot_terms", []), n_buckets, n_salts),
    )
    merge_refs = [
        _merge_part.remote(index_dir, p, p // n_buckets + run_offset, codec, *outputs[p])
        for p in range(n_parts_total)
    ]
    parts_touched = sum(1 for r in ray.get(merge_refs) if r is not None)

    n_docs, avgdl = _rewrite_docmap_marker(index_dir)
    _refresh_stats(index_dir, n_docs, avgdl, generation)
    report = {
        "added": int(n_delta),
        "replaced": replaced,
        "generation": generation,
        "parts_touched": parts_touched,
    }
    if return_delta:
        # the freshly indexed rows (doc_id + text), for post-ADD consumers
        # (e.g. standing-query percolation — update_and_percolate)
        report["delta_ds"] = delta_ds
    return report


def _reencode_part(
    index_dir: str,
    part: int,
    codec: str,
    remove_ids: np.ndarray | None = None,
    n_salts: int | None = None,
) -> bool:
    """Read one part, decode it (``decode_bucket``), drop the postings of
    ``remove_ids`` (REMOVE) or fold every run to ``run % n_salts``
    (compact), re-encode and commit it. A removal that hits no doc of the
    part leaves it untouched; a part left with no postings is deleted.
    Returns whether the part changed."""
    path = state.segment_path(index_dir, part)
    if not os.path.exists(path):
        return False
    rows = decode_bucket(_read_segment(path), codec)
    if remove_ids is not None:
        keep = ~np.isin(rows["doc_id"].to_numpy(), remove_ids)
        if keep.all():
            return False
        rows = rows.filter(pa.array(keep))
    if n_salts is not None:
        salt = rows["salt"].to_numpy() % n_salts
        rows = rows.set_column(rows.schema.get_field_index("salt"), "salt", pa.array(salt))
    if rows.num_rows == 0:
        os.remove(path)
        mp = state.manifest_path(index_dir, part)
        if os.path.exists(mp):
            os.remove(mp)
        return True
    # folded runs merge docs of one (term, salt): encode_bucket requires
    # them unique per group, which holds because a term's runs are
    # doc-disjoint
    state.commit_segment(index_dir, part, encode_bucket(rows, codec=codec))
    return True


_reencode_part_remote = ray.remote(_reencode_part)


def _recover_docmap_swap(ddir: str) -> None:
    """Roll back a docmap swap that crashed mid-flight (see _purge_doc_ids).

    No backup dir -> nothing to do. Backup WITHOUT the COMMIT marker ->
    crash during evacuation: ddir still holds only originals; move the
    evacuated ones back. Backup WITH the marker -> crash during populate:
    ddir parquet files are partial new-generation output; drop them and
    restore the complete originals (postings may already be purged — a
    docmap superset is query-consistent, and re-running the remove
    converges). A ``.old.deleting`` dir is a backup already RENAMED AWAY
    after a completed swap (the rename is the commit point of the delete) —
    pure garbage, removed without looking inside; a crash mid-rmtree can
    therefore never be mistaken for a mid-evacuation crash and restore
    stale-generation files over new ones. Every path ends with a complete
    docmap and no backup dir."""
    import shutil

    backup = ddir + ".old"
    shutil.rmtree(backup + ".deleting", ignore_errors=True)
    if not os.path.isdir(backup):
        return
    marker = os.path.join(backup, "COMMIT")
    if os.path.exists(marker):
        for name in os.listdir(ddir):
            path = os.path.join(ddir, name)
            shutil.rmtree(path) if os.path.isdir(path) else os.remove(path)
        os.remove(marker)
    for name in os.listdir(backup):
        os.replace(os.path.join(backup, name), os.path.join(ddir, name))
    os.rmdir(backup)


def _purge_doc_ids(index_dir: str, remove: np.ndarray, codec: str = "varint") -> int:
    """Mask the given doc_ids out of every posting (ONE RAY TASK PER PART,
    each a whole-part decode -> filter -> ``encode_bucket`` ->
    ``commit_segment``, see ``_reencode_part``) and drop them from the
    docmap (consolidated rewrite).
    Returns the number of parts that lost a posting (rewritten or deleted);
    the other parts are left as they were."""
    ddir = _docmap_dir(index_dir)
    _recover_docmap_swap(ddir)
    remove = np.unique(np.asarray(remove, dtype=np.int64))
    rref = ray.put(remove)  # O(removal) driver state only
    parts = sorted(state.committed_parts(index_dir))
    results = ray.get(
        [_reencode_part_remote.remote(index_dir, p, codec, remove_ids=rref) for p in parts]
    )

    # rewrite docmap STREAMING (delta dirs folded in): Ray Data filter pass
    # into a temp dir, then swap — the docmap never passes through the driver
    import shutil

    files = docmap_files(ddir)
    schema = pq.read_schema(files[0])

    def drop_removed(batch: pa.Table) -> pa.Table:
        rem = ray.get(rref)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(rem, ids)
        dead = (pos < len(rem)) & (rem[np.minimum(pos, len(rem) - 1)] == ids)
        return batch.filter(pa.array(~dead))

    tmp_dir = ddir + ".rewrite"
    shutil.rmtree(tmp_dir, ignore_errors=True)
    ray.data.read_parquet(files).map_batches(
        drop_removed, batch_format="pyarrow"
    ).write_parquet(tmp_dir)
    os.makedirs(tmp_dir, exist_ok=True)  # zero surviving rows: no files emitted
    new_files = docmap_files(tmp_dir)
    if not new_files:  # every doc removed: keep a schema-complete empty docmap
        new_files = [os.path.join(tmp_dir, "part-empty.parquet")]
        pq.write_table(schema.empty_table(), new_files[0])
    # Crash-safe swap (ADVICE r3): every intermediate state keeps a complete
    # docmap on disk. Phase 1 renames originals into a backup dir; a COMMIT
    # marker then declares the backup authoritative; phase 2 renames the
    # rewrite in; only then is the backup dropped. _recover_docmap_swap
    # rolls a crashed swap back from whichever side is complete.
    backup = ddir + ".old"
    shutil.rmtree(backup, ignore_errors=True)
    os.makedirs(backup)
    for name in os.listdir(ddir):
        os.replace(os.path.join(ddir, name), os.path.join(backup, name))
    with open(os.path.join(backup, "COMMIT"), "w") as f:
        f.write("docmap evacuation complete; ddir parquet is new-generation\n")
    for i, f in enumerate(new_files):
        os.replace(f, os.path.join(ddir, f"docmap-{i:04d}.parquet"))
    # commit the delete with ONE atomic rename before any unlink: a crash
    # mid-rmtree must never leave a marker-less backup that the next
    # _recover_docmap_swap would "restore" over the new generation
    doomed = backup + ".deleting"
    shutil.rmtree(doomed, ignore_errors=True)
    os.rename(backup, doomed)
    shutil.rmtree(doomed)
    shutil.rmtree(tmp_dir, ignore_errors=True)
    return sum(results)


def remove_documents(index_dir: str, *, conv_ids=None, doc_ids=None) -> dict:
    """Remove documents (by conv_id or doc_id) from the index + docmap."""
    stats = state.read_stats(index_dir)
    generation = int(stats.get("generation", 0)) + 1

    # victim resolution STREAMS the docmap; only matching ids (bounded by
    # the removal size) reach the driver
    cols = ["doc_id", "conv_id"] if conv_ids is not None else ["doc_id"]
    conv_set = pa.array(list(conv_ids), pa.string()) if conv_ids is not None else None
    id_set = (
        pa.array(sorted(int(d) for d in doc_ids), pa.int64())
        if doc_ids is not None and conv_ids is None
        else None
    )

    def match(batch: pa.Table) -> pa.Table:
        if conv_set is not None:
            m = pc.is_in(batch["conv_id"], value_set=conv_set)
        else:
            m = pc.is_in(batch["doc_id"], value_set=id_set)
        return pa.table({"doc_id": batch.filter(m)["doc_id"]})

    hit_blocks = [
        t
        for t in ray.get(
            ray.data.read_parquet(docmap_files(_docmap_dir(index_dir)), columns=cols)
            .map_batches(match, batch_format="pyarrow")
            .to_arrow_refs()
        )
        if t.num_rows
    ]
    remove = (
        np.sort(
            np.concatenate(
                [t["doc_id"].to_numpy(zero_copy_only=False) for t in hit_blocks]
            )
        )
        if hit_blocks
        else np.array([], dtype=np.int64)
    )
    if len(remove) == 0:
        return {"removed": 0, "generation": generation - 1}

    parts_touched = _purge_doc_ids(
        index_dir, remove, codec=stats.get("postings_codec", "varint")
    )
    n_docs, avgdl = _rewrite_docmap_marker(index_dir)
    _refresh_stats(index_dir, n_docs, avgdl, generation)
    return {
        "removed": int(len(remove)),
        "generation": generation,
        "parts_touched": parts_touched,
    }


def compact_index(index_dir: str) -> dict:
    """Re-encode every part: delta runs collapse back into canonical salt
    runs, generation resets."""
    stats = state.read_stats(index_dir)
    n_salts = int(stats["n_salts"])
    ray.get(
        [
            _reencode_part_remote.remote(
                index_dir, p, stats.get("postings_codec", "varint"), n_salts=n_salts
            )
            for p in sorted(state.committed_parts(index_dir))
        ]
    )
    new_stats = _refresh_stats(index_dir, int(stats["n_docs"]), float(stats["avgdl"]), 0)
    return {"parts": new_stats["n_parts"], "avgdl": new_stats["avgdl"]}


def reindex(
    src_dir: str,
    dst_dir: str,
    *,
    analyzer: str | None = None,
    stopwords: list[str] | None = None,
    postings_codec: str | None = None,
    positions: bool | None = None,
    n_buckets=None,
    n_salts: int | None = None,
) -> dict:
    """Rebuild an index FROM ITS OWN DOC STORE under a new analyzer chain /
    codec / positional setting — the ES ``_reindex`` lifecycle verb. The
    reference's analog is re-running the update pipeline over the persisted
    renumbered structures (CORE/io/DefaultStructureDataProvider.java: the
    renumbered store is the system of record once ingested); here the docmap
    text column is that system of record, so no raw corpus access is needed.

    ``None`` params inherit the source index's setting (stats.json), so
    ``reindex(src, dst, analyzer="s_stem")`` changes ONLY the analyzer.
    DocIDs are preserved: id-mode rebuilds on the stored ``doc_id``;
    transcripts mode re-mints from the stored ``(conv_id, turn_idx)``, and
    the minting invariant (dense ids in sorted key order) reproduces the
    identical assignment. Category + doc-values columns are carried through.
    The destination build is resumable like any other (per-part manifests);
    re-running a crashed reindex with the same args resumes it.

    Scale shape: one streaming read of the docmap (pruned to the needed
    columns) feeding the normal build exchange — never materializes the
    corpus on the driver.
    """
    stats = state.read_stats(src_dir)
    files = docmap_files(_docmap_dir(src_dir))
    dm_schema = pq.read_schema(files[0])
    if "text" not in dm_schema.names:
        raise ValueError(
            "reindex requires an index built with store_text=True "
            "(the docmap is the system of record; this one has no text column)"
        )
    transcripts = bool(stats.get("transcripts_mode"))
    cat_col = stats.get("category_col")
    dv = [c for c in (stats.get("docvalues") or []) if c in dm_schema.names]
    cols = ["text"] + dv
    if transcripts:
        cols += ["conv_id", "turn_idx"]
    else:
        cols += ["doc_id"]
    if cat_col and "category" in dm_schema.names and "category" not in cols:
        cols.append("category")
    ds = ray.data.read_parquet(files, columns=sorted(set(cols)))
    if cat_col and cat_col != "category" and "category" in ds.schema().names:
        # the docmap stores the class column under the fixed name "category";
        # build_index(category_col=...) wants the ORIGINAL source name back
        ds = ds.rename_columns({"category": cat_col})

    from .build import build_index

    return build_index(
        ds,
        dst_dir,
        id_col=None if transcripts else "doc_id",
        n_buckets=stats["n_buckets"] if n_buckets is None else n_buckets,
        n_salts=int(stats["n_salts"]) if n_salts is None else int(n_salts),
        positions=bool(stats.get("positional")) if positions is None else bool(positions),
        store_text=True,
        category_col=cat_col,
        postings_codec=stats.get("postings_codec", "varint")
        if postings_codec is None
        else postings_codec,
        docvalues=dv,
        analyzer=str(stats.get("analyzer", "standard")) if analyzer is None else analyzer,
        stopwords=list(stats.get("stopwords") or []) if stopwords is None else stopwords,
    )


@ray.remote
def _graft_part(dst_dir: str, part: int, src_path: str, run_offset: int) -> int:
    """Append one src segment file to dst part ``part`` with run ids offset —
    postings blobs move verbatim, nothing is decoded. IDEMPOTENT: a part
    whose max run id already reaches this generation's offset was grafted by
    a previous (crashed) attempt — the segment rewrite is atomic, so it is
    either fully grafted or untouched — and is skipped, which is what makes
    a crashed merge safely re-runnable."""
    path = state.segment_path(dst_dir, part)
    if os.path.exists(path):
        prior_max = pc.max(pq.read_table(path, columns=["run"])["run"]).as_py()
        if prior_max is not None and int(prior_max) >= run_offset:
            return part  # this generation's runs are already in
    src = _read_segment(src_path)
    i = src.schema.get_field_index("run")
    src = src.set_column(
        i, "run", pc.add(src["run"], pa.scalar(run_offset, pa.int32())).cast(pa.int32())
    )
    _append_runs(dst_dir, part, src)
    return part


@ray.remote
def _copy_file(src: str, dst: str) -> None:
    import shutil

    tmp = dst + ".tmp"
    shutil.copyfile(src, tmp)
    os.replace(tmp, dst)


def merge_indexes(dst_dir: str, src_dir: str) -> dict:
    """Graft every posting run of ``src_dir`` into ``dst_dir`` — the
    two-bundle variant of the reference's concat-onto-existing-bucket merge
    (CORE/io/DefaultInvertedIndex.java:197-231): src segment rows append to
    dst parts as NEW RUNS (run ids offset by ``generation * n_salts``, the
    same scheme ADD uses), existing runs untouched, posting blobs never
    decoded. Docmap rows copy over as a delta generation; corpus stats
    recompute from the merged docmap; ``hot_terms`` becomes the union (a
    term hot in either bundle is probed across all salted parts, which
    always includes the cold bucket, so every run stays reachable).

    Refuses on mismatched routing/codec contracts and on any docID
    collision (src ids looked up in dst's sorted ids, read in process).
    Requires id-mode indexes — transcripts bundles both mint dense ids from
    0 and always collide."""
    dst = state.read_stats(dst_dir)
    src = state.read_stats(src_dir)
    for key in ("n_buckets", "n_salts", "postings_codec", "hash_scheme",
                "positional", "category_col", "transcripts_mode", "docvalues",
                "analyzer", "stopwords"):
        a, b = dst.get(key), src.get(key)
        if key == "docvalues":  # absent (pre-docvalues index) == empty
            a, b = list(a or []), list(b or [])
        elif key == "analyzer":  # absent (pre-analyzer index) == standard
            a, b = a or "standard", b or "standard"
        elif key == "stopwords":  # absent == no stop filter
            a, b = list(a or []), list(b or [])
        if a != b:
            raise ValueError(
                f"merge refused: routing/format contract mismatch on {key!r} "
                f"({dst.get(key)!r} vs {src.get(key)!r})"
            )
    if dst.get("transcripts_mode"):
        raise ValueError(
            "merge refused: transcripts-mode bundles mint overlapping dense "
            "docIDs; merge id-mode indexes (or re-ADD the raw transcripts)"
        )
    # docmap SCHEMA equality (the old standalone-merge guard): src rows copy
    # into dst verbatim, so any column-set/type drift — store_text on one
    # side, a differently-typed docvalue — would produce a mixed-schema
    # docmap whose text/values surfaces fail long after the merge "succeeded"
    def _docmap_schema(d: str) -> dict[str, str]:
        s = pq.read_schema(docmap_files(_docmap_dir(d))[0])
        return {n: str(t) for n, t in zip(s.names, s.types)}

    a, b = _docmap_schema(dst_dir), _docmap_schema(src_dir)
    if a != b:
        raise ValueError(
            f"merge refused: docmap schemas differ (dst {sorted(a.items())} "
            f"vs src {sorted(b.items())}); rebuild one side with matching "
            "store_text/category/docvalues settings"
        )

    src_files = docmap_files(_docmap_dir(src_dir))
    src_docs = sum(pq.read_metadata(p).num_rows for p in src_files)

    # Crash-resume journal: the collision check is only valid BEFORE any src
    # docmap rows land in dst, and the generation must stay fixed across
    # attempts (it is the part-graft idempotency key). Journal first; a
    # re-run with a matching journal resumes — skips the collision check,
    # reuses the journaled generation — and every later step is idempotent
    # (part grafts skip via run-id marker, docmap copies overwrite the same
    # delta file names, stats recompute from what is on disk).
    jpath = os.path.join(dst_dir, "merge-journal.json")
    src_key = os.path.realpath(src_dir)
    if os.path.exists(jpath):
        with open(jpath) as f:
            journal = json.load(f)
        if journal.get("src") != src_key:
            raise ValueError(
                f"merge refused: unfinished merge of {journal.get('src')!r} "
                "in progress; re-run that merge (or remove merge-journal.json "
                "after manual repair) first"
            )
        generation = int(journal["generation"])
    else:
        dst_dl = read_doc_lengths(_docmap_dir(dst_dir))
        src_ids = read_doc_lengths(_docmap_dir(src_dir)).ids
        collisions = int(dst_dl.contains(src_ids).sum())
        if collisions:
            raise ValueError(
                f"merge refused: docID spaces overlap — {collisions} src "
                "docIDs already present in dst"
            )
        generation = int(dst.get("generation", 0)) + 1
        state.atomic_write_bytes(
            json.dumps({"src": src_key, "generation": generation}).encode(), jpath
        )

    run_offset = generation * int(dst["n_salts"])
    src_parts = state.committed_parts(src_dir)
    ray.get(
        [
            _graft_part.remote(
                dst_dir, p, state.segment_path(src_dir, p), run_offset
            )
            for p in sorted(src_parts)
        ]
    )

    delta_dir = os.path.join(_docmap_dir(dst_dir), f"delta-{generation:04d}")
    os.makedirs(delta_dir, exist_ok=True)
    # one task per docmap file (names deterministic -> re-copy on resume
    # overwrites, never duplicates); the driver never streams docmap bytes
    ray.get(
        [
            _copy_file.remote(p, os.path.join(delta_dir, f"merged-{i:05d}.parquet"))
            for i, p in enumerate(src_files)
        ]
    )

    n_docs, avgdl = _rewrite_docmap_marker(dst_dir)
    new_stats = _refresh_stats(dst_dir, n_docs, avgdl, generation)
    new_stats["hot_terms"] = sorted(
        set(dst.get("hot_terms", [])) | set(src.get("hot_terms", []))
    )
    new_stats["inputs"] = list(dst.get("inputs", [])) + list(src.get("inputs", []))
    state.write_stats(dst_dir, new_stats)
    # keep the build-resume routing contract in step with the union hot set
    rpath = os.path.join(dst_dir, "routing.json")
    if os.path.exists(rpath):
        with open(rpath) as f:
            contract = json.load(f)
        contract["hot_terms"] = new_stats["hot_terms"]
        state.atomic_write_bytes(
            json.dumps(contract, sort_keys=True).encode(), rpath
        )
    os.remove(jpath)  # merge committed; journal no longer claims the dir
    return {
        "merged_docs": src_docs,
        "n_docs": n_docs,
        "parts_touched": len(src_parts),
        "generation": generation,
    }


def update_and_percolate(
    index_dir: str,
    source,
    queries: list[dict],
    *,
    mode: str = "any",
    text_col: str = "text",
    id_col: str | None = None,
    concurrency: int = 4,
):
    """Incremental ADD + standing-query alerts over the freshly indexed docs
    — the detect-motifs-on-update composite (the reference percolates new
    structures against its motif registry during the update cycle,
    Strucmotif.detectMotifs + StrucmotifUpdate ADD).

    Runs :func:`add_documents`, then streams ONLY the delta (the docs that
    were actually indexed this call — re-submitted unchanged docs never
    re-alert, the idempotent-ADD contract) through the actor-pool percolator
    against the UPDATED index stats. Returns ``(report, alerts)`` where
    ``alerts`` is a Dataset of (doc_id, query_id, score) matches.
    """
    from .percolate import percolate_dataset

    report = add_documents(
        index_dir, source, text_col=text_col, id_col=id_col, return_delta=True
    )
    delta_ds = report.pop("delta_ds", None)
    if delta_ds is None or report["added"] == 0:
        import ray.data as _rd

        empty = pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "query_id": pa.array([], pa.string()),
                "score": pa.array([], pa.float64()),
            }
        )
        return report, _rd.from_arrow(empty)
    alerts = percolate_dataset(
        delta_ds, index_dir, queries, mode=mode, concurrency=concurrency,
        id_col="doc_id", text_col=text_col,
    )
    return report, alerts
