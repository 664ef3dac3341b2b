"""Deterministic dense docID assignment for transcript corpora.

The reference mints structure indices from a synchronized mutable counter
(DefaultStructureIndexProvider.java:115-122) — a single-JVM design that cannot
scale out. We replace it with a *derived* assignment that depends only on the
data (SURVEY §7.2 P2): docID = rank of (conv_id, turn_idx) in ascending order,
computed WITHOUT a global sort of the turn table:

1. pass 1 — per-batch partial counts (one row per (conv, block) — tiny
   relative to #turns, conversations are contiguous on disk);
2. exchange — partial blocks split by LEXICOGRAPHIC conv range through
   the index build's exchange (:func:`engine.exchange.exchange`; no Dataset
   sort barrier, which costs a flat, CPU-count-independent ~3-5s on
   kilobytes of keys) -> one combine task per range produces a SORTED
   (convs, counts) shard that stays in the object store;
3. driver — prefix-sum over the R range TOTALS only (O(R) driver state; the
   per-conv arrays never leave the workers — VERDICT r2 #1/"missing" item);
4. pass 2 — ``map_batches``: ``doc_id = range_base + in-range offset +
   turn_idx``; each task fetches ONLY the range shards its batch's convs
   touch (convs are contiguous on disk, so that is ~1 shard per batch,
   plasma-cached per node).

Deterministic under any parallelism / retry (split points derive from block 0
of the partial counts, whose content is a pure function of the corpus), and
honors the stable-ordering invariant: docIDs ascend exactly in
``(conv_id, turn_idx)`` order because ranges are lexicographic and turn_idx
is 0..len-1 within each conv.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from .exchange import exchange


class ConvOffsetIndex:
    """Range-sharded ``conv_id -> (base docID, turn count)`` lookup.

    Driver-resident state is O(R): the R-1 split points, per-range base
    offsets, and R shard ObjectRefs. Each shard is a sorted
    ``(convs, counts, bases_within_range)`` triple in the object store."""

    def __init__(self, splits: np.ndarray, range_base: np.ndarray,
                 shard_refs: list, total: int):
        self.splits = splits          # (R-1,) lexicographic split points
        self.range_base = range_base  # (R,) base docID of each range
        self.shard_refs = shard_refs  # (R,) ObjectRef -> (convs, counts, offs)
        self.total = int(total)

    def lookup(self, uniq_convs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(base, count) per conv in ``uniq_convs`` (any order). Raises on a
        conv absent from the corpus. Fetches only the touched shards."""
        rng = np.searchsorted(self.splits, uniq_convs, side="right")
        base = np.empty(len(uniq_convs), dtype=np.int64)
        count = np.empty(len(uniq_convs), dtype=np.int64)
        for r in np.unique(rng):
            m = rng == r
            convs_r, counts_r, offs_r = ray.get(self.shard_refs[r])
            c = uniq_convs[m]
            pos = np.searchsorted(convs_r, c)
            bad = (pos >= len(convs_r)) | (convs_r[np.minimum(pos, max(len(convs_r) - 1, 0))] != c) if len(convs_r) else np.ones(len(c), dtype=bool)
            if bad.any():
                j = int(np.flatnonzero(bad)[0])
                raise ValueError(f"conv_id {c[j]!r} not present in offset table")
            base[m] = self.range_base[r] + offs_r[pos]
            count[m] = counts_r[pos]
        return base, count


def build_conv_offset_index(ds: "ray.data.Dataset", n_ranges: int = 8) -> ConvOffsetIndex:
    """Passes 1+2+3 of the docstring: partial counts -> range split/combine
    exchange -> O(R) driver prefix-sum."""

    def partial_counts(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["conv_id"], use_threads=False).aggregate([("conv_id", "count")])
        return pa.table({"conv_id": g["conv_id"], "n": g["conv_id_count"].cast(pa.int64())})

    # projection pushes into the parquet read: pass 1 never pulls text bytes
    partial = (
        ds.select_columns(["conv_id"])
        .map_batches(partial_counts, batch_format="pyarrow")
        .materialize()  # the partial blocks stay remote
    )
    partial_refs = partial.to_arrow_refs()
    if not partial_refs:
        return ConvOffsetIndex(
            np.array([], dtype=str), np.zeros(1, dtype=np.int64), [], 0
        )

    # deterministic split points: evenly spaced convs from the first
    # NON-EMPTY partial block (block order is a pure function of the read
    # layout; empty-corpus blocks can be schema-less). Ranges are
    # (-inf, s1), [s1, s2), ..., [s_{R-1}, inf) — convs outside that block's
    # span fall into the end ranges.
    uniq0 = np.array([], dtype=str)
    for ref in partial_refs:
        first = ray.get(ref)
        if first.num_rows and "conv_id" in first.column_names:
            uniq0 = np.unique(first["conv_id"].to_numpy(zero_copy_only=False).astype(str))
            break
    R = int(max(1, min(n_ranges, len(uniq0))))
    if R > 1:
        idx = np.linspace(0, len(uniq0), num=R, endpoint=False)[1:].astype(np.int64)
        splits = uniq0[idx]
    else:
        splits = np.array([], dtype=uniq0.dtype if len(uniq0) else str)

    def conv_range(tbl: pa.Table) -> np.ndarray:
        convs = tbl["conv_id"].to_numpy(zero_copy_only=False).astype(str)
        return np.searchsorted(splits, convs, side="right")

    @ray.remote(num_returns=2)
    def combine_range(*tbls):
        """-> (total rows in range, (convs_sorted, counts, in-range offsets))"""
        live = [t for t in tbls if t is not None and t.num_rows]
        if not live:
            e = np.array([], dtype=str)
            z = np.array([], dtype=np.int64)
            return 0, (e, z, z)
        import pyarrow.compute as pc

        tbl = pa.concat_tables(live).group_by(["conv_id"], use_threads=False).aggregate(
            [("n", "sum")]
        )
        order = pc.sort_indices(tbl["conv_id"].combine_chunks())
        convs = tbl["conv_id"].combine_chunks().take(order).to_numpy(zero_copy_only=False).astype(str)
        n = tbl["n_sum"].combine_chunks().take(order).to_numpy(zero_copy_only=False).astype(np.int64)
        offs = np.zeros(len(n), dtype=np.int64)
        np.cumsum(n[:-1], out=offs[1:])
        return int(n.sum()), (convs, n, offs)

    ranges, _ = exchange(partial, R, conv_range)
    totals, shard_refs = [], []
    for rr in range(R):
        t_ref, s_ref = combine_range.remote(*ranges[rr])
        totals.append(t_ref)
        shard_refs.append(s_ref)
    totals = ray.get(totals)  # O(R) ints — the only driver-side combine
    range_base = np.zeros(R, dtype=np.int64)
    np.cumsum(np.asarray(totals[:-1], dtype=np.int64), out=range_base[1:])
    return ConvOffsetIndex(splits, range_base, shard_refs, int(sum(totals)))


def conv_base_offsets(ds: "ray.data.Dataset") -> tuple[np.ndarray, np.ndarray]:
    """Flat (convs_sorted, base) arrays — convenience wrapper over the
    sharded index for tests / small corpora (collects ALL shards; the build
    path uses :class:`ConvOffsetIndex` directly and never does this)."""
    idx = build_conv_offset_index(ds)
    convs_all, base_all = [], []
    for r, ref in enumerate(idx.shard_refs):
        convs_r, counts_r, offs_r = ray.get(ref)
        convs_all.append(convs_r)
        base_all.append(idx.range_base[r] + offs_r)
    if not convs_all:
        return np.array([], dtype=str), np.zeros(1, dtype=np.int64)
    convs = np.concatenate(convs_all)
    base = np.concatenate([np.concatenate(base_all), [idx.total]]).astype(np.int64)
    return convs, base


def add_doc_ids(ds: "ray.data.Dataset", index: ConvOffsetIndex) -> "ray.data.Dataset":
    """Pass 4: append ``doc_id = base[conv] + turn_idx`` to every row."""
    # the index object is tiny (O(R) refs + split points); Ray serializes the
    # contained ObjectRefs by reference, so shards ship on demand per node
    idx_ref = ray.put(index)

    def assign(batch: pa.Table) -> pa.Table:
        idx = ray.get(idx_ref)
        # conv_ids repeat ~turns-per-conv times within a batch: dictionary-
        # encode and do the unicode conversion + shard lookup + validation
        # over UNIQUES only
        col = batch["conv_id"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        dic = col.dictionary_encode()
        uniq = np.asarray(dic.dictionary.to_pylist(), dtype=str)
        base_u, counts_u = idx.lookup(uniq)
        codes = dic.indices.to_numpy(zero_copy_only=False)
        turn = batch["turn_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
        # the assignment is only collision-free when turn_idx is exactly
        # 0..count-1 per conversation — validate instead of silently
        # corrupting the index: range check catches gaps (a deleted turn
        # maps past the conversation's reserved block), the per-batch
        # doc_id-uniqueness check catches duplicated turn_idx values
        counts = counts_u[codes]
        bad = (turn < 0) | (turn >= counts)
        if bad.any():
            j = int(np.flatnonzero(bad)[0])
            raise ValueError(
                f"turn_idx {turn[j]} out of range [0, {counts[j]}) for conv "
                f"{uniq[codes[j]]!r}: turn_idx must be dense 0..count-1 per conversation"
            )
        doc_id = base_u[codes] + turn
        if len(np.unique(doc_id)) != len(doc_id):
            raise ValueError("duplicate (conv_id, turn_idx) rows in batch")
        return batch.append_column("doc_id", pa.array(doc_id, pa.int64()))

    return ds.map_batches(assign, batch_format="pyarrow")
