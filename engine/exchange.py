"""The object-store exchange: split rows by an output key, collect per output.

One shuffle serves the index build (rows -> posting parts), ADD (delta rows
-> the parts they touch) and docID minting (per-conversation counts ->
lexicographic ranges). Split tasks take several upstream blocks each and
return one sub-table per output (``num_returns=n_out``); the caller hands
output ``p``'s sub-tables to one reduce task (encode a part, append delta
runs, sum a range). It is the in-memory form of the reference's per-thread
spill files + per-prefix merge (UPD/Context.java:60-73,
DefaultInvertedIndex.java:120-268).

Why raw tasks and not the Dataset API: the key has only a few hundred
distinct values, so ``groupby(key)``'s sort-based exchange pays a
sample+sort+range-merge with a ~25 s floor that does not shrink with CPU
count, a hash-shuffle strategy was 1.5x slower, and a hive-partitioned
parquet spill was 3-4x slower (disk IOPS). Partitioning assumption: one
output's rows fit one worker's heap — the same assumption
``groupby().map_groups`` makes; the caller's output count controls it.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

# Several routed blocks feed ONE split task: the split stage emits
# (split tasks x n_out) objects and every reduce task resolves one dependency
# per split task, and thousands of tiny objects cost more in store metadata +
# scheduler work than they buy in parallelism (measured 1.5-2x on the whole
# stage). Each split pays a fixed per-RETURN cost (plasma seal + metadata,
# ~1-3 ms under load), so groups grow with n_out: measured at 6.6M turns,
# 348 parts, 32 CPUs, 64 MB groups -> tokenize+split 90.5 s, 192 MB -> 21.1 s.
# A split task peaks at ~2.5x its group bytes (concat + sorted take); the
# 4x cap keeps 32 concurrent splits near 20 GB.
SPLIT_GROUP_BYTES = 64 << 20  # at n_out <= 96; scaled up to 4x above
SPLIT_GROUP_REFS = 8  # at least this many blocks per split (or n_out // 12)

# Bound on the DRIVER-side ref set: once more than this many split tasks are
# out, one combine task per output folds their sub-tables into one table, so
# the driver holds <= (COMBINE_SPLITS + 1) x n_out refs at any input size.
# The folds launch while later splits still run. No benchmarked build
# reaches the window (sf0.1 makes ~30 split tasks).
COMBINE_SPLITS = 256


def _compact_dictionaries(sl: pa.Table, dict_cols, lo: int, hi: int) -> pa.Table:
    """Re-encode each dictionary column of one output slice over ONLY the
    values that slice uses: a plain slice would serialize the group's whole
    unified dictionary into every output object. A boolean-LUT remap over
    the group vocab (np.unique(return_inverse=True) sorts the slice and was
    measured ~100x slower on real slices)."""
    for i, name, codes_all, dictionary in dict_cols:
        codes = codes_all[lo:hi]
        seen = np.zeros(len(dictionary), dtype=bool)
        seen[codes] = True
        uniq = np.flatnonzero(seen)
        lut = np.zeros(len(dictionary), dtype=np.int32)
        lut[uniq] = np.arange(len(uniq), dtype=np.int32)
        sl = sl.set_column(i, name, pa.DictionaryArray.from_arrays(
            pa.array(lut[codes]), dictionary.take(pa.array(uniq))))
    return sl


def exchange(ds: "ray.data.Dataset", n_out: int, key) -> tuple[list[list], int]:
    """Route every row of ``ds`` to output ``key(table)[row]`` in
    ``[0, n_out)``. Returns ``(outputs, combine_rounds)``: ``outputs[p]`` is
    the list of ObjectRefs whose tables (or ``None``) hold output ``p``'s
    rows, and ``combine_rounds`` counts the driver-ref folds that ran.

    ``key`` runs inside the split task on the concatenated group. Split
    tasks launch as upstream blocks materialize (streaming ref-bundle
    iteration), so splitting overlaps the tail of the upstream map."""

    @ray.remote(num_returns=n_out)
    def split(*tbls):
        live = [t for t in tbls if t.num_rows]
        if not live:
            # empty upstream blocks skip the map UDF and keep the input schema
            return (None,) * n_out if n_out > 1 else None
        tbl = live[0] if len(live) == 1 else pa.concat_tables(live)
        dest = np.asarray(key(tbl))
        order = np.argsort(dest, kind="stable")
        s = tbl.take(pa.array(order))
        bounds = np.searchsorted(dest[order], np.arange(n_out + 1))
        dict_cols = []
        for i, field in enumerate(s.schema):
            if pa.types.is_dictionary(field.type):
                col = s.column(i).combine_chunks()
                dict_cols.append((i, field.name,
                                  col.indices.to_numpy(zero_copy_only=False), col.dictionary))
        out = tuple(
            _compact_dictionaries(s.slice(int(lo), int(hi - lo)), dict_cols, lo, hi)
            if hi > lo else s.slice(int(lo), 0)
            for lo, hi in zip(bounds[:-1], bounds[1:])
        )
        return out if n_out > 1 else out[0]

    @ray.remote
    def combine(*tbls):
        live = [t for t in tbls if t is not None and t.num_rows]
        # chunks keep their own (per-slice compacted) dictionaries; the
        # reducer unifies them once per output
        return pa.concat_tables(live) if live else None

    group_bytes = int(SPLIT_GROUP_BYTES * min(4.0, max(1.0, n_out / 96.0)))
    group_refs = max(SPLIT_GROUP_REFS, n_out // 12)
    splits: list = []
    pending: list = []
    pending_bytes = 0
    combine_rounds = 0

    def flush():
        nonlocal splits, pending, pending_bytes, combine_rounds
        if not pending:
            return
        refs = split.remote(*pending)
        splits.append(refs if n_out > 1 else [refs])
        pending, pending_bytes = [], 0
        if len(splits) > COMBINE_SPLITS:
            splits = [[combine.remote(*[sr[p] for sr in splits]) for p in range(n_out)]]
            combine_rounds += 1

    for bundle in ds.iter_internal_ref_bundles():
        for block_ref, meta in bundle.blocks:
            pending.append(block_ref)
            pending_bytes += int(meta.size_bytes or 0)
            if pending_bytes >= group_bytes or len(pending) >= group_refs:
                flush()
    flush()
    return [[sr[p] for sr in splits] for p in range(n_out)], combine_rounds
