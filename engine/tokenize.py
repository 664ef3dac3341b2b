"""Tokenizer stage — the "word extraction" analog.

The reference decomposes each structure into residue-pair descriptor words
(/root/reference/strucmotif-search-core/src/main/java/org/rcsb/strucmotif/
domain/structure/ResidueGraph.java:138-146,226-338): document -> bag of terms
with per-doc occurrence payloads. Here: turn/document text -> exploded
``(term, doc_id, tf, dl)`` rows, fully vectorized over Arrow batches
(pyarrow.compute string kernels + Acero group_by; no Python loop over rows).

The within-batch tf aggregation doubles as the SPIMI *partial* aggregation
(StrucmotifUpdate.java:336-373 analog): the downstream ``groupby(term)``
shuffle moves one row per (term, doc) instead of one per token occurrence.

Tokenizer contract (shared verbatim with the DuckDB oracle SQL in
``__ray_entry__.oracle_sql``): lowercase, split on runs of non-[a-z0-9],
drop empty tokens.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .schema import TOKEN_SPLIT_REGEX


def _explode_tokens(text: pa.ChunkedArray | pa.Array) -> tuple[pa.Array, np.ndarray, np.ndarray]:
    """text column -> (flat_tokens, parent_row_index, tokens_per_row).

    Empty tokens (regex split artifacts) are dropped; ``tokens_per_row`` counts
    only the surviving tokens (= BM25 document length ``dl``).
    """
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    n = len(text)
    lowered = pc.utf8_lower(text)
    toks = pc.split_pattern_regex(lowered, TOKEN_SPLIT_REGEX)
    flat = pc.list_flatten(toks)
    parent = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
    keep = pc.not_equal(flat, "")
    # null texts produce no tokens at all (list_flatten skips nulls)
    keep_np = keep.to_numpy(zero_copy_only=False)
    flat = flat.filter(keep)
    parent = parent[keep_np]
    dl = np.bincount(parent, minlength=n).astype(np.int32)
    return flat, parent, dl


#: analyzers the index understands. "standard" = the bare split contract
#: above; "s_stem" = standard + Harman S-stem token filter. Persisted in
#: stats.json at build time so ADD deltas and the query side reuse the exact
#: chain (an index/query analyzer mismatch silently returns empty postings —
#: the classic Lucene/ES foot-gun — so both sides read it from ONE place).
ANALYZERS = ("standard", "s_stem")


def s_stem_array(flat: pa.Array) -> pa.Array:
    """Vectorized Harman S-stemmer (Harman '91, the classic weak English
    plural stemmer — the analyzer-chain analog of ES's ``stemmer: minimal_
    english``), if/else per token with suffix-LIKE semantics so a DuckDB
    CASE expression reproduces it byte-for-byte:

      0. protected suffixes pass through UNCHANGED: 'eies' 'aies' (rule-1
         exceptions), 'aes' 'ees' 'oes' (rule-2), 'us' 'ss' (rule-3), and
         the bare token 's'
      1. else ends 'ies' -> 'ies' => 'y'
      2. else ends 'es'  -> drop the 's'
      3. else ends 's'   -> drop the 's'

    Exceptions are TERMINAL (a protected word is done, it does not fall
    through to a weaker rule — 'goes' stays 'goes', never 'goe'), which is
    the flat exception-first form below; it is equivalent to per-rule
    protection because each exception suffix implies its own rule's suffix
    test and rules order by suffix specificity ('ies' < 'es' < 's').

    All branches are arrow compute (masks + regex tail replace + if_else) —
    no per-row Python. The stem is TOTAL (never empty), so token counts —
    and therefore BM25 ``dl`` and the docmap — are analyzer-invariant."""
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()

    def ew(s):
        return pc.ends_with(flat, s)

    protected = pc.equal(flat, "s")
    for sfx in ("eies", "aies", "aes", "ees", "oes", "us", "ss"):
        protected = pc.or_(protected, ew(sfx))
    r1 = pc.replace_substring_regex(flat, "ies$", "y")
    r_drop = pc.replace_substring_regex(flat, "s$", "")
    stemmed = pc.if_else(
        ew("ies"), r1, pc.if_else(ew("es"), r_drop, pc.if_else(ew("s"), r_drop, flat))
    )
    return pc.if_else(protected, flat, stemmed)


#: rule-exception suffixes, shared by the scalar twin and (restated as LIKE
#: patterns) the SQL oracle twin in __ray_entry__._STEM_CASE
S_STEM_PROTECTED = ("eies", "aies", "aes", "ees", "oes", "us", "ss")


def s_stem_token(t: str) -> str:
    """Scalar twin of :func:`s_stem_array` — one token in, one token out
    (identical protected-suffix-first rules; total, never empty)."""
    if t == "s" or t.endswith(S_STEM_PROTECTED):
        return t
    if t.endswith("ies"):
        return t[:-3] + "y"
    if t.endswith("es") or t.endswith("s"):
        return t[:-1]
    return t


def analyze_text(
    text: str, analyzer: str = "standard", stopwords=None
) -> list[str]:
    """Query-side analyzer chain: tokenize, then apply the index's token
    filters in build order — STOP first (stopwords are surface forms, the
    Lucene/ES convention), stem second. MUST mirror what
    :func:`tokenize_batch` did at build time — callers get the analyzer name
    and stopword list from the index's stats.json."""
    toks = tokenize_text(text)
    if stopwords:
        stop = stopwords if isinstance(stopwords, (set, frozenset)) else set(stopwords)
        toks = [t for t in toks if t not in stop]
    if analyzer == "s_stem":
        return [s_stem_token(t) for t in toks]
    if analyzer != "standard":
        raise ValueError(f"unknown analyzer {analyzer!r}; expected one of {ANALYZERS}")
    return toks


def tokenize_batch(
    batch: pa.Table, id_col: str = "doc_id", text_col: str = "text",
    positions: bool = False, with_dl: bool = True, compact_ids: bool = False,
    analyzer: str = "standard", stopwords=None,
) -> pa.Table:
    """One Arrow batch of docs -> exploded (term, doc_id, tf[, dl]) table.

    ``id_col`` must be int64 and unique within the corpus (dense docIDs from
    ``engine.docids`` for transcripts; the native ``doc_id`` for documents).

    ``with_dl=False`` omits the per-row ``dl`` column: the segment encoder
    does not read it (lengths live in the docmap), so the build exchange and
    ADD drop 4 bytes/posting from every shuffle copy.

    ``positions=True`` adds a ``pos`` list<int32> column: the ASCENDING
    0-based token offsets of this (doc, term)'s occurrences — the
    ``identifierData`` payload analog (domain/bucket/ArrayBucket.java:31-34
    keeps per-occurrence residue identifiers beside each docID). Grouping is
    done with one lexsort instead of the hash group_by so the per-group
    position lists come out ordered for free.

    ``analyzer="s_stem"`` runs the vectorized S-stem token filter over the
    flat token array BEFORE grouping, so tokens that stem together ("file",
    "files") merge into one (term, doc) row with summed tf; positions keep
    the ORIGINAL token offsets (standard Lucene stemming behavior). The
    stem is total, so ``dl`` is identical under either analyzer.

    ``stopwords``: surface-form stop filter (ES ``stop`` token filter; the
    text analog of the reference's M1 drop-disallowed-components chain,
    DefaultStructureWriter.java:127-158), applied BEFORE stemming. Unlike
    stemming it REMOVES tokens, so ``dl`` counts the ANALYZED stream and
    positions are offsets in the post-stop sequence (phrase adjacency means
    "adjacent after stop removal" — documented contract, shared with the
    SQL oracle's list_filter + row_number restatement).
    """
    flat, parent, dl = _explode_tokens(batch[text_col])
    if stopwords:
        keep = pc.invert(
            pc.is_in(flat, value_set=pa.array(sorted(set(stopwords)), pa.string()))
        )
        keep_np = keep.to_numpy(zero_copy_only=False)
        flat = flat.filter(keep)
        parent = parent[keep_np]
        dl = np.bincount(parent, minlength=batch.num_rows).astype(np.int32)
    if analyzer == "s_stem":
        flat = s_stem_array(flat)
    elif analyzer != "standard":
        raise ValueError(f"unknown analyzer {analyzer!r}; expected one of {ANALYZERS}")
    if len(flat) == 0:
        cols = {
            "term": pa.array([], pa.string()),
            "doc_id": pa.array([], pa.int32() if compact_ids else pa.int64()),
            "tf": pa.array([], pa.int32()),
        }
        if with_dl:
            cols["dl"] = pa.array([], pa.int32())
        if positions:
            cols["pos"] = pa.array([], pa.list_(pa.int32()))
        return pa.table(cols)
    doc_ids = batch[id_col].combine_chunks() if isinstance(batch[id_col], pa.ChunkedArray) else batch[id_col]
    doc_ids_np = doc_ids.to_numpy(zero_copy_only=False).astype(np.int64)
    # compact_ids: ship docIDs as int32 through the exchange when the CALLER
    # knows the whole corpus fits (build passes n_docs < 2^31) — 4 bytes/
    # posting saved in every object-store copy; the encoder upcasts once
    compact = compact_ids and (
        len(doc_ids_np) == 0 or (doc_ids_np.min() >= 0 and doc_ids_np.max() < 2**31)
    )
    if not positions:
        gathered = doc_ids_np[parent]
        exp_cols = {
            "term": flat,
            "doc_id": pa.array(gathered.astype(np.int32) if compact else gathered),
        }
        if with_dl:
            exp_cols["dl"] = pa.array(dl[parent], pa.int32())
        exploded = pa.table(exp_cols)
        # partial aggregation: tf per (doc, term) within this batch (SPIMI partial)
        aggs = [("term", "count")] + ([("dl", "min")] if with_dl else [])
        grouped = exploded.group_by(["term", "doc_id"], use_threads=False).aggregate(aggs)
        out_cols = {
            "term": grouped["term"],
            "doc_id": grouped["doc_id"],
            "tf": grouped["term_count"].cast(pa.int32()),
        }
        if with_dl:
            out_cols["dl"] = grouped["dl_min"]
        return pa.table(out_cols)

    # positional: one lexsort groups (doc, term) AND orders positions ascending
    doc_starts = np.zeros(len(dl) + 1, dtype=np.int64)
    np.cumsum(dl, out=doc_starts[1:])
    pos_in_doc = (np.arange(len(parent), dtype=np.int64) - doc_starts[parent]).astype(np.int32)
    dic = flat.dictionary_encode()
    codes = dic.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((pos_in_doc, codes, parent))
    p_s, c_s, pos_s = parent[order], codes[order], pos_in_doc[order]
    is_start = np.empty(len(p_s), dtype=bool)
    is_start[0] = True
    np.not_equal(
        (p_s[1:].astype(np.int64) << 32) | c_s[1:], (p_s[:-1].astype(np.int64) << 32) | c_s[:-1],
        out=is_start[1:],
    )
    starts = np.flatnonzero(is_start)
    ends = np.append(starts[1:], len(p_s))
    offsets = np.empty(len(starts) + 1, dtype=np.int32)
    offsets[:-1] = starts
    offsets[-1] = len(p_s)
    out_cols = {
        "term": dic.dictionary.take(pa.array(c_s[starts])),
        "doc_id": pa.array(doc_ids_np[p_s[starts]], pa.int64()),
        "tf": pa.array((ends - starts).astype(np.int32)),
    }
    if with_dl:
        out_cols["dl"] = pa.array(dl[p_s[starts]], pa.int32())
    out_cols["pos"] = pa.ListArray.from_arrays(pa.array(offsets), pa.array(pos_s, pa.int32()))
    return pa.table(out_cols)


def doc_length_batch(
    batch: pa.Table, id_col: str = "doc_id", text_col: str = "text",
    stopwords=None,
) -> pa.Table:
    """One batch -> (doc_id, dl) token counts (docmap / BM25 ``dl``).

    Counts regex matches instead of materializing the split: one maximal
    [a-z0-9] run == one surviving token of the split contract, so this equals
    ``len(_explode_tokens(...))`` per row at a fraction of the cost
    (no flat token array is built).

    ``stopwords`` forces the exact explode+filter path — stop removal drops
    tokens, so dl must count the ANALYZED stream (the same contract
    :func:`tokenize_batch` writes into postings). Stemming never needs this:
    the stem is total, counts are unchanged."""
    from .schema import TOKEN_MATCH_REGEX

    if stopwords:
        flat, parent, _dl = _explode_tokens(batch[text_col])
        keep = pc.is_in(
            flat, value_set=pa.array(sorted(set(stopwords)), pa.string())
        )
        kept_parent = parent[pc.invert(keep).to_numpy(zero_copy_only=False)]
        dl_np = np.bincount(kept_parent, minlength=batch.num_rows).astype(np.int32)
        return pa.table(
            {
                "doc_id": batch[id_col].cast(pa.int64()),
                "dl": pa.array(dl_np, pa.int32()),
            }
        )

    text = batch[text_col]
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    dl = pc.count_substring_regex(pc.utf8_lower(text), TOKEN_MATCH_REGEX)
    dl = pc.coalesce(dl, pa.scalar(0, dl.type))  # null text -> 0 tokens
    return pa.table(
        {
            "doc_id": batch[id_col].cast(pa.int64()),
            "dl": dl.cast(pa.int32()),
        }
    )


def tokenize_text(text: str) -> list[str]:
    """Single-string tokenizer (query side + oracle). Same contract."""
    import re

    return [t for t in re.split(TOKEN_SPLIT_REGEX, text.lower()) if t]


def normalize_batch(
    batch: pa.Table, id_col: str = "doc_id", text_col: str = "text"
) -> pa.Table:
    """M1 normalizer/filter chain analog (DefaultStructureWriter.java:127-158:
    drop disallowed rows, canonicalize the rest): NFC-normalize, lowercase,
    collapse whitespace runs, trim, DROP null/empty rows. Pure pyarrow.compute
    kernels; contract shared with the DuckDB oracle
    (``regexp_replace(trim(lower(nfc_normalize(text))), '\\s+', ' ', 'g')``)."""
    text = batch[text_col]
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    norm = pc.utf8_trim_whitespace(
        pc.replace_substring_regex(
            pc.utf8_lower(pc.utf8_normalize(text, form="NFC")), r"\s+", " "
        )
    )
    keep = pc.and_kleene(pc.is_valid(norm), pc.not_equal(norm, ""))
    keep = pc.fill_null(keep, False)
    out = pa.table({id_col: batch[id_col].cast(pa.int64()), "norm_text": norm})
    return out.filter(keep)


def md5_lower64(strs: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """uint64 hash of each string, bit-identical to DuckDB's
    ``md5_number_lower(s)``: the LAST 8 bytes of the md5 digest read
    little-endian. Hashes the dictionary (unique strings) only — O(unique)
    Python — then gathers per occurrence, so any hash-derived operator can be
    restated exactly in oracle SQL. Used for simhash token hashing and docmap
    content revisions."""
    import hashlib

    if isinstance(strs, pa.ChunkedArray):
        strs = strs.combine_chunks()
    dic = strs.dictionary_encode()
    uniq = np.array(
        [
            int.from_bytes(hashlib.md5((t or "").encode()).digest()[8:], "little")
            for t in dic.dictionary.to_pylist()
        ],
        dtype=np.uint64,
    )
    if len(uniq) == 0:
        return np.array([], dtype=np.uint64)
    return uniq[dic.indices.to_numpy(zero_copy_only=False)]


def hash_scheme() -> str:
    """Name of the content-hash scheme :func:`hash64_text` will use in this
    process. Persisted in stats.json at build time and verified by
    incremental ADD: content_hash values written by one run are compared
    against hashes computed by later runs, so a silent scheme flip (polars
    added/removed from the env) would classify every re-submitted known doc
    as MODIFIED and trigger a full purge + re-index pass."""
    try:
        import polars  # noqa: F401

        return "polars-xxhash64-seed0"
    except ImportError:  # pragma: no cover - polars is baked into the env
        return "md5-lower64"


def hash64_text(strs: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """Vectorized uint64 content hash for docmap revision tracking.

    Doc TEXTS are (nearly) all unique, so md5_lower64's dictionary trick
    degenerates to a per-row Python md5 loop there (~5 us/doc). This path is
    xxhash64 via polars (~30x faster, no Python loop), falling back to md5.
    NOT SQL-parity bound — revision hashes are only ever compared against
    hashes written by the same code; a hash-scheme change at worst re-indexes
    re-submitted docs (safe direction). Used by build + incremental ADD, which
    therefore MUST share this one function."""
    try:
        import polars as pl
    except ImportError:  # pragma: no cover - polars is baked into the env
        return md5_lower64(strs)
    if isinstance(strs, pa.ChunkedArray):
        strs = strs.combine_chunks()
    if len(strs) == 0:
        return np.array([], dtype=np.uint64)
    return (
        pl.Series("t", strs).fill_null("").hash(seed=0).to_numpy().astype(np.uint64)
    )
