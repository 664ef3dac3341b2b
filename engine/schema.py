"""Arrow schemas + constants for the engine.

The input corpus shape is mandated by BASELINE.json ``input_hint``:
a Parquet table of multi-turn transcripts. The reference's fixed enum-based
schema system (/root/reference/...: ResidueType.java, LabelAtomId.java — all
types compile-time, no inference) maps here to explicit pyarrow schemas that
every stage asserts against.
"""

from __future__ import annotations

import pyarrow as pa

# --- corpus -----------------------------------------------------------------

#: BASELINE.json input_hint schema: multi-turn conversation / agent transcripts.
TRANSCRIPT_SCHEMA = pa.schema(
    [
        pa.field("conv_id", pa.string()),
        pa.field("turn_idx", pa.int32()),
        pa.field("role", pa.string()),
        pa.field("text", pa.string()),
        pa.field("tool", pa.string()),
        pa.field("ts", pa.timestamp("us")),
    ]
)

#: testdata documents table (driver-registered DuckDB view ``documents``).
DOCUMENTS_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.int64()),
        pa.field("text", pa.string()),
        pa.field("lang", pa.string()),
        pa.field("source", pa.string()),
        pa.field("n_chars", pa.int64()),
    ]
)

# --- intermediate / index ---------------------------------------------------

#: One row per term (or per (term, salt-run) for salted head terms) inside a
#: segment file. docIDs strictly increasing within each row (the reference does
#: NOT guarantee this — DefaultInvertedIndex.java:221-231 iterates a HashMap —
#: our delta codec requires it; asserted in tests).
SEGMENT_SCHEMA = pa.schema(
    [
        pa.field("term", pa.string()),
        pa.field("run", pa.int32()),  # salt-run ordinal, 0 for unsalted terms
        pa.field("df", pa.int64()),  # docs in THIS run
        pa.field("cf", pa.int64()),  # total tf in this run
        pa.field("doc_ids_enc", pa.binary()),  # delta+LEB128 varint
        pa.field("tfs_enc", pa.binary()),  # LEB128 varint
    ]
)

#: positional variant (ArrayBucket.identifierData analog,
#: domain/bucket/ArrayBucket.java:31-34): per-run varint stream of per-doc
#: position lists (delta within doc, first absolute), doc order == docID order.
POSITIONAL_SEGMENT_SCHEMA = SEGMENT_SCHEMA.append(pa.field("pos_enc", pa.binary()))

#: docmap — the ``known.list`` analog (DefaultStateRepository.java:57-61):
#: docID <-> public key, doc length for BM25, plus the content revision hash
#: (the (major, minor) revision analog) for revision-aware incremental ADD.
DOCMAP_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.int64()),
        pa.field("conv_id", pa.string()),
        pa.field("turn_idx", pa.int32()),
        pa.field("dl", pa.int32()),
        pa.field("content_hash", pa.int64()),
    ]
)

# --- BM25 parameters (fixed, like the reference's StrucmotifConfig defaults) --

BM25_K1 = 1.2
BM25_B = 0.75

#: tokenizer contract (shared verbatim with the DuckDB oracle SQL):
#: lowercase, split on runs of non-[a-z0-9], drop empties.
TOKEN_SPLIT_REGEX = r"[^a-z0-9]+"
#: match form of the same contract: one match per surviving token, so
#: ``pc.count_substring_regex`` yields dl without materializing the split.
TOKEN_MATCH_REGEX = r"[a-z0-9]+"
