"""engine — a Ray-Data-native inverted-index build + BM25 top-k query engine.

A brand-new engine with the query/data-processing capabilities of
rcsb/strucmotif-search (reference at /root/reference, studied for *what* it
computes, not how), re-expressed over Parquet transcript/document tables with
idiomatic Ray Data execution:

- ``engine.tokenize``  — the "word extraction" stage (ResidueGraph analog)
- ``engine.codec``     — delta+varint posting compression (ColferCodec analog)
- ``engine.segments``  — packed posting segments + manifests (ffindex analog)
- ``engine.build``     — SPIMI build pipeline (StrucmotifUpdate ADD analog)
- ``engine.query``     — exact BM25 top-k, rarest-first conjunctive AND
                         (DefaultTargetAssembler / DefaultStrucmotifRuntime analog)
- ``engine.oracle``    — pure-Python single-process reference implementation
- ``engine.state``     — lineage manifests, checkpoint/resume (known.list analog)
- ``engine.ops``       — training-data-pipeline operators (dedup, similarity,
                         text analysis, multimodal plumbing, relational)

Nothing here calls ``ray.init()``; the caller owns the Ray session.
"""

import logging as _logging

__version__ = "0.1.0"


class _DropEmptySchemaRefBundleWarning(_logging.Filter):
    """Drop ONLY the empty-schema variant of Ray Data's "RefBundle with a
    different schema" warning (VERDICT r4 #5: noisy bench logs).

    Ray's Sort/AllToAll reduce emits ZERO-COLUMN blocks for key ranges that
    receive no rows (reproducible with plain ``ds.repartition(16).sort(k)``
    when #keys < #partitions), and the streaming executor then logs
    ``... new schema: . This may lead to unexpected behavior`` once per
    empty block. These bundles are unreachable from UDF code: Ray never
    invokes a map UDF on an empty input block, so the empties pass through
    every downstream map operator untouched (verified empirically on
    2.49) — a logging filter is the only place they can be handled. Real
    schema mismatches (two non-empty schemas) are NOT filtered."""

    def filter(self, record: _logging.LogRecord) -> bool:  # True = keep
        msg = record.getMessage()
        if "RefBundle with a different schema" not in msg:
            return True
        # empty schema prints as nothing: "new schema: ." / "schema: , new"
        return not ("new schema: ." in msg or "Previous schema: ," in msg)


_logging.getLogger(
    "ray.data._internal.execution.streaming_executor_state"
).addFilter(_DropEmptySchemaRefBundleWarning())
