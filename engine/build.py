"""SPIMI index build pipeline — the ``StrucmotifUpdate ADD`` analog, Ray-Data-first.

Reference lifecycle (UPD/StrucmotifUpdate.java:114-387 + DefaultInvertedIndex
.java:120-268): plan -> partition -> parallel tokenize with per-thread spill
files -> merge-commit per partition with atomic swap. Re-architected as:

    read_parquet (pruned columns)
      -> [transcripts] deterministic docID assignment  (engine.docids)
      -> docmap + global stats pass                    (N, avgdl)
      -> map_batches(tokenize)  — stateless, zero-copy Arrow, partial tf agg,
                                  term as a dictionary column
      -> engine.exchange        — split by part (_Router: term-hash bucket +
                                  head-term salting) -> per-part encode tasks
      -> state.commit_segment   — one segment file + manifest per part
      -> stats.json                                    (engine.state)

Skew: Zipf head terms would make single ``groupby(term)`` groups hold a large
fraction of all postings (the reference's "ribosome" problem, Partition.java:
27-28). We (a) group by term-hash *bucket* (many terms per group, bounding the
number of groups), and (b) split detected hot terms across ``n_salts``
sub-parts keyed by ``doc_id % n_salts`` so no single reducer owns a head term.
Hot-term detection samples corpus-wide via a deterministic id-hash gate (not
a prefix, which misses late-file hot terms); misdetection only affects
partitioning balance, never correctness.

Resume: parts with committed manifests are skipped (their rows still pass
the exchange, but no encode task runs for them); ``state.recover`` purges
orphans first.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data

from . import state
from .docids import add_doc_ids, build_conv_offset_index
from .docmap import docmap_files, docmap_stats
from .exchange import exchange
from .schema import TRANSCRIPT_SCHEMA
from .segments import encode_bucket, term_bucket_array
from .tokenize import doc_length_batch, hash64_text, hash_scheme, tokenize_batch

DEFAULT_N_BUCKETS = 32
DEFAULT_N_SALTS = 8
DEFAULT_HOT_FRACTION = 0.02  # term is "hot" if df > 2% of sampled docs
DEFAULT_SAMPLE_DOCS = 20_000

# n_buckets="auto" targets this many TOKENS per part. Measured on this host
# class (32 concurrent encoders, shared memory bus): encode_bucket runs at
# ~4 us/posting up to ~1M postings/part, then degrades superlinearly to
# ~28 us/posting by 2.2M postings/part — each encoder's working set
# (~30 B/posting across sort keys, permutations and payload copies) outgrows
# its L3 share and all encoders turn DRAM-bound at once. Same-window
# measurements, 3.3M-turn corpus, 32 CPUs: n_buckets=32 -> split_encode
# 126 s; n_buckets=128 -> 18 s (7x). Auto keeps parts below the knee while
# capping part count (split tasks pay O(n_parts) slice/compaction work).
AUTO_TOKENS_PER_PART = 750_000
AUTO_MIN_BUCKETS = 8
AUTO_MAX_BUCKETS = 1024


def resolve_n_buckets(n_docs: int, avgdl: float, n_salts: int) -> int:
    """Pick n_buckets for ``n_buckets="auto"`` from docmap stats (known
    before the routing contract is written). Data-dependent only — never
    CPU-count-dependent, so scaling legs at different parallelism levels
    build the identical job."""
    est_tokens = float(max(n_docs, 1)) * max(float(avgdl), 1.0)
    parts = math.ceil(est_tokens / AUTO_TOKENS_PER_PART)
    nb = math.ceil(parts / max(int(n_salts), 1))
    return int(min(AUTO_MAX_BUCKETS, max(AUTO_MIN_BUCKETS, nb)))


def detect_hot_terms(
    ds: "ray.data.Dataset",
    id_col: str,
    text_col: str,
    sample_docs: int,
    hot_fraction: float,
    analyzer: str = "standard",
    stopwords: list[str] | None = None,
    n_docs: int | None = None,
) -> list[str]:
    """Deterministic CORPUS-WIDE sample -> terms whose sample df exceeds the
    cut.

    Sampling is a hash gate on the doc id (keep when
    ``xxhash64(id) % 2^14 < ceil(sample_docs / n_docs * 2^14)``), so the
    ~``sample_docs`` sampled docs are spread uniformly across the WHOLE
    corpus rather than a ``limit()`` prefix — on a real corpus where file
    order correlates with time/source, a prefix can miss globally hot terms
    and leave one fat part (VERDICT r4 #4). The gate is purely
    content-derived (never block- or parallelism-dependent), preserving the
    byte-determinism contract of ``test_build_parallelism_invariant``; with
    ``n_docs`` unknown or <= ``sample_docs`` the whole corpus is the sample.

    Runs under the build's analyzer so the hot set names the terms the
    exchange will actually route (a stemmed build salted on unstemmed
    surface forms would miss every hot stem — a perf bug, not a
    correctness one, but a silent 'why is one part 10x' mystery)."""
    src = ds
    if n_docs is not None and 0 < sample_docs < n_docs:
        den = 1 << 14
        num = np.uint64(max(1, math.ceil(sample_docs / n_docs * den)))
        den = np.uint64(den)

        def gate(b: pa.Table) -> pa.Table:
            h = hash64_text(pc.cast(b[id_col], pa.string()))
            # uint64 modulus kept in uint64 (scalar uint64 % python-int
            # silently promotes to float64 and corrupts the gate)
            return b.filter(pa.array((h % den) < num))

        src = ds.map_batches(gate, batch_format="pyarrow")
    else:
        src = ds.limit(sample_docs) if sample_docs else ds
    sample = src.map_batches(
        lambda b: tokenize_batch(b, id_col=id_col, text_col=text_col,
                                 analyzer=analyzer, stopwords=stopwords),
        batch_format="pyarrow",
    )
    refs = sample.to_arrow_refs()
    # drop empty blocks: an upstream filter that empties a whole block can
    # surface it here as a zero-column table, which concat_tables rejects
    tables = [t for t in (ray.get(r) for r in refs) if t.num_rows]
    if not tables:
        return []
    tbl = pa.concat_tables(tables)
    n_docs = len(pc.unique(tbl["doc_id"]))
    g = tbl.group_by(["term"], use_threads=False).aggregate([("doc_id", "count")])
    dfs = g["doc_id_count"].to_numpy(zero_copy_only=False)
    mask = dfs >= max(2.0, hot_fraction * n_docs)
    return sorted(np.asarray(g["term"].to_pylist(), dtype=object)[mask].tolist())


class _Router:
    """The exchange key of the build and of ADD: a row's part is its term's
    hash bucket, plus ``salt * n_buckets`` with ``salt = doc_id % n_salts``
    for hot terms. A part's salt is therefore ``part // n_buckets``, so rows
    carry no salt column and the encoder takes it as a constant. Runs in the
    split task over the group's one unified term dictionary, so each distinct
    term is hashed once per group."""

    def __init__(self, hot_terms: list[str], n_buckets: int, n_salts: int):
        self.hot_terms = pa.array(hot_terms, pa.string())
        self.n_buckets = n_buckets
        self.n_salts = n_salts

    def __call__(self, rows: pa.Table) -> np.ndarray:
        terms = rows["term"].combine_chunks()
        codes = terms.indices.to_numpy(zero_copy_only=False)
        part = term_bucket_array(terms.dictionary, self.n_buckets)[codes]
        if len(self.hot_terms) and self.n_salts > 1:
            hot = pc.is_in(terms.dictionary, value_set=self.hot_terms)
            hot = hot.to_numpy(zero_copy_only=False)[codes]
            doc = rows["doc_id"].to_numpy(zero_copy_only=False)
            part = part + np.where(hot, doc % self.n_salts, 0).astype(np.int32) * self.n_buckets
        return part


def exchange_rows(rows: pa.Table) -> pa.Table:
    """Tokenized rows as the exchange ships them: term as a dictionary
    column, 4-byte codes per row plus each block's vocab once, instead of
    ~10 bytes/occurrence of string+offset through every object-store copy
    (the term column is the widest thing in the shuffle)."""
    term_col = rows["term"].combine_chunks()
    return rows.set_column(
        rows.schema.get_field_index("term"), "term", term_col.dictionary_encode()
    )


def build_index(
    source,
    index_dir: str,
    *,
    text_col: str = "text",
    id_col: str | None = None,
    n_buckets: int | str = "auto",
    n_salts: int = DEFAULT_N_SALTS,
    hot_fraction: float = DEFAULT_HOT_FRACTION,
    sample_docs: int = DEFAULT_SAMPLE_DOCS,
    resume: bool = True,
    positions: bool = False,
    store_text: bool = True,
    category_col: str | None = None,
    postings_codec: str = "varint",
    docvalues: list[str] | None = None,
    analyzer: str = "standard",
    stopwords: list[str] | None = None,
) -> dict:
    """Build (or resume) the inverted index. Returns a build report dict.

    ``source``: a ray.data.Dataset, a parquet file, or a directory of shards.
    ``id_col=None`` means transcripts mode: dense docIDs are derived from
    ``(conv_id, turn_idx)`` (the stable-ordering invariant).
    ``positions=True`` stores per-occurrence token positions in the segments
    (phrase/adjacency queries; the identifierData payload analog) at the cost
    of a larger exchange + segment footprint.
    ``docvalues``: extra source columns copied verbatim into the docmap (the
    Lucene doc-values analog): per-doc fields query paths can gather by docID
    through the row-group-pruned DocStore (sort-by-field, field collapsing on
    arbitrary fields) without touching the raw corpus at query time.

    ``analyzer`` / ``stopwords``: the token-filter chain (stop first, stem
    second — engine/tokenize.py) applied at index time, persisted in
    stats.json + the routing contract, and replayed verbatim by every query
    surface, ADD delta, and hot-term detection. Stop removal changes ``dl``
    (it counts the analyzed stream); the S-stem is total and does not.
    """
    t0 = time.perf_counter()
    os.makedirs(index_dir, exist_ok=True)
    if resume:
        state.recover(index_dir)
    else:
        for name in os.listdir(index_dir):
            if name.startswith("segment-") or name in ("stats.json", "routing.json"):
                os.remove(os.path.join(index_dir, name))

    if isinstance(source, str):
        paths = source
        ds = ray.data.read_parquet(paths)
        lineage_inputs = [source]
    else:
        ds = source
        lineage_inputs = ["<dataset>"]

    names = ds.schema().names
    transcripts = id_col is None and "conv_id" in names and "doc_id" not in names

    # --- docID assignment + docmap + global stats ---------------------------
    dv = list(docvalues or [])
    # canonical form for the routing contract / stats.json: sorted unique
    # surface forms (order-insensitive equality on resume/merge/federate)
    stop_list = sorted(set(stopwords or []))
    if transcripts:
        ds = ds.select_columns(
            sorted(
                {"conv_id", "turn_idx", "text"}
                | ({category_col} if category_col else set())
                | set(dv)
            )
        )
        conv_index = build_conv_offset_index(ds)
        ds = add_doc_ids(ds, conv_index)
        id_col = "doc_id"

        def docmap_fn(b: pa.Table) -> pa.Table:
            dl = doc_length_batch(b, id_col="doc_id", text_col=text_col, stopwords=stop_list)
            cols = {
                "doc_id": dl["doc_id"],
                "conv_id": b["conv_id"],
                "turn_idx": b["turn_idx"],
                "dl": dl["dl"],
                # content revision (known.list (major, minor) analog,
                # io/DefaultStateRepository.java:57-61): lets ADD detect
                # re-submitted docs whose text changed
                "content_hash": pa.array(
                    hash64_text(b[text_col]).astype(np.int64), pa.int64()
                ),
            }
            if store_text:
                # doc store (renumbered-data analog, S2: the reference always
                # persists renumbered structure files it serves hits from,
                # CORE/io/DefaultStructureDataProvider.java). An extra parquet
                # COLUMN, so stats/length readers that project
                # ["doc_id","dl"] never pay for it; DocStore row-group-prunes.
                cols["text"] = b[text_col]
            if category_col:
                # per-doc class label (the experimental/computational content-
                # type sets of DefaultStructureIndexProvider.java:36-89):
                # query-time category filters resolve against the docmap
                cols["category"] = b[category_col].cast(pa.string())
            for c in dv:
                if c not in cols:  # doc-values passthrough, verbatim type
                    cols[c] = b[c]
            return pa.table(cols)

    else:
        ds = ds.select_columns(
            sorted(
                {id_col, text_col}
                | ({category_col} if category_col else set())
                | set(dv)
            )
        )

        def docmap_fn(b: pa.Table) -> pa.Table:
            dl = doc_length_batch(b, id_col=id_col, text_col=text_col, stopwords=stop_list)
            out = dl.append_column(
                "content_hash",
                pa.array(hash64_text(b[text_col]).astype(np.int64), pa.int64()),
            )
            if store_text:
                out = out.append_column("text", b[text_col])
            if category_col:
                out = out.append_column("category", b[category_col].cast(pa.string()))
            for c in dv:
                if c not in out.schema.names:
                    out = out.append_column(c, b[c])
            return out

    # docmap pass is itself checkpointed: a _SUCCESS marker makes it resumable
    docmap_dir = os.path.join(index_dir, "docmap")
    docmap_marker = os.path.join(docmap_dir, "_SUCCESS.json")
    if not (resume and os.path.exists(docmap_marker)):
        if os.path.isdir(docmap_dir):
            shutil.rmtree(docmap_dir)
        ds.map_batches(docmap_fn, batch_format="pyarrow").write_parquet(docmap_dir)
        if not docmap_files(docmap_dir):
            # empty corpus: write_parquet emits no files; commit an empty
            # docmap with the full schema so every reader downstream works
            os.makedirs(docmap_dir, exist_ok=True)
            cols = {text_col: pa.array([], pa.string())}
            if transcripts:
                cols["conv_id"] = pa.array([], pa.string())
                cols["turn_idx"] = pa.array([], pa.int32())
            cols[id_col] = pa.array([], pa.int64())
            if category_col:
                cols[category_col] = pa.array([], pa.string())
            if dv:
                base = getattr(ds.schema(), "base_schema", None)
                for c in dv:
                    if c not in cols:
                        typ = base.field(c).type if base is not None else pa.string()
                        cols[c] = pa.array([], typ)
            pq.write_table(
                docmap_fn(pa.table(cols)),
                os.path.join(docmap_dir, "docmap-0000.parquet"),
            )
    # global stats from the docmap, folded file by file in this process
    # (n, exact dl total, min/max id). Segments store no length-dependent
    # data, so the encoders never read dl.
    facts = docmap_stats(docmap_dir)
    n_docs, avgdl = facts.n_docs, facts.avgdl
    if not os.path.exists(docmap_marker):
        state.atomic_write_bytes(
            json.dumps({"n_docs": n_docs, "avgdl": avgdl}).encode(), docmap_marker
        )
    t_docmap = time.perf_counter()

    # --- routing contract (pre-shuffle checkpoint) ---------------------------
    # The routing of a term to a part is a function of (n_buckets, n_salts,
    # hot_terms). Parts committed by a crashed run and parts encoded by the
    # resumed run MUST route identically, or a term's postings are split /
    # duplicated across parts in ways the reader merges silently wrong. So the
    # full contract is persisted BEFORE any segment is written (the docmap
    # _SUCCESS pattern); a resume loads the committed contract — reusing its
    # hot set rather than re-sampling — and refuses to proceed if the caller's
    # args disagree with what the crashed run committed to.
    routing_path = os.path.join(index_dir, "routing.json")
    auto_buckets = n_buckets == "auto"
    if auto_buckets:
        # resolved from the docmap stats just computed; a resume adopts the
        # committed contract's value below instead (same data -> same
        # resolve, but the contract is the authority once written)
        n_buckets = resolve_n_buckets(n_docs, avgdl, n_salts)
    caller_args = {
        "n_buckets": n_buckets,
        "n_salts": n_salts,
        "hot_fraction": hot_fraction,
        "sample_docs": sample_docs,
        # parts written by a crashed run and parts encoded by the resumed run
        # must share one wire format (InvertedIndexBackend analog)
        "postings_codec": postings_codec,
        # ... and one analyzer chain: terms stemmed by the crashed run and
        # unstemmed terms from a resumed run would shard into disjoint vocab
        "analyzer": analyzer,
        "stopwords": stop_list,
    }
    if resume and os.path.exists(routing_path):
        with open(routing_path) as f:
            contract = json.load(f)
        if auto_buckets:
            n_buckets = int(contract["n_buckets"])
            caller_args["n_buckets"] = n_buckets
        # pre-analyzer contracts (no "analyzer" key) committed to the
        # standard chain — tolerate them instead of KeyErroring the resume
        _defaults = {"analyzer": "standard", "stopwords": []}
        committed_args = {
            k: contract.get(k, _defaults.get(k)) for k in caller_args
        }
        if committed_args != caller_args:
            raise ValueError(
                f"refusing to resume {index_dir}: committed routing contract "
                f"{committed_args} != caller args {caller_args}; pass "
                "resume=False to rebuild from scratch"
            )
        hot_terms = list(contract["hot_terms"])
    else:
        hot_terms = detect_hot_terms(
            ds, id_col, text_col, min(sample_docs, n_docs), hot_fraction,
            analyzer=analyzer, stopwords=stop_list, n_docs=n_docs,
        )
        state.atomic_write_bytes(
            json.dumps({**caller_args, "hot_terms": hot_terms}).encode(), routing_path
        )
    t_hot = time.perf_counter()

    # --- tokenize -> exchange (routed by _Router) -> encode segments -------
    done = set(state.committed_parts(index_dir)) if resume else set()
    n_parts_total = n_buckets * n_salts
    # slim exchange rows: (dictionary term, doc_id, tf) only — the encoder
    # needs no dl, and salt is constant per part.
    # int32 docIDs in the exchange: guaranteed by the docmap's ACTUAL id
    # range (dense transcripts ids satisfy it whenever n_docs < 2^31; sparse
    # external id spaces only when their max fits)
    compact_ids = facts.ids_fit_int32
    tokenized = ds.map_batches(
        lambda b: exchange_rows(tokenize_batch(
            b, id_col=id_col, text_col=text_col, positions=positions,
            with_dl=False, compact_ids=compact_ids, analyzer=analyzer,
            stopwords=stop_list,
        )),
        batch_format="pyarrow",
    )

    @ray.remote
    def encode_part(part: int, *tables):
        live = [t for t in tables if t is not None and t.num_rows]
        if not live:
            return None
        rows = pa.concat_tables(live)
        t_enc = time.perf_counter()
        seg = encode_bucket(rows, salt_const=part // n_buckets, codec=postings_codec)
        return state.commit_segment(
            index_dir,
            part,
            seg,
            # per-partition metrics (lineage + cost accounting): rows in,
            # encode wall time on this worker, and the executing node
            # (distinct node_ids across manifests show the encode stage
            # spanned nodes — the manifests are the task-level record)
            rows_in=rows.num_rows,
            encode_sec=round(time.perf_counter() - t_enc, 4),
            node_id=ray.get_runtime_context().get_node_id(),
        )

    outputs, combine_rounds = exchange(
        tokenized, n_parts_total, _Router(hot_terms, n_buckets, n_salts)
    )
    t_tok = time.perf_counter()
    enc_refs = [encode_part.remote(p, *outputs[p]) for p in range(n_parts_total) if p not in done]
    del outputs
    manifest_rows = [r for r in ray.get(enc_refs) if r is not None]
    t_segments = time.perf_counter()

    # --- finalize stats.json (manifest-last global commit) ------------------
    parts = state.committed_parts(index_dir)
    stats = {
        "n_docs": n_docs,
        "avgdl": avgdl,
        "n_buckets": n_buckets,
        "n_salts": n_salts,
        "hot_terms": hot_terms,
        "n_parts": len(parts),
        # term RUNS, not distinct terms: a hot term contributes one run per salt
        "n_term_runs": int(sum(p["n_terms"] for p in parts.values())),
        "n_postings": int(sum(p["n_postings"] for p in parts.values())),
        "inputs": lineage_inputs,
        "transcripts_mode": transcripts,
        "positional": positions,
        "category_col": category_col,
        "docvalues": dv,
        "hash_scheme": hash_scheme(),
        "postings_codec": postings_codec,
        "analyzer": analyzer,
        "stopwords": stop_list,
        "store_text": bool(store_text),
        # driver-ref-bounding folds that ran during the exchange (0 below
        # exchange.COMBINE_SPLITS split tasks — the bench scale)
        "combine_rounds": combine_rounds,
        "timings_sec": {
            "docmap": round(t_docmap - t0, 3),
            "hot_detect": round(t_hot - t_docmap, 3),
            "tokenize_exchange_in": round(t_tok - t_hot, 3),
            "split_encode": round(t_segments - t_tok, 3),
            "segments": round(t_segments - t_hot, 3),
            "total": round(time.perf_counter() - t0, 3),
        },
    }
    state.write_stats(index_dir, stats)
    stats["parts_written_this_run"] = int(len(manifest_rows))
    return stats
