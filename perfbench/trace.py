"""Traced mode: spans and counters kept in memory around the benchmark's calls
into each ``engine`` module, and the per-layer metrics derived from them.

Spans are recorded only from the benchmark's own files, at each call into
the engine; a disabled tracer hands out one shared no-op context manager.
The per-layer metrics of ``BENCHMARK.json`` come from three sources:

- the run's own calls: reader counters (``Bm25Index.metrics()``) of the
  fresh opens' first queries and of the stream passes, the
  process's ``rchar`` across each fresh open plus first query, the build
  reports, and the file changes of each ADD/REMOVE;
- probes after the timed part on the run's own corpus, index and queries:
  ``tokenize_batch``/``doc_length_batch``, ``encode_bucket``, each codec on
  the index's doc-gap and tf streams, ``score_all`` against ``topk``;
- on ``build``, one ADD and one REMOVE on the run's index
  after everything else, so the update layer has figures on every workload.

CPU times are process CPU (``time.process_time``), which swings less than
wall time on a shared host. Each probe reports the median of ``PROBE_REPS``.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import statistics
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

PROBE_REPS = 3
_NULL = contextlib.nullcontext()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple] = []  # (id, parent, name, start, end, cpu)
        self.samples: dict[str, list[float]] = {}
        self._stack: list[int] = []
        self._ids = itertools.count()

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def self_times(self) -> dict[str, dict]:
        """Per span name: calls, total and self wall seconds (self = the
        span's duration minus what its child spans cover), CPU seconds."""
        child = {}
        for _i, parent, _n, t0, t1, _c in self.spans:
            if parent is not None:
                child[parent] = child.get(parent, 0.0) + (t1 - t0)
        out: dict[str, dict] = {}
        for i, _p, name, t0, t1, cpu in self.spans:
            d = out.setdefault(name, {"calls": 0, "wall_s": 0.0, "self_s": 0.0, "cpu_s": 0.0})
            d["calls"] += 1
            d["wall_s"] += t1 - t0
            d["self_s"] += t1 - t0 - child.get(i, 0.0)
            d["cpu_s"] += cpu
        return out

    def dump(self, path: str, detail: dict, per_layer: dict) -> None:
        with open(path, "w") as f:
            json.dump({
                "detail": detail,
                "per_layer": per_layer,
                "by_span": self.self_times(),
                "spans": [dict(zip(("id", "parent", "name", "start", "end", "cpu"), s))
                          for s in self.spans],
            }, f)


class _Span:
    __slots__ = ("tr", "name", "id", "parent", "t0", "c0")

    def __init__(self, tr: Tracer, name: str):
        self.tr, self.name = tr, name

    def __enter__(self):
        st = self.tr._stack
        self.parent = st[-1] if st else None
        self.id = next(self.tr._ids)
        st.append(self.id)
        self.c0 = time.process_time()
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        cpu = time.process_time() - self.c0
        self.tr._stack.pop()
        self.tr.spans.append((self.id, self.parent, self.name, self.t0, t1, cpu))
        return False


# --- file changes of one update call -----------------------------------------

def snapshot_files(root: str) -> dict[str, tuple]:
    out = {}
    for r, _d, fs in os.walk(root):
        for f in fs:
            st = os.stat(os.path.join(r, f))
            out[os.path.join(r, f)] = (st.st_ino, st.st_size, st.st_mtime_ns)
    return out


def bytes_rewritten(root: str, before: dict[str, tuple]) -> int:
    """Bytes of files under ``root`` created or rewritten since ``before``."""
    return sum(v[1] for k, v in snapshot_files(root).items() if before.get(k) != v)


# --- probes --------------------------------------------------------------------

def _cpu(fn, *args, **kw) -> float:
    """Median process CPU seconds of ``PROBE_REPS`` calls."""
    out = []
    for _ in range(PROBE_REPS):
        c0 = time.process_time()
        fn(*args, **kw)
        out.append(time.process_time() - c0)
    return statistics.median(out)


def _segment_runs(index_dir: str) -> pa.Table:
    files = sorted(f for f in os.listdir(index_dir)
                   if f.startswith("segment-") and f.endswith(".parquet"))
    return pa.concat_tables(
        pq.read_table(os.path.join(index_dir, f), columns=["term", "doc_ids_enc", "tfs_enc"])
        for f in files
    )


def _codec_metrics(index_dir: str, codec: str, query_terms: set[str]) -> dict:
    """Each codec on the index's own doc-gap and tf streams: bytes per
    posting over every run, decode ns per posting over the runs of the
    run's query terms (the runs queries decode)."""
    from engine.codec import CODECS
    from engine.segments import decode_posting

    runs = _segment_runs(index_dir)
    gaps, tfs, lens = [], [], []
    for d_enc, t_enc in zip(runs["doc_ids_enc"].to_pylist(), runs["tfs_enc"].to_pylist()):
        d, t = decode_posting(d_enc, t_enc, codec=codec)
        gaps.append(np.diff(d, prepend=0).astype(np.uint64))
        tfs.append(t.astype(np.uint64))
        lens.append(len(d))
    starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
    n_post = int(sum(lens))
    q_rows = [i for i, t in enumerate(runs["term"].to_pylist()) if t in query_terms]
    q_post = sum(lens[i] for i in q_rows)
    out = {}
    for name, cdc in CODECS.items():
        blobs = []
        total = 0
        for stream in (np.concatenate(gaps), np.concatenate(tfs)):
            flat, ends, _ = cdc.encode_stream(stream, starts)
            total += len(flat)
            lo = np.concatenate(([0], ends[:-1]))
            blobs += [flat[int(lo[i]):int(ends[i])] for i in q_rows]

        def decode_all():
            for b in blobs:
                cdc.decode(b)

        out[f"codec.{name}.bytes_per_posting"] = (total / n_post, "bytes")
        out[f"codec.{name}.decode_ns_per_posting"] = (
            _cpu(decode_all) * 1e9 / max(q_post, 1), "ns")
    return out


def _query_metrics(bm, pool, seed: int) -> dict:
    """``score_all`` CPU per posting, and ``topk`` CPU over exhaustive
    scoring plus selection, on a seeded sample of the run's queries (warm)."""
    rng = np.random.default_rng([seed, 4])
    sample = [pool[i] for i in rng.choice(len(pool), size=min(50, len(pool)), replace=False)]
    postings = 0
    for text, k in sample:
        bm.topk(text, k)
        bm._topk_exhaustive(text, k, None)
        postings += sum(len(bm.reader.postings(t)[0]) for t in set(bm._terms(text)))

    def run(fn):
        for text, k in sample:
            fn(text, k)

    score_all = _cpu(run, lambda text, k: bm.score_all(text))
    topk = _cpu(run, bm.topk)
    exhaustive = _cpu(run, lambda text, k: bm._topk_exhaustive(text, k, None))
    return {
        "query.score_all_ns_per_posting": (score_all * 1e9 / max(postings, 1), "ns"),
        "query.topk_to_exhaustive": (topk / exhaustive, "ratio"),
        "query.postings_per_query": (postings / len(sample), "count"),
    }


def _segment_open_ms(index_dir: str, terms: list[str]) -> float:
    """Median wall ms to construct a ``SegmentReader`` and read the
    postings of one query's terms (the segment layer's share of a fresh
    open plus first query)."""
    from engine.segments import SegmentReader

    out = []
    for _ in range(PROBE_REPS):
        t0 = time.perf_counter()
        r = SegmentReader(index_dir)
        for t in terms:
            r.postings(t)
        out.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(out)


def layer_metrics(run) -> dict:
    """Every per-layer metric of ``BENCHMARK.json`` for this run."""
    from engine.segments import encode_bucket
    from engine.tokenize import doc_length_batch, tokenize_batch, tokenize_text

    lo, hi = run.states[0]
    a, b = int(run.row_start[lo]), int(run.row_start[hi])
    corpus = run.table.slice(a, b - a)
    corpus = corpus.append_column("doc_id", pa.array(np.arange(a, b, dtype=np.int64)))
    n_turns = b - a
    m: dict[str, tuple] = {}
    with run.tracer.span("engine.tokenize.tokenize_batch"):
        m["tokenize.cpu_us_per_turn"] = (
            _cpu(tokenize_batch, corpus) * 1e6 / n_turns, "us")
    with run.tracer.span("engine.tokenize.doc_length_batch"):
        m["tokenize.doc_length_cpu_us_per_turn"] = (
            _cpu(doc_length_batch, corpus) * 1e6 / n_turns, "us")

    rep = run.reports
    for key, name in (("docmap", "docmap_s"), ("hot_detect", "hot_detect_s"),
                      ("tokenize_exchange_in", "tokenize_exchange_s"),
                      ("split_encode", "split_encode_s")):
        m[f"build.{name}"] = (statistics.median(r["timings_sec"][key] for r in rep), "s")
    m["build.postings"] = (rep[-1]["n_postings"], "count")
    m["build.parts"] = (rep[-1]["n_parts"], "count")

    rows = tokenize_batch(corpus)
    avgdl = float(rep[-1]["avgdl"])
    with run.tracer.span("engine.segments.encode_bucket"):
        m["segments.encode_cpu_ns_per_posting"] = (
            _cpu(encode_bucket, rows, avgdl) * 1e9 / rows.num_rows, "ns")
    first_terms = sorted(set(tokenize_text(run.pool[0][0])))
    with run.tracer.span("engine.segments.SegmentReader"):
        m["segments.open_ms"] = (_segment_open_ms(run.index_dir, first_terms), "ms")
    m["segments.bytes_read_per_open_query"] = (
        statistics.median(run.tracer.samples["segments.bytes_read_per_open_query"]),
        "bytes")
    # segment reads happen on cold readers: counted over the timed fresh
    # opens' first queries. The postings cache serves the warm stream
    rc = run.open_counts
    nq = max(rc.get("queries_served", 0), 1)
    m["segments.runs_decoded_per_query"] = (rc.get("runs_decoded", 0) / nq, "count")
    m["segments.payload_column_reads_per_query"] = (
        rc.get("payload_column_reads", 0) / nq, "count")
    sc = run.stream_counts
    hits = sc.get("postings_cache_hits", 0)
    m["segments.postings_cache_hit_ratio"] = (
        hits / max(hits + sc.get("runs_decoded", 0), 1), "ratio")

    with run.tracer.span("engine.codec"):
        terms = {t for text, _k in run.pool for t in tokenize_text(text)}
        m.update(_codec_metrics(run.index_dir, run.reports[-1].get("postings_codec", "varint"),
                                terms))
    with run.tracer.span("engine.query"):
        m.update(_query_metrics(run.last_reader, run.pool, run.seed))

    runs = _segment_runs(run.index_dir)
    m["update.runs_per_term"] = (
        runs.num_rows / max(len(set(runs["term"].to_pylist())), 1), "count")
    if not run.updates:
        run.update_probe()
    for kind in ("add", "remove"):
        ups = [u for u in run.updates if u["kind"] == kind]
        m[f"update.{kind}_s_per_1k_turns"] = (
            sum(u["s"] for u in ups) * 1000 / max(sum(u["turns"] for u in ups), 1), "s")
    m["update.bytes_rewritten_per_turn_changed"] = (
        sum(u["bytes"] for u in run.updates) / max(sum(u["turns"] for u in run.updates), 1),
        "bytes")
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}

