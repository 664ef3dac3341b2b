"""The two workloads and the run state they share.

Each workload is one closed loop: a single caller sends a request to the
engine's public functions and waits for the reply before sending the next.

- ``build``: rounds of one bulk ``build_index`` over the largest corpus
  followed by reads of the new index: fresh-reader opens, each answering
  one query, then warm query-stream passes. The builds stress
  docmap, tokenize, exchange and encode; the reads stress segment reads,
  codec decode, scoring and pruning.
- ``churn``: a small index built during set-up; rounds of
  ``add_documents`` + ``remove_documents`` + the same reads. Puts writes
  beside reads over postings split into delta runs.

The work of both is fixed: every run makes the same builds or writes, opens
and queries. A timed part shorter than ``--seconds`` is followed by more
stream passes until it has lasted that long. Each kind of sample is taken
in every round rather than in one block: the host's speed drifts by up to
a third over tens of seconds, and samples made in one block followed its
drift.

Doc ids are predictable without asking the engine: transcripts get dense ids
in (conv_id, turn_idx) order, and ADD mints ids after the largest live id.
Since the base corpus and every ADD are consecutive conversation ranges of
one generated table, and REMOVE only drops the oldest conversations, a turn's
doc id is its row number in that table. ``perfbench.check`` relies on this.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import statistics
import threading
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from perfbench import check, procs
from perfbench.trace import layer_metrics, snapshot_files, bytes_rewritten

#: workload sizes in turns (documents). Inputs are whole conversations of the
#: seeded generator; each range is the fewest conversations reaching its turn
#: count, so sizes barely move with the seed although conversation lengths
#: are Zipf-distributed (1 to 64 turns).
SIZES = {
    "build_turns": 12_000,
    "builds": 3,                # build rounds of the build workload
    "churn_turns": 2_000,
    "churn_add_turns": 200,     # added per churn round (new conversations)
    "churn_remove_turns": 60,   # removed per churn round (oldest conversations)
    "churn_rounds": 2,
    "probe_add_turns": 200,     # traced-run update probe on build
    "probe_remove_turns": 60,
    "warm_turns": 400,          # set-up build that imports engine in the workers
    "pool": 1000,               # queries per run (the stream draws from these)
    "oracle_sample": 40,        # (state, query) pairs checked against the oracle
    # stream queries are timed in passes of this many; the tail is taken per
    # pass (the sample with ten above it: percentile 99.0) and reported as
    # the median over passes. One tail over a whole run sat on the run's
    # worst stall and spread 0.45 between runs
    "pass_queries": 1000,
    # fresh readers opened untimed after each build or update, before the
    # timed ones: from about a second into a series of opens, Ray starts
    # workers for their tasks, and 1 to 6 opens in a row took 0.7-1 s
    # instead of 0.1 s while it did
    "warm_opens": 16,
    # timed opens come in one block per round: opens spread through the
    # stream passes waited for a Ray worker spawn (0.5-1 s) one time in four
    "build_opens": 12,          # timed fresh opens per build round (36 in all)
    # stream passes per round: a run's stream latencies follow the host's
    # speed while they are taken, so they are spread over the rounds
    "build_passes": 3,          # warm stream passes per build round
    "churn_opens": 24,          # timed fresh opens per churn round (48 in all)
    "churn_passes": 4,          # warm stream passes per churn round
}
TINY = dict(SIZES, build_turns=800, churn_turns=400, churn_add_turns=80,
            churn_remove_turns=30, churn_rounds=2, probe_add_turns=80, probe_remove_turns=30,
            warm_turns=100, pool=40, oracle_sample=10, pass_queries=60, warm_opens=2,
            builds=2, build_opens=3, build_passes=1, churn_opens=2, churn_passes=1)

#: churn index shape: 4 buckets x 2 salts = 8 parts (the default auto shape
#: gives 64 parts, and REMOVE rewrites every part: ~10 s per REMOVE at 150
#: conversations, too slow for rounds inside one run)
CHURN_BUILD = {"n_buckets": 4, "n_salts": 2}
TAIL_MIN_ABOVE = 10


def tail(values):
    """-> (value, percentile, n): the sample with exactly ``TAIL_MIN_ABOVE``
    samples above it, i.e. the highest percentile that still leaves ten
    samples beyond it. Needs at least four times that many samples (fewer
    would make the 'tail' a middle sample). A run applies it to each stream
    pass."""
    n = len(values)
    if n < 4 * TAIL_MIN_ABOVE:
        raise ValueError(f"{n} samples: a tail needs at least {4 * TAIL_MIN_ABOVE}")
    s = sorted(values)
    return s[n - TAIL_MIN_ABOVE - 1], 100.0 * (n - TAIL_MIN_ABOVE) / n, n


class RssPeaks:
    """Resident high-water marks (kernel ``VmHWM``) of this process and of
    every Ray worker seen. Sampled at phase boundaries, and polled from a
    thread while a build or update runs (``watching``), so a worker that
    peaks there and exits before the next boundary is still counted. No
    thread runs while queries are timed."""

    #: seconds between reads of the known workers' high-water marks, and
    #: reads between two listings of the process tree (a listing costs about
    #: 2.5 ms of CPU, a read of one worker about 0.05 ms)
    POLL_S = 0.1
    LIST_EVERY = 5

    def __init__(self):
        self.kb: dict[int, int] = {}

    @staticmethod
    def _pids() -> list[int]:
        """This process and its live Ray worker descendants."""
        out = [os.getpid()]
        for pid in procs.descendants():
            try:
                cmd = procs.cmdline(pid)
            except OSError:
                continue
            if "default_worker.py" in cmd or cmd.startswith("ray::"):
                out.append(pid)
        return out

    def _read(self, pids) -> None:
        for pid in pids:
            try:
                self.kb[pid] = max(self.kb.get(pid, 0), procs.hwm_kb(pid))
            except (OSError, ValueError):
                continue  # the process ended between listing and reading

    def sample(self) -> None:
        self._read(self._pids())

    @contextlib.contextmanager
    def watching(self):
        """Poll the high-water marks until the block ends."""
        stop = threading.Event()

        def poll():
            pids, i = [], 0
            while not stop.wait(self.POLL_S):
                if i % self.LIST_EVERY == 0:
                    pids = self._pids()
                self._read(pids)
                i += 1

        t = threading.Thread(target=poll, name="perfbench-rss", daemon=True)
        t.start()
        try:
            yield
        finally:
            stop.set()
            t.join()
            self.sample()

    def peak_mb(self) -> float:
        """This process's peak plus the largest worker peak. Not a sum over workers:
        how many idle workers Ray keeps varies from run to run, so a sum
        would count workers rather than memory."""
        me = self.kb.get(os.getpid(), 0)
        workers = [v for pid, v in self.kb.items() if pid != os.getpid()]
        return (me + max(workers, default=0)) / 1024.0


def open_query_ms(samples) -> float:
    """Mean, over the queries the opens answered, of each query's median
    time (``samples`` holds (query, ms) pairs).

    Opens cycle through ``QUERY_SET``, whose first queries cost from 40 to
    400 ms. A median over all samples falls between two of these queries,
    and it moved 1.5-fold between runs of one seed as the host's speed
    shifted them past each other; a mean of per-query medians follows the
    speed of every query, and a worker spawn inside one sample does not
    move it."""
    by_query: dict[int, list[float]] = {}
    for qi, ms in samples:
        by_query.setdefault(qi, []).append(ms)
    return statistics.fmean(statistics.median(v) for v in by_query.values())


def _du(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(r, f)) for r, _d, fs in os.walk(path) for f in fs
    )


class Run:
    """State of one benchmark run: inputs, the samples the timed part
    collects, operation counts, and what the checks need afterwards."""

    def __init__(self, seed: int, seconds: float, work: str, tracer, sizes: dict):
        self.seed, self.seconds, self.work, self.tracer = seed, seconds, work, tracer
        self.S = sizes
        self.t_proc = procs.start_time()
        self.rss = RssPeaks()
        self.passes: list[list[float]] = []  # stream latencies (ms), per pass
        self.pass_rates: list[float] = []  # stream queries/s, per pass
        self.open_ms: list[tuple[int, float]] = []  # (pool query, ms) per timed open
        self._opens = 0
        self.rate_samples: list[float] = []  # build: turns/s per build
        self.work_s = 0.0  # churn: seconds spent in ADD and REMOVE
        self.attempted = self.failed = self.wrong = 0
        self.errors: list[str] = []
        self.states: dict[int, tuple[int, int]] = {}  # state -> live convs [lo, hi)
        self.reports: list[dict] = []  # build_index reports
        self.updates: list[dict] = []  # per ADD/REMOVE: kind, s, turns, bytes
        self.open_counts: dict[str, int] = {}  # reader counters of timed opens' queries
        self.stream_counts: dict[str, int] = {}  # reader counters of stream passes
        self.setup_s = None
        self.last_reader = None  # the reader the traced run's query probe uses
        self.input_bytes = 0
        self.index_dir = os.path.join(work, "index")
        self.detail: dict = {}
        self.e2e: dict = {}

    # --- inputs -------------------------------------------------------------
    def make_corpus(self, base_turns: int, extra_turns: int) -> None:
        """Generate conversations with the engine's seeded generator until
        they hold ``base_turns + extra_turns`` turns (plus one longest
        conversation); write the base range as a 4-shard parquet corpus."""
        from engine.synth import generate_transcripts

        self.mark("ray_started")
        n = (base_turns + extra_turns) // 16 + 64
        while True:
            with self.tracer.span("engine.synth.generate_transcripts"):
                self.table = generate_transcripts(n, seed=self.seed)
            if self.table.num_rows >= base_turns + extra_turns + 64:
                break
            n *= 2
        conv = pc.cast(pc.utf8_slice_codeunits(self.table["conv_id"], 5), pa.int64())
        self.row_start = np.concatenate(([0], np.cumsum(np.bincount(conv.to_numpy(), minlength=n))))
        n_base = self.take(0, base_turns)
        self.corpus_dir = os.path.join(self.work, "corpus")
        os.makedirs(self.corpus_dir)
        bounds = np.linspace(0, n_base, 5).astype(int)
        for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            self.write_convs(lo, hi, os.path.join(self.corpus_dir, f"part-{i:02d}.parquet"))
        self.states[0] = (0, n_base)
        self.pool = check.query_pool(self.S["pool"])
        self.outputs = check.Outputs(self.pool, self.states, self.row_start)
        self.stream = check.query_stream(self.seed, len(self.pool), 200_000,
                                         self.S["pass_queries"])
        self._next_q = 0
        self.mark("corpus")

    def take(self, lo: int, turns: int) -> int:
        """End of the fewest conversations from ``lo`` holding ``turns`` turns."""
        return int(np.searchsorted(self.row_start, self.row_start[lo] + turns))

    def write_convs(self, lo: int, hi: int, path: str) -> str:
        a, b = int(self.row_start[lo]), int(self.row_start[hi])
        pq.write_table(self.table.slice(a, b - a), path)
        self.input_bytes += os.path.getsize(path)
        return path

    def turns(self, lo: int, hi: int) -> int:
        return int(self.row_start[hi] - self.row_start[lo])

    def next_query(self) -> int:
        qi = int(self.stream[self._next_q % len(self.stream)])
        self._next_q += 1
        return qi

    # --- operations ---------------------------------------------------------
    def call(self, name: str, fn, *args, **kw):
        """One engine operation: counted, traced; a raise counts as failed
        and returns None."""
        self.attempted += 1
        try:
            with self.tracer.span(name):
                return fn(*args, **kw)
        except Exception as e:  # the run reports the failure and goes on
            self.failed += 1
            self.errors.append(f"{name}: {e!r}")
            return None

    def warm_up(self) -> None:
        """Set-up of the build workload: one tiny build, so Ray workers have
        imported ``engine`` before the first timed build (churn gets the
        same from its base build). Not counted as an operation."""
        from engine.build import build_index

        d = os.path.join(self.work, "warm")
        os.makedirs(d)
        pq.write_table(self.table.slice(0, self.S["warm_turns"]), os.path.join(d, "c.parquet"))
        with self.rss.watching():
            build_index(os.path.join(d, "c.parquet"), os.path.join(d, "index"), resume=False)
        shutil.rmtree(d)
        self.mark("warm_up")

    def build(self, index_dir: str, **build_kw):
        from engine.build import build_index

        lo, hi = self.states[0]
        with self.rss.watching():
            t0 = time.perf_counter()
            rep = self.call("engine.build.build_index", build_index,
                            self.corpus_dir, index_dir, resume=False, **build_kw)
            dt = time.perf_counter() - t0
        if rep is not None:
            self.reports.append(rep)
            if rep.get("n_docs") != self.turns(lo, hi) or \
                    rep.get("parts_written_this_run") != rep.get("n_parts"):
                self._wrong(f"build report {rep.get('n_docs')} docs, "
                            f"{rep.get('parts_written_this_run')}/{rep.get('n_parts')} parts")
        return rep, dt

    def open_reader(self, state: int, timed: bool = True):
        """Open a fresh ``Bm25Index`` and answer one query: one open sample
        when ``timed``. The traced run also records the process's ``rchar``
        across both, and the reader's counters for that one query. Opens
        cycle through the fixed ``QUERY_SET`` (the pool's first entries), so
        their figure does not swing with the seeded mix."""
        from engine.query import Bm25Index

        qi = self._opens % len(check.QUERY_SET)
        self._opens += 1
        text, k = self.pool[qi]
        rchar0 = procs.rchar() if self.tracer.enabled else 0
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with self.tracer.span("engine.query.Bm25Index"):
                bm = Bm25Index(self.index_dir)
            with self.tracer.span("engine.query.Bm25Index.topk"):
                doc, score = bm.topk(text, k)
        except Exception as e:
            self.failed += 1
            self.errors.append(f"open: {e!r}")
            return None
        if timed:
            self.open_ms.append((qi, (time.perf_counter() - t0) * 1e3))
            if self.tracer.enabled:
                self.tracer.sample("segments.bytes_read_per_open_query",
                                   procs.rchar() - rchar0)
                self.count_reader(self.open_counts, {}, bm)
        self._check(state, qi, doc, score)
        return bm

    def open_phase(self, state: int, n_opens: int):
        """``warm_opens`` fresh readers untimed, then ``n_opens`` timed;
        returns the last reader."""
        bm = None
        for i in range(self.S["warm_opens"] + n_opens):
            bm = self.open_reader(state, timed=i >= self.S["warm_opens"]) or bm
        return bm

    def query(self, bm, state: int, lat: list) -> None:
        """One ``topk`` from the seeded stream; its latency goes to ``lat``."""
        qi = self.next_query()
        text, k = self.pool[qi]
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with self.tracer.span("engine.query.Bm25Index.topk"):
                doc, score = bm.topk(text, k)
        except Exception as e:
            self.failed += 1
            self.errors.append(f"topk {text!r}: {e!r}")
            return
        lat.append((time.perf_counter() - t0) * 1e3)
        self._check(state, qi, doc, score)

    def stream_pass(self, bm, state: int) -> None:
        """``pass_queries`` queries of the seeded stream on ``bm``: one pass,
        with its latencies and its rate."""
        lat: list[float] = []
        before = bm.metrics()
        t0 = time.perf_counter()
        for _ in range(self.S["pass_queries"]):
            self.query(bm, state, lat)
        self.pass_rates.append(len(lat) / (time.perf_counter() - t0))
        self.passes.append(lat)
        self.count_reader(self.stream_counts, before, bm)

    def _check(self, state: int, qi: int, doc, score) -> None:
        why = self.outputs.add(state, qi, doc, score)
        if why:
            self._wrong(why)

    def warm(self, bm) -> None:
        """Have ``bm`` answer every pool query once, unrecorded, so the
        stream that follows runs on filled caches: cold reads are what the
        fresh opens measure."""
        for text, k in self.pool:
            bm.topk(text, k)

    def read_phase(self, state: int, n_opens: int, n_passes: int) -> None:
        """Fresh readers (``open_phase``), then ``n_passes`` stream passes on
        the last of them once it has been warmed."""
        bm = self.open_phase(state, n_opens)
        if bm is None:
            return
        self.warm(bm)
        for _ in range(n_passes):
            self.stream_pass(bm, state)
        self.last_reader = bm

    def fill(self, t0: float, state: int) -> None:
        """More stream passes on the last reader until the timed part,
        begun at ``t0``, has lasted ``--seconds``."""
        while self.last_reader is not None and time.perf_counter() - t0 < self.seconds:
            self.stream_pass(self.last_reader, state)

    @staticmethod
    def count_reader(into: dict, before: dict, bm) -> None:
        """Add a reader's counter movement (``Bm25Index.metrics()``) since
        ``before`` to ``into``."""
        for k, v in bm.metrics().items():
            into[k] = into.get(k, 0) + v - before.get(k, 0)

    def update(self, kind: str, fn, turns: int, *args, **kw):
        snap = snapshot_files(self.index_dir) if self.tracer.enabled else None
        with self.rss.watching():
            t0 = time.perf_counter()
            rep = self.call(f"engine.update.{fn.__name__}", fn, *args, **kw)
            dt = time.perf_counter() - t0
        if rep is None:
            return None
        key = "added" if kind == "add" else "removed"
        if rep.get(key) != turns:
            self._wrong(f"{kind} reported {rep.get(key)} turns, expected {turns}")
        self.updates.append({
            "kind": kind, "s": dt, "turns": turns,
            "bytes": bytes_rewritten(self.index_dir, snap) if snap is not None else 0,
        })
        return dt

    def _wrong(self, why: str) -> None:
        self.wrong += 1
        self.failed += 1
        self.errors.append(why)

    # --- phases -------------------------------------------------------------
    def mark(self, phase: str) -> None:
        """Record the set-up clock (seconds since process start) at ``phase``."""
        self.detail.setdefault("setup_marks_s", {})[phase] = round(time.time() - self.t_proc, 3)

    def begin_timed(self) -> float:
        self.ticks0 = procs.cpu_ticks()
        self.rss.sample()
        self.mark("timed")
        self.setup_s = time.time() - self.t_proc
        return time.perf_counter()

    def finish(self, throughput: float) -> None:
        """End of the timed part: verify outputs, fix the end-to-end figures."""
        self.rss.sample()
        self.mark("timed_end")
        (s0, t0), (s1, t1) = self.ticks0, procs.cpu_ticks()
        self.detail["steal_pct"] = round(100 * (s1 - s0) / max(t1 - t0, 1), 2)
        for why in self.outputs.verify_oracle(self.seed, self.S["oracle_sample"],
                                              self.table["text"].to_pylist()):
            self._wrong(why)
        p50 = statistics.median(x for lat in self.passes for x in lat)
        tails = [tail(lat) for lat in self.passes]
        t = statistics.median(v for v, _pct, _n in tails)
        _v, pct, n = tails[0]
        self.e2e = {
            "setup_s": (self.setup_s, "s"),
            "throughput_per_s": (throughput, "1/s"),
            "query_p50_ms": (p50, "ms"),
            "query_tail_ms": (t, "ms"),
            "open_query_ms": (open_query_ms(self.open_ms), "ms"),
            "index_bytes_per_input_byte": (_du(self.index_dir) / self.input_bytes, "ratio"),
            "peak_rss_mb": (self.rss.peak_mb(), "MB"),
        }
        self.detail.update(
            query_tail_percentile=round(pct, 3), query_samples_per_pass=n,
            query_passes=len(self.passes), pass_tails_ms=[round(v, 2) for v, _p, _n in tails],
            pass_rates=[round(r, 1) for r in self.pass_rates],
            open_samples=len(self.open_ms), errors=self.errors[:10],
            updates=[(u["kind"], round(u["s"], 3), u["turns"]) for u in self.updates],
            builds_s=[r["timings_sec"]["total"] for r in self.reports],
            open_samples_ms=[round(x, 1) for _qi, x in self.open_ms],
            input_bytes=self.input_bytes,
        )

    def update_probe(self) -> None:
        """Traced build runs: one ADD and one REMOVE on the workload's index
        after everything else is measured, so the update layer has figures
        on every workload."""
        from engine.update import add_documents, remove_documents

        lo, hi = self.states[0]
        add_end = self.take(hi, self.S["probe_add_turns"])
        rem_end = self.take(lo, self.S["probe_remove_turns"])
        path = self.write_convs(hi, add_end, os.path.join(self.work, "probe-add.parquet"))
        self.update("add", add_documents, self.turns(hi, add_end), self.index_dir, path)
        self.update("remove", remove_documents, self.turns(lo, rem_end), self.index_dir,
                    conv_ids=conv_ids(lo, rem_end))

    def result(self, trace: bool) -> dict:
        """The result object. A traced run measures its layers here, after
        the end-to-end figures are fixed, and reports those instead."""
        if trace:
            metrics = layer_metrics(self)
            self.detail["traced_end_to_end"] = {k: v for k, (v, _u) in self.e2e.items()}
        else:
            metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in self.e2e.items()}
        correct = self.wrong == 0 and (trace or all(m["value"] > 0 for m in metrics.values()))
        return {"correct": bool(correct), "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


# --- workloads ----------------------------------------------------------------

def build_workload(run: Run) -> None:
    S = run.S
    run.make_corpus(S["build_turns"], S["probe_add_turns"])
    run.warm_up()
    t0 = run.begin_timed()
    lo, hi = run.states[0]
    for i in range(S["builds"]):
        index_dir = os.path.join(run.work, f"index-{i}")
        rep, dt = run.build(index_dir)
        if rep is None:
            break
        run.rate_samples.append(run.turns(lo, hi) / dt)
        if i:
            shutil.rmtree(run.index_dir)
        run.index_dir = index_dir
        # warm stream: cold first touches on a fresh reader put build's
        # median on the cold/warm boundary, where it spread 34-38% between seeds
        run.read_phase(0, S["build_opens"], S["build_passes"])
    if not run.rate_samples:
        raise RuntimeError(f"no build succeeded: {run.errors}")
    run.fill(t0, 0)
    run.finish(statistics.median(run.rate_samples))


def churn_workload(run: Run) -> None:
    from engine.update import add_documents, remove_documents

    S = run.S
    rounds = S["churn_rounds"]
    run.make_corpus(S["churn_turns"], rounds * S["churn_add_turns"] + 64 * rounds)
    run.build(run.index_dir, **CHURN_BUILD)
    run.mark("base_build")
    live = run.states[0]
    plan = []  # per round: (added convs, removed convs)
    for r in range(rounds):
        add = (live[1], run.take(live[1], S["churn_add_turns"]))
        rem = (live[0], run.take(live[0], S["churn_remove_turns"]))
        path = run.write_convs(*add, os.path.join(run.work, f"add-{r}.parquet"))
        plan.append((add, rem, path))
        live = (rem[1], add[1])
    t0 = run.begin_timed()
    changed = 0
    state = 0
    for r, (add, rem, path) in enumerate(plan):
        dt_a = run.update("add", add_documents, run.turns(*add), run.index_dir, path)
        if dt_a is None:
            break
        dt_r = run.update("remove", remove_documents, run.turns(*rem), run.index_dir,
                          conv_ids=conv_ids(*rem))
        if dt_r is None:
            break
        run.work_s += dt_a + dt_r
        changed += run.turns(*add) + run.turns(*rem)
        state = r + 1
        run.states[state] = (rem[1], add[1])
        run.read_phase(state, S["churn_opens"], S["churn_passes"])
        run.rss.sample()
    run.fill(t0, state)
    run.finish(changed / run.work_s if run.work_s else 0.0)


def conv_ids(lo: int, hi: int) -> list[str]:
    return [f"conv-{c:08d}" for c in range(lo, hi)]


WORKLOADS = {"build": build_workload, "churn": churn_workload}
