"""BM25 top-k query path — DefaultTargetAssembler/DefaultStrucmotifRuntime analog.

Reference query anatomy (CORE/core/DefaultTargetAssembler.java:79-112 +
DefaultStrucmotifRuntime.java:98-154): rarest-descriptor-first posting fetch,
shrinking candidate set, early exit, then exact scoring of survivors, limit(k).
Ours: per-query exact BM25 over decoded postings with

- deterministic accumulation: DISTINCT query terms processed in ascending
  unicode order, float64 adds -> bit-identical scores to ``engine.oracle``
  at any parallelism (the analog of the reference's exact-count golden gates);
- deterministic ranking: descending score, ascending doc_id on ties
  (better than the reference, which emits hits in parallel-stream order —
  DefaultStrucmotifRuntime.java:138-154 — and sorts downstream);
- exhaustive top-k: every doc holding a query term is scored, then an
  argpartition keeps the k best (plus kth-score ties) for the exact sort;
- one kernel: ``bm25_idf``, ``bm25_contrib`` and ``rank_topk`` below are the
  engine's one statement of the BM25 formula and of the top-k select; every
  scoring surface (here, ``convsearch``, ``percolate``, ``federate``) calls
  them, and ``engine.oracle`` is the only other, independent, statement;
- rarest-first term processing for conjunctive (AND) queries, with early
  exit once the candidate set empties (O1 analog: ResiduePairOccurrence
  informativeness ordering);
- a stateful actor-pool entry point (``Bm25Queryer`` via ``map_batches``) for
  batch evaluation: index loaded once per actor in ``__init__`` (T3 analog:
  the mmap'd ffindex bundle held by the inverted-index reader).
"""

from __future__ import annotations

import math
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .docmap import docmap_files, read_doc_lengths
from .schema import BM25_B, BM25_K1
from .segments import SegmentReader
from .tokenize import tokenize_text


def bm25_idf(df: int, n: int) -> float:
    """``ln(1 + (n - df + 0.5) / (df + 0.5))`` over ``n`` docs; 0.0 for an
    absent term (df == 0)."""
    if df == 0:
        return 0.0
    return math.log(1.0 + (n - df + 0.5) / (df + 0.5))


def bm25_contrib(idf, tf, dl, avgdl):
    """One term's BM25 contribution ``idf * tf*(k1+1) / (tf + k1*(1 - b +
    b*dl/avgdl))``. ``tf``/``dl`` are numpy arrays (one entry per doc) or
    Python scalars (percolate scores one doc at a time); the float evaluation
    order is fixed here, so every surface adds bit-identical contributions."""
    tff = tf.astype(np.float64) if isinstance(tf, np.ndarray) else float(tf)
    return idf * tff * (BM25_K1 + 1.0) / (
        tff + BM25_K1 * (1.0 - BM25_B + BM25_B * dl / avgdl)
    )


def rank_topk(
    doc: np.ndarray, score: np.ndarray, k: int, rank_round: int | None
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic top-k select: descending score (rounded to
    ``rank_round`` decimals when given), ascending doc on ties. An
    argpartition prune keeps the k best plus every doc tied with the kth key
    before the exact ``lexsort``, so the result equals a full sort's."""
    if len(doc) == 0:
        return doc, score
    key = np.round(score, rank_round) if rank_round is not None else score
    if len(doc) > k:
        kth = key[np.argpartition(-key, k - 1)[k - 1]]
        keep = np.flatnonzero(key >= kth)
        doc, score, key = doc[keep], score[keep], key[keep]
    order = np.lexsort((doc, -key))[:k]
    return doc[order], score[order]


def wildcard_to_regex(pattern: str) -> str:
    """Deterministic wildcard -> RE2 translation shared by the engine and
    the SQL oracle (both sides embed RE2, so one translated string defines
    the query): ``*`` -> ``.*``, ``?`` -> ``.``, everything else escaped."""
    import re as _re

    return "".join(
        ".*" if ch == "*" else "." if ch == "?" else _re.escape(ch)
        for ch in pattern
    )


def build_deletion_index(terms) -> dict[str, set[str]]:
    """FastSS deletion-neighborhood index over a vocabulary slice:
    variant -> terms producing it by 0 or 1 character deletions. Shared by
    the whole-vocab path (Bm25Index._deletion_index) and the per-shard path
    (serve._ShardActor), so both expand identically over their slices."""
    idx: dict[str, set[str]] = {}
    for t in terms:
        idx.setdefault(t, set()).add(t)
        for i in range(len(t)):
            idx.setdefault(t[:i] + t[i + 1 :], set()).add(t)
    return idx


def fuzzy_candidates(idx: dict[str, set[str]], term: str) -> set[str]:
    """ed<=1 vocab neighbors of ``term`` via the deletion index: candidate
    generation (every ed<=1 pair shares a deletion variant) + exact O(len)
    verification — the share test alone over-matches (e.g. 'ab' vs 'ba')."""
    cands: set[str] = set()
    for v in [term] + [term[:i] + term[i + 1 :] for i in range(len(term))]:
        cands |= idx.get(v, set())
    return {t for t in cands if _within_ed1(term, t)}


def _within_ed1(a: str, b: str) -> bool:
    """Exact Levenshtein-distance <= 1 test in one O(len) pass (no DP):
    equal | one substitution (same length) | one indel (length differs by 1)."""
    if a == b:
        return True
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return False
    if la == lb:
        return sum(x != y for x, y in zip(a, b)) == 1
    if la > lb:
        a, b, la, lb = b, a, lb, la
    i = j = 0
    skipped = False
    while i < la and j < lb:
        if a[i] == b[j]:
            i += 1
            j += 1
        elif skipped:
            return False
        else:
            skipped = True
            j += 1
    return True


def parse_boolean_query(expr: str, analyze=None):
    """Parse a boolean search expression into a nested tuple tree.

    ``analyze``: optional callable str -> list[str] used to normalize leaf
    terms (defaults to the standard tokenizer). Query surfaces on an
    analyzed index pass ``Bm25Index._terms`` so leaves stem like the corpus.

    Grammar (Lucene BooleanQuery surface; precedence NOT > AND > OR):

        expr  := and ( 'OR' and )*
        and   := not ( 'AND' not )*
        not   := 'NOT' not | atom
        atom  := '(' expr ')' | TERM

    Operators are the UPPERCASE keywords; anything else is a term and is run
    through the index tokenizer (must yield exactly one token, so terms get
    the same lowercase/strip normalization as the corpus). Nodes:
    ``('term', t)``, ``('and', [..])``, ``('or', [..])``, ``('not', child)``.
    """
    import re as _re

    toks = _re.findall(r"\(|\)|[^()\s]+", expr)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def parse_or():
        nonlocal pos
        parts = [parse_and()]
        while peek() == "OR":
            pos += 1
            parts.append(parse_and())
        return parts[0] if len(parts) == 1 else ("or", parts)

    def parse_and():
        nonlocal pos
        parts = [parse_not()]
        while peek() == "AND":
            pos += 1
            parts.append(parse_not())
        return parts[0] if len(parts) == 1 else ("and", parts)

    def parse_not():
        nonlocal pos
        if peek() == "NOT":
            pos += 1
            return ("not", parse_not())
        return parse_atom()

    def parse_atom():
        nonlocal pos
        t = peek()
        if t == "(":
            pos += 1
            node = parse_or()
            if peek() != ")":
                raise ValueError(f"unbalanced parentheses in boolean query {expr!r}")
            pos += 1
            return node
        if t is None or t in (")", "AND", "OR", "NOT"):
            raise ValueError(f"expected term at token {pos} in boolean query {expr!r}")
        pos += 1
        norm = (analyze or tokenize_text)(t)
        if len(norm) != 1:
            raise ValueError(f"boolean leaf {t!r} does not normalize to one token")
        return ("term", norm[0])

    tree = parse_or()
    if pos != len(toks):
        raise ValueError(f"trailing tokens in boolean query {expr!r}")
    if _eval_bool_tree(tree, lambda t: False):
        # A query satisfiable by a document containing NONE of its terms
        # matches (almost) the whole corpus — the candidate set would be
        # O(n_docs), not O(postings). Same restriction as Lucene's pure-
        # negative BooleanQuery clause handling.
        raise ValueError(
            f"boolean query {expr!r} is satisfiable with every term absent "
            "(pure-negative); add at least one positive clause per branch"
        )
    return tree


def _eval_bool_tree(node, leaf):
    """Evaluate a parse tree; ``leaf(term)`` supplies each term's value —
    a bool for validation, a numpy bool mask for vectorized matching."""
    op = node[0]
    if op == "term":
        return leaf(node[1])
    if op == "not":
        v = _eval_bool_tree(node[1], leaf)
        return ~v if isinstance(v, np.ndarray) else (not v)
    vals = [_eval_bool_tree(c, leaf) for c in node[1]]
    if isinstance(vals[0], np.ndarray):
        red = np.logical_and.reduce if op == "and" else np.logical_or.reduce
        return red(vals)
    return all(vals) if op == "and" else any(vals)


def boolean_query_leaves(tree) -> tuple[list[str], list[str]]:
    """(positive_terms, all_terms), each sorted-distinct. A term occurrence
    is POSITIVE when it sits under an even number of NOTs; the pure-negative
    check in parse_boolean_query guarantees every matching document contains
    at least one positive term (the expression is monotone in its literals
    once NOT is pushed to the leaves, and it evaluates False on the all-
    absent assignment), so the positive postings' union is a complete
    candidate set — negative-only terms are membership probes, never
    candidate generators."""
    pos_terms: set[str] = set()
    all_terms: set[str] = set()

    def walk(node, parity: bool):
        if node[0] == "term":
            all_terms.add(node[1])
            if not parity:
                pos_terms.add(node[1])
        elif node[0] == "not":
            walk(node[1], not parity)
        else:
            for c in node[1]:
                walk(c, parity)

    walk(tree, False)
    return sorted(pos_terms), sorted(all_terms)


class Bm25Index:
    """Query-side handle: segment reader + docmap lengths + global stats.

    Doc lengths are read from the docmap at init, in this process, into one
    float64 array (``docmap.DocLengths``): indexed directly by doc id when
    the ids are ``0..n-1``, through a sorted id array otherwise. That is 8
    bytes per doc (16 with holes in the id space) per open handle; opening
    a handle needs no Ray session.

    ``read_error_strategy``: "throw" (default) raises SegmentReadError on a
    corrupt part at query level; "quarantine" serves the remaining parts
    with a warning (CORE/config/ReadErrorStrategy.java analog)."""

    def __init__(self, index_dir: str, read_error_strategy: str = "throw"):
        self.index_dir = index_dir
        self._queries_served = 0
        self.reader = SegmentReader(index_dir, read_error_strategy=read_error_strategy)
        self.n_docs = int(self.reader.stats["n_docs"])
        self.avgdl = float(self.reader.stats["avgdl"])
        # index-time analyzer chain, replayed verbatim on every query string
        # (ES persists this in the mapping for the same reason: an
        # index/query analyzer mismatch silently returns empty postings)
        self.analyzer = str(self.reader.stats.get("analyzer", "standard"))
        self.stopwords = frozenset(self.reader.stats.get("stopwords") or ())
        self.dl = read_doc_lengths(os.path.join(index_dir, "docmap"))
        # exact integer token total (QLD's collection length)
        self._dl_total = self.dl.total
        # transcripts mode mints DENSE ids 0..N-1: dl is a plain array index
        # (the reference's array-indexed structureIndex,
        # DefaultStructureIndexProvider.java:36-89); also gates the
        # scatter-accumulator scoring fast path below.
        self._dense = self.dl.dense

    def _terms(self, text: str) -> list[str]:
        """Analyze one query/document string under the INDEX's analyzer
        chain (read from stats.json at init) — every query surface in this
        class tokenizes through here so a stemmed index is queried with
        stemmed terms and its term-vector/MLT/significant-terms surfaces
        count the same vocabulary the postings store."""
        from .tokenize import analyze_text

        return analyze_text(text, self.analyzer, stopwords=self.stopwords)

    def metrics(self) -> dict:
        """Query-side serving metrics: reader counters (decoded runs,
        postings-cache hits, payload column reads, quarantined parts) plus
        queries served by this handle — the read-path sibling of the build's
        per-partition lineage metrics (manifest encode_sec / stats
        timings_sec). Counters are per-process (per query actor)."""
        out = dict(getattr(self.reader, "metrics", {}))
        out["queries_served"] = self._queries_served
        out["postings_cache_entries"] = getattr(
            self.reader, "_post_cache_entries", 0
        )
        return out

    def idf(self, term: str) -> float:
        return bm25_idf(self.reader.df(term), self.n_docs)

    def _live_postings(self, terms) -> list[tuple[str, np.ndarray, np.ndarray]]:
        """(term, docs, tfs) of every distinct term in ``terms`` that has
        postings, in ascending term order — the accumulation order every
        scoring surface shares with the oracle."""
        out = []
        for t in sorted(set(terms)):
            doc, tf = self.reader.postings(t)
            if len(doc):
                out.append((t, doc, tf))
        return out

    @staticmethod
    def _union(docs: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
        """Sorted union of several docID arrays plus, per array, the
        positions of its docs in that union: one unique() over the
        concatenation replaces a searchsorted per array."""
        candidates, inverse = np.unique(np.concatenate(docs), return_inverse=True)
        # plain slices, not np.split: its Python overhead is ~10x theirs
        positions, lo = [], 0
        for d in docs:
            positions.append(inverse[lo : lo + len(d)])
            lo += len(d)
        return candidates, positions

    def score_all(
        self, query_text: str, global_stats: dict | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """All matching docs -> exact BM25 (sorted by doc_id).

        Accumulation order matches the oracle exactly: ascending term, one
        vectorized float64 add per term at unique positions.

        ``global_stats`` (federated / dfs_query_then_fetch mode): a dict
        ``{"n_docs": int, "avgdl": float, "df": {term: int}}`` overriding this
        index's LOCAL corpus statistics with union-of-indexes values, so a
        shard of a federation scores its candidates exactly as one full-corpus
        index would (``engine.federate``). Accumulator sizing and posting
        lookups stay local; only idf's (n, df) and the length norm's avgdl
        change."""
        n_eff = self.n_docs if global_stats is None else int(global_stats["n_docs"])
        avgdl_eff = self.avgdl if global_stats is None else float(global_stats["avgdl"])
        df_of = (
            (lambda t, local_df: local_df)
            if global_stats is None
            else (lambda t, local_df: int(global_stats["df"][t]))
        )
        postings = self._live_postings(self._terms(query_text))
        if not postings:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        if len(postings) == 1:
            # single-term fast path: the posting IS the sorted candidate set
            candidates, positions = postings[0][1], [slice(None)]
        elif self._dense and (
            self.n_docs <= (1 << 25)
            or self.n_docs <= 4 * sum(len(d) for _, d, _ in postings)
        ):
            # dense-docID fast path: scatter contributions into an n_docs-long
            # accumulator — no unique()/sort over the multi-million-doc union
            # (the dominant multi-term cost). Per-doc float adds still happen
            # in ascending term order, so scores stay bit-identical. Gated on
            # corpus size: the n_docs float64 accumulator is 8 bytes/doc per
            # query (8 GB at 10^9 docs), so beyond 32M docs it is only taken
            # when the postings themselves are within 4x of that footprint —
            # otherwise the unique()-merge path below (O(postings) memory)
            # computes the same bits.
            candidates, positions = None, [d for _, d, _ in postings]
        else:
            candidates, positions = self._union([d for _, d, _ in postings])
        acc = np.zeros(self.n_docs if candidates is None else len(candidates))
        for (t, doc, tf), pos in zip(postings, positions):  # ascending term order
            idf = bm25_idf(df_of(t, len(doc)), n_eff)
            acc[pos] += bm25_contrib(idf, tf, self.dl(doc), avgdl_eff)
        if candidates is None:
            # candidate extraction scans a 1-byte mask, not the 8-byte
            # accumulator (the scan is memory-bound: the float scan measured
            # ~8 ms per query at 1.3M docs). Identical results: every
            # posting contribution is strictly positive (idf > 0 for df >= 1),
            # so seen == (acc != 0) exactly.
            seen = np.zeros(self.n_docs, dtype=bool)
            for doc in positions:
                seen[doc] = True
            candidates = np.flatnonzero(seen)  # ascending docIDs
            acc = acc[candidates]
        return candidates, acc

    def dismax_topk(
        self,
        query_text: str,
        k: int,
        tie_breaker: float = 0.25,
        rank_round: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Disjunction-max ranking (the Lucene ``DisjunctionMaxQuery``
        surface): per doc, the BEST single term's BM25 contribution plus
        ``tie_breaker`` times the remaining terms' contributions —
        ``max + tie * (sum - max)`` — instead of the plain sum. A dyadic
        ``tie_breaker`` (default 1/4) keeps the combine exact: ``sum`` is the
        ordinary ascending-term accumulation (bit-identical to ``score_all``),
        ``max`` is exact, and the final expression is one subtract, one
        multiply, one add — the same IEEE ops the SQL oracle performs.

        Cost is the same postings-bounded pass as ``score_all`` with a second
        float64 accumulator for the running max."""
        postings = self._live_postings(self._terms(query_text))
        if not postings:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        candidates, positions = self._union([d for _, d, _ in postings])
        acc = np.zeros(len(candidates), dtype=np.float64)
        mx = np.zeros(len(candidates), dtype=np.float64)
        for (t, doc, tf), pos in zip(postings, positions):  # ascending term order
            contrib = bm25_contrib(
                bm25_idf(len(doc), self.n_docs), tf, self.dl(doc), self.avgdl
            )
            acc[pos] += contrib
            # pos is unique within one term (one posting per doc), so a
            # gather-compare-scatter is an exact segmented running max
            mx[pos] = np.maximum(mx[pos], contrib)
        return rank_topk(candidates, mx + tie_breaker * (acc - mx), k, rank_round)

    def explain(
        self, query_text: str, k: int, rank_round: int | None = None
    ) -> tuple[np.ndarray, np.ndarray, list[str], np.ndarray]:
        """Score breakdown for the top-``k`` hits (the Lucene/ES ``explain``
        surface): one row per (hit doc, matching query term) carrying that
        term's exact BM25 contribution — the additive pieces ``score_all``
        sums, exposed for relevance debugging.

        Work is ranking + one postings lookup per query term with a
        searchsorted membership probe against the k hit docs — never
        corpus-sized. Returns (doc_ids, ranks, terms, contribs) in
        (term asc, doc asc) order; contributions are the same floats the
        scoring path adds, so per-doc they sum back to the hit's score."""
        d, _s = self.topk(query_text, k, rank_round=rank_round)
        empty = (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            [],
            np.empty(0, dtype=np.float64),
        )
        if not len(d):
            return empty
        ds_sorted = np.sort(d)
        rank_of = {int(x): r for r, x in enumerate(d.tolist(), 1)}
        out_doc, out_rank, out_term, out_contrib = [], [], [], []
        for t in sorted(set(self._terms(query_text))):
            doc, tf = self.reader.postings(t)
            if not len(doc):
                continue
            idx = np.searchsorted(doc, ds_sorted)
            idx_c = np.clip(idx, 0, len(doc) - 1)
            mask = doc[idx_c] == ds_sorted
            present = ds_sorted[mask]
            if not len(present):
                continue
            contrib = bm25_contrib(
                bm25_idf(len(doc), self.n_docs),
                tf[idx_c[mask]],
                self.dl(present),
                self.avgdl,
            )
            out_doc.extend(present.tolist())
            out_rank.extend(rank_of[int(x)] for x in present.tolist())
            out_term.extend([t] * len(present))
            out_contrib.extend(contrib.tolist())
        return (
            np.array(out_doc, dtype=np.int64),
            np.array(out_rank, dtype=np.int64),
            out_term,
            np.array(out_contrib, dtype=np.float64),
        )

    def topk(
        self,
        query_text: str,
        k: int,
        rank_round: int | None = None,
        allowed: np.ndarray | None = None,
        excluded: np.ndarray | None = None,
        field_range: tuple[str, int, int] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-k (doc_ids, scores): descending score, ascending doc_id ties.

        Scoring is exhaustive: every doc holding a query term is scored
        exactly (``score_all``), then an argpartition keeps the k best and
        every doc tied with the kth before the exact ordering sort.

        ``allowed`` / ``excluded``: optional docID whitelist / blacklist (the
        allowedStructures / excludedStructures semi/anti-join filters,
        DefaultTargetAssembler.java:66-74,151-161).

        ``field_range=(field, lo, hi)``: non-scoring range filter on an int64
        doc-values column (the ES ``bool: {filter: {range: ...}}`` context,
        inclusive bounds; timestamps compare as epoch-us). Applied to the
        df-bounded match set BEFORE top-k truncation, so ranking within the
        window is exact; BM25 scores are unchanged by the filter.

        ``rank_round``: rank on scores rounded to N decimals instead of exact
        float64 — used for cross-engine (DuckDB-oracle) deterministic ranking,
        where float summation order differs between engines."""
        self._queries_served += 1
        return self._topk_exhaustive(
            query_text, k, rank_round,
            allowed=allowed, excluded=excluded, field_range=field_range,
        )

    def _topk_exhaustive(
        self,
        query_text: str,
        k: int,
        rank_round: int | None,
        allowed: np.ndarray | None = None,
        excluded: np.ndarray | None = None,
        field_range: tuple[str, int, int] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        doc, score = self.score_all(query_text)
        if allowed is not None and len(doc):
            mask = np.isin(doc, np.asarray(allowed, dtype=np.int64))
            doc, score = doc[mask], score[mask]
        if excluded is not None and len(doc):
            mask = ~np.isin(doc, np.asarray(excluded, dtype=np.int64))
            doc, score = doc[mask], score[mask]
        if field_range is not None and len(doc):
            field, lo, hi = field_range
            vals = self.docvalues_i64(doc, field)
            mask = (vals >= int(lo)) & (vals <= int(hi))
            doc, score = doc[mask], score[mask]
        return rank_topk(doc, score, k, rank_round)

    def conjunctive_topk(
        self, query_text: str, k: int, rank_round: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """AND-semantics top-k: only docs containing ALL query terms.

        The DefaultTargetAssembler iterative-intersection analog (J2,
        :79-112): candidates from :meth:`_conjunctive_candidates`, then the
        survivors scored from the same postings exactly like ``topk``
        (ascending-term accumulation)."""
        self._queries_served += 1
        terms = sorted(set(self._terms(query_text)))
        candidates, post = self._conjunctive_candidates(terms)
        if len(candidates) == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        dl = self.dl(candidates)
        acc = np.zeros(len(candidates), dtype=np.float64)
        for t in terms:
            doc, tf = post[t]
            acc += bm25_contrib(self.idf(t), tf[np.searchsorted(doc, candidates)], dl, self.avgdl)
        return rank_topk(candidates, acc, k, rank_round)

    def _conjunctive_candidates(
        self, terms: list[str]
    ) -> tuple[np.ndarray, dict[str, tuple[np.ndarray, np.ndarray]]]:
        """Docs containing ALL terms + each visited term's cached postings.

        Rarest-first (O1 informativeness ordering): the rarest term's
        postings are the initial candidates, each later term's postings cut
        them by a sorted intersection, with EARLY EXIT the moment the set
        empties (DefaultTargetAssembler:79-112)."""
        empty = np.empty(0, dtype=np.int64)
        by_rarity = sorted(terms, key=lambda t: (self.reader.df(t), t))
        if not by_rarity or self.reader.df(by_rarity[0]) == 0:
            return empty, {}
        post: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        candidates = None
        for t in by_rarity:
            post[t] = self.reader.postings(t)
            doc = post[t][0]
            if candidates is None or not len(doc):
                candidates = doc
            else:
                at = np.minimum(np.searchsorted(doc, candidates), len(doc) - 1)
                candidates = candidates[doc[at] == candidates]
            if not len(candidates):  # early exit: no doc can match
                return empty, post
        return candidates, post

    def phrase_match(self, phrase_text: str) -> tuple[np.ndarray, np.ndarray]:
        """Exact-phrase matching over a POSITIONAL index (J4 analog: the
        reference's path-overlap join consumes per-occurrence identifier
        payloads, domain/result/TargetStructure.java:78-111; ours consumes
        per-occurrence token positions).

        Candidates come from the rarest-first intersection of the phrase's
        distinct terms' postings (:meth:`_conjunctive_candidates`); each
        survivor is verified positionally: intersect term_i's positions
        shifted by -i across the phrase — the surviving offsets are the
        phrase start positions. Returns
        (doc_ids ascending, n_matches per doc), integer-exact."""
        seq = self._terms(phrase_text)
        if not seq:
            return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        return self._phrase_count(seq)

    def _phrase_count(self, seq: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """Phrase occurrence counting over already-analyzed tokens ``seq``
        (the shared core of phrase_match / phrase_prefix_match)."""
        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        uniq = sorted(set(seq))
        candidates, _ = self._conjunctive_candidates(uniq)
        if len(candidates) == 0:
            return empty
        pos_lists = {t: self.reader.positions_lookup(t, candidates) for t in uniq}
        counts = np.zeros(len(candidates), dtype=np.int64)
        for i in range(len(candidates)):
            m = pos_lists[seq[0]][i]
            for off in range(1, len(seq)):
                if len(m) == 0:
                    break
                m = np.intersect1d(m, pos_lists[seq[off]][i] - off, assume_unique=True)
            counts[i] = len(m)
        keep = counts > 0
        return candidates[keep], counts[keep]

    def phrase_prefix_match(
        self, phrase_text: str, max_expansions: int = 16
    ) -> tuple[np.ndarray, np.ndarray]:
        """ES ``match_phrase_prefix``: exact phrase on every token but the
        last, whose analyzed form is treated as a PREFIX and expanded against
        the term dictionary (:meth:`prefix_terms`, capped at
        ``max_expansions`` — the ES knob of the same name, raising instead of
        silently truncating). Returns (doc_ids ascending, n_matches) where
        n_matches sums phrase occurrences over all expansions — expansions
        are distinct terms, so their occurrence sets are disjoint and the sum
        is integer-exact. Cost is one :meth:`_phrase_count` per expansion over
        the J4 positional-join path; the fixed-prefix terms bound candidates
        exactly as in :meth:`phrase_match`."""
        seq = self._terms(phrase_text)
        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        if not seq:
            return empty
        *fixed, last = seq
        variants = self.prefix_terms(last, max_terms=max_expansions)
        if not variants:
            return empty
        all_d, all_c = [], []
        for v in variants:
            d, c = self._phrase_count(fixed + [v])
            if len(d):
                all_d.append(d)
                all_c.append(c)
        if not all_d:
            return empty
        d = np.concatenate(all_d)
        c = np.concatenate(all_c)
        uniq_d, inv = np.unique(d, return_inverse=True)
        sums = np.zeros(len(uniq_d), dtype=np.int64)
        np.add.at(sums, inv, c)
        return uniq_d, sums

    def proximity_match(
        self, term_a: str, term_b: str, window: int, ordered: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """Proximity ('slop') matching over a POSITIONAL index — the
        windowed relaxation of :meth:`phrase_match` (J4 family: the
        reference's tolerant positional join relaxes exact geometric overlap
        the same way, core/MotifPruner.java distance-tolerance knobs).

        Returns (doc_ids ascending, n_pairs per doc) where n_pairs counts
        position pairs (i of ``term_a``, j of ``term_b``) with
        ``0 < j - i <= window`` when ``ordered`` else ``|j - i| <= window``.
        Candidates come from :meth:`_conjunctive_candidates`; pair
        counting is two vectorized searchsorted sweeps per doc. Integer-exact.
        """
        ta, tb = self._terms(term_a), self._terms(term_b)
        if len(ta) != 1 or len(tb) != 1:
            raise ValueError("proximity_match takes exactly one token per side")
        a, b = ta[0], tb[0]
        if a == b:
            raise ValueError("proximity terms must differ")
        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        candidates, _ = self._conjunctive_candidates(sorted({a, b}))
        if len(candidates) == 0:
            return empty
        pos_a = self.reader.positions_lookup(a, candidates)
        pos_b = self.reader.positions_lookup(b, candidates)
        # ONE searchsorted over all candidates: pack each doc's positions
        # into a disjoint int64 range (doc_index << 32 — positions are
        # < 2^31 and window << 2^32, so windows never cross docs), then
        # count per-doc pairs with a reduceat over the flat hit counts.
        len_a = np.fromiter((len(p) for p in pos_a), np.int64, len(candidates))
        len_b = np.fromiter((len(p) for p in pos_b), np.int64, len(candidates))
        base = np.arange(len(candidates), dtype=np.int64) << np.int64(32)
        flat_a = (
            np.concatenate(pos_a) + np.repeat(base, len_a)
            if len_a.sum()
            else np.empty(0, np.int64)
        )
        flat_b = (
            np.concatenate(pos_b) + np.repeat(base, len_b)
            if len_b.sum()
            else np.empty(0, np.int64)
        )
        if ordered:
            lo = np.searchsorted(flat_b, flat_a + 1, side="left")
            hi = np.searchsorted(flat_b, flat_a + window, side="right")
        else:
            lo = np.searchsorted(flat_b, flat_a - window, side="left")
            hi = np.searchsorted(flat_b, flat_a + window, side="right")
        per_pos = hi - lo
        a_bounds = np.zeros(len(candidates) + 1, dtype=np.int64)
        np.cumsum(len_a, out=a_bounds[1:])
        counts = np.zeros(len(candidates), dtype=np.int64)
        nz = np.flatnonzero(len_a)
        if len(nz) and len(per_pos):
            sums = np.add.reduceat(per_pos, a_bounds[nz])
            counts[nz] = sums
        keep = counts > 0
        return candidates[keep], counts[keep]

    def span_near(
        self, terms: list[str], window: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Ordered multi-term span matching over a POSITIONAL index
        (Lucene SpanNearQuery with inOrder=true): docs containing positions
        ``p1 < p2 < ... < pn`` — one per query term, in query order — with
        ``pn - p1 <= window``, plus the exact count of such tuples per doc.

        n == 2 delegates to the ordered :meth:`proximity_match` sweep; n == 3
        counts triples fully vectorized across ALL candidate docs via the
        packed-position trick (doc_index << 32 keeps docs disjoint): for each
        first-term position a, valid thirds c lie in (a, a+window], and the
        middles between them telescope to rank arithmetic —
        ``sum_{c} rank_B(c) - count_c * rank_B(a)`` — so the whole count is
        two searchsorted sweeps + one prefix sum, no per-doc loop.
        Cross-doc rank offsets cancel in the differences because every
        (a, c) pair lives inside one doc's packed range. Integer-exact.
        """
        toks = [self._terms(t) for t in terms]
        if any(len(t) != 1 for t in toks):
            raise ValueError("span_near takes exactly one token per term")
        flat = [t[0] for t in toks]
        if len(set(flat)) != len(flat):
            raise ValueError("span_near terms must be distinct")
        if len(flat) == 2:
            return self.proximity_match(flat[0], flat[1], window, ordered=True)
        if len(flat) != 3:
            raise ValueError("span_near supports 2 or 3 terms")
        if window < 2:
            raise ValueError("a 3-term ordered span needs window >= 2")
        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        candidates, _ = self._conjunctive_candidates(sorted(set(flat)))
        if len(candidates) == 0:
            return empty
        packed = []
        base = np.arange(len(candidates), dtype=np.int64) << np.int64(32)
        lens_a = None
        for i, t in enumerate(flat):
            pos = self.reader.positions_lookup(t, candidates)
            lens = np.fromiter((len(p) for p in pos), np.int64, len(candidates))
            if i == 0:
                lens_a = lens
            packed.append(
                np.concatenate(pos) + np.repeat(base, lens)
                if lens.sum()
                else np.empty(0, np.int64)
            )
        A, B, C = packed
        # rank of each c (and each a) in the middle-term array B
        rank_c = np.searchsorted(B, C, side="left")
        G = np.zeros(len(C) + 1, dtype=np.int64)
        np.cumsum(rank_c, out=G[1:])
        lo = np.searchsorted(C, A + 1, side="left")
        hi = np.searchsorted(C, A + window, side="right")
        cnt_c = hi - lo
        rank_a = np.searchsorted(B, A, side="right")
        per_a = (G[hi] - G[lo]) - cnt_c * rank_a
        a_bounds = np.zeros(len(candidates) + 1, dtype=np.int64)
        np.cumsum(lens_a, out=a_bounds[1:])
        counts = np.zeros(len(candidates), dtype=np.int64)
        nz = np.flatnonzero(lens_a)
        if len(nz) and len(per_a):
            counts[nz] = np.add.reduceat(per_a, a_bounds[nz])
        keep = counts > 0
        return candidates[keep], counts[keep]

    def span_not(
        self, include: str, exclude: str, dist: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exclusion span matching over a POSITIONAL index (Lucene
        SpanNotQuery with pre/post slop = ``dist``): occurrences of
        ``include`` that have NO occurrence of ``exclude`` within ``dist``
        tokens (|pos_b - pos_a| <= dist). Returns (doc_ids ascending,
        surviving-occurrence count per doc) for docs with >= 1 survivor —
        the negative-context filter ("spark but not near vector") the
        positive span family cannot express.

        Shape: candidates are simply ``include``'s postings; only docs also
        containing ``exclude`` pay the positional work — one packed-range
        searchsorted sweep (the proximity_match trick) marks excluded
        occurrences, a reduceat folds per doc. Integer-exact, no per-doc
        loop."""
        ta, tb = self._terms(include), self._terms(exclude)
        if len(ta) != 1 or len(tb) != 1:
            raise ValueError("span_not takes exactly one token per side")
        a, b = ta[0], tb[0]
        if a == b:
            raise ValueError("span_not terms must differ")
        if dist < 0:
            raise ValueError("dist must be >= 0")
        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        docs_a, tfs_a = self.reader.postings(a)
        if not len(docs_a):
            return empty
        counts = tfs_a.astype(np.int64).copy()
        docs_b, _tfs_b = self.reader.postings(b)
        both = (
            np.isin(docs_a, docs_b, assume_unique=True)
            if len(docs_b)
            else np.zeros(len(docs_a), dtype=bool)
        )
        cand = docs_a[both]
        if len(cand):
            pos_a = self.reader.positions_lookup(a, cand)
            pos_b = self.reader.positions_lookup(b, cand)
            len_a = np.fromiter((len(p) for p in pos_a), np.int64, len(cand))
            len_b = np.fromiter((len(p) for p in pos_b), np.int64, len(cand))
            base = np.arange(len(cand), dtype=np.int64) << np.int64(32)
            flat_a = np.concatenate(pos_a) + np.repeat(base, len_a)
            flat_b = np.concatenate(pos_b) + np.repeat(base, len_b)
            lo = np.searchsorted(flat_b, flat_a - dist, side="left")
            hi = np.searchsorted(flat_b, flat_a + dist, side="right")
            excluded = (hi - lo) > 0
            a_bounds = np.zeros(len(cand) + 1, dtype=np.int64)
            np.cumsum(len_a, out=a_bounds[1:])
            n_excl = np.zeros(len(cand), dtype=np.int64)
            nz = np.flatnonzero(len_a)
            if len(nz) and len(excluded):
                n_excl[nz] = np.add.reduceat(excluded.astype(np.int64), a_bounds[nz])
            counts[both] -= n_excl
        keep = counts > 0
        return docs_a[keep], counts[keep]

    def span_near_topk(
        self,
        terms: list[str],
        window: int,
        k: int,
        rank_round: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """RANKED sloppy spans (Lucene SloppyPhraseScorer semantics, ordered):
        each ordered tuple ``p1 < ... < pn`` with ``pn - p1 <= window``
        contributes a sloppy frequency of ``1 / (pn - p1 - (n-1) + 1)``
        (adjacent tuple = 1, looser spans decay), then the doc scores as
        BM25 with tf = sloppy_freq and idf = sum of the terms' idfs.

        Counting runs one vectorized pass PER SPAN LENGTH d (d <= window, a
        dozen passes, each a searchsorted over the packed position arrays)
        — the per-d weight is constant, so determinism is by construction:
        d ascending, positions ascending. Supports 2 or 3 distinct terms,
        same packing/telescoping as span_near."""
        toks = [self._terms(t) for t in terms]
        if any(len(t) != 1 for t in toks):
            raise ValueError("span_near_topk takes exactly one token per term")
        flat_terms = [t[0] for t in toks]
        n = len(flat_terms)
        if len(set(flat_terms)) != n or n not in (2, 3):
            raise ValueError("span_near_topk takes 2 or 3 distinct terms")
        if window < n - 1:
            raise ValueError(f"window must be >= {n - 1} for {n} ordered terms")
        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
        candidates, _ = self._conjunctive_candidates(sorted(set(flat_terms)))
        if len(candidates) == 0:
            return empty
        base = np.arange(len(candidates), dtype=np.int64) << np.int64(32)
        packed, lens = [], []
        for t in flat_terms:
            pos = self.reader.positions_lookup(t, candidates)
            ln = np.fromiter((len(p) for p in pos), np.int64, len(candidates))
            lens.append(ln)
            packed.append(
                np.concatenate(pos) + np.repeat(base, ln)
                if ln.sum()
                else np.empty(0, np.int64)
            )
        A = packed[0]
        last = packed[-1]
        per_a = np.zeros(len(A), dtype=np.float64)
        if n == 3:
            B = packed[1]
            g = np.searchsorted(B, last, side="left")  # rank of each c in B
            h = np.searchsorted(B, A, side="right")    # rank of each a in B
        for d in range(n - 1, window + 1):
            idx = np.searchsorted(last, A + d)
            idx[idx == len(last)] = 0
            hit = (last[idx] == A + d) if len(last) else np.zeros(len(A), bool)
            w = 1.0 / (d - (n - 1) + 1)
            if n == 2:
                per_a[hit] += w
            else:
                nb = (g[idx[hit]] - h[hit]).astype(np.float64)
                per_a[hit] += w * nb
        a_bounds = np.zeros(len(candidates) + 1, dtype=np.int64)
        np.cumsum(lens[0], out=a_bounds[1:])
        sf = np.zeros(len(candidates), dtype=np.float64)
        nz = np.flatnonzero(lens[0])
        if len(nz) and len(per_a):
            sf[nz] = np.add.reduceat(per_a, a_bounds[nz])
        keep = sf > 0
        if not keep.any():
            return empty
        cand, sf = candidates[keep], sf[keep]
        idf_sum = 0.0
        for t in sorted(set(flat_terms)):  # ascending-term sum, like score_all
            idf_sum += self.idf(t)
        score = bm25_contrib(idf_sum, sf, self.dl(cand), self.avgdl)
        return rank_topk(cand, score, k, rank_round)

    def best_passages(
        self,
        query_text: str,
        k: int,
        window: int = 16,
        rank_round: int | None = None,
        sel_round: int = 6,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Best-passage extraction (Lucene UnifiedHighlighter's top passage;
        the RAG passage-retrieval primitive): for each BM25 top-``k`` hit,
        the ``window``-token span with the maximum idf-weighted sum of
        query-term occurrences inside it; ties prefer the EARLIEST start.

        The optimal window always starts at an occurrence, so candidates are
        the doc's merged occurrence positions and scoring is one prefix-sum
        difference per doc — O(occurrences log occurrences), never O(dl).
        Scores are rounded to ``sel_round`` before the argmax on BOTH
        engines (the kmeans/PageRank cross-engine argsort contract).
        Requires a positional index. Returns (doc_ids, starts,
        rounded_passage_scores) aligned with the hit ranking."""
        terms = sorted(set(self._terms(query_text)))
        live = [t for t in terms if self.reader.df(t) > 0]
        d, _s = self.topk(query_text, k, rank_round=rank_round)
        if not len(d) or not live:
            return (
                d,
                np.empty(len(d), dtype=np.int64),
                np.empty(len(d), dtype=np.float64),
            )
        per_term = [(t, self.idf(t), self.reader.positions_lookup(t, d)) for t in live]
        starts = np.zeros(len(d), dtype=np.int64)
        scores = np.zeros(len(d), dtype=np.float64)
        for i in range(len(d)):  # k is bounded: the serving path's hit loop
            pos_parts = [p[i] for _, _, p in per_term if len(p[i])]
            w_parts = [
                np.full(len(p[i]), idf)
                for _, idf, p in per_term
                if len(p[i])
            ]
            P = np.concatenate(pos_parts)
            W = np.concatenate(w_parts)
            o = np.argsort(P, kind="stable")
            P, W = P[o], W[o]
            cs = np.zeros(len(P) + 1, dtype=np.float64)
            np.cumsum(W, out=cs[1:])
            hi = np.searchsorted(P, P + window, side="left")
            sc = np.round(cs[hi] - cs[: len(P)], sel_round)
            best = np.lexsort((P, -sc))[0]
            starts[i] = P[best]
            scores[i] = sc[best]
        return d, starts, scores

    def term_positions(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        """Every (doc, position) occurrence of ``term``, exploded — the
        highlight/offsets primitive (the reference surfaces per-occurrence
        identifier payloads the same way, domain/bucket/ArrayBucket.java:31-34).

        Requires a positional index. Returns (doc_ids repeated per occurrence,
        0-based token positions), doc-major ascending, positions ascending
        within a doc — integer-exact."""
        toks = self._terms(term)
        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        if len(toks) != 1:
            raise ValueError("term_positions takes exactly one token")
        t = toks[0]
        docs, _tfs = self.reader.postings(t)
        if len(docs) == 0:
            return empty
        pos_lists = self.reader.positions_lookup(t, docs)
        counts = np.fromiter((len(p) for p in pos_lists), dtype=np.int64, count=len(pos_lists))
        return (
            np.repeat(docs, counts),
            np.concatenate(pos_lists) if len(pos_lists) else empty[1],
        )

    def topk_msm(
        self, query_text: str, m: int, k: int, rank_round: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Minimum-should-match disjunction: rank by BM25 over docs matching
        at least ``m`` distinct query terms (Lucene's minimumShouldMatch; the
        reference's analog is the per-pair hit-count floor the target
        assembler enforces before path assembly,
        core/DefaultTargetAssembler.java:108-161).

        One unique() over the concatenated postings yields candidates, their
        accumulate positions AND the per-doc matched-term count (bincount of
        the inverse) — the >= m filter prunes before any float scoring, so
        cost is bounded by postings size, never the corpus."""
        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
        postings = self._live_postings(self._terms(query_text))
        if not postings or m > len(postings):
            return empty
        candidates, positions = self._union([d for _, d, _ in postings])
        counts = np.bincount(np.concatenate(positions), minlength=len(candidates))
        keep = counts >= m
        if not keep.any():
            return empty
        # scatter each term's contribution only where the msm filter survives
        sel = np.cumsum(keep, dtype=np.int64) - 1  # candidate -> kept slot
        acc = np.zeros(int(keep.sum()), dtype=np.float64)
        for (t, doc, tf), pos in zip(postings, positions):  # ascending term order
            live = keep[pos]
            acc[sel[pos[live]]] += bm25_contrib(
                self.idf(t), tf[live], self.dl(doc[live]), self.avgdl
            )
        return rank_topk(candidates[keep], acc, k, rank_round)

    def topk_must_not(
        self,
        query_text: str,
        neg_terms: list[str],
        k: int,
        rank_round: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Boolean must_not: top-k for ``query_text`` excluding every doc that
        contains ANY of ``neg_terms`` — the J3 anti-join (excludedStructures,
        core/DefaultTargetAssembler.java:151-161) with the exclusion set drawn
        from the index itself (postings union) instead of a caller list."""
        negs = sorted({t for nt in neg_terms for t in self._terms(nt)})
        neg_docs = [self.reader.postings(t)[0] for t in negs]
        neg_docs = [d for d in neg_docs if len(d)]
        excluded = np.unique(np.concatenate(neg_docs)) if neg_docs else None
        return self.topk(query_text, k, rank_round=rank_round, excluded=excluded)

    def boolean_topk(
        self, expr: str, k: int, rank_round: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Arbitrarily nested boolean retrieval (Lucene BooleanQuery; the
        reference's J2 conjunctive assembly + J3 exclusion generalized to a
        full AND/OR/NOT expression tree, core/DefaultTargetAssembler.java:
        108-161): docs satisfying ``expr``, ranked by BM25 summed over the
        POSITIVE leaf terms each doc contains.

        Cost is bounded by the positive terms' postings, never the corpus:
        candidates = union of positive postings (complete by the pure-
        negative guard, see boolean_query_leaves), each leaf becomes a
        sorted-membership bool mask over that one candidate array, and the
        tree evaluates vectorized in one numpy pass. Scoring then reuses the
        msm scatter: per positive term, contributions land only on docs the
        predicate kept. Deterministic: ascending-term accumulation order,
        (-rounded score, doc_id) ranking — identical contract to topk."""
        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
        tree = parse_boolean_query(expr, analyze=self._terms)
        pos_terms, all_terms = boolean_query_leaves(tree)
        postings = {t: self.reader.postings(t) for t in all_terms}
        pos_live = [t for t in pos_terms if len(postings[t][0])]
        if not pos_live:
            return empty
        candidates = np.unique(np.concatenate([postings[t][0] for t in pos_live]))

        def member(term: str) -> np.ndarray:
            docs = postings[term][0]
            if not len(docs):
                return np.zeros(len(candidates), dtype=bool)
            i = np.searchsorted(docs, candidates)
            i[i == len(docs)] = 0
            return docs[i] == candidates

        keep = _eval_bool_tree(tree, member)
        if not keep.any():
            return empty
        cand_k = candidates[keep]
        acc = np.zeros(len(cand_k), dtype=np.float64)
        for t in pos_live:  # ascending term order, like score_all
            docs, tfs = postings[t]
            sel = np.searchsorted(cand_k, docs)
            sel[sel == len(cand_k)] = 0
            hit = cand_k[sel] == docs
            # docs distinct per term: no dup indices
            acc[sel[hit]] += bm25_contrib(
                self.idf(t), tfs[hit], self.dl(docs[hit]), self.avgdl
            )
        return rank_topk(cand_k, acc, k, rank_round)

    def prefix_terms(self, prefix: str, max_terms: int = 64) -> list[str]:
        """Vocabulary scan: all indexed terms starting with ``prefix``,
        ascending, capped (Lucene's automaton term expansion; the vocab is
        the A5 known-keys scan surface). Raises if the cap is exceeded —
        silent truncation would change results unpredictably."""
        vocab = self.reader.vocab_df()
        import pyarrow.compute as _pc

        mask = _pc.starts_with(vocab["term"], pattern=prefix)
        terms = sorted(set(vocab.filter(mask)["term"].to_pylist()))
        if len(terms) > max_terms:
            raise ValueError(f"prefix '{prefix}' expands to {len(terms)} > {max_terms} terms")
        return terms

    def regex_terms(self, pattern: str, max_terms: int = 64) -> list[str]:
        """Vocabulary scan with an RE2 FULL match: all indexed terms the
        pattern matches end-to-end, ascending, capped — Lucene RegexpQuery's
        automaton-vs-term-dictionary intersection, expressed as one vectorized
        pass over the A5 vocab surface. pyarrow and DuckDB both embed RE2, so
        the engine and the SQL oracle see byte-identical regex semantics.
        Same hard cap as :meth:`prefix_terms` — silent truncation would
        change results unpredictably."""
        vocab = self.reader.vocab_df()
        import pyarrow.compute as _pc

        mask = _pc.match_substring_regex(
            vocab["term"], pattern=f"^(?:{pattern})$"
        )
        terms = sorted(set(vocab.filter(mask)["term"].to_pylist()))
        if len(terms) > max_terms:
            raise ValueError(
                f"regex '{pattern}' expands to {len(terms)} > {max_terms} terms"
            )
        return terms

    def wildcard_terms(self, pattern: str, max_terms: int = 64) -> list[str]:
        """Lucene WildcardQuery over the term dictionary: ``*`` matches any
        run of characters, ``?`` exactly one; everything else is literal.
        Compiled to an RE2 full match and evaluated through the same
        vectorized vocab scan as :meth:`regex_terms` (Lucene compiles the
        wildcard to an automaton and intersects it with the term dictionary
        the same way). Same hard expansion cap — silent truncation would
        change results unpredictably."""
        return self.regex_terms(wildcard_to_regex(pattern), max_terms=max_terms)

    def _deletion_index(self) -> dict[str, set[str]]:
        """FastSS deletion-neighborhood index over the vocab, built lazily
        ONCE per index handle (so once per query actor, like the rest of the
        T1 per-worker state): variant -> vocab terms producing it by 0 or 1
        character deletions. Lookup of ed<=1 candidates is then O(|q|) dict
        probes instead of an O(vocab) scan per query term.

        Scale path: the index is O(vocab x avg_len) entries; at 100-TB vocab
        sizes build it per postings shard (ShardedQueryService already
        partitions the vocab by term hash) instead of whole-vocab."""
        if getattr(self, "_del_idx", None) is None:
            self._del_idx = build_deletion_index(
                self.reader.vocab_df()["term"].to_pylist()
            )
        return self._del_idx

    def fuzzy_terms(self, term: str, max_terms: int = 64) -> list[str]:
        """All vocab terms within Levenshtein distance 1 of ``term`` (the
        tolerance-expansion analog over the term dictionary — Lucene's
        FuzzyQuery; reference Q1 expands each descriptor to its tolerance
        neighborhood the same way, ResiduePairOccurrence.java:166-227).

        Candidate generation via the deletion index (every ed<=1 pair shares
        a deletion variant), then an exact O(len) ed<=1 verification — the
        deletion-share test alone over-matches (e.g. 'ab' vs 'ba')."""
        out = sorted(fuzzy_candidates(self._deletion_index(), term))
        if len(out) > max_terms:
            raise ValueError(f"'{term}' expands to {len(out)} > {max_terms} terms")
        return out

    def suggest_terms(
        self, term: str, max_suggestions: int = 5
    ) -> list[tuple[str, int]]:
        """Did-you-mean (Lucene DirectSpellChecker with
        SUGGEST_WHEN_NOT_IN_INDEX): ed<=1 vocab neighbors of an UNINDEXED
        query token, ranked by descending document frequency then ascending
        term ("more popular" contract). Returns [] when the token IS indexed.
        Reuses the per-actor FastSS deletion index, so a suggestion costs
        O(|term|) dict probes plus one df lookup per candidate — never a
        vocab scan. Returns [(suggestion, df), ...]."""
        toks = self._terms(term)
        if len(toks) != 1:
            raise ValueError("suggest_terms takes exactly one token")
        t = toks[0]
        if self.reader.df(t) > 0:
            return []
        ranked = sorted(
            (-self.reader.df(c), c)
            for c in fuzzy_candidates(self._deletion_index(), t)
            if c != t
        )
        return [(c, -negdf) for negdf, c in ranked[:max_suggestions]]

    def suggest_complete(
        self, prefix: str, max_suggestions: int = 5
    ) -> list[tuple[str, int]]:
        """Completion suggester (the Lucene suggest/completion surface, with
        document frequency as the suggestion weight): indexed terms starting
        with ``prefix``, ranked by descending df then ascending term — the
        "most popular completion first" contract. One metadata-only vocab
        scan (the A5 known-keys surface; payload columns never touched) with
        a vectorized prefix mask, so cost is O(vocab) bytes of term strings,
        never a postings decode. Returns [(term, df), ...].

        Scale path: like the FastSS index, build per postings shard — the
        vocab is term-hash partitioned under ShardedQueryService, and per-
        shard top-``max_suggestions`` lists merge exactly (df is a per-term
        global in each shard's metadata)."""
        if not prefix:
            raise ValueError("prefix must be non-empty")
        vocab = self.reader.vocab_df()
        import pyarrow.compute as _pc

        sub = vocab.filter(_pc.starts_with(vocab["term"], pattern=prefix))
        dfs = sub["df"].to_numpy(zero_copy_only=False).astype(np.int64)
        terms = sub["term"].to_pylist()
        ranked = sorted(zip([-d for d in dfs], terms))
        return [(t, int(-negdf)) for negdf, t in ranked[:max_suggestions]]

    def docvalues_i64(self, doc: np.ndarray, field: str) -> np.ndarray:
        """Int64 doc-values for each docID (timestamps as epoch-us), via the
        row-group-pruned DocStore gather over columns stored at build time
        with ``build_index(docvalues=[...])`` — the Lucene doc-values analog:
        per-doc fields resolve by docID without re-reading the raw corpus."""
        if getattr(self, "_docstore", None) is None:
            from .docstore import DocStore

            self._docstore = DocStore(self.index_dir)
        return self._docstore.values_i64(doc, field)

    def _match_union(self, query_text: str) -> np.ndarray:
        """ANY-term match set (filter context, no scoring): the postings
        union, bounded by the query terms' df — never the corpus."""
        docs = []
        for t in sorted(set(self._terms(query_text))):
            d, _ = self.reader.postings(t)
            if len(d):
                docs.append(d)
        if not docs:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(docs))

    def topk_by_field(
        self,
        query_text: str,
        field: str,
        k: int,
        descending: bool = True,
        after: tuple[int, int] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Field-sorted retrieval (the ES ``sort: [{field: "desc"}]``
        surface): docs matching ANY query term — filter context, no BM25
        scoring — ordered by a per-doc doc-values column, ties broken by
        ascending docID. Candidates are the postings union (bounded by the
        terms' df, never the corpus); field values hydrate through the
        vectorized row-group-pruned doc-values gather. Timestamp fields are
        normalized to int64 epoch-microseconds; the returned values are the
        sort keys. ``after=(value, doc_id)`` is the search_after cursor: only
        docs strictly beyond that sort position are returned, so page N+1 is
        ``topk_by_field(..., after=(last_val, last_doc))`` — deep paging
        without ever materializing earlier pages."""
        cand = self._match_union(query_text)
        if not len(cand):
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        vals = self.docvalues_i64(cand, field)
        if after is not None:
            av, ad = int(after[0]), int(after[1])
            beyond = (vals < av) if descending else (vals > av)
            mask = beyond | ((vals == av) & (cand > ad))
            cand, vals = cand[mask], vals[mask]
        order = np.lexsort((cand, -vals if descending else vals))[:k]
        return cand[order], vals[order]

    def term_vectors(self, doc_ids: list[int]) -> "pa.Table":
        """Per-document term statistics (the ES ``_termvectors`` API): for
        each stored doc, its distinct terms with in-doc tf and corpus df —
        (doc_id, term, tf, df). tf re-derives from the doc store's stored
        text (point lookups, row-group pruned); df resolves against the
        inverted index's term dictionary, so corpus-level stats never rescan
        the corpus. Absent docIDs are omitted (null-doc semantics, same as
        the doc fetch surface)."""
        from collections import Counter

        if getattr(self, "_docstore", None) is None:
            from .docstore import DocStore

            self._docstore = DocStore(self.index_dir)
        texts = self._docstore.texts(np.asarray(doc_ids, dtype=np.int64))
        dids, terms, tfs, dfs = [], [], [], []
        for d in sorted(texts):
            for t, n in sorted(Counter(self._terms(texts[d])).items()):
                dids.append(d)
                terms.append(t)
                tfs.append(n)
                dfs.append(self.reader.df(t))
        return pa.table(
            {
                "doc_id": pa.array(dids, pa.int64()),
                "term": pa.array(terms, pa.string()),
                "tf": pa.array(tfs, pa.int64()),
                "df": pa.array(dfs, pa.int64()),
            }
        )

    def field_stats(
        self, query_text: str, field: str
    ) -> tuple[int, int | None, int | None]:
        """Metric aggregation over the ANY-term match set (the ES
        ``stats``/``min``/``max`` agg under a query): returns
        ``(n_matches, min, max)`` of an int64 doc-values field — exact,
        integer-only, computed from the df-bounded postings union plus one
        vectorized doc-values gather. Empty match set -> ``(0, None, None)``."""
        cand = self._match_union(query_text)
        if not len(cand):
            return 0, None, None
        vals = self.docvalues_i64(cand, field)
        return len(cand), int(vals.min()), int(vals.max())

    def fuzzy_topk(
        self,
        terms: list[str],
        k: int,
        rank_round: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fuzzy search: each query term becomes an OR-slot of its ed<=1
        vocab neighborhood, scored through ``expanded_topk`` (a variant
        match stands in for the original).
        Terms with an empty neighborhood drop out; all-empty -> no hits."""
        slots = [self.fuzzy_terms(t) for t in terms]
        return self.expanded_topk(slots, k, rank_round=rank_round)

    def qld_topk(
        self,
        terms: list[str],
        k: int,
        mu: float = 2000.0,
        rank_round: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Query-likelihood retrieval with Dirichlet smoothing (the classic
        LM scorer, Zhai & Lafferty 2001) over the SAME index the BM25 paths
        read — the second scoring function a search stack exposes:

            score(d) = sum_t ln( (tf_{t,d} + mu * cf_t / C) / (dl_d + mu) )

        over docs containing >= 1 query term, with cf_t the term's collection
        frequency (sum of tf over its postings) and C the total token count
        (sum of dl). Query terms are deduped + sorted; terms absent from the
        index are skipped (p(t|C)=0 has no finite log); all-absent -> no
        hits. Exhaustive over the candidate union, like the BM25 paths."""
        postings = self._live_postings(terms)
        if not postings:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        candidates, positions = self._union([d for _, d, _ in postings])
        dl = self.dl(candidates)
        acc = np.zeros(len(candidates), dtype=np.float64)
        for (_, _, tf), pos in zip(postings, positions):  # ascending term order
            prior = mu * float(tf.sum()) / self._dl_total
            tf_full = np.zeros(len(candidates), dtype=np.float64)
            tf_full[pos] = tf.astype(np.float64)
            acc += np.log((tf_full + prior) / (dl + mu))
        return rank_topk(candidates, acc, k, rank_round)

    def expanded_topk(
        self,
        slots: list[list[str]],
        k: int,
        rank_round: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Query-expansion top-k — the Q1/Q2 analog. Each SLOT is an OR-group
        of term variants (tolerance expansion produces up to 27 descriptor
        variants per pair, position-specific exchanges substitute allowed
        alternatives: ResiduePairOccurrence.java:166-227, defaults
        domain/query/Parameters.java:10-18). A doc's slot contribution is the
        MAX BM25 contribution over the slot's variants (a variant match
        stands in for the original, never stacks); total = sum over slots.

        Every doc holding a variant of any slot is scored exactly."""
        slots = [sorted(set(s)) for s in slots if s]
        all_terms = sorted({t for s in slots for t in s})
        live = [d for d in (self.reader.postings(t)[0] for t in all_terms) if len(d)]
        if not live:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        cand = np.unique(np.concatenate(live))
        dl = self.dl(cand)
        acc = np.zeros(len(cand), dtype=np.float64)
        for slot in slots:  # slot order: deterministic accumulation
            acc += self._slot_contrib(slot, cand, dl)
        nz = acc > 0
        return rank_topk(cand[nz], acc[nz], k, rank_round)

    def _slot_contrib(
        self, slot: list[str], cand: np.ndarray, dl: np.ndarray
    ) -> np.ndarray:
        """max-over-variants BM25 contribution of one slot at ``cand``."""
        acc = np.zeros(len(cand), dtype=np.float64)
        for t in slot:  # ascending variant order (deterministic max)
            doc, tf = self.reader.postings(t)
            if not len(doc):
                continue
            pos = np.minimum(np.searchsorted(doc, cand), len(doc) - 1)
            present = doc[pos] == cand
            if present.any():
                contrib = bm25_contrib(
                    self.idf(t), tf[pos[present]], dl[present], self.avgdl
                )
                np.maximum.at(acc, np.flatnonzero(present), contrib)
        return acc

    def more_like_this(
        self,
        doc_text: str,
        k: int,
        m: int = 6,
        rank_round: int | None = None,
        select_round: int = 6,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Doc-as-query — the reference's PRIMARY query mode: a whole
        structure is the query, its descriptors are extracted and searched
        (Strucmotif.searchForStructures; DefaultStrucmotifRuntime builds the
        query from the structure's own residue pairs). Here: select the
        document's top-``m`` terms by tf*idf (rounded to ``select_round``
        decimals for cross-engine determinism; ties break ascending term),
        then run the standard exact top-k over that term set."""
        from collections import Counter

        counts = Counter(self._terms(doc_text))
        scored = sorted(
            (-round(f * self.idf(t), select_round), t)
            for t, f in counts.items()
            if self.reader.df(t) > 0
        )
        terms = [t for _, t in scored[:m]]
        if not terms:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        return self.topk(" ".join(terms), k, rank_round=rank_round)

    def more_like_this_id(
        self,
        doc_id: int,
        k: int,
        m: int = 6,
        rank_round: int | None = None,
        select_round: int = 6,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Doc-as-query by docID: hydrate the query document's text from the
        DOC STORE (the reference loads the query structure from its own
        renumbered data file the same way — the archive is never re-read)
        and run :meth:`more_like_this`. Requires store_text=True at build;
        an id absent from the store returns no hits."""
        if getattr(self, "_docstore", None) is None:
            from .docstore import DocStore

            self._docstore = DocStore(self.index_dir)
        text = self._docstore.texts(np.array([doc_id], dtype=np.int64)).get(int(doc_id))
        if not text:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        return self.more_like_this(
            text, k, m=m, rank_round=rank_round, select_round=select_round
        )

    def topk_after(
        self,
        query_text: str,
        k: int,
        after: tuple[float, int] | None,
        rank_round: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Deep paging via a search-after cursor (Lucene ``searchAfter`` /
        the ES ``search_after`` surface): because ranking is a strict total
        order (-key, doc_id), the cursor is a PURE FILTER — page N+1 costs
        one vectorized compare over the match set, never a rescan or an
        offset-sized buffer, and pages are stable under concurrent ADDs of
        higher-scoring docs (a cursor can't re-serve what it already paged
        past).

        ``after`` is (key, doc_id) of the last row of the previous page,
        where key is the ROUNDED score when ``rank_round`` is set — i.e.
        exactly what the previous page returned. ``after=None`` degenerates
        to plain exhaustive top-k."""
        doc, score = self.score_all(query_text)
        if len(doc) == 0:
            return doc, score
        key = np.round(score, rank_round) if rank_round is not None else score
        if after is not None:
            ak, ad = float(after[0]), int(after[1])
            m = (key < ak) | ((key == ak) & (doc > ad))
            doc, score = doc[m], score[m]
        return rank_topk(doc, score, k, rank_round)

    def _conv_starts(self) -> np.ndarray:
        """Sorted docIDs at which a NEW conversation begins — computed once
        per index handle by a per-docmap-file streaming pass that keeps only
        change points: O(n_convs) ints resident plus one first/last conv
        string per FILE for the cross-file merge; conv strings for data rows
        never accumulate. Docmap files are contiguous non-overlapping docID
        ranges (the S2 writer contract, verified here); if a foreign docmap
        ever violates that, we fall back to one global sort."""
        cached = getattr(self, "_conv_starts_arr", None)
        if cached is not None:
            return cached
        import pyarrow.parquet as _pq

        files = docmap_files(os.path.join(self.index_dir, "docmap"))
        recs = []  # (min_doc, max_doc, first_conv, last_conv, starts_local)
        for p in files:
            names = _pq.ParquetFile(p).schema_arrow.names
            if "conv_id" not in names:
                raise ValueError(
                    "collapse requires a conversation-keyed docmap "
                    f"(no conv_id column in {p})"
                )
            t = _pq.read_table(p, columns=["doc_id", "conv_id"])
            ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            if not len(ids):
                continue
            order = np.argsort(ids, kind="stable")
            conv = t["conv_id"].combine_chunks().take(pa.array(order))
            ids = ids[order]
            import pyarrow.compute as _pc

            change = np.r_[
                True,
                _pc.not_equal(conv.slice(1), conv.slice(0, len(conv) - 1))
                .to_numpy(zero_copy_only=False)
                .astype(bool),
            ]
            recs.append(
                (
                    int(ids[0]),
                    int(ids[-1]),
                    conv[0].as_py(),
                    conv[-1].as_py(),
                    ids[change],
                )
            )
        recs.sort()
        for a, b in zip(recs, recs[1:]):
            if b[0] <= a[1]:  # overlapping file ranges: one global fallback
                t = _pq.read_table(
                    [p for p in files], columns=["doc_id", "conv_id"]
                ).sort_by("doc_id")
                ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
                conv = t["conv_id"].combine_chunks()
                import pyarrow.compute as _pc

                change = np.r_[
                    True,
                    _pc.not_equal(conv.slice(1), conv.slice(0, len(conv) - 1))
                    .to_numpy(zero_copy_only=False)
                    .astype(bool),
                ]
                self._conv_starts_arr = ids[change]
                return self._conv_starts_arr
        out, prev_last = [], None
        for _mn, _mx, first, last, starts in recs:
            if prev_last is not None and first == prev_last:
                starts = starts[1:]  # conv continues across the file seam
            out.append(starts)
            prev_last = last
        self._conv_starts_arr = (
            np.concatenate(out) if out else np.empty(0, dtype=np.int64)
        )
        return self._conv_starts_arr

    def collapse_topk(
        self,
        query_text: str,
        k: int,
        rank_round: int | None = None,
    ) -> tuple[list[str], np.ndarray, np.ndarray]:
        """Field collapsing on the conversation key (the Lucene/ES
        ``collapse`` serving surface): rank turn hits, keep each
        CONVERSATION's best turn (highest rounded score, lowest docID tie),
        return the top-``k`` conversations by their representative. The
        group key is a searchsorted into the O(n_convs) conv-start array —
        no per-candidate metadata reads — and only the <= k winning rows
        hydrate conv_id strings through the doc store.

        Returns (conv_ids, doc_ids, scores) in rank order."""
        doc, score = self.score_all(query_text)
        empty: tuple[list[str], np.ndarray, np.ndarray] = (
            [],
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )
        if not len(doc):
            return empty
        key = np.round(score, rank_round) if rank_round is not None else score
        grp = np.searchsorted(self._conv_starts(), doc, side="right") - 1
        order = np.lexsort((doc, -key))
        _u, first_idx = np.unique(grp[order], return_index=True)
        sel = order[first_idx]  # each conv's best turn
        d_s, s_s, k_s = doc[sel], score[sel], key[sel]
        o2 = np.lexsort((d_s, -k_s))[:k]
        win_docs, win_scores = d_s[o2], s_s[o2]
        if getattr(self, "_docstore", None) is None:
            from .docstore import DocStore

            self._docstore = DocStore(self.index_dir)
        meta = self._docstore.rows(win_docs, ["conv_id"])
        convs = [meta[int(x)][0] for x in win_docs.tolist()]
        return convs, win_docs, win_scores

    def conv_joint_topk(
        self,
        parent_query: str,
        child_query: str,
        parent_role: str,
        child_role: str,
        k: int,
        rank_round: int | None = None,
    ) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
        """Parent/child join on the conversation hierarchy (the Lucene/ES
        ``has_child`` / parent-join serving surface): top-``k``
        CONVERSATIONS containing BOTH a ``parent_role`` turn matching
        ``parent_query`` AND a ``child_role`` turn matching ``child_query``.
        Each side elects its conversation's best role-filtered turn by the
        collapse rule (rounded score desc, docID asc); the conversation
        scores the SUM of its two representatives, ranked (rounded sum
        desc, conv ordinal asc — conv ordinal order is conv_id
        lexicographic by the docID-minting invariant).

        The same shape as the reference's multi-pair candidate
        intersection (DefaultTargetAssembler.java:79-112: per-pair hit
        sets intersected on structureIndex, survivors scored), one level
        up: per-role hit sets intersected on the conversation key.

        Scale shape: two score_all passes + O(hits) vectorized collapse
        via the conv-start searchsorted; the join is an np.intersect1d on
        conv ordinals — no corpus re-read, only the <= k winners hydrate
        conv_id strings through the doc store.

        Returns (conv_ids, parent_docs, child_docs, scores) in rank
        order."""
        empty: tuple[list[str], np.ndarray, np.ndarray, np.ndarray] = (
            [],
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )

        def side(query_text: str, role: str):
            doc, score = self.score_all(query_text)
            rd = self.category_docs(role)
            if not len(doc) or not len(rd):
                return None
            pos = np.clip(np.searchsorted(rd, doc), 0, len(rd) - 1)
            m = rd[pos] == doc
            doc, score = doc[m], score[m]
            if not len(doc):
                return None
            key = np.round(score, rank_round) if rank_round is not None else score
            grp = np.searchsorted(self._conv_starts(), doc, side="right") - 1
            order = np.lexsort((doc, -key))
            u, first_idx = np.unique(grp[order], return_index=True)
            sel = order[first_idx]
            return u, doc[sel], score[sel]

        p = side(parent_query, parent_role)
        c = side(child_query, child_role)
        if p is None or c is None:
            return empty
        common, ip, ic = np.intersect1d(p[0], c[0], return_indices=True)
        if not len(common):
            return empty
        p_doc, p_sc = p[1][ip], p[2][ip]
        c_doc, c_sc = c[1][ic], c[2][ic]
        total = p_sc + c_sc
        key = np.round(total, rank_round) if rank_round is not None else total
        order = np.lexsort((common, -key))[:k]
        win_p, win_c, win_s = p_doc[order], c_doc[order], total[order]
        if getattr(self, "_docstore", None) is None:
            from .docstore import DocStore

            self._docstore = DocStore(self.index_dir)
        meta = self._docstore.rows(win_p, ["conv_id"])
        convs = [meta[int(x)][0] for x in win_p.tolist()]
        return convs, win_p, win_c, win_s

    def significant_terms(
        self,
        query_text: str,
        k_docs: int = 25,
        top_terms: int = 10,
        min_doc_count: int = 2,
        rank_round: int | None = None,
    ) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
        """Significant-terms aggregation (the Lucene/ES ``significant_terms``
        serving surface): terms over-represented in the FOREGROUND (the
        query's top-``k_docs`` BM25 hits) relative to the whole-corpus
        BACKGROUND, scored with the JLH heuristic
        ``(fg_rate - bg_rate) * (fg_rate / bg_rate)``.

        Scale shape: foreground docs are hydrated through the row-group-
        pruned doc store and re-tokenized (work is k_docs x doc length, never
        corpus-sized); background df comes from per-term segment METADATA
        lookups for candidate terms only (``SegmentReader.df`` — payload
        postings are never decoded). Candidates need ``min_doc_count``
        distinct foreground docs. Deterministic order: rounded score desc,
        term asc.

        Returns (terms, fg_df, bg_df, scores) in rank order."""
        empty: tuple[list[str], np.ndarray, np.ndarray, np.ndarray] = (
            [],
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )
        doc, score = self.score_all(query_text)
        if not len(doc):
            return empty
        d, _ = rank_topk(doc, score, k_docs, rank_round)
        n_fg = len(d)
        if getattr(self, "_docstore", None) is None:
            from .docstore import DocStore

            self._docstore = DocStore(self.index_dir)
        texts = self._docstore.texts(d)
        from collections import Counter

        fg_counts: Counter = Counter()
        for t in texts.values():
            fg_counts.update(set(self._terms(t)))
        cands = sorted(t for t, c in fg_counts.items() if c >= min_doc_count)
        if not cands:
            return empty
        fg = np.array([fg_counts[t] for t in cands], dtype=np.int64)
        bg = np.array([self.reader.df(t) for t in cands], dtype=np.int64)
        # same IEEE op sequence as the SQL oracle: two divides, a subtract,
        # a divide of the rates, one multiply — bit-identical cross-engine
        fg_rate = fg.astype(np.float64) / n_fg
        bg_rate = bg.astype(np.float64) / self.n_docs
        sc = (fg_rate - bg_rate) * (fg_rate / bg_rate)
        key = np.round(sc, rank_round) if rank_round is not None else sc
        order = np.lexsort((np.array(cands), -key))[:top_terms]
        return (
            [cands[i] for i in order],
            fg[order],
            bg[order],
            sc[order],
        )

    def topk_with_context(
        self,
        query_text: str,
        k: int,
        context: int = 1,
        rank_round: int | None = None,
        query_id: str = "",
    ):
        """Hit-in-context serving over a TRANSCRIPT index: BM25 top-k turn
        hits hydrated with their ±``context`` neighboring turns of the SAME
        conversation — the search-result page a transcript engine actually
        serves (hit turn plus surrounding dialogue), the reference's
        hit-hydration-from-the-renumbered-store shape
        (CORE/io/DefaultStructureDataProvider.java:106-112) widened to the
        conversation neighborhood.

        docIDs are dense ascending in (conv_id, turn_idx) (the S2 renumbered
        writer contract, tested in test_docid_stable_ordering), so neighbor
        candidates are plain docID arithmetic; each candidate is then
        VERIFIED against the docmap (same conv_id AND exact turn offset), so
        REMOVEd turns, conv boundaries and ADD-delta blocks can never leak a
        wrong row. Docmap metadata and text hydrate through the row-group-
        pruned doc store — work scales with hit count, never the corpus.

        Returns an arrow table (query_id, rank, conv_id, doc_id, turn_idx,
        off, text): integer/string columns only, no cross-engine float
        surface beyond the ranking itself."""
        import pyarrow as _pa

        d, _s = self.topk(query_text, k, rank_round=rank_round)
        schema = _pa.schema(
            [
                ("query_id", _pa.string()),
                ("rank", _pa.int64()),
                ("conv_id", _pa.string()),
                ("doc_id", _pa.int64()),
                ("turn_idx", _pa.int64()),
                ("off", _pa.int64()),
                ("text", _pa.string()),
            ]
        )
        if not len(d):
            return schema.empty_table()
        if getattr(self, "_docstore", None) is None:
            from .docstore import DocStore

            self._docstore = DocStore(self.index_dir)
        offs = np.arange(-context, context + 1, dtype=np.int64)
        cand = (d[:, None] + offs[None, :]).ravel()
        cand = np.unique(cand[cand >= 0])
        meta = self._docstore.rows(cand, ["conv_id", "turn_idx"])
        texts = self._docstore.texts(np.fromiter(meta, np.int64, len(meta)))
        rows = []
        for rank, h in enumerate(d.tolist(), 1):
            hconv, hturn = meta[h]
            for o in offs.tolist():
                nid = h + o
                m = meta.get(nid)
                if m is None or m[0] != hconv or m[1] - hturn != o:
                    continue
                rows.append((query_id, rank, hconv, nid, m[1], o, texts.get(nid, "")))
        return _pa.Table.from_pylist(
            [dict(zip(schema.names, r)) for r in rows], schema=schema
        )

    def rm3_topk(
        self,
        query_text: str,
        k: int,
        fb_docs: int = 10,
        fb_terms: int = 5,
        beta: float = 0.5,
        rank_round: int | None = None,
        select_round: int = 9,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Pseudo-relevance feedback, the RM3/Rocchio two-pass shape
        (Lavrenko & Croft relevance models; Lucene/Anserini ship the same
        retrieve -> mine-expansion-terms -> re-retrieve loop): top-``fb_docs``
        by plain BM25, expansion terms mined from those docs, then a weighted
        union query re-scores the corpus.

        Every cross-engine value is a single int*float product or one
        division — never an order-sensitive float sum — so the DuckDB oracle
        reproduces term selection and weights exactly:

        - feedback mass: ``sumtf_t`` = INTEGER sum of tf(t, d) over the
          feedback docs (texts hydrated from the doc store and re-tokenized
          with the index tokenizer — the more_like_this_id read path);
        - selection key: ``round(sumtf_t * idf(t), select_round)``, the
          query's own live terms excluded; top ``fb_terms`` by (-key, term);
        - expansion weight: ``w_t = beta * key_t / key_max`` (Rocchio beta);
          original query terms keep weight 1;
        - final score(d) = sum_t w_t * contrib(t, d), accumulated in
          ascending-term order like score_all.

        Requires store_text=True at build. ``rank_round`` applies to BOTH
        ranking passes (the feedback cut must be cross-engine stable too)."""
        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
        q_terms = set(self._terms(query_text))
        live = sorted(t for t in q_terms if self.reader.df(t) > 0)
        if not live:
            return empty
        fb_ids, _ = self.topk(query_text, fb_docs, rank_round=rank_round)
        if getattr(self, "_docstore", None) is None:
            from .docstore import DocStore

            self._docstore = DocStore(self.index_dir)
        texts = self._docstore.texts(np.asarray(fb_ids, dtype=np.int64))
        from collections import Counter

        counts: Counter = Counter()
        for d in fb_ids:
            txt = texts.get(int(d))
            if txt:
                counts.update(self._terms(txt))
        scored = []
        for t, n in counts.items():
            if t in q_terms:
                continue
            key = round(n * self.idf(t), select_round)
            if key > 0:  # idf == 0 <=> df == 0 never happens for stored docs
                scored.append((-key, t))
        scored.sort()
        weights = {t: 1.0 for t in live}
        chosen = scored[:fb_terms]
        if chosen:
            key_max = -chosen[0][0]
            for negk, t in chosen:
                weights[t] = beta * (-negk) / key_max
        return self._weighted_topk(weights, k, rank_round)

    def _weighted_topk(
        self,
        weights: dict[str, float],
        k: int,
        rank_round: int | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Union scoring with per-term boosts: score(d) = sum_t w_t *
        contrib(t, d) over the postings union (the boosted-BooleanQuery
        scorer under RM3; same unique()-merge + ascending-term accumulation
        as score_all's general path)."""
        postings = self._live_postings(weights)
        if not postings:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        candidates, positions = self._union([d for _, d, _ in postings])
        acc = np.zeros(len(candidates), dtype=np.float64)
        for (t, doc, tf), pos in zip(postings, positions):  # ascending term order
            acc[pos] += weights[t] * bm25_contrib(
                self.idf(t), tf, self.dl(doc), self.avgdl
            )
        return rank_topk(candidates, acc, k, rank_round)

    def boosted_topk(
        self,
        boosts: dict[str, float],
        k: int,
        rank_round: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-term query boosts (the Lucene ``term^boost`` BoostQuery
        surface over a disjunction): score(d) = sum_t boost_t * BM25
        contribution(t, d), accumulated in ascending-term order. The public
        face of the weighted-union scorer RM3 re-retrieval uses — each doc's
        score is a sum of single products, so the SQL oracle reproduces it
        with one multiply per (doc, term) row. Boosts must be positive
        (Lucene's BoostQuery contract); zero/negative would silently turn a
        scoring clause into a filter or an inverted signal."""
        if not boosts:
            raise ValueError("boosted_topk requires at least one term")
        if any(w <= 0 for w in boosts.values()):
            raise ValueError("boosts must be positive")
        return self._weighted_topk(dict(boosts), k, rank_round)

    def synonym_topk(
        self,
        groups: list[list[str]],
        k: int,
        rank_round: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Synonym-group scoring with BLENDED statistics — the Lucene
        ``SynonymQuery`` semantics: each group of terms scores as ONE
        pseudo-term whose per-doc tf is the SUM of the member tfs and whose
        df is the MAX of the member dfs (SynonymQuery.SynonymWeight collapses
        the members' TermStatistics to max docFreq before building a single
        BM25 scorer). A doc matching several synonyms is therefore NOT
        rewarded with multiple idf credits the way a plain OR
        (``expanded_topk``'s per-slot max is different again: it takes the
        BEST variant, this FUSES them). Reference analog: tolerance-expanded
        descriptors all stand in for the single original descriptor when
        scoring a path (ResiduePairOccurrence.java:166-227) — one logical
        term, many surface forms.

        Per group: member postings merge by docID (one unique() + a bincount
        scatter-add of tfs — exact, tfs are small ints); the group's single
        contribution uses the blended idf and the summed tf through the
        standard saturation. Group contributions then accumulate in
        ascending group-key order (the sorted member tuple), one float add
        per group per doc, like score_all. Cost is bounded by the union of
        member postings."""
        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
        gs = sorted({tuple(sorted(set(g))) for g in groups if g})
        merged = []  # (doc_ids, summed_tf, blended_df)
        for members in gs:
            live = self._live_postings(members)
            if not live:
                continue
            mdoc, pos = self._union([d for _, d, _ in live])
            # bincount-with-weights is an exact integer sum here: tfs are
            # int32 counts, far inside float64's 2^53 exact range
            mtf = np.bincount(
                np.concatenate(pos),
                weights=np.concatenate([tf for _, _, tf in live]).astype(np.float64),
                minlength=len(mdoc),
            )
            merged.append((mdoc, mtf, max(len(d) for _, d, _ in live)))
        if not merged:
            return empty
        candidates, positions = self._union([d for d, _, _ in merged])
        acc = np.zeros(len(candidates), dtype=np.float64)
        for (doc, tf, df_blend), pos in zip(merged, positions):  # ascending group order
            acc[pos] += bm25_contrib(
                bm25_idf(df_blend, self.n_docs), tf, self.dl(doc), self.avgdl
            )
        return rank_topk(candidates, acc, k, rank_round)

    def category_docs(self, value) -> np.ndarray:
        """Sorted docIDs whose docmap ``category`` equals ``value`` (a string
        or an iterable of strings) — the analog of the reference's resident
        experimental/computational content-type ID sets
        (DefaultStructureIndexProvider.java:36-89; queries filter hits by
        ``resultsContentType`` against them). Resolved ONCE per index handle
        per value set (columnar docmap read, cached) and fed to
        ``topk(allowed=...)``, so per-query cost is the existing J3 filter.
        Requires ``build_index(category_col=...)``."""
        vals = sorted({value} if isinstance(value, str) else set(value))
        key = tuple(vals)
        cache = getattr(self, "_cat_cache", None)
        if cache is None:
            cache = self._cat_cache = {}
        hit = cache.get(key)
        if hit is None:
            import pyarrow.compute as _pc

            try:
                dm = pq.read_table(
                    docmap_files(os.path.join(self.index_dir, "docmap")),
                    columns=["doc_id", "category"],
                )
            except Exception as e:
                raise ValueError(
                    "index has no category column — build with category_col="
                ) from e
            mask = _pc.is_in(dm["category"], value_set=pa.array(vals, pa.string()))
            hit = np.sort(
                dm.filter(mask)["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            )
            cache[key] = hit
        return hit

    def categories(self) -> list[str]:
        """Distinct docmap ``category`` values (the bounded content-class
        vocabulary — the reference's experimental/computational content types,
        DefaultStructureIndexProvider.java:36-89). Streams per-file unique()
        over the one column, so driver memory is O(#classes), and caches."""
        cached = getattr(self, "_categories", None)
        if cached is not None:
            return cached
        import pyarrow.compute as _pc

        vals: set[str] = set()
        files = docmap_files(os.path.join(self.index_dir, "docmap"))
        if not files:
            raise ValueError("index has no docmap")
        try:
            for f in files:
                vals.update(
                    x
                    for x in _pc.unique(
                        pq.read_table(f, columns=["category"])["category"]
                    ).to_pylist()
                    if x is not None
                )
        except Exception as e:
            raise ValueError(
                "index has no category column — build with category_col="
            ) from e
        self._categories = sorted(vals)
        return self._categories

    def top_hits_grouped(
        self, query_text: str, j: int, rank_round: int | None = None
    ) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
        """Per-content-class top hits (the ES ``terms`` aggregation with a
        ``top_hits`` sub-aggregation): for every docmap category, the top-``j``
        hits among that class's documents — one ``topk(allowed=...)`` per
        class over the cached J3 membership sets, so cost is #classes bounded
        filtered queries, never a corpus scan.

        Returns (categories, ranks, doc_ids, scores) row-aligned, classes in
        sorted order, ranks 1..j within each class."""
        cats_out: list[str] = []
        ranks_l: list[int] = []
        docs_l: list[np.ndarray] = []
        scores_l: list[np.ndarray] = []
        for cat in self.categories():
            d, s = self.topk(
                query_text, j, rank_round=rank_round,
                allowed=self.category_docs(cat),
            )
            cats_out.extend([cat] * len(d))
            ranks_l.extend(range(1, len(d) + 1))
            docs_l.append(d)
            scores_l.append(s)
        return (
            cats_out,
            np.array(ranks_l, dtype=np.int64),
            np.concatenate(docs_l) if docs_l else np.empty(0, np.int64),
            np.concatenate(scores_l) if scores_l else np.empty(0, np.float64),
        )

    def match_stats(self, query_text: str) -> tuple[int, int]:
        """Hit-count + conversation-cardinality for a query (the ES count API
        and ``cardinality`` aggregation; the reference's result-stats rollup,
        core/AbstractSearchContext.java:62-77): total matching turns (ANY-term
        union) and distinct conversations containing a match. No scoring —
        one postings union plus a searchsorted into the O(n_convs) conv-start
        array, cost bounded by postings size."""
        terms = sorted(set(self._terms(query_text)))
        arrs = [self.reader.postings(t)[0] for t in terms]
        arrs = [a for a in arrs if len(a)]
        if not arrs:
            return 0, 0
        doc = np.unique(np.concatenate(arrs))
        grp = np.searchsorted(self._conv_starts(), doc, side="right") - 1
        return int(len(doc)), int(len(np.unique(grp)))

    def topk_table(
        self,
        query_id: str,
        query_text: str,
        k: int,
        rank_round: int | None = None,
        conjunctive: bool = False,
        allowed: np.ndarray | None = None,
        excluded: np.ndarray | None = None,
        field_range: tuple[str, int, int] | None = None,
    ) -> pa.Table:
        if conjunctive:
            if allowed is not None or excluded is not None or field_range is not None:
                raise ValueError("allow/deny/range filters are OR-path only")
            doc, score = self.conjunctive_topk(query_text, k, rank_round=rank_round)
        else:
            doc, score = self.topk(
                query_text, k, rank_round=rank_round, allowed=allowed,
                excluded=excluded, field_range=field_range,
            )
        return hits_table(query_id, doc, score)


def hits_table(query_id: str, doc, score) -> pa.Table:
    """One query's hits as a (query_id, rank, doc_id, score) table, rank
    1-based in the given order. ``hits_table("", [], [])`` is the empty
    hits table."""
    n = len(doc)
    return pa.table(
        {
            "query_id": pa.array([query_id] * n, pa.string()),
            "rank": pa.array(np.arange(1, n + 1), pa.int32()),
            "doc_id": pa.array(doc, pa.int64()),
            "score": pa.array(score, pa.float64()),
        }
    )


def sorted_hits(tables: list[pa.Table]) -> pa.Table:
    """Hits tables concatenated and sorted by (query_id, rank); the empty
    hits table when none has a row."""
    live = [t for t in tables if t.num_rows]
    if not live:
        return hits_table("", [], [])
    return pa.concat_tables(live).sort_by([("query_id", "ascending"), ("rank", "ascending")])


class Bm25Queryer:
    """Actor-pool batch evaluator: ``queries_ds.map_batches(Bm25Queryer, ...)``.

    One index load per actor (T1/T3 analog: in-memory structure cache +
    mmap'd index held across queries), one row per (query, rank) out.
    Input batch columns: query_id:string, text:string, k:int.
    """

    def __init__(self, index_dir: str, rank_round: int | None = None,
                 conjunctive: bool = False):
        self.index = Bm25Index(index_dir)
        self.rank_round = rank_round
        self.conjunctive = conjunctive

    def __call__(self, batch: pa.Table) -> pa.Table:
        tables = [
            self.index.topk_table(
                qid, text, int(k), rank_round=self.rank_round, conjunctive=self.conjunctive
            )
            for qid, text, k in zip(
                batch["query_id"].to_pylist(),
                batch["text"].to_pylist(),
                batch["k"].to_pylist(),
            )
        ]
        return pa.concat_tables(tables) if tables else hits_table("", [], [])


def batch_topk(
    queries: list[dict],
    index_dir: str,
    *,
    concurrency: int = 4,
    rank_round: int | None = None,
    conjunctive: bool = False,
) -> pa.Table:
    """Evaluate a query set through the actor pool; returns the hits table.

    ``queries``: [{"query_id": ..., "text": ..., "k": ...}, ...]
    """
    import ray
    import ray.data

    qds = ray.data.from_items(queries)
    out = qds.map_batches(
        Bm25Queryer,
        fn_constructor_args=(index_dir, rank_round, conjunctive),
        batch_format="pyarrow",
        batch_size=max(1, len(queries) // max(1, concurrency)),
        # Autoscaling (1, n) pool: a FIXED pool sized == cluster CPUs deadlocks
        # the streaming executor against downstream task stages (actors pin
        # every CPU slot); (1, n) always leaves the executor room to schedule.
        concurrency=(1, min(concurrency, max(1, len(queries)))),
        num_cpus=1,
    )
    return sorted_hits([ray.get(r) for r in out.to_arrow_refs()])


def write_hits_csv(hits: pa.Table, path: str) -> None:
    """Stream hits to CSV with a header — the result-sink analog
    (AbstractSearchContext.java:62-77: CSV writer over the hit stream)."""
    import pyarrow.csv as pacsv

    pacsv.write_csv(hits, path)


def facet_counts(
    index_dir: str,
    query_items: list[dict],
    docs_ds,
    facet_col: str = "source",
    id_col: str = "doc_id",
):
    """Per-(query, facet) matched-document counts — search faceting.

    Matched set per query = union of its terms' postings (ANY semantics),
    resolved once from the index on the driver and broadcast via ``ray.put``;
    the doc -> facet attribution then STREAMS over the corpus scan with a
    per-batch partial count (sorted-membership searchsorted + bincount over
    the batch's dictionary-encoded facet), so the exchange carries one row per
    (query, facet, block) — never per matched document. The reference surfaces
    the same rollup as per-assembly hit counts in its result stats
    (core/AbstractSearchContext.java:62-77 result stream).
    """
    import ray
    import ray.data  # noqa: F401
    from ray.data.aggregate import Sum

    bm = Bm25Index(index_dir)
    matched: dict[str, np.ndarray] = {}
    for it in query_items:
        terms = sorted(set(bm._terms(it["text"])))
        arrs = [bm.reader.postings(t)[0] for t in terms]
        arrs = [a for a in arrs if len(a)]
        matched[it["query_id"]] = (
            np.unique(np.concatenate(arrs)) if arrs else np.empty(0, dtype=np.int64)
        )
    ref = ray.put(matched)

    def partial(batch: pa.Table) -> pa.Table:
        m = ray.get(ref)
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        fac = batch[facet_col].dictionary_encode()
        if isinstance(fac, pa.ChunkedArray):
            fac = fac.combine_chunks()
        codes = fac.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        labels = fac.dictionary
        qids, fcodes, ns = [], [], []
        for qid, marr in m.items():
            pos = np.searchsorted(marr, ids)
            pos_c = np.clip(pos, 0, max(len(marr) - 1, 0))
            hit = (pos < len(marr)) & (len(marr) > 0)
            if len(marr):
                hit &= marr[pos_c] == ids
            counts = np.bincount(codes[hit], minlength=len(labels))
            nz = np.flatnonzero(counts)
            qids.extend([qid] * len(nz))
            fcodes.extend(nz.tolist())
            ns.extend(counts[nz].tolist())
        return pa.table(
            {
                "query_id": pa.array(qids, pa.string()),
                facet_col: labels.take(pa.array(fcodes, pa.int64()))
                if qids
                else pa.array([], labels.type),
                "n": pa.array(ns, pa.int64()),
            }
        )

    return (
        docs_ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["query_id", facet_col])
        .aggregate(Sum("n", alias_name="n_docs"))
        .sort(["query_id", facet_col])
    )


def kwic_snippets(docs_ds, hits, w: int = 2, id_col: str = "doc_id", text_col: str = "text"):
    """Keyword-in-context snippet extraction: ±``w``-token windows around
    POSITIONAL-INDEX hits, sliced from the source text in ONE streamed pass
    over the documents table (the index supplies (doc, pos); the text is
    never scanned for matches).

    ``hits``: list of (query_id, doc_ids ndarray, positions ndarray) — the
    output shape of ``Bm25Index.term_positions``. The hit list is broadcast
    once via ``ray.put`` (bounded by occurrence count, not corpus size); the
    per-batch body tokenizes each document once and then walks only the hits
    that live in that batch (loop bounded by hit count — the snippet strings
    themselves are inherently per-hit output)."""
    import ray

    from .tokenize import _explode_tokens

    ref = ray.put(hits)
    schema = pa.schema(
        [
            ("query_id", pa.string()),
            ("doc_id", pa.int64()),
            ("pos", pa.int64()),
            ("snippet", pa.string()),
        ]
    )

    def snip(batch: pa.Table) -> pa.Table:
        h = ray.get(ref)
        ids = batch[id_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        flat, parent, dl = _explode_tokens(batch[text_col])
        starts = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum(dl, out=starts[1:])
        toks = flat.to_numpy(zero_copy_only=False)
        order = np.argsort(ids)
        ids_sorted = ids[order]
        out_q: list[str] = []
        out_d: list[int] = []
        out_p: list[int] = []
        out_s: list[str] = []
        for qid, d_arr, p_arr in h:
            if len(d_arr) == 0 or len(ids_sorted) == 0:
                continue
            pos_idx = np.searchsorted(ids_sorted, d_arr)
            valid = pos_idx < len(ids_sorted)
            valid &= ids_sorted[np.minimum(pos_idx, len(ids_sorted) - 1)] == d_arr
            for j in np.flatnonzero(valid):
                row = int(order[pos_idx[j]])
                p = int(p_arr[j])
                lo = starts[row] + max(p - w, 0)
                hi = starts[row] + min(p + w + 1, int(dl[row]))
                out_q.append(qid)
                out_d.append(int(d_arr[j]))
                out_p.append(p)
                out_s.append(" ".join(toks[lo:hi]))
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.string()),
                "doc_id": pa.array(out_d, pa.int64()),
                "pos": pa.array(out_p, pa.int64()),
                "snippet": pa.array(out_s, pa.string()),
            },
            schema=schema,
        )

    return docs_ds.map_batches(snip, batch_format="pyarrow")


def kwic_snippets_stored(index_dir: str, hits, w: int = 2, concurrency=(1, 4)):
    """Keyword-in-context snippets hydrated from the DOC STORE instead of a
    corpus re-scan: the positional index supplies (query_id, doc, pos); each
    snippet actor fetches ONLY the hit documents' stored text (row-group
    pruned, engine.docstore.DocStore) and slices the ±``w``-token windows.

    This is the reference's hit-hydration shape — renumbered structure data
    is read back per hit from the store, the source archive is never touched
    again (CORE/io/DefaultStructureDataProvider.java:106-112). Work scales
    with HIT count, not corpus size, so it beats :func:`kwic_snippets` (one
    full streamed corpus pass) whenever hits are sparse; output rows are
    identical (tested).

    ``hits``: list of (query_id, doc_ids ndarray, positions ndarray) — the
    ``Bm25Index.term_positions`` output shape."""
    import ray

    from .docstore import DocStore
    from .tokenize import _explode_tokens

    qids: list[str] = []
    dids: list[np.ndarray] = []
    poss: list[np.ndarray] = []
    for qid, d_arr, p_arr in hits:
        qids.extend([qid] * len(d_arr))
        dids.append(np.asarray(d_arr, dtype=np.int64))
        poss.append(np.asarray(p_arr, dtype=np.int64))
    hits_tbl = pa.table(
        {
            "query_id": pa.array(qids, pa.string()),
            "doc_id": pa.array(
                np.concatenate(dids) if dids else np.empty(0, dtype=np.int64)
            ),
            "pos": pa.array(
                np.concatenate(poss) if poss else np.empty(0, dtype=np.int64)
            ),
        }
    )
    schema = hits_tbl.schema.append(pa.field("snippet", pa.string()))

    class _Snip:
        def __init__(self):
            self.store = DocStore(index_dir)

        def __call__(self, batch: pa.Table) -> pa.Table:
            d = batch["doc_id"].to_numpy(zero_copy_only=False)
            if not len(d):
                return pa.Table.from_arrays(
                    [pa.array([], f.type) for f in schema], schema=schema
                )
            texts = self.store.texts(d)
            uniq = np.array(sorted(texts), dtype=np.int64)
            flat, _, dl = _explode_tokens(
                pa.array([texts[int(u)] for u in uniq], pa.string())
            )
            starts = np.zeros(len(uniq) + 1, dtype=np.int64)
            np.cumsum(dl, out=starts[1:])
            toks = flat.to_numpy(zero_copy_only=False)
            p = batch["pos"].to_numpy(zero_copy_only=False)
            row = np.searchsorted(uniq, d)
            ok = row < len(uniq)
            ok &= uniq[np.minimum(row, len(uniq) - 1)] == d
            snips: list[str | None] = []
            for j in range(len(d)):
                if not ok[j]:
                    snips.append(None)  # hit doc missing from store
                    continue
                r = int(row[j])
                lo = starts[r] + max(int(p[j]) - w, 0)
                hi = starts[r] + min(int(p[j]) + w + 1, int(dl[r]))
                snips.append(" ".join(toks[lo:hi]))
            return batch.append_column("snippet", pa.array(snips, pa.string()))

    return ray.data.from_arrow(hits_tbl).map_batches(
        _Snip, batch_format="pyarrow", concurrency=concurrency
    )
