"""Seeded queries, and the checks a run's outputs must pass.

BM25 top-k is recomputed apart from the engine's index with
``engine/oracle.py`` (plain dicts and per-token loops over the raw text), on
the live conversations of the state each output was served in: the base
corpus, then each churn round's adds and removes applied here, outside the
engine. Doc ids are predicted, not looked up (see ``perfbench.workloads``).

Every output also passes property checks:

- scores descend, and equal scores list the lower doc id first;
- at most k hits;
- no hit belongs to a removed conversation (or to one never added);
- a query made only of planted markers finds exactly as many turns as
  ``MARKER_STRIDE`` planted among the live conversations (capped at k).

Outputs are checked as they arrive. Only the first output for each
(state, query) is kept; a repeat must equal it. Memory held for checking is
therefore bounded by the pool size and the number of states, not by how many
queries a run serves.
"""

from __future__ import annotations

import numpy as np

from engine.queries import QUERY_SET
from engine.synth import MARKER_STRIDE, N_MARKERS, VOCAB_SIZE, ZIPF_S, marker_token

K_CHOICES = (10, 100)
#: the query pool and its popularity ranking are drawn with this fixed seed;
#: a run's ``--seed`` draws the corpus and the order of the stream
POOL_SEED = 0
#: relative shares of 1-, 2- and 3-term queries: the 25.8%, 26.0% and 15.0%
#: of queries with that many terms in the AltaVista log analysed by
#: Silverstein et al., "Analysis of a Very Large Web Search Engine Query
#: Log", SIGIR Forum 33(1), 1999 (longer and empty queries are not drawn)
TERM_COUNT_SHARES = (25.8, 26.0, 15.0)
#: exponent of the finite Zipf law of query popularity in the stream. An
#: assumption: 0.8 lies in the 0.64-0.83 range Breslau et al. ("Web Caching
#: and Zipf-like Distributions", INFOCOM 1999) measured for web request
#: popularity; no query log of transcript search is at hand
STREAM_ZIPF = 0.8
#: assumptions with no measured source: the share of drawn queries that
#: also carry a planted marker (a rare term), and equal shares of k = 10
#: (one result page) and k = 100 (a re-ranking candidate set)
MARKER_SHARE = 0.1


def query_pool(n: int) -> list[tuple[str, int]]:
    """``n`` (text, k) queries: the fixed ``QUERY_SET`` first, then each
    planted marker alone, then 1-3 terms drawn from the generator's Zipf
    vocabulary, in ``TERM_COUNT_SHARES`` (one in ten with a marker added)."""
    rng = np.random.default_rng([POOL_SEED, 1])
    shares = np.asarray(TERM_COUNT_SHARES) / sum(TERM_COUNT_SHARES)
    pool = [(q["text"], int(q["k"])) for q in QUERY_SET]
    pool += [(marker_token(m), int(rng.choice(K_CHOICES))) for m in range(N_MARKERS)]
    while len(pool) < n:
        ranks = (rng.zipf(ZIPF_S, int(rng.choice((1, 2, 3), p=shares))) - 1) % VOCAB_SIZE
        terms = [f"w{r:05d}" for r in ranks]
        if rng.random() < MARKER_SHARE:
            terms.append(marker_token(int(rng.integers(N_MARKERS))))
        pool.append((" ".join(terms), int(rng.choice(K_CHOICES))))
    return pool[:n]


def query_stream(seed: int, pool_size: int, n: int, block: int) -> np.ndarray:
    """Pool indices in request order, by a Zipf law over a fixed ranking of
    the pool. Each ``block`` of requests is a systematic sample of that law:
    it holds every query as often as the law expects, to within one, and
    ``seed`` draws which rare queries fill the remainders and the order.

    Drawn one by one, a pass of 1000 requests held anywhere from none to a
    few of the slowest queries, and its 99th percentile moved between 5 and
    12 ms with them."""
    ranking = np.random.default_rng([POOL_SEED, 2]).permutation(pool_size)
    w = 1.0 / np.arange(1, pool_size + 1) ** STREAM_ZIPF
    cdf = np.cumsum(w / w.sum())
    rng = np.random.default_rng([seed, 2])
    out = []
    for _ in range(-(-n // block)):
        ranks = np.searchsorted(cdf, (np.arange(block) + rng.random()) / block, side="right")
        out.append(ranking[rng.permutation(np.minimum(ranks, pool_size - 1))])
    return np.concatenate(out)[:n]


def planted(lo: int, hi: int, marker: int) -> int:
    """Conversations in [lo, hi) whose first turn carries ``marker``."""
    c = np.arange(lo, hi)
    return int(((c % MARKER_STRIDE == 3) & ((c // MARKER_STRIDE) % N_MARKERS == marker)).sum())


def _properties(doc, score, k: int, rows: tuple[int, int], marker_hits: int | None) -> str | None:
    doc = np.asarray(doc)
    score = np.asarray(score)
    if len(doc) != len(score):
        return "doc ids and scores differ in length"
    if len(doc) > k:
        return f"{len(doc)} hits > k={k}"
    if len(doc) > 1:
        ds, dd = score[1:] - score[:-1], doc[1:] - doc[:-1]
        if ((ds > 0) | ((ds == 0) & (dd <= 0))).any():
            return "hits not in (descending score, ascending doc id) order"
    if len(doc) and (doc.min() < rows[0] or doc.max() >= rows[1]):
        return "hit outside the live conversations"
    if marker_hits is not None and len(doc) != min(k, marker_hits):
        return f"{len(doc)} marker hits, {min(k, marker_hits)} planted"
    return None


class Outputs:
    """Checks outputs as they arrive and keeps the first output for each
    (state, query). ``states`` maps a state to its live conversations
    [lo, hi); ``row_start`` maps a conversation to its first row (doc id)."""

    def __init__(self, pool, states: dict, row_start):
        from engine.tokenize import tokenize_text

        self.pool, self.states, self.row_start = pool, states, row_start
        self.first: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        self.same: dict[tuple[int, int], int] = {}  # outputs equal to the first
        markers = {marker_token(m): m for m in range(N_MARKERS)}
        self.marker_terms = []  # per pool query: its markers, or None
        for text, _k in pool:
            terms = set(tokenize_text(text))
            self.marker_terms.append(
                [markers[t] for t in terms] if terms and terms <= markers.keys() else None)

    def add(self, state: int, qi: int, doc, score) -> str | None:
        """Check one output; returns why it fails, or None."""
        key = (state, qi)
        kept = self.first.get(key)
        if kept is not None:
            if np.array_equal(kept[0], doc) and np.array_equal(kept[1], score):
                self.same[key] += 1
                return None
            return self._name(key) + ": differs from the first answer in the same state"
        self.first[key] = (np.array(doc), np.array(score))
        self.same[key] = 1
        lo, hi = self.states[state]
        ms = self.marker_terms[qi]
        mh = None if ms is None else sum(planted(lo, hi, m) for m in ms)
        why = _properties(doc, score, self.pool[qi][1],
                          (int(self.row_start[lo]), int(self.row_start[hi])), mh)
        return None if why is None else f"{self._name(key)}: {why}"

    def _name(self, key) -> str:
        text, k = self.pool[key[1]]
        return f"{text!r} k={k} state {key[0]}"

    def verify_oracle(self, seed: int, n_sample: int, texts: list[str]) -> list[str]:
        """Compare a seeded sample of the kept outputs with ``engine/oracle.py``;
        one message per operation whose output differs."""
        from engine import oracle

        rng = np.random.default_rng([seed, 3])
        keys = sorted(self.first)
        take = rng.choice(len(keys), size=min(n_sample, len(keys)), replace=False)
        by_state: dict[int, list[tuple[int, int]]] = {}
        for j in sorted(take):
            by_state.setdefault(keys[j][0], []).append(keys[j])
        bad: list[str] = []
        for state, sample in by_state.items():
            lo, hi = self.states[state]
            a, b = int(self.row_start[lo]), int(self.row_start[hi])
            idx = oracle.build_oracle_index(range(a, b), texts[a:b])
            for key in sample:
                text, k = self.pool[key[1]]
                want = oracle.topk(idx, text, k)
                doc, score = self.first[key]
                if list(map(int, doc)) != [d for d, _s in want] or \
                        list(map(float, score)) != [s for _d, s in want]:
                    bad += [self._name(key) + ": differs from the oracle"] * self.same[key]
        return bad
