"""Pure-Python single-process reference implementation (the golden oracle).

The analog of the reference's golden-corpus integration fixtures: where
StructureIntegrationTest.java:151-204 asserts exactly 788 hits against a
pre-built bundle, our tests assert rank-identical top-k docIDs and BM25 scores
of the distributed engine against THIS implementation. Deliberately naive
(dicts + per-token loops), independent of the Ray/Arrow/numpy code paths.
It is the only statement of the BM25 formula in ``engine/`` besides the
kernel in ``engine.query`` (``bm25_idf``, ``bm25_contrib``, ``rank_topk``),
which every engine scoring surface calls; it deliberately does not call it.

BM25 specification (the contract for engine, oracle, and DuckDB oracle SQL):

- tokenizer: lowercase, split on non-[a-z0-9] runs, drop empties
- N = number of docs in corpus, avgdl = mean token count over ALL docs
- idf(t)  = ln(1 + (N - df + 0.5) / (df + 0.5))          [always > 0]
- tfpart  = tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl / avgdl))
- score(d, q) = sum over DISTINCT query terms of idf * tfpart, accumulated
  in float64 in ascending (unicode) term order  -> deterministic bit pattern
- ranking: descending score, ties broken by ascending doc_id
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .schema import BM25_B, BM25_K1
from .tokenize import tokenize_text


@dataclass
class OracleIndex:
    n_docs: int = 0
    avgdl: float = 0.0
    dl: dict[int, int] = field(default_factory=dict)
    postings: dict[str, dict[int, int]] = field(default_factory=dict)  # term -> {doc: tf}

    @property
    def df(self) -> dict[str, int]:
        return {t: len(p) for t, p in self.postings.items()}


def build_oracle_index(doc_ids, texts) -> OracleIndex:
    idx = OracleIndex()
    total_dl = 0
    for doc_id, text in zip(doc_ids, texts):
        doc_id = int(doc_id)
        toks = tokenize_text(text or "")
        idx.dl[doc_id] = len(toks)
        total_dl += len(toks)
        for t in toks:
            idx.postings.setdefault(t, {})
            idx.postings[t][doc_id] = idx.postings[t].get(doc_id, 0) + 1
        idx.n_docs += 1
    idx.avgdl = total_dl / idx.n_docs if idx.n_docs else 0.0
    return idx


def bm25_scores(idx: OracleIndex, query_text: str) -> dict[int, float]:
    """All matching docs -> exact BM25 score (float64, term-ascending sum)."""
    terms = sorted(set(tokenize_text(query_text)))
    scores: dict[int, float] = {}
    for t in terms:  # ascending term order fixes the float summation order
        plist = idx.postings.get(t)
        if not plist:
            continue
        df = len(plist)
        idf = math.log(1.0 + (idx.n_docs - df + 0.5) / (df + 0.5))
        for doc_id, tf in plist.items():
            dl = idx.dl[doc_id]
            denom = tf + BM25_K1 * (1.0 - BM25_B + BM25_B * dl / idx.avgdl)
            scores[doc_id] = scores.get(doc_id, 0.0) + idf * tf * (BM25_K1 + 1.0) / denom
    return scores


def topk(idx: OracleIndex, query_text: str, k: int) -> list[tuple[int, float]]:
    """Top-k (doc_id, score), descending score, ascending doc_id on ties."""
    scores = bm25_scores(idx, query_text)
    ranked = sorted(scores.items(), key=lambda it: (-it[1], it[0]))
    return ranked[:k]
