"""Percolation — the ``Strucmotif.detectMotifs()`` analog: which STORED
queries match one given document?

The reference inverts its search direction by building a single-structure
inverted index over the one target and running every registered motif against
it (MotifContextBuilder.java:64-94, SingleStructureInvertedIndex.java:24-41,
DefaultStrucmotifRuntime.java:156-242). Ours: a single-doc term-frequency map
plays the mini-index; every stored query is scored against it with the REAL
corpus statistics (idf / avgdl from an existing index), so a percolated score
equals exactly what ``Bm25Index.topk`` would assign that document for that
query — asserted in tests.

Batch percolation over a document stream is a stateful actor-pool stage: the
corpus stats + per-term df are loaded once per actor (T3/T5 analog).
"""

from __future__ import annotations

import pyarrow as pa

from .query import (
    _eval_bool_tree,
    bm25_contrib,
    bm25_idf,
    boolean_query_leaves,
    parse_boolean_query,
)
from .tokenize import analyze_text


class Percolator:
    """Holds corpus stats; matches stored queries against single documents.

    ``queries``: [{"query_id": ..., "text": ...}, ...] — the motif registry
    analog (DefaultMotifDefinitionRegistry.java:37-177)."""

    def __init__(self, index_dir: str, queries: list[dict], mode: str = "any"):
        from .segments import SegmentReader

        if mode not in ("any", "all", "phrase", "boolean"):
            raise ValueError(
                "mode must be 'any' (OR), 'all' (AND), 'phrase' or 'boolean'"
            )
        self.mode = mode
        reader = SegmentReader(index_dir)
        self.n_docs = int(reader.stats["n_docs"])
        self.avgdl = float(reader.stats["avgdl"])
        # replay the INDEX's persisted analyzer chain on stored queries and
        # streamed docs alike — df/avgdl describe the ANALYZED stream, so
        # tokenizing raw here would silently never match on a stemmed or
        # stopword index (same contract as Bm25Index._terms)
        self._analyzer = str(reader.stats.get("analyzer", "standard"))
        self._stopwords = frozenset(reader.stats.get("stopwords") or ())
        # resolve df once per stored query term (the informativeness table
        # analog, ResiduePairOccurrence.java:229-463)
        self.queries = []
        for q in queries:
            if mode == "boolean":
                # stored expression queries ({"query_id", "expr"}): same
                # parse/eval machinery and match semantics as boolean_topk
                tree = parse_boolean_query(
                    q["expr"],
                    analyze=lambda s: analyze_text(
                        s, self._analyzer, stopwords=self._stopwords
                    ),
                )
                pos_terms, all_terms = boolean_query_leaves(tree)
                self.queries.append(
                    {
                        "query_id": q["query_id"],
                        "tree": tree,
                        "terms": pos_terms,  # scoring leaves (ascending)
                        "df": {t: reader.df(t) for t in all_terms},
                    }
                )
                continue
            seq = analyze_text(q["text"], self._analyzer, stopwords=self._stopwords)
            terms = sorted(set(seq))
            self.queries.append(
                {
                    "query_id": q["query_id"],
                    "terms": terms,
                    "seq": seq,  # ordered, duplicates kept (phrase mode)
                    "df": {t: reader.df(t) for t in terms},
                }
            )

    def _score(self, q: dict, tf: dict[str, int], dl: float) -> float:
        """BM25 of one stored query against one document (term -> tf, length
        ``dl``) under the corpus stats: ascending-term sum over the query
        terms the doc holds and the index knows, as ``score_all`` adds them."""
        score = 0.0
        for t in q["terms"]:
            if t in tf and q["df"][t]:
                score += bm25_contrib(
                    bm25_idf(q["df"][t], self.n_docs), tf[t], dl, self.avgdl
                )
        return score

    def percolate(self, text: str) -> list[tuple[str, float]]:
        """All stored queries matching this document, scored, best first.

        'any': >= 1 query term present (bag-of-words BM25 semantics);
        'all': every query term present (the conjunctive candidate rule of
        DefaultTargetAssembler.java:79-112);
        'phrase': the query's exact token sequence occurs contiguously —
        score is the occurrence count (overlapping occurrences included),
        matching Bm25Index.phrase_match on an index holding only this doc."""
        toks = analyze_text(text, self._analyzer, stopwords=self._stopwords)
        if self.mode == "phrase":
            out = []
            for q in self.queries:
                seq = q["seq"]
                if not seq or len(seq) > len(toks):
                    continue
                n = sum(
                    1
                    for i in range(len(toks) - len(seq) + 1)
                    if toks[i : i + len(seq)] == seq
                )
                if n:
                    out.append((q["query_id"], float(n)))
            out.sort(key=lambda x: (-x[1], x[0]))
            return out
        tf: dict[str, int] = {}
        for t in toks:
            tf[t] = tf.get(t, 0) + 1
        dl = float(sum(tf.values()))
        if self.mode == "boolean":
            out = []
            for q in self.queries:
                # a leaf is true iff the term is in THIS doc and indexed —
                # boolean_topk's membership masks come from postings, so an
                # index-absent term is always false there too
                df = q["df"]
                if not _eval_bool_tree(
                    q["tree"], lambda t: df[t] > 0 and t in tf
                ):
                    continue
                # scored over the positive leaves
                out.append((q["query_id"], self._score(q, tf, dl)))
            out.sort(key=lambda x: (-x[1], x[0]))
            return out
        out = []
        for q in self.queries:
            # index-absent terms (df == 0) never contribute: Bm25Index.topk
            # cannot return a doc for them (idf == 0, no posting), so they
            # must not count as "present" here either — otherwise 'any' mode
            # would emit matches topk would never produce (score delta 0.0
            # but a contract divergence).
            live = [t for t in q["terms"] if q["df"][t] > 0]
            present = [t for t in live if t in tf]
            if not present:
                continue
            if self.mode == "all" and len(present) < len(q["terms"]):
                # conjunctive: every term must be present AND indexed — topk
                # conjunctive returns nothing for a query with an absent term
                continue
            out.append((q["query_id"], self._score(q, tf, dl)))
        out.sort(key=lambda x: (-x[1], x[0]))
        return out


class PercolateBatcher:
    """Actor-pool stage: document batches -> (doc_id, query_id, score) rows.

    Use as ``docs.map_batches(PercolateBatcher, fn_constructor_args=(index_dir,
    queries), batch_format='pyarrow', concurrency=(1, N))``."""

    def __init__(self, index_dir: str, queries: list[dict], mode: str = "any",
                 id_col: str = "doc_id", text_col: str = "text"):
        self.p = Percolator(index_dir, queries, mode=mode)
        self.id_col = id_col
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, qids, scores = [], [], []
        id_np = batch[self.id_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        for i, text in enumerate(batch[self.text_col].to_pylist()):
            for qid, sc in self.p.percolate(text or ""):
                ids.append(int(id_np[i]))
                qids.append(qid)
                scores.append(sc)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "query_id": pa.array(qids, pa.string()),
                "score": pa.array(scores, pa.float64()),
            }
        )


def percolate_dataset(ds, index_dir: str, queries: list[dict], mode: str = "any",
                      concurrency: int = 4, id_col: str = "doc_id", text_col: str = "text"):
    """Batch percolation of a document Dataset (streaming, actor pool)."""
    return ds.map_batches(
        PercolateBatcher,
        fn_constructor_args=(index_dir, queries, mode, id_col, text_col),
        batch_format="pyarrow",
        concurrency=(1, concurrency),
        num_cpus=1,
    )
