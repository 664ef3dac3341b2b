"""Conversation-level BM25F retrieval over a turn-level transcripts index.

The reference's target assembly aggregates residue-PAIR hits into
per-STRUCTURE hits (core/DefaultTargetAssembler.java:79-161: pair postings
grouped by structureIndex, per-structure support assembled, then scored);
this module is the same shape one level up the transcripts hierarchy:
TURN-level postings aggregate into CONVERSATION-level scores with per-role
field weights (BM25F, Robertson & Zaragoza "The Probabilistic Relevance
Framework"):

    tf_w(conv, t) = sum over turns  w(role) * tf(turn, t)
    dl_w(conv)    = sum over turns  w(role) * dl(turn)
    score(conv)   = sum_t idf_conv(t) * tf_w*(k1+1) /
                    (tf_w + k1*(1 - b + b*dl_w/avgdl_w))

with conversation-level df/N in the idf. A role weight boosts or damps a
whole field: w(user)=2 ranks conversations by what the USER talked about,
w(tool)=0.25 keeps tool chatter from dominating.

Float parity contract: field weights must be dyadic rationals with small
numerators (defaults 2.0 / 1.0 / 0.25) so every ``w*tf`` and ``w*dl``
product and all their partial sums are EXACT in float64 — aggregation
order (Ray batch arrival, Arrow groupby, SQL SUM) cannot change a single
bit of tf_w or dl_w. The per-term score sum keeps the ascending-term order
+ rank-rounding discipline of every other topk path.

Scale shape: the conversation stats table is built DISTRIBUTED (per-batch
Arrow partial aggregate -> one conv-keyed groupby) and is ~1/20th the
docmap (one row per conversation, not per turn); the driver-resident
(first_doc, dl_w) arrays are the conv-level analog of the doc-length
lookup (docmap.DocLengths).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .docmap import docmap_files
from .query import Bm25Index, bm25_contrib, bm25_idf, rank_topk

_DYADIC_DENOM = 64  # weights must be multiples of 1/64 (exactness contract)


def _check_weights(weights: dict[str, float]) -> dict[str, float]:
    if not weights:
        raise ValueError("bm25f needs at least one role weight")
    for role, w in weights.items():
        if w <= 0:
            raise ValueError(f"role weight {role}={w} must be > 0")
        if (w * _DYADIC_DENOM) != int(w * _DYADIC_DENOM):
            raise ValueError(
                f"role weight {role}={w} is not a multiple of 1/{_DYADIC_DENOM}; "
                "dyadic weights keep weighted sums exact (see module docstring)"
            )
    return weights


def conv_field_stats(index_dir: str, weights: dict[str, float]) -> dict:
    """Distributed conversation-stats pass: docmap -> one row per conv with
    ``(first_doc, dl_w)``, sorted by first docID (== conv_id lexicographic,
    the docID-minting invariant). Returns dense numpy arrays + corpus
    aggregates; exactness per the module docstring."""
    import ray.data
    from ray.data.aggregate import Min, Sum

    _check_weights(weights)
    files = docmap_files(os.path.join(index_dir, "docmap"))
    ds = ray.data.read_parquet(files, columns=["doc_id", "conv_id", "dl", "category"])

    roles = sorted(weights)

    def partial(b: pa.Table) -> pa.Table:
        cat = b["category"]
        dl = b["dl"].to_numpy(zero_copy_only=False).astype(np.float64)
        w = np.zeros(b.num_rows, dtype=np.float64)
        for r in roles:
            m = pc.equal(cat, r).to_numpy(zero_copy_only=False)
            w[m] = weights[r]
        t = pa.table(
            {
                "conv_id": b["conv_id"],
                "dlw": pa.array(w * dl, pa.float64()),
                "doc_id": b["doc_id"],
            }
        )
        g = t.group_by(["conv_id"], use_threads=False).aggregate(
            [("dlw", "sum"), ("doc_id", "min")]
        )
        return pa.table(
            {"conv_id": g["conv_id"], "dlw": g["dlw_sum"], "first_doc": g["doc_id_min"]}
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("conv_id")
        .aggregate(Sum("dlw"), Min("first_doc"))
    )
    tbl = agg.to_pandas()  # O(n_convs): ~n_docs/20
    order = np.argsort(tbl["min(first_doc)"].to_numpy())
    first = tbl["min(first_doc)"].to_numpy()[order].astype(np.int64)
    dlw = tbl["sum(dlw)"].to_numpy()[order].astype(np.float64)
    convs = tbl["conv_id"].to_numpy()[order]
    n = len(first)
    return {
        "conv_id": convs,
        "first_doc": first,
        "dlw": dlw,
        "n_convs": n,
        # exact: dlw entries are dyadic multiples of 1/64 well below 2^53
        "avgdlw": (float(dlw.sum()) / n) if n else 0.0,
        "weights": dict(weights),
    }


def bm25f_conv_topk(
    bm,
    conv_stats: dict,
    query_text: str,
    k: int,
    rank_round: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k conversations for ``query_text`` under the BM25F weighting in
    ``conv_stats`` (from :func:`conv_field_stats`). ``bm`` is a turn-level
    :class:`engine.query.Bm25Index` built with ``category_col`` = the role
    column. Deterministic: ascending-term accumulation, (-rounded score,
    conv ordinal) ranking; conv ordinal order IS conv_id lexicographic
    order by the docID-minting invariant."""
    weights = conv_stats["weights"]
    roles = sorted(weights)
    first = conv_stats["first_doc"]
    dlw = conv_stats["dlw"]
    n_convs = conv_stats["n_convs"]
    avgdlw = conv_stats["avgdlw"]
    empty = (np.empty(0, dtype=object), np.empty(0, dtype=np.float64))
    terms = sorted(set(bm._terms(query_text)))
    role_docs = {r: bm.category_docs(r) for r in roles}

    per_term = []
    for t in terms:
        docs, tfs = bm.reader.postings(t)
        if not len(docs):
            continue
        w = np.zeros(len(docs), dtype=np.float64)
        for r in roles:
            rd = role_docs[r]
            if not len(rd):
                continue
            pos = np.clip(np.searchsorted(rd, docs), 0, len(rd) - 1)
            w[rd[pos] == docs] = weights[r]
        ci = np.searchsorted(first, docs, side="right") - 1
        # docs ascending + first ascending -> ci nondecreasing: reduceat groups
        starts = np.empty(len(ci), dtype=bool)
        starts[0] = True
        np.not_equal(ci[1:], ci[:-1], out=starts[1:])
        sidx = np.flatnonzero(starts)
        uc = ci[sidx]
        tfw = np.add.reduceat(w * tfs, sidx)  # exact dyadic sums
        # conv-level df: distinct convs containing the term
        idf = bm25_idf(len(uc), n_convs)
        per_term.append((uc, bm25_contrib(idf, tfw, dlw[uc], avgdlw)))

    if not per_term:
        return empty
    cand, positions = Bm25Index._union([uc for uc, _ in per_term])
    acc = np.zeros(len(cand), dtype=np.float64)
    for (_, contrib), pos in zip(per_term, positions):  # ascending-term order
        acc[pos] += contrib
    cand, acc = rank_topk(cand, acc, k, rank_round)
    return conv_stats["conv_id"][cand], acc
