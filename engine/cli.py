"""Command-line entry points — the ``StrucmotifUpdate.main`` analog
(UPD/StrucmotifUpdate.java:73-167: one binary, operation verbs, id lists).

    python -m engine.cli build  <corpus_dir> <index_dir> [--buckets N] [--salts N] [--no-resume]
    python -m engine.cli add    <index_dir> <parquet>
    python -m engine.cli remove <index_dir> --conv <conv_id> [...]
    python -m engine.cli compact <index_dir>
    python -m engine.cli query  <index_dir> "text" [-k N] [--and] [--csv out.csv]
                                [--sharded N]
    python -m engine.cli phrase <index_dir> "exact phrase" (positional index)
    python -m engine.cli expand <index_dir> --slot "a|b" --slot "c" [-k N]
    python -m engine.cli stats  <index_dir>
    python -m engine.cli alias  <registry> set|remove|list|resolve [NAME] [TARGET]
    python -m engine.cli rollover <group_dir> init|add|query|status [ARG]
    python -m engine.cli corpus <parquet> --mode gopher|trim|drift|buckets|hitters|trainmix
    python -m engine.cli dedup  <parquet> --mode ...|incremental|near-incremental

Owns its Ray session (guarded init) per the driver contract: library code
never calls ray.init; CLIs and benches do.
"""

from __future__ import annotations

import argparse
import json
import sys


def _ray():
    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return ray


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="engine.cli")
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build", help="build (or resume) an index over a parquet corpus")
    b.add_argument("corpus")
    b.add_argument("index_dir")
    b.add_argument(
        "--buckets", default="auto",
        type=lambda v: v if v == "auto" else int(v),
        help="term buckets per salt; 'auto' (default) sizes parts to the "
        "corpus so per-part encode working sets stay cache-resident",
    )
    b.add_argument("--salts", type=int, default=8)
    b.add_argument("--id-col", default=None, help="doc id column (omit for transcripts mode)")
    b.add_argument("--no-resume", action="store_true")
    b.add_argument(
        "--positions", action="store_true",
        help="store per-occurrence token positions (enables phrase queries)",
    )
    b.add_argument(
        "--format", choices=["parquet", "csv", "json"], default="parquet",
        help="corpus file format (column pruning only applies to parquet)",
    )
    b.add_argument(
        "--category-col", default=None,
        help="store this column as the per-doc class label (query-time filters)",
    )
    b.add_argument(
        "--postings-codec", choices=["varint", "pfor", "raw64"], default="varint",
        help="posting-stream wire format (InvertedIndexBackend analog)",
    )
    b.add_argument(
        "--docvalues", default=None,
        help="comma-separated source columns stored per-doc in the docmap "
        "(field sorts, range filters, field metric aggs at query time)",
    )
    b.add_argument(
        "--analyzer", choices=["standard", "s_stem"], default="standard",
        help="token-filter chain (persisted; replayed at query/ADD time)",
    )
    b.add_argument(
        "--stopwords", default=None,
        help="comma-separated surface-form stop list (applied before the stemmer)",
    )

    a = sub.add_parser("add", help="incrementally add documents")
    a.add_argument("index_dir")
    a.add_argument("parquet")
    a.add_argument("--id-col", default=None)

    r = sub.add_parser("remove", help="remove documents")
    r.add_argument("index_dir")
    r.add_argument("--conv", action="append", default=[], help="conv_id to remove (repeatable)")
    r.add_argument("--doc", action="append", type=int, default=[], help="doc_id to remove (repeatable)")

    c = sub.add_parser("compact", help="re-encode segments under live stats")
    c.add_argument("index_dir")

    ri = sub.add_parser(
        "reindex",
        help="rebuild an index from its own doc store under a new analyzer "
        "chain / codec (_reindex analog; None-ish flags inherit the source)",
    )
    ri.add_argument("src_dir")
    ri.add_argument("dst_dir")
    ri.add_argument("--analyzer", choices=["standard", "s_stem"], default=None)
    ri.add_argument("--stopwords", default=None,
                    help="comma-separated; pass '' to CLEAR the source's stop list")
    ri.add_argument("--postings-codec", choices=["varint", "pfor", "raw64"], default=None)
    ri.add_argument("--positions", action="store_true", default=None)

    mg = sub.add_parser("merge", help="merge two indexes (segment concat; same routing, disjoint docIDs)")
    mg.add_argument("index_a")
    mg.add_argument("index_b")
    mg.add_argument("out_dir")

    q = sub.add_parser("query", help="top-k BM25 query")
    q.add_argument("index_dir", help="index path, or an alias name with --registry")
    q.add_argument("text")
    q.add_argument(
        "--registry", default=None,
        help="alias registry dir: resolve INDEX_DIR as an alias name first",
    )
    q.add_argument("-k", type=int, default=10)
    q.add_argument("--and", dest="conjunctive", action="store_true", help="all terms must match")
    q.add_argument("--csv", default=None, help="write hits to CSV (result-sink analog)")
    q.add_argument(
        "--sharded", type=int, default=0, metavar="N",
        help="serve via N scatter/gather postings-shard actors instead of one reader",
    )
    q.add_argument(
        "--range", dest="field_range", default=None, metavar="FIELD:LO:HI",
        help="non-scoring doc-values range filter (inclusive int64 bounds; "
        "timestamps as epoch-us) — requires build --docvalues FIELD",
    )

    so = sub.add_parser(
        "sort", help="field-sorted retrieval: ANY-term matches ordered by a doc-values column"
    )
    so.add_argument("index_dir")
    so.add_argument("text")
    so.add_argument("field")
    so.add_argument("-k", type=int, default=10)
    so.add_argument("--asc", action="store_true", help="ascending (default: descending)")
    so.add_argument(
        "--after", default=None, metavar="VAL:DOC",
        help="search_after cursor: last (sort value, doc_id) of the previous page",
    )

    ph = sub.add_parser("phrase", help="exact-phrase matching (positional index)")
    ph.add_argument("index_dir")
    ph.add_argument("text")

    fq = sub.add_parser(
        "fedquery",
        help="federated top-k over 2+ independent indexes (rollover alias: "
        "--range prunes members by doc-values bounds)",
    )
    fq.add_argument("text")
    fq.add_argument("index_dirs", nargs="+", help="member index directories")
    fq.add_argument("-k", type=int, default=10)
    fq.add_argument(
        "--range", dest="field_range", default=None, metavar="FIELD:LO:HI",
        help="non-scoring doc-values window; members whose bounds miss it are "
        "never opened (can_match pruning)",
    )

    px = sub.add_parser(
        "proximity", help="windowed co-occurrence counts (positional index)"
    )
    px.add_argument("index_dir")
    px.add_argument("term_a")
    px.add_argument("term_b")
    px.add_argument("--window", type=int, default=4)
    px.add_argument("--ordered", action="store_true")

    sp = sub.add_parser(
        "span", help="ordered multi-term span counts (positional index, 2-3 terms)"
    )
    sp.add_argument("index_dir")
    sp.add_argument("terms", nargs="+")
    sp.add_argument("--window", type=int, default=6)

    bl = sub.add_parser(
        "boolean", help="nested AND/OR/NOT retrieval, BM25-ranked over positive terms"
    )
    bl.add_argument("index_dir")
    bl.add_argument("expr", help="e.g. '(fast OR quick) AND join AND NOT legacy'")
    bl.add_argument("-k", type=int, default=10)

    cv = sub.add_parser(
        "convsearch",
        help="conversation-level BM25F top-k (per-role field weights; "
        "index must be built with --category-col)",
    )
    cv.add_argument("index_dir")
    cv.add_argument("text")
    cv.add_argument("-k", type=int, default=10)
    cv.add_argument(
        "--weight", action="append", default=[],
        help="role=w (repeatable, dyadic w; default user=2.0 assistant=1.0 tool=0.25)",
    )

    fz = sub.add_parser("fuzzy", help="fuzzy top-k: each term expands to its ed<=1 vocab neighborhood")
    fz.add_argument("index_dir")
    fz.add_argument("text")
    fz.add_argument("-k", type=int, default=10)

    ql = sub.add_parser("qld", help="query-likelihood top-k (Dirichlet-smoothed LM scorer)")
    ql.add_argument("index_dir")
    ql.add_argument("text")
    ql.add_argument("-k", type=int, default=10)
    ql.add_argument("--mu", type=float, default=2000.0)

    ex = sub.add_parser("expand", help="expanded top-k: each --slot is an OR-group of variants")
    ex.add_argument("index_dir")
    ex.add_argument("--slot", action="append", required=True,
                    help="pipe-separated variants, e.g. 'fast|quick' (repeatable)")
    ex.add_argument("-k", type=int, default=10)

    s = sub.add_parser("stats", help="print index stats.json")
    s.add_argument("index_dir")

    al = sub.add_parser(
        "alias",
        help="alias registry: stable names over swappable index dirs "
        "(atomic repoint = the zero-downtime reindex swap)",
    )
    al.add_argument("registry", help="registry directory (holds aliases.json)")
    al.add_argument("action", choices=["set", "remove", "list", "resolve"])
    al.add_argument("name", nargs="?", default=None)
    al.add_argument("target", nargs="?", default=None, help="index dir (set only)")

    vf = sub.add_parser(
        "verify", help="integrity check: per-part CRC vs manifest (read-error-strategy analog)"
    )
    vf.add_argument("index_dir")

    pc_ = sub.add_parser(
        "percolate", help="stream a parquet of docs through stored queries (detect-motifs analog)"
    )
    pc_.add_argument("index_dir")
    pc_.add_argument("parquet")
    pc_.add_argument(
        "--query", action="append", required=True, metavar="ID:TEXT",
        help="stored query as 'id:text' (repeatable)",
    )
    pc_.add_argument("--mode", choices=["any", "all"], default="any")
    pc_.add_argument("--id-col", default="doc_id")
    pc_.add_argument("--text-col", default="text")

    dc = sub.add_parser("doc", help="fetch stored document text by docID (doc store)")
    dc.add_argument("index_dir")
    dc.add_argument("doc_ids", type=int, nargs="+")

    ml = sub.add_parser("mlt", help="more-like-this: docID as the query (doc store)")
    ml.add_argument("index_dir")
    ml.add_argument("doc_id", type=int)
    ml.add_argument("-k", type=int, default=10)
    ml.add_argument("-m", type=int, default=6, help="query terms extracted from the doc")

    sn = sub.add_parser(
        "snippets", help="KWIC snippets of a term's occurrences (positional index + doc store)"
    )
    sn.add_argument("index_dir")
    sn.add_argument("term")
    sn.add_argument("-w", type=int, default=2, help="context window in tokens")
    sn.add_argument("--limit", type=int, default=20)

    dd = sub.add_parser(
        "dedup", help="corpus dedup report over a parquet of (doc_id, text)"
    )
    dd.add_argument("parquet")
    dd.add_argument(
        "--mode",
        choices=["exact", "passage", "jaccard", "containment", "minhash",
                 "clusters", "pagerank", "central", "incremental",
                 "near-incremental"],
        default="exact",
    )
    dd.add_argument("--window", type=int, default=16, help="passage token window")
    dd.add_argument("--limit", type=int, default=50)
    dd.add_argument(
        "--cc-method", choices=["hash_to_min", "star"], default="hash_to_min",
        help="clusters mode: label propagation (O(diameter) rounds) or "
        "large-star/small-star contraction (O(log n) on deep chains)",
    )

    cp = sub.add_parser(
        "corpus",
        help="training-data corpus passes over a parquet of (doc_id, text[, lang])",
    )
    cp.add_argument("parquet")
    cp.add_argument(
        "--mode",
        choices=["gopher", "trim", "drift", "buckets", "hitters", "trainmix"],
        default="gopher",
    )
    cp.add_argument("--window", type=int, default=8, help="trim: token window")
    cp.add_argument("--min-df", type=int, default=5, help="drift: rare-term floor")
    cp.add_argument("--limit", type=int, default=50)

    rg = sub.add_parser(
        "rollover",
        help="ILM rollover group: capped write member + federated search "
        "(init/add/query/status)",
    )
    rg.add_argument("group_dir")
    rg.add_argument("action", choices=["init", "add", "query", "status"])
    rg.add_argument("arg", nargs="?", default=None,
                    help="add: parquet path; query: text")
    rg.add_argument("--max-docs", type=int, default=100000, help="init only")
    rg.add_argument("--id-col", default="doc_id")
    rg.add_argument("-k", type=int, default=10)

    ol = sub.add_parser(
        "outliers", help="per-user z-score value outliers over an events parquet dir"
    )
    ol.add_argument("sf_dir", help="directory containing events.parquet")
    ol.add_argument("-t", type=float, default=2.5, help="|z| threshold")
    ol.add_argument("--limit", type=int, default=50)

    args = p.parse_args(argv)

    if args.cmd == "build":
        _ray()
        import ray.data as rd

        from .build import build_index

        corpus = args.corpus
        if args.format == "csv":
            corpus = rd.read_csv(args.corpus)
        elif args.format == "json":
            corpus = rd.read_json(args.corpus)
        rep = build_index(
            corpus,
            args.index_dir,
            id_col=args.id_col,
            n_buckets=args.buckets,
            n_salts=args.salts,
            resume=not args.no_resume,
            positions=args.positions,
            category_col=args.category_col,
            postings_codec=args.postings_codec,
            analyzer=args.analyzer,
            stopwords=args.stopwords.split(",") if args.stopwords else None,
            docvalues=args.docvalues.split(",") if args.docvalues else None,
        )
        print(json.dumps({k: rep[k] for k in ("n_docs", "n_parts", "n_postings", "timings_sec", "parts_written_this_run")}))
    elif args.cmd == "add":
        _ray()
        import ray.data

        from .update import add_documents

        rep = add_documents(args.index_dir, ray.data.read_parquet(args.parquet), id_col=args.id_col)
        print(json.dumps(rep))
    elif args.cmd == "remove":
        if not args.conv and not args.doc:
            p.error("remove requires --conv or --doc")
        _ray()
        from .update import remove_documents

        rep = remove_documents(
            args.index_dir,
            conv_ids=args.conv or None,
            doc_ids=args.doc or None,
        )
        print(json.dumps(rep))
    elif args.cmd == "compact":
        _ray()
        from .update import compact_index

        print(json.dumps(compact_index(args.index_dir)))
    elif args.cmd == "reindex":
        _ray()
        from .update import reindex

        stop = None
        if args.stopwords is not None:
            stop = [w for w in args.stopwords.split(",") if w]
        rep = reindex(
            args.src_dir, args.dst_dir, analyzer=args.analyzer,
            stopwords=stop, postings_codec=args.postings_codec,
            positions=args.positions,
        )
        print(json.dumps({k: rep[k] for k in ("n_docs", "n_parts", "analyzer", "stopwords", "postings_codec") if k in rep}))
    elif args.cmd == "merge":
        _ray()
        from .merge import merge_indexes

        print(json.dumps(merge_indexes(args.index_a, args.index_b, args.out_dir)))
    elif args.cmd == "alias":
        from . import aliases

        if args.action == "set":
            if not args.name or not args.target:
                raise SystemExit("alias set needs NAME and TARGET")
            m = aliases.set_alias(args.registry, args.name, args.target)
        elif args.action == "remove":
            if not args.name:
                raise SystemExit("alias remove needs NAME")
            m = aliases.remove_alias(args.registry, args.name)
        elif args.action == "resolve":
            if not args.name:
                raise SystemExit("alias resolve needs NAME")
            print(aliases.resolve(args.name, args.registry))
            return 0
        else:
            m = aliases.list_aliases(args.registry)
        print(json.dumps(m, indent=1, sort_keys=True))

    elif args.cmd == "query":
        from .query import Bm25Index, hits_table, write_hits_csv

        if args.registry:
            from . import aliases

            args.index_dir = aliases.resolve(args.index_dir, args.registry)
        if args.sharded:
            if args.field_range:
                raise SystemExit("--range is single-reader only (no --sharded)")
            _ray()
            from .serve import ShardedQueryService

            svc = ShardedQueryService(args.index_dir, n_shards=args.sharded)
            try:
                d, s = svc.topk(args.text, args.k, conjunctive=args.conjunctive)
            finally:
                svc.shutdown()
            tbl = hits_table("cli", d, s)
        else:
            fr = None
            if args.field_range:
                f, lo, hi = args.field_range.rsplit(":", 2)
                fr = (f, int(lo), int(hi))
            bm = Bm25Index(args.index_dir)
            tbl = bm.topk_table(
                "cli", args.text, args.k, conjunctive=args.conjunctive, field_range=fr
            )
        if args.csv:
            write_hits_csv(tbl, args.csv)
        for i in range(tbl.num_rows):
            print(
                json.dumps(
                    {
                        "rank": tbl["rank"][i].as_py(),
                        "doc_id": tbl["doc_id"][i].as_py(),
                        "score": round(tbl["score"][i].as_py(), 6),
                    }
                )
            )
    elif args.cmd == "fedquery":
        _ray()  # member-collision refusal runs distributed probes
        from .federate import Federation

        fr = None
        if args.field_range:
            f, lo, hi = args.field_range.rsplit(":", 2)
            fr = (f, int(lo), int(hi))
        fed = Federation(args.index_dirs)
        d, s = fed.topk(args.text, args.k, field_range=fr)
        for i, (dd, sc) in enumerate(zip(d.tolist(), s.tolist()), 1):
            print(json.dumps({"rank": i, "doc_id": dd, "score": round(sc, 6)}))
        print(
            json.dumps(
                {
                    "members_searched": getattr(
                        fed, "last_members_searched", len(fed.members)
                    ),
                    "members_total": len(fed.members),
                }
            )
        )
    elif args.cmd == "sort":
        from .query import Bm25Index

        after = None
        if args.after:
            v, d0 = args.after.rsplit(":", 1)
            after = (int(v), int(d0))
        bm = Bm25Index(args.index_dir)
        d, v = bm.topk_by_field(
            args.text, args.field, args.k, descending=not args.asc, after=after
        )
        for i, (dd, vv) in enumerate(zip(d.tolist(), v.tolist()), 1):
            print(json.dumps({"rank": i, "doc_id": dd, "value": vv}))
    elif args.cmd == "phrase":
        from .query import Bm25Index

        bm = Bm25Index(args.index_dir)
        d, n = bm.phrase_match(args.text)
        for doc, cnt in zip(d.tolist(), n.tolist()):
            print(json.dumps({"doc_id": doc, "n_matches": cnt}))
    elif args.cmd == "proximity":
        from .query import Bm25Index

        bm = Bm25Index(args.index_dir)
        d, n = bm.proximity_match(
            args.term_a, args.term_b, args.window, ordered=args.ordered
        )
        for doc, cnt in zip(d.tolist(), n.tolist()):
            print(json.dumps({"doc_id": doc, "n_pairs": cnt}))
    elif args.cmd == "span":
        from .query import Bm25Index

        bm = Bm25Index(args.index_dir)
        d, n = bm.span_near(args.terms, args.window)
        for doc, cnt in zip(d.tolist(), n.tolist()):
            print(json.dumps({"doc_id": doc, "n_spans": cnt}))
    elif args.cmd == "boolean":
        from .query import Bm25Index

        bm = Bm25Index(args.index_dir)
        d, s = bm.boolean_topk(args.expr, args.k)
        for rank, (doc, sc) in enumerate(zip(d.tolist(), s.tolist()), 1):
            print(json.dumps({"rank": rank, "doc_id": doc, "score": sc}))
    elif args.cmd == "convsearch":
        _ray()
        from .convsearch import bm25f_conv_topk, conv_field_stats
        from .query import Bm25Index

        weights = {"user": 2.0, "assistant": 1.0, "tool": 0.25}
        for spec in args.weight:
            role, _, w = spec.partition("=")
            weights[role] = float(w)
        stats = conv_field_stats(args.index_dir, weights)
        bm = Bm25Index(args.index_dir)
        c, s = bm25f_conv_topk(bm, stats, args.text, args.k)
        for rank, (conv, sc) in enumerate(zip(c.tolist(), s.tolist()), 1):
            print(json.dumps({"rank": rank, "conv_id": str(conv), "score": sc}))
    elif args.cmd == "fuzzy":
        from .query import Bm25Index

        bm = Bm25Index(args.index_dir)
        d, s = bm.fuzzy_topk(bm._terms(args.text), args.k)
        for i, (doc, sc) in enumerate(zip(d.tolist(), s.tolist()), start=1):
            print(json.dumps({"rank": i, "doc_id": doc, "score": round(sc, 6)}))
    elif args.cmd == "qld":
        from .query import Bm25Index

        bm = Bm25Index(args.index_dir)
        d, s = bm.qld_topk(bm._terms(args.text), args.k, mu=args.mu)
        for i, (doc, sc) in enumerate(zip(d.tolist(), s.tolist()), start=1):
            print(json.dumps({"rank": i, "doc_id": doc, "score": round(sc, 6)}))
    elif args.cmd == "expand":
        from .query import Bm25Index

        bm = Bm25Index(args.index_dir)
        slots = [[v for v in s.split("|") if v] for s in args.slot]
        d, s = bm.expanded_topk(slots, args.k)
        for i, (doc, sc) in enumerate(zip(d.tolist(), s.tolist()), start=1):
            print(json.dumps({"rank": i, "doc_id": doc, "score": round(sc, 6)}))
    elif args.cmd == "stats":
        from .state import read_stats

        print(json.dumps(read_stats(args.index_dir), indent=2))
    elif args.cmd == "verify":
        from .state import committed_parts, read_stats

        all_parts = committed_parts(args.index_dir)
        ok = committed_parts(args.index_dir, verify_checksum=True)
        bad = sorted(set(all_parts) - set(ok))
        report = {
            "parts_committed": len(all_parts),
            "parts_ok": len(ok),
            "parts_corrupt": bad,
            "n_docs": read_stats(args.index_dir).get("n_docs"),
        }
        print(json.dumps(report))
        return 1 if bad else 0
    elif args.cmd == "percolate":
        _ray()
        import ray.data

        from .percolate import percolate_dataset

        stored = []
        for spec in args.query:
            qid, _, text = spec.partition(":")
            if not text:
                p.error(f"--query must be 'id:text', got {spec!r}")
            stored.append({"query_id": qid, "text": text})
        out = percolate_dataset(
            ray.data.read_parquet(args.parquet),
            args.index_dir,
            stored,
            mode=args.mode,
            id_col=args.id_col,
            text_col=args.text_col,
        )
        for batch in out.iter_batches(batch_format="pyarrow"):
            for row in batch.to_pylist():
                print(json.dumps(row))
    elif args.cmd == "doc":
        import numpy as np

        from .docstore import DocStore

        texts = DocStore(args.index_dir).texts(np.asarray(args.doc_ids, dtype=np.int64))
        for did in args.doc_ids:
            print(json.dumps({"doc_id": did, "text": texts.get(did)}))
    elif args.cmd == "mlt":
        from .query import Bm25Index

        bm = Bm25Index(args.index_dir)
        d, s = bm.more_like_this_id(args.doc_id, args.k, m=args.m)
        for i, (doc, sc) in enumerate(zip(d.tolist(), s.tolist()), start=1):
            print(json.dumps({"rank": i, "doc_id": doc, "score": round(sc, 6)}))
    elif args.cmd == "snippets":
        _ray()
        from .query import Bm25Index, kwic_snippets_stored

        bm = Bm25Index(args.index_dir)
        d, pos = bm.term_positions(args.term)
        tbl = (
            kwic_snippets_stored(args.index_dir, [("cli", d, pos)], w=args.w)
            .limit(args.limit)
            .take_all()
        )
        for row in tbl:
            print(
                json.dumps(
                    {"doc_id": row["doc_id"], "pos": row["pos"], "snippet": row["snippet"]}
                )
            )
    elif args.cmd == "dedup":
        _ray()
        import ray.data

        from .ops.dedup import exact_dedup, ngram_jaccard_pairs, passage_dedup  # noqa: F401

        ds = ray.data.read_parquet(args.parquet)
        if args.mode == "exact":
            out = exact_dedup(ds).sort("doc_id")
        elif args.mode == "passage":
            out = passage_dedup(ds, window=args.window).sort(["doc_id", "passage_idx"])
        elif args.mode == "minhash":
            from .ops.dedup import minhash_lsh_pairs

            out = minhash_lsh_pairs(ds)
        elif args.mode == "clusters":
            from .ops.dedup import dedup_clusters

            out = dedup_clusters(ds, cc_method=args.cc_method)
        elif args.mode == "pagerank":
            from .ops.dedup import ngram_jaccard_pairs, pagerank

            out = pagerank(ngram_jaccard_pairs(ds).select_columns(["doc_a", "doc_b"]))
        elif args.mode == "central":
            from .ops.dedup import central_cluster_reps

            out = central_cluster_reps(ds)
        elif args.mode == "incremental":
            from .ops.dedup import dedup_incremental

            out = dedup_incremental(ds, k=args.window).sort("doc_id")
        elif args.mode == "near-incremental":
            from .ops.dedup import near_dedup_incremental

            out = near_dedup_incremental(ds).sort("doc_id")
        else:
            out = ngram_jaccard_pairs(ds, containment=(args.mode == "containment"))
        for row in out.limit(args.limit).take_all():
            print(json.dumps(row))
    elif args.cmd == "corpus":
        _ray()
        import ray.data

        ds = ray.data.read_parquet(args.parquet)
        if args.mode == "gopher":
            from .ops.textstats import gopher_filter

            out = gopher_filter(ds).sort("doc_id")
        elif args.mode == "trim":
            from .ops.textstats import trim_repeated_windows

            out = trim_repeated_windows(ds, k=args.window).sort("doc_id")
        elif args.mode == "drift":
            from .ops.textstats import vocab_drift

            out = vocab_drift(ds, min_df=args.min_df)
        elif args.mode == "buckets":
            from .ops.textstats import lm_quality_buckets

            out = lm_quality_buckets(ds).sort("doc_id")
        elif args.mode == "trainmix":
            from .pipelines import training_mix

            out = training_mix(ds)
        else:
            from .ops.sketch import cms_heavy_hitters

            out = cms_heavy_hitters(ds)
        for row in out.limit(args.limit).take_all():
            print(json.dumps(row))
    elif args.cmd == "rollover":
        from . import rollover as ro

        if args.action == "init":
            print(json.dumps(ro.init_group(args.group_dir, args.max_docs)))
        elif args.action == "status":
            print(json.dumps(ro.status(args.group_dir)))
        elif args.action == "add":
            if not args.arg:
                raise SystemExit("rollover add needs a parquet path")
            _ray()
            import ray.data

            rep = ro.add(
                args.group_dir, ray.data.read_parquet(args.arg), id_col=args.id_col
            )
            print(json.dumps(rep))
        else:
            if not args.arg:
                raise SystemExit("rollover query needs text")
            _ray()
            doc, score = ro.topk(args.group_dir, args.arg, args.k)
            for r, (d, s) in enumerate(zip(doc.tolist(), score.tolist()), 1):
                print(json.dumps({"rank": r, "doc_id": d, "score": s}))
    elif args.cmd == "outliers":
        _ray()
        from .ops.relational import value_outliers

        for row in value_outliers(args.sf_dir, threshold=args.t).limit(args.limit).take_all():
            print(json.dumps(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
