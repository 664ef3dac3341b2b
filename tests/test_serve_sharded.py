"""Sharded scatter/gather serving: bit-identity with the single-reader engine.

The replica model (engine.serve.QueryService) holds the WHOLE index per actor;
ShardedQueryService partitions part files across shard actors and gathers term
runs per query. The gate: every query path (pruned top-k, conjunctive) over
the gathered view must produce BIT-identical docIDs and scores.
"""

import numpy as np
import pytest

from engine.queries import QUERY_SET


@pytest.fixture(scope="module")
def sharded(ray_session, tiny_index):
    from engine.serve import ShardedQueryService

    # fractional CPUs: full-CPU shard actors would pin 3 of the session's 4
    # CPUs for the whole module, and an ADD below would then wait forever
    # whenever an actor left by an earlier test still holds the fourth
    svc = ShardedQueryService(tiny_index, n_shards=3, num_cpus=0.25)
    yield svc
    svc.shutdown()


def test_sharded_bit_identity(sharded, tiny_index):
    from engine.query import Bm25Index

    bm = Bm25Index(tiny_index)
    n = 0
    for q in QUERY_SET:
        for conj in (False, True):
            d1, s1 = (bm.conjunctive_topk if conj else bm.topk)(q["text"], q["k"])
            d2, s2 = sharded.topk(q["text"], q["k"], conjunctive=conj)
            np.testing.assert_array_equal(d1, d2, err_msg=f"{q['text']} conj={conj}")
            np.testing.assert_array_equal(
                np.asarray(s1).view(np.uint64), np.asarray(s2).view(np.uint64)
            )
            n += 1
    assert n == 2 * len(QUERY_SET)


def test_sharded_absent_term(sharded):
    d, s = sharded.topk("zzzabsentzzz", 5)
    assert len(d) == 0 and len(s) == 0


def test_sharded_after_update(ray_session, tiny_index, tmp_path):
    """Scatter/gather over a MULTI-GENERATION index: ADD appends delta runs
    inside existing part files; the gathered view must merge them exactly as
    the single reader does (run order preserved across shards)."""
    import shutil

    import pyarrow as pa
    import ray.data

    from engine.query import Bm25Index
    from engine.serve import ShardedQueryService
    from engine.update import add_documents

    idx = str(tmp_path / "sharded_upd")
    shutil.copytree(tiny_index, idx)
    new = pa.table(
        {
            "conv_id": pa.array([f"zzzz-sh-{c}" for c in range(4) for _ in range(2)], pa.string()),
            "turn_idx": pa.array([0, 1] * 4, pa.int32()),
            "text": pa.array(
                [f"w00000 w00777 shmarker{c} turn {t}" for c in range(4) for t in range(2)],
                pa.string(),
            ),
        }
    )
    assert add_documents(idx, ray.data.from_arrow(new))["added"] == 8
    bm = Bm25Index(idx)
    # fractional CPUs: the module fixture's 3 shard actors are still alive —
    # 3 more full-CPU actors would exceed the 4-CPU test budget and the new
    # actors would never place (a silent hang)
    svc = ShardedQueryService(idx, n_shards=3, num_cpus=0.25)
    try:
        for text, k in [("w00000", 10), ("w00777 shmarker2", 8), ("shmarker0", 5)]:
            d1, s1 = bm.topk(text, k)
            d2, s2 = svc.topk(text, k)
            np.testing.assert_array_equal(d1, d2, err_msg=text)
            np.testing.assert_array_equal(
                np.asarray(s1).view(np.uint64), np.asarray(s2).view(np.uint64)
            )
    finally:
        svc.shutdown()


def test_shards_partition_all_parts(sharded):
    """Every part is owned by exactly one shard (no gaps, no overlap)."""
    import ray

    owned = ray.get([s.__ray_ready__.remote() for s in sharded._shards]) and [
        ray.get(s.fetch.remote([])) for s in sharded._shards
    ]
    r = sharded._bm.reader
    n_parts = r.n_buckets * r.n_salts
    assign = [p % sharded.n_shards for p in range(n_parts)]
    assert sorted(set(assign)) == list(range(sharded.n_shards))
    assert owned is not None  # actors alive and responsive


def test_sharded_fuzzy_bit_identity(sharded, tiny_index):
    """Per-shard vocab expansion + scatter/gather == whole-vocab fuzzy path.
    Union of the shard vocab slices covers the full vocab (salted hot terms
    appear on several shards; the coordinator's set union dedupes), so the
    expanded slots — and therefore ranks and scores — are identical."""
    from engine.query import Bm25Index
    from engine.tokenize import tokenize_text

    bm = Bm25Index(tiny_index)
    for text in ["w00000", "w00777 w00123", "zzzabsentzzz", "w0000"]:
        terms = sorted(set(tokenize_text(text)))
        d1, s1 = bm.fuzzy_topk(terms, 10)
        d2, s2 = sharded.fuzzy_topk(text, 10)
        np.testing.assert_array_equal(d1, d2, err_msg=text)
        np.testing.assert_array_equal(
            np.asarray(s1).view(np.uint64), np.asarray(s2).view(np.uint64)
        )


def test_sharded_qld_bit_identity(sharded, tiny_index):
    from engine.query import Bm25Index
    from engine.tokenize import tokenize_text

    bm = Bm25Index(tiny_index)
    for text in [q["text"] for q in QUERY_SET[:4]] + ["zzzabsentzzz"]:
        terms = sorted(set(tokenize_text(text)))
        d1, s1 = bm.qld_topk(terms, 10)
        d2, s2 = sharded.qld_topk(text, 10)
        np.testing.assert_array_equal(d1, d2, err_msg=text)
        np.testing.assert_array_equal(
            np.asarray(s1).view(np.uint64), np.asarray(s2).view(np.uint64)
        )



def test_sharded_quarantine_serves_remaining(ray_session, tiny_index, tmp_path):
    """Read-error strategy through the sharded service: with one segment
    file corrupted, quarantine mode answers queries from the remaining
    parts (shard actors + coordinator both quarantine the dead part);
    results equal a pristine index queried for the surviving terms."""
    import os
    import shutil

    from engine.query import Bm25Index
    from engine.segments import SegmentReader
    from engine.serve import ShardedQueryService

    pristine = SegmentReader(tiny_index)
    hot = pristine.hot_terms
    t1 = t2 = None
    for part in range(pristine.n_buckets * pristine.n_salts):
        pristine._load_meta(part)
        cold = sorted(t for t in pristine._term_code[part] if t not in hot)
        if not cold:
            continue
        if t1 is None:
            t1, bad_part = cold[0], part
        elif t2 is None:
            t2 = cold[0]
            break
    assert t1 and t2

    idx = str(tmp_path / "sharded_corrupt")
    shutil.copytree(tiny_index, idx)
    with open(os.path.join(idx, f"segment-{bad_part:05d}.parquet"), "wb") as f:
        f.write(b"garbage")

    svc = ShardedQueryService(idx, n_shards=3, num_cpus=0.25,
                              read_error_strategy="quarantine")
    try:
        d, s = svc.topk(f"{t1} {t2}", 5)
        ref = Bm25Index(tiny_index)
        d2, s2 = ref.topk(t2, 5)  # t1's only part is dead
        np.testing.assert_array_equal(d, d2)
        np.testing.assert_allclose(s, s2, rtol=0, atol=0)
    finally:
        svc.shutdown()


def test_sharded_boolean_bit_identity(sharded, tiny_index):
    from engine.query import Bm25Index

    bm = Bm25Index(tiny_index)
    exprs = [
        "(zqmarker0 OR zqmarker1) AND w00000",
        "w00000 AND NOT zqmarker0",
        "w00001 AND NOT (zqmarker0 OR w00000)",
        "w00000 AND zzzabsentzzz",
    ]
    hits = 0
    for e in exprs:
        d1, s1 = bm.boolean_topk(e, 15)
        d2, s2 = sharded.boolean_topk(e, 15)
        np.testing.assert_array_equal(d1, d2, err_msg=e)
        np.testing.assert_array_equal(
            np.asarray(s1).view(np.uint64), np.asarray(s2).view(np.uint64)
        )
        hits += len(d1)
    assert hits > 0


def test_sharded_span_near(ray_session, tiny_corpus, tmp_path):
    """span_near over the sharded positional service == local (integer-exact)."""
    from engine.build import build_index
    from engine.query import Bm25Index
    from engine.serve import ShardedQueryService

    idx = str(tmp_path / "pos_sh")
    build_index(tiny_corpus, idx, n_buckets=8, n_salts=2, positions=True)
    # fractional actor CPUs: the module-scoped `sharded` fixture already
    # holds 3 single-CPU shard actors; a second full-CPU pool would exceed
    # the 4-CPU test cluster and DEADLOCK actor creation
    svc = ShardedQueryService(idx, n_shards=3, num_cpus=0.25)
    try:
        bm = Bm25Index(idx)
        cases = [(["w00000", "w00001", "w00002"], 8), (["w00000", "w00001"], 3)]
        hits = 0
        for terms, w in cases:
            d1, n1 = bm.span_near(terms, w)
            d2, n2 = svc.span_near(terms, w)
            np.testing.assert_array_equal(d1, d2)
            np.testing.assert_array_equal(n1, n2)
            hits += len(d1)
        assert hits > 0
    finally:
        svc.shutdown()


def test_sharded_docvalues_surfaces(ray_session, tiny_corpus, tmp_path):
    """Sharded field sort (+cursor), range-filtered BM25 and field stats are
    identical to the single reader; the coordinator's DocStore is shared
    across per-query gathered views (one row-group cache, not one per query)."""
    import numpy as np

    from engine.build import build_index
    from engine.query import Bm25Index
    from engine.serve import ShardedQueryService

    idx = str(tmp_path / "dv_shard")
    build_index(tiny_corpus, idx, n_buckets=8, n_salts=2, docvalues=["ts"])
    bm = Bm25Index(idx)
    # fractional CPUs: the module fixture's shard actors may still hold
    # whole CPUs in the 4-CPU test session; a second full-CPU pool would
    # never finish spawning (resource deadlock, see verify-skill gotcha)
    svc = ShardedQueryService(idx, n_shards=3, num_cpus=0.25)
    try:
        for q in ("w00000", "the zqmarker0", "zzzabsentzzz"):
            d1, v1 = bm.topk_by_field(q, "ts", 7)
            d2, v2 = svc.sort_topk(q, "ts", 7)
            np.testing.assert_array_equal(d1, d2, err_msg=q)
            np.testing.assert_array_equal(v1, v2)
            if len(d1) == 7:  # cursor page
                cur = (int(v1[-1]), int(d1[-1]))
                np.testing.assert_array_equal(
                    bm.topk_by_field(q, "ts", 7, after=cur)[0],
                    svc.sort_topk(q, "ts", 7, after=cur)[0],
                )
            assert bm.field_stats(q, "ts") == svc.field_stats(q, "ts")
        n, lo, hi = bm.field_stats("w00000", "ts")
        win = ("ts", lo, lo + (hi - lo) // 2)
        for q in ("w00000", "the zqmarker0"):
            d1, s1 = bm.topk(q, 9, field_range=win)
            d2, s2 = svc.topk(q, 9, field_range=win)
            np.testing.assert_array_equal(d1, d2, err_msg=q)
            np.testing.assert_array_equal(
                np.asarray(s1).view(np.uint64), np.asarray(s2).view(np.uint64)
            )
        # the shared cache really is shared
        assert getattr(svc._bm, "_docstore", None) is not None
        with pytest.raises(ValueError, match="OR-path"):
            svc.topk("w00000", 5, conjunctive=True, field_range=win)
    finally:
        svc.shutdown()
