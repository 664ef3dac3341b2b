"""Lifecycle tests: checkpoint / kill-and-resume / recover.

Transplant of the reference's update-lifecycle suite
(strucmotif-search-update/.../UpdateIntegrationTest.java:100-171: ADD is
idempotent; state, doc-store and index stay consistent across
re-initialization) onto the manifest-last commit protocol of engine.state:
a part is committed iff its manifest exists; resume skips committed parts;
recover purges orphan payloads and stale tmp files
(StrucmotifUpdate.java:532-546 RECOVER analog).
"""

import json
import os
import shutil

import numpy as np
import pytest

from engine import state


def _topk_frame(index_dir):
    from engine.queries import QUERY_SET
    from engine.query import Bm25Index

    bm = Bm25Index(index_dir)
    out = []
    for q in QUERY_SET:
        for rank, (doc, score) in enumerate(zip(*bm.topk(q["text"], q["k"]))):
            out.append((q["query_id"], rank, int(doc), round(float(score), 10)))
    return out


def test_recover_deletes_orphans_and_tmp(tmp_path):
    idx = str(tmp_path / "idx")
    os.makedirs(idx)
    # committed part: payload + manifest
    with open(state.segment_path(idx, 3), "wb") as f:
        f.write(b"payload")
    state.write_part_manifest(idx, 3, {"n_terms": 1})
    # orphan payload (no manifest) and stale tmp
    with open(state.segment_path(idx, 7), "wb") as f:
        f.write(b"orphan")
    with open(os.path.join(idx, "segment-00009.parquet.tmp"), "wb") as f:
        f.write(b"partial")

    deleted = state.recover(idx)

    assert sorted(os.path.basename(p) for p in deleted) == [
        "segment-00007.parquet",
        "segment-00009.parquet.tmp",
    ]
    assert list(state.committed_parts(idx)) == [3]
    assert os.path.exists(state.segment_path(idx, 3))


def test_manifest_checksum_gates_commit(tmp_path):
    idx = str(tmp_path / "idx")
    os.makedirs(idx)
    with open(state.segment_path(idx, 0), "wb") as f:
        f.write(b"good bytes")
    state.write_part_manifest(idx, 0, {})
    assert list(state.committed_parts(idx, verify_checksum=True)) == [0]
    # corrupt the payload after commit -> checksum validation rejects it
    with open(state.segment_path(idx, 0), "wb") as f:
        f.write(b"bad bytes!")
    assert list(state.committed_parts(idx, verify_checksum=True)) == []
    assert list(state.committed_parts(idx)) == [0]  # non-verifying still lists


def test_resume_is_noop_on_complete_index(ray_session, tiny_corpus, tiny_index, tmp_path):
    from engine.build import build_index

    idx = str(tmp_path / "complete")
    shutil.copytree(tiny_index, idx)
    mtimes = {
        n: os.path.getmtime(os.path.join(idx, n))
        for n in os.listdir(idx)
        if n.endswith(".parquet")
    }

    report = build_index(tiny_corpus, idx, n_buckets=8, n_salts=4, hot_fraction=0.05, resume=True)

    assert report["parts_written_this_run"] == 0
    for n, mt in mtimes.items():
        assert os.path.getmtime(os.path.join(idx, n)) == mt, f"{n} was rewritten"
    assert _topk_frame(idx) == _topk_frame(tiny_index)


def test_kill_and_resume_rank_identical(ray_session, tiny_corpus, tiny_index, tmp_path):
    """Simulate a killed build: some parts never committed, one orphan payload,
    one stale tmp. Resume must (a) purge the junk, (b) rebuild ONLY the missing
    parts, (c) produce rank-identical top-k vs the uninterrupted build."""
    from engine.build import build_index

    idx = str(tmp_path / "killed")
    shutil.copytree(tiny_index, idx)

    parts = sorted(state.committed_parts(idx))
    assert len(parts) >= 4, "fixture index too small for the scenario"
    lost = parts[:2]
    for p in lost:  # uncommitted: neither payload nor manifest survived
        os.remove(state.segment_path(idx, p))
        os.remove(state.manifest_path(idx, p))
    orphan = parts[2]  # payload written, manifest never committed (mid-crash)
    os.remove(state.manifest_path(idx, orphan))
    with open(state.segment_path(idx, 99) + ".tmp", "wb") as f:
        f.write(b"mid-write")
    survivors = [p for p in parts if p not in lost and p != orphan]
    surv_mtimes = {p: os.path.getmtime(state.segment_path(idx, p)) for p in survivors}

    report = build_index(tiny_corpus, idx, n_buckets=8, n_salts=4, hot_fraction=0.05, resume=True)

    assert not os.path.exists(state.segment_path(idx, 99) + ".tmp")
    assert report["parts_written_this_run"] == len(lost) + 1  # lost + orphan
    for p in survivors:
        assert os.path.getmtime(state.segment_path(idx, p)) == surv_mtimes[p]
    assert sorted(state.committed_parts(idx)) == parts
    assert _topk_frame(idx) == _topk_frame(tiny_index)


def test_docmap_checkpoint_reused(ray_session, tiny_corpus, tiny_index, tmp_path):
    idx = str(tmp_path / "dmck")
    shutil.copytree(tiny_index, idx)
    marker = os.path.join(idx, "docmap", "_SUCCESS.json")
    mt = os.path.getmtime(marker)
    from engine.build import build_index

    build_index(tiny_corpus, idx, n_buckets=8, n_salts=4, hot_fraction=0.05, resume=True)
    assert os.path.getmtime(marker) == mt  # docmap pass skipped on resume


def test_lineage_manifest_contents(tiny_index):
    parts = state.committed_parts(tiny_index, verify_checksum=True)
    assert parts, "no committed parts"
    for p, info in parts.items():
        assert info["status"] == "committed"
        assert info["part"] == p
        assert info["n_terms"] >= 0 and info["n_postings"] >= 0
    stats = state.read_stats(tiny_index)
    assert stats["n_postings"] == sum(i["n_postings"] for i in parts.values())
    assert stats["n_term_runs"] == sum(i["n_terms"] for i in parts.values())


def test_resume_refuses_mismatched_routing_contract(ray_session, tiny_corpus, tmp_path):
    """A resumed build whose bucket/salt args differ from the crashed run's
    committed routing contract must fail loudly, never mix routings."""
    from engine.build import build_index

    idx = str(tmp_path / "idx_contract")
    build_index(tiny_corpus, idx, n_buckets=4, n_salts=2)
    with pytest.raises(ValueError, match="routing contract"):
        build_index(tiny_corpus, idx, n_buckets=8, n_salts=2, resume=True)
    # same args resume fine (no-op) and reuse the persisted hot set
    rep = build_index(tiny_corpus, idx, n_buckets=4, n_salts=2, resume=True)
    assert rep["parts_written_this_run"] == 0


def test_conv_offset_index_sharded_matches_rank(ray_session):
    """The range-sharded conv offset index (VERDICT r2 #4: O(R) driver
    state, per-range shards in the object store) assigns docID == global
    rank of (conv_id, turn_idx), across multiple ranges and block layouts."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from engine.docids import add_doc_ids, build_conv_offset_index

    rng = np.random.default_rng(5)
    convs = [f"c{i:03d}" for i in range(40)]
    rows_c, rows_t = [], []
    for c in convs:
        n = int(rng.integers(1, 6))
        rows_c += [c] * n
        rows_t += list(range(n))
    tbl = pa.table(
        {
            "conv_id": pa.array(rows_c, pa.string()),
            "turn_idx": pa.array(rows_t, pa.int32()),
            "text": pa.array(["t"] * len(rows_c)),
        }
    )
    # shuffle row order so batches interleave conversations across blocks
    perm = rng.permutation(len(rows_c))
    shuffled = tbl.take(pa.array(perm))
    ds = ray.data.from_arrow(shuffled).repartition(7)
    idx = build_conv_offset_index(ds, n_ranges=4)
    assert len(idx.shard_refs) == 4 and idx.total == len(rows_c)
    out = add_doc_ids(ds, idx).to_pandas()
    out = out.sort_values(["conv_id", "turn_idx"], ignore_index=True)
    assert out["doc_id"].tolist() == list(range(len(rows_c)))


def test_docid_assignment_validates_turn_gaps(ray_session):
    """Gapped or duplicated turn_idx must fail the build, not silently
    collide docIDs across conversations."""
    import pyarrow as pa
    import ray.data

    from engine.docids import add_doc_ids, build_conv_offset_index

    gapped = ray.data.from_arrow(
        pa.table(
            {
                "conv_id": pa.array(["a", "a", "b"], pa.string()),
                "turn_idx": pa.array([0, 5, 0], pa.int32()),  # a has a gap
                "text": pa.array(["x", "y", "z"]),
            }
        )
    )
    with pytest.raises(Exception, match="turn_idx|out of range"):
        add_doc_ids(gapped, build_conv_offset_index(gapped)).materialize()

    dup = ray.data.from_arrow(
        pa.table(
            {
                "conv_id": pa.array(["a", "a"], pa.string()),
                "turn_idx": pa.array([0, 0], pa.int32()),
                "text": pa.array(["x", "y"]),
            }
        )
    )
    with pytest.raises(Exception, match="duplicate"):
        add_doc_ids(dup, build_conv_offset_index(dup)).materialize()


def test_docmap_swap_crash_recovery(tmp_path):
    """ADVICE r3: _purge_doc_ids' docmap swap must leave a complete docmap
    recoverable from EVERY crash state. Simulate a crash during evacuation
    (no COMMIT marker: originals split across ddir and backup) and during
    populate (COMMIT present: ddir holds partial new-generation files)."""
    import os
    import shutil

    from engine.update import _recover_docmap_swap

    def setup(ddir_files, backup_files, commit):
        ddir = str(tmp_path / "idx" / "docmap")
        shutil.rmtree(str(tmp_path / "idx"), ignore_errors=True)
        os.makedirs(ddir)
        for name, body in ddir_files:
            with open(os.path.join(ddir, name), "w") as f:
                f.write(body)
        if backup_files is not None:
            os.makedirs(ddir + ".old")
            for name, body in backup_files:
                with open(os.path.join(ddir + ".old", name), "w") as f:
                    f.write(body)
            if commit:
                with open(os.path.join(ddir + ".old", "COMMIT"), "w") as f:
                    f.write("x")
        return ddir

    # crash mid-evacuation: union restored
    ddir = setup(
        [("docmap-0001.parquet", "orig1")],
        [("docmap-0000.parquet", "orig0")],
        commit=False,
    )
    _recover_docmap_swap(ddir)
    assert sorted(os.listdir(ddir)) == ["docmap-0000.parquet", "docmap-0001.parquet"]
    assert not os.path.isdir(ddir + ".old")
    assert open(os.path.join(ddir, "docmap-0000.parquet")).read() == "orig0"

    # crash mid-populate: partial new dropped, originals restored
    ddir = setup(
        [("docmap-0000.parquet", "NEWGEN")],
        [("docmap-0000.parquet", "orig0"), ("docmap-0001.parquet", "orig1")],
        commit=True,
    )
    _recover_docmap_swap(ddir)
    assert sorted(os.listdir(ddir)) == ["docmap-0000.parquet", "docmap-0001.parquet"]
    assert open(os.path.join(ddir, "docmap-0000.parquet")).read() == "orig0"
    assert not os.path.isdir(ddir + ".old")

    # no backup: no-op
    _recover_docmap_swap(ddir)
    assert sorted(os.listdir(ddir)) == ["docmap-0000.parquet", "docmap-0001.parquet"]

    # crash mid-DELETE of a committed swap: the backup was renamed to
    # .old.deleting before any unlink, so its stale files are garbage —
    # recovery must drop them, NOT restore them over the new generation
    ddir = setup([("docmap-0000.parquet", "NEWGEN")], None, commit=False)
    os.makedirs(ddir + ".old.deleting")
    with open(os.path.join(ddir + ".old.deleting", "docmap-0000.parquet"), "w") as f:
        f.write("stale-old-gen")
    _recover_docmap_swap(ddir)
    assert sorted(os.listdir(ddir)) == ["docmap-0000.parquet"]
    assert open(os.path.join(ddir, "docmap-0000.parquet")).read() == "NEWGEN"
    assert not os.path.isdir(ddir + ".old.deleting")


def test_auto_buckets_resolution_and_resume(ray_session, tiny_corpus, tmp_path):
    """n_buckets='auto' resolves from docmap stats (clamped), stamps the
    resolved int into the routing contract, and a resumed auto build ADOPTS
    the committed value rather than re-resolving; results match an explicit
    build with the same bucket count."""
    import json as _json

    from engine.build import build_index, resolve_n_buckets
    from engine.query import Bm25Index

    # pure resolution: clamps + data-proportional, CPU-independent
    assert resolve_n_buckets(10, 5.0, 2) == 8  # floor clamp
    assert resolve_n_buckets(10**9, 100.0, 2) == 1024  # ceiling clamp
    mid = resolve_n_buckets(3_312_209, 42.0, 2)
    assert 8 < mid < 1024
    assert resolve_n_buckets(3_312_209, 42.0, 4) < mid  # salts share parts

    idx = str(tmp_path / "idx_auto")
    rep = build_index(tiny_corpus, idx, n_buckets="auto", n_salts=2)
    with open(idx + "/routing.json") as f:
        committed = _json.load(f)
    assert isinstance(committed["n_buckets"], int)
    # resumed auto build adopts the contract (no refusal, no re-resolve)
    rep2 = build_index(tiny_corpus, idx, n_buckets="auto", n_salts=2, resume=True)
    assert rep2["parts_written_this_run"] == 0
    # and the index answers queries identically to an explicit-bucket build
    idx2 = str(tmp_path / "idx_explicit")
    build_index(tiny_corpus, idx2, n_buckets=committed["n_buckets"], n_salts=2)
    a, b = Bm25Index(idx), Bm25Index(idx2)
    d1, s1 = a.topk("w00000 w00001", 10)
    d2, s2 = b.topk("w00000 w00001", 10)
    assert d1.tolist() == d2.tolist()
    np.testing.assert_array_equal(s1.view(np.uint64), s2.view(np.uint64))


def test_snapshot_restore_roundtrip(ray_session, tiny_index, tmp_path):
    """Snapshot/restore lifecycle: a restored index answers every query
    identically; tampered snapshot bytes are refused by verify AND by
    restore's in-flight CRC check; an uncommitted snapshot (no manifest,
    the mid-crash state) is refused outright."""
    import glob

    ref = _topk_frame(tiny_index)
    snap = str(tmp_path / "snap")
    man = state.snapshot_index(tiny_index, snap)
    assert state.verify_snapshot(snap)["files"] == man["files"]
    assert any(r.startswith("docmap") for r in man["files"])  # docmap included

    rest = str(tmp_path / "restored")
    state.restore_index(snap, rest)
    assert _topk_frame(rest) == ref

    # refuse duplicate destinations
    with pytest.raises(ValueError, match="exists"):
        state.snapshot_index(tiny_index, snap)
    with pytest.raises(ValueError, match="exists"):
        state.restore_index(snap, rest)

    # tamper one payload byte -> verify and restore both refuse
    seg = sorted(glob.glob(os.path.join(snap, "segment-*.parquet")))[0]
    with open(seg, "r+b") as f:
        f.seek(12)
        b = f.read(1)
        f.seek(12)
        f.write(bytes([b[0] ^ 0xFF]))
    with pytest.raises(ValueError, match="corrupt"):
        state.verify_snapshot(snap)
    with pytest.raises(Exception, match="corrupt"):
        state.restore_index(snap, str(tmp_path / "r2"))
    assert not os.path.exists(str(tmp_path / "r2"))  # staged dir never renamed

    # uncommitted snapshot (manifest missing == crash before manifest-last)
    os.remove(os.path.join(snap, state.SNAPSHOT_MANIFEST))
    with pytest.raises(ValueError, match="not a committed snapshot"):
        state.restore_index(snap, str(tmp_path / "r3"))
