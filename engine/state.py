"""Build state: lineage manifests, atomic publish, checkpoint/resume.

The reference's protocol (our template, not our code):
- ``known.list`` append + ``dirty.list`` in-flight markers
  (DefaultStateRepository.java:40-116),
- commit = write temp bundle then atomic ``Files.move`` swap
  (DefaultInvertedIndex.java:260-264),
- ``RECOVER`` deletes dirty/lingering items (StrucmotifUpdate.java:532-546).

Ours: every index part is published with a *manifest-last* two-step — payload
file written to ``<name>.tmp`` then renamed, manifest JSON written after — so a
part is "committed" iff its manifest exists and matches. Resume = skip parts
with valid manifests; recover = delete payloads without manifests (orphans).
Ray Data gives intra-run task retry for free; THIS is the cross-run story.
"""

from __future__ import annotations

import json
import os
import zlib

import pyarrow.compute as pc
import pyarrow.parquet as pq


def atomic_write_bytes(data: bytes, path: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(data)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def manifest_path(index_dir: str, part: int) -> str:
    return os.path.join(index_dir, f"segment-{part:05d}.manifest.json")


def segment_path(index_dir: str, part: int) -> str:
    return os.path.join(index_dir, f"segment-{part:05d}.parquet")


def write_part_manifest(index_dir: str, part: int, info: dict) -> None:
    payload = segment_path(index_dir, part)
    with open(payload, "rb") as f:
        crc = zlib.crc32(f.read())
    info = dict(info, part=part, checksum=crc, status="committed")
    atomic_write_bytes(json.dumps(info, sort_keys=True).encode(), manifest_path(index_dir, part))


def commit_segment(index_dir: str, part: int, seg, **extra) -> dict:
    """Publish one encoded part: payload to ``.tmp``, rename, manifest last.
    ``extra`` fields join the manifest. Returns the manifest info."""
    path = segment_path(index_dir, part)
    tmp = path + ".tmp"
    pq.write_table(seg, tmp, row_group_size=16384)
    os.replace(tmp, path)
    info = {
        "n_terms": seg.num_rows,
        "n_postings": int(pc.sum(seg["df"]).as_py() or 0),
        "n_tokens": int(pc.sum(seg["cf"]).as_py() or 0),
        "payload_bytes": os.path.getsize(path),
        **extra,
    }
    write_part_manifest(index_dir, part, info)
    return info


def committed_parts(index_dir: str, verify_checksum: bool = False) -> dict[int, dict]:
    """part -> manifest for every validly committed part."""
    out: dict[int, dict] = {}
    if not os.path.isdir(index_dir):
        return out
    for name in os.listdir(index_dir):
        if not (name.startswith("segment-") and name.endswith(".manifest.json")):
            continue
        try:
            with open(os.path.join(index_dir, name)) as f:
                info = json.load(f)
        except (json.JSONDecodeError, OSError):
            continue
        part = int(info.get("part", -1))
        payload = segment_path(index_dir, part)
        if info.get("status") != "committed" or not os.path.exists(payload):
            continue
        if verify_checksum:
            with open(payload, "rb") as f:
                if zlib.crc32(f.read()) != info.get("checksum"):
                    continue
        out[part] = info
    return out


def recover(index_dir: str) -> list[str]:
    """Delete orphan payloads (no/invalid manifest) + stale tmp files, and
    roll back a docmap swap that crashed mid-flight (update._recover_docmap_swap).

    Returns the deleted paths (RECOVER analog: purge lingering entries)."""
    deleted: list[str] = []
    if not os.path.isdir(index_dir):
        return deleted
    ddir = os.path.join(index_dir, "docmap")
    if os.path.isdir(ddir + ".old"):
        from .update import _recover_docmap_swap

        _recover_docmap_swap(ddir)
        deleted.append(ddir + ".old")
    good = committed_parts(index_dir)
    for name in sorted(os.listdir(index_dir)):
        path = os.path.join(index_dir, name)
        if name.endswith(".tmp"):
            os.remove(path)
            deleted.append(path)
        elif name.startswith("segment-") and name.endswith(".parquet"):
            part = int(name[len("segment-") : -len(".parquet")])
            if part not in good:
                os.remove(path)
                deleted.append(path)
    return deleted


def write_stats(index_dir: str, stats: dict) -> None:
    atomic_write_bytes(json.dumps(stats, sort_keys=True).encode(), os.path.join(index_dir, "stats.json"))


def read_stats(index_dir: str) -> dict:
    with open(os.path.join(index_dir, "stats.json")) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Snapshot / restore — the reference's archive + recovery surface (a committed
# point-in-time copy with its own integrity manifest; DefaultStateRepository's
# known.list snapshot + the update tool's RECOVER path, StrucmotifUpdate.java:
# 532-546) lifted to whole-index granularity.
#
# Contract: a snapshot is VALID iff its SNAPSHOT.json exists — the manifest is
# written only after every file copy has landed (manifest-last, the same
# two-step every segment publish uses), so a crash mid-snapshot leaves a
# detectably-invalid directory, never a silently short one. Restore stages
# into "<dest>.restoring" with per-file CRC verification against the manifest
# and atomically renames the directory into place — every intermediate crash
# state leaves either no dest or a complete verified one.
#
# Copies run as one num_cpus=0 Ray task per file (the merge docmap-copy
# pattern, engine/update._copy_file): at the 100-TB shape the files live on
# shared storage and the copy fan-out is the cluster's, not the driver's.
# ---------------------------------------------------------------------------

SNAPSHOT_MANIFEST = "SNAPSHOT.json"


def _iter_index_files(index_dir: str):
    for root, _dirs, fs in os.walk(index_dir):
        for f in fs:
            if f.endswith(".tmp") or f == SNAPSHOT_MANIFEST:
                continue
            yield os.path.relpath(os.path.join(root, f), index_dir)


def _file_crc(path: str, chunk: int = 1 << 22) -> tuple[int, int]:
    crc = n = 0
    with open(path, "rb") as f:
        while True:
            b = f.read(chunk)
            if not b:
                break
            crc = zlib.crc32(b, crc)
            n += len(b)
    return crc, n


def snapshot_index(index_dir: str, dest: str) -> dict:
    """Point-in-time snapshot of a committed index into ``dest`` (must not
    exist). Returns the manifest {relpath: {"crc": int, "bytes": int}}."""
    import ray

    if os.path.exists(dest):
        raise ValueError(f"snapshot destination exists: {dest}")
    rels = sorted(_iter_index_files(index_dir))
    if not rels:
        raise ValueError(f"nothing to snapshot in {index_dir}")

    @ray.remote(num_cpus=0)
    def _copy_crc(src: str, dst: str) -> tuple[int, int]:
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        crc = n = 0
        tmp = dst + ".tmp"
        with open(src, "rb") as fi, open(tmp, "wb") as fo:
            while True:
                b = fi.read(1 << 22)
                if not b:
                    break
                crc = zlib.crc32(b, crc)
                n += len(b)
                fo.write(b)
        os.replace(tmp, dst)
        return crc, n

    res = ray.get(
        [
            _copy_crc.remote(os.path.join(index_dir, r), os.path.join(dest, r))
            for r in rels
        ]
    )
    files = {r: {"crc": c, "bytes": n} for r, (c, n) in zip(rels, res)}
    manifest = {"source": os.path.abspath(index_dir), "files": files}
    atomic_write_bytes(
        json.dumps(manifest, sort_keys=True).encode(),
        os.path.join(dest, SNAPSHOT_MANIFEST),
    )
    return manifest


def verify_snapshot(snap_dir: str) -> dict:
    """Re-CRC every manifest file; raises ValueError on a missing manifest,
    missing file, or checksum/size mismatch. Returns the manifest."""
    mpath = os.path.join(snap_dir, SNAPSHOT_MANIFEST)
    if not os.path.exists(mpath):
        raise ValueError(f"not a committed snapshot (no {SNAPSHOT_MANIFEST}): {snap_dir}")
    with open(mpath) as f:
        manifest = json.load(f)
    for rel, info in sorted(manifest["files"].items()):
        p = os.path.join(snap_dir, rel)
        if not os.path.exists(p):
            raise ValueError(f"snapshot file missing: {rel}")
        crc, n = _file_crc(p)
        if crc != info["crc"] or n != info["bytes"]:
            raise ValueError(f"snapshot file corrupt: {rel}")
    return manifest


def restore_index(snap_dir: str, dest: str) -> dict:
    """Restore a snapshot into ``dest`` (must not exist): per-file CRC-verified
    parallel copy into ``<dest>.restoring``, then one atomic directory rename.
    Returns the manifest."""
    import shutil

    import ray

    mpath = os.path.join(snap_dir, SNAPSHOT_MANIFEST)
    if not os.path.exists(mpath):
        raise ValueError(f"not a committed snapshot (no {SNAPSHOT_MANIFEST}): {snap_dir}")
    if os.path.exists(dest):
        raise ValueError(f"restore destination exists: {dest}")
    with open(mpath) as f:
        manifest = json.load(f)
    stage = dest + ".restoring"
    shutil.rmtree(stage, ignore_errors=True)  # stale crash leftover

    @ray.remote(num_cpus=0)
    def _copy_verify(src: str, dst: str, want_crc: int, want_n: int) -> None:
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        crc = n = 0
        tmp = dst + ".tmp"
        with open(src, "rb") as fi, open(tmp, "wb") as fo:
            while True:
                b = fi.read(1 << 22)
                if not b:
                    break
                crc = zlib.crc32(b, crc)
                n += len(b)
                fo.write(b)
        if crc != want_crc or n != want_n:
            os.remove(tmp)
            raise ValueError(f"snapshot file corrupt during restore: {src}")
        os.replace(tmp, dst)

    ray.get(
        [
            _copy_verify.remote(
                os.path.join(snap_dir, rel),
                os.path.join(stage, rel),
                info["crc"],
                info["bytes"],
            )
            for rel, info in sorted(manifest["files"].items())
        ]
    )
    os.rename(stage, dest)
    return manifest
