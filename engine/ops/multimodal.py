"""Multimodal column plumbing: opaque binary payloads + typed metadata.

Images/audio/video are treated as opaque ``binary`` columns with typed
metadata columns beside them. The Ray-side plumbing — schema, actor-pool
signature, small-batch sizing for fat rows, output layout — is real and
tested; the *decoders themselves* are STUBS because no image/audio libraries
exist in this environment:

- ``decode=\"fake\"``  -> a deterministic pure-numpy pseudo-decoder (bytes ->
  seeded feature vector) so the full pipeline is executable + testable;
- ``decode=\"real\"``  -> raises NotImplementedError("no codec library ...")
  at actor construction, marking exactly where PIL/torchaudio/pyav would load.

Scale notes baked in: payloads stay in Arrow binary columns end-to-end
(``batch_format=\"pyarrow\"``; no pandas object-dtype round-trip), batch_size
for fat rows must be small (default 64) so batch x concurrency fits the heap.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

MEDIA_SCHEMA = pa.schema(
    [
        pa.field("media_id", pa.int64()),
        pa.field("kind", pa.string()),  # image | audio | video
        pa.field("payload", pa.binary()),
        pa.field("width", pa.int32()),
        pa.field("height", pa.int32()),
        pa.field("sample_rate", pa.int32()),
        pa.field("n_frames", pa.int32()),
    ]
)


def synth_media_table(n: int, seed: int = 42) -> pa.Table:
    """Deterministic fake media corpus (binary payloads of varying size)."""
    rng = np.random.default_rng(seed)
    kinds = np.array(["image", "audio", "video"])[np.arange(n) % 3]
    payloads = [rng.integers(0, 256, size=int(s), dtype=np.uint8).tobytes()
                for s in rng.integers(256, 4096, size=n)]
    return pa.table(
        {
            "media_id": pa.array(np.arange(n), pa.int64()),
            "kind": pa.array(kinds, pa.string()),
            "payload": pa.array(payloads, pa.binary()),
            "width": pa.array(rng.integers(16, 512, n).astype(np.int32)),
            "height": pa.array(rng.integers(16, 512, n).astype(np.int32)),
            "sample_rate": pa.array(np.where(kinds == "audio", 16000, 0).astype(np.int32)),
            "n_frames": pa.array(np.where(kinds == "video", rng.integers(10, 100, n), 0).astype(np.int32)),
        },
        schema=MEDIA_SCHEMA,
    )


class MediaFeaturizer:
    """Actor-pool stage: binary payload -> fixed-size feature vector.

    The actor-pool shape is the real deliverable: heavy decoder state loads
    once per actor in ``__init__`` (T1/T5 stateful-stage analog), work is
    per-batch, batches stay Arrow. Use
    ``ds.map_batches(MediaFeaturizer, fn_constructor_kwargs=..., batch_size=64,
    concurrency=N, num_cpus=1, batch_format="pyarrow")``.
    """

    def __init__(self, dim: int = 32, decode: str = "fake"):
        if decode == "real":
            raise NotImplementedError(
                "no image/audio codec library in this environment; "
                "plug PIL/torchaudio/pyav here (loaded once per actor)"
            )
        if decode != "fake":
            raise ValueError(f"unknown decode mode: {decode}")
        self.dim = dim
        # deterministic projection matrix = the 'model' loaded once per actor
        rng = np.random.default_rng(1234)
        self.proj = rng.standard_normal((256, dim))

    def __call__(self, batch: pa.Table) -> pa.Table:
        feats = np.zeros((batch.num_rows, self.dim), dtype=np.float32)
        payloads = batch["payload"]
        for i in range(batch.num_rows):  # rows are FAT (KB..MB); loop is per-payload decode
            buf = np.frombuffer(payloads[i].as_py(), dtype=np.uint8)
            hist = np.bincount(buf, minlength=256).astype(np.float64)
            hist /= max(hist.sum(), 1.0)
            feats[i] = (hist @ self.proj).astype(np.float32)
        return pa.table(
            {
                "media_id": batch["media_id"],
                "kind": batch["kind"],
                "feature": pa.array(list(feats)),
            }
        )


def featurize(ds, dim: int = 32, concurrency: int = 2, batch_size: int = 64):
    """The standard multimodal pipeline: actor pool, small batches, Arrow I/O."""
    return ds.map_batches(
        MediaFeaturizer,
        fn_constructor_kwargs={"dim": dim, "decode": "fake"},
        batch_format="pyarrow",
        batch_size=batch_size,
        # (1, n) autoscaling: fixed pools == CPU budget deadlock vs downstream
        # task stages; see engine/ops/dedup.py.
        concurrency=(1, concurrency),
        num_cpus=1,
    )


class ImageResizer:
    """Actor-pool stage: image payload -> nearest-neighbor resized payload.

    Same stub discipline as MediaFeaturizer: ``decode="fake"`` interprets the
    payload as a row-major uint8 grayscale grid of the row's (height, width)
    metadata (truncated / zero-padded), then applies a REAL vectorized
    nearest-neighbor index gather; ``decode="real"`` raises where PIL/cv2
    would load once per actor. Output payloads are exactly
    ``out_w * out_h`` bytes."""

    def __init__(self, out_w: int = 32, out_h: int = 32, decode: str = "fake"):
        if decode == "real":
            raise NotImplementedError(
                "no image codec library in this environment; plug PIL/cv2 here"
            )
        if decode != "fake":
            raise ValueError(f"unknown decode mode: {decode}")
        self.out_w, self.out_h = int(out_w), int(out_h)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ow, oh = self.out_w, self.out_h
        out = []
        widths = batch["width"].to_numpy(zero_copy_only=False)
        heights = batch["height"].to_numpy(zero_copy_only=False)
        payloads = batch["payload"]
        for i in range(batch.num_rows):  # rows are FAT; loop is per-payload
            w, h = int(widths[i]), int(heights[i])
            buf = np.frombuffer(payloads[i].as_py(), dtype=np.uint8)
            grid = np.zeros(h * w, dtype=np.uint8)
            grid[: min(len(buf), h * w)] = buf[: h * w]
            grid = grid.reshape(h, w)
            ys = (np.arange(oh) * h) // oh
            xs = (np.arange(ow) * w) // ow
            out.append(grid[ys][:, xs].tobytes())
        return pa.table(
            {
                "media_id": batch["media_id"],
                "width": pa.array(np.full(batch.num_rows, ow, dtype=np.int32)),
                "height": pa.array(np.full(batch.num_rows, oh, dtype=np.int32)),
                "payload": pa.array(out, pa.binary()),
            }
        )


def _rows_of_kind(batch: pa.Table, kind: str) -> pa.Table:
    # a map_batches filter, not Dataset.filter: Ray Data fuses it into the
    # actor pool's tasks, while a separate filter stage needs a CPU of its own
    # that the pool's actor holds at num_cpus=1 (the pipeline then hangs)
    return batch.filter(pc.equal(batch["kind"], kind))


def resize_images(ds, out_w: int = 32, out_h: int = 32, concurrency: int = 2, batch_size: int = 64):
    """Resize pipeline over the image rows only (pruned with a row filter
    BEFORE the actor pool so non-image payloads never ship to it)."""
    return ds.map_batches(_rows_of_kind, fn_kwargs={"kind": "image"}, batch_format="pyarrow").map_batches(
        ImageResizer,
        fn_constructor_kwargs={"out_w": out_w, "out_h": out_h, "decode": "fake"},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=(1, concurrency),
        num_cpus=1,
    )


class FrameSampler:
    """Actor-pool stage: video payload -> EXPLODED sampled-frame rows.

    ``decode="fake"`` splits the payload into ``n_frames`` equal byte chunks
    (the stand-in for real frame decode); every ``every``-th frame is
    emitted as its own row (media_id, frame_idx, frame) — the 1-to-many
    flat-map shape of real frame sampling, with binary slicing zero-copy on
    the Arrow buffer until ``.tobytes()``."""

    def __init__(self, every: int = 10, decode: str = "fake"):
        if decode == "real":
            raise NotImplementedError(
                "no video codec library in this environment; plug pyav here"
            )
        if decode != "fake":
            raise ValueError(f"unknown decode mode: {decode}")
        self.every = max(int(every), 1)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, idxs, frames = [], [], []
        nfs = batch["n_frames"].to_numpy(zero_copy_only=False)
        mids = batch["media_id"].to_numpy(zero_copy_only=False)
        payloads = batch["payload"]
        for i in range(batch.num_rows):  # rows are FAT; loop is per-payload
            nf = int(nfs[i])
            if nf <= 0:
                continue
            buf = payloads[i].as_py()
            fsize = max(len(buf) // nf, 1)
            for j in range(0, nf, self.every):
                ids.append(int(mids[i]))
                idxs.append(j)
                frames.append(buf[j * fsize : (j + 1) * fsize])
        return pa.table(
            {
                "media_id": pa.array(ids, pa.int64()),
                "frame_idx": pa.array(idxs, pa.int64()),
                "frame": pa.array(frames, pa.binary()),
            }
        )


def sample_frames(ds, every: int = 10, concurrency: int = 2, batch_size: int = 64):
    """Frame-sampling pipeline over the video rows only."""
    return ds.map_batches(_rows_of_kind, fn_kwargs={"kind": "video"}, batch_format="pyarrow").map_batches(
        FrameSampler,
        fn_constructor_kwargs={"every": every, "decode": "fake"},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=(1, concurrency),
        num_cpus=1,
    )
