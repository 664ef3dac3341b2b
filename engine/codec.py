"""Posting-list compression: delta + LEB128 varint, numpy-vectorized.

The reference serializes posting buckets with Colfer, whose arrays are
LEB128-style varints (/root/reference/strucmotif-search-core/src/main/java/
org/rcsb/strucmotif/io/codec/ColferCodec.java:118-133) and rejects gzip on top
(32x slower reads, strucmotif-search-benchmark/.../io/InvertedIndexRunner.java:71-84).
We keep the same wire idea — unsigned LEB128 — but require sorted docIDs so we
can delta-encode (the reference's buckets are HashMap-ordered and cannot).

All encode/decode paths are vectorized numpy (no per-value Python loop): encode
iterates at most 10 times over *byte positions*, decode reconstructs values with
``np.bitwise_or.at`` over a flat byte array. This codec runs inside
``map_groups`` on the build side and inside query actors on the read side, so
it must be fast on million-entry lists.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

_U64_7 = np.uint64(7)
_U64_127 = np.uint64(0x7F)


def varint_nbytes(values: np.ndarray) -> np.ndarray:
    """LEB128 byte length per value (int64 array). Vectorized."""
    a = np.ascontiguousarray(values, dtype=np.uint64)
    nbytes = np.ones(a.size, dtype=np.int64)
    v = a >> _U64_7
    while v.any():
        nbytes += v > 0
        v >>= _U64_7
    return nbytes


def varint_encode(
    values: np.ndarray,
    nbytes: np.ndarray | None = None,
    byte_ends: np.ndarray | None = None,
) -> bytes:
    """Encode a uint64 array as concatenated unsigned LEB128 varints.

    ``nbytes``: optional precomputed :func:`varint_nbytes` result;
    ``byte_ends``: optional precomputed ``np.cumsum(nbytes)``. Callers that
    already need per-value lengths and offsets (to slice the flat buffer into
    per-group binaries) pass them in so each pass runs once, not twice."""
    a = np.ascontiguousarray(values, dtype=np.uint64)
    n = a.size
    if n == 0:
        return b""
    if nbytes is None:
        # bytes needed per value: ceil(bit_length / 7), min 1
        nbytes = np.ones(n, dtype=np.int64)
        v = a >> _U64_7
        while v.any():
            nbytes += v > 0
            v >>= _U64_7
    max_nb = int(nbytes.max())
    if max_nb == 1:  # all values < 128 (typical tf stream): one cast, done
        return a.astype(np.uint8).tobytes()
    ends = np.cumsum(nbytes) if byte_ends is None else byte_ends
    starts = ends - nbytes
    out = np.empty(int(ends[-1]), dtype=np.uint8)
    # byte-position formulation: byte k of every value with nbytes > k, one
    # shrinking masked pass per k — no working copies of (vals, pos,
    # remaining), ~3 ops/pass instead of 6 (this encoder is on the
    # bandwidth-bound build hot path)
    b0 = (a & _U64_127).astype(np.uint8)
    b0 |= (nbytes > 1).astype(np.uint8) << 7
    out[starts] = b0  # byte 0 of every value
    for k in range(1, max_nb):
        m = nbytes > k
        av = a[m] >> np.uint64(7 * k)
        b = (av & _U64_127).astype(np.uint8)
        b |= (nbytes[m] > k + 1).astype(np.uint8) << 7
        out[starts[m] + k] = b
    return out.tobytes()


def varint_decode(buf: bytes) -> np.ndarray:
    """Decode concatenated unsigned LEB128 varints into a uint64 array."""
    b = np.frombuffer(buf, dtype=np.uint8)
    if b.size == 0:
        return np.empty(0, dtype=np.uint64)
    is_last = (b & 0x80) == 0
    if not is_last[-1]:
        raise ValueError("truncated varint stream")
    # value index for every byte
    idx = np.zeros(b.size, dtype=np.int64)
    np.cumsum(is_last[:-1], out=idx[1:])
    n = int(is_last.sum())
    # byte offset within its value -> shift amount
    value_starts = np.flatnonzero(np.concatenate(([True], is_last[:-1])))
    offset = np.arange(b.size, dtype=np.int64) - value_starts[idx]
    if offset.max() >= 10:
        raise ValueError("varint longer than 10 bytes")
    out = np.zeros(n, dtype=np.uint64)
    contrib = (b & 0x7F).astype(np.uint64) << (offset.astype(np.uint64) * _U64_7)
    np.bitwise_or.at(out, idx, contrib)
    return out


class _PerValueStream:
    """Shared stream-level API for codecs whose wire format is a plain
    concatenation of independently-sized values (varint, raw64): a group's
    blob is a contiguous slice of the flat encoding. Block codecs (Pfor128)
    give their own ``encode_stream``."""

    def encode_stream(self, values, group_starts):
        """Encode ``values`` into per-group blobs.

        Returns ``(flat: bytes, group_ends: int64[n_groups], None)`` where
        ``flat[group_ends[g-1]:group_ends[g]]`` is group ``g``'s blob
        (self-describing: ``decode`` accepts it). The third element is
        always None; it stays so that three-value unpacking keeps working."""
        values = np.ascontiguousarray(values, dtype=np.uint64)
        nb = self.nbytes(values)
        ends = np.cumsum(nb)
        flat = self.encode_flat(values, nbytes=nb, byte_ends=ends)
        n = values.size
        total = int(ends[-1]) if n else 0
        gs = np.asarray(group_starts, dtype=np.int64)
        # byte start of each group = byte start of its first value
        gb_starts = np.where(gs < n, ends[np.minimum(gs, n - 1)] - nb[np.minimum(gs, n - 1)], total) if n else np.zeros(len(gs), dtype=np.int64)
        group_ends = np.append(gb_starts[1:], total).astype(np.int64)
        return flat, group_ends, None


def blob_buffers(blobs) -> tuple[np.ndarray, np.ndarray]:
    """A ``pa.binary()`` column as ``(data, offsets)``: the uint8 bytes its blobs
    tile and the int64 byte offset of each blob boundary (``offsets[0] ==
    0``), read straight from the Arrow buffers with no per-blob copy."""
    if isinstance(blobs, pa.ChunkedArray):
        blobs = blobs.combine_chunks()
    if len(blobs) == 0:
        return np.empty(0, dtype=np.uint8), np.zeros(1, dtype=np.int64)
    _, off_buf, data_buf = blobs.buffers()
    offs = np.frombuffer(off_buf, dtype=np.int32)[blobs.offset : blobs.offset + len(blobs) + 1]
    offs = offs.astype(np.int64)
    data = np.frombuffer(data_buf, dtype=np.uint8)[offs[0] : offs[-1]]
    return data, offs - offs[0]


class VarintCodec(_PerValueStream):
    """Default posting-stream codec: unsigned LEB128 (see module docstring).
    The ColferCodec analog (CORE/io/codec/ColferCodec.java:118-133) —
    smaller files, fast vectorized read/write."""

    name = "varint"

    def nbytes(self, values: np.ndarray) -> np.ndarray:
        return varint_nbytes(values)

    def encode_flat(self, values, nbytes=None, byte_ends=None) -> bytes:
        return varint_encode(values, nbytes=nbytes, byte_ends=byte_ends)

    def decode(self, buf: bytes) -> np.ndarray:
        return varint_decode(buf)

    def decode_stream(self, blobs) -> tuple[np.ndarray, np.ndarray]:
        """Mirror of ``encode_stream``: every blob of a binary column in ONE
        decode of the column's data buffer (a varint never spans blobs).
        Returns ``(values, counts)``; ``counts[g]`` is the number of values
        that END in blob ``g`` (its terminal bytes), so a blob whose last
        varint runs into the next blob shows up as a miscount."""
        data, offs = blob_buffers(blobs)
        done = np.zeros(len(data) + 1, dtype=np.int64)
        np.cumsum((data & 0x80) == 0, out=done[1:])
        return varint_decode(data), np.diff(done[offs])


class Raw64Codec(_PerValueStream):
    """Fixed-width little-endian uint64 stream — the JsonCodec analog
    (CORE/io/codec/JsonCodec.java: 'useful for debugging'): every value is
    byte-aligned and directly inspectable with ``np.frombuffer(buf, '<u8')``
    at the cost of ~4-8x the bytes."""

    name = "raw64"

    def nbytes(self, values: np.ndarray) -> np.ndarray:
        return np.full(np.asarray(values).size, 8, dtype=np.int64)

    def encode_flat(self, values, nbytes=None, byte_ends=None) -> bytes:
        return np.ascontiguousarray(values, dtype="<u8").tobytes()

    def decode(self, buf: bytes) -> np.ndarray:
        if len(buf) % 8:
            raise ValueError("truncated raw64 stream")
        return np.frombuffer(buf, dtype="<u8").astype(np.uint64)

    def decode_stream(self, blobs) -> tuple[np.ndarray, np.ndarray]:
        """Mirror of ``encode_stream``: one decode of the column's data
        buffer; ``(values, per-blob value counts)``."""
        data, offs = blob_buffers(blobs)
        sizes = np.diff(offs)
        if (sizes % 8).any():
            raise ValueError("truncated raw64 blob")
        return self.decode(data), sizes // 8


_BIT = np.arange(64, dtype=np.uint64)


def _bit_widths(m: np.ndarray) -> np.ndarray:
    """Bits needed per value (0 for 0) — floor(log2(v))+1, vectorized."""
    w = np.zeros(m.size, dtype=np.int64)
    tmp = m.copy()
    while tmp.any():
        w += tmp > 0
        tmp >>= np.uint64(1)
    return w


class Pfor128Codec:
    """Frame-of-reference binary packing in 128-value blocks + varint tail —
    the Lucene-ForUtil-style production alternative to vByte (PFOR family:
    Zukowski et al., ICDE'06; Lemire & Boytsov, SPE'15 — patched exceptions
    dropped per the modern practice of per-block exact widths).

    Wire format per group blob (self-describing):
      [varint F = number of full 128-value blocks]
      F x [1 byte width b][16*b bytes of 128 values bit-packed LSB-first]
      [unsigned LEB128 varints for the < 128 tail values]

    Encode and decode are vectorized across blocks grouped by width — no
    per-value Python.

    Mirrors the second production backend of the reference
    (CORE/config/InvertedIndexBackend.java:10-18: COLFER | MESSAGE_PACK);
    ours differ in wire format, same pluggable-seam role."""

    name = "pfor"

    # --- per-value API (used by tests and generic paths; tail-only format
    # would be wrong for >=128-value streams, so route through the stream
    # API instead of pretending to be per-value) -------------------------
    def decode(self, buf: bytes) -> np.ndarray:
        b = np.frombuffer(buf, dtype=np.uint8)
        if b.size == 0:
            return np.empty(0, dtype=np.uint64)
        # parse header varint F
        f = 0
        shift = 0
        p = 0
        while True:
            byte = int(b[p])
            f |= (byte & 0x7F) << shift
            p += 1
            shift += 7
            if not byte & 0x80:
                break
        widths = np.empty(f, dtype=np.int64)
        offs = np.empty(f, dtype=np.int64)
        for i in range(f):
            w = int(b[p])
            widths[i] = w
            offs[i] = p + 1
            p += 1 + 16 * w
        out = np.zeros(f * 128, dtype=np.uint64)
        ov = out.reshape(f, 128) if f else out.reshape(0, 128)
        for w in np.unique(widths) if f else ():
            w = int(w)
            rows = np.flatnonzero(widths == w)
            if w == 0:
                continue
            idx = offs[rows, None] + np.arange(16 * w, dtype=np.int64)[None, :]
            payload = b[idx]  # (k, 16*w)
            bits = np.unpackbits(payload, axis=1, bitorder="little")  # (k, 128*w)
            bits = bits.reshape(len(rows), 128, w).astype(np.uint64)
            ov[rows] = (bits << _BIT[:w]).sum(axis=2, dtype=np.uint64)
        tail = varint_decode(b[p:].tobytes())
        return np.concatenate([out, tail]) if len(tail) else out

    # --- stream API ------------------------------------------------------
    def decode_stream(self, blobs) -> tuple[np.ndarray, np.ndarray]:
        """Mirror of ``encode_stream``: ``(values, per-blob value counts)``.
        Blob by blob — each blob carries its own block header, so the blobs
        do not concatenate into one decodable stream."""
        data, offs = blob_buffers(blobs)
        vals = [self.decode(data[offs[g] : offs[g + 1]]) for g in range(len(offs) - 1)]
        counts = np.array([len(v) for v in vals], dtype=np.int64)
        return (np.concatenate(vals) if vals else np.empty(0, dtype=np.uint64)), counts

    def encode_stream(self, values, group_starts):
        """Per-group blobs in the wire format above; same return shape as
        ``_PerValueStream.encode_stream`` (third element None)."""
        a = np.ascontiguousarray(values, dtype=np.uint64)
        n = a.size
        gs = np.asarray(group_starts, dtype=np.int64)
        ng = len(gs)
        ge = np.append(gs[1:], n)
        glen = ge - gs
        nfull = glen >> 7  # full 128-blocks per group
        npacked = nfull << 7
        # split packed region / tail, per group
        wi = np.arange(n, dtype=np.int64) - np.repeat(gs, glen)
        packed_mask = wi < np.repeat(npacked, glen)
        packed = a[packed_mask]
        nblocks = int(nfull.sum())
        pk2 = packed.reshape(nblocks, 128)
        w = _bit_widths(pk2.max(axis=1)) if nblocks else np.empty(0, dtype=np.int64)
        bsz = 1 + 16 * w  # width byte + payload
        # per-group byte accounting
        bofs = np.zeros(ng + 1, dtype=np.int64)
        np.cumsum(nfull, out=bofs[1:])  # first block index per group
        blk_bytes = np.zeros(ng, dtype=np.int64)
        if nblocks:
            bgid = np.repeat(np.arange(ng, dtype=np.int64), nfull)
            blk_bytes = np.bincount(bgid, weights=bsz, minlength=ng).astype(np.int64)
        tail = a[~packed_mask]
        tlen = glen - npacked
        tv_nb = varint_nbytes(tail) if len(tail) else np.empty(0, dtype=np.int64)
        tail_bytes = np.zeros(ng, dtype=np.int64)
        if len(tail):
            tgid = np.repeat(np.arange(ng, dtype=np.int64), tlen)
            tail_bytes = np.bincount(tgid, weights=tv_nb, minlength=ng).astype(np.int64)
        hdr_nb = varint_nbytes(nfull.astype(np.uint64))
        gsize = hdr_nb + blk_bytes + tail_bytes
        goff = np.zeros(ng + 1, dtype=np.int64)
        np.cumsum(gsize, out=goff[1:])
        out = np.zeros(int(goff[-1]), dtype=np.uint8)
        # headers: varint(F) per group, scattered byte-position-wise
        hdr_flat = np.frombuffer(
            varint_encode(nfull.astype(np.uint64), nbytes=hdr_nb), dtype=np.uint8
        )
        hdr_ends = np.cumsum(hdr_nb)
        hdr_starts = hdr_ends - hdr_nb
        for k in range(int(hdr_nb.max(initial=0))):
            m = hdr_nb > k
            out[goff[:-1][m] + k] = hdr_flat[hdr_starts[m] + k]
        # block byte starts (within flat)
        if nblocks:
            csz = np.cumsum(bsz)
            base = csz - bsz  # global exclusive prefix
            first_blk = np.minimum(bofs[:-1], nblocks - 1)
            within_blk = base - np.repeat(base[first_blk], nfull)
            blk_start = np.repeat(goff[:-1] + hdr_nb, nfull) + within_blk
            out[blk_start] = w.astype(np.uint8)
            for bw in np.unique(w):
                bw = int(bw)
                if bw == 0:
                    continue
                rows = np.flatnonzero(w == bw)
                v = pk2[rows]  # (k, 128)
                bits = ((v[:, :, None] >> _BIT[:bw]) & np.uint64(1)).astype(np.uint8)
                payload = np.packbits(
                    bits.reshape(len(rows), 128 * bw), axis=1, bitorder="little"
                )  # (k, 16*bw)
                idx = blk_start[rows, None] + 1 + np.arange(16 * bw, dtype=np.int64)[None, :]
                out[idx] = payload
        # tail varints, scattered per value
        if len(tail):
            tv_flat = np.frombuffer(
                varint_encode(tail, nbytes=tv_nb), dtype=np.uint8
            )
            tv_ends = np.cumsum(tv_nb)
            tv_base = tv_ends - tv_nb
            ntail_total = len(tail)
            first_tail = np.zeros(ng + 1, dtype=np.int64)
            np.cumsum(tlen, out=first_tail[1:])
            fb = tv_base[np.minimum(first_tail[:-1], ntail_total - 1)]
            within_tail = tv_base - np.repeat(fb, tlen)
            tgt = np.repeat(goff[:-1] + hdr_nb + blk_bytes, tlen) + within_tail
            for k in range(int(tv_nb.max(initial=0))):
                m = tv_nb > k
                out[tgt[m] + k] = tv_flat[tv_base[m] + k]
        return out.tobytes(), goff[1:].copy(), None


#: registry — the InvertedIndexBackend analog
#: (CORE/config/InvertedIndexBackend.java:10-18); the codec NAME is persisted
#: in stats.json at build time and resolved here on every read path, so a
#: segment bundle is always decoded with the codec that wrote it.
CODECS = {c.name: c for c in (VarintCodec(), Raw64Codec(), Pfor128Codec())}
DEFAULT_CODEC = "varint"


def get_codec(name: str | None):
    try:
        return CODECS[name or DEFAULT_CODEC]
    except KeyError:
        raise ValueError(
            f"unknown postings codec {name!r}; available: {sorted(CODECS)}"
        ) from None


def delta_encode(sorted_ids: np.ndarray) -> bytes:
    """Delta + varint encode a strictly-increasing int64 array (docIDs)."""
    a = np.ascontiguousarray(sorted_ids, dtype=np.int64)
    if a.size == 0:
        return b""
    if a.size > 1 and not (a[1:] > a[:-1]).all():
        raise ValueError("doc_ids must be strictly increasing for delta encoding")
    if a[0] < 0:
        raise ValueError("doc_ids must be non-negative")
    deltas = np.empty(a.size, dtype=np.uint64)
    deltas[0] = np.uint64(a[0])
    np.subtract(a[1:], a[:-1], out=deltas[1:], casting="unsafe")
    return varint_encode(deltas)


def delta_decode(buf: bytes) -> np.ndarray:
    """Inverse of :func:`delta_encode`; returns int64 docIDs."""
    deltas = varint_decode(buf)
    return np.cumsum(deltas.astype(np.int64))
