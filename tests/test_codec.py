"""Codec unit tests — varint boundary cases per FIXTURES.md §5.4
(analog of the reference's io/DefaultInvertedIndexTest bucket round-trips)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engine.codec import (
    delta_decode,
    delta_encode,
    varint_decode,
    varint_encode,
    varint_nbytes,
)


def test_empty():
    assert varint_encode(np.array([], dtype=np.uint64)) == b""
    assert len(varint_decode(b"")) == 0
    assert delta_encode(np.array([], dtype=np.int64)) == b""
    assert len(delta_decode(b"")) == 0


def test_singleton_and_boundaries():
    for v in [0, 1, 127, 128, 2**14 - 1, 2**14, 2**21 - 1, 2**21, 2**63, 2**64 - 1]:
        a = np.array([v], dtype=np.uint64)
        enc = varint_encode(a)
        assert len(enc) == varint_nbytes(a)[0]
        assert varint_decode(enc)[0] == v


def test_known_leb128_bytes():
    # 300 = LEB128 [0xAC, 0x02]
    assert varint_encode(np.array([300], dtype=np.uint64)) == bytes([0xAC, 0x02])
    assert varint_encode(np.array([0], dtype=np.uint64)) == b"\x00"
    assert varint_encode(np.array([127], dtype=np.uint64)) == b"\x7f"
    assert varint_encode(np.array([128], dtype=np.uint64)) == bytes([0x80, 0x01])


@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=300))
@settings(max_examples=200, deadline=None)
def test_varint_roundtrip_property(vals):
    a = np.array(vals, dtype=np.uint64)
    assert (varint_decode(varint_encode(a)) == a).all()


@given(
    st.lists(st.integers(min_value=0, max_value=2**62), min_size=1, max_size=500, unique=True)
)
@settings(max_examples=200, deadline=None)
def test_delta_roundtrip_property(ids):
    a = np.sort(np.array(ids, dtype=np.int64))
    assert (delta_decode(delta_encode(a)) == a).all()


def test_long_list_past_2_21():
    # >2^21-long list crosses every varint length boundary (FIXTURES §5.4)
    rng = np.random.default_rng(7)
    ids = np.unique(rng.integers(0, 2**40, size=2**21 + 1000)).astype(np.int64)
    assert (delta_decode(delta_encode(ids)) == ids).all()


def test_delta_rejects_unsorted_and_negative():
    with pytest.raises(ValueError):
        delta_encode(np.array([3, 2], dtype=np.int64))
    with pytest.raises(ValueError):
        delta_encode(np.array([2, 2], dtype=np.int64))  # strictly increasing
    with pytest.raises(ValueError):
        delta_encode(np.array([-1, 2], dtype=np.int64))


def test_truncated_stream_raises():
    with pytest.raises(ValueError):
        varint_decode(bytes([0x80]))  # continuation bit with no next byte


@given(
    st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=12)
)
@settings(max_examples=200, deadline=None)
def test_segment_pairs_matches_bruteforce(lens):
    """dedup._segment_pairs (vectorized triangular decode) == the nested-loop
    definition of all within-segment (i < j) pairs, for any segment layout
    including empty and size-1 segments."""
    import numpy as np

    from engine.ops.dedup import _segment_pairs

    lens = np.asarray(lens, dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
    i, j = _segment_pairs(starts, lens)
    want = sorted(
        (s + p, s + q)
        for s, L in zip(starts, lens)
        for q in range(1, int(L))
        for p in range(q)
    )
    assert sorted(zip(i.tolist(), j.tolist())) == want


def test_encode_bucket_packed_and_fallback_agree():
    """encode_bucket's packed single-key sort path and its >63-bit lexsort
    fallback must produce IDENTICAL segments up to the docID shift that
    selects the path: same grouping, df/cf, tf streams, block metadata, and
    decoded docIDs differing by exactly the shift."""
    import numpy as np
    import pyarrow as pa

    from engine.segments import decode_posting, encode_bucket

    rng = np.random.default_rng(11)
    n_terms, n_rows = 300, 20_000
    t = rng.integers(0, n_terms, n_rows)
    d = rng.integers(0, 500_000, n_rows)
    key = t * 1_000_000 + d
    _, idx = np.unique(key, return_index=True)
    t, d = t[idx], d[idx]
    tf = np.minimum(rng.zipf(1.5, len(t)), 300).astype(np.int32)
    salt = (d % 3).astype(np.int32)
    terms = np.array([f"t{i:04d}" for i in range(n_terms)])

    def build(shift: int) -> pa.Table:
        return pa.table(
            {
                "term": pa.array(terms[t]),
                "salt": pa.array(salt),
                "doc_id": pa.array(d.astype(np.int64) + shift, pa.int64()),
                "tf": pa.array(tf),
                "dl": pa.array(np.full(len(t), 37, dtype=np.int32)),
            }
        )

    seg_packed = encode_bucket(build(0), 40.0)
    # shift pushes doc bits past the 63-bit packed budget -> lexsort fallback
    shift = 1 << 52
    seg_fb = encode_bucket(build(shift), 40.0)

    assert seg_packed.num_rows == seg_fb.num_rows
    assert seg_packed["term"].to_pylist() == seg_fb["term"].to_pylist()
    assert seg_packed["run"].to_pylist() == seg_fb["run"].to_pylist()
    assert seg_packed["df"].to_pylist() == seg_fb["df"].to_pylist()
    assert seg_packed["cf"].to_pylist() == seg_fb["cf"].to_pylist()
    # docIDs differ by the shift
    for i in range(seg_packed.num_rows):
        dp, tp = decode_posting(
            seg_packed["doc_ids_enc"][i].as_py(), seg_packed["tfs_enc"][i].as_py()
        )
        df_, tf_ = decode_posting(
            seg_fb["doc_ids_enc"][i].as_py(), seg_fb["tfs_enc"][i].as_py()
        )
        np.testing.assert_array_equal(dp + shift, df_)
        np.testing.assert_array_equal(tp, tf_)


def test_encode_bucket_rejects_duplicate_rows():
    """Equal (term, salt, doc) rows must raise, in BOTH sort paths."""
    import numpy as np
    import pyarrow as pa
    import pytest as _pytest

    from engine.segments import encode_bucket

    for shift in (0, 1 << 52):
        tbl = pa.table(
            {
                "term": pa.array(["a", "a", "b"]),
                "salt": pa.array(np.zeros(3, dtype=np.int32)),
                "doc_id": pa.array(np.array([5, 5, 7], dtype=np.int64) + shift),
                "tf": pa.array(np.array([1, 2, 1], dtype=np.int32)),
                "dl": pa.array(np.array([4, 4, 4], dtype=np.int32)),
            }
        )
        with _pytest.raises(ValueError, match="duplicate"):
            encode_bucket(tbl, 4.0)


@given(
    st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=300),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=60, deadline=None)
def test_codec_seam_roundtrip_property(vals, n_groups):
    """Pluggable codec seam (VERDICT r2 #8, InvertedIndexBackend analog):
    every registered codec satisfies the STREAM contract — encode_stream
    tiles the flat buffer with per-group self-describing blobs, decode(blob)
    round-trips each group, and decode_stream over the groups' binary column
    returns every value in order with each blob's value count."""
    import pyarrow as pa

    from engine.codec import CODECS

    a = np.array(vals, dtype=np.uint64)
    gs = np.sort(
        np.concatenate(
            ([0], (np.arange(1, n_groups) * len(a)) // n_groups)
        )
    ).astype(np.int64)
    ge = np.append(gs[1:], len(a))
    for name, cdc in CODECS.items():
        flat, gends, third = cdc.encode_stream(a, gs)
        assert third is None, name
        assert int(gends[-1]) == len(flat) if len(gends) else len(flat) == 0, name
        gstarts_b = np.concatenate(([0], gends[:-1]))
        blobs = []
        for g in range(len(gs)):
            blob = flat[int(gstarts_b[g]) : int(gends[g])]
            expect = a[int(gs[g]) : int(ge[g])]
            np.testing.assert_array_equal(cdc.decode(blob), expect, err_msg=name)
            blobs.append(blob)
        got, counts = cdc.decode_stream(pa.array(blobs, pa.binary()))
        np.testing.assert_array_equal(got, a, err_msg=name)
        np.testing.assert_array_equal(counts, ge - gs, err_msg=name)


def test_pfor_block_layout_and_sizes():
    """pfor wire format facts: all-small values pack at the max block width;
    a 128-aligned group has no varint tail; width-0 blocks carry no payload."""
    from engine.codec import Pfor128Codec

    c = Pfor128Codec()
    a = np.full(128, 5, dtype=np.uint64)  # width 3
    flat, gends, _ = c.encode_stream(a, np.array([0]))
    # 1 header byte (F=1) + 1 width byte + 16*3 payload
    assert len(flat) == 1 + 1 + 48
    assert (c.decode(flat) == a).all()
    z = np.zeros(256, dtype=np.uint64)
    flat, _, _ = c.encode_stream(z, np.array([0]))
    assert len(flat) == 1 + 2  # F=2, two width-0 blocks, no payload
    assert (c.decode(flat) == z).all()


def test_unknown_codec_rejected():
    import pytest

    from engine.codec import get_codec

    with pytest.raises(ValueError, match="unknown postings codec"):
        get_codec("nope")
