"""``decode_bucket``/``decode_runs`` are the exact inverse of
``encode_bucket``: every part of a built-then-ADDed index (so terms hold
delta runs beside their salt runs) re-encodes from its decode byte for
byte, for every codec with and without positions. A part whose ``df``
disagrees with its payload raises the typed decode error instead of
returning postings."""

import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

VOCAB = [f"w{i:03d}" for i in range(80)]


def _table(rng, ids) -> pa.Table:
    texts = []
    for _ in ids:
        ranks = np.minimum(rng.zipf(1.3, int(rng.integers(1, 50))), len(VOCAB)) - 1
        texts.append(" ".join(VOCAB[j] for j in ranks))
    return pa.table({"doc_id": pa.array(list(ids), pa.int64()), "text": texts})


def _index(tmp_path, codec: str, positions: bool) -> str:
    import ray.data

    from engine.build import build_index
    from engine.update import add_documents

    rng = np.random.default_rng(5)
    idx = str(tmp_path / f"{codec}-{positions}")
    build_index(ray.data.from_arrow(_table(rng, range(300))), idx, id_col="doc_id",
                n_buckets=2, n_salts=2, hot_fraction=0.05, postings_codec=codec,
                positions=positions, resume=False)
    add_documents(idx, ray.data.from_arrow(_table(rng, range(300, 400))), id_col="doc_id")
    return idx


def _parts(idx: str) -> list[pa.Table]:
    from engine import state

    return [pq.read_table(state.segment_path(idx, p)) for p in sorted(state.committed_parts(idx))]


@pytest.mark.parametrize("positions", [False, True])
@pytest.mark.parametrize("codec", ["varint", "pfor", "raw64"])
def test_encode_of_decode_is_identity(ray_session, tmp_path, codec, positions):
    from engine.segments import decode_bucket, decode_posting, decode_runs, encode_bucket

    parts = _parts(_index(tmp_path, codec, positions))
    runs = pa.concat_tables(parts)
    assert max(runs["run"].to_pylist()) >= 2, "the ADD must leave delta runs"
    assert max(runs["df"].to_pylist()) > 128, "some run must span several blocks"
    for seg in parts:
        again = encode_bucket(decode_bucket(seg, codec), codec=codec)
        assert again.equals(seg), codec
        # the whole-part decode equals the run-by-run one
        dec = decode_runs(seg, codec)
        one_by_one = [decode_posting(d, t, codec=codec) for d, t in
                      zip(seg["doc_ids_enc"].to_pylist(), seg["tfs_enc"].to_pylist())]
        np.testing.assert_array_equal(dec.doc, np.concatenate([d for d, _ in one_by_one]))
        np.testing.assert_array_equal(dec.tf, np.concatenate([t for _, t in one_by_one]))


@pytest.mark.parametrize("codec", ["varint", "pfor", "raw64"])
def test_df_disagreeing_with_payload_raises(ray_session, tmp_path, codec):
    from engine import state
    from engine.segments import SegmentDecodeError, SegmentReader, decode_runs

    idx = _index(tmp_path, codec, False)
    part = sorted(state.committed_parts(idx))[0]
    seg = pq.read_table(state.segment_path(idx, part))
    df = seg["df"].to_numpy().copy()
    df[0] += 1
    bad = seg.set_column(seg.schema.get_field_index("df"), "df", pa.array(df))
    with pytest.raises(SegmentDecodeError):
        decode_runs(bad, codec)
    # two runs off in opposite directions keep the part's total: still a
    # miscount per run, not postings shifted from one run into the next
    df[1] -= 1
    shifted = seg.set_column(seg.schema.get_field_index("df"), "df", pa.array(df))
    with pytest.raises(SegmentDecodeError):
        decode_runs(shifted, codec)

    broken = str(tmp_path / "broken")
    shutil.copytree(idx, broken)
    pq.write_table(bad, state.segment_path(broken, part))
    term = seg["term"][0].as_py()
    with pytest.raises(SegmentDecodeError):
        SegmentReader(broken).postings(term)
