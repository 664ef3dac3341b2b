"""Pipelines with an actor-pool or CPU-hungry stage must finish on a one-CPU
Ray session. A pool actor that holds the only CPU while an unfused upstream
or downstream task stage waits for one hangs the streaming executor with no
error, so each pipeline runs in a fresh ``num_cpus=1`` session in a
subprocess under a timeout (``run_isolated``: a timeout kills Ray's
processes too, not just the child).
"""

import json
import os
import sys

from conftest import run_isolated

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = r"""
import json, sys
import numpy as np, pyarrow as pa, pyarrow.parquet as pq, ray

ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR", log_to_driver=False)
ray.data.DataContext.get_current().enable_progress_bars = False
from engine.ops import multimodal as mm
from engine.ops.dedup import minhash_lsh_pairs
from engine.synth import generate_transcripts

out_dir = sys.argv[1]
t = generate_transcripts(300, seed=42).select(["text"])
t = t.append_column("doc_id", pa.array(np.arange(t.num_rows), pa.int64()))
planted = [(i, t.num_rows + j) for j, i in enumerate(range(0, 50, 10))]
dups = pa.table({"text": t["text"].take([a for a, _ in planted]),
                 "doc_id": pa.array([b for _, b in planted], pa.int64())})
t = pa.concat_tables([t, dups])
bounds = np.linspace(0, t.num_rows, 5).astype(int)
for i in range(4):  # several files: the read is a real upstream stage
    pq.write_table(t.slice(bounds[i], bounds[i + 1] - bounds[i]), f"{out_dir}/part-{i}.parquet")
pairs = minhash_lsh_pairs(ray.data.read_parquet(out_dir), concurrency=4).to_pandas()
found = set(zip(pairs["doc_a"].tolist(), pairs["doc_b"].tolist()))
media = ray.data.from_arrow(mm.synth_media_table(60))
print(json.dumps({
    "planted_found": all(p in found for p in planted),
    "resized": mm.resize_images(media, concurrency=4).count(),
    "frames": mm.sample_frames(media, concurrency=4).count(),
}))
"""


def test_actor_pool_pipelines_finish_on_one_cpu(tmp_path):
    env = dict(os.environ, PYTHONPATH=REPO)
    proc = run_isolated([sys.executable, "-c", SCRIPT, str(tmp_path)],
                        timeout=150, cwd=REPO, env=env)
    assert proc.returncode == 0, proc.stderr[-2000:]
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["planted_found"]
    assert res["resized"] == 20  # every third synthetic media row is an image
    assert res["frames"] > 0


SHARDED_SCRIPT = r"""
import json, sys
import ray

ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR", log_to_driver=False)
ray.data.DataContext.get_current().enable_progress_bars = False
from engine.build import build_index
from engine.queries import QUERY_SET
import pyarrow as pa
from engine.query import Bm25Index
from engine.serve import batch_topk_sharded
from engine.synth import write_corpus

corpus = write_corpus(sys.argv[1] + "/corpus", n_convs=100, seed=42, n_shards=4)
idx = sys.argv[1] + "/index"
build_index(corpus, idx, n_buckets=4, n_salts=2)
got = batch_topk_sharded(QUERY_SET, idx, n_shards=2, concurrency=2,
                         shard_num_cpus=0.25, coord_num_cpus=0.25)
bm = Bm25Index(idx)
want = pa.concat_tables(
    [bm.topk_table(q["query_id"], q["text"], q["k"]) for q in QUERY_SET]
).sort_by([("query_id", "ascending"), ("rank", "ascending")])
print(json.dumps({"rows": got.num_rows, "equal": got.equals(want)}))
"""


def test_batch_topk_sharded_finishes_on_one_cpu(tmp_path):
    """The coordinator pool reads in-memory blocks: no task stage waits for
    the CPU that the fractional shard and coordinator actors hold."""
    env = dict(os.environ, PYTHONPATH=REPO)
    proc = run_isolated([sys.executable, "-c", SHARDED_SCRIPT, str(tmp_path)],
                        timeout=120, cwd=REPO, env=env)
    assert proc.returncode == 0, proc.stderr[-2000:]
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["rows"] > 0
    assert res["equal"]
