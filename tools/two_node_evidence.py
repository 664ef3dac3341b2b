"""Multi-node build evidence (north rule: N vs 4N *nodes*; VERDICT r4
"What's missing" #1).

Run against a RUNNING multi-node Ray cluster (e.g. `ray start --head
--num-cpus=16` plus `ray start --address=<head> --num-cpus=16` on this or
another host):

    RAY_ADDRESS=<head-ip>:6379 python tools/two_node_evidence.py \
        --corpus /tmp/graft_bench/corpus_150000 --index /tmp/two_node_idx

It (1) asserts the cluster has >= 2 alive nodes, (2) runs the standard
`engine.build.build_index` job through the same code path
`jobs/submit_build.py` uses, (3) reads back every committed part manifest
and counts encode tasks per EXECUTING NODE (each build `encode_part` task
stamps `ray.get_runtime_context().get_node_id()` into its manifest — the
sandbox has no dashboard/state API, so the manifests are the task-level
placement record), and (4) prints one JSON evidence line. Evidence holds
only if >= 2 distinct node_ids appear among the manifests.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> int:
    p = argparse.ArgumentParser(prog="tools/two_node_evidence.py")
    p.add_argument("--corpus", required=True)
    p.add_argument("--index", required=True)
    p.add_argument("--salts", type=int, default=2)
    args = p.parse_args()

    import ray

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ray.init(
        address=os.environ.get("RAY_ADDRESS", "auto"),
        include_dashboard=False,
        logging_level="ERROR",
        runtime_env={"env_vars": {"PYTHONPATH": repo}},
    )
    nodes = [n for n in ray.nodes() if n["Alive"]]
    if len(nodes) < 2:
        print(json.dumps({"error": f"cluster has {len(nodes)} node(s); need >= 2"}))
        return 1

    from engine.build import build_index
    from engine.state import committed_parts

    if os.path.isdir(args.index):
        shutil.rmtree(args.index)  # fresh build: no resume-skipped parts
    t0 = time.perf_counter()
    build_index(args.corpus, args.index, n_buckets="auto", n_salts=args.salts, resume=False)
    dt = time.perf_counter() - t0

    parts = committed_parts(args.index)
    per_node = collections.Counter(
        m.get("node_id", "<missing>") for m in parts.values()
    )
    with open(os.path.join(args.index, "stats.json")) as f:
        stats = json.load(f)
    line = {
        "cluster_nodes": len(nodes),
        "cluster_cpus": int(ray.cluster_resources().get("CPU", 0)),
        "n_docs": stats["n_docs"],
        "sec": round(dt, 3),
        "turns_per_sec": round(stats["n_docs"] / dt, 1),
        "n_parts": len(parts),
        "encode_parts_per_node": {k[:12]: v for k, v in sorted(per_node.items())},
        "nodes_used": len([k for k in per_node if k != "<missing>"]),
        "multi_node_evidence": len([k for k in per_node if k != "<missing>"]) >= 2,
    }
    print(json.dumps(line))
    ray.shutdown()
    return 0 if line["multi_node_evidence"] else 1


if __name__ == "__main__":
    sys.exit(main())
