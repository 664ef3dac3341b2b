"""Tests of the benchmark's own code.

    python -m pytest perfbench/tests -q

The smoke runs start one Ray session each (a tiny corpus, about half a
minute per run at one CPU), from a working directory outside the repository.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, ROOT)

from perfbench import check  # noqa: E402
from perfbench.workloads import open_query_ms, tail  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_tail_is_the_sample_with_ten_above():
    v, pct, n = tail([float(x) for x in range(1, 101)])
    assert (v, pct, n) == (90.0, 90.0, 100)
    v, pct, n = tail(list(reversed(range(1000))))
    assert v == 989 and n == 1000 and pct == pytest.approx(99.0)


def test_tail_refuses_fewer_than_forty_samples():
    tail(list(range(40)))
    with pytest.raises(ValueError):
        tail(list(range(39)))


def test_open_query_ms_is_the_mean_of_per_query_medians():
    samples = [(0, 40.0), (1, 300.0), (0, 900.0), (1, 320.0), (0, 50.0), (1, 310.0)]
    assert open_query_ms(samples) == pytest.approx((50.0 + 310.0) / 2)


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == ["build", "churn"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert max(m["bound"] for m in SPEC["end_to_end"]) == next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])


def test_pool_is_fixed_and_stream_follows_the_seed():
    assert check.query_pool(100) == check.query_pool(100)
    assert (check.query_stream(5, 100, 1000, 500) == check.query_stream(5, 100, 1000, 500)).all()
    assert (check.query_stream(5, 100, 1000, 500) != check.query_stream(6, 100, 1000, 500)).any()
    ks = {k for _t, k in check.query_pool(200)}
    assert ks <= {10, 25, 100}


def test_every_stream_block_holds_the_expected_counts():
    pool, block = 300, 1000
    ranking = np.random.default_rng([check.POOL_SEED, 2]).permutation(pool)
    w = 1.0 / np.arange(1, pool + 1) ** check.STREAM_ZIPF
    want = np.empty(pool)
    want[ranking] = block * w / w.sum()
    stream = check.query_stream(7, pool, 3 * block, block)
    for b in range(3):
        got = np.bincount(stream[b * block:(b + 1) * block], minlength=pool)
        assert (np.abs(got - want) < 1).all()


def test_properties_catch_bad_outputs():
    ok = check._properties([4, 7, 2], [3.0, 3.0, 1.0], 10, (0, 100), None)
    assert ok is None
    assert "order" in check._properties([7, 4], [3.0, 3.0], 10, (0, 100), None)
    assert "order" in check._properties([7, 4], [1.0, 3.0], 10, (0, 100), None)
    assert "k=1" in check._properties([1, 2], [2.0, 1.0], 1, (0, 100), None)
    assert "live" in check._properties([1, 200], [2.0, 1.0], 10, (0, 100), None)
    assert "planted" in check._properties([1], [2.0], 10, (0, 100), 2)


def test_outputs_keep_the_first_answer_and_catch_a_changed_repeat():
    pool = [("w00001", 10), ("zqmarker0", 10)]
    out = check.Outputs(pool, {0: (0, 10)}, list(range(11)))
    assert out.add(0, 0, [3, 1], [2.0, 1.0]) is None
    assert out.add(0, 0, [3, 1], [2.0, 1.0]) is None
    assert "differs from the first" in out.add(0, 0, [1, 3], [2.0, 1.0])
    assert out.same[(0, 0)] == 2 and len(out.first) == 1
    assert "planted" in out.add(0, 1, [], [])  # conv 3 carries zqmarker0


def test_term_counts_follow_the_cited_shares():
    from engine.tokenize import tokenize_text

    drawn = check.query_pool(3000)[len(check.QUERY_SET) + 5:]
    n = [sum(1 for t in tokenize_text(q) if not t.startswith("zqmarker")) for q, _k in drawn]
    shares = [n.count(i) / len(n) for i in (1, 2, 3)]
    want = [x / sum(check.TERM_COUNT_SHARES) for x in check.TERM_COUNT_SHARES]
    assert shares == pytest.approx(want, abs=0.03)


def test_planted_matches_the_generator():
    from engine.synth import generate_transcripts

    t = generate_transcripts(300, seed=9)
    text = t["text"].to_pylist()
    conv = t["conv_id"].to_pylist()
    for m in range(5):
        found = {c for c, x in zip(conv, text) if f"zqmarker{m}" in x.split()}
        assert len(found) == check.planted(0, 300, m)


def _run(tmp_path, workload: str, trace: int) -> dict:
    p = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", "4", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert p.returncode == 0, p.stderr[-3000:]
    return json.loads(p.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["build", "churn"])
def test_smoke_run_matches_schema(tmp_path, workload, trace):
    out = _run(tmp_path, workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(v["value"] > 0 for v in out["metrics"].values())
    work = os.path.join(ROOT, ".perfbench_work")
    assert not os.path.exists(work) or not os.listdir(work)  # only other runs' dirs
