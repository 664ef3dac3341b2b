"""The BM25 kernel in ``engine/query.py`` (``bm25_idf``, ``bm25_contrib``,
``rank_topk``) is the engine's one statement of the formula and the top-k
select; ``engine/oracle.py`` is the only other. These tests pin the kernel's
contract and keep restatements from growing back elsewhere in ``engine/``."""

import ast
import math
import pathlib

import numpy as np

from engine.query import bm25_contrib, bm25_idf, rank_topk

ENGINE = pathlib.Path(__file__).resolve().parent.parent / "engine"
# expression -> the one kernel function allowed to state it
RESTATEMENTS = {
    "math.log(1.0 + (": "bm25_idf",
    "(1.0 - BM25_B + BM25_B": "bm25_contrib",
}


def _function_lines(path: pathlib.Path, name: str) -> range:
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return range(node.lineno, node.end_lineno + 1)
    raise AssertionError(f"{name} not found in {path}")


def test_formula_is_stated_only_in_the_kernel_and_the_oracle():
    query = ENGINE / "query.py"
    allowed = {expr: _function_lines(query, fn) for expr, fn in RESTATEMENTS.items()}
    stray, found = [], {expr: 0 for expr in RESTATEMENTS}
    for path in sorted(ENGINE.rglob("*.py")):
        if path.name == "oracle.py" and path.parent == ENGINE:
            continue
        for no, line in enumerate(path.read_text().splitlines(), 1):
            for expr in RESTATEMENTS:
                if expr not in line:
                    continue
                if path == query and no in allowed[expr]:
                    found[expr] += 1
                else:
                    stray.append(f"{path.relative_to(ENGINE.parent)}:{no}: {line.strip()}")
    assert not stray, "BM25 restated outside the kernel:\n" + "\n".join(stray)
    assert found == {expr: 1 for expr in RESTATEMENTS}


def test_contrib_scalar_and_array_agree_bitwise():
    idf = bm25_idf(7, 1000)
    assert idf == math.log(1.0 + (1000 - 7 + 0.5) / (7 + 0.5))
    assert bm25_idf(0, 1000) == 0.0
    tf = np.array([1, 2, 5, 40], dtype=np.int32)
    dl = np.array([3.0, 10.0, 17.0, 900.0])
    arr = bm25_contrib(idf, tf, dl, 12.5)
    assert arr.dtype == np.float64
    scalars = [bm25_contrib(idf, int(t), float(d), 12.5) for t, d in zip(tf, dl)]
    assert all(type(v) is float for v in scalars)
    assert arr.tolist() == scalars


def test_rank_topk_equals_a_full_sort_with_ties():
    rng = np.random.default_rng(5)
    doc = rng.permutation(200).astype(np.int64)
    score = rng.integers(0, 12, 200) / 7.0  # many exact ties
    for k in (1, 3, 10, 199, 200, 500):
        for rnd in (None, 1):
            key = np.round(score, rnd) if rnd is not None else score
            order = np.lexsort((doc, -key))[:k]
            d, s = rank_topk(doc, score, k, rnd)
            assert d.tolist() == doc[order].tolist()
            assert s.tolist() == score[order].tolist()
