"""Local mimic of the driver's correctness gate: run every queries() entry at
sf0.01, run its oracle_sql in DuckDB on the same parquet views, compare
row-count + column names + order-insensitive value content.

Each result line carries ``sha256=`` (the first 16 hex digits of the sha256
of the canonical frame as CSV) and ``dtypes=`` (the engine result's column
dtypes before canonicalization), so two runs compare with ``diff`` once the
trailing ``(N.Ns)`` timings are stripped.

Usage: python tools/check_parity.py [sf_dir] [only_entry ...]
"""

from __future__ import annotations

import hashlib
import os
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import duckdb
import pandas as pd
import pyarrow as pa

TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()


def to_pandas(res) -> pd.DataFrame:
    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return pd.DataFrame(res)


def dtype_family(dtype) -> str:
    """Coarse dtype family as the driver's value-hash sees it: int64 `1234`
    vs float64 `1234.0` format differently and hash-mismatch even when the
    values are equal (the r4 `sliding_window` red — DuckDB HUGEINT sums
    materialize as float64 via .df())."""
    if pd.api.types.is_bool_dtype(dtype):
        return "bool"
    if pd.api.types.is_integer_dtype(dtype):
        return "int"
    if pd.api.types.is_float_dtype(dtype):
        return "float"
    if pd.api.types.is_datetime64_any_dtype(dtype):
        return "datetime"
    return "object"


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
        elif pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].astype("float64")
        elif pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = pd.to_datetime(df[c]).dt.tz_localize(None)
    return df.sort_values(list(df.columns), ignore_index=True)


def fingerprint(raw: pd.DataFrame, got: pd.DataFrame) -> str:
    """Value hash of the canonical frame plus the engine-side dtypes."""
    digest = hashlib.sha256(got.to_csv(index=False).encode()).hexdigest()[:16]
    dtypes = ",".join(f"{c}:{raw[c].dtype}" for c in sorted(raw.columns))
    return f"sha256={digest} dtypes={dtypes}"


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entry_mod

    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    qs = entry_mod.queries()
    oracles = entry_mod.oracle_sql()
    n_pass = n_fail = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.perf_counter()
        try:
            raw = to_pandas(fn(sf_dir))
            got = canon(raw)
        except Exception:
            print(f"[FAIL] {name}: engine raised")
            traceback.print_exc(limit=8)
            n_fail += 1
            continue
        dt = time.perf_counter() - t0
        tag = fingerprint(raw, got)
        if name not in oracles:
            print(
                f"[rows-only] {name}: {len(got)} rows, cols={list(got.columns)} "
                f"{tag} ({dt:.1f}s)"
            )
            n_pass += 1
            continue
        try:
            want = canon(con.sql(oracles[name]).df())
        except Exception:
            print(f"[FAIL] {name}: oracle SQL raised {tag}")
            traceback.print_exc(limit=4)
            n_fail += 1
            continue
        ok = True
        if list(got.columns) != list(want.columns):
            print(f"[FAIL] {name}: columns {list(got.columns)} vs {list(want.columns)} {tag}")
            ok = False
        elif len(got) != len(want):
            print(f"[FAIL] {name}: rows {len(got)} vs {len(want)} {tag}")
            ok = False
        elif len(got) > 0 and [dtype_family(got[c].dtype) for c in got.columns] != [
            dtype_family(want[c].dtype) for c in want.columns
        ]:
            mism = {
                c: (dtype_family(got[c].dtype), dtype_family(want[c].dtype))
                for c in got.columns
                if dtype_family(got[c].dtype) != dtype_family(want[c].dtype)
            }
            print(f"[FAIL] {name}: dtype family mismatch (engine, oracle): {mism} {tag}")
            ok = False
        else:
            try:
                pd.testing.assert_frame_equal(got, want, check_dtype=False, check_exact=True)
            except AssertionError as e:
                print(f"[FAIL] {name}: values differ {tag}: {str(e)[:400]}")
                diff = (got != want) & ~(got.isna() & want.isna())
                bad = diff.any(axis=1)
                print("engine:", got[bad].head(4).to_string())
                print("oracle:", want[bad].head(4).to_string())
                ok = False
        if ok:
            print(f"[ok] {name}: {len(got)} rows {tag} ({dt:.1f}s)")
            n_pass += 1
        else:
            n_fail += 1
    print(f"\n{n_pass} pass, {n_fail} fail")
    ray.shutdown()
    sys.exit(1 if n_fail else 0)


if __name__ == "__main__":
    main()
