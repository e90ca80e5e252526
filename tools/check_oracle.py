"""Local replica of the driver's correctness gate.

Runs every ``__ray_entry__.queries()`` entry against its
``oracle_sql()`` DuckDB twin at a given sf dir and compares
row-count + column names + order-insensitive values (columns sorted by
name, rows sorted by all columns, exact value compare).

Usage: python tools/check_oracle.py [sf_dir] [query_name ...]
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import duckdb
import pandas as pd
import pyarrow as pa

TABLES = ("region nation customer supplier part orders lineitem events "
          "documents embeddings").split()


def to_pandas(res) -> pd.DataFrame:
    if hasattr(res, "to_pandas"):
        df = res.to_pandas()
        # a Dataset's to_pandas() drops the columns of zero-row blocks
        schema = (res.schema() if not len(df.columns)
                  and callable(getattr(res, "schema", None)) else None)
        if schema is not None:
            return pa.schema(list(zip(schema.names, schema.types))
                             ).empty_table().to_pandas()
        return df
    if isinstance(res, pd.DataFrame):
        return res
    raise TypeError(type(res))


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    df = df.sort_values(by=list(df.columns), kind="mergesort",
                        ignore_index=True)
    return df


def compare(name: str, got: pd.DataFrame, want: pd.DataFrame) -> list[str]:
    problems = []
    if sorted(got.columns) != sorted(want.columns):
        problems.append(f"schema: ray={sorted(got.columns)} "
                        f"sql={sorted(want.columns)}")
        return problems
    if len(got) != len(want):
        problems.append(f"rows: ray={len(got)} sql={len(want)}")
        return problems
    g, w = canon(got), canon(want)
    for col in g.columns:
        gv, wv = g[col].to_numpy(), w[col].to_numpy()
        # the driver's value hash is dtype-sensitive: DuckDB sum(BIGINT)
        # -> HUGEINT -> pandas float64 hashed a numerically-equal int64
        # column to a different digest in round 1.  Flag kind mismatches.
        if gv.dtype.kind != wv.dtype.kind:
            problems.append(f"dtype[{col}]: ray={gv.dtype} sql={wv.dtype}")
        neq = gv != wv
        try:
            import numpy as np
            both_nan = pd.isna(gv) & pd.isna(wv)
            neq = neq & ~both_nan
        except Exception:
            pass
        if neq.any():
            i = int(neq.argmax())
            problems.append(f"values[{col}]: {int(neq.sum())} mismatches, "
                            f"first at row {i}: ray={gv[i]!r} sql={wv[i]!r}")
    return problems


def main() -> int:
    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=len(os.sched_getaffinity(0)),
                 include_dashboard=False, ignore_reinit_error=True,
                 logging_level="ERROR")
    import p2pddsketch_ray
    p2pddsketch_ray.configure_for_cluster()
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import __ray_entry__ as E
    qs, sqls = E.queries(), E.oracle_sql()

    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * "
                    f"FROM read_parquet('{sf_dir}/{t}.parquet')")

    failures = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            got = to_pandas(fn(sf_dir))
        except Exception as exc:
            print(f"FAIL {name}: ray raised {type(exc).__name__}: {exc}")
            failures += 1
            continue
        dt = time.time() - t0
        if name not in sqls:
            print(f"ok   {name}: rows={len(got)} ({dt:.1f}s) [rows-only, no oracle]")
            continue
        want = con.execute(sqls[name]).df()
        problems = compare(name, got, want)
        if problems:
            failures += 1
            print(f"FAIL {name} ({dt:.1f}s): " + "; ".join(problems))
        else:
            print(f"ok   {name}: rows={len(got)} ({dt:.1f}s)")
    ray.shutdown()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
