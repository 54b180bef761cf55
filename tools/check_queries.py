"""Local stand-in for the driver's CORRECTNESS harness: run every
queries() entry at sf0.01 and compare against oracle_sql() via DuckDB
(row count + order-insensitive value comparison, columns sorted by
name). Usage: python tools/check_queries.py [names...]
"""

from __future__ import annotations

import os
import sys
import time

import duckdb
import pandas as pd

TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()
SF_DIR = "/root/testdata/sf0.01"


def to_df(res) -> pd.DataFrame:
    import pyarrow as pa

    if isinstance(res, pa.Table):
        return res.to_pandas()
    if isinstance(res, pd.DataFrame):
        return res
    return pd.DataFrame(res.take_all())  # ray Dataset


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def main() -> int:
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")
    import ray.data as rd

    rd.DataContext.get_current().enable_progress_bars = False

    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF_DIR}/{t}.parquet')")

    # this checkout's root, so a second checkout checks its own tree
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    sqls = entrymod.oracle_sql()
    names = sys.argv[1:] or list(qs)
    failed = []
    for name in names:
        t0 = time.time()
        try:
            mine = canon(to_df(qs[name](SF_DIR)))
        except Exception as e:
            print(f"FAIL {name}: query raised {type(e).__name__}: {e}")
            failed.append(name)
            continue
        dt = time.time() - t0
        if name not in sqls:
            print(f"ok   {name}: rows-only ({len(mine)} rows) [{dt:.1f}s]")
            continue
        try:
            oracle = canon(con.execute(sqls[name]).df())
        except Exception as e:
            print(f"FAIL {name}: SQL raised {e}")
            failed.append(name)
            continue
        if len(mine) != len(oracle):
            print(f"FAIL {name}: rows {len(mine)} vs {len(oracle)} [{dt:.1f}s]")
            failed.append(name)
            continue
        if list(mine.columns) != list(oracle.columns):
            print(f"FAIL {name}: cols {list(mine.columns)} vs {list(oracle.columns)}")
            failed.append(name)
            continue
        try:
            # check_dtype=True: the driver hashes typed values, so an
            # int64-vs-decimal128 drift must FAIL here too (ADVICE r1).
            pd.testing.assert_frame_equal(mine, oracle, check_dtype=True, rtol=0, atol=1e-9)
            print(f"PASS {name} ({len(mine)} rows) [{dt:.1f}s]")
        except AssertionError as e:
            print(f"FAIL {name}: values differ [{dt:.1f}s]")
            print(str(e).splitlines()[-1][:300])
            print("mine:", mine.head(3).to_dict("records"))
            print("orcl:", oracle.head(3).to_dict("records"))
            failed.append(name)
    print(f"\n{len(names) - len(failed)}/{len(names)} passed")
    ray.shutdown()
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
