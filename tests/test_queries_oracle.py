"""Mirror of the driver's correctness gate: run every ``queries()`` entry
and its ``oracle_sql()`` twin via DuckDB on the same parquet tables, compare
row count, column names, and order-insensitive values (columns sorted by
name, rows sorted — the driver's value-hash equivalent)."""

from __future__ import annotations

import math
import os

import duckdb
import pandas as pd
import pytest

SF_DIR = os.environ.get("OCS_TEST_SF_DIR", "/root/testdata/sf0.001")
TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()


def _oracle(sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF_DIR}/{t}.parquet')"
        )
    return con.execute(sql).fetchdf()


def _to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif str(df[c].dtype).startswith(("Int", "UInt", "Float")):
            # nullable extension dtypes -> plain float (NA -> NaN)
            df[c] = df[c].astype("float64")
    return df.sort_values(by=list(df.columns), kind="mergesort").reset_index(drop=True)


def _kinds(df: pd.DataFrame) -> dict:
    # dtype KIND per column ('i' int, 'f' float, 'M' datetime, ...) on the
    # raw frames, BEFORE _canon's leniency — the driver's value-hash is
    # dtype-sensitive, so an engine int64 vs an oracle float64 is a real
    # mismatch even when every value is numerically equal (round-1 lesson:
    # asof_join / json_props failed exactly this way).
    out = {}
    for c in df.columns:
        k = df[c].dtype.kind
        out[c] = "i" if k == "u" else k
    return out


def assert_query_matches_oracle(name: str, fn, sql: str, sf_dir: str = SF_DIR):
    got_raw = _to_pandas(fn(sf_dir))
    want_raw = _oracle(sql)
    gk, wk = _kinds(got_raw), _kinds(want_raw)
    assert gk == wk, f"{name}: dtype kinds differ: engine {gk} vs oracle {wk}"
    got = _canon(got_raw)
    want = _canon(want_raw)
    assert list(got.columns) == list(want.columns), (
        f"{name}: columns {list(got.columns)} != {list(want.columns)}"
    )
    assert len(got) == len(want), f"{name}: rows {len(got)} != {len(want)}"
    for c in got.columns:
        a, b = got[c], want[c]
        if a.dtype.kind == "f" or b.dtype.kind == "f":
            mism = [
                (x, y)
                for x, y in zip(a, b)
                if not (
                    (pd.isna(x) and pd.isna(y))
                    or (isinstance(x, float) and isinstance(y, float) and math.isclose(x, y, rel_tol=0, abs_tol=1e-9))
                    or (not pd.isna(x) and not pd.isna(y) and x == y)
                )
            ]
            assert not mism, f"{name}.{c}: {mism[:5]}"
        else:
            pd.testing.assert_series_equal(
                a, b, check_dtype=False, check_names=False, obj=f"{name}.{c}"
            )


def _param_queries():
    from ocr_suite_ray.pipelines.queries import ALL_QUERIES

    return [
        pytest.param(name, fn, sql, id=name)
        for name, (fn, sql) in ALL_QUERIES.items()
        if sql is not None
    ]


@pytest.mark.parametrize("name,fn,sql", _param_queries())
def test_query_matches_oracle(ray_session, name, fn, sql):
    assert_query_matches_oracle(name, fn, sql)


# the catalog rows whose per-key sums run on narrow_grouped_sum
SHARDED_SUM_ROWS = (
    "pricing_summary", "search_count_by_lang", "union_counts", "window_hourly",
    "pivot_daily", "json_props", "broadcast_join", "region_revenue",
)


@pytest.mark.parametrize("name", SHARDED_SUM_ROWS)
def test_sharded_sum_matches_oracle(ray_session, force_shards, name):
    """Forced 1 < k <= 64: the partials split into k shard roots, one
    output block each, and the row still matches its DuckDB oracle."""
    from ocr_suite_ray.pipelines.queries import ALL_QUERIES

    ks = force_shards(1)
    fn, sql = ALL_QUERIES[name]
    assert_query_matches_oracle(name, fn, sql)
    assert ks and all(1 < k <= 64 for k in ks)


def _block_schemas(ds) -> list:
    import ray

    return [
        ray.get(r).schema for b in ds.iter_internal_ref_bundles() for r in b.block_refs
    ]


@pytest.mark.parametrize("name", ["pricing_summary", "search_count_by_lang"])
def test_sharded_sum_empty_shards_typed(ray_session, force_shards, monkeypatch, name):
    """These rows pass no empty schema: at forced k > 1 their few groups
    leave most shards empty, and no empty shard puts a block (a
    zero-column one) beside the real ones."""
    from ocr_suite_ray.pipelines import queries

    monkeypatch.setattr(queries, "_fixed_point", lambda ds, scales: ds)
    ks = force_shards(1)
    schemas = _block_schemas(queries.ALL_QUERIES[name][0](SF_DIR))
    assert ks[-1] > 8 and 1 <= len(schemas) <= 8
    assert schemas[0].names and all(s == schemas[0] for s in schemas)
