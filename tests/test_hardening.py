"""Regression tests for the round-4 hardening pass: null group keys, null
strata, COUNT(*) vs valid-count window semantics, DuckDB-ROUND negative
halves, tie-broken quota determinism, the shared md5 sampling kernel, and
the curation promote crash window."""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


# ---------------------------------------------------------------- md5 kernel


def test_md5_kernel_matches_hexdigest_rule_and_duckdb():
    import duckdb

    from ocr_suite_ray.functions.hashing import md5_mod, md5_u32

    vals = ["doc-0", "http://a/b?c=1", "", "日本語", 42, None]
    svals = [str(v) for v in vals]
    expect = np.array(
        [int(hashlib.md5(s.encode()).hexdigest()[:8], 16) for s in svals],
        dtype=np.int64,
    )
    assert (md5_u32(vals) == expect).all()
    assert (md5_mod(vals, 100) == expect % 100).all()
    # seeded variant = str(v) + suffix
    expect_seed = np.array(
        [int(hashlib.md5(f"{s}-7".encode()).hexdigest()[:8], 16) for s in svals],
        dtype=np.int64,
    )
    assert (md5_u32(vals, suffix="-7") == expect_seed).all()
    # DuckDB parity: the SQL twins' substr(md5(x),1,8) cast rule
    got_sql = duckdb.sql(
        "SELECT CAST(('0x' || substr(md5(s), 1, 8)) AS UBIGINT) % 100 AS h "
        "FROM (SELECT UNNEST(['doc-0','x','99']) AS s)"
    ).fetchall()
    assert [r[0] for r in got_sql] == list(md5_mod(["doc-0", "x", "99"], 100))


# ------------------------------------------------------- null-key tolerance


def test_stratified_sample_null_stratum_uses_default(ray_session):
    import ray.data as rd

    from ocr_suite_ray.stages.contamination import stratified_sample

    df = pd.DataFrame(
        {
            "doc_id": [f"d{i}" for i in range(40)],
            "lang": ["en", "de", None, "xx"] * 10,
        }
    )
    frac = {"en": 10000, "de": 10000}
    # default 0: null + unlisted strata fully dropped, listed fully kept
    got = stratified_sample(
        rd.from_pandas(df), "lang", "doc_id", frac, default_e4=0
    ).to_pandas()
    assert set(got.lang.dropna()) == {"en", "de"}
    assert len(got) == 20 and got.lang.notna().all()
    # default 10000: null strata kept too (no crash on null dictionary index)
    got_all = stratified_sample(
        rd.from_pandas(df), "lang", "doc_id", frac, default_e4=10000
    ).to_pandas()
    assert len(got_all) == 40


def test_group_zscore_null_key_yields_null_z(ray_session):
    import ray.data as rd

    from ocr_suite_ray.stages.windows import group_zscore

    df = pd.DataFrame(
        {
            "g": ["a", "a", "a", None, "b", "b"],
            "v": [1.0, 2.0, 3.0, 5.0, 10.0, 20.0],
        }
    )
    out = group_zscore(rd.from_pandas(df), "g", "v").to_pandas()
    by = out.set_index(out.index)
    nullrow = out[out.g.isna()]
    assert len(nullrow) == 1 and nullrow.z.isna().all()
    a = out[out.g == "a"].sort_values("v").z.to_numpy()
    exp = (np.array([1.0, 2.0, 3.0]) - 2.0) / 1.0
    assert np.allclose(a, exp)


# ----------------------------------------------- tumbling window semantics


@pytest.mark.parametrize(
    "rows_per_shard", [2_000_000, 1], ids=["one_tree", "sharded"]
)
def test_tumbling_count_all_avg_valid(ray_session, force_shards, rows_per_shard):
    import ray.data as rd

    from ocr_suite_ray.stages.windows import tumbling_window_agg

    ks = force_shards(rows_per_shard)
    ts = pd.to_datetime(
        ["2024-01-01 10:05", "2024-01-01 10:15", "2024-01-01 10:45",
         "2024-01-01 11:05", "2024-01-01 11:06"]
    )
    df = pd.DataFrame(
        {"user": [1, 1, 1, 2, 2], "ts": ts, "v": [1.0, None, 2.0, None, None]}
    )
    out = (
        tumbling_window_agg(rd.from_pandas(df), "user", "ts", "v")
        .to_pandas()
        .sort_values(["user"])
        .reset_index(drop=True)
    )
    assert ks == [1] if rows_per_shard > 1 else ks[0] > 1
    # COUNT(*) semantics: nulls counted as events
    assert out.loc[0, "n_events"] == 3
    assert out.loc[0, "sum_value"] == 3.0
    # SQL AVG semantics: nulls excluded from the mean
    assert out.loc[0, "avg_value"] == pytest.approx(1.5)
    # all-null window: AVG is NULL
    assert out.loc[1, "n_events"] == 2
    assert pd.isna(out.loc[1, "avg_value"])


def test_tumbling_empty_input_keeps_declared_types(ray_session, tmp_path):
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq
    import ray.data as rd

    from ocr_suite_ray.stages.windows import tumbling_window_agg

    t = pa.table(
        {
            "domain": pa.array(["a"], pa.string()),
            "ts": pa.array([pd.Timestamp("2024-01-01")], pa.timestamp("us")),
            "v": pa.array([3], pa.int64()),
        }
    )
    p = tmp_path / "ev.parquet"
    pq.write_table(t, p)
    ds = rd.read_parquet(str(p), filter=(pads.field("v") > 100))
    out = tumbling_window_agg(ds, "domain", "ts", "v")
    sch = out.schema()
    assert out.count() == 0
    assert sch.base_schema.field("domain").type == pa.string()
    assert sch.base_schema.field("sum_value").type == pa.int64()


def test_tumbling_sharded_empty_shards_leave_no_block(ray_session, force_shards):
    """Forced k > 1 over a few groups of an input whose schema is unknown
    until it runs (so the all-empty fallback would type the key int64):
    most shards are empty, and only the real blocks come out, each with
    the input's string key and int sum."""
    import ray
    import ray.data as rd

    from ocr_suite_ray.stages.windows import tumbling_window_agg

    t = pa.table(
        {
            "domain": pa.array(["a", "b", "c"], pa.string()),
            "ts": pa.array([pd.Timestamp("2024-01-01")] * 3, pa.timestamp("us")),
            "v": pa.array([3, 4, 5], pa.int64()),
        }
    )
    ds = rd.from_arrow([t] * 8).map_batches(lambda b: b, batch_format="pyarrow")
    assert ds.schema(fetch_if_missing=False) is None
    ks = force_shards(1)
    out = tumbling_window_agg(ds, "domain", "ts", "v")
    blocks = [ray.get(r) for b in out.iter_internal_ref_bundles() for r in b.block_refs]
    assert ks == [24] and 1 <= len(blocks) <= 3
    for b in blocks:
        assert b.num_rows and b.schema == blocks[0].schema
    assert blocks[0].schema.field("domain").type == pa.string()
    assert blocks[0].schema.field("sum_value").type == pa.int64()
    got = out.to_pandas().sort_values("domain")
    assert got["n_events"].tolist() == [8, 8, 8]
    assert got["sum_value"].tolist() == [24, 32, 40]


# ------------------------------------------------- DuckDB ROUND negatives


def test_rolling_mean_negative_half_rounds_away_from_zero(ray_session):
    import ray.data as rd

    from ocr_suite_ray.stages.windows import rolling_mean

    ts = pd.to_datetime(["2024-01-01", "2024-01-02"])
    df = pd.DataFrame(
        {
            "k": [1, 2],
            "ts": [ts[0], ts[0]],
            "eid": [0, 1],
            "v": [-0.00025, 0.00025],
        }
    )
    out = (
        rolling_mean(rd.from_pandas(df), "k", "ts", "v", "eid", window=1)
        .to_pandas()
        .sort_values("k")
    )
    # DuckDB ROUND(-2.5)=-3, ROUND(2.5)=3 (half away from zero)
    assert out.rolling_avg_fp.tolist() == [-3, 3]


def test_group_quantiles_negative_half_rounds_away_from_zero(ray_session):
    import ray.data as rd

    from ocr_suite_ray.stages.windows import group_quantiles

    df = pd.DataFrame({"k": [1, 1, 2, 2], "v": [-0.00025] * 2 + [0.00025] * 2})
    out = (
        group_quantiles(rd.from_pandas(df), "k", "v", qs=(0.5,))
        .to_pandas()
        .sort_values("k")
    )
    assert out.q50_fp.tolist() == [-3, 3]


# ------------------------------------------------------ group_quota ties


def test_group_quota_tiebreak_is_deterministic(ray_session):
    import ray.data as rd

    from ocr_suite_ray.stages.contamination import group_quota

    # two rows tie on order_col; budget admits exactly one
    df = pd.DataFrame(
        {
            "g": ["x", "x", "x"],
            "o": [1, 1, 2],
            "id": ["b", "a", "c"],
            "w": [1, 1, 1],
        }
    )
    for nparts in (1, 3):
        ds = rd.from_pandas(df).repartition(nparts)
        out = group_quota(
            ds, "g", "o", "w", budget=1, order_tiebreak="id"
        ).to_pandas()
        # tiebreak picks id='a' every run, at any partitioning
        assert out.id.tolist() == ["a"]


# ----------------------------------------------- degenerate empty results


def test_percentile_gate_all_null_column_returns_empty(ray_session):
    import ray.data as rd

    from ocr_suite_ray.stages.windows import percentile_gate

    df = pd.DataFrame({"n": pd.array([None, None, None], dtype="Int64"),
                       "id": [1, 2, 3]})
    out = percentile_gate(rd.from_pandas(df), "n")
    # Dataset-level schema keeps the columns (Ray's to_pandas drops them
    # for an all-empty-blocks dataset, so assert on the schema)
    assert out.schema().names == ["n", "id"]
    assert out.count() == 0


# ------------------------------------------------- curation crash window


def test_curation_heals_promote_crash_window(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from ocr_suite_ray.pipelines.curate import run_curation

    final = tmp_path / "final"
    final.mkdir()
    texts = [
        "the quick brown fox jumps over the lazy dog again and again today",
        "a completely different document with plenty of ordinary words here",
    ]
    t = pa.table(
        {
            "url": pa.array(["http://a", "http://b"], pa.string()),
            "text": pa.array(texts, pa.large_string()),
            "status": pa.array(["ok", "ok"], pa.string()),
        }
    )
    pq.write_table(t, final / "part.parquet")

    out = tmp_path / "curated"
    old = str(out) + ".old"
    os.makedirs(old)
    with open(os.path.join(old, "marker.txt"), "w") as f:
        f.write("previous output parked mid-promote")

    # out_dir absent + .old present = the crash window; the run must heal
    # it (restore, recompute, promote) and leave no .old behind
    s = run_curation(str(final), str(out), quality_min=0)
    assert os.path.isdir(out)
    assert not os.path.exists(old)
    assert s["rows_out"] >= 0


# ------------------------------------------------ sketch/scan/fit hardening


def test_approx_sketches_ignore_nulls(ray_session):
    import ray.data as rd

    from ocr_suite_ray.stages.sketches import approx_distinct, approx_quantiles

    t = pa.table({"u": ["a", "b", None, "a", None], "v": [10.0, 20.0, None, 30.0, None]})
    ds = rd.from_arrow(t)
    # nulls not counted toward the distinct estimate (SQL semantics)
    assert approx_distinct(ds, "u") == 2
    # nulls never binned: quantiles computed over {10,20,30} only
    qs = approx_quantiles(ds, "v", lo=0.0, hi=100.0, qs=(0.5,), bins=1000)
    assert abs(qs["q50"] - 20.0) < 0.2


def test_approx_quantiles_empty_is_nan_and_labels_round(ray_session):
    import ray.data as rd

    from ocr_suite_ray.stages.sketches import approx_distinct, approx_quantiles

    empty = rd.from_arrow(pa.table({"v": pa.array([], pa.float64())}))
    qs = approx_quantiles(empty, "v", lo=0.0, hi=1.0, qs=(0.29, 0.57))
    # q-labels round (0.29*100 = 28.999... must not truncate to q28)
    assert set(qs) == {"q29", "q57"}
    assert all(np.isnan(v) for v in qs.values())
    assert approx_distinct(empty, "v") == 0


def test_prefix_sum_guard_rejects_straddling_tie_runs():
    # the straddle can't be forced through the public API today (Ray's
    # range partitioner routes equal keys to one partition), so the guard
    # is exercised directly on a fabricated block-summary table
    from ocr_suite_ray.stages.scan import _assert_unique_min_keys

    ok = pd.DataFrame({"min_key": [1, 5, 9], "total": [3, 3, 3]})
    _assert_unique_min_keys(ok, "k")
    bad = pd.DataFrame({"min_key": [1, 5, 5], "total": [3, 3, 3]})
    with pytest.raises(ValueError, match="unique"):
        _assert_unique_min_keys(bad, "k")


def test_linear_residuals_empty_fit_raises_clearly(ray_session):
    import ray.data as rd

    from ocr_suite_ray.stages.mlfit import fit_linear_ref, linear_residuals

    df = pd.DataFrame({"doc_id": [1, 2], "x": [1.0, 2.0], "y": [1.0, 2.0]})
    full = rd.from_pandas(df)
    empty = full.map_batches(lambda t: t.slice(0, 0), batch_format="pyarrow")
    ref = fit_linear_ref(empty, ["x"], "y")
    with pytest.raises(Exception, match="empty corpus"):
        linear_residuals(full, ref, ["x"], "y").to_pandas()


# ---------------------------------------------------------------------------
# null-text rows through the token/bigram kernels (core-review round 5)
# ---------------------------------------------------------------------------

def test_repetition_stats_null_text_row_alignment(ray_session):
    """A null-text row has ZERO tokens; the per-row top counts must be
    scattered per present row (a compacted array misaligned every row
    after the first null)."""
    import pyarrow as pa
    import ray.data as rd

    from ocr_suite_ray.stages.text_ops import repetition_stats

    t = pa.table({
        "doc_id": [1, 2, 3],
        "text": [None, "a a a b", "x y"],
    })
    out = (
        repetition_stats(rd.from_arrow(t), "doc_id", "text")
        .to_pandas().set_index("doc_id")
    )
    assert out.loc[1, "top_token_frac_e4"] == 0          # null row: no tokens
    assert out.loc[2, "top_token_frac_e4"] == 7500       # 3/4
    assert out.loc[3, "top_token_frac_e4"] == 5000       # 1/2


def test_bigram_lm_null_first_row(ray_session):
    """A batch whose FIRST row is null put boundary 0 into the crossing
    mask (clearing mask[-1]: the batch's last bigram silently dropped and
    the scorer's coverage index overran). Both passes must agree with the
    null row simply skipped."""
    import pyarrow as pa
    import ray.data as rd

    from ocr_suite_ray.stages.text_ops import bigram_count_ref, bigram_lm_score

    t = pa.table({
        "doc_id": [1, 2, 3],
        "text": [None, "a b", "c d"],
    })
    ds = rd.from_arrow(t)
    import ray as _ray
    counts = _ray.get(bigram_count_ref(ds, "text"))
    got = dict(zip(counts["gram"].to_pylist(), counts["n"].to_pylist()))
    assert got == {"a b": 1, "c d": 1}
    scored = bigram_lm_score(ds, "doc_id", "text").to_pandas()
    assert len(scored) == 3                     # no IndexError, all rows out


def test_tumbling_window_null_key_tier_agreement(ray_session, force_shards):
    """One tree (k = 1) and forced shards (k > 1) both keep the null-key
    group (Arrow's re-aggregation groups nulls together) and agree."""
    import pandas as pd
    import ray.data as rd

    from ocr_suite_ray.stages.windows import tumbling_window_agg

    df = pd.DataFrame({
        "k": pd.array([1, 1, None, None], dtype="Int64"),
        "ts": pd.to_datetime([10, 20, 30, 40], unit="m"),
        "v": [1.0, 2.0, 3.0, 4.0],
    })
    outs = {}
    for rows_per_shard in (2_000_000, 1):
        ks = force_shards(rows_per_shard)
        outs[rows_per_shard] = (
            tumbling_window_agg(rd.from_pandas(df), "k", "ts", "v", every="hour")
            .to_pandas()
            .sort_values(["k", "window_start"])
            .reset_index(drop=True)
        )
        assert ks == [1] if rows_per_shard > 1 else ks[0] > 1
    assert len(outs[2_000_000]) == len(outs[1]) == 2
    pd.testing.assert_frame_equal(
        outs[2_000_000].astype({"n_events": "int64"}),
        outs[1].astype({"n_events": "int64"}),
        check_dtype=False,
    )


def test_token_frequencies_empty_corpus(ray_session):
    """The empty-corpus fallback must fire on the ref's RESOLUTION (the
    ref itself is never None), not crash in block schema extraction."""
    import pyarrow as pa
    import ray.data as rd

    from ocr_suite_ray.stages.text_ops import token_frequencies

    empty = rd.from_arrow(pa.table({"text": pa.array([], pa.string())}))
    out = token_frequencies(empty, "text").to_pandas()
    assert len(out) == 0
    # a fully-empty pipeline may lose column metadata in to_pandas (Ray
    # artifact); the guarded failure mode was a TypeError crash in block
    # schema extraction, so surviving with 0 rows is the contract
    assert list(out.columns) in ([], ["tok", "n"])
