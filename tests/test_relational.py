"""count_distinct_by_group vs a pandas oracle, at several partitionings and
group cardinalities (the bucket shuffle must be invariant to block layout)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from ocr_suite_ray.stages.relational import count_distinct_by_group


def _oracle(df: pd.DataFrame) -> pd.DataFrame:
    return (
        df.groupby("g")["k"].nunique().reset_index(name="n").sort_values("g").reset_index(drop=True)
    )


@pytest.mark.parametrize("nparts", [1, 4, 17])
def test_count_distinct_partition_invariant(ray_session, nparts):
    import ray.data as rd

    rng = np.random.RandomState(7)
    df = pd.DataFrame(
        {
            "g": rng.choice(["a", "b", "c", "d"], size=3000),
            "k": rng.randint(0, 80, size=3000).astype("int64"),
        }
    )
    got = (
        count_distinct_by_group(rd.from_pandas(df).repartition(nparts), "g", "k", out_col="n")
        .to_pandas()
        .sort_values("g")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, _oracle(df))


def test_count_distinct_many_groups_few_buckets(ray_session):
    """More groups than buckets: buckets carry several groups each and the
    within-bucket C groupby must still separate them."""
    import ray.data as rd

    rng = np.random.RandomState(11)
    df = pd.DataFrame(
        {
            "g": [f"g{i}" for i in rng.randint(0, 500, size=5000)],
            "k": rng.randint(0, 40, size=5000).astype("int64"),
        }
    )
    got = (
        count_distinct_by_group(
            rd.from_pandas(df).repartition(6), "g", "k", out_col="n", num_buckets=8
        )
        .to_pandas()
        .sort_values("g")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, _oracle(df))


def test_count_distinct_int_group_key(ray_session):
    import ray.data as rd

    df = pd.DataFrame({"g": [1, 1, 2, 2, 2], "k": [9, 9, 9, 8, 7]})
    got = (
        count_distinct_by_group(rd.from_pandas(df), "g", "k", out_col="n")
        .to_pandas()
        .sort_values("g")
        .reset_index(drop=True)
    )
    assert got["n"].tolist() == [1, 3]
    assert str(got["n"].dtype) == "int64"


def _sd_oracle(old: pd.DataFrame, new: pd.DataFrame) -> pd.DataFrame:
    j = (
        old.set_index("k")["h"].rename("h_old").to_frame()
        .join(new.set_index("k")["h"].rename("h_new").to_frame(), how="outer")
    )
    rows = []
    for k, r in j.iterrows():
        if pd.isna(r["h_old"]):
            rows.append((k, "added"))
        elif pd.isna(r["h_new"]):
            rows.append((k, "removed"))
        elif r["h_old"] != r["h_new"]:
            rows.append((k, "changed"))
    return pd.DataFrame(rows, columns=["k", "change"]).sort_values("k").reset_index(drop=True)


@pytest.mark.parametrize("nparts", [1, 7])
def test_snapshot_diff_matches_oracle(ray_session, nparts):
    import ray.data as rd

    from ocr_suite_ray.stages.relational import snapshot_diff

    rng = np.random.RandomState(3)
    old = pd.DataFrame({"k": np.arange(0, 900, dtype="int64"), "h": rng.randint(0, 5, 900).astype("int64")})
    new = pd.DataFrame({"k": np.arange(300, 1200, dtype="int64"), "h": rng.randint(0, 5, 900).astype("int64")})
    got = (
        snapshot_diff(
            rd.from_pandas(old).repartition(nparts),
            rd.from_pandas(new).repartition(max(1, nparts - 2)),
            "k",
            "h",
        )
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
        .astype({"k": "int64"})
    )
    pd.testing.assert_frame_equal(got, _sd_oracle(old, new))


def test_snapshot_diff_identical_snapshots_empty(ray_session):
    import ray.data as rd

    from ocr_suite_ray.stages.relational import snapshot_diff

    df = pd.DataFrame({"k": [1, 2, 3], "h": ["a", "b", "c"]})
    got = snapshot_diff(rd.from_pandas(df), rd.from_pandas(df.copy()), "k", "h").to_pandas()
    assert len(got) == 0


# ---------------------------------------------------------------------------
# pivot_counts
# ---------------------------------------------------------------------------

def _pivot_frame() -> pd.DataFrame:
    rng = np.random.RandomState(7)
    return pd.DataFrame({
        "day": rng.choice(["d1", "d2", "d3"], 500),
        "kind": rng.choice(["a", "b", "c"], 500),
    })


@pytest.mark.parametrize("nparts", [1, 9])
def test_pivot_counts_matches_pandas(ray_session, nparts):
    import ray.data as rd

    from ocr_suite_ray.stages.relational import pivot_counts

    df = _pivot_frame()
    got = (
        pivot_counts(rd.from_pandas(df).repartition(nparts), "day", "kind",
                     values=["a", "b", "c"])
        .to_pandas().sort_values("day").reset_index(drop=True)
    )
    want = df.pivot_table(index="day", columns="kind", aggfunc="size",
                          fill_value=0)
    for v in ["a", "b", "c"]:
        assert got[f"n_{v}"].tolist() == want[v].tolist()
    assert got["total"].tolist() == want.sum(axis=1).tolist()


def test_pivot_counts_declared_schema_stable(ray_session):
    """A category absent from the data still gets its (all-zero) column,
    and pivot values OUTSIDE the declared set count only toward total."""
    import ray.data as rd

    from ocr_suite_ray.stages.relational import pivot_counts

    df = pd.DataFrame({"day": ["d1", "d1", "d2"], "kind": ["a", "zz", "a"]})
    got = (
        pivot_counts(rd.from_pandas(df), "day", "kind", values=["a", "b"])
        .to_pandas().sort_values("day").reset_index(drop=True)
    )
    assert list(got.columns) == ["day", "n_a", "n_b", "total"]
    assert got["n_a"].tolist() == [1, 1]
    assert got["n_b"].tolist() == [0, 0]
    assert got["total"].tolist() == [2, 1]


def test_pivot_counts_sharded_key_spread_over_blocks(ray_session, force_shards):
    """Forced k > 1 with each key's pivot values in different blocks: the
    split on the key puts all of a key's partial rows in one shard root,
    so ``_pivot`` sees the whole key and the result equals k = 1's."""
    import pyarrow as pa
    import ray.data as rd

    from ocr_suite_ray.stages.relational import pivot_counts

    blocks = [
        pa.table({"day": ["d1", "d2", "d3"], "kind": [kind] * 3})
        for kind in ("a", "b", "c", "a")
    ]
    blocks.append(pa.table({"day": ["d4"], "kind": ["zz"]}))

    def run(rows_per_shard):
        ks = force_shards(rows_per_shard)
        out = pivot_counts(rd.from_arrow(blocks), "day", "kind", values=["a", "b", "c"])
        got = out.to_pandas().sort_values("day").reset_index(drop=True)
        return got, ks[-1], out.num_blocks()

    one, k1, _ = run(2_000_000)
    sharded, k, nblocks = run(1)
    assert k1 == 1 and k == 13 and nblocks <= 4
    pd.testing.assert_frame_equal(one, sharded)
    assert one["day"].tolist() == ["d1", "d2", "d3", "d4"]
    assert one["n_a"].tolist() == [2, 2, 2, 0]
    assert one["n_b"].tolist() == one["n_c"].tolist() == [1, 1, 1, 0]
    assert one["total"].tolist() == [4, 4, 4, 1]


def test_broadcast_join_agg_sharded_empty_shards_typed(ray_session, force_shards):
    """broadcast_join_agg passes no empty schema: at forced k > 1 its two
    groups leave most shards empty, and no empty shard puts a block (a
    zero-column one) beside the real ones."""
    import ray
    import ray.data as rd

    from ocr_suite_ray.stages.relational import broadcast_join_agg

    facts = pd.DataFrame({"id": [1, 2, 3, 1] * 5, "x": [1.5, 2.0, 4.0, 0.5] * 5})
    dim = pd.DataFrame({"id": [1, 2, 3], "region": ["east", "west", "east"]})
    ks = force_shards(1)
    out = broadcast_join_agg(
        rd.from_pandas(facts).repartition(5), dim, on="id", group_col="region",
        sum_cols={"total": "x"}, count_col="n",
    )
    schemas = [
        ray.get(r).schema for b in out.iter_internal_ref_bundles() for r in b.block_refs
    ]
    assert ks == [10] and 1 <= len(schemas) <= 2
    assert schemas[0].names == ["region", "total", "n"]
    assert all(s == schemas[0] for s in schemas)
    got = out.to_pandas().sort_values("region").reset_index(drop=True)
    assert got["region"].tolist() == ["east", "west"]
    assert got["total"].tolist() == [30.0, 10.0]
    assert got["n"].tolist() == [15, 5]


class _TaskSpy:
    """A ``remote_fn`` stand-in that records the function name of every
    task started through it."""

    def __init__(self, calls: list, rf, name: str):
        self._calls, self._rf, self._name = calls, rf, name

    def options(self, **kw):
        return _TaskSpy(self._calls, self._rf.options(**kw), self._name)

    def remote(self, *args, **kw):
        self._calls.append(self._name)
        return self._rf.remote(*args, **kw)


def _spy_tasks(monkeypatch) -> list:
    from ocr_suite_ray.state import dupset

    calls, make = [], dupset.remote_fn
    monkeypatch.setattr(
        dupset, "remote_fn", lambda fn: _TaskSpy(calls, make(fn), fn.__name__)
    )
    return calls


def test_one_shard_starts_the_one_tree_tasks(ray_session, monkeypatch, tmp_path):
    """At k = 1 the sum runs one ``root_block`` task over its partials, as
    ``dataset_from_root`` does, and the dup scan one count task per chunk
    plus one merge; at k > 1 one split task per partial, one root per
    shard are added."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    from ocr_suite_ray.stages.relational import narrow_grouped_sum
    from ocr_suite_ray.state import dupset

    calls = _spy_tasks(monkeypatch)
    partials = rd.from_arrow([pa.table({"g": ["a", "b"], "n": [1, 2]})] * 3)
    one = narrow_grouped_sum(partials, ["g"], ["n"]).to_pandas()
    assert calls == ["root_block"]
    assert one.sort_values("g")["n"].tolist() == [3, 6]

    files = []
    for i in range(2):
        files.append(str(tmp_path / f"u{i}.parquet"))
        pq.write_table(pa.table({"url": ["x", f"y{i}"]}), files[-1])
    calls.clear()
    got = ray.get(dupset.dup_key_table_ref_from_files([[f] for f in files]))
    assert got["url"].to_pylist() == ["x"]
    assert calls == ["_files_key_counts"] * 2 + ["_merge"]

    calls.clear()
    monkeypatch.setattr(dupset, "_ROWS_PER_SHARD", 2)
    sharded = narrow_grouped_sum(partials, ["g"], ["n"]).to_pandas()
    assert sorted(calls) == ["_counted_block"] * 3 + ["split_by_key"] * 3
    pd.testing.assert_frame_equal(
        sharded.sort_values("g").reset_index(drop=True),
        one.sort_values("g").reset_index(drop=True),
    )


def test_profile_columns_nulls_and_partition_invariance():
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from ocr_suite_ray.stages.relational import profile_columns

    t = pa.table({
        "x": pa.array([1.5, None, -2.0, 7.25], pa.float64()),
        "s": pa.array(["b", "a", None, "z"], pa.string()),
    })

    def run(par):
        ds = rd.from_arrow(t).repartition(par)
        out = profile_columns(ds, num_cols=["x"], str_cols=["s"]).to_pandas()
        return out.sort_values("column").reset_index(drop=True)

    a = run(1)
    xrow = a[a["column"] == "x"].iloc[0]
    assert xrow["n_rows"] == 4 and xrow["n_null"] == 1
    assert xrow["min_num"] == -2.0 and xrow["max_num"] == 7.25
    srow = a[a["column"] == "s"].iloc[0]
    assert srow["n_null"] == 1 and srow["min_str"] == "a" and srow["max_str"] == "z"
    pd.testing.assert_frame_equal(a, run(4))


def test_profile_columns_empty_input():
    import pyarrow as pa
    import ray.data as rd

    from ocr_suite_ray.stages.relational import profile_columns

    t = pa.table({"x": pa.array([], pa.float64()),
                  "s": pa.array([], pa.string())})
    out = profile_columns(
        rd.from_arrow(t), num_cols=["x"], str_cols=["s"]
    ).to_pandas()
    assert len(out) <= 2  # per-column zero rows or empty report, no crash


def test_asof_join_preserves_large_int64_ids(ray_session):
    """The union-side filler must be TYPED: a NaN reindex coerced int64
    payload columns to float64 in the bucket concat, corrupting ids
    above 2^53 (range_join's documented hazard, now shared)."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from ocr_suite_ray.stages.relational import asof_join_by_key

    big = 2**53 + 1
    left = pd.DataFrame({
        "k": [1, 1],
        "t": pd.to_datetime([10, 20], unit="s"),
        "lid": np.array([big, 2**53 + 3], dtype=np.int64),
    })
    right = pd.DataFrame({
        "k": [1],
        "t": pd.to_datetime([5], unit="s"),
        "rv": np.array([7], dtype=np.int64),
    })
    out = asof_join_by_key(
        rd.from_pandas(left), rd.from_pandas(right), "k", "t", ["lid"], ["rv"]
    ).to_pandas()
    assert out["lid"].dtype == np.int64
    assert sorted(out["lid"]) == sorted([big, 2**53 + 3])


def test_bucket_shuffles_independent_of_null_layout(ray_session):
    """An int64 key block holding a null reaches the bucket hash as
    float64 (pandas has no nullable int in a plain block), so a hash over
    the block's dtype sent 5 and 5.0 to different buckets: ``distinct``
    returned 80 rows for 41 distinct keys, ``count_distinct_by_group`` 80
    groups, ``snapshot_diff`` 79 changes for one added key and the keyed
    streaming fold split keys in two."""
    import pyarrow as pa
    import ray.data as rd

    from ocr_suite_ray.stages.relational import distinct, snapshot_diff
    from ocr_suite_ray.stages.streaming import streaming_keyed_aggregate_ds

    ints = pa.array(range(40), pa.int64())
    with_null = pa.array(list(range(40)) + [None], pa.int64())
    got = distinct(
        rd.from_arrow([pa.table({"k": ints}), pa.table({"k": with_null})]), ["k"]
    ).to_pandas()
    assert len(got) == 41
    assert sorted(got["k"].dropna().astype("int64")) == list(range(40))

    blocks = [
        pa.table({"g": ints, "k": ints}),
        pa.table({"g": with_null, "k": pa.array(range(100, 141), pa.int64())}),
    ]
    got = count_distinct_by_group(rd.from_arrow(blocks), "g", "k", out_col="n")
    assert sorted(got.to_pandas()["n"]) == [1] + [2] * 40

    old = rd.from_arrow(pa.table({"key": ints, "h": ["a"] * 40}))
    new = rd.from_arrow(pa.table({"key": with_null, "h": ["a"] * 41}))
    assert len(snapshot_diff(old, new, "key", "h").to_pandas()) == 1

    ts = pa.array(range(81), pa.int64())
    folded = streaming_keyed_aggregate_ds(
        rd.from_arrow([
            pa.table({"key": ints, "ts": ts[:40], "v": [1.0] * 40}),
            pa.table({"key": with_null, "ts": ts[40:], "v": [1.0] * 41}),
        ]),
        "key", "ts", "v",
    ).to_pandas()
    assert sorted(folded["n"]) == [1] + [2] * 40


def test_key_buckets_depend_on_value_only():
    """The shared bucket hash: the same key value lands in the same bucket
    whatever the carrier (int64 / float64 / nullable / Arrow / object
    column), and nulls of every spelling share one bucket."""
    import pyarrow as pa

    from ocr_suite_ray.functions.hashing import key_buckets

    k = 16
    ints = key_buckets([pd.Series([0, 5, -3, 7], dtype="int64")], k)
    for col in (
        pd.Series([0.0, 5.0, -3.0, 7.0]),
        pd.Series([-0.0, 5.0, -3.0, 7.0, np.nan]).iloc[:4],
        pd.Series([0, 5, -3, 7], dtype="Int64"),
        pd.Series([0, 5, -3, 7], dtype=object),
        pa.array([0, 5, -3, 7], pa.int32()),
        pa.chunked_array([[0, 5], [-3, 7]], pa.int64()),
    ):
        assert list(key_buckets([col], k)) == list(ints)
    nulls = [
        pd.Series([None, "a"], dtype=object),
        pd.Series([np.nan, 1.0]),
        pd.Series([pd.NA, 1], dtype="Int64"),
        pa.array([None, 1], pa.int64()),
    ]
    assert len({int(key_buckets([c], k)[0]) for c in nulls}) == 1
    s = ["https://a.example/1", "https://b.example/2"]
    assert list(key_buckets([pd.Series(s)], k)) == list(
        key_buckets([pa.array(s, pa.large_string())], k)
    )
    # multi-column keys combine per-column value hashes
    two = key_buckets([pd.Series([1, 2]), pd.Series(["x", "y"])], k)
    assert list(two) == list(
        key_buckets([pa.array([1.0, 2.0]), pa.array(["x", "y"])], k)
    )
