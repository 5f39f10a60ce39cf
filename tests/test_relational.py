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
