"""Dedup semantics: newest capture wins, deterministic tiebreak, both
strategies agree (the scale path is verified against the obvious one)."""

from __future__ import annotations

import pyarrow as pa
import pytest

from ocr_suite_ray.schemas import EXTRACTED_SCHEMA, SPAN_TYPE
from ocr_suite_ray.stages.dedup import dedup_latest


def _extracted_table(rows) -> pa.Table:
    return pa.Table.from_pydict(
        {
            "url": [r[0] for r in rows],
            "warc_ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
            "payload_kind": ["html"] * len(rows),
            "text": pa.array([r[2] for r in rows], pa.large_string()),
            "spans": pa.array(
                [[{"start": 0, "stop": len(r[2]), "kind": "paragraph"}] for r in rows],
                pa.large_list(SPAN_TYPE),
            ),
            "n_blocks_kept": pa.array([1] * len(rows), pa.int32()),
            "n_blocks_dropped": pa.array([0] * len(rows), pa.int32()),
            "status": ["ok"] * len(rows),
        },
        schema=EXTRACTED_SCHEMA,
    )


ROWS = [
    ("u1", 100, "old text"),
    ("u1", 300, "newest text"),
    ("u1", 200, "middle text"),
    ("u2", 50, "only capture"),
    ("u3", 70, "tie a"),
    ("u3", 70, "tie b"),  # exact-ts tie -> deterministic content tiebreak
]


@pytest.mark.parametrize("strategy", ["partial", "bucket", "map_groups"])
def test_newest_wins_and_ties_deterministic(ray_session, strategy):
    import ray.data as rd

    ds = rd.from_arrow(_extracted_table(ROWS))
    out = dedup_latest(ds, strategy=strategy, num_partitions=4).take_all()
    by_url = {r["url"]: r for r in out}
    assert len(out) == 3
    assert by_url["u1"]["text"] == "newest text"
    assert by_url["u2"]["text"] == "only capture"
    assert by_url["u3"]["text"] in ("tie a", "tie b")
    # spans survive the shuffle round-trip intact
    assert by_url["u1"]["spans"][0]["stop"] == len("newest text")


def test_strategies_agree_on_ties(ray_session):
    import ray.data as rd

    a = dedup_latest(
        rd.from_arrow(_extracted_table(ROWS)), strategy="partial", num_partitions=4
    ).take_all()
    b = dedup_latest(
        rd.from_arrow(_extracted_table(ROWS)), strategy="map_groups"
    ).take_all()
    key = lambda r: r["url"]
    assert sorted(a, key=key) == sorted(b, key=key)


def test_dedup_across_blocks(ray_session):
    """Same url split across many input blocks still yields one winner."""
    import ray.data as rd

    rows = [("u", i, f"text {i}") for i in range(50)]
    ds = rd.from_arrow(_extracted_table(rows)).repartition(10)
    out = dedup_latest(ds, strategy="partial", num_partitions=4).take_all()
    assert len(out) == 1
    assert out[0]["text"] == "text 49"


def test_coalesce_reduce_all_empty_returns_none(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from ocr_suite_ray.state.dupset import coalesce_reduce

    empty = pa.table({"url": pa.array([], pa.string())})
    ds = rd.from_arrow([empty, empty]).map_batches(
        lambda t: t, batch_format="pyarrow"
    )
    # combine/final would KeyError on the pre-UDF schema — must not be called
    out = coalesce_reduce(
        ds,
        lambda t: t.select(["nope"]),
        lambda t: t.select(["nope"]),
    )
    assert out is None


def test_partial_with_bloom_membership_matches_exact(ray_session):
    import ray.data as rd

    exact = dedup_latest(
        rd.from_arrow(_extracted_table(ROWS)), strategy="partial"
    ).take_all()
    bloom = dedup_latest(
        rd.from_arrow(_extracted_table(ROWS)), strategy="partial", bloom_threshold=0
    ).take_all()
    key = lambda r: r["url"]
    assert sorted(exact, key=key) == sorted(bloom, key=key)


def test_sharded_dup_key_merge_matches_single(ray_session, tmp_path):
    """The hash-sharded parallel merge in dup_key_table_ref_from_files must
    return byte-identical dup-key tables to the single-root merge (k=1)."""
    import ray
    import pyarrow.parquet as pq

    from ocr_suite_ray.state.dupset import dup_key_table_ref_from_files

    urls = [f"https://ex.com/{i % 37}" for i in range(500)] + [
        f"https://uniq.com/{i}" for i in range(200)
    ]
    files = []
    for part in range(4):
        t = pa.table({"url": urls[part::4]})
        p = str(tmp_path / f"pages_{part}.parquet")
        pq.write_table(t, p, row_group_size=50)
        files.append(p)

    single = ray.get(dup_key_table_ref_from_files(files, num_shards=1))
    sharded = ray.get(dup_key_table_ref_from_files(files, num_shards=16))
    assert single.equals(sharded)
    assert single.num_rows == 37  # every i%37 url appears >1 times
