"""Dedup semantics of the flagship's winners reduce (``_local_best``):
newest capture wins, deterministic tiebreak, the same winner however the
captures are split across reduce inputs; and the keyed dup reduce that
finds the repeated urls."""

from __future__ import annotations

import pyarrow as pa
import pytest

from ocr_suite_ray.schemas import EXTRACTED_SCHEMA, SPAN_TYPE
from ocr_suite_ray.stages.dedup import _local_best, decode_spans, encode_spans


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


def _tree_best(blocks: list) -> pa.Table:
    """The finalize's reduce over ``blocks``: ``_local_best`` per block
    (each finalize task), then across their winners (the tree root)."""
    return decode_spans(
        _local_best(pa.concat_tables([_local_best(encode_spans(b)) for b in blocks]))
    )


def _split_rows(table: pa.Table) -> list:
    """Fixed two-row blocks: one url's captures land in different inputs."""
    return [table.slice(i, 2) for i in range(0, table.num_rows, 2)]


def _split_buckets(table: pa.Table, n: int = 2) -> list:
    """Urls assigned to ``n`` buckets: each url's captures share one input."""
    urls = table["url"].to_pylist()
    order = sorted(set(urls))
    return [
        table.filter(pa.array([order.index(u) % n == b for u in urls]))
        for b in range(n)
    ]


def _split_groups(table: pa.Table) -> list:
    """One input per url, holding all of that url's captures."""
    urls = table["url"].to_pylist()
    return [
        table.filter(pa.array([u == g for u in urls])) for g in sorted(set(urls))
    ]


@pytest.mark.parametrize(
    "split",
    [_split_rows, _split_buckets, _split_groups],
    ids=["partial", "bucket", "map_groups"],
)
def test_newest_wins_and_ties_deterministic(split):
    """Every way of laying the captures out over the reduce inputs (row
    blocks, url buckets, one group per url) yields the same winners."""
    out = _tree_best(split(_extracted_table(ROWS))).to_pylist()
    by_url = {r["url"]: r for r in out}
    assert len(out) == 3
    assert by_url["u1"]["text"] == "newest text"
    assert by_url["u2"]["text"] == "only capture"
    # exact-ts tie: the content tuple decides, "tie b" > "tie a"
    assert by_url["u3"]["text"] == "tie b"
    # spans survive the encode/decode round trip intact
    assert by_url["u1"]["spans"][0]["stop"] == len("newest text")


def test_strategies_agree_on_ties():
    """One reduce over all captures and the tree over any split of them
    (in any order) pick the same winners, ties included."""
    table = _extracted_table(ROWS)
    want = _tree_best([table])
    for blocks in (
        [table.slice(i, 1) for i in range(table.num_rows)],
        [table.slice(i, 1) for i in reversed(range(table.num_rows))],
        [table.slice(3), table.slice(0, 3)],
    ):
        assert _tree_best(blocks).equals(want)


def test_dedup_across_blocks():
    """Same url split across many input blocks still yields one winner."""
    table = _extracted_table([("u", i, f"text {i}") for i in range(50)])
    out = _tree_best([table.slice(i, 5) for i in range(0, 50, 5)])
    assert out.num_rows == 1
    assert out["text"].to_pylist() == ["text 49"]


def test_encode_decode_spans_round_trip():
    """encode_spans drops the nested column for three plain lists and
    decode_spans restores the exact table, sliced inputs included."""
    table = _extracted_table(ROWS)
    enc = encode_spans(table)
    assert "spans" not in enc.column_names
    assert decode_spans(enc).equals(table)
    assert decode_spans(encode_spans(table.slice(2, 3))).equals(table.slice(2, 3))
    plain = table.drop_columns(["spans"])
    assert encode_spans(plain) is plain and decode_spans(plain) is plain


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


def test_sharded_dup_key_merge_matches_single(ray_session, tmp_path, monkeypatch):
    """The hash-sharded merge in dup_key_table_ref_from_files must return
    byte-identical dup-key tables at k = 1 (one tree) and k = 16 (forced
    by shrinking the rows-per-shard constant the driver sizes k from)."""
    import ray
    import pyarrow.parquet as pq

    from ocr_suite_ray.state import dupset

    urls = [f"https://ex.com/{i % 37}" for i in range(500)] + [
        f"https://uniq.com/{i}" for i in range(200)
    ]
    files = []
    for part in range(4):
        t = pa.table({"url": urls[part::4]})
        p = str(tmp_path / f"pages_{part}.parquet")
        pq.write_table(t, p, row_group_size=50)
        files.append(p)

    chunks = dupset.cpu_chunks(files)
    assert dupset.shard_count(700) == 1
    single = ray.get(dupset.dup_key_table_ref_from_files(chunks))
    monkeypatch.setattr(dupset, "_ROWS_PER_SHARD", 44)
    assert dupset.shard_count(700) == 16
    sharded = ray.get(dupset.dup_key_table_ref_from_files(chunks))
    assert single.equals(sharded)
    assert single.num_rows == 37  # every i%37 url appears >1 times


def test_multi_shard_dup_keys_int_key_with_null_block(
    ray_session, tmp_path, monkeypatch
):
    """Int keys where some leaves also hold a null: such a leaf's key
    column converts to float64 on its way to the shard hash, and a
    dtype-shaped hash put 5 and 5.0 in different shards, so neither shard
    saw a count above 1 and the duplicate was lost. The bucket must depend
    on the key value only. Each partial (a Dataset block, a file of a file
    scan) is split on its own, so null-free partials and partials with a
    null hash the two layouts in different tasks."""
    import ray
    import ray.data as rd
    import pyarrow.parquet as pq

    from ocr_suite_ray.state import dupset

    plain = pa.table({"k": pa.array(range(40), pa.int64())})
    with_null = pa.table({"k": pa.array(list(range(40)) + [None], pa.int64())})
    monkeypatch.setattr(dupset, "_ROWS_PER_SHARD", 8)
    ds = rd.from_arrow([plain] * 32 + [with_null] * 32)
    assert dupset.shard_count(ds.count()) > 1
    got = ray.get(dupset.dup_key_table_ref(ds, key_col="k"))
    # only the int keys are asserted: whether a repeated null key is a dup
    # is a separate question from where a key value is sharded
    assert [k for k in got["k"].to_pylist() if k is not None] == list(range(40))

    files = [str(tmp_path / "plain.parquet"), str(tmp_path / "null.parquet")]
    pq.write_table(plain, files[0])
    pq.write_table(pa.table({"k": pa.array([5, None], pa.int64())}), files[1])
    assert dupset.shard_count(42) > 1
    # one file per leaf: each file's partial is split on its own
    got = ray.get(
        dupset.dup_key_table_ref_from_files([[f] for f in files], key_col="k")
    )
    assert got["k"].to_pylist() == [5]


def test_null_key_is_never_a_dup(ray_session, tmp_path):
    """A null key is never a dup: neither dup-key scan returns one, and
    the winners reduce keeps each null-url capture."""
    import ray
    import ray.data as rd
    import pyarrow.parquet as pq

    from ocr_suite_ray.state.dupset import (
        dup_key_table_ref,
        dup_key_table_ref_from_files,
    )

    rows = ROWS + [(None, 10, "null a"), (None, 20, "null b")]
    table = _extracted_table(rows)
    blocks = [table.slice(0, 4), table.slice(4)]
    got = ray.get(dup_key_table_ref(rd.from_arrow(blocks)))
    assert got["url"].to_pylist() == ["u1", "u3"]

    files = []
    for part in range(2):
        p = str(tmp_path / f"urls_{part}.parquet")
        pq.write_table(table.select(["url"]).slice(part * 4, 4), p)
        files.append(p)
    got = ray.get(dup_key_table_ref_from_files([[f] for f in files]))
    assert got["url"].to_pylist() == ["u1", "u3"]

    # the winners reduce keeps each null-url capture, wherever it sorts
    # beside a url's run (a null mask would drop that run's winner)
    out = _tree_best([table.slice(0, 4), table.slice(4)])
    assert sorted(out["text"].to_pylist()) == [
        "newest text", "null a", "null b", "only capture", "tie b"
    ]
    for blocks in ([table], [table.slice(6), table.slice(0, 6)]):
        assert _tree_best(blocks).equals(out)


def test_cpu_chunks_cover_items_once_in_at_most_cpu_chunks(ray_session):
    """``cpu_chunks`` keeps every item once, in order, in min(n, CPUs)
    contiguous chunks whose sizes differ by at most one. An empty list
    gives no chunk, so a fan-out over it starts no task."""
    from ocr_suite_ray.state.dupset import cluster_cpus, cpu_chunks

    cpus = int(ray_session.cluster_resources()["CPU"])
    assert cluster_cpus() == cpus
    for n in (1, cpus - 1, cpus, cpus + 1, 41):
        items = [f"f{i}" for i in range(n)]
        chunks = cpu_chunks(items)
        assert len(chunks) == min(n, cpus)
        assert [x for c in chunks for x in c] == items
        sizes = [len(c) for c in chunks]
        assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
    assert cpu_chunks([]) == []


def test_tree_reduce_refs_over_more_refs_than_fanin(ray_session):
    """More refs than the fan-in, None and empty inputs among them: a
    two-level tree applies ``combine_fn`` at every merge and ``final_fn``
    once, at the root."""
    import pyarrow.compute as pc
    import ray

    from ocr_suite_ray.state import dupset

    n = 3 * dupset._FANIN + 5
    tables = [pa.table({"k": [i % 7, i % 5], "n": [1, 1]}) for i in range(n)]
    refs = [ray.put(t) for t in tables]
    refs += [ray.put(None), ray.put(tables[0].slice(0, 0))]
    assert len(refs) > dupset._FANIN

    def combine(t):
        g = t.group_by("k").aggregate([("n", "sum")])
        return g.select(["k", "n_sum"]).rename_columns(["k", "n"])

    def final(t):  # applied twice, the counts would be 100x
        t = t.take(pc.sort_indices(t, sort_keys=[("k", "ascending")]))
        return t.set_column(1, "n", pc.multiply(t["n"], 10))

    got = dupset.tree_reduce_refs(refs, combine, final)
    want = {}
    for i in range(n):
        for k in (i % 7, i % 5):
            want[k] = want.get(k, 0) + 10
    assert got.to_pydict() == {"k": sorted(want), "n": [want[k] for k in sorted(want)]}
    assert dupset.tree_reduce_refs([ray.put(None)] * 40, combine, final) is None
