"""Golden e2e: the distributed pipeline must reproduce the single-process
reference path byte-for-byte per url, at any parallelism / wave size
(FIXTURES.md §2, BASELINE.json per-url invariant)."""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from ocr_suite_ray.pipelines.extract import ExtractConfig, run_pipeline
from ocr_suite_ray.pipelines.golden import golden_extract


def _load_final(out_dir: str) -> pa.Table:
    t = pads.dataset(f"{out_dir}/final").to_table()
    idx = pa.compute.sort_indices(t, sort_keys=[("url", "ascending")])
    return t.take(idx)


def _load_pages(files) -> pa.Table:
    return pa.concat_tables([pq.read_table(f) for f in files])


@pytest.fixture(scope="module")
def golden(small_corpus):
    _, files = small_corpus
    return golden_extract(_load_pages(files))


def _assert_matches_golden(final: pa.Table, golden: pa.Table):
    assert final.num_rows == golden.num_rows
    assert final.column("url").to_pylist() == golden.column("url").to_pylist()
    # byte-identical extracted text per url — THE invariant
    assert final.column("text").to_pylist() == golden.column("text").to_pylist()
    for col in ["warc_ts", "payload_kind", "spans", "n_blocks_kept",
                "n_blocks_dropped", "status"]:
        assert final.column(col).to_pylist() == golden.column(col).to_pylist(), col


def test_pipeline_matches_golden(ray_session, small_corpus, golden, tmp_path):
    pages_dir, _ = small_corpus
    out = str(tmp_path / "out")
    s = run_pipeline(pages_dir, out, ExtractConfig(wave_size=4, pool_size=2))
    assert s["partitions_processed"] == 4
    _assert_matches_golden(_load_final(out), golden)


def test_pipeline_parallelism_invariant(ray_session, small_corpus, golden, tmp_path):
    """Different wave size and pool size -> same bytes."""
    pages_dir, _ = small_corpus
    out = str(tmp_path / "out2")
    run_pipeline(pages_dir, out, ExtractConfig(wave_size=2, pool_size=3))
    _assert_matches_golden(_load_final(out), golden)


def test_final_has_no_duplicate_urls(ray_session, small_corpus, tmp_path):
    pages_dir, _ = small_corpus
    out = str(tmp_path / "out3")
    run_pipeline(pages_dir, out, ExtractConfig(wave_size=4, pool_size=2))
    urls = _load_final(out).column("url").to_pylist()
    assert len(urls) == len(set(urls))


def test_pipeline_auto_wave_size(ray_session, small_corpus, golden, tmp_path):
    """wave_size='auto' (bounded wave count) -> same bytes, one wave here."""
    pages_dir, _ = small_corpus
    out = str(tmp_path / "out4")
    s = run_pipeline(pages_dir, out, ExtractConfig(wave_size="auto", pool_size=2))
    assert s["waves"] == 1  # 4 files, floor 32 -> single wave
    _assert_matches_golden(_load_final(out), golden)


def test_all_empty_shards_finalize_to_empty_store(ray_session, tmp_path):
    """Every shard has zero rows: no partition writes an is_dup= dir, and
    the finalize must still produce an empty final/ store."""
    from ocr_suite_ray.schemas import PAGES_SCHEMA

    pages_dir = tmp_path / "pages"
    pages_dir.mkdir()
    for k in range(2):
        pq.write_table(PAGES_SCHEMA.empty_table(), str(pages_dir / f"pages_{k}.parquet"))
    out = str(tmp_path / "out")
    s = run_pipeline(str(pages_dir), out, ExtractConfig(pool_size=2))
    assert s["rows_extracted"] == 0
    assert s["partitions_processed"] == 2
    assert pads.dataset(f"{out}/final").to_table().num_rows == 0


def test_resolve_wave_size():
    from ocr_suite_ray.pipelines.extract import _resolve_wave_size

    assert _resolve_wave_size(8, 256) == 8           # explicit int passes through
    assert _resolve_wave_size("auto", 16) == 32      # small corpus: one wave
    assert _resolve_wave_size("auto", 256) == 64     # 4 waves
    assert _resolve_wave_size("auto", 100_000) == 25_000
    with pytest.raises(ValueError):
        _resolve_wave_size("huge", 10)
    with pytest.raises(ValueError):
        _resolve_wave_size(0, 10)


def test_more_partitions_than_cpus_matches_golden(ray_session, tmp_path):
    """Nine partitions on fewer CPUs: the probe, dup scan, fingerprint
    and finalize fan-outs each start one task per chunk of inputs, at most
    one per CPU, the wave one task per chunk of units, at most one per CPU
    and pool slot, the summaries record those counts, and final/ still
    equals golden_extract (the corpus repeats urls across partitions, so
    the finalize reduces dup files from several tasks)."""
    from ocr_suite_ray.sources.synthetic import generate_corpus

    cpus = int(ray_session.cluster_resources()["CPU"])
    files = generate_corpus(str(tmp_path / "pages"), 360, seed=3, n_files=9)
    assert len(files) > cpus
    out = str(tmp_path / "out")
    s = run_pipeline(
        str(tmp_path / "pages"), out,
        ExtractConfig(pool_size=2, on_bad_input="quarantine"),
    )
    assert s["partitions_processed"] == 9
    assert s["fanout"] == {
        "cpus": cpus, "probe": cpus, "dup_scan": cpus, "dup_fp": cpus,
        "wave": min(cpus, 2),
    }
    assert s["finalize"]["fanout"] == {"cpus": cpus, "link": cpus}
    assert os.path.exists(os.path.join(out, "final", "winners.parquet"))
    _assert_matches_golden(_load_final(out), golden_extract(_load_pages(files)))


@pytest.mark.parametrize("cpus", [2, 3])
def test_more_units_than_chunks_matches_golden(ray_session, tmp_path, monkeypatch, cpus):
    """Multi-row-group files on fewer CPUs than units: the wave deals the
    units onto one chunk per CPU, each chunk task runs several units, and
    final/ still equals golden_extract."""
    from ocr_suite_ray.pipelines import extract as extract_mod
    from ocr_suite_ray.sources.synthetic import generate_pages_table
    from ocr_suite_ray.state import dupset

    pages = tmp_path / "pages"
    pages.mkdir()
    files = []
    for k, n in enumerate((90, 50, 20)):
        path = str(pages / f"pages_{k:05d}.parquet")
        pq.write_table(
            generate_pages_table(n, seed=5, start=100 * k), path, row_group_size=16
        )
        files.append(path)
    units = sum(pq.ParquetFile(f).num_row_groups for f in files)
    assert units > 2 * cpus
    monkeypatch.setattr(extract_mod, "cluster_cpus", lambda: cpus)
    monkeypatch.setattr(dupset, "cluster_cpus", lambda: cpus)
    out = str(tmp_path / "out")
    s = run_pipeline(str(pages), out, ExtractConfig())
    assert s["fanout"]["wave"] == cpus
    _assert_matches_golden(_load_final(out), golden_extract(_load_pages(files)))


@pytest.mark.parametrize("seed", range(6))
def test_deal_units_balances_bytes(seed):
    """LPT dealing: every unit lands in exactly one chunk, there are
    min(units, n) chunks, each keeps input order, and no two chunks' byte
    loads differ by more than the largest unit."""
    import random

    from ocr_suite_ray.pipelines.extract import _deal_units

    rng = random.Random(seed)
    sizes = [
        rng.randint(10_000, 90_000) if rng.random() < 0.2 else rng.randint(1, 900)
        for _ in range(rng.randint(0, 40))
    ]
    for n in (1, 2, 3, 7, 64):
        chunks = _deal_units(sizes, n)
        assert len(chunks) == min(len(sizes), n)
        assert sorted(i for c in chunks for i in c) == list(range(len(sizes)))
        assert all(c == sorted(c) for c in chunks)
        loads = [sum(sizes[i] for i in c) for c in chunks]
        if loads:
            assert max(loads) - min(loads) <= max(sizes)


def test_deal_units_spreads_heavy_units():
    """Heavy units last in input order are dealt first, onto different
    chunks, and the light units fill the lighter chunk: an even
    contiguous split would put both heavy units on one chunk, and dealing
    in input order would stack a heavy unit on top of light ones."""
    from ocr_suite_ray.pipelines.extract import _deal_units

    assert _deal_units([5, 5, 5, 5, 900, 800], 2) == [[4], [0, 1, 2, 3, 5]]


def test_finalize_writes_winners_in_root_task(ray_session, tmp_path, monkeypatch):
    """The winners tree's root task writes winners.parquet and returns only
    its row count: with the driver's parquet writer broken, the finalize of
    a store with dups still succeeds and final/ equals golden_extract."""
    from ocr_suite_ray.pipelines.extract import run_extract_phase, run_finalize_phase
    from ocr_suite_ray.sources.synthetic import generate_corpus

    files = generate_corpus(str(tmp_path / "pages"), 200, seed=11, n_files=3)
    out = str(tmp_path / "out")
    run_extract_phase(str(tmp_path / "pages"), out, ExtractConfig(pool_size=2))

    def _no_driver_write(*a, **kw):
        raise AssertionError("the driver wrote a parquet file")

    monkeypatch.setattr(pq, "write_table", _no_driver_write)
    run_finalize_phase(out)
    monkeypatch.undo()
    winners = pq.read_table(os.path.join(out, "final", "winners.parquet"))
    assert winners.num_rows > 0
    assert not os.path.exists(os.path.join(out, "final", "winners.parquet.tmp"))
    _assert_matches_golden(_load_final(out), golden_extract(_load_pages(files)))


def test_null_url_captures_kept(ray_session, tmp_path):
    """A null url is never a dup: each null-url capture reaches final/ as
    its own row (golden_extract of that page alone), beside the golden
    winners of the other pages."""
    from ocr_suite_ray.sources.synthetic import generate_pages_table

    pages = generate_pages_table(60, seed=9)
    null_rows = [0, 1, pages.num_rows // 2]
    urls = pages["url"].to_pylist()
    for i in null_rows:
        urls[i] = None
    pages = pages.set_column(0, "url", pa.array(urls, pa.string()))
    pdir = tmp_path / "pages"
    pdir.mkdir()
    for k, part in enumerate((pages.slice(0, 40), pages.slice(40))):
        pq.write_table(part, str(pdir / f"pages_{k:05d}.parquet"))
    out = str(tmp_path / "out")
    run_pipeline(str(pdir), out, ExtractConfig(pool_size=2))

    live = pages.filter(pa.compute.is_valid(pages["url"]))
    want = pa.concat_tables(
        [golden_extract(live)] + [golden_extract(pages.slice(i, 1)) for i in null_rows]
    )
    keys = [("url", "ascending"), ("warc_ts", "ascending"), ("text", "ascending")]
    final = pads.dataset(f"{out}/final").to_table()
    assert final["url"].null_count == len(null_rows)
    _assert_matches_golden(final.sort_by(keys), want.sort_by(keys))
