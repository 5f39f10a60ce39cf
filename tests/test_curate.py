"""run_curation vs a sequential python oracle: the shuffle-free dedup-filter
must keep exactly (quality-gated, min-url-per-distinct-text) rows."""

from __future__ import annotations

import hashlib

import pyarrow.dataset as pads

from ocr_suite_ray.pipelines.curate import run_curation
from ocr_suite_ray.pipelines.extract import ExtractConfig, run_pipeline


def test_curation_matches_sequential_oracle(ray_session, small_corpus, tmp_path):
    import pyarrow as pa

    from ocr_suite_ray.stages.text_ops import quality_score

    pages_dir, _ = small_corpus
    out = str(tmp_path / "out")
    run_pipeline(pages_dir, out, ExtractConfig(pool_size=2))
    final = pads.dataset(out + "/final").to_table()

    cur = str(tmp_path / "curated")
    s = run_curation(out + "/final", cur, quality_min=70)
    got = pads.dataset(cur, partitioning="hive").to_table().to_pandas()

    # sequential oracle over the same final store
    df = final.select(["url", "text", "status"]).to_pandas()
    df = df[df.status == "ok"]
    q = quality_score(
        pa.table({"doc_id": list(range(len(df))), "text": df.text.tolist()})
    )["quality"].to_pylist()
    df = df.assign(quality=q)
    df = df[df.quality >= 70]
    df["h"] = [hashlib.md5(t.encode()).hexdigest() for t in df.text]
    winner = df.groupby("h")["url"].min()
    df = df[df.url.values == winner.reindex(df.h).values]

    assert set(got.url) == set(df.url)
    assert got.text.nunique() == len(got)
    assert (got.quality >= 70).all()
    assert s["rows_out"] == len(df)


def test_multi_shard_dup_reduce_identical(tmp_path, monkeypatch):
    """Pass 1's keyed dup reduce at its default shard count (one shard at
    this size) and forced to many shards must give byte-identical curated
    output: shards split the text hashes and the vocab disjointly."""
    import pyarrow.dataset as pads

    from ocr_suite_ray.pipelines.curate import run_curation
    from ocr_suite_ray.state import dupset

    final = "/tmp/ocs_curate_test/out/final"
    import os
    if not os.path.isdir(final):
        import shutil

        from ocr_suite_ray.pipelines.extract import ExtractConfig, run_pipeline
        from ocr_suite_ray.sources.synthetic import generate_corpus

        shutil.rmtree("/tmp/ocs_curate_test", ignore_errors=True)
        generate_corpus("/tmp/ocs_curate_test/pages", 400, seed=5, n_files=2)
        run_pipeline("/tmp/ocs_curate_test/pages", "/tmp/ocs_curate_test/out",
                     ExtractConfig(wave_size=2, pool_size=4))
    a = str(tmp_path / "default")
    b = str(tmp_path / "sharded")
    run_curation(final, a)
    monkeypatch.setattr(dupset, "_ROWS_PER_SHARD", 1)  # k = _MAX_SHARDS
    run_curation(final, b)
    ta = pads.dataset(a, partitioning="hive").to_table().sort_by("url")
    tb = pads.dataset(b, partitioning="hive").to_table().sort_by("url")
    assert ta.equals(tb)
    assert ta.num_rows > 0
