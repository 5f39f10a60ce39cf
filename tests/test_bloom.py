"""Bloom filter unit tests + pipeline equivalence when the dup-membership
broadcast switches from exact set to Bloom (false positives must not change
the final store — they only route urls through the exact winners reduce)."""

from __future__ import annotations

import pyarrow.dataset as pads

from ocr_suite_ray.state.bloom import BloomFilter


def test_bloom_no_false_negatives_and_low_fpp():
    keys = [f"https://site{i}.example/p/{i}" for i in range(20_000)]
    bf = BloomFilter(len(keys), fpp=0.01)
    bf.add_many(keys)
    assert all(k in bf for k in keys)  # no false negatives, ever
    others = [f"https://other{i}.example/x/{i}" for i in range(20_000)]
    fp = sum(k in bf for k in others) / len(others)
    assert fp < 0.03


def test_bloom_serialization_and_merge():
    a, b = BloomFilter(1000), BloomFilter(1000)
    a.add("x")
    b.add("y")
    m = BloomFilter.from_bytes(a.to_bytes()).merge(b)
    assert "x" in m and "y" in m and "z" not in m


def test_pipeline_identical_with_bloom_membership(
    ray_session, small_corpus, tmp_path, monkeypatch
):
    import functools

    from ocr_suite_ray.pipelines import extract
    from ocr_suite_ray.pipelines.extract import ExtractConfig, run_pipeline

    pages_dir, _ = small_corpus
    exact_out, bloom_out = str(tmp_path / "exact"), str(tmp_path / "bloom")
    cfg = ExtractConfig(wave_size=4, pool_size=2)
    run_pipeline(pages_dir, exact_out, cfg)
    # force the Bloom payload: no dup set is small enough for the exact one
    monkeypatch.setattr(
        extract, "membership_ref",
        functools.partial(extract.membership_ref, max_exact=0),
    )
    run_pipeline(pages_dir, bloom_out, cfg)
    a = pads.dataset(f"{exact_out}/final").to_table().sort_by("url")
    b = pads.dataset(f"{bloom_out}/final").to_table().sort_by("url")
    assert a.equals(b)
