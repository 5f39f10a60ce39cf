"""Flagship-pipeline queries: run the extraction engine on the deterministic
synthetic pages corpus (sized per sf tier) and query its output.

These are rows-only for the driver (the store is engine-generated — no SQL
view exists); the byte-identical correctness gate for the same pipeline is
the golden test suite (tests/test_pipeline_e2e.py).
"""

from __future__ import annotations

import os

# pages per sf tier for the query-path runs (kept small: the driver runs
# every query at sf0.01; the full-size bench corpus lives in bench.py)
_QUERY_PAGES = {"sf0.001": 1_000, "sf0.01": 5_000, "sf0.1": 20_000}


def _ensure_extracted(sf_dir: str) -> str:
    """Generate corpus + run the flagship pipeline once per sf tier
    (idempotent: corpus generation and lineage both skip finished work)."""
    from ocr_suite_ray.pipelines.extract import ExtractConfig, run_pipeline
    from ocr_suite_ray.sources.synthetic import generate_corpus

    tag = os.path.basename(os.path.normpath(sf_dir))
    n = _QUERY_PAGES.get(tag, 2_000)
    base = f"/tmp/ocs_query/{tag}-{n}"
    generate_corpus(os.path.join(base, "pages"), n, seed=42, n_files=4)
    cfg = ExtractConfig(wave_size=4)
    run_pipeline(os.path.join(base, "pages"), os.path.join(base, "out"), cfg)
    return os.path.join(base, "out", "final")


def q_extract_flagship(sf_dir: str):
    """The full extract→dedup pipeline; returns the final store."""
    import ray.data as rd

    final = _ensure_extracted(sf_dir)
    return rd.read_parquet(final).select_columns(
        ["url", "warc_ts", "payload_kind", "text", "n_blocks_kept",
         "n_blocks_dropped", "status"]
    )


def q_search_extracted(sf_dir: str):
    """Viewer-parity search over the extracted store (filter+sort)."""
    from ocr_suite_ray.pipelines.search import search_extracted

    return search_extracted(_ensure_extracted(sf_dir), "content")


def q_search_hierarchy(sf_dir: str):
    """day/hour/minute match-count tree over the extracted store."""
    from ocr_suite_ray.pipelines.search import search_hierarchy

    return search_hierarchy(_ensure_extracted(sf_dir), "content")


def q_matches_per_url(sf_dir: str):
    from ocr_suite_ray.pipelines.search import matches_per_url

    return matches_per_url(_ensure_extracted(sf_dir), "capture")


EXTRACT_QUERIES = {
    "extract_flagship": (q_extract_flagship, None),
    "search_extracted": (q_search_extracted, None),
    "search_hierarchy": (q_search_hierarchy, None),
    "matches_per_url": (q_matches_per_url, None),
}
