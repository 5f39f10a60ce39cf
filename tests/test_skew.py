"""The PDF-heavy + giant-DOM skewed mix (synthetic_skew, the 10x skew-drive
corpus at smoke scale) through the flagship path must reproduce the
single-process golden extraction byte for byte."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from ocr_suite_ray.pipelines.extract import ExtractConfig, run_pipeline
from ocr_suite_ray.pipelines.golden import golden_extract


def test_skew_corpus_matches_golden(ray_session, tmp_path):
    from ocr_suite_ray.sources.synthetic_skew import generate_skew_corpus

    pages = str(tmp_path / "pages")
    files = generate_skew_corpus(pages, 400, seed=11, n_files=4)
    assert len(files) == 4
    out = str(tmp_path / "out")
    run_pipeline(pages, out, ExtractConfig(wave_size=4, pool_size=2))
    final = pads.dataset(f"{out}/final").to_table().sort_by("url")
    golden = golden_extract(pa.concat_tables([pq.read_table(f) for f in files]))
    assert final.equals(golden)
    kinds = final.column("payload_kind").to_pylist()
    pdf_share = kinds.count("pdf") / len(kinds)
    assert 0.12 < pdf_share < 0.3  # the mix is actually PDF-heavy
