"""Extraction stage: the warm per-worker extractor over Arrow batches.

Reference analogue: one warm ``TessBaseAPI`` per consumer thread, initialized
once then fed frames (``src/recognition/provider/tesseract.cpp:59-76``,
``src/recognition/main.cpp:153,174-177``). ``PageExtractor`` holds the warm
extractor state (and the resolved OCR engine) from ``__init__`` and
processes Arrow batches in ``__call__``, sniffing each payload and
dispatching html/pdf per row. The fused wave
(``pipelines/extract.py:FusedExtractWriter``) keeps one per worker process.

The per-row Python work inside ``__call__`` is the recognition payload itself
(DOM parse ≈ OCR inference) — the batch boundary stays zero-copy Arrow, and
all column assembly is Arrow-native (``pa.array`` with explicit types).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ocr_suite_ray.functions.extract import extract_payload
from ocr_suite_ray.functions.html_extract import extract_html  # noqa: F401 (warm import)
from ocr_suite_ray.schemas import EXTRACTED_SCHEMA


def _result_table(batch: pa.Table, results: list[dict]) -> pa.Table:
    """Assemble the EXTRACTED_SCHEMA table, passing through the key columns
    of the input."""
    # spans assembled from flat arrays (ListArray.from_arrays) — ~5x faster
    # than a python list-of-dicts per row
    offsets = np.empty(len(results) + 1, dtype=np.int64)
    offsets[0] = 0
    starts: list[int] = []
    stops: list[int] = []
    kinds: list[str] = []
    for i, r in enumerate(results):
        sp = r["spans"]
        if sp:
            s1, s2, s3 = zip(*sp)  # C-speed transpose, no per-span Python
            starts.extend(s1)
            stops.extend(s2)
            kinds.extend(s3)
        offsets[i + 1] = len(starts)
    span_struct = pa.StructArray.from_arrays(
        [
            pa.array(starts, pa.int64()),
            pa.array(stops, pa.int64()),
            pa.array(kinds, pa.string()),
        ],
        names=["start", "stop", "kind"],
    )
    spans = pa.LargeListArray.from_arrays(pa.array(offsets, pa.int64()), span_struct)
    cols: dict[str, pa.Array | pa.ChunkedArray] = {
        "url": batch["url"],
        "warc_ts": batch["warc_ts"],
        "payload_kind": pa.array([r["payload_kind"] for r in results], pa.string()),
        "text": pa.array([r["text"] for r in results], pa.large_string()),
        "spans": spans,
        "n_blocks_kept": pa.array([r["n_blocks_kept"] for r in results], pa.int32()),
        "n_blocks_dropped": pa.array([r["n_blocks_dropped"] for r in results], pa.int32()),
        "status": pa.array([r["status"] for r in results], pa.string()),
    }
    return pa.table({n: cols[n] for n in EXTRACTED_SCHEMA.names})


def _make_ocr(ocr_engine):
    """Resolve an ExtractConfig.ocr_engine value to a warm per-worker OCR
    callable (None stays None — scanned PDFs become error rows)."""
    if ocr_engine is None:
        return None
    from ocr_suite_ray.functions.ocr import ocr_image_text, resolve_engine

    engine = resolve_engine(ocr_engine)  # pin auto-> real/stub ONCE per worker
    return lambda img: ocr_image_text(img, engine)


class PageExtractor:
    """Warm extractor: sniffs each payload, dispatches html/pdf."""

    def __init__(self, ocr_engine: str | None = None) -> None:
        # Warm state: module-level compiled regexes are imported above; the
        # interned dispatch closure lives here (one per worker, reused across
        # batches — the one-TessBaseAPI-per-thread analogue). The OCR engine
        # (guarded-import pytesseract or the deterministic stub) is resolved
        # once per worker, the tesseract.cpp:59-76 warm-engine shape.
        self._extract = extract_payload
        self._ocr = _make_ocr(ocr_engine)

    def __call__(self, batch: pa.Table) -> pa.Table:
        # slice-as-you-go over the Arrow column: one payload is materialized
        # as Python bytes at a time and freed before the next, instead of a
        # full-batch to_pylist() copy held alongside the Arrow buffers —
        # halves peak per-task memory traffic on payload-heavy blocks
        ext = self._extract
        results = [ext(v.as_py(), ocr=self._ocr) for v in batch["html"]]
        return _result_table(batch, results)
