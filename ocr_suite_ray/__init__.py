"""ocr_suite_ray — a Ray-native web-text extraction engine.

From-scratch reimplementation of the *capabilities* of ``yowidin/ocr-suite``
(per-document recognize-and-store loop with resume, exact dedup, parallel
search/merge/sort/group — see ``SURVEY.md``) re-targeted at Common-Crawl-style
web pages: HTML/PDF main-content extraction over Parquet row groups by plain
Ray tasks, one per chunk of units, with warm parser state cached per worker,
per-partition lineage for checkpoint/resume, and newest-capture-wins dedup by
url. The viewer and the operator catalog return ``ray.data.Dataset``s.

Nothing in this package calls ``ray.init()``/``ray.shutdown()`` — sessions
are owned by the caller (driver, bench.py, or the pytest fixture).
"""

from ocr_suite_ray.schemas import PAGES_SCHEMA, EXTRACTED_SCHEMA, SCHEMA_VERSION

__all__ = ["PAGES_SCHEMA", "EXTRACTED_SCHEMA", "SCHEMA_VERSION"]
__version__ = "0.1.0"
