"""Viewer-parity query pipeline over the extracted store (SURVEY §3.2).

The reference's viewer fans a LIKE query over per-video SQLite shards,
merges, sorts by timestamp and builds a day→hour→minute→frame tree
(``src/viewer/search.cpp:96-196``, ``src/viewer/results.cpp:123-126``,
``src/viewer/views/search_results_view.cpp:26-158``). Here each query reads
the store once, with one plain Ray task per parquet file and no Ray Data
exchange:

    per file: walk row groups → filter(match_substring)      [vectorized]
      search:    → project + sort(warc_ts, url)   → tree merge, same sort
      hierarchy: → day/hour/minute count partial  → tree merge, summed

The tree merge (``state.dupset.tree_reduce_refs``) holds at most 32 inputs
per task; its root is the result, handed back as a one-block Dataset.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ocr_suite_ray.schemas import EXTRACTED_SCHEMA
from ocr_suite_ray.stages.search import (
    HIERARCHY_SCHEMA,
    check_pattern,
    hierarchy_merge,
    hierarchy_partial,
)

SEARCH_COLS = ["url", "warc_ts", "n_blocks_kept", "status"]
SEARCH_SCHEMA = pa.schema([EXTRACTED_SCHEMA.field(c) for c in SEARCH_COLS])


def _by_capture(t: pa.Table) -> pa.Table:
    # nulls last, as Dataset.sort placed them
    return t.take(pc.sort_indices(
        t, sort_keys=[("warc_ts", "ascending"), ("url", "ascending")],
        null_placement="at_end",
    ))


def _hierarchy_of_hits(t: pa.Table) -> pa.Table:
    return hierarchy_partial(t["warc_ts"])


def _scan_file(path: str, pattern: str, columns: list, per_file):
    """``per_file`` of the ``columns`` of the rows of one parquet file whose
    text contains ``pattern`` (``None`` for a file without hits). Walks the
    file's row groups, so worker memory is bounded by one row group's
    ``text``."""
    import pyarrow.parquet as pq

    f = pq.ParquetFile(path)
    hits = []
    for rg in range(f.metadata.num_row_groups):
        t = f.read_row_group(rg, columns=columns + ["text"])
        t = t.filter(pc.match_substring(t["text"], pattern))
        if t.num_rows:
            hits.append(t.select(columns))
    return per_file(pa.concat_tables(hits)) if hits else None


def _scan_files(final_dir: str, pattern: str, columns: list, per_file) -> list:
    """One plain remote :func:`_scan_file` task per parquet file of the
    store. This skips a Dataset execution's fixed ramp, as the flagship's
    dup scan (``state.dupset.dup_key_table_ref_from_files``) does."""
    import pyarrow.dataset as pads

    from ocr_suite_ray.state.dupset import remote_fn

    check_pattern(pattern)
    scan = remote_fn(_scan_file)
    return [
        scan.remote(path, pattern, columns, per_file)
        for path in pads.dataset(final_dir, format="parquet").files
    ]


def search_extracted(final_dir: str, pattern: str):
    """All matching extracted docs (``url, warc_ts, n_blocks_kept,
    status``), globally ordered by capture time with a deterministic url
    tiebreak and null times last (the merged+sorted viewer result set).

    Each file's hits are sorted in its scan task, then merged by a tree
    with the same sort. The root holds the whole projected hit set in one
    worker — about 70 B/row, so a 1M-hit query needs ~70 MB there, the
    shape of the reference viewer's in-memory merge."""
    from ocr_suite_ray.state.dupset import dataset_from_root, tree_reduce_refs

    leaves = _scan_files(final_dir, pattern, SEARCH_COLS, _by_capture)
    return dataset_from_root(
        tree_reduce_refs(leaves, _by_capture, materialize=False), SEARCH_SCHEMA
    )


def search_hierarchy(final_dir: str, pattern: str):
    """day→hour→minute counts of matches (the search-results tree,
    flattened to group counts — the UI label '{frame} - {n}' analogue), in
    tree order."""
    from ocr_suite_ray.state.dupset import dataset_from_root, tree_reduce_refs

    leaves = _scan_files(final_dir, pattern, ["warc_ts"], _hierarchy_of_hits)
    return dataset_from_root(
        tree_reduce_refs(leaves, hierarchy_merge, materialize=False),
        HIERARCHY_SCHEMA,
    )


def fetch_payload(pages_dir: str, url: str, columns: list | None = None) -> pa.Table:
    """Point lookup of the ORIGINAL crawl payload(s) for one url — the
    viewer's frame re-decode (``src/viewer/views/frame_view.cpp:22-37``
    re-reads the exact source frame for a selected match on demand).

    A single-record fetch is not a distributed job: this reads the pages
    store directly through ``pyarrow.dataset`` with a pushed-down predicate,
    so parquet row-group statistics prune every row group whose url range
    excludes the key — I/O is O(matching row groups), not O(store). Returns
    every capture of the url (dup urls have several), newest first."""
    import pyarrow.dataset as pads

    dset = pads.dataset(pages_dir, format="parquet")
    t = dset.to_table(filter=pc.field("url") == url, columns=columns)
    if t.num_rows > 1 and "warc_ts" in t.column_names:
        t = t.take(pc.sort_indices(t, sort_keys=[("warc_ts", "descending")]))
    return t


def view_document(pages_dir: str, final_dir: str, url: str) -> dict:
    """frame_view parity: the extracted record for ``url`` joined with its
    winning source payload (the raw bytes the viewer re-renders). Both sides
    are pushdown point lookups."""
    src = fetch_payload(pages_dir, url)
    ext = fetch_payload(final_dir, url)
    if ext.num_rows == 0:
        raise KeyError(f"url not in extracted store: {url}")
    rec = ext.slice(0, 1).to_pylist()[0]
    # the dedup winner is the newest capture. On exact warc_ts TIES the
    # winner is chosen by the extracted-content tuple (dedup ORDER_KEYS),
    # which file-order payload sorting cannot see — re-extract the tied
    # captures (a handful, point-lookup context) and pair the one whose
    # extraction matches the stored record, so the viewer never renders a
    # source that doesn't correspond to the shown text.
    payload = src["html"][0].as_py() if src.num_rows else None
    if src.num_rows > 1 and "warc_ts" in src.column_names:
        newest = src["warc_ts"][0]
        tied = src.filter(pc.equal(src["warc_ts"], newest))
        if tied.num_rows > 1:
            from ocr_suite_ray.functions.extract import extract_payload

            for cand in tied["html"].to_pylist():
                try:
                    if extract_payload(cand)["text"] == rec.get("text"):
                        payload = cand
                        break
                except Exception:
                    continue
    rec["payload"] = payload
    rec["n_captures"] = src.num_rows
    return rec


def matches_per_url(final_dir: str, pattern: str):
    """Per-document match counts for a pattern (texts-per-frame analogue).

    The pattern is a literal (the viewer escapes it too), so the count is
    one vectorized ``pc.count_substring`` C kernel per batch — a stateless
    task ``map_batches`` with no actor pool (there is no state worth
    warming) and no per-row Python. Non-overlapping match semantics match
    ``re.findall`` on a literal. Read is projected to the three live
    columns so `spans` never loads."""
    import ray.data as rd

    check_pattern(pattern)

    def _count(t: pa.Table) -> pa.Table:
        counts = pc.count_substring(t["text"], pattern)
        out = t.select(["url", "warc_ts"])
        out = out.append_column("n_matches", pc.cast(counts, pa.int64()))
        return out.filter(pc.greater(out["n_matches"], 0))

    ds = rd.read_parquet(final_dir, columns=["url", "warc_ts", "text"])
    return ds.map_batches(_count, batch_format="pyarrow")
