"""Viewer-parity query pipeline over the extracted store (SURVEY §3.2).

The reference's viewer fans a LIKE query over per-video SQLite shards,
merges, sorts by timestamp and builds a day→hour→minute→frame tree
(``src/viewer/search.cpp:96-196``, ``src/viewer/results.cpp:123-126``,
``src/viewer/views/search_results_view.cpp:26-158``). Here each query reads
the store once, with one plain Ray task per chunk of parquet files (at
most one chunk per CPU) and no Ray Data exchange:

    per chunk: walk row groups → filter(RE2 literal match)   [vectorized]
      search:    → project + sort(warc_ts, url)   → tree merge, same sort
      hierarchy: → day/hour/minute count partial  → tree merge, summed

The tree merge (``state.dupset.dataset_from_root``) holds at most 32 inputs
per task; its root is the result, handed back as a one-block Dataset. On
one CPU the single scan task is that root, so a query runs two serial
tasks: the scan and ``from_arrow_refs``' metadata task (three with several
chunks: the root merge runs between them).
"""

from __future__ import annotations

import functools

import pyarrow as pa
import pyarrow.compute as pc

from ocr_suite_ray.schemas import EXTRACTED_SCHEMA
from ocr_suite_ray.state.dupset import (
    cpu_chunks,
    dataset_from_root,
    remote_fn,
    root_block,
)
from ocr_suite_ray.stages.search import (
    HIERARCHY_SCHEMA,
    check_pattern,
    contains_literal,
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


def _scan_chunk(paths: list, pattern: str, columns: list, per_chunk, root=None):
    """``per_chunk`` of the ``columns`` of the rows of a chunk of parquet
    files whose text contains ``pattern`` (``None`` for a chunk without
    hits), applied once to the chunk's hits in file order, then ``root``
    when this task is the whole query. Walks the files row group by row
    group, so worker memory is bounded by one row group's ``text`` plus
    the chunk's projected hits."""
    import pyarrow.parquet as pq

    hits = []
    for path in paths:
        f = pq.ParquetFile(path)
        for rg in range(f.metadata.num_row_groups):
            t = f.read_row_group(rg, columns=columns + ["text"])
            t = t.filter(contains_literal(t["text"], pattern))
            if t.num_rows:
                hits.append(t.select(columns))
    t = per_chunk(pa.concat_tables(hits)) if hits else None
    return t if root is None else root(t)


def _scan_merge(final_dir: str, pattern: str, columns: list, per_chunk, merge, schema):
    """One plain remote :func:`_scan_chunk` task per contiguous chunk of
    the store's parquet files (``cpu_chunks``: one chunk per CPU at most),
    merged with ``merge`` into a one-block Dataset of ``schema``. This
    skips a Dataset execution's fixed ramp, as the flagship's dup scan
    (``state.dupset.dup_key_table_ref_from_files``) does, and pays one task
    round trip per CPU, not per file.

    Serial tasks per query: with one chunk the scan task is the root (it
    runs ``per_chunk``, ``merge`` and ``root_block``'s empty-``schema``
    swap), so two: the scan and ``from_arrow_refs``' metadata task. With
    several chunks the tree's root merge (one level up to 32 chunks) runs
    between them, so three."""
    import pyarrow.dataset as pads
    import ray.data as rd

    check_pattern(pattern)
    scan = remote_fn(_scan_chunk)
    chunks = cpu_chunks(pads.dataset(final_dir, format="parquet").files)
    if len(chunks) == 1:
        root = functools.partial(root_block, schema, merge, None)
        return rd.from_arrow_refs(
            [scan.remote(chunks[0], pattern, columns, per_chunk, root)]
        )
    leaves = [scan.remote(chunk, pattern, columns, per_chunk) for chunk in chunks]
    return dataset_from_root(leaves, merge, schema=schema)


def search_extracted(final_dir: str, pattern: str):
    """All matching extracted docs (``url, warc_ts, n_blocks_kept,
    status``), globally ordered by capture time with a deterministic url
    tiebreak and null times last (the merged+sorted viewer result set).

    Each chunk's hits are sorted in its scan task, then merged by a tree
    with the same sort. The root holds the whole projected hit set in one
    worker — about 70 B/row, so a 1M-hit query needs ~70 MB there, the
    shape of the reference viewer's in-memory merge."""
    return _scan_merge(
        final_dir, pattern, SEARCH_COLS, _by_capture, _by_capture, SEARCH_SCHEMA
    )


def search_hierarchy(final_dir: str, pattern: str):
    """day→hour→minute counts of matches (the search-results tree,
    flattened to group counts — the UI label '{frame} - {n}' analogue), in
    tree order."""
    return _scan_merge(
        final_dir, pattern, ["warc_ts"], _hierarchy_of_hits, hierarchy_merge,
        HIERARCHY_SCHEMA,
    )


def fetch_payload(pages_dir: str, url: str, columns: list | None = None) -> pa.Table:
    """Point lookup of the ORIGINAL crawl payload(s) for one url — the
    viewer's frame re-decode (``src/viewer/views/frame_view.cpp:22-37``
    re-reads the exact source frame for a selected match on demand).

    A single-record fetch is not a distributed job: it runs in the caller,
    with no Ray task, and reads the store through ``pyarrow.dataset`` with
    a pushed-down ``url`` predicate, in two phases. Phase one reads only
    the url column (and the ``__filename`` special field) to find the
    files that hold the url; url min/max statistics hardly prune a store
    of unsorted urls, so a one-phase read decoded ``columns`` (the
    ``html`` payload) of every file. Phase two reads ``columns`` from
    those files only, in store order. Returns every capture of the url
    (dup urls have several), newest first; an absent url gives zero rows
    of the store schema."""
    import pyarrow.dataset as pads

    dset = pads.dataset(pages_dir, format="parquet")
    key = pc.field("url") == url
    held = set(dset.to_table(filter=key, columns=["__filename"])["__filename"].to_pylist())
    frags = [f for f in dset.get_fragments() if f.path in held]
    t = pads.FileSystemDataset(frags, dset.schema, dset.format, dset.filesystem).to_table(
        filter=key, columns=columns
    )
    if t.num_rows > 1 and "warc_ts" in t.column_names:
        t = t.take(pc.sort_indices(t, sort_keys=[("warc_ts", "descending")]))
    return t


def view_document(pages_dir: str, final_dir: str, url: str) -> dict:
    """frame_view parity: the extracted record for ``url`` joined with its
    winning source payload (the raw bytes the viewer re-renders). Both sides
    are two-phase :func:`fetch_payload` lookups."""
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
