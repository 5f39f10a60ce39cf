"""Search/query path: substring search, time bucketing, hierarchy counts.

Viewer parity (``SURVEY.md`` §3.2): the reference fans out a LIKE join over
per-video SQLite shards (``src/common/database.cpp:190-194``), merges under a
mutex, sorts globally by timestamp (``src/viewer/results.cpp:123-126``) and
builds a day→hour→minute tree in one pass over the sorted stream
(``src/viewer/views/search_results_view.cpp:26-158``). Here the substring
filter is one vectorized literal match per batch (:func:`contains_literal`,
no per-row Python), and the hierarchy is a per-block day/hour/minute count
partial (:func:`hierarchy_partial`) summed by a narrow tree merge
(:func:`hierarchy_merge`) — the group space is calendar-bounded (days x 1440
minutes), so no row-level exchange and no sort-based shuffle.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

MIN_QUERY_LEN = 3  # reference: queries under 3 chars rejected (search.cpp:168-172)

HIERARCHY_KEYS = ["day", "hour", "minute"]
HIERARCHY_SCHEMA = pa.schema([
    ("day", pa.timestamp("us")), ("hour", pa.int32()),
    ("minute", pa.int32()), ("n", pa.int64()),
])


def check_pattern(pattern: str) -> None:
    if len(pattern) < MIN_QUERY_LEN:
        raise ValueError(f"query must be >= {MIN_QUERY_LEN} chars (reference guard)")


def contains_literal(strings, pattern: str):
    """Boolean mask of the ``strings`` that contain ``pattern`` (LIKE
    '%pattern%': the matches of ``pc.match_substring``). RE2 over the
    escaped literal, which on one core scans store-like text several times
    faster than ``match_substring``'s kernel, most on rare and absent
    patterns."""
    # every character but a letter, digit or _ as an \x{...} code point:
    # no metacharacter, backslash or \E keeps a meaning
    regex = "".join(
        c if c.isalnum() or c == "_" else f"\\x{{{ord(c):X}}}" for c in pattern
    )
    return pc.match_substring_regex(strings, regex)


def find_text(ds, pattern: str, text_col: str = "text"):
    """Substring search (LIKE '%pattern%' parity). Vectorized per batch."""
    check_pattern(pattern)
    return ds.map_batches(
        lambda t: t.filter(contains_literal(t[text_col], pattern)),
        batch_format="pyarrow",
    )


def hierarchy_partial(ts) -> pa.Table:
    """day/hour/minute match counts of one batch's timestamps
    (results.cpp:52-58 bucketing). A null timestamp counts in the all-null
    group: ``count_all``, not a count of the key, which reports 0 for it
    (pyarrow counts valid values only)."""
    t = pa.table({
        "day": pc.cast(pc.floor_temporal(ts, unit="day"), pa.timestamp("us")),
        "hour": pc.cast(pc.hour(ts), pa.int32()),
        "minute": pc.cast(pc.minute(ts), pa.int32()),
    })
    g = t.group_by(HIERARCHY_KEYS).aggregate([([], "count_all")])
    # select by NAME first: group_by output order is release-fragile
    return g.select(HIERARCHY_KEYS + ["count_all"]).rename_columns(
        HIERARCHY_KEYS + ["n"]
    )


def hierarchy_merge(t: pa.Table) -> pa.Table:
    """Sum of :func:`hierarchy_partial` tables, in tree order (day, hour,
    minute; the null group last) — associative, so it runs at every fan-in
    level of a tree merge."""
    g = t.group_by(HIERARCHY_KEYS).aggregate([("n", "sum")])
    g = g.select(HIERARCHY_KEYS + ["n_sum"]).rename_columns(HIERARCHY_KEYS + ["n"])
    return g.take(pc.sort_indices(
        g, sort_keys=[(k, "ascending") for k in HIERARCHY_KEYS],
        null_placement="at_end",
    ))


def hierarchy_counts(ds, ts_col: str = "ts"):
    """day→hour→minute group counts (the search-results tree, flattened):
    per-block :func:`hierarchy_partial`, then the :func:`hierarchy_merge`
    tree."""
    from ocr_suite_ray.state.dupset import block_refs, dataset_from_root

    partials = ds.map_batches(
        lambda t: hierarchy_partial(t[ts_col]), batch_format="pyarrow"
    )
    return dataset_from_root(
        block_refs(partials), hierarchy_merge, schema=HIERARCHY_SCHEMA
    )
