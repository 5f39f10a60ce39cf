"""Newest-capture-wins dedup by url — the flagship's winner rule.

Reference analogue: ``text_entries.value TEXT UNIQUE`` + ``INSERT OR IGNORE``
(store each distinct value once, ``src/common/db/updates/v3.inl:15-20``,
``src/common/database.cpp:181``) combined with the idempotent re-processing
check (``database.cpp:58-60``). Per ``BASELINE.json north_star`` the required
semantics is: one output row per ``url``, winner = max ``warc_ts``,
deterministic content-tuple tiebreak when timestamps tie — the result is
identical at any parallelism, partitioning, or replay.

The flagship applies it in ``pipelines/extract._finalize_linked``: the
dup-url membership (``state/dupset.py``) routes every capture of a
repeated url into the store's ``is_dup=1`` files, each finalize task keeps
the newest capture per url of its partitions (``_local_best``), and one
tree root keeps the newest across tasks and writes the winners. Captures
with a null url are never dups and pass through unchanged.

The nested ``spans`` column is carried as three parallel plain-list
columns between tasks (``encode_spans``; Ray's exchange machinery
mishandles list<struct> in several code paths) and re-nested zero-copy at
the root (``decode_spans``).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ocr_suite_ray.schemas import EXTRACTED_SCHEMA, SPAN_TYPE

_SP_START = "__spans_start"
_SP_STOP = "__spans_stop"
_SP_KIND = "__spans_kind"


def encode_spans(t: pa.Table) -> pa.Table:
    """list<struct> spans → three parallel plain-list columns (shuffle-safe:
    Ray's exchange machinery mishandles list<struct> in several code paths,
    but plain large_list<int64/string> round-trips fine). Zero-copy both
    ways — the list offsets and struct children are reused, no per-row
    Python."""
    if "spans" not in t.column_names:
        return t
    col = t["spans"].combine_chunks()
    values = col.values  # StructArray
    off = col.offsets
    t = t.drop_columns(["spans"])
    t = t.append_column(_SP_START, pa.LargeListArray.from_arrays(off, values.field("start")))
    t = t.append_column(_SP_STOP, pa.LargeListArray.from_arrays(off, values.field("stop")))
    t = t.append_column(_SP_KIND, pa.LargeListArray.from_arrays(off, values.field("kind")))
    return t


def decode_spans(t: pa.Table) -> pa.Table:
    if _SP_START not in t.column_names:
        return t
    starts = t[_SP_START].combine_chunks()
    stops = t[_SP_STOP].combine_chunks()
    kinds = t[_SP_KIND].combine_chunks()
    # the three columns share row-wise list lengths by construction, so one
    # column's offsets index all three value buffers — but each column's
    # values must be re-based to ITS offsets (they may differ after slices)
    struct = pa.StructArray.from_arrays(
        [
            pc.list_flatten(starts),
            pc.list_flatten(stops),
            pc.list_flatten(kinds),
        ],
        fields=list(SPAN_TYPE),
    )
    lens = pc.list_value_length(starts).cast(pa.int64())
    off = pa.concat_arrays(
        [pa.array([0], pa.int64()), pc.cumulative_sum(lens)]
    )
    dec = pa.LargeListArray.from_arrays(off, struct)
    t = t.drop_columns([_SP_START, _SP_STOP, _SP_KIND]).append_column("spans", dec)
    order = [n for n in EXTRACTED_SCHEMA.names if n in t.column_names]
    order += [n for n in t.column_names if n not in order]
    return t.select(order)


# Deterministic winner order among same-url captures: newest warc_ts first,
# ties broken by the CONTENT TUPLE (text, status, kind, block counts) under
# ascending multi-key comparison. Rows equal under every key are fully
# interchangeable, so the winner's content is a pure function of the input
# *set* (not its order) — same contract the old hash-rank gave, but the
# whole compare is Arrow's C-speed multi-column sort (UTF-8 bytewise string
# order == Python code-point order, so the golden's tuple compare agrees).
ORDER_KEYS = (
    "warc_ts",
    "text",
    "status",
    "payload_kind",
    "n_blocks_kept",
    "n_blocks_dropped",
)


def _keep_last_per_url(t: pa.Table) -> pa.Table:
    """Sort by (url, ORDER_KEYS...), keep the last row of each url run —
    vectorized run-boundary detection, no per-row Python. Associative:
    applying per block then across blocks gives the global max per url."""
    if t.num_rows == 0:
        return t
    keys = [("url", "ascending")] + [
        (k, "ascending") for k in ORDER_KEYS if k in t.column_names
    ]
    t = t.take(pc.sort_indices(t, sort_keys=keys))
    u = t["url"].combine_chunks()
    n = len(u)
    if n == 1:
        return t
    # fill_null(True): not_equal against a NULL url yields null, and
    # Table.filter DROPS null-mask rows — a null url adjacent to a group
    # would silently delete that group's winning row
    boundary = pc.fill_null(
        pc.not_equal(u.slice(0, n - 1), u.slice(1, n - 1)), True
    )
    mask = pa.chunked_array([boundary, pa.array([True])])
    return t.filter(mask)


_local_best = _keep_last_per_url  # combiner == finisher (associative reduce)
