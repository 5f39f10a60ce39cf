"""Newest-capture-wins dedup by url — the engine's keyed exact dedup.

Reference analogue: ``text_entries.value TEXT UNIQUE`` + ``INSERT OR IGNORE``
(store each distinct value once, ``src/common/db/updates/v3.inl:15-20``,
``src/common/database.cpp:181``) combined with the idempotent re-processing
check (``database.cpp:58-60``). Per ``BASELINE.json north_star`` the required
semantics is: one output row per ``url``, winner = max ``warc_ts``,
deterministic content-tuple tiebreak when timestamps tie — the result is
identical at any parallelism, partitioning, or replay.

All stages are Arrow-native (``batch_format="pyarrow"``); the nested
``spans`` column is carried as three parallel plain-list columns through the
exchange (Ray's shuffle/aggregate machinery mishandles list<struct> in
several code paths) and re-nested zero-copy on the way out.

Strategies (same result):

- ``partial`` (default): broadcast dup-url membership splits the corpus
  into unique rows (pass through untouched) and the dup-rate-bound
  subset, which alone takes a ``groupby(url)`` reduce — the flagship's
  O(dup-rate) path. ``num_partitions`` is not used here (the dup subset
  is small by contract); the membership exchange is ``narrow``.
- ``bucket`` (scale path for high dup rates): classic hash-partitioned
  reduce.
  1. within-block combiner: vectorized keep-max-per-url (cuts duplicate
     captures before any data moves);
  2. add ``bucket = hash(url) % P``;
  3. ``groupby(bucket).map_groups`` — ONE shuffle; the UDF runs once per
     *bucket* (P calls total, not per url) and does the same vectorized
     keep-last. P bounds per-task memory: size P so total_bytes/P fits a
     worker (at trillion-row scale P grows with the input, the shuffle stays
     all-to-all once).
  Winner order = (warc_ts, content tuple) multi-key sort (``ORDER_KEYS``),
  so "keep last" == newest-capture-wins with a deterministic tiebreak.
- ``map_groups``: the obvious per-url ``groupby(url).map_groups`` — one
  Python call per url group; kept for small inputs and as the semantics
  oracle for the scale path.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ocr_suite_ray.schemas import EXTRACTED_SCHEMA, SPAN_TYPE

BUCKET_COL = "__bucket"
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


def _add_bucket(t: pa.Table, num_partitions: int) -> pa.Table:
    """Hash-bucket the url column (partitioning only — the bucket is dropped
    before output, so the hash needs determinism within a run, not across
    library versions; pandas' fixed-key siphash is C-speed per element)."""
    import pandas as pd

    buckets = (
        pd.util.hash_array(t["url"].to_numpy(zero_copy_only=False)) % num_partitions
    ).astype(np.int32)
    return t.append_column(BUCKET_COL, pa.array(buckets, pa.int32()))


def dedup_latest(
    ds,
    strategy: str = "partial",
    num_partitions: int = 32,
    bloom_threshold: int = 1_000_000,
):
    """Dataset[extracted rows] -> Dataset[one row per url].

    Default ``partial``: duplicate-capture urls are the rare case (~2% in a
    crawl), so the full-payload shuffle of a naive groupby is ~98% wasted
    motion. Instead:

    1. ONE url-column-only aggregate finds urls with >1 capture (tiny
       exchange: key strings + partial counts, never the text payload);
    2. the dup-url set is broadcast; rows of unique urls stream straight
       from the extracted store to the output — zero shuffle, zero
       re-encode, Arrow pass-through;
    3. only the dup subset (2x dup-url count rows) goes through the exact
       per-url groupby reduce.

    At trillion-row scale the broadcast set becomes a Bloom filter (false
    positives merely route extra rows through the exact path — semantics
    unchanged); the groupby in (3) scales with the dup rate, not the corpus.
    """
    if strategy == "partial":
        return _dedup_partial(ds, max_exact=bloom_threshold)
    if strategy in ("agg_join",):  # legacy alias for the bucket scale path
        strategy = "bucket"
    if strategy == "map_groups":
        def _best_group(t: pa.Table) -> pa.Table:
            return _local_best(t.combine_chunks())

        enc = ds.map_batches(encode_spans, batch_format="pyarrow")
        out = enc.groupby("url").map_groups(_best_group, batch_format="pyarrow")
        return out.map_batches(decode_spans, batch_format="pyarrow")
    if strategy != "bucket":
        raise ValueError(f"unknown dedup strategy: {strategy}")

    ranked = ds.map_batches(
        lambda t: _add_bucket(_local_best(encode_spans(t)), num_partitions),
        batch_format="pyarrow",
    )

    def _bucket_best(t: pa.Table) -> pa.Table:
        t = _keep_last_per_url(t.combine_chunks())
        return decode_spans(t.drop_columns([BUCKET_COL]))

    return ranked.groupby(BUCKET_COL).map_groups(_bucket_best, batch_format="pyarrow")


def _dedup_partial(ds, max_exact: int = 1_000_000):
    import ray

    from ocr_suite_ray.state.dupset import (
        DupMembership,
        dup_key_table_ref,
        dup_meta_ref,
        membership_ref,
    )

    # materialize the input ONCE: this tier consumes it three times (the
    # dup-key scan, the uniques filter, the dups filter), and a lazy
    # upstream (an extraction pipeline) would re-execute per pass. The
    # blocks live in the (spillable) object store; for a bare parquet
    # read this trades two disk re-reads for one store copy — the
    # flagship never routes here (it dup-scans parquet footers directly)
    ds = ds.materialize()

    # dup-url membership is built distributively and broadcast as ONE
    # object-store payload (exact set below max_exact keys, Bloom above —
    # false positives only route a url through the exact reduce, which keeps
    # a single capture unchanged); the driver sees two scalars, never keys
    dup_ref = dup_key_table_ref(ds)
    n_dups, _fp = ray.get(dup_meta_ref(dup_ref))
    if n_dups == 0:
        return ds
    member_box = [membership_ref(dup_ref, max_exact=max_exact)]

    def _uniques(t: pa.Table) -> pa.Table:
        member = DupMembership(ray.get(member_box[0]))
        return t.filter(pc.invert(member.mask(t["url"])))

    def _dups(t: pa.Table) -> pa.Table:
        member = DupMembership(ray.get(member_box[0]))
        return t.filter(member.mask(t["url"]))

    uniques = ds.map_batches(_uniques, batch_format="pyarrow")

    def _best_group(t: pa.Table) -> pa.Table:
        return decode_spans(_local_best(t.combine_chunks()))

    # encode spans BEFORE the groupby exchange (module invariant: raw
    # list<struct> must never cross a shuffle — the map_groups strategy
    # already does this; the partial path previously shuffled dup-subset
    # rows with their struct spans intact)
    winners = (
        ds.map_batches(
            lambda t: encode_spans(_dups(t)), batch_format="pyarrow"
        )
        .groupby("url")
        .map_groups(_best_group, batch_format="pyarrow")
    )
    return uniques.union(winners)
