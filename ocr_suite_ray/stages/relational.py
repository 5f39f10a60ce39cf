"""Relational operators: broadcast join, partitioned join, top-k per group.

These are the engine's query-surface building blocks, mirroring the
reference's viewer/search path (``src/common/database.cpp:190-194`` LIKE
join, ``src/viewer/search.cpp:79-91`` fan-out search, ``src/viewer/
results.cpp:123-126`` global sort) re-expressed Ray-Data-first.

Scale notes (explicit, per operator):
- ``broadcast_join``: small side is ``ray.put`` ONCE; every task reads the
  same object-store copy (zero re-shipping per batch). Use when the small
  side fits a worker's heap (dimension tables).
- ``join_on``: both sides large → Ray's hash-partitioned ``Dataset.join``;
  ``num_partitions`` sizes the exchange.
- ``topk_per_group``: per-batch local top-k combiner (cuts data before the
  shuffle) then a bucketed groupby reduce — same two-level pattern as the
  dedup stage; never materializes a full group list per key on the driver.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa


from ocr_suite_ray.functions.hashing import key_buckets
from ocr_suite_ray.stages._bcast import cached_get


def broadcast_join(
    ds,
    small_df: pd.DataFrame,
    on: str | list,
    how: str = "inner",
    concurrency=None,
):
    """Hash-join ``ds`` against a small pandas table broadcast via ray.put.

    The reference analogue is the id-resolving point lookup after dedup
    insert (``src/common/database.cpp:69-78``): a shared read-only lookup
    every worker consults. One object-store copy; tasks (not an actor pool
    — actor spawn costs ~2-3 s of ramp per query at high concurrency) read
    it through a per-worker-process cache, so each worker deserializes the
    small side once and every later task on that worker reuses it."""
    import ray

    ref = ray.put(small_df)

    def _join(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.merge(cached_get(ref), on=on, how=how)

    kw = {"batch_format": "pandas"}
    if concurrency is not None:
        kw["concurrency"] = concurrency
    return ds.map_batches(_join, **kw)


def broadcast_join_agg(
    ds,
    small_df: pd.DataFrame,
    on: str | list,
    group_col: str,
    sum_cols: dict,
    count_col: str | None = None,
):
    """Broadcast join fused with a PARTIAL per-batch aggregate: each batch
    joins against the broadcast side and collapses to at most one row per
    group before anything moves, so the global groupby shuffles O(groups ×
    blocks) partial rows instead of the full fact table. The standard
    combine-before-shuffle pattern for dimension-grouped rollups.

    ``sum_cols``: {output_name: source_col} summed per group;
    ``count_col``: output name for the per-group row count (optional).

    The partial tables are dimension-keyed (regions, nations — tiny by
    construction: the join side was broadcastable), so the merge takes the
    narrow tree path rather than a sort-based exchange."""
    import ray

    ref = ray.put(small_df)

    def _join_agg(batch: pd.DataFrame) -> pd.DataFrame:
        m = batch.merge(cached_get(ref), on=on, how="inner")
        specs = {name: (src, "sum") for name, src in sum_cols.items()}
        if count_col:
            any_col = next(iter(sum_cols.values()))
            specs[count_col] = (any_col, "size")
        return m.groupby(group_col, as_index=False).agg(**specs)

    partial = ds.map_batches(_join_agg, batch_format="pandas")
    out_cols = list(sum_cols) + ([count_col] if count_col else [])
    return narrow_grouped_sum(partial, [group_col], out_cols)


def join_on(
    left, right, on: tuple, num_partitions: int | None = None,
    join_type: str = "inner",
):
    """Large-large hash join (Dataset.join). Flat columns only — nested
    columns must be encoded first (see stages.dedup.encode_spans).

    ``num_partitions=None`` sizes the exchange to the cluster: each join
    partition is a shuffle actor, so the count should grow with cores
    (cpus//4, floor 4) rather than sit at a constant that over-partitions
    small clusters and under-partitions big ones."""
    if num_partitions is None:
        from ocr_suite_ray.state.dupset import cluster_cpus

        num_partitions = max(4, cluster_cpus() // 4)
    return left.join(right, join_type=join_type, on=on, num_partitions=num_partitions)


def topk_per_group(
    ds,
    group_cols: list,
    order_col: str,
    k: int,
    descending: bool = True,
    tiebreak_col: str | None = None,
):
    """Top-k rows per group with a deterministic tiebreak.

    Two-level: a vectorized per-batch top-k (pandas groupby.head over a
    sorted frame — C-speed) shrinks each block to ≤ k rows per key present,
    then ONE hash-bucket shuffle re-applies the same reduction — MANY
    groups per task in one C pass (``grouped_reduce_c``; a per-GROUP
    ``map_groups`` final stage would pay ~7 ms of dispatch per key, which
    at 10^5+ groups dominates — the events-family 10x drive finding). The
    combiner bounds shuffle volume at k·(keys per block)."""
    sort_cols = [order_col] + ([tiebreak_col] if tiebreak_col else [])
    ascending = [not descending] + ([True] if tiebreak_col else [])

    def _local(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return df
        df = df.sort_values(sort_cols, ascending=ascending, kind="mergesort")
        return df.groupby(group_cols, sort=False).head(k)

    reduced = ds.map_batches(_local, batch_format="pandas")
    return grouped_reduce_c(reduced, group_cols, _local)


def _arrow_types(ds, cols: list) -> dict:
    """Arrow type per column, tolerant of pandas-born datasets (whose
    schema is a PandasBlockSchema of numpy dtypes; object columns are
    strings in this engine's tables)."""
    base = ds.schema().base_schema
    if isinstance(base, pa.Schema):
        return {c: base.field(c).type for c in cols}
    by_name = dict(zip(base.names, base.types))
    return {
        c: (pa.string() if by_name[c] == object else pa.from_numpy_dtype(by_name[c]))
        for c in cols
    }


def asof_join_by_key(left, right, key: str, ts: str, left_cols: list, right_cols: list):
    """As-of join (backward, inclusive): for each left row, the latest right
    row of the same key with right.ts <= left.ts.

    Ray Data has no native as-of join; the portable pattern (per the public
    Ray guidance) is: tag both sides, union (schemas aligned), ONE
    groupby(key) shuffle, and ``pd.merge_asof`` inside each ts-sorted group.
    The right side must be unique per (key, ts) for determinism — callers
    pre-dedupe. Output: key, ts, left_cols, right ts as ``asof_ts``,
    right_cols.

    Execution shape: both sides tagged and unioned, ONE hash-bucket
    shuffle on the key, and a per-bucket ``pd.merge_asof(..., by=key)`` —
    MANY keys matched in one C pass per task. (The per-KEY ``map_groups``
    form pays ~7 ms of dispatch per group — the events-family 10x drive
    measured the window family at 100k-group scale, BASELINE.md round 4.)
    Per-task memory is O(rows/num_buckets + max_key_rows)."""
    import numpy as np
    import pandas as pd

    all_cols = [key, ts, "__side"] + left_cols + right_cols
    out_cols = [key, ts] + left_cols + ["asof_ts"] + right_cols
    fill_types = {
        **_arrow_types(left, left_cols), **_arrow_types(right, right_cols)
    }

    def _typed_zero(n: int, t):
        # typed filler for the absent side's columns (never read): a NaN
        # reindex would coerce the bucket concat's int64 columns to
        # float64 — range_join's documented 2^53 id hazard
        if pa.types.is_integer(t):
            return np.zeros(n, dtype=np.int64)
        if pa.types.is_floating(t):
            return np.zeros(n, dtype=np.float64)
        if pa.types.is_timestamp(t):
            return np.zeros(n, dtype="datetime64[us]")
        if pa.types.is_string(t) or pa.types.is_large_string(t):
            return np.full(n, "", dtype=object)
        return np.full(n, None, dtype=object)

    def _align(side: int):
        def _m(df: pd.DataFrame) -> pd.DataFrame:
            df = df.copy()
            df["__side"] = np.int8(side)
            for c in all_cols:
                if c not in df.columns:
                    df[c] = _typed_zero(len(df), fill_types[c])
            return df[all_cols]

        return _m

    lt = left.map_batches(_align(0), batch_format="pandas")
    rt = right.map_batches(_align(1), batch_format="pandas")

    def _asof(g: pd.DataFrame) -> pd.DataFrame:
        # merge_asof(by=key) needs BOTH frames sorted by the on-column
        # globally; the key tiebreak keeps equal-ts row order deterministic
        l = g.loc[g["__side"] == 0, [key, ts] + left_cols].sort_values(
            [ts, key], kind="mergesort"
        )
        r = (
            g.loc[g["__side"] == 1, [key, ts] + right_cols]
            .sort_values([ts, key], kind="mergesort")
            .rename(columns={ts: "asof_ts"})
        )
        if l.empty:
            return pd.DataFrame(columns=out_cols)
        return pd.merge_asof(
            l,
            r,
            left_on=ts,
            right_on="asof_ts",
            by=key,
            direction="backward",
            allow_exact_matches=True,
        ).reindex(columns=out_cols)

    return grouped_reduce_c(lt.union(rt), [key], _asof)


def distinct(ds, cols: list):
    """Distinct tuples of ``cols``: per-block drop_duplicates combiner, then
    one bucket shuffle + within-bucket C drop_duplicates (the
    ``grouped_reduce_c`` shape — the key set can be corpus-cardinality, so
    the reduce must stay out of Python rows)."""

    def _local(df: pd.DataFrame) -> pd.DataFrame:
        return df[cols].drop_duplicates()

    reduced = ds.map_batches(_local, batch_format="pandas")
    return grouped_reduce_c(reduced, cols, _local)


def range_join(
    left,
    right,
    ts: str,
    lower_us: int,
    upper_us: int,
    left_cols: list,
    right_cols: list,
    n_shards: int = 256,
):
    """Event-time range join: every (left, right) pair with
    ``right.ts - left.ts`` in ``[lower_us, upper_us]`` (inclusive,
    microseconds). Ray Data has no native interval join; the distributed
    pattern is time-binning: with bin width W = upper - lower, each RIGHT
    row lands in exactly ONE bin (``floor(ts/W)``) and each LEFT row is
    replicated to the two consecutive bins its match-interval
    ``[ts+lower, ts+upper]`` overlaps — so one groupby shuffle co-locates
    every possible pair exactly once (no global dedup needed: a pair meets
    only in the right row's bin). The exchange key is a COARSE SHARD of
    the bin (``bin % n_shards``), not the bin itself: per-bin map_groups
    dispatch costs ~0.1-0.3 ms of UDF overhead per group (the round-1
    MinHash lesson) and the week-of-60s-windows bench case has ~10k bins;
    sharding is safe because any in-range right row lives in bin b0 or
    b0+1, consecutive bins never share a residue (n_shards >= 2), and the
    verify matches on exact timestamps, so far-apart bins sharing a shard
    can never pair. Inside a shard the verify is sort +
    ``np.searchsorted`` slab emission — no per-pair Python. The
    union and group blocks stay Arrow end-to-end: the absent side's
    columns are TYPED nulls, so int64 ids never round-trip through
    float64 (cf. the components id-corruption fix).

    Partitioning assumption: rows per time bin must fit a worker; pick
    the window so W x event-rate is bounded, or pre-split hot bins by a
    salt on the right side.

    ``left_cols`` / ``right_cols`` must be disjoint name sets; output is
    ``left_cols + right_cols + [delta_us]``.
    """
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    w = max(int(upper_us) - int(lower_us), 1)

    ltypes = _arrow_types(left, left_cols)
    rtypes = _arrow_types(right, right_cols)
    out_fields = (
        [(c, ltypes[c]) for c in left_cols]
        + [(c, rtypes[c]) for c in right_cols]
        + [("delta_us", pa.int64())]
    )
    empty = pa.table(
        {c: pa.array([], type=t) for c, t in out_fields}
    )

    def _ts_us(col) -> "np.ndarray":
        return (
            pc.cast(col.combine_chunks(), pa.timestamp("us"))
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )

    def _filler(n: int, t):
        # typed ZERO filler for the absent side's columns (never read):
        # null-free so no intermediate pandas/polars conversion inside the
        # groupby sort can upcast int64 to float64 (the 2^53 id hazard)
        if pa.types.is_integer(t):
            return pa.array(np.zeros(n, dtype=np.int64)).cast(t)
        if pa.types.is_floating(t):
            return pa.array(np.zeros(n, dtype=np.float64)).cast(t)
        if pa.types.is_string(t) or pa.types.is_large_string(t):
            return pa.array([""] * n, type=t)
        return pa.nulls(n, t)

    def _cols(t: pa.Table, side: int, bins: np.ndarray, ts_us: np.ndarray, idx=None):
        n = len(bins)
        data = {
            "__side": pa.array(np.full(n, side, dtype=np.int8)),
            "__bin": pa.array(bins % max(int(n_shards), 2), pa.int64()),
            "__ts_us": pa.array(ts_us, pa.int64()),
        }
        for c in left_cols:
            if side == 0:
                col = t[c].combine_chunks()
                data[c] = col.take(pa.array(idx, pa.int64())) if idx is not None else col
            else:
                data[c] = _filler(n, ltypes[c])
        for c in right_cols:
            if side == 1:
                data[c] = t[c].combine_chunks()
            else:
                data[c] = _filler(n, rtypes[c])
        return pa.table(data)

    def _tag_left(t: pa.Table) -> pa.Table:
        tus = _ts_us(t[ts])
        b0 = (tus + lower_us) // w
        b1 = b0 + 1  # interval length == W always spills into the next bin
        idx = np.concatenate([np.arange(len(tus))] * 2)
        return _cols(
            t, 0, np.concatenate([b0, b1]), np.concatenate([tus, tus]), idx=idx
        )

    def _tag_right(t: pa.Table) -> pa.Table:
        tus = _ts_us(t[ts])
        return _cols(t, 1, tus // w, tus)

    lt = left.map_batches(_tag_left, batch_format="pyarrow")
    rt = right.map_batches(_tag_right, batch_format="pyarrow")

    def _verify(g: pa.Table) -> pa.Table:
        side = g["__side"].combine_chunks().to_numpy(zero_copy_only=False)
        ts_all = g["__ts_us"].combine_chunks().to_numpy(zero_copy_only=False)
        lmask = side == 0
        rmask = ~lmask
        if not lmask.any() or not rmask.any():
            return empty
        lt_us = ts_all[lmask]
        rt_sorted_pos = np.nonzero(rmask)[0][np.argsort(ts_all[rmask], kind="stable")]
        rt_us = ts_all[rt_sorted_pos]
        lo = np.searchsorted(rt_us, lt_us + lower_us, side="left")
        hi = np.searchsorted(rt_us, lt_us + upper_us, side="right")
        counts = hi - lo
        keep = counts > 0
        if not keep.any():
            return empty
        lpos = np.nonzero(lmask)[0]
        li = np.repeat(lpos[keep], counts[keep])
        ri = rt_sorted_pos[
            np.concatenate([np.arange(a, b) for a, b in zip(lo[keep], hi[keep])])
        ]
        li_a = pa.array(li, pa.int64())
        ri_a = pa.array(ri, pa.int64())
        data = {c: g[c].combine_chunks().take(li_a) for c in left_cols}
        data.update({c: g[c].combine_chunks().take(ri_a) for c in right_cols})
        data["delta_us"] = pa.array(ts_all[ri] - ts_all[li], pa.int64())
        return pa.table(data)

    return lt.union(rt).groupby("__bin").map_groups(_verify, batch_format="pyarrow")


def narrow_grouped_sum(
    partials,
    keys: list,
    sum_cols: list,
    finish_fn=None,
    empty_schema: "pa.Schema | None" = None,
):
    """Merge pre-aggregated per-block partials with remote TREES instead
    of a sort-based all-to-all: every fan-in re-aggregates (sum) on
    ``keys``, and the executor's ~2 s shuffle ramp is never paid. The
    narrow counterpart of ``groupby(keys).aggregate(Sum...)``. The merge
    runs on the keyed reduce's shard roots (``dataset_from_shards``):
    ``k = shard_count(rows)`` trees split on the first key, each one
    output block, so only a shard root's distinct groups, not the whole
    group table, must fit one worker; ``finish_fn`` runs per root and sees
    every row of its first-key values."""
    from ocr_suite_ray.state.dupset import dataset_from_shards

    def _merge(t: pa.Table) -> pa.Table:
        g = t.group_by(keys).aggregate([(c, "sum") for c in sum_cols])
        # select by NAME first: group_by output order is release-fragile
        return g.select(keys + [f"{c}_sum" for c in sum_cols]).rename_columns(
            keys + sum_cols
        )

    return dataset_from_shards(partials, keys[0], _merge, finish_fn, empty_schema)


def count_distinct_by_group(
    ds,
    group_col: str,
    key_col: str,
    out_col: str = "n_distinct",
    num_buckets: int = 64,
):
    """Exact COUNT(DISTINCT key) per group — the dedup-before-shuffle shape.

    1. Per-block combiner: collapse each block to its distinct
       ``(group, key)`` pairs (one Arrow C hash-agg) — at web scale most
       repetition is local (a user's events cluster in time), so the
       exchange carries distinct-pairs-per-block, not raw rows.
    2. ONE shuffle on ``hash(group) % num_buckets``: every group's surviving
       pairs land in one task, which re-dedups across blocks and counts with
       pandas' C ``nunique`` — per-group Python dispatch never happens, and
       a bucket holds only its groups' DISTINCT pairs (size num_buckets so a
       bucket's pair set fits a worker's heap; hot groups can additionally
       salt on ``hash(key)`` and sum partial counts, not needed until a
       single group's distinct-key set outgrows one worker).

    Reference analogue: texts-per-frame grouped count
    (src/viewer/results.cpp) generalized to distinct-count semantics.
    """

    def _pairs(t: pa.Table) -> pa.Table:
        t = t.select([group_col, key_col]).group_by([group_col, key_col]).aggregate([])
        return t.rename_columns([group_col, key_col])

    def _tag(df: pd.DataFrame) -> pd.DataFrame:
        df["__gbucket"] = key_buckets([df[group_col]], num_buckets)
        return df

    def _count(g: pd.DataFrame) -> pd.DataFrame:
        out = (
            g.drop_duplicates([group_col, key_col])
            # dropna=False: the Arrow per-block combiner keeps a null
            # GROUP; the pandas default would silently drop its row
            .groupby(group_col, sort=False, dropna=False)[key_col]
            .size()
            .reset_index(name=out_col)
        )
        return out

    return (
        ds.map_batches(_pairs, batch_format="pyarrow")
        .map_batches(_tag, batch_format="pandas")
        .groupby("__gbucket")
        .map_groups(_count, batch_format="pandas")
    )


def snapshot_diff(old_ds, new_ds, key_col: str, hash_col: str, num_buckets: int = 64):
    """Diff two crawl snapshots by key: emit ``(key, change)`` with change in
    ``added`` (key only in new), ``removed`` (only in old), ``changed`` (in
    both, content fingerprint differs) — unchanged keys are filtered out, so
    the result is incremental-crawl sized, not corpus sized.

    Keys are assumed unique within each snapshot (one row per url — the
    flagship's final-store invariant). The caller supplies the content
    fingerprint column (``fingerprint_md5``/``n_chars``/etc.).

    Scale shape: both sides narrow to ``(key, hash, side)`` at the read
    (columns pruned, payloads never move), then ONE shuffle on
    ``hash(key) % num_buckets`` co-locates each key's <= 2 rows; within a
    bucket a pandas index join classifies in C. The exchange carries two
    thin columns per row, never document bodies.

    Reference analogue: the watcher's changed-file re-trigger
    (``tools/ocs-watcher/src/ocsw/watcher.py:10-29``) lifted from file
    granularity to per-document content diffs.
    """
    import numpy as np

    def _narrow(side: int):
        def _m(t: pa.Table) -> pa.Table:
            return pa.table(
                {
                    key_col: t[key_col],
                    hash_col: t[hash_col],
                    "_side": pa.array(np.full(t.num_rows, side, dtype=np.int64)),
                }
            )

        return _m

    def _tag(df: pd.DataFrame) -> pd.DataFrame:
        df["__dbucket"] = key_buckets([df[key_col]], num_buckets)
        return df

    def _classify(g: pd.DataFrame) -> pd.DataFrame:
        old = g[g["_side"] == 0].set_index(key_col)[hash_col].rename("h_old")
        new = g[g["_side"] == 1].set_index(key_col)[hash_col].rename("h_new")
        j = old.to_frame().join(new.to_frame(), how="outer")
        change = np.where(
            j["h_old"].isna(),
            "added",
            np.where(
                j["h_new"].isna(),
                "removed",
                np.where(j["h_old"] != j["h_new"], "changed", "same"),
            ),
        )
        out = pd.DataFrame({key_col: j.index.to_numpy(), "change": change})
        return out[out["change"] != "same"]

    both = old_ds.map_batches(_narrow(0), batch_format="pyarrow").union(
        new_ds.map_batches(_narrow(1), batch_format="pyarrow")
    )
    return (
        both.map_batches(_tag, batch_format="pandas")
        .groupby("__dbucket")
        .map_groups(_classify, batch_format="pandas")
    )


def grouped_reduce_c(ds, keys: list, fold, num_buckets: int = 64):
    """ONE bucket shuffle + a within-bucket C-kernel fold — the
    high-cardinality replacement for ``Dataset.aggregate(...)``.

    Ray's built-in AggregateFn reduce walks rows in PYTHON during the sort
    merge; a 10M-row drive measured 1309 s for a single groupby-min that the
    bucket+map_groups form does in 28 s (BASELINE.md round 3). ``fold(df) ->
    df`` must be associative over row concatenation (it sees each bucket's
    rows exactly once, after any per-block combiners upstream) and runs in
    pandas C kernels. Low-cardinality aggregates over PRE-COMBINED partials
    don't need this — their reduce input is tiny; use it whenever the
    groupby key cardinality scales with the corpus."""

    def _tag(df: pd.DataFrame) -> pd.DataFrame:
        df["__rbucket"] = key_buckets([df[c] for c in keys], num_buckets)
        return df

    def _fold(g: pd.DataFrame) -> pd.DataFrame:
        return fold(g.drop(columns="__rbucket"))

    return (
        ds.map_batches(_tag, batch_format="pandas")
        .groupby("__rbucket")
        .map_groups(_fold, batch_format="pandas")
    )


def pivot_counts(ds, key_col: str, pivot_col: str, values: list,
                 prefix: str = "n_", total_col: str = "total",
                 key_type: "pa.DataType | None" = None):
    """Grouped counts pivoted to a DECLARED fixed column set: one row per
    ``key_col`` value with one ``{prefix}{v}`` count column per entry in
    ``values`` plus ``total_col`` (all rows, including pivot values outside
    ``values``). The column set is declared by the caller, never discovered
    from data — SQL ``COUNT(*) FILTER`` semantics with a stable schema, so
    downstream parquet partitions never schema-drift when a rare category
    is absent from a shard.

    Execution shape: per-block Arrow C hash-agg combiner collapses each
    block to its distinct (key, pivot) counts; ``narrow_grouped_sum``
    tree-merges the partials on shard roots split by ``key_col`` (bound:
    a shard root's distinct key x pivot rows fit one worker); the pivot
    runs at each root, which holds every pivot value of its keys. No
    sort-based shuffle, nothing corpus-sized leaves the read tasks.
    """
    import numpy as np

    def _partial(t: pa.Table) -> pa.Table:
        g = (
            t.select([key_col, pivot_col])
            .group_by([key_col, pivot_col])
            .aggregate([([], "count_all")])
        )
        return g.select([key_col, pivot_col, "count_all"]).rename_columns(
            [key_col, pivot_col, "_n"]
        )

    def _pivot(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        wide = df.pivot_table(
            index=key_col, columns=pivot_col, values="_n",
            aggfunc="sum", fill_value=0,
        )
        out = pd.DataFrame({key_col: wide.index.to_numpy()})
        for v in values:
            col = (
                wide[v].to_numpy() if v in wide.columns
                else np.zeros(len(wide), dtype="int64")
            )
            out[f"{prefix}{v}"] = col.astype("int64")
        out[total_col] = (
            df.groupby(key_col, sort=False)["_n"].sum()
            .reindex(wide.index).to_numpy().astype("int64")
        )
        return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)

    empty_fields = (
        [pa.field(key_col, key_type or pa.string())]
        + [pa.field(f"{prefix}{v}", pa.int64()) for v in values]
        + [pa.field(total_col, pa.int64())]
    )
    return narrow_grouped_sum(
        ds.map_batches(_partial, batch_format="pyarrow"),
        [key_col, pivot_col], ["_n"],
        finish_fn=_pivot, empty_schema=pa.schema(empty_fields),
    )

def profile_columns(ds, num_cols: list | None = None,
                    str_cols: list | None = None):
    """One-pass column profiler: per column ``(column, n_rows, n_null,
    min_num, max_num, min_str, max_str)`` — the pre-flight data-validation
    report (schema drift, null storms, out-of-range values) a production
    run performs before committing cluster hours.

    Scale shape: each block collapses to ONE row per profiled column
    (Arrow C min/max/null-count kernels), the partials merge in a remote
    tree (sum/sum/min/max — mergeable by construction), and the driver
    sees only the k-row report. No shuffle, one read pass, any corpus
    size. Numeric min/max are float64 (int64 inputs are exact to 2^53,
    the parquet statistics convention); string min/max lexicographic.
    """
    import pyarrow.compute as pc

    from ocr_suite_ray.state.dupset import block_refs, dataset_from_root

    num_cols = list(num_cols or [])
    str_cols = list(str_cols or [])

    def _partial(t: pa.Table) -> pa.Table:
        rows = {"column": [], "n_rows": [], "n_null": [],
                "min_num": [], "max_num": [], "min_str": [], "max_str": []}
        for c in num_cols + str_cols:
            col = t[c]
            rows["column"].append(c)
            rows["n_rows"].append(t.num_rows)
            rows["n_null"].append(col.null_count)
            if c in num_cols:
                mm = pc.min_max(col)
                mn, mx = mm["min"].as_py(), mm["max"].as_py()
                rows["min_num"].append(
                    float(mn) if mn is not None else None
                )
                rows["max_num"].append(
                    float(mx) if mx is not None else None
                )
                rows["min_str"].append(None)
                rows["max_str"].append(None)
            else:
                mm = pc.min_max(col)
                rows["min_num"].append(None)
                rows["max_num"].append(None)
                rows["min_str"].append(mm["min"].as_py())
                rows["max_str"].append(mm["max"].as_py())
        return pa.table({
            "column": pa.array(rows["column"], pa.string()),
            "n_rows": pa.array(rows["n_rows"], pa.int64()),
            "n_null": pa.array(rows["n_null"], pa.int64()),
            "min_num": pa.array(rows["min_num"], pa.float64()),
            "max_num": pa.array(rows["max_num"], pa.float64()),
            "min_str": pa.array(rows["min_str"], pa.string()),
            "max_str": pa.array(rows["max_str"], pa.string()),
        })

    def _merge(t: pa.Table) -> pa.Table:
        # the merge table is O(profiled columns x fan-in) rows — a plain
        # Python fold is exact and null-safe (pandas object-min chokes on
        # all-None groups)
        by: dict = {}
        for r in t.to_pylist():
            a = by.get(r["column"])
            if a is None:
                by[r["column"]] = dict(r)
                continue
            a["n_rows"] += r["n_rows"]
            a["n_null"] += r["n_null"]
            for k, f in (("min_num", min), ("max_num", max),
                         ("min_str", min), ("max_str", max)):
                vals = [v for v in (a[k], r[k]) if v is not None]
                a[k] = f(vals) if vals else None
        rows = [by[c] for c in sorted(by)]
        return pa.table({
            "column": pa.array([r["column"] for r in rows], pa.string()),
            "n_rows": pa.array([r["n_rows"] for r in rows], pa.int64()),
            "n_null": pa.array([r["n_null"] for r in rows], pa.int64()),
            "min_num": pa.array([r["min_num"] for r in rows], pa.float64()),
            "max_num": pa.array([r["max_num"] for r in rows], pa.float64()),
            "min_str": pa.array([r["min_str"] for r in rows], pa.string()),
            "max_str": pa.array([r["max_str"] for r in rows], pa.string()),
        })

    # all-empty input: the root block is an empty report
    empty = pa.schema([
        ("column", pa.string()), ("n_rows", pa.int64()), ("n_null", pa.int64()),
        ("min_num", pa.float64()), ("max_num", pa.float64()),
        ("min_str", pa.string()), ("max_str", pa.string()),
    ])
    return dataset_from_root(
        block_refs(ds.map_batches(_partial, batch_format="pyarrow")),
        _merge, schema=empty,
    )
