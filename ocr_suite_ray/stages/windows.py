"""Stream-shaped operators over the events log: tumbling windows, sessions.

The reference's only windowing is the 5 s metrics window
(``src/recognition/speed_meter.cpp:35-58``); a web-scale training pipeline
needs real event-time operators. Ray Data has no native watermarks, so (per
the public Ray guidance) windows are expressed as grouped aggregates:

- tumbling window = vectorized truncation of ts to the window start +
  per-block Arrow hash aggregates over (key, window), merged on the keyed
  reduce's shard roots (``narrow_grouped_sum``) — no per-group Python;
- sessionization = ``groupby(key).map_groups`` over ts-sorted groups
  (ordering restored inside each group, mirroring how the reference's
  dedup/sort stage restores per-url capture order).
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def tumbling_window_agg(
    ds,
    key_col: str,
    ts_col: str,
    value_col: str,
    every: str = "hour",
):
    """Per (key, window) count + sum + mean. ``every`` is a pyarrow
    floor_temporal unit ("hour", "day", "minute").

    Combine-before-merge: each block collapses to one partial row per
    (key, window) with an Arrow hash aggregate, so the merge moves
    O(groups x blocks) partials instead of every event row; the mean is
    derived from total sum / total count after the merge.

    The partials merge on ``narrow_grouped_sum``'s shard roots: k =
    ``shard_count(rows)`` remote trees split on ``key_col``, re-aggregating
    at every fan-in, with no sort-based all-to-all (~2 s of fixed executor
    cost at bench scale). A shard root holds the distinct (key, window)
    groups of its keys, so at row-scale group counts (hourly windows over
    many users) k grows with the partial rows and no one worker holds the
    whole group table."""

    def _win_partial(t: pa.Table) -> pa.Table:
        import numpy as np

        w = pc.cast(pc.floor_temporal(t[ts_col], unit=every), pa.timestamp("us"))
        # n_events counts ALL rows (the op's contract and the SQL twin's
        # COUNT(*)) via a summed ones column — two count-mode aggregates
        # on the same column share an output NAME, which would force a
        # release-fragile positional rename; the ones sum keeps every
        # output name unique so the select-by-name below is order-proof.
        # n_valid stays the plain (null-skipping) count for SQL AVG.
        t = pa.table(
            {
                key_col: t[key_col],
                "window_start": w,
                value_col: t[value_col],
                "_one": pa.array(np.ones(t.num_rows, dtype=np.int64)),
            }
        )
        g = t.group_by([key_col, "window_start"]).aggregate(
            [(value_col, "sum"), ("_one", "sum"), (value_col, "count")]
        )
        return g.select(
            [key_col, "window_start", f"{value_col}_sum", "_one_sum",
             f"{value_col}_count"]
        ).rename_columns(
            [key_col, "window_start", "sum_value", "n_events", "n_valid"]
        )

    def _finish(t: pa.Table) -> pa.Table:
        # null avg when every value in the window is null (SQL AVG = NULL)
        nv = pc.cast(t["n_valid"], pa.float64())
        avg = pc.divide(
            t["sum_value"], pc.if_else(pc.equal(nv, 0.0), pa.scalar(None, pa.float64()), nv)
        )
        return pa.table(
            {
                key_col: t[key_col],
                "window_start": t["window_start"],
                "n_events": t["n_events"],
                "sum_value": t["sum_value"],
                "avg_value": avg,
            }
        )

    from ocr_suite_ray.stages.relational import narrow_grouped_sum

    partials = ds.map_batches(_win_partial, batch_format="pyarrow")
    # all-blocks-empty fallback schema: take the real key/value types from
    # the input when they are already known (parquet metadata), so a string
    # key or int value column doesn't come back int64/float64-typed; an
    # unknown schema (mid-pipeline input) keeps the int64/float64 default
    key_type, sum_type = pa.int64(), pa.float64()
    known = ds.schema(fetch_if_missing=False)
    base = getattr(known, "base_schema", None)
    if isinstance(base, pa.Schema):
        if key_col in base.names:
            key_type = base.field(key_col).type
        if value_col in base.names:
            sum_type = base.field(value_col).type
    empty = pa.schema(
        [
            (key_col, key_type),
            ("window_start", pa.timestamp("us")),
            ("n_events", pa.int64()),
            ("sum_value", sum_type),
            ("avg_value", pa.float64()),
        ]
    )
    return narrow_grouped_sum(
        partials,
        [key_col, "window_start"],
        ["sum_value", "n_events", "n_valid"],
        finish_fn=_finish,
        empty_schema=empty,
    )


def rolling_mean(ds, key_col: str, ts_col: str, value_col: str,
                 order_tiebreak: str, window: int = 3, scale: int = 10000):
    """Per-key rolling mean over the last ``window`` rows in (ts, tiebreak)
    order — the sliding-window analogue of the reference's 5 s speed-meter
    window (``src/recognition/speed_meter.cpp:35-58``) as a data-plane op.
    Emits fixed-point int64 (floor(x*scale+0.5), DuckDB-ROUND compatible).
    One groupby shuffle; ordering restored inside each group.

    Execution shape: ONE hash-bucket shuffle (``grouped_reduce_c``) + a
    per-bucket pandas ``groupby(...).rolling`` — MANY keys per task, all C
    kernels. The per-KEY ``map_groups`` form costs ~7 ms of dispatch per
    group (measured: 200k events over 100k users = 373 s at 4 cpus —
    the events-family 10x drive, BASELINE.md round 4); the bucket form
    pays O(num_buckets) dispatches total.

    Skew contract: a bucket holds its keys' FULL histories, so per-task
    memory is O(rows/num_buckets + max_key_rows x ~40 B/row) — a 10^6-row
    hot key is ~40 MB (unit-tested), a 10^8-row key ~4 GB and the
    documented bound. Beyond that, pre-split the key by a coarse time
    range (day/month) and stitch the window-1 boundary rows, or re-window
    the data model; the op raises no silent truncation either way."""
    import numpy as np

    from ocr_suite_ray.stages.relational import grouped_reduce_c

    def _roll(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, ts_col, order_tiebreak], kind="mergesort")
        # groupby(sort=False) over key-sorted rows: flattened rolling values
        # align 1:1 with g's row order
        m = (
            g.groupby(key_col, sort=False)[value_col]
            .rolling(window, min_periods=1)
            .mean()
            .to_numpy()
            * scale
        )
        out = g[[key_col, order_tiebreak]].copy()
        # half-AWAY-FROM-ZERO like DuckDB ROUND: floor(x+0.5) alone is
        # half-up and disagrees on negative exact halves (-2.5 -> -2 vs -3)
        out["rolling_avg_fp"] = np.where(
            m >= 0, np.floor(m + 0.5), np.ceil(m - 0.5)
        ).astype("int64")
        return out

    return grouped_reduce_c(ds, [key_col], _roll)


def group_quantiles(ds, key_col: str, value_col: str,
                    qs: tuple = (0.5, 0.95), scale: int = 10000):
    """Exact per-group quantiles (linear interpolation — matches DuckDB's
    quantile_cont). Exact quantiles need the whole group; for sketch-based
    approximate quantiles at scale, pre-aggregate mergeable digests per
    batch instead (see SNIPPETS/aggregation notes). Fixed-point output.

    Execution shape: ONE hash-bucket shuffle (``grouped_reduce_c``) + a
    per-bucket pandas ``groupby.quantile`` — MANY groups per task in one C
    pass (the per-key ``map_groups`` form pays ~7 ms of dispatch per
    group; see the events-family 10x drive, BASELINE.md round 4).

    Skew contract: a bucket holds its groups' FULL value columns —
    exactness requires it. Per-task memory is O(rows/num_buckets +
    max_group_rows x 8 B): a 10^6-row hot group is ~8 MB (unit-tested),
    10^9 is ~8 GB and the bound. Past that, exact-is-required callers
    should bucketize values first (percentile_gate's distinct-value
    histogram shape); everyone else should use the mergeable-sketch route
    (``sketches.quantile_hist``)."""
    import numpy as np

    from ocr_suite_ray.stages.relational import grouped_reduce_c

    def _q(g: pd.DataFrame) -> pd.DataFrame:
        gb = g.groupby(key_col, sort=False)[value_col]
        cols, idx = {}, None
        for q in qs:
            v = gb.quantile(q, interpolation="linear") * scale
            arr = v.to_numpy(dtype=np.float64)
            if np.isnan(arr).any():
                raise ValueError(
                    "group_quantiles: all-null group — quantile undefined"
                )
            # half-away-from-zero (DuckDB ROUND), not half-up
            cols[f"q{int(q * 100)}_fp"] = np.where(
                arr >= 0, np.floor(arr + 0.5), np.ceil(arr - 0.5)
            ).astype("int64")
            idx = v.index
        res = pd.DataFrame(cols)
        res.insert(0, key_col, idx.to_numpy())
        return res

    return grouped_reduce_c(ds, [key_col], _q)


def sessionize(ds, key_col: str, ts_col: str, gap_s: float = 1800.0):
    """Split each key's ts-sorted event stream into sessions separated by
    gaps > gap_s; emit one row per session with start/end/count.

    Ordering assumption: none on input — each group is sorted inside the
    UDF, so the result is independent of block layout.

    Execution shape: ONE hash-bucket shuffle (``grouped_reduce_c``) + a
    per-bucket vectorized scan — sort by (key, ts, tiebreak), session
    breaks = key change OR gap > gap_s, one cumsum, one grouped agg. MANY
    keys per task; the per-KEY ``map_groups`` form measured ~7 ms of
    dispatch per group (200k events / 100k users = 373 s at 4 cpus — the
    events-family 10x drive, BASELINE.md round 4).

    Skew contract: a bucket holds its keys' FULL event histories. Per-task
    memory is O(rows/num_buckets + max_key_rows x ~24 B): a 10^6-event hot
    key is ~24 MB (unit-tested), 10^8 events ~2.4 GB and the documented
    bound. A key hotter than that should be pre-split on a coarse calendar
    bucket wider than any plausible session (e.g. week) — sessions never
    span the cut if gap_s << bucket — then sessionized per (key, bucket)."""
    from ocr_suite_ray.stages.relational import grouped_reduce_c

    def _sessions(g: pd.DataFrame) -> pd.DataFrame:
        sort_cols = [key_col, ts_col] + (["event_id"] if "event_id" in g else [])
        g = g.sort_values(sort_cols, kind="mergesort")
        ts = g[ts_col]
        new_key = g[key_col].ne(g[key_col].shift())
        gap = ts.diff().dt.total_seconds()
        brk = new_key | (gap > gap_s)
        sid = brk.cumsum()  # globally unique within the bucket
        out = g.assign(__sid=sid).groupby("__sid", sort=False).agg(
            **{
                key_col: (key_col, "first"),
                "session_start": (ts_col, "min"),
                "session_end": (ts_col, "max"),
                "n_events": (ts_col, "size"),
            }
        )
        # per-key 0-based session ids in ts order (sessions of a key are
        # consecutive in sid order because rows are key-sorted)
        out["session_id"] = out.groupby(key_col, sort=False).cumcount()
        return out.reset_index(drop=True)[
            [key_col, "session_id", "session_start", "session_end", "n_events"]
        ]

    return grouped_reduce_c(ds, [key_col], _sessions)


def group_zscore(ds, key_col: str, value_col: str, out_col: str = "z"):
    """Per-group standardization ``z = (x - mean_g) / std_g`` (sample std,
    ddof=1) — the feature-normalization primitive (per-language quality
    scores, per-domain lengths).

    Two narrow passes, zero sort-based shuffles:
    1. per-block (group, n, sum, sumsq) partials via one Arrow C hash
       aggregate, merged in a remote TREE (``coalesce_reduce``) — each
       fan-in holds at most the distinct-group table;
    2. the group-stat table (a few rows per group) is broadcast once
       (``ray.put`` + per-worker ``cached_get``) and a streaming
       ``map_batches`` pass computes z with a dictionary-encode + take —
       no join, no per-row Python. Groups with n < 2 or zero variance get
       null z (matches SQL's NULL stddev / division-by-zero semantics).
    """
    import numpy as np
    import ray

    from ocr_suite_ray.stages._bcast import cached_get
    from ocr_suite_ray.state.dupset import coalesce_reduce

    def _partial(t: pa.Table) -> pa.Table:
        x = t[value_col].cast(pa.float64())
        t2 = pa.table(
            {
                key_col: t[key_col],
                "_n": pc.if_else(pc.is_valid(x), 1, 0).cast(pa.int64()),
                "_s": pc.coalesce(x, pa.scalar(0.0)),
                "_s2": pc.coalesce(pc.multiply(x, x), pa.scalar(0.0)),
            }
        )
        g = t2.group_by(key_col).aggregate([("_n", "sum"), ("_s", "sum"), ("_s2", "sum")])
        return g.select([key_col, "_n_sum", "_s_sum", "_s2_sum"]).rename_columns(
            [key_col, "_n", "_s", "_s2"]
        )

    def _merge(t: pa.Table) -> pa.Table:
        g = t.group_by(key_col).aggregate([("_n", "sum"), ("_s", "sum"), ("_s2", "sum")])
        return g.select([key_col, "_n_sum", "_s_sum", "_s2_sum"]).rename_columns(
            [key_col, "_n", "_s", "_s2"]
        )

    stats_ref = coalesce_reduce(
        ds.map_batches(_partial, batch_format="pyarrow"), _merge, None, materialize=False
    )

    def _z(t: pa.Table) -> pa.Table:
        stats = cached_get(stats_ref)
        if stats is None:  # every input block was empty -> no group stats
            return t.append_column(
                out_col, pa.nulls(t.num_rows, pa.float64())
            )
        n = stats["_n"].to_numpy(zero_copy_only=False).astype(np.float64)
        s = stats["_s"].to_numpy(zero_copy_only=False)
        s2 = stats["_s2"].to_numpy(zero_copy_only=False)
        with np.errstate(invalid="ignore", divide="ignore"):
            mean = s / n
            # sample variance: (sumsq - n*mean^2) / (n-1)
            var = (s2 - n * mean * mean) / (n - 1.0)
            var = np.where(var < 0, 0.0, var)  # fp cancellation guard
            std = np.sqrt(var)
        mean_by, std_by = {}, {}
        for i, kv in enumerate(stats[key_col].to_pylist()):
            mean_by[kv] = mean[i]
            std_by[kv] = std[i] if n[i] >= 2 else np.nan
        enc = t[key_col].combine_chunks().dictionary_encode()
        m = np.array([mean_by.get(kv, np.nan) for kv in enc.dictionary.to_pylist()])
        sd = np.array([std_by.get(kv, np.nan) for kv in enc.dictionary.to_pylist()])
        # a null key must yield a null z, not an INT64_MIN index crash
        # (null indices arrive as NaN from to_numpy)
        idx = enc.indices.to_numpy(zero_copy_only=False)
        is_null = (
            np.isnan(idx) if idx.dtype.kind == "f"
            else np.zeros(len(idx), dtype=bool)
        )
        codes = np.where(is_null, 0, idx).astype(np.int64)
        if len(m) == 0:
            m = np.array([np.nan])
            sd = np.array([np.nan])
        x = t[value_col].cast(pa.float64()).to_numpy(zero_copy_only=False)
        with np.errstate(invalid="ignore", divide="ignore"):
            z = (x - m[codes]) / sd[codes]
        z = np.where(is_null | (sd[codes] == 0), np.nan, z)
        # NaN (n<2 / zero-variance groups) must surface as Arrow NULL, not
        # a valid NaN value — downstream is_null checks and the SQL
        # oracle's strict null comparison both diverge otherwise.
        return t.append_column(
            out_col, pa.array(z, pa.float64(), from_pandas=True)
        )

    if stats_ref is None:
        return ds.map_batches(
            lambda t: t.append_column(out_col, pa.nulls(t.num_rows, pa.float64())),
            batch_format="pyarrow",
        )
    return ds.map_batches(_z, batch_format="pyarrow")


def percentile_gate(ds, col: str, lo_p: float = 0.05, hi_p: float = 0.95):
    """Drop rows outside the corpus's [lo_p, hi_p] percentile band of
    ``col`` — the extreme-length outlier gate of quality pipelines.

    Thresholds use DISCRETE percentiles (actual data values, DuckDB
    ``quantile_disc`` rank rule: 1-based rank ``ceil(p*n)``), so the gate
    comparisons are exact — no float-interpolation boundary ambiguity.

    Exact without a global sort: per-block ``(value, count)`` partials via
    one Arrow hash aggregate merge in a remote TREE; the driver receives
    only the distinct-value histogram (bounded by the column's distinct
    cardinality — lengths/scores, not keys; corpus-cardinality columns
    should gate on a bucketized proxy instead). The filter pass streams.
    """
    import math

    import numpy as np

    from ocr_suite_ray.state.dupset import coalesce_reduce

    def _hist(t: pa.Table) -> pa.Table:
        x = t.select([col]).drop_null()
        g = (
            x.append_column("_c", pa.array(np.ones(x.num_rows, dtype=np.int64)))
            .group_by(col)
            .aggregate([("_c", "sum")])
        )
        return g.select([col, "_c_sum"]).rename_columns([col, "_c"])

    def _merge(t: pa.Table) -> pa.Table:
        g = t.group_by(col).aggregate([("_c", "sum")])
        return g.select([col, "_c_sum"]).rename_columns([col, "_c"])

    hist = coalesce_reduce(
        ds.map_batches(_hist, batch_format="pyarrow"), _merge, None, materialize=True
    )
    if hist is None or hist.num_rows == 0:
        # nothing to gate (all-null column): empty result, schema kept —
        # per-batch slice(0,0), never a per-row Python filter over the corpus
        return ds.map_batches(lambda t: t.slice(0, 0), batch_format="pyarrow")
    hist = hist.take(pc.sort_indices(hist, sort_keys=[(col, "ascending")]))
    cnt = hist["_c"].to_numpy(zero_copy_only=False)
    cum = np.cumsum(cnt)
    n = int(cum[-1])

    def _disc(p: float):
        rank = max(1, math.ceil(p * n))  # 1-based, DuckDB quantile_disc
        i = int(np.searchsorted(cum, rank, side="left"))
        return hist[col][i].as_py()

    lo_v, hi_v = _disc(lo_p), _disc(hi_p)

    def _gate(t: pa.Table) -> pa.Table:
        x = t[col]
        keep = pc.and_(pc.greater_equal(x, lo_v), pc.less_equal(x, hi_v))
        return t.filter(keep)

    return ds.map_batches(_gate, batch_format="pyarrow")


def event_deltas(ds, key_col: str, ts_col: str, value_col: str,
                 tiebreak: str, scale: int = 100):
    """Per-key LAG deltas: seconds since the key's previous event and the
    value change since it — the lag/lead window primitive
    (``LAG(x) OVER (PARTITION BY key ORDER BY ts, tiebreak)``), the
    feature behind inter-arrival-time and rate-of-change signals.

    Execution shape: ONE hash-bucket shuffle (``grouped_reduce_c``) +
    per-bucket mergesort + ``groupby.shift`` — MANY keys per task, all C
    kernels, no per-key dispatch. Skew contract matches ``rolling_mean``:
    a bucket holds its keys' FULL histories (~40 B/row); a 10^8-row hot
    key is ~4 GB and the documented bound — pre-split hotter keys on a
    coarse calendar bucket and stitch the 1-row boundary.

    Output deltas are fixed-point (x*scale, half-away-from-zero like
    DuckDB ROUND) float64 with NaN for each key's first event — matching
    how DuckDB's fetchdf renders a nullable BIGINT column (the asof-join
    precedent).
    """
    import numpy as np

    from ocr_suite_ray.stages.relational import grouped_reduce_c

    def _round_fp(m: "pd.Series") -> np.ndarray:
        arr = m.to_numpy(dtype="float64") * scale
        return np.where(arr >= 0, np.floor(arr + 0.5), np.ceil(arr - 0.5))

    def _deltas(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, ts_col, tiebreak], kind="mergesort")
        grp = g.groupby(key_col, sort=False)
        gap = (g[ts_col] - grp[ts_col].shift()).dt.total_seconds()
        dv = g[value_col] - grp[value_col].shift()
        out = g[[key_col, tiebreak]].copy()
        out["gap_fp"] = _round_fp(gap)
        out["value_delta_fp"] = _round_fp(dv)
        return out

    return grouped_reduce_c(ds, [key_col], _deltas)


def group_ranks(ds, key_col: str, value_col: str, tiebreak_cols: list,
                n_tiles: int = 4, descending: bool = True):
    """SQL window-rank family per key: ``RANK`` / ``DENSE_RANK`` over
    ``value_col`` and ``ROW_NUMBER`` / ``NTILE(n_tiles)`` over the
    deterministic total order (value, *tiebreak_cols) — the ranking
    primitives behind per-group leaderboards, quota tiers and
    quantile-bucket assignment (``percentile_gate``'s discrete cousin).

    Execution shape: ONE hash-bucket shuffle (``grouped_reduce_c``) +
    per-bucket mergesort + ``groupby.rank``/``cumcount`` — MANY keys per
    task, all pandas C kernels, no per-group dispatch. Skew contract
    matches ``event_deltas``: a bucket holds its keys' full groups; a
    pathologically hot key bounds the task (pre-split on a secondary
    bucket and re-rank with offsets if one group outgrows a worker).

    NTILE follows the SQL rule exactly: bucket sizes differ by at most
    one, larger buckets first (``count % n_tiles`` buckets get
    ``count // n_tiles + 1`` rows).

    All four rank columns are int64 (DuckDB window functions return
    BIGINT; pandas ``rank`` returns float64 and is cast back). Null
    values follow DuckDB's default NULLS LAST ordering and SQL
    ties-among-nulls ranking (all nulls share rank = non-null count + 1
    and dense rank = distinct non-null count + 1) — pandas ``rank``
    leaves them NaN, and a silent NaN->int64 cast would emit INT64_MIN
    garbage, so they are filled explicitly.
    """
    import numpy as np

    from ocr_suite_ray.stages.relational import grouped_reduce_c

    asc = not descending

    def _ranks(g: pd.DataFrame) -> pd.DataFrame:
        # pandas na_position defaults to 'last' for either ascending
        # direction == DuckDB default_null_order (nulls_last)
        g = g.sort_values(
            [key_col, value_col, *tiebreak_cols],
            ascending=[True, asc] + [True] * len(tiebreak_cols),
            kind="mergesort",
        )
        grp = g.groupby(key_col, sort=False)
        rn = grp.cumcount().to_numpy() + 1
        cnt = grp[value_col].transform("size").to_numpy()
        out = g.copy()
        rnk = grp[value_col].rank(method="min", ascending=asc).to_numpy()
        drnk = grp[value_col].rank(method="dense", ascending=asc).to_numpy()
        isna = g[value_col].isna().to_numpy()
        if isna.any():
            n_valid = grp[value_col].transform("count").to_numpy()
            n_distinct = grp[value_col].transform("nunique").to_numpy()
            rnk[isna] = n_valid[isna] + 1
            drnk[isna] = n_distinct[isna] + 1
        out["rnk"] = rnk.astype(np.int64)
        out["drnk"] = drnk.astype(np.int64)
        out["rn"] = rn.astype(np.int64)
        base = cnt // n_tiles
        big = cnt % n_tiles
        cut = big * (base + 1)
        out["nt"] = np.where(
            rn <= cut,
            (rn - 1) // np.maximum(base + 1, 1) + 1,
            big + (rn - 1 - cut) // np.maximum(base, 1) + 1,
        ).astype(np.int64)
        return out

    return grouped_reduce_c(ds, [key_col], _ranks)
