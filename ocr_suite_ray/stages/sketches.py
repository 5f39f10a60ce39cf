"""Mergeable sketches: HyperLogLog distinct-count, histogram quantiles.

The reference has no approximate aggregates (SURVEY §2.6), but a
trillion-row pipeline needs them: exact distinct/quantile over 10^12 rows
is an all-to-all shuffle; a sketch is one small partial per block plus a
tree merge. Pattern (per the public Ray guidance on aggregation at scale):
``map_batches`` emits ONE serialized sketch row per block; the partials
merge in a remote TREE (``coalesce_reduce``) so the driver only ever sees
the root sketch — never O(blocks) rows.

Both sketches here are deterministic (fixed hash, fixed bins): same input
set → same estimate at any parallelism. Null semantics match SQL: NULLs
count toward neither the distinct estimate nor any quantile bin.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

HLL_P = 12  # 2^12 registers → ~1.6% standard error
_M = 1 << HLL_P


def _hash64(values) -> np.ndarray:
    """Vectorized deterministic 64-bit hash (``pd.util.hash_array`` with its
    fixed default key — stable across processes/runs, unlike Python's
    seeded ``hash``). One C pass; the earlier per-row blake2b loop cost
    ~1 µs/row, which at the module's own 10^12-row design point is days of
    aggregate CPU for no statistical benefit (any uniform 64-bit family is
    a valid HLL hash)."""
    arr = np.asarray(values, dtype=object)
    return pd.util.hash_array(arr)


def hll_partial(values) -> bytes:
    """One HLL register array from a batch of values (serialized).

    register index = top P hash bits; rank = position of the first set bit
    in the remaining 64-P bits (1-based, capped at 64-P+1). The rank's
    bit_length is computed with a 6-step vectorized binary shift — no
    per-row Python."""
    regs = np.zeros(_M, dtype=np.uint8)
    if len(values):
        h = _hash64(values)
        idx = (h >> np.uint64(64 - HLL_P)).astype(np.int64)
        rest = h & np.uint64((1 << (64 - HLL_P)) - 1)
        w = 64 - HLL_P
        r = rest.copy()
        bl = np.zeros(len(r), dtype=np.uint8)  # floor(log2)+1, 0 for r==0
        for shift in (32, 16, 8, 4, 2, 1):
            m = r >= np.uint64(1 << shift)
            bl[m] += shift
            r[m] >>= np.uint64(shift)
        bl[rest > 0] += 1
        rank = (w + 1 - bl).astype(np.uint8)  # rest==0 → bl=0 → w+1
        np.maximum.at(regs, idx, rank)
    return regs.tobytes()


def hll_merge(partials: list[bytes]) -> bytes:
    regs = np.zeros(_M, dtype=np.uint8)
    for p in partials:
        regs = np.maximum(regs, np.frombuffer(p, dtype=np.uint8))
    return regs.tobytes()


def hll_estimate(partial: bytes) -> float:
    regs = np.frombuffer(partial, dtype=np.uint8).astype(np.float64)
    alpha = 0.7213 / (1 + 1.079 / _M)
    est = alpha * _M * _M / np.sum(2.0 ** (-regs))
    zeros = np.sum(regs == 0)
    if est <= 2.5 * _M and zeros > 0:  # small-range correction
        est = _M * np.log(_M / zeros)
    return float(est)


def _sketch_reduce(ds, partial_fn, merge_fn):
    """Shared reduce shape: one sketch row per block, remote tree merge,
    root sketch (bytes) back to the driver — or None for an empty input.
    ``coalesce_reduce`` keeps the merge off the driver (the earlier
    ``take_all`` form shipped one row per block to the driver: gigabytes
    of driver heap and an O(blocks) serial loop at 10^6 blocks)."""
    from ocr_suite_ray.state.dupset import coalesce_reduce

    def _merge(t: pa.Table) -> pa.Table:
        merged = merge_fn([m.as_py() for m in t["sk"]])
        return pa.table({"sk": pa.array([merged], pa.binary())})

    root = coalesce_reduce(
        ds.map_batches(partial_fn, batch_format="pyarrow"),
        _merge,
        None,
        materialize=True,
    )
    if root is None or root.num_rows == 0:
        return None
    return root["sk"][0].as_py()


def approx_distinct(ds, col: str, exact_threshold: int = 0) -> int:
    """Distinct-count estimate: one HLL partial per block, tree-merged.
    NULLs are not counted (SQL COUNT(DISTINCT) semantics). Empty input
    estimates 0.

    ``exact_threshold`` enables the HLL++-style SPARSE regime for integer
    columns: a partial whose block-distinct set fits the threshold ships
    the raw sorted values (8 B each) instead of registers; merges union
    sparse sets while they fit and PROMOTE to dense registers the moment
    one side is dense or the union overflows. While every node stays
    sparse the result is EXACT ``COUNT(DISTINCT)`` — the regime the
    catalog query runs under its DuckDB twin; past the threshold the
    estimate degrades gracefully to the ~1.6%-error dense sketch. Blob
    format: 1-byte tag (``S`` sparse int64 payload / ``H`` registers)."""

    def _sparse_to_regs(payload: bytes) -> bytes:
        return hll_partial(np.frombuffer(payload, np.int64).tolist())

    def _p(t: pa.Table) -> pa.Table:
        vals = t[col].combine_chunks().drop_null()
        u = vals.unique()
        if (
            exact_threshold
            and pa.types.is_integer(u.type)
            and len(u) <= exact_threshold
        ):
            s = np.sort(u.to_numpy(zero_copy_only=False).astype(np.int64))
            blob = b"S" + s.tobytes()
        else:
            blob = b"H" + hll_partial(u.to_pylist())
        return pa.table({"sk": pa.array([blob], pa.binary())})

    def _m(blobs: list[bytes]) -> bytes:
        if exact_threshold and all(b[:1] == b"S" for b in blobs):
            u = np.unique(np.concatenate(
                [np.frombuffer(b[1:], np.int64) for b in blobs]
            ))
            if len(u) <= exact_threshold:
                return b"S" + u.tobytes()
            return b"H" + hll_partial(u.tolist())
        return b"H" + hll_merge([
            b[1:] if b[:1] == b"H" else _sparse_to_regs(b[1:])
            for b in blobs
        ])

    merged = _sketch_reduce(ds, _p, _m)
    if merged is None:
        return 0
    if merged[:1] == b"S":
        return (len(merged) - 1) // 8
    return int(round(hll_estimate(merged[1:])))


# ---------------------------------------------------------------------------


class HistogramSketch:
    """Fixed-range histogram quantile sketch — deterministic, mergeable.
    Error bound: (hi-lo)/bins per quantile. NaN/null values are ignored
    (SQL quantile semantics), not binned."""

    def __init__(self, lo: float, hi: float, bins: int = 4096):
        self.lo, self.hi, self.bins = lo, hi, bins

    def partial(self, values: np.ndarray) -> np.ndarray:
        v = np.asarray(values, dtype=np.float64)
        v = v[~np.isnan(v)]  # Arrow nulls arrive as NaN — never bin them
        # clip in FLOAT space before the int cast: float->int64 of +inf
        # (or any scaled bin past 2^63) is INT64_MIN, which a post-cast
        # clip would pin to bin 0 — counting a value above hi as the
        # SMALLEST and shifting every quantile low
        idx = np.clip(
            (v - self.lo) / (self.hi - self.lo) * self.bins,
            0, self.bins - 1,
        ).astype(np.int64)
        return np.bincount(idx, minlength=self.bins).astype(np.int64)

    def quantile(self, counts: np.ndarray, q: float) -> float:
        cum = np.cumsum(counts)
        total = cum[-1]
        if total == 0:  # no data — NaN, not a fabricated mid-bin value
            return float("nan")
        pos = np.searchsorted(cum, q * total)
        return self.lo + (pos + 0.5) * (self.hi - self.lo) / self.bins


def approx_quantiles(ds, col: str, lo: float, hi: float, qs=(0.5, 0.95),
                     bins: int = 4096) -> dict:
    """Quantile estimates keyed ``q{round(q*100)}`` (``round``, not
    ``int`` — 0.29*100 is 28.999… and would truncate to 'q28'). NaN per
    quantile when the column has no non-null rows."""
    sk = HistogramSketch(lo, hi, bins)

    def _p(t: pa.Table) -> pa.Table:
        c = sk.partial(t[col].to_numpy(zero_copy_only=False))
        return pa.table({"counts": pa.array([c.tobytes()], pa.binary())})

    def _m(blobs: list[bytes]) -> bytes:
        merged = np.zeros(bins, dtype=np.int64)
        for b in blobs:
            merged += np.frombuffer(b, dtype=np.int64)
        return merged.tobytes()

    def _p_named(t: pa.Table) -> pa.Table:
        return _p(t).rename_columns(["sk"])

    merged_blob = _sketch_reduce(ds, _p_named, _m)
    merged = (
        np.zeros(bins, dtype=np.int64)
        if merged_blob is None
        else np.frombuffer(merged_blob, dtype=np.int64)
    )
    return {f"q{round(q * 100)}": sk.quantile(merged, q) for q in qs}


def _mg_compress(items: pa.Array, counts: np.ndarray, capacity: int):
    """Misra-Gries compression: if more than ``capacity`` counters survive,
    subtract the (capacity+1)-th largest count from all and keep the
    positive ones (the mergeable-summaries rule — Agarwal et al. 2012,
    'Mergeable Summaries', PODS). Each compression undercounts every
    surviving item by at most the subtracted value; the total subtracted
    across all merges is bounded by n/(capacity+1)."""
    if len(counts) <= capacity:
        return items, counts
    thresh = np.partition(counts, -(capacity + 1))[-(capacity + 1)]
    kept = counts - thresh
    m = kept > 0
    return items.filter(pa.array(m)), kept[m]


def _summary_table(items: pa.Array, counts: np.ndarray, total: int) -> pa.Table:
    """(item, n) summary rows + the null-item sentinel carrying the running
    total item count. Items normalize to string (a summary is capacity-
    bounded, int32 offsets always fit) so fan-ins never mix offset widths."""
    item_col = pa.concat_arrays(
        [items.cast(pa.string()), pa.array([None], pa.string())]
    )
    n_col = pa.concat_arrays(
        [pa.array(counts.astype("int64"), pa.int64()),
         pa.array([total], pa.int64())]
    )
    return pa.table({"item": item_col, "n": n_col})


def heavy_hitters(ds, col: str, k: int = 25, capacity: int = 256,
                  split_tokens: bool = True):
    """Approximate top-k frequent items (Misra-Gries heavy hitters) over a
    column — the bounded-memory twin of ``text_ops.token_frequencies``:
    the exact form's exchange carries the full distinct-item table, this
    one never holds more than ``capacity`` counters per task or fan-in.

    Per-block partial: exact block counts via one Arrow C hash-agg (with
    ``split_tokens`` the column is whitespace-split and flattened first),
    compressed to a <= capacity Misra-Gries summary plus a null-item
    sentinel row carrying the block's total item count (the bm25
    sentinel-row precedent). Remote TREE merge: sum summaries (one C
    hash-agg per fan-in), re-compress — merged MG summaries keep the
    guarantee. Root: top-k by estimated count, deterministic
    (n desc, item asc) tie-break.

    Guarantee: every item with true frequency > n_total/(capacity+1)
    survives, and each reported count undercounts its true count by at
    most n_total/(capacity+1). With ``capacity`` >= the corpus's distinct
    item count no compression ever triggers and counts are EXACT — the
    mode the ``heavy_hitters`` catalog row runs for its full DuckDB twin;
    the sketch regime is pinned by the guarantee units.
    """
    import pyarrow.compute as pc

    from ocr_suite_ray.state.dupset import block_refs, dataset_from_root

    def _partial(t: pa.Table) -> pa.Table:
        c = t[col]
        if split_tokens:
            c = pc.list_flatten(pc.split_pattern(c, " "))
        vc = c.value_counts()
        if isinstance(vc, pa.ChunkedArray):
            vc = vc.combine_chunks()
        items = vc.field("values")
        counts = vc.field("counts").to_numpy(zero_copy_only=False)
        valid = pc.is_valid(items)
        items = items.filter(valid)
        counts = counts[valid.to_numpy(zero_copy_only=False)]
        total = int(counts.sum())
        it, ct = _mg_compress(items, counts, capacity)
        return _summary_table(it, ct, total)

    def _merge(t: pa.Table) -> pa.Table:
        is_sent = pc.is_null(t["item"])
        total = pc.sum(t.filter(is_sent)["n"]).as_py() or 0
        body = t.filter(pc.invert(is_sent))
        g = body.group_by("item").aggregate([("n", "sum")])
        items = g["item"].combine_chunks()
        counts = g["n_sum"].to_numpy(zero_copy_only=False)
        it, ct = _mg_compress(items, counts, capacity)
        return _summary_table(it, ct, total)

    def _finish(t: pa.Table) -> pa.Table:
        t = _merge(t)
        body = t.filter(pc.is_valid(t["item"]))
        order = pc.sort_indices(
            body, sort_keys=[("n", "descending"), ("item", "ascending")]
        )
        return body.take(order[:k]).select(["item", "n"])

    return dataset_from_root(
        block_refs(ds.map_batches(_partial, batch_format="pyarrow")),
        _merge, _finish,
        pa.schema([pa.field("item", pa.string()), pa.field("n", pa.int64())]),
    )
