"""Incremental keyed state over a partitioned event-time stream.

Reference analogue: the speed meter's windowed counters mutated by every
consumer under a mutex (``src/recognition/speed_meter.cpp:35-58``) and the
watermark's running max (``src/common/database.cpp:135-150``). Here the
state is sharded instead of locked: the stream is hash-partitioned by key
into ``num_buckets`` buckets, and each bucket's rows are applied IN EVENT-
TIME ORDER by a sequential kernel running on a worker — the order-dependent
update (EMA) the Dataset's hash aggregate cannot express.

Dataflow (all worker-side; the driver never sees a row):
  1. ``map_batches`` tags each row with ``hash(key) % num_buckets``
     (vectorized) — rows of one key always share a bucket.
  2. ``groupby(bucket).map_groups`` — Ray Data's one shuffle — delivers each
     bucket's rows to a single worker task, which sorts them by
     ``(ts, key)`` (stable) and folds them through the incremental state.
  3. Each task emits only its final per-key state; results stream out as a
     Dataset.

Partitioning assumption (documented per the custom-operator contract): one
bucket's narrow projection ``(key, ts, value)`` must fit a worker's heap —
size ``num_buckets ~ stream_bytes / 1 GiB`` at scale. Rows tied on
``(ts, key)`` are applied in an unspecified order (same caveat as any
distributed sort).
"""

from __future__ import annotations

import pandas as pd

from ocr_suite_ray.functions.hashing import key_buckets

_BUCKET_COL = "__kbucket"


class _BucketState:
    """Per-key incremental aggregates: count, sum, running max, EMA."""

    def __init__(self, alpha: float = 0.2) -> None:
        self._alpha = alpha
        self._state: dict = {}

    def update(self, keys, values) -> int:
        a = self._alpha
        st = self._state
        for k, v in zip(keys, values):
            s = st.get(k)
            if s is None:
                st[k] = [1, v, v, v]  # n, sum, max, ema
            else:
                s[0] += 1
                s[1] += v
                if v > s[2]:
                    s[2] = v
                s[3] = a * v + (1 - a) * s[3]
        return len(keys)

    def snapshot(self) -> pd.DataFrame:
        st = self._state
        return pd.DataFrame(
            {
                "key": list(st.keys()),
                "n": [s[0] for s in st.values()],
                "sum": [s[1] for s in st.values()],
                "max": [s[2] for s in st.values()],
                "ema": [s[3] for s in st.values()],
            }
        )


def streaming_keyed_aggregate_ds(
    ds,
    key_col: str,
    ts_col: str,
    value_col: str,
    num_buckets: int = 8,
    alpha: float = 0.2,
):
    """Distributed keyed-state fold; returns the per-key final state as a
    Dataset (key, n, sum, max, ema) — nothing is materialized on the
    driver."""

    def _tag(df: pd.DataFrame) -> pd.DataFrame:
        df = df[[key_col, ts_col, value_col]].copy()
        df[_BUCKET_COL] = key_buckets([df[key_col]], num_buckets)
        return df

    def _fold(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values([ts_col, key_col], kind="mergesort")
        st = _BucketState(alpha)
        st.update(g[key_col].to_numpy(), g[value_col].to_numpy())
        return st.snapshot()

    return (
        ds.map_batches(_tag, batch_format="pandas")
        .groupby(_BUCKET_COL)
        .map_groups(_fold, batch_format="pandas")
    )


def streaming_keyed_aggregate(
    ds,
    key_col: str,
    ts_col: str,
    value_col: str,
    num_buckets: int = 8,
    alpha: float = 0.2,
    batch_size: int = 4096,  # kept for API compatibility; unused
) -> pd.DataFrame:
    """Small-result convenience wrapper: run the distributed fold and pull
    the per-key state table (rows = distinct keys) to the driver, sorted by
    key. Use :func:`streaming_keyed_aggregate_ds` when the key cardinality
    itself is large."""
    out = streaming_keyed_aggregate_ds(
        ds, key_col, ts_col, value_col, num_buckets=num_buckets, alpha=alpha
    ).to_pandas()
    if out.empty:
        return out
    return out.sort_values("key").reset_index(drop=True)
