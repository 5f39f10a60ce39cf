"""Shared deterministic md5-prefix hash kernels.

The engine's reproducible-sampling contract: a row's "randomness" is the
top 32 bits of ``md5(str(key))`` (equal to ``int(hexdigest()[:8], 16)``),
optionally reduced mod ``m``. Every sampling primitive — ``hash_sample``,
``assign_split``, ``stratified_sample``, ``weighted_sample``, curation's
``sample_e4`` — routes through here so the rule lives in exactly one
place, stays run-to-run / parallelism independent, and remains
DuckDB-expressible for the oracles
(``CAST(('0x' || substr(md5(x), 1, 8)) AS UBIGINT)``).

``key_buckets`` is the other shared rule: the bucket of a key for hash
partitioning, a function of the key's value only.
"""

from __future__ import annotations

import hashlib

import numpy as np


def md5_u32(values, *, suffix: str = "") -> np.ndarray:
    """Top-32-bit md5 of ``str(v) + suffix`` per value → int64 ndarray.

    The md5 loop is the engine's one sanctioned per-row Python (kept for
    DuckDB hash parity — the SQL twins compute the same substr(md5) cast);
    ``digest()[:4]`` big-endian equals ``int(hexdigest()[:8], 16)`` without
    materializing the hex string.
    """
    sfx = suffix.encode()
    return np.fromiter(
        (
            int.from_bytes(hashlib.md5(str(v).encode() + sfx).digest()[:4], "big")
            for v in values
        ),
        dtype=np.int64,
        count=len(values),
    )


def md5_mod(values, mod: int, *, suffix: str = "") -> np.ndarray:
    """``md5_u32(values) % mod`` — the keep-threshold form used by all
    deterministic samplers (keep iff ``md5_mod(id, m) < threshold``)."""
    return md5_u32(values, suffix=suffix) % mod


def split_labels(hmod: np.ndarray, train_pct: int, val_pct: int) -> np.ndarray:
    """train/val/test labels from ``md5_mod(key, 100)`` values — THE split
    rule, kept in one place so the oracle-pinned assign_split and the
    pretrain funnel's leakage-safe host split can never diverge."""
    return np.where(
        hmod < train_pct, "train",
        np.where(hmod < train_pct + val_pct, "val", "test"),
    )

# int64 max is 19 digits — a 20-wide pad can never truncate, so the
# engine's zfill and DuckDB's lpad (which TRUNCATES longer inputs, unlike
# zfill/Arrow lpad) stay byte-identical for every representable id
ORDER_KEY_ID_WIDTH = 20


def salted_order_keys(ids, salt: str) -> list:
    """Deterministic unique order keys: md5-hex prefix (salted) + the
    zero-padded id — the shared recipe of ``shuffle_shards`` and
    ``token_budget_mixture`` (SQL twin:
    ``substr(md5(id || salt), 1, 8) || '-' || lpad(id, 20, '0')``).
    The md5 loop is the engine's one sanctioned per-row Python (DuckDB
    hash parity, cf. ``md5_u32``)."""
    import hashlib

    return [
        hashlib.md5((str(d) + salt).encode()).hexdigest()[:8]
        + "-"
        + str(d).zfill(ORDER_KEY_ID_WIDTH)
        for d in ids
    ]


_NULL_HASH = np.uint64(0x9E3779B97F4A7C15)
_NUMERIC_OBJECTS = {"boolean", "integer", "floating", "mixed-integer-float", "decimal"}


def _value_hashes(col) -> np.ndarray:
    """uint64 hash per value of one key column, a function of the VALUE
    only. A pandas block turns an int64 column holding a null into float64
    (a bool one into object), so numbers hash as their float64 value
    (``-0.0`` as ``0.0``), instants as UTC ns, and every null spelling
    shares one hash."""
    import pandas as pd

    if hasattr(col, "to_pandas"):  # pyarrow Array / ChunkedArray
        col = col.to_pandas()
    s = col if isinstance(col, pd.Series) else pd.Series(col)
    null = s.isna().to_numpy()
    kind = s.dtype.kind
    if kind == "O" and pd.api.types.infer_dtype(s, skipna=True) in _NUMERIC_OBJECTS:
        kind = "f"
    if kind in "biuf":
        v = s.to_numpy(np.float64, na_value=0.0) + 0.0
    elif kind in "mM":
        v = s.to_numpy(f"{'datetime' if kind == 'M' else 'timedelta'}64[ns]").view(np.int64)
    else:
        v = s.to_numpy(object)
        v = np.where(null, "", v) if null.any() else v
    h = pd.util.hash_array(v)
    h[null] = _NULL_HASH
    return h


def key_buckets(columns, k: int) -> np.ndarray:
    """Bucket in ``[0, k)`` per row of the key made of ``columns`` (pandas
    Series, numpy or Arrow arrays of one length). Equal key values get
    equal buckets whatever block layout carried them: the rule of the
    pandas-block bucket shuffles (``grouped_reduce_c`` and kin) and the
    keyed dup reduce's shard split."""
    h = _value_hashes(columns[0])
    for col in columns[1:]:
        h = h * np.uint64(1_000_003) ^ _value_hashes(col)
    return (h % np.uint64(k)).astype(np.int64)
