"""Content-dedup operator family for training-data pipelines.

Generalizes the reference's exact dedup (``text_entries.value TEXT UNIQUE``
+ ``INSERT OR IGNORE``, ``src/common/db/updates/v3.inl:15-20``) from exact
string identity to the standard near-dup ladder:

- ``exact_dedup``           hash → two-level keyed min-reduce (one shuffle)
- ``ngram_jaccard_pairs``   exact word-shingle Jaccard within a blocking key
- ``minhash_lsh_pairs``     MinHash signatures + LSH banding → candidate
                            buckets → exact-Jaccard verification
- ``simhash_pairs``         64-bit SimHash + chunk banding → Hamming verify

Scale shapes: every per-doc computation is a vectorized/numpy ``map_batches``
stage; every candidate-generation step is ONE hash-shuffle (groupby on
band/bucket) with per-bucket vectorized verification; nothing does an
all-pairs pass except inside a bounded blocking group. Pair outputs are
canonicalized (a < b) and deduplicated, so results are independent of block
layout.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pandas as pd
import pyarrow as pa

# MinHash parameters (fixed => deterministic): 128 permutations, 32 bands x 4
# rows — S-curve threshold (1/b)^(1/r) ≈ 0.42, so recall at jaccard >= 0.5 is
# ~0.87 and at >= 0.7 is ~0.9998 (tested in tests/test_dedup_text.py).
NUM_PERM = 128
LSH_BANDS = 32
ROWS_PER_BAND = NUM_PERM // LSH_BANDS
_MERSENNE = (1 << 61) - 1
_rng = np.random.RandomState(42)
_PERM_A = _rng.randint(1, _MERSENNE, size=NUM_PERM, dtype=np.int64).astype(np.uint64)
_PERM_B = _rng.randint(0, _MERSENNE, size=NUM_PERM, dtype=np.int64).astype(np.uint64)


def _shingles(text: str, k: int = 3) -> set:
    """Word k-gram shingle hashes (64-bit).

    Gram hash: low 8 digest bytes of md5, little-endian — exactly DuckDB's
    ``md5_number_lower``, so the whole MinHash chain (shingle hash → universal
    (a*h+b) mod 2^61-1 minima in uint64 wrap arithmetic → band grouping →
    exact-Jaccard verify) is SQL-replicable and ``minhash_lsh_pairs`` carries
    a full value-hash DuckDB oracle."""
    words = text.split(" ")
    if len(words) < k:
        grams = [" ".join(words)]
    else:
        grams = [" ".join(words[i : i + k]) for i in range(len(words) - k + 1)]
    return {
        int.from_bytes(hashlib.md5(g.encode()).digest()[8:16], "little")
        for g in grams
    }


def jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    inter = len(a & b)
    return inter / (len(a) + len(b) - inter)



# per-worker gram -> 64-bit md5 hash memo for the batched MinHash kernel
_GRAM_HASH_MEMO: dict = {}


def _mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer (public domain constant set) — full-avalanche
    64-bit diffusion, vectorized over a uint64 array."""
    x = x.astype(np.uint64, copy=True)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def _band_hashes(band_flat: np.ndarray) -> np.ndarray:
    """64-bit hash per band row from its (rows_per_band,) signature slice —
    FNV-1a fold over SplitMix64-diffused lanes, one vectorized pass over
    ALL band rows. Replaces a per-band-row hashlib.blake2b Python loop
    (~0.4 s per 10M-scale block, round-3 profile). Collisions can only ADD
    candidate pairs (equal tuples always hash equal), and every candidate
    is exact-verified, so the band-hash function never changes the final
    pair set — the DuckDB oracle groups by the raw minima tuple."""
    h = np.full(band_flat.shape[0], np.uint64(0xCBF29CE484222325))
    for c in range(band_flat.shape[1]):
        h = (h ^ _mix64(band_flat[:, c])) * np.uint64(0x100000001B3)
    return _mix64(h)


def _fast_gram_hashes(texts, k: int):
    """md5-free word-k-gram hashes: per-occurrence 64-bit hashes with row
    ids, NO gram-string materialization. Tokens are split once (Arrow),
    hashed per DISTINCT token (pandas' C string hasher over the dictionary
    only), and each window hash is a rolling multiply-add combine of its k
    token hashes + a SplitMix64 finalize — three vectorized ops for k=3,
    versus building and md5-ing every gram string (the round-3 profile's
    5.2 s/block irreducible cost of md5 parity). Rows with < k words
    contribute one whole-text gram (the rolling combine over all their
    tokens), mirroring ``_shingles``. Returns ``(row_idx, hashes)``
    unsorted; the caller dedups per row."""
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    lst = pc.split_pattern(texts, " ")
    flat = pc.list_flatten(lst)
    off = lst.offsets.to_numpy().astype(np.int64)
    off = off - off[0]
    n_tokens = off[1:] - off[:-1]
    n_rows = len(n_tokens)
    total = int(off[-1]) if len(off) else 0
    enc = flat.dictionary_encode()
    dh = pd.util.hash_array(enc.dictionary.to_numpy(zero_copy_only=False))
    th = dh[enc.indices.to_numpy(zero_copy_only=False)]
    M = np.uint64(0x9E3779B97F4A7C15)
    row_parts, h_parts = [], []
    nw = total - k + 1
    if nw > 0:
        h = th[:nw].copy()
        for j in range(1, k):
            h = h * M + th[j : j + nw]
        h = _mix64(h)
        # validity: a window is invalid iff it straddles a row boundary —
        # mark the LAST k-1 window slots of each row invalid, O(rows·k)
        # instead of O(tokens) repeat arrays
        valid = np.ones(nw, dtype=bool)
        for j in range(1, k):
            cut = off[1:] - j
            valid[cut[(cut >= 0) & (cut < nw)]] = False
        idx = np.nonzero(valid)[0]
        row_of = np.repeat(np.arange(n_rows, dtype=np.int64), n_tokens)
        row_parts.append(row_of[idx])
        h_parts.append(h[idx])
    short = np.flatnonzero(n_tokens < k)
    if len(short):
        MASK = (1 << 64) - 1
        M_i = 0x9E3779B97F4A7C15
        accs = np.empty(len(short), dtype=np.uint64)
        for i, r in enumerate(short):  # rare rows only
            acc = int(th[off[r]])
            for j in range(off[r] + 1, off[r + 1]):
                acc = (acc * M_i + int(th[j])) & MASK
            accs[i] = acc
        row_parts.append(short.astype(np.int64))
        h_parts.append(_mix64(accs))
    if not row_parts:
        return np.empty(0, np.int64), np.empty(0, np.uint64)
    return np.concatenate(row_parts), np.concatenate(h_parts)


def _pair_indices_within_groups(new: np.ndarray) -> tuple:
    """Vectorized i<j pair expansion over contiguous groups — shared by the
    minhash / simhash / substring shard-pairing UDFs.

    ``new``: bool array over rows PRE-SORTED by group key, True where row i
    opens a new group. Returns ``(i_idx, j_idx)``: positional indices of
    every within-group (earlier, later) pair, ordered by i then j. Pair
    volume is quadratic per group — callers cap group sizes first."""
    n = len(new)
    grp_start = np.flatnonzero(new)
    grp_len = np.diff(np.append(grp_start, n))
    starts = np.repeat(grp_start, grp_len)
    # pairs remaining for row r = (its group's end index) - r - 1
    cnt = starts + np.repeat(grp_len, grp_len) - np.arange(n) - 1
    total = int(cnt.sum())
    i_idx = np.repeat(np.arange(n), cnt)
    csum = np.concatenate(([0], np.cumsum(cnt)))
    j_idx = np.arange(total) - np.repeat(csum[:-1], cnt) + 1 + i_idx
    return i_idx, j_idx


def _minhash_sig(sh: set) -> np.ndarray:
    """128 x 64-bit universal-hash minima over the shingle set."""
    if not sh:
        return np.full(NUM_PERM, np.iinfo(np.uint64).max, dtype=np.uint64)
    v = np.fromiter(sh, dtype=np.uint64, count=len(sh))
    # (a*x + b) mod p, vectorized over shingles x permutations
    prod = (v[None, :] * _PERM_A[:, None] + _PERM_B[:, None]) % np.uint64(_MERSENNE)
    return prod.min(axis=1)


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------

def exact_dedup(ds, id_col: str = "doc_id", text_col: str = "text", num_buckets: int = 64):
    """One row per distinct text, keeper = min id. Two-level: per-block
    min-per-hash combiner (C), then ONE bucket shuffle + a within-bucket C
    groupby-min.

    The reduce deliberately avoids ``Dataset.aggregate(Min)``: Ray's
    built-in AggregateFn reduce walks rows in Python, which a 10M-doc drive
    measured at 1309 s for this exact op (BASELINE.md round-3 section); the
    bucket ``map_groups`` keeps the whole reduce in pandas C kernels. The
    exchange carries only (32-char hash, id) pairs — never text."""

    def _hash(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame()
        out["text_hash"] = [hashlib.md5(t.encode()).hexdigest() for t in df[text_col]]
        out[id_col] = df[id_col].values
        out = out.groupby("text_hash", as_index=False)[id_col].min()
        out["__hbucket"] = (
            pd.util.hash_array(out["text_hash"].to_numpy()) % num_buckets
        ).astype("int64")
        return out

    def _min(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("text_hash", as_index=False)[id_col].min()

    return (
        ds.map_batches(_hash, batch_format="pandas")
        .groupby("__hbucket")
        .map_groups(_min, batch_format="pandas")
    )


def cross_corpus_dedup(
    ds,
    ref_ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    max_broadcast_rows: int = 100_000_000,
    route: str = "auto",
    num_buckets: int = 64,
):
    """Remove from ``ds`` every document whose exact text appears anywhere
    in ``ref_ds`` — dedup against an already-trained / held-out corpus, the
    cross-corpus complement of :func:`exact_dedup`'s within-corpus rule
    (the standard "don't re-train on last year's crawl" pass).

    Scale story: nothing but md5 digests ever leaves a worker, on either
    route. ``route="broadcast"``: ``ref_ds``'s DISTINCT hash set is built
    with per-block distinct combiners and one tree reduce, broadcast ONCE
    (``ray.put``), then ``ds`` streams a single vectorized membership pass
    — corpus A is never shuffled. Broadcast memory is O(distinct ref
    texts), ~50 B/hash in the per-worker pd.Index. ``route="shuffle"`` (the
    beyond-broadcast tier): both sides project to digests, ONE bucket
    shuffle co-locates equal digests, the within-bucket intersection yields
    the DROPPED id set — dup-rate bound, like the flagship finalize — which
    is broadcast for one streaming id filter over A. ``route="auto"`` picks
    by ``ref_ds``'s distinct-hash count vs ``max_broadcast_rows``."""
    import ray
    import pyarrow as pa

    from ocr_suite_ray.stages._bcast import cached_build
    from ocr_suite_ray.state.dupset import coalesce_reduce, remote_fn

    if route not in ("auto", "broadcast", "shuffle"):
        raise ValueError(
            f"route must be 'auto', 'broadcast' or 'shuffle', got {route!r}"
        )

    def _ref_hashes(df: pd.DataFrame) -> pd.DataFrame:
        h = [hashlib.md5(t.encode()).hexdigest() for t in df[text_col]]
        return pd.DataFrame({"text_hash": pd.unique(pd.Series(h, dtype=object))})

    def _union(t: pa.Table) -> pa.Table:
        return t.group_by(["text_hash"]).aggregate([])

    if route in ("auto", "broadcast"):
        hashes_ref = coalesce_reduce(
            ref_ds.map_batches(_ref_hashes, batch_format="pandas"),
            _union,
            materialize=False,
        )
        n_ref = ray.get(remote_fn(_num_rows).remote(hashes_ref))
        if n_ref <= max_broadcast_rows:
            def _index(t):
                if t is None or t.num_rows == 0:
                    return None
                return pd.Index(t["text_hash"].to_pandas())

            def _filter(df: pd.DataFrame) -> pd.DataFrame:
                idx = (
                    cached_build(hashes_ref, _index)
                    if hashes_ref is not None else None
                )
                if idx is None:
                    return df
                h = np.array(
                    [hashlib.md5(t.encode()).hexdigest() for t in df[text_col]],
                    dtype=object,
                )
                return df[idx.get_indexer(h) < 0]

            return ds.map_batches(_filter, batch_format="pandas")
        if route == "broadcast":
            raise ValueError(
                f"cross_corpus_dedup broadcast tier: {n_ref} distinct "
                f"reference hashes exceed the {max_broadcast_rows}-row "
                "budget; use route='shuffle' (or 'auto')."
            )

    # shuffle tier: digest-only exchange, dropped-id set is dup-rate bound
    def _a_hashes(df: pd.DataFrame) -> pd.DataFrame:
        h = pd.Series(
            [hashlib.md5(t.encode()).hexdigest() for t in df[text_col]],
            dtype=object,
        )
        out = pd.DataFrame({"text_hash": h, id_col: df[id_col].values})
        out["__hbucket"] = (
            pd.util.hash_array(h.to_numpy()) % num_buckets
        ).astype("int64")
        return out

    def _b_hashes(df: pd.DataFrame) -> pd.DataFrame:
        out = _ref_hashes(df)
        out[id_col] = -1  # marker: reference side
        out["__hbucket"] = (
            pd.util.hash_array(out["text_hash"].to_numpy()) % num_buckets
        ).astype("int64")
        return out

    both = ds.map_batches(_a_hashes, batch_format="pandas").union(
        ref_ds.map_batches(_b_hashes, batch_format="pandas")
    )

    def _dropped(g: pd.DataFrame) -> pd.DataFrame:
        ref_h = g.loc[g[id_col] < 0, "text_hash"]
        hit = g[id_col] >= 0
        hit &= g["text_hash"].isin(pd.Index(ref_h))
        return pd.DataFrame({id_col: g.loc[hit, id_col].astype("int64")})

    dropped = both.groupby("__hbucket").map_groups(_dropped, batch_format="pandas")

    def _id_union(t: pa.Table) -> pa.Table:
        return t.group_by([id_col]).aggregate([])

    dropped_ref = coalesce_reduce(dropped, _id_union, materialize=False)

    def _id_index(t):
        if t is None or t.num_rows == 0:
            return None
        return pd.Index(t[id_col].to_pandas())

    def _keep(df: pd.DataFrame) -> pd.DataFrame:
        idx = (
            cached_build(dropped_ref, _id_index)
            if dropped_ref is not None else None
        )
        if idx is None:
            return df
        return df[idx.get_indexer(df[id_col].to_numpy()) < 0]

    return ds.map_batches(_keep, batch_format="pandas")


def cross_corpus_near_dup(
    ds,
    ref_ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    threshold: float = 0.5,
    k: int = 3,
    gram_hash: str = "md5",
    **minhash_kw,
):
    """Near-duplicate pairs ACROSS two corpora: ``(id_a ∈ ds, id_b ∈
    ref_ds, jaccard_e4)`` for every cross-corpus pair whose exact word-
    ``k``-gram Jaccard is >= ``threshold`` — the MinHash complement of
    :func:`cross_corpus_dedup`'s exact-text rule ("flag new-crawl docs
    that NEAR-match the held training corpus", the standard pre-training
    contamination/overlap pass when last year's crawl was lightly edited).

    Implementation: both sides fold into ONE disjoint id space
    (``xid = 2*id + side``) and the full :func:`minhash_lsh_pairs` chain
    runs over the tagged union with ``pair_scope="cross_parity"`` — pair
    expansion keeps only opposite-side bucket pairs. Signatures depend
    only on text, so banding the union is identical to banding each corpus
    separately, and every scale property of minhash_lsh_pairs carries
    over unchanged: signature-only exchange (~640 B/doc), candidate-bound
    exact verification, probe/shuffle wide-verify routing. Output ids are
    decoded back to their original spaces (``id_a`` is ALWAYS the ``ds``
    doc). Requires non-negative integer ids (the side bit lives in bit 0).

    To DROP the flagged ds-docs, anti-join ``ds`` against the distinct
    ``id_a`` column — dup-rate bound, the same dropped-id broadcast shape
    as cross_corpus_dedup's shuffle tier.
    """
    import pyarrow as pa
    import pyarrow.compute as pc

    def _tag(side: int):
        def _f(t: pa.Table) -> pa.Table:
            xid = pc.add(
                pc.multiply(pc.cast(t[id_col], pa.int64()), 2), side
            )
            return pa.table({id_col: xid, text_col: t[text_col]})

        return _f

    tagged = ds.map_batches(_tag(0), batch_format="pyarrow").union(
        ref_ds.map_batches(_tag(1), batch_format="pyarrow")
    )
    # max_bucket pinned unless the caller overrides: the union is a
    # DERIVED dataset, so minhash's "auto" probe would pay a full extra
    # tag pass just to pick the cap — and this operator's pair volume is
    # already cross-parity bound (the r4 10x drive ran uncapped)
    minhash_kw.setdefault("max_bucket", None)
    pairs = minhash_lsh_pairs(
        tagged,
        id_col=id_col,
        text_col=text_col,
        threshold=threshold,
        k=k,
        gram_hash=gram_hash,
        pair_scope="cross_parity",
        **minhash_kw,
    )

    def _decode(t: pa.Table) -> pa.Table:
        ia = t["id_a"].to_numpy(zero_copy_only=False)
        ib = t["id_b"].to_numpy(zero_copy_only=False)
        a_first = (ia & 1) == 0  # the even xid is the ds-side doc
        ax = np.where(a_first, ia, ib)
        bx = np.where(a_first, ib, ia)
        return pa.table(
            {
                "id_a": pa.array(ax // 2, pa.int64()),
                "id_b": pa.array(bx // 2, pa.int64()),
                "jaccard_e4": t["jaccard_e4"],
            }
        )

    return pairs.map_batches(_decode, batch_format="pyarrow")


def _num_rows(t) -> int:
    return 0 if t is None else t.num_rows


def _fold_gram_runs(files: list, hash_mode: bool, min_count: int) -> pa.Table:
    """``dup_span_scrub`` pass-1 fold: the grams of ``files``' (gram, n)
    runs whose summed n reaches ``min_count``."""
    import pyarrow.parquet as pq

    t = pa.concat_tables([pq.read_table(f) for f in files])
    if hash_mode:
        v = t["gram"].combine_chunks().to_numpy(zero_copy_only=False)
        n = t["n"].combine_chunks().to_numpy(zero_copy_only=False)
        order = np.argsort(v, kind="stable")
        sv, sn = v[order], n[order]
        if len(sv) == 0:
            return pa.table({"gram": pa.array([], pa.uint64())})
        new = np.ones(len(sv), bool)
        new[1:] = sv[1:] != sv[:-1]
        idx = np.nonzero(new)[0]
        sums = np.add.reduceat(sn, idx)
        return pa.table(
            {"gram": pa.array(sv[idx][sums >= min_count], pa.uint64())}
        )
    df = t.to_pandas()
    g = df.groupby("gram", as_index=False)["n"].sum()
    return pa.table(
        {"gram": pa.array(g.loc[g["n"] >= min_count, "gram"], pa.string())}
    )


def _merge_dup_grams(hash_mode: bool, *tbls):
    """``dup_span_scrub``'s dup-gram table: the folds' disjoint outputs as
    one distinct table (``None`` if all are empty)."""
    import pyarrow.compute as pc

    tbls = [t for t in tbls if t is not None and t.num_rows]
    if not tbls:
        return None
    merged = pa.concat_tables(tbls)
    if hash_mode:
        # SORTED dedup: the scrub probe is then a searchsorted
        # membership test against the plasma-backed buffer — zero
        # per-worker copy and no per-batch hash-set build, which is
        # what makes a corpus-bound dup table (the gram-dense worst
        # case) probe-able at all. Slots are disjoint, so this is a
        # sorted concat of already-distinct tables.
        vals = np.unique(
            merged["gram"].combine_chunks().to_numpy(zero_copy_only=False)
        )
        return pa.table({"gram": pa.array(vals, pa.uint64())})
    return pa.table({"gram": pc.unique(merged["gram"].combine_chunks())})


def dup_span_scrub(
    ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    k: int = 5,
    min_count: int = 2,
    gram_key: str = "exact",
    max_broadcast_rows: int = 100_000_000,
    num_shards: int = 16,
    scratch_dir: str | None = None,
    fold_budget_bytes: int = 2 << 30,
):
    """Exact duplicated-span REMOVAL (Lee et al. 2022, "Deduplicating
    Training Data Makes Language Models Better" — public method, at word-
    gram granularity): delete from every document each token covered by a
    word ``k``-gram occurring >= ``min_count`` times corpus-wide
    (multiplicity counted, within-doc self-repeats included). The removal
    complement of :func:`substring_dup_pairs`' flagging semantics. Emits
    ``(id, text, n_kept, n_removed)`` where ``text`` is the kept tokens
    re-joined with single spaces.

    Scale shape: pass 1 is an EXTERNAL-SORT count exchange — ONE corpus
    scan writes per-block ``(gram, n)`` ``value_counts`` partials as
    slot-sharded zstd parquet runs on scratch storage (``num_shards``
    slots by high hash bits), then memory-budgeted fold tasks
    (``fold_budget_bytes`` each, reserved via Ray's memory resource, run
    in parallel) stream the runs back, segment-sum counts in numpy C and
    keep the ``>= min_count`` survivors. The exchange never touches the
    object store, so there is no sort-shuffle transient spill (the
    round-4 serial-shard form existed to bound that spill and paid
    ``num_shards-1`` extra corpus passes for it) and run files are the
    compact 16 B/row form. The reduced table is the DUP-gram set
    (dup-rate bound, never corpus bound), merged in a remote task, then
    re-put through the driver as a driver-OWNED broadcast object (the
    repo's broadcast-artifact convention; one transient driver copy,
    bounded by ``max_broadcast_rows``) — a task-output ref would be
    lineage-reconstructed if lost mid-scrub, replaying folds against
    run files that are deleted as soon as the counts land.
    ``scratch_dir`` must be shared storage on a multi-node cluster. Pass 2 streams: each
    batch probes its gram windows with one ``is_in`` C kernel; span
    coverage is a +/-1 delta cumsum over the flat token array; kept text
    is rebuilt with ``ListArray.from_arrays`` + one ``binary_join`` — no
    per-row Python anywhere. ``gram_key="hash64"`` runs BOTH passes over
    64-bit rolling gram hashes (the decontaminate hash64 recipe — no
    gram-string materialization on either side; a 64-bit collision can
    only remove extra tokens, ~1e-11 odds over billions of windows;
    exact/hash64 parity is twin-tested at sf). The broadcast guard raises
    when the dup-gram table exceeds ``max_broadcast_rows`` — successors
    are the hash64 tier (8 B/gram) and a gram-shard scrub (ship hit
    window positions back through a doc-bucket shuffle).

    Reference analogue: the newest-capture-wins dedup family
    (``src/ocr/service.cpp`` duplicate handling) extended from whole-doc
    to intra-doc span granularity."""
    import ray
    import pyarrow as pa
    import pyarrow.compute as pc

    from ocr_suite_ray.stages._bcast import cached_build
    from ocr_suite_ray.stages.contamination import (
        _word_ngram_hash_windows,
        _word_ngram_windows,
    )
    from ocr_suite_ray.state.dupset import remote_fn

    if gram_key not in ("exact", "hash64"):
        raise ValueError(f"gram_key must be 'exact' or 'hash64', got {gram_key!r}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    hash_mode = gram_key == "hash64"

    def _gram_counts(t: pa.Table):
        """Per-block distinct grams + their within-block counts."""
        if hash_mode:
            _r, hs, _f, _o, _p = _word_ngram_hash_windows(t[text_col], k)
            vals, counts = np.unique(hs, return_counts=True)
            return pa.array(vals, pa.uint64()), counts.astype(np.int64)
        _r, grams, _f, _o, _p = _word_ngram_windows(t[text_col], k)
        vc = pc.value_counts(grams)
        vals = vc.field("values")
        if isinstance(vals, pa.ChunkedArray):
            vals = vals.combine_chunks()
        return vals, pc.cast(vc.field("counts"), pa.int64()).to_numpy()

    # Pass 1 — EXTERNAL-SORT count exchange (replaces the round-4 serial-
    # shard form, which paid num_shards-1 extra full-corpus gram passes
    # and still peaked at 98% box RAM):
    #
    # map: ONE corpus scan. Each block's per-block-distinct (gram, n)
    #   partial is written straight to slot-sharded zstd parquet RUN
    #   FILES on scratch storage (slot = high hash bits, ``num_shards``
    #   slots) — Ray's object store never holds the window-bound
    #   exchange, so there is no sort-shuffle transient spill to blow
    #   the disk (the 10x gram-dense corpus did, twice, at ~70 GB) and
    #   no plasma pressure. Heavy within-block dups need no separate
    #   pass/tree: their explicit n rides the same runs (n compresses to
    #   ~nothing under zstd RLE — it is almost always 1).
    # reduce: slots are grouped into memory-budgeted fold tasks
    #   (``fold_budget_bytes`` of in-memory gram data each, reserved via
    #   Ray's memory resource so concurrent folds can't oversubscribe
    #   the box). Each fold streams its runs back, segment-sums counts
    #   in numpy C, and emits only the >= min_count survivors — dup-rate
    #   bound. Folds run in PARALLEL; total extra corpus scans: zero.
    #
    # Cluster note: scratch_dir must be shared storage on a multi-node
    # cluster (the standard distributed external-sort contract); the
    # single-box default is /tmp.
    import tempfile
    import uuid

    n_slots = max(1, int(num_shards))
    run_root = os.path.join(
        scratch_dir or tempfile.gettempdir(),
        f"ocs_span_runs_{uuid.uuid4().hex}",
    )
    os.makedirs(run_root, exist_ok=True)

    def _write_runs(t: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq

        gram_arr, counts = _gram_counts(t)
        if hash_mode:
            hv = gram_arr.to_numpy(zero_copy_only=False)
        else:
            hv = pd.util.hash_array(
                gram_arr.to_pandas().to_numpy(dtype=object)
            )
        # high bits: independent of any low-bit use downstream
        slot = ((hv >> np.uint64(32)) % np.uint64(n_slots)).astype(np.int64)
        uid = uuid.uuid4().hex
        slots, paths, sizes, rows = [], [], [], []
        for s in np.unique(slot):
            sm = slot == s
            tbl = pa.table({
                "gram": gram_arr.filter(pa.array(sm)),
                "n": pa.array(counts[sm], pa.int64()),
            })
            p = os.path.join(run_root, f"run-{uid}-s{int(s):04d}.parquet")
            pq.write_table(tbl, p, compression="zstd")
            slots.append(int(s))
            paths.append(p)
            sizes.append(os.path.getsize(p))
            rows.append(tbl.num_rows)
        return pa.table({
            "slot": pa.array(slots, pa.int32()),
            "path": pa.array(paths, pa.string()),
            "bytes": pa.array(sizes, pa.int64()),
            "rows": pa.array(rows, pa.int64()),
        })

    def _schedule_folds(meta):
        fold_refs = []
        if not len(meta):
            return fold_refs
        per_slot = meta.groupby("slot").agg(
            rows=("rows", "sum"), bytes=("bytes", "sum")
        )
        files_by_slot = meta.groupby("slot")["path"].apply(list)
        group, cost = [], 0
        groups = []
        for s, r in per_slot.iterrows():
            # in-memory cost estimate: 16 B/row hash mode (gram+n),
            # ~6x compressed bytes for gram strings
            c = int(r["rows"] * 16) if hash_mode else int(r["bytes"] * 6)
            if group and cost + c > fold_budget_bytes:
                groups.append((group, cost))
                group, cost = [], 0
            group.append(int(s))
            cost += c
        if group:
            groups.append((group, cost))
        # A slot whose estimate alone exceeds the budget forms a lone
        # group; if its 5x reservation exceeds every node's memory the
        # fold task would pend FOREVER (no error, driver blocked in
        # ray.get) — fail loudly with the re-shard knob instead.
        try:
            cap = max(
                (n["Resources"].get("memory", 0.0)
                 for n in ray.nodes() if n.get("Alive")),
                default=0.0,
            )
        except Exception:
            cap = 0.0
        worst = max(est for _, est in groups)
        if cap and 5 * worst > 0.8 * cap:
            raise ValueError(
                f"dup_span_scrub fold infeasible: one slot group needs "
                f"~{5 * worst >> 20} MiB reserved but the largest node "
                f"offers {int(0.8 * cap) >> 20} MiB; raise num_shards "
                f"(currently {n_slots}) so slots shrink, or lower "
                "fold_budget_bytes"
            )
        for slot_group, est in groups:
            files = [f for s in slot_group for f in files_by_slot[s]]
            # reserve ~5x the data: concat + argsort index + two sorted
            # copies + parquet decode buffers measure ~4x, and the
            # reservation is what bounds CONCURRENT folds (3x admitted
            # ~10 on the 10x drive and peaked the box at 86% RAM)
            fold_refs.append(
                remote_fn(_fold_gram_runs)
                .options(memory=max(64 << 20, 5 * est))
                .remote(files, hash_mode, min_count)
            )
        return fold_refs

    try:
        # Pass 1 executes HERE (the to_pandas drains the corpus scan);
        # keeping it inside the try means a mid-scan failure still
        # removes the partially-written runs instead of leaking up to
        # ~tens of GB of scratch per failed attempt.
        meta = ds.map_batches(_write_runs, batch_format="pyarrow").to_pandas()
        fold_refs = _schedule_folds(meta)
        dup_ref = (
            remote_fn(_merge_dup_grams).remote(hash_mode, *fold_refs)
            if fold_refs else None
        )
        if dup_ref is not None:
            # Count in a task first: an over-budget table must raise
            # without ever reaching driver memory.
            n_dup = ray.get(remote_fn(_num_rows).remote(dup_ref))
            if n_dup > max_broadcast_rows:
                raise ValueError(
                    f"dup_span_scrub broadcast tier: {n_dup} dup grams "
                    f"exceed the {max_broadcast_rows}-row budget; use "
                    "gram_key='hash64' (8 B/gram) or shard the scrub by "
                    "gram bucket."
                )
            # Within budget: materialize on the driver and RE-PUT as a
            # driver-owned object. A task-output ref lost during the
            # (long) pass-2 scrub would be LINEAGE-reconstructed —
            # replaying _fold against run files this finally is about to
            # delete. ray.put objects recover from spill, never lineage,
            # so deleting the runs is safe.
            dup_ref = ray.put(ray.get(dup_ref)) if n_dup else None
    finally:
        # every fold was forced to completion above (the _num_rows count
        # task and the re-put's get consume their merge), so the runs are
        # dead weight now — and on failure they are abandoned work either
        # way
        import shutil

        shutil.rmtree(run_root, ignore_errors=True)

    def _value_set(tbl):
        if tbl is None or not tbl.num_rows:
            return None
        if hash_mode:
            # zero-copy view onto the plasma buffer, shared read-only
            # across every worker process on the node; sorted by
            # _merge_dups, so membership is one vectorized searchsorted
            return tbl["gram"].combine_chunks().to_numpy(zero_copy_only=True)
        return tbl["gram"].combine_chunks()

    def _scrub(t: pa.Table) -> pa.Table:
        vs = cached_build(dup_ref, _value_set) if dup_ref is not None else None
        if hash_mode:
            _r, hs, flat, off, wpos = _word_ngram_hash_windows(t[text_col], k)
            probe = hs
        else:
            _r, probe, flat, off, wpos = _word_ngram_windows(t[text_col], k)
        total = int(off[-1]) if len(off) else 0
        keep = np.ones(total, dtype=bool)
        if vs is not None and len(probe):
            if hash_mode:
                idx = np.minimum(np.searchsorted(vs, probe), len(vs) - 1)
                hit = vs[idx] == probe
            else:
                hit = pc.is_in(probe, value_set=vs).to_numpy(
                    zero_copy_only=False
                )
            hidx = wpos[np.nonzero(hit)[0]]
            if len(hidx):
                # windows never cross rows (validity rule), so hidx+k <= total
                delta = np.zeros(total + 1, np.int64)
                np.add.at(delta, hidx, 1)
                np.add.at(delta, hidx + k, -1)
                keep = np.cumsum(delta[:-1]) == 0
        kept_flat = flat.filter(pa.array(keep)) if total else flat
        kcs = np.concatenate(([0], np.cumsum(keep.astype(np.int64))))
        new_off = kcs[off]
        lst = pa.ListArray.from_arrays(
            pa.array(new_off, pa.int32()), kept_flat
        )
        out_text = pc.binary_join(lst, " ")
        n_tok = (off[1:] - off[:-1]).astype(np.int64)
        n_kept = (new_off[1:] - new_off[:-1]).astype(np.int64)
        return pa.table(
            {
                id_col: t[id_col],
                "text": out_text,
                "n_kept": pa.array(n_kept, pa.int64()),
                "n_removed": pa.array(n_tok - n_kept, pa.int64()),
            }
        )

    # batch_size caps the probe temporaries (window hashes + delta
    # cumsum are O(batch tokens)); windows never cross rows, so the
    # output is batch-size invariant — this is purely a RAM ceiling for
    # the gram-dense worst case (the 10x drive's 98% peak). num_cpus
    # slightly above 1 sheds a quarter of the concurrent scrub tasks:
    # the pass is memory-bus-bound on a full box (BASELINE.md control
    # experiment), so the wall barely moves while aggregate worker RSS —
    # the run's residual peak — drops below the 80% line.
    return ds.map_batches(
        _scrub, batch_format="pyarrow", batch_size=8192, num_cpus=1.35
    )


# ---------------------------------------------------------------------------
# exact n-gram Jaccard within a blocking key
# ---------------------------------------------------------------------------

def ngram_jaccard_pairs(
    ds,
    block_col: str = "source",
    id_col: str = "doc_id",
    text_col: str = "text",
    threshold_e4: int = 1000,
    k: int = 3,
    gram_hash: str = "exact",
):
    """All-pairs word-k-gram Jaccard inside each blocking group; emits
    (id_a < id_b, jaccard_e4 >= threshold). The blocking column bounds the
    quadratic term; for unblocked corpora use minhash_lsh_pairs.

    ``gram_hash="exact"`` (default, the SQL-oracle path) builds each doc's
    distinct gram-STRING set and intersects Python sets — exact but
    ~1.5 ms/doc of gram building plus ~10 us per pair at 10M-doc scale.
    ``gram_hash="fast"`` (the 100 TB path) computes 64-bit gram hashes per
    group in one vectorized :func:`_fast_gram_hashes` pass and intersects
    per-doc SORTED hash arrays with ``np.searchsorted`` — C kernels
    throughout. A 64-bit collision between two distinct grams of one doc
    pair perturbs that pair's jaccard_e4 by ~1/|union| with probability
    ~|a||b|/2^64 (~1e-14 for 400-gram docs); equal grams always hash
    equal, so fast-mode jaccard is never an undercount."""

    def _pairs_exact(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(id_col)
        ids = g[id_col].tolist()
        shs = [set(_distinct_word_kgrams(t, k)) for t in g[text_col]]
        rows = []
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                jac = jaccard(shs[i], shs[j])
                e4 = int(np.floor(jac * 10000 + 0.5))
                if e4 >= threshold_e4:
                    rows.append((ids[i], ids[j], e4))
        return pd.DataFrame(rows, columns=["id_a", "id_b", "jaccard_e4"]).astype(
            {"id_a": "int64", "id_b": "int64", "jaccard_e4": "int64"}
        )

    def _pairs_fast(g: pd.DataFrame) -> pd.DataFrame:
        import pyarrow as pa

        g = g.sort_values(id_col)
        ids = g[id_col].to_numpy()
        n = len(ids)
        row_idx, occ_h = _fast_gram_hashes(
            pa.array(g[text_col].tolist(), pa.string()), k
        )
        # per-row distinct, hash-sorted within row: lexsort + adjacent mask
        ordc = np.lexsort((occ_h, row_idx))
        row_idx, occ_h = row_idx[ordc], occ_h[ordc]
        if len(row_idx):
            keep = np.ones(len(row_idx), dtype=bool)
            keep[1:] = (row_idx[1:] != row_idx[:-1]) | (occ_h[1:] != occ_h[:-1])
            row_idx, occ_h = row_idx[keep], occ_h[keep]
        starts = np.searchsorted(row_idx, np.arange(n))
        ends = np.searchsorted(row_idx, np.arange(n), side="right")
        sets = [occ_h[s:e] for s, e in zip(starts, ends)]
        ra, rb, re4 = [], [], []
        for i in range(n):
            a = sets[i]
            for j in range(i + 1, n):
                b = sets[j]
                if len(a) == 0 and len(b) == 0:
                    e4 = 10000
                else:
                    sm, lg = (a, b) if len(a) <= len(b) else (b, a)
                    pos = np.searchsorted(lg, sm)
                    pos[pos == len(lg)] = 0
                    inter = int((lg[pos] == sm).sum())
                    e4 = int(
                        np.floor(
                            inter / (len(a) + len(b) - inter) * 10000 + 0.5
                        )
                    )
                if e4 >= threshold_e4:
                    ra.append(ids[i])
                    rb.append(ids[j])
                    re4.append(e4)
        return pd.DataFrame(
            {
                "id_a": pd.Series(ra, dtype="int64"),
                "id_b": pd.Series(rb, dtype="int64"),
                "jaccard_e4": pd.Series(re4, dtype="int64"),
            }
        )

    if gram_hash not in ("exact", "fast"):
        raise ValueError(f"gram_hash must be 'exact' or 'fast', got {gram_hash!r}")
    fn = _pairs_fast if gram_hash == "fast" else _pairs_exact
    return ds.groupby(block_col).map_groups(fn, batch_format="pandas")


def _distinct_word_kgrams(text: str, k: int) -> set:
    words = text.split(" ")
    if len(words) < k:
        return {" ".join(words)}
    return {" ".join(words[i : i + k]) for i in range(len(words) - k + 1)}


# ---------------------------------------------------------------------------
# MinHash + LSH
# ---------------------------------------------------------------------------

def signature_band_rows(
    df: pd.DataFrame,
    id_col: str = "doc_id",
    text_col: str = "text",
    k: int = 3,
    gram_hash: str = "md5",
    n_shards: int = 64,
) -> pd.DataFrame:
    """Batched MinHash signature + LSH banding kernel: one block of docs in,
    ``(id, key, shard)`` rows out (LSH_BANDS rows per doc). ``key`` folds
    (band, band_hash) into one int64 — bucket identity for the downstream
    groupby — so the ONE banding exchange carries 20 B/row instead of the
    24 B of separate (band:int32, band_hash:int64) columns and the bucket
    groupby is single-key. Cross-(band, hash) key collisions can only ADD
    candidate pairs (same argument as ``_band_hashes`` collisions: equal
    buckets always fold equal), and every candidate is exact-verified.

    ``gram_hash="md5"`` is bit-identical to the scalar
    ``_minhash_sig(_shingles(t))`` path (equivalence unit-tested): one
    vectorized gram build per block, md5 only per DISTINCT gram with a
    per-worker memo, then the (a*h+b) mod p minima via chunked uint64
    matrix math + ``np.minimum.reduceat`` over row offsets.
    ``gram_hash="fast"`` skips gram-string materialization entirely
    (:func:`_fast_gram_hashes`). Band hashes are one vectorized
    :func:`_band_hashes` pass either way. The round-3 10M-doc drive
    measured the per-doc Python loop this kernel replaced at ~1.5-2 ms/doc
    (~10 min of the wall)."""
    import pyarrow as _pa

    if gram_hash not in ("md5", "fast"):
        raise ValueError(f"gram_hash must be 'md5' or 'fast', got {gram_hash!r}")
    texts = _pa.array(df[text_col].tolist(), _pa.string())
    n_rows = len(texts)
    if gram_hash == "fast":
        row_idx, occ_h = _fast_gram_hashes(texts, k)
        # per-row DISTINCT grams before the perm math (minima are set
        # semantics); lexsort + adjacent-dup mask, no string round-trip
        ordc = np.lexsort((occ_h, row_idx))
        row_idx, occ_h = row_idx[ordc], occ_h[ordc]
        if len(row_idx):
            keep = np.ones(len(row_idx), dtype=bool)
            keep[1:] = (row_idx[1:] != row_idx[:-1]) | (
                occ_h[1:] != occ_h[:-1]
            )
            row_idx, occ_h = row_idx[keep], occ_h[keep]
    else:
        from ocr_suite_ray.stages.contamination import _word_ngrams

        row_idx, grams = _word_ngrams(texts, k)
        # rows with < k words contribute their whole text as the one
        # gram (matching _shingles)
        have = np.zeros(n_rows, dtype=bool)
        have[row_idx] = True
        missing = np.flatnonzero(~have)
        if len(missing):
            row_idx = np.concatenate([row_idx, missing])
            grams = _pa.concat_arrays(
                [grams.combine_chunks() if isinstance(grams, _pa.ChunkedArray) else grams,
                 texts.take(_pa.array(missing, _pa.int64()))]
            )
        order = np.argsort(row_idx, kind="stable")
        row_idx = row_idx[order]
        enc = grams.take(_pa.array(order, _pa.int64())).dictionary_encode()
        dict_strs = enc.dictionary.to_pylist()
        memo = _GRAM_HASH_MEMO
        if len(memo) > 4_000_000:
            memo.clear()  # bound worker heap; memo is a pure cache
        hv_dict = np.empty(len(dict_strs), dtype=np.uint64)
        for di, g in enumerate(dict_strs):
            h = memo.get(g)
            if h is None:
                h = int.from_bytes(hashlib.md5(g.encode()).digest()[8:16], "little")
                memo[g] = h
            hv_dict[di] = h
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        # per-row DISTINCT grams before the perm math (signature minima
        # are set semantics — duplicates never change a min): cuts the
        # matrix width ~3x on repetitive text
        comp = np.unique(row_idx * np.int64(len(dict_strs)) + codes)
        row_idx = comp // np.int64(len(dict_strs))
        codes = comp % np.int64(len(dict_strs))
        occ_h = hv_dict[codes]
    counts = np.bincount(row_idx, minlength=n_rows)
    offsets = np.concatenate(([0], np.cumsum(counts)))[:-1]
    # perm values per block-DISTINCT gram hash, then a gather per
    # occurrence: real web text repeats grams heavily across (not just
    # within) docs, so the multiply+mod runs over ~4.5x fewer elements and
    # the per-perm temporaries stay L2-sized instead of a (16, n_occ)
    # broadcast allocation. Round-4 profile on a real 10M-corpus block:
    # 5.9 s -> 0.99 s, bit-identical output.
    uh, inv = np.unique(occ_h, return_inverse=True)
    sig = np.empty((NUM_PERM, n_rows), dtype=np.uint64)
    pv = np.empty(len(uh), np.uint64)
    buf = np.empty(len(inv), np.uint64)
    for p in range(NUM_PERM):
        np.multiply(uh, _PERM_A[p], out=pv)
        pv += _PERM_B[p]
        pv %= np.uint64(_MERSENNE)
        np.take(pv, inv, out=buf)
        sig[p] = np.minimum.reduceat(buf, offsets)
    sig_rows = np.ascontiguousarray(sig.T)  # (n_rows, 128), scalar layout
    band_flat = sig_rows.reshape(n_rows * LSH_BANDS, ROWS_PER_BAND)
    hv = _band_hashes(band_flat)  # one vectorized pass, no per-row loop
    ids = np.repeat(df[id_col].to_numpy(), LSH_BANDS)
    bv = np.tile(np.arange(LSH_BANDS, dtype=np.uint64), n_rows)
    key = hv * np.uint64(0x9E3779B97F4A7C15) + bv
    # coarse co-location key: ONE map_groups call per shard, not per
    # bucket (a per-bucket UDF call is ~0.1 ms of pandas overhead x one
    # call per bucket — the corpus has ~32 buckets/doc, so per-bucket
    # dispatch dominated the round-1 wall time)
    shard = (key % np.uint64(n_shards)).astype(np.int32)
    return pd.DataFrame(
        {
            id_col: pd.Series(ids, dtype="int64"),
            "key": pd.Series(key.view(np.int64)),
            "shard": shard,
        }
    )


def _verify_gram_blobs(ba, bb, ids_a, ids_b, threshold: float):
    """Exact Jaccard over packed sorted-uint64 gram blobs, one row per
    candidate pair; emits only pairs at/above threshold. Shared by both
    wide-verify routes."""
    import pyarrow as pa

    ka, kb, je = [], [], []
    for i in range(len(ba)):
        a = np.frombuffer(ba[i], np.uint64)
        b = np.frombuffer(bb[i], np.uint64)
        if len(a) == 0 and len(b) == 0:
            jac = 1.0
        else:
            inter = np.intersect1d(a, b, assume_unique=True).size
            jac = inter / (len(a) + len(b) - inter)
        if jac >= threshold:
            ka.append(ids_a[i])
            kb.append(ids_b[i])
            je.append(int(np.floor(jac * 10000 + 0.5)))
    return pa.table(
        {
            "id_a": pa.array(ka, pa.int64()),
            "id_b": pa.array(kb, pa.int64()),
            "jaccard_e4": pa.array(je, pa.int64()),
        }
    )


class _ProbeVerifier:
    """Actor-pool wide-verify kernel: the gram table stays in the object
    store (zero-copy plasma reads on this node; at most one fetch per node
    on a cluster — broadcast-join traffic) and NEVER shuffles. ``__init__``
    builds a sorted doc-id -> (block, row) index ONCE per actor; per batch
    the lookup is two ``np.searchsorted`` probes + blob gathers, so
    per-batch cost is O(batch), independent of gram-table size. (The
    earlier form re-hash-joined every gram block against every batch —
    O(batch_count x gram_bytes) scan traffic, which is what made the probe
    budget a scan-cost bound rather than the plasma-footprint bound it is
    now.) Heap per actor is only the index arrays (~20 B per candidate
    doc); blob bytes are materialized per batch, for the batch."""

    def __init__(self, refs, threshold: float) -> None:
        import ray

        # ONE batched get: on a multi-node cluster a per-ref loop is
        # len(refs) serial round-trips per pool actor before the first
        # batch verifies; the list form fetches blocks concurrently
        blocks = [
            g for g in ray.get(list(refs)) if g is not None and g.num_rows > 0
        ]
        if blocks:
            ids = np.concatenate(
                [b["__doc"].to_numpy(zero_copy_only=False) for b in blocks]
            )
            blk = np.concatenate(
                [np.full(b.num_rows, i, np.int32) for i, b in enumerate(blocks)]
            )
            row = np.concatenate(
                [np.arange(b.num_rows, dtype=np.int64) for b in blocks]
            )
            order = np.argsort(ids, kind="stable")
            self._ids = ids[order]
            self._blk = blk[order]
            self._row = row[order]
        else:
            self._ids = np.empty(0, np.int64)
            self._blk = np.empty(0, np.int32)
            self._row = np.empty(0, np.int64)
        self._grams = [b["grams"] for b in blocks]  # ChunkedArrays, plasma-backed
        self._threshold = threshold

    def _lookup(self, keys: np.ndarray):
        if len(self._ids) == 0:
            return np.zeros(len(keys), bool), np.zeros(len(keys), np.int64)
        pos = np.searchsorted(self._ids, keys)
        pos = np.minimum(pos, len(self._ids) - 1)
        return self._ids[pos] == keys, pos

    def _gather(self, pos: np.ndarray) -> list:
        blk, row, grams = self._blk, self._row, self._grams
        return [grams[blk[p]][row[p]].as_py() for p in pos]

    def __call__(self, t):
        ids_a = t["id_a"].to_numpy(zero_copy_only=False)
        ids_b = t["id_b"].to_numpy(zero_copy_only=False)
        fa, pa_pos = self._lookup(ids_a)
        fb, pb_pos = self._lookup(ids_b)
        keep = fa & fb
        if not keep.any():
            return _verify_gram_blobs([], [], [], [], self._threshold)
        return _verify_gram_blobs(
            self._gather(pa_pos[keep]),
            self._gather(pb_pos[keep]),
            ids_a[keep],
            ids_b[keep],
            self._threshold,
        )


# auto-route boundary for minhash_lsh_pairs: at/below this many docs the
# md5-parity kernel finishes comfortably (sf oracles, unit corpora); above
# it the scale tier (fast grams + bucket cap) is the only shape that
# completed the 10M-doc drive inside budget (BASELINE.md round 4)
_MINHASH_AUTO_MD5_LIMIT = 2_000_000


def _cand_ids(t):
    """The distinct doc ids of a candidate-pair table (``None`` if none)."""
    import pyarrow.compute as pc

    if t is None:
        return None
    return pc.unique(
        pa.concat_arrays([t["id_a"].combine_chunks(), t["id_b"].combine_chunks()])
    )


def _verify_all_pairs(threshold: float, cand_t, sh_t):
    """``minhash_lsh_pairs``' narrow verify: the exact Jaccard of every
    candidate pair in ``cand_t`` from the packed shingle sets of ``sh_t``,
    the pairs at or above ``threshold``."""
    if cand_t is None or sh_t is None:
        return pa.table(
            {
                "id_a": pa.array([], pa.int64()),
                "id_b": pa.array([], pa.int64()),
                "jaccard_e4": pa.array([], pa.int64()),
            }
        )
    by_id = dict(zip(sh_t["__doc"].to_pylist(), sh_t["grams"].to_pylist()))
    ia, ib, je = [], [], []
    for a, b in zip(cand_t["id_a"].to_pylist(), cand_t["id_b"].to_pylist()):
        sa, sb = by_id.get(a), by_id.get(b)
        if sa is None or sb is None:
            continue
        va = np.frombuffer(sa, np.uint64)
        vb = np.frombuffer(sb, np.uint64)
        if len(va) == 0 and len(vb) == 0:
            jac = 1.0
        else:
            inter = np.intersect1d(va, vb, assume_unique=True).size
            jac = inter / (len(va) + len(vb) - inter)
        if jac >= threshold:
            ia.append(a)
            ib.append(b)
            je.append(int(np.floor(jac * 10000 + 0.5)))
    return pa.table(
        {
            "id_a": pa.array(ia, pa.int64()),
            "id_b": pa.array(ib, pa.int64()),
            "jaccard_e4": pa.array(je, pa.int64()),
        }
    )


def _split_blocks(t, rows_per_block: int):
    """``t`` as slices of ``rows_per_block`` rows, one return each."""
    for s in range(0, t.num_rows, rows_per_block):
        yield t.slice(s, rows_per_block)


def minhash_lsh_pairs(
    ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    threshold: float = 0.5,
    k: int = 3,
    num_partitions: int = 16,
    narrow_verify_limit: int = 200_000,
    max_bucket: int | None | str = "auto",
    gram_hash: str = "auto",
    wide_verify: str = "auto",
    probe_budget_bytes: int = 24 << 30,
    pair_scope: str = "all",
):
    """Candidate pairs via LSH banding, verified with exact shingle Jaccard.

    The exchange carries NO text: (1) per-batch signatures (numpy), exploded
    to (band, band_hash:int64, id) rows — 20 bytes per band row, so the ONE
    banding shuffle moves ~640 B/doc (round 1 carried the full document text
    x32 bands: a 3,200-TB exchange at 100 TB corpus scale); (2) per-bucket
    candidate PAIRS of ids, deduped across bands inside a narrow remote tree
    (candidate-bound — no second shuffle); (3) exact verification on the
    candidate subset only: the candidate doc-id set is broadcast (object
    store, dup-rate bound) and a second streaming pass over the input
    computes the candidate docs' shingle sets — no full-corpus shuffle.
    Verification itself is candidate-bound: below ``narrow_verify_limit``
    pairs, one remote task verifies all pairs against the tree-merged
    shingle table; above it, a distributed join + per-pair groupby does the
    same with no single-task bound. No false positives (verified exactly),
    recall identical to the text-carrying version (same banding), results
    independent of partitioning.

    ``gram_hash`` selects the shingle hash family:

    - ``"auto"`` (default): SIZE-ROUTED, the ``cross_corpus_dedup`` tier
      pattern — corpora at or below ``_MINHASH_AUTO_MD5_LIMIT`` docs run
      the md5-parity kernel uncapped (identical to the SQL oracle), and
      larger corpora take the scale tier (``"fast"`` grams +
      ``max_bucket=1000``) that the round-4 10M-doc drive needed explicit
      flags for. The probe is ``ds.count()`` — metadata-only for
      parquet-backed inputs; derived inputs pay one extra pass, so
      composing pipelines (curate/pretrain) pass the flags explicitly.
    - ``"md5"``: low-8-bytes-of-md5 per gram — DuckDB's
      ``md5_number_lower``, so the FULL chain carries a value-hash SQL
      oracle. Cost: every gram string must be materialized and the
      distinct ones md5-ed (~5.2 s per 10M-scale block, the round-3
      profile's irreducible parity cost).
    - ``"fast"``: md5-free engine path (:func:`_fast_gram_hashes`) — no
      gram strings exist at all; window hashes are a vectorized rolling
      combine of per-token hashes. Same MinHash estimator (any uniform
      64-bit family is valid), statistically identical recall, byte-
      different candidate sets — so no SQL twin; verification stays EXACT
      (md5 shingle Jaccard), so false positives remain impossible. This
      is the 100 TB path: the round-4 10M-doc drive is recorded in
      BASELINE.md.
    """
    import ray
    import ray.data as rd
    import pyarrow as pa
    import pyarrow.compute as pc

    from ocr_suite_ray.state.dupset import coalesce_reduce, remote_fn

    # fail fast on typos: an unknown value would otherwise silently take the
    # md5 / shuffle route, whose 10x failure modes (blown signature budget,
    # object-store exhaustion) are exactly what these flags exist to avoid
    if gram_hash not in ("auto", "md5", "fast"):
        raise ValueError(
            f"gram_hash must be 'auto', 'md5' or 'fast', got {gram_hash!r}"
        )
    if gram_hash == "auto" or max_bucket == "auto":
        n_docs = ds.count()
        small = n_docs <= _MINHASH_AUTO_MD5_LIMIT
        if gram_hash == "auto":
            gram_hash = "md5" if small else "fast"
        if max_bucket == "auto":
            max_bucket = None if small else 1000
    if wide_verify not in ("auto", "probe", "shuffle"):
        raise ValueError(
            f"wide_verify must be 'auto', 'probe' or 'shuffle', got {wide_verify!r}"
        )
    if pair_scope not in ("all", "cross_parity"):
        raise ValueError(
            f"pair_scope must be 'all' or 'cross_parity', got {pair_scope!r}"
        )

    _empty_pairs = pd.DataFrame(
        {"id_a": pd.Series(dtype="int64"), "id_b": pd.Series(dtype="int64")}
    )
    _empty_out = pd.DataFrame(
        {
            "id_a": pd.Series(dtype="int64"),
            "id_b": pd.Series(dtype="int64"),
            "jaccard_e4": pd.Series(dtype="int64"),
        }
    )

    n_shards = 64

    def _band_rows(df: pd.DataFrame) -> pd.DataFrame:
        return signature_band_rows(
            df, id_col=id_col, text_col=text_col, k=k,
            gram_hash=gram_hash, n_shards=n_shards,
        )

    # batch_size pinned at 1024: the signature kernel's perm math runs per
    # block-DISTINCT gram hash, and its speed rests on those temporaries
    # staying cache-sized — at ~1k docs/batch the distinct-gram array is
    # ~400k entries (~3 MB, L3-resident; 0.58 ms/doc), while a whole 50k-row
    # block makes it ~19M entries (~150 MB) and 2.3x slower per doc
    # (measured on the 10M corpus — the round-4 drive's first stall)
    exploded = ds.map_batches(_band_rows, batch_format="pandas", batch_size=1024)

    def _shard_cand(g: pd.DataFrame) -> pd.DataFrame:
        # vectorized singleton elimination: only buckets holding >= 2 docs
        # (the rare case) reach pair expansion
        g = g.drop_duplicates(subset=["key", id_col])
        sizes = g.groupby("key")[id_col].transform("size")
        multi = g[sizes.to_numpy() > 1]
        if max_bucket is not None:
            # pairing is quadratic per bucket; a band bucket holding
            # thousands of docs means mass near-identical duplicates (run
            # exact/cluster dedup first) and would explode the candidate
            # set — the standard LSH cap (cf. Spark MinHashLSH) skips such
            # buckets. The "auto" route resolves this to None at sf-oracle
            # scale (engine and DuckDB enumerate identical pair sets) and
            # to 1000 past the md5 limit.
            sz = multi.groupby("key")[id_col].transform("size")
            multi = multi[sz.to_numpy() <= max_bucket]
        if multi.empty:
            return _empty_pairs
        # vectorized i<j expansion: rows sorted (key, id) so each row pairs
        # with every LATER row of its bucket — no Python loop over pairs
        m = multi.sort_values(["key", id_col], kind="mergesort")
        keys = m["key"].to_numpy()
        ids = m[id_col].to_numpy()
        n = len(m)
        new = np.ones(n, dtype=bool)
        new[1:] = keys[1:] != keys[:-1]
        i_idx, j_idx = _pair_indices_within_groups(new)
        if pair_scope == "cross_parity":
            # cross-corpus mode (see cross_corpus_near_dup): ids carry the
            # side in their low bit; keep only opposite-side pairs
            m_cross = ((ids[i_idx] ^ ids[j_idx]) & 1).astype(bool)
            i_idx, j_idx = i_idx[m_cross], j_idx[m_cross]
        return pd.DataFrame(
            {
                "id_a": pd.Series(ids[i_idx], dtype="int64"),
                "id_b": pd.Series(ids[j_idx], dtype="int64"),
            }
        )

    cand = exploded.groupby("shard").map_groups(_shard_cand, batch_format="pandas")

    # one candidate table in the object store (candidate-bound, never driver);
    # the same pair surfaces from many bands — dedup inside the tree merge
    # (sorted: deterministic regardless of block arrival order)
    def _dedup_pairs(t: pa.Table) -> pa.Table:
        t = t.group_by(["id_a", "id_b"]).aggregate([]).combine_chunks()
        return t.take(
            pc.sort_indices(
                t, sort_keys=[("id_a", "ascending"), ("id_b", "ascending")]
            )
        )

    cand_ref = coalesce_reduce(cand, _dedup_pairs, materialize=False)

    ids_box = [remote_fn(_cand_ids).remote(cand_ref)]
    n_cand = ray.get(remote_fn(_num_rows).remote(cand_ref))
    if n_cand == 0:
        return rd.from_pandas(_empty_out)

    # second streaming pass: candidate docs' text only (no full-corpus shuffle)
    def _filter_cand(t: pa.Table) -> pa.Table:
        ids = ray.get(ids_box[0])
        t = t.select([id_col, text_col])
        return t.filter(pc.is_in(t[id_col], value_set=ids)).rename_columns(
            ["__doc", text_col]
        )

    docs_c = ds.map_batches(_filter_cand, batch_format="pyarrow")

    # shingle sets computed ONCE per candidate doc — shared by both verify
    # routes. Packed as sorted uint64 LE blobs (large_binary), not
    # large_list: Arrow's hash join rejects list payload columns, and a
    # np.frombuffer unpack is zero-copy either way.
    def _shingle_rows(t: pa.Table) -> pa.Table:
        texts = t[text_col].to_pylist()
        grams = [
            np.fromiter(sorted(s), np.uint64, len(s)).tobytes()
            for s in (_shingles(x, k) for x in texts)
        ]
        return pa.table(
            {
                "__doc": t["__doc"],
                "grams": pa.array(grams, pa.binary()),
            }
        )

    if n_cand <= narrow_verify_limit:
        # narrow verify: shingle sets for candidate docs merged in the tree,
        # all pairs checked in ONE remote task — zero additional shuffles
        sh_ref = coalesce_reduce(
            docs_c.map_batches(_shingle_rows, batch_format="pyarrow"),
            lambda t: t,
            materialize=False,
        )

        return rd.from_arrow_refs(
            [remote_fn(_verify_all_pairs).remote(threshold, cand_ref, sh_ref)]
        )

    # wide verify (above narrow_verify_limit): grams are computed ONCE per
    # candidate doc, then TWO bucket-shuffled map-side joins attach each
    # side's packed gram blob to its pairs, and one vectorized map_batches
    # computes exact Jaccard via sorted-array intersection. Replaces the
    # round-3 shape — a text-carrying Dataset.join followed by one pandas
    # map_groups call PER PAIR that re-shingled each doc once per pair it
    # appeared in — which dominated the 10M-doc drive's wall (and OOMed
    # its 16 text-carrying join partitions). ``Dataset.join`` itself is
    # deliberately avoided here: partitions that receive zero rows of one
    # side emit schema-less empty blocks in Ray 2.49, which crash any
    # downstream keyed op (sparse candidate sets make that the common
    # case) — the bucket groupby + per-partition pandas C merge is the
    # repo's standard grouped_reduce_c shape and handles empty partitions.
    # Requires ``id_col`` values to be unique (duplicate ids would fan the
    # merges out). The gram table is MATERIALIZED once (object store,
    # spillable — candidate-bound, never corpus-bound): both routes read
    # it, and materializing halves the verify phase's corpus passes.
    #
    # TWO routes, auto-selected by the gram table's byte size:
    #
    # - "probe" (gram table within ``probe_budget_bytes``): pair batches
    #   stream through an actor pool that builds a sorted id->(block,row)
    #   index once per actor and gathers blobs per batch — zero-copy
    #   plasma reads, the BLOBS NEVER SHUFFLE, per-batch cost O(batch).
    #   On a cluster this is broadcast-join traffic (gram table fetched
    #   at most once per node), so the budget bounds PER-NODE PLASMA
    #   FOOTPRINT, not scan cost. The 10M drive measured the alternative
    #   — shuffling ~6-16 GB of blobs through two sort exchanges — as an
    #   object-store + spill-disk exhaustion (raylet SEGV mid-spill).
    # - "shuffle" (beyond the budget): bucket-shuffled map-side joins
    #   (union + groupby(part) + per-partition pandas C merge), pairs
    #   chunk-able, each round materialized so no two barriers share one
    #   streaming plan (chained union+sort plans deadlocked the
    #   executor's reservation backpressure at 10M — 0 running tasks,
    #   every operator [backpressured]).
    gram_mat = docs_c.map_batches(_shingle_rows, batch_format="pyarrow").materialize()
    bundles = list(gram_mat.iter_internal_ref_bundles())
    gram_refs = [r for b in bundles for r in b.block_refs]
    try:
        gram_bytes = int(sum(b.size_bytes() for b in bundles))
    except TypeError:
        gram_bytes = int(sum(b.size_bytes for b in bundles))

    # the deduped candidate table is ONE object — split it into blocks
    # before the verify stage, else Ray Data hands the whole block to a
    # single pool actor (block = task granularity) and the verify runs
    # serially no matter the pool size (the first completed 10M drive
    # spent its verify phase on one core this way)
    block_rows = max(16_384, n_cand // 128 + 1)
    split = remote_fn(_split_blocks).options(num_returns="dynamic")
    pair_refs = list(ray.get(split.remote(cand_ref, block_rows)))
    pairs_ds = rd.from_arrow_refs(pair_refs)
    route = wide_verify
    if route == "auto":
        route = "probe" if gram_bytes <= probe_budget_bytes else "shuffle"

    if route == "probe":
        return pairs_ds.map_batches(
            _ProbeVerifier,
            fn_constructor_kwargs={"refs": gram_refs, "threshold": threshold},
            batch_format="pyarrow",
            batch_size=16_384,
            concurrency=(1, 16),
            num_cpus=1,
        )

    gram_ds = rd.from_arrow_refs(gram_refs)
    n_parts = int(min(400, max(num_partitions, n_cand // 20_000 + 1)))

    def _attach(pairs, key_name: str, out_name: str, extra: list):
        """Bucket-join ``gram_ds`` onto ``pairs`` by ``key_name``: union the
        two sides under one schema tagged with a hash bucket of the key,
        then ONE groupby(part) + per-partition pandas merge (C kernel)."""

        def _tag_pairs(t: pa.Table) -> pa.Table:
            keys = t[key_name].to_numpy(zero_copy_only=False)
            cols = {
                "part": pa.array(
                    pd.util.hash_array(keys.astype(np.int64)) % n_parts,
                    pa.int32(),
                ),
                "key": pa.array(keys, pa.int64()),
                "id_a": t["id_a"],
                "id_b": t["id_b"],
                "grams": pa.nulls(t.num_rows, pa.binary()),
                "role": pa.array(np.zeros(t.num_rows, np.int8), pa.int8()),
            }
            for nm in extra:
                cols[nm] = pc.cast(t[nm], pa.binary())
            return pa.table(cols)

        def _tag_grams(t: pa.Table, extra: list) -> pa.Table:
            keys = t["__doc"].to_numpy(zero_copy_only=False)
            z = pa.array(np.zeros(t.num_rows, np.int64), pa.int64())
            cols = {
                "part": pa.array(
                    pd.util.hash_array(keys.astype(np.int64)) % n_parts,
                    pa.int32(),
                ),
                "key": pa.array(keys, pa.int64()),
                "id_a": z,
                "id_b": z,
                "grams": t["grams"],
                "role": pa.array(np.ones(t.num_rows, np.int8), pa.int8()),
            }
            for nm in extra:
                cols[nm] = pa.nulls(t.num_rows, pa.binary())
            return pa.table(cols)

        tagged = pairs.map_batches(_tag_pairs, batch_format="pyarrow").union(
            gram_ds.map_batches(
                lambda t: _tag_grams(t, extra), batch_format="pyarrow"
            )
        )

        def _merge_part(g: pd.DataFrame) -> pa.Table:
            gr = g[g["role"].to_numpy() == 1][["key", "grams"]]
            pr = g[g["role"].to_numpy() == 0].drop(columns=["grams", "role", "part"])
            m = pr.merge(gr, on="key", how="inner").drop(columns=["key"])
            m = m.rename(columns={"grams": out_name})
            # typed Arrow out (Ray's pandas block sizing chokes on empty
            # object columns, and explicit types keep every block's schema
            # identical for the next shuffle)
            return pa.table(
                {
                    "id_a": pa.array(m["id_a"].to_numpy(np.int64, copy=False)),
                    "id_b": pa.array(m["id_b"].to_numpy(np.int64, copy=False)),
                    **{
                        nm: pa.array(m[nm].tolist(), pa.binary())
                        for nm in m.columns
                        if nm.startswith("grams")
                    },
                }
            )

        return tagged.groupby("part").map_groups(_merge_part, batch_format="pandas")

    j1 = _attach(pairs_ds, "id_a", "grams_a", extra=[]).materialize()
    j2 = _attach(j1, "id_b", "grams", extra=["grams_a"])

    def _verify_batch(t: pa.Table) -> pa.Table:
        return _verify_gram_blobs(
            t["grams_a"].to_pylist(),
            t["grams"].to_pylist(),
            t["id_a"].to_numpy(zero_copy_only=False),
            t["id_b"].to_numpy(zero_copy_only=False),
            threshold,
        )

    return j2.map_batches(_verify_batch, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------

def simhash64(text: str) -> int:
    """Classic 64-bit SimHash over whitespace tokens (weight 1 each).
    Scalar reference — the differential oracle for ``simhash64_batch``.

    Token hash: low 8 digest bytes of md5, little-endian — exactly DuckDB's
    ``md5_number_lower``, which makes the whole simhash SQL-expressible (the
    ``simhash_table`` query carries a full value-hash DuckDB oracle)."""
    acc = np.zeros(64, dtype=np.int64)
    for w in text.split(" "):
        h = int.from_bytes(hashlib.md5(w.encode()).digest()[8:16], "little")
        bits = (h >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
        acc += np.where(bits.astype(bool), 1, -1)
    out = 0
    for b in range(64):
        if acc[b] > 0:
            out |= 1 << b
    return out


# per-worker token-hash memo: web-corpus tokens are Zipfian, so the cache
# absorbs almost every md5 call after warmup; bounded to keep worker
# heaps flat (clear-on-full is simpler and nearly as good as LRU here)
_TOKEN_HASH_CACHE: dict = {}
_TOKEN_HASH_CACHE_MAX = 1_000_000

# 16-bit popcount lookup (64 KiB, built once per worker import): numpy 1.x
# has no bitwise_count, and gathering 4 uint16 lanes through this table is
# ~8x lighter in memory traffic than unpacking 64 bits per word
_POPCOUNT16 = np.array(
    [bin(i).count("1") for i in range(1 << 16)], dtype=np.uint8
)


def simhash64_batch(texts) -> np.ndarray:
    """Vectorized SimHash for a whole batch — byte-identical to
    ``simhash64`` (unit-tested). Returns uint64[len(texts)].

    Round-4 10x-drive rewrite (the 1945 s simhash drive profile showed
    3.8 s/1k-doc-batch, ~75% of it the per-OCCURRENCE Python token loop +
    ``str.split``): tokens are split ONCE in Arrow C, md5 is computed only
    per block-DISTINCT token (``dictionary_encode`` + a loop over the
    dictionary, memoized across batches — the md5_number_lower parity the
    DuckDB oracle needs is untouched because the hash FAMILY is identical,
    only the call count drops from per-occurrence to per-distinct), and the
    bit matrix comes from one ``np.unpackbits`` C pass over the raw uint64
    bytes (little-endian, == ``(h >> j) & 1``) instead of a 64-lane uint64
    broadcast shift that allocated ~8x the matrix."""
    import pyarrow as pa
    import pyarrow.compute as pc

    if not isinstance(texts, (pa.Array, pa.ChunkedArray)):
        texts = pa.array(list(texts), pa.string())
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    n_docs = len(texts)
    if n_docs == 0:
        return np.empty(0, np.uint64)
    lst = pc.split_pattern(texts, " ")
    off = lst.offsets.to_numpy().astype(np.int64)
    off = off - off[0]
    lens = off[1:] - off[:-1]
    enc = pc.list_flatten(lst).dictionary_encode()
    cache = _TOKEN_HASH_CACHE
    dh = np.empty(len(enc.dictionary), dtype=np.uint64)
    for i, w in enumerate(enc.dictionary.to_pylist()):
        h = cache.get(w)
        if h is None:
            if len(cache) >= _TOKEN_HASH_CACHE_MAX:
                cache.clear()
            h = int.from_bytes(hashlib.md5(w.encode()).digest()[8:16], "little")
            cache[w] = h
        dh[i] = h
    idx = enc.indices.to_numpy(zero_copy_only=False)
    V = len(dh)
    total = int(off[-1])
    shifts = np.arange(64, dtype=np.uint64)
    if V <= max(1 << 18, total // 4):
        # Zipfian fast path (the overwhelmingly common one for web text:
        # block vocabulary << token count): per-doc COUNTS over the
        # dictionary (one bincount C pass over row*V+idx keys), then a tiny
        # (docs x V) @ (V x 64) integer matmul against the dictionary's
        # unpacked bit matrix — 53x faster than the per-occurrence
        # reduceat on this corpus (0.74 s vs 39 s per 1.2M-token block)
        # because the 64-wide adds run once per DISTINCT (doc, token), not
        # once per occurrence. Docs are chunked so the counts matrix stays
        # <= 2^25 cells (256 MB int64).
        # float64 GEMM (BLAS) is ~3x the int64 matmul and EXACT here: every
        # sum is bounded by the doc's token count << 2^53
        dict_bits = np.unpackbits(
            dh.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little"
        ).astype(np.float64)
        row_of = np.repeat(np.arange(n_docs, dtype=np.int64), lens)
        out = np.empty(n_docs, dtype=np.uint64)
        chunk_d = max(1, (1 << 25) // max(V, 1))
        for d0 in range(0, n_docs, chunk_d):
            d1 = min(d0 + chunk_d, n_docs)
            t0, t1 = off[d0], off[d1]
            key = (row_of[t0:t1] - d0) * V + idx[t0:t1]
            cnt = np.bincount(key, minlength=(d1 - d0) * V).reshape(d1 - d0, V)
            sums = (cnt.astype(np.float64) @ dict_bits).astype(np.int64)
            acc = 2 * sums - lens[d0:d1, None]
            out[d0:d1] = ((acc > 0).astype(np.uint64) << shifts).sum(
                axis=1, dtype=np.uint64
            )
        return out
    # low-repetition fallback (V ~ T, e.g. unique-id-dense text): bit matrix
    # cumsum + boundary diff, chunked so the unpacked matrix stays cache-sized
    flat = dh[idx]
    out = np.empty(n_docs, dtype=np.uint64)
    chunk_tokens = 1 << 20
    starts = off[:-1]
    d0 = 0
    while d0 < n_docs:
        d1 = d0 + 1
        while d1 < n_docs and starts[d1] - starts[d0] < chunk_tokens:
            d1 += 1
        t0, t1 = starts[d0], off[d1]
        bits = np.unpackbits(
            flat[t0:t1].view(np.uint8).reshape(-1, 8), axis=1, bitorder="little"
        )
        c = bits.cumsum(axis=0, dtype=np.int32)
        ends = off[d0 + 1 : d1 + 1] - t0 - 1
        sums = c[ends].astype(np.int64)
        sums[1:] -= c[ends[:-1]]
        acc = 2 * sums - lens[d0:d1, None]
        out[d0:d1] = ((acc > 0).astype(np.uint64) << shifts).sum(axis=1, dtype=np.uint64)
        d0 = d1
    return out


def simhash_table(ds, id_col: str = "doc_id", text_col: str = "text"):
    """(id, simhash) per doc — signed int64 (bit 63 folded) for Arrow/SQL."""
    import pyarrow as pa

    def _sh(t: pa.Table) -> pa.Table:
        sh = simhash64_batch(t[text_col]) & np.uint64(0x7FFFFFFFFFFFFFFF)
        return pa.table(
            {id_col: t[id_col], "simhash": pa.array(sh.view(np.int64))}
        )

    return ds.map_batches(_sh, batch_format="pyarrow")


def simhash_pairs(ds, id_col: str = "doc_id", text_col: str = "text",
                  max_hamming: int = 3,
                  max_bucket: int | None | str = "auto"):
    """Near-dup pairs by SimHash: band the 64 bits into max_hamming+1 chunks
    (pigeonhole: any pair within the radius shares >= 1 exact chunk), ONE
    groupby on (chunk_idx, chunk_value), verify Hamming inside buckets.

    ``max_bucket`` is the standard mass-duplicate cap (same contract as
    ``minhash_lsh_pairs``): pairing is quadratic per chunk bucket, and a
    bucket holding thousands of docs means near-identical mass duplicates
    (the 10M drive corpus carries a 12k-doc identical-text cluster —
    ~74M pairs x 4 chunks from that one cluster alone; run exact/cluster
    dedup first). ``"auto"`` (default) size-routes like minhash: ``None``
    at/below ``_MINHASH_AUTO_MD5_LIMIT`` docs (the sf oracle enumerates
    every pair) and 1000 above it."""
    if max_bucket == "auto":
        max_bucket = None if ds.count() <= _MINHASH_AUTO_MD5_LIMIT else 1000
    n_chunks = max_hamming + 1
    chunk_bits = 64 // n_chunks

    n_shards = 64

    def _explode(df: pd.DataFrame) -> pd.DataFrame:
        sh = simhash64_batch(list(df[text_col]))  # uint64 per doc
        d = len(df)
        ids = np.repeat(df[id_col].to_numpy(), n_chunks)
        chunks = np.tile(np.arange(n_chunks, dtype=np.uint64), d)
        hashes = np.repeat(sh, n_chunks)
        mask = np.uint64((1 << chunk_bits) - 1)
        cv = (hashes >> (chunks * np.uint64(chunk_bits))) & mask
        ck = chunks
        # coarse shard key: one map_groups call per shard, not per bucket
        shard = ((cv * np.uint64(0x9E3779B97F4A7C15) + ck) % np.uint64(n_shards)).astype(
            np.int32
        )
        return pd.DataFrame(
            {
                id_col: pd.Series(ids, dtype="int64"),
                "chunk": pd.Series(chunks.astype(np.int32)),
                "chunk_val": pd.Series(cv.view(np.int64)),
                # full 64 bits, reinterpreted as signed int64 (no bit-63
                # mask: masking would underreport Hamming distance by 1 for
                # pairs differing at the top bit while the chunking above
                # banded on the unmasked value)
                "simhash": pd.Series(hashes.view(np.int64)),
                "shard": shard,
            }
        )

    exploded = ds.map_batches(_explode, batch_format="pandas")

    def _shard_verify(g: pd.DataFrame) -> pd.DataFrame:
        # vectorized singleton elimination (see minhash_lsh_pairs)
        g = g.drop_duplicates(subset=["chunk", "chunk_val", id_col])
        sizes = g.groupby(["chunk", "chunk_val"])[id_col].transform("size")
        multi = g[sizes.to_numpy() > 1]
        if max_bucket is not None and not multi.empty:
            sz = multi.groupby(["chunk", "chunk_val"])[id_col].transform("size")
            multi = multi[sz.to_numpy() <= max_bucket]
        if multi.empty:
            return pd.DataFrame(
                {
                    "id_a": pd.Series(dtype="int64"),
                    "id_b": pd.Series(dtype="int64"),
                    "hamming": pd.Series(dtype="int64"),
                }
            )
        # vectorized i<j expansion per (chunk, chunk_val) bucket (same
        # pattern as minhash's _shard_cand) + LUT popcount — replaces a
        # pure-Python double loop that dominated the shard verify on
        # mass-near-dup corpora (the 10x drive emits 1.5M pairs)
        m = multi.sort_values(["chunk", "chunk_val", id_col], kind="mergesort")
        ck = m["chunk"].to_numpy()
        cv = m["chunk_val"].to_numpy()
        ids = m[id_col].to_numpy()
        hs = m["simhash"].to_numpy().view(np.uint64)
        n = len(m)
        new = np.ones(n, dtype=bool)
        new[1:] = (ck[1:] != ck[:-1]) | (cv[1:] != cv[:-1])
        i_idx, j_idx = _pair_indices_within_groups(new)
        x = hs[i_idx] ^ hs[j_idx]
        ham = _POPCOUNT16[x.view(np.uint16).reshape(-1, 4)].sum(
            axis=1, dtype=np.int64
        )
        keep = ham <= max_hamming
        return pd.DataFrame(
            {
                "id_a": pd.Series(ids[i_idx[keep]], dtype="int64"),
                "id_b": pd.Series(ids[j_idx[keep]], dtype="int64"),
                "hamming": pd.Series(ham[keep], dtype="int64"),
            }
        )

    pairs = exploded.groupby("shard").map_groups(
        _shard_verify, batch_format="pandas"
    )
    from ocr_suite_ray.stages.relational import distinct

    return distinct(pairs, ["id_a", "id_b", "hamming"])


# ---------------------------------------------------------------------------
# exact shared-substring detection (suffix-array-dedup style)
# ---------------------------------------------------------------------------

# polynomial base for the anchor-selection rolling hash (odd 64-bit constant;
# arithmetic wraps mod 2^64 like the numpy uint64 kernel, so the hash is
# SQL-replicable with HUGEINT % 2^64)
_SUBSTR_P = 1099511628211
SUBSTR_K = 40
SUBSTR_MOD = 16


def _substr_pows(k: int = SUBSTR_K) -> "np.ndarray":
    """p^(k-1-j) mod 2^64 for j in 0..k-1 (uint64 wrap)."""
    pows = np.empty(k, dtype=np.uint64)
    acc = np.uint64(1)
    p = np.uint64(_SUBSTR_P)
    with np.errstate(over="ignore"):
        for j in range(k - 1, -1, -1):
            pows[j] = acc
            acc = acc * p  # wraps mod 2^64
    return pows


# p^-1 mod 2^64 (p is odd, so invertible); lets the window hash telescope
_SUBSTR_PINV = pow(_SUBSTR_P, -1, 1 << 64)


def _rolling_win_hashes(codes: "np.ndarray", k: int) -> "np.ndarray":
    """All ``len-k+1`` k-window polynomial hashes of ``codes`` in O(len).

    Identical values to the O(len*k) sliding-window matmul
    ``(win * _substr_pows(k)).sum(axis=1)`` (unit-tested equivalence):
    with T[m] = sum_{j<m} c[j] * p^-j (mod 2^64), the window hash
    h[i] = sum_{j=i..i+k-1} c[j] * p^(i+k-1-j) = p^(i+k-1) * (T[i+k]-T[i]),
    all arithmetic wrapping mod 2^64 — three cumulative passes + two
    elementwise ops instead of k multiply-adds per position (~k/5x fewer
    uint64 ops; k=40 default)."""
    n = len(codes)
    nw = n - k + 1
    if nw <= 0:
        return np.empty(0, dtype=np.uint64)
    with np.errstate(over="ignore"):
        pinv_pows = np.full(n, np.uint64(_SUBSTR_PINV))
        pinv_pows[0] = np.uint64(1)
        np.cumprod(pinv_pows, out=pinv_pows)  # pinv^0 .. pinv^(n-1)
        T = np.cumsum(codes * pinv_pows)  # T[m] for m = 1..n
        diff = T[k - 1 :].copy()  # T[i+k], i = 0..nw-1
        diff[1:] -= T[: nw - 1]  # T[i+k] - T[i]
        p_pows = np.full(nw, np.uint64(_SUBSTR_P))
        p_pows[0] = np.uint64(pow(_SUBSTR_P, k - 1, 1 << 64))
        np.cumprod(p_pows, out=p_pows)  # p^(i+k-1), i = 0..nw-1
        return diff * p_pows


def substring_dup_pairs(
    ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    k: int = SUBSTR_K,
    modulus: int = SUBSTR_MOD,
    max_gram_docs: int | None = None,
    gram_key: str = "exact",
):
    """Pairs of documents sharing at least one exact ``k``-character
    substring, with the count of distinct shared anchor grams — the
    streaming analogue of suffix-array substring dedup (Lee et al. 2022,
    "Deduplicating Training Data Makes Language Models Better"; public
    method).

    Scale shape: computing all O(len) windows per doc stays local and
    vectorized (one codepoint array + an O(len) telescoped rolling hash,
    :func:`_rolling_win_hashes`); only WINNOWED ANCHORS leave the node —
    windows whose 64-bit rolling hash ≡ 0 (mod ``modulus``), i.e.
    ~len/modulus grams of ``k`` chars, a content-defined selection that is
    stable under edits elsewhere in the document (unlike positional
    sampling). One groupby shuffle on a coarse shard of the gram space,
    pairs emitted per bucket, then a keyed count — the minhash_lsh_pairs
    topology with grams in place of band hashes.

    ``gram_key`` picks the exchange key:

    - ``"exact"`` (default, the SQL-oracle path): the gram STRING itself —
      bucket equality is exact, no hash-collision false pairs, but the
      exchange carries ~(k+overhead) bytes per anchor. A 10M-doc drive
      (avg 2.3 kB text, ~1.4e9 anchors) measured this at >60 GB of sort
      spill on one box — use hash64 beyond sf scale.
    - ``"hash64"`` (the 100 TB path): the anchor's 64-bit rolling hash,
      Arrow int64 — a ~20 B/anchor exchange (~5x smaller, no Python-object
      blocks). Equal grams always collide to the same key, so recall is
      identical; a false pair needs two distinct grams sharing a 64-bit
      value inside one bucket: with modulus fixing log2(modulus) hash bits
      the expected number of colliding gram pairs corpus-wide is
      ~n_anchors^2 / 2^(65-log2(modulus)) — ~0.6 expected FALSE PAIRS at
      1.4e9 anchors, each inflating one pair's n_shared by 1.

    Reference analogue: ocr-suite's frame-level duplicate skip
    (src/ocr/service.cpp is_frame_processed) generalized to intra-corpus
    span duplication. Output: (id_a, id_b, n_shared), id_a < id_b.
    """
    import ray.data as rd
    import pyarrow as pa
    import pyarrow.compute as pc

    from ocr_suite_ray.state.dupset import coalesce_reduce

    if gram_key not in ("exact", "hash64"):
        raise ValueError(f"gram_key must be 'exact' or 'hash64', got {gram_key!r}")
    n_shards = 64

    def _anchors(df: pd.DataFrame):
        mod = np.uint64(modulus)
        if gram_key == "hash64":
            id_parts: list = []
            key_parts: list = []
            for i, t in zip(df[id_col], df[text_col]):
                if len(t) < k:
                    continue
                codes = np.frombuffer(
                    t.encode("utf-32-le"), dtype=np.uint32
                ).astype(np.uint64)
                h = _rolling_win_hashes(codes, k)
                sel = h[h % mod == np.uint64(0)]
                if not len(sel):
                    continue
                uniq = np.unique(sel)  # per-doc distinct anchors
                id_parts.append(np.full(len(uniq), i, dtype=np.int64))
                key_parts.append(uniq)
            if id_parts:
                ids_arr = np.concatenate(id_parts)
                keys = np.concatenate(key_parts)
            else:
                ids_arr = np.empty(0, np.int64)
                keys = np.empty(0, np.uint64)
            # shard from the mixed key: equal grams land together; _mix64
            # de-biases the low bits that winnowing pins to zero
            shard = (_mix64(keys) % np.uint64(n_shards)).astype(np.int32)
            return pa.table(
                {
                    id_col: pa.array(ids_arr, pa.int64()),
                    "gram": pa.array(keys.view(np.int64), pa.int64()),
                    "shard": pa.array(shard, pa.int32()),
                }
            )
        ids: list = []
        grams: list = []
        for i, t in zip(df[id_col], df[text_col]):
            if len(t) < k:
                continue
            codes = np.frombuffer(t.encode("utf-32-le"), dtype=np.uint32).astype(
                np.uint64
            )
            h = _rolling_win_hashes(codes, k)
            sel = np.nonzero(h % mod == np.uint64(0))[0]
            if not len(sel):
                continue
            seen = set()
            for s in sel.tolist():
                g = t[s : s + k]
                if g not in seen:
                    seen.add(g)
                    ids.append(i)
                    grams.append(g)
        # coarse co-location key (one map_groups call per shard, not per
        # gram bucket); md5-based — equal grams must land in the same shard
        # across workers, so the salted builtin hash() cannot be used
        shard = np.fromiter(
            (
                int.from_bytes(hashlib.md5(g.encode()).digest()[:4], "little")
                % n_shards
                for g in grams
            ),
            dtype=np.int64,
            count=len(grams),
        )
        return pd.DataFrame(
            {
                id_col: pd.Series(ids, dtype="int64"),
                "gram": grams,
                "shard": pd.Series(shard.astype(np.int32)),
            }
        )

    exploded = ds.map_batches(
        _anchors, batch_format="pandas", batch_size=1024
    )

    _empty = pd.DataFrame(
        {
            "id_a": pd.Series(dtype="int64"),
            "id_b": pd.Series(dtype="int64"),
            "gram": pd.Series(
                dtype="int64" if gram_key == "hash64" else "object"
            ),
        }
    )

    def _shard_pairs(g: pd.DataFrame) -> pd.DataFrame:
        sizes = g.groupby("gram")[id_col].transform("size")
        multi = g[sizes.to_numpy() > 1]
        if max_gram_docs is not None and not multi.empty:
            # frequency cap (Lee et al. drop ultra-common substrings the
            # same way): a gram carried by thousands of docs is template
            # boilerplate or a mass-duplicate cluster — quadratic pairing
            # on it would dominate the whole job while adding no signal
            # about SPECIFIC pairs. Opt-in: None (the sf oracle setting)
            # enumerates every pair.
            sz = multi.groupby("gram")[id_col].transform("size")
            multi = multi[sz.to_numpy() <= max_gram_docs]
        if multi.empty:
            return _empty
        # vectorized i<j expansion per gram bucket (the _shard_cand
        # pattern); the bucket's gram is constant, so pairs inherit it by
        # gathering at i_idx — no Python loop over pairs
        m = multi.sort_values(["gram", id_col], kind="mergesort")
        gv = m["gram"].to_numpy()
        ids = m[id_col].to_numpy()
        n = len(m)
        new = np.ones(n, dtype=bool)
        new[1:] = gv[1:] != gv[:-1]
        i_idx, j_idx = _pair_indices_within_groups(new)
        return pd.DataFrame(
            {
                "id_a": pd.Series(ids[i_idx], dtype="int64"),
                "id_b": pd.Series(ids[j_idx], dtype="int64"),
                "gram": pd.Series(gv[i_idx]),
            }
        )

    pair_grams = exploded.groupby("shard").map_groups(
        _shard_pairs, batch_format="pandas"
    )

    # keyed count of distinct shared grams per pair (grams are already
    # distinct per (pair, gram): per-doc distinct anchors + per-bucket
    # pairing emit each (pair, gram) exactly once)
    def _count(t: pa.Table) -> pa.Table:
        g = t.group_by(["id_a", "id_b"]).aggregate([("gram", "count")])
        g = g.rename_columns(["id_a", "id_b", "n_shared"])
        return g.take(
            pc.sort_indices(
                g, sort_keys=[("id_a", "ascending"), ("id_b", "ascending")]
            )
        )

    def _partial(t: pa.Table) -> pa.Table:
        # partial: keep (id_a, id_b, gram) distinct rows; they are already
        # unique, so the tree just concatenates — the final count happens
        # once at the root over the pair-bound (not corpus-bound) table
        return t

    ref = coalesce_reduce(pair_grams, _partial, _count, materialize=False)
    if ref is None:
        return rd.from_pandas(
            pd.DataFrame(
                {
                    "id_a": pd.Series(dtype="int64"),
                    "id_b": pd.Series(dtype="int64"),
                    "n_shared": pd.Series(dtype="int64"),
                }
            )
        )
    return rd.from_arrow_refs([ref])
