"""Benchmark decontamination, stratified sampling, and per-group token
budgets — the corpus-hygiene trio between dedup and training.

Decontamination is the GPT-3/PaLM n-gram method (Brown et al. 2020 app. C,
public): a document is contaminated when it shares word n-grams with a
held-out benchmark/eval set. Scale shape: the eval side is SMALL by
definition (benchmarks are thousands of rows, never corpus-scale), so its
distinct gram set is built worker-side with a remote tree reduce and
broadcast ONCE (``ray.put`` ref + per-worker ``cached_get``); the corpus
side is one streaming ``map_batches`` pass — one vectorized ``is_in`` C
kernel per batch, no shuffle at all. At 100 TB the only exchange is the
eval gram table (KBs–MBs) travelling to each worker once.

Reference analogue: the already-processed skip filter
(``src/ocr/service.cpp`` ``is_frame_processed``) generalized from
"seen by this pipeline" to "seen by the eval benchmark".
"""

from __future__ import annotations


import numpy as np
import pandas as pd
import pyarrow as pa


def _window_geometry(texts, n: int):
    """Shared windowing geometry of the exact and hash64 n-gram kernels:
    one ``split_pattern`` + flatten, per-row offsets, and the window
    validity rule (a window starting at flat position i belongs to row r
    iff it ENDS inside r). Returns ``(flat, off, n_tokens, n_windows,
    valid_idx, row_of_valid)``; ``n_windows <= 0`` means no row has
    ``n`` words (valid_idx/row_of empty). Keeping this in ONE place is
    what guarantees the exact and hash64 contamination tiers agree on
    which windows exist."""
    import pyarrow.compute as pc

    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    if pa.types.is_large_string(texts.type) or pa.types.is_large_binary(texts.type):
        # the extracted/final store carries large_string text, but
        # binary_join_element_wise has no (large_string…, string) kernel;
        # per-batch token payloads fit int32 offsets comfortably.
        texts = texts.cast(pa.string())
    lst = pc.split_pattern(texts, " ")
    flat = pc.list_flatten(lst)
    off = lst.offsets.to_numpy().astype(np.int64)
    off = off - off[0]
    n_tokens = off[1:] - off[:-1]
    total = int(off[-1]) if len(off) else 0
    n_windows = total - n + 1
    if n_windows <= 0:
        e = np.empty(0, dtype=np.int64)
        return flat, off, n_tokens, n_windows, e, e
    row_of = np.repeat(np.arange(len(n_tokens), dtype=np.int64), n_tokens)
    ends = np.repeat(off[1:], n_tokens)
    pos = np.arange(n_windows, dtype=np.int64)
    valid = pos + n <= ends[:n_windows]
    idx = np.nonzero(valid)[0]
    return flat, off, n_tokens, n_windows, idx, row_of[idx]


def _word_ngram_windows(texts, n: int):
    """All word ``n``-grams (space-joined) of every row, vectorized, WITH
    the flat-token geometry the span-scrub family needs.

    Returns ``(row_idx, grams, flat, off, win_pos)``: int64 row index per
    gram, a ``pa.StringArray`` of the grams, the flattened token array,
    int64 per-row offsets into it, and each gram's START position in
    ``flat`` (the gram covers ``win_pos[i] .. win_pos[i]+n-1``, always
    within one row by the validity rule). Rows with fewer than ``n`` words
    contribute nothing. One ``binary_join_element_wise`` over ``n``
    shifted zero-copy slices of the flat token array — no per-row Python.
    """
    import pyarrow.compute as pc

    flat, off, _nt, n_windows, idx, row_of = _window_geometry(texts, n)
    if n_windows <= 0:
        return (idx, pa.array([], pa.string()), flat, off, idx)
    parts = [flat.slice(j, n_windows) for j in range(n)]
    grams = pc.binary_join_element_wise(*parts, " ")
    return row_of, grams.take(pa.array(idx, pa.int64())), flat, off, idx


def _word_ngrams(texts, n: int):
    """``(row_idx, grams)`` view of :func:`_word_ngram_windows` — the
    original per-gram kernel for callers that don't need flat geometry."""
    row_of, grams, _flat, _off, _pos = _word_ngram_windows(texts, n)
    return row_of, grams


def _word_ngram_hash_windows(texts, n: int):
    """64-bit hashes of all word ``n``-grams of every row — the SAME
    windowing and validity rule as :func:`_word_ngram_windows` (shared
    ``_window_geometry``) but NO gram-string materialization: tokens are
    hashed per block-DISTINCT token (pandas' C hasher over the
    dictionary), each window is a rolling multiply-add combine of its
    ``n`` token hashes + a SplitMix64 finalize (the
    ``dedup_text._fast_gram_hashes`` recipe). Returns
    ``(row_idx, uint64 hashes, flat, off, win_pos)``."""
    from ocr_suite_ray.stages.dedup_text import _mix64

    flat, off, _nt, n_windows, idx, row_of = _window_geometry(texts, n)
    if n_windows <= 0:
        return (idx, np.empty(0, dtype=np.uint64), flat, off, idx)
    enc = flat.dictionary_encode()
    dh = pd.util.hash_array(enc.dictionary.to_numpy(zero_copy_only=False))
    th = dh[enc.indices.to_numpy(zero_copy_only=False)]
    M = np.uint64(0x9E3779B97F4A7C15)
    h = th[:n_windows].copy()
    for j in range(1, n):
        h = h * M + th[j : j + n_windows]
    h = _mix64(h)
    return row_of, h[idx], flat, off, idx


def _word_ngram_hashes(texts, n: int):
    """``(row_idx, hashes)`` view of :func:`_word_ngram_hash_windows`."""
    row_of, h, _flat, _off, _pos = _word_ngram_hash_windows(texts, n)
    return row_of, h


def _gram_string_hashes(grams, n: int) -> "np.ndarray":
    """64-bit hashes of space-joined ``n``-gram STRINGS with the exact
    recipe of :func:`_word_ngram_hash_windows` (per-token-string
    ``pd.util.hash_array`` + rolling multiply-add + SplitMix64 finalize) —
    so a gram string hashes identically to the corpus window it came
    from. join-then-split round-trips exactly (tokens never contain the
    separator), hence every gram yields exactly ``n`` tokens."""
    import pyarrow.compute as pc

    from ocr_suite_ray.stages.dedup_text import _mix64

    if isinstance(grams, pa.ChunkedArray):
        grams = grams.combine_chunks()
    if pa.types.is_large_string(grams.type):
        grams = grams.cast(pa.string())
    flat = pc.list_flatten(pc.split_pattern(grams, " "))
    enc = flat.dictionary_encode()
    dh = pd.util.hash_array(enc.dictionary.to_numpy(zero_copy_only=False))
    th = dh[enc.indices.to_numpy(zero_copy_only=False)].reshape(-1, n)
    M = np.uint64(0x9E3779B97F4A7C15)
    h = th[:, 0].copy()
    for j in range(1, n):
        h = h * M + th[:, j]
    return _mix64(h)


def eval_gram_ref(eval_ds, text_col: str = "text", n: int = 5,
                  gram_key: str = "exact"):
    """Distinct word-``n``-gram table of the eval set as an ObjectRef
    (never touches the driver). ``None`` when the eval set is empty.

    ``gram_key="exact"`` (default, the SQL-oracle path) stores gram
    STRINGS; ``gram_key="hash64"`` (the 100 TB path) stores 64-bit gram
    hashes — the corpus probe then never materializes gram strings either
    (a 10x drive measured the string probe at 1004 s over a gram-dense
    10M-doc corpus; see BASELINE.md). A false collision needs matching
    64-bit hashes between an eval gram and a corpus gram — ~1e-11 at
    billions of probes — and can only ADD a flag (conservative for
    decontamination: never un-flags a contaminated doc). The two modes'
    flag parity at sf scale is pinned by a twin test."""
    import pyarrow.compute as pc

    from ocr_suite_ray.state.dupset import coalesce_reduce

    if gram_key not in ("exact", "hash64"):
        raise ValueError(f"gram_key must be 'exact' or 'hash64', got {gram_key!r}")

    if gram_key == "hash64":
        def _grams(t: pa.Table) -> pa.Table:
            _rows, hs = _word_ngram_hashes(t[text_col], n)
            return pa.table({"gram": np.unique(hs)})
    else:
        def _grams(t: pa.Table) -> pa.Table:
            _rows, grams = _word_ngrams(t[text_col], n)
            return pa.table({"gram": pc.unique(grams)})

    gram_ds = eval_ds.map_batches(_grams, batch_format="pyarrow")

    def _dedup(t: pa.Table) -> pa.Table:
        return pa.table({"gram": pc.unique(t["gram"].combine_chunks())})

    return coalesce_reduce(gram_ds, _dedup, None, materialize=False)


def ngram_hit_counts(texts, gram_ref, n: int = 5,
                     gram_key: str = "exact") -> "np.ndarray":
    """Per-row count of DISTINCT word ``n``-grams present in the broadcast
    eval gram table (``gram_ref`` from :func:`eval_gram_ref`, built with
    the SAME ``gram_key``). The reusable per-batch kernel: one ``is_in`` C
    pass + a hit-bound distinct; the hash64 mode probes uint64 gram hashes
    and never materializes gram strings. Rows with no hits (or an
    empty/None ref) count 0 — nothing is contaminated by an empty
    benchmark."""
    import pyarrow.compute as pc

    from ocr_suite_ray.stages._bcast import cached_get

    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    n_contam = np.zeros(len(texts), dtype=np.int64)
    gram_table = cached_get(gram_ref) if gram_ref is not None else None
    if gram_table is None or not len(gram_table):
        return n_contam
    value_set = gram_table["gram"].combine_chunks()
    if gram_key == "hash64":
        rows, hs = _word_ngram_hashes(texts, n)
        if not len(rows):
            return n_contam
        probe = pa.array(hs)
        hit = pc.is_in(probe, value_set=value_set).to_numpy(
            zero_copy_only=False
        )
        hit_idx = np.nonzero(hit)[0]
        if len(hit_idx):
            hdf = pd.DataFrame(
                {"row": rows[hit_idx], "gram": hs[hit_idx]}
            ).drop_duplicates()
            vc = hdf.groupby("row").size()
            n_contam[vc.index.to_numpy()] = vc.to_numpy()
        return n_contam
    # Exact mode, string-free probe: candidate windows come from the SAME
    # 64-bit rolling gram hash as the hash64 tier (a pure function of the
    # gram string, so a truly shared gram can never be missed), then ONLY
    # the candidate set — contamination-bound, tiny vs the 10^9 windows of
    # a corpus pass — materializes gram strings for exact verification.
    # This removes the full-corpus gram-string materialization that
    # dominated the 1004 s 10x drive (BASELINE.md) while keeping the
    # output bit-identical to the naive string probe (false candidates
    # are discarded by the string check; distinctness is counted on
    # verified gram STRINGS, not hashes).
    from ocr_suite_ray.stages._bcast import cached_build

    rows, hs, flat, _off, pos = _word_ngram_hash_windows(texts, n)
    if not len(rows):
        return n_contam
    eval_hashes = cached_build(
        gram_ref,
        lambda t: pa.array(
            np.unique(_gram_string_hashes(t["gram"].combine_chunks(), n))
        ),
        token=n,
    )
    cand = pc.is_in(pa.array(hs), value_set=eval_hashes).to_numpy(
        zero_copy_only=False
    )
    hit_idx = np.nonzero(cand)[0]
    if len(hit_idx):
        p = pos[hit_idx]
        parts = [
            flat.take(pa.array(p + j, pa.int64())) for j in range(n)
        ]
        gram_strs = pc.binary_join_element_wise(*parts, " ")
        ver = pc.is_in(gram_strs, value_set=value_set).to_numpy(
            zero_copy_only=False
        )
        vidx = np.nonzero(ver)[0]
        if len(vidx):
            hdf = pd.DataFrame(
                {
                    "row": rows[hit_idx][vidx],
                    "gram": gram_strs.take(
                        pa.array(vidx, pa.int64())
                    ).to_pylist(),
                }
            ).drop_duplicates()
            vc = hdf.groupby("row").size()
            n_contam[vc.index.to_numpy()] = vc.to_numpy()
    return n_contam


def decontaminate(
    ds,
    eval_ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    n: int = 5,
    min_hits: int = 1,
    gram_key: str = "exact",
):
    """Per-corpus-doc contamination report vs ``eval_ds``:
    ``(id_col, n_contam, flagged)`` where ``n_contam`` counts DISTINCT
    shared ``n``-grams and ``flagged`` is 1 iff ``n_contam >= min_hits``.

    Filter usage: ``decontaminate(...)`` then drop ``flagged == 1`` (kept
    as a report so the flagged set is auditable — the standard practice is
    to log removals, not silently drop).

    ``gram_key="exact"`` (default) probes gram strings — the SQL-oracle
    path. ``gram_key="hash64"`` probes 64-bit gram hashes and never
    materializes a gram string on either side — the scale route (see
    :func:`eval_gram_ref` for the collision argument and the 10x numbers).
    """
    ref = eval_gram_ref(eval_ds, text_col, n, gram_key=gram_key)

    def _contam(t: pa.Table) -> pa.Table:
        ids = t[id_col].combine_chunks()
        n_contam = ngram_hit_counts(t[text_col], ref, n, gram_key=gram_key)
        return pa.table(
            {
                id_col: ids,
                "n_contam": pa.array(n_contam, pa.int64()),
                "flagged": pa.array(
                    (n_contam >= min_hits).astype(np.int64), pa.int64()
                ),
            }
        )

    return ds.map_batches(_contam, batch_format="pyarrow")


def stratified_sample(
    ds,
    stratum_col: str,
    id_col: str,
    fractions_e4: dict,
    default_e4: int = 0,
    mod: int = 10000,
):
    """Deterministic per-stratum subsample: keep a row iff
    ``md5(id) % mod < fractions_e4[stratum]`` (``default_e4`` for unlisted
    strata). Reproducible at any parallelism and across re-runs (unlike
    ``random_sample``), disjoint from nothing — it is a pure filter, no
    shuffle. The md5 is the only per-row Python (DuckDB hash parity, cf.
    ``q_hash_sample``); the stratum threshold lookup is a vectorized
    dictionary-encode + take.
    """

    from ocr_suite_ray.functions.hashing import md5_mod

    def _sample(t: pa.Table) -> pa.Table:
        h = md5_mod(t[id_col].to_pylist(), mod)
        strata = t[stratum_col].combine_chunks().dictionary_encode()
        uniq = strata.dictionary.to_pylist()
        thresholds = np.array(
            [int(fractions_e4.get(s, default_e4)) for s in uniq], dtype=np.int64
        )
        # null strata are "unlisted" -> default_e4. The raw indices carry
        # null as NaN after to_numpy, and NaN.astype(int64) is INT64_MIN —
        # mask first instead of indexing thresholds with garbage.
        idx = strata.indices.to_numpy(zero_copy_only=False)
        is_null = (
            np.isnan(idx) if idx.dtype.kind == "f"
            else np.zeros(len(idx), dtype=bool)
        )
        codes = np.where(is_null, 0, idx).astype(np.int64)
        thr = (
            thresholds[codes] if len(thresholds)
            else np.zeros(len(codes), dtype=np.int64)
        )
        thr = np.where(is_null, np.int64(default_e4), thr)
        return t.filter(pa.array(h < thr))

    return ds.map_batches(_sample, batch_format="pyarrow")


def group_quota(
    ds,
    group_col: str,
    order_col: str,
    weight_col: str,
    budget: int,
    order_tiebreak: str | None = None,
):
    """Per-group running-weight cap: within each ``group_col`` group, order
    by ``order_col`` and keep rows while the running sum of ``weight_col``
    stays ``<= budget`` — the per-domain token-budget cap of curation
    recipes (cap any one domain's contribution to the training mix).

    ONE hash-bucket shuffle (``grouped_reduce_c``) + a per-bucket sort and
    grouped C cumsum — MANY groups per task (the window-family execution
    shape; per-GROUP dispatch costs ~7 ms each at corpus-scale key
    cardinality, BASELINE.md round 4). Emits the kept rows plus
    ``running`` (the inclusive running weight) for auditability.
    Equivalent SQL: ``SUM(w) OVER (PARTITION BY g ORDER BY o) <= budget``.
    Skew bound: a hot key lands whole in one bucket task — per-key memory
    is the key's row width x its row count (a 10^8-row host at ~40 B/row
    is ~4 GB; cap upstream with a coarser pre-filter if a key can exceed
    a worker's heap).

    Determinism: when ``order_col`` can tie, pass ``order_tiebreak`` (a
    unique column) — otherwise the rows kept AT the budget boundary follow
    Ray's run-to-run block order, like SQL's unordered-tie window frames.
    """
    from ocr_suite_ray.stages.relational import grouped_reduce_c

    sort_keys = [order_col] + ([order_tiebreak] if order_tiebreak else [])

    def _cap(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([group_col] + sort_keys, kind="mergesort")
        # null weights contribute 0 to the running sum and stay eligible —
        # SQL's SUM(w) OVER skips NULLs (a NaN cumsum would compare False
        # and silently drop the row regardless of budget)
        w = g[weight_col].fillna(0)
        running = w.groupby(g[group_col], sort=False).cumsum()
        out = g[running <= budget].copy()
        out["running"] = running[running <= budget]
        return out

    return grouped_reduce_c(ds, [group_col], _cap)


def weighted_sample(ds, id_col: str, weight_col: str, k: int, seed: str = "ws"):
    """Deterministic weighted sampling WITHOUT replacement (Efraimidis &
    Spirakis 2006, public): each row draws an exponential arrival time
    ``score = -ln(u) / w`` with ``u`` derived from ``md5(id||seed)``, and
    the k SMALLEST scores win — inclusion probability proportional to
    weight, reproducible at any parallelism (no RNG state, the id hash IS
    the randomness). Rows with ``w <= 0`` or null never sample.

    Scale shape: per-block top-k combiner then a remote TREE merge
    (``coalesce_reduce``) — the exchange never exceeds k rows per block and
    the driver sees only the final k. The md5 is the one per-row Python
    (DuckDB hash parity, same contract as ``stratified_sample``).

    Returns a k-row Arrow table (id, weight, score ascending).
    """
    import pyarrow.compute as pc

    from ocr_suite_ray.state.dupset import coalesce_reduce

    def _score(t: pa.Table) -> pa.Table:
        w = t[weight_col].cast(pa.float64()).to_numpy(zero_copy_only=False)
        ok = np.isfinite(w) & (w > 0)
        from ocr_suite_ray.functions.hashing import md5_u32

        ids = t[id_col].to_pylist()
        u = (md5_u32(ids, suffix=f"-{seed}").astype(np.float64) + 0.5) / 4294967296.0
        score = np.where(ok, -np.log(u) / np.where(ok, w, 1.0), np.inf)
        keep = np.flatnonzero(ok)
        t = pa.table(
            {
                id_col: t[id_col].combine_chunks().take(pa.array(keep, pa.int64())),
                weight_col: pa.array(w[keep], pa.float64()),
                "score": pa.array(score[keep], pa.float64()),
            }
        )
        return _ksmallest(t)

    def _ksmallest(t: pa.Table) -> pa.Table:
        idx = pc.sort_indices(
            t, sort_keys=[("score", "ascending"), (id_col, "ascending")]
        )
        return t.take(idx[:k])

    out = coalesce_reduce(
        ds.map_batches(_score, batch_format="pyarrow"),
        _ksmallest,
        lambda t: _ksmallest(t),
        materialize=True,
    )
    if out is None:
        # preserve the input id type in the empty result (a hardcoded
        # int64 id diverges from string-keyed datasets exactly and only
        # in the empty case). The weight column is float64 to MATCH the
        # non-empty path (_score casts it) — preserving the input weight
        # type here would be the same empty-only schema divergence in
        # the other direction.
        sch = ds.schema()
        id_t = sch.base_schema.field(id_col).type
        return pa.table(
            {
                id_col: pa.array([], id_t),
                weight_col: pa.array([], pa.float64()),
                "score": pa.array([], pa.float64()),
            }
        )
    return out


def temperature_resample(
    ds,
    group_col: str,
    id_col: str,
    target_total: int,
    mod: int = 10000,
):
    """Temperature-based corpus rebalancing (the multilingual sampling rule
    of mT5/XLM-R, public: sample group i with probability proportional to
    ``n_i^alpha``) at alpha = 0.5. sqrt (not a general pow) is used because
    IEEE 754 requires it correctly rounded — the engine's numpy and the SQL
    oracle's DuckDB compute bit-identical thresholds from the same counts.

    Two narrow steps, no shuffle:
    1. per-group counts: per-block Arrow hash-agg partials merged in a
       remote tree — the driver receives one (group, n) row per group;
    2. per-group keep fractions ``floor(mod * min(target*sqrt(n_i)/Z, n_i)
       / n_i)`` feed the deterministic md5-mod filter of
       ``stratified_sample`` — one streaming pass, reproducible at any
       parallelism. Groups can only be downsampled (never upsampled), so
       the realized total is <= target_total.
    """
    from ocr_suite_ray.state.dupset import coalesce_reduce

    def _cnt(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc_mod

        # drop null-group rows from the counts: stratified_sample routes
        # them to default_e4=0 (always dropped), so counting them into Z
        # would shrink every real group's keep fraction for rows that can
        # never be kept
        t = t.filter(pc_mod.is_valid(t[group_col]))
        g = (
            t.select([group_col])
            .append_column("_n", pa.array(np.ones(t.num_rows, dtype=np.int64)))
            .group_by(group_col)
            .aggregate([("_n", "sum")])
        )
        # rebuild by NAME: pyarrow group_by column order is not stable
        # across releases (mlfit pattern)
        return pa.table({group_col: g[group_col], "_n": g["_n_sum"]})

    def _merge(t: pa.Table) -> pa.Table:
        g = t.group_by(group_col).aggregate([("_n", "sum")])
        return pa.table({group_col: g[group_col], "_n": g["_n_sum"]})

    counts = coalesce_reduce(
        ds.map_batches(_cnt, batch_format="pyarrow"), _merge, None, materialize=True
    )
    if counts is None or counts.num_rows == 0:
        # empty/all-null grouping: empty result via per-batch slice, not a
        # per-row Python filter over the whole corpus
        return ds.map_batches(lambda t: t.slice(0, 0), batch_format="pyarrow")
    # sort by group so the float sum below is independent of tree-merge order
    import pyarrow.compute as pc

    counts = counts.take(pc.sort_indices(counts, sort_keys=[(group_col, "ascending")]))
    groups = counts[group_col].to_pylist()
    n = counts["_n"].to_numpy(zero_copy_only=False).astype(np.float64)
    z = float(np.sqrt(n).sum())
    keep = np.minimum(target_total * np.sqrt(n) / z, n)
    frac = np.floor(mod * keep / n).astype(np.int64)
    fractions = {g: int(f) for g, f in zip(groups, frac)}
    return stratified_sample(ds, group_col, id_col, fractions, default_e4=0, mod=mod)


def token_budget_mixture(
    ds,
    group_col: str,
    id_col: str,
    weight_col: str,
    budgets: dict,
    default_budget: int = 0,
    salt: str = "mix",
):
    """Per-group token-budget take in deterministic hash order — the
    mixture-construction primitive (Pile/DoReMi-style recipes: "contribute
    ~B_g tokens of source g to the training mix"). Each group's rows are
    visited in salted-md5 order (an implicit reproducible shuffle, the
    same key convention as ``shuffle_shards``) and a row is kept iff the
    running weight of strictly-earlier rows is ``< budgets[group]`` — the
    mix fills each budget exactly, overshooting by at most one document.

    Scale story vs :func:`group_quota` (the explicit-order cousin): the
    within-group running sum is
    :func:`~ocr_suite_ray.stages.scan.grouped_prefix_sum` — one composite
    ``(group, okey)`` sort over a NARROW (id, group, weight, okey)
    projection plus two vectorized passes, so a hot group (one language
    with 80% of a 100 TB corpus) spans many sorted blocks and never lands
    in a single task. Deterministic at any parallelism; re-runs re-derive
    the identical mix (resumable export).

    Output: ``(id_col, group_col, weight_col, tokens_before)`` for the
    kept rows. SQL: ``SUM(w) OVER (PARTITION BY g ORDER BY okey) - w <
    budget(g)``.
    """
    from ocr_suite_ray.stages.scan import grouped_prefix_sum

    def _key(t: pa.Table) -> pa.Table:
        from ocr_suite_ray.functions.hashing import salted_order_keys

        okey = salted_order_keys(t[id_col].to_pylist(), salt)
        return pa.table(
            {
                id_col: t[id_col],
                group_col: t[group_col],
                weight_col: t[weight_col],
                "okey": pa.array(okey, pa.string()),
            }
        )

    scanned = grouped_prefix_sum(
        ds.map_batches(_key, batch_format="pyarrow"),
        group_col,
        "okey",
        weight_col,
        out_col="tokens_before",
    )

    def _take(t: pa.Table) -> pa.Table:
        groups = t[group_col].combine_chunks().dictionary_encode()
        caps = np.array(
            [
                int(budgets.get(g, default_budget))
                for g in groups.dictionary.to_pylist()
            ],
            dtype=np.int64,
        )
        idx = groups.indices.to_numpy(zero_copy_only=False)
        is_null = (
            np.isnan(idx) if idx.dtype.kind == "f"
            else np.zeros(len(idx), dtype=bool)
        )
        codes = np.where(is_null, 0, idx).astype(np.int64)
        cap = caps[codes] if len(caps) else np.zeros(len(codes), np.int64)
        cap = np.where(is_null, np.int64(default_budget), cap)
        bf = t["tokens_before"].to_numpy(zero_copy_only=False)
        # a NULL weight leaves its own prefix NaN (pandas cumsum skips it
        # for LATER rows, matching SQL SUM OVER) — the SQL twin's
        # `sum - w < cap` is NULL there, i.e. the row is dropped; an
        # unguarded int64 cast would turn NaN into INT64_MIN and keep it
        # over any budget
        valid = ~np.isnan(bf) if bf.dtype.kind == "f" else np.ones(len(bf), bool)
        before = np.where(valid, bf, 0).astype(np.int64)
        out = t.select([id_col, group_col, weight_col]).append_column(
            "tokens_before", pa.array(before, pa.int64())
        )
        return out.filter(pa.array(valid & (before < cap)))

    return scanned.map_batches(_take, batch_format="pyarrow")

def corpus_overlap(ds_a, ds_b, text_col: str = "text", n: int = 3):
    """Distinct word-n-gram overlap between two corpora — the corpus-level
    contamination/similarity diagnostic (how much of candidate corpus A
    already lives in held corpus B): one row ``(n_a, n_b, n_common,
    jaccard_e4)`` over the DISTINCT n-gram sets of each side.

    Scale shape: each side collapses to its distinct-gram table via
    per-block ``unique`` partials + a remote tree dedup (vocabulary-bound,
    Heaps-law sub-linear in corpus size — the ``eval_gram_ref`` shape);
    the intersection is ONE ``index_in`` C pass in a single remote task
    over the two vocab tables. No shuffle, nothing corpus-sized moves,
    and the driver only ever sees the 1-row result.
    """
    import math

    import pyarrow.compute as pc
    import ray
    import ray.data as rd

    from ocr_suite_ray.state.dupset import coalesce_reduce

    def _partials(ds):
        def _p(t: pa.Table) -> pa.Table:
            _row, grams = _word_ngrams(t[text_col], n)
            return pa.table({"gram": pc.unique(grams)})

        return ds.map_batches(_p, batch_format="pyarrow")

    def _dedup(t: pa.Table) -> pa.Table:
        return pa.table({"gram": pc.unique(t["gram"])})

    _EMPTY = pa.table({"gram": pa.array([], pa.string())})
    ref_a = coalesce_reduce(_partials(ds_a), _dedup, None, materialize=False)
    ref_b = coalesce_reduce(_partials(ds_b), _dedup, None, materialize=False)

    @ray.remote
    def _stats(ta, tb) -> pa.Table:
        ta = ta if ta is not None else _EMPTY
        tb = tb if tb is not None else _EMPTY
        n_a, n_b = ta.num_rows, tb.num_rows
        if n_a and n_b:
            hit = pc.index_in(ta["gram"], value_set=tb["gram"].combine_chunks()
                              if isinstance(tb["gram"], pa.ChunkedArray)
                              else tb["gram"])
            common = int(pc.sum(pc.cast(pc.is_valid(hit), pa.int64())).as_py())
        else:
            common = 0
        union = n_a + n_b - common
        jac = (
            int(math.floor(common * 10000.0 / union + 0.5)) if union else 0
        )
        return pa.table({
            "n_a": pa.array([n_a], pa.int64()),
            "n_b": pa.array([n_b], pa.int64()),
            "n_common": pa.array([common], pa.int64()),
            "jaccard_e4": pa.array([jac], pa.int64()),
        })

    return rd.from_arrow_refs([_stats.remote(ref_a, ref_b)])
