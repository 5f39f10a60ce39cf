"""Text analysis operators: token counting, quality scoring, language-ID,
document fingerprinting.

These are the training-data-pipeline extensions a web-scale corpus needs on
top of the reference's per-document recognize loop (the per-token filters of
the reference — min-length drop ``provider.h:26``, trim ``util.h:13-26`` —
generalize to per-document statistics here).

All stages are stateless vectorized ``map_batches`` fns or actor-pool
classes with compiled-regex state in ``__init__`` (the warm-Tesseract
pattern, ``tesseract.cpp:59-76``). Ratios/scores are emitted fixed-point
int64 so DuckDB oracles hash-match (see pipelines/queries.py).
"""

from __future__ import annotations

import functools
import hashlib
import re

import numpy as np
import pandas as pd
import pyarrow as pa

# language marker profiles: deterministic stopword sets over the synthetic
# vocabulary. Tie-break: first profile in this (fixed) order wins.
LANG_PROFILES: list[tuple[str, frozenset]] = [
    ("en", frozenset({"the", "a", "fast", "slow", "small", "big"})),
    ("query", frozenset({"query", "table", "join", "scan", "filter", "agg"})),
    ("stream", frozenset({"stream", "window", "batch", "spark", "vector"})),
]

STOPWORDS = frozenset({"the", "a", "and", "of", "to"})

# BPE-ish subword split: runs of letters, runs of digits, single punct
BPE_RE = re.compile(r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]")
BPE_PATTERN = r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]"


def _tokens(texts) -> tuple:
    """Whitespace-split tokens, Arrow-native: ``(n_tokens, flat, offsets)``
    where ``flat`` is the flattened token array and ``offsets`` (int64,
    zero-based) segments it per row. The flatten-plus-offsets shape is the
    module's per-token workhorse: every per-token predicate becomes one
    vectorized kernel over ``flat`` plus a cumsum segment reduction —
    no per-row Python (cf. the same shape in dedup_text.simhash64_batch)."""
    import pyarrow.compute as pc

    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    lst = pc.split_pattern(texts, " ")
    off = lst.offsets.to_numpy().astype(np.int64)
    off = off - off[0]
    n_tokens = (off[1:] - off[:-1]).astype(np.int64)
    return n_tokens, pc.list_flatten(lst), off


def _segment_sum(flat_vals: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Per-row sums of a flattened per-token array (empty-segment safe)."""
    cs = np.zeros(len(flat_vals) + 1, dtype=np.int64)
    np.cumsum(flat_vals, out=cs[1:])
    return cs[off[1:]] - cs[off[:-1]]


def _mask_counts(flat, off: np.ndarray, value_set) -> np.ndarray:
    """Per-row count of tokens contained in ``value_set`` (one ``is_in``
    C pass over the flat tokens + a segment sum)."""
    import pyarrow.compute as pc

    mask = pc.is_in(flat, value_set=value_set)
    return _segment_sum(
        mask.to_numpy(zero_copy_only=False).astype(np.int64), off
    )


def _round_ratio_e(num: np.ndarray, den: np.ndarray, scale: float) -> np.ndarray:
    # floor(x+0.5) == round-half-away for non-negatives (DuckDB ROUND);
    # np.round is half-to-even and would diverge at exact halves
    return np.floor(num * scale / den + 0.5).astype(np.int64)


class TokenStats:
    """Per-doc token statistics. Actor-pool class: the stopword value-set
    array is built once per actor.

    Outputs: n_tokens (whitespace tokens), n_subwords (BPE-ish regex
    tokens), stop_ratio_e4 (fixed-point stopword share of whitespace
    tokens). Arrow kernels end-to-end (split_pattern / count_substring_regex
    / is_in + cumsum segment sums)."""

    def __init__(self) -> None:
        self._stop = pa.array(sorted(STOPWORDS))

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        texts = batch["text"]
        n_tokens, flat, off = _tokens(texts)
        n_stop = _mask_counts(flat, off, self._stop)
        n_sub = pc.count_substring_regex(texts, BPE_PATTERN)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": pa.array(n_tokens, pa.int64()),
                "n_subwords": pc.cast(n_sub, pa.int64()),
                "stop_ratio_e4": pa.array(
                    _round_ratio_e(n_stop, np.maximum(n_tokens, 1), 10000.0),
                    pa.int64(),
                ),
            }
        )


_WARM: dict = {}


def token_stats_batch(batch: pa.Table) -> pa.Table:
    """Task-pool form of :class:`TokenStats` with the warm state cached per
    worker process (the ``_FUSED_CACHE`` pattern from pipelines/extract):
    the state is a few tiny value-set arrays, so a task pool with a module
    cache beats paying actor-pool spawn per query while keeping
    build-once-per-worker semantics."""
    fn = _WARM.get("token_stats")
    if fn is None:
        fn = _WARM["token_stats"] = TokenStats()
    return fn(batch)


def lang_id_batch(batch: pa.Table) -> pa.Table:
    """Task-pool form of :class:`LangId` (see token_stats_batch)."""
    fn = _WARM.get("lang_id")
    if fn is None:
        fn = _WARM["lang_id"] = LangId()
    return fn(batch)


_STOP_ARR = None


def quality_score(batch: pa.Table) -> pa.Table:
    """Deterministic integer quality score in [0, 100]:
    +40 if 50 <= n_tokens <= 1000, +30 if stop_ratio in [2%, 40%],
    +30 if mean whitespace-token length in [3, 12]. All integer compares on
    fixed-point values — exactly reproducible in SQL. Vectorized: the
    token-length sum needs no flatten at all (sum(len(tok)) ==
    utf8_length(text) - (n_tokens - 1) for a single-char separator)."""
    import pyarrow.compute as pc

    global _STOP_ARR
    if _STOP_ARR is None:
        _STOP_ARR = pa.array(sorted(STOPWORDS))
    texts = batch["text"]
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    raw_n, flat, off = _tokens(texts)
    n_tokens = np.maximum(raw_n, 1)
    n_stop = _mask_counts(flat, off, _STOP_ARR)
    stop_e4 = _round_ratio_e(n_stop, n_tokens, 10000.0)
    n_chars = pc.utf8_length(texts).to_numpy().astype(np.int64)
    sum_len = n_chars - (raw_n - 1)  # split(" ") ⇒ exactly n-1 separators
    mean_len_e2 = _round_ratio_e(sum_len, n_tokens, 100.0)
    score = (
        ((n_tokens >= 50) & (n_tokens <= 1000)).astype(np.int64) * 40
        + ((stop_e4 >= 200) & (stop_e4 <= 4000)).astype(np.int64) * 30
        + ((mean_len_e2 >= 300) & (mean_len_e2 <= 1200)).astype(np.int64) * 30
    )
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_tokens": pa.array(n_tokens, pa.int64()),
            "stop_ratio_e4": pa.array(stop_e4, pa.int64()),
            "mean_token_len_e2": pa.array(mean_len_e2, pa.int64()),
            "quality": pa.array(score, pa.int64()),
        }
    )


class LangId:
    """Marker-profile language ID: argmax of per-profile marker-word counts,
    deterministic tie-break by profile order; 'und' when all counts zero.
    Reference analogue: the language-pack knob (``tesseract.cpp:41-44``)
    turned into a data-derived classifier. One ``is_in`` pass per profile
    over the flat tokens; argmax in numpy."""

    def __init__(self) -> None:
        self._profiles = [
            (name, pa.array(sorted(words))) for name, words in LANG_PROFILES
        ]

    def __call__(self, batch: pa.Table) -> pa.Table:
        _n_tokens, flat, off = _tokens(batch["text"])
        cols: dict = {"doc_id": batch["doc_id"]}
        names = []
        counts = []
        for name, value_set in self._profiles:
            c = _mask_counts(flat, off, value_set)
            cols[f"c_{name}"] = pa.array(c, pa.int64())
            names.append(name)
            counts.append(c)
        stacked = np.stack(counts)  # (n_profiles, n_rows)
        # fixed profile order => deterministic argmax (first max wins)
        best = np.argmax(stacked, axis=0)
        pred = np.asarray(names, dtype=object)[best]
        pred[stacked.max(axis=0) == 0] = "und"
        cols["lang_pred"] = pa.array(pred, pa.string())
        return pa.table(cols)


def fingerprint(batch: pd.DataFrame) -> pd.DataFrame:
    """Content fingerprints: md5 hex (oracle-checkable — DuckDB md5()) and a
    64-bit polynomial rolling hash over whitespace tokens (the cheap
    streaming fingerprint; no SQL twin)."""
    out = batch[["doc_id"]].copy()
    out["md5"] = [hashlib.md5(t.encode()).hexdigest() for t in batch["text"]]

    def _roll(t: str) -> int:
        h = 1469598103934665603
        for w in t.split(" "):
            for ch in w.encode():
                h = ((h ^ ch) * 1099511628211) & 0xFFFFFFFFFFFFFFFF
            h = (h * 31 + 7) & 0xFFFFFFFFFFFFFFFF
        return h >> 1  # fit in int64

    out["rolling_hash"] = [_roll(t) for t in batch["text"]]
    return out


# PII / pattern scrubbing: RE2-compatible patterns (pyarrow's
# replace_substring_regex and DuckDB's regexp_replace both run RE2, so the
# oracle matches byte-for-byte). The standard pre-training redaction pass.
PII_PATTERNS: dict[str, str] = {
    "EMAIL": r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}",
    "PHONE": r"\+?[0-9][0-9() .-]{6,}[0-9]",
    "NUM": r"[0-9]+",
}


def scrub_patterns(ds, text_col: str, patterns: dict, out_col: str | None = None):
    """Redact every match of each pattern with ``<LABEL>`` and count the
    redactions — fully vectorized Arrow regex kernels (one C pass per
    pattern per batch, no per-row Python). Emits ``{out_col}`` (the scrubbed
    text) and ``n_<label>`` match counts per row.

    Reference analogue: the per-token drop filters of the recognize loop
    (``provider.h:26``) generalized to content-rewriting filters; the
    pattern set is the caller's policy (PII_PATTERNS covers the usual
    email/phone/number classes)."""
    import pyarrow as pa_mod
    import pyarrow.compute as pc

    out_col = out_col or f"{text_col}_scrubbed"

    def _scrub(t: pa_mod.Table) -> pa_mod.Table:
        # counts measured on the ORIGINAL text (order-independent, so the
        # SQL oracle is a flat projection); replacements applied in pattern
        # order on the running string
        cur = t[text_col]
        for label, pat in patterns.items():
            n = pc.count_substring_regex(t[text_col], pat)
            t = t.append_column(f"n_{label.lower()}", pc.cast(n, pa_mod.int64()))
            cur = pc.replace_substring_regex(cur, pat, f"<{label}>")
        return t.append_column(out_col, cur)

    return ds.map_batches(_scrub, batch_format="pyarrow")


def badword_filter(
    ds,
    words,
    id_col: str = "doc_id",
    text_col: str = "text",
):
    """C4-style blocklist page filter (Raffel et al. 2020, §2.2: drop any
    page containing a word from the public blocklist): a document is
    dropped when ANY of its whitespace tokens, lower-cased, is in
    ``words``. Emits the surviving ``(id_col, text_col)`` rows unchanged.

    Vectorized and shuffle-free: one ``split_pattern`` + dictionary
    encode per batch, the blocklist probe runs over block-DISTINCT tokens
    only (``is_in`` on the dictionary, gathered back through the codes),
    then a per-row segment-max decides the gate — no per-row Python.
    Embarrassingly parallel at corpus scale, like :func:`quality_score`.

    Reference analogue: the per-token drop filters of the recognize loop
    (``provider.h:26``) lifted to a document-level policy gate.
    """
    import pyarrow.compute as pc

    blocklist = pa.array(sorted({w.lower() for w in words}), pa.string())

    def _gate(t: pa.Table) -> pa.Table:
        texts = t[text_col]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        if pa.types.is_large_string(texts.type):
            texts = texts.cast(pa.string())
        _n, flat, off = _tokens(texts)
        enc = flat.dictionary_encode()
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        bad_dict = pc.is_in(
            pc.utf8_lower(enc.dictionary), value_set=blocklist
        ).to_numpy(zero_copy_only=False)
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        hits = _segment_sum(bad_dict[codes].astype(np.int64), off)
        return t.select([id_col, text_col]).filter(pa.array(hits == 0))

    return ds.map_batches(_gate, batch_format="pyarrow")


def assign_split(
    ds,
    id_col: str,
    train_pct: int = 80,
    val_pct: int = 10,
    mod: int = 100,
):
    """Deterministic train/val/test assignment by md5(id) — reproducible at
    any parallelism and re-run (unlike random_sample), disjoint by
    construction, and expressible in SQL for the oracle. The md5 is the only
    per-row Python here (kept for DuckDB hash parity — cf. q_hash_sample);
    everything downstream is vectorized."""
    import pyarrow as pa_mod

    from ocr_suite_ray.functions.hashing import md5_mod

    def _split(batch: pd.DataFrame) -> pd.DataFrame:
        from ocr_suite_ray.functions.hashing import split_labels

        h = md5_mod(batch[id_col], mod)
        out = batch.copy()
        out["split"] = split_labels(h, train_pct, val_pct)
        return out

    return ds.map_batches(_split, batch_format="pandas")


def _row_token_runs(flat, nt: np.ndarray) -> tuple:
    """Per-row (n_distinct, top_count) over flattened tokens: dictionary-
    encode the flat tokens (one C hash pass per batch), then run-length
    statistics over the (row, code)-sorted codes in numpy — no per-row
    sets or value_counts. Shared by ``repetition_stats`` and
    ``gopher_signals``."""
    codes = flat.dictionary_encode().indices.to_numpy().astype(np.int64)
    row_ids = np.repeat(np.arange(len(nt), dtype=np.int64), nt)
    # pack (row, code) into one word when the widths allow (they always do
    # for real batches) — one argsort instead of a two-key lexsort; exact
    # packing, not hashing (same trick as _row_ngram_coverage)
    if len(codes):
        rbits = max(int(row_ids.max()).bit_length(), 1)
        cbits = max(int(codes.max()).bit_length(), 1)
    else:
        rbits = cbits = 1
    if rbits + cbits <= 63:
        key = (row_ids.astype(np.uint64) << np.uint64(cbits)) | codes.astype(
            np.uint64
        )
        order = np.argsort(key, kind="stable")
        key = key[order]
        r = row_ids[order]
        new_run = np.ones(len(r), dtype=bool)
        new_run[1:] = key[1:] != key[:-1]
    else:
        order = np.lexsort((codes, row_ids))
        r = row_ids[order]
        c = codes[order]
        new_run = np.ones(len(r), dtype=bool)
        new_run[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
    run_starts = np.flatnonzero(new_run)
    run_row = r[run_starts]
    run_len = np.diff(np.append(run_starts, len(r)))
    n_distinct = np.bincount(run_row, minlength=len(nt)).astype(np.int64)
    # NULL-text rows have ZERO tokens (split_pattern of a null is a null
    # list), so not every input row appears in the runs — the top counts
    # must be SCATTERED back per present row (the _row_ngram_coverage
    # shape), never returned compacted (a compacted array broadcast
    # against the full batch misaligns every row after the first null)
    top = np.zeros(len(nt), dtype=np.int64)
    if len(run_row):
        row_first = np.flatnonzero(
            np.concatenate([[True], run_row[1:] != run_row[:-1]])
        )
        top[run_row[row_first]] = np.maximum.reduceat(
            run_len, row_first
        ).astype(np.int64)
    return n_distinct, top


def repetition_stats(ds, id_col: str, text_col: str):
    """Gopher-style repetition features: distinct-token fraction and
    most-common-token share, fixed-point e4. High repetition (low distinct
    fraction / high top-token share) marks low-quality boilerplate docs —
    a standard pre-training quality gate."""

    def _rep(batch: pa.Table) -> pa.Table:
        nt, flat, _off = _tokens(batch[text_col])
        n_distinct, top = _row_token_runs(flat, nt)
        n = np.maximum(nt, 1)
        return pa.table(
            {
                id_col: batch[id_col],
                "n_tokens": pa.array(n, pa.int64()),
                "distinct_frac_e4": pa.array(
                    _round_ratio_e(n_distinct, n, 10000.0), pa.int64()
                ),
                "top_token_frac_e4": pa.array(
                    _round_ratio_e(top, n, 10000.0), pa.int64()
                ),
            }
        )

    return ds.map_batches(_rep, batch_format="pyarrow")


def _row_ngram_coverage(
    nt: np.ndarray,
    codes: np.ndarray,
    tok_lens: np.ndarray,
    n: int,
) -> tuple:
    """Per-row (top_cover, dup_chars) over word n-grams: ``top_cover`` is
    the max over grams of occurrences×gram-chars (chars = token chars +
    joining spaces), ``dup_chars`` the same sum over grams occurring >1
    time. Run-length statistics over (row, code_0..code_{n-1})-sorted gram
    windows — collision-free (no gram hashing) and no per-row Python."""
    n_rows = len(nt)
    top = np.zeros(n_rows, dtype=np.int64)
    dup = np.zeros(n_rows, dtype=np.int64)
    total = len(codes)
    if total < n or n_rows == 0:
        return top, dup
    row_ids = np.repeat(np.arange(n_rows, dtype=np.int64), nt)
    # a gram window is valid iff it stays within one row
    valid = row_ids[: total - n + 1] == row_ids[n - 1 :]
    starts = np.flatnonzero(valid)
    if len(starts) == 0:
        return top, dup
    cs = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(tok_lens, out=cs[1:])
    gchars = cs[starts + n] - cs[starts] + (n - 1)
    r = row_ids[starts]
    cols = [codes[starts + j] for j in range(n)]
    # Sort on (row, c_0, …, c_{n-1}). The n+1-key int64 lexsort is the
    # bandwidth hot spot at high worker concurrency (n+1 argsort passes +
    # gathers); the fields are small non-negative ints, so EXACT-pack them
    # MSB-first into one (or two) machine words and argsort those instead —
    # collision-free by construction (full bit-width packing, not hashing).
    rbits = max(int(r.max()).bit_length(), 1)
    cbits = max(max(int(c.max()) for c in cols).bit_length(), 1)
    total_bits = rbits + n * cbits
    if total_bits <= 63:
        key = r.astype(np.uint64)
        for c in cols:
            key = (key << np.uint64(cbits)) | c.astype(np.uint64)
        order = np.argsort(key, kind="stable")
        key = key[order]
        same = key[1:] == key[:-1]
    elif total_bits <= 126 and n * cbits > 63 - rbits:
        # split the field list across two words: hi = (row, c_0…c_{k-1}),
        # lo = (c_k…c_{n-1}); lexsort's LAST key is primary
        k = (63 - rbits) // cbits
        if (n - k) * cbits <= 63 and k >= 0:
            hi = r.astype(np.uint64)
            for c in cols[:k]:
                hi = (hi << np.uint64(cbits)) | c.astype(np.uint64)
            lo = np.zeros(len(r), dtype=np.uint64)
            for c in cols[k:]:
                lo = (lo << np.uint64(cbits)) | c.astype(np.uint64)
            order = np.lexsort((lo, hi))
            hi, lo = hi[order], lo[order]
            same = (hi[1:] == hi[:-1]) & (lo[1:] == lo[:-1])
        else:  # degenerate widths — fall back
            order = np.lexsort(tuple(cols[::-1] + [r]))
            sc = [c[order] for c in cols]
            same = r[order][1:] == r[order][:-1]
            for c in sc:
                same &= c[1:] == c[:-1]
    else:
        order = np.lexsort(tuple(cols[::-1] + [r]))
        sc = [c[order] for c in cols]
        same = r[order][1:] == r[order][:-1]
        for c in sc:
            same &= c[1:] == c[:-1]
    r = r[order]
    new_run = np.ones(len(r), dtype=bool)
    new_run[1:] = ~same
    run_starts = np.flatnonzero(new_run)
    run_row = r[run_starts]
    run_len = np.diff(np.append(run_starts, len(r)))
    run_chars = gchars[order][run_starts]
    cover = run_len * run_chars
    row_first = np.flatnonzero(
        np.concatenate([[True], run_row[1:] != run_row[:-1]])
    )
    rows_present = run_row[row_first]
    top[rows_present] = np.maximum.reduceat(cover, row_first)
    dup[rows_present] = np.add.reduceat(
        np.where(run_len > 1, cover, 0), row_first
    )
    return top, dup


def dup_ngram_stats(
    ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    n_top: int = 2,
    n_dup: int = 5,
):
    """Gopher repetition rules, n-gram family (Rae et al. 2021, App. A):
    per-doc fixed-point char-coverage of (a) the highest-coverage
    ``n_top``-gram and (b) all duplicated ``n_dup``-grams. Coverage counts
    every occurrence's characters (token chars + joining spaces) and
    maximizes occurrences×chars rather than raw count — deterministic
    without a gram tie-break and exactly reproducible in SQL (the paper's
    overlap-deduplicated char count is not; documented deviation).
    Embarrassingly parallel: one tokenize + dictionary-encode pass, two
    in-block lexsorts, no shuffle."""
    import pyarrow.compute as pc

    def _stats(batch: pa.Table) -> pa.Table:
        texts = batch[text_col]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        if pa.types.is_large_string(texts.type):
            texts = texts.cast(pa.string())
        raw_n, flat, _off = _tokens(texts)
        codes = flat.dictionary_encode().indices.to_numpy().astype(np.int64)
        tok_lens = pc.utf8_length(flat).to_numpy().astype(np.int64)
        n_chars = np.maximum(
            pc.utf8_length(texts).to_numpy().astype(np.int64), 1
        )
        top_cover, _ = _row_ngram_coverage(raw_n, codes, tok_lens, n_top)
        _, dup_chars = _row_ngram_coverage(raw_n, codes, tok_lens, n_dup)
        return pa.table(
            {
                id_col: batch[id_col],
                "n_chars": pa.array(n_chars, pa.int64()),
                f"top{n_top}_gram_cover_e4": pa.array(
                    _round_ratio_e(top_cover, n_chars, 10000.0), pa.int64()
                ),
                f"dup{n_dup}_gram_chars_e4": pa.array(
                    _round_ratio_e(dup_chars, n_chars, 10000.0), pa.int64()
                ),
            }
        )

    return ds.map_batches(_stats, batch_format="pyarrow")


def gopher_signals(batch: pa.Table) -> pa.Table:
    """Gopher-rule quality signals and keep decision (Rae et al. 2021,
    App. A — the documented pre-training quality rule set), composed over
    one tokenize pass:

    - word count in [50, 100000]
    - mean word length in [3, 10] (fixed-point e2)
    - ≥80% of words contain an alphabetic character (fixed-point e4)
    - ≥2 distinct stop words present (engine stop set)
    - most-common-token share ≤20% (the unigram repetition rule; the
      line/paragraph variants live in ``segments.py``)

    All thresholds are integer compares on fixed-point values — exactly
    reproducible in SQL (same rounding contract as ``quality_score``).
    Reference analogue: the per-frame confidence gate
    (``ocr.cpp``/``options.cpp`` min-confidence knob) generalized to the
    documented web-corpus rule set. Embarrassingly parallel: one
    ``map_batches`` pass, no shuffle."""
    import pyarrow.compute as pc

    texts = batch["text"]
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    if pa.types.is_large_string(texts.type):
        # int32-offset bound: map_batches blocks are already < 2^31 chars
        texts = texts.cast(pa.string())
    raw_n, flat, off = _tokens(texts)
    n_tokens = np.maximum(raw_n, 1)
    n_chars = pc.utf8_length(texts).to_numpy().astype(np.int64)
    sum_len = n_chars - (raw_n - 1)  # split(" ") ⇒ exactly n-1 separators
    mean_len_e2 = _round_ratio_e(sum_len, n_tokens, 100.0)
    alpha_mask = pc.match_substring_regex(flat, "[A-Za-z]")
    n_alpha = _segment_sum(
        alpha_mask.to_numpy(zero_copy_only=False).astype(np.int64), off
    )
    alpha_e4 = _round_ratio_e(n_alpha, n_tokens, 10000.0)
    # distinct stop-word hits: one C equality pass per stop word (|set|=5)
    stop_hits = np.zeros(len(n_tokens), dtype=np.int64)
    for sw in sorted(STOPWORDS):
        m = pc.equal(flat, sw)
        hit = _segment_sum(
            m.to_numpy(zero_copy_only=False).astype(np.int64), off
        )
        stop_hits += (hit > 0).astype(np.int64)
    _, top = _row_token_runs(flat, raw_n)
    top_e4 = _round_ratio_e(top, n_tokens, 10000.0)
    keep = (
        (n_tokens >= 50)
        & (n_tokens <= 100000)
        & (mean_len_e2 >= 300)
        & (mean_len_e2 <= 1000)
        & (alpha_e4 >= 8000)
        & (stop_hits >= 2)
        & (top_e4 <= 2000)
    )
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_tokens": pa.array(n_tokens, pa.int64()),
            "mean_token_len_e2": pa.array(mean_len_e2, pa.int64()),
            "alpha_frac_e4": pa.array(alpha_e4, pa.int64()),
            "stop_hits": pa.array(stop_hits, pa.int64()),
            "top_token_frac_e4": pa.array(top_e4, pa.int64()),
            "keep": pa.array(keep),
        }
    )


def _keyed_sum(t: pa.Table, key: str, val: str) -> pa.Table:
    g = t.group_by(key).aggregate([(val, "sum")])
    # select by NAME first: pyarrow group_by output order has changed
    # across releases, so a bare positional rename is fragile
    return g.select([key, f"{val}_sum"]).rename_columns([key, val])


def _tree_keyed_sum(partials_ds, key: str, val: str):
    """Remote tree merge of (key, val) partial tables — the vocab-table
    reduce. Replaces ``groupby(key).aggregate(Sum)``: Ray's AggregateFn
    reduce walks rows in Python (1309 s vs 28 s on a 10M-row drive,
    BASELINE.md round-3 C-reduce audit); each tree fan-in here is one Arrow
    C hash aggregate, and the root holds the vocabulary-sized table."""
    from ocr_suite_ray.state.dupset import coalesce_reduce

    merge = functools.partial(_keyed_sum, key=key, val=val)
    return coalesce_reduce(partials_ds, merge, None, materialize=False)


def _token_count_partial(text_col: str):
    """Per-block (tok, n) value_counts partial over whitespace tokens —
    the shared combiner of token_frequencies / unigram_count_ref /
    bpe_train_ref (one copy, so token-shape fixes apply everywhere)."""
    import pyarrow.compute as pc

    def _partial(batch: pa.Table) -> pa.Table:
        _nt, flat, _off = _tokens(batch[text_col])
        vc = pc.value_counts(flat)
        return pa.table(
            {
                "tok": vc.field("values"),
                "n": pc.cast(vc.field("counts"), pa.int64()),
            }
        )

    return _partial


def token_frequencies(ds, text_col: str, top_k: int = 100):
    """Corpus-wide token frequency table, top-k by count (vocabulary
    building — the first step of tokenizer training). Combine-before-
    shuffle: each block collapses to its own (token, n) partials (a block
    contributes at most its distinct-token count), the global groupby sums
    partials, and the final sort+limit runs over the vocabulary-sized
    aggregate, never the corpus. Deterministic tie-break: (n desc, token
    asc)."""
    from ocr_suite_ray.state.dupset import block_refs, dataset_from_root

    _partial = _token_count_partial(text_col)
    # an all-empty corpus gives an empty (tok, n) block
    agg = dataset_from_root(
        block_refs(ds.map_batches(_partial, batch_format="pyarrow")),
        functools.partial(_keyed_sum, key="tok", val="n"),
        schema=pa.schema([("tok", pa.string()), ("n", pa.int64())]),
    )

    def _order(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.sort_values(["n", "tok"], ascending=[False, True])

    # the merged table is vocabulary-sized (small vs corpus); one final sort
    return agg.map_batches(_order, batch_format="pandas").limit(top_k)


# URL canonicalization: the crawl-side key hygiene pass (dup detection is
# only as good as its url key). RE2-only constructs, so the DuckDB oracle
# is byte-exact. Order matters and is part of the contract:
#   1. drop the fragment;
#   2. drop utm_* tracking params (delimiter-preserving two-step);
#   3. lowercase scheme://host (path/query stay case-sensitive).
_URL_SPLIT = r"^(?P<scheme>[A-Za-z][A-Za-z0-9+.-]*://)(?P<host>[^/?#]*)(?P<rest>.*)$"


def normalize_urls(ds, url_col: str, out_col: str | None = None):
    """Vectorized URL canonicalization (see module comment for the rule
    order). Unparseable values (no scheme://host) pass through with only
    fragment/param stripping applied."""
    import pyarrow as pa_mod
    import pyarrow.compute as pc

    out_col = out_col or f"{url_col}_norm"

    def _norm(t: pa_mod.Table) -> pa_mod.Table:
        u = t[url_col]
        u = pc.replace_substring_regex(u, r"#.*$", "")
        # anchored to the ?/& delimiter (kept via backref) so a non-utm
        # param whose name merely contains "utm_" (e.g. ?xutm_a=1) is
        # never consumed; the (…&)+ repetition still clears consecutive
        # utm params in one pass
        u = pc.replace_substring_regex(
            u, r"([?&])(utm_[A-Za-z0-9_]*=[^&]*&)+", r"\1"
        )
        u = pc.replace_substring_regex(u, r"[?&]utm_[A-Za-z0-9_]*=[^&]*$", "")
        u = pc.replace_substring_regex(u, r"\?$", "")
        m = pc.extract_regex(u, _URL_SPLIT)  # struct<1,2,3> or null
        ok = pc.is_valid(m)
        lowered = pc.binary_join_element_wise(
            pc.utf8_lower(pc.struct_field(m, "scheme")),
            pc.utf8_lower(pc.struct_field(m, "host")),
            pc.struct_field(m, "rest"),
            "",
        )
        return t.append_column(out_col, pc.if_else(ok, lowered, u))

    return ds.map_batches(_norm, batch_format="pyarrow")


def extract_hosts(urls):
    """Vectorized ``(host, tld)`` from a url column — the key-extraction
    half of per-domain corpus accounting. host = the authority component
    lowercased, ``:port`` and a leading ``www.`` stripped; tld = the last
    dot label. Unparseable values (no ``scheme://``) map to host ``""``
    (kept, so totals reconcile). RE2-only, byte-exact vs the DuckDB twin.
    """
    import pyarrow.compute as pc

    if isinstance(urls, pa.ChunkedArray):
        urls = urls.combine_chunks()
    if pa.types.is_large_string(urls.type):
        urls = urls.cast(pa.string())
    m = pc.extract_regex(urls, _URL_SPLIT)
    host = pc.if_else(
        pc.is_valid(m), pc.utf8_lower(pc.struct_field(m, "host")), ""
    )
    host = pc.replace_substring_regex(host, r":[0-9]+$", "")
    host = pc.replace_substring_regex(host, r"^www\.", "")
    tm = pc.extract_regex(host, r"(?P<tld>[^.]*)$")
    tld = pc.if_else(pc.is_valid(tm), pc.struct_field(tm, "tld"), "")
    return host, tld


def host_stats(ds, url_col: str = "url", weight_col: str | None = None,
               num_buckets: int = 64):
    """Per-host corpus rollup ``(host, tld, n_docs[, sum_weight])`` — the
    accounting pass behind per-domain caps / blocklists (RefinedWeb-style
    "limit documents per registered domain"; pair with ``group_quota`` to
    enforce a cap).

    Scale shape: host cardinality scales with the corpus (~10^8
    registered hosts on real web data), so the vocab tree-reduce is the
    WRONG tool here. Combine-before-shuffle instead: each block collapses
    to its distinct hosts (one Arrow C hash-agg, block-distinct bound),
    then ONE bucket shuffle + a within-bucket C fold
    (:func:`~ocr_suite_ray.stages.relational.grouped_reduce_c`) — nothing
    corpus-sized crosses the exchange, and a hot host (one domain with
    10^8 pages) arrives pre-collapsed to one partial row per block.

    Reference analogue: the per-video frame accounting of the reference's
    progress tracking (``ocr.cpp`` stats) keyed by crawl host instead.
    """
    import pyarrow.compute as pc

    from ocr_suite_ray.stages.relational import grouped_reduce_c

    def _partial(t: pa.Table) -> pa.Table:
        host, tld = extract_hosts(t[url_col])
        cols = {"host": host, "tld": tld}
        aggs = [([], "count_all")]
        if weight_col is not None:
            w = t[weight_col]
            if isinstance(w, pa.ChunkedArray):
                w = w.combine_chunks()
            cols["w"] = pc.cast(w, pa.int64())
            aggs.append(("w", "sum"))
        g = pa.table(cols).group_by(["host", "tld"]).aggregate(aggs)
        names = ["host", "tld", "n_docs"]
        sel = ["host", "tld", "count_all"]
        if weight_col is not None:
            names.append("sum_weight")
            sel.append("w_sum")
        return g.select(sel).rename_columns(names)

    def _fold(df: pd.DataFrame) -> pd.DataFrame:
        return _sum_fold(df, ["host", "tld"])

    return grouped_reduce_c(
        ds.map_batches(_partial, batch_format="pyarrow"),
        ["host"],
        _fold,
        num_buckets=num_buckets,
    )


def _sum_fold(df: pd.DataFrame, keys: list) -> pd.DataFrame:
    """Partial-summing fold with SQL SUM semantics on ``sum_weight``: an
    all-NULL group stays NULL (``min_count=1``) instead of NaN-coercing
    to 0, and the nullable Int64 detour keeps the column integer-typed
    through pandas so the output schema matches the no-null case."""
    aggs = {"n_docs": ("n_docs", "sum")}
    if "sum_weight" in df.columns:
        df = df.assign(sum_weight=df["sum_weight"].astype("Int64"))
        aggs["sum_weight"] = ("sum_weight", lambda s: s.sum(min_count=1))
    return df.groupby(keys, as_index=False).agg(**aggs)


def host_rollup(ds, url_col: str = "url", weight_col: str | None = None,
                num_buckets: int = 64):
    """Multi-level corpus accounting in ONE pass: per-host, per-tld, and
    corpus-total doc/weight mass — SQL ``GROUP BY GROUPING SETS ((host),
    (tld), ())`` semantics. Output rows: ``(level in {'host','tld','all'},
    key, n_docs[, sum_weight])``; the 'all' row's key is ``''``.

    Scale shape: the naive form is three scans (or one scan + a re-group
    of the host table); here each block collapses to the UNION of its
    three level partials (one Arrow C hash-agg per level, bounded by
    block-distinct hosts + tlds + 1), then ONE bucket shuffle + a
    within-bucket C fold sums partials — the corpus never crosses the
    exchange twice, and the 'all' level costs one row per block.
    """
    import pyarrow.compute as pc

    from ocr_suite_ray.stages.relational import grouped_reduce_c

    def _partial(t: pa.Table) -> pa.Table:
        host, tld = extract_hosts(t[url_col])
        cols = {"host": host, "tld": tld}
        aggs = [([], "count_all")]
        if weight_col is not None:
            w = t[weight_col]
            if isinstance(w, pa.ChunkedArray):
                w = w.combine_chunks()
            cols["w"] = pc.cast(w, pa.int64())
            aggs.append(("w", "sum"))
        base = pa.table(cols)
        pieces = []
        for level, key_col in (("host", "host"), ("tld", "tld")):
            g = base.group_by(key_col).aggregate(aggs)
            names = {key_col: "key", "count_all": "n_docs", "w_sum": "sum_weight"}
            g = g.rename_columns([names[c] for c in g.column_names])
            pieces.append(g.append_column(
                "level", pa.array([level] * g.num_rows, pa.string())
            ))
        # corpus-total partial: one row per block. SUM keeps SQL
        # semantics: an all-NULL weight block contributes NULL (not 0)
        tot = {"key": pa.array([""], pa.string()),
               "n_docs": pa.array([base.num_rows], pa.int64()),
               "level": pa.array(["all"], pa.string())}
        if weight_col is not None:
            s = pc.sum(base["w"]).as_py()
            tot["sum_weight"] = pa.array([s], pa.int64())
        order = ["level", "key", "n_docs"] + (
            ["sum_weight"] if weight_col is not None else []
        )
        pieces.append(pa.table(tot))
        return pa.concat_tables([p.select(order) for p in pieces])

    def _fold(df: pd.DataFrame) -> pd.DataFrame:
        return _sum_fold(df, ["level", "key"])

    return grouped_reduce_c(
        ds.map_batches(_partial, batch_format="pyarrow"),
        ["level", "key"],
        _fold,
        num_buckets=num_buckets,
    )


def unigram_count_ref(ds, text_col: str = "text"):
    """Corpus-wide unigram count table as one worker-held ObjectRef:
    per-block ``value_counts`` partials, ONE vocabulary-keyed groupby,
    tree-reduced off the driver. The broadcastable LM artifact shared by
    :func:`lm_unigram_score` and the curation composite."""
    _partial = _token_count_partial(text_col)

    return _tree_keyed_sum(
        ds.map_batches(_partial, batch_format="pyarrow"), "tok", "n"
    )


def _logp_series(tbl):
    """(token -> add-one-smoothed ln probability, OOV fallback) from a
    unigram count table (the cached_build derivation for the broadcast
    ref). The fallback is the smoothing floor ln(1/(total+vocab)) — the
    probability the model assigns an unseen token, same back-off
    :func:`_dsir_series` uses."""
    n = tbl["n"].to_numpy(zero_copy_only=False).astype(np.float64)
    total, vocab = n.sum(), float(len(n))
    logp = np.log((n + 1.0) / (total + vocab))
    fallback = np.log(1.0 / (total + vocab))
    return pd.Series(logp, index=tbl["tok"].to_pandas()), fallback


def lm_scores(texts, counts_ref) -> "np.ndarray":
    """Per-row negative mean log-likelihood, fixed-point e4 (the reusable
    per-batch kernel): one ``reindex`` hash-join against the cached logp
    Series + a float segment mean. Tokens absent from the unigram table
    score at the smoothing floor rather than poisoning the cumsum with
    NaN — the kernel is exported for cross-corpus use (score corpus B
    under corpus A's model), where OOV is the norm."""
    from ocr_suite_ray.stages._bcast import cached_build

    series, fallback = cached_build(counts_ref, _logp_series)
    n_tokens, flat, off = _tokens(texts)
    vals = series.reindex(flat.to_pandas()).to_numpy()
    vals = np.where(np.isnan(vals), fallback, vals)
    cs = np.concatenate([[0.0], np.cumsum(vals)])
    sums = cs[off[1:]] - cs[off[:-1]]
    mean = sums / np.maximum(n_tokens, 1)
    return np.floor(-mean * 10000 + 0.5).astype(np.int64)


def lm_unigram_score(ds, id_col: str = "doc_id", text_col: str = "text"):
    """Per-doc unigram-LM negative mean log-likelihood (fixed-point e4) —
    the perplexity-filter primitive of CCNet-style curation (Wenzek et al.
    2020, public method), with add-one smoothing over the corpus's own
    unigram table.

    Two passes, both streaming: (1) :func:`unigram_count_ref` (vocab-sized,
    never on the driver); (2) a broadcast-score pass — each worker builds
    the token->logp Series once (``cached_build``), each batch is one
    hash-join ``reindex`` plus a segment mean. The corpus never shuffles;
    only the vocab table moves.
    """
    ref = unigram_count_ref(ds, text_col)

    def _score(batch: pa.Table) -> pa.Table:
        score = lm_scores(batch[text_col], ref)
        return pa.table(
            {id_col: batch[id_col], "lm_score_e4": pa.array(score, pa.int64())}
        )

    return ds.map_batches(_score, batch_format="pyarrow")


def _bigrams(texts) -> tuple:
    """Whitespace bigrams per row, Arrow-native: ``(n_bigrams, grams, off2)``
    where ``grams`` is the flattened 'prev cur' string array and ``off2``
    (int64, zero-based) segments it per row. Built from ONE token split +
    a boundary mask + two takes + one binary join — the n=2 sibling of
    :func:`_tokens`' flatten-plus-offsets shape, no per-row Python."""
    import pyarrow.compute as pc

    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    if pa.types.is_large_string(texts.type):
        # the extracted store carries large_string text;
        # binary_join_element_wise has no (large_string…, string) kernel,
        # and a block's flat text is bounded by int32 offsets anyway
        texts = texts.cast(pa.string())
    n_tok, flat, off = _tokens(texts)
    total = len(flat)
    n_bi = np.maximum(n_tok - 1, 0)
    if total < 2:
        return n_bi, pa.array([], pa.string()), np.zeros(len(off), np.int64)
    # candidate pairs (i, i+1) for i in [0, total-2]; drop pairs that cross
    # a row boundary (i+1 is some row's first token). split_pattern('')
    # yields [''] so non-null rows have >= 1 token, but a NULL row has
    # ZERO — its boundary equals a neighbour's, putting 0 (first row
    # null: mask[-1] wraps, silently dropping the batch's last bigram)
    # or total (last row null: IndexError) into starts; both are
    # non-crossing boundaries and must be skipped.
    mask = np.ones(total - 1, dtype=bool)
    starts = off[1:-1]
    starts = starts[(starts > 0) & (starts < total)]
    mask[starts - 1] = False
    idx = np.flatnonzero(mask)
    prev = flat.take(pa.array(idx, pa.int64()))
    cur = flat.take(pa.array(idx + 1, pa.int64()))
    grams = pc.binary_join_element_wise(prev, cur, " ")
    off2 = np.zeros(len(off), dtype=np.int64)
    np.cumsum(n_bi, out=off2[1:])
    return n_bi, grams, off2


def bigram_count_ref(ds, text_col: str = "text"):
    """Corpus-wide bigram count table ``(gram, n)`` as one worker-held
    ObjectRef (per-block ``value_counts`` partials, tree-reduced keyed sum)
    — the n=2 LM artifact. Size contract: O(distinct bigrams), i.e.
    vocabulary-bound (<= V^2, in practice ~Heaps-law sub-linear in corpus
    size), never corpus-bound; :func:`_bigram_logp_series` enforces a
    broadcast budget when the table is realized per worker."""
    import pyarrow.compute as pc

    def _partial(batch: pa.Table) -> pa.Table:
        _nb, grams, _off2 = _bigrams(batch[text_col])
        vc = pc.value_counts(grams)
        return pa.table(
            {
                "gram": vc.field("values"),
                "n": pc.cast(vc.field("counts"), pa.int64()),
            }
        )

    return _tree_keyed_sum(
        ds.map_batches(_partial, batch_format="pyarrow"), "gram", "n"
    )


_BIGRAM_BROADCAST_BUDGET = 50_000_000  # rows; ~1-2 GB realized per worker


def _bigram_logp_series(tbl):
    """(gram -> add-one-smoothed conditional ln P(cur|prev), OOV floor)
    from a bigram count table: logp = ln((c2(gram)+1) / (c1(prev)+V)) with
    context counts c1 = the bigram table's prev-marginal and V = distinct
    continuation (cur) vocabulary. The floor ln(1/(total+V)) is the global
    back-off for grams unseen in the model corpus (cross-corpus scoring),
    mirroring :func:`_logp_series`."""
    if tbl.num_rows > _BIGRAM_BROADCAST_BUDGET:
        raise ValueError(
            f"bigram table has {tbl.num_rows} rows > broadcast budget "
            f"{_BIGRAM_BROADCAST_BUDGET}; score via a gram-keyed shuffle "
            "join (bucket the corpus's bigrams and the count table on "
            "hash(gram) as in dedup_text's gram-block joins) instead of "
            "the broadcast path"
        )
    grams = tbl["gram"].to_pandas()
    n2 = tbl["n"].to_numpy(zero_copy_only=False).astype(np.float64)
    split = grams.str.split(" ", n=1)
    prev = split.str[0]
    cur = split.str[1]
    c1 = pd.Series(n2).groupby(prev.to_numpy()).sum()
    vocab = float(cur.nunique())
    denom = c1.reindex(prev.to_numpy()).to_numpy() + vocab
    logp = np.log((n2 + 1.0) / denom)
    fallback = np.log(1.0 / (n2.sum() + vocab))
    return pd.Series(logp, index=grams), fallback


def bigram_scores(texts, counts_ref) -> tuple:
    """Per-row negative mean conditional log-likelihood over bigrams,
    fixed-point e4, plus a validity mask (False = the row has no bigram —
    SQL's NULL AVG over an empty group). One ``reindex`` hash-join against
    the cached logp Series + a float segment mean, same shape as
    :func:`lm_scores`."""
    from ocr_suite_ray.stages._bcast import cached_build

    series, fallback = cached_build(counts_ref, _bigram_logp_series)
    n_bi, grams, off2 = _bigrams(texts)
    vals = series.reindex(grams.to_pandas()).to_numpy()
    vals = np.where(np.isnan(vals), fallback, vals)
    cs = np.concatenate([[0.0], np.cumsum(vals)])
    sums = cs[off2[1:]] - cs[off2[:-1]]
    mean = sums / np.maximum(n_bi, 1)
    score = np.floor(-mean * 10000 + 0.5).astype(np.int64)
    return score, n_bi > 0


def bigram_lm_score(ds, id_col: str = "doc_id", text_col: str = "text"):
    """Per-doc bigram-LM negative mean conditional log-likelihood
    (fixed-point e4) — the n-gram generalization of
    :func:`lm_unigram_score` toward CC-Net's KenLM perplexity filter
    (Wenzek et al. 2020 score with a 5-gram model; the method is
    order-agnostic and the engine shape is identical at any n: a
    vocabulary-bound count artifact + one streaming score pass).

    Two passes, both streaming: (1) :func:`bigram_count_ref` (distinct-
    bigram-sized, tree-reduced, never on the driver); (2) a broadcast-
    score pass — each worker derives the gram->logp Series once
    (``cached_build``), each batch is one hash-join ``reindex`` plus a
    segment mean. The corpus never shuffles; only the bigram table moves,
    and the realize step raises past its documented broadcast budget with
    the gram-keyed shuffle join named as the fallback. Docs with no
    bigram (single-token) emit NULL, matching SQL's empty-group AVG.
    """
    ref = bigram_count_ref(ds, text_col)

    def _score(batch: pa.Table) -> pa.Table:
        score, valid = bigram_scores(batch[text_col], ref)
        return pa.table(
            {
                id_col: batch[id_col],
                "bigram_nll_e4": pa.array(
                    score, pa.int64(), mask=~valid
                ),
            }
        )

    return ds.map_batches(_score, batch_format="pyarrow")


_PPL_BUCKET_NAMES = {3: ("head", "middle", "tail")}


def ccnet_perplexity_buckets(
    ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    n_buckets: int = 3,
):
    """CC-Net perplexity bucketing (Wenzek et al. 2020, §4.3 — the public
    head/middle/tail split): rank every doc by its unigram-LM score
    (ascending — most-fluent first) and cut the corpus into
    ``n_buckets`` equal-population buckets, ``bucket = rank*k // n``.
    The canonical 3 buckets carry the paper's head/middle/tail names in
    ``ppl_bucket``; any k also emits the integer ``bucket``.

    Scale story: pass 1 is :func:`lm_unigram_score` (vocab broadcast, no
    corpus shuffle); pass 2 is the :func:`~ocr_suite_ray.stages.scan.prefix_sum`
    global rank over a NARROW (doc_id, score, okey) projection — the one
    honest all-to-all this op needs, ~40 B/row regardless of document
    size. Exact global quantiles by construction (no sampled cutoffs), so
    the split is deterministic at any parallelism. The rank key is the
    fixed-width decimal ``score``+``doc_id`` string, built entirely in
    Arrow C kernels (lexicographic == numeric for the non-negative e4
    scores; the kernel asserts non-negativity rather than silently
    misordering).
    """
    import pyarrow.compute as pc

    from ocr_suite_ray.stages.scan import prefix_sum

    scored = lm_unigram_score(ds, id_col, text_col)
    n_docs = ds.count()

    def _key(t: pa.Table) -> pa.Table:
        s = t["lm_score_e4"]
        if len(s) and pc.min(s).as_py() < 0:
            raise ValueError(
                "ccnet_perplexity_buckets: negative lm_score_e4 breaks the "
                "fixed-width decimal order key"
            )
        okey = pc.binary_join_element_wise(
            pc.utf8_lpad(pc.cast(s, pa.string()), 12, "0"),
            pc.utf8_lpad(pc.cast(t[id_col], pa.string()), 20, "0"),
            "-",
        )
        return pa.table(
            {
                id_col: t[id_col],
                "lm_score_e4": s,
                "okey": okey,
                "one": pa.array(np.ones(len(t), np.int64), pa.int64()),
            }
        )

    ranked = prefix_sum(
        scored.map_batches(_key, batch_format="pyarrow"),
        "okey",
        "one",
        out_col="rank",
    )
    names = _PPL_BUCKET_NAMES.get(n_buckets)

    def _assign(df: pd.DataFrame) -> pd.DataFrame:
        r = df["rank"].to_numpy().astype(np.int64)
        b = r * n_buckets // max(n_docs, 1)
        out = pd.DataFrame(
            {
                id_col: df[id_col].to_numpy(),
                "lm_score_e4": df["lm_score_e4"].to_numpy(),
                "bucket": b,
            }
        )
        if names is not None:
            out["ppl_bucket"] = np.array(names, dtype=object)[b]
        return out

    return ranked.map_batches(_assign, batch_format="pandas")


def _bm25_stats(t: pa.Table) -> pa.Table:
    """Sum of ``n``/``dl`` per term over BM25 candidate (or stats) tables:
    the null term holds N and the total length, every query term its df."""
    g = t.select(["term", "n", "dl"]).group_by("term").aggregate(
        [("n", "sum"), ("dl", "sum")]
    )
    return g.select(["term", "n_sum", "dl_sum"]).rename_columns(["term", "n", "dl"])


def _bm25_topk(t: pa.Table, top_k: int) -> pa.Table:
    import pyarrow.compute as pc

    idx = pc.sort_indices(t, sort_keys=[("_score", "descending"), ("id", "ascending")])
    return t.take(idx[:top_k])


def _bm25_score_blocks(stats, k1: float, b: float, top_k: int, *blocks):
    """Top-``top_k`` ``(id, _score)`` over a chunk of candidate blocks of
    :func:`bm25_rank`, each scored against the reduced ``stats`` table
    (``None`` when the blocks hold no candidates)."""
    import pyarrow.compute as pc

    if stats is None:  # every block was empty
        return None
    terms = stats["term"].to_pylist()
    n = stats["n"].to_numpy()
    si = terms.index(None)
    n_docs = float(n[si])
    avgdl = float(stats["dl"].to_numpy()[si]) / max(n_docs, 1.0)
    idf_by_term = {
        w: float(np.log(1.0 + (n_docs - float(df) + 0.5) / (float(df) + 0.5)))
        for w, df in zip(terms, n)
        if w is not None
    }
    scored = []
    for t in blocks:
        # blocks of an empty input skip the candidate UDF and keep their
        # pre-UDF schema; they hold no candidates
        if "term" not in getattr(t, "column_names", ()):
            continue
        is_stats = pc.is_null(t["term"]).to_numpy(zero_copy_only=False)
        c = t.filter(pa.array(~is_stats))
        if c.num_rows == 0:
            continue
        # a doc is a run of one (batch, row): batches are numbered by the
        # stats row that opens each of them
        batch = np.cumsum(is_stats)[~is_stats]
        rows = c["row"].to_numpy()
        new_doc = np.ones(len(rows), dtype=bool)
        new_doc[1:] = (rows[1:] != rows[:-1]) | (batch[1:] != batch[:-1])
        doc = np.cumsum(new_doc) - 1
        idf = np.array([idf_by_term[w] for w in c["term"].to_pylist()], np.float64)
        tf = c["tf"].to_numpy().astype(np.float64)
        dl = c["dl"].to_numpy().astype(np.float64)
        contrib = idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl / avgdl))
        scores = np.zeros(int(doc[-1]) + 1, dtype=np.float64)
        np.add.at(scores, doc, contrib)
        scored.append(pa.table({
            "id": c["id"].take(pa.array(np.flatnonzero(new_doc))),
            "_score": pa.array(scores, pa.float64()),
        }))
    return _bm25_topk(pa.concat_tables(scored), top_k) if scored else None


def bm25_rank(
    ds,
    query_terms: list,
    id_col: str = "doc_id",
    text_col: str = "text",
    k1: float = 1.2,
    b: float = 0.75,
    top_k: int = 10,
):
    """BM25 ranked search (Robertson/Spärck Jones, public): top-``top_k``
    docs by ``sum over query terms of idf(t) * tf*(k1+1) / (tf + k1*(1 - b
    + b*dl/avgdl))`` with the Lucene idf ``ln(1 + (N-df+0.5)/(df+0.5))``.
    Ties break by ascending id. Returns a tiny ``pa.Table``
    ``(id_col, bm25_e4)``.

    Scale shape: ``ds`` executes ONCE. Each batch becomes a compact
    candidate table: one stats row (``term`` null, ``n`` = the batch's doc
    count, ``dl`` = its token total), then one row per (doc, query term)
    the batch contains, ``(row, term, n=1, tf, dl, id)``. Ray Data may pack
    several batches into one block, so a doc is keyed by its batch (the
    running count of stats rows) as well as its row. A tree reduce of the
    candidate blocks (:func:`_bm25_stats`) gives N, the total length and
    the QUERY terms' df — a handful of rows. One plain task per chunk of
    candidate blocks (``cpu_chunks``: one chunk per CPU at most) scores
    each block against that table, summing each doc's contributions in
    (row, first-occurrence term) order, and keeps one top-k; a tree merge
    of k-row tables picks the result, or the driver takes the one task's
    top-k when there is one chunk. The corpus never shuffles.
    Reference analogue: the viewer's ``find_text`` ranked search
    (src/viewer/search.h) upgraded from LIKE-match to relevance ranking.
    """
    import pyarrow.compute as pc
    import ray

    from ocr_suite_ray.state.dupset import (
        block_refs,
        cpu_chunks,
        remote_fn,
        tree_reduce_refs,
    )

    qset = pa.array(sorted(set(query_terms)), pa.string())

    def _candidates(t: pa.Table) -> pa.Table:
        n_tok, flat, _off = _tokens(t[text_col])
        hit = pc.is_in(flat, value_set=qset).to_numpy(zero_copy_only=False)
        enc = pc.dictionary_encode(flat.filter(pa.array(hit)))
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        n_dict = max(len(enc.dictionary), 1)
        row_of = np.repeat(np.arange(len(n_tok), dtype=np.int64), n_tok)[hit]
        # np.unique sorts by (row, dictionary code): the summation order
        uniq, tf = np.unique(row_of * n_dict + codes, return_counts=True)
        rows = uniq // n_dict
        ids = t[id_col].combine_chunks()
        return pa.table({
            "row": pa.array(np.concatenate([[-1], rows])),
            "term": pa.concat_arrays([
                pa.nulls(1, pa.string()),
                enc.dictionary.cast(pa.string()).take(pa.array(uniq % n_dict)),
            ]),
            "n": pa.array(np.concatenate([[t.num_rows], np.ones(len(rows), np.int64)])),
            "tf": pa.array(np.concatenate([[0], tf]).astype(np.int64)),
            "dl": pa.array(np.concatenate([[n_tok.sum()], n_tok[rows]])),
            "id": pa.concat_arrays([pa.nulls(1, ids.type), ids.take(pa.array(rows))]),
        })

    refs = block_refs(ds.map_batches(_candidates, batch_format="pyarrow"))
    stats_ref = tree_reduce_refs(refs, _bm25_stats, materialize=False)
    score = remote_fn(_bm25_score_blocks)
    leaves = [score.remote(stats_ref, k1, b, top_k, *c) for c in cpu_chunks(refs)]
    if len(leaves) == 1:  # the one leaf is the top-k already
        out = ray.get(leaves[0])
    else:
        out = tree_reduce_refs(leaves, lambda t: _bm25_topk(t, top_k))
    if out is None:
        return pa.table(
            {id_col: pa.array([], pa.int64()), "bm25_e4": pa.array([], pa.int64())}
        )
    e4 = np.floor(out["_score"].to_numpy() * 10000 + 0.5).astype(np.int64)
    return pa.table({id_col: out["id"], "bm25_e4": pa.array(e4, pa.int64())})


def _dsir_series(tbl):
    """token -> log-ratio Series for :func:`dsir_weights` from the combined
    (grp, tok, n) count table: ln p_target(w) - ln p_source(w) with add-one
    smoothing over the SHARED vocabulary (union of both models' tokens),
    plus the out-of-union fallback (both models back off to their smoothing
    floor). Passed to ``cached_build`` so each worker derives it once."""

    def _counts(grp):
        if tbl is None or tbl.num_rows == 0:
            return pd.Series(np.empty(0, np.float64), index=pd.Index([]))
        import pyarrow.compute as pc

        sub = tbl.filter(pc.equal(tbl["grp"], grp))
        return pd.Series(
            sub["n"].to_numpy(zero_copy_only=False).astype(np.float64),
            index=sub["tok"].to_pandas(),
        )

    st, ss = _counts(1), _counts(0)
    vocab = st.index.union(ss.index)
    nt = st.reindex(vocab).fillna(0.0).to_numpy()
    ns = ss.reindex(vocab).fillna(0.0).to_numpy()
    tt, ts, vv = nt.sum(), ns.sum(), float(len(vocab))
    lr = np.log((nt + 1.0) / (tt + vv)) - np.log((ns + 1.0) / (ts + vv))
    fallback = np.log(1.0 / (tt + vv)) - np.log(1.0 / (ts + vv))
    return pd.Series(lr, index=vocab), fallback


def dsir_weights(
    ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    domain_col: str = "lang",
    target_value: str = "en",
):
    """DSIR-style importance weights (Xie et al. 2023, public method): per
    doc, the mean over tokens of ln p_target(w) - ln p_source(w), where the
    target unigram model is trained on ``domain_col == target_value`` docs
    and the source model on the rest. High weight = "looks like the target
    domain" — the data-selection score for domain-matched resampling.

    Scale shape: BOTH unigram models build in ONE streaming pass (per-block
    value_counts keyed by (is_target, tok), one tree reduce — vocab-bound,
    never on the driver), broadcast once; the scoring pass is one streaming
    ``reindex`` hash-join + segment mean per batch — the corpus never
    shuffles and is read exactly twice. Emits ``(id_col, dsir_e4)``."""
    import pyarrow.compute as pc

    from ocr_suite_ray.state.dupset import coalesce_reduce
    from ocr_suite_ray.stages._bcast import cached_build

    def _partial(t: pa.Table) -> pa.Table:
        grp = pc.cast(
            pc.equal(t[domain_col], target_value), pa.int32()
        ).to_numpy(zero_copy_only=False)
        parts = []
        for g in (0, 1):
            sub = t.filter(pa.array(grp == g))
            if not sub.num_rows:
                continue
            _nt, flat, _off = _tokens(sub[text_col])
            vc = pc.value_counts(flat)
            parts.append(
                pa.table(
                    {
                        "grp": pa.array(
                            np.full(len(vc), g, np.int32), pa.int32()
                        ),
                        "tok": vc.field("values"),
                        "n": pc.cast(vc.field("counts"), pa.int64()),
                    }
                )
            )
        if not parts:
            return pa.table(
                {
                    "grp": pa.array([], pa.int32()),
                    "tok": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                }
            )
        return pa.concat_tables(parts)

    def _combine(t: pa.Table) -> pa.Table:
        g = t.group_by(["grp", "tok"]).aggregate([("n", "sum")])
        return g.select(["grp", "tok", "n_sum"]).rename_columns(
            ["grp", "tok", "n"]
        )

    ref = coalesce_reduce(
        ds.map_batches(_partial, batch_format="pyarrow"),
        _combine,
        None,
        materialize=False,
    )

    def _score(batch: pa.Table) -> pa.Table:
        series, fallback = cached_build(ref, _dsir_series)
        n_tokens, flat, off = _tokens(batch[text_col])
        vals = series.reindex(flat.to_pandas()).to_numpy()
        vals = np.where(np.isnan(vals), fallback, vals)
        cs = np.concatenate([[0.0], np.cumsum(vals)])
        sums = cs[off[1:]] - cs[off[:-1]]
        mean = sums / np.maximum(n_tokens, 1)
        e4 = np.floor(mean * 10000 + 0.5).astype(np.int64)
        return pa.table(
            {id_col: batch[id_col], "dsir_e4": pa.array(e4, pa.int64())}
        )

    return ds.map_batches(_score, batch_format="pyarrow")


def tfidf_top_terms(
    ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    k: int = 3,
):
    """Top-``k`` TF-IDF terms per document (keyword extraction):
    ``score = tf * ln((N_docs + 1) / (df + 1))``, fixed-point e4,
    deterministic tie-break (score desc, token asc).

    Same two-pass shape as :func:`lm_unigram_score`: (1) document
    frequencies — per-block DISTINCT (doc, token) partials collapsed to
    per-token doc counts, one vocab-keyed groupby, tree-reduced with the
    doc total to one broadcast ref; (2) a streaming scoring pass — per
    batch, one pandas (row, token) size groupby (C hash agg), one
    ``reindex`` hash-join against the cached df Series, a vectorized score
    + per-doc head(k). The corpus never shuffles.
    """
    from ocr_suite_ray.stages._bcast import cached_build
    from ocr_suite_ray.state.dupset import coalesce_reduce

    import pyarrow.compute as pc

    SENTINEL = "\x00__n_docs__"  # NUL prefix: no split(" ") token contains NUL

    def _df_partial(batch: pa.Table) -> pa.Table:
        """(tok, df) partials for this block plus ONE sentinel row carrying
        the block's doc count — the total-N aggregate rides the same keyed
        sum instead of a second pass."""
        n_tokens, flat, off = _tokens(batch[text_col])
        row_of = np.repeat(np.arange(len(n_tokens)), n_tokens)
        pairs = pd.DataFrame(
            {"row": row_of, "tok": flat.to_pandas()}
        ).drop_duplicates()
        vc = pairs.groupby("tok", sort=False).size()
        return pa.table(
            {
                "tok": pa.array(
                    list(vc.index) + [SENTINEL], pa.string()
                ),
                "df": pa.array(
                    np.append(vc.to_numpy(), len(n_tokens)), pa.int64()
                ),
            }
        )

    ref = _tree_keyed_sum(
        ds.map_batches(_df_partial, batch_format="pyarrow"), "tok", "df"
    )

    def _build(tbl):
        toks = tbl["tok"].to_pandas()
        dfv = tbl["df"].to_numpy(zero_copy_only=False).astype(np.float64)
        mask = (toks == SENTINEL).to_numpy()
        n_docs = float(dfv[mask][0]) if mask.any() else 0.0
        idf = np.log((n_docs + 1.0) / (dfv + 1.0))
        return pd.Series(idf, index=toks)[~mask]

    def _score(batch: pa.Table) -> pa.Table:
        idf = cached_build(ref, _build)
        ids = batch[id_col].combine_chunks()
        n_tokens, flat, off = _tokens(batch[text_col])
        row_of = np.repeat(np.arange(len(n_tokens)), n_tokens)
        tf = (
            pd.DataFrame({"row": row_of, "tok": flat.to_pandas()})
            .groupby(["row", "tok"], sort=False)
            .size()
            .reset_index(name="tf")
        )
        scores = tf["tf"].to_numpy() * idf.reindex(tf["tok"]).to_numpy()
        tf["score_e4"] = np.floor(scores * 10000 + 0.5).astype(np.int64)
        top = (
            tf.sort_values(
                ["row", "score_e4", "tok"],
                ascending=[True, False, True],
                kind="mergesort",
            )
            .groupby("row", sort=False)
            .head(k)
        )
        id_np = ids.to_numpy(zero_copy_only=False)
        return pa.table(
            {
                id_col: pa.array(id_np[top["row"].to_numpy()]),
                "term": pa.array(top["tok"].to_numpy(), pa.string()),
                "score_e4": pa.array(top["score_e4"].to_numpy(), pa.int64()),
            }
        )

    return ds.map_batches(_score, batch_format="pyarrow")


def _bpe_learn(tbl, n_merges: int) -> list:
    """The ``n_merges`` BPE merges of a (tok, n) word-count table."""
    if tbl is None or not len(tbl):
        return []
    toks = tbl["tok"].to_pylist()
    ns = tbl["n"].to_pylist()
    words = {t: (tuple(t), n) for t, n in zip(toks, ns) if t}
    merges: list = []
    for _ in range(n_merges):
        pair_counts: dict = {}
        for sym, (seq, n) in words.items():
            for a, b in zip(seq, seq[1:]):
                pair_counts[(a, b)] = pair_counts.get((a, b), 0) + n
        if not pair_counts:
            break
        best = max(pair_counts.items(), key=lambda kv: (kv[1], kv[0]))
        # deterministic: max count, then lexicographically LAST pair
        # (any fixed order works; it must only be mirrored by oracles)
        pair = best[0]
        merges.append(pair)
        merged = pair[0] + pair[1]
        new_words = {}
        for sym, (seq, n) in words.items():
            out = []
            i = 0
            while i < len(seq):
                if i + 1 < len(seq) and seq[i] == pair[0] and seq[i + 1] == pair[1]:
                    out.append(merged)
                    i += 2
                else:
                    out.append(seq[i])
                    i += 1
            new_words[sym] = (tuple(out), n)
        words = new_words
    return merges


def bpe_train_ref(ds, text_col: str = "text", n_merges: int = 64):
    """Learn ``n_merges`` BPE merges from the corpus, returning an ObjectRef
    to the ordered merge list (list of (left, right) symbol pairs).

    Distribution shape (the standard recipe): the corpus-scale work is the
    WORD-TYPE count table (per-block ``value_counts`` partials -> one
    vocab-keyed groupby -> tree reduce); the merge loop itself runs over
    that vocab-sized table in ONE remote task (BPE iterations are inherently
    sequential — each merge depends on the previous — and the vocab fits a
    worker by the same contract as every broadcast artifact here). The
    driver holds only the ObjectRef. Deterministic: ties on pair count
    break lexicographically.
    """
    from ocr_suite_ray.state.dupset import remote_fn

    _partial = _token_count_partial(text_col)
    counts_ref = _tree_keyed_sum(
        ds.map_batches(_partial, batch_format="pyarrow"), "tok", "n"
    )
    return remote_fn(_bpe_learn).remote(counts_ref, n_merges)


def bpe_encode(ds, merges_ref, id_col: str = "doc_id", text_col: str = "text"):
    """Apply learned merges: per doc emit ``n_tokens`` (whitespace) and
    ``n_bpe`` (symbols after merging). The merge table is broadcast once;
    each batch encodes only its DISTINCT tokens (memoized per batch) and
    distributes counts back with a segment sum — the per-token loop runs
    over the batch vocabulary, not the corpus."""
    from ocr_suite_ray.stages._bcast import cached_build

    def _ranks(merges):
        return {tuple(p): i for i, p in enumerate(merges)}

    def _encode_len(tok: str, ranks: dict) -> int:
        seq = list(tok)
        if len(seq) < 2:
            return len(seq)
        while True:
            best_i, best_r = -1, None
            for i in range(len(seq) - 1):
                r = ranks.get((seq[i], seq[i + 1]))
                if r is not None and (best_r is None or r < best_r):
                    best_i, best_r = i, r
            if best_i < 0:
                return len(seq)
            seq[best_i : best_i + 2] = [seq[best_i] + seq[best_i + 1]]

    def _apply(batch: pa.Table) -> pa.Table:
        ranks = cached_build(merges_ref, _ranks)
        n_tokens, flat, off = _tokens(batch[text_col])
        toks = flat.to_pylist()
        memo: dict = {}
        lens = np.fromiter(
            (
                memo[t] if t in memo else memo.setdefault(t, _encode_len(t, ranks))
                for t in toks
            ),
            dtype=np.int64,
            count=len(toks),
        )
        n_bpe = _segment_sum(lens, off)
        return pa.table(
            {
                id_col: batch[id_col],
                "n_tokens": pa.array(n_tokens, pa.int64()),
                "n_bpe": pa.array(n_bpe, pa.int64()),
            }
        )

    return ds.map_batches(_apply, batch_format="pyarrow")


def chunk_documents(
    ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    size: int = 64,
    overlap: int = 16,
):
    """Split each document into word chunks of ``size`` with ``overlap``
    (stride = size - overlap) — the long-document splitter feeding fixed
    context windows. flat_map shape: one input row -> ceil(n/stride) rows
    ``(id, chunk_id, chunk_text, n_words)``.

    Vectorized without per-row Python: ``pyarrow.list_slice`` takes only
    scalar bounds, so the kernel loops over the CHUNK INDEX (bounded by
    the longest doc in the batch, a handful of iterations), slicing and
    ``binary_join``-ing every doc that still has words at that offset in
    one C pass per index. Pure map stage — no shuffle, no state."""
    import pyarrow.compute as pc

    if overlap >= size:
        raise ValueError("overlap must be smaller than size")
    stride = size - overlap

    def _chunk(t: pa.Table) -> pa.Table:
        texts = t[text_col]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        lst = pc.split_pattern(texts, " ")
        n = pc.list_value_length(lst).to_numpy().astype(np.int64)
        ids_np = t[id_col].combine_chunks().to_numpy(zero_copy_only=False)
        out_ids, out_cidx, out_text, out_nw = [], [], [], []
        k = 0
        while True:
            start = k * stride
            sel = np.nonzero(n > start)[0]
            if not len(sel):
                break
            sub = lst.take(pa.array(sel, pa.int64()))
            sliced = pc.list_slice(sub, start=start, stop=start + size)
            # separator typed to the item type: binary_join has no kernel
            # for (list<large_string>, string) — large_string text (the
            # extracted store) needs a large_string separator
            sep = pa.scalar(" ", type=sliced.type.value_type)
            out_text.append(pc.binary_join(sliced, sep))
            out_ids.append(ids_np[sel])
            out_cidx.append(np.full(len(sel), k, dtype=np.int64))
            out_nw.append(np.minimum(size, n[sel] - start))
            k += 1
        if not out_ids:
            return pa.table(
                {
                    id_col: pa.array([], pa.int64()),
                    "chunk_id": pa.array([], pa.int64()),
                    "chunk_text": pa.array([], pa.string()),
                    "n_words": pa.array([], pa.int64()),
                }
            )
        return pa.table(
            {
                id_col: pa.array(np.concatenate(out_ids)),
                "chunk_id": pa.array(np.concatenate(out_cidx), pa.int64()),
                "chunk_text": pa.concat_arrays(
                    [a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a
                     for a in out_text]
                ),
                "n_words": pa.array(np.concatenate(out_nw), pa.int64()),
            }
        )

    return ds.map_batches(_chunk, batch_format="pyarrow")

# Unicode hygiene: CC-Net (Wenzek et al. 2020 §3.1) lowercases and
# NFC-normalizes every page before dedup so byte-level variants of the
# same text (composed vs decomposed accents, stray whitespace runs) hash
# identically. Rule order is part of the contract and mirrors the DuckDB
# twin exactly: lower → NFC → collapse \s+ runs → trim.
_ASCII_RE = r"^[\x00-\x7F]*$"


def unicode_clean(ds, col: str, out_col: str | None = None):
    """Vectorized Unicode normalization pass (lower + NFC + whitespace
    collapse + trim) producing ``out_col`` (default ``<col>_clean``).

    Kernel note: this pyarrow build's ``utf8_normalize`` never applies the
    canonical COMPOSE step (all four forms return decomposed output —
    verified at build time), so NFC falls back to one ``unicodedata``
    C call per row — but ONLY on the non-ASCII rows: ASCII is closed
    under NFC, and the ASCII mask is one vectorized RE2 pass. On real
    web text the non-ASCII minority bounds the per-row work; lowercase
    and whitespace collapse stay Arrow kernels end-to-end. Nulls pass
    through as nulls (SQL semantics).
    """
    import unicodedata

    import pyarrow.compute as pc

    out_col = out_col or f"{col}_clean"

    def _clean(t: pa.Table) -> pa.Table:
        u = pc.utf8_lower(t[col])
        if isinstance(u, pa.ChunkedArray):
            u = u.combine_chunks()
        ascii_ok = pc.fill_null(
            pc.match_substring_regex(u, _ASCII_RE), True
        ).to_numpy(zero_copy_only=False).astype(bool)
        idx_bad = np.flatnonzero(~ascii_ok)
        if len(idx_bad):
            # only the non-ASCII subset is ever materialized in Python —
            # the ASCII majority stays zero-copy Arrow and the two halves
            # reassemble with one permutation take. Output keeps the input
            # offset width (the extracted store is large_string; a silent
            # string() downcast re-raises the int32-offset hazard the
            # segment ops already fixed).
            sub = u.take(pa.array(idx_bad, pa.int64()))
            norm = pa.array(
                [
                    None if v is None else unicodedata.normalize("NFC", v)
                    for v in sub.to_pylist()
                ],
                type=u.type,
            )
            idx_ok = np.flatnonzero(ascii_ok)
            combined = pa.concat_arrays(
                [u.take(pa.array(idx_ok, pa.int64())), norm]
            )
            inv = np.empty(len(u), dtype=np.int64)
            inv[np.concatenate([idx_ok, idx_bad])] = np.arange(
                len(u), dtype=np.int64
            )
            u = combined.take(pa.array(inv, pa.int64()))
        u = pc.replace_substring_regex(u, r"\s+", " ")
        u = pc.utf8_trim_whitespace(u)
        return t.append_column(out_col, u)

    return ds.map_batches(_clean, batch_format="pyarrow")


def _pmi_top(tbl, min_count: int, k: int) -> pa.Table:
    """Top-``k`` (gram, n, pmi_e4) of a bigram count table, grams below
    ``min_count`` dropped (see :func:`collocations_pmi`)."""
    if tbl is None or tbl.num_rows == 0:  # no bigrams anywhere
        return pa.table({
            "gram": pa.array([], pa.string()),
            "n": pa.array([], pa.int64()),
            "pmi_e4": pa.array([], pa.int64()),
        })
    grams = tbl["gram"].to_pandas()
    n = tbl["n"].to_numpy(zero_copy_only=False).astype(np.int64)
    split = grams.str.split(" ", n=1)
    prev = split.str[0].to_numpy()
    cur = split.str[1].to_numpy()
    nf = n.astype(np.float64)
    cl = pd.Series(nf).groupby(prev).sum()
    cr = pd.Series(nf).groupby(cur).sum()
    total = nf.sum()
    # ops order mirrors the SQL twin: ((N * n) / cl) / cr, all float64
    ratio = ((total * nf) / cl.reindex(prev).to_numpy()) \
        / cr.reindex(cur).to_numpy()
    pmi_e4 = np.floor(np.log(ratio) * 10000 + 0.5).astype(np.int64)
    out = pd.DataFrame({"gram": grams, "n": n, "pmi_e4": pmi_e4})
    out = out[out["n"] >= min_count]
    out = out.sort_values(["pmi_e4", "gram"], ascending=[False, True],
                          kind="mergesort").head(k)
    return pa.Table.from_pandas(
        out.reset_index(drop=True), preserve_index=False
    ).replace_schema_metadata(None)


def collocations_pmi(ds, text_col: str = "text", min_count: int = 5,
                     k: int = 50):
    """Top-k bigram collocations by pointwise mutual information — the
    corpus-analysis pass behind phrase mining / tokenizer merge seeding
    (Church & Hanks 1990). PMI over bigram-position marginals:
    ``pmi = ln((N * c(ab)) / (cl(a) * cr(b)))`` with cl/cr = left/right
    marginal counts and N = total bigram positions; grams below
    ``min_count`` are noise-gated. Deterministic order: (pmi desc, gram
    asc), fixed-point e4 so the DuckDB twin hash-matches.

    Scale shape: the corpus collapses to the distinct-bigram count table
    (vocabulary-bound, tree-reduced off the driver by
    :func:`bigram_count_ref`); marginals + PMI + top-k run in ONE remote
    task over that table — the corpus is read exactly once and nothing
    corpus-sized crosses an exchange.
    """
    import ray.data as rd

    from ocr_suite_ray.state.dupset import remote_fn

    ref = bigram_count_ref(ds, text_col)
    return rd.from_arrow_refs([remote_fn(_pmi_top).remote(ref, min_count, k)])
