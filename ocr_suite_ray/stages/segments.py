"""Segment-granular corpus ops: paragraph-level dedup, within-doc repeated-
segment removal, and inverted-index (postings) construction.

A *segment* is a non-overlapping ``w``-word window of a document (the last
window may be short) — the unit CC-Net-style pipelines deduplicate at
("remove paragraphs duplicated across the corpus", Wenzek et al. 2020) and
Gopher-style repetition rules clean within a document (Rae et al. 2021).
Web text carries real paragraph boundaries; the synthetic corpus has none,
so the fixed word window stands in — the Ray plumbing (segment explode,
corpus-wide dup-set build, broadcast filter, reassembly) is identical.

Scale shapes (all three ops):

- The corpus is never shuffled. Segmentation, filtering and reassembly are
  per-batch Arrow kernels (one ``split_pattern`` + zero-copy list
  re-windowing — no per-row Python).
- The only global state is a reduced artifact broadcast once: the
  duplicated-segment table (dup-rate bound) for :func:`paragraph_dedup`
  and :func:`grouped_paragraph_dedup`, from the keyed dup reduce
  (:func:`~ocr_suite_ray.state.dupset.keyed_dup_reduce`), and the
  df-admitted term table (vocab bound) for :func:`term_postings`, from
  :func:`~ocr_suite_ray.state.dupset.coalesce_reduce`. Each is read
  through the per-worker ``cached_build`` broadcast cache.
- :func:`segment_dedup_within` needs no global state at all — embarrassingly
  parallel.

Reference analogue: the dedup/"already-processed" filters of the reference
(``src/ocr/service.cpp`` ``is_frame_processed``; newest-capture-wins in
``stages/dedup.py``) applied at sub-document granularity.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def segment_table(texts, w: int):
    """Non-overlapping ``w``-word segments of every row, vectorized.

    Returns ``(row_of, within, segs)``: int64 row index per segment, the
    segment's 0-based index within its row, and a ``pa.StringArray`` of the
    space-joined segment texts. A row always yields at least one segment
    (``"".split(" ") == [""]``), so reassembly never loses rows.

    One ``split_pattern`` + one zero-copy ``ListArray`` re-window over the
    flat token array + one ``binary_join`` — the flatten-plus-offsets shape
    of ``text_ops._tokens``; no per-row Python.
    """
    import pyarrow.compute as pc

    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    if pa.types.is_large_string(texts.type):
        # the extracted store carries large_string text; one per-block cast
        # keeps every downstream array (flat tokens, seg join separator,
        # partial-table schemas across blocks) uniformly `string`. Valid
        # because the int32 re-window offsets below already require a
        # block's flat text < 2^31 chars (Ray blocks are ~128 MB).
        texts = texts.cast(pa.string())
    lst = pc.split_pattern(texts, " ")
    flat = pc.list_flatten(lst)
    off = lst.offsets.to_numpy().astype(np.int64)
    off = off - off[0]
    n_tok = off[1:] - off[:-1]
    k = (n_tok + w - 1) // w  # segments per row (>= 1: every row has a token)
    total = int(k.sum())
    if total == 0:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            pa.array([], pa.string()),
        )
    row_of = np.repeat(np.arange(len(k), dtype=np.int64), k)
    cum = np.concatenate(([0], np.cumsum(k)[:-1]))
    within = np.arange(total, dtype=np.int64) - np.repeat(cum, k)
    starts = off[:-1][row_of] + within * w
    # rows tile the flat array contiguously, so segment starts plus the
    # global end form a valid monotone offsets vector
    offsets = np.append(starts, off[-1]).astype(np.int32)
    seg_list = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), flat)
    segs = pc.binary_join(seg_list, " ")
    if isinstance(segs, pa.ChunkedArray):
        segs = segs.combine_chunks()
    return row_of, within, segs


def seg_hash_table(texts, w: int):
    """64-bit digests of the non-overlapping ``w``-word segments of every
    row — NO segment-string materialization. Returns ``(row_of, seg_len,
    flat_tokens, hashes)``: int64 row index per segment, the segment's
    token count, the block's flat token array (``pa.StringArray``), and a
    uint64 digest per segment.

    Same segmentation as :func:`segment_table` (asserted equal by unit
    test), same hash family as ``dedup_text._fast_gram_hashes``: tokens
    hashed per block-DISTINCT string (pandas' C hasher over the
    dictionary), each segment a multiply-add rolling combine of its <= w
    token hashes + a SplitMix64 finalize — O(w) vectorized passes. The
    10x profile of the exact path spent most of its wall building and
    probing ~185M joined segment strings per pass; this kernel removes
    every one of those allocations.
    """
    import pandas as pd
    import pyarrow.compute as pc

    from ocr_suite_ray.stages.dedup_text import _mix64

    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    if pa.types.is_large_string(texts.type):
        texts = texts.cast(pa.string())
    lst = pc.split_pattern(texts, " ")
    flat = pc.list_flatten(lst)
    off = lst.offsets.to_numpy().astype(np.int64)
    off = off - off[0]
    n_tok = off[1:] - off[:-1]
    k = (n_tok + w - 1) // w
    total = int(k.sum())
    if total == 0:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            flat,
            np.empty(0, dtype=np.uint64),
        )
    row_of = np.repeat(np.arange(len(k), dtype=np.int64), k)
    cum = np.concatenate(([0], np.cumsum(k)[:-1]))
    within = np.arange(total, dtype=np.int64) - np.repeat(cum, k)
    starts = off[:-1][row_of] + within * w
    seg_len = np.minimum(starts + w, off[1:][row_of]) - starts
    enc = flat.dictionary_encode()
    if isinstance(enc, pa.ChunkedArray):
        enc = enc.combine_chunks()
    dh = pd.util.hash_array(enc.dictionary.to_numpy(zero_copy_only=False))
    th = dh[enc.indices.to_numpy(zero_copy_only=False)]
    M = np.uint64(0x9E3779B97F4A7C15)
    h = np.zeros(total, dtype=np.uint64)
    for j in range(w):
        m = seg_len > j
        h[m] = h[m] * M + th[starts[m] + j]
    return row_of, seg_len, flat, _mix64(h)


def rejoin_kept_tokens(
    flat, row_of: np.ndarray, seg_len: np.ndarray, keep: np.ndarray, n_rows: int
):
    """Space-rejoin the tokens of the kept segments per row, straight from
    the flat token array (the hash64 path's rejoin — equivalent to
    :func:`rejoin_segments` because segments ARE space-joined token runs,
    but never materializes a segment string). Returns
    ``(texts: pa.StringArray, n_dropped: np.ndarray)``."""
    import pyarrow.compute as pc

    tok_keep = np.repeat(keep, seg_len)
    kept_flat = flat.filter(pa.array(tok_keep))
    tok_counts = np.zeros(n_rows, dtype=np.int64)
    np.add.at(tok_counts, row_of[keep], seg_len[keep])
    offsets = np.concatenate(([0], np.cumsum(tok_counts))).astype(np.int32)
    joined = pc.binary_join(
        pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), kept_flat), " "
    )
    n_dropped = np.bincount(row_of[~keep], minlength=n_rows).astype(np.int64)
    if isinstance(joined, pa.ChunkedArray):
        joined = joined.combine_chunks()
    joined = pc.fill_null(joined, "")
    return joined, n_dropped


def rejoin_segments(segs, row_of: np.ndarray, keep: np.ndarray, n_rows: int):
    """Space-rejoin the kept segments per row (original order preserved).
    Rows with every segment dropped become ``''``. Returns
    ``(texts: pa.StringArray, n_dropped: np.ndarray)``."""
    import pyarrow.compute as pc

    kept = segs.filter(pa.array(keep))
    counts = np.bincount(row_of[keep], minlength=n_rows)
    offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int32)
    joined = pc.binary_join(
        pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), kept), " "
    )
    n_dropped = np.bincount(row_of[~keep], minlength=n_rows).astype(np.int64)
    if isinstance(joined, pa.ChunkedArray):
        joined = joined.combine_chunks()
    # binary_join of an empty list yields null; the removed-everything row
    # is the empty document, not a missing one
    joined = pc.fill_null(joined, "")
    return joined, n_dropped


def c4_line_signals(
    batch: pa.Table,
    id_col: str = "doc_id",
    text_col: str = "text",
    min_words: int = 3,
    min_kept_lines: int = 5,
) -> pa.Table:
    """C4-style line-level cleaning signals (Raffel et al. 2020, §2.2 —
    the documented public rule set), one Arrow pass per batch:

    per line (``"\\n"``-split):
      - keep only lines ending in terminal punctuation (``. ! ? "``)
      - keep only lines with >= ``min_words`` words (single-space split)
      - drop lines containing "javascript" (case-insensitive)
    per page:
      - drop pages containing "lorem ipsum" (case-insensitive)
      - drop pages containing "{" (code/markup tell)
      - drop pages with fewer than ``min_kept_lines`` surviving lines

    Emits ``(id, text, n_lines, n_kept, keep)`` where ``text`` is the
    kept lines re-joined with ``"\\n"`` (original order; ``""`` when all
    lines drop). Every rule is a C kernel over the flat line array
    (``split_pattern`` + ``match_substring[_regex]`` + ``count_substring``
    + zero-copy list rejoin) — no per-row Python. Embarrassingly
    parallel: one ``map_batches`` pass, no shuffle, so at corpus scale it
    rides data parallelism exactly like :func:`segment_dedup_within`.

    Word counting matches SQL ``len(str_split(line, ' '))`` (empty line
    counts one empty word) so the DuckDB twin is byte-exact. Reference
    analogue: the min-confidence / min-length gates of the reference's
    recognition loop (``ocr.cpp`` options) applied at line granularity.
    """
    import pyarrow.compute as pc

    texts = batch[text_col]
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    if pa.types.is_large_string(texts.type):
        # int32-offset bound: map_batches blocks are already < 2^31 chars
        texts = texts.cast(pa.string())
    lst = pc.split_pattern(texts, "\n")
    flat = pc.list_flatten(lst)
    off = lst.offsets.to_numpy().astype(np.int64)
    off = off - off[0]
    n_lines = off[1:] - off[:-1]
    n_rows = len(n_lines)
    endp = pc.match_substring_regex(flat, '[.!?"]$').to_numpy(
        zero_copy_only=False
    )
    words = pc.add(pc.count_substring(flat, " "), 1).to_numpy().astype(np.int64)
    js = pc.match_substring(flat, "javascript", ignore_case=True).to_numpy(
        zero_copy_only=False
    )
    lkeep = endp & (words >= min_words) & ~js
    row_of = np.repeat(np.arange(n_rows, dtype=np.int64), n_lines)
    kept = flat.filter(pa.array(lkeep))
    counts = np.bincount(row_of[lkeep], minlength=n_rows)
    offs = np.concatenate(([0], np.cumsum(counts))).astype(np.int32)
    joined = pc.binary_join(
        pa.ListArray.from_arrays(pa.array(offs, pa.int32()), kept), "\n"
    )
    if isinstance(joined, pa.ChunkedArray):
        joined = joined.combine_chunks()
    joined = pc.fill_null(joined, "")
    n_kept = counts.astype(np.int64)
    # fill_null(False): a null text row must gate like an empty doc, not
    # crash the batch on ~None (segment_table already treats it as k=0)
    lorem = pc.fill_null(
        pc.match_substring(texts, "lorem ipsum", ignore_case=True), False
    ).to_numpy(zero_copy_only=False)
    brace = pc.fill_null(
        pc.match_substring(texts, "{"), False
    ).to_numpy(zero_copy_only=False)
    keep = (~lorem) & (~brace) & (n_kept >= min_kept_lines)
    return pa.table(
        {
            id_col: batch[id_col],
            "text": joined,
            "n_lines": pa.array(n_lines, pa.int64()),
            "n_kept": pa.array(n_kept, pa.int64()),
            "keep": pa.array(keep),
        }
    )


def c4_line_filter(
    ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    min_words: int = 3,
    min_kept_lines: int = 5,
):
    """C4 cleaning as a dataset stage: :func:`c4_line_signals` per batch,
    then keep only surviving pages (``keep`` column dropped). Streaming,
    shuffle-free."""
    import pyarrow.compute as pc

    def _gate(t: pa.Table) -> pa.Table:
        out = c4_line_signals(
            t,
            id_col=id_col,
            text_col=text_col,
            min_words=min_words,
            min_kept_lines=min_kept_lines,
        )
        return out.filter(pc.equal(out["keep"], True)).drop_columns(["keep"])

    return ds.map_batches(_gate, batch_format="pyarrow")


def segment_dedup_within(ds, id_col: str = "doc_id", text_col: str = "text", w: int = 2):
    """Within-document repeated-segment removal (Gopher-style repetition
    cleaning): drop every segment equal to an EARLIER segment of the same
    document, reassemble the survivors in order. Emits
    ``(id_col, text_dedup, n_dropped)``.

    No global state, no shuffle — one streaming ``map_batches`` pass. The
    first-occurrence scan is a dictionary-encode + int-composite
    ``duplicated`` (C hash passes), not a per-row set.
    """
    import pandas as pd
    import pyarrow.compute as pc

    def _clean(t: pa.Table) -> pa.Table:
        row_of, _within, segs = segment_table(t[text_col], w)
        enc = pc.dictionary_encode(segs)
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        n_dict = len(enc.dictionary)
        composite = row_of * max(n_dict, 1) + codes
        keep = ~pd.Series(composite).duplicated().to_numpy()
        texts, n_dropped = rejoin_segments(segs, row_of, keep, t.num_rows)
        return pa.table(
            {
                id_col: t[id_col],
                "text_dedup": texts,
                "n_dropped": pa.array(n_dropped, pa.int64()),
            }
        )

    return ds.map_batches(_clean, batch_format="pyarrow")


def _seg_counts(keys) -> pa.Table:
    """(seg, n) per distinct segment key of one block: uint64 digests
    (numpy) or segment strings (Arrow). A null key (a null group's
    composite) is not counted, so it is never a dup."""
    import pyarrow.compute as pc

    if isinstance(keys, np.ndarray):
        vals, counts = np.unique(keys, return_counts=True)
        return pa.table(
            {
                "seg": pa.array(vals, pa.uint64()),
                "n": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )
    vc = pc.value_counts(pc.drop_null(keys))
    return pa.table(
        {"seg": vc.field("values"), "n": vc.field("counts").cast(pa.int64())}
    )


def _dup_seg_ref(ds, seg_keys):
    """ObjectRef[pa.Table | None] of the segment keys (``seg_keys(t)`` per
    block) occurring >= 2 times, SORTED: per-block (seg, n) partials through
    the keyed dup reduce, ``k`` from the partials' block row counts. The
    hash64 probe ``searchsorted``s a zero-copy plasma view of this table
    instead of each worker sorting its own copy."""
    from ocr_suite_ray.state.dupset import dup_key_fns, keyed_dup_reduce_ds

    partials = ds.map_batches(
        lambda t: _seg_counts(seg_keys(t)), batch_format="pyarrow"
    )
    return keyed_dup_reduce_ds(partials, "seg", *dup_key_fns("seg"))


def dup_segment_ref(ds, text_col: str = "text", w: int = 3, key: str = "text"):
    """ObjectRef[pa.Table | None] of segments occurring >= 2 times across
    the corpus (total occurrences, within-doc repeats included — CC-Net's
    "duplicated paragraph"), sorted. Per-block vectorized (seg, n) partials
    merged by the keyed dup reduce (``state/dupset.py``); the driver holds
    only the ref. The root table is dup-rate bound; each shard root holds
    the distinct segments of its share of the partial rows.

    ``key="text"`` (default, the sf-oracle path) keys on the exact segment
    string; ``key="hash64"`` keys on :func:`seg_hash_table`'s 64-bit
    digest — 8 bytes per distinct segment instead of the string (the 10x
    worst-case dup table shrinks ~400 MB -> ~119 MB) and no segment-string
    materialization anywhere."""
    if key == "hash64":
        return _dup_seg_ref(ds, lambda t: seg_hash_table(t[text_col], w)[3])
    return _dup_seg_ref(ds, lambda t: segment_table(t[text_col], w)[2])


def _probe_clean_stage(ds, ref, id_col, key, hash_rows, comp_rows):
    """Shared pass-2 of the paragraph-dedup family: probe the broadcast
    dup table and rebuild each doc's text from its kept segments. The
    plain and grouped variants differ ONLY in how probe keys are built:

    - ``hash_rows(t) -> (row_of, seg_len, flat, digests)`` (hash64 path:
      sorted-uint64 searchsorted probe, no segment strings);
    - ``comp_rows(t) -> (row_of, segs, probe_keys)`` (text path:
      per-worker cached pd.Index probe; probe_keys may be the segments
      themselves or a (group, segment) composite).
    """
    from ocr_suite_ray.stages._bcast import cached_build

    if key == "hash64":

        def _dup_sorted(tbl):
            if tbl is None or tbl.num_rows == 0:
                return None
            # the dup table arrives pre-sorted — zero-copy plasma view
            return tbl["seg"].combine_chunks().to_numpy(zero_copy_only=True)

        def _clean_h(t: pa.Table) -> pa.Table:
            row_of, seg_len, flat, digests = hash_rows(t)
            dup = cached_build(ref, _dup_sorted) if ref is not None else None
            if dup is None or len(dup) == 0:
                keep = np.ones(len(row_of), dtype=bool)
            else:
                pos = np.searchsorted(dup, digests)
                pos[pos == len(dup)] = 0  # any slot; equality check decides
                keep = dup[pos] != digests
            texts, n_removed = rejoin_kept_tokens(
                flat, row_of, seg_len, keep, t.num_rows
            )
            return pa.table(
                {
                    id_col: t[id_col],
                    "text_clean": texts,
                    "n_removed": pa.array(n_removed, pa.int64()),
                }
            )

        return ds.map_batches(_clean_h, batch_format="pyarrow")

    def _dup_index(tbl):
        # prebuilt per-worker hash index: pc.is_in rebuilds its value_set
        # hash table on EVERY call (~74 s/block at 10M docs); the pd.Index
        # builds once per worker, each block pays only C get_indexer probes
        import pandas as pd_mod

        if tbl is None or tbl.num_rows == 0:
            return None
        return pd_mod.Index(tbl["seg"].to_pandas())

    def _clean(t: pa.Table) -> pa.Table:
        row_of, segs, probe = comp_rows(t)
        idx = cached_build(ref, _dup_index) if ref is not None else None
        if idx is None:
            keep = np.ones(len(row_of), dtype=bool)
        else:
            keep = idx.get_indexer(probe.to_pandas()) < 0
        texts, n_removed = rejoin_segments(segs, row_of, keep, t.num_rows)
        return pa.table(
            {
                id_col: t[id_col],
                "text_clean": texts,
                "n_removed": pa.array(n_removed, pa.int64()),
            }
        )

    return ds.map_batches(_clean, batch_format="pyarrow")


def paragraph_dedup(
    ds, id_col: str = "doc_id", text_col: str = "text", w: int = 3,
    key: str = "text",
):
    """Corpus-wide duplicated-segment removal (CC-Net paragraph dedup):
    every occurrence of a segment that appears >= 2 times anywhere in the
    corpus is removed from every document. Emits
    ``(id_col, text_clean, n_removed)``.

    Two passes: (1) build the duplicated-segment table distributively and
    broadcast it once (exact membership — a Bloom false positive here would
    delete unique text, so the Bloom variant needs a confirm pass and is
    deliberately not wired); (2) one streaming ``is_in`` + reassembly pass.

    ``key="hash64"`` is the 100 TB path: both passes run on
    :func:`seg_hash_table`'s 64-bit digests — no segment string is ever
    built, the broadcast table carries 8 B/distinct-dup-segment, and the
    probe is a ``searchsorted`` over a sorted uint64 array instead of a
    string hash index. CC-Net itself dedups on hashed paragraphs (Wenzek
    et al. 2020 §3.1); the collision risk (a unique segment colliding with
    a duplicated one and being wrongly removed) is ~n_segments^2 / 2^65 —
    at 2e8 corpus segments that's ~1e-3 expected collisions corpus-wide.
    ``key="text"`` (default) stays exact and is the SQL-oracle twin.
    """
    if key not in ("text", "hash64"):
        raise ValueError(f"key must be 'text' or 'hash64', got {key!r}")
    ref = dup_segment_ref(ds, text_col, w, key=key)

    if key == "hash64":
        return _probe_clean_stage(
            ds, ref, id_col, "hash64",
            hash_rows=lambda t: seg_hash_table(t[text_col], w),
            comp_rows=None,
        )

    def _rows(t: pa.Table):
        row_of, _within, segs = segment_table(t[text_col], w)
        return row_of, segs, segs  # probe key IS the segment string

    return _probe_clean_stage(ds, ref, id_col, "text",
                              hash_rows=None, comp_rows=_rows)


def grouped_paragraph_dedup(
    ds,
    group_col: str,
    id_col: str = "doc_id",
    text_col: str = "text",
    w: int = 3,
    key: str = "text",
):
    """Within-GROUP duplicated-segment removal — the per-host boilerplate
    scrub (RefinedWeb / CC-Net practice: nav bars, footers and cookie
    banners repeat within a SITE): every occurrence of a segment that
    appears >= 2 times within the same ``group_col`` value is removed;
    the same segment appearing once each under two different groups is
    KEPT — the policy refinement of :func:`paragraph_dedup` for corpora
    where cross-site quotation is legitimate signal but within-site
    repetition is template noise. Emits ``(id_col, text_clean,
    n_removed)``.

    Same two-pass shape as :func:`paragraph_dedup`: pass 1 counts the
    (group, segment) keys and broadcasts the dup table once; pass 2
    streams. The count's key universe is (group, segment)-DISTINCT — up
    to ``n_groups`` × the global segment-distinct one — and the keyed dup
    reduce spreads it over ``k`` hash shards sized from the partials' row
    counts, so no single merge holds more than a shard's share of it.
    ``key="hash64"`` combines the segment digest with a 64-bit group hash
    (same collision argument as paragraph_dedup: ~n^2/2^65) and probes a
    pre-sorted digest view — no composite string is ever materialized.
    ``key="text"`` keys on the length-prefixed composite ``len(group) +
    US + group + US + segment`` (injective even when group or tokens
    contain US) and is the SQL-oracle twin path. A null group never
    dedups, under either key (the SQL twin's ``s.source = d.source`` never
    matches a null source): its segments are left out of the count.
    """
    import pyarrow.compute as pc

    if key not in ("text", "hash64"):
        raise ValueError(f"key must be 'text' or 'hash64', got {key!r}")

    SEP = "\x1f"
    M = np.uint64(0x9E3779B97F4A7C15)

    def _group_strings(t: pa.Table):
        g = t[group_col]
        if isinstance(g, pa.ChunkedArray):
            g = g.combine_chunks()
        if pa.types.is_large_string(g.type):
            g = g.cast(pa.string())
        return g

    def _hash_rows(t: pa.Table):
        import pandas as pd

        from ocr_suite_ray.stages.dedup_text import _mix64

        row_of, seg_len, flat, hashes = seg_hash_table(t[text_col], w)
        gh = pd.util.hash_array(
            _group_strings(t).to_numpy(zero_copy_only=False)
        )
        return row_of, seg_len, flat, _mix64(hashes * M + gh[row_of])

    def _composite_rows(t: pa.Table):
        row_of, within, segs = segment_table(t[text_col], w)
        g = _group_strings(t)
        # length-prefixed group field: "len(g) US g US segment" is
        # INJECTIVE even when the group or a token contains US itself
        # (space-split tokens keep every non-space char, and host strings
        # are arbitrary) — a bare "g US segment" would let
        # ("g", "a US b c") and ("g US a", "b c") collide and delete
        # unique text. The prefix pins where the group field ends, so
        # equal composites imply equal (group, segment); the count per
        # pair (what the SQL twin computes relationally) is unchanged.
        gkey = pc.binary_join_element_wise(
            pc.cast(pc.utf8_length(g), pa.string()), g, SEP
        )
        gtake = gkey.take(pa.array(row_of, pa.int64()))
        # null for a null group: never counted, so never probed as a dup
        comp = pc.binary_join_element_wise(gtake, segs, SEP)
        return row_of, segs, comp

    def _counted_digests(t: pa.Table):
        row_of, _seg_len, _flat, digests = _hash_rows(t)
        valid = _group_strings(t).is_valid().to_numpy(zero_copy_only=False)
        return digests[valid[row_of]]

    if key == "hash64":
        ref = _dup_seg_ref(ds, _counted_digests)
        return _probe_clean_stage(
            ds, ref, id_col, "hash64",
            hash_rows=_hash_rows, comp_rows=None,
        )
    ref = _dup_seg_ref(ds, lambda t: _composite_rows(t)[2])
    return _probe_clean_stage(ds, ref, id_col, "text",
                              hash_rows=None, comp_rows=_composite_rows)


def admitted_term_ref(ds, text_col: str, df_lo: int, df_hi: int):
    """ObjectRef[pa.Table | None] of terms whose document frequency lies in
    ``[df_lo, df_hi]`` — per-block distinct-(row, term) partials, remote
    tree sum, one filter at the root. Vocabulary-bound (natural-language
    vocabularies are millions of terms, not corpus-scale)."""
    from ocr_suite_ray.state.dupset import coalesce_reduce
    from ocr_suite_ray.stages.text_ops import _tokens

    def _partial(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        n_tok, flat, _off = _tokens(t[text_col])
        enc = pc.dictionary_encode(flat)
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        n_dict = len(enc.dictionary)
        row_of = np.repeat(np.arange(len(n_tok), dtype=np.int64), n_tok)
        uniq = np.unique(row_of * max(n_dict, 1) + codes)
        df = np.bincount(uniq % max(n_dict, 1), minlength=n_dict)
        return pa.table(
            {"term": enc.dictionary, "df": pa.array(df, pa.int64())}
        )

    def _combine(t: pa.Table) -> pa.Table:
        g = t.group_by("term").aggregate([("df", "sum")])
        return pa.table({"term": g["term"], "df": g["df_sum"]})

    def _final(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        m = pc.and_(
            pc.greater_equal(t["df"], df_lo), pc.less_equal(t["df"], df_hi)
        )
        return t.filter(m).select(["term"])

    partials = ds.map_batches(_partial, batch_format="pyarrow")
    return coalesce_reduce(partials, _combine, _final, materialize=False)


def term_postings(
    ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    df_lo: int = 2,
    df_hi: int = 1_000_000,
):
    """Inverted-index construction: ``(term, doc_id, tf)`` postings for every
    term whose corpus document frequency lies in ``[df_lo, df_hi]`` (the df
    band drops hapaxes and stop-words — the classic index-size control).

    The df table is tree-reduced and the admitted term set broadcast once;
    the postings pass is one streaming ``is_in`` + composite-key
    ``np.unique`` per batch. The corpus is never shuffled; postings stream
    out partitioned exactly like their source blocks (sort/partition by term
    downstream if a term-clustered index layout is needed).
    """
    import pyarrow.compute as pc

    from ocr_suite_ray.stages._bcast import cached_build
    from ocr_suite_ray.stages.text_ops import _tokens

    ref = admitted_term_ref(ds, text_col, df_lo, df_hi)

    def _postings(t: pa.Table) -> pa.Table:
        # empty result carries the INPUT id type so empty and non-empty
        # blocks always agree on schema
        empty = pa.table(
            {
                "term": pa.array([], pa.string()),
                id_col: pa.array([], t.schema.field(id_col).type),
                "tf": pa.array([], pa.int64()),
            }
        )
        # per-worker cached pd.Index: pc.is_in rebuilds its value-set hash
        # table on EVERY call (the paragraph_dedup 10x lesson: ~74 s/block
        # against a corpus-scale set); get_indexer probes a prebuilt index
        def _term_index(tbl):
            import pandas as pd

            if tbl is None or tbl.num_rows == 0:
                return None
            return pd.Index(tbl["term"].to_pandas())

        idx = cached_build(ref, _term_index) if ref is not None else None
        if idx is None:
            return empty
        n_tok, flat, _off = _tokens(t[text_col])
        hit_np = idx.get_indexer(flat.to_pandas()) >= 0
        hit = pa.array(hit_np)
        if not hit_np.any():
            return empty
        enc = pc.dictionary_encode(flat.filter(hit))
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        n_dict = len(enc.dictionary)
        row_of = np.repeat(np.arange(len(n_tok), dtype=np.int64), n_tok)[hit_np]
        uniq, tf = np.unique(row_of * n_dict + codes, return_counts=True)
        rows = pa.array(uniq // n_dict, pa.int64())
        terms = enc.dictionary.take(pa.array(uniq % n_dict, pa.int64()))
        ids = t[id_col].combine_chunks().take(rows)
        return pa.table(
            {
                "term": terms,
                id_col: ids,
                "tf": pa.array(tf.astype(np.int64), pa.int64()),
            }
        )

    return ds.map_batches(_postings, batch_format="pyarrow")
