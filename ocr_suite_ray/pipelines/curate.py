"""Post-extraction corpus curation over the final store — the bridge from
"extracted web pages" to "training-ready text shards".

Chains the hygiene operators over ``<out>/final``: ok-status gate →
quality gate → exact text dedup (keep the lexicographically-first url per
distinct text) → unigram-LM score annotation → optional deterministic
subsample — then writes partitioned parquet (one directory per hash bucket
of the TEXT — the post-dedup row identity IS the distinct text, so a
reader can address the single shard a given text can live in; a re-run replaces the output atomically: the write lands in
a fresh staging directory that is renamed over the previous one).

Reference analogue: the viewer's export path (SURVEY §3) — the reference
stops at the recognition DB; a training-data engine must also emit the
curated corpus. All steps reuse the queries()-tested kernels
(``text_ops.quality_score``, ``text_ops.lm_scores``, keyed top-1 dedup),
so the CLI surface inherits their oracle-checked semantics.
"""

from __future__ import annotations

import os


def _split_artifacts(t):
    """(text hash -> winner url) of the repeated texts and the vocab
    counts, out of the keyed dup reduce's kind-tagged result."""
    import pyarrow.compute as pc

    if t is None:
        return None, None
    dups = t.filter(pc.equal(t["kind"], 0)).select(["s", "u"])
    vocab = t.filter(pc.equal(t["kind"], 1)).select(["s", "n"])
    return dups, vocab.rename_columns(["tok", "n"])


def run_curation(
    final_dir: str,
    out_dir: str,
    quality_min: int = 70,
    sample_e4: int | None = None,
    n_buckets: int = 16,
) -> dict:
    """Returns a summary dict: rows out + output dir.

    100-TB shape — ZERO corpus shuffles (rewritten after a 10M-doc run
    showed the previous keyed top-1 reduce pushing the full text corpus
    through a sort exchange, BASELINE.md round-3 section):

    1. ONE fused narrow pass over the ok rows builds BOTH broadcast
       artifacts (the curation_v2 fusion pattern): per-block partials
       tagged by kind — kind 1 = unigram counts for the LM, kind 0 = per
       text-hash (count, min url) — merge in the keyed dup reduce
       (``state/dupset.py``: sharded by ``s``, shard count from the
       partials' row counts, output independent of it), whose shard roots
       keep only vocab rows and repeated text hashes. A worker task splits
       the result into (a) the dup-winner table (DUP-RATE bound, the
       flagship dup-set contract) and (b) the vocab count table. Text
       payloads never leave their read tasks.
    2. ONE enrichment + filter + write pass: quality, LM score, text hash
       per batch; keep a row iff quality passes AND (its text is unique OR
       this url IS the winner). Exact dedup (keep lexicographically-first
       url per distinct text) holds because quality is a pure function of
       text — every copy of a text gates identically. The optional
       ``sample_e4`` url-hash subsample applies after dedup.

    The write lands in a staging directory renamed over the previous
    output (atomic re-run).
    """
    import hashlib as _hl

    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from ocr_suite_ray.stages.text_ops import _tokens, lm_scores, quality_score
    from ocr_suite_ray.state.dupset import keyed_dup_reduce_ds, remote_fn

    # crash recovery: a kill inside the promote's two-rename window (below)
    # leaves the previous output parked at .old with the published path
    # absent — restore it first so readers see the prior curated set while
    # this run recomputes
    _old = out_dir.rstrip("/") + ".old"
    if not os.path.exists(out_dir) and os.path.exists(_old):
        os.replace(_old, out_dir)

    ds = rd.read_parquet(final_dir, columns=["url", "text", "status"])

    def _ok(t: pa.Table) -> pa.Table:
        return t.filter(pc.equal(t["status"], "ok"))

    ok = ds.map_batches(_ok, batch_format="pyarrow")

    # ---- pass 1 (fused artifacts): kind 0 = (text_hash, n, min url),
    # kind 1 = (token, count, "") ------------------------------------
    def _partial(t: pa.Table) -> pa.Table:
        if not len(t):
            return pa.table(
                {
                    "kind": pa.array([], pa.int32()),
                    "s": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                    "u": pa.array([], pa.string()),
                }
            )
        _nt, flat, _off = _tokens(t["text"])
        vc = pc.value_counts(flat)
        texts = t["text"].to_pylist()
        th = [_hl.md5(x.encode()).hexdigest() for x in texts]
        g = (
            pd.DataFrame({"s": th, "u": t["url"].to_pylist()})
            .groupby("s", as_index=False)
            .agg(n=("u", "size"), u=("u", "min"))
        )
        return pa.table(
            {
                "kind": pa.array(
                    np.concatenate(
                        [np.zeros(len(g), np.int32), np.ones(len(vc), np.int32)]
                    ),
                    pa.int32(),
                ),
                "s": pa.concat_arrays(
                    [
                        pa.array(g["s"], pa.string()),
                        vc.field("values").cast(pa.string()),
                    ]
                ),
                "n": pa.concat_arrays(
                    [
                        pa.array(g["n"].to_numpy(np.int64), pa.int64()),
                        vc.field("counts").cast(pa.int64()),
                    ]
                ),
                "u": pa.concat_arrays(
                    [pa.array(g["u"], pa.string()), pa.array([""] * len(vc))]
                ),
            }
        )

    def _merge(t: pa.Table) -> pa.Table:
        g = t.group_by(["kind", "s"]).aggregate([("n", "sum"), ("u", "min")])
        # select by NAME first: pyarrow group_by output order is
        # release-fragile (the _tree_keyed_sum rule)
        return g.select(["kind", "s", "n_sum", "u_min"]).rename_columns(
            ["kind", "s", "n", "u"]
        )

    def _vocab_or_repeated(t: pa.Table) -> pa.Table:
        return t.filter(pc.or_(pc.equal(t["kind"], 1), pc.greater(t["n"], 1)))

    combined_ref = keyed_dup_reduce_ds(
        ok.map_batches(_partial, batch_format="pyarrow"),
        "s",
        _merge,
        _vocab_or_repeated,
    )

    split = remote_fn(_split_artifacts).options(num_returns=2)
    dup_ref, counts_ref = split.remote(combined_ref)

    # ---- pass 2: enrich + gate + dedup-filter + write ----------------
    def _final(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "url": pa.array([], pa.string()),
                "text": pa.array([], pa.large_string()),
                "quality": pa.array([], pa.int64()),
                "lm_score_e4": pa.array([], pa.int64()),
                "bucket": pa.array([], pa.int32()),
            }
        )
        if not len(t):
            return empty
        q = quality_score(
            t.append_column("doc_id", pa.array(np.arange(len(t)), pa.int64()))
        )
        lm = lm_scores(t["text"], counts_ref)
        texts = t["text"].to_pylist()
        th = [_hl.md5(x.encode()).hexdigest() for x in texts]
        urls = np.asarray(t["url"].to_pylist(), dtype=object)

        def _dup_series(tbl):
            # per-worker cached winner index (rebuilding the Series per
            # batch paid two to_pylist passes + an O(dups) hash build on
            # every block)
            if tbl is None or tbl.num_rows == 0:
                return None
            return pd.Series(tbl["u"].to_pylist(), index=tbl["s"].to_pylist())

        from ocr_suite_ray.stages._bcast import cached_build

        w = cached_build(dup_ref, _dup_series)
        if w is not None:
            wu = w.reindex(th).to_numpy()
            keep_dup = pd.isna(wu) | (wu == urls)
        else:
            keep_dup = np.ones(len(t), dtype=bool)
        bucket = np.array([int(h[:8], 16) % n_buckets for h in th], dtype=np.int32)
        out = pa.table(
            {
                "url": pc.cast(t["url"], pa.string()),
                "text": t["text"],
                "quality": q["quality"],
                "lm_score_e4": pa.array(lm, pa.int64()),
                "bucket": pa.array(bucket, pa.int32()),
            }
        )
        mask = pc.and_(
            pc.greater_equal(out["quality"], quality_min), pa.array(keep_dup)
        )
        if sample_e4 is not None:
            from ocr_suite_ray.functions.hashing import md5_mod

            mask = pc.and_(mask, pa.array(md5_mod(urls, 10000) < sample_e4))
        out = out.filter(mask)
        return out if out.num_rows else empty

    kept = ok.map_batches(_final, batch_format="pyarrow")

    import shutil

    staging = out_dir.rstrip("/") + ".staging"
    shutil.rmtree(staging, ignore_errors=True)
    os.makedirs(staging, exist_ok=True)
    kept.write_parquet(staging, partition_cols=["bucket"])
    # Near-atomic promote: the previous output is renamed aside FIRST, so a
    # crash never leaves a half-written dir at the published path and never
    # loses data — but POSIX has no two-dir RENAME_EXCHANGE, so there IS a
    # brief window between the two renames where out_dir is absent (old
    # output parked at .old). A crash inside that window is healed by the
    # restore at the top of this function on the next run.
    old = out_dir.rstrip("/") + ".old"
    shutil.rmtree(old, ignore_errors=True)
    if os.path.exists(out_dir):
        os.replace(out_dir, old)
    os.replace(staging, out_dir)
    shutil.rmtree(old, ignore_errors=True)

    import pyarrow.dataset as pads

    n_out = pads.dataset(out_dir, partitioning="hive").count_rows()
    return {"rows_out": int(n_out), "out_dir": out_dir}
