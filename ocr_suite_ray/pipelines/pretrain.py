"""End-to-end pre-training data prep: the full funnel from an extracted
web store to packed training shards, one CLI/API call.

    final store (extract)                      ok rows only
      -> unicode_clean                         (CC-Net hygiene: lower+NFC+ws)
      -> Gopher quality gate                   (documented rule set)
      -> exact dedup, keep-first-url           (over the CLEANED text, so
                                                byte-variant pages collapse)
      -> decontamination vs an eval corpus     (distinct 5-gram hits = drop)
      -> leakage-safe host split               (train/val/test by md5(host))
      -> staging parquet, split-partitioned    (atomic promote; a crashed
                                                run restarts from scratch —
                                                promote is atomic, the
                                                staging passes are not
                                                checkpointed)
      -> per-split packed uint32 token shards  (vocab from TRAIN only)

Scale shape (the curate.py contract, extended):

- Pass A builds the two broadcast artifacts over ONE fused narrow read:
  the dup-winner table ((clean-text hash, min url), count>1 subset only —
  dup-rate bound) and, when an eval corpus is given, its distinct-gram
  set (eval-sized). Text never leaves the read tasks; the winner table
  merges in the keyed dup reduce (``state/dupset.py``), the gram set in
  a remote tree, and both are broadcast once.
- Pass B streams the store exactly once more: clean, gate, dedup-filter,
  decon-filter, split-assign, write split-partitioned staging parquet.
  No shuffle — every decision is a pure function of the row + the
  broadcast artifacts.
- Pass C exports each split as packed token shards (the only sort/shuffle
  of the pipeline, inside ``export_token_shards`` — packing order is the
  semantics). The id vocabulary is built from the TRAIN split alone so
  val/test token statistics never leak into the mapping.

Funnel counts come from the written outputs (one count per stage output,
never a driver-side row loop); the flagship-scale equivalent is lineage
``stage_metrics``.

Reference analogue: this is the batch generalization of the reference's
end-to-end video -> recognized-text -> queryable-store loop
(``src/ocr/ocr.cpp`` main pipeline) to the training-data product.
"""

from __future__ import annotations

import hashlib
import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa


def run_pretrain_prep(
    final_dir: str,
    out_dir: str,
    eval_ds=None,
    *,
    seq_len: int = 2048,
    seqs_per_shard: int = 8192,
    train_pct: int = 90,
    val_pct: int = 5,
    decon_n: int = 5,
    gram_key: str = "exact",
    near_dup: str | None = None,
) -> dict:
    import pyarrow.compute as pc
    import ray
    import ray.data as rd

    if not (0 <= train_pct and 0 <= val_pct and train_pct + val_pct <= 100):
        raise ValueError(
            f"train_pct + val_pct must be within [0, 100] "
            f"(got {train_pct} + {val_pct})"
        )

    from ocr_suite_ray.functions.hashing import md5_mod
    from ocr_suite_ray.sources.token_shards import (
        export_token_shards,
        tokenize_ids,
    )
    from ocr_suite_ray.stages.contamination import (
        eval_gram_ref,
        ngram_hit_counts,
    )
    from ocr_suite_ray.stages.text_ops import (
        extract_hosts,
        gopher_signals,
        unicode_clean,
        unigram_count_ref,
    )
    from ocr_suite_ray.state.dupset import keyed_dup_reduce_ds

    staging = out_dir.rstrip("/") + ".staging"
    old = out_dir.rstrip("/") + ".old"
    if not os.path.exists(out_dir) and os.path.exists(old):
        os.replace(old, out_dir)  # crash inside a previous promote window
    shutil.rmtree(staging, ignore_errors=True)

    def _ok_clean(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["status"], "ok"))
        return pa.table({"url": t["url"], "text": t["text"]})

    def _clean_ds():
        ds = rd.read_parquet(final_dir, columns=["url", "text", "status"])
        return unicode_clean(
            ds.map_batches(_ok_clean, batch_format="pyarrow"),
            "text", out_col="text_clean",
        )

    # ---- pass A: dup-winner artifact over the CLEANED text ----------
    def _winner_partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "h": [hashlib.md5(x.encode()).hexdigest()
                  for x in t["text_clean"].to_pylist()],
            "url": t["url"].to_pandas(),
        })
        g = df.groupby("h", as_index=False).agg(
            n=("url", "size"), url=("url", "min")
        )
        return pa.Table.from_pandas(g, preserve_index=False).replace_schema_metadata(None)

    def _winner_merge(t: pa.Table) -> pa.Table:
        df = t.to_pandas().groupby("h", as_index=False).agg(
            n=("n", "sum"), url=("url", "min")
        )
        return pa.Table.from_pandas(df, preserve_index=False).replace_schema_metadata(None)

    def _winner_root(t: pa.Table) -> pa.Table:
        # dup-rate bound: only hashes seen more than once gate anything
        return t.filter(pc.greater(t["n"], 1)).select(["h", "url"])

    # sharded by text hash; each shard root keeps its repeated hashes
    winners_ref = keyed_dup_reduce_ds(
        _clean_ds().map_batches(_winner_partial, batch_format="pyarrow"),
        "h",
        _winner_merge,
        _winner_root,
    )
    # the eval corpus is normalized through the SAME hygiene pass as the
    # corpus being gated — decontamination over cleaned text with raw eval
    # grams would silently match nothing (case/whitespace variants)
    grams_ref = (
        eval_gram_ref(
            unicode_clean(eval_ds, "text"), "text_clean", decon_n,
            gram_key=gram_key,
        )
        if eval_ds is not None else None
    )

    # ---- pass B: gate + dedup + decon + split, staging write --------
    def _build_winner_index(tbl: "pa.Table | None") -> "pd.Series | None":
        # the reduce RESOLVES to None when every shard root keeps no row
        # (a dup-free corpus split over several shards) — the common case
        # post url-dedup; an unguarded to_pandas crashed the funnel there
        if tbl is None or not tbl.num_rows:
            return None
        df = tbl.to_pandas()
        return pd.Series(df["url"].to_numpy(), index=df["h"])

    def _funnel(t: pa.Table) -> pa.Table:
        clean = t["text_clean"]
        sig = gopher_signals(pa.table({
            "doc_id": pa.array(np.arange(t.num_rows), pa.int64()),
            "text": clean,
        }))
        keep = sig["keep"].to_numpy(zero_copy_only=False).astype(bool)
        t = t.filter(pa.array(keep))
        if t.num_rows == 0:
            return pa.table({
                "url": pa.array([], pa.string()),
                "text": pa.array([], pa.large_string()),
                "host": pa.array([], pa.string()),
                "split": pa.array([], pa.string()),
            })
        # exact dedup keep-first-url under the broadcast winner table
        from ocr_suite_ray.stages._bcast import cached_build

        winners = cached_build(winners_ref, _build_winner_index)
        if winners is not None and len(winners):
            hs = pd.Series(
                [hashlib.md5(x.encode()).hexdigest()
                 for x in t["text_clean"].to_pylist()]
            )
            w = winners.reindex(hs.to_numpy()).to_numpy()
            urls = t["url"].to_pandas().to_numpy()
            keep2 = pd.isna(w) | (w == urls)
            t = t.filter(pa.array(keep2.astype(bool)))
        if grams_ref is not None and t.num_rows:
            hits = ngram_hit_counts(
                t["text_clean"], grams_ref, decon_n, gram_key=gram_key
            )
            t = t.filter(pa.array(np.asarray(hits) == 0))
        host, _tld = extract_hosts(t["url"])
        from ocr_suite_ray.functions.hashing import split_labels

        split = split_labels(md5_mod(host.to_pandas(), 100), train_pct, val_pct)
        txt = t["text_clean"]
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        return pa.table({
            "url": pc.cast(t["url"], pa.string()),
            "text": txt.cast(pa.large_string()),
            "host": host,
            "split": pa.array(split, pa.string()),
        })

    clean_dir = os.path.join(staging, "clean")
    raw_dir = clean_dir + "0" if near_dup else clean_dir
    _clean_ds().map_batches(_funnel, batch_format="pyarrow").write_parquet(
        raw_dir, partition_cols=["split"]
    )

    # ---- pass B2 (optional): fuzzy dedup over the gated survivors -----
    if near_dup:
        if near_dup != "minhash":
            raise ValueError(f"unknown near_dup mode {near_dup!r}")
        from ocr_suite_ray.stages.components import dedup_keep_cluster_min
        from ocr_suite_ray.stages.dedup_text import minhash_lsh_pairs
        from ocr_suite_ray.state.dupset import dup_key_table_ref

        def _nid(t: pa.Table) -> pa.Table:
            # 64-bit url ids for the pair/cluster machinery (it exchanges
            # int ids, never urls). Vectorized hash (the dedup_text
            # gram-hash path) — no oracle needs md5 parity here, the ids
            # only need to be distinct. Verified collision-free below —
            # a collision could merge two unrelated clusters and drop a
            # unique doc, so this fails fast instead of guessing (the
            # Bloom-rejection argument of dedup_keep_cluster_min).
            u = t["url"].to_pandas().to_numpy(dtype=object)
            h = pd.util.hash_array(u).astype(np.int64)
            return t.append_column("nid", pa.array(h, pa.int64()))

        # materialize ONCE: the collision probe, minhash's two passes,
        # and the cluster dedup each consume this — lazy, the raw_dir
        # read + hashing would re-execute 3-4x (the dedup_keep_cluster
        # materialize rationale)
        with_ids = rd.read_parquet(raw_dir).map_batches(
            _nid, batch_format="pyarrow"
        ).materialize()
        dup_ids = ray.get(dup_key_table_ref(with_ids, key_col="nid"))
        if dup_ids is not None and dup_ids.num_rows:
            raise ValueError(
                "url-hash collision in near-dup id assignment; rerun with "
                "rank-based ids (shuffle_shards order keys)"
            )
        pairs = minhash_lsh_pairs(
            with_ids, id_col="nid", text_col="text",
            threshold=0.5, gram_hash="fast", max_bucket=1000,
        )
        kept_nd = dedup_keep_cluster_min(with_ids, pairs, id_col="nid")
        kept_nd.map_batches(
            lambda t: t.drop_columns(["nid"]), batch_format="pyarrow"
        ).write_parquet(clean_dir, partition_cols=["split"])
        shutil.rmtree(raw_dir, ignore_errors=True)

    # ---- pass C: per-split packed token shards (train-only vocab) ---
    def _split_ds(name: str):
        # the staging store is hive-partitioned by split: a directory-
        # scoped read prunes for free, where filter(expr=...) over the
        # full store is not guaranteed to push down into partition dirs
        # on this Ray version (3 full-store scans at funnel scale)
        d = os.path.join(clean_dir, f"split={name}")
        if not os.path.isdir(d):  # split got zero rows -> no dir written
            return rd.from_arrow(pa.table({
                "url": pa.array([], pa.string()),
                "text": pa.array([], pa.large_string()),
                "host": pa.array([], pa.string()),
            }))
        return rd.read_parquet(d)

    vocab_ref = unigram_count_ref(_split_ds("train"), "text")
    summaries = {}
    for name in ("train", "val", "test"):
        ds = tokenize_ids(_split_ds(name), "text", vocab_ref)
        shard_dir = os.path.join(staging, f"shards_{name}")
        s = export_token_shards(
            ds, shard_dir, order_col="url", ids_col="token_ids",
            seq_len=seq_len, seqs_per_shard=seqs_per_shard,
        )
        summaries[name] = {
            "n_seqs": s["n_seqs_total"],
            "dropped_tail_tokens": s["dropped_tail_tokens"],
            "n_shards": len(s["shards"]),
        }

    # funnel counts from the written outputs — ONE scan: per-block
    # (split, n) partials, summed on the driver (O(blocks x 3) rows)
    def _split_counts(t: pa.Table) -> pa.Table:
        g = t.select(["split"]).group_by("split").aggregate([([], "count_all")])
        return g.select(["split", "count_all"]).rename_columns(["split", "n"])

    partials = (
        rd.read_parquet(clean_dir, columns=["split"])
        .map_batches(_split_counts, batch_format="pyarrow")
        .to_pandas()
    )
    agg = partials.groupby("split")["n"].sum() if len(partials) else {}
    per_split = {
        name: int(agg.get(name, 0)) for name in ("train", "val", "test")
    }
    n_kept = sum(per_split.values())

    # atomic promote (the curate.py two-rename contract). A stale .old
    # from a crash inside a PREVIOUS run's promote window must be cleared
    # first or the rename below fails ENOTEMPTY after all the compute.
    shutil.rmtree(old, ignore_errors=True)
    if os.path.exists(out_dir):
        os.replace(out_dir, old)
    os.replace(staging, out_dir)
    shutil.rmtree(old, ignore_errors=True)

    return {
        "out_dir": out_dir,
        "docs_kept": int(n_kept),
        "docs_per_split": {k: int(v) for k, v in per_split.items()},
        "shards": summaries,
        "seq_len": seq_len,
    }
