#!/usr/bin/env python
"""10x-scale drive harness: runs headline operators over a 10M-page corpus
(10x the sf0.1 bench scale) and prints ONE JSON line per drive — the
measurement protocol behind BASELINE.md's scale tables.

Why this exists (round-3/4 lesson): operators that are green on sf-scale
oracles can still hide O(corpus) terms — full-text shuffles, Python-row
reduces over corpus-cardinality keys, per-call hash rebuilds against
broadcast tables, quadratic mega-buckets. Every payload-bearing operator
gets driven here before it is called done.

Usage:
    python tools/drive10x.py extract            # gen corpus + extract store
    python tools/drive10x.py minhash            # fast gram hash + bucket cap
    python tools/drive10x.py simhash substring ngram
    python tools/drive10x.py embgen semantic knn ivf lshpairs embdup
    python tools/drive10x.py token_stats dedup_exact paragraph

Scratch lives under /tmp/ocs_10x (corpus ~9.6 GB, store ~9 GB). Corpus and
store are cached/resumable: re-running `extract` after a kill resumes from
lineage; ops reuse the existing store.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO_ROOT)

BASE = os.environ.get("OCS_10X_DIR", "/tmp/ocs_10x")
PAGES_DIR = os.path.join(BASE, "pages")
OUT_DIR = os.path.join(BASE, "out")
EMB_DIR = os.path.join(BASE, "emb")
FINAL_DIR = os.path.join(OUT_DIR, "final")

N_PAGES = int(os.environ.get("OCS_10X_PAGES", 10_000_000))
N_FILES = 256
N_EMB = int(os.environ.get("OCS_10X_EMB", 2_000_000))
EMB_DIM = 64
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))


def _init():
    import ray

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)


def ensure_corpus():
    from ocr_suite_ray.sources.synthetic import generate_corpus

    generate_corpus(PAGES_DIR, N_PAGES, seed=42, n_files=N_FILES)


def ensure_store() -> dict:
    """Extract store exists (resumable: a partial run resumes from lineage).
    Returns the run_pipeline summary dict; the store path is FINAL_DIR."""
    from ocr_suite_ray.pipelines.extract import ExtractConfig, run_pipeline

    ensure_corpus()
    cfg = ExtractConfig(
        pool_size=max(2, NUM_CPUS - max(1, NUM_CPUS // 8)),
        wave_size="auto",
    )
    t0 = time.monotonic()
    summary = run_pipeline(PAGES_DIR, OUT_DIR, cfg)
    return {
        "sec": round(time.monotonic() - t0, 3),
        "docs": summary["rows_extracted"],
        "summary": {
            k: v for k, v in summary.items() if k in ("waves", "stage_metrics")
        },
    }


def store_docs():
    """Final store as (doc_id, url, text), ok rows only. doc_id is the
    page id parsed from the synthetic url (unique post-dedup)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    def _prep(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["status"], "ok"))
        ids = pc.cast(pc.replace_substring_regex(t["url"], r"^.*/", ""), pa.int64())
        return pa.table({"doc_id": ids, "url": t["url"], "text": t["text"]})

    ds = rd.read_parquet(FINAL_DIR, columns=["url", "text", "status"])
    return ds.map_batches(_prep, batch_format="pyarrow")


def _consume(res) -> int:
    """Fully consume a Dataset/DataFrame result; return row count."""
    import pandas as pd

    if isinstance(res, pd.DataFrame):
        return len(res)
    return int(res.count())


def drive_minhash():
    """The round-3 open finding: 10M-doc minhash_lsh_pairs inside 25 min
    — now with NO flags passed (round-5 criterion): the "auto" defaults
    size-route past _MINHASH_AUTO_MD5_LIMIT to the scale tier
    (gram_hash="fast", max_bucket=1000) that round 4 needed explicit
    flags for; the md5 path stays pinned to the sf-scale SQL oracle."""
    from ocr_suite_ray.stages.dedup_text import minhash_lsh_pairs

    ds = store_docs()
    pairs = minhash_lsh_pairs(ds, threshold=0.5)
    return _consume(pairs)


def drive_simhash():
    """Flag-free since round 5: max_bucket="auto" size-routes to the
    1000-doc cap past the md5 limit (the 12k-doc identical cluster's
    ~74M-pair explosion is exact-dedup's job)."""
    from ocr_suite_ray.stages.dedup_text import simhash_pairs

    ds = store_docs()
    return _consume(simhash_pairs(ds, max_hamming=3))


def drive_substring():
    """modulus=64 sizes the anchor exchange to this box's disk: the default
    mod-16 winnow emits ~1.5e9 anchors (~30 GB exchange, >45 GB transient
    shuffle spill — the first 10x attempt hit Ray's 95%-disk guard).
    modulus IS the operator's documented content-defined density knob;
    near-dup pairs share many anchors, so pair recall for substantial
    overlaps is unchanged while the exchange drops 4x. At 100 TB you size
    modulus so anchors ~ corpus_bytes/(modulus*bytes_per_char) fits the
    cluster's aggregate shuffle capacity."""
    from ocr_suite_ray.stages.dedup_text import substring_dup_pairs

    ds = store_docs()
    return _consume(
        substring_dup_pairs(
            ds, gram_key="hash64", max_gram_docs=1000, modulus=64
        )
    )


def drive_ngram():
    """Blocked all-pairs Jaccard. The operator's documented contract is that
    the blocking column bounds the quadratic term; at corpus scale the
    natural key is (site, token-count) — near-dups at threshold 0.1 share
    both, mass-identical clusters spread across 997 sites."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ocr_suite_ray.stages.dedup_text import ngram_jaccard_pairs

    def _block(t: pa.Table) -> pa.Table:
        site = pc.replace_substring_regex(
            t["url"], r"^https://(site\d+)\..*$", r"\1"
        )
        ntok = pc.cast(pc.count_substring(t["text"], " "), pa.string())
        blk = pc.binary_join_element_wise(site, ntok, "|")
        return t.append_column("source", blk)

    ds = store_docs().map_batches(_block, batch_format="pyarrow")
    return _consume(
        ngram_jaccard_pairs(ds, block_col="source", gram_hash="fast")
    )


def drive_token_stats():
    from ocr_suite_ray.stages.text_ops import token_stats_batch

    return _consume(
        store_docs().map_batches(token_stats_batch, batch_format="pyarrow")
    )


def drive_dedup_exact():
    from ocr_suite_ray.stages.dedup_text import exact_dedup

    return _consume(exact_dedup(store_docs()))


def drive_paragraph():
    from ocr_suite_ray.stages.segments import paragraph_dedup

    return _consume(paragraph_dedup(store_docs()))


def drive_paragraph_hash():
    """The hash64 digest mode (the 100 TB path): no segment-string
    materialization in either pass, 8 B/entry dup table, searchsorted
    probes. Output equivalence to the exact path is unit-tested at sf;
    this drive measures the scale delta on the same worst-case corpus
    the exact path ran 543 s on."""
    from ocr_suite_ray.stages.segments import paragraph_dedup

    return _consume(paragraph_dedup(store_docs(), key="hash64"))


def drive_cluster():
    """Cluster dedup above the broadcast budget: substring anchors emit
    ~20M candidate edges at this scale, forcing the
    connected_components_distributed route (labels as a Dataset, two
    bucket shuffles per round, exact left_anti drop)."""
    from ocr_suite_ray.stages.components import dedup_keep_cluster_min
    from ocr_suite_ray.stages.dedup_text import substring_dup_pairs

    ds = store_docs()
    pairs = substring_dup_pairs(
        ds, gram_key="hash64", max_gram_docs=1000, modulus=64
    )
    return _consume(dedup_keep_cluster_min(ds, pairs).select_columns(["doc_id"]))


def drive_clusterbest():
    """Best-member cluster dedup at the distributed tier: same ~20M
    substring-anchor edge set as drive_cluster, winner = longest member
    per cluster (labels-join + bucketed C argmax + exact left_anti)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ocr_suite_ray.stages.components import dedup_keep_cluster_best
    from ocr_suite_ray.stages.dedup_text import substring_dup_pairs

    ds = store_docs()

    def _score(t: pa.Table) -> pa.Table:
        n = pc.add(pc.count_substring(t["text"], " "), 1)
        return t.append_column("n_tokens", pc.cast(n, pa.int64()))

    scored = ds.map_batches(_score, batch_format="pyarrow")
    pairs = substring_dup_pairs(
        ds, gram_key="hash64", max_gram_docs=1000, modulus=64
    )
    return _consume(
        dedup_keep_cluster_best(
            scored, pairs, score_col="n_tokens"
        ).select_columns(["doc_id"])
    )


def drive_badword():
    """C4 blocklist page gate over the full store (shuffle-free; the
    probe runs over block-DISTINCT tokens only)."""
    from ocr_suite_ray.stages.text_ops import badword_filter

    return _consume(badword_filter(store_docs(), ("dup", "lorem")))


def drive_host_paragraph():
    """Per-host boilerplate scrub over the store's REAL urls (hash64 tier:
    digest-only (host, segment) dup table from the keyed dup reduce, whose
    shard count follows the partials' row counts; sorted-probe scrub)."""
    import pyarrow as pa

    from ocr_suite_ray.stages.segments import grouped_paragraph_dedup
    from ocr_suite_ray.stages.text_ops import extract_hosts

    def _h(t: pa.Table) -> pa.Table:
        host, _tld = extract_hosts(t["url"])
        return t.append_column("host", host)

    ds = store_docs().map_batches(_h, batch_format="pyarrow")
    return _consume(grouped_paragraph_dedup(ds, "host", w=3, key="hash64"))


def drive_decon(gram_key: str = "exact"):
    """Decontamination report with a ~1.2k-doc eval benchmark sampled from
    the corpus itself (worst case: every eval doc has at least one corpus
    twin, itself, and the 50-word vocab makes every doc gram-dense)."""
    import pyarrow.compute as pc

    from ocr_suite_ray.stages.contamination import decontaminate

    ds = store_docs()
    eval_ds = ds.map_batches(
        lambda t: t.filter(pc.equal(pc.bit_wise_and(t["doc_id"], 8191), 0)),
        batch_format="pyarrow",
    )
    return _consume(decontaminate(ds, eval_ds, gram_key=gram_key))


def drive_decon_hash():
    """The hash64 scale tier: 64-bit gram hashes on both sides, zero
    gram-string materialization (twin-tested vs exact at sf)."""
    return drive_decon(gram_key="hash64")


def drive_spanscrub():
    """Exact duplicated-span removal over the full store (hash64 tier,
    round-5 external-sort count exchange at its defaults). The 50-word
    vocab is the adversarial case: ~all of the ~3.3B windows are
    corpus-wide dups yet block-locally singleton (measured: 99.8% of a
    block's distinct grams are block-singletons), so the count exchange
    is window-bound — the round-3 unsharded sort shuffle's transient
    spill exceeded this box's disk twice (~70 GB), and the round-4
    serial-shard fix paid 3 extra corpus passes and peaked at 98% RAM.
    The external-sort form writes slot-sharded zstd runs in ONE pass
    (~8 B/window on disk — bounded and predictable) and folds them in
    memory-budgeted parallel tasks."""
    from ocr_suite_ray.stages.dedup_text import dup_span_scrub

    return _consume(
        dup_span_scrub(
            store_docs(),
            gram_key="hash64",
            max_broadcast_rows=500_000_000,
        )
    )


def drive_extract_skew() -> dict:
    """Flagship under a PDF-HEAVY (20%) + giant-DOM (5%) skewed corpus —
    the VisionKit-serialization lesson (SURVEY §4) at scale: row-group work
    units dealt by bytes must keep the per-partition cost distribution
    bounded (each lineage record's summed read/extract/tag/write seconds;
    a PDF-heavy partition shows in the p99/max). Returns the run record."""
    import shutil

    import numpy as np

    from ocr_suite_ray.pipelines.extract import ExtractConfig, run_pipeline
    from ocr_suite_ray.sources.synthetic_skew import generate_skew_corpus
    from ocr_suite_ray.state import lineage as lin

    n = int(os.environ.get("OCS_SKEW_PAGES", 2_000_000))
    pages = os.path.join(BASE, "pages_skew")
    generate_skew_corpus(pages, n, seed=42, n_files=64)
    out = os.path.join(BASE, "out_skew")
    shutil.rmtree(out, ignore_errors=True)
    t0 = time.monotonic()
    summary = run_pipeline(pages, out, ExtractConfig(pool_size=max(4, NUM_CPUS - 4)))
    wall = time.monotonic() - t0
    costs = sorted(
        sum(r.stage_metrics.get(k, 0.0) for k in ("read_s", "extract_s", "tag_s", "write_s"))
        for r in lin.load_records(out).values()
    )
    return {
        "metric": "extract_skew_10x",
        "n_pages": n,
        "num_cpus": NUM_CPUS,
        "wall_s": round(wall, 1),
        "partition_cost_p50": round(float(np.percentile(costs, 50)), 2),
        "partition_cost_p99": round(float(np.percentile(costs, 99)), 2),
        "partition_cost_max": round(max(costs), 2),
        "rows_extracted": summary["rows_extracted"],
    }


def drive_migrate():
    """migrate_store at 10x: the 10.57M-capture store v1 -> v2 with an
    added derived column — one copy pass, one Ray task per partition,
    lineage carried. The alternative this op exists to avoid is a full
    re-extraction (96+ s of extraction vs a copy)."""
    import shutil

    from ocr_suite_ray.state.migrate import migrate_store

    def _v2(t):
        import pyarrow as pa_
        import pyarrow.compute as pc_

        return t.append_column(
            "text_len", pc_.cast(pc_.utf8_length(t["text"]), pa_.int32())
        )

    dst = os.path.join(BASE, "out_v2")
    shutil.rmtree(dst, ignore_errors=True)
    s = migrate_store(OUT_DIR, dst, to_version=2, steps={2: _v2})
    shutil.rmtree(dst, ignore_errors=True)  # scratch hygiene (9 GB)
    return s["rows_migrated"] + s["final_rows_migrated"]


def drive_c4():
    """C4 line-level cleaning over the full store with synthesized line
    structure (8-token lines, terminal '.' by (doc_id + ord) % 3 — the
    catalog query's recipe at 10x). Embarrassingly parallel: one pass,
    no shuffle."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from ocr_suite_ray.stages.segments import c4_line_filter, segment_table

    def _mk(t: pa.Table) -> pa.Table:
        row_of, within, segs = segment_table(t["text"], 8)
        ids = pc.cast(t["doc_id"], pa.int64()).to_numpy()
        dot = ((ids[row_of] + within) % 3) != 2
        suffix = pa.array(np.where(dot, ".", ""), pa.string())
        lines = pc.binary_join_element_wise(segs, suffix, "")
        counts = np.bincount(row_of, minlength=len(ids))
        offs = np.concatenate(([0], np.cumsum(counts))).astype(np.int32)
        joined = pc.binary_join(
            pa.ListArray.from_arrays(pa.array(offs, pa.int32()), lines), "\n"
        )
        if isinstance(joined, pa.ChunkedArray):
            joined = joined.combine_chunks()
        return pa.table({"doc_id": t["doc_id"], "text": joined})

    ds = store_docs().map_batches(_mk, batch_format="pyarrow")
    return _consume(c4_line_filter(ds))


def drive_hosts():
    """Per-host rollup over the store's REAL url column at 10M rows
    (block combiner -> one host-bucket shuffle)."""
    from ocr_suite_ray.stages.text_ops import host_stats

    return _consume(host_stats(store_docs(), "url"))


def drive_rollup():
    """Multi-level host/tld/corpus rollup over the store's real urls at
    10M rows — three level partials per block, ONE bucket shuffle."""
    from ocr_suite_ray.stages.text_ops import host_rollup

    return _consume(host_rollup(store_docs(), "url"))


def drive_unicode():
    """Unicode hygiene pass at 10M docs: vectorized lower + ws-collapse;
    the per-row NFC fallback only fires on non-ASCII rows (the synthetic
    corpus is ASCII, so this measures the fast path — the mask cost)."""
    from ocr_suite_ray.stages.text_ops import unicode_clean

    return _consume(unicode_clean(store_docs(), "text"))


def drive_collocations():
    """PMI collocations at 10M docs: corpus collapses to the tree-reduced
    distinct-bigram table; PMI + top-k in one remote task."""
    from ocr_suite_ray.stages.text_ops import collocations_pmi

    return _consume(collocations_pmi(store_docs(), "text", min_count=50, k=100))


def drive_tokshards():
    """Packed-token shard sink at 10x: vocab build + id assignment + the
    sort/scan/scatter write path. seq_len 2048, 8k seqs (64 MB) per shard."""
    import shutil

    from ocr_suite_ray.sources.token_shards import (
        export_token_shards,
        tokenize_ids,
    )
    from ocr_suite_ray.stages.text_ops import unigram_count_ref

    docs = store_docs()
    ref = unigram_count_ref(docs, "text")
    out = os.path.join(BASE, "tokshards")
    shutil.rmtree(out, ignore_errors=True)
    s = export_token_shards(
        tokenize_ids(docs, "text", ref), out,
        order_col="doc_id", ids_col="token_ids",
        seq_len=2048, seqs_per_shard=8192,
    )
    return s["n_seqs_total"]


def drive_pretrain():
    """The full pre-training prep funnel at 10x: clean + Gopher gate +
    exact dedup + host split + three packed-shard exports (train vocab
    only). The heaviest single composition in the repo — two streaming
    passes over the store plus the packing sort per split."""
    import shutil

    from ocr_suite_ray.pipelines.pretrain import run_pretrain_prep

    out = os.path.join(BASE, "pretrain")
    shutil.rmtree(out, ignore_errors=True)
    shutil.rmtree(out + ".staging", ignore_errors=True)
    s = run_pretrain_prep(FINAL_DIR, out, seq_len=2048, seqs_per_shard=8192)
    return s["docs_kept"]


def drive_overlap():
    """Corpus-overlap diagnostic at 10x: distinct-trigram tables for two
    ~5M-doc halves (split by site parity) tree-deduped, one index_in
    intersection. Exercises the gram-table dedup at ~1e9 occurrences."""
    import pyarrow.compute as pc

    from ocr_suite_ray.stages.contamination import corpus_overlap

    docs = store_docs()

    def _side(parity):
        def _f(t):
            site = pc.cast(pc.replace_substring_regex(
                t["url"], r"^https://site(\d+)\..*$", r"\1"
            ), __import__("pyarrow").int64())
            keep = pc.equal(pc.bit_wise_and(site, 1), parity)
            return t.filter(keep)
        return docs.map_batches(_f, batch_format="pyarrow")

    return _consume(corpus_overlap(_side(0), _side(1), n=3))


def drive_ev_profile():
    """Column profiler over the 100M-event table: per-block min/max/null
    partials, tree merge, 3-row report."""
    from ocr_suite_ray.stages.relational import profile_columns

    return _consume(profile_columns(
        ev_ds(["value", "user_id", "event_type"]),
        num_cols=["value", "user_id"], str_cols=["event_type"],
    ))


def drive_quota():
    """Per-domain contribution cap at 10x: real store hosts (~1k), 10M
    rows through the bucketed quota fold (many hosts per task)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ocr_suite_ray.stages.contamination import group_quota
    from ocr_suite_ray.stages.text_ops import extract_hosts

    def _prep(t: pa.Table) -> pa.Table:
        host, _tld = extract_hosts(t["url"])
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "host": host,
                "n_chars": pc.cast(pc.utf8_length(t["text"]), pa.int64()),
            }
        )

    ds = store_docs().map_batches(_prep, batch_format="pyarrow")
    return _consume(group_quota(ds, "host", "doc_id", "n_chars", 2_000_000))


def drive_pagerank():
    """Host-graph PageRank at 10x: 20M derived edges over 1024 hosts
    (doc_id bit mixes), 3 integer-e9 iterations — one edge-distinct
    bucket shuffle + three streamed contribution passes."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ocr_suite_ray.stages.graph import pagerank_e9

    def _mk(t: pa.Table) -> pa.Table:
        i = pc.cast(t["doc_id"], pa.int64())

        def _site(x):
            return pc.binary_join_element_wise(
                "site", pc.cast(x, pa.string()), ""
            )

        src = _site(pc.bit_wise_and(i, 1023))
        d1 = _site(pc.bit_wise_and(pc.shift_right(i, 2), 1023))
        d2 = _site(pc.bit_wise_and(pc.shift_right(i, 5), 1023))
        return pa.concat_tables(
            [
                pa.table({"src_host": src, "dst_host": d1}),
                pa.table({"src_host": src, "dst_host": d2}),
            ]
        )

    edges = store_docs().map_batches(_mk, batch_format="pyarrow")
    return _consume(pagerank_e9(edges, n_iter=3))


def drive_postings():
    """Inverted index over the full store with an admit-everything df
    band: the synthetic ~50-word vocabulary makes every term's df
    corpus-scale, so this drives the postings pass at its worst case
    (~400M (term, doc, tf) rows streamed out of one map_batches pass)."""
    from ocr_suite_ray.stages.segments import term_postings

    return _consume(term_postings(store_docs(), df_lo=2, df_hi=10**12))


def drive_shuffle():
    """Deterministic global shuffle + shard assignment at 10M rows — the
    one operator whose global sort IS the semantics."""
    from ocr_suite_ray.stages.scan import shuffle_shards

    return _consume(shuffle_shards(store_docs(), n_shards=256))


def drive_bpe():
    """BPE merge training at corpus scale (word-type groupby + remote
    merge loop); returns the merge count as rows_out."""
    import ray

    from ocr_suite_ray.stages.text_ops import bpe_train_ref

    ref = bpe_train_ref(store_docs(), n_merges=32)
    return len(ray.get(ref))


def drive_cross_corpus():
    """Both tiers at store scale: corpus B = docs with doc_id % 8 == 0
    (a prior-crawl stand-in, ~1.3M docs); corpus A = the rest (~9.2M).
    Runs the broadcast tier, then forces the digest-shuffle tier on the
    same split and checks the row counts agree."""
    import time as _time

    import pyarrow.compute as pc

    from ocr_suite_ray.stages.dedup_text import cross_corpus_dedup

    def _corpus_a(t):
        return t.filter(pc.invert(pc.equal(pc.bit_wise_and(t["doc_id"], 7), 0)))

    def _corpus_b(t):
        return t.filter(pc.equal(pc.bit_wise_and(t["doc_id"], 7), 0))

    a = store_docs().map_batches(_corpus_a, batch_format="pyarrow")
    b = store_docs().map_batches(_corpus_b, batch_format="pyarrow")
    t0 = _time.time()
    n_bcast = _consume(cross_corpus_dedup(a, b))
    t_bcast = round(_time.time() - t0, 3)
    t0 = _time.time()
    n_shuf = _consume(cross_corpus_dedup(a, b, route="shuffle"))
    t_shuf = round(_time.time() - t0, 3)
    assert n_bcast == n_shuf, (n_bcast, n_shuf)
    print(json.dumps({
        "metric": "cross_corpus_10x_sec", "value": t_bcast, "unit": "sec",
        "rows_out": n_bcast, "shuffle_tier_sec": t_shuf, "num_cpus": NUM_CPUS,
    }), flush=True)
    return n_bcast


# ---------------------------------------------------------------- events

N_EVENTS = int(os.environ.get("OCS_10X_EVENTS", 100_000_000))
EV_DIR = os.path.join(BASE, "events")
_N_USERS = 100_000  # ~1k events/user at 100M; user 0 is a planted hot key


def ensure_events():
    """Deterministic 100M-row events table (1000x the sf0.1 events table)
    with the sf columns that the window/join family reads. Planted skew:
    every id % 100 == 7 maps to user 0 (a ~1M-event hot key — the windows.py
    skew contracts' documented 10^6 bound, now driven not just unit-tested).
    Pure function of the row id: generation is distributed and
    order-independent."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    marker = os.path.join(EV_DIR, f".complete-{N_EVENTS}")
    if os.path.exists(marker):
        return
    os.makedirs(EV_DIR, exist_ok=True)
    for f in os.listdir(EV_DIR):
        os.remove(os.path.join(EV_DIR, f))

    kinds = np.array(["click", "view", "purchase", "scroll", "search"])
    epoch = np.datetime64("2026-01-01T00:00:00", "us")
    span_s = 30 * 86400

    def _gen(batch) -> "pa.Table":
        ids = batch["id"].to_numpy().astype(np.int64)
        h = (ids.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(17)
        user = (ids % _N_USERS).astype(np.int64)
        user[ids % 100 == 7] = 0
        ts = epoch + ((h % np.uint64(span_s * 1_000_000)).astype("int64")).astype(
            "timedelta64[us]"
        )
        etype = kinds[(h % np.uint64(5)).astype(np.int64)]
        value = ((h % np.uint64(10_000_000)).astype(np.float64)) / 1e4
        return pa.table(
            {
                "event_id": pa.array(ids, pa.int64()),
                "ts": pa.array(ts, pa.timestamp("us")),
                "user_id": pa.array(user, pa.int64()),
                "event_type": pa.array(etype, pa.string()),
                "value": pa.array(value, pa.float64()),
            }
        )

    (
        rd.range(N_EVENTS, override_num_blocks=256)
        .map_batches(_gen, batch_format="pyarrow")
        .write_parquet(EV_DIR)
    )
    open(marker, "w").close()


def ev_ds(cols=None):
    import ray.data as rd

    ensure_events()
    return rd.read_parquet(EV_DIR, columns=cols)


def drive_ev_window():
    """Tumbling hourly windows per user at 100M events. With hourly windows
    over 100k users the distinct (user, window) table is ~70M groups —
    row-scale. The partial rows size the keyed reduce's shard count
    (one shard per 2M rows, at most 64), so each shard root holds the
    groups of its share of the users, not the whole table."""
    from ocr_suite_ray.stages.windows import tumbling_window_agg

    ds = ev_ds(["user_id", "ts", "value"])
    return _consume(tumbling_window_agg(ds, "user_id", "ts", "value"))


def drive_ev_sessionize():
    from ocr_suite_ray.stages.windows import sessionize

    ds = ev_ds(["event_id", "user_id", "ts"])
    return _consume(sessionize(ds, "user_id", "ts", gap_s=1800.0))


def drive_ev_rolling():
    from ocr_suite_ray.stages.windows import rolling_mean

    ds = ev_ds(["event_id", "user_id", "ts", "value"])
    return _consume(rolling_mean(ds, "user_id", "ts", "value", "event_id"))


def drive_ev_quantiles():
    """Exact per-type quantiles: 5 groups x ~20M rows each — each group
    task holds one group's full value column (the op's documented
    exactness contract, here at 160 MB/group)."""
    from ocr_suite_ray.stages.windows import group_quantiles

    ds = ev_ds(["event_type", "value"])
    return _consume(group_quantiles(ds, "event_type", "value"))


def drive_ev_zscore():
    from ocr_suite_ray.stages.windows import group_zscore

    ds = ev_ds(["event_id", "event_type", "value"])
    return _consume(group_zscore(ds, "event_type", "value"))


def drive_ev_topk():
    from ocr_suite_ray.stages.relational import topk_per_group

    ds = ev_ds(["event_id", "event_type", "value"])
    return _consume(
        topk_per_group(
            ds, ["event_type"], "value", 3, descending=True, tiebreak_col="event_id"
        )
    )


def drive_ev_hierarchy():
    from ocr_suite_ray.stages.search import hierarchy_counts

    return _consume(hierarchy_counts(ev_ds(["ts"]), "ts"))


def drive_ev_asof():
    """As-of join at scale: every click joined to the latest prior
    purchase by the same user (~20M clicks vs ~20M purchases)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ocr_suite_ray.stages.relational import asof_join_by_key

    ev = ev_ds(["event_id", "user_id", "ts", "event_type", "value"])
    clicks = ev.map_batches(
        lambda t: t.filter(pc.equal(t["event_type"], "click")).select(
            ["event_id", "user_id", "ts"]
        ),
        batch_format="pyarrow",
    )

    def _purchases(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["event_type"], "purchase"))
        return pa.table(
            {
                "user_id": t["user_id"],
                "ts": t["ts"],
                "purchase_id": t["event_id"],
                "purchase_value": t["value"],
            }
        )

    purchases = ev.map_batches(_purchases, batch_format="pyarrow")
    out = asof_join_by_key(
        clicks, purchases, "user_id", "ts",
        left_cols=["event_id"], right_cols=["purchase_id", "purchase_value"],
    )
    return _consume(out)


# ---------------------------------------------------------------- embeddings


def ensure_embeddings():
    """Deterministic 2M x 64 float32 embedding table with planted structure:
    rows cluster around 256 anchors (cos-separable), and ~3% of rows are
    near-copies of an earlier row (near-dup exercise). Pure function of the
    row id so generation is distributed and order-independent."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    marker = os.path.join(EMB_DIR, f".complete-{N_EMB}-{EMB_DIM}")
    if os.path.exists(marker):
        return
    os.makedirs(EMB_DIR, exist_ok=True)
    for f in os.listdir(EMB_DIR):
        os.remove(os.path.join(EMB_DIR, f))

    n_anchor = 256
    rng0 = np.random.default_rng(4242)
    anchors = rng0.standard_normal((n_anchor, EMB_DIM)).astype(np.float32)
    anchors /= np.linalg.norm(anchors, axis=1, keepdims=True)

    def _gen(batch) -> "pa.Table":
        ids = batch["id"].to_numpy()
        out = np.empty((len(ids), EMB_DIM), np.float32)
        for j, i in enumerate(ids):
            r = np.random.default_rng(int(i) * 1_000_003 + 7)
            src = int(i) - 1 - int(r.integers(0, 64)) if (int(i) % 33 == 0 and i > 64) else int(i)
            rs = np.random.default_rng(src * 1_000_003 + 7)
            v = anchors[src % n_anchor] + 0.25 * rs.standard_normal(EMB_DIM).astype(np.float32)
            if src != int(i):  # near-copy: tiny perturbation of the source row
                v = v + 0.01 * r.standard_normal(EMB_DIM).astype(np.float32)
            out[j] = v / np.linalg.norm(v)
        return pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "embedding": pa.FixedSizeListArray.from_arrays(
                    pa.array(out.ravel(), pa.float32()), EMB_DIM
                ).cast(pa.list_(pa.float32())),
            }
        )

    (
        rd.range(N_EMB, override_num_blocks=64)
        .map_batches(_gen, batch_format="pyarrow")
        .write_parquet(EMB_DIR)
    )
    open(marker, "w").close()


def emb_ds():
    import ray.data as rd

    ensure_embeddings()
    return rd.read_parquet(EMB_DIR)


def _queries(k: int = 64):
    import numpy as np
    import pandas as pd

    rng = np.random.default_rng(99)
    q = rng.standard_normal((k, EMB_DIM)).astype(np.float32)
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    return pd.DataFrame({"query_id": np.arange(k), "embedding": list(q)})


def drive_semantic():
    """SemDeDup at 2M vectors: k scales with the corpus (paper: k ~ sqrt(N);
    1024 keeps the mean cluster ~2k rows, well inside the one-worker
    vector contract)."""
    from ocr_suite_ray.stages.similarity import semantic_dedup

    return _consume(
        semantic_dedup(
            emb_ds(), threshold_e4=9800, n_clusters=1024, train_sample=65_536
        )
    )


def drive_knn():
    from ocr_suite_ray.stages.similarity import knn_brute

    return _consume(knn_brute(emb_ds(), _queries(), k=10))


def drive_ivf():
    from ocr_suite_ray.stages.similarity import ivf_knn

    return _consume(
        ivf_knn(emb_ds(), _queries(), k=10, n_lists=256, train_sample=16_384)
    )


def drive_lshpairs():
    from ocr_suite_ray.stages.similarity import lsh_bucket_pairs

    return _consume(lsh_bucket_pairs(emb_ds(), threshold_e4=9800))


def drive_embdup():
    """The exact broadcast tier driven at its contract boundary: 200k rows
    (~50 MB broadcast; the op raises above its row budget by design —
    lsh_bucket_pairs above is the scale path)."""
    import pyarrow.dataset as pads
    import ray.data as rd

    from ocr_suite_ray.stages.similarity import embedding_near_dup

    ensure_embeddings()
    # Arrow filter pushdown at the read — a row-lambda Dataset.filter here
    # OOMed the first drive attempt (Python-row materialization of the
    # list<float> column across 32 concurrent tasks).
    ds = rd.read_parquet(EMB_DIR, filter=pads.field("vec_id") < 200_000)
    sub = ds.to_pandas()
    return _consume(
        embedding_near_dup(ds, sub, threshold_e4=9800, max_broadcast_rows=250_000)
    )


def drive_gopher():
    """Gopher composite gate (one tokenize pass, embarrassingly parallel)
    over the 10M store."""
    import pyarrow.compute as pc

    from ocr_suite_ray.stages.text_ops import gopher_signals

    def _gate(t):
        out = gopher_signals(t)
        return out.filter(pc.equal(out["keep"], True)).drop_columns(["keep"])

    return _consume(store_docs().map_batches(_gate, batch_format="pyarrow"))


def drive_dup_ngrams():
    """Gopher n-gram repetition rules: the (row, code-window)-sorted gram
    run-length kernel at ~1.2B gram occurrences."""
    from ocr_suite_ray.stages.text_ops import dup_ngram_stats

    return _consume(dup_ngram_stats(store_docs(), "doc_id", "text"))


def drive_ccnet():
    """CC-Net perplexity buckets: vocab broadcast + scoring pass + the
    narrow (doc_id, score, okey) global rank sort at 10M rows."""
    from ocr_suite_ray.stages.text_ops import ccnet_perplexity_buckets

    return _consume(ccnet_perplexity_buckets(store_docs(), "doc_id", "text"))


def drive_mixture():
    """Token-budget mixture over 16 synthetic sources (doc_id & 15): the
    keyed prefix scan sorts a narrow 10M-row projection; budgets sized so
    every group takes a strict partial prefix (the interesting regime)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ocr_suite_ray.stages.contamination import token_budget_mixture

    def _w(t: pa.Table) -> pa.Table:
        n = pc.add(pc.count_substring(t["text"], " "), 1)
        src = pc.binary_join_element_wise(
            "src",
            pc.cast(pc.bit_wise_and(t["doc_id"], 15), pa.string()),
            "",
        )
        return pa.table({
            "doc_id": t["doc_id"],
            "src": src,
            "n_tokens": pc.cast(n, pa.int64()),
        })

    weighted = store_docs().map_batches(_w, batch_format="pyarrow")
    return _consume(
        token_budget_mixture(
            weighted, "src", "doc_id", "n_tokens",
            budgets={}, default_budget=10_000_000,
        )
    )


def drive_bigram():
    """Bigram-LM scoring at 10M docs: the two-pass LM shape with a bigram
    (rather than unigram) count artifact — ~1.2B bigram occurrences
    stream through value_counts partials; the broadcast table stays
    vocabulary-bound (the synthetic ~50-token vocab keeps it tiny; the
    budget guard covers real corpora)."""
    from ocr_suite_ray.stages.text_ops import bigram_lm_score

    return _consume(bigram_lm_score(store_docs(), "doc_id", "text"))


def drive_logistic():
    """IRLS logistic fit at 10M docs: 2 Newton rounds = 2 streaming
    sufficient-statistic passes (O(d^2) exchange each) + 1 score pass.
    Features derived on the fly (scaled token count; label = docs whose
    id hashes even — a balanced synthetic class)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ocr_suite_ray.stages.mlfit import fit_logistic_ref, logistic_scores

    def _feat(t: pa.Table) -> pa.Table:
        n = pc.add(pc.count_substring(t["text"], " "), 1)
        return pa.table({
            "doc_id": t["doc_id"],
            "x": pc.divide(pc.cast(n, pa.float64()), 100.0),
            "y": pc.cast(
                pc.equal(pc.bit_wise_and(t["doc_id"], 1), 0), pa.float64()
            ),
        })

    feats = store_docs().map_batches(_feat, batch_format="pyarrow")
    ref = fit_logistic_ref(feats, ["x"], "y", n_iters=2)
    return _consume(logistic_scores(feats, ref, ["x"]))


def drive_heavy():
    """Misra-Gries heavy hitters in the sketch regime over ~1.2B token
    occurrences: per-block exact counts -> capacity-256 summaries -> tree
    merge; nothing corpus-sized ever leaves a task."""
    from ocr_suite_ray.stages.sketches import heavy_hitters

    return _consume(heavy_hitters(store_docs(), "text", k=50, capacity=256))


def drive_ev_deltas():
    """LAG deltas at 100M events incl. the planted ~1M-event hot key."""
    from ocr_suite_ray.stages.windows import event_deltas

    ds = ev_ds(["event_id", "user_id", "ts", "value"])
    return _consume(event_deltas(ds, "user_id", "ts", "value", "event_id"))


def drive_ev_ranks():
    """Window-rank family at 100M events incl. the planted ~1M-event hot
    key (user 0): rank/dense_rank over value, row_number/ntile over the
    deterministic order — one bucket shuffle, the hot key's full group in
    one task per the documented skew contract."""
    from ocr_suite_ray.stages.windows import group_ranks

    ds = ev_ds(["event_id", "user_id", "value"])
    return _consume(group_ranks(ds, "user_id", "value", ["event_id"]))


def drive_project():
    """Rademacher projection over the 2M x 64 embedding corpus: stateless
    integer matmul per batch, 16M output coordinates, zero exchange."""
    from ocr_suite_ray.stages.similarity import random_project

    return _consume(random_project(emb_ds(), out_dim=8))


def drive_ev_pivot():
    """Daily x event-type pivot at 100M events: per-block combiners reduce
    to a ~150-group table, narrow tree merge, one root pivot."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ocr_suite_ray.stages.relational import pivot_counts

    def _day(t: pa.Table) -> pa.Table:
        return pa.table({
            "day": pc.floor_temporal(t["ts"], unit="day"),
            "event_type": t["event_type"],
        })

    ds = ev_ds(["ts", "event_type"]).map_batches(_day, batch_format="pyarrow")
    return _consume(pivot_counts(
        ds, "day", "event_type",
        values=["click", "view", "purchase", "scroll", "search"],
        key_type=pa.timestamp("us"),
    ))


DRIVES = {
    "extract": None,  # special-cased
    "extract_skew": None,  # special-cased
    "minhash": drive_minhash,
    "simhash": drive_simhash,
    "substring": drive_substring,
    "ngram": drive_ngram,
    "token_stats": drive_token_stats,
    "dedup_exact": drive_dedup_exact,
    "cross_corpus": drive_cross_corpus,
    "paragraph": drive_paragraph,
    "paragraph_hash": drive_paragraph_hash,
    "cluster": drive_cluster,
    "clusterbest": drive_clusterbest,
    "badword": drive_badword,
    "hostpara": drive_host_paragraph,
    "decon": drive_decon,
    "decon_hash": drive_decon_hash,
    "spanscrub": drive_spanscrub,
    "migrate": drive_migrate,
    "c4": drive_c4,
    "hosts": drive_hosts,
    "rollup": drive_rollup,
    "unicode": drive_unicode,
    "colloc": drive_collocations,
    "tokshards": drive_tokshards,
    "pretrain": drive_pretrain,
    "overlap": drive_overlap,
    "ev_profile": drive_ev_profile,
    "quota": drive_quota,
    "pagerank": drive_pagerank,
    "postings": drive_postings,
    "shuffle": drive_shuffle,
    "bpe": drive_bpe,
    "gopher": drive_gopher,
    "dup_ngrams": drive_dup_ngrams,
    "ccnet": drive_ccnet,
    "mixture": drive_mixture,
    "heavy": drive_heavy,
    "bigram": drive_bigram,
    "logistic": drive_logistic,
    "evgen": None,  # special-cased
    "ev_deltas": drive_ev_deltas,
    "ev_ranks": drive_ev_ranks,
    "ev_pivot": drive_ev_pivot,
    "ev_window": drive_ev_window,
    "ev_sessionize": drive_ev_sessionize,
    "ev_rolling": drive_ev_rolling,
    "ev_quantiles": drive_ev_quantiles,
    "ev_zscore": drive_ev_zscore,
    "ev_topk": drive_ev_topk,
    "ev_hierarchy": drive_ev_hierarchy,
    "ev_asof": drive_ev_asof,
    "embgen": None,  # special-cased
    "semantic": drive_semantic,
    "knn": drive_knn,
    "ivf": drive_ivf,
    "lshpairs": drive_lshpairs,
    "embdup": drive_embdup,
    "project": drive_project,
}

_TEXT_OPS = {
    "minhash", "simhash", "substring", "ngram",
    "token_stats", "dedup_exact", "cross_corpus", "paragraph",
    "paragraph_hash", "cluster", "clusterbest", "badword", "hostpara",
    "decon", "decon_hash", "spanscrub",
    "c4", "hosts", "quota", "pagerank", "postings",
    "rollup", "unicode", "colloc", "tokshards", "pretrain", "overlap",
    "shuffle", "bpe",
    "gopher", "dup_ngrams", "ccnet", "mixture", "heavy", "bigram",
    "logistic",
}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("ops", nargs="+", choices=sorted(DRIVES))
    a = ap.parse_args()

    _init()
    import ray

    for op in a.ops:
        if op == "extract":
            r = ensure_store()
            rec = {
                "metric": "extract_10x_sec",
                "value": r["sec"],
                "unit": "sec",
                "docs_extracted": r["docs"],
                "docs_per_sec": round(r["docs"] / r["sec"], 1),
                "num_cpus": NUM_CPUS,
            }
        elif op == "extract_skew":
            t0 = time.monotonic()
            rec = drive_extract_skew()
            rec["value"] = round(time.monotonic() - t0, 3)
            rec["unit"] = "sec"
        elif op == "embgen":
            t0 = time.monotonic()
            ensure_embeddings()
            rec = {
                "metric": "embgen_10x_sec",
                "value": round(time.monotonic() - t0, 3),
                "unit": "sec",
                "rows": N_EMB,
                "dim": EMB_DIM,
            }
        elif op == "evgen":
            t0 = time.monotonic()
            ensure_events()
            rec = {
                "metric": "evgen_10x_sec",
                "value": round(time.monotonic() - t0, 3),
                "unit": "sec",
                "rows": N_EVENTS,
            }
        else:
            if op in _TEXT_OPS and not os.path.isdir(FINAL_DIR):
                ensure_store()
            t0 = time.monotonic()
            rows = DRIVES[op]()
            rec = {
                "metric": f"{op}_10x_sec",
                "value": round(time.monotonic() - t0, 3),
                "unit": "sec",
                "rows_out": rows,
                "num_cpus": NUM_CPUS,
            }
        print(json.dumps(rec), flush=True)
        with open(os.path.join(BASE, "drives.jsonl"), "a") as f:
            f.write(json.dumps(rec) + "\n")

    ray.shutdown()


if __name__ == "__main__":
    main()
