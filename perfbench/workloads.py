"""The four benchmark workloads, their correctness checks and the traced
per-layer probes. This module runs in the child process that ``run.py``
starts; it drives ``ocr_suite_ray`` only through its public functions.

Every workload is a closed loop: one client in one process issues the next
call when the previous one returned. The seed fixes the inputs; the number
of operations a run issues is fixed by ``--seconds`` alone, so two runs of
one workload time the same operations.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import shutil
import sys
import time
from statistics import mean, median

T_START = time.perf_counter()  # before the heavy imports below

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import ray
import ray.data as rd

from harness import (
    TRACE_ONLY_SPAN,
    Ops,
    RssSampler,
    Tracer,
    host_block,
    logical_cpus,
    start_ray,
    tail,
)
from ocr_suite_ray.functions.extract import extract_payload, sniff_kind
from ocr_suite_ray.pipelines.curate import run_curation
from ocr_suite_ray.pipelines.extract import (
    ExtractConfig,
    list_pages_files,
    run_extract_phase,
    run_finalize_phase,
    run_pipeline,
)
from ocr_suite_ray.pipelines.golden import golden_extract
from ocr_suite_ray.pipelines.search import (
    search_extracted,
    search_hierarchy,
    view_document,
)
from ocr_suite_ray.sources.synthetic import generate_pages_table
from ocr_suite_ray.state import lineage
from ocr_suite_ray.stages.text_ops import bm25_rank, lm_scores, quality_score

WORKLOADS = ("extract_cold", "extract_incremental", "search", "curate")

# Input size. 8 shards of 250 pages give about 2.15k capture rows: one cold
# extraction takes about 1.3 s on one core, so several fit in a run.
SHARDS = 8
PAGES_PER_SHARD = 250
NEW_SHARDS = 2            # extract_incremental: shards added to a built store
WARM_PAGES = 40           # warm-up corpus, page ids disjoint from the input
WARM_START = 10_000_000
# setup_s is the median of this many set-ups. One set-up costs 4-6 s plus a
# 1.5 s Ray shutdown; a third would leave too little of the benchmark's time
# budget (3420 s for 4 + 22 runs per workload) on a loaded host.
N_SETUPS = 2

# Units of work per second of --seconds. A run does max(1, round(seconds *
# rate)) units, a number that depends on --seconds alone, so two runs of a
# workload time the same operations whatever the host's speed. At 14 s on
# one core: 8 cold extractions (about 18 s with think time), 5 incremental
# ones (about 13 s), 4 search mixes (about 14 s) and 16 curations (13 s).
UNITS_PER_S = {"extract_cold": 0.57, "extract_incremental": 0.36,
               "search": 0.29, "curate": 1.15}
VIEWS_PER_ROUND = 4
SEARCH_TOP = 20           # CLI `search` prints the first 20 hits
RANK_TOP = 10             # CLI `rank` default
QUALITY_MIN = 70          # run_curation default

# Client think time between pipeline calls. Back-to-back run_pipeline calls
# at one logical CPU alternate between a fast finalize and one that waits
# about 0.8 s for a new Ray worker. After a second or two idle the worker
# pool has settled and every call starts from the same state: 1 s sufficed
# between cold extractions, the incremental ones (which follow a full cold
# reference run) needed 2 s. CLI `watch` waits 10 s between rounds.
THINK_S = {"extract_cold": 1.0, "extract_incremental": 2.0}

UNACCOUNTED_LIMIT = 0.05  # layer-sum check: share of wall not explained

_STATS_OP = re.compile(r"^Operator \d+ (.+?): .* in ([0-9.]+)(us|ms|s)\s*$")
_UNIT_S = {"us": 1e-6, "ms": 1e-3, "s": 1.0}


def _units(workload: str, seconds: int) -> int:
    return max(1, round(seconds * UNITS_PER_S[workload]))


def _load_sorted(final_dir: str) -> pa.Table:
    t = pads.dataset(final_dir, format="parquet").to_table()
    return t.take(pc.sort_indices(t, sort_keys=[("url", "ascending")]))


def _same_store(got: pa.Table, want: pa.Table) -> bool:
    """Byte-identical per url: every column of ``want``, row by row."""
    if got.num_rows != want.num_rows:
        return False
    got = got.select(want.column_names).cast(want.schema)
    return got.equals(want)


def _unaccounted(rep: dict) -> float:
    """Wall of one extraction minus the layers its summary accounts for."""
    s = rep["summary"]
    return rep["wall_s"] - (s["dup_scan_s"] + s["waves_s"] + s["commit_s"] + rep["finalize_s"])


def _error_rows(final: pa.Table) -> int:
    return final.num_rows - pc.sum(pc.equal(final["status"], "ok")).as_py()


class Bench:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool, work: str):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.tracer = Tracer(trace, f"{workload}-seed{seed}-pid{os.getpid()}")
        self.ops = Ops()
        self.e2e: dict = {}
        self.layers: dict = {}
        self.report: dict = {"workload": workload, "seed": seed, "trace": trace}
        self.pages = os.path.join(work, "pages")
        self.store = os.path.join(work, "store")
        self.cfg = ExtractConfig()
        self.extract_reps: list = []  # the traced run's layers come from these
        self.timeline: list = []
        self.mark("imports")

    def mark(self, label: str) -> None:
        """Run phases, as seconds since the process started."""
        self.timeline.append((label, round(time.perf_counter() - T_START, 3)))

    # ---- inputs ------------------------------------------------------
    def _write_shards(self, out_dir: str, first_shard: int, n_shards: int,
                      pages_per_shard: int, first_page: int) -> None:
        # same file layout as sources.synthetic.generate_corpus, written
        # without Ray so that generation stays outside every set-up
        os.makedirs(out_dir, exist_ok=True)
        for k in range(n_shards):
            tbl = generate_pages_table(
                pages_per_shard, seed=self.seed,
                start=first_page + k * pages_per_shard,
            )
            path = os.path.join(out_dir, f"pages_{first_shard + k:05d}.parquet")
            pq.write_table(tbl, path, row_group_size=4096)

    def generate(self) -> None:
        t0 = time.perf_counter()
        self._write_shards(self.pages, 0, SHARDS, PAGES_PER_SHARD, 0)
        self._write_shards(os.path.join(self.work, "warm"), 0, 1, WARM_PAGES, WARM_START)
        if self.workload == "extract_incremental":
            self._write_shards(os.path.join(self.work, "new"), SHARDS, NEW_SHARDS,
                               PAGES_PER_SHARD, SHARDS * PAGES_PER_SHARD)
        self.layers["sources.generate_corpus_s"] = (time.perf_counter() - t0, "s")
        files = list_pages_files(self.pages)
        new = os.path.join(self.work, "new")
        if os.path.isdir(new):
            files += list_pages_files(new)
        self.report["input"] = {
            "pages": (SHARDS + (NEW_SHARDS if os.path.isdir(new) else 0)) * PAGES_PER_SHARD,
            "rows": sum(pq.read_metadata(f).num_rows for f in files),
            "shards": len(files),
            "bytes": sum(os.path.getsize(f) for f in files),
        }
        self.mark("generate")

    # ---- set-up --------------------------------------------------------
    def setup(self, build=None) -> None:
        """Ray start + warm-up pipeline + store build, N_SETUPS times; the
        last session stays up for the measurement."""
        warm_in = os.path.join(self.work, "warm")
        warm_out = os.path.join(self.work, "warm_store")
        init_s, warm_s, build_s, total_s = [], [], [], []
        for i in range(N_SETUPS):
            if i:
                ray.shutdown()
            shutil.rmtree(warm_out, ignore_errors=True)
            t0 = time.perf_counter()
            init_s.append(start_ray(self.work))
            t1 = time.perf_counter()
            self.ops.call("run_pipeline(warm-up)", run_pipeline, warm_in, warm_out, self.cfg)
            t2 = time.perf_counter()
            if build is not None:
                build()
            t3 = time.perf_counter()
            warm_s.append(t2 - t1)
            build_s.append(t3 - t2)
            total_s.append(t3 - t0)
        self.report["host"] = {
            **host_block(),
            "ray_logical_cpus": int(ray.cluster_resources().get("CPU", 0)),
        }
        self.report["setup_samples_s"] = [round(x, 4) for x in total_s]
        self.e2e["setup_s"] = (median(total_s), "s")
        self.layers["ray.init_s"] = (median(init_s), "s")
        self.layers["ray.warmup_s"] = (median(warm_s), "s")
        self.layers["setup.store_build_s"] = (median(build_s), "s")
        self.mark("setup")

    def build_store(self, pages: str, store: str) -> None:
        """Extract ``pages`` into a fresh ``store`` (a set-up step)."""
        shutil.rmtree(store, ignore_errors=True)
        self.extract_reps.append(self.extract_rep(pages, store, self.trace))

    # ---- extraction ------------------------------------------------------
    def extract_rep(self, pages: str, out: str, traced: bool) -> dict:
        """One extraction over ``pages`` into ``out``. Untraced: one
        run_pipeline call. Traced: run_extract_phase then run_finalize_phase,
        each in its own span (run_pipeline is exactly these two calls)."""
        if not traced:
            s, wall = self.ops.call("run_pipeline", run_pipeline, pages, out, self.cfg)
            fin = s["finalize"]["finalize_s"] if s else 0.0
            return {"summary": s, "wall_s": wall, "finalize_s": fin}
        span = self.tracer.span
        with span("bench.extract_rep"):
            with span("pipelines.extract.run_extract_phase"):
                s, t_ext = self.ops.call("run_extract_phase", run_extract_phase,
                                         pages, out, self.cfg)
            with span("pipelines.extract.run_finalize_phase"):
                _, t_fin = self.ops.call("run_finalize_phase", run_finalize_phase,
                                         out, self.cfg)
        return {"summary": s, "wall_s": t_ext + t_fin, "extract_phase_s": t_ext,
                "finalize_s": t_fin}

    def extract_window(self, pages: str, prepare, check) -> None:
        """The extraction measurement: fixed number of reps; ``prepare(out)``
        readies the store untimed, ``check(rep, out)`` verifies it."""
        n = _units(self.workload, self.seconds)
        reps = []
        self.mark("pre_window")
        idle_since = time.perf_counter()
        with RssSampler() as rss:
            for i in range(n):
                out = os.path.join(self.work, f"rep{i}")
                prepare(out)
                think = THINK_S[self.workload]
                time.sleep(max(0.0, think - (time.perf_counter() - idle_since)))
                rep = self.extract_rep(pages, out, self.trace)
                idle_since = time.perf_counter()
                if rep["summary"] is not None:
                    check(rep, out)
                if i < n - 1:
                    shutil.rmtree(out, ignore_errors=True)
                reps.append(rep)
        self.mark("window")
        self.last_store = os.path.join(self.work, f"rep{n - 1}")
        self.extract_reps = reps
        good = [r for r in reps if r["summary"] is not None]
        walls = [r["wall_s"] for r in good] or [0.0]
        rows = good[0]["summary"]["rows_extracted"] if good else 0
        self.e2e["wall_s"] = (median(walls), "s")
        self._op_latency_metrics(walls)
        self.e2e["docs_per_s"] = (median([rows / w for w in walls if w]) if rows else 0.0, "docs/s")
        self.e2e["peak_rss_mb"] = (rss.peak_bytes / 2**20, "MB")
        self._layer_sum_report(good)

    def _layer_sum_report(self, reps: list) -> None:
        """ROADMAP layer-sum check: wall minus the program's own breakdown."""
        per = [{"wall_s": round(r["wall_s"], 4),
                "finalize_s": round(r["finalize_s"], 4),
                "unaccounted_s": round(_unaccounted(r), 4)} for r in reps]
        if not per:
            return
        worst = max(p["unaccounted_s"] / p["wall_s"] for p in per)
        self.report["layer_sum"] = {
            "reps": per,
            "limit_share": UNACCOUNTED_LIMIT,
            "flagged": worst > UNACCOUNTED_LIMIT,
        }

    def extract_layers(self) -> None:
        """pipelines.extract per-layer metrics from the traced reps."""
        reps = [r for r in self.extract_reps if r["summary"] and "extract_phase_s" in r]
        if not reps:
            return
        conc = min(self.cfg.pool_size, logical_cpus())  # effective pool width

        def avg(key):
            return mean([r["summary"].get(key, 0.0) for r in reps])

        L = "pipelines.extract."
        self.layers[L + "extract_phase_s"] = (mean([r["extract_phase_s"] for r in reps]), "s")
        self.layers[L + "finalize_phase_s"] = (mean([r["finalize_s"] for r in reps]), "s")
        for key in ("dup_scan_s", "waves_s", "commit_s", "pool_read_s",
                    "pool_extract_s", "pool_write_s"):
            self.layers[L + key] = (avg(key), "s")
        busy = mean([sum(r["summary"].get(f"pool_{p}_s", 0.0)
                         for p in ("read", "extract", "tag", "write"))
                     / max(r["summary"]["waves_s"] * conc, 1e-9) for r in reps])
        self.layers[L + "pool_busy_ratio"] = (busy, "ratio")
        self.layers[L + "unaccounted_s"] = (mean([_unaccounted(r) for r in reps]), "s")
        s = reps[-1]["summary"]
        for key in ("partitions_processed", "partitions_skipped", "rows_extracted", "waves"):
            self.layers[L + key] = (s[key], "count")
        self.report["pool_tag_s_mean"] = avg("pool_tag_s")

    # ---- shared metrics ---------------------------------------------------
    def _op_latency_metrics(self, lat: list) -> None:
        t = tail(lat)
        self.e2e["query_p50_s"] = (median(lat), "s")
        self.e2e["query_tail_s"] = (t["value"], "s")
        self.report["query_tail"] = {k: v for k, v in t.items() if k != "value"}

    # ---- traced probes (all workloads) ----------------------------------
    def kernel_probe(self, files: list) -> None:
        """functions.extract_payload timed in this process, per payload
        class: sniffed kind, giant DOM (over 20x the median html size) and
        error rows."""
        payloads = pa.concat_tables(
            [pq.read_table(f, columns=["html"]) for f in files]
        )["html"].to_pylist()
        html_len = sorted(len(p) for p in payloads if p and sniff_kind(p) == "html")
        giant_min = 20 * html_len[len(html_len) // 2]
        cls: dict = {"html": [], "giant": [], "pdf": [], "error": []}
        total = 0.0
        with self.tracer.span("functions.extract_payload"):
            for p in payloads:
                t0 = time.perf_counter()
                out = extract_payload(p)
                dt = time.perf_counter() - t0
                total += dt
                if out["status"] != "ok":
                    cls["error"].append(dt)
                elif out["payload_kind"] == "pdf":
                    cls["pdf"].append(dt)
                elif len(p) > giant_min:
                    cls["giant"].append(dt)
                else:
                    cls["html"].append(dt)
        L = "functions.extract_payload."
        scale = {"html": (1e6, "us"), "giant": (1e3, "ms"), "pdf": (1e6, "us"), "error": (1e6, "us")}
        for k, xs in cls.items():
            mult, unit = scale[k]
            self.layers[f"{L}{k}_{unit}_p50"] = (median(xs) * mult if xs else 0.0, unit)
        self.layers[L + "total_s"] = (total, "s")
        self.report["kernel_calls"] = {k: len(v) for k, v in cls.items()}

    def golden_probe(self, files: list, reference: pa.Table | None) -> pa.Table:
        pages = pa.concat_tables(
            [pq.read_table(f, columns=["url", "warc_ts", "html"]) for f in files]
        )
        with self.tracer.span("golden.golden_extract"):
            golden, sec = self.ops.call("golden_extract", golden_extract, pages)
        self.layers["golden.golden_extract_s"] = (sec, "s")
        if reference is not None and golden is not None:
            self.ops.check("store == golden_extract", _same_store(reference, golden))
        return golden

    def lineage_probe(self, files: list, store: str) -> None:
        with self.tracer.span("state.lineage.pending_partitions"):
            _, t1 = self.ops.call("pending_partitions", lineage.pending_partitions, files, store)
        with self.tracer.span("state.lineage.done_fingerprint_set"):
            _, t2 = self.ops.call("done_fingerprint_set", lineage.done_fingerprint_set, store)
        self.layers["state.lineage.pending_partitions_s"] = (t1, "s")
        self.layers["state.lineage.done_fingerprint_set_s"] = (t2, "s")

    def text_ops_probe(self, final: pa.Table) -> None:
        """quality_score and lm_scores called directly on the store's ok
        texts; median of three calls each (the first lm call builds the
        per-process logp cache)."""
        texts = final.filter(pc.equal(final["status"], "ok"))["text"].combine_chunks()
        batch = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()), "text": texts})
        toks = pc.list_flatten(pc.split_pattern(texts, " "))
        vc = pc.value_counts(toks)
        counts_ref = ray.put(pa.table({
            "tok": vc.field("values").cast(pa.string()),
            "n": vc.field("counts").cast(pa.int64()),
        }))
        q, lm = [], []
        for _ in range(3):
            with self.tracer.span("stages.text_ops.quality_score"):
                _, t = self.ops.call("quality_score", quality_score, batch)
            q.append(t)
            with self.tracer.span("stages.text_ops.lm_scores"):
                _, t = self.ops.call("lm_scores", lm_scores, texts, counts_ref)
            lm.append(t)
        self.layers["stages.text_ops.quality_score_s"] = (median(q), "s")
        self.layers["stages.text_ops.lm_scores_s"] = (median(lm), "s")

    def traced_probes(self, files: list, op_files: list, store: str,
                      reference: pa.Table | None) -> None:
        """Per-layer probes for the layers this workload's main loop does not
        reach, so every traced run reports every layer."""
        self.kernel_probe(op_files)
        if "golden.golden_extract_s" not in self.layers:
            self.golden_probe(files, reference)
        self.lineage_probe(files, store)
        final_dir = os.path.join(store, "final")
        final = _load_sorted(final_dir)
        self.layers["pipelines.extract.rows_error"] = (_error_rows(final), "count")
        self.text_ops_probe(final)
        if self.workload != "search":
            viewer = Viewer(self, final_dir, final)
            viewer.round(0, views=1)
            viewer.layer_metrics()
        if self.workload != "curate":
            cur = Curation(self, final_dir, final)
            cur.rep(os.path.join(self.work, "curated_probe"))
            self.layers["pipelines.curate.run_curation_s"] = (cur.lat[0], "s")
        self.extract_layers()
        self.layers["trace.overhead_s"] = (self.tracer.overhead_s(), "s")
        self.report["self_time_s"] = {
            k: {"calls": v["calls"], "self_s": round(v["self_s"], 4)}
            for k, v in sorted(self.tracer.self_times().items())
        }


class Viewer:
    """The search workload's viewer operations and their pyarrow oracle."""

    def __init__(self, bench: Bench, final_dir: str, final: pa.Table) -> None:
        self.b = bench
        self.final_dir = final_dir
        self.final = final
        self.texts = final["text"]
        rng = random.Random(bench.seed)
        ok_texts = final.filter(pc.equal(final["status"], "ok"))["text"]
        toks = pc.list_flatten(pc.split_pattern(ok_texts, " "))
        vocab = sorted(w for w in pc.unique(toks).to_pylist() if w.isalpha() and len(w) >= 4)

        def share(p: str) -> float:
            return pc.sum(pc.match_substring(self.texts, p)).as_py() / final.num_rows

        def draw(make, accept, tries=500):
            best = None
            for _ in range(tries):
                p = make()
                if accept(share(p)):
                    return p
                best = best or p
            return best

        # high, medium and zero selectivity, drawn from the store's vocabulary
        self.patterns = [
            draw(lambda: rng.choice(vocab), lambda s: s >= 0.5),
            draw(lambda: f"{rng.choice(vocab)} {rng.choice(vocab)}", lambda s: 0.01 <= s <= 0.2),
            draw(lambda: rng.choice(vocab) + rng.choice(vocab), lambda s: s == 0.0),
        ]
        self.queries = [rng.sample(vocab, 2) for _ in range(3)]
        urls = final["url"].to_pylist()
        self.view_urls = [rng.choice(urls) for _ in range(64)]
        self.shares = [round(share(p), 4) for p in self.patterns]
        pages = pads.dataset(bench.pages, format="parquet").to_table(
            columns=["url", "warc_ts", "html"],
            filter=pc.field("url").isin(sorted(set(self.view_urls))),
        )
        self.captures: dict = {}
        for r in pages.to_pylist():
            self.captures.setdefault(r["url"], []).append(r)
        words = pc.split_pattern(self.texts, " ").to_pylist()
        self.doc_tokens = list(zip(final["url"].to_pylist(), words))
        self.lat: dict = {"search": [], "hierarchy": [], "rank": [], "view": []}
        self.rows: dict = {"search": [], "hierarchy": [], "rank": []}
        self.op_stats: dict = {}
        self.n_view = 0

    def _stats(self, ds) -> None:
        """Adds the Ray Data operator times of ``ds`` (traced run only)."""
        with self.b.tracer.span(TRACE_ONLY_SPAN):
            for line in ds.stats().splitlines():
                m = _STATS_OP.match(line.strip())
                if m:
                    name = m.group(1)
                    sec = float(m.group(2)) * _UNIT_S[m.group(3)]
                    self.op_stats[name] = self.op_stats.get(name, 0.0) + sec

    def _timed(self, kind: str, name: str, fn, *args):
        with self.b.tracer.span(name):
            out, sec = self.b.ops.call(name, fn, *args)
        self.lat[kind].append(sec)
        return out, sec

    # ---- the oracle -------------------------------------------------------
    def _want_search(self, p: str) -> list:
        hits = self.final.filter(pc.match_substring(self.final["text"], p))
        hits = hits.select(["url", "warc_ts", "n_blocks_kept", "status"])
        hits = hits.take(pc.sort_indices(hits, sort_keys=[("warc_ts", "ascending"), ("url", "ascending")]))
        return hits.slice(0, SEARCH_TOP).to_pylist()

    def _want_hierarchy(self, p: str) -> list:
        hits = self.final.filter(pc.match_substring(self.final["text"], p))
        ts = hits["warc_ts"]
        t = pa.table({
            "day": pc.cast(pc.floor_temporal(ts, unit="day"), pa.timestamp("us")),
            "hour": pc.cast(pc.hour(ts), pa.int32()),
            "minute": pc.cast(pc.minute(ts), pa.int32()),
        })
        g = t.group_by(["day", "hour", "minute"]).aggregate([([], "count_all")])
        return sorted(zip(g["day"].to_pylist(), g["hour"].to_pylist(),
                          g["minute"].to_pylist(), g["count_all"].to_pylist()))

    def _want_rank(self, terms: list) -> list:
        n = float(len(self.doc_tokens))
        avgdl = sum(len(w) for _, w in self.doc_tokens) / n
        df = {q: float(sum(q in w for _, w in self.doc_tokens)) for q in terms}
        scores = {}
        for u, w in self.doc_tokens:
            s = 0.0
            for q in terms:
                tf = float(w.count(q))
                if not tf or not df[q]:
                    continue
                idf = math.log(1.0 + (n - df[q] + 0.5) / (df[q] + 0.5))
                s += idf * tf * 2.2 / (tf + 1.2 * (1 - 0.75 + 0.75 * len(w) / avgdl))
            if s > 0:
                scores[u] = s
        top = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:RANK_TOP]
        return [(u, math.floor(s * 10000 + 0.5)) for u, s in top]

    def _check_view(self, url: str, rec: dict) -> bool:
        idx = pc.index(self.final["url"], url).as_py()
        want = self.final.slice(idx, 1).to_pylist()[0]
        caps = self.captures.get(url, [])
        newest = max(c["warc_ts"] for c in caps) if caps else None
        tied = [c["html"] for c in caps if c["warc_ts"] == newest]
        return (
            all(rec.get(k) == want[k] for k in want)
            and rec["n_captures"] == len(caps)
            and rec["payload"] in tied
            and extract_payload(rec["payload"])["text"] == want["text"]
        )

    # ---- one round of the mix ----------------------------------------------
    def round(self, r: int, views: int = VIEWS_PER_ROUND) -> None:
        ops, traced = self.b.ops, self.b.trace
        p = self.patterns[r % 3]
        ds, _ = self._timed("search", "pipelines.search.search_extracted",
                            lambda: _consume_take(search_extracted(self.final_dir, p)))
        if ds is not None:
            got, dset = ds
            self.rows["search"].append(len(got))
            ops.check(f"search_extracted({p!r})", got == self._want_search(p))
            if traced:
                self._stats(dset)
        ds, _ = self._timed("hierarchy", "pipelines.search.search_hierarchy",
                            lambda: _consume_all(search_hierarchy(self.final_dir, p)))
        if ds is not None:
            got, dset = ds
            self.rows["hierarchy"].append(len(got))
            rows = sorted((g["day"], g["hour"], g["minute"], g["n"]) for g in got)
            ops.check(f"search_hierarchy({p!r})", rows == self._want_hierarchy(p))
            if traced:
                self._stats(dset)
        q = self.queries[r % 3]
        t, _ = self._timed("rank", "stages.text_ops.bm25_rank", _rank, self.final_dir, q)
        if t is not None:
            self.rows["rank"].append(t.num_rows)
            got = list(zip(t["url"].to_pylist(), t["bm25_e4"].to_pylist()))
            ops.check(f"bm25_rank({q})", got == self._want_rank(q))
        for _ in range(views):
            url = self.view_urls[self.n_view % len(self.view_urls)]
            self.n_view += 1
            rec, _ = self._timed("view", "pipelines.search.view_document",
                                 view_document, self.b.pages, self.final_dir, url)
            if rec is not None:
                ops.check(f"view_document({url})", self._check_view(url, rec))

    def layer_metrics(self) -> None:
        L = self.b.layers
        L["pipelines.search.search_extracted_s"] = (median(self.lat["search"]), "s")
        L["pipelines.search.search_extracted_rows"] = (median(self.rows["search"]), "count")
        L["pipelines.search.search_hierarchy_s"] = (median(self.lat["hierarchy"]), "s")
        L["pipelines.search.search_hierarchy_rows"] = (median(self.rows["hierarchy"]), "count")
        L["pipelines.search.view_document_s"] = (median(self.lat["view"]), "s")
        L["stages.text_ops.bm25_rank_s"] = (median(self.lat["rank"]), "s")
        L["stages.text_ops.bm25_rank_rows"] = (median(self.rows["rank"]), "count")
        top = sorted(self.op_stats.items(), key=lambda kv: -kv[1])[:5]
        self.b.report["ray_data_top_operators_s"] = {k: round(v, 4) for k, v in top}


def _consume_take(ds):
    return ds.take(SEARCH_TOP), ds


def _consume_all(ds):
    return ds.take_all(), ds


def _rank(final_dir: str, terms: list) -> pa.Table:
    # CLI `rank`: BM25 over the final store's url/text columns
    ds = rd.read_parquet(final_dir, columns=["url", "text"])
    return bm25_rank(ds, terms, id_col="url", text_col="text", top_k=RANK_TOP)


class Curation:
    """run_curation over the final store and its output invariants."""

    def __init__(self, bench: Bench, final_dir: str, final: pa.Table) -> None:
        self.b = bench
        self.final_dir = final_dir
        self.status = dict(zip(final["url"].to_pylist(), final["status"].to_pylist()))
        self.rows_in = final.num_rows
        self.lat: list = []

    def rep(self, out_dir: str) -> None:
        b = self.b
        with b.tracer.span("pipelines.curate.run_curation"):
            res, sec = b.ops.call("run_curation", run_curation, self.final_dir, out_dir)
        self.lat.append(sec)
        if res is None:
            return
        t = pads.dataset(out_dir, format="parquet", partitioning="hive").to_table(
            columns=["url", "text", "quality"])
        b.ops.check("curate rows_out", res["rows_out"] == t.num_rows)
        b.ops.check("curate status ok",
                    all(self.status.get(u) == "ok" for u in t["url"].to_pylist()))
        b.ops.check("curate quality >= quality_min",
                    pc.min(t["quality"]).as_py() >= QUALITY_MIN if t.num_rows else True)
        b.ops.check("curate texts distinct",
                    pc.count_distinct(t["text"]).as_py() == t.num_rows)
        b.layers["pipelines.curate.rows_in"] = (self.rows_in, "count")
        b.layers["pipelines.curate.rows_out"] = (res["rows_out"], "count")


# ---- workloads -------------------------------------------------------------
def run_extract_cold(b: Bench) -> None:
    b.generate()
    b.setup()
    files = list_pages_files(b.pages)
    golden = b.golden_probe(files, None)

    def check(rep, out):
        b.ops.check("final == golden_extract",
                    golden is not None and _same_store(_load_sorted(os.path.join(out, "final")), golden))

    b.extract_window(b.pages, lambda out: shutil.rmtree(out, ignore_errors=True), check)
    if b.trace:
        b.traced_probes(files, files, b.last_store, None)


def run_extract_incremental(b: Bench) -> None:
    b.generate()
    base = os.path.join(b.work, "base_store")
    b.setup(lambda: b.build_store(b.pages, base))
    new = os.path.join(b.work, "new")
    new_files = list_pages_files(new)
    for f in new_files:
        os.replace(f, os.path.join(b.pages, os.path.basename(f)))
    new_files = [os.path.join(b.pages, os.path.basename(f)) for f in new_files]
    files = list_pages_files(b.pages)
    ref_store = os.path.join(b.work, "cold_ref")
    b.ops.call("run_pipeline(cold reference)", run_pipeline, b.pages, ref_store, b.cfg)
    ref = _load_sorted(os.path.join(ref_store, "final"))

    def prepare(out):
        shutil.rmtree(out, ignore_errors=True)
        shutil.copytree(base, out)

    def check(rep, out):
        s = rep["summary"]
        b.ops.check("only new partitions processed",
                    s["partitions_processed"] == NEW_SHARDS and s["partitions_skipped"] == SHARDS,
                    f"processed={s['partitions_processed']} skipped={s['partitions_skipped']}")
        b.ops.check("final == cold run over grown input",
                    _same_store(_load_sorted(os.path.join(out, "final")), ref))

    b.extract_window(b.pages, prepare, check)
    if b.trace:
        b.traced_probes(files, new_files, b.last_store, ref)


def _built_store_workload(b: Bench) -> tuple[list, pa.Table]:
    b.generate()
    b.setup(lambda: b.build_store(b.pages, b.store))
    return list_pages_files(b.pages), _load_sorted(os.path.join(b.store, "final"))


def run_search(b: Bench) -> None:
    files, final = _built_store_workload(b)
    final_dir = os.path.join(b.store, "final")
    viewer = Viewer(b, final_dir, final)
    b.report["patterns"] = dict(zip(viewer.patterns, viewer.shares))
    b.report["rank_queries"] = viewer.queries
    # one mix = a round per selectivity
    n_mix = _units("search", b.seconds)
    mix_s = []
    b.mark("pre_window")
    with RssSampler() as rss:
        for _ in range(n_mix):
            t0 = time.perf_counter()
            for r in range(3):
                viewer.round(r)
            mix_s.append(time.perf_counter() - t0)
    b.mark("window")
    # query latency: the scanning viewer calls (CLI search and rank); the
    # point lookups of CLI view count in wall_s and in the traced run
    queries = viewer.lat["search"] + viewer.lat["hierarchy"] + viewer.lat["rank"]
    b.e2e["wall_s"] = (median(mix_s), "s")
    b._op_latency_metrics(queries)
    b.e2e["docs_per_s"] = (len(queries) * final.num_rows / sum(mix_s), "docs/s")
    b.e2e["peak_rss_mb"] = (rss.peak_bytes / 2**20, "MB")
    b.report["ops"] = {k: len(v) for k, v in viewer.lat.items()}
    if b.trace:
        viewer.layer_metrics()
        b.traced_probes(files, files, b.store, final)


def run_curate(b: Bench) -> None:
    files, final = _built_store_workload(b)
    final_dir = os.path.join(b.store, "final")
    cur = Curation(b, final_dir, final)
    n = _units("curate", b.seconds)
    out = os.path.join(b.work, "curated")
    b.mark("pre_window")
    with RssSampler() as rss:
        for _ in range(n):
            cur.rep(out)
    b.mark("window")
    lat = cur.lat
    b.e2e["wall_s"] = (median(lat), "s")
    b._op_latency_metrics(lat)
    b.e2e["docs_per_s"] = (median([cur.rows_in / x for x in lat]), "docs/s")
    b.e2e["peak_rss_mb"] = (rss.peak_bytes / 2**20, "MB")
    if b.trace:
        b.layers["pipelines.curate.run_curation_s"] = (median(lat), "s")
        b.traced_probes(files, files, b.store, final)


RUNNERS = {
    "extract_cold": run_extract_cold,
    "extract_incremental": run_extract_incremental,
    "search": run_search,
    "curate": run_curate,
}


def main(argv: list | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    a = ap.parse_args(argv)
    b = Bench(a.workload, a.seed, a.seconds, bool(a.trace), a.work)
    try:
        RUNNERS[a.workload](b)
        b.mark("measured")
    finally:
        ray.shutdown()
    b.mark("shutdown")
    b.report["timeline_s"] = dict(b.timeline)
    metrics = b.layers if b.trace else b.e2e
    result = {
        "correct": b.ops.failed == 0,
        "attempted": b.ops.attempted,
        "failed": b.ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    b.report["errors"] = b.ops.errors[:20]
    if b.trace:
        b.report["spans"] = len(b.tracer.spans)
    with open(a.result, "w") as fh:
        json.dump({"result": result, "report": b.report,
                   "spans": b.tracer.spans}, fh, default=str)
    return 0


if __name__ == "__main__":
    sys.exit(main())
