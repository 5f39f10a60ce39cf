"""CLI entry points — the ``ray job submit`` surface.

Mirrors the reference's three binaries (SURVEY §3): ``extract`` is the
``ocr-suite`` recognition loop, ``search`` the ``ocr-viewer`` query path,
``status`` the watcher's progress readout. Re-running ``extract`` after a
kill resumes from per-partition lineage — the exact property the reference's
watcher relies on (``README.md:67-73``).

Usage (local or via `ray job submit -- python -m ocr_suite_ray.cli ...`):

    python -m ocr_suite_ray.cli extract --pages DIR --out DIR [--pool N]
    python -m ocr_suite_ray.cli search  --out DIR --pattern TEXT
    python -m ocr_suite_ray.cli status  --out DIR
    python -m ocr_suite_ray.cli gen     --pages DIR --n-pages N
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _init_ray(num_cpus: int | None) -> None:
    import ray

    if not ray.is_initialized():
        # no explicit address: ray.init() honours RAY_ADDRESS / an
        # existing cluster (ray job submit), and starts a local instance
        # otherwise — forcing "local" would silently nest a single-node
        # Ray inside a cluster job and leave the cluster idle
        kwargs = dict(
            include_dashboard=False, ignore_reinit_error=True,
            logging_level="ERROR",
        )
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
        ray.init(**kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="ocr-suite-ray")
    p.add_argument("--num-cpus", type=int, default=None)
    sub = p.add_subparsers(dest="cmd", required=True)

    pe = sub.add_parser("extract", help="resumable extract+dedup pipeline")
    pe.add_argument("--pages", required=True)
    pe.add_argument("--out", required=True)
    pe.add_argument("--pool", type=int, default=8)
    pe.add_argument(
        "--wave-size",
        type=lambda s: s if s == "auto" else int(s),
        default="auto",
        help="files committed per wave; 'auto' bounds wave count (~4)",
    )
    pe.add_argument(
        "--debug-dump", action="store_true",
        help="side-dump raw payloads of error rows to OUT/debug/ for triage",
    )
    pe.add_argument(
        "--quarantine-bad-inputs", action="store_true",
        help="skip unreadable input shards (footer probe) instead of failing; "
        "paths land in OUT/quarantine.jsonl",
    )

    ps = sub.add_parser("search", help="substring search over the final store")
    ps.add_argument("--out", required=True)
    ps.add_argument("--pattern", required=True)
    ps.add_argument("--limit", type=int, default=20)

    pr = sub.add_parser("rank", help="BM25 ranked search over the final store")
    pr.add_argument("--out", required=True)
    pr.add_argument("--query", required=True, help="space-separated query terms")
    pr.add_argument("--top-k", type=int, default=10)

    pv = sub.add_parser("view", help="point lookup: source payload + extraction for one url")
    pv.add_argument("--pages", required=True)
    pv.add_argument("--out", required=True)
    pv.add_argument("--url", required=True)

    pst = sub.add_parser("status", help="lineage / progress readout")
    pst.add_argument("--out", required=True)

    pw = sub.add_parser(
        "watch",
        help="poll the pages dir; run an incremental extract when input changes",
    )
    pw.add_argument("--pages", required=True)
    pw.add_argument("--out", required=True)
    pw.add_argument("--pool", type=int, default=8)
    pw.add_argument("--interval", type=float, default=10.0, help="poll seconds")
    pw.add_argument(
        "--max-rounds", type=int, default=0,
        help="stop after N polls (0 = run until interrupted)",
    )

    pc_ = sub.add_parser(
        "curate",
        help="quality-gate + dedup + LM-score the final store into training shards",
    )
    pc_.add_argument("--out", required=True, help="extract output dir (reads OUT/final)")
    pc_.add_argument("--curated", required=True, help="curated shard output dir")
    pc_.add_argument("--quality-min", type=int, default=70)
    pc_.add_argument(
        "--sample-e4", type=int, default=None,
        help="optional deterministic url-hash subsample, parts per 10000",
    )

    pp = sub.add_parser(
        "pretrain",
        help="full pre-training prep: clean+gate+dedup+decon+split -> packed token shards",
    )
    pp.add_argument("--out", required=True, help="extract output dir (reads OUT/final)")
    pp.add_argument("--prep", required=True, help="prep output dir")
    pp.add_argument("--eval-dir", default=None,
                    help="optional parquet dir of eval docs (text column) to decontaminate against")
    pp.add_argument("--seq-len", type=int, default=2048)
    pp.add_argument("--seqs-per-shard", type=int, default=8192)
    pp.add_argument("--train-pct", type=int, default=90)
    pp.add_argument("--val-pct", type=int, default=5)
    pp.add_argument("--near-dup", choices=("minhash",), default=None,
                    help="optional fuzzy dedup stage (MinHash+LSH clusters, keep min id)")

    pi = sub.add_parser(
        "ingest", help="convert JSONL or WARC crawl dumps to the pages layout"
    )
    pi.add_argument(
        "--src", required=True, help="directory of *.jsonl or *.warc[.gz] dumps"
    )
    pi.add_argument("--pages", required=True)
    pi.add_argument(
        "--format", choices=("jsonl", "warc"), default="jsonl",
        help="input dump format (default jsonl)",
    )

    px = sub.add_parser("export", help="export a parquet store to JSONL/WARC shards")
    px.add_argument("--src", required=True, help="directory of *.parquet")
    px.add_argument("--dst", required=True, help="output directory")
    px.add_argument("--gzip", action="store_true", help="write gzip-compressed shards")
    px.add_argument(
        "--format", choices=("jsonl", "warc"), default="jsonl",
        help="output format (default jsonl)",
    )

    pm = sub.add_parser(
        "migrate",
        help="schema-migrate a store through the registered version ladder "
             "(lineage carried: resume skips every partition afterwards)",
    )
    pm.add_argument("--out", required=True, help="source store dir (read-only)")
    pm.add_argument("--dst", required=True, help="migrated store dir")
    pm.add_argument("--to-version", type=int, required=True)

    pg = sub.add_parser("gen", help="generate a synthetic pages corpus")
    pg.add_argument("--pages", required=True)
    pg.add_argument("--n-pages", type=int, default=10_000)
    pg.add_argument("--n-files", type=int, default=16)
    pg.add_argument("--seed", type=int, default=42)

    a = p.parse_args(argv)

    if a.cmd == "view":
        # point lookup via parquet predicate pushdown — no Ray session needed
        from ocr_suite_ray.pipelines.search import view_document

        rec = view_document(a.pages, os.path.join(a.out, "final"), a.url)
        rec["payload"] = (
            rec["payload"].decode("utf-8", "replace")
            if rec["payload"] is not None
            else None
        )
        print(json.dumps({k: str(v) for k, v in rec.items()}))
        return 0

    if a.cmd == "status":
        from ocr_suite_ray.state import lineage as lin

        recs = lin.load_records(a.out)
        done = [r for r in recs.values() if r.status == lin.STATUS_DONE]
        print(
            json.dumps(
                {
                    "partitions_done": len(done),
                    "rows_done": sum(r.rows_done for r in done),
                    "records": {pid: rec.status for pid, rec in sorted(recs.items())},
                }
            )
        )
        return 0

    _init_ray(a.num_cpus)
    import ray

    try:
        if a.cmd == "ingest":
            if a.format == "warc":
                from ocr_suite_ray.sources.warc import ingest_warc as _ingest
            else:
                from ocr_suite_ray.sources.ingest import ingest_jsonl as _ingest

            written = _ingest(a.src, a.pages)
            print(json.dumps({"files": len(written), "dir": a.pages}))
        elif a.cmd == "export":
            if a.format == "warc":
                from ocr_suite_ray.sources.warc import export_warc as _export
            else:
                from ocr_suite_ray.sources.ingest import export_jsonl as _export

            written = _export(a.src, a.dst, gzip_output=a.gzip)
            print(json.dumps({"files": len(written), "dir": a.dst}))
        elif a.cmd == "gen":
            from ocr_suite_ray.sources.synthetic import generate_corpus

            files = generate_corpus(a.pages, a.n_pages, seed=a.seed, n_files=a.n_files)
            print(json.dumps({"files": len(files), "dir": a.pages}))
        elif a.cmd == "migrate":
            from ocr_suite_ray.state.migrate import migrate_store

            print(json.dumps(
                migrate_store(a.out, a.dst, to_version=a.to_version)
            ))
        elif a.cmd == "extract":
            from ocr_suite_ray.pipelines.extract import ExtractConfig, run_pipeline

            cfg = ExtractConfig(
                pool_size=a.pool, wave_size=a.wave_size,
                debug_dump=a.debug_dump,
                on_bad_input="quarantine" if a.quarantine_bad_inputs else "raise",
            )
            print(json.dumps(run_pipeline(a.pages, a.out, cfg)))
        elif a.cmd == "curate":
            from ocr_suite_ray.pipelines.curate import run_curation

            print(
                json.dumps(
                    run_curation(
                        os.path.join(a.out, "final"),
                        a.curated,
                        quality_min=a.quality_min,
                        sample_e4=a.sample_e4,
                    )
                )
            )
        elif a.cmd == "pretrain":
            from ocr_suite_ray.pipelines.pretrain import run_pretrain_prep

            eval_ds = None
            if a.eval_dir:
                import ray.data as _rd

                eval_ds = _rd.read_parquet(a.eval_dir, columns=["text"])
            print(
                json.dumps(
                    run_pretrain_prep(
                        os.path.join(a.out, "final"),
                        a.prep,
                        eval_ds=eval_ds,
                        seq_len=a.seq_len,
                        seqs_per_shard=a.seqs_per_shard,
                        train_pct=a.train_pct,
                        val_pct=a.val_pct,
                        near_dup=a.near_dup,
                    )
                )
            )
        elif a.cmd == "watch":
            # The watcher analogue (tools/ocs-watcher/src/ocsw/watcher.py:
            # 10-29 re-triggers recognition when files change). Polling +
            # resumable pipeline replaces inotify: every round is a full
            # run_pipeline, and lineage makes unchanged partitions free, so
            # re-running on a live directory is safe and idempotent — the
            # exact property the reference's watcher relies on.
            import time as _time

            from ocr_suite_ray.pipelines.extract import (
                ExtractConfig,
                list_pages_files,
                run_pipeline,
            )
            from ocr_suite_ray.state import lineage as lin_mod

            cfg = ExtractConfig(pool_size=a.pool)
            last_fps: dict = {}
            rounds = 0
            while True:
                files = list_pages_files(a.pages) if os.path.isdir(a.pages) else []
                fps = {f: lin_mod.partition_fingerprint(f) for f in files}
                if fps and fps != last_fps:
                    s = run_pipeline(a.pages, a.out, cfg)
                    print(json.dumps({"round": rounds, **{
                        k: s[k] for k in (
                            "partitions_total", "partitions_skipped",
                            "partitions_processed", "rows_extracted")
                    }}), flush=True)
                    last_fps = fps
                rounds += 1
                if a.max_rounds and rounds >= a.max_rounds:
                    break
                _time.sleep(a.interval)
        elif a.cmd == "rank":
            # relevance-ranked upgrade of the viewer's find_text: BM25 over
            # the final store, one read into query-term candidates, a
            # query-bound stats reduce and one score task per block
            import ray.data as rd

            from ocr_suite_ray.stages.text_ops import bm25_rank

            final = os.path.join(a.out, "final")
            ds = rd.read_parquet(final, columns=["url", "text"])
            t = bm25_rank(
                ds, a.query.split(), id_col="url", text_col="text", top_k=a.top_k
            )
            for k in range(t.num_rows):
                print(
                    json.dumps(
                        {
                            "url": t["url"][k].as_py(),
                            "bm25_e4": t["bm25_e4"][k].as_py(),
                        }
                    )
                )
        elif a.cmd == "search":
            from ocr_suite_ray.pipelines.search import search_extracted

            final = os.path.join(a.out, "final")
            hits = search_extracted(final, a.pattern)
            rows = hits.take(a.limit)
            for r in rows:
                print(json.dumps({k: str(v) for k, v in r.items()}))
    finally:
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
