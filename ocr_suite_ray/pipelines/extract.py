"""Flagship pipeline: pages parquet → extract → dedup → extracted store.

The Ray restatement of the reference's recognition loop (``SURVEY.md``
§3.1: CLI → DB watermark → seek → bounded queue → N OCR threads → store):

    phase 0: url-column-only scan → global dup-url set           [narrow reduce]
    phase 1 (per wave, resumable): (file,row_group,pid) unit specs
      dealt by bytes onto min(units, CPUs, pool) chunks
      → one fused_extract_task Ray task per chunk                [PLAIN TASKS:
        per unit: read row group → warm-parser extract → tag is_dup
        → write partition_id=N/is_dup=K files + unit marker;
        returns only counts]
      → atomic commit + per-partition lineage
    phase 2: hardlink unique-url files into final/ + exact reduce
      of the tiny dup subset                                     [narrow]

Phase 1 runs in **waves** of input partitions: each wave is one set of
chunk tasks whose per-partition outputs are committed atomically
(temp dir + rename) together with their lineage records. A killed job loses
at most the in-flight row-group UNITS of the current wave (per-unit
completion markers, `_load_unit_markers`); `pending_partitions` prunes
everything already committed — the watermark+seek resume of the reference
(``src/common/database.cpp:110-150``, ``src/ffmpeg/decoder.cpp:178-211``)
at row-group granularity. Partitions are salted with the fingerprint of
their OWN dup-membership decisions (`_files_dup_fp`), so growing the
input re-extracts only partitions whose flags actually changed.

The wave is ONE task per chunk because a separate read → extract → tag →
write operator chain moves every payload byte through the object store
twice (measured in BASELINE.md's ablation). Each task reads its row group
directly and writes its own output files — the reference's one consumer
thread per warm engine, with no shared writer.

The wave runs on plain Ray tasks, not on a ``ray.data`` Dataset. PAPER.md's
blueprint names ``Dataset`` + ``map_batches`` for extraction; what it asks
of them is kept: a per-document loop, concurrency bounded by chunks <=
CPUs, and resume at unit grain. The first Dataset of a session starts Ray
Data's ``_StatsActor`` and ``AutoscalingRequester`` actors (1.2-1.5 s
blocked, 170 + 124 MB RSS, at 1 CPU), so ``run_pipeline`` builds none. Ray
Data stays the public surface of the viewer and the catalog.

Skew (north_star): work units are row groups, which are written with a
fixed ROW count — so a byte-heavy unit is exactly one carrying giant DOMs
or PDFs. The wave runs one task per chunk of units, as many chunks as the
pool can run at once (DS2: parallelism from the resources that do the
work, not from the input count), so a heavy unit delays only its own
chunk. Units are dealt largest first by their footer byte size onto the
chunk with the fewest bytes so far (LPT, `_deal_units`), which spreads
the heavy units across chunks instead of piling them onto one (FP-Hadoop's
byte-balanced static split). It relies on bytes tracking a unit's busy
time: Pearson r 0.67-0.99 over per-unit times measured at 1 logical
CPU on the skew and bench corpora, though a PDF-heavy unit costs about
twice as much per byte (ROADMAP direction 1 replays those times against
a contiguous split and per-unit tasks). The split comes from the data,
not from a routing option.

Phase 2 (dedup + finalize) costs O(dup rate), not O(corpus): unique-url
partition files are hardlinked, only dup-url rows are reduced; it re-runs
only when the set of done partitions changed (``done_fingerprint_set``).
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import time
from dataclasses import dataclass

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ocr_suite_ray.stages.extract import PageExtractor
from ocr_suite_ray.state import lineage as lin
from ocr_suite_ray.state.dupset import (
    DupMembership,
    cluster_cpus,
    cpu_chunks,
    dup_key_table_ref_from_files,
    dup_meta_ref,
    load_dup_table_ref,
    membership_ref,
    remote_fn,
    tree_reduce_refs,
)

PAGES_COLUMNS = ["url", "warc_ts", "html"]  # prune at the read: text/lang unused
_PHASES = ("read_s", "extract_s", "tag_s", "write_s")  # a unit's timed steps


@dataclass
class ExtractConfig:
    # cap on the fused wave's chunk count: one Ray task per chunk,
    # min(units, cluster CPUs, pool_size) chunks run at once
    pool_size: int = 8
    # input partitions (files) committed per wave. "auto" bounds the wave
    # COUNT instead of the wave size (see _resolve_wave_size): every wave
    # barrier pays a fixed pipeline-ramp cost (~1.8 s at 32 cpus — warm
    # 10M-page A/B in BASELINE.md: 16 waves 167.4 s vs 4 waves 145.6 s,
    # identical output fingerprint), so a fixed size that is right for 16
    # files is 16x too small for 256 and 6000x too small for a 100 TB
    # corpus. Resume granularity does NOT depend on wave size — unit
    # completion markers checkpoint each (file, row_group) unit inside the
    # running wave.
    wave_size: int | str = "auto"
    debug_dump: bool = False         # side-dump raw payloads of error rows
                                     # to out_dir/debug/ (bmp.cpp triage
                                     # analogue)
    # "raise" (default): a corrupt/unreadable input parquet fails the run
    # fast. "quarantine": probe every file's footer + schema up front
    # (parallel remote tasks) and EXCLUDE unreadable shards — at 100 TB a
    # truncated upload must not kill a multi-hour job. Quarantined paths
    # land in summary["quarantined"] and out_dir/quarantine.jsonl; they
    # never enter lineage, so a later run picks up the fixed file
    # automatically. Payload-level decode errors inside readable files are
    # already per-row status="error:..." records either way.
    on_bad_input: str = "raise"
    # OCR engine for image-only (scanned) PDFs: None (default) keeps them
    # deterministic error:NotImplementedError rows; "stub" uses the byte-
    # deterministic fake; "real" requires pytesseract+pillow (guarded
    # import); "auto" picks real when installed, stub otherwise. The engine
    # is resolved ONCE per worker (warm TessBaseAPI analogue).
    ocr_engine: str | None = None


def list_pages_files(pages_dir: str) -> list[str]:
    return sorted(
        os.path.join(pages_dir, f)
        for f in os.listdir(pages_dir)
        if f.endswith(".parquet")
    )


def _probe_chunk(chunk: list[str]) -> list:
    out = []
    for path in chunk:
        try:
            md = pq.read_metadata(path)
            names = set(md.schema.to_arrow_schema().names)
            missing = [c for c in PAGES_COLUMNS if c not in names]
            if missing:
                raise ValueError(f"missing columns {missing}")
            out.append((path, None))
        except Exception as exc:  # corrupt footer, truncation, schema
            out.append((path, f"{type(exc).__name__}: {exc}"))
    return out


def _probe_inputs(files: list[str], out_dir: str) -> tuple[list[str], list[dict], int]:
    """Parallel footer/schema probe: returns (readable files, quarantined
    [{path, error}], tasks started). One metadata read per file, one remote
    task per chunk of files (``cpu_chunks``); the probe reads only the
    parquet footer, never payload bytes."""
    import ray

    chunks = cpu_chunks(files)
    probes = [remote_fn(_probe_chunk).remote(c) for c in chunks]
    results = [r for rs in ray.get(probes) for r in rs]
    good = [p for p, err in results if err is None]
    bad = [{"path": p, "error": err} for p, err in results if err is not None]
    qpath = os.path.join(out_dir, "quarantine.jsonl")
    if bad:
        os.makedirs(out_dir, exist_ok=True)
        with open(qpath + ".tmp", "w") as fh:
            for rec in bad:
                fh.write(json.dumps(rec) + "\n")
        os.replace(qpath + ".tmp", qpath)
    elif os.path.exists(qpath):
        os.remove(qpath)  # all previously-bad files fixed
    return good, bad, len(chunks)


def _input_dup_membership(files: list[str], out_dir: str) -> tuple:
    """Broadcast membership of "urls captured more than once across the WHOLE
    pages input", the dup-set fingerprint, the per-file fingerprints and the
    tasks the url scan and the per-file fingerprints started (none when the
    cached artifact is reused).

    Everything key-shaped stays off the driver (see ``state/dupset.py``): the
    column-pruned url scan is counted distributively, the dup-url table is
    persisted as a parquet artifact by a worker task (cached per input
    fingerprint set, so resumes don't re-scan), and the exact-set/Bloom
    payload is built in a worker task. The driver holds two scalars and an
    ObjectRef, returned BOXED in a one-element list so Ray ships the ref —
    not the payload — to each actor (each actor ray.gets the node-local copy
    once in __init__)."""
    import hashlib

    inputs_fp = hashlib.sha256(
        "".join(lin.partition_fingerprint(f) for f in files).encode()
    ).hexdigest()[:16]
    os.makedirs(out_dir, exist_ok=True)
    meta_path = os.path.join(out_dir, "dup_urls_meta.json")
    table_path = os.path.join(out_dir, "dup_urls.parquet")
    if os.path.exists(meta_path) and os.path.exists(table_path):
        with open(meta_path) as fh:
            data = json.load(fh)
        if data.get("inputs_fp") == inputs_fp and set(
            data.get("file_fps", {})
        ) == set(files):
            dup_ref = load_dup_table_ref(table_path)
            box = [membership_ref(dup_ref)]
            return box, data["dupset_fp"], data["file_fps"], {"dup_scan": 0, "dup_fp": 0}
    # one remote read task per chunk of files: skips the Dataset ramp (~1-2 s)
    chunks = cpu_chunks(files)
    dup_ref = dup_key_table_ref_from_files(chunks)
    # launch the meta persist, the membership build, and the per-file fp
    # tasks as ONE concurrent graph — serializing their ray.gets costs
    # 3 worker round-trips on the pre-wave critical path (a constant that,
    # like any driver-adjacent serial stage, taxes the 32-cpu leg ~3x
    # harder than the 8-cpu leg)
    import ray as _ray

    meta_ref = dup_meta_ref(dup_ref, persist_path=table_path)
    box = [membership_ref(dup_ref)]
    fp_refs = [remote_fn(_files_dup_fp).remote(c, box[0]) for c in chunks]
    (n_dups, dupset_fp), *fp_pairs = _ray.get([meta_ref] + fp_refs)
    file_fps = dict(p for pairs in fp_pairs for p in pairs)
    with open(meta_path + ".tmp", "w") as fh:
        json.dump(
            {
                "inputs_fp": inputs_fp,
                "dupset_fp": dupset_fp,
                "n_dups": n_dups,
                "file_fps": file_fps,
            },
            fh,
        )
    os.replace(meta_path + ".tmp", meta_path)
    tasks = len(chunks)
    return box, dupset_fp, file_fps, {"dup_scan": tasks, "dup_fp": tasks}


def _files_dup_fp(paths: list[str], payload) -> list:
    """[(path, fingerprint of THIS file's dup-membership decisions)] for a
    chunk of files — the per-partition share of the global dup state. A
    partition's extract output depends on the dup set only through the
    is_dup flags of ITS OWN urls, so salting each partition with the
    fingerprint of its flagged-url set (computed with the SAME membership
    payload the tag step uses — Bloom false positives included, they
    change the output layout too) makes input growth invalidate exactly
    the partitions whose flags changed, instead of the whole store.
    Narrow: one url-column read per file; the driver sees only hashes."""
    import hashlib

    member = DupMembership(payload)
    out = []
    for path in paths:
        t = pq.ParquetFile(path).read(columns=["url"])
        flagged = t.filter(member.mask(t["url"]))["url"].to_pylist()
        h = hashlib.sha256("\n".join(sorted(set(flagged))).encode())
        out.append((path, h.hexdigest()[:16]))
    return out


def _commit_wave(
    tmp_dir: str,
    extracted_dir: str,
    wave: list[tuple[int, str]],
    counts: list,
    salt: str = "",
) -> int:
    """Atomically promote each partition's output dir and write its lineage
    record. Returns rows committed. ``counts`` = one row per unit from the
    fused sink: ``pid``, ``n`` and the unit's busy seconds per phase, which
    are absent or ``None`` for a unit reused from a marker. Each record's
    ``stage_metrics`` is its own partition's cost: ``units``,
    ``units_reused`` and the summed ``read_s``/``extract_s``/``tag_s``/
    ``write_s`` of the units this run did."""
    total = 0
    stats = {
        pid: dict.fromkeys(("rows", "units", "units_reused") + _PHASES, 0)
        for pid, _ in wave
    }
    for r in counts:
        st = stats[int(r["pid"])]
        st["rows"] += int(r["n"])
        st["units"] += 1
        if r.get("read_s") is None:
            st["units_reused"] += 1
        else:
            for phase in _PHASES:
                st[phase] += r[phase]
    for pid, _ in wave:
        src = os.path.join(tmp_dir, f"partition_id={pid}")
        dst = os.path.join(extracted_dir, f"partition_id={pid}")
        if not os.path.isdir(src):  # partition produced zero rows
            os.makedirs(src, exist_ok=True)
        else:
            # scrub truncated 'part-*.parquet.tmp<sig>' leftovers from a
            # killed prior run whose pid dir survived the marker-based
            # resume: by the time a wave commits, every live unit has
            # os.replace'd its FINAL '.parquet' name, so anything else in
            # the dir is garbage — promoting it would permanently plant a
            # truncated file in extracted/ that no later run cleans up (the
            # finalize and migrate walks take only '.parquet' names, but a
            # plain pyarrow dataset read of the store would trip over it)
            for root, _dirs, fns in os.walk(src):  # incl. is_dup= level
                for fn in fns:
                    if not fn.endswith(".parquet") and ".tmp" in fn:
                        os.remove(os.path.join(root, fn))
        total += stats[pid]["rows"]
        if os.path.isdir(dst):
            shutil.rmtree(dst)
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        os.replace(src, dst)
    for pid, path in wave:
        st = stats[pid]
        lin.write_record(
            os.path.dirname(extracted_dir),
            lin.LineageRecord(
                partition_id=pid,
                input_path=path,
                input_fingerprint=lin.fingerprint_with_salt(path, salt),
                rows_done=st["rows"],
                status=lin.STATUS_DONE,
                stage_metrics={
                    "units": st["units"],
                    "units_reused": st["units_reused"],
                    **{phase: round(st[phase], 4) for phase in _PHASES},
                },
            ),
        )
    return total


class PipelineLock:
    """Single-writer guard per output dir (flock) — the reference's
    single-instance lock (``tools/ocs-watcher/src/ocsw/single_instance.py:
    12-24``): two concurrent extract runs over one store would race the
    wave-temp dir and lineage records."""

    def __init__(self, out_dir: str) -> None:
        os.makedirs(out_dir, exist_ok=True)
        self._path = os.path.join(out_dir, ".lock")
        self._fh = None

    def __enter__(self):
        import fcntl

        self._fh = open(self._path, "w")
        try:
            fcntl.flock(self._fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            self._fh.close()
            self._fh = None
            raise RuntimeError(
                f"another extract run holds {self._path}; refusing concurrent "
                "writes to one output store"
            )
        return self

    def __exit__(self, *exc):
        import fcntl

        if self._fh is not None:
            fcntl.flock(self._fh, fcntl.LOCK_UN)
            self._fh.close()


def run_extract_phase(pages_dir: str, out_dir: str, cfg: ExtractConfig | None = None) -> dict:
    """Phase 1: extract all pending partitions, wave by wave. Idempotent.
    Guarded by a per-store single-writer lock."""
    with PipelineLock(out_dir):
        return _run_extract_phase_locked(pages_dir, out_dir, cfg)


def _resolve_wave_size(wave_size: int | str, n_pending: int) -> int:
    """``"auto"`` sizes waves to bound the wave COUNT at ~4 regardless of
    corpus size (warm 10M-page A/B in BASELINE.md: 16 waves → 4 waves cut
    wall 167.4 → 145.6 s; each barrier pays a fixed pipeline-ramp cost). The commit
    barrier exists for atomic per-wave promotion, not resume granularity —
    unit markers checkpoint (file, row_group) units inside a running wave —
    so fewer, bigger waves lose nothing. Floor 32 keeps bench-sized corpora
    (<= 32 files) single-wave."""
    if wave_size == "auto":
        return max(32, -(-n_pending // 4))
    if not isinstance(wave_size, int) or wave_size < 1:
        raise ValueError(f"wave_size must be a positive int or 'auto': {wave_size!r}")
    return wave_size


def _run_extract_phase_locked(
    pages_dir: str, out_dir: str, cfg: ExtractConfig | None = None
) -> dict:
    cfg = cfg or ExtractConfig()
    files = list_pages_files(pages_dir)
    if not files:
        raise FileNotFoundError(f"no pages parquet under {pages_dir}")
    quarantined: list[dict] = []
    # tasks each fan-out started, next to the CPU count they were sized by
    fanout = {"cpus": cluster_cpus(), "probe": 0}
    if cfg.on_bad_input == "quarantine":
        files, quarantined, fanout["probe"] = _probe_inputs(files, out_dir)
        if not files:
            raise FileNotFoundError(
                f"all pages parquet under {pages_dir} quarantined: "
                f"{[q['path'] for q in quarantined]}"
            )
    elif cfg.on_bad_input != "raise":
        raise ValueError(f"on_bad_input must be 'raise' or 'quarantine': {cfg.on_bad_input!r}")
    extracted_dir = os.path.join(out_dir, "extracted")
    os.makedirs(extracted_dir, exist_ok=True)
    # global dup-url set first (url-column-only scan of the whole input);
    # its fingerprint — plus the extraction-code fingerprint — salts every
    # partition fingerprint, so an input change that alters cross-partition
    # dup relationships OR a change to the extraction code invalidates
    # dependent partitions (code-version lineage)
    from ocr_suite_ray.version import extract_code_fingerprint

    t_dup0 = time.monotonic()
    member_box, _global_fp, file_fps, dup_tasks = _input_dup_membership(files, out_dir)
    code_fp = extract_code_fingerprint()
    # per-partition salt: this file's dup-decision fingerprint + code
    # version + the configured OCR engine — input growth elsewhere leaves
    # this partition's salt (and its done record) intact unless its own
    # flags changed; switching ocr_engine changes scanned-PDF rows (error
    # rows vs OCR text), so it must invalidate like a code change
    engine_tag = cfg.ocr_engine or "none"
    dupset_fp = {
        p: f"{fp}-{code_fp}-ocr:{engine_tag}" for p, fp in file_fps.items()
    }
    dup_scan_s = time.monotonic() - t_dup0
    # drop partitions no longer present in the (possibly shrunk) input —
    # their outputs would otherwise leak into the linked final store
    for pid, rec in lin.load_records(out_dir).items():
        if pid >= len(files):
            stale_dir = os.path.join(extracted_dir, f"partition_id={pid}")
            if os.path.isdir(stale_dir):
                shutil.rmtree(stale_dir)
            os.remove(lin.record_path(out_dir, pid))
    pending = lin.pending_partitions(files, out_dir, salt=dupset_fp)
    summary = {
        "partitions_total": len(files),
        "partitions_skipped": len(files) - len(pending),
        "partitions_processed": 0,
        "rows_extracted": 0,
        "waves": 0,
        "dup_scan_s": round(dup_scan_s, 3),
        "waves_s": 0.0,
        "commit_s": 0.0,
        "fanout": {**fanout, **dup_tasks, "wave": 0},
    }
    if quarantined:
        summary["quarantined"] = quarantined
    import ray

    debug_dir = os.path.join(out_dir, "debug") if cfg.debug_dump else None
    max_chunks = min(fanout["cpus"], cfg.pool_size)
    # retried without limit, RaySystemError too: a chunk redoes only its
    # unmarked units, so a retry is never wasted work
    wave_task = remote_fn(fused_extract_task).options(
        max_retries=-1, retry_exceptions=[ray.exceptions.RaySystemError]
    )
    first_wave = True
    wave_size = _resolve_wave_size(cfg.wave_size, len(pending))
    for w0 in range(0, len(pending), wave_size):
        wave = pending[w0 : w0 + wave_size]
        tmp_dir = os.path.join(out_dir, "_wave_tmp")
        done_units: dict = {}
        if os.path.isdir(tmp_dir):
            if first_wave:
                # leftovers from a killed run: units that completed (files
                # written + marker committed, verified against the current
                # input fingerprint + code salt) are reused — a killed job
                # loses at most the in-flight row-group units, not the wave
                # (reference row-level skip, src/ffmpeg/decoder.cpp:301-304)
                done_units = _load_unit_markers(tmp_dir, dupset_fp)
            if not done_units:
                shutil.rmtree(tmp_dir)
        first_wave = False
        t0 = time.monotonic()
        # read + extract + tag + write in one task per chunk of
        # (file, row_group) specs — neither input payloads nor outputs ever
        # cross the object store
        specs = _wave_specs(wave, salt=dupset_fp)
        if done_units:
            # the writer reuses a marked unit itself (_marked_rows), so
            # here only the pids of the reused units matter. pid must
            # match too: if the input list shifted, a marker's rows sit
            # under the wrong partition dir
            reused_pids = {
                pid
                for path, rg, pid in zip(
                    specs["path"].to_pylist(),
                    specs["row_group"].to_pylist(),
                    specs["partition_id"].to_pylist(),
                )
                if done_units.get((path, rg), {}).get("pid") == pid
            }
            # prune stale partition dirs the reused markers do NOT
            # account for: when the input list shifts (a new file sorts
            # before existing ones), the killed run's partition_id=<old>
            # dirs hold a DIFFERENT file's rows under a pid this wave
            # will commit — promoting them would duplicate urls in
            # final/. Re-run units rewrite their content-named files
            # deterministically, so deleting any unreused pid dir only
            # costs redundant work, never correctness. (pid→file is
            # injective per run, so a dir with a reused marker cannot
            # also hold another file's stale rows.)
            for d in os.listdir(tmp_dir):
                if not d.startswith("partition_id="):
                    continue
                if int(d.split("=", 1)[1]) not in reused_pids:
                    shutil.rmtree(os.path.join(tmp_dir, d))
            # ... and their ORPHANED markers: a pruned pid's marker
            # left behind could be "reused" by a later resume whose
            # input list shifted back, committing a done partition
            # whose output files this rmtree just deleted (silently
            # missing rows). Marker pid not in reused set -> delete.
            udir = os.path.join(tmp_dir, _UNITS_DIR)
            if os.path.isdir(udir):
                for f in os.listdir(udir):
                    if not f.endswith(".json"):
                        continue
                    fp_path = os.path.join(udir, f)
                    try:
                        with open(fp_path) as fh:
                            mpid = json.load(fh).get("pid")
                    except (OSError, ValueError):
                        mpid = None
                    if mpid not in reused_pids:
                        os.unlink(fp_path)
        # one task per chunk of units; the per-worker warm cache
        # (fused_extract_task) reuses the session's warm workers, so a
        # wave pays no actor spawn/import ramp
        chunks = _deal_units(specs["bytes"].to_pylist(), max_chunks)
        summary["fanout"]["wave"] += len(chunks)
        tables = ray.get([
            wave_task.remote(
                specs.take(pa.array(c, pa.int64())),
                tmp_dir=tmp_dir,
                member_box=member_box,
                debug_dir=debug_dir,
                ocr_engine=cfg.ocr_engine,
            )
            for c in chunks
        ])
        counts = [r for t in tables for r in t.to_pylist()]
        wall = time.monotonic() - t0
        summary["waves_s"] = round(summary["waves_s"] + wall, 3)
        live = [r for r in counts if r.get("read_s") is not None]
        if live:
            # pool busy-time decomposition (a reused unit's row carries
            # no timings)
            for phase in _PHASES:
                summary[f"pool_{phase}"] = round(
                    summary.get(f"pool_{phase}", 0.0)
                    + sum(r[phase] for r in live),
                    2,
                )
        t_c0 = time.monotonic()
        summary["rows_extracted"] += _commit_wave(
            tmp_dir, extracted_dir, wave, counts, salt=dupset_fp
        )
        summary["commit_s"] = round(
            summary["commit_s"] + (time.monotonic() - t_c0), 3
        )
        summary["partitions_processed"] += len(wave)
        summary["waves"] += 1
        if os.path.isdir(tmp_dir):
            shutil.rmtree(tmp_dir)
    return summary


def _wave_specs(wave: list[tuple[int, str]], salt: str = "") -> pa.Table:
    """(path, row_group, pid, fp, bytes) work units for the fused wave.
    Row groups are written with a fixed row count, so a unit's ``bytes``
    (the row group's uncompressed ``total_byte_size`` from the footer)
    tells a giant-DOM or PDF unit from a plain one; ``_deal_units`` deals
    units onto chunks by it. ``fp`` is the salted input fingerprint the
    worker stamps into each unit's completion marker (computed here so the
    worker never touches lineage code)."""
    paths, rgs, pids, fps, sizes = [], [], [], [], []
    for pid, path in wave:
        md = pq.read_metadata(path)
        fp = lin.fingerprint_with_salt(path, salt)
        for rg in range(md.num_row_groups):
            paths.append(path)
            rgs.append(rg)
            pids.append(pid)
            fps.append(fp)
            sizes.append(md.row_group(rg).total_byte_size)
    return pa.table(
        {
            "path": pa.array(paths, pa.string()),
            "row_group": pa.array(rgs, pa.int32()),
            "partition_id": pa.array(pids, pa.int64()),
            "fp": pa.array(fps, pa.string()),
            "bytes": pa.array(sizes, pa.int64()),
        }
    )


def _deal_units(sizes: list[int], n: int) -> list[list[int]]:
    """Unit indices dealt onto ``min(len(sizes), n)`` chunks: largest first,
    each onto the chunk with the fewest bytes so far (LPT), so no two
    chunks' byte loads differ by more than the largest unit. Each chunk
    keeps its units in input order."""
    import heapq

    n = min(len(sizes), n)
    chunks: list[list[int]] = [[] for _ in range(n)]
    loads = [(0, c) for c in range(n)]
    for i in sorted(range(len(sizes)), key=lambda i: -sizes[i]):
        load, c = heapq.heappop(loads)
        chunks[c].append(i)
        heapq.heappush(loads, (load + sizes[i], c))
    return [sorted(c) for c in chunks]


_UNITS_DIR = "_units"


def _unit_marker_name(path: str, row_group: int) -> str:
    import hashlib

    h = hashlib.sha1(f"{path}|{row_group}".encode()).hexdigest()[:16]
    return f"u-{h}.json"


def _load_unit_markers(tmp_dir: str, salt: str) -> dict:
    """{(path, row_group): {"pid","n"}} for every completed unit of a killed
    wave whose input file still fingerprints identically under the current
    salt (input content + dup-set + extraction-code version). Any invalid or
    unreadable marker invalidates the whole leftover dir (caller deletes) —
    correctness first, the rerun merely redoes the wave."""
    udir = os.path.join(tmp_dir, _UNITS_DIR)
    if not os.path.isdir(udir):
        return {}
    out: dict = {}
    for f in os.listdir(udir):
        if not f.endswith(".json"):
            continue
        try:
            with open(os.path.join(udir, f)) as fh:
                m = json.load(fh)
            if m["fp"] != lin.fingerprint_with_salt(m["path"], salt):
                return {}
            out[(m["path"], m["row_group"])] = {"pid": m["pid"], "n": m["n"]}
        except (OSError, ValueError, KeyError):
            return {}
    return out


_FUSED_CACHE: dict = {}

# one row per unit: rows written plus per-phase busy seconds (null for a
# unit an earlier attempt of the same chunk completed)
_COUNTS_SCHEMA = pa.schema(
    [("pid", pa.int64()), ("n", pa.int64())] + [(k, pa.float64()) for k in _PHASES]
)


def fused_extract_task(
    spec: pa.Table,
    *,
    tmp_dir: str,
    member_box: list,
    debug_dir: str | None = None,
    ocr_engine: str | None = None,
) -> pa.Table:
    """The fused wave's Ray task: one call per chunk of unit specs, with
    the warm state cached per WORKER PROCESS (module global keyed by sink
    dir + membership ref). One task per chunk, not per unit, so a wave of
    u units on c CPUs pays the task round trip c times, not u. Tasks reuse
    the session's already-warm workers, so a wave pays ZERO pool ramp —
    measured ~2-3 s of actor-process spawn+import per wave at 28-actor
    concurrency. Cache holds one entry (waves are sequential); a new
    wave's key evicts the old."""
    key = (tmp_dir, member_box[0], debug_dir, ocr_engine)
    writer = _FUSED_CACHE.get(key)
    if writer is None:
        _FUSED_CACHE.clear()
        writer = FusedExtractWriter(tmp_dir, member_box, debug_dir, ocr_engine)
        _FUSED_CACHE[key] = writer
    return writer(spec)


class FusedExtractWriter:
    """The whole wave in ONE task body: each call takes a chunk of
    (path, row_group, pid, fp) specs and, per spec, reads that row group
    directly (no object store transfer: read, extract, tag and write are
    fused by hand), extracts with the warm parser, tags is_dup, writes the
    partition files and the unit marker, and returns only (pid, n) counts
    plus per-phase busy seconds.

    The reference analogue is exact: one consumer thread = warm Tesseract +
    direct frame access + its own DB writes (``src/recognition/main.cpp:
    174-183``) — no shared writer, no intermediate hand-off."""

    def __init__(
        self,
        tmp_dir: str,
        member_box: list,
        debug_dir: str | None = None,
        ocr_engine: str | None = None,
    ) -> None:
        # NB: no runtime package imports here — this body runs in the worker,
        # which may not have the repo on sys.path (classes ship by value).
        # member_box holds the membership payload's ObjectRef (boxed so Ray
        # ships the ref, not the payload) — one node-local get per worker.
        import ray

        self._sink = _SinkWriter(tmp_dir)
        self._extract = PageExtractor(ocr_engine)
        self._member = DupMembership(ray.get(member_box[0]))
        self._units_dir = os.path.join(tmp_dir, _UNITS_DIR)
        self._debug_dir = debug_dir

    def _dump_errors(self, src: pa.Table, ext: pa.Table) -> None:
        """BMP-debug-sink analogue (``src/recognition/bmp.cpp:52-87`` dumps
        the raw frame a recognizer choked on): side-write the RAW payloads
        of error-status rows for triage. Positional 1:1 between src and ext
        rows; content-derived names keep retries idempotent. Side channel —
        not part of the atomic wave commit (triage aid, not lineage)."""
        bad = pc.starts_with(ext["status"], "error:")
        if not pc.any(bad).as_py():
            return
        dump = pa.table(
            {
                "url": src["url"],
                "warc_ts": src["warc_ts"],
                "payload": src["html"],
                "status": ext["status"],
            }
        ).filter(bad)
        os.makedirs(self._debug_dir, exist_ok=True)
        sig = _SinkWriter._content_sig(dump.combine_chunks())
        path = os.path.join(self._debug_dir, f"errors-{sig}.parquet")
        pq.write_table(dump, path + f".tmp{sig}", use_dictionary=False)
        os.replace(path + f".tmp{sig}", path)

    def _write_marker(self, path: str, rg: int, pid: int, n: int, fp: str) -> None:
        """Unit completion marker, written AFTER the unit's sink files are in
        place: a resume reuses (path, row_group) outputs with a valid marker
        and redoes only unmarked units — row-group-level resume granularity
        (reference row-level skip, ``src/ffmpeg/decoder.cpp:301-304``)."""
        os.makedirs(self._units_dir, exist_ok=True)
        name = _unit_marker_name(path, rg)
        tmp = os.path.join(self._units_dir, name + f".tmp{os.getpid()}")
        with open(tmp, "w") as fh:
            json.dump(
                {"path": path, "row_group": rg, "pid": pid, "n": n, "fp": fp}, fh
            )
        os.replace(tmp, os.path.join(self._units_dir, name))

    def _marked_rows(self, path: str, rg: int, pid: int, fp: str) -> int | None:
        """Rows of a unit whose marker for this same (path, row_group, pid,
        fp) already exists, else ``None``. This is the one reuse path: a
        resumed run skips the units the killed run completed, and a Ray
        retry of a chunk task (a worker OOM, say) the units its failed
        attempt completed, so a retry redoes units, not chunks. The marker
        is written after the unit's sink files, so a marked unit's files
        are in place."""
        marker = os.path.join(self._units_dir, _unit_marker_name(path, rg))
        try:
            with open(marker) as fh:
                m = json.load(fh)
        except (OSError, ValueError):
            return None
        key = (m.get("path"), m.get("row_group"), m.get("pid"), m.get("fp"))
        return m["n"] if key == (path, rg, pid, fp) else None

    def __call__(self, spec: pa.Table) -> pa.Table:
        rows = []
        for path, rg, pid, fp in zip(
            spec["path"].to_pylist(),
            spec["row_group"].to_pylist(),
            spec["partition_id"].to_pylist(),
            spec["fp"].to_pylist(),
        ):
            n = self._marked_rows(path, rg, pid, fp)
            if n is not None:
                rows.append({"pid": pid, "n": n})
                continue
            t0 = time.monotonic()
            t = pq.ParquetFile(path).read_row_group(rg, columns=PAGES_COLUMNS)
            t_read = time.monotonic()
            ext = self._extract(t)
            t_ext = time.monotonic()
            if self._debug_dir is not None:
                self._dump_errors(t, ext)
            is_dup = self._member.flags(ext["url"])
            t_tag = time.monotonic()
            self._sink(ext, is_dup, pid)
            self._write_marker(path, rg, pid, ext.num_rows, fp)
            t_done = time.monotonic()
            rows.append({
                "pid": pid,
                "n": ext.num_rows,
                "read_s": t_read - t0,
                "extract_s": t_ext - t_read,
                "tag_s": t_tag - t_ext,
                "write_s": t_done - t_tag,
            })
        return pa.Table.from_pylist(rows, schema=_COUNTS_SCHEMA)


class _SinkWriter:
    """Per-unit parquet sink of the fused wave: splits one row group's
    extracted rows by is_dup and writes one file per flag under
    ``partition_id=<pid>/is_dup=<flag>/`` with a deterministic
    content-derived name (idempotent under task retries)."""

    def __init__(self, tmp_dir: str) -> None:
        self._tmp = tmp_dir

    @staticmethod
    def _content_sig(out: pa.Table) -> str:
        """Content-derived filename: hashes EVERY column's buffers (not just
        url+text — two blocks identical in url+text but differing in warc_ts
        would otherwise collide and silently overwrite each other), so
        distinct blocks can never share a name while a retried task still
        rewrites its own file (same block content, same name)."""
        import hashlib

        h = hashlib.sha1()
        for name, chunked in zip(out.schema.names, out.itercolumns()):
            h.update(name.encode())
            chunks = chunked.chunks if isinstance(chunked, pa.ChunkedArray) else [chunked]
            for chunk in chunks:
                for buf in chunk.buffers():
                    if buf is not None:
                        h.update(buf)
        h.update(str(out.num_rows).encode())
        return h.hexdigest()[:16]

    def __call__(self, t: pa.Table, is_dup: pa.Array, pid: int) -> None:
        flags = pc.unique(is_dup).to_pylist()
        for flag in flags:
            # a single-flag unit (the common case) skips the filter copy —
            # the text column is bandwidth-expensive to rewrite
            sub = t if len(flags) == 1 else t.filter(pc.equal(is_dup, flag))
            out = sub.combine_chunks()
            d = os.path.join(self._tmp, f"partition_id={pid}", f"is_dup={flag}")
            os.makedirs(d, exist_ok=True)
            sig = self._content_sig(out)
            path = os.path.join(d, f"part-{sig}.parquet")
            # dictionary encoding is pure overhead for near-unique text/
            # url values, and statistics only pay for themselves on url
            # (fetch_payload's pushdown key) — both measurably inflate
            # write CPU under full-box concurrency
            pq.write_table(
                out,
                path + f".tmp{sig}",
                use_dictionary=False,
                write_statistics=["url", "warc_ts"],
            )
            os.replace(path + f".tmp{sig}", path)


def run_finalize_phase(out_dir: str, cfg: ExtractConfig | None = None) -> dict:
    """Phase 2 (single-writer-locked, same flock as the extract phase — a
    finalize racing another process's extract/finalize on one store would
    corrupt final.tmp / final_manifest.json): newest-capture-wins dedup over
    all done partitions → final/. ``cfg`` is accepted for call symmetry with
    ``run_extract_phase``; the finalize has no settings of its own."""
    with PipelineLock(out_dir):
        return _run_finalize_phase_locked(out_dir)


def _run_finalize_phase_locked(out_dir: str) -> dict:
    """Newest-capture-wins dedup over all done partitions → final/, via
    `_finalize_linked` (hardlink the is_dup=0 files, exactly reduce the
    is_dup=1 subset), staged in final.tmp and promoted by rename.

    Skipped when the done-set fingerprint matches the last finalize (the
    global-watermark check)."""
    extracted_dir = os.path.join(out_dir, "extracted")
    final_dir = os.path.join(out_dir, "final")
    manifest_path = os.path.join(out_dir, "final_manifest.json")
    fp = lin.done_fingerprint_set(out_dir)
    if os.path.exists(manifest_path):
        with open(manifest_path) as fh:
            if json.load(fh).get("done_fingerprint") == fp and os.path.isdir(final_dir):
                return {"skipped": True, "done_fingerprint": fp}
    tmp_final = final_dir + ".tmp"
    if os.path.isdir(tmp_final):
        shutil.rmtree(tmp_final)
    tasks = _finalize_linked(extracted_dir, tmp_final)
    if os.path.isdir(final_dir):
        shutil.rmtree(final_dir)
    os.replace(tmp_final, final_dir)
    with open(manifest_path + ".tmp", "w") as fh:
        json.dump({"done_fingerprint": fp}, fh)
    os.replace(manifest_path + ".tmp", manifest_path)
    return {
        "skipped": False,
        "done_fingerprint": fp,
        "fanout": {"cpus": cluster_cpus(), **tasks},
    }


def _link_partitions(parts: list, tmp_final: str) -> "pa.Table | None":
    """Finalize unit for a chunk of (partition dir, pid) (runs as a remote
    task): hardlink each partition's unique-url files into the final store
    and return the newest capture per url of their dup files (``None``
    without any). Safe to retry (os.link EEXIST after a retry falls into
    the copy branch which overwrites in place)."""
    from ocr_suite_ray.stages.dedup import _local_best, encode_spans

    dups = []
    for pfull, pid in parts:
        uniq_dir = os.path.join(pfull, "is_dup=0")
        if os.path.isdir(uniq_dir):
            for k, f in enumerate(sorted(os.listdir(uniq_dir))):
                if f.endswith(".parquet"):
                    src = os.path.join(uniq_dir, f)
                    dst = os.path.join(tmp_final, f"uniq-{pid}-{k:04d}.parquet")
                    try:
                        os.link(src, dst)
                    except OSError:
                        try:
                            shutil.copy2(src, dst)
                        except shutil.SameFileError:
                            # a retried task re-links a file it already
                            # hardlinked: dst IS src's inode — done
                            pass
        ddir = os.path.join(pfull, "is_dup=1")
        if os.path.isdir(ddir):
            dups += [
                encode_spans(pq.read_table(os.path.join(ddir, f)))
                for f in sorted(os.listdir(ddir))
                if f.endswith(".parquet")
            ]
    return _local_best(pa.concat_tables(dups)) if dups else None


def _write_winners(path: str, t: pa.Table) -> int:
    """Root of the finalize's winners tree: re-nest the spans, write the
    winners to ``path`` (tmp + rename) and return only their row count."""
    from ocr_suite_ray.stages.dedup import decode_spans

    t = decode_spans(t)
    pq.write_table(t, path + ".tmp")
    os.replace(path + ".tmp", path)
    return t.num_rows


def _finalize_linked(extracted_dir: str, tmp_final: str) -> dict:
    """Finalize for the is_dup-partitioned layout: unique-url files are
    HARDLINKED into the final store (zero data movement — the extract phase
    already wrote them in final schema), and only the tiny dup subset is
    read, exactly-reduced (per-task combiner + one tree) and written.
    On a distributed filesystem the links become either copies or manifest
    references; the point stands: finalize cost scales with the dup rate,
    not the corpus. Returns the tasks the fan-out started.

    The walk is SHARDED: the driver does exactly one listdir (one entry per
    partition) and fans out one remote task per chunk of partitions
    (``cpu_chunks``) that links their unique-url files and reduces their
    dup files — at 10^6+ output files the per-file metadata ops run across
    the pool instead of serializing on the driver, and the tree over the
    tasks' dup winners needs no Dataset execution ramp; its root task
    writes ``winners.parquet`` (none without dups). The driver only ever
    holds partition names and the winners' row count."""
    from ocr_suite_ray.stages.dedup import _local_best

    os.makedirs(tmp_final, exist_ok=True)
    parts = [
        (os.path.join(extracted_dir, pdir), pdir.split("=", 1)[1])
        for pdir in sorted(os.listdir(extracted_dir))
        if pdir.startswith("partition_id=")
        and os.path.isdir(os.path.join(extracted_dir, pdir))
    ]
    chunks = cpu_chunks(parts)
    link = remote_fn(_link_partitions)
    tree_reduce_refs(
        [link.remote(c, tmp_final) for c in chunks],
        _local_best,
        functools.partial(_write_winners, os.path.join(tmp_final, "winners.parquet")),
    )
    return {"link": len(chunks)}


def run_pipeline(pages_dir: str, out_dir: str, cfg: ExtractConfig | None = None) -> dict:
    """End-to-end: resumable extract waves, then dedup/finalize."""
    s1 = run_extract_phase(pages_dir, out_dir, cfg)
    t0 = time.monotonic()
    s2 = run_finalize_phase(out_dir, cfg)
    s2["finalize_s"] = round(time.monotonic() - t0, 3)
    return {**s1, "finalize": s2, "final_dir": os.path.join(out_dir, "final")}
