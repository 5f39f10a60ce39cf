"""In-place store schema migration — the reference's versioned update
ladder (``src/common/db/updates/update.inl:9-34`` dispatches v0→v4 one
step at a time; ``v3.inl:40-144`` rewrites live data into the new layout)
re-expressed over the flagship parquet store.

Why it exists: the lineage guard *invalidates* a partition whose record
carries a foreign ``schema_version`` (``state/lineage.py``), which at
smoke scale means "re-extract". At 100 TB, re-extracting a store because
a column was added is not viable — the reference migrates in place for
exactly this reason. ``migrate_store`` rewrites the store through a
chain of per-version table transforms and CARRIES THE LINEAGE: records
keep their fingerprints, row counts and ``done`` status with only
``schema_version`` bumped, so a post-migration run against the same
inputs skips every partition exactly as before.

Scale shape: one Ray task per store partition (the same granularity as
extraction itself — partition dirs are independent), each task a pure
read→transform-chain→write of that partition's files; the ``final``
store's dedup output files migrate the same way. No shuffle, no driver
materialization; wall time is one copy pass. Output is staged and
atomically promoted (two-rename, the curate.py contract), so a killed
migration leaves either the old store or the new one — never a hybrid.
The staging itself is RESUMABLE: each migrated unit (store partition /
final set) writes a marker keyed by its source lineage fingerprint, and
a re-run under the identical plan (same version hop, same source
done-set digest) skips completed units — at 100 TB a migration killed
at 90% costs 10% to finish, not 100%.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
from typing import Callable

import pyarrow as pa

from ocr_suite_ray.state import lineage as lin
from ocr_suite_ray.state.dupset import remote_fn

# Engine migration ladder: steps[v] upgrades a version-(v-1) EXTRACTED
# table to version v (the update.inl switch ladder). The engine is at
# SCHEMA_VERSION 1 with no successor yet, so the built-in ladder is
# empty; tests and forks register their own steps. Each step must be a
# PURE, deterministic ``pa.Table -> pa.Table`` (row count preserved —
# dropping rows would falsify the carried ``rows_done``).
MIGRATION_STEPS: dict[int, Callable[[pa.Table], pa.Table]] = {}


def _chain(from_version: int, to_version: int, steps) -> list:
    if to_version < from_version:
        raise ValueError(
            f"cannot downgrade store: v{from_version} -> v{to_version}"
        )
    missing = [
        v for v in range(from_version + 1, to_version + 1) if v not in steps
    ]
    if missing:
        raise ValueError(
            f"no migration step registered for version(s) {missing}"
        )
    return [steps[v] for v in range(from_version + 1, to_version + 1)]


def _migrate_files(
    chain: list, files: list[str], src_root: str, dst_root: str, marker: str,
    fp: str,
) -> int:
    """Migration unit (a remote task): rewrite ``files`` through the
    ``chain`` of steps under ``dst_root``, then write the unit's marker;
    returns the rows migrated."""
    import pyarrow.parquet as pq

    n = 0
    for f in files:
        t = pq.read_table(f)
        rows_in = t.num_rows
        for step in chain:
            t = step(t)
        if t.num_rows != rows_in:
            raise ValueError(
                f"migration step changed the row count of {f} "
                f"({rows_in} -> {t.num_rows}); steps must be row-"
                "preserving or the carried lineage rows_done lies"
            )
        dst = os.path.join(dst_root, os.path.relpath(f, src_root))
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        tmp = dst + f".tmp{os.getpid()}"
        # mirror the flagship writer's settings so byte layout stays
        # comparable (extract.py justifies use_dictionary=False for
        # near-unique text)
        pq.write_table(t, tmp, row_group_size=4096, use_dictionary=False)
        os.replace(tmp, dst)
        n += rows_in
    # unit marker LAST: a kill mid-unit leaves no marker and the
    # next run rewrites the whole unit (files are tmp+rename, so a
    # partial unit is invisible downstream either way)
    mtmp = marker + f".tmp{os.getpid()}"
    with open(mtmp, "w") as fh:
        json.dump({"fp": fp, "rows": n}, fh)
    os.replace(mtmp, marker)
    return n


def _count_done(files: list[str]) -> int:
    import pyarrow.parquet as pq

    return sum(pq.read_metadata(f).num_rows for f in files)


def migrate_store(
    old_dir: str,
    new_dir: str,
    *,
    to_version: int,
    steps: dict[int, Callable[[pa.Table], pa.Table]] | None = None,
) -> dict:
    """Rewrite the flagship store at ``old_dir`` to ``to_version`` at
    ``new_dir`` (staged + atomically promoted). ``old_dir`` is read-only
    throughout — at cluster scale the caller swaps the catalog pointer
    afterwards. Returns a summary dict.

    Raises on a mixed-version store (partitions must share one version —
    the flagship always writes them in lockstep) and on a gap in the
    step ladder.
    """
    import ray

    steps = MIGRATION_STEPS if steps is None else steps
    records = lin.load_records(old_dir)
    if not records:
        raise FileNotFoundError(f"no lineage records under {old_dir}")
    versions = {r.schema_version for r in records.values()}
    if len(versions) != 1:
        raise ValueError(
            f"mixed-version store (schema_versions {sorted(versions)}); "
            "flagship partitions migrate in lockstep"
        )
    from_version = versions.pop()
    chain = _chain(from_version, to_version, steps)

    staging = new_dir.rstrip("/") + ".staging"
    old_aside = new_dir.rstrip("/") + ".old"
    if not os.path.exists(new_dir) and os.path.exists(old_aside):
        os.replace(old_aside, new_dir)  # crash inside a prior promote
    # RESUMABLE staging (the lineage machinery, reused): a prior killed
    # migration's staging is kept iff its plan matches this one — same
    # version hop, same source store (done-set digest). Completed units
    # carry a marker keyed by the source partition's lineage fingerprint
    # and are skipped; everything else rewrites. A plan mismatch wipes.
    plan = {
        "from_version": from_version,
        "to_version": to_version,
        "source_dir": os.path.abspath(old_dir),
        "source_done": lin.done_fingerprint_set(old_dir),
    }
    plan_path = os.path.join(staging, "_migration_plan.json")
    if os.path.isdir(staging):
        prior = None
        try:
            with open(plan_path) as fh:
                prior = json.load(fh)
        except (OSError, ValueError):
            pass
        if prior != plan:
            shutil.rmtree(staging, ignore_errors=True)
    os.makedirs(os.path.join(staging, "_mig_done"), exist_ok=True)
    with open(plan_path + ".tmp", "w") as fh:
        json.dump(plan, fh, sort_keys=True)
    os.replace(plan_path + ".tmp", plan_path)

    def _marker(unit: str) -> str:
        return os.path.join(staging, "_mig_done", f"{unit}.json")

    def _unit_done(unit: str, fp: str) -> bool:
        try:
            with open(_marker(unit)) as fh:
                return json.load(fh).get("fp") == fp
        except (OSError, ValueError):
            return False

    # data files that carry the EXTRACTED schema: per-partition extracted
    # dirs (nested is_dup= hive level included) + ALL final-store files —
    # winners.parquet is the dedup winners' full extracted rows, so it
    # migrates too. dup_urls.parquet (url/ts membership) is
    # schema-independent state, copied verbatim below.
    migrate, count_done = remote_fn(_migrate_files), remote_fn(_count_done)
    chain_ref = ray.put(chain)
    tasks = []
    skipped = 0
    for pid in sorted(records):
        part_glob = os.path.join(
            old_dir, "extracted", f"partition_id={pid}", "**", "*.parquet"
        )
        files = sorted(glob.glob(part_glob, recursive=True))
        unit = f"part-{pid:05d}"
        fp = records[pid].input_fingerprint
        if _unit_done(unit, fp):
            skipped += 1
            tasks.append(count_done.remote(files))
            continue
        tasks.append(
            migrate.remote(chain_ref, files, old_dir, staging, _marker(unit), fp)
        )
    final_files = sorted(
        glob.glob(os.path.join(old_dir, "final", "*.parquet"))
    )
    final_resumed = _unit_done("final", plan["source_done"])
    if final_resumed:
        # the final store is its own unit — counting it in `skipped`
        # would make partitions_resumed exceed partitions on a full
        # resume
        tasks.append(count_done.remote(final_files))
    else:
        tasks.append(
            migrate.remote(
                chain_ref, final_files, old_dir, staging,
                _marker("final"), plan["source_done"],
            )
        )
    rows = ray.get(tasks)

    # verbatim state carry: dup-url membership, manifests
    for rel in ("dup_urls.parquet",
                "dup_urls_meta.json", "final_manifest.json"):
        src = os.path.join(old_dir, rel)
        if os.path.exists(src):
            dst = os.path.join(staging, rel)
            os.makedirs(os.path.dirname(dst), exist_ok=True)
            shutil.copyfile(src, dst)

    # lineage carry: identical records, only schema_version bumped — the
    # whole point (resume skips every partition post-migration)
    for rec in records.values():
        new_rec = lin.LineageRecord(**{
            **{k: getattr(rec, k) for k in (
                "partition_id", "input_path", "input_fingerprint",
                "rows_done", "status", "stage_metrics",
            )},
            "schema_version": to_version,
        })
        lin.write_record(staging, new_rec)

    with open(os.path.join(staging, "_migration.json"), "w") as fh:
        json.dump({
            "from_version": from_version,
            "to_version": to_version,
            "source_dir": os.path.abspath(old_dir),
        }, fh, sort_keys=True)

    # staging-only bookkeeping must not land in the promoted store
    shutil.rmtree(os.path.join(staging, "_mig_done"), ignore_errors=True)
    try:
        os.unlink(plan_path)
    except OSError:
        pass

    shutil.rmtree(old_aside, ignore_errors=True)
    if os.path.exists(new_dir):
        os.replace(new_dir, old_aside)
    os.replace(staging, new_dir)
    shutil.rmtree(old_aside, ignore_errors=True)
    return {
        "from_version": from_version,
        "to_version": to_version,
        "partitions": len(records),
        "partitions_resumed": skipped,
        "final_resumed": final_resumed,
        "rows_migrated": int(sum(rows[:-1])),
        "final_rows_migrated": int(rows[-1]),
        "new_dir": new_dir,
    }
