"""Per-partition lineage: the engine's checkpoint/resume manifest.

Reference analogue: the ``metadata.last_processed_frame`` watermark +
``is_frame_processed`` presence check + binary-search seek that let a killed
run resume without re-OCRing completed frames (``src/common/database.cpp:
110-150``, ``src/ffmpeg/decoder.cpp:178-211``, ``src/recognition/main.cpp:
61,144-151``). Here the unit of progress is an input *partition* (one input
Parquet file): a partition whose lineage record says ``done`` with a matching
input fingerprint is pruned at startup; everything else is (re)processed and
its output directory replaced atomically (write-temp-then-rename), so partial
writes from a killed run are invisible — the idempotent-store analogue of the
reference's transactional per-frame upsert (``database.cpp:50-108``).

One small JSON file per partition (``_lineage/part-NNNNN.json``) instead of a
shared SQLite row: no shared-writer lock (the reference serializes all N
consumers on one connection + recursive mutex, ``database.h:66``), and on a
real cluster each record is an independent tiny object on shared storage.
"""

from __future__ import annotations

import hashlib
import dataclasses
import json
import os
from dataclasses import asdict, dataclass, field

from ocr_suite_ray.schemas import SCHEMA_VERSION

STATUS_PENDING = "pending"
STATUS_DONE = "done"


@dataclass
class LineageRecord:
    partition_id: int
    input_path: str
    input_fingerprint: str
    rows_done: int = 0
    status: str = STATUS_PENDING
    # the partition's own cost: units, units_reused, read_s/extract_s/...
    stage_metrics: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION


_FP_CACHE: dict = {}


def partition_fingerprint(path: str) -> str:
    """Cheap content fingerprint: basename + size + parquet footer length
    bytes. Guards stale resumes when an input file is regenerated in place
    (the reference's analogue is re-checking frame presence per store,
    database.cpp:58-60). Reading the last 64 KiB keeps this O(1) per file
    regardless of file size. Memoized per (path, mtime_ns, size): one run
    fingerprints each input ~3x (inputs_fp, pending_partitions, wave
    specs) and the opens are serial on the driver's pre-wave critical
    path; a stat change invalidates the entry."""
    st = os.stat(path)
    ck = (path, st.st_mtime_ns, st.st_size)
    hit = _FP_CACHE.get(ck)
    if hit is not None:
        return hit
    if len(_FP_CACHE) > 1_000_000:  # bound driver memory on huge inputs
        _FP_CACHE.clear()
    h = hashlib.sha256()
    h.update(os.path.basename(path).encode())
    h.update(str(st.st_size).encode())
    with open(path, "rb") as fh:
        # head + middle + tail samples: tail-only missed a same-length
        # in-place payload regeneration deep inside a large row group
        # (footer offsets, size, and tail bytes all unchanged) — three
        # 64 KiB windows still cost ~0 vs hashing multi-GB shards, and a
        # mid-file byte edit now lands in at least one window for any
        # shard up to ~192 KiB and with high probability beyond (the
        # footer window continues to catch any row-group layout change)
        h.update(fh.read(65536))
        mid = max(0, st.st_size // 2 - 32768)
        fh.seek(mid)
        h.update(fh.read(65536))
        fh.seek(max(0, st.st_size - 65536))
        h.update(fh.read(65536))
    fp = h.hexdigest()[:32]
    _FP_CACHE[ck] = fp
    return fp


def _lineage_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "_lineage")


def record_path(out_dir: str, pid: int) -> str:
    return os.path.join(_lineage_dir(out_dir), f"part-{pid:05d}.json")


def write_record(out_dir: str, rec: LineageRecord) -> None:
    os.makedirs(_lineage_dir(out_dir), exist_ok=True)
    path = record_path(out_dir, rec.partition_id)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(asdict(rec), fh, sort_keys=True)
    os.replace(tmp, path)  # atomic on POSIX


def load_records(out_dir: str) -> dict[int, LineageRecord]:
    d = _lineage_dir(out_dir)
    if not os.path.isdir(d):
        return {}
    out: dict[int, LineageRecord] = {}
    for name in sorted(os.listdir(d)):
        if not (name.startswith("part-") and name.endswith(".json")):
            continue
        with open(os.path.join(d, name)) as fh:
            raw = json.load(fh)
        # tolerate records written by a NEWER build with extra fields:
        # constructing with unknown kwargs would raise TypeError before
        # the schema_version migration guard ever ran — filter to known
        # fields so the version check (pending_partitions) can reject
        # the record and trigger a clean re-process instead
        known = {f.name for f in dataclasses.fields(LineageRecord)}
        try:
            rec = LineageRecord(**{k: v for k, v in raw.items() if k in known})
        except TypeError:
            continue  # missing required fields (older build): not done
        out[rec.partition_id] = rec
    return out


def pending_partitions(
    files: list[str], out_dir: str, salt: str | dict = "",
    schema_version: int = SCHEMA_VERSION,
) -> list[tuple[int, str]]:
    """(pid, path) for every input partition that is not verifiably done.

    pid is the index into the *sorted* file list (deterministic partition
    identity, cf. the watcher's sorted-file convention,
    ``tools/ocs-watcher/src/ocsw/executor.py:98``). A record is honored only
    if status==done, the fingerprint matches the current input file, and the
    schema version matches (the migration-ladder guard). ``salt`` mixes
    derived state into the per-partition fingerprint; a ``dict`` maps each
    path to ITS OWN salt (e.g. the fingerprint of this partition's dup-url
    membership decisions), so growing the input only invalidates partitions
    whose derived state actually changed — not the whole store."""
    records = load_records(out_dir)
    pending: list[tuple[int, str]] = []
    for pid, path in enumerate(files):
        rec = records.get(pid)
        if (
            rec is not None
            and rec.status == STATUS_DONE
            and rec.schema_version == schema_version
            and rec.input_fingerprint == fingerprint_with_salt(path, salt)
        ):
            continue
        pending.append((pid, path))
    return pending


def fingerprint_with_salt(path: str, salt: str | dict = "") -> str:
    if isinstance(salt, dict):
        salt = salt.get(path, "")
    fp = partition_fingerprint(path)
    return f"{fp}:{salt}" if salt else fp


def done_fingerprint_set(out_dir: str) -> str:
    """Stable digest over the set of done partitions — used by the phase-2
    (dedup/finalize) step to decide whether its input changed since the last
    finalize (global-watermark analogue)."""
    records = load_records(out_dir)
    h = hashlib.sha256()
    for pid in sorted(records):
        rec = records[pid]
        if rec.status == STATUS_DONE:
            h.update(f"{pid}:{rec.input_fingerprint}:{rec.rows_done};".encode())
    return h.hexdigest()[:32]
