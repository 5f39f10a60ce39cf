"""Resume/lineage semantics: a killed job must not reprocess committed
partitions, must redo invalidated ones, and must converge to byte-identical
output (reference analogue: watermark + is_frame_processed + seek,
``src/common/database.cpp:110-150``)."""

from __future__ import annotations

import json
import os
import shutil

import pyarrow as pa
import pyarrow.dataset as pads
import pytest

from ocr_suite_ray.pipelines.extract import (
    ExtractConfig,
    run_extract_phase,
    run_finalize_phase,
    run_pipeline,
)
from ocr_suite_ray.state import lineage as lin


def _mtimes(out_dir: str) -> dict:
    d = os.path.join(out_dir, "extracted")
    out = {}
    for dirpath, _dirs, names in os.walk(d):
        for f in names:
            p = os.path.join(dirpath, f)
            out[p] = os.stat(p).st_mtime_ns
    return out


def test_rerun_skips_done_partitions(ray_session, small_corpus, tmp_path):
    pages_dir, files = small_corpus
    out = str(tmp_path / "out")
    cfg = ExtractConfig(wave_size=2, pool_size=2)
    s1 = run_extract_phase(pages_dir, out, cfg)
    assert s1["partitions_processed"] == len(files)
    before = _mtimes(out)
    s2 = run_extract_phase(pages_dir, out, cfg)
    assert s2["partitions_processed"] == 0
    assert s2["partitions_skipped"] == len(files)
    assert _mtimes(out) == before  # nothing rewritten


def test_kill_after_k_partitions_resumes_rest(ray_session, small_corpus, tmp_path):
    pages_dir, files = small_corpus
    out = str(tmp_path / "out")
    cfg = ExtractConfig(wave_size=2, pool_size=2)
    run_extract_phase(pages_dir, out, cfg)
    # simulate a kill that lost partitions 2,3: drop their lineage + output
    for pid in (2, 3):
        os.remove(lin.record_path(out, pid))
        shutil.rmtree(os.path.join(out, "extracted", f"partition_id={pid}"))
    # plus a leftover in-flight wave temp dir
    os.makedirs(os.path.join(out, "_wave_tmp", "partition_id=9"), exist_ok=True)
    before = {
        p: m for p, m in _mtimes(out).items() if "partition_id=0" in p or "partition_id=1" in p
    }
    s = run_extract_phase(pages_dir, out, cfg)
    assert s["partitions_processed"] == 2
    assert s["partitions_skipped"] == 2
    after = {
        p: m for p, m in _mtimes(out).items() if "partition_id=0" in p or "partition_id=1" in p
    }
    assert after == before  # committed partitions untouched
    run_finalize_phase(out, cfg)
    # full fresh run → byte-identical final store
    out2 = str(tmp_path / "fresh")
    run_pipeline(pages_dir, out2, cfg)
    a = pads.dataset(f"{out}/final").to_table().sort_by("url")
    b = pads.dataset(f"{out2}/final").to_table().sort_by("url")
    assert a.equals(b)


def test_changed_input_invalidates_partition(ray_session, small_corpus, tmp_path):
    pages_dir, files = small_corpus
    # work on a copy so other tests keep their corpus
    pages2 = str(tmp_path / "pages2")
    shutil.copytree(pages_dir, pages2)
    files2 = sorted(
        os.path.join(pages2, f) for f in os.listdir(pages2) if f.endswith(".parquet")
    )
    out = str(tmp_path / "out")
    cfg = ExtractConfig(wave_size=4, pool_size=2)
    run_extract_phase(pages2, out, cfg)
    # regenerate partition 1's file with different content
    import pyarrow.parquet as pq

    t = pq.read_table(files2[1])
    pq.write_table(t.slice(0, t.num_rows - 1), files2[1])
    s = run_extract_phase(pages2, out, cfg)
    assert s["partitions_processed"] == 1


def test_schema_version_guard(ray_session, small_corpus, tmp_path):
    pages_dir, files = small_corpus
    out = str(tmp_path / "out")
    cfg = ExtractConfig(wave_size=4, pool_size=2)
    run_extract_phase(pages_dir, out, cfg)
    # tamper one record's schema_version -> partition must be redone
    path = lin.record_path(out, 0)
    with open(path) as fh:
        rec = json.load(fh)
    rec["schema_version"] = 0
    with open(path, "w") as fh:
        json.dump(rec, fh)
    s = run_extract_phase(pages_dir, out, cfg)
    assert s["partitions_processed"] == 1


def test_lineage_record_roundtrip(tmp_path):
    out = str(tmp_path)
    rec = lin.LineageRecord(
        partition_id=3,
        input_path="/x/pages_3.parquet",
        input_fingerprint="abc",
        rows_done=17,
        status=lin.STATUS_DONE,
        stage_metrics={"rows_per_s": 42.0},
    )
    lin.write_record(out, rec)
    got = lin.load_records(out)
    assert got[3] == rec


def test_shrunk_input_drops_stale_partitions(ray_session, small_corpus, tmp_path):
    """Fewer input files than a previous run: stale partition outputs must
    not leak into the final store."""
    import pyarrow.dataset as pads

    pages_dir, files = small_corpus
    out = str(tmp_path / "out")
    cfg = ExtractConfig(wave_size=4, pool_size=2)
    run_pipeline(pages_dir, out, cfg)
    full_rows = pads.dataset(f"{out}/final").count_rows()
    # shrink: copy only the first 2 files
    small = str(tmp_path / "pages_small")
    os.makedirs(small)
    for f in files[:2]:
        shutil.copy(f, small)
    run_pipeline(small, out, cfg)
    final = pads.dataset(f"{out}/final").to_table()
    assert final.num_rows < full_rows
    # oracle: fresh run on the shrunk input
    out2 = str(tmp_path / "fresh")
    run_pipeline(small, out2, cfg)
    fresh = pads.dataset(f"{out2}/final").to_table().sort_by("url")
    assert final.sort_by("url").equals(fresh)


def test_killed_wave_resumes_at_unit_granularity(ray_session, small_corpus, tmp_path):
    """A killed wave's COMPLETED row-group units (sink files + marker) are
    reused on resume: their files keep their mtimes, only unmarked units are
    re-extracted, and the final output is byte-identical to a clean run."""
    import pyarrow as pa
    import ray

    from ocr_suite_ray.pipelines.extract import (
        DupMembership,
        FusedExtractWriter,
        _input_dup_membership,
        _wave_specs,
        list_pages_files,
    )
    from ocr_suite_ray.version import extract_code_fingerprint

    pages_dir, files = small_corpus
    out = str(tmp_path / "out_unit")
    clean_out = str(tmp_path / "out_clean")
    cfg = ExtractConfig(wave_size=4, pool_size=2)

    # simulate a killed wave: process only the FIRST unit by hand, leaving
    # its sink files + completion marker in _wave_tmp
    files = list_pages_files(pages_dir)
    member_box, _dupset_fp, file_fps, _tasks = _input_dup_membership(files, out)

    code_fp = extract_code_fingerprint()
    # mirror run_pipeline's salt derivation (incl. the ocr-engine tag)
    _engine_tag = cfg.ocr_engine or "none"
    salts = {
        p: f"{fp}-{code_fp}-ocr:{_engine_tag}" for p, fp in file_fps.items()
    }
    wave = list(enumerate(files))[: cfg.wave_size]
    specs = _wave_specs(wave, salt=salts)
    tmp_dir = os.path.join(out, "_wave_tmp")
    writer = FusedExtractWriter(tmp_dir, member_box)
    writer(specs.slice(0, 1))
    unit_files = _mtimes_under(tmp_dir)
    assert unit_files, "the hand-run unit must have written sink files"
    assert any("_units" in p for p in unit_files), "marker must exist"

    s = run_extract_phase(pages_dir, out, cfg)
    assert s["partitions_processed"] == len(wave)
    run_finalize_phase(out, cfg)

    # reused unit's files were promoted (not rewritten): mtimes preserved
    promoted = _mtimes(out)
    for p, mt in unit_files.items():
        if p.endswith(".parquet"):
            moved = p.replace("/_wave_tmp/", "/extracted/")
            assert promoted.get(moved) == mt, f"reused unit file rewritten: {p}"

    run_pipeline(pages_dir, clean_out, cfg)
    a = pads.dataset(os.path.join(out, "final")).to_table().sort_by("url")
    b = pads.dataset(os.path.join(clean_out, "final")).to_table().sort_by("url")
    assert a.equals(b)


def test_killed_wave_with_shifted_pids_drops_stale_dirs(
    ray_session, tmp_path
):
    """Input list shifts between a killed run and its resume (a new file
    sorts before existing ones): markers still fingerprint-validate but
    their pids are stale, so the killed run's partition dirs hold a
    DIFFERENT file's rows under each pid. Those dirs must be pruned, not
    promoted — promoting them duplicates urls in final/."""
    import pyarrow as pa

    from ocr_suite_ray.pipelines.extract import (
        FusedExtractWriter,
        _input_dup_membership,
        _load_unit_markers,
        _wave_specs,
        list_pages_files,
    )
    from ocr_suite_ray.sources.synthetic import generate_corpus
    from ocr_suite_ray.version import extract_code_fingerprint

    pages = str(tmp_path / "pages_shift")
    generate_corpus(pages, 200, seed=7, n_files=4)
    out = str(tmp_path / "out_shift")
    cfg = ExtractConfig(wave_size=8, pool_size=2)

    # killed run: extract ALL units of the first file (pid 0) by hand,
    # leaving its sink files + markers in _wave_tmp
    files = list_pages_files(pages)
    member_box, _fp, file_fps, _tasks = _input_dup_membership(files, out)
    code_fp = extract_code_fingerprint()
    # mirror run_pipeline's salt derivation (incl. the ocr-engine tag)
    _engine_tag = cfg.ocr_engine or "none"
    salts = {
        p: f"{fp}-{code_fp}-ocr:{_engine_tag}" for p, fp in file_fps.items()
    }
    specs = _wave_specs(list(enumerate(files)), salt=salts)
    first = specs.filter(pa.compute.equal(specs["partition_id"], 0))
    tmp_dir = os.path.join(out, "_wave_tmp")
    FusedExtractWriter(tmp_dir, member_box)(first)
    assert os.path.isdir(os.path.join(tmp_dir, "partition_id=0"))

    # shift: rename the LAST file so it sorts first — every pid moves by one
    shifted = os.path.join(pages, "a_first.parquet")
    os.rename(files[-1], shifted)

    # precondition for the bug: the old markers still validate under the
    # new salts (content unchanged), they just carry stale pids
    files2 = list_pages_files(pages)
    _box2, _fp2, file_fps2, _tasks2 = _input_dup_membership(files2, out)
    salts2 = {
        p: f"{fp}-{code_fp}-ocr:none" for p, fp in file_fps2.items()
    }
    assert _load_unit_markers(tmp_dir, salts2), "markers must still validate"

    s = run_extract_phase(pages, out, cfg)
    assert s["partitions_processed"] == len(files2)
    run_finalize_phase(out, cfg)
    final = pads.dataset(os.path.join(out, "final")).to_table()
    urls = final["url"].to_pylist()
    assert len(urls) == len(set(urls)), "stale wave dir promoted: dup urls"

    # byte-identical to a clean run on the shifted input
    out2 = str(tmp_path / "fresh_shift")
    run_pipeline(pages, out2, cfg)
    fresh = pads.dataset(os.path.join(out2, "final")).to_table().sort_by("url")
    assert final.sort_by("url").equals(fresh)


def _mtimes_under(root: str) -> dict:
    out = {}
    for dirpath, _dirs, names in os.walk(root):
        for f in names:
            p = os.path.join(dirpath, f)
            out[p] = os.stat(p).st_mtime_ns
    return out


def test_debug_dump_captures_error_payloads(ray_session, small_corpus, tmp_path):
    """debug_dump side-writes the RAW payload of every error-status row
    (bmp.cpp triage analogue) and nothing else; the main output is
    unchanged."""
    import pyarrow as pa

    pages_dir, files = small_corpus
    out = str(tmp_path / "out_dbg")
    run_pipeline(pages_dir, out, ExtractConfig(wave_size=4, pool_size=2, debug_dump=True))

    final = pads.dataset(os.path.join(out, "final")).to_table()
    # extracted store keeps error rows too (status column); dump must match
    extracted = pads.dataset(
        os.path.join(out, "extracted"),
        partitioning="hive",
        schema=None,
    ).to_table()
    n_errors_extracted = len(
        [s for s in extracted["status"].to_pylist() if s.startswith("error:")]
    )
    dump_dir = os.path.join(out, "debug")
    assert os.path.isdir(dump_dir)
    dump = pads.dataset(dump_dir).to_table()
    assert dump.num_rows == n_errors_extracted > 0
    assert set(dump.column_names) == {"url", "warc_ts", "payload", "status"}
    # dumped payloads are the original input bytes
    src = pa.concat_tables([_read_pages(f) for f in files])
    by_url = dict(zip(src["url"].to_pylist(), src["html"].to_pylist()))
    for r in dump.to_pylist():
        assert r["payload"] in (by_url[r["url"]],) or any(
            r["payload"] == h
            for u, h in zip(src["url"].to_pylist(), src["html"].to_pylist())
            if u == r["url"]
        )


def _read_pages(path: str):
    import pyarrow.parquet as pq

    return pq.read_table(path)


def test_finalize_linked_sharded_many_partitions(ray_session, tmp_path):
    """The finalize link walk is sharded into per-partition remote tasks:
    a synthetic 48-partition layout (3 files each) finalizes to exactly the
    union of unique files plus one winners file, with newest-capture-wins
    over the dup subset — the driver never lists individual parquet files."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ocr_suite_ray.pipelines.extract import _finalize_linked

    extracted = tmp_path / "extracted"
    n_parts, files_per_part = 48, 2
    expect_uniq_urls = []
    for p in range(n_parts):
        udir = extracted / f"partition_id={p}" / "is_dup=0"
        udir.mkdir(parents=True)
        for k in range(files_per_part):
            urls = [f"https://u{p}-{k}-{i}.example" for i in range(5)]
            expect_uniq_urls.extend(urls)
            pq.write_table(
                pa.table(
                    {
                        "url": urls,
                        "warc_ts": pa.array([1000 + i for i in range(5)], pa.int64()),
                        "text": [f"uniq {p} {k} {i}" for i in range(5)],
                    }
                ),
                udir / f"part-{k}.parquet",
            )
        # every third partition also carries dup captures of a shared url
        if p % 3 == 0:
            ddir = extracted / f"partition_id={p}" / "is_dup=1"
            ddir.mkdir(parents=True)
            pq.write_table(
                pa.table(
                    {
                        "url": ["https://dup.example"] * 2,
                        "warc_ts": pa.array([p, p + 1], pa.int64()),
                        "text": [f"cap {p}", f"cap {p + 1}"],
                    }
                ),
                ddir / "dups.parquet",
            )
    final = tmp_path / "final"
    _finalize_linked(str(extracted), str(final))
    t = pads.dataset(str(final)).to_table()
    got = dict(zip(t["url"].to_pylist(), t["text"].to_pylist()))
    assert len(got) == n_parts * files_per_part * 5 + 1
    assert set(got) == set(expect_uniq_urls) | {"https://dup.example"}
    # newest capture wins: max warc_ts among dup partitions 0,3,...,45 -> 46
    assert got["https://dup.example"] == "cap 46"
    n_files = len([f for f in os.listdir(final) if f.endswith(".parquet")])
    assert n_files == n_parts * files_per_part + 1  # links + winners.parquet


def test_ocr_engine_change_invalidates_partitions(
    ray_session, small_corpus, tmp_path
):
    """The per-partition salt mixes the configured OCR engine: re-running
    with a different ocr_engine must re-extract (scanned-PDF rows change
    from typed error rows to OCR text), never skip as done."""
    pages_dir, _files = small_corpus
    out = str(tmp_path / "out")
    s1 = run_pipeline(pages_dir, out, ExtractConfig(ocr_engine=None))
    assert s1["partitions_skipped"] == 0
    s2 = run_pipeline(pages_dir, out, ExtractConfig(ocr_engine=None))
    assert s2["partitions_processed"] == 0  # same engine: all skip
    s3 = run_pipeline(pages_dir, out, ExtractConfig(ocr_engine="stub"))
    assert s3["partitions_skipped"] == 0    # engine switch: all re-extract


def test_commit_scrubs_leftover_tmp_sink_files(
    ray_session, small_corpus, tmp_path
):
    """A truncated 'part-*.parquet.tmp<sig>' left in a reused pid dir by a
    killed worker must not be promoted into extracted/ (no later run
    would clean it up, and a plain pyarrow dataset read trips over it)."""
    import glob
    import os

    from ocr_suite_ray.pipelines.extract import _commit_wave

    pages_dir, _files = small_corpus
    out = str(tmp_path / "out")
    run_pipeline(pages_dir, out, ExtractConfig())
    # simulate the killed-run leftover inside a fresh wave tmp dir, then
    # commit that wave directly
    tmp_dir = str(tmp_path / "wave_tmp")
    pid_dir = os.path.join(tmp_dir, "partition_id=0", "is_dup=0")
    os.makedirs(pid_dir)
    src = glob.glob(
        os.path.join(out, "extracted", "partition_id=0", "**", "*.parquet"),
        recursive=True,
    )[0]
    import shutil as _sh

    _sh.copy(src, os.path.join(pid_dir, "part-aaaa.parquet"))
    with open(os.path.join(pid_dir, "part-bbbb.parquet.tmpdead"), "wb") as fh:
        fh.write(b"truncated garbage")
    files = sorted(
        f for f in os.listdir(pages_dir) if f.endswith(".parquet")
    )
    _commit_wave(
        tmp_dir, str(tmp_path / "out2_extracted"),
        wave=[(0, os.path.join(pages_dir, files[0]))], counts=[],
    )
    promoted = os.listdir(
        os.path.join(str(tmp_path / "out2_extracted"), "partition_id=0", "is_dup=0")
    )
    assert "part-aaaa.parquet" in promoted
    assert not any(".tmp" in f for f in promoted)


def test_partition_fingerprint_catches_midfile_edit(tmp_path):
    """Same-length edit deep inside the file (outside the head/tail 64 KiB
    windows) must change the fingerprint — tail-only sampling missed it."""
    from ocr_suite_ray.state import lineage as lin

    p = str(tmp_path / "big.bin")
    data = bytearray(os.urandom(512 * 1024))
    with open(p, "wb") as fh:
        fh.write(data)
    fp1 = lin.partition_fingerprint(p)
    mid = len(data) // 2
    data[mid] ^= 0xFF  # same length, mid-file flip
    with open(p, "wb") as fh:
        fh.write(data)
    os.utime(p)  # fresh mtime either way; fingerprint must differ by CONTENT
    fp2 = lin.partition_fingerprint(p)
    assert fp1 != fp2


def _writer_and_specs(files: list, out: str, cfg: ExtractConfig):
    """A fused-wave writer for ``out``'s wave temp dir and the unit specs of
    all ``files``, salted as run_pipeline salts them."""
    from ocr_suite_ray.pipelines.extract import (
        FusedExtractWriter,
        _input_dup_membership,
        _wave_specs,
    )
    from ocr_suite_ray.version import extract_code_fingerprint

    member_box, _fp, file_fps, _tasks = _input_dup_membership(files, out)
    code_fp = extract_code_fingerprint()
    salts = {
        p: f"{fp}-{code_fp}-ocr:{cfg.ocr_engine or 'none'}"
        for p, fp in file_fps.items()
    }
    specs = _wave_specs(list(enumerate(files)), salt=salts)
    return FusedExtractWriter(os.path.join(out, "_wave_tmp"), member_box), specs


def _spy_extract(writer, fail_on: int | None = None) -> list:
    """Wrap ``writer``'s PageExtractor: record each call's row count and
    raise on call number ``fail_on`` (1-based)."""
    real, calls = writer._extract, []

    def spy(t):
        calls.append(t.num_rows)
        if len(calls) == fail_on:
            raise RuntimeError("worker killed mid-chunk")
        return real(t)

    writer._extract = spy
    return calls


def _final_digest(out_dir: str) -> dict:
    import hashlib

    d = os.path.join(out_dir, "final")
    return {
        f: hashlib.sha1(open(os.path.join(d, f), "rb").read()).hexdigest()
        for f in sorted(os.listdir(d))
    }


def _write_pages(pages_dir: str, sizes, row_group_size: int) -> None:
    import pyarrow.parquet as pq

    from ocr_suite_ray.sources.synthetic import generate_pages_table

    os.makedirs(pages_dir, exist_ok=True)
    start = 0
    for k, n in enumerate(sizes):
        pq.write_table(
            generate_pages_table(n, seed=11, start=start),
            os.path.join(pages_dir, f"pages_{k:05d}.parquet"),
            row_group_size=row_group_size,
        )
        start += n


def test_retried_chunk_skips_marked_units(ray_session, small_corpus, tmp_path):
    """A retry of a chunk task redoes units, not the chunk: a second call
    over the same two-unit spec table extracts nothing and returns the
    same (pid, n) rows, read from the units' markers."""
    from ocr_suite_ray.pipelines.extract import list_pages_files

    pages_dir, _files = small_corpus
    out = str(tmp_path / "out")
    writer, specs = _writer_and_specs(list_pages_files(pages_dir), out, ExtractConfig())
    chunk = specs.slice(0, 2)
    calls = _spy_extract(writer)
    first = writer(chunk)
    assert len(calls) == 2
    second = writer(chunk)
    assert len(calls) == 2, "a retried chunk must not extract a marked unit"
    assert second.select(["pid", "n"]).equals(first.select(["pid", "n"]))
    assert second["read_s"].null_count == 2


def test_kill_mid_chunk_resumes_byte_identical(ray_session, tmp_path):
    """A chunk killed after its first unit: that unit's marker survives,
    the rerun reuses it instead of re-extracting, and final/ is
    byte-identical (file names and SHA-1s) to a clean run's."""
    from ocr_suite_ray.pipelines.extract import list_pages_files

    pages = str(tmp_path / "pages")
    _write_pages(pages, (60, 40), row_group_size=24)
    out = str(tmp_path / "out")
    cfg = ExtractConfig()
    writer, specs = _writer_and_specs(list_pages_files(pages), out, cfg)
    calls = _spy_extract(writer, fail_on=2)
    with pytest.raises(RuntimeError):
        writer(specs.slice(0, 2))
    assert len(calls) == 2
    assert len(os.listdir(os.path.join(out, "_wave_tmp", "_units"))) == 1

    s = run_pipeline(pages, out, cfg)
    assert s["partitions_processed"] == 2
    rec = lin.load_records(out)[0]
    assert rec.stage_metrics["units_reused"] == 1
    assert rec.stage_metrics["units"] == specs.filter(
        pa.compute.equal(specs["partition_id"], 0)
    ).num_rows

    clean = str(tmp_path / "clean")
    run_pipeline(pages, clean, cfg)
    assert _final_digest(out) == _final_digest(clean)


def test_lineage_records_partition_costs(ray_session, tmp_path):
    """Each lineage record carries its own partition's cost: unit counts
    and busy seconds per phase that sum to the summary's pool_*_s, and a
    bigger partition records more units, rows and extract time."""
    pages = str(tmp_path / "pages")
    _write_pages(pages, (240, 24), row_group_size=64)
    out = str(tmp_path / "out")
    s = run_pipeline(pages, out, ExtractConfig())
    recs = lin.load_records(out)
    big, small = recs[0].stage_metrics, recs[1].stage_metrics
    for phase in ("read_s", "extract_s", "tag_s", "write_s"):
        total = sum(r.stage_metrics[phase] for r in recs.values())
        assert abs(total - s[f"pool_{phase}"]) <= 0.005 + 1e-4 * len(recs), phase
    assert big["units"] > small["units"] == 1
    assert big["units_reused"] == small["units_reused"] == 0
    assert recs[0].rows_done > recs[1].rows_done
    assert big["extract_s"] > small["extract_s"]


def test_wave_worker_death_retries_chunk(ray_session, tmp_path):
    """A real worker death mid-chunk: the wave's worker process is killed
    once the chunk's first unit marker is in place. Ray retries the chunk
    task, the retry reuses the marked units, and final/ equals a clean
    run's."""
    import threading
    import time

    import psutil  # Ray puts its bundled psutil on sys.path
    import pyarrow.parquet as pq

    pages = str(tmp_path / "pages")
    _write_pages(pages, (960,), row_group_size=8)  # one chunk, 120+ units
    units = pq.read_metadata(os.path.join(pages, "pages_00000.parquet")).num_row_groups
    out = str(tmp_path / "out")
    cfg = ExtractConfig(pool_size=1)
    udir = os.path.join(out, "_wave_tmp", "_units")
    marked_at_kill: list = []
    done = threading.Event()

    def markers() -> int:
        try:
            return sum(f.endswith(".json") for f in os.listdir(udir))
        except OSError:
            return 0

    def kill_first_wave_worker() -> None:
        while not done.is_set() and not marked_at_kill:
            if markers():
                for p in psutil.Process().children(recursive=True):
                    try:
                        title = " ".join(p.cmdline())
                    except psutil.Error:
                        continue
                    if title.startswith("ray::fused_extract_task"):
                        marked_at_kill.append(markers())
                        p.kill()
                        break
            time.sleep(0.001)

    killer = threading.Thread(target=kill_first_wave_worker)
    killer.start()
    try:
        s = run_pipeline(pages, out, cfg)
    finally:
        done.set()
        killer.join(timeout=10)
    assert not killer.is_alive()
    assert marked_at_kill, "the wave worker was never killed"
    assert 1 <= marked_at_kill[0] < units, "the kill must land mid-chunk"
    assert s["partitions_processed"] == 1
    rec = lin.load_records(out)[0]
    assert rec.stage_metrics["units"] == units
    assert rec.stage_metrics["units_reused"] >= 1

    clean = str(tmp_path / "clean")
    run_pipeline(pages, clean, cfg)
    assert _final_digest(out) == _final_digest(clean)


def test_run_pipeline_builds_no_dataset(ray_session, tmp_path, monkeypatch):
    """The flagship runs on plain Ray tasks: no ray.data.Dataset is built
    in the driver during a cold run, a resume after a mid-chunk kill, a
    run over a grown input, or a run that quarantines a corrupt shard."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from ocr_suite_ray.pipelines.extract import list_pages_files
    from ocr_suite_ray.sources.synthetic import generate_pages_table

    built = []
    init = rd.Dataset.__init__

    def spy(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(rd.Dataset, "__init__", spy)
    pages = str(tmp_path / "pages")
    _write_pages(pages, (60, 40), row_group_size=24)
    cfg = ExtractConfig()
    run_pipeline(pages, str(tmp_path / "cold"), cfg)

    out = str(tmp_path / "out")
    writer, specs = _writer_and_specs(list_pages_files(pages), out, cfg)
    _spy_extract(writer, fail_on=2)
    with pytest.raises(RuntimeError):
        writer(specs.slice(0, 2))
    run_pipeline(pages, out, cfg)
    assert lin.load_records(out)[0].stage_metrics["units_reused"] == 1

    pq.write_table(
        generate_pages_table(30, seed=11, start=100),
        os.path.join(pages, "pages_00002.parquet"),
        row_group_size=24,
    )
    s = run_pipeline(pages, out, cfg)
    assert s["partitions_processed"] >= 1

    with open(os.path.join(pages, "pages_00003.parquet"), "wb") as fh:
        fh.write(b"\x00not parquet at all" * 100)
    s = run_pipeline(pages, out, ExtractConfig(on_bad_input="quarantine"))
    assert [q["path"] for q in s["quarantined"]] == [
        os.path.join(pages, "pages_00003.parquet")
    ]
    assert built == []
