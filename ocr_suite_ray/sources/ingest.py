"""Crawl-dump ingestion: newline-delimited JSON → the partitioned pages
layout the flagship pipeline consumes.

Reference analogue: the watcher's landing step — raw recordings appear in a
directory and are registered as work units (``tools/ocs-watcher/src/ocsw/
file_filter.py:4-13``). Web crawls land as JSONL (one record per page, html
base64-encoded or plain text); this converts them to the engine's parquet
pages schema with ONE remote task per input file (natural 1:1 partition
mapping, deterministic output names, tmp+rename idempotency — a re-run
overwrites its own outputs, so a killed ingest is safe to repeat).

Input record fields: ``url`` (string, required), ``warc_ts`` (ISO-8601
string or epoch micros), and ``html_b64`` (base64) or ``html`` (text).
The JSON parse is pyarrow's vectorized C++ reader; only the base64 decode
is per-row Python (ingest is a one-time I/O-bound landing pass).
"""

from __future__ import annotations

import base64
import os

from ocr_suite_ray.state.dupset import remote_fn


def _ingest_one(src: str, dst: str, rg: int) -> str:
    """One ``.jsonl`` file → one pages parquet (a Ray task of
    :func:`ingest_jsonl`)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.json as pj
    import pyarrow.parquet as pq

    t = pj.read_json(src)
    cols = set(t.column_names)
    if "url" not in cols:
        raise ValueError(f"{src}: missing required 'url' field")
    # html: base64 field wins, else plain-text field encoded utf-8
    if "html_b64" in cols:
        html = pa.array(
            [base64.b64decode(v) if v is not None else b""
             for v in t["html_b64"].to_pylist()],
            pa.binary(),
        )
    elif "html" in cols:
        html = pc.cast(t["html"], pa.binary())
    else:
        raise ValueError(f"{src}: need 'html_b64' or 'html'")
    if "warc_ts" not in cols:
        raise ValueError(f"{src}: missing 'warc_ts'")
    ts_col = t["warc_ts"]
    if pa.types.is_integer(ts_col.type):
        ts = pc.cast(ts_col, pa.timestamp("us"))
    elif pa.types.is_timestamp(ts_col.type):
        ts = pc.cast(ts_col, pa.timestamp("us"))
    else:
        # normalize to one parseable shape: optional trailing Z
        # stripped, a fractional-seconds part added when absent —
        # pyarrow's JSON reader leaves fractional ISO-8601 strings
        # string-typed, and a single fraction-less strptime format
        # would crash the whole ingest on one such record
        sv = pc.cast(ts_col, pa.string())
        norm = pc.replace_substring_regex(sv, r"Z$", "")
        has_frac = pc.match_substring_regex(norm, r"\.\d+$")
        norm = pc.if_else(
            has_frac, norm,
            pc.binary_join_element_wise(norm, ".000000", ""),
        )
        try:
            ts = pc.cast(
                pc.strptime(
                    norm, format="%Y-%m-%dT%H:%M:%S.%f", unit="us"
                ),
                pa.timestamp("us"),
            )
        except pa.ArrowInvalid:
            # explicit numeric offsets ('+00:00') and >6 fraction
            # digits fail the single strptime; mirror the tolerant
            # warc._warc_date_us fallback per row instead of
            # aborting the whole file on one such record
            from datetime import datetime, timezone

            def _iso_us(v):
                if v is None:
                    return None
                dt = datetime.fromisoformat(
                    v.strip().replace("Z", "+00:00")
                )
                if dt.tzinfo is not None:
                    dt = dt.astimezone(timezone.utc).replace(
                        tzinfo=None
                    )
                return dt
            ts = pa.array(
                [_iso_us(v) for v in sv.to_pylist()],
                pa.timestamp("us"),
            )
    out = pa.table({"url": pc.cast(t["url"], pa.string()),
                    "warc_ts": ts, "html": html})
    # skip-undated contract (warc._warc_date_us): a record missing or
    # failing warc_ts must be DROPPED, not admitted with a null —
    # newest-capture-wins dedup over a null capture time is undefined
    # and export_warc crashes on it
    out = out.filter(
        pc.and_(pc.is_valid(out["warc_ts"]), pc.is_valid(out["url"]))
    )
    tmp = dst + f".tmp{os.getpid()}"
    pq.write_table(out, tmp, row_group_size=rg)
    os.replace(tmp, dst)
    return dst


def ingest_jsonl(src_dir: str, pages_dir: str, row_group_size: int = 4096) -> list[str]:
    """Convert every ``*.jsonl`` under ``src_dir`` into
    ``pages_dir/pages_{k:05d}.parquet`` (sorted input order → deterministic
    partition ids). Returns the written file paths."""
    import ray

    src_files = sorted(
        os.path.join(src_dir, f)
        for f in os.listdir(src_dir)
        if f.endswith(".jsonl")
    )
    if not src_files:
        raise FileNotFoundError(f"no .jsonl files under {src_dir}")
    os.makedirs(pages_dir, exist_ok=True)

    outs = [
        os.path.join(pages_dir, f"pages_{k:05d}.parquet")
        for k in range(len(src_files))
    ]
    # positional names: a re-run over a SHRUNK input set must not leave
    # stale higher-numbered pages files polluting downstream reads
    import re as _re

    for f in os.listdir(pages_dir):
        m = _re.fullmatch(r"pages_(\d{5})\.parquet", f)
        if m and int(m.group(1)) >= len(src_files):
            os.unlink(os.path.join(pages_dir, f))
    one = remote_fn(_ingest_one)
    return list(
        ray.get([
            one.remote(s, d, row_group_size) for s, d in zip(src_files, outs)
        ])
    )


def _export_one(src: str, dst: str, gz: bool) -> str:
    """One pages parquet → one ``.jsonl[.gz]`` file (a Ray task of
    :func:`export_jsonl`)."""
    import gzip as gzip_mod
    import json

    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    t = pq.read_table(src)
    cols = {}
    for name in t.column_names:
        col = t[name]
        if pa.types.is_binary(col.type) or pa.types.is_large_binary(col.type):
            cols[name + "_b64"] = [
                base64.b64encode(v).decode() if v is not None else None
                for v in col.to_pylist()
            ]
        elif pa.types.is_timestamp(col.type):
            # normalize to us first: epoch micros regardless of unit
            cols[name] = pc.cast(
                pc.cast(col, pa.timestamp("us")), pa.int64()
            ).to_pylist()
        else:
            cols[name] = col.to_pylist()
    names = list(cols)

    def _default(v):
        # NESTED temporal/binary values (inside list/struct columns):
        # same encoding rules as the top-level dispatch — epoch micros
        # for datetimes, base64 for bytes. Lossy on re-ingest for
        # nested fields (types aren't restored below top level);
        # without this a single nested timestamp aborts the export.
        import datetime as _dt

        if isinstance(v, _dt.datetime):
            if v.tzinfo is None:  # parquet timestamps are UTC-naive
                v = v.replace(tzinfo=_dt.timezone.utc)
            return int(v.timestamp() * 1_000_000)
        if isinstance(v, (bytes, bytearray)):
            return base64.b64encode(bytes(v)).decode()
        raise TypeError(f"not JSON serializable: {type(v)}")

    tmp = dst + f".tmp{os.getpid()}"
    opener = (lambda p: gzip_mod.open(p, "wt")) if gz else (lambda p: open(p, "w"))
    with opener(tmp) as fh:
        for row in zip(*cols.values()):
            fh.write(
                json.dumps(dict(zip(names, row)), separators=(",", ":"),
                           default=_default)
                + "\n"
            )
    os.replace(tmp, dst)
    return dst


def export_jsonl(src_dir: str, dst_dir: str, gzip_output: bool = False) -> list[str]:
    """Inverse of :func:`ingest_jsonl`: every ``*.parquet`` under ``src_dir``
    becomes one ``.jsonl`` (optionally ``.jsonl.gz``) under ``dst_dir`` —
    the interchange export for training stacks that consume JSONL.

    Encoding rules (chosen so ``export → ingest`` roundtrips byte-identical
    pages): ``binary`` columns serialize as base64 under ``<name>_b64``;
    ``timestamp`` columns as epoch microseconds (int); nested list/struct
    columns as plain JSON. One remote task per input file (1:1 mapping,
    deterministic names, tmp+rename idempotency), same contract as ingest.
    The JSON serialization is per-row Python — export, like ingest, is a
    one-time I/O-bound landing pass, never on the query hot path.
    """
    import ray

    src_files = sorted(
        os.path.join(src_dir, f)
        for f in os.listdir(src_dir)
        if f.endswith(".parquet")
    )
    if not src_files:
        raise FileNotFoundError(f"no .parquet files under {src_dir}")
    os.makedirs(dst_dir, exist_ok=True)

    ext = ".jsonl.gz" if gzip_output else ".jsonl"
    outs = [
        os.path.join(
            dst_dir, os.path.splitext(os.path.basename(s))[0] + ext
        )
        for s in src_files
    ]
    one = remote_fn(_export_one)
    return list(
        ray.get([one.remote(s, d, gzip_output) for s, d in zip(src_files, outs)])
    )
