"""WARC crawl ingestion: Web ARChive files → the partitioned pages layout.

WARC (ISO 28500, public spec) is the interchange format web crawls land
in — Common Crawl publishes one gzip member per record (``.warc.gz``),
so a reader can split records without decompressing the whole file.
This module reads both layouts with stdlib only:

- ``.warc.gz``: multi-member gzip — each member is decompressed
  independently and parsed as one record stream (members may also hold
  several records; the parser just keeps consuming).
- ``.warc``: plain concatenated records.

Only ``response`` (and ``resource``) records carry page payloads; for
``response`` records the HTTP envelope (status line + headers) is
stripped so ``html`` is the raw entity body. ``warcinfo`` / ``request``
/ ``metadata`` records are skipped. The page url comes from
``WARC-Target-URI``, the capture timestamp from ``WARC-Date``
(ISO-8601 → timestamp[us]).

Ray shape mirrors :func:`ocr_suite_ray.sources.ingest.ingest_jsonl`:
ONE remote task per input WARC (natural 1:1 partition mapping,
deterministic output names, tmp+rename idempotency — a killed ingest is
safe to repeat). Record parsing is sequential per file by necessity
(records are length-delimited), but files parallelize across the
cluster and each file is a single streaming pass.

Reference analogue: the recording-file landing step of the watcher
(``tools/ocs-watcher/src/ocsw/file_filter.py:4-13``) — raw crawl
artifacts appear in a directory and become work units.
"""

from __future__ import annotations

import io
import os
import zlib

from ocr_suite_ray.state.dupset import remote_fn

_CRLF = b"\r\n"


def _parse_headers(block: bytes) -> dict:
    """WARC named fields (also works for the HTTP envelope): one
    ``Name: value`` per line, names case-insensitive per the spec."""
    out: dict[str, str] = {}
    for line in block.split(b"\r\n"):
        if not line or b":" not in line:
            continue
        name, _, val = line.partition(b":")
        out[name.strip().lower().decode("latin-1")] = val.strip().decode(
            "latin-1", "replace"
        )
    return out


def iter_warc_records(stream: io.BufferedIOBase):
    """Yield ``(headers: dict, payload: bytes)`` per WARC record in an
    uncompressed stream. Tolerates leading blank lines between records
    (the spec mandates exactly two CRLFs; crawlers vary)."""
    read = stream.readline
    while True:
        line = read()
        if not line:
            return
        if line in (b"\r\n", b"\n"):
            continue
        if not line.startswith(b"WARC/"):
            raise ValueError(f"expected WARC version line, got {line[:40]!r}")
        hdr_lines = []
        while True:
            line = read()
            if not line:
                raise ValueError("truncated WARC header block")
            if line in (b"\r\n", b"\n"):
                break
            hdr_lines.append(line)
        headers = _parse_headers(b"".join(hdr_lines))
        try:
            length = int(headers["content-length"])
        except (KeyError, ValueError):
            raise ValueError("WARC record missing Content-Length")
        payload = stream.read(length)
        if len(payload) != length:
            raise ValueError("truncated WARC payload")
        yield headers, payload


def _split_http_body(payload: bytes) -> bytes:
    """Strip the HTTP response envelope from a ``response`` record
    payload. A payload without a status line is returned as-is.

    The header terminator is the FIRST blank line in either convention —
    an LF-terminated header block with CRLF pairs later in the body must
    not truncate the entity; a status line with no blank line at all
    means an empty entity (headers only)."""
    if not payload.startswith(b"HTTP/"):
        return payload
    crlf = payload.find(b"\r\n\r\n")
    lf = payload.find(b"\n\n")
    if crlf < 0 and lf < 0:
        return b""
    if crlf >= 0 and (lf < 0 or crlf < lf):
        return payload[crlf + 4:]
    return payload[lf + 2:]


def _warc_date_us(s: str) -> int | None:
    """``2024-01-02T03:04:05Z`` (WARC-Date, always UTC per spec) →
    epoch microseconds. Fractional seconds (WARC 1.1) and explicit
    numeric offsets honoured; unparseable/missing dates return ``None``
    (the caller SKIPS such records — fabricating an epoch-0 capture
    would deterministically lose newest-capture-wins dedup)."""
    from datetime import datetime, timezone

    s = s.strip()
    if not s:
        return None
    try:
        z = s.rstrip("Z")
        fmt = "%Y-%m-%dT%H:%M:%S.%f" if "." in z else "%Y-%m-%dT%H:%M:%S"
        dt = datetime.strptime(z, fmt).replace(tzinfo=timezone.utc)
    except ValueError:
        try:
            dt = datetime.fromisoformat(s.replace("Z", "+00:00"))
            if dt.tzinfo is None:
                dt = dt.replace(tzinfo=timezone.utc)
        except ValueError:
            return None
    return int(dt.timestamp() * 1_000_000)


def _open_members(path: str):
    """Yield one decompressed byte-stream per gzip member (``.warc.gz``)
    or the single raw stream (``.warc``). Member-at-a-time keeps peak
    memory at one record, matching the Common-Crawl layout."""
    if not path.endswith(".gz"):
        with open(path, "rb") as f:
            yield f
        return
    # stdlib gzip streams CONCATENATED members transparently — one pass,
    # peak memory one decompression window (the previous hand-rolled
    # member walk read the whole file and re-sliced the remaining tail
    # per member: O(members x file size) memcpy on the Common-Crawl
    # one-member-per-record layout)
    import gzip

    with open(path, "rb") as f:
        yield io.BufferedReader(gzip.GzipFile(fileobj=f))


def iter_warc_pages(path: str):
    """Yield page records of one WARC file as dicts
    ``(url, warc_ts_us, html)``, one at a time — peak memory one record,
    honoring ``_open_members``' streaming contract (a list-building
    reader holds the whole decompressed WARC, ~4-5 GB for a standard
    Common-Crawl shard, in every ingest task at once).
    Response/resource records only."""
    for stream in _open_members(path):
        for headers, payload in iter_warc_records(stream):
            rtype = headers.get("warc-type", "")
            if rtype not in ("response", "resource"):
                continue
            url = headers.get("warc-target-uri")
            if not url:
                continue
            ts = _warc_date_us(headers.get("warc-date", ""))
            if ts is None:
                continue  # no/unparseable capture date: skip, don't fabricate
            body = _split_http_body(payload) if rtype == "response" else payload
            yield {"url": url.strip("<>"), "warc_ts_us": ts, "html": body}


def _ingest_one(src: str, dst: str, rg: int) -> str:
    """One WARC file → one pages parquet (a Ray task of
    :func:`ingest_warc`)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    schema = pa.schema(
        [("url", pa.string()), ("warc_ts", pa.timestamp("us")),
         ("html", pa.binary())]
    )

    def _tbl(rows: list) -> pa.Table:
        return pa.table(
            {
                "url": pa.array([r["url"] for r in rows], pa.string()),
                "warc_ts": pa.array(
                    [r["warc_ts_us"] for r in rows], pa.timestamp("us")
                ),
                "html": pa.array(
                    [r["html"] for r in rows], pa.binary()
                ),
            },
        ).cast(schema)

    # stream row-group-sized chunks straight into the writer: peak
    # memory is one row group, not the whole decompressed WARC
    tmp = dst + f".tmp{os.getpid()}"
    rows: list = []
    with pq.ParquetWriter(tmp, schema) as w:
        for r in iter_warc_pages(src):
            rows.append(r)
            if len(rows) >= rg:
                w.write_table(_tbl(rows), row_group_size=rg)
                rows = []
        if rows:
            w.write_table(_tbl(rows), row_group_size=rg)
    os.replace(tmp, dst)
    return dst


def ingest_warc(src_dir: str, pages_dir: str, row_group_size: int = 4096) -> list[str]:
    """Convert every ``*.warc`` / ``*.warc.gz`` under ``src_dir`` into
    ``pages_dir/pages_{k:05d}.parquet`` (sorted input order →
    deterministic partition ids). Returns the written file paths."""
    import ray

    src_files = sorted(
        os.path.join(src_dir, f)
        for f in os.listdir(src_dir)
        if f.endswith(".warc") or f.endswith(".warc.gz")
    )
    if not src_files:
        raise FileNotFoundError(f"no .warc/.warc.gz files under {src_dir}")
    os.makedirs(pages_dir, exist_ok=True)

    outs = [
        os.path.join(pages_dir, f"pages_{k:05d}.parquet")
        for k in range(len(src_files))
    ]
    one = remote_fn(_ingest_one)
    return list(
        ray.get([
            one.remote(s, d, row_group_size) for s, d in zip(src_files, outs)
        ])
    )


# ---------------------------------------------------------------------------
# Writer (test twin + interchange sink)
# ---------------------------------------------------------------------------


def _record_bytes(url: str, ts_us: int, html: bytes, rec_id: str) -> bytes:
    """One WARC 1.0 ``response`` record with a minimal HTTP envelope."""
    from datetime import datetime, timezone

    dt = datetime.fromtimestamp(ts_us / 1_000_000, tz=timezone.utc)
    frac = f".{ts_us % 1_000_000:06d}" if ts_us % 1_000_000 else ""
    date = dt.strftime("%Y-%m-%dT%H:%M:%S") + frac + "Z"
    http = (
        b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n"
        + f"Content-Length: {len(html)}\r\n\r\n".encode()
        + html
    )
    hdr = (
        "WARC/1.0\r\n"
        "WARC-Type: response\r\n"
        f"WARC-Record-ID: <urn:uuid:{rec_id}>\r\n"
        f"WARC-Target-URI: {url}\r\n"
        f"WARC-Date: {date}\r\n"
        "Content-Type: application/http;msgtype=response\r\n"
        f"Content-Length: {len(http)}\r\n\r\n"
    ).encode()
    return hdr + http + b"\r\n\r\n"


def write_warc(path: str, rows: list[dict], per_record_gzip: bool | None = None) -> str:
    """Write ``rows`` of ``(url, warc_ts_us, html)`` as one WARC file.
    ``.gz`` paths use the Common-Crawl one-gzip-member-per-record layout
    (override with ``per_record_gzip``). Deterministic record ids (md5 of
    url+ts) so export → ingest roundtrips are byte-stable."""
    import hashlib

    gz = path.endswith(".gz") if per_record_gzip is None else per_record_gzip
    buf = io.BytesIO()
    for r in rows:
        rid = hashlib.md5(
            f"{r['url']}@{r['warc_ts_us']}".encode()
        ).hexdigest()
        rec = _record_bytes(r["url"], r["warc_ts_us"], r["html"], rid)
        if gz:
            # mtime=0 + fixed OS byte for deterministic member bytes
            co = zlib.compressobj(9, zlib.DEFLATED, 31)
            hdrless = co.compress(rec) + co.flush()
            # zlib wbits=31 emits a full gzip member with zeroed mtime
            buf.write(hdrless)
        else:
            buf.write(rec)
    tmp = path + f".tmp{os.getpid()}"
    with open(tmp, "wb") as f:
        f.write(buf.getvalue())
    os.replace(tmp, path)
    return path


def _export_one(src: str, dst: str, gz: bool) -> str:
    """One pages parquet → one ``.warc[.gz]`` file (a Ray task of
    :func:`export_warc`)."""
    import pyarrow.parquet as pq

    t = pq.read_table(src, columns=["url", "warc_ts", "html"])
    ts = t["warc_ts"].cast("int64").to_pylist()
    rows = [
        {"url": u, "warc_ts_us": s, "html": h}
        for u, s, h in zip(
            t["url"].to_pylist(), ts, t["html"].to_pylist()
        )
    ]
    return write_warc(dst, rows, per_record_gzip=gz)


def export_warc(src_dir: str, dst_dir: str, gzip_output: bool = True) -> list[str]:
    """Inverse of :func:`ingest_warc`: every pages parquet under
    ``src_dir`` becomes ``<name>.warc[.gz]`` (1:1, one remote task per
    file, tmp+rename idempotent)."""
    import ray

    src_files = sorted(
        os.path.join(src_dir, f)
        for f in os.listdir(src_dir)
        if f.endswith(".parquet")
    )
    if not src_files:
        raise FileNotFoundError(f"no .parquet files under {src_dir}")
    os.makedirs(dst_dir, exist_ok=True)

    ext = ".warc.gz" if gzip_output else ".warc"
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
