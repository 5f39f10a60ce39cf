"""WARC source (ISO 28500): record parsing, gz-member splitting,
export → ingest roundtrip, and flagship pipeline parity."""

from __future__ import annotations

import io
import os

import pyarrow.dataset as pads
import pyarrow.parquet as pq

from ocr_suite_ray.sources.warc import (
    _split_http_body,
    _warc_date_us,
    export_warc,
    ingest_warc,
    iter_warc_pages,
    iter_warc_records,
    write_warc,
)

ROWS = [
    {"url": "https://a.example/1", "warc_ts_us": 1_700_000_000_000_000,
     "html": b"<html><body>alpha beta</body></html>"},
    {"url": "https://b.example/2", "warc_ts_us": 1_700_000_061_123_456,
     "html": b"<html><body>gamma</body></html>"},
    {"url": "https://c.example/3", "warc_ts_us": 1_700_000_122_000_000,
     "html": b"\x00\x01binary\xff payload"},
]


def test_http_envelope_strip():
    body = b"<html>x</html>"
    payload = b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n\r\n" + body
    assert _split_http_body(payload) == body
    # resource-style payload without envelope passes through
    assert _split_http_body(body) == body


def test_warc_date_parsing():
    assert _warc_date_us("2023-11-14T22:13:20Z") == 1_700_000_000_000_000
    assert _warc_date_us("2023-11-14T22:13:20.000500Z") == 1_700_000_000_000_500


def test_write_read_plain_and_gz(tmp_path):
    plain = write_warc(str(tmp_path / "a.warc"), ROWS)
    gz = write_warc(str(tmp_path / "a.warc.gz"), ROWS)
    got_p = list(iter_warc_pages(plain))
    got_g = list(iter_warc_pages(gz))
    assert got_p == got_g
    assert [r["url"] for r in got_p] == [r["url"] for r in ROWS]
    assert [r["html"] for r in got_p] == [r["html"] for r in ROWS]
    assert [r["warc_ts_us"] for r in got_p] == [r["warc_ts_us"] for r in ROWS]


def test_non_page_records_skipped(tmp_path):
    info = (
        b"WARC/1.0\r\nWARC-Type: warcinfo\r\n"
        b"WARC-Date: 2023-11-14T22:13:20Z\r\nContent-Length: 4\r\n\r\nabcd\r\n\r\n"
    )
    req = (
        b"WARC/1.0\r\nWARC-Type: request\r\n"
        b"WARC-Target-URI: https://a.example/1\r\n"
        b"WARC-Date: 2023-11-14T22:13:20Z\r\nContent-Length: 2\r\n\r\nGE\r\n\r\n"
    )
    path = str(tmp_path / "m.warc")
    write_warc(path, ROWS[:1])
    with open(path, "rb") as f:
        page_rec = f.read()
    with open(path, "wb") as f:
        f.write(info + req + page_rec)
    got = list(iter_warc_pages(path))
    assert len(got) == 1 and got[0]["url"] == ROWS[0]["url"]


def test_iter_records_rejects_garbage():
    import pytest

    with pytest.raises(ValueError):
        list(iter_warc_records(io.BufferedReader(io.BytesIO(b"NOT A WARC\r\n"))))


def test_export_then_ingest_roundtrips_pages(ray_session, tmp_path):
    """pages -> export_warc (.warc.gz) -> ingest_warc -> identical
    (url, warc_ts, html)."""
    from ocr_suite_ray.sources.synthetic import generate_corpus

    pages = str(tmp_path / "pages")
    files = generate_corpus(pages, 200, seed=7, n_files=3)
    out = export_warc(pages, str(tmp_path / "warc"))
    assert len(out) == 3 and all(p.endswith(".warc.gz") for p in out)
    back = ingest_warc(str(tmp_path / "warc"), str(tmp_path / "pages2"))
    for orig, rt in zip(files, back):
        a = pq.read_table(orig, columns=["url", "warc_ts", "html"])
        b = pq.read_table(rt)
        assert b.select(a.column_names).equals(a)


def test_warc_pipeline_parity(ray_session, small_corpus, tmp_path):
    """Flagship pipeline over WARC-ingested pages == over the source
    parquet pages (byte-identical text/spans per url)."""
    from ocr_suite_ray.pipelines.extract import ExtractConfig, run_pipeline

    pages_dir, _files = small_corpus
    warc_dir = str(tmp_path / "warc")
    export_warc(pages_dir, warc_dir, gzip_output=False)
    ingested = str(tmp_path / "pages2")
    ingest_warc(warc_dir, ingested)

    out_a = str(tmp_path / "out_a")
    out_b = str(tmp_path / "out_b")
    cfg = ExtractConfig(wave_size=4, pool_size=2)
    run_pipeline(pages_dir, out_a, cfg)
    run_pipeline(ingested, out_b, cfg)
    a = pads.dataset(os.path.join(out_a, "final")).to_table().sort_by("url")
    b = pads.dataset(os.path.join(out_b, "final")).to_table().sort_by("url")
    for col in ("url", "warc_ts", "text", "spans", "n_blocks_kept", "status"):
        assert a[col].to_pylist() == b[col].to_pylist(), col


def test_http_split_lf_headers_and_date_variants(tmp_path):
    from ocr_suite_ray.sources.warc import _split_http_body, _warc_date_us

    # LF-terminated headers with a CRLF pair later in the BODY
    p = b"HTTP/1.1 200 OK\nContent-Type: text/html\n\n<html>a\r\n\r\nb</html>"
    assert _split_http_body(p) == b"<html>a\r\n\r\nb</html>"
    # headers only, no separator: empty entity
    assert _split_http_body(b"HTTP/1.1 204 No Content\r\nX: y") == b""
    # numeric-offset date (spec-legal) parses; garbage returns None
    assert _warc_date_us("2024-01-02T03:04:05+00:00") == _warc_date_us(
        "2024-01-02T03:04:05Z"
    )
    assert _warc_date_us("not a date") is None
    assert _warc_date_us("") is None


def test_dateless_records_skipped_not_epoch(tmp_path):
    rec = (
        b"WARC/1.0\r\n"
        b"WARC-Type: resource\r\n"
        b"WARC-Target-URI: https://x.example/1\r\n"
        b"Content-Length: 2\r\n\r\nhi\r\n\r\n"
    )
    path = tmp_path / "d.warc"
    path.write_bytes(rec)
    assert list(iter_warc_pages(str(path))) == []  # no WARC-Date -> skipped
