"""Multimodal plumbing tests: the decode kernel is a stub, the Ray-side
schema/batching/actor wiring is real and must behave."""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pytest

from ocr_suite_ray.stages.multimodal import (
    FakeDecoder,
    attach_media_meta,
    decode_media,
)


def _media_table(n=40):
    return pa.table(
        {
            "media_id": pa.array(range(n), pa.int64()),
            "payload": pa.array(
                [b"\x89PNG" + bytes([i]) * (100 + i) for i in range(n)], pa.binary()
            ),
        }
    )


def test_real_codec_is_explicit_stub():
    with pytest.raises(NotImplementedError):
        FakeDecoder(codec="real")


def test_image_decoder_dispatch(monkeypatch):
    """ImageDecoder: 'real' fails fast without pillow, 'auto' falls back to
    the stub, and with a (mocked) pillow present the real kernel drives the
    same output schema — the production dispatch is exercised end-to-end
    even in this codec-less container."""
    import numpy as np

    from ocr_suite_ray.stages import multimodal as mm

    if mm._pil() is None:
        with pytest.raises(ImportError):
            mm.ImageDecoder(codec="real")
        assert mm.ImageDecoder(codec="auto")._codec == "fake"

    class _Img:
        width, height = 7, 5

        def convert(self, mode):
            return np.zeros((5, 7), dtype=np.uint8)

        def getbands(self):
            return ("R", "G", "B")

    class _FakePIL:
        @staticmethod
        def open(fp):
            return _Img()

    monkeypatch.setattr(mm, "_pil", lambda: _FakePIL)
    dec = mm.ImageDecoder(codec="auto")
    assert dec._codec == "real"
    out = dec(_media_table(4))
    assert out.column_names[-5:] == [
        "decode_status", "width", "height", "n_channels", "feature"
    ]
    row = out.slice(0, 1).to_pylist()[0]
    assert row["decode_status"] == "ok"
    assert (row["width"], row["height"], row["n_channels"]) == (7, 5, 3)
    # all-zero image -> all mass in the first histogram bin
    assert row["feature"][0] == pytest.approx(1.0)
    assert sum(row["feature"][1:]) == pytest.approx(0.0)


def test_image_decoder_contains_per_row_errors(monkeypatch):
    """One corrupt payload must degrade to an error ROW, not fail the task:
    the real kernel raising on a payload yields decode_status='error:...'
    with sentinel dims while the rest of the batch decodes normally."""
    import numpy as np

    from ocr_suite_ray.stages import multimodal as mm

    class _Img:
        width, height = 7, 5

        def convert(self, mode):
            return np.zeros((5, 7), dtype=np.uint8)

        def getbands(self):
            return ("R", "G", "B")

    class _FakePIL:
        @staticmethod
        def open(fp):
            if fp.read(7) == b"corrupt":
                raise ValueError("bad image")
            return _Img()

    monkeypatch.setattr(mm, "_pil", lambda: _FakePIL)
    dec = mm.ImageDecoder(codec="real")
    t = _media_table(3)
    t = t.set_column(
        t.schema.get_field_index("payload"), "payload",
        pa.array([t["payload"][0].as_py(), b"corrupt!!", t["payload"][2].as_py()],
                 pa.binary()),
    )
    rows = dec(t).to_pylist()
    assert [r["decode_status"] for r in rows] == ["ok", "error:ValueError", "ok"]
    assert rows[1]["width"] == -1 and rows[1]["feature"] == [0.0] * 16
    assert rows[0]["width"] == 7


def test_attach_media_meta_schema():
    out = attach_media_meta(_media_table())
    m = out.column("media_meta").to_pylist()[0]
    assert set(m) == {"media_kind", "n_bytes", "content_hash"}
    assert m["media_kind"] == "image"


def test_decode_media_deterministic_across_batching(ray_session):
    import ray.data as rd

    t = _media_table()
    a = decode_media(rd.from_arrow(t), batch_size=7).take_all()
    b = decode_media(rd.from_arrow(t).repartition(5), batch_size=3).take_all()
    key = lambda r: r["media_id"]
    a, b = sorted(a, key=key), sorted(b, key=key)
    assert a == b
    assert all(len(r["feature"]) == 16 for r in a)
    assert all(64 <= r["width"] <= 255 for r in a)


def test_parse_media_headers_real_formats():
    """Handcrafted minimal container headers parse to their true fields —
    this path is REAL (byte parsing), not the fake-decoder stub."""
    import struct

    from ocr_suite_ray.stages.multimodal import parse_media_header

    png = (b"\x89PNG\r\n\x1a\n" + b"\x00\x00\x00\x0dIHDR"
           + struct.pack(">II", 640, 480) + bytes([8, 2, 0, 0, 0]))
    m = parse_media_header(png)
    assert (m["format"], m["width"], m["height"], m["bit_depth"]) == ("png", 640, 480, 8)

    jpeg = (b"\xff\xd8"
            + b"\xff\xe0" + struct.pack(">H", 16) + b"JFIF\x00" + b"\x00" * 9
            + b"\xff\xc0" + struct.pack(">H", 17) + bytes([8])
            + struct.pack(">HH", 1080, 1920) + b"\x03" + b"\x00" * 9)
    m = parse_media_header(jpeg)
    assert (m["format"], m["width"], m["height"], m["bit_depth"]) == ("jpeg", 1920, 1080, 8)

    gif = b"GIF89a" + struct.pack("<HH", 320, 200) + b"\x00\x00\x00"
    m = parse_media_header(gif)
    assert (m["format"], m["width"], m["height"]) == ("gif", 320, 200)

    bmp = (b"BM" + b"\x00" * 16 + struct.pack("<ii", 800, -600)
           + b"\x01\x00" + struct.pack("<H", 24) + b"\x00" * 8)
    m = parse_media_header(bmp)
    assert (m["format"], m["width"], m["height"], m["bit_depth"]) == ("bmp", 800, 600, 24)

    wav = (b"RIFF" + struct.pack("<I", 36) + b"WAVE" + b"fmt "
           + struct.pack("<IHHIIHH", 16, 1, 2, 44100, 176400, 4, 16))
    m = parse_media_header(wav)
    assert (m["format"], m["channels"], m["sample_rate"], m["bit_depth"]) == ("wav", 2, 44100, 16)

    assert parse_media_header(b"garbage")["format"] == "unknown"
    assert parse_media_header(None)["format"] == "unknown"
    assert parse_media_header(b"\xff\xd8trunc")["format"] == "jpeg"


def test_probe_media_stage(ray_session):
    import struct

    import ray.data as rd

    from ocr_suite_ray.stages.multimodal import probe_media

    png = (b"\x89PNG\r\n\x1a\n" + b"\x00\x00\x00\x0dIHDR"
           + struct.pack(">II", 64, 32) + bytes([8, 2, 0, 0, 0]))
    rows = [
        {"media_id": 0, "payload": png},
        {"media_id": 1, "payload": b"not media"},
    ]
    out = {r["media_id"]: r for r in probe_media(rd.from_items(rows)).take_all()}
    assert out[0]["format"] == "png" and out[0]["width"] == 64
    assert out[1]["format"] == "unknown"


def test_jpeg_fill_bytes_before_sof():
    from ocr_suite_ray.stages.multimodal import parse_media_header

    j = bytes([0xFF, 0xD8, 0xFF, 0xFF, 0xC0, 0x00, 0x0B,
               8, 0, 2, 0, 3, 1, 0x11, 0])
    m = parse_media_header(j)
    assert (m["format"], m["width"], m["height"]) == ("jpeg", 3, 2)


def test_probe_then_decode_compose_no_duplicate_columns(ray_session):
    """probe_media -> decode_media over the same payloads: width/height
    must be REPLACED, not appended twice (duplicate names break parquet
    writes and column() lookups)."""
    import ray.data as rd

    from ocr_suite_ray.stages.multimodal import decode_media, probe_media

    ds = rd.from_arrow(_media_table(8))
    out = decode_media(probe_media(ds), concurrency=1)
    names = out.schema().names
    assert names.count("width") == 1 and names.count("height") == 1
