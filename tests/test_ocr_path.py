"""Scanned-PDF OCR lane: image-XObject classification, guarded-import
engine dispatch, byte-deterministic stub, and pipeline routing."""

from __future__ import annotations

import zlib

import pyarrow.dataset as pads
import pytest

from ocr_suite_ray.functions.ocr import ocr_image_text, resolve_engine
from ocr_suite_ray.functions.pdf_extract import extract_pdf

FAKE_JPEG = b"\xff\xd8\xff\xe0" + b"scanned-page-pixels" * 20 + b"\xff\xd9"


def _pdf(streams: list[tuple[bytes, bytes]]) -> bytes:
    """Minimal PDF payload: (dict_body, stream_body) objects."""
    out = bytearray(b"%PDF-1.4\n")
    for i, (d, body) in enumerate(streams):
        out += b"%d 0 obj\n<< %s /Length %d >>\nstream\n" % (i + 1, d, len(body))
        out += body
        out += b"\nendstream\nendobj\n"
    out += b"%%EOF"
    return bytes(out)


def _text_stream(txt: bytes) -> tuple[bytes, bytes]:
    return (b"", b"BT (" + txt + b") Tj ET")


def _image_stream(img: bytes = FAKE_JPEG) -> tuple[bytes, bytes]:
    return (b"/Subtype /Image /Filter /DCTDecode", img)


def test_text_pdf_with_jpeg_figure_extracts_text():
    """Pre-round-4 this payload errored whole-document on DCTDecode; the
    image must now be classified and skipped, the text kept."""
    payload = _pdf([_text_stream(b"hello world"), _image_stream()])
    out = extract_pdf(payload)
    assert out["text"] == "hello world"
    assert out["n_blocks_kept"] == 1
    assert out["n_blocks_dropped"] == 1  # the skipped figure
    assert [s[2] for s in out["spans"]] == ["pdf_block"]


def test_scanned_pdf_without_engine_raises():
    payload = _pdf([_image_stream()])
    with pytest.raises(NotImplementedError, match="OCR"):
        extract_pdf(payload)


def test_scanned_pdf_stub_engine_is_byte_deterministic():
    payload = _pdf([_image_stream(), _image_stream(FAKE_JPEG * 2)])
    ocr = lambda img: ocr_image_text(img, "stub")
    a = extract_pdf(payload, ocr=ocr)
    b = extract_pdf(payload, ocr=ocr)
    assert a == b
    assert a["n_blocks_kept"] == 2
    assert [s[2] for s in a["spans"]] == ["ocr_block", "ocr_block"]
    blocks = a["text"].split("\n\n")
    assert all(t.startswith("[ocr-stub ") for t in blocks)
    assert blocks[0] != blocks[1]  # different image bytes -> different text


def test_resolve_engine_guarded_import():
    """No pytesseract/pillow in this container: auto -> stub, real raises
    the missing-package error through ocr_image_text."""
    from ocr_suite_ray.functions import ocr as ocr_mod

    if ocr_mod.OCR_AVAILABLE:  # pragma: no cover - env-dependent branch
        assert resolve_engine("auto") == "real"
    else:
        assert resolve_engine("auto") == "stub"
        with pytest.raises(NotImplementedError, match="pytesseract"):
            ocr_image_text(FAKE_JPEG, "real")
    with pytest.raises(ValueError):
        resolve_engine("nope")


def test_flate_wrapped_image_also_classified():
    """Filter chains like [/FlateDecode /DCTDecode] on an image XObject
    must not reach the codec-filter error path."""
    body = zlib.compress(FAKE_JPEG)
    payload = _pdf(
        [
            _text_stream(b"body text"),
            (b"/Subtype /Image /Filter [/FlateDecode /DCTDecode]", body),
        ]
    )
    out = extract_pdf(payload)
    assert out["text"] == "body text"


def test_scanned_flate_wrapped_image_unwraps_before_ocr():
    """A scanned PDF whose images carry [/FlateDecode /DCTDecode] must hand
    the OCR engine the actual JPEG bytes, not the zlib wrapper — a real
    pillow/tesseract stack would otherwise raise on every such document."""
    payload = _pdf(
        [(b"/Subtype /Image /Filter [/FlateDecode /DCTDecode]",
          zlib.compress(FAKE_JPEG))]
    )
    seen = []

    def spy_ocr(img: bytes) -> str:
        seen.append(img)
        return "spied text"

    out = extract_pdf(payload, ocr=spy_ocr)
    assert seen == [FAKE_JPEG]
    assert out["text"] == "spied text"


def test_pipeline_routes_scanned_pdf_to_ocr_pool(ray_session, tmp_path):
    """Dispatch test: a scanned-PDF payload flows through the fused wave
    (read -> sniff(pdf) -> warm OCR engine), landing as an ok row with
    ocr_block spans; with no engine configured the same payload is a
    deterministic error row."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ocr_suite_ray.pipelines.extract import ExtractConfig, run_pipeline
    from ocr_suite_ray.sources.synthetic import generate_corpus

    pages_dir = str(tmp_path / "pages")
    generate_corpus(pages_dir, 40, seed=7, n_files=2)
    scanned = _pdf([_image_stream()])
    extra = pa.table(
        {
            "url": ["https://scan.example/doc1"],
            "warc_ts": pa.array([1_700_000_000_000_000], pa.timestamp("us")),
            "html": pa.array([scanned], pa.binary()),
            "text": [""],
            "lang": ["en"],
        }
    )
    pq.write_table(extra, f"{pages_dir}/pages_scan.parquet")

    ocr_out = str(tmp_path / "with_ocr")
    run_pipeline(
        pages_dir, ocr_out, ExtractConfig(wave_size=4, pool_size=2, ocr_engine="stub")
    )
    t = pads.dataset(f"{ocr_out}/final").to_table()
    row = t.filter(
        pads.field("url") == "https://scan.example/doc1"
    ).to_pylist()[0]
    assert row["status"] == "ok"
    assert row["payload_kind"] == "pdf"
    assert row["text"].startswith("[ocr-stub ")
    assert [s["kind"] for s in row["spans"]] == ["ocr_block"]

    no_ocr = str(tmp_path / "no_ocr")
    run_pipeline(pages_dir, no_ocr, ExtractConfig(wave_size=4))
    t3 = pads.dataset(f"{no_ocr}/final").to_table()
    row3 = t3.filter(
        pads.field("url") == "https://scan.example/doc1"
    ).to_pylist()[0]
    assert row3["status"] == "error:NotImplementedError"
