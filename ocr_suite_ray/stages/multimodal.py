"""Multimodal columns: opaque binary payloads + typed metadata, processed by
actor-pool decode/feature stages.

This is the direct descendant of the reference's core loop — a binary frame
payload fed to a warm per-worker engine (``decoder.h:48-54`` frame bytes →
``tesseract.cpp:80-120`` recognize). Decode dispatches per actor
(``ImageDecoder``, same guarded-import pattern as ``functions/ocr.py``):

- ``codec="real"``: pillow — fails fast at actor construction when absent;
- ``codec="fake"`` (``FakeDecoder``): a deterministic stand-in
  (blake2b-derived pseudo pixels/dimensions) with the SAME output schema,
  so the Ray-side plumbing — batch sizing, actor pool, output layout — is
  real and testable end-to-end in this codec-less container;
- ``codec="auto"``: real when pillow imports, else the stub.

Batch sizing: media rows are wide — callers should pass small ``batch_size``
(default 16) and bound ``concurrency`` so batch x pool fits worker heaps
(the reference's fixed 2N frame-buffer pool bound, ``value_queue.h:80-85``).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

MEDIA_META_TYPE = pa.struct(
    [
        pa.field("media_kind", pa.string()),   # image | audio | video
        pa.field("n_bytes", pa.int64()),
        pa.field("content_hash", pa.string()),
    ]
)


def _set_or_append(t: pa.Table, name: str, arr) -> pa.Table:
    """append_column PERMITS duplicate names; composing probe_media with
    decode_media would otherwise emit two ambiguous width/height columns
    (parquet write then fails). Replace-by-name when present."""
    if name in t.column_names:
        return t.set_column(t.column_names.index(name), name, arr)
    return t.append_column(name, arr)


def attach_media_meta(batch: pa.Table, payload_col: str = "payload") -> pa.Table:
    """Stateless metadata projection over a binary column (no decode)."""
    metas = []
    col = batch[payload_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    # one row at a time: the content hash needs the FULL bytes, but
    # holding every body as Python bytes alongside the Arrow buffers
    # doubles peak task memory (the stages/extract.py PageExtractor rule)
    _KIND_BY_FORMAT = {
        "jpeg": "image", "png": "image", "gif": "image", "bmp": "image",
        "wav": "audio",
    }
    for cell in col:
        v = cell.as_py() or b""
        # ONE sniffer (parse_media_header) for the whole module — the
        # previous inline 2-format check tagged GIF/BMP/WAV 'binary',
        # contradicting MEDIA_META_TYPE's 'image | audio | video'
        fmt = parse_media_header(v[:65536])["format"]
        kind = _KIND_BY_FORMAT.get(fmt)
        if kind is None:
            # loose magic-prefix fallback (truncated headers the strict
            # parser rejects still carry obvious image intent)
            kind = (
                "image"
                if v[:2] == b"\xff\xd8" or v[:4] == b"\x89PNG"
                else "binary"
            )
        metas.append(
            {
                "media_kind": kind,
                "n_bytes": len(v),
                "content_hash": hashlib.blake2b(v, digest_size=8).hexdigest(),
            }
        )
    return batch.append_column("media_meta", pa.array(metas, MEDIA_META_TYPE))


def _pil():
    """Guarded pillow import (same pattern as functions/ocr.py): the module
    when importable, else None. Resolved per process — a cluster where some
    nodes carry codecs and some don't should pin decode stages with
    resources, not rely on auto."""
    try:
        from PIL import Image  # type: ignore

        return Image
    except Exception:
        return None


class ImageDecoder:
    """Actor-pool decode stage with a per-actor codec dispatch.

    ``codec="real"``: pillow behind a guarded import — raises ImportError
    at ACTOR CONSTRUCTION (not mid-batch) when pillow is absent, so a
    misconfigured pool fails fast. ``codec="fake"``: the deterministic
    blake2b stand-in (this container has no codecs). ``codec="auto"``:
    real when pillow imports, else fake.

    Output columns either way: decode_status, width, height, n_channels,
    feature (list<float> 16-dim normalized intensity histogram for real
    decodes, a blake2b pseudo-histogram for the stub) — same schema, so
    pipelines are codec-agnostic. Real-codec failures are contained PER ROW
    (``decode_status="error:<Exc>"``, -1 dims, zero feature) following the
    extract_payload convention — one corrupt payload must not fail the task,
    let alone the job. Reference analogue: the per-worker warm decode engine
    (``decoder.h:48-54`` frame bytes in, planes out)."""

    def __init__(self, codec: str = "auto") -> None:
        if codec == "auto":
            codec = "real" if _pil() is not None else "fake"
        if codec == "real":
            self._image_mod = _pil()
            if self._image_mod is None:
                raise ImportError(
                    "ImageDecoder(codec='real') needs pillow; install it "
                    "or use codec='fake' (deterministic stub)"
                )
        elif codec != "fake":
            raise ValueError(f"unknown codec {codec!r}")
        self._codec = codec

    @staticmethod
    def _decode(payload: bytes) -> tuple[int, int, int, np.ndarray]:
        h = hashlib.blake2b(payload or b"", digest_size=40).digest()
        width = 64 + h[0] % 192
        height = 64 + h[1] % 192
        feats = np.frombuffer(h[8:40], dtype=np.uint16).astype(np.float64)
        feats = feats / 65535.0
        return width, height, 3, feats

    def _decode_real(self, payload: bytes) -> tuple[int, int, int, np.ndarray]:
        import io

        im = self._image_mod.open(io.BytesIO(payload or b""))
        arr = np.asarray(im.convert("L"), dtype=np.float64)
        hist, _ = np.histogram(arr, bins=16, range=(0.0, 256.0))
        feats = hist.astype(np.float64) / max(1, arr.size)
        return int(im.width), int(im.height), len(im.getbands()), feats

    def __call__(self, batch: pa.Table) -> pa.Table:
        kernel = self._decode_real if self._codec == "real" else self._decode
        status, widths, heights, chans, feats = [], [], [], [], []
        col = batch["payload"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        for cell in col:  # one body in Python at a time (peak-memory rule)
            v = cell.as_py()
            try:
                w, hgt, c, f = kernel(v)
                status.append("ok")
            except Exception as exc:  # contain per row; stub never raises
                status.append(f"error:{type(exc).__name__}")
                w, hgt, c, f = -1, -1, -1, np.zeros(16)
            widths.append(w)
            heights.append(hgt)
            chans.append(c)
            feats.append(np.asarray(f, dtype=np.float64).tolist())
        drop = [c for c in ("payload",) if c in batch.column_names]
        out = batch.drop_columns(drop)
        out = _set_or_append(out, "decode_status", pa.array(status, pa.string()))
        out = _set_or_append(out, "width", pa.array(widths, pa.int32()))
        out = _set_or_append(out, "height", pa.array(heights, pa.int32()))
        out = _set_or_append(out, "n_channels", pa.array(chans, pa.int32()))
        out = _set_or_append(out, "feature", pa.array(feats, pa.list_(pa.float32())))
        return out


class FakeDecoder(ImageDecoder):
    """The deterministic stub pinned down as its own class: always the
    blake2b kernel; asking it for a real codec is a contract error
    (NotImplementedError) — use :class:`ImageDecoder` for dispatch."""

    def __init__(self, codec: str = "fake") -> None:
        if codec != "fake":
            raise NotImplementedError(
                "FakeDecoder is the deterministic stub; use "
                "ImageDecoder(codec='real'|'auto') for pillow dispatch"
            )
        super().__init__(codec="fake")


def decode_media(ds, batch_size: int = 16, concurrency=(1, 4), codec: str = "auto"):
    """Standard decode pipeline step: small batches, bounded actor pool,
    pillow when available (``codec="auto"``), deterministic stub otherwise."""
    return ds.map_batches(
        ImageDecoder,
        fn_constructor_kwargs={"codec": codec},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


# ---------------------------------------------------------------------------
# REAL header probing (no codec needed): the ffprobe-style metadata pass.
# Decode remains stubbed (no image/audio libs in this container), but
# container-format headers are plain bytes — parsing them is real capability,
# not a stand-in. Reference analogue: the decoder's stream-parameter read
# before any frame is decoded (src/ffmpeg/decoder.cpp:45-57).
# ---------------------------------------------------------------------------

_SOF_MARKERS = frozenset(
    [0xC0, 0xC1, 0xC2, 0xC3, 0xC5, 0xC6, 0xC7, 0xC9, 0xCA, 0xCB, 0xCD, 0xCE, 0xCF]
)


def parse_media_header(v: bytes | None) -> dict:
    """Best-effort container-header parse: PNG / JPEG / GIF / BMP / WAV.
    Total function; unknown or truncated payloads yield format='unknown'
    with zeroed fields. Pure stdlib byte slicing — deterministic."""
    out = {
        "format": "unknown", "width": 0, "height": 0, "bit_depth": 0,
        "channels": 0, "sample_rate": 0,
    }
    if not v:
        return out
    if v[:8] == b"\x89PNG\r\n\x1a\n" and len(v) >= 26 and v[12:16] == b"IHDR":
        out.update(
            format="png",
            width=int.from_bytes(v[16:20], "big"),
            height=int.from_bytes(v[20:24], "big"),
            bit_depth=v[24],
        )
    elif v[:2] == b"\xff\xd8":  # JPEG: walk marker segments to the first SOFn
        out["format"] = "jpeg"
        i, n = 2, len(v)
        while i + 9 <= n and v[i] == 0xFF:
            # skip 0xFF fill/padding bytes (legal between segments): the
            # byte after a run of FFs is the marker; treating a fill FF
            # as a marker would misread the next bytes as a segment
            # length and jump to garbage
            while i + 1 < n and v[i + 1] == 0xFF:
                i += 1
            marker = v[i + 1]
            if marker == 0xD8 or marker == 0x01 or 0xD0 <= marker <= 0xD7:
                i += 2
                continue
            seglen = int.from_bytes(v[i + 2 : i + 4], "big")
            if marker in _SOF_MARKERS and i + 9 <= n:
                out.update(
                    bit_depth=v[i + 4],
                    height=int.from_bytes(v[i + 5 : i + 7], "big"),
                    width=int.from_bytes(v[i + 7 : i + 9], "big"),
                )
                break
            i += 2 + seglen
    elif v[:6] in (b"GIF87a", b"GIF89a") and len(v) >= 10:
        out.update(
            format="gif",
            width=int.from_bytes(v[6:8], "little"),
            height=int.from_bytes(v[8:10], "little"),
            bit_depth=8,
        )
    elif v[:2] == b"BM" and len(v) >= 30:
        out.update(
            format="bmp",
            width=int.from_bytes(v[18:22], "little", signed=True),
            height=abs(int.from_bytes(v[22:26], "little", signed=True)),
            bit_depth=int.from_bytes(v[28:30], "little"),
        )
    elif v[:4] == b"RIFF" and len(v) >= 36 and v[8:12] == b"WAVE" and v[12:16] == b"fmt ":
        out.update(
            format="wav",
            channels=int.from_bytes(v[22:24], "little"),
            sample_rate=int.from_bytes(v[24:28], "little"),
            bit_depth=int.from_bytes(v[34:36], "little"),
        )
    return out


def probe_media(ds, payload_col: str = "payload"):
    """ffprobe-style metadata stage: parse container headers of a binary
    column into typed columns (format/width/height/bit_depth/channels/
    sample_rate) without decoding payloads. The header slice is the only
    per-row materialization — payload bodies never convert to Python."""

    _PROBE_WINDOW = 65536  # JPEG SOF can sit after multi-KB APP/EXIF segs

    def _probe(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # one vectorized slice — full multi-MB bodies never convert to
        # Python; a SOF beyond the window degrades to width/height 0
        heads = pc.binary_slice(t[payload_col], 0, _PROBE_WINDOW)
        metas = [parse_media_header(v.as_py()) for v in heads]
        for name, typ in (
            ("format", pa.string()), ("width", pa.int32()), ("height", pa.int32()),
            ("bit_depth", pa.int32()), ("channels", pa.int32()),
            ("sample_rate", pa.int32()),
        ):
            t = _set_or_append(t, name, pa.array([m[name] for m in metas], typ))
        return t

    return ds.map_batches(_probe, batch_format="pyarrow")
