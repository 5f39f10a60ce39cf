"""Adversarially SKEWED synthetic corpus: PDF-heavy + giant-DOM mix.

The standard generator (``synthetic.py``) carries ~2% PDFs and ~1% giant
DOMs — enough for correctness tests, too mild to stress the slow-lane
isolation the reference's VisionKit lesson warns about (multi-threading
VisionKit is pointless because it serializes, ``README.md:80-81``; the
flagship answers it with row-group work units, so a PDF-heavy unit delays
only its own task). This
module generates the stress mix: a configurable per-mille share of
well-formed PDFs (default 20%) and giant DOMs (default 5%), same schema,
same deterministic (i, seed) purity, same dup-capture structure.

Kept separate from ``synthetic.py`` ON PURPOSE: the standard corpus
cache is keyed by that file's bytes (``version.corpus_code_fingerprint``)
and a 10M-page regeneration is the price of touching it.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow.parquet as pq

from ocr_suite_ray.sources.synthetic import (
    _LANGS,
    _BASE_TS_US,
    _P_DUP,
    _broken_pdf,
    _page_html,
    _page_pdf,
    _rng,
    _sentence,
    rows_to_table,
)


def make_skew_row(
    i: int,
    seed: int = 42,
    p_giant: int = 50,
    p_pdf: int = 200,
    p_bad_pdf: int = 5,
) -> dict:
    """Page row i under the skewed mix (per-mille thresholds stack after
    the dup class: dup < giant < pdf < bad_pdf < html)."""
    r = _rng(seed, i)
    roll = r.randint(0, 999)
    site = i % 997
    url = f"https://skew{site}.example/p/{i}"
    ts = _BASE_TS_US + (i * 61_000_000) + r.randint(0, 59_000_000)
    lang = _LANGS[i % len(_LANGS)]
    b_giant = _P_DUP + p_giant
    b_pdf = b_giant + p_pdf
    b_bad = b_pdf + p_bad_pdf
    if roll < _P_DUP:
        html = _page_html(r)
    elif roll < b_giant:
        html = _page_html(r, giant=True)
    elif roll < b_pdf:
        html = _page_pdf(r)
    elif roll < b_bad:
        html = _broken_pdf(r)
    else:
        html = _page_html(r)
    server_text = _sentence(r, 10) if r.random() < 0.5 else ""
    return {"url": url, "warc_ts": ts, "html": html, "text": server_text,
            "lang": lang}


def make_skew_capture_rows(i: int, seed: int = 42, **mix) -> list[dict]:
    base = make_skew_row(i, seed, **mix)
    r = _rng(seed, i)
    roll = r.randint(0, 999)
    if roll >= _P_DUP:
        return [base]
    rows = [base]
    for k in range(r.randint(1, 4)):
        r2 = _rng(seed, i * 1_000_000 + k + 1)
        cap = dict(base)
        cap["warc_ts"] = base["warc_ts"] + (k + 1) * 3_600_000_000
        cap["html"] = _page_html(r2)
        cap["text"] = _sentence(r2, 10)
        rows.append(cap)
    if r.random() < 0.34:
        # exact-tie pair (same url, same ts, different payload) — the
        # class that stresses deterministic winner selection under ts
        # ties; without it the skew drive's single-pool vs split-pool
        # byte-identity check could pass with tie-breaking regressed
        r3 = _rng(seed, i * 1_000_000 + 777)
        tie = dict(rows[-1])
        tie["html"] = _page_html(r3)
        tie["text"] = _sentence(r3, 10)
        rows.append(tie)
    return rows


def _write_skew_shard(out_dir: str, k: int, lo: int, hi: int, seed: int,
                      mix: dict) -> str:
    """Write pages ``lo..hi`` of the skewed mix as shard ``k``."""
    rows: list[dict] = []
    for i in range(lo, hi):
        rows.extend(make_skew_capture_rows(i, seed, **mix))
    path = os.path.join(out_dir, f"pages_{k:05d}.parquet")
    tmp = path + ".tmp"
    pq.write_table(rows_to_table(rows), tmp, row_group_size=4096)
    os.replace(tmp, path)
    return path


def generate_skew_corpus(
    out_dir: str,
    n_pages: int,
    seed: int = 42,
    n_files: int = 64,
    p_giant: int = 50,
    p_pdf: int = 200,
    p_bad_pdf: int = 5,
) -> list[str]:
    """Skewed-mix sibling of ``synthetic.generate_corpus`` — distributed
    via one Ray task per shard, idempotent via a mix-keyed marker."""
    import ray

    from ocr_suite_ray.state.dupset import remote_fn

    marker = os.path.join(
        out_dir,
        f".complete-skew-{n_pages}-{seed}-{n_files}-{p_giant}-{p_pdf}-{p_bad_pdf}",
    )
    if os.path.exists(marker):
        return sorted(
            os.path.join(out_dir, f)
            for f in os.listdir(out_dir) if f.endswith(".parquet")
        )
    os.makedirs(out_dir, exist_ok=True)
    for f in os.listdir(out_dir):
        if f.endswith(".parquet") or f.startswith(".complete-"):
            os.remove(os.path.join(out_dir, f))
    bounds = np.linspace(0, n_pages, n_files + 1, dtype=np.int64)
    mix = {"p_giant": p_giant, "p_pdf": p_pdf, "p_bad_pdf": p_bad_pdf}

    write = remote_fn(_write_skew_shard)
    paths = sorted(ray.get([
        write.remote(out_dir, k, int(bounds[k]), int(bounds[k + 1]), seed, mix)
        for k in range(n_files)
    ]))
    with open(marker, "w") as fh:
        fh.write("ok")
    return paths
