"""Viewer-parity search pipeline + CLI surface tests."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from ocr_suite_ray.pipelines.extract import ExtractConfig, run_pipeline
from ocr_suite_ray.pipelines.search import (
    matches_per_url,
    search_extracted,
    search_hierarchy,
)
from ocr_suite_ray.state.dupset import block_refs

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def final_store(ray_session, small_corpus, tmp_path_factory):
    pages_dir, _ = small_corpus
    out = str(tmp_path_factory.mktemp("search_out"))
    run_pipeline(pages_dir, out, ExtractConfig(wave_size=4, pool_size=2))
    return os.path.join(out, "final"), out


def test_search_extracted_sorted(ray_session, final_store):
    final, _ = final_store
    rows = search_extracted(final, "capture").take_all()
    assert rows, "pattern should match synthetic content"
    ts = [r["warc_ts"] for r in rows]
    assert ts == sorted(ts)
    # deterministic vs a driver-side oracle
    import pyarrow.dataset as pads

    t = pads.dataset(final).to_table()
    want = sum("capture" in x for x in t.column("text").to_pylist())
    assert len(rows) == want


def test_search_min_length_guard(ray_session, final_store):
    final, _ = final_store
    with pytest.raises(ValueError):
        search_extracted(final, "ab")


def test_search_hierarchy_counts(ray_session, final_store):
    final, _ = final_store
    rows = search_hierarchy(final, "capture").take_all()
    total = sum(r["n"] for r in rows)
    flat = search_extracted(final, "capture").count()
    assert total == flat


def test_matches_per_url(ray_session, final_store):
    final, _ = final_store
    rows = matches_per_url(final, "capture").take_all()
    assert all(r["n_matches"] >= 1 for r in rows)


def test_fetch_payload_point_lookup(ray_session, small_corpus, final_store):
    """frame_view parity: pushdown point lookup returns every capture of a
    url (newest first) and view_document pairs the extracted record with
    the winning payload."""
    import pyarrow.dataset as pads

    from ocr_suite_ray.pipelines.search import fetch_payload, view_document

    pages_dir, _ = small_corpus
    final, _out = final_store
    pages = pads.dataset(pages_dir).to_table()
    urls = pages["url"].to_pylist()
    # a dup url (multiple captures) if one exists, else any url
    from collections import Counter

    counts = Counter(urls)
    dup_url = next((u for u, c in counts.items() if c > 1), urls[0])

    t = fetch_payload(pages_dir, dup_url)
    assert t.num_rows == counts[dup_url]
    ts = t["warc_ts"].to_pylist()
    assert ts == sorted(ts, reverse=True), "captures must come newest first"

    rec = view_document(pages_dir, final, dup_url)
    assert rec["url"] == dup_url
    assert rec["n_captures"] == counts[dup_url]
    # the paired payload is a NEWEST capture whose extraction reproduces
    # the stored winner text (on exact-ts ties file order is arbitrary;
    # the winner is chosen by the extracted-content tuple)
    newest_ts = t["warc_ts"][0].as_py()
    tied = [h.as_py() for h, ts in zip(t["html"], t["warc_ts"])
            if ts.as_py() == newest_ts]
    assert rec["payload"] in tied
    from ocr_suite_ray.functions.extract import extract_payload

    assert extract_payload(rec["payload"])["text"] == rec["text"]
    with pytest.raises(KeyError):
        view_document(pages_dir, final, "https://not.a.real/url")


def test_cli_view(ray_session, small_corpus, final_store):
    import pyarrow.dataset as pads

    pages_dir, _ = small_corpus
    _final, out = final_store
    url = pads.dataset(pages_dir).to_table()["url"][0].as_py()
    env = dict(os.environ, PYTHONPATH=REPO)
    r = subprocess.run(
        [sys.executable, "-m", "ocr_suite_ray.cli", "view",
         "--pages", pages_dir, "--out", out, "--url", url],
        capture_output=True, text=True, env=env, check=True,
    )
    rec = json.loads(r.stdout)
    assert rec["url"] == url
    assert int(rec["n_captures"]) >= 1


def test_cli_status_and_search(ray_session, final_store):
    _, out = final_store
    env = dict(os.environ, PYTHONPATH=REPO)
    st = subprocess.run(
        [sys.executable, "-m", "ocr_suite_ray.cli", "status", "--out", out],
        capture_output=True, text=True, env=env, check=True,
    )
    status = json.loads(st.stdout)
    assert status["partitions_done"] == 4
    assert status["rows_done"] > 0


def test_cli_watch_incremental(ray_session, tmp_path):
    """watch polls the pages dir and re-extracts incrementally: round 1
    processes the initial files, a file added between polls is picked up
    with only the NEW partition processed (lineage skips the rest)."""
    from ocr_suite_ray.sources.synthetic import generate_corpus

    pages = str(tmp_path / "pages")
    out = str(tmp_path / "out")
    generate_corpus(pages, 200, seed=7, n_files=2)

    env = dict(os.environ, PYTHONPATH=REPO)
    proc = subprocess.Popen(
        [sys.executable, "-m", "ocr_suite_ray.cli", "--num-cpus", "4", "watch",
         "--pages", pages, "--out", out, "--pool", "2",
         "--interval", "1.5", "--max-rounds", "30"],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    try:
        line1 = json.loads(proc.stdout.readline())
        assert line1["partitions_processed"] == 2
        # drop a new file with DISJOINT page ids (disjoint urls keep the
        # dup-url set unchanged, so old partitions stay valid — adding
        # overlapping urls would legitimately invalidate everything)
        import pyarrow.parquet as pq

        from ocr_suite_ray.sources.synthetic import generate_pages_table

        extra_t = generate_pages_table(100, seed=7, start=10_000)
        tmp_extra = os.path.join(pages, ".pages_zz_extra.tmp")
        pq.write_table(extra_t, tmp_extra)
        os.rename(tmp_extra, os.path.join(pages, "pages_zz_extra.parquet"))
        line2 = json.loads(proc.stdout.readline())
        assert line2["partitions_total"] == 3
        assert line2["partitions_skipped"] == 2, "old partitions must be skipped"
        assert line2["partitions_processed"] == 1
    finally:
        proc.terminate()
        proc.wait(timeout=30)


def _bm25_oracle(ids, texts, terms, top_k):
    """Driver-side exact BM25 (k1=1.2, b=0.75, Lucene idf), top-k by
    (score desc, id asc), scores as bm25_e4."""
    import math

    toks = [x.split(" ") for x in texts]
    n = float(len(toks))
    avgdl = sum(len(w) for w in toks) / n
    df = {q: float(sum(q in w for w in toks)) for q in terms}
    scores = {}
    for u, w in zip(ids, toks):
        s = 0.0
        for q in terms:
            tf = float(w.count(q))
            if not tf or not df[q]:
                continue
            idf = math.log(1.0 + (n - df[q] + 0.5) / (df[q] + 0.5))
            s += idf * tf * 2.2 / (tf + 1.2 * (1 - 0.75 + 0.75 * len(w) / avgdl))
        if s > 0:
            scores[u] = s
    want = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k]
    return [(u, math.floor(s * 10000 + 0.5)) for u, s in want]


def test_bm25_rank_over_final_store(ray_session, final_store):
    """BM25 over the extracted store: ranked hits, oracle-checked against
    a driver-side exact BM25 on the same rows."""
    import pyarrow.dataset as pads
    import ray.data as rd

    from ocr_suite_ray.stages.text_ops import bm25_rank

    final, _ = final_store
    terms = ["capture", "render"]
    got = bm25_rank(
        rd.read_parquet(final, columns=["url", "text"]),
        terms, id_col="url", text_col="text", top_k=5,
    )
    t = pads.dataset(final).to_table()
    want = _bm25_oracle(t["url"].to_pylist(), t["text"].to_pylist(), terms, 5)
    assert list(zip(got["url"].to_pylist(), got["bm25_e4"].to_pylist())) == want


def _bm25_rows(n, seed):
    import numpy as np

    rng = np.random.default_rng(seed)
    vocab = ["render", "boiler", "pad", "fill", "noise", "plate"]
    return [" ".join(rng.choice(vocab, size=rng.integers(1, 12))) for _ in range(n)]


def test_bm25_rank_block_of_several_batches(ray_session, tmp_path):
    """One parquet file read as several batches whose candidate tables
    share one output block: rows of different batches with the same
    in-batch index are different docs."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    n = 25_000
    texts = _bm25_rows(n, 11)
    pq.write_table(pa.table({"doc_id": list(range(n)), "text": texts}),
                   str(tmp_path / "docs.parquet"), row_group_size=4_000)

    def _read():
        return rd.read_parquet(str(tmp_path), override_num_blocks=1)

    # the layout under test: one block carrying several batches
    probe = _read().map_batches(
        lambda t: pa.table({"rows": [t.num_rows]}), batch_format="pyarrow"
    )
    per_block = [ray.get(r)["rows"].to_pylist() for r in block_refs(probe)]
    assert any(len(b) > 1 for b in per_block), per_block

    from ocr_suite_ray.stages.text_ops import bm25_rank

    got = bm25_rank(_read(), ["render", "boiler"], top_k=25)
    want = _bm25_oracle(list(range(n)), texts, ["render", "boiler"], 25)
    assert list(zip(got["doc_id"].to_pylist(), got["bm25_e4"].to_pylist())) == want


def test_bm25_rank_over_more_blocks_than_fanin(ray_session):
    """More than 32 blocks: the stats reduce is a two-level tree; the
    scoring runs one task per chunk of blocks (at most one per CPU), each
    keeping one top-k over its blocks, and the top-k merge is one level
    (``tree_reduce_refs`` over more refs than its fan-in is tested in
    test_dedup)."""
    import pyarrow as pa
    import ray.data as rd

    from ocr_suite_ray.stages.text_ops import bm25_rank

    n, parts = 700, 41
    texts = _bm25_rows(n, 12)
    t = pa.table({"doc_id": list(range(n)), "text": texts})
    step = -(-n // parts)
    ds = rd.from_arrow([t.slice(i, step) for i in range(0, n, step)])
    assert ds.num_blocks() > 32
    got = bm25_rank(ds, ["boiler", "plate"], top_k=15)
    want = _bm25_oracle(list(range(n)), texts, ["boiler", "plate"], 15)
    assert list(zip(got["doc_id"].to_pylist(), got["bm25_e4"].to_pylist())) == want


def test_matches_per_url_counts_match_re_oracle(ray_session, final_store):
    """pc.count_substring (non-overlapping, left-to-right) must agree with
    re.findall on the escaped literal — the semantics the per-row loop it
    replaced had."""
    import re

    import pyarrow.dataset as pads

    final, _ = final_store
    got = {
        (r["url"], r["warc_ts"]): r["n_matches"]
        for r in matches_per_url(final, "capture").take_all()
    }
    t = pads.dataset(final).to_table(columns=["url", "warc_ts", "text"])
    pat = re.compile(re.escape("capture"))
    want = {}
    for u, ts, x in zip(
        t["url"].to_pylist(), t["warc_ts"].to_pylist(), t["text"].to_pylist()
    ):
        n = len(pat.findall(x))
        if n > 0:
            want[(u, ts)] = n
    assert got == want and want


# ---------------------------------------------------------------- exact oracles

SEARCH_COLS = ["url", "warc_ts", "n_blocks_kept", "status"]


def _write_store(d, n_files, rows_per_file, row_group_size=None, null_ts=()):
    """A hand-built final-store shard set: ``null_ts`` holds (file, row)
    positions whose warc_ts is null; every third file repeats the
    timestamps of file 0 so the url tiebreak decides their order."""
    import datetime as dt

    import pyarrow as pa
    import pyarrow.parquet as pq

    os.makedirs(d, exist_ok=True)
    base = dt.datetime(2024, 3, 1, 22, 50)
    words = ["alpha", "beta", "gamma", "delta"]
    for f in range(n_files):
        shift = 0 if f % 3 == 0 else f
        ts = [base + dt.timedelta(minutes=3 * i + shift, seconds=f % 7)
              for i in range(rows_per_file)]
        for nf, nr in null_ts:
            if nf == f:
                ts[nr] = None
        t = pa.table({
            "url": [f"https://h{f % 5}.example/{f:03d}/{i}" for i in range(rows_per_file)],
            "warc_ts": pa.array(ts, pa.timestamp("us")),
            "text": pa.array(
                [f"{words[(f + i) % 4]} {words[i % 3]} capture" for i in range(rows_per_file)],
                pa.large_string(),
            ),
            "n_blocks_kept": pa.array([i % 4 for i in range(rows_per_file)], pa.int32()),
            "status": ["ok" if i % 5 else "error:ValueError" for i in range(rows_per_file)],
        })
        pq.write_table(t, os.path.join(d, f"uniq-{f:03d}.parquet"),
                       row_group_size=row_group_size)
    return d


def _want_search(final, pattern):
    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    t = pads.dataset(final, format="parquet").to_table(columns=SEARCH_COLS + ["text"])
    hits = t.filter(pc.match_substring(t["text"], pattern)).select(SEARCH_COLS)
    order = pc.sort_indices(
        hits, sort_keys=[("warc_ts", "ascending"), ("url", "ascending")],
        null_placement="at_end",
    )
    return hits.take(order).to_pylist()


def _want_hierarchy(final, pattern):
    from collections import Counter

    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    t = pads.dataset(final, format="parquet").to_table(columns=["warc_ts", "text"])
    ts = t.filter(pc.match_substring(t["text"], pattern))["warc_ts"].to_pylist()
    return Counter(
        (None, None, None) if x is None
        else (x.replace(hour=0, minute=0, second=0, microsecond=0), x.hour, x.minute)
        for x in ts
    )


def _got_hierarchy(ds):
    from collections import Counter

    got = Counter()
    for r in ds.take_all():
        got[(r["day"], r["hour"], r["minute"])] += r["n"]
    return got


def test_search_extracted_null_ts_sorts_last(ray_session, tmp_path):
    """A null capture time sorts after every timestamp (ascending, nulls
    last), url ascending breaks timestamp ties, and the hierarchy keeps
    the null row as its own all-null group."""
    d = _write_store(str(tmp_path / "final"), 3, 6, null_ts=[(1, 2), (2, 0)])
    rows = search_extracted(d, "capture").take_all()
    assert rows == _want_search(d, "capture")
    assert [r["warc_ts"] for r in rows[-2:]] == [None, None]
    assert rows[-2]["url"] < rows[-1]["url"]
    assert all(r["warc_ts"] is not None for r in rows[:-2])
    got = _got_hierarchy(search_hierarchy(d, "capture"))
    assert got == _want_hierarchy(d, "capture")
    assert got[(None, None, None)] == 2


def test_search_extracted_equals_pyarrow_oracle(ray_session, final_store):
    final, _ = final_store
    for pattern in ("capture", "render"):
        want = _want_search(final, pattern)
        assert want, pattern
        assert search_extracted(final, pattern).take_all() == want


def test_search_hierarchy_equals_pyarrow_multiset(ray_session, final_store):
    final, _ = final_store
    got = _got_hierarchy(search_hierarchy(final, "capture"))
    assert got == _want_hierarchy(final, "capture")


def test_zero_hit_pattern_keeps_declared_schema(ray_session, final_store):
    import pyarrow as pa

    final, _ = final_store
    hits = search_extracted(final, "zqxjkv")
    assert hits.take_all() == []
    assert hits.schema().names == SEARCH_COLS
    assert hits.schema().types == [
        pa.string(), pa.timestamp("us"), pa.int32(), pa.string()
    ]
    tree = search_hierarchy(final, "zqxjkv")
    assert tree.take_all() == []
    assert tree.schema().names == ["day", "hour", "minute", "n"]
    assert tree.schema().types == [
        pa.timestamp("us"), pa.int32(), pa.int32(), pa.int64()
    ]


def test_search_over_more_files_than_fanin(ray_session, tmp_path):
    """41 files of 4 row groups each, more than the merge fan-in: one scan
    task per chunk of files (at most one per CPU) reads every row group of
    every file, and the merge is one level (``tree_reduce_refs`` over more
    refs than its fan-in is tested in test_dedup)."""
    import pyarrow.parquet as pq

    d = _write_store(str(tmp_path / "final"), 41, 20, row_group_size=5,
                     null_ts=[(7, 3)])
    assert pq.ParquetFile(os.path.join(d, "uniq-000.parquet")).num_row_groups == 4
    for pattern in ("capture", "alpha beta", "gamma"):
        want = _want_search(d, pattern)
        assert want, pattern
        assert search_extracted(d, pattern).take_all() == want
        assert _got_hierarchy(search_hierarchy(d, pattern)) == _want_hierarchy(d, pattern)


# ------------------------------------------------- literal match and lookups

# near misses a pattern read as a regex would match: "aXb" for "a.b", ...
_LITERAL_TEXTS = [
    "lit a.b here", "near aXb miss", "star x*y ok", "xxy xy only",
    "plus p+q and pq", "ppq", "opt r?s", "rs only", "call f(e) now", "fe",
    "set [f] end", "f alone", "brace {g} x", "ggg", "anchor ^h$ mid", "h",
    "alt i|j or", "i or j", "back \\E slash", "E only", "two a\\b c",
    "tab\there", "tab here", "naïve café", "naive cafe", "Ünïcode ok",
]
_LITERAL_PATTERNS = [
    "a.b", "x*y", "p+q", "r?s", "f(e)", "[f]", "{g}", "^h$", "i|j",
    ". * + ? ( ) [ ] { } ^ $ |", " \\E", "a\\b", "\\E slash", "\there",
    "b\th", " caf", "ïve café", "Ünï", "never-in-any-text",
]


def _write_text_store(d, texts, n_files):
    """``texts`` dealt round-robin into ``n_files`` final-store shards."""
    import datetime as dt

    import pyarrow as pa
    import pyarrow.parquet as pq

    os.makedirs(d, exist_ok=True)
    base = dt.datetime(2024, 5, 2, 7, 0)
    for f in range(n_files):
        rows = list(range(f, len(texts), n_files))
        pq.write_table(pa.table({
            "url": [f"https://lit.example/{i}" for i in rows],
            "warc_ts": pa.array([base + dt.timedelta(minutes=7 * i) for i in rows],
                                pa.timestamp("us")),
            "text": pa.array([texts[i] for i in rows], pa.large_string()),
            "n_blocks_kept": pa.array([i % 3 for i in rows], pa.int32()),
            "status": ["ok"] * len(rows),
        }), os.path.join(d, f"uniq-{f:03d}.parquet"))
    return d


def test_literal_match_parity_with_match_substring(ray_session, tmp_path):
    """Search, hierarchy and find_text treat the pattern as a literal:
    regex metacharacters, a backslash and ``\\E``, a tab, a space and
    non-ASCII letters match exactly where ``pc.match_substring`` does."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from ocr_suite_ray.stages.search import find_text

    d = _write_text_store(str(tmp_path / "final"), _LITERAL_TEXTS, 3)
    texts = pa.array(_LITERAL_TEXTS, pa.large_string())
    ds = rd.from_arrow(pa.table({"doc_id": list(range(len(texts))), "text": texts}))
    for p in _LITERAL_PATTERNS:
        want_ids = pc.indices_nonzero(pc.match_substring(texts, p)).to_pylist()
        got = search_extracted(d, p).take_all()
        assert got == _want_search(d, p), p
        assert sorted(int(r["url"].rsplit("/", 1)[1]) for r in got) == want_ids, p
        assert _got_hierarchy(search_hierarchy(d, p)) == _want_hierarchy(d, p), p
        assert sorted(r["doc_id"] for r in find_text(ds, p).take_all()) == want_ids, p
    assert not pc.any(pc.match_substring(texts, _LITERAL_PATTERNS[-1])).as_py()


def _write_pages(d, name, rows):
    """One pages-store file of ``(url, minute, html)`` rows."""
    import datetime as dt

    import pyarrow as pa
    import pyarrow.parquet as pq

    os.makedirs(d, exist_ok=True)
    base = dt.datetime(2024, 1, 1)
    pq.write_table(pa.table({
        "url": [u for u, _, _ in rows],
        "warc_ts": pa.array([base + dt.timedelta(minutes=m) for _, m, _ in rows],
                            pa.timestamp("us")),
        "html": pa.array([h for _, _, h in rows], pa.binary()),
    }), os.path.join(d, name))


def test_fetch_payload_every_capture_across_files_newest_first(tmp_path):
    """A url captured in several pages files comes back once per capture,
    newest first; the result equals a one-phase read of the whole store."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    from ocr_suite_ray.pipelines.search import fetch_payload

    d = str(tmp_path / "pages")
    _write_pages(d, "a.parquet", [("u/1", 1, b"one"), ("u/2", 2, b"x")])
    _write_pages(d, "b.parquet", [("u/3", 3, b"y"), ("u/1", 9, b"nine")])
    _write_pages(d, "c.parquet", [("u/1", 5, b"five"), ("u/4", 4, b"z")])
    t = fetch_payload(d, "u/1")
    assert t["html"].to_pylist() == [b"nine", b"five", b"one"]
    whole = pads.dataset(d).to_table(filter=pc.field("url") == "u/1")
    whole = whole.take(pc.sort_indices(whole, sort_keys=[("warc_ts", "descending")]))
    assert t.equals(whole)
    # columns= projects; without warc_ts the captures keep store order
    p = fetch_payload(d, "u/1", columns=["html"])
    assert p.column_names == ["html"]
    assert p["html"].to_pylist() == [b"one", b"nine", b"five"]
    assert fetch_payload(d, "u/3", columns=["warc_ts", "url"]).column_names == [
        "warc_ts", "url"
    ]


def test_fetch_payload_absent_url(ray_session, small_corpus, final_store):
    """An absent url gives zero rows of the store schema (projected by
    ``columns=``), and view_document raises KeyError."""
    import pyarrow.dataset as pads

    from ocr_suite_ray.pipelines.search import fetch_payload, view_document

    pages_dir, _ = small_corpus
    final, _ = final_store
    t = fetch_payload(pages_dir, "https://absent.example/x")
    assert t.num_rows == 0 and t.schema == pads.dataset(pages_dir).schema
    p = fetch_payload(final, "https://absent.example/x", columns=["url", "text"])
    assert p.num_rows == 0 and p.column_names == ["url", "text"]
    with pytest.raises(KeyError):
        view_document(pages_dir, final, "https://absent.example/x")


@pytest.mark.parametrize("cpus", [1, 4])
def test_search_results_independent_of_chunking(ray_session, tmp_path, monkeypatch, cpus):
    """One scan chunk (the scan task is the root) and four (a root merge
    over the leaves) give the same rows and schema, for a zero-hit
    pattern too."""
    from ocr_suite_ray.pipelines.search import SEARCH_SCHEMA
    from ocr_suite_ray.stages.search import HIERARCHY_SCHEMA
    from ocr_suite_ray.state import dupset

    d = _write_store(str(tmp_path / "final"), 6, 9, null_ts=[(2, 4)])
    monkeypatch.setattr(dupset, "cluster_cpus", lambda: cpus)
    assert len(dupset.cpu_chunks(list(range(6)))) == cpus
    for pattern in ("capture", "alpha beta", "zqxjkv"):
        hits = search_extracted(d, pattern)
        assert hits.take_all() == _want_search(d, pattern)
        assert hits.schema().base_schema == SEARCH_SCHEMA
        tree = search_hierarchy(d, pattern)
        assert _got_hierarchy(tree) == _want_hierarchy(d, pattern)
        assert tree.schema().base_schema == HIERARCHY_SCHEMA
        if pattern == "zqxjkv":
            assert hits.take_all() == [] and tree.take_all() == []
    rows = search_hierarchy(d, "capture").take_all()
    keys = [(r["day"], r["hour"], r["minute"]) for r in rows]
    # tree order: (day, hour, minute) ascending, the null group last
    assert keys[-1] == (None, None, None) and keys[:-1] == sorted(keys[:-1])


def test_bm25_rank_one_leaf_equals_several(ray_session, monkeypatch):
    """With one score task the driver takes its top-k; with several a
    tree merge picks it: the same rows either way."""
    import pyarrow as pa
    import ray.data as rd

    from ocr_suite_ray.stages.text_ops import bm25_rank
    from ocr_suite_ray.state import dupset

    n = 300
    texts = _bm25_rows(n, 13)
    t = pa.table({"doc_id": list(range(n)), "text": texts})
    want = _bm25_oracle(list(range(n)), texts, ["boiler", "noise"], 12)
    got = {}
    for cpus in (1, 4):
        monkeypatch.setattr(dupset, "cluster_cpus", lambda c=cpus: c)
        ds = rd.from_arrow([t.slice(i, 50) for i in range(0, n, 50)])
        r = bm25_rank(ds, ["boiler", "noise"], top_k=12)
        got[cpus] = list(zip(r["doc_id"].to_pylist(), r["bm25_e4"].to_pylist()))
    assert got[1] == got[4] == want
