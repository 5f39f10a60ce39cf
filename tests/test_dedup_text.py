"""Approximate dedup/similarity ops verified against exact oracles on
constructed corpora (the driver only does rows-only checks for these, so the
real guarantees live here)."""

from __future__ import annotations

import random

import numpy as np
import pandas as pd
import pytest

from ocr_suite_ray.stages.dedup_text import (
    _shingles,
    jaccard,
    minhash_lsh_pairs,
    ngram_jaccard_pairs,
    simhash64,
    simhash_pairs,
)

VOCAB = "alpha beta gamma delta epsilon zeta eta theta iota kappa".split()


def _mk_corpus(n_base: int = 30, seed: int = 7):
    """Docs with controlled near-dup structure: each base doc gets one 90%%
    copy (near-dup) and the rest are independent."""
    r = random.Random(seed)
    rows = []
    did = 0
    for _ in range(n_base):
        words = [r.choice(VOCAB) for _ in range(60)]
        rows.append({"doc_id": did, "source": f"s{did % 3}", "text": " ".join(words)})
        did += 1
        mut = list(words)
        for _ in range(4):  # ~7% token mutation -> high jaccard
            mut[r.randrange(len(mut))] = r.choice(VOCAB)
        rows.append({"doc_id": did, "source": f"s{did % 3}", "text": " ".join(mut)})
        did += 1
    return pd.DataFrame(rows)


def _exact_pairs(df: pd.DataFrame, threshold: float):
    shs = {r.doc_id: _shingles(r.text, 3) for r in df.itertuples()}
    out = set()
    ids = sorted(shs)
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            if jaccard(shs[ids[i]], shs[ids[j]]) >= threshold:
                out.add((ids[i], ids[j]))
    return out


def test_minhash_lsh_finds_high_jaccard_pairs(ray_session):
    import ray.data as rd

    df = _mk_corpus()
    want = _exact_pairs(df, 0.5)
    want_high = _exact_pairs(df, 0.7)
    assert len(want) >= 20  # corpus actually contains near-dups
    got_rows = minhash_lsh_pairs(rd.from_pandas(df), threshold=0.5).take_all()
    got = {(r["id_a"], r["id_b"]) for r in got_rows}
    # exact verification inside buckets => no false positives
    assert got <= want
    # 32 bands x 4 rows: collision prob ~0.9998 at j >= 0.7 — allow one miss
    assert len(want_high - got) <= 1
    # and overall recall at the 0.5 boundary should still be majority
    assert len(got) >= len(want) * 0.6


def test_minhash_pairs_independent_of_partitioning(ray_session):
    import ray.data as rd

    df = _mk_corpus()
    a = minhash_lsh_pairs(rd.from_pandas(df), threshold=0.5).take_all()
    b = minhash_lsh_pairs(rd.from_pandas(df).repartition(7), threshold=0.5).take_all()
    key = lambda r: (r["id_a"], r["id_b"])
    assert sorted(a, key=key) == sorted(b, key=key)


def test_minhash_wide_verify_matches_narrow(ray_session):
    """BOTH distributed verify routes (zero-shuffle gram-block probe and
    bucket-shuffled gram join) must emit the exact same pair set AND
    jaccard_e4 values as the single-task narrow route —
    ``narrow_verify_limit=0`` forces every candidate through the wide
    path, ``wide_verify`` pins the route."""
    import ray.data as rd

    df = _mk_corpus()
    key = lambda r: (r["id_a"], r["id_b"], r["jaccard_e4"])
    for mode in ("md5", "fast"):
        narrow = minhash_lsh_pairs(
            rd.from_pandas(df), threshold=0.5, gram_hash=mode
        ).take_all()
        assert len(narrow) > 0
        for route in ("probe", "shuffle"):
            wide = minhash_lsh_pairs(
                rd.from_pandas(df).repartition(5), threshold=0.5,
                narrow_verify_limit=0, gram_hash=mode, wide_verify=route,
            ).take_all()
            assert sorted(narrow, key=key) == sorted(wide, key=key), (mode, route)


def test_ngram_jaccard_blocked_matches_exact(ray_session):
    import ray.data as rd

    df = _mk_corpus()
    got = ngram_jaccard_pairs(rd.from_pandas(df), threshold_e4=5000).take_all()
    # oracle restricted to the same blocking
    shs = {r.doc_id: _shingles(r.text, 3) for r in df.itertuples()}
    want = set()
    for s, g in df.groupby("source"):
        ids = sorted(g.doc_id)
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                # note: _pairs uses raw word k-grams, oracle uses hashed —
                # jaccard is identical either way (hash is injective enough)
                if jaccard(shs[ids[i]], shs[ids[j]]) >= 0.5:
                    want.add((ids[i], ids[j]))
    got_pairs = {(r["id_a"], r["id_b"]) for r in got}
    assert got_pairs == want


def test_simhash_near_duplicates_close():
    a = "the quick brown fox jumps over the lazy dog " * 5
    b = a.replace("lazy", "sleepy")
    c = " ".join(reversed(VOCAB * 6))
    dab = bin(simhash64(a) ^ simhash64(b)).count("1")
    dac = bin(simhash64(a) ^ simhash64(c)).count("1")
    assert dab < dac
    assert simhash64(a) == simhash64(a)


def test_simhash_pairs_bucketing_finds_identical_docs(ray_session):
    import ray.data as rd

    rows = [{"doc_id": i, "text": f"unique words {i} " + " ".join(VOCAB)} for i in range(20)]
    rows.append({"doc_id": 100, "text": rows[0]["text"]})  # exact dup of doc 0
    got = simhash_pairs(rd.from_pandas(pd.DataFrame(rows)), max_hamming=3).take_all()
    assert any(r["id_a"] == 0 and r["id_b"] == 100 and r["hamming"] == 0 for r in got)


def test_lsh_ann_recall_vs_exact(ray_session):
    import ray.data as rd

    from ocr_suite_ray.stages.similarity import embedding_near_dup, lsh_bucket_pairs

    rng = np.random.RandomState(3)
    base = rng.normal(size=(40, 64))
    near = base + rng.normal(scale=0.05, size=base.shape)  # cosine ~0.995
    vecs = np.vstack([base, near])
    df = pd.DataFrame(
        {"vec_id": range(80), "embedding": [v.astype(np.float32).tolist() for v in vecs]}
    )
    ds = rd.from_pandas(df)
    exact = {
        (r["id_a"], r["id_b"])
        for r in embedding_near_dup(ds, df, threshold_e4=9900).take_all()
    }
    approx = {
        (r["id_a"], r["id_b"])
        for r in lsh_bucket_pairs(ds, n_planes=8, threshold_e4=9900).take_all()
    }
    assert approx <= exact  # verified inside buckets -> no false positives
    assert len(exact) == 40
    recall = len(approx & exact) / len(exact)
    assert recall >= 0.8  # 8 planes, cosine 0.995 -> near-certain same bucket


def test_embedding_near_dup_broadcast_guard(ray_session):
    """The exact tier refuses a broadcast side above its row budget and
    names the bucketed scale path in the error."""
    import pytest
    import ray.data as rd

    from ocr_suite_ray.stages.similarity import embedding_near_dup

    df = pd.DataFrame(
        {"vec_id": range(4), "embedding": [[1.0, 0.0]] * 4}
    )
    ds = rd.from_pandas(df)
    with pytest.raises(ValueError, match="lsh_bucket_pairs"):
        embedding_near_dup(ds, df, max_broadcast_rows=3)
    # at the budget it still runs
    got = embedding_near_dup(ds, df, max_broadcast_rows=4).take_all()
    assert len(got) == 6  # all 4 identical vectors pair up


def test_rows_only_queries_run(ray_session):
    """Every rows-only queries() entry executes and returns plausible rows."""
    from ocr_suite_ray.pipelines.queries import ALL_QUERIES

    sf = "/root/testdata/sf0.001"
    for name, (fn, sql) in ALL_QUERIES.items():
        if sql is not None:
            continue
        res = fn(sf)
        rows = res.take_all() if hasattr(res, "take_all") else res.to_pylist()
        assert isinstance(rows, list), name


def test_ivf_knn_recall_vs_brute(ray_session):
    """IVF approximate top-k must reach high recall vs the exact brute-force
    result at nprobe/n_lists that search a quarter of the lists."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from ocr_suite_ray.stages.similarity import ivf_knn, knn_brute

    sf = "/root/testdata/sf0.01"
    ds = rd.read_parquet(f"{sf}/embeddings.parquet", columns=["vec_id", "embedding"])
    qdf = (
        pq.read_table(f"{sf}/embeddings.parquet", columns=["vec_id", "embedding"])
        .to_pandas()
        .query("vec_id < 4")
        .rename(columns={"vec_id": "query_id"})
        .reset_index(drop=True)
    )
    exact = knn_brute(ds, qdf, k=10, scale=4).take_all()
    approx = ivf_knn(ds, qdf, k=10, n_lists=16, nprobe=8).take_all()
    exact_set = {(r["query_id"], r["vec_id"]) for r in exact}
    approx_set = {(r["query_id"], r["vec_id"]) for r in approx}
    recall = len(exact_set & approx_set) / len(exact_set)
    # these embeddings are near-isotropic (max pairwise cosine ~0.5), the
    # hardest case for IVF — half the lists probed must still recall most
    assert recall >= 0.75
    # determinism across partitioning
    approx2 = ivf_knn(ds.repartition(5), qdf, k=10, n_lists=16, nprobe=8).take_all()
    key = lambda r: (r["query_id"], r["vec_id"])
    assert sorted(approx, key=key) == sorted(approx2, key=key)


def test_scrub_patterns_redacts_pii(ray_session):
    """Crafted payloads (the sf corpus has no PII): emails and phones are
    redacted with labels, counts measured on the original text."""
    import ray.data as rd

    from ocr_suite_ray.stages.text_ops import PII_PATTERNS, scrub_patterns

    rows = [
        {"id": 0, "text": "contact bob.smith+x@ex-ample.org or call +1 (415) 555-0199 now"},
        {"id": 1, "text": "no pii here at all"},
        {"id": 2, "text": "two mails a@b.co c@d.io and 12345678901"},
    ]
    out = {
        r["id"]: r
        for r in scrub_patterns(
            rd.from_items(rows), "text", PII_PATTERNS
        ).take_all()
    }
    assert out[0]["n_email"] == 1 and out[0]["n_phone"] == 1
    assert "<EMAIL>" in out[0]["text_scrubbed"]
    assert "<PHONE>" in out[0]["text_scrubbed"]
    assert "bob.smith" not in out[0]["text_scrubbed"]
    assert "555" not in out[0]["text_scrubbed"]
    assert out[1]["n_email"] == out[1]["n_phone"] == out[1]["n_num"] == 0
    assert out[1]["text_scrubbed"] == "no pii here at all"
    assert out[2]["n_email"] == 2
    assert out[2]["text_scrubbed"].count("<EMAIL>") == 2


def test_assign_split_fractions_and_determinism(ray_session):
    import ray.data as rd

    from ocr_suite_ray.stages.text_ops import assign_split

    ds = rd.range(5000).map_batches(
        lambda df: df.rename(columns={"id": "doc_id"}), batch_format="pandas"
    )
    a = assign_split(ds, "doc_id").to_pandas().sort_values("doc_id")
    b = assign_split(ds.repartition(17), "doc_id").to_pandas().sort_values("doc_id")
    assert list(a["split"]) == list(b["split"]), "parallelism-invariant"
    frac = a["split"].value_counts(normalize=True)
    assert 0.75 < frac["train"] < 0.85
    assert 0.07 < frac["val"] < 0.13
    assert 0.07 < frac["test"] < 0.13


def test_simhash_batch_matches_scalar():
    from ocr_suite_ray.stages.dedup_text import simhash64, simhash64_batch

    texts = [
        "the quick brown fox jumps over the lazy dog",
        "",
        "a",
        "repeat repeat repeat repeat repeat",
        "unicode tést éléments here now",
        " leading and  double  spaces ",
    ] + [f"doc {i} filler words vary {i * 7 % 13}" for i in range(50)]
    got = simhash64_batch(texts)
    want = [simhash64(t) for t in texts]
    assert [int(x) for x in got] == want


def test_normalize_urls_rules(ray_session):
    import ray.data as rd

    from ocr_suite_ray.stages.text_ops import normalize_urls

    cases = [
        ("HTTPS://WWW.Example.COM/Page?a=1#frag", "https://www.example.com/Page?a=1"),
        ("http://x.io/p?utm_source=a&b=2&utm_campaign=c", "http://x.io/p?b=2"),
        ("http://x.io/p?utm_source=a", "http://x.io/p"),
        ("relative/path?utm_x=1", "relative/path"),
        ("FTP://Host/File.TXT", "ftp://host/File.TXT"),
        ("plain text no url", "plain text no url"),
        # a non-utm param whose NAME contains "utm_" must survive intact
        ("http://x.io/p?xutm_a=1&b=2", "http://x.io/p?xutm_a=1&b=2"),
        ("http://x.io/p?a=1&xutm_b=2&utm_c=3", "http://x.io/p?a=1&xutm_b=2"),
        # consecutive utm params clear in one pass
        ("http://x.io/p?utm_a=1&utm_b=2&c=3", "http://x.io/p?c=3"),
        ("http://x.io/p?utm_a=1&utm_b=2", "http://x.io/p"),
    ]
    rows = [{"i": i, "url": u} for i, (u, _) in enumerate(cases)]
    out = {r["i"]: r["url_norm"] for r in normalize_urls(rd.from_items(rows), "url").take_all()}
    for i, (_, want) in enumerate(cases):
        assert out[i] == want, (i, out[i], want)


# ---------------------------------------------------------------------------
# substring_dup_pairs (exact shared-substring anchors)
# ---------------------------------------------------------------------------

def _substr_corpus():
    """Three docs share an exact 120-char block; others are unrelated; one
    doc is shorter than k and must be ignored."""
    r = random.Random(11)
    shared = "".join(r.choice("abcdefgh ") for _ in range(120))
    rows = []
    for did in range(3):
        pre = "".join(r.choice("stuvwxyz ") for _ in range(40 * (did + 1)))
        post = "".join(r.choice("ijklmnop ") for _ in range(60))
        rows.append({"doc_id": did, "text": pre + shared + post})
    for did in range(3, 8):
        rows.append(
            {"doc_id": did, "text": "".join(r.choice("qrs tuv") for _ in range(300))}
        )
    rows.append({"doc_id": 8, "text": "too short"})
    return pd.DataFrame(rows)


def _substr_oracle(df, k=40, modulus=16):
    """Exact per-doc winnowed anchor sets -> pair counts, pure Python."""
    from ocr_suite_ray.stages.dedup_text import _substr_pows

    pows = _substr_pows(k)
    anchors = {}
    for r in df.itertuples():
        t = r.text
        if len(t) < k:
            continue
        sel = set()
        for s in range(len(t) - k + 1):
            h = 0
            for j in range(k):
                h = (h + ord(t[s + j]) * int(pows[j])) % (1 << 64)
            if h % modulus == 0:
                sel.add(t[s : s + k])
        anchors[r.doc_id] = sel
    want = {}
    ids = sorted(anchors)
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            n = len(anchors[ids[i]] & anchors[ids[j]])
            if n:
                want[(ids[i], ids[j])] = n
    return want


def test_substring_dup_pairs_matches_exact_oracle(ray_session):
    import ray.data as rd

    from ocr_suite_ray.stages.dedup_text import substring_dup_pairs

    df = _substr_corpus()
    want = _substr_oracle(df)
    # the shared 120-char block must contribute anchors for all 3 pairs
    assert all((a, b) in want for a in range(3) for b in range(a + 1, 3))
    got = {
        (r["id_a"], r["id_b"]): r["n_shared"]
        for r in substring_dup_pairs(rd.from_pandas(df)).take_all()
    }
    assert got == want


def test_substring_dup_pairs_partition_invariant(ray_session):
    import ray.data as rd

    from ocr_suite_ray.stages.dedup_text import substring_dup_pairs

    df = _substr_corpus()
    key = lambda r: (r["id_a"], r["id_b"], r["n_shared"])
    a = sorted(substring_dup_pairs(rd.from_pandas(df)).take_all(), key=key)
    b = sorted(
        substring_dup_pairs(rd.from_pandas(df).repartition(5)).take_all(), key=key
    )
    assert a == b and len(a) >= 3


def test_ngram_jaccard_fast_parity(ray_session):
    """gram_hash='fast' (vectorized hash-array intersections) matches the
    exact gram-string kernel pair-for-pair, including the e4 values."""
    import ray.data as rd

    from ocr_suite_ray.stages.dedup_text import ngram_jaccard_pairs

    rng = np.random.RandomState(5)
    words = [f"w{i}" for i in range(30)]
    rows = []
    for i in range(60):
        t = " ".join(rng.choice(words, rng.randint(1, 80)))
        rows.append((i, i % 4, t))
        if i % 5 == 0:
            rows.append((i + 500, i % 4, t + " extra tail"))
    df = pd.DataFrame(rows, columns=["doc_id", "source", "text"])
    ds = rd.from_pandas(df)
    a = (
        ngram_jaccard_pairs(ds, threshold_e4=2000)
        .to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)
    )
    b = (
        ngram_jaccard_pairs(ds.repartition(5), threshold_e4=2000, gram_hash="fast")
        .to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)
    )
    assert len(a) > 0
    pd.testing.assert_frame_equal(a, b)


def test_rolling_win_hashes_matches_matmul():
    """The O(len) telescoped rolling hash is value-identical to the
    O(len*k) sliding-window matmul it replaced (anchor selection, and
    therefore every substring_dup_pairs result, is unchanged)."""
    from ocr_suite_ray.stages.dedup_text import _rolling_win_hashes, _substr_pows

    rng = np.random.RandomState(3)
    for n, k in [(39, 40), (40, 40), (41, 40), (500, 40), (64, 7)]:
        codes = rng.randint(0, 1 << 20, size=n).astype(np.uint64)
        got = _rolling_win_hashes(codes, k)
        if n < k:
            assert len(got) == 0
            continue
        win = np.lib.stride_tricks.sliding_window_view(codes, k)
        with np.errstate(over="ignore"):
            ref = (win * _substr_pows(k)[None, :]).sum(axis=1, dtype=np.uint64)
        assert np.array_equal(ref, got)


def test_substring_dup_pairs_hash64_parity(ray_session):
    """gram_key='hash64' (the 100 TB exchange: int64 anchor hashes instead
    of 40-char gram strings) produces the same pairs and counts as the
    exact-string oracle path on a corpus with real shared blocks."""
    import ray.data as rd

    from ocr_suite_ray.stages.dedup_text import substring_dup_pairs

    df = _substr_corpus()
    key = lambda r: (r["id_a"], r["id_b"], r["n_shared"])
    a = sorted(substring_dup_pairs(rd.from_pandas(df)).take_all(), key=key)
    b = sorted(
        substring_dup_pairs(
            rd.from_pandas(df).repartition(4), gram_key="hash64"
        ).take_all(),
        key=key,
    )
    assert a == b and len(a) >= 3


# ---------------------------------------------------------------------------
# semantic_dedup (SemDeDup: cluster -> within-cluster cosine components)
# ---------------------------------------------------------------------------

def _semdedup_corpus(n_groups=6, dup_per_group=3, dim=16, seed=3):
    """Well-separated base directions, each with near-identical copies
    (tiny noise) — every group must collapse to its min id."""
    rng = np.random.RandomState(seed)
    base = rng.normal(size=(n_groups, dim))
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    rows = []
    vid = 0
    for g in range(n_groups):
        for _ in range(dup_per_group):
            v = base[g] + rng.normal(scale=0.005, size=dim)
            rows.append({"vec_id": vid, "embedding": v.astype(float).tolist()})
            vid += 1
    return pd.DataFrame(rows)


def test_semantic_dedup_collapses_planted_groups(ray_session):
    import ray.data as rd

    from ocr_suite_ray.stages.similarity import semantic_dedup

    df = _semdedup_corpus()
    out = (
        semantic_dedup(rd.from_pandas(df), threshold_e4=9900, n_clusters=6,
                       train_sample=len(df))
        .to_pandas().sort_values("vec_id").reset_index(drop=True)
    )
    assert len(out) == len(df)  # one row per input, none lost
    # no cross-group merge, ever: inter-group cosine is far below the
    # threshold regardless of how k-means carved the space
    assert (out.rep_id // 3 == out.vec_id // 3).all()
    # differential oracle: GIVEN the produced cluster assignment, the rep
    # must equal union-find over within-cluster >= tau pairs (this is the
    # exact semantics; group recall depends on clustering, which is the
    # documented SemDeDup approximation)
    vecs = np.stack([np.asarray(v) for v in df.embedding])
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    for _c, g in out.groupby("cluster"):
        ids = g.vec_id.to_numpy()
        m = vecs[ids]
        e4 = np.floor((m @ m.T) * 10000 + 0.5).astype(np.int64)
        parent = {int(i): int(i) for i in ids}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                if e4[i, j] >= 9900:
                    ra, rb = find(int(ids[i])), find(int(ids[j]))
                    if ra != rb:
                        parent[max(ra, rb)] = min(ra, rb)
        for r in g.itertuples():
            assert find(int(r.vec_id)) == r.rep_id
    # the planted copies are tight enough that most collapse even under
    # imperfect clustering
    assert int(out.is_dup.sum()) >= 8


def test_semantic_dedup_partition_invariant(ray_session):
    import ray.data as rd

    from ocr_suite_ray.stages.similarity import semantic_dedup

    df = _semdedup_corpus()
    kw = dict(threshold_e4=9900, n_clusters=6, train_sample=len(df))
    a = (semantic_dedup(rd.from_pandas(df), **kw)
         .to_pandas().sort_values("vec_id").reset_index(drop=True))
    b = (semantic_dedup(rd.from_pandas(df).repartition(5), **kw)
         .to_pandas().sort_values("vec_id").reset_index(drop=True))
    assert a.equals(b)


def test_substring_dup_pairs_unicode_parity(ray_session):
    """Non-ASCII text: the numpy utf-32 codepoint kernel, the pure-python
    ord() oracle, and the DuckDB unicode() oracle must agree."""
    import duckdb
    import ray.data as rd

    from ocr_suite_ray.pipelines.queries_ml import SQL_SUBSTRING_DUP
    from ocr_suite_ray.stages.dedup_text import substring_dup_pairs

    # non-periodic multibyte block (a repeated short phrase has only
    # period-many distinct windows, which can all miss the mod-16 anchor)
    r = random.Random(2)
    alphabet = "héllowörld中文データ処理абвгд αβγδε "
    shared = "".join(r.choice(alphabet) for _ in range(160))
    df = pd.DataFrame(
        {
            "doc_id": [0, 1, 2],
            "text": [
                "prefix àçcénts " + shared + " suffix",
                shared + " épilogue différent",
                "no overlap here at âll — これは別の文書です " * 3,
            ],
        }
    )
    want = _substr_oracle(df)
    assert (0, 1) in want  # the shared block actually anchors
    got = {
        (r["id_a"], r["id_b"]): r["n_shared"]
        for r in substring_dup_pairs(rd.from_pandas(df)).take_all()
    }
    assert got == want
    con = duckdb.connect()
    con.register("documents", df)
    sql_rows = {
        (a, b): n for a, b, n in con.execute(SQL_SUBSTRING_DUP).fetchall()
    }
    assert sql_rows == want


def test_minhash_max_bucket_skips_mega_buckets(ray_session):
    """max_bucket skips quadratic pairing inside pathological LSH buckets
    (mass near-identical docs); distinct pairs elsewhere still surface."""
    import pandas as pd
    import ray.data as rd

    from ocr_suite_ray.stages.dedup_text import minhash_lsh_pairs

    # 40 identical docs (one mega-bucket) + 2 near-dup docs
    base = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    docs = [base] * 40 + [
        "red green blue cyan magenta yellow black white gray pink",
        "red green blue cyan magenta yellow black white gray purple",
    ]
    df = pd.DataFrame({"doc_id": range(len(docs)), "text": docs})
    capped = minhash_lsh_pairs(
        rd.from_pandas(df).repartition(3), max_bucket=8
    )
    cp = capped.to_pandas()
    pairs = set(zip(cp["id_a"], cp["id_b"]))
    assert (40, 41) in pairs                    # small bucket still pairs
    assert not any(a < 40 and b < 40 for a, b in pairs)  # mega-bucket skipped


def test_simhash_max_bucket_skips_mega_buckets(ray_session):
    """simhash_pairs(max_bucket=...) mirrors the minhash cap: quadratic
    pairing skips chunk buckets above the cap (mass-identical docs), while
    small-bucket pairs still surface."""
    import pandas as pd
    import ray.data as rd

    from ocr_suite_ray.stages.dedup_text import simhash_pairs

    base = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    docs = [base] * 40 + [
        "red green blue cyan magenta yellow black white gray pink",
        "red green blue cyan magenta yellow black white gray pink",
    ]
    df = pd.DataFrame({"doc_id": range(len(docs)), "text": docs})
    cp = simhash_pairs(rd.from_pandas(df).repartition(3), max_bucket=8).to_pandas()
    pairs = set(zip(cp["id_a"], cp["id_b"]))
    assert (40, 41) in pairs                             # small bucket pairs
    assert not any(a < 40 and b < 40 for a, b in pairs)  # mega-bucket skipped
    uncapped = simhash_pairs(rd.from_pandas(df)).to_pandas()
    up = set(zip(uncapped["id_a"], uncapped["id_b"]))
    assert any(a < 40 and b < 40 for a, b in up)  # default enumerates all
    # whatever the capped run emits must be a subset of the uncapped truth
    assert pairs <= up


def test_substring_max_gram_docs_caps_boilerplate(ray_session):
    """substring_dup_pairs(max_gram_docs=...) drops ultra-common anchor
    grams (template boilerplate / mass dups) from quadratic pairing."""
    import pandas as pd
    import ray.data as rd

    from ocr_suite_ray.stages.dedup_text import substring_dup_pairs

    shared = "the quick brown fox jumps over the lazy dog again and again forever "
    rare = "completely unique sentinel block that only two documents carry here "
    docs = [shared * 3 + f"tail {i}" for i in range(30)]
    docs += [rare * 3 + " one", rare * 3 + " two"]
    df = pd.DataFrame({"doc_id": range(len(docs)), "text": docs})
    capped = substring_dup_pairs(
        rd.from_pandas(df).repartition(3), max_gram_docs=8
    ).to_pandas()
    pairs = set(zip(capped["id_a"], capped["id_b"]))
    assert (30, 31) in pairs                   # rare-gram pair survives
    assert not any(a < 30 and b < 30 for a, b in pairs)  # boilerplate capped
    full = substring_dup_pairs(rd.from_pandas(df)).to_pandas()
    fp = set(zip(full["id_a"], full["id_b"]))
    assert any(a < 30 and b < 30 for a, b in fp)  # default enumerates all
    assert pairs <= fp


def test_batched_band_rows_match_scalar_signatures(ray_session):
    """The batched MinHash kernel must reproduce the scalar
    _minhash_sig(_shingles(t)) banding bit-for-bit, including short docs
    (< k words), empty string, unicode, and heavy gram repetition."""
    import hashlib as hl

    import pandas as pd
    import ray.data as rd

    from ocr_suite_ray.stages.dedup_text import (
        LSH_BANDS,
        ROWS_PER_BAND,
        _minhash_sig,
        _shingles,
        minhash_lsh_pairs,
    )

    docs = [
        "the quick brown fox jumps over the lazy dog",
        "the quick brown fox jumps over the lazy cat",
        "short",
        "two words",
        "",
        "naïve café déjà vu naïve café déjà vu naïve café",
        "naïve café déjà vu naïve café déjà vu naïve cafe",
        "a a a a a a a a a a a a",
    ]
    df = pd.DataFrame({"doc_id": range(len(docs)), "text": docs})

    # scalar reference: bucket by exact band tuples, verify with exact jaccard
    sigs = {i: _minhash_sig(_shingles(t, 3)) for i, t in zip(df.doc_id, df.text)}
    buckets: dict = {}
    for i, sig in sigs.items():
        for b in range(LSH_BANDS):
            key = (b, tuple(sig[b * ROWS_PER_BAND : (b + 1) * ROWS_PER_BAND]))
            buckets.setdefault(key, []).append(i)
    cand = set()
    for ids in buckets.values():
        for x in range(len(ids)):
            for y in range(x + 1, len(ids)):
                cand.add((min(ids[x], ids[y]), max(ids[x], ids[y])))
    want = set()
    shs = {i: _shingles(t, 3) for i, t in zip(df.doc_id, df.text)}
    from ocr_suite_ray.stages.dedup_text import jaccard

    for a, b in cand:
        if int(jaccard(shs[a], shs[b]) * 10000 + 0.5) >= 5000:
            want.add((a, b))

    got = minhash_lsh_pairs(rd.from_pandas(df).repartition(3)).to_pandas()
    assert set(zip(got.id_a, got.id_b)) == want


def test_semantic_dedup_slab_equivalence_and_pair_cap(ray_session):
    """The chunked pair scan (pair_chunk smaller than the cluster) must be
    bit-identical to the one-shot matmul, and max_pairs must raise on a
    mega-cluster instead of silently going quadratic."""
    import pytest
    import ray.data as rd

    from ocr_suite_ray.stages.similarity import semantic_dedup

    df = _semdedup_corpus()
    kw = dict(threshold_e4=9900, n_clusters=6, train_sample=len(df))
    a = (semantic_dedup(rd.from_pandas(df), **kw)
         .to_pandas().sort_values("vec_id").reset_index(drop=True))
    b = (semantic_dedup(rd.from_pandas(df), pair_chunk=2, **kw)
         .to_pandas().sort_values("vec_id").reset_index(drop=True))
    assert a.equals(b)

    with pytest.raises(Exception, match="max_pairs"):
        semantic_dedup(
            rd.from_pandas(df), n_clusters=1, max_pairs=3, train_sample=len(df)
        ).materialize()


def test_minhash_fast_gram_hash_path(ray_session):
    """gram_hash='fast' (md5-free engine path): exact verification makes
    false positives impossible and the planted near-identical pairs must
    still surface; the result is deterministic and partition-invariant."""
    import ray.data as rd

    from ocr_suite_ray.stages.dedup_text import (
        _distinct_word_kgrams,
        jaccard,
        minhash_lsh_pairs,
    )

    rng = np.random.RandomState(7)
    vocab = [f"w{i}" for i in range(500)]
    docs = []
    for i in range(40):
        docs.append(" ".join(rng.choice(vocab, 60)))
    for i in range(0, 40, 4):  # plant near-dups: one word changed
        w = docs[i].split(" ")
        w[10] = "CHANGED"
        docs.append(" ".join(w))
    df = pd.DataFrame({"doc_id": range(len(docs)), "text": docs})

    got = (
        minhash_lsh_pairs(rd.from_pandas(df).repartition(3), gram_hash="fast")
        .to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)
    )
    # no false positives: every emitted pair really has jaccard >= 0.5
    shs = {i: set(_distinct_word_kgrams(t, 3)) for i, t in zip(df.doc_id, df.text)}
    for r in got.itertuples():
        assert jaccard(shs[r.id_a], shs[r.id_b]) >= 0.5
        assert r.id_a < r.id_b
    # recall: the planted pairs have jaccard ~0.9 — banding recall there is
    # ~1-1e-4 per pair; all 10 must surface
    planted = {(i, 40 + i // 4) for i in range(0, 40, 4)}
    assert planted <= set(zip(got.id_a, got.id_b))
    # partition invariance
    again = (
        minhash_lsh_pairs(rd.from_pandas(df).repartition(7), gram_hash="fast")
        .to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)
    )
    assert got.equals(again)


def test_fast_gram_hashes_short_and_window_rows():
    """The md5-free gram hasher: window count/row attribution matches the
    string-building kernel; short rows (< k words) get exactly one gram."""
    import pyarrow as pa

    from ocr_suite_ray.stages.contamination import _word_ngrams
    from ocr_suite_ray.stages.dedup_text import _fast_gram_hashes

    texts = ["a b c d e", "hi", "", "x y z", "p q"]
    rows_f, h_f = _fast_gram_hashes(pa.array(texts), 3)
    rows_s, grams_s = _word_ngrams(pa.array(texts), 3)
    import collections

    n_f = collections.Counter(rows_f.tolist())
    n_s = collections.Counter(rows_s.tolist())
    # window rows agree with the string kernel; short rows add one gram
    for r, txt in enumerate(texts):
        want = n_s.get(r, 0) if len(txt.split(" ")) >= 3 else 1
        assert n_f[r] == want, (r, txt)
    # identical short texts hash identically; distinct ones differ
    rows2, h2 = _fast_gram_hashes(pa.array(["hi", "hi", "yo"]), 3)
    assert h2[0] == h2[1] != h2[2]


def test_cross_corpus_dedup_removes_ref_texts(ray_session):
    import ray.data as rd

    from ocr_suite_ray.stages.dedup_text import cross_corpus_dedup

    a = rd.from_items(
        [
            {"doc_id": 1, "text": "shared text one"},
            {"doc_id": 2, "text": "unique to a"},
            {"doc_id": 3, "text": "shared text two"},
            {"doc_id": 4, "text": "also only in a"},
        ]
    )
    b = rd.from_items(
        [
            {"doc_id": 100, "text": "shared text one"},
            {"doc_id": 101, "text": "shared text two"},
            {"doc_id": 102, "text": "only in b"},
        ]
    )
    kept = sorted(r["doc_id"] for r in cross_corpus_dedup(a, b).take_all())
    assert kept == [2, 4]

    # empty reference corpus: A passes through untouched
    empty = rd.from_items([{"doc_id": 0, "text": "x"}]).filter(
        lambda r: False
    )
    kept_all = sorted(r["doc_id"] for r in cross_corpus_dedup(a, empty).take_all())
    assert kept_all == [1, 2, 3, 4]

    # above the broadcast budget, 'auto' routes to the digest-shuffle tier
    # and yields the identical result
    kept_shuffle = sorted(
        r["doc_id"]
        for r in cross_corpus_dedup(a, b, max_broadcast_rows=2).take_all()
    )
    assert kept_shuffle == [2, 4]
    kept_forced = sorted(
        r["doc_id"] for r in cross_corpus_dedup(a, b, route="shuffle").take_all()
    )
    assert kept_forced == [2, 4]

    # pinned broadcast route keeps the raising contract; bad route fails fast
    import pytest as _pytest

    with _pytest.raises(ValueError, match="broadcast tier"):
        cross_corpus_dedup(
            a, b, max_broadcast_rows=2, route="broadcast"
        ).take_all()
    with _pytest.raises(ValueError, match="route must be"):
        cross_corpus_dedup(a, b, route="bogus")


def test_cross_corpus_near_dup_flags_only_cross_pairs(ray_session):
    import numpy as np
    import ray.data as rd

    from ocr_suite_ray.stages.dedup_text import (
        _shingles,
        cross_corpus_near_dup,
        jaccard,
    )

    base = "the quick brown fox jumps over the lazy dog near the river bank"
    near = base + " today"          # near-dup of base
    base2 = "completely different words fill this second document entirely now"
    a_rows = [
        {"doc_id": 1, "text": base},         # near-dups B:100
        {"doc_id": 2, "text": base2},        # unique
        {"doc_id": 3, "text": near},         # near-dups B:100 AND A:1
        {"doc_id": 4, "text": "tiny"},       # short-text path
    ]
    b_rows = [
        {"doc_id": 100, "text": base + " yesterday"},
        {"doc_id": 101, "text": "held corpus only content right here"},
        {"doc_id": 4, "text": "tiny"},       # id COLLIDES with A:4 on purpose
    ]
    got = (
        cross_corpus_near_dup(
            rd.from_items(a_rows), rd.from_items(b_rows), threshold=0.5
        )
        .to_pandas()
        .sort_values(["id_a", "id_b"])
        .reset_index(drop=True)
    )
    # brute-force oracle: every cross pair with exact Jaccard >= 0.5
    # (LSH recall over >=0.5 pairs at 32x4 bands is ~certain at this sim)
    expect = []
    for ra in a_rows:
        for rb in b_rows:
            jac = jaccard(_shingles(ra["text"]), _shingles(rb["text"]))
            if jac >= 0.5:
                expect.append(
                    (ra["doc_id"], rb["doc_id"],
                     int(np.floor(jac * 10000 + 0.5)))
                )
    expect.sort()
    assert list(map(tuple, got.to_numpy())) == expect
    # within-side pairs (A:1~A:3) must NOT appear even though they band
    # together, and the A:4/B:4 id collision resolves to a cross pair
    assert (4, 4) in {(x, y) for x, y, _ in expect}

    # fast gram hash route: same verified pair IDS (verification is exact
    # either way; banding family differs but recall at this sim is certain)
    got_fast = (
        cross_corpus_near_dup(
            rd.from_items(a_rows), rd.from_items(b_rows),
            threshold=0.5, gram_hash="fast",
        )
        .to_pandas()
        .sort_values(["id_a", "id_b"])
        .reset_index(drop=True)
    )
    assert list(map(tuple, got_fast.to_numpy())) == expect

    with __import__("pytest").raises(ValueError, match="pair_scope"):
        from ocr_suite_ray.stages.dedup_text import minhash_lsh_pairs

        minhash_lsh_pairs(rd.from_items(a_rows), pair_scope="bogus")


def test_dup_span_scrub_semantics(ray_session):
    """Planted cases: a 3-gram shared by two docs is scrubbed from both;
    a WITHIN-doc self-repeat counts toward min_count; short (<k) and
    unique docs pass through byte-identical; a fully-duplicated doc
    scrubs to ''."""
    import ray.data as rd

    from ocr_suite_ray.stages.dedup_text import dup_span_scrub

    rows = [
        # docs 0/1 share "p q r" (positions differ); rest unique
        {"doc_id": 0, "text": "a b p q r c d"},
        {"doc_id": 1, "text": "p q r x y z w"},
        # doc 2 repeats "m n o" within itself -> both copies scrubbed
        {"doc_id": 2, "text": "m n o u m n o"},
        # doc 3: shorter than k, untouched even though words overlap others
        {"doc_id": 3, "text": "p q"},
        # doc 4: entirely one dup gram (matches doc 5) -> ''
        {"doc_id": 4, "text": "g h i"},
        {"doc_id": 5, "text": "g h i"},
        # doc 6: unique long doc, untouched
        {"doc_id": 6, "text": "one two three four five six"},
    ]
    got = {
        r["doc_id"]: (r["text"], r["n_kept"], r["n_removed"])
        for r in dup_span_scrub(rd.from_items(rows), k=3).take_all()
    }
    assert got[0] == ("a b c d", 4, 3)
    assert got[1] == ("x y z w", 4, 3)
    assert got[2] == ("u", 1, 6)
    assert got[3] == ("p q", 2, 0)
    assert got[4] == ("", 0, 3)
    assert got[5] == ("", 0, 3)
    assert got[6] == ("one two three four five six", 6, 0)


def test_dup_span_scrub_hash64_parity_and_guard(ray_session):
    """hash64 mode reproduces the exact-mode output on sf-scale text (no
    64-bit collisions at this cardinality), independent of partitioning;
    the broadcast budget guard raises naming the successors."""
    import pytest
    import ray.data as rd

    from ocr_suite_ray.stages.dedup_text import dup_span_scrub

    ds = rd.read_parquet(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text"]
    )
    want = (
        dup_span_scrub(ds, k=3)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    got = (
        dup_span_scrub(ds.repartition(7), k=3, gram_key="hash64")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert got.equals(want)
    assert (want["n_removed"] > 0).any()  # the corpus actually has dups

    # gram-space sharding (the bounded-disk count pass) is invariant:
    # same dup set, same output, in both gram_key modes and min_count > 2
    for kw in (
        {"gram_key": "hash64", "num_shards": 3},
        {"gram_key": "exact", "num_shards": 2},
    ):
        sharded = (
            dup_span_scrub(ds, k=3, **kw)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        assert sharded.equals(want), kw
    w3 = dup_span_scrub(ds, k=3, min_count=3).to_pandas().sort_values("doc_id")
    s3 = (
        dup_span_scrub(ds, k=3, min_count=3, num_shards=2)
        .to_pandas()
        .sort_values("doc_id")
    )
    assert s3.reset_index(drop=True).equals(w3.reset_index(drop=True))

    with pytest.raises(ValueError, match="hash64"):
        dup_span_scrub(ds, k=3, max_broadcast_rows=1).take_all()
    with pytest.raises(ValueError, match="gram_key"):
        dup_span_scrub(ds, gram_key="bogus")


def test_dup_span_scrub_budget_raises_before_driver_fetch(
    ray_session, monkeypatch
):
    """The max_broadcast_rows guard exists so an oversized dup-gram table
    never reaches the driver: the count runs in a task and the raise comes
    first. Spies on the driver's ray.get — no fetched value may be the
    merged gram table."""
    import pyarrow as pa
    import pytest
    import ray
    import ray.data as rd

    from ocr_suite_ray.stages.dedup_text import dup_span_scrub

    text = "alpha beta gamma delta epsilon zeta eta theta"
    ds = rd.from_arrow(pa.table({"doc_id": [1, 2, 3], "text": [text] * 3}))
    fetched = []
    real_get = ray.get

    def spy(refs, *a, **kw):
        out = real_get(refs, *a, **kw)
        for v in out if isinstance(out, list) else [out]:
            if isinstance(v, pa.Table) and "gram" in v.column_names:
                fetched.append(v.num_rows)
        return out

    monkeypatch.setattr(ray, "get", spy)
    with pytest.raises(ValueError, match="row budget"):
        dup_span_scrub(ds, k=3, max_broadcast_rows=1)
    assert fetched == []
    # within budget the table is fetched once, to be re-put driver-owned
    got = dup_span_scrub(ds, k=3).to_pandas()
    assert fetched == [6] and (got["n_removed"] == 8).all()


def test_extract_hosts_rules():
    """Port strip, www strip, lowercasing, tld label, unparseable -> ''."""
    import pyarrow as pa

    from ocr_suite_ray.stages.text_ops import extract_hosts

    urls = pa.array(
        [
            "https://WWW.Example.COM:8080/p/1",
            "http://sub.site.org/x?q=1",
            "ftp://Host9/",
            "not a url",
            "https://www9.example.net/",  # www9 is a real label, not www.
        ],
        pa.large_string(),
    )
    host, tld = extract_hosts(urls)
    assert host.to_pylist() == [
        "example.com", "sub.site.org", "host9", "", "www9.example.net",
    ]
    assert tld.to_pylist() == ["com", "org", "host9", "", "net"]


def test_host_stats_counts_only(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from ocr_suite_ray.stages.text_ops import host_stats

    t = pa.table(
        {
            "url": pa.array(
                [
                    "https://a.com/1", "https://a.com/2",
                    "https://www.a.com/3", "https://b.org/1",
                ]
            )
        }
    )
    got = (
        host_stats(rd.from_arrow(t), "url")
        .to_pandas()
        .sort_values("host")
        .reset_index(drop=True)
    )
    assert list(got.host) == ["a.com", "b.org"]
    assert list(got.n_docs) == [3, 1]
    assert list(got.tld) == ["com", "org"]
    assert "sum_weight" not in got.columns


def test_knn_local_combiner_rounded_tiebreak():
    """Score-tied rows (after e4 rounding) must keep the SMALLER id — the
    local combiner selects on the same rounded key the oracle orders by."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from ocr_suite_ray.stages.similarity import knn_brute

    v = [1.0, 0.0]
    # ids 9,3 identical vectors (exact tie); one distinct lower-score row
    t = pa.table({
        "vec_id": pa.array([9, 3, 7], pa.int64()),
        "embedding": pa.array([v, v, [0.0, 1.0]],
                              pa.list_(pa.float32())),
    })
    q = pd.DataFrame({"query_id": [0], "embedding": [np.array(v)]})
    out = knn_brute(rd.from_arrow(t), q, k=2).to_pandas()
    out = out.sort_values(["score_e6", "vec_id"],
                          ascending=[False, True]).reset_index(drop=True)
    assert out["vec_id"].tolist()[:2] == [3, 9]  # id 3 must survive


def test_lsh_infers_dim_and_chunked_verify():
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from ocr_suite_ray.stages.similarity import lsh_bucket_pairs

    rng = np.random.default_rng(3)
    base = rng.normal(size=128)
    rows = [base + rng.normal(scale=0.01, size=128) for _ in range(6)]
    t = pa.table({
        "vec_id": pa.array(range(6), pa.int64()),
        "embedding": pa.array([r.tolist() for r in rows],
                              pa.list_(pa.float32())),
    })
    # 128-dim with the default dim=None must work; tiny pair_chunk forces
    # multiple slabs through the chunked verify
    out = lsh_bucket_pairs(rd.from_arrow(t), threshold_e4=9000,
                           pair_chunk=2).to_pandas()
    assert len(out) == 15  # all C(6,2) near-identical pairs
    assert (out["id_a"] < out["id_b"]).all()


def test_dup_span_scrub_randomized_config_sweep(ray_session):
    """External-sort count exchange: randomized corpora x (slot count,
    fold budget, gram_key) grid must all equal a pure-Python oracle —
    the partition/shard/budget knobs are performance-only."""
    from collections import Counter

    import ray.data as rd

    from ocr_suite_ray.stages.dedup_text import dup_span_scrub

    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(12)]

    def _py_oracle(texts, k, min_count):
        toks = [t.split(" ") for t in texts]
        c = Counter()
        for ts in toks:
            for i in range(len(ts) - k + 1):
                c[tuple(ts[i:i + k])] += 1
        outs = []
        for ts in toks:
            cover = [False] * len(ts)
            for i in range(len(ts) - k + 1):
                if c[tuple(ts[i:i + k])] >= min_count:
                    for j in range(i, i + k):
                        cover[j] = True
            kept = [t for t, cv in zip(ts, cover) if not cv]
            outs.append((" ".join(kept), len(kept), len(ts) - len(kept)))
        return outs

    for trial in range(2):
        texts = [
            " ".join(rng.choice(vocab, size=rng.integers(3, 25)))
            for _ in range(60)
        ]
        k, mc = 3, int(rng.integers(2, 4))
        want = _py_oracle(texts, k, mc)
        df = pd.DataFrame({"doc_id": np.arange(60, dtype=np.int64),
                           "text": texts})
        for kw in (
            {"num_shards": 1},
            {"num_shards": 3, "fold_budget_bytes": 1},  # one fold per slot
            {"num_shards": 16},
            {"gram_key": "hash64", "num_shards": 5},
        ):
            got = (
                dup_span_scrub(
                    rd.from_pandas(df).repartition(4), k=k, min_count=mc, **kw
                )
                .to_pandas()
                .sort_values("doc_id")
                .reset_index(drop=True)
            )
            assert list(got["text"]) == [w[0] for w in want], (trial, kw)
            assert list(got["n_kept"]) == [w[1] for w in want], (trial, kw)
            assert list(got["n_removed"]) == [w[2] for w in want], (trial, kw)
