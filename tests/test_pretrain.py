"""End-to-end pre-training prep funnel: store -> clean -> gate -> dedup ->
decon -> host split -> packed token shards."""

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pytest
import ray.data as rd

from ocr_suite_ray.pipelines.extract import ExtractConfig, run_pipeline
from ocr_suite_ray.pipelines.pretrain import run_pretrain_prep
from ocr_suite_ray.sources.synthetic import generate_corpus
from ocr_suite_ray.sources.token_shards import read_token_shards

BASE = "/tmp/ocs_pretrain_test"


@pytest.fixture(scope="module")
def store():
    shutil.rmtree(BASE, ignore_errors=True)
    generate_corpus(f"{BASE}/pages", 600, seed=11, n_files=3)
    run_pipeline(f"{BASE}/pages", f"{BASE}/out",
                 ExtractConfig(wave_size=3, pool_size=4))
    return f"{BASE}/out/final"


def _eval_ds():
    # eval corpus sharing one doc's text guarantees a decon hit
    t = pads.dataset(f"{BASE}/out/final").to_table(columns=["text"])
    leak = t["text"][0].as_py()
    return rd.from_arrow(pa.table({"text": [leak, "benchmark eval prompt"]}))


def test_funnel_end_to_end(store):
    out = f"{BASE}/prep"
    s = run_pretrain_prep(store, out, eval_ds=_eval_ds(),
                          seq_len=64, seqs_per_shard=8)
    # funnel monotone: kept docs <= store rows; splits partition the kept set
    n_store = pads.dataset(store).to_table(columns=["url"]).num_rows
    assert 0 < s["docs_kept"] <= n_store
    assert sum(s["docs_per_split"].values()) == s["docs_kept"]
    # outputs exist and are readable
    clean = pads.dataset(os.path.join(out, "clean"), partitioning="hive").to_table()
    assert clean.num_rows == s["docs_kept"]
    # leakage-safety: every host in exactly one split
    import pandas as pd
    df = clean.select(["host", "split"]).to_pandas()
    assert (df.groupby("host")["split"].nunique() == 1).all()
    # dedup: cleaned text unique
    texts = pads.dataset(os.path.join(out, "clean"), partitioning="hive").to_table(
        columns=["text"]
    )["text"].to_pylist()
    assert len(texts) == len(set(texts))
    # decon: the leaked eval text is gone — compare in CLEANED space
    # (kept texts are lower+NFC+ws-collapsed)
    leak = _eval_ds().take(1)[0]["text"]
    leak_clean = " ".join(leak.lower().split())
    assert leak_clean not in texts
    # and the drop is attributable to decon: a no-eval run keeps more docs
    s_nodecon = run_pretrain_prep(store, f"{BASE}/prep_nodecon",
                                  seq_len=64, seqs_per_shard=8)
    assert s_nodecon["docs_kept"] > s["docs_kept"]
    # shards readable for the train split
    if s["shards"]["train"]["n_seqs"]:
        back = read_token_shards(os.path.join(out, "shards_train"))
        row = back.take(1)[0]
        assert len(row["ids"]) == 64


def test_rerun_is_deterministic_and_atomic(store):
    out = f"{BASE}/prep2"
    s1 = run_pretrain_prep(store, out, seq_len=64, seqs_per_shard=8)
    t1 = pads.dataset(os.path.join(out, "clean"), partitioning="hive").to_table().sort_by("url")
    s2 = run_pretrain_prep(store, out, seq_len=64, seqs_per_shard=8)
    t2 = pads.dataset(os.path.join(out, "clean"), partitioning="hive").to_table().sort_by("url")
    assert s1["docs_kept"] == s2["docs_kept"]
    assert t1.equals(t2)
    assert not os.path.exists(out + ".staging")
    assert not os.path.exists(out + ".old")


def _fake_store(path, texts):
    import pyarrow.parquet as pq

    os.makedirs(path, exist_ok=True)
    t = pa.table({
        "url": [f"https://h{i % 7}.example.com/p/{i}" for i in range(len(texts))],
        "text": pa.array(texts, pa.large_string()),
        "status": ["ok"] * len(texts),
    })
    pq.write_table(t, os.path.join(path, "part-0.parquet"))
    return path


def _gopher_ok_text(seed, n=60):
    # passes every Gopher rule: >=50 words, mean len 3-10, alphabetic,
    # two stopwords, no dominant token
    words = [f"word{seed}x{i}" for i in range(n - 4)]
    return " ".join(words + ["the", "a", "of", "to"])


def test_near_dup_minhash_mode(tmp_path):
    base = _gopher_ok_text("s").split()
    variant = list(base)
    variant[10] = "changedtoken"
    texts = [
        " ".join(base),
        " ".join(variant),          # near-dup of texts[0]
        _gopher_ok_text("zq"),      # unrelated survivor
    ]
    store = _fake_store(str(tmp_path / "final"), texts)

    out1 = str(tmp_path / "prep_exact")
    s1 = run_pretrain_prep(store, out1, seq_len=16, seqs_per_shard=4)
    assert s1["docs_kept"] == 3  # exact dedup keeps both near-dup variants

    out2 = str(tmp_path / "prep_fuzzy")
    s2 = run_pretrain_prep(store, out2, seq_len=16, seqs_per_shard=4,
                           near_dup="minhash")
    assert s2["docs_kept"] == 2  # one of the near-dup pair dropped
    texts_kept = pads.dataset(
        os.path.join(out2, "clean"), partitioning="hive"
    ).to_table(columns=["text"])["text"].to_pylist()
    # exactly ONE member of the near-dup pair survives (both contain
    # wordsx11; the unrelated doc does not), plus the unrelated doc
    assert sum("wordsx11" in x for x in texts_kept) == 1
    assert sum("wordzqx11" in x for x in texts_kept) == 1


def test_pct_validation_and_stale_old_recovery(tmp_path):
    store = _fake_store(str(tmp_path / "final"), [_gopher_ok_text("v")])
    with pytest.raises(ValueError):
        run_pretrain_prep(store, str(tmp_path / "p"), train_pct=98, val_pct=5)
    # stale .old from a crash inside a previous promote window must not
    # break the next promote
    out = str(tmp_path / "prep3")
    run_pretrain_prep(store, out, seq_len=16, seqs_per_shard=4)
    os.makedirs(out + ".old/junk", exist_ok=True)
    s = run_pretrain_prep(store, out, seq_len=16, seqs_per_shard=4)
    assert s["docs_kept"] == 1
    assert not os.path.exists(out + ".old")


def test_pretrain_multi_shard_identical(tmp_path, monkeypatch):
    """Pass A's keyed dup reduce at one shard and forced to several must
    give identical clean output."""
    from ocr_suite_ray.state import dupset

    texts = [_gopher_ok_text("a"), _gopher_ok_text("a"), _gopher_ok_text("b")]
    store = _fake_store(str(tmp_path / "final"), texts)
    s1 = run_pretrain_prep(store, str(tmp_path / "t"), seq_len=16,
                           seqs_per_shard=4)
    monkeypatch.setattr(dupset, "_ROWS_PER_SHARD", 1)  # k = 3 partial rows
    s2 = run_pretrain_prep(store, str(tmp_path / "s"), seq_len=16,
                           seqs_per_shard=4)
    assert s1["docs_kept"] == s2["docs_kept"] == 2  # dup pair collapsed
    t1 = pads.dataset(str(tmp_path / "t/clean"), partitioning="hive").to_table().sort_by("url")
    t2 = pads.dataset(str(tmp_path / "s/clean"), partitioning="hive").to_table().sort_by("url")
    assert t1.equals(t2)


def test_pretrain_multi_shard_dup_free_corpus(tmp_path, monkeypatch):
    """With several shards and no exact-duplicate cleaned texts (the
    common case post url-dedup) every shard root keeps no row and the
    winner ref RESOLVES to None — must run clean, not crash building the
    winner index."""
    from ocr_suite_ray.state import dupset

    texts = [_gopher_ok_text("a"), _gopher_ok_text("b"), _gopher_ok_text("c")]
    store = _fake_store(str(tmp_path / "final"), texts)
    monkeypatch.setattr(dupset, "_ROWS_PER_SHARD", 1)
    s = run_pretrain_prep(store, str(tmp_path / "out"), seq_len=16,
                          seqs_per_shard=4)
    assert s["docs_kept"] == 3
