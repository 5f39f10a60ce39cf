"""Segment ops: kernel edge cases, semantics, and partition invariance."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from ocr_suite_ray.stages.segments import (
    paragraph_dedup,
    rejoin_segments,
    segment_dedup_within,
    segment_table,
    term_postings,
)


def test_segment_table_widths_and_ragged_tail():
    row_of, within, segs = segment_table(pa.array(["a b c d e", "x y"]), 2)
    assert segs.to_pylist() == ["a b", "c d", "e", "x y"]
    assert row_of.tolist() == [0, 0, 0, 1]
    assert within.tolist() == [0, 1, 2, 0]


def test_segment_table_empty_string_row():
    row_of, _within, segs = segment_table(pa.array(["", "a"]), 3)
    # "" splits to [""] — one empty segment; the row is never lost
    assert segs.to_pylist() == ["", "a"]
    assert row_of.tolist() == [0, 1]


def test_rejoin_roundtrips_when_nothing_dropped():
    texts = pa.array(["a b c d e", "x y", ""])
    row_of, _w, segs = segment_table(texts, 2)
    keep = np.ones(len(row_of), dtype=bool)
    joined, dropped = rejoin_segments(segs, row_of, keep, 3)
    assert joined.to_pylist() == texts.to_pylist()
    assert dropped.tolist() == [0, 0, 0]


def test_rejoin_all_dropped_yields_empty_string():
    texts = pa.array(["a b"])
    row_of, _w, segs = segment_table(texts, 2)
    joined, dropped = rejoin_segments(
        segs, row_of, np.zeros(len(row_of), dtype=bool), 1
    )
    assert joined.to_pylist() == [""]
    assert dropped.tolist() == [1]


def test_segment_dedup_within_keeps_first(ray_session):
    import ray.data as rd

    ds = rd.from_items(
        [
            {"doc_id": 1, "text": "a b a b c d a b"},  # segs: ab, ab, cd, ab
            {"doc_id": 2, "text": "u v w"},
        ]
    )
    out = {
        r["doc_id"]: r for r in segment_dedup_within(ds, w=2).take_all()
    }
    assert out[1]["text_dedup"] == "a b c d"
    assert out[1]["n_dropped"] == 2
    assert out[2]["text_dedup"] == "u v w"
    assert out[2]["n_dropped"] == 0


def test_paragraph_dedup_removes_all_occurrences(ray_session):
    import ray.data as rd

    rows = [
        {"doc_id": 1, "text": "p q r unique one here"},
        {"doc_id": 2, "text": "p q r other words now"},
        {"doc_id": 3, "text": "fully distinct text row"},
    ]
    ds = rd.from_items(rows)
    out = {r["doc_id"]: r for r in paragraph_dedup(ds, w=3).take_all()}
    # "p q r" appears in docs 1 and 2 -> removed from BOTH
    assert out[1]["text_clean"] == "unique one here"
    assert out[2]["text_clean"] == "other words now"
    assert out[1]["n_removed"] == 1 and out[2]["n_removed"] == 1
    assert out[3]["text_clean"] == "fully distinct text row"
    assert out[3]["n_removed"] == 0


def test_paragraph_dedup_partition_invariance(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(7)
    vocab = ["aa", "bb", "cc", "dd"]
    rows = [
        {
            "doc_id": i,
            "text": " ".join(rng.choice(vocab, size=rng.integers(3, 12))),
        }
        for i in range(60)
    ]

    def run(nparts):
        ds = rd.from_items(rows).repartition(nparts)
        got = paragraph_dedup(ds, w=2).take_all()
        return sorted((r["doc_id"], r["text_clean"], r["n_removed"]) for r in got)

    assert run(1) == run(7)


def test_term_postings_df_band(ray_session):
    import ray.data as rd

    rows = [
        {"doc_id": 1, "text": "common rare common mid"},
        {"doc_id": 2, "text": "common mid"},
        {"doc_id": 3, "text": "common"},
    ]
    ds = rd.from_items(rows)
    # df: common=3, mid=2, rare=1 -> band [2,2] admits only mid
    got = sorted(
        (r["term"], r["doc_id"], r["tf"])
        for r in term_postings(ds, df_lo=2, df_hi=2).take_all()
    )
    assert got == [("mid", 1, 1), ("mid", 2, 1)]
    # tf counts repeats: band [3,3] admits common with tf 2 in doc 1
    got3 = sorted(
        (r["term"], r["doc_id"], r["tf"])
        for r in term_postings(ds, df_lo=3, df_hi=3).take_all()
    )
    assert got3 == [("common", 1, 2), ("common", 2, 1), ("common", 3, 1)]


def test_term_postings_partition_invariance(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(11)
    vocab = [f"w{j}" for j in range(9)]
    rows = [
        {
            "doc_id": i,
            "text": " ".join(rng.choice(vocab, size=rng.integers(2, 20))),
        }
        for i in range(50)
    ]

    def run(nparts):
        ds = rd.from_items(rows).repartition(nparts)
        got = term_postings(ds, df_lo=3, df_hi=30).take_all()
        return sorted((r["term"], r["doc_id"], r["tf"]) for r in got)

    assert run(1) == run(6)


def test_term_postings_empty_band(ray_session):
    import ray.data as rd

    ds = rd.from_items([{"doc_id": 1, "text": "a b"}])
    assert term_postings(ds, df_lo=5, df_hi=9).take_all() == []


def test_seg_hash_table_matches_segment_table():
    """Digest-mode segmentation must be IDENTICAL to string-mode
    segmentation (same row_of, same tile), and digests must agree exactly
    when segment strings agree — asserted on a corpus with repeated,
    ragged-tail and empty segments."""
    from ocr_suite_ray.stages.segments import seg_hash_table

    texts = pa.array(
        ["a b c d e", "x y", "", "a b c d e", "c d e", "a b"], pa.string()
    )
    for w in (2, 3):
        row_s, _within, segs = segment_table(texts, w)
        row_h, seg_len, flat, hashes = seg_hash_table(texts, w)
        assert row_s.tolist() == row_h.tolist()
        # seg_len matches the string segment's token count
        assert seg_len.tolist() == [
            len(s.split(" ")) for s in segs.to_pylist()
        ]
        # equal segment strings <-> equal digests (injective on this corpus)
        by_seg = {}
        for s, h in zip(segs.to_pylist(), hashes.tolist()):
            by_seg.setdefault(s, set()).add(h)
        assert all(len(v) == 1 for v in by_seg.values())
        all_h = [next(iter(by_seg[s])) for s in by_seg]
        assert len(set(all_h)) == len(by_seg)


@pytest.mark.parametrize("as_large", [False, True])
def test_paragraph_dedup_hash64_matches_text_mode(ray_session, as_large):
    import ray.data as rd

    rng = np.random.default_rng(23)
    vocab = ["aa", "bb", "cc", "dd", "ee"]
    texts = [
        " ".join(rng.choice(vocab, size=int(rng.integers(1, 14))))
        for _ in range(80)
    ] + ["", "aa"]
    typ = pa.large_string() if as_large else pa.string()
    t = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, typ),
        }
    )

    def run(key):
        got = paragraph_dedup(rd.from_arrow(t), w=2, key=key).take_all()
        return sorted((r["doc_id"], r["text_clean"], r["n_removed"]) for r in got)

    assert run("hash64") == run("text")


def test_paragraph_dedup_rejects_unknown_key(ray_session):
    import ray.data as rd

    with pytest.raises(ValueError):
        paragraph_dedup(rd.from_items([{"doc_id": 1, "text": "a"}]), key="bloom")


# --- property-based hardening (hypothesis) ---------------------------------

from hypothesis import given, settings, strategies as st

_token = st.text(
    alphabet=st.characters(blacklist_characters=" ", blacklist_categories=("Cs",)),
    min_size=0, max_size=5,
)
_text = st.lists(_token, min_size=0, max_size=30).map(lambda ws: " ".join(ws))


@settings(max_examples=200, deadline=None)
@given(st.lists(_text, min_size=1, max_size=8), st.integers(2, 5))
def test_segment_roundtrip_property(texts, w):
    """Segments tile the token list, so rejoining every segment with a
    single space reconstructs the input byte-for-byte — for ANY text,
    including empty tokens from runs of spaces and non-ASCII tokens."""
    import numpy as np
    import pyarrow as pa

    arr = pa.array(texts, pa.string())
    row_of, _within, segs = segment_table(arr, w)
    keep = np.ones(len(row_of), dtype=bool)
    joined, dropped = rejoin_segments(segs, row_of, keep, len(texts))
    assert joined.to_pylist() == texts
    assert dropped.sum() == 0


def _dedup_within_ref(text, w):
    toks = text.split(" ")
    segs = [" ".join(toks[i : i + w]) for i in range(0, len(toks), w)]
    seen, kept, dropped = set(), [], 0
    for s in segs:
        if s in seen:
            dropped += 1
        else:
            seen.add(s)
            kept.append(s)
    return " ".join(kept), dropped


@settings(max_examples=60, deadline=None)
@given(st.lists(_text, min_size=1, max_size=6), st.integers(2, 4))
def test_segment_dedup_within_matches_pure_python(ray_session, texts, w):
    import ray.data as rd

    ds = rd.from_items(
        [{"doc_id": i, "text": t} for i, t in enumerate(texts)]
    )
    got = {r["doc_id"]: r for r in segment_dedup_within(ds, w=w).take_all()}
    for i, t in enumerate(texts):
        want_text, want_drop = _dedup_within_ref(t, w)
        assert got[i]["text_dedup"] == want_text, (t, w)
        assert got[i]["n_dropped"] == want_drop, (t, w)


def test_segment_ops_accept_large_string_text(ray_session):
    """The extracted store carries large_string text; the segment/chunk
    kernels must not assume plain string (binary_join has no
    (list<large_string>, string) kernel — found by the 10M-store drive)."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from ocr_suite_ray.stages.segments import paragraph_dedup, segment_dedup_within
    from ocr_suite_ray.stages.text_ops import chunk_documents

    t = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "text": pa.array(
                ["a b c d a b c d", "a b c d x y z w", "p q r s"],
                pa.large_string(),
            ),
        }
    )
    ds = rd.from_arrow(t)
    got = paragraph_dedup(ds, w=4).to_pandas().sort_values("doc_id")
    assert len(got) == 3
    got2 = segment_dedup_within(ds, w=4).to_pandas().sort_values("doc_id")
    assert list(got2.doc_id) == [0, 1, 2]
    got3 = chunk_documents(ds, size=4, overlap=1).to_pandas()
    assert (got3.groupby("doc_id").size() > 0).all()


def test_c4_line_signals_rules():
    """Every documented C4 rule on crafted input: terminal punct, min
    words, javascript lines, lorem-ipsum pages, brace pages, the
    min-kept-lines page gate, and large_string input."""
    from ocr_suite_ray.stages.segments import c4_line_signals

    pages = [
        # 5 good lines -> kept; one bad line (no punct) scrubbed
        "one two three.\ntwo three four!\nthree four five?\n"
        'four five six"\nno terminal punct here\nfive six seven.',
        # good lines but page contains lorem ipsum -> dropped
        "Lorem Ipsum dolor sit.\na b c.\nb c d.\nc d e.\nd e f.",
        # javascript line scrubbed (case-insensitive), page then short
        "enable JavaScript now.\na b.\nshort.\nx.\ny.",
        # brace page -> dropped
        "int main() {.\na b c.\nb c d.\nc d e.\nd e f.\ne f g.",
        # two-word lines fail min_words=3
        "a b.\nb c.\nc d.\nd e.\ne f.",
        "",
    ]
    t = pa.table(
        {
            "doc_id": pa.array(range(len(pages)), pa.int64()),
            "text": pa.array(pages, pa.large_string()),
        }
    )
    out = c4_line_signals(t)
    keep = out["keep"].to_pylist()
    assert keep == [True, False, False, False, False, False]
    assert out["n_lines"].to_pylist() == [6, 5, 5, 6, 5, 1]
    # page 0: the unpunctuated line is scrubbed from the kept text
    assert out["n_kept"].to_pylist()[0] == 5
    assert "no terminal punct" not in out["text"].to_pylist()[0]
    # page 2: the javascript line is scrubbed even though the page drops
    assert "JavaScript" not in out["text"].to_pylist()[2]
    # all-dropped page rejoins to the empty document, not null
    assert out["text"].to_pylist()[5] == ""


def test_c4_line_filter_dataset(ray_session):
    import ray.data as rd

    from ocr_suite_ray.stages.segments import c4_line_filter

    good = "\n".join(f"line number {i} is fine." for i in range(6))
    t = pa.table(
        {
            "doc_id": pa.array([7, 8], pa.int64()),
            "text": pa.array([good, "too short."], pa.string()),
        }
    )
    got = c4_line_filter(rd.from_arrow(t)).to_pandas()
    assert list(got.doc_id) == [7]
    assert got.text.iloc[0] == good
    assert list(got.columns) == ["doc_id", "text", "n_lines", "n_kept"]


def test_grouped_paragraph_dedup_scopes_dups_to_group(ray_session):
    """A segment repeated within one group is scrubbed there; the same
    segment appearing once in another group survives."""
    import ray.data as rd

    from ocr_suite_ray.stages.segments import grouped_paragraph_dedup

    docs = rd.from_arrow(
        pa.table(
            {
                "doc_id": [1, 2, 3],
                "source": ["a", "a", "b"],
                # w=2 segments: doc1 = ["x y"], doc2 = ["x y", "z w"],
                # doc3 = ["x y"] — "x y" repeats within source a (2x)
                # but is unique within source b
                "text": ["x y", "x y z w", "x y"],
            }
        )
    )
    out = {
        r["doc_id"]: r
        for r in grouped_paragraph_dedup(
            docs, group_col="source", w=2
        ).take_all()
    }
    assert out[1]["text_clean"] == "" and out[1]["n_removed"] == 1
    assert out[2]["text_clean"] == "z w" and out[2]["n_removed"] == 1
    assert out[3]["text_clean"] == "x y" and out[3]["n_removed"] == 0


def test_grouped_paragraph_dedup_hash64_matches_text_mode(ray_session):
    import ray.data as rd

    from ocr_suite_ray.stages.segments import grouped_paragraph_dedup

    rng = __import__("numpy").random.RandomState(7)
    vocab = ["aa", "bb", "cc", "dd"]
    texts = [
        " ".join(rng.choice(vocab, size=rng.randint(1, 12)))
        for _ in range(60)
    ]
    docs = rd.from_arrow(
        pa.table(
            {
                "doc_id": list(range(60)),
                "source": [f"s{i % 3}" for i in range(60)],
                "text": texts,
            }
        )
    )
    key = lambda r: r["doc_id"]
    exact = sorted(
        grouped_paragraph_dedup(docs, "source", w=2, key="text").take_all(),
        key=key,
    )
    hashed = sorted(
        grouped_paragraph_dedup(docs, "source", w=2, key="hash64").take_all(),
        key=key,
    )
    assert exact == hashed


@pytest.mark.parametrize("key", ["text", "hash64"])
def test_grouped_paragraph_dedup_null_group_never_dedups(ray_session, key):
    """A null group never dedups, the rule of the dup-key scans
    (``dupset._key_counts``) and of the ``host_paragraph_dedup`` SQL twin,
    whose ``s.source = d.source`` join never matches a null source: the
    two null-group copies of "x y" both survive, as does the one in "a"."""
    import duckdb
    import ray.data as rd

    from ocr_suite_ray.pipelines.queries_ml import SQL_HOST_PARAGRAPH_DEDUP
    from ocr_suite_ray.stages.segments import grouped_paragraph_dedup

    documents = pa.table(
        {
            "doc_id": [1, 2, 3],
            "source": pa.array([None, None, "a"], pa.string()),
            "text": ["x y", "x y", "x y"],
        }
    )
    # the twin at w = 2: its segment bounds are i*3+1 .. (i+1)*3, /3.0
    sql = SQL_HOST_PARAGRAPH_DEDUP.replace("*3", "*2").replace("/3.0", "/2.0")
    assert sql.count("*2") == 2 and "/2.0" in sql
    con = duckdb.connect()
    con.register("documents", documents)
    want = sorted(con.execute(sql).fetchall())
    assert want == [(1, "x y", 0), (2, "x y", 0), (3, "x y", 0)]
    got = grouped_paragraph_dedup(
        rd.from_arrow(documents), "source", w=2, key=key
    ).take_all()
    assert sorted(
        (r["doc_id"], r["text_clean"], r["n_removed"]) for r in got
    ) == want


def test_grouped_paragraph_dedup_rejects_unknown_key(ray_session):
    import pytest
    import ray.data as rd

    from ocr_suite_ray.stages.segments import grouped_paragraph_dedup

    docs = rd.from_arrow(
        pa.table({"doc_id": [1], "source": ["a"], "text": ["x"]})
    )
    with pytest.raises(ValueError, match="key"):
        grouped_paragraph_dedup(docs, "source", key="bloom")


def _dedup_docs(seed, vocab, n, n_sources, n_blocks):
    import ray.data as rd

    rng = np.random.RandomState(seed)
    texts = [
        " ".join(rng.choice(vocab, size=rng.randint(1, 10))) for _ in range(n)
    ]
    return rd.from_arrow(
        pa.table(
            {
                "doc_id": list(range(n)),
                "source": [f"s{i % n_sources}" for i in range(n)],
                "text": texts,
            }
        )
    ).repartition(n_blocks)


def _outputs_by_rows_per_shard(monkeypatch, run, rows_per_shard):
    """``run()``'s rows sorted by doc_id under each ``_ROWS_PER_SHARD``, and
    the shard count ``k`` each run's keyed dup reduce picked (the patches
    are undone on return)."""
    from ocr_suite_ray.state import dupset

    ks, outs = [], []
    shard_count = dupset.shard_count
    with monkeypatch.context() as m:
        m.setattr(
            dupset, "shard_count", lambda rows: ks.append(shard_count(rows)) or ks[-1]
        )
        for r in rows_per_shard:
            m.setattr(dupset, "_ROWS_PER_SHARD", r)
            outs.append(sorted(run().take_all(), key=lambda row: row["doc_id"]))
    return outs, ks


@pytest.mark.parametrize("key", ["text", "hash64"])
@pytest.mark.parametrize("grouped", [False, True], ids=["plain", "grouped"])
def test_paragraph_dedup_multi_shard_identical(
    ray_session, monkeypatch, grouped, key
):
    """The keyed dup reduce's forced k > 1 (hash-sharded segment counts)
    gives the default single tree's exact output, for paragraph_dedup and
    grouped_paragraph_dedup on both keys."""
    from ocr_suite_ray.stages.segments import grouped_paragraph_dedup
    from ocr_suite_ray.state import dupset

    docs = _dedup_docs(11, ["aa", "bb", "cc", "dd"], 50, 4, 5)

    def run():
        if grouped:
            return grouped_paragraph_dedup(docs, "source", w=2, key=key)
        return paragraph_dedup(docs, w=2, key=key)

    # ~100 partial rows (<= 20 distinct segments per block): k ~ 5, so
    # every shard holds some keys
    (single, sharded), ks = _outputs_by_rows_per_shard(
        monkeypatch, run, [dupset._ROWS_PER_SHARD, 20]
    )
    assert ks[0] == 1 and ks[1] > 1
    assert any(r["n_removed"] for r in single)
    assert single == sharded


def test_grouped_paragraph_dedup_shuffle_exchange_equivalent(
    ray_session, monkeypatch
):
    """On a 3-word vocabulary a few (group, segment) keys carry most
    partial rows; the hash-sharded count exchange (k > 1) still gives the
    single tree's exact output on both keys."""
    from ocr_suite_ray.stages.segments import grouped_paragraph_dedup
    from ocr_suite_ray.state import dupset

    docs = _dedup_docs(11, ["aa", "bb", "cc"], 50, 4, 5)
    for key in ("text", "hash64"):
        (single, sharded), ks = _outputs_by_rows_per_shard(
            monkeypatch,
            lambda: grouped_paragraph_dedup(docs, "source", w=2, key=key),
            [dupset._ROWS_PER_SHARD, 10],
        )
        assert ks[0] == 1 and ks[1] > 1
        assert any(r["n_removed"] for r in single)
        assert single == sharded


def test_grouped_paragraph_dedup_sharded_shuffle_equivalent(
    ray_session, monkeypatch
):
    """The output does not depend on the shard count: k = 1, a few shards,
    and the 64-shard cap (most shards empty) all agree."""
    from ocr_suite_ray.stages.segments import grouped_paragraph_dedup
    from ocr_suite_ray.state import dupset

    docs = _dedup_docs(3, ["aa", "bb", "cc", "dd"], 40, 3, 4)
    outs, ks = _outputs_by_rows_per_shard(
        monkeypatch,
        lambda: grouped_paragraph_dedup(docs, "source", w=2, key="hash64"),
        [dupset._ROWS_PER_SHARD, 40, 1],
    )
    assert ks[0] == 1 < ks[1] < ks[2] == dupset._MAX_SHARDS
    assert any(r["n_removed"] for r in outs[0])
    assert outs[1] == outs[0] and outs[2] == outs[0]


def test_c4_line_signals_null_text_row():
    import pyarrow as pa

    from ocr_suite_ray.stages.segments import c4_line_signals

    t = pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "text": pa.array(
            ["This is a terminal line.\nshort", None], pa.string()
        ),
    })
    out = c4_line_signals(t)  # must not raise on the null row
    assert out.num_rows == 2
    null_row = out.to_pylist()[1]
    assert null_row["n_kept"] == 0 and null_row["keep"] is False


def test_grouped_paragraph_dedup_separator_in_group_or_token(ray_session):
    """Injective composite: group 'g' + segment 'a\\x1fb ...' must NOT
    collide with group 'g\\x1fa' + segment 'b ...' (a bare group+US+seg
    key merged them and deleted unique text)."""
    import pandas as pd
    import ray.data as rd

    from ocr_suite_ray.stages.segments import grouped_paragraph_dedup

    w = 3
    seg_a = "a\x1fb c d"       # 3 tokens, first contains US
    seg_b = "b c d"
    df = pd.DataFrame({
        "host": ["g", "g\x1fa"],
        "text": [seg_a, seg_b],
        "doc_id": [1, 2],
    })
    out = (
        grouped_paragraph_dedup(
            rd.from_pandas(df), group_col="host", text_col="text", w=w
        )
        .to_pandas().set_index("doc_id")["text_clean"].to_dict()
    )
    # neither row is a within-group duplicate -> both survive untouched
    assert out[1] == seg_a
    assert out[2] == seg_b
