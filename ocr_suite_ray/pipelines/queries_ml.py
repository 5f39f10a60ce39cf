"""Training-data operator queries: dedup family, similarity search, text
analysis, fingerprints — each a ``queries()`` entry; DuckDB oracle where SQL
can express the exact semantics, rows-only otherwise (approximate ops).

All ratio/score outputs are fixed-point int64 computed with
floor(x+0.5) == DuckDB ROUND (half away from zero) so value-hashes match.
"""

from __future__ import annotations

import pandas as pd


def _read(sf_dir: str, table: str, columns=None):
    from ocr_suite_ray.sources.readers import read_parquet_clean

    return read_parquet_clean(f"{sf_dir}/{table}.parquet", columns=columns)


# ---------------------------------------------------------------------------
# Text analysis
# ---------------------------------------------------------------------------

def q_token_stats(sf_dir: str):
    from ocr_suite_ray.stages.text_ops import token_stats_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(token_stats_batch, batch_format="pyarrow")


SQL_TOKEN_STATS = """
SELECT doc_id,
       len(string_split(text, ' ')) AS n_tokens,
       len(regexp_extract_all(text, '[A-Za-z]+|[0-9]+|[^A-Za-z0-9 \t\n]')) AS n_subwords,
       CAST(ROUND(len(list_filter(string_split(text, ' '),
                                  x -> x IN ('the','a','and','of','to')))
                  * 10000.0 / GREATEST(len(string_split(text, ' ')), 1), 0) AS BIGINT)
           AS stop_ratio_e4
FROM documents
"""


def q_quality(sf_dir: str):
    from ocr_suite_ray.stages.text_ops import quality_score

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(quality_score, batch_format="pyarrow")


SQL_QUALITY = """
WITH t AS (
  SELECT doc_id,
         GREATEST(len(string_split(text, ' ')), 1) AS n_tokens,
         len(list_filter(string_split(text, ' '),
                         x -> x IN ('the','a','and','of','to'))) AS n_stop,
         list_sum(list_transform(string_split(text, ' '), x -> len(x))) AS sum_len
  FROM documents
), f AS (
  SELECT doc_id, n_tokens,
         CAST(ROUND(n_stop * 10000.0 / n_tokens, 0) AS BIGINT) AS stop_ratio_e4,
         CAST(ROUND(sum_len * 100.0 / n_tokens, 0) AS BIGINT) AS mean_token_len_e2
  FROM t
)
SELECT doc_id, n_tokens, stop_ratio_e4, mean_token_len_e2,
       (CASE WHEN n_tokens BETWEEN 50 AND 1000 THEN 40 ELSE 0 END
        + CASE WHEN stop_ratio_e4 BETWEEN 200 AND 4000 THEN 30 ELSE 0 END
        + CASE WHEN mean_token_len_e2 BETWEEN 300 AND 1200 THEN 30 ELSE 0 END)
           AS quality
FROM f
"""


def q_lang_id(sf_dir: str):
    from ocr_suite_ray.stages.text_ops import lang_id_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(lang_id_batch, batch_format="pyarrow")


SQL_LANG_ID = """
WITH c AS (
  SELECT doc_id,
    len(list_filter(string_split(text,' '),
        x -> x IN ('the','a','fast','slow','small','big'))) AS c_en,
    len(list_filter(string_split(text,' '),
        x -> x IN ('query','table','join','scan','filter','agg'))) AS c_query,
    len(list_filter(string_split(text,' '),
        x -> x IN ('stream','window','batch','spark','vector'))) AS c_stream
  FROM documents
)
SELECT doc_id, c_en, c_query, c_stream,
       CASE
         WHEN c_en = 0 AND c_query = 0 AND c_stream = 0 THEN 'und'
         WHEN c_en >= c_query AND c_en >= c_stream THEN 'en'
         WHEN c_query >= c_stream THEN 'query'
         ELSE 'stream'
       END AS lang_pred
FROM c
"""


def q_fingerprint(sf_dir: str):
    """md5 column is oracle-checked; rolling_hash is engine-only, so this
    query projects just the SQL-expressible fingerprint."""
    from ocr_suite_ray.stages.text_ops import fingerprint

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(fingerprint, batch_format="pandas").select_columns(
        ["doc_id", "md5"]
    )


SQL_FINGERPRINT = """
SELECT doc_id, md5(text) AS md5 FROM documents
"""


def q_fingerprint_rolling(sf_dir: str):
    """Rolling 64-bit FNV-1a/polynomial fingerprint (streaming analogue).
    SQL twin: the byte-level fold is replayed in DuckDB with a single
    list_reduce over char codes (ASCII corpus ⇒ code == byte), spaces as
    fold-boundary sentinels, HUGEINT arithmetic mod 2^64."""
    from ocr_suite_ray.stages.text_ops import fingerprint

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(fingerprint, batch_format="pandas").select_columns(
        ["doc_id", "rolling_hash"]
    )


SQL_FINGERPRINT_ROLLING = """
SELECT doc_id,
  CAST(
    list_reduce(
      list_prepend(CAST(1469598103934665603 AS HUGEINT),
        CASE WHEN text = '' THEN [CAST(-1 AS HUGEINT)]
             ELSE list_append(
               list_transform(string_split(text, ''),
                 ch -> CAST(CASE WHEN ch = ' ' THEN -1 ELSE unicode(ch) END AS HUGEINT)),
               CAST(-1 AS HUGEINT))
        END),
      (a, c) -> CASE WHEN c < 0 THEN (a * 31 + 7) % 18446744073709551616
                     ELSE (xor(a, c) * 1099511628211) % 18446744073709551616 END
    ) // 2 AS BIGINT) AS rolling_hash
FROM documents
"""


# ---------------------------------------------------------------------------
# Dedup family
# ---------------------------------------------------------------------------

def q_dedup_exact(sf_dir: str):
    from ocr_suite_ray.stages.dedup_text import exact_dedup

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return exact_dedup(ds)


SQL_DEDUP_EXACT = """
SELECT md5(text) AS text_hash, MIN(doc_id) AS doc_id
FROM documents GROUP BY md5(text)
"""


def q_cross_corpus_dedup(sf_dir: str):
    """Dedup against an already-held corpus: corpus B = the 'src1' slice
    (standing in for last crawl's training set), corpus A = everything
    else; drop A-docs whose exact text appears anywhere in B. Digest-only
    exchange, B's distinct hashes broadcast once, A never shuffled."""
    from ocr_suite_ray.stages.dedup_text import cross_corpus_dedup

    docs = _read(sf_dir, "documents", ["doc_id", "source", "text"])
    corpus_a = docs.filter(expr="source != 'src1'")
    corpus_b = docs.filter(expr="source == 'src1'")
    out = cross_corpus_dedup(corpus_a, corpus_b)
    return out.map_batches(
        lambda t: t.select(["doc_id", "source"]), batch_format="pyarrow"
    )


SQL_CROSS_CORPUS_DEDUP = """
SELECT d.doc_id, d.source FROM documents d
WHERE d.source <> 'src1'
  AND md5(d.text) NOT IN (SELECT md5(text) FROM documents WHERE source = 'src1')
"""


def q_cross_corpus_near_dup(sf_dir: str):
    """NEAR-dup flags against an already-held corpus: corpus B = the
    'src1' slice (the held training set), corpus A = everything else;
    emit every (A doc, B doc) pair with exact 3-gram Jaccard >= 0.5,
    candidates found by MinHash+LSH over the tagged union. Same md5
    hash family as minhash_lsh_pairs, so the full chain carries a
    value-hash SQL oracle."""
    from ocr_suite_ray.stages.dedup_text import cross_corpus_near_dup

    docs = _read(sf_dir, "documents", ["doc_id", "source", "text"])
    corpus_a = docs.filter(expr="source != 'src1'")
    corpus_b = docs.filter(expr="source == 'src1'")
    return cross_corpus_near_dup(corpus_a, corpus_b, threshold=0.5)


def q_ngram_jaccard(sf_dir: str):
    """Exact word-3-gram Jaccard pairs (>= 0.10) blocked by source."""
    from ocr_suite_ray.stages.dedup_text import ngram_jaccard_pairs

    ds = _read(sf_dir, "documents", ["doc_id", "source", "text"])
    return ngram_jaccard_pairs(ds, threshold_e4=1000)


SQL_NGRAM_JACCARD = """
WITH sh AS (
  SELECT doc_id, source,
         list_distinct(
           CASE WHEN len(string_split(text,' ')) < 3
                THEN [text]
                ELSE list_transform(
                       generate_series(1, len(string_split(text,' ')) - 2),
                       i -> string_split(text,' ')[i] || ' ' ||
                            string_split(text,' ')[i+1] || ' ' ||
                            string_split(text,' ')[i+2])
           END) AS grams
  FROM documents
)
SELECT a.doc_id AS id_a, b.doc_id AS id_b,
       CAST(ROUND(
         len(list_intersect(a.grams, b.grams)) * 10000.0 /
         (len(a.grams) + len(b.grams) - len(list_intersect(a.grams, b.grams))),
       0) AS BIGINT) AS jaccard_e4
FROM sh a JOIN sh b ON a.source = b.source AND a.doc_id < b.doc_id
WHERE CAST(ROUND(
        len(list_intersect(a.grams, b.grams)) * 10000.0 /
        (len(a.grams) + len(b.grams) - len(list_intersect(a.grams, b.grams))),
      0) AS BIGINT) >= 1000
"""


def q_minhash_lsh(sf_dir: str):
    """Near-dup via MinHash+LSH (verified with exact Jaccard on candidates).
    Fully oracle-checked: the shingle hash is md5_number_lower-compatible and
    the 128 universal-hash permutation constants are embedded in the SQL, so
    DuckDB recomputes the identical signatures, bands docs by the exact
    4-minima tuple (equivalent to the engine's collision-free band hash),
    and verifies candidates with the same exact-Jaccard filter."""
    from ocr_suite_ray.stages.dedup_text import minhash_lsh_pairs

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return minhash_lsh_pairs(ds, threshold=0.5)


def _minhash_perm_rows() -> str:
    """The engine's 128 (a, b) universal-hash constants as SQL VALUES rows."""
    from ocr_suite_ray.stages.dedup_text import _PERM_A, _PERM_B

    return ",".join(
        f"({i},{int(a)}::HUGEINT,{int(b)}::HUGEINT)"
        for i, (a, b) in enumerate(zip(_PERM_A, _PERM_B))
    )


# Replays the engine's MinHash chain exactly: md5_number_lower gram hashes,
# (a*h + b) in uint64 wrap arithmetic (% 2^64) then mod the Mersenne prime
# 2^61-1, min per permutation, 32 bands x 4 rows grouped by the minima tuple
# (equality of the tuple == equality of the engine's collision-free band
# hash), candidate pairs = same (band, tuple), exact-Jaccard >= 0.5 verify
# with the same floor(jac*1e4 + 0.5) fixed-point as the engine. Shared CTE
# chain so the cluster-dedup oracle reuses the identical pair source.
_MINHASH_PAIR_CTES = f"""grams AS (
  SELECT doc_id,
         unnest(CASE WHEN len(string_split(text,' ')) < 3
                THEN [text]
                ELSE list_transform(
                       generate_series(1, len(string_split(text,' ')) - 2),
                       i -> string_split(text,' ')[i] || ' ' ||
                            string_split(text,' ')[i+1] || ' ' ||
                            string_split(text,' ')[i+2])
           END) AS g
  FROM documents
), hs AS (
  SELECT DISTINCT doc_id, CAST(md5_number_lower(g) AS HUGEINT) AS h FROM grams
), perms(i, a, b) AS (
  VALUES {_minhash_perm_rows()}
), sig AS (
  SELECT doc_id, p.i AS i,
         MIN(((p.a * hs.h) % 18446744073709551616 + p.b)
             % 18446744073709551616 % 2305843009213693951) AS m
  FROM hs, perms p
  GROUP BY doc_id, p.i
), bands AS (
  SELECT doc_id, i // 4 AS band, list(m ORDER BY i) AS bkey
  FROM sig GROUP BY doc_id, i // 4
), cand AS (
  SELECT DISTINCT a.doc_id AS id_a, b.doc_id AS id_b
  FROM bands a JOIN bands b
    ON a.band = b.band AND a.bkey = b.bkey AND a.doc_id < b.doc_id
), sets AS (
  SELECT doc_id, list(h) AS hset, count(*) AS n FROM hs GROUP BY doc_id
), pairs AS (
  SELECT c.id_a, c.id_b,
         CAST(FLOOR(CAST(len(list_intersect(sa.hset, sb.hset)) AS DOUBLE)
              / (sa.n + sb.n - len(list_intersect(sa.hset, sb.hset)))
              * 10000 + 0.5) AS BIGINT) AS jaccard_e4
  FROM cand c
  JOIN sets sa ON sa.doc_id = c.id_a
  JOIN sets sb ON sb.doc_id = c.id_b
  WHERE CAST(len(list_intersect(sa.hset, sb.hset)) AS DOUBLE)
        / (sa.n + sb.n - len(list_intersect(sa.hset, sb.hset))) >= 0.5
)"""

SQL_MINHASH_LSH = f"""
WITH {_MINHASH_PAIR_CTES}
SELECT id_a, id_b, jaccard_e4 FROM pairs
"""


# Cross-corpus near-dup reuses the identical pair chain: signatures depend
# only on text, so MinHash over the A∪B union equals MinHash per corpus,
# and the cross-corpus output is exactly the cross-side subset of `pairs`
# oriented A-first (engine: pair_scope="cross_parity" + xid decode).
SQL_CROSS_NEAR_DUP = f"""
WITH {_MINHASH_PAIR_CTES}
SELECT CASE WHEN da.source <> 'src1' THEN p.id_a ELSE p.id_b END AS id_a,
       CASE WHEN da.source <> 'src1' THEN p.id_b ELSE p.id_a END AS id_b,
       p.jaccard_e4
FROM pairs p
JOIN documents da ON da.doc_id = p.id_a
JOIN documents db ON db.doc_id = p.id_b
WHERE (da.source = 'src1') <> (db.source = 'src1')
"""


def q_simhash(sf_dir: str):
    """(doc_id, simhash) per document. Fully oracle-checked: the token hash
    is md5_number_lower-compatible, so DuckDB recomputes the identical
    signature (unnest tokens × bit positions, majority vote per bit)."""
    from ocr_suite_ray.stages.dedup_text import simhash_table

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return simhash_table(ds)


SQL_SIMHASH = """
WITH toks AS (
  SELECT doc_id, md5_number_lower(t.w) AS h
  FROM documents, unnest(string_split(text, ' ')) AS t(w)
), bits AS (
  SELECT doc_id, j.j AS j,
         SUM(CASE WHEN (h >> CAST(j.j AS INTEGER)) & 1 = 1 THEN 1 ELSE -1 END) AS s
  FROM toks CROSS JOIN generate_series(0, 62) j(j)
  GROUP BY doc_id, j.j
)
SELECT doc_id,
  CAST(SUM(CASE WHEN s > 0
       THEN CAST(CAST(1 AS UBIGINT) << CAST(j AS INTEGER) AS HUGEINT)
       ELSE 0 END) AS BIGINT) AS simhash
FROM bits GROUP BY doc_id
"""


def q_simhash_pairs(sf_dir: str):
    """All pairs within SimHash Hamming distance 3. The pigeonhole banding
    (4 x 16-bit chunks) is EXACT for radius 3, so the output equals the full
    quadratic Hamming join — which is what the DuckDB oracle computes over
    the identically-reconstructed 64-bit signatures (md5_number_lower token
    hash, majority vote per bit, bit_count(xor) join)."""
    from ocr_suite_ray.stages.dedup_text import simhash_pairs

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return simhash_pairs(ds, max_hamming=3)


SQL_SIMHASH_PAIRS = """
WITH toks AS (
  SELECT doc_id, md5_number_lower(t.w) AS h
  FROM documents, unnest(string_split(text, ' ')) AS t(w)
), bits AS (
  SELECT doc_id, j.j AS j,
         SUM(CASE WHEN (h >> CAST(j.j AS INTEGER)) & 1 = 1 THEN 1 ELSE -1 END) AS s
  FROM toks CROSS JOIN generate_series(0, 63) j(j)
  GROUP BY doc_id, j.j
), sh AS (
  SELECT doc_id,
    CAST(SUM(CASE WHEN s > 0
         THEN CAST(CAST(1 AS UBIGINT) << CAST(j AS INTEGER) AS HUGEINT)
         ELSE 0 END) AS UBIGINT) AS h64
  FROM bits GROUP BY doc_id
)
SELECT a.doc_id AS id_a, b.doc_id AS id_b,
       CAST(bit_count(xor(a.h64, b.h64)) AS BIGINT) AS hamming
FROM sh a JOIN sh b ON a.doc_id < b.doc_id
WHERE bit_count(xor(a.h64, b.h64)) <= 3
"""


# ---------------------------------------------------------------------------
# Similarity search
# ---------------------------------------------------------------------------

def _query_vectors(sf_dir: str, n: int = 4) -> pd.DataFrame:
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    df = t.to_pandas()
    df = df[df.vec_id < n].rename(columns={"vec_id": "query_id"})
    return df.reset_index(drop=True)


def q_knn_cosine(sf_dir: str):
    """Brute-force exact top-10 cosine per probe (probes = vec_id < 4,
    broadcast once)."""
    from ocr_suite_ray.stages.similarity import knn_brute

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return knn_brute(ds, _query_vectors(sf_dir), k=10, scale=4)


def q_random_projection(sf_dir: str):
    """Deterministic Rademacher random projection of the embedding table
    to 8 dims (integer-exact e3 fixed point — see
    :func:`~ocr_suite_ray.stages.similarity.random_project`)."""
    from ocr_suite_ray.stages.similarity import random_project

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return random_project(ds, out_dim=8)


# Same quantize-then-integer-matmul arithmetic unrolled relationally:
# elements via 1-based list indexing against an unnested range, signs from
# the identical (k, j) bit mix, so the match is exact (no float tolerance).
# SUM(BIGINT) is HUGEINT in DuckDB -> cast back so dtype kinds agree.
SQL_RANDOM_PROJECTION = """
WITH x AS (
  SELECT vec_id, ks.k AS k,
         CAST(ROUND(CAST(embedding[ks.k + 1] AS DOUBLE) * 1000, 0) AS BIGINT)
           AS xq
  FROM embeddings CROSS JOIN (SELECT UNNEST(range(64)) AS k) ks
),
r AS (
  SELECT ks.k AS k, js.j AS j,
         ((((ks.k * 2654435761 + js.j * 40503) >> 7) & 1) * 2 - 1) AS s
  FROM (SELECT UNNEST(range(64)) AS k) ks
  CROSS JOIN (SELECT UNNEST(range(8)) AS j) js
)
SELECT x.vec_id, r.j AS dim, CAST(SUM(x.xq * r.s) AS BIGINT) AS proj_e3
FROM x JOIN r ON x.k = r.k
GROUP BY x.vec_id, r.j
"""


SQL_KNN_COSINE = """
WITH q AS (
  SELECT vec_id AS query_id, embedding AS qe FROM embeddings WHERE vec_id < 4
), s AS (
  SELECT q.query_id, e.vec_id,
         CAST(ROUND(list_cosine_similarity(
             CAST(q.qe AS DOUBLE[]), CAST(e.embedding AS DOUBLE[])) * 10000, 0)
              AS BIGINT) AS score_e4
  FROM q CROSS JOIN embeddings e
)
SELECT query_id, vec_id, score_e4 FROM (
  SELECT *, ROW_NUMBER() OVER (PARTITION BY query_id
                               ORDER BY score_e4 DESC, vec_id ASC) AS rn
  FROM s
) WHERE rn <= 10
"""


def q_embedding_near_dup(sf_dir: str):
    """All-pairs cosine >= 0.40 (broadcast comparison side)."""
    import pyarrow.parquet as pq

    from ocr_suite_ray.stages.similarity import embedding_near_dup

    all_df = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).to_pandas()
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return embedding_near_dup(ds, all_df, threshold_e4=4000)


SQL_EMBEDDING_NEAR_DUP = """
SELECT a.vec_id AS id_a, b.vec_id AS id_b,
       CAST(ROUND(list_cosine_similarity(
           CAST(a.embedding AS DOUBLE[]), CAST(b.embedding AS DOUBLE[])) * 10000, 0)
            AS BIGINT) AS cosine_e4
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE CAST(ROUND(list_cosine_similarity(
          CAST(a.embedding AS DOUBLE[]), CAST(b.embedding AS DOUBLE[])) * 10000, 0)
       AS BIGINT) >= 4000
"""


def q_ann_ivf(sf_dir: str):
    """IVF top-k cosine (k-means coarse quantizer + inverted lists), run
    with ``nprobe = n_lists`` — the oracle-mode configuration: probing
    every list scores every vector, so the IVF machinery (assignment,
    inverted-list search, per-query local top-k, keyed top-k merge with
    the (score DESC, id ASC) tie-break) must reproduce the brute-force
    answer EXACTLY, and the row carries the same DuckDB twin as
    ``knn_cosine``. The nprobe < n_lists approximation regime keeps its
    recall-vs-brute oracles in tests/test_similarity.py."""
    from ocr_suite_ray.stages.similarity import ivf_knn

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return ivf_knn(ds, _query_vectors(sf_dir), k=10, n_lists=16, nprobe=16)


def q_cluster_dedup(sf_dir: str):
    """Near-dup cluster dedup: MinHash-LSH pairs → connected components →
    keep min-id per cluster; isolates pass through. Fully oracle-checked:
    the DuckDB oracle replays the SQL-exact MinHash pair chain (see
    SQL_MINHASH_LSH) and resolves components with a recursive CTE
    (transitive closure over symmetric edges, min reachable id per node)."""
    from ocr_suite_ray.stages.components import dedup_keep_cluster_min
    from ocr_suite_ray.stages.dedup_text import minhash_lsh_pairs

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    pairs = minhash_lsh_pairs(ds, threshold=0.5)
    return dedup_keep_cluster_min(ds, pairs).select_columns(["doc_id"])


# A doc survives iff it is the minimum id reachable in its similarity
# component (isolates reach only themselves); the recursive CTE is a
# transitive closure over the symmetric edge set from the SQL-exact
# MinHash pair chain.
SQL_CLUSTER_DEDUP = f"""
WITH RECURSIVE {_MINHASH_PAIR_CTES}, edges AS (
  SELECT id_a AS u, id_b AS v FROM pairs
  UNION ALL
  SELECT id_b AS u, id_a AS v FROM pairs
), reach(node, lab) AS (
  SELECT doc_id, doc_id FROM documents
  UNION
  SELECT e.v, r.lab FROM reach r JOIN edges e ON e.u = r.node
)
SELECT node AS doc_id FROM reach GROUP BY node HAVING MIN(lab) = node
"""


def q_cluster_dedup_best(sf_dir: str):
    """Near-dup cluster dedup with a quality policy: MinHash-LSH pairs →
    connected components → keep the LONGEST member per cluster (ties →
    min doc_id); isolates pass through. The representative-selection
    variant of ``cluster_dedup`` (curation keeps the best capture, not
    the lowest id)."""
    import pyarrow as pa_mod
    import pyarrow.compute as pc_mod

    from ocr_suite_ray.stages.components import dedup_keep_cluster_best
    from ocr_suite_ray.stages.dedup_text import minhash_lsh_pairs

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    pairs = minhash_lsh_pairs(ds, threshold=0.5)

    def _score(t: pa_mod.Table) -> pa_mod.Table:
        n = pc_mod.add(pc_mod.count_substring(t["text"], " "), 1)
        return t.append_column("n_tokens", pc_mod.cast(n, pa_mod.int64()))

    scored = ds.map_batches(_score, batch_format="pyarrow")
    return dedup_keep_cluster_best(
        scored, pairs, score_col="n_tokens"
    ).select_columns(["doc_id"])


# Winner per component = argmax (n_tokens DESC, doc_id ASC) over the
# min-label closure of the SQL-exact MinHash pair chain; isolates are
# 1-member components and survive.
SQL_CLUSTER_DEDUP_BEST = f"""
WITH RECURSIVE {_MINHASH_PAIR_CTES}, edges AS (
  SELECT id_a AS u, id_b AS v FROM pairs
  UNION ALL
  SELECT id_b AS u, id_a AS v FROM pairs
), reach(node, lab) AS (
  SELECT doc_id, doc_id FROM documents
  UNION
  SELECT e.v, r.lab FROM reach r JOIN edges e ON e.u = r.node
), comp AS (
  SELECT node AS doc_id, MIN(lab) AS cid FROM reach GROUP BY node
), scored AS (
  SELECT c.doc_id, c.cid, len(str_split(d.text, ' ')) AS n_tokens
  FROM comp c JOIN documents d USING (doc_id)
)
SELECT doc_id FROM scored
QUALIFY ROW_NUMBER() OVER (
  PARTITION BY cid ORDER BY n_tokens DESC, doc_id ASC) = 1
"""


def q_ann_lsh(sf_dir: str):
    """LSH-bucketed approximate near-dup (scale path). Full SQL twin: the
    hyperplanes are a pure function of the seed, so the oracle inlines them
    as DOUBLE[] literals and replays bucket assignment (sign of the raw
    dot — dividing by the positive norm never flips it) + within-bucket
    exact cosine with the same e4 fixed-point rule as SQL_KNN_COSINE."""
    from ocr_suite_ray.stages.similarity import lsh_bucket_pairs

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return lsh_bucket_pairs(ds, n_planes=8, threshold_e4=4000)


def _lsh_planes_sql(dim: int = 64, n_planes: int = 8, seed: int = 42) -> str:
    """The q_ann_lsh hyperplane matrix as inline SQL literals (one row per
    plane). repr() of a Python float round-trips exactly to DOUBLE."""
    import numpy as np

    planes = np.random.RandomState(seed).normal(size=(dim, n_planes))
    rows = []
    for i in range(n_planes):
        vec = ", ".join(repr(float(v)) for v in planes[:, i])
        rows.append(f"SELECT {i} AS i, [{vec}]::DOUBLE[] AS p")
    return "\n  UNION ALL ".join(rows)


# Bucket key = sum of 2^i over planes with a positive raw dot product
# (matches bits = (m @ planes) > 0: normalization divides by a positive
# scalar, which cannot change the sign). Pair score is the same
# float64 list_cosine_similarity e4 rule the knn twin hash-matches on.
SQL_ANN_LSH = f"""
WITH planes AS (
  {_lsh_planes_sql()}
), b AS (
  SELECT e.vec_id, e.embedding,
         CAST(SUM(CASE WHEN list_dot_product(CAST(e.embedding AS DOUBLE[]), p.p) > 0
                       THEN CAST(1 AS BIGINT) << p.i ELSE 0 END) AS BIGINT) AS bucket
  FROM embeddings e CROSS JOIN planes p
  GROUP BY e.vec_id, e.embedding
), scored AS (
  SELECT a.vec_id AS id_a, c.vec_id AS id_b,
         CAST(ROUND(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                           CAST(c.embedding AS DOUBLE[])) * 10000, 0)
              AS BIGINT) AS cosine_e4
  FROM b a JOIN b c ON a.bucket = c.bucket AND a.vec_id < c.vec_id
)
SELECT DISTINCT id_a, id_b, cosine_e4 FROM scored WHERE cosine_e4 >= 4000
"""


def q_curation(sf_dir: str):
    """Composite training-data curation: quality gate → exact dedup
    (keep min doc_id per distinct text) → language profile. One enrichment
    pass (actor pool), one vectorized filter, one keyed top-1 reduce —
    the chained shape of a real corpus-curation job.

    Scale note: ``_enrich`` DROPS the text column, so the top-1 exchange
    moves only (hash, doc_id, features) ≈ 100 B/row — payload-free, unlike
    the corpus-shuffle bug the 10x drive exposed in ``pipelines/curate.py``
    (see BASELINE.md round-3 curation section). The dup-rate-bound winner
    alternative used there applies here too if row-metadata volume ever
    dominates."""
    from ocr_suite_ray.stages.relational import topk_per_group

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    gated = _curation_gated(ds)
    kept = topk_per_group(gated, ["text_hash"], "doc_id", 1, descending=False)
    return kept.select_columns(["doc_id", "n_tokens", "quality", "lang_pred"])


def _curation_gated(ds):
    """The curation chain's enrich + quality gate as one fused task stage
    (shared by ``q_curation`` and ``q_curation_funnel``): quality/lang
    features + md5 text hash, rows with quality >= 70. Both kernels
    preserve input row order → positional align; warm per-worker state
    lives in the stage functions' module caches — no actor-pool spawn.
    The text column is DROPPED here, so everything downstream exchanges
    ~100 B/row."""
    import hashlib

    import pyarrow as pa_mod
    import pyarrow.compute as pc_mod

    from ocr_suite_ray.stages.text_ops import lang_id_batch, quality_score

    def _enrich(t: pa_mod.Table) -> pa_mod.Table:
        out = quality_score(t).append_column(
            "lang_pred", lang_id_batch(t)["lang_pred"]
        )
        # per-row md5 is the declared price of DuckDB hash parity
        out = out.append_column(
            "text_hash",
            pa_mod.array(
                [hashlib.md5(x.encode()).hexdigest()
                 for x in t["text"].to_pylist()]
            ),
        )
        return out.filter(pc_mod.greater_equal(out["quality"], 70))

    return ds.map_batches(_enrich, batch_format="pyarrow")


def q_curation_funnel(sf_dir: str):
    """Per-stage keep counts of the curation chain (input → quality gate
    → exact dedup) — the funnel report every production curation run
    logs so a policy change's cost is visible per stage. Three streaming
    counts over one shared lazy graph (each a metadata-light aggregate,
    never a driver materialization); at flagship scale the same numbers
    fall out of the pipeline's lineage ``stage_metrics`` without extra
    passes (``state/lineage.py``)."""
    import pyarrow as pa_mod

    from ocr_suite_ray.stages.relational import topk_per_group

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    n_input = ds.count()
    gated = _curation_gated(ds)
    n_gate = gated.count()
    kept = topk_per_group(gated, ["text_hash"], "doc_id", 1, descending=False)
    n_dedup = kept.count()
    return pa_mod.table(
        {
            "stage_ord": pa_mod.array([0, 1, 2], pa_mod.int64()),
            "stage": pa_mod.array(
                ["input", "quality_gate", "exact_dedup"], pa_mod.string()
            ),
            "rows_kept": pa_mod.array(
                [n_input, n_gate, n_dedup], pa_mod.int64()
            ),
        }
    )


SQL_CURATION_FUNNEL = """
WITH t AS (
  SELECT doc_id, text,
         GREATEST(len(string_split(text, ' ')), 1) AS n_tokens,
         len(list_filter(string_split(text, ' '),
                         x -> x IN ('the','a','and','of','to'))) AS n_stop,
         list_sum(list_transform(string_split(text, ' '), x -> len(x))) AS sum_len
  FROM documents
), f AS (
  SELECT doc_id, text, n_tokens,
         CAST(ROUND(n_stop * 10000.0 / n_tokens, 0) AS BIGINT) AS stop_ratio_e4,
         CAST(ROUND(sum_len * 100.0 / n_tokens, 0) AS BIGINT) AS mean_token_len_e2
  FROM t
), q AS (
  SELECT doc_id, text,
         (CASE WHEN n_tokens BETWEEN 50 AND 1000 THEN 40 ELSE 0 END
          + CASE WHEN stop_ratio_e4 BETWEEN 200 AND 4000 THEN 30 ELSE 0 END
          + CASE WHEN mean_token_len_e2 BETWEEN 300 AND 1200 THEN 30 ELSE 0 END)
             AS quality
  FROM f
)
SELECT 0 AS stage_ord, 'input' AS stage,
       CAST(COUNT(*) AS BIGINT) AS rows_kept FROM documents
UNION ALL
SELECT 1, 'quality_gate', CAST(COUNT(*) AS BIGINT)
FROM q WHERE quality >= 70
UNION ALL
SELECT 2, 'exact_dedup', CAST(COUNT(DISTINCT text) AS BIGINT)
FROM q WHERE quality >= 70
"""


SQL_CURATION = """
WITH t AS (
  SELECT doc_id, text,
         GREATEST(len(string_split(text, ' ')), 1) AS n_tokens,
         len(list_filter(string_split(text, ' '),
                         x -> x IN ('the','a','and','of','to'))) AS n_stop,
         list_sum(list_transform(string_split(text, ' '), x -> len(x))) AS sum_len,
         len(list_filter(string_split(text,' '),
             x -> x IN ('the','a','fast','slow','small','big'))) AS c_en,
         len(list_filter(string_split(text,' '),
             x -> x IN ('query','table','join','scan','filter','agg'))) AS c_query,
         len(list_filter(string_split(text,' '),
             x -> x IN ('stream','window','batch','spark','vector'))) AS c_stream
  FROM documents
), f AS (
  SELECT doc_id, text, n_tokens, c_en, c_query, c_stream,
         CAST(ROUND(n_stop * 10000.0 / n_tokens, 0) AS BIGINT) AS stop_ratio_e4,
         CAST(ROUND(sum_len * 100.0 / n_tokens, 0) AS BIGINT) AS mean_token_len_e2
  FROM t
), q AS (
  SELECT doc_id, text, n_tokens, c_en, c_query, c_stream,
         (CASE WHEN n_tokens BETWEEN 50 AND 1000 THEN 40 ELSE 0 END
          + CASE WHEN stop_ratio_e4 BETWEEN 200 AND 4000 THEN 30 ELSE 0 END
          + CASE WHEN mean_token_len_e2 BETWEEN 300 AND 1200 THEN 30 ELSE 0 END)
             AS quality
  FROM f
), g AS (
  SELECT *, ROW_NUMBER() OVER (PARTITION BY md5(text) ORDER BY doc_id) AS rn
  FROM q WHERE quality >= 70
)
SELECT doc_id, n_tokens, quality,
       CASE
         WHEN c_en = 0 AND c_query = 0 AND c_stream = 0 THEN 'und'
         WHEN c_en >= c_query AND c_en >= c_stream THEN 'en'
         WHEN c_query >= c_stream THEN 'query'
         ELSE 'stream'
       END AS lang_pred
FROM g WHERE rn = 1
"""


# ---------------------------------------------------------------------------
# Corpus hygiene: PII scrubbing, dataset splitting, repetition filters
# ---------------------------------------------------------------------------

_PII_EMAIL = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
_PII_PHONE = r"\+?[0-9][0-9() .-]{6,}[0-9]"
_PII_NUM = r"[0-9]+"


def q_pii_scrub(sf_dir: str):
    """Pattern scrubbing over events.props: redact emails/phones/number runs
    with <LABEL> markers and count matches per row — one vectorized RE2 pass
    per pattern (pyarrow and DuckDB both run RE2, so the oracle is
    byte-exact). The standard pre-training PII redaction stage."""
    from ocr_suite_ray.stages.text_ops import scrub_patterns

    ds = _read(sf_dir, "events", ["event_id", "props"])
    pats = {"EMAIL": _PII_EMAIL, "PHONE": _PII_PHONE, "NUM": _PII_NUM}
    return scrub_patterns(ds, "props", pats, out_col="props_scrubbed")


SQL_PII_SCRUB = f"""
SELECT event_id, props,
       len(regexp_extract_all(props, '{_PII_EMAIL}')) AS n_email,
       len(regexp_extract_all(props, '{_PII_PHONE}')) AS n_phone,
       len(regexp_extract_all(props, '{_PII_NUM}')) AS n_num,
       regexp_replace(
         regexp_replace(
           regexp_replace(props, '{_PII_EMAIL}', '<EMAIL>', 'g'),
           '{_PII_PHONE}', '<PHONE>', 'g'),
         '{_PII_NUM}', '<NUM>', 'g') AS props_scrubbed
FROM events
"""


def q_corpus_overlap(sf_dir: str):
    """Corpus-level contamination diagnostic: distinct trigram overlap
    between the candidate corpus (source != src1) and the held corpus
    (src1) — one (n_a, n_b, n_common, jaccard_e4) row, both sides
    collapsed to vocab-bound distinct-gram tables, zero shuffle."""
    from ocr_suite_ray.stages.contamination import corpus_overlap

    docs = _read(sf_dir, "documents", ["source", "text"])
    return corpus_overlap(
        docs.filter(expr="source != 'src1'"),
        docs.filter(expr="source == 'src1'"),
        n=3,
    )


SQL_CORPUS_OVERLAP = """
WITH ta AS (
  SELECT DISTINCT unnest(list_transform(range(1, len(l) - 1),
                         i -> array_to_string(l[i:i+2], ' '))) AS gram
  FROM (SELECT str_split(text, ' ') AS l FROM documents WHERE source <> 'src1')
), tb AS (
  SELECT DISTINCT unnest(list_transform(range(1, len(l) - 1),
                         i -> array_to_string(l[i:i+2], ' '))) AS gram
  FROM (SELECT str_split(text, ' ') AS l FROM documents WHERE source = 'src1')
), s AS (
  SELECT (SELECT COUNT(*) FROM ta) AS n_a,
         (SELECT COUNT(*) FROM tb) AS n_b,
         (SELECT COUNT(*) FROM ta JOIN tb USING (gram)) AS n_common
)
SELECT CAST(n_a AS BIGINT) AS n_a, CAST(n_b AS BIGINT) AS n_b,
       CAST(n_common AS BIGINT) AS n_common,
       CAST(FLOOR(n_common * 10000.0 / (n_a + n_b - n_common) + 0.5)
            AS BIGINT) AS jaccard_e4
FROM s
"""


def q_dataset_split(sf_dir: str):
    """Deterministic 80/10/10 train/val/test assignment by md5(doc_id) —
    reproducible at any parallelism, disjoint by construction."""
    from ocr_suite_ray.stages.text_ops import assign_split

    ds = _read(sf_dir, "documents", ["doc_id"])
    return assign_split(ds, "doc_id", train_pct=80, val_pct=10)


SQL_DATASET_SPLIT = """
SELECT doc_id,
       CASE WHEN h < 80 THEN 'train' WHEN h < 90 THEN 'val' ELSE 'test' END AS split
FROM (
  SELECT doc_id,
         CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8)) AS UBIGINT) % 100 AS h
  FROM documents
)
"""


def q_repetition(sf_dir: str):
    """Gopher-style repetition features per doc (distinct-token fraction,
    most-common-token share) — the low-quality boilerplate gate."""
    from ocr_suite_ray.stages.text_ops import repetition_stats

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return repetition_stats(ds, "doc_id", "text")


SQL_REPETITION = """
WITH tc AS (
  SELECT doc_id, tok, COUNT(*) AS c
  FROM (SELECT doc_id, unnest(str_split(text, ' ')) AS tok FROM documents)
  GROUP BY doc_id, tok
)
SELECT doc_id,
       CAST(SUM(c) AS BIGINT) AS n_tokens,
       CAST(FLOOR(COUNT(*) * 10000.0 / SUM(c) + 0.5) AS BIGINT) AS distinct_frac_e4,
       CAST(FLOOR(MAX(c) * 10000.0 / SUM(c) + 0.5) AS BIGINT) AS top_token_frac_e4
FROM tc GROUP BY doc_id
"""


def q_gopher_gate(sf_dir: str):
    """Gopher-rules quality gate (Rae et al. 2021, App. A): the documented
    composite rule set — word count, mean word length, alpha-word fraction,
    distinct stop-word hits, unigram repetition — applied as one
    embarrassingly-parallel signal pass + filter. Returns the KEPT docs
    with their signal columns."""
    import pyarrow.compute as pc_mod

    from ocr_suite_ray.stages.text_ops import gopher_signals

    def _gate(t):
        out = gopher_signals(t)
        kept = out.filter(pc_mod.equal(out["keep"], True))
        return kept.drop_columns(["keep"])

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(_gate, batch_format="pyarrow")


SQL_GOPHER_GATE = """
WITH cnt AS (
  SELECT doc_id, tok, COUNT(*) AS c
  FROM (SELECT doc_id, unnest(str_split(text, ' ')) AS tok FROM documents)
  GROUP BY doc_id, tok
),
rep AS (SELECT doc_id, MAX(c) AS top_c FROM cnt GROUP BY doc_id),
base AS (
  SELECT doc_id,
         GREATEST(len(str_split(text, ' ')), 1) AS n_tokens,
         list_sum(list_transform(str_split(text, ' '), x -> len(x))) AS sum_len,
         CAST(len(list_filter(list_distinct(str_split(text, ' ')),
                         x -> x IN ('the','a','and','of','to'))) AS BIGINT)
             AS stop_hits,
         len(list_filter(str_split(text, ' '),
                         x -> regexp_matches(x, '[A-Za-z]'))) AS n_alpha
  FROM documents
),
f AS (
  SELECT b.doc_id, b.n_tokens,
         CAST(FLOOR(b.sum_len * 100.0 / b.n_tokens + 0.5) AS BIGINT)
             AS mean_token_len_e2,
         CAST(FLOOR(b.n_alpha * 10000.0 / b.n_tokens + 0.5) AS BIGINT)
             AS alpha_frac_e4,
         b.stop_hits,
         CAST(FLOOR(r.top_c * 10000.0 / b.n_tokens + 0.5) AS BIGINT)
             AS top_token_frac_e4
  FROM base b JOIN rep r USING (doc_id)
)
SELECT doc_id, n_tokens, mean_token_len_e2, alpha_frac_e4, stop_hits,
       top_token_frac_e4
FROM f
WHERE n_tokens BETWEEN 50 AND 100000
  AND mean_token_len_e2 BETWEEN 300 AND 1000
  AND alpha_frac_e4 >= 8000
  AND stop_hits >= 2
  AND top_token_frac_e4 <= 2000
"""


def q_c4_line_filter(sf_dir: str):
    """C4 line-level cleaning (Raffel et al. 2020 §2.2) over documents
    with deterministically synthesized line structure (the sf corpus has
    no newlines or punctuation; BOTH sides build the same lines: 8-token
    windows, terminal '.' appended when (doc_id + line_ord) % 3 != 2 —
    the same derive-then-operate pattern as ``url_normalize``). Returns
    kept pages with cleaned text and line counts."""
    import numpy as np
    import pyarrow as pa_mod
    import pyarrow.compute as pc_mod

    from ocr_suite_ray.stages.segments import c4_line_filter, segment_table

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def _mk(t: pa_mod.Table) -> pa_mod.Table:
        row_of, within, segs = segment_table(t["text"], 8)
        ids = pc_mod.cast(t["doc_id"], pa_mod.int64()).to_numpy()
        dot = ((ids[row_of] + within) % 3) != 2
        suffix = pa_mod.array(np.where(dot, ".", ""), pa_mod.string())
        lines = pc_mod.binary_join_element_wise(segs, suffix, "")
        counts = np.bincount(row_of, minlength=len(ids))
        offs = np.concatenate(([0], np.cumsum(counts))).astype(np.int32)
        joined = pc_mod.binary_join(
            pa_mod.ListArray.from_arrays(
                pa_mod.array(offs, pa_mod.int32()), lines
            ),
            "\n",
        )
        if isinstance(joined, pa_mod.ChunkedArray):
            joined = joined.combine_chunks()
        return pa_mod.table({"doc_id": t["doc_id"], "text": joined})

    return c4_line_filter(ds.map_batches(_mk, batch_format="pyarrow"))


SQL_C4_LINE_FILTER = """
WITH toks AS (SELECT doc_id, str_split(text, ' ') AS ts FROM documents),
segix AS (
  SELECT doc_id, ts,
         unnest(range(CAST(CEIL(len(ts) / 8.0) AS BIGINT))) AS g
  FROM toks
),
lines AS (
  SELECT doc_id, CAST(g AS BIGINT) AS ord,
         array_to_string(
           list_slice(ts, CAST(g*8+1 AS BIGINT), CAST(g*8+8 AS BIGINT)),
           ' ')
         || CASE WHEN (doc_id + g) % 3 <> 2 THEN '.' ELSE '' END AS line
  FROM segix
),
sig AS (
  SELECT doc_id, ord, line,
         (regexp_matches(line, '[.!?"]$')
          AND len(str_split(line, ' ')) >= 3
          AND NOT contains(lower(line), 'javascript')) AS lkeep
  FROM lines
),
agg AS (
  SELECT doc_id,
         CAST(COUNT(*) AS BIGINT) AS n_lines,
         CAST(COUNT(*) FILTER (WHERE lkeep) AS BIGINT) AS n_kept,
         COALESCE(string_agg(CASE WHEN lkeep THEN line END,
                             chr(10) ORDER BY ord), '') AS text,
         string_agg(line, chr(10) ORDER BY ord) AS full_text
  FROM sig GROUP BY doc_id
)
SELECT doc_id, text, n_lines, n_kept
FROM agg
WHERE n_kept >= 5
  AND NOT contains(lower(full_text), 'lorem ipsum')
  AND NOT contains(full_text, '{')
"""


BADWORDS = ("dup", "lorem")


def q_badword_filter(sf_dir: str):
    """C4 blocklist page gate (Raffel et al. 2020 §2.2): drop any document
    whose lower-cased whitespace tokens hit the blocklist."""
    from ocr_suite_ray.stages.text_ops import badword_filter

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return badword_filter(ds, BADWORDS)


SQL_BADWORD_FILTER = """
SELECT doc_id, text
FROM documents
WHERE len(list_filter(str_split(lower(text), ' '),
                      t -> t IN ('dup', 'lorem'))) = 0
"""


def q_dup_ngrams(sf_dir: str):
    """Gopher n-gram repetition features: per-doc char coverage of the
    top 2-gram and of duplicated 5-grams (fixed-point e4) — the remaining
    documented repetition rules beyond the unigram share."""
    from ocr_suite_ray.stages.text_ops import dup_ngram_stats

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return dup_ngram_stats(ds, "doc_id", "text", n_top=2, n_dup=5)


SQL_DUP_NGRAMS = """
WITH base AS (
  SELECT doc_id, str_split(text, ' ') AS l,
         GREATEST(len(text), 1) AS n_chars
  FROM documents
),
g2 AS (
  SELECT doc_id, unnest(list_transform(range(1, len(l)),
                        i -> array_to_string(l[i:i+1], ' '))) AS gram
  FROM base
),
c2 AS (SELECT doc_id, gram, COUNT(*) AS c FROM g2 GROUP BY doc_id, gram),
t2 AS (SELECT doc_id, MAX(c * len(gram)) AS cover FROM c2 GROUP BY doc_id),
g5 AS (
  SELECT doc_id, unnest(list_transform(range(1, len(l) - 3),
                        i -> array_to_string(l[i:i+4], ' '))) AS gram
  FROM base
),
c5 AS (SELECT doc_id, gram, COUNT(*) AS c FROM g5 GROUP BY doc_id, gram),
d5 AS (
  SELECT doc_id,
         SUM(CASE WHEN c > 1 THEN c * len(gram) ELSE 0 END) AS dup_chars
  FROM c5 GROUP BY doc_id
)
SELECT b.doc_id, b.n_chars,
       CAST(FLOOR(COALESCE(t2.cover, 0) * 10000.0 / b.n_chars + 0.5)
            AS BIGINT) AS top2_gram_cover_e4,
       CAST(FLOOR(COALESCE(d5.dup_chars, 0) * 10000.0 / b.n_chars + 0.5)
            AS BIGINT) AS dup5_gram_chars_e4
FROM base b
LEFT JOIN t2 ON b.doc_id = t2.doc_id
LEFT JOIN d5 ON b.doc_id = d5.doc_id
"""


def q_vocab_top(sf_dir: str):
    """Corpus vocabulary: top-50 tokens by global count (tokenizer-training
    first step), deterministic (n desc, token asc) tie-break."""
    from ocr_suite_ray.stages.text_ops import token_frequencies

    ds = _read(sf_dir, "documents", ["text"])
    return token_frequencies(ds, "text", top_k=50)


SQL_VOCAB_TOP = """
SELECT tok, CAST(COUNT(*) AS BIGINT) AS n
FROM (SELECT unnest(str_split(text, ' ')) AS tok FROM documents)
GROUP BY tok ORDER BY n DESC, tok LIMIT 50
"""


def q_seq_packing(sf_dir: str):
    """Deterministic sequence packing for pre-training: exclusive running
    token count in doc_id order (distributed two-pass prefix scan —
    stages/scan.py) assigns each doc its sequence id and offset at
    seq_len=2048."""
    import pyarrow as pa_mod

    from ocr_suite_ray.stages.scan import pack_sequences

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def _ntok(t: pa_mod.Table) -> pa_mod.Table:
        import pyarrow.compute as pc_mod

        n = pc_mod.add(pc_mod.count_substring(t["text"], " "), 1)
        return pa_mod.table(
            {"doc_id": t["doc_id"], "n_tokens": pc_mod.cast(n, pa_mod.int64())}
        )

    narrow = ds.map_batches(_ntok, batch_format="pyarrow")
    return pack_sequences(narrow, "doc_id", "n_tokens", seq_len=2048)


SQL_SEQ_PACKING = """
WITH d AS (
  SELECT doc_id, CAST(len(str_split(text, ' ')) AS BIGINT) AS n_tokens
  FROM documents
), c AS (
  SELECT doc_id, n_tokens,
         CAST(COALESCE(SUM(n_tokens) OVER (
           ORDER BY doc_id ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
         ), 0) AS BIGINT) AS tokens_before
  FROM d
)
SELECT doc_id, n_tokens, tokens_before,
       CAST(FLOOR(tokens_before / 2048) AS BIGINT) AS seq_id,
       tokens_before % 2048 AS seq_offset
FROM c
"""


def q_media_probe(sf_dir: str):
    """Multimodal metadata pass over a deterministic synthetic media table
    (PNG/GIF/BMP/WAV headers + garbage rows — the sf dirs carry no media):
    REAL container-header parsing (stages/multimodal.py), then the typed
    metadata projection flattened to SQL dtypes. The DuckDB oracle
    CONSTRUCTS the same expected table from the payload recipe (every field
    is a deterministic function of media_id) — the binary parse is checked
    value-for-value without SQL ever touching bytes. content_hash (blake2b,
    no SQL twin) stays covered by the multimodal unit tests."""
    import struct

    import ray.data as rd

    from ocr_suite_ray.stages.multimodal import attach_media_meta, probe_media

    rows = []
    for i in range(200):
        k = i % 5
        if k == 0:
            v = (b"\x89PNG\r\n\x1a\n" + b"\x00\x00\x00\x0dIHDR"
                 + struct.pack(">II", 16 + i, 9 + i) + bytes([8, 2, 0, 0, 0]))
        elif k == 1:
            v = b"GIF89a" + struct.pack("<HH", 32 + i, 20 + i) + b"\x00\x00\x00"
        elif k == 2:
            v = (b"BM" + b"\x00" * 16 + struct.pack("<ii", 64 + i, 48 + i)
                 + b"\x01\x00" + struct.pack("<H", 24) + b"\x00" * 8)
        elif k == 3:
            # canonical fmt chunk: size, audio_format, channels, sample_rate,
            # byte_rate, block_align, bits_per_sample
            v = (b"RIFF" + struct.pack("<I", 36) + b"WAVE" + b"fmt "
                 + struct.pack("<IHHIIHH", 16, 1, 2, 8000 + i, 32000, 4, 16))
        else:
            v = b"garbage-" + str(i).encode()
        rows.append({"media_id": i, "payload": v})
    ds = rd.from_items(rows).map_batches(
        attach_media_meta, batch_format="pyarrow"
    )
    out = probe_media(ds)

    def _flatten(t):
        import pyarrow as pa_mod
        import pyarrow.compute as pc_mod

        meta = t["media_meta"].combine_chunks()
        cols = {
            "media_id": t["media_id"],
            "media_kind": meta.field("media_kind"),
            "n_bytes": meta.field("n_bytes"),
            "format": t["format"],
        }
        for c in ("width", "height", "bit_depth", "channels", "sample_rate"):
            cols[c] = pc_mod.cast(t[c], pa_mod.int64())
        return pa_mod.table(cols)

    return out.drop_columns(["payload"]).map_batches(
        _flatten, batch_format="pyarrow"
    )


SQL_MEDIA_PROBE = """
WITH m AS (
  SELECT CAST(t.i AS BIGINT) AS media_id, t.i % 5 AS k
  FROM generate_series(0, 199) t(i)
)
SELECT media_id,
  CASE WHEN k IN (0, 1, 2) THEN 'image' WHEN k = 3 THEN 'audio'
       ELSE 'binary' END AS media_kind,
  CAST(CASE k WHEN 0 THEN 29 WHEN 1 THEN 13 WHEN 2 THEN 38 WHEN 3 THEN 36
       ELSE 8 + length(CAST(media_id AS VARCHAR)) END AS BIGINT) AS n_bytes,
  CASE k WHEN 0 THEN 'png' WHEN 1 THEN 'gif' WHEN 2 THEN 'bmp'
         WHEN 3 THEN 'wav' ELSE 'unknown' END AS format,
  CAST(CASE k WHEN 0 THEN 16 + media_id WHEN 1 THEN 32 + media_id
       WHEN 2 THEN 64 + media_id ELSE 0 END AS BIGINT) AS width,
  CAST(CASE k WHEN 0 THEN 9 + media_id WHEN 1 THEN 20 + media_id
       WHEN 2 THEN 48 + media_id ELSE 0 END AS BIGINT) AS height,
  CAST(CASE k WHEN 0 THEN 8 WHEN 1 THEN 8 WHEN 2 THEN 24 WHEN 3 THEN 16
       ELSE 0 END AS BIGINT) AS bit_depth,
  CAST(CASE k WHEN 3 THEN 2 ELSE 0 END AS BIGINT) AS channels,
  CAST(CASE k WHEN 3 THEN 8000 + media_id ELSE 0 END AS BIGINT) AS sample_rate
FROM m
"""


def q_url_normalize(sf_dir: str):
    """URL canonicalization over deterministically-derived dirty urls (the
    sf tables carry no url column; BOTH sides build the same strings from
    doc_id, then normalize): fragment strip, utm_* param removal,
    scheme/host lowercasing — all RE2 kernels, byte-exact vs DuckDB."""
    import pyarrow as pa_mod
    import pyarrow.compute as pc_mod

    from ocr_suite_ray.stages.text_ops import normalize_urls

    ds = _read(sf_dir, "documents", ["doc_id"])

    def _mk(t: pa_mod.Table) -> pa_mod.Table:
        sid = pc_mod.cast(pc_mod.cast(t["doc_id"], pa_mod.int64()), pa_mod.string())
        # bit_wise_and unconditionally: the SQL oracle computes `doc_id & 7`,
        # and mod 7 != AND 7 — a mod fallback would silently diverge
        host_n = pc_mod.cast(
            pc_mod.bit_wise_and(t["doc_id"], 7), pa_mod.string()
        )
        url = pc_mod.binary_join_element_wise(
            "HTTPS://Site", host_n, ".Example.COM/Path/", sid,
            "?utm_source=feed&id=", sid, "&utm_campaign=x#frag", "",
        )
        return pa_mod.table({"doc_id": t["doc_id"], "url": url})

    return normalize_urls(ds.map_batches(_mk, batch_format="pyarrow"), "url")


def _derive_dirty_urls(t, keep_cols):
    """Deterministic url column from doc_id (64 hosts across two TLDs,
    WWW./case noise + a port on doc_id & 2) — the shared derive side of
    the host-family twins. The SQL mirror lives in SQL_HOST_STATS /
    SQL_HOST_QUOTA."""
    import pyarrow as pa_mod
    import pyarrow.compute as pc_mod

    host_n = pc_mod.cast(pc_mod.bit_wise_and(t["doc_id"], 63), pa_mod.string())
    sid = pc_mod.cast(t["doc_id"], pa_mod.string())
    odd = pc_mod.equal(pc_mod.bit_wise_and(t["doc_id"], 1), 1)
    ported = pc_mod.equal(pc_mod.bit_wise_and(t["doc_id"], 2), 2)
    url = pc_mod.binary_join_element_wise(
        "https://WWW.Site", host_n,
        pc_mod.if_else(odd, ".Example.ORG", ".Example.COM"),
        pc_mod.if_else(ported, ":8080", ""),
        "/p/", sid, "",
    )
    cols = {"url": url}
    for c in keep_cols:
        cols[c] = t[c]
    return pa_mod.table(cols)


_SQL_DERIVED_URL = """
  SELECT doc_id, n_chars,
         'https://WWW.Site' || CAST(doc_id & 63 AS VARCHAR)
         || CASE WHEN (doc_id & 1) = 1 THEN '.Example.ORG'
                 ELSE '.Example.COM' END
         || CASE WHEN (doc_id & 2) = 2 THEN ':8080' ELSE '' END
         || '/p/' || CAST(doc_id AS VARCHAR) AS url
  FROM documents
"""

_SQL_HOST_EXPR = """regexp_replace(regexp_replace(
           lower(regexp_extract(url, '^[A-Za-z][A-Za-z0-9+.-]*://([^/?#]*)', 1)),
           ':[0-9]+$', ''), '^www\\.', '')"""


def q_host_stats(sf_dir: str):
    """Per-host corpus rollup (doc counts + char mass per registered
    host, the accounting pass behind per-domain caps/blocklists) over
    deterministically-derived urls (same derive-then-operate pattern as
    ``url_normalize``; ports and WWW./case noise planted so the host
    normalization rules all fire)."""
    from ocr_suite_ray.stages.text_ops import host_stats

    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    urls = ds.map_batches(
        lambda t: _derive_dirty_urls(t, ["n_chars"]), batch_format="pyarrow"
    )
    return host_stats(urls, "url", weight_col="n_chars")


SQL_HOST_STATS = f"""
WITH d AS ({_SQL_DERIVED_URL}), h AS (
  SELECT {_SQL_HOST_EXPR} AS host,
         n_chars
  FROM d
)
SELECT host, regexp_extract(host, '([^.]*)$', 1) AS tld,
       CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(n_chars) AS BIGINT) AS sum_weight
FROM h GROUP BY host
"""


def q_host_rollup(sf_dir: str):
    """Multi-level corpus accounting (host / tld / corpus-total doc+char
    mass) in one pass — SQL GROUPING SETS semantics over the derived-url
    host family."""
    from ocr_suite_ray.stages.text_ops import host_rollup

    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    urls = ds.map_batches(
        lambda t: _derive_dirty_urls(t, ["n_chars"]), batch_format="pyarrow"
    )
    return host_rollup(urls, "url", weight_col="n_chars")


SQL_HOST_ROLLUP = f"""
WITH d AS ({_SQL_DERIVED_URL}), h AS (
  SELECT {_SQL_HOST_EXPR} AS host, n_chars
  FROM d
), t AS (
  SELECT host, regexp_extract(host, '([^.]*)$', 1) AS tld, n_chars FROM h
)
SELECT CASE WHEN GROUPING(host) = 0 THEN 'host'
            WHEN GROUPING(tld) = 0 THEN 'tld'
            ELSE 'all' END AS level,
       COALESCE(host, tld, '') AS key,
       CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(n_chars) AS BIGINT) AS sum_weight
FROM t
GROUP BY GROUPING SETS ((host), (tld), ())
"""


def q_host_split(sf_dir: str):
    """Leakage-safe train/val/test split: the split key is the HOST, not
    the document, so every page of a site lands in the same split (near-
    dup pages within a host can't straddle train/test) — ``assign_split``
    composed over the derived-url host extraction."""
    import pyarrow as pa_mod

    from ocr_suite_ray.stages.text_ops import assign_split, extract_hosts

    ds = _read(sf_dir, "documents", ["doc_id"])
    urls = ds.map_batches(
        lambda t: _derive_dirty_urls(t, ["doc_id"]), batch_format="pyarrow"
    )

    def _host(t: pa_mod.Table) -> pa_mod.Table:
        host, _tld = extract_hosts(t["url"])
        return pa_mod.table({"doc_id": t["doc_id"], "host": host})

    hosts = urls.map_batches(_host, batch_format="pyarrow")
    return assign_split(hosts, "host", train_pct=80, val_pct=10)


SQL_HOST_SPLIT = f"""
WITH d AS ({_SQL_DERIVED_URL}), h AS (
  SELECT doc_id, {_SQL_HOST_EXPR} AS host FROM d
)
SELECT doc_id, host,
       CASE WHEN m < 80 THEN 'train' WHEN m < 90 THEN 'val'
            ELSE 'test' END AS split
FROM (
  SELECT doc_id, host,
         CAST(('0x' || substr(md5(host), 1, 8)) AS UBIGINT) % 100 AS m
  FROM h
)
"""


def q_host_quota(sf_dir: str):
    """Per-domain contribution cap (RefinedWeb-style: keep docs in doc_id
    order while the host's running char mass stays <= 1000) — host
    extraction composed with the running-budget quota stage."""
    import pyarrow.compute as pc_mod

    from ocr_suite_ray.stages.contamination import group_quota
    from ocr_suite_ray.stages.text_ops import extract_hosts

    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    urls = ds.map_batches(
        lambda t: _derive_dirty_urls(t, ["doc_id", "n_chars"]),
        batch_format="pyarrow",
    )

    def _host(t):
        import pyarrow as pa_mod

        host, _tld = extract_hosts(t["url"])
        return pa_mod.table(
            {"doc_id": t["doc_id"], "host": host, "n_chars": t["n_chars"]}
        )

    hosted = urls.map_batches(_host, batch_format="pyarrow")
    return group_quota(hosted, "host", "doc_id", "n_chars", 1000)


SQL_HOST_QUOTA = f"""
WITH d AS ({_SQL_DERIVED_URL}), h AS (
  SELECT doc_id, n_chars, {_SQL_HOST_EXPR} AS host
  FROM d
), w AS (
  SELECT doc_id, host, n_chars,
         SUM(n_chars) OVER (PARTITION BY host ORDER BY doc_id) AS running
  FROM h
)
SELECT doc_id, host, n_chars, CAST(running AS BIGINT) AS running
FROM w WHERE running <= 1000
"""


def q_unicode_normalize(sf_dir: str):
    """Unicode hygiene pass (CC-Net §3.1: lower + NFC + whitespace
    collapse) over deterministically-derived dirty text — composed vs
    decomposed accents, full-width letters, and whitespace runs planted
    from doc_id so every rule fires on BOTH sides (the derive-then-operate
    pattern of ``url_normalize``)."""
    import pyarrow as pa_mod
    import pyarrow.compute as pc_mod

    from ocr_suite_ray.stages.text_ops import unicode_clean

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    # noise variants by doc_id & 3; chr() composition mirrors the SQL side
    _PFX = [
        "",
        "Cafe\u0301  ",          # decomposed acute + double space
        "\uFF21\uFF22\uFF23\t",   # full-width ABC + tab
        "A\u030A\n",             # decomposed ring + newline
    ]

    def _dirty(t: pa_mod.Table) -> pa_mod.Table:
        sel = pc_mod.cast(pc_mod.bit_wise_and(t["doc_id"], 3), pa_mod.int32())
        pfx = pa_mod.DictionaryArray.from_arrays(
            sel.combine_chunks(), pa_mod.array(_PFX)
        ).dictionary_decode()
        dirty = pc_mod.binary_join_element_wise(pfx, t["text"], "")
        return pa_mod.table({"doc_id": t["doc_id"], "text": dirty})

    out = unicode_clean(
        ds.map_batches(_dirty, batch_format="pyarrow"), "text"
    )
    return out.map_batches(
        lambda t: t.select(["doc_id", "text_clean"]), batch_format="pyarrow"
    )


SQL_UNICODE_NORMALIZE = """
WITH d AS (
  SELECT doc_id,
         CASE doc_id & 3
           WHEN 0 THEN ''
           WHEN 1 THEN 'Cafe' || chr(769) || '  '
           WHEN 2 THEN chr(65313) || chr(65314) || chr(65315) || chr(9)
           ELSE 'A' || chr(778) || chr(10)
         END || text AS text
  FROM documents
)
SELECT doc_id,
       trim(regexp_replace(nfc_normalize(lower(text)), '\\s+', ' ', 'g'))
           AS text_clean
FROM d
"""


def q_link_pagerank(sf_dir: str):
    """Host-graph PageRank (integer e9 fixed-point, 3 damped iterations)
    over a deterministically-derived link graph (two out-links per doc via
    doc_id bit mixes — the derive-then-operate pattern; real href
    extraction is :func:`~ocr_suite_ray.stages.graph.extract_links`,
    differential-tested on the flagship HTML corpus)."""
    import pyarrow as pa_mod
    import pyarrow.compute as pc_mod

    from ocr_suite_ray.stages.graph import pagerank_e9

    ds = _read(sf_dir, "documents", ["doc_id"])

    def _mk(t: pa_mod.Table) -> pa_mod.Table:
        i = pc_mod.cast(t["doc_id"], pa_mod.int64())
        def _site(x):
            return pc_mod.binary_join_element_wise(
                "site", pc_mod.cast(x, pa_mod.string()), ""
            )
        src = _site(pc_mod.bit_wise_and(i, 63))
        d1 = _site(pc_mod.bit_wise_and(pc_mod.shift_right(i, 2), 63))
        d2 = _site(pc_mod.bit_wise_and(pc_mod.shift_right(i, 5), 63))
        return pa_mod.concat_tables(
            [
                pa_mod.table({"src_host": src, "dst_host": d1}),
                pa_mod.table({"src_host": src, "dst_host": d2}),
            ]
        )

    return pagerank_e9(ds.map_batches(_mk, batch_format="pyarrow"), n_iter=3)


def _pagerank_sql(n_iter: int = 3, d_e2: int = 85) -> str:
    """Unrolled integer-e9 PageRank recurrence — same floor-division
    arithmetic as :func:`pagerank_e9`, so the match is exact, not
    float-approximate."""
    base = (
        f"({100 - d_e2}::BIGINT * 1000000000::BIGINT)"
        " // (100 * (SELECT n FROM nn))"
    )
    parts = [f"""
WITH e0 AS (
  SELECT 'site' || CAST(doc_id & 63 AS VARCHAR) AS src,
         'site' || CAST((doc_id >> 2) & 63 AS VARCHAR) AS dst
  FROM documents
  UNION ALL
  SELECT 'site' || CAST(doc_id & 63 AS VARCHAR),
         'site' || CAST((doc_id >> 5) & 63 AS VARCHAR)
  FROM documents
),
edges AS (SELECT DISTINCT src, dst FROM e0),
hosts AS (SELECT DISTINCT h
          FROM (SELECT src AS h FROM edges UNION SELECT dst AS h FROM edges)),
nn AS (SELECT COUNT(*) AS n FROM hosts),
od AS (SELECT src, COUNT(*) AS od FROM edges GROUP BY src),
r0 AS (SELECT h, 1000000000 // (SELECT n FROM nn) AS r FROM hosts)"""]
    for k in range(1, n_iter + 1):
        parts.append(f""",
c{k} AS (SELECT e.dst AS h, SUM(r.r // o.od) AS c
       FROM edges e JOIN r{k-1} r ON e.src = r.h JOIN od o ON e.src = o.src
       GROUP BY e.dst),
r{k} AS (SELECT hosts.h,
              {base} + ({d_e2} * COALESCE(c{k}.c, 0)) // 100 AS r
       FROM hosts LEFT JOIN c{k} ON hosts.h = c{k}.h)""")
    parts.append(
        f"\nSELECT h AS host, CAST(r AS BIGINT) AS rank_e9 FROM r{n_iter}"
    )
    return "".join(parts)


SQL_LINK_PAGERANK = _pagerank_sql()


def q_graph_components(sf_dir: str):
    """Connected components over a deterministically-derived link graph
    (same derive-then-operate pattern as :func:`q_link_pagerank`: one
    edge per doc via a Knuth-multiplier bit mix over a 1024-node space —
    at sf0.01 that yields 144 components with up to 18 nodes and 9
    propagation rounds, so the fixpoint is exercised well past one hop).
    Components are THE grouping primitive under near-dup cluster dedup
    (`dedup_keep_cluster_min`/`_best`); this entry gives the op its own
    externally-checkable row."""
    import pyarrow as pa_mod
    import pyarrow.compute as pc_mod

    from ocr_suite_ray.stages.components import connected_components

    ds = _read(sf_dir, "documents", ["doc_id"])

    def _mk(t: pa_mod.Table) -> pa_mod.Table:
        m = pc_mod.multiply_checked(
            pc_mod.cast(t["doc_id"], pa_mod.int64()),
            pa_mod.scalar(2654435761, pa_mod.int64()),
        )
        return pa_mod.table(
            {
                "id_a": pc_mod.bit_wise_and(m, 1023),
                "id_b": pc_mod.bit_wise_and(pc_mod.shift_right(m, 10), 1023),
            }
        )

    return connected_components(
        ds.map_batches(_mk, batch_format="pyarrow"), max_rounds=32
    )


# Min-label reachability closure: labels of every node in a component
# reach every other member (edges are symmetrized), so MIN(lab) per node
# is the component's minimum node id — exactly what label propagation
# converges to. Row bound: sum of squared component sizes (tiny for the
# sparse derived graph; the oracle only ever runs at oracle scale).
SQL_GRAPH_COMPONENTS = """
WITH RECURSIVE e0 AS (
  SELECT (doc_id * 2654435761) & 1023 AS a,
         ((doc_id * 2654435761) >> 10) & 1023 AS b
  FROM documents
),
edges AS (SELECT a, b FROM e0 UNION SELECT b, a FROM e0),
nodes AS (SELECT DISTINCT a AS node FROM edges),
walk(node, lab) AS (
  SELECT node, node FROM nodes
  UNION
  SELECT e.b, w.lab FROM walk w JOIN edges e ON e.a = w.node
)
SELECT node AS node_id, MIN(lab) AS component_id
FROM walk GROUP BY node ORDER BY node_id
"""


SQL_URL_NORMALIZE = """
WITH d AS (
  SELECT doc_id,
         'HTTPS://Site' || CAST(doc_id & 7 AS VARCHAR) || '.Example.COM/Path/'
         || CAST(doc_id AS VARCHAR) || '?utm_source=feed&id='
         || CAST(doc_id AS VARCHAR) || '&utm_campaign=x#frag' AS url
  FROM documents
), s AS (
  SELECT doc_id, url,
         regexp_replace(
           regexp_replace(
             regexp_replace(
               regexp_replace(url, '#.*$', ''),
               '([?&])(utm_[A-Za-z0-9_]*=[^&]*&)+', '\\1', 'g'),
             '[?&]utm_[A-Za-z0-9_]*=[^&]*$', ''),
           '\\?$', '') AS u
  FROM d
)
SELECT doc_id, url,
       CASE WHEN regexp_matches(u, '^([A-Za-z][A-Za-z0-9+.-]*://)([^/?#]*)(.*)$')
            THEN lower(regexp_extract(u, '^([A-Za-z][A-Za-z0-9+.-]*://)([^/?#]*)(.*)$', 1))
                 || lower(regexp_extract(u, '^([A-Za-z][A-Za-z0-9+.-]*://)([^/?#]*)(.*)$', 2))
                 || regexp_extract(u, '^([A-Za-z][A-Za-z0-9+.-]*://)([^/?#]*)(.*)$', 3)
            ELSE u END AS url_norm
FROM s
"""


def q_substring_dup(sf_dir: str):
    """Pairs of docs sharing exact 40-char substrings (winnowed anchors).

    Streaming analogue of suffix-array substring dedup (Lee et al. 2022);
    anchors are windows whose rolling hash ≡ 0 (mod 16), so both sides
    select the identical content-defined gram set.
    """
    from ocr_suite_ray.stages.dedup_text import substring_dup_pairs

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return substring_dup_pairs(ds)


def _substr_sql() -> str:
    """Inline the rolling-hash power table so DuckDB replicates the same
    mod-2^64 polynomial the numpy kernel computes (HUGEINT % 2^64)."""
    from ocr_suite_ray.stages.dedup_text import SUBSTR_K, SUBSTR_MOD, _substr_pows

    pows = _substr_pows(SUBSTR_K)
    pow_values = ", ".join(
        f"({j}, {int(pows[j])}::HUGEINT)" for j in range(SUBSTR_K)
    )
    return f"""
WITH pows(j, p) AS (VALUES {pow_values}),
docs AS (SELECT doc_id, text FROM documents WHERE length(text) >= {SUBSTR_K}),
wins AS (
  SELECT doc_id, i, substring(text, i + 1, {SUBSTR_K}) AS gram
  FROM (SELECT doc_id, text,
               unnest(range(0, length(text) - {SUBSTR_K - 1})) AS i
        FROM docs)
),
hashed AS (
  SELECT w.doc_id, w.gram,
         SUM((unicode(substring(w.gram, p.j + 1, 1))::HUGEINT * p.p)
             % 18446744073709551616::HUGEINT)
         % 18446744073709551616::HUGEINT AS h
  FROM wins w CROSS JOIN pows p
  GROUP BY w.doc_id, w.i, w.gram
),
anchors AS (SELECT DISTINCT doc_id, gram FROM hashed WHERE h % {SUBSTR_MOD} = 0),
pairs AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b
  FROM anchors a JOIN anchors b ON a.gram = b.gram AND a.doc_id < b.doc_id
)
SELECT id_a, id_b, COUNT(*) AS n_shared FROM pairs GROUP BY 1, 2
"""


SQL_SUBSTRING_DUP = _substr_sql()


def q_lm_score(sf_dir: str):
    """Unigram-LM negative mean log-likelihood per doc (CCNet perplexity
    filter primitive), add-one smoothed over the corpus's own unigram
    table. Fixed-point e4; float64 ln/mean on both sides."""
    from ocr_suite_ray.stages.text_ops import lm_unigram_score

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return lm_unigram_score(ds)


SQL_LM_SCORE = """
WITH toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok FROM documents
),
counts AS (SELECT tok, COUNT(*) AS n FROM toks GROUP BY tok),
tot AS (SELECT CAST(SUM(n) AS DOUBLE) AS nn, CAST(COUNT(*) AS DOUBLE) AS vv
        FROM counts)
SELECT t.doc_id,
       CAST(FLOOR(-AVG(ln((c.n + 1.0) / (tot.nn + tot.vv))) * 10000 + 0.5)
            AS BIGINT) AS lm_score_e4
FROM toks t JOIN counts c USING (tok), tot
GROUP BY t.doc_id
"""


def q_logistic_fit(sf_dir: str):
    """Distributed logistic-regression fit (2 IRLS rounds from w=0, the
    CC-Net-style quality-classifier training shape: is-English on scaled
    token count) + streaming probability scoring. Each round is one
    sufficient-statistic pass (O(d^2) exchange); the SQL twin unrolls both
    Newton rounds with explicit 2x2 solves."""
    import pyarrow as pa_mod
    import pyarrow.compute as pc_mod

    from ocr_suite_ray.stages.mlfit import fit_logistic_ref, logistic_scores

    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang"])

    def _feat(t: pa_mod.Table) -> pa_mod.Table:
        n = pc_mod.add(pc_mod.count_substring(t["text"], " "), 1)
        return pa_mod.table(
            {
                "doc_id": t["doc_id"],
                "x": pc_mod.divide(pc_mod.cast(n, pa_mod.float64()), 100.0),
                "y": pc_mod.cast(
                    pc_mod.equal(t["lang"], "en"), pa_mod.float64()
                ),
            }
        )

    feats = ds.map_batches(_feat, batch_format="pyarrow")
    w_ref = fit_logistic_ref(feats, ["x"], "y", n_iters=2)
    return logistic_scores(feats, w_ref, ["x"])


SQL_LOGISTIC_FIT = """
WITH base AS (
  SELECT doc_id,
         CAST(len(str_split(text, ' ')) AS DOUBLE) / 100.0 AS x,
         CASE WHEN lang = 'en' THEN 1.0 ELSE 0.0 END AS y
  FROM documents
),
-- IRLS round 1 from w = 0: m = 0, p = 1/2, s = 1/4
it1 AS (
  SELECT SUM(0.25) AS a00, SUM(0.25 * x) AS a01, SUM(0.25 * x * x) AS a11,
         SUM(y - 0.5) AS b0, SUM(x * (y - 0.5)) AS b1
  FROM base
),
w1 AS (
  SELECT (b0 * a11 - a01 * b1) / (a00 * a11 - a01 * a01) AS w0,
         (a00 * b1 - a01 * b0) / (a00 * a11 - a01 * a01) AS w1
  FROM it1
),
-- IRLS round 2 under w1
r2 AS (
  SELECT x, y, m, 1.0 / (1.0 + exp(-m)) AS p
  FROM (SELECT b.x, b.y, w1.w0 + w1.w1 * b.x AS m FROM base b, w1)
),
it2 AS (
  SELECT SUM(p * (1 - p)) AS a00,
         SUM(p * (1 - p) * x) AS a01,
         SUM(p * (1 - p) * x * x) AS a11,
         SUM(p * (1 - p) * m + y - p) AS b0,
         SUM(x * (p * (1 - p) * m + y - p)) AS b1
  FROM r2
),
w2 AS (
  SELECT (b0 * a11 - a01 * b1) / (a00 * a11 - a01 * a01) AS w0,
         (a00 * b1 - a01 * b0) / (a00 * a11 - a01 * a01) AS w1
  FROM it2
)
SELECT b.doc_id,
       CAST(FLOOR(1.0 / (1.0 + exp(-(w2.w0 + w2.w1 * b.x))) * 10000 + 0.5)
            AS BIGINT) AS prob_e4
FROM base b, w2
"""


def q_bigram_lm(sf_dir: str):
    """Bigram-LM negative mean conditional log-likelihood per doc — the
    n-gram generalization of lm_score toward CC-Net's KenLM filter:
    add-one-smoothed ln P(cur|prev) with context counts from the bigram
    table's prev-marginal and V = the distinct continuation vocabulary.
    Fixed-point e4; single-token docs emit NULL (SQL empty-group AVG)."""
    from ocr_suite_ray.stages.text_ops import bigram_lm_score

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return bigram_lm_score(ds)


SQL_BIGRAM_LM = """
WITH base AS (SELECT doc_id, str_split(text, ' ') AS l FROM documents),
bg AS (
  SELECT doc_id,
         unnest(list_transform(range(1, len(l)),
                i -> array_to_string(l[i:i+1], ' '))) AS gram
  FROM base
),
c2 AS (SELECT gram, COUNT(*) AS n2 FROM bg GROUP BY gram),
ctx AS (SELECT split_part(gram, ' ', 1) AS prev, SUM(n2) AS c1
        FROM c2 GROUP BY 1),
voc AS (SELECT CAST(COUNT(DISTINCT split_part(gram, ' ', 2)) AS DOUBLE) AS v
        FROM c2),
scored AS (
  SELECT b.doc_id,
         CAST(FLOOR(-AVG(ln((c2.n2 + 1.0) / (ctx.c1 + voc.v))) * 10000 + 0.5)
              AS BIGINT) AS bigram_nll_e4
  FROM bg b
  JOIN c2 USING (gram)
  JOIN ctx ON split_part(b.gram, ' ', 1) = ctx.prev
  CROSS JOIN voc
  GROUP BY b.doc_id
)
SELECT d.doc_id, s.bigram_nll_e4
FROM documents d LEFT JOIN scored s USING (doc_id)
"""


def q_collocations(sf_dir: str):
    """Top-k bigram collocations by PMI (phrase mining / tokenizer merge
    seeding) — distinct-bigram table tree-reduced off the driver, PMI +
    top-k in one vocabulary-sized remote task."""
    from ocr_suite_ray.stages.text_ops import collocations_pmi

    ds = _read(sf_dir, "documents", ["text"])
    return collocations_pmi(ds, "text", min_count=3, k=40)


SQL_COLLOCATIONS = """
WITH base AS (SELECT str_split(text, ' ') AS l FROM documents),
bg AS (
  SELECT unnest(list_transform(range(1, len(l)),
                i -> array_to_string(l[i:i+1], ' '))) AS gram
  FROM base
),
c2 AS (SELECT gram, CAST(COUNT(*) AS BIGINT) AS n FROM bg GROUP BY gram),
lm AS (SELECT split_part(gram, ' ', 1) AS w, SUM(n) AS cl FROM c2 GROUP BY 1),
rm AS (SELECT split_part(gram, ' ', 2) AS w, SUM(n) AS cr FROM c2 GROUP BY 1),
tot AS (SELECT CAST(SUM(n) AS DOUBLE) AS nd FROM c2)
SELECT c2.gram, c2.n,
       CAST(FLOOR(ln(((tot.nd * c2.n) / lm.cl) / rm.cr) * 10000 + 0.5)
            AS BIGINT) AS pmi_e4
FROM c2
JOIN lm ON split_part(c2.gram, ' ', 1) = lm.w
JOIN rm ON split_part(c2.gram, ' ', 2) = rm.w
CROSS JOIN tot
WHERE c2.n >= 3
ORDER BY pmi_e4 DESC, gram
LIMIT 40
"""


def q_mixture_sample(sf_dir: str):
    """Token-budget mixture take: each language contributes ~budget tokens
    (5000 en / 2000 others) in deterministic md5 order — the data-mixing
    primitive, distributed within group via the keyed prefix scan."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ocr_suite_ray.stages.contamination import token_budget_mixture

    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang"])

    def _w(t: pa.Table) -> pa.Table:
        n = pc.list_value_length(pc.split_pattern(t["text"], " "))
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "lang": t["lang"],
                "n_tokens": pc.cast(n, pa.int64()),
            }
        )

    weighted = ds.map_batches(_w, batch_format="pyarrow")
    return token_budget_mixture(
        weighted,
        "lang",
        "doc_id",
        "n_tokens",
        budgets={"en": 5000},
        default_budget=2000,
    )


SQL_MIXTURE_SAMPLE = """
WITH base AS (
  SELECT doc_id, lang, len(string_split(text, ' ')) AS n_tokens,
         substr(md5(CAST(doc_id AS VARCHAR) || 'mix'), 1, 8) || '-' ||
         lpad(CAST(doc_id AS VARCHAR), 20, '0') AS okey
  FROM documents
),
c AS (
  SELECT doc_id, lang, n_tokens,
         CAST(SUM(n_tokens) OVER (PARTITION BY lang ORDER BY okey)
           - n_tokens AS BIGINT) AS tokens_before
  FROM base
)
SELECT doc_id, lang, n_tokens, tokens_before
FROM c
WHERE tokens_before < CASE lang WHEN 'en' THEN 5000 ELSE 2000 END
"""


def q_ccnet_buckets(sf_dir: str):
    """CC-Net head/middle/tail perplexity split: equal-population buckets
    over the unigram-LM score rank (exact global quantiles via the
    distributed prefix-scan rank, not sampled cutoffs)."""
    from ocr_suite_ray.stages.text_ops import ccnet_perplexity_buckets

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ccnet_perplexity_buckets(ds)


SQL_CCNET_BUCKETS = """
WITH toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok FROM documents
),
counts AS (SELECT tok, COUNT(*) AS n FROM toks GROUP BY tok),
tot AS (SELECT CAST(SUM(n) AS DOUBLE) AS nn, CAST(COUNT(*) AS DOUBLE) AS vv
        FROM counts),
scored AS (
  SELECT t.doc_id,
         CAST(FLOOR(-AVG(ln((c.n + 1.0) / (tot.nn + tot.vv))) * 10000 + 0.5)
              AS BIGINT) AS lm_score_e4
  FROM toks t JOIN counts c USING (tok), tot
  GROUP BY t.doc_id
),
r AS (
  SELECT doc_id, lm_score_e4,
         ROW_NUMBER() OVER (ORDER BY lm_score_e4, doc_id) - 1 AS rk,
         COUNT(*) OVER () AS n
  FROM scored
)
SELECT doc_id, lm_score_e4,
       rk * 3 // n AS bucket,
       CASE rk * 3 // n WHEN 0 THEN 'head' WHEN 1 THEN 'middle'
            ELSE 'tail' END AS ppl_bucket
FROM r
"""


def q_chunk_docs(sf_dir: str):
    """Word-window chunking (size 32, overlap 8): the long-document
    splitter for fixed context windows; flat_map shape."""
    from ocr_suite_ray.stages.text_ops import chunk_documents

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return chunk_documents(ds, size=32, overlap=8)


SQL_CHUNK_DOCS = """
WITH d AS (SELECT doc_id, string_split(text, ' ') AS w FROM documents),
s AS (
  SELECT doc_id, w, unnest(range(0, len(w), 24)) AS i FROM d
)
SELECT doc_id, i // 24 AS chunk_id,
       array_to_string(w[i + 1 : i + 32], ' ') AS chunk_text,
       LEAST(32, len(w) - i) AS n_words
FROM s WHERE i < len(w)
"""


def q_bpe_stats(sf_dir: str):
    """Distributed BPE tokenizer training (64 merges learned from the
    corpus word-type table) + encode pass emitting per-doc subword counts.
    Full DuckDB twin: ``SQL_BPE_STATS`` unrolls the 64-merge recursion
    over materialized word-table CTEs and expresses the encode as a
    per-word subword-length join (the sequential-vs-rank-priority
    equivalence note lives on the SQL constant); the sequential
    pure-python oracle additionally lives in tests/test_contamination.py."""
    from ocr_suite_ray.stages.text_ops import bpe_encode, bpe_train_ref

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    merges_ref = bpe_train_ref(ds, n_merges=64)
    return bpe_encode(ds, merges_ref)


def q_bpe_merges(sf_dir: str):
    """First 4 BPE merges learned from the corpus word-type table —
    the oracle-mode window into ``bpe_train_ref``: every distributed piece
    (per-block token partials, the vocab-keyed tree reduce, the merge
    loop's count-then-lex-last argmax and greedy left-to-right merge
    application) must reproduce DuckDB's unrolled 4-step recursion
    exactly. The 64-merge production row (``bpe_stats``) keeps its
    sequential pure-python oracle in tests."""
    import ray
    import pyarrow as pa_mod

    from ocr_suite_ray.stages.text_ops import bpe_train_ref

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    merges = ray.get(bpe_train_ref(ds, n_merges=4))
    return pa_mod.table(
        {
            "step": pa_mod.array(range(1, len(merges) + 1), pa_mod.int64()),
            "lhs": pa_mod.array([a for a, _ in merges], pa_mod.string()),
            "rhs": pa_mod.array([b for _, b in merges], pa_mod.string()),
        }
    )


# Each wN is the word-type table as a chr(31)-delimited symbol string
# ('\x1f sym \x1f\x1f sym \x1f...'): double inner delimiters make one
# SQL replace() exactly the greedy non-overlapping left-to-right merge
# scan, and mN picks max (count, lhs, rhs) — the engine's
# count-then-lexicographically-last tie-break.
_BPE_STEP = """
p{i} AS (
  SELECT pr[1] AS a, pr[2] AS b, SUM(n) AS cnt FROM (
    SELECT n, unnest(list_zip(syms[:-1], syms[2:])) AS pr FROM (
      SELECT n, str_split(trim(s, chr(31)), chr(31) || chr(31)) AS syms
      FROM w{h}
    )
  ) WHERE pr[2] IS NOT NULL
  GROUP BY 1, 2
),
m{i} AS (SELECT a, b FROM p{i} ORDER BY cnt DESC, a DESC, b DESC LIMIT 1),
w{i} AS MATERIALIZED (
  SELECT w.tok, w.n,
         replace(w.s, chr(31) || m.a || chr(31) || chr(31) || m.b || chr(31),
                 chr(31) || m.a || m.b || chr(31)) AS s
  FROM w{h} w, m{i} m
)"""

# Each w{i} is referenced twice by step i+1 (pair counting AND the merge
# apply); without MATERIALIZED, DuckDB inlines the chain and the scan count
# doubles per step — 2^64 plans for the 64-merge twin ("Too many open
# files" long before that). Materializing keeps it linear.
SQL_BPE_MERGES = (
    """
WITH w0 AS MATERIALIZED (
  SELECT tok, CAST(COUNT(*) AS BIGINT) AS n,
         chr(31) || array_to_string(
             list_transform(range(1, length(tok) + 1),
                            i -> substring(tok, i, 1)),
             chr(31) || chr(31)) || chr(31) AS s
  FROM (SELECT unnest(str_split(text, ' ')) AS tok FROM documents)
  WHERE tok <> '' GROUP BY tok
),
"""
    + ",\n".join(_BPE_STEP.format(i=i, h=i - 1) for i in range(1, 5))
    + """
SELECT * FROM (
  SELECT CAST(1 AS BIGINT) AS step, a AS lhs, b AS rhs FROM m1
  UNION ALL SELECT 2, a, b FROM m2
  UNION ALL SELECT 3, a, b FROM m3
  UNION ALL SELECT 4, a, b FROM m4
) ORDER BY step
"""
)

# Full-depth twin for the production bpe_stats row: the same merge
# recursion unrolled to 64 steps, then the encode pass expressed over the
# word-TYPE table — per-word subword count = inner-delimiter pairs in the
# final symbol string + 1 — joined back to per-doc token occurrences.
# Sequential exhaustive replace (what the chain computes) equals the
# engine's rank-priority encode because a later merge can only create a
# pair (a,b) adjacency by producing the exact symbol a or b, and both
# components of an earlier merge predate it; the equivalence is also
# pinned empirically by this twin at 64 merges. n_tokens counts ALL
# split segments (empties included, matching text_ops._tokens); empty
# tokens encode to 0 symbols, hence the w0 tok <> '' filter is safe.
SQL_BPE_STATS = (
    """
WITH w0 AS MATERIALIZED (
  SELECT tok, CAST(COUNT(*) AS BIGINT) AS n,
         chr(31) || array_to_string(
             list_transform(range(1, length(tok) + 1),
                            i -> substring(tok, i, 1)),
             chr(31) || chr(31)) || chr(31) AS s
  FROM (SELECT unnest(str_split(text, ' ')) AS tok FROM documents)
  WHERE tok <> '' GROUP BY tok
),
"""
    + ",\n".join(_BPE_STEP.format(i=i, h=i - 1) for i in range(1, 65))
    + """,
wlen AS (
  SELECT tok,
         CAST((length(trim(s, chr(31))) -
               length(replace(trim(s, chr(31)), chr(31) || chr(31), ''))) // 2
              + 1 AS BIGINT) AS n_sub
  FROM w64
),
dt AS (
  SELECT doc_id, unnest(str_split(text, ' ')) AS tok FROM documents
)
SELECT d.doc_id,
       CAST(len(str_split(d.text, ' ')) AS BIGINT) AS n_tokens,
       CAST(COALESCE(s.n_bpe, 0) AS BIGINT) AS n_bpe
FROM documents d
LEFT JOIN (
  SELECT dt.doc_id, SUM(w.n_sub) AS n_bpe
  FROM dt JOIN wlen w ON dt.tok = w.tok
  GROUP BY dt.doc_id
) s USING (doc_id)
"""
)


def _split_grams(t):
    """``q_curation_v2``'s eval 5-gram table: the kind-0 rows of the fused
    artifact table (``None`` if there are none)."""
    import pyarrow.compute as pc

    if t is None:
        return None
    g = t.filter(pc.equal(t["kind"], 0)).select(["s"])
    return g.rename_columns(["gram"]) if g.num_rows else None


def _split_counts(t):
    """``q_curation_v2``'s unigram counts: the kind-1 rows of the fused
    artifact table."""
    import pyarrow.compute as pc

    if t is None:
        return None
    return t.filter(pc.equal(t["kind"], 1)).select(["s", "n"]).rename_columns(
        ["tok", "n"]
    )


def q_curation_v2(sf_dir: str):
    """Full-stack curation composite: quality gate (>= 70) → benchmark
    decontamination (drop docs sharing a word-5-gram with the eval slice
    doc_id % 50 == 0, eval slice itself excluded) → exact dedup (keep min
    doc_id per distinct text) → unigram-LM score annotation (LM trained on
    the FULL raw corpus).

    Scale shape: the eval gram table and the unigram count table are built
    from ONE fused corpus pass (per-block partials tagged by kind, one tree
    reduce, a worker-side split into the two broadcast refs — at sf0.1/32
    every extra Dataset execution costs ~2-3 s of fixed ramp, so artifact
    builds fuse); the corpus then makes ONE enrichment pass computing
    quality + lang + contamination + LM score per batch (no joins — both
    lookups are worker-cached broadcasts), one vectorized gate, one keyed
    top-1 reduce for the dedup. The multi-ref per-batch resolution is why
    ``_bcast`` caches several entries. The top-1 exchange is payload-free
    (text dropped in ``_enrich``; ~100 B/row) — cf. the curate-pipeline
    corpus-shuffle fix in BASELINE.md round 3."""
    import hashlib as _hl

    import numpy as _np
    import pyarrow as pa_mod
    import pyarrow.compute as pc_mod

    from ocr_suite_ray.stages.contamination import _word_ngrams, ngram_hit_counts
    from ocr_suite_ray.stages.relational import topk_per_group
    from ocr_suite_ray.state.dupset import coalesce_reduce, remote_fn
    from ocr_suite_ray.stages.text_ops import (
        _tokens,
        lang_id_batch,
        lm_scores,
        quality_score,
    )

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    # fused artifact build: kind 0 = distinct eval 5-grams, kind 1 =
    # corpus unigram counts — one corpus read instead of two
    def _partial(t: pa_mod.Table) -> pa_mod.Table:
        _nt, flat, _off = _tokens(t["text"])
        vc = pc_mod.value_counts(flat)
        kinds = [pa_mod.array(_np.ones(len(vc), _np.int32), pa_mod.int32())]
        ss = [vc.field("values")]
        ns = [pc_mod.cast(vc.field("counts"), pa_mod.int64())]
        ev = t.filter(pa_mod.array(t["doc_id"].to_numpy() % 50 == 0))
        if ev.num_rows:
            _rows, grams = _word_ngrams(ev["text"], 5)
            grams = pc_mod.unique(grams)
            kinds.append(
                pa_mod.array(_np.zeros(len(grams), _np.int32), pa_mod.int32())
            )
            ss.append(grams)
            ns.append(pa_mod.array(_np.ones(len(grams), _np.int64), pa_mod.int64()))
        return pa_mod.table(
            {
                "kind": pa_mod.concat_arrays([a.combine_chunks() if isinstance(a, pa_mod.ChunkedArray) else a for a in kinds]),
                "s": pa_mod.concat_arrays([a.combine_chunks() if isinstance(a, pa_mod.ChunkedArray) else a for a in ss]),
                "n": pa_mod.concat_arrays([a.combine_chunks() if isinstance(a, pa_mod.ChunkedArray) else a for a in ns]),
            }
        )

    def _combine(t: pa_mod.Table) -> pa_mod.Table:
        g = t.group_by(["kind", "s"]).aggregate([("n", "sum")])
        return g.rename_columns(["kind", "s", "n"])

    combined_ref = coalesce_reduce(
        ds.map_batches(_partial, batch_format="pyarrow"),
        _combine,
        None,
        materialize=False,
    )

    gram_ref = remote_fn(_split_grams).remote(combined_ref)
    counts_ref = remote_fn(_split_counts).remote(combined_ref)

    def _enrich(t: pa_mod.Table) -> pa_mod.Table:
        t = t.filter(pa_mod.array(t["doc_id"].to_numpy() % 50 != 0))
        if not len(t):
            return pa_mod.table(
                {
                    "doc_id": pa_mod.array([], pa_mod.int64()),
                    "n_tokens": pa_mod.array([], pa_mod.int64()),
                    "quality": pa_mod.array([], pa_mod.int64()),
                    "lang_pred": pa_mod.array([], pa_mod.string()),
                    "lm_score_e4": pa_mod.array([], pa_mod.int64()),
                    "text_hash": pa_mod.array([], pa_mod.string()),
                }
            )
        out = quality_score(t).append_column(
            "lang_pred", lang_id_batch(t)["lang_pred"]
        )
        out = out.append_column(
            "lm_score_e4",
            pa_mod.array(lm_scores(t["text"], counts_ref), pa_mod.int64()),
        )
        out = out.append_column(
            "n_contam",
            pa_mod.array(ngram_hit_counts(t["text"], gram_ref, 5), pa_mod.int64()),
        )
        out = out.append_column(
            "text_hash",
            pa_mod.array(
                [_hl.md5(x.encode()).hexdigest() for x in t["text"].to_pylist()]
            ),
        )
        out = out.filter(
            pc_mod.and_(
                pc_mod.greater_equal(out["quality"], 70),
                pc_mod.equal(out["n_contam"], 0),
            )
        )
        return out.select(
            ["doc_id", "n_tokens", "quality", "lang_pred", "lm_score_e4", "text_hash"]
        )

    gated = ds.map_batches(_enrich, batch_format="pyarrow")
    kept = topk_per_group(gated, ["text_hash"], "doc_id", 1, descending=False)
    return kept.select_columns(
        ["doc_id", "n_tokens", "quality", "lang_pred", "lm_score_e4"]
    )


SQL_CURATION_V2 = """
WITH ev AS (
  SELECT DISTINCT w[i] || ' ' || w[i+1] || ' ' || w[i+2] || ' ' || w[i+3]
                  || ' ' || w[i+4] AS gram
  FROM (SELECT w, unnest(range(1, len(w) - 3)) AS i
        FROM (SELECT doc_id, string_split(text, ' ') AS w FROM documents)
        WHERE doc_id % 50 = 0 AND len(w) >= 5)
),
corpgrams AS (
  SELECT doc_id, w[i] || ' ' || w[i+1] || ' ' || w[i+2] || ' ' || w[i+3]
                 || ' ' || w[i+4] AS gram
  FROM (SELECT doc_id, w, unnest(range(1, len(w) - 3)) AS i
        FROM (SELECT doc_id, string_split(text, ' ') AS w FROM documents)
        WHERE doc_id % 50 <> 0 AND len(w) >= 5)
),
contam AS (SELECT DISTINCT c.doc_id FROM corpgrams c JOIN ev USING (gram)),
toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok FROM documents
),
counts AS (SELECT tok, COUNT(*) AS n FROM toks GROUP BY tok),
tot AS (SELECT CAST(SUM(n) AS DOUBLE) AS nn, CAST(COUNT(*) AS DOUBLE) AS vv
        FROM counts),
lm AS (
  SELECT t.doc_id,
         CAST(FLOOR(-AVG(ln((c.n + 1.0) / (tot.nn + tot.vv))) * 10000 + 0.5)
              AS BIGINT) AS lm_score_e4
  FROM toks t JOIN counts c USING (tok), tot
  GROUP BY t.doc_id
),
t AS (
  SELECT doc_id, text,
         GREATEST(len(string_split(text, ' ')), 1) AS n_tokens,
         len(list_filter(string_split(text, ' '),
                         x -> x IN ('the','a','and','of','to'))) AS n_stop,
         len(text) - (len(string_split(text, ' ')) - 1) AS sum_len,
         len(list_filter(string_split(text,' '),
             x -> x IN ('the','a','fast','slow','small','big'))) AS c_en,
         len(list_filter(string_split(text,' '),
             x -> x IN ('query','table','join','scan','filter','agg'))) AS c_query,
         len(list_filter(string_split(text,' '),
             x -> x IN ('stream','window','batch','spark','vector'))) AS c_stream
  FROM documents
  WHERE doc_id % 50 <> 0
    AND doc_id NOT IN (SELECT doc_id FROM contam)
),
f AS (
  SELECT doc_id, text, n_tokens, c_en, c_query, c_stream,
         CAST(ROUND(n_stop * 10000.0 / n_tokens, 0) AS BIGINT) AS stop_ratio_e4,
         CAST(ROUND(sum_len * 100.0 / n_tokens, 0) AS BIGINT) AS mean_token_len_e2
  FROM t
),
q AS (
  SELECT doc_id, text, n_tokens, c_en, c_query, c_stream,
         CAST(CASE WHEN n_tokens BETWEEN 50 AND 1000 THEN 40 ELSE 0 END
          + CASE WHEN stop_ratio_e4 BETWEEN 200 AND 4000 THEN 30 ELSE 0 END
          + CASE WHEN mean_token_len_e2 BETWEEN 300 AND 1200 THEN 30 ELSE 0 END
          AS BIGINT) AS quality
  FROM f
),
g AS (
  SELECT *, ROW_NUMBER() OVER (PARTITION BY md5(text) ORDER BY doc_id) AS rn
  FROM q WHERE quality >= 70
)
SELECT g.doc_id, g.n_tokens, g.quality,
       CASE
         WHEN c_en = 0 AND c_query = 0 AND c_stream = 0 THEN 'und'
         WHEN c_en >= c_query AND c_en >= c_stream THEN 'en'
         WHEN c_query >= c_stream THEN 'query'
         ELSE 'stream'
       END AS lang_pred,
       lm.lm_score_e4
FROM g JOIN lm ON g.doc_id = lm.doc_id
WHERE rn = 1
"""


def q_tfidf_top(sf_dir: str):
    """Top-3 TF-IDF keywords per document (keyword extraction), fixed-point
    e4, deterministic tie-break (score desc, term asc)."""
    from ocr_suite_ray.stages.text_ops import tfidf_top_terms

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return tfidf_top_terms(ds, k=3)


SQL_TFIDF_TOP = """
WITH toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok FROM documents
),
tf AS (SELECT doc_id, tok, COUNT(*) AS tf FROM toks GROUP BY doc_id, tok),
df AS (SELECT tok, COUNT(DISTINCT doc_id) AS df FROM toks GROUP BY tok),
nd AS (SELECT CAST(COUNT(*) AS DOUBLE) AS n FROM documents),
scored AS (
  SELECT t.doc_id, t.tok AS term,
         CAST(FLOOR(t.tf * ln((nd.n + 1) / (d.df + 1)) * 10000 + 0.5)
              AS BIGINT) AS score_e4
  FROM tf t JOIN df d USING (tok), nd
),
ranked AS (
  SELECT *, ROW_NUMBER() OVER (PARTITION BY doc_id
                               ORDER BY score_e4 DESC, term ASC) AS rn
  FROM scored
)
SELECT doc_id, term, score_e4 FROM ranked WHERE rn <= 3
"""


def q_semantic_dedup(sf_dir: str):
    """SemDeDup over the embeddings table, run at ``n_clusters=1`` — the
    oracle-mode configuration: with ONE cluster the k-means partition has
    no effect (every row argmaxes to the single centroid), so the result
    is EXACTLY the connected components of the cosine >= 0.40 graph with
    the min-id representative kept — fully SQL-expressible (recursive
    min-label closure, same pattern as SQL_CLUSTER_DEDUP). The k > 1
    production path (identical code, only the partition differs) keeps its
    exact-semantics differential + partition-invariance oracles in
    tests/test_dedup_text.py. 0.40 matches ``embedding_near_dup``'s
    threshold — the sf embeddings are near-uniform, max pairwise cosine
    ~0.51."""
    from ocr_suite_ray.stages.similarity import semantic_dedup

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return semantic_dedup(ds, threshold_e4=4000, n_clusters=1)


SQL_SEMANTIC_DEDUP = """
WITH RECURSIVE pairs AS (
  SELECT a.vec_id AS u, b.vec_id AS v
  FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
  WHERE CAST(ROUND(list_cosine_similarity(
            CAST(a.embedding AS DOUBLE[]), CAST(b.embedding AS DOUBLE[])) * 10000, 0)
         AS BIGINT) >= 4000
), edges AS (
  SELECT u, v FROM pairs UNION ALL SELECT v AS u, u AS v FROM pairs
), reach(node, lab) AS (
  SELECT vec_id, vec_id FROM embeddings
  UNION
  SELECT e.v, r.lab FROM reach r JOIN edges e ON e.u = r.node
)
SELECT node AS vec_id, CAST(0 AS BIGINT) AS cluster,
       MIN(lab) AS rep_id,
       CAST(MIN(lab) <> node AS BIGINT) AS is_dup
FROM reach GROUP BY node
"""


def q_decontaminate(sf_dir: str):
    """Benchmark decontamination (GPT-3 app. C method): flag corpus docs
    sharing word 5-grams with the eval slice (doc_id % 50 == 0). The eval
    gram set is tree-reduced worker-side and broadcast once; the corpus
    pass is one streaming ``is_in`` kernel — no shuffle."""
    import pyarrow as pa_mod

    from ocr_suite_ray.stages.contamination import decontaminate

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def _is_eval(t: pa_mod.Table) -> pa_mod.Table:
        return t.filter(pa_mod.array(t["doc_id"].to_numpy() % 50 == 0))

    def _is_corpus(t: pa_mod.Table) -> pa_mod.Table:
        return t.filter(pa_mod.array(t["doc_id"].to_numpy() % 50 != 0))

    ev = ds.map_batches(_is_eval, batch_format="pyarrow")
    corpus = ds.map_batches(_is_corpus, batch_format="pyarrow")
    return decontaminate(corpus, ev, n=5, min_hits=1)


SQL_DECONTAMINATE = """
WITH docs AS (
  SELECT doc_id, string_split(text, ' ') AS w FROM documents
),
ev AS (
  SELECT DISTINCT w[i] || ' ' || w[i+1] || ' ' || w[i+2] || ' ' || w[i+3]
                  || ' ' || w[i+4] AS gram
  FROM (SELECT w, unnest(range(1, len(w) - 3)) AS i
        FROM docs WHERE doc_id % 50 = 0 AND len(w) >= 5)
),
corpus AS (
  SELECT doc_id, w[i] || ' ' || w[i+1] || ' ' || w[i+2] || ' ' || w[i+3]
                 || ' ' || w[i+4] AS gram
  FROM (SELECT doc_id, w, unnest(range(1, len(w) - 3)) AS i
        FROM docs WHERE doc_id % 50 <> 0 AND len(w) >= 5)
),
hits AS (
  SELECT c.doc_id, COUNT(DISTINCT c.gram) AS n_contam
  FROM corpus c JOIN ev USING (gram) GROUP BY c.doc_id
)
SELECT d.doc_id, COALESCE(h.n_contam, 0) AS n_contam,
       CAST(COALESCE(h.n_contam, 0) >= 1 AS BIGINT) AS flagged
FROM docs d LEFT JOIN hits h USING (doc_id)
WHERE d.doc_id % 50 <> 0
"""


def q_dup_span_scrub(sf_dir: str):
    """Exact duplicated-span removal (Lee et al. 2022 at word-gram
    granularity): delete every token covered by a word 3-gram occurring
    >= 2 times corpus-wide, re-joining the survivors. Pass 1 is a
    (gram, count) bucket shuffle reduced to the dup-rate-bound dup-gram
    broadcast; pass 2 is one streaming is_in + delta-cumsum coverage
    pass."""
    from ocr_suite_ray.stages.dedup_text import dup_span_scrub

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return dup_span_scrub(ds, k=3, min_count=2)


# ts[i:i+2] is DuckDB's 1-based INCLUSIVE list slice — 3 tokens from i.
# Token positions keep empty split segments (engine tokenization is a bare
# split on ' '); a gram hit at pos covers pos..pos+2; kept tokens re-join
# with single spaces, NULL-aggregating to '' for fully-scrubbed docs.
SQL_DUP_SPAN_SCRUB = """
WITH lists AS (
  SELECT doc_id, str_split(text, ' ') AS ts FROM documents
),
grams AS (
  SELECT doc_id,
         unnest(range(1, greatest(len(ts) - 1, 1))) AS pos,
         unnest(list_transform(range(1, greatest(len(ts) - 1, 1)),
                               i -> array_to_string(ts[i:i+2], ' '))) AS gram
  FROM lists
),
dupg AS (SELECT gram FROM grams GROUP BY gram HAVING COUNT(*) >= 2),
hits AS (SELECT g.doc_id, g.pos FROM grams g JOIN dupg USING (gram)),
covered AS (
  SELECT DISTINCT h.doc_id, h.pos + u.i AS cpos
  FROM hits h CROSS JOIN (SELECT unnest(range(0, 3)) AS i) u
),
toks AS (
  SELECT doc_id, unnest(ts) AS tok, unnest(range(1, len(ts) + 1)) AS pos
  FROM lists
),
kept AS (
  SELECT t.doc_id, t.tok, t.pos
  FROM toks t LEFT JOIN covered c ON t.doc_id = c.doc_id AND t.pos = c.cpos
  WHERE c.doc_id IS NULL
)
SELECT l.doc_id,
       COALESCE(kk.text, '') AS text,
       CAST(COALESCE(kk.n_kept, 0) AS BIGINT) AS n_kept,
       CAST(len(l.ts) - COALESCE(kk.n_kept, 0) AS BIGINT) AS n_removed
FROM lists l
LEFT JOIN (
  SELECT doc_id, string_agg(tok, ' ' ORDER BY pos) AS text,
         COUNT(*) AS n_kept
  FROM kept GROUP BY doc_id
) kk USING (doc_id)
"""


def q_stratified_sample(sf_dir: str):
    """Per-language deterministic subsample (md5-mod thresholds per
    stratum) — the corpus-mixing primitive for rebalancing a training
    set's language distribution."""
    from ocr_suite_ray.stages.contamination import stratified_sample

    ds = _read(sf_dir, "documents", ["doc_id", "lang"])
    return stratified_sample(
        ds,
        "lang",
        "doc_id",
        {"en": 5000, "de": 2000, "fr": 1000},
        default_e4=500,
    )


SQL_STRATIFIED_SAMPLE = """
SELECT doc_id, lang FROM documents
WHERE CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8)) AS UBIGINT) % 10000 <
      CASE lang WHEN 'en' THEN 5000 WHEN 'de' THEN 2000 WHEN 'fr' THEN 1000
           ELSE 500 END
"""


def q_weighted_sample(sf_dir: str):
    """Sample 50 documents with probability proportional to n_chars
    (Efraimidis-Spirakis exponential race, md5-keyed so the draw is
    reproducible at any parallelism) — the quality-weighted subsampling
    primitive of curation recipes."""
    from ocr_suite_ray.stages.contamination import weighted_sample

    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    out = weighted_sample(ds, "doc_id", "n_chars", k=50, seed="ws")
    # project the sample MEMBERSHIP only: the exponential-race score is
    # -ln(u)/w, and ln is a libm transcendental — DuckDB's LN and
    # np.log legitimately differ by 1 ulp on some inputs (measured
    # 5.4e-20 at sf0.01), which a raw-double hash compare would flag.
    # Membership itself is ulp-robust (the closest score pair is ~1e-8
    # relative vs 1e-16 ulp), and is the operator's semantic output.
    return out.drop_columns(["score"])


SQL_WEIGHTED_SAMPLE = """
SELECT doc_id,
       CAST(n_chars AS DOUBLE) AS n_chars
FROM (
  SELECT doc_id, n_chars,
         -LN((CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR) || '-ws'), 1, 8)) AS UBIGINT) + 0.5)
             / 4294967296.0) / n_chars AS score
  FROM documents
  WHERE n_chars > 0
  ORDER BY score ASC, doc_id ASC
  LIMIT 50
)
"""


def q_temperature_resample(sf_dir: str):
    """Rebalance the documents corpus across languages with alpha=0.5
    temperature sampling (mT5/XLM-R rule): high-resource languages are
    downsampled toward sqrt-proportional shares, target 4000 docs."""
    from ocr_suite_ray.stages.contamination import temperature_resample

    ds = _read(sf_dir, "documents", ["doc_id", "lang"])
    return temperature_resample(ds, "lang", "doc_id", target_total=4000)


SQL_TEMPERATURE_RESAMPLE = """
WITH n AS (SELECT lang, COUNT(*) AS cnt FROM documents GROUP BY lang),
     z AS (SELECT SUM(SQRT(cnt)) AS s FROM n),
     thr AS (
       SELECT lang,
              CAST(FLOOR(10000 * LEAST(4000 * SQRT(cnt) / z.s, cnt) / cnt)
                   AS BIGINT) AS t
       FROM n, z
     )
SELECT d.doc_id, d.lang
FROM documents d JOIN thr ON d.lang = thr.lang
WHERE CAST(('0x' || substr(md5(CAST(d.doc_id AS VARCHAR)), 1, 8)) AS UBIGINT)
      % 10000 < thr.t
"""


def q_group_quota(sf_dir: str):
    """Per-language running-character budget cap (keep docs in doc_id
    order while the language's cumulative n_chars stays <= 20000) — the
    per-domain contribution cap of curation recipes."""
    from ocr_suite_ray.stages.contamination import group_quota

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    return group_quota(ds, "lang", "doc_id", "n_chars", 20000)


SQL_GROUP_QUOTA = """
WITH w AS (
  SELECT doc_id, lang, n_chars,
         CAST(SUM(n_chars) OVER (PARTITION BY lang ORDER BY doc_id
                                 ROWS BETWEEN UNBOUNDED PRECEDING
                                 AND CURRENT ROW) AS BIGINT) AS running
  FROM documents
)
SELECT doc_id, lang, n_chars, running FROM w WHERE running <= 20000
"""


def q_linear_fit(sf_dir: str):
    """Distributed ridge/OLS fit (n_chars ~ token count) + residual scoring:
    per-block X^T X / X^T y partials tree-reduce to one tiny solve; the
    corpus streams once per pass. Residual = model-disagreement outlier
    signal."""
    import pyarrow as pa_mod
    import pyarrow.compute as pc_mod

    from ocr_suite_ray.stages.mlfit import fit_linear_ref, linear_residuals

    ds = _read(sf_dir, "documents", ["doc_id", "text", "n_chars"])

    def _feat(t: pa_mod.Table) -> pa_mod.Table:
        n_tok = pc_mod.list_value_length(pc_mod.split_pattern(t["text"], " "))
        return pa_mod.table(
            {
                "doc_id": t["doc_id"],
                "x_tok": pc_mod.cast(n_tok, pa_mod.float64()),
                "n_chars": t["n_chars"],
            }
        )

    feats = ds.map_batches(_feat, batch_format="pyarrow")
    ref = fit_linear_ref(feats, ["x_tok"], "n_chars")
    return linear_residuals(feats, ref, ["x_tok"], "n_chars")


SQL_LINEAR_FIT = """
WITH f AS (
  SELECT doc_id,
         CAST(len(string_split(text, ' ')) AS DOUBLE) AS x,
         CAST(n_chars AS DOUBLE) AS y
  FROM documents
),
s AS (
  SELECT CAST(COUNT(*) AS DOUBLE) AS n, SUM(x) AS sx, SUM(y) AS sy,
         SUM(x * x) AS sxx, SUM(x * y) AS sxy
  FROM f
),
w AS (
  SELECT (n * sxy - sx * sy) / (n * sxx - sx * sx) AS m,
         (sy - ((n * sxy - sx * sy) / (n * sxx - sx * sx)) * sx) / n AS c
  FROM s
)
SELECT doc_id,
       CAST(FLOOR((y - (w.m * x + w.c)) * 10000 + 0.5) AS BIGINT) AS resid_e4
FROM f, w
"""


def q_bm25_rank(sf_dir: str):
    """BM25 top-10 ranked search for a 3-term query — one query-bound stats
    reduce + one streaming score pass + a k-row top-k tree merge."""
    from ocr_suite_ray.stages.text_ops import bm25_rank

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return bm25_rank(ds, ["dup", "vector", "window"], top_k=10)


SQL_BM25 = """
WITH q(term) AS (VALUES ('dup'), ('vector'), ('window')),
d AS (SELECT doc_id, string_split(text, ' ') AS w FROM documents),
dl AS (SELECT doc_id, len(w) AS dl FROM d),
stats AS (
  SELECT CAST(COUNT(*) AS DOUBLE) AS n,
         CAST(SUM(dl) AS DOUBLE) / COUNT(*) AS avgdl
  FROM dl
),
tok AS (SELECT doc_id, unnest(w) AS term FROM d),
tf AS (
  SELECT t.doc_id, t.term, CAST(COUNT(*) AS DOUBLE) AS tf
  FROM tok t JOIN q ON t.term = q.term GROUP BY t.doc_id, t.term
),
df AS (SELECT term, CAST(COUNT(*) AS DOUBLE) AS df FROM tf GROUP BY term),
sc AS (
  SELECT tf.doc_id,
         SUM(ln(1.0 + (s.n - df.df + 0.5) / (df.df + 0.5))
             * tf.tf * (1.2 + 1.0)
             / (tf.tf + 1.2 * (1.0 - 0.75 + 0.75 * dl.dl / s.avgdl))) AS score
  FROM tf
  JOIN df ON tf.term = df.term
  JOIN dl ON tf.doc_id = dl.doc_id, stats s
  GROUP BY tf.doc_id
)
SELECT doc_id, CAST(FLOOR(score * 10000 + 0.5) AS BIGINT) AS bm25_e4
FROM sc ORDER BY score DESC, doc_id ASC LIMIT 10
"""


def q_shuffle_shards(sf_dir: str):
    """Deterministic global shuffle + round-robin shard assignment (the
    reproducible training-shard export order); one global sort + the
    narrow prefix-scan rank."""
    from ocr_suite_ray.stages.scan import shuffle_shards

    ds = _read(sf_dir, "documents", ["doc_id"])
    return shuffle_shards(ds, n_shards=8, salt="shuf")


SQL_SHUFFLE_SHARDS = """
WITH h AS (
  SELECT doc_id,
         substr(md5(CAST(doc_id AS VARCHAR) || 'shuf'), 1, 8) || '-' ||
         lpad(CAST(doc_id AS VARCHAR), 20, '0') AS okey
  FROM documents
),
r AS (
  SELECT doc_id, ROW_NUMBER() OVER (ORDER BY okey) - 1 AS rn FROM h
)
SELECT doc_id, CAST(rn % 8 AS BIGINT) AS shard, CAST(rn // 8 AS BIGINT) AS pos
FROM r
"""


def q_dsir_weights(sf_dir: str):
    """DSIR importance weights: target model = lang='en' docs, source model
    = the rest; per-doc mean token log-ratio, e4 fixed-point. Two broadcast
    vocab tables, zero corpus shuffles."""
    from ocr_suite_ray.stages.text_ops import dsir_weights

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "text"])
    return dsir_weights(ds, domain_col="lang", target_value="en")


SQL_DSIR = """
WITH toks AS (
  SELECT doc_id, lang, unnest(string_split(text, ' ')) AS tok FROM documents
),
vocab AS (SELECT DISTINCT tok FROM toks),
tc AS (SELECT tok, COUNT(*) AS n FROM toks WHERE lang = 'en' GROUP BY tok),
sc AS (SELECT tok, COUNT(*) AS n FROM toks WHERE lang <> 'en' GROUP BY tok),
tot AS (
  SELECT CAST((SELECT COALESCE(SUM(n), 0) FROM tc) AS DOUBLE) AS nt,
         CAST((SELECT COALESCE(SUM(n), 0) FROM sc) AS DOUBLE) AS ns,
         CAST((SELECT COUNT(*) FROM vocab) AS DOUBLE) AS vv
),
lr AS (
  SELECT v.tok,
         ln((COALESCE(tc.n, 0) + 1.0) / (tot.nt + tot.vv))
         - ln((COALESCE(sc.n, 0) + 1.0) / (tot.ns + tot.vv)) AS lr
  FROM vocab v LEFT JOIN tc USING (tok) LEFT JOIN sc USING (tok), tot
)
SELECT t.doc_id,
       CAST(FLOOR(AVG(l.lr) * 10000 + 0.5) AS BIGINT) AS dsir_e4
FROM toks t JOIN lr l USING (tok)
GROUP BY t.doc_id
"""


def q_segment_dedup(sf_dir: str):
    """Within-document repeated-segment removal (Gopher repetition
    cleaning): drop 2-word segments equal to an earlier segment of the same
    doc, reassemble. Embarrassingly parallel — no shuffle, no global state."""
    from ocr_suite_ray.stages.segments import segment_dedup_within

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return segment_dedup_within(ds, w=2)


SQL_SEGMENT_DEDUP = """
WITH segs AS (
  SELECT doc_id, i AS idx,
         array_to_string(string_split(text,' ')[i*2+1 : least((i+1)*2, len(string_split(text,' ')))], ' ') AS seg
  FROM documents,
       unnest(range(0, CAST(ceil(len(string_split(text,' '))/2.0) AS BIGINT))) AS t(i)
),
k AS (
  SELECT doc_id, idx, seg,
         ROW_NUMBER() OVER (PARTITION BY doc_id, seg ORDER BY idx) AS rn
  FROM segs
)
SELECT doc_id,
       COALESCE(string_agg(seg, ' ' ORDER BY idx) FILTER (WHERE rn = 1), '') AS text_dedup,
       CAST(COUNT(*) FILTER (WHERE rn > 1) AS BIGINT) AS n_dropped
FROM k GROUP BY doc_id
"""


def q_paragraph_dedup(sf_dir: str):
    """Corpus-wide duplicated-segment removal (CC-Net paragraph dedup over
    3-word segments): the dup-segment table is tree-reduced and broadcast
    once; the cleanup is one streaming is_in + reassembly pass."""
    from ocr_suite_ray.stages.segments import paragraph_dedup

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return paragraph_dedup(ds, w=3)


SQL_PARAGRAPH_DEDUP = """
WITH segs AS (
  SELECT doc_id, i AS idx,
         array_to_string(string_split(text,' ')[i*3+1 : least((i+1)*3, len(string_split(text,' ')))], ' ') AS seg
  FROM documents,
       unnest(range(0, CAST(ceil(len(string_split(text,' '))/3.0) AS BIGINT))) AS t(i)
),
dup AS (SELECT seg FROM segs GROUP BY seg HAVING COUNT(*) >= 2)
SELECT s.doc_id,
       COALESCE(string_agg(s.seg, ' ' ORDER BY s.idx) FILTER (WHERE d.seg IS NULL), '') AS text_clean,
       CAST(COUNT(*) FILTER (WHERE d.seg IS NOT NULL) AS BIGINT) AS n_removed
FROM segs s LEFT JOIN dup d ON s.seg = d.seg
GROUP BY s.doc_id
"""


def q_host_paragraph_dedup(sf_dir: str):
    """Within-SOURCE duplicated-segment removal (per-host boilerplate
    scrub): a segment is removed only when it repeats inside the same
    source — cross-source repeats survive, unlike ``paragraph_dedup``."""
    from ocr_suite_ray.stages.segments import grouped_paragraph_dedup

    ds = _read(sf_dir, "documents", ["doc_id", "source", "text"])
    return grouped_paragraph_dedup(ds, group_col="source", w=3)


SQL_HOST_PARAGRAPH_DEDUP = """
WITH segs AS (
  SELECT doc_id, source, i AS idx,
         array_to_string(string_split(text,' ')[i*3+1 : least((i+1)*3, len(string_split(text,' ')))], ' ') AS seg
  FROM documents,
       unnest(range(0, CAST(ceil(len(string_split(text,' '))/3.0) AS BIGINT))) AS t(i)
),
dup AS (
  SELECT source, seg FROM segs GROUP BY source, seg HAVING COUNT(*) >= 2
)
SELECT s.doc_id,
       COALESCE(string_agg(s.seg, ' ' ORDER BY s.idx) FILTER (WHERE d.seg IS NULL), '') AS text_clean,
       CAST(COUNT(*) FILTER (WHERE d.seg IS NOT NULL) AS BIGINT) AS n_removed
FROM segs s
LEFT JOIN dup d ON s.source = d.source AND s.seg = d.seg
GROUP BY s.doc_id
"""


def q_term_postings(sf_dir: str):
    """Inverted-index postings (term, doc_id, tf) for terms with document
    frequency in [2, 380] — the df-admitted term set is tree-reduced and
    broadcast once; the postings pass streams with no shuffle."""
    from ocr_suite_ray.stages.segments import term_postings

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return term_postings(ds, df_lo=2, df_hi=380)


SQL_TERM_POSTINGS = """
WITH tok AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS term FROM documents
),
tf AS (
  SELECT doc_id, term, CAST(COUNT(*) AS BIGINT) AS tf
  FROM tok GROUP BY doc_id, term
),
df AS (SELECT term, COUNT(*) AS df FROM tf GROUP BY term)
SELECT tf.term, tf.doc_id, tf.tf
FROM tf JOIN df ON tf.term = df.term
WHERE df.df BETWEEN 2 AND 380
"""


ML_QUERIES = {
    "token_stats": (q_token_stats, SQL_TOKEN_STATS),
    "quality_score": (q_quality, SQL_QUALITY),
    "lang_id": (q_lang_id, SQL_LANG_ID),
    "fingerprint_md5": (q_fingerprint, SQL_FINGERPRINT),
    "fingerprint_rolling": (q_fingerprint_rolling, SQL_FINGERPRINT_ROLLING),
    "dedup_exact": (q_dedup_exact, SQL_DEDUP_EXACT),
    "cross_corpus_dedup": (q_cross_corpus_dedup, SQL_CROSS_CORPUS_DEDUP),
    "cross_corpus_near_dup": (q_cross_corpus_near_dup, SQL_CROSS_NEAR_DUP),
    "ngram_jaccard_pairs": (q_ngram_jaccard, SQL_NGRAM_JACCARD),
    "substring_dup_pairs": (q_substring_dup, SQL_SUBSTRING_DUP),
    "decontaminate": (q_decontaminate, SQL_DECONTAMINATE),
    "dup_span_scrub": (q_dup_span_scrub, SQL_DUP_SPAN_SCRUB),
    "semantic_dedup": (q_semantic_dedup, SQL_SEMANTIC_DEDUP),
    "lm_score": (q_lm_score, SQL_LM_SCORE),
    "bigram_lm": (q_bigram_lm, SQL_BIGRAM_LM),
    "logistic_fit": (q_logistic_fit, SQL_LOGISTIC_FIT),
    "ccnet_buckets": (q_ccnet_buckets, SQL_CCNET_BUCKETS),
    "mixture_sample": (q_mixture_sample, SQL_MIXTURE_SAMPLE),
    "tfidf_top": (q_tfidf_top, SQL_TFIDF_TOP),
    "curation_v2": (q_curation_v2, SQL_CURATION_V2),
    "bpe_stats": (q_bpe_stats, SQL_BPE_STATS),
    "bpe_merges": (q_bpe_merges, SQL_BPE_MERGES),
    "chunk_docs": (q_chunk_docs, SQL_CHUNK_DOCS),
    "dsir_weights": (q_dsir_weights, SQL_DSIR),
    "shuffle_shards": (q_shuffle_shards, SQL_SHUFFLE_SHARDS),
    "bm25_rank": (q_bm25_rank, SQL_BM25),
    "linear_fit_residuals": (q_linear_fit, SQL_LINEAR_FIT),
    "segment_dedup": (q_segment_dedup, SQL_SEGMENT_DEDUP),
    "paragraph_dedup": (q_paragraph_dedup, SQL_PARAGRAPH_DEDUP),
    "host_paragraph_dedup": (q_host_paragraph_dedup, SQL_HOST_PARAGRAPH_DEDUP),
    "term_postings": (q_term_postings, SQL_TERM_POSTINGS),
    "stratified_sample": (q_stratified_sample, SQL_STRATIFIED_SAMPLE),
    "weighted_sample": (q_weighted_sample, SQL_WEIGHTED_SAMPLE),
    "temperature_resample": (q_temperature_resample, SQL_TEMPERATURE_RESAMPLE),
    "group_quota": (q_group_quota, SQL_GROUP_QUOTA),
    "minhash_lsh_pairs": (q_minhash_lsh, SQL_MINHASH_LSH),
    "simhash_table": (q_simhash, SQL_SIMHASH),
    "simhash_pairs": (q_simhash_pairs, SQL_SIMHASH_PAIRS),
    "knn_cosine": (q_knn_cosine, SQL_KNN_COSINE),
    "random_projection": (q_random_projection, SQL_RANDOM_PROJECTION),
    "embedding_near_dup": (q_embedding_near_dup, SQL_EMBEDDING_NEAR_DUP),
    "ann_lsh_pairs": (q_ann_lsh, SQL_ANN_LSH),
    "ann_ivf_knn": (q_ann_ivf, SQL_KNN_COSINE),
    "cluster_dedup": (q_cluster_dedup, SQL_CLUSTER_DEDUP),
    "cluster_dedup_best": (q_cluster_dedup_best, SQL_CLUSTER_DEDUP_BEST),
    "curation_pipeline": (q_curation, SQL_CURATION),
    "curation_funnel": (q_curation_funnel, SQL_CURATION_FUNNEL),
    "pii_scrub": (q_pii_scrub, SQL_PII_SCRUB),
    "dataset_split": (q_dataset_split, SQL_DATASET_SPLIT),
    "repetition_ratio": (q_repetition, SQL_REPETITION),
    "gopher_gate": (q_gopher_gate, SQL_GOPHER_GATE),
    "c4_line_filter": (q_c4_line_filter, SQL_C4_LINE_FILTER),
    "badword_filter": (q_badword_filter, SQL_BADWORD_FILTER),
    "dup_ngrams": (q_dup_ngrams, SQL_DUP_NGRAMS),
    "vocab_top": (q_vocab_top, SQL_VOCAB_TOP),
    "seq_packing": (q_seq_packing, SQL_SEQ_PACKING),
    "media_probe": (q_media_probe, SQL_MEDIA_PROBE),
    "url_normalize": (q_url_normalize, SQL_URL_NORMALIZE),
    "host_stats": (q_host_stats, SQL_HOST_STATS),
    "link_pagerank": (q_link_pagerank, SQL_LINK_PAGERANK),
    "graph_components": (q_graph_components, SQL_GRAPH_COMPONENTS),
    "host_quota": (q_host_quota, SQL_HOST_QUOTA),
    "unicode_normalize": (q_unicode_normalize, SQL_UNICODE_NORMALIZE),
    "host_rollup": (q_host_rollup, SQL_HOST_ROLLUP),
    "collocations": (q_collocations, SQL_COLLOCATIONS),
    "corpus_overlap": (q_corpus_overlap, SQL_CORPUS_OVERLAP),
    "host_split": (q_host_split, SQL_HOST_SPLIT),
}
