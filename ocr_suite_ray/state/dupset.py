"""Distributed dup-key membership — the driver never holds a key list.

The flagship dedup (newest-capture-wins per url, ``stages/dedup.py``) and the
finalize split need ONE piece of global state: "which urls have more than one
capture?". Round 1 built that set with ``take_all()`` + a Python list on the
driver — at 10^12 docs with a ~2% dup rate that is ~2x10^10 strings in driver
heap, the pipeline's only real scale-killer. This module replaces it:

1. **Count** duplicates distributively: per-block vectorized (url, n)
   partials, merged in a remote tree (``coalesce_reduce``) or via the
   groupby shuffle — the driver sees only ObjectRefs.
2. **Materialize** the dup-url table once in the object store (and
   optionally as a parquet artifact for resume) — written by a worker task.
3. **Build** the broadcast membership structure in a worker task: an exact
   Arrow value set below ``max_exact`` keys, a Bloom filter above (false
   positives only route a url through the exact winners reduce — semantics
   unchanged, see ``state/bloom.py``). ``ray.put``-equivalent: the payload
   lives in the object store once; every actor/task reads the local copy.

Scale contract: the merged dup-key table and the membership build are
dup-rate bound (one worker must hold the dup keys once). Beyond that, use
``dedup_latest(strategy="bucket")`` — the full shuffle needs no membership.

Reference analogue: the ``is_frame_processed`` semi-join / UNIQUE-index
membership check (``src/common/database.cpp:58-60``), taken distributed.
"""

from __future__ import annotations

import functools
import hashlib
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ocr_suite_ray.state.bloom import BloomFilter

_FANIN = 32


def tree_reduce_refs(refs: list, combine_fn, final_fn=None, materialize: bool = True):
    """Tree-reduce a list of ObjectRefs to Arrow tables with remote tasks —
    the ref-level core of ``coalesce_reduce`` (see its contract); also used
    directly over per-file read tasks to skip a Dataset execution's fixed
    ramp for small narrow reductions."""
    import ray

    @ray.remote
    def _merge(final: bool, *tables):
        import pandas as _pd

        live = []
        for t in tables:
            if t is None:
                continue
            if isinstance(t, _pd.DataFrame):
                # raw Dataset blocks can be pandas (map_groups output);
                # normalize here instead of Dataset.to_arrow_refs (see
                # coalesce_reduce for why that API is avoided)
                if len(t) == 0:
                    continue
                t = pa.Table.from_pandas(t, preserve_index=False).replace_schema_metadata(None)
            elif t.num_rows == 0:
                continue
            live.append(t)
        if not live:
            return None
        t = combine_fn(pa.concat_tables(live).combine_chunks())
        return final_fn(t) if (final and final_fn is not None) else t

    while len(refs) > _FANIN:
        refs = [
            _merge.remote(False, *refs[i : i + _FANIN])
            for i in range(0, len(refs), _FANIN)
        ]
    root = _merge.remote(True, *refs)
    return ray.get(root) if materialize else root


@functools.cache
def remote_fn(fn):
    """The Ray remote function of module-level ``fn``, made once per
    process. A ``@ray.remote`` defined inside a call is exported again on
    every call, and every worker loads each copy before running it; this
    one is exported once per Ray session."""
    import ray

    return ray.remote(fn)


def _or_empty(t, schema):
    if t is not None and (t.num_rows or schema is None):
        return t
    return schema.empty_table() if schema is not None else pa.table({})


def block_refs(ds) -> list:
    """The block ObjectRefs of ``ds``, executing it once (see
    ``coalesce_reduce`` for why not ``Dataset.to_arrow_refs``)."""
    return [r for b in ds.iter_internal_ref_bundles() for r in b.block_refs]


def dataset_from_root(root, schema: "pa.Schema | None" = None):
    """One-block Dataset over a tree-reduce root ref. The root resolves to
    ``None`` when every input block was empty (``tree_reduce_refs``'s
    contract), and ``from_arrow_refs`` would crash on a ``None`` block — so
    a worker task swaps a ``None`` or zero-row root for an empty table of
    the declared ``schema`` (a ``None`` root becomes a zero-column table
    when none is declared). The root's rows never pass through the
    driver."""
    import ray.data as rd

    return rd.from_arrow_refs([remote_fn(_or_empty).remote(root, schema)])


def coalesce_reduce(ds, combine_fn, final_fn=None, materialize: bool = True):
    """Tree-reduce ``ds``'s blocks with remote tasks: ``combine_fn``
    (Table -> Table, associative) at every fan-in level, ``final_fn`` once at
    the root. The narrow global-reduce for pre-combined small data — cheaper
    than ``repartition(1)`` (several seconds of executor overhead) and keeps
    the merge off the driver. Only for data a single worker can hold
    (pre-reduced keys, dup subsets); big data takes the shuffle paths.

    Resolves to ``None`` when every block is empty: empty blocks skip
    upstream map_batches UDFs and keep their pre-UDF schema, so neither
    combine_fn nor final_fn can be safely applied to them.

    ``materialize=False`` returns the root ObjectRef instead of the value —
    the result never touches the driver.

    Block refs are taken RAW from ``iter_internal_ref_bundles()``, not via
    ``Dataset.to_arrow_refs()``: that API follows its execution with
    ``schema(fetch_if_missing=True)``, and on a post-shuffle dataset the
    schema is not cached — the probe re-runs the ENTIRE upstream pipeline
    (sort barrier included) as a limit-1 plan. The round-4 10M minhash
    drive measured that as a full second 399 s candidate-generation pass.
    Pandas blocks (map_groups output) are normalized to Arrow inside the
    first merge task instead."""
    return tree_reduce_refs(block_refs(ds), combine_fn, final_fn, materialize)


def dup_key_table_ref_from_files(
    files: list, key_col: str = "url", num_shards: int = 16,
):
    """Like ``dup_key_table_ref`` (narrow path) but reads the key column with
    plain remote tasks — one per FILE — skipping a Dataset execution's
    ~1-2 s fixed ramp. Used by the flagship's url-only duplicate scan, where
    that ramp was a measurable share of the wall at bench scale.

    Each leaf iterates its file's row groups INSIDE the task (key-column
    reads, so worker memory stays bounded by one row group's keys, not the
    file) — on a real cluster the file count dwarfs the core count, and
    per-row-group task fan-out only multiplied scheduler/object overhead
    8x while the driver serially read parquet footers to enumerate the
    groups (~0.5 s for 16 files, on the pre-wave critical path).

    The merge is HASH-SHARDED: each leaf returns ``num_shards`` per-shard
    count tables (``num_returns``), each shard merges independently in
    parallel, and only the n>1 SUBSETS (dup-rate bound) reach the root
    concat+sort. Without sharding the root merge group-bys the whole key
    universe in one task — ~1.1 s serial on a 1M-url corpus, a constant
    that costs 3x more of the wall at 32 cpus than at 8 (the scaling tax
    of any driver-adjacent serial stage)."""
    import ray

    k = max(1, num_shards)

    @ray.remote(num_returns=k)
    def _file_counts(path: str):
        import pandas as pd

        f = pq.ParquetFile(path)
        parts = [
            f.read_row_group(rg, columns=[key_col])
            .group_by(key_col)
            .aggregate([(key_col, "count")])
            .select([key_col, f"{key_col}_count"])
            .rename_columns([key_col, "n"])
            for rg in range(f.metadata.num_row_groups)
        ]
        g = (
            pa.concat_tables(parts)
            .group_by(key_col)
            .aggregate([("n", "sum")])
            .select([key_col, "n_sum"])
            .rename_columns([key_col, "n"])
        )
        if k == 1:
            return g
        shard = pd.util.hash_array(g[key_col].to_numpy(zero_copy_only=False)) % k
        shard = pa.array(shard, pa.int64())
        return tuple(g.filter(pc.equal(shard, s)) for s in range(k))

    leaf_refs = [_file_counts.remote(path) for path in files]

    def _combine(t: pa.Table) -> pa.Table:
        g = t.group_by(key_col).aggregate([("n", "sum")])
        return g.select([key_col, "n_sum"]).rename_columns([key_col, "n"])

    def _dups_only(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater(t["n"], 1)).select([key_col])

    def _sorted_final(t: pa.Table) -> pa.Table:
        return t.take(pc.sort_indices(t, sort_keys=[(key_col, "ascending")]))

    if k == 1:
        return tree_reduce_refs(
            leaf_refs,
            _combine,
            lambda t: _sorted_final(_dups_only(t)),
            materialize=False,
        )
    # per-shard parallel merges (each holds 1/k of the key universe), then
    # one trivial root over the dup subsets
    shard_refs = [
        tree_reduce_refs(
            [leaf[s] for leaf in leaf_refs],
            _combine,
            _dups_only,
            materialize=False,
        )
        for s in range(k)
    ]
    return tree_reduce_refs(shard_refs, lambda t: t, _sorted_final, materialize=False)


def dup_key_table_ref(ds, key_col: str = "url", key_exchange: str = "narrow"):
    """ObjectRef[pa.Table | None]: the sorted table of keys appearing more
    than once in ``ds[key_col]``. Never materialized on the driver.

    ``narrow`` (default): per-block value-counts + remote tree merge — total
    exchange is the key column only; right whenever the distinct keys of the
    corpus fit one worker. ``shuffle``: groupby-aggregate for corpora beyond
    that — all-to-all on the key column only; the dup SUBSET (output) is
    still merged to one ref (dup-rate bound, see module contract)."""
    import ray

    def _sorted(t: pa.Table) -> pa.Table:
        return t.take(pc.sort_indices(t, sort_keys=[(key_col, "ascending")]))

    if key_exchange == "shuffle":
        # bucket shuffle + within-bucket C sum, not Dataset.aggregate —
        # the AggregateFn reduce walks corpus-cardinality keys in Python
        # (BASELINE.md round-3 C-reduce audit)
        from ocr_suite_ray.stages.relational import grouped_reduce_c

        def _vc(t: pa.Table) -> pa.Table:
            g = t.select([key_col]).group_by(key_col).aggregate([(key_col, "count")])
            return g.select([key_col, f"{key_col}_count"]).rename_columns(
                [key_col, "__n"]
            )

        def _fold(df):
            # dropna=False: the per-block Arrow combiner keeps null keys,
            # and the tree tier counts them — the shuffle tier must agree
            return df.groupby(key_col, as_index=False, dropna=False)["__n"].sum()

        counts = grouped_reduce_c(
            ds.map_batches(_vc, batch_format="pyarrow"), [key_col], _fold
        )
        dups = counts.map_batches(
            lambda t: (
                t.filter(pc.greater(t["__n"], 1)).select([key_col])
                if "__n" in t.column_names
                else t.select([key_col])
            ),
            batch_format="pyarrow",
        )
        return coalesce_reduce(dups, lambda t: t, _sorted, materialize=False)

    def _local_counts(t: pa.Table) -> pa.Table:
        g = t.select([key_col]).group_by(key_col).aggregate([(key_col, "count")])
        return g.select([key_col, f"{key_col}_count"]).rename_columns(
            [key_col, "n"]
        )

    def _combine(t: pa.Table) -> pa.Table:
        g = t.group_by(key_col).aggregate([("n", "sum")])
        return g.select([key_col, "n_sum"]).rename_columns([key_col, "n"])

    def _final(t: pa.Table) -> pa.Table:
        return _sorted(t.filter(pc.greater(t["n"], 1)).select([key_col]))

    partials = ds.map_batches(_local_counts, batch_format="pyarrow")
    return coalesce_reduce(partials, _combine, _final, materialize=False)


def dup_meta_ref(dup_ref, key_col: str = "url", persist_path: str | None = None):
    """Ref to (n_dups, fingerprint) of the dup-key table, computed
    worker-side; the driver receives two scalars on resolve. Optionally
    persists the table as a parquet artifact (atomic write) so a resumed run
    can reload it without re-scanning the input. The fingerprint is sha256
    over the sorted keys — stable across partitioning and replay. Returned
    unresolved so callers can overlap it with sibling tasks."""
    import ray

    @ray.remote
    def _meta(path, t):
        if t is None:
            t = pa.table({key_col: pa.array([], pa.string())})
        keys = t.column(key_col).to_pylist()
        fp = hashlib.sha256("\x00".join(keys).encode()).hexdigest()[:16]
        if path is not None:
            pq.write_table(t, path + ".tmp")
            os.replace(path + ".tmp", path)
        return t.num_rows, fp

    return _meta.remote(persist_path, dup_ref)


def dup_meta(dup_ref, key_col: str = "url", persist_path: str | None = None):
    """Blocking form of :func:`dup_meta_ref`."""
    import ray

    return ray.get(dup_meta_ref(dup_ref, key_col=key_col, persist_path=persist_path))


def load_dup_table_ref(path: str):
    """ObjectRef[pa.Table | None] from a persisted dup-key artifact."""
    import ray

    @ray.remote
    def _load(p):
        t = pq.read_table(p)
        return t if t.num_rows else None

    return _load.remote(path)


def membership_ref(dup_ref, key_col: str = "url", max_exact: int = 1_000_000):
    """ObjectRef to the broadcast membership payload: ``("exact", Array)``
    below ``max_exact`` keys, ``("bloom", BloomFilter)`` above. Built ONCE in
    a worker task; actors wrap it with ``DupMembership`` (one object-store
    read per actor, zero re-shipping per batch)."""
    import ray

    @ray.remote
    def _build(t):
        if t is None or t.num_rows == 0:
            return ("exact", pa.array([], pa.string()))
        keys = t.column(key_col).combine_chunks()
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.chunk(0) if keys.num_chunks else pa.array([], pa.string())
        if len(keys) <= max_exact:
            return ("exact", keys)
        bf = BloomFilter(len(keys), fpp=0.01)
        bf.add_many(keys.to_pylist())
        return ("bloom", bf)

    return _build.remote(dup_ref)


class DupMembership:
    """is_dup membership test over a built payload (see membership_ref).
    Bloom false positives only route a key through the exact winners reduce,
    which keeps a single capture unchanged — semantics identical, broadcast
    size bounded."""

    def __init__(self, payload: tuple):
        kind, data = payload
        self._exact = data if kind == "exact" else None
        self._bloom = data if kind == "bloom" else None

    @classmethod
    def from_keys(cls, keys, max_exact: int = 1_000_000) -> "DupMembership":
        """Driver-side ctor for small inputs and tests."""
        if len(keys) <= max_exact:
            return cls(("exact", pa.array(list(keys), pa.string())))
        bf = BloomFilter(len(keys), fpp=0.01)
        bf.add_many(keys)
        return cls(("bloom", bf))

    def flags(self, key_col) -> pa.Array:
        """0/1 int32 per row."""
        n = len(key_col)
        if self._exact is not None:
            if len(self._exact) == 0:
                return pa.array([0] * n, pa.int32())
            return pc.cast(pc.is_in(key_col, value_set=self._exact), pa.int32())
        mask = self._bloom.contains_many(key_col.to_pylist())
        return pa.array(mask.astype("int32"), pa.int32())

    def mask(self, key_col) -> pa.Array:
        """boolean per row (for filter())."""
        return pc.cast(self.flags(key_col), pa.bool_())

def winner_table_ref(partials_ds, key_col: str = "s", n_col: str = "n",
                     win_col: str = "u", num_buckets: int = 64):
    """ObjectRef[pa.Table | None]: the (key, winner) table of keys whose
    total count exceeds 1, from per-block partial tables ``(key_col,
    n_col, win_col)`` (count + min-winner per block-distinct key).

    The SHUFFLE-tier sibling of the fused tree reduce used by
    curate/pretrain pass 1: a tree funnels one row per corpus-DISTINCT
    key into a single root task — corpus-cardinality, the exact overflow
    the grouped paragraph dedup hit at 10x (BASELINE.md round-4) — while
    this path bucket-shuffles the partials (ONE exchange, rows spread
    over ``num_buckets`` folds), folds each bucket in C (sum count, min
    winner), filters to count>1 INSIDE the bucket, and only the
    dup-rate-bound survivors reach the final coalesce. Use it whenever
    the corpus's distinct-key table may exceed one worker."""
    import pandas as pd

    from ocr_suite_ray.stages.relational import grouped_reduce_c

    def _fold(g: pd.DataFrame) -> pd.DataFrame:
        # dropna=False: the tree-tier sibling (Arrow group_by) keeps null
        # keys; the shuffle tier must agree (dup_key_table_ref rule)
        out = g.groupby(key_col, as_index=False, dropna=False).agg(
            **{n_col: (n_col, "sum"), win_col: (win_col, "min")}
        )
        return out[out[n_col] > 1][[key_col, win_col]]

    dups = grouped_reduce_c(partials_ds, [key_col], _fold, num_buckets=num_buckets)

    def _merge(t: pa.Table) -> pa.Table:
        return t  # buckets are disjoint: concat only

    return coalesce_reduce(dups, _merge, None, materialize=False)
