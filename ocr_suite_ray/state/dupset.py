"""Distributed dup-key membership — the driver never holds a key list.

The flagship dedup (newest-capture-wins per url, ``stages/dedup.py``) and the
finalize split need ONE piece of global state: "which urls have more than one
capture?". Round 1 built that set with ``take_all()`` + a Python list on the
driver — at 10^12 docs with a ~2% dup rate that is ~2x10^10 strings in driver
heap, the pipeline's only real scale-killer. This module replaces it:

1. **Count** duplicates distributively with the one keyed dup reduce
   (``keyed_dup_reduce``, also curate's and pretrain's repeated-text
   finder and paragraph dedup's repeated-segment finder): per-leaf
   (key, n) partials hash-split into ``k`` shards that each tree-merge
   down to their repeated keys; ``k`` comes from row counts the input
   already carries. The driver sees only ObjectRefs.
2. **Materialize** the dup-url table once in the object store (and
   optionally as a parquet artifact for resume) — written by a worker task.
3. **Build** the broadcast membership structure in a worker task: an exact
   Arrow value set below ``max_exact`` keys, a Bloom filter above (false
   positives only route a url through the exact winners reduce — semantics
   unchanged, see ``state/bloom.py``). ``ray.put``-equivalent: the payload
   lives in the object store once; every actor/task reads the local copy.

Scale contract: a shard root holds the keys of at most 2M input rows,
or 1/64 of them past 128M rows (a bucket's share in the former exchange
tier; not re-driven at 10x). A file-scan leaf holds the distinct keys
of its chunk, 1/CPUs of the input files (``cpu_chunks``), before any
shard split. Only the merged dup-key table and the
membership build are dup-rate bound (one worker must hold the dup keys
once), as is the flagship's winners reduce (its root task holds one
winning row per dup url).

The same shard roots (``shard_roots``) run the catalog's per-key sums
(``dataset_from_shards`` under ``stages/relational.narrow_grouped_sum``):
one output block per shard, so a shard root's groups, not the whole
group table, must fit one worker.

Reference analogue: the ``is_frame_processed`` semi-join / UNIQUE-index
membership check (``src/common/database.cpp:58-60``), taken distributed.
"""

from __future__ import annotations

import functools
import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ocr_suite_ray.functions.hashing import key_buckets
from ocr_suite_ray.state.bloom import BloomFilter

_FANIN = 32
# keyed dup reduce sizing: one shard per _ROWS_PER_SHARD input rows, at
# most _MAX_SHARDS. On one core sharding only shrinks the largest task
# (forced k > 1 ran 1.8-3.5x slower at 1M-4M rows); 2M rows and the cap
# are pretrain's former many-core size route and its exchange's buckets.
_ROWS_PER_SHARD = 2_000_000
_MAX_SHARDS = 64


def _concat_live(tables) -> "pa.Table | None":
    """The non-empty inputs as one Arrow table (``None`` if none). Pandas
    Dataset blocks are normalized here (see ``coalesce_reduce``)."""
    import pandas as pd

    live = []
    for t in tables:
        if t is None:
            continue
        if isinstance(t, pd.DataFrame):
            if len(t) == 0:
                continue
            t = pa.Table.from_pandas(t, preserve_index=False).replace_schema_metadata(None)
        elif t.num_rows == 0:
            continue
        live.append(t)
    return pa.concat_tables(live).combine_chunks() if live else None


def _merge(combine_fn, final_fn, *tables):
    t = _concat_live(tables)
    if t is None:
        return None
    t = combine_fn(t)
    return final_fn(t) if final_fn is not None else t


def _tree_top(refs: list, combine_fn) -> list:
    """``refs`` merged level by level until at most ``_FANIN`` remain: the
    inputs of the root merge."""
    merge = remote_fn(_merge)
    while len(refs) > _FANIN:
        refs = [
            merge.remote(combine_fn, None, *refs[i : i + _FANIN])
            for i in range(0, len(refs), _FANIN)
        ]
    return refs


def tree_reduce_refs(refs: list, combine_fn, final_fn=None, materialize: bool = True):
    """Tree-reduce a list of ObjectRefs to Arrow tables with remote tasks —
    the ref-level core of ``coalesce_reduce`` (see its contract); also used
    directly over plain scan tasks to skip a Dataset execution's fixed
    ramp for small narrow reductions."""
    import ray

    [root] = shard_roots(refs, 1, None, combine_fn, remote_fn(_merge), combine_fn, final_fn)
    return ray.get(root) if materialize else root


@functools.cache
def remote_fn(fn):
    """The Ray remote function of module-level ``fn``, made once per
    process. A ``@ray.remote`` defined inside a call is exported again on
    every call, and every worker loads each copy before running it; this
    one is exported once per Ray session."""
    import ray

    return ray.remote(fn)


def cluster_cpus() -> int:
    """The cluster's logical CPUs (``ray.cluster_resources()``), at least 1."""
    import ray

    return max(1, int(ray.cluster_resources().get("CPU", 1)))


def cpu_chunks(items: list) -> list:
    """``items`` as ``min(len(items), cluster_cpus())`` contiguous chunks
    whose sizes differ by at most one (no chunk for an empty list). A
    per-input step runs one task per chunk: as many tasks as the cluster
    can run at once, so on few CPUs the task round trip is paid once per
    CPU, not once per file (DS2's rule: parallelism from the resources
    that run the work, not from the input count)."""
    n, m = min(len(items), cluster_cpus()), len(items)
    return [items[i * m // n : (i + 1) * m // n] for i in range(n)]


def root_block(schema, combine_fn, final_fn, *tables):
    """The ``_merge`` of ``tables`` as a Dataset block: a ``None`` or
    zero-row result becomes an empty table of ``schema`` (a ``None``
    result a zero-column table when ``schema`` is ``None``), since
    ``from_arrow_refs`` crashes on a ``None`` block."""
    t = _merge(combine_fn, final_fn, *tables)
    if t is not None and (t.num_rows or schema is None):
        return t
    return schema.empty_table() if schema is not None else pa.table({})


def block_rows(ds) -> list:
    """(ObjectRef, row count) per block of ``ds`` from Ray Data's block
    metadata, executing ``ds`` once (see ``coalesce_reduce`` for why not
    ``Dataset.to_arrow_refs``)."""
    return [
        (r, m.num_rows or 0)
        for b in ds.iter_internal_ref_bundles()
        for r, m in b.blocks
    ]


def refs_and_rows(ds) -> tuple:
    """The block ObjectRefs of ``ds`` and their total row count."""
    blocks = block_rows(ds)
    return [r for r, _ in blocks], sum(n for _, n in blocks)


def block_refs(ds) -> list:
    """The block ObjectRefs of ``ds`` (``refs_and_rows`` without the rows)."""
    return refs_and_rows(ds)[0]


def dataset_from_root(refs: list, combine_fn, final_fn=None,
                      schema: "pa.Schema | None" = None):
    """One-block Dataset over the ``tree_reduce_refs`` root of ``refs``,
    whose root task is :func:`root_block`: an all-empty input gives an
    empty table of ``schema`` with no extra task. Serial tasks per call:
    the tree's levels (one for at most 32 refs) and ``from_arrow_refs``'
    metadata task. The root's rows never pass through the driver."""
    import ray.data as rd

    root = remote_fn(root_block)
    return rd.from_arrow_refs(
        shard_roots(refs, 1, None, combine_fn, root, schema, combine_fn, final_fn)
    )


def _counted_block(*args) -> tuple:
    """:func:`root_block` and its row count."""
    t = root_block(*args)
    return t, t.num_rows


def dataset_from_shards(ds, key_col: str, combine_fn, final_fn=None,
                        schema: "pa.Schema | None" = None):
    """The keyed reduce over ``ds``'s blocks of per-key partials as a
    Dataset: one :func:`root_block` per shard of ``shard_roots``,
    ``k = shard_count(rows)``. Each root holds every row of its keys, so
    ``final_fn`` sees whole keys, and only a shard's distinct keys must fit
    one worker. At ``k = 1`` it starts the same tasks as
    ``dataset_from_root``. For ``k > 1`` the driver reads each root's row
    count and keeps the non-empty roots as the blocks (the first root if
    all are empty), so an empty shard never puts a zero-column or
    fallback-typed block beside real ones."""
    import ray
    import ray.data as rd

    blocks = block_rows(ds)
    refs = [r for r, _ in blocks]
    k = shard_count(sum(n for _, n in blocks))
    if k == 1:
        return dataset_from_root(refs, combine_fn, final_fn, schema)
    root = remote_fn(_counted_block).options(num_returns=2)
    roots = shard_roots(refs, k, key_col, combine_fn, root, schema, combine_fn, final_fn)
    rows = ray.get([n for _, n in roots])
    return rd.from_arrow_refs([b for (b, _), n in zip(roots, rows) if n] or [roots[0][0]])


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


def shard_count(rows: int) -> int:
    """Shards of the keyed dup reduce over ``rows`` input rows."""
    return max(1, min(_MAX_SHARDS, -(-int(rows) // _ROWS_PER_SHARD)))


def split_by_key(t: "pa.Table | None", key_col: str, k: int) -> tuple:
    """``t``'s rows as ``k`` tables by ``key_buckets`` of ``key_col``
    (``None`` each when ``t`` is empty; a pandas block becomes Arrow)."""
    t = _concat_live([t])
    if t is None:
        return (None,) * k
    b = key_buckets([t[key_col]], k)
    order = np.argsort(b, kind="stable")
    bounds = np.searchsorted(b[order], np.arange(k + 1))
    return tuple(t.take(order[bounds[s] : bounds[s + 1]]) for s in range(k))


def _identity(t):
    return t


def _then(f, g, t):
    return g(f(t))


def shard_roots(refs: list, k: int, key_col, combine_fn, root, *args) -> list:
    """One ``root.remote(*args, *tables)`` task (``root`` a remote
    function) per shard of ``refs``' rows split ``k`` ways by
    ``key_buckets`` of ``key_col`` (one split task per ref when ``k > 1``;
    none at ``k = 1``), its ``tables`` being the ``_tree_top`` of the
    shard's pieces. The roots hold disjoint key sets."""
    shards = [refs]
    if k > 1:
        split = remote_fn(split_by_key).options(num_returns=k)
        parts = [split.remote(r, key_col, k) for r in refs]
        shards = [[p[s] for p in parts] for s in range(k)]
    return [root.remote(*args, *_tree_top(s, combine_fn)) for s in shards]


def keyed_dup_reduce(partials: list, rows: int, key_col: str, combine_fn,
                     keep_fn, final_fn=None):
    """The keyed dup reduce: ObjectRef to ``final_fn`` over the ``keep_fn``
    rows of the merged per-key ``partials`` (refs to tables; ``None`` if
    all are empty). ``k = shard_count(rows)``, ``rows`` being the input
    rows behind the partials. For ``k > 1`` one task per partial splits it
    by ``key_col``; each shard tree-merges with ``combine_fn``
    (associative) and runs ``keep_fn`` at its root (``shard_roots``), so
    only dup-rate-bound rows leave it; one root concatenates the disjoint
    shards and runs ``final_fn``."""
    k = shard_count(rows)
    if k == 1 and final_fn is not None:
        keep_fn = functools.partial(_then, keep_fn, final_fn)
    roots = shard_roots(
        partials, k, key_col, combine_fn, remote_fn(_merge), combine_fn, keep_fn
    )
    if k == 1:
        return roots[0]
    return tree_reduce_refs(roots, _identity, final_fn, materialize=False)


def keyed_dup_reduce_ds(ds, key_col: str, combine_fn, keep_fn, final_fn=None):
    """``keyed_dup_reduce`` over ``ds``'s blocks of per-key partials, the
    rows being the blocks' Ray Data row counts."""
    return keyed_dup_reduce(*refs_and_rows(ds), key_col, combine_fn, keep_fn, final_fn)


def _key_counts(t: pa.Table, key_col: str) -> pa.Table:
    """(key, n) per distinct key of ``t``. A null key is never a dup:
    Arrow's ``count`` skips nulls, so its group totals n = 0 (as the
    winners reduce keeps each null-url row)."""
    g = t.select([key_col]).group_by(key_col).aggregate([(key_col, "count")])
    return g.select([key_col, f"{key_col}_count"]).rename_columns([key_col, "n"])


def _sum_counts(t: pa.Table, key_col: str) -> pa.Table:
    g = t.group_by(key_col).aggregate([("n", "sum")])
    return g.select([key_col, "n_sum"]).rename_columns([key_col, "n"])


def _repeated_keys(t: pa.Table, key_col: str) -> pa.Table:
    return t.filter(pc.greater(t["n"], 1)).select([key_col])


def _sorted_by(t: pa.Table, key_col: str) -> pa.Table:
    return t.take(pc.sort_indices(t, sort_keys=[(key_col, "ascending")]))


def dup_key_fns(key_col: str) -> tuple:
    """(combine, keep, final) of the dup-key reduce over (key, n) counts:
    sum ``n`` per key, keep the keys with ``n > 1``, sort them."""
    fns = (_sum_counts, _repeated_keys, _sorted_by)
    return tuple(functools.partial(f, key_col=key_col) for f in fns)


def _files_key_counts(paths: list, key_col: str) -> tuple:
    """(key, n) summed over ``paths`` and their footer row count. Reads
    row group by row group and keeps each one's counts only."""
    parts, rows = [], 0
    for path in paths:
        f = pq.ParquetFile(path)
        rows += f.metadata.num_rows
        parts += [
            _key_counts(f.read_row_group(rg, columns=[key_col]), key_col)
            for rg in range(f.metadata.num_row_groups)
        ]
    return (_sum_counts(pa.concat_tables(parts), key_col) if parts else None), rows


def dup_key_table_ref_from_files(chunks: list, key_col: str = "url"):
    """Like ``dup_key_table_ref`` (narrow path) but one plain remote task
    per chunk of files (``cpu_chunks``) reads and counts the key column,
    skipping a Dataset execution's ~1-2 s fixed ramp (a measurable share of
    the flagship's wall at bench scale). Each leaf also returns its files'
    footer row count, which sizes the reduce once every leaf is done."""
    import ray

    leaf = remote_fn(_files_key_counts).options(num_returns=2)
    leaves = [leaf.remote(chunk, key_col) for chunk in chunks]
    rows = sum(ray.get([n for _, n in leaves]))
    return keyed_dup_reduce(
        [c for c, _ in leaves], rows, key_col, *dup_key_fns(key_col)
    )


def dup_key_table_ref(ds, key_col: str = "url"):
    """ObjectRef[pa.Table | None]: the sorted table of keys appearing more
    than once in ``ds[key_col]``, by per-block value counts through the
    keyed dup reduce (the exchange carries the key column only). Never
    materialized on the driver."""
    partials = ds.map_batches(
        functools.partial(_key_counts, key_col=key_col), batch_format="pyarrow"
    )
    return keyed_dup_reduce_ds(partials, key_col, *dup_key_fns(key_col))


def _dup_meta(path, t, key_col):
    if t is None:
        t = pa.table({key_col: pa.array([], pa.string())})
    keys = t.column(key_col).to_pylist()
    fp = hashlib.sha256("\x00".join(keys).encode()).hexdigest()[:16]
    if path is not None:
        pq.write_table(t, path + ".tmp")
        os.replace(path + ".tmp", path)
    return t.num_rows, fp


def dup_meta_ref(dup_ref, key_col: str = "url", persist_path: str | None = None):
    """Ref to (n_dups, fingerprint) of the dup-key table, computed
    worker-side; the driver receives two scalars on resolve. Optionally
    persists the table as a parquet artifact (atomic write) so a resumed run
    can reload it without re-scanning the input. The fingerprint is sha256
    over the sorted keys — stable across partitioning and replay. Returned
    unresolved so callers can overlap it with sibling tasks."""
    return remote_fn(_dup_meta).remote(persist_path, dup_ref, key_col)


def _load_dup_table(p):
    t = pq.read_table(p)
    return t if t.num_rows else None


def load_dup_table_ref(path: str):
    """ObjectRef[pa.Table | None] from a persisted dup-key artifact."""
    return remote_fn(_load_dup_table).remote(path)


def _membership(t, key_col, max_exact):
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


def membership_ref(dup_ref, key_col: str = "url", max_exact: int = 1_000_000):
    """ObjectRef to the broadcast membership payload: ``("exact", Array)``
    below ``max_exact`` keys, ``("bloom", BloomFilter)`` above. Built ONCE in
    a worker task; actors wrap it with ``DupMembership`` (one object-store
    read per actor, zero re-shipping per batch)."""
    return remote_fn(_membership).remote(dup_ref, key_col, max_exact)


class DupMembership:
    """is_dup membership test over a built payload (see membership_ref).
    Bloom false positives only route a key through the exact winners reduce,
    which keeps a single capture unchanged — semantics identical, broadcast
    size bounded."""

    def __init__(self, payload: tuple):
        kind, data = payload
        self._exact = data if kind == "exact" else None
        self._bloom = data if kind == "bloom" else None

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
