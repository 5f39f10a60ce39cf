"""Connected components over candidate-duplicate pairs → dup clusters.

The last mile of near-dedup: MinHash/SimHash/embedding pair lists are edges
of a similarity graph; keep-one-per-cluster needs the components. Two
implementations:

- ``connected_components``: distributed min-label propagation — each round
  is ONE vectorized groupby-free exchange (edges carry labels; per-block
  min-reduce then a narrow tree merge of the label map). Rounds ~= graph
  diameter; dup clusters are tiny chains in practice so it converges in
  2-4 rounds. Scales with |edges|, not corpus size.
- the driver never materializes the edge list beyond the label MAP (one row
  per node in a dup pair — dup-rate bound, same contract as the partial
  dedup's broadcast set).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def connected_components(pairs_ds, max_rounds: int = 16) -> pd.DataFrame:
    """pairs_ds: Dataset with (id_a, id_b) columns → DataFrame
    (node_id, component_id) with component_id = min node id in component.

    Label propagation over the (small) node set: labels live in a pandas map
    re-broadcast per round; edges stream through map_batches emitting label
    updates, merged vectorized. Deterministic: min-reduce only.

    Scale contract (explicit): the NODE set is the near-dup candidate set —
    dup-rate bound, orders of magnitude smaller than the corpus — and must
    fit one worker's heap (~10^8 ids). The EDGE set streams and never
    materializes. Beyond that node budget use
    :func:`connected_components_distributed` — labels as a Dataset with
    per-round keyed aggregates, same fixpoint, implemented below and
    verified equivalent."""
    import ray

    # Materialize the (dup-rate-bound) edge list ONCE: every propagation
    # round streams the edges, and a lazy pairs_ds would re-execute its
    # whole upstream pipeline (minhash banding, bucket verify, ...) per
    # round — up to max_rounds x the pair-generation cost. The blocks
    # live in the object store (spillable), never on the driver.
    edges = pairs_ds.select_columns(["id_a", "id_b"]).materialize()

    # initial labels: every node labels itself. Per-batch np.unique +
    # columnar to_pandas: raw take_all of un-deduplicated endpoints built
    # a 2x|edges| list of per-row dicts on the driver (duplicate-heavy
    # pair lists inflated driver heap far beyond the node-map contract)
    first = edges.map_batches(
        lambda t: pa.table({
            "node": pa.array(np.unique(np.concatenate([
                t["id_a"].to_numpy(zero_copy_only=False),
                t["id_b"].to_numpy(zero_copy_only=False),
            ])), pa.int64())
        }),
        batch_format="pyarrow",
    ).to_pandas()
    nodes = (
        np.empty(0, dtype=np.int64)
        if first.empty or "node" not in first.columns  # empty pair set
        else np.unique(first["node"].to_numpy())
    )
    labels = pd.Series(nodes, index=nodes)

    converged = len(nodes) == 0
    for _ in range(max_rounds):
        ref = ray.put(labels)

        def _updates(t: pa.Table) -> pa.Table:
            from ocr_suite_ray.stages._bcast import cached_get

            lab = cached_get(ref)  # once per worker per round, not per batch
            a = t["id_a"].to_numpy(zero_copy_only=False)
            b = t["id_b"].to_numpy(zero_copy_only=False)
            la = lab.loc[a].to_numpy()
            lb = lab.loc[b].to_numpy()
            m = np.minimum(la, lb)
            out = pd.DataFrame(
                {"node": np.concatenate([a, b]), "lab": np.concatenate([m, m])}
            )
            out = out.groupby("node", as_index=False)["lab"].min()
            return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)

        upd = edges.map_batches(_updates, batch_format="pyarrow").to_pandas()
        if upd.empty or "node" not in upd.columns:
            converged = True
            break
        df = upd.groupby("node")["lab"].min()
        new = labels.copy()
        new.loc[df.index] = np.minimum(new.loc[df.index].to_numpy(), df.to_numpy())
        if new.equals(labels):
            converged = True
            break
        labels = new

    if not converged:
        # silently returning partial labels would split one dup chain into
        # several components and leak duplicates through cluster dedup
        raise RuntimeError(
            f"connected_components did not converge in {max_rounds} rounds "
            "(similarity-graph diameter exceeds max_rounds); raise max_rounds"
        )
    return pd.DataFrame({"node_id": labels.index.to_numpy(), "component_id": labels.to_numpy()})


def dedup_keep_cluster_min(
    ds,
    pairs_ds,
    id_col: str = "doc_id",
    max_broadcast_edges: int = 2_000_000,
):
    """Cluster-based dedup: for every similarity cluster keep only the row
    with the minimum id; rows not in any pair pass through.

    Auto-routed by candidate-set size (edge count ≤ 2·node count):

    - ≤ ``max_broadcast_edges``: broadcast label propagation
      (:func:`connected_components`) + an exact in-filter drop-set — the
      dup-rate-bound fast path (one broadcast, zero extra shuffles).
    - above: :func:`connected_components_distributed` keeps labels as a
      Dataset and the drop happens via an exact hash-partitioned
      ``left_anti`` join — no driver materialization anywhere. (A Bloom
      drop-set is deliberately NOT used here: a false positive would drop
      a unique document — unlike the url-dedup path where Bloom positives
      merely route through an exact winners reduce.)

    Both routes produce identical output (equivalence-tested at a forced
    threshold of 0)."""
    import pyarrow.compute as pc

    # materialize ONCE: the routing count would otherwise execute the
    # whole pair-generation pipeline (minhash banding, bucket verify),
    # and the components pass would execute it AGAIN — count() on a
    # materialized dataset is a metadata read
    pairs_ds = pairs_ds.materialize()
    n_edges = pairs_ds.count()
    if n_edges > max_broadcast_edges:
        labels = connected_components_distributed(pairs_ds)
        losers = labels.map_batches(
            lambda t: pa.table(
                {id_col: t.filter(
                    pc.not_equal(t["node_id"], t["component_id"])
                )["node_id"]}
            ),
            batch_format="pyarrow",
        )
        # Ray 2.49 workaround: the hash-join broadcasts input schemas to its
        # aggregators with the FIRST block of each side, but an empty first
        # block consumes the broadcast without carrying a schema
        # (hash_shuffle._shuffle_block returns early on num_rows==0) — any
        # join partition with no right-side rows then builds a zero-column
        # table and pyarrow raises ArrowInvalid. Compact the loser side so
        # no empty blocks exist (blocks ≤ rows ⇒ every block non-empty) and
        # skip the join entirely when there are no losers. The count +
        # repartition touch only the dup-rate-bound loser set, not the
        # corpus.
        n_losers = losers.count()
        if n_losers == 0:
            return ds
        num_partitions = _cluster_partitions()
        losers = losers.repartition(min(num_partitions, n_losers))
        return ds.join(
            losers, join_type="left_anti", on=(id_col,),
            num_partitions=num_partitions,
        )

    comp = connected_components(pairs_ds)
    losers = comp.loc[comp.node_id != comp.component_id, "node_id"].to_numpy()
    drop = pa.array(sorted(int(x) for x in losers), pa.int64())

    def _keep(t: pa.Table) -> pa.Table:
        if len(drop) == 0:
            return t
        return t.filter(pc.invert(pc.is_in(t[id_col], value_set=drop)))

    return ds.map_batches(_keep, batch_format="pyarrow")


def dedup_keep_cluster_best(
    ds,
    pairs_ds,
    score_col: str,
    id_col: str = "doc_id",
    max_broadcast_edges: int = 2_000_000,
):
    """Cluster dedup with a quality policy: in every similarity cluster
    keep the member with the HIGHEST ``score_col`` (ties → min id);
    isolates pass through. The representative-selection step of a
    near-dup pipeline when "keep the oldest/lowest id" is the wrong
    policy and "keep the best document" is wanted (the common choice for
    training-data curation: keep the longest / highest-quality capture).

    Auto-routed like :func:`dedup_keep_cluster_min`:

    - ≤ ``max_broadcast_edges``: broadcast label propagation; member
      ``(id, score)`` rows are collected in ONE streaming projection
      (dup-rate bound — members are exactly the paired nodes), the argmax
      is a vectorized driver sort, and the drop set broadcasts back.
    - above: :func:`connected_components_distributed` labels stay a
      Dataset; member scores arrive via a hash-partitioned inner join of
      the narrow ``(id, score)`` projection, per-cluster argmax runs as a
      bucketed C kernel (many clusters per task — no per-group dispatch),
      and the drop is an exact ``left_anti`` join. Nothing touches the
      driver.

    Both tiers produce identical output (equivalence-tested). Determinism:
    ``(score DESC, id ASC)`` is a total order per cluster."""
    import pyarrow.compute as pc

    # materialize ONCE (see dedup_keep_cluster_min: routing count + the
    # components pass must not each re-execute pair generation)
    pairs_ds = pairs_ds.materialize()
    n_edges = pairs_ds.count()
    if n_edges > max_broadcast_edges:
        labels = connected_components_distributed(pairs_ds).map_batches(
            lambda t: t.rename_columns([id_col, "component_id"]),
            batch_format="pyarrow",
        )
        num_partitions = _cluster_partitions()
        members = ds.select_columns([id_col, score_col]).join(
            labels, join_type="inner", on=(id_col,),
            num_partitions=num_partitions,
        )
        NB = 64

        def _tag(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            b = pc.bit_wise_and(
                t["component_id"], pa.scalar(NB - 1, pa.int64())
            )
            return t.append_column("__b", pc.cast(b, pa.int64()))

        def _losers(g: pa.Table) -> pa.Table:
            comps = g["component_id"].to_numpy(zero_copy_only=False)
            ids = g[id_col].to_numpy(zero_copy_only=False)
            scores = g[score_col].to_numpy(zero_copy_only=False)
            # order: component, then score DESC, then id ASC — first row
            # of every component run is its winner
            order = np.lexsort((ids, -scores, comps))
            sc = comps[order]
            first = np.zeros(len(sc), dtype=bool)
            _, idx = np.unique(sc, return_index=True)
            first[idx] = True
            return pa.table({id_col: pa.array(ids[order][~first], pa.int64())})

        losers = (
            members.map_batches(_tag, batch_format="pyarrow")
            .groupby("__b")
            .map_groups(_losers, batch_format="pyarrow")
        )
        n_losers = losers.count()
        if n_losers == 0:
            return ds
        # same Ray 2.49 empty-first-block workaround as the min-id route
        losers = losers.repartition(min(num_partitions, n_losers))
        return ds.join(
            losers, join_type="left_anti", on=(id_col,),
            num_partitions=num_partitions,
        )

    comp = connected_components(pairs_ds)
    if comp.empty:
        return ds
    node_set = pa.array(sorted(int(x) for x in comp.node_id), pa.int64())

    def _member_scores(t: pa.Table) -> pa.Table:
        m = pc.is_in(t[id_col], value_set=node_set)
        return t.select([id_col, score_col]).filter(m)

    rows = ds.map_batches(_member_scores, batch_format="pyarrow").take_all()
    mdf = pd.DataFrame(rows).merge(
        comp, left_on=id_col, right_on="node_id", how="inner"
    )
    mdf = mdf.sort_values(
        ["component_id", score_col, id_col], ascending=[True, False, True]
    )
    losers_np = mdf.loc[
        mdf.duplicated("component_id", keep="first"), id_col
    ].to_numpy()
    drop = pa.array(sorted(int(x) for x in losers_np), pa.int64())

    def _keep(t: pa.Table) -> pa.Table:
        if len(drop) == 0:
            return t
        return t.filter(pc.invert(pc.is_in(t[id_col], value_set=drop)))

    return ds.map_batches(_keep, batch_format="pyarrow")


def _cluster_partitions() -> int:
    from ocr_suite_ray.state.dupset import cluster_cpus

    return max(4, cluster_cpus() // 4)


def connected_components_distributed(
    pairs_ds, max_rounds: int = 16, num_partitions: int = 16
):
    """The 100-TB path for :func:`connected_components`: labels live as a
    DATASET (never a driver map). Each round is label propagation expressed
    with keyed aggregates only — no joins:

        msgs  = (labels ∪ oriented edges) groupby(node).map_groups:
                  emit (peer, my_label) per edge + (node, my_label)
        labels' = msgs groupby(node).min(label)

    — two hash shuffles per round, all worker-side; convergence = the
    distinct-(node,label) count over old ∪ new equals the node count (a
    keyed aggregate, not a driver diff). Same min-label fixpoint and
    determinism as the broadcast version (verified equivalent in tests).
    Use when the candidate node set exceeds one worker's heap; otherwise
    the broadcast version converges with less per-round machinery."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    edges = pairs_ds.select_columns(["id_a", "id_b"])
    oriented = (
        edges.map_batches(
            lambda t: pa.table(
                {
                    "node": pc_concat(t["id_a"], t["id_b"]),
                    "lab": pa.nulls(2 * t.num_rows, pa.int64()),
                    "peer": pc_concat(t["id_b"], t["id_a"]),
                }
            ),
            batch_format="pyarrow",
        )
    ).materialize()
    if oriented.count() == 0:
        return rd.from_pandas(
            pd.DataFrame({"node_id": [], "component_id": []}).astype("int64")
        )

    def _as_label_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": t["node"],
                "lab": t["lab"],
                "peer": pa.nulls(t.num_rows, pa.int64()),
            }
        )

    def _init(t: pa.Table) -> pa.Table:
        return pa.table(
            {"node": t["node"], "lab": t["node"], "peer": t["peer"]}
        )

    NB = max(16, num_partitions)
    _I64MAX = np.iinfo(np.int64).max

    # Every per-round reduce below runs as ONE bucket shuffle + a
    # within-bucket C kernel (grouped_reduce_c shape) — NOT
    # Dataset.aggregate / per-node map_groups, whose reduce walks rows (or
    # dispatches a UDF) in Python per node: the 10M-row drive measured that
    # path at 46x slower (BASELINE.md round-3 C-reduce audit). All kernels
    # are arrow/numpy int64 end-to-end — ids never pass through pandas
    # object/float columns (the 2^53 decay hazard).

    def _tag_node(t: pa.Table) -> pa.Table:
        b = pc.bit_wise_and(t["node"], pa.scalar(NB - 1, pa.int64()))
        return t.append_column("__b", pc.cast(b, pa.int64()))

    import pyarrow.compute as pc

    def _min_label(g: pa.Table) -> pa.Table:
        nodes = g["node"].to_numpy(zero_copy_only=False)
        labs = g["lab"].to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(nodes, return_inverse=True)
        best = np.full(len(uniq), _I64MAX, dtype=np.int64)
        np.minimum.at(best, inv, labs)
        return pa.table(
            {"node": pa.array(uniq, pa.int64()), "lab": pa.array(best, pa.int64())}
        )

    def _min_per_node(ds):
        return (
            ds.map_batches(_tag_node, batch_format="pyarrow")
            .groupby("__b")
            .map_groups(_min_label, batch_format="pyarrow")
        )

    labels = _min_per_node(
        oriented.map_batches(_init, batch_format="pyarrow")
    ).materialize()
    n_nodes = labels.count()

    def _propagate(g: pa.Table) -> pa.Table:
        # one bucket's label rows (lab non-null, peer null) + edge rows
        # (peer non-null): per-node min label via np.minimum.at, then emit
        # (node, lab) and (peer, node's lab) — all C, no per-node dispatch
        nodes = g["node"].to_numpy(zero_copy_only=False)
        labs = pc.fill_null(g["lab"], _I64MAX).to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(nodes, return_inverse=True)
        best = np.full(len(uniq), _I64MAX, dtype=np.int64)
        np.minimum.at(best, inv, labs)
        peer_valid = pc.is_valid(g["peer"]).to_numpy(zero_copy_only=False)
        peers = pc.fill_null(g["peer"], 0).to_numpy(zero_copy_only=False)[peer_valid]
        out_nodes = np.concatenate([uniq, peers])
        out_labs = np.concatenate([best, best[inv[peer_valid]]])
        return pa.table(
            {
                "node": pa.array(out_nodes, pa.int64()),
                "lab": pa.array(out_labs, pa.int64()),
            }
        )

    def _distinct_pairs(g: pa.Table) -> pa.Table:
        gg = g.select(["node", "lab"]).group_by(["node", "lab"]).aggregate([])
        return gg.rename_columns(["node", "lab"])

    for _ in range(max_rounds):
        msgs = (
            labels.map_batches(_as_label_rows, batch_format="pyarrow")
            .union(oriented)
            .map_batches(_tag_node, batch_format="pyarrow")
            .groupby("__b")
            .map_groups(_propagate, batch_format="pyarrow")
        )
        new_labels = _min_per_node(msgs).materialize()
        # convergence: every (node, lab) pair identical on both sides <=>
        # distinct pairs over old ∪ new == node count
        distinct_pairs = (
            labels.union(new_labels)
            .map_batches(_tag_node, batch_format="pyarrow")
            .groupby("__b")
            .map_groups(_distinct_pairs, batch_format="pyarrow")
            .count()
        )
        labels = new_labels
        if distinct_pairs == n_nodes:
            return labels.map_batches(
                lambda t: t.rename_columns(["node_id", "component_id"]),
                batch_format="pyarrow",
            )
    raise RuntimeError(
        f"connected_components_distributed did not converge in {max_rounds} "
        "rounds (similarity-graph diameter exceeds max_rounds)"
    )


def pc_concat(a, b):
    import pyarrow as pa

    return pa.concat_arrays([a.combine_chunks(), b.combine_chunks()])
