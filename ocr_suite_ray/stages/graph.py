"""Link-graph ops: href extraction from raw HTML and host-level PageRank.

The crawl-graph side of a web-corpus pipeline: pages link to hosts, the
host graph ranks hosts (quality prior for sampling / seed selection —
the public PageRank formulation, Page et al. 1999). Two stages:

- :func:`extract_links` — one RE2/split pass over the HTML payload per
  batch emits ``(src_host, dst_host)`` per anchor, resolved against the
  page url (absolute, protocol-relative, and relative hrefs). No per-row
  Python; embarrassingly parallel.
- :func:`pagerank_e9` — damped PageRank in INTEGER fixed-point (rank
  scaled by 1e9, floor division everywhere). Floating-point PageRank is
  order-sensitive under distributed summation; the integer form makes
  every iteration bit-deterministic regardless of partitioning AND lets
  the DuckDB oracle unroll the same iterations exactly (the repo-wide
  fixed-point discipline, cf. ``quality_score``). Production at real
  scale would run the same loop in float64; the contract here is the
  deterministic variant.

Scale shape (pagerank): edges are distinct-ed with ONE bucket shuffle
(``grouped_reduce_c``); out-degrees and the host universe are
hosts-bound tree reduces broadcast once; the per-iteration pass streams
the prepared edge table (materialized once as the iteration working
set — object-store resident, spillable) and exchanges only ``(dst,
contrib)`` partials pre-collapsed per block. Driver never holds
host-sized state: ranks live as ObjectRefs and update in remote tasks.
The broadcast-budget guard raises beyond ``max_broadcast_rows`` hosts;
the named successor is a per-iteration hash-join tier (ranks kept as a
Dataset, joined on src — same routing pattern as ``cross_corpus_dedup``).
Dangling hosts (no out-links) contribute nothing (the standard
no-redistribution simplification; documented, mirrored in SQL).

Reference analogue: the reference ranks search results per video/frame
(``src/viewer`` result ordering); here the ranking is over the crawl
host graph feeding corpus curation.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

E9 = 1_000_000_000

_ABS_URL = r"^[A-Za-z][A-Za-z0-9+.-]*://"


def extract_links(ds, html_col: str = "html", url_col: str = "url"):
    """``(src_host, dst_host)`` per ``<a href=...>`` anchor in the HTML
    payload. ``html_col`` may be string or binary (utf-8); rows whose
    payload is not valid utf-8 are skipped (PDF/garbage payloads — route
    html-kind rows here via the sniffer). Resolution: absolute hrefs take
    their own host, protocol-relative (``//h/p``) take ``h``, everything
    else (relative) resolves to the page's own host. Host normalization
    matches :func:`~ocr_suite_ray.stages.text_ops.extract_hosts`."""
    import pyarrow.compute as pc

    from ocr_suite_ray.stages.text_ops import extract_hosts

    def _links(t: pa.Table) -> pa.Table:
        html = t[html_col]
        if isinstance(html, pa.ChunkedArray):
            html = html.combine_chunks()
        if pa.types.is_binary(html.type) or pa.types.is_large_binary(html.type):
            try:
                # the safe cast VALIDATES utf-8; the common all-valid block
                # stays one zero-copy kernel
                html = html.cast(pa.large_string()).cast(pa.string())
            except pa.lib.ArrowInvalid:
                # rare block with invalid utf-8 (Latin-1 pages, gzip junk):
                # per-row lossy decode so one bad payload can't fail the
                # stage — hrefs in the valid regions stay findable
                html = pa.array(
                    [None if b is None else b.decode("utf-8", "replace")
                     for b in html.to_pylist()],
                    type=pa.string(),
                )
        if pa.types.is_large_string(html.type):
            html = html.cast(pa.string())
        html = pc.fill_null(html, "")
        # normalize attribute spelling once so the split below catches
        # HREF= / Href= / href = "..." (all legal HTML, common in old crawls)
        html = pc.replace_substring_regex(html, r"(?i)href\s*=\s*", "href=")
        src_host, _tld = extract_hosts(t[url_col])
        lst = pc.split_pattern(html, "href=")
        flat = pc.list_flatten(lst)
        off = lst.offsets.to_numpy().astype(np.int64)
        off = off - off[0]
        n = off[1:] - off[:-1]
        row_of = np.repeat(np.arange(len(n), dtype=np.int64), n)
        within = np.arange(len(flat), dtype=np.int64) - np.repeat(off[:-1], n)
        tail = within > 0  # piece 0 precedes the first href
        flat = flat.filter(pa.array(tail))
        row_of = row_of[tail]
        # double-quoted, single-quoted, or bare attribute values (all
        # appear in real crawl HTML). Branch on the first char — RE2
        # alternation + extract_regex fills NON-participating groups with
        # "" rather than null, so a single alternation can't be coalesced
        first = pc.utf8_slice_codeunits(flat, 0, 1)
        dq = pc.equal(first, '"')
        sq = pc.equal(first, "'")
        m_d = pc.struct_field(pc.extract_regex(flat, '^"(?P<u>[^"]*)"'), "u")
        m_s = pc.struct_field(pc.extract_regex(flat, "^'(?P<u>[^']*)'"), "u")
        m_b = pc.struct_field(
            pc.extract_regex(flat, "^(?P<u>[^\\s>\"']+)"), "u"
        )
        href = pc.if_else(dq, m_d, pc.if_else(sq, m_s, m_b))
        ok = pc.is_valid(href).to_numpy(zero_copy_only=False)
        href = href.drop_null()
        row_of = row_of[ok]
        is_abs = pc.match_substring_regex(href, _ABS_URL).to_numpy(
            zero_copy_only=False
        )
        is_prel = pc.match_substring_regex(href, r"^//").to_numpy(
            zero_copy_only=False
        )
        abs_host, _ = extract_hosts(pc.if_else(pa.array(is_abs), href, ""))
        pm = pc.extract_regex(href, r"^//(?P<h>[^/?#]*)")
        prel_host = pc.if_else(
            pc.is_valid(pm), pc.utf8_lower(pc.struct_field(pm, "h")), ""
        )
        prel_host = pc.replace_substring_regex(prel_host, r":[0-9]+$", "")
        prel_host = pc.replace_substring_regex(prel_host, r"^www\.", "")
        own = src_host.take(pa.array(row_of, pa.int64()))
        dst = pc.if_else(
            pa.array(is_abs), abs_host, pc.if_else(pa.array(is_prel), prel_host, own)
        )
        return pa.table({"src_host": own, "dst_host": dst})

    return ds.map_batches(_links, batch_format="pyarrow")


def pagerank_e9(
    edges_ds,
    src_col: str = "src_host",
    dst_col: str = "dst_host",
    n_iter: int = 3,
    d_e2: int = 85,
    max_broadcast_rows: int = 50_000_000,
    num_buckets: int = 64,
):
    """Damped PageRank over the (distinct-ed) edge list, integer e9
    fixed-point: ``r0 = 1e9 // n`` per host; each iteration pushes
    ``r[src] // outdeg[src]`` along every distinct edge and sets
    ``r' = ((100 - d_e2) * 1e9) // (100 * n) + (d_e2 * inflow) // 100``.
    Returns a Dataset of ``(host, rank_e9)``. See the module docstring
    for the scale shape and determinism rationale."""
    import ray
    import ray.data as rd
    import pyarrow.compute as pc

    from ocr_suite_ray.stages._bcast import cached_build
    from ocr_suite_ray.stages.relational import grouped_reduce_c
    from ocr_suite_ray.state.dupset import coalesce_reduce, remote_fn

    if not 0 <= d_e2 <= 100:
        raise ValueError(f"d_e2 must be in [0, 100], got {d_e2}")

    def _narrow(t: pa.Table) -> pa.Table:
        # project + per-block distinct before the one bucket shuffle.
        # Edges with a NULL endpoint are dropped HERE, at the single
        # entry point: a null host has no rank to give or receive, and
        # letting one through would crash _hosts_partial's sort
        # (None < str) or — worse — flow NaN outdegrees through the
        # int64 cast into garbage contributions with no error.
        t = pa.table({"src": t[src_col], "dst": t[dst_col]})
        t = t.filter(pc.and_(pc.is_valid(t["src"]), pc.is_valid(t["dst"])))
        return t.group_by(["src", "dst"]).aggregate([])

    edges = grouped_reduce_c(
        edges_ds.map_batches(_narrow, batch_format="pyarrow"),
        ["src", "dst"],
        lambda df: df.drop_duplicates(),
        num_buckets=num_buckets,
    ).materialize()  # the n_iter-pass working set; object-store resident

    if edges.count() == 0:
        return rd.from_arrow(
            pa.table(
                {"host": pa.array([], pa.string()),
                 "rank_e9": pa.array([], pa.int64())}
            )
        )

    def _deg_partial(df: pd.DataFrame) -> pa.Table:
        g = df.groupby("src", as_index=False).size()
        return pa.table(
            {
                "h": pa.array(g["src"], pa.string()),
                "od": pa.array(g["size"].to_numpy(), pa.int64()),
            }
        )

    def _keyed_sum(t: pa.Table) -> pa.Table:
        g = t.group_by("h").aggregate([("od", "sum")])
        # rebuild by NAME: pyarrow group_by column order is not stable
        # across releases (mlfit pattern)
        return pa.table({"h": g["h"], "od": g["od_sum"]})

    deg_ref = coalesce_reduce(
        edges.map_batches(_deg_partial, batch_format="pandas"),
        _keyed_sum,
        materialize=False,
    )

    def _hosts_partial(df: pd.DataFrame) -> pa.Table:
        hs = pd.unique(pd.concat([df["src"], df["dst"]], ignore_index=True))
        return pa.table({"h": pa.array(sorted(hs), pa.string())})

    def _hosts_merge(t: pa.Table) -> pa.Table:
        return pa.table({"h": pc.unique(t["h"])})

    hosts_ref = coalesce_reduce(
        edges.map_batches(_hosts_partial, batch_format="pandas"),
        _hosts_merge,
        materialize=False,
    )
    n_hosts = ray.get(remote_fn(_num_rows).remote(hosts_ref))
    if n_hosts > max_broadcast_rows:
        raise ValueError(
            f"pagerank_e9 broadcast tier: {n_hosts} hosts exceed the "
            f"{max_broadcast_rows}-row budget; run the hash-join tier "
            "(ranks as a Dataset joined on src per iteration)."
        )

    ranks_ref = remote_fn(_init_ranks).remote(hosts_ref, n_hosts)

    def _rank_series(tbl: pa.Table) -> pd.Series:
        return pd.Series(
            tbl["r"].to_numpy(), index=tbl["h"].to_pandas(), copy=False
        )

    def _deg_series(tbl: pa.Table) -> pd.Series:
        return pd.Series(
            tbl["od"].to_numpy(), index=tbl["h"].to_pandas(), copy=False
        )

    for _ in range(n_iter):
        rr, dd = ranks_ref, deg_ref

        def _contrib(df: pd.DataFrame, _rr=rr, _dd=dd) -> pa.Table:
            ranks = cached_build(_rr, _rank_series)
            degs = cached_build(_dd, _deg_series)
            rv = ranks.reindex(df["src"]).to_numpy().astype(np.int64)
            ov = degs.reindex(df["src"]).to_numpy().astype(np.int64)
            c = rv // ov  # every src has outdeg >= 1 by construction
            g = (
                pd.DataFrame({"h": df["dst"].to_numpy(), "c": c})
                .groupby("h", as_index=False)["c"]
                .sum()
            )
            return pa.table(
                {"h": pa.array(g["h"], pa.string()),
                 "c": pa.array(g["c"].to_numpy(), pa.int64())}
            )

        def _csum(t: pa.Table) -> pa.Table:
            g = t.group_by("h").aggregate([("c", "sum")])
            return pa.table({"h": g["h"], "c": g["c_sum"]})

        contrib_ref = coalesce_reduce(
            edges.map_batches(_contrib, batch_format="pandas"),
            _csum,
            materialize=False,
        )
        ranks_ref = remote_fn(_apply).remote(hosts_ref, contrib_ref, n_hosts, d_e2)

    return rd.from_arrow_refs([remote_fn(_final).remote(ranks_ref)])


def _num_rows(t: pa.Table) -> int:
    return t.num_rows


def _init_ranks(hosts: pa.Table, n_hosts: int) -> pa.Table:
    r = np.full(hosts.num_rows, E9 // max(n_hosts, 1), dtype=np.int64)
    return pa.table({"h": hosts["h"], "r": pa.array(r, pa.int64())})


def _apply(hosts: pa.Table, contrib, nh: int, d_e2: int) -> pa.Table:
    base = ((100 - d_e2) * E9) // (100 * max(nh, 1))
    hs = hosts["h"].to_pandas()
    if contrib is None or contrib.num_rows == 0:
        inflow = np.zeros(len(hs), dtype=np.int64)
    else:
        cs = pd.Series(contrib["c"].to_numpy(), index=contrib["h"].to_pandas())
        inflow = cs.reindex(hs).fillna(0).to_numpy().astype(np.int64)
    r = base + (d_e2 * inflow) // 100
    return pa.table({"h": hosts["h"], "r": pa.array(r, pa.int64())})


def _final(tbl: pa.Table) -> pa.Table:
    return pa.table({"host": tbl["h"], "rank_e9": tbl["r"]})
