"""Graph analytics over the constructed knowledge graph.

The canonical graph's EDGE set is corpus-sized (streams as a Dataset);
its NODE set is vocabulary-sized — the same boundedness the alias
broadcast already relies on (stages/canonicalize.py) — so per-node state
(degrees during reduce, the PageRank vector between iterations) may live
driver-side and broadcast, while every edge pass stays distributed. For
graphs whose node set itself exceeds driver memory,
``pagerank_distributed`` (round 5) runs the same recurrence with rank
state EXCHANGE-PARTITIONED: edges bucketed once by src hash, state
co-bucketed by node hash, per-iteration traffic limited to contribution
partials — ``pagerank(max_driver_nodes=...)`` dispatches between the two
automatically.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data as rd


def degree_table(edges: rd.Dataset, *, src_col: str = "canonical_src",
                 dst_col: str = "canonical_dst",
                 weight_col: str | None = "weight",
                 buckets: int | None = None) -> rd.Dataset:
    """Per-node degree stats: out_degree / in_degree (distinct neighbor
    edges) and weighted totals. One bucketed shuffle over per-block
    partials — a node's partial rows are bounded by blocks, not edges."""
    from .agg import bucketed_groupby

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        w = df[weight_col] if weight_col else pd.Series(1, index=df.index)
        out = (pd.DataFrame({"node": df[src_col], "out_degree": 1,
                             "out_weight": w, "in_degree": 0, "in_weight": 0})
               .groupby("node", as_index=False).sum())
        inn = (pd.DataFrame({"node": df[dst_col], "out_degree": 0,
                             "out_weight": 0, "in_degree": 1, "in_weight": w})
               .groupby("node", as_index=False).sum())
        return pd.concat([out, inn], ignore_index=True)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("node", as_index=False).sum()
        for c in ("out_degree", "in_degree"):
            g[c] = g[c].astype("int64")
        for c in ("out_weight", "in_weight"):
            # keep float weights float — int64 would silently truncate
            if pd.api.types.is_float_dtype(g[c]):
                g[c] = g[c].astype("float64")
            else:
                g[c] = g[c].astype("int64")
        return g

    partials = edges.map_batches(partial, batch_format="pandas")
    return bucketed_groupby(partials, ["node"], merge, buckets=buckets)


def pagerank(edges: rd.Dataset, *, src_col: str = "canonical_src",
             dst_col: str = "canonical_dst", weight_col: str | None = "weight",
             damping: float = 0.85, iters: int = 3,
             buckets: int | None = None,
             max_driver_nodes: int = 2_000_000) -> pd.DataFrame:
    """Weighted PageRank, per-node-1 formulation (no 1/N scaling):

        r_{t+1}(v) = (1 - d) + d * sum_{u->v} w(u,v) / W_out(u) * r_t(u)

    Dangling mass is not redistributed (the simplified variant — fully
    deterministic, SQL-expressible for the oracle). Iteration state is the
    node-vocabulary-sized rank vector (driver + broadcast, see module
    docstring) UP TO ``max_driver_nodes`` distinct nodes; beyond that the
    call dispatches to ``pagerank_distributed`` (exchange-partitioned
    rank state, same recurrence). Every per-iteration contribution pass
    is a distributed edge scan reduced through one bucketed shuffle. Deliberately NOT an
    all-Dataset loop: iterative Dataset-only loops degrade per round on
    this Ray version (see ops/cc.py and the round-1 notes); driver-held
    iteration state is both faster and the broadcast is needed anyway.

    Returns a DataFrame (node, rank) — node-vocabulary-sized."""
    import ray

    from .agg import bucketed_groupby

    # one execution for the degree pass AND every iteration's edge scan —
    # the input is often an expensive lazy pipeline (canonicalization)
    edges = edges.materialize()
    deg_ds = degree_table(edges, src_col=src_col, dst_col=dst_col,
                          weight_col=weight_col, buckets=buckets).materialize()
    n_nodes = deg_ds.count()
    if n_nodes > max_driver_nodes:
        # node vocabulary outgrew driver-held iteration state: run the
        # exchange-partitioned loop (rank state never on the driver).
        # The FINAL (node, rank) result still collects to the returned
        # DataFrame — bounded at 10x max_driver_nodes; beyond that this
        # API's return type is itself the problem and the caller must
        # use pagerank_distributed directly and write the Dataset out.
        if n_nodes > 10 * max_driver_nodes:
            raise ValueError(
                f"pagerank: {n_nodes} nodes exceeds the DataFrame-return "
                f"bound ({10 * max_driver_nodes}); call "
                "pagerank_distributed(...) and write_parquet the result")
        out = pagerank_distributed(
            edges, src_col=src_col, dst_col=dst_col, weight_col=weight_col,
            damping=damping, iters=iters, deg=deg_ds).to_pandas()
        out["node"] = out["node"].astype("string")
        return (out.sort_values("node", kind="mergesort")
                .reset_index(drop=True))
    deg = deg_ds.to_pandas()
    if len(deg) == 0:
        return pd.DataFrame({"node": pd.Series(dtype="string"),
                             "rank": pd.Series(dtype="float64")})
    # zero-out-weight sources contribute nothing (dangling; also guards a
    # float weight sum of 0 from dividing to inf)
    out_w = {n: w for n, w in zip(deg["node"],
                                  deg["out_weight"].astype(float)) if w > 0}
    ranks = {n: 1.0 for n in deg["node"]}

    for _ in range(iters):
        state_ref = ray.put((ranks, out_w))

        def contrib(df: pd.DataFrame) -> pd.DataFrame:
            r, ow = ray.get(state_ref)
            w = (df[weight_col].astype(float) if weight_col
                 else pd.Series(1.0, index=df.index))
            src = df[src_col]
            c = (w * src.map(r).astype(float)
                 / src.map(ow).astype(float)).fillna(0.0)  # ow excludes
            # zero-out-weight sources -> their rows contribute nothing
            return (pd.DataFrame({"node": df[dst_col], "c": c})
                    .groupby("node", as_index=False).sum())

        parts = bucketed_groupby(
            edges.map_batches(contrib, batch_format="pandas"),
            ["node"],
            lambda df: df.groupby("node", as_index=False)["c"].sum(),
            buckets=buckets).to_pandas()
        incoming = dict(zip(parts["node"], parts["c"])) if len(parts) else {}
        ranks = {n: (1.0 - damping) + damping * incoming.get(n, 0.0)
                 for n in ranks}

    out = pd.DataFrame({"node": pd.Series(list(ranks), dtype="string"),
                        "rank": pd.Series(list(ranks.values()),
                                          dtype="float64")})
    return out.sort_values("node", kind="mergesort").reset_index(drop=True)


def _pr_bucket_tables(ds: rd.Dataset, key: str, P: int) -> list:
    """The P ``crc32(key) % P`` buckets of ``ds`` as object-store Arrow
    tables (empty buckets schema-typed), or ``[]`` for a block-less input.
    Each is a driver-launched task return, so Ray can lineage-reconstruct
    a lost bucket."""
    from .exchange import HashRoute, reduce_slices, run_maps

    refs, _, _ = run_maps(ds, HashRoute(key, P), P)
    if not refs[0]:
        return []
    return [reduce_slices.remote(None, *refs[p]) for p in range(P)]


def pagerank_distributed(edges: rd.Dataset, *,
                         src_col: str = "canonical_src",
                         dst_col: str = "canonical_dst",
                         weight_col: str | None = "weight",
                         damping: float = 0.85, iters: int = 3,
                         num_partitions: int | None = None,
                         deg: rd.Dataset | None = None) -> rd.Dataset:
    """PageRank with EXCHANGE-PARTITIONED rank state — the web-scale
    variant of ``pagerank`` (same per-node-1 recurrence, same no-dangling
    semantics): the rank vector never exists on the driver or in any one
    task; it lives as P hash-bucketed Arrow tables in the object store,
    co-partitioned with the edges.

    Shuffle shape (the part that matters at 10^9+ nodes):

    * edges are bucketed ONCE by ``crc32(src) % P`` (one all-to-all for
      the whole run, not per iteration);
    * state is bucketed by ``crc32(node) % P`` — the SAME hash, so each
      iteration's rank lookup is a partition-LOCAL join (task p reads
      exactly edge bucket p + state bucket p);
    * per iteration only CONTRIBUTION PARTIALS move: each join task
      partial-sums by dst and returns P zero-copy slices keyed by
      ``crc32(dst) % P``; each update task folds its slices into its
      state bucket. Per-iteration traffic is bounded by (distinct dst per
      bucket) x P partials, never raw edges, never the full rank vector.

    Returns a Dataset (node, rank) — write it to parquet; don't collect
    it. For vocabulary-sized graphs ``pagerank`` (driver-state loop) is
    faster: fewer waves, no per-iteration task launch overhead."""
    import pyarrow as pa
    import ray

    from .exchange import HashRoute, launch_map

    edges = edges.materialize()
    if deg is None:   # the pagerank() dispatch passes its own through —
        # recomputing it here would double the most expensive pre-pass
        deg = degree_table(edges, src_col=src_col, dst_col=dst_col,
                           weight_col=weight_col).materialize()
    if deg.count() == 0:
        import ray.data as rdm
        return rdm.from_arrow(pa.table({"node": pa.array([], pa.string()),
                                        "rank": pa.array([], pa.float64())}))
    if num_partitions is None:
        # size from the bigger of the two partitioned sides: edge buckets
        # ~256 MB (scanned once per iteration), state buckets ~64 MB
        # (resident + merged per iteration) — floored at 2x the cluster
        # CPU count so every iteration wave parallelizes with slack for
        # stragglers (a 1.2 GB edge set at P=8 left 24 of 32 cores idle:
        # 299s at P=8 -> 48s at P=64 on 10M nodes / 30M edges). The P x P
        # slice fan-out is quadratic in P, so don't overshoot either
        # (measured: 1M nodes / 3M edges runs 10.4s at P=32 vs 38s at
        # P=128).
        import ray as _ray
        cpus = int(_ray.cluster_resources().get("CPU", 8))
        num_partitions = max(8, 2 * cpus,
                             edges.size_bytes() // (256 << 20),
                             deg.size_bytes() // (64 << 20))
    P = min(int(num_partitions), 512)
    cols = [src_col, dst_col] + ([weight_col] if weight_col else [])
    edge_parts = _pr_bucket_tables(edges.select_columns(cols), src_col, P)

    def init_state(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "node": df["node"].astype("string"),
            "rank": np.float64(1.0),
            "out_w": df["out_weight"].astype("float64")})

    state_parts = _pr_bucket_tables(
        deg.select_columns(["node", "out_weight"])
           .map_batches(init_state, batch_format="pandas"), "node", P)
    if not state_parts:
        import ray.data as rdm
        return rdm.from_arrow(pa.table({"node": pa.array([], pa.string()),
                                        "rank": pa.array([], pa.float64())}))

    def contrib(edges_t: pa.Table, state_t: pa.Table) -> pa.Table:
        e = edges_t.to_pandas()
        s = state_t.to_pandas().rename(columns={"node": src_col})
        # vectorized hash join, not a Python-dict .map — the per-bucket
        # hot loop at 10^7+ edges
        e = e.merge(s, on=src_col, how="left")
        w = (e[weight_col].to_numpy(np.float64) if weight_col
             else np.ones(len(e)))
        ow = e["out_w"].to_numpy(np.float64)
        r = e["rank"].to_numpy(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            c = np.where(ow > 0, w * r / ow, 0.0)
        part = (pd.DataFrame({"node": e[dst_col], "c": c})
                .groupby("node", as_index=False).sum())
        if not len(part):     # empty bucket: a typed empty table (an
            # all-object empty frame would arrow-infer a null column)
            return pa.table({"node": pa.array([], pa.string()),
                             "c": pa.array([], pa.float64())})
        return pa.Table.from_pandas(part, preserve_index=False)

    @ray.remote
    def update(state_t: pa.Table, *slices: pa.Table) -> pa.Table:
        s = state_t.to_pandas()
        inc = (pd.concat([t.to_pandas() for t in slices],
                         ignore_index=True)
               .groupby("node", as_index=False)["c"].sum()
               if slices else pd.DataFrame({"node": pd.Series(dtype=object),
                                            "c": pd.Series(dtype=float)}))
        s = s.drop(columns=["rank"]).merge(inc, on="node", how="left")
        s["rank"] = ((1.0 - damping)
                     + damping * s.pop("c").fillna(0.0).to_numpy(np.float64))
        return pa.Table.from_pandas(s[["node", "rank", "out_w"]],
                                    preserve_index=False)

    by_dst = HashRoute("node", P)
    for _ in range(iters):
        # each join task partial-sums by dst and splits by crc32(dst) % P
        slice_refs: list[list] = [[] for _ in range(P)]
        for eref, sref in zip(edge_parts, state_parts):
            slices, _ = launch_map([eref, sref], by_dst, P, combine=contrib)
            for q, ref in enumerate(slices):
                slice_refs[q].append(ref)
        state_parts = [update.remote(sref, *slice_refs[p])
                       for p, sref in enumerate(state_parts)]

    import ray.data as rdm
    out = rdm.from_arrow_refs(state_parts)
    return out.select_columns(["node", "rank"])


def components_table(edges: rd.Dataset, *, src_col: str = "canonical_src",
                     dst_col: str = "canonical_dst") -> rd.Dataset:
    """Undirected connected components over a string-keyed edge list:
    (node, component), component = lexicographically smallest node id in
    the node's component (matching SQL ``min`` over VARCHAR for ASCII
    ids, which canonical entity ids are by construction).

    Same boundedness contract as the module header: the NODE vocabulary
    is driver-resident (distinct collected via per-block dedup), edges
    stream. Node strings are mapped to their sorted ranks — so the int
    min-label of ``ops/cc.connected_components`` IS the lexicographic
    min — the pair list is rewritten block-wise against the broadcast
    rank index, and labels map back through the same vocabulary."""
    import ray

    from .cc import connected_components

    def distinct_nodes(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"node": pd.unique(
            np.concatenate([df[src_col].to_numpy(dtype=object),
                            df[dst_col].to_numpy(dtype=object)]))})

    edges = edges.materialize()  # consumed twice: vocab pass + pair pass
    nodes_df = edges.map_batches(distinct_nodes,
                                 batch_format="pandas").to_pandas()
    if len(nodes_df) == 0:
        return rd.from_pandas(pd.DataFrame({
            "node": pd.Series(dtype="string"),
            "component": pd.Series(dtype="string")}))
    vocab = np.unique(nodes_df["node"].to_numpy(dtype=object)).astype(str)
    rank_of = pd.Series(np.arange(len(vocab), dtype=np.int64), index=vocab)
    rank_ref = ray.put(rank_of)

    def to_pairs(df: pd.DataFrame) -> pd.DataFrame:
        r = ray.get(rank_ref)
        return pd.DataFrame({
            "id_a": r[df[src_col].to_numpy(dtype=object)].to_numpy(),
            "id_b": r[df[dst_col].to_numpy(dtype=object)].to_numpy()})

    cc = connected_components(
        edges.map_batches(to_pairs, batch_format="pandas"))

    def back(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "node": vocab[df["node"].to_numpy(dtype=np.int64)],
            "component": vocab[df["component"].to_numpy(dtype=np.int64)]})

    return cc.map_batches(back, batch_format="pandas")


def _triangle_parts(edges: rd.Dataset, *, src_col: str, dst_col: str,
                    buckets: int | None):
    """Shared machinery for triangle analytics: returns ``(und, tri,
    deg)`` where ``und`` is the distinct undirected edge Dataset
    (columns u, v; u < v), ``tri`` the triangle Dataset (columns a, b,
    c — one row per triangle, vertices in degree-rank order) and
    ``deg`` the exact per-node undirected degree DataFrame already
    computed driver-side for the rank ordering (vocabulary-sized —
    reusable by callers instead of a second distributed pass). See
    ``triangle_count`` for the algorithm."""
    import ray

    from .agg import bucketed_groupby
    from .joins import hash_semi_join

    def und_partial(df: pd.DataFrame) -> pd.DataFrame:
        s = df[src_col].astype(str).to_numpy()
        d = df[dst_col].astype(str).to_numpy()
        m = s != d
        s, d = s[m], d[m]
        lo = np.where(s < d, s, d)
        hi = np.where(s < d, d, s)
        return pd.DataFrame({"u": lo, "v": hi}).drop_duplicates()

    und = bucketed_groupby(
        edges.map_batches(und_partial, batch_format="pandas"),
        ["u", "v"], lambda df: df.drop_duplicates(), buckets=buckets)
    und = und.materialize()      # reused by degrees, orientation, join

    def deg_partial(df: pd.DataFrame) -> pd.DataFrame:
        return (pd.concat([df["u"], df["v"]]).rename("node").to_frame()
                .assign(d=1).groupby("node", as_index=False).sum())

    deg_raw = und.map_batches(deg_partial, batch_format="pandas").to_pandas()
    empty_deg = pd.DataFrame({"node": pd.Series([], dtype=str),
                              "d": pd.Series([], dtype="int64")})
    if len(deg_raw) == 0:        # empty graph: no nodes, no triangles
        empty = pd.DataFrame({"a": pd.Series([], dtype=str),
                              "b": pd.Series([], dtype=str),
                              "c": pd.Series([], dtype=str)})
        return und, rd.from_pandas([empty]), empty_deg
    deg = (deg_raw.groupby("node", as_index=False).sum()
           .sort_values(["d", "node"], kind="mergesort"))
    rank = dict(zip(deg["node"], range(len(deg))))
    rank_ref = ray.put(rank)

    def orient(df: pd.DataFrame) -> pd.DataFrame:
        r = ray.get(rank_ref)
        ru = df["u"].map(r).to_numpy(np.int64)
        rv = df["v"].map(r).to_numpy(np.int64)
        flip = ru > rv
        a = np.where(flip, df["v"], df["u"])
        b = np.where(flip, df["u"], df["v"])
        rb = np.where(flip, ru, rv)
        return pd.DataFrame({"a": a, "b": b, "rb": rb})

    oriented = und.map_batches(orient, batch_format="pandas").materialize()

    def wedges(df: pd.DataFrame) -> pd.DataFrame:
        # whole-bucket frame: every out-edge of a source is in this bucket
        out_a, out_b, out_c = [], [], []
        for a, g in df.sort_values(["a", "rb"],
                                   kind="mergesort").groupby("a", sort=False):
            nb = g["b"].to_numpy()
            if len(nb) < 2:
                continue
            i, j = np.triu_indices(len(nb), k=1)
            out_a.append(np.repeat(a, len(i)))
            out_b.append(nb[i])
            out_c.append(nb[j])
        if not out_a:
            return pd.DataFrame({"a": pd.Series([], dtype=str),
                                 "b": pd.Series([], dtype=str),
                                 "c": pd.Series([], dtype=str)})
        # the closing-edge check is a COMPOSITE-key semi join on (b, c):
        # no separator string exists for a node label to collide with
        # (an earlier separator-joined key was ambiguous for labels
        # containing the separator, and numpy's fixed-width unicode even
        # strips a \x00 one outright)
        return pd.DataFrame({"a": np.concatenate(out_a),
                             "b": np.concatenate(out_b),
                             "c": np.concatenate(out_c)})

    wedge_ds = bucketed_groupby(oriented, ["a"], wedges, buckets=buckets)

    def closing_keys(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"b": df["a"], "c": df["b"]})

    closing = oriented.map_batches(closing_keys, batch_format="pandas")
    tri = hash_semi_join(wedge_ds, closing, ["b", "c"], buckets=buckets)
    return und, tri, deg.reset_index(drop=True)


def triangle_count(edges: rd.Dataset, *, src_col: str = "canonical_src",
                   dst_col: str = "canonical_dst",
                   buckets: int | None = None) -> pd.DataFrame:
    """Exact triangle count of the undirected simple graph underlying
    ``edges`` — the degree-ordered wedge algorithm (node-iterator++):

    1. distinct undirected edge set (one bucketed dedup shuffle);
    2. orient every edge from the LOWER (degree, node) endpoint to the
       higher — each triangle then has exactly one vertex with both
       out-edges, and every out-neighborhood is O(sqrt(m)) for the
       worst block, bounding wedge fan-out at O(m^1.5) instead of the
       hub-quadratic naive count;
    3. emit wedges (b, c) per source from its rank-sorted out-neighbors
       (vectorized triu pairs) and semi-join them against the oriented
       edge keys — surviving wedges ARE the triangles.

    Degrees live driver-side (vocabulary-sized node set — the module's
    documented boundedness assumption) and broadcast via ``ray.put``;
    the edge passes stay distributed. Returns a 1-row frame
    ``{"triangles": n}``; orientation-invariant, so it equals the
    lexicographic SQL self-join oracle exactly."""
    _, tri, _deg = _triangle_parts(edges, src_col=src_col,
                                   dst_col=dst_col, buckets=buckets)
    return pd.DataFrame({"triangles": [np.int64(tri.count())]})


def local_clustering(edges: rd.Dataset, *, src_col: str = "canonical_src",
                     dst_col: str = "canonical_dst",
                     buckets: int | None = None) -> rd.Dataset:
    """Per-node triangle count, undirected degree, and local clustering
    coefficient ``2t / (d(d-1))`` (0 where degree < 2). Triangles come
    from the same degree-ordered machinery as ``triangle_count``; each
    triangle credits all three vertices via a bucketed partial-count
    pass. Degrees REUSE the exact driver-side table _triangle_parts
    already built for the rank ordering (vocabulary-sized, the module's
    boundedness contract) — no second distributed degree pass — and the
    final join is a driver-side merge over that bounded node set."""
    from .agg import bucketed_groupby, sum_merge

    und, tri, deg = _triangle_parts(edges, src_col=src_col,
                                    dst_col=dst_col, buckets=buckets)
    if len(deg) == 0:            # empty graph: typed empty result
        return rd.from_pandas([pd.DataFrame({
            "node": pd.Series([], dtype=str),
            "degree": pd.Series([], dtype="int64"),
            "triangles": pd.Series([], dtype="int64"),
            "coeff": pd.Series([], dtype="float64")})])

    def tri_partial(df: pd.DataFrame) -> pd.DataFrame:
        n = pd.concat([df["a"], df["b"], df["c"]], ignore_index=True)
        return (n.rename("node").to_frame().assign(t=np.int64(1))
                .groupby("node", as_index=False).sum())

    tcounts = bucketed_groupby(
        tri.map_batches(tri_partial, batch_format="pandas"),
        ["node"], sum_merge(["node"], ["t"]),
        buckets=buckets).to_pandas()      # vocabulary-sized

    out = deg.merge(tcounts, on="node", how="left")
    d = out["d"].to_numpy(np.float64)
    t = out["t"].fillna(0).to_numpy(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        coeff = np.where(d >= 2, (2.0 * t) / (d * (d - 1.0)), 0.0)
    res = pd.DataFrame({"node": out["node"],
                        "degree": out["d"].astype("int64"),
                        "triangles": t.astype("int64"),
                        "coeff": coeff}).sort_values(
        "node", kind="mergesort").reset_index(drop=True)
    return rd.from_pandas([res])


def k_hop_neighbors(edges: rd.Dataset, *, seed: str, k: int = 2,
                    src_col: str = "canonical_src",
                    dst_col: str = "canonical_dst") -> pd.DataFrame:
    """Undirected BFS neighborhood: every node within ``k`` hops of
    ``seed`` with its shortest hop distance. Each hop is one
    distributed edge scan filtered against the broadcast frontier
    (frontier and visited sets are node-vocabulary-bounded — the
    module's driver-state contract); the edge Dataset executes once
    (materialized) and is re-scanned per hop. Returns (node, hop)
    sorted by (hop, node)."""
    import ray

    edges = edges.materialize()
    visited: dict[str, int] = {seed: 0}
    frontier = {seed}
    for hop in range(1, k + 1):
        if not frontier:
            break
        fr_ref = ray.put(frozenset(frontier))

        def touch(df: pd.DataFrame) -> pd.DataFrame:
            fr = ray.get(fr_ref)
            s = df[src_col].astype(str)
            d = df[dst_col].astype(str)
            out = np.concatenate([d[s.isin(fr)].to_numpy(dtype=object),
                                  s[d.isin(fr)].to_numpy(dtype=object)])
            return pd.DataFrame({"node": pd.unique(out)})

        nxt = (edges.map_batches(touch, batch_format="pandas")
               .to_pandas())
        new = set(nxt["node"].astype(str)) - visited.keys()
        for n in new:
            visited[n] = hop
        frontier = new
    out = pd.DataFrame({"node": list(visited), "hop": list(visited.values())})
    out["hop"] = out["hop"].astype("int64")
    return out.sort_values(["hop", "node"],
                           kind="mergesort").reset_index(drop=True)


def link_prediction_scores(edges: rd.Dataset, *,
                           src_col: str = "canonical_src",
                           dst_col: str = "canonical_dst",
                           min_common: int = 2,
                           max_nodes: int = 50_000_000) -> rd.Dataset:
    """Link-prediction similarity scores for node pairs sharing >=
    ``min_common`` neighbors in the undirected simple graph: common-
    neighbor count, neighbor-set Jaccard, and Adamic-Adar
    (sum over shared z of 1 / ln(deg z)).

    Scale shape: distinct undirected adjacency -> one shuffle keyed on
    the SHARED neighbor z (each z's neighbor list meets in one bucket,
    emitting its pairs vectorized — the same sum-of-deg^2 wedge bound
    as triangle counting, with the same hub caveat: degree-cap or
    degree-order hubs first on power-law graphs); pair partials then
    merge through one (a, b)-keyed shuffle, and the degree map
    broadcasts for the closed-formula finish. ``min_common`` prunes in
    the merge, so the singles-dominated tail never materializes."""
    import ray

    from .agg import bucketed_groupby, sum_merge

    def und_partial(df: pd.DataFrame) -> pd.DataFrame:
        a = df[src_col].astype(str).to_numpy()
        b = df[dst_col].astype(str).to_numpy()
        keep = a != b
        a, b = a[keep], b[keep]
        u = np.minimum(a, b)
        v = np.maximum(a, b)
        return (pd.DataFrame({"u": u, "v": v})
                .drop_duplicates())

    und = bucketed_groupby(
        edges.map_batches(und_partial, batch_format="pandas"),
        ["u", "v"], lambda df: df.drop_duplicates(["u", "v"]))

    def both_dirs(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "node": np.concatenate([df["u"].to_numpy(),
                                    df["v"].to_numpy()]),
            "z": np.concatenate([df["v"].to_numpy(),
                                 df["u"].to_numpy()])})

    adj = und.map_batches(both_dirs, batch_format="pandas").materialize()

    def deg_partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("node", as_index=False, sort=False).agg(
            d=("z", "size"))
        g["d"] = g["d"].astype(np.int64)
        return g

    deg = bucketed_groupby(
        adj.map_batches(deg_partial, batch_format="pandas"),
        ["node"], sum_merge(["node"], ["d"])).to_pandas()
    if len(deg) > max_nodes:
        raise ValueError(
            f"link_prediction_scores: {len(deg)} nodes exceed max_nodes="
            f"{max_nodes}; shard the degree map or raise the cap")
    import math

    # libm log (not numpy's SIMD log, whose last ulp can differ and flip
    # a bp rounding) for the per-z Adamic-Adar addends, precomputed once
    dmap = dict(zip(deg["node"], deg["d"].astype(int)))
    amap = {n: 1.0 / math.log(d) for n, d in dmap.items() if d >= 2}
    dref = ray.put((dmap, amap))

    def wedge_pairs(df: pd.DataFrame) -> pd.DataFrame:
        _, am = ray.get(dref)
        m = df.merge(df, on="z")
        m = m[m["node_x"] < m["node_y"]]
        if not len(m):
            return pd.DataFrame({"node_a": pd.Series(dtype="object"),
                                 "node_b": pd.Series(dtype="object"),
                                 "common": pd.Series(dtype=np.int64),
                                 "aa": pd.Series(dtype=np.float64)})
        # a shared z always has degree >= 2, so am covers every lookup
        m = m.assign(common=np.int64(1),
                     aa=m["z"].map(am).to_numpy(np.float64))
        return (m.rename(columns={"node_x": "node_a",
                                  "node_y": "node_b"})
                [["node_a", "node_b", "common", "aa"]]
                .groupby(["node_a", "node_b"], as_index=False,
                         sort=False).sum())

    pairs = bucketed_groupby(
        adj.map_batches(lambda df: df, batch_format="pandas"),
        ["z"], wedge_pairs)

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.groupby(["node_a", "node_b"], as_index=False,
                        sort=False).agg(common=("common", "sum"),
                                        aa=("aa", "sum")))
        g = g[g["common"].to_numpy() >= min_common]
        return g

    folded = bucketed_groupby(pairs, ["node_a", "node_b"], fold)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        dm, _ = ray.get(dref)
        da = df["node_a"].map(dm).to_numpy(np.float64)
        db = df["node_b"].map(dm).to_numpy(np.float64)
        c = df["common"].to_numpy(np.float64)
        jac = c / (da + db - c)
        return pd.DataFrame({
            "node_a": df["node_a"].astype("string"),
            "node_b": df["node_b"].astype("string"),
            "common": df["common"].astype(np.int64),
            "jac_bp": np.floor(jac * 10000 + 0.5).astype(np.int64),
            "aa_bp": np.floor(
                df["aa"].to_numpy(np.float64) * 10000 + 0.5
            ).astype(np.int64)})

    return folded.map_batches(finish, batch_format="pandas")
