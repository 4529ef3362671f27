"""Connected components over a distributed pair list — the scale path for
near-duplicate cluster resolution.

Near-dedup's ``drop_pair_clusters`` collects the verified PAIR list for a
driver union-find while it holds at most ``dedup._DRIVER_PAIRS_MAX`` pairs,
and takes this operator above that. Pairs are the quadratic object (a
duplicate cluster of k docs yields O(k^2) verified pairs), so that is the
first thing to outgrow the driver. This operator never collects pairs:

* the symmetrized adjacency stays a Dataset; each round is ONE distributed
  scan that, per block, looks up neighbor labels in a broadcast label array
  (``ray.put``) and emits per-block (node, min-candidate) PARTIALS — at most
  one row per distinct node per block;
* the driver merges partials (vectorized pandas min) and pointer-jumps
  (label := label[label]) until fixpoint — O(log n) rounds.

Scale contract: the NODE-level label table is driver-resident (one int64
pair per duplicate-involved node — millions of entries = tens of MB), while
the PAIR stream is only ever streamed. A fully driver-free variant (label
table as a Dataset) was measured at 5-30 s per round on Ray 2.49 with
per-round plan-state buildup; the broadcast design is both faster and the
standard shape for iterate-with-small-state algorithms.

An earlier all-Dataset implementation also hit a streaming-executor deadlock
when a lazy groupby fed a union branch of another groupby at low CPU counts
— worth remembering before re-attempting it.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray
import ray.data as rd


def connected_components(pairs: rd.Dataset, id_a: str = "id_a",
                         id_b: str = "id_b", *, max_rounds: int = 30,
                         verbose: bool = False) -> rd.Dataset:
    """(id_a, id_b) undirected pair Dataset -> (node, component) Dataset,
    component = minimum node id in the node's component. Only nodes
    appearing in pairs are returned (isolated rows are their own
    components). Node ids must be non-negative int64."""

    def symmetrize(df: pd.DataFrame) -> pd.DataFrame:
        a = df[id_a].to_numpy(dtype=np.int64)
        b = df[id_b].to_numpy(dtype=np.int64)
        return pd.DataFrame({"node": np.concatenate([a, b]),
                             "nbr": np.concatenate([b, a])})

    adj = pairs.map_batches(symmetrize, batch_format="pandas").materialize()

    # node vocabulary: per-block distinct -> driver concat (node-sized)
    def distinct_nodes(df: pd.DataFrame) -> pd.DataFrame:
        return df[["node"]].drop_duplicates()

    nodes_df = adj.map_batches(distinct_nodes, batch_format="pandas").to_pandas()
    if len(nodes_df) == 0:
        return rd.from_pandas(pd.DataFrame({
            "node": pd.Series(dtype="int64"),
            "component": pd.Series(dtype="int64")}))
    nodes = np.unique(nodes_df["node"].to_numpy(np.int64))

    # dense relabeling so the broadcast label table is a flat array lookup
    index_of = pd.Series(np.arange(len(nodes), dtype=np.int64), index=nodes)
    labels = nodes.copy()                      # labels[i] = current label of nodes[i]

    for rnd in range(max_rounds):
        lab_ref = ray.put(labels)
        idx_ref = ray.put(index_of)

        def local_min(df: pd.DataFrame) -> pd.DataFrame:
            lab = ray.get(lab_ref)
            idx = ray.get(idx_ref)
            node_i = idx[df["node"].to_numpy(np.int64)].to_numpy()
            nbr_lab = lab[idx[df["nbr"].to_numpy(np.int64)].to_numpy()]
            part = (pd.DataFrame({"ni": node_i, "cand": nbr_lab})
                    .groupby("ni", as_index=False)["cand"].min())
            return part

        partials = adj.map_batches(local_min, batch_format="pandas").to_pandas()

        new_labels = labels.copy()
        if len(partials):
            ni = partials["ni"].to_numpy(np.int64)
            cand = partials["cand"].to_numpy(np.int64)
            np.minimum.at(new_labels, ni, cand)
        # pointer jumping until the (tiny, in-memory) label table is stable
        while True:
            jumped = new_labels[index_of[new_labels].to_numpy()]
            if (jumped == new_labels).all():
                break
            new_labels = jumped
        changed = int((new_labels != labels).sum())
        labels = new_labels
        if verbose:
            print(f"cc round {rnd}: changed={changed}", flush=True)
        if not changed:
            break

    return rd.from_pandas(pd.DataFrame({"node": nodes, "component": labels}))
