"""Output checks run after every measured job, outside the timed region.

All checks are pure functions over pandas frames read back from the lake, so
they can be exercised without a Ray session. A failed check marks the unit
that produced the bad output as failed: a phase-1 partition (golden,
sampled-extraction and version-digest checks) or the phase-2 commit (edge
weight conservation).
"""

from __future__ import annotations

import hashlib
import json
import zlib
from pathlib import Path

import pandas as pd

SAMPLE_CONVS = 40            # conversations re-extracted per run


def partition_of(conv_id: str, num_partitions: int) -> int:
    return zlib.crc32(conv_id.encode()) % num_partitions


def read_phase1(out_dir: str, version: int) -> tuple[set[int], pd.DataFrame,
                                                     pd.DataFrame]:
    """(committed partition ids, nodes, edges) of one version; node and
    edge rows keep their file order and gain a ``partition_id`` column."""
    from ai_knowledgegraph_extractor_ray.state import lineage
    committed = lineage.committed_partitions(out_dir, version)
    nodes, edges = [], []
    for pid in sorted(committed):
        pdir = lineage.partition_dir(out_dir, version, pid)
        nodes.append(pd.read_parquet(pdir / "nodes.parquet").assign(
            partition_id=pid))
        edges.append(pd.read_parquet(pdir / "edges.parquet").assign(
            partition_id=pid))
    return (set(committed),
            pd.concat(nodes, ignore_index=True) if nodes else pd.DataFrame(),
            pd.concat(edges, ignore_index=True) if edges else pd.DataFrame())


def read_canonical(out_dir: str, version: int, table: str) -> pd.DataFrame:
    from ai_knowledgegraph_extractor_ray.state import lineage
    path = lineage.version_dir(out_dir, version) / "canonical" / table
    if not Path(path).is_dir():
        return pd.DataFrame()
    return pd.read_parquet(path)


def golden_failures(nodes: pd.DataFrame, edges: pd.DataFrame,
                    fixtures: dict) -> list[str]:
    """Golden conversations whose committed graph is not byte-equal to the
    reference fixture (node ids, labels, types and every triple, in
    extraction order)."""
    bad = []
    for cid, fx in fixtures.items():
        n = nodes[nodes["conv_id"] == cid]
        e = edges[edges["conv_id"] == cid]
        got = {
            "nodes": [{"id": r.node_id, "label": r.label, "type": r.node_type}
                      for r in n.itertuples()],
            "edges": [{"source": r.src_node_id, "target": r.dst_node_id,
                       "relationship": r.pred} for r in e.itertuples()],
        }
        if (json.dumps(got, sort_keys=True)
                != json.dumps(fx["graph"], sort_keys=True)):
            bad.append(cid)
    return bad


def expected_triples(turns: pd.DataFrame, conv_ids: list[str]
                     ) -> dict[str, list[tuple[str, str, str]]]:
    """Direct extraction over each conversation's ordered, newline-joined
    turns: the triples the pipeline must commit for it."""
    from ai_knowledgegraph_extractor_ray.functions.rules import (
        extract_rule_graph,
    )
    sel = turns[turns["conv_id"].isin(conv_ids)].sort_values(
        ["conv_id", "turn_idx"], kind="mergesort")
    out = {}
    for cid, text in sel.groupby("conv_id", sort=True)["text"].agg(
            "\n".join).items():
        g = extract_rule_graph(text)
        label = dict(zip(g.node_ids, g.labels))
        out[cid] = sorted((label[s], r, label[d]) for s, d, r in
                          zip(g.edge_src, g.edge_dst, g.edge_rel))
    return out


def sample_failures(edges: pd.DataFrame,
                    want: dict[str, list[tuple[str, str, str]]]) -> list[str]:
    """Sampled conversations whose committed triples differ from a direct
    re-extraction (precision and recall both 1.0 or the unit fails)."""
    got = {cid: sorted(zip(g["subj"], g["pred"], g["obj"]))
           for cid, g in edges[edges["conv_id"].isin(list(want))]
           .groupby("conv_id")} if len(edges) else {}
    return [cid for cid, triples in want.items()
            if got.get(cid, []) != triples]


def weight_conserved(canonical_edges: pd.DataFrame,
                     edges: pd.DataFrame) -> bool:
    """Total canonical edge weight == phase-1 edges with both endpoints."""
    n = int((edges["subj"].notna() & edges["obj"].notna()).sum()) \
        if len(edges) else 0
    w = int(canonical_edges["weight"].sum()) if len(canonical_edges) else 0
    return n == w


def frame_digest(df: pd.DataFrame, drop: tuple[str, ...] = ()) -> str:
    """Order-independent content digest of a frame."""
    if not len(df):
        return "empty"
    df = df.drop(columns=[c for c in drop if c in df.columns])
    cols = sorted(df.columns)
    rows = sorted("\x1f".join(map(str, r))
                  for r in df[cols].itertuples(index=False, name=None))
    h = hashlib.sha256("\x1e".join(cols).encode())
    for r in rows:
        h.update(b"\n" + r.encode())
    return h.hexdigest()[:16]


def partition_digests(edges: pd.DataFrame) -> dict[int, str]:
    if not len(edges):
        return {}
    return {int(pid): frame_digest(g.drop(columns="partition_id"))
            for pid, g in edges.groupby("partition_id")}


def digest_failures(edges: pd.DataFrame, reference: dict[int, str]
                    ) -> list[int]:
    """Partitions whose edges differ from a reference build's."""
    got = partition_digests(edges)
    return sorted(pid for pid in set(got) | set(reference)
                  if got.get(pid) != reference.get(pid))


def planted_recall(aliases: pd.DataFrame, planted: list[dict]) -> float:
    """Share of planted (base, variant) pairs the alias table maps to one
    canonical id; 1.0 when the workload plants none."""
    if not planted:
        return 1.0
    from ai_knowledgegraph_extractor_ray.stages.canonicalize import (
        normalize_surface,
    )
    cid = dict(zip(aliases["norm"], aliases["canonical_id"])) \
        if len(aliases) else {}
    hit = 0
    for p in planted:
        a = cid.get(normalize_surface(p["base"]))
        hit += a is not None and a == cid.get(normalize_surface(p["variant"]))
    return hit / len(planted)
