"""Graph-structure validation: the semantic contract of the reference's
DataValidator.validate_knowledge_graph (validators.py:168-300), applied to
graph rows instead of a JSON dict.

The reference raises on the first violation; at pipeline scale the engine
validates per conversation inside a batch and reports violations as rows
(conv_id, check, detail) so one bad conversation never fails a partition —
callers decide whether to drop, quarantine, or fail the job.

Checks (same rules, same caps):
* node: non-empty id/label/type after strip; id <= 50, label <= 255,
  type <= 100 chars; no duplicate node ids           (validators.py:221-257, 195-197)
* edge: non-empty endpoints/relationship after strip; relationship <= 100;
  endpoints resolve to node ids; no self loops; no duplicate
  (source, target, relationship)                     (validators.py:260-300, 210-213)
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import ray.data as rd

MAX_NODE_ID = 50      # validators.py:237
MAX_LABEL = 255       # validators.py:244
MAX_TYPE = 100        # validators.py:251
MAX_REL = 100         # validators.py:293


def validate_conversation_graph(node_ids: list, labels: list, types: list,
                                edge_src: list, edge_dst: list,
                                edge_rel: list) -> list[tuple[str, str]]:
    """Return (check, detail) violations for one conversation's graph."""
    out: list[tuple[str, str]] = []
    seen_ids: set[str] = set()
    for nid, label, typ in zip(node_ids, labels, types):
        nid, label, typ = str(nid).strip(), str(label).strip(), str(typ).strip()
        if not nid:
            out.append(("node_id_empty", nid))
        elif len(nid) > MAX_NODE_ID:
            out.append(("node_id_too_long", nid[:60]))
        if nid in seen_ids:
            out.append(("duplicate_node_id", nid))
        seen_ids.add(nid)
        if not label:
            out.append(("label_empty", nid))
        elif len(label) > MAX_LABEL:
            out.append(("label_too_long", label[:60]))
        if not typ:
            out.append(("type_empty", nid))
        elif len(typ) > MAX_TYPE:
            out.append(("type_too_long", typ[:60]))

    seen_edges: set[tuple] = set()
    for s, d, r in zip(edge_src, edge_dst, edge_rel):
        s, d, r = str(s).strip(), str(d).strip(), str(r).strip()
        if not s or not d:
            out.append(("edge_endpoint_empty", f"{s}->{d}"))
        if s and s not in seen_ids:
            out.append(("dangling_source", s))
        if d and d not in seen_ids:
            out.append(("dangling_target", d))
        if s == d:
            out.append(("self_loop", s))
        if not r:
            out.append(("relationship_empty", f"{s}->{d}"))
        elif len(r) > MAX_REL:
            out.append(("relationship_too_long", r[:60]))
        key = (s, d, r)
        if key in seen_edges:
            out.append(("duplicate_edge", f"{s}->{d}:{r}"))
        seen_edges.add(key)
    return out


def validate_graph_rows(graph_rows: rd.Dataset) -> rd.Dataset:
    """Validate the unified graph-rows stream per (conv_id, window_id).

    Returns a violations Dataset (conv_id, window_id, check, detail) —
    empty when the graph is clean. Runs per batch; correctness relies on
    every row of a conversation-window sitting in one block (true for
    ``build_graph_rows``, whose blocks are whole partitions, each the
    output of one reduce task)."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        convs, wins, checks, details = [], [], [], []
        for (cid, wid), g in df.groupby(["conv_id", "window_id"], sort=False):
            nodes = g[g["kind"] == "node"]
            edges = g[g["kind"] == "edge"]
            for check, detail in validate_conversation_graph(
                    nodes["node_id"].tolist(), nodes["label"].tolist(),
                    nodes["node_type"].tolist(), edges["src_node_id"].tolist(),
                    edges["dst_node_id"].tolist(), edges["pred"].tolist()):
                convs.append(cid)
                wins.append(wid)
                checks.append(check)
                details.append(detail)
        return pd.DataFrame({
            "conv_id": pd.Series(convs, dtype="string"),
            "window_id": pd.Series(wins, dtype="int32"),
            "check": pd.Series(checks, dtype="string"),
            "detail": pd.Series(details, dtype="string"),
        })

    return graph_rows.map_batches(fn, batch_format="pandas")
