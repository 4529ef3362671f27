"""Triple extraction stage: conversation texts -> graph rows.

The per-partition extract step of the KG job's fused reduce (SURVEY.md §2.2
M1-M11). The ``Extractor`` is built once on the driver and pickled into each
reduce task, so its backend state (compiled patterns / model client) is
per task and serves every text unit of the partition; work happens over
Arrow columns. The LLM fallback chain of the reference (openai -> ollama ->
rules, validation-gated, reference: services.py:85-115) becomes a per-row
try/validate/fallback inside the task — a poisoned row degrades to the
deterministic backend instead of failing the partition.

Output is a single unified "graph rows" Arrow table (kind: node|edge) so one
streaming pass produces both graph tables; the sink partitions by kind.
"""

from __future__ import annotations

import hashlib
import json
from typing import Protocol

import numpy as np
import pyarrow as pa

from ..config import KGConfig
from ..functions.rules import RuleGraph, extract_rule_graph
from ..functions import json_repair

GRAPH_ROW_FIELDS = [
    ("kind", pa.string()),            # "node" | "edge"
    ("conv_id", pa.string()),
    ("window_id", pa.int32()),
    ("node_id", pa.string()),         # nodes only
    ("label", pa.string()),           # nodes only (surface form)
    ("node_type", pa.string()),       # nodes only
    ("edge_id", pa.string()),         # edges only (content hash, no version)
    ("src_node_id", pa.string()),
    ("dst_node_id", pa.string()),
    ("subj", pa.string()),            # edges only: surface forms
    ("pred", pa.string()),
    ("obj", pa.string()),
    ("version", pa.int32()),
    ("partition_id", pa.int32()),
    ("conv_fp", pa.uint64()),
    ("backend", pa.string()),         # which extractor produced the row
    ("n_turns", pa.int32()),          # conv rows only
]
GRAPH_ROWS = pa.schema(GRAPH_ROW_FIELDS)


class ExtractorBackend(Protocol):
    """One text unit in, one graph out. Implementations must be pure
    per-call (no cross-call state that affects results)."""

    name: str

    def extract(self, text: str) -> RuleGraph: ...


class RuleBackend:
    """The deterministic oracle backend (reference: services.py:379-547)."""

    name = "rules"

    def extract(self, text: str) -> RuleGraph:
        return extract_rule_graph(text)


class LLMBackend:
    """LLM-backed extraction with validate -> rules fallback.

    The sandbox has no model runtime, so the client seam
    (``_generate``) raises NotImplementedError unless a ``fake_responses``
    callable is injected; the Ray-side plumbing (batching, JSON repair,
    validation, fallback) is real and tested via the deterministic fake.
    Mirrors reference semantics: prompt over text[:max_chars]
    (services.py:375), robust JSON parse (services.py:233-320), structural
    validation with node/edge caps (services.py:117-176), referential
    formatting (services.py:549-580), rules fallback on any failure
    (services.py:102-115).
    """

    name = "llm"

    def __init__(self, cfg: KGConfig, fake_responses=None):
        self.cfg = cfg
        self.fallback = RuleBackend()
        self.fake_responses = fake_responses
        # Protocol chain, one client per provider per reduce task
        # (connection reuse; Ollama's one-shot health probe amortized over
        # the partition's conversations). Mirrors the reference's openai ->
        # ollama -> rules chain (services.py:85-115) with cfg.llm_provider
        # picking the members and order.
        self.clients: list = []
        if fake_responses is None and (cfg.llm_base_url
                                       or cfg.llm_openai_base_url):
            from ..functions.llm_client import OllamaClient, OpenAIClient
            for provider in (p.strip() for p in cfg.llm_provider.split(",")):
                if provider == "ollama":
                    if cfg.llm_base_url:   # no URL -> provider just absent
                        self.clients.append(OllamaClient(
                            cfg.llm_base_url, cfg.llm_model,
                            timeout_s=cfg.llm_timeout_s))
                elif provider == "openai":
                    base = cfg.llm_openai_base_url or cfg.llm_base_url
                    self.clients.append(OpenAIClient(
                        base, cfg.llm_model, api_key=cfg.llm_api_key,
                        timeout_s=cfg.llm_timeout_s))
                elif provider:
                    raise ValueError(f"unknown llm_provider {provider!r}")
            if not self.clients:
                raise ValueError(
                    f"llm_provider={cfg.llm_provider!r} matched no "
                    "configured endpoint (set llm_base_url / "
                    "llm_openai_base_url)")

    def _generate(self, text_chunk: str) -> str:
        if self.fake_responses is not None:
            return self.fake_responses(text_chunk)
        if self.clients:
            from ..functions.llm_client import extraction_prompt
            prompt = extraction_prompt(text_chunk, self.cfg.llm_max_chars)
            last: Exception | None = None
            for client in self.clients:
                try:
                    return client.generate(prompt)
                except Exception as e:     # next provider, then rules
                    last = e
            raise last
        raise NotImplementedError(
            "no LLM runtime configured; set llm_base_url, inject "
            "fake_responses, or use backend='rules'")

    def extract(self, text: str) -> RuleGraph:
        if not text or not text.strip():
            return RuleGraph()
        try:
            raw = self._generate(text[: self.cfg.llm_max_chars])
            data = json_repair.parse_llm_json(raw)
            graph = json_repair.validate_and_format_graph(data)
            if not json_repair.validate_extraction_result(
                    graph, self.cfg.max_nodes_per_unit, self.cfg.max_edges_per_unit):
                raise ValueError("validation failed")
        except Exception:
            return self.fallback.extract(text)
        g = RuleGraph()
        for n in graph["nodes"]:
            g.node_ids.append(str(n["id"]))
            g.labels.append(str(n["label"]))
            g.types.append(str(n["type"]))
        id_to_label = dict(zip(g.node_ids, g.labels))
        for e in graph["edges"]:
            g.edge_src.append(str(e["source"]))
            g.edge_dst.append(str(e["target"]))
            g.edge_rel.append(str(e["relationship"]))
        return g


def make_backend(cfg: KGConfig) -> ExtractorBackend:
    if cfg.backend == "rules":
        return RuleBackend()
    if cfg.backend == "llm":
        return LLMBackend(cfg, fake_responses=cfg.extra.get("fake_responses"))
    raise ValueError(f"unknown backend {cfg.backend!r}")


def edge_id_of(conv_id: str, subj: str, pred: str, obj: str) -> str:
    """Content hash of one triple. The version is not in it, so a partition
    file stays valid under every version that links it; ``(version,
    edge_id)`` is the cross-version key."""
    return hashlib.sha256(
        f"{conv_id}\x00{subj}\x00{pred}\x00{obj}".encode()
    ).hexdigest()[:20]


class Extractor:
    """Backend state (any model client) is built in __init__ and travels
    pickled into each reduce task; __call__ handles one Arrow table of
    assembled conversations/windows."""

    def __init__(self, cfg: KGConfig):
        self.cfg = cfg
        self.backend = make_backend(cfg)

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Graph rows of every text unit of ``batch``, unit by unit: its
        ``conv`` marker row, then its node rows, then its edge rows. The
        unit's own columns are repeated onto its rows with one ``take`` per
        column; the node and edge columns are filled from lists extended
        once per unit."""
        bname = self.backend.name
        statuses: list[str] = []
        sizes: list[tuple[int, int, int]] = []     # rows per unit and kind
        node_ids, labels, types = [], [], []
        edge_ids, srcs, dsts, subjs, preds, objs = [], [], [], [], [], []
        for cid, text in zip(batch["conv_id"].to_pylist(),
                             batch["text"].to_pylist()):
            try:
                g = self.backend.extract(text)
                status = bname
            except Exception:
                # a poisoned row must never fail its partition (SURVEY §4.2):
                # degrade to the deterministic backend, else to an empty
                # graph, and mark the unit's lineage row
                try:
                    g = extract_rule_graph(text)
                    status = "rules_fallback"
                except Exception:
                    g = RuleGraph()
                    status = "error"
            statuses.append(status)
            sizes.append((1, len(g.node_ids), len(g.edge_src)))
            node_ids += g.node_ids
            labels += g.labels
            types += g.types
            label_of = dict(zip(g.node_ids, g.labels))
            for src, dst, rel in zip(g.edge_src, g.edge_dst, g.edge_rel):
                subj, obj = label_of.get(src, ""), label_of.get(dst, "")
                edge_ids.append(edge_id_of(cid, subj, rel, obj))
                subjs.append(subj)
                objs.append(obj)
            srcs += g.edge_src
            dsts += g.edge_dst
            preds += g.edge_rel

        # per unit: one marker row (kind 0: conv), its nodes (1), its edges
        # (2); a row's ``pos`` is its index among the rows of its kind
        per_kind = np.array(sizes, np.int64).reshape(-1, 3)
        kind = np.repeat(np.tile(np.arange(3, dtype=np.int8), len(sizes)),
                         per_kind.reshape(-1))
        unit = np.repeat(np.arange(len(sizes)), per_kind.sum(axis=1))
        pos = np.zeros(len(kind), np.int64)
        for k in range(3):
            m = kind == k
            pos[m] = np.arange(int(m.sum()))

        def of_kind(k: int, values: list, typ) -> pa.Array:
            """``values`` on the rows of kind ``k``, null elsewhere."""
            return pa.array(values, typ).take(pa.array(pos, mask=kind != k))

        units = pa.array(unit)
        cols = {
            "kind": pa.array(["conv", "node", "edge"]).take(pa.array(kind)),
            **{c: batch[c].take(units).cast(GRAPH_ROWS.field(c).type)
               for c in ("conv_id", "window_id", "version", "partition_id",
                         "conv_fp")},
            "node_id": of_kind(1, node_ids, pa.string()),
            "label": of_kind(1, labels, pa.string()),
            "node_type": of_kind(1, types, pa.string()),
            "edge_id": of_kind(2, edge_ids, pa.string()),
            "src_node_id": of_kind(2, srcs, pa.string()),
            "dst_node_id": of_kind(2, dsts, pa.string()),
            "subj": of_kind(2, subjs, pa.string()),
            "pred": of_kind(2, preds, pa.string()),
            "obj": of_kind(2, objs, pa.string()),
            # the unit's extraction status on its marker row, the backend on
            # its graph rows
            "backend": pa.array([bname] + statuses).take(pa.array(
                np.where(kind == 0, pos + 1, 0))),
            "n_turns": batch["n_turns"].take(pa.array(unit, mask=kind != 0))
            .cast(GRAPH_ROWS.field("n_turns").type),
        }
        return pa.table([cols[name] for name, _ in GRAPH_ROW_FIELDS],
                         schema=GRAPH_ROWS)


def renumber_conversation_windows(df) -> "pd.DataFrame":
    """Conversation-level node ids for windowed extraction (SURVEY §7.3):
    first-appearance numbering ACROSS a conversation's ordered windows, not
    per window. Runs on one partition's graph-rows frame inside the fused
    partition task — all windows of a conversation are colocated there.

    Node identity is the exact surface label (mirroring the reference's
    per-document node_map keyed on label, services.py:410-419): the first
    window in which a label appears fixes its id n<rank> and its type guess;
    later windows' re-extractions of the same label collapse into it. Edge
    endpoints are remapped via their surface forms and cross-window
    duplicate (src, pred, dst) triples are suppressed, extending the
    reference's per-document dedup to the conversation. Identity for
    single-window conversations (window_chars=0)."""
    import pandas as pd

    nodes = df[df["kind"] == "node"]
    if not len(nodes):
        return df
    nodes = nodes.assign(_ord=nodes["node_id"].str.slice(1).astype(int))
    nodes = nodes.sort_values(["conv_id", "window_id", "_ord"],
                              kind="mergesort")
    firsts = nodes.drop_duplicates(["conv_id", "label"]).copy()
    firsts["node_id"] = "n" + (
        firsts.groupby("conv_id", sort=False).cumcount() + 1).astype(str)
    gid = firsts.set_index(["conv_id", "label"])["node_id"]

    edges = df[df["kind"] == "edge"]
    if len(edges):
        edges = edges.sort_values(["conv_id", "window_id"], kind="mergesort")
        edges = edges.assign(
            src_node_id=gid.reindex(pd.MultiIndex.from_arrays(
                [edges["conv_id"], edges["subj"]])).to_numpy(),
            dst_node_id=gid.reindex(pd.MultiIndex.from_arrays(
                [edges["conv_id"], edges["obj"]])).to_numpy())
        edges = edges.drop_duplicates(
            ["conv_id", "src_node_id", "pred", "dst_node_id"])

    convs = df[df["kind"] == "conv"]
    return pd.concat([convs, firsts.drop(columns="_ord"), edges],
                     ignore_index=True)[df.columns]

