"""LLM response handling: JSON rescue, structural validation, graph
formatting.

Reimplements the reference's schema-on-read pipeline for LLM output
(reference: services.py:233-320 parse/repair, services.py:117-176 structural
validation, services.py:549-580 coercion + referential-integrity filter).
Pure functions — they run per row inside the extractor, in each partition's
reduce task.
"""

from __future__ import annotations

import json
import re

_FENCED = [
    re.compile(r"```json\s*(\{[\s\S]*?\})\s*```", re.DOTALL),
    re.compile(r"```\s*(\{[\s\S]*?\})\s*```", re.DOTALL),
    re.compile(r"`(\{[\s\S]*?\})`", re.DOTALL),
]
_SPANS = [
    re.compile(r"\{[\s\S]*\}", re.DOTALL),
    re.compile(r"\{[^{}]*(?:\{[^{}]*\}[^{}]*)*\}", re.DOTALL),
]
_TRAILING_OBJ = re.compile(r",\s*}")
_TRAILING_ARR = re.compile(r",\s*]")
_BARE_KEY = re.compile(r"([{,]\s*)(\w+):")
_BARE_VAL = re.compile(r":\s*([^\",{\[\s][^,}]*?)(\s*[,}])")


def fix_common_json_issues(text: str) -> str:
    """Trim to the outermost {...}, drop trailing commas, quote bare keys and
    bare string values (reference: services.py:294-320)."""
    start = text.find("{")
    if start > 0:
        text = text[start:]
    end = text.rfind("}")
    if end > 0:
        text = text[: end + 1]
    text = _TRAILING_OBJ.sub("}", text)
    text = _TRAILING_ARR.sub("]", text)
    text = _BARE_KEY.sub(r'\1"\2":', text)
    text = _BARE_VAL.sub(r': "\1"\2', text)
    return text.strip()


def parse_llm_json(response_text: str) -> dict:
    """Four-strategy JSON rescue (reference: services.py:233-292): direct
    loads -> fenced-code blocks -> brace spans -> repaired text. Raises
    ValueError when every strategy fails."""
    if not response_text or not response_text.strip():
        raise ValueError("empty LLM response")
    try:
        return json.loads(response_text.strip())
    except json.JSONDecodeError:
        pass
    for pattern in (*_FENCED, *_SPANS):
        for match in pattern.findall(response_text):
            try:
                return json.loads(match.strip())
            except json.JSONDecodeError:
                continue
    try:
        return json.loads(fix_common_json_issues(response_text))
    except json.JSONDecodeError:
        raise ValueError("could not parse JSON from LLM response")


def validate_and_format_graph(graph_data: dict) -> dict:
    """Coerce nodes to {id,label,type} (default type Entity), drop edges whose
    endpoints are missing, default relationship related_to (reference:
    services.py:549-580)."""
    nodes = [
        {"id": n["id"], "label": n["label"], "type": n.get("type", "Entity")}
        for n in graph_data.get("nodes", [])
        if isinstance(n, dict) and "id" in n and "label" in n
    ]
    ids = {n["id"] for n in nodes}
    edges = [
        {"source": e["source"], "target": e["target"],
         "relationship": e.get("relationship", "related_to")}
        for e in graph_data.get("edges", [])
        if isinstance(e, dict) and e.get("source") in ids and e.get("target") in ids
    ]
    return {"nodes": nodes, "edges": edges}


def validate_extraction_result(result: dict, max_nodes: int = 1000,
                               max_edges: int = 2000) -> bool:
    """Structural predicate gating LLM output before it is trusted
    (reference: services.py:117-176)."""
    if not isinstance(result, dict):
        return False
    nodes, edges = result.get("nodes"), result.get("edges")
    if not isinstance(nodes, list) or not isinstance(edges, list):
        return False
    if len(nodes) > max_nodes or len(edges) > max_edges:
        return False
    for n in nodes:
        if not isinstance(n, dict):
            return False
        if any(not n.get(f) for f in ("id", "label", "type")):
            return False
    for e in edges:
        if not isinstance(e, dict):
            return False
        if any(not e.get(f) for f in ("source", "target", "relationship")):
            return False
    return True
