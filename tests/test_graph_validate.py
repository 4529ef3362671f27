"""Graph validator parity (reference validators.py:168-300): same checks,
reported as violation rows instead of first-error exceptions."""

import pandas as pd
import pyarrow.parquet as pq
import ray.data as rd

from ai_knowledgegraph_extractor_ray.config import KGConfig
from ai_knowledgegraph_extractor_ray.functions.graph_validate import (
    validate_conversation_graph,
    validate_graph_rows,
)
from ai_knowledgegraph_extractor_ray.pipelines.kg import build_graph_rows
from ai_knowledgegraph_extractor_ray.sources import transcripts as src


def test_clean_graph_no_violations():
    v = validate_conversation_graph(
        ["n1", "n2"], ["Acme", "Bob"], ["Organization", "Person"],
        ["n2"], ["n1"], ["works_at"])
    assert v == []


def test_each_violation_detected():
    # duplicate node id
    v = validate_conversation_graph(["n1", "n1"], ["A", "B"], ["T", "T"],
                                    [], [], [])
    assert ("duplicate_node_id", "n1") in v
    # empty label, long type
    v = validate_conversation_graph(["n1"], ["  "], ["x" * 101], [], [], [])
    checks = {c for c, _ in v}
    assert {"label_empty", "type_too_long"} <= checks
    # dangling, self loop, dup edge, long relationship
    v = validate_conversation_graph(
        ["n1", "n2"], ["A", "B"], ["T", "T"],
        ["n1", "n9", "n1", "n1"], ["n1", "n2", "n2", "n2"],
        ["r", "r", "x" * 101, "r"])
    checks = [c for c, _ in v]
    assert "self_loop" in checks
    assert "dangling_source" in checks
    assert "relationship_too_long" in checks
    # no two edges share (source, target, relationship)
    assert "duplicate_edge" not in checks


def test_duplicate_edge_detected():
    v = validate_conversation_graph(
        ["n1", "n2"], ["A", "B"], ["T", "T"],
        ["n1", "n1"], ["n2", "n2"], ["r", "r"])
    assert ("duplicate_edge", "n1->n2:r") in v


def test_pipeline_output_is_clean(tmp_path):
    """The rule extractor's output must satisfy the reference validator by
    construction (dedup/self-loop/dangling suppression inside the UDF)."""
    table = src.synthetic_transcripts_table(n_convs=30, seed=42)
    p = tmp_path / "t.parquet"
    pq.write_table(table, p)
    rows = build_graph_rows(src.read_transcripts(str(p)),
                            KGConfig(num_partitions=4))
    violations = validate_graph_rows(rows).to_pandas()
    assert len(violations) == 0


def test_validator_catches_corrupted_rows():
    df = pd.DataFrame({
        "kind": ["node", "node", "edge"],
        "conv_id": ["c1"] * 3,
        "window_id": [0] * 3,
        "node_id": ["n1", "n1", None],
        "label": ["A", "B", None],
        "node_type": ["T", "T", None],
        "src_node_id": [None, None, "n1"],
        "dst_node_id": [None, None, "n7"],
        "pred": [None, None, "rel"],
    })
    v = validate_graph_rows(rd.from_pandas(df)).to_pandas()
    assert set(v["check"]) == {"duplicate_node_id", "dangling_target"}
