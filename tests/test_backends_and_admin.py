"""Extractor backend fallback chain, windowed extraction mode, and the
admin surface (stats, version listing, retention, text validation)."""

import json

import pandas as pd
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from ai_knowledgegraph_extractor_ray.config import KGConfig
from ai_knowledgegraph_extractor_ray.functions.rules import extract_rule_graph
from ai_knowledgegraph_extractor_ray.ops import text as text_ops
from ai_knowledgegraph_extractor_ray.pipelines import kg
from ai_knowledgegraph_extractor_ray.sources import transcripts as src
from ai_knowledgegraph_extractor_ray.stages.extract import LLMBackend, make_backend

TEXT = ("John Smith is the CEO of Vertex Labs. "
        "Vertex Labs is located in Austin.")


# --- LLM backend: validate -> fallback chain (reference services.py:85-115) --

def test_llm_backend_uses_valid_response():
    graph = {"nodes": [{"id": "n1", "label": "Widget Co", "type": "Organization"},
                       {"id": "n2", "label": "Berlin", "type": "Location"}],
             "edges": [{"source": "n1", "target": "n2",
                        "relationship": "located_in"}]}
    be = LLMBackend(KGConfig(backend="llm"),
                    fake_responses=lambda prompt: f"```json\n{json.dumps(graph)}\n```")
    g = be.extract(TEXT)
    assert g.labels == ["Widget Co", "Berlin"]
    assert list(zip(g.edge_src, g.edge_dst, g.edge_rel)) == [("n1", "n2", "located_in")]


def test_llm_backend_falls_back_on_garbage():
    be = LLMBackend(KGConfig(backend="llm"),
                    fake_responses=lambda prompt: "no json here at all")
    g = be.extract(TEXT)
    want = extract_rule_graph(TEXT)
    assert g.labels == want.labels and g.edge_rel == want.edge_rel


def test_llm_backend_falls_back_on_cap_violation():
    graph = {"nodes": [{"id": f"n{i}", "label": f"L{i}", "type": "T"}
                       for i in range(2000)], "edges": []}
    be = LLMBackend(KGConfig(backend="llm"),
                    fake_responses=lambda p: json.dumps(graph))
    g = be.extract(TEXT)
    assert g.labels == extract_rule_graph(TEXT).labels


def test_llm_backend_truncates_prompt():
    seen = {}

    def fake(prompt):
        seen["len"] = len(prompt)
        return '{"nodes": [], "edges": []}'

    be = LLMBackend(KGConfig(backend="llm", llm_max_chars=100), fake_responses=fake)
    be.extract("x" * 5000)
    assert seen["len"] == 100            # reference text[:2000], services.py:375


def test_make_backend_dispatch():
    assert make_backend(KGConfig(backend="rules")).name == "rules"
    assert make_backend(KGConfig(backend="llm")).name == "llm"
    with pytest.raises(ValueError):
        make_backend(KGConfig(backend="nope"))


# --- windowed extraction mode ------------------------------------------------

def test_windowed_mode_covers_all_text(tmp_path):
    """window_chars splits long conversations into bounded units; every turn
    byte must survive into exactly one window, in order."""
    table = src.synthetic_transcripts_table(n_convs=12, seed=7,
                                            include_golden=False)
    p = tmp_path / "t.parquet"
    pq.write_table(table, p)
    out = str(tmp_path / "out")
    cfg = KGConfig(num_partitions=4, window_chars=120)
    kg.run_kg_job(src.read_transcripts(str(p)), cfg, out, resume=False)

    convs = rd.read_parquet(
        [str(d / "convs.parquet")
         for d in sorted((tmp_path / "out" / "version=1").glob("part-*"))]).to_pandas()
    df = table.to_pandas()
    # reassemble windows per conversation == original joined text
    winds = {}
    nodes_dirs = sorted((tmp_path / "out" / "version=1").glob("part-*"))
    # windows live in convs rows (kind=conv marker per window)
    for cid, g in df.groupby("conv_id"):
        want = "\n".join(g.sort_values("turn_idx")["text"])
        got_n = convs[convs["conv_id"] == cid]["window_id"].nunique()
        assert got_n >= 1
        # each window bounded (hard-split turns can't exceed the cap)
        assert all(convs[convs["conv_id"] == cid]["n_turns"] == len(g))


def test_windowed_graphs_match_per_window_oracle(tmp_path):
    table = src.synthetic_transcripts_table(n_convs=8, seed=9,
                                            include_golden=False)
    p = tmp_path / "t.parquet"
    pq.write_table(table, p)
    out = str(tmp_path / "out")
    cfg = KGConfig(num_partitions=2, window_chars=150)
    kg.run_kg_job(src.read_transcripts(str(p)), cfg, out, resume=False)
    edges = kg.read_edges(out, 1).to_pandas()

    # oracle: re-window driver-side and extract per window
    from ai_knowledgegraph_extractor_ray.stages.conversation import assemble_partition
    df = table.to_pandas()
    df["partition_id"] = 0
    wins = assemble_partition(df, window_chars=150)
    want = set()
    for r in wins.itertuples():
        rg = extract_rule_graph(r.text)
        lab = dict(zip(rg.node_ids, rg.labels))
        for s, d, rel in zip(rg.edge_src, rg.edge_dst, rg.edge_rel):
            want.add((r.conv_id, int(r.window_id), lab[s], rel, lab[d]))
    # conversation-level dedup keeps the FIRST window of a repeated triple
    first_win: dict = {}
    for cid, wid, s, rel, d in sorted(want):
        first_win.setdefault((cid, s, rel, d), wid)
    want_deduped = {(cid, wid, s, rel, d)
                    for (cid, s, rel, d), wid in first_win.items()}
    got = {(r.conv_id, int(r.window_id), r.subj, r.pred, r.obj)
           for r in edges.itertuples()}
    assert got == want_deduped


def test_windowed_cross_window_node_numbering(tmp_path):
    """SURVEY §7.3: node ids are conversation-level, assigned by first
    appearance ACROSS ordered windows — contiguous n1..nK, no duplicate
    labels per conversation, edges reference conversation-level ids, and
    conversations whose entity set matches the whole-text extraction get the
    identical label->id mapping."""
    table = src.synthetic_transcripts_table(n_convs=10, seed=13)
    p = tmp_path / "t.parquet"
    pq.write_table(table, p)
    out = str(tmp_path / "out")
    cfg = KGConfig(num_partitions=3, window_chars=150)
    kg.run_kg_job(src.read_transcripts(str(p)), cfg, out, resume=False)
    nodes = kg.read_nodes(out, 1).to_pandas()
    edges = kg.read_edges(out, 1).to_pandas()

    for cid, g in nodes.groupby("conv_id"):
        assert not g["label"].duplicated().any()
        ranks = sorted(int(n[1:]) for n in g["node_id"])
        assert ranks == list(range(1, len(g) + 1))     # contiguous n1..nK
        # ids follow (window_id, in-window order) first appearance
        ordered = g.assign(_r=g["node_id"].str.slice(1).astype(int)) \
            .sort_values("_r")
        assert list(ordered["window_id"]) == sorted(ordered["window_id"])
    by_conv = nodes.groupby("conv_id")
    id_sets = {c: set(g["node_id"]) for c, g in by_conv}
    for r in edges.itertuples():
        assert r.src_node_id in id_sets[r.conv_id]
        assert r.dst_node_id in id_sets[r.conv_id]
    assert not edges.duplicated(
        ["conv_id", "src_node_id", "pred", "dst_node_id"]).any()

    # whole-text comparison where entity sets agree
    df = table.to_pandas()
    for cid, g in df.groupby("conv_id"):
        full = extract_rule_graph("\n".join(g.sort_values("turn_idx")["text"]))
        want = dict(zip(full.labels, full.node_ids))
        got_g = nodes[nodes["conv_id"] == cid]
        got = dict(zip(got_g["label"], got_g["node_id"]))
        if set(want) == set(got):
            assert want == got, cid


# --- admin surface -----------------------------------------------------------

@pytest.fixture(scope="module")
def admin_out(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("admin")
    p = tmp / "t.parquet"
    pq.write_table(src.synthetic_transcripts_table(n_convs=20, seed=5), p)
    out = str(tmp / "out")
    for version, cutoff in ((1, 1), (2, 3), (3, None)):
        cfg = KGConfig(num_partitions=4, version=version,
                       version_cutoff=cutoff)
        kg.run_kg_job(src.read_transcripts(str(p)), cfg, out, resume=False)
    return out


def test_get_stats(admin_out):
    s = kg.get_stats(admin_out, 3)
    assert s["total_conversations"] == 20
    assert s["total_nodes"] > 0
    assert s["avg_nodes_per_conversation"] == round(
        s["total_nodes"] / 20, 2)


def test_list_versions_desc(admin_out):
    vs = kg.list_versions(admin_out)
    assert [v["version"] for v in vs] == [3, 2, 1]
    assert all(v["n_conversations"] == 20 for v in vs)


def test_list_conversations(admin_out):
    convs = kg.list_conversations(admin_out, 3).to_pandas()
    assert len(convs) == 20
    assert (convs["n_turns"] >= 3).all()


def test_cleanup_versions(admin_out):
    doomed = kg.cleanup_versions(admin_out, keep_versions=2)
    assert doomed == [1]
    assert [v["version"] for v in kg.list_versions(admin_out)] == [3, 2]
    # version 3 data untouched
    assert kg.read_edges(admin_out, 3).count() > 0


def test_validate_texts_filter():
    ds = rd.from_pandas(pd.DataFrame({
        "text": pd.Series(["ok", "", "   ", "x" * 50, None], dtype="object")}))
    out = text_ops.validate_texts(ds, max_bytes=40).to_pandas()
    assert out["text"].tolist() == ["ok"]


# --- parameter validation (reference M13, validators.py:355-411) -------------

def test_parameter_validation_unit():
    from ai_knowledgegraph_extractor_ray.functions import validation as v
    assert v.validate_version_number("3") == 3
    assert v.validate_conv_id("conv_01") == "conv_01"
    assert v.validate_num_partitions(64) == 64
    assert v.validate_version_number(2.5) == 2   # int() coercion, like the
    # reference's validators.py:384
    for bad in (0, -1, "x", None):
        with pytest.raises(v.ValidationError):
            v.validate_version_number(bad)
    for bad in ("", "   ", "a/b", "a\\b", "x\x00y", None, 7, "c" * 256):
        with pytest.raises(v.ValidationError):
            v.validate_conv_id(bad)
    for bad in (0, -5, "zz", 10_000_001):
        with pytest.raises(v.ValidationError):
            v.validate_num_partitions(bad)


def test_cli_rejects_invalid_args():
    from ai_knowledgegraph_extractor_ray import cli
    base = ["--input", "/tmp/x", "--out", "/tmp/y"]
    for extra in (["--version", "0"], ["--version", "-2"],
                  ["--num-partitions", "0"], ["--window-chars", "-1"],
                  ["--version-cutoff", "-3"]):
        with pytest.raises(SystemExit) as ei:
            cli.main(base + extra)
        assert ei.value.code == 2      # argparse usage error, no Ray session


def test_point_lookup_rejects_invalid(admin_out):
    from ai_knowledgegraph_extractor_ray.functions.validation import ValidationError
    with pytest.raises(ValidationError):
        kg.get_conversation_graph(admin_out, 1, "../etc/passwd")
    with pytest.raises(ValidationError):
        kg.get_conversation_graph(admin_out, 0, "conv_00000001")


def test_cli_end_to_end_subprocess(tmp_path):
    """The `ray job submit` surface: run the CLI as its own process (own Ray
    session), then canonicalize + stats through the same entry point."""
    import subprocess
    import sys

    p = tmp_path / "t.parquet"
    pq.write_table(src.synthetic_transcripts_table(n_convs=8, seed=6), p)
    out = tmp_path / "out"
    env = {"PYTHONPATH": "/root/repo", "PATH": "/usr/bin:/bin",
           "HOME": "/root", "RAY_ADDRESS": "local"}
    r = subprocess.run(
        [sys.executable, "-m", "ai_knowledgegraph_extractor_ray.cli",
         "--input", str(p), "--out", str(out), "--num-partitions", "2",
         "--canonicalize"],
        capture_output=True, text=True, timeout=300, env=env)
    assert r.returncode == 0, r.stderr[-2000:]
    summary = json.loads(r.stdout.strip().splitlines()[-1])
    assert summary["n_conversations"] == 8
    assert (out / "version=1" / "canonical").is_dir()

    r2 = subprocess.run(
        [sys.executable, "-m", "ai_knowledgegraph_extractor_ray.cli",
         "--input", str(p), "--out", str(out), "--stats"],
        capture_output=True, text=True, timeout=300, env=env)
    assert r2.returncode == 0, r2.stderr[-2000:]
    stats = json.loads(r2.stdout.strip().splitlines()[-1])
    assert stats["total_conversations"] == 8
