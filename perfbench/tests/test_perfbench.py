"""Tests of the benchmark itself (no Ray session needed).

    python3 -m pytest perfbench/tests -q
"""

import json
import re
from pathlib import Path

import pandas as pd
import pytest

from perfbench import checks, corpus, spec, tracing
from perfbench.run import Bench

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# --- seeded corpora -------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_same_seed_same_corpus_other_seed_other_corpus(workload, tmp_path):
    P = spec.WORKLOADS[workload].num_partitions
    a = corpus.build(workload, 7, 60, tmp_path / "a", ROOT, P)
    b = corpus.build(workload, 7, 60, tmp_path / "b", ROOT, P)
    c = corpus.build(workload, 8, 60, tmp_path / "c", ROOT, P)
    assert a["digest"] == b["digest"]
    assert a["digest"] != c["digest"]
    # the cache hands back the first build untouched
    assert corpus.build(workload, 7, 60, tmp_path / "a", ROOT, P) == a


def test_wide_vocab_plants_aliases_of_every_kind():
    fixtures = corpus.golden_fixtures(ROOT)
    table, planted = corpus.wide_vocab_table(2000, 3, fixtures)
    texts = "\n".join(table["text"].to_pylist())
    assert {p["kind"] for p in planted} == set(corpus.VARIANT_KINDS)
    for p in planted:
        assert p["base"] != p["variant"]
        assert p["base"] in texts and p["variant"] in texts


def test_incremental_changes_cluster_in_few_partitions():
    P = spec.WORKLOADS["incremental_v2"].num_partitions
    t1, t2, changed = corpus.incremental_tables(400, 5, P)
    assert changed and not any(c.startswith("golden_") for c in changed)
    assert len({checks.partition_of(c, P) for c in changed}) \
        <= corpus.HOT_PARTITIONS
    d1, d2 = t1.to_pandas(), t2.to_pandas()
    diff = set(d1.loc[d1["text"] != d2["text"], "conv_id"])
    assert diff == set(changed)


# --- output checks catch planted errors ----------------------------------

def _golden_frames(fixtures):
    nodes, edges = [], []
    for cid, fx in fixtures.items():
        label = {n["id"]: n["label"] for n in fx["graph"]["nodes"]}
        nodes += [{"conv_id": cid, "node_id": n["id"], "label": n["label"],
                   "node_type": n["type"]} for n in fx["graph"]["nodes"]]
        edges += [{"conv_id": cid, "src_node_id": e["source"],
                   "dst_node_id": e["target"], "pred": e["relationship"],
                   "subj": label[e["source"]], "obj": label[e["target"]]}
                  for e in fx["graph"]["edges"]]
    return pd.DataFrame(nodes), pd.DataFrame(edges)


def test_golden_check_catches_a_wrong_triple():
    fixtures = corpus.golden_fixtures(ROOT)
    nodes, edges = _golden_frames(fixtures)
    assert checks.golden_failures(nodes, edges, fixtures) == []
    bad = edges.copy()
    bad.loc[0, "pred"] = "acquired" if bad.loc[0, "pred"] != "acquired" \
        else "founded"
    assert checks.golden_failures(nodes, bad, fixtures) == \
        [bad.loc[0, "conv_id"]]


def test_sample_check_catches_wrong_and_missing_triples():
    turns = pd.DataFrame({
        "conv_id": ["c1", "c1", "c2"],
        "turn_idx": [1, 0, 0],
        "text": ["Alice Smith works at Acme Corporation.",
                 "Bob Jones is the CEO of Initech Systems.",
                 "Vertex Labs acquired Nimbus Analytics for a large sum."]})
    want = checks.expected_triples(turns, ["c1", "c2"])
    assert len(want["c1"]) == 2 and len(want["c2"]) == 1
    edges = pd.DataFrame([{"conv_id": c, "subj": s, "pred": p, "obj": o}
                          for c, ts in want.items() for s, p, o in ts])
    assert checks.sample_failures(edges, want) == []
    wrong = edges.copy()
    wrong.loc[wrong["conv_id"] == "c2", "obj"] = "Nimbus Labs"
    assert checks.sample_failures(wrong, want) == ["c2"]
    assert checks.sample_failures(edges.iloc[1:], want) == ["c1"]


def test_weight_check_catches_a_wrong_weight():
    edges = pd.DataFrame({"subj": ["a", "a", "b", None],
                          "obj": ["x", "x", "y", "z"]})
    canon = pd.DataFrame({"weight": [2, 1]})
    assert checks.weight_conserved(canon, edges)
    assert not checks.weight_conserved(canon.assign(weight=[2, 2]), edges)


def test_version_digest_check_names_the_changed_partition():
    edges = pd.DataFrame({"partition_id": [0, 0, 1], "edge_id": ["a", "b", "c"],
                          "subj": ["s", "t", "u"]})
    ref = checks.partition_digests(edges)
    assert checks.digest_failures(edges.iloc[::-1], ref) == []
    wrong = edges.copy()
    wrong.loc[2, "subj"] = "v"
    assert checks.digest_failures(wrong, ref) == [1]
    assert checks.digest_failures(edges[edges["partition_id"] == 0], ref) \
        == [1]


def test_planted_recall():
    aliases = pd.DataFrame({"norm": ["ab cd", "abcd", "xy", "xz"],
                            "canonical_id": ["e1", "e1", "e2", "e3"]})
    planted = [{"base": "Ab Cd", "variant": "Abcd"},
               {"base": "Xy", "variant": "Xz"}]
    assert checks.planted_recall(aliases, planted) == 0.5
    assert checks.planted_recall(aliases, []) == 1.0


# --- tracing -------------------------------------------------------------

def _span(sid, name, a, b, parent=None):
    return {"id": sid, "name": name, "start": a, "end": b, "parent": parent,
            "run": "r"}


def test_self_time_subtracts_the_union_of_children():
    spans = [_span("p", "phase1", 0, 10),
             _span("x", "exchange", 1, 9, "p"),
             _span("a", "extract", 2, 5, "x"),
             _span("b", "lineage.write", 4, 6, "x"),
             _span("c", "lineage.write", 7, 8, "x")]
    st = tracing.self_times(spans)
    assert st == {"p": 2, "x": 3, "a": 3, "b": 2, "c": 1}
    assert tracing.layer_self_times(spans)["lineage"] == 3


def test_group_self_time_is_unattributed():
    spans = [_span("p", "phase1", 0, 10),
             _span("x", "exchange", 1, 9, "p"),
             _span("r", "exchange.reduce", 2, 8, "x"),
             _span("a", "extract", 3, 5, "r"),
             _span("b", "lineage.write", 6, 7, "r")]
    assert tracing.layer_self_times(spans) == {"exchange": 2, "extract": 2,
                                               "lineage": 1}
    wall, cov = tracing.phase_coverage(spans, "phase1")
    assert wall == 10 and cov == pytest.approx(0.5)
    spans += [_span("q", "phase2", 10, 12),
              _span("n", "canonicalize.nodes", 10, 12, "q")]
    m = tracing.layer_metrics(spans, {})
    assert m["trace.unattributed_s"] == pytest.approx(5)
    assert m["trace.phase2_coverage"] == pytest.approx(1)


# --- emitted names match BENCHMARK.json ----------------------------------

def test_benchmark_json_is_generated_from_the_spec():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == \
        spec.benchmark_json()


def test_names_and_units_are_well_formed():
    doc = spec.benchmark_json()
    names = [w["name"] for w in doc["workloads"]] + \
        [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    for n in names:
        assert NAME.fullmatch(n), n
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_emitted_metric_names_are_declared():
    jobs = [{"phase1_s": [1.0], "canon_s": [2.0], "job_s": 3.0, "turns": 10,
             "rss_mb": 100.0}]
    assert set(Bench.e2e_metrics([1.0], 0.0, jobs)) == \
        {m[0] for m in spec.END_TO_END}

    spans = [_span("p1", "phase1", 0, 4), _span("r", "sources.read", 0, 1,
                                                 "p1"),
             _span("p2", "phase2", 5, 9),
             _span("a", "canonicalize.alias", 5, 8, "p2")]
    emitted = set(tracing.layer_metrics(spans, {})) - {"trace.job_s"}
    emitted |= {"trace.overhead_frac", "ray.floor_s"}   # added by the run
    assert emitted == {m[0] for m in spec.PER_LAYER}
