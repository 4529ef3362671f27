"""End-to-end pipeline tests: transcripts parquet -> graph parquet, checked
against (a) golden reference fixtures and (b) direct application of the
oracle extractor to the assembled texts (the per-turn text-equality +
P/R invariant)."""

import json
from pathlib import Path

import pandas as pd
import pytest
import ray.data as rd

from ai_knowledgegraph_extractor_ray.config import KGConfig
from ai_knowledgegraph_extractor_ray.functions.rules import extract_rule_graph
from ai_knowledgegraph_extractor_ray.pipelines import kg
from ai_knowledgegraph_extractor_ray.sources import transcripts as src

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "reference_rule_graphs.json").read_text()
)
# the LLM backend with a fake model whose every answer is garbage: each unit
# takes the deterministic rules fallback, so outputs equal the rules backend's
LLM_GARBAGE = {"backend": "llm",
               "extra": {"fake_responses": lambda s: "garbage"}}


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("transcripts") / "transcripts.parquet"
    table = src.synthetic_transcripts_table(n_convs=60, seed=42)
    import pyarrow.parquet as pq
    pq.write_table(table, path)
    return str(path)


@pytest.fixture(scope="module")
def job(corpus_path, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("kg_out"))
    cfg = KGConfig(num_partitions=8)
    summary = kg.run_kg_job(src.read_transcripts(corpus_path), cfg, out)
    return cfg, out, summary


def test_summary_counts(job):
    cfg, out, summary = job
    assert summary["n_conversations"] == 60
    assert summary["n_nodes"] > 0 and summary["n_edges"] > 0
    assert summary["partitions_computed"] >= 1


def test_per_turn_text_equality(corpus_path):
    """Per-row invariant: each turn's text survives the pipeline's ordering/
    concat unchanged — "\n".join of ordered turns re-splits to the turns."""
    df = rd.read_parquet(corpus_path).to_pandas()
    for conv_id, g in df.groupby("conv_id"):
        g = g.sort_values("turn_idx")
        joined = "\n".join(g["text"])
        assert joined.split("\n") == list(g["text"])


def test_golden_conversations_match_reference(job):
    """The planted demo/seed conversations must produce exactly the
    reference's graphs (node ids, labels, types, and all triples)."""
    cfg, out, _ = job
    for name in ("demo_sample", "seed_doc1", "seed_doc2", "seed_doc3_csv"):
        fix = GOLDEN[name]
        got = kg.get_conversation_graph(out, cfg.version, f"golden_{name}")
        assert got["nodes"] == fix["graph"]["nodes"], name
        assert got["edges"] == fix["graph"]["edges"], name


def test_pipeline_matches_direct_oracle(job, corpus_path):
    """P/R invariant at full-corpus granularity: pipeline triples == direct
    extraction over each conversation's ordered concatenated text (P=R=1.0
    by construction; the reference-parity of the oracle itself is pinned by
    test_rules.py)."""
    cfg, out, _ = job
    edges = kg.read_edges(out, cfg.version).to_pandas()
    got = {(r.conv_id, r.subj, r.pred, r.obj) for r in edges.itertuples()}

    df = rd.read_parquet(corpus_path).to_pandas()
    want = set()
    for conv_id, g in df.groupby("conv_id"):
        text = "\n".join(g.sort_values("turn_idx")["text"])
        rg = extract_rule_graph(text)
        label = dict(zip(rg.node_ids, rg.labels))
        for s, d, r in zip(rg.edge_src, rg.edge_dst, rg.edge_rel):
            want.add((conv_id, label[s], r, label[d]))
    assert got == want


def test_resume_skips_committed(job, corpus_path):
    cfg, out, first = job
    again = kg.run_kg_job(src.read_transcripts(corpus_path), cfg, out)
    assert again["partitions_computed"] == 0
    assert again["partitions_resumed"] == first["partitions_total"]
    assert again["n_edges"] == first["n_edges"]


def test_partial_resume(corpus_path, tmp_path):
    """Simulate a crash: commit only half the partitions, then resume; the
    final graph must equal a clean run's."""
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    cfg = KGConfig(num_partitions=6)
    ts = src.read_transcripts(corpus_path)
    kg.run_kg_job(ts, cfg, out_a, resume=False)

    # fake a partial run: copy 3 committed partitions (data + manifests) to b
    import shutil
    vdir_a = Path(out_a) / f"version={cfg.version}"
    vdir_b = Path(out_b) / f"version={cfg.version}"
    (vdir_b / "_manifests").mkdir(parents=True)
    for pid in (0, 2, 4):
        part = f"part-{pid:05d}"
        if (vdir_a / part).exists():
            shutil.copytree(vdir_a / part, vdir_b / part)
            shutil.copy(vdir_a / "_manifests" / f"{part}.json",
                        vdir_b / "_manifests" / f"{part}.json")

    resumed = kg.run_kg_job(src.read_transcripts(corpus_path), cfg, out_b)
    assert resumed["partitions_resumed"] >= 1
    ea = kg.read_edges(out_a, cfg.version).to_pandas()
    eb = kg.read_edges(out_b, cfg.version).to_pandas()
    key = ["conv_id", "edge_id"]
    assert sorted(map(tuple, ea[key].values)) == sorted(map(tuple, eb[key].values))


def test_partition_size_guard_warns(corpus_path, tmp_path):
    """Oversized partitions (num_partitions too low for the data volume)
    raise a ResourceWarning naming the knob, instead of OOMing at scale."""
    for name, backend in (("rules", {}), ("llm", LLM_GARBAGE)):
        cfg = KGConfig(num_partitions=2, partition_bytes_warn=1000, **backend)
        with pytest.warns(ResourceWarning, match="num_partitions"):
            kg.run_kg_job(src.read_transcripts(corpus_path),
                          cfg, str(tmp_path / name), resume=False)


def test_resume_invalidates_changed_input(corpus_path, tmp_path):
    """Resume over CHANGED input must re-run the affected partition, not
    silently reuse its stale output (lineage fingerprint validation)."""
    out = str(tmp_path / "out")
    cfg = KGConfig(num_partitions=4)
    kg.run_kg_job(src.read_transcripts(corpus_path), cfg, out, resume=False)

    # mutate one conversation's text and rerun with resume
    df = pd.read_parquet(corpus_path)
    victim = df["conv_id"].iloc[0]
    df.loc[df["conv_id"] == victim, "text"] = (
        "Mutant Corp acquired Stale Cache for cash.")
    changed = str(tmp_path / "changed.parquet")
    df.to_parquet(changed, index=False)

    from ai_knowledgegraph_extractor_ray.stages.conversation import partition_of
    victim_pid = partition_of(victim, cfg.num_partitions)

    resumed = kg.run_kg_job(src.read_transcripts(changed), cfg, out)
    assert resumed["partitions_computed"] >= 1          # stale one re-ran
    assert resumed["partitions_resumed"] == resumed["partitions_total"] - 1

    # the re-extracted graph reflects the new text
    nodes = kg.read_nodes(out, cfg.version).to_pandas()
    assert "Mutant Corp" in set(nodes[nodes["conv_id"] == victim]["label"])

    # unchanged input + validation on -> clean full resume
    again = kg.run_kg_job(src.read_transcripts(changed), cfg, out)
    assert again["partitions_computed"] == 0

    # validate_input=False trusts manifests blindly (documented fast path)
    blind = kg.run_kg_job(src.read_transcripts(corpus_path), cfg, out,
                          validate_input=False)
    assert blind["partitions_computed"] == 0
    assert victim_pid in {
        int(p) for p in range(cfg.num_partitions)}  # sanity: pid valid


def test_reads_skip_uncommitted_partitions(corpus_path, tmp_path):
    """Orphaned part dirs (crash mid-partition, or stale dirs from an older
    num_partitions run) must not be read: paths come from committed
    manifests, not a glob."""
    out = str(tmp_path / "out")
    cfg = KGConfig(num_partitions=4)
    kg.run_kg_job(src.read_transcripts(corpus_path), cfg, out, resume=False)
    before = kg.read_nodes(out, cfg.version).to_pandas()

    # plant an orphan part dir with valid parquet but NO manifest
    from ai_knowledgegraph_extractor_ray.state import lineage
    orphan = lineage.partition_dir(out, cfg.version, 99)
    orphan.mkdir(parents=True)
    fake = before.head(5).copy()
    fake["label"] = "Orphan Ghost"
    fake.to_parquet(orphan / "nodes.parquet", index=False)

    after = kg.read_nodes(out, cfg.version).to_pandas()
    assert "Orphan Ghost" not in set(after["label"])
    assert len(after) == len(before)


def test_version_cutoff_prefix_semantics(corpus_path, tmp_path):
    """Version K = extraction over the turn prefix (reference update
    semantics, main.py:231-259): cutoff at turn_idx<=1 must equal running
    the oracle on the 2-turn prefix text."""
    out = str(tmp_path / "v2")
    cfg = KGConfig(num_partitions=4, version=2, version_cutoff=1)
    kg.run_kg_job(src.read_transcripts(corpus_path), cfg, out)
    edges = kg.read_edges(out, 2).to_pandas()
    df = rd.read_parquet(corpus_path).to_pandas()
    g = df[df["conv_id"] == "conv_00000010"].sort_values("turn_idx")
    prefix = "\n".join(g[g["turn_idx"] <= 1]["text"])
    rg = extract_rule_graph(prefix)
    label = dict(zip(rg.node_ids, rg.labels))
    want = {(label[s], r, label[d])
            for s, d, r in zip(rg.edge_src, rg.edge_dst, rg.edge_rel)}
    sel = edges[edges["conv_id"] == "conv_00000010"]
    got = {(r.subj, r.pred, r.obj) for r in sel.itertuples()}
    assert got == want


def test_canonicalize_job(job):
    """Phase-2 canonical graph: weighted dedup must conserve raw edge count,
    and hot synthetic orgs must unify across conversations."""
    cfg, out, summary = job
    res = kg.run_kg_job  # phase 1 already ran in the fixture
    canon = kg.run_canonicalize_job(out, cfg)
    assert canon["n_canonical_entities"] <= canon["n_aliases"]
    ce = kg.read_canonical_edges(out, cfg.version).to_pandas()
    assert int(ce["weight"].sum()) == summary["n_edges"]
    assert len(ce) == canon["n_canonical_edges"]
    # canonical triples are globally unique
    assert not ce.duplicated(["canonical_src", "pred", "canonical_dst"]).any()
    # alias table is a function: each norm maps to exactly one canonical id
    aliases = pd.read_parquet(
        f"{out}/version={cfg.version}/canonical/aliases")  # partitioned dir
    assert not aliases["norm"].duplicated().any()
    assert aliases["canonical_id"].notna().all()
    # phase-2 manifest carries per-table schema signatures (round 5)
    sigs = canon["schema_sig"]
    assert set(sigs) == {"aliases", "canonical_nodes", "canonical_edges"}
    assert all(len(v) == 16 for v in sigs.values())


def test_deterministic_across_partitioning(corpus_path, tmp_path):
    """Same triples regardless of partition count (distribution-invariance)."""
    outs = []
    for i, p in enumerate((3, 11)):
        out = str(tmp_path / f"p{p}")
        cfg = KGConfig(num_partitions=p)
        kg.run_kg_job(src.read_transcripts(corpus_path), cfg, out, resume=False)
        e = kg.read_edges(out, cfg.version).to_pandas()
        outs.append(sorted(map(tuple, e[["conv_id", "subj", "pred", "obj"]].values)))
    assert outs[0] == outs[1]


def test_canonicalize_resume(job):
    """Phase-2 resume: rerun with unchanged phase-1 output is a no-op; a
    changed phase 1 invalidates the canonical manifest."""
    cfg, out, _ = job
    first = kg.run_canonicalize_job(out, cfg)
    again = kg.run_canonicalize_job(out, cfg)
    assert again.get("resumed") is True
    assert again["n_canonical_edges"] == first["n_canonical_edges"]
    forced = kg.run_canonicalize_job(out, cfg, resume=False)
    assert "resumed" not in forced
    # forced rerun must OVERWRITE, not append: write_parquet appends into an
    # existing dir, so the job clears stale output first (round-2 fix)
    assert forced["n_canonical_edges"] == first["n_canonical_edges"]
    assert forced["n_aliases"] == first["n_aliases"]
    ce = kg.read_canonical_edges(out, cfg.version).to_pandas()
    assert len(ce) == first["n_canonical_edges"]


@pytest.mark.parametrize("num_partitions", [1, 4])
def test_canonicalize_job_without_graph_rows(tmp_path, num_partitions):
    """Degenerate input: phase 1 over turns that name no entity commits 0
    nodes and 0 edges; phase 2 still commits, with all-zero counts and the
    three canonical directories present, and a rerun resumes."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    table = src.synthetic_transcripts_table(n_convs=6, seed=1)
    table = table.set_column(table.schema.get_field_index("text"), "text",
                             pa.array(["ok"] * table.num_rows))
    pq.write_table(table, tmp_path / "t.parquet")
    out = str(tmp_path / "lake")
    cfg = KGConfig(num_partitions=num_partitions)
    summary = kg.run_kg_job(src.read_transcripts(str(tmp_path / "t.parquet")),
                            cfg, out)
    assert summary["n_nodes"] == 0 and summary["n_edges"] == 0
    canon = kg.run_canonicalize_job(out, cfg)
    assert (canon["n_aliases"], canon["n_canonical_entities"],
            canon["n_canonical_edges"]) == (0, 0, 0)
    cdir = Path(out) / "version=1" / "canonical"
    assert (cdir / "_manifest.json").exists()
    assert all((cdir / t).is_dir()
               for t in ("aliases", "canonical_nodes", "canonical_edges"))
    assert kg.run_canonicalize_job(out, cfg)["resumed"] is True


def test_kg_job_hierarchical_exchange_path(corpus_path, tmp_path):
    """num_partitions > 1024 routes through the two-level exchange, with
    and without skew splitting; the graph equals a small-P run's."""
    cfg_small = KGConfig(num_partitions=8)
    cfg_large = KGConfig(num_partitions=2000)
    cfg_split = KGConfig(num_partitions=2000,
                         auto_split_skew=True)
    key = ["conv_id", "subj", "pred", "obj"]
    edges = []
    for name, cfg in (("s", cfg_small), ("l", cfg_large), ("x", cfg_split)):
        out = str(tmp_path / name)
        kg.run_kg_job(src.read_transcripts(corpus_path), cfg, out,
                      resume=False)
        edges.append(sorted(map(tuple, kg.read_edges(out, 1).to_pandas()
                                [key].values)))
    # at P=2000 the ~0.3-row mean marks most non-empty partitions as skewed
    assert kg.load_split_map(str(tmp_path / "x"), 1)
    assert edges[0] == edges[1] == edges[2]


def test_package_root_api_and_canonical_readers(job):
    """Package-root convenience surface + canonical table readers."""
    import ai_knowledgegraph_extractor_ray as pkg
    cfg, out, _ = job
    pkg.run_canonicalize_job(out, cfg)
    aliases = pkg.read_aliases(out, cfg.version).to_pandas()
    nodes = pkg.read_canonical_nodes(out, cfg.version).to_pandas()
    edges = pkg.read_canonical_edges(out, cfg.version).to_pandas()
    assert not aliases["norm"].duplicated().any()
    assert set(nodes["canonical_id"]) >= set(edges["canonical_src"]) - set(
        aliases["canonical_id"])  # edge endpoints resolve via aliases/fallback
    assert pkg.get_stats(out, cfg.version)["total_conversations"] == 60


def test_phase1_blocks_have_hashable_schemas(job):
    """The phase-1 and canonical readers' blocks carry no schema metadata,
    so Ray Data can hash their schemas (a ``pandas`` metadata dict is
    unhashable). Phase-1 pandas dtypes are the ones the files' own pandas
    metadata gives, plus the int32 ``version`` stamp; canonical rows are
    the files' rows, with string columns read as object."""
    import glob

    import numpy as np
    import ray
    cfg, out, _ = job

    def assert_hashable(ds):
        blocks = ray.get(ds.to_arrow_refs())
        assert blocks
        for b in blocks:
            assert b.schema.metadata is None
            hash(b.schema)

    for name, read in PHASE1_READERS.items():
        assert_hashable(read(out, cfg.version))
        files = sorted(glob.glob(f"{out}/version={cfg.version}/*/"
                                 f"{name}.parquet"))
        want = pd.read_parquet(files[0]).dtypes.to_dict()
        want["version"] = np.dtype("int32")
        assert read(out, cfg.version).to_pandas().dtypes.to_dict() == want

    kg.run_canonicalize_job(out, cfg)
    for name, read in CANONICAL_READERS.items():
        assert_hashable(read(out, cfg.version))
        want = pd.read_parquet(
            f"{out}/version={cfg.version}/canonical/{name}")
        # the reader also parses ``version`` out of the hive path
        got = read(out, cfg.version).to_pandas()[list(want.columns)]
        assert len(got) and got.dtypes.to_dict() == {
            c: np.dtype(object) if pd.api.types.is_string_dtype(t) else t
            for c, t in want.dtypes.items()}
        pd.testing.assert_frame_equal(
            _sorted_rows(got), _sorted_rows(want.astype(got.dtypes)))


@pytest.mark.parametrize("backend", [{}, LLM_GARBAGE], ids=["rules", "llm"])
def test_auto_split_skew_rebalances_partitions(tmp_path, backend):
    """Straggler mitigation (round-3 item 8): a corpus where ~90% of
    conversations hash into ONE base partition fans that partition out into
    sub-partitions sized back to ~the mean — identical graph output, point
    lookups and resume working under the persisted split layout, for both
    extractor backends."""
    import json
    import zlib

    import pyarrow.parquet as pq

    from ai_knowledgegraph_extractor_ray.config import KGConfig
    from ai_knowledgegraph_extractor_ray.pipelines import kg
    from ai_knowledgegraph_extractor_ray.sources import transcripts as src

    P = 4
    # conv ids engineered so most land on base pid 0
    hot, cold = [], []
    i = 0
    while len(hot) < 180 or len(cold) < 20:
        cid = f"conv_{i:06d}"
        if zlib.crc32(cid.encode()) % P == 0:
            if len(hot) < 180:
                hot.append(cid)
        elif len(cold) < 20:
            cold.append(cid)
        i += 1
    ids = hot + cold
    base = src.synthetic_transcripts_table(n_convs=len(ids), seed=5,
                                           include_golden=False)
    remap = dict(zip(sorted(set(base["conv_id"].to_pylist())), ids))
    import pyarrow as pa
    new_ids = pa.array([remap[c] for c in base["conv_id"].to_pylist()],
                       pa.string())
    tbl = base.set_column(0, "conv_id", new_ids)
    p = tmp_path / "t.parquet"
    pq.write_table(tbl, p)

    plain_out, split_out = str(tmp_path / "plain"), str(tmp_path / "split")
    plain_cfg = KGConfig(num_partitions=P, auto_split_skew=False, **backend)
    split_cfg = KGConfig(num_partitions=P, auto_split_skew=True,
                         skew_split_threshold=2.0, **backend)
    s1 = kg.run_kg_job(src.read_transcripts(str(p)), plain_cfg, plain_out,
                       resume=False)
    s2 = kg.run_kg_job(src.read_transcripts(str(p)), split_cfg, split_out,
                       resume=False)

    # the hot partition fanned out
    assert s2["partitions_total"] > s1["partitions_total"]
    m1 = kg.lineage.committed_partitions(plain_out, 1)
    m2 = kg.lineage.committed_partitions(split_out, 1)
    mean2 = sum(m["n_turns"] for m in m2.values()) / len(m2)
    assert max(m["n_turns"] for m in m1.values()) > 3 * mean2
    assert max(m["n_turns"] for m in m2.values()) < 2.5 * mean2

    # identical graph output
    e1 = kg.read_edges(plain_out, 1).to_pandas()
    e2 = kg.read_edges(split_out, 1).to_pandas()
    cols = ["conv_id", "edge_id", "src_node_id", "dst_node_id", "pred"]
    assert (e1[cols].sort_values(cols).reset_index(drop=True)
            .equals(e2[cols].sort_values(cols).reset_index(drop=True)))

    # split map persisted with the version; point lookup honors it
    assert kg.load_split_map(split_out, 1)
    g = kg.get_conversation_graph(split_out, 1, hot[0])
    assert g["conv_id"] == hot[0]

    # resume under the persisted layout: everything already committed
    s3 = kg.run_kg_job(src.read_transcripts(str(p)), split_cfg, split_out,
                       resume=True)
    assert s3["partitions_resumed"] == s2["partitions_total"]
    assert s3["partitions_computed"] == 0


def test_incremental_cross_version_links_unchanged_partitions(tmp_path):
    """Round-4 incremental update: building version 2 over a corpus where
    only a few conversations changed re-extracts ONLY the touched
    partitions; every other partition is linked from version 1 (hard
    links to the version-1 files, fingerprint carried forward) and the
    final output is equal to a from-scratch version-2 run."""
    import pyarrow.parquet as pq

    out = str(tmp_path / "kg")
    cfg1 = KGConfig(num_partitions=8, version=1)
    base = src.synthetic_transcripts_table(n_convs=60, seed=42)
    p1 = tmp_path / "v1.parquet"
    pq.write_table(base, p1)
    kg.run_kg_job(src.read_transcripts(str(p1)), cfg1, out, resume=False)

    # v2 corpus: ONE conversation's text changes
    df = base.to_pandas()
    touched_conv = df["conv_id"].iloc[0]
    mask = df["conv_id"] == touched_conv
    df.loc[mask, "text"] = df.loc[mask, "text"] + " CHANGED"
    p2 = tmp_path / "v2.parquet"
    df.to_parquet(p2, index=False)

    cfg2 = KGConfig(num_partitions=8, version=2)
    s2 = kg.run_kg_job(src.read_transcripts(str(p2)), cfg2, out)
    from ai_knowledgegraph_extractor_ray.stages.conversation import partition_of
    touched_pid = partition_of(touched_conv, 8)
    assert s2["partitions_computed"] >= 1
    assert s2["partitions_linked"] == s2["partitions_total"] - s2["partitions_computed"]
    assert s2["partitions_linked"] > 0
    # linked manifests carry provenance; the touched partition was computed
    from ai_knowledgegraph_extractor_ray.state import lineage
    ms = lineage.committed_partitions(out, 2)
    assert "linked_from_version" not in ms[touched_pid]
    linked_ms = [m for m in ms.values() if m.get("linked_from_version") == 1]
    assert len(linked_ms) == s2["partitions_linked"]
    # linked files are the version-1 files themselves, not copies
    for m in linked_ms:
        pid = m["partition_id"]
        for name in lineage.PARTITION_FILES:
            assert ((lineage.partition_dir(out, 2, pid) / name).stat().st_ino
                    == (lineage.partition_dir(out, 1, pid) / name)
                    .stat().st_ino)

    # ground truth: from-scratch version-2 run over the same corpus
    out_ref = str(tmp_path / "kg_ref")
    kg.run_kg_job(src.read_transcripts(str(p2)), cfg2, out_ref, resume=False)
    for reader in (kg.read_nodes, kg.read_edges):
        got = reader(out, 2).to_pandas()
        want = reader(out_ref, 2).to_pandas()
        key = list(got.columns)
        pd.testing.assert_frame_equal(
            got.sort_values(key).reset_index(drop=True),
            want.sort_values(key).reset_index(drop=True))
    # the version column is stamped at read time, linked partitions too
    assert (kg.read_nodes(out, 2).to_pandas()["version"] == 2).all()

    # config change (different window_chars) must NOT link
    out3 = str(tmp_path / "kg3")
    kg.run_kg_job(src.read_transcripts(str(p1)),
                  KGConfig(num_partitions=8,
                           version=1), out3, resume=False)
    s3 = kg.run_kg_job(
        src.read_transcripts(str(p1)),
        KGConfig(num_partitions=8, version=2,
                 window_chars=2000), out3)
    assert s3["partitions_linked"] == 0


def _sorted_rows(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values(list(df.columns)).reset_index(drop=True)


PHASE1_READERS = {"nodes": kg.read_nodes, "edges": kg.read_edges,
                  "convs": kg.read_convs}
CANONICAL_READERS = {"aliases": kg.read_aliases,
                     "canonical_nodes": kg.read_canonical_nodes,
                     "canonical_edges": kg.read_canonical_edges}


def _phase1_tables(out: str, version: int) -> dict[str, pd.DataFrame]:
    return {name: _sorted_rows(read(out, version).to_pandas())
            for name, read in PHASE1_READERS.items()}


def _assert_tables_equal(got: dict, want: dict) -> None:
    for name in want:
        pd.testing.assert_frame_equal(got[name], want[name], obj=name)


def _with_changed_convs(table, conv_ids, tag: str):
    """``table`` with the text of every turn of ``conv_ids`` extended."""
    df = table.to_pandas()
    mask = df["conv_id"].isin(conv_ids)
    df.loc[mask, "text"] += f" Acme {tag} Corp hired Bob."
    return df


def _file_hashes(out: str, version: int) -> dict[str, str]:
    import hashlib
    vdir = Path(out) / f"version={version}"
    return {str(p.relative_to(vdir)):
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(vdir.glob("part-*/*.parquet"))}


def test_resume_recomputes_partitions_committed_under_other_config(
        corpus_path, tmp_path):
    """A resume trusts a committed partition only under the config it was
    committed with: resuming a version with another ``window_chars``
    recomputes every partition instead of returning the old graph."""
    from ai_knowledgegraph_extractor_ray.state import lineage
    out = str(tmp_path / "out")
    first = kg.run_kg_job(src.read_transcripts(corpus_path),
                          KGConfig(num_partitions=4), out, resume=False)
    windowed = KGConfig(num_partitions=4, window_chars=200)
    got = kg.run_kg_job(src.read_transcripts(corpus_path), windowed, out,
                        resume=True)
    want = kg.run_kg_job(src.read_transcripts(corpus_path), windowed,
                         str(tmp_path / "ref"), resume=False)
    assert want["n_edges"] != first["n_edges"]      # windowing matters here
    assert got["partitions_resumed"] == 0
    assert got["partitions_computed"] == want["partitions_total"]
    assert got["n_edges"] == want["n_edges"]
    _assert_tables_equal(_phase1_tables(out, 1),
                         _phase1_tables(str(tmp_path / "ref"), 1))
    assert {m["config_sig"] for m in
            lineage.committed_partitions(out, 1).values()} == {
        kg._config_sig(windowed)}
    # and the recomputed version now resumes under its own config
    again = kg.run_kg_job(src.read_transcripts(corpus_path), windowed, out)
    assert again["partitions_resumed"] == want["partitions_total"]


def test_canonicalize_job_without_committed_partitions(tmp_path):
    """Phase 2 over a version with no committed phase-1 partition raises
    FileNotFoundError naming the version, before it clears anything: the
    version's existing canonical tables survive the failed call."""
    from ai_knowledgegraph_extractor_ray.state import lineage
    import pyarrow.parquet as pq
    pq.write_table(src.synthetic_transcripts_table(n_convs=12, seed=3),
                   tmp_path / "t.parquet")
    out = str(tmp_path / "lake")
    cfg = KGConfig(num_partitions=1)
    kg.run_kg_job(src.read_transcripts(str(tmp_path / "t.parquet")), cfg, out)
    canon = kg.run_canonicalize_job(out, cfg)
    readers = (kg.read_aliases, kg.read_canonical_nodes,
               kg.read_canonical_edges)
    before = [_sorted_rows(r(out, 1).to_pandas()) for r in readers]
    assert canon["n_canonical_edges"] == len(before[2]) > 0

    lineage.uncommit_partition(out, 1, 0)
    for resume in (True, False):
        with pytest.raises(FileNotFoundError, match="version 1 "):
            kg.run_canonicalize_job(out, cfg, resume=resume)
    for read in PHASE1_READERS.values():
        with pytest.raises(FileNotFoundError, match="version 1 "):
            read(out, 1)
    assert (Path(out) / "version=1" / "canonical" / "_manifest.json").exists()
    for read, want in zip(readers, before):
        pd.testing.assert_frame_equal(_sorted_rows(read(out, 1).to_pandas()),
                                      want)


def test_linked_version_survives_changes_around_it(tmp_path, monkeypatch):
    """A linked version shares its unchanged files with the version it
    links from. Rebuilding or deleting that version must leave the linked
    version's bytes and reads intact, the copy fallback for filesystems
    without hard links must give the same tables, and linking must not
    read a data file."""
    import errno
    import os

    import pyarrow.parquet as pq

    from ai_knowledgegraph_extractor_ray.stages.conversation import (
        partition_of,
    )
    from ai_knowledgegraph_extractor_ray.state import lineage

    P = 4
    base = src.synthetic_transcripts_table(n_convs=40, seed=7)
    convs = sorted(set(base.column("conv_id").to_pylist()))
    p1, p2, p3 = (str(tmp_path / f"v{i}.parquet") for i in (1, 2, 3))
    pq.write_table(base, p1)
    _with_changed_convs(base, convs[:1], "two").to_parquet(p2, index=False)
    # a v1 rebuild over input changed in every partition
    _with_changed_convs(base, convs, "three").to_parquet(p3, index=False)
    cfg1, cfg2 = (KGConfig(num_partitions=P, version=v) for v in (1, 2))

    ref = str(tmp_path / "ref")
    kg.run_kg_job(src.read_transcripts(p2), cfg2, ref, resume=False)
    want = _phase1_tables(ref, 2)

    # 1. v1, then v2 linked from it
    out = str(tmp_path / "lake")
    kg.run_kg_job(src.read_transcripts(p1), cfg1, out, resume=False)
    s2 = kg.run_kg_job(src.read_transcripts(p2), cfg2, out)
    assert s2["partitions_linked"] == P - 1
    assert s2["partitions_computed"] == 1
    hashes = _file_hashes(out, 2)
    _assert_tables_equal(_phase1_tables(out, 2), want)

    # 2. rebuilding v1 over changed input does not touch v2's bytes
    def inodes(v):
        return {f: (Path(out) / f"version={v}" / f).stat().st_ino
                for f in _file_hashes(out, v)}

    shared = set(inodes(1).items()) & set(inodes(2).items())
    assert len(shared) == 3 * (P - 1)
    s1 = kg.run_kg_job(src.read_transcripts(p3), cfg1, out, resume=False)
    assert s1["partitions_computed"] == P
    assert not set(inodes(1).items()) & set(inodes(2).items())
    assert set(inodes(2).items()) >= shared
    assert _file_hashes(out, 2) == hashes
    _assert_tables_equal(_phase1_tables(out, 2), want)

    # 3. deleting v1 leaves v2 whole
    assert kg.cleanup_versions(out, keep_versions=1) == [1]
    assert not lineage.version_dir(out, 1).exists()
    assert _file_hashes(out, 2) == hashes
    _assert_tables_equal(_phase1_tables(out, 2), want)

    # 4. no hard links: the byte-copy fallback gives the same tables
    def no_links(src_path, dst_path):
        raise OSError(errno.EPERM, "hard links not supported")

    copied = str(tmp_path / "copied")
    kg.run_kg_job(src.read_transcripts(p1), cfg1, copied, resume=False)
    with monkeypatch.context() as mp:
        mp.setattr(os, "link", no_links)
        s2c = kg.run_kg_job(src.read_transcripts(p2), cfg2, copied)
    assert s2c["partitions_linked"] == P - 1
    _assert_tables_equal(_phase1_tables(copied, 2), want)
    touched = partition_of(convs[0], P)
    for pid in set(range(P)) - {touched}:
        for name in lineage.PARTITION_FILES:
            a = lineage.partition_dir(copied, 1, pid) / name
            b = lineage.partition_dir(copied, 2, pid) / name
            assert a.stat().st_ino != b.stat().st_ino
            assert a.read_bytes() == b.read_bytes()

    # 5. linking reads no data file, and replaces a leftover destination
    # (here a torn earlier link to v2's files) without writing through it
    def no_reads(*args, **kwargs):
        raise AssertionError("link_partition read a data file")

    v2_bytes = _file_hashes(copied, 2)
    leftover = lineage.partition_dir(copied, 3, touched)
    leftover.mkdir(parents=True)
    for name in lineage.PARTITION_FILES:
        os.link(lineage.partition_dir(copied, 2, touched) / name,
                leftover / name)
    m = lineage.committed_partitions(copied, 1)[touched]
    with monkeypatch.context() as mp:
        mp.setattr(pd, "read_parquet", no_reads)
        mp.setattr(pq, "read_table", no_reads)
        linked = lineage.link_partition(copied, 1, 3, touched, m)
    assert linked["linked_from_version"] == 1 and linked["version"] == 3
    assert lineage.committed_partitions(copied, 3) == {touched: linked}
    assert _file_hashes(copied, 2) == v2_bytes
    got = kg.read_edges(copied, 3).to_pandas()
    want_v1 = kg.read_edges(copied, 1).to_pandas()
    want_v1 = want_v1[want_v1["conv_id"].map(lambda c: partition_of(c, P))
                      == touched].assign(version=3)
    pd.testing.assert_frame_equal(_sorted_rows(got),
                                  _sorted_rows(want_v1.astype(got.dtypes)))


@pytest.mark.parametrize("n_versions", [1, 2, 3])
def test_version_chain_reads_equal_from_scratch(tmp_path, n_versions):
    """A chain of versions, each changing one conversation in another
    partition: every version's nodes, edges and convs equal a
    from-scratch build of that version, ``version`` int32 included."""
    from ai_knowledgegraph_extractor_ray.stages.conversation import (
        partition_of,
    )
    P = 4
    base = src.synthetic_transcripts_table(n_convs=40, seed=11)
    convs = sorted(set(base.column("conv_id").to_pylist()))
    # one conversation per partition, churned in version order
    first_in = {}
    for c in convs:
        first_in.setdefault(partition_of(c, P), c)
    churn = [first_in[pid] for pid in sorted(first_in)]
    out = str(tmp_path / "lake")
    for v in range(1, n_versions + 1):
        path = str(tmp_path / f"v{v}.parquet")
        _with_changed_convs(base, churn[:v - 1], f"v{v}").to_parquet(
            path, index=False)
        cfg = KGConfig(num_partitions=P, version=v)
        s = kg.run_kg_job(src.read_transcripts(path), cfg, out)
        assert s["partitions_linked"] == (0 if v == 1 else P - 1)
        ref = str(tmp_path / f"ref{v}")
        kg.run_kg_job(src.read_transcripts(path), cfg, ref, resume=False)
    for v in range(1, n_versions + 1):
        got = _phase1_tables(out, v)
        _assert_tables_equal(got, _phase1_tables(str(tmp_path / f"ref{v}"), v))
        for df in got.values():
            assert list(df.columns).count("version") == 1
            assert str(df["version"].dtype) == "int32"
            assert (df["version"] == v).all()


def test_parent_format_partitions_read_and_are_not_linked(tmp_path):
    """Files written by the previous engine store ``version`` and mint
    edge ids with it. They still read with exactly one int32 ``version``
    column, and a later version recomputes them rather than linking bytes
    of the old format."""
    import hashlib
    import json

    import pyarrow.parquet as pq

    from ai_knowledgegraph_extractor_ray.state import lineage
    P = 2
    pq.write_table(src.synthetic_transcripts_table(n_convs=20, seed=5),
                   tmp_path / "t.parquet")
    path = str(tmp_path / "t.parquet")
    out = str(tmp_path / "lake")
    kg.run_kg_job(src.read_transcripts(path), KGConfig(num_partitions=P),
                  out, resume=False)
    current = _phase1_tables(out, 1)

    # rewrite v1 the way the previous engine laid it down
    parent_cols = {
        "nodes": ["conv_id", "node_id", "label", "node_type", "version",
                  "window_id"],
        "edges": ["conv_id", "edge_id", "src_node_id", "dst_node_id",
                  "subj", "pred", "obj", "version", "window_id"],
        "convs": ["conv_id", "window_id", "n_turns", "version", "backend"]}
    for pid, m in lineage.committed_partitions(out, 1).items():
        pdir = lineage.partition_dir(out, 1, pid)
        for name, cols in parent_cols.items():
            df = pd.read_parquet(pdir / f"{name}.parquet")
            df["version"] = pd.array([1] * len(df), dtype="int32")
            if name == "edges":
                df["edge_id"] = [hashlib.sha256(
                    f"{c}\x001\x00{s}\x00{p}\x00{o}".encode()
                ).hexdigest()[:20] for c, s, p, o in zip(
                    df["conv_id"], df["subj"], df["pred"], df["obj"])]
            (pdir / f"{name}.parquet").unlink()
            df[cols].to_parquet(pdir / f"{name}.parquet", index=False)
        m["config_sig"] = f"P{P}:w0:rules"
        lineage.manifest_path(out, 1, pid).write_text(json.dumps(m))

    old = _phase1_tables(out, 1)
    for name, df in old.items():
        assert list(df.columns).count("version") == 1
        assert str(df["version"].dtype) == "int32"
        keep = [c for c in df.columns if c != "edge_id"]
        pd.testing.assert_frame_equal(
            _sorted_rows(df[keep]), _sorted_rows(current[name][keep]))
    harmonized = kg.read_versions_harmonized(out, [1], "nodes").to_pandas()
    assert list(harmonized.columns).count("version") == 1

    cfg2 = KGConfig(num_partitions=P, version=2)
    s2 = kg.run_kg_job(src.read_transcripts(path), cfg2, out)
    assert s2["partitions_linked"] == 0
    assert s2["partitions_computed"] == P
    ref = str(tmp_path / "ref")
    kg.run_kg_job(src.read_transcripts(path), cfg2, ref, resume=False)
    _assert_tables_equal(_phase1_tables(out, 2), _phase1_tables(ref, 2))


def _incremental_lake(tmp_path, P=4):
    """A 40-conversation lake: version 1, then version 2 with one
    conversation changed (P - 1 partitions linked, one computed)."""
    import pyarrow.parquet as pq
    base = src.synthetic_transcripts_table(n_convs=40, seed=7)
    convs = sorted(set(base.column("conv_id").to_pylist()))
    p1, p2 = (str(tmp_path / f"v{i}.parquet") for i in (1, 2))
    pq.write_table(base, p1)
    _with_changed_convs(base, convs[:1], "two").to_parquet(p2, index=False)
    out = str(tmp_path / "lake")
    kg.run_kg_job(src.read_transcripts(p1),
                  KGConfig(num_partitions=P, version=1), out, resume=False)
    s2 = kg.run_kg_job(src.read_transcripts(p2),
                       KGConfig(num_partitions=P, version=2), out)
    assert (s2["partitions_linked"], s2["partitions_computed"]) == (P - 1, 1)
    return out, p2, convs, s2


def test_crash_resumed_incremental_version_scans_input_once(tmp_path,
                                                            monkeypatch):
    """Rerunning an incremental version after a crash lost one linked
    partition validates the committed partitions and relinks the lost one
    from the exchange's map wave: one Ray Data execution, the same counts
    and the same tables."""
    from ai_knowledgegraph_extractor_ray.stages.conversation import (
        partition_of,
    )
    from ai_knowledgegraph_extractor_ray.state import lineage
    from tests.test_canonicalize import _count_ray_data_executions

    P = 4
    out, p2, convs, s2 = _incremental_lake(tmp_path, P)
    want = _phase1_tables(out, 2)
    lost = min(set(range(P)) - {partition_of(convs[0], P)})
    lineage.uncommit_partition(out, 2, lost)

    starts = _count_ray_data_executions(monkeypatch)
    s = kg.run_kg_job(src.read_transcripts(p2),
                      KGConfig(num_partitions=P, version=2), out)
    assert len(starts) == 1
    assert (s["partitions_resumed"], s["partitions_linked"],
            s["partitions_computed"]) == (P - 1, 1, 0)
    counts = ["partitions_total", "n_conversations", "n_turns", "n_nodes",
              "n_edges"]
    assert {k: s[k] for k in counts} == {k: s2[k] for k in counts}
    assert lineage.committed_partitions(out, 2)[lost][
        "linked_from_version"] == 1
    _assert_tables_equal(_phase1_tables(out, 2), want)


def test_stale_own_partition_is_uncommitted_before_any_reduce(tmp_path,
                                                              monkeypatch):
    """Rerunning version 2 after the input of one of its committed (linked)
    partitions changed: in one Ray Data execution, that partition is
    uncommitted before any reduce is submitted and is then recomputed,
    not linked; the others resume. The tables equal a from-scratch build
    of the changed input."""
    import pyarrow.parquet as pq

    from ai_knowledgegraph_extractor_ray.ops import exchange
    from ai_knowledgegraph_extractor_ray.stages.conversation import (
        partition_of,
    )
    from ai_knowledgegraph_extractor_ray.state import lineage
    from tests.test_canonicalize import _count_ray_data_executions

    P = 4
    out, p2, convs, _ = _incremental_lake(tmp_path, P)
    changed = next(c for c in convs
                   if partition_of(c, P) != partition_of(convs[0], P))
    stale = partition_of(changed, P)
    assert "linked_from_version" in lineage.committed_partitions(out, 2)[stale]
    p3 = str(tmp_path / "v2b.parquet")
    _with_changed_convs(pq.read_table(p2), [changed], "again").to_parquet(
        p3, index=False)

    events = []
    uncommit, reduce_slices = lineage.uncommit_partition, exchange.reduce_slices

    class RecordingReduce:
        def remote(self, *args):
            events.append("reduce")
            return reduce_slices.remote(*args)

    def recording_uncommit(out_dir, version, pid):
        events.append(("uncommit", version, pid))
        uncommit(out_dir, version, pid)

    monkeypatch.setattr(lineage, "uncommit_partition", recording_uncommit)
    monkeypatch.setattr(exchange, "reduce_slices", RecordingReduce())
    starts = _count_ray_data_executions(monkeypatch)
    s = kg.run_kg_job(src.read_transcripts(p3),
                      KGConfig(num_partitions=P, version=2), out)
    assert len(starts) == 1
    assert events == [("uncommit", 2, stale), "reduce"]
    assert (s["partitions_resumed"], s["partitions_linked"],
            s["partitions_computed"]) == (P - 1, 0, 1)
    assert "linked_from_version" not in lineage.committed_partitions(
        out, 2)[stale]
    monkeypatch.undo()
    ref = str(tmp_path / "ref")
    kg.run_kg_job(src.read_transcripts(p3),
                  KGConfig(num_partitions=P, version=2), ref, resume=False)
    _assert_tables_equal(_phase1_tables(out, 2), _phase1_tables(ref, 2))


@pytest.mark.parametrize("auto_split_skew", [False, True],
                         ids=["plain", "skew_split"])
def test_building_a_version_reads_two_manifest_sets_once(
        corpus_path, tmp_path, monkeypatch, auto_split_skew):
    """With versions 1 and 2 committed, building version 3 reads the
    manifests of version 3 (its own resume) and version 2 (the newest
    prior version, to link from) once each, and no other version's."""
    from ai_knowledgegraph_extractor_ray.state import lineage
    out = str(tmp_path / "out")
    for v in (1, 2):
        kg.run_kg_job(src.read_transcripts(corpus_path),
                      KGConfig(num_partitions=4, version=v,
                               auto_split_skew=auto_split_skew), out)
    reads = []
    committed_partitions = lineage.committed_partitions

    def recording(out_dir, version):
        reads.append(version)
        return committed_partitions(out_dir, version)

    monkeypatch.setattr(lineage, "committed_partitions", recording)
    s3 = kg.run_kg_job(src.read_transcripts(corpus_path),
                       KGConfig(num_partitions=4, version=3,
                                auto_split_skew=auto_split_skew), out)
    assert sorted(reads) == [2, 3]
    assert s3["partitions_linked"] == s3["partitions_total"] == 4


def test_point_lookup_reads_the_layout_from_the_manifests(tmp_path):
    """``get_conversation_graph`` finds every conversation of a P=4 lake
    without being told P, and names the version when no manifest records a
    layout."""
    from ai_knowledgegraph_extractor_ray.state import lineage
    out, _, convs, _ = _incremental_lake(tmp_path)
    nodes = kg.read_nodes(out, 2).to_pandas()
    edges = kg.read_edges(out, 2).to_pandas()
    assert set(nodes["conv_id"]) == set(convs)
    for cid in convs:
        g = kg.get_conversation_graph(out, 2, cid)
        n = nodes[nodes["conv_id"] == cid]
        e = edges[edges["conv_id"] == cid]
        assert g["nodes"] == [{"id": r.node_id, "label": r.label,
                               "type": r.node_type} for r in n.itertuples()]
        assert g["edges"] == [{"source": r.src_node_id,
                               "target": r.dst_node_id,
                               "relationship": r.pred}
                              for r in e.itertuples()]
        assert g["nodes"]
    assert kg.get_conversation_graph(out, None, convs[0])["version"] == 2

    for pid, m in lineage.committed_partitions(out, 1).items():
        del m["config_sig"]
        lineage.manifest_path(out, 1, pid).write_text(json.dumps(m))
    with pytest.raises(ValueError, match="version 1 "):
        kg.get_conversation_graph(out, 1, convs[0])
    with pytest.raises(FileNotFoundError, match="version 5 "):
        kg.get_conversation_graph(out, 5, convs[0])


def test_entity_free_partition_stores_the_same_schemas(tmp_path):
    """Phase-1 files have fixed schemas: a P=2 lake whose second partition
    holds no entity reports one ``schema_sig`` per table, and its files
    read with the same column types as the other partition's."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ai_knowledgegraph_extractor_ray.stages.conversation import partition_of
    from ai_knowledgegraph_extractor_ray.state import lineage
    ids = [f"conv-{i}" for i in range(20)]
    with_entities = next(c for c in ids if partition_of(c, 2) == 0)
    entity_free = next(c for c in ids if partition_of(c, 2) == 1)
    texts = {with_entities: ["Alice Johnson is the CEO of Acme Corp.",
                             "Bob Smith works at Globex."],
             entity_free: ["hello there", "no names here at all"]}
    rows = [(c, i, t) for c, ts in texts.items() for i, t in enumerate(ts)]
    path = tmp_path / "t.parquet"
    pq.write_table(pa.table({
        "conv_id": [r[0] for r in rows],
        "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
        "text": [r[2] for r in rows]}), path)
    out = str(tmp_path / "lake")
    s = kg.run_kg_job(src.read_transcripts(str(path)),
                      KGConfig(num_partitions=2), out, resume=False)
    assert s["partitions_computed"] == 2
    ms = lineage.committed_partitions(out, 1)
    assert ms[0]["n_nodes"] > 0 and ms[1]["n_nodes"] == 0

    report = kg.schema_report(out)
    assert report.groupby("table")["schema_sig"].nunique().to_dict() == \
        {"convs": 1, "edges": 1, "nodes": 1}
    for name in lineage.PARTITION_FILES:
        schemas = [pq.read_schema(lineage.partition_dir(out, 1, pid) / name)
                   for pid in (0, 1)]
        assert schemas[0].equals(schemas[1])
        assert not any(pa.types.is_null(f.type) for f in schemas[1])
    assert pq.read_schema(lineage.partition_dir(out, 1, 0) / "convs.parquet"
                          ).field("n_turns").type == pa.int32()


def test_manifests_record_stage_walls(tmp_path):
    """Each computed phase-1 manifest records the reduce's ``stage_s``
    walls (assemble, extract, write); a linked manifest carries the prior
    version's values forward."""
    from ai_knowledgegraph_extractor_ray.state import lineage
    out, _, _, _ = _incremental_lake(tmp_path)
    v1 = lineage.committed_partitions(out, 1)
    v2 = lineage.committed_partitions(out, 2)
    for m in list(v1.values()) + list(v2.values()):
        assert set(m["stage_s"]) == {"assemble", "extract", "write"}
        assert all(v >= 0 for v in m["stage_s"].values())
    linked = [pid for pid, m in v2.items() if "linked_from_version" in m]
    assert len(linked) == 3
    for pid in linked:
        assert v2[pid]["stage_s"] == v1[pid]["stage_s"]


_LEAK_JOB = r"""
import os, sys
import pyarrow.parquet as pq
import ray
from ray.data import DataContext
from ai_knowledgegraph_extractor_ray.config import KGConfig
from ai_knowledgegraph_extractor_ray.pipelines import kg
from ai_knowledgegraph_extractor_ray.sources import transcripts as src
from tests.test_pipeline_e2e import _with_changed_convs, pids_with_env
root, marker, sessions = sys.argv[1], sys.argv[2], int(sys.argv[3])
t = src.synthetic_transcripts_table(n_convs=8, seed=1)
pq.write_table(t, root + "/t.parquet")
_with_changed_convs(t, t["conv_id"][:1].to_pylist(), "v2").to_parquet(
    root + "/t2.parquet", index=False)
for i in range(sessions):
    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    lake = f"{root}/lake{i}"
    cfg = KGConfig(num_partitions=2, alias_salt_buckets=2)
    kg.run_kg_job(src.read_transcripts(root + "/t.parquet"), cfg, lake)
    if sessions > 1:
        # perfbench's shape: sequential sessions, each resuming a version
        cfg = KGConfig(num_partitions=2, alias_salt_buckets=2, version=2)
        kg.run_kg_job(src.read_transcripts(root + "/t2.parquet"), cfg, lake)
    kg.run_canonicalize_job(lake, cfg)
    workers = [p for p, cmd in pids_with_env(marker).items()
               if p != os.getpid() and cmd.startswith("ray::")]
    print("workers", len(workers))
    ray.shutdown()
"""


def pids_with_env(marker: str) -> dict[int, str]:
    """pid -> cmdline of every readable process whose environment holds
    ``marker`` (a ``NAME=value`` entry)."""
    found = {}
    for d in Path("/proc").iterdir():
        if not d.name.isdigit():
            continue
        try:
            if marker.encode() in (d / "environ").read_bytes().split(b"\0"):
                found[int(d.name)] = (d / "cmdline").read_bytes().replace(
                    b"\0", b" ").decode(errors="replace").strip()
        except OSError:
            continue
    return found


@pytest.mark.parametrize("sessions", [1, 3],
                         ids=["one_session", "three_sessions"])
def test_jobs_leave_no_process_behind(tmp_path, sessions):
    """A phase-1 plus phase-2 job ending in ``ray.shutdown()`` leaves no
    process running; so do three sequential sessions (perfbench's shape),
    each running a version 1, a resumed version 2 and phase 2. The driver
    runs in a subprocess whose environment holds a unique marker, which
    every process Ray starts inherits (a worker's cmdline is ``ray::IDLE``,
    so the environment is what finds it). Positive control: before each
    shutdown the driver finds the marker in at least one Ray worker. After
    the driver exits, no process may hold the marker for more than 30 s."""
    import os
    import subprocess
    import sys
    import time
    import uuid

    repo = Path(__file__).resolve().parents[1]
    marker = f"KG_LEAK_GUARD={uuid.uuid4().hex}"
    env = {**os.environ, "PYTHONPATH": str(repo),
           marker.split("=")[0]: marker.split("=")[1]}
    env.pop("RAY_ADDRESS", None)
    # output to files, not pipes: a leaked process holding a pipe would
    # keep the run waiting instead of being found below
    out, err = tmp_path / "stdout.txt", tmp_path / "stderr.txt"
    try:
        with out.open("w") as o, err.open("w") as e:
            code = subprocess.run([sys.executable, "-c", _LEAK_JOB,
                                   str(tmp_path), marker, str(sessions)],
                                  cwd=repo, env=env, timeout=600, stdout=o,
                                  stderr=e).returncode
        assert code == 0, err.read_text()[-3000:]
        n_workers = [int(line.split()[1])
                     for line in out.read_text().splitlines()
                     if line.startswith("workers ")]
        assert len(n_workers) == sessions and min(n_workers) >= 1, \
            out.read_text()
        deadline = time.monotonic() + 30
        while (left := pids_with_env(marker)) and time.monotonic() < deadline:
            time.sleep(0.5)
        assert not left, left
    finally:
        for pid in pids_with_env(marker):
            try:
                os.kill(pid, 9)
            except OSError:
                pass
