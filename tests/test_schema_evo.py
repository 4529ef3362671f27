"""Lake schema evolution (state/schema_evo.py): a reader unioning
``version=K`` partitions written by DIFFERENT engine versions must see one
coherent schema — the parquet-lake analogue of the reference's Alembic
migrations (reference: alembic/versions/60875d8d58f2)."""

import json

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def test_union_schema_widens_numerics_and_keeps_added_columns():
    from ai_knowledgegraph_extractor_ray.state import schema_evo as se

    v1 = pa.schema([("id", pa.string()), ("w", pa.int32())])
    v2 = pa.schema([("id", pa.string()), ("w", pa.int64()),
                    ("confidence", pa.float64())])
    u = se.union_schema([v1, v2])
    assert u.field("w").type == pa.int64()
    assert u.field("confidence").type == pa.float64()
    assert u.names == ["id", "w", "confidence"]
    # int + float widens to float64
    u2 = se.union_schema([pa.schema([("x", pa.int64())]),
                          pa.schema([("x", pa.float32())])])
    assert u2.field("x").type == pa.float64()
    # a kind change is a migration bug, not something to paper over
    with pytest.raises(ValueError, match="reconcile"):
        se.union_schema([pa.schema([("x", pa.string())]),
                         pa.schema([("x", pa.int64())])])


def test_schema_sig_is_order_insensitive_and_type_sensitive():
    from ai_knowledgegraph_extractor_ray.state import schema_evo as se

    a = pa.schema([("x", pa.int64()), ("y", pa.string())])
    b = pa.schema([("y", pa.string()), ("x", pa.int64())])
    c = pa.schema([("x", pa.int32()), ("y", pa.string())])
    assert se.schema_sig(a) == se.schema_sig(b)
    assert se.schema_sig(a) != se.schema_sig(c)


def _commit_partition(out, version, df):
    """Hand-write one committed partition (data + manifest) the way an
    older/newer engine version would have laid it down."""
    from ai_knowledgegraph_extractor_ray.state import lineage

    pdir = lineage.partition_dir(out, version, 0)
    pdir.mkdir(parents=True)
    df.to_parquet(pdir / "edges.parquet", index=False)
    mpath = lineage.manifest_path(out, version, 0)
    mpath.parent.mkdir(parents=True)
    mpath.write_text(json.dumps({"partition_id": 0, "version": version}))


def test_read_versions_harmonized_mixed_schema_lake(tmp_path, ray_session):
    """v1 edges lack the ``confidence`` column a v2 engine added; the
    harmonized union reads both with typed-null fill and one dtype."""
    from ai_knowledgegraph_extractor_ray.pipelines import kg

    out = str(tmp_path / "lake")
    v1 = pd.DataFrame({
        "conv_id": ["c1", "c2"], "edge_id": ["e1", "e2"],
        "pred": ["works_at", "located_in"],
        "weight": pd.array([1, 2], dtype="int32"),
        "version": pd.array([1, 1], dtype="int32")})
    v2 = pd.DataFrame({
        "conv_id": ["c3"], "edge_id": ["e3"], "pred": ["acquired"],
        "weight": pd.array([5], dtype="int64"),
        "confidence": pd.array([0.75], dtype="float64"),
        "version": pd.array([2], dtype="int32")})
    _commit_partition(out, 1, v1)
    _commit_partition(out, 2, v2)

    got = (kg.read_versions_harmonized(out, [1, 2], "edges")
           .to_pandas().sort_values("edge_id").reset_index(drop=True))
    # first-seen field order: v1's columns, then columns v2 added
    assert list(got.columns) == ["conv_id", "edge_id", "pred", "weight",
                                 "version", "confidence"]
    assert str(got["weight"].dtype) == "int64"          # widened
    assert got["confidence"].isna().tolist() == [True, True, False]
    assert got.loc[2, "confidence"] == 0.75
    assert got["version"].tolist() == [1, 1, 2]

    # unknown version fails loudly, not with a silent empty union
    with pytest.raises(FileNotFoundError, match="version"):
        kg.read_versions_harmonized(out, [1, 9], "edges")


def test_read_harmonized_mixed_schema_within_one_group(tmp_path, ray_session):
    """A single version whose own partitions were written by two engine
    versions (mid-job upgrade): a column present only in the LATER file
    of the group must survive — the union schema is built from every
    footer, not the group's first file."""
    from ai_knowledgegraph_extractor_ray.state import schema_evo as se

    a = tmp_path / "a.parquet"
    b = tmp_path / "b.parquet"
    pd.DataFrame({"id": ["x"], "w": pd.array([1], dtype="int64")}
                 ).to_parquet(a)
    pd.DataFrame({"id": ["y"], "w": pd.array([2], dtype="int64"),
                  "confidence": [0.9]}).to_parquet(b)
    got = (se.read_harmonized([[str(a), str(b)]])
           .to_pandas().sort_values("id").reset_index(drop=True))
    assert "confidence" in got.columns
    assert got["confidence"].isna().tolist() == [True, False]
    assert got.loc[1, "confidence"] == 0.9


def test_read_versions_harmonized_canonical_tables(tmp_path, ray_session):
    """Phase-2 canonical dirs union across versions too. The pipeline
    writes them without a ``version`` column, so the reader stamps each
    version's rows with their own version."""
    from ai_knowledgegraph_extractor_ray.config import KGConfig
    from ai_knowledgegraph_extractor_ray.pipelines import kg
    from ai_knowledgegraph_extractor_ray.sources import transcripts as src
    from ai_knowledgegraph_extractor_ray.state import lineage

    out = str(tmp_path / "lake")
    ts = src.synthetic_transcripts(n_convs=12, seed=9)
    for cfg in (KGConfig(num_partitions=3),
                KGConfig(num_partitions=3,
                         version=2, version_cutoff=1)):
        kg.run_kg_job(ts, cfg, out, resume=False)
        kg.run_canonicalize_job(out, cfg)

    for table in ("canonical_edges", "canonical_nodes", "aliases"):
        per_version = {}
        for v in (1, 2):
            files = sorted((lineage.version_dir(out, v) / "canonical"
                            / table).glob("*.parquet"))
            assert all("version" not in pq.read_schema(f).names
                       for f in files)
            per_version[v] = pd.concat([pq.read_table(f).to_pandas()
                                        for f in files], ignore_index=True)
        got = kg.read_versions_harmonized(out, [1, 2], table).to_pandas()
        assert got["version"].dtype == "int32"
        for v, want in per_version.items():
            mine = got[got["version"] == v].drop(columns="version")
            assert len(mine) == len(want), (table, v)
            assert (sorted(map(tuple, mine[list(want.columns)].astype(str)
                               .values))
                    == sorted(map(tuple, want.astype(str).values))), \
                (table, v)
    # v2's turn cutoff changes the tables, so a swapped stamp cannot pass
    assert len(per_version[1]) != len(per_version[2])
    with pytest.raises(FileNotFoundError, match="version"):
        kg.read_versions_harmonized(out, [3], "canonical_edges")


def test_schema_report_from_manifests(tmp_path, ray_session):
    """schema_report reads only manifests: one (version, table, sig) row
    per distinct signature with its partition count — mixed-schema ranges
    are visible without opening a data file."""
    from ai_knowledgegraph_extractor_ray.config import KGConfig
    from ai_knowledgegraph_extractor_ray.pipelines import kg
    from ai_knowledgegraph_extractor_ray.sources import transcripts as src

    out = str(tmp_path / "lake")
    ts = src.synthetic_transcripts(n_convs=12, seed=9)
    kg.run_kg_job(ts, KGConfig(num_partitions=3),
                  out, resume=False)
    rep = kg.schema_report(out)
    assert set(rep["table"]) == {"nodes", "edges", "convs"}
    # uniform engine version: exactly one sig per table, all 3 partitions
    assert len(rep) == 3
    assert (rep["n_partitions"] == 3).all()
    assert (rep["schema_sig"] != "<unrecorded>").all()


def test_schema_report_pre_round5_manifest(tmp_path):
    """Manifests written before schema_sig existed report <unrecorded>
    instead of KeyError-ing the audit."""
    import json as _json

    from ai_knowledgegraph_extractor_ray.pipelines import kg
    from ai_knowledgegraph_extractor_ray.state import lineage

    out = str(tmp_path / "lake")
    mpath = lineage.manifest_path(out, 1, 0)
    mpath.parent.mkdir(parents=True)
    mpath.write_text(_json.dumps({
        "partition_id": 0, "version": 1, "input_fingerprint": "0" * 16,
        "n_conversations": 1, "n_turns": 1, "n_nodes": 0, "n_edges": 0}))
    rep = kg.schema_report(out)
    assert (rep["schema_sig"] == "<unrecorded>").all()
    assert len(rep) == 3


def test_partition_manifest_carries_schema_sig(tmp_path):
    """Every partition commit records per-table schema signatures so a
    mixed-schema version range is detectable from manifests alone."""
    import numpy as np

    from ai_knowledgegraph_extractor_ray.state import lineage

    group = pd.DataFrame({
        "partition_id": [0, 0],
        "conv_id": ["c1", "c1"],
        "conv_fp": np.array([7, 7], dtype="uint64"),
        "kind": ["node", "edge"],
        "node_id": ["n1", None], "label": ["Acme", None],
        "node_type": ["Organization", None],
        "edge_id": [None, "e1"], "src_node_id": [None, "n1"],
        "dst_node_id": [None, "n1"], "subj": [None, "Acme"],
        "pred": [None, "acquired"], "obj": [None, "Acme"],
        "n_turns": [3, 3], "backend": ["rules", "rules"],
        "version": [1, 1], "window_id": [0, 0]})
    m = lineage.write_partition(group, str(tmp_path), 1).iloc[0]
    sig = m["schema_sig"]
    assert set(sig) == {"nodes", "edges", "convs"}
    assert all(len(v) == 16 for v in sig.values())
    # the sig survives the manifest round-trip
    on_disk = json.loads(lineage.manifest_path(
        str(tmp_path), 1, 0).read_text())
    assert on_disk["schema_sig"] == sig
