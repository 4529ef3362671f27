"""DB-export sink round-trip (state/db_export.py): run the pipeline,
export to the reference's relational schema, and read it back through the
reference's own query shape (database_service.py:175-230) — the graph a
reference user's tooling sees must equal the lake's."""

import sqlite3

import pandas as pd


def test_sqlite_export_round_trip(tmp_path, ray_session):
    from ai_knowledgegraph_extractor_ray.config import KGConfig
    from ai_knowledgegraph_extractor_ray.pipelines import kg
    from ai_knowledgegraph_extractor_ray.sources import transcripts as src
    from ai_knowledgegraph_extractor_ray.state import db_export

    out = str(tmp_path / "lake")
    cfg = KGConfig(num_partitions=4)
    ts = src.synthetic_transcripts(n_convs=40, seed=7)
    kg.run_kg_job(ts, cfg, out, resume=False)

    db = str(tmp_path / "export.db")
    counts = db_export.export_sqlite(out, [1], db)
    assert counts["documents"] == 40
    assert counts["versions"] == 40

    lake_nodes = kg.read_nodes(out, 1).to_pandas()
    lake_edges = kg.read_edges(out, 1).to_pandas()
    assert counts["nodes"] == len(lake_nodes)
    assert counts["edges"] == len(lake_edges)

    # reference read shape returns the same graph for every conversation
    # that has any nodes (check a handful incl. the densest one)
    per_conv = lake_nodes.groupby("conv_id").size().sort_values()
    sample = list(per_conv.index[:2]) + [per_conv.index[-1]]
    for conv in sample:
        g = db_export.get_document_graph(db, conv)
        want_nodes = {(r.node_id, r.label, r.node_type)
                      for r in lake_nodes[lake_nodes["conv_id"] == conv]
                      .itertuples()}
        got_nodes = {(n["id"], n["label"], n["type"]) for n in g["nodes"]}
        assert got_nodes == want_nodes
        want_edges = sorted(
            (r.src_node_id, r.dst_node_id, r.pred)
            for r in lake_edges[lake_edges["conv_id"] == conv].itertuples())
        got_edges = sorted((e["source"], e["target"], e["relationship"])
                           for e in g["edges"])
        assert got_edges == want_edges

    # the reference's latest-version ORDER BY picks the highest version
    con = sqlite3.connect(db)
    fk = con.execute("PRAGMA foreign_key_check").fetchall()
    assert fk == []
    # schema parity with models.py:7-92: same table + column names
    cols = {t: [r[1] for r in con.execute(f"PRAGMA table_info({t})")]
            for t in ("documents", "versions", "nodes", "edges")}
    con.close()
    assert cols["documents"] == ["id", "filename", "file_type", "file_path",
                                 "upload_date", "text_content"]
    assert cols["versions"] == ["id", "document_id", "version_number",
                                "created_at"]
    assert cols["nodes"] == ["id", "document_id", "version_id", "node_id",
                             "label", "node_type"]
    assert cols["edges"] == ["id", "document_id", "version_id",
                             "source_node_id", "target_node_id",
                             "relationship_type"]


def test_sqlite_export_multi_version_latest(tmp_path, ray_session):
    """Two lake versions export as two `versions` rows per document; the
    reference's latest-version read resolves to version 2's graph."""
    from ai_knowledgegraph_extractor_ray.config import KGConfig
    from ai_knowledgegraph_extractor_ray.pipelines import kg
    from ai_knowledgegraph_extractor_ray.sources import transcripts as src
    from ai_knowledgegraph_extractor_ray.state import db_export

    out = str(tmp_path / "lake")
    ts = src.synthetic_transcripts(n_convs=12, seed=3)
    kg.run_kg_job(ts, KGConfig(num_partitions=2),
                  out, resume=False)
    kg.run_kg_job(ts, KGConfig(num_partitions=2,
                               version=2), out, resume=False)

    db = str(tmp_path / "export.db")
    counts = db_export.export_sqlite(out, [1, 2], db)
    assert counts["versions"] == 24

    nodes_v2 = kg.read_nodes(out, 2).to_pandas()
    conv = nodes_v2["conv_id"].iloc[0]
    latest = db_export.get_document_graph(db, conv)
    pinned = db_export.get_document_graph(db, conv, version_number=2)
    assert latest == pinned
    want = {(r.node_id, r.label, r.node_type)
            for r in nodes_v2[nodes_v2["conv_id"] == conv].itertuples()}
    assert {(n["id"], n["label"], n["type"])
            for n in latest["nodes"]} == want

    # re-export into the same db collides on ids -> refused up front
    import pytest
    with pytest.raises(ValueError, match="fresh file"):
        db_export.export_sqlite(out, [1], db)


def test_sqlite_export_doc_absent_from_newest_version(tmp_path, ray_session):
    """A document present in v1 but absent from v2 must NOT get a phantom
    v2 versions row — the reference's latest-version read resolves to its
    real v1 graph, not an empty one."""
    from ai_knowledgegraph_extractor_ray.config import KGConfig
    from ai_knowledgegraph_extractor_ray.pipelines import kg
    from ai_knowledgegraph_extractor_ray.sources import transcripts as src
    from ai_knowledgegraph_extractor_ray.state import db_export

    out = str(tmp_path / "lake")
    kg.run_kg_job(src.synthetic_transcripts(n_convs=10, seed=3),
                  KGConfig(num_partitions=2),
                  out, resume=False)
    kg.run_kg_job(src.synthetic_transcripts(n_convs=4, seed=3),
                  KGConfig(num_partitions=2,
                           version=2), out, resume=False)

    db = str(tmp_path / "export.db")
    counts = db_export.export_sqlite(out, [1, 2], db)
    assert counts["documents"] == 10
    assert counts["versions"] == 14          # 10 in v1 + 4 in v2

    nodes_v1 = kg.read_nodes(out, 1).to_pandas()
    convs_v2 = set(kg.read_convs(out, 2).to_pandas()["conv_id"])
    only_v1 = sorted(set(nodes_v1["conv_id"]) - convs_v2)
    assert only_v1, "fixture must have v1-only conversations"
    conv = only_v1[0]
    g = db_export.get_document_graph(db, conv)     # latest = its real v1
    want = {(r.node_id, r.label, r.node_type)
            for r in nodes_v1[nodes_v1["conv_id"] == conv].itertuples()}
    assert {(n["id"], n["label"], n["type"]) for n in g["nodes"]} == want
    assert want                                     # non-empty graph
