"""Traced run: spans and counts recorded around calls into each layer.

The library is not instrumented. The traced job drives the same public
calls ``pipelines/kg.py`` makes, with each stage materialized so its time
lands in its own span:

* phase 1 — ``ops.exchange.hash_exchange`` with the benchmark's own reduce
  function, which runs the reduce body of ``run_kg_job`` call by call
  (``to_pandas``, ``assemble_partition``, ``Extractor``,
  ``renumber_conversation_windows`` when windowed, ``lineage.write_partition``)
  and returns its spans with its manifest; on a version build it first reads
  the prior manifests, fingerprints and links unchanged partitions;
* phase 2 — ``read_nodes``/``read_edges``, ``build_alias_table``,
  ``canonicalize_edges``, ``canonical_nodes_table`` and the writes of
  ``run_canonicalize_job``.

Spans carry (id, name, start, end, parent, run id); a layer is the span
name's prefix before the first dot. Times are ``time.time()`` so spans from
worker processes on the same host share the driver's clock.
"""

from __future__ import annotations

import functools
import hashlib
import json
import time
from contextlib import contextmanager

import numpy as np
import pyarrow as pa

from .spec import LAYERS


class Tracer:
    """In-memory span and counter store for one traced job."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._stack: list[str] = []

    def add(self, name: str, start: float, end: float,
            parent: str | None) -> str:
        sid = f"{self.run_id}/{len(self.spans)}"
        self.spans.append({"id": sid, "name": name, "start": start,
                           "end": end, "parent": parent, "run": self.run_id})
        return sid

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sid = self.add(name, time.time(), 0.0, parent)
        rec = self.spans[-1]
        self._stack.append(sid)
        try:
            yield sid
        finally:
            self._stack.pop()
            rec["end"] = time.time()

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the part of it covered by its children."""
    children: dict[str, list[dict]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        ivs = sorted((max(c["start"], s["start"]), min(c["end"], s["end"]))
                     for c in children.get(s["id"], []))
        covered, lo, hi = 0.0, None, None
        for a, b in ivs:
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out[s["id"]] = max(0.0, s["end"] - s["start"] - covered)
    return out


# Spans that only group other spans. Their self time is glue no named call
# covers (the phase drivers between stages, the benchmark's own code inside
# each reduce), so it is reported as unattributed, not as layer time.
GROUPS = frozenset(("phase1", "phase2", "exchange.reduce"))


def roots(spans: list[dict]) -> dict[str, str]:
    """Span id -> name of its top-level span (its phase)."""
    by_id = {s["id"]: s for s in spans}
    out = {}
    for s in spans:
        r = s
        while r["parent"] is not None:
            r = by_id[r["parent"]]
        out[s["id"]] = r["name"]
    return out


def layer_self_times(spans: list[dict]) -> dict[str, float]:
    st = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        if s["name"] not in GROUPS:
            layer = layer_of(s["name"])
            out[layer] = out.get(layer, 0.0) + st[s["id"]]
    return out


def span_total(spans: list[dict], name: str) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def layer_metrics(spans: list[dict], c: dict[str, float]) -> dict[str, float]:
    """The per-layer metrics of one traced job (see ``spec.PER_LAYER``),
    plus ``trace.job_s`` for the overhead ratio."""
    p1, cov1 = phase_coverage(spans, "phase1")
    p2, cov2 = phase_coverage(spans, "phase2")
    units = c.get("extract.units", 0)
    reduces = c.get("exchange.reduces", 0)
    m = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    m.update({f"{k}.self_s": v for k, v in layer_self_times(spans).items()
              if k in LAYERS})
    m.update({
        "sources.read_s": span_total(spans, "sources.read"),
        "exchange.map_wave_s": span_total(spans, "exchange.map_wave"),
        "exchange.reduce_wave_s": span_total(spans, "exchange.reduce_wave"),
        "exchange.reduce_wait_s": (c.get("exchange.reduce_wait_total", 0.0)
                                   / reduces if reduces else 0.0),
        "exchange.partition_bytes_max_over_mean": c.get(
            "exchange.max_over_mean", 0.0),
        "conversation.to_pandas_s": span_total(spans,
                                               "conversation.to_pandas"),
        "conversation.assemble_s": span_total(spans, "conversation.assemble"),
        "conversation.fingerprint_s": span_total(spans,
                                                 "conversation.fingerprint"),
        "extract.s": span_total(spans, "extract"),
        "extract.fallback_frac": (c.get("extract.fallback", 0) / units
                                  if units else 0.0),
        "lineage.write_s": span_total(spans, "lineage.write"),
        "lineage.link_s": span_total(spans, "lineage.link"),
        "lineage.manifest_read_s": span_total(spans, "lineage.manifest_read"),
        "lineage.read_s": span_total(spans, "lineage.read"),
        "canonicalize.alias_s": span_total(spans, "canonicalize.alias"),
        "canonicalize.rewrite_s": span_total(spans, "canonicalize.rewrite"),
        "canonicalize.nodes_s": span_total(spans, "canonicalize.nodes"),
        "canonicalize.write_s": span_total(spans, "canonicalize.write"),
        "canonicalize.edge_dedup_ratio": (
            c.get("canonicalize.canonical_edges", 0)
            / c["canonicalize.input_edges"]
            if c.get("canonicalize.input_edges") else 0.0),
        "trace.phase1_s": p1,
        "trace.phase2_s": p2,
        "trace.phase1_coverage": cov1,
        "trace.phase2_coverage": cov2,
        "trace.unattributed_s": p1 * (1 - cov1) + p2 * (1 - cov2),
        "trace.job_s": p1 + p2,
    })
    for name in ("sources.rows", "sources.bytes", "exchange.bytes",
                 "exchange.reduces", "conversation.units", "extract.units",
                 "extract.nodes", "extract.edges", "lineage.bytes_written",
                 "lineage.partitions_linked", "lineage.partitions_computed",
                 "canonicalize.mentions", "canonicalize.distinct_norms",
                 "canonicalize.clustered_norms",
                 "canonicalize.canonical_edges",
                 "canonicalize.planted_alias_recall"):
        m[name] = c.get(name, 0)
    return m


def phase_coverage(spans: list[dict], phase: str) -> tuple[float, float]:
    """(phase wall, share of it that layer self times account for)."""
    root = next(s for s in spans if s["name"] == phase)
    wall = root["end"] - root["start"]
    st, top = self_times(spans), roots(spans)
    attributed = sum(st[s["id"]] for s in spans
                     if top[s["id"]] == phase and s["name"] not in GROUPS)
    return wall, attributed / wall if wall else 0.0


# --- phase 1 -----------------------------------------------------------------

def _remint(version, c, s, p, o):
    from ai_knowledgegraph_extractor_ray.stages.extract import edge_id_of
    return edge_id_of(c, version, s, p, o)


class TracedReduce:
    """The fused per-partition body of ``run_kg_job``, one span per call."""

    def __init__(self, cfg, out_dir: str, config_sig: str):
        from ai_knowledgegraph_extractor_ray.stages.extract import Extractor
        self.cfg = cfg
        self.out_dir = out_dir
        self.config_sig = config_sig
        self.extractor = Extractor(cfg)

    def __call__(self, pid: int, tbl: pa.Table):
        from pathlib import Path

        from ai_knowledgegraph_extractor_ray.stages.conversation import (
            assemble_partition,
        )
        from ai_knowledgegraph_extractor_ray.state import lineage
        cfg, spans = self.cfg, []
        t_start, perf_start = time.time(), time.perf_counter()

        t = time.time()
        df = tbl.to_pandas()
        spans.append(("conversation.to_pandas", t, time.time()))
        t = time.time()
        conv = assemble_partition(df, window_chars=cfg.window_chars,
                                  version_cutoff=cfg.version_cutoff,
                                  version=cfg.version)
        spans.append(("conversation.assemble", t, time.time()))
        if len(conv) == 0:
            return None
        t = time.time()
        rows = self.extractor(pa.Table.from_pandas(conv, preserve_index=False)
                              ).to_pandas()
        spans.append(("extract", t, time.time()))
        if cfg.window_chars > 0:
            from ai_knowledgegraph_extractor_ray.stages.extract import (
                renumber_conversation_windows,
            )
            t = time.time()
            rows = renumber_conversation_windows(rows)
            spans.append(("extract.renumber", t, time.time()))
        t = time.time()
        manifest = lineage.write_partition(
            rows, self.out_dir, cfg.version, input_bytes=tbl.nbytes,
            started_at=perf_start,
            config_sig=self.config_sig).to_dict("records")[0]
        spans.append(("lineage.write", t, time.time()))
        pdir = lineage.partition_dir(self.out_dir, cfg.version, pid)
        markers = rows[rows["kind"] == "conv"]
        return {
            "manifest": manifest, "start": t_start, "end": time.time(),
            "spans": spans,
            "counts": {
                "exchange.bytes": tbl.nbytes,
                "conversation.units": len(conv),
                "extract.units": len(markers),
                "extract.nodes": int((rows["kind"] == "node").sum()),
                "extract.edges": int((rows["kind"] == "edge").sum()),
                "extract.fallback": int((markers["backend"]
                                         != self.extractor.backend.name).sum()),
                "lineage.bytes_written": sum(
                    p.stat().st_size for p in Path(pdir).iterdir())
                + lineage.manifest_path(self.out_dir, cfg.version,
                                        pid).stat().st_size,
            },
        }


def traced_phase1(tr: Tracer, cfg, out_dir: str, path: str,
                  resume: bool) -> dict:
    """Phase 1 as ``run_kg_job(read_transcripts(path), cfg, out_dir,
    resume)`` runs it for the rules backend without skew splitting."""
    import ray

    from ai_knowledgegraph_extractor_ray.ops.exchange import hash_exchange
    from ai_knowledgegraph_extractor_ray.ops.hashing import (
        crc32_column,
        effective_pids,
    )
    from ai_knowledgegraph_extractor_ray.pipelines import kg
    from ai_knowledgegraph_extractor_ray.sources.transcripts import (
        read_transcripts,
    )
    from ai_knowledgegraph_extractor_ray.stages.conversation import (
        add_partition_id,
        partition_fingerprints,
    )
    from ai_knowledgegraph_extractor_ray.state import lineage

    P = cfg.num_partitions
    # private on purpose: linking compares this signature, so the traced
    # job must stamp exactly what run_kg_job stamps
    sig = kg._config_sig(cfg)
    committed: dict[int, dict] = {}
    linked: dict[int, dict] = {}
    with tr.span("phase1"):
        if resume:
            with tr.span("lineage.manifest_read"):
                committed = lineage.committed_partitions(out_dir, cfg.version)
                prior = [m["version"] for m in kg.list_versions(out_dir)
                         if m["version"] < cfg.version]
                prev_v = max(prior) if prior else None
                cand = {}
                if (prev_v is not None and cfg.reuse_prior_version
                        and not kg.load_split_map(out_dir, prev_v)):
                    cand = {pid: m for pid, m in lineage.committed_partitions(
                        out_dir, prev_v).items()
                        if pid not in committed
                        and m.get("config_sig") == sig}
            if committed:
                raise RuntimeError("traced phase 1 expects an uncommitted "
                                   "version")
            if cand:
                with tr.span("conversation.fingerprint"):
                    fps = partition_fingerprints(
                        add_partition_id(read_transcripts(path), P),
                        version_cutoff=cfg.version_cutoff, only=set(cand))
                with tr.span("lineage.link"):
                    link = ray.remote(lineage.link_partition)
                    remint = functools.partial(_remint, cfg.version)
                    refs = [link.remote(out_dir, prev_v, cfg.version, pid, m,
                                        edge_id_fn=remint)
                            for pid, m in cand.items()
                            if lineage.validate_manifest(m,
                                                         fps.get(pid, ""))]
                    for m in ray.get(refs):
                        linked[int(m["partition_id"])] = m
                committed.update(linked)

        with tr.span("sources.read"):
            ds = read_transcripts(path)
            if committed:
                skip_arr = np.array(sorted(committed), dtype=np.int64)

                def drop_committed_rows(t: pa.Table) -> pa.Table:
                    if t.num_rows == 0:
                        return t
                    pids = effective_pids(crc32_column(t["conv_id"]), P, None)
                    keep = ~np.isin(pids, skip_arr)
                    return t if keep.all() else t.filter(pa.array(keep))

                ds = ds.map_batches(drop_committed_rows,
                                    batch_format="pyarrow")
            ds = ds.materialize()

        reduce_fn = TracedReduce(cfg, out_dir, sig)
        with tr.span("exchange") as xid:
            t_x0 = time.time()
            results = hash_exchange(ds, P, reduce_fn,
                                    skip=frozenset(committed))
            t_x1 = time.time()

    first = min((r["start"] for r in results), default=t_x1)
    tr.add("exchange.map_wave", t_x0, first, xid)
    wave = tr.add("exchange.reduce_wave", first, t_x1, xid)
    for r in results:
        rid = tr.add("exchange.reduce", r["start"], r["end"], wave)
        for name, a, b in r["spans"]:
            tr.add(name, a, b, rid)
        for k, v in r["counts"].items():
            tr.count(k, v)
    sizes = [r["counts"]["exchange.bytes"] for r in results]
    tr.count("sources.rows", ds.count())
    tr.count("sources.bytes", ds.size_bytes())
    tr.count("exchange.reduces", len(results))
    tr.count("exchange.reduce_wait_total",
             sum(r["start"] - first for r in results))
    tr.count("exchange.max_over_mean",
             max(sizes) / (sum(sizes) / len(sizes)) if sizes else 0.0)
    tr.count("lineage.partitions_linked", len(linked))
    tr.count("lineage.partitions_computed", len(results))
    manifests = list(committed.values()) + [r["manifest"] for r in results]
    return {"n_turns": int(sum(m["n_turns"] for m in manifests)),
            "partitions_total": len(manifests)}


# --- phase 2 -----------------------------------------------------------------

def traced_phase2(tr: Tracer, cfg, out_dir: str) -> dict:
    """Phase 2 as ``run_canonicalize_job(out_dir, cfg)`` runs it on a
    version with no committed phase-2 output."""
    import glob
    import shutil

    import pyarrow.parquet as pq
    import ray.data as rd

    from ai_knowledgegraph_extractor_ray.pipelines import kg
    from ai_knowledgegraph_extractor_ray.stages import canonicalize as cz
    from ai_knowledgegraph_extractor_ray.state import lineage, schema_evo

    v = cfg.version
    with tr.span("phase2"):
        with tr.span("lineage.manifest_read"):
            phase1 = lineage.committed_partitions(out_dir, v)
            fp = hashlib.sha256("\n".join(
                f"{pid}:{m['input_fingerprint']}:{m['n_edges']}:{m['n_nodes']}"
                for pid, m in sorted(phase1.items())).encode()
            ).hexdigest()[:16]
        with tr.span("lineage.read"):
            nodes = kg.read_nodes(out_dir, v).materialize()
            edges = kg.read_edges(out_dir, v).materialize()
        with tr.span("canonicalize.alias"):
            alias = cz.build_alias_table(nodes, cfg).materialize()
        with tr.span("canonicalize.rewrite"):
            canon_edges = cz.canonicalize_edges(edges, alias, cfg
                                                ).materialize()
        with tr.span("canonicalize.nodes"):
            canon_nodes = cz.canonical_nodes_table(alias).materialize()
        with tr.span("canonicalize.write"):
            cdir = lineage.version_dir(out_dir, v) / "canonical"
            cmanifest = cdir / "_manifest.json"
            cmanifest.unlink(missing_ok=True)
            for sub in ("aliases", "canonical_nodes", "canonical_edges"):
                shutil.rmtree(cdir / sub, ignore_errors=True)
            cdir.mkdir(parents=True, exist_ok=True)
            alias.write_parquet(str(cdir / "aliases"))
            canon_nodes.write_parquet(str(cdir / "canonical_nodes"))
            canon_edges.write_parquet(str(cdir / "canonical_edges"))
            summary = {
                "version": v,
                "n_aliases": int(alias.count()),
                "n_canonical_entities": int(rd.read_parquet(
                    str(cdir / "canonical_nodes")).count()),
                "n_canonical_edges": int(rd.read_parquet(
                    str(cdir / "canonical_edges")).count()),
                "input_fp": fp,
                "schema_sig": {
                    s: schema_evo.schema_sig(pq.read_schema(files[0]))
                    if (files := sorted(glob.glob(str(cdir / s / "*.parquet"))))
                    else "" for s in ("aliases", "canonical_nodes",
                                      "canonical_edges")},
            }
            tmp = cmanifest.with_suffix(".json.tmp")
            tmp.write_text(json.dumps(summary))
            tmp.replace(cmanifest)
    tr.count("canonicalize.mentions", nodes.count())
    tr.count("canonicalize.input_edges", edges.count())
    tr.count("canonicalize.canonical_edges", summary["n_canonical_edges"])
    return summary
