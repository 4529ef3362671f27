"""The two-phase KG job: transcripts -> knowledge-graph parquet lake.

Phase 1 (``run_kg_job``) — ONE all-to-all over the raw turns, for every
extractor backend (reference lifecycle analogue: SURVEY.md §3; reference
entry point main.py:81-132):

    read transcripts (column-pruned)
      -> hash exchange on crc32(conv_id) % P           [ops/exchange.py;
           optional skew split map, two levels above 1024 partitions]:
         the map wave, the job's one pass over the input (a fresh
         skew-split run adds ``_compute_split_map``'s pre-pass), also
         returns per-partition fingerprint partials
      -> [resume] driver, between the map and reduce waves: fold the
         partials, uncommit this version's committed partitions whose
         input changed, link the prior version's unchanged ones (three
         hard links and a manifest each, no data read), skip both
      -> one fused reduce per partition, Arrow from the exchange slice to
         the files: ``partition_graph_rows`` (``assemble_table``: sort
         within conversation, join; ``Extractor``: rules per text unit,
         graph rows built column by column;
         ``renumber_conversation_windows`` in pandas, only when windowed),
         then ``lineage.write_partition`` (split by kind, three
         fixed-schema tables + lineage manifest with the stages' walls:
         atomic per-partition commit)
      -> manifests (tiny) -> job summary

The extractor is built once on the driver and pickled into the reduce
tasks. An LLM backend's client state (an HTTP session and a one-shot health
probe) is per task, serving every conversation of the partition, so the
requests in flight are the running partition tasks. ``build_graph_rows`` is
the same plan without the sink.

Phase-1 files store nothing that depends on the version: readers
(``read_nodes``/``read_edges``/``read_convs``) stamp ``version`` from the
version they were asked for, and ``edge_id`` hashes the triple alone. That
is what lets a version reference an unchanged partition's files instead of
rewriting them (``state/lineage.py``).

Phase 2 (``run_canonicalize_job``): mention counts -> blocking -> verify
-> union-find -> alias table -> edge rewrite, under ``version=K/canonical/``,
as a chain of raw task waves over object refs (``ops/exchange.exchange_refs``
and plain tasks), each consuming the refs the previous wave returned:

    node files -> surface wave (maps read the files; exchange on norm) ->
      band wave (exchange on the band key, Jaccard verify, embed scorer)
      -> driver: cosine threshold -> [typo tier: typo wave over the
      surface refs (exchange on deletion variants, edit-distance-1
      verify)] -> driver: union-find
      -> clear the old canonical output (manifest first)
      -> alias wave (one task per surface block; writes its aliases and
         canonical_nodes parts) -> driver: clustered parts + broadcast
      -> edge files -> edge wave (rewrite tasks read the files; exchange
         on the canonical triple; each bucket writes its canonical_edges
         part) -> manifest

Phase 2 runs no Ray Data execution, with the typo tier on or off: its
file lists come from the committed manifests, and the tasks that compute
on the files read them.
Each canonical table is written by the tasks that compute it, as
deterministic ``part-{i:05d}.parquet`` files, so a retried task overwrites
its own part; the driver writes only the clustered alias and node parts.
The manifest's counts are the row counts those writes return, and the
manifest, written last via a tmp file and a rename, is the commit point —
the same shape as phase 1's per-partition commit. The canonical readers
refuse a version without it.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data as rd

from ..config import KGConfig
from ..ops.exchange import hash_exchange, hash_exchange_dataset
from ..stages import canonicalize as cz
from ..stages.conversation import (
    add_partition_id,
    assemble_table,
    fingerprint_partials,
    fold_fingerprints,
)
from ..stages.extract import (
    GRAPH_ROWS,
    Extractor,
    renumber_conversation_windows,
)
from ..state import lineage

CANONICAL_TABLES = ("aliases", "canonical_nodes", "canonical_edges")


def partition_graph_rows(cfg: KGConfig, extractor: Extractor,
                         tbl: pa.Table, stage_s: dict | None = None
                         ) -> pa.Table:
    """One partition's turns -> its graph rows (``GRAPH_ROWS``): assemble ->
    extract -> conversation-level renumbering when windowed. Empty when the
    version cutoff filtered the whole partition. ``stage_s``, when given,
    receives the ``assemble`` and ``extract`` walls (renumbering counts as
    extraction)."""
    t0 = time.perf_counter()
    conv = assemble_table(tbl, window_chars=cfg.window_chars,
                          version_cutoff=cfg.version_cutoff,
                          version=cfg.version)
    t1 = time.perf_counter()
    rows = extractor(conv)
    if cfg.window_chars > 0:
        rows = pa.Table.from_pandas(
            renumber_conversation_windows(rows.to_pandas()),
            schema=GRAPH_ROWS, preserve_index=False
        ).replace_schema_metadata(None)
    if stage_s is not None:
        stage_s["assemble"] = round(t1 - t0, 4)
        stage_s["extract"] = round(time.perf_counter() - t1, 4)
    return rows


def build_graph_rows(transcripts: rd.Dataset, cfg: KGConfig) -> rd.Dataset:
    """transcripts -> unified graph-rows Dataset: ``run_kg_job``'s plan
    without the sink (no resume, skew split or commit)."""
    extractor = Extractor(cfg)
    return hash_exchange_dataset(
        add_partition_id(transcripts, cfg.num_partitions),
        cfg.num_partitions,
        functools.partial(partition_graph_rows, cfg, extractor),
        key="conv_id")


def _compute_split_map(transcripts: rd.Dataset, cfg: KGConfig
                       ) -> dict[int, tuple[int, int]]:
    """Skew pre-pass: per-block partial row counts per base partition (a
    cheap column-pruned scan, no shuffle) -> base pids holding more than
    ``skew_split_threshold`` x the mean fan out into ceil(rows/mean)
    sub-partitions. Returns {} when nothing is skewed."""
    import pyarrow.compute as pc

    from ..ops.hashing import crc32_mod
    P = cfg.num_partitions

    def partial(t: pa.Table) -> pa.Table:
        if cfg.version_cutoff is not None:
            t = t.filter(pc.less_equal(t["turn_idx"], cfg.version_cutoff))
        if t.num_rows == 0:
            return pa.table({"pid": pa.array([], pa.int32()),
                             "n": pa.array([], pa.int64())})
        counts = np.bincount(crc32_mod(t["conv_id"], P), minlength=P)
        nz = np.nonzero(counts)[0]
        return pa.table({"pid": pa.array(nz.astype(np.int32)),
                         "n": pa.array(counts[nz].astype(np.int64))})

    parts = (transcripts.select_columns(
        ["conv_id"] if cfg.version_cutoff is None else ["conv_id", "turn_idx"])
        .map_batches(partial, batch_format="pyarrow").to_pandas())
    totals = np.zeros(P, dtype=np.int64)
    if len(parts):
        np.add.at(totals, parts["pid"].to_numpy(), parts["n"].to_numpy())
    total = int(totals.sum())
    if total == 0:
        return {}
    mean = total / P
    split_map: dict[int, tuple[int, int]] = {}
    offset = 0
    for p in np.nonzero(totals > cfg.skew_split_threshold * mean)[0]:
        s = int(np.ceil(totals[p] / mean))
        split_map[int(p)] = (offset, s)
        offset += s
    return split_map


def _split_map_path(out_dir: str, version: int):
    return lineage.version_dir(out_dir, version) / "_split_map.json"


def load_split_map(out_dir: str, version: int) -> dict[int, tuple[int, int]]:
    """The persisted skew-split layout of a version ({} if none)."""
    p = _split_map_path(out_dir, version)
    if not p.exists():
        return {}
    try:
        raw = json.loads(p.read_text())
        return {int(k): (int(v[0]), int(v[1])) for k, v in raw.items()}
    except (json.JSONDecodeError, ValueError, TypeError, IndexError):
        return {}


# phase-1 file format: bumped whenever the stored bytes change meaning.
# "f2" = version-free files (no version column, edge ids without the
# version); "f3" = f2 with fixed file schemas (``lineage._FILE_KINDS``:
# ``n_turns`` int32, strings typed ``string`` even in an entity-free
# partition). A partition committed under another format is recomputed,
# never linked or resumed
_FILE_FORMAT = "f3"


def _config_sig(cfg: KGConfig) -> str:
    """Partition-layout + extraction-config + file-format signature for
    resume and cross-version reuse. ``version_cutoff`` is deliberately
    ABSENT: it is the version's definition, and its effect is already
    inside the input fingerprint (fingerprints hash post-cutoff turns)."""
    return (f"P{cfg.num_partitions}:w{cfg.window_chars}:{cfg.backend}"
            f":{_FILE_FORMAT}")


def _layout_num_partitions(config_sig: str) -> int | None:
    """The ``num_partitions`` a ``_config_sig`` records (None if it
    records none)."""
    head = config_sig.split(":", 1)[0]
    return int(head[1:]) if head[:1] == "P" and head[1:].isdigit() else None


def _version_numbers(out_dir: str) -> list[int]:
    """The versions that have a ``version=K`` directory, newest first."""
    vs = []
    for vdir in Path(out_dir).glob("version=*"):
        try:
            vs.append(int(vdir.name.split("=", 1)[1]))
        except ValueError:
            continue
    return sorted(vs, reverse=True)


def _prior_version(out_dir: str, version: int
                   ) -> tuple[int | None, dict[int, dict]]:
    """The newest version below ``version`` with a committed partition, and
    its manifests: only that version's manifests are read (plus those of
    any newer version directory with none committed)."""
    for v in _version_numbers(out_dir):
        if v < version and (ms := lineage.committed_partitions(out_dir, v)):
            return v, ms
    return None, {}


def run_kg_job(transcripts: rd.Dataset, cfg: KGConfig, out_dir: str,
               resume: bool = True, validate_input: bool = True) -> dict:
    """Execute the pipeline with per-partition commit; returns the job
    summary (aggregated manifest counts).

    For every backend the whole per-partition chain (sort-within-group ->
    concat -> extract -> write -> manifest) FUSES into ONE reduce task per
    partition of a raw-Ray hash exchange (``ops/exchange.py``) — the job has
    exactly one all-to-all, over the raw turns, with no Ray-Data sort
    barrier (measured: the sort-based groupby spent ~6 s of near-serial
    wall on ~3.6 CPU-s of shuffle bookkeeping at 32 CPUs; the exchange
    lifted 8->32 scaling efficiency from ~0.50 to ~0.65 and absolute
    throughput by ~1.5x). The extractor is built here, before any input is
    read, so a misconfigured LLM provider fails fast.

    Resume and linking read the manifests of this version and of the
    newest prior version with a committed partition, once each, and read
    the input once: the exchange's map tasks also run the fingerprint
    kernel (``fingerprint_partials``) over the partitions that need it —
    this version's committed partitions whose ``config_sig`` matches this
    config (when ``validate_input``) and the prior version's under the
    same ``config_sig`` and split map. After the map wave and before any
    reduce, the driver folds the partials: a committed partition whose
    fingerprint changed is uncommitted (manifest deleted first, so a crash
    mid-rerun can't resurrect it) and recomputed; a prior partition whose
    fingerprint is unchanged is linked; committed and linked partitions
    get no reduce. ``validate_input=False`` trusts this version's
    committed partitions without hashing them, for immutable inputs."""
    extractor = Extractor(cfg)

    prev_v, prevs = (_prior_version(out_dir, cfg.version)
                     if resume and cfg.reuse_prior_version else (None, {}))
    prev_split = load_split_map(out_dir, prev_v) if prev_v is not None else {}

    # Skew-split layout: a resumed run MUST reuse the persisted map (the
    # committed partition ids were assigned under it); a fresh run computes
    # one when cfg.auto_split_skew and persists it before any commit.
    split_map: dict[int, tuple[int, int]] = \
        load_split_map(out_dir, cfg.version) if resume else {}
    if cfg.auto_split_skew and not split_map:
        # adopt the prior version's layout (even an empty one) so unchanged
        # partitions stay linkable across versions — recomputing the map
        # from drifted data would silently re-partition and defeat every
        # fingerprint match; the cost of a stale map is balance, not
        # correctness
        split_map = (prev_split if prev_v is not None
                     else _compute_split_map(transcripts, cfg))
        if split_map:
            smp = _split_map_path(out_dir, cfg.version)
            smp.parent.mkdir(parents=True, exist_ok=True)
            smp.write_text(json.dumps(
                {str(k): list(v) for k, v in split_map.items()}))

    # a committed partition is trusted only under this config (layout,
    # extractor and file format) and, when validated, this input; a prior
    # partition is linked only under the same config and split map when
    # its input is unchanged. The exchange's maps fingerprint the
    # partitions both need, in the job's one pass over the input.
    sig = _config_sig(cfg)
    committed = lineage.committed_partitions(out_dir, cfg.version) if resume else {}
    stale = {pid for pid, m in committed.items()
             if m.get("config_sig") != sig}
    own = set(committed) - stale
    cand = ({pid: m for pid, m in prevs.items()
             if m.get("config_sig") == sig}
            if prev_split == split_map else {})
    only = (own if validate_input else set()) | (set(cand) - own)
    linked: dict[int, dict] = {}

    def decide_skip(partials: list) -> set[int]:
        # between the map wave and the reduce wave: a committed partition
        # whose input changed is uncommitted (manifest first, so a crash
        # mid-rerun can't resurrect it) before any reduce starts; the prior
        # version's unchanged partitions are linked — three hard links and
        # a manifest each, no data read (the reference's update endpoint
        # is likewise per-document, main.py:202-285)
        current = fold_fingerprints(partials)
        if validate_input:
            stale.update(pid for pid in own if not lineage.validate_manifest(
                committed[pid], current.get(pid, "")))
        for pid in stale:
            lineage.uncommit_partition(out_dir, cfg.version, pid)
            del committed[pid]
        linked.update({pid: lineage.link_partition(out_dir, prev_v,
                                                   cfg.version, pid, m)
                       for pid, m in cand.items()
                       if pid not in committed
                       and lineage.validate_manifest(m, current.get(pid, ""))})
        return set(committed) | set(linked)

    def reduce_fn(pid: int, tbl: pa.Table):
        t_start = time.perf_counter()
        stage_s: dict = {}
        rows = partition_graph_rows(cfg, extractor, tbl, stage_s)
        if rows.num_rows == 0:      # cutoff filtered the whole partition
            return None
        return lineage.write_partition(
            rows, out_dir, cfg.version, input_bytes=tbl.nbytes,
            started_at=t_start, config_sig=sig,
            stage_s=stage_s).to_dict("records")[0]

    fresh = hash_exchange(
        transcripts, cfg.num_partitions, reduce_fn, skip=decide_skip,
        partial_fn=functools.partial(
            fingerprint_partials, version_cutoff=cfg.version_cutoff,
            only=only) if only else None,
        split_map=split_map or None)
    all_manifests = [*committed.values(), *linked.values(), *fresh]

    # partition-sizing guard: each partition materializes as ONE worker-
    # resident frame inside its reduce task, so num_partitions must scale
    # with data volume (P ~ input_bytes / ~1 GiB). Warn loudly when a
    # partition blew past the configured bound instead of letting workers
    # OOM silently at 100x the test scale.
    big = [m for m in all_manifests
           if int(m.get("input_bytes", 0) or 0) > cfg.partition_bytes_warn]
    if big:
        import warnings
        worst = max(int(m["input_bytes"]) for m in big)
        warnings.warn(
            f"{len(big)} partition(s) exceeded partition_bytes_warn="
            f"{cfg.partition_bytes_warn} (largest {worst} bytes); raise "
            f"num_partitions (currently {cfg.num_partitions}) so one "
            f"partition fits a worker heap", ResourceWarning, stacklevel=2)

    summary = {
        "version": cfg.version,
        "partitions_total": len(all_manifests),
        "partitions_resumed": len(committed),
        "partitions_linked": len(linked),
        "partitions_computed": len(fresh),
        **{k: int(sum(m[k] for m in all_manifests))
           for k in ("n_conversations", "n_turns", "n_nodes", "n_edges")},
        # observability: straggler detection without reading any data —
        # a max far above the mean says partitions are skewed (hot conv_id
        # prefix or num_partitions too low)
        "max_partition_wall_s": round(max(
            (float(m.get("wall_time_s", 0) or 0) for m in all_manifests),
            default=0.0), 4),
        "sum_partition_wall_s": round(sum(
            float(m.get("wall_time_s", 0) or 0) for m in all_manifests), 3),
    }
    return summary


def _committed_files(out_dir: str, version: int, name: str,
                     committed: dict[int, dict] | None = None) -> list[str]:
    """Parquet paths for one table across COMMITTED partitions only — built
    from the lineage manifests (``committed``, when the caller has read
    them already), never a filesystem glob, so orphaned data from a crash
    mid-partition or stale part dirs from a previous run with a different
    num_partitions are never read."""
    if committed is None:
        committed = lineage.committed_partitions(out_dir, version)
    return [str(lineage.partition_dir(out_dir, version, pid) / name)
            for pid in sorted(committed)]


def _read_phase1(out_dir: str, version: int, table: str) -> rd.Dataset:
    """One phase-1 table of a version's committed partitions, with the
    ``version`` column stamped at read time (the files do not store it; a
    file from an older engine that does has it replaced). No hive parsing
    of the ``version=K`` path segment: the stamp is int32, not the path's
    string."""
    files = _committed_files(out_dir, version, f"{table}.parquet")
    if not files:
        raise FileNotFoundError(
            f"read_{table}: no committed partitions for version {version} "
            f"under {out_dir}")
    return rd.read_parquet(files, partitioning=None).map_batches(
        functools.partial(_stamp_version, version), batch_format="pyarrow")


def read_nodes(out_dir: str, version: int) -> rd.Dataset:
    return _read_phase1(out_dir, version, "nodes")


def read_edges(out_dir: str, version: int) -> rd.Dataset:
    return _read_phase1(out_dir, version, "edges")


def read_convs(out_dir: str, version: int,
               columns: list[str] | None = None) -> rd.Dataset:
    # columns are selected after the stamp: Ray 2.49's
    # read_parquet(columns=..., partitioning=None) raises UnboundLocalError
    ds = _read_phase1(out_dir, version, "convs")
    return ds.select_columns(columns) if columns is not None else ds


def read_versions_harmonized(out_dir: str, versions: list[int],
                             table: str = "edges") -> rd.Dataset:
    """Union several committed versions of one graph table under ONE
    read schema, even when the versions were written by different engine
    versions with different schemas (schema-on-read: missing columns
    become typed nulls, numeric columns widen — state/schema_evo.py, the
    lake analogue of the reference's Alembic migration
    alembic/versions/60875d8d58f2). ``table`` is ``nodes``/``edges``/
    ``convs`` (phase-1 partition tables) or ``aliases``/
    ``canonical_nodes``/``canonical_edges`` (phase-2 canonical dirs).
    Every row carries a ``version`` column for provenance, stamped at
    read time: the pipeline writes neither phase-1 files nor canonical
    dirs with one, and a stored one (an older engine's) is replaced."""
    import glob

    from ..state import schema_evo

    if table in CANONICAL_TABLES:
        groups = [sorted(glob.glob(str(d / "*.parquet")))
                  if (d := _committed_canonical(out_dir, v, table)) else []
                  for v in versions]
    else:
        groups = [_committed_files(out_dir, v, f"{table}.parquet")
                  for v in versions]
    empty = [v for v, g in zip(versions, groups) if not g]
    if empty:
        raise FileNotFoundError(
            f"read_versions_harmonized: nothing committed in {table} for "
            f"version(s) {empty} under {out_dir}")
    parts, schemas = [], []
    for v, g in zip(versions, groups):
        group_schemas = [pq.read_schema(f) for f in g]
        # no hive parsing of the version=K path segment: the stamp below
        # is typed like the phase-1 column, not as the path's string
        ds = rd.read_parquet(g, partitioning=None)
        if not any("version" in s.names for s in group_schemas):
            group_schemas.append(pa.schema([("version", pa.int32())]))
        parts.append(ds.map_batches(functools.partial(_stamp_version, v),
                                    batch_format="pyarrow"))
        schemas += group_schemas
    return schema_evo.union_harmonized(parts, schemas)


def _stamp_version(version: int, t: pa.Table) -> pa.Table:
    """``t`` with the int32 ``version`` column and no schema metadata: the
    files' ``pandas`` metadata is a dict, which pyarrow hashes when Ray
    Data dedups block schemas, and that fails on every block."""
    if "version" in t.column_names:
        t = t.drop_columns(["version"])
    return t.append_column("version", pa.array(
        np.full(t.num_rows, version, dtype=np.int32))
    ).replace_schema_metadata(None)


def schema_report(out_dir: str) -> pd.DataFrame:
    """Per-version, per-table schema signatures from the lineage
    manifests ALONE (no data file opened): the audit a reader runs before
    unioning versions to know whether ``read_versions_harmonized`` is
    needed. One row per (version, table, schema_sig) with the partition
    count carrying that sig; a version+table appearing with >1 sig means
    even its own partitions are mixed (a mid-job engine upgrade).
    Pre-round-5 manifests lack ``schema_sig`` and report ``<unrecorded>``."""
    rows = []
    for vm in list_versions(out_dir):
        v = vm["version"]
        for pid, m in lineage.committed_partitions(out_dir, v).items():
            sigs = m.get("schema_sig") or {}
            for table in ("nodes", "edges", "convs"):
                rows.append({"version": v, "table": table,
                             "schema_sig": sigs.get(table, "<unrecorded>")})
    if not rows:
        return pd.DataFrame({"version": pd.Series(dtype="int64"),
                             "table": pd.Series(dtype="object"),
                             "schema_sig": pd.Series(dtype="object"),
                             "n_partitions": pd.Series(dtype="int64")})
    df = (pd.DataFrame(rows)
          .groupby(["version", "table", "schema_sig"], as_index=False)
          .size().rename(columns={"size": "n_partitions"}))
    return df.sort_values(["version", "table", "schema_sig"],
                          kind="mergesort").reset_index(drop=True)


def _part_name(i: int) -> str:
    return f"part-{i:05d}.parquet"


def _write_edge_part(edir: str, pid: int, tbl: pa.Table) -> int:
    """The job's edge-wave reduce: merge one bucket of partials and write
    it as the ``canonical_edges`` part of its bucket. Returns the rows."""
    edges = cz.merge_edge_partials(pid, tbl)
    if edges.num_rows:
        pq.write_table(edges, Path(edir) / _part_name(pid))
    return edges.num_rows


class StageClock:
    """Driver walls between a job's sync points: ``clock(name)`` records
    the wall since the previous call (or since the clock was made) under
    ``name``, so the recorded walls sum to the job's wall."""

    def __init__(self):
        self.walls: dict[str, float] = {}
        self._t = time.perf_counter()

    def __call__(self, name: str) -> None:
        t = time.perf_counter()
        self.walls[name] = round(t - self._t, 4)
        self._t = t


def _link_sig(cfg: KGConfig, link, use_embed_scorer: bool) -> str:
    """What decides phase 2's tables besides phase 1's rows: the linking
    parameters, the scorer (off, or the model and whether a loader is
    injected) and the broadcast cap."""
    loader = cfg.extra.get("embed_model_loader") is not None
    scorer = (f"{cfg.embed_model or 'hash'}{'+loader' if loader else ''}"
              if use_embed_scorer else "off")
    return f"{link or cz.LinkParams()}:{scorer}:cap{cfg.broadcast_vocab_cap}"


def run_canonicalize_job(out_dir: str, cfg: KGConfig,
                         link=None, use_embed_scorer: bool = True,
                         resume: bool = True) -> dict:
    """Phase 2: per-conversation graphs -> global canonical graph.

    Reads the committed node/edge partitions of a version, builds the alias
    table (LSH-blocked entity linking over distinct surface forms), rewrites
    edges onto canonical ids with a broadcast join, and writes the canonical
    tables under ``version=K/canonical/``. The job is a chain of task waves,
    each consuming the object refs the previous one returned; it runs no
    Ray Data execution, with the typo tier on or off: the surface and
    edge waves' tasks read the committed ``nodes.parquet`` and
    ``edges.parquet`` files themselves, and nothing vocabulary-sized is
    collected on the driver:

    1. surface wave (``canonicalize.surface_wave``): node files -> mention
       partials in the map tasks -> exchange on ``norm`` -> one surface
       block per bucket;
    2. band wave: band keys per surface block -> exchange on the band key
       -> Jaccard verify and embed scoring per bucket; the driver fetches
       the scored pairs, keeps those at the cosine threshold, adds the
       typo wave's (``canonicalize.fuzzy_label_pairs`` over the surface
       refs, when ``link.typo_tier``) and runs the union-find
       (``canonicalize.link_surfaces``);
    3. clear: the old manifest (first: uncommit order), then the three
       table directories;
    4. alias wave (``canonicalize.alias_block``), one task per surface
       block: writes the block's unclustered ``aliases`` part and its 1:1
       ``canonical_nodes`` part and returns its row and mention counts,
       clustered rows and hot slice; the driver reduces the clustered rows
       per root, writes the clustered ``aliases`` and ``canonical_nodes``
       parts and builds the rewrite broadcast, all in Arrow;
    5. edge wave (``canonicalize.edge_wave``): edge files -> rewrite in the
       tasks that read them -> exchange on the canonical triple -> one task
       per bucket merges and writes its ``canonical_edges`` part.

    Part names are deterministic (``part-{i:05d}.parquet``, per surface
    block or edge bucket), so a retried task overwrites its own file. The
    clear comes after linking, so a failure while linking leaves the
    committed tables intact; the file lists come from the committed
    manifests, read before it. The manifest's ``n_*`` counts are the row
    counts the writes return, plus the linking counts
    (``n_candidate_pairs``, ``n_verified_pairs``, ``n_clustered_norms``)
    and ``n_mentions`` (the surface rows' mention total); ``stage_s``
    holds the driver walls between the job's sync points (``StageClock``:
    ``surface``, ``band``, ``link``, ``alias``, ``edge``, ``commit``;
    ``surface`` includes the resume check). The manifest, written last via
    a tmp file and a rename, is the commit point: a rerun clears any
    output it does not cover. A rerun resumes only when both the phase-1
    fingerprint (``input_fp``) and the linking configuration
    (``link_sig``: ``LinkParams``, the scorer, the broadcast cap) match.
    ``n_candidate_pairs`` counts the pairs scored per coarse band bucket:
    a pair whose band buckets fall in several coarse buckets is scored in
    each, so the count depends on the band wave's bucket count, which
    ``ops/exchange.auto_partitions`` sizes from the bytes and the
    cluster's CPUs; the tables do not."""
    import hashlib
    import shutil

    from ..state import schema_evo

    clock = StageClock()
    # phase-2 commit point: a manifest fingerprinting phase 1's committed
    # partitions and the linking configuration. A resume with both
    # unchanged skips the whole phase; a change invalidates rather than
    # silently reusing.
    phase1 = lineage.committed_partitions(out_dir, cfg.version)
    fp = hashlib.sha256("\n".join(
        f"{pid}:{m['input_fingerprint']}:{m['n_edges']}:{m['n_nodes']}"
        for pid, m in sorted(phase1.items())).encode()).hexdigest()[:16]
    link_sig = _link_sig(cfg, link, use_embed_scorer)
    cdir = lineage.version_dir(out_dir, cfg.version) / "canonical"
    cmanifest = cdir / "_manifest.json"
    if resume and cmanifest.exists():
        try:
            prev = json.loads(cmanifest.read_text())
            if (prev.get("input_fp"), prev.get("link_sig")) == (fp, link_sig):
                prev["resumed"] = True
                return prev
        except json.JSONDecodeError:
            pass  # torn manifest == uncommitted

    if not phase1:
        raise FileNotFoundError(
            f"run_canonicalize_job: no committed partitions for version "
            f"{cfg.version} under {out_dir}")
    node_files, edge_files = (_committed_files(out_dir, cfg.version, name,
                                               phase1)
                              for name in ("nodes.parquet", "edges.parquet"))
    surfaces, roots, counts = cz.link_surfaces(
        node_files, cfg, link=link, use_embed_scorer=use_embed_scorer,
        lap=clock)

    # clear any uncommitted/stale phase-2 output (manifest first = uncommit
    # order): a previous run may have left parts this one does not rewrite
    cmanifest.unlink(missing_ok=True)
    for sub in CANONICAL_TABLES:
        shutil.rmtree(cdir / sub, ignore_errors=True)
        (cdir / sub).mkdir(parents=True)
    (cdir / "aliases.parquet").unlink(missing_ok=True)          # pre-r2 layout
    (cdir / "canonical_nodes.parquet").unlink(missing_ok=True)
    adir, ndir, edir = (cdir / sub for sub in CANONICAL_TABLES)

    cap = cfg.broadcast_vocab_cap
    outs = [cz.alias_block.remote(
        ref, roots, cap, (str(adir / _part_name(i)), str(ndir / _part_name(i))))
        for i, ref in enumerate(surfaces)]
    clustered = cz.clustered_aliases(ray.get([o[1] for o in outs]))
    cl_nodes = cz.clustered_nodes(clustered)
    if clustered.num_rows:
        name = _part_name(len(surfaces))
        pq.write_table(clustered, adir / name)
        pq.write_table(cl_nodes, ndir / name)
    broadcast = cz.hot_slice(
        pa.concat_tables([clustered, *ray.get([o[2] for o in outs])]), cap)
    clock("alias")
    n_edges = sum(ray.get(cz.edge_wave(
        edge_files, broadcast,
        functools.partial(_write_edge_part, str(edir)))))
    alias_counts = ray.get([o[0] for o in outs])
    n_unclustered = sum(rows for rows, _ in alias_counts)
    clock("edge")

    def _sig(sub: str) -> str:
        files = sorted((cdir / sub).glob("*.parquet"))
        return schema_evo.schema_sig(pq.read_schema(files[0])) \
            if files else ""

    summary = {
        "version": cfg.version,
        "n_aliases": n_unclustered + clustered.num_rows,
        "n_canonical_entities": n_unclustered + cl_nodes.num_rows,
        "n_canonical_edges": n_edges,
        **counts,
        "n_clustered_norms": clustered.num_rows,
        "n_mentions": sum(m for _, m in alias_counts)
        + (pc.sum(cl_nodes["n_mentions"]).as_py() or 0),
        "input_fp": fp,
        "link_sig": link_sig,
        # phase-2 schema signatures (footer-only): the canonical tables'
        # analogue of the per-partition schema_sig — one engine version
        # writes phase 2 atomically, so one sig per table suffices
        "schema_sig": {s: _sig(s) for s in CANONICAL_TABLES},
    }
    clock("commit")
    summary["stage_s"] = clock.walls
    tmp = cmanifest.with_suffix(".json.tmp")   # manifest written LAST = commit
    tmp.write_text(json.dumps(summary))
    tmp.replace(cmanifest)
    return summary


def _committed_canonical(out_dir: str, version: int, table: str
                         ) -> Path | None:
    """A canonical table's directory when the version's phase 2 is
    committed (its manifest exists), else None: a crashed run's parts are
    never read."""
    cdir = lineage.version_dir(out_dir, version) / "canonical"
    return cdir / table if (cdir / "_manifest.json").exists() else None


def _read_canonical(out_dir: str, version: int, table: str) -> rd.Dataset:
    path = _committed_canonical(out_dir, version, table)
    if path is None:
        raise FileNotFoundError(
            f"read {table}: no committed phase 2 for version {version} "
            f"under {out_dir}")
    return rd.read_parquet(str(path)).map_batches(
        _drop_schema_metadata, batch_format="pyarrow")


def _drop_schema_metadata(t: pa.Table) -> pa.Table:
    """``t`` without the ``pandas`` schema metadata the canonical parts of
    older engines carry (they were written from pandas frames): Ray Data
    hashes block schemas to dedup them, and that metadata is an
    unhashable dict."""
    return t.replace_schema_metadata(None)


def read_canonical_edges(out_dir: str, version: int) -> rd.Dataset:
    """Deduplicated weighted canonical edges of a committed phase 2."""
    return _read_canonical(out_dir, version, "canonical_edges")


def read_aliases(out_dir: str, version: int) -> rd.Dataset:
    """The alias table (norm -> canonical id/label) of a committed phase 2."""
    return _read_canonical(out_dir, version, "aliases")


def read_canonical_nodes(out_dir: str, version: int) -> rd.Dataset:
    """Distinct canonical entities of a committed phase 2."""
    return _read_canonical(out_dir, version, "canonical_nodes")


def get_stats(out_dir: str, version: int) -> dict:
    """Corpus graph stats (reference get_database_stats,
    database_service.py:314-346): totals from the lineage manifests (no data
    scan) plus per-conversation averages."""
    manifests = lineage.committed_partitions(out_dir, version)
    n_convs = sum(m["n_conversations"] for m in manifests.values())
    n_nodes = sum(m["n_nodes"] for m in manifests.values())
    n_edges = sum(m["n_edges"] for m in manifests.values())
    return {
        "version": version,
        "total_conversations": int(n_convs),
        "total_nodes": int(n_nodes),
        "total_edges": int(n_edges),
        "avg_nodes_per_conversation": round(n_nodes / n_convs, 2) if n_convs else 0.0,
        "avg_edges_per_conversation": round(n_edges / n_convs, 2) if n_convs else 0.0,
    }


def list_versions(out_dir: str) -> list[dict]:
    """Committed versions, newest first (reference get_document_versions,
    database_service.py:237-258). Metadata-only: reads manifests."""
    out = []
    for v in _version_numbers(out_dir):
        ms = lineage.committed_partitions(out_dir, v)
        if ms:
            out.append({"version": v,
                        "n_partitions": len(ms),
                        "n_conversations": int(sum(
                            m["n_conversations"] for m in ms.values()))})
    return out


def list_conversations(out_dir: str, version: int) -> rd.Dataset:
    """Distinct conversations of a version with turn counts (reference
    list_documents, database_service.py:260-278)."""
    from ..ops.agg import bucketed_groupby

    convs = read_convs(out_dir, version)

    def dedup(df: pd.DataFrame) -> pd.DataFrame:
        return (df.groupby("conv_id", as_index=False)
                .agg(n_turns=("n_turns", "max"), n_windows=("window_id", "count")))

    return bucketed_groupby(convs, ["conv_id"], dedup)


def cleanup_versions(out_dir: str, keep_versions: int) -> list[int]:
    """Retention pass (reference cleanup endpoint, database_service.py:280-312):
    drop all but the newest ``keep_versions`` version partitions. Driver-side
    metadata op — deletes whole version directories, never rewrites data."""
    import shutil
    versions = [m["version"] for m in list_versions(out_dir)]
    doomed = versions[keep_versions:]
    for v in doomed:
        shutil.rmtree(lineage.version_dir(out_dir, v), ignore_errors=True)
    return doomed


def get_conversation_graph(out_dir: str, version: int | None,
                           conv_id: str) -> dict:
    """Point lookup of one conversation's graph — the analogue of the
    reference's GET /documents/{id}/graph (reference: main.py:155-177,
    database_service.py:175-235). Partition pruning via the lineage layout:
    the version's manifests record its partition count (``config_sig``) and
    its split map is persisted beside them, so only the conversation's own
    partition directory is read. ``version=None`` resolves to the latest
    committed version (reference latest-version read,
    database_service.py:198-200)."""
    from ..functions.validation import (
        validate_conv_id,
        validate_version_number,
    )
    from ..stages.conversation import partition_of
    conv_id = validate_conv_id(conv_id)
    if version is not None:
        version = validate_version_number(version)
    if version is None:
        versions = list_versions(out_dir)
        if not versions:
            raise FileNotFoundError(f"no committed versions under {out_dir}")
        version = versions[0]["version"]
    manifests = lineage.committed_partitions(out_dir, version)
    if not manifests:
        raise FileNotFoundError(
            f"version {version} has no committed partition under {out_dir}")
    layouts = {_layout_num_partitions(m.get("config_sig", ""))
               for m in manifests.values()} - {None}
    if len(layouts) != 1:
        raise ValueError(
            f"version {version} under {out_dir}: its committed manifests "
            f"record {sorted(layouts) or 'no'} partition layout(s), so the "
            f"partition of {conv_id!r} is unknown")
    pid = partition_of(conv_id, layouts.pop(),
                       split_map=load_split_map(out_dir, version))
    if pid not in manifests:
        raise FileNotFoundError(
            f"partition {pid} of version {version} is not committed")
    pdir = lineage.partition_dir(out_dir, version, pid)
    nodes = pd.read_parquet(pdir / "nodes.parquet")
    edges = pd.read_parquet(pdir / "edges.parquet")
    nodes = nodes[nodes["conv_id"] == conv_id]
    edges = edges[edges["conv_id"] == conv_id]
    return {
        "conv_id": conv_id,
        "version": version,
        "nodes": [{"id": r.node_id, "label": r.label, "type": r.node_type}
                  for r in nodes.itertuples()],
        "edges": [{"source": r.src_node_id, "target": r.dst_node_id,
                   "relationship": r.pred}
                  for r in edges.itertuples()],
    }
