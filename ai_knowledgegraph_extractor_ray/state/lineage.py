"""Per-partition lineage manifests: the engine's checkpoint/resume unit.

Replaces the reference's ACID transaction-per-document persistence
(reference: database_service.py:24-83) with idempotent partition commits:

    out_dir/version=K/part-00042/{nodes,edges,convs}.parquet
    out_dir/version=K/_manifests/part-00042.json      <- written LAST

The manifest write is the commit point — a resumed job trusts only
partitions whose manifest exists and parses, so a crash mid-partition
leaves at worst orphaned data files that the rerun replaces. Extraction is
a pure function of a partition's input (deterministic backend), so
re-running an uncommitted partition is idempotent.

The data files hold only version-independent bytes: no ``version``
column (readers stamp it at read time from the ``version=K`` they were
asked for) and edge ids that hash the triple, not the version. So a later
version reuses an unchanged partition by reference: ``link_partition``
hard-links the three files into its own ``part-NNNNN/`` and commits a
manifest, reading no data. Versions then share inodes, which makes one
rule binding: a data file is never written in place. ``write_partition``
writes each file to a tmp path and renames it over the old name, so a
rerun of an older version gives that version new inodes and leaves the
bytes a later version links to untouched; deleting a version
(``uncommit_partition``, retention) only drops its own links.

Each manifest records the partition's input fingerprint (xor of per-turn
hashes, order-insensitive): a resume over *changed* input is detected by
``validate_manifest`` rather than silently reusing stale output. The
fingerprint is defined once, in ``stages/conversation.py``: ``turn_hashes``
hashes each turn and ``xor_by_key`` folds them. ``write_partition`` xors the
``conv_fp`` column ``assemble_table`` computes with them. A resume
compares it with the fingerprint the exchange's map tasks compute from
the input (``fingerprint_partials``, folded on the driver between the map
wave and the reduce wave), so validating, uncommitting and linking need no
pass over the input of their own.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..stages.extract import GRAPH_ROWS
from . import schema_evo


def version_dir(out_dir: str, version: int) -> Path:
    return Path(out_dir) / f"version={version}"


def partition_dir(out_dir: str, version: int, pid: int) -> Path:
    return version_dir(out_dir, version) / f"part-{pid:05d}"


def manifest_path(out_dir: str, version: int, pid: int) -> Path:
    return version_dir(out_dir, version) / "_manifests" / f"part-{pid:05d}.json"


def committed_partitions(out_dir: str, version: int) -> dict[int, dict]:
    """partition_id -> manifest for every committed partition of a version."""
    mdir = version_dir(out_dir, version) / "_manifests"
    if not mdir.is_dir():
        return {}
    out = {}
    for p in sorted(mdir.glob("part-*.json")):
        try:
            m = json.loads(p.read_text())
            out[int(m["partition_id"])] = m
        except (json.JSONDecodeError, KeyError, ValueError):
            continue  # torn manifest == uncommitted
    return out


# stored columns: no ``version`` (stamped at read time), so the bytes of a
# partition are the same under every version that links it. Each file has a
# fixed schema, typed as the graph rows are, whatever rows the partition has
NODE_COLS = ["conv_id", "node_id", "label", "node_type", "window_id"]
EDGE_COLS = ["conv_id", "edge_id", "src_node_id", "dst_node_id",
             "subj", "pred", "obj", "window_id"]
CONV_COLS = ["conv_id", "window_id", "n_turns", "backend"]
PARTITION_FILES = ("nodes.parquet", "edges.parquet", "convs.parquet")
_FILE_KINDS = (("node", NODE_COLS), ("edge", EDGE_COLS), ("conv", CONV_COLS))


def _replace_parquet(t: pa.Table, path: Path) -> None:
    """Write ``t`` to ``path`` through a tmp file and a rename: the old
    inode, which a later version may hard-link, is never truncated."""
    tmp = path.with_name(path.name + ".tmp")
    pq.write_table(t, tmp)
    tmp.replace(path)


def _first_row_per_conv(t: pa.Table) -> np.ndarray:
    """Index of the first row of each distinct ``conv_id`` of ``t``."""
    codes = t["conv_id"].combine_chunks().dictionary_encode().indices
    return np.unique(codes.to_numpy(), return_index=True)[1]


def write_partition(group: pa.Table | pd.DataFrame, out_dir: str,
                    version: int, input_bytes: int = 0,
                    started_at: float | None = None,
                    config_sig: str = "",
                    stage_s: dict | None = None) -> pd.DataFrame:
    """Commit one partition's graph rows (``extract.GRAPH_ROWS``; a
    DataFrame is converted to them first). Runs inside the partition's
    reduce task, returning the manifest as a one-row DataFrame.
    ``started_at`` (a perf_counter value) lets the caller charge the whole
    partition task (assemble+extract+write) to ``wall_time_s``; the
    default times only the commit. The manifest's ``stage_s`` holds the
    caller's ``stage_s`` walls plus this commit's ``write`` wall."""
    t_write = time.perf_counter()
    t0 = started_at if started_at is not None else t_write
    if isinstance(group, pd.DataFrame):
        group = pa.Table.from_pandas(group, schema=GRAPH_ROWS,
                                     preserve_index=False)
    pid = group["partition_id"][0].as_py()
    pdir = partition_dir(out_dir, version, pid)
    pdir.mkdir(parents=True, exist_ok=True)

    nodes, edges, convs = tables = [
        group.filter(pc.equal(group["kind"], kind)).select(cols).cast(
            pa.schema([GRAPH_ROWS.field(c) for c in cols]))
        for kind, cols in _FILE_KINDS]
    for name, t in zip(PARTITION_FILES, tables):
        _replace_parquet(t, pdir / name)

    firsts = _first_row_per_conv(group)
    conv_fp = group["conv_fp"].take(pa.array(firsts)).to_numpy()
    fingerprint = f"{np.bitwise_xor.reduce(conv_fp) if len(conv_fp) else 0:016x}"
    n_turns = convs["n_turns"].take(pa.array(_first_row_per_conv(convs)))
    manifest = {
        "partition_id": pid,
        "version": version,
        "input_fingerprint": fingerprint,
        "n_conversations": len(firsts),
        "n_turns": int(pc.sum(n_turns).as_py() or 0),
        "n_nodes": nodes.num_rows,
        "n_edges": edges.num_rows,
        "input_bytes": int(input_bytes),
        "wall_time_s": round(time.perf_counter() - t0, 4),
        "stage_s": {**(stage_s or {}),
                    "write": round(time.perf_counter() - t_write, 4)},
        # partition-layout + extraction-config signature: cross-version
        # reuse links a partition only when this matches (same
        # num_partitions / window_chars / backend — a fingerprint match
        # under a different layout or extractor would be meaningless)
        "config_sig": config_sig,
        # per-table schema signatures (state/schema_evo.py): lets readers
        # and audits detect mixed-schema version ranges from manifests
        # alone — the lake's Alembic-revision analogue
        "schema_sig": {name.split(".")[0]: schema_evo.schema_sig(t.schema)
                       for name, t in zip(PARTITION_FILES, tables)},
    }
    _commit_manifest(out_dir, version, pid, manifest)
    return pd.DataFrame([manifest])


def _commit_manifest(out_dir: str, version: int, pid: int,
                     manifest: dict) -> None:
    """Write a partition's manifest — its commit point — via a tmp file
    and a rename."""
    mpath = manifest_path(out_dir, version, pid)
    mpath.parent.mkdir(parents=True, exist_ok=True)
    tmp = mpath.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(manifest))
    tmp.replace(mpath)


MANIFEST_COLS = ["partition_id", "version", "input_fingerprint",
                 "n_conversations", "n_turns", "n_nodes", "n_edges",
                 "input_bytes", "wall_time_s"]


def empty_manifest_frame() -> pd.DataFrame:
    return pd.DataFrame({c: pd.Series(dtype="object" if c == "input_fingerprint"
                                      else "float64" if c == "wall_time_s"
                                      else "int64")
                         for c in MANIFEST_COLS})


def validate_manifest(manifest: dict, fingerprint: str) -> bool:
    """True iff a committed partition's recorded input fingerprint matches a
    freshly computed one (resume-on-changed-input detection)."""
    return manifest.get("input_fingerprint") == fingerprint


def link_partition(out_dir: str, prev_version: int, new_version: int,
                   pid: int, manifest: dict, edge_id_fn=None) -> dict:
    """Cross-version partition reuse by reference: hard-link a prior
    version's committed data files into the new version (no data is
    read: the files hold no version-dependent bytes), then commit a
    manifest carrying the input fingerprint and counts forward plus
    ``linked_from_version`` for provenance. The caller has already
    verified the new version's input fingerprint for this partition
    equals ``manifest['input_fingerprint']`` under the same layout/config.
    On a filesystem without hard links each file is byte-copied instead.
    ``edge_id_fn`` is kept for existing callers and unused: edge ids do
    not hash the version, so there is nothing to re-mint.

    Write order matches ``write_partition``: data first, manifest last
    (the commit point), so a crash mid-link leaves an uncommitted
    partition the rerun replaces."""
    t0 = time.perf_counter()
    src = partition_dir(out_dir, prev_version, pid)
    dst = partition_dir(out_dir, new_version, pid)
    dst.mkdir(parents=True, exist_ok=True)
    for name in PARTITION_FILES:
        (dst / name).unlink(missing_ok=True)    # leftover of a torn run
        try:
            os.link(src / name, dst / name)
        except OSError:
            shutil.copyfile(src / name, dst / name)
    m = dict(manifest)
    m["version"] = new_version
    m["linked_from_version"] = prev_version
    m["wall_time_s"] = round(time.perf_counter() - t0, 4)
    _commit_manifest(out_dir, new_version, pid, m)
    return m


def uncommit_partition(out_dir: str, version: int, pid: int) -> None:
    """Invalidate a committed partition: delete the manifest FIRST (the
    commit point), then the data files — the inverse write order of
    ``write_partition``, so no crash window leaves data trusted without a
    matching manifest."""
    manifest_path(out_dir, version, pid).unlink(missing_ok=True)
    shutil.rmtree(partition_dir(out_dir, version, pid), ignore_errors=True)
