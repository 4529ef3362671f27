"""Conversation assembly: turns -> ordered, concatenated text units.

The reference accumulates a document's text by appending update text with
"\n" and re-extracting the whole accumulated string (reference: main.py:235,
252). Mapped to transcripts: one conversation's text = "\n".join(turn texts
ordered by turn_idx); version K = the prefix of turns with turn_idx <= cutoff.

Scale design: ONE shuffle, keyed on partition_id = crc32(conv_id) % P, which
is also the engine's commit/lineage granularity. Inside each partition group
the assembly is one Arrow kernel (``assemble_table``): a stable sort on
(conv_id, turn_idx), conversation runs from the sorted ids, and the text
joined by ``binary_join`` over a list array on the run offsets, with no
per-row Python. Only *within-conversation* order matters, so no global sort
is ever performed — the ordering invariant is enforced per group (SURVEY.md
§4.2).

This module also defines phase 1's two lineage keys, once each:

* the partition id: ``ops/hashing.effective_pids`` of the conv id's crc32
  (``add_partition_id`` for a Dataset, ``partition_of`` for one id);
* the input fingerprint: ``turn_hashes`` per turn, xored per key by
  ``xor_by_key`` — per conversation in ``assemble_table`` (the
  ``conv_fp`` column ``lineage.write_partition`` folds into the manifest)
  and per partition in ``fingerprint_partials``, the kernel the exchange
  maps of a resumed ``run_kg_job`` run on their rows; the driver folds
  the partials (``fold_fingerprints``) and compares them with the
  manifests between the map wave and the reduce wave, so the job reads
  its input once. ``partition_fingerprints`` runs the same kernel over a
  Dataset.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from ..ops.hashing import crc32_column, effective_pids


def partition_of(conv_id: str, num_partitions: int,
                 split_map: dict[int, tuple[int, int]] | None = None) -> int:
    """The partition of one conversation: ``effective_pids`` of a one-row
    column, so point lookups and the exchange cannot disagree."""
    return int(effective_pids(crc32_column(pa.array([conv_id], pa.string())),
                              num_partitions, split_map)[0])


def add_partition_id(ds: rd.Dataset, num_partitions: int,
                     split_map: dict[int, tuple[int, int]] | None = None
                     ) -> rd.Dataset:
    """Vectorized partition id column (``ops/hashing`` crc32 kernel — bit-
    identical to per-row ``zlib.crc32``, which — unlike Python hash() — is
    stable across processes, as resumability requires). ``split_map``
    applies the same skew sub-splitting as the exchange."""

    def stamp(t: pa.Table) -> pa.Table:
        pids = effective_pids(crc32_column(t["conv_id"]), num_partitions,
                              split_map)
        return t.append_column("partition_id", pa.array(pids))

    return ds.map_batches(stamp, batch_format="pyarrow")


def turn_hashes(t: pa.Table) -> np.ndarray:
    """The input fingerprint of each turn of ``t`` (uint64):
    ``len(conv_id)·1000003 ^ turn_idx·8191 ^ crc32(text)``, where the length
    counts code points. The lineage fingerprint of a conversation or a
    partition is the xor of its turns' hashes (``xor_by_key``), so it does
    not depend on row order."""
    n = pc.utf8_length(t["conv_id"]).to_numpy().astype(np.uint64)
    turn = t["turn_idx"].to_numpy().astype(np.uint64)
    return (n * np.uint64(1000003) ^ turn * np.uint64(8191)
            ^ crc32_column(t["text"]).astype(np.uint64))


def xor_by_key(keys: np.ndarray, vals: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """``(distinct keys, xor of vals per key)``, keys in sorted order."""
    if not len(keys):
        return keys, vals
    order = np.argsort(keys, kind="stable")
    k = keys[order]
    starts = np.flatnonzero(np.r_[True, k[1:] != k[:-1]])
    return k[starts], np.bitwise_xor.reduceat(vals[order], starts)


def fingerprint_partials(t: pa.Table, pids: np.ndarray, *,
                         version_cutoff: int | None = None,
                         only: set[int] | None = None
                         ) -> tuple[np.ndarray, np.ndarray]:
    """The fingerprint kernel: ``(distinct pids, xor of turn_hashes per
    pid)`` over the rows of ``t``, whose partition ids are ``pids``. Keeps
    only turns with ``turn_idx <= version_cutoff`` and, with ``only``, the
    named partitions. xor is associative and commutative, so the partials
    of any split of the input fold (``fold_fingerprints``) to exactly the
    xor-of-``conv_fp`` value ``lineage.write_partition`` records."""
    keep = (np.ones(len(pids), dtype=bool) if only is None
            else np.isin(pids, list(only)))
    if version_cutoff is not None:
        keep &= t["turn_idx"].to_numpy() <= version_cutoff
    if not keep.all():
        t, pids = t.filter(pa.array(keep)), pids[keep]
    return xor_by_key(pids, turn_hashes(t))


def fold_fingerprints(partials) -> dict[int, str]:
    """``fingerprint_partials`` outputs -> {pid: the partition's
    fingerprint as ``lineage.validate_manifest`` compares it}."""
    partials = list(partials)
    if not partials:
        return {}
    pids, fps = xor_by_key(np.concatenate([p for p, _ in partials]),
                           np.concatenate([f for _, f in partials]))
    return {int(p): f"{int(v):016x}" for p, v in zip(pids, fps)}


def partition_fingerprints(ds: rd.Dataset, *, version_cutoff: int | None = None,
                           only: set[int] | None = None) -> dict[int, str]:
    """Current per-partition input fingerprints of a Dataset that carries
    partition_id (``add_partition_id``): ``fingerprint_partials`` per block
    in a streaming pass, folded on the driver. ``run_kg_job`` does not call
    it: its exchange maps run the same kernel."""

    def partial(t: pa.Table) -> pa.Table:
        pids, fps = fingerprint_partials(
            t, t["partition_id"].to_numpy(), version_cutoff=version_cutoff,
            only=only)
        return pa.table({"partition_id": pa.array(pids, pa.int32()),
                         "fp": pa.array(fps, pa.uint64())})

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    return fold_fingerprints([(parts["partition_id"].to_numpy(np.int64),
                               parts["fp"].to_numpy(np.uint64))]
                             if len(parts) else [])


def _assembled(conv_ids: pa.Array, window_ids: np.ndarray, texts: pa.Array,
               n_turns: np.ndarray, partition_id: int, version: int,
               fps: np.ndarray) -> pa.Table:
    n = len(window_ids)
    return pa.table({
        "conv_id": conv_ids,
        "window_id": pa.array(window_ids, pa.int32()),
        "text": texts,
        "n_turns": pa.array(n_turns, pa.int32()),
        "partition_id": pa.array(np.full(n, partition_id, np.int32)),
        "version": pa.array(np.full(n, version, np.int32)),
        "conv_fp": pa.array(fps, pa.uint64()),
    })


def _pack_windows(turns: list[str], window_chars: int) -> list[str]:
    """One oversized conversation's turns -> its windows: turns packed
    greedily up to ``window_chars`` (joined with "\n"); a single turn
    longer than that is hard-split."""
    wins: list[str] = []
    win: list[str] = []
    size = 0
    for t in turns:
        # the running size counts a separator after every turn, so a
        # multi-turn window whose join would EQUAL window_chars flushes
        if size and size + 1 + len(t) > window_chars:
            wins.append("\n".join(win))
            win, size = [], 0
        if len(t) > window_chars:   # single over-long turn: hard split
            if win:
                wins.append("\n".join(win))
                win, size = [], 0
            wins += [t[s:s + window_chars]
                     for s in range(0, len(t), window_chars)]
            continue
        win.append(t)
        size += len(t) + 1
    if win:
        wins.append("\n".join(win))
    return wins


def assemble_table(t: pa.Table, *, window_chars: int = 0,
                   version_cutoff: int | None = None,
                   version: int = 1) -> pa.Table:
    """Assemble every conversation of one partition group (``t`` holds its
    turns: conv_id, turn_idx, text, partition_id).

    Returns rows (conv_id, window_id, text, n_turns, partition_id, version,
    conv_fp), conversations in conv_id order. A stable sort on (conv_id,
    turn_idx) makes each conversation one run of turns; ``n_turns`` is the
    run length, ``conv_fp`` the xor of the run's ``turn_hashes`` and the
    text the run joined with "\n". With ``window_chars > 0`` a
    conversation whose joined text is shorter than ``window_chars`` is one
    window; the others, after them, are split by ``_pack_windows`` (the
    only per-conversation Python, over oversized conversations alone).
    """
    if version_cutoff is not None:
        t = t.filter(pc.less_equal(t["turn_idx"], version_cutoff))
    if t.num_rows == 0:
        none = np.empty(0, np.int64)
        return _assembled(t["conv_id"].combine_chunks(), none,
                          t["text"].combine_chunks(), none, 0, version, none)
    t = t.select(["conv_id", "turn_idx", "text", "partition_id"]).sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending")])
    conv = t["conv_id"].combine_chunks()
    text = t["text"].combine_chunks()
    starts = np.flatnonzero(np.r_[True, ~pc.equal(
        conv[1:], conv[:-1]).to_numpy(zero_copy_only=False)])
    bounds = np.r_[starts, len(conv)]
    n_turns = np.diff(bounds)
    fps = np.bitwise_xor.reduceat(turn_hashes(t), starts)
    turns = pa.ListArray.from_arrays(pa.array(bounds, pa.int32()), text)
    joined = pc.binary_join(turns, pa.scalar("\n", text.type))
    ids = conv.take(pa.array(starts))
    pid = t["partition_id"][0].as_py()
    if window_chars <= 0:
        return _assembled(ids, np.zeros(len(starts), np.int32), joined,
                          n_turns, pid, version, fps)

    small = pc.less(pc.utf8_length(joined), window_chars).to_numpy(
        zero_copy_only=False)
    big = np.flatnonzero(~small)
    wins = [_pack_windows(ts, window_chars)
            for ts in turns.take(pa.array(big)).to_pylist()]
    rows = np.r_[np.flatnonzero(small),
                 np.repeat(big, [len(ws) for ws in wins]).astype(np.int64)]
    window_ids = np.concatenate([np.zeros(int(small.sum()), np.int64)]
                                + [np.arange(len(ws)) for ws in wins])
    texts = pa.concat_arrays([
        joined.filter(pa.array(small)),
        pa.array([w for ws in wins for w in ws], text.type)])
    return _assembled(ids.take(pa.array(rows)), window_ids, texts,
                      n_turns[rows], pid, version, fps[rows])


def assemble_partition(df: pd.DataFrame, *, window_chars: int = 0,
                       version_cutoff: int | None = None,
                       version: int = 1) -> pd.DataFrame:
    """``assemble_table`` with pandas in and out."""
    return assemble_table(pa.Table.from_pandas(df, preserve_index=False),
                          window_chars=window_chars,
                          version_cutoff=version_cutoff,
                          version=version).to_pandas()
