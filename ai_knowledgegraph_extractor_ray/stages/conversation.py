"""Conversation assembly: turns -> ordered, concatenated text units.

The reference accumulates a document's text by appending update text with
"\n" and re-extracting the whole accumulated string (reference: main.py:235,
252). Mapped to transcripts: one conversation's text = "\n".join(turn texts
ordered by turn_idx); version K = the prefix of turns with turn_idx <= cutoff.

Scale design: ONE shuffle, keyed on partition_id = crc32(conv_id) % P, which
is also the engine's commit/lineage granularity. Inside each partition group
the assembly is vectorized pandas (sort + groupby-join, C path, no per-row
Python). Only *within-conversation* order matters, so no global sort is ever
performed — the ordering invariant is enforced per group (SURVEY.md §4.2).

This module also defines phase 1's two lineage keys, once each:

* the partition id: ``ops/hashing.effective_pids`` of the conv id's crc32
  (``add_partition_id`` for a Dataset, ``partition_of`` for one id);
* the input fingerprint: ``turn_hashes`` per turn, xored per key by
  ``xor_by_key`` — per conversation in ``assemble_partition`` (the
  ``conv_fp`` column ``lineage.write_partition`` folds into the manifest)
  and per partition in ``partition_fingerprints`` (what a resume compares
  with the manifest).
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


def partition_fingerprints(ds: rd.Dataset, *, version_cutoff: int | None = None,
                           only: set[int] | None = None) -> dict[int, str]:
    """Current per-partition input fingerprints, computed as a streaming
    Arrow pass (per-block xor partials per partition_id) + a tiny
    driver-side merge — xor is associative/commutative, so the per-block
    partials combine to exactly the xor-of-conv_fp value that
    ``lineage.write_partition`` records. No text shuffle: only
    (partition_id, partial) pairs leave each block.

    ``ds`` must already carry partition_id (``add_partition_id``). ``only``
    restricts the hash work to the named partitions (resume validation only
    cares about committed ones)."""
    only_arr = None if only is None else np.array(sorted(only), np.int64)

    def partial(t: pa.Table) -> pa.Table:
        keep = np.ones(t.num_rows, dtype=bool)
        if version_cutoff is not None:
            keep &= t["turn_idx"].to_numpy() <= version_cutoff
        if only_arr is not None:
            keep &= np.isin(t["partition_id"].to_numpy(), only_arr)
        if not keep.all():
            t = t.filter(pa.array(keep))
        pids, fps = xor_by_key(t["partition_id"].to_numpy(), turn_hashes(t))
        return pa.table({"partition_id": pa.array(pids, pa.int32()),
                         "fp": pa.array(fps, pa.uint64())})

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    if not len(parts):
        return {}
    pids, fps = xor_by_key(parts["partition_id"].to_numpy(),
                           parts["fp"].to_numpy(np.uint64))
    return {int(p): f"{int(v):016x}" for p, v in zip(pids, fps)}


def assemble_partition(df: pd.DataFrame, *, window_chars: int = 0,
                       version_cutoff: int | None = None,
                       version: int = 1) -> pd.DataFrame:
    """Assemble every conversation inside one partition group.

    Returns rows (conv_id, window_id, text, n_turns, partition_id, version,
    conv_fp). Vectorized except the optional windowing split (rare path,
    per-conversation Python over already-joined strings).
    """
    if version_cutoff is not None:
        df = df[df["turn_idx"] <= version_cutoff]
    if len(df) == 0:
        return pd.DataFrame({
            "conv_id": pd.Series([], dtype="string"),
            "window_id": pd.Series([], dtype="int32"),
            "text": pd.Series([], dtype="string"),
            "n_turns": pd.Series([], dtype="int32"),
            "partition_id": pd.Series([], dtype="int32"),
            "version": pd.Series([], dtype="int32"),
            "conv_fp": pd.Series([], dtype="uint64"),
        })
    df = df.sort_values(["conv_id", "turn_idx"], kind="mergesort")
    codes, convs = pd.factorize(df["conv_id"])
    keys, xors = xor_by_key(codes, turn_hashes(pa.Table.from_pandas(
        df[["conv_id", "turn_idx", "text"]], preserve_index=False)))
    fps = pd.Series(xors, index=convs[keys])
    grouped = df.groupby("conv_id", sort=False)
    joined = grouped["text"].agg("\n".join)
    n_turns = grouped.size().astype("int32")
    pid = int(df["partition_id"].iloc[0])

    if window_chars <= 0:
        out = pd.DataFrame({
            "conv_id": joined.index.astype("string"),
            "window_id": np.zeros(len(joined), dtype="int32"),
            "text": joined.values,
            "n_turns": n_turns.values,
        })
    else:
        # Fast path: a conversation whose JOINED text fits one window needs
        # no packing at all — identical output to the loop (one window 0
        # row). Only oversized conversations (rare: window_chars is the
        # 2000-char LLM prompt cap vs typically-short conversations) pay
        # the per-conversation Python loop. Measured: windowed mode was
        # ~15% behind whole-text mode with the all-Python loop.
        # STRICT bound: the packing loop's separator accounting flushes a
        # multi-turn conversation whose joined text would EQUAL
        # window_chars (its running size counts a trailing separator), so
        # only joined < window_chars is loop-equivalent to one window;
        # boundary cases take the loop
        joined_len = joined.str.len()
        small = joined_len < window_chars
        conv_ids, win_ids, texts, nts = [], [], [], []
        big_ids = set(joined.index[~small])
        turn_lists = (df[df["conv_id"].isin(big_ids)]
                      .groupby("conv_id", sort=False)["text"].agg(list)
                      if big_ids else pd.Series(dtype=object))
        for cid, turns in turn_lists.items():
            nt = len(turns)
            win, size, wid = [], 0, 0

            def flush():
                nonlocal win, size, wid
                if win:
                    conv_ids.append(cid)
                    win_ids.append(wid)
                    texts.append("\n".join(win))
                    nts.append(nt)
                    wid += 1
                    win, size = [], 0

            for t in turns:
                if size and size + 1 + len(t) > window_chars:
                    flush()
                if len(t) > window_chars:   # single over-long turn: hard split
                    flush()
                    for s in range(0, len(t), window_chars):
                        conv_ids.append(cid)
                        win_ids.append(wid)
                        texts.append(t[s:s + window_chars])
                        nts.append(nt)
                        wid += 1
                    continue
                win.append(t)
                size += len(t) + 1
            flush()
        out = pd.concat([
            pd.DataFrame({
                "conv_id": pd.Series(joined.index[small], dtype="string"),
                "window_id": np.zeros(int(small.sum()), dtype="int32"),
                "text": pd.Series(joined.values[small.to_numpy()],
                                  dtype="string"),
                "n_turns": n_turns.values[small.to_numpy()],
            }),
            pd.DataFrame({
                "conv_id": pd.Series(conv_ids, dtype="string"),
                "window_id": pd.Series(win_ids, dtype="int32"),
                "text": pd.Series(texts, dtype="string"),
                "n_turns": pd.Series(nts, dtype="int32"),
            }),
        ], ignore_index=True)

    out["partition_id"] = np.int32(pid)
    out["version"] = np.int32(version)
    out["conv_fp"] = out["conv_id"].map(fps).astype("uint64")
    return out

