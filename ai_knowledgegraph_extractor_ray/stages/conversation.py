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
"""

from __future__ import annotations

import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd


def partition_of(conv_id: str, num_partitions: int,
                 split_map: dict[int, tuple[int, int]] | None = None) -> int:
    h = zlib.crc32(conv_id.encode())
    p = h % num_partitions
    if split_map and p in split_map:
        off, s = split_map[p]
        return num_partitions + off + (h // num_partitions) % s
    return p


def add_partition_id(ds: rd.Dataset, num_partitions: int,
                     split_map: dict[int, tuple[int, int]] | None = None
                     ) -> rd.Dataset:
    """Vectorized partition id column (``ops/hashing`` crc32 kernel — bit-
    identical to per-row ``zlib.crc32``, which — unlike Python hash() — is
    stable across processes, as resumability requires). ``split_map``
    applies the same skew sub-splitting as the exchange."""
    from ..ops.hashing import crc32_column, effective_pids

    def stamp(t: pa.Table) -> pa.Table:
        pids = effective_pids(crc32_column(t["conv_id"]), num_partitions,
                              split_map)
        return t.append_column("partition_id", pa.array(pids))

    return ds.map_batches(stamp, batch_format="pyarrow")


def _text_crc(texts: pd.Series) -> np.ndarray:
    """Vectorized per-row crc32 of a text column (uint64) — the same
    ``ops/hashing`` kernel the exchange uses, replacing a per-row Python
    ``zlib.crc32(s.encode())`` map in the assemble/fingerprint hot path."""
    from ..ops.hashing import crc32_column
    return crc32_column(pa.array(texts, pa.string())).astype(np.uint64)


def _conv_fingerprints(df: pd.DataFrame) -> pd.Series:
    """Per-conversation input fingerprint (order-insensitive xor of per-turn
    hashes) for lineage manifests. df must already be sorted."""
    h = (
        df["conv_id"].astype("string").str.len().astype("uint64") * 1000003
        ^ df["turn_idx"].astype("uint64") * 8191
        ^ pd.Series(_text_crc(df["text"]), index=df.index)
    )
    return h.groupby(df["conv_id"], sort=False).agg(lambda s: np.bitwise_xor.reduce(s.values))


def partition_fingerprints(ds: rd.Dataset, *, version_cutoff: int | None = None,
                           only: set[int] | None = None) -> dict[int, str]:
    """Current per-partition input fingerprints, computed as a streaming
    map_batches pass (per-block xor partials per partition_id) + a tiny
    driver-side merge — xor is associative/commutative, so the per-block
    partials combine to exactly the xor-of-conv_fp value that
    ``lineage.write_partition`` records. No text shuffle: only
    (partition_id, partial) pairs leave each block.

    ``ds`` must already carry partition_id (``add_partition_id``). ``only``
    restricts the hash work to the named partitions (resume validation only
    cares about committed ones)."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if version_cutoff is not None:
            df = df[df["turn_idx"] <= version_cutoff]
        if only is not None and len(df):
            df = df[df["partition_id"].isin(only)]
        if len(df) == 0:
            return pd.DataFrame({"partition_id": pd.Series([], dtype="int32"),
                                 "fp": pd.Series([], dtype="uint64")})
        h = (
            df["conv_id"].astype("string").str.len().astype("uint64") * 1000003
            ^ df["turn_idx"].astype("uint64") * 8191
            ^ pd.Series(_text_crc(df["text"]), index=df.index)
        )
        g = h.groupby(df["partition_id"], sort=False).agg(
            lambda s: np.bitwise_xor.reduce(s.values))
        return pd.DataFrame({"partition_id": g.index.astype("int32"),
                             "fp": g.values.astype("uint64")})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    out: dict[int, int] = {}
    for pid, fp in zip(parts["partition_id"], parts["fp"]):
        out[int(pid)] = out.get(int(pid), 0) ^ int(fp)
    return {pid: f"{v:016x}" for pid, v in out.items()}


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
    fps = _conv_fingerprints(df)
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

