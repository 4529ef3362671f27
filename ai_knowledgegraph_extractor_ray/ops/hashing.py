"""Vectorized crc32 over Arrow binary/string columns.

crc32 is the engine's one partitioning hash (stable across processes —
required for resumable partition layouts, unlike Python ``hash()``). The
per-row ``zlib.crc32`` generator it replaces was the textbook vectorizable
kernel sitting in the hottest path: the exchange's map wave runs it over
every row of the engine's single all-to-all (VERDICT round 2, item 4).

The kernel is the standard table-driven CRC-32 (IEEE 802.3, reflected,
init/xorout 0xFFFFFFFF — bit-identical to ``zlib.crc32``) evaluated one
BYTE POSITION at a time across all rows: rows are processed in
length-sorted order so the active set at byte j is a contiguous suffix,
making total work O(sum of key lengths) with ``max_len`` numpy passes.
Each pass costs a fixed numpy overhead, and each byte costs more than in
``zlib.crc32``, so the kernel wins only for many short keys (conv ids,
composite bucket keys, shingles). Elsewhere — turn texts, small blocks —
per-row ``zlib.crc32`` over slices of the value buffer is faster;
``crc32_column`` picks the path by a fitted cost model
(``_crc32_kernel_pays``).
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa


def _make_crc_table(poly: int = 0xEDB88320) -> np.ndarray:
    t = np.empty(256, dtype=np.uint32)
    for i in range(256):
        c = np.uint32(i)
        for _ in range(8):
            c = (np.uint32(poly) ^ (c >> np.uint32(1))
                 if c & np.uint32(1) else c >> np.uint32(1))
        t[i] = c
    return t


_CRC_TABLE = _make_crc_table()                      # IEEE 802.3 (zlib)
_CRC32C_TABLE = _make_crc_table(0x82F63B78)         # Castagnoli
_VECTOR_MAX_LEN = 1024   # crc32c: beyond this, the per-row scalar is used
# crc32 path costs in ns, fitted on 1 CPU (numpy 1.26, pyarrow 16) over
# fixed-length keys of 6-40 bytes x 1k-1M rows: the kernel costs a pass per
# byte position plus a gather per byte (8-12 ns, more once the buffer
# leaves the cache); per-row zlib costs a Python call per row plus ~2 ns
# per byte
_KERNEL_PASS_NS, _KERNEL_BYTE_NS = 11_000, 10
_ZLIB_ROW_NS, _ZLIB_BYTE_NS = 250, 2


def _binary_view(col) -> pa.Array:
    """Column as a single non-null binary Array; raises descriptively on
    nulls (crc32 of a null key is a schema bug upstream, not a hashable
    value — ADVICE round 2)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if not (pa.types.is_binary(col.type) or pa.types.is_large_binary(col.type)):
        col = col.cast(pa.large_binary() if pa.types.is_large_string(col.type)
                       else pa.binary())
    if col.null_count:
        raise ValueError(
            f"crc32 key column contains {col.null_count} null value(s); "
            "fill or drop nulls before the exchange")
    return col


def _crc_column(col, table: np.ndarray, scalar, use_kernel) -> np.ndarray:
    """``scalar`` of every value of ``col`` as uint32: by the byte-position
    kernel over ``table`` when ``use_kernel(rows, max_len, total_bytes)``,
    else per row over slices of the value buffer."""
    arr = _binary_view(col)
    n = len(arr)
    if n == 0:
        return np.empty(0, dtype=np.uint32)
    bufs = arr.buffers()
    wide = pa.types.is_large_binary(arr.type)
    offsets = np.frombuffer(bufs[1], dtype=np.int64 if wide else np.int32,
                            count=arr.offset + n + 1)[arr.offset:].astype(np.int64)
    starts, lens = offsets[:-1], offsets[1:] - offsets[:-1]
    max_len = int(lens.max())
    if max_len == 0:
        return np.full(n, scalar(b""), dtype=np.uint32)

    if not use_kernel(n, max_len, int(offsets[-1] - offsets[0])):
        mv = memoryview(bufs[2]).cast("B")
        return np.fromiter(
            (scalar(mv[s:e]) for s, e in zip(starts.tolist(),
                                             offsets[1:].tolist())),
            dtype=np.uint32, count=n)

    data = np.frombuffer(bufs[2], dtype=np.uint8)
    order = np.argsort(lens, kind="stable")
    sstarts, slens = starts[order], lens[order]
    crc = np.full(n, 0xFFFFFFFF, dtype=np.uint32)
    for j in range(max_len):
        lo = int(np.searchsorted(slens, j, side="right"))
        if lo == n:
            break
        b = data[sstarts[lo:] + j].astype(np.uint32)
        c = crc[lo:]
        crc[lo:] = table[(c ^ b) & 0xFF] ^ (c >> np.uint32(8))
    out = np.empty(n, dtype=np.uint32)
    out[order] = crc ^ np.uint32(0xFFFFFFFF)
    return out


def _crc32_kernel_pays(n: int, max_len: int, total: int) -> bool:
    """True when the kernel is expected to beat per-row zlib on ``n`` keys
    of ``total`` bytes, the longest ``max_len``."""
    return (_KERNEL_PASS_NS * max_len + _KERNEL_BYTE_NS * total
            < _ZLIB_ROW_NS * n + _ZLIB_BYTE_NS * total)


def crc32_column(col) -> np.ndarray:
    """``zlib.crc32`` of every value in a binary/string column as uint32."""
    return _crc_column(col, _CRC_TABLE, zlib.crc32, _crc32_kernel_pays)


def _crc32c_scalar(b: bytes) -> int:
    c = 0xFFFFFFFF
    for byte in b:
        c = int(_CRC32C_TABLE[(c ^ byte) & 0xFF]) ^ (c >> 8)
    return c ^ 0xFFFFFFFF


def crc32c_column(col) -> np.ndarray:
    """CRC-32C (Castagnoli) of every value — a second, coprime-polynomial
    CRC. Concatenated with the IEEE crc32 it behaves like one 64-bit CRC
    (a pair collides in both only when its XOR-difference is divisible by
    BOTH generator polynomials), which is what the fast content hash
    stacks with length into a 128-bit-shaped key."""
    return _crc_column(col, _CRC32C_TABLE, _crc32c_scalar,
                       lambda n, max_len, total: max_len <= _VECTOR_MAX_LEN)


def crc32_mod(col, modulus: int) -> np.ndarray:
    """Partition ids ``crc32(value) % modulus`` as int32 — the engine's one
    partition-assignment function (bit-identical to the round-1/2 per-row
    ``zlib.crc32(x) % P``)."""
    return (crc32_column(col) % np.uint32(modulus)).astype(np.int32)


def effective_pids(crc: np.ndarray, num_partitions: int,
                   split_map: dict[int, tuple[int, int]] | None) -> np.ndarray:
    """Partition assignment with ADAPTIVE SKEW SPLITTING: base id is
    ``crc % P``; a base pid listed in ``split_map`` as ``{pid: (offset,
    n_subsplits)}`` is remapped to ``P + offset + (crc // P) %
    n_subsplits`` — the second-level hash keeps each key's rows together
    (a conversation never straddles sub-partitions) while an oversized
    partition fans out into n_subsplits parallel reduce/commit units.
    With ``split_map=None``/empty this is exactly ``crc % P``."""
    pids = (crc % np.uint32(num_partitions)).astype(np.int32)
    if split_map:
        for p, (off, s) in split_map.items():
            m = pids == p
            if m.any():
                pids[m] = (np.int32(num_partitions + off)
                           + ((crc[m] // np.uint32(num_partitions))
                              % np.uint32(s)).astype(np.int32))
    return pids


def effective_num_partitions(num_partitions: int,
                             split_map: dict[int, tuple[int, int]] | None) -> int:
    """Total partition-id space under a split map (base P plus every
    sub-partition; split base pids simply receive zero rows)."""
    if not split_map:
        return num_partitions
    return num_partitions + sum(s for _, s in split_map.values())


def sorted_isin(sorted_arr: np.ndarray,
                vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Membership of ``vals`` in a SORTED array: ``(hit_mask, idx)`` where
    ``idx`` is each value's searchsorted position (clamped in-range; only
    meaningful where ``hit_mask``). The searchsorted+clamp+equality idiom
    used by every broadcast-membership scan — one audited copy."""
    if not len(sorted_arr):
        z = np.zeros(len(vals), dtype=bool)
        return z, np.zeros(len(vals), dtype=np.int64)
    idx = np.searchsorted(sorted_arr, vals)
    idx[idx == len(sorted_arr)] = 0
    return sorted_arr[idx] == vals, idx
