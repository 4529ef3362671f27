"""MinHash-LSH pieces shared by entity linking (``stages/canonicalize``) and
near-duplicate detection (``ops/dedup``): the batch signature kernel, int64
band keys, the in-bucket candidate-pair generator, set Jaccard and the
driver union-find.

Callers keep what makes their outputs theirs: the shingling, the
permutation table (and whether it reduces mod a prime or wraps mod 2^64),
the thresholds and the pipeline around these pieces.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence

import numpy as np
import pandas as pd

from .agg import _splitmix64

_EMPTY_SIG = np.iinfo(np.uint64).max


def minhash_signatures(sets: Sequence[set[int]], a: np.ndarray, b: np.ndarray,
                       mod: int | None = None) -> np.ndarray:
    """(len(sets), len(a)) uint64 MinHash signatures: entry ``[i, j]`` is
    the minimum over ``sets[i]`` of ``a[j] * x + b[j]``, reduced ``% mod``
    when ``mod`` is given and wrapping mod 2^64 otherwise. An empty set's
    row is all uint64 max.

    Every shingle of the batch sits in one uint64 array, and each
    permutation is one vectorized pass plus a per-set segment minimum, so
    the working set is one uint64 per shingle (not a permutations x
    shingles matrix)."""
    lens = np.fromiter(map(len, sets), dtype=np.int64, count=len(sets))
    vals = np.fromiter(itertools.chain.from_iterable(sets), dtype=np.uint64,
                       count=int(lens.sum()))
    sig = np.full((len(sets), len(a)), _EMPTY_SIG, dtype=np.uint64)
    if not vals.size:
        return sig
    nonempty = lens > 0
    starts = (np.cumsum(lens) - lens)[nonempty]
    with np.errstate(over="ignore"):
        for j in range(len(a)):
            h = a[j] * vals + b[j]
            if mod is not None:
                h %= np.uint64(mod)
            sig[nonempty, j] = np.minimum.reduceat(h, starts)
    return sig


def minhash_signature(sh: set[int], a: np.ndarray, b: np.ndarray,
                      mod: int | None = None) -> np.ndarray:
    """Per-set reference for :func:`minhash_signatures` (one full
    permutations x shingles matrix); tests compare the kernel against it."""
    if not sh:
        return np.full(len(a), _EMPTY_SIG, dtype=np.uint64)
    vals = np.fromiter(sh, dtype=np.uint64, count=len(sh))
    with np.errstate(over="ignore"):
        prod = a[:, None] * vals[None, :] + b[:, None]
    if mod is not None:
        prod %= np.uint64(mod)
    return prod.min(axis=1)


def band_keys(sigs: np.ndarray, bands: int) -> np.ndarray:
    """(n, bands) int64 LSH bucket keys: a 64-bit mix of each band's r
    signature rows XOR a band-index mix (so identical values in different
    bands never collide). Two rows share a key iff their band signatures
    are identical, up to 64-bit hash equality; the exact verify behind
    every caller catches the ~2^-64 residue."""
    n, num_perm = sigs.shape
    r = num_perm // bands
    s = sigs[:, :bands * r].reshape(n, bands, r)
    h = np.zeros((n, bands), dtype=np.uint64)
    for j in range(r):              # r is 2-4; the loop is over rows, not docs
        h = _splitmix64(h ^ s[:, :, j])
    h ^= _splitmix64(np.arange(bands, dtype=np.uint64))[None, :]
    return h.view(np.int64)


def bucket_pairs(df: pd.DataFrame, id_col: str,
                 max_bucket: int) -> tuple[np.ndarray, np.ndarray]:
    """Candidate pairs of a frame of ``(bucket, id_col)`` rows, each
    distinct pair once however many buckets it shares: per bucket the
    ``max_bucket`` smallest distinct ids (the degenerate-bucket guard;
    buckets with one distinct id give nothing), self-joined on ``bucket``
    into ``a < b`` pairs. Returns the aligned ``(a, b)`` id arrays."""
    df = (df[["bucket", id_col]].drop_duplicates()
          .sort_values(id_col, kind="mergesort"))
    by_bucket = df.groupby("bucket", sort=False)[id_col]
    df = df[(by_bucket.transform("size") >= 2)
            & (by_bucket.cumcount() < max_bucket)]
    m = df.merge(df, on="bucket")
    x, y = f"{id_col}_x", f"{id_col}_y"
    m = m.loc[m[x] < m[y], [x, y]].drop_duplicates()
    return m[x].to_numpy(), m[y].to_numpy()


def jaccard(a: set, b: set) -> float:
    """|a & b| / |a | b|; two empty sets are identical (1.0)."""
    if not a and not b:
        return 1.0
    inter = len(a & b)
    return inter / (len(a) + len(b) - inter)


def union_find_roots(a: Iterable, b: Iterable) -> dict:
    """node -> component root over the undirected pairs ``zip(a, b)``, for
    every node of a pair. The root is the component's smallest member, so
    the result does not depend on pair order."""
    parent: dict = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in zip(a, b):
        parent.setdefault(x, x)
        parent.setdefault(y, y)
        rx, ry = find(x), find(y)
        if rx != ry:
            lo, hi = (rx, ry) if rx < ry else (ry, rx)
            parent[hi] = lo
    return {x: find(x) for x in parent}
