"""MinHash-LSH pieces shared by entity linking (``stages/canonicalize``) and
near-duplicate detection (``ops/dedup``): the one permutation table and the
batch signature kernel over it, int64 band keys, the in-bucket
candidate-pair generator, the all-pairs exact Jaccard and the driver
union-find. The kernels take sets in CSR form (one int64 ``indptr`` plus
one flat uint64 array of each row's unique values, sorted within the row
where the Jaccard needs it) and do no per-set or per-pair Python work.

Callers keep what makes their outputs theirs: the shingling, the number of
permutations and bands, the thresholds and the pipeline around these
pieces.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence

import numpy as np
import pandas as pd

from .agg import _splitmix64

_EMPTY_SIG = np.iinfo(np.uint64).max

# The permutation table: ``(a * x + b) mod 2^64`` with an ODD multiplier,
# a bijection of Z_2^64, so the minimum over a set is a valid minwise hash,
# and the mod 2^64 is the free uint64 wraparound. ``a`` is a random odd
# number below 2^63, so ``a * x`` wraps many times even for 32-bit shingles
# and the permutations order them independently (fixed seed: signatures
# must agree across workers).
_rng = np.random.RandomState(0x5EED)
_PERM_A = (_rng.randint(1, 2**62, size=256).astype(np.uint64) << np.uint64(1)) | np.uint64(1)
_PERM_B = _rng.randint(0, 2**62, size=256).astype(np.uint64)


def _check_num_perm(num_perm: int) -> None:
    if num_perm > len(_PERM_A):
        raise ValueError(
            f"num_perm={num_perm} exceeds the {len(_PERM_A)}-entry "
            "permutation table; signatures would silently truncate and "
            "every band past the table would collide globally")


def flat_sets(sets: Sequence[set[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Sets of non-negative ints as the int64 ``indptr`` (row ``i`` is
    ``vals[indptr[i]:indptr[i + 1]]``) and one flat uint64 array of every
    row's values in set iteration order: the input of
    :func:`minhash_signatures`, which does not need sorted rows."""
    lens = np.fromiter(map(len, sets), dtype=np.int64, count=len(sets))
    vals = np.fromiter(itertools.chain.from_iterable(sets), dtype=np.uint64,
                       count=int(lens.sum()))
    return np.concatenate([[0], np.cumsum(lens)]), vals


def csr_of_sets(sets: Sequence[set[int]]) -> tuple[np.ndarray, np.ndarray]:
    """:func:`flat_sets` with each row's values sorted: the CSR form
    :func:`pair_jaccard` needs."""
    indptr, vals = flat_sets(sets)
    rows = np.repeat(np.arange(len(sets)), np.diff(indptr))
    return indptr, vals[np.lexsort((vals, rows))]


def minhash_signatures(indptr: np.ndarray, vals: np.ndarray,
                       num_perm: int) -> np.ndarray:
    """(rows, num_perm) uint64 MinHash signatures of the sets ``(indptr,
    vals)`` (:func:`flat_sets`; rows need not be sorted): entry ``[i, j]``
    is the minimum over row ``i`` of ``_PERM_A[j] * x + _PERM_B[j]`` mod
    2^64. An empty row is all uint64 max. Raises ``ValueError`` past the
    table's 256 permutations.

    Each permutation is one vectorized pass over ``vals`` plus a per-row
    segment minimum, so the working set is one uint64 per shingle (not a
    permutations x shingles matrix)."""
    _check_num_perm(num_perm)
    lens = np.diff(indptr)
    sig = np.full((len(lens), num_perm), _EMPTY_SIG, dtype=np.uint64)
    if not vals.size:
        return sig
    nonempty = lens > 0
    starts = indptr[:-1][nonempty]
    with np.errstate(over="ignore"):
        for j in range(num_perm):
            sig[nonempty, j] = np.minimum.reduceat(
                _PERM_A[j] * vals + _PERM_B[j], starts)
    return sig


def minhash_signature(sh: set[int], num_perm: int) -> np.ndarray:
    """Per-set reference for :func:`minhash_signatures` (one full
    permutations x shingles matrix); tests compare the kernel against it."""
    _check_num_perm(num_perm)
    if not sh:
        return np.full(num_perm, _EMPTY_SIG, dtype=np.uint64)
    vals = np.fromiter(sh, dtype=np.uint64, count=len(sh))
    with np.errstate(over="ignore"):
        return (_PERM_A[:num_perm, None] * vals[None, :]
                + _PERM_B[:num_perm, None]).min(axis=1)


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


def _segments(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The concatenated ranges ``arange(s, s + n)`` of ``zip(starts,
    lens)``, in one vectorized pass."""
    ends = np.cumsum(lens)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total) - np.repeat(ends - lens - starts, lens)


def bucket_pairs(df: pd.DataFrame, id_col: str,
                 max_bucket: int) -> tuple[np.ndarray, np.ndarray]:
    """Candidate pairs of a frame of ``(bucket, id_col)`` rows, each
    distinct pair once however many buckets it shares: per bucket the
    ``max_bucket`` smallest distinct ids (the degenerate-bucket guard;
    buckets with one distinct id give nothing), paired into ``a < b``.
    Returns the aligned ``(a, b)`` id arrays, sorted by ``(a, b)``.

    Runs on integer codes: ids are factorized in sort order, so code
    order is id order and the cap keeps the same ids; the distinct
    ``(bucket, id)`` rows come out of one ``np.unique`` grouped by bucket
    in id order, and each kept row pairs with the kept rows after it."""
    ids, uniq = pd.factorize(df[id_col].to_numpy(), sort=True)
    bucket, _ = pd.factorize(df["bucket"].to_numpy())
    n = max(len(uniq), 1)
    bucket, ids = np.divmod(np.unique(bucket.astype(np.int64) * n + ids), n)
    starts = np.flatnonzero(np.r_[True, bucket[1:] != bucket[:-1]])
    sizes = np.diff(np.r_[starts, len(ids)])
    keep = np.where(sizes >= 2, np.minimum(sizes, max_bucket), 0)
    kept = _segments(starts, keep)
    later = np.repeat(starts + keep, keep) - kept - 1
    left = np.repeat(kept, later)
    right = _segments(kept + 1, later)
    a, b = np.divmod(np.unique(ids[left] * n + ids[right]), n)
    return uniq[a], uniq[b]


def jaccard(a: set, b: set) -> float:
    """|a & b| / |a | b|; two empty sets are identical (1.0). The
    reference for :func:`pair_jaccard`."""
    if not a and not b:
        return 1.0
    inter = len(a & b)
    return inter / (len(a) + len(b) - inter)


def pair_jaccard(indptr: np.ndarray, vals: np.ndarray, a: np.ndarray,
                 b: np.ndarray) -> np.ndarray:
    """Exact Jaccard of the CSR rows ``a[i]`` and ``b[i]`` for every pair
    ``i`` as float64 (two empty rows: 1.0), each row sorted and free of
    duplicates (``csr_of_sets``, ``canonicalize.shingle_csr``). It divides
    the same integers as :func:`jaccard`, so the results are bit-equal.

    Values are ranked densely and keyed ``pair * ranks + rank``: the b
    rows' keys are then sorted, and one ``searchsorted`` of the a rows'
    keys finds every pair's common values at once."""
    lens = np.diff(indptr)
    distinct, rank = np.unique(vals, return_inverse=True)
    width = max(len(distinct), 1)

    def keys(rows: np.ndarray) -> np.ndarray:
        n = lens[rows]
        return (np.repeat(np.arange(len(rows), dtype=np.int64) * width, n)
                + rank[_segments(indptr[:-1][rows], n)])

    ka, kb = keys(a), keys(b)
    hit = np.zeros(len(ka), dtype=bool)
    if len(kb):
        hit = kb[np.minimum(np.searchsorted(kb, ka), len(kb) - 1)] == ka
    inter = np.bincount(np.repeat(np.arange(len(a)), lens[a])[hit],
                        minlength=len(a))
    union = lens[a] + lens[b] - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(union > 0, inter / union, 1.0)


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
