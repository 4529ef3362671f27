"""Entity linking + canonicalization: mentions -> alias table -> canonical graph.

The reference links entities only by exact case-insensitive label match inside
one document (reference: services.py:489-490). At corpus scale that becomes a
distributed canonicalization problem (SURVEY.md §2.4 J2): cluster the surface
forms of *all* conversations into canonical entities, then rewrite every edge
onto canonical ids and deduplicate.

Scale design (SURVEY.md §7.2, shuffles #2/#3/#4). Phase 2 is a chain of
raw task waves over object refs (``ops/exchange.exchange_refs`` and plain
tasks), each wave consuming the refs the previous one returned. The first
wave's maps and the edge wave's rewrite tasks take
either a Dataset's blocks or parquet files, which they read themselves:
the job (``pipelines/kg.run_canonicalize_job``) hands them phase 1's
committed files and runs no Ray Data execution, while the public Dataset
functions hand them a Dataset and wrap the waves' refs with
``from_arrow_refs``:

* **Mention counting is two-phase (the surface wave).** Each map task
  reads its group of node blocks or ``nodes.parquet`` files (``label``
  only) and collapses them to distinct ``(norm, label) -> count`` partials
  (the combiner), so the exchange on ``norm`` moves at most |distinct
  variants| rows per map, never one row per mention — this is what defuses
  hot-key skew (a surface form appearing in 30% of conversations
  contributes one partial row per map, not millions of mention rows);
  ``alias_salt_buckets`` sets the merge fan-out. The partial is an Arrow
  ``group_by`` count per label, normalized once per distinct label; the
  merge is an Arrow ``group_by`` sum and sort that picks each norm's most
  frequent variant. Each bucket's surface block stays in the object store
  as a ref.
* **LSH blocking over *distinct norms*, not mentions (the band wave).** The
  MinHash-LSH pieces are the ones near-dedup uses (``ops/lsh.py``), its
  permutation table included; this module keeps its char-3-gram shingles,
  its 32 permutations in 8 bands and its thresholds. Every step runs on
  whole columns, with no Python loop per norm or per pair: ``shingle_csr``
  shingles a column of norms into CSR form (offsets plus sorted crc32s),
  ``lsh.minhash_signatures`` signs the CSR rows and ``lsh.band_keys`` bands
  them into int64 keys, all in the band wave's maps, which route on the
  keys. Each coarse bucket is verified in one pass over integer codes of its
  norms (factorized in string order): ``lsh.bucket_pairs`` drops singleton
  band buckets and yields each distinct pair of the coarse bucket once
  however many of its bands collide, and ``lsh.pair_jaccard`` scores all of
  them with exact Jaccard at once; the same task then appends the embed
  scorer's cosine to the pairs that pass. Band buckets are size-capped: a
  degenerate bucket degrades to "no link" for the norms past the cap
  instead of an O(n^2) blowup.
* **Cluster merge is the driver-side ``lsh.union_find_roots`` over
  verified PAIRS** (tiny: bounded by sum of bucket-pair counts), never
  over mentions or the full vocabulary; unlike near-dedup there is no
  ``ops/cc`` path above a pair cap yet: the pairs come back to the
  driver for the union-find. Its root map is ``ray.put`` once, as an
  Arrow table of (norm, root), for the alias wave.
* **The alias wave** runs one task per surface block: a ``pc.is_in``
  against the root table splits the block; the UNCLUSTERED rows (root =
  the norm itself) become alias rows and their 1:1 canonical nodes
  in-task, written as Arrow tables, and only the block's pair-bounded
  CLUSTERED rows and its top-``broadcast_vocab_cap`` slice come back. The
  driver reduces the clustered rows per root into one Arrow table, which
  feeds the aliases, the canonical nodes and the rewrite broadcast. The
  broadcast, one Arrow table ``ray.put`` once, is FREQUENCY-THRESHOLDED —
  clustered norms plus the ``broadcast_vocab_cap`` hottest unclustered
  ones, which below the cap is the whole table — and the long tail falls
  back to identity hashing (which yields the identical canonical id for
  unclustered norms). A shuffle join on surface form would move the
  (large) edge table for the benefit of the (small) alias side.
* **Canonical edge dedup (the edge wave)** is the same partial-count trick
  keyed on the canonical (src, pred, dst) triple; ``weight`` = number of
  supporting extractions, matching the north star's "deduplicated edge
  IDs". Each rewrite task reads its group of edge blocks or
  ``edges.parquet`` files (``subj, pred, obj``) and rewrites them as a
  vectorized hash join against the broadcast: the labels are
  dictionary-encoded, normalized once per distinct label and looked up
  with ``pc.index_in``, and the rewritten rows are counted with an Arrow
  ``group_by``; the merge per bucket is an Arrow ``group_by`` too.
* **The typo tier (the typo wave, only with ``LinkParams.typo_tier``)**
  is ``fuzzy_label_pairs`` over the surface refs: map tasks fan each
  distinct norm out to its deletion variants, one exchange on the variant
  co-buckets norms that share one, and each bucket keeps the pairs within
  one edit. Its pairs join the verified pairs in the union-find.
"""

from __future__ import annotations

import functools
import hashlib
import re
import zlib
from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data as rd
from ray.data.dataset import MaterializedDataset

from ..config import KGConfig
from ..ops import lsh
from ..ops.exchange import (
    auto_partitions,
    block_groups,
    exchange_refs,
    fetch_tables,
    source_items,
)
from ..ops.hashing import crc32_column

_WS = re.compile(r"\s+")


def normalize_surface(label: str) -> str:
    """Normalization key: casefold + whitespace collapse (the scaled analogue
    of the reference's ``k.lower() == x.lower()`` lookup, services.py:489)."""
    return _WS.sub(" ", label.strip()).casefold()


def canonical_id_of(cluster_key: str) -> str:
    return "e_" + hashlib.sha256(cluster_key.encode()).hexdigest()[:16]


# --- phase 1: mention partials ----------------------------------------------

def _normalize_distinct(labels: pa.Array) -> pa.Array:
    """``normalize_surface`` of every value of a null-free string column
    whose values are distinct (one Python call per value)."""
    return pa.array(map(normalize_surface, labels.to_pylist()), pa.string())


def _mention_partials(*blocks: pa.Table) -> pa.Table:
    """The surface wave's map body over a group of node blocks or files:
    (norm, label) -> count partials (the combiner: a hot surface form
    leaves the group as ONE row — this per-map partial IS the hot-key
    defense; no extra salt column is needed because a key contributes at
    most one row per map per variant). The norm is a function of the
    label, so the group is counted per label and normalized per distinct
    label."""
    labels = pa.chunked_array([c for b in blocks
                               for c in b["label"].cast(pa.string()).chunks],
                              pa.string())
    counts = (pa.table({"label": labels}).filter(pc.is_valid(labels))
              .group_by("label").aggregate([([], "count_all")]))
    return pa.table({"norm": _normalize_distinct(counts["label"]),
                     "label": counts["label"],
                     "cnt": counts["count_all"].cast(pa.int64())})


def _first_rows(keys: pa.ChunkedArray | pa.Array
                ) -> tuple[np.ndarray, np.ndarray, pa.Array]:
    """Integer codes of a null-free column, numbered in order of first
    appearance; the row where each code first appears (ascending); and the
    distinct values in code order."""
    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    enc = keys.dictionary_encode()
    codes = enc.indices.to_numpy()
    return codes, np.unique(codes, return_index=True)[1], enc.dictionary


def _merge_surface(_pid: int, tbl: pa.Table) -> pa.Table:
    """The surface wave's reduce: one bucket of partials -> its surface
    rows (norm, canonical_label, n_mentions). The partials are summed per
    (norm, label) and sorted on (count desc, label asc); a norm's first
    row in that order picks its canonical label (the most frequent
    variant, ties -> lexicographically smallest) and its total is the sum
    over its variants. Norms come in the order of their picked rows."""
    merged = (tbl.group_by(["norm", "label"]).aggregate([("cnt", "sum")])
              .sort_by([("cnt_sum", "descending"), ("label", "ascending")]))
    codes, first, _ = _first_rows(merged["norm"])
    totals = np.bincount(codes, weights=merged["cnt_sum"].to_numpy(),
                         minlength=len(first))
    return pa.table({"norm": merged["norm"].take(first),
                     "canonical_label": merged["label"].take(first),
                     "n_mentions": pa.array(totals.astype(np.int64))})


def surface_wave(nodes: rd.Dataset | list[str], cfg: KGConfig
                 ) -> tuple[list, int]:
    """node mentions -> distinct surface blocks (norm, canonical_label,
    n_mentions) as object refs. ``nodes`` is a Dataset, whose blocks the
    maps fetch, or a list of ``nodes.parquet`` paths, which the maps read
    themselves (``label`` only). ONE exchange, moving per-map (norm,
    label) count partials only — a hot surface form contributes at most
    one row per map per variant, so the merge is skew-proof — bucketed on
    crc32(norm) into ``alias_salt_buckets`` buckets, so the merge and
    variant pick run as a vectorized Arrow reduce per bucket, never one
    Python task per distinct surface form. Also returns the partials'
    total bytes (the band wave sizes itself from them)."""
    refs, sizes, _ = exchange_refs(nodes, "norm", cfg.alias_salt_buckets,
                                   _merge_surface, combine=_mention_partials,
                                   columns=["label"])
    return refs, int(sizes[1].sum())


def as_dataset(refs: list) -> rd.Dataset:
    """A wave's output refs as a Dataset, without a pass over them."""
    return rd.from_arrow_refs(refs) if refs else rd.from_items([])


def build_surface_table(nodes: rd.Dataset, cfg: KGConfig) -> rd.Dataset:
    """The surface wave (``surface_wave``) as a Dataset."""
    return as_dataset(surface_wave(nodes, cfg)[0])


# --- phase 2: MinHash/LSH blocking over distinct norms ----------------------

def shingles(norm: str, k: int = 3) -> set[int]:
    """crc32s of the k-grams of ``" norm "`` (the whole padded string when
    it is shorter than k): the per-norm reference for ``shingle_csr``."""
    s = f" {norm} "
    return {zlib.crc32(s[i:i + k].encode()) for i in range(max(1, len(s) - k + 1))}


def shingle_csr(norms: pa.Array | pa.ChunkedArray, k: int = 3
                ) -> tuple[np.ndarray, np.ndarray]:
    """``shingles`` of every norm of a null-free string column at once, in
    the CSR form of ``lsh.csr_of_sets`` (row i = norm i, values sorted).

    Gram j of every norm with more than j grams is one
    ``pc.utf8_slice_codeunits`` call over the padded column — it counts
    code points, as Python slicing does — so the loop runs once per gram
    position, never per norm; the grams are hashed by one
    ``hashing.crc32_column`` call and deduplicated per norm by one
    ``np.unique`` of ``row << 32 | crc``."""
    if not len(norms):
        return np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.uint64)
    padded = pc.binary_join_element_wise(" ", norms, " ", "")
    if isinstance(padded, pa.ChunkedArray):
        padded = padded.combine_chunks()
    n_grams = np.maximum(pc.utf8_length(padded).to_numpy() - (k - 1), 1)
    order = np.argsort(-n_grams, kind="stable")          # most grams first
    padded, fewer = padded.take(order), -n_grams[order]  # fewer: ascending
    grams, rows = [], []
    for j in range(int(n_grams.max())):
        live = int(np.searchsorted(fewer, -j))        # norms with > j grams
        grams.append(pc.utf8_slice_codeunits(padded.slice(0, live), j, j + k))
        rows.append(order[:live])
    key = np.unique((np.concatenate(rows).astype(np.uint64) << np.uint64(32))
                    | crc32_column(pa.chunked_array(grams)))
    indptr = np.searchsorted((key >> np.uint64(32)).astype(np.int64),
                             np.arange(len(order) + 1))
    return indptr, key & np.uint64(0xFFFFFFFF)


class _PairScorer:
    """Shared body of the embed scorers (stage A4), called on a band
    bucket's verified pairs: embed both sides, append the pair cosine.
    Subclasses provide ``_embed_batch`` (rows -> L2-normalized (n, dim)
    float32, each row a function of its text alone, so a pair's cosine
    does not depend on the pairs scored with it)."""

    def _embed_batch(self, texts: list[str]) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def __call__(self, batch: pa.Table) -> pa.Table:
        va = self._embed_batch(batch["norm_a"].to_pylist())
        vb = self._embed_batch(batch["norm_b"].to_pylist())
        cos = (va * vb).sum(axis=1)
        return batch.append_column("cos_sim", pa.array(cos, pa.float32()))


class HashEmbedScorer(_PairScorer):
    """Deterministic hash-feature embeddings (char-3-gram feature hashing
    into R^dim, L2 normalized) — the CI/default scorer, with no model
    runtime behind it (SURVEY.md §2.3). It runs where a model scorer
    would, in the band wave's verify tasks, with the same cosine math."""

    def __init__(self, dim: int = 64):
        self.dim = dim

    def _embed_batch(self, texts: list[str]) -> np.ndarray:
        # sums of +-1.0 are exact in float32, so the order is immaterial
        indptr, sh = shingle_csr(pa.array(texts, pa.string()))
        out = np.zeros((len(texts), self.dim), dtype=np.float32)
        np.add.at(out, (np.repeat(np.arange(len(texts)), np.diff(indptr)),
                        (sh % np.uint64(self.dim)).astype(np.intp)),
                  np.where((sh >> np.uint64(16)) & np.uint64(1), 1.0,
                           -1.0).astype(np.float32))
        norms = np.linalg.norm(out, axis=1, keepdims=True)
        np.divide(out, norms, out=out, where=norms > 0)
        return out


class ModelEmbedScorer(_PairScorer):
    """Learned-model scorer: loads a sentence-transformers-compatible model
    in ``__init__`` — once per band-wave verify task that has pairs to
    score — and batch-encodes in ``__call__``. Mirrors the LLM-client
    pattern — real implementation behind an import gate, injectable
    ``loader`` for CI (any object with ``encode(list[str]) -> array``).
    Selected by ``KGConfig(embed_model=...)`` or
    ``extra['embed_model_loader']``."""

    def __init__(self, model_name: str = "", loader=None):
        if loader is not None:
            self.model = loader()
        else:
            try:
                from sentence_transformers import SentenceTransformer
            except ImportError as e:
                raise ImportError(
                    "sentence-transformers is not installed; leave "
                    "embed_model unset (hash scorer) or inject "
                    "extra['embed_model_loader']") from e
            self.model = SentenceTransformer(model_name)

    def _embed_batch(self, texts: list[str]) -> np.ndarray:
        v = np.asarray(self.model.encode(list(texts)), dtype=np.float32)
        norms = np.linalg.norm(v, axis=1, keepdims=True)
        out = np.zeros_like(v)     # where= without out= leaves zero-norm
        np.divide(v, norms, out=out, where=norms > 0)  # rows uninitialized
        return out


def make_embed_scorer(cfg: KGConfig) -> tuple[type, dict]:
    """(scorer class, constructor kwargs) for the configured A4 scorer.
    The pair (with a picklable loader, never a loaded model) travels to the
    band wave's verify tasks, and each one that has pairs builds the
    scorer itself."""
    loader = cfg.extra.get("embed_model_loader")
    if cfg.embed_model or loader is not None:
        return ModelEmbedScorer, {"model_name": cfg.embed_model,
                                  "loader": loader}
    return HashEmbedScorer, {}


@dataclass(frozen=True)
class LinkParams:
    # at most the 256 permutations of ``lsh``'s table: the band wave
    # raises ValueError past that, as near-dedup does
    num_perm: int = 32
    bands: int = 8            # 8 bands x 4 rows: ~Jaccard 0.5+ candidates
    jaccard_threshold: float = 0.66
    cosine_threshold: float = 0.60
    max_bucket: int = 64      # degenerate-bucket guard
    # typo tier: union edit-distance-1 norm pairs (fuzzy_label_pairs over
    # the surface refs: one exchange on deletion variants, no Ray Data)
    # into the verified pairs, past the embed scorer — catches short
    # typo'd aliases whose shingle Jaccard falls below the LSH threshold.
    # Off by default: exact reference-parity runs must not cluster extra.
    typo_tier: bool = False


def _pair_jaccard(norms: np.ndarray, a: np.ndarray, b: np.ndarray
                  ) -> np.ndarray:
    """Exact shingle Jaccard of the norm pairs ``(norms[a[i]],
    norms[b[i]])``; only the norms that are in a pair get shingled."""
    used, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    return lsh.pair_jaccard(*shingle_csr(pa.array(norms[used], pa.string())),
                            inv[:len(a)], inv[len(a):])


def _verified_pairs(bucket: np.ndarray, norm: np.ndarray, p: LinkParams
                    ) -> tuple[int, pa.Table]:
    """Every candidate pair of a set of ``(bucket, norm)`` rows, scored
    once: norms are factorized in sort order (code order is string order,
    so ``p.max_bucket`` caps the same norms), ``lsh.bucket_pairs`` pairs
    the codes and ``_pair_jaccard`` scores them. Returns the number of
    pairs scored and the pairs at ``p.jaccard_threshold``."""
    codes, norms = pd.factorize(norm, sort=True)
    a, b = lsh.bucket_pairs(pd.DataFrame({"bucket": bucket, "norm": codes}),
                            "norm", p.max_bucket)
    jac = _pair_jaccard(norms, a, b)
    keep = jac >= p.jaccard_threshold
    return len(a), pa.table({"norm_a": pa.array(norms[a[keep]], pa.string()),
                             "norm_b": pa.array(norms[b[keep]], pa.string()),
                             "jaccard": pa.array(jac[keep], pa.float64())})


def _band_rows(p: LinkParams, *blocks: pa.Table) -> pa.Table:
    """The band wave's map body over a group of surface blocks: MinHash
    signatures -> one ``(bucket, norm)`` row per band of each norm, the
    bucket an int64 band key."""
    norms = pa.chunked_array([t["norm"] for t in blocks], pa.string())
    sigs = lsh.minhash_signatures(*shingle_csr(norms), p.num_perm)
    rep = pa.array(np.repeat(np.arange(len(norms)), p.bands))
    return pa.table({"bucket": pa.array(lsh.band_keys(sigs, p.bands).ravel()),
                     "norm": norms.take(rep)})


def _verify_band_bucket(p: LinkParams, scorer: tuple[type, dict] | None,
                        _pid: int, tbl: pa.Table) -> tuple[int, pa.Table]:
    """The band wave's reduce: one coarse bucket -> (candidate pairs
    scored, the Jaccard-verified pairs). Given ``scorer`` (the
    ``make_embed_scorer`` pair), a bucket with verified pairs builds it
    and appends their ``cos_sim``; a bucket without builds nothing."""
    n, pairs = _verified_pairs(tbl["bucket"].to_numpy(),
                               tbl["norm"].to_numpy(zero_copy_only=False), p)
    if scorer is not None and pairs.num_rows:
        cls, kwargs = scorer
        pairs = cls(**kwargs)(pairs)
    return n, pairs


def _candidate_pairs(surfaces: list, partial_bytes: int, p: LinkParams,
                     scorer: tuple[type, dict] | None
                     ) -> tuple[pd.DataFrame, int]:
    """LSH blocking over the surface refs: the band wave's maps band the
    norms in-task and route on the band key, and one ``verify`` task per
    coarse bucket drops singleton band buckets, Jaccard-scores each
    distinct pair of the bucket once and embed-scores the verified ones
    with ``scorer`` (``_verify_band_bucket``). Returns the (small)
    verified pair list and the number of candidate pairs scored.

    Bucket count: ``auto_partitions`` over ``bands`` x the surface wave's
    partial bytes, an upper bound of the band rows' bytes (a surface
    row per partial row at most, and a band row is narrower than the
    partial it came from): one bucket below 1 MiB of that bound per CPU,
    2x the cluster's CPUs above it. A pair whose band buckets fall in several coarse
    buckets is scored in each, so the returned count depends on the
    bucket count."""
    refs, _, _ = exchange_refs(
        surfaces, ["bucket"], auto_partitions(p.bands * partial_bytes),
        functools.partial(_verify_band_bucket, p, scorer),
        combine=functools.partial(_band_rows, p))
    results = ray.get(refs)   # verified pairs only: tiny vs mention volume
    if not results:           # no surface rows
        return pd.DataFrame(columns=["norm_a", "norm_b", "jaccard"]), 0
    # a bucket without pairs has no ``cos_sim`` column (and no rows)
    df = pa.concat_tables([t for _, t in results],
                          promote_options="default").to_pandas()
    # a pair colliding in band buckets of two coarse buckets arrives twice
    return (df.drop_duplicates(["norm_a", "norm_b"]),
            sum(n for n, _ in results))


ALIAS_SCHEMA = pa.schema([("norm", pa.string()),
                          ("canonical_id", pa.string()),
                          ("canonical_label", pa.string()),
                          ("cluster_mentions", pa.int64()),
                          ("is_clustered", pa.bool_())])
ALIAS_COLS = ALIAS_SCHEMA.names


def _alias_rows(norm, canonical_id, canonical_label, mentions,
                clustered: bool) -> pa.Table:
    return pa.table([norm, canonical_id, canonical_label,
                     mentions.cast(pa.int64()),
                     pa.array(np.full(len(norm), clustered))],
                    schema=ALIAS_SCHEMA)


def _canonical_ids(keys: pa.Array | pa.ChunkedArray) -> pa.Array:
    return pa.array(map(canonical_id_of, keys.to_pylist()), pa.string())


def link_surfaces(nodes: rd.Dataset | list[str], cfg: KGConfig,
                  link: LinkParams | None = None,
                  use_embed_scorer: bool = True, lap=None
                  ) -> tuple[list, ray.ObjectRef, dict]:
    """The linking waves behind every alias consumer: the surface wave
    (over a node Dataset or node files, ``surface_wave``) -> the band wave
    (LSH candidate pairs, Jaccard-verified and, optionally, embed-scored
    in the same tasks) -> the cosine threshold and the typo wave
    (``fuzzy_label_pairs`` over the surface refs) -> union-find clusters.

    Returns the surface block refs, a ref of the root table (``norm``,
    ``root``: one row per clustered norm) for the alias wave
    (``alias_block``), and the counts ``n_candidate_pairs`` (pairs scored)
    and ``n_verified_pairs`` (distinct pairs at the Jaccard threshold,
    before the scorer and the typo tier). The surface vocabulary is never
    collected on the driver: only the verified pairs come back, for the
    union-find. ``lap(name)``, when given, is called after the
    ``surface``, ``band`` and ``link`` steps."""
    lap = lap or (lambda _name: None)
    link = link or LinkParams()
    surfaces, partial_bytes = surface_wave(nodes, cfg)
    lap("surface")
    scorer = make_embed_scorer(cfg) if use_embed_scorer else None
    pairs, n_candidates = _candidate_pairs(surfaces, partial_bytes, link,
                                           scorer)
    lap("band")
    counts = {"n_candidate_pairs": int(n_candidates),
              "n_verified_pairs": len(pairs)}
    if scorer is not None and len(pairs):
        pairs = pairs[pairs["cos_sim"] >= link.cosine_threshold]

    a, b = pairs["norm_a"].tolist(), pairs["norm_b"].tolist()
    if link.typo_tier:
        # edit-distance-1 pairs BYPASS the embed scorer: for the short
        # norms this tier exists for ('ibm'/'ibn') shingle overlap is near
        # zero, so a shingle-hash cosine would veto exactly the pairs the
        # character-level verify already proved close
        typo = fuzzy_label_pairs(surfaces, col="norm")
        a += typo["norm_a"].to_pylist()
        b += typo["norm_b"].to_pylist()

    root_of = lsh.union_find_roots(a, b)
    roots = ray.put(pa.table({"norm": pa.array(list(root_of), pa.string()),
                              "root": pa.array(list(root_of.values()),
                                               pa.string())}))
    lap("link")
    return surfaces, roots, counts


def hot_slice(aliases: pa.Table, cap: int) -> pa.Table:
    """The rewrite broadcast's share of alias rows (one row per norm):
    every clustered row, then the ``cap`` unclustered rows with the most
    ``cluster_mentions``, most first, ties in row order (a stable sort).
    The top-``cap`` is over the UNCLUSTERED rows only: clustered rows are
    kept anyway, and letting them crowd a block's top-``cap`` could evict
    globally hot unclustered norms from the broadcast. Over the
    concatenated slices of every block it keeps each norm counted above
    the global ``cap``-th count; among norms tied at that count, the block
    layout decides."""
    clustered = aliases["is_clustered"]
    un = aliases.filter(pc.invert(clustered))
    top = np.argsort(-un["cluster_mentions"].to_numpy(), kind="stable")
    return pa.concat_tables([aliases.filter(clustered),
                             un.take(top[:cap])]).select(ALIAS_COLS)


@ray.remote(num_returns=3)
def alias_block(block: pa.Table, roots: pa.Table, cap: int,
                paths: tuple[str, str] | None = None):
    """The alias wave, one task per surface block. Returns:

    * the block's UNCLUSTERED alias rows (root = the norm itself) as an
      Arrow table — or, given ``paths``, their row count and mention sum
      after writing them and their 1:1 canonical nodes
      (``unclustered_nodes``) as the ``aliases`` and ``canonical_nodes``
      part files ``paths``;
    * its CLUSTERED surface rows (the norms in ``roots``) with their
      ``root`` (``clustered_aliases`` reduces them per root on the
      driver);
    * its ``hot_slice`` of the unclustered rows (``cap`` 0: empty)."""
    member = pc.is_in(block["norm"], value_set=roots["norm"])
    un, cl = block.filter(pc.invert(member)), block.filter(member)
    aliases = _alias_rows(un["norm"], _canonical_ids(un["norm"]),
                          un["canonical_label"], un["n_mentions"], False)
    rooted = cl.append_column("root", roots["root"].take(
        pc.index_in(cl["norm"], value_set=roots["norm"])))
    hot = hot_slice(aliases, cap)
    if paths is None:
        return aliases, rooted, hot
    if aliases.num_rows:
        pq.write_table(aliases, paths[0])
        pq.write_table(unclustered_nodes(aliases), paths[1])
    mentions = pc.sum(aliases["cluster_mentions"]).as_py() or 0
    return (aliases.num_rows, mentions), rooted, hot


def clustered_aliases(rooted: list[pa.Table]) -> pa.Table:
    """The CLUSTERED alias rows (members of a multi-norm cluster) from the
    alias wave's rooted rows, reduced per root on the driver: sorted on
    (n_mentions desc, norm asc), a root's first row gives the cluster its
    label and its members' sum its ``cluster_mentions``; the id hashes
    the root. Bounded by 2x|verified pairs| (already a driver-side
    quantity: the union-find ran on them), empty when nothing clusters."""
    if not rooted:
        return ALIAS_SCHEMA.empty_table()
    tbl = pa.concat_tables(rooted).sort_by([("n_mentions", "descending"),
                                            ("norm", "ascending")])
    codes, first, roots = _first_rows(tbl["root"])
    totals = np.bincount(codes, weights=tbl["n_mentions"].to_numpy(),
                         minlength=len(first))
    return _alias_rows(tbl["norm"], _canonical_ids(roots).take(codes),
                       tbl["canonical_label"].take(first[codes]),
                       pa.array(totals[codes].astype(np.int64)), True)


def alias_parts(nodes: rd.Dataset, cfg: KGConfig,
                link: LinkParams | None = None,
                use_embed_scorer: bool = True
                ) -> tuple[rd.Dataset, pa.Table]:
    """The alias table (columns ``ALIAS_COLS``, one row per distinct norm)
    in its two parts, from ``link_surfaces`` and the alias wave without
    writes: the UNCLUSTERED rows (singleton clusters, the overwhelming
    majority) as a Dataset over the wave's blocks, and the CLUSTERED rows
    as one driver table (``clustered_aliases``). ``is_clustered`` marks
    the clustered rows — the rewrite stage must always have those in its
    broadcast map; everything else can fall back to identity hashing."""
    surfaces, roots, _ = link_surfaces(nodes, cfg, link, use_embed_scorer)
    outs = [alias_block.remote(s, roots, 0) for s in surfaces]
    return (as_dataset([o[0] for o in outs]),
            clustered_aliases(ray.get([o[1] for o in outs])))


def build_alias_table(nodes: rd.Dataset, cfg: KGConfig,
                      link: LinkParams | None = None,
                      use_embed_scorer: bool = True) -> rd.Dataset:
    """Full linking pass -> alias DATASET (norm, canonical_id,
    canonical_label, cluster_mentions, is_clustered), one row per distinct
    norm: the union of ``alias_parts``' unclustered Dataset and clustered
    table."""
    unclustered, clustered = alias_parts(nodes, cfg, link, use_embed_scorer)
    if not clustered.num_rows:
        return unclustered
    return unclustered.union(rd.from_arrow(clustered))


def hot_alias_frame(alias: rd.Dataset, cap: int) -> pd.DataFrame:
    """The broadcast slice of the alias Dataset: ALL clustered norms (their
    mapping is semantic — identity fallback would break cluster unification)
    plus the ``cap`` most-mentioned unclustered norms (the hot vocabulary;
    broadcasting them keeps the overwhelmingly common surfaces off the
    fallback path).

    Under the cap — a materialized ``alias`` whose row count (block
    metadata, no pass) is at most ``cap`` — the slice is the whole table,
    collected as is. Above it, per-block ``hot_slice``s bound the driver
    collect to clustered + cap x num_blocks rows, never the full
    vocabulary."""
    if not (isinstance(alias, MaterializedDataset) and alias.count() <= cap):
        alias = alias.map_batches(functools.partial(hot_slice, cap=cap),
                                  batch_format="pyarrow")
    parts = [t for t in ray.get(alias.to_arrow_refs())
             if "norm" in t.column_names]
    return hot_slice(pa.concat_tables(parts) if parts
                     else ALIAS_SCHEMA.empty_table(), cap).to_pandas()


# --- phase 3: rewrite edges onto canonical ids + global dedup ---------------

BROADCAST_COLS = ["norm", "canonical_id", "canonical_label"]
EDGE_KEYS = ["canonical_src", "pred", "canonical_dst"]
_EDGE_KEYS5 = EDGE_KEYS + ["src_label", "dst_label"]


def _canonical_ends(amap: pa.Table, labels: pa.Array
                    ) -> tuple[pa.ChunkedArray, pa.ChunkedArray]:
    """(canonical id, canonical label) of every row of a null-free label
    column: the broadcast row of the label's norm (``pc.index_in``) or, on
    a miss, the norm's identity id and the row's own label. Works per
    distinct label: ``normalize_surface`` runs once for each, and
    ``canonical_id_of`` once for each that misses."""
    enc = labels.dictionary_encode()
    norms = _normalize_distinct(enc.dictionary)
    pos = pc.index_in(norms, value_set=amap["norm"])
    miss = pos.is_null().to_numpy(zero_copy_only=False)
    fallback = pa.array([canonical_id_of(n) if m else None for n, m in
                         zip(norms.to_pylist(), miss)], pa.string())
    cid = pc.coalesce(amap["canonical_id"].take(pos), fallback)
    clab = pc.coalesce(amap["canonical_label"].take(pos), enc.dictionary)
    return cid.take(enc.indices), clab.take(enc.indices)


def _rewrite_and_count(alias_ref: ray.ObjectRef, batch: pa.Table) -> pa.Table:
    """One block of edges -> per-block partial counts of canonical
    (src, pred, dst, src_label, dst_label) rows. Rows with a null endpoint
    have no entity to canonicalize onto and are dropped (the nodes-side
    partial skips null labels the same way); both endpoints go through one
    ``_canonical_ends`` call."""
    batch = batch.filter(pc.and_(pc.is_valid(batch["subj"]),
                                 pc.is_valid(batch["obj"])))
    n = batch.num_rows
    cid, clab = _canonical_ends(ray.get(alias_ref), pa.concat_arrays(
        [batch[c].cast(pa.string()).combine_chunks() for c in ("subj", "obj")]))
    counts = pa.table({
        "canonical_src": cid[:n], "pred": batch["pred"].cast(pa.string()),
        "canonical_dst": cid[n:], "src_label": clab[:n],
        "dst_label": clab[n:],
    }).group_by(_EDGE_KEYS5).aggregate([([], "count_all")])
    return pa.table({**{c: counts[c] for c in _EDGE_KEYS5},
                     "weight": counts["count_all"].cast(pa.int64())})


def merge_edge_partials(_pid: int, tbl: pa.Table) -> pa.Table:
    """The edge wave's reduce: one bucket of partials -> its canonical
    edges. Aggregates per label pair FIRST (block-layout-independent
    totals), then reduces to one row per triple: weight = sum over label
    pairs, label pair = the heaviest (ties -> lexicographic min) — fully
    deterministic, and identical to a plain 5-key sum whenever labels
    really are functions of the ids (the in-broadcast regime). A partial
    with a null key (a null ``pred``) belongs to no triple and is dropped."""
    valid = functools.reduce(pc.and_, [pc.is_valid(tbl[c])
                                       for c in _EDGE_KEYS5])
    rep = (tbl.filter(valid).group_by(_EDGE_KEYS5)
           .aggregate([("weight", "sum")])
           .sort_by([("weight_sum", "descending"), ("src_label", "ascending"),
                     ("dst_label", "ascending")])
           # ordered, so "first" is the heaviest label pair's
           .group_by(EDGE_KEYS, use_threads=False)
           .aggregate([("src_label", "first"), ("dst_label", "first"),
                       ("weight_sum", "sum")]))
    return pa.table({**{c: rep[c] for c in EDGE_KEYS},
                     "src_label": rep["src_label_first"],
                     "dst_label": rep["dst_label_first"],
                     "weight": rep["weight_sum_sum"]})


EDGE_INPUT_COLS = ["subj", "pred", "obj"]


@ray.remote(num_returns=2)
def _map_items(fn, columns: list[str], items: list) -> tuple[pa.Table, int]:
    """A sized exchange's map task over a group of blocks or parquet files
    (``exchange.fetch_tables``; files are read projected to ``columns``):
    ``fn`` of their concatenation, and its bytes."""
    part = fn(pa.concat_tables(fetch_tables(items, columns),
                               promote_options="permissive"))
    return part, part.nbytes


def _sized_exchange(source: rd.Dataset | list, fn, columns: list[str], key,
                   reduce_fn) -> list:
    """One task per 4 blocks of a Dataset or items of a list (block refs
    or parquet paths, which the task reads itself), as many as an exchange
    map takes, computes ``fn`` of them (``_map_items``); their outputs are
    then exchanged on ``key`` into ``reduce_fn(pid, table)`` per bucket.
    Returns the reduce refs. The bucket count is ``auto_partitions`` over
    the bytes the tasks return, so they run to completion before the
    exchange's maps."""
    outs = [_map_items.remote(fn, columns, group)
            for group in block_groups(source_items(source), 4)]
    total = sum(ray.get([o[1] for o in outs]))
    return exchange_refs([o[0] for o in outs], key, auto_partitions(total),
                         reduce_fn)[0]


def _broadcast_table(aliases: pa.Table | pd.DataFrame) -> pa.Table:
    if isinstance(aliases, pd.DataFrame):
        return pa.table({c: pa.array(aliases[c], pa.string())
                         for c in BROADCAST_COLS})
    return aliases.select(BROADCAST_COLS)


def edge_wave(edges: rd.Dataset | list[str],
              broadcast: pa.Table | pd.DataFrame,
              reduce_fn=merge_edge_partials) -> list:
    """The edge wave: broadcast the ``broadcast`` alias rows (one row per
    norm) as an Arrow table of ``BROADCAST_COLS`` (``ray.put`` once, read
    per task); a ``_sized_exchange`` over the edge blocks (a Dataset's) or
    ``edges.parquet`` files (read projected to ``EDGE_INPUT_COLS``) whose
    tasks rewrite and partially count them, exchanging the partials on
    the canonical TRIPLE (so every label variant of it co-locates) into
    ``reduce_fn(pid, partials)`` per bucket. Returns the reduce refs."""
    rewrite = functools.partial(_rewrite_and_count,
                                ray.put(_broadcast_table(broadcast)))
    return _sized_exchange(edges, rewrite, EDGE_INPUT_COLS, EDGE_KEYS,
                          reduce_fn)


def canonicalize_edges(edges: rd.Dataset, alias: rd.Dataset | pd.DataFrame,
                       cfg: KGConfig) -> rd.Dataset:
    """Rewrite (subj, pred, obj) surface triples onto canonical entities and
    aggregate to deduplicated weighted canonical edges (the ``edge_wave``
    as a Dataset).

    Broadcast is FREQUENCY-THRESHOLDED: only the clustered norms (mandatory
    for unification) plus the ``cfg.broadcast_vocab_cap`` hottest unclustered
    norms ride the object store. The long
    tail falls back to identity hashing — ``canonical_id_of(norm)`` is
    EXACTLY the id the alias table assigns an unclustered norm (root = the
    norm itself), so canonical ids never diverge; only the display label of
    a below-cap norm comes from the edges' surface casings instead of the
    corpus-majority variant. Because different casings of a below-cap norm
    then reach the reduce with the SAME canonical id but different labels,
    the reduce groups on the canonical triple ONLY and picks each triple's
    label pair deterministically (max aggregated weight, ties broken
    lexicographically) — labels can never split a triple's weight (ADVICE
    round 2). Partial counting per block again bounds the exchange to
    distinct canonical triples per block."""
    if isinstance(alias, rd.Dataset):
        alias = hot_alias_frame(alias, cfg.broadcast_vocab_cap)
    return as_dataset(edge_wave(edges, alias))


CANON_NODE_SCHEMA = pa.schema([("canonical_id", pa.string()),
                               ("canonical_label", pa.string()),
                               ("n_mentions", pa.int64()),
                               ("n_aliases", pa.int64())])


def unclustered_nodes(aliases: pa.Table) -> pa.Table:
    """Canonical nodes of a block's UNCLUSTERED alias rows: a 1:1
    projection (each is its own entity with one alias), no shuffle."""
    un = aliases.filter(pc.invert(aliases["is_clustered"]))
    return pa.table([un["canonical_id"], un["canonical_label"],
                     un["cluster_mentions"],
                     pa.array(np.ones(un.num_rows, dtype=np.int64))],
                    schema=CANON_NODE_SCHEMA)


def clustered_nodes(clustered: pa.Table) -> pa.Table:
    """Canonical nodes of the CLUSTERED alias rows: the cross-row reduce
    per entity, driver-side (the rows are pair-bounded), in id order."""
    g = clustered.group_by(["canonical_id", "canonical_label"]).aggregate(
        [("cluster_mentions", "max"), ("norm", "count_distinct")])
    return pa.table([g["canonical_id"], g["canonical_label"],
                     g["cluster_mentions_max"], g["norm_count_distinct"]],
                    schema=CANON_NODE_SCHEMA).sort_by("canonical_id")


def canonical_nodes_table(alias: rd.Dataset) -> rd.Dataset:
    """Distinct canonical entities (id, label, total mentions, n_aliases)
    of an alias table. Same split-stream shape as the alias build:
    ``unclustered_nodes`` per block plus ``clustered_nodes`` over the
    collected clustered rows."""
    def clustered_only(t):
        return t.filter(pc.fill_null(t["is_clustered"], False))

    un = alias.map_batches(unclustered_nodes, batch_format="pyarrow")
    cl = [t for t in ray.get(alias.map_batches(
        clustered_only, batch_format="pyarrow").to_arrow_refs())
        if t.num_rows]
    if not cl:
        return un
    return un.union(rd.from_arrow(clustered_nodes(pa.concat_tables(cl))))


# --- fuzzy alias pairing (round 4) ------------------------------------------

def _within_one_edit(a: str, b: str) -> bool:
    """Exact Levenshtein(a, b) <= 1 in O(len) without the DP table."""
    if a == b:
        return True
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return False
    if la == lb:                       # exactly one substitution allowed
        seen = False
        for x, y in zip(a, b):
            if x != y:
                if seen:
                    return False
                seen = True
        return True
    if la > lb:                        # normalize: a is the shorter one
        a, b, la, lb = b, a, lb, la
    i = 0                              # one insertion into a yields b
    while i < la and a[i] == b[i]:
        i += 1
    return a[i:] == b[i + 1:]


def _deletion_variants(col: str, tbl: pa.Table) -> pa.Table:
    """The typo wave's map body: ``(variant, <col>)`` rows for every
    distinct non-null value of ``col``, one with the value itself as its
    variant and one per single-code-point deletion. Deletion ``i`` of
    every value longer than ``i`` is two ``pc.utf8_slice_codeunits``
    calls over the column (they count code points, as Python slicing
    does), so the loop runs once per character position, never per
    value, as in ``shingle_csr``."""
    values = pc.unique(pc.drop_null(tbl[col].cast(pa.string())))
    lens = pc.utf8_length(values).to_numpy()
    order = np.argsort(-lens, kind="stable")             # longest first
    values, shorter = values.take(order), -lens[order]   # shorter: ascending
    variants, owners = [values], [values]
    for i in range(int(lens.max(initial=0))):
        live = values.slice(0, int(np.searchsorted(shorter, -i)))
        variants.append(pc.binary_join_element_wise(
            pc.utf8_slice_codeunits(live, 0, i),
            pc.utf8_slice_codeunits(live, i + 1), ""))
        owners.append(live)
    return pa.table({"variant": pa.chunked_array(variants, pa.string()),
                     col: pa.chunked_array(owners, pa.string())})


def _label_pairs(col: str, a, b) -> pa.Table:
    return pa.table({f"{col}_a": pa.array(a, pa.string()),
                     f"{col}_b": pa.array(b, pa.string())})


def _one_edit_pairs(col: str, _pid: int, tbl: pa.Table) -> pa.Table:
    """The typo wave's reduce: one bucket of ``(variant, <col>)`` rows ->
    the distinct value pairs ``a < b`` that share a variant
    (``lsh.bucket_pairs``, uncapped: ``max_bucket`` is the bucket's rows)
    and are within one edit (``_within_one_edit``)."""
    a, b = lsh.bucket_pairs(pd.DataFrame({
        "bucket": tbl["variant"].to_numpy(), "value": tbl[col].to_numpy()}),
        "value", tbl.num_rows)
    keep = np.fromiter(map(_within_one_edit, a, b), bool, count=len(a))
    return _label_pairs(col, a[keep], b[keep])


def fuzzy_label_pairs(labels: rd.Dataset | list, col: str = "label"
                      ) -> pa.Table:
    """Distinct label pairs within Levenshtein distance 1 — the fuzzy
    tier of entity linking (typo'd aliases the exact lower() match in
    the alias table can't catch). ``labels`` is a Dataset, or a list of
    block refs or parquet paths, with a string column ``col``; null
    labels are skipped.

    Scale shape (the SymSpell deletion-neighborhood identity): two
    strings are within one edit only if they share an element of
    {s} ∪ single-deletions(s). One ``_sized_exchange`` (the typo wave)
    does it all: its map tasks fan each distinct value of their blocks
    out to its <= len+1 variants (``_deletion_variants``), ONE exchange
    on the variant co-buckets values sharing one, and each bucket pairs
    its values and keeps the pairs a linear-time exact check accepts
    (``_one_edit_pairs``). No all-pairs stage anywhere: candidate volume
    is bounded by variant collisions, which for near-full-length
    variants stay near-linear in the vocabulary. A pathological corpus
    (thousands of labels one edit apart in one neighborhood)
    concentrates its own cluster's pairs in one bucket — the same
    inherent hot-key caveat as the LSH band buckets. The driver
    concatenates the (small) verified pair lists. They hold no pair
    twice: two labels one edit apart share exactly one variant (the
    shorter label itself, or the one deletion that removes the
    substituted character), so their pair comes from one bucket, once.

    Output: a table of (<col>_a, <col>_b) with <col>_a < <col>_b,
    distinct, sorted."""
    refs = _sized_exchange(labels, functools.partial(_deletion_variants, col),
                          [col], "variant",
                          functools.partial(_one_edit_pairs, col))
    return pa.concat_tables([_label_pairs(col, [], []), *ray.get(refs)]
                            ).sort_by([(f"{col}_a", "ascending"),
                                       (f"{col}_b", "ascending")])
