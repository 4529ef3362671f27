"""The engine's one all-to-all: a raw-Ray two-wave map/reduce shuffle.

Why not Ray Data's groupby: its sort-based shuffle inserts a sample /
sort-map / sort-reduce barrier that measured ~6 s of nearly-serial wall for
~3.6 CPU-s of work at 32 CPUs (the dominant non-compute cost of the fused
KG job, and the main 8->32 scaling-efficiency sink — see BASELINE.md).
Measured at sf0.1 x 192 (6.24M turns): 8->32 CPU scaling efficiency ~0.65
vs ~0.50 for the sort-based groupby, with both legs faster in absolute
terms (median 198k -> 516k turns/s at 8 -> 32 CPUs).

Two pieces, shared by every shuffle in the package:

* the MAP PRIMITIVE (``launch_map``): one task per group of input blocks
  (or of parquet files, which the task reads itself) concatenates them
  (or ``combine``s them), computes a partition id per row with a picklable
  ``route(table) -> pids``, stable-sorts by pid and returns ``n``
  zero-copy slices plus a ``(rows, bytes)`` size matrix — always
  ``n + 1`` returns, so no caller special-cases ``n == 1``. The last
  return also carries an optional ``partial_fn`` over the map's rows and
  their partition ids (the KG job's input fingerprints);
* the DRIVER LOOP (``run_maps``): streams the Dataset's blocks out of
  ``iter_internal_ref_bundles`` (or walks a list of block refs or paths)
  in groups of ``blocks_per_map``, launches the maps as blocks arrive (the
  map wave pipelines with the input scan) and returns the slice refs per
  pid plus the folded size matrix.

Reduces run as ``reduce_slices(fn, *slices)``. The routes and their users:

* ``HashRoute`` — ``crc32(key) % P`` with optional skew splitting
  (``hashing.effective_pids``): ``hash_exchange`` (the fused KG job),
  ``exchange_refs`` (phase 2's task waves, which chain its output refs
  into the next wave) and ``hash_exchange_dataset`` over it
  (``bucketed_groupby``, partitioned sinks), and
  ``pagerank_distributed``'s edge/state bucketing and contribution split;
* ``HashRoute(group=g)`` — the same pids integer-divided by ``g``: the
  coarse level of the two-level exchange. Maps return P/g pid-RANGE slices
  and one level-2 task per range re-splits by fine pid in-task, so the
  driver holds W x P/g refs instead of W x P (the multi-level shape of
  Hyper Dimension Shuffle, VLDB 2019). ``hash_exchange`` selects it itself
  above ``TWO_LEVEL_ABOVE`` partitions;
* ``sort.RangeRoute`` — sampled range cuts: ``range_sort``.

Scale notes: map outputs live in the object store until their reduce
consumes them (Ray spills beyond the store); a reduce starts only after
every map finished, inherent to any all-to-all.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterable, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data as rd

from .hashing import crc32_column, effective_num_partitions, effective_pids

# Above this many (effective) partitions hash_exchange runs two levels with
# COARSE level-1 ranges: W x P driver refs stay bounded near W x COARSE.
TWO_LEVEL_ABOVE = 1024
COARSE = 256


def key_column(tbl: pa.Table, key: str | Sequence[str]):
    """The column a route hashes: ``key`` itself, or for several key
    columns their string casts (nulls as ``"None"``) joined by ``"\x00"``,
    which cannot collide across column boundaries the way plain
    concatenation can."""
    if isinstance(key, str):
        return tbl[key]
    parts = [pc.fill_null(pc.cast(tbl[c], pa.string()), "None") for c in key]
    return parts[0] if len(parts) == 1 else \
        pc.binary_join_element_wise(*parts, "\x00")


class HashRoute:
    """``crc32(key) % num_partitions`` under an optional skew ``split_map``
    (``hashing.effective_pids``), integer-divided by ``group``. ``key`` is
    one string column or a list of columns of any castable type
    (``key_column``)."""

    def __init__(self, key: str | Sequence[str], num_partitions: int,
                 split_map: dict[int, tuple[int, int]] | None = None,
                 group: int = 1):
        self.key, self.num_partitions = key, num_partitions
        self.split_map, self.group = split_map, group
        self.n_fine = effective_num_partitions(num_partitions, split_map)
        self.n = -(-self.n_fine // group)

    def fine(self, tbl: pa.Table) -> np.ndarray:
        missing = [k for k in ([self.key] if isinstance(self.key, str)
                               else self.key)
                   if k not in tbl.column_names]
        if missing:
            # an upstream schema mistake must not become silent data loss
            raise KeyError(
                f"exchange key column(s) {missing} missing from input "
                f"blocks (columns: {tbl.column_names})")
        return effective_pids(crc32_column(key_column(tbl, self.key)),
                              self.num_partitions, self.split_map)

    def __call__(self, tbl: pa.Table) -> np.ndarray:
        pids = self.fine(tbl)
        return pids // self.group if self.group > 1 else pids


def split_table(tbl: pa.Table, route: Callable[[pa.Table], np.ndarray],
                n: int) -> tuple[list[pa.Table], np.ndarray]:
    """Stable-sort ``tbl`` by ``route(tbl)`` and cut it into ``n`` zero-copy
    slices; also returns the ``(2, n)`` matrix of slice rows and bytes.
    An empty table is never routed (it may lack the key column entirely,
    e.g. after an upstream filter emptied a block)."""
    pids = route(tbl) if tbl.num_rows else np.zeros(0, dtype=np.int64)
    order = np.argsort(pids, kind="stable")
    tbl = tbl.take(order)
    cuts = np.searchsorted(pids[order], np.arange(n + 1))
    slices = [tbl.slice(int(cuts[i]), int(cuts[i + 1] - cuts[i]))
              for i in range(n)]
    rows = np.diff(cuts).astype(np.int64)
    nbytes = np.array([s.nbytes for s in slices], dtype=np.int64)
    # nonzero rows always report >= 1 byte so empty-skip keys off rows,
    # not Arrow buffer accounting edge cases
    return slices, np.stack([rows, np.where(rows > 0, np.maximum(nbytes, 1),
                                            0)])


def fetch_tables(items: list, columns: list[str] | None = None
                 ) -> list[pa.Table]:
    """A map's input tables. ``items`` are block refs, fetched (pandas
    blocks converted), or parquet file paths, which the task reads itself,
    projected to ``columns``."""
    if items and isinstance(items[0], str):
        return [_read_file(path, columns) for path in items]
    return [pa.Table.from_pandas(b, preserve_index=False)
            if isinstance(b, pd.DataFrame) else b
            for b in ray.get(list(items))]


def _read_file(path: str, columns: list[str] | None) -> pa.Table:
    with pq.ParquetFile(path) as f:
        return f.read(columns=columns)


@ray.remote
def _map(items, route, n: int, combine=None, columns=None, partial_fn=None):
    tables = fetch_tables(items, columns)
    tbl = (combine(*tables) if combine is not None
           else pa.concat_tables(tables, promote_options="permissive"))
    part = None
    # a HashRoute computes its fine pids once; an empty table is never
    # routed (``split_table``), so it has no partial either
    if partial_fn is not None and tbl.num_rows:
        fine = route.fine(tbl)
        part, group = partial_fn(tbl, fine), route.group
        route = lambda _: fine // group    # noqa: E731
    slices, sizes = split_table(tbl, route, n)
    return (*slices, (sizes, part))


def launch_map(items: list, route, n: int, combine=None, columns=None,
               partial_fn=None):
    """Submit one map task over ``items`` (block refs or parquet paths, as
    in ``fetch_tables``): returns its ``n`` slice refs and its size-matrix
    ref, which holds ``(size matrix, partial)``. ``combine(*tables)``
    replaces the default concatenation of the fetched tables. ``partial``
    is ``partial_fn(table, fine pids)`` (a ``HashRoute`` only), or None
    without one or rows."""
    outs = _map.options(num_returns=n + 1).remote(items, route, n, combine,
                                                   columns, partial_fn)
    return outs[:n], outs[n]


@ray.remote
def reduce_slices(fn, *parts: pa.Table):
    """``fn`` over the concatenation of one partition's slices (``None``:
    the table itself). Empty slices are dropped unless all are — a
    zero-row concat keeps the schema."""
    tbl = pa.concat_tables([p for p in parts if p.num_rows] or parts[:1],
                           promote_options="permissive")
    return tbl if fn is None else fn(tbl)


def block_groups(blocks: Iterable, per_group: int):
    """Consecutive groups of ``per_group`` items (the last may be short)."""
    group: list = []
    for blk in blocks:
        group.append(blk)
        if len(group) == per_group:
            yield group
            group = []
    if group:
        yield group


def _stream(ds: rd.Dataset):
    for bundle in ds.iter_internal_ref_bundles():
        yield from bundle.blocks                     # (ref, BlockMetadata)


def source_items(source: rd.Dataset | list) -> Iterable:
    """A map wave's input items: a Dataset's block refs, streamed, or the
    list itself (block refs or parquet paths)."""
    return ((r for r, _ in _stream(source))
            if isinstance(source, rd.Dataset) else source)


def buffer_blocks(ds: rd.Dataset) -> tuple[list, int]:
    """Every block ref of ``ds`` plus their total bytes, for callers that
    size the exchange before mapping (losing map/scan overlap)."""
    blocks = list(_stream(ds))
    return [r for r, _ in blocks], sum(m.size_bytes for _, m in blocks)


def run_maps(source: rd.Dataset | list, route, n: int,
             blocks_per_map: int = 4, combine=None, columns=None,
             partial_fn=None) -> tuple[list[list], np.ndarray, list]:
    """The map wave: one map per ``blocks_per_map`` items of ``source``
    (``source_items``), ``combine``, ``columns`` and ``partial_fn`` as in
    ``launch_map`` and ``fetch_tables``. Returns the slice refs per pid,
    the ``(2, n)`` rows/bytes matrix summed over maps and the non-None
    ``partial_fn`` outputs of the maps."""
    refs_per_pid: list[list] = [[] for _ in range(n)]
    size_refs: list = []
    for group in block_groups(source_items(source), blocks_per_map):
        slices, size_ref = launch_map(group, route, n, combine, columns,
                                      partial_fn)
        for p, r in enumerate(slices):
            refs_per_pid[p].append(r)
        size_refs.append(size_ref)
    outs = ray.get(size_refs)
    sizes = (np.sum([s for s, _ in outs], axis=0) if outs
             else np.zeros((2, n), dtype=np.int64))
    return refs_per_pid, sizes, [p for _, p in outs if p is not None]


def _stamp_pids(tbl: pa.Table, pids: np.ndarray) -> pa.Table:
    """Present the partition ids to ``reduce_fn`` as a ``partition_id``
    column."""
    if "partition_id" in tbl.column_names:
        raise ValueError(
            "hash_exchange input already has a 'partition_id' column; the "
            "reduce contract stamps one (use hash_exchange_dataset for "
            "payloads that carry their own)")
    return tbl.append_column("partition_id", pa.array(pids))


def _reduce_range(reduce_fn, route: HashRoute, c: int, skip: frozenset,
                  tbl: pa.Table) -> list:
    """Run ``reduce_fn`` for every non-skipped, non-empty fine partition
    of coarse pid ``c`` (just ``c`` itself when ``route.group == 1``)."""
    lo = c * route.group
    if route.group == 1:
        pieces = [_stamp_pids(tbl, np.full(tbl.num_rows, c, dtype=np.int32))]
    else:
        fine = route.fine(tbl)
        pieces, _ = split_table(_stamp_pids(tbl, fine), lambda t: fine - lo,
                                min(route.group, route.n_fine - lo))
    out = []
    for pid, piece in enumerate(pieces, lo):
        if pid not in skip and piece.num_rows:
            r = reduce_fn(pid, piece)
            if r is not None:
                out.append(r)
    return out


def hash_exchange(ds: rd.Dataset, num_partitions: int,
                  reduce_fn: Callable[[int, pa.Table], object], *,
                  key: str = "conv_id", blocks_per_map: int = 4,
                  skip: frozenset[int] | set[int]
                  | Callable[[list], set[int]] = frozenset(),
                  partial_fn: Callable[[pa.Table, np.ndarray], object]
                  | None = None,
                  split_map: dict[int, tuple[int, int]] | None = None) -> list:
    """Run ``reduce_fn(pid, table)`` once per non-skipped, non-empty
    partition, where ``table`` holds every input row with ``crc32(key) %
    num_partitions == pid`` (stamped as a ``partition_id`` column). Returns
    the non-None reduce results in partition order. ``skip`` suppresses
    the reduce for already-committed partitions (resume).

    ``skip`` is decided after the map wave and before any reduce starts:
    a set is used as given; a callable receives the maps' outputs of
    ``partial_fn(table, pids)`` — run in every map task over its rows and
    their partition ids — and returns the set. That lets a caller derive
    what to skip from the one pass over the input the maps make. Skipped
    partitions' slices are never fetched; they are freed when this
    returns.

    ``split_map`` ({base_pid: (offset, n_subsplits)}) is the straggler
    mitigation: rows of an oversized base partition are re-hashed across
    ``n_subsplits`` effective partitions ``num_partitions + offset + j``
    (``hashing.effective_pids``), each its own reduce — whole keys stay
    together, only the partition fans out.

    Reduces are submitted LARGEST-FIRST by the folded byte sizes
    (longest-processing-time packing shrinks the reduce-wave tail) and
    empty partitions get no task. Above ``TWO_LEVEL_ABOVE`` effective
    partitions the exchange runs two levels (module docstring)."""
    n = effective_num_partitions(num_partitions, split_map)
    group = 1 if n <= TWO_LEVEL_ABOVE else -(-n // COARSE)
    route = HashRoute(key, num_partitions, split_map, group)
    refs, (rows, nbytes), partials = run_maps(ds, route, route.n,
                                              blocks_per_map,
                                              partial_fn=partial_fn)
    if callable(skip):
        skip = skip(partials)
    todo = []
    for c in np.argsort(-nbytes, kind="stable"):       # largest first
        fine = range(c * route.group,
                     min((c + 1) * route.group, route.n_fine))
        if rows[c] and any(p not in skip for p in fine):
            todo.append((int(c), frozenset(p for p in fine if p in skip)))
    futures = [reduce_slices.remote(
        functools.partial(_reduce_range, reduce_fn, route, c, s), *refs[c])
        for c, s in todo]
    results = dict(zip((c for c, _ in todo), ray.get(futures)))
    return [r for c in sorted(results) for r in results[c]]


# Auto-sizing bounds for hash_exchange_dataset(num_partitions=None).
# One partition materializes as ONE pandas frame inside its merge task, so
# the partition count must scale with input volume (VERDICT round 2, item 2:
# a fixed buckets=64 fan-in of raw rows is a worker-heap OOM at 100x the
# event volume). 128 MiB of Arrow bytes per bucket leaves ~3x headroom for
# the pandas conversion inside a 4 GiB worker heap (128 GiB / 32 slots).
TARGET_PARTITION_BYTES = 128 << 20
MAX_AUTO_PARTITIONS = 4096


def auto_partitions(total_bytes: int,
                    target_bytes: int = TARGET_PARTITION_BYTES) -> int:
    """``max(1, ceil(bytes / target))``, raised to 2x the cluster's CPUs
    once the input exceeds 1 MiB per CPU, capped at
    ``MAX_AUTO_PARTITIONS`` with a warning. Two constraints: MEMORY (a
    partition's bytes must fit a worker frame -> bytes/target ceiling) and
    PARALLELISM (merge tasks are often compute-heavy — in-bucket pair
    verification, joins — so once the input carries real work (> 1 MiB per
    core), the bucket count must not drop below 2x the cluster's cores;
    measured: 8 buckets for a 100 MB LSH-verify input serialized 32 cores
    to 8-wide, a 5x slowdown). There is no fixed floor: an input below
    the real-work threshold gets as few as one bucket, so it pays for one
    task and one part file, not eight."""
    p = max(1, -(-int(total_bytes) // int(target_bytes)))
    try:
        cpus = int(ray.cluster_resources().get("CPU", 0))
    except Exception:
        cpus = 0
    if cpus and total_bytes > (cpus << 20):
        p = max(p, 2 * cpus)
    if p > MAX_AUTO_PARTITIONS:
        import warnings
        warnings.warn(
            f"auto-sized exchange wants {p} partitions for "
            f"{total_bytes} input bytes; capping at {MAX_AUTO_PARTITIONS} "
            f"(~{total_bytes // MAX_AUTO_PARTITIONS} bytes/partition) — "
            "pass num_partitions explicitly for larger layouts",
            ResourceWarning, stacklevel=3)
        p = MAX_AUTO_PARTITIONS
    return p


def exchange_refs(source: rd.Dataset | list, key: str | Sequence[str],
                  num_partitions: int | None,
                  reduce_fn: Callable[[int, pa.Table], object], *,
                  blocks_per_map: int = 4, combine=None, columns=None
                  ) -> tuple[list, np.ndarray, list]:
    """The Dataset-free core of the hash exchange: one map wave over
    ``source`` (a Dataset, streamed, or a list of block refs or parquet
    paths; ``combine`` and ``columns`` as in ``launch_map`` and
    ``fetch_tables``) routed on ``HashRoute(key, num_partitions)``, then
    ``reduce_fn(pid, table)`` as one task per non-empty partition, in pid
    order. Nothing is collected. Returns the reduce output refs, the map
    wave's ``(2, n)`` rows/bytes matrix and partition 0's first map slice
    ref (none when ``source`` has no items): with no rows anywhere it is
    the only trace of the input schema.

    ``num_partitions=None`` auto-sizes the partition count from the
    input's block metadata (``auto_partitions``), buffering a Dataset's
    block refs before the map wave (a list source must pass a count)."""
    if num_partitions is None:
        source, total_bytes = buffer_blocks(source)
        num_partitions = auto_partitions(total_bytes)
    refs, sizes, _ = run_maps(source, HashRoute(key, num_partitions),
                              num_partitions, blocks_per_map, combine,
                              columns)
    out = [reduce_slices.remote(functools.partial(reduce_fn, p), *refs[p])
           for p in np.flatnonzero(sizes[0]).tolist()]
    return out, sizes, refs[0][:1]


def _table_only(fn, _pid: int, tbl: pa.Table):
    return fn(tbl)


def hash_exchange_dataset(ds: rd.Dataset, num_partitions: int | None,
                          merge_fn: Callable[[pa.Table], pa.Table], *,
                          key: str | Sequence[str],
                          blocks_per_map: int = 4) -> rd.Dataset:
    """Dataset-to-Dataset hash exchange: ``merge_fn(table) -> table`` runs
    once per non-empty partition and the outputs become a new Dataset
    WITHOUT driver collection (``from_arrow_refs`` over ``exchange_refs``
    — blocks stay in the object store). ``num_partitions=None`` auto-sizes
    as in ``exchange_refs``; callers that know their volume should pass a
    count.

    This is the exchange behind ``ops/agg.bucketed_groupby``: same
    semantics as Ray Data's sort-based ``groupby().map_groups`` for
    hash-bucketed keys, without the sort barrier's near-serial section."""
    out, _, empty = exchange_refs(ds, key, num_partitions,
                                  functools.partial(_table_only, merge_fn),
                                  blocks_per_map=blocks_per_map)
    if out:
        return rd.from_arrow_refs(out)
    if empty:
        # Zero rows anywhere: preserve the OUTPUT schema by running the
        # merge once over a schema-typed empty slice from the map wave
        # (Dataset.schema() is unreliable on empty object-dtype inputs).
        try:
            return rd.from_arrow(merge_fn(ray.get(empty[0])))
        except Exception:   # merge_fn not empty-safe: schemaless path
            pass
    return rd.from_items([])
