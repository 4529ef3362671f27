"""Range-partitioned total-order sort — the sample-sort / TeraSort shape
on the ``ops/exchange.py`` map primitive, routed by SAMPLED RANGE CUTS:

* sample wave: strided primary-key samples per block (the driver fetches
  a few hundred scalars per map group, never rows);
* map wave: ``RangeRoute`` assigns ``searchsorted(cuts, key, 'right')``
  — rows with EQUAL primary keys land in one partition, so ties never
  straddle a boundary and tiebreak columns stay partition-local;
* reduce wave: each non-empty partition sorts by the full composite order
  and (optionally) stamps a GLOBAL row number offset by the prefix sum of
  the map wave's per-partition row counts.

Output blocks come back in key-range order, so the returned Dataset is
globally sorted: ``ROW_NUMBER() OVER (ORDER BY ...)`` without a hash
groupby. Heavy skew on ONE primary value concentrates its rows in one
partition (exact global ranks forbid splitting equal keys); add a
higher-cardinality leading order column to spread it.
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

from .exchange import (
    auto_partitions,
    block_groups,
    buffer_blocks,
    fetch_tables,
    reduce_slices,
    run_maps,
)


class RangeRoute:
    """Partition id of each row: the primary value's interval among the
    sorted ``cuts`` (``side='right'``)."""

    def __init__(self, primary: str, cuts: np.ndarray):
        self.primary, self.cuts = primary, cuts

    def __call__(self, tbl: pa.Table) -> np.ndarray:
        if tbl.column(self.primary).null_count:
            # a null has no place in a total order; fail loudly instead of
            # a TypeError deep inside searchsorted
            raise ValueError(
                f"range_sort: primary order column {self.primary!r} "
                "contains nulls; filter or fill them first")
        v = tbl.column(self.primary).to_pandas().to_numpy()
        if v.dtype.kind == "f" and np.isnan(v).any():
            # NaN compares unordered: it would route to the top partition
            # and a descending sort would emit it FIRST
            raise ValueError(
                f"range_sort: primary order column {self.primary!r} "
                "contains NaN; filter or fill them first")
        return (pd.Index(self.cuts).searchsorted(v, side="right")
                .astype(np.int64))


@ray.remote
def _sample_primary(block_refs, primary: str, per_block: int):
    out = []
    for t in fetch_tables(block_refs):
        n = t.num_rows
        if not n:
            continue
        idx = np.linspace(0, n - 1, min(per_block, n)).astype(np.int64)
        out.append(t.column(primary).take(pa.array(idx)).to_pandas())
    return pd.concat(out, ignore_index=True) if out else pd.Series([])


def _sort_run(order_cols, ascending, out_col, offset, tbl: pa.Table):
    df = tbl.replace_schema_metadata(None).to_pandas()
    df = df.sort_values(order_cols, ascending=ascending,
                        kind="mergesort").reset_index(drop=True)
    if out_col is not None:
        df[out_col] = np.arange(offset + 1, offset + 1 + len(df),
                                dtype=np.int64)
    return pa.Table.from_pandas(df, preserve_index=False)


def range_sort(ds: rd.Dataset, order_cols: list[str], *,
               ascending: bool | list[bool] | None = None,
               num_partitions: int | None = None,
               out_col: str | None = None,
               sample_per_block: int = 128,
               blocks_per_map: int = 4) -> rd.Dataset:
    """Globally sort ``ds`` by ``order_cols`` (must be a total order for a
    deterministic result). ``out_col`` additionally stamps the 1-based
    global row number. The FIRST order column routes the range exchange;
    its ``ascending`` flag orients the partition visit order, so
    secondary columns may sort in any direction."""
    if ascending is None:
        ascending = [True] * len(order_cols)
    elif isinstance(ascending, bool):
        ascending = [ascending] * len(order_cols)
    primary = order_cols[0]

    block_refs, total_bytes = buffer_blocks(ds)
    if not block_refs:
        return rd.from_items([])
    if num_partitions is None:
        num_partitions = auto_partitions(total_bytes)

    samples = pd.concat(ray.get([
        _sample_primary.remote(g, primary, sample_per_block)
        for g in block_groups(block_refs, blocks_per_map)]),
        ignore_index=True).sort_values(kind="mergesort").to_numpy()
    if len(samples) == 0:
        return rd.from_items([])
    cut_idx = np.linspace(0, len(samples) - 1,
                          num_partitions + 1)[1:-1].astype(np.int64)
    refs, (rows, _), _ = run_maps(block_refs, RangeRoute(primary,
                                                         samples[cut_idx]),
                                  num_partitions, blocks_per_map)

    visit = (range(num_partitions) if ascending[0]
             else range(num_partitions - 1, -1, -1))
    out_refs = []
    offset = 0
    for p in visit:
        if rows[p]:
            out_refs.append(reduce_slices.remote(functools.partial(
                _sort_run, order_cols, ascending, out_col, offset), *refs[p]))
            offset += int(rows[p])
    if not out_refs:
        return rd.from_items([])
    return rd.from_arrow_refs(out_refs)


def global_row_number(ds: rd.Dataset, order_cols: list[str], *,
                      ascending: bool | list[bool] | None = None,
                      out_col: str = "rn",
                      num_partitions: int | None = None) -> rd.Dataset:
    """``ROW_NUMBER() OVER (ORDER BY order_cols)`` for the whole dataset:
    a ``range_sort`` with the rank column stamped from exchange counts."""
    return range_sort(ds, order_cols, ascending=ascending,
                      num_partitions=num_partitions, out_col=out_col)
