"""Two-level distributed aggregation: per-block partials -> hash-bucket
shuffle -> vectorized pandas merge per bucket.

The pattern behind every high-cardinality groupby in this engine:

1. ``map_batches`` reduces each block to partial rows (one per distinct key
   per block) — this is the combiner that defuses hot keys: a key appearing
   a billion times contributes at most ``num_blocks`` partial rows.
2. Partials are shuffled on ``_bkey = crc32(key) % buckets`` — a SMALL,
   uniform key space — so the exchange has ``buckets`` coarse groups instead
   of one group per distinct key.
3. The merge runs once per bucket as a single VECTORIZED pandas groupby over
   all keys in that bucket (C path), instead of one Python task per distinct
   key.

Measured on 100k events / 96k distinct (user, hour) keys @ 32 CPUs: 2.9 s vs
20.0 s for Ray's native two-key aggregate and 17 s for per-key map_groups —
the per-group scheduling overhead, not the arithmetic, is what dominates
high-cardinality merges.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd


def bucketed_groupby(partials: rd.Dataset, key_cols: list[str],
                     merge: Callable[[pd.DataFrame], pd.DataFrame],
                     buckets: int | None = None) -> rd.Dataset:
    """Shuffle ``partials`` on a hash bucket of ``key_cols`` and apply
    ``merge`` (a vectorized whole-bucket pandas reduce; it must group by the
    key columns itself and must not depend on rows outside the bucket —
    guaranteed because a key's rows all land in one bucket).

    ``buckets=None`` (default) sizes the bucket count from the input's
    actual bytes (``exchange.auto_partitions``): a small partial-aggregated
    input gets as few as one bucket (one merge task, not 64), while
    raw-row callers (as-of/range joins, sessionize) grow buckets with data
    volume instead of concentrating a fixed 1/64th of the corpus into one
    merge frame.

    The exchange is the raw-Ray map/reduce of ``ops/exchange.py`` (round 2)
    rather than Ray Data's sort-based groupby, routed on the key columns
    themselves: the bucket is crc32 of the composite key string mod
    ``buckets`` (``exchange.key_column``), with no stamped key column and
    no sort barrier's near-serial section. Note the exchange executes the
    upstream Dataset when called — bucketed pipelines are eager at the
    exchange point (results, schemas and downstream laziness are
    unchanged)."""
    from .exchange import hash_exchange_dataset

    def merge_tbl(tbl: pa.Table) -> pa.Table:
        out = merge(tbl.replace_schema_metadata(None).to_pandas())
        # merge may return an Arrow table directly — callers that must pin
        # exact output types (joins with all-null columns) bypass pandas
        # inference that way
        if isinstance(out, pa.Table):
            return out
        return pa.Table.from_pandas(out, preserve_index=False)

    return hash_exchange_dataset(partials, buckets, merge_tbl, key=key_cols)


def per_group_apply(key_cols: list[str], fn: Callable[[pd.DataFrame], pd.DataFrame]):
    """merge callback: apply ``fn`` to each distinct-key sub-frame inside the
    coarse bucket. The inner split is pandas' C-path groupby, so a million
    tiny key groups cost one task per COARSE bucket plus an in-process loop —
    not a million Ray tasks (measured: 363k LSH buckets took ~55 s as
    map_groups tasks vs ~2 s inside bucketed merges)."""
    def merge(df: pd.DataFrame) -> pd.DataFrame:
        key = key_cols[0] if len(key_cols) == 1 else key_cols
        # dropna=False everywhere a reduce groups by user keys: SQL GROUP BY
        # keeps a NULL group, and the exchange routes null keys consistently
        # (stamped 'None'), so dropping them here would lose rows silently
        outs = [fn(g) for _, g in df.groupby(key, sort=False, dropna=False)]
        outs = [o for o in outs if len(o)]
        if not outs:
            return fn(df.iloc[0:0])
        return pd.concat(outs, ignore_index=True)
    return merge


def sum_merge(key_cols: list[str], value_cols: list[str]):
    """merge callback: vectorized groupby-sum of ``value_cols``. NULL key
    values form their own group, as in SQL GROUP BY."""
    def merge(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(key_cols, as_index=False, sort=False,
                          dropna=False)[value_cols].sum()
    return merge


def ordered_prefix_sum(ds: rd.Dataset, order_col: str, value_col: str,
                       out_col: str = "prefix_sum", *,
                       range_buckets: int = 256) -> rd.Dataset:
    """Distributed ordered running total — the window-function scan
    (``SUM(v) OVER (ORDER BY k ROWS UNBOUNDED PRECEDING)``) Ray Data has
    no primitive for. ``order_col`` must be numeric with distinct values.

    Two passes, both bounded:
    1. OFFSETS: a column-pruned scan reduces each block to per-range-bucket
       partial sums (rows = buckets touched per block); the driver cumsums
       the ~``range_buckets`` totals — every bucket's start offset.
    2. SCAN: rows shuffle once on their RANGE bucket (contiguous key
       ranges, so a bucket's rows are exactly a slice of the global
       order); each bucket sorts locally, cumsums, and adds its broadcast
       offset. No global sort, no driver materialization of data rows.

    Range (not hash) bucketing is what makes the local cumsum + offset
    equal the global scan. Skew note: bucket boundaries come from the
    observed min/max, uniform split — for heavily clustered keys pass a
    larger ``range_buckets``."""
    import ray
    from ray.data.aggregate import Max, Min

    # one execution for all three passes below — the input may be an
    # expensive lazy pipeline (e.g. tokenization of the whole corpus)
    ds = ds.materialize()
    stats = ds.aggregate(Min(order_col), Max(order_col))
    lo, hi = stats[f"min({order_col})"], stats[f"max({order_col})"]
    if lo is None or hi is None:        # empty input: Ray aggregates -> None
        def empty_out(df: pd.DataFrame) -> pd.DataFrame:
            return df.assign(**{out_col: pd.Series(dtype="float64")})
        return ds.map_batches(empty_out, batch_format="pandas")
    span = max(float(hi) - float(lo), 1.0)
    width = span / range_buckets + 1e-9

    def rb_of(vals: np.ndarray) -> np.ndarray:
        rb = ((vals.astype(np.float64) - float(lo)) / width).astype(np.int64)
        return np.clip(rb, 0, range_buckets - 1)

    def offsets_partial(df: pd.DataFrame) -> pd.DataFrame:
        rb = rb_of(df[order_col].to_numpy())
        g = (pd.DataFrame({"_rb": rb, "_v": df[value_col].to_numpy()})
             .groupby("_rb", sort=False)["_v"].sum().reset_index())
        return g

    parts = (ds.select_columns([order_col, value_col])
             .map_batches(offsets_partial, batch_format="pandas").to_pandas())
    totals = np.zeros(range_buckets, dtype=np.float64)
    if len(parts):
        np.add.at(totals, parts["_rb"].to_numpy(), parts["_v"].to_numpy())
    offsets = np.concatenate([[0.0], np.cumsum(totals)[:-1]])
    off_ref = ray.put(offsets)

    def stamp_rb(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(_rb=rb_of(df[order_col].to_numpy()))

    value_is_int = parts["_v"].dtype.kind in "iu" if len(parts) else False

    def scan(df: pd.DataFrame) -> pd.DataFrame:
        # one RANGE bucket per sub-frame (several range buckets may hash
        # into one merge bucket — per_group_apply splits them back out)
        if len(df) == 0:
            out_frame = df.drop(columns="_rb")
            out_frame[out_col] = pd.Series(
                dtype="int64" if value_is_int else "float64")
            return out_frame
        offs = ray.get(off_ref)
        df = df.sort_values(order_col, kind="mergesort")
        out = df[value_col].cumsum() + offs[int(df["_rb"].iloc[0])]
        df = df.drop(columns="_rb")
        # int values stay exact through the float64 offset for |sum| < 2^53
        df[out_col] = out.astype("int64") if value_is_int else out
        return df

    stamped = ds.map_batches(stamp_rb, batch_format="pandas")
    return bucketed_groupby(stamped, ["_rb"], per_group_apply(["_rb"], scan))


def grouped_count_distinct(ds: rd.Dataset, key_cols: list[str],
                           value_col: str, out_col: str = "n_distinct",
                           buckets: int | None = None) -> rd.Dataset:
    """EXACT distinct-value count per group: per-block (key, value) dedup
    partials (each distinct pair ships at most once per block) -> bucketed
    shuffle on the key -> vectorized nunique per bucket. Exact but the
    shuffle is distinct-pair-sized — for cardinalities where that is
    itself too big, use ``grouped_approx_distinct`` (HLL, fixed-size
    sketch per key)."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df[key_cols + [value_col]].drop_duplicates()

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        out = (df.drop_duplicates(key_cols + [value_col])
               .groupby(key_cols, sort=False, dropna=False)[value_col]
               .nunique().rename(out_col).reset_index())
        out[out_col] = out[out_col].astype("int64")
        return out

    partials = ds.map_batches(partial, batch_format="pandas")
    return bucketed_groupby(partials, key_cols, merge, buckets=buckets)


_HLL_P = 12                      # 4096 registers -> ~1.6% standard error


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer — a well-mixed uint64 hash for HLL."""
    z = x.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _hll_partial(keys: pd.Series, values: np.ndarray) -> pd.DataFrame:
    """(key, register index, max rho) rows for one block — at most 2^p
    rows per key per block, independent of row count."""
    h = _splitmix64(values)
    idx = (h >> np.uint64(64 - _HLL_P)).astype(np.int32)
    w = h & np.uint64((1 << (64 - _HLL_P)) - 1)
    # bit length via float64 log2: w < 2^52 < 2^53, exact
    bl = np.zeros(len(w), dtype=np.int8)
    nz = w > 0
    bl[nz] = (np.floor(np.log2(w[nz].astype(np.float64))) + 1).astype(np.int8)
    rho = ((64 - _HLL_P) - bl + 1).astype(np.int8)
    df = pd.DataFrame({"_k": keys.to_numpy(), "_reg": idx, "_rho": rho})
    return (df.groupby(["_k", "_reg"], sort=False, dropna=False)["_rho"]
            .max().reset_index())


def _hll_estimate(regs: np.ndarray) -> int:
    """Standard HLL estimate with linear-counting small-range correction.
    ``regs`` is the dense 2^p register array (0 = never touched)."""
    m = 1 << _HLL_P
    alpha = 0.7213 / (1 + 1.079 / m)
    e = alpha * m * m / np.sum(np.exp2(-regs.astype(np.float64)))
    zeros = int((regs == 0).sum())
    if e <= 2.5 * m and zeros:
        e = m * np.log(m / zeros)
    return int(round(e))


def grouped_approx_distinct(ds: rd.Dataset, key_cols: list[str],
                            value_col: str,
                            out_col: str = "approx_distinct",
                            buckets: int | None = None) -> rd.Dataset:
    """APPROXIMATE distinct count per group via HyperLogLog (Flajolet et
    al. 2007), p=12 (~1.6% standard error): per-block partials are
    (key, register, max-rho) rows — bounded at 4096 per key per block no
    matter how many rows the block holds — merged by elementwise register
    max (associative and layout-independent), then estimated. The
    fixed-size-sketch path for cardinalities where exact distinct pairs
    would swamp the shuffle. Single string key only (composite: concat
    upstream)."""
    key = key_cols[0]

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = _hll_partial(df[key], df[value_col].to_numpy())
        return out.rename(columns={"_k": key})

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        folded = (df.groupby([key, "_reg"], sort=False, dropna=False)["_rho"]
                  .max().reset_index())
        rows = []
        for k, g in folded.groupby(key, sort=False, dropna=False):
            regs = np.zeros(1 << _HLL_P, dtype=np.int8)
            regs[g["_reg"].to_numpy()] = g["_rho"].to_numpy()
            rows.append({key: k, out_col: _hll_estimate(regs)})
        return pd.DataFrame(rows, columns=[key, out_col])

    partials = ds.map_batches(partial, batch_format="pandas")
    return bucketed_groupby(partials, [key], merge, buckets=buckets)


def grouped_quantile_disc(ds: rd.Dataset, key_cols: list[str],
                          value_col: str, quantiles: dict[str, float],
                          buckets: int | None = None) -> rd.Dataset:
    """EXACT discrete quantiles per group over a DISCRETE value column,
    scale-safely: per-block (key, value) -> count histogram partials ride
    the shuffle (bounded by distinct values per key per block, never raw
    rows), and each bucket's merge folds histograms and reads the
    quantiles off the cumulative counts. ``quantiles`` maps output column
    name -> q. Matches SQL ``quantile_disc``/``percentile_disc``: the
    smallest value whose cumulative count reaches ceil(q * n). Also emits
    ``n`` (group row count). Callers with continuous values discretize
    first (e.g. cents) — that is what makes the histogram bounded."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.groupby(key_cols + [value_col], sort=False, dropna=False)
             .size().rename("_cnt").reset_index())
        return g

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        folded = (df.groupby(key_cols + [value_col], sort=False,
                             dropna=False)["_cnt"]
                  .sum().reset_index().sort_values(key_cols + [value_col],
                                                   kind="mergesort"))
        out_rows = []
        key = key_cols[0] if len(key_cols) == 1 else key_cols
        for k, g in folded.groupby(key, sort=False, dropna=False):
            vals = g[value_col].to_numpy()
            counts = g["_cnt"].to_numpy()
            cum = np.cumsum(counts)
            n = int(cum[-1])
            row = dict(zip(key_cols, k if isinstance(k, tuple) else (k,)))
            for name, q in quantiles.items():
                # epsilon guards binary-float overshoot: 0.07 * 100 is
                # 7.000000000000001 in float64 and a bare ceil would
                # return rank 8 where percentile_disc says 7
                rank = int(np.ceil(q * n - 1e-9)) if q > 0 else 1
                row[name] = vals[int(np.searchsorted(cum, max(rank, 1)))]
            row["n"] = n
            out_rows.append(row)
        cols = key_cols + list(quantiles) + ["n"]
        if not out_rows:
            return pd.DataFrame(columns=cols)
        return pd.DataFrame(out_rows)[cols]

    partials = ds.map_batches(partial, batch_format="pandas")
    return bucketed_groupby(partials, key_cols, merge, buckets=buckets)


def grouped_weighted_quantile_disc(ds: rd.Dataset, key_cols: list[str],
                                   value_col: str, weight_col: str,
                                   quantiles: dict[str, float],
                                   buckets: int | None = None
                                   ) -> rd.Dataset:
    """EXACT discrete quantiles of the WEIGHT-EXPANDED multiset (each row
    counts ``weight`` times, integer weights >= 0) — the weighted-percentile
    data-prep primitive SQL lacks natively. Identical scale shape to
    ``grouped_quantile_disc``: weights fold into the (key, value) histogram
    partials (a weight IS a count), so the shuffle carries bounded
    histograms, never expanded rows. Pinned against the SQL expansion
    oracle ``unnest(range(w))`` + ``quantile_disc``. Also emits ``n``
    (total weight per group); zero-total groups are dropped (their
    expanded multiset is empty, matching the oracle's GROUP BY)."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.groupby(key_cols + [value_col], sort=False,
                        dropna=False)[weight_col]
             .sum().rename("_cnt").reset_index())
        g["_cnt"] = g["_cnt"].astype(np.int64)
        return g

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        folded = (df.groupby(key_cols + [value_col], sort=False,
                             dropna=False)["_cnt"]
                  .sum().reset_index().sort_values(key_cols + [value_col],
                                                   kind="mergesort"))
        out_rows = []
        key = key_cols[0] if len(key_cols) == 1 else key_cols
        for k, g in folded.groupby(key, sort=False, dropna=False):
            g = g[g["_cnt"].to_numpy() > 0]
            if not len(g):
                continue
            vals = g[value_col].to_numpy()
            cum = np.cumsum(g["_cnt"].to_numpy())
            n = int(cum[-1])
            row = dict(zip(key_cols, k if isinstance(k, tuple) else (k,)))
            for name, q in quantiles.items():
                rank = int(np.ceil(q * n - 1e-9)) if q > 0 else 1
                row[name] = vals[int(np.searchsorted(cum, max(rank, 1)))]
            row["n"] = n
            out_rows.append(row)
        cols = key_cols + list(quantiles) + ["n"]
        if not out_rows:
            return pd.DataFrame(columns=cols)
        return pd.DataFrame(out_rows)[cols]

    partials = ds.map_batches(partial, batch_format="pandas")
    return bucketed_groupby(partials, key_cols, merge, buckets=buckets)


def grouped_quantile_cont(ds: rd.Dataset, key_cols: list[str],
                          value_col: str, quantiles: dict[str, float],
                          buckets: int | None = None) -> rd.Dataset:
    """EXACT continuous (interpolated) quantiles per group over a DISCRETE
    value column — SQL ``quantile_cont``/``percentile_cont`` semantics.
    Same scale shape as :func:`grouped_quantile_disc`: per-block
    (key, value) -> count histogram partials ride the shuffle, the merge
    folds histograms and interpolates off the cumulative counts.

    Interpolation reproduces DuckDB/Postgres bit-for-bit: with the sorted
    multiset v[0..n-1] and RN = q*(n-1), the result is
    ``(CRN-RN)*v[floor(RN)] + (RN-FRN)*v[ceil(RN)]`` evaluated in float64
    (exactly v[RN] when RN is integral). Outputs are float64; also emits
    ``n`` (group row count)."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return (df.groupby(key_cols + [value_col], sort=False, dropna=False)
                .size().rename("_cnt").reset_index())

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        folded = (df.groupby(key_cols + [value_col], sort=False,
                             dropna=False)["_cnt"]
                  .sum().reset_index().sort_values(key_cols + [value_col],
                                                   kind="mergesort"))
        out_rows = []
        key = key_cols[0] if len(key_cols) == 1 else key_cols
        for k, g in folded.groupby(key, sort=False, dropna=False):
            vals = g[value_col].to_numpy().astype(np.float64)
            cum = np.cumsum(g["_cnt"].to_numpy())
            n = int(cum[-1])
            row = dict(zip(key_cols, k if isinstance(k, tuple) else (k,)))
            for name, q in quantiles.items():
                rn = q * (n - 1)                    # 0-indexed float rank
                frn, crn = np.floor(rn), np.ceil(rn)
                lo = vals[int(np.searchsorted(cum, frn + 1))]
                if crn == frn:
                    row[name] = float(lo)
                else:
                    hi = vals[int(np.searchsorted(cum, crn + 1))]
                    row[name] = float((crn - rn) * lo + (rn - frn) * hi)
            row["n"] = n
            out_rows.append(row)
        cols = key_cols + list(quantiles) + ["n"]
        if not out_rows:
            return pd.DataFrame(columns=cols)
        return pd.DataFrame(out_rows)[cols]

    partials = ds.map_batches(partial, batch_format="pandas")
    return bucketed_groupby(partials, key_cols, merge, buckets=buckets)


def grouped_weighted_quantile_cont(ds: rd.Dataset, key_cols: list[str],
                                   value_col: str, weight_col: str,
                                   quantiles: dict[str, float],
                                   buckets: int | None = None
                                   ) -> rd.Dataset:
    """Continuous (interpolated) quantiles of the WEIGHT-EXPANDED multiset
    — ``quantile_cont`` over each row repeated ``weight`` times (integer
    weights >= 0) without ever expanding: weights fold into the
    (key, value) histogram partials and the merge interpolates off the
    cumulative weights with the same bit-for-bit DuckDB formula as
    :func:`grouped_quantile_cont`. Zero-total groups are dropped."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.groupby(key_cols + [value_col], sort=False,
                        dropna=False)[weight_col]
             .sum().rename("_cnt").reset_index())
        g["_cnt"] = g["_cnt"].astype(np.int64)
        return g

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        folded = (df.groupby(key_cols + [value_col], sort=False,
                             dropna=False)["_cnt"]
                  .sum().reset_index().sort_values(key_cols + [value_col],
                                                   kind="mergesort"))
        out_rows = []
        key = key_cols[0] if len(key_cols) == 1 else key_cols
        for k, g in folded.groupby(key, sort=False, dropna=False):
            g = g[g["_cnt"].to_numpy() > 0]
            if not len(g):
                continue
            vals = g[value_col].to_numpy().astype(np.float64)
            cum = np.cumsum(g["_cnt"].to_numpy())
            n = int(cum[-1])
            row = dict(zip(key_cols, k if isinstance(k, tuple) else (k,)))
            for name, q in quantiles.items():
                rn = q * (n - 1)
                frn, crn = np.floor(rn), np.ceil(rn)
                lo = vals[int(np.searchsorted(cum, frn + 1))]
                if crn == frn:
                    row[name] = float(lo)
                else:
                    hi = vals[int(np.searchsorted(cum, crn + 1))]
                    row[name] = float((crn - rn) * lo + (rn - frn) * hi)
            row["n"] = n
            out_rows.append(row)
        cols = key_cols + list(quantiles) + ["n"]
        if not out_rows:
            return pd.DataFrame(columns=cols)
        return pd.DataFrame(out_rows)[cols]

    partials = ds.map_batches(partial, batch_format="pandas")
    return bucketed_groupby(partials, key_cols, merge, buckets=buckets)


def _grouping_sets_ladder(partials: rd.Dataset, key_cols: list[str],
                          value_cols: list[str], subsets: list[list[str]],
                          buckets: int | None, chain: bool) -> rd.Dataset:
    """Shared machinery of ROLLUP and CUBE: aggregate ``partials`` once at
    the finest granularity (the only exchange that sees raw-sized data),
    then produce one level per entry of ``subsets`` (each a proper subset
    of ``key_cols``; ``[]`` = grand total), null-padding rolled-away key
    columns. ``chain=True`` re-aggregates each level from the PREVIOUS one
    (valid when subsets are nested, as in ROLLUP — slightly less data per
    step); ``chain=False`` re-aggregates every level from the fine level
    (CUBE's arbitrary subsets). An EMPTY input yields an empty dataset at
    every granularity (note: SQL's () grouping set would emit one all-null
    row; partials of an empty input carry no value to aggregate, so this
    operator omits it)."""
    import pyarrow as pa

    fine = bucketed_groupby(partials, key_cols,
                            sum_merge(key_cols, value_cols), buckets)
    # every level re-reads this; it is vocabulary-sized by construction
    fine = fine.materialize()
    fine_schema = fine.schema()
    if fine_schema is None or fine.count() == 0:
        return fine
    key_types = {c: fine_schema.base_schema.field(c).type for c in key_cols}

    def pad(present: list[str]):
        def fn(t: pa.Table) -> pa.Table:
            cols = {c: (t[c] if c in present
                        else pa.nulls(t.num_rows, type=key_types[c]))
                    for c in key_cols}
            for v in value_cols:
                cols[v] = t[v]
            return pa.table(cols)
        return fn

    def total_stamp(t: pa.Table) -> pa.Table:
        return pa.table({"__total": pa.array(["*"] * t.num_rows),
                         **{v: t[v] for v in value_cols}})

    def total_merge(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby("__total", as_index=False, sort=False)[value_cols].sum()
        return out.drop(columns=["__total"])

    levels = [fine]
    cur = fine
    for keys in subsets:
        src_lvl = cur if chain else fine
        if keys:
            cur = bucketed_groupby(
                src_lvl.select_columns(keys + value_cols), keys,
                sum_merge(keys, value_cols), buckets=8)
            levels.append(cur.map_batches(pad(keys), batch_format="pyarrow"))
        else:
            total = bucketed_groupby(
                src_lvl.map_batches(total_stamp, batch_format="pyarrow"),
                ["__total"], total_merge, buckets=8)
            levels.append(total.map_batches(pad([]), batch_format="pyarrow"))

    return levels[0].union(*levels[1:])


def grouped_rollup(partials: rd.Dataset, key_cols: list[str],
                   value_cols: list[str], *,
                   buckets: int | None = None) -> rd.Dataset:
    """SQL ``GROUP BY ROLLUP(key_cols...)``: the union of aggregates at
    every prefix granularity (all keys, all-but-last, ..., grand total),
    with rolled-away key columns emitted as nulls.

    Scale shape: the RAW input is exchanged exactly once — at the finest
    granularity. Every coarser level re-aggregates the NEXT-FINER level,
    which is vocabulary-sized (distinct key combinations), so the rollup
    ladder costs len(key_cols) tiny 8-bucket exchanges on top of the one
    real shuffle. ``partials`` must already carry ``key_cols + value_cols``
    with value columns summable (pre-aggregate raw rows in a map_batches
    partial first, as every caller of bucketed_groupby does).

    Caveat: a genuine null VALUE in a key column is indistinguishable from
    a rolled-up marker in the output (same as reading SQL ROLLUP output
    without GROUPING())."""
    subsets = [key_cols[:i] for i in range(len(key_cols) - 1, -1, -1)]
    return _grouping_sets_ladder(partials, key_cols, value_cols, subsets,
                                 buckets, chain=True)


def grouped_cube(partials: rd.Dataset, key_cols: list[str],
                 value_cols: list[str], *,
                 buckets: int | None = None) -> rd.Dataset:
    """SQL ``GROUP BY CUBE(key_cols...)``: aggregates at EVERY subset of
    the key columns (2^k granularities), rolled-away keys emitted as
    nulls. Same scale shape as :func:`grouped_rollup` — the raw input is
    exchanged once at the finest granularity, and each of the 2^k - 1
    coarser levels re-aggregates the vocabulary-sized finest level with a
    tiny 8-bucket exchange. k is expected to be small (2-4); the cost is
    in the single real shuffle, not the ladder."""
    import itertools

    subsets = [list(s) for r in range(len(key_cols) - 1, 0, -1)
               for s in itertools.combinations(key_cols, r)]
    subsets.append([])
    return _grouping_sets_ladder(partials, key_cols, value_cols, subsets,
                                 buckets, chain=False)


_CMS_SEED = np.uint64(0xA0761D6478BD642F)


def _cms_cells(crc: np.ndarray, depth: int, width: int) -> np.ndarray:
    """(depth, n) flattened sketch cell ids (row r occupies
    [r*width, (r+1)*width)) from uint32 item hashes."""
    base = crc.astype(np.uint64)
    return np.stack([
        (_splitmix64(base ^ (_CMS_SEED * np.uint64(r + 1)))
         % np.uint64(width)).astype(np.int64) + r * width
        for r in range(depth)])


def approx_top_k(partials: rd.Dataset, item_col: str, count_col: str, *,
                 k: int = 20, depth: int = 4, width: int = 1 << 14,
                 candidates_per_block: int = 512) -> pd.DataFrame:
    """Heavy hitters over an unbounded item vocabulary via a count-min
    sketch: (item, estimate) for the top ``k`` items by estimated count,
    deterministically ordered (estimate desc, item asc).

    This is the FIXED-STATE alternative to the exact top-k of
    ``q_top_tokens``: the exact path's reduce output is vocabulary-sized,
    while here the merged state is the ``depth x width`` sketch (constant)
    plus a candidate set bounded by ``candidates_per_block x blocks`` —
    at 10^9-token vocabularies the sketch exchange still moves at most
    ``depth x width`` distinct cells per reducer. CMS guarantees
    estimate >= true count (pinned in tests); with width >> vocabulary the
    estimates are exact.

    RECALL CAVEAT (inherent to the candidate pass, round-3 ADVICE): an
    item only becomes a candidate if it ranks in the top
    ``candidates_per_block`` of at least ONE block's partial counts. A
    true heavy hitter spread so thinly that it is block-locally cold
    everywhere (possible when per-block vocabulary >> candidates_per_block
    and the item's mass is uniform) is missed even though its CMS estimate
    would win. The effective candidate budget therefore scales with ``k``
    (``max(candidates_per_block, 32 * k)``); callers with adversarially
    uniform heavy hitters should raise ``candidates_per_block`` toward
    their per-block vocabulary, or pre-aggregate into fewer, larger
    blocks (the reference exact path has no such gap — use it when the
    vocabulary is small enough to shuffle).

    ``partials``: per-block pre-aggregated (item, count) rows, same
    contract as every ``bucketed_groupby`` caller."""
    import ray

    from .hashing import crc32_column

    # consumed twice (sketch pass + candidate pass); the partials are slim
    # (item, count) rows, far cheaper to hold than to recompute the
    # upstream per-block counting
    partials = partials.materialize()

    def to_cells(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"cell": pa.array([], pa.int64()),
                             "cnt": pa.array([], pa.int64())})
        crc = crc32_column(t[item_col])
        cnt = t[count_col].to_numpy(zero_copy_only=False).astype(np.int64)
        cells = _cms_cells(crc, depth, width)
        return pa.table({"cell": pa.array(cells.ravel()),
                         "cnt": pa.array(np.tile(cnt, depth))})

    sketch = bucketed_groupby(
        partials.map_batches(to_cells, batch_format="pyarrow"),
        ["cell"], sum_merge(["cell"], ["cnt"]), buckets=8).to_pandas()
    dense = np.zeros(depth * width, dtype=np.int64)
    if len(sketch):
        dense[sketch["cell"].to_numpy()] = sketch["cnt"].to_numpy()
    dense_ref = ray.put(dense)

    cands_budget = max(candidates_per_block, 32 * k)

    def to_cands(t: pa.Table) -> pa.Table:
        df = t.select([item_col, count_col]).to_pandas()
        top = df.nlargest(cands_budget, count_col)
        return pa.table({item_col: pa.array(top[item_col].astype(str),
                                            pa.string())})

    cands = bucketed_groupby(
        partials.map_batches(to_cands, batch_format="pyarrow"),
        [item_col], lambda df: df.drop_duplicates([item_col]), buckets=8)

    def estimate(t: pa.Table) -> pa.Table:
        d = ray.get(dense_ref)
        if t.num_rows == 0:
            return pa.table({item_col: pa.array([], pa.string()),
                             "est": pa.array([], pa.int64())})
        cells = _cms_cells(crc32_column(t[item_col]), depth, width)
        return pa.table({item_col: t[item_col],
                         "est": pa.array(d[cells].min(axis=0))})

    top = (cands.map_batches(estimate, batch_format="pyarrow")
           .sort(["est", item_col], descending=[True, False])
           .limit(k))
    return top.to_pandas()


def pivot_count(ds: rd.Dataset, key_cols: list[str], pivot_col: str,
                categories: list[str], *, value_col: str | None = None,
                buckets: int | None = None) -> rd.Dataset:
    """Wide conditional aggregation (SQL ``count(*)/sum(v) FILTER (WHERE
    pivot_col = c)`` per category): one output row per key tuple with a
    ``int64`` column per category.

    ``categories`` is an explicit list — the schema is fixed up front, the
    way a distributed pivot must be (a data-driven column set would need a
    pre-pass and make the output schema a function of the data). Rows with
    other categories are ignored. The partial pivots INSIDE the block, so
    the shuffle moves one wide row per (key, block), never raw rows."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        sub = df[df[pivot_col].isin(categories)]
        vals = (sub[value_col] if value_col is not None
                else pd.Series(np.ones(len(sub), dtype=np.int64),
                               index=sub.index))
        # groupby+unstack, not pivot_table: pivot_table silently drops
        # NaN index keys, while SQL GROUP BY keeps the NULL group
        wide = (pd.DataFrame({**{c: sub[c] for c in key_cols},
                              "_p": sub[pivot_col], "_v": vals})
                .groupby(key_cols + ["_p"], sort=False, dropna=False)["_v"]
                .sum().unstack("_p", fill_value=0))
        wide = wide.reindex(columns=categories, fill_value=0).astype("int64")
        wide.columns = list(categories)
        return wide.reset_index()

    return bucketed_groupby(ds.map_batches(partial, batch_format="pandas"),
                            key_cols, sum_merge(key_cols, list(categories)),
                            buckets=buckets)


def grouped_approx_quantile(ds: rd.Dataset, key_cols: list[str],
                            value_col: str, quantiles: dict[str, float],
                            *, bins: int = 1024,
                            buckets: int | None = None) -> rd.Dataset:
    """APPROXIMATE quantiles per group over a CONTINUOUS (unbounded-
    cardinality) value column — the fixed-state complement to the exact
    histogram quantiles, the way HLL complements exact count-distinct:
    ``grouped_quantile_disc/cont`` ship one row per DISTINCT value per
    block, which is unbounded for raw floats; this op ships exactly one
    row per (key, block) whose state is a re-binnable equi-width histogram
    (min, max, ``bins`` counts — ~8 KB at the default), so a 10^12-row
    key costs the same shuffle bytes as a 10^3-row key.

    Merge re-bins each partial histogram into the group's global [min,
    max] range by bin center (deterministic, no RNG) and interpolates the
    quantile within the hit bin. Error is bounded in VALUE terms by about
    one partial bin width + one final bin width (range/bins each) — tight
    for smooth distributions, coarse for heavy point masses (a mass at one
    value spreads over its bin; rank error can reach that bin's mass).
    Callers needing exact answers on discrete data use the exact
    operators. Output columns are float64 estimates plus ``n``."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        key = key_cols[0] if len(key_cols) == 1 else key_cols
        for k, g in df.groupby(key, sort=False, dropna=False):
            v = g[value_col].to_numpy(dtype=np.float64)
            v = v[~np.isnan(v)]
            if not len(v):
                continue
            lo, hi = float(v.min()), float(v.max())
            if hi > lo:
                counts = np.histogram(v, bins=bins, range=(lo, hi))[0]
            else:
                counts = np.zeros(bins, dtype=np.int64)
                counts[0] = len(v)
            row = dict(zip(key_cols, k if isinstance(k, tuple) else (k,)))
            row.update(_lo=lo, _hi=hi, _counts=counts.astype(np.int64))
            rows.append(row)
        cols = key_cols + ["_lo", "_hi", "_counts"]
        if not rows:
            return pd.DataFrame(columns=cols)
        return pd.DataFrame(rows)[cols]

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        out_rows = []
        key = key_cols[0] if len(key_cols) == 1 else key_cols
        for k, g in df.groupby(key, sort=False, dropna=False):
            glo = float(g["_lo"].min())
            ghi = float(g["_hi"].max())
            acc = np.zeros(bins, dtype=np.float64)
            width = (ghi - glo) / bins if ghi > glo else 0.0
            for lo, hi, counts in zip(g["_lo"], g["_hi"], g["_counts"]):
                counts = np.asarray(counts, dtype=np.float64)
                if width == 0.0:
                    acc[0] += counts.sum()
                    continue
                pw = (hi - lo) / bins
                centers = (lo + (np.arange(bins) + 0.5) * pw if pw > 0
                           else np.full(bins, lo))
                idx = np.clip(((centers - glo) / width).astype(np.int64),
                              0, bins - 1)
                np.add.at(acc, idx, counts)
            n = acc.sum()
            cum = np.cumsum(acc)
            row = dict(zip(key_cols, k if isinstance(k, tuple) else (k,)))
            for name, q in quantiles.items():
                if width == 0.0:
                    row[name] = glo
                    continue
                rank = q * (n - 1) + 1          # 1-indexed continuous rank
                b = int(np.searchsorted(cum, rank))
                b = min(b, bins - 1)
                prev = cum[b - 1] if b > 0 else 0.0
                inbin = acc[b] if acc[b] > 0 else 1.0
                frac = np.clip((rank - prev) / inbin, 0.0, 1.0)
                row[name] = glo + (b + frac) * width
            row["n"] = int(n)
            out_rows.append(row)
        cols = key_cols + list(quantiles) + ["n"]
        if not out_rows:
            return pd.DataFrame(columns=cols)
        return pd.DataFrame(out_rows)[cols]

    partials = ds.map_batches(partial, batch_format="pandas")
    return bucketed_groupby(partials, key_cols, merge, buckets=buckets)


def grouped_argmax(ds: rd.Dataset, key_cols: list[str], value_col: str, *,
                   tiebreak: str, buckets: int | None = None) -> rd.Dataset:
    """WHOLE-ROW top-1 per group: the row with the maximum ``value_col``
    (ties -> smallest ``tiebreak``, which must be unique within a group
    for a deterministic result) — SQL's ``QUALIFY row_number() OVER
    (PARTITION BY key ORDER BY value DESC, tiebreak) = 1``.

    Scale shape: the classic combiner — each block ships at most one row
    per group it contains, so the exchange carries |groups| x |blocks|
    rows max, never raw data; the merge re-applies the same selection."""

    def best(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            [*key_cols, value_col, tiebreak],
            ascending=[*([True] * len(key_cols)), False, True],
            kind="mergesort")
        return df.groupby(key_cols, sort=False, dropna=False).head(1)

    partials = ds.map_batches(best, batch_format="pandas")
    return bucketed_groupby(partials, key_cols, best, buckets=buckets)


def unpivot(ds: rd.Dataset, *, id_cols: list[str], value_cols: list[str],
            var_col: str = "name", val_col: str = "value") -> rd.Dataset:
    """Wide -> long reshape (SQL UNPIVOT / pandas melt): one output row
    per (input row, value column), with the column name in ``var_col``.
    Pure per-batch map, no shuffle; value columns must share a type (the
    melt would otherwise upcast to object)."""

    def melt(df: pd.DataFrame) -> pd.DataFrame:
        return df.melt(id_vars=id_cols, value_vars=value_cols,
                       var_name=var_col, value_name=val_col)

    return ds.map_batches(melt, batch_format="pandas")


def grouped_grouping_sets(partials: rd.Dataset, key_cols: list[str],
                          value_cols: list[str], sets: list[list[str]], *,
                          buckets: int | None = None) -> rd.Dataset:
    """SQL ``GROUP BY GROUPING SETS (...)`` — the general form behind
    ROLLUP (nested prefixes) and CUBE (all subsets): aggregates at each
    requested granularity, rolled-away key columns emitted as nulls.
    Same scale shape as the ladder both special cases share: the raw
    input is exchanged once at the finest granularity; every requested
    set re-aggregates that vocabulary-sized level with a tiny 8-bucket
    exchange. Each set must be a subset of ``key_cols``; the full set is
    allowed (and cheap — it IS the fine level). ``[]`` = grand total."""
    subsets, with_fine = [], False
    for s_ in sets:
        extra = set(s_) - set(key_cols)
        if extra:
            raise ValueError(f"grouping set {s_} has non-key columns "
                             f"{sorted(extra)}")
        if list(s_) == list(key_cols):
            with_fine = True
        else:
            subsets.append(list(s_))
    out = _grouping_sets_ladder(partials, key_cols, value_cols, subsets,
                                buckets, chain=False)
    if not with_fine:
        # ladder always materializes the fine level first; drop it from
        # the output when the caller did not ask for it
        import pyarrow.compute as pc

        def drop_fine(t: pa.Table) -> pa.Table:
            mask = None
            for c in key_cols:
                isnull = pc.is_null(t[c])
                mask = isnull if mask is None else pc.or_(mask, isnull)
            return t.filter(mask)

        out = out.map_batches(drop_fine, batch_format="pyarrow")
    return out


def grouped_moments(ds: rd.Dataset, key_cols: list[str], value_col: str, *,
                    buckets: int | None = None) -> rd.Dataset:
    """Mean / population variance / stddev per group from EXACT integer
    combiner sums: per-block partials carry (n, sum, sum-of-squares) per
    key — one row per key per block regardless of row count — and the
    merge evaluates ``mean = S/n`` and ``var = (n*S2 - S^2)/n^2`` in
    float64 from the exact int64 sums, so the result is bit-reproducible
    and an explicit-formula SQL oracle matches it exactly (streaming
    var_pop implementations differ in last-ulp; the closed formula over
    exact sums does not). ``value_col`` must be integer-valued (discretize
    floats to cents first, the engine's usual idiom); |S2| must stay
    below 2^63 — at cents scale that is ~10^14 rows per group."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        v = df[value_col].to_numpy()
        if v.dtype.kind not in "iu":
            raise ValueError(
                f"grouped_moments: {value_col!r} must be integer-valued "
                f"(got {v.dtype}); discretize first")
        g = pd.DataFrame({**{k: df[k] for k in key_cols},
                          "_n": np.ones(len(df), dtype=np.int64),
                          "_s": v.astype(np.int64),
                          "_s2": v.astype(np.int64) ** 2})
        return g.groupby(key_cols, as_index=False, sort=False,
                         dropna=False).sum()

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        f = df.groupby(key_cols, as_index=False, sort=False,
                       dropna=False)[["_n", "_s", "_s2"]].sum()
        n = f["_n"].to_numpy(dtype=np.float64)
        s = f["_s"].to_numpy(dtype=np.float64)
        s2 = f["_s2"].to_numpy(dtype=np.float64)
        out = f[key_cols].copy()
        out["n"] = f["_n"].astype("int64")
        out["mean"] = s / n
        out["var_pop"] = (n * s2 - s * s) / (n * n)
        out["std_pop"] = np.sqrt(out["var_pop"].to_numpy())
        return out

    partials = ds.map_batches(partial, batch_format="pandas")
    return bucketed_groupby(partials, key_cols, merge, buckets=buckets)


def grouped_corr(ds: rd.Dataset, key_cols: list[str], x_col: str,
                 y_col: str, *, buckets: int | None = None) -> rd.Dataset:
    """Population covariance and Pearson correlation per group from EXACT
    integer combiner sums — the bivariate sibling of ``grouped_moments``:
    per-block partials carry (n, Sx, Sy, Sxy, Sx2, Sy2) per key, one row
    per key per block, and the merge evaluates

        cov_pop = (n*Sxy - Sx*Sy) / n^2
        corr    = (n*Sxy - Sx*Sy) / (sqrt(n*Sx2 - Sx^2) * sqrt(n*Sy2 - Sy^2))

    in float64 from the exact int64 sums (bit-reproducible against the
    same closed formula in SQL). Zero-variance groups get corr = NULL
    (NaN), matching SQL corr(). Both columns must be integer-valued;
    cross-products must stay below 2^63."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        x = df[x_col].to_numpy()
        y = df[y_col].to_numpy()
        for name, v in ((x_col, x), (y_col, y)):
            if v.dtype.kind not in "iu":
                raise ValueError(
                    f"grouped_corr: {name!r} must be integer-valued "
                    f"(got {v.dtype}); discretize first")
        x = x.astype(np.int64)
        y = y.astype(np.int64)
        g = pd.DataFrame({**{k: df[k] for k in key_cols},
                          "_n": np.ones(len(df), dtype=np.int64),
                          "_sx": x, "_sy": y, "_sxy": x * y,
                          "_sx2": x * x, "_sy2": y * y})
        return g.groupby(key_cols, as_index=False, sort=False,
                         dropna=False).sum()

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        f = df.groupby(key_cols, as_index=False, sort=False, dropna=False)[
            ["_n", "_sx", "_sy", "_sxy", "_sx2", "_sy2"]].sum()
        n = f["_n"].to_numpy(dtype=np.float64)
        sx = f["_sx"].to_numpy(dtype=np.float64)
        sy = f["_sy"].to_numpy(dtype=np.float64)
        sxy = f["_sxy"].to_numpy(dtype=np.float64)
        sx2 = f["_sx2"].to_numpy(dtype=np.float64)
        sy2 = f["_sy2"].to_numpy(dtype=np.float64)
        num = n * sxy - sx * sy
        out = f[key_cols].copy()
        out["n"] = f["_n"].astype("int64")
        out["cov_pop"] = num / (n * n)
        with np.errstate(invalid="ignore", divide="ignore"):
            out["corr"] = num / (np.sqrt(n * sx2 - sx * sx)
                                 * np.sqrt(n * sy2 - sy * sy))
        return out

    partials = ds.map_batches(partial, batch_format="pandas")
    return bucketed_groupby(partials, key_cols, merge, buckets=buckets)


def grouped_string_agg(ds: rd.Dataset, key_cols: list[str], value_col: str,
                       order_cols: list[str], *, sep: str = ">",
                       out_col: str = "path", distinct: bool = False,
                       buckets: int | None = None) -> rd.Dataset:
    """SQL ``string_agg(value, sep ORDER BY order_cols)`` per key: one
    bucketed shuffle on the key, then a whole-bucket mergesort + per-group
    join. ``order_cols`` must be a total order within each key (add a
    unique id as tiebreak) or the concatenation is not deterministic.
    Per-key output length is unbounded by construction — callers cap the
    per-key row count upstream when keys can be hot (the event-path use
    caps sessions, not lifetimes, at 100-TB scale).

    ``distinct=True`` = SQL ``string_agg(DISTINCT value ...)``
    (collect-set): duplicate (key, value) rows collapse to the first
    under the sort order — SQL only allows ORDER BY the DISTINCT
    expression itself, so pass ``order_cols=[value_col]`` for parity.
    Callers may pre-dedup per block to slim the shuffle; the merge-side
    dedup here is what makes it exact across blocks."""

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([*key_cols, *order_cols], kind="mergesort")
        if distinct:
            df = df.drop_duplicates([*key_cols, value_col])
        out = (df.groupby(key_cols, as_index=False, sort=False,
                          dropna=False)[value_col]
               .agg(lambda s: sep.join(s.astype(str))))
        return out.rename(columns={value_col: out_col})

    return bucketed_groupby(ds, key_cols, merge, buckets=buckets)


def grouped_mode(ds: rd.Dataset, key_cols: list[str], value_col: str, *,
                 buckets: int | None = None) -> rd.Dataset:
    """Most frequent value per group, deterministic tiebreak = smallest
    value. Combiner shape: per-block (key, value) partial counts — one row
    per distinct (key, value) per block — then a bucketed merge that sums
    counts and takes the per-key argmax. Output: key_cols + (value_col,
    n = the winner's exact count). The shuffle carries the (key x value)
    vocabulary, not rows."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby([*key_cols, value_col], as_index=False,
                       sort=False, dropna=False).size()
        return g.rename(columns={"size": "n"})

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        f = df.groupby([*key_cols, value_col], as_index=False, sort=False,
                       dropna=False)["n"].sum()
        f = f.sort_values([*key_cols, "n", value_col],
                          ascending=[*(True,) * len(key_cols), False, True],
                          kind="mergesort")
        out = f.groupby(key_cols, as_index=False, sort=False,
                        dropna=False).head(1)
        out["n"] = out["n"].astype("int64")
        return out.reset_index(drop=True)

    partials = ds.map_batches(partial, batch_format="pandas")
    return bucketed_groupby(partials, key_cols, merge, buckets=buckets)


def grouped_top_n(ds: rd.Dataset, key_cols: list[str], value_col: str, *,
                  n: int, tie_cols: list[str] | None = None,
                  ascending: bool = False,
                  buckets: int | None = None) -> rd.Dataset:
    """Top-``n`` rows per key — the combiner form of
    ``ROW_NUMBER() OVER (PARTITION BY key ORDER BY value) <= n``: each
    block keeps only its local top-``n`` per key (at most ``n·keys`` rows
    leave any block), the bucketed merge re-ranks the surviving
    ``<= n·keys·blocks`` rows and stamps ``rn`` (1-based). Orders by
    ``value_col`` (desc by default) with ``tie_cols`` ascending as the
    deterministic tiebreak — together they must form a total order within
    each key or ``rn`` is nondeterministic. Far cheaper than a full
    window shuffle: the exchange moves candidate rows only, never the
    whole table."""
    ties = tie_cols or []
    sort_cols = key_cols + [value_col] + ties
    asc = [True] * len(key_cols) + [ascending] + [True] * len(ties)

    def local_top(df: pd.DataFrame) -> pd.DataFrame:
        return (df.sort_values(sort_cols, ascending=asc, kind="mergesort")
                .groupby(key_cols, sort=False, dropna=False).head(n))

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        out = (df.sort_values(sort_cols, ascending=asc, kind="mergesort")
               .groupby(key_cols, sort=False, dropna=False).head(n)
               .reset_index(drop=True))
        out["rn"] = (out.groupby(key_cols, sort=False, dropna=False)
                     .cumcount().to_numpy(np.int64) + 1)
        return out

    partials = ds.map_batches(local_top, batch_format="pandas")
    return bucketed_groupby(partials, key_cols, merge, buckets=buckets)


def grouped_regression(ds: rd.Dataset, key_cols: list[str], x_col: str,
                       y_col: str, *,
                       buckets: int | None = None) -> rd.Dataset:
    """Per-group simple linear regression (SQL ``regr_slope`` /
    ``regr_intercept`` / ``regr_r2``) from EXACT integer combiner sums —
    the fitting sibling of ``grouped_corr``: per-block partials carry
    (n, Sx, Sy, Sxy, Sx2, Sy2) per key and the merge evaluates

        slope     = (n*Sxy - Sx*Sy) / (n*Sx2 - Sx^2)
        intercept = (Sy - slope*Sx) / n
        r2        = (n*Sxy - Sx*Sy)^2 / ((n*Sx2 - Sx^2) * (n*Sy2 - Sy^2))

    in float64 from the exact int64 sums, bit-reproducible against the
    same closed formula in SQL. Zero-x-variance groups get NaN. Both
    columns must be integer-valued; cross-products below 2^63."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        x = df[x_col].to_numpy()
        y = df[y_col].to_numpy()
        for name, v in ((x_col, x), (y_col, y)):
            if v.dtype.kind not in "iu":
                raise ValueError(
                    f"grouped_regression: {name!r} must be integer-valued "
                    f"(got {v.dtype}); discretize first")
        x = x.astype(np.int64)
        y = y.astype(np.int64)
        g = pd.DataFrame({**{k: df[k] for k in key_cols},
                          "_n": np.ones(len(df), dtype=np.int64),
                          "_sx": x, "_sy": y, "_sxy": x * y,
                          "_sx2": x * x, "_sy2": y * y})
        return g.groupby(key_cols, as_index=False, sort=False,
                         dropna=False).sum()

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        f = df.groupby(key_cols, as_index=False, sort=False, dropna=False)[
            ["_n", "_sx", "_sy", "_sxy", "_sx2", "_sy2"]].sum()
        n = f["_n"].to_numpy(dtype=np.float64)
        sx = f["_sx"].to_numpy(dtype=np.float64)
        sy = f["_sy"].to_numpy(dtype=np.float64)
        sxy = f["_sxy"].to_numpy(dtype=np.float64)
        sx2 = f["_sx2"].to_numpy(dtype=np.float64)
        sy2 = f["_sy2"].to_numpy(dtype=np.float64)
        num = n * sxy - sx * sy
        varx = n * sx2 - sx * sx
        vary = n * sy2 - sy * sy
        out = f[key_cols].copy()
        out["n"] = f["_n"].astype("int64")
        with np.errstate(invalid="ignore", divide="ignore"):
            slope = num / varx
            out["slope"] = slope
            out["intercept"] = (sy - slope * sx) / n
            out["r2"] = (num * num) / (varx * vary)
        return out

    partials = ds.map_batches(partial, batch_format="pandas")
    return bucketed_groupby(partials, key_cols, merge, buckets=buckets)


def profile_numeric(ds: rd.Dataset, cols: list[str], *,
                    exact_scale: int | None = None) -> pd.DataFrame:
    """One-pass data-quality profile of numeric columns: per column the
    row count, null count, min, max and mean — the stats a lakehouse
    ingest gate checks before accepting a partition. Each block folds to
    ONE partial row per column (count/nulls/min/max/sum), the driver
    merges <= cols x blocks rows; no shuffle.

    With ``exact_scale`` set (an EXPLICIT opt-in — e.g. 100 for
    2-decimal money columns), per-block sums are exact int64
    ``round(v * scale)`` partials and the mean is ``(sum / scale) / n``
    computed once on the driver — the mean is then BIT-EXACT regardless
    of block order and matches a SQL oracle written as
    ``sum(CAST(round(c*scale) AS BIGINT)) / scale / count(c)``. The
    CALLER owns representability: every value must be exact at that
    scale and |v|*scale must fit int64 — tiny values round to 0 and
    huge ones would wrap, which is why the generic default is ``None``
    (blockwise float64 sums; last-ulp mean is merge-order-dependent).
    All-null columns report NaN min/max/mean."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for c in cols:
            v = df[c]
            nn = v.notna()
            vv = v[nn].to_numpy(np.float64)
            if exact_scale is not None:
                s = np.round(vv * exact_scale).astype(np.int64).sum() \
                    if len(vv) else np.int64(0)
            else:
                s = vv.sum() if len(vv) else 0.0
            rows.append({
                "col": c,
                "n": np.int64(len(v)),
                "nulls": np.int64((~nn).sum()),
                "min_v": vv.min() if len(vv) else np.nan,
                "max_v": vv.max() if len(vv) else np.nan,
                "sum_v": s})
        return pd.DataFrame(rows)

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    g = parts.groupby("col", as_index=False).agg(
        n=("n", "sum"), nulls=("nulls", "sum"),
        min_v=("min_v", "min"), max_v=("max_v", "max"),
        sum_v=("sum_v", "sum"))
    nonnull = (g["n"] - g["nulls"]).to_numpy(np.float64)
    if exact_scale is not None:
        tot = g["sum_v"].to_numpy(np.int64).astype(np.float64) / exact_scale
    else:
        tot = g["sum_v"].to_numpy(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        g["avg_v"] = np.where(nonnull > 0, tot / nonnull, np.nan)
    g = g.drop(columns=["sum_v"]).astype({"n": "int64", "nulls": "int64"})
    return g.sort_values("col", kind="mergesort").reset_index(drop=True)


def grouped_zscore_outliers(ds: rd.Dataset, key_cols: list[str],
                            value_col: str, *, threshold: float = 3.0,
                            buckets: int | None = None) -> rd.Dataset:
    """Rows whose value lies more than ``threshold`` population standard
    deviations from their group's mean — the distributed anomaly gate:
    exact-int-sum moments per key (``grouped_moments``), joined back
    through one co-bucketed exchange (works for UNBOUNDED key
    vocabularies — no driver broadcast), z computed in float64 with the
    same closed formula the SQL oracle writes. Zero-variance groups
    emit nothing (z is undefined there, and SQL's ``std > 0`` guard
    drops them identically). Appends a ``z`` column."""
    from .joins import auto_inner_join

    if len(key_cols) != 1:
        raise ValueError("grouped_zscore_outliers: single key column "
                         "only (composite keys: pre-concatenate)")
    key = key_cols[0]
    mom = grouped_moments(ds, key_cols, value_col, buckets=buckets)

    slim = mom.select_columns([key, "mean", "std_pop"])
    # cost-based: the moments table is one row per key — broadcast at
    # any realistic group vocabulary, co-bucketed shuffle only when the
    # key space is itself corpus-sized
    joined = auto_inner_join(ds, slim, key, buckets=buckets)

    def flag(df: pd.DataFrame) -> pd.DataFrame:
        std = df["std_pop"].to_numpy(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            z = ((df[value_col].to_numpy(np.float64)
                  - df["mean"].to_numpy(np.float64)) / std)
        keep = (std > 0) & (np.abs(z) > threshold)
        out = df[keep].drop(columns=["mean", "std_pop"])
        out["z"] = z[keep]
        return out

    return joined.map_batches(flag, batch_format="pandas")


def pmi_pairs(ds: rd.Dataset, group_col: str, item_col: str, *,
              min_pair: int = 2,
              buckets: int | None = None) -> rd.Dataset:
    """Pointwise mutual information of item pairs co-occurring within a
    group — the co-occurrence statistic behind entity-association and
    phrase mining:

        pmi(a, b) = ln( N * c_ab / (c_a * c_b) )

    with N = distinct groups, c_x = groups containing x, c_ab = groups
    containing both. One bucketed exchange keyed on the GROUP dedups
    (group, item) globally per group and emits pair partials (pair
    fan-out is bounded by the per-group item cap — the KG's cap-15
    contract); a second tiny exchange sums pair counts; per-item
    counts are item-vocabulary-bounded and broadcast. Pairs are
    ordered a < b and filtered to ``c_ab >= min_pair``."""
    import ray

    def slim(df: pd.DataFrame) -> pd.DataFrame:
        # NULL items are dropped up front: SQL's a.label < b.label pair
        # comparison never matches a NULL either, and a null in a mixed
        # object sort would TypeError
        df = df[df[item_col].notna()]
        return df[[group_col, item_col]].drop_duplicates()

    def group_merge(df: pd.DataFrame) -> pd.DataFrame:
        dl = df.drop_duplicates([group_col, item_col])
        la, lb = [], []
        for _, g in dl.groupby(group_col, sort=False, dropna=False):
            items = np.sort(g[item_col].to_numpy(dtype=object))
            if len(items) < 2:
                continue
            i, j = np.triu_indices(len(items), k=1)
            la.append(items[i])
            lb.append(items[j])
        if not la:
            return pd.DataFrame({"la": pd.Series([], dtype=object),
                                 "lb": pd.Series([], dtype=object),
                                 "cab": pd.Series([], dtype="int64")})
        return (pd.DataFrame({"la": np.concatenate(la),
                              "lb": np.concatenate(lb),
                              "cab": np.int64(1)})
                .groupby(["la", "lb"], as_index=False, sort=False).sum())

    deduped = bucketed_groupby(
        ds.map_batches(slim, batch_format="pandas"),
        [group_col], lambda df: df.drop_duplicates([group_col, item_col]),
        buckets=buckets).materialize()

    # deduped is the output of a group-keyed bucketed_groupby: every
    # block already holds WHOLE groups, so pair generation is a plain
    # map — no second exchange on the same key
    pair_partials = deduped.map_batches(group_merge,
                                        batch_format="pandas")
    cab = bucketed_groupby(pair_partials, ["la", "lb"],
                           sum_merge(["la", "lb"], ["cab"]),
                           buckets=buckets)

    def item_partial(df: pd.DataFrame) -> pd.DataFrame:
        return (df[[item_col]].assign(c=np.int64(1))
                .groupby(item_col, as_index=False, sort=False).sum())

    ca = (deduped.map_batches(item_partial, batch_format="pandas")
          .to_pandas().groupby(item_col, as_index=False).sum())
    ca_map = dict(zip(ca[item_col], ca["c"].astype(int)))

    def n_partial(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({group_col: df[group_col].unique()})

    n_groups = int(deduped.map_batches(n_partial, batch_format="pandas")
                   .to_pandas()[group_col].nunique())
    ca_ref = ray.put(ca_map)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["cab"] >= min_pair]
        if not len(df):
            return pd.DataFrame({"la": pd.Series([], dtype=object),
                                 "lb": pd.Series([], dtype=object),
                                 "cab": pd.Series([], dtype="int64"),
                                 "pmi": pd.Series([], dtype="float64")})
        m = ray.get(ca_ref)
        c_a = df["la"].map(m).to_numpy(np.float64)
        c_b = df["lb"].map(m).to_numpy(np.float64)
        cabv = df["cab"].to_numpy(np.float64)
        arg = float(n_groups) * cabv / (c_a * c_b)
        # math.log (libm), not np.log: numpy's SIMD log differs from
        # libm in the last ulp on ~20% of inputs, and DuckDB's ln IS
        # libm — elementwise is fine here, the pair table is
        # vocabulary-bounded
        import math
        pmi = np.array([math.log(v) for v in arg], dtype=np.float64)
        out = df.copy()
        out["cab"] = out["cab"].astype("int64")
        out["pmi"] = pmi
        return out

    return cab.map_batches(finish, batch_format="pandas")


def skyline_2d(ds: rd.Dataset, x_col: str, y_col: str, *,
               buckets: int = 1) -> rd.Dataset:
    """Distributed 2-D skyline (Pareto frontier): rows not DOMINATED by
    any other row, where a dominator has ``x`` <= and ``y`` >= with at
    least one strict (x minimized, y maximized — flip signs to change
    direction). Output: distinct surviving ``(x, y)`` pairs with their
    total multiplicity ``n`` (equal pairs never dominate each other).

    Scale shape: each block reduces to its LOCAL skyline first — any
    globally non-dominated pair is locally non-dominated, and a pair
    dominated in one block is dominated by a survivor of that block's
    partial, so local pruning loses nothing and the merge sees only
    skyline-sized partials. The final fold re-runs the same scan. The
    per-block scan is one sort + vectorized prefix-max — no pairwise
    stage anywhere."""

    def local_skyline(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.groupby([x_col, y_col], sort=False)
             .size().rename("n").reset_index())
        g["n"] = g["n"].astype(np.int64)
        return _skyline_scan(g, x_col, y_col)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        folded = (df.groupby([x_col, y_col], sort=False)["n"]
                  .sum().reset_index())
        return _skyline_scan(folded, x_col, y_col)

    partials = ds.map_batches(local_skyline, batch_format="pandas")
    return bucketed_groupby(partials, [x_col, y_col], merge,
                            buckets=buckets)


def _skyline_scan(g: pd.DataFrame, x_col: str, y_col: str) -> pd.DataFrame:
    """Skyline of distinct (x, y) pairs: sort x asc / y desc; within an
    x-group only the max-y pair can survive; it survives iff its y
    strictly exceeds the running max y over all smaller x."""
    if not len(g):
        return g
    g = g.sort_values([x_col, y_col], ascending=[True, False],
                      kind="mergesort").reset_index(drop=True)
    first = ~g[x_col].duplicated()
    cand = g[first].reset_index(drop=True)
    y = cand[y_col].to_numpy()
    prevmax = np.concatenate([[-np.inf], np.maximum.accumulate(y)[:-1]])
    return cand[y > prevmax]
