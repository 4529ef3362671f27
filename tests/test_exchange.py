"""ops/exchange.py: the raw-Ray hash exchange behind the fused KG job."""

import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from ai_knowledgegraph_extractor_ray.ops.exchange import hash_exchange
from ai_knowledgegraph_extractor_ray.stages.conversation import partition_of


def _corpus(n_keys: int, rows_per_key: int) -> rd.Dataset:
    df = pd.DataFrame({
        "conv_id": [f"k{i:04d}" for i in range(n_keys)
                    for _ in range(rows_per_key)],
        "val": list(range(n_keys * rows_per_key)),
    })
    return rd.from_pandas(df).repartition(6)


def collect_rows(pid: int, tbl: pa.Table) -> dict:
    return {"pid": pid,
            "keys": sorted(set(tbl["conv_id"].to_pylist())),
            "vals": sorted(tbl["val"].to_pylist()),
            "stamped": sorted(set(tbl["partition_id"].to_pylist()))}


def test_exchange_partitions_exactly():
    """Every row lands in exactly the partition crc32(key)%P says; nothing
    lost, nothing duplicated."""
    P = 7
    out = hash_exchange(_corpus(40, 3), P, collect_rows)
    all_vals = sorted(v for r in out for v in r["vals"])
    assert all_vals == list(range(40 * 3))
    for r in out:
        assert r["stamped"] == [r["pid"]]
        for k in r["keys"]:
            assert partition_of(k, P) == r["pid"]


def test_exchange_skip_suppresses_reduces():
    P = 5
    ds = _corpus(25, 2)
    full = {r["pid"]: r for r in hash_exchange(ds, P, collect_rows)}
    skipped = hash_exchange(_corpus(25, 2), P, collect_rows, skip={0, 3})
    pids = {r["pid"] for r in skipped}
    assert pids == set(full) - {0, 3}
    for r in skipped:
        assert r["vals"] == full[r["pid"]]["vals"]


def test_exchange_empty_partitions_yield_nothing():
    # 2 keys into 64 partitions: most reduces see zero rows -> None filtered
    out = hash_exchange(_corpus(2, 4), 64, collect_rows)
    assert len(out) == len({partition_of(f"k{i:04d}", 64) for i in range(2)})


def test_exchange_skewed_key_colocates():
    """A hot key's rows all reach ONE reduce, intact."""
    df = pd.DataFrame({"conv_id": ["hot"] * 5000 + ["cold"],
                       "val": list(range(5001))})
    out = hash_exchange(rd.from_pandas(df).repartition(8), 4, collect_rows)
    hot = [r for r in out if "hot" in r["keys"]]
    assert len(hot) == 1
    assert len(hot[0]["vals"]) in (5000, 5001)  # cold may share the bucket


def test_exchange_single_partition():
    out = hash_exchange(_corpus(10, 2), 1, collect_rows)
    assert len(out) == 1 and len(out[0]["vals"]) == 20


def test_exchange_deterministic_across_block_layout():
    """Same reduce inputs regardless of input block structure."""
    a = hash_exchange(_corpus(30, 2), 8, collect_rows, blocks_per_map=1)
    b = hash_exchange(_corpus(30, 2).repartition(2), 8, collect_rows,
                      blocks_per_map=4)
    da = {r["pid"]: r["vals"] for r in a}
    db = {r["pid"]: r["vals"] for r in b}
    assert da == db

def test_hierarchical_exchange_matches_single_level(monkeypatch):
    """Two-level exchange: identical results to the single-level one for
    several coarse factors, including skip sets and coarse == 1 / == P.
    The thresholds are lowered so a 16-partition exchange runs two
    levels."""
    from ai_knowledgegraph_extractor_ray.ops import exchange
    P = 16
    want = {r["pid"]: r["vals"]
            for r in hash_exchange(_corpus(60, 2), P, collect_rows)}
    monkeypatch.setattr(exchange, "TWO_LEVEL_ABOVE", 0)
    for coarse in (1, 3, 8, 16, 64):
        monkeypatch.setattr(exchange, "COARSE", coarse)
        got = {r["pid"]: r["vals"]
               for r in hash_exchange(_corpus(60, 2), P, collect_rows)}
        assert got == want, coarse
    monkeypatch.setattr(exchange, "COARSE", 4)
    skipped = hash_exchange(_corpus(60, 2), P, collect_rows, skip={1, 5, 9})
    assert {r["pid"] for r in skipped} == set(want) - {1, 5, 9}


def test_exchange_property_random_layouts():
    """Property test over every route: for random corpora, partition
    counts, block layouts and map grouping, the per-partition row
    multisets equal a driver-side reference partitioning — plain hash,
    hash + skew split map, the two-level coarse route (P > 1024) and
    range cuts."""
    import random
    import zlib

    import numpy as np
    import ray

    from ai_knowledgegraph_extractor_ray.ops.exchange import run_maps
    from ai_knowledgegraph_extractor_ray.ops.sort import RangeRoute

    def ref_pid(k: str, P: int, split_map: dict) -> int:
        crc = zlib.crc32(k.encode())
        if crc % P in split_map:
            off, s = split_map[crc % P]
            return P + off + (crc // P) % s
        return crc % P

    rng = random.Random(0xE0)
    for trial in range(12):
        route = ("hash", "split", "two-level", "range")[trial % 4]
        n = rng.randint(1, 400)
        P = (rng.choice([1025, 1500, 2100]) if route == "two-level"
             else rng.choice([1, 2, 5, 16, 63]))
        split_map: dict = {}
        if route == "split":
            off = 0
            for p in rng.sample(range(P), rng.randint(1, min(P, 3))):
                split_map[p] = (off, rng.randint(1, 4))
                off += split_map[p][1]
        keys = [f"key-{rng.randint(0, 50)}-{rng.choice('abc')}"
                for _ in range(n)]
        df = pd.DataFrame({"conv_id": keys, "val": list(range(n))})
        ds = rd.from_pandas(df).repartition(rng.randint(1, 9))
        bpm = rng.randint(1, 6)
        want: dict[int, list] = {}
        if route == "range":
            cuts = np.sort(np.array(rng.sample(range(n + 5), min(P - 1,
                                                                 n + 5))))
            for v in df["val"]:
                want.setdefault(int(np.searchsorted(cuts, v, "right")),
                                []).append(v)
            refs, sizes, _ = run_maps(ds, RangeRoute("val", cuts), P, bpm)
            got = {p: sorted(v for t in ray.get(r) for v in
                             t["val"].to_pylist())
                   for p, r in enumerate(refs)}
            got = {p: v for p, v in got.items() if v}
            assert list(sizes[0]) == [len(want.get(p, []))
                                      for p in range(P)], trial
        else:
            for k, v in zip(keys, df["val"]):
                want.setdefault(ref_pid(k, P, split_map), []).append(v)
            out = hash_exchange(ds, P, collect_rows, blocks_per_map=bpm,
                                split_map=split_map or None)
            assert all(r["stamped"] == [r["pid"]] for r in out), trial
            got = {r["pid"]: r["vals"] for r in out}
        assert got == {p: sorted(v) for p, v in want.items()}, \
            (trial, route, n, P)


def test_exchange_dataset_variant():
    """hash_exchange_dataset: merge outputs become a Dataset without driver
    collection; empty partitions are skipped via map-side counts."""
    import pyarrow as pa

    from ai_knowledgegraph_extractor_ray.ops.exchange import (
        hash_exchange_dataset,
    )

    def merge(tbl: pa.Table) -> pa.Table:
        df = tbl.to_pandas()
        out = df.groupby("conv_id", as_index=False)["val"].sum()
        return pa.Table.from_pandas(out.rename(columns={"val": "total"}),
                                    preserve_index=False)

    want = {f"k{i:04d}": sum(range(i * 3, i * 3 + 3)) for i in range(20)}
    for P in (64, 1):
        out = hash_exchange_dataset(_corpus(20, 3), P, merge,
                                    key="conv_id").to_pandas()
        assert len(out) == 20                   # one row per key
        assert dict(zip(out["conv_id"], out["total"])) == want, P


def test_exchange_dataset_empty_input():
    import pyarrow as pa

    from ai_knowledgegraph_extractor_ray.ops.exchange import (
        hash_exchange_dataset,
    )
    empty = rd.from_pandas(pd.DataFrame({"conv_id": pd.Series(dtype="string"),
                                         "val": pd.Series(dtype="int64")}))
    out = hash_exchange_dataset(empty, 8, lambda t: t, key="conv_id")
    assert out.count() == 0


# --- round 3: vectorized hash, guards, auto-sizing ---------------------------

def test_crc32_kernel_bit_identical_to_zlib():
    """ops/hashing.crc32_column == zlib.crc32 for every length regime the
    kernel handles (vectorized short path, per-row long fallback, empty,
    chunked, sliced)."""
    import random
    import zlib

    import numpy as np

    from ai_knowledgegraph_extractor_ray.ops.hashing import (
        crc32_column,
        crc32_mod,
    )
    rng = random.Random(0xC3)
    vals = [bytes(rng.randrange(256) for _ in range(
        rng.choice([0, 1, 7, 40, 300, 2000]))) for _ in range(800)]
    want = np.array([zlib.crc32(v) for v in vals], dtype=np.uint32)
    chunked = pa.chunked_array([pa.array(vals[:350], pa.binary()),
                                pa.array(vals[350:], pa.binary())])
    assert (crc32_column(chunked) == want).all()
    sliced = pa.array(vals, pa.binary()).slice(13, 200)
    assert (crc32_column(sliced) == want[13:213]).all()
    strs = pa.array([f"conv_{i}" for i in range(500)])
    assert (crc32_mod(strs, 7) == np.array(
        [zlib.crc32(f"conv_{i}".encode()) % 7 for i in range(500)])).all()


@pytest.mark.parametrize("kernel", [True, False])
def test_crc32_both_paths_equal_zlib(kernel):
    """Both paths ``crc32_column`` picks between by cost — the byte-position
    kernel and per-row ``zlib.crc32`` over slices of the value buffer —
    equal ``zlib.crc32``: empty strings, non-ASCII text, ``large_string``,
    sliced arrays (non-zero offset), values longer than 1024 bytes, and a
    column of empty strings only."""
    import random
    import zlib

    import numpy as np

    from ai_knowledgegraph_extractor_ray.ops import hashing
    rng = random.Random(0xC4)
    alphabet = "abcXYZ é日本🙂\n\x00"
    vals = ["".join(rng.choice(alphabet) for _ in range(
        rng.choice([0, 1, 5, 14, 55, 700, 1500]))) for _ in range(300)]
    want = np.array([zlib.crc32(v.encode()) for v in vals], dtype=np.uint32)

    def crc(col):
        return hashing._crc_column(col, hashing._CRC_TABLE, zlib.crc32,
                                   lambda *sizes: kernel)

    for typ in (pa.string(), pa.large_string()):
        arr = pa.array(vals, typ)
        assert (crc(arr) == want).all()
        assert (crc(arr.slice(37, 150)) == want[37:187]).all()
        assert (crc(pa.chunked_array([arr[:100], arr[100:]])) == want).all()
    assert (crc(pa.array(["", ""])) == zlib.crc32(b"")).all()
    assert len(crc(pa.array([], pa.string()))) == 0
    assert (hashing.crc32_column(pa.array(vals)) == want).all()


def test_exchange_missing_key_raises():
    """A wrong key name is an error, not silent data loss (ADVICE round 2)."""
    with pytest.raises(Exception, match="nonexistent"):
        hash_exchange(_corpus(5, 2), 4, collect_rows, key="nonexistent")


def test_exchange_null_key_raises():
    df = pd.DataFrame({"conv_id": ["a", None, "b"], "val": [1, 2, 3]})
    with pytest.raises(Exception, match="null"):
        hash_exchange(rd.from_pandas(df), 4, collect_rows)


def test_exchange_rejects_preexisting_partition_id():
    df = pd.DataFrame({"conv_id": ["a", "b"], "partition_id": [9, 9]})
    with pytest.raises(Exception, match="partition_id"):
        hash_exchange(rd.from_pandas(df), 4, collect_rows)


def test_exchange_dataset_preserves_user_partition_id_column():
    """bucketed payloads may legitimately carry a 'partition_id' column;
    the internal stamp must not clobber it (ADVICE round 2)."""
    from ai_knowledgegraph_extractor_ray.ops.agg import bucketed_groupby

    df = pd.DataFrame({"k": ["a", "a", "b"], "partition_id": [7, 7, 3],
                       "v": [1, 2, 4]})

    def merge(d: pd.DataFrame) -> pd.DataFrame:
        return d.groupby(["k", "partition_id"], as_index=False)["v"].sum()

    out = bucketed_groupby(rd.from_pandas(df), ["k"], merge).to_pandas()
    got = {(r.k, r.partition_id): r.v for r in out.itertuples()}
    assert got == {("a", 7): 3, ("b", 3): 4}


def test_exchange_dataset_pandas_nullable_upstream():
    """pandas-block upstream with nullable dtypes round-trips the exchange
    with values intact (pin against silent permissive-promotion widening on
    a Ray upgrade — VERDICT round 2, item 9)."""
    from ai_knowledgegraph_extractor_ray.ops.exchange import (
        hash_exchange_dataset,
    )
    df = pd.DataFrame({
        "conv_id": pd.Series(["a", "b", "c", "a"], dtype="string"),
        "x": pd.Series([1, None, 3, 4], dtype="Int64"),
        "y": [1.5, None, 2.5, None],
    })

    def tag(d: pd.DataFrame) -> pd.DataFrame:
        return d

    ds = rd.from_pandas(df).map_batches(tag, batch_format="pandas")
    out = hash_exchange_dataset(ds, 4, lambda t: t, key="conv_id").to_pandas()
    assert len(out) == 4
    assert set(out.columns) >= {"conv_id", "x", "y"}
    vals = {(c, None if pd.isna(x) else int(x))
            for c, x in zip(out["conv_id"], out["x"])}
    assert vals == {("a", 1), ("a", 4), ("b", None), ("c", 3)}


def test_auto_partitions_scales_with_bytes(monkeypatch):
    """``max(1, ceil(bytes / 128 MiB))``, raised to 2x the CPUs above
    1 MiB per CPU: no floor beyond one bucket; above the cap a warning."""
    import ray

    from ai_knowledgegraph_extractor_ray.ops.exchange import (
        MAX_AUTO_PARTITIONS,
        auto_partitions,
    )
    for cpus, small in ((1, 2), (32, 1)):
        monkeypatch.setattr(ray, "cluster_resources",
                            lambda cpus=cpus: {"CPU": cpus})
        assert auto_partitions(0) == 1
        assert auto_partitions(3 << 20) == small
        assert auto_partitions(100 << 30) == 800
        with pytest.warns(ResourceWarning):
            assert auto_partitions(1 << 50) == MAX_AUTO_PARTITIONS == 4096


def test_bucketed_groupby_auto_buckets_results_identical():
    """Auto-sized buckets (None) give the same result as any explicit count."""
    from ai_knowledgegraph_extractor_ray.ops.agg import bucketed_groupby

    df = pd.DataFrame({"k": [f"k{i%17}" for i in range(200)],
                       "v": list(range(200))})

    def merge(d: pd.DataFrame) -> pd.DataFrame:
        return d.groupby("k", as_index=False)["v"].sum()

    auto = bucketed_groupby(rd.from_pandas(df), ["k"], merge).to_pandas()
    fixed = bucketed_groupby(rd.from_pandas(df), ["k"], merge,
                             buckets=64).to_pandas()
    a = dict(zip(auto["k"], auto["v"]))
    b = dict(zip(fixed["k"], fixed["v"]))
    assert a == b and len(a) == 17
