"""Raw-Ray exchange vs Ray Data's shuffles, same fused KG job, same corpus
— reproduces the round-2 scaling evidence (BASELINE.md).

    PYTHONPATH=/root/repo python tools/exchange_probe.py [cpus] [mult]

Runs the fused transcripts->graph job three times on the cached bench
corpus (mult x sf0.1 documents conversations): through
``ops/exchange.hash_exchange``, through Ray Data's sort-based
``groupby(partition_id).map_groups``, and through Ray Data's built-in
``ShuffleStrategy.HASH_SHUFFLE`` with ``repartition(keys=["partition_id"])``
followed by a per-block commit (this leg needs cpus >= 2). Prints one
JSON line with the three walls.
Round-2 measurements at mult=192: the sort variant spends ~6 s of
near-serial barrier wall on ~3.6 CPU-s of shuffle bookkeeping at 32 CPUs;
the exchange removes it (8->32 scaling efficiency 0.50 -> 0.71-0.78).
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import sys
import tempfile
import time


def main() -> None:
    cpus = int(sys.argv[1]) if len(sys.argv) > 1 else 32
    mult = int(sys.argv[2]) if len(sys.argv) > 2 else 192

    import ray
    ray.init(address="local", num_cpus=cpus, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext
    from ray.data.context import ShuffleStrategy
    DataContext.get_current().enable_progress_bars = False

    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ai_knowledgegraph_extractor_ray.config import KGConfig
    from ai_knowledgegraph_extractor_ray.ops.exchange import hash_exchange
    from ai_knowledgegraph_extractor_ray.sources import transcripts as src
    from ai_knowledgegraph_extractor_ray.stages.conversation import (
        add_partition_id,
        assemble_partition,
    )
    from ai_knowledgegraph_extractor_ray.stages.extract import Extractor
    from ai_knowledgegraph_extractor_ray.state import lineage

    @ray.remote
    def _noop() -> int:
        return 0

    ray.get([_noop.remote() for _ in range(cpus * 2)])

    n_docs = pq.ParquetFile(
        "/root/testdata/sf0.1/documents.parquet").metadata.num_rows
    n_convs = mult * n_docs
    corpus = f"/tmp/kg_bench_corpus_{n_convs}_s42"
    if not os.path.exists(corpus + ".done"):
        shutil.rmtree(corpus, ignore_errors=True)
        src.synthetic_transcripts(
            n_convs=n_convs, seed=42,
            override_num_blocks=max(cpus * 2, 16)).write_parquet(corpus)
        open(corpus + ".done", "w").write("ok")

    corpus_bytes = sum(
        md.row_group(i).total_byte_size
        for md in (pq.read_metadata(f)
                   for f in glob.glob(f"{corpus}/*.parquet"))
        for i in range(md.num_row_groups))
    cfg = KGConfig(num_partitions=256)
    extractor = Extractor(cfg)

    def commit(df: pd.DataFrame, out: str) -> pd.DataFrame:
        conv = assemble_partition(df, version=cfg.version)
        if len(conv) == 0:
            return lineage.empty_manifest_frame()
        rows = extractor(pa.Table.from_pandas(
            conv, preserve_index=False)).to_pandas()
        return lineage.write_partition(rows, out, cfg.version)

    def timed(leg) -> tuple[float, int]:
        out = tempfile.mkdtemp(prefix="kg_probe_")
        t0 = time.perf_counter()
        manifests = leg(out)
        dt = time.perf_counter() - t0
        shutil.rmtree(out, ignore_errors=True)
        # a partition committed twice would overwrite its own rows
        assert manifests["partition_id"].is_unique
        return dt, int(manifests["n_turns"].sum())

    def exchange(out: str) -> pd.DataFrame:
        return pd.concat(hash_exchange(
            src.read_transcripts(corpus), cfg.num_partitions,
            lambda pid, tbl: commit(tbl.to_pandas(), out)))

    def partitioned():
        return add_partition_id(src.read_transcripts(corpus),
                                cfg.num_partitions)

    def sort_groupby(out: str) -> pd.DataFrame:
        return partitioned().groupby("partition_id").map_groups(
            lambda df: commit(df, out), batch_format="pandas").to_pandas()

    def hash_shuffle(out: str) -> pd.DataFrame:
        # one block may carry several partition ids: commit each
        def commit_block(df: pd.DataFrame) -> pd.DataFrame:
            return pd.concat([lineage.empty_manifest_frame()] + [
                commit(g, out) for _, g in df.groupby("partition_id")])

        # Size the aggregators to the host: one per CPU, half the CPUs in
        # all (Ray's own rule, which a local cluster cannot apply: there it
        # asks 0.25 CPU per aggregator), and a memory reservation for the
        # real uncompressed partition size instead of target_max_block_size
        # (128 MiB) per partition, 40 GiB at P=256. Needs cpus >= 2: map
        # tasks want a whole CPU beside the aggregators' half.
        ctx = DataContext.get_current()
        knobs = {
            "shuffle_strategy": ShuffleStrategy.HASH_SHUFFLE,
            "max_hash_shuffle_aggregators": cpus,
            "hash_shuffle_operator_actor_num_cpus_per_partition_override":
                cpus / 2 / cfg.num_partitions,
            "target_max_block_size": max(1 << 20,
                                         corpus_bytes // cfg.num_partitions),
        }
        prev = {k: getattr(ctx, k) for k in knobs}
        for k, v in knobs.items():
            setattr(ctx, k, v)
        try:
            return (partitioned()
                    .repartition(cfg.num_partitions, keys=["partition_id"])
                    .map_batches(commit_block, batch_format="pandas",
                                 batch_size=None).to_pandas())
        finally:
            for k, v in prev.items():
                setattr(ctx, k, v)

    t_ex, nt_ex = timed(exchange)
    t_sort, nt_sort = timed(sort_groupby)
    t_hash, nt_hash = timed(hash_shuffle)
    assert nt_ex == nt_sort == nt_hash
    print(json.dumps({
        "cpus": cpus, "turns": nt_ex,
        "exchange_wall_s": round(t_ex, 2),
        "sort_groupby_wall_s": round(t_sort, 2),
        "hash_shuffle_wall_s": round(t_hash, 2),
        "exchange_tput": round(nt_ex / t_ex),
        "sort_tput": round(nt_sort / t_sort),
        "hash_shuffle_tput": round(nt_hash / t_hash),
        "speedup": round(t_sort / t_ex, 2),
        "speedup_vs_hash_shuffle": round(t_hash / t_ex, 2),
    }))
    ray.shutdown()


if __name__ == "__main__":
    main()
