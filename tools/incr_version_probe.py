"""Incremental cross-version update probe (round-4 VERDICT #2 'done'
criterion): build version 1 over N conversations, change ~1% of them, then
time version 2 (a) with cross-version linking (reuse_prior_version=True)
and (b) from scratch. Reports both walls and the speedup; also verifies the
linked run's output equals the from-scratch run's, and counts the inodes
version 2 created (linked partitions share version 1's, so this should be
3 x partitions_computed data files plus the manifests).

Usage, from the repository root:
    PYTHONPATH=. python tools/incr_version_probe.py [n_convs] [fat] [n_changed]
``n_changed`` defaults to 1% of ``n_convs``; fixing it across sizes shows
whether the incremental wall grows with the corpus or with the change.
"""
from __future__ import annotations

import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

import ray


def main() -> int:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 20_000
    fat = int(sys.argv[2]) if len(sys.argv) > 2 else 8   # text x fat:
    # synthetic turns are ~100 chars; real transcripts run KBs, and rule
    # extraction costs ~10x crc per byte, so text volume sets the
    # extraction/change-detection cost ratio the feature depends on
    n_changed = int(sys.argv[3]) if len(sys.argv) > 3 else max(n // 100, 1)
    ray.init(address="local", num_cpus=min(32, os.cpu_count() or 1),
             include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    import pandas as pd

    from ai_knowledgegraph_extractor_ray.config import KGConfig
    from ai_knowledgegraph_extractor_ray.pipelines import kg
    from ai_knowledgegraph_extractor_ray.sources import transcripts as src

    base = tempfile.mkdtemp(prefix="incrv_")
    t1 = src.synthetic_transcripts_table(n_convs=n, seed=7)
    df = t1.to_pandas()
    if fat > 1:
        df["text"] = (df["text"] + " ") * fat
    df.to_parquet(f"{base}/v1.parquet", index=False)
    # ~1% of conversations change for v2, CLUSTERED by partition (the
    # realistic localized-update shape: uniformly random changes at 1%
    # touch ~every partition once P*ln stats kick in, and then per-
    # partition skipping cannot help by construction — see BASELINE.md)
    from ai_knowledgegraph_extractor_ray.ops.hashing import crc32_column
    import pyarrow as pa
    convs = df["conv_id"].unique()
    P = 128
    pid_of = crc32_column(pa.array(convs, pa.string())) % P
    hot_pids = set(range(2))  # all changes land in 2 of the 128 partitions
    in_hot = pd.Series(convs)[pd.Series(pid_of).isin(hot_pids)]
    touched = set(in_hot.iloc[:n_changed])
    m = df["conv_id"].isin(touched)
    df.loc[m, "text"] = df.loc[m, "text"] + " CHANGED"
    df.to_parquet(f"{base}/v2.parquet", index=False)

    out = f"{base}/kg"
    cfg1 = KGConfig(num_partitions=P, version=1)
    # warm-up: spawn the worker pool before any timed leg
    kg.run_kg_job(src.read_transcripts(f"{base}/v1.parquet"), cfg1,
                  f"{base}/warm", resume=False)
    t0 = time.perf_counter()
    kg.run_kg_job(src.read_transcripts(f"{base}/v1.parquet"), cfg1, out,
                  resume=False)
    w_v1 = time.perf_counter() - t0

    cfg2 = KGConfig(num_partitions=P, version=2)
    t0 = time.perf_counter()
    s_inc = kg.run_kg_job(src.read_transcripts(f"{base}/v2.parquet"),
                          cfg2, out)
    w_inc = time.perf_counter() - t0

    def inodes(v: int) -> set[int]:
        return {p.stat().st_ino
                for p in Path(f"{out}/version={v}").rglob("*") if p.is_file()}

    v2_new = inodes(2) - inodes(1)
    v2_manifests = len(list(
        Path(f"{out}/version=2/_manifests").glob("*.json")))

    out_ref = f"{base}/kg_ref"
    kg.run_kg_job(src.read_transcripts(f"{base}/v1.parquet"), cfg1, out_ref,
                  resume=False)
    t0 = time.perf_counter()
    kg.run_kg_job(src.read_transcripts(f"{base}/v2.parquet"), cfg2, out_ref,
                  resume=False)
    w_full = time.perf_counter() - t0

    a = kg.read_edges(out, 2).to_pandas()
    b = kg.read_edges(out_ref, 2).to_pandas()
    key = list(a.columns)
    same = (a.sort_values(key).reset_index(drop=True)
            .equals(b.sort_values(key).reset_index(drop=True)))
    print({
        "n_convs": n, "num_partitions": P,
        "touched_convs": len(touched),
        "partitions_linked": s_inc["partitions_linked"],
        "partitions_computed": s_inc["partitions_computed"],
        "v2_new_inodes": len(v2_new),
        "v2_manifests": v2_manifests,
        "v1_full_s": round(w_v1, 2),
        "v2_incremental_s": round(w_inc, 2),
        "v2_full_s": round(w_full, 2),
        "speedup": round(w_full / w_inc, 2),
        "outputs_equal": bool(same),
    })
    shutil.rmtree(base, ignore_errors=True)
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
