"""Like-for-like code-vs-code benchmark: HEAD vs a git ref, shared query set.

    PYTHONPATH=/root/repo python tools/ab_bench.py [ref]   # default: r01 tag

Round-3 context: BENCH artifacts across rounds are recorded at different
box states (this sandbox drifts 2-3x run-to-run and its baseline shifts
between rounds), so r0N-vs-r0M artifact comparison conflates code with
environment. This tool settles it: it checks the ref out into a worktree
and runs the SHARED query set in fresh interleaved sessions (ref, HEAD,
ref, HEAD), reporting per-query min-of-2 for each code version under the
same conditions. One JSON line.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SHARED = ["kg_extract", "kg_canonicalize", "assemble", "token_stats", "quality",
          "lang_id", "fingerprint", "exact_dedup", "minhash_pairs",
          "simhash_pairs", "embedding_near_pairs", "events_hourly",
          "events_sessions", "events_asof", "knn", "ivf_knn", "entities",
          "alias_exact", "media_decode", "corpus_clean"]

LEG = r'''
import time, json, sys, shutil, tempfile
import ray
ray.init(address="local", num_cpus=32, include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext; DataContext.get_current().enable_progress_bars = False
@ray.remote
def _noop(): return 0
ray.get([_noop.remote() for _ in range(64)])
from ai_knowledgegraph_extractor_ray.pipelines import queries as q
from ai_knowledgegraph_extractor_ray.pipelines import kg
from ai_knowledgegraph_extractor_ray.config import KGConfig
from ai_knowledgegraph_extractor_ray.sources import transcripts as src
import pyarrow.parquet as pq, os
sf = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
names = %NAMES%
out = {}
n_docs = pq.ParquetFile(f"{sf}/documents.parquet").metadata.num_rows
corpus = f"/tmp/kg_bench_corpus_{4*n_docs}_s42"
if not os.path.exists(corpus + ".done"):
    shutil.rmtree(corpus, ignore_errors=True)
    src.synthetic_transcripts(n_convs=4*n_docs, seed=42,
                              override_num_blocks=64).write_parquet(corpus)
    open(corpus + ".done", "w").write("ok")
cfg = KGConfig(num_partitions=256)
for name in names:
    t0 = time.perf_counter()
    if name == "kg_extract":
        # two in-session reps, min: the first run pays every worker's
        # package import (a per-session cost that GREW with the round-3
        # module count and is not throughput); bench.py measures the same
        # sustained regime with kg_reps=2
        tx, tc = [], []
        for _ in range(2):
            od = tempfile.mkdtemp(prefix="ab_")
            t0 = time.perf_counter()
            kg.run_kg_job(src.read_transcripts(corpus), cfg, od, resume=False)
            tx.append(round(time.perf_counter()-t0, 3))
            t0 = time.perf_counter()
            kg.run_canonicalize_job(od, cfg)
            tc.append(round(time.perf_counter()-t0, 3))
            shutil.rmtree(od, ignore_errors=True)
        out[name] = min(tx)
        out["kg_canonicalize"] = min(tc)
        continue
    if name == "kg_canonicalize":
        continue
    getattr(q, f"q_{name}")(sf).count()
    out[name] = round(time.perf_counter()-t0, 3)
ray.shutdown()
print("RESULT " + json.dumps(out))
'''


def run_leg(pythonpath: str) -> dict:
    script = LEG.replace("%NAMES%", json.dumps(SHARED))
    p = subprocess.run([sys.executable, "-c", script],
                       env=dict(os.environ, PYTHONPATH=pythonpath),
                       capture_output=True, text=True, timeout=900)
    for line in p.stdout.splitlines():
        if line.startswith("RESULT "):
            return json.loads(line[7:])
    sys.stderr.write(p.stdout[-2000:] + p.stderr[-2000:])
    raise SystemExit("leg failed")


def main() -> int:
    ref = sys.argv[1] if len(sys.argv) > 1 else "0eed978"
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    wt = f"/tmp/ab_wt_{ref}"
    if not os.path.isdir(wt):
        subprocess.run(["git", "worktree", "add", wt, ref], cwd=repo,
                       check=True, capture_output=True)
    legs: dict[str, list] = {"ref": [], "head": []}
    for _ in range(2):
        for tag, pp in (("ref", wt), ("head", repo)):
            legs[tag].append(run_leg(pp))
            time.sleep(5)
    summary = {tag: {k: min(leg[k] for leg in legs[tag])
                     for k in legs[tag][0]} for tag in legs}
    t_ref = sum(summary["ref"].values())
    t_head = sum(summary["head"].values())
    print(json.dumps({"ref": ref, "ref_total_s": round(t_ref, 2),
                      "head_total_s": round(t_head, 2),
                      "head_over_ref": round(t_head / t_ref, 3),
                      "queries": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
