"""Benchmark of the two-phase KG job (``run_kg_job`` then
``run_canonicalize_job``).

    python3 perfbench/run.py --workload wide_vocab --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --write-spec      # regenerate BENCHMARK.json

Run from the repository root. One run generates (or reuses) the workload's
corpus from the seed, then ``SETUP_REPEATS`` times sets up a Ray session
and repeats the job in it for a share of ``--seconds``, checking every
job's output. With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced jobs in one session and
reports the per-layer metrics. The last stdout line is the result JSON;
the line before it stamps the host.
Scratch state, corpora and trace artifacts live under ``.bench_run/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench import checks, corpus, spec, tracing  # noqa: E402

PACKAGE = "ai_knowledgegraph_extractor_ray"
DEGRADED_FIRST_TOUCH_S = 1.0
# Unix socket paths are limited to 107 bytes; Ray puts its sockets ~64
# characters below its temp dir
MAX_RAY_TEMP_DIR = 40


class ProgramMissing(Exception):
    pass


def check_program(root: Path) -> None:
    """The engine must be importable from this checkout, not elsewhere."""
    if not (root / PACKAGE / "__init__.py").is_file():
        raise ProgramMissing(f"{PACKAGE}/ not found under {root}")
    if not (root / "tests" / "golden" / "reference_rule_graphs.json").is_file():
        raise ProgramMissing("golden fixtures not found")
    import importlib
    mod = importlib.import_module(PACKAGE)
    if Path(mod.__file__).resolve().parent != (root / PACKAGE).resolve():
        raise ProgramMissing(f"{PACKAGE} resolved outside the checkout")


def host_first_touch_s() -> float:
    """Fresh-memory first-touch probe (the ``bench.py`` host stamp):
    healthy hosts copy 200 MB in well under 0.3 s."""
    import numpy as np
    a = np.ones(200_000_000, dtype=np.uint8)
    t0 = time.perf_counter()
    a.copy()
    return time.perf_counter() - t0


class RssSampler:
    """Peak driver RSS (MB) while a job runs, sampled from /proc."""

    def __init__(self, interval: float = 0.02):
        self.interval = interval
        self.peak = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    @staticmethod
    def rss_mb() -> float:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("VmRSS missing from /proc/self/status")

    def _run(self) -> None:
        while not self._stop.is_set():
            self.peak = max(self.peak, self.rss_mb())
            self._stop.wait(self.interval)

    def __enter__(self):
        self.peak = self.rss_mb()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, self.rss_mb())


class Bench:
    def __init__(self, workload: spec.Workload, seed: int, seconds: float,
                 trace: bool):
        self.wl, self.seed, self.seconds, self.trace = (workload, seed,
                                                        seconds, trace)
        self.work = ROOT / ".bench_run"
        self.lake = self.work / "lake" / f"{workload.name}-s{seed}"
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: set[str] = set()          # phase-2 outputs
        self.phase1_digests: set[str] = set()
        self.floor_s = 0.0

    # --- corpus and reference state ------------------------------------
    def prepare_corpus(self) -> None:
        import numpy as np
        import pandas as pd
        self.meta = corpus.build(self.wl.name, self.seed, self.wl.size,
                                 self.work / "corpus", ROOT,
                                 self.wl.num_partitions)
        self.fixtures = corpus.golden_fixtures(ROOT)
        self.planted = (json.loads(Path(self.meta["planted"]).read_text())
                        if "planted" in self.meta else [])
        turns = pd.read_parquet(self.meta["transcripts"],
                                columns=["conv_id", "turn_idx", "text"])
        conv_ids = sorted(turns["conv_id"].unique())
        P = self.wl.num_partitions
        self.expected_pids = {checks.partition_of(c, P) for c in conv_ids}
        rng = np.random.default_rng(self.seed)
        sample = rng.choice(conv_ids, size=min(checks.SAMPLE_CONVS,
                                               len(conv_ids)), replace=False)
        self.want = checks.expected_triples(turns, list(sample))

    def cfg(self, version: int = 1):
        from ai_knowledgegraph_extractor_ray.config import KGConfig
        return KGConfig(num_partitions=self.wl.num_partitions,
                        alias_salt_buckets=spec.ALIAS_SALT_BUCKETS,
                        version=version)

    @property
    def version(self) -> int:
        return 2 if self.wl.incremental else 1

    # --- Ray session ------------------------------------------------------
    def ray_temp_dir(self) -> str | None:
        d = self.work / "ray"
        return str(d) if len(str(d)) <= MAX_RAY_TEMP_DIR else None

    def start_session(self) -> float:
        """ray.init + worker warm-up; returns its wall."""
        import ray
        t0 = time.perf_counter()
        ray.init(address="local", num_cpus=nproc(), include_dashboard=False,
                 logging_level="ERROR", object_store_memory=512 << 20,
                 _temp_dir=self.ray_temp_dir())
        from ray.data import DataContext
        DataContext.get_current().enable_progress_bars = False
        self.warm_up()
        return time.perf_counter() - t0

    def warm_up(self) -> None:
        """Spawn the worker and import the engine in it: a tiny phase-1 job
        over the golden conversations alone. Also measures the Ray floor,
        a no-op Dataset round trip."""
        import pyarrow.parquet as pq
        import ray.data as rd

        from ai_knowledgegraph_extractor_ray.pipelines import kg
        from ai_knowledgegraph_extractor_ray.sources import transcripts as src
        floors = []
        for _ in range(5):
            t0 = time.perf_counter()
            rd.from_items([{"x": 0}]).map_batches(lambda b: b).take_all()
            floors.append(time.perf_counter() - t0)
        self.floor_s = statistics.median(floors[1:])
        warm = self.work / "warm"
        shutil.rmtree(warm, ignore_errors=True)
        warm.mkdir(parents=True)
        pq.write_table(src.synthetic_transcripts_table(n_convs=4,
                                                       seed=self.seed),
                       warm / "t.parquet")
        kg.run_kg_job(src.read_transcripts(str(warm / "t.parquet")),
                      self.cfg(), str(warm / "lake"), resume=False)
        shutil.rmtree(warm, ignore_errors=True)

    def build_v1(self) -> float:
        """The version-1 lake every job starts from; returns its wall."""
        from ai_knowledgegraph_extractor_ray.pipelines import kg
        from ai_knowledgegraph_extractor_ray.sources import transcripts as src
        pristine = self.work / "lake" / f"{self.wl.name}-s{self.seed}-v1"
        shutil.rmtree(pristine, ignore_errors=True)
        t0 = time.perf_counter()
        kg.run_kg_job(src.read_transcripts(self.meta["v1"]), self.cfg(1),
                      str(pristine), resume=False)
        self.pristine = pristine
        return time.perf_counter() - t0

    def build_reference(self) -> None:
        """Untimed from-scratch version-2 build: the digests the linked
        build must reproduce, partition by partition."""
        from ai_knowledgegraph_extractor_ray.pipelines import kg
        from ai_knowledgegraph_extractor_ray.sources import transcripts as src
        ref = self.work / "lake" / f"{self.wl.name}-s{self.seed}-ref"
        shutil.rmtree(ref, ignore_errors=True)
        kg.run_kg_job(src.read_transcripts(self.meta["transcripts"]),
                      self.cfg(2), str(ref), resume=False)
        _, _, edges = checks.read_phase1(str(ref), 2)
        self.reference = checks.partition_digests(edges)
        shutil.rmtree(ref, ignore_errors=True)

    def reset_lake(self) -> None:
        shutil.rmtree(self.lake, ignore_errors=True)
        if self.wl.incremental:
            shutil.copytree(self.pristine, self.lake)
        else:
            self.lake.parent.mkdir(parents=True, exist_ok=True)

    # --- one job ------------------------------------------------------------
    def untraced_job(self) -> dict | None:
        """One job: phase 1 then phase 2 on a reset lake. The workload's
        shorter phase is repeated around it for more samples: extra checked
        phase-1 runs before, extra phase-2 runs over the same phase-1
        output after."""
        from ai_knowledgegraph_extractor_ray.pipelines import kg
        from ai_knowledgegraph_extractor_ray.sources import transcripts as src
        cfg, out = self.cfg(self.version), str(self.lake)

        def phase1() -> tuple[dict, float]:
            self.reset_lake()
            t0 = time.perf_counter()
            s = kg.run_kg_job(src.read_transcripts(self.meta["transcripts"]),
                              cfg, out, resume=self.wl.incremental)
            return s, t0

        walls, canon = [], []
        try:
            for _ in range(self.wl.phase1_repeats - 1):
                s, t0 = phase1()
                walls.append(time.perf_counter() - t0)
                self.check_phase1()
            with RssSampler() as rss:
                s, t0 = phase1()
                t1 = time.perf_counter()
                kg.run_canonicalize_job(out, cfg)
                t2 = time.perf_counter()
            walls.append(t1 - t0)
            canon.append(t2 - t1)
            _, edges = self.check_phase1()
            self.check_phase2(edges)
            for _ in range(self.wl.phase2_repeats - 1):
                t = time.perf_counter()
                kg.run_canonicalize_job(out, cfg, resume=False)
                canon.append(time.perf_counter() - t)
                self.check_phase2(edges)
        except Exception:
            self.job_raised()
            return None
        return {"phase1_s": walls, "canon_s": canon, "job_s": t2 - t0,
                "turns": s["n_turns"], "rss_mb": rss.peak}

    def traced_job(self, run_id: str) -> dict | None:
        self.reset_lake()
        cfg, out = self.cfg(self.version), str(self.lake)
        tr = tracing.Tracer(run_id)
        try:
            tracing.traced_phase1(tr, cfg, out, self.meta["transcripts"],
                                resume=self.wl.incremental)
            tracing.traced_phase2(tr, cfg, out)
        except Exception:
            self.job_raised()
            return None
        _, edges = self.check_phase1()
        aliases = self.check_phase2(edges)
        tr.count("canonicalize.distinct_norms", len(aliases))
        tr.count("canonicalize.clustered_norms",
                 int(aliases["is_clustered"].sum()) if len(aliases) else 0)
        tr.count("canonicalize.planted_alias_recall",
                 checks.planted_recall(aliases, self.planted))
        return {"spans": tr.spans, "counts": tr.counts}

    def job_raised(self) -> None:
        self.failures.append(traceback.format_exc(limit=3))
        self.attempted += len(self.expected_pids) + 1
        self.failed += len(self.expected_pids) + 1

    def check_phase1(self):
        """Phase-1 checks on the lake; counts the partition units and
        returns the committed nodes and edges."""
        out, v, P = str(self.lake), self.version, self.wl.num_partitions
        committed, nodes, edges = checks.read_phase1(out, v)
        bad = self.expected_pids - committed
        for cid in checks.golden_failures(nodes, edges, self.fixtures):
            bad.add(checks.partition_of(cid, P))
            self.failures.append(f"golden mismatch: {cid}")
        for cid in checks.sample_failures(edges, self.want):
            bad.add(checks.partition_of(cid, P))
            self.failures.append(f"sampled extraction mismatch: {cid}")
        if self.wl.incremental:
            for pid in checks.digest_failures(edges, self.reference):
                bad.add(pid)
                self.failures.append(f"version-2 digest mismatch: part {pid}")
        self.attempted += len(self.expected_pids)
        self.failed += len(bad)
        self.phase1_digests.add(checks.frame_digest(nodes) + "/"
                                + checks.frame_digest(edges))
        return nodes, edges

    def check_phase2(self, edges):
        """Phase-2 checks on the lake; counts the commit unit. Returns the
        alias table for the traced run's counts."""
        out, v = str(self.lake), self.version
        canon = checks.read_canonical(out, v, "canonical_edges")
        phase2_ok = (checks.weight_conserved(canon, edges)
                     and (Path(out) / f"version={v}" / "canonical"
                          / "_manifest.json").exists())
        if not phase2_ok:
            self.failures.append("phase-2 weight or commit check failed")
        self.attempted += 1
        self.failed += not phase2_ok
        self.digests.add("/".join((
            checks.frame_digest(canon),
            checks.frame_digest(checks.read_canonical(out, v,
                                                      "canonical_nodes")))))
        return checks.read_canonical(out, v, "aliases")

    # --- the run --------------------------------------------------------------
    def run(self) -> tuple[dict, dict]:
        """Set up ``SETUP_REPEATS`` sessions (one when traced) and measure
        jobs in each for an equal share of ``--seconds``: the samples span
        the whole run and every session, not only the last one."""
        import ray
        self.prepare_corpus()
        sessions = 1 if self.trace else spec.SETUP_REPEATS
        setups, jobs, traced, prior_s = [], [], [], 0.0
        for i in range(sessions):
            if i:
                ray.shutdown()
            setups.append(self.start_session())
            if self.wl.incremental and not i:
                # the prior state is built once and its wall added to the
                # median session set-up; every job restores a copy of it
                prior_s = self.build_v1()
                self.build_reference()
            self.measure(self.seconds / sessions, jobs, traced)
        if self.trace:
            return self.layer_metrics(jobs, traced), {"traced": traced}
        return self.e2e_metrics(setups, prior_s, jobs), {
            "jobs": jobs, "setups": setups, "prior_s": prior_s}

    def measure(self, seconds: float, jobs: list, traced: list) -> None:
        """Repeat the job (alternating with a traced one when tracing) while
        another still fits in ``seconds``; at least once."""
        t_end = time.perf_counter() + seconds
        while True:
            t0 = time.perf_counter()
            j = self.untraced_job()
            if j:
                jobs.append(j)
            if self.trace:
                t = self.traced_job(f"{self.wl.name}-s{self.seed}-"
                                    f"{len(traced)}")
                if t:
                    traced.append(t)
            now = time.perf_counter()
            if now + (now - t0) > t_end:
                return

    def clean(self) -> None:
        """Drop this run's lakes and Ray session logs; corpora stay cached."""
        for d in self.lake.parent.glob(f"{self.lake.name}*"):
            shutil.rmtree(d, ignore_errors=True)
        shutil.rmtree(self.work / "ray", ignore_errors=True)

    @staticmethod
    def e2e_metrics(setups: list[float], prior_s: float,
                    jobs: list[dict]) -> dict:
        def med(values):
            values = list(values)
            return statistics.median(values) if values else 0.0
        return {
            "setup_s": med(setups) + prior_s,
            "phase1_turns_per_s": med(j["turns"] / w for j in jobs
                                      for w in j["phase1_s"]),
            "canon_s": med(c for j in jobs for c in j["canon_s"]),
            "job_s": med(j["job_s"] for j in jobs),
            "driver_peak_rss_mb": med(j["rss_mb"] for j in jobs),
        }

    def layer_metrics(self, jobs: list[dict], traced: list[dict]) -> dict:
        per_job = [tracing.layer_metrics(t["spans"], t["counts"])
                   for t in traced]
        out = {k: statistics.median(m[k] for m in per_job)
               for k in (per_job[0] if per_job else {})}
        untraced = statistics.median(j["job_s"] for j in jobs) if jobs else 0.0
        traced_job = out.pop("trace.job_s", 0.0)
        out["trace.overhead_frac"] = (traced_job / untraced - 1.0
                                      if untraced else 0.0)
        out["ray.floor_s"] = self.floor_s
        return out


def nproc() -> int:
    """CPUs as coreutils ``nproc`` counts them: ``OMP_NUM_THREADS`` when
    set to a positive number, else the affinity mask."""
    omp = os.environ.get("OMP_NUM_THREADS", "").split(",")[0]
    if omp.isdigit() and int(omp) > 0:
        return int(omp)
    return len(os.sched_getaffinity(0))


def shutdown_ray() -> None:
    """Stop the Ray session and wait for every process it started."""
    import ray
    if ray.is_initialized():
        ray.shutdown()
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            time.sleep(0.1)


def write_spec() -> None:
    (ROOT / "BENCHMARK.json").write_text(
        json.dumps(spec.benchmark_json(), indent=2) + "\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-spec", action="store_true",
                    help="regenerate BENCHMARK.json and exit")
    args = ap.parse_args(argv)
    if args.write_spec:
        write_spec()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    try:
        check_program(ROOT)
    except (ProgramMissing, ImportError) as e:
        print(f"perfbench: cannot run: {e}", file=sys.stderr)
        return 2
    os.chdir(ROOT)          # Ray workers import the engine from the cwd

    import pyarrow
    import ray
    host = {"nproc": nproc(), "ray": ray.__version__,
            "pyarrow": pyarrow.__version__,
            "host_first_touch_s": host_first_touch_s()}
    host["degraded_host"] = host["host_first_touch_s"] > DEGRADED_FIRST_TOUCH_S

    bench = Bench(spec.WORKLOADS[args.workload], args.seed, args.seconds,
                  bool(args.trace))
    try:
        metrics, detail = bench.run()
    finally:
        shutdown_ray()
        bench.clean()
    host["ray.floor_s"] = bench.floor_s

    declared = spec.PER_LAYER if args.trace else spec.END_TO_END
    mismatch = {d[0] for d in declared} ^ set(metrics)
    if mismatch:
        raise RuntimeError(f"emitted metrics differ from the spec: "
                           f"{sorted(mismatch)}")
    correct = (bench.failed == 0 and len(bench.digests) == 1
               and len(bench.phase1_digests) == 1)
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "host": host, "metrics": metrics,
              "attempted": bench.attempted, "failed": bench.failed,
              "failed_frac": bench.failed / max(bench.attempted, 1),
              "digests": sorted(bench.digests | bench.phase1_digests),
              "failures": bench.failures[:20], **detail}
    rdir = bench.work / ("trace" if args.trace else "runs")
    rdir.mkdir(parents=True, exist_ok=True)
    (rdir / f"{args.workload}-s{args.seed}-{int(time.time())}.json"
     ).write_text(json.dumps(record, indent=1))

    units = {d[0]: d[1] for d in declared}
    for name, value in metrics.items():
        print(f"perfbench: {name} = {value:.6g} {units[name]}",
              file=sys.stderr)
    print(f"perfbench: failed_frac = {record['failed_frac']:.6g} "
          f"({bench.failed}/{bench.attempted} units)", file=sys.stderr)
    for f in bench.failures[:5]:
        print(f"perfbench: FAILED {f}", file=sys.stderr)
    print(json.dumps({"host": host}))
    print(json.dumps({
        "correct": correct, "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
