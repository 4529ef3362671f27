"""The benchmark's declared surface: workloads, metrics and run settings.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --write-spec``) and a test keeps the two equal.
"""

from __future__ import annotations

from dataclasses import dataclass

RUN_SECONDS = 30
SETUP_REPEATS = 3            # set-up is repeated and its median reported
# KGConfig.alias_salt_buckets; the default 16 makes phase 2's fixed cost (a
# chain of bucketed exchanges) about 6 s on one CPU, 4 keeps it near 3 s
ALIAS_SALT_BUCKETS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    size: int                # conversations generated
    num_partitions: int
    phase1_repeats: int      # phase-1 samples per job (the last feeds phase 2)
    phase2_repeats: int      # phase-2 samples per job
    incremental: bool = False


WORKLOADS = {w.name: w for w in (
    Workload("wide_vocab",
             "800 convs naming a 1e5-name vocabulary with planted "
             "near-duplicates (~7.6k distinct names): phase 2 is ~90% of "
             "job_s, alias building ~70% of phase 2",
             size=800, num_partitions=4,
             phase1_repeats=3, phase2_repeats=1),
    Workload("incremental_v2",
             "v2 resume over 400 convs of ~800-char turns, 1% changed in 2 "
             "of 16 partitions: phase 1 is ~25% of job_s; in it link, "
             "fingerprint and manifest reads take ~55%",
             size=400, num_partitions=16,
             phase1_repeats=2, phase2_repeats=2, incremental=True),
)}

# (name, unit, better, bound). Run-to-run spreads of the timings on a shared
# 1-CPU host reach 0.12-0.22 of the median, driven by host drift between
# runs, so every timing gets the largest bound allowed.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("phase1_turns_per_s", "turns/s", "higher", 0.25),
    ("canon_s", "s", "lower", 0.25),
    ("job_s", "s", "lower", 0.25),
    ("driver_peak_rss_mb", "MB", "lower", 0.1),
]

# (name, unit, better); reported by the traced run (--trace 1)
PER_LAYER = [
    ("ray.floor_s", "s", "lower"),
    ("sources.read_s", "s", "lower"),
    ("sources.rows", "count", "lower"),
    ("sources.bytes", "bytes", "lower"),
    ("sources.self_s", "s", "lower"),
    ("exchange.map_wave_s", "s", "lower"),
    ("exchange.reduce_wave_s", "s", "lower"),
    ("exchange.reduce_wait_s", "s", "lower"),
    ("exchange.bytes", "bytes", "lower"),
    ("exchange.reduces", "count", "lower"),
    ("exchange.partition_bytes_max_over_mean", "ratio", "lower"),
    ("exchange.self_s", "s", "lower"),
    ("conversation.to_pandas_s", "s", "lower"),
    ("conversation.assemble_s", "s", "lower"),
    ("conversation.units", "count", "higher"),
    ("conversation.fingerprint_s", "s", "lower"),
    ("conversation.self_s", "s", "lower"),
    ("extract.s", "s", "lower"),
    ("extract.units", "count", "higher"),
    ("extract.nodes", "count", "higher"),
    ("extract.edges", "count", "higher"),
    ("extract.fallback_frac", "ratio", "lower"),
    ("extract.self_s", "s", "lower"),
    ("lineage.write_s", "s", "lower"),
    ("lineage.bytes_written", "bytes", "lower"),
    ("lineage.link_s", "s", "lower"),
    ("lineage.partitions_linked", "count", "higher"),
    ("lineage.partitions_computed", "count", "lower"),
    ("lineage.manifest_read_s", "s", "lower"),
    ("lineage.read_s", "s", "lower"),
    ("lineage.self_s", "s", "lower"),
    ("canonicalize.alias_s", "s", "lower"),
    ("canonicalize.rewrite_s", "s", "lower"),
    ("canonicalize.nodes_s", "s", "lower"),
    ("canonicalize.write_s", "s", "lower"),
    ("canonicalize.mentions", "count", "higher"),
    ("canonicalize.distinct_norms", "count", "higher"),
    ("canonicalize.clustered_norms", "count", "higher"),
    ("canonicalize.canonical_edges", "count", "higher"),
    ("canonicalize.edge_dedup_ratio", "ratio", "lower"),
    ("canonicalize.planted_alias_recall", "ratio", "higher"),
    ("canonicalize.self_s", "s", "lower"),
    ("trace.phase1_s", "s", "lower"),
    ("trace.phase2_s", "s", "lower"),
    ("trace.phase1_coverage", "ratio", "higher"),
    ("trace.phase2_coverage", "ratio", "higher"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

# the layers whose self times must account for each traced phase wall
LAYERS = ("sources", "exchange", "conversation", "extract", "lineage",
          "canonicalize")


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }
