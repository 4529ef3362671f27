"""Job entry point — the `ray job submit` surface.

    ray job submit --working-dir . -- python -m ai_knowledgegraph_extractor_ray.cli \
        --input /data/transcripts --out /data/kg --version 1 [--resume] \
        [--canonicalize] [--num-partitions 4096] [--backend rules]

Locally (auto-inits Ray):

    python -m ai_knowledgegraph_extractor_ray.cli --input ... --out ...

Owns a Ray session only when run as a script (guarded init, shutdown at
exit); the library never initialises Ray.
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="ai_knowledgegraph_extractor_ray")
    ap.add_argument("--input", required=True,
                    help="transcript parquet path/dir (conv_id, turn_idx, text, ...)")
    ap.add_argument("--out", required=True, help="output lake directory")
    ap.add_argument("--version", type=int, default=1)
    ap.add_argument("--version-cutoff", type=int, default=None,
                    help="extract over turns with turn_idx <= cutoff")
    ap.add_argument("--window-chars", type=int, default=0)
    ap.add_argument("--num-partitions", type=int, default=256)
    ap.add_argument("--backend", default="rules", choices=["rules", "llm"])
    ap.add_argument("--no-resume", action="store_true")
    ap.add_argument("--canonicalize", action="store_true",
                    help="run phase 2 (alias table + canonical graph) after extraction")
    ap.add_argument("--typo-tier", action="store_true",
                    help="also link edit-distance-1 aliases during "
                         "canonicalization (beyond exact reference parity)")
    ap.add_argument("--stats", action="store_true",
                    help="print graph stats for the version and exit")
    args = ap.parse_args(argv)

    from .functions.validation import (
        ValidationError,
        validate_non_negative,
        validate_num_partitions,
        validate_version_number,
    )
    try:
        args.version = validate_version_number(args.version)
        args.num_partitions = validate_num_partitions(args.num_partitions)
        if args.version_cutoff is not None:
            args.version_cutoff = validate_non_negative(
                args.version_cutoff, "version-cutoff")
        args.window_chars = validate_non_negative(
            args.window_chars, "window-chars")
    except ValidationError as e:
        ap.error(str(e))

    import ray
    owns_session = not ray.is_initialized()
    if owns_session:
        ray.init(address="local", include_dashboard=False)

    try:
        from .config import KGConfig
        from .pipelines import kg
        from .sources.transcripts import read_transcripts

        cfg = KGConfig(backend=args.backend, version=args.version,
                       version_cutoff=args.version_cutoff,
                       window_chars=args.window_chars,
                       num_partitions=args.num_partitions)

        if args.stats:
            print(json.dumps(kg.get_stats(args.out, args.version)))
            return 0

        summary = kg.run_kg_job(read_transcripts(args.input), cfg, args.out,
                                resume=not args.no_resume)
        if args.canonicalize:
            link = None
            if args.typo_tier:
                from .stages.canonicalize import LinkParams
                link = LinkParams(typo_tier=True)
            summary["canonical"] = kg.run_canonicalize_job(args.out, cfg,
                                                           link=link)
        print(json.dumps(summary))
        return 0
    finally:
        if owns_session:
            ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
