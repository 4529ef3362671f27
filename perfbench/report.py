"""Read traced-run artifacts down to one layer.

    python3 perfbench/report.py .bench_run/trace/<run>.json
    python3 perfbench/report.py <before>.json <after>.json

With one artifact it prints, per phase, the wall and each layer's self time
and named spans (medians over the run's traced jobs). With two it prints the
change per layer and names the layer whose self time grew most.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import tracing  # noqa: E402


def profile(path: str) -> dict[str, float]:
    """Median over traced jobs of every phase wall, layer self time and
    span total in one artifact."""
    rows = []
    for job in json.loads(Path(path).read_text())["traced"]:
        spans = job["spans"]
        self_s, top = tracing.self_times(spans), tracing.roots(spans)
        row = {}
        for phase in ("phase1", "phase2"):
            row[f"{phase} wall"] = tracing.phase_coverage(spans, phase)[0]
        for s in spans:
            phase = top[s["id"]]
            layer = ("unattributed" if s["name"] in tracing.GROUPS
                     else f"{tracing.layer_of(s['name'])} self")
            key = f"{phase} {layer}"
            row[key] = row.get(key, 0.0) + self_s[s["id"]]
            if s["name"] != phase:
                span = f"{phase}   {s['name']}"
                row[span] = row.get(span, 0.0) + s["end"] - s["start"]
        rows.append(row)
    keys = sorted({k for r in rows for k in r})
    return {k: statistics.median(r.get(k, 0.0) for r in rows) for k in keys}


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    profiles = [profile(p) for p in argv]
    keys = sorted(set().union(*profiles))
    for k in keys:
        vals = [p.get(k, 0.0) for p in profiles]
        line = f"{k:<44}" + "".join(f"{v:>10.3f}" for v in vals)
        if len(vals) == 2:
            line += f"{vals[1] - vals[0]:>+10.3f}"
        print(line)
    if len(profiles) == 2:
        layers = [k for k in keys if k.endswith(" self")]
        worst = max(layers, key=lambda k: profiles[1].get(k, 0.0)
                    - profiles[0].get(k, 0.0))
        print(f"largest self-time growth: {worst} "
              f"({profiles[1].get(worst, 0.0) - profiles[0].get(worst, 0.0):+.3f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
