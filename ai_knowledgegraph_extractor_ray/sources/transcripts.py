"""Transcript sources.

Three ways to obtain the engine's input table
(conv_id:string, turn_idx:int32, role:string, text:string, tool:string,
ts:timestamp[us]):

1. ``read_transcripts(path)`` — the production path: parquet already in the
   transcript shape, column-pruned at the read.
2. ``synthetic_transcripts(...)`` — deterministic generator for tests and
   benchmarks (the reference ships no transcript corpus; its seed/demo prose,
   reference: demo.py:22-32 / seed_data.py:42-49, is planted verbatim as the
   first conversations so golden graphs are known a priori). Generated
   *distributed* via ray.data.range -> map_batches; a pure function of
   (seed, conv index, turn index), so any two runs — at any parallelism —
   produce identical rows.
3. ``transcripts_from_documents(sf_dir)`` — derives a transcript-shaped table
   from the driver's testdata ``documents`` table with arithmetic only, so a
   DuckDB oracle can derive the identical table in SQL (used by the
   correctness gate for the assembly/versioning operators).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pyarrow as pa
import ray.data as rd

from ..schemas import TRANSCRIPTS

EPOCH_US = 1_700_000_000_000_000  # fixed base timestamp (us) for synthetic ts

# --- deterministic synthetic corpus ----------------------------------------

_FIRST = ["John", "Jane", "Alice", "Robert", "Emily", "David", "Lisa", "James",
          "Sarah", "Michael", "Maria", "Carlos", "Nina", "Oscar", "Paula",
          "Quinn", "Rita", "Samuel", "Tina", "Victor"]
_LAST = ["Smith", "Doe", "Johnson", "Kim", "Wang", "Davis", "Wilson", "Chen",
         "Garcia", "Brown", "Miller", "Taylor", "Moore", "Clark", "Lewis"]
# A few organizations are globally hot (appear in a large share of
# conversations) to exercise the salted canonicalization shuffle.
_HOT_ORGS = ["Acme Corporation", "Globex Industries", "Initech Systems"]
_ORGS = ["Vertex Labs", "Wavecrest Group", "Stellar Dynamics", "Quantum Forge",
         "Nimbus Analytics", "Aurora Biotech", "Cascade Robotics",
         "Meridian Capital", "Pinnacle Software", "Horizon Media",
         "Summit Logistics", "Crescent Energy", "Beacon Health",
         "Harbor Financial", "Sierra Networks", "Juniper Cloud"]
_LOCS = ["New York", "San Francisco", "London", "Berlin", "Tokyo Bay",
         "Austin", "Boston", "Seattle", "Denver", "Oslo", "Madrid", "Lisbon"]
_TOOLS = ["", "", "", "search", "browser", "calculator", "code_interpreter"]

_TEMPLATES = [
    "{p} is the CEO of {o}.",
    "{p} works as a senior engineer at {o}.",
    "{p} founded {o2} in {l} in {yr}.",
    "{o} acquired {o2} for a large sum.",
    "{p} manages the Engineering Department at {o}.",
    "{o}, headquartered in {l}, grew quickly.",
    "{o} developed a platform called Nimbus.",
    "{p} now serves as CTO of {o}.",
    "{o} is located in {l}.",
    "please check the deployment logs for errors",
    "running the requested analysis now",
    "the quarterly numbers look stable so far",
    "{p} joined the team last spring.",
    "{o2} was bought by {o}.",
]


def _mix(*parts: int) -> int:
    """Small deterministic integer hash (splitmix-style) over indices."""
    h = 0x9E3779B97F4A7C15
    for p in parts:
        h ^= (p + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        h = (h * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        h ^= h >> 31
    return h


def turns_per_conv(conv: int, seed: int) -> int:
    return 3 + _mix(seed, conv, 0xBEEF) % 8


def synth_turn_text(seed: int, conv: int, turn: int) -> str:
    """Pure function (seed, conv, turn) -> turn text."""
    h = _mix(seed, conv, turn)
    tpl = _TEMPLATES[h % len(_TEMPLATES)]
    # ~30% of conversations talk about a hot org -> skewed surface forms.
    if _mix(seed, conv, 0xFACE) % 10 < 3:
        org = _HOT_ORGS[_mix(seed, conv, 1) % len(_HOT_ORGS)]
    else:
        org = _ORGS[_mix(seed, conv, 2) % len(_ORGS)]
    org2 = _ORGS[(_mix(seed, conv, turn, 3)) % len(_ORGS)]
    person = (_FIRST[_mix(seed, conv, turn, 4) % len(_FIRST)] + " "
              + _LAST[_mix(seed, conv, turn, 5) % len(_LAST)])
    loc = _LOCS[_mix(seed, conv, turn, 6) % len(_LOCS)]
    year = 1990 + _mix(seed, conv, turn, 7) % 35
    return tpl.format(p=person, o=org, o2=org2, l=loc, yr=year)


def _golden_conversations() -> list[tuple[str, list[str]]]:
    """The reference demo/seed prose as conversations (turn per line), so the
    pipeline's output on them is pinned by the golden fixtures."""
    golden_path = Path(__file__).parents[2] / "tests" / "golden" / "reference_rule_graphs.json"
    if not golden_path.exists():
        return []
    fixtures = json.loads(golden_path.read_text())
    convs = []
    for name in ("demo_sample", "seed_doc1", "seed_doc2", "seed_doc3_csv"):
        if name in fixtures:
            convs.append((f"golden_{name}", fixtures[name]["text"].split("\n")))
    return convs


def synthetic_transcripts(
    n_convs: int = 1000, seed: int = 42, include_golden: bool = True,
    override_num_blocks: int | None = None,
) -> rd.Dataset:
    """Distributed deterministic transcript corpus.

    One ray.data.range row per conversation, exploded into its turns inside
    map_batches — generation parallelizes with the cluster and never
    materializes driver-side.
    """
    golden = _golden_conversations() if include_golden else []

    def gen(batch: dict) -> pa.Table:
        conv_ids, turn_idxs, roles, texts, tools, tss = [], [], [], [], [], []

        def emit(cid: str, ti: int, text: str, h: int) -> None:
            conv_ids.append(cid)
            turn_idxs.append(ti)
            roles.append("user" if ti % 2 == 0 else "assistant")
            texts.append(text)
            tools.append(_TOOLS[h % len(_TOOLS)] if ti % 2 else "")
            tss.append(EPOCH_US + (h % 10_000_000) + ti * 1_000_000)

        for conv in batch["id"].to_pylist():
            if conv < len(golden):
                cid, lines = golden[conv]
                for ti, line in enumerate(lines):
                    emit(cid, ti, line, _mix(seed, conv, ti))
                continue
            cid = f"conv_{conv:08d}"
            for ti in range(turns_per_conv(conv, seed)):
                emit(cid, ti, synth_turn_text(seed, conv, ti), _mix(seed, conv, ti))
        return pa.Table.from_arrays(
            [
                pa.array(conv_ids, pa.string()),
                pa.array(turn_idxs, pa.int32()),
                pa.array(roles, pa.string()),
                pa.array(texts, pa.string()),
                pa.array(tools, pa.string()),
                pa.array(np.array(tss, dtype="int64")).cast(pa.timestamp("us")),
            ],
            schema=TRANSCRIPTS,
        )

    base = rd.range(n_convs, override_num_blocks=override_num_blocks)
    return base.map_batches(gen, batch_format="pyarrow", batch_size=512)


def synthetic_transcripts_table(n_convs: int, seed: int = 42,
                                include_golden: bool = True) -> pa.Table:
    """Small driver-side variant for unit tests (no Ray session needed)."""
    golden = _golden_conversations() if include_golden else []
    rows = {k: [] for k in TRANSCRIPTS.names}
    for conv in range(n_convs):
        if conv < len(golden):
            cid, lines = golden[conv]
            turns = list(enumerate(lines))
        else:
            cid = f"conv_{conv:08d}"
            turns = [(ti, synth_turn_text(seed, conv, ti))
                     for ti in range(turns_per_conv(conv, seed))]
        for ti, text in turns:
            h = _mix(seed, conv, ti)
            rows["conv_id"].append(cid)
            rows["turn_idx"].append(ti)
            rows["role"].append("user" if ti % 2 == 0 else "assistant")
            rows["text"].append(text)
            rows["tool"].append(_TOOLS[h % len(_TOOLS)] if ti % 2 else "")
            rows["ts"].append(EPOCH_US + (h % 10_000_000) + ti * 1_000_000)
    return pa.Table.from_pydict(
        {
            "conv_id": pa.array(rows["conv_id"], pa.string()),
            "turn_idx": pa.array(rows["turn_idx"], pa.int32()),
            "role": pa.array(rows["role"], pa.string()),
            "text": pa.array(rows["text"], pa.string()),
            "tool": pa.array(rows["tool"], pa.string()),
            "ts": pa.array(np.array(rows["ts"], "int64")).cast(pa.timestamp("us")),
        },
        schema=TRANSCRIPTS,
    )


# --- production reader ------------------------------------------------------

def read_transcripts(path: str, columns: list[str] | None = None,
                     override_num_blocks: int | None = None) -> rd.Dataset:
    """Column-pruned parquet read of a transcript table. The extraction
    pipeline needs only (conv_id, turn_idx, text); callers that don't need
    role/tool/ts should say so and skip the IO.

    ``override_num_blocks`` matters for the exchange's MAP parallelism:
    map tasks = num_blocks / blocks_per_map, so a small-file corpus read
    with the default (one block per file) can under-fill a large cluster's
    map wave — size it to ~4-8x the core count when files are few."""
    return rd.read_parquet(path,
                           columns=columns or ["conv_id", "turn_idx", "text"],
                           override_num_blocks=override_num_blocks)


# --- testdata-derived shape (SQL-oracle-checkable) ---------------------------

N_CONV_GROUPS = 100

_WS_SPLIT = __import__("re").compile(r"\s+")


def titlecase_mod3(text: str) -> str:
    """Deterministic entity planting for lowercase corpora: capitalize words
    whose length % 3 == 0. Chosen because it is exactly expressible in both
    Python and ANSI/DuckDB SQL (length(w)%3=0 -> upper(w[1])||w[2:]), which
    makes the downstream entity-extraction operators oracle-checkable."""
    words = [w for w in _WS_SPLIT.split(text) if w]
    return " ".join(
        (w[:1].upper() + w[1:]) if len(w) % 3 == 0 else w for w in words)


def transcripts_from_documents(sf_dir: str, titlecase: bool = False) -> rd.Dataset:
    """Derive a transcript-shaped table from testdata documents.parquet with
    pure arithmetic (doc_id % 100 -> conv, doc_id // 100 -> turn) so DuckDB
    can derive the same rows; see __ray_entry__.oracle_sql()."""
    def derive(t: pa.Table) -> pa.Table:
        if titlecase:
            t = t.set_column(
                t.schema.get_field_index("text"), "text",
                pa.array([titlecase_mod3(s or "") for s in t["text"].to_pylist()],
                         pa.string()))
        doc_id = t["doc_id"].to_numpy()
        conv = doc_id % N_CONV_GROUPS
        turn = (doc_id // N_CONV_GROUPS).astype("int32")
        conv_ids = pa.array([f"c{c}" for c in conv], pa.string())
        roles = pa.array(np.where(turn % 2 == 0, "user", "assistant"))
        ts = pa.array(EPOCH_US + doc_id * 1_000_000).cast(pa.timestamp("us"))
        return pa.Table.from_arrays(
            [conv_ids, pa.array(turn), roles, t["text"].combine_chunks(),
             pa.array(np.full(len(doc_id), "", dtype=object), pa.string()), ts],
            schema=TRANSCRIPTS,
        )

    return rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"]).map_batches(
        derive, batch_format="pyarrow")

