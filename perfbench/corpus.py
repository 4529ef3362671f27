"""Seeded corpus generators for the benchmark workloads.

Each generator is a pure function of ``(seed, size)`` and writes plain
transcript-shaped Parquet (``conv_id, turn_idx, role, text, tool, ts``); the
engine under test only ever sees those files. Corpora are cached on disk by
``(workload, seed, size)`` so repeated runs pay generation once.

* ``wide_vocab`` — the per-turn shape of the stock
  ``synthetic_transcripts_table`` corpus (3-10 thin turns per conversation),
  but every relation sentence names
  entities drawn from a vocabulary of ``VOCAB_SIZE`` generated names. A share
  of the names has a planted near-duplicate variant (whitespace, case/join and
  one-character edits), and a fixed share of mentions draws from a few
  hundred planted names so that both forms occur; the pairs whose both forms
  occur are written to ``planted.json`` as phase-2 ground truth.
* ``incremental_v2`` — the ``tools/incr_version_probe.py`` shape: stock
  turns fattened to ~800 characters as version 1, and a version 2 in which
  ~1% of conversations changed, all of them in a few partitions.

Every corpus starts with the golden reference conversations verbatim, so
the golden-fixture output check applies to every workload.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import zlib
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

GOLDEN_NAMES = ("demo_sample", "seed_doc1", "seed_doc2", "seed_doc3_csv")

VOCAB_SIZE = 100_000
PLANTED_SHARE = 0.05          # share of vocabulary names given a variant
PLANTED_HOT = 400             # a share of mentions draws from this many
PLANTED_HOT_SHARE = 0.15      # planted names, so both forms of each occur
FAT = 8                       # incremental turns: stock text repeated x8
CHANGED_SHARE = 0.01          # incremental: share of conversations changed
HOT_PARTITIONS = 2            # ... all inside this many partitions

_SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"] + [
    "bar", "dor", "fen", "gal", "kir", "lum", "mor", "nex", "pol", "quin",
    "rav", "sol", "tor", "vel", "wyn", "zar"]
_REL_TEMPLATES = [
    ("{a} is the CEO of {b}.", 2),
    ("{a} acquired {b} for a large sum.", 2),
    ("{a} works as a senior engineer at {b}.", 2),
    ("{a} developed a platform called {b}.", 2),
    ("{a} founded {b} in {c} in {yr}.", 3),
]
_FILLERS = ["please check the deployment logs for errors",
            "running the requested analysis now",
            "the quarterly numbers look stable so far"]
_TOOLS = ["", "", "", "search", "browser", "calculator", "code_interpreter"]
_EPOCH_US = 1_700_000_000_000_000


def golden_fixtures(root: Path) -> dict:
    """The reference graphs the golden conversations must reproduce."""
    path = root / "tests" / "golden" / "reference_rule_graphs.json"
    fixtures = json.loads(path.read_text())
    return {f"golden_{n}": fixtures[n] for n in GOLDEN_NAMES}


def _rows_to_table(rows: list[tuple[str, int, str]], seed: int) -> pa.Table:
    conv_ids = [r[0] for r in rows]
    turn_idx = np.array([r[1] for r in rows], dtype=np.int32)
    texts = [r[2] for r in rows]
    h = np.array([zlib.crc32(f"{seed}:{c}:{t}".encode())
                  for c, t in zip(conv_ids, turn_idx)], dtype=np.int64)
    tools = [_TOOLS[x % len(_TOOLS)] if t % 2 else ""
             for x, t in zip(h, turn_idx)]
    ts = _EPOCH_US + (h % 10_000_000) + turn_idx.astype(np.int64) * 1_000_000
    return pa.table({
        "conv_id": pa.array(conv_ids, pa.string()),
        "turn_idx": pa.array(turn_idx, pa.int32()),
        "role": pa.array(np.where(turn_idx % 2 == 0, "user", "assistant"),
                         pa.string()),
        "text": pa.array(texts, pa.string()),
        "tool": pa.array(tools, pa.string()),
        "ts": pa.array(ts).cast(pa.timestamp("us")),
    })


def _golden_rows(fixtures: dict) -> list[tuple[str, int, str]]:
    return [(cid, ti, line) for cid, fx in fixtures.items()
            for ti, line in enumerate(fx["text"].split("\n"))]


# --- wide_vocab --------------------------------------------------------------

def _vocabulary(rng: np.random.Generator, size: int) -> list[str]:
    """``size`` distinct three-word names; every word is one capitalized
    span of the rule extractor's entity pattern."""
    names: dict[str, None] = {}
    while len(names) < size:
        n = size - len(names) + 1024
        sy = rng.integers(0, len(_SYLLABLES), size=(n, 3, 2))
        for row in sy:
            words = [(_SYLLABLES[a] + _SYLLABLES[b]).capitalize()
                     for a, b in row]
            names.setdefault(" ".join(words))
    return list(names)[:size]


def _variant(name: str, kind: str, rng: np.random.Generator) -> str:
    words = name.split(" ")
    if kind == "whitespace":            # same norm after whitespace collapse
        return "  ".join(words)
    if kind == "case_join":             # "Ab Cd Ef" -> "Abcd Ef"
        return " ".join([words[0] + words[1].lower()] + words[2:])
    w = int(rng.integers(0, len(words)))             # one-character edit
    word = words[w]
    i = int(rng.integers(1, len(word)))
    repl = "aeiou" if word[i] not in "aeiou" else "rstln"
    words[w] = word[:i] + repl[int(rng.integers(0, 5))] + word[i + 1:]
    return " ".join(words)


VARIANT_KINDS = ("whitespace", "case_join", "char")


def wide_vocab_table(n_convs: int, seed: int, fixtures: dict
                     ) -> tuple[pa.Table, list[dict]]:
    rng = np.random.default_rng(seed)
    vocab = _vocabulary(rng, VOCAB_SIZE)
    n_planted = int(VOCAB_SIZE * PLANTED_SHARE)
    planted_idx = rng.choice(VOCAB_SIZE, size=n_planted, replace=False)
    variant_of = {}
    for k, i in enumerate(planted_idx):
        kind = VARIANT_KINDS[k % len(VARIANT_KINDS)]
        v = _variant(vocab[i], kind, rng)
        if v != vocab[i]:
            variant_of[int(i)] = (v, kind)

    rows = _golden_rows(fixtures)
    seen_forms: set[str] = set()
    for conv in range(n_convs):
        cid = f"conv_{conv:08d}"
        n_turns = 3 + int(rng.integers(0, 8))
        for ti in range(n_turns):
            if rng.random() < 0.2:
                rows.append((cid, ti, _FILLERS[int(rng.integers(0, 3))]))
                continue
            tpl, arity = _REL_TEMPLATES[int(rng.integers(0, len(_REL_TEMPLATES)))]
            forms = []
            for _ in range(arity):
                i = (planted_idx[int(rng.integers(0, PLANTED_HOT))]
                     if rng.random() < PLANTED_HOT_SHARE
                     else int(rng.integers(0, VOCAB_SIZE)))
                form = vocab[i]
                if int(i) in variant_of and rng.random() < 0.5:
                    form = variant_of[int(i)][0]
                forms.append(form)
                seen_forms.add(form)
            rows.append((cid, ti, tpl.format(
                a=forms[0], b=forms[1], c=forms[-1],
                yr=1990 + int(rng.integers(0, 35)))))
    planted = [{"base": vocab[i], "variant": v, "kind": kind}
               for i, (v, kind) in sorted(variant_of.items())
               if vocab[i] in seen_forms and v in seen_forms]
    return _rows_to_table(rows, seed), planted


# --- incremental_v2 ----------------------------------------------------------

def incremental_tables(n_convs: int, seed: int, num_partitions: int
                       ) -> tuple[pa.Table, pa.Table, list[str]]:
    """(version-1 table, version-2 table, changed conv ids)."""
    import pyarrow.compute as pc

    from ai_knowledgegraph_extractor_ray.ops.hashing import crc32_column
    from ai_knowledgegraph_extractor_ray.sources import transcripts as src
    # the engine's own generator, golden conversations planted first
    t1 = src.synthetic_transcripts_table(n_convs=n_convs, seed=seed)
    golden = pc.starts_with(t1["conv_id"], "golden_")
    fat = pc.binary_join_element_wise(*([t1["text"]] * FAT), " ")
    t1 = t1.set_column(3, "text", pc.if_else(golden, t1["text"], fat))

    convs = pc.unique(t1.filter(pc.invert(golden))["conv_id"])
    pids = crc32_column(convs) % np.uint32(num_partitions)
    hot = np.sort(np.unique(pids))[:HOT_PARTITIONS]
    candidates = np.array(convs.to_pylist(), dtype=object)[np.isin(pids, hot)]
    n_changed = max(1, int(round(n_convs * CHANGED_SHARE)))
    rng = np.random.default_rng(seed)
    changed = sorted(rng.choice(candidates, size=min(n_changed,
                                                     len(candidates)),
                                replace=False).tolist())
    mask = pc.is_in(t1["conv_id"], value_set=pa.array(changed, pa.string()))
    t2 = t1.set_column(3, "text", pc.if_else(
        mask, pc.binary_join_element_wise(t1["text"], "CHANGED", " "),
        t1["text"]))
    return t1, t2, changed


# --- cache + digest ----------------------------------------------------------

def table_digest(table: pa.Table) -> str:
    """Content digest of a corpus table (independent of Parquet encoding)."""
    h = hashlib.sha256()
    for name in table.column_names:
        h.update(name.encode())
        for v in table[name].cast(pa.string()).to_pylist():
            h.update(b"\x1f" + (v or "").encode())
    return h.hexdigest()[:16]


def _write(table: pa.Table, path: Path) -> None:
    pq.write_table(table.replace_schema_metadata(None), path)


def build(workload: str, seed: int, size: int, cache_dir: Path, root: Path,
          num_partitions: int) -> dict:
    """Generate (or reuse) the corpus of one workload; returns its manifest:
    file paths, the content digest and workload-specific ground truth."""
    cdir = cache_dir / f"{workload}-s{seed}-n{size}"
    marker = cdir / "corpus.json"
    if marker.exists():
        return json.loads(marker.read_text())
    shutil.rmtree(cdir, ignore_errors=True)
    cdir.mkdir(parents=True)
    fixtures = golden_fixtures(root)
    meta: dict = {"workload": workload, "seed": seed, "size": size}
    if workload == "wide_vocab":
        t, planted = wide_vocab_table(size, seed, fixtures)
        _write(t, cdir / "transcripts.parquet")
        (cdir / "planted.json").write_text(json.dumps(planted))
        meta.update(digest=table_digest(t), planted=str(cdir / "planted.json"))
    elif workload == "incremental_v2":
        t1, t2, changed = incremental_tables(size, seed, num_partitions)
        _write(t1, cdir / "v1.parquet")
        _write(t2, cdir / "transcripts.parquet")
        meta.update(digest=table_digest(t2) + table_digest(t1),
                    v1=str(cdir / "v1.parquet"), changed=changed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    meta["transcripts"] = str(cdir / "transcripts.parquet")
    marker.write_text(json.dumps(meta))   # written last: the cache commit
    return meta
