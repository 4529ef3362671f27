"""Deterministic rule-based knowledge-graph extraction.

This is the engine's reproducible extraction oracle: given one document's
(or one conversation's concatenated) text it emits entity nodes and
(subj, pred, obj) relationship edges with semantics behaviorally identical
to the reference extractor (reference: services.py:379-547).  The P/R >= 0.95
invariant of the north star is measured against exactly these semantics, so
the *pattern strings* below are ported verbatim (SURVEY.md §7.3: regex
backtracking/IGNORECASE interactions make "almost the same" regex diverge);
everything around them — data layout, batching, the vectorization-friendly
single-pass design — is new and Ray-Data-shaped.

Behavioral contract (each pinned by tests/golden/reference_rule_graphs.json,
produced by running the reference on probe texts):

* blank / whitespace-only text -> empty graph             (services.py:81-83)
* entity candidates: case-SENSITIVE capitalized spans over the *full* text,
  stop-word filtered, order-preserving dedup, capped at 15 (services.py:392-407)
* node ids "n1".."n15" assigned in first-appearance order (services.py:410-419)
* relationships: per sentence (split on [.!?]+), all patterns evaluated in
  order with IGNORECASE; 3-group "X founded Y in Z" emits founded + located_in
  (services.py:436-484)
* edge endpoints resolved case-insensitively against the node map; self loops
  and exact duplicate (src, dst, rel) suppressed          (services.py:486-505)
* entity type from ordered keyword/context heuristics      (services.py:507-547)

Entity typing is linear in the text's length. The reference's title
check (a title ``Mr.``/``Mrs.``/``Dr.``/``Ms.`` and a whitespace run ending at
an entity occurrence) looks back from the occurrence instead of searching
forward from the start of the text. A match must end exactly where the
maximal whitespace run before the occurrence starts: a title ends in ``.``,
which is not whitespace, and ``str.isspace`` is ``re``'s whitespace class
on ``str``. So the lookback walks back over that run and matches the title,
with IGNORECASE's case folds, against the few characters before it. A
forward search from 0 for every occurrence of every entity made extraction
quadratic in the conversation's length.

The quirks are part of the contract and deliberately preserved — e.g. the
IGNORECASE relationship patterns can capture lowercase-containing spans
("San Francisco in") that then fail endpoint resolution and are dropped, and
mixed-case tokens like "TechStart" are never entity candidates.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

# --- entity candidates (case-sensitive; compiled once at import) -----------

# A capitalized span: Word or Word Word ... (reference: services.py:392).
ENTITY_SPAN = r"\b[A-Z][a-z]+(?:\s+[A-Z][a-z]+)*\b"
_ENTITY_RE = re.compile(ENTITY_SPAN)

# Single capitalized words that are sentence furniture, not entities
# (reference: services.py:396).
STOP_WORDS = frozenset(
    {"In", "The", "A", "An", "This", "That", "These", "Those", "It", "Is",
     "Was", "Are", "Were", "Be", "Been"}
)

MAX_ENTITIES = 15          # reference: services.py:407
_SENTENCE_SPLIT_RE = re.compile(r"[.!?]+")   # reference: services.py:389

# --- relationship patterns (ported verbatim; reference: services.py:436-470)

_E = r"(\b[A-Z][a-z]+(?:\s+[A-Z][a-z]+)*)"   # one capture group of the span

# (compiled_pattern, predicate, quick lowercase literals — the pattern cannot
# match a sentence unless one of the literals occurs, letting the hot loop
# skip the regex entirely; semantics-preserving early-out, not in reference).
_RAW_PATTERNS: list[tuple[str, str, tuple[str, ...]]] = [
    (_E + r"\s+is\s+the\s+CEO\s+of\s+" + _E, "ceo_of", ("ceo",)),
    (_E + r"\s+is\s+the\s+CTO\s+of\s+" + _E, "cto_of", ("cto",)),
    (_E + r"\s+(?:works?|worked|working)\s+(?:as\s+a?\s+)?(?:\w+\s+)?(?:at|for|in|with)\s+" + _E,
     "works_at", ("work",)),
    (_E + r"\s+founded\s+" + _E + r"\s+in\s+" + _E, "founded", ("founded",)),
    (_E + r"\s+(?:founded|established|created|started)\s+" + _E,
     "founded", ("founded", "established", "created", "started")),
    (_E + r"\s+in\s+" + _E + r"\s+in\s+\d{4}", "located_in", (" in ",)),
    (_E + r",?\s+(?:headquartered|located|based)\s+in\s+" + _E,
     "located_in", ("headquartered", "located", "based")),
    (_E + r"\s+is\s+located\s+in\s+(?:the\s+)?" + _E, "located_in", ("located",)),
    (_E + r"\s+acquired\s+" + _E + r"\s+(?:for|in)", "acquired", ("acquired",)),
    (_E + r"\s+(?:acquired|bought|purchased)\s+" + _E,
     "acquired", ("acquired", "bought", "purchased")),
    (_E + r"\s+(?:manages|managed|leads|led|oversees)\s+(?:the\s+)?" + _E,
     "manages", ("manage", "lead", "led", "oversee")),
    (_E + r"\s+serves\s+as\s+(?:\w+\s+)?of\s+" + _E, "member_of", ("serves",)),
    (_E + r"\s+now\s+serves\s+as\s+\w+\s+of\s+" + _E, "member_of", ("serves",)),
    (_E + r"\s+developed\s+(?:an?\s+)?(?:\w+\s+)?(?:platform\s+)?called\s+" + _E,
     "developed", ("developed",)),
    (_E + r"\s+(?:developed|built|designed|created)\s+" + _E,
     "developed", ("developed", "built", "designed", "created")),
    (_E + r"\s+is\s+used\s+by\s+" + _E, "used_by", ("used",)),
]

RELATION_PATTERNS: list[tuple[re.Pattern, str, tuple[str, ...]]] = [
    (re.compile(p, re.IGNORECASE), rel, lits) for p, rel, lits in _RAW_PATTERNS
]

PREDICATES = tuple(sorted({rel for _, rel, _ in _RAW_PATTERNS}))

# --- entity typing (reference: services.py:507-547) -------------------------

_ORG_KW = ("corporation", "corp", "company", "inc", "ltd", "llc", "university",
           "institute", "department", "division")
_LOC_KW = ("city", "country", "state", "street", "avenue", "road", "york",
           "francisco", "london", "paris", "tokyo")
_TECH_KW = ("bot", "app", "system", "platform", "software", "tool", "ai", "tech")
_TITLE_KW = ("engineer", "manager", "director", "ceo", "cto", "cfo",
             "president", "vice president")


# Person-context checks, restructured from the reference's three per-entity
# dynamic regexes (services.py:536-543) into STATIC patterns anchored at the
# entity's literal occurrences. Building rf"{esc}..." per entity recompiled
# a unique regex per (entity) and thrashed re's pattern cache — measured 60%
# of extraction CPU. Boolean outcome is identical: the reference returns
# "Person" if ANY of the three patterns matches anywhere, and every match of
# those patterns contains a case-insensitive literal occurrence of the
# entity, so checking each occurrence's immediate context is equivalent.
_VERB_AFTER = re.compile(
    r"\s+(?:is|was|works|worked|manages|founded|serves as|joined|left)",
    re.IGNORECASE)
# the title before an occurrence's whitespace run (module docstring): at most
# _TITLE_LEN characters, as each pattern character matches one character,
# case folds included
_TITLE_END = re.compile(r"(?:Mr\.|Mrs\.|Dr\.|Ms\.)\Z", re.IGNORECASE)
_TITLE_LEN = 4


def _person_context(entity: str, context: str, context_low: str) -> bool:
    low, n = entity.lower(), len(entity)
    i = context_low.find(low)
    while i != -1:
        if _VERB_AFTER.match(context, i + n):
            return True
        j = i
        while j and context[j - 1].isspace():
            j -= 1
        if j < i and _TITLE_END.search(context, max(0, j - _TITLE_LEN), j):
            return True
        i = context_low.find(low, i + 1)
    return False


from functools import lru_cache


@lru_cache(maxsize=65536)
def _keyword_type(low: str) -> str | None:
    """Context-free part of the type heuristic — pure in the surface form,
    so repeated entities across a corpus hit this cache."""
    for k in _ORG_KW:
        if k in low:
            return "Organization"
    for k in _LOC_KW:
        if k in low:
            return "Location"
    for k in _TECH_KW:
        if k in low:
            return "Technology"
    for k in _TITLE_KW:
        if k in low:
            return "JobTitle"
    return None


def guess_entity_type(entity: str, context: str,
                      context_low: str | None = None) -> str:
    """Ordered first-match type heuristic over the entity and its full-text
    context (reference: services.py:507-547). Keyword tests are substring
    matches on the lowercased surface form."""
    kw = _keyword_type(entity.lower())
    if kw is not None:
        return kw
    if _person_context(entity, context,
                       context_low if context_low is not None else context.lower()):
        return "Person"
    words = entity.split()
    if len(words) == 2 and all(w[0].isupper() for w in words):
        return "Person"
    return "Entity"


# --- graph extraction -------------------------------------------------------

@dataclass
class RuleGraph:
    """Flat extraction result for one text unit. Parallel lists, not
    list-of-dict, so a batch of graphs converts to Arrow without per-row
    Python dict churn."""
    node_ids: list[str] = field(default_factory=list)       # "n1".."nK"
    labels: list[str] = field(default_factory=list)         # surface forms
    types: list[str] = field(default_factory=list)
    edge_src: list[str] = field(default_factory=list)       # node ids
    edge_dst: list[str] = field(default_factory=list)
    edge_rel: list[str] = field(default_factory=list)


def extract_entities(text: str) -> list[str]:
    """Ordered, deduped, stop-word-filtered, capped capitalized spans."""
    seen: set[str] = set()
    out: list[str] = []
    for span in _ENTITY_RE.findall(text):
        if span in STOP_WORDS or span in seen:
            continue
        seen.add(span)
        out.append(span)
        if len(out) == MAX_ENTITIES:
            break
    return out


def extract_rule_graph(text: str) -> RuleGraph:
    """Extract the full node/edge graph for one text unit.

    Deterministic, pure; behavior pinned against the reference by
    tests/test_rules.py on tests/golden/reference_rule_graphs.json.
    """
    g = RuleGraph()
    if not text or not text.strip():
        return g

    entities = extract_entities(text)
    text_low = text.lower()
    # lowercased label -> node id, filled in first-appearance order: when
    # two labels lower to the same string, endpoint resolution takes the
    # first
    node_of_low: dict[str, str] = {}
    for i, label in enumerate(entities, start=1):
        nid = f"n{i}"
        node_of_low.setdefault(label.lower(), nid)
        g.node_ids.append(nid)
        g.labels.append(label)
        g.types.append(guess_entity_type(label, text, text_low))

    seen_edges: set[tuple[str, str, str]] = set()

    def add_edge(src_surface: str, dst_surface: str, rel: str) -> None:
        src_id = node_of_low.get(src_surface.lower())
        dst_id = node_of_low.get(dst_surface.lower())
        if src_id is None or dst_id is None or src_id == dst_id:
            return
        key = (src_id, dst_id, rel)
        if key in seen_edges:
            return
        seen_edges.add(key)
        g.edge_src.append(src_id)
        g.edge_dst.append(dst_id)
        g.edge_rel.append(rel)

    for sentence in _SENTENCE_SPLIT_RE.split(text):
        sentence = sentence.strip()
        if not sentence:
            continue
        # Literals are checked against a whitespace-NORMALIZED lowercase
        # sentence: the regexes separate words with \s+ (tabs/newlines/nbsp
        # all match — turns join with "\n", so cross-turn sentences contain
        # newlines), so a space-containing literal like " in " must never
        # under-admit on a non-space separator. Collapsing whitespace runs to
        # single spaces makes the literal check separator-agnostic; it can
        # only over-admit (the regex still decides), never skip a true match.
        sent_low = " ".join(sentence.lower().split())
        for pattern, rel, literals in RELATION_PATTERNS:
            for lit in literals:
                if lit in sent_low:
                    break
            else:
                continue
            for match in pattern.findall(sentence):
                if len(match) == 3:
                    subj, obj, loc = match
                    add_edge(subj, obj, rel)
                    add_edge(obj, loc, "located_in")
                else:
                    add_edge(match[0], match[1], rel)
    return g


def graph_to_dict(g: RuleGraph) -> dict:
    """Reference wire shape {nodes: [{id,label,type}], edges: [...]} — used
    only at test/debug granularity, never in the hot path."""
    return {
        "nodes": [
            {"id": i, "label": l, "type": t}
            for i, l, t in zip(g.node_ids, g.labels, g.types)
        ],
        "edges": [
            {"source": s, "target": t, "relationship": r}
            for s, t, r in zip(g.edge_src, g.edge_dst, g.edge_rel)
        ],
    }
