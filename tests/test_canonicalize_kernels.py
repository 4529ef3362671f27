"""Differential tests of phase 2's Arrow kernels against the pandas kernels
they replaced, kept here as oracles: the surface merge, the alias wave's
task body, the driver's clustered-alias, canonical-node and broadcast
assembly (row order included), the edge merge (as a row set) and the
typo tier's edit-distance-1 pairing (as a pair set)."""

import random
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray

from ai_knowledgegraph_extractor_ray.stages import canonicalize as cz

# --- the pandas oracles ------------------------------------------------------

ALIAS_COLS = ["norm", "canonical_id", "canonical_label", "cluster_mentions",
              "is_clustered"]
CANON_NODE_COLS = ["canonical_id", "canonical_label", "n_mentions",
                   "n_aliases"]
EDGE_KEYS = ["canonical_src", "pred", "canonical_dst"]
EDGE_KEYS5 = EDGE_KEYS + ["src_label", "dst_label"]


def oracle_mention_partials(batch: pa.Table) -> pa.Table:
    labels = batch["label"].cast(pa.string())
    counts = (pa.table({"label": labels}).filter(pc.is_valid(labels))
              .group_by("label").aggregate([([], "count_all")]))
    return pa.table({
        "norm": pa.array(map(cz.normalize_surface,
                             counts["label"].to_pylist()), pa.string()),
        "label": counts["label"],
        "cnt": counts["count_all"].cast(pa.int64())})


def oracle_pick_variant(df: pd.DataFrame) -> pd.DataFrame:
    df = df.sort_values(["cnt", "label"], ascending=[False, True],
                        kind="mergesort")
    top = df.groupby("norm", sort=False, as_index=False).first()
    totals = df.groupby("norm", sort=False, as_index=False)["cnt"].sum()
    out = top[["norm", "label"]].merge(totals, on="norm")
    return out.rename(columns={"label": "canonical_label",
                               "cnt": "n_mentions"})


def oracle_merge_surface(_pid: int, tbl: pa.Table) -> pa.Table:
    df = tbl.to_pandas()
    df = df.groupby(["norm", "label"], as_index=False, sort=False)["cnt"].sum()
    return pa.Table.from_pandas(oracle_pick_variant(df), preserve_index=False)


def arrow_out(df: pd.DataFrame) -> pa.Table:
    for c in df.columns:
        if df[c].dtype == object:
            df = df.assign(**{c: df[c].astype("string")})
    return pa.Table.from_pandas(df, preserve_index=False)


def concat_frames(frames: list[pd.DataFrame]) -> pd.DataFrame:
    return pd.concat([f for f in frames if len(f)] or frames[:1],
                     ignore_index=True)


def oracle_hot_partial(df: pd.DataFrame, cap: int) -> pd.DataFrame:
    keep = df[df["is_clustered"]]
    un = df[~df["is_clustered"]]
    top = un.nlargest(min(cap, len(un)), "cluster_mentions")
    return pd.concat([keep, top]).drop_duplicates("norm")[ALIAS_COLS]


def oracle_hot_slice(parts: pd.DataFrame, cap: int) -> pd.DataFrame:
    if "norm" not in parts.columns:
        return pd.DataFrame(columns=ALIAS_COLS)
    parts = parts.drop_duplicates("norm")
    clustered = parts[parts["is_clustered"]]
    hot = parts[~parts["is_clustered"]].nlargest(cap, "cluster_mentions")
    return pd.concat([clustered, hot], ignore_index=True)


def oracle_unclustered_nodes(df: pd.DataFrame) -> pa.Table:
    df = df[~df["is_clustered"]]
    out = pd.DataFrame({
        "canonical_id": df["canonical_id"],
        "canonical_label": df["canonical_label"],
        "n_mentions": df["cluster_mentions"].astype("int64"),
    })
    out["n_aliases"] = 1
    return arrow_out(out[CANON_NODE_COLS])


def oracle_alias_block(block: pa.Table, roots: tuple[dict, frozenset],
                       cap: int, paths: tuple[str, str] | None = None):
    rmap, members = roots
    df = block.to_pandas()
    member = df["norm"].isin(members)
    un, cl = df[~member], df[member]
    out = pd.DataFrame({
        "norm": un["norm"].astype("string"),
        "canonical_id": un["norm"].map(cz.canonical_id_of).astype("string"),
        "canonical_label": un["canonical_label"],
        "cluster_mentions": un["n_mentions"].astype("int64"),
    })
    out["is_clustered"] = False
    aliases = arrow_out(out[ALIAS_COLS])
    rooted = arrow_out(cl.assign(root=pd.Series(
        [rmap[n] for n in cl["norm"]], index=cl.index, dtype="string")))
    alias_df = aliases.to_pandas()
    hot = arrow_out(oracle_hot_partial(alias_df, cap))
    if paths is None:
        return aliases, rooted, hot
    if aliases.num_rows:
        pq.write_table(aliases, paths[0])
        pq.write_table(oracle_unclustered_nodes(alias_df), paths[1])
    return aliases.num_rows, rooted, hot


def oracle_per_root(df: pd.DataFrame) -> pd.DataFrame:
    df = df.sort_values(["n_mentions", "norm"], ascending=[False, True],
                        kind="mergesort")
    rep = df.groupby("root", sort=False)["canonical_label"].first()
    tot = df.groupby("root", sort=False)["n_mentions"].sum()
    out = (df[["norm", "root"]]
           .merge(rep.rename("canonical_label"), on="root")
           .merge(tot.rename("cluster_mentions"), on="root"))
    out["canonical_id"] = out["root"].map(cz.canonical_id_of).astype("string")
    out["is_clustered"] = True
    return out[ALIAS_COLS]


def oracle_clustered_aliases(rooted: list[pa.Table]) -> pd.DataFrame:
    rooted = [t for t in rooted if t.num_rows]
    if not rooted:
        return pd.DataFrame(columns=ALIAS_COLS)
    return oracle_per_root(pa.concat_tables(rooted).to_pandas())


def oracle_clustered_nodes(clustered: pd.DataFrame) -> pa.Table:
    out = (clustered.groupby(["canonical_id", "canonical_label"], sort=False)
           .agg(n_mentions=("cluster_mentions", "max"),
                n_aliases=("norm", "nunique")).reset_index()
           .sort_values("canonical_id", kind="mergesort"))
    return arrow_out(out[CANON_NODE_COLS])


def oracle_merge_edge_partials(_pid: int, tbl: pa.Table) -> pa.Table:
    df = tbl.to_pandas()
    by_label = df.groupby(EDGE_KEYS5, as_index=False, sort=False)["weight"].sum()
    tot = by_label.groupby(EDGE_KEYS, as_index=False, sort=False)["weight"].sum()
    rep = (by_label.sort_values(
        ["weight", "src_label", "dst_label"],
        ascending=[False, True, True], kind="mergesort")
        .drop_duplicates(EDGE_KEYS)[EDGE_KEYS5])
    return pa.Table.from_pandas(
        tot.merge(rep, on=EDGE_KEYS)[EDGE_KEYS5 + ["weight"]],
        preserve_index=False)


# --- cases -------------------------------------------------------------------

def _bare(t: pa.Table) -> pa.Table:
    return t.replace_schema_metadata(None)


def _assert_same(got: pa.Table, want: pa.Table, what: str,
                 ordered: bool = True):
    got, want = _bare(got), _bare(want)
    if not want.num_rows:
        # an empty pandas frame round-trips its string columns as null
        # typed; the Arrow kernels keep their types
        assert got.num_rows == 0 and got.column_names == want.column_names
        assert not any(pa.types.is_null(t) for t in got.schema.types), what
        return
    assert got.schema == want.schema, (what, got.schema, want.schema)
    if not ordered:
        keys = [(c, "ascending") for c in got.column_names]
        got, want = got.sort_by(keys), want.sort_by(keys)
    assert got.equals(want), (what, got.to_pandas(), want.to_pandas())


def _labels(case: str) -> list:
    """Node labels for one case, shuffled (the row order must not matter)."""
    rng = random.Random(case)
    if case == "empty":
        return []
    if case == "cnt_ties":
        # every norm has variants tied on count: the lexicographically
        # smallest variant must win; norms tie on totals too
        labels = []
        for base in ("acme corp", "beta inc", "gamma llc", "delta co"):
            for v in (base.upper(), base.title(), base, base.capitalize()):
                labels += [v] * 3
        labels += ["Solo"] * 12
    elif case == "mention_ties":
        # 40 norms, n_mentions in {1, 2, 3}: heavy ties at a small cap
        labels = [f"Name {i:02d}" for i in range(40)
                  for _ in range(1 + i % 3)]
    elif case == "casefold":
        labels = ["Straße", "STRASSE", "strasse", "Strasse", "İstanbul",
                  "istanbul", "i̇stanbul", "ISTANBUL", "Ǆemal", "ǅemal",
                  "ǆemal", "Σίσυφος", "ΣΊΣΥΦΟΣ", "Ärger", "ärger",
                  "  Straße  ", "Acme\tCorp", "acme corp"] * 2
    elif case == "null_labels":
        labels = ([None] * 7 + ["Acme Corp", "ACME Corp", "acme corp"] * 2
                  + [None, "Beta", "Beta", None])
    else:   # "all_clustered" and "mixed": a random vocabulary
        syl = ["zor", "vex", "qui", "bly", "tan", "mor", "ke", "lin"]
        vocab = ["".join(rng.choice(syl) for _ in range(3)).capitalize()
                 for _ in range(60)]
        labels = [rng.choice(vocab + [v.upper() for v in vocab[:10]])
                  for _ in range(400)]
    rng.shuffle(labels)
    return labels


CASES = ["cnt_ties", "mention_ties", "empty", "all_clustered", "casefold",
         "null_labels", "mixed"]


def _roots(norms: list[str], case: str) -> dict:
    """A root map: every norm (``all_clustered``) or about a third of them
    grouped into clusters rooted at their smallest member."""
    rng = random.Random(case + "roots")
    members = sorted(norms) if case == "all_clustered" else \
        sorted(n for n in norms if rng.random() < 0.35)
    rng.shuffle(members)
    root_of = {}
    for i in range(0, len(members), 3):
        group = members[i:i + 3]
        for n in group:
            root_of[n] = min(group)
    return root_of


def _blocks(labels: list, n: int) -> list[pa.Table]:
    arr = pa.array(labels, pa.string())
    step = max(1, -(-len(labels) // n))
    return [pa.table({"label": arr.slice(i, step)})
            for i in range(0, max(len(labels), 1), step)]


@pytest.mark.parametrize("case", CASES)
def test_arrow_kernels_match_pandas_oracles(case, tmp_path):
    labels = _labels(case)
    blocks = _blocks(labels, 3)

    # the surface merge, on the same partials, and on the map's partials
    partials = pa.concat_tables([oracle_mention_partials(b) for b in blocks])
    want_surface = oracle_merge_surface(0, partials)
    _assert_same(cz._merge_surface(0, partials), want_surface, "surface")
    _assert_same(cz._merge_surface(0, cz._mention_partials(*blocks)),
                 want_surface, "surface from map partials")
    assert (pc.sum(want_surface["n_mentions"]).as_py() or 0) == sum(
        lab is not None for lab in labels)

    # the alias wave over the surface cut into buckets, then the driver
    # (fed the typed surface: equal to the oracle's unless both are empty)
    surface = cz._merge_surface(0, partials)
    root_of = _roots(surface["norm"].to_pylist(), case)
    roots_ref = ray.put(pa.table({
        "norm": pa.array(list(root_of), pa.string()),
        "root": pa.array(list(root_of.values()), pa.string())}))
    bucket = np.array([zlib.crc32(n.encode()) % 3
                       for n in surface["norm"].to_pylist()], dtype=int)
    surfaces = [surface.filter(pa.array(bucket == b)) for b in range(3)]
    for cap in (0, 3, 1_000_000):
        # pandas' nlargest(n) keeps tied rows in row order only for n below
        # the row count; from there on it sorts with an unstable quicksort,
        # so at the large cap the hot rows are compared as a set (they are
        # all the unclustered rows then)
        ordered = cap < len(labels)
        got_outs, want_outs = [], []
        for i, s in enumerate(surfaces):
            got = ray.get(cz.alias_block.remote(s, roots_ref, cap))
            want = oracle_alias_block(s, (root_of, frozenset(root_of)), cap)
            for name, g, w in zip(("aliases", "rooted", "hot"), got, want):
                _assert_same(g, w, f"{name} block {i} cap {cap}",
                             ordered or name != "hot")
            paths = [str(tmp_path / f"{k}-{cap}-{i}-{side}.parquet")
                     for side in ("got", "want") for k in ("a", "n")]
            got_w = ray.get(cz.alias_block.remote(s, roots_ref, cap,
                                                  tuple(paths[:2])))
            want_w = oracle_alias_block(s, (root_of, frozenset(root_of)), cap,
                                        tuple(paths[2:]))
            assert got_w[0] == (want_w[0], pc.sum(
                got[0]["cluster_mentions"]).as_py() or 0)
            for g, w in zip(paths[:2], paths[2:]):
                exists = tmp_path.joinpath(g).exists()
                assert exists == tmp_path.joinpath(w).exists()
                if exists:
                    _assert_same(pq.read_table(g), pq.read_table(w), g)
            got_outs.append(got)
            want_outs.append(want)

        clustered = cz.clustered_aliases([o[1] for o in got_outs])
        want_cl = oracle_clustered_aliases([o[1] for o in want_outs])
        assert clustered.num_rows == len(want_cl) == (
            len(root_of) if case != "empty" else 0)
        if len(want_cl):
            _assert_same(clustered, arrow_out(want_cl), "clustered aliases")
            _assert_same(cz.clustered_nodes(clustered),
                         oracle_clustered_nodes(want_cl), "clustered nodes")
        else:
            assert cz.clustered_nodes(clustered).num_rows == 0

        broadcast = cz.hot_slice(
            pa.concat_tables([clustered, *(o[2] for o in got_outs)]), cap)
        hot = [o[2] for o in want_outs]
        want_b = concat_frames([want_cl, oracle_hot_slice(
            pa.concat_tables(hot).to_pandas() if hot else pd.DataFrame(),
            cap)])
        _assert_same(broadcast.select(cz.BROADCAST_COLS),
                     pa.table({c: pa.array(want_b[c], pa.string())
                               for c in cz.BROADCAST_COLS}), "broadcast",
                     ordered)


def _edge_partials(seed: int, n: int) -> pa.Table:
    """Edge partials with label variants of one triple tied on weight,
    null preds and repeated rows across blocks."""
    rng = random.Random(seed)
    ids = ["e_a", "e_b", "e_c"]
    labels = {"e_a": ["Acme", "ACME", "acme"], "e_b": ["Beta", "BETA"],
              "e_c": ["Ça", "ça"]}
    rows = []
    for _ in range(n):
        s, d = rng.choice(ids), rng.choice(ids)
        rows.append((s, rng.choice(["owns", "near", None]), d,
                     rng.choice(labels[s]), rng.choice(labels[d]),
                     rng.choice([1, 1, 2])))
    return pa.table({c: pa.array([r[i] for r in rows],
                                 pa.int64() if c == "weight" else pa.string())
                     for i, c in enumerate(EDGE_KEYS5 + ["weight"])})


@pytest.mark.parametrize("n", [0, 1, 60, 500])
def test_edge_merge_matches_pandas_oracle(n):
    tbl = _edge_partials(n, n)
    got = cz.merge_edge_partials(0, tbl)
    want = oracle_merge_edge_partials(0, tbl)
    cols = EDGE_KEYS5 + ["weight"]
    assert got.column_names == cols
    if not n:
        assert got.num_rows == 0
        return
    assert _bare(got).schema == _bare(want).schema
    g = got.to_pandas().sort_values(cols).reset_index(drop=True)
    w = want.to_pandas().sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(g, w)


# --- the typo tier: edit-distance-1 label pairs -------------------------------

def oracle_fuzzy_label_pairs(df: pd.DataFrame, col: str = "label"
                             ) -> pd.DataFrame:
    """The pandas body of the three-exchange typo tier the Arrow typo wave
    replaced, over one frame (its hash bucketing never split a variant's
    rows, so the result is the same). A null label becomes the string
    'None' (``astype(str)``)."""
    ca, cb = f"{col}_a", f"{col}_b"

    def distinct_partial(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({col: df[col].drop_duplicates()})

    def distinct_merge(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates()

    def variants(df: pd.DataFrame) -> pd.DataFrame:
        vs, ls = [], []
        for s in df[col].astype(str):
            vs.append(s)
            ls.append(s)
            for i in range(len(s)):
                vs.append(s[:i] + s[i + 1:])
                ls.append(s)
        return pd.DataFrame({"variant": vs, col: ls})

    def pair_merge(df: pd.DataFrame) -> pd.DataFrame:
        m = df.merge(df, on="variant")
        m = m[m[f"{col}_x"] < m[f"{col}_y"]]
        return (m[[f"{col}_x", f"{col}_y"]]
                .drop_duplicates()
                .rename(columns={f"{col}_x": ca, f"{col}_y": cb}))

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates()      # same pair from multiple variants
        keep = [cz._within_one_edit(a, b)
                for a, b in zip(df[ca], df[cb])]
        return df[np.array(keep, dtype=bool)] if len(df) else df

    return verify(pair_merge(variants(distinct_merge(distinct_partial(df)))))


def brute_force_one_edit(labels: list) -> set[tuple[str, str]]:
    """Every pair ``a < b`` of distinct non-null labels within one edit."""
    import itertools
    vocab = sorted({x for x in labels if x is not None})
    return {(a, b) for a, b in itertools.combinations(vocab, 2)
            if cz._within_one_edit(a, b)}


# single code points, so Python and Arrow slice them alike: sharp s, dotted
# capital I, a titlecase digraph, final and plain sigma, combining marks,
# emoji with a skin-tone modifier, regional indicators and a zero-width
# joiner
FUZZY_ALPHABET = ["a", "b", "c", "d", " ", "ß", "İ", "ǅ", "Σ", "σ", "ς",
                  "\u0301", "\u0308", "😀", "👍", "\U0001F3FD", "🇫",
                  "🇷", "\u200d"]


def _fuzzy_vocab(seed: int) -> list:
    """Labels from 0 to 7 code points with planted one- and two-edit
    neighbours (substitutions, deletions, insertions, transpositions),
    "" and one-code-point labels, a few nulls and duplicates, plus 200
    labels that share the deletion variant 'qrs'."""
    rng = random.Random(seed)

    def pick() -> str:
        return rng.choice(FUZZY_ALPHABET)

    bases = ["".join(pick() for _ in range(rng.randint(0, 7)))
             for _ in range(120)]
    out = list(bases) + ["", "a", "ß", "😀"] + [None] * 3
    for b in bases:
        i = rng.randint(0, len(b))
        out.append(b[:i] + pick() + b[i + 1:])             # substitution
        out.append(b[:i] + pick() + b[i:])                 # insertion
        out.append(b[:i] + b[i + 1:])                      # deletion
        if len(b) >= 2:
            j = rng.randrange(len(b) - 1)
            out.append(b[:j] + b[j + 1] + b[j] + b[j + 2:])  # two edits
    out += [f"q{chr(0x4E00 + k)}rs" for k in range(200)]
    out += rng.sample(out, 80)                             # duplicates
    rng.shuffle(out)
    return out


@pytest.mark.parametrize("source", ["dataset", "refs"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fuzzy_label_pairs_match_pandas_oracle_and_brute_force(seed, source):
    """The typo wave's pairs equal the pandas oracle's, bar the pairs of
    the 'None' a null became there, and the O(n^2) brute force's, over
    labels split across five blocks (duplicates in several), read from a
    Dataset or from block refs; the 'qrs' variant bucket alone holds 200
    labels, all within one edit of each other."""
    import ray.data as rd
    labels = _fuzzy_vocab(seed)
    blocks = [pa.table({"label": pa.array(labels[i::5], pa.string())})
              for i in range(5)]
    src = (rd.from_arrow(blocks) if source == "dataset"
           else [ray.put(b) for b in blocks])
    out = cz.fuzzy_label_pairs(src)
    assert out.column_names == ["label_a", "label_b"]
    got = list(zip(out["label_a"].to_pylist(), out["label_b"].to_pylist()))
    assert len(got) == len(set(got)) and got == sorted(got)
    oracle = oracle_fuzzy_label_pairs(
        pd.DataFrame({"label": pd.Series(labels, dtype=object)}))
    want = {p for p in oracle.itertuples(index=False, name=None)
            if "None" not in p}
    assert set(got) == want == brute_force_one_edit(labels)
    assert sum(a.startswith("q") and b.startswith("q")
               for a, b in got) >= 200 * 199 // 2


def test_one_edit_pairs_share_exactly_one_variant():
    """Why ``fuzzy_label_pairs`` drops no duplicates: over every string of
    up to five letters of a three-letter alphabet, two strings one edit
    apart share exactly one element of {s} ∪ single-deletions(s), so
    exactly one variant bucket emits their pair."""
    import itertools

    def neighbourhood(s: str) -> set[str]:
        return {s} | {s[:i] + s[i + 1:] for i in range(len(s))}

    words = ["".join(p) for n in range(6)
             for p in itertools.product("abc", repeat=n)]
    shared = {len(neighbourhood(a) & neighbourhood(b))
              for a, b in itertools.combinations(words, 2)
              if cz._within_one_edit(a, b)}
    assert shared == {1}


def test_fuzzy_label_pairs_of_nothing():
    """No labels, or only nulls: an empty, typed pair table."""
    for src in ([], [ray.put(pa.table({"label": pa.array([None, None],
                                                         pa.string())}))]):
        out = cz.fuzzy_label_pairs(src)
        assert out.num_rows == 0
        assert out.schema == pa.schema([("label_a", pa.string()),
                                        ("label_b", pa.string())])
