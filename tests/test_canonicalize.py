"""Entity linking + canonicalization: alias table, LSH blocking, broadcast
rewrite, global weighted edge dedup."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray.data as rd

from ai_knowledgegraph_extractor_ray.config import KGConfig
from ai_knowledgegraph_extractor_ray.ops import lsh
from ai_knowledgegraph_extractor_ray.stages import canonicalize as cz

CFG = KGConfig(alias_salt_buckets=4)


def nodes_ds(labels):
    return rd.from_pandas(pd.DataFrame({"label": pd.Series(labels, dtype="string")}))


def test_normalize_surface():
    assert cz.normalize_surface("  Acme   Corp ") == "acme corp"
    assert cz.normalize_surface("ACME Corp") == "acme corp"


def _link_sig(norm: str, num_perm: int = 32) -> np.ndarray:
    """Per-norm reference signature of phase 2's shingles."""
    return lsh.minhash_signature(cz.shingles(norm), num_perm)


def test_minhash_identical_and_disjoint():
    a = _link_sig("acme corporation")
    b = _link_sig("acme corporation")
    c = _link_sig("zzz totally different")
    assert (a == b).all()
    assert (a == c).mean() < 0.5


def test_shingles_never_empty():
    """Phase 2 relies on this: ``lsh.jaccard`` scores two empty sets 1.0."""
    assert cz.shingles("")
    assert cz.shingles("a")


def test_band_keys_batch_matches_per_norm():
    """The block-wide MinHash kernel gives the per-norm reference's
    signatures and int64 band keys, in norm-major order, so bucket
    membership is unchanged."""
    import random
    rng = random.Random(7)
    alphabet = "abcdefgh ijé漢-"
    norms = ["", "a", "é", "漢字 ü", "x" * 200, "y" * 200] + [
        "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
        for _ in range(500)]
    got = lsh.minhash_signatures(*cz.shingle_csr(pa.array(norms)), 32)
    want = np.stack([_link_sig(n) for n in norms])
    assert got.dtype == np.uint64 and (got == want).all()
    assert (lsh.band_keys(got, 8) == lsh.band_keys(want, 8)).all()
    empty = lsh.minhash_signatures(*cz.shingle_csr(pa.array([], pa.string())),
                                   32)
    assert empty.shape == (0, 32) and lsh.band_keys(empty, 8).shape == (0, 8)


def _random_norms(seed: int, n: int) -> list[str]:
    """Norms over ASCII and non-ASCII letters, a combining mark, astral-plane
    characters and whitespace, plus the empty, single-character and
    whitespace-only edge cases."""
    import random
    rng = random.Random(seed)
    alphabet = "abcxyz éüß漢字\u0301\U0001d518\U0001f600-\t"
    return ["", "a", " ", "   ", "\t", "é", "\u0301", "\U0001d518",
            "a\u0301b", "x" * 150] + [
        "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 25)))
        for _ in range(n)]


def test_shingle_csr_matches_shingles():
    """The column kernel gives every norm the per-norm reference's set, as
    one sorted, duplicate-free CSR row in input order."""
    norms = _random_norms(13, 2000)
    indptr, vals = cz.shingle_csr(pa.array(norms, pa.string()))
    assert indptr.dtype == np.int64 and vals.dtype == np.uint64
    assert len(indptr) == len(norms) + 1
    for i, n in enumerate(norms):
        assert vals[indptr[i]:indptr[i + 1]].tolist() == \
            sorted(cz.shingles(n)), n
    chunked = cz.shingle_csr(pa.chunked_array([norms[:7], norms[7:]],
                                              pa.string()))
    assert all(np.array_equal(x, y) for x, y in zip(chunked,
                                                      (indptr, vals)))
    indptr, vals = cz.shingle_csr(pa.array([], pa.string()))
    assert indptr.tolist() == [0] and vals.size == 0


def test_hash_embed_scorer_matches_per_shingle_loop():
    """The CSR accumulation gives the per-shingle loop's embeddings bit
    for bit (sums of +-1.0 are exact in float32)."""
    texts = _random_norms(17, 300)
    scorer = cz.HashEmbedScorer()
    want = np.zeros((len(texts), scorer.dim), dtype=np.float32)
    for i, t in enumerate(texts):
        for sh in cz.shingles(t):
            want[i, sh % scorer.dim] += 1.0 if (sh >> 16) & 1 else -1.0
    norms = np.linalg.norm(want, axis=1, keepdims=True)
    np.divide(want, norms, out=want, where=norms > 0)
    assert np.array_equal(scorer._embed_batch(texts), want)


def _brute_force_bucket_pairs(df: pd.DataFrame, p: cz.LinkParams) -> set:
    """Reference: per band bucket, all pairs of the ``max_bucket`` smallest
    distinct norms, true Jaccard, threshold, deduplicated across buckets."""
    out = set()
    for _, g in df.groupby("bucket"):
        ns = sorted(set(g["norm"]))[: p.max_bucket]
        for i in range(len(ns)):
            for j in range(i + 1, len(ns)):
                jv = lsh.jaccard(cz.shingles(ns[i]), cz.shingles(ns[j]))
                if jv >= p.jaccard_threshold:
                    out.add((ns[i], ns[j], jv))
    return out


def _random_bucket_frame(seed: int) -> pd.DataFrame:
    """(bucket, norm) rows with singleton buckets, duplicate rows, a
    100-norm bucket over the default cap of 64 and a pair that collides in
    several buckets."""
    import random
    rng = random.Random(seed)
    bases = ["acme corporation", "globex industries", "initech systems",
             "meridian capital"]
    vocab = sorted({b[:i] + rng.choice("xyz") + b[i + 1:]
                    for b in bases for i in range(len(b))} | set(bases))
    rows = []
    for k in range(60):
        size = rng.choice([1, 1, 2, 3, 5, 8])
        rows += [(f"{k % 8}:{k:08x}", rng.choice(vocab)) for _ in range(size)]
    rows += rows[:10]                                   # duplicate rows
    rows += [("0:big", f"acme corporation {i:03d}") for i in range(100)]
    rows += [(f"{k}:multi", n) for k in range(5)
             for n in ("acme corporation", "acme corporatio")]
    rng.shuffle(rows)
    return pd.DataFrame(rows, columns=["bucket", "norm"])


def test_verify_bucket_pairs_matches_brute_force():
    """The band wave's reduce (``_verify_band_bucket``) over one coarse
    bucket equals the brute-force per-band-bucket pair list."""
    p = cz.LinkParams()
    for seed in range(4):
        df = _random_bucket_frame(seed)
        n, out = cz._verify_band_bucket(p, None, 0, pa.table(df))
        assert n >= out.num_rows
        got = list(zip(*(out[c].to_pylist()
                         for c in ("norm_a", "norm_b", "jaccard"))))
        assert len(got) == len(set(got))        # each pair scored once
        want = _brute_force_bucket_pairs(df, p)
        assert set(got) == want
        # the over-cap bucket contributes pairs, but only below the cap
        assert any(a.startswith("acme corporation 0") for a, _, _ in got)
        # "acme corporation 099" sits past the cap of the 100-norm bucket
        assert not any("099" in a + b for a, b, _ in got)
        assert ("acme corporatio", "acme corporation") in {
            (a, b) for a, b, _ in got}

    n, empty = cz._verify_band_bucket(
        p, None, 0, pa.table({"bucket": pa.array([], pa.string()),
                              "norm": pa.array([], pa.string())}))
    assert n == 0 and empty.num_rows == 0
    assert empty.schema == pa.schema([("norm_a", pa.string()),
                                      ("norm_b", pa.string()),
                                      ("jaccard", pa.float64())])


def test_alias_table_matches_brute_force_reference():
    """Ray-level ``build_alias_table`` over a ~2k-label vocabulary with
    planted variants and an 80-label shared-prefix block (a band bucket
    over ``max_bucket``) equals a driver-side reference: per-norm band
    keys, the brute-force per-bucket pair list, the same embed-score
    filter and ``lsh.union_find_roots``."""
    import random
    rng = random.Random(11)
    letters = "abcdefghijklmnopqrstuvwxyz"
    labels = []
    for _ in range(1800):
        w = " ".join("".join(rng.choice(letters)
                             for _ in range(rng.randint(3, 9)))
                     for _ in range(rng.randint(1, 3)))
        labels.append(w.title())
        r = rng.random()
        if r < 0.1:
            labels.append("  " + w.upper().replace(" ", "   ") + " ")
        elif r < 0.3 and len(w) > 4:
            i = rng.randrange(len(w))
            labels.append(w[:i] + rng.choice(letters) + w[i + 1:])
    prefix = ("Consolidated Amalgamated Holdings of the Northern Territories"
              " and Associated Mercantile Interests")
    labels += [f"{prefix} {i:02d}" for i in range(80)]
    p = cz.LinkParams()

    norms = sorted({cz.normalize_surface(x) for x in labels})
    keys = lsh.band_keys(np.stack([_link_sig(n, p.num_perm) for n in norms]),
                         p.bands)
    bucket_rows = pd.DataFrame(
        [(k, n) for n, row in zip(norms, keys) for k in row],
        columns=["bucket", "norm"])
    sizes = bucket_rows.groupby("bucket")["norm"].nunique()
    assert sizes.max() > p.max_bucket
    pairs = pd.DataFrame(sorted(_brute_force_bucket_pairs(bucket_rows, p)),
                         columns=["norm_a", "norm_b", "jaccard"])
    scored = cz.HashEmbedScorer()(
        pa.Table.from_pandas(pairs, preserve_index=False)).to_pandas()
    pairs = scored[scored["cos_sim"] >= p.cosine_threshold]
    root_of = lsh.union_find_roots(pairs["norm_a"], pairs["norm_b"])
    clustered = set(pairs["norm_a"]) | set(pairs["norm_b"])
    want = {(n, cz.canonical_id_of(root_of.get(n, n)), n in clustered)
            for n in norms}
    assert len(clustered) > 50

    alias = cz.build_alias_table(nodes_ds(labels).repartition(4),
                                 CFG, link=p).to_pandas()
    got = {(n, c, bool(k)) for n, c, k in zip(
        alias["norm"], alias["canonical_id"], alias["is_clustered"])}
    assert len(alias) == len(norms)
    assert got == want


def test_surface_table_counts_and_variant_pick():
    ds = nodes_ds(["Acme Corp", "ACME Corp", "Acme Corp", "Beta Inc"])
    surf = cz.build_surface_table(ds, CFG).to_pandas().set_index("norm")
    assert int(surf.loc["acme corp", "n_mentions"]) == 3
    # most frequent original-case variant wins
    assert surf.loc["acme corp", "canonical_label"] == "Acme Corp"
    assert int(surf.loc["beta inc", "n_mentions"]) == 1


def test_alias_links_near_duplicates():
    labels = (["Acme Corporation"] * 5 + ["Acme Corporatio"] * 2  # typo variant
              + ["Globex Industries"] * 3)
    alias = cz.build_alias_table(nodes_ds(labels), CFG).to_pandas()
    by_norm = alias.set_index("norm")
    assert (by_norm.loc["acme corporation", "canonical_id"]
            == by_norm.loc["acme corporatio", "canonical_id"])
    # cluster canonical label comes from the most-mentioned member
    assert by_norm.loc["acme corporatio", "canonical_label"] == "Acme Corporation"
    assert (by_norm.loc["globex industries", "canonical_id"]
            != by_norm.loc["acme corporation", "canonical_id"])
    assert int(by_norm.loc["acme corporation", "cluster_mentions"]) == 7


def test_alias_does_not_link_distinct():
    alias = cz.build_alias_table(
        nodes_ds(["Acme Corporation", "Meridian Capital", "John Doe"]),
        CFG).to_pandas()
    assert alias["canonical_id"].nunique() == 3


def test_embed_scorer_batch_shape():
    import pyarrow as pa
    scorer = cz.HashEmbedScorer()
    t = pa.table({"norm_a": ["acme corp", "john doe"],
                  "norm_b": ["acme corp", "zzz unrelated"]})
    out = scorer(t)
    sims = out["cos_sim"].to_pylist()
    assert sims[0] == pytest.approx(1.0, abs=1e-5)
    assert sims[1] < 0.9


def test_canonicalize_edges_dedup_and_weight():
    edges = rd.from_pandas(pd.DataFrame({
        "subj": ["Acme Corp", "ACME Corp", "Acme Corp", "Beta Inc"],
        "pred": ["acquired", "acquired", "acquired", "located_in"],
        "obj": ["Beta Inc", "Beta Inc", "Gamma LLC", "Austin"],
    }))
    alias = cz.build_alias_table(
        nodes_ds(["Acme Corp", "Acme Corp", "ACME Corp", "Beta Inc",
                  "Gamma LLC", "Austin"]), CFG)
    out = cz.canonicalize_edges(edges, alias, CFG).to_pandas()
    key = out.set_index(["src_label", "pred", "dst_label"])["weight"]
    # exact-dup edges collapse with weight, case variants unify
    assert int(key.loc[("Acme Corp", "acquired", "Beta Inc")]) == 2
    assert int(key.loc[("Acme Corp", "acquired", "Gamma LLC")]) == 1
    assert len(out) == 3
    assert out["canonical_src"].str.startswith("e_").all()


def test_canonicalize_unknown_surface_falls_back():
    """Edges whose endpoints never appeared as nodes still canonicalize
    deterministically (hash of their own norm)."""
    edges = rd.from_pandas(pd.DataFrame({
        "subj": ["Mystery Co"], "pred": ["acquired"], "obj": ["Acme Corp"]}))
    alias = cz.build_alias_table(nodes_ds(["Acme Corp"]), CFG)
    out = cz.canonicalize_edges(edges, alias, CFG).to_pandas()
    assert out.iloc[0]["canonical_src"] == cz.canonical_id_of("mystery co")


def test_canonical_nodes_table():
    alias = cz.build_alias_table(
        nodes_ds(["Acme Corporation"] * 3 + ["Acme Corporatio"]), CFG)
    nodes = cz.canonical_nodes_table(alias).to_pandas()
    assert len(nodes) == 1
    assert int(nodes.iloc[0]["n_aliases"]) == 2
    assert int(nodes.iloc[0]["n_mentions"]) == 4


def test_broadcast_cap_identity_fallback():
    """With a broadcast cap of 1, below-cap unclustered norms resolve via
    identity hashing to EXACTLY the canonical id the alias table assigns
    them, and clustered norms still unify (always broadcast)."""
    from dataclasses import replace
    labels = (["Acme Corporation"] * 5 + ["Acme Corporatio"] * 2
              + ["Rare Solo Co"])
    alias = cz.build_alias_table(nodes_ds(labels), CFG)
    edges = rd.from_pandas(pd.DataFrame({
        "subj": ["Acme Corporatio", "Rare Solo Co"],
        "pred": ["acquired", "acquired"],
        "obj": ["Rare Solo Co", "Acme Corporation"]}))
    capped = replace(CFG, broadcast_vocab_cap=1)
    out = cz.canonicalize_edges(edges, alias, capped).to_pandas()
    full = cz.canonicalize_edges(edges, alias, CFG).to_pandas()
    cols = ["canonical_src", "pred", "canonical_dst", "weight"]
    assert (out[cols].sort_values(cols).reset_index(drop=True)
            .equals(full[cols].sort_values(cols).reset_index(drop=True)))
    # typo variant still rewrites onto the cluster id despite the cap
    cluster_id = (alias.to_pandas().set_index("norm")
                  .loc["acme corporation", "canonical_id"])
    assert cluster_id in set(out["canonical_src"])


def test_hot_alias_frame_is_capped():
    import hashlib
    # mutually dissimilar labels (hash-derived) so LSH links nothing
    labels = ["Zz" + hashlib.sha256(str(i).encode()).hexdigest()[:12]
              for i in range(50)]
    alias = cz.build_alias_table(nodes_ds(labels), CFG)
    assert not alias.to_pandas()["is_clustered"].any()
    hot = cz.hot_alias_frame(alias, cap=5)
    assert len(hot) == 5            # no clusters -> exactly the cap
    assert not hot["norm"].duplicated().any()


def test_hot_key_skew_partials_bounded():
    """A hot surface form (many mentions) must reach the shuffle as partial
    counts, not mention rows: surface table still exact."""
    labels = ["Acme Corporation"] * 5000 + ["Rare Co"]
    ds = nodes_ds(labels).repartition(8)
    surf = cz.build_surface_table(ds, CFG).to_pandas().set_index("norm")
    assert int(surf.loc["acme corporation", "n_mentions"]) == 5000
    assert int(surf.loc["rare co", "n_mentions"]) == 1


def test_below_cap_label_variants_never_split_triple_weight():
    """Regime the broadcast_vocab_cap targets (>cap vocabulary): a norm
    OUTSIDE the broadcast map appearing in two casings must still produce
    ONE canonical triple with the summed weight and a deterministic label
    (ADVICE round 2: 5-key grouping split the weight by casing)."""
    import pandas as pd
    import ray.data as rd

    from ai_knowledgegraph_extractor_ray.config import KGConfig
    from ai_knowledgegraph_extractor_ray.stages.canonicalize import (
        ALIAS_COLS,
        canonicalize_edges,
    )

    SUBJ = ["Acme", "Acme", "ACME", "acme", "Acme"]
    OBJ = ["Bob Smith", "Bob Smith", "Bob Smith", "Bob Smith", "BOB SMITH"]
    edges = rd.from_pandas(pd.DataFrame({
        "subj": SUBJ, "pred": ["works_at"] * 5, "obj": OBJ}))
    # empty broadcast map == every norm is below the cap
    empty_alias = pd.DataFrame(columns=ALIAS_COLS)
    out = canonicalize_edges(edges, empty_alias, KGConfig()).to_pandas()
    assert len(out) == 1
    row = out.iloc[0]
    assert row["weight"] == 5
    # deterministic label pick: heaviest pair is ("Acme", "Bob Smith") x2
    assert row["src_label"] == "Acme"
    assert row["dst_label"] == "Bob Smith"

    # determinism across block layouts
    out2 = canonicalize_edges(
        rd.from_pandas(pd.DataFrame({
            "subj": SUBJ, "pred": ["works_at"] * 5, "obj": OBJ}))
        .repartition(5), empty_alias, KGConfig()).to_pandas()
    assert out2.iloc[0].equals(row)


def _rewrite_and_count_dict(amap: dict, batch: pa.Table) -> pa.Table:
    """The per-row reference for ``_rewrite_and_count``: a dict broadcast
    (norm -> (canonical id, canonical label)) and a Python count per
    canonical (src, pred, dst, src_label, dst_label) row."""
    counts: dict[tuple, int] = {}
    for subj, pred, obj in zip(batch["subj"].to_pylist(),
                               batch["pred"].to_pylist(),
                               batch["obj"].to_pylist()):
        if subj is None or obj is None:
            continue
        sn, on = cz.normalize_surface(subj), cz.normalize_surface(obj)
        s = amap.get(sn, (cz.canonical_id_of(sn), subj))
        o = amap.get(on, (cz.canonical_id_of(on), obj))
        key = (s[0], pred, o[0], s[1], o[1])
        counts[key] = counts.get(key, 0) + 1
    keys = list(counts)
    return pa.table({
        **{c: pa.array([k[i] for k in keys], pa.string())
           for i, c in enumerate(cz._EDGE_KEYS5)},
        "weight": pa.array(list(counts.values()), pa.int64())})


@pytest.mark.parametrize("case", ["full", "capped", "empty"])
def test_rewrite_partials_match_dict_reference(case):
    """Arrow rewrite partials, merged per bucket, give the same canonical
    edges as the dict reference's: rows with a null subj, obj or pred, a
    norm missing from the broadcast in several casings (the below-cap
    split), a clustered norm and an empty broadcast."""
    import random
    from collections import Counter

    import ray

    rng = random.Random(6)
    names = ["Acme Corp", "ACME corp", "acme  Corp", "Beta Inc", "beta inc",
             "Gamma LLC", "Delta Co", "DELTA CO", "Éclair SA", "éclair sa"]
    rows = [(rng.choice(names + [None]), rng.choice(["owns", "near", None]),
             rng.choice(names + [None])) for _ in range(400)]
    batch = pa.table({c: pa.array([r[i] for r in rows], pa.string())
                      for i, c in enumerate(("subj", "pred", "obj"))})
    alias = pd.DataFrame({
        "norm": ["acme corp", "beta inc", "gamma llc", "éclair sa"],
        "canonical_id": ["e_acme", "e_beta", "e_gamma", "e_acme"],
        "canonical_label": ["Acme Corp", "Beta Inc", "Gamma LLC",
                            "Acme Corp"]})
    alias = {"full": alias, "capped": alias.iloc[:2],
             "empty": alias.iloc[:0]}[case]
    amap = {n: (i, lab) for n, i, lab in zip(
        alias["norm"], alias["canonical_id"], alias["canonical_label"])}
    ref = ray.put(pa.table({c: pa.array(alias[c], pa.string())
                            for c in cz.BROADCAST_COLS}))
    blocks = [batch.slice(i, 50) for i in range(0, batch.num_rows, 50)]
    got = [cz._rewrite_and_count(ref, b) for b in blocks]
    want = [_rewrite_and_count_dict(amap, b) for b in blocks]
    assert all(g.schema == w.schema for g, w in zip(got, want))
    for g, w in zip(got, want):      # null preds: compare as row bags
        assert Counter(map(tuple, g.to_pandas().astype(object).values)) \
            == Counter(map(tuple, w.to_pandas().astype(object).values))
    merged = [cz.merge_edge_partials(0, pa.concat_tables(x)).to_pandas()
              for x in (got, want)]
    cols = cz._EDGE_KEYS5 + ["weight"]
    assert _row_set(merged[0], cols) == _row_set(merged[1], cols)
    assert merged[0]["weight"].sum() == sum(
        s is not None and o is not None and p is not None
        for s, p, o in rows)
    empty = cz._rewrite_and_count(ref, batch.slice(0, 0))
    assert empty.num_rows == 0 and empty.schema == want[0].schema


def test_edge_wave_broadcasts_an_arrow_table(monkeypatch):
    """The rewrite broadcast is one ``pa.Table`` of ``BROADCAST_COLS``, not
    a pickled dict."""
    import ray

    put = ray.put
    seen = []

    def recording_put(value, *args, **kwargs):
        seen.append(value)
        return put(value, *args, **kwargs)

    monkeypatch.setattr(ray, "put", recording_put)
    edges = rd.from_pandas(pd.DataFrame({
        "subj": ["Acme Corp"], "pred": ["owns"], "obj": ["Beta Inc"]}))
    alias = pd.DataFrame({"norm": ["acme corp"], "canonical_id": ["e_a"],
                          "canonical_label": ["Acme"]})
    out = cz.as_dataset(cz.edge_wave(edges, alias)).to_pandas()
    assert out["canonical_src"].tolist() == ["e_a"]
    # Ray Data puts its own objects too (the input frame, map transformers)
    lookups = [v for v in seen if isinstance(v, (pa.Table, dict))]
    assert len(lookups) == 1 and isinstance(lookups[0], pa.Table)
    assert lookups[0].column_names == cz.BROADCAST_COLS


# --- stage A4: learned-model scorer seam (round-3 item 7) --------------------

class _TinyModel:
    """sentence-transformers-compatible stub: encode(list[str]) -> array.
    Maps any 'acme*' surface to one shared vector and everything else to
    per-text orthogonal-ish vectors, so the model DECIDES the clustering."""

    def encode(self, texts):
        import zlib

        import numpy as np
        out = np.zeros((len(texts), 8), dtype=np.float32)
        for i, t in enumerate(texts):
            if t.startswith("acme"):
                out[i, 0] = 1.0
            else:
                # crc32, not hash(): builtin str hash is salted per process,
                # and the model runs inside Ray workers — per-worker seeds
                # would make the same text embed differently (flaky merges).
                out[i, (zlib.crc32(t.encode()) % 7) + 1] = 1.0
        return out


def _load_tiny_model():
    return _TinyModel()


def test_model_embed_scorer_drives_clustering():
    """build_alias_table with an injected model loader: the MODEL's scores
    (not the hash fallback) gate cluster formation — 'swap one method' is
    executable, per the make_embed_scorer seam."""
    import pandas as pd
    import ray.data as rd

    from ai_knowledgegraph_extractor_ray.config import KGConfig
    from ai_knowledgegraph_extractor_ray.stages.canonicalize import (
        build_alias_table,
        make_embed_scorer,
        ModelEmbedScorer,
    )

    cfg = KGConfig(extra={"embed_model_loader": _load_tiny_model})
    cls, kw = make_embed_scorer(cfg)
    assert cls is ModelEmbedScorer

    # surfaces that pass LSH blocking (high char-3-gram Jaccard)
    nodes = rd.from_pandas(pd.DataFrame({
        "conv_id": ["c1"] * 6,
        "label": ["Acme Corporation", "ACME CORPORATION", "acme corporation!",
                  "Data Engine", "Data Enginee", "Quartz"],
        "node_type": ["Organization"] * 6,
    }))
    alias = build_alias_table(nodes, cfg).to_pandas()
    by_norm = alias.set_index("norm")
    acme = [n for n in by_norm.index if n.startswith("acme")]
    assert len(set(by_norm.loc[acme, "canonical_id"])) == 1   # model: same vec
    # 'data engine*' pass blocking but the model gives them DIFFERENT vectors
    data = [n for n in by_norm.index if n.startswith("data engine")]
    assert len(data) == 2
    assert len(set(by_norm.loc[data, "canonical_id"])) == 2   # model said no


def test_model_scorer_without_runtime_raises_importerror():
    import pytest

    from ai_knowledgegraph_extractor_ray.stages.canonicalize import (
        ModelEmbedScorer,
    )
    try:
        import sentence_transformers  # noqa: F401
        pytest.skip("sentence-transformers present in this env")
    except ImportError:
        pass
    with pytest.raises(ImportError, match="sentence-transformers"):
        ModelEmbedScorer("all-MiniLM-L6-v2")


def test_within_one_edit_cases():
    from ai_knowledgegraph_extractor_ray.stages.canonicalize import (
        _within_one_edit)

    assert _within_one_edit("abc", "abc")
    assert _within_one_edit("abc", "abd")      # substitution
    assert _within_one_edit("abc", "ab")       # deletion
    assert _within_one_edit("ab", "abc")       # insertion
    assert _within_one_edit("abc", "axbc")     # mid insertion
    assert not _within_one_edit("ab", "ba")    # transposition = 2 edits
    assert not _within_one_edit("abc", "adc2")
    assert not _within_one_edit("abcd", "ab")


def test_fuzzy_label_pairs_blocking_and_verify():
    """Deletion-neighborhood candidates include a distance-2 decoy
    ('ab'/'ba' share deletion variants) that the exact verify must
    reject; true distance-1 pairs across sub/del/ins all surface."""
    import pandas as pd
    import ray.data as rd

    from ai_knowledgegraph_extractor_ray.stages.canonicalize import (
        fuzzy_label_pairs)

    labels = ["Paris", "Pariss", "Parys", "ab", "ba",
              "London", "Londn", "Tokyo", "Tokyo"]
    ds = rd.from_pandas(pd.DataFrame({"label": labels}))
    out = fuzzy_label_pairs(ds).to_pandas()
    got = {tuple(r) for r in out[["label_a", "label_b"]].itertuples(
        index=False)}
    assert ("Paris", "Pariss") in got
    assert ("Paris", "Parys") in got
    assert ("Londn", "London") in got
    assert ("ab", "ba") not in got             # decoy rejected
    assert ("Pariss", "Parys") not in got      # distance 2
    # output is distinct, ordered pairs
    assert (out["label_a"] < out["label_b"]).all()
    assert not out.duplicated().any()


def test_fuzzy_label_pairs_skips_null_labels():
    """A null label is no label: it pairs with nothing (as the surface
    wave skips it), instead of standing in as the string 'None'."""
    ds = rd.from_arrow(pa.table({"label": pa.array(
        ["Nonf", None, "acme", "acne", "Done"], pa.string())}))
    out = cz.fuzzy_label_pairs(ds).to_pandas()
    assert set(out[["label_a", "label_b"]].itertuples(
        index=False, name=None)) == {("acme", "acne")}


def test_typo_tier_links_short_aliases():
    """'IBM'/'IBN' share no trigram shingles, so LSH+cosine never links
    them; the typo tier (edit-distance-1, scorer-bypassed) does. Off by
    default to preserve exact reference parity."""
    labels = ["IBM"] * 5 + ["IBN"] * 2 + ["Globex Industries"] * 3

    base = cz.build_alias_table(nodes_ds(labels), CFG).to_pandas()
    bn = base.set_index("norm")
    assert bn.loc["ibm", "canonical_id"] != bn.loc["ibn", "canonical_id"]

    link = cz.LinkParams(typo_tier=True)
    fuzz = cz.build_alias_table(nodes_ds(labels), CFG,
                                link=link).to_pandas()
    fn = fuzz.set_index("norm")
    assert fn.loc["ibm", "canonical_id"] == fn.loc["ibn", "canonical_id"]
    assert fn.loc["ibn", "canonical_label"] == "IBM"   # most-mentioned rep
    assert int(fn.loc["ibm", "cluster_mentions"]) == 7
    assert (fn.loc["globex industries", "canonical_id"]
            != fn.loc["ibm", "canonical_id"])


# --- the phase-2 job against the public stage composition -------------------

TABLES = ("aliases", "canonical_nodes", "canonical_edges")


def _planted_transcripts(n_convs: int = 120, seed: int = 5) -> pa.Table:
    """'A acquired B.' turns over a ~400-name vocabulary; every 8th name
    also appears as a variant (whitespace, upper case or a one-character
    edit, so some variants have their own norm and cluster with the base)."""
    import random
    rng = random.Random(seed)
    syl = ["zor", "vex", "qui", "bly", "tan", "mor", "ke", "lin", "dra",
           "pex", "sol", "unt", "fra", "gem", "hol", "rix"]
    suffix = ["Holdings", "Systems", "Industries", "Labs", "Partners",
              "Group"]
    vocab = sorted({"".join(rng.choice(syl) for _ in range(3)).capitalize()
                    + " " + rng.choice(suffix) for _ in range(400)})
    variant = {}
    for k, name in enumerate(vocab[::8]):
        first, rest = name.split(" ", 1)
        i = rng.randrange(1, len(first))
        variant[name] = ("  ".join((first, rest)), name.upper(),
                         first[:i] + ("e" if first[i] == "a" else "a")
                         + first[i + 1:] + " " + rest)[k % 3]
    rows = {"conv_id": [], "turn_idx": [], "text": []}
    for c in range(n_convs):
        for t in range(rng.randint(2, 5)):
            a, b = rng.sample(vocab, 2)
            if rng.random() < 0.5:
                a = variant.get(a, a)
            rows["conv_id"].append(f"conv_{c:05d}")
            rows["turn_idx"].append(t)
            rows["text"].append(f"{a} acquired {b}.")
    return pa.table({"conv_id": rows["conv_id"],
                     "turn_idx": pa.array(rows["turn_idx"], pa.int32()),
                     "text": rows["text"]})


@pytest.fixture(scope="module")
def planted_lake(tmp_path_factory):
    """A committed phase-1 lake (P=4) over the planted corpus."""
    import pyarrow.parquet as pq

    from ai_knowledgegraph_extractor_ray.pipelines import kg
    from ai_knowledgegraph_extractor_ray.sources import transcripts as src
    root = tmp_path_factory.mktemp("planted")
    pq.write_table(_planted_transcripts(), root / "t.parquet")
    out = root / "lake"
    kg.run_kg_job(src.read_transcripts(str(root / "t.parquet")),
                  KGConfig(num_partitions=4), str(out))
    return out


def _fresh_lake(planted_lake, dst):
    """A copy of the phase-1 lake with no phase-2 output."""
    import shutil
    shutil.copytree(planted_lake, dst)
    return str(dst)


def _row_set(df: pd.DataFrame, cols: list[str]) -> list[tuple]:
    return sorted(df[cols].astype(object).itertuples(index=False, name=None))


def _job_tables(out: str, version: int = 1) -> dict[str, pd.DataFrame]:
    cdir = f"{out}/version={version}/canonical"
    return {t: pd.read_parquet(f"{cdir}/{t}") for t in TABLES}


def _failing_loader():
    raise RuntimeError("embed model failed to load")


@pytest.mark.parametrize("case", ["default_cap", "cap40", "p1", "typo",
                                  "link_fails"])
def test_canonicalize_job_matches_public_composition(planted_lake, tmp_path,
                                                     case):
    """``run_canonicalize_job`` and the public stages built from the same
    waves — ``build_alias_table`` -> ``canonicalize_edges`` ->
    ``canonical_nodes_table`` — give the same three tables: at the default
    broadcast cap (the broadcast is the whole alias table), with the cap
    below the vocabulary (the top-``cap`` partials decide), with one
    surface bucket (P=1), and with the typo tier on. ``link_fails``: a job
    whose embed model fails to load while linking raises before clearing
    anything, so the committed tables and manifest of the run before it
    survive and still read equal. The manifest counts equal the rows on
    disk, and every part file carries the manifest's ``schema_sig``."""
    import glob
    from dataclasses import replace

    import pyarrow.parquet as pq

    from ai_knowledgegraph_extractor_ray.pipelines import kg
    from ai_knowledgegraph_extractor_ray.state import schema_evo

    cfg = KGConfig(num_partitions=4,
                   alias_salt_buckets=1 if case == "p1" else 4)
    if case == "cap40":
        cfg = replace(cfg, broadcast_vocab_cap=40)
    link = cz.LinkParams(typo_tier=True) if case == "typo" else None
    out = _fresh_lake(planted_lake, tmp_path / "lake")
    summary = kg.run_canonicalize_job(out, cfg, link=link)
    if case == "link_fails":
        manifest = tmp_path / "lake" / "version=1" / "canonical" / \
            "_manifest.json"
        committed = manifest.read_text()
        with pytest.raises(RuntimeError, match="embed model"):
            kg.run_canonicalize_job(
                out, replace(cfg, extra={"embed_model_loader":
                                         _failing_loader}), resume=False)
        assert manifest.read_text() == committed

    alias = cz.build_alias_table(kg.read_nodes(out, 1), cfg,
                                 link).materialize()
    want = {"aliases": alias.to_pandas(),
            "canonical_nodes": cz.canonical_nodes_table(alias).to_pandas(),
            "canonical_edges": cz.canonicalize_edges(
                kg.read_edges(out, 1), alias, cfg).to_pandas()}
    assert want["aliases"]["is_clustered"].sum() >= 4   # clusters planted
    if case == "cap40":
        assert len(want["aliases"]) > 40

    got = _job_tables(out)
    for t in TABLES:
        cols = list(want[t].columns)
        assert sorted(got[t].columns) == sorted(cols), t
        assert _row_set(got[t], cols) == _row_set(want[t], cols), t
    assert summary["n_aliases"] == len(got["aliases"])
    assert summary["n_canonical_entities"] == len(got["canonical_nodes"])
    assert summary["n_canonical_edges"] == len(got["canonical_edges"])
    assert summary["n_clustered_norms"] == got["aliases"]["is_clustered"].sum()
    assert (summary["n_candidate_pairs"] >= summary["n_verified_pairs"]
            > 0)
    for t in TABLES:
        files = glob.glob(f"{out}/version=1/canonical/{t}/*.parquet")
        assert files, t
        assert {schema_evo.schema_sig(pq.read_schema(f))
                for f in files} == {summary["schema_sig"][t]}, t


def test_canonicalize_rerun_recovers_stale_and_torn_output(planted_lake,
                                                           tmp_path):
    """Crash-matrix cell of the phase-2 commit: the manifest is gone, a
    torn ``_manifest.json.tmp`` is left behind and every canonical
    directory holds a foreign part. A ``resume=True`` rerun recommits
    tables equal to a clean run's with no stale rows and correct counts.
    Until it does, the canonical readers refuse the version rather than
    read the uncommitted parts."""
    import json

    from ai_knowledgegraph_extractor_ray.pipelines import kg

    readers = {"aliases": kg.read_aliases,
               "canonical_nodes": kg.read_canonical_nodes,
               "canonical_edges": kg.read_canonical_edges}

    cfg = KGConfig(num_partitions=4, alias_salt_buckets=4)
    clean_out = _fresh_lake(planted_lake, tmp_path / "clean")
    clean = kg.run_canonicalize_job(clean_out, cfg)
    out = _fresh_lake(planted_lake, tmp_path / "crashed")
    kg.run_canonicalize_job(out, cfg)

    cdir = tmp_path / "crashed" / "version=1" / "canonical"
    (cdir / "_manifest.json").unlink()
    (cdir / "_manifest.json.tmp").write_text('{"version": 1, "n_ali')
    for t, df in _job_tables(out).items():
        df.head(3).assign(**{c: "stale" for c in df.columns
                             if df[c].dtype != bool
                             and not pd.api.types.is_numeric_dtype(df[c])}
                          ).to_parquet(cdir / t / "part-99999.parquet",
                                       index=False)
    for t, read in readers.items():
        for fn in (read, lambda o, v: kg.read_versions_harmonized(o, [v], t)):
            with pytest.raises(FileNotFoundError, match="version.*1"):
                fn(out, 1)

    again = kg.run_canonicalize_job(out, cfg)
    assert "resumed" not in again
    # equal but for the walls of the job's steps
    walls = {"stage_s": None}
    assert {**again, **walls} == {**clean, **walls}
    assert json.loads((cdir / "_manifest.json").read_text()) == again
    assert not (cdir / "_manifest.json.tmp").exists()
    want, got = _job_tables(clean_out), _job_tables(out)
    for t in TABLES:
        cols = list(want[t].columns)
        assert _row_set(got[t], cols) == _row_set(want[t], cols), t
        assert not (got[t][cols[0]] == "stale").any(), t
        assert _row_set(readers[t](out, 1).to_pandas(), cols) == \
            _row_set(want[t], cols), t
    assert kg.run_canonicalize_job(out, cfg)["resumed"] is True


def _count_ray_data_executions(monkeypatch) -> list:
    """A list that gains one item per Ray Data execution started."""
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    starts = []
    execute = StreamingExecutor.execute

    def counting(self, *args, **kwargs):
        starts.append(1)
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counting)
    return starts


@pytest.mark.parametrize("typo_tier,extra", [
    (False, {}), (True, {}),
    (False, {"embed_model_loader": _load_tiny_model})],
    ids=["typo_off", "typo_on", "model_scorer"])
def test_canonicalize_job_starts_no_ray_data_execution(planted_lake,
                                                       tmp_path,
                                                       monkeypatch,
                                                       typo_tier, extra):
    """Phase 2's plan runs no Ray Data execution, with the typo tier off
    or on and with an injected model loader (which has to reach the band
    wave's verify tasks): the surface and edge waves' tasks read the
    phase-1 files themselves, and every step, the typo wave and the embed
    scorer included, runs in a task wave over object refs."""
    from ai_knowledgegraph_extractor_ray.pipelines import kg

    out = _fresh_lake(planted_lake, tmp_path / "lake")
    starts = _count_ray_data_executions(monkeypatch)
    summary = kg.run_canonicalize_job(
        out, KGConfig(num_partitions=4, alias_salt_buckets=4, extra=extra),
        link=cz.LinkParams(typo_tier=typo_tier))
    assert len(starts) == 0
    assert summary["n_verified_pairs"] > 0


def test_link_surfaces_scores_10k_pairs_without_ray_data(tmp_path,
                                                         monkeypatch):
    """Linking a vocabulary whose blocking verifies over 10k pairs (6
    clusters of 64 labels, each a shared 48-character base and a 2-digit
    suffix, over 4 node files) scores them in the band wave's tasks: it
    starts no Ray Data execution, and its root table equals an in-process
    reference — one ``_verified_pairs`` pass over every band row, the
    hash scorer at the cosine threshold and ``lsh.union_find_roots``."""
    import random

    import pyarrow.parquet as pq
    import ray

    rng = random.Random(23)
    letters = "abcdefghijklmnopqrstuvwxyz"
    labels = [f"{base} {i:02d}"
              for base in ("".join(rng.choice(letters) for _ in range(48))
                           for _ in range(6))
              for i in range(64)]
    rng.shuffle(labels)
    paths = []
    for k in range(4):
        paths.append(str(tmp_path / f"nodes-{k}.parquet"))
        pq.write_table(pa.table({"label": labels[k::4]}), paths[-1])

    p = cz.LinkParams()
    band = cz._band_rows(p, pa.table({"norm": sorted(set(labels))}))
    _, pairs = cz._verified_pairs(
        band["bucket"].to_numpy(),
        band["norm"].to_numpy(zero_copy_only=False), p)
    scored = cz.HashEmbedScorer()(pairs)
    scored = scored.filter(pc.greater_equal(scored["cos_sim"],
                                            p.cosine_threshold))
    want = lsh.union_find_roots(scored["norm_a"].to_pylist(),
                                scored["norm_b"].to_pylist())

    starts = _count_ray_data_executions(monkeypatch)
    _, roots, counts = cz.link_surfaces(paths, CFG, link=p)
    assert len(starts) == 0
    assert counts["n_verified_pairs"] == pairs.num_rows >= 10_000
    got = ray.get(roots)
    assert dict(zip(got["norm"].to_pylist(), got["root"].to_pylist())) \
        == want
    assert len(set(want.values())) == 6


def test_canonicalize_resume_requires_the_same_link_config(planted_lake,
                                                           tmp_path):
    """A phase-2 rerun over unchanged phase-1 output resumes only under
    the linking configuration it committed with (``link_sig``): other
    ``LinkParams``, the scorer switched off or another broadcast cap
    recompute, and give the tables a fresh run under that configuration
    gives; an identical rerun still resumes, and a manifest that records
    no ``link_sig`` is recomputed."""
    import json
    from dataclasses import replace

    from ai_knowledgegraph_extractor_ray.pipelines import kg

    cfg = KGConfig(num_partitions=4, alias_salt_buckets=4)
    loose = cz.LinkParams(jaccard_threshold=0.3)
    fresh_out = _fresh_lake(planted_lake, tmp_path / "fresh")
    fresh = kg.run_canonicalize_job(fresh_out, cfg, link=loose)
    fresh_tables = _job_tables(fresh_out)

    out = _fresh_lake(planted_lake, tmp_path / "lake")
    default = kg.run_canonicalize_job(out, cfg)
    assert kg.run_canonicalize_job(out, cfg)["resumed"] is True

    again = kg.run_canonicalize_job(out, cfg, link=loose)
    assert "resumed" not in again
    assert again["n_clustered_norms"] == fresh["n_clustered_norms"] \
        > default["n_clustered_norms"]
    assert again["n_canonical_entities"] == fresh["n_canonical_entities"] \
        < default["n_canonical_entities"]
    got = _job_tables(out)
    for t in TABLES:
        cols = list(fresh_tables[t].columns)
        assert _row_set(got[t], cols) == _row_set(fresh_tables[t], cols), t
    assert kg.run_canonicalize_job(out, cfg, link=loose)["resumed"] is True

    for kwargs, run_cfg in (({"use_embed_scorer": False}, cfg),
                            ({}, replace(cfg, broadcast_vocab_cap=10))):
        assert "resumed" not in kg.run_canonicalize_job(out, run_cfg,
                                                        **kwargs)
        assert kg.run_canonicalize_job(out, run_cfg,
                                       **kwargs)["resumed"] is True

    manifest = tmp_path / "lake" / "version=1" / "canonical" / \
        "_manifest.json"
    old = json.loads(manifest.read_text())
    del old["link_sig"]
    manifest.write_text(json.dumps(old))
    assert "resumed" not in kg.run_canonicalize_job(out, cfg)


def test_canonical_manifest_records_stage_walls_and_mentions(planted_lake,
                                                             tmp_path):
    """The canonical manifest carries the driver walls of the job's steps,
    which sum to the job's wall within 5%, and the mention total, which
    equals the node rows with a label and the canonical nodes' mentions."""
    import json
    import time

    from ai_knowledgegraph_extractor_ray.pipelines import kg

    out = _fresh_lake(planted_lake, tmp_path / "lake")
    t0 = time.perf_counter()
    summary = kg.run_canonicalize_job(
        out, KGConfig(num_partitions=4, alias_salt_buckets=4))
    wall = time.perf_counter() - t0
    manifest = json.loads((tmp_path / "lake" / "version=1" / "canonical"
                           / "_manifest.json").read_text())
    assert manifest == summary
    stages = summary["stage_s"]
    assert list(stages) == ["surface", "band", "link", "alias", "edge",
                            "commit"]
    assert all(v >= 0 for v in stages.values())
    assert abs(sum(stages.values()) - wall) <= 0.05 * wall
    nodes = kg.read_nodes(out, 1).to_pandas()
    assert summary["n_mentions"] == int(nodes["label"].notna().sum()) > 0
    assert summary["n_mentions"] == int(
        kg.read_canonical_nodes(out, 1).to_pandas()["n_mentions"].sum())
