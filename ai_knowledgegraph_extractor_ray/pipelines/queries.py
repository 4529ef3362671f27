"""Driver-facing query catalog: Ray-side implementation of every operator
pipeline exposed through ``__ray_entry__.queries()``.

Each function takes an ``sf_dir`` of testdata parquet tables and returns a
Dataset / DataFrame whose COLUMN NAMES AND TYPES match the DuckDB oracle SQL
in ``__ray_entry__.oracle_sql()`` exactly (the driver sorts columns by name
and value-hashes, so names and value representations must agree; floats are
returned as integer basis points to keep hashes stable).

These are thin compositions over the library operators — the operator logic
lives in ops/ and stages/; this module only wires and projects.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from ..config import KGConfig
from ..functions.rules import extract_entities
from ..ops import dedup, similarity, text as text_ops
from ..sources import transcripts as src
from ..stages import canonicalize as cz
from ..stages.conversation import assemble_table

QCFG = KGConfig(num_partitions=16)


def _read(path: str, columns: list[str] | None = None) -> rd.Dataset:
    """``rd.read_parquet(path, columns=columns)`` whose blocks carry no
    schema metadata. The testdata files were written by pandas, and Ray
    Data hashes each block's schema to dedup it: on their ``pandas``
    metadata, a dict, it logs ``Failed to hash the schemas … unhashable
    type: 'dict'`` for every block. So the read schema is the file's
    without its metadata; a map after the read cannot drop it, as the read
    splits its blocks and does not fuse with the map."""
    import pyarrow.parquet as pq
    schema = pq.read_schema(path).remove_metadata()
    if columns is not None:
        schema = pa.schema([schema.field(c) for c in columns])
    return rd.read_parquet(path, columns=columns, schema=schema)


def _documents(sf_dir: str) -> rd.Dataset:
    return _read(f"{sf_dir}/documents.parquet")


def _assembled(sf_dir: str, version_cutoff: int | None = None) -> rd.Dataset:
    ds = src.transcripts_from_documents(sf_dir)

    def merge(tbl: pa.Table) -> pa.Table:
        # assemble_table stamps its output with the partition id; the
        # dataset exchange keeps its stamp internal, and this query projects
        # the column away, so any constant works
        return assemble_table(tbl.append_column("partition_id", pa.array(
            np.zeros(tbl.num_rows, np.int32))), version_cutoff=version_cutoff)

    from ..ops.exchange import hash_exchange_dataset
    return hash_exchange_dataset(ds, QCFG.num_partitions, merge,
                                 key="conv_id")


# --- conversation assembly / versioning (reference M14, S8, J3, G4) ---------

def q_assemble(sf_dir: str) -> rd.Dataset:
    return _assembled(sf_dir).select_columns(["conv_id", "text", "n_turns"])


def q_assemble_prefix(sf_dir: str) -> rd.Dataset:
    """Version semantics: cutoff at turn_idx <= 2 (reference main.py:231-259)."""
    return _assembled(sf_dir, version_cutoff=2).select_columns(
        ["conv_id", "text", "n_turns"])


def q_transcript_stats(sf_dir: str) -> pd.DataFrame:
    """Corpus stats (reference get_database_stats, database_service.py:314-346):
    per-block partials -> per-conversation merge -> one driver-side row."""
    ds = src.transcripts_from_documents(sf_dir)

    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        chars = pc.utf8_length(t["text"]).cast(pa.int64())
        tmp = pa.table({"conv_id": t["conv_id"], "n": chars})
        df = tmp.to_pandas().groupby("conv_id", as_index=False).agg(
            n_turns=("n", "size"), n_chars=("n", "sum"))
        # no ``pandas`` metadata: the aggregate hashes block schemas (_read)
        return pa.Table.from_pandas(df, preserve_index=False
                                    ).replace_schema_metadata(None)

    per_conv = (ds.map_batches(partial, batch_format="pyarrow")
                .groupby("conv_id")
                .aggregate(Sum("n_turns", alias_name="n_turns"),
                           Sum("n_chars", alias_name="n_chars"))
                .to_pandas())  # one row per conversation (bounded)
    return pd.DataFrame({
        "n_convs": pd.Series([len(per_conv)], dtype="int64"),
        "n_turns": pd.Series([int(per_conv["n_turns"].sum())], dtype="int64"),
        "total_chars": pd.Series([int(per_conv["n_chars"].sum())], dtype="int64"),
    })


def q_latest_turn(sf_dir: str) -> rd.Dataset:
    """Latest version per conversation (reference database_service.py:112-115)."""
    from ray.data.aggregate import Max

    ds = src.transcripts_from_documents(sf_dir)

    def partial(t: pa.Table) -> pa.Table:
        df = pa.table({"conv_id": t["conv_id"], "turn_idx": t["turn_idx"]}).to_pandas()
        out = df.groupby("conv_id", as_index=False)["turn_idx"].max()
        return pa.Table.from_pandas(out, preserve_index=False
                                    ).replace_schema_metadata(None)

    return (ds.map_batches(partial, batch_format="pyarrow")
            .groupby("conv_id")
            .aggregate(Max("turn_idx", alias_name="max_turn_idx")))


# --- text analysis -----------------------------------------------------------

def q_token_stats(sf_dir: str) -> rd.Dataset:
    out = text_ops.token_stats(
        _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]))
    return out.select_columns(["doc_id", "n_chars", "n_tokens",
                               "n_bpe_tokens", "n_punct"])


def q_quality(sf_dir: str) -> rd.Dataset:
    out = text_ops.quality_score(
        _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]))

    def to_bp(t: pa.Table) -> pa.Table:
        bp = np.round(t["quality"].to_numpy(zero_copy_only=False) * 10000)
        return pa.table({"doc_id": t["doc_id"],
                         "quality_bp": pa.array(bp.astype(np.int64))})

    return out.map_batches(to_bp, batch_format="pyarrow")


def q_lang_id(sf_dir: str) -> rd.Dataset:
    out = text_ops.lang_id(
        _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]))
    return out.select_columns(["doc_id", "lang_guess"])


def q_fingerprint(sf_dir: str) -> rd.Dataset:
    out = text_ops.fingerprint(
        _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]))
    return out.select_columns(["doc_id", "fp"])


def _token_partials(sf_dir: str) -> rd.Dataset:
    """Per-block (token, cnt) partial counts over documents.text."""
    ds = _read(f"{sf_dir}/documents.parquet", columns=["text"])

    def partial(t: pa.Table) -> pa.Table:
        counts: dict[str, int] = {}
        for s in t["text"].to_pylist():
            for w in (s or "").split():
                counts[w] = counts.get(w, 0) + 1
        return pa.table({"token": pa.array(list(counts), pa.string()),
                         "cnt": pa.array(list(counts.values()), pa.int64())})

    return ds.map_batches(partial, batch_format="pyarrow")


def q_top_tokens(sf_dir: str, k: int = 20) -> pd.DataFrame:
    """Hot-token top-k: per-block partial counts -> uniform groupby merge ->
    tiny sorted head. The shuffle carries (token, count) partials, one per
    distinct token per block."""
    from ..ops.agg import bucketed_groupby, sum_merge

    vocab = bucketed_groupby(
        _token_partials(sf_dir),
        ["token"], sum_merge(["token"], ["cnt"])).to_pandas()  # vocabulary-sized
    vocab = vocab.sort_values(["cnt", "token"], ascending=[False, True],
                              kind="mergesort").head(k).reset_index(drop=True)
    return vocab


def q_approx_top_tokens(sf_dir: str, k: int = 20) -> pd.DataFrame:
    """Heavy-hitter tokens via count-min sketch — the fixed-state path for
    vocabularies too large for the exact reduce (merged state is the
    depth x width sketch, not the vocabulary). On the sf corpora
    width=2^16 >> vocabulary, so the estimates — and the top-k — are
    exact (CORRECTNESS stays rows-only because that equality is a
    width/corpus property, not an operator guarantee)."""
    from ..ops.agg import approx_top_k

    return approx_top_k(_token_partials(sf_dir), "token", "cnt",
                        k=k, width=1 << 16)


# --- dedup -------------------------------------------------------------------

def q_exact_dedup(sf_dir: str) -> rd.Dataset:
    return dedup.exact_dedup(_documents(sf_dir))


def q_dup_groups(sf_dir: str) -> pd.DataFrame:
    df = dedup.duplicate_groups(_documents(sf_dir)).to_pandas()
    if "content_hash" not in df.columns:  # all-empty groups lose the schema
        df = pd.DataFrame({"content_hash": pd.Series(dtype="string"),
                           "n_copies": pd.Series(dtype="int64"),
                           "keep_id": pd.Series(dtype="int64")})
    return df


def q_minhash_pairs(sf_dir: str) -> rd.Dataset:
    return dedup.minhash_candidate_pairs(
        _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]),
        threshold=0.5)


def q_ngram_jaccard(sf_dir: str) -> rd.Dataset:
    """Exact n-gram Jaccard pairs at a lower threshold than
    q_minhash_pairs (j>=0.4). Banding tuned to the blocking/recall
    trade-off, measured at sf0.1:

    - bigram shingles (64x2 bands): random same-language docs share
      enough bigrams that 74% of docs land in a hot bucket — the verify
      pass degenerates toward all-pairs (6.6 s);
    - trigram 64x2: selective shingles but r=2 still catches ~0.15 of
      random pairs somewhere across 64 bands (3716/5000 docs hot, 5.9 s);
    - trigram 42x3 (here): random-pair catch ~1e-4, real pairs are all
      j>=0.8 on these corpora so the analytic miss is (1-0.8^3)^42 ~ 1e-13.
    """
    return dedup.ngram_jaccard_pairs(
        _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]),
        threshold=0.4, ngram=3, bands=42, num_perm=126)


def q_simhash_pairs(sf_dir: str) -> rd.Dataset:
    return dedup.simhash_near_pairs(
        _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]))


def q_near_dedup(sf_dir: str) -> rd.Dataset:
    """End-to-end near-dedup: drop MinHash-cluster non-survivors."""
    return dedup.near_dedup_minhash(
        _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]),
        threshold=0.5)


def q_quality_sample(sf_dir: str) -> rd.Dataset:
    """Quality-proportional downsampling: each doc kept with probability
    equal to its quality score (deterministic hash threshold)."""
    from ..ops.sampling import weighted_sample
    ds = text_ops.quality_score(
        _read(f"{sf_dir}/documents.parquet",
              columns=["doc_id", "text"]))
    return weighted_sample(ds, weight_col="quality",
                           key_col="text").select_columns(["doc_id"])


def q_near_dedup_best(sf_dir: str) -> rd.Dataset:
    """Near-dedup keeping the BEST duplicate per cluster (highest
    n_chars, ties -> smallest id) instead of the smallest id — the
    keep-the-longest policy real training pipelines use."""
    ds = _read(f"{sf_dir}/documents.parquet",
               columns=["doc_id", "text", "n_chars"])
    out = dedup.near_dedup_minhash(ds, threshold=0.5, score_col="n_chars")
    return out.select_columns(["doc_id", "n_chars"])


def q_corpus_clean(sf_dir: str) -> rd.Dataset:
    """Composed cleaning pipeline over the sf documents (validate -> exact
    dedup -> near dedup -> quality/lang filter)."""
    from .corpus_clean import clean_corpus
    cleaned, _ = clean_corpus(_documents(sf_dir), near_threshold=0.5,
                              min_quality=0.2, report=False)

    def fmt(t: pa.Table) -> pa.Table:
        bp = np.round(t["quality"].to_numpy(zero_copy_only=False) * 10000)
        return pa.table({"doc_id": t["doc_id"],
                         "lang_guess": t["lang_guess"],
                         "quality_bp": pa.array(bp.astype(np.int64))})

    return cleaned.map_batches(fmt, batch_format="pyarrow")


def q_data_prep(sf_dir: str) -> rd.Dataset:
    """Flagship composed training-data prep: clean -> decontaminate (vs the
    doc_id%97 test slice) -> token counts -> prefix-sum -> pack ids."""
    from .corpus_clean import prepare_training_data

    docs = _read(f"{sf_dir}/documents.parquet",
                 columns=["doc_id", "text"])

    def part(test: bool):
        def fn(t: pa.Table) -> pa.Table:
            ids = t["doc_id"].to_numpy(zero_copy_only=False)
            m = (ids % 97 == 0) if test else (ids % 97 != 0)
            return t.filter(pa.array(m))
        return fn

    train = docs.map_batches(part(False), batch_format="pyarrow")
    test = docs.map_batches(part(True), batch_format="pyarrow")
    return prepare_training_data(train, test)


def q_normalize(sf_dir: str) -> rd.Dataset:
    """Canonical text normalization (lowercase, ASCII punct strip,
    whitespace collapse)."""
    out = text_ops.normalize_text(
        _read(f"{sf_dir}/documents.parquet",
              columns=["doc_id", "text"]))
    return out.select_columns(["doc_id", "norm_text"])


def q_repetition(sf_dir: str) -> rd.Dataset:
    """Gopher-style repetition signal, as basis points for hash stability."""
    out = text_ops.repetition_ratio(
        _read(f"{sf_dir}/documents.parquet",
              columns=["doc_id", "text"]))

    def to_bp(t: pa.Table) -> pa.Table:
        # half-away-from-zero like SQL round() — token-count ratios hit
        # exact .5 bp often, where numpy's round-half-even diverges
        bp = np.floor(
            t["top_token_ratio"].to_numpy(zero_copy_only=False) * 10000 + 0.5)
        return pa.table({"doc_id": t["doc_id"],
                         "rep_bp": pa.array(bp.astype(np.int64))})

    return out.map_batches(to_bp, batch_format="pyarrow")


def q_hash_sample(sf_dir: str) -> rd.Dataset:
    """Deterministic ~10% content-hash sample of the documents."""
    from ..ops.sampling import hash_sample
    return hash_sample(
        _read(f"{sf_dir}/documents.parquet",
              columns=["doc_id", "text"]),
        key_col="text", rate=0.1).select_columns(["doc_id"])


def q_lang_balance(sf_dir: str, k: int = 50) -> rd.Dataset:
    """Corpus balancing: at most 50 docs per detected language (smallest
    doc_id wins) — the downsample-hot-languages operator."""
    from ..ops.sampling import cap_per_group
    ds = text_ops.lang_id(
        _read(f"{sf_dir}/documents.parquet",
              columns=["doc_id", "text"]))
    out = cap_per_group(ds, group_col="lang_guess", order_col="doc_id", k=k)
    return out.select_columns(["doc_id", "lang_guess"])


def q_top_tokens_by_lang(sf_dir: str, k: int = 5) -> rd.Dataset:
    """Grouped top-k: the 5 hottest tokens per detected language. Per-block
    (lang, token) count partials -> one bucketed merge keyed on lang (the
    key space is the language set, tiny) -> per-group vectorized rank."""
    ds = _read(f"{sf_dir}/documents.parquet",
               columns=["doc_id", "text"])
    ds = text_ops.lang_id(ds)

    def partial(t: pa.Table) -> pa.Table:
        counts: dict[tuple, int] = {}
        for lang, s in zip(t["lang_guess"].to_pylist(),
                           t["text"].to_pylist()):
            for w in (s or "").split():
                counts[(lang, w)] = counts.get((lang, w), 0) + 1
        keys = list(counts)
        return pa.table({
            "lang_guess": pa.array([x[0] for x in keys], pa.string()),
            "token": pa.array([x[1] for x in keys], pa.string()),
            "cnt": pa.array(list(counts.values()), pa.int64())})

    from ..ops.agg import bucketed_groupby

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["lang_guess", "token"], as_index=False,
                       sort=False)["cnt"].sum()
        g = g.sort_values(["lang_guess", "cnt", "token"],
                          ascending=[True, False, True], kind="mergesort")
        g["rank"] = g.groupby("lang_guess", sort=False).cumcount()
        return g[g["rank"] < k].reset_index(drop=True)

    return bucketed_groupby(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["lang_guess"], merge, buckets=8)


def q_decontaminate(sf_dir: str) -> rd.Dataset:
    """Benchmark decontamination: docs with doc_id % 97 == 0 play the test
    set; surviving train docs share no word-3-gram with any of them."""
    docs = _read(f"{sf_dir}/documents.parquet",
                 columns=["doc_id", "text", "n_chars"])

    def is_test(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        return t.filter(pa.array(ids % 97 == 0))

    def is_train(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        return t.filter(pa.array(ids % 97 != 0))

    test = docs.map_batches(is_test, batch_format="pyarrow")
    train = docs.map_batches(is_train, batch_format="pyarrow")
    out = dedup.decontaminate(train, test, ngram=3, min_hits=1)
    return out.select_columns(["doc_id", "n_chars"])


def q_embedding_near_pairs(sf_dir: str) -> rd.Dataset:
    return dedup.embedding_near_pairs(
        _read(f"{sf_dir}/embeddings.parquet",
              columns=["vec_id", "embedding"]), threshold=0.9)


# --- events: windowed aggregate ---------------------------------------------

def q_events_hourly(sf_dir: str) -> rd.Dataset:
    """Per (user, hour) event counts + exact integer-cents value sums.
    Partial aggregation inside map_batches; groupby moves partials only."""
    ds = _read(f"{sf_dir}/events.parquet",
               columns=["user_id", "ts", "value"])

    from ..ops.agg import bucketed_groupby, sum_merge

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(
            hour=df["ts"].dt.floor("h").dt.strftime("%Y-%m-%d %H:00:00"),
            value_cents=np.round(df["value"].to_numpy() * 100).astype(np.int64))
        return df.groupby(["user_id", "hour"], as_index=False).agg(
            n_events=("value_cents", "size"), value_cents=("value_cents", "sum"))

    return bucketed_groupby(
        ds.map_batches(partial, batch_format="pandas"),
        ["user_id", "hour"],
        sum_merge(["user_id", "hour"], ["n_events", "value_cents"]))


def q_events_sliding(sf_dir: str) -> rd.Dataset:
    """SLIDING-window aggregate: per user, event counts over 1-hour windows
    advancing every 15 minutes (each event belongs to 4 windows). The
    window fan-out happens inside the per-block partial (vectorized repeat
    + floor), so the shuffle still moves only (user, window) count
    partials — the sliding multiplicity never amplifies the exchange
    beyond the distinct-window count."""
    ds = _read(f"{sf_dir}/events.parquet",
               columns=["user_id", "ts"])

    from ..ops.agg import bucketed_groupby, sum_merge

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        base = df["ts"].dt.floor("15min")
        frames = [pd.DataFrame({
            "user_id": df["user_id"],
            "window_start": (base - pd.Timedelta(minutes=15 * i))
            .dt.strftime("%Y-%m-%d %H:%M:00")})
            for i in range(4)]
        allw = pd.concat(frames, ignore_index=True)
        return allw.groupby(["user_id", "window_start"],
                            as_index=False).agg(n_events=("user_id", "size"))

    return bucketed_groupby(
        ds.map_batches(partial, batch_format="pandas"),
        ["user_id", "window_start"],
        sum_merge(["user_id", "window_start"], ["n_events"]))


SESSION_GAP_MIN = 30


def q_events_sessions(sf_dir: str) -> rd.Dataset:
    """Gap-based sessionization (the streaming-window custom operator): a
    new session starts when a user is idle > 30 minutes. One bucketed
    shuffle on user_id; session assignment is a vectorized diff+cumsum over
    each bucket's users."""
    from ..ops.agg import bucketed_groupby

    ds = _read(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])

    def sessionize(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts"], kind="mergesort")
        gap = df.groupby("user_id", sort=False)["ts"].diff()
        new_session = gap.isna() | (gap > pd.Timedelta(minutes=SESSION_GAP_MIN))
        df = df.assign(session_idx=new_session.groupby(
            df["user_id"], sort=False).cumsum().astype("int64"))
        out = df.groupby(["user_id", "session_idx"], as_index=False).agg(
            n_events=("ts", "size"), session_start=("ts", "min"))
        out["n_events"] = out["n_events"].astype("int64")
        out["session_start"] = out["session_start"].dt.strftime("%Y-%m-%d %H:%M:%S")
        return out

    return bucketed_groupby(ds, ["user_id"], sessionize)


def q_events_asof(sf_dir: str) -> rd.Dataset:
    """As-of join: each click event picks up the user's most recent
    preceding error event's value (backward, exact ts allowed)."""
    from ..ops.joins import asof_join_backward

    ev = _read(f"{sf_dir}/events.parquet",
               columns=["event_id", "user_id", "event_type",
                                  "ts", "value"])
    clicks = ev.filter(expr="event_type == 'click'").select_columns(
        ["event_id", "user_id", "ts"])

    def prep_right(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["event_type"] == "error"]
        return pd.DataFrame({
            "user_id": df["user_id"],
            "ts": df["ts"],
            "last_error_cents": np.round(df["value"].to_numpy() * 100)
            .astype(np.int64),
        })

    errors = ev.map_batches(prep_right, batch_format="pandas")
    joined = asof_join_backward(clicks, errors, on="ts", by="user_id",
                                value_cols=["last_error_cents"])

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        out = df[["event_id", "user_id"]].copy()
        out["last_error_cents"] = (
            pd.to_numeric(df["last_error_cents"], errors="coerce")
            .fillna(-1).astype(np.int64))
        return out

    return joined.map_batches(finish, batch_format="pandas")


# --- similarity --------------------------------------------------------------

N_KNN_QUERIES = 8


def _query_vectors(sf_dir: str) -> tuple[np.ndarray, np.ndarray]:
    """The first N_KNN_QUERIES embeddings as the query matrix — a driver-
    side point read via pyarrow with a row filter (no Ray dataset execution
    for an 8-row fetch; at scale this is an id-pruned point lookup, not a
    scan)."""
    import pyarrow.parquet as pq
    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"],
                      filters=[("vec_id", "<", N_KNN_QUERIES)])
    t = t.sort_by("vec_id")
    return (np.asarray(t["embedding"].to_pylist(), dtype=np.float32),
            t["vec_id"].to_numpy())


def q_events_range(sf_dir: str) -> rd.Dataset:
    """Range join: each click event counts the user's error events within
    +/- 10 minutes (the interval-join custom operator, count-aggregated)."""
    from ..ops.joins import range_join_count

    ev = _read(f"{sf_dir}/events.parquet",
               columns=["event_id", "user_id", "event_type", "ts"])
    clicks = ev.filter(expr="event_type == 'click'").select_columns(
        ["event_id", "user_id", "ts"])
    errors = ev.filter(expr="event_type == 'error'").select_columns(
        ["user_id", "ts"])
    joined = range_join_count(
        clicks, errors, on="ts", by="user_id",
        lower=-np.timedelta64(10, "m"), upper=np.timedelta64(10, "m"),
        out_col="n_errors_10m")
    return joined.select_columns(["event_id", "user_id", "n_errors_10m"])


def q_join_broadcast(sf_dir: str) -> rd.Dataset:
    """General inner equi-join, broadcast plan: documents x embeddings on
    doc_id == vec_id with the (bounded) projected right side shipped once
    via ray.put — zero shuffle."""
    from ..ops.joins import broadcast_inner_join

    docs = _read(f"{sf_dir}/documents.parquet",
                 columns=["doc_id", "lang"])
    emb = (_read(f"{sf_dir}/embeddings.parquet",
                 columns=["vec_id", "label"])
           .map_batches(lambda t: t.rename_columns(["doc_id", "label"]),
                        batch_format="pyarrow"))
    out = broadcast_inner_join(docs, emb, on="doc_id")

    def fmt(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t["doc_id"], "lang": t["lang"],
                         "label": t["label"].cast(pa.int64())})

    return out.map_batches(fmt, batch_format="pyarrow")


def q_join_shuffle(sf_dir: str) -> rd.Dataset:
    """Same join, large-large plan: both sides tagged, co-bucketed on the
    key (one shuffle), vectorized per-bucket pandas merge. Identical
    results to q_join_broadcast by construction — the oracle pins both
    physical plans to the same SQL."""
    from ..ops.joins import hash_inner_join

    docs = _read(f"{sf_dir}/documents.parquet",
                 columns=["doc_id", "lang"])
    emb = (_read(f"{sf_dir}/embeddings.parquet",
                 columns=["vec_id", "label"])
           .map_batches(lambda t: t.rename_columns(["doc_id", "label"]),
                        batch_format="pyarrow"))
    out = hash_inner_join(docs, emb, on="doc_id")

    def fmt(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t["doc_id"], "lang": t["lang"],
                         "label": t["label"].cast(pa.int64())})

    return out.map_batches(fmt, batch_format="pyarrow")


def q_events_quantiles(sf_dir: str) -> rd.Dataset:
    """Exact grouped discrete quantiles (p50/p95 of value-in-cents per
    event type) via histogram partials — the scale-safe percentile: the
    shuffle carries (key, cents, count) rows, never raw events."""
    from ..ops.agg import grouped_quantile_disc

    ev = _read(f"{sf_dir}/events.parquet",
               columns=["event_type", "value"])

    def to_cents(t: pa.Table) -> pa.Table:
        cents = np.floor(
            t["value"].to_numpy(zero_copy_only=False) * 100 + 0.5)
        return pa.table({"event_type": t["event_type"],
                         "cents": pa.array(cents.astype(np.int64))})

    out = grouped_quantile_disc(
        ev.map_batches(to_cents, batch_format="pyarrow"),
        ["event_type"], "cents", {"p50_cents": 0.5, "p95_cents": 0.95})

    def fmt(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_type": df["event_type"].astype("string"),
            "p50_cents": df["p50_cents"].astype("int64"),
            "p95_cents": df["p95_cents"].astype("int64"),
            "n": df["n"].astype("int64")})

    return out.map_batches(fmt, batch_format="pandas")


def q_events_rollup(sf_dir: str) -> rd.Dataset:
    """SQL ROLLUP(event_type, hour): counts + exact cent sums at all three
    granularities from ONE raw-data shuffle (coarser levels re-aggregate
    the vocabulary-sized finer level)."""
    from ..ops.agg import grouped_rollup

    ds = _read(f"{sf_dir}/events.parquet",
               columns=["event_type", "ts", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(
            hour=df["ts"].dt.floor("h").dt.strftime("%Y-%m-%d %H:00:00"),
            value_cents=np.round(df["value"].to_numpy() * 100).astype(np.int64))
        return df.groupby(["event_type", "hour"], as_index=False).agg(
            n_events=("value_cents", "size"), value_cents=("value_cents", "sum"))

    return grouped_rollup(ds.map_batches(partial, batch_format="pandas"),
                          ["event_type", "hour"],
                          ["n_events", "value_cents"])


def q_pack_sequences(sf_dir: str, budget: int = 2000) -> rd.Dataset:
    """Training-data sequence packing, concat-then-chunk semantics: a
    global running token total over doc_id order assigns each document the
    pack (training example) its first token falls into — pack_id =
    floor((prefix - n_tokens) / budget). The running total is the
    distributed ordered prefix-sum operator (``ops/agg.ordered_prefix_sum``,
    the window-scan Ray Data lacks); the oracle is the equivalent SQL
    window function."""
    from ..ops.agg import ordered_prefix_sum

    toks = text_ops.token_stats(
        _read(f"{sf_dir}/documents.parquet",
              columns=["doc_id", "text"])
    ).select_columns(["doc_id", "n_tokens"])
    scanned = ordered_prefix_sum(toks, "doc_id", "n_tokens",
                                 out_col="prefix_tokens")

    def fmt(t: pa.Table) -> pa.Table:
        prefix = t["prefix_tokens"].to_numpy(zero_copy_only=False)
        ntok = t["n_tokens"].to_numpy(zero_copy_only=False)
        pack = np.floor_divide(prefix - ntok, budget)
        return pa.table({
            "doc_id": t["doc_id"],
            "n_tokens": t["n_tokens"].cast(pa.int64()),
            "prefix_tokens": pa.array(prefix.astype(np.int64)),
            "pack_id": pa.array(pack.astype(np.int64)),
        })

    return scanned.map_batches(fmt, batch_format="pyarrow")


EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]


def q_events_pivot(sf_dir: str) -> rd.Dataset:
    """Wide pivot: one row per user with an int64 count column per event
    type (fixed category list = fixed schema; per-block pivot partials)."""
    from ..ops.agg import pivot_count

    ev = _read(f"{sf_dir}/events.parquet",
               columns=["user_id", "event_type"])
    return pivot_count(ev, ["user_id"], "event_type", EVENT_TYPES)


def q_user_intersect(sf_dir: str) -> rd.Dataset:
    """SQL INTERSECT: user_ids that clicked AND errored (one shuffle of
    per-block-distinct side-tagged partials)."""
    from ..ops.setops import intersect_distinct

    ev = _read(f"{sf_dir}/events.parquet",
               columns=["user_id", "event_type"])
    clicks = ev.filter(expr="event_type == 'click'").select_columns(["user_id"])
    errors = ev.filter(expr="event_type == 'error'").select_columns(["user_id"])
    return intersect_distinct(clicks, errors, ["user_id"])


def q_custkey_except(sf_dir: str) -> rd.Dataset:
    """SQL EXCEPT: custkeys with an open ('O') order but no finished ('F')
    one (the event-type user sets are all identical on the sf corpora, so
    the orders table is what gives EXCEPT a non-empty answer to pin)."""
    from ..ops.setops import except_distinct

    orders = _read(f"{sf_dir}/orders.parquet",
                   columns=["o_custkey", "o_orderstatus"])
    o = orders.filter(expr="o_orderstatus == 'O'").select_columns(["o_custkey"])
    f = orders.filter(expr="o_orderstatus == 'F'").select_columns(["o_custkey"])
    return except_distinct(o, f, ["o_custkey"])


def q_distinct_users(sf_dir: str) -> rd.Dataset:
    """Exact COUNT(DISTINCT user_id) per event type via per-block distinct
    partials (the shuffle carries distinct pairs, never raw events)."""
    from ..ops.agg import grouped_count_distinct

    ev = _read(f"{sf_dir}/events.parquet",
               columns=["event_type", "user_id"])
    return grouped_count_distinct(ev, ["event_type"], "user_id",
                                  out_col="n_users")


def q_approx_distinct(sf_dir: str) -> rd.Dataset:
    """HyperLogLog distinct user_id per event type (p=12, ~1.6% error) —
    the fixed-size-sketch path for cardinalities where exact distinct
    pairs would swamp the shuffle. Rows-only at the driver (approximate by
    design); the unit suite pins relative error vs exact."""
    from ..ops.agg import grouped_approx_distinct

    ev = _read(f"{sf_dir}/events.parquet",
               columns=["event_type", "user_id"])
    return grouped_approx_distinct(ev, ["event_type"], "user_id")


def q_knn(sf_dir: str, k: int = 10) -> rd.Dataset:
    """Exact cosine top-k, queries = the first N_KNN_QUERIES embeddings.
    Scores reported as integer basis points for hash-stable comparison."""
    emb = _read(f"{sf_dir}/embeddings.parquet",
                columns=["vec_id", "embedding"])
    queries, qids = _query_vectors(sf_dir)
    out = similarity.knn_brute_force(emb, queries, k=k, query_ids=qids)

    def to_bp(t: pa.Table) -> pa.Table:
        bp = np.round(t["score"].to_numpy(zero_copy_only=False) * 10000)
        return pa.table({"query_id": t["query_id"], "vec_id": t["vec_id"],
                         "score_bp": pa.array(bp.astype(np.int64)),
                         "rank": t["rank"].cast(pa.int64())})

    return out.map_batches(to_bp, batch_format="pyarrow")


def q_ivf_knn(sf_dir: str, k: int = 10) -> rd.Dataset:
    emb = _read(f"{sf_dir}/embeddings.parquet",
                columns=["vec_id", "embedding"])
    queries, _ = _query_vectors(sf_dir)
    idx = similarity.IVFIndex.build(emb, n_clusters=16)
    return idx.search(queries, k=k, nprobe=4)


def q_ivf_exact(sf_dir: str, k: int = 10) -> rd.Dataset:
    """IVF with exhaustive probing (nprobe = n_clusters): the full IVF
    machinery — k-means training, distributed centroid assignment, probe
    routing, per-block local top-k, per-query merge — under the EXACT
    brute-force oracle, since probing every cluster scores every vector.
    Puts the ANN infrastructure itself under the hash check; q_ivf_knn
    stays the approximate (rows-only) production mode."""
    emb = _read(f"{sf_dir}/embeddings.parquet",
                columns=["vec_id", "embedding"])
    queries, _ = _query_vectors(sf_dir)
    idx = similarity.IVFIndex.build(emb, n_clusters=16)
    res = idx.search(queries, k=k, nprobe=16)

    def to_bp(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "query_id": df["query_id"].astype("int64"),
            "vec_id": df["vec_id"].astype("int64"),
            "score_bp": np.round(df["score"].to_numpy() * 10000)
            .astype(np.int64),
            "rank": df["rank"].astype("int64"),
        })

    return res.map_batches(to_bp, batch_format="pandas")


def q_ivf_pruned(sf_dir: str, k: int = 10) -> rd.Dataset:
    """IVF over the PARTITION-PRUNED parquet layout (cluster-partitioned
    ``centroid_id=K/`` dirs written at build time; search reads only probed
    partitions). Exhaustive probing (nprobe = n_clusters) makes the result
    exact, so the brute-force oracle hash-checks the layout write, the
    partition-dir read path, and the probe-pruned search machinery."""
    import hashlib
    import shutil

    emb = _read(f"{sf_dir}/embeddings.parquet",
                columns=["vec_id", "embedding"])
    queries, _ = _query_vectors(sf_dir)
    layout = ("/tmp/ivf_pruned_"
              + hashlib.sha256(sf_dir.encode()).hexdigest()[:12])
    shutil.rmtree(layout, ignore_errors=True)
    idx = similarity.IVFIndex.build(emb, n_clusters=16).write(layout)
    res = similarity.IVFIndex.open(layout).search_pruned(
        queries, k=k, nprobe=16)

    def to_bp(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "query_id": df["query_id"].astype("int64"),
            "vec_id": df["vec_id"].astype("int64"),
            "score_bp": np.round(df["score"].to_numpy() * 10000)
            .astype(np.int64),
            "rank": df["rank"].astype("int64"),
        })

    return res.map_batches(to_bp, batch_format="pandas")


# --- entity extraction + canonicalization (SQL-checkable slice) -------------

def q_entities(sf_dir: str) -> rd.Dataset:
    """Reference entity-candidate semantics (services.py:392-419) over
    deterministically title-cased documents: (doc_id, node_id, label)."""
    ds = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def fn(t: pa.Table) -> pa.Table:
        ids, nids, labels = [], [], []
        for did, s in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            for i, ent in enumerate(extract_entities(
                    src.titlecase_mod3(s or "")), start=1):
                ids.append(did)
                nids.append(f"n{i}")
                labels.append(ent)
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "node_id": pa.array(nids, pa.string()),
                         "label": pa.array(labels, pa.string())})

    return ds.map_batches(fn, batch_format="pyarrow")


def q_edges_sql(sf_dir: str) -> rd.Dataset:
    """SQL-checkable slice of the EDGE path: per document, build a
    deterministic relation sentence pair from its first three entity
    candidates ("A is the CEO of B. B is located in the C.") and run the
    REAL rule extractor over it — pattern matching with the reference's
    IGNORECASE quirks, endpoint resolution, self-loop/dup suppression all
    exercised — emitting (doc_id, subj, pred, obj). The DuckDB oracle
    predicts the same rows from the entity ranking alone, so any divergence
    in the edge machinery shows up as a hash mismatch."""
    from ..functions.rules import extract_rule_graph

    ds = _read(f"{sf_dir}/documents.parquet",
               columns=["doc_id", "text"])

    def fn(t: pa.Table) -> pa.Table:
        dids, subjs, preds, objs = [], [], [], []
        for did, s in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            ents = extract_entities(src.titlecase_mod3(s or ""))
            if len(ents) < 3:
                continue
            a, b, c = ents[:3]
            g = extract_rule_graph(
                f"{a} is the CEO of {b}. {b} is located in the {c}.")
            lab = dict(zip(g.node_ids, g.labels))
            for src_id, dst_id, rel in zip(g.edge_src, g.edge_dst, g.edge_rel):
                dids.append(did)
                subjs.append(lab[src_id])
                preds.append(rel)
                objs.append(lab[dst_id])
        return pa.table({"doc_id": pa.array(dids, pa.int64()),
                         "subj": pa.array(subjs, pa.string()),
                         "pred": pa.array(preds, pa.string()),
                         "obj": pa.array(objs, pa.string())})

    return ds.map_batches(fn, batch_format="pyarrow")


def q_canon_sql(sf_dir: str) -> rd.Dataset:
    """SQL-checkable slice of the canonicalization REWRITE path: run the
    real machinery — surface-table build, alias Dataset, frequency-
    thresholded broadcast, triple rewrite + weighted dedup — over the
    edges_sql triples with LSH linking disabled (jaccard threshold > 1 =>
    no clusters), so every step is deterministic and the DuckDB oracle can
    predict it: canonical ids are hashes of the normalized surface, labels
    are the corpus-majority variants, weight counts identical canonical
    triples."""
    from ..stages.canonicalize import LinkParams

    edges = q_edges_sql(sf_dir)
    nodes = q_entities(sf_dir).select_columns(["label"])
    alias = cz.build_alias_table(
        nodes, QCFG, link=LinkParams(jaccard_threshold=1.01),
        use_embed_scorer=False)
    out = cz.canonicalize_edges(edges, alias, QCFG)

    def fmt(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["weight"] = df["weight"].astype("int64")
        for c in ("canonical_src", "pred", "canonical_dst",
                  "src_label", "dst_label"):
            df[c] = df[c].astype(str)
        return df

    return out.map_batches(fmt, batch_format="pandas")


def _canon_edges(sf_dir: str) -> rd.Dataset:
    """The canonical-edge input every kg_* query consumes."""
    return q_canon_sql(sf_dir)


def q_kg_degrees(sf_dir: str) -> rd.Dataset:
    """Per-entity degree stats over the deterministic canonical graph
    (canon_sql edges): graph analytics as a bucketed partial-sum pass."""
    from ..ops.graph import degree_table

    return degree_table(_canon_edges(sf_dir))


def q_kg_pagerank(sf_dir: str) -> pd.DataFrame:
    """Weighted PageRank (3 iterations, d=0.85, per-node-1 form, dangling
    mass not redistributed) over the deterministic canonical graph —
    iterative graph analytics with driver-held vocabulary-sized rank state
    and distributed edge passes. Rank reported as micro-units for hash
    stability against the SQL fixed-iteration oracle."""
    from ..ops.graph import pagerank

    r = pagerank(_canon_edges(sf_dir), iters=3, damping=0.85)
    return pd.DataFrame({
        "node": r["node"].astype(str),
        "rank_ubp": np.floor(r["rank"].to_numpy() * 1_000_000 + 0.5)
        .astype(np.int64)})


def q_alias_exact(sf_dir: str) -> rd.Dataset:
    """Exact-normalization alias table over the extracted entity mentions
    (the SQL-checkable core of canonicalization: salted two-phase mention
    counting + most-frequent-variant pick, without the LSH linking)."""
    mentions = q_entities(sf_dir)
    surf = cz.build_surface_table(mentions, QCFG)
    return surf.select_columns(["norm", "canonical_label", "n_mentions"])


# --- full KG pipeline slices (not SQL-expressible; rows-only checks) --------

def _sf_n_convs(sf_dir: str) -> int:
    """Scale the synthetic transcript corpus to the sf's documents table."""
    import pyarrow.parquet as pq
    return pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows


def _graph_rows(sf_dir: str) -> rd.Dataset:
    """Full extraction DAG over the deterministic synthetic transcript corpus
    (sized by the sf's documents table). The sf documents themselves are
    lowercase word soup — no relation verbs — so the KG slice runs on the
    corpus whose golden outputs are pinned by tests/golden/."""
    from .kg import build_graph_rows
    ts = src.synthetic_transcripts(n_convs=_sf_n_convs(sf_dir), seed=42)
    return build_graph_rows(ts, QCFG)


def q_kg_nodes(sf_dir: str) -> rd.Dataset:
    rows = _graph_rows(sf_dir)
    return rows.filter(expr="kind == 'node'").select_columns(
        ["conv_id", "node_id", "label", "node_type"])


def q_kg_edges(sf_dir: str) -> rd.Dataset:
    rows = _graph_rows(sf_dir)
    return rows.filter(expr="kind == 'edge'").select_columns(
        ["conv_id", "edge_id", "src_node_id", "dst_node_id",
         "subj", "pred", "obj"])


def q_canonical_edges(sf_dir: str) -> rd.Dataset:
    edges = q_kg_edges(sf_dir)
    nodes = q_kg_nodes(sf_dir)
    alias = cz.build_alias_table(nodes, QCFG)
    return cz.canonicalize_edges(edges, alias, QCFG)


def q_media_decode(sf_dir: str) -> rd.Dataset:
    """Multimodal decode over REAL encoded payloads (stdlib PNG codec,
    fake_ok=False — no deterministic-fake path; sf-independent)."""
    from ..ops import multimodal
    media = multimodal.synthetic_media(n_items=48, real_payloads=True)
    return multimodal.decode_images(media, concurrency=2, fake_ok=False)


# --- ordered per-key window functions (ops/window.py) ------------------------

def q_events_window(sf_dir: str) -> rd.Dataset:
    """SQL window-function family over the events stream: per-user rank,
    previous value, running sum and last-3 rolling sum, ordered by
    (ts, event_id) — the one co-bucketed shuffle of keyed_window."""
    from ..ops.window import WindowSpec, keyed_window

    ev = _read(f"{sf_dir}/events.parquet",
               columns=["event_id", "user_id", "ts", "value"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_id": df["event_id"], "user_id": df["user_id"],
            "ts": df["ts"],
            "cents": np.round(df["value"].to_numpy() * 100).astype(np.int64),
        })

    w = keyed_window(
        ev.map_batches(prep, batch_format="pandas"),
        by="user_id", order=["ts", "event_id"],
        specs=[
            WindowSpec("rn", "row_number"),
            WindowSpec("prev_cents", "lag", "cents", 1, fill=-1),
            WindowSpec("cum_cents", "cum_sum", "cents"),
            WindowSpec("roll3_cents", "rolling_sum", "cents", 3),
        ])
    return w.select_columns(["event_id", "user_id", "rn", "prev_cents",
                             "cum_cents", "roll3_cents"])


# --- semi / anti joins (ops/joins.py) ----------------------------------------

def _orders_custkeys(sf_dir: str, status: str | None = None) -> rd.Dataset:
    ds = _read(f"{sf_dir}/orders.parquet",
               columns=["o_custkey", "o_orderstatus"])
    if status is not None:
        ds = ds.filter(expr=f"o_orderstatus == '{status}'")
    return (ds.select_columns(["o_custkey"])
            .map_batches(lambda df: df.rename(columns={
                "o_custkey": "c_custkey"}), batch_format="pandas"))


def q_join_left(sf_dir: str) -> rd.Dataset:
    """Customer LEFT JOIN their finished ('F') orders, co-bucketed shuffle
    plan: every customer row survives; order columns are NaN for the 71
    sf0.01 customers with no 'F' order (join_anti's complement) — the
    filter is what makes the corpus exercise the unmatched-left path."""
    from ..ops.joins import hash_inner_join
    cust = _read(f"{sf_dir}/customer.parquet",
                 columns=["c_custkey", "c_name"])
    orders = (_read(f"{sf_dir}/orders.parquet",
                    columns=["o_custkey", "o_orderkey",
                                       "o_totalprice", "o_orderstatus"])
              .filter(expr="o_orderstatus == 'F'")
              .select_columns(["o_custkey", "o_orderkey", "o_totalprice"])
              .map_batches(lambda df: df.rename(columns={
                  "o_custkey": "c_custkey"}), batch_format="pandas"))
    return hash_inner_join(cust, orders, "c_custkey", how="left")


def q_join_semi(sf_dir: str) -> rd.Dataset:
    """Customers with at least one order (co-bucketed semi join; the right
    side ships only per-block-distinct keys)."""
    from ..ops.joins import hash_semi_join
    cust = _read(f"{sf_dir}/customer.parquet",
                 columns=["c_custkey", "c_name"])
    return hash_semi_join(cust, _orders_custkeys(sf_dir), "c_custkey")


def q_join_anti(sf_dir: str) -> rd.Dataset:
    """Customers with no completed ('F') order — anti join, same shuffle
    shape; the status filter keeps the result non-degenerate (every
    customer has SOME order in this data)."""
    from ..ops.joins import hash_anti_join
    cust = _read(f"{sf_dir}/customer.parquet",
                 columns=["c_custkey", "c_name"])
    return hash_anti_join(cust, _orders_custkeys(sf_dir, status="F"),
                          "c_custkey")


# --- stratified train/val/test split (ops/sampling.py) -----------------------

SPLIT_RATIOS = {"train": 0.8, "val": 0.1, "test": 0.1}


def q_stratified_split(sf_dir: str) -> rd.Dataset:
    """Deterministic 80/10/10 split stratified by detected language —
    exact per-stratum proportions via the (hash, id) rank within each
    language (one shuffle on the bounded-cardinality stratum column)."""
    from ..ops.sampling import stratified_split

    docs = text_ops.lang_id(
        _read(f"{sf_dir}/documents.parquet",
              columns=["doc_id", "text"]))
    out = stratified_split(docs.select_columns(["doc_id", "lang_guess"]),
                           strata_col="lang_guess", key_col="doc_id",
                           ratios=SPLIT_RATIOS, mode="exact")
    return out.select_columns(["doc_id", "lang_guess", "split"])


# --- TF-IDF distinctive terms (ops/text.py) ----------------------------------

def q_tfidf(sf_dir: str, k: int = 3) -> rd.Dataset:
    """Top-3 distinctive terms per document by TF-IDF: one
    vocabulary-sized DF shuffle + broadcast idf + pure scoring map."""
    docs = _read(f"{sf_dir}/documents.parquet",
                 columns=["doc_id", "text"])
    return text_ops.tfidf_top_terms(docs, k=k)


# --- round-3 late additions --------------------------------------------------

def q_events_quantiles_cont(sf_dir: str) -> rd.Dataset:
    """Exact grouped CONTINUOUS (interpolated) quantiles of value-in-cents
    per event type — same histogram-partial shuffle as q_events_quantiles,
    with the merge interpolating DuckDB/Postgres ``quantile_cont``
    semantics bit-for-bit off the cumulative counts."""
    from ..ops.agg import grouped_quantile_cont

    ev = _read(f"{sf_dir}/events.parquet",
               columns=["event_type", "value"])

    def to_cents(t: pa.Table) -> pa.Table:
        cents = np.floor(
            t["value"].to_numpy(zero_copy_only=False) * 100 + 0.5)
        return pa.table({"event_type": t["event_type"],
                         "cents": pa.array(cents.astype(np.int64))})

    out = grouped_quantile_cont(
        ev.map_batches(to_cents, batch_format="pyarrow"),
        ["event_type"], "cents", {"p50_cents": 0.5, "p95_cents": 0.95})

    def fmt(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_type": df["event_type"].astype("string"),
            "p50_cents": df["p50_cents"].astype("float64"),
            "p95_cents": df["p95_cents"].astype("float64"),
            "n": df["n"].astype("int64")})

    return out.map_batches(fmt, batch_format="pandas")


def q_events_cube(sf_dir: str) -> rd.Dataset:
    """SQL CUBE(event_type, hour): counts + exact cent sums at all four
    granularities — the raw data is shuffled ONCE at the finest level,
    every other level re-aggregates the vocabulary-sized result."""
    from ..ops.agg import grouped_cube

    ds = _read(f"{sf_dir}/events.parquet",
               columns=["event_type", "ts", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(
            hour=df["ts"].dt.floor("h").dt.strftime("%Y-%m-%d %H:00:00"),
            value_cents=np.round(df["value"].to_numpy() * 100).astype(np.int64))
        return df.groupby(["event_type", "hour"], as_index=False).agg(
            n_events=("value_cents", "size"), value_cents=("value_cents", "sum"))

    return grouped_cube(ds.map_batches(partial, batch_format="pandas"),
                        ["event_type", "hour"],
                        ["n_events", "value_cents"])


def q_join_outer(sf_dir: str) -> rd.Dataset:
    """FULL OUTER JOIN: even-keyed customers x finished orders — both
    unmatched sides survive (odd-custkey orders are right-only, even
    customers without an 'F' order are left-only), exercising the one
    join shape only the co-bucketed plan can express."""
    from ..ops.joins import hash_inner_join

    def even_only(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return t.filter(pc.equal(pc.bit_wise_and(t["c_custkey"], 1), 0))

    cust = (_read(f"{sf_dir}/customer.parquet",
                  columns=["c_custkey", "c_acctbal"])
            .map_batches(even_only, batch_format="pyarrow"))
    orders = (_read(f"{sf_dir}/orders.parquet",
                    columns=["o_custkey", "o_orderkey",
                                       "o_totalprice", "o_orderstatus"])
              .filter(expr="o_orderstatus == 'F'")
              .select_columns(["o_custkey", "o_orderkey", "o_totalprice"])
              .map_batches(lambda df: df.rename(columns={
                  "o_custkey": "c_custkey"}), batch_format="pandas"))
    return hash_inner_join(cust, orders, "c_custkey", how="outer")


def q_join_skew(sf_dir: str) -> rd.Dataset:
    """Inner lineitem x orders under the skew-aware hybrid plan: exact
    left-key counts split the keys into HOT (right rows broadcast, joined
    map-side with zero shuffle) and COLD (normal co-bucketed shuffle);
    hot_threshold=4 makes both paths live on this corpus (~1/3 of orders
    have >4 lineitems). Same oracle SQL as any inner-join plan."""
    from ..ops.joins import skew_aware_inner_join

    li = _read(f"{sf_dir}/lineitem.parquet",
               columns=["l_orderkey", "l_quantity"])
    orders = (_read(f"{sf_dir}/orders.parquet",
                    columns=["o_orderkey", "o_totalprice"])
              .map_batches(lambda df: df.rename(columns={
                  "o_orderkey": "l_orderkey"}), batch_format="pandas"))
    return skew_aware_inner_join(li, orders, "l_orderkey", hot_threshold=4)


def q_doc_chunks(sf_dir: str) -> rd.Dataset:
    """RAG-prep document chunking: 512-char chunks with 64-char overlap,
    one row per chunk — a pure fan-out map, no shuffle."""
    docs = _read(f"{sf_dir}/documents.parquet",
                 columns=["doc_id", "text"])
    return text_ops.chunk_documents(docs, chunk_chars=512, overlap=64)


def q_events_rank(sf_dir: str) -> rd.Dataset:
    """RANK / DENSE_RANK / NTILE window functions per user: rank events by
    cents (ties share rank), quartile-bucket them by the (cents, event_id)
    total order — same single keyed_window shuffle as q_events_window."""
    from ..ops.window import WindowSpec, keyed_window

    ev = _read(f"{sf_dir}/events.parquet",
               columns=["event_id", "user_id", "value"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_id": df["event_id"], "user_id": df["user_id"],
            "cents": np.round(df["value"].to_numpy() * 100).astype(np.int64),
        })

    w = keyed_window(
        ev.map_batches(prep, batch_format="pandas"),
        by="user_id", order=["cents", "event_id"],
        specs=[
            WindowSpec("rnk", "rank", src="cents"),
            WindowSpec("drnk", "dense_rank", src="cents"),
            WindowSpec("quartile", "ntile", param=4),
        ])
    return w.select_columns(["event_id", "user_id", "rnk", "drnk",
                             "quartile"])


def q_approx_quantiles(sf_dir: str) -> rd.Dataset:
    """Sketch quantiles of the RAW double value per event type (no cents
    discretization) — the fixed-state path for unbounded-cardinality
    value columns; estimates land within ~1 bin of the exact quantile
    (accuracy pinned in tests; rows-only at the driver like the other
    sketches)."""
    from ..ops.agg import grouped_approx_quantile

    ev = _read(f"{sf_dir}/events.parquet",
               columns=["event_type", "value"])
    out = grouped_approx_quantile(ev, ["event_type"], "value",
                                  {"p50_est": 0.5, "p95_est": 0.95})

    def fmt(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_type": df["event_type"].astype("string"),
            "p50_est": df["p50_est"].astype("float64"),
            "p95_est": df["p95_est"].astype("float64"),
            "n": df["n"].astype("int64")})

    return out.map_batches(fmt, batch_format="pandas")


def q_events_argmax(sf_dir: str) -> rd.Dataset:
    """Whole-row grouped argmax: each event type's highest-value event
    (ties to the smallest event_id) — blocks ship one candidate row per
    group, the merge re-selects."""
    from ..ops.agg import grouped_argmax

    ev = _read(f"{sf_dir}/events.parquet",
               columns=["event_type", "event_id", "value"])
    out = grouped_argmax(ev, ["event_type"], "value", tiebreak="event_id")
    return out.select_columns(["event_type", "event_id", "value"])


def q_lineitem_unpivot(sf_dir: str) -> rd.Dataset:
    """SQL UNPIVOT: lineitem's three rate columns reshaped long — a pure
    fan-out map (3 rows out per row in, no shuffle)."""
    from ..ops.agg import unpivot

    li = _read(f"{sf_dir}/lineitem.parquet",
               columns=["l_orderkey", "l_linenumber",
                                  "l_quantity", "l_discount", "l_tax"])
    return unpivot(li, id_cols=["l_orderkey", "l_linenumber"],
                   value_cols=["l_quantity", "l_discount", "l_tax"],
                   var_col="metric", val_col="val")


def q_join_bloom(sf_dir: str) -> rd.Dataset:
    """Selective inner join under the bloom semi-join reduction: only
    ~1/5 of orders match the BUILDING-segment customers, and the bloom
    prefilter drops the rest before the exchange — the all-to-all moves
    the matching fraction, not the whole fact table."""
    from ..ops.joins import bloom_filtered_inner_join

    orders = _read(f"{sf_dir}/orders.parquet",
                   columns=["o_orderkey", "o_custkey"])
    cust = (_read(f"{sf_dir}/customer.parquet",
                  columns=["c_custkey", "c_name", "c_mktsegment"])
            .filter(expr="c_mktsegment == 'BUILDING'")
            .select_columns(["c_custkey", "c_name"])
            .map_batches(lambda df: df.rename(columns={
                "c_custkey": "o_custkey"}), batch_format="pandas"))
    return bloom_filtered_inner_join(orders, cust, "o_custkey")


def q_incr_dedup(sf_dir: str) -> rd.Dataset:
    """Incremental dedup: documents split by doc_id parity into an OLD
    corpus (indexed once via build_minhash_index — persisted band table)
    and a NEW batch deduped against the index without re-banding the old
    corpus; verified exact trigram jaccard >= 0.5 per cross pair."""
    import os
    import shutil
    import tempfile

    from ..ops.dedup import build_minhash_index, dedup_against_index

    def parity(keep_even: bool):
        def fn(t: pa.Table) -> pa.Table:
            even = pc.equal(pc.bit_wise_and(t["doc_id"], 1), 0)
            return t.filter(even if keep_even else pc.invert(even))
        return fn

    docs = _read(f"{sf_dir}/documents.parquet",
                 columns=["doc_id", "text"])
    old = docs.map_batches(parity(True), batch_format="pyarrow")
    new = docs.map_batches(parity(False), batch_format="pyarrow")
    idx = os.path.join(tempfile.gettempdir(),
                       f"incr_idx_{os.path.basename(os.path.normpath(sf_dir))}")
    shutil.rmtree(idx, ignore_errors=True)
    build_minhash_index(old, idx)
    return dedup_against_index(new, idx, old, threshold=0.5)


def q_dup_ngrams(sf_dir: str) -> rd.Dataset:
    """Duplicated-span statistics: per doc, how many word-trigram
    positions carry a gram appearing in >= 2 documents (n=3 so the tiny
    synthetic vocabulary actually collides; production default n=8)."""
    from ..ops.dedup import dup_ngram_stats
    return dup_ngram_stats(
        _read(f"{sf_dir}/documents.parquet",
              columns=["doc_id", "text"]), n=3)


def q_dedup_spans(sf_dir: str) -> rd.Dataset:
    """Exact duplicated-span removal at n=3: tokens covered by any
    cross-document trigram are dropped, text re-joined."""
    from ..ops.dedup import remove_dup_spans
    return remove_dup_spans(
        _read(f"{sf_dir}/documents.parquet",
              columns=["doc_id", "text"]), n=3)


def q_temperature_mix(sf_dir: str) -> rd.Dataset:
    """Temperature-based data mixing: 100 docs alpha=0.5-sampled across
    sources (hot sources flattened toward uniform), deterministic
    smallest-sha256 selection per source."""
    from ..ops.sampling import temperature_mix
    return temperature_mix(
        _read(f"{sf_dir}/documents.parquet",
              columns=["doc_id", "source"]),
        group_col="source", id_col="doc_id", k=100, alpha=0.5)


def q_pii_redact(sf_dir: str) -> rd.Dataset:
    """PII redaction over the corpus. The synthetic corpus carries no PII,
    so the query PLANTS deterministic doc_id-derived email/IP/SSN/phone
    strings first (the DuckDB oracle plants the identical strings in SQL)
    — the redaction regexes then fire on every row, and the hash check
    pins pyarrow's RE2 application against DuckDB's."""

    def plant(t: pa.Table) -> pa.Table:
        d = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        s = lambda a: pa.array(a.astype("U"), pa.string())  # noqa: E731
        planted = pc.binary_join_element_wise(
            pc.fill_null(t["text"], ""), " contact user", s(d),
            "@example.com from 10.", s(d % 256), ".0.", s(d % 100),
            " ssn 123-45-", s(1000 + d % 9000),
            " tel +1-555-", s(1000 + d % 9000), "")
        return t.drop_columns(["text"]).append_column("text", planted)

    docs = _read(f"{sf_dir}/documents.parquet",
                 columns=["doc_id", "text"])
    out = text_ops.redact_pii(docs.map_batches(plant, batch_format="pyarrow"))
    return out.select_columns(["doc_id", "text_redacted", "n_email",
                               "n_ipv4", "n_ssn", "n_phone"])


def q_join_multi(sf_dir: str) -> rd.Dataset:
    """COMPOSITE-KEY equi-join (round 4): events joined back to their own
    per-(user_id, event_type) aggregate on the two-column key — exercises
    hash_inner_join's multi-column path (one collision-proof composite-key
    shuffle; the aggregate itself is the usual per-block partial +
    bucketed merge)."""
    from ..ops.agg import bucketed_groupby, sum_merge
    from ..ops.joins import hash_inner_join

    ev = _read(f"{sf_dir}/events.parquet",
               columns=["event_id", "user_id", "event_type",
                                  "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return (pd.DataFrame({
            "user_id": df["user_id"], "event_type": df["event_type"],
            "cnt": np.ones(len(df), dtype=np.int64),
            "cents": np.round(df["value"].to_numpy() * 100).astype(np.int64),
        }).groupby(["user_id", "event_type"], as_index=False, sort=False)
            .sum())

    agg = bucketed_groupby(
        ev.map_batches(partial, batch_format="pandas"),
        ["user_id", "event_type"],
        sum_merge(["user_id", "event_type"], ["cnt", "cents"]))
    left = ev.select_columns(["event_id", "user_id", "event_type"])
    out = hash_inner_join(left, agg, on=["user_id", "event_type"])
    return out.select_columns(["event_id", "user_id", "event_type",
                               "cnt", "cents"])


def q_events_pctrank(sf_dir: str) -> rd.Dataset:
    """PERCENT_RANK / CUME_DIST window functions per user over cents
    (round 4) — same single keyed_window shuffle as q_events_rank; the
    rational ranks divide identically in IEEE float64 on both engines."""
    from ..ops.window import WindowSpec, keyed_window

    ev = _read(f"{sf_dir}/events.parquet",
               columns=["event_id", "user_id", "value"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_id": df["event_id"], "user_id": df["user_id"],
            "cents": np.round(df["value"].to_numpy() * 100).astype(np.int64),
        })

    w = keyed_window(
        ev.map_batches(prep, batch_format="pandas"),
        by="user_id", order=["cents", "event_id"],
        specs=[
            WindowSpec("pr", "percent_rank", src="cents"),
            WindowSpec("cd", "cume_dist", src="cents"),
        ])
    return w.select_columns(["event_id", "user_id", "pr", "cd"])


def q_events_asof_fwd(sf_dir: str) -> rd.Dataset:
    """FORWARD as-of join (round 4): for every click, the user's NEXT
    error at-or-after the click — same single co-bucketed shuffle as the
    backward direction, mirrored merge."""
    from ..ops.joins import asof_join

    ev = _read(f"{sf_dir}/events.parquet",
               columns=["event_id", "user_id", "event_type",
                                  "ts", "value"])

    def side(kind):
        def fn(t):
            import pyarrow.compute as pc
            return t.filter(pc.equal(t["event_type"], kind))
        return fn

    clicks = (ev.map_batches(side("click"), batch_format="pyarrow")
              .select_columns(["event_id", "user_id", "ts"]))
    errors = (ev.map_batches(side("error"), batch_format="pyarrow")
              .select_columns(["user_id", "ts", "value"]))
    joined = asof_join(clicks, errors, on="ts", by="user_id",
                       value_cols=["value"], direction="forward")

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(df["value"].to_numpy(dtype=np.float64) * 100)
        cents = np.where(np.isnan(cents), -1, cents).astype(np.int64)
        return pd.DataFrame({"event_id": df["event_id"],
                             "user_id": df["user_id"],
                             "next_error_cents": cents})

    return joined.map_batches(finish, batch_format="pandas")


def q_events_gsets(sf_dir: str) -> rd.Dataset:
    """GROUP BY GROUPING SETS ((event_type), (hour)) (round 4): the
    general grouping-sets ladder behind ROLLUP/CUBE — raw input exchanged
    once at the finest granularity, each requested set re-aggregated from
    that vocabulary-sized level."""
    from ..ops.agg import grouped_grouping_sets

    ev = _read(f"{sf_dir}/events.parquet",
               columns=["event_type", "ts", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return (pd.DataFrame({
            "event_type": df["event_type"],
            "hour": df["ts"].dt.floor("h").dt.strftime("%Y-%m-%d %H:00:00"),
            "n_events": np.ones(len(df), dtype=np.int64),
            "value_cents": np.round(df["value"].to_numpy() * 100)
            .astype(np.int64),
        }).groupby(["event_type", "hour"], as_index=False, sort=False)
            .sum())

    return grouped_grouping_sets(
        ev.map_batches(partial, batch_format="pandas"),
        ["event_type", "hour"], ["n_events", "value_cents"],
        sets=[["event_type"], ["hour"]])


def q_events_moments(sf_dir: str) -> rd.Dataset:
    """Mean / population variance / stddev of cents per event type from
    exact integer combiner sums (round 4) — closed-formula float64
    evaluation over exact int64 (n, S, S2), bit-reproducible against the
    same formula in SQL (streaming var_pop would drift in the last ulp)."""
    from ..ops.agg import grouped_moments

    ev = _read(f"{sf_dir}/events.parquet",
               columns=["event_type", "value"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_type": df["event_type"],
            "cents": np.round(df["value"].to_numpy() * 100).astype(np.int64),
        })

    return grouped_moments(ev.map_batches(prep, batch_format="pandas"),
                           ["event_type"], "cents")


def q_events_funnel(sf_dir: str) -> rd.Dataset:
    """Funnel analysis (round 4): deepest view -> click -> purchase stage
    each user reaches, with cascading first-occurrence semantics (a click
    counts only at/after the user's first view, a purchase only at/after
    that click). One user-bucketed shuffle, vectorized per-stage mins."""
    from ..ops.events import funnel_stages

    ev = _read(f"{sf_dir}/events.parquet",
               columns=["user_id", "ts", "event_type"])
    return funnel_stages(ev, user_col="user_id", ts_col="ts",
                         type_col="event_type",
                         stages=["view", "click", "purchase"])


def q_events_retention(sf_dir: str) -> rd.Dataset:
    """Cohort retention matrix (round 4): users grouped by first-activity
    day, distinct active users per (cohort_day, day_offset). User-bucketed
    distinct pass + calendar-sized count sum."""
    from ..ops.events import cohort_retention

    ev = _read(f"{sf_dir}/events.parquet",
               columns=["user_id", "ts"])
    return cohort_retention(ev, user_col="user_id", ts_col="ts")


def q_kg_components(sf_dir: str) -> rd.Dataset:
    """Connected components over the deterministic canonical graph
    (round 4): distributed min-label propagation (ops/cc.py) with the
    vocabulary-rank mapping of ops/graph.components_table; component id =
    lexicographically smallest canonical node id, matching the recursive-
    CTE closure oracle."""
    from ..ops.graph import components_table

    return components_table(_canon_edges(sf_dir))


# --- TPC-H-style showcase pipelines (round 4) --------------------------------
# Money math stays in INTEGER units (cents / 1e-4 / 1e-6 dollars) so the
# distributed sums are order-independent and the SQL oracle is bit-exact.

Q1_CUTOFF = "1998-09-02"
Q3_CUTOFF = "1998-03-15"


def q_tpch_q1(sf_dir: str) -> rd.Dataset:
    """TPC-H Q1 pricing summary over lineitem: filter at the read, ONE
    per-block partial groupby on the 6-value (returnflag, linestatus) key,
    tiny bucketed merge, closed-formula float64 averages from exact int64
    sums. Integer headroom: charge units are 1e-6 dollars, so per-group
    sums stay under 2^63 to ~7e7 qualifying rows per group (sf ~10);
    beyond that run the same partials at 1e-4 units with an exact /100
    only on the final tiny table."""
    from ..ops.agg import bucketed_groupby, sum_merge

    li = _read(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice", "l_discount", "l_tax", "l_shipdate"])
    cutoff = pd.Timestamp(Q1_CUTOFF)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["l_shipdate"] <= cutoff]
        ext_c = np.round(df["l_extendedprice"].to_numpy() * 100).astype(np.int64)
        disc_p = np.round(df["l_discount"].to_numpy() * 100).astype(np.int64)
        tax_p = np.round(df["l_tax"].to_numpy() * 100).astype(np.int64)
        disc_price = ext_c * (100 - disc_p)
        return (pd.DataFrame({
            "l_returnflag": df["l_returnflag"],
            "l_linestatus": df["l_linestatus"],
            "sum_qty": df["l_quantity"].to_numpy().astype(np.int64),
            "sum_base_cents": ext_c,
            "sum_disc_e4": disc_price,
            "sum_charge_e6": disc_price * (100 + tax_p),
            "sum_disc_pct": disc_p,
            "count_order": np.ones(len(df), dtype=np.int64),
        }).groupby(["l_returnflag", "l_linestatus"], as_index=False,
                   sort=False).sum())

    merged = bucketed_groupby(
        li.map_batches(partial, batch_format="pandas"),
        ["l_returnflag", "l_linestatus"],
        sum_merge(["l_returnflag", "l_linestatus"],
                  ["sum_qty", "sum_base_cents", "sum_disc_e4",
                   "sum_charge_e6", "sum_disc_pct", "count_order"]))

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        n = df["count_order"].to_numpy(dtype=np.float64)
        out = df[["l_returnflag", "l_linestatus", "sum_qty",
                  "sum_base_cents", "sum_disc_e4", "sum_charge_e6",
                  "count_order"]].copy()
        out["avg_qty"] = df["sum_qty"].to_numpy(np.float64) / n
        out["avg_price_cents"] = df["sum_base_cents"].to_numpy(np.float64) / n
        out["avg_disc_pct"] = df["sum_disc_pct"].to_numpy(np.float64) / n
        return out

    return merged.map_batches(finish, batch_format="pandas")


def q_tpch_q3(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q3 shipping priority: revenue is PRE-AGGREGATED per order
    inside the lineitem scan before any join (the combiner-before-shuffle
    rule), the BUILDING customer keys are a broadcast semi-filter on the
    orders scan (zero shuffle for the dimension side), the order⋈revenue
    equi-join is the one co-bucketed exchange, and top-10 is per-block
    local top-10 then a driver merge of ≤10·blocks rows. Deterministic
    total order: revenue desc, o_orderdate asc, l_orderkey asc."""
    import ray

    from ..ops.agg import bucketed_groupby, sum_merge
    from ..ops.joins import hash_inner_join

    cutoff = pd.Timestamp(Q3_CUTOFF)

    cust = _read(f"{sf_dir}/customer.parquet",
                 columns=["c_custkey", "c_mktsegment"])
    keys = np.unique(cust.filter(expr="c_mktsegment == 'BUILDING'")
                     .to_pandas()["c_custkey"].to_numpy(np.int64))
    keys_ref = ray.put(keys)

    orders = _read(f"{sf_dir}/orders.parquet",
                   columns=["o_orderkey", "o_custkey",
                                      "o_orderdate", "o_orderpriority"])

    def keep_orders(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["o_orderdate"] < cutoff]
        df = df[np.isin(df["o_custkey"].to_numpy(np.int64),
                        ray.get(keys_ref))]
        return pd.DataFrame({
            "l_orderkey": df["o_orderkey"].to_numpy(np.int64),
            "o_orderdate": df["o_orderdate"].dt.strftime("%Y-%m-%d"),
            "o_orderpriority": df["o_orderpriority"]})

    li = _read(f"{sf_dir}/lineitem.parquet",
               columns=["l_orderkey", "l_extendedprice",
                                  "l_discount", "l_shipdate"])

    def li_partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["l_shipdate"] > cutoff]
        ext_c = np.round(df["l_extendedprice"].to_numpy() * 100).astype(np.int64)
        disc_p = np.round(df["l_discount"].to_numpy() * 100).astype(np.int64)
        return (pd.DataFrame({"l_orderkey": df["l_orderkey"],
                              "revenue_e4": ext_c * (100 - disc_p)})
                .groupby("l_orderkey", as_index=False, sort=False).sum())

    rev = bucketed_groupby(
        li.map_batches(li_partial, batch_format="pandas"),
        ["l_orderkey"], sum_merge(["l_orderkey"], ["revenue_e4"]))

    joined = hash_inner_join(
        rev, orders.map_batches(keep_orders, batch_format="pandas"),
        "l_orderkey")

    def local_top(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(
            ["revenue_e4", "o_orderdate", "l_orderkey"],
            ascending=[False, True, True], kind="mergesort").head(10)

    cand = joined.map_batches(local_top, batch_format="pandas").to_pandas()
    out = (cand.sort_values(["revenue_e4", "o_orderdate", "l_orderkey"],
                            ascending=[False, True, True], kind="mergesort")
           .head(10).reset_index(drop=True))
    return out[["l_orderkey", "o_orderdate", "o_orderpriority",
                "revenue_e4"]].astype({"l_orderkey": "int64",
                                       "revenue_e4": "int64"})


def q_events_corr(sf_dir: str) -> rd.Dataset:
    """Per-event-type Pearson correlation and population covariance
    between value (cents) and hour-of-day (round 4) — bivariate exact
    integer combiner sums, closed-formula float64 finish bit-matched by
    the identical SQL expression."""
    from ..ops.agg import grouped_corr

    ev = _read(f"{sf_dir}/events.parquet",
               columns=["event_type", "ts", "value"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_type": df["event_type"],
            "cents": np.round(df["value"].to_numpy() * 100).astype(np.int64),
            "hour": df["ts"].dt.hour.astype("int64")})

    return grouped_corr(ev.map_batches(prep, batch_format="pandas"),
                        ["event_type"], "cents", "hour")


def q_user_paths(sf_dir: str) -> rd.Dataset:
    """Chronological event-type path per user (round 4): ordered
    string_agg under the (ts, event_id) total order — behavioral-sequence
    building block; one user-bucketed shuffle."""
    from ..ops.agg import grouped_string_agg

    ev = _read(f"{sf_dir}/events.parquet",
               columns=["user_id", "ts", "event_id",
                                  "event_type"])
    return grouped_string_agg(ev, ["user_id"], "event_type",
                              ["ts", "event_id"], sep=">", out_col="path")


def q_events_mode(sf_dir: str) -> rd.Dataset:
    """Modal hour-of-day per event type (round 4): grouped_mode's
    (key x value)-vocabulary combiner + per-key argmax with a
    deterministic smallest-value tiebreak."""
    from ..ops.agg import grouped_mode

    ev = _read(f"{sf_dir}/events.parquet",
               columns=["event_type", "ts"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"event_type": df["event_type"],
                             "modal_hour": df["ts"].dt.hour.astype("int64")})

    return grouped_mode(ev.map_batches(prep, batch_format="pandas"),
                        ["event_type"], "modal_hour")


def q_events_firstlast(sf_dir: str) -> rd.Dataset:
    """First and last event value (cents) per user under the (ts,
    event_id) total order (round 4) — exercises the first_value /
    last_value window kinds, then collapses to one row per user inside
    the same bucket-aligned blocks the window shuffle produced."""
    from ..ops.window import WindowSpec, keyed_window

    ev = _read(f"{sf_dir}/events.parquet",
               columns=["user_id", "ts", "event_id", "value"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "user_id": df["user_id"], "ts": df["ts"],
            "event_id": df["event_id"],
            "cents": np.round(df["value"].to_numpy() * 100).astype(np.int64)})

    w = keyed_window(
        ev.map_batches(prep, batch_format="pandas"),
        by="user_id", order=["ts", "event_id"],
        specs=[WindowSpec("first_cents", "first_value", src="cents"),
               WindowSpec("last_cents", "last_value", src="cents")])

    # one row per user: a user's rows share a bucket == block, so a
    # per-block dedup is exact (batch_size=None keeps block boundaries)
    def collapse(df: pd.DataFrame) -> pd.DataFrame:
        return (df[["user_id", "first_cents", "last_cents"]]
                .drop_duplicates("user_id"))

    return w.map_batches(collapse, batch_format="pandas", batch_size=None)


def q_type_encode(sf_dir: str) -> rd.Dataset:
    """Label-encode event_type to dense lexicographic ids (round 4):
    bounded-vocabulary broadcast encode, zero shuffle on the corpus pass;
    id assignment pinned by a dense_rank SQL oracle."""
    from ..ops.sampling import vocab_encode

    ev = _read(f"{sf_dir}/events.parquet",
               columns=["event_id", "event_type"])
    return vocab_encode(ev, "event_type", out_col="type_id")


def q_user_types(sf_dir: str) -> rd.Dataset:
    """Sorted distinct event types per user as one string (collect-set
    semantics, round 4): per-BLOCK distinct slims the shuffle, merge-side
    distinct makes it exact across blocks; SQL string_agg(DISTINCT ...
    ORDER BY ...) pins it exactly."""
    from ..ops.agg import grouped_string_agg

    ev = _read(f"{sf_dir}/events.parquet",
               columns=["user_id", "event_type"])

    def distinct(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates()

    return grouped_string_agg(
        ev.map_batches(distinct, batch_format="pandas"),
        ["user_id"], "event_type", ["event_type"], sep=",",
        out_col="types", distinct=True)


def q_tpch_q5(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q5 local-supplier revenue (round 4). Distributed shape:
    nation⋈region and the ASIA supplier map are driver-tiny broadcasts;
    orders⋈customer goes through ``auto_inner_join`` (cost-based — the
    filtered customer slice broadcasts at test scale, co-buckets at 100-TB
    scale); the only mandatory exchange is the orderkey join between the
    pre-aggregated lineitem partials and the dated orders. The
    ``c_nationkey = s_nationkey`` locality predicate is applied post-join,
    then a 25-row nation rollup finishes driver-side. Money math is exact
    integer e4 (cents × discount bp), matching the oracle bit-for-bit."""
    import ray

    from ..ops.agg import bucketed_groupby, sum_merge
    from ..ops.joins import auto_inner_join, hash_inner_join

    lo, hi = pd.Timestamp("1996-01-01"), pd.Timestamp("1997-01-01")

    import pyarrow.parquet as pq

    # nation/region/supplier are driver-tiny dimensions: read them with
    # pyarrow directly instead of paying three Ray dataset executions
    nat = pq.read_table(f"{sf_dir}/nation.parquet").to_pandas()
    reg = pq.read_table(f"{sf_dir}/region.parquet").to_pandas()
    asia_keys = nat[nat["n_regionkey"].isin(
        reg.loc[reg["r_name"] == "ASIA", "r_regionkey"])]
    nation_name = dict(zip(asia_keys["n_nationkey"].astype(int),
                           asia_keys["n_name"]))
    sup = pq.read_table(f"{sf_dir}/supplier.parquet",
                        columns=["s_suppkey", "s_nationkey"]).to_pandas()
    sup = sup[sup["s_nationkey"].isin(nation_name)]
    sup_map_ref = ray.put(dict(zip(sup["s_suppkey"].astype(int),
                                   sup["s_nationkey"].astype(int))))
    asia_ref = ray.put(frozenset(nation_name))

    cust = _read(f"{sf_dir}/customer.parquet",
                 columns=["c_custkey", "c_nationkey"])

    def cust_slim(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["c_nationkey"].isin(ray.get(asia_ref))]
        return pd.DataFrame({
            "o_custkey": df["c_custkey"].to_numpy(np.int64),
            "c_nationkey": df["c_nationkey"].to_numpy(np.int64)})

    orders = _read(f"{sf_dir}/orders.parquet",
                   columns=["o_orderkey", "o_custkey",
                                      "o_orderdate"])

    def dated(df: pd.DataFrame) -> pd.DataFrame:
        df = df[(df["o_orderdate"] >= lo) & (df["o_orderdate"] < hi)]
        return pd.DataFrame({
            "l_orderkey": df["o_orderkey"].to_numpy(np.int64),
            "o_custkey": df["o_custkey"].to_numpy(np.int64)})

    ord_cust = auto_inner_join(
        orders.map_batches(dated, batch_format="pandas"),
        cust.map_batches(cust_slim, batch_format="pandas"), "o_custkey")

    li = _read(f"{sf_dir}/lineitem.parquet",
               columns=["l_orderkey", "l_suppkey",
                                  "l_extendedprice", "l_discount"])

    def li_partial(df: pd.DataFrame) -> pd.DataFrame:
        smap = ray.get(sup_map_ref)
        nk = df["l_suppkey"].map(smap)
        keep = nk.notna().to_numpy()
        df = df[keep]
        ext_c = np.round(df["l_extendedprice"].to_numpy() * 100).astype(np.int64)
        disc_p = np.round(df["l_discount"].to_numpy() * 100).astype(np.int64)
        return (pd.DataFrame({"l_orderkey": df["l_orderkey"].to_numpy(np.int64),
                              "s_nationkey": nk[keep].to_numpy(np.int64),
                              "revenue_e4": ext_c * (100 - disc_p)})
                .groupby(["l_orderkey", "s_nationkey"], as_index=False,
                         sort=False).sum())

    joined = hash_inner_join(
        li.map_batches(li_partial, batch_format="pandas"), ord_cust,
        "l_orderkey")

    def local_sum(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["c_nationkey"].to_numpy() == df["s_nationkey"].to_numpy()]
        return (df[["s_nationkey", "revenue_e4"]]
                .groupby("s_nationkey", as_index=False, sort=False).sum())

    per_nation = bucketed_groupby(
        joined.map_batches(local_sum, batch_format="pandas"),
        ["s_nationkey"], sum_merge(["s_nationkey"], ["revenue_e4"]),
        buckets=4).to_pandas()
    per_nation["n_name"] = per_nation["s_nationkey"].map(nation_name)
    out = (per_nation.sort_values("revenue_e4", ascending=False,
                                  kind="mergesort").reset_index(drop=True))
    return out[["n_name", "revenue_e4"]].astype({"revenue_e4": "int64"})


def q_tpch_q6(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q6 forecast revenue (round 4): the canonical pruned-scan +
    combiner pipeline — 4 columns leave storage, each block folds to one
    int64 partial, the driver sums ≤num_blocks scalars. Zero shuffle."""
    lo, hi = pd.Timestamp("1996-01-01"), pd.Timestamp("1997-01-01")

    li = _read(f"{sf_dir}/lineitem.parquet",
               columns=["l_shipdate", "l_discount",
                                  "l_quantity", "l_extendedprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        m = ((df["l_shipdate"] >= lo) & (df["l_shipdate"] < hi)
             & (df["l_discount"] >= 0.05) & (df["l_discount"] <= 0.07)
             & (df["l_quantity"] < 24))
        df = df[m]
        ext_c = np.round(df["l_extendedprice"].to_numpy() * 100).astype(np.int64)
        disc_p = np.round(df["l_discount"].to_numpy() * 100).astype(np.int64)
        return pd.DataFrame({"revenue_e4": [int((ext_c * disc_p).sum())]})

    parts = li.map_batches(partial, batch_format="pandas").to_pandas()
    return pd.DataFrame({"revenue_e4": [np.int64(parts["revenue_e4"].sum())]})


def q_events_topn(sf_dir: str) -> rd.Dataset:
    """Top-3 events per user by cents (round 4) via the combiner top-N —
    each block ships at most 3 candidate rows per user, the bucketed
    merge re-ranks survivors; equivalent to ROW_NUMBER() <= 3 without a
    full window shuffle."""
    from ..ops.agg import grouped_top_n

    ev = _read(f"{sf_dir}/events.parquet",
               columns=["event_id", "user_id", "value"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_id": df["event_id"], "user_id": df["user_id"],
            "cents": np.round(df["value"].to_numpy() * 100).astype(np.int64),
        })

    return grouped_top_n(
        ev.map_batches(prep, batch_format="pandas"), ["user_id"], "cents",
        n=3, tie_cols=["event_id"])


def q_events_regr(sf_dir: str) -> rd.Dataset:
    """Per-event-type linear regression of cents on hour-of-day (round
    4): exact integer combiner sums, closed-formula float64 finish
    bit-matched by the identical SQL expression."""
    from ..ops.agg import grouped_regression

    ev = _read(f"{sf_dir}/events.parquet",
               columns=["event_type", "ts", "value"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_type": df["event_type"],
            "hour": df["ts"].dt.hour.to_numpy(np.int64),
            "cents": np.round(df["value"].to_numpy() * 100).astype(np.int64),
        })

    return grouped_regression(
        ev.map_batches(prep, batch_format="pandas"), ["event_type"],
        "hour", "cents")


def q_events_global_rank(sf_dir: str) -> rd.Dataset:
    """GLOBAL row number over every event by (cents desc, event_id) —
    the range-partitioned sample-sort exchange (round 4): sampled cuts
    route the one total-order shuffle, ranks stamp from prefix-summed
    partition counts with no extra pass."""
    from ..ops.sort import global_row_number

    ev = _read(f"{sf_dir}/events.parquet",
               columns=["event_id", "value"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_id": df["event_id"],
            "cents": np.round(df["value"].to_numpy() * 100).astype(np.int64),
        })

    return global_row_number(
        ev.map_batches(prep, batch_format="pandas"),
        ["cents", "event_id"], ascending=[False, True])


def q_kg_triangles(sf_dir: str) -> pd.DataFrame:
    """Exact triangle count of the canonical KG (round 4): degree-ordered
    wedge generation + oriented-edge semi-join — O(m^1.5) work bound,
    orientation-invariant so it matches the lexicographic SQL self-join."""
    from ..ops.graph import triangle_count

    return triangle_count(_canon_edges(sf_dir))


def q_kg_clustering(sf_dir: str) -> rd.Dataset:
    """Per-node local clustering coefficient of the canonical KG (round
    4): per-node triangle credits from the degree-ordered triangle pass,
    left-joined onto undirected degrees through one tagged-union
    exchange; coeff = 2t / (d(d-1))."""
    from ..ops.graph import local_clustering

    return local_clustering(_canon_edges(sf_dir))


def q_reservoir_sample(sf_dir: str) -> pd.DataFrame:
    """Exact 200-document weighted sample without replacement (round 4):
    distributed A-Res reservoir keyed by deterministic sha256-derived
    uniforms, weight = n_chars; only local top-k candidates leave each
    block. The identical ln(u)/w formula in SQL pins the selection."""
    from ..ops.sampling import weighted_reservoir_topk

    docs = _read(f"{sf_dir}/documents.parquet",
                 columns=["doc_id", "n_chars", "lang"])
    out = weighted_reservoir_topk(docs, id_col="doc_id",
                                  weight_col="n_chars", k=200,
                                  keep_cols=["lang"])
    return out[["doc_id", "lang"]]


def q_events_share(sf_dir: str) -> rd.Dataset:
    """Each event's share of its user's total spend (round 4) — the
    unordered full-partition window aggregate SUM() OVER (PARTITION BY
    user_id): slim per-key totals through one bucketed groupby, joined
    back in one co-bucketed exchange."""
    from ..ops.window import keyed_share

    ev = _read(f"{sf_dir}/events.parquet",
               columns=["event_id", "user_id", "value"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_id": df["event_id"], "user_id": df["user_id"],
            "cents": np.round(df["value"].to_numpy() * 100).astype(np.int64),
        })

    return keyed_share(ev.map_batches(prep, batch_format="pandas"),
                       by="user_id", value_col="cents")


def q_events_ewma(sf_dir: str) -> rd.Dataset:
    """Per-user exponentially smoothed spend (alpha=0.5, round 4): the
    ewma window kind over the (ts, event_id) total order. The oracle is
    a recursive CTE running the identical float64 recursion."""
    from ..ops.window import WindowSpec, keyed_window

    ev = _read(f"{sf_dir}/events.parquet",
               columns=["event_id", "user_id", "value", "ts"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_id": df["event_id"], "user_id": df["user_id"],
            "ts": df["ts"],
            "cents": np.round(df["value"].to_numpy() * 100).astype(np.int64),
        })

    w = keyed_window(
        ev.map_batches(prep, batch_format="pandas"),
        by="user_id", order=["ts", "event_id"],
        specs=[WindowSpec("ewma", "ewma", src="cents", alpha=0.5)])
    return w.select_columns(["event_id", "user_id", "cents", "ewma"])


def q_tpch_q10(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q10 returned-item revenue (round 4): lineitem pre-filters
    RETURNFLAG='R' and pre-aggregates revenue per order before the one
    orderkey exchange against the dated orders; the per-customer rollup
    joins the customer dimension through the cost-based auto plan and
    the nation map stays a driver-tiny broadcast. Top-20 is local
    top-20 per block + a driver merge."""
    from ..ops.agg import bucketed_groupby, sum_merge
    from ..ops.joins import auto_inner_join, hash_inner_join

    lo, hi = pd.Timestamp("1996-01-01"), pd.Timestamp("1996-07-01")

    import pyarrow.parquet as pq

    nat = pq.read_table(f"{sf_dir}/nation.parquet").to_pandas()
    nation_name = dict(zip(nat["n_nationkey"].astype(int), nat["n_name"]))

    li = _read(f"{sf_dir}/lineitem.parquet",
               columns=["l_orderkey", "l_returnflag",
                                  "l_extendedprice", "l_discount"])

    def li_partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["l_returnflag"] == "R"]
        ext_c = np.round(df["l_extendedprice"].to_numpy() * 100).astype(np.int64)
        disc_p = np.round(df["l_discount"].to_numpy() * 100).astype(np.int64)
        return (pd.DataFrame({"l_orderkey": df["l_orderkey"].to_numpy(np.int64),
                              "revenue_e4": ext_c * (100 - disc_p)})
                .groupby("l_orderkey", as_index=False, sort=False).sum())

    orders = _read(f"{sf_dir}/orders.parquet",
                   columns=["o_orderkey", "o_custkey",
                                      "o_orderdate"])

    def dated(df: pd.DataFrame) -> pd.DataFrame:
        df = df[(df["o_orderdate"] >= lo) & (df["o_orderdate"] < hi)]
        return pd.DataFrame({
            "l_orderkey": df["o_orderkey"].to_numpy(np.int64),
            "c_custkey": df["o_custkey"].to_numpy(np.int64)})

    joined = hash_inner_join(
        li.map_batches(li_partial, batch_format="pandas"),
        orders.map_batches(dated, batch_format="pandas"), "l_orderkey")

    def per_cust(df: pd.DataFrame) -> pd.DataFrame:
        return (df[["c_custkey", "revenue_e4"]]
                .groupby("c_custkey", as_index=False, sort=False).sum())

    rev = bucketed_groupby(
        joined.map_batches(per_cust, batch_format="pandas"),
        ["c_custkey"], sum_merge(["c_custkey"], ["revenue_e4"]))

    cust = _read(f"{sf_dir}/customer.parquet",
                 columns=["c_custkey", "c_name", "c_acctbal",
                                    "c_nationkey"])

    def cust_slim(df: pd.DataFrame) -> pd.DataFrame:
        # inner-join semantics: a c_nationkey with no nation row drops
        # the customer (the SQL joins nation), it must not ride through
        # as a NaN n_name
        df = df[df["c_nationkey"].isin(nation_name)]
        return pd.DataFrame({
            "c_custkey": df["c_custkey"].to_numpy(np.int64),
            "c_name": df["c_name"],
            "acctbal_cents": np.round(df["c_acctbal"].to_numpy() * 100)
            .astype(np.int64),
            "n_name": df["c_nationkey"].map(nation_name)})

    out_ds = auto_inner_join(
        rev, cust.map_batches(cust_slim, batch_format="pandas"),
        "c_custkey")

    def local_top(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(["revenue_e4", "c_custkey"],
                              ascending=[False, True],
                              kind="mergesort").head(20)

    cand = out_ds.map_batches(local_top, batch_format="pandas").to_pandas()
    out = (cand.sort_values(["revenue_e4", "c_custkey"],
                            ascending=[False, True], kind="mergesort")
           .head(20).reset_index(drop=True))
    return out[["c_custkey", "c_name", "n_name", "acctbal_cents",
                "revenue_e4"]].astype({"c_custkey": "int64",
                                       "acctbal_cents": "int64",
                                       "revenue_e4": "int64"})


def q_tpch_q18(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q18 large-quantity orders (round 4): the HAVING showcase —
    per-order quantity partials combine before one bucketed merge that
    applies HAVING sum(qty) > 250 (output shrinks to the qualifying
    orders only), then joins the order header and customer name through
    the cost-based auto plan. Top-100 by (totalprice desc, orderdate)."""
    from ..ops.agg import bucketed_groupby
    from ..ops.joins import auto_inner_join, hash_inner_join

    li = _read(f"{sf_dir}/lineitem.parquet",
               columns=["l_orderkey", "l_quantity"])

    def qty_partial(df: pd.DataFrame) -> pd.DataFrame:
        return (pd.DataFrame({"o_orderkey": df["l_orderkey"].to_numpy(np.int64),
                              "sum_qty": np.round(df["l_quantity"]
                                                  .to_numpy()).astype(np.int64)})
                .groupby("o_orderkey", as_index=False, sort=False).sum())

    def having(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("o_orderkey", as_index=False, sort=False)[
            ["sum_qty"]].sum()
        return g[g["sum_qty"] > 250]

    big = bucketed_groupby(
        li.map_batches(qty_partial, batch_format="pandas"),
        ["o_orderkey"], having)

    orders = _read(f"{sf_dir}/orders.parquet",
                   columns=["o_orderkey", "o_custkey",
                                      "o_orderdate", "o_totalprice"])

    def ord_slim(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "o_orderkey": df["o_orderkey"].to_numpy(np.int64),
            "c_custkey": df["o_custkey"].to_numpy(np.int64),
            "o_orderdate": df["o_orderdate"].dt.strftime("%Y-%m-%d"),
            "totalprice_cents": np.round(df["o_totalprice"].to_numpy()
                                         * 100).astype(np.int64)})

    joined = hash_inner_join(
        big, orders.map_batches(ord_slim, batch_format="pandas"),
        "o_orderkey")

    cust = _read(f"{sf_dir}/customer.parquet",
                 columns=["c_custkey", "c_name"])

    def cust_slim(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"c_custkey": df["c_custkey"].to_numpy(np.int64),
                             "c_name": df["c_name"]})

    out_ds = auto_inner_join(
        joined, cust.map_batches(cust_slim, batch_format="pandas"),
        "c_custkey")

    keys = ["totalprice_cents", "o_orderdate", "o_orderkey"]
    asc = [False, True, True]

    def local_top(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(keys, ascending=asc,
                              kind="mergesort").head(100)

    cand = out_ds.map_batches(local_top, batch_format="pandas").to_pandas()
    out = (cand.sort_values(keys, ascending=asc, kind="mergesort")
           .head(100).reset_index(drop=True))
    return out[["c_name", "c_custkey", "o_orderkey", "o_orderdate",
                "totalprice_cents", "sum_qty"]].astype(
        {"c_custkey": "int64", "o_orderkey": "int64",
         "totalprice_cents": "int64", "sum_qty": "int64"})


def q_events_rolling(sf_dir: str) -> rd.Dataset:
    """Frame-clause rolling aggregates per user (round 4): min / max /
    mean over the trailing 5-row frame of the (ts, event_id) total
    order, plus the existing exact rolling sum — one keyed_window
    shuffle computes all four."""
    from ..ops.window import WindowSpec, keyed_window

    ev = _read(f"{sf_dir}/events.parquet",
               columns=["event_id", "user_id", "value", "ts"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_id": df["event_id"], "user_id": df["user_id"],
            "ts": df["ts"],
            "cents": np.round(df["value"].to_numpy() * 100).astype(np.int64),
        })

    w = keyed_window(
        ev.map_batches(prep, batch_format="pandas"),
        by="user_id", order=["ts", "event_id"],
        specs=[
            WindowSpec("rmin", "rolling_min", src="cents", param=5),
            WindowSpec("rmax", "rolling_max", src="cents", param=5),
            WindowSpec("rmean", "rolling_mean", src="cents", param=5),
            WindowSpec("rsum", "rolling_sum", src="cents", param=5),
        ])
    return w.select_columns(["event_id", "user_id", "cents",
                             "rmin", "rmax", "rmean", "rsum"])


def q_lineitem_profile(sf_dir: str) -> pd.DataFrame:
    """Ingest-gate column profile of lineitem's numeric measures (round
    4): count / nulls / min / max / mean per column in one shuffle-free
    pass (one partial row per column per block)."""
    from ..ops.agg import profile_numeric

    cols = ["l_quantity", "l_extendedprice", "l_discount", "l_tax"]
    li = _read(f"{sf_dir}/lineitem.parquet", columns=cols)
    # exact_scale=100: TPC-H measures are exact 2-decimal values, making
    # the mean bit-exact vs the oracle's integer-cents sum (round-4 gate
    # hash miss); generic float columns must NOT opt in
    return profile_numeric(li, cols, exact_scale=100)


def q_image_near_dups(sf_dir: str) -> rd.Dataset:
    """Image near-duplicate pairs by DCT perceptual hash (round 4):
    stdlib-decoded synthetic PNGs with four planted one-pixel-perturbed
    copies; 4x16-bit Hamming banding guarantees recall at distance <= 3.
    Rows-only by nature (no SQL can decode a PNG); the planted pairs are
    pinned in tests."""
    from ..ops import multimodal as mm

    media = (mm.synthetic_media(n_items=24, real_payloads=True)
             .to_pandas().sort_values("item_id").reset_index(drop=True))
    # sort: rd.range block order is not guaranteed; planting must be
    # deterministic for the pinned-pairs test
    imgs = media[media["media_type"] == "image"].reset_index(drop=True)
    dups = []
    for i in range(min(4, len(imgs))):
        row = imgs.iloc[i]
        payload = bytes(row["payload"])
        if not payload.startswith(mm.PNG_MAGIC):
            continue
        px = mm.decode_png(payload)
        noisy = px.copy()
        noisy[0, 0] = (noisy[0, 0] + 9) % 256
        d = {c: row[c] for c in media.columns}
        d["item_id"] = int(row["item_id"]) + 1000
        d["payload"] = mm.encode_png(noisy)
        dups.append(d)
    aug = pd.concat([media, pd.DataFrame(dups)], ignore_index=True)
    ds = rd.from_pandas([aug.iloc[:15], aug.iloc[15:]])
    hashes = mm.phash_images(ds, fake_ok=False)
    return mm.phash_near_pairs(hashes, max_hamming=3, buckets=3)


def q_events_outliers(sf_dir: str) -> rd.Dataset:
    """Per-type z-score anomaly gate (round 4): events more than 2
    population stddevs from their type's mean spend — exact-sum moments
    joined back through one exchange, no driver broadcast."""
    from ..ops.agg import grouped_zscore_outliers

    ev = _read(f"{sf_dir}/events.parquet",
               columns=["event_id", "event_type", "value"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_id": df["event_id"], "event_type": df["event_type"],
            "cents": np.round(df["value"].to_numpy() * 100).astype(np.int64),
        })

    out = grouped_zscore_outliers(
        ev.map_batches(prep, batch_format="pandas"), ["event_type"],
        "cents", threshold=2.0)
    return out.select_columns(["event_id", "event_type", "cents", "z"])


def q_audio_near_dups(sf_dir: str) -> rd.Dataset:
    """Audio near-duplicate pairs by spectral fingerprint (round 4):
    stdlib-encoded TONAL clips (white noise has a statistically
    identical spectrum everywhere, so fingerprints of noise clips
    rightly collide — the corpus must carry spectral structure), with
    four planted low-noise copies; same Hamming banding as the image
    path. Rows-only by nature."""
    from ..ops import multimodal as mm

    sr = 16000
    t = np.arange(sr, dtype=np.float64) / sr
    rng = np.random.RandomState(31)
    rows = []
    for i in range(12):
        f0 = 180.0 + 97.0 * i
        pcm = (0.4 * np.sin(2 * np.pi * f0 * t)
               + 0.25 * np.sin(2 * np.pi * (2.3 * f0) * t)
               + 0.1 * np.sin(2 * np.pi * (4.1 * f0) * t))
        rows.append({"item_id": np.int64(i), "media_type": "audio",
                     "payload": mm.encode_wav(pcm.astype(np.float32), sr),
                     "meta_width": 0, "meta_height": 0,
                     "meta_sample_rate": sr, "meta_n_frames": 0})
        if i < 4:       # planted near-dup: tiny additive noise
            noisy = pcm + rng.standard_normal(len(pcm)) * 1e-3
            rows.append({"item_id": np.int64(i + 1000),
                         "media_type": "audio",
                         "payload": mm.encode_wav(noisy.astype(np.float32),
                                                  sr),
                         "meta_width": 0, "meta_height": 0,
                         "meta_sample_rate": sr, "meta_n_frames": 0})
    aug = pd.DataFrame(rows)
    ds = rd.from_pandas([aug.iloc[:8], aug.iloc[8:]])
    hashes = mm.fingerprint_audio(ds)
    return mm.phash_near_pairs(hashes, max_hamming=3, buckets=3)


def q_kg_ego(sf_dir: str) -> pd.DataFrame:
    """2-hop ego graph of the lexicographically smallest entity in the
    canonical KG (round 4): distributed BFS — one broadcast-frontier
    edge scan per hop."""
    from ..ops.graph import k_hop_neighbors

    edges = _canon_edges(sf_dir).materialize()

    def block_min(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"m": pd.Series([], dtype=str)})
        return pd.DataFrame({"m": [df["canonical_src"].astype(str).min()]})

    # per-block mins -> driver fold: O(blocks) rows, not O(edges)
    seed = (edges.map_batches(block_min, batch_format="pandas")
            .to_pandas()["m"].min())
    return k_hop_neighbors(edges, seed=seed, k=2)


def q_user_intersect_all(sf_dir: str) -> rd.Dataset:
    """Bag-semantics INTERSECT ALL (round 4): user_id occurrences common
    to the purchase and view event streams, kept with multiplicity —
    count partials per side, one exchange, np.repeat re-expansion."""
    from ..ops.setops import intersect_all

    ev = _read(f"{sf_dir}/events.parquet",
               columns=["user_id", "event_type"])
    buy = ev.filter(expr="event_type == 'purchase'")
    view = ev.filter(expr="event_type == 'view'")
    return intersect_all(buy.select_columns(["user_id"]),
                         view.select_columns(["user_id"]), ["user_id"])


def q_kg_pmi(sf_dir: str) -> rd.Dataset:
    """Entity-pair pointwise mutual information over per-document entity
    sets (round 4): the co-occurrence association statistic, exact
    closed-formula float64 against the SQL oracle."""
    from ..ops.agg import pmi_pairs

    return pmi_pairs(q_entities(sf_dir), "doc_id", "label", min_pair=2)


# --- semi-structured JSON extraction (ops/jsonops.py) ------------------------

def q_events_json(sf_dir: str) -> rd.Dataset:
    """Per-type aggregate over a JSON-extracted column: ``events.props``
    is a JSON string; ``$.k`` comes out through polars' vectorized JSON
    path kernel (pure per-block map, zero shuffle), then one tiny
    bucketed merge. Pins extract -> TRY_CAST -> aggregate against
    DuckDB's ``json_extract_string``."""
    from ..ops.agg import bucketed_groupby, sum_merge
    from ..ops.jsonops import json_extract_columns

    ev = _read(f"{sf_dir}/events.parquet",
               columns=["event_type", "props"])
    withk = json_extract_columns(ev, "props", {"k": ("$.k", "int64")})

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        k = df["k"]
        return (pd.DataFrame({
            "event_type": df["event_type"],
            "n": np.ones(len(df), dtype=np.int64),
            "n_k": k.notna().to_numpy().astype(np.int64),
            "sum_k": k.fillna(0).to_numpy(dtype="int64"),
        }).groupby("event_type", as_index=False, sort=False).sum())

    return bucketed_groupby(
        withk.map_batches(partial, batch_format="pandas"),
        ["event_type"], sum_merge(["event_type"], ["n", "n_k", "sum_k"]))


# --- grouped winsorization (ops/agg.py quantiles + broadcast clamp) ----------

def q_events_winsorize(sf_dir: str) -> rd.Dataset:
    """Winsorize value-cents to the per-type [p05, p95] continuous
    quantiles: bounds come from the exact histogram-partial quantile
    shuffle (vocabulary-sized result), broadcast into a pure clamp map —
    the raw rows are never shuffled. The input is scanned twice (bounds
    pass + clamp pass), the streaming-safe trade at 100 TB vs holding
    the corpus to attach five numbers."""
    import ray

    from ..ops.agg import grouped_quantile_cont

    ev = _read(f"{sf_dir}/events.parquet",
               columns=["event_id", "event_type", "value"])

    def to_cents(t: pa.Table) -> pa.Table:
        cents = np.floor(
            t["value"].to_numpy(zero_copy_only=False) * 100 + 0.5)
        return pa.table({"event_id": t["event_id"],
                         "event_type": t["event_type"],
                         "cents": pa.array(cents.astype(np.int64))})

    cents_ds = ev.map_batches(to_cents, batch_format="pyarrow")
    bounds = grouped_quantile_cont(
        cents_ds.select_columns(["event_type", "cents"]),
        ["event_type"], "cents", {"lo": 0.05, "hi": 0.95}).to_pandas()
    lo_s = bounds.set_index("event_type")["lo"].astype(np.float64)
    hi_s = bounds.set_index("event_type")["hi"].astype(np.float64)
    bref = ray.put((lo_s, hi_s))

    def clamp(df: pd.DataFrame) -> pd.DataFrame:
        lo_m, hi_m = ray.get(bref)
        lo = df["event_type"].map(lo_m).to_numpy(np.float64)
        hi = df["event_type"].map(hi_m).to_numpy(np.float64)
        c = df["cents"].to_numpy(np.float64)
        df["wcents"] = np.minimum(np.maximum(c, lo), hi)
        return df

    return cents_ds.map_batches(clamp, batch_format="pandas")


# --- TPC-H Q14 / Q4 / Q19 (adapted to this data's domains) -------------------

Q14_START, Q14_END = "1996-03-01", "1996-04-01"


def q_tpch_q14(sf_dir: str) -> rd.Dataset:
    """TPC-H Q14 promo-revenue ratio (promo == p_type = 'PROMO' in this
    data's flat type domain): part is a broadcast partkey set (zero
    shuffle for the dimension side), revenue partials are exact
    1e-4-dollar int64 sums, and the single-row percentage is a closed
    float64 formula over the two exact sums."""
    import ray

    from ..ops.agg import bucketed_groupby, sum_merge

    part = _read(f"{sf_dir}/part.parquet",
                 columns=["p_partkey", "p_type"]).to_pandas()
    promo = np.sort(part.loc[part["p_type"] == "PROMO",
                             "p_partkey"].to_numpy(np.int64))
    pref = ray.put(promo)

    lo, hi = pd.Timestamp(Q14_START), pd.Timestamp(Q14_END)
    li = _read(f"{sf_dir}/lineitem.parquet",
               columns=["l_partkey", "l_extendedprice",
                                  "l_discount", "l_shipdate"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df[(df["l_shipdate"] >= lo) & (df["l_shipdate"] < hi)]
        ext_c = np.round(
            df["l_extendedprice"].to_numpy() * 100).astype(np.int64)
        disc_p = np.round(df["l_discount"].to_numpy() * 100).astype(np.int64)
        rev = ext_c * (100 - disc_p)
        isp = np.isin(df["l_partkey"].to_numpy(np.int64), ray.get(pref))
        return (pd.DataFrame({
            "g": np.zeros(len(df), dtype=np.int64),
            "promo_rev_e4": np.where(isp, rev, 0),
            "total_rev_e4": rev,
        }).groupby("g", as_index=False, sort=False).sum())

    merged = bucketed_groupby(
        li.map_batches(partial, batch_format="pandas"),
        ["g"], sum_merge(["g"], ["promo_rev_e4", "total_rev_e4"]))

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        out = df[["promo_rev_e4", "total_rev_e4"]].copy()
        out["promo_pct"] = (
            100.0 * out["promo_rev_e4"].to_numpy(np.float64)
            / out["total_rev_e4"].to_numpy(np.float64))
        return out

    return merged.map_batches(finish, batch_format="pandas")


Q4_START, Q4_END = "1996-01-01", "1996-04-01"


def q_tpch_q4(sf_dir: str) -> rd.Dataset:
    """TPC-H Q4 order-priority checking, adapted to this data (EXISTS a
    returned line, l_returnflag = 'R'; no commit/receipt dates in the
    synthetic lineitem): the correlated EXISTS is rewritten as
    per-block-distinct orderkey partials -> co-bucketed semi join
    against the date-windowed orders scan -> tiny priority groupby."""
    from ..ops.agg import bucketed_groupby, sum_merge
    from ..ops.joins import hash_semi_join

    lo, hi = pd.Timestamp(Q4_START), pd.Timestamp(Q4_END)
    orders = _read(f"{sf_dir}/orders.parquet",
                   columns=["o_orderkey", "o_orderdate",
                                      "o_orderpriority"])

    def owin(df: pd.DataFrame) -> pd.DataFrame:
        keep = df[(df["o_orderdate"] >= lo) & (df["o_orderdate"] < hi)]
        return keep[["o_orderkey", "o_orderpriority"]]

    li = _read(f"{sf_dir}/lineitem.parquet",
               columns=["l_orderkey", "l_returnflag"])

    def lkeys(df: pd.DataFrame) -> pd.DataFrame:
        k = df.loc[df["l_returnflag"] == "R", "l_orderkey"]
        return pd.DataFrame(
            {"o_orderkey": np.unique(k.to_numpy(np.int64))})

    kept = hash_semi_join(orders.map_batches(owin, batch_format="pandas"),
                          li.map_batches(lkeys, batch_format="pandas"),
                          "o_orderkey")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("o_orderpriority", as_index=False, sort=False).agg(
            order_count=("o_orderkey", "size"))
        g["order_count"] = g["order_count"].astype(np.int64)
        return g

    return bucketed_groupby(
        kept.map_batches(partial, batch_format="pandas"),
        ["o_orderpriority"],
        sum_merge(["o_orderpriority"], ["order_count"]))


# (brand, max p_size, quantity band) disjunction arms for adapted Q19
Q19_ARMS = (("Brand#1", 15, 1, 15),
            ("Brand#2", 30, 10, 25),
            ("Brand#3", 45, 20, 35))


def q_tpch_q19(sf_dir: str) -> rd.Dataset:
    """TPC-H Q19 discounted revenue under a DISJUNCTION of
    (brand, size, quantity-band) arms, adapted to this part table's
    columns (no p_container; p_size plays its role). The part side is a
    broadcast partkey -> (brand, size) lookup; each block evaluates the
    OR-of-ANDs vectorized and emits one partial row — no shuffle of
    lineitem at all, matching how a disjunctive pred pushes into a
    broadcast join rather than forcing an all-to-all."""
    import ray

    from ..ops.agg import bucketed_groupby, sum_merge

    part = _read(f"{sf_dir}/part.parquet",
                 columns=["p_partkey", "p_brand",
                                    "p_size"]).to_pandas()
    lut = (part.set_index("p_partkey")[["p_brand", "p_size"]])
    pref = ray.put((lut["p_brand"], lut["p_size"].astype(np.int64)))

    li = _read(f"{sf_dir}/lineitem.parquet",
               columns=["l_partkey", "l_quantity",
                                  "l_extendedprice", "l_discount"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        brand_m, size_m = ray.get(pref)
        keys = df["l_partkey"]
        brand = keys.map(brand_m).to_numpy(object)
        size = keys.map(size_m).to_numpy(np.float64)
        qty = df["l_quantity"].to_numpy(np.float64)
        mask = np.zeros(len(df), dtype=bool)
        for b, smax, qlo, qhi in Q19_ARMS:
            mask |= ((brand == b) & (size >= 1) & (size <= smax)
                     & (qty >= qlo) & (qty <= qhi))
        df = df[mask]
        ext_c = np.round(
            df["l_extendedprice"].to_numpy() * 100).astype(np.int64)
        disc_p = np.round(df["l_discount"].to_numpy() * 100).astype(np.int64)
        return (pd.DataFrame({
            "g": np.zeros(len(df), dtype=np.int64),
            "revenue_e4": ext_c * (100 - disc_p),
            "n_lines": np.ones(len(df), dtype=np.int64),
        }).groupby("g", as_index=False, sort=False).sum())

    merged = bucketed_groupby(
        li.map_batches(partial, batch_format="pandas"),
        ["g"], sum_merge(["g"], ["revenue_e4", "n_lines"]))

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return df[["revenue_e4", "n_lines"]]

    return merged.map_batches(finish, batch_format="pandas")


Q7_NATIONS = ("NATION_1", "NATION_2")
Q7_START, Q7_END = "1995-01-01", "1997-01-01"


def q_tpch_q7(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q7 volume shipping between two nations. Distributed shape:
    supplier and nation are driver-tiny broadcasts folded into the
    lineitem scan (suppkey -> supp_nation, rows outside the two nations
    dropped at the scan); orders⋈customer runs through the cost-based
    auto plan; the one mandatory exchange is the orderkey join between
    the pre-aggregated lineitem partials and the dated orders; the
    cross-pair filter and the 2x2xyears rollup finish on the
    vocabulary-sized result. Exact e4 integer money."""
    import pyarrow.parquet as pq
    import ray

    from ..ops.agg import bucketed_groupby, sum_merge
    from ..ops.joins import auto_inner_join, hash_inner_join

    lo, hi = pd.Timestamp(Q7_START), pd.Timestamp(Q7_END)

    nat = pq.read_table(f"{sf_dir}/nation.parquet").to_pandas()
    nname = dict(zip(nat["n_nationkey"].astype(int), nat["n_name"]))
    pair_keys = {k for k, v in nname.items() if v in Q7_NATIONS}
    sup = pq.read_table(f"{sf_dir}/supplier.parquet",
                        columns=["s_suppkey", "s_nationkey"]).to_pandas()
    sup = sup[sup["s_nationkey"].isin(pair_keys)]
    sup_ref = ray.put(dict(zip(sup["s_suppkey"].astype(int),
                               sup["s_nationkey"].astype(int))))
    pair_ref = ray.put(frozenset(pair_keys))

    cust = _read(f"{sf_dir}/customer.parquet",
                 columns=["c_custkey", "c_nationkey"])

    def cust_slim(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["c_nationkey"].isin(ray.get(pair_ref))]
        return pd.DataFrame({
            "o_custkey": df["c_custkey"].to_numpy(np.int64),
            "c_nationkey": df["c_nationkey"].to_numpy(np.int64)})

    orders = _read(f"{sf_dir}/orders.parquet",
                   columns=["o_orderkey", "o_custkey"])

    def okeys(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "l_orderkey": df["o_orderkey"].to_numpy(np.int64),
            "o_custkey": df["o_custkey"].to_numpy(np.int64)})

    ord_cust = auto_inner_join(
        orders.map_batches(okeys, batch_format="pandas"),
        cust.map_batches(cust_slim, batch_format="pandas"), "o_custkey")

    li = _read(f"{sf_dir}/lineitem.parquet",
               columns=["l_orderkey", "l_suppkey", "l_shipdate",
                                  "l_extendedprice", "l_discount"])

    def li_partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df[(df["l_shipdate"] >= lo) & (df["l_shipdate"] < hi)]
        smap = ray.get(sup_ref)
        nk = df["l_suppkey"].map(smap)
        keep = nk.notna().to_numpy()
        df = df[keep]
        ext_c = np.round(
            df["l_extendedprice"].to_numpy() * 100).astype(np.int64)
        disc_p = np.round(df["l_discount"].to_numpy() * 100).astype(np.int64)
        return (pd.DataFrame({
            "l_orderkey": df["l_orderkey"].to_numpy(np.int64),
            "s_nationkey": nk[keep].to_numpy(np.int64),
            "l_year": df["l_shipdate"].dt.year.to_numpy(np.int64),
            "revenue_e4": ext_c * (100 - disc_p),
        }).groupby(["l_orderkey", "s_nationkey", "l_year"],
                   as_index=False, sort=False).sum())

    joined = hash_inner_join(
        li.map_batches(li_partial, batch_format="pandas"), ord_cust,
        "l_orderkey")

    def pair_sum(df: pd.DataFrame) -> pd.DataFrame:
        s = df["s_nationkey"].to_numpy(np.int64)
        c = df["c_nationkey"].to_numpy(np.int64)
        df = df[s != c]                     # the FRANCE/GERMANY cross pair
        return (df[["s_nationkey", "c_nationkey", "l_year", "revenue_e4"]]
                .groupby(["s_nationkey", "c_nationkey", "l_year"],
                         as_index=False, sort=False).sum())

    per_pair = bucketed_groupby(
        joined.map_batches(pair_sum, batch_format="pandas"),
        ["s_nationkey", "c_nationkey", "l_year"],
        sum_merge(["s_nationkey", "c_nationkey", "l_year"],
                  ["revenue_e4"]), buckets=4).to_pandas()
    # 2 nations x 2 directions x years: driver-side finish like Q5/Q10,
    # with explicit dtypes so the empty result keeps its schema (Ray Data
    # erases schemas on fully-empty pandas-origin block chains)
    if per_pair.empty:
        per_pair = pd.DataFrame({"s_nationkey": pd.Series(dtype=np.int64),
                                 "c_nationkey": pd.Series(dtype=np.int64),
                                 "l_year": pd.Series(dtype=np.int64),
                                 "revenue_e4": pd.Series(dtype=np.int64)})
    out = pd.DataFrame({
        "supp_nation": per_pair["s_nationkey"].map(nname).astype("string"),
        "cust_nation": per_pair["c_nationkey"].map(nname).astype("string"),
        "l_year": per_pair["l_year"].astype(np.int64),
        "revenue_e4": per_pair["revenue_e4"].astype(np.int64)})
    return out.sort_values(["supp_nation", "cust_nation", "l_year"],
                           kind="mergesort").reset_index(drop=True)


def q_tpch_q13(sf_dir: str) -> rd.Dataset:
    """TPC-H Q13 customer order-count distribution (filter adapted to
    this data: non-finished orders, o_orderstatus <> 'F', instead of the
    absent o_comment pattern). Shape: per-custkey count partials merge
    once, LEFT join against the customer key scan keeps zero-order
    customers, and the second aggregation runs over the
    count-cardinality-sized result."""
    from ..ops.agg import bucketed_groupby, sum_merge
    from ..ops.joins import hash_inner_join

    cust = _read(f"{sf_dir}/customer.parquet",
                 columns=["c_custkey"])
    orders = _read(f"{sf_dir}/orders.parquet",
                   columns=["o_custkey", "o_orderstatus"])

    def opartial(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["o_orderstatus"] != "F"]
        g = df.groupby("o_custkey", as_index=False, sort=False).agg(
            c_count=("o_orderstatus", "size"))
        return pd.DataFrame({
            "c_custkey": g["o_custkey"].to_numpy(np.int64),
            "c_count": g["c_count"].to_numpy(np.int64)})

    counts = bucketed_groupby(
        orders.map_batches(opartial, batch_format="pandas"),
        ["c_custkey"], sum_merge(["c_custkey"], ["c_count"]))

    withz = hash_inner_join(cust, counts, "c_custkey", how="left")

    def dist_partial(df: pd.DataFrame) -> pd.DataFrame:
        c = np.nan_to_num(
            df["c_count"].to_numpy(np.float64), nan=0.0).astype(np.int64)
        return (pd.DataFrame({"c_count": c,
                              "custdist": np.ones(len(df), np.int64)})
                .groupby("c_count", as_index=False, sort=False).sum())

    return bucketed_groupby(
        withz.map_batches(dist_partial, batch_format="pandas"),
        ["c_count"], sum_merge(["c_count"], ["custdist"]), buckets=4)


Q15_START, Q15_END = "1996-01-01", "1996-04-01"


def q_tpch_q15(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q15 top supplier(s) by quarterly revenue: per-suppkey
    revenue partials merge to a supplier-cardinality table, the scalar
    max and the name attach finish driver-side (supplier is a
    driver-tiny dimension). Exact e4 integer revenue makes the max
    tie-exact, matching the oracle's = (SELECT max(...)) semantics."""
    import pyarrow.parquet as pq

    from ..ops.agg import bucketed_groupby, sum_merge

    lo, hi = pd.Timestamp(Q15_START), pd.Timestamp(Q15_END)
    li = _read(f"{sf_dir}/lineitem.parquet",
               columns=["l_suppkey", "l_shipdate",
                                  "l_extendedprice", "l_discount"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df[(df["l_shipdate"] >= lo) & (df["l_shipdate"] < hi)]
        ext_c = np.round(
            df["l_extendedprice"].to_numpy() * 100).astype(np.int64)
        disc_p = np.round(df["l_discount"].to_numpy() * 100).astype(np.int64)
        return (pd.DataFrame({
            "s_suppkey": df["l_suppkey"].to_numpy(np.int64),
            "total_revenue_e4": ext_c * (100 - disc_p),
        }).groupby("s_suppkey", as_index=False, sort=False).sum())

    rev = bucketed_groupby(
        li.map_batches(partial, batch_format="pandas"),
        ["s_suppkey"], sum_merge(["s_suppkey"], ["total_revenue_e4"]),
        buckets=4).to_pandas()
    if rev.empty:
        return pd.DataFrame({"s_suppkey": pd.Series(dtype=np.int64),
                             "s_name": pd.Series(dtype="string"),
                             "total_revenue_e4": pd.Series(dtype=np.int64)})
    top = rev[rev["total_revenue_e4"] == rev["total_revenue_e4"].max()]
    sup = pq.read_table(f"{sf_dir}/supplier.parquet",
                        columns=["s_suppkey", "s_name"]).to_pandas()
    out = top.merge(sup, on="s_suppkey").sort_values("s_suppkey")
    return (out[["s_suppkey", "s_name", "total_revenue_e4"]]
            .astype({"s_suppkey": np.int64, "s_name": "string",
                     "total_revenue_e4": np.int64})
            .reset_index(drop=True))


Q17_BRAND = "Brand#1"
Q22_RECENT = "1999-01-01"


def q_tpch_q17(sf_dir: str) -> rd.Dataset:
    """TPC-H Q17 small-quantity-order revenue (brand-only predicate;
    this part table has no p_container). Two scans, zero shuffle of
    lineitem rows: pass 1 merges per-part quantity sums/counts for the
    brand's parts (a parts-cardinality table), whose 0.2*avg thresholds
    broadcast into pass 2's filter+sum partials. The correlated
    subquery becomes the classic aggregate-join-back, with the
    threshold comparison cross-multiplied to exact integers
    (5 * qty * n < sum_qty) so no float boundary can flip a row."""
    import pyarrow.parquet as pq
    import ray

    from ..ops.agg import bucketed_groupby, sum_merge

    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_brand"]).to_pandas()
    brand_keys = np.sort(part.loc[part["p_brand"] == Q17_BRAND,
                                  "p_partkey"].to_numpy(np.int64))
    bref = ray.put(brand_keys)

    li = _read(f"{sf_dir}/lineitem.parquet",
               columns=["l_partkey", "l_quantity",
                                  "l_extendedprice"])

    def qty_partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df[np.isin(df["l_partkey"].to_numpy(np.int64),
                        ray.get(bref))]
        qty = df["l_quantity"].to_numpy()
        return (pd.DataFrame({
            "l_partkey": df["l_partkey"].to_numpy(np.int64),
            # floor(x+0.5): DuckDB round-half-away for the positive qty
            "sum_qty5": np.floor(qty * 5 + 0.5).astype(np.int64),
            "n": np.ones(len(df), dtype=np.int64),
        }).groupby("l_partkey", as_index=False, sort=False).sum())

    stats = bucketed_groupby(
        li.map_batches(qty_partial, batch_format="pandas"),
        ["l_partkey"], sum_merge(["l_partkey"], ["sum_qty5", "n"]),
        buckets=4).to_pandas()
    # l_quantity < 0.2 * avg(qty)  <=>  5*qty*n < sum_qty5*n/5*... kept
    # exact as: 25 * qty * n < 5*sum_qty (both sides integers)
    s5 = ray.put(dict(zip(stats["l_partkey"].astype(int),
                          stats["sum_qty5"].astype(int))))
    nn = ray.put(dict(zip(stats["l_partkey"].astype(int),
                          stats["n"].astype(int))))

    def rev_partial(df: pd.DataFrame) -> pd.DataFrame:
        sum5, cnt = ray.get(s5), ray.get(nn)
        keys = df["l_partkey"]
        sq = keys.map(sum5)
        keep = sq.notna().to_numpy()
        df, sq = df[keep], sq[keep].to_numpy(np.int64)
        n = df["l_partkey"].map(cnt).to_numpy(np.int64)
        # mirror the oracle's 25 * round(l_quantity) * n exactly:
        # floor(x + 0.5) == DuckDB round-half-away for positive qty
        qty_r = np.floor(
            df["l_quantity"].to_numpy() + 0.5).astype(np.int64)
        small = 25 * qty_r * n < sq
        ext_c = np.round(
            df.loc[small, "l_extendedprice"].to_numpy() * 100
        ).astype(np.int64)
        return (pd.DataFrame({
            "g": np.zeros(small.sum(), dtype=np.int64),
            "sum_cents": ext_c,
            "n_lines": np.ones(small.sum(), dtype=np.int64),
        }).groupby("g", as_index=False, sort=False).sum())

    merged = bucketed_groupby(
        li.map_batches(rev_partial, batch_format="pandas"),
        ["g"], sum_merge(["g"], ["sum_cents", "n_lines"]), buckets=1)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        out = df[["sum_cents", "n_lines"]].copy()
        out["avg_yearly_cents"] = (
            out["sum_cents"].to_numpy(np.float64) / 7.0)
        return out

    return merged.map_batches(finish, batch_format="pandas")


def q_tpch_q22(sf_dir: str) -> rd.Dataset:
    """TPC-H Q22 global-sales-opportunity (adapted: no c_phone column,
    so the country-code grouping becomes c_nationkey and the 'positive
    balance' reference population is all customers). Shape: one scan
    computes the exact integer (sum_cents, n) of the positive-balance
    average; rich customers filter with the cross-multiplied integer
    comparison cents*n > sum_cents (no float boundary); the no-RECENT-orders
    predicate (every customer here has SOME order, so a date window
    keeps the anti join non-degenerate) is the co-bucketed anti join;
    the nation rollup merges a 25-row result."""
    from ..ops.agg import bucketed_groupby, sum_merge
    from ..ops.joins import hash_anti_join

    cust = _read(f"{sf_dir}/customer.parquet",
                 columns=["c_custkey", "c_nationkey",
                                    "c_acctbal"])

    def cents(df: pd.DataFrame) -> pd.DataFrame:
        c = np.round(df["c_acctbal"].to_numpy() * 100).astype(np.int64)
        return pd.DataFrame({
            "c_custkey": df["c_custkey"].to_numpy(np.int64),
            "c_nationkey": df["c_nationkey"].to_numpy(np.int64),
            "cents": c})

    cust_c = cust.map_batches(cents, batch_format="pandas")

    def avg_partial(df: pd.DataFrame) -> pd.DataFrame:
        pos = df[df["cents"] > 0]
        return pd.DataFrame({
            "g": np.zeros(len(pos), dtype=np.int64),
            "s": pos["cents"].to_numpy(np.int64),
            "n": np.ones(len(pos), dtype=np.int64),
        }).groupby("g", as_index=False, sort=False).sum()

    scal = bucketed_groupby(
        cust_c.map_batches(avg_partial, batch_format="pandas"),
        ["g"], sum_merge(["g"], ["s", "n"]), buckets=1).to_pandas()
    s_tot = int(scal["s"].iloc[0]) if len(scal) else 0
    n_tot = int(scal["n"].iloc[0]) if len(scal) else 1

    def rich_only(df: pd.DataFrame) -> pd.DataFrame:
        return df[df["cents"].to_numpy(np.int64) * n_tot > s_tot]

    rich = cust_c.map_batches(rich_only, batch_format="pandas")

    orders = _read(f"{sf_dir}/orders.parquet",
                   columns=["o_custkey", "o_orderdate"])
    recent = pd.Timestamp(Q22_RECENT)

    def okeys(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["o_orderdate"] >= recent]
        return pd.DataFrame(
            {"c_custkey": np.unique(df["o_custkey"].to_numpy(np.int64))})

    noord = hash_anti_join(rich, orders.map_batches(
        okeys, batch_format="pandas"), "c_custkey")

    def nat_partial(df: pd.DataFrame) -> pd.DataFrame:
        return (pd.DataFrame({
            "c_nationkey": df["c_nationkey"].to_numpy(np.int64),
            "numcust": np.ones(len(df), dtype=np.int64),
            "totacctbal_cents": df["cents"].to_numpy(np.int64),
        }).groupby("c_nationkey", as_index=False, sort=False).sum())

    return bucketed_groupby(
        noord.map_batches(nat_partial, batch_format="pandas"),
        ["c_nationkey"],
        sum_merge(["c_nationkey"], ["numcust", "totacctbal_cents"]),
        buckets=4)


Q8_REGION, Q8_TYPE, Q8_NATION = "ASIA", "ECONOMY", "NATION_5"
Q8_START, Q8_END = "1995-01-01", "1997-01-01"


def q_tpch_q8(sf_dir: str) -> rd.Dataset:
    """TPC-H Q8 national market share (adapted to the flat p_type
    domain): three driver-tiny broadcasts (ECONOMY partkeys, supplier ->
    is-target-nation flag, ASIA customer keys via nation⋈region) fold
    into the scans; lineitem pre-aggregates (orderkey, flag) revenue
    partials before the single orderkey exchange against the dated ASIA
    orders; the year rollup merges a years-sized table. The share is a
    closed float64 ratio of exact e4 integer sums."""
    import pyarrow.parquet as pq
    import ray

    from ..ops.agg import bucketed_groupby, sum_merge
    from ..ops.joins import auto_inner_join, hash_inner_join

    lo, hi = pd.Timestamp(Q8_START), pd.Timestamp(Q8_END)

    nat = pq.read_table(f"{sf_dir}/nation.parquet").to_pandas()
    reg = pq.read_table(f"{sf_dir}/region.parquet").to_pandas()
    asia = nat[nat["n_regionkey"].isin(
        reg.loc[reg["r_name"] == Q8_REGION, "r_regionkey"])]
    asia_ref = ray.put(frozenset(asia["n_nationkey"].astype(int)))
    target_keys = set(nat.loc[nat["n_name"] == Q8_NATION,
                              "n_nationkey"].astype(int))
    sup = pq.read_table(f"{sf_dir}/supplier.parquet",
                        columns=["s_suppkey", "s_nationkey"]).to_pandas()
    sup_flag_ref = ray.put(dict(zip(
        sup["s_suppkey"].astype(int),
        sup["s_nationkey"].astype(int).isin(target_keys))))
    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_type"]).to_pandas()
    econ_ref = ray.put(np.sort(part.loc[part["p_type"] == Q8_TYPE,
                                        "p_partkey"].to_numpy(np.int64)))

    cust = _read(f"{sf_dir}/customer.parquet",
                 columns=["c_custkey", "c_nationkey"])

    def cust_slim(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["c_nationkey"].isin(ray.get(asia_ref))]
        return pd.DataFrame(
            {"o_custkey": df["c_custkey"].to_numpy(np.int64)})

    orders = _read(f"{sf_dir}/orders.parquet",
                   columns=["o_orderkey", "o_custkey",
                                      "o_orderdate"])

    def dated(df: pd.DataFrame) -> pd.DataFrame:
        df = df[(df["o_orderdate"] >= lo) & (df["o_orderdate"] < hi)]
        return pd.DataFrame({
            "l_orderkey": df["o_orderkey"].to_numpy(np.int64),
            "o_custkey": df["o_custkey"].to_numpy(np.int64),
            "o_year": df["o_orderdate"].dt.year.to_numpy(np.int64)})

    ord_cust = auto_inner_join(
        orders.map_batches(dated, batch_format="pandas"),
        cust.map_batches(cust_slim, batch_format="pandas"), "o_custkey")

    li = _read(f"{sf_dir}/lineitem.parquet",
               columns=["l_orderkey", "l_partkey", "l_suppkey",
                                  "l_extendedprice", "l_discount"])

    def li_partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df[np.isin(df["l_partkey"].to_numpy(np.int64),
                        ray.get(econ_ref))]
        flag = df["l_suppkey"].map(ray.get(sup_flag_ref))
        # a suppkey with no supplier row must drop from BOTH sums (the
        # oracle's supplier join excludes it); an unguarded NaN flag
        # would cast to True and inflate the numerator
        keep = flag.notna().to_numpy()
        df, flag = df[keep], flag[keep].astype(bool)
        ext_c = np.round(
            df["l_extendedprice"].to_numpy() * 100).astype(np.int64)
        disc_p = np.round(df["l_discount"].to_numpy() * 100).astype(np.int64)
        rev = ext_c * (100 - disc_p)
        return (pd.DataFrame({
            "l_orderkey": df["l_orderkey"].to_numpy(np.int64),
            "num_e4": np.where(flag.to_numpy(bool), rev, 0),
            "den_e4": rev,
        }).groupby("l_orderkey", as_index=False, sort=False).sum())

    joined = hash_inner_join(
        li.map_batches(li_partial, batch_format="pandas"), ord_cust,
        "l_orderkey")

    def year_sum(df: pd.DataFrame) -> pd.DataFrame:
        return (df[["o_year", "num_e4", "den_e4"]]
                .groupby("o_year", as_index=False, sort=False).sum())

    merged = bucketed_groupby(
        joined.map_batches(year_sum, batch_format="pandas"),
        ["o_year"], sum_merge(["o_year"], ["num_e4", "den_e4"]),
        buckets=2)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        out = df[["o_year", "num_e4", "den_e4"]].copy()
        out["mkt_share"] = (out["num_e4"].to_numpy(np.float64)
                            / out["den_e4"].to_numpy(np.float64))
        return out

    return merged.map_batches(finish, batch_format="pandas")


HIST_BINS = 10


def q_events_histogram(sf_dir: str) -> rd.Dataset:
    """Per-type equi-width histogram of value-cents: the [min, max]
    range comes from a vocabulary-sized min/max partial merge, then the
    broadcast bounds drive a pure binning map + (type, bin) count merge.
    Bin index is the exact integer formula min((c - lo) * B // (hi - lo
    + 1), B - 1) on both sides, so no float boundary can move a row
    between bins; empty bins are absent (GROUP BY semantics)."""
    import ray

    from ..ops.agg import bucketed_groupby

    ev = _read(f"{sf_dir}/events.parquet",
               columns=["event_type", "value"])

    def to_cents(t: pa.Table) -> pa.Table:
        cents = np.floor(
            t["value"].to_numpy(zero_copy_only=False) * 100 + 0.5)
        return pa.table({"event_type": t["event_type"],
                         "cents": pa.array(cents.astype(np.int64))})

    cents_ds = ev.map_batches(to_cents, batch_format="pyarrow")

    def mm_partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("event_type", as_index=False, sort=False).agg(
            lo=("cents", "min"), hi=("cents", "max"))
        return g

    def mm_merge(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("event_type", as_index=False, sort=False).agg(
            lo=("lo", "min"), hi=("hi", "max"))

    bounds = bucketed_groupby(
        cents_ds.map_batches(mm_partial, batch_format="pandas"),
        ["event_type"], mm_merge, buckets=2).to_pandas()
    lo_m = bounds.set_index("event_type")["lo"].astype(np.int64)
    hi_m = bounds.set_index("event_type")["hi"].astype(np.int64)
    bref = ray.put((lo_m, hi_m))

    def bin_partial(df: pd.DataFrame) -> pd.DataFrame:
        lo_s, hi_s = ray.get(bref)
        lo = df["event_type"].map(lo_s).to_numpy(np.int64)
        hi = df["event_type"].map(hi_s).to_numpy(np.int64)
        c = df["cents"].to_numpy(np.int64)
        b = np.minimum((c - lo) * HIST_BINS // (hi - lo + 1),
                       HIST_BINS - 1)
        return (pd.DataFrame({"event_type": df["event_type"],
                              "bin": b.astype(np.int64),
                              "n": np.ones(len(df), np.int64)})
                .groupby(["event_type", "bin"], as_index=False,
                         sort=False).sum())

    from ..ops.agg import sum_merge
    return bucketed_groupby(
        cents_ds.map_batches(bin_partial, batch_format="pandas"),
        ["event_type", "bin"],
        sum_merge(["event_type", "bin"], ["n"]), buckets=4)


def q_alias_fuzzy(sf_dir: str) -> rd.Dataset:
    """Fuzzy (edit-distance-1) alias pairs over the entity vocabulary —
    the typo tier of entity linking below the exact lower() alias match.
    The synthetic labels contain no natural typos, so a deterministic
    perturbation (labels with length % 3 == 0 lose their 2nd character)
    plants them, mirrored exactly in the SQL oracle; the operator under
    test is ``canonicalize.fuzzy_label_pairs`` — deletion-neighborhood
    blocking, one exchange on the deletion variant, exact linear-time
    verify — whose driver-side pair table becomes the Dataset."""
    ents = q_entities(sf_dir).select_columns(["label"])

    def plant(df: pd.DataFrame) -> pd.DataFrame:
        lab = df["label"].astype(str)
        typo = lab[(lab.str.len() % 3 == 0) & (lab.str.len() >= 3)]
        return pd.DataFrame(
            {"label": pd.concat([lab, typo.str[0] + typo.str[2:]],
                                ignore_index=True)})

    return rd.from_arrow(cz.fuzzy_label_pairs(
        ents.map_batches(plant, batch_format="pandas"), col="label"))


def q_doc_logprob(sf_dir: str) -> rd.Dataset:
    """Unigram LM perplexity-filter score per document (CCNet-style
    quality tier): one vocab count shuffle + broadcast logprob table +
    pure scoring map."""
    docs = _read(f"{sf_dir}/documents.parquet",
                 columns=["doc_id", "text"])
    return text_ops.unigram_logprob_score(docs)


def q_events_vrange(sf_dir: str) -> rd.Dataset:
    """Value-based RANGE window frame: per-user sum of value-cents over
    the trailing ONE HOUR of event time (RANGE BETWEEN INTERVAL 1 HOUR
    PRECEDING AND CURRENT ROW — includes equal-timestamp peers, unlike
    the ROWS-frame rolling kinds). Timestamps run as exact int64
    microseconds so the window boundary is integer arithmetic."""
    from ..ops.window import WindowSpec, keyed_window

    ev = _read(f"{sf_dir}/events.parquet",
               columns=["event_id", "user_id", "ts", "value"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return _events_cents_prep(df)

    out = keyed_window(
        ev.map_batches(prep, batch_format="pandas"),
        by="user_id", order=["ts_us", "event_id"],
        specs=[WindowSpec(out="vsum", kind="range_sum", src="cents",
                          param=3_600_000_000)])
    return out.select_columns(["event_id", "user_id", "cents", "vsum"])


def q_collocations(sf_dir: str) -> rd.Dataset:
    """Bigram collocations by PMI over document tokens (phrase
    discovery): two vocab-sized count shuffles + broadcast unigram map +
    distributed PMI finish with the min-count filter applied in place."""
    docs = _read(f"{sf_dir}/documents.parquet",
                 columns=["doc_id", "text"])
    return text_ops.bigram_collocations(docs, min_count=5)


def q_events_transitions(sf_dir: str) -> rd.Dataset:
    """First-order Markov transition estimates over per-user event
    streams: for each (event_type -> next event_type) adjacency under
    the (ts, event_id) total order, the global count and row probability
    P(next | cur). One keyed-window shuffle (lead) + a 25-row transition
    rollup; the probability is a closed float64 ratio of exact counts."""
    from ..ops.agg import bucketed_groupby, sum_merge
    from ..ops.window import WindowSpec, keyed_window

    ev = _read(f"{sf_dir}/events.parquet",
               columns=["event_id", "user_id", "ts",
                                  "event_type"])
    led = keyed_window(
        ev, by="user_id", order=["ts", "event_id"],
        specs=[WindowSpec(out="next_type", kind="lead",
                          src="event_type", param=1)])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["next_type"].notna()]
        g = (df.groupby(["event_type", "next_type"], as_index=False,
                        sort=False).agg(n=("event_id", "size")))
        g["n"] = g["n"].astype(np.int64)
        return g

    merged = bucketed_groupby(
        led.map_batches(partial, batch_format="pandas"),
        ["event_type", "next_type"],
        sum_merge(["event_type", "next_type"], ["n"]),
        buckets=2).to_pandas()
    # vocabulary-sized (|types|^2): the row-probability finish is
    # driver-side like the other tiny rollups
    tot = merged.groupby("event_type")["n"].transform("sum")
    merged["p"] = merged["n"].to_numpy(np.float64) / tot.to_numpy(np.float64)
    out = merged.sort_values(["event_type", "next_type"],
                             kind="mergesort").reset_index(drop=True)
    return rd.from_pandas(out[["event_type", "next_type", "n", "p"]])


SPIKE_BASE = 24          # trailing baseline window (hours), current excluded


def q_events_spikes(sf_dir: str) -> rd.Dataset:
    """Time-series anomaly detection on the hourly event stream: each
    (event_type, hour) count is z-scored against the TRAILING 24-hour
    baseline (current hour excluded — rolling sums of n and n^2 over a
    25-row frame minus the current row, composed from the existing
    window kinds; no new primitive). Rows with at least one prior hour
    and positive baseline variance emit ``z_bp``. Shape: one tiny
    hourly rollup shuffle + one types-keyed window shuffle over the
    types x hours table."""
    from ..ops.agg import bucketed_groupby, sum_merge
    from ..ops.window import WindowSpec, keyed_window

    ev = _read(f"{sf_dir}/events.parquet",
               columns=["event_type", "ts"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(
            hour=df["ts"].dt.floor("h").dt.strftime("%Y-%m-%d %H:00:00"))
        g = df.groupby(["event_type", "hour"], as_index=False,
                       sort=False).agg(n=("ts", "size"))
        g["n"] = g["n"].astype(np.int64)
        return g

    hourly = bucketed_groupby(
        ev.map_batches(partial, batch_format="pandas"),
        ["event_type", "hour"], sum_merge(["event_type", "hour"], ["n"]),
        buckets=2)

    def add_sq(df: pd.DataFrame) -> pd.DataFrame:
        df["n2"] = df["n"].to_numpy(np.int64) ** 2
        return df

    w = keyed_window(
        hourly.map_batches(add_sq, batch_format="pandas"),
        by="event_type", order=["hour"],
        specs=[WindowSpec(out="rn", kind="row_number"),
               WindowSpec(out="r_s", kind="rolling_sum", src="n",
                          param=SPIKE_BASE + 1),
               WindowSpec(out="r_q", kind="rolling_sum", src="n2",
                          param=SPIKE_BASE + 1)])

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        n = df["n"].to_numpy(np.int64)
        prev_s = df["r_s"].to_numpy(np.int64) - n
        prev_q = df["r_q"].to_numpy(np.int64) - n * n
        n_prev = np.minimum(df["rn"].to_numpy(np.int64) - 1, SPIKE_BASE)
        keep = n_prev > 0
        df, n = df[keep], n[keep]
        prev_s, prev_q, n_prev = prev_s[keep], prev_q[keep], n_prev[keep]
        npf = n_prev.astype(np.float64)
        mean = prev_s.astype(np.float64) / npf
        var = (prev_q.astype(np.float64)
               - prev_s.astype(np.float64) * prev_s.astype(np.float64)
               / npf) / npf
        pos = var > 0
        z = np.zeros(len(df))
        z[pos] = (n[pos].astype(np.float64) - mean[pos]) / np.sqrt(var[pos])
        out = pd.DataFrame({
            "event_type": df["event_type"].astype("string"),
            "hour": df["hour"].astype("string"),
            "n": n,
            "z_bp": np.round(z * 10000).astype(np.int64)})
        return out[pos]

    return w.map_batches(finish, batch_format="pandas")


def q_events_wquantiles(sf_dir: str) -> rd.Dataset:
    """Weighted discrete quantiles per event type: value-cents weighted
    by the JSON-extracted props.k (each row counts k times). The weights
    fold into the histogram partials — the shuffle never carries
    expanded rows — pinned against the SQL unnest(range(w)) expansion
    oracle."""
    from ..ops.agg import grouped_weighted_quantile_disc
    from ..ops.jsonops import json_extract_columns

    ev = _read(f"{sf_dir}/events.parquet",
               columns=["event_type", "value", "props"])
    withk = json_extract_columns(ev, "props", {"k": ("$.k", "int64")})

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_type": df["event_type"],
            "cents": np.floor(
                df["value"].to_numpy() * 100 + 0.5).astype(np.int64),
            "w": df["k"].fillna(0).to_numpy(dtype="int64")})

    return grouped_weighted_quantile_disc(
        withk.map_batches(prep, batch_format="pandas"),
        ["event_type"], "cents", "w",
        {"p50_cents": 0.5, "p90_cents": 0.9})


def q_lineitem_skyline(sf_dir: str) -> rd.Dataset:
    """Pareto frontier of lineitem on (price minimized, quantity
    maximized): local per-block skylines prune before the one tiny
    merge — no pairwise comparison stage anywhere, unlike the oracle's
    quadratic NOT EXISTS."""
    from ..ops.agg import skyline_2d

    li = _read(f"{sf_dir}/lineitem.parquet",
               columns=["l_extendedprice", "l_quantity"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "price_cents": np.round(
                df["l_extendedprice"].to_numpy() * 100).astype(np.int64),
            "qty": np.floor(
                df["l_quantity"].to_numpy() + 0.5).astype(np.int64)})

    return skyline_2d(li.map_batches(prep, batch_format="pandas"),
                      "price_cents", "qty")


def q_events_wquantiles_cont(sf_dir: str) -> rd.Dataset:
    """Interpolated weighted quantiles per event type (weights =
    JSON-extracted props.k) — same histogram-partial fold as the
    discrete variant, continuous interpolation off cumulative weights."""
    from ..ops.agg import grouped_weighted_quantile_cont
    from ..ops.jsonops import json_extract_columns

    ev = _read(f"{sf_dir}/events.parquet",
               columns=["event_type", "value", "props"])
    withk = json_extract_columns(ev, "props", {"k": ("$.k", "int64")})

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_type": df["event_type"],
            "cents": np.floor(
                df["value"].to_numpy() * 100 + 0.5).astype(np.int64),
            "w": df["k"].fillna(0).to_numpy(dtype="int64")})

    return grouped_weighted_quantile_cont(
        withk.map_batches(prep, batch_format="pandas"),
        ["event_type"], "cents", "w",
        {"p50_cents": 0.5, "p90_cents": 0.9})


def q_kg_linkpred(sf_dir: str) -> rd.Dataset:
    """Link-prediction scores over the deterministic canonical graph:
    common-neighbor count, neighbor-set Jaccard, Adamic-Adar — the
    wedge-shuffle similarity join (same bound as triangle counting)."""
    from ..ops.graph import link_prediction_scores

    return link_prediction_scores(_canon_edges(sf_dir), min_common=2)


SYS_K, SYS_OFF = 97, 0    # systematic sampling stride and phase


def q_events_systematic(sf_dir: str) -> rd.Dataset:
    """Systematic (every k-th) sampling under a global total order —
    the stratified-in-time cousin of hash sampling: global row numbers
    come from the range-partitioned sample sort, then a pure modulus
    filter keeps every 97th event by (ts, event_id). Deterministic and
    exactly reproducible, unlike random_shuffle-based takes."""
    from ..ops.sort import global_row_number

    ev = _read(f"{sf_dir}/events.parquet",
               columns=["event_id", "ts", "user_id"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_id": df["event_id"].to_numpy(np.int64),
            "ts_us": df["ts"].astype("datetime64[us]").astype(np.int64),
            "user_id": df["user_id"].to_numpy(np.int64)})

    rn = global_row_number(
        ev.map_batches(prep, batch_format="pandas"),
        ["ts_us", "event_id"])

    def pick(df: pd.DataFrame) -> pd.DataFrame:
        keep = (df["rn"].to_numpy(np.int64) % SYS_K) == SYS_OFF
        return df[keep][["event_id", "user_id", "rn"]]

    return rn.map_batches(pick, batch_format="pandas")


# --- adapted TPC-H Q12 / Q21 / Q9 / Q11 ------------------------------------
# The synthetic schema has no l_shipmode / l_commitdate / l_receiptdate /
# partsupp, so each adaptation preserves the ORIGINAL query's distributed
# shape (the part the engine must prove) while substituting available
# columns; the oracle SQL pins the adapted semantics exactly.

Q12_START, Q12_END = "1996-01-01", "1997-01-01"
Q12_HIGH = ("1-URGENT", "2-HIGH")


def q_tpch_q12(sf_dir: str) -> rd.Dataset:
    """TPC-H Q12 shipping-priority line counts, adapted: l_linestatus
    plays the absent l_shipmode's role and the date window runs on
    l_shipdate. Shape: both scans slim to (orderkey, one payload column)
    -> cost-based orderkey equi-join -> conditional-count partials ->
    tiny per-status merge."""
    from ..ops.agg import bucketed_groupby, sum_merge
    from ..ops.joins import auto_inner_join

    lo, hi = pd.Timestamp(Q12_START), pd.Timestamp(Q12_END)
    li = _read(f"{sf_dir}/lineitem.parquet",
               columns=["l_orderkey", "l_linestatus",
                                  "l_shipdate"])

    def lslim(df: pd.DataFrame) -> pd.DataFrame:
        df = df[(df["l_shipdate"] >= lo) & (df["l_shipdate"] < hi)]
        return pd.DataFrame({
            "l_orderkey": df["l_orderkey"].to_numpy(np.int64),
            "l_linestatus": df["l_linestatus"].astype("string")})

    orders = _read(f"{sf_dir}/orders.parquet",
                   columns=["o_orderkey", "o_orderpriority"])

    def oslim(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "l_orderkey": df["o_orderkey"].to_numpy(np.int64),
            "is_high": df["o_orderpriority"].isin(Q12_HIGH).to_numpy(bool)})

    joined = auto_inner_join(
        li.map_batches(lslim, batch_format="pandas"),
        orders.map_batches(oslim, batch_format="pandas"), "l_orderkey")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        is_hi = df["is_high"].to_numpy(bool)
        return (pd.DataFrame({
            "l_linestatus": df["l_linestatus"],
            "high_line_count": is_hi.astype(np.int64),
            "low_line_count": (~is_hi).astype(np.int64),
        }).groupby("l_linestatus", as_index=False, sort=False).sum())

    return bucketed_groupby(
        joined.map_batches(partial, batch_format="pandas"),
        ["l_linestatus"],
        sum_merge(["l_linestatus"], ["high_line_count", "low_line_count"]),
        buckets=2)


Q21_NATION = "NATION_9"


def q_tpch_q21(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q21 suppliers-who-kept-orders-waiting, adapted to this
    schema (no commit/receipt dates): a supplier "kept an order waiting"
    when it is the SOLE supplier with returned ('R') lines on a
    multi-supplier finished ('F') order; numwait counts its R lines.
    The correlated EXISTS / NOT EXISTS pair becomes one orderkey-keyed
    exchange whose merge folds (orderkey, suppkey) partials and applies
    the sole-returner predicate vectorized, then a semi join against the
    F-order scan; the finish (supplier name + nation filter + top-100)
    runs on the supplier-cardinality result with driver-tiny dimension
    broadcasts (reference has no such operator; north-star join family)."""
    import pyarrow.parquet as pq

    from ..ops.agg import bucketed_groupby, sum_merge
    from ..ops.joins import hash_semi_join

    li = _read(f"{sf_dir}/lineitem.parquet",
               columns=["l_orderkey", "l_suppkey",
                                  "l_returnflag"])

    def lpartial(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "l_orderkey": df["l_orderkey"].to_numpy(np.int64),
            "l_suppkey": df["l_suppkey"].to_numpy(np.int64),
            "n_r": (df["l_returnflag"] == "R").to_numpy()
                   .astype(np.int64),
            "n_lines": np.ones(len(df), dtype=np.int64),
        }).groupby(["l_orderkey", "l_suppkey"], as_index=False,
                   sort=False).sum()

    def order_merge(df: pd.DataFrame) -> pd.DataFrame:
        # fold cross-block partials, then the sole-returner predicate:
        # >= 2 distinct suppliers on the order, exactly 1 with R lines
        f = (df.groupby(["l_orderkey", "l_suppkey"], as_index=False,
                        sort=False)[["n_r", "n_lines"]].sum())
        is_r = (f["n_r"].to_numpy(np.int64) > 0)
        per = (pd.DataFrame({
            "l_orderkey": f["l_orderkey"],
            "n_supp": np.ones(len(f), dtype=np.int64),
            "n_ret": is_r.astype(np.int64),
        }).groupby("l_orderkey", as_index=False, sort=False).sum())
        ok = per.loc[(per["n_supp"].to_numpy() >= 2)
                     & (per["n_ret"].to_numpy() == 1), ["l_orderkey"]]
        r = f[is_r].merge(ok, on="l_orderkey")
        return pd.DataFrame({
            "l_orderkey": r["l_orderkey"].to_numpy(np.int64),
            "l_suppkey": r["l_suppkey"].to_numpy(np.int64),
            "numwait": r["n_r"].to_numpy(np.int64)})

    waits = bucketed_groupby(
        li.map_batches(lpartial, batch_format="pandas"),
        ["l_orderkey"], order_merge)

    orders = _read(f"{sf_dir}/orders.parquet",
                   columns=["o_orderkey", "o_orderstatus"])

    def okeys(df: pd.DataFrame) -> pd.DataFrame:
        k = df.loc[df["o_orderstatus"] == "F", "o_orderkey"]
        return pd.DataFrame({"l_orderkey": k.to_numpy(np.int64)})

    kept = hash_semi_join(waits,
                          orders.map_batches(okeys, batch_format="pandas"),
                          "l_orderkey")

    def spartial(df: pd.DataFrame) -> pd.DataFrame:
        return (df[["l_suppkey", "numwait"]]
                .groupby("l_suppkey", as_index=False, sort=False).sum())

    per_supp = bucketed_groupby(
        kept.map_batches(spartial, batch_format="pandas"),
        ["l_suppkey"], sum_merge(["l_suppkey"], ["numwait"]),
        buckets=4).to_pandas()

    sup = pq.read_table(f"{sf_dir}/supplier.parquet",
                        columns=["s_suppkey", "s_name",
                                 "s_nationkey"]).to_pandas()
    nname = _nation_names(sf_dir)
    keep_nk = {k for k, v in nname.items() if v == Q21_NATION}
    sup = sup[sup["s_nationkey"].astype(int).isin(keep_nk)]
    if per_supp.empty:
        per_supp = pd.DataFrame({"l_suppkey": pd.Series(dtype=np.int64),
                                 "numwait": pd.Series(dtype=np.int64)})
    out = per_supp.merge(sup, left_on="l_suppkey", right_on="s_suppkey")
    out = (out[["s_name", "numwait"]]
           .astype({"s_name": "string", "numwait": np.int64})
           .sort_values(["numwait", "s_name"],
                        ascending=[False, True], kind="mergesort")
           .head(100).reset_index(drop=True))
    return out


Q9_NAME_SUBSTR = "red"


def q_tpch_q9(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q9 product-type profit by (nation, year), adapted: with no
    partsupp table, unit cost is 0.1 x p_retailprice, so profit_e4 =
    ext_c*(100-disc_p) - 10*retail_c*qty — exact int64 money. Shape:
    part (name-filtered) and supplier are driver-tiny broadcast lookups
    folded into the lineitem scan; per-(orderkey, nation) pre-aggregated
    partials take the one real exchange against the orders year scan;
    the (nation x year) finish is vocabulary-sized."""
    import pyarrow.parquet as pq
    import ray

    from ..ops.agg import bucketed_groupby, sum_merge
    from ..ops.joins import hash_inner_join

    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_name",
                                  "p_retailprice"]).to_pandas()
    part = part[part["p_name"].str.contains(Q9_NAME_SUBSTR, regex=False)]
    retail_c = pd.Series(
        np.round(part["p_retailprice"].to_numpy() * 100).astype(np.int64),
        index=part["p_partkey"].astype(np.int64))
    sup = pq.read_table(f"{sf_dir}/supplier.parquet",
                        columns=["s_suppkey", "s_nationkey"]).to_pandas()
    smap = pd.Series(sup["s_nationkey"].astype(np.int64).to_numpy(),
                     index=sup["s_suppkey"].astype(np.int64))
    lut_ref = ray.put((retail_c, smap))

    li = _read(f"{sf_dir}/lineitem.parquet",
               columns=["l_orderkey", "l_partkey", "l_suppkey",
                                  "l_quantity", "l_extendedprice",
                                  "l_discount"])

    def lpartial(df: pd.DataFrame) -> pd.DataFrame:
        rc_m, s_m = ray.get(lut_ref)
        rc = df["l_partkey"].map(rc_m)
        # inner-join semantics on BOTH dimensions: an orphan l_suppkey
        # (FK-violating input) must drop like the oracle's JOIN supplier,
        # not map to an INT64_MIN garbage nation key
        keep = (rc.notna() & df["l_suppkey"].map(s_m).notna()).to_numpy()
        df, rc = df[keep], rc[keep]
        ext_c = np.round(
            df["l_extendedprice"].to_numpy() * 100).astype(np.int64)
        disc_p = np.round(df["l_discount"].to_numpy() * 100).astype(np.int64)
        qty = np.round(df["l_quantity"].to_numpy()).astype(np.int64)
        amount = (ext_c * (100 - disc_p)
                  - 10 * rc.to_numpy(np.int64) * qty)
        return (pd.DataFrame({
            "l_orderkey": df["l_orderkey"].to_numpy(np.int64),
            "s_nationkey": df["l_suppkey"].map(s_m).to_numpy(np.int64),
            "amount_e4": amount,
        }).groupby(["l_orderkey", "s_nationkey"], as_index=False,
                   sort=False).sum())

    orders = _read(f"{sf_dir}/orders.parquet",
                   columns=["o_orderkey", "o_orderdate"])

    def oyears(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "l_orderkey": df["o_orderkey"].to_numpy(np.int64),
            "o_year": df["o_orderdate"].dt.year.to_numpy(np.int64)})

    joined = hash_inner_join(
        li.map_batches(lpartial, batch_format="pandas"),
        orders.map_batches(oyears, batch_format="pandas"), "l_orderkey")

    def npartial(df: pd.DataFrame) -> pd.DataFrame:
        return (df[["s_nationkey", "o_year", "amount_e4"]]
                .groupby(["s_nationkey", "o_year"], as_index=False,
                         sort=False).sum())

    per = bucketed_groupby(
        joined.map_batches(npartial, batch_format="pandas"),
        ["s_nationkey", "o_year"],
        sum_merge(["s_nationkey", "o_year"], ["amount_e4"]),
        buckets=4).to_pandas()
    nname = _nation_names(sf_dir)
    if per.empty:
        per = pd.DataFrame({"s_nationkey": pd.Series(dtype=np.int64),
                            "o_year": pd.Series(dtype=np.int64),
                            "amount_e4": pd.Series(dtype=np.int64)})
    out = pd.DataFrame({
        "nation": per["s_nationkey"].map(nname).astype("string"),
        "o_year": per["o_year"].astype(np.int64),
        "profit_e4": per["amount_e4"].astype(np.int64)})
    return (out.sort_values(["nation", "o_year"],
                            ascending=[True, False], kind="mergesort")
            .reset_index(drop=True))


Q11_NUM, Q11_DEN = 11, 10    # keep parts with value > 1.1x the mean value


def q_tpch_q11(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q11 important-stock identification, adapted: per-partkey
    lineitem revenue stands in for the absent partsupp value, and the
    HAVING > (scalar subquery) threshold keeps parts above 1.1x the
    MEAN part value (the original's fixed corpus fraction is degenerate
    on this data's part cardinalities), applied to the part-cardinality
    merged table integer-cross-multiplied — no float threshold. Shape:
    one partkey-keyed partial-sum exchange; the scalar total is an
    aggregate of the ALREADY-MERGED small table, never a second scan of
    lineitem."""
    from ..ops.agg import bucketed_groupby, sum_merge

    li = _read(f"{sf_dir}/lineitem.parquet",
               columns=["l_partkey", "l_extendedprice",
                                  "l_discount"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        ext_c = np.round(
            df["l_extendedprice"].to_numpy() * 100).astype(np.int64)
        disc_p = np.round(df["l_discount"].to_numpy() * 100).astype(np.int64)
        return (pd.DataFrame({
            "l_partkey": df["l_partkey"].to_numpy(np.int64),
            "value_e4": ext_c * (100 - disc_p),
        }).groupby("l_partkey", as_index=False, sort=False).sum())

    per = bucketed_groupby(
        li.map_batches(partial, batch_format="pandas"),
        ["l_partkey"], sum_merge(["l_partkey"], ["value_e4"])).to_pandas()
    if per.empty:
        return pd.DataFrame({"l_partkey": pd.Series(dtype=np.int64),
                             "value_e4": pd.Series(dtype=np.int64)})
    total = int(per["value_e4"].sum())
    keep = per[per["value_e4"].to_numpy(np.int64) * Q11_DEN * len(per)
               > total * Q11_NUM]
    return (keep.astype({"l_partkey": np.int64, "value_e4": np.int64})
            .sort_values(["value_e4", "l_partkey"],
                         ascending=[False, True], kind="mergesort")
            .reset_index(drop=True))


# --- time-weighted average / gap-fill resample / MAD / lift ----------------

def q_events_twa(sf_dir: str) -> rd.Dataset:
    """Per-user TIME-WEIGHTED average event value: each event's cents
    weigh the microseconds until the user's next event (the last event
    weighs 0), twa = sum(cents*dt) / observed span. One keyed-window
    lead shuffle + a user-cardinality sum merge; numerators are exact
    int64 and the single float division runs in the same op order as
    the oracle."""
    from ..ops.agg import bucketed_groupby, sum_merge
    from ..ops.window import WindowSpec, keyed_window

    ev = _read(f"{sf_dir}/events.parquet",
               columns=["event_id", "user_id", "ts", "value"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return _events_cents_prep(df)

    led = keyed_window(
        ev.map_batches(prep, batch_format="pandas"),
        by="user_id", order=["ts_us", "event_id"],
        specs=[WindowSpec(out="nxt", kind="lead", src="ts_us", param=1)])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        nxt = df["nxt"].to_numpy(np.float64)
        ts = df["ts_us"].to_numpy(np.int64)
        dt = np.where(np.isnan(nxt), 0.0, nxt - ts).astype(np.int64)
        return (pd.DataFrame({
            "user_id": df["user_id"].to_numpy(np.int64),
            "wsum": df["cents"].to_numpy(np.int64) * dt,
            "span_us": dt,
        }).groupby("user_id", as_index=False, sort=False).sum())

    merged = bucketed_groupby(
        led.map_batches(partial, batch_format="pandas"),
        ["user_id"], sum_merge(["user_id"], ["wsum", "span_us"]),
        buckets=4)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["span_us"].to_numpy(np.int64) > 0]
        return pd.DataFrame({
            "user_id": df["user_id"].to_numpy(np.int64),
            "span_us": df["span_us"].to_numpy(np.int64),
            "twa": (df["wsum"].to_numpy(np.float64)
                    / df["span_us"].to_numpy(np.float64))})

    return merged.map_batches(finish, batch_format="pandas")


_HOUR_US = 3_600_000_000


def q_events_gapfill(sf_dir: str) -> rd.Dataset:
    """Hourly gap-fill / forward-fill resample per user: the sparse event
    stream densifies to every hour between the user's first and last
    active hour, carrying the latest value-cents forward across silent
    hours (the sparse->dense resample that precedes time-series feature
    extraction). One user-keyed hash exchange (bucketed_groupby on raw
    rows, byte-auto-sized buckets); each bucket densifies ALL its users
    vectorized — last-per-hour via groupby-tail, grids via repeat/arange,
    forward-fill via one searchsorted over a composite (user, hour) int64
    key — never a Python loop over hours or users."""
    from ..ops.agg import bucketed_groupby

    ev = _read(f"{sf_dir}/events.parquet",
               columns=["event_id", "user_id", "ts", "value"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return _events_cents_prep(df)

    def densify(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts_us", "event_id"],
                            kind="mergesort")
        df["h"] = df["ts_us"].to_numpy(np.int64) // _HOUR_US
        last = df.groupby(["user_id", "h"], sort=True,
                          as_index=False).tail(1)
        last = last.sort_values(["user_id", "h"], kind="mergesort")
        uid = last["user_id"].to_numpy(np.int64)
        h = last["h"].to_numpy(np.int64)
        spans = (pd.DataFrame({"user_id": uid, "h0": h, "h1": h})
                 .groupby("user_id", as_index=False, sort=True)
                 .agg(h0=("h0", "min"), h1=("h1", "max")))
        counts = (spans["h1"].to_numpy(np.int64)
                  - spans["h0"].to_numpy(np.int64) + 1)
        g_uid = np.repeat(spans["user_id"].to_numpy(np.int64), counts)
        offs = np.arange(counts.sum(), dtype=np.int64) - np.repeat(
            np.concatenate(([0], np.cumsum(counts)[:-1])), counts)
        g_h = np.repeat(spans["h0"].to_numpy(np.int64), counts) + offs
        # forward fill: predecessor row in `last` under the composite
        # (user, hour) order. Packed key requires 0 <= epoch-hour < 2**20
        # (1970..~2089) and 0 <= user_id < 2**43 (the shift's headroom —
        # a snowflake-style 2**62 id would wrap int64 and break key
        # monotonicity) — out-of-range input would silently corrupt the
        # searchsorted fill, so fail loudly instead.
        if len(h) and not (h.min() >= 0 and h.max() < (1 << 20)
                           and uid.min() >= 0 and uid.max() < (1 << 43)):
            raise ValueError(
                "gapfill packed key out of range: need 0 <= epoch-hour "
                f"< 2**20 and 0 <= user_id < 2**43 (got h in [{h.min()}, "
                f"{h.max()}], uid in [{uid.min()}, {uid.max()}])")
        key_last = (uid << np.int64(20)) | h
        key_grid = (g_uid << np.int64(20)) | g_h
        idx = np.searchsorted(key_last, key_grid, side="right") - 1
        return pd.DataFrame({
            "user_id": g_uid, "h": g_h,
            "cents": last["cents"].to_numpy(np.int64)[idx]})

    return bucketed_groupby(
        ev.map_batches(prep, batch_format="pandas"), ["user_id"], densify)


def q_events_mad(sf_dir: str) -> pd.DataFrame:
    """Median absolute deviation per event_type (the robust dispersion
    gate for outlier-tolerant quality filtering): two grouped exact
    discrete-quantile passes — histogram partials ride both shuffles,
    never raw rows — with the per-type median broadcast between them."""
    import ray

    from ..ops.agg import grouped_quantile_disc

    ev = _read(f"{sf_dir}/events.parquet",
               columns=["event_type", "value"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_type": df["event_type"].astype("string"),
            "cents": np.round(
                df["value"].to_numpy() * 100).astype(np.int64)})

    # materialized: both quantile passes consume it — without this the
    # read + quantize would execute twice
    cents = ev.map_batches(prep, batch_format="pandas").materialize()
    med = grouped_quantile_disc(cents, ["event_type"], "cents",
                                {"med_cents": 0.5}).to_pandas()
    med_ref = ray.put(pd.Series(med["med_cents"].to_numpy(np.int64),
                                index=med["event_type"]))

    def dev(df: pd.DataFrame) -> pd.DataFrame:
        m = df["event_type"].map(ray.get(med_ref)).to_numpy(np.int64)
        return pd.DataFrame({
            "event_type": df["event_type"],
            "adev": np.abs(df["cents"].to_numpy(np.int64) - m)})

    mad = grouped_quantile_disc(
        cents.map_batches(dev, batch_format="pandas"),
        ["event_type"], "adev", {"mad_cents": 0.5}).to_pandas()
    out = med.merge(mad[["event_type", "mad_cents"]], on="event_type")
    return (out[["event_type", "n", "med_cents", "mad_cents"]]
            .astype({"event_type": "string", "n": np.int64,
                     "med_cents": np.int64, "mad_cents": np.int64})
            .sort_values("event_type", kind="mergesort")
            .reset_index(drop=True))


def q_events_lift(sf_dir: str) -> pd.DataFrame:
    """Contingency lift table event_type x hour-of-day: observed cell
    counts vs independence-expected counts and the observed/expected
    lift ratio — the chi-square / market-basket building block. One
    partial-count pass merges to a (types x 24)-sized table; marginals
    and the float finish run on that, with every float op in the same
    order as the oracle (expected = (rc*cc)/N, lift = (o*N)/(rc*cc),
    integer products exact first)."""
    from ..ops.agg import bucketed_groupby, sum_merge

    ev = _read(f"{sf_dir}/events.parquet",
               columns=["event_type", "ts"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return (pd.DataFrame({
            "event_type": df["event_type"].astype("string"),
            "hod": df["ts"].dt.hour.to_numpy(np.int64),
            "observed": np.ones(len(df), dtype=np.int64),
        }).groupby(["event_type", "hod"], as_index=False,
                   sort=False).sum())

    cells = bucketed_groupby(
        ev.map_batches(partial, batch_format="pandas"),
        ["event_type", "hod"],
        sum_merge(["event_type", "hod"], ["observed"]),
        buckets=4).to_pandas()
    if cells.empty:
        return pd.DataFrame({
            "event_type": pd.Series(dtype="string"),
            "hod": pd.Series(dtype=np.int64),
            "observed": pd.Series(dtype=np.int64),
            "expected": pd.Series(dtype=np.float64),
            "lift": pd.Series(dtype=np.float64)})
    o = cells["observed"].to_numpy(np.int64)
    rc = cells.groupby("event_type")["observed"].transform("sum") \
        .to_numpy(np.int64)
    cc = cells.groupby("hod")["observed"].transform("sum") \
        .to_numpy(np.int64)
    n = int(o.sum())
    out = pd.DataFrame({
        "event_type": cells["event_type"].astype("string"),
        "hod": cells["hod"].to_numpy(np.int64),
        "observed": o,
        "expected": (rc * cc).astype(np.float64) / float(n),
        "lift": (o * n).astype(np.float64) / (rc * cc).astype(np.float64)})
    return (out.sort_values(["event_type", "hod"], kind="mergesort")
            .reset_index(drop=True))


def q_events_rollmed(sf_dir: str) -> rd.Dataset:
    """Rolling MEDIAN over the trailing 10 rows per user — the
    order-statistic window kind (robust smoother; unlike the
    sum/mean frames it needs the frame's values, not a running
    aggregate). Same one-shuffle keyed-window shape; even-sized frames
    interpolate (mean of the two middles), matching SQL median() OVER."""
    from ..ops.window import WindowSpec, keyed_window

    ev = _read(f"{sf_dir}/events.parquet",
               columns=["event_id", "user_id", "ts", "value"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return _events_cents_prep(df)

    out = keyed_window(
        ev.map_batches(prep, batch_format="pandas"),
        by="user_id", order=["ts_us", "event_id"],
        specs=[WindowSpec(out="med10", kind="rolling_median",
                          src="cents", param=10)])
    return out.select_columns(["event_id", "user_id", "cents", "med10"])


def q_events_newusers(sf_dir: str) -> pd.DataFrame:
    """Daily ingest dashboard: events per day, NEW users per day (first
    event ever lands on that day) and the cumulative distinct-user
    count — the streaming-ingest acceptance metric. Two distributed
    aggregations (per-day counts; per-user min-day then per-day counts
    of firsts), joined and prefix-summed on the day-cardinality result
    driver-side."""
    from ..ops.agg import bucketed_groupby, sum_merge

    ev = _read(f"{sf_dir}/events.parquet",
               columns=["user_id", "ts"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "user_id": df["user_id"].to_numpy(np.int64),
            "day": df["ts"].dt.strftime("%Y-%m-%d").astype("string")})

    prepped = bucketed_groupby(  # reused twice below; tiny partial rows
        ev.map_batches(prep, batch_format="pandas").map_batches(
            lambda df: df.assign(n_events=np.int64(1))
            .groupby(["user_id", "day"], as_index=False, sort=False)
            .sum(),
            batch_format="pandas"),
        ["user_id", "day"],
        sum_merge(["user_id", "day"], ["n_events"]))

    # per-day event counts (merge the (user, day) partials down)
    daily = bucketed_groupby(
        prepped.map_batches(
            lambda df: df[["day", "n_events"]]
            .groupby("day", as_index=False, sort=False).sum(),
            batch_format="pandas"),
        ["day"], sum_merge(["day"], ["n_events"]), buckets=4).to_pandas()

    # per-user first day (string min == chronological for the fixed
    # format), then new-user counts per day — both distributed
    def first_day(df: pd.DataFrame) -> pd.DataFrame:
        return (df.groupby("user_id", as_index=False, sort=False)
                .agg(day=("day", "min")))

    firsts = bucketed_groupby(
        prepped.map_batches(first_day, batch_format="pandas"),
        ["user_id"],
        lambda df: (df.groupby("user_id", as_index=False, sort=False)
                    .agg(day=("day", "min"))
                    .assign(n_new_users=np.int64(1))))
    new_daily = bucketed_groupby(
        firsts.map_batches(
            lambda df: df[["day", "n_new_users"]]
            .groupby("day", as_index=False, sort=False).sum(),
            batch_format="pandas"),
        ["day"], sum_merge(["day"], ["n_new_users"]),
        buckets=4).to_pandas()

    out = daily.merge(new_daily, on="day", how="left")
    out["n_new_users"] = (out["n_new_users"].fillna(0).astype(np.int64))
    out = out.sort_values("day", kind="mergesort").reset_index(drop=True)
    out["cum_users"] = out["n_new_users"].cumsum().astype(np.int64)
    return (out[["day", "n_events", "n_new_users", "cum_users"]]
            .astype({"day": "string", "n_events": np.int64}))


def q_session_concurrency(sf_dir: str) -> rd.Dataset:
    """Concurrency sweep over gap-sessionized intervals: for every
    session, how many sessions (any user, itself included) are open at
    its start instant — open = started at or before AND not ended
    strictly before. The interval counting problem becomes a +1/-1
    delta stream on packed (time*2 + kind) keys (starts sort before
    ends at the same instant, which IS the inclusive/exclusive
    boundary rule), aggregated per unique key, run through the
    distributed ordered prefix-sum, and joined back to the session
    starts — no all-pairs interval join anywhere."""
    from ..ops.agg import bucketed_groupby, ordered_prefix_sum, sum_merge
    from ..ops.joins import hash_inner_join

    ds = _read(f"{sf_dir}/events.parquet",
               columns=["user_id", "ts"])

    def sessionize(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts"], kind="mergesort")
        gap = df.groupby("user_id", sort=False)["ts"].diff()
        new_s = gap.isna() | (gap > pd.Timedelta(minutes=SESSION_GAP_MIN))
        df = df.assign(session_idx=new_s.groupby(
            df["user_id"], sort=False).cumsum().astype("int64"))
        out = df.groupby(["user_id", "session_idx"], as_index=False).agg(
            start_ts=("ts", "min"), end_ts=("ts", "max"))
        out["start_us"] = (out["start_ts"].astype("datetime64[us]")
                           .astype(np.int64))
        out["end_us"] = (out["end_ts"].astype("datetime64[us]")
                         .astype(np.int64))
        return out[["user_id", "session_idx", "start_us", "end_us"]]

    sessions = bucketed_groupby(ds, ["user_id"], sessionize).materialize()

    def deltas(df: pd.DataFrame) -> pd.DataFrame:
        k = np.concatenate([df["start_us"].to_numpy(np.int64) * 2,
                            df["end_us"].to_numpy(np.int64) * 2 + 1])
        d = np.concatenate([np.ones(len(df), dtype=np.int64),
                            -np.ones(len(df), dtype=np.int64)])
        return (pd.DataFrame({"k": k, "d": d})
                .groupby("k", as_index=False, sort=False).sum())

    net = bucketed_groupby(
        sessions.map_batches(deltas, batch_format="pandas"),
        ["k"], sum_merge(["k"], ["d"]))
    swept = ordered_prefix_sum(net, "k", "d", "concurrency")

    def skeys(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(k=df["start_us"].to_numpy(np.int64) * 2)

    joined = hash_inner_join(
        sessions.map_batches(skeys, batch_format="pandas"),
        swept.select_columns(["k", "concurrency"]), "k")

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "user_id": df["user_id"].to_numpy(np.int64),
            "session_idx": df["session_idx"].to_numpy(np.int64),
            "session_start": pd.to_datetime(
                df["start_us"].to_numpy(np.int64), unit="us")
            .strftime("%Y-%m-%d %H:%M:%S").astype("string"),
            "concurrency": df["concurrency"].to_numpy(np.int64)})

    return joined.map_batches(finish, batch_format="pandas")


def q_vocab_stats(sf_dir: str) -> pd.DataFrame:
    """Corpus vocabulary profile: total tokens, distinct tokens, hapax
    legomena (frequency-1 tokens) and the type-token ratio in basis
    points — the Zipf-shape sanity gate before tokenizer training. One
    vocab-sized count shuffle; the finish folds per-bucket (distinct,
    hapax, total) partials, so no token list ever reaches the driver."""
    from ..ops.agg import bucketed_groupby, sum_merge
    from ..ops.dedup import _block_tokens

    def count_partial(t: pa.Table) -> pa.Table:
        flat, _, _ = _block_tokens(t, "text")
        if not len(flat):
            return pa.table({"token": pa.array([], pa.string()),
                             "cnt": pa.array([], pa.int64())})
        g = (pd.DataFrame({"token": flat.to_numpy(zero_copy_only=False)})
             .groupby("token", as_index=False, sort=False)
             .size().rename(columns={"size": "cnt"}))
        g["cnt"] = g["cnt"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    docs = _read(f"{sf_dir}/documents.parquet",
                 columns=["doc_id", "text"])
    counts = bucketed_groupby(
        docs.map_batches(count_partial, batch_format="pyarrow"),
        ["token"], sum_merge(["token"], ["cnt"]))

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        c = df["cnt"].to_numpy(np.int64)
        return pd.DataFrame({
            "n_tokens": [c.sum()], "n_distinct": [np.int64(len(c))],
            "n_hapax": [np.int64((c == 1).sum())]})

    parts = counts.map_batches(fold, batch_format="pandas").to_pandas()
    n_tok = int(parts["n_tokens"].sum())
    n_dis = int(parts["n_distinct"].sum())
    return pd.DataFrame({
        "n_tokens": pd.array([n_tok], dtype="int64"),
        "n_distinct": pd.array([n_dis], dtype="int64"),
        "n_hapax": pd.array([int(parts["n_hapax"].sum())], dtype="int64"),
        "ttr_bp": pd.array([(10000 * n_dis) // max(n_tok, 1)],
                           dtype="int64")})


def _nation_names(sf_dir: str) -> dict:
    """Driver-tiny nationkey -> n_name lookup shared by the dimension
    finishes (Q9 / Q20 / Q21 and friends)."""
    import pyarrow.parquet as pq

    nat = pq.read_table(f"{sf_dir}/nation.parquet",
                        columns=["n_nationkey", "n_name"]).to_pandas()
    return dict(zip(nat["n_nationkey"].astype(int), nat["n_name"]))


Q2_REGION = "ASIA"


def q_tpch_q2(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q2 minimum-cost supplier per part, adapted: with no
    partsupp, the (part, supplier) cost is the MINIMUM line price the
    pair ever shipped at; parts filter to p_size % 5 = 0 and suppliers
    to region ASIA. The correlated min-subquery becomes ONE
    partkey-keyed exchange whose merge folds (part, supplier) min
    partials and keeps the rows achieving each part's min in place —
    co-location makes the join-back free. Supplier/nation/region are
    driver-tiny broadcasts; final order is the original's
    (acctbal DESC, name, part) top-100."""
    import pyarrow.parquet as pq
    import ray

    from ..ops.agg import bucketed_groupby

    nat = pq.read_table(f"{sf_dir}/nation.parquet").to_pandas()
    reg = pq.read_table(f"{sf_dir}/region.parquet").to_pandas()
    rk = set(reg.loc[reg["r_name"] == Q2_REGION, "r_regionkey"].astype(int))
    nk = set(nat.loc[nat["n_regionkey"].astype(int).isin(rk),
                     "n_nationkey"].astype(int))
    nname = dict(zip(nat["n_nationkey"].astype(int), nat["n_name"]))
    sup = pq.read_table(f"{sf_dir}/supplier.parquet").to_pandas()
    sup = sup[sup["s_nationkey"].astype(int).isin(nk)]
    sup_keys = frozenset(sup["s_suppkey"].astype(int))
    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_size"]).to_pandas()
    fp = frozenset(
        part.loc[part["p_size"].astype(int) % 5 == 0, "p_partkey"]
        .astype(int))
    luts = ray.put((sup_keys, fp))

    li = _read(f"{sf_dir}/lineitem.parquet",
               columns=["l_partkey", "l_suppkey",
                                  "l_extendedprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        sk, pk = ray.get(luts)
        df = df[df["l_partkey"].isin(pk) & df["l_suppkey"].isin(sk)]
        g = pd.DataFrame({
            "l_partkey": df["l_partkey"].to_numpy(np.int64),
            "l_suppkey": df["l_suppkey"].to_numpy(np.int64),
            "cost_c": np.round(
                df["l_extendedprice"].to_numpy() * 100).astype(np.int64),
        }).groupby(["l_partkey", "l_suppkey"], as_index=False,
                   sort=False).min()
        return g

    def min_merge(df: pd.DataFrame) -> pd.DataFrame:
        f = (df.groupby(["l_partkey", "l_suppkey"], as_index=False,
                        sort=False)["cost_c"].min())
        mn = f.groupby("l_partkey")["cost_c"].transform("min")
        return f[f["cost_c"].to_numpy() == mn.to_numpy()]

    best = bucketed_groupby(
        li.map_batches(partial, batch_format="pandas"),
        ["l_partkey"], min_merge).to_pandas()
    if best.empty:
        best = pd.DataFrame({"l_partkey": pd.Series(dtype=np.int64),
                             "l_suppkey": pd.Series(dtype=np.int64),
                             "cost_c": pd.Series(dtype=np.int64)})
    out = best.merge(sup, left_on="l_suppkey", right_on="s_suppkey")
    out = pd.DataFrame({
        "acctbal_cents": np.round(
            out["s_acctbal"].to_numpy(np.float64) * 100).astype(np.int64),
        "s_name": out["s_name"].astype("string"),
        "n_name": out["s_nationkey"].astype(int).map(nname)
        .astype("string"),
        "l_partkey": out["l_partkey"].astype(np.int64),
        "cost_c": out["cost_c"].astype(np.int64)})
    return (out.sort_values(
        ["acctbal_cents", "s_name", "l_partkey"],
        ascending=[False, True, True], kind="mergesort")
        .head(100).reset_index(drop=True))


def q_tpch_q16(sf_dir: str) -> rd.Dataset:
    """TPC-H Q16 supplier-count by part attribute, adapted: group key is
    (p_brand, p_size % 10), excluding Brand#1 parts and a supplier
    blocklist (names ending in '7' — the complaint-regex stand-in),
    counting DISTINCT suppliers per group exactly. Shape: broadcast
    part-attribute + exclusion lookups fold into the lineitem scan's
    distinct-pair partials; grouped_count_distinct's one bucketed
    shuffle finishes."""
    import pyarrow.parquet as pq
    import ray

    from ..ops.agg import grouped_count_distinct

    sup = pq.read_table(f"{sf_dir}/supplier.parquet",
                        columns=["s_suppkey", "s_name"]).to_pandas()
    excl = frozenset(sup.loc[sup["s_name"].str.endswith("7"),
                             "s_suppkey"].astype(int))
    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_brand",
                                  "p_size"]).to_pandas()
    part = part[part["p_brand"] != "Brand#1"]
    brand = pd.Series(part["p_brand"].to_numpy(object),
                      index=part["p_partkey"].astype(np.int64))
    bucket = pd.Series(part["p_size"].astype(np.int64).to_numpy() % 10,
                       index=part["p_partkey"].astype(np.int64))
    luts = ray.put((excl, brand, bucket))

    li = _read(f"{sf_dir}/lineitem.parquet",
               columns=["l_partkey", "l_suppkey"])

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        ex, br, bu = ray.get(luts)
        df = df[~df["l_suppkey"].isin(ex)].drop_duplicates()
        b = df["l_partkey"].map(br)
        keep = b.notna().to_numpy()
        df = df[keep]
        return pd.DataFrame({
            "p_brand": b[keep].astype("string"),
            "size_bucket": df["l_partkey"].map(bu).to_numpy(np.int64),
            "l_suppkey": df["l_suppkey"].to_numpy(np.int64)})

    return grouped_count_distinct(
        li.map_batches(pairs, batch_format="pandas"),
        ["p_brand", "size_bucket"], "l_suppkey", out_col="supplier_cnt")


Q20_SHARE_NUM = 2      # dominate = quantity share > 2x the mean supplier


def q_tpch_q20(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q20 excess-supply suppliers, adapted: a supplier "dominates"
    a red-named part when its shipped quantity exceeds 2x the part's
    mean per-supplier quantity (the partsupp availqty > 0.5*shipped
    threshold has no stand-in here); output = every dominating supplier
    with how many parts it dominates. The nested per-part aggregate +
    join-back runs inside ONE partkey-keyed merge (co-located), then a
    supplier-cardinality count; names attach from the driver-tiny
    dimension, ordered by name like the original."""
    import pyarrow.parquet as pq
    import ray

    from ..ops.agg import bucketed_groupby, sum_merge

    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_name"]).to_pandas()
    red = frozenset(
        part.loc[part["p_name"].str.contains("red", regex=False),
                 "p_partkey"].astype(int))
    red_ref = ray.put(red)

    li = _read(f"{sf_dir}/lineitem.parquet",
               columns=["l_partkey", "l_suppkey", "l_quantity"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["l_partkey"].isin(ray.get(red_ref))]
        return (pd.DataFrame({
            "l_partkey": df["l_partkey"].to_numpy(np.int64),
            "l_suppkey": df["l_suppkey"].to_numpy(np.int64),
            "q": np.round(df["l_quantity"].to_numpy()).astype(np.int64),
        }).groupby(["l_partkey", "l_suppkey"], as_index=False,
                   sort=False).sum())

    def dominate(df: pd.DataFrame) -> pd.DataFrame:
        f = (df.groupby(["l_partkey", "l_suppkey"], as_index=False,
                        sort=False)["q"].sum())
        tq = f.groupby("l_partkey")["q"].transform("sum").to_numpy(np.int64)
        ns = f.groupby("l_partkey")["q"].transform("size") \
            .to_numpy(np.int64)
        keep = f["q"].to_numpy(np.int64) * ns > Q20_SHARE_NUM * tq
        out = f[keep]
        return pd.DataFrame({
            "l_suppkey": out["l_suppkey"].to_numpy(np.int64),
            "n_parts": np.ones(keep.sum(), dtype=np.int64)})

    dom = bucketed_groupby(
        li.map_batches(partial, batch_format="pandas"),
        ["l_partkey"], dominate)
    per_supp = bucketed_groupby(
        dom, ["l_suppkey"], sum_merge(["l_suppkey"], ["n_parts"]),
        buckets=4).to_pandas()
    if per_supp.empty:
        per_supp = pd.DataFrame({"l_suppkey": pd.Series(dtype=np.int64),
                                 "n_parts": pd.Series(dtype=np.int64)})
    sup = pq.read_table(f"{sf_dir}/supplier.parquet",
                        columns=["s_suppkey", "s_name",
                                 "s_nationkey"]).to_pandas()
    nname = _nation_names(sf_dir)
    out = per_supp.merge(sup, left_on="l_suppkey", right_on="s_suppkey")
    out = pd.DataFrame({
        "s_name": out["s_name"].astype("string"),
        "n_name": out["s_nationkey"].astype(int).map(nname)
        .astype("string"),
        "n_parts": out["n_parts"].astype(np.int64)})
    return (out.sort_values("s_name", kind="mergesort")
            .reset_index(drop=True))


def _events_cents_prep(df: pd.DataFrame,
                       cols: tuple = ("event_id", "user_id", "ts_us",
                                      "cents")) -> pd.DataFrame:
    """Shared events quantization: the oracle-pinned cents (round half
    to even on exact 2-decimal inputs) and int64 microsecond timestamps.
    One definition so every query keeps the identical convention."""
    out = {}
    if "event_id" in cols:
        out["event_id"] = df["event_id"].to_numpy(np.int64)
    if "user_id" in cols:
        out["user_id"] = df["user_id"].to_numpy(np.int64)
    if "event_type" in cols:
        out["event_type"] = df["event_type"].astype("string")
    if "ts_us" in cols:
        out["ts_us"] = df["ts"].astype("datetime64[us]").astype(np.int64)
    if "cents" in cols:
        out["cents"] = np.round(
            df["value"].to_numpy() * 100).astype(np.int64)
    return pd.DataFrame(out)


def _ntile_from_rank(r0: np.ndarray, n: int, k: int) -> np.ndarray:
    """SQL NTILE(k) from 0-based global ranks: the first n % k tiles get
    ceil(n / k) rows. Shared by the global equi-depth binning and the
    RFM quintile scorer so the closed formula lives once."""
    base, big = n // k, n % k
    cut = big * (base + 1)
    return (np.where(r0 < cut,
                     r0 // max(base + 1, 1),
                     big + (r0 - cut) // max(base, 1)) + 1).astype(np.int64)


EQUIDEPTH_K = 16


def q_events_equidepth(sf_dir: str) -> "rd.Dataset | pd.DataFrame":
    """GLOBAL equi-depth binning — NTILE(16) over the corpus-wide
    (value, id) total order, the histogram-equalization / feature-
    bucketize step. Ranks come from the range-partitioned sample sort
    (one all-to-all); the tile stamp is the closed NTILE formula over
    the broadcast row count, so no second pass."""
    from ..ops.sort import global_row_number

    ev = _read(f"{sf_dir}/events.parquet",
               columns=["event_id", "value"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return _events_cents_prep(df, cols=("event_id", "cents"))

    rn = global_row_number(
        ev.map_batches(prep, batch_format="pandas"),
        ["cents", "event_id"]).materialize()
    n = rn.count()

    def tile(df: pd.DataFrame) -> pd.DataFrame:
        r0 = df["rn"].to_numpy(np.int64) - 1       # 0-based rank
        return pd.DataFrame({
            "event_id": df["event_id"].to_numpy(np.int64),
            "cents": df["cents"].to_numpy(np.int64),
            "bucket": _ntile_from_rank(r0, n, EQUIDEPTH_K)})

    if n == 0:      # typed empty: same 3-column schema as the full path
        # (a DataFrame, not a Dataset — Ray's to_pandas drops the schema
        # of a fully-empty dataset even when its blocks are Arrow)
        return pd.DataFrame({"event_id": pd.Series(dtype=np.int64),
                             "cents": pd.Series(dtype=np.int64),
                             "bucket": pd.Series(dtype=np.int64)})
    return rn.map_batches(tile, batch_format="pandas")


EMBED_Q = 1_000_000          # element quantization: 1e-6 units


def q_embed_centroids(sf_dir: str) -> rd.Dataset:
    """Per-label embedding centroids (nearest-centroid classification /
    cluster-summary primitive) over the list<float> column: elements
    quantize to exact int64 1e-6 units so the per-(label, dim) sums are
    order-independent, then ONE (label x dim)-sized shuffle and a
    single float division — bit-identical to the SQL oracle. The
    per-block partial is a numpy stack + one matmul-free add.reduce,
    never a Python loop over vectors."""
    from ..ops.agg import bucketed_groupby, sum_merge

    emb = _read(f"{sf_dir}/embeddings.parquet",
                columns=["label", "embedding"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({
                "label": pd.Series(dtype=np.int64),
                "dim": pd.Series(dtype=np.int64),
                "s": pd.Series(dtype=np.int64),
                "n": pd.Series(dtype=np.int64)})
        mat = np.stack(df["embedding"].to_numpy())      # (rows, d) f32
        q = np.round(mat.astype(np.float64) * EMBED_Q).astype(np.int64)
        lab = df["label"].to_numpy(np.int64)
        d = q.shape[1]
        g = (pd.DataFrame({"label": np.repeat(lab, d),
                           "dim": np.tile(np.arange(1, d + 1,
                                                    dtype=np.int64),
                                          len(lab)),
                           "s": q.ravel(),
                           "n": np.ones(len(lab) * d, dtype=np.int64)})
             .groupby(["label", "dim"], as_index=False, sort=False).sum())
        return g

    merged = bucketed_groupby(
        emb.map_batches(partial, batch_format="pandas"),
        ["label", "dim"], sum_merge(["label", "dim"], ["s", "n"]),
        buckets=4)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "label": df["label"].to_numpy(np.int64),
            "dim": df["dim"].to_numpy(np.int64),
            "n": df["n"].to_numpy(np.int64),
            "mean_q": (df["s"].to_numpy(np.float64)
                       / df["n"].to_numpy(np.float64))})

    return merged.map_batches(finish, batch_format="pandas")


RFM_K = 5


def _ntile_scores(keys: np.ndarray, tiebreak: np.ndarray,
                  k: int) -> np.ndarray:
    """SQL NTILE(k) OVER (ORDER BY keys DESC, tiebreak ASC) — the first
    n%k tiles get ceil(n/k) rows. Vectorized argsort + closed formula."""
    n = len(keys)
    order = np.lexsort((tiebreak, -keys))
    r0 = np.empty(n, dtype=np.int64)
    r0[order] = np.arange(n, dtype=np.int64)
    return _ntile_from_rank(r0, n, k)


def q_orders_rfm(sf_dir: str) -> pd.DataFrame:
    """RFM customer scoring (recency / frequency / monetary quintiles —
    the classic audience-segmentation aggregate): one custkey-keyed
    partial-sum exchange builds the per-customer (last order day, order
    count, lifetime cents); the three NTILE(5) scores finish on the
    customer-cardinality result (at 100-TB customer counts each score
    routes through the range sort instead — same closed NTILE
    formula)."""
    from ..ops.agg import bucketed_groupby

    orders = _read(f"{sf_dir}/orders.parquet",
                   columns=["o_custkey", "o_orderdate",
                                      "o_totalprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return (pd.DataFrame({
            "c_custkey": df["o_custkey"].to_numpy(np.int64),
            "recency_day": (df["o_orderdate"].astype("datetime64[us]")
                            .astype(np.int64) // 86_400_000_000),
            "frequency": np.ones(len(df), dtype=np.int64),
            "monetary_cents": np.round(
                df["o_totalprice"].to_numpy() * 100).astype(np.int64),
        }).groupby("c_custkey", as_index=False, sort=False)
            .agg(recency_day=("recency_day", "max"),
                 frequency=("frequency", "sum"),
                 monetary_cents=("monetary_cents", "sum")))

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        return (df.groupby("c_custkey", as_index=False, sort=False)
                .agg(recency_day=("recency_day", "max"),
                     frequency=("frequency", "sum"),
                     monetary_cents=("monetary_cents", "sum")))

    per = bucketed_groupby(
        orders.map_batches(partial, batch_format="pandas"),
        ["c_custkey"], merge).to_pandas()
    if per.empty:
        return pd.DataFrame({c: pd.Series(dtype=np.int64) for c in (
            "c_custkey", "recency_day", "frequency", "monetary_cents",
            "r_score", "f_score", "m_score")})
    ck = per["c_custkey"].to_numpy(np.int64)
    out = pd.DataFrame({
        "c_custkey": ck,
        "recency_day": per["recency_day"].to_numpy(np.int64),
        "frequency": per["frequency"].to_numpy(np.int64),
        "monetary_cents": per["monetary_cents"].to_numpy(np.int64)})
    out["r_score"] = _ntile_scores(out["recency_day"].to_numpy(), ck,
                                   RFM_K)
    out["f_score"] = _ntile_scores(out["frequency"].to_numpy(), ck,
                                   RFM_K)
    out["m_score"] = _ntile_scores(out["monetary_cents"].to_numpy(), ck,
                                   RFM_K)
    return (out.sort_values("c_custkey", kind="mergesort")
            .reset_index(drop=True))


IMPUTE_SENTINEL_CENTS = 200     # value < 2.00 is treated as missing


def q_events_impute(sf_dir: str) -> rd.Dataset:
    """Missing-value imputation (the data-prep fill step): values below
    the sentinel threshold count as missing and are filled with their
    event_type's mean of the OBSERVED values (exact int64 sums, floor
    division — order-independent and SQL-identical). Two passes: a
    type-cardinality moments shuffle, then the broadcast fill map."""
    import ray

    from ..ops.agg import bucketed_groupby, sum_merge

    ev = _read(f"{sf_dir}/events.parquet",
               columns=["event_id", "event_type", "value"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return _events_cents_prep(df,
                                  cols=("event_id", "event_type",
                                        "cents"))

    cents = ev.map_batches(prep, batch_format="pandas").materialize()

    def mpartial(df: pd.DataFrame) -> pd.DataFrame:
        ok = df[df["cents"].to_numpy(np.int64) >= IMPUTE_SENTINEL_CENTS]
        return (pd.DataFrame({
            "event_type": ok["event_type"],
            "s": ok["cents"].to_numpy(np.int64),
            "n": np.ones(len(ok), dtype=np.int64),
        }).groupby("event_type", as_index=False, sort=False).sum())

    means = bucketed_groupby(
        cents.map_batches(mpartial, batch_format="pandas"),
        ["event_type"], sum_merge(["event_type"], ["s", "n"]),
        buckets=2).to_pandas()
    fill = pd.Series(
        means["s"].to_numpy(np.int64)
        // np.maximum(means["n"].to_numpy(np.int64), 1),
        index=means["event_type"])
    fill_ref = ray.put(fill)

    def impute(df: pd.DataFrame) -> pd.DataFrame:
        c = df["cents"].to_numpy(np.int64)
        miss = c < IMPUTE_SENTINEL_CENTS
        # a type with ZERO observed values has no fill row; the oracle
        # computes 0 // greatest(0,1) = 0 for it, and a bare int64 cast
        # of the NaN lookup would silently produce INT64_MIN
        f = (df["event_type"].map(ray.get(fill_ref))
             .fillna(0).to_numpy(np.int64))
        return pd.DataFrame({
            "event_id": df["event_id"].to_numpy(np.int64),
            "event_type": df["event_type"],
            "is_imputed": miss,
            "cents_filled": np.where(miss, f, c).astype(np.int64)})

    return cents.map_batches(impute, batch_format="pandas")


RULES_MIN_BOTH = 5


def q_basket_rules(sf_dir: str) -> pd.DataFrame:
    """Association rules over (user, day) baskets of distinct event
    types: for every ordered pair a -> b with co-occurrence >=
    RULES_MIN_BOTH, the co-count, antecedent count, support and
    confidence in integer basis points — the market-basket statistic.
    One basket-keyed exchange whose merge emits, per partition, pair
    counts + antecedent counts + a basket-total row in a single tagged
    frame (complete baskets are co-located INSIDE the merge — a
    map_batches after the exchange could split a basket across batches,
    which is why the emission lives in the merge); a vocabulary^2-sized
    sum shuffle and an integer-bp driver finish follow."""
    from ..ops.agg import bucketed_groupby, sum_merge

    ev = _read(f"{sf_dir}/events.parquet",
               columns=["user_id", "ts", "event_type"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return (pd.DataFrame({
            "basket": df["user_id"].astype(str) + "|"
            + df["ts"].dt.strftime("%Y-%m-%d"),
            "event_type": df["event_type"].astype("string")})
            .drop_duplicates())

    def basket_merge(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates()
        j = df.merge(df, on="basket")
        j = j[j["event_type_x"] != j["event_type_y"]]
        pair = (j.assign(n=np.int64(1))
                .groupby(["event_type_x", "event_type_y"],
                         as_index=False, sort=False)["n"].sum()
                .rename(columns={"event_type_x": "a",
                                 "event_type_y": "b"}))
        pair["kind"] = np.int64(0)
        ant = (df.assign(n=np.int64(1))
               .groupby("event_type", as_index=False, sort=False)["n"]
               .sum().rename(columns={"event_type": "a"}))
        ant["b"] = ""
        ant["kind"] = np.int64(1)
        tot = pd.DataFrame({"a": [""], "b": [""], "kind": [np.int64(2)],
                            "n": [np.int64(df["basket"].nunique())]})
        # kind is the OUT-OF-BAND row tag (0 pair / 1 antecedent /
        # 2 total): an event_type that IS the empty string stays an
        # ordinary value instead of colliding with an in-band sentinel
        out = pd.concat([pair, ant, tot], ignore_index=True)
        out["a"] = out["a"].astype("string")
        out["b"] = out["b"].astype("string")
        out["n"] = out["n"].astype(np.int64)
        return out[["kind", "a", "b", "n"]]

    tagged = bucketed_groupby(
        ev.map_batches(prep, batch_format="pandas"),
        ["basket"], basket_merge)
    counts = bucketed_groupby(
        tagged, ["kind", "a", "b"],
        sum_merge(["kind", "a", "b"], ["n"]),
        buckets=2).to_pandas()

    if counts.empty:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in (
            ("antecedent", "string"), ("consequent", "string"),
            ("n_both", np.int64), ("n_a", np.int64),
            ("support_bp", np.int64), ("conf_bp", np.int64))})
    is_tot = counts["kind"].to_numpy(np.int64) == 2
    is_ant = counts["kind"].to_numpy(np.int64) == 1
    n_baskets = int(counts.loc[is_tot, "n"].sum())
    ant_map = dict(zip(counts.loc[is_ant, "a"],
                       counts.loc[is_ant, "n"].astype(np.int64)))
    pair = counts[~is_tot & ~is_ant]
    pair = pair[pair["n"].to_numpy(np.int64) >= RULES_MIN_BOTH]
    n_a = pair["a"].map(ant_map).to_numpy(np.int64)
    res = pd.DataFrame({
        "antecedent": pair["a"].astype("string"),
        "consequent": pair["b"].astype("string"),
        "n_both": pair["n"].astype(np.int64),
        "n_a": n_a,
        "support_bp": (10000 * pair["n"].to_numpy(np.int64))
        // max(n_baskets, 1),
        "conf_bp": (10000 * pair["n"].to_numpy(np.int64)) // n_a})
    return (res.sort_values(["antecedent", "consequent"],
                            kind="mergesort").reset_index(drop=True))


FK_BROADCAST_MAX_PARENT = 5_000_000   # keys; ~40 MB of int64 broadcast


def q_fk_audit(sf_dir: str) -> pd.DataFrame:
    """Referential-integrity audit (the ingest data-quality gate): for
    each declared FK relationship, how many child rows and how many
    orphans (keys absent from the parent). Cost-based per check: a
    parent under the broadcast bound ships as a key set folded into ONE
    map pass over the child (no exchange at all); a larger parent takes
    the distinct-key partial pass + co-bucketed anti join — the same
    broadcast-vs-shuffle split the join family exposes."""
    import pyarrow.parquet as pq
    import ray

    from ..ops.agg import bucketed_groupby, sum_merge
    from ..ops.joins import hash_anti_join

    checks = []

    def count_orphans(child_path: str, child_key: str,
                      parent_path: str, parent_key: str) -> tuple:
        child = _read(child_path, columns=[child_key])
        n_parent = pq.ParquetFile(parent_path).metadata.num_rows
        if n_parent <= FK_BROADCAST_MAX_PARENT:
            keys = pq.read_table(parent_path, columns=[parent_key])
            kref = ray.put(frozenset(
                keys[parent_key].to_numpy(zero_copy_only=False)
                .astype(np.int64).tolist()))

            def mark(df: pd.DataFrame) -> pd.DataFrame:
                orphan = ~df[child_key].isin(ray.get(kref))
                return pd.DataFrame({
                    "n": [np.int64(len(df))],
                    "o": [np.int64(orphan.sum())]})

            agg = (child.map_batches(mark, batch_format="pandas")
                   .to_pandas())
            return int(agg["n"].sum()), int(agg["o"].sum())

        ck = child.map_batches(
            lambda df, c=child_key: pd.DataFrame(
                {"k": df[c].to_numpy(np.int64),
                 "n": np.ones(len(df), dtype=np.int64)})
            .groupby("k", as_index=False, sort=False).sum(),
            batch_format="pandas")
        counts = bucketed_groupby(
            ck, ["k"], sum_merge(["k"], ["n"])).materialize()
        pk = _read(parent_path, columns=[parent_key])             .map_batches(
            lambda df, c=parent_key: pd.DataFrame(
                {"k": np.unique(df[c].to_numpy(np.int64))}),
            batch_format="pandas")
        orphans = hash_anti_join(counts, pk, "k").to_pandas()
        total = counts.to_pandas()
        return (int(total["n"].sum()),
                int(orphans["n"].sum()) if len(orphans) else 0)

    n, o = count_orphans(f"{sf_dir}/lineitem.parquet", "l_orderkey",
                         f"{sf_dir}/orders.parquet", "o_orderkey")
    checks.append(("lineitem.l_orderkey->orders", n, o))
    n, o = count_orphans(f"{sf_dir}/orders.parquet", "o_custkey",
                         f"{sf_dir}/customer.parquet", "c_custkey")
    checks.append(("orders.o_custkey->customer", n, o))
    n, o = count_orphans(f"{sf_dir}/supplier.parquet", "s_nationkey",
                         f"{sf_dir}/nation.parquet", "n_nationkey")
    checks.append(("supplier.s_nationkey->nation", n, o))

    return pd.DataFrame({
        "relationship": pd.array([c[0] for c in checks], dtype="string"),
        "n_child_rows": pd.array([c[1] for c in checks], dtype="int64"),
        "n_orphans": pd.array([c[2] for c in checks], dtype="int64")})


def q_events_drift(sf_dir: str) -> pd.DataFrame:
    """Distribution-drift detector between the first and second half of
    event time (the silent-upstream-change alarm): per event_type, each
    half's count and share, and the absolute share drift in basis
    points. One partial-count pass keyed (type, half); shares and drift
    finish on the vocabulary-sized table with integer bp math."""
    from ..ops.agg import bucketed_groupby, sum_merge

    ev = _read(f"{sf_dir}/events.parquet",
               columns=["event_type", "ts"]).materialize()
    from ray.data.aggregate import Max, Min
    stats = ev.aggregate(Min("ts"), Max("ts"))
    lo, hi = stats["min(ts)"], stats["max(ts)"]
    if lo is None:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in (
            ("event_type", "string"), ("n_first", np.int64),
            ("n_second", np.int64), ("share_first_bp", np.int64),
            ("share_second_bp", np.int64), ("drift_bp", np.int64))})
    lo_us = pd.Timestamp(lo).value // 1000
    hi_us = pd.Timestamp(hi).value // 1000
    mid_us = (lo_us + hi_us) // 2

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        us = df["ts"].astype("datetime64[us]").astype(np.int64)
        first = us <= mid_us
        return (pd.DataFrame({
            "event_type": df["event_type"].astype("string"),
            "n_first": first.astype(np.int64),
            "n_second": (~first).astype(np.int64),
        }).groupby("event_type", as_index=False, sort=False).sum())

    per = bucketed_groupby(
        ev.map_batches(partial, batch_format="pandas"),
        ["event_type"],
        sum_merge(["event_type"], ["n_first", "n_second"]),
        buckets=2).to_pandas()
    t1 = max(int(per["n_first"].sum()), 1)
    t2 = max(int(per["n_second"].sum()), 1)
    s1 = (10000 * per["n_first"].to_numpy(np.int64)) // t1
    s2 = (10000 * per["n_second"].to_numpy(np.int64)) // t2
    out = pd.DataFrame({
        "event_type": per["event_type"].astype("string"),
        "n_first": per["n_first"].astype(np.int64),
        "n_second": per["n_second"].astype(np.int64),
        "share_first_bp": s1, "share_second_bp": s2,
        "drift_bp": np.abs(s1 - s2)})
    return (out.sort_values("event_type", kind="mergesort")
            .reset_index(drop=True))


MOBILITY_K = 10


def q_user_mobility(sf_dir: str) -> pd.DataFrame:
    """Rank-mobility transition matrix: users are deciled by total
    value-cents in the FIRST half of event time and again in the
    second; output counts every (decile_1 -> decile_2) transition for
    users active in both halves — the churn/upgrade migration table.
    One user-keyed partial-sum exchange carries both halves' sums; the
    decile stamps reuse the shared NTILE formula on the user-cardinality
    result (range-sort at 100-TB user counts, like RFM)."""
    from ray.data.aggregate import Max, Min

    from ..ops.agg import bucketed_groupby, sum_merge

    ev = _read(f"{sf_dir}/events.parquet",
               columns=["user_id", "ts", "value"]).materialize()
    stats = ev.aggregate(Min("ts"), Max("ts"))
    lo, hi = stats["min(ts)"], stats["max(ts)"]
    if lo is None:
        return pd.DataFrame({c: pd.Series(dtype=np.int64) for c in (
            "decile_1", "decile_2", "n_users")})
    lo_us = pd.Timestamp(lo).value // 1000
    hi_us = pd.Timestamp(hi).value // 1000
    mid_us = (lo_us + hi_us) // 2

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        us = df["ts"].astype("datetime64[us]").astype(np.int64)
        cents = np.round(df["value"].to_numpy() * 100).astype(np.int64)
        first = us <= mid_us
        return (pd.DataFrame({
            "user_id": df["user_id"].to_numpy(np.int64),
            "c1": np.where(first, cents, 0),
            "n1": first.astype(np.int64),
            "c2": np.where(first, 0, cents),
            "n2": (~first).astype(np.int64),
        }).groupby("user_id", as_index=False, sort=False).sum())

    per = bucketed_groupby(
        ev.map_batches(partial, batch_format="pandas"),
        ["user_id"],
        sum_merge(["user_id"], ["c1", "n1", "c2", "n2"])).to_pandas()
    per = per[(per["n1"].to_numpy(np.int64) > 0)
              & (per["n2"].to_numpy(np.int64) > 0)]
    if per.empty:
        return pd.DataFrame({c: pd.Series(dtype=np.int64) for c in (
            "decile_1", "decile_2", "n_users")})
    n = len(per)
    uid = per["user_id"].to_numpy(np.int64)

    def decile(totals: np.ndarray) -> np.ndarray:
        order = np.lexsort((uid, -totals))
        r0 = np.empty(n, dtype=np.int64)
        r0[order] = np.arange(n, dtype=np.int64)
        return _ntile_from_rank(r0, n, MOBILITY_K)

    out = (pd.DataFrame({
        "decile_1": decile(per["c1"].to_numpy(np.int64)),
        "decile_2": decile(per["c2"].to_numpy(np.int64)),
        "n_users": np.ones(n, dtype=np.int64)})
        .groupby(["decile_1", "decile_2"], as_index=False, sort=True)
        .sum())
    return out.astype(np.int64).reset_index(drop=True)


TIMEBAND_US = 86_400_000_000      # 24 h pairing window


def q_events_timeband(sf_dir: str) -> rd.Dataset:
    """Time-band pair ENUMERATION join: every (error, click) pair of the
    same user where the click lands within 24 h AFTER the error — the
    generalization of the as-of join that keeps ALL matches in the
    window, not just the nearest (attribution / co-occurrence mining).
    One user-keyed exchange; inside each merge both sides sort once and
    two searchsorted passes bound every error's click range, with the
    pair expansion a vectorized repeat/arange flatten — cost is
    O(n log n + output), never an n^2 cross join."""
    from ..ops.agg import bucketed_groupby

    ev = _read(f"{sf_dir}/events.parquet",
               columns=["event_id", "user_id", "ts",
                                  "event_type"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["event_type"].isin(("error", "click"))]
        return pd.DataFrame({
            "event_id": df["event_id"].to_numpy(np.int64),
            "user_id": df["user_id"].to_numpy(np.int64),
            "ts_us": df["ts"].astype("datetime64[us]").astype(np.int64),
            "is_err": (df["event_type"] == "error").to_numpy()})

    def band_merge(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            "error_id": pd.Series(dtype=np.int64),
            "click_id": pd.Series(dtype=np.int64),
            "user_id": pd.Series(dtype=np.int64),
            "dt_us": pd.Series(dtype=np.int64)})
        err = df[df["is_err"]]
        clk = df[~df["is_err"]]
        if err.empty or clk.empty:
            return empty
        # one composite sort each: (user, ts, id) packs into the same
        # searchsorted domain because user partitions the key space
        clk = clk.sort_values(["user_id", "ts_us", "event_id"],
                              kind="mergesort")
        cu = clk["user_id"].to_numpy(np.int64)
        ct = clk["ts_us"].to_numpy(np.int64)
        eu = err["user_id"].to_numpy(np.int64)
        et = err["ts_us"].to_numpy(np.int64)
        # composite key = local_user_rank * stride + ts_offset, with the
        # stride the exact observed span + band + 1 — overflow-safe for
        # any raw user_id (a fixed bit-shift would overflow at 2^10
        # users) as long as users_per_bucket * stride < 2^63, i.e.
        # millions of users per bucket on a month-long span
        t0 = min(ct.min(), et.min())
        stride = (max(ct.max(), et.max()) - t0) + TIMEBAND_US + 1
        uniq = np.unique(np.concatenate([cu, eu]))
        # check in Python ints — a numpy int64 product silently wraps
        # (4M users x a month-long stride goes negative), which would
        # let wrapped packed keys produce wrong join pairs
        if len(uniq) * int(stride) >= 2**63:
            raise OverflowError(
                "time-band key space exceeds int64: shrink the bucket "
                "(more exchange partitions) or the time span")
        ck = np.searchsorted(uniq, cu) * stride + (ct - t0)
        ek = np.searchsorted(uniq, eu) * stride + (et - t0)
        lo = np.searchsorted(ck, ek, "left")
        hi = np.searchsorted(ck, ek + TIMEBAND_US, "right")
        counts = hi - lo
        if counts.sum() == 0:
            return empty
        e_idx = np.repeat(np.arange(len(err)), counts)
        offs = np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(
            np.concatenate(([0], np.cumsum(counts)[:-1])), counts)
        c_idx = np.repeat(lo, counts) + offs
        return pd.DataFrame({
            "error_id": err["event_id"].to_numpy(np.int64)[e_idx],
            "click_id": clk["event_id"].to_numpy(np.int64)[c_idx],
            "user_id": eu[e_idx],
            "dt_us": ct[c_idx] - et[e_idx]})

    return bucketed_groupby(
        ev.map_batches(prep, batch_format="pandas"),
        ["user_id"], band_merge)


def q_transcript_roles(sf_dir: str) -> pd.DataFrame:
    """Per-role conversation statistics over the transcript shape (the
    input_hint's role column): turns, distinct conversations, total and
    mean chars — the conversation-corpus census. One role-keyed partial
    pass (role cardinality is tiny); distinct convs per role fold as
    per-block sets bounded by conv vocabulary."""
    from ..ops.agg import bucketed_groupby
    from ..sources import transcripts as src

    ts = src.transcripts_from_documents(sf_dir)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = (pd.DataFrame({
            "role": df["role"].astype("string"),
            "conv_id": df["conv_id"].astype("string"),
            "n_turns": np.ones(len(df), dtype=np.int64),
            "total_chars": df["text"].str.len().fillna(0)
            .to_numpy(np.int64),
        }).groupby(["role", "conv_id"], as_index=False, sort=False)
            .sum())
        return g

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        f = (df.groupby(["role", "conv_id"], as_index=False, sort=False)
             [["n_turns", "total_chars"]].sum())
        out = (f.assign(n_convs=np.int64(1))
               .groupby("role", as_index=False, sort=False)
               .agg(n_turns=("n_turns", "sum"),
                    n_convs=("n_convs", "sum"),
                    total_chars=("total_chars", "sum")))
        return out

    per = bucketed_groupby(
        ts.map_batches(partial, batch_format="pandas"),
        ["role"], merge, buckets=2).to_pandas()
    if per.empty:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in (
            ("role", "string"), ("n_turns", np.int64),
            ("n_convs", np.int64), ("total_chars", np.int64),
            ("mean_chars_e2", np.int64))})
    out = pd.DataFrame({
        "role": per["role"].astype("string"),
        "n_turns": per["n_turns"].astype(np.int64),
        "n_convs": per["n_convs"].astype(np.int64),
        "total_chars": per["total_chars"].astype(np.int64),
        "mean_chars_e2": (100 * per["total_chars"].to_numpy(np.int64))
        // np.maximum(per["n_turns"].to_numpy(np.int64), 1)})
    return (out.sort_values("role", kind="mergesort")
            .reset_index(drop=True))


def q_kg_relation_census(sf_dir: str) -> pd.DataFrame:
    """Relation-type census of the canonical graph — the KG schema
    health report: per predicate, edge count, total mention weight,
    distinct subjects and objects (fan-out shape). Predicate cardinality
    is vocabulary-sized, so one pass of partials over the canonical
    edge table folds driver-side."""
    edges = _canon_edges(sf_dir)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return (df.groupby("pred", as_index=False, sort=False)
                .agg(n_edges=("weight", "size"),
                     total_weight=("weight", "sum"),
                     srcs=("canonical_src", lambda s: set(s)),
                     dsts=("canonical_dst", lambda s: set(s))))

    parts = edges.map_batches(partial,
                              batch_format="pandas").to_pandas()
    if parts.empty:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in (
            ("pred", "string"), ("n_edges", np.int64),
            ("total_weight", np.int64), ("n_src", np.int64),
            ("n_dst", np.int64))})
    rows = []
    for pred, g in parts.groupby("pred", sort=True):
        rows.append({
            "pred": pred,
            "n_edges": int(g["n_edges"].sum()),
            "total_weight": int(g["total_weight"].sum()),
            "n_src": len(set().union(*g["srcs"])),
            "n_dst": len(set().union(*g["dsts"]))})
    out = pd.DataFrame(rows)
    return out.astype({"pred": "string", "n_edges": np.int64,
                       "total_weight": np.int64, "n_src": np.int64,
                       "n_dst": np.int64})
