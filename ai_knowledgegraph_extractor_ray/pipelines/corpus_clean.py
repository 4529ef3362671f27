"""Composed training-data cleaning pipeline: the corpus operators chained
the way a pretraining-data job would run them, as ONE streaming Dataset
pipeline with the cheap filters first.

    raw documents
      -> validate_texts        (drop empty / oversized — vectorized filter)
      -> exact_dedup           (uniform content-hash shuffle)
      -> near_dedup_minhash    (LSH blocking; broadcast drop list)
      -> quality_score filter  (Gopher-style threshold)
      -> lang allowlist filter (marker-vocabulary language ID)
      -> surviving documents + a per-stage row-count report

Stage order is the cost ladder: each stage only pays for rows the cheaper
stages kept. Counting is done with per-block partials folded into the
stage transforms (no extra passes over the data beyond the stages
themselves — each ``count()`` consumes the stage's lazy prefix once, and
stages downstream reuse the already-deduped dataset).
"""

from __future__ import annotations

import ray.data as rd

from ..ops import dedup, text


def clean_corpus(
    docs: rd.Dataset, *, text_col: str = "text", id_col: str = "doc_id",
    near_threshold: float = 0.8, min_quality: float = 0.3,
    allowed_langs: tuple[str, ...] = ("en", "fr", "es", "de", "zh"),
    report: bool = True,
) -> tuple[rd.Dataset, dict]:
    """Returns (cleaned Dataset, per-stage report of surviving row counts).

    ``report=False`` skips the per-stage counting passes and their
    stage-boundary materializations (each count is a full extra execution
    of its lazy prefix — roughly half the pipeline's dataset executions at
    small scale); only the materialize the near-dedup pass genuinely needs
    (its input is scanned twice) remains."""
    stats: dict[str, int] = {}
    if report:
        stats["input"] = docs.count()

    ds = text.validate_texts(docs, text_col=text_col)
    if report:
        # materialize before counting: the count() would otherwise execute
        # the validate stage once and exact_dedup would re-execute it
        ds = ds.materialize()
        stats["after_validate"] = ds.count()

    # always materialized: near-dedup scans its input twice (slim band pass
    # + hot-bucket text pass)
    ds = dedup.exact_dedup(ds, text_col=text_col, id_col=id_col).materialize()
    if report:
        stats["after_exact_dedup"] = ds.count()

    ds = dedup.near_dedup_minhash(ds, text_col=text_col, id_col=id_col,
                                  threshold=near_threshold)
    if report:
        ds = ds.materialize()
        stats["after_near_dedup"] = ds.count()

    import pyarrow as pa
    import pyarrow.compute as pc

    ds = text.lang_id(text.quality_score(ds, text_col=text_col),
                      text_col=text_col)
    lang_set = pa.array(list(allowed_langs), pa.string())

    def keep(t: pa.Table) -> pa.Table:
        ok = pc.and_(
            pc.greater_equal(t["quality"], min_quality),
            pc.is_in(t["lang_guess"], value_set=lang_set))
        return t.filter(ok)

    ds = ds.map_batches(keep, batch_format="pyarrow")
    if report:
        ds = ds.materialize()
        stats["after_quality_lang"] = ds.count()

    return ds, stats


def prepare_training_data(
    train: rd.Dataset, test: rd.Dataset, *,
    text_col: str = "text", id_col: str = "doc_id",
    near_threshold: float = 0.5, min_quality: float = 0.2,
    allowed_langs: tuple[str, ...] = ("en", "fr", "es", "de", "zh"),
    ngram: int = 3, budget: int = 2000,
) -> rd.Dataset:
    """The full training-data preparation pipeline, composed end to end:

        clean_corpus (validate -> exact dedup -> near dedup -> quality/lang)
          -> decontaminate vs the test/benchmark set (broadcast gram set)
          -> token counts -> ordered prefix-sum -> sequence-pack assignment

    One row per surviving document: (doc_id, lang_guess, quality_bp,
    n_tokens, prefix_tokens, pack_id). Every stage is the already-proven
    corpus operator; the composition adds no new shuffle beyond the
    stages' own (the prefix-sum's range exchange is the only ordered
    pass, and it moves (id, count, lang, quality) slim rows — text is
    dropped before the scan)."""
    import numpy as np
    import pyarrow as pa

    from ..ops.agg import ordered_prefix_sum
    from ..ops.text import token_stats

    cleaned, _ = clean_corpus(
        train, text_col=text_col, id_col=id_col,
        near_threshold=near_threshold, min_quality=min_quality,
        allowed_langs=allowed_langs, report=False)
    survivors = dedup.decontaminate(cleaned, test, text_col=text_col,
                                    id_col=id_col, ngram=ngram)
    slim = token_stats(survivors, text_col=text_col).select_columns(
        [id_col, "lang_guess", "quality", "n_tokens"])
    scanned = ordered_prefix_sum(slim, id_col, "n_tokens",
                                 out_col="prefix_tokens")

    def fmt(t: pa.Table) -> pa.Table:
        prefix = t["prefix_tokens"].to_numpy(zero_copy_only=False)
        ntok = t["n_tokens"].to_numpy(zero_copy_only=False)
        bp = np.round(t["quality"].to_numpy(zero_copy_only=False) * 10000)
        return pa.table({
            id_col: t[id_col],
            "lang_guess": t["lang_guess"],
            "quality_bp": pa.array(bp.astype(np.int64)),
            "n_tokens": t["n_tokens"].cast(pa.int64()),
            "prefix_tokens": pa.array(prefix.astype(np.int64)),
            "pack_id": pa.array(
                np.floor_divide(prefix - ntok, budget).astype(np.int64)),
        })

    return scanned.map_batches(fmt, batch_format="pyarrow")
