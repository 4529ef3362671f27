"""Pipeline configuration.

Replaces the reference's env-var settings surface (reference: config.py:7-25)
with one dataclass. Limits that are semantic (entity cap, window size) mirror
the reference's constants; limits that are physical (partition and bucket
counts, the broadcast cap) are sized for a 32-CPU node and meant to be
overridden per cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class KGConfig:
    # --- semantics ---------------------------------------------------------
    # Extraction backend: "rules" (deterministic oracle) or "llm" (HTTP
    # client per partition task, validate -> rules fallback, reference:
    # services.py:85-115). Both run the same exchange plan.
    backend: str = "rules"
    # Window size in characters for windowed extraction mode; the reference
    # truncates LLM input at 2000 chars (services.py:375). 0 = whole
    # conversation in one unit (the oracle-parity mode: the reference's rule
    # path sees the full accumulated text).
    window_chars: int = 0
    # Version = extraction over turns with turn_idx <= version_cutoff
    # (reference append-and-reextract semantics, main.py:231-259).
    # None = all turns.
    version: int = 1
    version_cutoff: int | None = None

    # --- physical ----------------------------------------------------------
    num_partitions: int = 64          # output/commit granularity; hash(conv_id)
    alias_salt_buckets: int = 16      # salted partial-agg fan-out for hot keys
    broadcast_vocab_cap: int = 1_000_000  # max unclustered norms in the
    # rewrite broadcast; the long tail uses identity canonical hashing
    partition_bytes_warn: int = 2 << 30   # one partition materializes as one
    # worker-resident frame; warn when its input exceeds this (raise
    # num_partitions with data volume — P must scale ~ bytes / 1 GiB)
    # Straggler mitigation: when True, a cheap pre-pass counts rows per
    # base partition and any partition holding > skew_split_threshold x the
    # mean fans out into enough sub-partitions to bring each back to ~mean
    # (hashing.effective_pids). The split map persists with the version so
    # resume, fingerprints and point lookups share the layout.
    auto_split_skew: bool = False
    skew_split_threshold: float = 4.0
    # Incremental cross-version update (round-3 VERDICT #2): when building
    # version K, partitions whose CURRENT input fingerprint equals the one
    # recorded by the latest prior committed version are LINKED (its
    # version-free data files hard-linked, plus a new manifest — no data
    # read, no re-assembly, no re-extraction) instead of recomputed. The
    # reference's update endpoint re-extracts one document
    # (main.py:202-285); at 10^12 turns re-running unchanged conversations
    # for version K+1 wastes the cluster. Requires an identical partition
    # layout (num_partitions + skew-split map) and extraction config
    # between the versions; anything else recomputes. Only consulted when
    # run_kg_job(resume=True).
    reuse_prior_version: bool = True
    max_nodes_per_unit: int = 1000    # validation caps, reference services.py:143-149
    max_edges_per_unit: int = 2000

    # --- llm backend knobs (mirrors reference config.py:13-25) -------------
    llm_base_url: str = ""            # e.g. "http://localhost:11434"; empty
    # = no HTTP client (deterministic fake / rules only)
    llm_model: str = "deterministic-fake"
    llm_timeout_s: float = 120.0
    llm_max_chars: int = 2000
    # Protocol chain, comma-separated, tried in order per text unit — the
    # reference's USE_OPENAI/USE_OLLAMA fallback chain (openai -> ollama ->
    # rules, services.py:85-115). "openai" speaks chat-completions;
    # "openai,ollama" probes the hosted protocol first, then the local one.
    llm_provider: str = "ollama"
    llm_api_key: str = ""             # reference OPENAI_API_KEY, config.py:21
    llm_openai_base_url: str = ""     # chat-completions endpoint; defaults
    # to llm_base_url when unset (single-endpoint deployments)
    # Entity-linking scorer (stage A4): a sentence-transformers-compatible
    # model name, loaded in each band-wave verify task that has pairs to
    # score; empty = deterministic hash embeddings. Tests inject
    # extra["embed_model_loader"] instead.
    embed_model: str = ""
    extra: dict = field(default_factory=dict)
