"""Arrow schemas for every table that crosses a stage boundary.

The engine is columnar end-to-end: transcripts in, graph tables out, with
Arrow blocks in the Ray object store in between. The reference's relational
tables (documents/versions/nodes/edges, reference: models.py:7-92) map onto
the parquet schemas below; the transcript input shape comes from the target
spec (conv_id, turn_idx, role, text, tool, ts).
"""

from __future__ import annotations

import pyarrow as pa

# Input: one row per conversation turn.
TRANSCRIPTS = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("role", pa.string()),
        ("text", pa.string()),
        ("tool", pa.string()),
        ("ts", pa.timestamp("us")),
    ]
)

# Intermediate: one row per assembled conversation (or window of one).
CONVERSATIONS = pa.schema(
    [
        ("conv_id", pa.string()),
        ("window_id", pa.int32()),      # 0 for whole-conversation mode
        ("text", pa.string()),
        ("n_turns", pa.int32()),
        ("partition_id", pa.int32()),   # hash(conv_id) % num_partitions
    ]
)

# Graph nodes: reference models.py:49-68 plus engine columns.
NODES = pa.schema(
    [
        ("conv_id", pa.string()),
        ("node_id", pa.string()),        # "n1".."n15", per-conversation
        ("label", pa.string()),          # surface form
        ("node_type", pa.string()),
        ("version", pa.int32()),         # read-time stamp, not stored
        ("partition_id", pa.int32()),
    ]
)

# Graph edges == (subj, pred, obj) triples: reference models.py:71-92.
EDGES = pa.schema(
    [
        ("conv_id", pa.string()),
        ("edge_id", pa.string()),        # content hash of (conv_id, triple),
                                         # without the version
        ("src_node_id", pa.string()),
        ("dst_node_id", pa.string()),
        ("subj", pa.string()),           # surface forms, for P/R vs reference
        ("pred", pa.string()),
        ("obj", pa.string()),
        ("version", pa.int32()),         # read-time stamp, not stored
        ("partition_id", pa.int32()),
    ]
)

# Canonicalization: normalized surface form -> canonical entity.
ALIASES = pa.schema(
    [
        ("norm", pa.string()),           # normalization key (lower+strip)
        ("canonical_label", pa.string()),# most frequent surface form
        ("canonical_id", pa.string()),   # stable hash of cluster key
        ("n_mentions", pa.int64()),
    ]
)

# Canonical (deduplicated) edge table for the global graph view.
CANONICAL_EDGES = pa.schema(
    [
        ("canonical_src", pa.string()),
        ("pred", pa.string()),
        ("canonical_dst", pa.string()),
        ("src_label", pa.string()),
        ("dst_label", pa.string()),
        ("weight", pa.int64()),          # number of supporting extractions
        ("version", pa.int32()),
    ]
)

# Per-partition lineage manifest row (also serialized as JSON next to the
# partition's parquet output).
MANIFEST = pa.schema(
    [
        ("partition_id", pa.int32()),
        ("version", pa.int32()),
        ("input_fingerprint", pa.string()),  # sha256 over (conv_id,turn_idx,len) stream
        ("n_conversations", pa.int64()),
        ("n_turns", pa.int64()),
        ("n_nodes", pa.int64()),
        ("n_edges", pa.int64()),
        ("wall_time_s", pa.float64()),
    ]
)
