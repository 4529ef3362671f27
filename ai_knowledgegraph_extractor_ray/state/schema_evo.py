"""Lake schema evolution: read-time harmonization across engine versions.

The reference evolves its store with Alembic migrations (reference:
alembic/versions/60875d8d58f2_initial_migration_create_tables.py) — an
in-place DDL rewrite of one mutable database. A parquet lake cannot (and
should not) rewrite committed ``version=K`` partitions: a partition written
by engine v1 (say, edges without a ``confidence`` column) must stay
byte-identical for lineage/resume, while a reader unioning it with v2
partitions (edges WITH ``confidence``) still needs one coherent schema.

The lake answer is schema-on-read:

* every partition manifest records a ``schema_sig`` per table (name:type
  lines, hashed) — readers and audits can detect mixed-schema version
  ranges without opening a single data file;
* ``union_schema`` folds the observed schemas into one target — added
  columns survive, same-name numeric columns widen (int32+int64 -> int64,
  int+float -> float64), anything non-widenable raises loudly (a column
  that changed string -> int between engine versions is a migration bug,
  not something to paper over);
* ``harmonize`` maps each dataset onto the target schema with typed-null
  fill for missing columns — zero-copy for already-conforming blocks'
  columns, streaming (one ``map_batches``, no shuffle, no driver
  materialization), so it composes with any downstream operator at any
  scale.
"""

from __future__ import annotations

import hashlib

import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd


def schema_sig(schema: pa.Schema) -> str:
    """Stable signature of a table schema: sha256 over sorted
    ``name:type`` lines, truncated. Field ORDER does not change the sig
    (parquet column order is storage detail); a name or type change
    does."""
    lines = sorted(f"{f.name}:{f.type}" for f in schema)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _widen(a: pa.DataType, b: pa.DataType) -> pa.DataType:
    """The common type two same-name columns harmonize to, or raise."""
    if a.equals(b):
        return a
    num_rank = {pa.int8(): 0, pa.int16(): 1, pa.int32(): 2, pa.int64(): 3}
    flt = {pa.float32(), pa.float64()}
    if a in num_rank and b in num_rank:
        return a if num_rank[a] >= num_rank[b] else b
    if (a in flt or a in num_rank) and (b in flt or b in num_rank):
        return pa.float64()
    if pa.types.is_null(a):
        return b
    if pa.types.is_null(b):
        return a
    raise ValueError(
        f"schema evolution cannot reconcile types {a} vs {b}: only "
        "numeric widening is schema-on-read-safe; a column that changed "
        "kind between engine versions needs an explicit migration rewrite")


def union_schema(schemas: list[pa.Schema]) -> pa.Schema:
    """Fold observed per-version schemas into one read schema: first-seen
    field order, missing-in-some columns kept, same-name types widened
    (or a loud error — see ``_widen``)."""
    if not schemas:
        raise ValueError("union_schema: no schemas")
    fields: dict[str, pa.DataType] = {}
    for s in schemas:
        for f in s:
            if f.name in fields:
                fields[f.name] = _widen(fields[f.name], f.type)
            else:
                fields[f.name] = f.type
    return pa.schema([pa.field(n, t) for n, t in fields.items()])


def harmonize(ds: rd.Dataset, target: pa.Schema) -> rd.Dataset:
    """Map a dataset onto ``target``: missing columns become typed nulls,
    numeric columns cast to the widened type, output column order is the
    target's. Streaming — one stateless ``map_batches``; conforming
    columns pass through zero-copy."""
    names = [f.name for f in target]
    types = {f.name: f.type for f in target}

    def fix(t: pa.Table) -> pa.Table:
        cols = []
        for n in names:
            if n in t.column_names:
                col = t.column(n)
                if not col.type.equals(types[n]):
                    col = pc.cast(col, types[n])
            else:
                col = pa.nulls(len(t), types[n])
            cols.append(col)
        return pa.table(cols, names=names)

    return ds.map_batches(fix, batch_format="pyarrow")


def read_harmonized(file_groups: list[list[str]]) -> rd.Dataset:
    """Read several parquet file groups written by (possibly) different
    engine versions as ONE dataset under the union schema. Schemas are
    taken from EVERY file's parquet footer (metadata-only — no data
    read), not just one file per group: a version whose own partitions
    were written by two engine versions (a mid-job upgrade — exactly
    what the manifest ``schema_sig`` audit flags) must contribute every
    column it holds, or the late-written columns would silently vanish
    from the "harmonized" read."""
    import pyarrow.parquet as pq

    groups = [g for g in file_groups if g]
    if not groups:
        raise ValueError("read_harmonized: no input files")
    return union_harmonized([rd.read_parquet(g) for g in groups],
                            [pq.read_schema(f) for g in groups for f in g])


def union_harmonized(parts: list[rd.Dataset],
                     schemas: list[pa.Schema]) -> rd.Dataset:
    """Union ``parts`` under ``union_schema(schemas)`` — the schemas every
    part's rows were written with."""
    target = union_schema(schemas)
    parts = [harmonize(ds, target) for ds in parts]
    return parts[0].union(*parts[1:]) if len(parts) > 1 else parts[0]
