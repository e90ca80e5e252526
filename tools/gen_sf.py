"""Deterministic sf scale-up: replicate the driver's sf0.1 testdata
K-fold with consistent key shifts, so the heavy-tier pipelines can run
in the HIGH-BLOCK-COUNT regime that sf0.1 never reaches naturally
(VERDICT r4 item 1: the sort-exchange fan-in cliff class only appears
there, and this is the closest single-node proxy for the 100x
multi-node claim).

Construction (pure function of the input tables -- no RNG):

- Every fact/dim key column is shifted by ``replica * SPAN`` with the
  SAME span on both sides of each join (o_orderkey/l_orderkey,
  o_custkey/c_custkey, ...), so each replica joins exactly within
  itself and join selectivities are preserved verbatim at 10x the rows.
- ``nation``/``region`` stay single-copy (dimension catalogs; the
  int32 nationkeys are NOT shifted anywhere).
- ``documents.text`` is decorrelated per replica by salting every
  other word with a replica tag: a 9-byte shingle window almost always
  spans a salted word, so replicas are NOT near-duplicates of each
  other and the near-dup pipelines see 10x the docs at the original
  duplicate rate (the right regime for scaling measurements), while
  doc_id-bounded verify tiers see replica 0 = the original bytes.
- Timestamps, amounts, and categorical values are unchanged; replica
  0 is byte-identical to the source for every table.

Each replica lands in its own parquet file per table, giving Ray
~K read blocks per table before SplitBlocks -- the point of the
exercise.

Usage: python tools/gen_sf.py [factor] [src_dir] [out_dir]
Library: ensure_scaled_sf(factor=10) -> out_dir (cached on content key)
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

SRC_DEFAULT = "/root/testdata/sf0.1"
OUT_ROOT = "/tmp/p2pdds_bench"

#: per-table key shifts; spans deliberately match across join columns
SHIFTS: dict[str, dict[str, int]] = {
    "orders": {"o_orderkey": 100_000_000, "o_custkey": 10_000_000},
    "lineitem": {"l_orderkey": 100_000_000, "l_partkey": 10_000_000,
                 "l_suppkey": 1_000_000},
    "customer": {"c_custkey": 10_000_000},
    "supplier": {"s_suppkey": 1_000_000},
    "part": {"p_partkey": 10_000_000},
    "events": {"event_id": 100_000_000, "user_id": 10_000_000},
    "documents": {"doc_id": 1_000_000},
    "embeddings": {"vec_id": 1_000_000},
}
SINGLE_COPY = ("nation", "region")


def _salt_texts(texts: pa.Array, r: int) -> pa.Array:
    """Append a replica tag to every other word (to word 0 of a document
    with fewer than two words): byte 9-shingles almost always span a
    salted word, so replicas are not near-dups."""
    salt = f"x{r}"
    out = []
    for s in texts.to_pylist():
        w = s.split(" ")
        salted = slice(1, None, 2) if len(w) > 1 else slice(0, 1)
        w[salted] = [x + salt for x in w[salted]]
        out.append(" ".join(w))
    return pa.array(out, type=pa.string())


def _replica(table: pa.Table, name: str, r: int) -> pa.Table:
    if r == 0:
        return table
    cols = {}
    shifts = SHIFTS.get(name, {})
    for field in table.schema:
        col = table[field.name]
        if field.name in shifts:
            arr = col.to_numpy(zero_copy_only=False).astype(np.int64)
            assert int(arr.max()) < shifts[field.name], (
                name, field.name, "key span too small")
            cols[field.name] = pa.array(arr + r * shifts[field.name],
                                        type=pa.int64())
        elif name == "documents" and field.name == "text":
            cols[field.name] = _salt_texts(col.combine_chunks(), r)
        else:
            cols[field.name] = col
    if name == "documents" and r != 0:
        # salting lengthens words: keep n_chars consistent with text
        import pyarrow.compute as pc
        cols["n_chars"] = pc.cast(pc.utf8_length(cols["text"]),
                                  pa.int64())
    return pa.table(cols)


def generate(factor: int, src_dir: str, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for name in SINGLE_COPY:
        t = pq.read_table(f"{src_dir}/{name}.parquet")
        d = f"{out_dir}/{name}.parquet"
        os.makedirs(d, exist_ok=True)
        pq.write_table(t, f"{d}/part-0.parquet")
    for name in SHIFTS:
        t = pq.read_table(f"{src_dir}/{name}.parquet")
        d = f"{out_dir}/{name}.parquet"
        os.makedirs(d, exist_ok=True)
        for r in range(factor):
            pq.write_table(_replica(t, name, r),
                           f"{d}/part-{r}.parquet")


def ensure_scaled_sf(factor: int = 10,
                     src_dir: str = SRC_DEFAULT) -> str:
    """Generate (once, cached) the scaled dir; returns its path.  The
    marker file commits the (factor, src) content key so a stale cache
    from an older generator layout is rebuilt."""
    out_dir = f"{OUT_ROOT}/sf_x{factor}"
    marker = f"{out_dir}/.complete"
    key = f"v2:{factor}:{src_dir}"
    if os.path.exists(marker) and open(marker).read() == key:
        return out_dir
    generate(factor, src_dir, out_dir)
    with open(marker, "w") as f:
        f.write(key)
    return out_dir


if __name__ == "__main__":
    factor = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    src = sys.argv[2] if len(sys.argv) > 2 else SRC_DEFAULT
    out = (sys.argv[3] if len(sys.argv) > 3
           else f"{OUT_ROOT}/sf_x{factor}")
    generate(factor, src, out)
    with open(f"{out}/.complete", "w") as f:
        f.write(f"v2:{factor}:{src}")
    print(out)
