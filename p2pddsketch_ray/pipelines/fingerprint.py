"""Winnowing document fingerprints (Schleimer, Wilkerson, Aiken,
SIGMOD 2003) as a fully vectorized Ray Data stage.

Winnowing is the classic local document-fingerprinting scheme used for
copy detection in web corpora: hash every k-gram of the text, slide a
window of w consecutive gram hashes, and select the minimum hash of each
window.  The guarantee: any shared substring of length >= w + k - 1
between two documents yields at least one shared fingerprint, while only
~2/(w+1) of all grams are selected.

This implementation makes the selection EXACTLY replicable in SQL (and
therefore hash-checkable by the driver's DuckDB oracle) by minimizing an
integer composite ``hash * 2^POS_BITS + position`` instead of breaking
hash ties ad hoc: the composite min is unique per window, selects the
LEFTMOST minimal gram (a fixed, published-variant tie rule), and doubles
as the fingerprint identity, so "distinct selected fingerprints per doc"
is one ``np.unique`` (and one SQL ``DISTINCT`` over a windowed ``min``).

Everything is flat-buffer vectorized: the batch's UTF-8 payload is read
straight from the Arrow string buffers (int32/int64 offsets both
handled), the k-gram polynomial hash is k shifted adds over the flat
byte array, window minima are one ``sliding_window_view`` reduction, and
doc boundaries are handled by masking windows whose byte span crosses a
document edge -- no per-document Python anywhere.

Replaces nothing in the reference (gmorleo/p2pDDSketch has no text
fingerprinting); this is part of the beyond-reference curation layer
alongside MinHash/SimHash (pipelines/dedup.py).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..sources.tables import read_table
from ..stages.combine import combine_agg, named

# gram hashes live below 2^25 so composite = h * 2^20 + pos stays well
# inside int64 even after the per-doc disambiguation shift (doc * 2^45)
HASH_BASE = 31
HASH_MOD = 1 << 25
POS_BITS = 20


def _flat_utf8(col: pa.ChunkedArray) -> tuple[np.ndarray, np.ndarray]:
    """Zero-copy flat byte view of a string column: (bytes, offsets0)
    where offsets0 is rebased so offsets0[0] == 0."""
    arr = col.combine_chunks()
    buffers = arr.buffers()
    if pa.types.is_large_string(arr.type):
        off = np.frombuffer(buffers[1], dtype=np.int64)
    else:
        off = np.frombuffer(buffers[1], dtype=np.int32).astype(np.int64)
    off = off[arr.offset: arr.offset + len(arr) + 1]
    if buffers[2] is None:
        return np.zeros(0, dtype=np.int64), off - off[0]
    data = np.frombuffer(buffers[2], dtype=np.uint8)
    return data[off[0]: off[-1]].astype(np.int64), off - off[0]


def winnow_doc_stats(t: pa.Table, *, k: int = 8, w: int = 8) -> pa.Table:
    """Per-document winnowing stats for one batch: the number of k-gram
    positions and the number of DISTINCT selected fingerprints (window
    minima of the hash*2^20+pos composite).  ASCII corpus assumption:
    the kernel hashes UTF-8 BYTES while the SQL oracle hashes code
    points -- identical iff the text is ASCII (the driver corpus is;
    multi-byte text would still be deterministic, just not SQL-matched).
    """
    n_docs = t.num_rows
    zeros = np.zeros(n_docs, dtype=np.int64)
    lengths = pc.binary_length(t["text"]).to_numpy(
        zero_copy_only=False).astype(np.int64)
    grams_per_doc = np.maximum(lengths - k + 1, 0)
    out_cols = {
        "lang": t["lang"],
        "docs": pa.array(np.ones(n_docs, dtype=np.int64)),
        "grams": pa.array(grams_per_doc),
    }
    data, off = _flat_utf8(t["text"])
    total = int(off[-1])
    n_grams = total - k + 1
    if n_grams < 1 or n_docs == 0:
        out_cols["fps"] = pa.array(zeros)
        return pa.table(out_cols)
    if lengths.max() >= (1 << POS_BITS):
        raise ValueError(f"winnow_doc_stats: document longer than "
                         f"2^{POS_BITS} chars; raise POS_BITS")
    if n_docs >= (1 << (63 - POS_BITS - 25)):
        raise ValueError("winnow_doc_stats: batch too wide for the "
                         "per-doc composite shift; lower batch_size")
    # polynomial k-gram hash over the flat byte array: k shifted adds
    h = np.zeros(n_grams, dtype=np.int64)
    for j in range(k):
        h = (h * HASH_BASE + data[j: j + n_grams]) % HASH_MOD
    doc_of_byte = np.repeat(np.arange(n_docs, dtype=np.int64),
                            np.diff(off))
    pos_in_doc = np.arange(total, dtype=np.int64) - np.repeat(
        off[:-1], np.diff(off))
    comp = (h << POS_BITS) | pos_in_doc[:n_grams]
    # window j = grams [j, j+w-1], spanning bytes [j, j+w+k-2]: valid
    # iff that whole byte span lies inside one document
    n_win = n_grams - w + 1
    if n_win < 1:
        out_cols["fps"] = pa.array(zeros)
        return pa.table(out_cols)
    mins = np.lib.stride_tricks.sliding_window_view(comp, w).min(axis=1)
    valid = doc_of_byte[:n_win] == doc_of_byte[w + k - 2: w + k - 2 + n_win]
    win_doc = doc_of_byte[:n_win][valid]
    uniq = np.unique((win_doc << (POS_BITS + 25)) | mins[valid])
    fps = np.bincount(uniq >> (POS_BITS + 25),
                      minlength=n_docs).astype(np.int64)
    out_cols["fps"] = pa.array(fps)
    return pa.table(out_cols)


def winnow_fingerprint_stats(sf_dir: str, *, k: int = 8,
                             w: int = 8) -> "ray.data.Dataset":
    """Per-language winnowing rollup over the documents table:
    (docs, sum of k-gram positions, sum of selected fingerprints).
    The ~2/(w+1) selection density is the corpus-level signal curation
    teams track when sizing a fingerprint index.

    Scale shape: one embarrassingly parallel map pass (the per-batch
    flat-buffer kernel, one row per doc) folded per lang by
    ``combine_agg``; the only shuffle moves O(langs x blocks) tiny
    integer rows."""
    return combine_agg(
        read_table(sf_dir, "documents", ["lang", "text"]), ["lang"],
        lambda t: winnow_doc_stats(t, k=k, w=w),
        [("grams", "count"), ("grams", "sum"), ("fps", "sum")],
        named("lang", "docs", "sum_grams", "sum_fingerprints"))


def _winnow_sql(k: int = 8, w: int = 8) -> str:
    """DuckDB replica: the same Horner-with-mod gram hash over code
    points (== bytes for the ASCII corpus), the same composite min per
    trailing w-row window, DISTINCT per doc."""
    h = "CAST(ascii(substr(text, i + 0, 1)) AS BIGINT)"
    for j in range(1, k):
        h = (f"((({h}) * {HASH_BASE} + "
             f"ascii(substr(text, i + {j}, 1))) % {HASH_MOD})")
    return f"""
WITH nums AS (
  -- fixed bound == the kernel's own POS_BITS document-length cap
  SELECT CAST(range AS BIGINT) AS i FROM range(1, {1 << POS_BITS})
), g AS (
  SELECT doc_id, lang, i,
         ({h}) * {1 << POS_BITS} + (i - 1) AS comp
  FROM documents JOIN nums ON nums.i <= length(text) - {k} + 1
), win AS (
  SELECT doc_id, lang,
         min(comp) OVER (PARTITION BY doc_id ORDER BY i
                         ROWS BETWEEN {w - 1} PRECEDING
                         AND CURRENT ROW) AS mc,
         row_number() OVER (PARTITION BY doc_id ORDER BY i) AS rn
  FROM g
), sel AS (
  SELECT DISTINCT doc_id, mc FROM win WHERE rn >= {w}
), fp AS (
  SELECT doc_id, CAST(count(*) AS BIGINT) AS n_fp FROM sel GROUP BY 1
), gd AS (
  SELECT doc_id, CAST(count(*) AS BIGINT) AS n_grams FROM g GROUP BY 1
)
SELECT d.lang,
       count(*) AS docs,
       CAST(sum(coalesce(gd.n_grams, 0)) AS BIGINT) AS sum_grams,
       CAST(sum(coalesce(fp.n_fp, 0)) AS BIGINT) AS sum_fingerprints
FROM documents d
LEFT JOIN gd ON gd.doc_id = d.doc_id
LEFT JOIN fp ON fp.doc_id = d.doc_id
GROUP BY 1
ORDER BY 1
"""


WINNOW_FINGERPRINT_SQL = _winnow_sql()
