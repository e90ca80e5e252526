"""MinHash signatures and SimHash fingerprints for near-duplicate
detection (Broder 1997; Charikar 2002) -- the training-data-pipeline
operators layered on the engine (BASELINE.md north star additions).

All vectorized over the flat Arrow string buffer: byte-level k-shingles
are hashed with a polynomial window hash of the whole concatenated buffer,
built by doubling (~log2(k) multiply-add passes, 4 for k = 9), and one
boolean mask keeps each doc's own windows; then num_perm multiply-add
permutations with segmented minima (np.minimum.reduceat), written into
one preallocated buffer, produce the signature matrix.  No per-row
Python in the hot path.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..hashing import splitmix64

_P = np.uint64(1099511628211)  # FNV prime as polynomial base


def _string_buffer(texts) -> tuple[np.ndarray, np.ndarray]:
    """(flat utf-8 bytes, int64 offsets from 0) of an Arrow string column.

    Handles both string (int32 offsets) and large_string (int64 offsets) --
    Ray Data batches may arrive as either.  The bytes are only the
    column's own: a zero-copy slice of a larger array shares its parent's
    data buffer, which is cut to the slice's byte range."""
    arr = texts.combine_chunks() if isinstance(texts, pa.ChunkedArray) else texts
    if arr.null_count:
        arr = arr.fill_null("")
    if pa.types.is_large_string(arr.type) or pa.types.is_large_binary(arr.type):
        off_dtype, off_width = np.int64, 8
    elif pa.types.is_string(arr.type) or pa.types.is_binary(arr.type):
        off_dtype, off_width = np.int32, 4
    else:
        raise TypeError(f"expected a (large_)string/binary column, "
                        f"got {arr.type}")
    bufs = arr.buffers()
    offs = np.frombuffer(bufs[1], dtype=off_dtype, count=len(arr) + 1,
                         offset=arr.offset * off_width).astype(np.int64)
    data = (np.frombuffer(bufs[2], dtype=np.uint8)[offs[0]:offs[-1]]
            if bufs[2] is not None else np.empty(0, dtype=np.uint8))
    return data, offs - offs[0]


def _window_hashes(data: np.ndarray, k: int) -> np.ndarray:
    """Polynomial hash of every k-byte window of ``data`` (uint64):
    window p hashes to sum_j data[p + j] * P^(k-1-j) (mod 2^64).

    Built by doubling, h_{a+b}(p) = h_a(p) * P^b + h_b(p + a): the same
    polynomial in the same ring, so the same bits as a k-pass rolling
    hash.  Walking the bits of k from the top (double, then append one
    byte where the bit is set) takes 4 multiply-add passes for k = 9."""
    acc, a = data, 1
    with np.errstate(over="ignore"):
        for bit in bin(k)[3:]:
            nxt = np.multiply(acc[:-a], np.uint64(pow(int(_P), a, 1 << 64)),
                              dtype=np.uint64)
            nxt += acc[a:]
            acc, a = nxt, 2 * a
            if bit == "1":
                nxt = np.multiply(acc[:-1], _P, dtype=np.uint64)
                nxt += data[a:]
                acc, a = nxt, a + 1
    return acc.astype(np.uint64, copy=False)


def shingle_hashes(texts, k: int = 5) -> tuple[np.ndarray, np.ndarray]:
    """All byte k-shingle hashes of every string, concatenated.

    Returns (hashes uint64, doc_offsets int64) where doc d's shingles are
    hashes[doc_offsets[d]:doc_offsets[d+1]].  A doc shorter than k
    contributes one whole-text shingle.
    """
    data, offs = _string_buffer(texts)
    lengths = np.diff(offs)
    counts = np.maximum(lengths - k + 1, np.minimum(lengths, 1))
    doc_offsets = np.concatenate([[0], np.cumsum(counts)])
    long_docs = lengths >= k
    if long_docs.any():
        # hash every window of the whole buffer, then keep each long
        # doc's own: +1 at its first byte, -1 past its last window start,
        # and the running sum is 1 exactly on the windows to keep (the
        # ones that cross a doc boundary sit at 0)
        edges = np.zeros(data.shape[0] - k + 2, dtype=np.int8)
        edges[offs[:-1][long_docs]] = 1
        edges[offs[1:][long_docs] - k + 1] -= 1
        keep = np.cumsum(edges, dtype=np.int8)[:-1].view(np.bool_)
        windows = _window_hashes(data, k)[keep]
    else:
        windows = np.zeros(0, dtype=np.uint64)
    short_docs = np.nonzero((lengths > 0) & ~long_docs)[0]
    if not short_docs.shape[0]:
        return windows, doc_offsets
    # short docs (0 < len < k): one whole-text polynomial hash each,
    # vectorized across the short docs with <= k-1 byte passes
    sl = lengths[short_docs]
    h = np.zeros(short_docs.shape[0], dtype=np.uint64)
    with np.errstate(over="ignore"):
        for j in range(int(sl.max())):
            live = sl > j
            h[live] = h[live] * _P + data[offs[short_docs[live]] + j]
    # a short doc's slot has as many long-doc windows before it as its
    # offset, less the short docs before it
    return np.insert(windows, doc_offsets[short_docs]
                     - np.arange(short_docs.shape[0]), h), doc_offsets


def _perm_constants(num_perm: int) -> tuple[np.ndarray, np.ndarray]:
    idx = np.arange(num_perm, dtype=np.int64)
    a = splitmix64(idx, seed=0x5EED) | np.uint64(1)  # odd multipliers
    b = splitmix64(idx, seed=0xB0B5)
    return a, b


_SIG_BLOCK_HASHES = 65536  # ~0.5 MB of uint64 -- stays L2-resident


def minhash_signatures(texts, num_perm: int = 64, k: int = 5) -> np.ndarray:
    """(n_docs, num_perm) uint64 signature matrix.

    Permutation i is the multiply-add universal hash a_i*h + b_i (mod
    2^64, odd a_i) over the well-mixed shingle hashes -- 2 vector ops per
    permutation instead of a full avalanche.

    Cache-blocked: the shingle-hash array is processed in L2-sized chunks
    (split on document boundaries) with all num_perm permutations applied
    per chunk.  The naive loop streams the full array through DRAM
    num_perm times; at 32 cores that saturates memory bandwidth and the
    map stage stops scaling (measured: 32-cpu run burned 2x the
    cpu-seconds of the 8-cpu run on identical work).  Blocking cuts DRAM
    traffic ~num_perm-fold.
    """
    hashes, doc_offsets = shingle_hashes(texts, k)
    n_docs = doc_offsets.shape[0] - 1
    sig = np.full((n_docs, num_perm), np.iinfo(np.uint64).max,
                  dtype=np.uint64)
    nonempty = np.diff(doc_offsets) > 0
    if not nonempty.any():
        return sig
    a, b = _perm_constants(num_perm)
    doc_idx = np.nonzero(nonempty)[0]
    # chunk boundaries in DOC space such that each chunk's hash span is
    # <= _SIG_BLOCK_HASHES (single oversized docs get a chunk to themselves)
    spans = doc_offsets[doc_idx + 1] - doc_offsets[doc_idx]
    block_id = (np.cumsum(spans) - 1) // _SIG_BLOCK_HASHES
    chunk_ends = (np.nonzero(np.diff(block_id))[0] + 1).tolist()
    if not chunk_ends or chunk_ends[-1] != doc_idx.shape[0]:
        chunk_ends.append(doc_idx.shape[0])
    # one buffer for every permutation of every chunk: a chunk spans at
    # most _SIG_BLOCK_HASHES plus one doc's hashes
    buf = np.empty(min(hashes.shape[0], _SIG_BLOCK_HASHES + int(spans.max())),
                   dtype=np.uint64)
    lo = 0
    for hi in chunk_ends:
        docs = doc_idx[lo:hi]
        h0 = doc_offsets[docs[0]]
        h1 = doc_offsets[docs[-1] + 1]
        chunk = hashes[h0:h1]
        g = buf[:h1 - h0]
        starts = (doc_offsets[docs] - h0)
        for i in range(num_perm):
            np.multiply(chunk, a[i], out=g)
            np.add(g, b[i], out=g)
            sig[docs, i] = np.minimum.reduceat(g, starts)
        lo = hi
    return sig


def oph_signatures(texts, n_bins: int = 64, k: int = 5) -> np.ndarray:
    """Densified one-permutation-hashing register matrix -- the ONE-pass
    drop-in for minhash_signatures' num_perm-pass build (Li, Owen &
    Zhang NIPS'12; densification: Shrivastava & Li ICML'14).

    Same (n_docs, n_bins) uint64 contract as minhash_signatures: the
    fraction of equal registers is an unbiased Jaccard estimate, so
    estimate_jaccard and band_hashes work unchanged.  One hash pass
    buckets each shingle into bin h % n_bins keeping the min per bin;
    empty bins borrow from the nearest non-empty bin to the right
    (cyclic), offset by the borrow distance so borrowed registers never
    spuriously collide.  Register math is bit-identical to the
    oracle-verified pipelines.dedup.oph_minhash_densified kernel
    (its DuckDB twin replays this exact cyclic borrow).

    Empty docs keep all-max registers, mirroring minhash_signatures.
    """
    hashes, doc_offsets = shingle_hashes(texts, k)
    n_docs = doc_offsets.shape[0] - 1
    P = n_bins
    U = np.uint64(0xFFFFFFFFFFFFFFFF)
    regs_flat = np.full(n_docs * P, U, dtype=np.uint64)
    if hashes.shape[0]:
        lengths = np.diff(doc_offsets)
        doc_idx = np.repeat(np.arange(n_docs, dtype=np.int64), lengths)
        cell = doc_idx * P + (hashes % np.uint64(P)).astype(np.int64)
        # min per (doc, bin) cell: scatter-min into the flat register
        # array.  The cell space is only n_docs * n_bins (32k for a
        # 512-doc batch), so ufunc.at stays cache-resident and runs
        # ~100x faster than a lexsort over the million-shingle batch
        # (measured 0.002 s vs 0.23 s) -- this is what makes the OPH
        # tier's ONE pass actually cheaper than the 64 classic passes.
        np.minimum.at(regs_flat, cell, hashes)
    regs = regs_flat.reshape(n_docs, P)
    filled = regs != U
    nonempty = filled.any(axis=1)
    if not nonempty.any():
        return regs
    sub = np.ascontiguousarray(regs[nonempty])
    subf = filled[nonempty]
    n = sub.shape[0]
    dbl = np.concatenate([subf, subf], axis=1)
    idx = np.where(dbl, np.tile(np.arange(2 * P), (n, 1)),
                   np.int64(1 << 30))
    nxt = np.minimum.accumulate(idx[:, ::-1], axis=1)[:, ::-1][:, :P]
    src = nxt % P
    tdist = (nxt - np.arange(P)[None, :]).astype(np.uint64)
    with np.errstate(over="ignore"):
        dense = np.take_along_axis(sub, src, axis=1) + tdist  # wraps
    regs[nonempty] = np.where(subf, sub, dense)
    return regs


def estimate_jaccard(sig_a: np.ndarray, sig_b: np.ndarray) -> np.ndarray:
    """Fraction of equal signature coordinates (rowwise)."""
    return (np.asarray(sig_a) == np.asarray(sig_b)).mean(axis=-1)


def band_hashes(sig: np.ndarray, bands: int) -> np.ndarray:
    """(n_docs, bands) uint64: one combined hash per signature band.
    Docs sharing any band hash are LSH candidates."""
    n_docs, num_perm = sig.shape
    if num_perm % bands:
        raise ValueError("num_perm must be divisible by bands")
    r = num_perm // bands
    out = np.zeros((n_docs, bands), dtype=np.uint64)
    for b in range(bands):
        h = np.full(n_docs, np.uint64(b + 1))
        for j in range(r):
            h = splitmix64((h ^ sig[:, b * r + j]).view(np.int64),
                           seed=b * r + j)
        out[:, b] = h
    return out


def simhash64(texts, k: int = 5) -> np.ndarray:
    """64-bit SimHash per doc over byte k-shingle hashes: bit j of the
    output is the sign of sum over shingles of (bit j ? +1 : -1)."""
    hashes, doc_offsets = shingle_hashes(texts, k)
    n_docs = doc_offsets.shape[0] - 1
    out = np.zeros(n_docs, dtype=np.uint64)
    seg_lengths = np.diff(doc_offsets)
    if hashes.shape[0] == 0:
        return out
    # Per-doc per-bit popcounts WITHOUT expanding a shingles x 64 bit
    # matrix: histogram each of the 8 hash bytes per doc (bincount), then
    # one 256x8 bit-LUT matmul recovers the 8 bit-sums of that byte.
    doc_idx = np.repeat(np.arange(n_docs, dtype=np.int64), seg_lengths)
    byte_view = hashes.view(np.uint8).reshape(-1, 8)  # little-endian
    lut = ((np.arange(256)[:, None] >> np.arange(8)[None, :]) & 1
           ).astype(np.int64)
    bitsums = np.empty((n_docs, 64), dtype=np.int64)
    base = doc_idx * 256
    for j in range(8):
        hist = np.bincount(base + byte_view[:, j],
                           minlength=n_docs * 256).reshape(n_docs, 256)
        bitsums[:, j * 8:(j + 1) * 8] = hist @ lut
    # sign of sum(+1/-1) == (2*ones - total) > 0
    signs = (2 * bitsums > seg_lengths[:, None]).astype(np.uint64)
    vals = (signs << np.arange(64, dtype=np.uint64)[None, :]).sum(
        axis=1, dtype=np.uint64)
    out[seg_lengths > 0] = vals[seg_lengths > 0]
    return out


def hamming64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    x = np.asarray(a, dtype=np.uint64) ^ np.asarray(b, dtype=np.uint64)
    return np.unpackbits(x.view(np.uint8).reshape(-1, 8),
                         axis=1).sum(axis=1)
