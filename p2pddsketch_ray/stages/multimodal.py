"""Multimodal (binary-payload) stages.

Images/audio/video are opaque ``binary`` columns with typed metadata; the
decode / feature-extract stages are actor-pool ``map_batches`` callables
(state built once per actor in __init__).  Two decode tiers:

- ``decode="fake"`` (default): deterministic features from the raw
  container bytes -- fully real Ray-side plumbing (schema, batch sizing,
  actor signature, output layout) with a stand-in decoder.
- ``decode="real"``: pure-numpy parsers for UNCOMPRESSED containers --
  24-bit BMP and P6 PPM rasters (BinaryFeatureExtract / Resize) and
  16-bit PCM WAV (FrameSample) -- header math + np.frombuffer, no codec
  libraries.  Compressed codec formats (JPEG/PNG/MP3/H.264) raise
  ValueError at decode time: those genuinely need codec libraries that
  are not in this container.

Usage:
    ds.map_batches(BinaryFeatureExtract, batch_format="pyarrow",
                   batch_size=256,        # binary payloads are wide: small batches
                   concurrency=8, num_cpus=1)
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa

from .combine import combine_agg, named


# ---------------------------------------------------------------------------
# uncompressed-container codecs (pure numpy/struct -- no codec libraries)
# ---------------------------------------------------------------------------

def encode_bmp(rgb: np.ndarray) -> bytes:
    """24-bit uncompressed BMP (BITMAPINFOHEADER) from a top-down
    (H, W, 3) uint8 RGB raster: rows stored bottom-up as BGR, each
    padded to a 4-byte multiple -- the standard Windows DIB layout."""
    rgb = np.ascontiguousarray(rgb, dtype=np.uint8)
    h, w, _ = rgb.shape
    row = w * 3
    pad = (-row) % 4
    img_size = (row + pad) * h
    header = struct.pack("<2sIHHI", b"BM", 54 + img_size, 0, 0, 54)
    info = struct.pack("<IiiHHIIiiII", 40, w, h, 1, 24, 0, img_size,
                       2835, 2835, 0, 0)
    rows = rgb[::-1, :, ::-1]                    # bottom-up, BGR
    padded = np.zeros((h, row + pad), dtype=np.uint8)
    padded[:, :row] = rows.reshape(h, row)
    return header + info + padded.tobytes()


def decode_bmp(buf: np.ndarray) -> np.ndarray:
    """Parse a 24-bit uncompressed BMP into a top-down (H, W, 3) uint8
    RGB raster (header math + reshape/slice on the byte buffer).
    Other DIB headers (e.g. BITMAPCOREHEADER), a pixel-data offset inside
    the headers, and compressed or non-24bpp DIBs raise ValueError: real
    codec formats need libraries absent from this environment."""
    b = np.asarray(buf, dtype=np.uint8)
    if b.size < 54 or b[0] != 0x42 or b[1] != 0x4D:
        raise ValueError("not a BMP payload")

    def u32(o: int) -> int:
        return (int(b[o]) | int(b[o + 1]) << 8 | int(b[o + 2]) << 16
                | int(b[o + 3]) << 24)

    def i32(o: int) -> int:
        v = u32(o)
        return v - (1 << 32) if v >= (1 << 31) else v

    data_off = u32(10)
    header_size = u32(14)
    if header_size != 40 or data_off < 14 + header_size:
        raise ValueError(
            "only BITMAPINFOHEADER BMPs with pixel data after the headers "
            f"decode (DIB header size={header_size}, data offset={data_off})")
    w, hh = i32(18), i32(22)
    bpp = int(b[28]) | int(b[29]) << 8
    comp = u32(30)
    if bpp != 24 or comp != 0:
        raise ValueError(
            "only 24-bit uncompressed BMP decodes without codec "
            f"libraries (bpp={bpp}, compression={comp})")
    top_down = hh < 0
    h = -hh if top_down else hh
    row = w * 3
    pad = (-row) % 4
    need = data_off + (row + pad) * h
    if w < 1 or h < 1 or b.size < need:
        raise ValueError("truncated BMP payload")
    px = b[data_off:need].reshape(h, row + pad)[:, :row]
    img = px.reshape(h, w, 3)[:, :, ::-1]        # BGR -> RGB
    return img if top_down else img[::-1]


def encode_ppm(rgb: np.ndarray) -> bytes:
    """Binary P6 PPM from a top-down (H, W, 3) uint8 RGB raster."""
    rgb = np.ascontiguousarray(rgb, dtype=np.uint8)
    h, w, _ = rgb.shape
    return b"P6\n%d %d\n255\n" % (w, h) + rgb.tobytes()


def decode_ppm(buf: np.ndarray) -> np.ndarray:
    """Parse a binary P6 PPM into a top-down (H, W, 3) uint8 raster."""
    b = np.asarray(buf, dtype=np.uint8)
    raw = b.tobytes()
    if raw[:2] != b"P6":
        raise ValueError("not a P6 PPM payload")
    # header: three whitespace-separated ints after the magic, then ONE
    # whitespace byte before the raster
    pos, vals = 2, []
    while len(vals) < 3:
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValueError("truncated PPM header")
        vals.append(int(raw[start:pos]))
    pos += 1                                     # single ws after maxval
    w, h, mx = vals
    if mx != 255 or w < 1 or h < 1 or len(raw) < pos + w * h * 3:
        raise ValueError("unsupported or truncated PPM payload")
    return b[pos:pos + w * h * 3].reshape(h, w, 3)


def decode_raster(buf: np.ndarray) -> np.ndarray:
    """Sniff-and-decode an uncompressed raster container (BMP or P6
    PPM) to a top-down (H, W, 3) uint8 RGB raster.  Anything else --
    i.e. every compressed codec format -- raises ValueError."""
    b = np.asarray(buf, dtype=np.uint8)
    if b.size >= 2 and b[0] == 0x42 and b[1] == 0x4D:
        return decode_bmp(b)
    if b.size >= 2 and b[0] == 0x50 and b[1] == 0x36:
        return decode_ppm(b)
    raise ValueError(
        "unrecognized raster container: only uncompressed BMP/PPM "
        "decode without codec libraries (absent in this environment)")


def encode_wav(samples: np.ndarray, rate: int = 8000) -> bytes:
    """Mono 16-bit PCM RIFF/WAVE from an int16 sample vector."""
    s = np.ascontiguousarray(samples, dtype="<i2")
    data = s.tobytes()
    block = 2
    hdr = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(data),
                      b"WAVE", b"fmt ", 16, 1, 1, rate, rate * block,
                      block, 16, b"data", len(data))
    return hdr + data


def decode_wav(buf: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Chunk-walk a RIFF/WAVE container; 16-bit PCM only.  Returns
    (samples (n, channels) int16, sample_rate, block_align)."""
    raw = np.asarray(buf, dtype=np.uint8).tobytes()
    if raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise ValueError("not a WAV payload")
    pos, fmt, data = 12, None, None
    while pos + 8 <= len(raw):
        cid = raw[pos:pos + 4]
        sz = int.from_bytes(raw[pos + 4:pos + 8], "little")
        if pos + 8 + sz > len(raw):              # declared > remaining
            raise ValueError("truncated WAV chunk")
        body = raw[pos + 8:pos + 8 + sz]
        if cid == b"fmt ":
            fmt = body
        elif cid == b"data":
            data = body
        pos += 8 + sz + (sz & 1)                 # chunks are word-aligned
    if fmt is None or data is None or len(fmt) < 16:
        raise ValueError("missing fmt/data chunk")
    audio_fmt = int.from_bytes(fmt[0:2], "little")
    channels = int.from_bytes(fmt[2:4], "little")
    rate = int.from_bytes(fmt[4:8], "little")
    block = int.from_bytes(fmt[12:14], "little")
    bits = int.from_bytes(fmt[14:16], "little")
    if audio_fmt != 1 or bits != 16 or channels < 1 or block != 2 * channels:
        raise ValueError(
            "only 16-bit PCM WAV decodes without codec libraries")
    if len(data) % block:
        raise ValueError("truncated WAV data chunk (partial PCM block)")
    n = len(data) // block
    samples = np.frombuffer(data, dtype="<i2").reshape(n, channels)
    return samples, rate, block


def _byte_histogram_features(payloads: pa.Array, n_bins: int = 16) -> np.ndarray:
    """Deterministic stand-in 'embedding': n_bins byte-histogram fractions
    per payload, vectorized over the flat Arrow binary buffer
    (np.add.reduceat over value bytes -- no per-byte Python)."""
    arr = payloads.combine_chunks() if isinstance(payloads, pa.ChunkedArray) else payloads
    arr = arr.fill_null(b"") if arr.null_count else arr
    if pa.types.is_large_binary(arr.type) or pa.types.is_large_string(arr.type):
        off_dtype, off_width = np.int64, 8
    else:
        off_dtype, off_width = np.int32, 4
    buffers = arr.buffers()
    offs = np.frombuffer(buffers[1], dtype=off_dtype, count=len(arr) + 1,
                         offset=arr.offset * off_width).astype(np.int64)
    data = np.frombuffer(buffers[2], dtype=np.uint8) if buffers[2] else \
        np.empty(0, dtype=np.uint8)
    binned = (data >> np.uint8(4)).astype(np.int64) if n_bins == 16 else \
        (data.astype(np.int64) * n_bins) // 256
    lengths = np.diff(offs)
    row_idx = np.repeat(np.arange(len(arr), dtype=np.int64), lengths)
    counts = np.bincount(row_idx * n_bins + binned,
                         minlength=len(arr) * n_bins).astype(np.float64)
    out = counts.reshape(len(arr), n_bins)
    nonempty = lengths > 0
    out[nonempty] /= lengths[nonempty, None]
    return out


def binary_features_by_group(ds, payload_col: str, group_col: str,
                             *, n_bins: int = 16, batch_size: int = 256):
    """Multimodal pipeline shape over any table: treat ``payload_col`` as
    an opaque binary payload, decode/feature-extract in an actor pool
    (small batches -- payloads are wide), and aggregate per group.

    Output: one row per group with ``n_docs``, ``sum_payload_bytes``
    (both exactly SQL-replicable -- the oracle checks the plumbing), and
    ``mean_features`` (the decoder output, verified by unit tests; a real
    image/audio decoder drops in via ``decode="real"``).
    """
    def to_payload(t: pa.Table) -> pa.Table:
        col = t[payload_col]
        if pa.types.is_string(col.type):
            col = pa.compute.cast(col, pa.binary())
        elif pa.types.is_large_string(col.type):
            col = pa.compute.cast(col, pa.large_binary())
        return pa.table({group_col: t[group_col], "payload": col})

    extract = BinaryFeatureExtract(column="payload", n_bins=n_bins)

    def featurize(t: pa.Table) -> pa.Table:
        out = extract(t)
        feats = out["features"]
        flat = np.asarray(feats.combine_chunks().values.to_numpy(
            zero_copy_only=False)).reshape(t.num_rows, n_bins)
        cols = {group_col: t[group_col],
                "payload_size": out["payload_size"]}
        # integer micro-units so the grouped mean is exactly reproducible
        for b in range(n_bins):
            cols[f"f{b}_micro"] = pa.array(
                np.floor(flat[:, b] * 1e6 + 0.5).astype(np.int64))
        return pa.table(cols)

    rows = (ds.map_batches(to_payload, batch_format="pyarrow",
                           zero_copy_batch=True)
            .map_batches(featurize, batch_format="pyarrow",
                         batch_size=batch_size))

    def finalize(t: pa.Table) -> pa.Table:
        n = pa.compute.cast(t["payload_size_count"], pa.float64())
        mean_cols = [
            pa.compute.divide(
                pa.compute.divide(
                    pa.compute.cast(t[f"f{b}_micro_sum"], pa.float64()),
                    pa.scalar(1e6)), n)
            for b in range(n_bins)]
        mat = np.stack([np.asarray(c) for c in mean_cols], axis=1)
        return pa.table({
            group_col: t[group_col],
            "n_docs": t["payload_size_count"],
            "sum_payload_bytes": t["payload_size_sum"],
            "mean_features": pa.FixedSizeListArray.from_arrays(
                mat.reshape(-1), n_bins),
        })

    return combine_agg(rows, [group_col], lambda t: t,
                       [("payload_size", "count"), ("payload_size", "sum")]
                       + [(f"f{b}_micro", "sum") for b in range(n_bins)],
                       finalize)


class BinaryFeatureExtract:
    """Actor-pool stage: binary column -> size + deterministic features.

    Parameters are bound via functools.partial-style fn_constructor_kwargs
    or a subclass.  ``decode="fake"`` (default) histograms the raw
    container bytes; ``decode="real"`` decodes each payload as an
    uncompressed raster (BMP/P6 PPM) and histograms the DECODED pixel
    bytes -- the per-payload decode loop mirrors how any real codec
    decodes (one image at a time), with all inner math in numpy.
    """

    def __init__(self, column: str = "html", decode: str = "fake",
                 n_bins: int = 16):
        if decode not in ("fake", "real"):
            raise ValueError(f"unknown decode mode {decode!r}")
        self.column = column
        self.decode = decode
        self.n_bins = n_bins
        # actor-lifetime state (built once): bin lookup table
        self._bin_edges = np.arange(n_bins)

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch[self.column]
        if self.decode == "real":
            nb = self.n_bins
            data, off = _flat_binary(col)
            feats = np.zeros((batch.num_rows, nb), dtype=np.float64)
            for i in range(batch.num_rows):      # one decode per image
                px = decode_raster(data[off[i]:off[i + 1]]).reshape(-1)
                binned = (px >> np.uint8(4)).astype(np.int64) \
                    if nb == 16 else (px.astype(np.int64) * nb) // 256
                feats[i] = np.bincount(binned, minlength=nb) / px.size
        else:
            feats = _byte_histogram_features(col, self.n_bins)
        sizes = pa.compute.cast(pa.compute.binary_length(col), pa.int64())
        # FixedSizeListArray.from_arrays on the flat buffer: zero-copy
        # (pa.array over a list of numpy rows is orders slower)
        return pa.table({
            "payload_size": sizes,
            "features": pa.FixedSizeListArray.from_arrays(
                feats.reshape(-1), self.n_bins),
        })


def _flat_binary(col) -> tuple[np.ndarray, np.ndarray]:
    """(bytes, rebased offsets) view of a binary/large_binary column."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    arr = arr.fill_null(b"") if arr.null_count else arr
    bufs = arr.buffers()
    if pa.types.is_large_binary(arr.type) or pa.types.is_large_string(arr.type):
        off = np.frombuffer(bufs[1], dtype=np.int64)
    else:
        off = np.frombuffer(bufs[1], dtype=np.int32).astype(np.int64)
    off = off[arr.offset: arr.offset + len(arr) + 1]
    if bufs[2] is None:
        return np.zeros(0, dtype=np.uint8), off - off[0]
    data = np.frombuffer(bufs[2], dtype=np.uint8)
    return data[off[0]: off[-1]], off - off[0]


class FrameSample:
    """Actor-pool stage: sample every ``every``-th fixed-size frame from a
    binary payload (the video-ingest shape: container -> frame subset).
    The real demuxer is stubbed exactly like BinaryFeatureExtract
    (``decode="real"`` raises; codec libs absent); the default treats the
    payload as a raw sequence of ``frame_bytes``-byte frames, which keeps
    ALL the Ray-side plumbing real: ragged per-row output sizes, flat
    zero-copy gather (one fancy-index over the batch's byte buffer, no
    per-row Python), LargeBinary offset construction, actor signature.

    Output per row: n_frames, n_sampled, sampled (the sampled frames'
    bytes, concatenated).
    """

    def __init__(self, column: str = "payload", frame_bytes: int = 256,
                 every: int = 4, decode: str = "fake"):
        if decode not in ("fake", "real"):
            raise ValueError(f"unknown decode mode {decode!r}")
        if frame_bytes < 1 or every < 1:
            raise ValueError("frame_bytes and every must be >= 1")
        self.column = column
        self.fb = frame_bytes
        self.every = every
        self.decode = decode

    def _call_wav(self, batch: pa.Table) -> pa.Table:
        """decode="real": each payload is a RIFF/WAVE container -- one
        frame = one PCM block (block_align bytes from the fmt chunk),
        so n_frames is the true sample count and the sampled bytes are
        every ``every``-th PCM block.  Per-payload chunk walk (the real
        demux shape), numpy slicing inside."""
        every = self.every
        data, off = _flat_binary(batch[self.column])
        n_frames = np.zeros(batch.num_rows, dtype=np.int64)
        n_sampled = np.zeros(batch.num_rows, dtype=np.int64)
        chunks: list[np.ndarray] = []
        for i in range(batch.num_rows):
            samples, _rate, block = decode_wav(data[off[i]:off[i + 1]])
            picked = samples[::every]
            n_frames[i] = samples.shape[0]
            n_sampled[i] = picked.shape[0]
            chunks.append(np.ascontiguousarray(picked).view(np.uint8)
                          .reshape(-1))
        out_bytes = (np.concatenate(chunks) if chunks
                     else np.zeros(0, dtype=np.uint8))
        out_off = np.concatenate(
            [[0], np.cumsum([c.size for c in chunks])]).astype(np.int64)
        sampled = pa.LargeBinaryArray.from_buffers(
            pa.large_binary(), batch.num_rows,
            [None, pa.py_buffer(out_off), pa.py_buffer(out_bytes)])
        return pa.table({
            "n_frames": pa.array(n_frames, type=pa.int64()),
            "n_sampled": pa.array(n_sampled, type=pa.int64()),
            "sampled": sampled,
        })

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.decode == "real":
            return self._call_wav(batch)
        fb, every = self.fb, self.every
        data, off = _flat_binary(batch[self.column])
        lengths = np.diff(off)
        n_frames = lengths // fb
        n_sampled = (n_frames + every - 1) // every
        total = int(n_sampled.sum())
        if total:
            doc_rep = np.repeat(np.arange(batch.num_rows), n_sampled)
            excl = np.concatenate([[0], np.cumsum(n_sampled)[:-1]])
            local = np.arange(total) - np.repeat(excl, n_sampled)
            starts = off[:-1][doc_rep] + local * np.int64(every * fb)
            idx = starts[:, None] + np.arange(fb)[None, :]
            out_bytes = np.ascontiguousarray(data[idx.ravel()])
        else:
            out_bytes = np.zeros(0, dtype=np.uint8)
        out_off = np.concatenate(
            [[0], np.cumsum(n_sampled * np.int64(fb))]).astype(np.int64)
        sampled = pa.LargeBinaryArray.from_buffers(
            pa.large_binary(), batch.num_rows,
            [None, pa.py_buffer(out_off), pa.py_buffer(out_bytes)])
        return pa.table({
            "n_frames": pa.array(n_frames, type=pa.int64()),
            "n_sampled": pa.array(n_sampled, type=pa.int64()),
            "sampled": sampled,
        })


class Resize:
    """Actor-pool stage: nearest-neighbor "resize" of a binary payload
    interpreted as a ``stride``-bytes-per-row grayscale raster down to a
    fixed ``target x target`` thumbnail (the image-preprocess shape).
    Real image decoding is stubbed (``decode="real"`` raises); the fake
    keeps the plumbing real: per-row ragged heights, one broadcasted
    integer index grid per batch, clipped tail gather, FixedSizeList
    uint8 output (zero-copy from the flat thumbnail matrix).
    """

    def __init__(self, column: str = "payload", stride: int = 64,
                 target: int = 8, decode: str = "fake"):
        if decode not in ("fake", "real"):
            raise ValueError(f"unknown decode mode {decode!r}")
        if stride < 1 or target < 1:
            raise ValueError("stride and target must be >= 1")
        self.column = column
        self.stride = stride
        self.target = target
        self.decode = decode
        # actor-lifetime state: the fixed column sample positions
        self._cols = (np.arange(target) * stride) // target

    def _call_raster(self, batch: pa.Table) -> pa.Table:
        """decode="real": decode each payload as an uncompressed raster
        (BMP/P6 PPM), grayscale it ((r+g+b)//3, integer), and nearest-
        neighbor sample to target x target: thumb[i,j] = gray at row
        (i*H)//t, col (j*W)//t.  Per-payload decode, numpy inside."""
        t_ = self.target
        data, off = _flat_binary(batch[self.column])
        lengths = np.diff(off)
        thumbs = np.zeros((batch.num_rows, t_ * t_), dtype=np.uint8)
        for i in range(batch.num_rows):          # one decode per image
            img = decode_raster(data[off[i]:off[i + 1]])
            gray = (img.astype(np.int64).sum(axis=2) // 3).astype(
                np.uint8)
            h, w = gray.shape
            ri = (np.arange(t_) * h) // t_
            ci = (np.arange(t_) * w) // t_
            thumbs[i] = gray[ri[:, None], ci[None, :]].reshape(-1)
        return pa.table({
            "payload_size": pa.array(lengths, type=pa.int64()),
            "thumb": pa.FixedSizeListArray.from_arrays(
                pa.array(thumbs.reshape(-1), type=pa.uint8()), t_ * t_),
        })

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.decode == "real":
            return self._call_raster(batch)
        t_, stride = self.target, self.stride
        data, off = _flat_binary(batch[self.column])
        lengths = np.diff(off)
        heights = np.maximum((lengths + stride - 1) // stride, 1)
        # per-doc sampled row indices: r[i, j] = (j * H_i) // target
        rows = (np.arange(t_)[None, :] * heights[:, None]) // t_
        # absolute byte index, clipped into each doc's span (ragged tail)
        idx = (off[:-1, None, None] + rows[:, :, None] * stride
               + self._cols[None, None, :])
        hi = np.maximum(off[1:], off[:-1] + 1) - 1
        idx = np.minimum(idx, hi[:, None, None])
        # an empty trailing doc clips to off[-1] == len(data): bound the
        # gather globally too (its row is zeroed below anyway)
        idx = np.minimum(idx, max(data.size - 1, 0))
        if data.size:
            thumb = data[idx.ravel()]
        else:
            thumb = np.zeros(idx.size, dtype=np.uint8)
        empty = lengths == 0
        if empty.any():
            thumb = thumb.reshape(batch.num_rows, t_ * t_)
            thumb[empty] = 0
            thumb = thumb.ravel()
        return pa.table({
            "payload_size": pa.array(lengths, type=pa.int64()),
            "thumb": pa.FixedSizeListArray.from_arrays(
                pa.array(thumb, type=pa.uint8()), t_ * t_),
        })


def frame_sample_stats_by_group(ds, payload_col: str, group_col: str,
                                *, frame_bytes: int = 256, every: int = 4,
                                batch_size: int = 256):
    """Frame-sampling pipeline shape over any table: payload -> actor-pool
    FrameSample -> per-group rollup (docs, frames, sampled frames,
    sampled bytes).  All four outputs are exact integer arithmetic on
    payload lengths, so the plumbing is fully SQL-replicable."""
    def to_payload(t: pa.Table) -> pa.Table:
        col = t[payload_col]
        if pa.types.is_string(col.type):
            col = pa.compute.cast(col, pa.binary())
        elif pa.types.is_large_string(col.type):
            col = pa.compute.cast(col, pa.large_binary())
        return pa.table({group_col: t[group_col], "payload": col})

    sampler = FrameSample(column="payload", frame_bytes=frame_bytes,
                          every=every)

    def sample(t: pa.Table) -> pa.Table:
        out = sampler(t)
        return pa.table({
            group_col: t[group_col],
            "n_frames": out["n_frames"],
            "n_sampled": out["n_sampled"],
            "sampled_bytes": pa.compute.cast(
                pa.compute.binary_length(out["sampled"]), pa.int64()),
        })

    rows = (ds.map_batches(to_payload, batch_format="pyarrow",
                           zero_copy_batch=True)
            .map_batches(sample, batch_format="pyarrow",
                         batch_size=batch_size))
    return combine_agg(rows, [group_col], lambda t: t,
                       [("n_frames", "count"), ("n_frames", "sum"),
                        ("n_sampled", "sum"), ("sampled_bytes", "sum")],
                       named(group_col, "n_docs", "sum_frames",
                             "sum_sampled", "sum_sampled_bytes"))


# docs, payload bytes and thumbnail checksum of per-document resize rows
_THUMB_AGGS = [("payload_size", "count"), ("payload_size", "sum"),
               ("checksum", "sum")]


def resize_stats_by_group(ds, payload_col: str, group_col: str, *,
                          stride: int = 64, target: int = 8,
                          batch_size: int = 256):
    """Resize pipeline shape over any table: payload -> actor-pool
    ``Resize`` (map_batches over a callable CLASS: the index grid is
    actor-lifetime state) -> per-group rollup (docs, payload bytes, and
    a position-weighted THUMBNAIL CHECKSUM -- sum over thumbnail cells
    of byte * (cell index + 1)).  The checksum pins every sampled byte
    of every thumbnail, so the whole ragged gather (per-doc heights,
    clipped tails) is SQL-replicable cell by cell."""
    def to_payload(t: pa.Table) -> pa.Table:
        col = t[payload_col]
        if pa.types.is_string(col.type):
            col = pa.compute.cast(col, pa.binary())
        elif pa.types.is_large_string(col.type):
            col = pa.compute.cast(col, pa.large_binary())
        return pa.table({group_col: t[group_col], "payload": col})

    weights = np.arange(1, target * target + 1, dtype=np.int64)

    class _ResizeChecksum(Resize):
        def __call__(self, batch: pa.Table) -> pa.Table:
            out = super().__call__(batch)
            flat = out["thumb"].combine_chunks().flatten().to_numpy(
                zero_copy_only=False).astype(np.int64)
            mat = flat.reshape(batch.num_rows, target * target)
            return pa.table({
                group_col: batch[group_col],
                "payload_size": out["payload_size"],
                "checksum": pa.array(mat @ weights, type=pa.int64()),
            })

    rows = (ds.map_batches(to_payload, batch_format="pyarrow",
                           zero_copy_batch=True)
            .map_batches(_ResizeChecksum, batch_format="pyarrow",
                         batch_size=batch_size, concurrency=2,
                         fn_constructor_kwargs={"column": "payload",
                                                "stride": stride,
                                                "target": target}))
    return combine_agg(rows, [group_col], lambda t: t, _THUMB_AGGS,
                       named(group_col, "n_docs", "sum_payload",
                             "thumb_checksum"))

# ---------------------------------------------------------------------------
# real-decode queries: deterministic container fixtures -> decode -> rollup
# ---------------------------------------------------------------------------
# Payload pixels/samples are pure murmur64 functions of doc_id (DuckDB
# hash() parity), so after the REAL container decode the channel sums
# replay exactly in SQL -- the decode correctness gate VERDICT r4 item 6
# asked for.  Bounded verify tiers (doc_id < max_doc_id); the scale path
# is the same actor-pool stage over stored binary columns.


def _synth_raster(ids: np.ndarray, encode) -> list[bytes]:
    from ..hashing import murmur64
    payloads = []
    for d in ids:
        w, h = 8 + int(d) % 5, 6 + int(d) % 4
        idx = int(d) * 1_000_003 + np.arange(w * h * 3, dtype=np.int64)
        px = (murmur64(idx) % np.uint64(256)).astype(np.uint8)
        payloads.append(encode(px.reshape(h, w, 3)))
    return payloads


def bmp_decode_stats(sf_dir: str, max_doc_id: int = 40) -> pa.Table:
    """Encode a deterministic 24-bit BMP per document (pixel bytes =
    hash(doc_id * 1000003 + i) % 256, W/H from doc_id), decode it with
    the REAL pure-numpy BMP parser in an actor-pool stage, and roll up
    per-lang pixel-channel sums.  Because encode_bmp stores the raster
    bottom-up/BGR/padded and decode_bmp inverts all three, the sums
    equal the generator function -- which is what the SQL twin replays,
    so a green hash proves the decoder recovers every byte."""
    import pyarrow.dataset as pads

    import ray.data

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"],
        filter=(pads.field("doc_id") < max_doc_id))

    def synth(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "lang": t["lang"],
            "payload": pa.array(_synth_raster(ids, encode_bmp),
                                type=pa.large_binary())})

    class _ChannelSums:
        def __call__(self, t: pa.Table) -> pa.Table:
            data, off = _flat_binary(t["payload"])
            n = t.num_rows
            npx = np.zeros(n, dtype=np.int64)
            r = np.zeros(n, dtype=np.int64)
            g = np.zeros(n, dtype=np.int64)
            b = np.zeros(n, dtype=np.int64)
            for i in range(n):                   # one decode per image
                img = decode_raster(data[off[i]:off[i + 1]]).astype(
                    np.int64)
                npx[i] = img.shape[0] * img.shape[1]
                r[i], g[i], b[i] = (img[:, :, 0].sum(),
                                    img[:, :, 1].sum(),
                                    img[:, :, 2].sum())
            return pa.table({"lang": t["lang"],
                             "n_px": pa.array(npx),
                             "r": pa.array(r), "g": pa.array(g),
                             "b": pa.array(b)})

    rows = (ds.map_batches(synth, batch_format="pyarrow",
                           zero_copy_batch=True)
            .map_batches(_ChannelSums, batch_format="pyarrow",
                         batch_size=64, concurrency=2))
    return combine_agg(rows, ["lang"], lambda t: t,
                       [("n_px", "count"), ("n_px", "sum"), ("r", "sum"),
                        ("g", "sum"), ("b", "sum")],
                       named("lang", "n_docs", "sum_pixels", "sum_r",
                             "sum_g", "sum_b")).sort("lang")


def _bmp_decode_sql(max_doc_id: int = 40) -> str:
    return f"""
WITH d AS (
  SELECT doc_id, lang, 8 + doc_id % 5 AS w, 6 + doc_id % 4 AS h
  FROM documents WHERE doc_id < {max_doc_id}
), px AS (
  SELECT d.doc_id, d.lang, CAST(i.range AS BIGINT) AS i,
         CAST(hash(d.doc_id * 1000003 + i.range) % 256 AS BIGINT) AS byte
  FROM d, range(0, 324) i
  WHERE i.range < d.w * d.h * 3
), ch AS (
  SELECT doc_id, lang,
         CAST(count(*) // 3 AS BIGINT) AS npx,
         sum(CASE WHEN i % 3 = 0 THEN byte ELSE 0 END) AS r,
         sum(CASE WHEN i % 3 = 1 THEN byte ELSE 0 END) AS g,
         sum(CASE WHEN i % 3 = 2 THEN byte ELSE 0 END) AS b
  FROM px GROUP BY 1, 2
)
SELECT lang, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(npx) AS BIGINT) AS sum_pixels,
       CAST(sum(r) AS BIGINT) AS sum_r,
       CAST(sum(g) AS BIGINT) AS sum_g,
       CAST(sum(b) AS BIGINT) AS sum_b
FROM ch GROUP BY 1 ORDER BY 1
"""


BMP_DECODE_SQL = _bmp_decode_sql()


def wav_decode_stats(sf_dir: str, max_doc_id: int = 40,
                     every: int = 4) -> pa.Table:
    """Encode a deterministic mono 16-bit PCM WAV per document (sample
    s = hash(doc_id * 2000003 + s) % 65536 - 32768, count and rate from
    doc_id), demux it with FrameSample(decode="real") -- one frame per
    PCM block straight from the RIFF fmt chunk -- and roll up per-lang
    frame counts plus the summed |amplitude| of the sampled frames.
    The SQL twin replays the generator at s % every == 0, so a green
    hash proves the chunk walk, block math, and int16 recovery."""
    import pyarrow.dataset as pads

    import ray.data

    from ..hashing import murmur64

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"],
        filter=(pads.field("doc_id") < max_doc_id))

    def synth(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        payloads = []
        for d in ids:
            n = 40 + int(d) % 17
            rate = 8000 + 100 * (int(d) % 8)
            idx = int(d) * 2_000_003 + np.arange(n, dtype=np.int64)
            v = (murmur64(idx) % np.uint64(65536)).astype(np.int64) \
                - 32768
            payloads.append(encode_wav(v.astype(np.int16), rate))
        return pa.table({"lang": t["lang"],
                         "payload": pa.array(payloads,
                                             type=pa.large_binary())})

    sampler = FrameSample(column="payload", every=every, decode="real")

    def sample_stats(t: pa.Table) -> pa.Table:
        out = sampler(t)
        data, off = _flat_binary(out["sampled"])
        flat = data.view("<i2").astype(np.int64)
        soff = off // 2
        row_idx = np.repeat(np.arange(t.num_rows, dtype=np.int64),
                            np.diff(soff))
        sums = np.bincount(row_idx, weights=np.abs(flat),
                           minlength=t.num_rows)
        return pa.table({
            "lang": t["lang"],
            "n_frames": out["n_frames"],
            "n_sampled": out["n_sampled"],
            "sum_abs": pa.array(sums.astype(np.int64)),
        })

    rows = (ds.map_batches(synth, batch_format="pyarrow",
                           zero_copy_batch=True)
            .map_batches(sample_stats, batch_format="pyarrow",
                         batch_size=64))
    return combine_agg(rows, ["lang"], lambda t: t,
                       [("n_frames", "count"), ("n_frames", "sum"),
                        ("n_sampled", "sum"), ("sum_abs", "sum")],
                       named("lang", "n_docs", "sum_frames", "sum_sampled",
                             "sum_abs_sampled")).sort("lang")


def _wav_decode_sql(max_doc_id: int = 40, every: int = 4) -> str:
    return f"""
WITH d AS (
  SELECT doc_id, lang, 40 + doc_id % 17 AS n
  FROM documents WHERE doc_id < {max_doc_id}
), s AS (
  SELECT d.doc_id, d.lang, CAST(t.range AS BIGINT) AS s,
         CAST(hash(d.doc_id * 2000003 + t.range) % 65536 AS BIGINT)
           - 32768 AS v
  FROM d, range(0, 57) t WHERE t.range < d.n
), agg AS (
  SELECT doc_id, lang, CAST(count(*) AS BIGINT) AS n_frames,
         sum(CASE WHEN s % {every} = 0 THEN 1 ELSE 0 END) AS n_sampled,
         sum(CASE WHEN s % {every} = 0 THEN abs(v) ELSE 0 END) AS sum_abs
  FROM s GROUP BY 1, 2
)
SELECT lang, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(n_frames) AS BIGINT) AS sum_frames,
       CAST(sum(n_sampled) AS BIGINT) AS sum_sampled,
       CAST(sum(sum_abs) AS BIGINT) AS sum_abs_sampled
FROM agg GROUP BY 1 ORDER BY 1
"""


WAV_DECODE_SQL = _wav_decode_sql()


def ppm_resize_checksum(sf_dir: str, max_doc_id: int = 40,
                        target: int = 4) -> pa.Table:
    """Encode a deterministic P6 PPM per document (same pixel generator
    as bmp_decode_stats), push it through Resize(decode="real") --
    grayscale (r+g+b)//3 then nearest-neighbor to target x target --
    and roll up the position-weighted thumbnail checksum per lang.
    The SQL twin recomputes every sampled cell from the generator, so
    a green hash pins the PPM header parse and the resize index math."""
    import pyarrow.dataset as pads

    import ray.data

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"],
        filter=(pads.field("doc_id") < max_doc_id))

    def synth(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "lang": t["lang"],
            "payload": pa.array(_synth_raster(ids, encode_ppm),
                                type=pa.large_binary())})

    resize = Resize(column="payload", target=target, decode="real")
    weights = np.arange(1, target * target + 1, dtype=np.int64)

    def checksum(t: pa.Table) -> pa.Table:
        out = resize(t)
        flat = out["thumb"].combine_chunks().flatten().to_numpy(
            zero_copy_only=False).astype(np.int64)
        mat = flat.reshape(t.num_rows, target * target)
        return pa.table({
            "lang": t["lang"],
            "payload_size": out["payload_size"],
            "checksum": pa.array(mat @ weights, type=pa.int64()),
        })

    rows = (ds.map_batches(synth, batch_format="pyarrow",
                           zero_copy_batch=True)
            .map_batches(checksum, batch_format="pyarrow", batch_size=64))
    return combine_agg(rows, ["lang"], lambda t: t, _THUMB_AGGS,
                       named("lang", "n_docs", "sum_payload",
                             "thumb_checksum")).sort("lang")


def _ppm_resize_sql(max_doc_id: int = 40, target: int = 4) -> str:
    t = target
    return f"""
WITH d AS (
  SELECT doc_id, lang, 8 + doc_id % 5 AS w, 6 + doc_id % 4 AS h
  FROM documents WHERE doc_id < {max_doc_id}
), cells AS (
  SELECT d.doc_id, d.lang, d.w, d.h, CAST(c.range AS BIGINT) AS cell,
         ((CAST(c.range AS BIGINT) // {t}) * d.h // {t} * d.w
          + (CAST(c.range AS BIGINT) % {t}) * d.w // {t}) * 3 AS base
  FROM d, range(0, {t * t}) c
), g AS (
  SELECT doc_id, lang, cell,
         (CAST(hash(doc_id * 1000003 + base) % 256 AS BIGINT)
          + CAST(hash(doc_id * 1000003 + base + 1) % 256 AS BIGINT)
          + CAST(hash(doc_id * 1000003 + base + 2) % 256 AS BIGINT))
           // 3 AS gray
  FROM cells
), ck AS (
  SELECT doc_id, lang, sum(gray * (cell + 1)) AS checksum FROM g
  GROUP BY 1, 2
), sz AS (
  SELECT doc_id,
         9 + length(CAST(w AS VARCHAR)) + length(CAST(h AS VARCHAR))
           + w * h * 3 AS payload_bytes
  FROM d
)
SELECT ck.lang, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(sz.payload_bytes) AS BIGINT) AS sum_payload,
       CAST(sum(ck.checksum) AS BIGINT) AS thumb_checksum
FROM ck JOIN sz USING (doc_id) GROUP BY 1 ORDER BY 1
"""


PPM_RESIZE_SQL = _ppm_resize_sql()
