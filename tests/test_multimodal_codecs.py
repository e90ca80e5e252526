"""Unit tests for the pure-numpy uncompressed-container codecs
(BMP/PPM/WAV) and the decode="real" modes of the multimodal stages."""

import numpy as np
import pyarrow as pa
import pytest

from p2pddsketch_ray.stages.multimodal import (BinaryFeatureExtract,
                                               FrameSample, Resize,
                                               decode_bmp, decode_ppm,
                                               decode_raster, decode_wav,
                                               encode_bmp, encode_ppm,
                                               encode_wav)


@pytest.mark.parametrize("w,h", [(1, 1), (3, 2), (4, 4), (5, 7),
                                 (12, 9), (16, 1)])
def test_bmp_roundtrip_every_padding_class(w, h):
    # w*3 % 4 covers every row-padding residue across the param grid
    rng = np.random.default_rng(w * 100 + h)
    img = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
    assert np.array_equal(decode_bmp(np.frombuffer(
        encode_bmp(img), dtype=np.uint8)), img)


def test_bmp_top_down_negative_height():
    img = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
    buf = bytearray(encode_bmp(img))
    # flip to top-down: height = -h, raster rows already bottom-up in
    # the buffer, so the decoded image is vertically flipped
    import struct
    struct.pack_into("<i", buf, 22, -2)
    out = decode_bmp(np.frombuffer(bytes(buf), dtype=np.uint8))
    assert np.array_equal(out, img[::-1])


def test_bmp_rejects_compressed_and_junk():
    img = np.zeros((2, 2, 3), dtype=np.uint8)
    buf = bytearray(encode_bmp(img))
    buf[30] = 1                                    # BI_RLE8
    with pytest.raises(ValueError):
        decode_bmp(np.frombuffer(bytes(buf), dtype=np.uint8))
    with pytest.raises(ValueError):
        decode_bmp(np.frombuffer(b"\xffnot-a-bmp" * 10, dtype=np.uint8))


def test_bmp_rejects_other_dib_headers_and_early_pixel_offset():
    import struct
    img = np.arange(12, dtype=np.uint8).reshape(2, 2, 3)
    good = encode_bmp(img)
    core = bytearray(good)
    struct.pack_into("<I", core, 14, 12)           # BITMAPCOREHEADER size
    with pytest.raises(ValueError, match="DIB header size=12"):
        decode_bmp(np.frombuffer(bytes(core), dtype=np.uint8))
    early = bytearray(good)
    struct.pack_into("<I", early, 10, 14)          # pixels "inside" headers
    with pytest.raises(ValueError, match="data offset=14"):
        decode_bmp(np.frombuffer(bytes(early), dtype=np.uint8))
    # the boundary itself (pixels right after the 54 header bytes) decodes
    assert np.array_equal(decode_bmp(np.frombuffer(good, dtype=np.uint8)),
                          img)


@pytest.mark.parametrize("w,h", [(1, 1), (9, 11), (12, 9), (100, 3)])
def test_ppm_roundtrip(w, h):
    rng = np.random.default_rng(w + h)
    img = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
    assert np.array_equal(decode_ppm(np.frombuffer(
        encode_ppm(img), dtype=np.uint8)), img)


def test_raster_sniffer_dispatches_and_rejects():
    img = np.full((2, 2, 3), 7, dtype=np.uint8)
    for enc in (encode_bmp, encode_ppm):
        assert np.array_equal(decode_raster(np.frombuffer(
            enc(img), dtype=np.uint8)), img)
    with pytest.raises(ValueError):
        decode_raster(np.frombuffer(b"\x89PNG\r\n\x1a\n", dtype=np.uint8))


@pytest.mark.parametrize("n,rate", [(1, 8000), (57, 44100), (1024, 16000)])
def test_wav_roundtrip(n, rate):
    rng = np.random.default_rng(n)
    s = rng.integers(-32768, 32768, size=n).astype(np.int16)
    samples, got_rate, block = decode_wav(np.frombuffer(
        encode_wav(s, rate), dtype=np.uint8))
    assert got_rate == rate and block == 2
    assert np.array_equal(samples[:, 0], s)


def test_wav_chunk_walk_skips_unknown_chunks():
    import struct
    s = np.arange(-5, 5, dtype=np.int16)
    raw = encode_wav(s, 8000)
    # splice an unknown (odd-sized, word-padded) chunk between fmt and data
    fmt_end = 12 + 8 + 16
    extra = struct.pack("<4sI", b"LIST", 5) + b"abcde\x00"
    patched = raw[:fmt_end] + extra + raw[fmt_end:]
    samples, rate, block = decode_wav(np.frombuffer(patched,
                                                    dtype=np.uint8))
    assert np.array_equal(samples[:, 0], s)


def test_wav_rejects_non_pcm():
    import struct
    raw = bytearray(encode_wav(np.zeros(4, dtype=np.int16), 8000))
    struct.pack_into("<H", raw, 20, 3)             # IEEE float format
    with pytest.raises(ValueError):
        decode_wav(np.frombuffer(bytes(raw), dtype=np.uint8))


def test_feature_extract_real_histograms_decoded_pixels():
    rng = np.random.default_rng(11)
    imgs = [rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
            for w, h in ((3, 2), (12, 9), (1, 1))]
    payloads = [encode_bmp(imgs[0]), encode_ppm(imgs[1]),
                encode_bmp(imgs[2])]
    batch = pa.table({"payload": pa.array(payloads,
                                          type=pa.large_binary())})
    out = BinaryFeatureExtract(column="payload", decode="real")(batch)
    feats = np.stack(out["features"].to_pandas().to_numpy())
    for i, img in enumerate(imgs):
        px = img.reshape(-1)
        want = np.bincount(px >> 4, minlength=16) / px.size
        np.testing.assert_allclose(feats[i], want)
    # payload_size stays the CONTAINER size
    assert out["payload_size"].to_pylist() == [len(p) for p in payloads]


def test_frame_sample_real_wav_blocks():
    s0 = np.arange(0, 11, dtype=np.int16) * 100
    s1 = np.arange(-7, 0, dtype=np.int16)
    batch = pa.table({"payload": pa.array(
        [encode_wav(s0, 8000), encode_wav(s1, 16000)],
        type=pa.large_binary())})
    out = FrameSample(decode="real", every=4)(batch)
    assert out["n_frames"].to_pylist() == [11, 7]
    assert out["n_sampled"].to_pylist() == [3, 2]
    got0 = np.frombuffer(out["sampled"][0].as_py(), dtype="<i2")
    assert np.array_equal(got0, s0[::4])
    got1 = np.frombuffer(out["sampled"][1].as_py(), dtype="<i2")
    assert np.array_equal(got1, s1[::4])


def test_resize_real_nearest_neighbor():
    rng = np.random.default_rng(5)
    img = rng.integers(0, 256, size=(9, 12, 3), dtype=np.uint8)
    batch = pa.table({"payload": pa.array([encode_ppm(img)],
                                          type=pa.large_binary())})
    t = 4
    out = Resize(decode="real", target=t)(batch)
    thumb = np.asarray(out["thumb"][0].as_py(), dtype=np.int64).reshape(
        t, t)
    gray = img.astype(np.int64).sum(axis=2) // 3
    ri = (np.arange(t) * 9) // t
    ci = (np.arange(t) * 12) // t
    assert np.array_equal(thumb, gray[ri[:, None], ci[None, :]])


def test_wav_rejects_truncation():
    """Truncated containers must raise, not silently shorten -- the
    same contract as the raster decoders."""
    s = np.arange(0, 8, dtype=np.int16)
    raw = encode_wav(s, 8000)
    # cut mid-data-chunk: declared chunk size exceeds remaining bytes
    with pytest.raises(ValueError):
        decode_wav(np.frombuffer(raw[:-3], dtype=np.uint8))
