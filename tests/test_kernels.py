"""Bit identity of the text kernels against their plain references, their
memory, and ``fused_sketch_build`` across a tree-merge round."""

import tracemalloc

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from p2pddsketch_ray.functions.text import TOKEN_RE, token_count
from p2pddsketch_ray.sketches import minhash
from p2pddsketch_ray.sketches.minhash import (_perm_constants,
                                              _string_buffer,
                                              minhash_signatures,
                                              oph_signatures, shingle_hashes,
                                              simhash64)
from p2pddsketch_ray.sources.webpages import make_rows

KS = (1, 2, 3, 4, 5, 9)


def ref_shingle_hashes(texts, k):
    """k-pass rolling polynomial hash over the whole buffer, then a
    chunked rank gather of each doc's windows: the plain definition."""
    data, offs = _string_buffer(texts)
    lengths = np.diff(offs)
    counts = np.maximum(lengths - k + 1, np.minimum(lengths, 1))
    doc_offsets = np.concatenate([[0], np.cumsum(counts)])
    out = np.zeros(int(doc_offsets[-1]), dtype=np.uint64)
    roll = np.zeros(max(data.shape[0] - k + 1, 0), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for j in range(k if data.shape[0] >= k else 0):
            roll = roll * minhash._P + data[j:data.shape[0] - k + 1 + j]
    long_docs = np.nonzero(lengths >= k)[0]
    for i in range(0, long_docs.shape[0], 7):
        dsel = long_docs[i:i + 7]
        c = counts[dsel]
        ranks = (np.arange(int(c.sum()), dtype=np.int64)
                 - np.repeat(np.cumsum(c) - c, c))
        out[np.repeat(doc_offsets[dsel], c) + ranks] = \
            roll[np.repeat(offs[dsel], c) + ranks]
    with np.errstate(over="ignore"):
        for d in np.nonzero((lengths > 0) & (lengths < k))[0]:
            h = np.uint64(0)
            for byte in data[offs[d]:offs[d + 1]]:
                h = h * minhash._P + np.uint64(byte)
            out[doc_offsets[d]] = h
    return out, doc_offsets


def ref_minhash_signatures(texts, num_perm, k):
    hashes, doc_offsets = ref_shingle_hashes(texts, k)
    sig = np.full((doc_offsets.shape[0] - 1, num_perm),
                  np.iinfo(np.uint64).max, dtype=np.uint64)
    a, b = _perm_constants(num_perm)
    for d in range(sig.shape[0]):
        h = hashes[doc_offsets[d]:doc_offsets[d + 1]]
        if h.shape[0]:
            sig[d] = (h[:, None] * a[None, :] + b[None, :]).min(axis=0)
    return sig


def _random_batch(rng, i):
    alphabet = list("abzAZ09 _.,-\n") + ["é", "日本", "ß"]
    docs = []
    for _ in range(int(rng.integers(0, 30))):
        r = rng.random()
        if r < 0.1:
            docs.append(None)
        elif r < 0.2:
            docs.append("")
        else:
            n = int(rng.integers(1, 12 if r < 0.5 else 80))
            docs.append("".join(rng.choice(alphabet, n)))
    if i % 20 == 7:  # one doc over 200 KB
        docs.append("".join(rng.choice(alphabet, 200_003)))
    arr = pa.array(docs, type=pa.large_string() if i % 3 == 0
                   else pa.string())
    if i % 4 == 1 and len(arr) > 2:
        arr = arr.slice(1, len(arr) - 2)
    return arr


@pytest.fixture(scope="module")
def batches():
    real = make_rows(np.arange(500), seed=5)["text"].combine_chunks()
    out = [real.slice(o, 100) for o in range(0, 500, 100)]
    rng = np.random.default_rng(20)
    return out + [_random_batch(rng, i) for i in range(60)]


@pytest.mark.parametrize("k", KS)
def test_shingle_hashes_match_rolling_reference(batches, k):
    for texts in batches:
        got, got_offs = shingle_hashes(texts, k)
        want, want_offs = ref_shingle_hashes(texts, k)
        assert got.dtype == np.uint64
        assert np.array_equal(got_offs, want_offs)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("k", KS)
def test_signature_kernels_match_reference(batches, k, monkeypatch):
    got = [(minhash_signatures(t, num_perm=8, k=k),
            oph_signatures(t, n_bins=8, k=k), simhash64(t, k=k))
           for t in batches]
    monkeypatch.setattr(minhash, "shingle_hashes", ref_shingle_hashes)
    for texts, (sig, oph, sim) in zip(batches, got):
        assert np.array_equal(sig, ref_minhash_signatures(texts, 8, k))
        assert np.array_equal(oph, oph_signatures(texts, n_bins=8, k=k))
        assert np.array_equal(sim, simhash64(texts, k=k))


def test_token_count_matches_regex(batches):
    from p2pddsketch_ray.functions.text import _COUNT_CHUNK
    step = _COUNT_CHUNK
    edge = pa.array([
        "a" * (step - 1), "bc", "x" * (step + 3), "7 " * step,  # runs
        "z", "", None, "q" * (3 * step + 11),  # touching doc/step edges
        "日本9" * step])
    for texts in batches + [edge, edge.slice(1, 6),
                            pa.chunked_array([edge.slice(0, 3),
                                              edge.slice(3)])]:
        got = token_count(texts)
        want = pc.cast(pc.count_substring_regex(texts, TOKEN_RE), pa.int64())
        assert got.type == pa.int64()
        assert got.equals(want)


def test_token_count_memory_is_bounded():
    texts = pa.array(["The 4 quick, brown foxes; " * 40] * 4096
                     + ["x" * (1 << 20)])
    assert texts.nbytes > 4 << 20
    token_count(texts)
    tracemalloc.start()
    try:
        token_count(texts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_minhash_signatures_memory():
    """A 512-doc webpages batch (1.1 MB of text): 27.1 MB traced peak
    before the one-buffer permutation loop, no more than 10% above it."""
    texts = make_rows(np.arange(512), seed=42)["text"].combine_chunks()
    minhash_signatures(texts, num_perm=64, k=9)
    tracemalloc.start()
    try:
        minhash_signatures(texts, num_perm=64, k=9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 27.1e6


# Answers of the sort-based per-lang merge this tree merge replaced, on
# the fixture below (one batch per 6-row read block, 200 blocks).
FUSED_40 = {
    "band_checksum": 354905173, "tokens": 487718, "docs": 1200,
    "global": [1002.42800852213, 6702.552357973647, 16159.6555501374],
    "per_lang": [
        963.1209598593665, 5065.632816114987, 8692.817152451365,
        1022.6790794013649, 6702.552357973647, 16819.166030706212,
        772.9170065798667, 6064.699952926478, 8024.460209704887,
        1224.3764974384917, 6312.213470033974, 10831.996616037468,
        1300.0903120454363, 8186.570516971653, 10831.996616037468,
        595.9537183534244, 3395.549945480078, 3395.549945480078,
        1353.1498085068356, 6837.957456114528, 6837.957456114528,
        528.5614177684695, 2671.0128212874174, 3464.1469140756344,
        907.0313473738099, 6569.828548904863, 8520.682159333519,
        837.2932305269571, 3828.4871877463283, 3828.4871877463283],
}


def test_fused_sketch_build_across_fanin_round(ray_session, tmp_path,
                                               monkeypatch):
    import pyarrow.parquet as pq
    import ray.data
    from ray.data import DataContext

    from p2pddsketch_ray.pipelines.webpages import (fused_sketch_build,
                                                    webpage_quantiles)
    path = tmp_path / "pages"
    path.mkdir()
    for i in range(40):
        pq.write_table(make_rows(np.arange(i * 30, (i + 1) * 30), 7),
                       str(path / f"part-{i:02d}.parquet"))
    # small reads split into many blocks, so more than fanin=32 blocks
    # reach the leaf merge
    monkeypatch.setattr(DataContext.get_current(), "target_min_block_size",
                        1)
    assert ray.data.read_parquet(str(path)).materialize().num_blocks() > 32
    rounds = []
    repartition = ray.data.Dataset.repartition
    monkeypatch.setattr(ray.data.Dataset, "repartition",
                        lambda ds, n, **kw: rounds.append(n)
                        or repartition(ds, n, **kw))
    qs = (0.5, 0.95, 0.99)
    res = fused_sketch_build(str(path), qs, batch_size=None)
    assert rounds == [32]
    per = res["per_lang"]
    assert {k: res[k] for k in ("band_checksum", "tokens", "docs")} == {
        k: FUSED_40[k] for k in ("band_checksum", "tokens", "docs")}
    assert res["global"]["est"].to_pylist() == FUSED_40["global"]
    assert per["est"].to_pylist() == FUSED_40["per_lang"]
    langs = sorted(set(per["lang"].to_pylist()))
    assert len(langs) == 10
    assert per["lang"].to_pylist() == [lang for lang in langs for _ in qs]
    glob_t, grouped = webpage_quantiles(str(path), "text_len", qs,
                                        verify=True)
    assert res["global"].equals(glob_t)
    assert per.select(["lang", "q", "est"]).equals(
        grouped.select(["lang", "q", "est"]))


def test_fused_band_checksum_ignores_batching(ray_session, tmp_path):
    """The checksum is all band hashes summed mod 2^30, whatever the batch
    size cuts the rows into."""
    import pyarrow.parquet as pq

    from p2pddsketch_ray.pipelines.webpages import fused_sketch_build
    path = tmp_path / "pages"
    path.mkdir()
    for i in range(4):
        pq.write_table(make_rows(np.arange(i * 30, (i + 1) * 30), 7),
                       str(path / f"part-{i}.parquet"))
    got = {bs: fused_sketch_build(str(path), (0.5,), batch_size=bs)
           ["band_checksum"] for bs in (None, 7)}
    assert got[None] == got[7] < 2 ** 30


def test_tree_merge_of_empty_dataset_raises(ray_session):
    import ray.data

    from p2pddsketch_ray.stages.sketch_build import tree_merge_sketches
    with pytest.raises(ValueError, match="empty dataset"):
        tree_merge_sketches(ray.data.from_arrow(pa.table({"x": [1]}))
                            .filter(lambda r: False))
