"""Near-duplicate detection over the webpages fixture's planted dups, and
KLL rank-error bounds."""

import numpy as np
import pyarrow as pa
import pytest

from p2pddsketch_ray.sketches.kll import KLLSketch
from p2pddsketch_ray.sketches.minhash import (estimate_jaccard, hamming64,
                                              minhash_signatures, simhash64)
from p2pddsketch_ray.sources.webpages import generate_webpages_local

from .test_ddsketch import exact_quantile


@pytest.fixture(scope="module")
def pages():
    return generate_webpages_local(1500)


def planted_pairs(n: int) -> set[tuple[int, int]]:
    from p2pddsketch_ray.sources.webpages import _is_base
    exact = {(i - 3, i) for i in range(3, n)
             if i % 53 == 3 and _is_base(i - 3)}
    near = {(i - 1, i) for i in range(1, n)
            if i % 37 == 1 and _is_base(i - 1)}
    return exact | near


# -- signature kernels -----------------------------------------------------

def test_minhash_identical_and_disjoint(pages):
    texts = pa.array(["abcde fghij klmno", "abcde fghij klmno",
                      "zzzzz yyyyy xxxxx"])
    sig = minhash_signatures(texts, num_perm=64)
    assert (sig[0] == sig[1]).all()
    assert estimate_jaccard(sig[0], sig[2]) < 0.2


def test_minhash_detects_planted_near_dups(pages):
    texts = pages["text"]
    sig = minhash_signatures(texts, num_perm=64)
    hits, total = 0, 0
    for a, b in planted_pairs(pages.num_rows):
        total += 1
        if estimate_jaccard(sig[a], sig[b]) >= 0.7:
            hits += 1
    assert total > 20
    assert hits / total > 0.9


def test_simhash_hamming_close_for_dups(pages):
    sh = simhash64(pages["text"])
    dists = [hamming64(np.array([sh[a]]), np.array([sh[b]]))[0]
             for a, b in planted_pairs(pages.num_rows)]
    assert np.median(dists) <= 3


def test_signatures_of_sliced_array_equal_compacted_copy(pages):
    """A zero-copy slice shares its parent's data buffer; the kernels must
    read only the slice's bytes and give a compacted copy's answers."""
    from p2pddsketch_ray.pipelines.dedup import _blob_matrix
    from p2pddsketch_ray.sketches.minhash import (_string_buffer,
                                                  oph_signatures)
    texts = pages["text"].combine_chunks()
    with_nulls = pa.array(texts.to_pylist()[:600] + [None, "", None] * 10)
    for arr in (texts, pa.array(texts.to_pylist(), type=pa.large_string()),
                with_nulls):
        for off, n in ((0, 200), (517, 83), (len(arr) - 90, 90)):
            sliced = arr.slice(off, n)
            compact = pa.array(sliced.to_pylist(), type=sliced.type)
            data, offs = _string_buffer(sliced)
            assert offs[0] == 0 and data.shape[0] == offs[-1]
            assert (minhash_signatures(sliced, num_perm=16, k=5)
                    == minhash_signatures(compact, num_perm=16, k=5)).all()
            assert (oph_signatures(sliced, n_bins=16, k=5)
                    == oph_signatures(compact, n_bins=16, k=5)).all()
            assert (simhash64(sliced) == simhash64(compact)).all()
    blobs = pa.array([np.arange(i, i + 4, dtype=np.uint64).tobytes()
                      for i in range(10)], type=pa.binary())
    assert (_blob_matrix(blobs.slice(3, 5))
            == np.arange(3, 8, dtype=np.uint64)[:, None]
            + np.arange(4, dtype=np.uint64)).all()


# -- distributed dedup pipelines ------------------------------------------

@pytest.fixture(scope="module")
def pages_ds(ray_session, pages, tmp_path_factory):
    import pyarrow.parquet as pq
    import ray.data
    p = tmp_path_factory.mktemp("dedup") / "pages.parquet"
    pq.write_table(pages.append_column(
        "doc_id", pa.array(np.arange(pages.num_rows), type=pa.int64())),
        str(p))
    # multiple blocks: the candidate set spans blocks, so the distributed
    # verify joins must align signatures across block boundaries
    return ray.data.read_parquet(str(p), columns=["doc_id", "text"],
                                 override_num_blocks=8)


def test_minhash_lsh_pipeline_finds_planted(pages_ds, pages):
    from p2pddsketch_ray.pipelines.dedup import minhash_near_dups
    out = minhash_near_dups(pages_ds, "doc_id", "text",
                            threshold=0.7).to_pandas()
    found = {(int(a), int(b)) for a, b in zip(out["doc_a"], out["doc_b"])}
    truth = planted_pairs(pages.num_rows)
    recall = len(found & truth) / len(truth)
    assert recall > 0.9, (recall, len(found))
    # precision: everything found should be genuinely similar
    texts = pages["text"].to_pylist()
    from p2pddsketch_ray.pipelines.dedup import ngram_jaccard_verify
    if len(found):
        fa, fb = zip(*sorted(found)[:200])
        jac = ngram_jaccard_verify([texts[a] for a in fa],
                                   [texts[b] for b in fb])
        assert (jac >= 0.5).mean() > 0.9


def test_simhash_pipeline_finds_planted(pages_ds, pages):
    from p2pddsketch_ray.pipelines.dedup import simhash_near_dups
    out = simhash_near_dups(pages_ds, "doc_id", "text",
                            max_hamming=3).to_pandas()
    found = {(int(a), int(b)) for a, b in zip(out["doc_a"], out["doc_b"])}
    truth = planted_pairs(pages.num_rows)
    assert len(found & truth) / len(truth) > 0.6


def test_embedding_near_dup_pairs(ray_session):
    from p2pddsketch_ray.pipelines.dedup import embedding_near_dup_pairs
    # the synthetic embeddings have no >=0.9 pairs; 0.3 yields a real set.
    # n_assign=None = parity mode (probe every cluster; exact)
    out = embedding_near_dup_pairs("/root/testdata/sf0.001", threshold=0.3,
                                   n_assign=None)
    df = out.to_pandas()
    assert len(df) > 0
    assert (df["vec_a"] < df["vec_b"]).all()
    assert df.duplicated(["vec_a", "vec_b"]).sum() == 0
    assert (df["cos_sim"] >= 0.3).all()
    # exactness vs the brute-force all-pairs oracle (n_assign=None
    # probes every cluster, so bucketing must not lose pairs)
    import duckdb
    want = duckdb.sql("""
        WITH u AS (SELECT vec_id,
                          list_transform(embedding, x -> CAST(x AS DOUBLE)) AS v
                   FROM read_parquet('/root/testdata/sf0.001/embeddings.parquet'))
        SELECT a.vec_id, b.vec_id FROM u a JOIN u b ON a.vec_id < b.vec_id
        WHERE list_cosine_similarity(a.v, b.v) >= 0.3""").df()
    assert len(df) == len(want)
    # empty-threshold result: no rows, no crash (Ray drops the schema of a
    # fully-empty dataset, so only the count is assertable)
    empty_ds = embedding_near_dup_pairs("/root/testdata/sf0.001",
                                        threshold=1.001, n_assign=None)
    assert empty_ds.count() == 0


# -- KLL -------------------------------------------------------------------

def test_kll_rank_error_bound():
    rng = np.random.default_rng(3)
    data = rng.lognormal(0, 2, 100_000)
    s = KLLSketch(k=200)
    for chunk in np.array_split(data, 20):
        s.add_batch(chunk)
    assert s.n == 100_000
    sorted_data = np.sort(data)
    for q in (0.01, 0.1, 0.5, 0.9, 0.99):
        est = s.quantile(q)
        true_rank = np.searchsorted(sorted_data, est, side="right") / len(data)
        assert abs(true_rank - q) < 0.02, (q, true_rank)


def test_kll_merge_preserves_weight_and_accuracy():
    rng = np.random.default_rng(5)
    data = rng.normal(0, 1, 60_000)
    parts = []
    for i, chunk in enumerate(np.array_split(data, 6)):
        s = KLLSketch(k=200, seed=i + 1)
        s.add_batch(chunk)
        parts.append(s)
    merged = parts[0].copy()
    for p in parts[1:]:
        merged.merge(p)
    assert merged.n == 60_000
    # total stored weight equals n
    total_w = sum(a.shape[0] * (1 << lvl)
                  for lvl, a in enumerate(merged.compactors))
    assert total_w == 60_000
    sorted_data = np.sort(data)
    for q in (0.1, 0.5, 0.9):
        est = merged.quantile(q)
        true_rank = np.searchsorted(sorted_data, est, side="right") / len(data)
        assert abs(true_rank - q) < 0.03


def test_kll_mismatched_k_raises():
    with pytest.raises(ValueError):
        KLLSketch(k=100).merge(KLLSketch(k=200))


def test_embedding_near_dup_scale_mode_subset(ray_session):
    """n_assign=2 (the 100TB configuration: each vector probes only its
    2 nearest clusters) must return a SUBSET of the exact pair set with
    identical similarity values -- bucketing may lose boundary pairs but
    never invents them."""
    from p2pddsketch_ray.pipelines.dedup import embedding_near_dup_pairs
    exact = embedding_near_dup_pairs("/root/testdata/sf0.001",
                                     threshold=0.3,
                                     n_assign=None).to_pandas()
    # n_assign=2 is the signature default (the 100TB path)
    approx = embedding_near_dup_pairs("/root/testdata/sf0.001",
                                      threshold=0.3).to_pandas()
    exact_pairs = {(a, b): s for a, b, s in
                   zip(exact["vec_a"], exact["vec_b"], exact["cos_sim"])}
    assert 0 < len(approx) <= len(exact)
    for a, b, s in zip(approx["vec_a"], approx["vec_b"],
                       approx["cos_sim"]):
        assert (a, b) in exact_pairs
        assert s == exact_pairs[(a, b)]
    # multi-probe assignment keeps recall reasonable even at low probes
    assert len(approx) / len(exact) > 0.3, len(approx) / len(exact)


def test_ngram_jaccard_pairs_matches_duckdb(ray_session):
    duckdb = pytest.importorskip("duckdb")
    from p2pddsketch_ray.pipelines.dedup import (NGRAM_JACCARD_SQL,
                                                 ngram_jaccard_pairs)
    sf = "/root/testdata/sf0.001"
    got = ngram_jaccard_pairs(sf).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    want = con.execute(NGRAM_JACCARD_SQL).df()
    assert got.reset_index(drop=True).equals(want.reset_index(drop=True))
    # set-arithmetic invariants and agreement with the pairwise verify
    # kernel (shingle-hash tier) on a handful of pairs
    assert (got["inter"] <= got["uni"]).all()
    assert (got["inter"] > 0).all() and (got["uni"] > 0).all()
    import pyarrow.parquet as pq
    docs = pq.read_table(f"{sf}/documents.parquet",
                         columns=["doc_id", "text"])
    texts = dict(zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()))
    from p2pddsketch_ray.pipelines.dedup import ngram_jaccard_verify
    head = got.head(5)
    ja = ngram_jaccard_verify([texts[int(a)] for a in head["doc_a"]],
                              [texts[int(b)] for b in head["doc_b"]], k=9)
    got_j = (head["inter"] / head["uni"]).to_numpy()
    # verify() hashes shingles (rare collisions possible); allow tiny slack
    assert np.allclose(got_j, ja, atol=1e-6)


def test_simhash_signatures_match_duckdb(ray_session):
    duckdb = pytest.importorskip("duckdb")
    from p2pddsketch_ray.pipelines.dedup import (SIMHASH_SIGNATURES_SQL,
                                                 simhash_signatures)
    sf = "/root/testdata/sf0.001"
    got = simhash_signatures(sf).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    want = con.execute(SIMHASH_SIGNATURES_SQL).df()
    assert got.equals(want.reset_index(drop=True))


def test_minhash_signature_stats_match_duckdb(ray_session):
    duckdb = pytest.importorskip("duckdb")
    from p2pddsketch_ray.pipelines.dedup import (MINHASH_SIGNATURE_SQL,
                                                 minhash_signature_stats)
    sf = "/root/testdata/sf0.001"
    got = minhash_signature_stats(sf).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    want = con.execute(MINHASH_SIGNATURE_SQL).df()
    assert got.equals(want.reset_index(drop=True))


def test_fuzzy_props_pairs_matches_duckdb(ray_session):
    duckdb = pytest.importorskip("duckdb")
    from p2pddsketch_ray.pipelines.dedup import (FUZZY_PROPS_SQL,
                                                 fuzzy_props_pairs)
    sf = "/root/testdata/sf0.001"
    got = fuzzy_props_pairs(sf).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    want = con.execute(FUZZY_PROPS_SQL).df()
    assert got.equals(want.reset_index(drop=True))
    # every reported pair really is at edit distance exactly 1
    def edit1(a: str, b: str) -> bool:
        if a == b:
            return False
        if len(a) == len(b):
            return sum(x != y for x, y in zip(a, b)) == 1
        if abs(len(a) - len(b)) != 1:
            return False
        s, l = (a, b) if len(a) < len(b) else (b, a)
        for i in range(len(l)):
            if l[:i] + l[i + 1:] == s:
                return True
        return False
    for ta, tb, kind in got.itertuples(index=False):
        assert edit1(ta, tb), (ta, tb)
        assert (len(ta) == len(tb)) == (kind == "sub")


def test_fuzzy_props_pairs_brute_force(ray_session):
    """Exhaustive O(V^2) edit-distance check over the actual payload
    vocabulary confirms FastSS finds EVERY ed-1 pair (completeness, not
    just soundness)."""
    import numpy as np
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.dedup import fuzzy_props_pairs
    sf = "/root/testdata/sf0.001"
    got = fuzzy_props_pairs(sf).to_pandas()
    vocab = sorted(set(pq.read_table(
        f"{sf}/events.parquet", columns=["props"])["props"].to_pylist()))

    def ed1(a, b):
        if len(a) == len(b):
            return sum(x != y for x, y in zip(a, b)) == 1
        if abs(len(a) - len(b)) != 1:
            return False
        s, l = (a, b) if len(a) < len(b) else (b, a)
        return any(l[:i] + l[i + 1:] == s for i in range(len(l)))

    want = set()
    for i in range(len(vocab)):
        for j in range(i + 1, len(vocab)):
            if ed1(vocab[i], vocab[j]):
                kind = "sub" if len(vocab[i]) == len(vocab[j]) else "indel"
                want.add((vocab[i], vocab[j], kind))
    have = set(map(tuple, got.to_numpy()))
    assert have == want


def test_minhash_neardup_pairs_match_duckdb_replica(ray_session):
    """The FULL near-dup pipeline (signatures -> LSH candidacy ->
    threshold) against the generated HUGEINT SQL replica -- pairing,
    not just signatures."""
    duckdb = pytest.importorskip("duckdb")
    import ray.data
    from p2pddsketch_ray.pipelines.dedup import (
        MINHASH_NEARDUP_SQL, minhash_near_dups)
    sf = "/root/testdata/sf0.001"
    ds = ray.data.read_parquet(f"{sf}/documents.parquet",
                               columns=["doc_id", "text"])
    got = (minhash_near_dups(ds, "doc_id", "text", threshold=0.7)
           .to_pandas().sort_values(["doc_a", "doc_b"])
           .reset_index(drop=True))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    want = con.execute(MINHASH_NEARDUP_SQL).df()
    assert len(got) > 0
    assert got.equals(want.reset_index(drop=True))


def test_simhash_neardup_pairs_match_duckdb_replica(ray_session):
    """The FULL SimHash pipeline (fingerprints -> chunk candidacy ->
    hamming verify) against the generated SQL replica."""
    duckdb = pytest.importorskip("duckdb")
    import ray.data
    from p2pddsketch_ray.pipelines.dedup import (
        SIMHASH_NEARDUP_SQL, simhash_near_dups)
    sf = "/root/testdata/sf0.001"
    ds = ray.data.read_parquet(f"{sf}/documents.parquet",
                               columns=["doc_id", "text"])
    got = (simhash_near_dups(ds, "doc_id", "text", max_hamming=3)
           .to_pandas().sort_values(["doc_a", "doc_b"])
           .reset_index(drop=True))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    want = con.execute(SIMHASH_NEARDUP_SQL).df()
    assert len(got) > 0
    assert got.equals(want.reset_index(drop=True))


# -- exact duplicated-substring spans ---------------------------------------

def _brute_dup_spans(docs, span):
    """Reference: per lang, (eligible positions, positions whose span
    occurs >= 2 times anywhere in the corpus)."""
    from collections import Counter
    occ = Counter()
    for _, text, _ in docs:
        for p in range(len(text) - span + 1):
            occ[text[p:p + span]] += 1
    per = {}
    for _, text, lang in docs:
        n_pos = max(len(text) - span + 1, 0)
        if n_pos == 0:
            continue
        tot, dup = per.get(lang, (0, 0))
        dups = sum(1 for p in range(n_pos)
                   if occ[text[p:p + span]] >= 2)
        per[lang] = (tot + n_pos, dup + dups)
    return per


def test_dup_span_stats_matches_bruteforce(ray_session, tmp_path):
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.dedup import dup_span_stats
    span = 8
    boiler = "THE SAME BOILERPLATE SENTENCE."
    docs = [
        (0, boiler + " unique tail zero xyzzy", "en"),      # dup head
        (1, boiler + " another unique ending!!", "en"),     # dup head
        (2, "completely original text with no repeats", "de"),
        (3, "short", "de"),                                  # < span: excluded
        (4, "abcabcabcabcabcabc", "fr"),                     # self-repeating
        (5, "", "fr"),                                       # empty: excluded
    ]
    t = pa.table({
        "doc_id": pa.array([d[0] for d in docs], type=pa.int64()),
        "text": pa.array([d[1] for d in docs], type=pa.string()),
        "lang": pa.array([d[2] for d in docs], type=pa.string()),
    })
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    out = dup_span_stats(str(tmp_path), span=span).to_pydict()
    got = {lang: (p, d) for lang, p, d in zip(
        out["lang"], out["n_positions"], out["n_dup_positions"])}
    assert got == _brute_dup_spans(docs, span)
    for lang, p, d, ppm in zip(out["lang"], out["n_positions"],
                               out["n_dup_positions"], out["dup_ppm"]):
        assert ppm == d * 1_000_000 // p


def test_minhash_blocking_report_consistency(ray_session):
    """Verified pairs never exceed candidates, the reduction ratio is
    extreme on a mostly-unique corpus, and counts agree with the
    near-dup pipeline itself."""
    import ray.data
    from p2pddsketch_ray.pipelines.dedup import (minhash_blocking_report,
                                                 minhash_near_dups)
    sf = "/root/testdata/sf0.001"
    out = minhash_blocking_report(sf).to_pydict()
    assert out["n_verified"][0] <= out["n_candidates"][0]
    assert out["reduction_ppm"][0] > 990_000
    ds = ray.data.read_parquet(f"{sf}/documents.parquet",
                               columns=["doc_id", "text"])
    direct = minhash_near_dups(ds, "doc_id", "text").count()
    assert out["n_verified"][0] == direct


def test_cdc_chunking_is_content_defined(ray_session, tmp_path):
    """Shifting identical content inside a document does not change its
    boundary fingerprints (the whole point of CDC), and chunk counts
    equal boundaries + non-empty docs."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.dedup import cdc_chunk_stats
    base = "The quick brown fox jumps over the lazy dog. " * 20
    shifted = "PREFIX-SHIFT " + base
    t = pa.table({
        "doc_id": pa.array([0, 1], type=pa.int64()),
        "text": pa.array([base, shifted], type=pa.string()),
        "lang": pa.array(["en", "de"], type=pa.string()),
    })
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    out = cdc_chunk_stats(str(tmp_path)).to_pandas()
    assert (out["n_chunks"]
            == out["n_boundaries"] + out["n_docs"]).all()
    en = out[out["lang"] == "en"].iloc[0]
    de = out[out["lang"] == "de"].iloc[0]
    # identical shared content -> the shifted doc has at least the
    # same boundaries (the prefix may add, never remove, alignment is
    # content-local); distinct fingerprints are shared corpus-wide
    assert de["n_boundaries"] >= en["n_boundaries"]
    assert out["n_distinct_boundary_fps"].iloc[0] <= \
        out["n_boundaries"].sum()


def test_top_duplicated_docs_consistent_with_corpus_stats(ray_session):
    """Per-doc dup fractions are within [0, 1e6], ranks contiguous, and
    the top doc's ppm is at least the corpus-level rate for its lang."""
    from p2pddsketch_ray.pipelines.dedup import (dup_span_stats,
                                                 top_duplicated_docs)
    sf = "/root/testdata/sf0.001"
    out = top_duplicated_docs(sf).to_pandas()
    assert list(out["rnk"]) == list(range(1, len(out) + 1))
    assert ((out["dup_ppm"] >= 0) & (out["dup_ppm"] <= 1_000_000)).all()
    assert (out["n_dup"] <= out["n_pos"]).all()
    corpus = dup_span_stats(sf).to_pandas()
    assert out["dup_ppm"].iloc[0] >= corpus["dup_ppm"].max()


def test_sorted_neighborhood_matches_bruteforce(ray_session, tmp_path):
    """Distributed window stats (incl. cross-block stitch) == a single
    sequential pass over the globally sorted corpus."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.dedup import sorted_neighborhood_stats
    rng = np.random.default_rng(11)
    n = 4000
    # small alphabet prefixes -> plenty of equal keys and near-equal runs
    prefixes = [f"doc {c}{d} body" for c in "abcdef" for d in "0123"]
    texts = [prefixes[i] + " tail " + str(rng.integers(0, 50))
             for i in rng.integers(0, len(prefixes), n)]
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
        "text": pa.array(texts),
        "lang": pa.array(["en"] * n),
        "source": pa.array(["s"] * n),
        "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
    }), str(tmp_path / "documents.parquet"))
    out = sorted_neighborhood_stats(str(tmp_path), w=2).to_pydict()
    # sequential reference
    k = [t[:16].lower() for t in texts]
    p = [t[:32].lower() for t in texts]
    order = sorted(range(n), key=lambda i: (k[i], i))
    ref = {1: [0, 0, 0], 2: [0, 0, 0]}
    for d in (1, 2):
        for i in range(n - d):
            a, b = order[i], order[i + d]
            ref[d][0] += 1
            ref[d][1] += int(k[a] == k[b])
            ref[d][2] += int(p[a] == p[b])
    for i, d in enumerate(out["offset"]):
        assert (out["n_pairs"][i], out["n_key_equal"][i],
                out["n_prefix_equal"][i]) == tuple(ref[d])


def test_reciprocal_nn_mutual_only(ray_session, tmp_path):
    """Three vectors where A<->B are mutual best matches and C's best
    is B (not reciprocated): exactly one pair comes back."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.knn import reciprocal_nn_pairs
    vecs = [[1.0, 0.0, 0.0], [0.9, 0.1, 0.0], [0.0, 1.0, 0.2]]
    pq.write_table(pa.table({
        "vec_id": pa.array([0, 1, 2], type=pa.int64()),
        "embedding": pa.array(vecs, type=pa.list_(pa.float32())),
        "label": pa.array([0, 0, 1], type=pa.int32()),
    }), str(tmp_path / "embeddings.parquet"))
    out = reciprocal_nn_pairs(str(tmp_path)).to_pydict()
    assert out["vec_id_a"] == [0] and out["vec_id_b"] == [1]
    q = np.floor(np.asarray(vecs, dtype=np.float32).astype(np.float64)
                 * 1000).astype(np.int64)
    assert out["ip"] == [int((q[0] * q[1]).sum())]


def test_levenshtein_block_matches_scalar_dp():
    """Vectorized batch DP == the textbook scalar DP on UTF-8 bytes
    (DuckDB semantics), including unicode and truncation."""
    from p2pddsketch_ray.pipelines.dedup import _levenshtein_block

    def scalar(a, b):
        x, y = a.encode(), b.encode()
        m, n = len(x), len(y)
        dp = list(range(n + 1))
        for i in range(1, m + 1):
            prev, dp[0] = dp[0], i
            for j in range(1, n + 1):
                cur = min(dp[j] + 1, dp[j - 1] + 1,
                          prev + (x[i - 1] != y[j - 1]))
                prev, dp[j] = dp[j], cur
        return dp[n]

    pairs = [("kitten", "sitting"), ("", "abc"), ("abc", ""),
             ("same", "same"), ("héllo", "hello"),
             ("日本語テキスト", "日本語のテスト"), ("a", "b"),
             ("doc one body", "doc two body")]
    a = np.array([p[0] for p in pairs], dtype=object)
    b = np.array([p[1] for p in pairs], dtype=object)
    got = _levenshtein_block(a, b, max_bytes=80)
    want = [scalar(x, y) for x, y in pairs]
    assert got.tolist() == want


def test_levenshtein_verify_pairs_blocking(ray_session, tmp_path):
    """Only same-key successive doc_ids pair up; distances are exact."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.dedup import levenshtein_verify_pairs
    texts = ["prefix aaaaaaaaaa one", "prefix aaaaaaaaaa twx",
             "prefix bbbbbbbbbb solo", "other cccccccccc x",
             "other cccccccccc y"]
    pq.write_table(pa.table({
        "doc_id": pa.array([1, 2, 3, 4, 5], type=pa.int64()),
        "text": pa.array(texts),
    }), str(tmp_path / "documents.parquet"))
    out = levenshtein_verify_pairs(str(tmp_path)).to_pydict()
    assert out["doc_a"] == [1, 4]
    assert out["doc_b"] == [2, 5]
    # 20-char windows: "...aaaa on" vs "...aaaa tw" -> 2 substitutions;
    # "other cccccccccc x" vs "...y" -> 1
    assert out["lev"] == [2, 1]


def test_ppjoin_matches_bruteforce(ray_session, tmp_path):
    """The prefix filter is lossless: output pairs == brute-force
    Jaccard >= 1/2 pairs on a randomized corpus."""
    import itertools
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.dedup import ppjoin_pairs
    rng = np.random.default_rng(21)
    vocab = [f"w{i}" for i in range(30)]
    texts = []
    for _ in range(40):
        k = int(rng.integers(3, 12))
        toks = rng.choice(vocab, size=k, replace=False)
        texts.append(" ".join(toks))
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(40, dtype=np.int64)),
        "text": pa.array(texts),
    }), str(tmp_path / "documents.parquet"))
    got = ppjoin_pairs(str(tmp_path)).to_pandas()
    got_set = set(zip(got["doc_a"], got["doc_b"]))

    sets = [set(t.split(" ")) for t in texts]
    want = set()
    for a, b in itertools.combinations(range(40), 2):
        inter = len(sets[a] & sets[b])
        uni = len(sets[a] | sets[b])
        if 2 * inter >= uni:
            want.add((a, b))
    assert got_set == want
    for _, r in got.iterrows():
        a, b = int(r["doc_a"]), int(r["doc_b"])
        assert int(r["inter"]) == len(sets[a] & sets[b])
        assert int(r["uni"]) == len(sets[a] | sets[b])


# ---------------------------------------------------------------------------
# passage (chunk) dedup
# ---------------------------------------------------------------------------

def test_chunk_dedup_matches_duckdb(ray_session):
    import duckdb
    from p2pddsketch_ray.pipelines.dedup import (CHUNK_DEDUP_SQL,
                                                 chunk_dedup_stats)
    sf = "/root/testdata/sf0.001"
    got = chunk_dedup_stats(sf).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    want = con.execute(CHUNK_DEDUP_SQL).df()
    assert got["lang"].tolist() == want["lang"].tolist()
    for c in ("n_chunks", "n_kept"):
        assert got[c].astype("int64").tolist() \
            == want[c].astype("int64").tolist(), c
    # global sanity: every lang keeps at most what it emitted, and at
    # least one chunk is deduped away in a token-soup corpus
    assert (got["n_kept"] <= got["n_chunks"]).all()
    assert got["n_kept"].sum() < got["n_chunks"].sum()


def test_chunk_dedup_keeper_is_first_occurrence(ray_session, tmp_path):
    """Two docs share an identical chunk: the smaller (doc_id, chunk_id)
    keeps it and its lang gets the credit."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.dedup import chunk_dedup_stats
    toks = " ".join(f"t{i}" for i in range(16))
    docs = pa.table({
        "doc_id": pa.array([0, 1], type=pa.int64()),
        "lang": pa.array(["de", "en"]),
        # doc 0: unique 16 tokens + the shared chunk; doc 1: only the
        # shared chunk -> doc 1 keeps nothing
        "text": pa.array([" ".join(f"u{i}" for i in range(16))
                          + " " + toks, toks]),
    })
    pq.write_table(docs, tmp_path / "documents.parquet")
    out = chunk_dedup_stats(str(tmp_path)).to_pandas().set_index("lang")
    assert int(out.loc["de", "n_chunks"]) == 2
    assert int(out.loc["de", "n_kept"]) == 2
    assert int(out.loc["en", "n_chunks"]) == 1
    assert int(out.loc["en", "n_kept"]) == 0


def test_oph_signatures_match_reference_kernel():
    """oph_signatures (batch-vectorized) must be bit-identical to a
    per-doc replay of the oracle-verified densified-OPH register math
    (pipelines.dedup.oph_minhash_densified's encode)."""
    from p2pddsketch_ray.sketches.minhash import (oph_signatures,
                                                  shingle_hashes)
    texts = pa.array(["the quick brown fox jumps over the lazy dog",
                      "the quick brown fox jumps over the lazy cat",
                      "completely different content here entirely",
                      "", "tiny", "aaaaaaaaaaaaaaaaaaaaaa"])
    P = 16
    got = oph_signatures(texts, n_bins=P, k=5)
    hv, offs = shingle_hashes(texts, 5)
    U = np.uint64(0xFFFFFFFFFFFFFFFF)
    for d in range(len(texts)):
        h = np.unique(hv[offs[d]:offs[d + 1]])
        regs = np.full(P, U, dtype=np.uint64)
        if h.size == 0:
            assert (got[d] == U).all()
            continue
        b = (h % np.uint64(P)).astype(np.int64)
        np.minimum.at(regs, b, h)
        filled = regs != U
        want = regs.copy()
        for j in range(P):
            if not filled[j]:
                t = 1
                while not filled[(j + t) % P]:
                    t += 1
                with np.errstate(over="ignore"):
                    want[j] = regs[(j + t) % P] + np.uint64(t)
        assert np.array_equal(got[d], want), d


def test_oph_signatures_batching_invariance():
    """Register rows are per-doc functions: one batch == many batches."""
    from p2pddsketch_ray.sketches.minhash import oph_signatures
    from p2pddsketch_ray.sources.webpages import generate_webpages_local
    t = generate_webpages_local(64)["text"]
    whole = oph_signatures(t, n_bins=64, k=9)
    parts = [oph_signatures(t.slice(i, 16), n_bins=64, k=9)
             for i in range(0, 64, 16)]
    assert np.array_equal(whole, np.vstack(parts))


def test_minhash_near_dups_oph_tier_finds_planted_dups(ray_session,
                                                       tmp_path):
    """The oph signature tier must find the fixture's planted near-dups
    end-to-end, with candidate/verify plumbing unchanged."""
    import pyarrow.parquet as pq
    import ray.data
    from p2pddsketch_ray.pipelines.dedup import minhash_near_dups
    from p2pddsketch_ray.sources.webpages import generate_webpages_local

    pages = generate_webpages_local(400)
    p = tmp_path / "pages.parquet"
    pq.write_table(pages.append_column(
        "doc_id", pa.array(np.arange(pages.num_rows), type=pa.int64())),
        str(p))
    ds = ray.data.read_parquet(str(p), columns=["doc_id", "text"],
                               override_num_blocks=4)
    out = minhash_near_dups(ds, "doc_id", "text", threshold=0.7,
                            signature_tier="oph").to_pandas()
    classic = minhash_near_dups(ds, "doc_id", "text",
                                threshold=0.7).to_pandas()
    assert len(out) > 0
    assert (out["doc_a"] < out["doc_b"]).all()
    # both tiers estimate the same Jaccard; their >=0.7 pair sets agree
    # on the overwhelming majority (estimator variance differs slightly)
    po = set(zip(out["doc_a"], out["doc_b"]))
    pc_ = set(zip(classic["doc_a"], classic["doc_b"]))
    inter = len(po & pc_)
    assert inter / max(len(po | pc_), 1) >= 0.8, (len(po), len(pc_), inter)

    import pytest
    with pytest.raises(ValueError):
        minhash_near_dups(ds, "doc_id", "text", signature_tier="nope")


def test_weighted_minhash_matches_duckdb(ray_session):
    import duckdb
    from p2pddsketch_ray.pipelines.dedup import (WEIGHTED_MINHASH_SQL,
                                                 weighted_minhash_pairs)
    sf = "/root/testdata/sf0.001"
    got = weighted_minhash_pairs(sf).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    want = con.execute(WEIGHTED_MINHASH_SQL).df()
    assert len(got) == len(want)
    for c in got.columns:
        assert (got[c].to_numpy()
                == want[c].to_numpy().astype(got[c].dtype)).all(), c


def test_weighted_minhash_rejects_fpm_collision():
    """Two distinct tokens whose md5_64 values meet mod P53 would merge in
    the exact weighted Jaccard and the SQL twin's join: they raise."""
    from p2pddsketch_ray.pipelines.dedup import _WMH_P53, _wmh_fpm
    fp = np.array([12345, 7, 12345 + _WMH_P53], dtype=np.uint64)
    with pytest.raises(ValueError, match="fpm"):
        _wmh_fpm(fp)
    assert _wmh_fpm(fp[:2]).tolist() == [12345, 7]


def test_weighted_minhash_estimator_semantics():
    """Identical docs estimate 1.0; the expansion reduction is exact:
    a doc vs itself-with-doubled-counts has weighted Jaccard 1/2."""
    import pyarrow.parquet as pq
    import tempfile, os
    from p2pddsketch_ray.pipelines.dedup import weighted_minhash_pairs
    with tempfile.TemporaryDirectory() as d:
        text = "alpha beta beta gamma gamma gamma"
        double = "alpha alpha beta beta beta beta " \
                 "gamma gamma gamma gamma gamma gamma"
        pq.write_table(pa.table({
            "doc_id": pa.array([0, 1, 2], type=pa.int64()),
            "text": pa.array([text, text, double]),
        }), os.path.join(d, "documents.parquet"))
        out = weighted_minhash_pairs(d, num_hashes=256).to_pandas()
        by_pair = {(r.doc_a, r.doc_b): r for r in out.itertuples()}
        # identical docs: every register matches, exact wj = 1
        assert by_pair[(0, 1)].matches == 256
        assert by_pair[(0, 1)].exact_wjaccard_ppm == 1_000_000
        # doubled counts: exact weighted Jaccard = 6/12 = 0.5, and the
        # 256-register estimate lands near it
        assert by_pair[(0, 2)].exact_wjaccard_ppm == 500_000
        est = by_pair[(0, 2)].est_wjaccard_ppm
        assert 350_000 <= est <= 650_000, est
