"""Scale contracts: the dedup pipelines must never materialize an
O(corpus)/O(candidates) id set on the driver (VERDICT r2 findings 1-2).

The contract is asserted mechanically: ``Dataset.to_arrow_refs`` (the
only driver-collection entry point these pipelines ever used) is patched
to raise for the duration of the pipeline, so any regression that
re-introduces a driver-side collect fails loudly while the semi-join
dataflow passes.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


@contextlib.contextmanager
def forbid_driver_collect():
    import ray.data

    def boom(self, *a, **k):
        raise AssertionError(
            "to_arrow_refs called: pipeline materialized a dataset on "
            "the driver")

    orig = ray.data.Dataset.to_arrow_refs
    ray.data.Dataset.to_arrow_refs = boom
    try:
        yield
    finally:
        ray.data.Dataset.to_arrow_refs = orig


def test_dedup_exact_keep_stays_in_cluster(ray_session):
    from p2pddsketch_ray.pipelines.relational import dedup_exact_keep
    with forbid_driver_collect():
        out = dedup_exact_keep(SF, hash_tier="md5").to_pandas()
    import duckdb
    want = duckdb.sql(f"""
        SELECT doc_id FROM read_parquet('{SF}/documents.parquet')
        WHERE doc_id IN (SELECT min(doc_id)
                         FROM read_parquet('{SF}/documents.parquet')
                         GROUP BY md5(text))""").df()
    assert sorted(out["doc_id"]) == sorted(want["doc_id"])
    assert list(out.columns) == ["doc_id", "lang", "n_chars"]


def test_dedup_exact_docs_stays_in_cluster(ray_session):
    from p2pddsketch_ray.pipelines.relational import dedup_exact_docs
    with forbid_driver_collect():
        out = dedup_exact_docs(SF, hash_tier="md5").to_pandas()
    import duckdb
    want = duckdb.sql(f"""
        SELECT md5(text) AS text_md5, min(doc_id) AS first_doc_id,
               count(*) AS dup_count
        FROM read_parquet('{SF}/documents.parquet') GROUP BY 1""").df()
    key = ["text_md5"]
    assert (out.sort_values(key).reset_index(drop=True)
            .equals(want.sort_values(key).reset_index(drop=True)))


def test_dedup_hash_tiers_agree(ray_session):
    """The fp64 fast tier must produce the same dedup groups as the md5
    oracle tier on collision-free data (the 100 TB default is fp64)."""
    from p2pddsketch_ray.pipelines.relational import (dedup_exact_docs,
                                                      dedup_exact_keep)
    md5 = dedup_exact_docs(SF, hash_tier="md5").to_pandas()
    fp = dedup_exact_docs(SF).to_pandas()  # default tier
    assert "text_fp64" in fp.columns and "text_md5" in md5.columns
    a = md5[["first_doc_id", "dup_count"]].sort_values(
        "first_doc_id").reset_index(drop=True)
    b = fp[["first_doc_id", "dup_count"]].sort_values(
        "first_doc_id").reset_index(drop=True)
    assert a.equals(b)
    keep_md5 = dedup_exact_keep(SF, hash_tier="md5").to_pandas()
    keep_fp = dedup_exact_keep(SF).to_pandas()
    assert sorted(keep_md5["doc_id"]) == sorted(keep_fp["doc_id"])


@contextlib.contextmanager
def record_put_types(types_out: list):
    """Spy on driver-side ray.put: broadcast payloads must be numpy
    arrays (or tuples of them), NEVER a corpus-derived Python dict
    (VERDICT r3 item 1)."""
    import ray

    orig = ray.put

    def spy(obj, *a, **k):
        types_out.append(type(obj))
        return orig(obj, *a, **k)

    ray.put = spy
    try:
        yield
    finally:
        ray.put = orig


def test_ppjoin_fully_distributed_and_exact(ray_session):
    """ppjoin must run with zero driver-side dataset collects and zero
    ray.put broadcasts (rank/size/candidate state all rides joins), and
    still equal the brute-force all-pairs oracle."""
    import duckdb
    from p2pddsketch_ray.pipelines.dedup import ppjoin_pairs
    puts: list = []
    with forbid_driver_collect(), record_put_types(puts):
        out = ppjoin_pairs(SF).to_pandas()
    assert not any(issubclass(t, dict) for t in puts), puts
    want = duckdb.sql(f"""
        WITH toks AS (
          SELECT DISTINCT doc_id, unnest(string_split(text, ' ')) AS tok
          FROM read_parquet('{SF}/documents.parquet') WHERE doc_id < 300
        ), sz AS (
          SELECT doc_id, count(*) AS n FROM toks GROUP BY 1
        ), inter AS (
          SELECT x.doc_id AS a, y.doc_id AS b, count(*) AS i
          FROM toks x JOIN toks y ON x.tok = y.tok AND x.doc_id < y.doc_id
          GROUP BY 1, 2
        )
        SELECT a, b, i, sa.n + sb.n - i AS uni FROM inter
        JOIN sz sa ON sa.doc_id = a JOIN sz sb ON sb.doc_id = b
        WHERE 2 * i >= sa.n + sb.n - i ORDER BY 1, 2""").df()
    assert len(out) == len(want)
    assert (out["doc_a"].to_numpy() == want["a"].to_numpy()).all()
    assert (out["doc_b"].to_numpy() == want["b"].to_numpy()).all()
    assert (out["inter"].to_numpy() == want["i"].to_numpy()).all()
    assert (out["uni"].to_numpy() == want["uni"].to_numpy()).all()


def test_lexical_sophistication_broadcast_is_arrays(ray_session):
    """The global token-rank map must be broadcast as numpy arrays
    (sorted fp + aligned rank), never a Python dict, and stay exact."""
    import duckdb
    from p2pddsketch_ray.pipelines.relational import (
        lexical_sophistication_by_source)
    puts: list = []
    with record_put_types(puts):
        out = lexical_sophistication_by_source(SF).to_pandas()
    # Ray Data itself puts ReadTask objects; the contract is about the
    # library's broadcast payloads: at least one tuple-of-arrays (the
    # rank map), zero dicts of any kind.
    assert any(issubclass(t, tuple) for t in puts), puts
    assert not any(issubclass(t, dict) for t in puts), puts
    want = duckdb.sql(f"""
        WITH toks AS (
          SELECT source, unnest(string_split(text, ' ')) AS tok
          FROM read_parquet('{SF}/documents.parquet')
        ), freq AS (
          SELECT tok, count(*) AS n FROM toks GROUP BY 1
        ), ranked AS (
          SELECT tok, row_number() OVER (ORDER BY n DESC, tok) - 1 AS r
          FROM freq
        )
        SELECT toks.source, CAST(count(*) AS BIGINT) AS n_tokens,
               CAST(sum(ranked.r) * 1000000 // count(*) AS BIGINT)
                 AS mean_rank_micro
        FROM toks JOIN ranked USING (tok) GROUP BY 1 ORDER BY 1""").df()
    assert len(out) == len(want)
    assert (out["n_tokens"].to_numpy()
            == want["n_tokens"].to_numpy()).all()
    assert (out["mean_rank_micro"].to_numpy()
            == want["mean_rank_micro"].to_numpy()).all()


def test_minhash_candidates_stay_in_cluster(ray_session, tmp_path):
    import pyarrow.parquet as pq
    import ray.data
    from p2pddsketch_ray.pipelines.dedup import minhash_near_dups
    from p2pddsketch_ray.sources.webpages import generate_webpages_local
    pages = generate_webpages_local(2_000, seed=42)
    p = tmp_path / "pages.parquet"
    pq.write_table(pages.append_column(
        "doc_id", pa.array(np.arange(pages.num_rows), type=pa.int64())),
        str(p))
    ds = ray.data.read_parquet(str(p), columns=["doc_id", "text"],
                               override_num_blocks=8)
    with forbid_driver_collect():
        out = minhash_near_dups(ds, "doc_id", "text",
                                threshold=0.7).to_pandas()
    # planted near-dups at i%37==1 (see sources/webpages.py) must be found
    assert len(out) > 0
    assert (out["doc_a"] < out["doc_b"]).all()


def test_priority_sample_exchange_is_topk_bounded(ray_session):
    # the ONLY rows that leave a block are its top-(k+1) priority
    # candidates plus one exact-sum row per segment -- never the order
    # stream (the distributed top-k prereduce contract), and folding
    # block partials reproduces the single-pass answer
    import pyarrow as pa

    from p2pddsketch_ray.pipelines.approx import (_priority_block_partial,
                                                  priority_sample_revenue)

    rng = np.random.default_rng(3)
    n = 20_000
    segs = np.array(["1-URGENT", "2-HIGH", "3-MEDIUM"])
    big = pa.table({
        "o_orderkey": pa.array(np.arange(n, dtype=np.int64)),
        "o_orderpriority": pa.array(segs[rng.integers(0, 3, n)]),
        "o_totalprice": pa.array(rng.uniform(1.0, 500_000.0, n)),
    })
    out = _priority_block_partial(big, 50)
    # 51 candidates + <= 3 segment rows from a 20k-row block
    assert out.num_rows <= 51 + 3, out.num_rows
    assert out.num_rows < big.num_rows

    # end-to-end: the real pipeline still matches its own kernel math
    res = priority_sample_revenue(SF, k=50).to_pandas()
    assert int(res["n_sampled"].sum()) == 50
    assert (res["exact_cents"] > 0).all()


def test_verify_tier_kernels_have_no_row_loops():
    """VERDICT r4 item 4: the batch kernels of the bounded verify-tier
    dedup queries must be vectorized — no per-row Python loop over
    t.num_rows and no corpus-derived dict probed row-at-a-time.  A
    source-level contract so regressions fail loudly."""
    import inspect

    from p2pddsketch_ray.pipelines import dedup

    for fn in (dedup.ngram_jaccard_pairs, dedup.bbit_minhash_jaccard,
               dedup.oph_minhash_densified,
               dedup._distinct_shingles_per_doc):
        src = inspect.getsource(fn)
        assert "for i in range(t.num_rows)" not in src, fn.__name__
        assert "size_of = dict(" not in src, fn.__name__
        assert "dict(zip(" not in src, fn.__name__


def test_distinct_shingles_per_doc_matches_np_unique():
    """The lexsort run-dedup kernel must produce exactly the per-doc
    np.unique sets it replaced (as sets; int64-view order)."""
    from p2pddsketch_ray.pipelines.dedup import _distinct_shingles_per_doc
    from p2pddsketch_ray.sketches.minhash import shingle_hashes

    texts = pa.array(["abcabcabc", "zzzzzzzzzzz", "the quick brown fox",
                      "abcabcabc", "ab"])
    hv, offs = shingle_hashes(texts, 3)
    d_u, h_u, col = _distinct_shingles_per_doc(hv, offs, len(texts))
    assert col.to_pylist() is not None
    for d in range(len(texts)):
        want = sorted(np.unique(hv[offs[d]:offs[d + 1]])
                      .view(np.int64).tolist())
        got = sorted(col[d].as_py())
        assert got == want, d
        assert sorted(h_u[d_u == d].tolist()) == want, d
