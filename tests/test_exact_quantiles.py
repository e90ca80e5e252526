"""Exact distributed quantiles (histogram bisection) vs sort-based oracles.

The operator (pipelines.quantiles.exact_quantiles) must return the actual
data element at 0-based rank max(0, ceil(q*n)-1) -- DuckDB's
``quantile_disc`` semantics -- for any float64 column, without a global
sort.  Verified here against numpy selection and DuckDB directly, across
collect limits that force 0, 1 and multiple bisection rounds.
"""

import duckdb
import numpy as np
import pyarrow as pa
import pytest

from p2pddsketch_ray.pipelines.quantiles import (
    _float_order_keys, _key_to_float, exact_quantiles,
    exact_quantiles_grouped)

QS = (0.01, 0.25, 0.5, 0.75, 0.99)


def _np_quantile_disc(vals: np.ndarray, q: float) -> float:
    s = np.sort(vals)
    r = max(0, int(np.ceil(q * s.shape[0])) - 1)
    return float(s[min(r, s.shape[0] - 1)])


def _make_ds(vals: np.ndarray, blocks: int = 8):
    import ray.data
    t = pa.table({"x": pa.array(vals, type=pa.float64())})
    return ray.data.from_arrow(t).repartition(blocks)


def test_order_key_roundtrip_and_order():
    rng = np.random.default_rng(0)
    v = np.concatenate([rng.normal(0, 1e6, 500), [-0.0, 0.0, 1e-300,
                                                  -1e-300, 1e300, -1e300]])
    keys = _float_order_keys(v)
    # key order == value order (total order over non-NaN floats)
    order_v = np.argsort(v, kind="stable")
    assert np.array_equal(np.sort(keys), keys[order_v])
    # roundtrip: every key decodes back to a bit-equal float (modulo -0.0,
    # which shares its order slot with +0.0 only if keys differ -- they do)
    for x in [1.5, -1.5, 0.0, 1e300, -1e-300]:
        k = int(_float_order_keys(np.array([x]))[0])
        assert _key_to_float(k) == x


@pytest.mark.parametrize("collect_limit", [10**9, 200, 8])
def test_exact_quantiles_matches_numpy(ray_session, collect_limit):
    rng = np.random.default_rng(42)
    vals = np.concatenate([
        rng.lognormal(8, 2, 3000),            # heavy tail
        -rng.exponential(100, 1000),          # negatives
        np.zeros(50),                         # zeros
        np.repeat(1234.5678, 500),            # heavy duplicates
    ])
    rng.shuffle(vals)
    out = exact_quantiles(_make_ds(vals), "x", QS,
                          collect_limit=collect_limit, bins=64)
    got = dict(zip(out["q"].to_pylist(), out["value"].to_pylist()))
    for q in QS:
        assert got[q] == _np_quantile_disc(vals, q), q


def test_exact_quantiles_matches_duckdb(ray_session):
    rng = np.random.default_rng(7)
    vals = np.round(rng.normal(1000, 300, 5000), 2)
    out = exact_quantiles(_make_ds(vals), "x", QS, collect_limit=300,
                          bins=32)
    con = duckdb.connect()
    con.register("t", pa.table({"x": vals}))
    for q, v in zip(out["q"].to_pylist(), out["value"].to_pylist()):
        exp = con.execute("SELECT quantile_disc(x, ?) FROM t",
                          [q]).fetchone()[0]
        assert v == exp, q
    con.close()


@pytest.mark.parametrize("collect_limit", [10**9, 50])
def test_exact_quantiles_grouped_matches_numpy(ray_session, collect_limit):
    import ray.data
    rng = np.random.default_rng(3)
    groups = rng.choice(["a", "b", "c"], 6000, p=[0.7, 0.2, 0.1])
    vals = np.where(groups == "a", rng.lognormal(5, 1, 6000),
                    rng.normal(0, 50, 6000))
    t = pa.table({"g": pa.array(groups), "x": pa.array(vals)})
    ds = ray.data.from_arrow(t).repartition(8)
    qs = (0.1, 0.5, 0.9)
    out = exact_quantiles_grouped(ds, "x", "g", qs,
                                  collect_limit=collect_limit, bins=32)
    got = {(g, q): v for g, q, v in zip(out["g"].to_pylist(),
                                        out["q"].to_pylist(),
                                        out["value"].to_pylist())}
    assert len(got) == 9
    for g in ("a", "b", "c"):
        sub = vals[groups == g]
        for q in qs:
            assert got[(g, q)] == _np_quantile_disc(sub, q), (g, q)


def test_exact_quantiles_all_equal_and_tiny(ray_session):
    out = exact_quantiles(_make_ds(np.repeat(3.25, 100), blocks=4), "x",
                          (0.0, 0.5, 1.0), collect_limit=5, bins=8)
    assert out["value"].to_pylist() == [3.25, 3.25, 3.25]
    out2 = exact_quantiles(_make_ds(np.array([2.0]), blocks=1), "x",
                           (0.5,), collect_limit=10**9)
    assert out2["value"].to_pylist() == [2.0]


def test_user_activity_quartiles_matches_duckdb(ray_session):
    duckdb = pytest.importorskip("duckdb")
    from p2pddsketch_ray.pipelines.relational import (
        USER_ACTIVITY_QUARTILES_SQL, user_activity_quartiles)
    sf = "/root/testdata/sf0.001"
    got = user_activity_quartiles(sf).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    want = con.execute(USER_ACTIVITY_QUARTILES_SQL).df()
    assert got.equals(want.reset_index(drop=True))
    # cohort invariants: buckets partition all users; ranges are ordered
    # and non-overlapping (value-based thresholds, deterministic ties)
    n_users = con.execute(
        "SELECT count(DISTINCT user_id) FROM events").fetchone()[0]
    assert got["n_users"].sum() == n_users
    assert (got["min_events"] <= got["max_events"]).all()
    assert (got["max_events"].to_numpy()[:-1]
            <= got["min_events"].to_numpy()[1:]).all()


def test_sketch_cdf_by_type_matches_duckdb_and_centers(ray_session):
    duckdb = pytest.importorskip("duckdb")
    import __ray_entry__ as E
    from p2pddsketch_ray.pipelines.quantiles import sketch_cdf_by_type
    sf = "/root/testdata/sf0.001"
    got = sketch_cdf_by_type(sf, alpha=0.01, bin_limit=2048).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    want = con.execute(E.oracle_sql()["sketch_cdf_by_type"]).df()
    assert got.equals(want.reset_index(drop=True))
    # the mean inclusive cumulative rank of a whole dataset is ~n/2
    n = got["n_events"].sum()
    mean_pct = got["sum_cum"].sum() / (n * n)
    assert 0.45 < mean_pct < 0.56


def test_drift_stats_pairs_matches_duckdb_and_scipy_free_ks(ray_session):
    duckdb = pytest.importorskip("duckdb")
    import __ray_entry__ as E
    from p2pddsketch_ray.pipelines.quantiles import drift_stats_pairs
    sf = "/root/testdata/sf0.001"
    got = drift_stats_pairs(sf, alpha=0.01, bin_limit=2048).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    want = con.execute(E.oracle_sql()["drift_stats_pairs"]).df()
    assert got.equals(want.reset_index(drop=True))
    # the sketch-level KS tracks the exact empirical KS within alpha-ish
    # bucket granularity: compare against a brute-force per-pair KS
    df = con.execute("SELECT event_type, value FROM events "
                     "WHERE value IS NOT NULL").df()
    for r in got.itertuples():
        a = np.sort(df[df.event_type == r.type_a]["value"].to_numpy())
        b = np.sort(df[df.event_type == r.type_b]["value"].to_numpy())
        grid = np.concatenate([a, b])
        ca = np.searchsorted(a, grid, side="right") / a.shape[0]
        cb = np.searchsorted(b, grid, side="right") / b.shape[0]
        exact_ks = np.abs(ca - cb).max()
        sketch_ks = r.ks_num / (r.n_a * r.n_b)
        assert abs(sketch_ks - exact_ks) < 0.05


def test_mad_by_flag_matches_duckdb_and_tracks_exact(ray_session):
    duckdb = pytest.importorskip("duckdb")
    import __ray_entry__ as E
    from p2pddsketch_ray.pipelines.quantiles import mad_by_flag
    sf = "/root/testdata/sf0.001"
    got = mad_by_flag(sf, alpha=0.01, bin_limit=2048).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW lineitem AS SELECT * FROM "
                f"read_parquet('{sf}/lineitem.parquet')")
    want = con.execute(E.oracle_sql()["mad_by_flag"]).df()
    assert got.equals(want.reset_index(drop=True))
    # sketch MAD tracks the exact MAD within the alpha relative bound
    # (residual pass compounds two alpha-bounded estimates: allow 3x)
    exact = con.execute("""
        SELECT l_returnflag AS g, median(l_extendedprice) AS med,
               median(abs(l_extendedprice -
                   (SELECT median(l_extendedprice) FROM lineitem l2
                    WHERE l2.l_returnflag = lineitem.l_returnflag)))
                   AS mad
        FROM lineitem GROUP BY 1 ORDER BY 1""").df()
    rel_med = abs(got["est_median"].to_numpy()
                  - exact["med"].to_numpy()) / exact["med"].to_numpy()
    rel_mad = abs(got["est_mad"].to_numpy()
                  - exact["mad"].to_numpy()) / exact["mad"].to_numpy()
    assert rel_med.max() < 0.01 * 1.01
    assert rel_mad.max() < 0.03


def test_dds_rollup_merged_level_equals_direct_build(ray_session):
    duckdb = pytest.importorskip("duckdb")
    import __ray_entry__ as E
    from p2pddsketch_ray.pipelines.quantiles import (dds_quantiles_grouped,
                                                     dds_rollup_lang_source)
    import ray.data
    sf = "/root/testdata/sf0.001"
    got = dds_rollup_lang_source(sf, alpha=0.01,
                                 bin_limit=2048).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    want = con.execute(E.oracle_sql()["dds_rollup_lang_source"]).df()
    assert got.equals(want.reset_index(drop=True))
    # the merged 'ALL' level == a direct per-lang build from the raw
    # data (the merge-associativity contract, exercised end-to-end)
    direct = (dds_quantiles_grouped(
        ray.data.read_parquet(f"{sf}/documents.parquet",
                              columns=["lang", "n_chars"]),
        "n_chars", ["lang"], (0.5, 0.95), alpha=0.01, bin_limit=2048,
        round_digits=6).to_pandas()
        .sort_values(["lang", "q"]).reset_index(drop=True))
    rolled = (got[got.source == "ALL"]
              .sort_values(["lang", "q"]).reset_index(drop=True))
    assert (rolled["est"].to_numpy()
            == direct["est"].to_numpy()).all()


def test_quantile_error_report_matches_duckdb_and_meets_alpha(ray_session):
    duckdb = pytest.importorskip("duckdb")
    import __ray_entry__ as E
    from p2pddsketch_ray.pipelines.quantiles import quantile_error_report
    sf = "/root/testdata/sf0.001"
    got = quantile_error_report(sf, alpha=0.01, bin_limit=2048).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW lineitem AS SELECT * FROM "
                f"read_parquet('{sf}/lineitem.parquet')")
    want = con.execute(E.oracle_sql()["quantile_error_report"]).df()
    assert got.equals(want.reset_index(drop=True))
    # the reference's guarantee, machine-checked: rel err <= alpha
    assert (got["rel_err_ppm"] <= 10_000).all()


def test_weighted_median_matches_repetition_expansion(ray_session):
    """The quantity-weighted median equals the plain median of the
    weight-expanded multiset (each row repeated quantity times)."""
    import duckdb
    from p2pddsketch_ray.pipelines.quantiles import weighted_median_by_flag
    sf = "/root/testdata/sf0.001"
    got = weighted_median_by_flag(sf).to_pandas()
    con = duckdb.connect()
    want = con.execute(f"""
        WITH expanded AS (
          SELECT l_returnflag, l_extendedprice
          FROM read_parquet('{sf}/lineitem.parquet')
          JOIN range(0, 64) r ON r.range < CAST(l_quantity AS BIGINT)
        )
        SELECT l_returnflag,
               CAST(count(*) AS BIGINT) AS total_weight,
               quantile_disc(l_extendedprice, 0.5) AS med
        FROM expanded GROUP BY 1 ORDER BY 1""").df()
    assert list(got["l_returnflag"]) == list(want["l_returnflag"])
    assert list(got["total_weight"]) == list(want["total_weight"])
    for g, w in zip(got["weighted_median"], want["med"]):
        assert g == w


def test_alpha_sweep_errors_within_bounds(ray_session, tmp_path):
    """Every alpha's estimate is within its own bound, and the p95
    audit agrees with an exact numpy quantile."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.quantiles import dds_alpha_error_sweep
    rng = np.random.default_rng(3)
    vals = np.abs(rng.lognormal(4, 1, size=20_000)) + 1.0
    pq.write_table(pa.table({"l_extendedprice": pa.array(vals)}),
                   str(tmp_path / "lineitem.parquet"))
    out = dds_alpha_error_sweep(str(tmp_path)).to_pandas()
    assert list(out["alpha_micro"]) == [20000, 10000, 5000]
    assert (out["within_alpha"] == 1).all()
    # exact column equals the quantile_disc rank element
    n = vals.size
    r = max(0, int(np.ceil(0.95 * n)) - 1)
    assert abs(out["exact"].iloc[0] - np.sort(vals)[r]) < 1e-9
    assert (out["rel_err_micro"] <= out["alpha_micro"]).all()


def test_exact_rank_select_matches_sort(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data
    from p2pddsketch_ray.pipelines.quantiles import exact_rank_select
    rng = np.random.default_rng(21)
    vals = rng.normal(1000, 50, 20_000)
    ds = ray.data.from_arrow(pa.table({"v": vals})).repartition(8)
    s = np.sort(vals)
    ranks = [0, 1, 17, 4_000, 19_998, 19_999]
    got = exact_rank_select(ds, "v", ranks)
    assert got == [float(s[r]) for r in ranks]


def test_dgim_closed_form_equals_simulation():
    from collections import defaultdict

    def sim(n, r=2):
        digits = defaultdict(int)
        for _ in range(n):
            digits[0] += 1
            j = 0
            while digits[j] > r:
                digits[j] -= 2
                digits[j + 1] += 1
                j += 1
        out = [digits[j] for j in range(max(digits) + 1)]
        while out and out[-1] == 0:
            out.pop()
        return out

    def closed(n):
        m = 1
        while not ((1 << m) - 1 <= n <= 2 * ((1 << m) - 1)):
            m += 1
        extra = n - ((1 << m) - 1)
        return [1 + ((extra >> j) & 1) for j in range(m)]

    for n in list(range(1, 300)) + [1023, 1024, 4097, 99_999]:
        assert sim(n) == closed(n), n


def test_dgim_sliding_count_bound(ray_session):
    from p2pddsketch_ray.pipelines.sliding import dgim_sliding_count
    t = dgim_sliding_count("/root/testdata/sf0.001").to_pydict()
    assert t["bound_ok"] == [True] * len(t["window_hours"])
    for est, ex in zip(t["dgim_estimate"], t["exact_count"]):
        assert abs(est - ex) <= ex // 2 + 1


def test_exact_stats_above_2_63(ray_session):
    """Positive values have order keys >= 2^63.  The stats pass merges
    them as uint64 (Ray's int64 aggregates logged a conversion traceback
    and fell back to pickles), and every exact answer is unchanged."""
    import ray.data

    from p2pddsketch_ray.pipelines.quantiles import (
        _order_key_stats, exact_rank_select, exact_weighted_median_grouped)
    rng = np.random.default_rng(5)
    n = 5000
    vals = rng.lognormal(3, 1, n)
    assert (_float_order_keys(vals) >= np.uint64(2**63)).all()
    g = rng.choice(["a", "b"], n)
    w = rng.integers(0, 5, n).astype(np.float64)
    ds = ray.data.from_arrow(pa.table({"x": vals, "g": g, "w": w})
                             ).repartition(4)
    keys = _float_order_keys(vals)
    [row] = _order_key_stats(ds, "x")
    assert (row["n"], row["kmin"], row["kmax"]) == (
        n, int(keys.min()), int(keys.max()))
    rows = sorted(_order_key_stats(ds, "x", "g"), key=lambda r: r["g"])
    assert [(r["g"], r["n"], r["kmin"], r["kmax"]) for r in rows] == [
        (gv, int((g == gv).sum()), int(keys[g == gv].min()),
         int(keys[g == gv].max())) for gv in ("a", "b")]
    kw = dict(collect_limit=50, bins=16)
    out = exact_quantiles(ds, "x", QS, **kw)
    assert out["value"].to_pylist() == [_np_quantile_disc(vals, q)
                                        for q in QS]
    s = np.sort(vals)
    assert exact_rank_select(ds, "x", [0, 10, n - 1], **kw) == [
        s[0], s[10], s[n - 1]]
    out = exact_quantiles_grouped(ds, "x", "g", [0.5], **kw)
    assert out["g"].to_pylist() == ["a", "b"]
    for gv, v in zip(out["g"].to_pylist(), out["value"].to_pylist()):
        assert v == _np_quantile_disc(vals[g == gv], 0.5)
    medians = exact_weighted_median_grouped(ds, "x", "w", "g", **kw)
    assert sorted(medians) == ["a", "b"]
    for gv, (W, med) in medians.items():
        order = np.argsort(vals[g == gv])
        cum = np.cumsum(w[g == gv][order]).astype(np.int64)
        assert W == cum[-1]
        assert med == vals[g == gv][order][np.searchsorted(cum,
                                                           (W + 1) // 2)]
