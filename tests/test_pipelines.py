"""End-to-end Ray Data pipeline tests against exact oracles on the driver
testdata (TESTDATA.md) -- the distributed analog of the reference's
testQuantile harness (main.cpp:1041-1082)."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from p2pddsketch_ray.config import PRACTICAL_ALPHA
from p2pddsketch_ray.pipelines.quantiles import (dds_quantiles_global,
                                                 dds_quantiles_grouped,
                                                 dds_sketch_global)
from p2pddsketch_ray.sketches.ddsketch import DDSketch

from .test_ddsketch import exact_quantile, rel_err

SF = "/root/testdata/sf0.001"
SF_01 = "/root/testdata/sf0.01"
QS = (0.1, 0.5, 0.9, 0.99)


@pytest.fixture(scope="module")
def lineitem_ds(ray_session):
    import ray.data
    return ray.data.read_parquet(f"{SF}/lineitem.parquet",
                                 columns=["l_extendedprice", "l_returnflag"])


def test_global_quantiles_match_oracle(lineitem_ds):
    vals = pq.read_table(f"{SF}/lineitem.parquet",
                         columns=["l_extendedprice"])["l_extendedprice"].to_numpy()
    out = dds_quantiles_global(lineitem_ds, "l_extendedprice", QS,
                               alpha=PRACTICAL_ALPHA)
    for q, est in zip(out["q"].to_pylist(), out["est"].to_pylist()):
        real = exact_quantile(vals, q)
        assert rel_err(est, real) <= PRACTICAL_ALPHA + 1e-12


def test_distributed_equals_local_bit_identical(lineitem_ds):
    """The Ray-built merged sketch must be bit-identical to a sketch built
    sequentially over the same values -- merge-order independence across
    real block boundaries."""
    vals = pq.read_table(f"{SF}/lineitem.parquet",
                         columns=["l_extendedprice"])["l_extendedprice"].to_numpy()
    local = DDSketch(alpha=PRACTICAL_ALPHA)
    local.add_batch(vals.astype(np.float64))
    dist = dds_sketch_global(lineitem_ds, "l_extendedprice",
                             alpha=PRACTICAL_ALPHA)
    assert dist.to_bytes() == local.to_bytes()


def test_global_merge_never_folds_on_driver(ray_session, monkeypatch):
    """The global path is a distributed tree reduce: block merges run in
    workers and the driver folds at most ``fanin`` (32) leaf rows -- a
    constant independent of input block count, never one per block
    (workers are separate processes; the patched counter only observes
    driver-side calls)."""
    import ray.data
    calls = {"n": 0}
    orig = DDSketch.merge

    def counting(self, other):
        calls["n"] += 1
        return orig(self, other)

    monkeypatch.setattr(DDSketch, "merge", counting)
    ds = ray.data.read_parquet(f"{SF}/lineitem.parquet",
                               columns=["l_extendedprice"],
                               override_num_blocks=64)
    dist = dds_sketch_global(ds, "l_extendedprice", alpha=PRACTICAL_ALPHA)
    assert calls["n"] < 32, calls["n"]
    vals = pq.read_table(f"{SF}/lineitem.parquet",
                         columns=["l_extendedprice"])["l_extendedprice"].to_numpy()
    local = DDSketch(alpha=PRACTICAL_ALPHA)
    local.add_batch(vals.astype(np.float64))
    assert dist.to_bytes() == local.to_bytes()


def test_grouped_quantiles_match_per_group_oracle(lineitem_ds):
    t = pq.read_table(f"{SF}/lineitem.parquet",
                      columns=["l_extendedprice", "l_returnflag"])
    df = t.to_pandas()
    out = dds_quantiles_grouped(lineitem_ds, "l_extendedprice",
                                ["l_returnflag"], QS,
                                alpha=PRACTICAL_ALPHA).to_pandas()
    assert set(out["l_returnflag"]) == set(df["l_returnflag"])
    for (_, row) in out.iterrows():
        grp = df[df["l_returnflag"] == row["l_returnflag"]]["l_extendedprice"].to_numpy()
        real = exact_quantile(grp, row["q"])
        assert rel_err(row["est"], real) <= PRACTICAL_ALPHA + 1e-12, (
            row["l_returnflag"], row["q"])


def test_null_values_dropped(ray_session):
    import ray.data
    import pandas as pd
    df = pd.DataFrame({"v": [1.0, None, 2.0, 3.0, None], "g": list("aabab")})
    ds = ray.data.from_pandas(df)
    s = dds_sketch_global(ds, "v", alpha=PRACTICAL_ALPHA)
    assert s.n == 3


def test_events_sessionized_edges(ray_session, tmp_path):
    """Gap-based sessionization edge cases: gap exactly == threshold is
    NOT a new session (strict >), user changes always start one."""
    import pyarrow as pa
    from p2pddsketch_ray.pipelines.relational import events_sessionized
    M = 60 * 1_000_000  # one minute in us
    rows = [  # (user, minute)
        (1, 0), (1, 10), (1, 50),      # 40min gap -> 2 sessions
        (2, 5),                        # singleton -> 1 session
        (3, 0), (3, 30),               # exactly 30min -> still 1 session
        (4, 0), (4, 31),               # 31min -> 2 sessions
    ]
    t = pa.table({
        "user_id": pa.array([u for u, _ in rows], type=pa.int64()),
        "ts": pa.array([m * M for _, m in rows],
                       type=pa.timestamp("us")),
    })
    pq.write_table(t, str(tmp_path / "events.parquet"))
    out = events_sessionized(str(tmp_path), gap_minutes=30).to_pandas()
    got = dict(zip(out["user_id"], out["n_sessions"]))
    assert got == {1: 2, 2: 1, 3: 1, 4: 2}
    ev = dict(zip(out["user_id"], out["n_events"]))
    assert ev == {1: 3, 2: 1, 3: 2, 4: 2}


def test_sliding_window_quantiles_accuracy(ray_session):
    """Sliding-window sketch answers match exact trailing-window
    quantiles within alpha, and window counts are exact (turnstile
    add/delete of whole hour buckets is lossless)."""
    import pyarrow as pa
    import ray.data
    from p2pddsketch_ray.pipelines.sliding import sliding_window_quantiles
    sf = "/root/testdata/sf0.001"
    out = sliding_window_quantiles(
        ray.data.read_parquet(f"{sf}/events.parquet",
                              columns=["ts", "value"]),
        "ts", "value", window_hours=24, quantiles=(0.5, 0.95),
        alpha=0.01, bin_limit=2048).to_pandas()
    assert len(out) > 0
    t = pq.read_table(f"{sf}/events.parquet", columns=["ts", "value"])
    us = t["ts"].cast(pa.int64()).to_numpy()
    vals = t["value"].to_numpy()
    buckets = us // 3_600_000_000
    checked = 0
    for (we), grp in out.groupby("window_end"):
        h = we // 3600
        m = (buckets > h - 24) & (buckets <= h)
        w = vals[m]
        assert grp["n"].iloc[0] == len(w)
        for _, row in grp.iterrows():
            real = exact_quantile(w, row["q"])
            assert rel_err(row["est"], real) <= 0.01 + 1e-12
        checked += 1
        if checked > 50:
            break


def test_rank_errors_selfcheck_and_raise(ray_session):
    """The distributed exact-rank self-check: correct estimates pass the
    bound; a wildly wrong estimate trips the in-pipeline ValueError."""
    import numpy as np
    import pyarrow.parquet as pq
    import ray.data
    from p2pddsketch_ray.pipelines.quantiles import rank_errors
    ds = ray.data.read_parquet(f"{SF}/lineitem.parquet",
                               columns=["l_extendedprice"])
    vals = pq.read_table(f"{SF}/lineitem.parquet",
                         columns=["l_extendedprice"]
                         )["l_extendedprice"].to_numpy()
    qs = (0.5, 0.95, 0.99)
    exact = [float(np.quantile(vals, q, method="lower")) for q in qs]
    errs = rank_errors(ds, "l_extendedprice", qs, exact, max_rank_err=0.01)
    assert max(errs) <= 1.0 / len(vals) + 1e-12
    with pytest.raises(ValueError, match="self-check failed"):
        rank_errors(ds, "l_extendedprice", (0.99,), [float(vals.min())],
                    max_rank_err=0.05)


def test_kll_tdigest_gate_rank_error_sf01(ray_session):
    """The KLL / t-digest driver queries self-verify: at sf0.1 (600k rows)
    the emitted rank_err column must be within the sketches' practical
    bounds (KLL k=200, t-digest compression=100: both ~1e-2)."""
    import __ray_entry__ as e
    sf = "/root/testdata/sf0.1"
    for name in ("kll_quantiles_price", "tdigest_quantiles_price"):
        out = e.queries()[name](sf)
        errs = out["rank_err"].to_pylist()
        assert max(errs) <= 0.02, (name, errs)


def test_sliding_window_bin_limit_validated(ray_session):
    """An under-sized bin_limit fails up front with a targeted
    configuration error, not a mid-walk generation mismatch."""
    import ray.data
    from p2pddsketch_ray.pipelines.sliding import sliding_window_quantiles
    ds = ray.data.read_parquet(f"{SF}/events.parquet",
                               columns=["ts", "value"])
    with pytest.raises(ValueError, match="bin_limit"):
        sliding_window_quantiles(ds, "ts", "value", window_hours=4,
                                 alpha=0.0005, bin_limit=32)


def test_sessionized_split_matches_unsplit(ray_session, tmp_path):
    """The skew-tolerant two-level sessionization (time-bucket split +
    per-user boundary stitch) is exact: identical output to the
    single-partition path, including sessions that span bucket
    boundaries and users with empty buckets in between."""
    import numpy as np
    import pyarrow as pa
    from p2pddsketch_ray.pipelines.relational import (
        events_sessionized, events_sessionized_split)
    M = 60 * 1_000_000
    H = 60  # minutes per hour
    rows = [
        # user 1: session crossing a 1-hour bucket boundary (55 -> 65)
        (1, 40), (1, 55), (1, 65), (1, 200),
        # user 2: three buckets active, middle bucket empty for user 3
        (2, 10), (2, 70), (2, 130),          # 60min gaps -> 3 sessions
        # user 3: events in buckets 0 and 4 only (empty buckets between)
        (3, 5), (3, 250),
        # user 4: dense session spanning THREE buckets
        (4, 50), (4, 75), (4, 100), (4, 125),
    ]
    t = pa.table({
        "user_id": pa.array([u for u, _ in rows], type=pa.int64()),
        "ts": pa.array([m * M for _, m in rows], type=pa.timestamp("us")),
    })
    pq.write_table(t, str(tmp_path / "events.parquet"))
    base = (events_sessionized(str(tmp_path), gap_minutes=30)
            .to_pandas().sort_values("user_id").reset_index(drop=True))
    split = (events_sessionized_split(str(tmp_path), gap_minutes=30,
                                      split_hours=1)
             .to_pandas().sort_values("user_id").reset_index(drop=True))
    assert base.equals(split)
    got = dict(zip(split["user_id"], split["n_sessions"]))
    assert got == {1: 2, 2: 3, 3: 2, 4: 1}

    # and on the real events table (sf0.001), tiny buckets to force many
    # boundary crossings
    sf = "/root/testdata/sf0.001"
    base = (events_sessionized(sf, gap_minutes=30)
            .to_pandas().sort_values("user_id").reset_index(drop=True))
    split = (events_sessionized_split(sf, gap_minutes=30, split_hours=1)
             .to_pandas().sort_values("user_id").reset_index(drop=True))
    assert base.equals(split)


def test_repetition_stats_matches_duckdb(ray_session):
    duckdb = pytest.importorskip("duckdb")
    from p2pddsketch_ray.pipelines.relational import (
        REPETITION_STATS_SQL, repetition_stats_by_lang)
    sf = "/root/testdata/sf0.001"
    got = (repetition_stats_by_lang(sf).to_pandas()
           .sort_values("lang").reset_index(drop=True))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    want = con.execute(REPETITION_STATS_SQL).df()
    assert got.equals(want.reset_index(drop=True))


def test_repetition_stats_kernel_edges(ray_session, tmp_path):
    """Repeated-token, single-token, and empty-string documents."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import repetition_stats_by_lang
    t = pa.table({
        "text": pa.array(["a a a b", "solo", "", "x  y"]),  # "" and double
        "lang": pa.array(["en", "en", "de", "de"]),         # space edges
    })
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    got = (repetition_stats_by_lang(str(tmp_path)).to_pandas()
           .sort_values("lang").reset_index(drop=True))
    # de: "" -> 1 empty token; "x  y" -> ["x", "", "y"] (3 tokens, all
    #     counts: x:1, "":1, y:1 ... but "" appears once in each doc)
    de = got[got["lang"] == "de"].iloc[0]
    assert de["docs"] == 2 and de["sum_tokens"] == 1 + 3
    assert de["sum_top_token"] == 1 + 1 and de["sum_distinct_tokens"] == 1 + 3
    en = got[got["lang"] == "en"].iloc[0]
    assert en["docs"] == 2 and en["sum_tokens"] == 4 + 1
    assert en["sum_top_token"] == 3 + 1 and en["sum_distinct_tokens"] == 2 + 1


def test_stratified_sample_matches_duckdb(ray_session):
    duckdb = pytest.importorskip("duckdb")
    from p2pddsketch_ray.pipelines.relational import (
        STRATIFIED_SAMPLE_SQL, stratified_sample_events)
    sf = "/root/testdata/sf0.001"
    got = (stratified_sample_events(sf).to_pandas()
           .sort_values(["event_type", "event_id"]).reset_index(drop=True))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    want = con.execute(STRATIFIED_SAMPLE_SQL).df()
    assert got.equals(want.reset_index(drop=True))
    # every present stratum is sampled at exactly k (table is big enough)
    assert (got.groupby("event_type").size() == 5).all()


def test_top_events_per_type_matches_duckdb(ray_session):
    duckdb = pytest.importorskip("duckdb")
    from p2pddsketch_ray.pipelines.relational import (
        TOP_EVENTS_PER_TYPE_SQL, top_events_per_type)
    sf = "/root/testdata/sf0.001"
    got = (top_events_per_type(sf).to_pandas()
           .sort_values(["event_type", "rnk"]).reset_index(drop=True))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    want = con.execute(TOP_EVENTS_PER_TYPE_SQL).df()
    assert got.equals(want.reset_index(drop=True))
    assert (got.groupby("event_type")["rnk"].max() == 3).all()


def test_top_events_per_type_tie_break(ray_session, tmp_path):
    """Equal micro-unit values must resolve by event_id ascending."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import top_events_per_type
    t = pa.table({
        "event_id": pa.array([5, 1, 3, 2, 4], type=pa.int64()),
        "event_type": pa.array(["a"] * 5),
        "value": pa.array([2.0, 2.0, 2.0, 1.0, 3.0]),
    })
    pq.write_table(t, str(tmp_path / "events.parquet"))
    got = (top_events_per_type(str(tmp_path)).to_pandas()
           .sort_values("rnk").reset_index(drop=True))
    assert got["event_id"].tolist() == [4, 1, 3]
    assert got["rnk"].tolist() == [1, 2, 3]


def test_customers_without_events_matches_duckdb(ray_session):
    duckdb = pytest.importorskip("duckdb")
    from p2pddsketch_ray.pipelines.relational import (
        CUSTOMERS_WITHOUT_EVENTS_SQL, customers_without_events)
    sf = "/root/testdata/sf0.001"
    got = (customers_without_events(sf).to_pandas()
           .sort_values("n_name").reset_index(drop=True))
    con = duckdb.connect()
    for t in ("customer", "events", "nation"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf}/{t}.parquet')")
    want = con.execute(CUSTOMERS_WITHOUT_EVENTS_SQL).df()
    assert got.equals(want.reset_index(drop=True))
    assert got["n_customers"].sum() > 0  # anti-join actually selects rows


def test_actor_pool_build_bit_identical(ray_session):
    """The stateful actor-pool build (n long-lived actors each holding
    one sketch over a streaming split) must produce the exact same
    merged sketch as the stateless per-block path -- merge-order
    invariance makes the two execution shapes interchangeable."""
    import ray.data
    from p2pddsketch_ray.pipelines.quantiles import dds_sketch_global
    from p2pddsketch_ray.stages.sketch_build import actor_pool_sketch_build
    ds = ray.data.read_parquet("/root/testdata/sf0.001/lineitem.parquet",
                               columns=["l_extendedprice"])
    pool = actor_pool_sketch_build(ds, "l_extendedprice", n_actors=3,
                                   alpha=0.01, bin_limit=2048)
    tree = dds_sketch_global(ds, "l_extendedprice", alpha=0.01,
                             bin_limit=2048)
    assert pool.bins == tree.bins
    assert pool.n == tree.n and pool.generation == tree.generation
    for q in (0.5, 0.95, 0.99):
        assert pool.quantile(q) == tree.quantile(q)


def test_actor_pool_build_weighted(ray_session):
    import ray.data
    from p2pddsketch_ray.pipelines.quantiles import dds_sketch_global
    from p2pddsketch_ray.stages.sketch_build import actor_pool_sketch_build
    ds = ray.data.read_parquet("/root/testdata/sf0.001/lineitem.parquet",
                               columns=["l_extendedprice", "l_quantity"])
    pool = actor_pool_sketch_build(ds, "l_extendedprice", n_actors=3,
                                   weight_col="l_quantity",
                                   alpha=0.01, bin_limit=2048)
    tree = dds_sketch_global(ds, "l_extendedprice",
                             weight_col="l_quantity",
                             alpha=0.01, bin_limit=2048)
    assert pool.bins == tree.bins and pool.n == tree.n


def test_combined_daily_activity_union(ray_session):
    duckdb = pytest.importorskip("duckdb")
    from p2pddsketch_ray.pipelines.relational import (COMBINED_DAILY_SQL,
                                                      combined_daily_activity)
    sf = "/root/testdata/sf0.001"
    got = (combined_daily_activity(sf).to_pandas()
           .sort_values(["day", "src"]).reset_index(drop=True))
    con = duckdb.connect()
    for t in ("events", "orders"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf}/{t}.parquet')")
    want = con.execute(COMBINED_DAILY_SQL).df()
    assert got.equals(want.reset_index(drop=True))
    # both sources survive the union
    assert set(got["src"]) == {"events", "orders"}
    assert got.groupby("src")["n"].sum().to_dict() == {
        "events": con.execute("SELECT count(*) FROM events").fetchone()[0],
        "orders": con.execute("SELECT count(*) FROM orders").fetchone()[0]}


def test_curated_corpus_stats_matches_duckdb_and_tiers_agree(ray_session):
    duckdb = pytest.importorskip("duckdb")
    import __ray_entry__ as E
    from p2pddsketch_ray.pipelines.relational import curated_corpus_stats
    sf = "/root/testdata/sf0.001"
    got = curated_corpus_stats(sf, hash_tier="md5").to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    want = con.execute(E.oracle_sql()["curated_corpus_stats"]).df()
    assert got.equals(want.reset_index(drop=True))
    # the fp64 fast tier curates the identical corpus on this fixture
    fast = curated_corpus_stats(sf, hash_tier="fp64").to_pandas()
    assert fast.equals(got)


def test_hll_sliding_users_matches_duckdb(ray_session):
    duckdb = pytest.importorskip("duckdb")
    import __ray_entry__ as E
    from p2pddsketch_ray.pipelines.sliding import hll_sliding_users
    sf = "/root/testdata/sf0.001"
    got = hll_sliding_users(sf).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    want = con.execute(E.oracle_sql()["hll_sliding_users"]).df()
    assert got.equals(want.reset_index(drop=True))
    # windows are register-max unions: a window's estimate is at least
    # its own single hour's (register max is monotone in window size is
    # NOT guaranteed hour to hour, but nonzero registers never exceed m)
    assert (got["nonzero_registers"] <= got["m"]).all()
    assert (got["hll_estimate"] > 0).all()


def test_value_hour_sufficient_stats_and_pearson(ray_session):
    duckdb = pytest.importorskip("duckdb")
    from p2pddsketch_ray.pipelines.relational import (
        VALUE_HOUR_STATS_SQL, value_hour_sufficient_stats)
    sf = "/root/testdata/sf0.001"
    got = (value_hour_sufficient_stats(sf).to_pandas()
           .sort_values("event_type").reset_index(drop=True))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    want = con.execute(VALUE_HOUR_STATS_SQL).df()
    assert got.equals(want.reset_index(drop=True))
    # closed-form Pearson r from the moments matches DuckDB corr()
    # within float tolerance (cents quantization is the only delta)
    r_want = con.execute(
        "SELECT event_type, corr((epoch_us(ts)//3600000000) % 24, value)"
        " AS r FROM events GROUP BY 1 ORDER BY 1").df()
    import numpy as np
    n = got["n"].to_numpy(dtype=float)
    sx, sy = got["sum_x"].to_numpy(float), got["sum_y"].to_numpy(float)
    sxy = got["sum_xy"].to_numpy(float)
    sx2, sy2 = got["sum_x2"].to_numpy(float), got["sum_y2"].to_numpy(float)
    r = ((n * sxy - sx * sy)
         / np.sqrt((n * sx2 - sx * sx) * (n * sy2 - sy * sy)))
    assert np.abs(r - r_want["r"].to_numpy()).max() < 1e-4


def test_weighted_sample_orders_matches_duckdb_and_biases(ray_session):
    duckdb = pytest.importorskip("duckdb")
    from p2pddsketch_ray.pipelines.relational import (WEIGHTED_SAMPLE_SQL,
                                                      weighted_sample_orders)
    sf = "/root/testdata/sf0.001"
    got = (weighted_sample_orders(sf).to_pandas()
           .sort_values("o_orderkey").reset_index(drop=True))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW orders AS SELECT * FROM "
                f"read_parquet('{sf}/orders.parquet')")
    want = con.execute(WEIGHTED_SAMPLE_SQL).df()
    assert got.equals(want.reset_index(drop=True))
    # weighting works: the sample's mean price exceeds the population's
    pop_mean = con.execute(
        "SELECT avg(o_totalprice) FROM orders").fetchone()[0]
    assert got["o_totalprice"].mean() > pop_mean


def test_sliding_anomaly_counts_matches_duckdb(ray_session):
    duckdb = pytest.importorskip("duckdb")
    import __ray_entry__ as E
    from p2pddsketch_ray.pipelines.sliding import sliding_anomaly_counts
    sf = "/root/testdata/sf0.001"
    got = sliding_anomaly_counts(sf, alpha=0.01,
                                 bin_limit=2048).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    want = con.execute(E.oracle_sql()["sliding_anomaly_counts"]).df()
    assert got.equals(want.reset_index(drop=True))
    # p99 threshold per self-containing window: anomaly rate ~1%, and
    # strictly fewer anomalies than events
    total = got["n_events"].sum()
    anom = got["n_anomalies"].sum()
    assert 0 < anom < 0.05 * total


def test_validation_report_matches_duckdb(ray_session):
    duckdb = pytest.importorskip("duckdb")
    from p2pddsketch_ray.pipelines.relational import (VALIDATION_REPORT_SQL,
                                                      validation_report)
    sf = "/root/testdata/sf0.001"
    got = validation_report(sf).to_pandas()
    con = duckdb.connect()
    for tab in ("orders", "customer"):
        con.execute(f"CREATE VIEW {tab} AS SELECT * FROM "
                    f"read_parquet('{sf}/{tab}.parquet')")
    want = con.execute(VALIDATION_REPORT_SQL).df()
    assert got.equals(want.reset_index(drop=True))
    # the synthetic tables are clean: every check passes
    assert (got["n_violations"] == 0).all()
    assert (got["n_checked"] > 0).all()


def test_validation_report_catches_planted_violations(ray_session, tmp_path):
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import validation_report
    sf = "/root/testdata/sf0.001"
    orders = pq.read_table(f"{sf}/orders.parquet")
    # plant: one duplicate orderkey, one negative price, one orphan key
    bad = orders.slice(0, 3).to_pydict()
    bad["o_totalprice"][1] = -5.0
    bad["o_custkey"][2] = 10_000_000
    dirty = pa.concat_tables([orders, pa.table(
        {k: pa.array(v, type=orders.schema.field(k).type)
         for k, v in bad.items()})])
    pq.write_table(dirty, tmp_path / "orders.parquet")
    import shutil
    shutil.copy(f"{sf}/customer.parquet", tmp_path / "customer.parquet")
    got = (validation_report(str(tmp_path)).to_pandas()
           .set_index("check_name"))
    assert got.loc["orders.o_orderkey_unique", "n_violations"] == 3
    assert got.loc["orders.o_totalprice_positive", "n_violations"] == 1
    assert got.loc["orders.o_custkey_references_customer",
                   "n_violations"] == 1


def test_returned_revenue_top_customers_matches_duckdb(ray_session):
    duckdb = pytest.importorskip("duckdb")
    from p2pddsketch_ray.pipelines.relational import (
        RETURNED_REVENUE_SQL, returned_revenue_top_customers)
    sf = "/root/testdata/sf0.001"
    got = returned_revenue_top_customers(sf).to_pandas()
    con = duckdb.connect()
    for tab in ("lineitem", "orders", "customer", "nation"):
        con.execute(f"CREATE VIEW {tab} AS SELECT * FROM "
                    f"read_parquet('{sf}/{tab}.parquet')")
    want = con.execute(RETURNED_REVENUE_SQL).df()
    assert got.equals(want.reset_index(drop=True))
    assert (got["revenue_units"].to_numpy()[:-1]
            >= got["revenue_units"].to_numpy()[1:]).all()


def test_diversified_top_orders_matches_duckdb_and_respects_quota(
        ray_session):
    duckdb = pytest.importorskip("duckdb")
    from p2pddsketch_ray.pipelines.relational import (DIVERSIFIED_TOP_SQL,
                                                      diversified_top_orders)
    sf = "/root/testdata/sf0.001"
    got = diversified_top_orders(sf).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW orders AS SELECT * FROM "
                f"read_parquet('{sf}/orders.parquet')")
    want = con.execute(DIVERSIFIED_TOP_SQL).df()
    assert got.equals(want.reset_index(drop=True))
    assert got.groupby("o_custkey").size().max() <= 2


def test_partitioned_write_read_stats_roundtrip(ray_session, tmp_path):
    duckdb = pytest.importorskip("duckdb")
    import os
    from p2pddsketch_ray.pipelines.relational import (
        PARTITIONED_RT_SQL, partitioned_write_read_stats)
    sf = "/root/testdata/sf0.001"
    out = str(tmp_path / "docs_by_lang")
    got = partitioned_write_read_stats(sf, out_dir=out).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    want = con.execute(PARTITIONED_RT_SQL).df()
    assert got.equals(want.reset_index(drop=True))
    # layout: one hive directory per lang
    parts = sorted(d for d in os.listdir(out) if d.startswith("lang="))
    assert parts == [f"lang={v}" for v in got["lang"]]


def test_pmi_bigrams_matches_duckdb(ray_session):
    duckdb = pytest.importorskip("duckdb")
    from p2pddsketch_ray.pipelines.relational import (
        PMI_BIGRAMS_SQL, pmi_bigrams_topk)
    sf = "/root/testdata/sf0.001"
    got = pmi_bigrams_topk(sf).to_pandas().sort_values(
        "rnk").reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    want = con.execute(PMI_BIGRAMS_SQL).df()
    assert got.equals(want.reset_index(drop=True))
    assert len(got) == 20 and (got["n_pair"] >= 5).all()


def test_pmi_bigrams_never_cross_doc_boundary(ray_session, tmp_path):
    """Adjacent docs 'p q' and 'q r' must not produce the bigram (q, q);
    a single-token doc contributes no bigram at all."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import pmi_bigrams_topk
    t = pa.table({
        "doc_id": pa.array([0, 1, 2], type=pa.int64()),
        "text": pa.array(["p q", "q r", "solo"]),
    })
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    got = pmi_bigrams_topk(str(tmp_path), k=10, min_count=1).to_pandas()
    pairs = set(zip(got["tok_a"], got["tok_b"]))
    assert pairs == {("p", "q"), ("q", "r")}


def test_global_order_ranks_matches_duckdb(ray_session):
    duckdb = pytest.importorskip("duckdb")
    from p2pddsketch_ray.pipelines.relational import (
        GLOBAL_RANKS_SQL, global_order_ranks)
    sf = "/root/testdata/sf0.001"
    got = global_order_ranks(sf).to_pandas().reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW orders AS SELECT * FROM "
                f"read_parquet('{sf}/orders.parquet')")
    want = con.execute(GLOBAL_RANKS_SQL).df()
    assert got.equals(want.reset_index(drop=True))


def test_global_order_ranks_is_complete_permutation(ray_session):
    """With sample_mod=1 every row gets exactly one rank, ranks are the
    full 1..N permutation, and price is non-decreasing along ranks."""
    from p2pddsketch_ray.pipelines.relational import global_order_ranks
    sf = "/root/testdata/sf0.001"
    got = (global_order_ranks(sf, sample_mod=1).to_pandas()
           .sort_values("rnk").reset_index(drop=True))
    n = len(got)
    assert got["rnk"].tolist() == list(range(1, n + 1))
    assert got["o_orderkey"].is_unique
    assert (np.diff(got["price_cents"].to_numpy()) >= 0).all()


def test_nearest_centroid_matches_duckdb(ray_session):
    duckdb = pytest.importorskip("duckdb")
    from p2pddsketch_ray.pipelines.relational import (
        NEAREST_CENTROID_SQL, nearest_centroid_confusion)
    sf = "/root/testdata/sf0.001"
    got = (nearest_centroid_confusion(sf).to_pandas()
           .reset_index(drop=True))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW embeddings AS SELECT * FROM "
                f"read_parquet('{sf}/embeddings.parquet')")
    want = con.execute(NEAREST_CENTROID_SQL).df()
    assert got.equals(want.reset_index(drop=True))
    # every vector is assigned exactly once
    n_vecs = con.execute("SELECT count(*) FROM embeddings").fetchone()[0]
    assert got["n"].sum() == n_vecs


def test_nearest_centroid_separated_clusters_diagonal(ray_session,
                                                      tmp_path):
    """Two well-separated clusters classify perfectly: the confusion
    matrix is diagonal."""
    from p2pddsketch_ray.pipelines.relational import (
        nearest_centroid_confusion)
    rng = np.random.default_rng(7)
    d = 8
    a = rng.normal(0.0, 0.01, (20, d)) + np.r_[np.ones(4), -np.ones(4)]
    b = rng.normal(0.0, 0.01, (20, d)) - np.r_[np.ones(4), -np.ones(4)]
    mat = np.vstack([a, b]).astype(np.float32)
    t = pa.table({
        "vec_id": pa.array(np.arange(40, dtype=np.int64)),
        "label": pa.array([0] * 20 + [1] * 20, type=pa.int32()),
        "embedding": pa.FixedSizeListArray.from_arrays(
            mat.reshape(-1), d).cast(pa.list_(pa.float32())),
    })
    pq.write_table(t, str(tmp_path / "embeddings.parquet"))
    got = nearest_centroid_confusion(str(tmp_path)).to_pandas()
    assert got[got["label"] != got["pred"]].empty
    assert got["n"].tolist() == [20, 20]


def test_knn_batch_queries_matches_duckdb(ray_session):
    duckdb = pytest.importorskip("duckdb")
    from p2pddsketch_ray.pipelines.relational import (
        KNN_BATCH_SQL, knn_batch_queries)
    sf = "/root/testdata/sf0.001"
    got = knn_batch_queries(sf).to_pandas().reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW embeddings AS SELECT * FROM "
                f"read_parquet('{sf}/embeddings.parquet')")
    want = con.execute(KNN_BATCH_SQL).df()
    assert got.equals(want.reset_index(drop=True))


def test_knn_batch_agrees_with_single_query(ray_session):
    """Query 0's batched neighbor list equals the single-query path."""
    from p2pddsketch_ray.pipelines.relational import (
        knn_batch_queries, knn_cosine_topk)
    sf = "/root/testdata/sf0.001"
    batch = knn_batch_queries(sf).to_pandas()
    single = knn_cosine_topk(sf, query_vec_id=0).to_pandas()
    q0 = batch[batch["qid"] == 0].sort_values("rnk")
    assert q0["vec_id"].tolist() == single["vec_id"].tolist()
    assert q0["cos_sim"].tolist() == single["cos_sim"].tolist()


def test_incremental_dedup_matches_duckdb(ray_session):
    duckdb = pytest.importorskip("duckdb")
    from p2pddsketch_ray.pipelines.relational import (
        INCREMENTAL_DEDUP_SQL, incremental_dedup_stats)
    sf = "/root/testdata/sf0.001"
    got = (incremental_dedup_stats(sf, hash_tier="md5").to_pandas()
           .reset_index(drop=True))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    want = con.execute(INCREMENTAL_DEDUP_SQL).df()
    assert got.equals(want.reset_index(drop=True))


def test_incremental_dedup_hash_tiers_agree(ray_session):
    from p2pddsketch_ray.pipelines.relational import (
        incremental_dedup_stats)
    sf = "/root/testdata/sf0.001"
    md5 = (incremental_dedup_stats(sf, hash_tier="md5",
                                   root="/tmp/p2pdds_t/inc_md5")
           .to_pandas().reset_index(drop=True))
    fp = (incremental_dedup_stats(sf, hash_tier="fp64",
                                  root="/tmp/p2pdds_t/inc_fp")
          .to_pandas().reset_index(drop=True))
    assert md5.equals(fp)


def test_incremental_dedup_finds_planted_delta_dups(ray_session,
                                                    tmp_path):
    """Odd docs duplicating even texts are flagged; fresh odd texts
    are admitted."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import (
        incremental_dedup_stats)
    t = pa.table({
        "doc_id": pa.array([0, 2, 1, 3, 5], type=pa.int64()),
        "lang": pa.array(["en"] * 5),
        "text": pa.array(["old one", "old two",
                          "old one",      # dup of doc 0
                          "brand new", "old two"]),  # 5 dups doc 2
    })
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    got = incremental_dedup_stats(
        str(tmp_path), root=str(tmp_path / "idx")).to_pandas()
    row = got.iloc[0]
    assert (row["n_incoming"], row["n_dup"], row["n_admitted"]) \
        == (3, 2, 1)


def test_compaction_matches_duckdb_and_reduces_files(ray_session,
                                                     tmp_path):
    duckdb = pytest.importorskip("duckdb")
    import glob
    from p2pddsketch_ray.pipelines.relational import (
        COMPACTION_SQL, compact_small_files_stats)
    sf = "/root/testdata/sf0.001"
    root = str(tmp_path / "compact")
    got = (compact_small_files_stats(sf, root=root).to_pandas()
           .reset_index(drop=True))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    want = con.execute(COMPACTION_SQL).df()
    assert got.equals(want.reset_index(drop=True))
    n_frag = len(glob.glob(f"{root}/fragmented/*.parquet"))
    n_comp = len(glob.glob(f"{root}/compacted/*.parquet"))
    assert n_comp < n_frag and n_comp <= 8


def test_zscore_outliers_match_duckdb(ray_session):
    duckdb = pytest.importorskip("duckdb")
    from p2pddsketch_ray.pipelines.relational import (
        ZSCORE_OUTLIER_SQL, zscore_outlier_counts)
    sf = "/root/testdata/sf0.001"
    got = (zscore_outlier_counts(sf).to_pandas()
           .reset_index(drop=True))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    want = con.execute(ZSCORE_OUTLIER_SQL).df()
    assert got.equals(want.reset_index(drop=True))


def test_zscore_flags_planted_outlier(ray_session, tmp_path):
    """A single extreme value among tight ones is the one outlier."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import (
        zscore_outlier_counts)
    vals = [10.0 + 0.01 * i for i in range(50)] + [10000.0]
    t = pa.table({
        "event_type": pa.array(["a"] * 51),
        "value": pa.array(vals, type=pa.float64()),
    })
    pq.write_table(t, str(tmp_path / "events.parquet"))
    got = zscore_outlier_counts(str(tmp_path)).to_pandas()
    assert got.iloc[0]["n_outliers"] == 1


def test_value_histogram_matches_duckdb(ray_session):
    duckdb = pytest.importorskip("duckdb")
    from p2pddsketch_ray.pipelines.relational import (
        VALUE_HISTOGRAM_SQL, value_histogram_by_type)
    sf = "/root/testdata/sf0.001"
    got = (value_histogram_by_type(sf).to_pandas()
           .reset_index(drop=True))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    want = con.execute(VALUE_HISTOGRAM_SQL).df()
    assert got.equals(want.reset_index(drop=True))
    # completeness: per-type bin counts sum to the type's row count
    n_by_type = con.execute(
        "SELECT event_type, count(*) n FROM events GROUP BY 1").df()
    sums = got.groupby("event_type")["n"].sum().reset_index()
    merged = sums.merge(n_by_type, on="event_type")
    assert (merged["n_x"] == merged["n_y"]).all()


def test_salted_join_matches_duckdb(ray_session):
    duckdb = pytest.importorskip("duckdb")
    from p2pddsketch_ray.pipelines.relational import (
        SALTED_JOIN_SQL, salted_join_rollup)
    sf = "/root/testdata/sf0.001"
    got = salted_join_rollup(sf).to_pandas().reset_index(drop=True)
    con = duckdb.connect()
    for t in ("events", "customer"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf}/{t}.parquet')")
    want = con.execute(SALTED_JOIN_SQL).df()
    assert got.equals(want.reset_index(drop=True))


def test_salted_join_single_hot_key_exact(ray_session, tmp_path):
    """A stream where EVERY event hits one key still joins exactly:
    salting only routes, never changes the result."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import salted_join_rollup
    n = 1000
    pq.write_table(pa.table({
        "event_id": pa.array(np.arange(n, dtype=np.int64)),
        "user_id": pa.array(np.full(n, 42, dtype=np.int64)),
        "value": pa.array(np.full(n, 1.0)),
    }), str(tmp_path / "events.parquet"))
    pq.write_table(pa.table({
        "c_custkey": pa.array([42, 43], type=pa.int64()),
        "c_nationkey": pa.array([7, 9], type=pa.int64()),
    }), str(tmp_path / "customer.parquet"))
    got = salted_join_rollup(str(tmp_path)).to_pandas()
    assert len(got) == 1
    row = got.iloc[0]
    assert (row["nation"], row["n_events"],
            row["sum_value_cents"]) == (7, n, n * 100)


def test_lang_source_chi2_matches_duckdb(ray_session):
    duckdb = pytest.importorskip("duckdb")
    from p2pddsketch_ray.pipelines.relational import (
        LANG_SOURCE_CHI2_SQL, lang_source_chi2)
    sf = "/root/testdata/sf0.001"
    got = lang_source_chi2(sf).to_pandas().reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    want = con.execute(LANG_SOURCE_CHI2_SQL).df()
    assert got.equals(want.reset_index(drop=True))


def test_lang_source_chi2_independent_table_is_zero(ray_session,
                                                    tmp_path):
    """A perfectly independent contingency table has zero chi-square
    in every cell."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import lang_source_chi2
    # uniform cross product: 2 langs x 2 sources x 5 docs each
    langs = ["en", "de"] * 10
    srcs = ["web"] * 10 + ["wiki"] * 10
    t = pa.table({"lang": pa.array(langs), "source": pa.array(srcs)})
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    got = lang_source_chi2(str(tmp_path)).to_pandas()
    assert (got["chi2_micro"] == 0).all()


def test_sequence_packing_matches_duckdb(ray_session):
    duckdb = pytest.importorskip("duckdb")
    from p2pddsketch_ray.pipelines.relational import (
        SEQUENCE_PACKING_SQL, sequence_packing_stats)
    sf = "/root/testdata/sf0.001"
    got = sequence_packing_stats(sf).to_pandas().reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    want = con.execute(SEQUENCE_PACKING_SQL).df()
    assert got.equals(want.reset_index(drop=True))


def test_sequence_packing_split_arithmetic(ray_session, tmp_path):
    """Docs of 1000 tokens each, seq_len 2048: doc 3 spans tokens
    2000-3000 crossing 2048, doc 5 spans 4000-5000 crossing 4096 --
    exactly one straddle per 2048-token boundary."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import (
        sequence_packing_stats)
    n = 6
    texts = [" ".join(["w"] * 1000)] * n
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
        "lang": pa.array(["en"] * n),
        "text": pa.array(texts),
    }), str(tmp_path / "documents.parquet"))
    got = sequence_packing_stats(str(tmp_path)).to_pandas()
    row = got.iloc[0]
    assert row["total_toks"] == 6000
    assert row["n_seqs"] == 3            # ceil(6000 / 2048)
    # boundaries at 2048 and 4096: each falls strictly inside one
    # 1000-token doc regardless of the hash order (1000 | boundaries
    # is false), so exactly 2 straddled docs
    assert row["n_split_docs"] == 2


def test_unigram_logprob_matches_duckdb(ray_session):
    duckdb = pytest.importorskip("duckdb")
    from p2pddsketch_ray.pipelines.relational import (
        UNIGRAM_LOGPROB_SQL, unigram_logprob_stats)
    sf = "/root/testdata/sf0.001"
    got = unigram_logprob_stats(sf).to_pandas().reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    want = con.execute(UNIGRAM_LOGPROB_SQL).df()
    assert got.equals(want.reset_index(drop=True))
    # log-probs are strictly negative (no token covers the corpus)
    assert (got["sum_logprob_micro"] < 0).all()


def test_unigram_logprob_hand_computed(ray_session, tmp_path):
    """Two docs over a 3-token corpus: contributions are
    floor(ln(cnt/total)*1e6) summed per doc."""
    import math
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import (
        unigram_logprob_stats)
    pq.write_table(pa.table({
        "lang": pa.array(["en", "en"]),
        "text": pa.array(["a a", "b"]),
    }), str(tmp_path / "documents.parquet"))
    got = unigram_logprob_stats(str(tmp_path)).to_pandas()
    lp_a = math.floor(math.log(2 / 3) * 1e6)
    lp_b = math.floor(math.log(1 / 3) * 1e6)
    row = got.iloc[0]
    assert row["sum_logprob_micro"] == 2 * lp_a + lp_b
    assert row["min_doc_logprob_micro"] == min(2 * lp_a, lp_b)


def test_grouped_regression_matches_duckdb_and_numpy(ray_session):
    duckdb = pytest.importorskip("duckdb")
    from p2pddsketch_ray.pipelines.relational import (
        GROUPED_REGRESSION_SQL, grouped_regression_trend)
    sf = "/root/testdata/sf0.001"
    got = (grouped_regression_trend(sf).to_pandas()
           .reset_index(drop=True))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    want = con.execute(GROUPED_REGRESSION_SQL).df()
    assert got.equals(want.reset_index(drop=True))
    # the rational recovers numpy's least-squares slope
    df = con.execute("""
        SELECT event_type, (epoch_us(ts) // 3600000000) % 24 AS x,
               round(value * 100) AS y FROM events""").df()
    for _, r in got.iterrows():
        sub = df[df["event_type"] == r["event_type"]]
        np_slope = np.polyfit(sub["x"], sub["y"], 1)[0]
        assert abs(r["slope_num"] / r["slope_den"] - np_slope) < 1e-6


def test_token_explode_matches_duckdb(ray_session):
    duckdb = pytest.importorskip("duckdb")
    from p2pddsketch_ray.pipelines.relational import (
        TOKEN_EXPLODE_SQL, token_explode_sample)
    sf = "/root/testdata/sf0.001"
    got = (token_explode_sample(sf).to_pandas()
           .sort_values(["doc_id", "pos"]).reset_index(drop=True))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    want = con.execute(TOKEN_EXPLODE_SQL).df()
    assert got.equals(want.reset_index(drop=True))


def test_token_explode_edge_tokens(ray_session, tmp_path):
    """Empty string, double spaces, and non-selected ids."""
    from p2pddsketch_ray.pipelines.relational import token_explode_sample
    t = pa.table({
        "doc_id": pa.array([0, 1, 17, 34], type=pa.int64()),
        "text": pa.array(["a b", "skip me", "", "x  y"]),
    })
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    got = (token_explode_sample(str(tmp_path)).to_pandas()
           .sort_values(["doc_id", "pos"]).reset_index(drop=True))
    # doc 1 excluded (1 % 17 != 0); "" -> one empty token;
    # "x  y" -> ["x", "", "y"]
    assert got["doc_id"].tolist() == [0, 0, 17, 34, 34, 34]
    assert got["token"].tolist() == ["a", "b", "", "x", "", "y"]
    assert got["pos"].tolist() == [1, 2, 1, 1, 2, 3]
    assert got["tok_len"].tolist() == [1, 1, 0, 1, 0, 1]


def test_lineitem_unpivot_matches_duckdb(ray_session):
    duckdb = pytest.importorskip("duckdb")
    from p2pddsketch_ray.pipelines.relational import (
        LINEITEM_UNPIVOT_SQL, lineitem_unpivot_stats)
    sf = "/root/testdata/sf0.001"
    got = (lineitem_unpivot_stats(sf).to_pandas()
           .sort_values(["measure", "l_returnflag"]).reset_index(drop=True))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW lineitem AS SELECT * FROM "
                f"read_parquet('{sf}/lineitem.parquet')")
    want = con.execute(LINEITEM_UNPIVOT_SQL).df()
    assert got.equals(want.reset_index(drop=True))


def test_mg_heavy_users_matches_exact(ray_session):
    duckdb = pytest.importorskip("duckdb")
    from p2pddsketch_ray.pipelines.approx import (
        MG_HEAVY_USERS_SQL, mg_heavy_users)
    sf = "/root/testdata/sf0.001"
    got = (mg_heavy_users(sf).to_pandas()
           .sort_values("user_id").reset_index(drop=True))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    want = con.execute(MG_HEAVY_USERS_SQL).df()
    assert got.equals(want.reset_index(drop=True))


def test_split_assign_matches_duckdb_and_covers_all_docs(ray_session):
    duckdb = pytest.importorskip("duckdb")
    from p2pddsketch_ray.pipelines.relational import (
        SPLIT_ASSIGN_SQL, split_assign_stats)
    sf = "/root/testdata/sf0.001"
    got = (split_assign_stats(sf).to_pandas()
           .sort_values(["split", "lang"]).reset_index(drop=True))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    want = con.execute(SPLIT_ASSIGN_SQL).df()
    assert got.equals(want.reset_index(drop=True))
    # partition function: every doc in exactly one split
    total = con.execute("SELECT count(*) FROM documents").fetchone()[0]
    assert got["n_docs"].sum() == total


def test_equi_depth_buckets_matches_duckdb_and_is_balanced(ray_session):
    duckdb = pytest.importorskip("duckdb")
    from p2pddsketch_ray.pipelines.relational import (
        EQUI_DEPTH_SQL, equi_depth_buckets)
    sf = "/root/testdata/sf0.001"
    got = (equi_depth_buckets(sf).to_pandas()
           .sort_values("bucket").reset_index(drop=True))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW lineitem AS SELECT * FROM "
                f"read_parquet('{sf}/lineitem.parquet')")
    want = con.execute(EQUI_DEPTH_SQL).df()
    assert got.equals(want.reset_index(drop=True))
    n = got["n"].sum()
    k = len(got)
    # equi-depth: each bucket holds ~n/k rows (exact boundaries; slack
    # only from ties at the boundary values)
    assert (got["n"] >= n // k - k).all() and (got["n"] <= n // k + k).all()
    assert got["hi"].is_monotonic_increasing


def test_source_vocab_overlap_matches_duckdb(ray_session):
    duckdb = pytest.importorskip("duckdb")
    from p2pddsketch_ray.pipelines.relational import (
        SOURCE_VOCAB_OVERLAP_SQL, source_vocab_overlap)
    sf = "/root/testdata/sf0.001"
    got = source_vocab_overlap(sf).to_pandas().reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    want = con.execute(SOURCE_VOCAB_OVERLAP_SQL).df()
    assert got.equals(want.reset_index(drop=True))


def test_source_vocab_overlap_disjoint_and_identical(ray_session,
                                                     tmp_path):
    """Two sources sharing everything -> jaccard 1.0; a third sharing
    nothing -> absent from the pair rows entirely (inner-join
    semantics)."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import source_vocab_overlap
    t = pa.table({
        "source": pa.array(["src0", "src1", "src2"]),
        "text": pa.array(["a b c", "c a b", "x y z"]),
    })
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    got = source_vocab_overlap(str(tmp_path)).to_pandas()
    pairs = {(r.source_a, r.source_b): (r.n_common, r.jaccard_ppm)
             for r in got.itertuples()}
    assert pairs == {("src0", "src1"): (3, 1_000_000)}


def test_corpus_quota_sample_matches_duckdb(ray_session):
    duckdb = pytest.importorskip("duckdb")
    from p2pddsketch_ray.pipelines.relational import (
        CORPUS_QUOTA_SQL, corpus_quota_sample)
    sf = "/root/testdata/sf0.001"
    got = (corpus_quota_sample(sf).to_pandas()
           .sort_values(["lang", "source", "rnk"])
           .reset_index(drop=True))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    want = con.execute(CORPUS_QUOTA_SQL).df()
    assert got.equals(want.reset_index(drop=True))
    # the cap binds: no cell exceeds 10, ranks are 1..k contiguous
    per = got.groupby(["lang", "source"])["rnk"]
    assert per.max().le(10).all()
    assert (per.max() == per.size()).all()


def test_corpus_quota_sample_block_invariant(ray_session, tmp_path):
    """The block-local prereduce must not change the selection: a
    many-tiny-blocks layout yields the identical roster."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import corpus_quota_sample
    src = pq.read_table("/root/testdata/sf0.001/documents.parquet",
                        columns=["doc_id", "lang", "source"])
    pq.write_table(src, str(tmp_path / "documents.parquet"),
                   row_group_size=37)  # many row groups -> many blocks
    base = (corpus_quota_sample("/root/testdata/sf0.001").to_pandas()
            .sort_values(["lang", "source", "rnk"])
            .reset_index(drop=True))
    split = (corpus_quota_sample(str(tmp_path)).to_pandas()
             .sort_values(["lang", "source", "rnk"])
             .reset_index(drop=True))
    assert base.equals(split)


def test_pq_encode_stats_invariants_and_block_invariance(ray_session,
                                                         tmp_path):
    """Every vector gets exactly one code per subspace, and the seed
    selection/codebook must not depend on the block layout."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import pq_encode_stats
    sf = "/root/testdata/sf0.001"
    base = (pq_encode_stats(sf).to_pandas()
            .sort_values(["sub", "code"]).reset_index(drop=True))
    n_vecs = pq.read_metadata(f"{sf}/embeddings.parquet").num_rows
    per_sub = base.groupby("sub")["n_assigned"].sum()
    assert (per_sub == n_vecs).all()
    assert (base["sum_d2"] >= 0).all()
    src = pq.read_table(f"{sf}/embeddings.parquet")
    pq.write_table(src, str(tmp_path / "embeddings.parquet"),
                   row_group_size=41)
    split = (pq_encode_stats(str(tmp_path)).to_pandas()
             .sort_values(["sub", "code"]).reset_index(drop=True))
    assert base.equals(split)


def test_kmeans_iter_improves_inertia(ray_session):
    """One Lloyd step never increases total inertia (means minimize
    within-cluster SSE, re-assignment minimizes per-point distance) and
    conserves membership totals."""
    from p2pddsketch_ray.pipelines.relational import kmeans_iter_stats
    out = kmeans_iter_stats("/root/testdata/sf0.001").to_pydict()
    assert sum(out["n_before"]) == sum(out["n_after"]) == 500
    assert sum(out["inertia_after"]) <= sum(out["inertia_before"])


def test_loo_target_encoding_excludes_self(ray_session):
    """Reconstructing (num + x_i) / (den + 1) recovers the category mean
    -- proving each row's own target was excluded from its encoding."""
    import duckdb
    from p2pddsketch_ray.pipelines.relational import loo_target_encoding
    sf = "/root/testdata/sf0.001"
    got = loo_target_encoding(sf).to_pandas()
    con = duckdb.connect()
    cat = con.execute(f"""
        SELECT event_type,
               sum(CAST(floor(value * 1000000.0 + 0.5) AS BIGINT)) AS s,
               count(*) AS n
        FROM read_parquet('{sf}/events.parquet') GROUP BY 1""").df()
    stats = {r.event_type: (int(r.s), int(r.n)) for r in cat.itertuples()}
    units = con.execute(f"""
        SELECT event_id, CAST(floor(value * 1000000.0 + 0.5) AS BIGINT) u
        FROM read_parquet('{sf}/events.parquet')
        WHERE event_id < 500""").df().set_index("event_id")["u"]
    assert len(got) == len(units)
    for r in got.itertuples():
        s, n = stats[r.event_type]
        assert r.loo_num + units[r.event_id] == s
        assert r.loo_den + 1 == n


def test_knn_vote_confusion_totals_and_bruteforce(ray_session):
    """Every evaluated vector is classified exactly once, and the
    prediction matches a brute-force numpy replica."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.functions.vectors import list_to_matrix
    from p2pddsketch_ray.pipelines.relational import knn_vote_confusion
    sf = "/root/testdata/sf0.001"
    out = knn_vote_confusion(sf, k=5, max_src=60).to_pandas()
    assert out["n"].sum() == 60
    emb = pq.read_table(f"{sf}/embeddings.parquet")
    emb = emb.take(emb["vec_id"].to_numpy().argsort())
    x = np.floor(list_to_matrix(emb["embedding"], dtype=np.float64)
                 * 1000.0 + 0.5).astype(np.int64)
    lab = emb["label"].to_numpy().astype(np.int64)
    vid = emb["vec_id"].to_numpy().astype(np.int64)
    conf = {}
    for i in np.nonzero(vid < 60)[0]:
        d2 = ((x - x[i]) ** 2).sum(axis=1)
        cand = sorted((int(d2[j]), int(vid[j]), int(lab[j]))
                      for j in range(len(vid)) if j != i)[:5]
        votes = {}
        for _, _, l in cand:
            votes[l] = votes.get(l, 0) + 1
        pred = min(votes, key=lambda l: (-votes[l], l))
        key = (int(lab[i]), pred)
        conf[key] = conf.get(key, 0) + 1
    got = {(int(r.label), int(r.pred)): int(r.n)
           for r in out.itertuples()}
    assert got == conf


def test_lsh_ann_topk_candidates_are_exactly_scored(ray_session):
    """The query lands at rank 1 with cos 1.0, and every returned
    similarity equals the brute-force cosine for that id (LSH prunes
    candidates, it never perturbs scores)."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.functions.vectors import list_to_matrix
    from p2pddsketch_ray.pipelines.relational import lsh_ann_topk
    sf = "/root/testdata/sf0.001"
    rows = lsh_ann_topk(sf).take_all()
    assert 0 < len(rows) <= 10
    assert rows[0]["vec_id"] == 0 and rows[0]["cos_sim"] == 1.0
    emb = pq.read_table(f"{sf}/embeddings.parquet")
    mat = list_to_matrix(emb["embedding"], dtype=np.float64)
    vid = emb["vec_id"].to_numpy()
    q = mat[vid == 0][0]
    q = q / np.linalg.norm(q)
    norms = np.linalg.norm(mat, axis=1)
    norms[norms == 0] = 1.0
    sims = {int(v): round(float(s), 4)
            for v, s in zip(vid, (mat @ q) / norms)}
    for r in rows:
        assert r["cos_sim"] == sims[r["vec_id"]]


def test_lang_source_mi_invariants(ray_session):
    """Cell counts cover the corpus and total MI is non-negative up to
    the per-cell flooring slack."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import lang_source_mi
    sf = "/root/testdata/sf0.001"
    out = lang_source_mi(sf).to_pydict()
    n_docs = pq.read_metadata(f"{sf}/documents.parquet").num_rows
    assert sum(out["cnt"]) == n_docs
    assert sum(out["mi_term_unats"]) >= -len(out["cnt"])


def test_rendezvous_minimal_movement(ray_session):
    """Every doc is placed exactly once and adding a 9th shard moves
    roughly 1/9 of the corpus (the HRW minimal-movement property)."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import rendezvous_shard_stats
    sf = "/root/testdata/sf0.001"
    out = rendezvous_shard_stats(sf).to_pandas()
    n_docs = pq.read_metadata(f"{sf}/documents.parquet").num_rows
    assert out["n_docs"].sum() == n_docs
    assert (out["n_moved"] <= out["n_docs"]).all()
    frac = out["n_moved"].sum() / n_docs
    assert 0.04 <= frac <= 0.25  # expected 1/9 ~ 0.11


def test_zorder_layout_prunes_and_matches(ray_session, tmp_path):
    """The z-layout scan is a superset of the exact matches, touches a
    strict subset of partitions, and never misses a matching row
    (verified against an unpruned count)."""
    import duckdb
    from p2pddsketch_ray.pipelines.relational import zorder_layout_stats
    sf = "/root/testdata/sf0.001"
    out = zorder_layout_stats(
        sf, out_root=str(tmp_path / "z")).to_pydict()
    n_match, n_scanned = out["n_match"][0], out["n_scanned"][0]
    touched, total = out["n_parts_touched"][0], out["n_parts_total"][0]
    assert n_match <= n_scanned
    assert 0 < touched < total
    con = duckdb.connect()
    want = con.execute(f"""
        SELECT count(*) FROM read_parquet('{sf}/events.parquet')
        WHERE user_id % 64 BETWEEN 8 AND 15
          AND (CAST(epoch_us(ts) AS BIGINT) // 3600000000) % 24
              BETWEEN 9 AND 16""").fetchone()[0]
    assert n_match == want


def test_decayed_popularity_bounds(ray_session):
    """Decayed weight never exceeds n_events * 1e6 and the freshest
    events contribute full weight (max-day events weigh exactly 1e6)."""
    from p2pddsketch_ray.pipelines.relational import decayed_type_popularity
    out = decayed_type_popularity("/root/testdata/sf0.001").to_pandas()
    assert (out["decayed_ppm"] <= out["n_events"] * 1_000_000).all()
    assert (out["decayed_ppm"] > 0).all()


def test_schema_evolution_read_roundtrip(ray_session, tmp_path):
    """Both generations survive the normalize-union: totals cover the
    whole table and v1 (pre-migration) carries zero props."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import (
        schema_evolution_read_stats)
    sf = "/root/testdata/sf0.001"
    out = schema_evolution_read_stats(
        sf, out_root=str(tmp_path / "snaps")).to_pandas()
    n = pq.read_metadata(f"{sf}/events.parquet").num_rows
    assert out["n_rows"].sum() == n
    v1 = out[out["schema_ver"] == "v1"].iloc[0]
    v2 = out[out["schema_ver"] == "v2"].iloc[0]
    assert v1["n_with_props"] == 0
    assert v2["n_with_props"] == v2["n_rows"]


def test_seasonal_naive_mae_no_leakage(ray_session):
    """Test rows are exactly the hash%4==0 quarter and the MAE is
    strictly positive (the baseline is not an oracle)."""
    import duckdb
    from p2pddsketch_ray.pipelines.relational import seasonal_naive_mae
    sf = "/root/testdata/sf0.001"
    out = seasonal_naive_mae(sf).to_pandas()
    con = duckdb.connect()
    want = con.execute(f"""
        SELECT event_type, count(*) AS n FROM
        read_parquet('{sf}/events.parquet')
        WHERE hash(event_id) % 4 = 0 GROUP BY 1 ORDER BY 1""").df()
    assert list(out["event_type"]) == list(want["event_type"])
    assert list(out["n_test"]) == list(want["n"])
    assert (out["sum_abs_err_c"] > 0).all()


def test_ab_arms_partition_users(ray_session):
    """Arms partition the user population and converters never exceed
    users."""
    import duckdb
    from p2pddsketch_ray.pipelines.relational import ab_test_arm_stats
    sf = "/root/testdata/sf0.001"
    out = ab_test_arm_stats(sf).to_pandas()
    con = duckdb.connect()
    total = con.execute(f"SELECT count(DISTINCT user_id) FROM "
                        f"read_parquet('{sf}/events.parquet')"
                        ).fetchone()[0]
    assert out["n_users"].sum() == total
    assert (out["n_converted"] <= out["n_users"]).all()


def test_session_bounce_consistent_with_sessionization(ray_session):
    """Bounce totals agree with the per-user sessionization output."""
    from p2pddsketch_ray.pipelines.relational import (
        events_sessionized, session_bounce_stats)
    sf = "/root/testdata/sf0.001"
    out = session_bounce_stats(sf).to_pydict()
    per_user = events_sessionized(sf).to_pandas()
    assert out["n_sessions"][0] == per_user["n_sessions"].sum()
    assert out["n_events"][0] == per_user["n_events"].sum()
    assert 0 <= out["n_bounced"][0] <= out["n_sessions"][0]


def test_activity_streak_edges(ray_session, tmp_path):
    """Hand-built histories: consecutive days form islands, gaps break
    them, duplicate same-day events dedup."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import activity_streak_stats
    DAY = 86_400_000_000
    rows = [
        # user 1: days 0,1,2 then 5 -> max streak 3
        (1, 0), (1, 1), (1, 1), (1, 2), (1, 5),
        # user 2: days 10, 12, 14 -> max streak 1
        (2, 10), (2, 12), (2, 14),
        # user 3: days 20,21 -> max streak 2
        (3, 20), (3, 21),
    ]
    t = pa.table({
        "user_id": pa.array([r[0] for r in rows], type=pa.int64()),
        "ts": pa.array([r[1] * DAY + 7 for r in rows],
                       type=pa.timestamp("us")),
    })
    pq.write_table(t, str(tmp_path / "events.parquet"))
    out = activity_streak_stats(str(tmp_path)).to_pandas()
    got = dict(zip(out["streak_days"], out["n_users"]))
    assert got == {1: 1, 2: 1, 3: 1}


def test_prefix_autocomplete_ranks(ray_session):
    """Ranks are contiguous from 1 and counts are non-increasing
    within each prefix."""
    from p2pddsketch_ray.pipelines.relational import (
        prefix_autocomplete_topk)
    out = (prefix_autocomplete_topk("/root/testdata/sf0.001")
           .to_pandas().sort_values(["prefix", "rnk"]))
    for _, g in out.groupby("prefix"):
        assert list(g["rnk"]) == list(range(1, len(g) + 1))
        assert (g["cnt"].diff().dropna() <= 0).all()


def test_local_supplier_volume_matches_duckdb_other_region(ray_session):
    """The Q5 shape holds for a different region parameter too (the
    gate pins ASIA; this pins EUROPE)."""
    import duckdb
    from p2pddsketch_ray.pipelines.relational import (
        LOCAL_SUPPLIER_VOLUME_SQL, local_supplier_volume)
    sf = "/root/testdata/sf0.001"
    got = (local_supplier_volume(sf, region="EUROPE").to_pandas()
           .reset_index(drop=True))
    con = duckdb.connect()
    for t in ("lineitem", "orders", "customer", "supplier", "nation",
              "region"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf}/{t}.parquet')")
    want = con.execute(LOCAL_SUPPLIER_VOLUME_SQL.replace(
        "'ASIA'", "'EUROPE'")).df()
    assert got.equals(want.reset_index(drop=True))


def test_revenue_gini_bruteforce(ray_session):
    """The distributed Gini equals a single-machine numpy computation
    and lands in (0, 1) ppm."""
    import duckdb
    from p2pddsketch_ray.pipelines.relational import revenue_gini
    sf = "/root/testdata/sf0.001"
    out = revenue_gini(sf).to_pydict()
    con = duckdb.connect()
    cents = np.sort(con.execute(
        f"SELECT CAST(floor(o_totalprice * 100.0 + 0.5) AS BIGINT) "
        f"FROM read_parquet('{sf}/orders.parquet')").df().iloc[:, 0]
        .to_numpy())
    n = len(cents)
    srx = sum(int(i + 1) * int(x) for i, x in enumerate(cents))
    sx = int(cents.sum())
    want = (2 * srx - (n + 1) * sx) * 1_000_000 // (n * sx)
    assert out["gini_ppm"][0] == want
    assert 0 < out["gini_ppm"][0] < 1_000_000
    assert out["n"][0] == n and out["sum_cents"][0] == sx


def test_top_session_paths_hand_built(ray_session, tmp_path):
    """A trigram must stay inside one session: gaps and user changes
    break it."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import top_session_paths
    m = 60 * 1_000_000
    rows = [  # user 1: A B C (tight) then gap then C B A
        (1, 0, 1, "A"), (2, 1 * m, 1, "B"), (3, 2 * m, 1, "C"),
        (4, 200 * m, 1, "C"), (5, 201 * m, 1, "B"), (6, 202 * m, 1, "A"),
        # user 2: A B C again -> A>B>C count 2
        (7, 0, 2, "A"), (8, 1 * m, 2, "B"), (9, 2 * m, 2, "C"),
    ]
    t = pa.table({
        "event_id": pa.array([r[0] for r in rows], type=pa.int64()),
        "ts": pa.array([r[1] for r in rows], type=pa.timestamp("us")),
        "user_id": pa.array([r[2] for r in rows], type=pa.int64()),
        "event_type": pa.array([r[3] for r in rows], type=pa.string()),
    })
    pq.write_table(t, str(tmp_path / "events.parquet"))
    out = top_session_paths(str(tmp_path)).to_pandas()
    got = dict(zip(out["path"], out["cnt"]))
    assert got == {"A>B>C": 2, "C>B>A": 1}


def test_embedding_gram_matches_numpy(ray_session):
    """The distributed Gram matrix equals X^T X over milli-units."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.functions.vectors import list_to_matrix
    from p2pddsketch_ray.pipelines.relational import embedding_gram_stats
    sf = "/root/testdata/sf0.001"
    out = embedding_gram_stats(sf).to_pandas()
    emb = pq.read_table(f"{sf}/embeddings.parquet")
    x = np.floor(list_to_matrix(emb["embedding"], dtype=np.float64)
                 * 1000.0 + 0.5).astype(np.int64)
    g = x.T @ x
    for r in out.sample(200, random_state=7).itertuples():
        assert g[int(r.i), int(r.j)] == int(r.s)


def test_gram_power_iteration_tracks_numpy(ray_session):
    """u1 equals the float64 numpy product exactly (it is int64-safe)
    and the u2 residues match big-int numpy."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.functions.vectors import list_to_matrix
    from p2pddsketch_ray.pipelines.relational import (
        _PI_MOD, gram_power_iteration)
    sf = "/root/testdata/sf0.001"
    out = gram_power_iteration(sf).to_pydict()
    emb = pq.read_table(f"{sf}/embeddings.parquet")
    x = np.floor(list_to_matrix(emb["embedding"], dtype=np.float64)
                 * 1000.0 + 0.5).astype(np.int64)
    G = (x.T @ x).astype(object)
    u1 = G.sum(axis=1)
    u2 = G @ u1
    assert out["u1"] == [int(v) for v in u1]
    assert out["u2_mod"] == [int(v) % _PI_MOD for v in u2]


def test_sorted_export_is_globally_sorted(ray_session, tmp_path):
    """Concatenating the exported files in bucket order yields a fully
    sorted sequence covering every input row."""
    import glob
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import sorted_export_stats
    sf = "/root/testdata/sf0.001"
    root = str(tmp_path / "sorted")
    out = sorted_export_stats(sf, out_root=root).to_pandas()
    files = sorted(glob.glob(f"{root}/part-*.parquet"))
    seq = np.concatenate([
        pq.read_table(f, columns=["cents"])["cents"].to_numpy()
        for f in files])
    assert (np.diff(seq) >= 0).all()
    n = pq.read_metadata(f"{sf}/orders.parquet").num_rows
    assert len(seq) == n == out["n"].sum()
    # files are non-overlapping in bucket order
    assert (out["min_cents"].to_numpy()[1:]
            >= out["max_cents"].to_numpy()[:-1]).all()


def test_bpe_pair_counts_hand_built(ray_session, tmp_path):
    """Within-token pairs count; cross-token pairs never do."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import bpe_pair_counts
    t = pa.table({
        "doc_id": pa.array([0, 1], type=pa.int64()),
        "text": pa.array(["abab xy", "ab"], type=pa.string()),
        "lang": pa.array(["en", "en"], type=pa.string()),
    })
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    out = bpe_pair_counts(str(tmp_path)).to_pandas()
    got = dict(zip(out["pair"], out["cnt"]))
    # 'abab' -> ab,ba,ab ; 'xy' -> xy ; 'ab' -> ab;  'b x'/'y a' never
    assert got == {"ab": 3, "ba": 1, "xy": 1}


def test_dedup_normalized_reveals_case_dups(ray_session, tmp_path):
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import dedup_normalized_stats
    t = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], type=pa.int64()),
        "text": pa.array(["Hello  World", "hello world",
                          "hello world", "other"], type=pa.string()),
        "lang": pa.array(["en"] * 4, type=pa.string()),
    })
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    out = dedup_normalized_stats(str(tmp_path)).to_pydict()
    assert out["n_docs"][0] == 4
    assert out["distinct_raw"][0] == 3
    assert out["distinct_normalized"][0] == 2
    assert out["extra_dups_from_norm"][0] == 1


def test_stratified_allocation_exactly_spends_budget(ray_session):
    from p2pddsketch_ray.pipelines.relational import (
        stratified_allocation_plan)
    out = stratified_allocation_plan("/root/testdata/sf0.001").to_pandas()
    assert out["alloc"].sum() == 100
    # proportionality within one seat of the real-valued share
    total = out["n"].sum()
    ideal = out["n"] * 100 / total
    assert ((out["alloc"] - ideal).abs() < 1.0).all()


def test_doc_length_hill_nonnegative_and_exact(ray_session):
    """Terms are ln of ratios >= 1 so the sum is non-negative, and the
    estimate matches a direct numpy computation."""
    import duckdb
    from p2pddsketch_ray.pipelines.relational import doc_length_hill
    sf = "/root/testdata/sf0.001"
    out = doc_length_hill(sf).to_pydict()
    assert out["sum_ln_unats"][0] >= 0
    con = duckdb.connect()
    lens = con.execute(
        f"SELECT n_chars FROM read_parquet('{sf}/documents.parquet') "
        f"ORDER BY n_chars DESC, doc_id LIMIT 101").df()["n_chars"] \
        .to_numpy().astype(np.float64)
    terms = np.floor(np.log(lens[:100] / lens[100]) * 1e6).astype(
        np.int64)
    assert out["sum_ln_unats"][0] == int(terms.sum())


def test_split_user_coverage_bounds(ray_session):
    from p2pddsketch_ray.pipelines.relational import split_user_coverage
    out = split_user_coverage("/root/testdata/sf0.001").to_pydict()
    assert out["n_cold_users"][0] <= out["n_test_users"][0]
    assert 0 <= out["cold_ppm"][0] <= 1_000_000


def test_tukey_outliers_robust_to_monster_value(ray_session, tmp_path):
    """One monster value cannot widen the fences (unlike k-sigma): it
    is itself flagged and the low fence stays put."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import tukey_outlier_counts
    vals = [10.0 + (i % 7) * 0.5 for i in range(200)] + [1e7]
    t = pa.table({
        "l_returnflag": pa.array(["A"] * 201, type=pa.string()),
        "l_extendedprice": pa.array(vals, type=pa.float64()),
    })
    pq.write_table(t, str(tmp_path / "lineitem.parquet"))
    out = tukey_outlier_counts(str(tmp_path)).to_pydict()
    assert out["n_high"][0] == 1   # only the monster
    assert out["n_low"][0] == 0


def test_benford_digit_audit_exact_counts(ray_session, tmp_path):
    """Digit counting is exact: a hand-built price column with known
    first digits reproduces its bincount, and ppm rows sum to ~1e6."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import benford_digit_audit
    # first digits: 1 x4, 2 x3, 9 x2, 5 x1  (cents = 100*price)
    prices = [1.00, 10.50, 199.99, 0.015,   # cents 100,1050,19999,2 -> 1,1,1,2
              2.50, 25.00, 0.29,            # 250,2500,29 -> 2,2,2
              9.99, 0.95,                   # 999,95 -> 9,9
              5.00]                         # 500 -> 5
    t = pa.table({"o_totalprice": pa.array(prices, type=pa.float64())})
    pq.write_table(t, str(tmp_path / "orders.parquet"))
    out = benford_digit_audit(str(tmp_path)).to_pydict()
    assert out["digit"] == list(range(1, 10))
    byd = dict(zip(out["digit"], out["n_obs"]))
    assert byd == {1: 3, 2: 4, 3: 0, 4: 0, 5: 1, 6: 0, 7: 0, 8: 0, 9: 2}
    assert sum(out["n_obs"]) == 10
    assert 999990 <= sum(out["obs_ppm"]) <= 1000000
    # Benford constants are the published log10(1+1/d) masses
    assert out["benford_ppm"][0] == 301029


def test_customer_frequency_spectrum_good_turing(ray_session, tmp_path):
    """Known frequency-of-frequencies: 3 singletons, 1 pair, 1 heavy
    12x customer -> N1=3, N=17, P0 = 3e6//17."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import (
        customer_frequency_spectrum)
    keys = [1, 2, 3] + [4, 4] + [5] * 12
    t = pa.table({"o_custkey": pa.array(keys, type=pa.int64())})
    pq.write_table(t, str(tmp_path / "orders.parquet"))
    out = customer_frequency_spectrum(str(tmp_path)).to_pydict()
    assert out["k"] == [1, 2, 11]
    assert out["n_users"] == [3, 1, 1]
    assert out["n_events"] == [3, 2, 12]
    assert out["gt_unseen_ppm"] == [3 * 1_000_000 // 17] * 3


def test_spearman_perfect_and_inverse_rank_corr(ray_session, tmp_path):
    """A type pair with identical hourly ordering scores ~+1e6 ppm; a
    perfectly inverted pair scores ~-1e6 ppm (tie-free grid)."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import spearman_hourly_corr
    base = pa.timestamp("us")
    rows_ts, rows_ty = [], []
    t0 = 1_700_000_000_000_000  # us epoch, hour-aligned enough
    t0 -= t0 % 3_600_000_000
    for h in range(6):
        for ty, cnt in (("a", h + 1), ("b", 2 * (h + 1)),
                        ("c", 6 - h)):
            for _ in range(cnt):
                rows_ts.append(t0 + h * 3_600_000_000)
                rows_ty.append(ty)
    t = pa.table({"ts": pa.array(rows_ts, type=base),
                  "event_type": pa.array(rows_ty, type=pa.string())})
    pq.write_table(t, str(tmp_path / "events.parquet"))
    out = spearman_hourly_corr(str(tmp_path)).to_pydict()
    got = {(a, b): p for a, b, p in
           zip(out["type_a"], out["type_b"], out["rho_ppm"])}
    assert got[("a", "b")] == 1_000_000      # same ranking
    assert got[("a", "c")] == -1_000_000     # inverted
    assert out["n_hours"] == [6, 6, 6]


def test_ks_drift_detects_disjoint_and_identical(ray_session, tmp_path):
    """Disjoint supports give KS = 1e6 ppm; identical samples give 0."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import ks_drift_binned
    lo = [float(i) for i in range(100)]
    hi = [float(i) + 1000.0 for i in range(100)]
    t = pa.table({
        "event_type": pa.array(["click"] * 100 + ["error"] * 100),
        "value": pa.array(lo + hi, type=pa.float64()),
    })
    pq.write_table(t, str(tmp_path / "events.parquet"))
    out = ks_drift_binned(str(tmp_path)).to_pydict()
    assert out["ks_ppm"] == [1_000_000]
    t2 = pa.table({
        "event_type": pa.array(["click"] * 100 + ["error"] * 100),
        "value": pa.array(lo + lo, type=pa.float64()),
    })
    pq.write_table(t2, str(tmp_path / "events.parquet"))
    out2 = ks_drift_binned(str(tmp_path)).to_pydict()
    assert out2["ks_ppm"] == [0]
    assert out2["n_a"] == [100] and out2["n_b"] == [100]


def test_km_survival_hand_cohort(ray_session, tmp_path):
    """4-user cohort: two convert at hour 1, one converts past the
    horizon, one never -> one death row with S = exp(ln(2/4))."""
    import math
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import km_user_survival
    H = 3_600_000_000
    t0 = 1_700_000_000_000_000 - (1_700_000_000_000_000 % H)
    rows = [
        (1, t0, "view"), (1, t0 + H, "purchase"),
        (2, t0, "view"), (2, t0 + H, "purchase"),
        (3, t0, "view"), (3, t0 + 100 * H, "purchase"),
        (4, t0, "view"), (4, t0 + 10 * H, "click"),
    ]
    t = pa.table({
        "user_id": pa.array([r[0] for r in rows], type=pa.int64()),
        "ts": pa.array([r[1] for r in rows], type=pa.timestamp("us")),
        "event_type": pa.array([r[2] for r in rows], type=pa.string()),
    })
    pq.write_table(t, str(tmp_path / "events.parquet"))
    out = km_user_survival(str(tmp_path)).to_pydict()
    assert out["hour"] == [1]
    assert out["n_risk"] == [4] and out["n_deaths"] == [2]
    assert out["surv_micronat"] == [math.floor(math.log(0.5) * 1e6)]


def test_theilsen_ignores_one_broken_day(ray_session, tmp_path):
    """A clean +2/day ramp with one zeroed logging day keeps a median
    pairwise slope of exactly 2e6 micro/day (OLS would bend)."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import theilsen_daily_trend
    D = 86_400_000_000
    t0 = 1_700_000_000_000_000 - (1_700_000_000_000_000 % D)
    ts, ty = [], []
    for day in range(9):
        cnt = 0 if day == 4 else 2 * (day + 1)   # broken day 4
        for k in range(cnt):
            ts.append(t0 + day * D + k)
            ty.append("click")
    t = pa.table({"ts": pa.array(ts, type=pa.timestamp("us")),
                  "event_type": pa.array(ty, type=pa.string())})
    pq.write_table(t, str(tmp_path / "events.parquet"))
    out = theilsen_daily_trend(str(tmp_path)).to_pydict()
    assert out["event_type"] == ["click"]
    assert out["n_days"] == [8]          # day 4 has no rows at all
    assert out["slope_micro_per_day"] == [2_000_000]


def test_moment_shape_uniform_vs_spike(ray_session, tmp_path):
    """A uniform value grid has ~zero skew and excess kurtosis near
    -1.2e6 ppm; a spiked distribution turns both sharply positive."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import moment_shape_by_type
    uni = [float(i) for i in range(1024)]
    spike = [100.0] * 1000 + [1023.0] * 3 + [0.0] * 3
    t = pa.table({
        "event_type": pa.array(["uni"] * len(uni) + ["spk"] * len(spike)),
        "value": pa.array(uni + spike, type=pa.float64()),
    })
    pq.write_table(t, str(tmp_path / "events.parquet"))
    out = moment_shape_by_type(str(tmp_path)).to_pydict()
    got = {ty: (s, k) for ty, s, k in
           zip(out["event_type"], out["skew_ppm"], out["kurt_ppm"])}
    assert abs(got["uni"][0]) <= 10                 # symmetric
    assert abs(got["uni"][1] + 1_200_000) <= 5_000  # uniform kurtosis
    assert got["spk"][1] > 10_000_000               # heavy spike tails


def test_cusum_flags_sustained_shift_not_flat(ray_session, tmp_path):
    """A flat series never alarms; a series whose level doubles halfway
    through alarms within the shifted region."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import cusum_hourly_alarms
    H = 3_600_000_000
    t0 = 1_700_000_000_000_000 - (1_700_000_000_000_000 % H)
    ts, ty = [], []
    for h in range(40):
        for _ in range(5):                       # flat type
            ts.append(t0 + h * H); ty.append("flat")
        for _ in range(5 if h < 20 else 10):     # level shift at h=20
            ts.append(t0 + h * H); ty.append("shift")
    t = pa.table({"ts": pa.array(ts, type=pa.timestamp("us")),
                  "event_type": pa.array(ty, type=pa.string())})
    pq.write_table(t, str(tmp_path / "events.parquet"))
    out = cusum_hourly_alarms(str(tmp_path)).to_pydict()
    got = {ty: (a, f) for ty, a, f in
           zip(out["event_type"], out["n_alarms"],
               out["first_alarm_hour"])}
    assert got["flat"] == (0, -1)
    assert got["shift"][0] > 0 and got["shift"][1] >= 20


def test_gopher_rules_attribute_each_rule(ray_session, tmp_path):
    """Crafted docs trip each rule exactly once; a clean doc passes."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import gopher_rules_report
    clean = ("the quick brown fox jumps over the lazy dog and then "
             "runs far away to the old barn for a long nap today " * 3)
    short = "the and of tiny text"                   # <30 tokens -> R1
    longtok = ("supercalifragilistic " * 40          # mean len > 10 -> R2
               + "the and of it is that " * 2)
    symbol = (("w. " * 60) + "the and of it is ")    # punct heavy -> R3
    nostop = ("zebra quartz " * 20)                  # no stopwords -> R4
    t = pa.table({
        "lang": pa.array(["en"] * 5),
        "text": pa.array([clean, short, longtok, symbol, nostop]),
    })
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    out = gopher_rules_report(str(tmp_path)).to_pydict()
    assert out["n_docs"] == [5]
    assert out["n_fail_wordcount"][0] >= 1
    assert out["n_fail_wordlen"][0] >= 1
    assert out["n_fail_symbol"][0] >= 1
    assert out["n_fail_stopword"][0] >= 1
    assert out["n_pass"] == [1]


def test_hll_type_overlap_tracks_true_intersection(ray_session, tmp_path):
    """Disjoint user ranges -> intersection est near 0; identical user
    sets -> intersection est near |A|; both within HLL error."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.approx import hll_type_overlap
    # A = users 0..999 clicking, B = users 500..1499 viewing:
    # true |A|=|B|=1000, |A∩B|=500
    uid = list(range(1000)) + list(range(500, 1500))
    ty = ["click"] * 1000 + ["view"] * 1000
    t = pa.table({"user_id": pa.array(uid, type=pa.int64()),
                  "event_type": pa.array(ty, type=pa.string())})
    pq.write_table(t, str(tmp_path / "events.parquet"))
    out = hll_type_overlap(str(tmp_path)).to_pydict()
    assert abs(out["est_a"][0] - 1000) < 100
    assert abs(out["est_b"][0] - 1000) < 100
    assert abs(out["est_union"][0] - 1500) < 150
    assert abs(out["est_intersection"][0] - 500) < 200


def test_vocab_growth_counts_first_appearances(ray_session, tmp_path):
    """10 docs, each decile = one doc: doc0 mints 2 types, doc5 mints 1
    new type (re-using doc0's), rest mint nothing new."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import vocab_growth_curve
    texts = ["alpha beta"] + ["alpha"] * 4 + ["beta gamma"] + \
        ["gamma alpha"] * 4
    t = pa.table({"doc_id": pa.array(list(range(10)), type=pa.int64()),
                  "text": pa.array(texts, type=pa.string())})
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    out = vocab_growth_curve(str(tmp_path)).to_pydict()
    assert out["new_tokens"] == [2, 0, 0, 0, 0, 1, 0, 0, 0, 0]
    assert out["cum_vocab"] == [2, 2, 2, 2, 2, 3, 3, 3, 3, 3]
    assert sum(out["occurrences"]) == 16   # total token occurrences


def test_fano_poisson_vs_regular(ray_session, tmp_path):
    """A metronome series (same count every hour) has Fano 0; a bursty
    one (all mass in one hour) has Fano ~ n_hours * mean."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import (
        fano_dispersion_by_type)
    H = 3_600_000_000
    t0 = 1_700_000_000_000_000 - (1_700_000_000_000_000 % H)
    ts, ty = [], []
    for h in range(10):
        for _ in range(4):
            ts.append(t0 + h * H); ty.append("flat")
    for _ in range(40):
        ts.append(t0 + 3 * H); ty.append("burst")
    t = pa.table({"ts": pa.array(ts, type=pa.timestamp("us")),
                  "event_type": pa.array(ty, type=pa.string())})
    pq.write_table(t, str(tmp_path / "events.parquet"))
    out = fano_dispersion_by_type(str(tmp_path)).to_pydict()
    got = dict(zip(out["event_type"], out["fano_ppm"]))
    assert got["flat"] == 0
    assert got["burst"] == 36_000_000   # var/mean = 144/4 = 36


def test_hhi_even_vs_monopoly(ray_session, tmp_path):
    """Even 4-way split -> 250000 ppm; single source -> 1e6 ppm."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import (
        hhi_source_concentration)
    langs = ["ev"] * 8 + ["mono"] * 5
    srcs = ["a", "b", "c", "d"] * 2 + ["solo"] * 5
    t = pa.table({"lang": pa.array(langs), "source": pa.array(srcs)})
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    out = hhi_source_concentration(str(tmp_path)).to_pydict()
    got = dict(zip(out["lang"], out["hhi_ppm"]))
    assert got["ev"] == 250_000 and got["mono"] == 1_000_000


def test_eb_shrinkage_demotes_tiny_samples(ray_session, tmp_path):
    """A 1-for-1 user must NOT outrank a 90-for-100 user after
    shrinkage toward the global prior."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import eb_shrunk_user_rates
    uid, ty = [], []
    uid += [1]; ty += ["purchase"]                       # 1/1
    uid += [2] * 100; ty += ["purchase"] * 90 + ["view"] * 10
    for u in range(3, 40):                               # background
        uid += [u] * 10; ty += ["purchase"] * 1 + ["view"] * 9
    t = pa.table({"user_id": pa.array(uid, type=pa.int64()),
                  "event_type": pa.array(ty, type=pa.string())})
    pq.write_table(t, str(tmp_path / "events.parquet"))
    out = eb_shrunk_user_rates(str(tmp_path)).to_pydict()
    assert out["user_id"][0] == 2          # the well-attested 90%
    r = {u: s for u, s in zip(out["user_id"], out["shrunk_ppm"])}
    assert r[2] > r[1]


def test_temperature_mix_upsamples_tail(ray_session, tmp_path):
    """T=0.7 lifts the low-resource language's share above its raw
    share and flattens the head; weights still sum to exactly 1e6."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import (
        temperature_mix_weights)
    t = pa.table({"lang": pa.array(["en"] * 900 + ["sw"] * 100)})
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    out = temperature_mix_weights(str(tmp_path)).to_pydict()
    got = {l: (r, tp) for l, r, tp in
           zip(out["lang"], out["raw_ppm"], out["temp_ppm"])}
    assert got["sw"][1] > got["sw"][0]      # tail upsampled
    assert got["en"][1] < got["en"][0]      # head flattened
    assert sum(out["temp_ppm"]) == 1_000_000


def test_fk_audit_counts_orphans(ray_session, tmp_path):
    """Child keys missing from the parent are counted as orphan rows
    AND orphan keys; intact relations report zero."""
    import pyarrow.parquet as pq
    import p2pddsketch_ray.pipelines.relational as R
    # minimal schema: one intact edge, one broken edge
    pq.write_table(pa.table({
        "n_nationkey": pa.array([0, 1], type=pa.int32()),
        "n_regionkey": pa.array([0, 7], type=pa.int32()),  # 7 dangles
    }), str(tmp_path / "nation.parquet"))
    pq.write_table(pa.table({
        "r_regionkey": pa.array([0], type=pa.int32()),
    }), str(tmp_path / "region.parquet"))
    rels = [r for r in R._FK_RELATIONS if r[1] in ("nation",)]
    orig = R._FK_RELATIONS
    R._FK_RELATIONS = rels
    try:
        out = R.fk_integrity_audit(str(tmp_path)).to_pydict()
    finally:
        R._FK_RELATIONS = orig
    assert out["relation"] == ["nation.n_regionkey->region"]
    assert out["fk_rows"] == [2] and out["distinct_fk"] == [2]
    assert out["orphan_rows"] == [1] and out["orphan_keys"] == [1]


def test_fd_audit_flags_multivalued_lhs(ray_session, tmp_path):
    """An lhs with two distinct rhs values is a violating group; the
    worst group's variant count and pair totals are exact."""
    import pyarrow.parquet as pq
    import p2pddsketch_ray.pipelines.relational as R
    pq.write_table(pa.table({
        "source": pa.array(["a", "a", "a", "b", "b"]),
        "lang": pa.array(["en", "de", "en", "fr", "fr"]),
    }), str(tmp_path / "documents.parquet"))
    checks = [c for c in R._FD_CHECKS if c[1] == "documents"]
    orig = R._FD_CHECKS
    R._FD_CHECKS = checks
    try:
        out = R.fd_violation_audit(str(tmp_path)).to_pydict()
    finally:
        R._FD_CHECKS = orig
    assert out["lhs_groups"] == [2]
    assert out["violating_groups"] == [1]      # only 'a'
    assert out["max_rhs_variants"] == [2]
    assert out["distinct_pairs"] == [3]


def test_ooo_lateness_matches_sequential_walk(ray_session, tmp_path):
    """Distributed prefix-max lateness == a driver-side sequential
    running max, including across sorted-block boundaries."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.temporal import ooo_lateness_stats
    rng = np.random.default_rng(7)
    n = 5000
    eid = np.arange(n, dtype=np.int64)
    base = np.cumsum(rng.integers(0, 1_000_000, n)).astype(np.int64)
    jitter = rng.integers(-5_000_000, 5_000_000, n)
    ts_us = base + jitter
    types = rng.choice(["a", "b", "c"], n)
    pq.write_table(pa.table({
        "event_id": pa.array(eid),
        "ts": pa.array(ts_us, type=pa.int64()).cast(
            pa.timestamp("us")),
        "user_id": pa.array(eid),
        "event_type": pa.array(types),
        "value": pa.array(np.zeros(n)),
        "props": pa.array([""] * n),
    }), str(tmp_path / "events.parquet"))
    out = ooo_lateness_stats(str(tmp_path)).to_pandas()
    got = {r.event_type: (r.n_events, r.n_late,
                          r.sum_late_s * 1_000_000 + r.late_rem_us,
                          r.max_late_us)
           for r in out.itertuples()}
    # sequential reference
    run = np.maximum.accumulate(ts_us)
    prev = np.concatenate(([-(2 ** 62)], run[:-1]))
    late = np.maximum(prev - ts_us, 0)
    for ty in ("a", "b", "c"):
        m = types == ty
        assert got[ty][0] == int(m.sum())
        assert got[ty][1] == int((late[m] > 0).sum())
        assert got[ty][2] == int(late[m].sum())
        assert got[ty][3] == int(late[m].max())


def test_char_bigram_entropy_hand_computed(ray_session, tmp_path):
    """'aab' -> two bigrams each with p=1/2 under ctx 'a':
    xent = 2 * -floor(ln(.5)*1e6) = 1386296 micro-nats; a 1-char doc
    counts toward n_docs but contributes nothing."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import (
        char_bigram_entropy_by_lang)
    pq.write_table(pa.table({
        "lang": pa.array(["x", "x"]),
        "text": pa.array(["aab", "z"]),
    }), str(tmp_path / "documents.parquet"))
    out = char_bigram_entropy_by_lang(str(tmp_path)).to_pydict()
    assert out["lang"] == ["x"]
    assert out["n_docs"] == [2]
    assert out["distinct_bigrams"] == [2]
    assert out["n_bigrams"] == [2]
    assert out["xent_micro"] == [1386296]


def test_tokenizer_fertility_hand_computed(ray_session, tmp_path):
    """'ab cd, ee': 3 whitespace words, 4 BPE-ish tokens
    (ab / cd / ',' / ee), 9 chars."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import (
        tokenizer_fertility_by_lang)
    pq.write_table(pa.table({
        "lang": pa.array(["x"]),
        "text": pa.array(["ab cd, ee"]),
    }), str(tmp_path / "documents.parquet"))
    out = tokenizer_fertility_by_lang(str(tmp_path)).to_pandas()
    r = out.iloc[0]
    assert (r.ws_tokens, r.bpe_tokens, r.n_chars) == (3, 4, 9)
    assert r.fertility_ppm == 4 * 1_000_000 // 3
    assert r.tokens_per_kchar_ppm == 4 * 1_000_000_000 // 9


def test_join_fanout_histogram_with_zero_bucket(ray_session, tmp_path):
    """Orders without lines land in the fanout=0 bucket."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import join_fanout_histogram
    pq.write_table(pa.table({
        "o_orderkey": pa.array([1, 2, 3, 4], type=pa.int64()),
    }), str(tmp_path / "orders.parquet"))
    pq.write_table(pa.table({
        "l_orderkey": pa.array([1, 1, 1, 2], type=pa.int64()),
    }), str(tmp_path / "lineitem.parquet"))
    out = join_fanout_histogram(str(tmp_path)).to_pydict()
    got = dict(zip(out["fanout"], out["n_orders"]))
    assert got == {0: 2, 1: 1, 3: 1}


def test_dup_cluster_size_hist(ray_session, tmp_path):
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import dup_cluster_size_hist
    pq.write_table(pa.table({
        "doc_id": pa.array([1, 2, 3, 4, 5, 6], type=pa.int64()),
        "text": pa.array(["x", "x", "x", "y", "y", "z"]),
    }), str(tmp_path / "documents.parquet"))
    out = dup_cluster_size_hist(str(tmp_path)).to_pydict()
    assert out["cluster_size"] == [1, 2, 3]
    assert out["n_clusters"] == [1, 1, 1]
    assert out["n_docs"] == [1, 2, 3]


def test_source_similarity_identical_vs_disjoint(ray_session, tmp_path):
    """Identical token vectors -> cos_ppm ~ 1e6; disjoint -> 0."""
    import pyarrow.parquet as pq
    import p2pddsketch_ray.pipelines.relational as R
    pq.write_table(pa.table({
        "source": pa.array(["src0", "src1", "src2"]),
        "text": pa.array(["apple banana", "apple banana",
                          "cherry date"]),
    }), str(tmp_path / "documents.parquet"))
    out = R.source_similarity_matrix(str(tmp_path)).to_pandas()
    out = out.set_index(["source_a", "source_b"])
    assert out.loc[("src0", "src1"), "cos_ppm"] in (999999, 1000000)
    assert out.loc[("src0", "src2"), "cos_ppm"] == 0
    assert out.loc[("src0", "src1"), "dot"] == 2
    assert len(out) == 3  # only present sources pair up


def test_pinball_q90_optimality(ray_session, tmp_path):
    """The per-cell q90 predictor must not lose to a mean predictor on
    pinball(0.9) over a skewed cell -- sanity of the loss wiring; and
    the loss equals the hand-computed value on a tiny fixture."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import pinball_eval_hourly
    from p2pddsketch_ray.hashing import murmur64
    # values all in one (type, hour) cell; ts fixed
    n = 40
    eids = np.arange(n, dtype=np.int64)
    vals = np.where(np.arange(n) % 10 == 0, 100.0, 1.0)
    pq.write_table(pa.table({
        "event_id": pa.array(eids),
        "ts": pa.array(np.zeros(n, dtype=np.int64)).cast(
            pa.timestamp("us")),
        "user_id": pa.array(eids),
        "event_type": pa.array(["t"] * n),
        "value": pa.array(vals),
        "props": pa.array([""] * n),
    }), str(tmp_path / "events.parquet"))
    out = pinball_eval_hourly(str(tmp_path)).to_pandas()
    out = {k: list(out[k]) for k in out.columns}
    assert out["event_type"] == ["t"]
    is_test = (murmur64(eids) % np.uint64(4) == np.uint64(0))
    train_c = np.round(vals[~is_test] * 100).astype(np.int64)
    test_c = np.round(vals[is_test] * 100).astype(np.int64)
    # quantile_disc 0.9: element at 0-based rank ceil(0.9*n)-1
    srt = np.sort(train_c)
    p = srt[max(0, int(np.ceil(0.9 * len(srt))) - 1)]
    diff = test_c - p
    loss = np.where(diff >= 0, 9 * diff, -diff).sum()
    assert out["n_test"] == [int(is_test.sum())]
    assert out["pinball_x10"] == [int(loss)]


def test_postings_gaps_hand_case(ray_session, tmp_path):
    """token 'a' in docs 1,2,4 -> gaps 1 (bitlen 1) and 2 (bitlen 2);
    duplicate occurrences inside one doc collapse."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import postings_gap_stats
    pq.write_table(pa.table({
        "doc_id": pa.array([1, 2, 4], type=pa.int64()),
        "text": pa.array(["a a x", "a", "a y"]),
    }), str(tmp_path / "documents.parquet"))
    out = postings_gap_stats(str(tmp_path)).to_pydict()
    got = {b: (n, s) for b, n, s in zip(out["bitlen"], out["n_gaps"],
                                        out["sum_gaps"])}
    assert got[1] == (1, 1)   # gap 1->2
    assert got[2] == (1, 2)   # gap 2->4


def test_changepoint_finds_level_shift(ray_session, tmp_path):
    """A clean level shift at hour 5 is found exactly."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import (
        changepoint_binary_split)
    HOUR_US = 3_600_000_000
    hours = np.repeat(np.arange(10, dtype=np.int64), 20)
    vals = np.where(hours < 5, 10.0, 50.0)
    ts = hours * HOUR_US + np.arange(len(hours)) % 20
    pq.write_table(pa.table({
        "ts": pa.array(ts).cast(pa.timestamp("us")),
        "value": pa.array(vals),
    }), str(tmp_path / "events.parquet"))
    out = changepoint_binary_split(str(tmp_path)).to_pydict()
    assert out["split_hour"] == [4]   # split AFTER hour 4
    assert out["n1"] == [100] and out["n2"] == [100]


def test_association_rules_hand_case(ray_session, tmp_path):
    """users: {a,b}, {a}, {b} -> conf(a->b)=1/2, lift = conf/P(b) =
    (1/2)/(2/3) = 0.75."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import association_rules
    pq.write_table(pa.table({
        "user_id": pa.array([1, 1, 2, 3], type=pa.int64()),
        "event_type": pa.array(["a", "b", "a", "b"]),
    }), str(tmp_path / "events.parquet"))
    out = association_rules(str(tmp_path)).to_pandas()
    out = out.set_index(["antecedent", "consequent"])
    r = out.loc[("a", "b")]
    assert (r.n_x, r.n_y, r.n_both) == (2, 2, 1)
    assert r.conf_ppm == 500_000
    assert r.lift_milli == 500_000 * 3 // 2 // 1000  # 750


def test_markov_next_accuracy_hand_case(ray_session, tmp_path):
    """Stream a->b, a->b, a->c for one user: prediction for 'a' is 'b'
    with 2/3 accuracy."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.temporal import markov_next_accuracy
    seq = ["a", "b", "a", "b", "a", "c"]
    n = len(seq)
    pq.write_table(pa.table({
        "event_id": pa.array(np.arange(n, dtype=np.int64)),
        "ts": pa.array(np.arange(n, dtype=np.int64) * 1000).cast(
            pa.timestamp("us")),
        "user_id": pa.array(np.ones(n, dtype=np.int64)),
        "event_type": pa.array(seq),
        "value": pa.array(np.zeros(n)),
        "props": pa.array([""] * n),
    }), str(tmp_path / "events.parquet"))
    out = markov_next_accuracy(str(tmp_path)).to_pandas()
    out = out.set_index("from_type")
    # transitions: a->b (x2), b->a (x2), a->c (x1)
    assert out.loc["a", "predicted"] == "b"
    assert out.loc["a", "n_pairs"] == 3
    assert out.loc["a", "n_correct"] == 2
    assert out.loc["a", "acc_ppm"] == 2 * 1_000_000 // 3


def test_length_quality_corr_perfect(ray_session, tmp_path):
    """Token count proportional to n_chars -> corr_ppm ~ 1e6."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import length_quality_corr
    texts = ["a b", "a b c d", "a b c d e f"]
    pq.write_table(pa.table({
        "lang": pa.array(["x"] * 3),
        "text": pa.array(texts),
        "n_chars": pa.array([2, 4, 6], type=pa.int64()),
    }), str(tmp_path / "documents.parquet"))
    out = length_quality_corr(str(tmp_path)).to_pydict()
    assert out["lang"] == ["x"]
    assert out["corr_ppm"][0] in (999999, 1000000)


def test_hourly_autocorr_perfect_cycle(ray_session, tmp_path):
    """A pure 24-hour cycle: lag-24 autocorr ~ 1e6, lag-1 far below."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import hourly_autocorrelation
    HOUR_US = 3_600_000_000
    hours = np.arange(24 * 8, dtype=np.int64)
    vals = np.where(hours % 24 < 12, 1.0, 100.0)
    pq.write_table(pa.table({
        "ts": pa.array(hours * HOUR_US).cast(pa.timestamp("us")),
        "value": pa.array(vals),
    }), str(tmp_path / "events.parquet"))
    out = hourly_autocorrelation(str(tmp_path)).to_pandas()
    out = out.set_index("lag")
    assert out.loc[24, "autocorr_ppm"] >= 999_999
    assert out.loc[1, "autocorr_ppm"] < 900_000


def test_k_anonymity_audit_hand_case(ray_session, tmp_path):
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import k_anonymity_audit
    pq.write_table(pa.table({
        "c_nationkey": pa.array([0, 0, 0, 1, 1, 2], type=pa.int32()),
        "c_mktsegment": pa.array(["A", "A", "B", "A", "A", "A"]),
    }), str(tmp_path / "customer.parquet"))
    out = k_anonymity_audit(str(tmp_path)).to_pydict()
    # classes: (0,A)=2, (0,B)=1, (1,A)=2, (2,A)=1
    assert out["n_classes"] == [4] and out["n_rows"] == [6]
    assert out["k_min"] == [1] and out["k_max"] == [2]
    assert out["classes_at_risk"] == [4]  # all below 5
    assert out["rows_at_risk"] == [6]


def test_cuped_reduces_to_post_mean_when_theta_applied(ray_session,
                                                       tmp_path):
    """With pre == post per user, CUPED adjusts both arms to exactly
    the global mean (theta == 1)."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import (
        cuped_adjusted_outcomes)
    n = 200
    uid = np.arange(n, dtype=np.int64)
    # one pre event (ts in first half) and one identical post event
    ts = np.concatenate([np.zeros(n, dtype=np.int64),
                         np.full(n, 10_000_000, dtype=np.int64)])
    val = np.concatenate([uid.astype(np.float64) / 100,
                          uid.astype(np.float64) / 100])
    pq.write_table(pa.table({
        "user_id": pa.array(np.concatenate([uid, uid])),
        "ts": pa.array(ts).cast(pa.timestamp("us")),
        "value": pa.array(val),
    }), str(tmp_path / "events.parquet"))
    out = cuped_adjusted_outcomes(str(tmp_path)).to_pandas()
    assert len(out) == 2
    # theta == 1 -> adjusted means equal the GLOBAL pre mean for both
    # arms (pre == post), so the two arms agree to the micro unit
    assert abs(int(out["adj_mean_micro"][0])
               - int(out["adj_mean_micro"][1])) <= 1


def test_filter_grid_monotone(ray_session, tmp_path):
    """Stricter thresholds never keep more docs."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import filter_threshold_grid
    rng = np.random.default_rng(9)
    texts = [" ".join(["tok"] * int(k)) + ("!" * int(p))
             for k, p in zip(rng.integers(1, 200, 300),
                             rng.integers(0, 30, 300))]
    pq.write_table(pa.table({
        "text": pa.array(texts),
        "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
    }), str(tmp_path / "documents.parquet"))
    out = filter_threshold_grid(str(tmp_path)).to_pandas()
    out = out.set_index(["min_tokens", "max_punct_per_100"])
    for mp in (5, 10, 20):
        assert out.loc[(10, mp), "kept_docs"] >= \
            out.loc[(30, mp), "kept_docs"] >= \
            out.loc[(100, mp), "kept_docs"]
    for mt in (10, 30, 100):
        assert out.loc[(mt, 20), "kept_docs"] >= \
            out.loc[(mt, 5), "kept_docs"]


def test_rolling_extrema_known_series(ray_session, tmp_path):
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import rolling_extrema_hourly
    HOUR_US = 3_600_000_000
    hours = np.arange(30, dtype=np.int64)
    vals = (hours % 7).astype(np.float64)
    pq.write_table(pa.table({
        "ts": pa.array(hours * HOUR_US).cast(pa.timestamp("us")),
        "value": pa.array(vals),
    }), str(tmp_path / "events.parquet"))
    out = rolling_extrema_hourly(str(tmp_path)).to_pandas()
    import pandas as pd
    cents = (hours % 7) * 100
    ref = pd.Series(cents)
    assert (out["roll_min"].to_numpy()
            == ref.rolling(24, min_periods=1).min().to_numpy()).all()
    assert (out["roll_max"].to_numpy()
            == ref.rolling(24, min_periods=1).max().to_numpy()).all()


def test_revenue_topshare_concentration(ray_session, tmp_path):
    """One whale among 99 small customers owns the top share."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import revenue_topshare
    cust = np.arange(100, dtype=np.int64)
    price = np.where(cust == 7, 10_000.0, 10.0)
    pq.write_table(pa.table({
        "o_custkey": pa.array(cust),
        "o_totalprice": pa.array(price),
    }), str(tmp_path / "orders.parquet"))
    out = revenue_topshare(str(tmp_path)).to_pydict()
    assert out["n_customers"] == [100]
    assert out["n_above"] == [1]
    total = 99 * 1000 + 1_000_000
    assert out["share_ppm"] == [1_000_000 * 1_000_000 // total]


def test_emd_zero_for_identical_distributions(ray_session, tmp_path):
    """Two types drawn as exact copies have EMD == 0; a shifted copy
    has strictly positive EMD."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import emd_drift_binned
    v = np.linspace(1.0, 200.0, 400)
    t = pa.table({
        "event_type": pa.array(["view"] * 400 + ["purchase"] * 400),
        "value": pa.array(np.concatenate([v, v])),
    })
    pq.write_table(t, str(tmp_path / "events.parquet"))
    out = emd_drift_binned(str(tmp_path)).to_pydict()
    assert out["emd_ppm_of_span"] == [0]

    t2 = pa.table({
        "event_type": pa.array(["view"] * 400 + ["purchase"] * 400),
        "value": pa.array(np.concatenate([v, v + 50.0])),
    })
    pq.write_table(t2, str(tmp_path / "events.parquet"))
    out2 = emd_drift_binned(str(tmp_path)).to_pydict()
    assert out2["emd_ppm_of_span"][0] > 0


def test_mann_kendall_monotone_series(ray_session, tmp_path):
    """A strictly increasing daily count yields S = n(n-1)/2 and
    tau_ppm = 1e6; a strictly decreasing one mirrors to -1e6."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import mann_kendall_trend
    DAY_US = 86_400_000_000
    rows_ts, rows_type = [], []
    for d in range(10):
        rows_ts += [d * DAY_US] * (d + 1)       # up: 1,2,...,10
        rows_type += ["up"] * (d + 1)
        rows_ts += [d * DAY_US] * (10 - d)      # down: 10,9,...,1
        rows_type += ["down"] * (10 - d)
    pq.write_table(pa.table({
        "ts": pa.array(np.array(rows_ts, dtype=np.int64)).cast(
            pa.timestamp("us")),
        "event_type": pa.array(rows_type, type=pa.string()),
    }), str(tmp_path / "events.parquet"))
    out = (mann_kendall_trend(str(tmp_path)).to_pandas()
           .set_index("event_type"))
    assert int(out.loc["up", "mk_s"]) == 45
    assert int(out.loc["up", "tau_ppm"]) == 1_000_000
    assert int(out.loc["down", "mk_s"]) == -45
    assert int(out.loc["down", "tau_ppm"]) == -1_000_000
    # no ties in either series -> full variance numerator
    assert int(out.loc["up", "var_s_x18"]) == 10 * 9 * 25


def test_mannwhitney_matches_scipy_formula(ray_session, tmp_path):
    """Doubled-rank U equals the brute-force pair count
    2*(#(a>b) + 0.5*#(a==b)) on a randomized small input."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import mannwhitney_qty_flags
    rng = np.random.default_rng(42)
    qa = rng.integers(1, 20, 300)
    qb = rng.integers(5, 25, 200)
    pq.write_table(pa.table({
        "l_returnflag": pa.array(["R"] * 300 + ["A"] * 200),
        "l_quantity": pa.array(
            np.concatenate([qa, qb]).astype(np.float64)),
    }), str(tmp_path / "lineitem.parquet"))
    out = mannwhitney_qty_flags(str(tmp_path)).to_pydict()
    gt = (qa[:, None] > qb[None, :]).sum()
    eq = (qa[:, None] == qb[None, :]).sum()
    assert out["u1_x2"] == [int(2 * gt + eq)]
    assert out["auc_ppm"] == [int((2 * gt + eq) * 1_000_000
                                  // (2 * 300 * 200))]


def test_wilson_lb_below_rate_and_ordering(ray_session, tmp_path):
    """The lower bound sits below the raw rate and a small-n type with
    the same rate gets a lower bound than a big-n type."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import wilson_lb_types
    # big: 1000 events, 30% above threshold; small: 10 events, 30%
    vals = np.concatenate([
        np.where(np.arange(1000) < 300, 200.0, 50.0),
        np.where(np.arange(10) < 3, 200.0, 50.0)])
    types = ["big"] * 1000 + ["small"] * 10
    pq.write_table(pa.table({
        "event_type": pa.array(types, type=pa.string()),
        "value": pa.array(vals),
    }), str(tmp_path / "events.parquet"))
    out = (wilson_lb_types(str(tmp_path)).to_pandas()
           .set_index("event_type"))
    assert out.loc["big", "wilson_lb"] < 0.3
    assert out.loc["small", "wilson_lb"] < out.loc["big", "wilson_lb"]


def test_ndcg_discount_constants():
    import math
    from p2pddsketch_ray.pipelines.relational import _NDCG_DISC
    assert _NDCG_DISC == tuple(
        int(1e9 // math.log2(i + 1)) for i in range(1, 11))


def test_ndcg_perfect_and_inverted_ranking(ray_session, tmp_path):
    """Docs where tf order == relevance order give ndcg == 1e6; when
    the only relevant doc is ranked last of 10, ndcg drops to
    disc[9]/disc[0]."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import (
        ndcg_retrieval_eval, _NDCG_DISC)
    # 10 docs containing 'hash'; doc 0 has the highest tf AND has
    # 'hash' in its first 100 chars; others are padded so 'hash' sits
    # beyond char 100 and rel = 0.
    pad = " ".join(["filler"] * 20)          # > 100 chars
    texts = ["hash hash hash end"]           # rel=1, tf=3 -> rank 1
    texts += [f"{pad} hash" for _ in range(9)]   # rel=0, tf=1
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(10, dtype=np.int64)),
        "text": pa.array(texts, type=pa.string()),
    }), str(tmp_path / "documents.parquet"))
    out = (ndcg_retrieval_eval(str(tmp_path), terms=("hash",))
           .to_pydict())
    assert out["n_rel"] == [1]
    assert out["ndcg_ppm"] == [1_000_000]
    assert out["mrr_ppm"] == [1_000_000]

    # now make the relevant doc the WORST-ranked of the ten: nine
    # high-tf docs with 'hash' beyond char 100 (rel=0), one tf=1 doc
    # with 'hash' up front (rel=1, rank 10)
    texts2 = [f"{pad} hash hash hash" for _ in range(9)]
    texts2.append("hash tail")
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(10, dtype=np.int64)),
        "text": pa.array(texts2, type=pa.string()),
    }), str(tmp_path / "documents.parquet"))
    out2 = (ndcg_retrieval_eval(str(tmp_path), terms=("hash",))
            .to_pydict())
    assert out2["first_rel_rank"] == [10]
    assert out2["ndcg_ppm"] == [
        _NDCG_DISC[9] * 1_000_000 // _NDCG_DISC[0]]


def test_conformal_coverage_close_to_nominal(ray_session):
    """On real sf0.001 data the achieved test coverage per type sits
    near the nominal 90% (empirical-quantile variant; generous bound
    for small test splits)."""
    from p2pddsketch_ray.pipelines.relational import conformal_coverage
    out = conformal_coverage("/root/testdata/sf0.001").to_pandas()
    assert len(out) == 5
    assert (out["cov_ppm"] > 700_000).all()
    assert (out["cov_ppm"] <= 1_000_000).all()
    assert (out["qhat_micro"] >= 0).all()


def test_rle_runs_alternating_vs_constant(ray_session, tmp_path):
    """An alternating pair column in date order has ~n runs; the
    sorted layout always has exactly n_distinct runs."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import rle_sort_benefit
    n = 400
    DAY_US = 86_400_000_000
    flags = np.where(np.arange(n) % 2 == 0, "A", "R")
    pq.write_table(pa.table({
        "l_orderkey": pa.array(np.arange(n, dtype=np.int64)),
        "l_linenumber": pa.array(np.ones(n, dtype=np.int32)),
        "l_shipdate": pa.array(
            (np.arange(n, dtype=np.int64) // 4) * DAY_US).cast(
            pa.timestamp("us")),
        "l_returnflag": pa.array(flags.tolist(), type=pa.string()),
        "l_linestatus": pa.array(["F"] * n, type=pa.string()),
    }), str(tmp_path / "lineitem.parquet"))
    out = rle_sort_benefit(str(tmp_path)).to_pydict()
    assert out["n_rows"] == [n]
    assert out["runs_shipdate_order"] == [n]   # alternates every row
    assert out["runs_pair_sorted"] == [2]


def test_reconciliation_exact_and_drifted(ray_session, tmp_path):
    """Orders whose lineitems sum exactly reconcile; a 10%-off order
    falls outside the 5% band; a header-only order is counted."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import (
        order_lineitem_reconciliation)
    # order 1: two lineitems summing exactly to 200.00
    # order 2: lineitems sum 100.00 but header says 110.00 (10% off)
    # order 3: no lineitems at all
    pq.write_table(pa.table({
        "l_orderkey": pa.array([1, 1, 2], type=pa.int64()),
        "l_extendedprice": pa.array([100.0, 100.0, 100.0]),
        "l_discount": pa.array([0.0, 0.0, 0.0]),
        "l_tax": pa.array([0.0, 0.0, 0.0]),
    }), str(tmp_path / "lineitem.parquet"))
    pq.write_table(pa.table({
        "o_orderkey": pa.array([1, 2, 3], type=pa.int64()),
        "o_totalprice": pa.array([200.0, 110.0, 50.0]),
    }), str(tmp_path / "orders.parquet"))
    out = order_lineitem_reconciliation(str(tmp_path)).to_pydict()
    assert out["n_orders"] == [3]
    assert out["n_no_lineitems"] == [1]
    assert out["n_within_5pct"] == [1]
    assert out["max_drift_cents"] == [1000]
    assert out["sum_drift_cents"] == [1000]


def test_zipf_slope_exact_power_law(ray_session, tmp_path):
    """A corpus whose token frequencies follow f(r) = C/r exactly
    yields a slope within a few percent of -1 (integer-floor noise on
    the micro-nat points only)."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import zipf_slope_tokens
    words = []
    C = 2000
    for r in range(1, 51):
        words += [f"w{r:03d}"] * (C // r)
    rng = np.random.default_rng(5)
    rng.shuffle(words)
    texts = [" ".join(words[i::40]) for i in range(40)]
    pq.write_table(pa.table({"text": pa.array(texts)}),
                   str(tmp_path / "documents.parquet"))
    out = zipf_slope_tokens(str(tmp_path), k=50).to_pydict()
    assert out["k"] == [50]
    assert out["top_freq"] == [2000]
    assert abs(out["slope_micro"][0] + 1_000_000) < 40_000


def test_filter_eval_prf_hand_case(ray_session, tmp_path):
    """4 docs with hand-known pred/gold labels -> exact confusion."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import filter_eval_prf
    long_clean = " ".join(["tok"] * 40)          # pred=1
    short = "tok tok"                            # pred=0
    noisy = " ".join(["tok"] * 40) + "!?" * 30   # punct-heavy: pred=0*
    # * 60 punct chars vs 40 tokens -> 60*100 > 40*10
    texts = [long_clean, long_clean, short, noisy]
    chars = [1000, 10, 1000, 10]   # gold: > median(=10 disc) -> 1000s
    pq.write_table(pa.table({
        "text": pa.array(texts),
        "n_chars": pa.array(chars, type=pa.int64()),
    }), str(tmp_path / "documents.parquet"))
    out = filter_eval_prf(str(tmp_path)).to_pydict()
    # median_disc of [10,10,1000,1000] = 10 -> gold = chars > 10
    assert out["median_chars"] == [10]
    assert out["tp"] == [1] and out["fp"] == [1]
    assert out["fn"] == [1] and out["tn"] == [1]
    assert out["precision_ppm"] == [500_000]
    assert out["recall_ppm"] == [500_000]
    assert out["f1_ppm"] == [500_000]


@pytest.mark.parametrize("name", ["exact_quantiles_price",
                                  "exact_quantiles_by_flag",
                                  "filter_eval_prf"])
def test_no_plan_reruns_for_its_schema(ray_session, name):
    """A pull from an unmaterialized Dataset (``to_arrow_refs``) runs the
    plan, then runs it again under ``limit=1`` to fetch its schema; that
    second run's cancelled tasks can abort the driver.  Every pull of
    these queries comes from a materialized Dataset, so no executed plan
    ends in ``limit=1``."""
    import __ray_entry__ as E
    from tools.plans import recorded_plans
    with recorded_plans() as plans:
        E.queries()[name](SF).to_pandas()
    assert plans
    assert [p for p in plans if "limit=1" in p[0]] == []


@pytest.mark.parametrize("name", ["pricing_summary", "events_hourly_window",
                                  "token_stats_by_lang", "dedup_exact_docs"])
def test_small_partials_merge_without_sort_or_union(ray_session, name):
    """The exact pipelines' partials at sf0.01 are kilobytes, under
    ``keyed_merge``'s bound: they merge in one task, so no executed plan
    sorts, and no typed zero-row block is unioned onto the output.  The
    merged answer comes back materialized, so the query executes one
    plan, its read and fold: the caller's pull runs none."""
    import __ray_entry__ as E
    from tools.plans import recorded_plans
    with recorded_plans() as plans:
        got = E.queries()[name](SF_01).to_pandas()
    assert len(got) and plans
    assert [p for p in plans if "Sort" in p or "Union" in p] == []
    assert len(plans) == 1 and plans[0][-1] == "Input", plans


def test_one_cpu_read_fuses_with_its_fold(ray_session, monkeypatch):
    """On one CPU a one-file table is read as one block, so its read and
    the fold after it run as one fused task."""
    import __ray_entry__ as E
    from p2pddsketch_ray.sources import tables
    from tools.plans import chain, recorded_plans
    monkeypatch.setattr(tables, "cluster_cpus", lambda default=8: 1)
    with recorded_plans() as plans:
        E.queries()["pricing_summary"](SF_01).to_pandas()
    assert [chain(p) for p in plans] == [
        "Input -> ReadParquet->MapBatches(_partial)"]


def test_read_table_makes_a_block_per_cpu(ray_session):
    """A one-file table is read into at most one block per cluster CPU
    (4 here), not Ray's default of at least 2 x CPUs."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.sources.tables import read_table
    ds = read_table(SF_01, "lineitem", ["l_quantity"]).materialize()
    assert 1 <= ds.num_blocks() <= 4
    assert ds.count() == pq.read_metadata(
        f"{SF_01}/lineitem.parquet").num_rows


def test_kappa_perfect_agreement_is_1e6(ray_session, tmp_path):
    """Docs written in one language's own trigrams, labeled truly ->
    kappa == accuracy == 1e6; random labels on one lang -> kappa 0."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import cohens_kappa_langid
    en = "the cat and the dog went to the market and this was that "
    de = "der hund und die katze sind schnell und ich bin ein mensch "
    pq.write_table(pa.table({
        "text": pa.array([en * 3] * 20 + [de * 3] * 20),
        "lang": pa.array(["en"] * 20 + ["de"] * 20),
    }), str(tmp_path / "documents.parquet"))
    out = cohens_kappa_langid(str(tmp_path)).to_pydict()
    assert out["n_docs"] == [40]
    assert out["n_agree"] == [40]
    assert out["kappa_ppm"] == [1_000_000]

    # constant prediction (all docs English text) but labels split ->
    # kappa collapses to 0 even though accuracy is 50%
    pq.write_table(pa.table({
        "text": pa.array([en * 3] * 40),
        "lang": pa.array(["en"] * 20 + ["de"] * 20),
    }), str(tmp_path / "documents.parquet"))
    out2 = cohens_kappa_langid(str(tmp_path)).to_pydict()
    assert out2["accuracy_ppm"] == [500_000]
    assert out2["kappa_ppm"] == [0]


def test_haar_energy_constant_series_zero(ray_session, tmp_path):
    """A constant hourly series has ZERO detail energy at every level;
    a single spike has energy at every level."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import haar_energy_hourly
    HOUR_US = 3_600_000_000
    # 512 hours x 3 events each
    ts = np.repeat(np.arange(512, dtype=np.int64) * HOUR_US, 3)
    pq.write_table(pa.table({
        "ts": pa.array(ts).cast(pa.timestamp("us")),
    }), str(tmp_path / "events.parquet"))
    out = haar_energy_hourly(str(tmp_path)).to_pydict()
    assert out["energy"] == [0] * 9

    # one extra event in hour 0 only: level-k detail = 1 at one coeff
    ts2 = np.concatenate([ts, np.array([0], dtype=np.int64)])
    pq.write_table(pa.table({
        "ts": pa.array(ts2).cast(pa.timestamp("us")),
    }), str(tmp_path / "events.parquet"))
    out2 = haar_energy_hourly(str(tmp_path)).to_pydict()
    assert out2["energy"] == [1] * 9


def test_runs_test_alternating_and_blocked(ray_session, tmp_path):
    """A perfectly alternating above/below series maximizes runs; a
    blocked half-half series has exactly 2 runs."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import runs_test_hourly
    HOUR_US = 3_600_000_000
    rows_ts, rows_type = [], []
    for h in range(40):
        # 'alt': 3 events on even hours, 1 on odd -> alternating sign
        rows_ts += [h * HOUR_US] * (3 if h % 2 == 0 else 1)
        rows_type += ["alt"] * (3 if h % 2 == 0 else 1)
        # 'blk': 3 events in first half, 1 in second -> two blocks
        rows_ts += [h * HOUR_US] * (3 if h < 20 else 1)
        rows_type += ["blk"] * (3 if h < 20 else 1)
    # hour 40 gets exactly 2 events for both types: with 20 ones,
    # 20 threes and a single 2, the disc median is 2 (tie-free), so
    # all 40 signal hours survive the tie-exclusion
    rows_ts += [40 * HOUR_US] * 4
    rows_type += ["alt", "alt", "blk", "blk"]
    pq.write_table(pa.table({
        "ts": pa.array(np.array(rows_ts, dtype=np.int64)).cast(
            pa.timestamp("us")),
        "event_type": pa.array(rows_type, type=pa.string()),
    }), str(tmp_path / "events.parquet"))
    out = (runs_test_hourly(str(tmp_path)).to_pandas()
           .set_index("event_type"))
    assert int(out.loc["alt", "n_above"]) == 20
    assert int(out.loc["alt", "n_below"]) == 20
    assert int(out.loc["alt", "n_runs"]) == 40
    assert int(out.loc["blk", "n_runs"]) == 2
    # E[R] = 1 + 2*20*20/40 = 21 for both
    assert int(out.loc["alt", "expected_runs_micro"]) == 21_000_000


def test_lorenz_uniform_revenue_is_diagonal(ray_session, tmp_path):
    """Equal per-customer revenue makes the Lorenz curve the diagonal:
    share at decile d == n_at_or_below / n."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import lorenz_deciles
    n = 200
    pq.write_table(pa.table({
        "o_custkey": pa.array(np.arange(n, dtype=np.int64)),
        "o_totalprice": pa.array(np.full(n, 50.0)),
    }), str(tmp_path / "orders.parquet"))
    out = lorenz_deciles(str(tmp_path)).to_pandas()
    # all thresholds equal the single value -> every decile row covers
    # ALL customers (<= semantics with total ties)
    assert (out["n_at_or_below"] == n).all()
    assert (out["rev_share_ppm"] == 1_000_000).all()

    # one whale: the bottom deciles' share collapses
    price = np.where(np.arange(n) == 0, 100_000.0, 50.0)
    pq.write_table(pa.table({
        "o_custkey": pa.array(np.arange(n, dtype=np.int64)),
        "o_totalprice": pa.array(price),
    }), str(tmp_path / "orders.parquet"))
    out2 = lorenz_deciles(str(tmp_path)).to_pandas().set_index(
        "decile")
    total = 199 * 5000 + 10_000_000
    assert int(out2.loc[9, "rev_share_ppm"]) == \
        199 * 5000 * 1_000_000 // total


def test_brand_year_revenue_yoy(ray_session, tmp_path):
    """Two years of one brand with doubled revenue -> yoy == 2e6; a
    gap year yields yoy 0."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import brand_year_revenue
    pq.write_table(pa.table({
        "p_partkey": pa.array([1, 2], type=pa.int64()),
        "p_brand": pa.array(["B1", "B2"]),
    }), str(tmp_path / "part.parquet"))
    Y = lambda y: np.datetime64(f"{y}-06-01", "us").astype(np.int64)
    pq.write_table(pa.table({
        "l_partkey": pa.array([1, 1, 2, 2], type=pa.int64()),
        "l_extendedprice": pa.array([100.0, 200.0, 50.0, 70.0]),
        "l_discount": pa.array([0.0, 0.0, 0.0, 0.0]),
        "l_shipdate": pa.array(
            np.array([Y(2020), Y(2021), Y(2020), Y(2022)],
                     dtype=np.int64)).cast(pa.timestamp("us")),
    }), str(tmp_path / "lineitem.parquet"))
    out = brand_year_revenue(str(tmp_path)).to_pandas().set_index(
        ["p_brand", "year"])
    assert int(out.loc[("B1", 2021), "yoy_ppm"]) == 2_000_000
    assert int(out.loc[("B2", 2022), "yoy_ppm"]) == 0  # gap year


def test_ewma_forecast_constant_series(ray_session, tmp_path):
    """A constant hourly series has zero forecast error and the state
    sticks at the constant."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.temporal import ewma_forecast_hourly
    HOUR_US = 3_600_000_000
    ts = np.repeat(np.arange(48, dtype=np.int64) * HOUR_US, 2)
    pq.write_table(pa.table({
        "ts": pa.array(ts).cast(pa.timestamp("us")),
        "value": pa.array(np.full(96, 5.0)),
    }), str(tmp_path / "events.parquet"))
    out = ewma_forecast_hourly(str(tmp_path)).to_pydict()
    assert out["sum_abs_err_cents"] == [0]
    assert out["final_state_cents"] == [1000]   # 2 x 5.00 per hour


def test_markov_entropy_deterministic_chain_is_zero(ray_session,
                                                    tmp_path):
    """A strictly periodic A->B->A->B stream has zero entropy rate; a
    uniformly random 2-symbol stream approaches ln(2) micro-nats."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.temporal import markov_entropy_rate
    n = 400
    ts = np.arange(n, dtype=np.int64) * 1_000_000
    types = np.where(np.arange(n) % 2 == 0, "A", "B")
    pq.write_table(pa.table({
        "event_id": pa.array(np.arange(n, dtype=np.int64)),
        "ts": pa.array(ts).cast(pa.timestamp("us")),
        "user_id": pa.array(np.zeros(n, dtype=np.int64)),
        "event_type": pa.array(types.tolist(), type=pa.string()),
    }), str(tmp_path / "events.parquet"))
    out = markov_entropy_rate(str(tmp_path)).to_pydict()
    assert out["entropy_rate_micronats"] == [0]

    rng = np.random.default_rng(11)
    types2 = np.where(rng.integers(0, 2, n) == 0, "A", "B")
    pq.write_table(pa.table({
        "event_id": pa.array(np.arange(n, dtype=np.int64)),
        "ts": pa.array(ts).cast(pa.timestamp("us")),
        "user_id": pa.array(np.zeros(n, dtype=np.int64)),
        "event_type": pa.array(types2.tolist(), type=pa.string()),
    }), str(tmp_path / "events.parquet"))
    out2 = markov_entropy_rate(str(tmp_path)).to_pydict()
    assert abs(out2["entropy_rate_micronats"][0] - 693_147) < 40_000


def test_cross_source_dup_matrix_hand_case(ray_session, tmp_path):
    """One text shared by srcA/srcB, one by srcA/srcC, none by
    srcB/srcC -- matrix rows exact, zero-filled."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import (
        cross_source_dup_matrix)
    pq.write_table(pa.table({
        "text": pa.array(["shared-ab", "shared-ab", "shared-ac",
                          "shared-ac", "only-b", "only-c"]),
        "source": pa.array(["srcA", "srcB", "srcA", "srcC",
                            "srcB", "srcC"]),
    }), str(tmp_path / "documents.parquet"))
    out = (cross_source_dup_matrix(str(tmp_path)).to_pandas()
           .set_index(["source_a", "source_b"]))
    assert int(out.loc[("srcA", "srcB"), "n_shared_texts"]) == 1
    assert int(out.loc[("srcA", "srcC"), "n_shared_texts"]) == 1
    assert int(out.loc[("srcB", "srcC"), "n_shared_texts"]) == 0


def test_vocab_coverage_monotone_and_exact(ray_session, tmp_path):
    """Coverage grows with k and matches hand counts on a tiny
    corpus."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import vocab_coverage_curve
    # 'a' x 50, 'b' x 30, then 40 singletons
    text = " ".join(["a"] * 50 + ["b"] * 30
                    + [f"w{i}" for i in range(40)])
    pq.write_table(pa.table({"text": pa.array([text])}),
                   str(tmp_path / "documents.parquet"))
    out = (vocab_coverage_curve(str(tmp_path), ks=(1, 2, 100))
           .to_pandas().set_index("k"))
    assert int(out.loc[1, "covered_occurrences"]) == 50
    assert int(out.loc[2, "covered_occurrences"]) == 80
    assert int(out.loc[100, "covered_occurrences"]) == 120
    assert int(out.loc[100, "vocab_size"]) == 42


def test_rfm_segments_extremes(ray_session, tmp_path):
    """A best customer (recent, frequent, big) lands in 555; a lapsed
    one-order cheapskate lands in 111; census sums to all users."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import rfm_segments
    DAY_US = 86_400_000_000
    rng = np.random.default_rng(3)
    custs, prices, days = [], [], []
    for c in range(50):
        k = 1 + int(rng.integers(0, 4))
        for _ in range(k):
            custs.append(c)
            prices.append(float(rng.integers(10, 500)))
            days.append(int(rng.integers(0, 300)))
    # whale: 20 orders, huge, on the final day
    for _ in range(20):
        custs.append(99); prices.append(10_000.0); days.append(400)
    # lapsed: single tiny order on day 0
    custs.append(100); prices.append(1.0); days.append(0)
    pq.write_table(pa.table({
        "o_custkey": pa.array(np.array(custs, dtype=np.int64)),
        "o_totalprice": pa.array(prices),
        "o_orderdate": pa.array(
            np.array(days, dtype=np.int64) * DAY_US).cast(
            pa.timestamp("us")),
    }), str(tmp_path / "orders.parquet"))
    out = rfm_segments(str(tmp_path)).to_pandas()
    codes = dict(zip(out["rfm_code"], out["n_users"]))
    assert codes.get(555, 0) >= 1
    assert codes.get(111, 0) >= 1
    assert int(out["n_users"].sum()) == 52


def test_matryoshka_hist_identity_and_halved(ray_session, tmp_path):
    """Vectors living entirely in the first 32 dims land in the top
    bin; vectors with equal head/tail energy land at
    floor(sqrt(0.5)*100) == 70."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.knn import matryoshka_truncation_hist
    head_only = np.zeros(64, dtype=np.float32)
    head_only[:32] = 1.0
    balanced = np.ones(64, dtype=np.float32)
    emb = [head_only.tolist()] * 7 + [balanced.tolist()] * 5
    pq.write_table(pa.table({
        "vec_id": pa.array(np.arange(12, dtype=np.int64)),
        "embedding": pa.array(emb, type=pa.list_(pa.float32())),
        "label": pa.array(np.zeros(12, dtype=np.int32)),
    }), str(tmp_path / "embeddings.parquet"))
    out = matryoshka_truncation_hist(str(tmp_path)).to_pandas()
    hist = dict(zip(out["bin"], out["n"]))
    assert hist.get(99, 0) == 7
    assert hist.get(70, 0) == 5


def test_bootstrap_means_bracket_truth(ray_session, tmp_path):
    """Resample means cluster around the true mean: every replicate
    within a few percent on 5000 iid rows, and n_eff near n."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import bootstrap_mean_ci
    rng = np.random.default_rng(7)
    n = 5000
    v = rng.normal(100, 10, n)
    pq.write_table(pa.table({
        "event_id": pa.array(np.arange(n, dtype=np.int64)),
        "value": pa.array(v),
    }), str(tmp_path / "events.parquet"))
    out = bootstrap_mean_ci(str(tmp_path)).to_pandas()
    assert len(out) == 16
    true_mean = v.mean() * 1e6
    assert (np.abs(out["mean_micro"] - true_mean)
            < 0.02 * true_mean).all()
    assert (np.abs(out["n_eff"] - n) < 0.1 * n).all()


def test_ams_f2_exact_on_skewed_stream(ray_session, tmp_path):
    """F2 exact matches the hand computation and the sketch's median
    estimate is within 60% (9 estimators, heavy-hitter stream)."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import ams_f2_estimate
    # user 0: 100 events, users 1..50: 4 each
    ids = np.concatenate([np.zeros(100, dtype=np.int64),
                          np.repeat(np.arange(1, 51), 4)])
    pq.write_table(pa.table({"user_id": pa.array(ids)}),
                   str(tmp_path / "events.parquet"))
    out = ams_f2_estimate(str(tmp_path)).to_pydict()
    exact = 100 * 100 + 50 * 16
    assert out["f2_exact"] == [exact]
    assert out["err_ppm"][0] < 600_000


def test_hapax_ratio_hand_case(ray_session, tmp_path):
    """Source with all-unique tokens -> ratio 1e6; source with every
    token repeated -> 0."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import (
        hapax_ratio_by_source)
    pq.write_table(pa.table({
        "source": pa.array(["uniq", "uniq", "rep", "rep"]),
        "text": pa.array(["alpha beta", "gamma delta",
                          "x y z", "x y z"]),
    }), str(tmp_path / "documents.parquet"))
    out = (hapax_ratio_by_source(str(tmp_path)).to_pandas()
           .set_index("source"))
    assert int(out.loc["uniq", "hapax_ppm"]) == 1_000_000
    assert int(out.loc["uniq", "vocab"]) == 4
    assert int(out.loc["rep", "hapax_ppm"]) == 0
    assert int(out.loc["rep", "vocab"]) == 3


def test_l_diversity_flags_uniform_class(ray_session, tmp_path):
    """A nation whose customers all share one segment is at risk; a
    mixed nation is not."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import l_diversity_audit
    pq.write_table(pa.table({
        "c_nationkey": pa.array([1] * 10 + [2] * 10, type=pa.int32()),
        "c_mktsegment": pa.array(["AUTO"] * 10
                                 + ["AUTO", "BUILDING", "MACHINERY",
                                    "HOUSEHOLD", "FURNITURE"] * 2),
    }), str(tmp_path / "customer.parquet"))
    out = (l_diversity_audit(str(tmp_path)).to_pandas()
           .set_index("nationkey"))
    assert int(out.loc[1, "l_diversity"]) == 1
    assert int(out.loc[1, "at_risk"]) == 1
    assert int(out.loc[2, "l_diversity"]) == 5
    assert int(out.loc[2, "at_risk"]) == 0


def test_hodges_lehmann_known_shift(ray_session, tmp_path):
    """Group A == group B + 7 exactly -> HL shift is exactly 7."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import hodges_lehmann_shift
    rng = np.random.default_rng(13)
    qb = rng.integers(1, 30, 200)
    qa = qb + 7
    pq.write_table(pa.table({
        "l_returnflag": pa.array(["R"] * 200 + ["A"] * 200),
        "l_quantity": pa.array(
            np.concatenate([qa, qb]).astype(np.float64)),
    }), str(tmp_path / "lineitem.parquet"))
    out = hodges_lehmann_shift(str(tmp_path)).to_pydict()
    assert out["n_pairs"] == [200 * 200]
    assert out["hl_shift"] == [7]


def test_dict_encoding_report_hand_case(ray_session, tmp_path):
    """Byte math exact on a controlled column set."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import dict_encoding_report
    pq.write_table(pa.table({
        "l_returnflag": pa.array(["A"] * 60 + ["R"] * 40),
        "l_linestatus": pa.array(["F"] * 100),
    }), str(tmp_path / "lineitem.parquet"))
    pq.write_table(pa.table({
        "o_orderstatus": pa.array(["O", "F", "P", "O"]),
        "o_orderpriority": pa.array(["1-URGENT", "2-HIGH",
                                     "1-URGENT", "2-HIGH"]),
    }), str(tmp_path / "orders.parquet"))
    out = (dict_encoding_report(str(tmp_path)).to_pandas()
           .set_index("table_col"))
    r = out.loc["lineitem.l_returnflag"]
    assert int(r["plain_bytes"]) == 100
    assert int(r["dict_bytes"]) == 2 + 400
    p = out.loc["orders.o_orderpriority"]
    assert int(p["n_distinct"]) == 2
    assert int(p["plain_bytes"]) == 2 * 8 + 2 * 6


def test_centroid_distance_axis_aligned(ray_session, tmp_path):
    """Two labels on orthogonal unit axes sit sqrt(2) apart; identical
    labels sit at 0 (micro units of the original embedding scale)."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.knn import centroid_distance_matrix
    d = 8
    ex = np.zeros(d, dtype=np.float32); ex[0] = 1.0
    ey = np.zeros(d, dtype=np.float32); ey[1] = 1.0
    emb = [ex.tolist()] * 4 + [ey.tolist()] * 4 + [ex.tolist()] * 4
    lab = [0] * 4 + [1] * 4 + [2] * 4
    pq.write_table(pa.table({
        "vec_id": pa.array(np.arange(12, dtype=np.int64)),
        "embedding": pa.array(emb, type=pa.list_(pa.float32())),
        "label": pa.array(np.array(lab, dtype=np.int32)),
    }), str(tmp_path / "embeddings.parquet"))
    out = (centroid_distance_matrix(str(tmp_path)).to_pandas()
           .set_index(["label_a", "label_b"]))
    # sqrt(2) in milli units * 1000 -> micro: floor(1414.21.. * 1000)
    assert int(out.loc[(0, 1), "dist_micro"]) == 1414213
    assert int(out.loc[(0, 2), "dist_micro"]) == 0


def test_capture_recapture_exact_overlap(ray_session, tmp_path):
    """Hand-built overlap: 30 clickers, 20 viewers, 10 both, 5 with
    neither -> Chapman closed form."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import (
        capture_recapture_users)
    rows_u, rows_t = [], []
    for u in range(30):
        rows_u.append(u); rows_t.append("click")
    for u in range(20, 40):
        rows_u.append(u); rows_t.append("view")
    for u in range(40, 45):
        rows_u.append(u); rows_t.append("error")
    pq.write_table(pa.table({
        "user_id": pa.array(np.array(rows_u, dtype=np.int64)),
        "event_type": pa.array(rows_t, type=pa.string()),
    }), str(tmp_path / "events.parquet"))
    out = capture_recapture_users(str(tmp_path)).to_pydict()
    assert out["n_seen_a"] == [30]
    assert out["n_seen_b"] == [20]
    assert out["n_both"] == [10]
    assert out["chapman_nhat"] == [31 * 21 // 11 - 1]
    assert out["n_true_distinct"] == [45]


def test_simpsons_flip_constructed(ray_session, tmp_path):
    """Constructed stratified flip: arm A wins inside both strata yet
    loses pooled (arm A is concentrated in the hard stratum)."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import simpsons_flip_report
    from p2pddsketch_ray.hashing import murmur64
    # craft event_ids by arm via hash parity
    ids = np.arange(200_000, dtype=np.int64)
    arm = (murmur64(ids) % np.uint64(2)).astype(np.int64)
    a_ids = ids[arm == 0]
    b_ids = ids[arm == 1]
    rows_id, rows_type, rows_val = [], [], []

    def add(pool, n, stype, k):
        """n events of stratum stype, first k successes (value 200)."""
        take = pool[:n]
        rows_id.extend(take.tolist())
        rows_type.extend([stype] * n)
        rows_val.extend([200.0] * k + [50.0] * (n - k))
        return pool[n:]

    # stratum 'easy': A 10/10 of 10, B 800/1000
    a_ids = add(a_ids, 10, "easy", 10)
    b_ids = add(b_ids, 1000, "easy", 800)
    # stratum 'hard': A 300/1000 of 1000, B 2/10
    a_ids = add(a_ids, 1000, "hard", 300)
    b_ids = add(b_ids, 10, "hard", 2)
    pq.write_table(pa.table({
        "event_id": pa.array(np.array(rows_id, dtype=np.int64)),
        "event_type": pa.array(rows_type, type=pa.string()),
        "value": pa.array(rows_val),
    }), str(tmp_path / "events.parquet"))
    out = (simpsons_flip_report(str(tmp_path)).to_pandas()
           .set_index("stratum"))
    # A wins both strata (1.0 > 0.8, 0.3 > 0.2) but loses pooled
    assert int(out.loc["easy", "direction"]) == 1
    assert int(out.loc["hard", "direction"]) == 1
    assert int(out.loc["easy", "pooled_direction"]) == -1
    assert int(out["flips_pooled"].sum()) == 2


def test_weekend_share_known_days(ray_session, tmp_path):
    """Epoch day 2 = Saturday, day 3 = Sunday, day 4 = Monday."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import (
        weekend_share_by_priority)
    DAY_US = 86_400_000_000
    days = np.array([2, 3, 4, 5], dtype=np.int64)   # Sat Sun Mon Tue
    pq.write_table(pa.table({
        "o_orderpriority": pa.array(["1-URGENT"] * 4),
        "o_orderdate": pa.array(days * DAY_US).cast(
            pa.timestamp("us")),
        "o_totalprice": pa.array([10.0, 20.0, 30.0, 40.0]),
    }), str(tmp_path / "orders.parquet"))
    out = weekend_share_by_priority(str(tmp_path)).to_pydict()
    assert out["n_weekend"] == [2]
    assert out["n_weekday"] == [2]
    assert out["rev_weekend_cents"] == [3000]
    assert out["weekend_share_ppm"] == [500_000]


def test_qte_detects_shifted_arm(ray_session, tmp_path):
    """Craft values so arm B == arm A + 50 at every decile."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import (
        quantile_treatment_effect)
    from p2pddsketch_ray.hashing import murmur64
    ids = np.arange(20_000, dtype=np.int64)
    arm = (murmur64(ids) % np.uint64(2)).astype(np.int64)
    rng = np.random.default_rng(4)
    base = rng.uniform(0, 100, len(ids))
    value = np.where(arm == 1, base + 50.0, base)
    pq.write_table(pa.table({
        "event_id": pa.array(ids),
        "value": pa.array(value),
    }), str(tmp_path / "events.parquet"))
    out = quantile_treatment_effect(str(tmp_path)).to_pandas()
    # every decile shifted by ~50 (micro units, sampling noise only)
    assert (np.abs(out["qte_micro"] - 50_000_000) < 3_000_000).all()


def test_audience_overlap_hand_case(ray_session, tmp_path):
    """Users 0-9 click, 5-14 view -> J = 5/15; purchase disjoint."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import (
        audience_overlap_matrix)
    rows_u, rows_t = [], []
    for u in range(10):
        rows_u.append(u); rows_t.append("click")
    for u in range(5, 15):
        rows_u.append(u); rows_t.append("view")
    for u in range(100, 103):
        rows_u.append(u); rows_t.append("purchase")
    pq.write_table(pa.table({
        "user_id": pa.array(np.array(rows_u, dtype=np.int64)),
        "event_type": pa.array(rows_t, type=pa.string()),
    }), str(tmp_path / "events.parquet"))
    out = (audience_overlap_matrix(str(tmp_path)).to_pandas()
           .set_index(["type_a", "type_b"]))
    assert int(out.loc[("click", "view"), "n_both"]) == 5
    assert int(out.loc[("click", "view"), "n_either"]) == 15
    assert int(out.loc[("click", "view"), "jaccard_ppm"]) == \
        5_000_000 // 15
    assert int(out.loc[("click", "purchase"), "n_both"]) == 0


def test_weight_ess_uniform_vs_skewed(ray_session, tmp_path):
    """Uniform weights give ESS == n (efficiency 1e6); one dominant
    weight collapses ESS toward 1."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import weight_ess_report
    vals = [10.0] * 100 + [10.0] * 99 + [100000.0]
    types = ["uniform"] * 100 + ["skewed"] * 100
    pq.write_table(pa.table({
        "event_type": pa.array(types, type=pa.string()),
        "value": pa.array(vals),
    }), str(tmp_path / "events.parquet"))
    out = (weight_ess_report(str(tmp_path)).to_pandas()
           .set_index("event_type"))
    assert int(out.loc["uniform", "efficiency_ppm"]) == 1_000_000
    assert int(out.loc["skewed", "ess_micro"]) < 2_000_000  # ~1.02


def test_ratio_delta_zero_variance_users(ray_session, tmp_path):
    """Identical users (same per-user sum and count) give SE == 0 and
    the exact ratio."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import ratio_metric_delta
    # every user: 4 events of value 25.00 -> 2500 cents per event
    n_users = 400
    ids = np.repeat(np.arange(n_users, dtype=np.int64), 4)
    pq.write_table(pa.table({
        "user_id": pa.array(ids),
        "value": pa.array(np.full(len(ids), 25.0)),
    }), str(tmp_path / "events.parquet"))
    out = ratio_metric_delta(str(tmp_path)).to_pandas()
    assert len(out) == 2
    assert np.allclose(out["ratio_x100"], 2500.0)
    assert np.allclose(out["se_x100"], 0.0)


def test_cochran_armitage_perfect_trend(ray_session, tmp_path):
    """High-value rate rising strictly with priority rank gives a
    positive trend numerator; flat rates give zero."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import (
        cochran_armitage_trend)
    rows_p, rows_v = [], []
    # 100 orders per priority; rate of > median rises with rank
    for rank, rate in zip(range(1, 6), (10, 20, 30, 40, 90)):
        prio = f"{rank}-P"
        for i in range(100):
            rows_p.append(prio)
            rows_v.append(200.0 if i < rate else 50.0)
    pq.write_table(pa.table({
        "o_orderpriority": pa.array(rows_p, type=pa.string()),
        "o_totalprice": pa.array(rows_v),
    }), str(tmp_path / "orders.parquet"))
    out = cochran_armitage_trend(str(tmp_path)).to_pydict()
    assert out["n_orders"] == [500]
    assert out["trend_num"][0] > 0
    assert out["z_micro"][0] > 0


def test_mcnemar_hand_counts(ray_session, tmp_path):
    """2 docs pass only A, 8 only B -> statistic (2-8)^2/10 = 3.6."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import mcnemar_filters
    long_clean = " ".join(["tok"] * 40)          # A yes, B yes
    long_noisy = " ".join(["tok"] * 40) + "!" * 60   # A yes, B no
    short_clean = "tok tok"                      # A no, B yes
    texts = ([long_clean] * 5 + [long_noisy] * 2 + [short_clean] * 8)
    pq.write_table(pa.table({"text": pa.array(texts)}),
                   str(tmp_path / "documents.parquet"))
    out = mcnemar_filters(str(tmp_path)).to_pydict()
    assert out["n_both_pass"] == [5]
    assert out["only_a"] == [2]
    assert out["only_b"] == [8]
    assert out["mcnemar_x1e6"] == [36 * 1_000_000 // 10]


def test_order_aging_buckets(ray_session, tmp_path):
    """Orders 0/35/70 days before the anchor land in buckets 0/1/2."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import order_aging_report
    DAY_US = 86_400_000_000
    days = np.array([100, 65, 30, 100], dtype=np.int64)
    pq.write_table(pa.table({
        "o_orderstatus": pa.array(["O", "O", "F", "F"]),
        "o_orderdate": pa.array(days * DAY_US).cast(
            pa.timestamp("us")),
        "o_totalprice": pa.array([10.0, 20.0, 30.0, 40.0]),
    }), str(tmp_path / "orders.parquet"))
    out = (order_aging_report(str(tmp_path)).to_pandas()
           .set_index(["o_orderstatus", "age_bucket"]))
    assert int(out.loc[("O", 0), "n_orders"]) == 1
    assert int(out.loc[("O", 1), "n_orders"]) == 1
    assert int(out.loc[("F", 2), "n_orders"]) == 1
    assert int(out.loc[("F", 0), "rev_cents"]) == 4000


def test_learned_index_linear_keys_zero_eps(ray_session, tmp_path):
    """Perfectly linear keys (price == rank) fit with ~zero residual;
    a heavy outlier blows the epsilon up."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import learned_index_audit
    n = 1000
    pq.write_table(pa.table({
        "o_orderkey": pa.array(np.arange(n, dtype=np.int64)),
        "o_totalprice": pa.array(np.arange(n, dtype=np.float64)),
    }), str(tmp_path / "orders.parquet"))
    out = learned_index_audit(str(tmp_path)).to_pydict()
    assert out["n_rows"] == [n]
    assert out["max_over_resid"][0] <= 1
    assert out["max_under_resid"][0] >= -1
    # slope = ranks per cent = 1/100 -> 0.01 * 1e12
    assert abs(out["slope_pico"][0] - 10_000_000_000) < 10_000


def test_negative_sampling_single_label_always_false(ray_session,
                                                     tmp_path):
    """With one label every hash-negative is a false negative."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import (
        negative_sampling_audit)
    n = 64
    pq.write_table(pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.array([[0.0] * 4] * n,
                              type=pa.list_(pa.float32())),
        "label": pa.array(np.zeros(n, dtype=np.int32)),
    }), str(tmp_path / "embeddings.parquet"))
    out = negative_sampling_audit(str(tmp_path)).to_pydict()
    assert out["n"] == [n]
    assert out["false_neg_ppm"] == [1_000_000]


def test_lang_entropy_mono_vs_mixed(ray_session, tmp_path):
    """A single-language source has zero entropy; a uniform 4-language
    source approaches ln(4) micro-nats."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import (
        lang_entropy_by_source)
    rows_s = ["mono"] * 40 + ["mixed"] * 40
    rows_l = ["en"] * 40 + ["en", "de", "fr", "ja"] * 10
    pq.write_table(pa.table({
        "source": pa.array(rows_s, type=pa.string()),
        "lang": pa.array(rows_l, type=pa.string()),
    }), str(tmp_path / "documents.parquet"))
    out = (lang_entropy_by_source(str(tmp_path)).to_pandas()
           .set_index("source"))
    assert int(out.loc["mono", "entropy_micronats"]) == 0
    assert abs(int(out.loc["mixed", "entropy_micronats"])
               - 1_386_294) < 10
    assert int(out.loc["mixed", "n_langs"]) == 4


def test_isotropy_collapsed_vs_centered(ray_session, tmp_path):
    """Identical vectors -> anisotropy 1e6; a +v/-v balanced cloud ->
    anisotropy 0."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import (
        embedding_isotropy_report)
    v = np.ones(8, dtype=np.float32).tolist()
    nv = (-np.ones(8, dtype=np.float32)).tolist()
    emb = [v] * 10 + [v] * 5 + [nv] * 5
    lab = [0] * 10 + [1] * 10
    pq.write_table(pa.table({
        "vec_id": pa.array(np.arange(20, dtype=np.int64)),
        "embedding": pa.array(emb, type=pa.list_(pa.float32())),
        "label": pa.array(np.array(lab, dtype=np.int32)),
    }), str(tmp_path / "embeddings.parquet"))
    out = (embedding_isotropy_report(str(tmp_path)).to_pandas()
           .set_index("label"))
    assert int(out.loc[0, "anisotropy_ppm"]) == 1_000_000
    assert int(out.loc[1, "anisotropy_ppm"]) == 0


def test_fair_mass_splits_mirrored_text(ray_session, tmp_path):
    """A text present in both sources contributes half to each; a
    unique text contributes a full micro-doc."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import fair_mass_by_source
    pq.write_table(pa.table({
        "text": pa.array(["mirrored", "mirrored", "unique-a",
                          "unique-b"]),
        "source": pa.array(["A", "B", "A", "B"]),
    }), str(tmp_path / "documents.parquet"))
    out = (fair_mass_by_source(str(tmp_path)).to_pandas()
           .set_index("source"))
    assert int(out.loc["A", "fair_micro"]) == 1_500_000
    assert int(out.loc["B", "fair_micro"]) == 1_500_000
    assert int(out.loc["A", "n_docs"]) == 2


def test_cramers_v_perfect_association(ray_session, tmp_path):
    """Segment fully determines priority -> V ~ 1e6; independent
    layout -> V near 0."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import (
        segment_priority_cramers_v)
    # two segments, each customer orders only its own priority
    custs = np.arange(40, dtype=np.int64)
    segs = np.where(custs < 20, "AUTO", "BUILDING")
    pq.write_table(pa.table({
        "c_custkey": pa.array(custs),
        "c_mktsegment": pa.array(segs.tolist(), type=pa.string()),
    }), str(tmp_path / "customer.parquet"))
    n_orders = 200
    ok = np.arange(n_orders, dtype=np.int64) % 40
    prio = np.where(ok < 20, "1-URGENT", "5-LOW")
    pq.write_table(pa.table({
        "o_custkey": pa.array(ok),
        "o_orderpriority": pa.array(prio.tolist(), type=pa.string()),
    }), str(tmp_path / "orders.parquet"))
    out = segment_priority_cramers_v(str(tmp_path)).to_pydict()
    assert out["n_orders"] == [n_orders]
    assert out["cramers_v_ppm"][0] > 990_000


def test_median_of_means_resists_outlier(ray_session, tmp_path):
    """A single enormous outlier drags the plain mean far above the
    median-of-means estimate."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import (
        median_of_means_value)
    n = 3000
    vals = np.full(n, 10.0)
    vals[0] = 1e7
    pq.write_table(pa.table({
        "event_id": pa.array(np.arange(n, dtype=np.int64)),
        "value": pa.array(vals),
    }), str(tmp_path / "events.parquet"))
    out = median_of_means_value(str(tmp_path)).to_pydict()
    assert out["plain_mean_micro"][0] > 3_000_000_000  # > 3000x base
    assert abs(out["mom_micro"][0] - 10_000_000) < 60_000_000


def test_hourweek_profile_spike_cell(ray_session, tmp_path):
    """All events in one known (dow, hour) cell take the whole share;
    epoch hour 0 is Thursday 00:00 -> dow 3, hour 0."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import hourweek_profile
    pq.write_table(pa.table({
        "ts": pa.array(np.zeros(50, dtype=np.int64)).cast(
            pa.timestamp("us")),
    }), str(tmp_path / "events.parquet"))
    out = (hourweek_profile(str(tmp_path)).to_pandas()
           .set_index(["dow", "hour"]))
    assert len(out) == 168
    assert int(out.loc[(3, 0), "share_ppm"]) == 1_000_000
    assert int(out["n"].sum()) == 50


def test_lexical_sophistication_ordering(ray_session, tmp_path):
    """A source using only the corpus's most common token ranks lower
    than one using only rare tokens."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import (
        lexical_sophistication_by_source)
    common = " ".join(["the"] * 50)
    rare = " ".join(f"rare{i}" for i in range(30))
    pq.write_table(pa.table({
        "source": pa.array(["plain", "fancy"]),
        "text": pa.array([common, rare]),
    }), str(tmp_path / "documents.parquet"))
    out = (lexical_sophistication_by_source(str(tmp_path))
           .to_pandas().set_index("source"))
    assert int(out.loc["plain", "mean_rank_micro"]) == 0
    assert int(out.loc["fancy", "mean_rank_micro"]) > 0


def test_interorder_gap_known_cadence(ray_session, tmp_path):
    """Customers ordering every 7 days exactly -> median gap 7."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import (
        interorder_gap_median)
    DAY_US = 86_400_000_000
    rows_c, rows_d = [], []
    for c in range(20):
        for i in range(5):
            rows_c.append(c)
            rows_d.append((i * 7 + c) * DAY_US)
    pq.write_table(pa.table({
        "o_custkey": pa.array(np.array(rows_c, dtype=np.int64)),
        "o_orderdate": pa.array(np.array(rows_d,
                                         dtype=np.int64)).cast(
            pa.timestamp("us")),
        "o_orderkey": pa.array(np.arange(len(rows_c),
                                         dtype=np.int64)),
    }), str(tmp_path / "orders.parquet"))
    out = interorder_gap_median(str(tmp_path)).to_pydict()
    assert out["n_gaps"] == [20 * 4]
    assert out["median_gap_days"] == [7]
    assert out["p90_gap_days"] == [7]


def test_price_endings_concentrated(ray_session, tmp_path):
    """All .99 prices put the whole mass on ending 99."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import price_endings_report
    pq.write_table(pa.table({
        "o_totalprice": pa.array(np.arange(1, 101) + 0.99),
    }), str(tmp_path / "orders.parquet"))
    out = price_endings_report(str(tmp_path)).to_pandas()
    assert int(out.iloc[0]["ending"]) == 99
    assert int(out.iloc[0]["share_ppm"]) == 1_000_000


def test_bigram_lm_lower_xent_on_predictable_corpus(ray_session,
                                                    tmp_path):
    """A corpus of one repeated bigram chain scores far lower held-out
    cross-entropy than a corpus of shuffled random tokens."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import bigram_lm_perplexity
    rng = np.random.default_rng(6)
    det = [" ".join(["a b"] * 30)] * 50
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(50, dtype=np.int64)),
        "text": pa.array(det),
    }), str(tmp_path / "documents.parquet"))
    out_det = bigram_lm_perplexity(str(tmp_path)).to_pydict()

    rnd = [" ".join(rng.choice([f"w{i}" for i in range(50)], 60))
           for _ in range(50)]
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(50, dtype=np.int64)),
        "text": pa.array(rnd),
    }), str(tmp_path / "documents.parquet"))
    out_rnd = bigram_lm_perplexity(str(tmp_path)).to_pydict()
    assert out_det["xent_micronats_per_tok"][0] < \
        out_rnd["xent_micronats_per_tok"][0]


def test_cvm_zero_and_positive(ray_session, tmp_path):
    """Identical distributions -> 0; disjoint supports -> large."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import cvm_drift_binned
    v = np.linspace(1.0, 100.0, 300)
    pq.write_table(pa.table({
        "event_type": pa.array(["view"] * 300 + ["purchase"] * 300),
        "value": pa.array(np.concatenate([v, v])),
    }), str(tmp_path / "events.parquet"))
    assert cvm_drift_binned(str(tmp_path)).to_pydict()["cvm_ppm"] \
        == [0]

    pq.write_table(pa.table({
        "event_type": pa.array(["view"] * 300 + ["purchase"] * 300),
        "value": pa.array(np.concatenate([v, v + 1000.0])),
    }), str(tmp_path / "events.parquet"))
    out = cvm_drift_binned(str(tmp_path)).to_pydict()
    assert out["cvm_ppm"][0] > 300_000     # big persistent gap


def test_two_proportion_z_sign(ray_session, tmp_path):
    """Arm A engineered to a higher rate -> positive z and diff."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import two_proportion_ztest
    from p2pddsketch_ray.hashing import murmur64
    ids = np.arange(40_000, dtype=np.int64)
    arm = (murmur64(ids) % np.uint64(2)).astype(np.int64)
    rng = np.random.default_rng(12)
    base = rng.uniform(0, 200, len(ids))
    value = np.where(arm == 0, base + 30.0, base)  # A richer
    pq.write_table(pa.table({
        "event_id": pa.array(ids),
        "value": pa.array(value),
    }), str(tmp_path / "events.parquet"))
    out = two_proportion_ztest(str(tmp_path)).to_pydict()
    assert out["rate_diff_ppm"][0] > 0
    assert out["z_micro"][0] > 2_000_000   # decisive


def test_poisson_surprise_finds_spike(ray_session, tmp_path):
    """A single 50x spike hour dominates the surprise ranking."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import (
        poisson_surprise_hours)
    H = 3_600_000_000
    rows_ts, rows_type = [], []
    for h in range(48):
        k = 100 if h == 17 else 2
        rows_ts += [h * H] * k
        rows_type += ["click"] * k
    pq.write_table(pa.table({
        "ts": pa.array(np.array(rows_ts, dtype=np.int64)).cast(
            pa.timestamp("us")),
        "event_type": pa.array(rows_type, type=pa.string()),
    }), str(tmp_path / "events.parquet"))
    out = poisson_surprise_hours(str(tmp_path)).to_pandas()
    assert int(out.iloc[0]["hour"]) == 17
    assert int(out.iloc[0]["n"]) == 100


def test_sax_motif_cyclic_series(ray_session, tmp_path):
    """A strict 4-hour cycle a,b,c,d... yields the four rotations as
    the only motifs, equally frequent."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import sax_motif_counts
    H = 3_600_000_000
    rows_ts = []
    counts = [1, 2, 3, 4]        # quartiles split exactly at 1/2/3/4
    for h in range(40):
        rows_ts += [h * H] * counts[h % 4]
    pq.write_table(pa.table({
        "ts": pa.array(np.array(rows_ts, dtype=np.int64)).cast(
            pa.timestamp("us")),
    }), str(tmp_path / "events.parquet"))
    out = sax_motif_counts(str(tmp_path)).to_pandas()
    assert set(out["motif"]) <= {"abc", "bcd", "cda", "dab"}
    assert len(out) == 4


def test_returns_rate_by_brand_hand_case(ray_session, tmp_path):
    """Brand B1 has 50% returns; B2 has none."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import (
        returns_rate_by_brand)
    pq.write_table(pa.table({
        "p_partkey": pa.array([1, 2], type=pa.int64()),
        "p_brand": pa.array(["B1", "B2"]),
    }), str(tmp_path / "part.parquet"))
    pq.write_table(pa.table({
        "l_partkey": pa.array([1, 1, 2, 2], type=pa.int64()),
        "l_returnflag": pa.array(["R", "N", "N", "N"]),
        "l_extendedprice": pa.array([100.0, 300.0, 50.0, 50.0]),
    }), str(tmp_path / "lineitem.parquet"))
    out = (returns_rate_by_brand(str(tmp_path)).to_pandas()
           .set_index("p_brand"))
    assert int(out.loc["B1", "return_rate_ppm"]) == 500_000
    assert int(out.loc["B1", "rev_return_ppm"]) == \
        10000 * 1_000_000 // 40000
    assert int(out.loc["B2", "return_rate_ppm"]) == 0


def test_mix_anomaly_flags_skewed_hour(ray_session, tmp_path):
    """An hour with inverted type mix tops the ranking even though its
    volume matches the others."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import mix_anomaly_hours
    H = 3_600_000_000
    rows_ts, rows_type = [], []
    for h in range(30):
        if h == 13:
            mix = [("view", 2), ("error", 18)]   # inverted
        else:
            mix = [("view", 18), ("error", 2)]
        for et, k in mix:
            rows_ts += [h * H] * k
            rows_type += [et] * k
    pq.write_table(pa.table({
        "ts": pa.array(np.array(rows_ts, dtype=np.int64)).cast(
            pa.timestamp("us")),
        "event_type": pa.array(rows_type, type=pa.string()),
    }), str(tmp_path / "events.parquet"))
    out = mix_anomaly_hours(str(tmp_path)).to_pandas()
    assert int(out.iloc[0]["hour"]) == 13
    assert int(out.iloc[0]["n"]) == 20


def test_tpch_q3_hand_case(ray_session, tmp_path):
    """One qualifying order per segment; cross-segment and shipped
    lineitems excluded."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import tpch_q3_topk
    D = np.datetime64("1998-06-15", "us").astype(np.int64)
    DAY = 86_400_000_000
    pq.write_table(pa.table({
        "c_custkey": pa.array([1, 2], type=pa.int64()),
        "c_mktsegment": pa.array(["BUILDING", "MACHINERY"]),
    }), str(tmp_path / "customer.parquet"))
    pq.write_table(pa.table({
        "o_orderkey": pa.array([10, 20], type=pa.int64()),
        "o_custkey": pa.array([1, 2], type=pa.int64()),
        "o_orderdate": pa.array(
            np.array([D - 30 * DAY, D - 30 * DAY],
                     dtype=np.int64)).cast(pa.timestamp("us")),
    }), str(tmp_path / "orders.parquet"))
    pq.write_table(pa.table({
        "l_orderkey": pa.array([10, 10, 20], type=pa.int64()),
        "l_extendedprice": pa.array([100.0, 200.0, 500.0]),
        "l_discount": pa.array([0.0, 0.5, 0.0]),
        "l_shipdate": pa.array(
            np.array([D + DAY, D + DAY, D + DAY],
                     dtype=np.int64)).cast(pa.timestamp("us")),
    }), str(tmp_path / "lineitem.parquet"))
    out = tpch_q3_topk(str(tmp_path)).to_pydict()
    # only order 10 (BUILDING); revenue = 100 + 200*0.5 = 200.00
    assert out["o_orderkey"] == [10]
    assert out["revenue_cents"] == [20000]


def test_tpch_q6_hand_case(ray_session, tmp_path):
    """Only rows inside the year/discount/quantity box count."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import tpch_q6_revenue
    Y = np.datetime64("1997-06-01", "us").astype(np.int64)
    OUT = np.datetime64("1998-06-01", "us").astype(np.int64)
    pq.write_table(pa.table({
        "l_shipdate": pa.array(
            np.array([Y, Y, Y, OUT], dtype=np.int64)).cast(
            pa.timestamp("us")),
        "l_discount": pa.array([0.06, 0.06, 0.02, 0.06]),
        "l_quantity": pa.array([10.0, 30.0, 10.0, 10.0]),
        "l_extendedprice": pa.array([1000.0, 1000.0, 1000.0,
                                     1000.0]),
    }), str(tmp_path / "lineitem.parquet"))
    out = tpch_q6_revenue(str(tmp_path)).to_pydict()
    # row 1 only: qty 30 violates, disc 0.02 violates, OUT wrong year
    assert out["n_lineitems"] == [1]
    assert out["revenue_cents"] == [6000]


def test_copula_grid_perfect_dependence(ray_session, tmp_path):
    """Token count proportional to chars puts all mass on the
    diagonal cells."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import (
        length_token_copula_grid)
    texts = [" ".join(["tok"] * (i + 1)) for i in range(100)]
    chars = [4 * (i + 1) for i in range(100)]
    pq.write_table(pa.table({
        "text": pa.array(texts),
        "n_chars": pa.array(chars, type=pa.int64()),
    }), str(tmp_path / "documents.parquet"))
    out = length_token_copula_grid(str(tmp_path)).to_pandas()
    off_diag = out[(out["chars_bucket"] != out["tokens_bucket"])]
    assert int(off_diag["n"].sum()) == 0
    assert int(out["n"].sum()) == 100


def test_price_volume_pure_price_move(ray_session, tmp_path):
    """Same quantities both years, prices doubled -> price index 2e6,
    volume index 1e6."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import (
        price_volume_decomposition)
    Y0 = np.datetime64("1996-06-01", "us").astype(np.int64)
    Y1 = np.datetime64("1997-06-01", "us").astype(np.int64)
    pq.write_table(pa.table({
        "l_partkey": pa.array([1, 2, 1, 2], type=pa.int64()),
        "l_shipdate": pa.array(
            np.array([Y0, Y0, Y1, Y1], dtype=np.int64)).cast(
            pa.timestamp("us")),
        "l_extendedprice": pa.array([100.0, 50.0, 200.0, 100.0]),
        "l_quantity": pa.array([10.0, 5.0, 10.0, 5.0]),
    }), str(tmp_path / "lineitem.parquet"))
    out = price_volume_decomposition(str(tmp_path)).to_pydict()
    assert out["n_parts_both_years"] == [2]
    assert out["price_index_ppm"] == [2_000_000]
    assert out["volume_index_ppm"] == [1_000_000]


def test_ttr_quantiles_separates_template_from_unique(ray_session,
                                                      tmp_path):
    """All-repeat docs (low TTR) vs all-unique docs (TTR 1e6)."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import (
        ttr_quantiles_by_lang)
    rep = " ".join(["tok"] * 20)
    uniq = " ".join(f"w{i}" for i in range(20))
    pq.write_table(pa.table({
        "lang": pa.array(["tmpl"] * 9 + ["org"] * 9),
        "text": pa.array([rep] * 9 + [uniq] * 9),
    }), str(tmp_path / "documents.parquet"))
    out = (ttr_quantiles_by_lang(str(tmp_path)).to_pandas()
           .set_index("lang"))
    assert int(out.loc["tmpl", "ttr_p50"]) == 50_000   # 1/20
    assert int(out.loc["org", "ttr_p50"]) == 1_000_000


def test_copurchase_pairs_hand_case(ray_session, tmp_path):
    """Parts 1-2 co-occur in two orders; 1-3 in one."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import (
        copurchase_part_pairs)
    pq.write_table(pa.table({
        "l_orderkey": pa.array([10, 10, 10, 20, 20],
                               type=pa.int64()),
        "l_partkey": pa.array([1, 2, 3, 1, 2], type=pa.int64()),
    }), str(tmp_path / "lineitem.parquet"))
    out = copurchase_part_pairs(str(tmp_path)).to_pandas()
    assert (int(out.iloc[0]["part_a"]),
            int(out.iloc[0]["part_b"]),
            int(out.iloc[0]["n_orders"])) == (1, 2, 2)
    rest = set(zip(out["part_a"], out["part_b"], out["n_orders"]))
    assert (1, 3, 1) in rest and (2, 3, 1) in rest


def test_nation_share_sums_to_region(ray_session, tmp_path):
    """Shares within one region sum to ~1e6 and match hand math."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import (
        nation_share_of_region)
    pq.write_table(pa.table({
        "r_regionkey": pa.array([0, 1], type=pa.int32()),
        "r_name": pa.array(["WEST", "EAST"]),
    }), str(tmp_path / "region.parquet"))
    pq.write_table(pa.table({
        "n_nationkey": pa.array([0, 1, 2], type=pa.int32()),
        "n_name": pa.array(["AA", "BB", "CC"]),
        "n_regionkey": pa.array([0, 0, 1], type=pa.int32()),
    }), str(tmp_path / "nation.parquet"))
    pq.write_table(pa.table({
        "s_nationkey": pa.array([0, 0, 1, 2], type=pa.int32()),
        "s_acctbal": pa.array([100.0, 200.0, 100.0, 50.0]),
    }), str(tmp_path / "supplier.parquet"))
    out = (nation_share_of_region(str(tmp_path)).to_pandas()
           .set_index("n_name"))
    assert int(out.loc["AA", "share_of_region_ppm"]) == 750_000
    assert int(out.loc["BB", "share_of_region_ppm"]) == 250_000
    assert int(out.loc["CC", "share_of_region_ppm"]) == 1_000_000


def test_youden_perfect_separation(ray_session, tmp_path):
    """Token count fully determines the gold label -> J = 1e6 and the
    threshold sits at the class boundary."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import (
        youden_threshold_scan)
    short = "tok tok tok"                   # 3 tokens, small chars
    long_ = " ".join(["tok"] * 50)          # 50 tokens, big chars
    pq.write_table(pa.table({
        "text": pa.array([short] * 40 + [long_] * 40),
        "n_chars": pa.array([10] * 40 + [500] * 40,
                            type=pa.int64()),
    }), str(tmp_path / "documents.parquet"))
    out = youden_threshold_scan(str(tmp_path)).to_pydict()
    assert out["j_ppm"] == [1_000_000]
    assert out["best_threshold"] == [50]
    assert out["tp"] == [40] and out["fp"] == [0]


def test_stickiness_extremes(ray_session, tmp_path):
    """Half the users always repeat (share 1e6), half always
    alternate (share 0) -> quartiles straddle both."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import (
        stickiness_quantiles)
    rows_u, rows_ts, rows_t = [], [], []
    eid = 0
    for u in range(10):                     # repeaters
        for i in range(6):
            rows_u.append(u); rows_ts.append(i * 1000)
            rows_t.append("view")
    for u in range(10, 20):                 # alternators
        for i in range(6):
            rows_u.append(u); rows_ts.append(i * 1000)
            rows_t.append("view" if i % 2 == 0 else "click")
    n = len(rows_u)
    pq.write_table(pa.table({
        "event_id": pa.array(np.arange(n, dtype=np.int64)),
        "ts": pa.array(np.array(rows_ts, dtype=np.int64)).cast(
            pa.timestamp("us")),
        "user_id": pa.array(np.array(rows_u, dtype=np.int64)),
        "event_type": pa.array(rows_t, type=pa.string()),
    }), str(tmp_path / "events.parquet"))
    out = stickiness_quantiles(str(tmp_path)).to_pydict()
    assert out["n_users"] == [20]
    assert out["stick_p25"] == [0]
    assert out["stick_p75"] == [1_000_000]


def test_zonemap_sorted_vs_shuffled_layout(ray_session, tmp_path):
    """Keys aligned with dates prune to the lower bound; shuffled
    keys force near-full scans."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import (
        zonemap_pruning_audit)
    n = 1 << 16
    base = np.datetime64("1996-01-01", "us").astype(np.int64)
    DAY = 86_400_000_000
    dates = base + (np.arange(n, dtype=np.int64) * 1200 // n) * DAY
    # aligned: orderkey order == date order
    pq.write_table(pa.table({
        "l_orderkey": pa.array(np.arange(n, dtype=np.int64)),
        "l_shipdate": pa.array(dates).cast(pa.timestamp("us")),
    }), str(tmp_path / "lineitem.parquet"))
    aligned = (zonemap_pruning_audit(str(tmp_path)).to_pandas()
               .set_index("win"))
    rng = np.random.default_rng(19)
    perm = rng.permutation(n).astype(np.int64)
    pq.write_table(pa.table({
        "l_orderkey": pa.array(np.arange(n, dtype=np.int64)),
        "l_shipdate": pa.array(dates[perm]).cast(pa.timestamp("us")),
    }), str(tmp_path / "lineitem.parquet"))
    shuffled = (zonemap_pruning_audit(str(tmp_path)).to_pandas()
                .set_index("win"))
    w = "1997-01"
    assert int(aligned.loc[w, "chunks_scanned"]) <= \
        int(aligned.loc[w, "sorted_lower_bound"]) + 1
    assert int(shuffled.loc[w, "chunks_scanned"]) == \
        int(shuffled.loc[w, "n_chunks"])


def test_monetary_unit_sampling_covers_whales(ray_session, tmp_path):
    """Orders above the certainty cap are ALWAYS selected; value
    coverage beats count coverage."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import monetary_unit_sample
    n = 2000
    price = np.full(n, 10.0)
    price[:20] = 50_000.0       # whales: 50000*100*50//100 > 1e6 cap
    pq.write_table(pa.table({
        "o_orderkey": pa.array(np.arange(n, dtype=np.int64)),
        "o_totalprice": pa.array(price),
    }), str(tmp_path / "orders.parquet"))
    out = monetary_unit_sample(str(tmp_path)).to_pydict()
    assert out["n_selected"][0] >= 20            # all whales in
    assert out["value_coverage_ppm"][0] > 950_000
    assert out["sel_rate_ppm"][0] < 200_000      # few of the minnows


def test_split_leakage_detects_straddle(ray_session, tmp_path):
    """A duplicated text whose copies hash to different splits is
    counted as leakage."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.hashing import murmur64
    from p2pddsketch_ray.pipelines.relational import (
        split_leakage_report)
    ids = np.arange(1000, dtype=np.int64)
    split = (murmur64(ids) % np.uint64(10) >= 8)
    train_id = int(ids[~split][0])
    test_id = int(ids[split][0])
    texts = [f"unique-{i}" for i in range(1000)]
    texts[test_id] = texts[train_id] = "leaked content"
    pq.write_table(pa.table({
        "doc_id": pa.array(ids),
        "text": pa.array(texts),
    }), str(tmp_path / "documents.parquet"))
    out = split_leakage_report(str(tmp_path)).to_pydict()
    assert out["n_straddling"] == [1]
    assert out["leaked_test_docs"] == [1]
    assert out["n_clusters"] == [999]


def test_weekday_pattern_masks(ray_session, tmp_path):
    """A Sat+Sun-only user gets mask 0b1100000 = 96; a Monday-only
    user gets 1."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import (
        weekday_pattern_census)
    DAY = 86_400_000_000
    # day 4 = Monday; day 2 = Saturday, day 3 = Sunday
    rows = [(0, 4), (1, 2), (1, 3), (2, 4), (2, 11)]
    pq.write_table(pa.table({
        "user_id": pa.array(np.array([r[0] for r in rows],
                                     dtype=np.int64)),
        "ts": pa.array(np.array([r[1] * DAY for r in rows],
                                dtype=np.int64)).cast(
            pa.timestamp("us")),
    }), str(tmp_path / "events.parquet"))
    out = weekday_pattern_census(str(tmp_path)).to_pandas()
    pats = dict(zip(out["mask"], out["n_users"]))
    assert pats.get(1, 0) == 2      # users 0 and 2 (Mondays only)
    assert pats.get(96, 0) == 1     # the weekend user


def test_new_part_share_hand_case(ray_session, tmp_path):
    """One part debuts in 2000, one is back catalog."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import (
        new_part_revenue_share)
    D = lambda s: np.datetime64(s, "us").astype(np.int64)
    pq.write_table(pa.table({
        "l_partkey": pa.array([1, 1, 2], type=pa.int64()),
        "l_shipdate": pa.array(np.array(
            [D("1999-05-01"), D("2000-05-01"), D("2000-06-01")],
            dtype=np.int64)).cast(pa.timestamp("us")),
        "l_extendedprice": pa.array([100.0, 300.0, 200.0]),
    }), str(tmp_path / "lineitem.parquet"))
    out = new_part_revenue_share(str(tmp_path)).to_pydict()
    assert out["n_new_parts"] == [1]          # part 2
    assert out["rev_new_cents"] == [20000]
    assert out["rev_catalog_cents"] == [30000]
    assert out["new_share_ppm"] == [20000 * 1_000_000 // 50000]


def test_session_entry_and_weekly_wow(ray_session, tmp_path):
    """Entry census picks each session's first type; WoW ratio is the
    exact integer quotient."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import (
        session_entry_types, weekly_revenue_wow)
    MIN = 60_000_000
    rows = [(0, 0, "view"), (0, 5 * MIN, "click"),
            (0, 120 * MIN, "purchase"),       # new session
            (1, 0, "click")]
    pq.write_table(pa.table({
        "event_id": pa.array(np.arange(4, dtype=np.int64)),
        "user_id": pa.array(np.array([r[0] for r in rows],
                                     dtype=np.int64)),
        "ts": pa.array(np.array([r[1] for r in rows],
                                dtype=np.int64)).cast(
            pa.timestamp("us")),
        "event_type": pa.array([r[2] for r in rows],
                               type=pa.string()),
    }), str(tmp_path / "events.parquet"))
    out = (session_entry_types(str(tmp_path)).to_pandas()
           .set_index("event_type"))
    assert int(out.loc["view", "n_sessions"]) == 1
    assert int(out.loc["click", "n_sessions"]) == 1
    assert int(out.loc["purchase", "n_sessions"]) == 1

    WEEK = 7 * 86_400_000_000
    pq.write_table(pa.table({
        "o_orderdate": pa.array(np.array(
            [0, WEEK, WEEK], dtype=np.int64)).cast(
            pa.timestamp("us")),
        "o_totalprice": pa.array([100.0, 150.0, 150.0]),
    }), str(tmp_path / "orders.parquet"))
    wow = (weekly_revenue_wow(str(tmp_path)).to_pandas()
           .set_index("week"))
    assert int(wow.loc[1, "wow_ppm"]) == 30000 * 1_000_000 // 10000


def test_activity_span_and_priority_mix(ray_session, tmp_path):
    """Span quartiles from known lifetimes; yearly mix shares sum per
    year."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import (
        activity_span_quantiles, priority_mix_by_year)
    H = 3_600_000_000
    rows_u = [0, 0, 1, 1, 2, 3]
    rows_ts = [0, 10 * H, 0, 100 * H, 0, 0]   # spans 10, 100, 0, 0
    pq.write_table(pa.table({
        "user_id": pa.array(np.array(rows_u, dtype=np.int64)),
        "ts": pa.array(np.array(rows_ts, dtype=np.int64)).cast(
            pa.timestamp("us")),
    }), str(tmp_path / "events.parquet"))
    out = activity_span_quantiles(str(tmp_path)).to_pydict()
    assert out["n_users"] == [4]
    assert out["span_h_p50"] == [0]
    assert out["span_h_p75"] == [10]

    Y = lambda y: np.datetime64(f"{y}-06-01", "us").astype(np.int64)
    pq.write_table(pa.table({
        "o_orderdate": pa.array(np.array(
            [Y(1996)] * 3 + [Y(1997)] * 2, dtype=np.int64)).cast(
            pa.timestamp("us")),
        "o_orderpriority": pa.array(["1-U", "1-U", "2-H",
                                     "1-U", "1-U"]),
    }), str(tmp_path / "orders.parquet"))
    mix = (priority_mix_by_year(str(tmp_path)).to_pandas()
           .set_index(["year", "o_orderpriority"]))
    assert int(mix.loc[(1996, "1-U"), "share_ppm"]) == \
        2 * 1_000_000 // 3
    assert int(mix.loc[(1997, "1-U"), "share_ppm"]) == 1_000_000


def test_abc_classes_hand_case(ray_session, tmp_path):
    """One dominant part is class A; mid part B; tail C."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import abc_classification
    # revenues: 80, 15, 5 (units of 100 cents)
    pq.write_table(pa.table({
        "l_partkey": pa.array([1, 2, 3], type=pa.int64()),
        "l_extendedprice": pa.array([80.0, 15.0, 5.0]),
    }), str(tmp_path / "lineitem.parquet"))
    out = (abc_classification(str(tmp_path)).to_pandas()
           .set_index("abc_class"))
    assert int(out.loc["A", "n_parts"]) == 1
    assert int(out.loc["B", "n_parts"]) == 1
    assert int(out.loc["C", "n_parts"]) == 1
    assert int(out.loc["A", "rev_share_ppm"]) == 800_000


def test_ship_lag_quantiles_known(ray_session, tmp_path):
    """Urgent orders ship in 1 day, low priority in 10."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import (
        ship_lag_quantiles_by_priority)
    DAY = 86_400_000_000
    pq.write_table(pa.table({
        "o_orderkey": pa.array([1, 2], type=pa.int64()),
        "o_orderdate": pa.array(np.array([0, 0], dtype=np.int64))
        .cast(pa.timestamp("us")),
        "o_orderpriority": pa.array(["1-URGENT", "5-LOW"]),
    }), str(tmp_path / "orders.parquet"))
    pq.write_table(pa.table({
        "l_orderkey": pa.array([1, 1, 2], type=pa.int64()),
        "l_shipdate": pa.array(np.array(
            [1 * DAY, 1 * DAY, 10 * DAY], dtype=np.int64)).cast(
            pa.timestamp("us")),
    }), str(tmp_path / "lineitem.parquet"))
    out = (ship_lag_quantiles_by_priority(str(tmp_path)).to_pandas()
           .set_index("o_orderpriority"))
    assert int(out.loc["1-URGENT", "lag_days_p50"]) == 1
    assert int(out.loc["5-LOW", "lag_days_p50"]) == 10


def test_daily_entropy_collapse_detected(ray_session, tmp_path):
    """A day with a single event type has zero entropy; a uniform
    2-type day sits near ln(2)."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import daily_type_entropy
    DAY = 86_400_000_000
    rows_ts = [0] * 20 + [DAY] * 20
    rows_t = ["view"] * 20 + ["view"] * 10 + ["click"] * 10
    pq.write_table(pa.table({
        "ts": pa.array(np.array(rows_ts, dtype=np.int64)).cast(
            pa.timestamp("us")),
        "event_type": pa.array(rows_t, type=pa.string()),
    }), str(tmp_path / "events.parquet"))
    out = (daily_type_entropy(str(tmp_path)).to_pandas()
           .set_index("day"))
    assert int(out.loc[0, "entropy_micronats"]) == 0
    assert abs(int(out.loc[1, "entropy_micronats"]) - 693_146) < 10


def test_part_rank_movers_detects_swap(ray_session, tmp_path):
    """Two parts swap top spots between years -> both are movers."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import part_rank_movers
    D = lambda s: np.datetime64(s, "us").astype(np.int64)
    pq.write_table(pa.table({
        "l_partkey": pa.array([1, 2, 3, 1, 2, 3], type=pa.int64()),
        "l_shipdate": pa.array(np.array(
            [D("1999-06-01")] * 3 + [D("2000-06-01")] * 3,
            dtype=np.int64)).cast(pa.timestamp("us")),
        "l_extendedprice": pa.array(
            [300.0, 200.0, 100.0, 100.0, 200.0, 300.0]),
    }), str(tmp_path / "lineitem.parquet"))
    out = (part_rank_movers(str(tmp_path)).to_pandas()
           .set_index("part"))
    assert int(out.loc[1, "abs_shift"]) == 2   # rank 1 -> 3
    assert int(out.loc[3, "abs_shift"]) == 2   # rank 3 -> 1
    assert int(out.loc[2, "abs_shift"]) == 0


def test_key_account_concentration(ray_session, tmp_path):
    """Nation 1: one whale among minnows; nation 2: uniform."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import (
        key_account_risk_by_nation)
    pq.write_table(pa.table({
        "c_custkey": pa.array(np.arange(20, dtype=np.int64)),
        "c_nationkey": pa.array(
            np.where(np.arange(20) < 10, 1, 2).astype(np.int32)),
    }), str(tmp_path / "customer.parquet"))
    price = np.full(20, 10.0)
    price[0] = 10_000.0                     # whale in nation 1
    pq.write_table(pa.table({
        "o_custkey": pa.array(np.arange(20, dtype=np.int64)),
        "o_totalprice": pa.array(price),
    }), str(tmp_path / "orders.parquet"))
    out = (key_account_risk_by_nation(str(tmp_path)).to_pandas()
           .set_index("nationkey"))
    total1 = 10_000_00 * 10 // 10 + 9 * 1000   # cents
    assert int(out.loc[1, "topk_share_ppm"]) > 990_000
    assert int(out.loc[2, "topk_share_ppm"]) == \
        3 * 1000 * 1_000_000 // (10 * 1000)


def test_monthly_seasonal_uniform_is_1e6(ray_session, tmp_path):
    """Equal revenue in each of 12 months -> index 1e6 everywhere."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import (
        monthly_seasonal_index)
    dates = [np.datetime64(f"1997-{m:02d}-15", "us").astype(np.int64)
             for m in range(1, 13)]
    pq.write_table(pa.table({
        "o_orderdate": pa.array(np.array(dates, dtype=np.int64))
        .cast(pa.timestamp("us")),
        "o_totalprice": pa.array(np.full(12, 100.0)),
    }), str(tmp_path / "orders.parquet"))
    out = monthly_seasonal_index(str(tmp_path)).to_pydict()
    assert out["seasonal_index_ppm"] == [1_000_000] * 12


def test_token_codegree_hub_word(ray_session, tmp_path):
    """A hub token adjacent to many distinct words outranks leaf
    words."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import token_codegree_topk
    texts = [f"hub w{i}" for i in range(20)]
    pq.write_table(pa.table({"text": pa.array(texts)}),
                   str(tmp_path / "documents.parquet"))
    out = token_codegree_topk(str(tmp_path)).to_pandas()
    assert out.iloc[0]["tok"] == "hub"
    assert int(out.iloc[0]["degree"]) == 20


def test_discount_by_qty_bucket_hand(ray_session, tmp_path):
    """Two buckets with known mean discounts (basis points x100)."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import (
        discount_by_qty_bucket)
    pq.write_table(pa.table({
        "l_quantity": pa.array([5.0, 5.0, 45.0, 45.0]),
        "l_discount": pa.array([0.05, 0.07, 0.10, 0.0]),
    }), str(tmp_path / "lineitem.parquet"))
    out = (discount_by_qty_bucket(str(tmp_path)).to_pandas()
           .set_index("qty_lo"))
    assert int(out.loc[1, "mean_discount_bp_x100"]) == \
        (500 + 700) * 100 // 2
    assert int(out.loc[41, "mean_discount_bp_x100"]) == \
        1000 * 100 // 2


def test_sliding_grouped_matches_global(ray_session):
    """Per-group sliding quantiles over a single-group column must
    reproduce the global walk exactly (same sketches, same walk)."""
    import ray.data
    from p2pddsketch_ray.pipelines.sliding import (
        sliding_window_quantiles, sliding_window_quantiles_grouped)
    sf = "/root/testdata/sf0.001"
    ds = ray.data.read_parquet(f"{sf}/events.parquet",
                               columns=["ts", "value"])
    want = sliding_window_quantiles(ds, "ts", "value", window_hours=6,
                                    alpha=0.01, bin_limit=2048)
    ds2 = ray.data.read_parquet(
        f"{sf}/events.parquet", columns=["ts", "value"]).map_batches(
        lambda t: t.append_column(
            "g", pa.array(["only"] * t.num_rows, type=pa.string())),
        batch_format="pyarrow")
    got = sliding_window_quantiles_grouped(
        ds2, "ts", "value", "g", window_hours=6, alpha=0.01,
        bin_limit=2048)
    assert got.num_rows == want.num_rows
    assert set(got["g"].to_pylist()) == {"only"}
    for c in ("window_end", "q", "est", "n"):
        assert got[c].to_pylist() == want[c].to_pylist(), c


def test_partition_by_coalesce_is_pure_routing(ray_session):
    """The block-coalescing fast path in partition_by must not change
    WHAT each partition sees -- only how many blocks feed the exchange.
    A many-block input (forcing the repartition branch) must produce
    the same per-partition multisets as coalesce=False."""
    import ray.data

    from p2pddsketch_ray.stages.partition import partition_by

    n = 40_000
    rng = np.random.default_rng(7)
    tbl = pa.table({"k": pa.array(rng.integers(0, 1 << 40, n)),
                    "v": pa.array(np.arange(n, dtype=np.int64))})
    empty = pa.table({"part_sum": pa.array([], type=pa.int64()),
                      "part_n": pa.array([], type=pa.int64()),
                      "part_min_k": pa.array([], type=pa.int64())})

    def fold(t: pa.Table) -> pa.Table:
        k = t["k"].to_numpy(zero_copy_only=False)
        v = t["v"].to_numpy(zero_copy_only=False)
        return pa.table({"part_sum": pa.array([int(v.sum())]),
                         "part_n": pa.array([t.num_rows]),
                         "part_min_k": pa.array([int(k.min())])})

    # 200 blocks: well past the 2x-target coalesce threshold at 4 CPUs
    many = ray.data.from_arrow(tbl).repartition(200)
    few = ray.data.from_arrow(tbl)
    out_a = (partition_by(many, ["k"], 8, fold, empty, coalesce=True)
             .to_pandas().sort_values(["part_min_k"]).reset_index(drop=True))
    out_b = (partition_by(few, ["k"], 8, fold, empty, coalesce=False)
             .to_pandas().sort_values(["part_min_k"]).reset_index(drop=True))
    assert out_a.equals(out_b)
    assert out_a["part_n"].sum() == n


def test_t_closeness_separates_skewed_group(ray_session, tmp_path):
    """A group mirroring the global distribution scores ~0; a group
    concentrated in one tail scores high."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import t_closeness_audit
    # groups A and B: 40 short (100 ch) / 160 long (500 ch) each;
    # group C: 100 long only.  Global short share = 80/500 = 0.16, so
    # the prefix gap persists over 7 unit distances: C pays
    # |0 - 0.16| -> t = 160000 exactly, A pays |0.2 - 0.16| -> 40000.
    langs, sources, chars = [], [], []
    for grp, lang, src in [(0, "en", "a"), (1, "de", "b")]:
        for i in range(200):
            langs.append(lang); sources.append(src)
            chars.append(100 if i < 40 else 500)
    for i in range(100):
        langs.append("fr"); sources.append("skew")
        chars.append(500)
    pq.write_table(pa.table({
        "lang": pa.array(langs), "source": pa.array(sources),
        "n_chars": pa.array(chars, type=pa.int64()),
    }), str(tmp_path / "documents.parquet"))
    out = t_closeness_audit(str(tmp_path)).to_pandas()
    t = {(r.lang, r.source): r.t_micro for r in out.itertuples()}
    assert t[("fr", "skew")] == 160_000
    assert t[("en", "a")] == 40_000 and t[("de", "b")] == 40_000
    assert out.iloc[0]["lang"] == "fr"      # sorted worst-first


def test_score_lift_gains_monotone_on_separable(ray_session, tmp_path):
    """When the scorer's logit separates the label, the top bin holds
    all positives and the gains curve jumps to 1e6 immediately."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.inference import score_lift_report
    # short docs (n_chars small) get HIGH logit (w_chars < 0), and the
    # label is n_chars >= 200 -- so positives live in LOW bins; check
    # bookkeeping: totals add up and cum share ends at 1e6
    texts = ["b" * 10] * 50 + ["b" * 400] * 50
    chars = [10] * 50 + [400] * 50
    pq.write_table(pa.table({
        "text": pa.array(texts),
        "n_chars": pa.array(chars, type=pa.int64()),
    }), str(tmp_path / "documents.parquet"))
    out = score_lift_report(str(tmp_path)).to_pandas()
    assert int(out["n_docs"].sum()) == 100
    assert int(out["n_pos"].sum()) == 50
    assert int(out["cum_pos_share_ppm"].iloc[-1]) == 1_000_000
    # positives (long docs) have the LOWEST logits -> last bin all-pos
    assert int(out.iloc[-1]["pos_rate_ppm"]) == 1_000_000
    assert int(out.iloc[0]["pos_rate_ppm"]) == 0


def test_table_profile_counts_nulls_and_distincts(ray_session,
                                                  tmp_path):
    """Null bookkeeping is exact; HLL estimates land near the true
    per-column distinct counts."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.approx import table_profile_sketched
    n = 3000
    ck = np.arange(n, dtype=np.int64) % 500          # 500 distinct
    status = np.array(["A", "B", "C"], dtype=object)[
        np.arange(n) % 3]                            # 3 distinct
    prio = [None if i % 10 == 0 else f"P{i % 7}" for i in range(n)]
    pq.write_table(pa.table({
        "o_custkey": pa.array(ck),
        "o_orderstatus": pa.array(status, type=pa.string()),
        "o_orderpriority": pa.array(prio, type=pa.string()),
    }), str(tmp_path / "orders.parquet"))
    out = table_profile_sketched(str(tmp_path)).to_pandas() \
        .set_index("col")
    assert (out["n_rows"] == n).all()
    assert out.loc["o_orderpriority", "n_nulls"] == n // 10
    assert out.loc["o_custkey", "n_nulls"] == 0
    est = out["hll_estimate"]
    assert abs(est["o_custkey"] - 500) / 500 < 0.1
    assert abs(est["o_orderstatus"] - 3) < 1
    assert abs(est["o_orderpriority"] - 7) < 2


def test_psi_zero_on_identical_and_positive_on_shift(ray_session,
                                                     tmp_path):
    """Identical periods give PSI 0 for every bin; a shifted period
    yields a positive total."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import psi_drift_binned
    A = np.datetime64("2024-01-10", "us").astype(np.int64)
    B = np.datetime64("2024-01-20", "us").astype(np.int64)
    # type "same": values identical across periods; type "shift":
    # low values before, high after
    ts, et, val = [], [], []
    for i in range(200):
        v = float(10 + (i % 50))
        ts += [A, B]; et += ["same", "same"]; val += [v, v]
    for i in range(200):
        ts += [A, B]; et += ["shift", "shift"]
        val += [10.0, 59.0]
    pq.write_table(pa.table({
        "ts": pa.array(np.array(ts, dtype=np.int64)).cast(
            pa.timestamp("us")),
        "event_type": pa.array(et), "value": pa.array(val),
    }), str(tmp_path / "events.parquet"))
    out = psi_drift_binned(str(tmp_path)).to_pandas()
    same = out[out["event_type"] == "same"]["psi_term_unats"]
    shift = out[out["event_type"] == "shift"]["psi_term_unats"]
    assert (same == 0).all()
    assert shift.sum() > 1_000_000       # > 1 nat of drift


def test_diff_in_diff_detects_treatment_lift(ray_session, tmp_path):
    """A constant post-period lift applied only to the treated (even
    hash) users shows up as did_micro ~= lift; parallel trends
    otherwise."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.hashing import murmur64
    from p2pddsketch_ray.pipelines.relational import diff_in_diff_report
    PRE = np.datetime64("2024-01-10", "us").astype(np.int64)
    POST = np.datetime64("2024-01-20", "us").astype(np.int64)
    uids = np.arange(1, 101, dtype=np.int64)
    treat = murmur64(uids) % np.uint64(2) == 0
    ts, uid, val = [], [], []
    for u, tr in zip(uids, treat):
        ts += [PRE, POST]
        uid += [u, u]
        # baseline 10.0 pre / 12.0 post for everyone; +5 lift for
        # treated users post
        val += [10.0, 12.0 + (5.0 if tr else 0.0)]
    pq.write_table(pa.table({
        "ts": pa.array(np.array(ts, dtype=np.int64)).cast(
            pa.timestamp("us")),
        "user_id": pa.array(uid, type=pa.int64()),
        "value": pa.array(val),
    }), str(tmp_path / "events.parquet"))
    out = diff_in_diff_report(str(tmp_path)).to_pydict()
    assert out["did_micro"] == [5_000_000]
    assert out["control_post_micro"][0] \
        - out["control_pre_micro"][0] == 2_000_000


def test_rake_scores_multiword_phrase_above_commons(ray_session,
                                                    tmp_path):
    """A repeated co-occurring pair outranks isolated common words,
    and stopwords split phrases."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.relational import rake_keywords_topk
    docs = ["deep learning is deep learning for vision",
            "deep learning and vision",
            "vision the vision"]
    pq.write_table(pa.table({
        "doc_id": pa.array([1, 2, 3], type=pa.int64()),
        "text": pa.array(docs),
    }), str(tmp_path / "documents.parquet"))
    out = rake_keywords_topk(str(tmp_path)).to_pandas()
    top = out.iloc[0]
    # "deep learning" occurs 3x as a 2-token phrase: deg/freq of both
    # words is 2.0 -> score 4.0; single words score ~1
    assert top["phrase"] == "deep learning"
    assert int(top["n_occurrences"]) == 3
    assert int(top["score_micro"]) == 4_000_000
    assert "is" not in set(out["phrase"])      # stopword never appears


def test_theil_sen_robust_to_outlier(ray_session, tmp_path):
    """A linear cents series recovers its exact slope, and one wild
    outlier hour does not move the median slope (the whole point of
    Theil-Sen vs OLS)."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.temporal import theil_sen_trend_by_type
    HOUR_US = 3_600_000_000
    hours = np.arange(24, dtype=np.int64)
    # type a: value 2.00 + 0.50/hour (one event per hour)
    vals_a = 2.0 + 0.5 * hours
    # type b: same line, but hour 12 is a 1000x outlier
    vals_b = vals_a.copy()
    vals_b[12] = 5000.0
    t = pa.table({
        "ts": pa.array(np.concatenate([hours, hours]) * HOUR_US)
              .cast(pa.timestamp("us")),
        "event_type": pa.array(["a"] * 24 + ["b"] * 24),
        "value": pa.array(np.concatenate([vals_a, vals_b])),
    })
    pq.write_table(t, str(tmp_path / "events.parquet"))
    out = theil_sen_trend_by_type(str(tmp_path)).to_pydict()
    assert out["event_type"] == ["a", "b"]
    assert out["n_hours"] == [24, 24]
    assert out["n_pairs"] == [276, 276]
    # 0.50/hour = 50 cents/hour = 50_000_000 micro-cents/hour
    assert out["slope_micro_med"][0] == 50_000_000
    assert out["slope_micro_med"][1] == 50_000_000   # outlier-immune


def test_km_survival_hand_case(ray_session, tmp_path):
    """Six hand-built users: three deaths at t=3,5,8 with risk sets
    4,3,2; censored users hold the risk set but never die."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.temporal import km_user_survival
    HOUR_US = 3_600_000_000
    ev = []   # (user, hour)
    ev += [(1, 0), (1, 5)]                 # lifetime 5, observed
    ev += [(2, 0), (2, 8)]                 # lifetime 8, observed
    ev += [(3, 0), (3, 95)]                # lifetime 95, censored
    ev += [(4, 97)]                        # lifetime 0, censored
    ev += [(5, 100)]                       # lifetime 0, censored (gmax)
    ev += [(6, 0), (6, 3)]                 # lifetime 3, observed
    t = pa.table({
        "ts": pa.array(np.array([h for _, h in ev], dtype=np.int64)
                       * HOUR_US).cast(pa.timestamp("us")),
        "user_id": pa.array(np.array([u for u, _ in ev],
                                     dtype=np.int64)),
    })
    pq.write_table(t, str(tmp_path / "events.parquet"))
    out = km_user_survival(str(tmp_path), censor_hours=10).to_pydict()
    assert out["t_hours"] == [3, 5, 8]
    assert out["n_risk"] == [4, 3, 2]
    assert out["n_event"] == [1, 1, 1]
    want = np.cumsum([int(np.floor(np.log(3 / 4) * 1e6)),
                      int(np.floor(np.log(2 / 3) * 1e6)),
                      int(np.floor(np.log(1 / 2) * 1e6))])
    assert out["log_surv_micro"] == list(want)
    assert out["surv_zero"] == [0, 0, 0]


def test_acf_matches_float_reference(ray_session, tmp_path):
    """The integer-exact ACF agrees with a float reference of the
    same (global-mean) estimator to ppm-floor precision, and a
    strongly periodic series peaks at its period."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.temporal import acf_hourly_revenue
    HOUR_US = 3_600_000_000
    rng = np.random.default_rng(11)
    n = 96
    base = 100.0 + 50.0 * (np.arange(n) % 3 == 0)   # period-3 comb
    vals = base + rng.integers(0, 5, n)
    t = pa.table({
        "ts": pa.array(np.arange(n, dtype=np.int64) * HOUR_US)
              .cast(pa.timestamp("us")),
        "value": pa.array(vals.astype(np.float64)),
    })
    pq.write_table(t, str(tmp_path / "events.parquet"))
    out = acf_hourly_revenue(str(tmp_path)).to_pandas()
    cents = np.floor(vals * 100.0 + 0.5).astype(np.int64)
    mu = cents.mean()
    den = ((cents - mu) ** 2).sum()
    for _, row in out.iterrows():
        k = int(row["lag"])
        ref = ((cents[:-k] - mu) * (cents[k:] - mu)).sum() / den
        assert abs(row["acf_ppm"] / 1e6 - ref) < 2e-6
    acf = dict(zip(out["lag"], out["acf_ppm"]))
    assert acf[3] > acf[1] and acf[3] > acf[2]      # the comb period
    assert acf[6] > acf[4] and acf[6] > acf[5]


def test_weighted_sample_matches_brute_force(ray_session, tmp_path):
    """The distributed bottom-k equals a single-machine brute force of
    the same keys, and a huge-weight doc is always drawn first."""
    import pyarrow.parquet as pq
    from p2pddsketch_ray.hashing import murmur64
    from p2pddsketch_ray.pipelines.relational import weighted_doc_sample
    ids = np.arange(1, 2001, dtype=np.int64)
    w = np.full(2000, 50, dtype=np.int64)
    w[7] = 50_000_000                       # practically certain pick
    pq.write_table(pa.table({"doc_id": pa.array(ids),
                             "n_chars": pa.array(w)}),
                   str(tmp_path / "documents.parquet"))
    out = weighted_doc_sample(str(tmp_path), k=25).to_pandas()
    u = (murmur64(ids).astype(np.float64) + 0.5) / 2.0 ** 64
    key = np.floor(-np.log(u) / w.astype(np.float64) * 1e15).astype(
        np.int64)
    order = np.lexsort((ids, key))[:25]
    assert list(out["doc_id"]) == list(ids[order])
    assert list(out["key_femto"]) == list(key[order])
    assert out["doc_id"].iloc[0] == 8       # ids[7]


def test_cms_sliding_window_subtracts(ray_session, tmp_path):
    """CMS is linear, so the trailing window is a prefix-sum
    difference: counts drop out exactly W hours after they entered."""
    import pyarrow.parquet as pq

    from p2pddsketch_ray.pipelines.sliding import cms_sliding_user_est

    H = 3_600_000_000
    ts, uid = [], []
    # user 7: five events in hour 0, two in hour 30; user 9: one
    # event per hour 0..30 (always in-window)
    ts += [0 * H + i for i in range(5)] + [30 * H, 30 * H + 1]
    uid += [7] * 7
    ts += [h * H for h in range(31)]
    uid += [9] * 31
    pq.write_table(pa.table({
        "ts": pa.array(np.array(ts, dtype=np.int64)).cast(
            pa.timestamp("us")),
        "user_id": pa.array(uid, type=pa.int64()),
        "event_type": pa.array(["x"] * len(uid)),
        "event_id": pa.array(np.arange(len(uid), dtype=np.int64)),
        "value": pa.array([1.0] * len(uid)),
        "props": pa.array(["{}"] * len(uid)),
    }), str(tmp_path / "events.parquet"))
    out = cms_sliding_user_est(str(tmp_path),
                               window_hours=24).to_pandas()
    est = {(int(r.window_start) // 3600, int(r.user_id)):
           int(r.est_count) for r in out.itertuples()}
    # user 7: in-window through hour 23, gone at 24, back at 30
    assert est[(0, 7)] == 5
    assert est[(23, 7)] == 5
    assert est[(24, 7)] == 0
    assert est[(30, 7)] == 2
    # user 9: ramps 1..24 then holds at 24 (window saturated)
    assert est[(0, 9)] == 1
    assert est[(23, 9)] == 24
    assert est[(30, 9)] == 24


def test_epoch_shuffle_stats_deterministic_and_balanced(ray_session):
    """Each epoch reshards ALL docs (per-epoch counts sum to the corpus),
    epochs place docs differently, and the whole table is bit-stable
    across runs and matches the DuckDB replica."""
    import duckdb
    from p2pddsketch_ray.pipelines.relational import (EPOCH_SHUFFLE_SQL,
                                                      epoch_shuffle_stats)
    sf = "/root/testdata/sf0.001"
    a = epoch_shuffle_stats(sf).to_pandas()
    b = epoch_shuffle_stats(sf).to_pandas()
    assert a.equals(b)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    want = con.execute(EPOCH_SHUFFLE_SQL).df()
    for c in a.columns:
        assert a[c].astype("int64").tolist() \
            == want[c].astype("int64").tolist(), c
    n_docs = con.execute("SELECT count(*) FROM documents").fetchone()[0]
    per_epoch = a.groupby("epoch")["n_docs"].sum()
    assert (per_epoch == n_docs).all()
    # different epochs -> different placement checksums
    chk = a.groupby("epoch")["hash_check"].sum()
    assert len(set(chk.tolist())) == 3


def test_hard_negative_topk_excludes_own_label(ray_session):
    import duckdb
    from p2pddsketch_ray.pipelines.knn import (HARD_NEGATIVE_SQL,
                                               hard_negative_topk)
    sf = "/root/testdata/sf0.001"
    got = hard_negative_topk(sf).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW embeddings AS SELECT * FROM "
                f"read_parquet('{sf}/embeddings.parquet')")
    want = con.execute(HARD_NEGATIVE_SQL).df()
    for c in got.columns:
        assert got[c].astype("int64").tolist() \
            == want[c].astype("int64").tolist(), c
    labels = dict(con.execute(
        "SELECT vec_id, label FROM embeddings").fetchall())
    for r in got.itertuples():
        assert labels[int(r.anchor_id)] != int(r.neg_label)
        assert int(r.neg_label) == labels[int(r.neg_id)]
    # every anchor present with exactly k=3 negatives
    assert got.groupby("anchor_id").size().eq(3).all()


def test_percentile_norm_matches_duckdb(ray_session):
    import duckdb
    from p2pddsketch_ray.pipelines.relational import (
        PERCENTILE_NORM_SQL, percentile_norm_by_source)
    sf = "/root/testdata/sf0.001"
    got = percentile_norm_by_source(sf).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    want = con.execute(PERCENTILE_NORM_SQL).df()
    assert got["source"].tolist() == want["source"].tolist()
    for c in ("n_docs", "sum_pr_ppm", "mean_pr_ppm"):
        assert got[c].astype("int64").tolist() \
            == want[c].astype("int64").tolist(), c
    # percent ranks live in [0, 1e6]
    assert (got["mean_pr_ppm"] >= 0).all()
    assert (got["mean_pr_ppm"] <= 1_000_000).all()


def test_contrastive_margin_matches_duckdb(ray_session):
    import duckdb
    from p2pddsketch_ray.pipelines.knn import (CONTRASTIVE_MARGIN_SQL,
                                               contrastive_margin_report)
    sf = "/root/testdata/sf0.001"
    got = contrastive_margin_report(sf).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW embeddings AS SELECT * FROM "
                f"read_parquet('{sf}/embeddings.parquet')")
    want = con.execute(CONTRASTIVE_MARGIN_SQL).df()
    for c in got.columns:
        assert got[c].astype("int64").tolist() \
            == want[c].astype("int64").tolist(), c
    assert (got["margin_units"]
            == got["pos_units"] - got["neg_units"]).all()


def test_universe_join_sample_matches_duckdb(ray_session):
    import duckdb
    import __ray_entry__ as entrymod
    from p2pddsketch_ray.pipelines.approx import universe_join_sample
    sf = "/root/testdata/sf0.001"
    got = universe_join_sample(sf).to_pandas().iloc[0]
    con = duckdb.connect()
    for t in ("events", "orders"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf}/{t}.parquet')")
    want = con.execute(
        entrymod.oracle_sql()["universe_join_sample"]).df().iloc[0]
    for c in ("sampled_join_size", "est_join_size",
              "exact_join_size", "est_error"):
        assert int(got[c]) == int(want[c]), c
    # the estimator is sampled * buckets and internally consistent
    assert int(got["est_join_size"]) \
        == int(got["sampled_join_size"]) * 16
    assert int(got["est_error"]) \
        == int(got["est_join_size"]) - int(got["exact_join_size"])


def test_hhh_type_user_discount_algebra(ray_session):
    import duckdb
    from p2pddsketch_ray.pipelines.relational import (
        HHH_TYPE_USER_SQL, hhh_type_user)
    sf = "/root/testdata/sf0.001"
    got = hhh_type_user(sf).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    want = con.execute(HHH_TYPE_USER_SQL).df()
    assert len(got) == len(want)
    for c in got.columns:
        if got[c].dtype == object:
            assert got[c].tolist() == want[c].tolist(), c
        else:
            assert got[c].astype("int64").tolist() \
                == want[c].astype("int64").tolist(), c
    # discount algebra: type raw == disc + claimed pair counts
    pairs = got[got["level"] == 0]
    types = got[got["level"] == 1]
    for _, r in types.iterrows():
        claimed = int(pairs[pairs["event_type"]
                            == r["event_type"]]["raw_cnt"].sum())
        assert int(r["raw_cnt"]) == int(r["disc_cnt"]) + claimed


def test_feature_info_gain_matches_duckdb_and_nonneg(ray_session):
    import duckdb
    from p2pddsketch_ray.pipelines.relational import (
        FEATURE_INFO_GAIN_SQL, feature_info_gain)
    sf = "/root/testdata/sf0.001"
    got = feature_info_gain(sf).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW lineitem AS SELECT * FROM "
                f"read_parquet('{sf}/lineitem.parquet')")
    want = con.execute(FEATURE_INFO_GAIN_SQL).df()
    assert got["feature"].tolist() == want["feature"].tolist()
    for c in ("n_values", "h_label_micronats", "h_cond_micronats",
              "info_gain_micronats"):
        assert got[c].astype("int64").tolist() \
            == want[c].astype("int64").tolist(), c
    # IG >= 0 up to the per-term floor slack (bounded by term count)
    slack = int(got["n_values"].max()) * 2 + 2
    assert (got["info_gain_micronats"] >= -slack).all()


def test_template_prefix_clusters_counts(ray_session):
    import duckdb
    from p2pddsketch_ray.pipelines.relational import (
        template_prefix_clusters)
    got = template_prefix_clusters(SF).to_pydict()
    assert len(got["prefix"]) <= 15
    # counts are non-increasing and sources bounded by docs
    assert all(a >= b for a, b in zip(got["n_docs"], got["n_docs"][1:]))
    assert all(s <= d for s, d in zip(got["n_sources"], got["n_docs"]))
    # cross-check the top row against duckdb
    con = duckdb.connect()
    top = con.execute(f"""
      SELECT array_to_string(list_slice(string_split(text,' '),1,2),' ')
               AS p, count(*) AS n
      FROM read_parquet('{SF}/documents.parquet')
      GROUP BY 1 ORDER BY n DESC, p LIMIT 1""").fetchone()
    assert (got["prefix"][0], got["n_docs"][0]) == (top[0], top[1])


def test_doc_novelty_matches_bruteforce(ray_session):
    import numpy as np
    import pyarrow.parquet as pq
    from collections import Counter, defaultdict
    from p2pddsketch_ray.pipelines.relational import doc_novelty_stats
    got = doc_novelty_stats(SF).to_pydict()
    t = pq.read_table(f"{SF}/documents.parquet",
                      columns=["doc_id", "source", "text"]).to_pydict()
    df = Counter()
    per_doc = {}
    for did, src, txt in zip(t["doc_id"], t["source"], t["text"]):
        toks = txt.split(" ")
        sh = {" ".join(toks[i:i + 3]) for i in range(len(toks) - 2)}
        per_doc[did] = (src, sh)
        df.update(sh)
    agg = defaultdict(lambda: [0, 0])
    for src, sh in per_doc.values():
        if not sh:
            continue
        uniq = sum(1 for s in sh if df[s] == 1)
        a = agg[src]
        a[0] += uniq * 1_000_000 // len(sh)
        a[1] += 1
    for src, n, m in zip(got["source"], got["n_docs"],
                         got["mean_novelty_micro"]):
        assert agg[src][1] == n
        assert agg[src][0] // agg[src][1] == m


def test_median_polish_decomposition_identity(ray_session):
    from p2pddsketch_ray.pipelines.relational import median_polish_doclen
    t = median_polish_doclen(SF).to_pydict()
    for i in range(len(t["lang"])):
        assert t["cell_med"][i] == (t["row_eff"][i] + t["col_eff"][i]
                                    + t["residual"][i])
    # after the final row sweep + col sweep, residual col-medians are 0
    import pandas as pd
    df = pd.DataFrame(t)
    for _, grp in df.groupby("source"):
        s = sorted(grp["residual"])
        assert s[(len(s) + 1) // 2 - 1] == 0


def test_priority_sample_matches_duckdb(ray_session):
    import duckdb
    from p2pddsketch_ray.pipelines.approx import (PRIORITY_SAMPLE_SQL,
                                                  priority_sample_revenue)
    sf = "/root/testdata/sf0.001"
    got = priority_sample_revenue(sf).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW orders AS SELECT * FROM "
                f"read_parquet('{sf}/orders.parquet')")
    want = con.execute(PRIORITY_SAMPLE_SQL).df()
    assert len(got) == len(want)
    for c in ("n_sampled", "est_cents", "exact_cents", "err_ppm"):
        assert got[c].astype("int64").tolist() \
            == want[c].astype("int64").tolist(), c
    # the whole sample is exactly k rows across segments
    assert int(got["n_sampled"].sum()) == 200
    # tau-threshold estimator: every sampled weight is >= its own w,
    # so per-segment estimates are >= the sampled segment mass
    assert (got["est_cents"] >= 0).all()


def test_priority_sample_merge_order_invariance(ray_session):
    # block-local top-(k+1) prereduce is lossless: the global top-k +
    # tau computed from block candidates equals the single-pass answer
    import numpy as np
    from p2pddsketch_ray.hashing import murmur64
    rng = np.random.default_rng(11)
    w = rng.integers(1, 10_000_000, 5_000).astype(np.int64)
    keys = np.arange(5_000, dtype=np.int64)
    M = 1_000_000
    u = (murmur64(keys) % np.uint64(M)).astype(np.int64) + 1
    pri = w * M // u
    k = 64

    def topk_tau(order_idx):
        cand = []
        for part in np.array_split(order_idx, 7):
            pp = pri[part]
            loc = np.lexsort((keys[part], -pp))[:k + 1]
            cand.append(part[loc])
        cand = np.concatenate(cand)
        glob = cand[np.lexsort((keys[cand], -pri[cand]))]
        return set(keys[glob[:k]].tolist()), int(pri[glob[k]])

    base_sample, base_tau = topk_tau(np.arange(5_000))
    perm_sample, perm_tau = topk_tau(rng.permutation(5_000))
    assert base_sample == perm_sample and base_tau == perm_tau


def test_bbit_minhash_matches_duckdb(ray_session):
    import duckdb
    from p2pddsketch_ray.pipelines.dedup import (BBIT_MINHASH_SQL,
                                                 bbit_minhash_jaccard)
    sf = "/root/testdata/sf0.001"
    got = bbit_minhash_jaccard(sf).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    want = con.execute(BBIT_MINHASH_SQL).df()
    assert len(got) == len(want) > 0
    for c in got.columns:
        assert got[c].astype("int64").tolist() \
            == want[c].astype("int64").tolist(), c
    # estimator sanity: identical docs would give matches == 64;
    # the clamped estimator never exceeds 1
    assert (got["est_jaccard_ppm"] <= 1_000_000).all()
    assert (got["matches"] <= 64).all()


def test_bbit_estimator_exact_on_identical_and_disjoint():
    # closed-form check of the Li-Konig correction at the extremes
    P, b = 64, 2
    est = lambda m: max(0, m * (1 << b) - P) * 1_000_000 \
        // (P * ((1 << b) - 1))
    assert est(P) == 1_000_000          # all registers match -> J=1
    assert est(P // (1 << b)) == 0      # pure-collision rate -> J=0
    assert est(0) == 0                  # clamp below collision floor


def test_srp_cosine_matches_duckdb(ray_session):
    import duckdb
    import numpy as np
    from p2pddsketch_ray.pipelines.knn import (SRP_COSINE_SQL,
                                               srp_cosine_hamming)
    sf = "/root/testdata/sf0.001"
    got = srp_cosine_hamming(sf).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW embeddings AS SELECT * FROM "
                f"read_parquet('{sf}/embeddings.parquet')")
    want = con.execute(SRP_COSINE_SQL).df()
    assert len(got) == len(want) > 0
    for c in ("vec_a", "vec_b", "hamming"):
        assert got[c].astype("int64").tolist() \
            == want[c].astype("int64").tolist(), c
    for c in ("est_cos", "exact_cos"):
        assert np.array_equal(got[c].to_numpy(), want[c].to_numpy()), c
    # Goemans-Williamson style sanity: the SRP estimate tracks the
    # exact cosine (correlation over pairs is strongly positive)
    r = np.corrcoef(got["est_cos"], got["exact_cos"])[0, 1]
    assert r > 0.3, r


def test_oph_minhash_matches_duckdb(ray_session):
    import duckdb
    from p2pddsketch_ray.pipelines.dedup import (OPH_MINHASH_SQL,
                                                 oph_minhash_densified)
    sf = "/root/testdata/sf0.001"
    got = oph_minhash_densified(sf).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    want = con.execute(OPH_MINHASH_SQL).df()
    assert len(got) == len(want) > 0
    for c in got.columns:
        assert got[c].astype("int64").tolist() \
            == want[c].astype("int64").tolist(), c


def test_oph_densification_identical_docs_match_everywhere():
    # two docs with the same shingle set produce IDENTICAL densified
    # register vectors (borrow offsets included), and a disjoint doc
    # does not accidentally match on borrowed registers
    import numpy as np
    import pyarrow as pa
    from p2pddsketch_ray.sketches.minhash import shingle_hashes

    P = 64
    U = np.uint64(0xFFFFFFFFFFFFFFFF)

    def registers(text: str) -> np.ndarray:
        hv, offs = shingle_hashes(pa.array([text]), 9)
        h = np.unique(hv[offs[0]:offs[1]])
        regs = np.full(P, U, dtype=np.uint64)
        np.minimum.at(regs, (h % np.uint64(P)).astype(np.int64), h)
        filled = regs != U
        dbl = np.concatenate([filled, filled])
        idx = np.where(dbl, np.arange(2 * P), np.int64(1 << 30))
        nxt = np.minimum.accumulate(idx[::-1])[::-1][:P]
        src = nxt % P
        t = (nxt - np.arange(P)).astype(np.uint64)
        return np.where(filled, regs, regs[src] + t)

    a = registers("the quick brown fox jumps over the lazy dog")
    b = registers("the quick brown fox jumps over the lazy dog")
    c = registers("zzzzyyyyxxxxwwwwvvvvuuuuttttssss")
    assert (a == b).all()
    assert (a == c).sum() < P // 4


def test_hyperminhash_matches_duckdb(ray_session):
    import duckdb
    from p2pddsketch_ray.pipelines.approx import (HYPERMINHASH_SQL,
                                                  hyperminhash_type_jaccard)
    sf = "/root/testdata/sf0.001"
    got = hyperminhash_type_jaccard(sf).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    want = con.execute(HYPERMINHASH_SQL).df()
    assert len(got) == len(want) > 0
    for c in ("matches", "est_jaccard_ppm", "exact_jaccard_ppm"):
        assert got[c].astype("int64").tolist() \
            == want[c].astype("int64").tolist(), c
    assert got["type_a"].tolist() == want["type_a"].tolist()
    # identical sets must estimate exactly 1.0 even though the 256
    # buckets are undersaturated (the sparse-denominator regression)
    full = got[got["exact_jaccard_ppm"] == 1_000_000]
    assert (full["est_jaccard_ppm"] == 1_000_000).all()


def test_hyperminhash_register_estimator_tracks_jaccard():
    # pure-kernel check on synthetic sets with known Jaccard: encode
    # registers exactly as the pipeline does, estimate, compare
    import numpy as np
    from p2pddsketch_ray.hashing import murmur64

    R = 1024

    def sketch(users: np.ndarray) -> np.ndarray:
        h = murmur64(users.astype(np.int64))
        idx = (h >> np.uint64(56)).astype(np.int64)
        w = (h & np.uint64((1 << 52) - 1)).astype(np.int64)
        nz = w > 0
        e = np.zeros(w.size, dtype=np.int64)
        e[nz] = np.floor(np.log2(w[nz].astype(np.float64))).astype(
            np.int64)
        msb = np.int64(1) << e
        d = np.where(nz, (e + 1) * R + (w - msb) * R // msb,
                     np.int64(0))
        regs = np.full(256, np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(regs, idx, d)
        regs[regs == np.iinfo(np.int64).max] = -1
        return regs

    def est(a, b):
        da, db = sketch(a), sketch(b)
        m = int(((da == db) & (da >= 0) & (db >= 0)).sum())
        occ = int(((da >= 0) | (db >= 0)).sum())
        return m / occ

    base = np.arange(1, 20_001)
    assert est(base, base) == 1.0
    half = est(base, np.arange(10_001, 30_001))        # J = 1/3
    assert abs(half - 1 / 3) < 0.12, half
    disj = est(base, np.arange(50_001, 70_001))        # J = 0
    assert disj < 0.02, disj


def test_priority_sample_by_segment_matches_duckdb(ray_session):
    import duckdb
    from p2pddsketch_ray.pipelines.approx import (
        PRIORITY_SAMPLE_BY_SEG_SQL, priority_sample_by_segment)
    sf = "/root/testdata/sf0.001"
    got = priority_sample_by_segment(sf).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW orders AS SELECT * FROM "
                f"read_parquet('{sf}/orders.parquet')")
    want = con.execute(PRIORITY_SAMPLE_BY_SEG_SQL).df()
    assert len(got) == len(want)
    for c in ("n_sampled", "tau", "est_cents", "exact_cents",
              "err_ppm"):
        assert got[c].astype("int64").tolist() \
            == want[c].astype("int64").tolist(), c
    # every segment draws its own k-sample with its own threshold
    assert (got["n_sampled"] <= 60).all()
    assert (got["tau"] >= 0).all()


def test_priority_sample_err_ppm_zero_exact_is_zero_without_warning():
    from p2pddsketch_ray.pipelines.approx import _err_ppm
    est = np.array([0, 7, 1_000_500, 999_999], dtype=np.int64)
    exact = np.array([0, 0, 1_000_000, 1_000_000], dtype=np.int64)
    with np.errstate(all="raise"):                 # a divide warning fails
        got = _err_ppm(est, exact)
    assert got.dtype == np.int64
    assert got.tolist() == [0, 0, 500, 1]


def test_dgim_sql_twin_matches_simulation(ray_session):
    # the closed-form SQL replica and the Ray rebuild must agree with a
    # literal single-stream DGIM simulation (two buckets per size,
    # merge-two-oldest-on-third) on the bucket inventory
    import duckdb
    from p2pddsketch_ray.pipelines.sliding import (DGIM_SLIDING_SQL,
                                                   dgim_sliding_count)
    sf = "/root/testdata/sf0.001"
    got = dgim_sliding_count(sf).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    want = con.execute(DGIM_SLIDING_SQL).df()
    assert got["dgim_estimate"].tolist() \
        == want["dgim_estimate"].astype("int64").tolist()
    assert got["n_buckets"].tolist() \
        == want["n_buckets"].astype("int64").tolist()
    assert got["exact_count"].tolist() \
        == want["exact_count"].astype("int64").tolist()
    assert want["bound_ok"].all()


def test_dgim_by_type_matches_duckdb(ray_session):
    import duckdb
    from p2pddsketch_ray.pipelines.sliding import (
        DGIM_BY_TYPE_SQL, dgim_sliding_count_by_type)
    sf = "/root/testdata/sf0.001"
    got = (dgim_sliding_count_by_type(sf).to_pandas()
           .sort_values(["event_type", "window_hours"],
                        ignore_index=True))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    want = con.execute(DGIM_BY_TYPE_SQL).df()
    assert got["event_type"].tolist() == want["event_type"].tolist()
    for c in ("window_hours", "n_buckets", "dgim_estimate",
              "exact_count"):
        assert got[c].tolist() == want[c].astype("int64").tolist(), c
    # per-type state stays logarithmic
    assert (got["n_buckets"] <= 64).all()


def test_cms_sliding_by_type_matches_duckdb(ray_session):
    import duckdb
    from p2pddsketch_ray.pipelines.sliding import (
        CMS_BY_TYPE_SQL, cms_sliding_user_est_by_type)
    sf = "/root/testdata/sf0.001"
    got = (cms_sliding_user_est_by_type(sf).to_pandas()
           .sort_values(["event_type", "window_start", "user_id"],
                        ignore_index=True))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    want = con.execute(CMS_BY_TYPE_SQL).df()
    assert len(got) == len(want)
    for c in got.columns:
        assert (got[c].to_numpy() == want[c].to_numpy()).all(), c
    # CMS one-sided error: estimates never undercount -- each type's
    # top user appears at least once with a positive windowed count
    assert (got.groupby("event_type")["est_count"].max() > 0).all()


def test_dds_decayed_value_matches_duckdb_and_decay_semantics(
        ray_session, tmp_path):
    import duckdb
    import pyarrow.parquet as pq
    from p2pddsketch_ray.pipelines.sliding import dds_decayed_value

    # oracle parity at sf0.001 through the registry SQL
    import __ray_entry__ as e
    sql = e.oracle_sql()["dds_decayed_value"]
    sf = "/root/testdata/sf0.001"
    got = dds_decayed_value(sf).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    want = (con.execute(sql).df().sort_values("q")
            .reset_index(drop=True))
    got = got.sort_values("q").reset_index(drop=True)
    assert got["bucket_key"].tolist() \
        == want["bucket_key"].astype("int64").tolist()
    assert got["est"].tolist() == want["est"].tolist()

    # decay semantics: recent half of the stream dominates -- with old
    # events at value 1 and recent at value 1000 separated by many
    # half-lives, the decayed median is the RECENT value
    us = 3_600_000_000
    n = 200
    ts = ([i * us for i in range(n)]                 # old, value 1
          + [1000 * us + i * us for i in range(n)])  # recent, value 1000
    vals = [1.0] * n + [1000.0] * n
    pq.write_table(pa.table({
        "event_id": pa.array(range(2 * n), type=pa.int64()),
        "ts": pa.array(ts, type=pa.int64()).cast(pa.timestamp("us")),
        "user_id": pa.array([0] * (2 * n), type=pa.int64()),
        "event_type": pa.array(["click"] * (2 * n)),
        "value": pa.array(vals),
        "props": pa.array([""] * (2 * n)),
    }), str(tmp_path / "events.parquet"))
    out = dds_decayed_value(str(tmp_path)).to_pandas()
    med = out[out["q"] == 0.5]["est"].iloc[0]
    assert abs(med - 1000.0) / 1000.0 < 0.05, med
