"""``combine_agg`` (per-batch Arrow combiner, keyed exchange, one merge per
exchanged table) against one ``pa.Table.group_by`` over the whole input,
on both exchange paths (one task, sort shuffle)."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from p2pddsketch_ray.stages.combine import combine_agg

from .test_pipelines import SF

AGGS = [("i", "sum"), ("i", "count"), ("i", "min"), ("i", "max"),
        ("f", "sum"), ("f", "min"), ("f", "max"),
        ("u", "min"), ("u", "max"), ("u", "count")]


@pytest.fixture(scope="module")
def table():
    rng = np.random.default_rng(8)
    n = 3000
    ints = rng.integers(-10**12, 10**12, n)
    return pa.table({
        "s": rng.choice(["en", "de", "zh", "é", ""], n),
        "k": rng.integers(0, 40, n),
        # a null value must still count as a row
        "i": pa.array(ints, mask=rng.random(n) < 0.1),
        # quarters sum exactly in any order
        "f": rng.integers(-4000, 4000, n) / 4.0,
        # order keys of positive floats, all >= 2^63
        "u": pa.array(rng.integers(0, 2**62, n).astype(np.uint64)
                      + np.uint64(2**63), type=pa.uint64()),
    })


def expected(table, keys, aggs):
    out = table.group_by(keys, use_threads=False).aggregate(
        [(c, fn, pc.CountOptions(mode="all")) if fn == "count" else (c, fn)
         for c, fn in aggs])
    return out.select(keys + [f"{c}_{fn}" for c, fn in aggs])


def run(table, keys, aggs, blocks):
    import ray.data
    ds = ray.data.from_arrow(table).repartition(blocks)
    return combine_agg(ds, keys, lambda t: t, aggs,
                       lambda t: t).to_arrow_refs()


def gathered(refs):
    """The output's non-empty blocks in output order."""
    import ray
    return pa.concat_tables(t for t in ray.get(refs) if t.num_rows)


@pytest.mark.parametrize("blocks", [1, 5, 12])
@pytest.mark.parametrize("keys", [["s"], ["k"], ["s", "k"], []], ids=str)
def test_combine_agg_equals_one_group_by(ray_session, exchange_path, table,
                                         keys, blocks):
    """Both exchange paths give the rows in ascending key order."""
    got = gathered(run(table, keys, AGGS, blocks))
    want = expected(table, keys, AGGS)
    if keys:
        want = want.sort_by([(k, "ascending") for k in keys])
    assert got.schema == want.schema
    assert got.to_pydict() == want.to_pydict()
    assert got["u_min"].type == pa.uint64()
    assert pc.sum(got["i_count"]).as_py() == table.num_rows


def test_combine_agg_finalize_per_block(ray_session, exchange_path, table):
    """finalize sees each key once, with the merged columns named
    {column}_{fn}."""
    import ray.data
    ds = ray.data.from_arrow(table).repartition(7)
    got = combine_agg(
        ds, ["k"], lambda t: t.select(["k", "f"]), [("f", "count")],
        lambda t: pa.table({"k": t["k"], "n": t["f_count"]})).to_pandas()
    assert got["k"].is_unique
    assert dict(zip(got["k"], got["n"])) == {
        int(k): int(n) for k, n in zip(*np.unique(table["k"].to_numpy(),
                                                   return_counts=True))}


def test_null_int_keys_form_one_group(ray_session, exchange_path):
    """The null group comes last on both exchange paths."""
    rng = np.random.default_rng(2)
    n = 2000
    k = rng.integers(0, 5, n)
    t = pa.table({"k": pa.array(k, mask=rng.random(n) < 0.2),
                  "x": np.ones(n, dtype=np.int64)})
    got = gathered(run(t, ["k"], [("x", "sum")], 9))
    want = expected(t, ["k"], [("x", "sum")]).sort_by("k")
    assert got.to_pydict() == want.to_pydict()
    assert got["k"].null_count == 1 and got["k"][-1].as_py() is None


def test_null_string_keys_raise(ray_session):
    t = pa.table({"s": ["a", None, "b", None], "x": [1, 2, 3, 4]})
    with pytest.raises(Exception, match="key column 's'.*has nulls"):
        gathered(run(t, ["s"], [("x", "sum")], 2))


def test_unknown_aggregate_raises():
    with pytest.raises(ValueError, match="unknown aggregate"):
        combine_agg(None, ["k"], lambda t: t, [("x", "mean")], lambda t: t)


@pytest.mark.parametrize("keys", [["s"], ["s", "k"], []], ids=str)
def test_empty_input(ray_session, exchange_path, table, keys):
    """Every row dropped by prep: zero rows, with the schema of a
    non-empty output."""
    import ray
    import ray.data
    aggs = [("i", "sum"), ("i", "count"), ("u", "max")]
    ds = ray.data.from_arrow(table)
    full = combine_agg(ds, keys, lambda t: t, aggs, lambda t: t)
    out = combine_agg(ds, keys, lambda t: t.slice(0, 0), aggs, lambda t: t)
    want = pa.concat_tables(ray.get(full.to_arrow_refs())).schema
    assert want.names == keys + [f"{c}_{fn}" for c, fn in aggs]
    assert out.count() == 0
    assert out.schema().base_schema == want
    blocks = ray.get(out.to_arrow_refs())
    assert sum(b.num_rows for b in blocks) == 0
    assert [b.schema for b in blocks if b.num_columns] == [want]


def test_empty_input_unknown_schema(ray_session, table):
    """An input whose schema is only known by running it gives zero rows
    and runs nothing on the caller."""
    import ray.data
    ds = ray.data.from_arrow(table).map_batches(lambda t: t.slice(0, 0),
                                                batch_format="pyarrow")

    def prep(t):
        assert t.num_rows, "prep ran on the caller"
        return t

    assert combine_agg(ds, ["s"], prep, [("i", "sum")],
                       lambda t: t).count() == 0


# every registered query on combine_agg: the exact relational family,
# the exact quantile / rank-select queries over its stats, and every
# registered query whose grouped aggregate moved off Ray's
# groupby().aggregate()
MIGRATED = ["pricing_summary", "customer_nation_rollup",
            "events_hourly_window", "docs_by_lang", "distinct_user_count",
            "token_stats_by_lang", "quality_filter_by_lang", "top_users_exact",
            "lang_id_counts", "dedup_exact_docs", "dedup_exact_keep",
            "exact_quantiles_price", "exact_quantiles_by_flag",
            "weighted_median_by_flag", "dgim_sliding_count",
            "ab_test_arm_stats", "abc_classification", "acf_hourly_revenue",
            "active_user_counts", "activity_span_quantiles",
            "activity_streak_stats", "ams_f2_estimate", "association_rules",
            "audience_overlap_matrix", "benchmark_decontamination",
            "benford_digit_audit", "bigram_lm_by_lang", "bigram_lm_perplexity",
            "bloom_semijoin_orders", "bmp_decode_stats", "bootstrap_mean_ci",
            "bpe_pair_counts", "brand_year_revenue", "brier_decomposition",
            "bucketed_join_rollup", "capture_recapture_users",
            "cdc_chunk_stats", "centroid_distance_matrix",
            "changepoint_binary_split", "char_bigram_entropy_by_lang",
            "chunk_dedup_stats", "cmm_user_counts", "cms_error_report",
            "cms_join_size_estimate", "cms_sliding_by_type",
            "cms_sliding_user_est", "cochran_armitage_trend",
            "cohens_kappa_langid", "cohort_retention",
            "combined_daily_activity", "compact_small_files_stats",
            "conformal_coverage", "copresence_assortativity",
            "copresence_triangles", "copurchase_part_pairs",
            "countsketch_topk_confirm", "cross_source_dup_matrix",
            "cube_pricing", "cuped_adjusted_outcomes", "curated_corpus_stats",
            "customer_event_activity", "customer_frequency_spectrum",
            "customers_without_events", "cusum_hourly_alarms",
            "cvm_drift_binned", "daily_type_entropy",
            "day_pruned_window_stats", "debounced_event_counts",
            "decayed_type_popularity", "dedup_normalized_stats",
            "dgim_sliding_count_by_type", "dict_encoding_report",
            "diff_in_diff_report", "discount_by_qty_bucket",
            "distinct_users_per_type", "doc_novelty_stats",
            "docs_lang_source_pivot", "dp_noisy_counts",
            "dup_cluster_size_hist", "dup_span_stats", "eb_shrunk_user_rates",
            "embedding_covariance_topk", "embedding_gram_stats",
            "embedding_isotropy_report", "emd_drift_binned",
            "epoch_shuffle_stats", "equi_depth_buckets",
            "event_transition_matrix", "events_asof_orders",
            "events_hourly_gapfill", "events_nearest_order",
            "ewma_forecast_hourly", "fair_mass_by_source",
            "fano_dispersion_by_type", "feature_hashing_report",
            "feature_info_gain", "filter_threshold_grid", "fuzzy_props_pairs",
            "global_order_ranks", "gopher_rules_report",
            "gram_power_iteration", "grouped_regression_trend",
            "haar_energy_hourly", "hapax_ratio_by_source", "hhh_type_user",
            "hhi_source_concentration", "hodges_lehmann_shift",
            "hour_entropy_by_type", "hourly_autocorrelation",
            "hourly_backfill_stats", "hourweek_profile",
            "huber_location_by_flag", "hyperminhash_type_jaccard",
            "impute_value_hourly", "incremental_daily_revenue",
            "incremental_dedup_stats", "inverted_index_lookup",
            "join_fanout_histogram", "jsonl_roundtrip_stats",
            "k_anonymity_audit", "kcore_part_graph", "km_user_survival",
            "kmeans_iter_stats", "knn_vote_confusion", "ks_drift_binned",
            "l_diversity_audit", "label_centroids", "lang_entropy_by_source",
            "lang_source_chi2", "lang_source_mi", "last_touch_attribution",
            "late_order_counts", "leadlag_xcorr", "learned_index_audit",
            "length_quality_corr", "length_token_copula_grid",
            "lexical_sophistication_by_source", "linear_counting_users",
            "lineitem_unpivot_stats", "local_supplier_volume",
            "loo_1nn_accuracy", "loo_target_encoding", "lorenz_deciles",
            "mann_kendall_trend", "mannwhitney_qty_flags",
            "markov_entropy_rate", "markov_next_accuracy",
            "markov_stationary_ppm", "matryoshka_truncation_hist",
            "median_of_means_value", "mg_heavy_users",
            "minhash_blocking_report", "minhash_neardup_docs",
            "mix_anomaly_hours", "model_score_stats", "moment_shape_by_type",
            "monthly_seasonal_index", "multimodal_doc_features",
            "multimodal_frame_sample", "multimodal_resize_stats",
            "nation_share_of_region", "ndcg_retrieval_eval",
            "neardup_components", "neardup_keep_best_quality",
            "neardup_keep_stats", "nearest_centroid_confusion",
            "negative_sampling_audit", "new_vs_returning_daily",
            "ngram_jaccard_pairs", "ooo_lateness_stats", "order_aging_report",
            "orders_asof_next_event", "orders_customer_join_agg",
            "orders_event_window_stats", "pagerank_part_supplier",
            "part_rank_movers", "peak_concurrency_stats",
            "percentile_norm_by_source", "pinball_eval_hourly",
            "pmi_bigrams_topk", "poisson_surprise_hours", "postings_gap_stats",
            "ppm_resize_checksum", "pq_encode_stats",
            "prefix_autocomplete_topk", "price_endings_report",
            "priority_mix_by_year", "props_extract_stats", "props_vocab_drift",
            "psi_drift_binned", "quantile_prune_docs", "rake_keywords_topk",
            "ratio_metric_delta", "redact_props_stats",
            "rendezvous_shard_stats", "repetition_stats_by_lang",
            "resurrected_users_daily", "retry_storm_stats",
            "returned_revenue_top_customers", "returns_rate_by_brand",
            "revenue_gini", "revenue_topshare", "rfm_segments",
            "rolling_extrema_hourly", "runs_test_hourly", "salted_join_rollup",
            "sampled_events_by_type", "sax_motif_counts",
            "scd2_snapshot_counts", "schema_evolution_read_stats",
            "score_lift_report", "seasonal_naive_mae",
            "segment_priority_cramers_v", "session_copresence_counts",
            "session_depth_survival", "session_entry_types",
            "simpsons_flip_report", "sketch_cdf_by_type",
            "sliding_anomaly_counts", "source_similarity_matrix",
            "source_vocab_overlap", "spearman_hourly_corr",
            "split_assign_stats", "stratified_allocation_plan",
            "supplier_region_rollup", "t_closeness_audit",
            "table_profile_sketched", "temperature_mix_weights",
            "template_prefix_clusters", "tfidf_top_term_per_doc",
            "theilsen_daily_trend", "tokenizer_fertility_by_lang",
            "top_duplicated_docs", "top_session_paths", "top_tokens_by_lang",
            "tpch_q11_important_parts", "tpch_q12_priority_by_status",
            "tpch_q13_custdist", "tpch_q15_top_supplier",
            "tpch_q16_parts_supplier_census", "tpch_q17_small_qty_revenue",
            "tpch_q21_waiting_supplier", "tpch_q4_priority_counts",
            "tpch_q8_market_share", "tpch_q9_product_profit",
            "trailing_distinct_users", "trailing_top_user_hourly",
            "tukey_outlier_counts", "unigram_logprob_stats",
            "universe_join_sample", "upsert_compaction",
            "user_activity_quartiles", "user_churn_sets",
            "user_event_lag_stats", "validation_report",
            "value_histogram_by_type", "value_hour_sufficient_stats",
            "vocab_coverage_curve", "vocab_growth_curve",
            "watermark_lateness_curve", "wav_decode_stats",
            "weekday_pattern_census", "weekend_share_by_priority",
            "weekly_arpu", "weekly_revenue_wow", "weight_ess_report",
            "wilson_lb_types", "winnow_fingerprint_stats",
            "youden_threshold_scan", "zipf_slope_tokens",
            "zonemap_pruning_audit", "zscore_outlier_counts"]


@pytest.fixture(scope="module")
def oracle():
    import duckdb

    import __ray_entry__ as E
    from tools.check_oracle import TABLES
    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * "
                    f"FROM read_parquet('{SF}/{t}.parquet')")
    yield E.queries(), E.oracle_sql(), con
    con.close()


@pytest.mark.parametrize("name", MIGRATED)
def test_migrated_query_matches_duckdb(ray_session, oracle, monkeypatch,
                                       name):
    """Each query matches its DuckDB twin without any keyed Ray
    ``groupby().aggregate()``: scalar ``Dataset.aggregate`` (a grouping
    by None) and ``map_groups`` still pass."""
    from ray.data.grouped_data import GroupedData

    from tools.check_oracle import compare, to_pandas
    aggregate = GroupedData.aggregate

    def scalar_only(self, *aggs):
        assert self._key is None, f"keyed Ray aggregate by {self._key}"
        return aggregate(self, *aggs)

    monkeypatch.setattr(GroupedData, "aggregate", scalar_only)
    queries, sql, con = oracle
    got = to_pandas(queries[name](SF))
    assert len(got)
    assert compare(name, got, con.execute(sql[name]).df()) == []


@pytest.fixture(scope="module")
def sf_dirs(tmp_path_factory):
    """sf0.001 scaled x2 by tools/gen_sf: each table a directory of
    part-N.parquet files, and DuckDB views over those files."""
    import duckdb

    from tools.check_oracle import TABLES
    from tools.gen_sf import generate
    out = str(tmp_path_factory.mktemp("sf_x2"))
    generate(2, SF, out)
    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * "
                    f"FROM read_parquet('{out}/{t}.parquet/*.parquet')")
    yield out, con
    con.close()


@pytest.mark.parametrize("name", ["pricing_summary", "events_hourly_window",
                                  "token_stats_by_lang", "dedup_exact_docs",
                                  "returned_revenue_top_customers"])
def test_query_on_directory_tables(ray_session, sf_dirs, name):
    """The bench's scaled runs read tables laid out as directories."""
    import __ray_entry__ as E
    from tools.check_oracle import compare, to_pandas
    out, con = sf_dirs
    got = to_pandas(E.queries()[name](out))
    assert len(got)
    assert compare(name, got, con.execute(E.oracle_sql()[name]).df()) == []


def test_oracle_to_pandas_keeps_columns_of_typed_zero_row_dataset(
        ray_session):
    """Ray's Dataset.to_pandas() drops the columns of zero-row blocks; the
    oracle's frame takes them from the Dataset's schema."""
    import ray.data

    from tools.check_oracle import to_pandas
    empty = pa.table({"lang": pa.array([], pa.string()),
                      "n": pa.array([], pa.int64())})
    df = to_pandas(ray.data.from_arrow(empty))
    assert df.columns.tolist() == ["lang", "n"]
    assert df.dtypes.tolist() == [object, np.int64] and len(df) == 0
    assert to_pandas(ray.data.from_arrow(pa.table({"n": [3]}))
                     )["n"].tolist() == [3]
