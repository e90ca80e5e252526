"""Driver contract for the graft builder (Ray Data target).

The driver's verify calls ``entry()`` as a smoke check (Ray is already
initialised, local mode), runs each ``queries()[name](sf_dir)`` at
sf=0.01 and compares it against the matching ``oracle_sql()[name]`` via
DuckDB (row-count + schema + order-insensitive value-hash).

Ray is initialised by the driver BEFORE this module is imported: nothing
here (nor in p2pddsketch_ray library code) calls ray.init()/ray.shutdown().

Determinism notes for the value-hash compare (see pipelines/relational.py):
floating aggregates are accumulated as integers ("cents trick"), ratios are
emitted as exact integer divisions with the same op order as the SQL, and
the DDSketch estimates are replicated in SQL by re-deriving the exact
bucket math (ceil(ln x / ln gamma) keys, cumulative walk, geometric
midpoint) -- numpy and DuckDB produce bit-identical bucket keys (verified
in tests/test_oracle_parity.py).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from p2pddsketch_ray.pipelines.knn import (  # noqa: E402
    RECIPROCAL_NN_SQL as _RECIPROCAL_NN_SQL,
    matryoshka_truncation_hist as _matryoshka_truncation_hist,
    MATRYOSHKA_HIST_SQL as _MATRYOSHKA_HIST_SQL,
    centroid_distance_matrix as _centroid_distance_matrix,
    CENTROID_DISTANCE_SQL as _CENTROID_DISTANCE_SQL,
    loo_1nn_accuracy as _loo_1nn_accuracy,
    LOO_1NN_SQL as _LOO_1NN_SQL)
from p2pddsketch_ray.pipelines.dedup import (  # noqa: E402
    SORTED_NEIGHBORHOOD_SQL as _SORTED_NEIGHBORHOOD_SQL,
    LEVENSHTEIN_VERIFY_SQL as _LEVENSHTEIN_VERIFY_SQL,
    ppjoin_pairs as _ppjoin_pairs,
    PPJOIN_PAIRS_SQL as _PPJOIN_PAIRS_SQL)

OFFSET = 1073741824  # 2^30, the reference default (main.cpp:49)
ALPHA = 0.01         # practical tier: key span << bin_limit, no collapse
BIN_LIMIT = 2048     # roomy so the SQL replica needs no collapse emulation
GAMMA_SQL = "((1.0+0.01)/(1.0-0.01))"

from p2pddsketch_ray.pipelines.temporal import (  # noqa: E402
    INTERVAL_COVERAGE_SQL as _INTERVAL_COVERAGE_SQL,
    user_interval_coverage as _user_interval_coverage,
    EVENTS_ASOF_ORDERS_SQL as _EVENTS_ASOF_ORDERS_SQL,
    ORDERS_ASOF_NEXT_SQL as _ORDERS_ASOF_NEXT_SQL,
    TRAILING_TOP_USER_SQL as _TRAILING_TOP_USER_SQL,
    DEBOUNCE_SQL as _DEBOUNCE_SQL,
    VALUE_OHLC_SQL as _VALUE_OHLC_SQL,
    ORDERS_EVENT_WINDOW_SQL as _ORDERS_EVENT_WINDOW_SQL,
    USER_EVENT_LAG_SQL as _USER_EVENT_LAG_SQL,
    EVENTS_NEAREST_ORDER_SQL as _EVENTS_NEAREST_ORDER_SQL,
    SCD2_SNAPSHOT_SQL as _SCD2_SNAPSHOT_SQL,
    USER_RUNNING_TOTALS_SQL as _USER_RUNNING_TOTALS_SQL,
    USER_MOVING_WINDOW_SQL as _USER_MOVING_WINDOW_SQL,
    USER_EVENT_SEQUENCES_SQL as _USER_EVENT_SEQUENCES_SQL,
    FUNNEL_COUNTS_SQL as _FUNNEL_COUNTS_SQL,
    COHORT_RETENTION_SQL as _COHORT_RETENTION_SQL,
    ACTIVE_USER_COUNTS_SQL as _ACTIVE_USER_COUNTS_SQL,
    EVENT_TRANSITION_SQL as _EVENT_TRANSITION_SQL,
    PEAK_CONCURRENCY_SQL as _PEAK_CONCURRENCY_SQL,
    SESSION_COPRESENCE_SQL as _SESSION_COPRESENCE_SQL,
    USER_TWA_SQL as _USER_TWA_SQL,
    HOURLY_BACKFILL_SQL as _HOURLY_BACKFILL_SQL,
    IMPUTE_VALUE_SQL as _IMPUTE_VALUE_SQL,
    SCD2_STATE_HISTORY_SQL as _SCD2_STATE_HISTORY_SQL,
    scd2_state_history as _scd2_state_history,
    LAST_TOUCH_SQL as _LAST_TOUCH_SQL,
    last_touch_attribution as _last_touch_attribution,
    MARKOV_STATIONARY_SQL as _MARKOV_STATIONARY_SQL,
    markov_stationary_ppm as _markov_stationary_ppm,
    markov_entropy_rate as _markov_entropy_rate,
    MARKOV_ENTROPY_SQL as _MARKOV_ENTROPY_SQL,
    ewma_forecast_hourly as _ewma_forecast_hourly,
    EWMA_FORECAST_SQL as _EWMA_FORECAST_SQL,
    theil_sen_trend_by_type as _theil_sen_trend_by_type,
    THEIL_SEN_SQL as _THEIL_SEN_SQL,
    km_user_survival as _km_user_survival,
    KM_SURVIVAL_SQL as _KM_SURVIVAL_SQL,
    acf_hourly_revenue as _acf_hourly_revenue,
    ACF_HOURLY_SQL as _ACF_HOURLY_SQL,
    funnel_windowed_counts as _funnel_windowed_counts,
    FUNNEL_WINDOWED_SQL as _FUNNEL_WINDOWED_SQL,
    leadlag_xcorr as _leadlag_xcorr,
    LEADLAG_XCORR_SQL as _LEADLAG_XCORR_SQL,
    retry_storm_stats as _retry_storm_stats,
    RETRY_STORM_SQL as _RETRY_STORM_SQL,
    slo_burn_report as _slo_burn_report,
    SLO_BURN_SQL as _SLO_BURN_SQL,
    watermark_lateness_curve as _watermark_lateness_curve,
    WATERMARK_CURVE_SQL as _WATERMARK_CURVE_SQL,
    metronome_bot_report as _metronome_bot_report,
    METRONOME_BOT_SQL as _METRONOME_BOT_SQL,
    session_depth_survival as _session_depth_survival,
    SESSION_DEPTH_SQL as _SESSION_DEPTH_SQL,
    trailing_distinct_users as _trailing_distinct_users,
    TRAILING_DISTINCT_SQL as _TRAILING_DISTINCT_SQL,
    late_order_counts as _late_order_counts,
    LATE_ORDER_SQL as _LATE_ORDER_SQL,
    new_vs_returning_daily as _new_vs_returning_daily,
    NEW_VS_RETURNING_SQL as _NEW_VS_RETURNING_SQL,
    resurrected_users_daily as _resurrected_users_daily,
    RESURRECTED_SQL as _RESURRECTED_SQL,
    weekly_arpu as _weekly_arpu,
    WEEKLY_ARPU_SQL as _WEEKLY_ARPU_SQL,
    PROPS_VOCAB_DRIFT_SQL as _PROPS_VOCAB_DRIFT_SQL,
    props_vocab_drift as _props_vocab_drift,
    ooo_lateness_stats as _ooo_lateness_stats,
    OOO_LATENESS_SQL as _OOO_LATENESS_SQL,
    markov_next_accuracy as _markov_next_accuracy,
    MARKOV_NEXT_ACC_SQL as _MARKOV_NEXT_ACC_SQL)
from p2pddsketch_ray.pipelines.quantiles import (  # noqa: E402
    WEIGHTED_MEDIAN_SQL as _WEIGHTED_MEDIAN_SQL)
from p2pddsketch_ray.pipelines.approx import (  # noqa: E402
    MG_HEAVY_USERS_SQL as _MG_HEAVY_USERS_SQL,
    JOIN_SIZE_ESTIMATE_SQL as _JOIN_SIZE_ESTIMATE_SQL,
    join_size_estimate as _join_size_estimate,
    bloom_fpr_audit as _bloom_fpr_audit,
    BLOOM_FPR_SQL as _BLOOM_FPR_SQL,
    linear_counting_users as _linear_counting_users,
    LINEAR_COUNTING_SQL as _LINEAR_COUNTING_SQL,
    counting_bloom_delete_audit as _counting_bloom_delete_audit,
    COUNTING_BLOOM_SQL as _COUNTING_BLOOM_SQL,
    bloom_partition_pruning_audit as _bloom_partition_pruning_audit,
    BLOOM_PRUNING_SQL as _BLOOM_PRUNING_SQL,
    cms_error_report as _cms_error_report,
    CMS_ERROR_SQL as _CMS_ERROR_SQL,
    KMV_ANOTB_SQL as _KMV_ANOTB_SQL,
    table_profile_sketched as _table_profile_sketched,
    TABLE_PROFILE_SQL as _TABLE_PROFILE_SQL,
    cms_weighted_revenue as _cms_weighted_revenue,
    CMS_WEIGHTED_SQL as _CMS_WEIGHTED_SQL)
from p2pddsketch_ray.pipelines.relational import (  # noqa: E402
    REPETITION_STATS_SQL as _REPETITION_STATS_SQL,
    TOKEN_EXPLODE_SQL as _TOKEN_EXPLODE_SQL,
    LINEITEM_UNPIVOT_SQL as _LINEITEM_UNPIVOT_SQL,
    SPLIT_ASSIGN_SQL as _SPLIT_ASSIGN_SQL,
    EQUI_DEPTH_SQL as _EQUI_DEPTH_SQL,
    SOURCE_VOCAB_OVERLAP_SQL as _SOURCE_VOCAB_OVERLAP_SQL,
    STRATIFIED_SAMPLE_SQL as _STRATIFIED_SAMPLE_SQL,
    CORPUS_QUOTA_SQL as _CORPUS_QUOTA_SQL,
    corpus_quota_sample as _corpus_quota_sample,
    PQ_ENCODE_SQL as _PQ_ENCODE_SQL,
    pq_encode_stats as _pq_encode_stats,
    HYBRID_RRF_SQL as _HYBRID_RRF_SQL,
    hybrid_rrf_topk as _hybrid_rrf_topk,
    KMEANS_ITER_SQL as _KMEANS_ITER_SQL,
    kmeans_iter_stats as _kmeans_iter_stats,
    LOO_TARGET_ENCODING_SQL as _LOO_TARGET_ENCODING_SQL,
    loo_target_encoding as _loo_target_encoding,
    KNN_VOTE_SQL as _KNN_VOTE_SQL,
    knn_vote_confusion as _knn_vote_confusion,
    LSH_ANN_SQL as _LSH_ANN_SQL,
    lsh_ann_topk as _lsh_ann_topk,
    LANG_SOURCE_MI_SQL as _LANG_SOURCE_MI_SQL,
    lang_source_mi as _lang_source_mi,
    RENDEZVOUS_SHARD_SQL as _RENDEZVOUS_SHARD_SQL,
    rendezvous_shard_stats as _rendezvous_shard_stats,
    ZORDER_LAYOUT_SQL as _ZORDER_LAYOUT_SQL,
    zorder_layout_stats as _zorder_layout_stats,
    DECAYED_POPULARITY_SQL as _DECAYED_POPULARITY_SQL,
    decayed_type_popularity as _decayed_type_popularity,
    SCHEMA_EVOLUTION_SQL as _SCHEMA_EVOLUTION_SQL,
    schema_evolution_read_stats as _schema_evolution_read_stats,
    SEASONAL_NAIVE_MAE_SQL as _SEASONAL_NAIVE_MAE_SQL,
    seasonal_naive_mae as _seasonal_naive_mae,
    AB_TEST_ARM_SQL as _AB_TEST_ARM_SQL,
    ab_test_arm_stats as _ab_test_arm_stats,
    ACTIVITY_STREAK_SQL as _ACTIVITY_STREAK_SQL,
    activity_streak_stats as _activity_streak_stats,
    PREFIX_AUTOCOMPLETE_SQL as _PREFIX_AUTOCOMPLETE_SQL,
    prefix_autocomplete_topk as _prefix_autocomplete_topk,
    LOCAL_SUPPLIER_VOLUME_SQL as _LOCAL_SUPPLIER_VOLUME_SQL,
    local_supplier_volume as _local_supplier_volume,
    REVENUE_GINI_SQL as _REVENUE_GINI_SQL,
    revenue_gini as _revenue_gini,
    TOP_SESSION_PATHS_SQL as _TOP_SESSION_PATHS_SQL,
    top_session_paths as _top_session_paths,
    EMBEDDING_GRAM_SQL as _EMBEDDING_GRAM_SQL,
    embedding_gram_stats as _embedding_gram_stats,
    GRAM_POWER_ITERATION_SQL as _GRAM_POWER_ITERATION_SQL,
    gram_power_iteration as _gram_power_iteration,
    SORTED_EXPORT_SQL as _SORTED_EXPORT_SQL,
    sorted_export_stats as _sorted_export_stats,
    BPE_PAIR_SQL as _BPE_PAIR_SQL,
    bpe_pair_counts as _bpe_pair_counts,
    DEDUP_NORMALIZED_SQL as _DEDUP_NORMALIZED_SQL,
    dedup_normalized_stats as _dedup_normalized_stats,
    JSONL_ROUNDTRIP_SQL as _JSONL_ROUNDTRIP_SQL,
    jsonl_roundtrip_stats as _jsonl_roundtrip_stats,
    STRATIFIED_ALLOCATION_SQL as _STRATIFIED_ALLOCATION_SQL,
    stratified_allocation_plan as _stratified_allocation_plan,
    BM25_TOPK_SQL as _BM25_TOPK_SQL,
    bm25_topk as _bm25_topk,
    FEATURE_HASHING_SQL as _FEATURE_HASHING_SQL,
    feature_hashing_report as _feature_hashing_report,
    DOC_LENGTH_HILL_SQL as _DOC_LENGTH_HILL_SQL,
    doc_length_hill as _doc_length_hill,
    SPLIT_USER_COVERAGE_SQL as _SPLIT_USER_COVERAGE_SQL,
    split_user_coverage as _split_user_coverage,
    TUKEY_OUTLIER_SQL as _TUKEY_OUTLIER_SQL,
    tukey_outlier_counts as _tukey_outlier_counts,
    BENFORD_DIGIT_SQL as _BENFORD_DIGIT_SQL,
    benford_digit_audit as _benford_digit_audit,
    CUSTOMER_FREQUENCY_SPECTRUM_SQL as _CUSTOMER_FREQUENCY_SPECTRUM_SQL,
    SPEARMAN_HOURLY_SQL as _SPEARMAN_HOURLY_SQL,
    spearman_hourly_corr as _spearman_hourly_corr,
    KS_DRIFT_SQL as _KS_DRIFT_SQL,
    ks_drift_binned as _ks_drift_binned,
    KM_SURVIVAL_SQL as _KM_SURVIVAL_SQL,
    km_user_survival as _km_user_survival,
    THEILSEN_TREND_SQL as _THEILSEN_TREND_SQL,
    theilsen_daily_trend as _theilsen_daily_trend,
    MOMENT_SHAPE_SQL as _MOMENT_SHAPE_SQL,
    moment_shape_by_type as _moment_shape_by_type,
    CUSUM_HOURLY_SQL as _CUSUM_HOURLY_SQL,
    cusum_hourly_alarms as _cusum_hourly_alarms,
    gopher_rules_report as _gopher_rules_report,
    VOCAB_GROWTH_SQL as _VOCAB_GROWTH_SQL,
    vocab_growth_curve as _vocab_growth_curve,
    FANO_DISPERSION_SQL as _FANO_DISPERSION_SQL,
    fano_dispersion_by_type as _fano_dispersion_by_type,
    HHI_SOURCE_SQL as _HHI_SOURCE_SQL,
    hhi_source_concentration as _hhi_source_concentration,
    EB_SHRUNK_SQL as _EB_SHRUNK_SQL,
    eb_shrunk_user_rates as _eb_shrunk_user_rates,
    TEMPERATURE_MIX_SQL as _TEMPERATURE_MIX_SQL,
    temperature_mix_weights as _temperature_mix_weights,
    fk_integrity_audit as _fk_integrity_audit,
    FK_INTEGRITY_SQL as _FK_INTEGRITY_SQL,
    fd_violation_audit as _fd_violation_audit,
    FD_VIOLATION_SQL as _FD_VIOLATION_SQL,
    char_bigram_entropy_by_lang as _char_bigram_entropy_by_lang,
    CHAR_BIGRAM_ENTROPY_SQL as _CHAR_BIGRAM_ENTROPY_SQL,
    tokenizer_fertility_by_lang as _tokenizer_fertility_by_lang,
    TOKENIZER_FERTILITY_SQL as _TOKENIZER_FERTILITY_SQL,
    join_fanout_histogram as _join_fanout_histogram,
    JOIN_FANOUT_SQL as _JOIN_FANOUT_SQL,
    dup_cluster_size_hist as _dup_cluster_size_hist,
    DUP_CLUSTER_SIZE_SQL as _DUP_CLUSTER_SIZE_SQL,
    source_similarity_matrix as _source_similarity_matrix,
    SOURCE_SIMILARITY_SQL as _SOURCE_SIMILARITY_SQL,
    pinball_eval_hourly as _pinball_eval_hourly,
    PINBALL_EVAL_SQL as _PINBALL_EVAL_SQL,
    postings_gap_stats as _postings_gap_stats,
    POSTINGS_GAP_SQL as _POSTINGS_GAP_SQL,
    changepoint_binary_split as _changepoint_binary_split,
    CHANGEPOINT_SQL as _CHANGEPOINT_SQL,
    association_rules as _association_rules,
    ASSOCIATION_RULES_SQL as _ASSOCIATION_RULES_SQL,
    length_quality_corr as _length_quality_corr,
    LENGTH_QUALITY_CORR_SQL as _LENGTH_QUALITY_CORR_SQL,
    value_quantile_bands_hourly as _value_quantile_bands_hourly,
    QUANTILE_BANDS_HOURLY_SQL as _QUANTILE_BANDS_HOURLY_SQL,
    hourly_autocorrelation as _hourly_autocorrelation,
    HOURLY_AUTOCORR_SQL as _HOURLY_AUTOCORR_SQL,
    k_anonymity_audit as _k_anonymity_audit,
    K_ANONYMITY_SQL as _K_ANONYMITY_SQL,
    cuped_adjusted_outcomes as _cuped_adjusted_outcomes,
    CUPED_SQL as _CUPED_SQL,
    filter_threshold_grid as _filter_threshold_grid,
    FILTER_GRID_SQL as _FILTER_GRID_SQL,
    rolling_extrema_hourly as _rolling_extrema_hourly,
    ROLLING_EXTREMA_SQL as _ROLLING_EXTREMA_SQL,
    revenue_topshare as _revenue_topshare,
    REVENUE_TOPSHARE_SQL as _REVENUE_TOPSHARE_SQL,
    emd_drift_binned as _emd_drift_binned,
    EMD_DRIFT_SQL as _EMD_DRIFT_SQL,
    mann_kendall_trend as _mann_kendall_trend,
    MANN_KENDALL_SQL as _MANN_KENDALL_SQL,
    mannwhitney_qty_flags as _mannwhitney_qty_flags,
    MANNWHITNEY_SQL as _MANNWHITNEY_SQL,
    wilson_lb_types as _wilson_lb_types,
    WILSON_LB_SQL as _WILSON_LB_SQL,
    ndcg_retrieval_eval as _ndcg_retrieval_eval,
    NDCG_EVAL_SQL as _NDCG_EVAL_SQL,
    conformal_coverage as _conformal_coverage,
    CONFORMAL_SQL as _CONFORMAL_SQL,
    rle_sort_benefit as _rle_sort_benefit,
    RLE_SORT_BENEFIT_SQL as _RLE_SORT_BENEFIT_SQL,
    order_lineitem_reconciliation as _order_lineitem_reconciliation,
    ORDER_RECONCILIATION_SQL as _ORDER_RECONCILIATION_SQL,
    zipf_slope_tokens as _zipf_slope_tokens,
    ZIPF_SLOPE_SQL as _ZIPF_SLOPE_SQL,
    filter_eval_prf as _filter_eval_prf,
    FILTER_EVAL_PRF_SQL as _FILTER_EVAL_PRF_SQL,
    cohens_kappa_langid as _cohens_kappa_langid,
    haar_energy_hourly as _haar_energy_hourly,
    haar_energy_sql as _haar_energy_sql,
    runs_test_hourly as _runs_test_hourly,
    RUNS_TEST_SQL as _RUNS_TEST_SQL,
    lorenz_deciles as _lorenz_deciles,
    LORENZ_DECILES_SQL as _LORENZ_DECILES_SQL,
    cross_source_dup_matrix as _cross_source_dup_matrix,
    CROSS_SOURCE_DUP_SQL as _CROSS_SOURCE_DUP_SQL,
    vocab_coverage_curve as _vocab_coverage_curve,
    VOCAB_COVERAGE_SQL as _VOCAB_COVERAGE_SQL,
    rfm_segments as _rfm_segments,
    RFM_SEGMENTS_SQL as _RFM_SEGMENTS_SQL,
    bootstrap_mean_ci as _bootstrap_mean_ci,
    BOOTSTRAP_MEAN_SQL as _BOOTSTRAP_MEAN_SQL,
    ams_f2_estimate as _ams_f2_estimate,
    AMS_F2_SQL as _AMS_F2_SQL,
    hapax_ratio_by_source as _hapax_ratio_by_source,
    HAPAX_RATIO_SQL as _HAPAX_RATIO_SQL,
    l_diversity_audit as _l_diversity_audit,
    L_DIVERSITY_SQL as _L_DIVERSITY_SQL,
    t_closeness_audit as _t_closeness_audit,
    T_CLOSENESS_SQL as _T_CLOSENESS_SQL,
    psi_drift_binned as _psi_drift_binned,
    PSI_DRIFT_SQL as _PSI_DRIFT_SQL,
    diff_in_diff_report as _diff_in_diff_report,
    DIFF_IN_DIFF_SQL as _DIFF_IN_DIFF_SQL,
    rake_keywords_topk as _rake_keywords_topk,
    RAKE_KEYWORDS_SQL as _RAKE_KEYWORDS_SQL,
    hodges_lehmann_shift as _hodges_lehmann_shift,
    HODGES_LEHMANN_SQL as _HODGES_LEHMANN_SQL,
    dict_encoding_report as _dict_encoding_report,
    DICT_ENCODING_SQL as _DICT_ENCODING_SQL,
    capture_recapture_users as _capture_recapture_users,
    CAPTURE_RECAPTURE_SQL as _CAPTURE_RECAPTURE_SQL,
    simpsons_flip_report as _simpsons_flip_report,
    SIMPSONS_FLIP_SQL as _SIMPSONS_FLIP_SQL,
    weekend_share_by_priority as _weekend_share_by_priority,
    WEEKEND_SHARE_SQL as _WEEKEND_SHARE_SQL,
    quantile_treatment_effect as _quantile_treatment_effect,
    QTE_SQL as _QTE_SQL,
    audience_overlap_matrix as _audience_overlap_matrix,
    AUDIENCE_OVERLAP_SQL as _AUDIENCE_OVERLAP_SQL,
    weight_ess_report as _weight_ess_report,
    WEIGHT_ESS_SQL as _WEIGHT_ESS_SQL,
    ratio_metric_delta as _ratio_metric_delta,
    RATIO_DELTA_SQL as _RATIO_DELTA_SQL,
    cochran_armitage_trend as _cochran_armitage_trend,
    COCHRAN_ARMITAGE_SQL as _COCHRAN_ARMITAGE_SQL,
    mcnemar_filters as _mcnemar_filters,
    MCNEMAR_SQL as _MCNEMAR_SQL,
    order_aging_report as _order_aging_report,
    ORDER_AGING_SQL as _ORDER_AGING_SQL,
    learned_index_audit as _learned_index_audit,
    LEARNED_INDEX_SQL as _LEARNED_INDEX_SQL,
    negative_sampling_audit as _negative_sampling_audit,
    NEGATIVE_SAMPLING_SQL as _NEGATIVE_SAMPLING_SQL,
    lang_entropy_by_source as _lang_entropy_by_source,
    LANG_ENTROPY_SQL as _LANG_ENTROPY_SQL,
    embedding_isotropy_report as _embedding_isotropy_report,
    EMBEDDING_ISOTROPY_SQL as _EMBEDDING_ISOTROPY_SQL,
    fair_mass_by_source as _fair_mass_by_source,
    FAIR_MASS_SQL as _FAIR_MASS_SQL,
    segment_priority_cramers_v as _segment_priority_cramers_v,
    SEGMENT_PRIORITY_CRAMERS_SQL as _SEGMENT_PRIORITY_CRAMERS_SQL,
    median_of_means_value as _median_of_means_value,
    MEDIAN_OF_MEANS_SQL as _MEDIAN_OF_MEANS_SQL,
    hourweek_profile as _hourweek_profile,
    HOURWEEK_PROFILE_SQL as _HOURWEEK_PROFILE_SQL,
    lexical_sophistication_by_source as _lexical_sophistication,
    LEXICAL_SOPHISTICATION_SQL as _LEXICAL_SOPHISTICATION_SQL,
    interorder_gap_median as _interorder_gap_median,
    INTERORDER_GAP_SQL as _INTERORDER_GAP_SQL,
    price_endings_report as _price_endings_report,
    PRICE_ENDINGS_SQL as _PRICE_ENDINGS_SQL,
    bigram_lm_perplexity as _bigram_lm_perplexity,
    BIGRAM_LM_SQL as _BIGRAM_LM_SQL,
    cvm_drift_binned as _cvm_drift_binned,
    CVM_DRIFT_SQL as _CVM_DRIFT_SQL,
    two_proportion_ztest as _two_proportion_ztest,
    TWO_PROPORTION_SQL as _TWO_PROPORTION_SQL,
    poisson_surprise_hours as _poisson_surprise_hours,
    POISSON_SURPRISE_SQL as _POISSON_SURPRISE_SQL,
    sax_motif_counts as _sax_motif_counts,
    SAX_MOTIF_SQL as _SAX_MOTIF_SQL,
    returns_rate_by_brand as _returns_rate_by_brand,
    RETURNS_RATE_SQL as _RETURNS_RATE_SQL,
    mix_anomaly_hours as _mix_anomaly_hours,
    MIX_ANOMALY_SQL as _MIX_ANOMALY_SQL,
    tpch_q3_topk as _tpch_q3_topk,
    TPCH_Q3_SQL as _TPCH_Q3_SQL,
    tpch_q6_revenue as _tpch_q6_revenue,
    TPCH_Q6_SQL as _TPCH_Q6_SQL,
)
from p2pddsketch_ray.pipelines.tpch import (  # noqa: E402
    tpch_q4_priority_counts as _tpch_q4_priority_counts,
    TPCH_Q4_SQL as _TPCH_Q4_SQL,
    tpch_q12_priority_by_status as _tpch_q12_priority_by_status,
    TPCH_Q12_SQL as _TPCH_Q12_SQL,
    tpch_q14_promo_share as _tpch_q14_promo_share,
    TPCH_Q14_SQL as _TPCH_Q14_SQL,
    tpch_q18_large_orders as _tpch_q18_large_orders,
    TPCH_Q18_SQL as _TPCH_Q18_SQL,
    tpch_q19_bracket_revenue as _tpch_q19_bracket_revenue,
    TPCH_Q19_SQL as _TPCH_Q19_SQL,
    tpch_q7_volume_shipping as _tpch_q7_volume_shipping,
    TPCH_Q7_SQL as _TPCH_Q7_SQL,
    tpch_q8_market_share as _tpch_q8_market_share,
    TPCH_Q8_SQL as _TPCH_Q8_SQL,
    tpch_q15_top_supplier as _tpch_q15_top_supplier,
    TPCH_Q15_SQL as _TPCH_Q15_SQL,
    tpch_q21_waiting_supplier as _tpch_q21_waiting_supplier,
    TPCH_Q21_SQL as _TPCH_Q21_SQL,
    tpch_q22_sales_opportunity as _tpch_q22_sales_opportunity,
    TPCH_Q22_SQL as _TPCH_Q22_SQL,
    tpch_q16_parts_supplier_census as _tpch_q16_parts_supplier_census,
    TPCH_Q16_SQL as _TPCH_Q16_SQL,
    tpch_q11_important_parts as _tpch_q11_important_parts,
    TPCH_Q11_SQL as _TPCH_Q11_SQL,
    tpch_q2_min_cost_supplier as _tpch_q2_min_cost_supplier,
    TPCH_Q2_SQL as _TPCH_Q2_SQL,
    tpch_q9_product_profit as _tpch_q9_product_profit,
    TPCH_Q9_SQL as _TPCH_Q9_SQL,
    tpch_q20_dominant_suppliers as _tpch_q20_dominant_suppliers,
    TPCH_Q20_SQL as _TPCH_Q20_SQL,
)
from p2pddsketch_ray.pipelines.relational import (  # noqa: E402
    q13_custdist as _q13_custdist,
    Q13_CUSTDIST_SQL as _Q13_CUSTDIST_SQL,
    q17_small_quantity_revenue as _q17_small_quantity_revenue,
    Q17_SMALL_QTY_SQL as _Q17_SMALL_QTY_SQL,
    length_token_copula_grid as _length_token_copula_grid,
    LENGTH_TOKEN_COPULA_SQL as _LENGTH_TOKEN_COPULA_SQL,
    price_volume_decomposition as _price_volume_decomposition,
    PRICE_VOLUME_SQL as _PRICE_VOLUME_SQL,
    ttr_quantiles_by_lang as _ttr_quantiles_by_lang,
    TTR_QUANTILES_SQL as _TTR_QUANTILES_SQL,
    copurchase_part_pairs as _copurchase_part_pairs,
    COPURCHASE_PAIRS_SQL as _COPURCHASE_PAIRS_SQL,
    nation_share_of_region as _nation_share_of_region,
    NATION_SHARE_SQL as _NATION_SHARE_SQL,
    youden_threshold_scan as _youden_threshold_scan,
    YOUDEN_SCAN_SQL as _YOUDEN_SCAN_SQL,
    stickiness_quantiles as _stickiness_quantiles,
    STICKINESS_SQL as _STICKINESS_SQL,
    zonemap_pruning_audit as _zonemap_pruning_audit,
    ZONEMAP_PRUNING_SQL as _ZONEMAP_PRUNING_SQL,
    monetary_unit_sample as _monetary_unit_sample,
    MONETARY_UNIT_SQL as _MONETARY_UNIT_SQL,
    split_leakage_report as _split_leakage_report,
    SPLIT_LEAKAGE_SQL as _SPLIT_LEAKAGE_SQL,
    weekday_pattern_census as _weekday_pattern_census,
    WEEKDAY_PATTERN_SQL as _WEEKDAY_PATTERN_SQL,
    new_part_revenue_share as _new_part_revenue_share,
    NEW_PART_SHARE_SQL as _NEW_PART_SHARE_SQL,
    session_entry_types as _session_entry_types,
    SESSION_ENTRY_SQL as _SESSION_ENTRY_SQL,
    weekly_revenue_wow as _weekly_revenue_wow,
    WEEKLY_WOW_SQL as _WEEKLY_WOW_SQL,
    activity_span_quantiles as _activity_span_quantiles,
    ACTIVITY_SPAN_SQL as _ACTIVITY_SPAN_SQL,
    priority_mix_by_year as _priority_mix_by_year,
    PRIORITY_MIX_SQL as _PRIORITY_MIX_SQL,
    abc_classification as _abc_classification,
    ABC_CLASSIFICATION_SQL as _ABC_CLASSIFICATION_SQL,
    ship_lag_quantiles_by_priority as _ship_lag_quantiles,
    SHIP_LAG_SQL as _SHIP_LAG_SQL,
    daily_type_entropy as _daily_type_entropy,
    DAILY_TYPE_ENTROPY_SQL as _DAILY_TYPE_ENTROPY_SQL,
    part_rank_movers as _part_rank_movers,
    PART_RANK_MOVERS_SQL as _PART_RANK_MOVERS_SQL,
    key_account_risk_by_nation as _key_account_risk_by_nation,
    KEY_ACCOUNT_SQL as _KEY_ACCOUNT_SQL,
    monthly_seasonal_index as _monthly_seasonal_index,
    MONTHLY_SEASONAL_SQL as _MONTHLY_SEASONAL_SQL,
    token_codegree_topk as _token_codegree_topk,
    TOKEN_CODEGREE_SQL as _TOKEN_CODEGREE_SQL,
    discount_by_qty_bucket as _discount_by_qty_bucket,
    DISCOUNT_QTY_SQL as _DISCOUNT_QTY_SQL,
    brand_year_revenue as _brand_year_revenue,
    BRAND_YEAR_REVENUE_SQL as _BRAND_YEAR_REVENUE_SQL,
    customer_frequency_spectrum as _customer_frequency_spectrum,
    SESSION_BOUNCE_SQL as _SESSION_BOUNCE_SQL,
    session_bounce_stats as _session_bounce_stats,
    TOP_EVENTS_PER_TYPE_SQL as _TOP_EVENTS_PER_TYPE_SQL,
    CUSTOMERS_WITHOUT_EVENTS_SQL as _CUSTOMERS_WITHOUT_EVENTS_SQL,
    QUANTILE_PRUNE_SQL as _QUANTILE_PRUNE_SQL,
    TOP_TOKENS_SQL as _TOP_TOKENS_SQL,
    TFIDF_TOP_TERM_SQL as _TFIDF_TOP_TERM_SQL,
    CUBE_PRICING_SQL as _CUBE_PRICING_SQL,
    HOUR_ENTROPY_SQL as _HOUR_ENTROPY_SQL,
    USER_CHURN_SQL as _USER_CHURN_SQL,
    ORDER_SKYLINE_SQL as _ORDER_SKYLINE_SQL,
    KEYWORD_SEARCH_SQL as _KEYWORD_SEARCH_SQL,
    TOKEN_BUDGET_SQL as _TOKEN_BUDGET_SQL,
    BUCKETED_JOIN_SQL as _BUCKETED_JOIN_SQL,
    UPSERT_COMPACTION_SQL as _UPSERT_COMPACTION_SQL,
    DAY_PRUNED_SQL as _DAY_PRUNED_SQL,
    HOURLY_GAPFILL_SQL as _HOURLY_GAPFILL_SQL,
    CUSTOMER_EVENT_ACTIVITY_SQL as _CUSTOMER_EVENT_ACTIVITY_SQL,
    WINSORIZED_PRICE_SQL as _WINSORIZED_PRICE_SQL,
    DISTINCT_USERS_PER_TYPE_SQL as _DISTINCT_USERS_PER_TYPE_SQL,
    DOCS_PIVOT_SQL as _DOCS_PIVOT_SQL,
    COMBINED_DAILY_SQL as _COMBINED_DAILY_SQL,
    USER_ACTIVITY_QUARTILES_SQL as _USER_ACTIVITY_QUARTILES_SQL,
    LABEL_CENTROIDS_SQL as _LABEL_CENTROIDS_SQL,
    REDACT_PROPS_SQL as _REDACT_PROPS_SQL,
    VALUE_HOUR_STATS_SQL as _VALUE_HOUR_STATS_SQL,
    WEIGHTED_SAMPLE_SQL as _WEIGHTED_SAMPLE_SQL,
    VALIDATION_REPORT_SQL as _VALIDATION_REPORT_SQL,
    RETURNED_REVENUE_SQL as _RETURNED_REVENUE_SQL,
    INCREMENTAL_DAILY_REVENUE_SQL as _INCREMENTAL_DAILY_REVENUE_SQL,
    DIVERSIFIED_TOP_SQL as _DIVERSIFIED_TOP_SQL,
    PARTITIONED_RT_SQL as _PARTITIONED_RT_SQL,
    PMI_BIGRAMS_SQL as _PMI_BIGRAMS_SQL,
    BIGRAM_LM_BY_LANG_SQL as _BIGRAM_LM_BY_LANG_SQL,
    EMBEDDING_COVARIANCE_SQL as _EMBEDDING_COVARIANCE_SQL,
    HASH_SAMPLE_ORDERS_SQL as _HASH_SAMPLE_ORDERS_SQL,
    WEIGHTED_DOC_SAMPLE_SQL as _WEIGHTED_DOC_SAMPLE_SQL,
    GLOBAL_RANKS_SQL as _GLOBAL_RANKS_SQL,
    NEAREST_CENTROID_SQL as _NEAREST_CENTROID_SQL,
    KNN_BATCH_SQL as _KNN_BATCH_SQL,
    INCREMENTAL_DEDUP_SQL as _INCREMENTAL_DEDUP_SQL,
    COMPACTION_SQL as _COMPACTION_SQL,
    ZSCORE_OUTLIER_SQL as _ZSCORE_OUTLIER_SQL,
    VALUE_HISTOGRAM_SQL as _VALUE_HISTOGRAM_SQL,
    SALTED_JOIN_SQL as _SALTED_JOIN_SQL,
    LANG_SOURCE_CHI2_SQL as _LANG_SOURCE_CHI2_SQL,
    SEQUENCE_PACKING_SQL as _SEQUENCE_PACKING_SQL,
    UNIGRAM_LOGPROB_SQL as _UNIGRAM_LOGPROB_SQL,
    GROUPED_REGRESSION_SQL as _GROUPED_REGRESSION_SQL)
from p2pddsketch_ray.pipelines.fingerprint import (  # noqa: E402
    WINNOW_FINGERPRINT_SQL as _WINNOW_FINGERPRINT_SQL)
from p2pddsketch_ray.pipelines.knn import (  # noqa: E402
    HARD_NEGATIVE_SQL as _HARD_NEGATIVE_SQL,
    CONTRASTIVE_MARGIN_SQL as _CONTRASTIVE_MARGIN_SQL,
    srp_cosine_hamming as _srp_cosine_hamming,
    SRP_COSINE_SQL as _SRP_COSINE_SQL)
from p2pddsketch_ray.pipelines.relational import (  # noqa: E402
    EPOCH_SHUFFLE_SQL as _EPOCH_SHUFFLE_SQL,
    PERCENTILE_NORM_SQL as _PERCENTILE_NORM_SQL,
    HHH_TYPE_USER_SQL as _HHH_TYPE_USER_SQL,
    FEATURE_INFO_GAIN_SQL as _FEATURE_INFO_GAIN_SQL,
    DP_NOISY_COUNTS_SQL as _DP_NOISY_COUNTS_SQL,
    HUBER_LOCATION_SQL as _HUBER_LOCATION_SQL,
    TEMPLATE_PREFIX_SQL as _TEMPLATE_PREFIX_SQL,
    DOC_NOVELTY_SQL as _DOC_NOVELTY_SQL,
    MEDIAN_POLISH_SQL as _MEDIAN_POLISH_SQL)
from p2pddsketch_ray.pipelines.approx import (  # noqa: E402
    UNIVERSE_JOIN_SAMPLE_SQL as _UNIVERSE_JOIN_SAMPLE_SQL,
    priority_sample_revenue as _priority_sample_revenue,
    PRIORITY_SAMPLE_SQL as _PRIORITY_SAMPLE_SQL,
    hyperminhash_type_jaccard as _hyperminhash_type_jaccard,
    HYPERMINHASH_SQL as _HYPERMINHASH_SQL)
from p2pddsketch_ray.pipelines.sliding import (  # noqa: E402
    DGIM_SLIDING_SQL as _DGIM_SLIDING_SQL,
    DGIM_BY_TYPE_SQL as _DGIM_BY_TYPE_SQL,
    CMS_BY_TYPE_SQL as _CMS_BY_TYPE_SQL)
from p2pddsketch_ray.pipelines.approx import (  # noqa: E402
    PRIORITY_SAMPLE_BY_SEG_SQL as _PRIORITY_SAMPLE_BY_SEG_SQL,
    CMM_USER_COUNTS_SQL as _CMM_USER_COUNTS_SQL)
from p2pddsketch_ray.pipelines.dedup import (  # noqa: E402
    WEIGHTED_MINHASH_SQL as _WEIGHTED_MINHASH_SQL)
from p2pddsketch_ray.stages.multimodal import (  # noqa: E402
    BMP_DECODE_SQL as _BMP_DECODE_SQL,
    WAV_DECODE_SQL as _WAV_DECODE_SQL,
    PPM_RESIZE_SQL as _PPM_RESIZE_SQL)
from p2pddsketch_ray.pipelines.search import (  # noqa: E402
    INVERTED_INDEX_SQL as _INVERTED_INDEX_SQL)
from p2pddsketch_ray.pipelines.components import (  # noqa: E402
    PAGERANK_SQL as _PAGERANK_SQL,
    COPRESENCE_TRIANGLES_SQL as _COPRESENCE_TRIANGLES_SQL,
    COPRESENCE_ASSORTATIVITY_SQL as _COPRESENCE_ASSORT_SQL,
    KCORE_SQL as _KCORE_SQL)
from p2pddsketch_ray.pipelines.dedup import (  # noqa: E402
    bbit_minhash_jaccard as _bbit_minhash_jaccard,
    BBIT_MINHASH_SQL as _BBIT_MINHASH_SQL,
    oph_minhash_densified as _oph_minhash_densified,
    OPH_MINHASH_SQL as _OPH_MINHASH_SQL,
    DECONTAMINATION_SQL as _DECONTAMINATION_SQL,
    DUP_SPAN_SQL as _DUP_SPAN_SQL,
    dup_span_stats as _dup_span_stats,
    MINHASH_BLOCKING_SQL as _MINHASH_BLOCKING_SQL,
    minhash_blocking_report as _minhash_blocking_report,
    CDC_CHUNK_SQL as _CDC_CHUNK_SQL,
    cdc_chunk_stats as _cdc_chunk_stats,
    TOP_DUPLICATED_SQL as _TOP_DUPLICATED_SQL,
    top_duplicated_docs as _top_duplicated_docs,
    MINHASH_NEARDUP_SQL as _MINHASH_NEARDUP_SQL,
    SIMHASH_NEARDUP_SQL as _SIMHASH_NEARDUP_SQL,
    benchmark_decontamination as _benchmark_decontamination,
    FUZZY_PROPS_SQL as _FUZZY_PROPS_SQL,
    fuzzy_props_pairs as _fuzzy_props_pairs,
    NGRAM_JACCARD_SQL as _NGRAM_JACCARD_SQL,
    CHUNK_DEDUP_SQL as _CHUNK_DEDUP_SQL,
    SIMHASH_SIGNATURES_SQL as _SIMHASH_SIGNATURES_SQL,
    MINHASH_SIGNATURE_SQL as _MINHASH_SIGNATURE_SQL)
QS = (0.5, 0.95, 0.99)


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001: DDSketch quantiles of
    document length, globally and per lang."""
    import ray.data
    from p2pddsketch_ray.pipelines.quantiles import dds_quantiles_grouped

    sf_dir = "/root/testdata/sf0.001"
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["lang", "n_chars"])
    out = dds_quantiles_grouped(ds, "n_chars", ["lang"], QS,
                                alpha=ALPHA, bin_limit=BIN_LIMIT,
                                round_digits=6)
    return out.sort(["lang", "q"])


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------

def _dds_global(table: str, col: str):
    def run(sf_dir: str):
        import ray.data
        from p2pddsketch_ray.pipelines.quantiles import dds_quantiles_global
        ds = ray.data.read_parquet(f"{sf_dir}/{table}.parquet", columns=[col])
        return dds_quantiles_global(ds, col, QS, alpha=ALPHA,
                                    bin_limit=BIN_LIMIT, round_digits=6)
    return run


_CONV_LAG_TABLE = """(SELECT CAST(pu.t1 - su.t0 AS DOUBLE) AS lag_us
 FROM (SELECT user_id, min(epoch_us(ts)) AS t0 FROM events
       WHERE event_type = 'signup' GROUP BY 1) su
 JOIN (SELECT user_id, min(epoch_us(ts)) AS t1 FROM events
       WHERE event_type = 'purchase' GROUP BY 1) pu
   ON pu.user_id = su.user_id
 WHERE pu.t1 >= su.t0) lags"""


_ALPHA_SWEEP_SQL = f"""
WITH src AS (SELECT CAST(l_extendedprice AS DOUBLE) AS x
             FROM lineitem WHERE l_extendedprice IS NOT NULL),
alphas(am, g) AS (VALUES
  (20000, CAST((1.0+0.02)/(1.0-0.02) AS DOUBLE)),
  (10000, CAST((1.0+0.01)/(1.0-0.01) AS DOUBLE)),
  (5000,  CAST((1.0+0.005)/(1.0-0.005) AS DOUBLE))),
keyed AS (SELECT am,
                 CASE WHEN x > 0
                      THEN CAST(ceil(ln(x)/ln(g)) AS BIGINT) + {OFFSET}
                      WHEN x < 0
                      THEN -CAST(ceil(ln(-x)/ln(g)) AS BIGINT) - {OFFSET}
                      ELSE 0 END AS k
          FROM src CROSS JOIN alphas),
bins AS (SELECT am, k, CAST(count(*) AS DOUBLE) AS c
         FROM keyed GROUP BY 1, 2),
tot AS (SELECT am, sum(c) AS n FROM bins GROUP BY 1),
walk AS (SELECT am, k, sum(c) OVER (PARTITION BY am ORDER BY k) AS cum
         FROM bins),
pick AS (SELECT walk.am AS am, min(walk.k) AS bucket_key
         FROM walk JOIN tot ON tot.am = walk.am
         WHERE walk.cum > 0.95 * (tot.n - 1) GROUP BY 1),
ex AS (SELECT quantile_disc(x, 0.95) AS exact FROM src),
est AS (SELECT p.am, p.bucket_key,
               round(CASE WHEN p.bucket_key > 0
                          THEN 2*pow(a.g, p.bucket_key - {OFFSET})
                               / (a.g+1)
                          WHEN p.bucket_key < 0
                          THEN -2*pow(a.g, -p.bucket_key - {OFFSET})
                               / (a.g+1)
                          ELSE 0.0 END, 6) AS est
        FROM pick p JOIN alphas a ON a.am = p.am)
SELECT est.am AS alpha_micro, est.bucket_key, est.est,
       ex.exact AS exact,
       CAST(floor(abs(est.est - ex.exact) / ex.exact * 1000000.0)
            AS BIGINT) AS rel_err_micro,
       CAST(CASE WHEN floor(abs(est.est - ex.exact) / ex.exact
                            * 1000000.0) <= est.am
                 THEN 1 ELSE 0 END AS BIGINT) AS within_alpha
FROM est CROSS JOIN ex
ORDER BY alpha_micro DESC
"""


def _dds_alpha_error_sweep(sf_dir: str):
    from p2pddsketch_ray.pipelines.quantiles import dds_alpha_error_sweep
    return dds_alpha_error_sweep(sf_dir)


def _conversion_lag_dds(sf_dir: str):
    from p2pddsketch_ray.pipelines.quantiles import conversion_lag_dds
    return conversion_lag_dds(sf_dir, qs=QS, alpha=ALPHA,
                              bin_limit=BIN_LIMIT)


def _percentile_norm_by_source(sf_dir: str):
    from p2pddsketch_ray.pipelines.relational import \
        percentile_norm_by_source
    return percentile_norm_by_source(sf_dir)


def _contrastive_margin_report(sf_dir: str):
    from p2pddsketch_ray.pipelines.knn import contrastive_margin_report
    return contrastive_margin_report(sf_dir)


def _scd2_snapshot_counts(sf_dir: str):
    from p2pddsketch_ray.pipelines.temporal import scd2_snapshot_counts
    return scd2_snapshot_counts(sf_dir)


def _dds_incremental_update(sf_dir: str):
    """INCREMENTAL sketch-view maintenance: the DDSketch over all event
    values is kept up to date by building a sketch over ONLY the new
    partition (ts >= cutoff) and merging it into the existing view
    (ts < cutoff) -- the linear-state property that makes sketches the
    right materialized-view primitive for append-only logs (no rescan).
    The query ALSO rebuilds from scratch and asserts bucket-level
    bit-identity (merge invariance); at 100 TB the rebuild is the
    verification harness, not the production path -- production only
    ever builds the delta.

    Output/oracle: identical to dds_event_value_global (the final
    state IS the full-data sketch, that is the point)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.dataset as pads
    import ray.data
    from ray.data.aggregate import Max, Min
    from p2pddsketch_ray.pipelines.quantiles import (dds_sketch_global,
                                                     sketch_quantile_table)

    tsds = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                                 columns=["ts"])
    agg = tsds.aggregate(Min("ts"), Max("ts"))
    mn = int(pa.scalar(agg["min(ts)"]).cast(pa.timestamp("us"))
             .cast(pa.int64()).as_py())
    mx = int(pa.scalar(agg["max(ts)"]).cast(pa.timestamp("us"))
             .cast(pa.int64()).as_py())
    cut = pa.scalar((mn + mx) // 2, type=pa.int64())         .cast(pa.timestamp("us"))

    def read(flt):
        return ray.data.read_parquet(f"{sf_dir}/events.parquet",
                                     columns=["value"], filter=flt)

    kw = dict(alpha=ALPHA, bin_limit=BIN_LIMIT)
    s_old = dds_sketch_global(read(pads.field("ts") < cut), "value",
                              **kw)
    s_new = dds_sketch_global(read(pads.field("ts") >= cut), "value",
                              **kw)
    merged = s_old.merge(s_new)

    full = dds_sketch_global(
        ray.data.read_parquet(f"{sf_dir}/events.parquet",
                              columns=["value"]), "value", **kw)
    a, b = merged.to_row(), full.to_row()
    if not (np.array_equal(np.asarray(a["keys"]),
                           np.asarray(b["keys"]))
            and np.array_equal(np.asarray(a["counts"]),
                               np.asarray(b["counts"]))):
        raise AssertionError("incremental merge diverged from rebuild")

    return sketch_quantile_table(merged, QS, 6)


def _dds_event_value_actor_pool(sf_dir: str):
    import ray.data
    from p2pddsketch_ray.pipelines.quantiles import sketch_quantile_table
    from p2pddsketch_ray.stages.sketch_build import actor_pool_sketch_build
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["value"])
    sketch = actor_pool_sketch_build(ds, "value", n_actors=4, alpha=ALPHA,
                                     bin_limit=BIN_LIMIT)
    return sketch_quantile_table(sketch, QS, 6)


def _dds_grouped(table: str, col: str, group: str):
    def run(sf_dir: str):
        import ray.data
        from p2pddsketch_ray.pipelines.quantiles import dds_quantiles_grouped
        ds = ray.data.read_parquet(f"{sf_dir}/{table}.parquet",
                                   columns=[group, col])
        return dds_quantiles_grouped(ds, col, [group], QS, alpha=ALPHA,
                                     bin_limit=BIN_LIMIT, round_digits=6)
    return run


def queries() -> dict[str, Callable[[str], Any]]:
    from p2pddsketch_ray.pipelines import approx as A
    from p2pddsketch_ray.pipelines import relational as R

    q = {
        # sketch quantiles (DDSketch replicated exactly in oracle SQL)
        "dds_price_global": _dds_global("lineitem", "l_extendedprice"),
        "dds_price_by_flag": _dds_grouped("lineitem", "l_extendedprice",
                                          "l_returnflag"),
        "dds_nchars_by_lang": _dds_grouped("documents", "n_chars", "lang"),
        "dds_event_value_global": _dds_global("events", "value"),
        # the SAME global sketch built by the stateful ACTOR-POOL path
        # (n long-lived actors over streaming splits) -- shares the
        # stateless path's oracle: bit-identical by merge invariance
        "dds_event_value_actor_pool": _dds_event_value_actor_pool,
        # incremental view maintenance: delta build + merge == rebuild
        # (bucket-level bit-identity asserted in-pipeline)
        "dds_incremental_update": _dds_incremental_update,
        # relational / dataflow operators (exact)
        "pricing_summary": R.pricing_summary,
        "topk_orders": R.topk_orders,
        "customer_nation_rollup": R.customer_nation_rollup,
        "events_hourly_window": R.events_hourly_window,
        "docs_by_lang": R.docs_by_lang,
        "distinct_user_count": R.distinct_user_count,
        # stateful ordered window (sessionization), deterministic sampling,
        # two-hop broadcast join
        "events_sessionized": R.events_sessionized,
        # the skew-tolerant time-bucket-split variant under the SAME
        # oracle: exact for a user of any size by boundary stitching
        "events_sessionized_split": R.events_sessionized_split,
        "sampled_events_by_type": R.sampled_events_by_type,
        "supplier_region_rollup": R.supplier_region_rollup,
        "props_extract_stats": R.props_extract_stats,
        # distributed hash join (large dimension side, no broadcast)
        "orders_customer_join_agg": R.orders_customer_join_agg,
        # text analysis (exact, SQL-replicable definitions)
        "token_stats_by_lang": R.token_stats_by_lang,
        "quality_filter_by_lang": R.quality_filter_by_lang,
        "top_users_exact": R.top_users_exact,
        "lang_id_counts": R.lang_id_counts,
        # dedup (exact content-hash): stats + materialized kept corpus.
        # The oracle queries pin the md5 tier (SQL-replicable); the
        # pipeline default is the vectorized fp64 fast tier (100 TB path)
        "dedup_exact_docs": lambda sf: R.dedup_exact_docs(
            sf, hash_tier="md5"),
        "dedup_exact_keep": lambda sf: R.dedup_exact_keep(
            sf, hash_tier="md5"),
        # similarity search (brute-force cosine baseline)
        "knn_cosine_topk": R.knn_cosine_topk,
        # approximate aggregation (HLL / count-min / Bloom semi-join)
        "hll_distinct_users": A.hll_distinct_users,
        # HLL inclusion-exclusion audience overlap of two types
        "hll_type_overlap": A.hll_type_overlap,
        "cms_user_counts": A.cms_user_counts,
        # count-mean-min (Deng-Rafiei): noise-debiased median-row CMS
        # estimator from the same mergeable sketch, integer-exact
        "cmm_user_counts": _cmm_user_counts,
        # count-SKETCH: signed cells, unbiased exact-median estimator
        "countsketch_user_freq": A.countsketch_user_freq,
        # sketch-shortlist + exact-confirm heavy hitters (the Charikar
        # composition: small signed sketch ranks, one filtered count
        # confirms, final top-k exact)
        "countsketch_topk_confirm": A.countsketch_topk_confirm,
        # Bloom set-cardinality algebra: |A|, |B|, |A n B| from fill
        # counts + the OR-merge union filter (Swamidass-Baldi)
        "bloom_intersection_estimate": A.bloom_intersection_estimate,
        # time-decayed heavy hitters: weighted CMS, weight 1e6 >> age_d
        "decayed_cms_user_scores": A.decayed_cms_user_scores,
        # join-size estimation from two CMS states (min inner product)
        "cms_join_size_estimate": A.cms_join_size_estimate,
        # correlated key-universe join sampling (hash(key)%16 both sides)
        "universe_join_sample": A.universe_join_sample,
        # hierarchical heavy hitters with descendant-discounted counts
        "hhh_type_user": R.hhh_type_user,
        # one-pass information-gain feature ranking (exact micro-nats)
        "feature_info_gain": R.feature_info_gain,
        # Laplace-mechanism DP count release with md5-seeded noise the
        # oracle replays draw-for-draw (Dwork TCC'06)
        "dp_noisy_counts": R.dp_noisy_counts,
        # Huber M-estimator location per flag: 3 IRLS passes, integer
        # milli-weight quantization so the trajectory is order-free
        "huber_location_by_flag": R.huber_location_by_flag,
        # boilerplate screen: top repeated opening prefixes + source spread
        "template_prefix_clusters": R.template_prefix_clusters,
        # per-source shingle novelty (share of globally unique 3-grams)
        "doc_novelty_stats": R.doc_novelty_stats,
        # Tukey median polish of (lang x source) median doc lengths:
        # integer low-median sweeps, full trajectory oracle-replayed
        "median_polish_doclen": R.median_polish_doclen,
        "bloom_semijoin_orders": A.bloom_semijoin_orders,
        # bit-level empirical Bloom false-positive audit (MD5 double
        # hashing so DuckDB reproduces every position)
        "bloom_fpr_audit": _bloom_fpr_audit,
        # linear probabilistic counting (Whang TODS'90): bitmap distinct
        # estimator, md5 cells replicated bit-exactly by the oracle
        "linear_counting_users": _linear_counting_users,
        # counting Bloom (Fan ToN'00): turnstile membership with deletes,
        # cell state + false-stay probes oracle-verified
        "counting_bloom_delete_audit": _counting_bloom_delete_audit,
        # Bloom-per-partition data skipping: hash-partitioned write,
        # per-partition filter, path-pruned point lookup, FP accounting
        # bit-replayed by the oracle
        "bloom_partition_pruning_audit": _bloom_partition_pruning_audit,
        # CMS overestimate report on the exact top-k heavy hitters
        "cms_error_report": _cms_error_report,
        # Misra-Gries frequent items (deterministic counter summary ->
        # exact confirm pass; final answer exact + order-independent)
        "mg_heavy_users": A.mg_heavy_users,
        # row explode (flat-map: one output row per token)
        "token_explode_sample": R.token_explode_sample,
        # UNPIVOT/melt reshape with in-batch combiner
        "lineitem_unpivot_stats": R.lineitem_unpivot_stats,
        # deterministic train/val/test split (hash-stable 90/5/5)
        "split_assign_stats": R.split_assign_stats,
        # per-epoch deterministic reshard audit (hash(d XOR seed_e)%S)
        "epoch_shuffle_stats": R.epoch_shuffle_stats,
        # within-lang percent-rank (quantile normalization) per source
        "percentile_norm_by_source": _percentile_norm_by_source,
        # equi-depth histogram / range-partition plan (exact boundaries
        # via histogram bisection + one broadcast count pass)
        "equi_depth_buckets": R.equi_depth_buckets,
        # exact Jaccard between per-source vocabularies (bitmask
        # set intersection over token fingerprints)
        "source_vocab_overlap": R.source_vocab_overlap,
        # near-duplicate detection.  BOTH pairing pipelines are FULLY
        # oracle-checked: MinHash via signature Horner replica +
        # all-r-minima-equal candidacy + equal-coordinate threshold;
        # SimHash via the per-bit-majority replica + chunk-share
        # candidacy + bit_count hamming (exact whenever buckets fit the
        # Manku window, true at every testdata scale)
        "minhash_neardup_docs": _minhash_neardup_docs,
        "simhash_neardup_docs": _simhash_neardup_docs,
        # passage-level exact dedup: 16-token chunks deduped globally
        # by ONE string groupby whose Min() composite carries the
        # keeper's lang (no join-back, no corpus-sized broadcast)
        "chunk_dedup_stats": _chunk_dedup_stats,
        # near-dup keep by QUALITY (longest doc per similarity
        # component, tie to smaller id) via one argmax composite
        "neardup_keep_best_quality": _neardup_keep_best_quality,
        # exact-substring tier (Lee et al. ACL'22): duplicated
        # length-32 window positions per lang, one fingerprint exchange
        "dup_span_stats": _dup_span_stats,
        # the SimHash signatures THEMSELVES are deterministic: a
        # HUGEINT-Horner SQL replica verifies the sketch math even
        # though windowed candidate recall cannot be oracle-checked
        "simhash_signatures": _simhash_signatures,
        # ...and the MinHash signature matrix likewise (multiply-add
        # permutation minima, checksum per doc)
        "minhash_signature_stats": _minhash_signature_stats,
        "embedding_neardup_pairs": _embedding_neardup_pairs,
        # similarity search scale path: IVF probing all clusters must
        # reproduce the exhaustive top-k (oracle = brute-force SQL)
        "ivf_knn_exhaustive": _ivf_knn_exhaustive,
        # the WRITTEN on-disk IVF index (cluster-partitioned parquet,
        # pruned partition reads) under the same brute-force oracle
        "ivf_knn_written": _ivf_knn_written,
        # contrastive hard-negative mining: top-k most-similar vectors
        # with a DIFFERENT label per anchor (integer 1e4-unit ranking)
        "hard_negative_topk": _hard_negative_topk,
        # hardest-positive minus hardest-negative margin per anchor
        "contrastive_margin_report": _contrastive_margin_report,
        # mutual top-1 matches, exact integer-quantized inner products
        "reciprocal_nn_pairs": _reciprocal_nn_pairs,
        # sorted-neighborhood blocking with cross-block window stitch
        "sorted_neighborhood_stats": _sorted_neighborhood_stats,
        # byte-exact edit-distance verify over blocked candidates
        "levenshtein_verify_pairs": _levenshtein_verify_pairs,
        # KLL comparison-based quantiles (randomized compaction: rows-only)
        "kll_quantiles_price": _kll_quantiles_price,
        # t-digest quantiles (interpolated centroids: rows-only)
        "tdigest_quantiles_price": _tdigest_quantiles_price,
        # Frequent Directions covariance sketch (rows-only, float
        # spectral): the published ||A'A-B'B||_2 <= ||A||_F^2/ell bound
        # is ASSERTED in-pipeline against the exact Gram
        "frequent_directions_embed": _frequent_directions_embed,
        # DGIM sliding-window count: canonical bucket state from N +
        # rank-selected boundaries; fully deterministic, so it now has
        # a window-function SQL twin (plus the in-pipeline <=50% audit)
        "dgim_sliding_count": _dgim_sliding_count,
        # grouped DGIM: one canonical bucket state per event type, all
        # boundary lookups resolved in shared bisection rounds
        "dgim_sliding_count_by_type": _dgim_sliding_count_by_type,
        # stratified priority sampling: independent DLT sample + tau
        # per o_orderpriority segment (grouped window-matrix member)
        "priority_sample_by_segment": _priority_sample_by_segment,
        # REAL uncompressed-container decode queries: deterministic
        # BMP/WAV/PPM fixtures, pure-numpy parsers, generator-replay
        # SQL twins (a green hash proves byte-exact decode)
        "bmp_decode_stats": _bmp_decode_stats,
        "wav_decode_stats": _wav_decode_stats,
        "ppm_resize_checksum": _ppm_resize_checksum,
        # multimodal binary-payload stage (plumbing oracle-checked via
        # byte counts; decoder features verified in unit tests)
        "multimodal_doc_features": _multimodal_doc_features,
        # sliding-window quantiles (turnstile add/delete of whole hour
        # buckets -- the kernel capability the reference never drove)
        "sliding_window_quantiles": _sliding_window_quantiles,
        # the grouped turnstile: per-type sliding-window quantiles
        "sliding_window_quantiles_by_type":
            _sliding_window_quantiles_by_type,
        # per-type sliding-window HLL distinct (register-level oracle)
        "hll_sliding_users_by_type": _hll_sliding_users_by_type,
        # the reference accuracy harness as a distributed query:
        # estimate vs exact order statistic, error in integer ppm
        "quantile_error_report": _quantile_error_report,
        # OLAP rollup from one sketch build: (lang, source) level +
        # per-lang level produced by MERGING the finished sketches
        "dds_rollup_lang_source": _dds_rollup_lang_source,
        # robust statistics: two-pass sketch composition (median,
        # then MAD around the broadcast median)
        "mad_by_flag": _mad_by_flag,
        # distribution-drift monitor: pairwise KS statistic between
        # per-group DDSketch CDFs as an exact integer numerator
        "drift_stats_pairs": _drift_stats_pairs,
        # sketch-driven anomaly detection: events above their own
        # window's trailing-24h p99, compared in integer bucket-key
        # space (composition of sliding sketch + broadcast threshold)
        "sliding_anomaly_counts": _sliding_anomaly_counts,
        # sliding-window HLL: distinct users per trailing 24 h (window
        # merge = register max over the hourly matrix)
        "hll_sliding_users": _hll_sliding_users,
        # sliding-window COUNT-MIN: linear sketch, so the window merge
        # is a prefix-sum difference; only probed cell series shuffle
        "cms_sliding_user_est": _cms_sliding_user_est,
        # half-life-decayed DDSketch quantiles: exact power-of-two
        # decay weights (time-decay member of the window x sketch
        # matrix), weighted rank walk bit-replayed in SQL
        "dds_decayed_value": _dds_decayed_value,
        # grouped sliding CMS: one cell series per event type, per-type
        # top-k probes and per-type hour anchors (linear-sketch member
        # of the window x sketch x group matrix)
        "cms_sliding_by_type": _cms_sliding_by_type,
        # distributed as-of join (vectorized rank-composite kernel over
        # coarse hash co-partitions; oracle = DuckDB ASOF JOIN)
        "events_asof_orders": _events_asof_orders,
        # NEAREST-timestamp join (min |gap| either direction, before
        # wins exact ties) -- the third as-of direction
        "events_nearest_order": _events_nearest_order,
        # FORWARD as-of: first touchpoint after each order
        "orders_asof_next_event": _orders_asof_next_event,
        # sliding-window argmax: top user by trailing-24h count
        "trailing_top_user_hourly": _trailing_top_user_hourly,
        # debounce: collapse same-(user,type) repeats within 5 min
        "debounced_event_counts": _debounced_event_counts,
        # OHLC bars: argmin/argmax-by-time aggregate per hour
        "value_ohlc_hourly": _value_ohlc_hourly,
        # distributed range (interval-overlap) join: time-bucket
        # co-partition, <= 2x replication of the small side only
        "orders_event_window_stats": _orders_event_window_stats,
        # SQL window functions (lag per user ordered by ts) as a
        # co-partitioned vectorized kernel
        "user_event_lag_stats": _user_event_lag_stats,
        # Gopher-style repetition quality signals over documents
        "repetition_stats_by_lang": R.repetition_stats_by_lang,
        # distributed stratified sampling (per-group deterministic k-row
        # hash sample, block-local prereduce)
        "stratified_sample_events": R.stratified_sample_events,
        # per-group top-N (row_number-over-partition semantics via
        # block-local keep-n prereduce)
        "top_events_per_type": R.top_events_per_type,
        # exact distributed anti-join (NOT EXISTS) via Ray's native
        # left_anti hash-shuffle join
        "customers_without_events": R.customers_without_events,
        # EXACT distributed quantiles (selection, not sketch): iterative
        # histogram bisection over integer float order-keys -- no global
        # sort, bounded driver pull (oracle = DuckDB quantile_disc)
        "exact_quantiles_price": _exact_quantiles_price,
        # grouped exact quantiles: one shared histogram pass per round
        # for ALL (group, q) targets (low-cardinality group keys)
        "exact_quantiles_by_flag": _exact_quantiles_by_flag,
        # quantile-threshold pruning: exact per-lang p90 feeds a
        # broadcast-threshold filter pass (corpus-curation composition)
        "quantile_prune_docs": R.quantile_prune_docs,
        # per-language vocabulary head (top-k tokens, exact counts,
        # deterministic tie order)
        "top_tokens_by_lang": R.top_tokens_by_lang,
        # TF-IDF keyword extraction (integer-exact idf surrogate)
        "tfidf_top_term_per_doc": R.tfidf_top_term_per_doc,
        # CUBE grouping sets, entropy data-quality signal, churn set ops
        "cube_pricing": R.cube_pricing,
        "hour_entropy_by_type": R.hour_entropy_by_type,
        "user_churn_sets": R.user_churn_sets,
        # n-gram benchmark decontamination (training-data hygiene)
        "benchmark_decontamination": _benchmark_decontamination,
        # iterative integer PageRank + Pareto-frontier skyline
        "pagerank_part_supplier": _pagerank_part_supplier,
        # k-core peel trajectory (Seidman '83): fixed-round distributed
        # degree-peeling over the co-purchase graph, survivor set
        # broadcast as a sorted catalog-bounded array
        "kcore_part_graph": _kcore_part_graph,
        # triangle census of the user co-presence graph (degree-
        # oriented wedge closure; exact count + clustering coefficient)
        "copresence_triangles": _copresence_triangles,
        # degree assortativity of the co-presence graph (Newman 2002)
        "copresence_assortativity": _copresence_assortativity,
        "order_skyline": R.order_skyline,
        # FastSS edit-distance-1 fuzzy self-join over payload strings
        "fuzzy_props_pairs": _fuzzy_props_pairs,
        # conjunctive keyword search + per-lang token-budget mix builder
        "keyword_search_topk": R.keyword_search_topk,
        "token_budget_mix": R.token_budget_mix,
        # hash-bucketed co-located join (zero-shuffle layout reuse)
        "bucketed_join_rollup": R.bucketed_join_rollup,
        # CDC MERGE latest-wins compaction
        "upsert_compaction": R.upsert_compaction,
        # interval-union coverage (sweep-line islands)
        "user_interval_coverage": _user_interval_coverage,
        # time-range layout with path-pruned window reads
        "day_pruned_window_stats": R.day_pruned_window_stats,
        # densified hourly resample (calendar-spine gap fill)
        "events_hourly_gapfill": R.events_hourly_gapfill,
        # LEFT-OUTER join with zero preservation (per-nation activity)
        "customer_event_activity": R.customer_event_activity,
        # winnowing fingerprints (Schleimer et al. 2003) with an exact
        # SQL-replicable composite-min selection rule
        "winnow_fingerprint_stats": _winnow_fingerprint_stats,
        # WEIGHTED DDSketch quantiles (each row adds its weight to its
        # bucket; exact for integer-valued weights)
        "dds_weighted_price": _dds_weighted_price,
        # winsorized mean (exact p01/p99 clamp + integer-cents rollup)
        "winsorized_price_stats": R.winsorized_price_stats,
        # exact per-group COUNT(DISTINCT) with block-level dedup prereduce
        "distinct_users_per_type": R.distinct_users_per_type,
        # crosstab / PIVOT reshape (lang rows x source columns)
        "docs_lang_source_pivot": R.docs_lang_source_pivot,
        # cumulative windowed aggregate (per-row running sums with
        # per-user resets; prefix-sum kernel over co-partitions)
        "user_running_totals": _user_running_totals,
        # bounded ROLLING window (3 PRECEDING..CURRENT ROW moving sum)
        # via cumsum-difference kernel over the same co-partitions
        "user_moving_window": _user_moving_window,
        # DAU / trailing-7-day WAU (exact windowed distinct via
        # per-user interval expansion, no windowed shuffle)
        "active_user_counts": _active_user_counts,
        # cohort retention matrix (first-active-week cohorts x
        # return-week offsets)
        "cohort_retention": _cohort_retention,
        # funnel analysis: ordered view->click->purchase sequence
        # matching per user (vectorized multi-step scan)
        "funnel_counts": _funnel_counts,
        # collect_list: per-user time-ordered behavior sequences with
        # fully vectorized byte-buffer assembly (per-vocab scatter)
        "user_event_sequences": _user_event_sequences,
        # exact n-gram Jaccard (the verification tier of the near-dup
        # stack: actual shingle-set intersection, no hashing)
        "ngram_jaccard_pairs": _ngram_jaccard_pairs,
        # multimodal frame sampling (video-ingest shape: every k-th
        # fixed-size frame; plumbing oracle-checked via length math)
        "multimodal_frame_sample": _multimodal_frame_sample,
        # actor-pool thumbnail resize: the ragged clipped gather is
        # pinned cell-by-cell via a position-weighted checksum
        "multimodal_resize_stats": _multimodal_resize,
        # GROUPED HLL (approximate distinct per group, register-level
        # oracle per group)
        "hll_users_by_type": A.hll_users_by_type,
        # Dataset.union of two differently-shaped sources into one
        # normalized rollup (multi-source ingest shape)
        "combined_daily_activity": R.combined_daily_activity,
        # END-TO-END curation composition: quality filter + exact
        # dedup of survivors + per-lang report in one fused text pass
        # (md5 tier pinned for the oracle, fp64 default elsewhere)
        "curated_corpus_stats": lambda sf: R.curated_corpus_stats(
            sf, hash_tier="md5"),
        # sketch-driven CDF transform: broadcast DDSketch cumulative
        # table maps every row to its estimated rank (quantile
        # normalization without a global sort)
        "sketch_cdf_by_type": _sketch_cdf_by_type,
        # partitioned parquet sink + pruned read-back round-trip
        "partitioned_write_read_stats": R.partitioned_write_read_stats,
        # diversity-constrained top-k (quota of 2 per customer)
        "diversified_top_orders": R.diversified_top_orders,
        # TPC-H Q10-shaped star join: fact pre-agg -> hash join ->
        # broadcast dims -> top-k (4-table analytics composition)
        "returned_revenue_top_customers": R.returned_revenue_top_customers,
        # incremental view maintenance: persisted day-grain checkpoint
        # merged with the delta read; base never rescanned on refresh
        "incremental_daily_revenue": R.incremental_daily_revenue,
        # data-quality constraint checks (nulls, domains, PK
        # uniqueness, referential integrity) as one streaming report
        "validation_report": R.validation_report,
        # deterministic weighted sampling (Efraimidis-Spirakis A-Res
        # with hash-derived uniforms, log-key form)
        "weighted_sample_orders": R.weighted_sample_orders,
        # sufficient-statistics aggregate (exact integer moments for
        # correlation/regression of value vs hour-of-day)
        "value_hour_sufficient_stats": R.value_hour_sufficient_stats,
        # PII-scrub text rewrite (regex redaction) with per-group
        # transform accounting (RE2 on both engines)
        "redact_props_stats": R.redact_props_stats,
        # grouped VECTOR aggregate: per-label embedding centroid sums
        # as exact int64 micro-units (associative, merge-order-proof)
        "label_centroids": R.label_centroids,
        # percentile-bucket classification: exact quartile thresholds
        # (histogram bisection, no global sort) -> broadcast compare
        # -> cohort rollup
        "user_activity_quartiles": R.user_activity_quartiles,
        # KMV bottom-k theta sketch: per-group distinct estimates with the
        # FULL stored hash set oracle-verified (murmur64 == DuckDB hash)
        "kmv_distinct_users": A.kmv_distinct_users,
        # ...and the KEEP step: one doc per component, per-lang
        # surviving-corpus report
        "neardup_keep_stats": _neardup_keep_stats,
        # connected components of the near-dup similarity graph
        # (small-star/large-star over the edge Dataset; oracle =
        # recursive-CTE transitive closure over the same Jaccard pairs)
        "neardup_components": _neardup_components,
        # KMV set algebra: union/intersection estimates between per-group
        # sketches (the capability HLL lacks)
        "kmv_user_overlap": A.kmv_user_overlap,
        # theta-sketch A-not-B: est users who did a but never b
        "kmv_anotb_users": A.kmv_anotb_users,
        # one-pass sketched table profiler (per-column HLL + nulls)
        "table_profile_sketched": _table_profile_sketched,
        # weighted (turnstile-sum) count-min: revenue per customer
        "cms_weighted_revenue": _cms_weighted_revenue,
        # population stability index per type (drift, smoothed bins)
        "psi_drift_binned": _psi_drift_binned,
        # 2x2 difference-in-differences over the hash split
        "diff_in_diff_report": _diff_in_diff_report,
        # RAKE multi-word keyword extraction (top phrases)
        "rake_keywords_topk": _rake_keywords_topk,
        # DDSketch over a DERIVED stream: p50/p95/p99 conversion lag
        "conversion_lag_dds": _conversion_lag_dds,
        # one-pass multi-alpha build + exact audit (the metric itself)
        "dds_alpha_error_sweep": _dds_alpha_error_sweep,
        # batched MODEL INFERENCE: broadcast integer-linear classifier
        # scored by an actor pool (weights ray.put once, fetched once
        # per actor in __init__), in-batch rollup combiner
        "model_score_stats": _model_score_stats,
        # lift/gains table of the broadcast linear scorer (binned)
        "score_lift_report": _score_lift_report,
        # Murphy decomposition of the scorer's Brier score: per-bin
        # reliability/resolution in exact integer micro units
        "brier_decomposition": _brier_decomposition,
        # collocation extraction: top bigrams by PMI in exact integer
        # micro-nats (phrase-mining / tokenizer-merge statistic)
        "pmi_bigrams_topk": R.pmi_bigrams_topk,
        # bigram-LM corpus likelihood per language slice
        "bigram_lm_by_lang": R.bigram_lm_by_lang,
        # embedding covariance structure (int64 moment sums)
        "embedding_covariance_topk": R.embedding_covariance_topk,
        # deterministic bottom-k-by-hash distributed sample
        "hash_sample_orders": R.hash_sample_orders,
        # Efraimidis-Spirakis WEIGHTED bottom-k sample (w = n_chars)
        "weighted_doc_sample": R.weighted_doc_sample,
        # EXACT distributed global row_number (range-bucket offsets +
        # within-bucket lexsort; no single-node sort anywhere)
        "global_order_ranks": R.global_order_ranks,
        # persisted inverted index: bucketed postings on disk, term
        # lookup opens ONLY the probed buckets (retrieval layout)
        "inverted_index_lookup": _inverted_index_lookup,
        # nearest-centroid classification (exact integer milli-unit
        # distances, broadcast centroid matrix, confusion-matrix rollup)
        "nearest_centroid_confusion": R.nearest_centroid_confusion,
        # batched multi-query KNN join: all queries in one corpus pass
        # (one matmul per batch, block-local top-k per query)
        "knn_batch_queries": R.knn_batch_queries,
        # first-order Markov transition matrix over user event streams
        # (lag pairs + integer-ppm row normalization)
        "event_transition_matrix": _event_transition_matrix,
        # INCREMENTAL ingest dedup: delta probed against a persisted
        # hash-bucketed index (md5 tier pinned for the oracle)
        "incremental_dedup_stats": lambda sf: R.incremental_dedup_stats(
            sf, hash_tier="md5"),
        # small-file compaction round trip (lakehouse maintenance):
        # fragmented write -> coalesce -> rollup from the compacted copy
        "compact_small_files_stats": R.compact_small_files_stats,
        # sufficient-statistics outlier flagging (k-sigma in exact
        # integer arithmetic; moments -> broadcast -> flag pass)
        "zscore_outlier_counts": R.zscore_outlier_counts,
        # exact equi-width histogram per group (distribution profiling)
        "value_histogram_by_type": R.value_histogram_by_type,
        # hot-key-proof SALTED hash join (dim replicated per salt;
        # bit-identical to the plain join)
        "salted_join_rollup": R.salted_join_rollup,
        # global peak concurrency: distributed ordered prefix sum
        # (bucket net-delta offsets + within-bucket sweep)
        "peak_concurrency_stats": _peak_concurrency_stats,
        # chi-square independence of the (lang, source) contingency
        # table (exact 128-bit micro-unit contributions)
        "lang_source_chi2": R.lang_source_chi2,
        # GPT-style split-packing accounting: sequences per lang in
        # deterministic hash order (segmented distributed cumsum)
        "sequence_packing_stats": R.sequence_packing_stats,
        # unigram log-probability scoring (perplexity-filter surrogate,
        # integer micro-nats, broadcast count table)
        "unigram_logprob_stats": R.unigram_logprob_stats,
        # per-group regression slope as an exact integer rational
        "grouped_regression_trend": R.grouped_regression_trend,
        # association-rule support over sessions (bitmask pair counts)
        "session_copresence_counts": _session_copresence_counts,
        # time-weighted average value per user (exact rational)
        "user_time_weighted_value": _user_time_weighted_value,
        # incremental view maintenance: late-data backfill recomputes
        # only affected hours, untouched rows served from the
        # materialized copy
        "hourly_backfill_stats": _hourly_backfill_stats,
        # mean-fill missing-data imputation (two-pass broadcast)
        "impute_value_hourly": _impute_value_hourly,
        # SCD type-2 validity intervals from the event log: one row
        # per run of equal consecutive per-user states
        "scd2_state_history": _scd2_state_history,
        # point-in-time state census at the stream midpoint
        "scd2_snapshot_counts": _scd2_snapshot_counts,
        # per-(lang, source) quota: hash-ordered deterministic cap,
        # the class-balancing step of a corpus mix
        "corpus_quota_sample": _corpus_quota_sample,
        # product-quantization encode: code histogram + integer
        # quantization error per (subspace, code)
        "pq_encode_stats": _pq_encode_stats,
        # dense + sparse retrieval fused by reciprocal-rank (RRF),
        # integer parts-per-billion so the fusion is hash-exact
        "hybrid_rrf_topk": _hybrid_rrf_topk,
        # one Lloyd iteration with exact before/after inertia --
        # the iterative-ML convergence ledger, two streamed passes
        "kmeans_iter_stats": _kmeans_iter_stats,
        # leakage-safe leave-one-out target encoding as exact
        # integer rationals (broadcast category sums, no shuffle)
        "loo_target_encoding": _loo_target_encoding,
        # leave-one-out kNN majority-vote eval: exact integer
        # distances, broadcast corpus, confusion-matrix output
        "knn_vote_confusion": _knn_vote_confusion,
        # third ANN tier: training-free hyperplane LSH buckets,
        # Hamming-1 multiprobe, exact re-rank of candidates only
        "lsh_ann_topk": _lsh_ann_topk,
        # mutual information of (lang, source) in integer micro-
        # nats: is provenance entangled with language?
        "lang_source_mi": _lang_source_mi,
        # rendezvous-hash shard map with exact minimal-movement
        # accounting for adding one shard
        "rendezvous_shard_stats": _rendezvous_shard_stats,
        # exact weighted median per group: histogram bisection
        # over weight mass, no global sort
        "weighted_median_by_flag": _weighted_median_by_flag,
        # Z-order (Morton) layout: 2-D range query reads only the
        # prefix partitions that can match; scan count hash-checked
        "zorder_layout_stats": _zorder_layout_stats,
        # exponential-decay popularity counter: integer halving
        # per day of age, exact ppm fixed point
        "decayed_type_popularity": _decayed_type_popularity,
        # migration-day read: two snapshot generations with
        # different schemas normalized into one unioned stream
        "schema_evolution_read_stats": _schema_evolution_read_stats,
        # seasonal-naive forecast baseline: train/holdout by hash,
        # per-(type, hour) integer means, exact MAE
        "seasonal_naive_mae": _seasonal_naive_mae,
        # deterministic A/B arm bucketing with exact per-arm
        # distinct-user conversion rates
        "ab_test_arm_stats": _ab_test_arm_stats,
        # bounce-rate rollup from the sessionization kernel
        "session_bounce_stats": _session_bounce_stats,
        # gaps-and-islands: longest consecutive-day streak per
        # user, rolled into a streak-length histogram
        "activity_streak_stats": _activity_streak_stats,
        # type-ahead index: top completions per 3-char prefix
        "prefix_autocomplete_topk": _prefix_autocomplete_topk,
        # TPC-H-Q5 shape: 6-table join with a post-join equality
        # between two fact-side attributes, two co-partitions
        "local_supplier_volume": _local_supplier_volume,
        # exact Gini concentration via the distributed ranking
        # machinery: O(buckets) exchange, big-int driver fold
        "revenue_gini": _revenue_gini,
        # top within-session 3-step event paths (clickstream nav)
        "top_session_paths": _top_session_paths,
        # exact integer Gram/scatter matrix of the embeddings --
        # the PCA/whitening sufficient statistic, O(d^2) exchange
        "embedding_gram_stats": _embedding_gram_stats,
        # planner-side equi-join cardinality from CM inner product
        # with an exact distributed audit
        "join_size_estimate": _join_size_estimate,
        # power iteration on the distributed Gram statistic:
        # big-int exact, residue-channel hash check
        "gram_power_iteration": _gram_power_iteration,
        # external-sort export: one sorted, non-overlapping file
        # per range bucket = a total order on disk; stats read
        # back from the exported files
        "sorted_export_stats": _sorted_export_stats,
        # LSH blocking evaluation: reduction ratio + precision of
        # the banding stage, both counted distributed
        "minhash_blocking_report": _minhash_blocking_report,
        # one BPE training step: top adjacent within-token char
        # pairs, 65536-cell bincount partials
        "bpe_pair_counts": _bpe_pair_counts,
        # casefold/whitespace normalization dedup tier
        "dedup_normalized_stats": _dedup_normalized_stats,
        # JSONL sink + source round trip under the gate
        "jsonl_roundtrip_stats": _jsonl_roundtrip_stats,
        # largest-remainder sample-budget allocation across strata
        "stratified_allocation_plan": _stratified_allocation_plan,
        # stationary behavior mix: 3 exact power steps over the
        # transition counts, residue channel for the big values
        "markov_stationary_ppm": _markov_stationary_ppm,
        # props vocabulary drift between time halves, ppm shares
        "props_vocab_drift": _props_vocab_drift,
        # the real lexical ranker: BM25 with exact-integer inputs
        # to one mirrored float expression
        "bm25_topk": _bm25_topk,
        # content-defined chunking: rolling-hash boundaries, the
        # chunk-level storage-dedup primitive
        "cdc_chunk_stats": _cdc_chunk_stats,
        # the curation cut list: docs ranked by duplicated-window
        # fraction (exact-substring tier, per-doc rollup)
        "top_duplicated_docs": _top_duplicated_docs,
        # hashing-trick audit: vocabulary collision accounting
        "feature_hashing_report": _feature_hashing_report,
        # Hill heavy-tail index of doc lengths, micro-nat exact
        "doc_length_hill": _doc_length_hill,
        # cold-start audit: users seen ONLY in the held-out split
        "split_user_coverage": _split_user_coverage,
        # Tukey box-plot fences: robust outliers from exact
        # grouped quartiles, all-integer fence arithmetic
        "tukey_outlier_counts": _tukey_outlier_counts,
        # Benford first-significant-digit audit, exact ppm integers
        "benford_digit_audit": _benford_digit_audit,
        # Good-Turing frequency spectrum: users by event count, P0 ppm
        "customer_frequency_spectrum": _customer_frequency_spectrum,
        # Spearman rank correlation of hourly type series, tie-exact
        "spearman_hourly_corr": _spearman_hourly_corr,
        # binned two-sample KS drift: max CDF gap, cross-multiplied ints
        "ks_drift_binned": _ks_drift_binned,
        # Kaplan-Meier product-limit survival, micro-nat ln parity
        "km_user_survival": _km_user_survival,
        # Theil-Sen median-of-pairwise-slopes robust daily trend
        "theilsen_daily_trend": _theilsen_daily_trend,
        # binned skewness/excess-kurtosis shape moments, HUGEINT-exact
        "moment_shape_by_type": _moment_shape_by_type,
        # CUSUM level-shift control chart, integer-scaled recurrence
        "cusum_hourly_alarms": _cusum_hourly_alarms,
        # Gopher-style per-rule quality rejection counts by language
        "gopher_rules_report": _gopher_rules_report,
        # Heaps-law vocabulary growth by first-appearance decile
        "vocab_growth_curve": _vocab_growth_curve,
        # Fano variance-to-mean burstiness of hourly arrivals
        "fano_dispersion_by_type": _fano_dispersion_by_type,
        # Herfindahl-Hirschman source concentration per language
        "hhi_source_concentration": _hhi_source_concentration,
        # empirical-Bayes shrunk purchase-rate leaderboard
        "eb_shrunk_user_rates": _eb_shrunk_user_rates,
        # temperature-scaled multilingual sampling weights (T=0.7)
        "temperature_mix_weights": _temperature_mix_weights,
        # referential-integrity audit: orphan keys per FK edge
        "fk_integrity_audit": _fk_integrity_audit,
        # functional-dependency violation profiling
        "fd_violation_audit": _fd_violation_audit,
        # corpus char-bigram LM entropy in exact micro-nats
        "char_bigram_entropy_by_lang": _char_bigram_entropy_by_lang,
        # BPE-ish vs whitespace tokenizer fertility ratios
        "tokenizer_fertility_by_lang": _tokenizer_fertility_by_lang,
        # lines-per-order fanout histogram (join-skew profile)
        "join_fanout_histogram": _join_fanout_histogram,
        # exact-duplicate cluster size distribution
        "dup_cluster_size_hist": _dup_cluster_size_hist,
        # pairwise cosine between per-source term vectors
        "source_similarity_matrix": _source_similarity_matrix,
        # pinball-loss evaluation of per-cell exact q90 predictors
        "pinball_eval_hourly": _pinball_eval_hourly,
        # inverted-index delta-gap bit-length histogram
        "postings_gap_stats": _postings_gap_stats,
        # binary-segmentation change-point over the hourly series
        "changepoint_binary_split": _changepoint_binary_split,
        # market-basket association rules from user-type bitmasks
        "association_rules": _association_rules,
        # Pearson corr of chars vs tokens from exact integer moments
        "length_quality_corr": _length_quality_corr,
        # exact diurnal p10/p50/p90 bands via grouped histogram bisection
        "value_quantile_bands_hourly": _value_quantile_bands_hourly,
        # lag-1 / lag-24 autocorrelation of the hourly revenue series
        "hourly_autocorrelation": _hourly_autocorrelation,
        # k-anonymity of the (nation, segment) quasi-identifier
        "k_anonymity_audit": _k_anonymity_audit,
        # CUPED variance-reduced A/B readout (Deng et al. WSDM'13)
        "cuped_adjusted_outcomes": _cuped_adjusted_outcomes,
        # one-pass 3x3 quality-filter threshold sweep
        "filter_threshold_grid": _filter_threshold_grid,
        # trailing-24h min/max envelope of hourly revenue
        "rolling_extrema_hourly": _rolling_extrema_hourly,
        # top-1% customer revenue concentration (exact p99 threshold)
        "revenue_topshare": _revenue_topshare,
        # binned 1-D Wasserstein drift between two event types
        "emd_drift_binned": _emd_drift_binned,
        # Mann-Kendall daily-trend test per event type (S, var, tau)
        "mann_kendall_trend": _mann_kendall_trend,
        # Mann-Whitney U / AUC between two return flags on quantity
        "mannwhitney_qty_flags": _mannwhitney_qty_flags,
        # Wilson-score lower-bound leaderboard of high-value rates
        "wilson_lb_types": _wilson_lb_types,
        # NDCG@10 / MRR eval of tf retrieval vs title-proximity labels
        "ndcg_retrieval_eval": _ndcg_retrieval_eval,
        # split-conformal interval coverage per event type
        "conformal_coverage": _conformal_coverage,
        # RLE run counts: shipdate order vs sorted-by-pair layout
        "rle_sort_benefit": _rle_sort_benefit,
        # ledger-vs-detail totals reconciliation (orders vs lineitem)
        "order_lineitem_reconciliation": _order_lineitem_reconciliation,
        # Zipf-law slope fit over the top-100 corpus tokens
        "zipf_slope_tokens": _zipf_slope_tokens,
        # P/R/F1 of the heuristic quality filter vs a length gold label
        "filter_eval_prf": _filter_eval_prf,
        # Cohen's kappa: trigram lang-ID vs the labeled lang column
        "cohens_kappa_langid": _cohens_kappa_langid,
        # Haar wavelet per-level energy of the hourly count series
        "haar_energy_hourly": _haar_energy_hourly,
        # Wald-Wolfowitz above/below-median runs test per event type
        "runs_test_hourly": _runs_test_hourly,
        # Lorenz curve decile table for customer revenue
        "lorenz_deciles": _lorenz_deciles,
        # revenue by (brand, ship year) with YoY growth (dim join)
        "brand_year_revenue": _brand_year_revenue,
        # entropy rate of the event-type Markov chain (micro-nats)
        "markov_entropy_rate": _markov_entropy_rate,
        # integer EWMA one-step forecast MAE (recursive-CTE oracle)
        "ewma_forecast_hourly": _ewma_forecast_hourly,
        # Theil-Sen robust trend: median pairwise hourly slope per type
        "theil_sen_trend_by_type": _theil_sen_trend_by_type,
        # Kaplan-Meier product-limit user survival (right-censored)
        "km_user_survival": _km_user_survival,
        # integer-exact autocorrelation of the hourly revenue series
        "acf_hourly_revenue": _acf_hourly_revenue,
        # zero-filled cross-source shared-text contamination matrix
        "cross_source_dup_matrix": _cross_source_dup_matrix,
        # top-k vocabulary occurrence-coverage curve
        "vocab_coverage_curve": _vocab_coverage_curve,
        # RFM quintile segmentation census of customers
        "rfm_segments": _rfm_segments,
        # truncated-embedding cosine histogram (matryoshka audit)
        "matryoshka_truncation_hist": _matryoshka_truncation_hist,
        # deterministic Poisson-bootstrap error bars for the mean
        "bootstrap_mean_ci": _bootstrap_mean_ci,
        # AMS F2 sketch with in-gate error check vs exact F2
        "ams_f2_estimate": _ams_f2_estimate,
        # hapax legomena share of each source's vocabulary
        "hapax_ratio_by_source": _hapax_ratio_by_source,
        # l-diversity of market segment within nation QI classes
        "l_diversity_audit": _l_diversity_audit,
        # t-closeness: per-(lang,source) EMD of binned n_chars vs global
        "t_closeness_audit": _t_closeness_audit,
        # Hodges-Lehmann pairwise-difference median shift (R vs A)
        "hodges_lehmann_shift": _hodges_lehmann_shift,
        # dictionary-encoding size estimate per categorical column
        "dict_encoding_report": _dict_encoding_report,
        # exact rational label-centroid pairwise distance matrix
        "centroid_distance_matrix": _centroid_distance_matrix,
        # conversion-window funnel (each step within 24h of previous)
        "funnel_windowed_counts": _funnel_windowed_counts,
        # lead-lag cross-correlation between click and purchase series
        "leadlag_xcorr": _leadlag_xcorr,
        # Chapman capture-recapture population estimate vs exact truth
        "capture_recapture_users": _capture_recapture_users,
        # Simpson's-paradox screen: pooled vs per-stratum directions
        "simpsons_flip_report": _simpsons_flip_report,
        # weekday/weekend order mix per priority (epoch-day calendar)
        "weekend_share_by_priority": _weekend_share_by_priority,
        # per-decile quantile treatment effect of the hash A/B split
        "quantile_treatment_effect": _quantile_treatment_effect,
        # prefix-filtered exact set-similarity join (PPJoin family)
        "ppjoin_pairs": _ppjoin_pairs,
        # duplicate-fire retry storm audit per event type
        "retry_storm_stats": _retry_storm_stats,
        # hourly p99 SLO violations + longest burn streak
        "slo_burn_report": _slo_burn_report,
        # exact audience Jaccard matrix between event types
        "audience_overlap_matrix": _audience_overlap_matrix,
        # Kish effective sample size of value weights per type
        "weight_ess_report": _weight_ess_report,
        # delta-method SE for the user-clustered ratio metric per arm
        "ratio_metric_delta": _ratio_metric_delta,
        # Cochran-Armitage trend across ordered priority strata
        "cochran_armitage_trend": _cochran_armitage_trend,
        # McNemar's paired test between two quality filters
        "mcnemar_filters": _mcnemar_filters,
        # order aging buckets by status (AR-style backlog report)
        "order_aging_report": _order_aging_report,
        # allowed-lateness drop curve for watermark tuning
        "watermark_lateness_curve": _watermark_lateness_curve,
        # single-segment learned-index epsilon over the price key
        "learned_index_audit": _learned_index_audit,
        # false-negative rate of hash-chosen contrastive negatives
        "negative_sampling_audit": _negative_sampling_audit,
        # language-mix entropy per source (micro-nats)
        "lang_entropy_by_source": _lang_entropy_by_source,
        # embedding anisotropy per label + global (collapse alarm)
        "embedding_isotropy_report": _embedding_isotropy_report,
        # duplication-fair effective mass per source
        "fair_mass_by_source": _fair_mass_by_source,
        # segment x priority contingency: chi2 + Cramer's V (join)
        "segment_priority_cramers_v": _segment_priority_cramers_v,
        # median-of-means robust mean beside the plain mean
        "median_of_means_value": _median_of_means_value,
        # 7x24 hour-of-week load heatmap with ppm shares
        "hourweek_profile": _hourweek_profile,
        # occurrence-weighted mean global token rank per source
        "lexical_sophistication_by_source": _lexical_sophistication,
        # median / p90 days between consecutive orders per customer
        "interorder_gap_median": _interorder_gap_median,
        # perfectly-regular-gap bot screen (min gap == max gap)
        "metronome_bot_report": _metronome_bot_report,
        # cents-ending distribution of order totals (top 8)
        "price_endings_report": _price_endings_report,
        # held-out add-one bigram LM cross-entropy (micro-nats/token)
        "bigram_lm_perplexity": _bigram_lm_perplexity,
        # Cramer-von Mises drift (squared CDF gaps, big-int exact)
        "cvm_drift_binned": _cvm_drift_binned,
        # pooled two-proportion z-test between the hash arms
        "two_proportion_ztest": _two_proportion_ztest,
        # top-5 most Poisson-surprising (type, hour) cells
        "poisson_surprise_hours": _poisson_surprise_hours,
        # top-5 SAX 3-hour motifs of the hourly load series
        "sax_motif_counts": _sax_motif_counts,
        # returns rate per part brand (broadcast dim join)
        "returns_rate_by_brand": _returns_rate_by_brand,
        # top-5 hours with the most anomalous type MIX (chi2)
        "mix_anomaly_hours": _mix_anomaly_hours,
        # TPC-H Q3: top unshipped orders by revenue (3-table join)
        "tpch_q3_topk": _tpch_q3_topk,
        # TPC-H Q6: forecast revenue change (filter-and-sum scan)
        "tpch_q6_revenue": _tpch_q6_revenue,
        # TPC-H Q4: priority census via EXISTS semi-join
        "tpch_q4_priority_counts": _tpch_q4_priority_counts,
        # TPC-H Q12: high/low priority line counts per status
        "tpch_q12_priority_by_status": _tpch_q12_priority_by_status,
        # TPC-H Q14: promo revenue share (broadcast part dim)
        "tpch_q14_promo_share": _tpch_q14_promo_share,
        # TPC-H Q18: large-volume orders (HAVING + join-back)
        "tpch_q18_large_orders": _tpch_q18_large_orders,
        # TPC-H Q19: disjunctive bracket revenue (one probe, not 3 joins)
        "tpch_q19_bracket_revenue": _tpch_q19_bracket_revenue,
        # TPC-H Q13: order-count histogram with arithmetic zero bucket
        "tpch_q13_custdist": _q13_custdist,
        # TPC-H Q17: small-quantity revenue (two-pass broadcast threshold)
        "tpch_q17_small_qty_revenue": _q17_small_quantity_revenue,
        # TPC-H Q7: two-nation shipping volume by year (disjunctive pair)
        "tpch_q7_volume_shipping": _tpch_q7_volume_shipping,
        # TPC-H Q8: national market share within region+class per year
        "tpch_q8_market_share": _tpch_q8_market_share,
        # TPC-H Q15: top supplier(s) by quarter revenue (tie-safe max)
        "tpch_q15_top_supplier": _tpch_q15_top_supplier,
        # TPC-H Q21: only-failing-supplier on multi-supplier F orders
        "tpch_q21_waiting_supplier": _tpch_q21_waiting_supplier,
        # TPC-H Q22: above-avg balances with no orders, per code
        "tpch_q22_sales_opportunity": _tpch_q22_sales_opportunity,
        # TPC-H Q16: distinct-supplier census per part descriptor
        "tpch_q16_parts_supplier_census": _tpch_q16_parts_supplier_census,
        # TPC-H Q11: grouped aggregate vs global-scalar HAVING
        "tpch_q11_important_parts": _tpch_q11_important_parts,
        # TPC-H Q2: per-part argmin supplier with tie-break join-back
        "tpch_q2_min_cost_supplier": _tpch_q2_min_cost_supplier,
        # TPC-H Q9: revenue-minus-cost profit by nation and year
        "tpch_q9_product_profit": _tpch_q9_product_profit,
        # TPC-H Q20: dominant-supplier semi-join (pair agg vs part total)
        "tpch_q20_dominant_suppliers": _tpch_q20_dominant_suppliers,
        # 5x5 empirical copula of (chars, tokens) quintile buckets
        "length_token_copula_grid": _length_token_copula_grid,
        # EXACT trailing-7d distinct users via coverage diff arrays
        "trailing_distinct_users": _trailing_distinct_users,
        # orders with a lineitem shipped > 60d after order (Q4 shape)
        "late_order_counts": _late_order_counts,
        # daily new vs returning active users
        "new_vs_returning_daily": _new_vs_returning_daily,
        # Laspeyres/Paasche price-vs-volume revenue decomposition
        "price_volume_decomposition": _price_volume_decomposition,
        # type-token-ratio quartiles per language
        "ttr_quantiles_by_lang": _ttr_quantiles_by_lang,
        # top co-purchased part pairs within orders (market basket)
        "copurchase_part_pairs": _copurchase_part_pairs,
        # nation share of its region's supplier balance (hierarchy)
        "nation_share_of_region": _nation_share_of_region,
        # Youden-J optimal token-count cut against the gold label
        "youden_threshold_scan": _youden_threshold_scan,
        # per-user repeat-transition share quartiles (stickiness)
        "stickiness_quantiles": _stickiness_quantiles,
        # zone-map pruning: natural layout vs sorted lower bound
        "zonemap_pruning_audit": _zonemap_pruning_audit,
        # P(session depth >= k) survival curve (30-min gaps)
        "session_depth_survival": _session_depth_survival,
        # leave-one-out 1-NN label consistency of the embeddings
        "loo_1nn_accuracy": _loo_1nn_accuracy,
        # monetary-unit (value-proportional) audit sampling
        "monetary_unit_sample": _monetary_unit_sample,
        # exact-dup clusters straddling the train/test hash split
        "split_leakage_report": _split_leakage_report,
        # top weekday-activity bitmask patterns across users
        "weekday_pattern_census": _weekday_pattern_census,
        # revenue share of parts first sold in the target year
        "new_part_revenue_share": _new_part_revenue_share,
        # first event type of every session (entry-point census)
        "session_entry_types": _session_entry_types,
        # gap-filled weekly revenue with week-over-week ppm
        "weekly_revenue_wow": _weekly_revenue_wow,
        # first-to-last activity span quartiles per user
        "activity_span_quantiles": _activity_span_quantiles,
        # order-priority composition per year (mix-shift chart)
        "priority_mix_by_year": _priority_mix_by_year,
        # ABC inventory classes by cumulative revenue share
        "abc_classification": _abc_classification,
        # fulfillment-lag p50/p90 per priority (order-lineitem join)
        "ship_lag_quantiles_by_priority": _ship_lag_quantiles,
        # daily event-type entropy series (diversity collapse alarm)
        "daily_type_entropy": _daily_type_entropy,
        # parts with the largest year-over-year revenue-rank shifts
        "part_rank_movers": _part_rank_movers,
        # top-3 customer revenue concentration per nation
        "key_account_risk_by_nation": _key_account_risk_by_nation,
        # monthly seasonal index (rev vs the all-month average)
        "monthly_seasonal_index": _monthly_seasonal_index,
        # growth accounting third leg: resurrected users per day
        "resurrected_users_daily": _resurrected_users_daily,
        # weekly revenue per distinct active user (exact ARPU)
        "weekly_arpu": _weekly_arpu,
        # tokens by distinct-adjacent-neighbor count (word graph)
        "token_codegree_topk": _token_codegree_topk,
        # mean discount per quantity bucket (pricing policy audit)
        "discount_by_qty_bucket": _discount_by_qty_bucket,
        # Markov next-event baseline accuracy per previous type
        "markov_next_accuracy": _markov_next_accuracy,
        # out-of-order lateness vs arrival order (distributed prefix max)
        "ooo_lateness_stats": _ooo_lateness_stats,
        # last-touch attribution: conversions credited to the most
        # recent in-window prior touch, deterministic under ts ties
        "last_touch_attribution": _last_touch_attribution,
        # Duffield-Lund-Thorup priority sample: one weighted sample,
        # unbiased subset-sum estimates per priority segment
        "priority_sample_revenue": _priority_sample_revenue,
        # b-bit minwise hashing: masked-register Jaccard estimator
        # audited against the exact shingle Jaccard per pair
        "bbit_minhash_jaccard": _bbit_minhash_jaccard,
        # signed-random-projection (SimHash-for-cosine) angle estimate
        # vs exact cosine over integer-quantized embeddings
        "srp_cosine_hamming": _srp_cosine_hamming,
        # densified one-permutation hashing: one-pass MinHash (the
        # 64x hash-work cut for the 100 TB signature stage), register
        # vector replayed bit-exactly incl. cyclic borrow offsets
        "oph_minhash_densified": _oph_minhash_densified,
        # HyperMinHash: direct Jaccard between big sets at loglog
        # space (2 bytes/bucket), exact Jaccard audited on the row
        "hyperminhash_type_jaccard": _hyperminhash_type_jaccard,
        # weighted-Jaccard MinHash via integer-weight expansion (the
        # bit-replayable alternative to ICWS float gammas); exact
        # capped weighted Jaccard audited on the same row
        "weighted_minhash_pairs": _weighted_minhash_pairs,
    }
    # The driver's correctness sweep samples the FIRST 50 entries
    # (VERDICT r3 item 4): order them so every operator family is in
    # the window -- DDSketch stateless+actor-pool, grouped aggs,
    # tumbling/sliding windows, equi/as-of/range joins, every dedup
    # tier, ANN incl. the written IVF index, HLL/KMV/CMS/Bloom/MG,
    # exact distributed quantiles, sessionization-split, curation,
    # model inference, index search, components, multimodal.
    # Round-5 rotation (VERDICT r4 item 8): 13 slots differ from the
    # r04 window -- grouped-window variants replace their globals, the
    # new DGIM/priority/decode queries enter, and several families
    # rotate to a different member (CMS->decayed, count-sketch->topk
    # confirm, KMV->overlap, MinHash->blocking report, IVF->LSH ANN,
    # range join->nearest order, HLL overlap->HyperMinHash) so
    # successive CORRECTNESS_rN files cumulatively cover the registry.
    head = [
        "dds_price_global", "dds_price_by_flag",
        "dds_event_value_actor_pool", "sliding_window_quantiles_by_type",
        "pricing_summary", "customer_nation_rollup",
        "events_hourly_window", "hll_sliding_users_by_type",
        "events_asof_orders", "events_nearest_order",
        "orders_customer_join_agg", "bloom_semijoin_orders",
        "exact_quantiles_price", "weighted_median_by_flag",
        "distinct_user_count", "hll_distinct_users",
        "hyperminhash_type_jaccard", "kmv_user_overlap",
        "decayed_cms_user_scores", "countsketch_topk_confirm",
        "mg_heavy_users", "top_users_exact",
        "events_sessionized", "events_sessionized_split",
        "priority_sample_by_segment", "props_extract_stats",
        "token_stats_by_lang", "quality_filter_by_lang",
        "lang_id_counts", "dedup_exact_docs", "dedup_exact_keep",
        "minhash_blocking_report", "simhash_neardup_docs",
        "dup_span_stats", "ppjoin_pairs", "embedding_neardup_pairs",
        "neardup_keep_stats", "knn_cosine_topk", "lsh_ann_topk",
        "ivf_knn_written", "sorted_neighborhood_stats",
        "split_assign_stats", "corpus_quota_sample", "token_budget_mix",
        "benchmark_decontamination", "model_score_stats",
        "keyword_search_topk", "bmp_decode_stats",
        "wav_decode_stats", "dgim_sliding_count",
    ]
    assert len(head) == 50 and all(k in q for k in head), \
        [k for k in head if k not in q]
    return {**{k: q[k] for k in head}, **q}


def _session_copresence_counts(sf_dir: str):
    from p2pddsketch_ray.pipelines.temporal import (
        session_copresence_counts)
    return session_copresence_counts(sf_dir)


def _user_time_weighted_value(sf_dir: str):
    from p2pddsketch_ray.pipelines.temporal import user_time_weighted_value
    return user_time_weighted_value(sf_dir)


def _hourly_backfill_stats(sf_dir: str):
    from p2pddsketch_ray.pipelines.temporal import hourly_backfill_stats
    return hourly_backfill_stats(sf_dir)


def _impute_value_hourly(sf_dir: str):
    from p2pddsketch_ray.pipelines.temporal import impute_value_hourly
    return impute_value_hourly(sf_dir)


def _peak_concurrency_stats(sf_dir: str):
    from p2pddsketch_ray.pipelines.temporal import peak_concurrency_stats
    return peak_concurrency_stats(sf_dir)


def _event_transition_matrix(sf_dir: str):
    from p2pddsketch_ray.pipelines.temporal import event_transition_matrix
    return event_transition_matrix(sf_dir)


def _inverted_index_lookup(sf_dir: str):
    from p2pddsketch_ray.pipelines.search import inverted_index_lookup
    return inverted_index_lookup(sf_dir)


def _model_score_stats(sf_dir: str):
    from p2pddsketch_ray.pipelines.inference import model_score_stats
    return model_score_stats(sf_dir)


def _score_lift_report(sf_dir: str):
    from p2pddsketch_ray.pipelines.inference import score_lift_report
    return score_lift_report(sf_dir)


def _brier_decomposition(sf_dir: str):
    from p2pddsketch_ray.pipelines.inference import brier_decomposition
    return brier_decomposition(sf_dir)


def _multimodal_resize(sf_dir: str):
    import ray.data
    from p2pddsketch_ray.stages.multimodal import resize_stats_by_group
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["lang", "text"])
    return resize_stats_by_group(ds, "text", "lang").sort("lang")


def _multimodal_frame_sample(sf_dir: str):
    import ray.data
    from p2pddsketch_ray.stages.multimodal import frame_sample_stats_by_group
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["lang", "text"])
    return frame_sample_stats_by_group(ds, "text", "lang")


def _ngram_jaccard_pairs(sf_dir: str):
    from p2pddsketch_ray.pipelines.dedup import ngram_jaccard_pairs
    return ngram_jaccard_pairs(sf_dir)


def _neardup_components(sf_dir: str):
    from p2pddsketch_ray.pipelines.components import neardup_components
    return neardup_components(sf_dir)


def _pagerank_part_supplier(sf_dir: str):
    from p2pddsketch_ray.pipelines.components import pagerank_part_supplier
    return pagerank_part_supplier(sf_dir)


def _kcore_part_graph(sf_dir: str):
    from p2pddsketch_ray.pipelines.components import kcore_part_graph
    return kcore_part_graph(sf_dir)


def _frequent_directions_embed(sf_dir: str):
    from p2pddsketch_ray.pipelines.knn import frequent_directions_embed
    return frequent_directions_embed(sf_dir)


def _dgim_sliding_count(sf_dir: str):
    from p2pddsketch_ray.pipelines.sliding import dgim_sliding_count
    return dgim_sliding_count(sf_dir)


def _dgim_sliding_count_by_type(sf_dir: str):
    from p2pddsketch_ray.pipelines.sliding import (
        dgim_sliding_count_by_type)
    return dgim_sliding_count_by_type(sf_dir)


def _cmm_user_counts(sf_dir: str):
    from p2pddsketch_ray.pipelines.approx import cmm_user_counts
    return cmm_user_counts(sf_dir)


def _priority_sample_by_segment(sf_dir: str):
    from p2pddsketch_ray.pipelines.approx import (
        priority_sample_by_segment)
    return priority_sample_by_segment(sf_dir)


def _copresence_triangles(sf_dir: str):
    from p2pddsketch_ray.pipelines.components import copresence_triangles
    return copresence_triangles(sf_dir)


def _copresence_assortativity(sf_dir: str):
    from p2pddsketch_ray.pipelines.components import (
        copresence_assortativity)
    return copresence_assortativity(sf_dir)


def _neardup_keep_stats(sf_dir: str):
    from p2pddsketch_ray.pipelines.components import neardup_keep_stats
    return neardup_keep_stats(sf_dir)


def _simhash_signatures(sf_dir: str):
    from p2pddsketch_ray.pipelines.dedup import simhash_signatures
    return simhash_signatures(sf_dir)


def _minhash_signature_stats(sf_dir: str):
    from p2pddsketch_ray.pipelines.dedup import minhash_signature_stats
    return minhash_signature_stats(sf_dir)


def _sketch_cdf_by_type(sf_dir: str):
    from p2pddsketch_ray.pipelines.quantiles import sketch_cdf_by_type
    return sketch_cdf_by_type(sf_dir, alpha=ALPHA, bin_limit=BIN_LIMIT)


def _weighted_median_by_flag(sf_dir: str):
    from p2pddsketch_ray.pipelines.quantiles import weighted_median_by_flag
    return weighted_median_by_flag(sf_dir)


def _hll_sliding_users(sf_dir: str):
    from p2pddsketch_ray.pipelines.sliding import hll_sliding_users
    return hll_sliding_users(sf_dir)


def _cms_sliding_user_est(sf_dir: str):
    from p2pddsketch_ray.pipelines.sliding import cms_sliding_user_est
    return cms_sliding_user_est(sf_dir)


def _dds_decayed_value(sf_dir: str):
    from p2pddsketch_ray.pipelines.sliding import dds_decayed_value
    # BIN_LIMIT=2048 keeps the no-collapse convention every dds_*
    # oracle assumes (the SQL twin emulates no bucket collapse)
    return dds_decayed_value(sf_dir, alpha=ALPHA, bin_limit=BIN_LIMIT)


def _cms_sliding_by_type(sf_dir: str):
    from p2pddsketch_ray.pipelines.sliding import (
        cms_sliding_user_est_by_type)
    return cms_sliding_user_est_by_type(sf_dir)


def _sliding_anomaly_counts(sf_dir: str):
    from p2pddsketch_ray.pipelines.sliding import sliding_anomaly_counts
    return sliding_anomaly_counts(sf_dir, alpha=ALPHA, bin_limit=BIN_LIMIT)


def _drift_stats_pairs(sf_dir: str):
    from p2pddsketch_ray.pipelines.quantiles import drift_stats_pairs
    return drift_stats_pairs(sf_dir, alpha=ALPHA, bin_limit=BIN_LIMIT)


def _mad_by_flag(sf_dir: str):
    from p2pddsketch_ray.pipelines.quantiles import mad_by_flag
    return mad_by_flag(sf_dir, alpha=ALPHA, bin_limit=BIN_LIMIT)


def _quantile_error_report(sf_dir: str):
    from p2pddsketch_ray.pipelines.quantiles import quantile_error_report
    return quantile_error_report(sf_dir, alpha=ALPHA,
                                 bin_limit=BIN_LIMIT)


def _dds_rollup_lang_source(sf_dir: str):
    from p2pddsketch_ray.pipelines.quantiles import dds_rollup_lang_source
    return dds_rollup_lang_source(sf_dir, alpha=ALPHA,
                                  bin_limit=BIN_LIMIT)


def _user_running_totals(sf_dir: str):
    from p2pddsketch_ray.pipelines.temporal import user_running_totals
    return user_running_totals(sf_dir)


def _user_moving_window(sf_dir: str):
    from p2pddsketch_ray.pipelines.temporal import user_moving_window
    return user_moving_window(sf_dir)


def _user_event_sequences(sf_dir: str):
    from p2pddsketch_ray.pipelines.temporal import user_event_sequences
    return user_event_sequences(sf_dir)


def _funnel_counts(sf_dir: str):
    from p2pddsketch_ray.pipelines.temporal import funnel_counts
    return funnel_counts(sf_dir)


def _cohort_retention(sf_dir: str):
    from p2pddsketch_ray.pipelines.temporal import cohort_retention
    return cohort_retention(sf_dir)


def _active_user_counts(sf_dir: str):
    from p2pddsketch_ray.pipelines.temporal import active_user_counts
    return active_user_counts(sf_dir)


def _dds_weighted_price(sf_dir: str):
    import ray.data
    from p2pddsketch_ray.pipelines.quantiles import dds_quantiles_global
    ds = ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                               columns=["l_extendedprice", "l_quantity"])
    return dds_quantiles_global(ds, "l_extendedprice", QS,
                                weight_col="l_quantity", alpha=ALPHA,
                                bin_limit=BIN_LIMIT, round_digits=6)


def _winnow_fingerprint_stats(sf_dir: str):
    from p2pddsketch_ray.pipelines.fingerprint import (
        winnow_fingerprint_stats)
    return winnow_fingerprint_stats(sf_dir)


def _exact_quantiles_price(sf_dir: str):
    import ray.data
    from p2pddsketch_ray.pipelines.quantiles import exact_quantiles
    ds = ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                               columns=["l_extendedprice"])
    # collect_limit=5000 forces a real bisection round even at sf0.01
    # (the 100 TB default is 2M candidates ~ one driver-sized block)
    return exact_quantiles(ds, "l_extendedprice",
                           (0.01, 0.25, 0.5, 0.75, 0.99),
                           collect_limit=5000)


def _exact_quantiles_by_flag(sf_dir: str):
    import ray.data
    from p2pddsketch_ray.pipelines.quantiles import exact_quantiles_grouped
    ds = ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                               columns=["l_returnflag", "l_extendedprice"])
    return exact_quantiles_grouped(ds, "l_extendedprice", "l_returnflag",
                                   (0.25, 0.5, 0.75), collect_limit=2000)


def _events_asof_orders(sf_dir: str):
    from p2pddsketch_ray.pipelines.temporal import events_asof_orders
    return events_asof_orders(sf_dir)


def _events_nearest_order(sf_dir: str):
    from p2pddsketch_ray.pipelines.temporal import events_nearest_order
    return events_nearest_order(sf_dir)


def _chunk_dedup_stats(sf_dir: str):
    from p2pddsketch_ray.pipelines.dedup import chunk_dedup_stats
    return chunk_dedup_stats(sf_dir)


def _neardup_keep_best_quality(sf_dir: str):
    from p2pddsketch_ray.pipelines.components import \
        neardup_keep_best_quality
    return neardup_keep_best_quality(sf_dir)


def _orders_asof_next_event(sf_dir: str):
    from p2pddsketch_ray.pipelines.temporal import orders_asof_next_event
    return orders_asof_next_event(sf_dir)


def _trailing_top_user_hourly(sf_dir: str):
    from p2pddsketch_ray.pipelines.temporal import trailing_top_user_hourly
    return trailing_top_user_hourly(sf_dir)


def _debounced_event_counts(sf_dir: str):
    from p2pddsketch_ray.pipelines.temporal import debounced_event_counts
    return debounced_event_counts(sf_dir)


def _value_ohlc_hourly(sf_dir: str):
    from p2pddsketch_ray.pipelines.temporal import value_ohlc_hourly
    return value_ohlc_hourly(sf_dir)


def _orders_event_window_stats(sf_dir: str):
    from p2pddsketch_ray.pipelines.temporal import orders_event_window_stats
    return orders_event_window_stats(sf_dir)


def _user_event_lag_stats(sf_dir: str):
    from p2pddsketch_ray.pipelines.temporal import user_event_lag_stats
    return user_event_lag_stats(sf_dir)


def _minhash_neardup_docs(sf_dir: str):
    import ray.data
    from p2pddsketch_ray.pipelines.dedup import minhash_near_dups
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    return minhash_near_dups(ds, "doc_id", "text", threshold=0.7)


def _simhash_neardup_docs(sf_dir: str):
    import ray.data
    from p2pddsketch_ray.pipelines.dedup import simhash_near_dups
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    return simhash_near_dups(ds, "doc_id", "text", max_hamming=3)


def _embedding_neardup_pairs(sf_dir: str):
    from p2pddsketch_ray.pipelines.dedup import embedding_near_dup_pairs
    # n_assign=None probes all clusters: exact (parity mode) so the SQL
    # all-pairs oracle matches; the pipeline's scale default is 2
    return embedding_near_dup_pairs(sf_dir, threshold=0.3, n_assign=None)


def _levenshtein_verify_pairs(sf_dir: str):
    from p2pddsketch_ray.pipelines.dedup import levenshtein_verify_pairs
    return levenshtein_verify_pairs(sf_dir)


def _sorted_neighborhood_stats(sf_dir: str):
    from p2pddsketch_ray.pipelines.dedup import sorted_neighborhood_stats
    return sorted_neighborhood_stats(sf_dir)


def _reciprocal_nn_pairs(sf_dir: str):
    from p2pddsketch_ray.pipelines.knn import reciprocal_nn_pairs
    return reciprocal_nn_pairs(sf_dir)


def _ivf_knn_exhaustive(sf_dir: str):
    import numpy as np
    import pyarrow.parquet as pq
    import ray.data
    from p2pddsketch_ray.pipelines.knn import IVFIndex
    emb = pq.read_table(f"{sf_dir}/embeddings.parquet",
                        columns=["vec_id", "embedding"])
    query = np.asarray(
        emb.filter(__import__("pyarrow").compute.equal(emb["vec_id"], 0))
        ["embedding"][0].as_py(), dtype=np.float64)
    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    index = IVFIndex.build(ds, n_clusters=8, seed=42)
    return index.search(query, k=10, n_probe=8)


def _hard_negative_topk(sf_dir: str):
    from p2pddsketch_ray.pipelines.knn import hard_negative_topk
    return hard_negative_topk(sf_dir)


def _ivf_knn_written(sf_dir: str):
    import shutil
    import numpy as np
    import pyarrow.parquet as pq
    import ray.data
    from p2pddsketch_ray.pipelines.knn import IVFIndex
    emb = pq.read_table(f"{sf_dir}/embeddings.parquet",
                        columns=["vec_id", "embedding"])
    query = np.asarray(
        emb.filter(__import__("pyarrow").compute.equal(emb["vec_id"], 0))
        ["embedding"][0].as_py(), dtype=np.float64)
    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    path = "/tmp/p2pdds_gate/ivf_index"
    shutil.rmtree(path, ignore_errors=True)
    IVFIndex.build(ds, n_clusters=8, seed=42).write(path)
    index = IVFIndex.open(path)   # reads ONLY probed partition files
    return index.search(query, k=10, n_probe=8)


def _tdigest_quantiles_price(sf_dir: str):
    import pyarrow as pa
    import ray.data
    from p2pddsketch_ray.sketches.tdigest import TDigest
    from p2pddsketch_ray.stages.generic_build import build_and_merge
    ds = ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                               columns=["l_extendedprice"])

    def add(s, t):
        s.add_batch(t["l_extendedprice"].to_numpy(zero_copy_only=False))

    td = build_and_merge(ds, ["l_extendedprice"],
                         lambda: TDigest(compression=100), add)
    qs = [0.5, 0.95, 0.99]
    ests = [td.quantile(q) for q in qs]
    # distributed exact-rank self-check: a broken/mis-merged digest fails
    # the gate here instead of silently emitting bad rows (rows-only query)
    from p2pddsketch_ray.pipelines.quantiles import rank_errors
    errs = rank_errors(ds, "l_extendedprice", qs, ests, max_rank_err=0.05)
    return pa.table({"q": pa.array(qs, type=pa.float64()),
                     "est": pa.array(ests, type=pa.float64()),
                     "rank_err": pa.array([round(e, 6) for e in errs],
                                          type=pa.float64())})


def _sliding_window_quantiles(sf_dir: str):
    import pyarrow as pa
    import pyarrow.compute as pcc
    import ray.data
    from p2pddsketch_ray.pipelines.sliding import sliding_window_quantiles
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["ts", "value"])
    out = sliding_window_quantiles(ds, "ts", "value", window_hours=24,
                                   quantiles=QS, alpha=ALPHA,
                                   bin_limit=BIN_LIMIT)
    return pa.table({
        "window_end": out["window_end"],
        "q": out["q"],
        "est": pa.array([round(v, 6) for v in out["est"].to_pylist()],
                        type=pa.float64()),
        "n": pcc.cast(out["n"], pa.int64()),
    })


def _sliding_window_quantiles_by_type(sf_dir: str):
    import pyarrow as pa
    import pyarrow.compute as pcc
    import ray.data
    from p2pddsketch_ray.pipelines.sliding import (
        sliding_window_quantiles_grouped)
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["ts", "value", "event_type"])
    out = sliding_window_quantiles_grouped(
        ds, "ts", "value", "event_type", window_hours=24, quantiles=QS,
        alpha=ALPHA, bin_limit=BIN_LIMIT)
    return pa.table({
        "event_type": out["event_type"],
        "window_end": out["window_end"],
        "q": out["q"],
        "est": pa.array([round(v, 6) for v in out["est"].to_pylist()],
                        type=pa.float64()),
        "n": pcc.cast(out["n"], pa.int64()),
    })


def _hll_sliding_users_by_type(sf_dir: str):
    from p2pddsketch_ray.pipelines.sliding import hll_sliding_users_grouped
    return hll_sliding_users_grouped(sf_dir, "event_type")


def _bmp_decode_stats(sf_dir: str):
    from p2pddsketch_ray.stages.multimodal import bmp_decode_stats
    return bmp_decode_stats(sf_dir)


def _wav_decode_stats(sf_dir: str):
    from p2pddsketch_ray.stages.multimodal import wav_decode_stats
    return wav_decode_stats(sf_dir)


def _ppm_resize_checksum(sf_dir: str):
    from p2pddsketch_ray.stages.multimodal import ppm_resize_checksum
    return ppm_resize_checksum(sf_dir)


def _weighted_minhash_pairs(sf_dir: str):
    from p2pddsketch_ray.pipelines.dedup import weighted_minhash_pairs
    return weighted_minhash_pairs(sf_dir)


def _multimodal_doc_features(sf_dir: str):
    import ray.data
    from p2pddsketch_ray.stages.multimodal import binary_features_by_group
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["lang", "text"])
    out = binary_features_by_group(ds, "text", "lang")
    # the oracle checks the SQL-replicable plumbing columns; the decoder
    # feature vector is asserted in tests (not SQL-expressible)
    return out.map_batches(lambda t: t.drop_columns(["mean_features"]),
                           batch_format="pyarrow")


def _kll_quantiles_price(sf_dir: str):
    import pyarrow as pa
    import ray.data
    from p2pddsketch_ray.sketches.kll import KLLSketch
    from p2pddsketch_ray.stages.generic_build import build_and_merge
    ds = ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                               columns=["l_extendedprice"])

    def add(s, t):
        s.add_batch(t["l_extendedprice"].to_numpy(zero_copy_only=False))

    kll = build_and_merge(ds, ["l_extendedprice"],
                          lambda: KLLSketch(k=200, seed=7), add)
    qs = [0.5, 0.95, 0.99]
    ests = [kll.quantile(q) for q in qs]
    # distributed exact-rank self-check (see _tdigest_quantiles_price)
    from p2pddsketch_ray.pipelines.quantiles import rank_errors
    errs = rank_errors(ds, "l_extendedprice", qs, ests, max_rank_err=0.05)
    return pa.table({"q": pa.array(qs, type=pa.float64()),
                     "est": pa.array(ests, type=pa.float64()),
                     "rank_err": pa.array([round(e, 6) for e in errs],
                                          type=pa.float64())})


# ---------------------------------------------------------------------------
# oracle SQL
# ---------------------------------------------------------------------------

def _dds_sql(table: str, col: str, group: str | None = None,
             weight: str | None = None) -> str:
    """DuckDB replica of the DDSketch pipeline: identical bucket keys
    (ceil(ln x/ln gamma) +/- offset, sign-mirrored, 0 -> 0), identical
    cumulative walk (first key whose running count exceeds q*(n-1)),
    identical midpoint estimate 2*gamma^m/(gamma+1), rounded to 6.
    ``weight`` swaps per-key counts for per-key weight sums (exact for
    integer-valued weights: both sides sum them exactly in float64)."""
    g = GAMMA_SQL
    qs_values = ", ".join(f"({q})" for q in QS)
    w_src = (f", CAST({weight} AS DOUBLE) AS w" if weight else "")
    w_sum = (f"sum(w)" if weight else "CAST(count(*) AS DOUBLE)")
    if group is None:
        return f"""
WITH src AS (SELECT CAST({col} AS DOUBLE) AS x{w_src} FROM {table} WHERE {col} IS NOT NULL),
keyed AS (SELECT CASE WHEN x > 0 THEN CAST(ceil(ln(x)/ln({g})) AS BIGINT) + {OFFSET}
                      WHEN x < 0 THEN -CAST(ceil(ln(-x)/ln({g})) AS BIGINT) - {OFFSET}
                      ELSE 0 END AS k{', w' if weight else ''} FROM src),
bins AS (SELECT k, {w_sum} AS c FROM keyed GROUP BY k),
tot AS (SELECT sum(c) AS n FROM bins),
walk AS (SELECT k, sum(c) OVER (ORDER BY k) AS cum FROM bins),
qs(q) AS (VALUES {qs_values}),
pick AS (SELECT qs.q AS q, min(walk.k) AS bucket_key
         FROM qs CROSS JOIN walk CROSS JOIN tot
         WHERE walk.cum > qs.q * (tot.n - 1) GROUP BY qs.q)
SELECT q, bucket_key,
       round(CASE WHEN bucket_key > 0 THEN 2*pow({g}, bucket_key - {OFFSET})/({g}+1)
                  WHEN bucket_key < 0 THEN -2*pow({g}, -bucket_key - {OFFSET})/({g}+1)
                  ELSE 0.0 END, 6) AS est
FROM pick"""
    return f"""
WITH src AS (SELECT {group} AS grp, CAST({col} AS DOUBLE) AS x
             FROM {table} WHERE {col} IS NOT NULL),
keyed AS (SELECT grp, CASE WHEN x > 0 THEN CAST(ceil(ln(x)/ln({g})) AS BIGINT) + {OFFSET}
                           WHEN x < 0 THEN -CAST(ceil(ln(-x)/ln({g})) AS BIGINT) - {OFFSET}
                           ELSE 0 END AS k FROM src),
bins AS (SELECT grp, k, CAST(count(*) AS DOUBLE) AS c FROM keyed GROUP BY grp, k),
tot AS (SELECT grp, sum(c) AS n FROM bins GROUP BY grp),
walk AS (SELECT grp, k, sum(c) OVER (PARTITION BY grp ORDER BY k) AS cum FROM bins),
qs(q) AS (VALUES {qs_values}),
pick AS (SELECT walk.grp AS grp, qs.q AS q, min(walk.k) AS bucket_key
         FROM qs CROSS JOIN walk JOIN tot ON walk.grp = tot.grp
         WHERE walk.cum > qs.q * (tot.n - 1) GROUP BY walk.grp, qs.q)
SELECT grp AS {group}, q, bucket_key,
       round(CASE WHEN bucket_key > 0 THEN 2*pow({g}, bucket_key - {OFFSET})/({g}+1)
                  WHEN bucket_key < 0 THEN -2*pow({g}, -bucket_key - {OFFSET})/({g}+1)
                  ELSE 0.0 END, 6) AS est
FROM pick"""


def _lang_score_parts() -> tuple[str, str, str]:
    """Shared pieces of the trigram lang-ID SQL replica: per-language
    score columns (strlen/replace arithmetic == pc.count_substring,
    byte-verified in tests/test_oracle_parity.py), the greatest()
    expression, and the argmax CASE with first-in-alphabetical-order
    tie-break (mirroring np.argmax's first-max)."""
    from p2pddsketch_ray.functions.text import _LANG_TRIGRAMS
    langs = sorted(_LANG_TRIGRAMS)

    def count_expr(tri: str) -> str:
        esc = tri.replace("'", "''")
        blen = len(tri.encode("utf-8"))
        return f"(strlen(t)-strlen(replace(t,'{esc}','')))//{blen}"

    score_cols = ",\n  ".join(
        " + ".join(count_expr(tri) for tri in _LANG_TRIGRAMS[lang])
        + f" AS s_{lang}" for lang in langs)
    gmax = "greatest(" + ", ".join(f"s_{lg}" for lg in langs) + ")"
    case = " ".join(f"WHEN s_{lg} = m THEN '{lg}'" for lg in langs)
    return score_cols, gmax, case


def _lang_id_sql() -> str:
    """SQL replica of functions.text.lang_id -> predicted-language
    histogram."""
    score_cols, gmax, case = _lang_score_parts()
    return f"""
WITH lt AS (SELECT lower(text) AS t FROM documents),
s AS (SELECT
  {score_cols}
FROM lt),
g AS (SELECT *, {gmax} AS m FROM s)
SELECT CASE {case} END AS pred_lang, count(*) AS n_docs
FROM g GROUP BY pred_lang"""


def _kappa_sql() -> str:
    """Cohen's kappa between the trigram lang-ID prediction and the
    labeled lang column -- integer cross-multiplied, sign-safe."""
    score_cols, gmax, case = _lang_score_parts()
    return f"""
WITH lt AS (SELECT lower(text) AS t, lang FROM documents),
s AS (SELECT lang,
  {score_cols}
FROM lt),
g AS (SELECT *, {gmax} AS m FROM s),
p AS (SELECT lang AS true_lang, CASE {case} END AS pred_lang FROM g),
conf AS (SELECT true_lang, pred_lang, CAST(count(*) AS BIGINT) AS n
         FROM p GROUP BY 1, 2),
tot AS (SELECT CAST(sum(n) AS BIGINT) AS n_docs,
               CAST(COALESCE(sum(CASE WHEN true_lang = pred_lang
                                      THEN n END), 0) AS BIGINT)
                 AS n_agree
        FROM conf),
r AS (SELECT true_lang AS lg, CAST(sum(n) AS BIGINT) AS rn
      FROM conf GROUP BY 1),
c AS (SELECT pred_lang AS lg, CAST(sum(n) AS BIGINT) AS cn
      FROM conf GROUP BY 1),
pe AS (SELECT CAST(COALESCE(sum(r.rn * c.cn), 0) AS BIGINT) AS pe_num
       FROM r JOIN c USING (lg))
SELECT tot.n_docs, tot.n_agree,
       CAST(tot.n_agree * 1000000 // tot.n_docs AS BIGINT)
         AS accuracy_ppm,
       pe.pe_num,
       CAST(CASE WHEN tot.n_docs * tot.n_docs - pe.pe_num = 0 THEN 0
                 WHEN tot.n_docs * tot.n_agree - pe.pe_num < 0
                 THEN -((-(tot.n_docs * tot.n_agree - pe.pe_num))
                        * 1000000
                        // (tot.n_docs * tot.n_docs - pe.pe_num))
                 ELSE (tot.n_docs * tot.n_agree - pe.pe_num) * 1000000
                      // (tot.n_docs * tot.n_docs - pe.pe_num)
            END AS BIGINT) AS kappa_ppm
FROM tot, pe"""


def oracle_sql() -> dict[str, str]:
    from p2pddsketch_ray.functions.text import STOPWORDS
    from p2pddsketch_ray.pipelines.inference import (BRIER_DECOMP_SQL,
                                                     MODEL_SCORE_SQL,
                                                     SCORE_LIFT_SQL)
    stoplist = ",".join(f"'{w}'" for w in STOPWORDS)

    return {
        "model_score_stats": MODEL_SCORE_SQL,
        "score_lift_report": SCORE_LIFT_SQL,
        "brier_decomposition": BRIER_DECOMP_SQL,
        "pmi_bigrams_topk": _PMI_BIGRAMS_SQL,
        "bigram_lm_by_lang": _BIGRAM_LM_BY_LANG_SQL,
        "embedding_covariance_topk": _EMBEDDING_COVARIANCE_SQL,
        "hash_sample_orders": _HASH_SAMPLE_ORDERS_SQL,
        "weighted_doc_sample": _WEIGHTED_DOC_SAMPLE_SQL,
        "global_order_ranks": _GLOBAL_RANKS_SQL,
        "inverted_index_lookup": _INVERTED_INDEX_SQL,
        "nearest_centroid_confusion": _NEAREST_CENTROID_SQL,
        "knn_batch_queries": _KNN_BATCH_SQL,
        "event_transition_matrix": _EVENT_TRANSITION_SQL,
        "incremental_dedup_stats": _INCREMENTAL_DEDUP_SQL,
        "compact_small_files_stats": _COMPACTION_SQL,
        "zscore_outlier_counts": _ZSCORE_OUTLIER_SQL,
        "value_histogram_by_type": _VALUE_HISTOGRAM_SQL,
        "salted_join_rollup": _SALTED_JOIN_SQL,
        "peak_concurrency_stats": _PEAK_CONCURRENCY_SQL,
        "lang_source_chi2": _LANG_SOURCE_CHI2_SQL,
        "sequence_packing_stats": _SEQUENCE_PACKING_SQL,
        "unigram_logprob_stats": _UNIGRAM_LOGPROB_SQL,
        "grouped_regression_trend": _GROUPED_REGRESSION_SQL,
        "session_copresence_counts": _SESSION_COPRESENCE_SQL,
        "user_time_weighted_value": _USER_TWA_SQL,
        "hourly_backfill_stats": _HOURLY_BACKFILL_SQL,
        "impute_value_hourly": _IMPUTE_VALUE_SQL,
        "scd2_state_history": _SCD2_STATE_HISTORY_SQL,
        "scd2_snapshot_counts": _SCD2_SNAPSHOT_SQL,
        "corpus_quota_sample": _CORPUS_QUOTA_SQL,
        "pq_encode_stats": _PQ_ENCODE_SQL,
        "hybrid_rrf_topk": _HYBRID_RRF_SQL,
        "kmeans_iter_stats": _KMEANS_ITER_SQL,
        "loo_target_encoding": _LOO_TARGET_ENCODING_SQL,
        "knn_vote_confusion": _KNN_VOTE_SQL,
        "reciprocal_nn_pairs": _RECIPROCAL_NN_SQL,
        "sorted_neighborhood_stats": _SORTED_NEIGHBORHOOD_SQL,
        "levenshtein_verify_pairs": _LEVENSHTEIN_VERIFY_SQL,
        "lsh_ann_topk": _LSH_ANN_SQL,
        "lang_source_mi": _LANG_SOURCE_MI_SQL,
        "rendezvous_shard_stats": _RENDEZVOUS_SHARD_SQL,
        "weighted_median_by_flag": _WEIGHTED_MEDIAN_SQL,
        "zorder_layout_stats": _ZORDER_LAYOUT_SQL,
        "decayed_type_popularity": _DECAYED_POPULARITY_SQL,
        "schema_evolution_read_stats": _SCHEMA_EVOLUTION_SQL,
        "seasonal_naive_mae": _SEASONAL_NAIVE_MAE_SQL,
        "ab_test_arm_stats": _AB_TEST_ARM_SQL,
        "session_bounce_stats": _SESSION_BOUNCE_SQL,
        "activity_streak_stats": _ACTIVITY_STREAK_SQL,
        "prefix_autocomplete_topk": _PREFIX_AUTOCOMPLETE_SQL,
        "local_supplier_volume": _LOCAL_SUPPLIER_VOLUME_SQL,
        "revenue_gini": _REVENUE_GINI_SQL,
        "top_session_paths": _TOP_SESSION_PATHS_SQL,
        "embedding_gram_stats": _EMBEDDING_GRAM_SQL,
        "join_size_estimate": _JOIN_SIZE_ESTIMATE_SQL,
        "gram_power_iteration": _GRAM_POWER_ITERATION_SQL,
        "sorted_export_stats": _SORTED_EXPORT_SQL,
        "minhash_blocking_report": _MINHASH_BLOCKING_SQL,
        "bpe_pair_counts": _BPE_PAIR_SQL,
        "dedup_normalized_stats": _DEDUP_NORMALIZED_SQL,
        "jsonl_roundtrip_stats": _JSONL_ROUNDTRIP_SQL,
        "stratified_allocation_plan": _STRATIFIED_ALLOCATION_SQL,
        "markov_stationary_ppm": _MARKOV_STATIONARY_SQL,
        "props_vocab_drift": _PROPS_VOCAB_DRIFT_SQL,
        "bm25_topk": _BM25_TOPK_SQL,
        "cdc_chunk_stats": _CDC_CHUNK_SQL,
        "top_duplicated_docs": _TOP_DUPLICATED_SQL,
        "feature_hashing_report": _FEATURE_HASHING_SQL,
        "doc_length_hill": _DOC_LENGTH_HILL_SQL,
        "split_user_coverage": _SPLIT_USER_COVERAGE_SQL,
        "tukey_outlier_counts": _TUKEY_OUTLIER_SQL,
        "benford_digit_audit": _BENFORD_DIGIT_SQL,
        "customer_frequency_spectrum": _CUSTOMER_FREQUENCY_SPECTRUM_SQL,
        "spearman_hourly_corr": _SPEARMAN_HOURLY_SQL,
        "ks_drift_binned": _KS_DRIFT_SQL,
        "km_user_survival": _KM_SURVIVAL_SQL,
        "theilsen_daily_trend": _THEILSEN_TREND_SQL,
        "moment_shape_by_type": _MOMENT_SHAPE_SQL,
        "cusum_hourly_alarms": _CUSUM_HOURLY_SQL,
        "vocab_growth_curve": _VOCAB_GROWTH_SQL,
        "fano_dispersion_by_type": _FANO_DISPERSION_SQL,
        "hhi_source_concentration": _HHI_SOURCE_SQL,
        "eb_shrunk_user_rates": _EB_SHRUNK_SQL,
        "temperature_mix_weights": _TEMPERATURE_MIX_SQL,
        "fk_integrity_audit": _FK_INTEGRITY_SQL,
        "fd_violation_audit": _FD_VIOLATION_SQL,
        "char_bigram_entropy_by_lang": _CHAR_BIGRAM_ENTROPY_SQL,
        "tokenizer_fertility_by_lang": _TOKENIZER_FERTILITY_SQL,
        "join_fanout_histogram": _JOIN_FANOUT_SQL,
        "dup_cluster_size_hist": _DUP_CLUSTER_SIZE_SQL,
        "source_similarity_matrix": _SOURCE_SIMILARITY_SQL,
        "pinball_eval_hourly": _PINBALL_EVAL_SQL,
        "postings_gap_stats": _POSTINGS_GAP_SQL,
        "changepoint_binary_split": _CHANGEPOINT_SQL,
        "association_rules": _ASSOCIATION_RULES_SQL,
        "length_quality_corr": _LENGTH_QUALITY_CORR_SQL,
        "value_quantile_bands_hourly": _QUANTILE_BANDS_HOURLY_SQL,
        "hourly_autocorrelation": _HOURLY_AUTOCORR_SQL,
        "k_anonymity_audit": _K_ANONYMITY_SQL,
        "cuped_adjusted_outcomes": _CUPED_SQL,
        "filter_threshold_grid": _FILTER_GRID_SQL,
        "rolling_extrema_hourly": _ROLLING_EXTREMA_SQL,
        "revenue_topshare": _REVENUE_TOPSHARE_SQL,
        "emd_drift_binned": _EMD_DRIFT_SQL,
        "mann_kendall_trend": _MANN_KENDALL_SQL,
        "mannwhitney_qty_flags": _MANNWHITNEY_SQL,
        "wilson_lb_types": _WILSON_LB_SQL,
        "ndcg_retrieval_eval": _NDCG_EVAL_SQL,
        "conformal_coverage": _CONFORMAL_SQL,
        "rle_sort_benefit": _RLE_SORT_BENEFIT_SQL,
        "order_lineitem_reconciliation": _ORDER_RECONCILIATION_SQL,
        "zipf_slope_tokens": _ZIPF_SLOPE_SQL,
        "filter_eval_prf": _FILTER_EVAL_PRF_SQL,
        "cohens_kappa_langid": _kappa_sql(),
        "haar_energy_hourly": _haar_energy_sql(),
        "runs_test_hourly": _RUNS_TEST_SQL,
        "lorenz_deciles": _LORENZ_DECILES_SQL,
        "brand_year_revenue": _BRAND_YEAR_REVENUE_SQL,
        "markov_entropy_rate": _MARKOV_ENTROPY_SQL,
        "ewma_forecast_hourly": _EWMA_FORECAST_SQL,
        "theil_sen_trend_by_type": _THEIL_SEN_SQL,
        "km_user_survival": _KM_SURVIVAL_SQL.format(censor_hours=72),
        "acf_hourly_revenue": _ACF_HOURLY_SQL,
        "cross_source_dup_matrix": _CROSS_SOURCE_DUP_SQL,
        "vocab_coverage_curve": _VOCAB_COVERAGE_SQL,
        "rfm_segments": _RFM_SEGMENTS_SQL,
        "matryoshka_truncation_hist": _MATRYOSHKA_HIST_SQL,
        "bootstrap_mean_ci": _BOOTSTRAP_MEAN_SQL,
        "ams_f2_estimate": _AMS_F2_SQL,
        "hapax_ratio_by_source": _HAPAX_RATIO_SQL,
        "l_diversity_audit": _L_DIVERSITY_SQL,
        "t_closeness_audit": _T_CLOSENESS_SQL,
        "hodges_lehmann_shift": _HODGES_LEHMANN_SQL,
        "dict_encoding_report": _DICT_ENCODING_SQL,
        "centroid_distance_matrix": _CENTROID_DISTANCE_SQL,
        "funnel_windowed_counts": _FUNNEL_WINDOWED_SQL,
        "leadlag_xcorr": _LEADLAG_XCORR_SQL,
        "capture_recapture_users": _CAPTURE_RECAPTURE_SQL,
        "simpsons_flip_report": _SIMPSONS_FLIP_SQL,
        "weekend_share_by_priority": _WEEKEND_SHARE_SQL,
        "quantile_treatment_effect": _QTE_SQL,
        "ppjoin_pairs": _PPJOIN_PAIRS_SQL,
        "retry_storm_stats": _RETRY_STORM_SQL,
        "slo_burn_report": _SLO_BURN_SQL,
        "audience_overlap_matrix": _AUDIENCE_OVERLAP_SQL,
        "weight_ess_report": _WEIGHT_ESS_SQL,
        "ratio_metric_delta": _RATIO_DELTA_SQL,
        "cochran_armitage_trend": _COCHRAN_ARMITAGE_SQL,
        "mcnemar_filters": _MCNEMAR_SQL,
        "order_aging_report": _ORDER_AGING_SQL,
        "watermark_lateness_curve": _WATERMARK_CURVE_SQL,
        "learned_index_audit": _LEARNED_INDEX_SQL,
        "negative_sampling_audit": _NEGATIVE_SAMPLING_SQL,
        "lang_entropy_by_source": _LANG_ENTROPY_SQL,
        "embedding_isotropy_report": _EMBEDDING_ISOTROPY_SQL,
        "fair_mass_by_source": _FAIR_MASS_SQL,
        "segment_priority_cramers_v": _SEGMENT_PRIORITY_CRAMERS_SQL,
        "median_of_means_value": _MEDIAN_OF_MEANS_SQL,
        "hourweek_profile": _HOURWEEK_PROFILE_SQL,
        "lexical_sophistication_by_source":
            _LEXICAL_SOPHISTICATION_SQL,
        "interorder_gap_median": _INTERORDER_GAP_SQL,
        "metronome_bot_report": _METRONOME_BOT_SQL,
        "price_endings_report": _PRICE_ENDINGS_SQL,
        "bigram_lm_perplexity": _BIGRAM_LM_SQL,
        "cvm_drift_binned": _CVM_DRIFT_SQL,
        "two_proportion_ztest": _TWO_PROPORTION_SQL,
        "poisson_surprise_hours": _POISSON_SURPRISE_SQL,
        "sax_motif_counts": _SAX_MOTIF_SQL,
        "returns_rate_by_brand": _RETURNS_RATE_SQL,
        "mix_anomaly_hours": _MIX_ANOMALY_SQL,
        "tpch_q3_topk": _TPCH_Q3_SQL,
        "tpch_q6_revenue": _TPCH_Q6_SQL,
        "tpch_q4_priority_counts": _TPCH_Q4_SQL,
        "tpch_q12_priority_by_status": _TPCH_Q12_SQL,
        "tpch_q14_promo_share": _TPCH_Q14_SQL,
        "tpch_q18_large_orders": _TPCH_Q18_SQL,
        "tpch_q19_bracket_revenue": _TPCH_Q19_SQL,
        "tpch_q13_custdist": _Q13_CUSTDIST_SQL,
        "tpch_q17_small_qty_revenue": _Q17_SMALL_QTY_SQL,
        "tpch_q7_volume_shipping": _TPCH_Q7_SQL,
        "tpch_q8_market_share": _TPCH_Q8_SQL,
        "tpch_q15_top_supplier": _TPCH_Q15_SQL,
        "tpch_q21_waiting_supplier": _TPCH_Q21_SQL,
        "tpch_q22_sales_opportunity": _TPCH_Q22_SQL,
        "tpch_q16_parts_supplier_census": _TPCH_Q16_SQL,
        "tpch_q11_important_parts": _TPCH_Q11_SQL,
        "tpch_q2_min_cost_supplier": _TPCH_Q2_SQL,
        "tpch_q9_product_profit": _TPCH_Q9_SQL,
        "tpch_q20_dominant_suppliers": _TPCH_Q20_SQL,
        "length_token_copula_grid": _LENGTH_TOKEN_COPULA_SQL,
        "trailing_distinct_users": _TRAILING_DISTINCT_SQL,
        "late_order_counts": _LATE_ORDER_SQL,
        "new_vs_returning_daily": _NEW_VS_RETURNING_SQL,
        "price_volume_decomposition": _PRICE_VOLUME_SQL,
        "ttr_quantiles_by_lang": _TTR_QUANTILES_SQL,
        "copurchase_part_pairs": _COPURCHASE_PAIRS_SQL,
        "nation_share_of_region": _NATION_SHARE_SQL,
        "youden_threshold_scan": _YOUDEN_SCAN_SQL,
        "stickiness_quantiles": _STICKINESS_SQL,
        "zonemap_pruning_audit": _ZONEMAP_PRUNING_SQL,
        "session_depth_survival": _SESSION_DEPTH_SQL,
        "loo_1nn_accuracy": _LOO_1NN_SQL,
        "monetary_unit_sample": _MONETARY_UNIT_SQL,
        "split_leakage_report": _SPLIT_LEAKAGE_SQL,
        "weekday_pattern_census": _WEEKDAY_PATTERN_SQL,
        "new_part_revenue_share": _NEW_PART_SHARE_SQL,
        "session_entry_types": _SESSION_ENTRY_SQL,
        "weekly_revenue_wow": _WEEKLY_WOW_SQL,
        "activity_span_quantiles": _ACTIVITY_SPAN_SQL,
        "priority_mix_by_year": _PRIORITY_MIX_SQL,
        "abc_classification": _ABC_CLASSIFICATION_SQL,
        "ship_lag_quantiles_by_priority": _SHIP_LAG_SQL,
        "daily_type_entropy": _DAILY_TYPE_ENTROPY_SQL,
        "part_rank_movers": _PART_RANK_MOVERS_SQL,
        "key_account_risk_by_nation": _KEY_ACCOUNT_SQL,
        "monthly_seasonal_index": _MONTHLY_SEASONAL_SQL,
        "resurrected_users_daily": _RESURRECTED_SQL,
        "weekly_arpu": _WEEKLY_ARPU_SQL,
        "token_codegree_topk": _TOKEN_CODEGREE_SQL,
        "discount_by_qty_bucket": _DISCOUNT_QTY_SQL,
        "markov_next_accuracy": _MARKOV_NEXT_ACC_SQL,
        "ooo_lateness_stats": _OOO_LATENESS_SQL,
        "multimodal_resize_stats": """
WITH grid AS (
  SELECT j.range AS j, k.range AS k
  FROM range(0, 8) j CROSS JOIN range(0, 8) k
), d AS (
  SELECT lang, text, CAST(length(text) AS BIGINT) AS L,
         greatest((CAST(length(text) AS BIGINT) + 63) // 64, 1) AS H
  FROM documents
), cells AS (
  SELECT lang,
         ord(substr(text,
                    CAST(least((j * H) // 8 * 64 + k * 8, L - 1) + 1
                         AS INT), 1)) AS byte,
         j * 8 + k + 1 AS w
  FROM d CROSS JOIN grid
), per AS (
  SELECT lang, CAST(sum(byte * w) AS BIGINT) AS thumb_checksum
  FROM cells GROUP BY 1
), base AS (
  SELECT lang, CAST(count(*) AS BIGINT) AS n_docs,
         CAST(sum(length(text)) AS BIGINT) AS sum_payload
  FROM documents GROUP BY 1
)
SELECT base.lang, base.n_docs, base.sum_payload, per.thumb_checksum
FROM base JOIN per USING (lang) ORDER BY 1
""",
        "last_touch_attribution": _LAST_TOUCH_SQL,
        "dds_price_global": _dds_sql("lineitem", "l_extendedprice"),
        "dds_price_by_flag": _dds_sql("lineitem", "l_extendedprice",
                                      "l_returnflag"),
        "dds_nchars_by_lang": _dds_sql("documents", "n_chars", "lang"),
        "dds_event_value_global": _dds_sql("events", "value"),
        "dds_incremental_update": _dds_sql("events", "value"),
        "dds_event_value_actor_pool": _dds_sql("events", "value"),
        # NOTE: every bare sum(BIGINT) is CAST back to BIGINT -- DuckDB's
        # sum over integers returns HUGEINT, which .df() converts to
        # float64 and the driver's dtype-sensitive value hash then
        # mismatches the Ray side's int64 (round-1 lesson: the values were
        # equal, the dtypes were not).
        "pricing_summary": """
SELECT l_returnflag, l_linestatus,
       CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty,
       CAST(sum(CAST(round(l_extendedprice*100) AS BIGINT)) AS DOUBLE)/100.0
           AS sum_base_price,
       CAST(sum(CAST(round(l_extendedprice*(1.0-l_discount)*10000.0) AS BIGINT)) AS DOUBLE)/10000.0
           AS sum_disc_price,
       CAST(sum(CAST(l_quantity AS BIGINT)) AS DOUBLE)/CAST(count(*) AS DOUBLE)
           AS avg_qty,
       count(*) AS n_rows
FROM lineitem GROUP BY l_returnflag, l_linestatus""",
        "topk_orders": """
SELECT o_orderkey, o_totalprice FROM orders
ORDER BY o_totalprice DESC, o_orderkey LIMIT 10""",
        "customer_nation_rollup": """
SELECT n_name, count(*) AS n_customers,
       CAST(sum(CAST(round(c_acctbal*100) AS BIGINT)) AS DOUBLE)/100.0 AS sum_acctbal
FROM customer JOIN nation ON c_nationkey = n_nationkey
GROUP BY n_name""",
        "events_hourly_window": """
SELECT event_type,
       (CAST(ts AS BIGINT)//3600000000)*3600 AS window_start,
       count(*) AS n_events,
       CAST(sum(CAST(round(value*100) AS BIGINT)) AS DOUBLE)/100.0 AS sum_value
FROM (SELECT event_type, epoch_us(ts) AS ts, value FROM events) GROUP BY 1, 2""",
        "docs_by_lang": """
SELECT lang, count(*) AS n_docs, min(n_chars) AS min_chars,
       max(n_chars) AS max_chars
FROM documents GROUP BY lang""",
        "events_sessionized_split": """
WITH e AS (SELECT user_id, epoch_us(ts) AS us FROM events),
d AS (SELECT user_id,
             CASE WHEN lag(us) OVER w IS NULL
                       OR us - lag(us) OVER w > 1800000000
                  THEN 1 ELSE 0 END AS new_s
      FROM e WINDOW w AS (PARTITION BY user_id ORDER BY us))
SELECT user_id, CAST(sum(new_s) AS BIGINT) AS n_sessions,
       count(*) AS n_events
FROM d GROUP BY user_id""",
        "events_sessionized": """
WITH e AS (SELECT user_id, epoch_us(ts) AS us FROM events),
d AS (SELECT user_id,
             CASE WHEN lag(us) OVER w IS NULL
                       OR us - lag(us) OVER w > 1800000000
                  THEN 1 ELSE 0 END AS new_s
      FROM e WINDOW w AS (PARTITION BY user_id ORDER BY us))
SELECT user_id, CAST(sum(new_s) AS BIGINT) AS n_sessions,
       count(*) AS n_events
FROM d GROUP BY user_id""",
        "sampled_events_by_type": """
SELECT event_type, count(*) AS n_sampled,
       CAST(sum(CAST(round(value*100) AS BIGINT)) AS DOUBLE)/100.0 AS sum_value
FROM events WHERE hash(event_id::BIGINT) % 16 = 0
GROUP BY event_type""",
        "supplier_region_rollup": """
SELECT r_name, count(*) AS n_suppliers,
       CAST(sum(CAST(round(s_acctbal*100) AS BIGINT)) AS DOUBLE)/100.0 AS sum_acctbal
FROM supplier JOIN nation ON s_nationkey = n_nationkey
              JOIN region ON n_regionkey = r_regionkey
GROUP BY r_name""",
        "orders_customer_join_agg": """
SELECT c_nationkey, o_orderstatus, count(*) AS n_orders,
       CAST(sum(CAST(round(o_totalprice*100) AS BIGINT)) AS DOUBLE)/100.0
           AS sum_price
FROM orders JOIN customer ON o_custkey = c_custkey
GROUP BY c_nationkey, o_orderstatus""",
        "sliding_window_quantiles": f"""
WITH src AS (SELECT epoch_us(ts)//3600000000 AS b,
                    CASE WHEN value > 0 THEN CAST(ceil(ln(CAST(value AS DOUBLE))/ln({GAMMA_SQL})) AS BIGINT) + {OFFSET}
                         WHEN value < 0 THEN -CAST(ceil(ln(-CAST(value AS DOUBLE))/ln({GAMMA_SQL})) AS BIGINT) - {OFFSET}
                         ELSE 0 END AS k
             FROM events WHERE value IS NOT NULL),
bounds AS (SELECT min(b) AS lo, max(b) AS hi FROM src),
hours AS (SELECT unnest(generate_series(lo, hi)) AS h FROM bounds),
bins AS (SELECT hours.h AS h, src.k AS k, CAST(count(*) AS DOUBLE) AS c
         FROM hours JOIN src ON src.b > hours.h - 24 AND src.b <= hours.h
         GROUP BY hours.h, src.k),
tot AS (SELECT h, sum(c) AS n FROM bins GROUP BY h),
walk AS (SELECT h, k, sum(c) OVER (PARTITION BY h ORDER BY k) AS cum FROM bins),
qs(q) AS (VALUES (0.5), (0.95), (0.99)),
pick AS (SELECT walk.h AS h, qs.q AS q, min(walk.k) AS bucket_key
         FROM qs CROSS JOIN walk JOIN tot ON walk.h = tot.h
         WHERE walk.cum > qs.q * (tot.n - 1) GROUP BY walk.h, qs.q)
SELECT pick.h*3600 AS window_end, pick.q AS q,
       round(CASE WHEN bucket_key > 0 THEN 2*pow({GAMMA_SQL}, bucket_key - {OFFSET})/({GAMMA_SQL}+1)
                  WHEN bucket_key < 0 THEN -2*pow({GAMMA_SQL}, -bucket_key - {OFFSET})/({GAMMA_SQL}+1)
                  ELSE 0.0 END, 6) AS est,
       CAST(tot.n AS BIGINT) AS n
FROM pick JOIN tot ON pick.h = tot.h""",
        "sliding_window_quantiles_by_type": f"""
WITH src AS (SELECT event_type AS g, epoch_us(ts)//3600000000 AS b,
                    CASE WHEN value > 0 THEN CAST(ceil(ln(CAST(value AS DOUBLE))/ln({GAMMA_SQL})) AS BIGINT) + {OFFSET}
                         WHEN value < 0 THEN -CAST(ceil(ln(-CAST(value AS DOUBLE))/ln({GAMMA_SQL})) AS BIGINT) - {OFFSET}
                         ELSE 0 END AS k
             FROM events WHERE value IS NOT NULL),
bounds AS (SELECT g, min(b) AS lo, max(b) AS hi FROM src GROUP BY g),
hours AS (SELECT g, unnest(generate_series(lo, hi)) AS h FROM bounds),
bins AS (SELECT hours.g AS g, hours.h AS h, src.k AS k,
                CAST(count(*) AS DOUBLE) AS c
         FROM hours JOIN src ON src.g = hours.g
                            AND src.b > hours.h - 24 AND src.b <= hours.h
         GROUP BY 1, 2, 3),
tot AS (SELECT g, h, sum(c) AS n FROM bins GROUP BY 1, 2),
walk AS (SELECT g, h, k,
                sum(c) OVER (PARTITION BY g, h ORDER BY k) AS cum
         FROM bins),
qs(q) AS (VALUES (0.5), (0.95), (0.99)),
pick AS (SELECT walk.g AS g, walk.h AS h, qs.q AS q,
                min(walk.k) AS bucket_key
         FROM qs CROSS JOIN walk
         JOIN tot ON walk.g = tot.g AND walk.h = tot.h
         WHERE walk.cum > qs.q * (tot.n - 1) GROUP BY 1, 2, 3)
SELECT pick.g AS event_type, pick.h*3600 AS window_end, pick.q AS q,
       round(CASE WHEN bucket_key > 0 THEN 2*pow({GAMMA_SQL}, bucket_key - {OFFSET})/({GAMMA_SQL}+1)
                  WHEN bucket_key < 0 THEN -2*pow({GAMMA_SQL}, -bucket_key - {OFFSET})/({GAMMA_SQL}+1)
                  ELSE 0.0 END, 6) AS est,
       CAST(tot.n AS BIGINT) AS n
FROM pick JOIN tot ON pick.g = tot.g AND pick.h = tot.h""",
        "props_extract_stats": """
SELECT event_type, count(*) AS n_events,
       CAST(sum(CAST(regexp_extract(props, '"k": (\\d+)', 1) AS BIGINT)) AS BIGINT) AS sum_k,
       CAST(max(CAST(regexp_extract(props, '"k": (\\d+)', 1) AS BIGINT)) AS BIGINT) AS max_k
FROM events GROUP BY event_type""",
        # strlen() is BYTE length in DuckDB == binary_length of the
        # utf-8 payload the multimodal stage sees
        "multimodal_doc_features": """
SELECT lang, count(*) AS n_docs,
       CAST(sum(strlen(text)) AS BIGINT) AS sum_payload_bytes
FROM documents GROUP BY lang""",
        "distinct_user_count": """
SELECT count(DISTINCT user_id) AS n_distinct FROM events""",
        "token_stats_by_lang": f"""
WITH m AS (
  SELECT lang,
         length(regexp_extract_all(text, '[A-Za-z0-9]+')) AS tokens,
         length(regexp_extract_all(text, '[.,;:!?]')) AS punct,
         length(list_filter(regexp_extract_all(lower(text), '[a-z0-9]+'),
                            t -> t IN ({stoplist}))) AS stops
  FROM documents),
s AS (
  SELECT lang, tokens, punct, stops,
         CAST(floor((
             0.4*least(1.0, CAST(tokens AS DOUBLE)/100.0)
           + 0.3*(1.0 - least(1.0, CAST(punct AS DOUBLE)/greatest(CAST(tokens AS DOUBLE), 1.0)))
           + 0.3*least(1.0, 5.0*CAST(stops AS DOUBLE)/greatest(CAST(tokens AS DOUBLE), 1.0))
           )*1000000.0 + 0.5) AS BIGINT) AS quality_micro
  FROM m)
SELECT lang, count(*) AS n_docs, CAST(sum(tokens) AS BIGINT) AS sum_tokens,
       CAST(sum(punct) AS BIGINT) AS sum_punct,
       CAST(sum(stops) AS BIGINT) AS sum_stops,
       CAST(sum(quality_micro) AS DOUBLE)/1000000.0/CAST(count(*) AS DOUBLE)
           AS avg_quality
FROM s GROUP BY lang""",
        "gopher_rules_report": f"""
WITH m AS (
  SELECT lang,
         length(regexp_extract_all(text, '[A-Za-z0-9]+')) AS toks,
         length(regexp_extract_all(text, '[.,;:!?]')) AS punct,
         length(list_filter(regexp_extract_all(lower(text), '[a-z0-9]+'),
                            t -> t IN ({stoplist}))) AS stops,
         length(text)
           - length(regexp_replace(text, '[A-Za-z0-9]+', '', 'g'))
           AS tokchars
  FROM documents
), r AS (
  SELECT lang,
         CASE WHEN toks < 30 OR toks > 100000 THEN 1 ELSE 0 END AS f1,
         CASE WHEN tokchars < 3 * toks OR tokchars > 10 * toks
              THEN 1 ELSE 0 END AS f2,
         CASE WHEN punct * 10 > toks THEN 1 ELSE 0 END AS f3,
         CASE WHEN stops < 2 THEN 1 ELSE 0 END AS f4
  FROM m
)
SELECT lang, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(f1) AS BIGINT) AS n_fail_wordcount,
       CAST(sum(f2) AS BIGINT) AS n_fail_wordlen,
       CAST(sum(f3) AS BIGINT) AS n_fail_symbol,
       CAST(sum(f4) AS BIGINT) AS n_fail_stopword,
       CAST(sum(CASE WHEN f1 + f2 + f3 + f4 = 0 THEN 1 ELSE 0 END)
            AS BIGINT) AS n_pass
FROM r GROUP BY 1 ORDER BY 1""",
        "quality_filter_by_lang": f"""
WITH m AS (
  SELECT lang,
         length(regexp_extract_all(text, '[A-Za-z0-9]+')) AS tokens,
         length(regexp_extract_all(text, '[.,;:!?]')) AS punct,
         length(list_filter(regexp_extract_all(lower(text), '[a-z0-9]+'),
                            t -> t IN ({stoplist}))) AS stops
  FROM documents),
s AS (
  SELECT lang, tokens,
         (0.4*least(1.0, CAST(tokens AS DOUBLE)/100.0)
        + 0.3*(1.0 - least(1.0, CAST(punct AS DOUBLE)/greatest(CAST(tokens AS DOUBLE), 1.0)))
        + 0.3*least(1.0, 5.0*CAST(stops AS DOUBLE)/greatest(CAST(tokens AS DOUBLE), 1.0)))
           AS score
  FROM m)
SELECT lang, count(*) AS n_kept, CAST(sum(tokens) AS BIGINT) AS sum_tokens
FROM s WHERE score >= 0.8 GROUP BY lang""",
        "top_users_exact": """
SELECT user_id, count(*) AS n_events FROM events
GROUP BY user_id ORDER BY n_events DESC, user_id LIMIT 10""",
        "lang_id_counts": _lang_id_sql(),
        "dedup_exact_docs": """
SELECT md5(text) AS text_md5, min(doc_id) AS first_doc_id,
       count(*) AS dup_count
FROM documents GROUP BY md5(text)""",
        "dedup_exact_keep": """
SELECT doc_id, lang, n_chars FROM documents
WHERE doc_id IN (SELECT min(doc_id) FROM documents GROUP BY md5(text))""",
        # HLL replica: identical registers via hash(user_id), rho computed
        # with the same float path; estimator branches exactly as
        # HyperLogLog.estimate (linear counting when raw <= 2.5m & zeros>0)
        "hll_type_overlap": """
WITH src AS (
  SELECT 'a' AS tag, hash(user_id::BIGINT) AS hv FROM events
  WHERE event_type = 'click'
  UNION ALL
  SELECT 'b', hash(user_id::BIGINT) FROM events
  WHERE event_type = 'view'
), all_src AS (
  SELECT tag, hv FROM src
  UNION ALL
  SELECT 'u', hv FROM src
), regs AS (
  SELECT tag, CAST(hv >> 52 AS BIGINT) AS idx,
         CASE WHEN (hv & 4503599627370495::UBIGINT) = 0 THEN 53
              ELSE 52 - CAST(floor(log2(CAST(hv & 4503599627370495::UBIGINT AS DOUBLE))) AS BIGINT)
         END AS rho
  FROM all_src
), mx AS (SELECT tag, idx, max(rho) AS r FROM regs GROUP BY 1, 2),
stats AS (
  SELECT tag, count(*) AS nonzero,
         sum(pow(2.0, -CAST(r AS DOUBLE))) AS s_nonzero
  FROM mx GROUP BY 1
), est AS (
  SELECT tag,
         CASE WHEN (0.7213/(1.0 + 1.079/4096)) * 4096 * 4096 /
                   (s_nonzero + CAST(4096 - nonzero AS DOUBLE))
                   <= 2.5*4096 AND 4096 - nonzero > 0
              THEN 4096 * ln(4096.0 / CAST(4096 - nonzero AS DOUBLE))
              ELSE (0.7213/(1.0 + 1.079/4096)) * 4096 * 4096 /
                   (s_nonzero + CAST(4096 - nonzero AS DOUBLE))
         END AS e
  FROM stats
)
SELECT 'click' AS type_a, 'view' AS type_b,
       round(max(CASE WHEN tag = 'a' THEN e END), 6) AS est_a,
       round(max(CASE WHEN tag = 'b' THEN e END), 6) AS est_b,
       round(max(CASE WHEN tag = 'u' THEN e END), 6) AS est_union,
       round(max(CASE WHEN tag = 'a' THEN e END)
             + max(CASE WHEN tag = 'b' THEN e END)
             - max(CASE WHEN tag = 'u' THEN e END), 6)
         AS est_intersection
FROM est""",
        "hll_distinct_users": """
WITH hashes AS (SELECT hash(user_id::BIGINT) AS hv FROM events),
regs AS (SELECT CAST(hv >> 52 AS BIGINT) AS idx,
                CASE WHEN (hv & 4503599627370495::UBIGINT) = 0 THEN 53
                     ELSE 52 - CAST(floor(log2(CAST(hv & 4503599627370495::UBIGINT AS DOUBLE))) AS BIGINT)
                END AS rho
         FROM hashes),
mx AS (SELECT idx, max(rho) AS r FROM regs GROUP BY idx),
stats AS (SELECT count(*) AS nonzero, CAST(sum(r) AS BIGINT) AS sumr,
                 sum(pow(2.0, -CAST(r AS DOUBLE))) AS s_nonzero
          FROM mx),
est AS (SELECT nonzero, sumr,
               4096 - nonzero AS zeros,
               (0.7213/(1.0 + 1.079/4096)) * 4096 * 4096 /
                   (s_nonzero + CAST(4096 - nonzero AS DOUBLE)) AS raw
        FROM stats)
SELECT 4096::BIGINT AS m, nonzero AS nonzero_registers, sumr AS sum_registers,
       round(CASE WHEN raw <= 2.5*4096 AND zeros > 0
                  THEN 4096 * ln(4096.0 / CAST(zeros AS DOUBLE))
                  ELSE raw END, 6) AS hll_estimate
FROM est""",
        # count-min replica: same cells via hash(xor(key, seed_d)) % width,
        # same integer counters, min over depth rows
        "countsketch_user_freq": """
WITH counts AS (SELECT CAST(user_id AS BIGINT) AS k,
                       CAST(count(*) AS BIGINT) AS c
                FROM events GROUP BY 1),
seeds(d, s) AS (VALUES (0, 2654435769), (1, 2135587861),
                       (2, 625341585)),
hx AS (SELECT c.k, s.d, hash(xor(c.k, CAST(s.s AS BIGINT))) AS h, c.c
       FROM counts c CROSS JOIN seeds s),
cells AS (SELECT d, h % 1024 AS cell,
                 CAST(sum((1 - 2 * CAST((h >> 40) & 1 AS BIGINT))
                          * c) AS BIGINT) AS tot
          FROM hx GROUP BY 1, 2),
reads AS (SELECT x.k,
                 (1 - 2 * CAST((x.h >> 40) & 1 AS BIGINT))
                   * cells.tot AS r
          FROM hx x JOIN cells ON cells.d = x.d
                              AND cells.cell = x.h % 1024),
med AS (SELECT k, CAST(sum(r) - max(r) - min(r) AS BIGINT)
                 AS est_count
        FROM reads GROUP BY k)
SELECT k AS user_id, est_count FROM med ORDER BY user_id""",
        # count-sketch shortlist (width 256, est desc) -> exact confirm
        "countsketch_topk_confirm": """
WITH counts AS (SELECT CAST(user_id AS BIGINT) AS k,
                       CAST(count(*) AS BIGINT) AS c
                FROM events GROUP BY 1),
seeds(d, s) AS (VALUES (0, 2654435769), (1, 2135587861),
                       (2, 625341585)),
hx AS (SELECT c.k, s.d, hash(xor(c.k, CAST(s.s AS BIGINT))) AS h, c.c
       FROM counts c CROSS JOIN seeds s),
cells AS (SELECT d, h % 256 AS cell,
                 CAST(sum((1 - 2 * CAST((h >> 40) & 1 AS BIGINT))
                          * c) AS BIGINT) AS tot
          FROM hx GROUP BY 1, 2),
reads AS (SELECT x.k,
                 (1 - 2 * CAST((x.h >> 40) & 1 AS BIGINT))
                   * cells.tot AS r
          FROM hx x JOIN cells ON cells.d = x.d
                              AND cells.cell = x.h % 256),
med AS (SELECT k, CAST(sum(r) - max(r) - min(r) AS BIGINT) AS est
        FROM reads GROUP BY k),
short AS (SELECT k, est FROM med ORDER BY est DESC, k LIMIT 40),
fin AS (SELECT s.k AS user_id, s.est AS est_count, c.c AS exact_count
        FROM short s JOIN counts c ON c.k = s.k)
SELECT user_id, est_count, exact_count,
       est_count - exact_count AS err
FROM fin ORDER BY exact_count DESC, user_id LIMIT 20""",
        # Bloom fill-count cardinality algebra, per-term-floored ln
        "bloom_intersection_estimate": """
WITH ua AS (SELECT DISTINCT user_id AS key FROM events
            WHERE event_type = 'click'),
ub AS (SELECT DISTINCT user_id AS key FROM events
       WHERE event_type = 'view'),
ha AS (SELECT CAST(('0x' || substr(md5(CAST(key AS VARCHAR)), 1, 16))
                   AS UBIGINT) % 4096 AS h1,
              CAST(('0x' || substr(md5(CAST(key AS VARCHAR)), 17, 16))
                   AS UBIGINT) % 4096 AS h2
       FROM ua),
hb AS (SELECT CAST(('0x' || substr(md5(CAST(key AS VARCHAR)), 1, 16))
                   AS UBIGINT) % 4096 AS h1,
              CAST(('0x' || substr(md5(CAST(key AS VARCHAR)), 17, 16))
                   AS UBIGINT) % 4096 AS h2
       FROM ub),
bits_a AS (SELECT DISTINCT CAST((h1 + i.range * h2) % 4096 AS BIGINT)
             AS pos FROM ha CROSS JOIN range(0, 2) i),
bits_b AS (SELECT DISTINCT CAST((h1 + i.range * h2) % 4096 AS BIGINT)
             AS pos FROM hb CROSS JOIN range(0, 2) i),
fills AS (
  SELECT (SELECT CAST(count(*) AS BIGINT) FROM bits_a) AS fa,
         (SELECT CAST(count(*) AS BIGINT) FROM bits_b) AS fb,
         (SELECT CAST(count(*) AS BIGINT) FROM
            (SELECT pos FROM bits_a UNION SELECT pos FROM bits_b)) AS fu
),
est AS (
  SELECT fa, fb, fu,
         (4096 * -CAST(FLOOR(ln(CAST(4096 - fa AS DOUBLE)
                                / CAST(4096 AS DOUBLE)) * 1000000.0e0)
                       AS BIGINT)) // 2 AS ea,
         (4096 * -CAST(FLOOR(ln(CAST(4096 - fb AS DOUBLE)
                                / CAST(4096 AS DOUBLE)) * 1000000.0e0)
                       AS BIGINT)) // 2 AS eb,
         (4096 * -CAST(FLOOR(ln(CAST(4096 - fu AS DOUBLE)
                                / CAST(4096 AS DOUBLE)) * 1000000.0e0)
                       AS BIGINT)) // 2 AS eu
  FROM fills
)
SELECT 'click' AS type_a, 'view' AS type_b,
       CAST(4096 AS BIGINT) AS m_bits,
       fa AS fill_a, fb AS fill_b, fu AS fill_union,
       ea AS est_a_micro, eb AS est_b_micro, eu AS est_union_micro,
       ea + eb - eu AS est_inter_micro
FROM est""",
        "cms_user_counts": """
WITH counts AS (SELECT user_id AS k, count(*) AS c FROM events GROUP BY user_id),
seeds(d, s) AS (VALUES (0, 461845907), (1, 3432918353), (2, 2246822507),
                        (3, 3266489909)),
cells AS (SELECT s.d AS d, hash(xor(c.k, CAST(s.s AS BIGINT))) % 8192 AS cell,
                 CAST(sum(c.c) AS BIGINT) AS tot
          FROM counts c CROSS JOIN seeds s GROUP BY s.d, cell)
SELECT c.k AS user_id, CAST(min(cells.tot) AS BIGINT) AS est_count
FROM counts c CROSS JOIN seeds s
JOIN cells ON cells.d = s.d
          AND cells.cell = hash(xor(c.k, CAST(s.s AS BIGINT))) % 8192
GROUP BY c.k""",
        # two cell tables + min inner product + exact probe-side sum
        "cms_join_size_estimate": """
WITH seeds(d, s) AS (VALUES (0, 461845907), (1, 3432918353),
                            (2, 2246822507), (3, 3266489909)),
ca AS (SELECT s.d AS d,
              hash(xor(CAST(user_id AS BIGINT),
                       CAST(s.s AS BIGINT))) % 8192 AS cell,
              CAST(count(*) AS BIGINT) AS c
       FROM events CROSS JOIN seeds s GROUP BY 1, 2),
cb AS (SELECT s.d AS d,
              hash(xor(CAST(o_custkey AS BIGINT),
                       CAST(s.s AS BIGINT))) % 8192 AS cell,
              CAST(count(*) AS BIGINT) AS c
       FROM orders CROSS JOIN seeds s GROUP BY 1, 2),
ip AS (SELECT ca.d, CAST(sum(ca.c * cb.c) AS BIGINT) AS v
       FROM ca JOIN cb ON cb.d = ca.d AND cb.cell = ca.cell
       GROUP BY 1),
ex AS (SELECT CAST(count(*) AS BIGINT) AS n
       FROM orders JOIN events ON o_custkey = user_id)
SELECT (SELECT min(v) FROM ip) AS est_join_size,
       ex.n AS exact_join_size,
       (SELECT min(v) FROM ip) - ex.n AS overestimate
FROM ex""",
        # weighted-CMS replica with integer half-life weights
        "decayed_cms_user_scores": """
WITH mx AS (SELECT max(ts) AS m FROM events),
ev AS (SELECT CAST(user_id AS BIGINT) AS k,
              1000000 >> CAST(least(
                  date_diff('microsecond', ts, mx.m) // 86400000000,
                  40) AS BIGINT) AS w
       FROM events CROSS JOIN mx),
wsum AS (SELECT k, CAST(sum(w) AS BIGINT) AS c FROM ev GROUP BY 1),
seeds(d, s) AS (VALUES (0, 461845907), (1, 3432918353),
                       (2, 2246822507), (3, 3266489909)),
cells AS (SELECT s.d AS d,
                 hash(xor(w.k, CAST(s.s AS BIGINT))) % 8192 AS cell,
                 CAST(sum(w.c) AS BIGINT) AS tot
          FROM wsum w CROSS JOIN seeds s GROUP BY 1, 2),
est AS (SELECT w.k AS user_id,
               CAST(min(cells.tot) AS BIGINT) AS est_decayed_micro
        FROM wsum w CROSS JOIN seeds s
        JOIN cells ON cells.d = s.d
                  AND cells.cell =
                      hash(xor(w.k, CAST(s.s AS BIGINT))) % 8192
        GROUP BY 1)
SELECT user_id, est_decayed_micro FROM est
ORDER BY est_decayed_micro DESC, user_id LIMIT 20""",
        # the Bloom prefilter is exact-confirmed, so the result equals the
        # plain semi-join
        "bloom_fpr_audit": _BLOOM_FPR_SQL,
        "linear_counting_users": _LINEAR_COUNTING_SQL,
        "counting_bloom_delete_audit": _COUNTING_BLOOM_SQL,
        "bloom_partition_pruning_audit": _BLOOM_PRUNING_SQL,
        "cms_error_report": _CMS_ERROR_SQL,
        "bloom_semijoin_orders": """
SELECT o_orderstatus, count(*) AS n_orders
FROM orders
WHERE o_custkey IN (SELECT c_custkey FROM customer WHERE c_acctbal > 7000.0)
GROUP BY o_orderstatus""",
        "knn_cosine_topk": """
WITH q AS (SELECT list_transform(embedding, x -> CAST(x AS DOUBLE)) AS qv
           FROM embeddings WHERE vec_id = 0),
scored AS (
  SELECT vec_id,
         round(list_cosine_similarity(
             list_transform(embedding, x -> CAST(x AS DOUBLE)), q.qv), 4)
             AS cos_sim
  FROM embeddings CROSS JOIN q)
SELECT vec_id, cos_sim FROM scored ORDER BY cos_sim DESC, vec_id LIMIT 10""",
        # IVF with all clusters probed == exhaustive cosine top-k
        "ivf_knn_exhaustive": """
WITH q AS (SELECT list_transform(embedding, x -> CAST(x AS DOUBLE)) AS qv
           FROM embeddings WHERE vec_id = 0),
scored AS (
  SELECT vec_id,
         round(list_cosine_similarity(
             list_transform(embedding, x -> CAST(x AS DOUBLE)), q.qv), 6)
             AS cos_sim
  FROM embeddings CROSS JOIN q)
SELECT vec_id, cos_sim FROM scored ORDER BY cos_sim DESC, vec_id LIMIT 10""",
        "hard_negative_topk": _HARD_NEGATIVE_SQL,
        "contrastive_margin_report": _CONTRASTIVE_MARGIN_SQL,
        "ivf_knn_written": """
WITH q AS (SELECT list_transform(embedding, x -> CAST(x AS DOUBLE)) AS qv
           FROM embeddings WHERE vec_id = 0),
scored AS (
  SELECT vec_id,
         round(list_cosine_similarity(
             list_transform(embedding, x -> CAST(x AS DOUBLE)), q.qv), 6)
             AS cos_sim
  FROM embeddings CROSS JOIN q)
SELECT vec_id, cos_sim FROM scored ORDER BY cos_sim DESC, vec_id LIMIT 10""",
        "embedding_neardup_pairs": """
WITH u AS (SELECT vec_id,
                  list_transform(embedding, x -> CAST(x AS DOUBLE)) AS v
           FROM embeddings)
SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
       round(list_cosine_similarity(a.v, b.v), 4) AS cos_sim
FROM u a JOIN u b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.v, b.v) >= 0.3""",
        "events_asof_orders": _EVENTS_ASOF_ORDERS_SQL,
        "events_nearest_order": _EVENTS_NEAREST_ORDER_SQL,
        "orders_asof_next_event": _ORDERS_ASOF_NEXT_SQL,
        "trailing_top_user_hourly": _TRAILING_TOP_USER_SQL,
        "debounced_event_counts": _DEBOUNCE_SQL,
        "value_ohlc_hourly": _VALUE_OHLC_SQL,
        "orders_event_window_stats": _ORDERS_EVENT_WINDOW_SQL,
        "user_event_lag_stats": _USER_EVENT_LAG_SQL,
        "repetition_stats_by_lang": _REPETITION_STATS_SQL,
        "stratified_sample_events": _STRATIFIED_SAMPLE_SQL,
        "top_events_per_type": _TOP_EVENTS_PER_TYPE_SQL,
        "customers_without_events": _CUSTOMERS_WITHOUT_EVENTS_SQL,
        # quantile_disc returns an actual data element at 0-based rank
        # max(0, ceil(q*n)-1) -- the same selection exact_quantiles makes,
        # so values are bit-identical (no rounding needed)
        "exact_quantiles_price": """
WITH v AS (SELECT quantile_disc(l_extendedprice,
                                [0.01, 0.25, 0.5, 0.75, 0.99]) AS vs
           FROM lineitem)
SELECT unnest([0.01, 0.25, 0.5, 0.75, 0.99]) AS q,
       unnest(vs) AS value FROM v""",
        "exact_quantiles_by_flag": """
WITH v AS (SELECT l_returnflag,
                  quantile_disc(l_extendedprice, [0.25, 0.5, 0.75]) AS vs
           FROM lineitem GROUP BY l_returnflag)
SELECT l_returnflag, unnest([0.25, 0.5, 0.75]) AS q,
       unnest(vs) AS value FROM v""",
        "quantile_prune_docs": _QUANTILE_PRUNE_SQL,
        "top_tokens_by_lang": _TOP_TOKENS_SQL,
        "tfidf_top_term_per_doc": _TFIDF_TOP_TERM_SQL,
        "cube_pricing": _CUBE_PRICING_SQL,
        "hour_entropy_by_type": _HOUR_ENTROPY_SQL,
        "user_churn_sets": _USER_CHURN_SQL,
        "benchmark_decontamination": _DECONTAMINATION_SQL,
        "pagerank_part_supplier": _PAGERANK_SQL,
        "kcore_part_graph": _KCORE_SQL,
        "copresence_triangles": _COPRESENCE_TRIANGLES_SQL,
        "copresence_assortativity": _COPRESENCE_ASSORT_SQL,
        "order_skyline": _ORDER_SKYLINE_SQL,
        "fuzzy_props_pairs": _FUZZY_PROPS_SQL,
        "keyword_search_topk": _KEYWORD_SEARCH_SQL,
        "token_budget_mix": _TOKEN_BUDGET_SQL,
        "bucketed_join_rollup": _BUCKETED_JOIN_SQL,
        "upsert_compaction": _UPSERT_COMPACTION_SQL,
        "user_interval_coverage": _INTERVAL_COVERAGE_SQL,
        "day_pruned_window_stats": _DAY_PRUNED_SQL,
        "events_hourly_gapfill": _HOURLY_GAPFILL_SQL,
        "customer_event_activity": _CUSTOMER_EVENT_ACTIVITY_SQL,
        "winnow_fingerprint_stats": _WINNOW_FINGERPRINT_SQL,
        "dds_weighted_price": _dds_sql("lineitem", "l_extendedprice",
                                       weight="l_quantity"),
        "hll_users_by_type": """
WITH hashes AS (SELECT event_type, hash(user_id::BIGINT) AS hv FROM events),
regs AS (SELECT event_type, CAST(hv >> 52 AS BIGINT) AS idx,
                CASE WHEN (hv & 4503599627370495::UBIGINT) = 0 THEN 53
                     ELSE 52 - CAST(floor(log2(CAST(hv & 4503599627370495::UBIGINT AS DOUBLE))) AS BIGINT)
                END AS rho
         FROM hashes),
mx AS (SELECT event_type, idx, max(rho) AS r FROM regs GROUP BY 1, 2),
stats AS (SELECT event_type, count(*) AS nonzero,
                 CAST(sum(r) AS BIGINT) AS sumr,
                 sum(pow(2.0, -CAST(r AS DOUBLE))) AS s_nonzero
          FROM mx GROUP BY 1),
est AS (SELECT event_type, nonzero, sumr,
               4096 - nonzero AS zeros,
               (0.7213/(1.0 + 1.079/4096)) * 4096 * 4096 /
                   (s_nonzero + CAST(4096 - nonzero AS DOUBLE)) AS raw
        FROM stats)
SELECT event_type, 4096::BIGINT AS m, nonzero AS nonzero_registers,
       sumr AS sum_registers,
       round(CASE WHEN raw <= 2.5*4096 AND zeros > 0
                  THEN 4096 * ln(4096.0 / CAST(zeros AS DOUBLE))
                  ELSE raw END, 6) AS hll_estimate
FROM est
ORDER BY 1""",
        "winsorized_price_stats": _WINSORIZED_PRICE_SQL,
        "distinct_users_per_type": _DISTINCT_USERS_PER_TYPE_SQL,
        "docs_lang_source_pivot": _DOCS_PIVOT_SQL,
        "combined_daily_activity": _COMBINED_DAILY_SQL,
        "user_activity_quartiles": _USER_ACTIVITY_QUARTILES_SQL,
        "label_centroids": _LABEL_CENTROIDS_SQL,
        "curated_corpus_stats": f"""
WITH m AS (
  SELECT doc_id, lang, n_chars, text,
         length(regexp_extract_all(text, '[A-Za-z0-9]+')) AS tokens,
         length(regexp_extract_all(text, '[.,;:!?]')) AS punct,
         length(list_filter(regexp_extract_all(lower(text), '[a-z0-9]+'),
                            t -> t IN ({stoplist}))) AS stops
  FROM documents),
s AS (
  SELECT doc_id, lang, n_chars, text, tokens,
         (0.4*least(1.0, CAST(tokens AS DOUBLE)/100.0)
        + 0.3*(1.0 - least(1.0, CAST(punct AS DOUBLE)/greatest(CAST(tokens AS DOUBLE), 1.0)))
        + 0.3*least(1.0, 5.0*CAST(stops AS DOUBLE)/greatest(CAST(tokens AS DOUBLE), 1.0)))
           AS score
  FROM m),
kept AS (SELECT doc_id, lang, n_chars, tokens, text FROM s WHERE score >= 0.8),
keepids AS (SELECT min(doc_id) AS kid FROM kept GROUP BY md5(text))
SELECT lang, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(tokens) AS BIGINT) AS sum_tokens,
       CAST(sum(n_chars) AS BIGINT) AS sum_chars
FROM kept JOIN keepids ON kept.doc_id = keepids.kid
GROUP BY 1 ORDER BY 1""",
        "hll_sliding_users_by_type": """
WITH h AS (SELECT event_type AS g,
                  CAST(epoch_us(ts) AS BIGINT)//3600000000 AS hr,
                  hash(user_id::BIGINT) AS hv FROM events),
regs AS (SELECT g, hr, CAST(hv >> 52 AS BIGINT) AS idx,
                CASE WHEN (hv & 4503599627370495::UBIGINT) = 0 THEN 53
                     ELSE 52 - CAST(floor(log2(CAST(hv & 4503599627370495::UBIGINT AS DOUBLE))) AS BIGINT)
                END AS rho
         FROM h),
bounds AS (SELECT g, min(hr) AS mn, max(hr) AS mx FROM regs GROUP BY g),
wins AS (SELECT g, mn + unnest(generate_series(0, mx - mn)) AS w
         FROM bounds),
mx2 AS (SELECT wins.g AS g, w, idx, max(rho) AS r FROM wins
        JOIN regs ON regs.g = wins.g
                 AND regs.hr BETWEEN w - 23 AND w GROUP BY 1, 2, 3),
stats AS (SELECT g, w, count(*) AS nonzero,
                 CAST(sum(r) AS BIGINT) AS sumr,
                 sum(pow(2.0, -CAST(r AS DOUBLE))) AS s_nonzero
          FROM mx2 GROUP BY 1, 2),
est AS (SELECT g, w, nonzero, sumr, 4096 - nonzero AS zeros,
               (0.7213/(1.0 + 1.079/4096)) * 4096 * 4096 /
                   (s_nonzero + CAST(4096 - nonzero AS DOUBLE)) AS raw
        FROM stats)
SELECT g AS event_type, w * 3600 AS window_start, 4096::BIGINT AS m,
       nonzero AS nonzero_registers, sumr AS sum_registers,
       round(CASE WHEN raw <= 2.5*4096 AND zeros > 0
                  THEN 4096 * ln(4096.0 / CAST(zeros AS DOUBLE))
                  ELSE raw END, 6) AS hll_estimate
FROM est""",
        "hll_sliding_users": """
WITH h AS (SELECT CAST(epoch_us(ts) AS BIGINT)//3600000000 AS hr,
                  hash(user_id::BIGINT) AS hv FROM events),
regs AS (SELECT hr, CAST(hv >> 52 AS BIGINT) AS idx,
                CASE WHEN (hv & 4503599627370495::UBIGINT) = 0 THEN 53
                     ELSE 52 - CAST(floor(log2(CAST(hv & 4503599627370495::UBIGINT AS DOUBLE))) AS BIGINT)
                END AS rho
         FROM h),
bounds AS (SELECT min(hr) AS mn, max(hr) AS mx FROM regs),
nums AS (SELECT CAST(range AS BIGINT) AS i FROM range(0, 1048576)),
wins AS (SELECT mn + i AS w FROM bounds JOIN nums ON i <= mx - mn),
mx2 AS (SELECT w, idx, max(rho) AS r FROM wins
        JOIN regs ON regs.hr BETWEEN w - 23 AND w GROUP BY 1, 2),
stats AS (SELECT w, count(*) AS nonzero, CAST(sum(r) AS BIGINT) AS sumr,
                 sum(pow(2.0, -CAST(r AS DOUBLE))) AS s_nonzero
          FROM mx2 GROUP BY 1),
est AS (SELECT w, nonzero, sumr, 4096 - nonzero AS zeros,
               (0.7213/(1.0 + 1.079/4096)) * 4096 * 4096 /
                   (s_nonzero + CAST(4096 - nonzero AS DOUBLE)) AS raw
        FROM stats)
SELECT w * 3600 AS window_start, 4096::BIGINT AS m,
       nonzero AS nonzero_registers, sumr AS sum_registers,
       round(CASE WHEN raw <= 2.5*4096 AND zeros > 0
                  THEN 4096 * ln(4096.0 / CAST(zeros AS DOUBLE))
                  ELSE raw END, 6) AS hll_estimate
FROM est ORDER BY 1""",
        "cms_sliding_user_est": """
WITH seeds(d, s) AS (VALUES (0, 461845907), (1, 3432918353),
                            (2, 2246822507), (3, 3266489909)),
tu AS (SELECT CAST(user_id AS BIGINT) AS u
       FROM events GROUP BY 1 ORDER BY count(*) DESC, u LIMIT 10),
pcell AS (SELECT DISTINCT s.d,
                 hash(xor(tu.u, CAST(s.s AS BIGINT))) % 1024 AS cell
          FROM tu CROSS JOIN seeds s),
hourly AS (SELECT CAST(epoch_us(ts) AS BIGINT)//3600000000 AS hr,
                  s.d,
                  hash(xor(CAST(user_id AS BIGINT),
                           CAST(s.s AS BIGINT))) % 1024 AS cell,
                  CAST(count(*) AS BIGINT) AS c
           FROM events CROSS JOIN seeds s GROUP BY 1, 2, 3),
bounds AS (SELECT min(hr) AS mn, max(hr) AS mx FROM hourly),
nums AS (SELECT CAST(range AS BIGINT) AS i FROM range(0, 1048576)),
hrs AS (SELECT mn + i AS hr FROM bounds JOIN nums ON i <= mx - mn),
series AS (SELECT h2.hr, p.d, p.cell, COALESCE(hh.c, 0) AS c
           FROM hrs h2 CROSS JOIN pcell p
           LEFT JOIN hourly hh ON hh.hr = h2.hr AND hh.d = p.d
                              AND hh.cell = p.cell),
w AS (SELECT hr, d, cell,
             CAST(sum(c) OVER (PARTITION BY d, cell ORDER BY hr
                  ROWS BETWEEN 23 PRECEDING AND CURRENT ROW)
                  AS BIGINT) AS wc
      FROM series),
est AS (SELECT w.hr, tu.u, min(w.wc) AS est_count
        FROM tu CROSS JOIN seeds s
        JOIN w ON w.d = s.d
              AND w.cell = hash(xor(tu.u, CAST(s.s AS BIGINT))) % 1024
        GROUP BY 1, 2)
SELECT CAST(hr * 3600 AS BIGINT) AS window_start, u AS user_id,
       CAST(est_count AS BIGINT) AS est_count
FROM est ORDER BY 1, 2""",
        "sliding_anomaly_counts": f"""
WITH src AS (SELECT epoch_us(ts)//3600000000 AS b,
                    CASE WHEN value > 0 THEN CAST(ceil(ln(CAST(value AS DOUBLE))/ln({GAMMA_SQL})) AS BIGINT) + {OFFSET}
                         WHEN value < 0 THEN -CAST(ceil(ln(-CAST(value AS DOUBLE))/ln({GAMMA_SQL})) AS BIGINT) - {OFFSET}
                         ELSE 0 END AS k
             FROM events WHERE value IS NOT NULL),
bounds AS (SELECT min(b) AS lo, max(b) AS hi FROM src),
hours AS (SELECT unnest(generate_series(lo, hi)) AS h FROM bounds),
bins AS (SELECT hours.h AS h, src.k AS k, CAST(count(*) AS DOUBLE) AS c
         FROM hours JOIN src ON src.b > hours.h - 24 AND src.b <= hours.h
         GROUP BY hours.h, src.k),
tot AS (SELECT h, sum(c) AS n FROM bins GROUP BY h),
walk AS (SELECT h, k, sum(c) OVER (PARTITION BY h ORDER BY k) AS cum FROM bins),
pick AS (SELECT walk.h AS h, min(walk.k) AS thr
         FROM walk JOIN tot ON walk.h = tot.h
         WHERE walk.cum > 0.99 * (tot.n - 1) GROUP BY walk.h),
ev AS (SELECT event_type, epoch_us(ts)//3600000000 AS b,
              CASE WHEN value > 0 THEN CAST(ceil(ln(CAST(value AS DOUBLE))/ln({GAMMA_SQL})) AS BIGINT) + {OFFSET}
                   WHEN value < 0 THEN -CAST(ceil(ln(-CAST(value AS DOUBLE))/ln({GAMMA_SQL})) AS BIGINT) - {OFFSET}
                   ELSE 0 END AS k
       FROM events WHERE value IS NOT NULL)
SELECT ev.event_type,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(CASE WHEN ev.k > pick.thr THEN 1 ELSE 0 END) AS BIGINT)
           AS n_anomalies
FROM ev JOIN pick ON pick.h = ev.b
GROUP BY 1 ORDER BY 1""",
        "drift_stats_pairs": f"""
WITH keyed AS (SELECT event_type AS g,
                      CASE WHEN value > 0 THEN CAST(ceil(ln(CAST(value AS DOUBLE))/ln({GAMMA_SQL})) AS BIGINT) + {OFFSET}
                           WHEN value < 0 THEN -CAST(ceil(ln(-CAST(value AS DOUBLE))/ln({GAMMA_SQL})) AS BIGINT) - {OFFSET}
                           ELSE 0 END AS k
               FROM events WHERE value IS NOT NULL),
bins AS (SELECT g, k, CAST(count(*) AS BIGINT) AS c FROM keyed GROUP BY 1, 2),
tot AS (SELECT g, CAST(sum(c) AS BIGINT) AS n FROM bins GROUP BY 1),
pairs AS (SELECT a.g AS ta, b.g AS tb FROM tot a JOIN tot b ON a.g < b.g),
allk AS (SELECT DISTINCT p.ta, p.tb, bins.k
         FROM pairs p JOIN bins ON bins.g = p.ta OR bins.g = p.tb),
ca AS (SELECT allk.ta, allk.tb, allk.k,
              sum(COALESCE(b.c, 0)) OVER (PARTITION BY allk.ta, allk.tb
                                          ORDER BY allk.k) AS cum_a
       FROM allk LEFT JOIN bins b ON b.g = allk.ta AND b.k = allk.k),
cb AS (SELECT allk.ta, allk.tb, allk.k,
              sum(COALESCE(b.c, 0)) OVER (PARTITION BY allk.ta, allk.tb
                                          ORDER BY allk.k) AS cum_b
       FROM allk LEFT JOIN bins b ON b.g = allk.tb AND b.k = allk.k)
SELECT ca.ta AS type_a, ca.tb AS type_b, tta.n AS n_a, ttb.n AS n_b,
       CAST(max(abs(ca.cum_a * ttb.n - cb.cum_b * tta.n)) AS BIGINT)
           AS ks_num
FROM ca JOIN cb ON cb.ta = ca.ta AND cb.tb = ca.tb AND cb.k = ca.k
JOIN tot tta ON tta.g = ca.ta
JOIN tot ttb ON ttb.g = ca.tb
GROUP BY 1, 2, 3, 4 ORDER BY 1, 2""",
        "mad_by_flag": f"""
WITH src AS (SELECT l_returnflag AS g, CAST(l_extendedprice AS DOUBLE) AS x
             FROM lineitem WHERE l_extendedprice IS NOT NULL),
keyed AS (SELECT g, x, CASE WHEN x > 0 THEN CAST(ceil(ln(x)/ln({GAMMA_SQL})) AS BIGINT) + {OFFSET} WHEN x < 0 THEN -CAST(ceil(ln(-(x))/ln({GAMMA_SQL})) AS BIGINT) - {OFFSET} ELSE 0 END AS k FROM src),
bins AS (SELECT g, k, CAST(count(*) AS DOUBLE) AS c FROM keyed GROUP BY 1, 2),
tot AS (SELECT g, sum(c) AS n FROM bins GROUP BY 1),
walk AS (SELECT g, k, sum(c) OVER (PARTITION BY g ORDER BY k) AS cum FROM bins),
pick AS (SELECT walk.g, min(walk.k) AS bk FROM walk JOIN tot ON walk.g = tot.g
         WHERE walk.cum > 0.5 * (tot.n - 1) GROUP BY 1),
med AS (SELECT g, CASE WHEN bk > 0 THEN 2*pow({GAMMA_SQL}, bk - {OFFSET})/({GAMMA_SQL}+1) WHEN bk < 0 THEN -2*pow({GAMMA_SQL}, -(bk) - {OFFSET})/({GAMMA_SQL}+1) ELSE 0.0 END AS m FROM pick),
r AS (SELECT src.g, abs(src.x - med.m) AS rx
      FROM src JOIN med ON med.g = src.g),
keyed2 AS (SELECT g, CASE WHEN rx > 0 THEN CAST(ceil(ln(rx)/ln({GAMMA_SQL})) AS BIGINT) + {OFFSET} WHEN rx < 0 THEN -CAST(ceil(ln(-(rx))/ln({GAMMA_SQL})) AS BIGINT) - {OFFSET} ELSE 0 END AS k FROM r),
bins2 AS (SELECT g, k, CAST(count(*) AS DOUBLE) AS c FROM keyed2 GROUP BY 1, 2),
tot2 AS (SELECT g, sum(c) AS n FROM bins2 GROUP BY 1),
walk2 AS (SELECT g, k, sum(c) OVER (PARTITION BY g ORDER BY k) AS cum FROM bins2),
pick2 AS (SELECT walk2.g, min(walk2.k) AS bk FROM walk2 JOIN tot2 ON walk2.g = tot2.g
          WHERE walk2.cum > 0.5 * (tot2.n - 1) GROUP BY 1)
SELECT med.g AS l_returnflag, round(med.m, 6) AS est_median,
       round(CASE WHEN pick2.bk > 0 THEN 2*pow({GAMMA_SQL}, pick2.bk - {OFFSET})/({GAMMA_SQL}+1) WHEN pick2.bk < 0 THEN -2*pow({GAMMA_SQL}, -(pick2.bk) - {OFFSET})/({GAMMA_SQL}+1) ELSE 0.0 END, 6) AS est_mad
FROM med JOIN pick2 ON pick2.g = med.g
ORDER BY 1""",
        "dds_rollup_lang_source": f"""
WITH src AS (SELECT lang, source, CAST(n_chars AS DOUBLE) AS x
             FROM documents WHERE n_chars IS NOT NULL),
keyed AS (SELECT lang, source, CASE WHEN x > 0 THEN CAST(ceil(ln(x)/ln({GAMMA_SQL})) AS BIGINT) + {OFFSET} WHEN x < 0 THEN -CAST(ceil(ln(-x)/ln({GAMMA_SQL})) AS BIGINT) - {OFFSET} ELSE 0 END AS k FROM src),
qs(q) AS (VALUES (0.5), (0.95)),
binsf AS (SELECT lang, source, k, CAST(count(*) AS DOUBLE) AS c
          FROM keyed GROUP BY 1, 2, 3),
totf AS (SELECT lang, source, sum(c) AS n FROM binsf GROUP BY 1, 2),
walkf AS (SELECT lang, source, k,
                 sum(c) OVER (PARTITION BY lang, source ORDER BY k) AS cum
          FROM binsf),
pickf AS (SELECT w.lang, w.source, qs.q, min(w.k) AS bk
          FROM qs CROSS JOIN walkf w
          JOIN totf t ON t.lang = w.lang AND t.source = w.source
          WHERE w.cum > qs.q * (t.n - 1) GROUP BY 1, 2, 3),
binsc AS (SELECT lang, k, CAST(count(*) AS DOUBLE) AS c
          FROM keyed GROUP BY 1, 2),
totc AS (SELECT lang, sum(c) AS n FROM binsc GROUP BY 1),
walkc AS (SELECT lang, k,
                 sum(c) OVER (PARTITION BY lang ORDER BY k) AS cum
          FROM binsc),
pickc AS (SELECT w.lang, qs.q, min(w.k) AS bk
          FROM qs CROSS JOIN walkc w JOIN totc t ON t.lang = w.lang
          WHERE w.cum > qs.q * (t.n - 1) GROUP BY 1, 2)
SELECT lang, source, q, round(CASE WHEN bk > 0 THEN 2*pow({GAMMA_SQL}, bk - {OFFSET})/({GAMMA_SQL}+1) WHEN bk < 0 THEN -2*pow({GAMMA_SQL}, -bk - {OFFSET})/({GAMMA_SQL}+1) ELSE 0.0 END, 6) AS est FROM pickf
UNION ALL
SELECT lang, 'ALL' AS source, q, round(CASE WHEN bk > 0 THEN 2*pow({GAMMA_SQL}, bk - {OFFSET})/({GAMMA_SQL}+1) WHEN bk < 0 THEN -2*pow({GAMMA_SQL}, -bk - {OFFSET})/({GAMMA_SQL}+1) ELSE 0.0 END, 6) AS est FROM pickc
ORDER BY 1, 2, 3""",
        "neardup_keep_stats": """
WITH RECURSIVE nums AS (
  SELECT CAST(range AS BIGINT) AS i FROM range(1, 1048576)
), sh AS (
  SELECT DISTINCT doc_id, substr(text, i, 9) AS s
  FROM documents JOIN nums ON nums.i <= length(text) - 8
  WHERE doc_id < 40
), sizes AS (
  SELECT doc_id, count(*) AS n FROM sh GROUP BY 1
), inter AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
         CAST(count(*) AS BIGINT) AS inter
  FROM sh a JOIN sh b ON a.s = b.s AND a.doc_id < b.doc_id
  GROUP BY 1, 2
), jacc AS (
  SELECT doc_a, doc_b, inter,
         CAST(sa.n + sb.n - inter AS BIGINT) AS uni
  FROM inter
  JOIN sizes sa ON sa.doc_id = doc_a
  JOIN sizes sb ON sb.doc_id = doc_b
), e AS (
  SELECT doc_a AS a, doc_b AS b FROM jacc WHERE 16 * inter >= uni
), nodes AS (
  SELECT DISTINCT doc_id FROM documents WHERE doc_id < 40
), e2 AS (
  SELECT a, b FROM e UNION SELECT b, a FROM e
), reach(node, lab) AS (
  SELECT doc_id, doc_id FROM nodes
  UNION
  SELECT e2.b, r.lab FROM reach r JOIN e2 ON e2.a = r.node
), comp AS (
  SELECT node AS doc_id, min(lab) AS component FROM reach GROUP BY 1
)
SELECT d.lang, CAST(count(*) AS BIGINT) AS n_kept,
       CAST(sum(d.n_chars) AS BIGINT) AS sum_chars
FROM comp JOIN documents d ON d.doc_id = comp.doc_id
WHERE comp.doc_id = comp.component
GROUP BY 1 ORDER BY 1""",
        # same pairs + transitive closure, keep = argmax quality
        # composite per component (n_chars desc, doc_id asc)
        "neardup_keep_best_quality": """
WITH RECURSIVE nums AS (
  SELECT CAST(range AS BIGINT) AS i FROM range(1, 1048576)
), sh AS (
  SELECT DISTINCT doc_id, substr(text, i, 9) AS s
  FROM documents JOIN nums ON nums.i <= length(text) - 8
  WHERE doc_id < 40
), sizes AS (
  SELECT doc_id, count(*) AS n FROM sh GROUP BY 1
), inter AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
         CAST(count(*) AS BIGINT) AS inter
  FROM sh a JOIN sh b ON a.s = b.s AND a.doc_id < b.doc_id
  GROUP BY 1, 2
), jacc AS (
  SELECT doc_a, doc_b, inter,
         CAST(sa.n + sb.n - inter AS BIGINT) AS uni
  FROM inter
  JOIN sizes sa ON sa.doc_id = doc_a
  JOIN sizes sb ON sb.doc_id = doc_b
), e AS (
  SELECT doc_a AS a, doc_b AS b FROM jacc WHERE 16 * inter >= uni
), nodes AS (
  SELECT DISTINCT doc_id FROM documents WHERE doc_id < 40
), e2 AS (
  SELECT a, b FROM e UNION SELECT b, a FROM e
), reach(node, lab) AS (
  SELECT doc_id, doc_id FROM nodes
  UNION
  SELECT e2.b, r.lab FROM reach r JOIN e2 ON e2.a = r.node
), comp AS (
  SELECT node AS doc_id, min(lab) AS component FROM reach GROUP BY 1
), langs AS (
  SELECT lang, dense_rank() OVER (ORDER BY lang) - 1 AS code
  FROM (SELECT DISTINCT lang FROM documents WHERE doc_id < 40)
), best AS (
  SELECT comp.component,
         max((d.n_chars * 1024 + (1023 - d.doc_id)) * 8 + langs.code)
           AS v
  FROM comp
  JOIN documents d ON d.doc_id = comp.doc_id
  JOIN langs ON langs.lang = d.lang
  GROUP BY 1
), dec AS (
  SELECT v % 8 AS code, (v // 8) // 1024 AS nch FROM best
)
SELECT langs.lang, CAST(count(*) AS BIGINT) AS n_kept,
       CAST(sum(dec.nch) AS BIGINT) AS sum_chars
FROM dec JOIN langs USING (code)
GROUP BY 1 ORDER BY 1""",
        "quantile_error_report": f"""
WITH src AS (SELECT CAST(l_extendedprice AS DOUBLE) AS x
             FROM lineitem WHERE l_extendedprice IS NOT NULL),
keyed AS (SELECT x,
                 CASE WHEN x > 0 THEN CAST(ceil(ln(x)/ln({GAMMA_SQL})) AS BIGINT) + {OFFSET}
                      WHEN x < 0 THEN -CAST(ceil(ln(-x)/ln({GAMMA_SQL})) AS BIGINT) - {OFFSET}
                      ELSE 0 END AS k FROM src),
bins AS (SELECT k, CAST(count(*) AS DOUBLE) AS c FROM keyed GROUP BY k),
tot AS (SELECT sum(c) AS n FROM bins),
walk AS (SELECT k, sum(c) OVER (ORDER BY k) AS cum FROM bins),
qs(q) AS (VALUES (0.5), (0.95), (0.99)),
pick AS (SELECT qs.q AS q, min(walk.k) AS bk
         FROM qs CROSS JOIN walk CROSS JOIN tot
         WHERE walk.cum > qs.q * (tot.n - 1) GROUP BY qs.q),
est AS (SELECT q, CASE WHEN bk > 0 THEN 2*pow({GAMMA_SQL}, bk - {OFFSET})/({GAMMA_SQL}+1)
                       WHEN bk < 0 THEN -2*pow({GAMMA_SQL}, -bk - {OFFSET})/({GAMMA_SQL}+1)
                       ELSE 0.0 END AS e FROM pick),
ex AS (SELECT unnest([0.5, 0.95, 0.99]) AS q,
              unnest(quantile_disc(x, [0.5, 0.95, 0.99])) AS x
       FROM src)
SELECT est.q AS q, round(est.e, 6) AS est, ex.x AS exact,
       CAST(FLOOR(abs(est.e - ex.x) / ex.x * 1000000.0 + 0.5) AS BIGINT)
           AS rel_err_ppm
FROM est JOIN ex ON ex.q = est.q
ORDER BY 1""",
        "redact_props_stats": _REDACT_PROPS_SQL,
        "mg_heavy_users": _MG_HEAVY_USERS_SQL,
        "token_explode_sample": _TOKEN_EXPLODE_SQL,
        "lineitem_unpivot_stats": _LINEITEM_UNPIVOT_SQL,
        "split_assign_stats": _SPLIT_ASSIGN_SQL,
        "epoch_shuffle_stats": _EPOCH_SHUFFLE_SQL,
        "percentile_norm_by_source": _PERCENTILE_NORM_SQL,
        "universe_join_sample": _UNIVERSE_JOIN_SAMPLE_SQL,
        "hhh_type_user": _HHH_TYPE_USER_SQL,
        "feature_info_gain": _FEATURE_INFO_GAIN_SQL,
        "dp_noisy_counts": _DP_NOISY_COUNTS_SQL,
        "huber_location_by_flag": _HUBER_LOCATION_SQL,
        "template_prefix_clusters": _TEMPLATE_PREFIX_SQL,
        "doc_novelty_stats": _DOC_NOVELTY_SQL,
        "median_polish_doclen": _MEDIAN_POLISH_SQL,
        "equi_depth_buckets": _EQUI_DEPTH_SQL,
        "source_vocab_overlap": _SOURCE_VOCAB_OVERLAP_SQL,
        "value_hour_sufficient_stats": _VALUE_HOUR_STATS_SQL,
        "weighted_sample_orders": _WEIGHTED_SAMPLE_SQL,
        "validation_report": _VALIDATION_REPORT_SQL,
        "returned_revenue_top_customers": _RETURNED_REVENUE_SQL,
        "incremental_daily_revenue": _INCREMENTAL_DAILY_REVENUE_SQL,
        "diversified_top_orders": _DIVERSIFIED_TOP_SQL,
        "partitioned_write_read_stats": _PARTITIONED_RT_SQL,
        "sketch_cdf_by_type": """
WITH src AS (SELECT event_type, CAST(value AS DOUBLE) AS x
             FROM events WHERE value IS NOT NULL),
keyed AS (SELECT event_type,
                 CASE WHEN x > 0 THEN CAST(ceil(ln(x)/ln(((1.0+0.01)/(1.0-0.01)))) AS BIGINT) + 1073741824
                      WHEN x < 0 THEN -CAST(ceil(ln(-x)/ln(((1.0+0.01)/(1.0-0.01)))) AS BIGINT) - 1073741824
                      ELSE 0 END AS k
          FROM src),
bins AS (SELECT k, CAST(count(*) AS BIGINT) AS c FROM keyed GROUP BY k),
walk AS (SELECT k, CAST(sum(c) OVER (ORDER BY k) AS BIGINT) AS cum FROM bins)
SELECT keyed.event_type,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(walk.cum) AS BIGINT) AS sum_cum
FROM keyed JOIN walk ON walk.k = keyed.k
GROUP BY 1 ORDER BY 1""",
        "user_running_totals": _USER_RUNNING_TOTALS_SQL,
        "user_moving_window": _USER_MOVING_WINDOW_SQL,
        "user_event_sequences": _USER_EVENT_SEQUENCES_SQL,
        "funnel_counts": _FUNNEL_COUNTS_SQL,
        "cohort_retention": _COHORT_RETENTION_SQL,
        "active_user_counts": _ACTIVE_USER_COUNTS_SQL,
        "ngram_jaccard_pairs": _NGRAM_JACCARD_SQL,
        "chunk_dedup_stats": _CHUNK_DEDUP_SQL,
        "simhash_signatures": _SIMHASH_SIGNATURES_SQL,
        "minhash_signature_stats": _MINHASH_SIGNATURE_SQL,
        "minhash_neardup_docs": _MINHASH_NEARDUP_SQL,
        "simhash_neardup_docs": _SIMHASH_NEARDUP_SQL,
        "dup_span_stats": _DUP_SPAN_SQL,
        # transitive closure of the Jaccard >= 1/16 similarity graph:
        # same shingle/pairs CTEs as ngram_jaccard_pairs + a recursive
        # min-label reachability walk (the SQL statement of what
        # small-star/large-star computes distributed)
        "neardup_components": """
WITH RECURSIVE nums AS (
  SELECT CAST(range AS BIGINT) AS i FROM range(1, 1048576)
), sh AS (
  SELECT DISTINCT doc_id, substr(text, i, 9) AS s
  FROM documents JOIN nums ON nums.i <= length(text) - 8
  WHERE doc_id < 40
), sizes AS (
  SELECT doc_id, count(*) AS n FROM sh GROUP BY 1
), inter AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
         CAST(count(*) AS BIGINT) AS inter
  FROM sh a JOIN sh b ON a.s = b.s AND a.doc_id < b.doc_id
  GROUP BY 1, 2
), jacc AS (
  SELECT doc_a, doc_b, inter,
         CAST(sa.n + sb.n - inter AS BIGINT) AS uni
  FROM inter
  JOIN sizes sa ON sa.doc_id = doc_a
  JOIN sizes sb ON sb.doc_id = doc_b
), e AS (
  SELECT doc_a AS a, doc_b AS b FROM jacc WHERE 16 * inter >= uni
), nodes AS (
  SELECT DISTINCT doc_id FROM documents WHERE doc_id < 40
), e2 AS (
  SELECT a, b FROM e UNION SELECT b, a FROM e
), reach(node, lab) AS (
  SELECT doc_id, doc_id FROM nodes
  UNION
  SELECT e2.b, r.lab FROM reach r JOIN e2 ON e2.a = r.node
)
SELECT node AS doc_id, CAST(min(lab) AS BIGINT) AS component
FROM reach GROUP BY 1 ORDER BY 1""",
        "multimodal_frame_sample": """
SELECT lang,
       count(*) AS n_docs,
       CAST(sum(length(text) // 256) AS BIGINT) AS sum_frames,
       CAST(sum((length(text) // 256 + 3) // 4) AS BIGINT) AS sum_sampled,
       CAST(sum(((length(text) // 256 + 3) // 4) * 256) AS BIGINT)
           AS sum_sampled_bytes
FROM documents
GROUP BY 1
ORDER BY 1""",
        # KMV state replica: k smallest distinct hash(user_id) per group;
        # kth hash split 32/32 (UBIGINT does not survive the pandas hash),
        # mod-2^31 checksum over the stored set, estimator (k-1)*2^64/kth
        # with the EXACT float op order of KMVSketch.estimate_f
        "kmv_distinct_users": """
WITH d AS (SELECT DISTINCT event_type, hash(user_id) AS hv FROM events),
r AS (SELECT event_type, hv,
             row_number() OVER (PARTITION BY event_type ORDER BY hv) rn
      FROM d)
SELECT event_type,
       CAST(count(*) AS BIGINT) AS n_mins,
       CAST(max(hv) // 4294967296 AS BIGINT) AS kth_hi,
       CAST(max(hv) % 4294967296 AS BIGINT) AS kth_lo,
       CAST(sum(hv % 2147483648) AS BIGINT) AS mins_checksum,
       CASE WHEN count(*) < 64 THEN CAST(count(*) AS BIGINT)
            ELSE CAST(FLOOR(63 * (18446744073709551616.0 /
                 CAST(max(hv) AS DOUBLE)) + 0.5) AS BIGINT)
       END AS est_distinct
FROM r WHERE rn <= 64
GROUP BY event_type
ORDER BY 1""",
        "kmv_anotb_users": _KMV_ANOTB_SQL,
        "table_profile_sketched": _TABLE_PROFILE_SQL,
        "cms_weighted_revenue": _CMS_WEIGHTED_SQL,
        "psi_drift_binned": _PSI_DRIFT_SQL,
        "diff_in_diff_report": _DIFF_IN_DIFF_SQL,
        "rake_keywords_topk": _RAKE_KEYWORDS_SQL,
        "conversion_lag_dds": _dds_sql(_CONV_LAG_TABLE, "lag_us"),
        "dds_alpha_error_sweep": _ALPHA_SWEEP_SQL,
        "kmv_user_overlap": """
WITH d AS (SELECT DISTINCT event_type, hash(user_id) AS hv FROM events),
r AS (SELECT event_type, hv,
             row_number() OVER (PARTITION BY event_type ORDER BY hv) rn
      FROM d),
topk AS (SELECT event_type, hv FROM r WHERE rn <= 64),
pairs AS (SELECT a.event_type AS ta, b.event_type AS tb
          FROM (SELECT DISTINCT event_type FROM events) a
          JOIN (SELECT DISTINCT event_type FROM events) b
            ON a.event_type < b.event_type),
u AS (SELECT ta, tb, hv,
             row_number() OVER (PARTITION BY ta, tb ORDER BY hv) rn
      FROM (SELECT DISTINCT p.ta, p.tb, t.hv
            FROM pairs p JOIN topk t
              ON t.event_type = p.ta OR t.event_type = p.tb)),
ul AS (SELECT ta, tb, hv FROM u WHERE rn <= 64),
st AS (SELECT ta, tb, CAST(count(*) AS BIGINT) AS nl, max(hv) AS kth
       FROM ul GROUP BY 1, 2),
cm AS (SELECT ul.ta, ul.tb, CAST(count(*) AS BIGINT) AS c
       FROM ul
       JOIN topk x ON x.event_type = ul.ta AND x.hv = ul.hv
       JOIN topk y ON y.event_type = ul.tb AND y.hv = ul.hv
       GROUP BY 1, 2)
SELECT st.ta AS type_a, st.tb AS type_b, st.nl AS n_l,
       COALESCE(cm.c, 0) AS n_common,
       CAST(FLOOR((CASE WHEN st.nl < 64 THEN CAST(st.nl AS DOUBLE)
            ELSE 63 * (18446744073709551616.0 / CAST(st.kth AS DOUBLE))
            END) + 0.5) AS BIGINT) AS est_union,
       CAST(FLOOR(((CAST(COALESCE(cm.c, 0) AS DOUBLE) / st.nl) *
            (CASE WHEN st.nl < 64 THEN CAST(st.nl AS DOUBLE)
             ELSE 63 * (18446744073709551616.0 / CAST(st.kth AS DOUBLE))
             END)) + 0.5) AS BIGINT) AS est_intersection
FROM st LEFT JOIN cm ON cm.ta = st.ta AND cm.tb = st.tb
ORDER BY 1, 2""",
        "priority_sample_revenue": _PRIORITY_SAMPLE_SQL,
        "bbit_minhash_jaccard": _BBIT_MINHASH_SQL,
        "srp_cosine_hamming": _SRP_COSINE_SQL,
        "oph_minhash_densified": _OPH_MINHASH_SQL,
        "hyperminhash_type_jaccard": _HYPERMINHASH_SQL,
        "dgim_sliding_count": _DGIM_SLIDING_SQL,
        "dgim_sliding_count_by_type": _DGIM_BY_TYPE_SQL,
        "cms_sliding_by_type": _CMS_BY_TYPE_SQL,
        "cmm_user_counts": _CMM_USER_COUNTS_SQL,
        "dds_decayed_value": f"""
WITH mx AS (
  SELECT max(CAST(epoch_us(ts) AS BIGINT) // 3600000000) AS m
  FROM events
), src AS (
  SELECT CAST(value AS DOUBLE) AS x,
         CAST(CASE WHEN (mx.m - CAST(epoch_us(ts) AS BIGINT)
                         // 3600000000) // 12 <= 20
                   THEN 1::BIGINT << CAST(20 - (mx.m
                        - CAST(epoch_us(ts) AS BIGINT) // 3600000000)
                        // 12 AS INT)
                   ELSE 0 END AS DOUBLE) AS w
  FROM events, mx WHERE value IS NOT NULL
), keyed AS (
  SELECT CASE WHEN x > 0 THEN CAST(ceil(ln(x)/ln({GAMMA_SQL})) AS BIGINT) + {OFFSET}
              WHEN x < 0 THEN -CAST(ceil(ln(-x)/ln({GAMMA_SQL})) AS BIGINT) - {OFFSET}
              ELSE 0 END AS k, w FROM src
), bins AS (SELECT k, sum(w) AS c FROM keyed GROUP BY k),
tot AS (SELECT sum(c) AS n FROM bins),
walk AS (SELECT k, sum(c) OVER (ORDER BY k) AS cum FROM bins),
qs(q) AS (VALUES (0.5), (0.9), (0.99)),
pick AS (SELECT qs.q AS q, min(walk.k) AS bucket_key
         FROM qs CROSS JOIN walk CROSS JOIN tot
         WHERE walk.cum > qs.q * (tot.n - 1) GROUP BY qs.q)
SELECT q, bucket_key,
       round(CASE WHEN bucket_key > 0
                  THEN 2*pow({GAMMA_SQL}, bucket_key - {OFFSET})/({GAMMA_SQL}+1)
                  WHEN bucket_key < 0
                  THEN -2*pow({GAMMA_SQL}, -bucket_key - {OFFSET})/({GAMMA_SQL}+1)
                  ELSE 0.0 END, 6) AS est
FROM pick""",
        "priority_sample_by_segment": _PRIORITY_SAMPLE_BY_SEG_SQL,
        "weighted_minhash_pairs": _WEIGHTED_MINHASH_SQL,
        "bmp_decode_stats": _BMP_DECODE_SQL,
        "wav_decode_stats": _WAV_DECODE_SQL,
        "ppm_resize_checksum": _PPM_RESIZE_SQL,
    }
