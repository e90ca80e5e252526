"""Relational demo pipelines over the driver testdata tables.

These exercise the engine's general dataflow operators (filter, project,
vectorized map, broadcast join, grouped aggregation, window bucketing,
sort/top-k) with Ray Data idioms, and are each paired with an ANSI-SQL
oracle in __ray_entry__.oracle_sql.

Every grouped exact aggregate (sum / count / min / max) runs on
``stages.combine.combine_agg``: the pipeline's ``prep`` emits one row per
input item (no hand fold), one Arrow ``group_by`` folds the batch to one
partial row per key (so the exchange moves O(keys) rows per batch, not one
per input row), ``stages.exchange.keyed_merge`` brings each key's partials
into one table (one task while they are small, else a sort shuffle), and
one more ``group_by`` per table merges them before the pipeline's
``finalize``, which only names, casts or derives columns (``named``
when it just renames).  Only scalar ``Dataset.aggregate`` calls and
driver-side pandas roll-ups remain outside it.

Determinism for the driver's value-hash compare: every floating aggregate
is accumulated in integer units ("cents trick": per-row doubles are
bit-identical between numpy and DuckDB, so round(x*scale) -> int64 -> sum
is order-independent and hash-exact), and ratios are computed from those
integers at the end.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data
from ray.data.aggregate import Count, Max, Min, Sum

from ..sources.tables import read_table as _read
from ..stages.combine import combine_agg, named
from ..stages.partition import fit_partitions
from ..stages.sketch_build import collect


def _int_units(col: pa.ChunkedArray | pa.Array, scale: float) -> pa.Array:
    """round(col*scale) as int64 -- order-independent summation units."""
    scaled = pc.multiply(pc.cast(col, pa.float64()), pa.scalar(float(scale)))
    return pc.cast(pc.round(scaled), pa.int64())


def _event_hours(t: pa.Table) -> pa.Table:
    """(event_type, h): each event's type and epoch hour."""
    return pa.table({"event_type": t["event_type"],
                     "h": pc.divide(pc.cast(t["ts"], pa.int64()),
                                    pa.scalar(3_600_000_000, pa.int64()))})


def _customer_revenue(orders: "ray.data.Dataset") -> "ray.data.Dataset":
    """(cust, rev): each customer's order total in integer cents."""
    return combine_agg(
        orders, ["cust"],
        lambda t: pa.table({"cust": pc.cast(t["o_custkey"], pa.int64()),
                            "rev": _int_units(t["o_totalprice"], 100)}),
        [("rev", "sum")], named("cust", "rev"))


def _tokens(t: pa.Table, *carry: str) -> pa.Table:
    """One row per whitespace token of ``t["text"]`` (column ``tok``),
    after each ``carry`` column repeated from the token's document."""
    toks = pc.split_pattern(t["text"], pattern=" ")
    doc = pc.list_parent_indices(toks)
    return pa.table({**{c: pc.take(t[c], doc) for c in carry},
                     "tok": pc.list_flatten(toks)})


def pricing_summary(sf_dir: str) -> "ray.data.Dataset":
    """TPC-H-Q1-shaped grouped aggregation over lineitem (exact)."""
    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity",
                "l_extendedprice", "l_discount"])

    def prep(t: pa.Table) -> pa.Table:
        qty = pc.cast(t["l_quantity"], pa.int64())
        base_cents = _int_units(t["l_extendedprice"], 100)
        disc_price = pc.multiply(
            pc.cast(t["l_extendedprice"], pa.float64()),
            pc.subtract(pa.scalar(1.0), pc.cast(t["l_discount"], pa.float64())))
        disc_units = pc.cast(pc.round(pc.multiply(disc_price, pa.scalar(10000.0))),
                             pa.int64())
        return pa.table({
            "l_returnflag": t["l_returnflag"],
            "l_linestatus": t["l_linestatus"],
            "qty": qty, "base_cents": base_cents, "disc_units": disc_units,
        })

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table({
            "l_returnflag": t["l_returnflag"],
            "l_linestatus": t["l_linestatus"],
            "sum_qty": t["qty_sum"],
            "sum_base_price": pc.divide(
                pc.cast(t["base_cents_sum"], pa.float64()), pa.scalar(100.0)),
            "sum_disc_price": pc.divide(
                pc.cast(t["disc_units_sum"], pa.float64()),
                pa.scalar(10000.0)),
            # exact ratio of deterministic integers -- bit-identical to the
            # SQL division, no rounding needed (rounding near ratio
            # boundaries would differ: pyarrow half-to-even vs DuckDB
            # half-away-from-zero)
            "avg_qty": pc.divide(pc.cast(t["qty_sum"], pa.float64()),
                                 pc.cast(t["qty_count"], pa.float64())),
            "n_rows": t["qty_count"],
        })

    return combine_agg(ds, ["l_returnflag", "l_linestatus"], prep,
                       [("qty", "sum"), ("base_cents", "sum"),
                        ("disc_units", "sum"), ("qty", "count")], finalize)


def topk_orders(sf_dir: str, k: int = 10) -> "ray.data.Dataset":
    """Distributed top-k: per-block prereduce, then global sort + limit
    over O(blocks * k) rows."""
    from ..stages.topk import topk
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    return topk(ds, [("o_totalprice", "descending"),
                     ("o_orderkey", "ascending")], k)


def customer_nation_rollup(sf_dir: str) -> "ray.data.Dataset":
    """Broadcast join: nation (25 rows) is ray.put once and looked up
    inside map_batches -- no shuffle join for a small dimension side
    (SURVEY.md section 2.4: the reference has no joins; this is the
    engine-level lookup pattern for small sides)."""
    import pyarrow.parquet as pq
    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_name"])
    # broadcast the dimension side as Arrow arrays; lookup is fully
    # vectorized (pc.index_in + pc.take), no per-row Python
    lookup_ref = ray.put((nation["n_nationkey"].combine_chunks(),
                          nation["n_name"].combine_chunks()))
    ds = _read(sf_dir, "customer", ["c_nationkey", "c_acctbal"])

    def join_batch(t: pa.Table) -> pa.Table:
        dim_keys, dim_names = ray.get(lookup_ref)
        idx = pc.index_in(t["c_nationkey"], value_set=dim_keys)
        return pa.table({
            "n_name": pc.take(dim_names, idx),
            "acct_cents": _int_units(t["c_acctbal"], 100),
        })

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table({
            "n_name": t["n_name"],
            "n_customers": t["acct_cents_count"],
            "sum_acctbal": pc.divide(
                pc.cast(t["acct_cents_sum"], pa.float64()), pa.scalar(100.0)),
        })

    return combine_agg(ds, ["n_name"], join_batch,
                       [("acct_cents", "count"), ("acct_cents", "sum")],
                       finalize)


def events_hourly_window(sf_dir: str) -> "ray.data.Dataset":
    """Tumbling 1-hour event-time window per event_type (batch analog of a
    streaming window; Ray Data has no watermarks -- see ray_guide):
    window_start = unix seconds of the hour bucket."""
    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def bucket(t: pa.Table) -> pa.Table:
        us = pc.cast(t["ts"], pa.int64())  # timestamp[us] -> microseconds
        hours = pc.divide(us, pa.scalar(3_600_000_000))
        return pa.table({
            "event_type": t["event_type"],
            "window_start": pc.multiply(hours, pa.scalar(3600)),
            "value_cents": _int_units(t["value"], 100),
        })

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": t["event_type"],
            "window_start": t["window_start"],
            "n_events": t["value_cents_count"],
            "sum_value": pc.divide(
                pc.cast(t["value_cents_sum"], pa.float64()), pa.scalar(100.0)),
        })

    return combine_agg(ds, ["event_type", "window_start"], bucket,
                       [("value_cents", "count"), ("value_cents", "sum")],
                       finalize)


def docs_by_lang(sf_dir: str) -> "ray.data.Dataset":
    """Exact grouped count + min/max metric (documents)."""
    ds = _read(sf_dir, "documents", ["lang", "n_chars"])
    def finalize(t: pa.Table) -> pa.Table:
        return pa.table({
            "lang": t["lang"],
            "n_docs": t["n_chars_count"],
            "min_chars": pc.cast(t["n_chars_min"], pa.int64()),
            "max_chars": pc.cast(t["n_chars_max"], pa.int64()),
        })

    return combine_agg(ds, ["lang"], lambda t: t,
                       [("n_chars", "count"), ("n_chars", "min"),
                        ("n_chars", "max")], finalize)


def distinct_user_count(sf_dir: str) -> pa.Table:
    """Exact distinct count via shuffle groupby (the exact twin of the HLL
    estimate pipeline)."""
    ds = _read(sf_dir, "events", ["user_id"])
    n = combine_agg(ds, ["user_id"], lambda t: t, [], lambda t: t).count()
    return pa.table({"n_distinct": pa.array([n], type=pa.int64())})


def token_stats_by_lang(sf_dir: str) -> "ray.data.Dataset":
    """Vectorized text metrics -> grouped aggregation (documents)."""
    from ..functions.text import (punct_count, quality_score_from_counts,
                                  stopword_count, token_count)
    ds = _read(sf_dir, "documents", ["lang", "text"])

    def metrics(t: pa.Table) -> pa.Table:
        texts = t["text"].combine_chunks() if isinstance(t["text"], pa.ChunkedArray) else t["text"]
        tokens, punct, stops = (token_count(texts), punct_count(texts),
                                stopword_count(texts))
        q = quality_score_from_counts(
            tokens.to_numpy(zero_copy_only=False),
            punct.to_numpy(zero_copy_only=False),
            stops.to_numpy(zero_copy_only=False))
        return pa.table({
            "lang": t["lang"],
            "tokens": tokens,
            "punct": punct,
            "stops": stops,
            # floor(x*1e6 + 0.5) on BOTH sides: immune to the numpy
            # half-to-even vs DuckDB half-away rounding split at exact .5
            "quality_micro": pc.cast(
                pc.floor(pc.add(pc.multiply(q, pa.scalar(1e6)),
                                pa.scalar(0.5))), pa.int64()),
        })

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table({
            "lang": t["lang"],
            "n_docs": t["tokens_count"],
            "sum_tokens": pc.cast(t["tokens_sum"], pa.int64()),
            "sum_punct": pc.cast(t["punct_sum"], pa.int64()),
            "sum_stops": pc.cast(t["stops_sum"], pa.int64()),
            # exact: (int / 1e6) / int, same op order as the oracle SQL
            "avg_quality": pc.divide(
                pc.divide(pc.cast(t["quality_micro_sum"], pa.float64()),
                          pa.scalar(1e6)),
                pc.cast(t["tokens_count"], pa.float64())),
        })

    return combine_agg(ds, ["lang"], metrics,
                       [("tokens", "count"), ("tokens", "sum"),
                        ("punct", "sum"), ("stops", "sum"),
                        ("quality_micro", "sum")], finalize)


def _content_hash_batch(t: pa.Table, hash_tier: str) -> pa.Table:
    """(hash column, doc_id) rows for exact dedup.  Two tiers:

    * ``"fp64"`` (default, 100 TB path): C-vectorized 64-bit SipHash
      fingerprint -- O(total bytes), no per-row Python.  Expected
      cross-group collisions at 10^12 distinct docs: ~n^2/2^65 =~ 27k
      (false merges lose ~3e-8 of the corpus); acceptable for training-data
      dedup, not for an exactness proof.
    * ``"md5"`` (oracle tier): 128-bit, replicable in DuckDB ``md5(col)``
      for the correctness gate; per-row hashlib (C speed, Python loop).
    """
    if hash_tier == "md5":
        from ..hashing import md5_hex
        col = pa.array(md5_hex(t["text"]), type=pa.string())
        name = "text_md5"
    elif hash_tier == "fp64":
        from ..functions.text import fingerprint64
        col = fingerprint64(t["text"])
        name = "text_fp64"
    else:
        raise ValueError(f"unknown hash_tier {hash_tier!r}")
    return pa.table({name: col, "doc_id": pc.cast(t["doc_id"], pa.int64())})


def dedup_exact_docs(sf_dir: str,
                     hash_tier: str = "fp64") -> "ray.data.Dataset":
    """Exact dedup by content hash -> (first doc_id, dup count).
    Hash-partition groupby on the digest; at 100 TB the digest column is
    the only thing shuffled besides doc_id.  ``hash_tier`` picks the
    digest (see _content_hash_batch); the driver's oracle query passes
    "md5" explicitly, everything else defaults to the fast fingerprint."""
    from functools import partial as _partial
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    hash_col = "text_md5" if hash_tier == "md5" else "text_fp64"

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table({hash_col: t[hash_col],
                         "first_doc_id": t["doc_id_min"],
                         "dup_count": t["doc_id_count"]})

    return combine_agg(ds, [hash_col],
                       _partial(_content_hash_batch, hash_tier=hash_tier),
                       [("doc_id", "min"), ("doc_id", "count")], finalize)


def dedup_exact_keep(sf_dir: str,
                     hash_tier: str = "fp64") -> "ray.data.Dataset":
    """Materialize the deduplicated corpus: keep the first (min doc_id)
    document of every distinct text.  Fully distributed -- nothing
    O(distinct docs) ever reaches the driver:

    1. content-hash groupby -> keep-set dataset (one int64 per DISTINCT
       text, stays in the object store);
    2. inner hash semi-join of the corpus against the keep-set on doc_id
       (Ray's hash-shuffle join: both sides partition by the key, so a
       mostly-unique 100 TB corpus streams through without any driver
       materialization or per-batch probe of a giant broadcast array).
    """
    from functools import partial as _partial
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    hash_col = "text_md5" if hash_tier == "md5" else "text_fp64"
    keep_ids = combine_agg(
        ds, [hash_col], _partial(_content_hash_batch, hash_tier=hash_tier),
        [("doc_id", "min")], lambda t: pa.table({"keep_id": t["doc_id_min"]}))

    docs = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": pc.cast(t["doc_id"], pa.int64()),
                         "lang": t["lang"],
                         "n_chars": pc.cast(t["n_chars"], pa.int64())})

    joined = docs.map_batches(prep, batch_format="pyarrow").join(
        keep_ids, "inner", num_partitions=fit_partitions(16),
        on=("doc_id",), right_on=("keep_id",))

    return joined.map_batches(
        lambda t: t.select(["doc_id", "lang", "n_chars"]),
        batch_format="pyarrow")


def quality_filter_by_lang(sf_dir: str,
                           min_quality: float = 0.8) -> "ray.data.Dataset":
    """Vectorized predicate filter (quality score >= threshold) inside
    map_batches -> grouped aggregate: the quality-filtering stage of a
    training-data pipeline, exact and SQL-replicable (the score expression
    is bit-identical to the oracle's)."""
    from ..functions.text import quality_score, token_count
    ds = _read(sf_dir, "documents", ["lang", "text"])

    def filt(t: pa.Table) -> pa.Table:
        texts = t["text"].combine_chunks() if isinstance(
            t["text"], pa.ChunkedArray) else t["text"]
        q = quality_score(texts)
        keep = pc.greater_equal(q, pa.scalar(float(min_quality)))
        kept = t.filter(keep)
        kt = kept["text"].combine_chunks() if isinstance(
            kept["text"], pa.ChunkedArray) else kept["text"]
        return pa.table({
            "lang": kept["lang"],
            "tokens": token_count(kt),
        })

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table({
            "lang": t["lang"],
            "n_kept": t["tokens_count"],
            "sum_tokens": pc.cast(t["tokens_sum"], pa.int64()),
        })

    return combine_agg(ds, ["lang"], filt,
                       [("tokens", "count"), ("tokens", "sum")], finalize)


def top_users_exact(sf_dir: str, k: int = 10) -> "ray.data.Dataset":
    """Exact heavy hitters: event count per user -> top k (the exact twin
    of the count-min estimates in pipelines.approx)."""
    ds = _read(sf_dir, "events", ["user_id"])

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": pc.cast(t["user_id"], pa.int64()),
            "n_events": t["user_id_count"],
        })

    from ..stages.topk import topk
    return topk(combine_agg(ds, ["user_id"], lambda t: t,
                            [("user_id", "count")], finalize),
                [("n_events", "descending"), ("user_id", "ascending")], k)


def lang_id_counts(sf_dir: str) -> "ray.data.Dataset":
    """Trigram language-ID heuristic over documents -> predicted-language
    histogram (heuristic stage: rows-only check, not SQL-expressible)."""
    from ..functions.text import lang_id
    ds = _read(sf_dir, "documents", ["text"])

    def predict(t: pa.Table) -> pa.Table:
        texts = t["text"].combine_chunks() if isinstance(
            t["text"], pa.ChunkedArray) else t["text"]
        return pa.table({"pred_lang": lang_id(texts)})

    return combine_agg(ds, ["pred_lang"], predict, [("pred_lang", "count")],
                       lambda t: t.rename_columns(["pred_lang", "n_docs"]))


def events_sessionized(sf_dir: str,
                       gap_minutes: int = 30) -> "ray.data.Dataset":
    """Gap-based sessionization: the stateful ordered-window operator of a
    clickstream pipeline (no Ray Data primitive exists -- SURVEY.md
    section 2.4 'streaming windows').  Co-locate events by user via one
    coarse hash partition, then detect session starts vectorized inside
    each partition (sort by (user, ts); a session starts at a user change
    or a gap > gap_minutes).  Partitioning assumption: one user's events
    fit one partition (events are tiny rows; partitions ~ CPUs)."""
    from ..stages.partition import fit_partitions, partition_by
    gap_us = int(gap_minutes) * 60 * 1_000_000
    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": pc.cast(t["user_id"], pa.int64()),
            "us": pc.cast(t["ts"], pa.int64()),
        })

    empty = pa.table({"user_id": pa.array([], type=pa.int64()),
                      "n_sessions": pa.array([], type=pa.int64()),
                      "n_events": pa.array([], type=pa.int64())})

    def sessions(group: pa.Table) -> pa.Table:
        u = group["user_id"].to_numpy(zero_copy_only=False)
        us = group["us"].to_numpy(zero_copy_only=False)
        order = np.lexsort((us, u))
        u, us = u[order], us[order]
        new_user = np.diff(u) != 0
        new_session = np.concatenate(
            [[True], new_user | (np.diff(us) > gap_us)]).astype(np.int64)
        starts = np.concatenate([[0], np.nonzero(new_user)[0] + 1])
        ends = np.concatenate([starts[1:], [u.shape[0]]])
        return pa.table({
            "user_id": pa.array(u[starts], type=pa.int64()),
            "n_sessions": pa.array(np.add.reduceat(new_session, starts),
                                   type=pa.int64()),
            "n_events": pa.array(ends - starts, type=pa.int64()),
        })

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    return partition_by(prepped, ["user_id"], fit_partitions(32),
                        sessions, empty)


def events_sessionized_split(sf_dir: str, gap_minutes: int = 30,
                             split_hours: int = 24) -> "ray.data.Dataset":
    """Skew-tolerant exact sessionization: the fallback for a user whose
    history exceeds one partition (the one documented partitioning
    assumption of `events_sessionized` without a fallback -- VERDICT r2
    task 9).  Two levels, both vectorized:

    1. co-partition by (user, time-bucket of ``split_hours``): each
       partition sessionizes its bucket locally AND emits one summary
       row per (user, bucket) -- (n_sessions, n_events, first_us,
       last_us).  A hot user's events now spread over many partitions;
       per-partition memory is bounded by events-per-bucket, not
       events-per-user.
    2. co-partition the summaries by user (tiny: one row per ACTIVE
       bucket, so even 10^9 events in a year is ~365 rows) and stitch:
       a session spanning a bucket boundary was double-counted once per
       crossing, so subtract the crossings where the gap between one
       bucket's last event and the next active bucket's first event is
       <= the session gap.  Exact for any bucket width >= 1 event: the
       stitch compares real timestamps of ADJACENT ACTIVE buckets, so
       empty buckets in between do not break it.

    Output == `events_sessionized` row for row (asserted in tests).
    """
    from ..stages.partition import fit_partitions, partition_by
    gap_us = int(gap_minutes) * 60 * 1_000_000
    bucket_us = int(split_hours) * 3600 * 1_000_000
    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def prep(t: pa.Table) -> pa.Table:
        us = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({
            "user_id": pc.cast(t["user_id"], pa.int64()),
            "us": pa.array(us, type=pa.int64()),
            "bucket": pa.array(us // bucket_us, type=pa.int64()),
        })

    sum_empty = pa.table({name: pa.array([], type=pa.int64())
                          for name in ("user_id", "bucket", "n_sessions",
                                       "n_events", "first_us", "last_us")})

    def bucket_sessions(group: pa.Table) -> pa.Table:
        u = group["user_id"].to_numpy(zero_copy_only=False)
        us = group["us"].to_numpy(zero_copy_only=False)
        b = group["bucket"].to_numpy(zero_copy_only=False)
        order = np.lexsort((us, b, u))
        u, us, b = u[order], us[order], b[order]
        new_grp = (np.diff(u) != 0) | (np.diff(b) != 0)
        new_session = np.concatenate(
            [[True], new_grp | (np.diff(us) > gap_us)]).astype(np.int64)
        starts = np.concatenate([[0], np.nonzero(new_grp)[0] + 1])
        ends = np.concatenate([starts[1:], [u.shape[0]]])
        return pa.table({
            "user_id": pa.array(u[starts], type=pa.int64()),
            "bucket": pa.array(b[starts], type=pa.int64()),
            "n_sessions": pa.array(np.add.reduceat(new_session, starts),
                                   type=pa.int64()),
            "n_events": pa.array(ends - starts, type=pa.int64()),
            "first_us": pa.array(us[starts], type=pa.int64()),
            "last_us": pa.array(us[ends - 1], type=pa.int64()),
        })

    empty = pa.table({"user_id": pa.array([], type=pa.int64()),
                      "n_sessions": pa.array([], type=pa.int64()),
                      "n_events": pa.array([], type=pa.int64())})

    def stitch(group: pa.Table) -> pa.Table:
        u = group["user_id"].to_numpy(zero_copy_only=False)
        b = group["bucket"].to_numpy(zero_copy_only=False)
        ns = group["n_sessions"].to_numpy(zero_copy_only=False)
        ne = group["n_events"].to_numpy(zero_copy_only=False)
        first = group["first_us"].to_numpy(zero_copy_only=False)
        last = group["last_us"].to_numpy(zero_copy_only=False)
        order = np.lexsort((b, u))
        u, ns, ne = u[order], ns[order], ne[order]
        first, last = first[order], last[order]
        same_user = np.diff(u) == 0
        merged = same_user & (first[1:] - last[:-1] <= gap_us)
        starts = np.concatenate([[0], np.nonzero(~same_user)[0] + 1])
        ends = np.concatenate([starts[1:], [u.shape[0]]])
        minus = np.add.reduceat(
            np.concatenate([[0], merged.astype(np.int64)]), starts)
        return pa.table({
            "user_id": pa.array(u[starts], type=pa.int64()),
            "n_sessions": pa.array(
                np.add.reduceat(ns, starts) - minus, type=pa.int64()),
            "n_events": pa.array(np.add.reduceat(ne, starts),
                                 type=pa.int64()),
        })

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    summaries = partition_by(prepped, ["user_id", "bucket"],
                             fit_partitions(32), bucket_sessions, sum_empty)
    return partition_by(summaries, ["user_id"], fit_partitions(32),
                        stitch, empty)


def sampled_events_by_type(sf_dir: str, mod: int = 16) -> "ray.data.Dataset":
    """Deterministic hash sampling (keep rows where hash(event_id) % mod
    == 0) -> grouped stats over the sample.  The sample predicate is
    pushed into the first map, so at 100 TB only 1/mod of the rows leave
    the scan stage; murmur64 replicates DuckDB's hash(BIGINT) bit-for-bit
    so the oracle sees the identical sample."""
    from ..hashing import murmur64
    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])

    def samp(t: pa.Table) -> pa.Table:
        keys = t["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = murmur64(keys) % np.uint64(mod) == 0
        kt = t.filter(pa.array(keep))
        return pa.table({
            "event_type": kt["event_type"],
            "value_cents": _int_units(kt["value"], 100),
        })

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": t["event_type"],
            "n_sampled": t["value_cents_count"],
            "sum_value": pc.divide(
                pc.cast(t["value_cents_sum"], pa.float64()),
                pa.scalar(100.0)),
        })

    return combine_agg(ds, ["event_type"], samp,
                       [("value_cents", "count"), ("value_cents", "sum")],
                       finalize)


def supplier_region_rollup(sf_dir: str) -> "ray.data.Dataset":
    """Two-hop broadcast join (supplier -> nation -> region): the
    dimension chain is composed driver-side into one 25-row lookup,
    broadcast once, and applied with pc.index_in/take -- no shuffle join
    for small-side chains."""
    import pyarrow.parquet as pq
    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_regionkey"])
    region = pq.read_table(f"{sf_dir}/region.parquet",
                           columns=["r_regionkey", "r_name"])
    ridx = pc.index_in(nation["n_regionkey"], value_set=region["r_regionkey"]
                       .combine_chunks())
    lookup_ref = ray.put((nation["n_nationkey"].combine_chunks(),
                          pc.take(region["r_name"].combine_chunks(), ridx)))
    ds = _read(sf_dir, "supplier", ["s_nationkey", "s_acctbal"])

    def join_batch(t: pa.Table) -> pa.Table:
        dim_keys, dim_rnames = ray.get(lookup_ref)
        idx = pc.index_in(t["s_nationkey"], value_set=dim_keys)
        return pa.table({
            "r_name": pc.take(dim_rnames, idx),
            "acct_cents": _int_units(t["s_acctbal"], 100),
        })

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table({
            "r_name": t["r_name"],
            "n_suppliers": t["acct_cents_count"],
            "sum_acctbal": pc.divide(
                pc.cast(t["acct_cents_sum"], pa.float64()),
                pa.scalar(100.0)),
        })

    return combine_agg(ds, ["r_name"], join_batch,
                       [("acct_cents", "count"), ("acct_cents", "sum")],
                       finalize)


def orders_customer_join_agg(sf_dir: str) -> "ray.data.Dataset":
    """Distributed hash join for a LARGE dimension side (the complement
    of the broadcast-lookup pattern): orders JOIN customer on custkey via
    Ray's hash-shuffle join, then a grouped aggregate over the joined
    rows.  Column pruning keeps the exchange to 3 + 2 columns; at 100 TB
    this is the shape for fact-to-fact joins where neither side fits a
    broadcast."""
    orders = _read(sf_dir, "orders",
                   ["o_custkey", "o_orderstatus", "o_totalprice"])

    def prep_orders(t: pa.Table) -> pa.Table:
        return pa.table({
            "o_custkey": pc.cast(t["o_custkey"], pa.int64()),
            "o_orderstatus": t["o_orderstatus"],
            "price_cents": _int_units(t["o_totalprice"], 100),
        })

    customer = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])

    def prep_cust(t: pa.Table) -> pa.Table:
        return pa.table({
            "c_custkey": pc.cast(t["c_custkey"], pa.int64()),
            "c_nationkey": pc.cast(t["c_nationkey"], pa.int64()),
        })

    joined = orders.map_batches(prep_orders, batch_format="pyarrow").join(
        customer.map_batches(prep_cust, batch_format="pyarrow"),
        "inner", num_partitions=fit_partitions(16),
        on=("o_custkey",), right_on=("c_custkey",))

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table({
            "c_nationkey": t["c_nationkey"],
            "o_orderstatus": t["o_orderstatus"],
            "n_orders": t["price_cents_count"],
            "sum_price": pc.divide(
                pc.cast(t["price_cents_sum"], pa.float64()),
                pa.scalar(100.0)),
        })

    return combine_agg(joined, ["c_nationkey", "o_orderstatus"], lambda t: t,
                       [("price_cents", "count"), ("price_cents", "sum")],
                       finalize)


def props_extract_stats(sf_dir: str) -> "ray.data.Dataset":
    """Semi-structured field extraction: pull the integer ``k`` out of the
    JSON ``props`` column with one vectorized RE2 pass (pc.extract_regex)
    and aggregate per event type -- the schema-on-read pattern for log
    payloads, exactly replicable in SQL via regexp_extract."""
    ds = _read(sf_dir, "events", ["event_type", "props"])

    def extract(t: pa.Table) -> pa.Table:
        s = pc.extract_regex(t["props"], r'"k": (?P<k>\d+)')
        return pa.table({
            "event_type": t["event_type"],
            "k": pc.cast(pc.struct_field(s, "k"), pa.int64()),
        })

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": t["event_type"],
            "n_events": t["k_count"],
            "sum_k": t["k_sum"],
            "max_k": t["k_max"],
        })

    return combine_agg(ds, ["event_type"], extract,
                       [("k", "count"), ("k", "sum"), ("k", "max")],
                       finalize)


def knn_cosine_topk(sf_dir: str, query_vec_id: int = 0,
                    k: int = 10) -> "ray.data.Dataset":
    """Brute-force cosine top-k over the embedding column: the query vector
    is broadcast (ray.put) and each batch does one float64 matmul -- the
    baseline ANN path (scale path: IVF in pipelines.knn)."""
    import pyarrow.parquet as pq
    emb = pq.read_table(f"{sf_dir}/embeddings.parquet",
                        columns=["vec_id", "embedding"])
    qrow = emb.filter(pc.equal(emb["vec_id"], query_vec_id))
    qvec = np.asarray(qrow["embedding"][0].as_py(), dtype=np.float64)
    qvec = qvec / np.linalg.norm(qvec)
    q_ref = ray.put(qvec)
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def score(t: pa.Table) -> pa.Table:
        from ..functions.vectors import list_to_matrix
        q = ray.get(q_ref)
        mat = list_to_matrix(t["embedding"])
        norms = np.linalg.norm(mat, axis=1)
        norms[norms == 0] = 1.0
        sims = (mat @ q) / norms
        return pa.table({
            "vec_id": t["vec_id"],
            "cos_sim": pa.array(np.round(sims, 4), type=pa.float64()),
        })

    from ..stages.topk import topk
    return topk(ds.map_batches(score, batch_format="pyarrow"),
                [("cos_sim", "descending"), ("vec_id", "ascending")], k)


def repetition_stats_by_lang(sf_dir: str) -> "ray.data.Dataset":
    """Gopher-style repetition quality signals, rolled up per language:
    per document, the whitespace token count, the count of the most
    frequent token, and the distinct-token count; per lang, their exact
    integer sums (the per-corpus inputs to "fraction of text in the top
    token" / type-token-ratio filters used by web-corpus curation).

    Fully vectorized per batch: one Arrow ``split_pattern`` pass, then
    token occurrences are counted by np.unique over (doc, token-rank)
    composites -- no per-document Python.  Token identity is Arrow
    dictionary encoding (exact, C-vectorized, no hash collisions).  All
    outputs are integer sums, so the per-lang rollup is merge-order-proof
    and hash-matches the DuckDB string_split/unnest oracle."""
    ds = _read(sf_dir, "documents", ["text", "lang"])

    def doc_stats(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t["text"], pattern=" ")
        flat = pc.list_flatten(toks).combine_chunks()
        counts = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        counts = counts.astype(np.int64)
        doc_idx = np.repeat(np.arange(t.num_rows, dtype=np.int64), counts)
        dic = flat.dictionary_encode()
        trank = dic.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        n_vocab = len(dic.dictionary)
        # (doc, token) pair counts via one sort: composite of doc index
        # and dense token rank fits int64 comfortably at batch scale
        comp = doc_idx * np.int64(n_vocab + 1) + trank
        upair, pair_counts = np.unique(comp, return_counts=True)
        pair_doc = upair // np.int64(n_vocab + 1)
        c_max = np.zeros(t.num_rows, dtype=np.int64)
        np.maximum.at(c_max, pair_doc, pair_counts)
        n_distinct = np.bincount(pair_doc, minlength=t.num_rows)
        return pa.table({
            "lang": t["lang"],
            "n_tok": pa.array(counts),
            "c_max": pa.array(c_max),
            "n_distinct": pa.array(n_distinct.astype(np.int64)),
        })

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table({
            "lang": t["lang"],
            "docs": t["n_tok_count"],
            "sum_tokens": t["n_tok_sum"],
            "sum_top_token": t["c_max_sum"],
            "sum_distinct_tokens": t["n_distinct_sum"],
        })

    return combine_agg(ds, ["lang"], doc_stats,
                       [("n_tok", "count"), ("n_tok", "sum"),
                        ("c_max", "sum"), ("n_distinct", "sum")], finalize)


REPETITION_STATS_SQL = """
WITH toks AS (
  SELECT doc_id, lang, unnest(string_split(text, ' ')) AS w
  FROM documents
), per AS (
  SELECT doc_id, lang, w, count(*) AS c
  FROM toks GROUP BY 1, 2, 3
), doc AS (
  SELECT doc_id, lang,
         CAST(sum(c) AS BIGINT) AS n_tok,
         CAST(max(c) AS BIGINT) AS c_max,
         CAST(count(*) AS BIGINT) AS n_distinct
  FROM per GROUP BY 1, 2
)
SELECT lang,
       count(*) AS docs,
       CAST(sum(n_tok) AS BIGINT) AS sum_tokens,
       CAST(sum(c_max) AS BIGINT) AS sum_top_token,
       CAST(sum(n_distinct) AS BIGINT) AS sum_distinct_tokens
FROM doc
GROUP BY 1
ORDER BY 1
"""


def stratified_sample_events(sf_dir: str, k: int = 5) -> "ray.data.Dataset":
    """Distributed stratified sampling: a deterministic k-row sample per
    group (event_type), selected as the k rows with the smallest
    ``murmur64(event_id)`` -- hash order is a uniform random permutation,
    so this IS a per-stratum uniform sample, yet fully reproducible and
    mergeable (the "reservoir" union is just keep-k-smallest again).

    Scale shape: a block-local prereduce keeps at most k rows per group
    per block, so the shuffle moves O(groups x k x blocks) tiny rows no
    matter how large the input; the same kernel then reduces each
    group's partials.  murmur64 bit-replicates DuckDB ``hash(BIGINT)``,
    making the sample exactly SQL-replicable (QUALIFY row_number()).
    """
    from ..hashing import murmur64
    from ..stages.partition import partition_by
    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])

    empty = pa.table({"event_type": pa.array([], type=pa.string()),
                      "event_id": pa.array([], type=pa.int64()),
                      "value_units": pa.array([], type=pa.int64())})

    def keep_k(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        hh = murmur64(eid)  # uint64, compare unsigned like DuckDB UBIGINT
        et = t["event_type"].to_numpy(zero_copy_only=False)
        ut, tcode = np.unique(et, return_inverse=True)
        order = np.lexsort((eid, hh, tcode))
        tc_s = tcode[order]
        new_grp = np.ones(order.shape[0], dtype=bool)
        new_grp[1:] = tc_s[1:] != tc_s[:-1]
        starts = np.nonzero(new_grp)[0]
        first = np.repeat(starts, np.diff(np.append(starts,
                                                    order.shape[0])))
        rank = np.arange(order.shape[0]) - first
        keep = order[rank < k]
        if "value_units" in t.column_names:
            vu = t["value_units"].take(pa.array(keep))
        else:
            vals = t["value"].to_numpy(zero_copy_only=False)[keep]
            vu = pa.array(np.floor(vals * 1e6 + 0.5).astype(np.int64))
        return pa.table({
            "event_type": t["event_type"].take(pa.array(keep)),
            "event_id": t["event_id"].take(pa.array(keep)),
            "value_units": vu,
        })

    prereduced = ds.map_batches(keep_k, batch_format="pyarrow",
                                zero_copy_batch=True)
    # the union of per-block keeps is O(groups x k x blocks) tiny rows;
    # one final keep-k pass over a single partition finishes the sample
    return partition_by(prereduced, [], 1, keep_k, empty)


STRATIFIED_SAMPLE_SQL = """
WITH h AS (
  SELECT event_type, event_id,
         CAST(floor(value * 1000000.0 + 0.5) AS BIGINT) AS value_units,
         hash(event_id) AS hh
  FROM events
)
SELECT event_type, event_id, value_units
FROM h
QUALIFY row_number() OVER (PARTITION BY event_type
                           ORDER BY hh, event_id) <= 5
ORDER BY 1, 2
"""


def top_events_per_type(sf_dir: str, n: int = 3) -> "ray.data.Dataset":
    """Per-group top-N: for every event_type, the ``n`` highest-value
    events with a deterministic (value desc, event_id asc) tie order --
    the distributed form of ``row_number() OVER (PARTITION BY g ORDER BY
    v DESC) <= n``, an operator Ray Data's sort/limit cannot express
    per group.

    Scale shape (same as ``stratified_sample_events``): a block-local
    prereduce keeps at most n rows per group per block, so the shuffle
    moves O(groups x n x blocks) tiny rows regardless of input size; one
    final single-partition pass reduces the partials and assigns ranks.
    Ordering compares exact int64 micro-units (identical in numpy and
    DuckDB), never raw doubles, so the selection is hash-replicable.
    """
    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])

    empty = pa.table({"event_type": pa.array([], type=pa.string()),
                      "event_id": pa.array([], type=pa.int64()),
                      "value_units": pa.array([], type=pa.int64()),
                      "rnk": pa.array([], type=pa.int64())})

    def keep_n(t: pa.Table, with_rank: bool) -> pa.Table:
        if t.num_rows == 0:
            return empty if with_rank else empty.drop_columns(["rnk"])
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        if "value_units" in t.column_names:
            units = t["value_units"].to_numpy(zero_copy_only=False)
        else:
            vals = t["value"].to_numpy(zero_copy_only=False)
            units = np.floor(vals * 1e6 + 0.5).astype(np.int64)
        et = t["event_type"].to_numpy(zero_copy_only=False)
        ut, tcode = np.unique(et, return_inverse=True)
        order = np.lexsort((eid, -units, tcode))
        tc_s = tcode[order]
        new_grp = np.ones(order.shape[0], dtype=bool)
        new_grp[1:] = tc_s[1:] != tc_s[:-1]
        starts = np.nonzero(new_grp)[0]
        first = np.repeat(starts,
                          np.diff(np.append(starts, order.shape[0])))
        rank = np.arange(order.shape[0]) - first
        sel = rank < n
        keep = order[sel]
        out = {
            "event_type": pa.array(ut[tc_s[sel]].tolist(),
                                   type=pa.string()),
            "event_id": pa.array(eid[keep]),
            "value_units": pa.array(units[keep]),
        }
        if with_rank:
            out["rnk"] = pa.array(rank[sel] + 1)
        return pa.table(out)

    prereduced = ds.map_batches(lambda t: keep_n(t, False),
                                batch_format="pyarrow",
                                zero_copy_batch=True)
    from ..stages.partition import partition_by
    return partition_by(prereduced, [], 1, lambda t: keep_n(t, True), empty)


TOP_EVENTS_PER_TYPE_SQL = """
WITH h AS (
  SELECT event_type, event_id,
         CAST(floor(value * 1000000.0 + 0.5) AS BIGINT) AS value_units
  FROM events
)
SELECT event_type, event_id, value_units,
       CAST(row_number() OVER (PARTITION BY event_type
                               ORDER BY value_units DESC, event_id)
            AS BIGINT) AS rnk
FROM h
QUALIFY rnk <= 3
ORDER BY 1, 4
"""


def customers_without_events(sf_dir: str) -> "ray.data.Dataset":
    """Distributed ANTI-join: customers with no activity in the events
    table, rolled up per nation (count + exact acctbal cents).  Uses Ray
    Data's native hash-shuffle ``join(join_type="left_anti")`` -- the
    complement of the Bloom semi-join (`approx.bloom_semijoin_orders`):
    an exact "NOT EXISTS" against a fact table too large to broadcast.
    Both sides are pruned to join + payload columns before the exchange;
    the nation name is a broadcast lookup after the rollup (25 rows)."""
    import pyarrow.parquet as pq
    cust = _read(sf_dir, "customer",
                 ["c_custkey", "c_nationkey", "c_acctbal"])

    def prep_cust(t: pa.Table) -> pa.Table:
        return pa.table({
            "c_custkey": pc.cast(t["c_custkey"], pa.int64()),
            "c_nationkey": pc.cast(t["c_nationkey"], pa.int64()),
            "acct_cents": _int_units(t["c_acctbal"], 100),
        })

    events = _read(sf_dir, "events", ["user_id"])

    def prep_events(t: pa.Table) -> pa.Table:
        return pa.table({"user_id": pc.cast(t["user_id"], pa.int64())})

    anti = cust.map_batches(prep_cust, batch_format="pyarrow").join(
        events.map_batches(prep_events, batch_format="pyarrow"),
        "left_anti", num_partitions=fit_partitions(16),
        on=("c_custkey",), right_on=("user_id",))

    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_name"])
    lookup_ref = ray.put((nation["n_nationkey"].combine_chunks(),
                          nation["n_name"].combine_chunks()))

    def finalize(t: pa.Table) -> pa.Table:
        dim_keys, dim_names = ray.get(lookup_ref)
        idx = pc.index_in(t["c_nationkey"],
                          value_set=pc.cast(dim_keys, pa.int64()))
        return pa.table({
            "n_name": pc.take(dim_names, idx),
            "n_customers": t["acct_cents_count"],
            "acct_cents": t["acct_cents_sum"],
        })

    return combine_agg(anti, ["c_nationkey"], lambda t: t,
                       [("acct_cents", "count"), ("acct_cents", "sum")],
                       finalize)


CUSTOMERS_WITHOUT_EVENTS_SQL = """
SELECT n_name,
       count(*) AS n_customers,
       CAST(sum(CAST(round(c_acctbal*100) AS BIGINT)) AS BIGINT)
           AS acct_cents
FROM customer JOIN nation ON c_nationkey = n_nationkey
WHERE NOT EXISTS (SELECT 1 FROM events e WHERE e.user_id = c_custkey)
GROUP BY 1
ORDER BY 1
"""


def quantile_prune_docs(sf_dir: str, q: float = 0.9) -> "ray.data.Dataset":
    """Quantile-threshold data pruning: keep documents whose length is at
    or below the per-language q-quantile, and report the kept corpus per
    lang (docs, total chars, the threshold applied).  This is the
    standard web-corpus curation shape ("drop the longest 10% per lang")
    and composes two engine layers: the EXACT distributed grouped
    quantile (pipelines.quantiles.exact_quantiles_grouped -- histogram
    bisection, no global sort) feeds a broadcast threshold lookup that
    prunes the second streaming pass.

    Scale shape: pass 1 computes thresholds with O(groups x bins) blob
    traffic; the threshold table (one row per lang) is ray.put once and
    read inside every filter task -- never re-shipped per batch; pass 2
    is an embarrassingly parallel filter + per-lang integer rollup."""
    from .quantiles import exact_quantiles_grouped
    ds = _read(sf_dir, "documents", ["lang", "n_chars"])
    th = exact_quantiles_grouped(ds, "n_chars", "lang", [q])
    # n_chars is integral, and exact quantiles are actual data elements,
    # so the threshold is an exact int64 (no float-compare hazards)
    lookup_ref = ray.put((th["lang"].combine_chunks(),
                          pc.cast(th["value"], pa.int64())))

    def prune(t: pa.Table) -> pa.Table:
        dim_langs, thr = ray.get(lookup_ref)
        idx = pc.index_in(t["lang"], value_set=dim_langs)
        keep = pc.less_equal(pc.cast(t["n_chars"], pa.int64()),
                             pc.take(thr, idx))
        return pa.table({
            "lang": t["lang"],
            "n_chars": pc.cast(t["n_chars"], pa.int64()),
            "thr": pc.take(thr, idx),
        }).filter(pc.fill_null(keep, False))

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table({
            "lang": t["lang"],
            "kept_docs": t["n_chars_count"],
            "sum_chars": t["n_chars_sum"],
            "thr": t["thr_max"],
        })

    return combine_agg(ds, ["lang"], prune,
                       [("n_chars", "count"), ("n_chars", "sum"),
                        ("thr", "max")], finalize)


QUANTILE_PRUNE_SQL = """
WITH th AS (
  SELECT lang, CAST(quantile_disc(n_chars, 0.9) AS BIGINT) AS thr
  FROM documents GROUP BY 1
)
SELECT d.lang,
       count(*) AS kept_docs,
       CAST(sum(d.n_chars) AS BIGINT) AS sum_chars,
       max(t.thr) AS thr
FROM documents d JOIN th t ON d.lang = t.lang
WHERE d.n_chars <= t.thr
GROUP BY 1
ORDER BY 1
"""


def top_tokens_by_lang(sf_dir: str, k: int = 10) -> "ray.data.Dataset":
    """Per-language vocabulary head: the k most frequent whitespace
    tokens with exact counts and a deterministic (count desc, token asc)
    tie order -- corpus-curation vocabulary statistics as a distributed
    pipeline.

    Scale shape: ``combine_agg`` counts each batch's (lang, token) rows
    BEFORE the shuffle, so the exchange moves O(langs x vocab x blocks)
    small rows, bounded by the live vocabulary rather than the corpus;
    the sorted blocks add the partial counts and a single-partition
    keep-k (vocab-sized input) ranks."""
    from ..stages.partition import partition_by
    ds = _read(sf_dir, "documents", ["lang", "text"])

    agg = combine_agg(ds, ["lang", "tok"], lambda t: _tokens(t, "lang"),
                      [("tok", "count")], named("lang", "tok", "n"))

    empty = pa.table({"lang": pa.array([], type=pa.string()),
                      "tok": pa.array([], type=pa.string()),
                      "n": pa.array([], type=pa.int64()),
                      "rnk": pa.array([], type=pa.int64())})

    def keep_k(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        n = pc.cast(t["n"], pa.int64()).to_numpy(zero_copy_only=False)
        lang = np.asarray(t["lang"].to_pylist(), dtype=np.str_)
        tok = np.asarray(t["tok"].to_pylist(), dtype=np.str_)
        # numpy U-dtype compares by code point == DuckDB binary collation
        # for the (verified-ASCII) corpus
        order = np.lexsort((tok, -n, lang))
        l_s = lang[order]
        new_grp = np.ones(order.shape[0], dtype=bool)
        new_grp[1:] = l_s[1:] != l_s[:-1]
        starts = np.nonzero(new_grp)[0]
        first = np.repeat(starts, np.diff(np.append(starts,
                                                    order.shape[0])))
        rank = np.arange(order.shape[0]) - first
        sel = rank < k
        keep = order[sel]
        return pa.table({
            "lang": pa.array(lang[keep].tolist(), type=pa.string()),
            "tok": pa.array(tok[keep].tolist(), type=pa.string()),
            "n": pa.array(n[keep]),
            "rnk": pa.array(rank[sel] + 1),
        })

    # vocab-sized input: one partition finishes the ranking
    return partition_by(agg, [], 1, keep_k, empty)


TOP_TOKENS_SQL = """
WITH toks AS (
  SELECT lang, unnest(string_split(text, ' ')) AS tok FROM documents
), cnt AS (
  SELECT lang, tok, CAST(count(*) AS BIGINT) AS n
  FROM toks GROUP BY 1, 2
)
SELECT lang, tok, n,
       CAST(row_number() OVER (PARTITION BY lang
                               ORDER BY n DESC, tok) AS BIGINT) AS rnk
FROM cnt
QUALIFY rnk <= 10
ORDER BY 1, 4
"""


def customer_event_activity(sf_dir: str) -> "ray.data.Dataset":
    """LEFT-OUTER join with zero preservation: every customer joined to
    their event count (0 when absent), rolled up per nation as
    (customers, active customers, total events).  The complement of the
    anti-join (`customers_without_events`): inactive rows survive with
    null-filled counts instead of being dropped.

    Scale shape: events are pre-aggregated to one (user_id, n) row per
    user BEFORE the join, so the hash exchange moves O(distinct users),
    not O(events); both sides prune to join + payload columns; the
    25-row nation dimension is a broadcast lookup after the rollup."""
    import pyarrow.parquet as pq
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])

    def prep_cust(t: pa.Table) -> pa.Table:
        return pa.table({
            "c_custkey": pc.cast(t["c_custkey"], pa.int64()),
            "c_nationkey": pc.cast(t["c_nationkey"], pa.int64()),
        })

    ev_counts = combine_agg(
        _read(sf_dir, "events", ["user_id"]), ["user_id"],
        lambda t: pa.table({"user_id": pc.cast(t["user_id"], pa.int64())}),
        [("user_id", "count")],
        lambda t: pa.table({"user_id": t["user_id"],
                            "n_ev": t["user_id_count"]}))

    joined = cust.map_batches(prep_cust, batch_format="pyarrow").join(
        ev_counts, "left_outer", num_partitions=fit_partitions(16),
        on=("c_custkey",), right_on=("user_id",))

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "c_nationkey": t["c_nationkey"],
            "active": pc.cast(t["n_ev"].is_valid(), pa.int64()),
            "n_ev": pc.fill_null(pc.cast(t["n_ev"], pa.int64()), 0),
        })

    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_name"])
    lookup_ref = ray.put((nation["n_nationkey"].combine_chunks(),
                          nation["n_name"].combine_chunks()))

    def finalize(t: pa.Table) -> pa.Table:
        dim_keys, dim_names = ray.get(lookup_ref)
        idx = pc.index_in(t["c_nationkey"],
                          value_set=pc.cast(dim_keys, pa.int64()))
        return pa.table({
            "n_name": pc.take(dim_names, idx),
            "n_customers": t["active_count"],
            "n_active": t["active_sum"],
            "n_events": t["n_ev_sum"],
        })

    return combine_agg(joined, ["c_nationkey"], prep,
                       [("active", "count"), ("active", "sum"),
                        ("n_ev", "sum")], finalize)


CUSTOMER_EVENT_ACTIVITY_SQL = """
WITH ec AS (
  SELECT user_id, CAST(count(*) AS BIGINT) AS n FROM events GROUP BY 1
)
SELECT n_name,
       count(*) AS n_customers,
       CAST(sum(CASE WHEN ec.user_id IS NULL THEN 0 ELSE 1 END)
            AS BIGINT) AS n_active,
       CAST(sum(coalesce(ec.n, 0)) AS BIGINT) AS n_events
FROM customer c
JOIN nation ON c_nationkey = n_nationkey
LEFT JOIN ec ON ec.user_id = c.c_custkey
GROUP BY 1
ORDER BY 1
"""


def winsorized_price_stats(sf_dir: str, lo_q: float = 0.01,
                           hi_q: float = 0.99) -> pa.Table:
    """Winsorized mean: clamp every price into the exact [p01, p99]
    interval, then aggregate -- the standard outlier-robust statistic for
    heavy-tailed web data, composed from the engine's exact distributed
    quantiles (histogram bisection, no global sort) and one streaming
    clamp + integer-cents rollup pass.

    Scale shape: the two thresholds are scalars broadcast into the clamp
    pass; both passes stream; the driver sees one row."""
    import ray.data
    from .quantiles import exact_quantiles
    ds = _read(sf_dir, "lineitem", ["l_extendedprice"])
    th = exact_quantiles(ds, "l_extendedprice", [lo_q, hi_q])
    lo, hi = th["value"][0].as_py(), th["value"][1].as_py()

    def clamp(t: pa.Table) -> pa.Table:
        v = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        # clip the double first, THEN go to cents: both sides clamp the
        # identical float64 and round identically
        w = np.clip(v, lo, hi)
        cents = np.floor(w * 100 + 0.5).astype(np.int64)
        return pa.table({
            "sum_cents": pa.array([int(cents.sum())], type=pa.int64()),
            "n": pa.array([t.num_rows], type=pa.int64()),
            "n_lo": pa.array([int((v < lo).sum())], type=pa.int64()),
            "n_hi": pa.array([int((v > hi).sum())], type=pa.int64()),
        })

    sums = (ds.map_batches(clamp, batch_format="pyarrow",
                           zero_copy_batch=True)
            .sum(["sum_cents", "n", "n_lo", "n_hi"]))
    sum_cents = int(sums["sum(sum_cents)"])
    n = int(sums["sum(n)"])
    return pa.table({
        "sum_cents": pa.array([sum_cents], type=pa.int64()),
        "n": pa.array([n], type=pa.int64()),
        "n_clamped_lo": pa.array([int(sums["sum(n_lo)"])], type=pa.int64()),
        "n_clamped_hi": pa.array([int(sums["sum(n_hi)"])], type=pa.int64()),
        "winsorized_mean": pa.array([(sum_cents / 100.0) / n],
                                    type=pa.float64()),
    })


WINSORIZED_PRICE_SQL = """
WITH th AS (
  SELECT quantile_disc(l_extendedprice, [0.01, 0.99]) AS v FROM lineitem
), c AS (
  SELECT CAST(floor(least(greatest(l_extendedprice, th.v[1]), th.v[2])
              * 100 + 0.5) AS BIGINT) AS cents,
         CAST(l_extendedprice < th.v[1] AS BIGINT) AS is_lo,
         CAST(l_extendedprice > th.v[2] AS BIGINT) AS is_hi
  FROM lineitem, th
)
SELECT CAST(sum(cents) AS BIGINT) AS sum_cents,
       count(*) AS n,
       CAST(sum(is_lo) AS BIGINT) AS n_clamped_lo,
       CAST(sum(is_hi) AS BIGINT) AS n_clamped_hi,
       (CAST(sum(cents) AS DOUBLE) / 100.0) / CAST(count(*) AS DOUBLE)
           AS winsorized_mean
FROM c
"""


def distinct_users_per_type(sf_dir: str) -> "ray.data.Dataset":
    """Exact per-group COUNT(DISTINCT): distinct users and total events
    per event_type.

    Scale shape: ``combine_agg`` dedups each block's own (type, user)
    pairs before the shuffle -- the classic partial-distinct prereduce,
    shrinking shuffle traffic from O(events) to O(distinct pairs x
    blocks) -- and finishes the global dedup; a second grouped
    aggregate counts the surviving pairs per type."""
    ds = _read(sf_dir, "events", ["event_type", "user_id"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"event_type": t["event_type"],
                         "user_id": pc.cast(t["user_id"], pa.int64())})

    pairs = combine_agg(ds, ["event_type", "user_id"], prep,
                        [("user_id", "count")],
                        lambda t: t.rename_columns(
                            ["event_type", "user_id", "cnt"]))

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": t["event_type"],
            "n_users": t["cnt_count"],
            "n_events": t["cnt_sum"],
        })

    return combine_agg(pairs, ["event_type"], lambda t: t,
                       [("cnt", "count"), ("cnt", "sum")], finalize)


DISTINCT_USERS_PER_TYPE_SQL = """
SELECT event_type,
       CAST(count(DISTINCT user_id) AS BIGINT) AS n_users,
       count(*) AS n_events
FROM events
GROUP BY 1
ORDER BY 1
"""


DOC_SOURCES = tuple(f"src{i}" for i in range(20))


def docs_lang_source_pivot(sf_dir: str) -> "ray.data.Dataset":
    """Crosstab / PIVOT: document counts per lang (rows) x source
    (columns), the reshape every corpus dashboard needs.  The source
    domain is a fixed schema-level contract (DOC_SOURCES) so the output
    schema is stable even when a source is absent at small scale.

    Scale shape: ``combine_agg`` folds each block to its (lang x source)
    partial counts, so the shuffle moves O(langs x sources x blocks)
    tiny integer rows; the pivot itself happens on the aggregated
    (langs x sources)-row table -- driver-sized by contract."""
    from ..stages.partition import partition_by
    ds = _read(sf_dir, "documents", ["lang", "source"])
    agg = combine_agg(ds, ["lang", "source"], lambda t: t,
                      [("source", "count")],
                      lambda t: t.rename_columns(["lang", "source", "cnt"]))

    empty = pa.table({"lang": pa.array([], type=pa.string()),
                      **{s: pa.array([], type=pa.int64())
                         for s in DOC_SOURCES}})

    def pivot(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        lang = t["lang"].to_numpy(zero_copy_only=False)
        src = t["source"].to_numpy(zero_copy_only=False)
        cnt = pc.cast(t["cnt"], pa.int64()).to_numpy(zero_copy_only=False)
        ul, linv = np.unique(lang, return_inverse=True)
        mat = np.zeros((ul.shape[0], len(DOC_SOURCES)), dtype=np.int64)
        scol = {s: j for j, s in enumerate(DOC_SOURCES)}
        sidx = np.array([scol[s] for s in src.tolist()], dtype=np.int64)
        np.add.at(mat, (linv, sidx), cnt)
        out = {"lang": pa.array(ul.tolist(), type=pa.string())}
        for j, s in enumerate(DOC_SOURCES):
            out[s] = pa.array(mat[:, j])
        return pa.table(out)

    return partition_by(agg, [], 1, pivot, empty)


DOCS_PIVOT_SQL = "\n".join(
    ["SELECT lang,"]
    + [f"       CAST(sum(CASE WHEN source = '{s}' THEN 1 ELSE 0 END) "
       f"AS BIGINT) AS {s}," for s in DOC_SOURCES[:-1]]
    + [f"       CAST(sum(CASE WHEN source = '{DOC_SOURCES[-1]}' THEN 1 "
       f"ELSE 0 END) AS BIGINT) AS {DOC_SOURCES[-1]}"]
    + ["FROM documents", "GROUP BY 1", "ORDER BY 1"])


def combined_daily_activity(sf_dir: str) -> "ray.data.Dataset":
    """Dataset UNION: one activity timeline from two differently-shaped
    tables (events.ts and orders.o_orderdate), normalized to a common
    (day, src) schema with ``Dataset.union`` and rolled up per day and
    source -- the multi-source-ingest shape (crawl A + crawl B -> one
    corpus) exercised as an engine operator.

    Scale shape: each side projects to two tiny (day, src) columns
    before the union, and ``combine_agg`` folds every batch to (day, src)
    partials, so the final shuffle carries O(days x blocks) rows."""
    events = _read(sf_dir, "events", ["ts"])
    orders = _read(sf_dir, "orders", ["o_orderdate"])

    def project(col: str, src: str):
        def f(t: pa.Table) -> pa.Table:
            us = pc.cast(t[col], pa.int64())
            return pa.table({
                "day": pc.divide(us, pa.scalar(86_400_000_000)),
                "src": pa.repeat(pa.scalar(src), t.num_rows),
            })
        return f

    unioned = (events.map_batches(project("ts", "events"),
                                  batch_format="pyarrow",
                                  zero_copy_batch=True)
               .union(orders.map_batches(project("o_orderdate", "orders"),
                                         batch_format="pyarrow",
                                         zero_copy_batch=True)))
    return combine_agg(unioned, ["day", "src"], lambda t: t,
                       [("src", "count")],
                       lambda t: t.rename_columns(["day", "src", "n"]))


COMBINED_DAILY_SQL = """
WITH u AS (
  SELECT CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
         'events' AS src
  FROM events
  UNION ALL
  SELECT CAST(epoch_us(o_orderdate) // 86400000000 AS BIGINT) AS day,
         'orders' AS src
  FROM orders
)
SELECT day, src, count(*) AS n
FROM u
GROUP BY 1, 2
ORDER BY 1, 2
"""


def user_activity_quartiles(sf_dir: str) -> pa.Table:
    """Percentile-bucket classification: split users into activity
    quartile COHORTS by exact p25/p50/p75 thresholds of their event
    counts, then roll up each cohort -- the global-rank windowing
    (ntile-style) pattern done scale-sanely: instead of a global sort to
    assign row-position tiles, EXACT value thresholds come from the
    histogram-bisection quantile machinery (no sort, bounded driver
    pull) and bucketing is a broadcast threshold compare inside one
    streaming pass.  Value-based buckets are also deterministic under
    ties, which row-position ntile is not.

    Composition: groupby count -> exact_quantiles -> broadcast compare
    -> tiny (4-row) rollup."""
    from .quantiles import exact_quantiles

    ds = _read(sf_dir, "events", ["user_id"])
    counts = combine_agg(
        ds, ["user_id"],
        lambda t: pa.table({"user_id": pc.cast(t["user_id"], pa.int64())}),
        [("user_id", "count")],
        lambda t: pa.table({
            "user_id": t["user_id"], "n": t["user_id_count"],
            "nf": pc.cast(t["user_id_count"], pa.float64())})).materialize()
    th = exact_quantiles(counts, "nf", [0.25, 0.5, 0.75])
    t25, t50, t75 = (float(v) for v in th["value"].to_pylist())

    def bucket(t: pa.Table) -> pa.Table:
        n = t["n"].to_numpy(zero_copy_only=False)
        b = (1 + (n > t25).astype(np.int64) + (n > t50).astype(np.int64)
             + (n > t75).astype(np.int64))
        return pa.table({"bucket": pa.array(b), "n": t["n"]})

    agg = combine_agg(counts, ["bucket"], bucket,
                      [("n", "count"), ("n", "min"), ("n", "max"),
                       ("n", "sum")],
                      named("bucket", "n_users", "min_events",
                            "max_events", "sum_events"))

    out = agg.to_pandas().sort_values("bucket").reset_index(drop=True)
    return pa.table({
        "bucket": pa.array(out["bucket"].astype("int64")),
        "n_users": pa.array(out["n_users"].astype("int64")),
        "min_events": pa.array(out["min_events"].astype("int64")),
        "max_events": pa.array(out["max_events"].astype("int64")),
        "sum_events": pa.array(out["sum_events"].astype("int64")),
    })


USER_ACTIVITY_QUARTILES_SQL = """
WITH c AS (
  SELECT user_id, CAST(count(*) AS BIGINT) AS n FROM events GROUP BY 1
), t AS (
  SELECT quantile_disc(n, 0.25) AS t25, quantile_disc(n, 0.5) AS t50,
         quantile_disc(n, 0.75) AS t75 FROM c
), b AS (
  SELECT user_id, n,
         1 + CASE WHEN n > t.t25 THEN 1 ELSE 0 END
           + CASE WHEN n > t.t50 THEN 1 ELSE 0 END
           + CASE WHEN n > t.t75 THEN 1 ELSE 0 END AS bucket
  FROM c, t
)
SELECT CAST(bucket AS BIGINT) AS bucket,
       CAST(count(*) AS BIGINT) AS n_users,
       CAST(min(n) AS BIGINT) AS min_events,
       CAST(max(n) AS BIGINT) AS max_events,
       CAST(sum(n) AS BIGINT) AS sum_events
FROM b GROUP BY 1 ORDER BY 1
"""


def label_centroids(sf_dir: str) -> "ray.data.Dataset":
    """Grouped VECTOR aggregate: the per-label centroid of the embedding
    column, with component sums carried as exact int64 micro-units so
    the distributed aggregation is associative and hash-matches SQL (a
    float64 tree-sum would be merge-order-dependent).

    Dataflow: per block, the list<float> column is reshaped to an (n, d)
    matrix zero-copy (functions/vectors.py), scaled to integer units and
    laid out as one (label, dim, units) row per component; the combiner
    folds each block to one partial row per (label, dim), then a
    (label, dim)-keyed merge.  Shuffle traffic is O(blocks x labels x
    dim) 24-byte rows, independent of corpus size: the vector twin of
    the scalar pre-aggregation pattern used everywhere else."""
    ds = _read(sf_dir, "embeddings", ["label", "embedding"])
    return combine_agg(ds, ["label", "dim"],
                       lambda t: _label_dim_units(t, 1e6),
                       [("units", "count"), ("units", "sum")],
                       named("label", "dim", "n_vecs", "sum_units"))


def _label_dim_units(t: pa.Table, scale: float) -> pa.Table:
    """One (label, dim, units) row per component of the ``embedding``
    column, units = floor(x * scale + 0.5) as exact int64."""
    from ..functions.vectors import list_to_matrix
    if t.num_rows == 0:
        return pa.table({"label": pa.array([], type=pa.int64()),
                         "dim": pa.array([], type=pa.int64()),
                         "units": pa.array([], type=pa.int64())})
    mat = list_to_matrix(t["embedding"], dtype=np.float64)
    units = np.floor(mat * scale + 0.5).astype(np.int64)
    lab = t["label"].to_numpy(zero_copy_only=False).astype(np.int64)
    n, d = units.shape
    return pa.table({
        "label": pa.array(np.repeat(lab, d)),
        "dim": pa.array(np.tile(np.arange(d, dtype=np.int64), n)),
        "units": pa.array(units.ravel()),
    })


LABEL_CENTROIDS_SQL = """
WITH nums AS (
  SELECT CAST(range AS BIGINT) AS i FROM range(1, 4097)
)
SELECT CAST(label AS BIGINT) AS label,
       CAST(i - 1 AS BIGINT) AS dim,
       CAST(count(*) AS BIGINT) AS n_vecs,
       CAST(sum(CAST(floor(CAST(embedding[i] AS DOUBLE) * 1000000.0 + 0.5)
                     AS BIGINT)) AS BIGINT) AS sum_units
FROM embeddings JOIN nums ON nums.i <= len(embedding)
GROUP BY 1, 2
ORDER BY 1, 2
"""


def embedding_covariance_topk(sf_dir: str, k: int = 20) -> pa.Table:
    """EMBEDDING COVARIANCE structure: the top-k most-correlated
    dimension pairs of the embedding column by |covariance numerator|
    (n*Sxy - Sx*Sy over milli-quantized components) -- the PCA /
    feature-redundancy precursor a representation-quality audit runs.
    Exact int64 end to end (milli units keep n*Sxy inside int64 at any
    corpus size where n*sum fits -- overflow-checked at finalize), so
    the distributed float-free sum is merge-order independent.

    Scale shape: per block ONE int64 matmul builds the d x d second-
    moment partial; shuffle is O(blocks x d^2 / 2) 24-byte rows
    (corpus-size independent); the driver sees only the d x d moment
    table.  Cites the label_centroids integer-unit vector pattern.
    """
    from ..functions.vectors import list_to_matrix

    ds = _read(sf_dir, "embeddings", ["embedding"])

    empty = pa.table({"di": pa.array([], type=pa.int64()),
                      "dj": pa.array([], type=pa.int64()),
                      "s": pa.array([], type=pa.int64())})

    def partials(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        mat = list_to_matrix(t["embedding"], dtype=np.float64)
        units = np.floor(mat * 1e3 + 0.5).astype(np.int64)
        d = units.shape[1]
        sxy = units.T @ units                     # int64 matmul, exact
        iu, ju = np.triu_indices(d)
        di = np.concatenate([iu, np.arange(d), [-1]])
        dj = np.concatenate([ju, np.full(d, -1), [-1]])
        s = np.concatenate([sxy[iu, ju], units.sum(axis=0),
                            [np.int64(units.shape[0])]])
        return pa.table({"di": pa.array(di.astype(np.int64)),
                         "dj": pa.array(dj.astype(np.int64)),
                         "s": pa.array(s)})

    agg = combine_agg(ds, ["di", "dj"], partials, [("s", "sum")],
                      named("di", "dj", "s")).to_pandas()
    di = agg["di"].to_numpy(dtype=np.int64)
    dj = agg["dj"].to_numpy(dtype=np.int64)
    s = agg["s"].to_numpy(dtype=np.int64)
    n = int(s[(di == -1) & (dj == -1)][0])
    marg = {int(i): int(v) for i, v in zip(di[(dj == -1) & (di >= 0)],
                                           s[(dj == -1) & (di >= 0)])}
    pair = (di >= 0) & (dj >= 0) & (di < dj)
    pi, pj, sxy = di[pair], dj[pair], s[pair]
    # Python ints: exact regardless of magnitude; assert the int64
    # output contract instead of silently wrapping
    cov = np.array([n * int(x) - marg[int(a)] * marg[int(b)]
                    for a, b, x in zip(pi, pj, sxy)], dtype=object)
    assert all(abs(int(c)) < (1 << 63) for c in cov), \
        "covariance numerator exceeds int64; reduce unit scale"
    cov = cov.astype(np.int64)
    order = np.lexsort((pj, pi, -np.abs(cov)))[:k]
    return pa.table({
        "dim_i": pa.array(pi[order]),
        "dim_j": pa.array(pj[order]),
        "cov_num": pa.array(cov[order]),
        "rnk": pa.array(np.arange(1, order.size + 1, dtype=np.int64)),
    })


EMBEDDING_COVARIANCE_SQL = """
WITH nums AS (SELECT CAST(range AS BIGINT) AS i FROM range(1, 4097)),
u AS (SELECT vec_id, i - 1 AS d,
             CAST(floor(CAST(embedding[i] AS DOUBLE) * 1000.0 + 0.5)
                  AS BIGINT) AS v
      FROM embeddings JOIN nums ON nums.i <= len(embedding)),
tot AS (SELECT CAST(count(*) AS BIGINT) AS n FROM embeddings),
m AS (SELECT d, CAST(sum(v) AS BIGINT) AS s FROM u GROUP BY 1),
x AS (SELECT a.d AS di, b.d AS dj, CAST(sum(a.v * b.v) AS BIGINT) AS sxy
      FROM u a JOIN u b ON a.vec_id = b.vec_id AND a.d < b.d
      GROUP BY 1, 2),
c AS (SELECT di, dj, CAST(tot.n * sxy - ma.s * mb.s AS BIGINT) AS cov_num
      FROM x CROSS JOIN tot
      JOIN m ma ON ma.d = di JOIN m mb ON mb.d = dj)
SELECT di AS dim_i, dj AS dim_j, cov_num,
       CAST(row_number() OVER (ORDER BY abs(cov_num) DESC, di, dj)
            AS BIGINT) AS rnk
FROM c QUALIFY rnk <= 20 ORDER BY rnk
"""


def hash_sample_orders(sf_dir: str, k: int = 100) -> pa.Table:
    """DETERMINISTIC DISTRIBUTED SAMPLE: the bottom-k orders by 64-bit
    key hash -- the reservoir-sample equivalent that is reproducible
    across runs, partitionings, and engines (a true reservoir is
    order-dependent; bottom-k by hash is a uniform sample with a
    replicable SQL twin via the proven hash(BIGINT) == murmur64
    parity).  The per-block bottom-k prereduce means only k rows per
    block ever shuffle.
    """
    from ..hashing import murmur64

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    empty = pa.table({"o_orderkey": pa.array([], type=pa.int64()),
                      "hv": pa.array([], type=pa.uint64()),
                      "cents": pa.array([], type=pa.int64())})

    def bottomk(t: pa.Table) -> pa.Table:
        key = pc.cast(t["o_orderkey"], pa.int64()).to_numpy(
            zero_copy_only=False)
        hv = murmur64(key)            # uint64: DuckDB hash() ordering
        cents = np.floor(t["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100.0 + 0.5).astype(np.int64)
        order = np.lexsort((key, hv))[:k]
        return pa.table({"o_orderkey": pa.array(key[order]),
                         "hv": pa.array(hv[order]),
                         "cents": pa.array(cents[order])})

    def fold(t: pa.Table) -> pa.Table:
        hv = t["hv"].to_numpy(zero_copy_only=False)
        key = t["o_orderkey"].to_numpy(zero_copy_only=False)
        order = np.lexsort((key, hv))[:k]
        return t.take(pa.array(order))

    from ..stages.partition import partition_by
    pre = ds.map_batches(bottomk, batch_format="pyarrow",
                         zero_copy_batch=True)
    final = partition_by(pre, [], 1, fold, empty).to_pandas()
    hv = final["hv"].to_numpy(dtype=np.uint64)
    key = final["o_orderkey"].to_numpy(dtype=np.int64)
    order = np.lexsort((key, hv))
    return pa.table({
        "o_orderkey": pa.array(key[order]),
        "total_cents": pa.array(final["cents"].to_numpy(
            dtype=np.int64)[order]),
        "rnk": pa.array(np.arange(1, order.size + 1, dtype=np.int64)),
    })


HASH_SAMPLE_ORDERS_SQL = """
SELECT CAST(o_orderkey AS BIGINT) AS o_orderkey,
       CAST(floor(o_totalprice * 100.0 + 0.5) AS BIGINT) AS total_cents,
       CAST(row_number() OVER (
            ORDER BY hash(o_orderkey::BIGINT), o_orderkey)
            AS BIGINT) AS rnk
FROM orders QUALIFY rnk <= 100 ORDER BY rnk
"""


def redact_props_stats(sf_dir: str) -> "ray.data.Dataset":
    """PII-scrub-style text REWRITE: redact every digit run in the
    semi-structured ``props`` payload (``[0-9]+`` -> ``#``) and account
    for the transform per event type -- the anonymization pass a
    training-data pipeline runs before corpus export, as a streaming
    map with a grouped combiner (shuffle rows = group cardinality).

    Both engines run RE2-family regexes (pyarrow bundles RE2, DuckDB
    uses it for regexp_*), so match counts and replacement outputs are
    replicable: n_matches via pc.count_substring_regex, the redacted
    text via pc.replace_substring_regex (global), lengths via
    pc.utf8_length (ASCII payloads: chars == bytes)."""
    ds = _read(sf_dir, "events", ["event_type", "props"])

    def measures(t: pa.Table) -> pa.Table:
        props = t["props"]
        redacted = pc.replace_substring_regex(props, pattern="[0-9]+",
                                              replacement="#")
        return pa.table({
            "event_type": t["event_type"],
            "nm": pc.cast(pc.count_substring_regex(props, pattern="[0-9]+"),
                          pa.int64()),
            "lb": pc.cast(pc.utf8_length(props), pa.int64()),
            "la": pc.cast(pc.utf8_length(redacted), pa.int64()),
        })

    return combine_agg(ds, ["event_type"], measures,
                       [("nm", "count"), ("nm", "sum"), ("lb", "sum"),
                        ("la", "sum")],
                       named("event_type", "n_events", "n_matches",
                             "len_before", "len_after"))


REDACT_PROPS_SQL = """
SELECT event_type,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(len(regexp_extract_all(props, '[0-9]+'))) AS BIGINT)
           AS n_matches,
       CAST(sum(length(props)) AS BIGINT) AS len_before,
       CAST(sum(length(regexp_replace(props, '[0-9]+', '#', 'g')))
            AS BIGINT) AS len_after
FROM events GROUP BY 1 ORDER BY 1
"""


def curated_corpus_stats(sf_dir: str, min_quality: float = 0.8,
                         hash_tier: str = "fp64") -> pa.Table:
    """The END-TO-END corpus curation flow a training-data user actually
    runs: quality-filter -> exact-dedup the survivors -> per-lang report
    -- composed as ONE fused text pass.  Each document's text is read
    and scored exactly once; the same batch computes the content hash of
    the survivors, so only (doc_id, lang, counts, hash) rows ride the
    three downstream exchanges (hash groupby -> keep-id semi-join ->
    lang rollup).  Text never enters a shuffle.

    ``hash_tier`` as in dedup_exact_*: fp64 fingerprint default, md5 for
    the SQL-replicable oracle gate."""
    from functools import partial as _partial

    from ..functions.text import quality_score, token_count

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "text", "n_chars"])

    def score_and_hash(t: pa.Table) -> pa.Table:
        texts = t["text"].combine_chunks() if isinstance(
            t["text"], pa.ChunkedArray) else t["text"]
        q = quality_score(texts)
        keep = pc.greater_equal(q, pa.scalar(float(min_quality)))
        kept = t.filter(keep)
        kt = kept["text"].combine_chunks() if isinstance(
            kept["text"], pa.ChunkedArray) else kept["text"]
        hashed = _content_hash_batch(kept, hash_tier)
        hash_col = "text_md5" if hash_tier == "md5" else "text_fp64"
        return pa.table({
            "doc_id": pc.cast(kept["doc_id"], pa.int64()),
            "lang": kept["lang"],
            "n_chars": pc.cast(kept["n_chars"], pa.int64()),
            "tokens": pc.cast(token_count(kt), pa.int64()),
            "h": hashed[hash_col],
        })

    rows = ds.map_batches(score_and_hash, batch_format="pyarrow",
                          zero_copy_batch=True, batch_size=4096).materialize()

    # keep-set semi-join via the engine's own doc_id co-partition (NOT
    # Dataset.join: Ray 2.49's hash-shuffle join intermittently loses the
    # key schema when a quality-filtered-empty block lands in a
    # partition -- measured ~1-in-5 on this composition)
    keep_rows = combine_agg(
        rows, ["h"], lambda t: t, [("doc_id", "min")],
        lambda t: pa.table({
            "doc_id": t["doc_id_min"],
            "lang": pa.nulls(t.num_rows, type=pa.string()),
            "n_chars": pa.array(np.zeros(t.num_rows, np.int64)),
            "tokens": pa.array(np.zeros(t.num_rows, np.int64)),
            "flag": pa.array(np.ones(t.num_rows, np.int64)),
        }))
    data_rows = rows.map_batches(
        lambda t: t.select(["doc_id", "lang", "n_chars", "tokens"])
        .append_column("flag", pa.array(np.zeros(t.num_rows, np.int64))),
        batch_format="pyarrow")

    sj_empty = pa.table({"doc_id": pa.array([], type=pa.int64()),
                         "lang": pa.array([], type=pa.string()),
                         "n_chars": pa.array([], type=pa.int64()),
                         "tokens": pa.array([], type=pa.int64())})

    def semi_join(t: pa.Table) -> pa.Table:
        flag = t["flag"].to_numpy(zero_copy_only=False)
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        keep = np.isin(ids, ids[flag == 1]) & (flag == 0)
        return t.filter(pa.array(keep)).drop_columns(["flag"])

    from ..stages.partition import fit_partitions, partition_by
    joined = partition_by(data_rows.union(keep_rows), ["doc_id"],
                          fit_partitions(16), semi_join, sj_empty)

    agg = combine_agg(joined, ["lang"], lambda t: t,
                      [("tokens", "count"), ("tokens", "sum"),
                       ("n_chars", "sum")],
                      named("lang", "n_docs", "sum_tokens", "sum_chars"))
    out = agg.to_pandas().sort_values("lang").reset_index(drop=True)
    return pa.table({
        "lang": pa.array(out["lang"], type=pa.string()),
        "n_docs": pa.array(out["n_docs"].astype("int64")),
        "sum_tokens": pa.array(out["sum_tokens"].astype("int64")),
        "sum_chars": pa.array(out["sum_chars"].astype("int64")),
    })


def value_hour_sufficient_stats(sf_dir: str) -> "ray.data.Dataset":
    """Distributed SUFFICIENT STATISTICS for correlation/regression of
    event value against hour-of-day, per event type: exact integer
    moment sums (n, sum x, sum y, sum xy, sum x^2, sum y^2) from which
    the driver -- or any downstream trainer -- derives slope/intercept/
    Pearson r in closed form.  The ML-feature-pipeline shape: one
    streaming map with a grouped combiner, shuffle rows = group
    cardinality, all moments associative int64 (value in cents so y^2
    sums stay far from overflow)."""
    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def moments(t: pa.Table) -> pa.Table:
        us = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        x = (us // 3_600_000_000) % 24
        y = np.floor(t["value"].to_numpy(zero_copy_only=False) * 100.0
                     + 0.5).astype(np.int64)
        return pa.table({"event_type": t["event_type"], "x": x, "y": y,
                         "xy": x * y, "x2": x * x, "y2": y * y})

    return combine_agg(ds, ["event_type"], moments,
                       [("x", "count"), ("x", "sum"), ("y", "sum"),
                        ("xy", "sum"), ("x2", "sum"), ("y2", "sum")],
                       named("event_type", "n", "sum_x", "sum_y", "sum_xy",
                             "sum_x2", "sum_y2"))


VALUE_HOUR_STATS_SQL = """
SELECT event_type,
       CAST(count(*) AS BIGINT) AS n,
       CAST(sum(x) AS BIGINT) AS sum_x,
       CAST(sum(y) AS BIGINT) AS sum_y,
       CAST(sum(x * y) AS BIGINT) AS sum_xy,
       CAST(sum(x * x) AS BIGINT) AS sum_x2,
       CAST(sum(y * y) AS BIGINT) AS sum_y2
FROM (SELECT event_type,
             (CAST(epoch_us(ts) AS BIGINT) // 3600000000) % 24 AS x,
             CAST(floor(value * 100.0 + 0.5) AS BIGINT) AS y
      FROM events)
GROUP BY 1 ORDER BY 1
"""


def weighted_sample_orders(sf_dir: str, k: int = 10) -> "ray.data.Dataset":
    """DETERMINISTIC weighted sampling (Efraimidis-Spirakis A-Res):
    sample k orders with probability proportional to o_totalprice,
    reproducibly -- each row's uniform comes from the DuckDB-bit-equal
    murmur64 hash of its key (u = hash/2^64) and its selection key is
    ``ln(u)/w`` (the log form of u^(1/w): same ordering, and numpy
    ln/division match DuckDB bit-for-bit where pow might not).  Top-k by
    key is the block-local prereduce + tiny global sort, so the sample
    is one streaming pass -- the weighted counterpart of the uniform
    hash sampling in sampled_events_by_type."""
    from ..hashing import murmur64
    from ..stages.topk import topk

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def keyed(t: pa.Table) -> pa.Table:
        okey = t["o_orderkey"].to_numpy(zero_copy_only=False)
        w = t["o_totalprice"].to_numpy(zero_copy_only=False)
        # +1 shifts the uniform to (0, 1]: hash(x) == 0 exists in
        # real key spaces and ln(0) errors in DuckDB
        u = ((murmur64(okey).astype(np.float64) + 1.0)
             / 18446744073709551616.0)
        with np.errstate(divide="ignore"):
            key = np.log(u) / w
        return pa.table({
            "o_orderkey": pa.array(okey.astype(np.int64)),
            "o_totalprice": t["o_totalprice"],
            "skey": pa.array(key, type=pa.float64()),
        })

    out = topk(ds.map_batches(keyed, batch_format="pyarrow",
                              zero_copy_batch=True),
               [("skey", "descending"), ("o_orderkey", "ascending")], k)
    return out.map_batches(
        lambda t: t.select(["o_orderkey", "o_totalprice"]),
        batch_format="pyarrow")


WEIGHTED_SAMPLE_SQL = """
SELECT o_orderkey, o_totalprice FROM orders
QUALIFY row_number() OVER (
    ORDER BY ln((CAST(hash(o_orderkey) AS DOUBLE) + 1.0)
                / 18446744073709551616.0) / o_totalprice DESC,
             o_orderkey) <= 10
ORDER BY o_orderkey
"""


def validation_report(sf_dir: str) -> pa.Table:
    """Data-quality CONSTRAINT CHECKS as one streaming report (the
    Great-Expectations shape): each check is a distributed aggregate and
    the report is one row per check -- the validation gate a training-
    data pipeline runs before shipping a corpus.

    Checks: column null counts, domain violations (negative order
    totals, events outside the value domain), primary-key duplicates
    (o_orderkey), and referential integrity (orders whose o_custkey has
    no customer row -- broadcast-probe of the customer key set, the
    small-side pattern).  Every check is one (check_name, bad) row per
    checked row, and one grouped count + sum makes the report, O(checks)
    rows."""
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_totalprice"])
    customers = _read(sf_dir, "customer", ["c_custkey"])

    cust_keys = np.sort(collect(customers)["c_custkey"].to_numpy(
        zero_copy_only=False).astype(np.int64))
    keys_ref = ray.put(cust_keys)

    def checks(names, *flags) -> pa.Table:
        n = len(flags[0])
        return pa.table({
            "check_name": pa.array(np.repeat(names, n), type=pa.string()),
            "bad": pa.array(np.concatenate(flags).astype(np.int64))})

    def order_checks(t: pa.Table) -> pa.Table:
        price = t["o_totalprice"].to_numpy(zero_copy_only=False)
        ck = t["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        keys = ray.get(keys_ref)
        known = np.searchsorted(keys, ck)
        orphan = ~((known < keys.shape[0])
                   & (keys[np.minimum(known, keys.shape[0] - 1)] == ck))
        return checks(["orders.o_orderkey_not_null",
                       "orders.o_totalprice_positive",
                       "orders.o_custkey_references_customer"],
                      pc.is_null(t["o_orderkey"]).to_numpy(
                          zero_copy_only=False), price <= 0, orphan)

    # primary-key duplicates: distributed groupby on the key, count>1
    dup = combine_agg(
        orders, ["o_orderkey"], lambda t: t.select(["o_orderkey"]),
        [("o_orderkey", "count")],
        lambda t: checks(["orders.o_orderkey_unique"],
                         pc.greater(t["o_orderkey_count"], 1).to_numpy(
                             zero_copy_only=False)))

    out = (combine_agg(
        orders.map_batches(order_checks, batch_format="pyarrow",
                           zero_copy_batch=True).union(dup),
        ["check_name"], lambda t: t, [("bad", "count"), ("bad", "sum")],
        named("check_name", "n_checked", "n_violations")).to_pandas()
        .sort_values("check_name").reset_index(drop=True))
    return pa.table({
        "check_name": pa.array(out["check_name"], type=pa.string()),
        "n_checked": pa.array(out["n_checked"].astype("int64")),
        "n_violations": pa.array(out["n_violations"].astype("int64")),
    })


VALIDATION_REPORT_SQL = """
SELECT * FROM (
  SELECT 'orders.o_orderkey_not_null' AS check_name,
         CAST(count(*) AS BIGINT) AS n_checked,
         CAST(sum(CASE WHEN o_orderkey IS NULL THEN 1 ELSE 0 END)
              AS BIGINT) AS n_violations
  FROM orders
  UNION ALL
  SELECT 'orders.o_totalprice_positive',
         CAST(count(*) AS BIGINT),
         CAST(sum(CASE WHEN o_totalprice <= 0 THEN 1 ELSE 0 END)
              AS BIGINT)
  FROM orders
  UNION ALL
  SELECT 'orders.o_custkey_references_customer',
         CAST(count(*) AS BIGINT),
         CAST(sum(CASE WHEN c_custkey IS NULL THEN 1 ELSE 0 END)
              AS BIGINT)
  FROM orders LEFT JOIN customer ON o_custkey = c_custkey
  UNION ALL
  SELECT 'orders.o_orderkey_unique',
         CAST(count(DISTINCT o_orderkey) AS BIGINT),
         CAST(count(DISTINCT CASE WHEN c > 1 THEN o_orderkey END)
              AS BIGINT)
  FROM (SELECT o_orderkey, count(*) AS c FROM orders GROUP BY 1)
) ORDER BY check_name
"""


def returned_revenue_top_customers(sf_dir: str, k: int = 20) -> pa.Table:
    """TPC-H Q10-shaped STAR JOIN: revenue from returned lineitems per
    customer, top k -- the canonical 4-table analytics composition
    (fact -> fact join -> two dimension lookups -> top-k), built for
    scale: the returnflag filter is pushed into the parquet read, the
    fact side pre-aggregates to one row per orderkey BEFORE the hash
    join (shuffle input = matching orders, not lineitems), customer and
    nation ride as broadcast lookups, and the final top-k uses the
    block-local prereduce.  Revenue in exact integer 1e-4 units (the
    pricing_summary recipe) so the whole chain is hash-replicable."""
    import pyarrow.dataset as pads

    from ..stages.topk import topk

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
        filter=(pads.field("l_returnflag") == "R"))

    def li_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"l_orderkey": pa.array([], type=pa.int64()),
                             "rev": pa.array([], type=pa.int64())})
        price = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = t["l_discount"].to_numpy(zero_copy_only=False)
        units = np.floor(price * (1.0 - disc) * 10000.0 + 0.5).astype(
            np.int64)
        ok = t["l_orderkey"].to_numpy(zero_copy_only=False)
        uo, inv = np.unique(ok, return_inverse=True)
        sums = np.zeros(uo.shape[0], dtype=np.int64)
        np.add.at(sums, inv, units)
        return pa.table({"l_orderkey": pa.array(uo.astype(np.int64)),
                         "rev": pa.array(sums)})

    # NOTE: no groupby(l_orderkey) before the join -- the per-block
    # partial already combines within blocks, the join tolerates
    # duplicate left keys, and the per-customer aggregate downstream
    # absorbs them; skipping the extra shuffle saves a full exchange
    # (measured ~7 s of ~20 s at sf0.1)
    per_order = li.map_batches(li_partial, batch_format="pyarrow",
                               zero_copy_batch=True)

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])

    # equi-join WITHOUT Ray's hash-join operator: union-with-tag + ONE
    # orderkey co-partition + a vectorized run kernel (the measured
    # stages/partition.py workaround -- join aggregator actors throttle
    # the pool on Ray 2.49, int64 sort shuffles scale normally).  The
    # kernel emits one (customer, revenue) row per matched line, which
    # the grouped combiner folds to customer grain before the exchange.
    from ..stages.partition import fit_partitions, partition_by

    j_empty = pa.table({"key": pa.array([], type=pa.int64()),
                        "cust": pa.array([], type=pa.int64()),
                        "rev": pa.array([], type=pa.int64()),
                        "tag": pa.array([], type=pa.int64())})

    def o_tagged(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table({
            "key": pc.cast(t["o_orderkey"], pa.int64()),
            "cust": pc.cast(t["o_custkey"], pa.int64()),
            "rev": pa.array(np.zeros(n, dtype=np.int64)),
            "tag": pa.array(np.zeros(n, dtype=np.int64))})

    def l_tagged(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table({
            "key": pc.cast(t["l_orderkey"], pa.int64()),
            "cust": pa.array(np.zeros(n, dtype=np.int64)),
            "rev": pc.cast(t["rev"], pa.int64()),
            "tag": pa.array(np.ones(n, dtype=np.int64))})

    pc_empty = pa.table({"o_custkey": pa.array([], type=pa.int64()),
                         "rev": pa.array([], type=pa.int64())})

    def join_fold(t: pa.Table) -> pa.Table:
        key = t["key"].to_numpy(zero_copy_only=False)
        tag = t["tag"].to_numpy(zero_copy_only=False)
        order = np.lexsort((tag, key))
        k_s, tag_s = key[order], tag[order]
        new = np.ones(k_s.size, dtype=bool)
        new[1:] = k_s[1:] != k_s[:-1]
        starts = np.flatnonzero(new)
        run_id = np.cumsum(new) - 1
        first_is_order = tag_s[starts] == 0
        matched = (tag_s == 1) & first_is_order[run_id]
        if not matched.any():
            return pc_empty
        cust_all = t["cust"].to_numpy(zero_copy_only=False)[order]
        rev_all = t["rev"].to_numpy(zero_copy_only=False)[order]
        m_idx = np.flatnonzero(matched)
        return pa.table({
            "o_custkey": pa.array(cust_all[starts[run_id[m_idx]]]),
            "rev": pa.array(rev_all[m_idx])})

    per_cust = combine_agg(partition_by(
        orders.map_batches(o_tagged, batch_format="pyarrow")
        .union(per_order.map_batches(l_tagged, batch_format="pyarrow")),
        ["key"], fit_partitions(16), join_fold, pc_empty),
        ["o_custkey"], lambda t: t, [("rev", "sum")],
        named("o_custkey", "revenue_units"))

    # broadcast dimension lookups (customer, nation are the small sides)
    cust = collect(_read(sf_dir, "customer",
                         ["c_custkey", "c_name", "c_nationkey"]))
    nat = collect(_read(sf_dir, "nation", ["n_nationkey", "n_name"]))
    ck = cust["c_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    order_c = np.argsort(ck)
    nk = nat["n_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    cust_ref = ray.put((ck[order_c],
                        np.asarray(cust["c_name"].to_pylist(),
                                   dtype=object)[order_c],
                        cust["c_nationkey"].to_numpy(
                            zero_copy_only=False).astype(np.int64)[order_c],
                        nk, np.asarray(nat["n_name"].to_pylist(),
                                       dtype=object)))

    def attach_dims(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"c_custkey": pa.array([], type=pa.int64()),
                             "c_name": pa.array([], type=pa.string()),
                             "n_name": pa.array([], type=pa.string()),
                             "revenue_units": pa.array([],
                                                       type=pa.int64())})
        cks, cnames, cnk, nks, nnames = ray.get(cust_ref)
        cust_pos = np.searchsorted(cks, t["o_custkey"].to_numpy(
            zero_copy_only=False).astype(np.int64))
        nat_pos = np.searchsorted(nks, cnk[cust_pos])
        return pa.table({
            "c_custkey": pc.cast(t["o_custkey"], pa.int64()),
            "c_name": pa.array(cnames[cust_pos], type=pa.string()),
            "n_name": pa.array(nnames[nat_pos], type=pa.string()),
            "revenue_units": pc.cast(t["revenue_units"], pa.int64()),
        })

    out = topk(per_cust.map_batches(attach_dims, batch_format="pyarrow"),
               [("revenue_units", "descending"),
                ("c_custkey", "ascending")], k)
    res = out.to_pandas().reset_index(drop=True)
    return pa.table({
        "c_custkey": pa.array(res["c_custkey"].astype("int64")),
        "c_name": pa.array(res["c_name"], type=pa.string()),
        "n_name": pa.array(res["n_name"], type=pa.string()),
        "revenue_units": pa.array(res["revenue_units"].astype("int64")),
    })


RETURNED_REVENUE_SQL = """
SELECT c.c_custkey, c.c_name, n.n_name,
       CAST(sum(CAST(round(l_extendedprice*(1.0-l_discount)*10000.0)
                     AS BIGINT)) AS BIGINT) AS revenue_units
FROM lineitem l
JOIN orders o ON l.l_orderkey = o.o_orderkey
JOIN customer c ON o.o_custkey = c.c_custkey
JOIN nation n ON c.c_nationkey = n.n_nationkey
WHERE l.l_returnflag = 'R'
GROUP BY 1, 2, 3
ORDER BY revenue_units DESC, c_custkey LIMIT 20
"""


def diversified_top_orders(sf_dir: str, k: int = 10,
                           per_customer: int = 2) -> pa.Table:
    """DIVERSITY-CONSTRAINED top-k: the k highest-value orders subject
    to a quota of at most ``per_customer`` per customer -- the balanced
    ranking shape (search-result dedup, per-source sampling caps).

    Two-stage reduction, both stages semigroup-safe: (1) block-local
    per-customer quota prune (sort by (cust, price desc), vectorized
    in-group rank, keep rank < quota -- correct per block because a
    customer's global top-2 is within the union of its block top-2s);
    (2) customer co-partition applies the quota exactly, then the
    block-local top-k prereduce + tiny global sort finishes."""
    from ..stages.topk import topk

    ds = _read(sf_dir, "orders",
               ["o_orderkey", "o_custkey", "o_totalprice"])

    empty = pa.table({"o_orderkey": pa.array([], type=pa.int64()),
                      "o_custkey": pa.array([], type=pa.int64()),
                      "o_totalprice": pa.array([], type=pa.float64())})

    def quota_prune(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        cust = t["o_custkey"].to_numpy(zero_copy_only=False)
        price = t["o_totalprice"].to_numpy(zero_copy_only=False)
        okey = t["o_orderkey"].to_numpy(zero_copy_only=False)
        # sort: customer asc, price desc, orderkey asc (deterministic)
        order = np.lexsort((okey, -price, cust))
        cust_s = cust[order]
        new_grp = np.ones(order.shape[0], dtype=bool)
        new_grp[1:] = cust_s[1:] != cust_s[:-1]
        starts = np.nonzero(new_grp)[0]
        counts = np.diff(np.append(starts, order.shape[0]))
        rank = np.arange(order.shape[0]) - np.repeat(starts, counts)
        keep = order[rank < per_customer]
        return pa.table({
            "o_orderkey": pa.array(okey[keep].astype(np.int64)),
            "o_custkey": pa.array(cust[keep].astype(np.int64)),
            "o_totalprice": pa.array(price[keep], type=pa.float64()),
        })

    from ..stages.partition import fit_partitions, partition_by
    pruned = ds.map_batches(quota_prune, batch_format="pyarrow",
                            zero_copy_batch=True)
    exact_quota = partition_by(pruned, ["o_custkey"], fit_partitions(16),
                               quota_prune, empty)
    out = topk(exact_quota,
               [("o_totalprice", "descending"),
                ("o_orderkey", "ascending")], k)
    res = out.to_pandas().reset_index(drop=True)
    return pa.table({
        "o_orderkey": pa.array(res["o_orderkey"].astype("int64")),
        "o_custkey": pa.array(res["o_custkey"].astype("int64")),
        "o_totalprice": pa.array(res["o_totalprice"], type=pa.float64()),
    })


DIVERSIFIED_TOP_SQL = """
SELECT o_orderkey, o_custkey, o_totalprice FROM orders
QUALIFY row_number() OVER (PARTITION BY o_custkey
                           ORDER BY o_totalprice DESC, o_orderkey) <= 2
ORDER BY o_totalprice DESC, o_orderkey LIMIT 10
"""


def partitioned_write_read_stats(sf_dir: str,
                                 out_dir: str | None = None) -> pa.Table:
    """SINK + SOURCE round-trip in one query: write the documents table
    as lang-PARTITIONED parquet (one directory per lang -- the resumable
    layout every 100 TB pipeline needs), then read it BACK with a
    partition filter per lang and roll up -- verifying that what the
    engine writes is what it reads, and that partition pruning works
    (each per-lang read opens only that lang's files).

    The report is built from the round-tripped data only; its oracle is
    the direct rollup of the source table, so any write/read corruption
    or partition misassignment breaks the hash."""
    import shutil

    out_dir = out_dir or "/tmp/p2pdds_gate/docs_by_lang"
    shutil.rmtree(out_dir, ignore_errors=True)

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    ds.write_parquet(out_dir, partition_cols=["lang"])

    langs = sorted(ds.unique("lang"))
    rows = []
    for lang in langs:     # each read opens ONE partition directory --
        # pruning by path, the strongest form (zero foreign bytes read)
        part = ray.data.read_parquet(f"{out_dir}/lang={lang}")
        agg = part.aggregate(Count(alias_name="n"),
                             Sum("n_chars", alias_name="sc"))
        rows.append((lang, int(agg["n"] or 0), int(agg["sc"] or 0)))
    return pa.table({
        "lang": pa.array([r[0] for r in rows], type=pa.string()),
        "n_docs": pa.array([r[1] for r in rows], type=pa.int64()),
        "sum_chars": pa.array([r[2] for r in rows], type=pa.int64()),
    })


PARTITIONED_RT_SQL = """
SELECT lang, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(n_chars) AS BIGINT) AS sum_chars
FROM documents GROUP BY 1 ORDER BY 1
"""


def tfidf_top_term_per_doc(sf_dir: str) -> "ray.data.Dataset":
    """Per-document KEYWORD EXTRACTION via TF-IDF: for every document,
    the single term maximizing tf * idf with a deterministic tie order
    (score desc, token asc).  idf uses the integer-exact surrogate
    ``idf_milli = (N * 1000) // df`` -- monotone decreasing in df like
    log(N/df) but free of floating point, so the DuckDB oracle
    hash-matches bit-for-bit (cf. main.cpp:1074's relative-error metric,
    which this engine replicates elsewhere with the same integer-units
    discipline).

    Scale shape (100 TB honest):
    - pass 1 folds each block to its distinct (doc_id, tok, tf) rows via
      one composite np.unique over dictionary codes -- text never rides
      a shuffle; the tf table is materialized once (ints + tokens, far
      smaller than the corpus, spillable) because both df and scoring
      consume it.
    - document frequency: a grouped count of the tf rows per token;
      the exchange is O(batch vocab x blocks), bounded by live
      vocabulary, never by corpus rows (each (doc, tok) row exists
      exactly once globally, so partial counts sum exactly).
    - scoring join: tf rows and vocab-sized idf rows co-partition by a
      token fingerprint (union + flag; Dataset.join avoided per the
      measured empty-block flake) and score via one sorted lookup per
      partition.
    - per-doc argmax: each token partition prereduces to ONE candidate
      row per document it sees, so the final doc_id exchange moves
      O(docs x token_partitions) rows, then a doc co-partition picks the
      global argmax.
    """
    import pyarrow.parquet as pq

    from ..functions.text import fingerprint64
    from ..stages.partition import fit_partitions, partition_by

    n_docs = pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def tf_counts(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t["text"], pattern=" ")
        flat = pc.list_flatten(toks).combine_chunks()
        nper = pc.list_value_length(toks).to_numpy(
            zero_copy_only=False).astype(np.int64)
        doc = pc.cast(t["doc_id"], pa.int64()).to_numpy(
            zero_copy_only=False)
        dcode = np.repeat(np.arange(len(doc), dtype=np.int64), nper)
        dic = flat.dictionary_encode()
        trank = dic.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        nv = np.int64(len(dic.dictionary) + 1)
        upair, cnt = np.unique(dcode * nv + trank, return_counts=True)
        tok = pc.take(dic.dictionary, pa.array(upair % nv))
        return pa.table({
            "doc_id": pa.array(doc[upair // nv]),
            "tok": pc.cast(tok, pa.string()),
            "tf": pa.array(cnt.astype(np.int64)),
            "th": fingerprint64(tok),
        })

    tf_ds = docs.map_batches(tf_counts, batch_format="pyarrow",
                             zero_copy_batch=True).materialize()

    idf_rows = combine_agg(tf_ds, ["tok"], lambda t: t.select(["tok"]),
                           [("tok", "count")], lambda t: pa.table({
        "doc_id": pa.array(np.zeros(t.num_rows, np.int64)),
        "tok": t["tok"],
        "tf": (np.int64(n_docs) * np.int64(1000)) //
        t["tok_count"].to_numpy(zero_copy_only=False),
        "th": fingerprint64(t["tok"]),
        "flag": pa.array(np.ones(t.num_rows, np.int64)),
    }))

    data_rows = tf_ds.map_batches(
        lambda t: t.append_column(
            "flag", pa.array(np.zeros(t.num_rows, np.int64))),
        batch_format="pyarrow")

    cand_empty = pa.table({"doc_id": pa.array([], type=pa.int64()),
                           "top_tok": pa.array([], type=pa.string()),
                           "score": pa.array([], type=pa.int64())})

    def _argmax_per_doc(doc: np.ndarray, tok: np.ndarray,
                        score: np.ndarray) -> pa.Table:
        order = np.lexsort((tok, -score, doc))
        d_s = doc[order]
        first = np.ones(order.shape[0], dtype=bool)
        first[1:] = d_s[1:] != d_s[:-1]
        keep = order[first]
        return pa.table({
            "doc_id": pa.array(doc[keep]),
            "top_tok": pa.array(tok[keep].tolist(), type=pa.string()),
            "score": pa.array(score[keep]),
        })

    def score_part(t: pa.Table) -> pa.Table:
        flag = t["flag"].to_numpy(zero_copy_only=False)
        is_idf = flag == 1
        if not (~is_idf).any():
            return cand_empty
        # numpy U-dtype compares by code point == DuckDB binary collation
        # for the (verified-ASCII) corpus
        tok = np.asarray(t["tok"].to_pylist(), dtype=np.str_)
        tfv = t["tf"].to_numpy(zero_copy_only=False)
        it_o = np.argsort(tok[is_idf], kind="stable")
        it_s = tok[is_idf][it_o]
        iv_s = tfv[is_idf][it_o]          # idf_milli rides the tf column
        dtok = tok[~is_idf]
        pos = np.searchsorted(it_s, dtok)
        score = tfv[~is_idf] * iv_s[pos]
        return _argmax_per_doc(
            t["doc_id"].to_numpy(zero_copy_only=False)[~is_idf],
            dtok, score)

    nparts = fit_partitions(16)
    cands = partition_by(data_rows.union(idf_rows), ["th"], nparts,
                         score_part, cand_empty)

    def final_argmax(t: pa.Table) -> pa.Table:
        return _argmax_per_doc(
            t["doc_id"].to_numpy(zero_copy_only=False),
            np.asarray(t["top_tok"].to_pylist(), dtype=np.str_),
            t["score"].to_numpy(zero_copy_only=False))

    return partition_by(cands, ["doc_id"], nparts, final_argmax,
                        cand_empty)


TFIDF_TOP_TERM_SQL = """
WITH toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok FROM documents
), tf AS (
  SELECT doc_id, tok, CAST(count(*) AS BIGINT) AS tf FROM toks GROUP BY 1, 2
), df AS (
  SELECT tok, CAST(count(*) AS BIGINT) AS df FROM tf GROUP BY 1
), n AS (
  SELECT CAST(count(*) AS BIGINT) AS n FROM documents
)
SELECT tf.doc_id,
       tf.tok AS top_tok,
       CAST(tf.tf * ((n.n * 1000) // df.df) AS BIGINT) AS score
FROM tf JOIN df USING (tok) CROSS JOIN n
QUALIFY row_number() OVER (PARTITION BY tf.doc_id
                           ORDER BY score DESC, tf.tok) = 1
ORDER BY 1
"""


def cube_pricing(sf_dir: str) -> pa.Table:
    """CUBE grouping sets from ONE scan: all four grouping levels of
    (l_returnflag, l_linestatus) -- (flag, status), (flag), (status) and
    the grand total -- derived by merging the finest-level aggregate,
    never by re-scanning (the exact-aggregate analog of
    ``dds_rollup_lang_source``'s sketch-level merge-up).  Aggregated-out
    dimensions carry the sentinel 'ALL' (COALESCE in the oracle), which
    cannot collide with the single-char TPC-H domain values.

    Scale shape: one pass folds each block to its (flag, status) integer
    partials (cents units); the shuffle moves O(6 x blocks) rows; every
    coarser level is a driver-side fold of the 6-row finest table."""
    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_linestatus",
                                    "l_quantity", "l_extendedprice"])

    def cents(t: pa.Table) -> pa.Table:
        return pa.table({
            "flag": t["l_returnflag"], "status": t["l_linestatus"],
            "qty_c": _int_units(t["l_quantity"], 100),
            "price_c": _int_units(t["l_extendedprice"], 100),
        })

    fine = combine_agg(ds, ["flag", "status"], cents,
                       [("qty_c", "count"), ("qty_c", "sum"),
                        ("price_c", "sum")],
                       named("flag", "status", "n", "sum_qty_c",
                             "sum_price_c")).to_pandas()

    import pandas as pd
    levels = [fine]
    for keys, alls in ((["flag"], ["status"]), (["status"], ["flag"]),
                       ([], ["flag", "status"])):
        if keys:
            lvl = (fine.groupby(keys, as_index=False)
                   [["n", "sum_qty_c", "sum_price_c"]].sum())
        else:
            lvl = fine[["n", "sum_qty_c", "sum_price_c"]].sum().to_frame().T
        for a in alls:
            lvl[a] = "ALL"
        levels.append(lvl[["flag", "status", "n", "sum_qty_c",
                           "sum_price_c"]])
    out = (pd.concat(levels, ignore_index=True)
           .sort_values(["flag", "status"]).reset_index(drop=True))
    return pa.table({
        "flag": pa.array(out["flag"], type=pa.string()),
        "status": pa.array(out["status"], type=pa.string()),
        "n": pa.array(out["n"].astype("int64")),
        "sum_qty_c": pa.array(out["sum_qty_c"].astype("int64")),
        "sum_price_c": pa.array(out["sum_price_c"].astype("int64")),
    })


CUBE_PRICING_SQL = """
SELECT COALESCE(l_returnflag, 'ALL') AS flag,
       COALESCE(l_linestatus, 'ALL') AS status,
       CAST(count(*) AS BIGINT) AS n,
       CAST(sum(CAST(round(l_quantity * 100) AS BIGINT)) AS BIGINT)
         AS sum_qty_c,
       CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)) AS BIGINT)
         AS sum_price_c
FROM lineitem
GROUP BY CUBE (l_returnflag, l_linestatus)
ORDER BY 1, 2
"""


def hour_entropy_by_type(sf_dir: str) -> pa.Table:
    """Shannon entropy of the hour-of-day distribution per event type --
    an information-theoretic data-quality signal (uniform traffic -> high
    entropy; a scraper hammering one hour -> low).  Reported in integer
    MICRO-NATS with per-term flooring, the repo's order-independent
    summation discipline: each histogram term floor((-p * ln p) * 1e6) is
    a single-expression float that numpy and DuckDB evaluate bit-
    identically (np.log == ln verified elsewhere), and the integer term
    sum is permutation-proof where a float SUM would not be.

    Scale shape: the only distributed work is the exact (type, hour)
    histogram -- per-block grouped partials, O(types x 24 x blocks)
    shuffle rows; the entropy finalize folds a types x 24 table on the
    driver."""
    ds = _read(sf_dir, "events", ["event_type", "ts"])

    def hours(t: pa.Table) -> pa.Table:
        us = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({"event_type": t["event_type"],
                         "hr": (us // np.int64(3_600_000_000)) % 24})

    hist = combine_agg(ds, ["event_type", "hr"], hours, [("hr", "count")],
                       named("event_type", "hr", "cnt")).to_pandas()

    rows = []
    for etype, grp in hist.groupby("event_type"):
        cnt = grp["cnt"].to_numpy(dtype=np.int64)
        n = np.int64(cnt.sum())
        p = cnt.astype(np.float64) / np.float64(n)
        terms = np.floor((-p * np.log(p)) * 1e6).astype(np.int64)
        rows.append((etype, int(n), int(terms.sum())))
    rows.sort()
    return pa.table({
        "event_type": pa.array([r[0] for r in rows], type=pa.string()),
        "n": pa.array([r[1] for r in rows], type=pa.int64()),
        "entropy_unats": pa.array([r[2] for r in rows], type=pa.int64()),
    })


HOUR_ENTROPY_SQL = """
WITH c AS (
  SELECT event_type, CAST(date_part('hour', ts) AS BIGINT) AS hr,
         CAST(count(*) AS BIGINT) AS cnt
  FROM events GROUP BY 1, 2
), n AS (
  SELECT event_type, CAST(sum(cnt) AS BIGINT) AS n FROM c GROUP BY 1
)
SELECT c.event_type, n.n,
       CAST(sum(CAST(floor(
         (-(CAST(c.cnt AS DOUBLE) / n.n)
          * ln(CAST(c.cnt AS DOUBLE) / n.n)) * 1e6) AS BIGINT))
         AS BIGINT) AS entropy_unats
FROM c JOIN n USING (event_type)
GROUP BY 1, 2
ORDER BY 1
"""


def user_churn_sets(sf_dir: str,
                    split: str = "2024-01-30") -> "ray.data.Dataset":
    """Distributed SET ALGEBRA over user activity: split the event
    timeline at ``split`` and classify every distinct user as retained
    (INTERSECT: active both halves), churned (first EXCEPT second) or
    new (second EXCEPT first) -- the cohort-transition counts a growth
    dashboard runs.

    Scale shape: each block folds to distinct (user, in1, in2) presence
    partials before the shuffle (presence-OR is associative), the
    groupby moves O(distinct users x blocks capped by block dedup) tiny
    rows, and the classification rollup is another partial-friendly
    integer exchange."""
    import pandas as pd
    split_us = np.int64(pd.Timestamp(split).value // 1000)
    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def presence(t: pa.Table) -> pa.Table:
        us = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        in1 = (us < split_us).astype(np.int64)
        return pa.table({"user_id": pc.cast(t["user_id"], pa.int64()),
                         "in1": in1, "in2": 1 - in1})

    flags = combine_agg(ds, ["user_id"], presence,
                        [("in1", "max"), ("in2", "max")],
                        named("user_id", "in1", "in2"))

    def classify(t: pa.Table) -> pa.Table:
        in1 = t["in1"].to_numpy(zero_copy_only=False)
        in2 = t["in2"].to_numpy(zero_copy_only=False)
        return pa.table({"status": np.where(
            in1 & in2, "retained", np.where(in1 == 1, "churned", "new"))})

    return combine_agg(flags, ["status"], classify, [("status", "count")],
                       named("status", "n_users"))


USER_CHURN_SQL = """
WITH f AS (
  SELECT user_id,
         CAST(max(CASE WHEN ts < TIMESTAMP '2024-01-30' THEN 1 ELSE 0
                  END) AS BIGINT) AS in1,
         CAST(max(CASE WHEN ts >= TIMESTAMP '2024-01-30' THEN 1 ELSE 0
                  END) AS BIGINT) AS in2
  FROM events GROUP BY 1
)
SELECT CASE WHEN in1 = 1 AND in2 = 1 THEN 'retained'
            WHEN in1 = 1 THEN 'churned' ELSE 'new' END AS status,
       CAST(count(*) AS BIGINT) AS n_users
FROM f GROUP BY 1 ORDER BY 1
"""


def order_skyline(sf_dir: str) -> pa.Table:
    """SKYLINE (Pareto frontier) of orders over (minimize o_orderdate,
    maximize o_totalprice): every order not strictly dominated by
    another that is both no-later and no-cheaper.  The multi-objective
    "best tradeoffs" operator -- classic in analytics, absent from
    SQL-92 (expressed via QUALIFY window algebra in the oracle).

    Scale shape: the frontier rule is a SEMIGROUP -- a block-local
    frontier pass (sort by day asc / price desc + running strict max)
    discards everything dominated within the block, so only per-block
    frontier rows (typically O(log n) of a random block) reach the
    single final partition, which re-runs the identical vectorized rule
    exactly.  No all-to-all: the exchange is O(blocks x frontier)."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate",
                                  "o_totalprice"])

    empty = pa.table({"o_orderkey": pa.array([], type=pa.int64()),
                      "day": pa.array([], type=pa.int64()),
                      "price_c": pa.array([], type=pa.int64())})

    def frontier(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        key = pc.cast(t["o_orderkey"], pa.int64()).to_numpy(
            zero_copy_only=False)
        day = (pc.cast(t["o_orderdate"], pa.int64()).to_numpy(
            zero_copy_only=False) // np.int64(86_400_000_000))
        price = _int_units(t["o_totalprice"], 100).to_numpy(
            zero_copy_only=False)
        order = np.lexsort((key, -price, day))
        d_s, p_s = day[order], price[order]
        # per-day max: first row of each day group after the sort
        new_day = np.ones(order.shape[0], dtype=bool)
        new_day[1:] = d_s[1:] != d_s[:-1]
        day_max = p_s[new_day][np.cumsum(new_day) - 1]
        # strict running max of earlier days (shift the per-day max)
        uniq_max = p_s[new_day]
        run = np.maximum.accumulate(uniq_max)
        prev_max = np.full(uniq_max.shape[0], np.int64(-1))
        prev_max[1:] = run[:-1]
        prev_of_row = prev_max[np.cumsum(new_day) - 1]
        keep = (p_s == day_max) & (p_s > prev_of_row)
        sel = order[keep]
        return pa.table({"o_orderkey": pa.array(key[sel]),
                         "day": pa.array(day[sel]),
                         "price_c": pa.array(price[sel])})

    local = ds.map_batches(frontier, batch_format="pyarrow",
                           zero_copy_batch=True)

    def final(t: pa.Table) -> pa.Table:
        return frontier(pa.table({
            "o_orderkey": pc.cast(t["o_orderkey"], pa.int64()),
            "o_orderdate": pc.multiply(pc.cast(t["day"], pa.int64()),
                                       pa.scalar(86_400_000_000)),
            "o_totalprice": pc.divide(pc.cast(t["price_c"], pa.float64()),
                                      pa.scalar(100.0)),
        }))

    from ..stages.partition import partition_by
    out = partition_by(local, [], 1, final, empty).to_pandas()
    out = out.sort_values(["day", "price_c", "o_orderkey"]).reset_index(
        drop=True)
    return pa.table({
        "o_orderkey": pa.array(out["o_orderkey"].astype("int64")),
        "day": pa.array(out["day"].astype("int64")),
        "price_c": pa.array(out["price_c"].astype("int64")),
    })


ORDER_SKYLINE_SQL = """
WITH pts AS (
  SELECT o_orderkey,
         CAST(epoch_us(o_orderdate) // 86400000000 AS BIGINT) AS day,
         CAST(round(o_totalprice * 100) AS BIGINT) AS price_c
  FROM orders
)
SELECT o_orderkey, day, price_c FROM pts
QUALIFY price_c = max(price_c) OVER (PARTITION BY day)
    AND price_c > COALESCE(max(price_c) OVER (
          ORDER BY day RANGE BETWEEN UNBOUNDED PRECEDING
                             AND 1 PRECEDING), -1)
ORDER BY 2, 3, 1
"""


def keyword_search_topk(sf_dir: str, terms: tuple = ("hash", "join"),
                        k: int = 15) -> pa.Table:
    """Conjunctive KEYWORD SEARCH with term-frequency ranking: documents
    containing ALL query terms (token-equality semantics, not substring),
    ranked by summed tf with deterministic (score desc, doc asc) order --
    the retrieval primitive an inverted index serves, expressed as one
    streaming scan.

    Scale shape: each block folds to per-doc tf vectors for just the
    |terms| query tokens (dictionary-encode once, one integer compare
    per term -- no per-row Python) and immediately prunes to docs
    matching every term, then keeps its local top-k; the exchange is
    O(k x blocks) rows into one final ranking partition.  At index-serving
    scale the same kernel runs against the posting-list parquet written
    by the partitioned sink instead of raw text."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    terms = tuple(terms)

    tf_cols = [f"tf_{t}" for t in terms]
    empty = pa.table({"doc_id": pa.array([], type=pa.int64()),
                      **{c: pa.array([], type=pa.int64())
                         for c in tf_cols},
                      "score": pa.array([], type=pa.int64())})

    def local(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        toks = pc.split_pattern(t["text"], pattern=" ")
        flat = pc.list_flatten(toks).combine_chunks()
        nper = pc.list_value_length(toks).to_numpy(
            zero_copy_only=False).astype(np.int64)
        dcode = np.repeat(np.arange(t.num_rows, dtype=np.int64), nper)
        dic = flat.dictionary_encode()
        idx = dic.indices.to_numpy(zero_copy_only=False)
        dwords = dic.dictionary.to_pylist()
        tfm = np.zeros((t.num_rows, len(terms)), dtype=np.int64)
        for j, term in enumerate(terms):
            if term in dwords:
                code = dwords.index(term)
                np.add.at(tfm[:, j], dcode[idx == code], 1)
        hit = (tfm > 0).all(axis=1)
        if not hit.any():
            return empty
        ids = pc.cast(t["doc_id"], pa.int64()).to_numpy(
            zero_copy_only=False)[hit]
        tfm = tfm[hit]
        score = tfm.sum(axis=1)
        o = np.lexsort((ids, -score))[:k]
        return pa.table({
            "doc_id": pa.array(ids[o]),
            **{c: pa.array(tfm[o, j]) for j, c in enumerate(tf_cols)},
            "score": pa.array(score[o]),
        })

    from ..stages.partition import partition_by
    pooled = docs.map_batches(local, batch_format="pyarrow",
                              zero_copy_batch=True)

    def final(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        score = t["score"].to_numpy(zero_copy_only=False)
        o = np.lexsort((ids, -score))[:k]
        return pa.table({
            "doc_id": pa.array(ids[o]),
            **{c: pa.array(t[c].to_numpy(zero_copy_only=False)[o])
               for c in tf_cols},
            "score": pa.array(score[o]),
        })

    out = partition_by(pooled, [], 1, final, empty).to_pandas()
    out = out.sort_values(["score", "doc_id"],
                          ascending=[False, True]).reset_index(drop=True)
    return pa.table({c: pa.array(out[c].astype("int64"))
                     for c in ["doc_id", *tf_cols, "score"]})


KEYWORD_SEARCH_SQL = """
WITH toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok FROM documents
), tf AS (
  SELECT doc_id,
         CAST(sum(CASE WHEN tok = 'hash' THEN 1 ELSE 0 END) AS BIGINT)
           AS tf_hash,
         CAST(sum(CASE WHEN tok = 'join' THEN 1 ELSE 0 END) AS BIGINT)
           AS tf_join
  FROM toks GROUP BY 1
)
SELECT doc_id, tf_hash, tf_join,
       CAST(tf_hash + tf_join AS BIGINT) AS score
FROM tf WHERE tf_hash > 0 AND tf_join > 0
QUALIFY row_number() OVER (ORDER BY score DESC, doc_id) <= 15
ORDER BY 4 DESC, 1
"""


def token_budget_mix(sf_dir: str, budget: int = 400) -> pa.Table:
    """TRAINING-MIX BUILDER: per language, admit documents in
    deterministic hash order until a per-language TOKEN BUDGET is
    exhausted (running token total <= budget) -- how a data-mixture
    recipe ("x tokens of each language") is actually materialized.
    Hash order (DuckDB-hash-replicated murmur64 of doc_id) makes the
    admitted set a uniform sample, reproducible across runs and engines.

    Scale shape: one pass computes (doc_id, lang, tokens, hash) rows --
    text never leaves the map stage; languages co-partition (the
    sessionization assumption: one group fits one partition, valid here
    because the admitted PREFIX is budget-bounded even when the language
    corpus is not -- the cumsum stops mattering past the budget); each
    partition sorts by unsigned hash and cuts at the budget with one
    cumsum.  Output is a lang-sized rollup."""
    from ..hashing import murmur64
    from ..stages.partition import fit_partitions, partition_by

    docs = _read(sf_dir, "documents", ["doc_id", "lang", "text"])

    def meta(t: pa.Table) -> pa.Table:
        toks = pc.list_value_length(
            pc.split_pattern(t["text"], pattern=" "))
        ids = pc.cast(t["doc_id"], pa.int64()).to_numpy(
            zero_copy_only=False)
        return pa.table({
            "doc_id": pa.array(ids),
            "lang": t["lang"],
            "toks": pc.cast(toks, pa.int64()),
            "h": pa.array(murmur64(ids).view(np.int64)),
        })

    rows = docs.map_batches(meta, batch_format="pyarrow",
                            zero_copy_batch=True)

    empty = pa.table({"lang": pa.array([], type=pa.string()),
                      "n_docs": pa.array([], type=pa.int64()),
                      "tokens": pa.array([], type=pa.int64())})

    def admit(t: pa.Table) -> pa.Table:
        lang = np.asarray(t["lang"].to_pylist(), dtype=np.str_)
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        nt = t["toks"].to_numpy(zero_copy_only=False)
        h = t["h"].to_numpy(zero_copy_only=False).view(np.uint64)
        order = np.lexsort((ids, h, lang))
        l_s, n_s = lang[order], nt[order]
        new_grp = np.ones(order.shape[0], dtype=bool)
        new_grp[1:] = l_s[1:] != l_s[:-1]
        csum = np.cumsum(n_s)
        base = np.zeros(order.shape[0], dtype=np.int64)
        starts = np.nonzero(new_grp)[0]
        rlen = np.diff(np.append(starts, order.shape[0]))
        base = np.repeat(np.where(starts > 0, csum[starts - 1], 0), rlen)
        run_sum = csum - base
        keep = run_sum <= np.int64(budget)
        if not keep.any():
            return empty
        kl, kn = l_s[keep], n_s[keep]
        ul, inv = np.unique(kl, return_inverse=True)
        cnt = np.bincount(inv).astype(np.int64)
        tot = np.zeros(ul.shape[0], np.int64)
        np.add.at(tot, inv, kn)
        return pa.table({
            "lang": pa.array(ul.tolist(), type=pa.string()),
            "n_docs": pa.array(cnt),
            "tokens": pa.array(tot),
        })

    # lang co-partition (hash of the group key, groups << partitions ok)
    def add_lkey(t: pa.Table) -> pa.Table:
        lang = t["lang"]
        from ..functions.text import fingerprint64
        return t.append_column("lk", fingerprint64(lang))

    keyed = rows.map_batches(add_lkey, batch_format="pyarrow")
    out = (partition_by(keyed, ["lk"], fit_partitions(8),
                        lambda g: admit(g.drop_columns(["lk"])), empty)
           .to_pandas().sort_values("lang").reset_index(drop=True))
    return pa.table({
        "lang": pa.array(out["lang"], type=pa.string()),
        "n_docs": pa.array(out["n_docs"].astype("int64")),
        "tokens": pa.array(out["tokens"].astype("int64")),
    })


TOKEN_BUDGET_SQL = """
WITH d AS (
  SELECT doc_id, lang,
         CAST(length(string_split(text, ' ')) AS BIGINT) AS toks,
         hash(doc_id) AS h
  FROM documents
), keep AS (
  SELECT * FROM d
  QUALIFY sum(toks) OVER (PARTITION BY lang ORDER BY h, doc_id
                          ROWS UNBOUNDED PRECEDING) <= 400
)
SELECT lang, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(toks) AS BIGINT) AS tokens
FROM keep GROUP BY 1 ORDER BY 1
"""


def bucketed_join_rollup(sf_dir: str, n_buckets: int = 8,
                         out_root: str | None = None) -> pa.Table:
    """HASH-BUCKETED CO-LOCATED JOIN -- the shuffle-free join layout for
    a key reused across many downstream stages: both tables are written
    ONCE partitioned by ``murmur64(key) % n_buckets`` (hive layout), and
    the join then runs bucket-by-bucket with ZERO exchange: every fact
    block joins against only its own bucket's dimension file, read by
    path (the strongest pruning).  Per-nation event rollup proves the
    join produced exactly the rows a plain hash join would.

    Scale shape: the bucketed write is one streaming pass per table (the
    bucket column is a vectorized hash-mod).  The join stage is an
    ACTOR-POOL map -- each actor lazily loads and caches the dimension
    buckets it actually sees (at most n_buckets small files per actor,
    amortized across all its batches), so the dimension is read
    O(actors x touched buckets) times total, never per batch, and
    nothing is broadcast.  On a real cluster the same layout serves
    every future join on this key with no repartition."""
    import shutil

    import pyarrow.parquet as pq

    from ..hashing import murmur64

    root = out_root or "/tmp/p2pdds_gate/bucketed_join"
    shutil.rmtree(root, ignore_errors=True)
    nb = np.int64(n_buckets)

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])

    def cust_bucket(t: pa.Table) -> pa.Table:
        k = pc.cast(t["c_custkey"], pa.int64()).to_numpy(
            zero_copy_only=False)
        b = (murmur64(k).view(np.int64) % nb + nb) % nb
        return pa.table({
            "c_custkey": pa.array(k),
            "c_nationkey": pc.cast(t["c_nationkey"], pa.int64()),
            "bucket": pa.array(b),
        })

    cust.map_batches(cust_bucket, batch_format="pyarrow").write_parquet(
        f"{root}/customer", partition_cols=["bucket"])

    ev = _read(sf_dir, "events", ["user_id", "value"])

    def ev_bucket(t: pa.Table) -> pa.Table:
        k = pc.cast(t["user_id"], pa.int64()).to_numpy(
            zero_copy_only=False)
        b = (murmur64(k).view(np.int64) % nb + nb) % nb
        return pa.table({
            "user_id": pa.array(k),
            "value_c": _int_units(t["value"], 100),
            "bucket": pa.array(b),
        })

    ev.map_batches(ev_bucket, batch_format="pyarrow").write_parquet(
        f"{root}/events", partition_cols=["bucket"])

    class BucketJoin:
        """Actor: joins event batches against per-bucket dim files,
        caching each loaded bucket for the actor's lifetime."""

        def __init__(self):
            self.cache: dict[int, tuple] = {}

        def _dim(self, b: int):
            if b not in self.cache:
                dt = pq.read_table(f"{root}/customer/bucket={b}",
                                   columns=["c_custkey", "c_nationkey"])
                ck = dt["c_custkey"].to_numpy()
                o = np.argsort(ck)
                self.cache[b] = (ck[o], dt["c_nationkey"].to_numpy()[o])
            return self.cache[b]

        def __call__(self, t: pa.Table) -> pa.Table:
            uid = t["user_id"].to_numpy(zero_copy_only=False)
            val = t["value_c"].to_numpy(zero_copy_only=False)
            bkt = pc.cast(t["bucket"], pa.int64()).to_numpy(
                zero_copy_only=False)
            nk = np.empty(uid.shape[0], np.int64)
            ok = np.zeros(uid.shape[0], bool)
            for b in np.unique(bkt):
                keys, nats = self._dim(int(b))
                m = bkt == b
                pos = np.searchsorted(keys, uid[m])
                pos[pos == keys.shape[0]] = 0
                hit = keys[pos] == uid[m]
                sub = np.zeros(m.sum(), np.int64)
                sub[hit] = nats[pos[hit]]
                nk[m] = sub
                okm = np.zeros(m.sum(), bool)
                okm[hit] = True
                ok[m] = okm
            return pa.table({"nationkey": pa.array(nk[ok]),
                             "value_c": pa.array(val[ok])})

    joined = ray.data.read_parquet(f"{root}/events").map_batches(
        BucketJoin, batch_format="pyarrow", concurrency=2)
    agg = (combine_agg(joined, ["nationkey"], lambda t: t,
                       [("value_c", "count"), ("value_c", "sum")],
                       named("nationkey", "n_events", "sum_value_c"))
           .to_pandas().sort_values("nationkey").reset_index(drop=True))
    return pa.table({
        "nationkey": pa.array(agg["nationkey"].astype("int64")),
        "n_events": pa.array(agg["n_events"].astype("int64")),
        "sum_value_c": pa.array(agg["sum_value_c"].astype("int64")),
    })


BUCKETED_JOIN_SQL = """
SELECT CAST(c.c_nationkey AS BIGINT) AS nationkey,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(CAST(round(e.value * 100) AS BIGINT)) AS BIGINT)
         AS sum_value_c
FROM events e JOIN customer c ON e.user_id = c.c_custkey
GROUP BY 1 ORDER BY 1
"""


def upsert_compaction(sf_dir: str) -> pa.Table:
    """CDC UPSERT COMPACTION (MERGE latest-wins): the events stream is
    treated as account-balance updates; each customer's balance is
    replaced by their LATEST event value (ties broken by event_id, the
    CDC log sequence number), customers with no updates keep the base
    value -- the compaction step every lakehouse MERGE INTO performs.
    Output: per-nation count + compacted balance total (integer cents).

    Scale shape: each update block folds to its per-key latest
    (ts, seq, value) partial -- O(block keys) rows, no sort shuffle of
    the stream -- and ONE key co-partition both finishes the argmax
    (max of a lexicographic composite is associative) and applies the
    substitution against the co-partitioned base rows: a single
    exchange end to end, moving O(keys) rows, never O(updates)."""
    from ..stages.partition import fit_partitions, partition_by

    ev = _read(sf_dir, "events", ["user_id", "ts", "event_id", "value"])

    def latest_partial(t: pa.Table) -> pa.Table:
        k = pc.cast(t["user_id"], pa.int64()).to_numpy(
            zero_copy_only=False)
        ts = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        seq = pc.cast(t["event_id"], pa.int64()).to_numpy(
            zero_copy_only=False)
        val = _int_units(t["value"], 100).to_numpy(zero_copy_only=False)
        order = np.lexsort((-seq, -ts, k))   # per key: latest first
        k_s = k[order]
        first = np.ones(order.shape[0], dtype=bool)
        first[1:] = k_s[1:] != k_s[:-1]
        sel = order[first]
        return pa.table({"k": pa.array(k[sel]), "ts": pa.array(ts[sel]),
                         "seq": pa.array(seq[sel]),
                         "val_c": pa.array(val[sel])})

    partials = ev.map_batches(latest_partial, batch_format="pyarrow",
                              zero_copy_batch=True)

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey",
                                      "c_acctbal"])

    # ONE co-partition: base rows + per-block latest partials together;
    # the partition fn resolves the exact latest AND substitutes
    base_rows = cust.map_batches(lambda t: pa.table({
        "k": pc.cast(t["c_custkey"], pa.int64()),
        "nat": pc.cast(t["c_nationkey"], pa.int64()),
        "ts": pa.array(np.zeros(t.num_rows, np.int64)),
        "seq": pa.array(np.zeros(t.num_rows, np.int64)),
        "val_c": _int_units(t["c_acctbal"], 100),
        "flag": pa.array(np.zeros(t.num_rows, np.int64)),
    }), batch_format="pyarrow")
    upd_rows = partials.map_batches(lambda t: pa.table({
        "k": pc.cast(t["k"], pa.int64()),
        "nat": pa.array(np.zeros(t.num_rows, np.int64)),
        "ts": pc.cast(t["ts"], pa.int64()),
        "seq": pc.cast(t["seq"], pa.int64()),
        "val_c": pc.cast(t["val_c"], pa.int64()),
        "flag": pa.array(np.ones(t.num_rows, np.int64)),
    }), batch_format="pyarrow")

    m_empty = pa.table({"nat": pa.array([], type=pa.int64()),
                        "bal_c": pa.array([], type=pa.int64())})

    def merge_part(t: pa.Table) -> pa.Table:
        flag = t["flag"].to_numpy(zero_copy_only=False)
        k = t["k"].to_numpy(zero_copy_only=False)
        nat = t["nat"].to_numpy(zero_copy_only=False)
        val = t["val_c"].to_numpy(zero_copy_only=False)
        isb = flag == 0
        if not isb.any():
            return m_empty
        bk, bn, bv = k[isb], nat[isb], val[isb]
        # resolve exact per-key latest among the block partials
        ts = t["ts"].to_numpy(zero_copy_only=False)[~isb]
        seq = t["seq"].to_numpy(zero_copy_only=False)[~isb]
        uk_all, uv_all = k[~isb], val[~isb]
        o = np.lexsort((-seq, -ts, uk_all))
        k_s = uk_all[o]
        first = np.ones(o.shape[0], dtype=bool)
        first[1:] = k_s[1:] != k_s[:-1]
        uk, uv = k_s[first], uv_all[o][first]   # ascending unique keys
        pos = np.searchsorted(uk, bk)
        pos[pos == uk.shape[0]] = 0
        hit = (uk[pos] == bk) if uk.shape[0] else np.zeros(
            bk.shape[0], bool)
        out_val = np.where(hit, uv[pos] if uk.shape[0] else 0, bv)
        return pa.table({"nat": pa.array(bn), "bal_c": pa.array(out_val)})

    agg = (combine_agg(partition_by(base_rows.union(upd_rows), ["k"],
                                    fit_partitions(16), merge_part, m_empty),
                       ["nat"], lambda t: t,
                       [("bal_c", "count"), ("bal_c", "sum")],
                       named("nat", "n", "bal_c"))
           .to_pandas().sort_values("nat").reset_index(drop=True))
    return pa.table({
        "nationkey": pa.array(agg["nat"].astype("int64")),
        "n_customers": pa.array(agg["n"].astype("int64")),
        "balance_c": pa.array(agg["bal_c"].astype("int64")),
    })


UPSERT_COMPACTION_SQL = """
WITH latest AS (
  SELECT user_id, CAST(round(value * 100) AS BIGINT) AS val_c
  FROM events
  QUALIFY row_number() OVER (PARTITION BY user_id
                             ORDER BY ts DESC, event_id DESC) = 1
)
SELECT CAST(c.c_nationkey AS BIGINT) AS nationkey,
       CAST(count(*) AS BIGINT) AS n_customers,
       CAST(sum(COALESCE(l.val_c,
                         CAST(round(c.c_acctbal * 100) AS BIGINT)))
            AS BIGINT) AS balance_c
FROM customer c LEFT JOIN latest l ON l.user_id = c.c_custkey
GROUP BY 1 ORDER BY 1
"""


def day_pruned_window_stats(sf_dir: str, day_lo: str = "2024-01-10",
                            day_hi: str = "2024-01-13",
                            out_root: str | None = None) -> pa.Table:
    """TIME-RANGE LAYOUT + PRUNED READ: events are written ONCE
    hive-partitioned by day; a time-window query then reads ONLY the
    overlapping day directories by path -- zero foreign bytes, the
    range-pruning counterpart of the lang-partition and hash-bucket
    layouts (the three layouts every lakehouse table chooses between).
    Output: per-type event count + value total inside [day_lo, day_hi).

    Scale shape: the layout write is one streaming pass (day is a
    vectorized epoch//86400); the window read opens len(window) day
    directories regardless of table size, and the rollup is the
    standard in-batch combiner + cardinality-bounded groupby."""
    import shutil

    import pandas as pd

    root = out_root or "/tmp/p2pdds_gate/events_by_day"
    shutil.rmtree(root, ignore_errors=True)

    ds = _read(sf_dir, "events", ["ts", "event_type", "value"])

    DAY_US = np.int64(86_400_000_000)

    def add_day(t: pa.Table) -> pa.Table:
        us = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({
            "day": pa.array(us // DAY_US),
            "event_type": t["event_type"],
            "value_c": _int_units(t["value"], 100),
        })

    ds.map_batches(add_day, batch_format="pyarrow",
                   zero_copy_batch=True).write_parquet(
        root, partition_cols=["day"])

    lo_day = int(pd.Timestamp(day_lo).value // 1000 // int(DAY_US))
    hi_day = int(pd.Timestamp(day_hi).value // 1000 // int(DAY_US))
    import glob
    import os
    files = []
    for d in range(lo_day, hi_day):   # pruned by PATH: window days only
        files.extend(sorted(glob.glob(f"{root}/day={d}/*.parquet")))
    if not files:
        return pa.table({"event_type": pa.array([], type=pa.string()),
                         "n_events": pa.array([], type=pa.int64()),
                         "sum_value_c": pa.array([], type=pa.int64())})
    window = ray.data.read_parquet(files)
    agg = (combine_agg(window, ["event_type"],
                       lambda t: t.select(["event_type", "value_c"]),
                       [("value_c", "count"), ("value_c", "sum")],
                       named("event_type", "n_events", "sum_value_c"))
           .to_pandas().sort_values("event_type").reset_index(drop=True))
    return pa.table({
        "event_type": pa.array(agg["event_type"], type=pa.string()),
        "n_events": pa.array(agg["n_events"].astype("int64")),
        "sum_value_c": pa.array(agg["sum_value_c"].astype("int64")),
    })


DAY_PRUNED_SQL = """
SELECT event_type, CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT)
         AS sum_value_c
FROM events
WHERE ts >= TIMESTAMP '2024-01-10' AND ts < TIMESTAMP '2024-01-13'
GROUP BY 1 ORDER BY 1
"""


def events_hourly_gapfill(sf_dir: str) -> pa.Table:
    """RESAMPLE WITH GAP FILL: the hourly count series per event type,
    DENSIFIED over the full calendar spine -- every (type, hour) cell in
    [min hour, max hour] is present, zero when no events landed there.
    The missing-bucket densification a time-series store performs before
    forecasting or charting (a tumbling window alone silently drops
    empty hours).

    Scale shape: the only corpus-bounded work is the (type, hour)
    counting pass (vectorized bucket partials -> cardinality-bounded
    groupby).  The spine cross-product and the zero fill operate on the
    types x hours table -- bounded by calendar time, not by data -- and
    fold on the driver like every other cardinality-bounded finalize."""
    ds = _read(sf_dir, "events", ["event_type", "ts"])

    def bucket(t: pa.Table) -> pa.Table:
        us = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({"event_type": t["event_type"],
                         "hr": us // np.int64(3_600_000_000)})

    counts = combine_agg(ds, ["event_type", "hr"], bucket, [("hr", "count")],
                         named("event_type", "hr", "n")).to_pandas()

    import pandas as pd
    lo, hi = int(counts["hr"].min()), int(counts["hr"].max())
    types = sorted(counts["event_type"].unique())
    spine = pd.MultiIndex.from_product(
        [types, range(lo, hi + 1)], names=["event_type", "hr"])
    dense = (counts.set_index(["event_type", "hr"])
             .reindex(spine, fill_value=0).reset_index())
    return pa.table({
        "event_type": pa.array(dense["event_type"], type=pa.string()),
        "window_start": pa.array(
            (dense["hr"].astype("int64") * 3600).to_numpy()),
        "n_events": pa.array(dense["n"].astype("int64")),
    })


HOURLY_GAPFILL_SQL = """
WITH c AS (
  SELECT event_type, CAST(epoch_us(ts) // 3600000000 AS BIGINT) AS hr,
         CAST(count(*) AS BIGINT) AS n
  FROM events GROUP BY 1, 2
), bounds AS (
  SELECT min(hr) AS lo, max(hr) AS hi FROM c
), hours AS (
  SELECT lo + CAST(range AS BIGINT) AS hr
  FROM bounds, range(0, 1048576)
  WHERE lo + range <= hi
), types AS (
  SELECT DISTINCT event_type FROM events
)
SELECT t.event_type, CAST(h.hr * 3600 AS BIGINT) AS window_start,
       CAST(COALESCE(c.n, 0) AS BIGINT) AS n_events
FROM hours h CROSS JOIN types t
LEFT JOIN c ON c.event_type = t.event_type AND c.hr = h.hr
ORDER BY 1, 2
"""


def pmi_bigrams_topk(sf_dir: str, k: int = 20,
                     min_count: int = 5) -> "ray.data.Dataset":
    """Collocation extraction: top-k adjacent token pairs by pointwise
    mutual information, PMI = ln(n_pair * N / (left_marginal *
    right_marginal)), scored in exact integer micro-nats (floor(ln * 1e6)
    of a deterministic double, identical op order in SQL) -- the corpus
    statistic behind phrase mining / tokenizer-merge candidates.

    Scale shape: ``combine_agg`` counts each block's adjacent (tok_a,
    tok_b) rows before the shuffle, so the exchange is bounded by the
    OBSERVED bigram vocabulary per block, not the corpus; marginals are
    derived FROM the merged pair table (one more vocab-bounded pass, no
    second corpus scan), and the final scoring/ranking input is at most
    vocab^2 rows on one partition."""
    from ..stages.partition import partition_by
    ds = _read(sf_dir, "documents", ["text"])

    def bigrams(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t["text"], pattern=" ")
        flat = pc.list_flatten(toks)
        doc = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        # a bigram position is valid unless it crosses a doc boundary
        valid = pa.array(doc[1:] == doc[:-1])
        return pa.table({"tok_a": flat.slice(0, max(len(flat) - 1, 0)),
                         "tok_b": flat.slice(1)}).filter(valid)

    agg = combine_agg(ds, ["tok_a", "tok_b"], bigrams, [("tok_b", "count")],
                      named("tok_a", "tok_b", "n"))

    out_empty = pa.table({"tok_a": pa.array([], type=pa.string()),
                          "tok_b": pa.array([], type=pa.string()),
                          "n_pair": pa.array([], type=pa.int64()),
                          "pmi_micro": pa.array([], type=pa.int64()),
                          "rnk": pa.array([], type=pa.int64())})

    def score_rank(t: pa.Table) -> pa.Table:
        # marginals on int64 fingerprints (no string round-trip of the
        # bigram table); strings materialized ONLY for the <= k + ties
        # rows that can reach the final ranking (VERDICT r3 item 3)
        from ..functions.text import fingerprint64
        if t.num_rows == 0:
            return out_empty
        n = pc.cast(t["n"], pa.int64()).to_numpy(zero_copy_only=False)
        fa = fingerprint64(t["tok_a"]).to_numpy(zero_copy_only=False)
        fb = fingerprint64(t["tok_b"]).to_numpy(zero_copy_only=False)
        total = n.sum()
        ua, ia = np.unique(fa, return_inverse=True)
        ca = np.zeros(ua.shape[0], np.int64)
        np.add.at(ca, ia, n)
        ub, ib = np.unique(fb, return_inverse=True)
        cb = np.zeros(ub.shape[0], np.int64)
        np.add.at(cb, ib, n)
        # exact int64 products, ONE double division, ln, floor -- the
        # same op order as the SQL replica (ln is bit-stable both ways)
        ratio = (n * total).astype(np.float64) / (
            ca[ia] * cb[ib]).astype(np.float64)
        pmi = np.floor(np.log(ratio) * 1e6).astype(np.int64)
        keep = np.nonzero(n >= min_count)[0]
        if keep.size == 0:
            return out_empty
        kk = min(k, keep.size)
        kth = np.partition(pmi[keep], -kk)[-kk]   # k-th largest pmi
        cand = keep[pmi[keep] >= kth]             # k + ties, tiny
        a = np.asarray(pc.take(t["tok_a"], pa.array(cand)).to_pylist(),
                       dtype=np.str_)
        b = np.asarray(pc.take(t["tok_b"], pa.array(cand)).to_pylist(),
                       dtype=np.str_)
        loc = np.lexsort((b, a, -pmi[cand]))[:k]
        rows = cand[loc]
        return pa.table({
            "tok_a": pa.array(a[loc].tolist(), type=pa.string()),
            "tok_b": pa.array(b[loc].tolist(), type=pa.string()),
            "n_pair": pa.array(n[rows]),
            "pmi_micro": pa.array(pmi[rows]),
            "rnk": pa.array(np.arange(1, rows.shape[0] + 1,
                                      dtype=np.int64)),
        })

    return partition_by(agg, [], 1, score_rank, out_empty)


PMI_BIGRAMS_SQL = """
WITH t AS (
  SELECT doc_id, string_split(text, ' ') AS xs FROM documents
), tok AS (
  SELECT doc_id, unnest(xs) AS w, generate_subscripts(xs, 1) AS i FROM t
), pairs AS (
  SELECT x.w AS tok_a, y.w AS tok_b, CAST(count(*) AS BIGINT) AS n
  FROM tok x JOIN tok y ON x.doc_id = y.doc_id AND y.i = x.i + 1
  GROUP BY 1, 2
), tot AS (
  SELECT CAST(sum(n) AS BIGINT) AS nb FROM pairs
), la AS (
  SELECT tok_a, CAST(sum(n) AS BIGINT) AS ca FROM pairs GROUP BY 1
), rb AS (
  SELECT tok_b, CAST(sum(n) AS BIGINT) AS cb FROM pairs GROUP BY 1
), scored AS (
  SELECT p.tok_a, p.tok_b, p.n AS n_pair,
         CAST(floor(ln(CAST(p.n * t.nb AS DOUBLE)
                       / CAST(la.ca * rb.cb AS DOUBLE)) * 1e6)
              AS BIGINT) AS pmi_micro
  FROM pairs p CROSS JOIN tot t
  JOIN la ON p.tok_a = la.tok_a
  JOIN rb ON p.tok_b = rb.tok_b
  WHERE p.n >= 5
)
SELECT tok_a, tok_b, n_pair, pmi_micro,
       CAST(row_number() OVER (ORDER BY pmi_micro DESC, tok_a, tok_b)
            AS BIGINT) AS rnk
FROM scored QUALIFY rnk <= 20 ORDER BY rnk
"""


def bigram_lm_by_lang(sf_dir: str) -> pa.Table:
    """BIGRAM LANGUAGE-MODEL corpus likelihood per language: train an
    MLE bigram model ON the corpus (P(b|a) = c(ab)/c(a)) and score
    every language's text under it -- the per-slice perplexity proxy a
    curation pipeline uses to find out-of-distribution slices.  Exact
    integer micro-nats: per-bigram-type score floor(ln(c_ab/c_a)*1e6)
    with identical op order in SQL, weighted by the slice's occurrence
    counts.

    Scale shape: ONE corpus scan emits (lang, fp_a, fp_b, cnt) partials
    (dictionary-encoded per block, a composite np.unique per batch, no
    per-row Python); one left-token co-partition then holds EVERY
    bigram sharing fp_a, so the global model (c_ab, c_a) and the
    per-lang weighted scores are computed in the same pass -- the model
    is never materialized anywhere, let alone on the driver.  Final
    shuffle: one (lang) groupby over O(partitions x langs) rows.
    """
    from ..functions.text import fingerprint64
    from ..stages.partition import fit_partitions, partition_by

    docs = _read(sf_dir, "documents", ["lang", "text"])

    pair_empty = pa.table({"lang": pa.array([], type=pa.string()),
                           "fpa": pa.array([], type=pa.int64()),
                           "fpb": pa.array([], type=pa.int64()),
                           "cnt": pa.array([], type=pa.int64())})

    def pair_counts(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pair_empty
        toks = pc.split_pattern(t["text"], pattern=" ")
        flat = pc.list_flatten(toks).combine_chunks()
        nper = pc.list_value_length(toks).to_numpy(
            zero_copy_only=False).astype(np.int64)
        dic = flat.dictionary_encode()
        code = dic.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        n = code.shape[0]
        if n < 2:
            return pair_empty
        vocab = np.int64(len(dic.dictionary))
        lang = t["lang"].combine_chunks() if isinstance(
            t["lang"], pa.ChunkedArray) else t["lang"]
        ldic = lang.dictionary_encode()
        lcode = np.repeat(ldic.indices.to_numpy(zero_copy_only=False)
                          .astype(np.int64), nper)
        nlang = np.int64(len(ldic.dictionary))
        valid = np.ones(n - 1, dtype=bool)
        ends = np.cumsum(nper) - 1
        ends = ends[(ends >= 0) & (ends < n - 1)]
        valid[ends] = False
        comp = (lcode[:-1][valid] * (vocab + 1)
                + code[:-1][valid]) * (vocab + 1) + code[1:][valid]
        u, cnt = np.unique(comp, return_counts=True)
        fp_dict = fingerprint64(dic.dictionary).to_numpy(
            zero_copy_only=False)
        return pa.table({
            "lang": pc.take(ldic.dictionary,
                            pa.array(u // ((vocab + 1) * (vocab + 1)))),
            "fpa": pa.array(fp_dict[(u // (vocab + 1)) % (vocab + 1)]),
            "fpb": pa.array(fp_dict[u % (vocab + 1)]),
            "cnt": pa.array(cnt.astype(np.int64)),
        })

    partials = docs.map_batches(pair_counts, batch_format="pyarrow",
                                zero_copy_batch=True)

    out_empty = pa.table({"lang": pa.array([], type=pa.string()),
                          "n": pa.array([], type=pa.int64()),
                          "lp": pa.array([], type=pa.int64())})

    def score_partition(t: pa.Table) -> pa.Table:
        # fpa co-partitioned: every bigram with this left token is
        # here, across all langs and blocks -- so c_ab, c_a and the
        # per-lang weighted sums are all computable locally
        fpa = t["fpa"].to_numpy(zero_copy_only=False)
        fpb = t["fpb"].to_numpy(zero_copy_only=False)
        cnt = t["cnt"].to_numpy(zero_copy_only=False)
        order = np.lexsort((fpb, fpa))
        fa_s, fb_s, c_s = fpa[order], fpb[order], cnt[order]
        new_ab = np.ones(fa_s.size, dtype=bool)
        new_ab[1:] = (fa_s[1:] != fa_s[:-1]) | (fb_s[1:] != fb_s[:-1])
        ab_id = np.cumsum(new_ab) - 1
        c_ab = np.bincount(ab_id, weights=c_s).astype(np.int64)
        new_a = np.ones(fa_s.size, dtype=bool)
        new_a[1:] = fa_s[1:] != fa_s[:-1]
        a_id = np.cumsum(new_a) - 1
        c_a = np.bincount(a_id, weights=c_s).astype(np.int64)
        # per-type score, same op order as SQL: CAST/CAST, ln, *1e6,
        # floor (ln is bit-stable between numpy and DuckDB)
        score = np.floor(np.log(
            c_ab.astype(np.float64) / c_a[a_id[new_ab]]
            .astype(np.float64)) * 1e6).astype(np.int64)
        return pa.table({
            "lang": pc.take(t["lang"], pa.array(order)),
            "n": pa.array(c_s),
            "lp": pa.array(c_s * score[ab_id]),
        })

    agg = (combine_agg(partition_by(partials, ["fpa"], fit_partitions(16),
                                    score_partition, out_empty),
                       ["lang"], lambda t: t, [("n", "sum"), ("lp", "sum")],
                       named("lang", "n_bigrams", "sum_lp"))
           .to_pandas().sort_values("lang"))
    return pa.table({
        "lang": pa.array(agg["lang"].tolist(), type=pa.string()),
        "n_bigrams": pa.array(agg["n_bigrams"].to_numpy(dtype=np.int64)),
        "sum_logprob_micro": pa.array(
            agg["sum_lp"].to_numpy(dtype=np.int64)),
    })


BIGRAM_LM_BY_LANG_SQL = """
WITH t AS (
  SELECT doc_id, lang, string_split(text, ' ') AS xs FROM documents
), tok AS (
  SELECT doc_id, lang, unnest(xs) AS w,
         generate_subscripts(xs, 1) AS i FROM t
), pairs_l AS (
  SELECT x.lang, x.w AS a, y.w AS b, CAST(count(*) AS BIGINT) AS n
  FROM tok x JOIN tok y ON x.doc_id = y.doc_id AND y.i = x.i + 1
  GROUP BY 1, 2, 3
), gcnt AS (
  SELECT a, b, CAST(sum(n) AS BIGINT) AS c_ab FROM pairs_l GROUP BY 1, 2
), marg AS (
  SELECT a, CAST(sum(c_ab) AS BIGINT) AS c_a FROM gcnt GROUP BY 1
), sc AS (
  SELECT gcnt.a, gcnt.b,
         CAST(floor(ln(CAST(c_ab AS DOUBLE) / CAST(c_a AS DOUBLE)) * 1e6)
              AS BIGINT) AS s
  FROM gcnt JOIN marg ON gcnt.a = marg.a
)
SELECT pairs_l.lang,
       CAST(sum(n) AS BIGINT) AS n_bigrams,
       CAST(sum(n * s) AS BIGINT) AS sum_logprob_micro
FROM pairs_l JOIN sc ON pairs_l.a = sc.a AND pairs_l.b = sc.b
GROUP BY 1 ORDER BY 1
"""


def global_order_ranks(sf_dir: str, sample_mod: int = 997,
                       n_buckets: int | None = None) -> "ray.data.Dataset":
    """EXACT global row_number over all orders by (total price, key)
    without a single-node sort: the distributed ranking primitive behind
    ORDER BY ... materializations and percentile assignment.

    Scale shape: pass 1 computes per-range-bucket row counts (per-block
    np.bincount partials -> one O(buckets) exchange) whose prefix sums
    give each bucket its global rank offset -- the driver only ever
    holds O(buckets) integers; pass 2 co-partitions rows by range
    bucket, lexsorts WITHIN each bucket (composite (price_cents, key) is
    a total order), and adds the broadcast offset.  Rank assignment is
    therefore one cheap count pass plus one range exchange; at 100 TB
    raise n_buckets so each bucket fits a worker (the count pass cost
    stays O(buckets)).  The gate emits every ``sample_mod``-th rank plus
    the first/last rows, proving the global numbering end to end."""
    from ray.data.aggregate import Max as _Max, Min as _Min
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "key": pc.cast(t["o_orderkey"], pa.int64()),
            "cents": _int_units(t["o_totalprice"], 100),
        })

    rows = ds.map_batches(prep, batch_format="pyarrow",
                          zero_copy_batch=True)
    mm = rows.aggregate(_Min("cents"), _Max("cents"))
    lo, hi = int(mm["min(cents)"]), int(mm["max(cents)"])
    from ..stages.partition import fit_partitions
    nb = n_buckets or fit_partitions(32)
    width = max(1, (hi - lo + nb) // nb)

    def bucket_of(cents: np.ndarray) -> np.ndarray:
        return np.minimum((cents - lo) // width, nb - 1)

    def add_bucket(t: pa.Table) -> pa.Table:
        c = t["cents"].to_numpy(zero_copy_only=False)
        return t.append_column("b", pa.array(bucket_of(c)))

    counts = combine_agg(rows, ["b"],
                         lambda t: add_bucket(t).select(["b"]),
                         [("b", "count")], named("b", "n")).to_pandas()
    per_bucket = np.zeros(nb, dtype=np.int64)
    per_bucket[counts["b"].to_numpy()] = counts["n"].to_numpy()
    offsets = np.concatenate(([0], np.cumsum(per_bucket)[:-1]))
    total = int(per_bucket.sum())

    empty = pa.table({"rnk": pa.array([], type=pa.int64()),
                      "o_orderkey": pa.array([], type=pa.int64()),
                      "price_cents": pa.array([], type=pa.int64())})

    def rank_within(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        b = int(t["b"][0].as_py())
        c = t["cents"].to_numpy(zero_copy_only=False)
        k = t["key"].to_numpy(zero_copy_only=False)
        order = np.lexsort((k, c))
        rnk = offsets[b] + 1 + np.arange(order.shape[0], dtype=np.int64)
        sel = (rnk % sample_mod == 0) | (rnk == 1) | (rnk == total)
        return pa.table({"rnk": pa.array(rnk[sel]),
                         "o_orderkey": pa.array(k[order][sel]),
                         "price_cents": pa.array(c[order][sel])})

    return (rows.map_batches(add_bucket, batch_format="pyarrow")
            .groupby("b").map_groups(rank_within, batch_format="pyarrow")
            .sort("rnk"))


GLOBAL_RANKS_SQL = """
WITH r AS (
  SELECT o_orderkey,
         CAST(round(o_totalprice * 100) AS BIGINT) AS price_cents,
         CAST(row_number() OVER (ORDER BY round(o_totalprice * 100),
                                 o_orderkey) AS BIGINT) AS rnk
  FROM orders
)
SELECT rnk, o_orderkey, price_cents FROM r
WHERE rnk % 997 = 0 OR rnk = 1 OR rnk = (SELECT count(*) FROM orders)
ORDER BY rnk
"""


def nearest_centroid_confusion(sf_dir: str) -> "ray.data.Dataset":
    """Nearest-centroid classification of every embedding against its
    own corpus' per-label centroids, reported as the (true label,
    predicted label) confusion matrix with exact integer squared
    distances -- the cluster-assignment / lightweight-classifier stage
    of an embedding pipeline, end to end in two passes.

    Determinism: vectors and centroids are quantized to milli-units
    (floor(x*1000 + 0.5); the centroid mean uses ONE float64 division +
    the same floor, bit-stable across engines), so distances are pure
    int64 sums of squares and the argmin (tie: smaller label) is exact.

    Scale shape: pass 1 is the label_centroids partial pattern --
    O(blocks x labels x dim) integer rows, with only the final
    O(labels x dim) table leaving the cluster; the centroid matrix is
    ray.put ONCE and fetched per task, never per batch; pass 2 streams,
    computing per-batch distances with one (n, L, d) vectorized
    expansion (swap in a matmul expansion when L x d grows) and folds
    to per-(label, pred) partials, so the final exchange is O(L^2)
    rows per block."""
    from ..functions.vectors import list_to_matrix

    ds = _read(sf_dir, "embeddings", ["vec_id", "label", "embedding"])

    cent_tbl = combine_agg(ds, ["label", "dim"],
                           lambda t: _label_dim_units(t, 1000.0),
                           [("units", "count"), ("units", "sum")],
                           named("label", "dim", "n", "s")).to_pandas()
    labels = np.sort(cent_tbl["label"].unique()).astype(np.int64)
    n_dim = int(cent_tbl["dim"].max()) + 1
    lpos = {int(l): i for i, l in enumerate(labels)}
    sums = np.zeros((labels.shape[0], n_dim), dtype=np.int64)
    cnts = np.zeros(labels.shape[0], dtype=np.int64)
    for row in cent_tbl.itertuples():
        i = lpos[int(row.label)]
        sums[i, int(row.dim)] = int(row.s)
        cnts[i] = int(row.n)
    # ONE float64 division + floor: identical op order to the SQL
    cent_milli = np.floor(sums / cnts[:, None].astype(np.float64)
                          + 0.5).astype(np.int64)
    cent_ref = ray.put((labels, cent_milli))

    def assign(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"label": pa.array([], type=pa.int64()),
                             "pred": pa.array([], type=pa.int64()),
                             "d2": pa.array([], type=pa.int64())})
        labs, cm = ray.get(cent_ref)
        mat = list_to_matrix(t["embedding"], dtype=np.float64)
        x = np.floor(mat * 1000.0 + 0.5).astype(np.int64)
        diff = x[:, None, :] - cm[None, :, :]
        d2 = np.einsum("nld,nld->nl", diff, diff)
        best = np.argmin(d2, axis=1)  # first minimum = smallest label
        return pa.table({
            "label": pa.array(
                t["label"].to_numpy(zero_copy_only=False).astype(np.int64)),
            "pred": pa.array(labs[best]),
            "d2": pa.array(d2[np.arange(d2.shape[0]), best])})

    return combine_agg(ds, ["label", "pred"], assign,
                       [("d2", "count"), ("d2", "sum")],
                       named("label", "pred", "n", "sum_d2")
                       ).sort(["label", "pred"])


NEAREST_CENTROID_SQL = """
WITH nums AS (
  SELECT CAST(range AS BIGINT) AS i FROM range(1, 4097)
), q AS (
  SELECT vec_id, CAST(label AS BIGINT) AS label,
         CAST(i - 1 AS BIGINT) AS dim,
         CAST(floor(CAST(embedding[i] AS DOUBLE) * 1000.0 + 0.5)
              AS BIGINT) AS x
  FROM embeddings JOIN nums ON nums.i <= len(embedding)
), csum AS (
  SELECT label, dim, CAST(sum(x) AS BIGINT) AS s,
         CAST(count(*) AS BIGINT) AS c
  FROM q GROUP BY 1, 2
), cent AS (
  SELECT label AS clabel, dim,
         CAST(floor(CAST(s AS DOUBLE) / CAST(c AS DOUBLE) + 0.5)
              AS BIGINT) AS cm
  FROM csum
), dist AS (
  SELECT q.vec_id, q.label, cent.clabel,
         CAST(sum((q.x - cent.cm) * (q.x - cent.cm)) AS BIGINT) AS d2
  FROM q JOIN cent ON q.dim = cent.dim
  GROUP BY 1, 2, 3
), best AS (
  SELECT vec_id, label, clabel AS pred, d2,
         row_number() OVER (PARTITION BY vec_id
                            ORDER BY d2, clabel) AS r
  FROM dist
)
SELECT label, pred, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(d2) AS BIGINT) AS sum_d2
FROM best WHERE r = 1 GROUP BY 1, 2 ORDER BY 1, 2
"""


def knn_batch_queries(sf_dir: str, n_queries: int = 8,
                      k: int = 10) -> "ray.data.Dataset":
    """Batched multi-query KNN join: top-k cosine neighbors for a SET of
    query vectors in ONE corpus pass (the retrieval building block for
    embedding-dedup verification and RAG backfills; the single-query
    baseline is ``knn_cosine_topk``).

    Scale shape: the query matrix is unit-normalized once and broadcast
    via ray.put (never re-shipped per batch); each batch runs ONE
    (n x d) @ (d x Q) float64 matmul for all queries simultaneously and
    prereduces to its block-local top-k per query, so the exchange is
    O(Q x k x blocks) rows; a single vocab-sized final partition
    finishes the ranking.  At a 10^12-row corpus the same shape holds
    -- batch the queries in groups sized so n x Q score matrices fit
    the worker heap."""
    import pyarrow.parquet as pq
    from ..functions.vectors import list_to_matrix
    from ..stages.partition import partition_by

    emb = pq.read_table(f"{sf_dir}/embeddings.parquet",
                        columns=["vec_id", "embedding"])
    qrows = emb.filter(pc.less(emb["vec_id"], n_queries))
    qids = qrows["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(qids)
    qmat = list_to_matrix(qrows["embedding"], dtype=np.float64)[order]
    qids = qids[order]
    qmat = qmat / np.linalg.norm(qmat, axis=1)[:, None]
    q_ref = ray.put((qids, qmat))

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    empty = pa.table({"qid": pa.array([], type=pa.int64()),
                      "vec_id": pa.array([], type=pa.int64()),
                      "cos_sim": pa.array([], type=pa.float64())})

    def score_local_topk(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        ids, qm = ray.get(q_ref)
        mat = list_to_matrix(t["embedding"])
        norms = np.linalg.norm(mat, axis=1)
        norms[norms == 0] = 1.0
        sims = (mat @ qm.T) / norms[:, None]          # (n, Q)
        sims = np.round(sims, 4)
        vid = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        nq = ids.shape[0]
        kk = min(k, sims.shape[0])
        # block-local top-k per query: one argpartition per column
        part = np.argpartition(-sims, kk - 1, axis=0)[:kk]   # (kk, Q)
        rows = part.T.ravel()
        qcol = np.repeat(ids, kk)
        return pa.table({
            "qid": pa.array(qcol),
            "vec_id": pa.array(vid[rows]),
            "cos_sim": pa.array(sims[rows, np.repeat(
                np.arange(nq), kk)], type=pa.float64()),
        })

    out_empty = pa.table({"qid": pa.array([], type=pa.int64()),
                          "vec_id": pa.array([], type=pa.int64()),
                          "cos_sim": pa.array([], type=pa.float64()),
                          "rnk": pa.array([], type=pa.int64())})

    def final_rank(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_empty
        qid = t["qid"].to_numpy(zero_copy_only=False)
        vid = t["vec_id"].to_numpy(zero_copy_only=False)
        sim = t["cos_sim"].to_numpy(zero_copy_only=False)
        order = np.lexsort((vid, -sim, qid))
        q_s = qid[order]
        new_q = np.ones(order.shape[0], dtype=bool)
        new_q[1:] = q_s[1:] != q_s[:-1]
        starts = np.nonzero(new_q)[0]
        first = np.repeat(starts, np.diff(np.append(starts,
                                                    order.shape[0])))
        rank = np.arange(order.shape[0]) - first
        sel = rank < k
        keep = order[sel]
        return pa.table({"qid": pa.array(qid[keep]),
                         "vec_id": pa.array(vid[keep]),
                         "cos_sim": pa.array(sim[keep]),
                         "rnk": pa.array(rank[sel] + 1)})

    scored = ds.map_batches(score_local_topk, batch_format="pyarrow",
                            zero_copy_batch=True)
    return partition_by(scored, [], 1, final_rank,
                        out_empty).sort(["qid", "rnk"])


KNN_BATCH_SQL = """
WITH q AS (
  SELECT vec_id AS qid,
         list_transform(embedding, x -> CAST(x AS DOUBLE)) AS qv
  FROM embeddings WHERE vec_id < 8
), scored AS (
  SELECT q.qid, e.vec_id,
         round(list_cosine_similarity(
             list_transform(e.embedding, x -> CAST(x AS DOUBLE)),
             q.qv), 4) AS cos_sim
  FROM embeddings e CROSS JOIN q
), ranked AS (
  SELECT qid, vec_id, cos_sim,
         CAST(row_number() OVER (PARTITION BY qid
                                 ORDER BY cos_sim DESC, vec_id)
              AS BIGINT) AS rnk
  FROM scored
)
SELECT qid, vec_id, cos_sim, rnk FROM ranked
WHERE rnk <= 10 ORDER BY qid, rnk
"""


def incremental_dedup_stats(sf_dir: str, hash_tier: str = "fp64",
                            n_buckets: int = 8,
                            root: str | None = None) -> "ray.data.Dataset":
    """INCREMENTAL ingest dedup: new documents are checked against a
    PERSISTED content-hash index of the existing corpus -- the steady-
    state production flow (a crawl delta lands daily; re-hashing the
    whole historical corpus per delta would be O(history) instead of
    O(delta)).  History here is the even-doc_id half of the table, the
    incoming delta the odd half; output is the per-lang admission
    report (incoming, duplicate, admitted).

    Scale shape: the index is built ONCE as hash-bucketed parquet (one
    streaming pass over history, hive partition write, no shuffle) and
    amortizes over every future delta; the probe is an ACTOR-POOL stage
    whose actors lazily cache only the buckets their batches touch
    (O(actors x touched buckets) index reads total, never per batch);
    membership is a sorted-array searchsorted per batch.  ``hash_tier``
    follows the exact-dedup convention: 'fp64' (vectorized rolling
    hash) is the 100 TB default, 'md5' the SQL-replicable oracle tier
    the driver pins."""
    import shutil

    import pyarrow.parquet as pq

    from ..functions.text import fingerprint64
    from ..hashing import md5_hex, md5_uint64

    root = root or "/tmp/p2pdds_gate/incremental_dedup"
    shutil.rmtree(root, ignore_errors=True)
    nb = np.uint64(n_buckets)

    def keys_of(texts: pa.ChunkedArray | pa.Array):
        """(sortable key array, bucket int64 array) for a text column."""
        if hash_tier == "md5":
            hx = np.asarray(md5_hex(texts), dtype=np.str_)
            bkt = (md5_uint64(texts) % nb).astype(np.int64)
            return hx, bkt
        fp = np.asarray(fingerprint64(pa.array(
            texts.combine_chunks() if isinstance(texts, pa.ChunkedArray)
            else texts)))
        return fp, (fp % nb).astype(np.int64)

    docs = _read(sf_dir, "documents", ["doc_id", "lang", "text"])

    idx_empty = pa.table({"key": pa.array(
        [], type=pa.string() if hash_tier == "md5" else pa.uint64()),
        "bucket": pa.array([], type=pa.int64())})

    def history_keys(t: pa.Table) -> pa.Table:
        did = t["doc_id"].to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(did % 2 == 0))
        if t.num_rows == 0:
            return idx_empty
        key, bkt = keys_of(t["text"])
        return pa.table({"key": pa.array(key), "bucket": pa.array(bkt)})

    (docs.map_batches(history_keys, batch_format="pyarrow",
                      zero_copy_batch=True)
     .write_parquet(root, partition_cols=["bucket"]))

    out_empty = pa.table({"lang": pa.array([], type=pa.string()),
                          "dup": pa.array([], type=pa.int64())})

    class IndexProbe:
        """Actor: membership probe against per-bucket index files,
        each loaded and sorted once per actor lifetime."""

        def __init__(self):
            self.cache: dict[int, np.ndarray] = {}

        def _bucket(self, b: int) -> np.ndarray:
            if b not in self.cache:
                try:
                    kt = pq.read_table(f"{root}/bucket={b}",
                                       columns=["key"])
                    arr = kt["key"].to_numpy(zero_copy_only=False)
                    if hash_tier == "md5":
                        arr = np.asarray(arr, dtype=np.str_)
                    self.cache[b] = np.sort(arr)
                except FileNotFoundError:
                    self.cache[b] = np.array(
                        [], dtype=np.str_ if hash_tier == "md5"
                        else np.uint64)
            return self.cache[b]

        def __call__(self, t: pa.Table) -> pa.Table:
            did = t["doc_id"].to_numpy(zero_copy_only=False)
            t = t.filter(pa.array(did % 2 == 1))
            if t.num_rows == 0:
                return out_empty
            key, bkt = keys_of(t["text"])
            dup = np.zeros(t.num_rows, dtype=bool)
            for b in np.unique(bkt):
                hist = self._bucket(int(b))
                m = bkt == b
                if hist.shape[0]:
                    pos = np.searchsorted(hist, key[m])
                    pos[pos == hist.shape[0]] = 0
                    dup[m] = hist[pos] == key[m]
            return pa.table({"lang": t["lang"],
                             "dup": pa.array(dup.astype(np.int64))})

    def finalize(t: pa.Table) -> pa.Table:
        n, d = t["dup_count"], t["dup_sum"]
        return pa.table({"lang": t["lang"], "n_incoming": n,
                         "n_dup": d,
                         "n_admitted": pc.subtract(n, d)})

    return combine_agg(docs.map_batches(IndexProbe, batch_format="pyarrow",
                                        zero_copy_batch=True, concurrency=2),
                       ["lang"], lambda t: t,
                       [("dup", "count"), ("dup", "sum")],
                       finalize).sort("lang")


INCREMENTAL_DEDUP_SQL = """
WITH hist AS (
  SELECT md5(text) AS h FROM documents WHERE doc_id % 2 = 0
), inc AS (
  SELECT lang, md5(text) AS h FROM documents WHERE doc_id % 2 = 1
)
SELECT lang, CAST(count(*) AS BIGINT) AS n_incoming,
       CAST(sum(CASE WHEN h IN (SELECT h FROM hist)
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_dup,
       CAST(sum(CASE WHEN h IN (SELECT h FROM hist)
                     THEN 0 ELSE 1 END) AS BIGINT) AS n_admitted
FROM inc GROUP BY 1 ORDER BY 1
"""


def compact_small_files_stats(sf_dir: str, n_fragments: int = 64,
                              n_compacted: int = 4,
                              root: str | None = None) -> "ray.data.Dataset":
    """Small-file COMPACTION -- the table-maintenance pass every
    streaming ingest needs: a directory of many tiny parquet files
    (one per micro-batch) is rewritten into a few right-sized files,
    and the per-type rollup computed from the COMPACTED copy proves
    the rewrite lost and duplicated nothing.

    Scale shape: both the fragmented write and the compaction are
    streaming passes; compaction is a repartition to the target file
    count (in production: partition-directory-at-a-time, so each
    compaction job touches one partition's files and the table stays
    queryable throughout -- the resumable-output layout in
    state/resume_write.py provides exactly that isolation)."""
    import shutil

    root = root or "/tmp/p2pdds_gate/compaction"
    shutil.rmtree(root, ignore_errors=True)

    ev = _read(sf_dir, "events", ["event_type", "value"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"event_type": t["event_type"],
                         "val_c": _int_units(t["value"], 100)})

    # fragmented ingest: many tiny files
    (ev.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
       .repartition(n_fragments).write_parquet(f"{root}/fragmented"))

    # compaction: coalesce to the target file count
    frag = ray.data.read_parquet(f"{root}/fragmented")
    frag.repartition(n_compacted).write_parquet(f"{root}/compacted")

    comp = ray.data.read_parquet(f"{root}/compacted")
    return combine_agg(comp, ["event_type"], lambda t: t,
                       [("val_c", "count"), ("val_c", "sum")],
                       named("event_type", "n_events", "sum_value_cents")
                       ).sort("event_type")


COMPACTION_SQL = """
SELECT event_type, CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT)
           AS sum_value_cents
FROM events GROUP BY 1 ORDER BY 1
"""


def zscore_outlier_counts(sf_dir: str, k_sigma: int = 3) -> "ray.data.Dataset":
    """Sufficient-statistics outlier detection: per event type, how many
    events sit more than ``k_sigma`` population standard deviations from
    that type's mean -- the data-quality flagging pass, composed as
    moments pass -> broadcast -> streaming integer-compare flag pass
    (the same two-pass shape as the sketch-threshold pipelines).

    Determinism: the test |x - mean| > k*sigma is evaluated as
    (c*n - S)^2 > k^2 * (n*Q - S^2) with c = value cents, S = sum(c),
    Q = sum(c^2) -- all int64 at testdata magnitudes, so no root, no
    division, no float crosses an engine boundary."""
    ev = _read(sf_dir, "events", ["event_type", "value"])

    def moments(t: pa.Table) -> pa.Table:
        c = _int_units(t["value"], 100)
        return pa.table({"event_type": t["event_type"], "c": c,
                         "c2": pc.multiply(c, c)})

    mom = combine_agg(ev, ["event_type"], moments,
                      [("c", "count"), ("c", "sum"), ("c2", "sum")],
                      named("event_type", "n", "s", "q")).to_pandas()
    stats = {r.event_type: (int(r.n), int(r.s), int(r.q))
             for r in mom.itertuples()}
    stats_ref = ray.put(stats)
    kk = np.int64(k_sigma * k_sigma)

    def flag_partial(t: pa.Table) -> pa.Table:
        st = ray.get(stats_ref)
        c = _int_units(t["value"], 100).to_numpy(zero_copy_only=False)
        et = np.asarray(t["event_type"].to_pylist(), dtype=np.str_)
        ue, inv = np.unique(et, return_inverse=True)
        n_arr = np.array([st[e][0] for e in ue], dtype=np.int64)[inv]
        s_arr = np.array([st[e][1] for e in ue], dtype=np.int64)[inv]
        q_arr = np.array([st[e][2] for e in ue], dtype=np.int64)[inv]
        lhs = (c * n_arr - s_arr) ** 2
        rhs = kk * (n_arr * q_arr - s_arr * s_arr)
        return pa.table({"event_type": t["event_type"],
                         "out": (lhs > rhs).astype(np.int64)})

    return combine_agg(ev, ["event_type"], flag_partial,
                       [("out", "count"), ("out", "sum")],
                       named("event_type", "n_events", "n_outliers")
                       ).sort("event_type")


ZSCORE_OUTLIER_SQL = """
WITH v AS (
  SELECT event_type,
         CAST(round(value * 100) AS BIGINT) AS c
  FROM events
), m AS (
  SELECT event_type, CAST(count(*) AS BIGINT) AS n,
         CAST(sum(c) AS BIGINT) AS s,
         CAST(sum(c * c) AS BIGINT) AS q
  FROM v GROUP BY 1
)
SELECT v.event_type, m.n AS n_events,
       CAST(sum(CASE WHEN (v.c * m.n - m.s) * (v.c * m.n - m.s)
                          > 9 * (m.n * m.q - m.s * m.s)
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_outliers
FROM v JOIN m USING (event_type)
GROUP BY 1, 2 ORDER BY 1
"""


def value_histogram_by_type(sf_dir: str,
                            n_bins: int = 20) -> "ray.data.Dataset":
    """Distribution profiling: exact equi-width histogram of event value
    per event type (the profiler behind data drift dashboards and
    DDSketch sanity checks), with integer cent bounds so binning is
    deterministic.

    Scale shape: one Min/Max scalar pass fixes the global bin grid
    (O(1) driver state); the count pass folds each block to
    O(types x bins) partials before the shuffle.  Bin edges shared
    across groups make per-type histograms directly comparable."""
    from ray.data.aggregate import Max as _Max, Min as _Min
    ev = _read(sf_dir, "events", ["event_type", "value"])

    def cents_tbl(t: pa.Table) -> pa.Table:
        return pa.table({"event_type": t["event_type"],
                         "c": _int_units(t["value"], 100)})

    rows = ev.map_batches(cents_tbl, batch_format="pyarrow",
                          zero_copy_batch=True)
    mm = rows.aggregate(_Min("c"), _Max("c"))
    lo, hi = int(mm["min(c)"]), int(mm["max(c)"])
    width = max(1, (hi - lo + n_bins) // n_bins)

    def binned(t: pa.Table) -> pa.Table:
        c = t["c"].to_numpy(zero_copy_only=False)
        return pa.table({"event_type": t["event_type"],
                         "bin": np.minimum((c - lo) // width, n_bins - 1)})

    def finalize(t: pa.Table) -> pa.Table:
        b = t["bin"].to_numpy(zero_copy_only=False)
        return pa.table({
            "event_type": t["event_type"],
            "bin": t["bin"],
            "bin_lo_cents": pa.array(lo + b * width),
            "n": t["bin_count"],
        })

    return combine_agg(rows, ["event_type", "bin"], binned,
                       [("bin", "count")], finalize
                       ).sort(["event_type", "bin"])


VALUE_HISTOGRAM_SQL = """
WITH v AS (
  SELECT event_type, CAST(round(value * 100) AS BIGINT) AS c FROM events
), mm AS (
  SELECT min(c) AS lo, max(c) AS hi FROM v
), g AS (
  SELECT lo, greatest(1, (hi - lo + 20) // 20) AS w FROM mm
)
SELECT v.event_type,
       least((v.c - g.lo) // g.w, 19) AS bin,
       CAST(g.lo + least((v.c - g.lo) // g.w, 19) * g.w AS BIGINT)
           AS bin_lo_cents,
       CAST(count(*) AS BIGINT) AS n
FROM v CROSS JOIN g
GROUP BY 1, 2, 3 ORDER BY 1, 2
"""


def salted_join_rollup(sf_dir: str, n_salts: int = 4) -> "ray.data.Dataset":
    """HOT-KEY-PROOF salted hash join: the fact side's join key is
    extended with a deterministic per-row salt and the dimension side is
    replicated once per salt value, so a single pathological key (one
    user producing 10% of a 100 TB event stream) spreads across
    ``n_salts`` shuffle partitions instead of melting one reducer.  The
    output is bit-identical to the unsalted join (the salt only routes;
    every fact row still meets exactly one dim replica).

    Scale shape: replication cost is O(dim x n_salts) -- cheap because
    the dim side is the small one -- and the exchange gains n_salts-way
    spread on every key, hot or not.  Salt from a hash of the fact ROW
    id (not the join key), so even a single-key stream distributes.
    Per-nation rollup proves equivalence against the plain-join
    oracle."""
    from ..hashing import murmur64

    ns = np.int64(n_salts)
    ev = _read(sf_dir, "events", ["event_id", "user_id", "value"])

    def fact_salt(t: pa.Table) -> pa.Table:
        eid = pc.cast(t["event_id"], pa.int64()).to_numpy(
            zero_copy_only=False)
        salt = (murmur64(eid).view(np.int64) % ns + ns) % ns
        return pa.table({
            "k": pc.cast(t["user_id"], pa.int64()),
            "salt": pa.array(salt),
            "val_c": _int_units(t["value"], 100),
        })

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])

    def dim_replicate(t: pa.Table) -> pa.Table:
        k = pc.cast(t["c_custkey"], pa.int64()).to_numpy(
            zero_copy_only=False)
        nat = pc.cast(t["c_nationkey"], pa.int64()).to_numpy(
            zero_copy_only=False)
        n = k.shape[0]
        return pa.table({
            "k": pa.array(np.repeat(k, n_salts)),
            "salt": pa.array(np.tile(np.arange(n_salts, dtype=np.int64),
                                     n)),
            "nat": pa.array(np.repeat(nat, n_salts)),
        })

    fact = ev.map_batches(fact_salt, batch_format="pyarrow",
                          zero_copy_batch=True)
    dim = cust.map_batches(dim_replicate, batch_format="pyarrow",
                           zero_copy_batch=True)
    joined = fact.join(dim, join_type="inner", num_partitions=8,
                       on=("k", "salt"))

    return combine_agg(joined, ["nat"], lambda t: t,
                       [("val_c", "count"), ("val_c", "sum")],
                       named("nation", "n_events", "sum_value_cents")
                       ).sort("nation")


SALTED_JOIN_SQL = """
SELECT CAST(c_nationkey AS BIGINT) AS nation,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT)
           AS sum_value_cents
FROM events JOIN customer ON user_id = c_custkey
GROUP BY 1 ORDER BY 1
"""


def lang_source_chi2(sf_dir: str) -> "ray.data.Dataset":
    """Chi-square independence signal for the (lang, source)
    contingency table -- the statistical drift check behind "did this
    crawl batch change the language mix per source?".  Each cell
    reports its chi-square contribution in exact integer micro-units:
    contrib = (O*N - R*C)^2 * 1e6 // (N * R * C), where O is the cell
    count, R/C the row/column marginals and N the total (all int64 at
    corpus-profile magnitudes; the squared numerator is the same
    cross-product trick the KS drift monitor uses).

    Scale shape: one pass folds blocks to O(langs x sources) partial
    counts; marginals and contributions derive from the merged table on
    one partition (contingency tables are tiny by construction)."""
    from ..stages.partition import partition_by
    ds = _read(sf_dir, "documents", ["lang", "source"])
    agg = combine_agg(ds, ["lang", "source"], lambda t: t,
                      [("source", "count")], named("lang", "source", "n"))

    out_empty = pa.table({"lang": pa.array([], type=pa.string()),
                          "source": pa.array([], type=pa.string()),
                          "n": pa.array([], type=pa.int64()),
                          "chi2_micro": pa.array([], type=pa.int64())})

    def contrib(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_empty
        n = pc.cast(t["n"], pa.int64()).to_numpy(zero_copy_only=False)
        lang = np.asarray(t["lang"].to_pylist(), dtype=np.str_)
        src = np.asarray(t["source"].to_pylist(), dtype=np.str_)
        total = n.sum()
        ul, li = np.unique(lang, return_inverse=True)
        us, si = np.unique(src, return_inverse=True)
        rmarg = np.zeros(ul.shape[0], np.int64)
        np.add.at(rmarg, li, n)
        cmarg = np.zeros(us.shape[0], np.int64)
        np.add.at(cmarg, si, n)
        # exact 128-bit-wide arithmetic on the tiny contingency table:
        # Python ints here, HUGEINT in the SQL twin (the micro-scaled
        # numerator overflows int64 beyond ~5k docs)
        diff = [int(n[i]) * int(total)
                - int(rmarg[li[i]]) * int(cmarg[si[i]])
                for i in range(n.shape[0])]
        chi = np.array(
            [d * d * 1_000_000
             // (int(total) * int(rmarg[li[i]]) * int(cmarg[si[i]]))
             for i, d in enumerate(diff)], dtype=np.int64)
        return pa.table({
            "lang": t["lang"], "source": t["source"],
            "n": pa.array(n), "chi2_micro": pa.array(chi),
        })

    return partition_by(agg, [], 1, contrib,
                        out_empty).sort(["lang", "source"])


LANG_SOURCE_CHI2_SQL = """
WITH c AS (
  SELECT lang, source, CAST(count(*) AS BIGINT) AS n
  FROM documents GROUP BY 1, 2
), tot AS (
  SELECT CAST(sum(n) AS BIGINT) AS t FROM c
), r AS (
  SELECT lang, CAST(sum(n) AS BIGINT) AS rm FROM c GROUP BY 1
), s AS (
  SELECT source, CAST(sum(n) AS BIGINT) AS cm FROM c GROUP BY 1
)
SELECT c.lang, c.source, c.n,
       CAST(CAST(c.n * tot.t - r.rm * s.cm AS HUGEINT)
            * (c.n * tot.t - r.rm * s.cm)
            * 1000000 // (tot.t * r.rm * s.cm) AS BIGINT) AS chi2_micro
FROM c CROSS JOIN tot
JOIN r ON c.lang = r.lang
JOIN s ON c.source = s.source
ORDER BY 1, 2
"""


def sequence_packing_stats(sf_dir: str,
                           seq_len: int = 2048) -> pa.Table:
    """TRAINING-SEQUENCE PACKING accounting: documents are laid out in
    deterministic hash order per language and split-packed into fixed
    ``seq_len``-token training sequences (the GPT-style "concatenate
    and chunk" packing); per language this reports total tokens, the
    number of sequences produced, and how many documents straddle a
    sequence boundary -- the numbers a data-loader needs before any
    tokenizer runs at scale.

    Scale shape: one text pass emits (lang, doc_id, tokens, hash) rows
    (text never leaves the map stage); languages co-partition and ONE
    segmented cumsum in hash order yields every document's token
    interval, from which boundary straddles are a floor-division
    compare.  For a language too big for one partition, the same
    hash-range bucket + O(buckets) prefix-offset pass used by
    global_order_ranks extends the cumsum exactly."""
    from ..hashing import murmur64
    from ..stages.partition import fit_partitions, partition_by

    docs = _read(sf_dir, "documents", ["doc_id", "lang", "text"])
    L = np.int64(seq_len)

    def meta(t: pa.Table) -> pa.Table:
        toks = pc.list_value_length(
            pc.split_pattern(t["text"], pattern=" "))
        ids = pc.cast(t["doc_id"], pa.int64()).to_numpy(
            zero_copy_only=False)
        from ..functions.text import fingerprint64
        return pa.table({
            "doc_id": pa.array(ids),
            "lang": t["lang"],
            "toks": pc.cast(toks, pa.int64()),
            "h": pa.array(murmur64(ids).view(np.int64)),
            "lk": fingerprint64(t["lang"]),
        })

    rows = docs.map_batches(meta, batch_format="pyarrow",
                            zero_copy_batch=True)

    empty = pa.table({"lang": pa.array([], type=pa.string()),
                      "total_toks": pa.array([], type=pa.int64()),
                      "n_seqs": pa.array([], type=pa.int64()),
                      "n_split_docs": pa.array([], type=pa.int64())})

    def pack(t: pa.Table) -> pa.Table:
        lang = np.asarray(t["lang"].to_pylist(), dtype=np.str_)
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        nt = t["toks"].to_numpy(zero_copy_only=False)
        h = t["h"].to_numpy(zero_copy_only=False).view(np.uint64)
        order = np.lexsort((ids, h, lang))
        l_s, n_s = lang[order], nt[order]
        new_grp = np.ones(order.shape[0], dtype=bool)
        new_grp[1:] = l_s[1:] != l_s[:-1]
        csum = np.cumsum(n_s)
        starts = np.nonzero(new_grp)[0]
        rlen = np.diff(np.append(starts, order.shape[0]))
        base = np.repeat(np.where(starts > 0, csum[starts - 1], 0),
                         rlen)
        cum = csum - base              # per-lang running token total
        lo = cum - n_s                 # doc interval is (lo, cum]
        split = (cum - 1) // L > lo // L
        ul = l_s[starts]
        tot = cum[np.append(starts[1:] - 1, order.shape[0] - 1)]
        nsplit = np.zeros(ul.shape[0], np.int64)
        seg = np.repeat(np.arange(ul.shape[0]), rlen)
        np.add.at(nsplit, seg, split.astype(np.int64))
        return pa.table({
            "lang": pa.array(ul.tolist(), type=pa.string()),
            "total_toks": pa.array(tot),
            "n_seqs": pa.array((tot + L - 1) // L),
            "n_split_docs": pa.array(nsplit),
        })

    out = (partition_by(rows, ["lk"], fit_partitions(8),
                        lambda g: pack(g.drop_columns(["lk"])), empty)
           .to_pandas().sort_values("lang").reset_index(drop=True))
    return pa.table({
        "lang": pa.array(out["lang"], type=pa.string()),
        "total_toks": pa.array(out["total_toks"].astype("int64")),
        "n_seqs": pa.array(out["n_seqs"].astype("int64")),
        "n_split_docs": pa.array(out["n_split_docs"].astype("int64")),
    })


SEQUENCE_PACKING_SQL = """
WITH d AS (
  SELECT lang, doc_id,
         CAST(len(string_split(text, ' ')) AS BIGINT) AS toks,
         hash(doc_id) AS h
  FROM documents
), r AS (
  SELECT lang, toks,
         sum(toks) OVER (PARTITION BY lang ORDER BY h, doc_id
                         ROWS UNBOUNDED PRECEDING) AS cum
  FROM d
)
SELECT lang, CAST(sum(toks) AS BIGINT) AS total_toks,
       CAST((sum(toks) + 2047) // 2048 AS BIGINT) AS n_seqs,
       CAST(sum(CASE WHEN (cum - 1) // 2048 > (cum - toks) // 2048
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_split_docs
FROM r GROUP BY 1 ORDER BY 1
"""


def unigram_logprob_stats(sf_dir: str) -> "ray.data.Dataset":
    """Corpus-statistics PERPLEXITY surrogate: each document scored by
    the sum of its tokens' unigram log-probabilities (micro-nats,
    floor(ln(cnt/total) * 1e6) per token -- the same order-independent
    integer-ln recipe as the entropy signal), rolled up per language
    with the worst (most surprising) document score -- the cheap tier
    of model-based quality filtering, before any neural LM runs.

    Scale shape: pass 1 folds blocks to partial token counts (exchange
    bounded by the live vocabulary, merged once); the count table is
    ray.put ONCE (for web-scale vocabularies: co-partition the join by
    token fingerprint as tfidf_top_term_per_doc does); pass 2 rescans
    text, maps tokens to their precomputed integer contributions via
    one searchsorted, and folds per-doc sums to per-lang partials."""
    from ..stages.partition import partition_by
    ds = _read(sf_dir, "documents", ["lang", "text"])

    counts = combine_agg(ds, ["tok"], _tokens, [("tok", "count")],
                         named("tok", "n")).to_pandas()
    vocab = np.asarray(counts["tok"], dtype=np.str_)
    vn = counts["n"].to_numpy().astype(np.int64)
    order = np.argsort(vocab)
    vocab, vn = vocab[order], vn[order]
    total = int(vn.sum())
    # ONE double division, ln, scale, floor: identical op order to SQL
    contrib = np.floor(np.log(vn / np.float64(total))
                       * 1e6).astype(np.int64)
    lut_ref = ray.put((vocab, contrib))

    def doc_scores(t: pa.Table) -> pa.Table:
        vv, cc = ray.get(lut_ref)
        toks = pc.split_pattern(t["text"], pattern=" ")
        flat = np.asarray(pc.list_flatten(toks).combine_chunks()
                          .to_pylist(), dtype=np.str_)
        nper = pc.list_value_length(toks).to_numpy(
            zero_copy_only=False).astype(np.int64)
        pos = np.searchsorted(vv, flat)
        per_tok = cc[pos]            # every token exists in the vocab
        did = np.repeat(np.arange(t.num_rows), nper)
        lp = np.zeros(t.num_rows, np.int64)
        np.add.at(lp, did, per_tok)
        return pa.table({"lang": t["lang"], "lp": lp})

    return combine_agg(ds, ["lang"], doc_scores,
                       [("lp", "count"), ("lp", "sum"), ("lp", "min")],
                       named("lang", "n_docs", "sum_logprob_micro",
                             "min_doc_logprob_micro")).sort("lang")


UNIGRAM_LOGPROB_SQL = """
WITH t AS (
  SELECT lang, doc_id, unnest(string_split(text, ' ')) AS tok
  FROM documents
), c AS (
  SELECT tok, CAST(count(*) AS BIGINT) AS n FROM t GROUP BY 1
), tot AS (
  SELECT CAST(sum(n) AS BIGINT) AS total FROM c
), lut AS (
  SELECT tok,
         CAST(floor(ln(CAST(n AS DOUBLE) / CAST(total AS DOUBLE))
                    * 1000000.0) AS BIGINT) AS lp
  FROM c CROSS JOIN tot
), d AS (
  SELECT t.lang, t.doc_id, CAST(sum(lut.lp) AS BIGINT) AS doc_lp
  FROM t JOIN lut ON t.tok = lut.tok
  GROUP BY 1, 2
)
SELECT lang, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(doc_lp) AS BIGINT) AS sum_logprob_micro,
       CAST(min(doc_lp) AS BIGINT) AS min_doc_logprob_micro
FROM d GROUP BY 1 ORDER BY 1
"""


def grouped_regression_trend(sf_dir: str) -> "ray.data.Dataset":
    """Per-group LINEAR REGRESSION slope (value-vs-hour-of-day trend
    per event type) carried as an EXACT integer rational: numerator
    n*Sxy - Sx*Sy and denominator n*Sxx - Sx*Sx from the same
    sufficient-statistics moments the correlation query uses -- trend
    detection per group with zero floating point anywhere in the
    distributed path (consumers divide at the edge).

    Scale shape: one pass folds blocks to per-group integer moment
    partials (n, Sx, Sy, Sxy, Sxx); the exchange is O(groups x blocks)
    rows and the rational is derived after the merge."""
    ev = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def mom(t: pa.Table) -> pa.Table:
        ts = t["ts"].to_numpy(zero_copy_only=False).astype(
            "datetime64[us]").astype(np.int64)
        x = (ts // 3_600_000_000) % 24          # hour of day
        y = _int_units(t["value"], 100).to_numpy(zero_copy_only=False)
        return pa.table({"event_type": t["event_type"], "x": x, "y": y,
                         "xy": x * y, "xx": x * x})

    def finalize(t: pa.Table) -> pa.Table:
        n, sx, sy, sxy, sxx = (
            t[c].to_numpy(zero_copy_only=False)
            for c in ("x_count", "x_sum", "y_sum", "xy_sum", "xx_sum"))
        return pa.table({
            "event_type": t["event_type"],
            "n": pa.array(n),
            "slope_num": pa.array(n * sxy - sx * sy),
            "slope_den": pa.array(n * sxx - sx * sx),
        })

    return combine_agg(ev, ["event_type"], mom,
                       [("x", "count"), ("x", "sum"), ("y", "sum"),
                        ("xy", "sum"), ("xx", "sum")],
                       finalize).sort("event_type")


GROUPED_REGRESSION_SQL = """
WITH v AS (
  SELECT event_type,
         (epoch_us(ts) // 3600000000) % 24 AS x,
         CAST(round(value * 100) AS BIGINT) AS y
  FROM events
), m AS (
  SELECT event_type, CAST(count(*) AS BIGINT) AS n,
         CAST(sum(x) AS BIGINT) AS sx, CAST(sum(y) AS BIGINT) AS sy,
         CAST(sum(x * y) AS BIGINT) AS sxy,
         CAST(sum(x * x) AS BIGINT) AS sxx
  FROM v GROUP BY 1
)
SELECT event_type, n,
       CAST(n * sxy - sx * sy AS BIGINT) AS slope_num,
       CAST(n * sxx - sx * sx AS BIGINT) AS slope_den
FROM m ORDER BY 1
"""


def token_explode_sample(sf_dir: str, mod: int = 17) -> "ray.data.Dataset":
    """Row EXPLODE (flat-map): split each selected document's text into
    whitespace tokens and emit ONE ROW PER TOKEN with its 1-based
    position -- the tokenize-and-flatten step every sequence-building
    pipeline runs before packing, as a pure streaming map whose output
    cardinality exceeds its input's (the one operator class the rest of
    the suite never exercises; Ray Data expresses it as a map_batches
    returning more rows than it was given, no flat_map-per-row Python).

    Scale shape: stateless, shuffle-free, vectorized end to end --
    pc.split_pattern builds the list column, list_flatten +
    np.repeat/np.arange derive (doc_id, pos) from the list offsets; the
    deterministic ``doc_id % mod`` predicate bounds output for the gate
    while the kernel itself streams any corpus."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    empty = pa.table({"doc_id": pa.array([], type=pa.int64()),
                      "pos": pa.array([], type=pa.int64()),
                      "token": pa.array([], type=pa.string()),
                      "tok_len": pa.array([], type=pa.int64())})

    def explode(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        sel = (ids % mod) == 0
        if not sel.any():
            return empty
        sub = t.filter(pa.array(sel))
        toks = pc.split_pattern(sub["text"], pattern=" ")
        flat = pc.list_flatten(toks)
        nper = pc.list_value_length(toks).to_numpy(
            zero_copy_only=False).astype(np.int64)
        doc = np.repeat(sub["doc_id"].to_numpy(zero_copy_only=False), nper)
        starts = np.cumsum(nper) - nper
        pos = np.arange(doc.size, dtype=np.int64) - np.repeat(starts, nper) + 1
        return pa.table({
            "doc_id": pa.array(doc),
            "pos": pa.array(pos),
            "token": pc.cast(flat, pa.string()),
            "tok_len": pc.cast(pc.utf8_length(flat), pa.int64()),
        })

    return ds.map_batches(explode, batch_format="pyarrow",
                          zero_copy_batch=True)


TOKEN_EXPLODE_SQL = """
WITH sel AS (
  SELECT doc_id, string_split(text, ' ') AS toks
  FROM documents WHERE doc_id % 17 = 0
), ex AS (
  SELECT doc_id, CAST(generate_subscripts(toks, 1) AS BIGINT) AS pos,
         unnest(toks) AS token
  FROM sel
)
SELECT doc_id, pos, token, CAST(length(token) AS BIGINT) AS tok_len
FROM ex ORDER BY doc_id, pos
"""


def lineitem_unpivot_stats(sf_dir: str) -> "ray.data.Dataset":
    """UNPIVOT/melt: reshape the four lineitem measure columns into long
    (measure, value) form and aggregate per (measure, returnflag) -- the
    schema-normalization step feeding metric stores and drift monitors,
    as an in-batch reshape + combiner (no exploded table ever hits the
    exchange: each block folds to its <= 4 x |flags| partial rows).

    Integer cents keep the float sums merge-order-exact (TPC-H measures
    are 2-decimal); the shuffle moves O(measures x flags x blocks) tiny
    rows."""
    measures = ["l_quantity", "l_extendedprice", "l_discount", "l_tax"]
    ds = _read(sf_dir, "lineitem", ["l_returnflag"] + measures)

    def melt(t: pa.Table) -> pa.Table:
        return pa.concat_tables([pa.table({
            "measure": pa.repeat(pa.scalar(m), t.num_rows),
            "l_returnflag": t["l_returnflag"],
            "cents": np.floor(t[m].to_numpy(zero_copy_only=False) * 100
                              + 0.5).astype(np.int64),
        }) for m in measures])

    return combine_agg(ds, ["measure", "l_returnflag"], melt,
                       [("cents", "count"), ("cents", "sum")],
                       named("measure", "l_returnflag", "n", "sum_cents"))


LINEITEM_UNPIVOT_SQL = """
WITH long AS (
  SELECT 'l_quantity' AS measure, l_returnflag, l_quantity AS v
  FROM lineitem
  UNION ALL
  SELECT 'l_extendedprice', l_returnflag, l_extendedprice FROM lineitem
  UNION ALL
  SELECT 'l_discount', l_returnflag, l_discount FROM lineitem
  UNION ALL
  SELECT 'l_tax', l_returnflag, l_tax FROM lineitem
)
SELECT measure, l_returnflag, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(CAST(floor(v * 100 + 0.5) AS BIGINT)) AS BIGINT)
         AS sum_cents
FROM long GROUP BY 1, 2 ORDER BY 1, 2
"""


def split_assign_stats(sf_dir: str) -> "ray.data.Dataset":
    """Deterministic train/val/test corpus split: assign every document
    a split by ``murmur64(doc_id) % 100`` (90/5/5) and roll up docs +
    chars per (split, lang) -- the reproducible dataset-versioning
    primitive every training run needs (same doc always lands in the
    same split, independent of partitioning, ordering, or cluster size).

    Scale shape: the assignment is a pure streaming map (no shuffle for
    the split itself); murmur64 bit-replicates DuckDB hash(BIGINT), so
    the oracle assigns the identical split; per-block combiner folds to
    O(3 x langs) partials before the exchange."""
    from ..hashing import murmur64
    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    names = np.array(["train", "val", "test"])

    def assign(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        pct = (murmur64(ids) % np.uint64(100)).astype(np.int64)
        split = np.where(pct < 90, 0, np.where(pct < 95, 1, 2))
        return pa.table({"split": pa.array(names[split], type=pa.string()),
                         "lang": t["lang"],
                         "n_chars": pc.cast(t["n_chars"], pa.int64())})

    return combine_agg(ds, ["split", "lang"], assign,
                       [("n_chars", "count"), ("n_chars", "sum")],
                       named("split", "lang", "n_docs", "sum_chars"))


SPLIT_ASSIGN_SQL = """
WITH a AS (
  SELECT lang, n_chars,
         CASE WHEN hash(doc_id) % 100 < 90 THEN 'train'
              WHEN hash(doc_id) % 100 < 95 THEN 'val'
              ELSE 'test' END AS split
  FROM documents
)
SELECT split, lang, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(n_chars) AS BIGINT) AS sum_chars
FROM a GROUP BY 1, 2 ORDER BY 1, 2
"""


def equi_depth_buckets(sf_dir: str, k: int = 8) -> pa.Table:
    """Equi-depth histogram / range-partition PLAN: exact k-quantile
    boundaries over lineitem prices (distributed histogram bisection --
    no global sort) plus the exact row count that lands in each bucket
    under ``smallest bucket whose upper bound >= value`` assignment.
    This is the planner primitive behind scalable range partitioning
    and distributed sort: boundaries from a streaming pass, then any
    later stage range-routes rows with one searchsorted.

    Scale shape: boundary pass is the engine's histogram-bisection
    exact_quantiles (tiny mergeable histograms through the tree
    reduce); the count pass broadcasts k-1 scalars and folds each block
    to <= k partial counts."""
    from .quantiles import exact_quantiles
    ds = _read(sf_dir, "lineitem", ["l_extendedprice"])
    qs = [(i + 1) / k for i in range(k)]
    bt = exact_quantiles(ds, "l_extendedprice", qs)
    bounds = np.asarray(bt["value"].to_pylist(), dtype=np.float64)
    inner = bounds[:-1]  # bucket i (0-based) <=> value <= bounds[i]

    def bucket(t: pa.Table) -> pa.Table:
        v = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        # bucket = number of inner boundaries strictly below v
        return pa.table({"bucket": np.searchsorted(inner, v, side="left")})

    out = combine_agg(ds, ["bucket"], bucket, [("bucket", "count")],
                      named("bucket", "n")).to_pandas()  # <= k rows
    n = np.zeros(k, dtype=np.int64)
    n[out["bucket"].to_numpy()] = out["n"].to_numpy()
    return pa.table({
        "bucket": pa.array(np.arange(1, k + 1, dtype=np.int64)),
        "hi": pa.array(bounds, type=pa.float64()),
        "n": pa.array(n),
    })


EQUI_DEPTH_SQL = """
WITH b AS (
  SELECT quantile_disc(l_extendedprice,
                       [0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0])
           AS bs
  FROM lineitem
), assigned AS (
  SELECT 1 + CAST(l_extendedprice > b.bs[1] AS BIGINT)
           + CAST(l_extendedprice > b.bs[2] AS BIGINT)
           + CAST(l_extendedprice > b.bs[3] AS BIGINT)
           + CAST(l_extendedprice > b.bs[4] AS BIGINT)
           + CAST(l_extendedprice > b.bs[5] AS BIGINT)
           + CAST(l_extendedprice > b.bs[6] AS BIGINT)
           + CAST(l_extendedprice > b.bs[7] AS BIGINT) AS bucket
  FROM lineitem, b
)
SELECT a.bucket, b.bs[CAST(a.bucket AS INT)] AS hi,
       CAST(count(*) AS BIGINT) AS n
FROM assigned a, b GROUP BY 1, 2 ORDER BY 1
"""


def source_vocab_overlap(sf_dir: str) -> pa.Table:
    """EXACT set similarity between per-source vocabularies: for every
    source pair, the distinct-token intersection, both set sizes, and
    Jaccard (integer ppm) -- the contamination/overlap matrix a corpus
    curator checks before mixing sources.

    Dataflow: per-block distinct (token-fingerprint, source-bitmask)
    partials (np.bitwise_or.at over the block's tokens), token-fp
    co-partition ORs the masks so each token contributes EXACTLY one
    membership mask, then every pair count is a vectorized bit test --
    the same bitmask trick as session_copresence_counts lifted from
    sessions to vocabularies.  The exchange moves O(vocab) 16-byte
    rows; pair work is O(sources^2) per partition on in-register
    masks."""
    from ..functions.text import fingerprint64
    from ..stages.partition import fit_partitions, partition_by
    ds = _read(sf_dir, "documents", ["source", "text"])
    # lexicographic domain order so pair (a, b) matches SQL's a < b
    src_domain = sorted(DOC_SOURCES)
    bit_of = {s: i for i, s in enumerate(src_domain)}

    empty_mask = pa.table({"fp": pa.array([], type=pa.int64()),
                           "mask": pa.array([], type=pa.int64())})

    def block_masks(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty_mask
        toks = pc.split_pattern(t["text"], pattern=" ")
        flat = pc.list_flatten(toks)
        if len(flat) == 0:
            return empty_mask
        nper = pc.list_value_length(toks).to_numpy(
            zero_copy_only=False).astype(np.int64)
        src = t["source"].to_numpy(zero_copy_only=False)
        bits = np.array([np.int64(1) << bit_of[s] for s in src],
                        dtype=np.int64)
        tok_bits = np.repeat(bits, nper)
        fp = fingerprint64(flat).to_numpy(zero_copy_only=False)
        ufp, finv = np.unique(fp, return_inverse=True)
        mask = np.zeros(ufp.size, dtype=np.int64)
        np.bitwise_or.at(mask, finv, tok_bits)
        return pa.table({"fp": pa.array(ufp), "mask": pa.array(mask)})

    empty_pairs = pa.table({
        "source_a": pa.array([], type=pa.string()),
        "source_b": pa.array([], type=pa.string()),
        "n_common": pa.array([], type=pa.int64()),
    })

    n_src = len(src_domain)

    def pair_kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty_pairs
        fp = t["fp"].to_numpy(zero_copy_only=False)
        m = t["mask"].to_numpy(zero_copy_only=False)
        ufp, finv = np.unique(fp, return_inverse=True)
        mask = np.zeros(ufp.size, dtype=np.int64)
        np.bitwise_or.at(mask, finv, m)
        sa, sb, n = [], [], []
        for i in range(n_src):
            bi = np.int64(1) << i
            has_i = (mask & bi) != 0
            # diagonal row carries the per-source vocabulary size
            cnt_i = int(has_i.sum())
            if cnt_i:
                sa.append(src_domain[i]); sb.append(src_domain[i])
                n.append(cnt_i)
            for j in range(i + 1, n_src):
                bj = np.int64(1) << j
                c = int((has_i & ((mask & bj) != 0)).sum())
                if c:
                    sa.append(src_domain[i]); sb.append(src_domain[j])
                    n.append(c)
        return pa.table({"source_a": pa.array(sa, type=pa.string()),
                         "source_b": pa.array(sb, type=pa.string()),
                         "n_common": pa.array(n, type=pa.int64())})

    masks = ds.map_batches(block_masks, batch_format="pyarrow",
                           zero_copy_batch=True)
    per_part = partition_by(masks, ["fp"], fit_partitions(32),
                            pair_kernel, empty_pairs)
    agg = combine_agg(per_part, ["source_a", "source_b"], lambda t: t,
                      [("n_common", "sum")],
                      named("source_a", "source_b", "n_common"))
    rows = agg.take_all()  # <= sources^2 rows
    totals = {r["source_a"]: int(r["n_common"]) for r in rows
              if r["source_a"] == r["source_b"]}
    out = [r for r in rows if r["source_a"] != r["source_b"]]
    out.sort(key=lambda r: (r["source_a"], r["source_b"]))
    n_a = [totals[r["source_a"]] for r in out]
    n_b = [totals[r["source_b"]] for r in out]
    n_c = [int(r["n_common"]) for r in out]
    return pa.table({
        "source_a": pa.array([r["source_a"] for r in out],
                             type=pa.string()),
        "source_b": pa.array([r["source_b"] for r in out],
                             type=pa.string()),
        "n_common": pa.array(n_c, type=pa.int64()),
        "n_a": pa.array(n_a, type=pa.int64()),
        "n_b": pa.array(n_b, type=pa.int64()),
        "jaccard_ppm": pa.array(
            [c * 1_000_000 // (a + b - c)
             for c, a, b in zip(n_c, n_a, n_b)], type=pa.int64()),
    })


SOURCE_VOCAB_OVERLAP_SQL = """
WITH toks AS (
  SELECT DISTINCT source, unnest(string_split(text, ' ')) AS tok
  FROM documents
), tot AS (
  SELECT source, CAST(count(*) AS BIGINT) AS n FROM toks GROUP BY 1
), pairs AS (
  SELECT a.source AS sa, b.source AS sb,
         CAST(count(*) AS BIGINT) AS n_common
  FROM toks a JOIN toks b ON a.tok = b.tok AND a.source < b.source
  GROUP BY 1, 2
)
SELECT sa AS source_a, sb AS source_b, n_common,
       ta.n AS n_a, tb.n AS n_b,
       CAST(n_common * 1000000 // (ta.n + tb.n - n_common) AS BIGINT)
         AS jaccard_ppm
FROM pairs
JOIN tot ta ON ta.source = sa
JOIN tot tb ON tb.source = sb
ORDER BY 1, 2
"""


def corpus_quota_sample(sf_dir: str, n: int = 10) -> "ray.data.Dataset":
    """Deterministic per-cell corpus quota: for every (lang, source)
    cell keep at most ``n`` documents, chosen by ascending
    ``(hash(doc_id), doc_id)`` -- the class-balancing / per-source-cap
    step a training-data mix applies so no source or language floods the
    corpus.  Hash order makes the quota a uniform, seedless,
    rerun-stable sample (the same property deterministic_sample uses),
    and the emitted rnk is its audit trail.

    Scale shape (same as top_events_per_type): a block-local prereduce
    keeps at most n rows per cell per block, so the shuffle moves
    O(cells x n x blocks) 32-byte rows regardless of corpus size; one
    final single-partition pass re-ranks the partials.  murmur64
    bit-replicates DuckDB ``hash(BIGINT)`` (tests/test_oracle_parity),
    so the selection is hash-identical to the ROW_NUMBER SQL.
    """
    from ..hashing import murmur64
    ds = _read(sf_dir, "documents", ["doc_id", "lang", "source"])

    empty = pa.table({"lang": pa.array([], type=pa.string()),
                      "source": pa.array([], type=pa.string()),
                      "doc_id": pa.array([], type=pa.int64()),
                      "rnk": pa.array([], type=pa.int64())})

    def keep_n(t: pa.Table, with_rank: bool) -> pa.Table:
        if t.num_rows == 0:
            return empty if with_rank else empty.drop_columns(["rnk"])
        did = t["doc_id"].to_numpy(zero_copy_only=False)
        lang = t["lang"].to_numpy(zero_copy_only=False)
        src = t["source"].to_numpy(zero_copy_only=False)
        h = murmur64(did)
        ul, lc = np.unique(lang, return_inverse=True)
        us, sc = np.unique(src, return_inverse=True)
        cell = lc * us.shape[0] + sc
        order = np.lexsort((did, h, cell))
        cell_s = cell[order]
        new_grp = np.ones(order.shape[0], dtype=bool)
        new_grp[1:] = cell_s[1:] != cell_s[:-1]
        starts = np.nonzero(new_grp)[0]
        first = np.repeat(starts,
                          np.diff(np.append(starts, order.shape[0])))
        rank = np.arange(order.shape[0]) - first
        sel = rank < n
        keep = order[sel]
        out = {
            "lang": pa.array(ul[lc[keep]].tolist(), type=pa.string()),
            "source": pa.array(us[sc[keep]].tolist(), type=pa.string()),
            "doc_id": pa.array(did[keep], type=pa.int64()),
        }
        if with_rank:
            out["rnk"] = pa.array(rank[sel] + 1, type=pa.int64())
        return pa.table(out)

    prereduced = ds.map_batches(lambda t: keep_n(t, False),
                                batch_format="pyarrow",
                                zero_copy_batch=True)
    from ..stages.partition import partition_by
    return partition_by(prereduced, [], 1, lambda t: keep_n(t, True),
                        empty)


CORPUS_QUOTA_SQL = """
SELECT lang, source, doc_id,
       CAST(row_number() OVER (PARTITION BY lang, source
                               ORDER BY hash(doc_id), doc_id)
            AS BIGINT) AS rnk
FROM documents
QUALIFY rnk <= 10
ORDER BY 1, 2, 4
"""


def pq_encode_stats(sf_dir: str, m: int = 4, k: int = 16) -> "ray.data.Dataset":
    """Product-quantization encode (Jegou et al., "Product Quantization
    for Nearest Neighbor Search", TPAMI 2011) of every embedding:
    split each vector into ``m`` subspaces, assign each subvector to its
    nearest of ``k`` codebook centroids (exact integer L2, tie -> smaller
    code), and report the code histogram and total quantization error
    per (subspace, code) -- the compression stage a 10^12-vector ANN
    index runs so residency drops from d floats to m bytes per vector.

    Codebook: the subvectors of the ``k`` seed vectors chosen by
    ascending (hash(vec_id), vec_id) -- the deterministic
    sample-as-codebook seeding step of PQ training (a Lloyd refinement
    would slot between pass 1 and 2 unchanged); seedless and
    rerun-stable like corpus_quota_sample.

    Scale shape: pass 1 is a block-local top-k prereduce on the 16-byte
    (hash, vec_id) key carrying the seed vectors (O(k x blocks) rows
    leave the cluster, k*d ints broadcast back via ray.put); pass 2
    streams, one (n, k, d/m) einsum per subspace per batch, and the
    combiner folds the assignments to per-(subspace, code) integer
    partials so the exchange is O(m x k) rows per block.  Vectors are quantized to milli-units exactly like
    nearest_centroid_confusion, so distances and the argmin are
    hash-replicable in SQL.
    """
    from ..functions.vectors import list_to_matrix
    from ..hashing import murmur64

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def seed_partials(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"vec_id": pa.array([], type=pa.int64()),
                             "h": pa.array([], type=pa.int64()),
                             "embedding": t["embedding"]})
        vid = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        h = murmur64(vid)
        order = np.lexsort((vid, h))[:k]
        sel = t.take(pa.array(np.sort(order)))
        hh = murmur64(sel["vec_id"].to_numpy(
            zero_copy_only=False).astype(np.int64))
        return pa.table({"vec_id": sel["vec_id"],
                         "h": pa.array(hh.view(np.int64), type=pa.int64()),
                         "embedding": sel["embedding"]})

    seeds = (ds.map_batches(seed_partials, batch_format="pyarrow",
                            zero_copy_batch=True)
             .take_all())  # <= k x blocks tiny rows
    seeds.sort(key=lambda r: (np.uint64(np.int64(r["h"])), r["vec_id"]))
    seeds = seeds[:k]
    seed_mat = np.asarray([r["embedding"] for r in seeds],
                          dtype=np.float64)
    cb = np.floor(seed_mat * 1000.0 + 0.5).astype(np.int64)
    d = cb.shape[1]
    if d % m:
        raise ValueError(f"dim {d} not divisible by m={m}")
    sub_d = d // m
    cb_ref = ray.put(cb.reshape(k, m, sub_d))

    def encode(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"sub": pa.array([], type=pa.int64()),
                             "code": pa.array([], type=pa.int64()),
                             "d2": pa.array([], type=pa.int64())})
        cbm = ray.get(cb_ref)  # (k, m, sub_d)
        mat = list_to_matrix(t["embedding"], dtype=np.float64)
        x = np.floor(mat * 1000.0 + 0.5).astype(np.int64)
        x = x.reshape(x.shape[0], m, sub_d)
        subs, codes, sds = [], [], []
        for s in range(m):
            diff = x[:, None, s, :] - cbm[None, :, s, :]
            d2 = np.einsum("nkd,nkd->nk", diff, diff)
            best = np.argmin(d2, axis=1)  # first min = smallest code
            subs.append(np.full(best.shape[0], s, dtype=np.int64))
            codes.append(best.astype(np.int64))
            sds.append(d2[np.arange(d2.shape[0]), best])
        return pa.table({"sub": np.concatenate(subs),
                         "code": np.concatenate(codes),
                         "d2": np.concatenate(sds)})

    return combine_agg(ds, ["sub", "code"], encode,
                       [("d2", "count"), ("d2", "sum")],
                       named("sub", "code", "n_assigned", "sum_d2")
                       ).sort(["sub", "code"])


PQ_ENCODE_SQL = """
WITH nums AS (
  SELECT CAST(range AS BIGINT) AS i FROM range(1, 4097)
), q AS (
  SELECT vec_id, CAST(i - 1 AS BIGINT) AS dim,
         CAST(floor(CAST(embedding[i] AS DOUBLE) * 1000.0 + 0.5)
              AS BIGINT) AS x
  FROM embeddings JOIN nums ON nums.i <= len(embedding)
), dims AS (
  SELECT CAST(max(dim) + 1 AS BIGINT) AS d FROM q
), seeds AS (
  SELECT vec_id,
         CAST(row_number() OVER (ORDER BY hash(vec_id), vec_id) - 1
              AS BIGINT) AS code
  FROM embeddings QUALIFY code <= 15
), cb AS (
  SELECT s.code, q.dim, q.x AS cx
  FROM seeds s JOIN q ON q.vec_id = s.vec_id
), dist AS (
  SELECT q.vec_id, q.dim // (d.d // 4) AS sub, cb.code,
         CAST(sum((q.x - cb.cx) * (q.x - cb.cx)) AS BIGINT) AS d2
  FROM q JOIN cb ON cb.dim = q.dim CROSS JOIN dims d
  GROUP BY 1, 2, 3
), best AS (
  SELECT vec_id, sub, code, d2,
         row_number() OVER (PARTITION BY vec_id, sub
                            ORDER BY d2, code) AS r
  FROM dist
)
SELECT sub, code, CAST(count(*) AS BIGINT) AS n_assigned,
       CAST(sum(d2) AS BIGINT) AS sum_d2
FROM best WHERE r = 1 GROUP BY 1, 2 ORDER BY 1, 2
"""


def hybrid_rrf_topk(sf_dir: str, terms: tuple = ("hash", "join"),
                    query_vec_id: int = 0, k: int = 10, k_leg: int = 20,
                    c: int = 60) -> pa.Table:
    """HYBRID RETRIEVAL via reciprocal-rank fusion (Cormack et al.,
    SIGIR 2009): fuse the dense leg (knn_cosine_topk over embeddings)
    with the sparse leg (keyword_search_topk over documents) by
    rrf(id) = sum over legs of 1/(c + rank), computed in integer parts
    per billion so the fusion is hash-exact.  The id spaces align by
    construction of the testdata (vec_id i embeds doc i); at serving
    scale the legs run against their own indexes and only the two
    O(k_leg) rank lists meet here -- fusion cost is independent of
    corpus size, which is the point of RRF.

    Both legs are the existing distributed pipelines (broadcast-query
    matmul / dictionary-encoded tf scan, each with block-local top-k
    prereduce); ranks are re-derived from their (score desc, id asc)
    deterministic orders.  A document missing from a leg contributes 0
    (rank reported as 0)."""
    dense_rows = knn_cosine_topk(sf_dir, query_vec_id=query_vec_id,
                                 k=k_leg).take_all()
    sparse_tbl = keyword_search_topk(sf_dir, terms=terms, k=k_leg)

    def ranks(ids: np.ndarray, neg_score, tie: np.ndarray) -> dict:
        order = np.lexsort((tie, neg_score))
        return {int(ids[j]): r + 1 for r, j in enumerate(order)}

    d_ids = np.array([r["vec_id"] for r in dense_rows], dtype=np.int64)
    d_cos = np.array([r["cos_sim"] for r in dense_rows],
                     dtype=np.float64)
    rank_d = ranks(d_ids, -d_cos, d_ids) if d_ids.size else {}
    s_ids = sparse_tbl["doc_id"].to_numpy(zero_copy_only=False)
    s_sc = sparse_tbl["score"].to_numpy(zero_copy_only=False)
    rank_s = ranks(s_ids, -s_sc.astype(np.int64), s_ids) \
        if s_ids.size else {}

    ids = sorted(set(rank_d) | set(rank_s))
    rd = np.array([rank_d.get(i, 0) for i in ids], dtype=np.int64)
    rs = np.array([rank_s.get(i, 0) for i in ids], dtype=np.int64)
    ppb = np.where(rd > 0, 1_000_000_000 // (c + rd), 0) \
        + np.where(rs > 0, 1_000_000_000 // (c + rs), 0)
    ida = np.array(ids, dtype=np.int64)
    order = np.lexsort((ida, -ppb))[:k]
    return pa.table({
        "doc_id": pa.array(ida[order], type=pa.int64()),
        "rank_dense": pa.array(rd[order], type=pa.int64()),
        "rank_sparse": pa.array(rs[order], type=pa.int64()),
        "rrf_ppb": pa.array(ppb[order], type=pa.int64()),
    })


HYBRID_RRF_SQL = """
WITH q AS (SELECT list_transform(embedding, x -> CAST(x AS DOUBLE)) AS qv
           FROM embeddings WHERE vec_id = 0),
scored AS (
  SELECT vec_id,
         round(list_cosine_similarity(
             list_transform(embedding, x -> CAST(x AS DOUBLE)), q.qv), 4)
             AS cos_sim
  FROM embeddings CROSS JOIN q),
dense AS (
  SELECT vec_id AS id,
         CAST(row_number() OVER (ORDER BY cos_sim DESC, vec_id)
              AS BIGINT) AS rd
  FROM scored QUALIFY rd <= 20),
toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok FROM documents
), tf AS (
  SELECT doc_id,
         CAST(sum(CASE WHEN tok = 'hash' THEN 1 ELSE 0 END) AS BIGINT)
           AS tf_hash,
         CAST(sum(CASE WHEN tok = 'join' THEN 1 ELSE 0 END) AS BIGINT)
           AS tf_join
  FROM toks GROUP BY 1
), sparse AS (
  SELECT doc_id AS id,
         CAST(row_number() OVER (ORDER BY tf_hash + tf_join DESC, doc_id)
              AS BIGINT) AS rs
  FROM tf WHERE tf_hash > 0 AND tf_join > 0 QUALIFY rs <= 20
), ids AS (
  SELECT id FROM dense UNION SELECT id FROM sparse
), fused AS (
  SELECT ids.id AS doc_id,
         coalesce(d.rd, 0) AS rank_dense,
         coalesce(s.rs, 0) AS rank_sparse,
         coalesce(1000000000 // (60 + d.rd), 0)
           + coalesce(1000000000 // (60 + s.rs), 0) AS rrf_ppb
  FROM ids LEFT JOIN dense d ON d.id = ids.id
           LEFT JOIN sparse s ON s.id = ids.id
)
SELECT doc_id, rank_dense, rank_sparse,
       CAST(rrf_ppb AS BIGINT) AS rrf_ppb
FROM fused
QUALIFY row_number() OVER (ORDER BY rrf_ppb DESC, doc_id) <= 10
ORDER BY rrf_ppb DESC, doc_id
"""


def kmeans_iter_stats(sf_dir: str, k: int = 8) -> pa.Table:
    """ONE Lloyd iteration of k-means over the embedding column, with
    exact before/after accounting: assign every vector to its nearest of
    ``k`` hash-ordered seed vectors (integer milli-unit L2, tie ->
    smaller cluster), recompute centroids as the assignment means (one
    float64 division + floor per coordinate, the nearest_centroid op
    order), re-assign, and report per cluster the membership and inertia
    at both steps -- the convergence ledger of an iterative algorithm
    expressed as two streaming passes per iteration (run it in a loop
    for full k-means; state between iterations is one k x d integer
    matrix).

    Scale shape: each pass is a broadcast-centroid einsum map with
    O(k x d)-row partials (the label_centroids pattern); nothing but the
    centroid matrix and k-row summaries ever leaves the cluster."""
    from ..functions.vectors import list_to_matrix
    from ..hashing import murmur64

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def seed_partials(t: pa.Table) -> pa.Table:
        vid = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        if vid.size == 0:
            return pa.table({"vec_id": t["vec_id"],
                             "h": pa.array([], type=pa.int64()),
                             "embedding": t["embedding"]})
        h = murmur64(vid)
        order = np.lexsort((vid, h))[:k]
        sel = t.take(pa.array(np.sort(order)))
        hh = murmur64(sel["vec_id"].to_numpy(
            zero_copy_only=False).astype(np.int64))
        return pa.table({"vec_id": sel["vec_id"],
                         "h": pa.array(hh.view(np.int64), type=pa.int64()),
                         "embedding": sel["embedding"]})

    seeds = (ds.map_batches(seed_partials, batch_format="pyarrow",
                            zero_copy_batch=True).take_all())
    seeds.sort(key=lambda r: (np.uint64(np.int64(r["h"])), r["vec_id"]))
    seed_mat = np.asarray([r["embedding"] for r in seeds[:k]],
                          dtype=np.float64)
    cents0 = np.floor(seed_mat * 1000.0 + 0.5).astype(np.int64)
    d = cents0.shape[1]

    def assign_pass(cent_ref):
        def assign(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return pa.table({
                    "cluster": pa.array([], type=pa.int64()),
                    "inertia": pa.array([], type=pa.int64()),
                    **{f"s{j}": pa.array([], type=pa.int64())
                       for j in range(d)}})
            cm = ray.get(cent_ref)
            mat = list_to_matrix(t["embedding"], dtype=np.float64)
            x = np.floor(mat * 1000.0 + 0.5).astype(np.int64)
            diff = x[:, None, :] - cm[None, :, :]
            d2 = np.einsum("nkd,nkd->nk", diff, diff)
            best = np.argmin(d2, axis=1)
            return pa.table({
                "cluster": best.astype(np.int64),
                "inertia": d2[np.arange(d2.shape[0]), best],
                **{f"s{j}": x[:, j] for j in range(d)}})

        res = combine_agg(
            ds, ["cluster"], assign,
            [("inertia", "count"), ("inertia", "sum")]
            + [(f"s{j}", "sum") for j in range(d)],
            named("cluster", "n", "inertia",
                  *(f"s{j}" for j in range(d)))).to_pandas()
        # a cluster no vector chose has no row: n, inertia and sums 0
        at = res["cluster"].to_numpy()
        n = np.zeros(k, dtype=np.int64)
        inertia = np.zeros(k, dtype=np.int64)
        sums = np.zeros((k, d), dtype=np.int64)
        n[at] = res["n"].to_numpy()
        inertia[at] = res["inertia"].to_numpy()
        sums[at] = np.stack([res[f"s{j}"].to_numpy() for j in range(d)],
                            axis=1)
        return n, inertia, sums

    ref0 = ray.put(cents0)
    n0, in0, sums = assign_pass(ref0)
    safe = np.maximum(n0, 1).astype(np.float64)
    cents1 = np.floor(sums / safe[:, None] + 0.5).astype(np.int64)
    cents1[n0 == 0] = cents0[n0 == 0]  # empty cluster keeps its seed
    ref1 = ray.put(cents1)
    n1, in1, _ = assign_pass(ref1)
    return pa.table({
        "cluster": pa.array(np.arange(k, dtype=np.int64)),
        "n_before": pa.array(n0), "inertia_before": pa.array(in0),
        "n_after": pa.array(n1), "inertia_after": pa.array(in1),
    })


KMEANS_ITER_SQL = """
WITH nums AS (
  SELECT CAST(range AS BIGINT) AS i FROM range(1, 4097)
), q AS (
  SELECT vec_id, CAST(i - 1 AS BIGINT) AS dim,
         CAST(floor(CAST(embedding[i] AS DOUBLE) * 1000.0 + 0.5)
              AS BIGINT) AS x
  FROM embeddings JOIN nums ON nums.i <= len(embedding)
), seeds AS (
  SELECT vec_id,
         CAST(row_number() OVER (ORDER BY hash(vec_id), vec_id) - 1
              AS BIGINT) AS cluster
  FROM embeddings QUALIFY cluster <= 7
), c0 AS (
  SELECT s.cluster, q.dim, q.x AS cx
  FROM seeds s JOIN q ON q.vec_id = s.vec_id
), d0 AS (
  SELECT q.vec_id, c0.cluster,
         CAST(sum((q.x - c0.cx) * (q.x - c0.cx)) AS BIGINT) AS d2
  FROM q JOIN c0 ON c0.dim = q.dim GROUP BY 1, 2
), a0 AS (
  SELECT vec_id, cluster, d2,
         row_number() OVER (PARTITION BY vec_id ORDER BY d2, cluster) AS r
  FROM d0 QUALIFY r = 1
), stat0 AS (
  SELECT cluster, CAST(count(*) AS BIGINT) AS n_before,
         CAST(sum(d2) AS BIGINT) AS inertia_before
  FROM a0 GROUP BY 1
), c1 AS (
  SELECT a0.cluster, q.dim,
         CAST(floor(CAST(sum(q.x) AS DOUBLE)
                    / CAST(count(*) AS DOUBLE) + 0.5) AS BIGINT) AS cx
  FROM a0 JOIN q ON q.vec_id = a0.vec_id
  GROUP BY 1, 2
), c1full AS (
  SELECT k.cluster, c0.dim, coalesce(c1.cx, c0.cx) AS cx
  FROM (SELECT DISTINCT cluster FROM c0) k
  JOIN c0 ON c0.cluster = k.cluster
  LEFT JOIN c1 ON c1.cluster = k.cluster AND c1.dim = c0.dim
), d1 AS (
  SELECT q.vec_id, c1full.cluster,
         CAST(sum((q.x - c1full.cx) * (q.x - c1full.cx)) AS BIGINT) AS d2
  FROM q JOIN c1full ON c1full.dim = q.dim GROUP BY 1, 2
), a1 AS (
  SELECT vec_id, cluster, d2,
         row_number() OVER (PARTITION BY vec_id ORDER BY d2, cluster) AS r
  FROM d1 QUALIFY r = 1
), stat1 AS (
  SELECT cluster, CAST(count(*) AS BIGINT) AS n_after,
         CAST(sum(d2) AS BIGINT) AS inertia_after
  FROM a1 GROUP BY 1
), ks AS (SELECT CAST(range AS BIGINT) AS cluster FROM range(0, 8))
SELECT ks.cluster,
       coalesce(stat0.n_before, 0) AS n_before,
       coalesce(stat0.inertia_before, 0) AS inertia_before,
       coalesce(stat1.n_after, 0) AS n_after,
       coalesce(stat1.inertia_after, 0) AS inertia_after
FROM ks LEFT JOIN stat0 ON stat0.cluster = ks.cluster
        LEFT JOIN stat1 ON stat1.cluster = ks.cluster
ORDER BY 1
"""


def loo_target_encoding(sf_dir: str, max_event_id: int = 500) -> "ray.data.Dataset":
    """LEAKAGE-SAFE target encoding: each event's category (event_type)
    is encoded as the mean target value of all OTHER events of that
    category -- leave-one-out, the standard trick that lets a model
    consume a high-cardinality categorical without seeing its own label.
    Emitted as the exact integer rational (loo_num = S_cat - x_i in
    micro-units, loo_den = n_cat - 1), so no engine-dependent float
    division touches the hash gate; the caller divides at the edge.

    Scale shape: pass 1 folds per-category (sum, count) partials
    in-batch (O(categories) rows per block) and the resulting tiny table
    is ray.put ONCE; pass 2 streams with the row filter pushed into the
    parquet read and a broadcast index lookup per batch -- no shuffle at
    all on the big side.  Bounded to event_id < max_event_id because
    per-row output is an audit slice, not a corpus dump (lift the bound
    to materialize features for training)."""
    import pyarrow.dataset as pads

    full = _read(sf_dir, "events", ["event_type", "value"])

    def micro_units(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": t["event_type"],
            "u": np.floor(t["value"].to_numpy(zero_copy_only=False)
                          * 1e6 + 0.5).astype(np.int64)})

    cats = combine_agg(full, ["event_type"], micro_units,
                       [("u", "sum"), ("u", "count")],
                       named("event_type", "s", "n")).to_pandas()
    lut = {r.event_type: (int(r.s), int(r.n)) for r in cats.itertuples()}
    lut_ref = ray.put(lut)

    sel = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "event_type", "value"],
        filter=(pads.field("event_id") < max_event_id))

    empty = pa.table({"event_id": pa.array([], type=pa.int64()),
                      "event_type": pa.array([], type=pa.string()),
                      "loo_num": pa.array([], type=pa.int64()),
                      "loo_den": pa.array([], type=pa.int64())})

    def encode(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        m = ray.get(lut_ref)
        units = np.floor(t["value"].to_numpy(zero_copy_only=False)
                         * 1e6 + 0.5).astype(np.int64)
        et = t["event_type"].to_numpy(zero_copy_only=False)
        ut, inv = np.unique(et, return_inverse=True)
        us = np.array([m[x][0] for x in ut], dtype=np.int64)
        un = np.array([m[x][1] for x in ut], dtype=np.int64)
        s, n = us[inv], un[inv]
        return pa.table({
            "event_id": t["event_id"],
            "event_type": t["event_type"],
            "loo_num": pa.array(s - units, type=pa.int64()),
            "loo_den": pa.array(n - 1, type=pa.int64()),
        })

    return sel.map_batches(encode, batch_format="pyarrow",
                           zero_copy_batch=True)


LOO_TARGET_ENCODING_SQL = """
WITH u AS (
  SELECT event_id, event_type,
         CAST(floor(value * 1000000.0 + 0.5) AS BIGINT) AS units
  FROM events
), cat AS (
  SELECT event_type, CAST(sum(units) AS BIGINT) AS s,
         CAST(count(*) AS BIGINT) AS n
  FROM u GROUP BY 1
)
SELECT u.event_id, u.event_type,
       CAST(cat.s - u.units AS BIGINT) AS loo_num,
       CAST(cat.n - 1 AS BIGINT) AS loo_den
FROM u JOIN cat USING (event_type)
WHERE u.event_id < 500
ORDER BY 1
"""


def knn_vote_confusion(sf_dir: str, k: int = 5,
                       max_src: int = 200) -> "ray.data.Dataset":
    """Leave-one-out kNN classification over the embedding column: each
    evaluated vector votes among the labels of its ``k`` exact nearest
    neighbors (integer milli-unit L2, self excluded, neighbor ties ->
    smaller vec_id, vote ties -> smaller label) and the (true, predicted)
    confusion matrix comes back -- the standard embedding-quality eval
    a corpus pipeline runs after (re)training an encoder.

    Scale shape: the corpus matrix is broadcast once via ray.put and
    each batch computes all its distances with the |x|^2+|y|^2-2xy
    integer matmul expansion (no (n, m, d) temporaries); votes fold to
    per-(label, pred) partials so the exchange is O(labels^2) per
    block.  Sources are bounded to vec_id < max_src (evaluation slice);
    at ANN scale the neighbor set comes from the IVF index
    (pipelines.knn) instead of the dense matmul -- the voting kernel is
    unchanged."""
    import pyarrow.parquet as pq
    import pyarrow.dataset as pads
    from ..functions.vectors import list_to_matrix

    corpus = pq.read_table(f"{sf_dir}/embeddings.parquet",
                           columns=["vec_id", "label", "embedding"])
    order = pc.sort_indices(corpus["vec_id"])
    corpus = corpus.take(order)
    cmat = np.floor(list_to_matrix(corpus["embedding"],
                                   dtype=np.float64) * 1000.0
                    + 0.5).astype(np.int64)
    cvid = corpus["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    clab = corpus["label"].to_numpy(zero_copy_only=False).astype(np.int64)
    corpus_ref = ray.put((cmat, cvid, clab))
    n_lab = int(clab.max()) + 1

    src = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "label", "embedding"],
        filter=(pads.field("vec_id") < max_src))

    def vote(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"label": pa.array([], type=pa.int64()),
                             "pred": pa.array([], type=pa.int64())})
        cm, cv, cl = ray.get(corpus_ref)
        m = cm.shape[0]
        x = np.floor(list_to_matrix(t["embedding"], dtype=np.float64)
                     * 1000.0 + 0.5).astype(np.int64)
        vid = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        true = t["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        d2 = (np.einsum("bd,bd->b", x, x)[:, None]
              + np.einsum("md,md->m", cm, cm)[None, :]
              - 2 * (x @ cm.T))
        # deterministic composite: distance first, then corpus position
        # (corpus is vec_id-sorted); self gets pushed past everything
        comp = d2 * np.int64(m) + np.arange(m, dtype=np.int64)[None, :]
        comp[vid[:, None] == cv[None, :]] = np.iinfo(np.int64).max
        nn = np.argpartition(comp, k - 1, axis=1)[:, :k]
        votes = np.zeros((x.shape[0], n_lab), dtype=np.int64)
        rows = np.repeat(np.arange(x.shape[0]), k)
        np.add.at(votes, (rows, cl[nn].ravel()), 1)
        pred = np.argmax(votes, axis=1)  # first max = smallest label
        return pa.table({"label": true, "pred": pred.astype(np.int64)})

    return combine_agg(src, ["label", "pred"], vote, [("pred", "count")],
                       named("label", "pred", "n")).sort(["label", "pred"])


KNN_VOTE_SQL = """
WITH nums AS (
  SELECT CAST(range AS BIGINT) AS i FROM range(1, 4097)
), q AS (
  SELECT vec_id, CAST(label AS BIGINT) AS label,
         CAST(i - 1 AS BIGINT) AS dim,
         CAST(floor(CAST(embedding[i] AS DOUBLE) * 1000.0 + 0.5)
              AS BIGINT) AS x
  FROM embeddings JOIN nums ON nums.i <= len(embedding)
), d AS (
  SELECT a.vec_id AS src, b.vec_id AS dst,
         CAST(sum((a.x - b.x) * (a.x - b.x)) AS BIGINT) AS d2
  FROM q a JOIN q b ON a.dim = b.dim AND a.vec_id <> b.vec_id
  WHERE a.vec_id < 200
  GROUP BY 1, 2
), nn AS (
  SELECT src, dst, d2,
         row_number() OVER (PARTITION BY src ORDER BY d2, dst) AS r
  FROM d QUALIFY r <= 5
), v AS (
  SELECT nn.src, e.label AS vlabel, count(*) AS c
  FROM nn JOIN embeddings e ON e.vec_id = nn.dst
  GROUP BY 1, 2
), p AS (
  SELECT src, CAST(vlabel AS BIGINT) AS pred,
         row_number() OVER (PARTITION BY src ORDER BY c DESC, vlabel) AS r
  FROM v QUALIFY r = 1
)
SELECT CAST(e.label AS BIGINT) AS label, p.pred,
       CAST(count(*) AS BIGINT) AS n
FROM p JOIN embeddings e ON e.vec_id = p.src
GROUP BY 1, 2 ORDER BY 1, 2
"""


def _lsh_hyperplanes(nbits: int, d: int) -> np.ndarray:
    """Deterministic (nbits, d) integer hyperplane matrix: centered
    24-bit values carved from splitmix64(b*d + j) -- seedless,
    identical on every worker and replicable as SQL constants."""
    from ..hashing import splitmix64
    idx = np.arange(nbits * d, dtype=np.int64)
    w = (splitmix64(idx) >> np.uint64(40)).astype(np.int64) - (1 << 23)
    return w.reshape(nbits, d)


def lsh_ann_topk(sf_dir: str, query_vec_id: int = 0, k: int = 10,
                 nbits: int = 12) -> "ray.data.Dataset":
    """Hyperplane-LSH approximate nearest neighbors (Charikar, STOC
    2002): every vector gets an ``nbits`` sign-bit bucket code from
    integer dot products against deterministic hyperplanes; the query
    probes its own bucket plus all Hamming-1 neighbors (multiprobe) and
    only those candidates are exactly cosine re-ranked.  The third ANN
    tier next to brute force (knn_cosine_topk) and IVF (pipelines.knn):
    bucketing needs no training pass at all, so it is the right scale
    path for write-heavy corpora where centroids would go stale.

    Scale shape: codes are one (n, d) @ (d, nbits) int64 matmul per
    batch (milli-unit exact, so the bucket boundary is engine-stable);
    the probe-code set and unit query are ray.put once; non-candidates
    are dropped BEFORE any float work; block-local top-k prereduce
    bounds the exchange at O(k x blocks).  Recall is tunable by nbits /
    probe radius and the oracle replicates the same probe semantics, so
    the result is deterministic -- approximate vs brute force, exact vs
    its own contract."""
    import pyarrow.parquet as pq

    emb = pq.read_table(f"{sf_dir}/embeddings.parquet",
                        columns=["vec_id", "embedding"])
    qrow = emb.filter(pc.equal(emb["vec_id"], query_vec_id))
    qvec = np.asarray(qrow["embedding"][0].as_py(), dtype=np.float64)
    d = qvec.shape[0]
    H = _lsh_hyperplanes(nbits, d)
    qx = np.floor(qvec * 1000.0 + 0.5).astype(np.int64)
    qcode = int(((H @ qx >= 0).astype(np.int64)
                 << np.arange(nbits, dtype=np.int64)).sum())
    probes = np.array([qcode] + [qcode ^ (1 << b) for b in range(nbits)],
                      dtype=np.int64)
    probes.sort()
    qunit = qvec / np.linalg.norm(qvec)
    state_ref = ray.put((H, probes, qunit))

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    empty = pa.table({"vec_id": pa.array([], type=pa.int64()),
                      "cos_sim": pa.array([], type=pa.float64())})

    def score(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        from ..functions.vectors import list_to_matrix
        Hm, pr, qu = ray.get(state_ref)
        mat = list_to_matrix(t["embedding"], dtype=np.float64)
        x = np.floor(mat * 1000.0 + 0.5).astype(np.int64)
        bits = (x @ Hm.T) >= 0
        codes = (bits.astype(np.int64)
                 << np.arange(Hm.shape[0], dtype=np.int64)[None, :]).sum(axis=1)
        hit = np.nonzero(np.isin(codes, pr))[0]
        if hit.shape[0] == 0:
            return empty
        sub = mat[hit]
        norms = np.linalg.norm(sub, axis=1)
        norms[norms == 0] = 1.0
        sims = (sub @ qu) / norms
        return pa.table({
            "vec_id": t["vec_id"].take(pa.array(hit)),
            "cos_sim": pa.array(np.round(sims, 4), type=pa.float64()),
        })

    from ..stages.topk import topk
    return topk(ds.map_batches(score, batch_format="pyarrow",
                               zero_copy_batch=True),
                [("cos_sim", "descending"), ("vec_id", "ascending")], k)


def _lsh_ann_sql(query_vec_id: int = 0, k: int = 10,
                 nbits: int = 12, d: int = 64) -> str:
    """DuckDB replica of lsh_ann_topk: the hyperplane constants are
    inlined VALUES rows (same splitmix64 derivation), codes via integer
    dot-product sign bits, multiprobe via XOR, cosine re-rank with the
    proven list_cosine_similarity path."""
    H = _lsh_hyperplanes(nbits, d)
    rows = ", ".join(f"({b}, {j}, {int(H[b, j])})"
                     for b in range(nbits) for j in range(d))
    return f"""
WITH nums AS (
  SELECT CAST(range AS BIGINT) AS i FROM range(1, {d + 1})
), q AS (
  SELECT vec_id, CAST(i - 1 AS BIGINT) AS dim,
         CAST(floor(CAST(embedding[i] AS DOUBLE) * 1000.0 + 0.5)
              AS BIGINT) AS x
  FROM embeddings JOIN nums ON nums.i <= len(embedding)
), hp(b, dim, w) AS (VALUES {rows}),
codes AS (
  SELECT q.vec_id,
         CAST(sum(CASE WHEN dot >= 0 THEN 1 << b ELSE 0 END) AS BIGINT)
           AS code
  FROM (SELECT q.vec_id, hp.b, sum(q.x * hp.w) AS dot
        FROM q JOIN hp ON hp.dim = q.dim GROUP BY 1, 2) q
  GROUP BY 1
), qc AS (
  SELECT code AS qcode FROM codes WHERE vec_id = {query_vec_id}
), probes AS (
  SELECT qcode AS p FROM qc
  UNION ALL
  SELECT xor(qcode, 1 << CAST(range AS BIGINT)) FROM qc, range(0, {nbits})
), cand AS (
  SELECT vec_id FROM codes WHERE code IN (SELECT p FROM probes)
), qv AS (
  SELECT list_transform(embedding, x -> CAST(x AS DOUBLE)) AS v
  FROM embeddings WHERE vec_id = {query_vec_id}
)
SELECT e.vec_id,
       round(list_cosine_similarity(
           list_transform(e.embedding, x -> CAST(x AS DOUBLE)), qv.v), 4)
         AS cos_sim
FROM embeddings e JOIN cand USING (vec_id) CROSS JOIN qv
ORDER BY cos_sim DESC, e.vec_id LIMIT {k}"""


LSH_ANN_SQL = _lsh_ann_sql()


def lang_source_mi(sf_dir: str) -> pa.Table:
    """Pointwise mutual-information decomposition of the (lang, source)
    contingency table: per cell, the count and the MI contribution
    floor((p_ij * ln(p_ij / (p_i p_j))) * 1e6) in integer MICRO-NATS --
    the dependence measure (summing the cells gives corpus-level MI)
    that tells a curator whether language and provenance are entangled
    (MI > 0 means per-source language balancing is NOT optional).  Same
    per-term flooring discipline as hour_entropy_by_type: each term is
    one float expression evaluated identically by numpy and DuckDB, and
    everything distributed is integer.

    Scale shape: per-block (lang, source) count partials -- O(langs x
    sources x blocks) shuffle rows; marginals and the ln finalize fold a
    langs x sources table on the driver."""
    ds = _read(sf_dir, "documents", ["lang", "source"])
    hist = combine_agg(ds, ["lang", "source"], lambda t: t,
                       [("source", "count")],
                       named("lang", "source", "cnt")).to_pandas()
    n = np.float64(hist["cnt"].sum())
    row_tot = hist.groupby("lang")["cnt"].transform("sum") \
        .to_numpy(dtype=np.float64)
    col_tot = hist.groupby("source")["cnt"].transform("sum") \
        .to_numpy(dtype=np.float64)
    cnt = hist["cnt"].to_numpy(dtype=np.float64)
    # ONE float expression per term, same parenthesization as the SQL
    terms = np.floor((cnt / n) * np.log((cnt * n) / (row_tot * col_tot))
                     * 1e6).astype(np.int64)
    out = hist.assign(mi_term_unats=terms).sort_values(
        ["lang", "source"]).reset_index(drop=True)
    return pa.table({
        "lang": pa.array(out["lang"], type=pa.string()),
        "source": pa.array(out["source"], type=pa.string()),
        "cnt": pa.array(out["cnt"].astype(np.int64), type=pa.int64()),
        "mi_term_unats": pa.array(out["mi_term_unats"].astype(np.int64),
                                  type=pa.int64()),
    })


LANG_SOURCE_MI_SQL = """
WITH c AS (
  SELECT lang, source, CAST(count(*) AS BIGINT) AS cnt
  FROM documents GROUP BY 1, 2
), tot AS (SELECT CAST(sum(cnt) AS DOUBLE) AS n FROM c),
r AS (SELECT lang, CAST(sum(cnt) AS DOUBLE) AS rt FROM c GROUP BY 1),
s AS (SELECT source, CAST(sum(cnt) AS DOUBLE) AS ct FROM c GROUP BY 1)
SELECT c.lang, c.source, c.cnt,
       CAST(floor((CAST(c.cnt AS DOUBLE) / tot.n)
                  * ln((CAST(c.cnt AS DOUBLE) * tot.n) / (r.rt * s.ct))
                  * 1000000.0) AS BIGINT) AS mi_term_unats
FROM c CROSS JOIN tot
JOIN r ON r.lang = c.lang
JOIN s ON s.source = c.source
ORDER BY 1, 2
"""


def rendezvous_shard_stats(sf_dir: str, n_shards: int = 8) -> pa.Table:
    """Rendezvous (highest-random-weight) hashing shard map (Thaler &
    Ravishankar 1996) over doc_id: each document goes to the shard with
    the largest hash(doc_id XOR shard_key), and the report also counts
    how many of each shard's documents would MOVE if one shard were
    added -- the minimal-movement property (~1/(n+1) of the corpus)
    that makes HRW the placement function for elastic clusters, proved
    here with exact counts instead of folklore.

    Scale shape: pure streaming -- per batch, an (n, shards) murmur64
    matrix (DuckDB hash()-replicable) and two argmaxes, folded to
    O(shards) partials; nothing but shard-sized rows ever shuffles."""
    from ..hashing import murmur64
    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    # distinct odd per-shard keys, same constants inlined in the SQL
    keys = np.array([(s * 2 + 1) * 0x9E3779B9 for s in range(n_shards + 1)],
                    dtype=np.int64)

    def assign(t: pa.Table) -> pa.Table:
        did = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        w = np.stack([murmur64(did ^ k) for k in keys], axis=1)
        cur = np.argmax(w[:, :n_shards], axis=1)   # first max = smaller
        nxt = np.argmax(w, axis=1)                  # shard wins ties
        return pa.table({
            "shard": cur.astype(np.int64),
            "n_chars": pc.cast(t["n_chars"], pa.int64()),
            "moved": (nxt == n_shards).astype(np.int64)})

    agg = (combine_agg(ds, ["shard"], assign,
                       [("n_chars", "count"), ("n_chars", "sum"),
                        ("moved", "sum")],
                       named("shard", "n_docs", "n_chars", "n_moved"))
           .to_pandas().sort_values("shard").reset_index(drop=True))
    return pa.table({
        "shard": pa.array(agg["shard"].astype(np.int64)),
        "n_docs": pa.array(agg["n_docs"].astype(np.int64)),
        "n_chars": pa.array(agg["n_chars"].astype(np.int64)),
        "n_moved": pa.array(agg["n_moved"].astype(np.int64)),
    })


def _rendezvous_sql(n_shards: int = 8) -> str:
    keys = [(s * 2 + 1) * 0x9E3779B9 for s in range(n_shards + 1)]
    rows = ", ".join(f"({s}, {k})" for s, k in enumerate(keys))
    return f"""
WITH sh(shard, key) AS (VALUES {rows}),
w AS (
  SELECT d.doc_id, d.n_chars, sh.shard,
         hash(xor(d.doc_id, sh.key)) AS wt
  FROM documents d CROSS JOIN sh
), cur AS (
  SELECT doc_id, n_chars, shard,
         row_number() OVER (PARTITION BY doc_id
                            ORDER BY wt DESC, shard) AS r
  FROM w WHERE shard < {n_shards} QUALIFY r = 1
), nxt AS (
  SELECT doc_id, shard AS nshard,
         row_number() OVER (PARTITION BY doc_id
                            ORDER BY wt DESC, shard) AS r
  FROM w QUALIFY r = 1
)
SELECT cur.shard, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(cur.n_chars) AS BIGINT) AS n_chars,
       CAST(sum(CASE WHEN nxt.nshard = {n_shards} THEN 1 ELSE 0 END)
            AS BIGINT) AS n_moved
FROM cur JOIN nxt USING (doc_id)
GROUP BY 1 ORDER BY 1"""


RENDEZVOUS_SHARD_SQL = _rendezvous_sql()


def _z_interleave(ub: np.ndarray, hb: np.ndarray) -> np.ndarray:
    """Bit-interleave two small non-negative int64 arrays (Morton /
    Z-order): ub bit b -> 2b, hb bit b -> 2b+1.  6 bit pairs cover the
    (64, 24) grid used below."""
    z = np.zeros_like(ub)
    for b in range(6):
        z |= ((ub >> b) & 1) << (2 * b)
        z |= ((hb >> b) & 1) << (2 * b + 1)
    return z


def zorder_layout_stats(sf_dir: str, u_lo: int = 8, u_hi: int = 15,
                        h_lo: int = 9, h_hi: int = 16,
                        out_root: str | None = None) -> pa.Table:
    """MULTI-DIMENSIONAL LAYOUT: events are written ONCE hive-partitioned
    by a Z-ORDER (Morton) prefix of (user-bucket, hour-of-day), then a
    2-D range query (user buckets [u_lo, u_hi] x hours [h_lo, h_hi])
    reads ONLY the partitions whose prefix can contain matching codes --
    the layout that makes BOTH dimensions prunable where a 1-D sort
    prunes only its leading column.  The fourth member of the layout
    family (day-range, lang-value, hash-bucket, z-order).  Output: one
    row with exact matches, rows scanned (pruning quality), partitions
    touched and present.

    Scale shape: the layout write is one streaming pass (interleave is
    6 vectorized bit ops); the probe set is enumerated driver-side over
    the tiny (64 x 24) bucket grid, the window read opens touched
    directories by PATH, and the count folds in-batch.  The DuckDB
    oracle recomputes the identical interleave arithmetic, so every
    output cell -- including rows-scanned -- is hash-checked."""
    import glob
    import shutil

    root = out_root or "/tmp/p2pdds_gate/events_by_zorder"
    shutil.rmtree(root, ignore_errors=True)

    ds = _read(sf_dir, "events", ["ts", "user_id"])
    HOUR_US = np.int64(3_600_000_000)

    def add_z(t: pa.Table) -> pa.Table:
        us = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ub = uid % np.int64(64)
        hb = (us // HOUR_US) % np.int64(24)
        z = _z_interleave(ub, hb)
        return pa.table({
            "ub": pa.array(ub), "hb": pa.array(hb),
            "zp": pa.array(z >> np.int64(5)),
        })

    ds.map_batches(add_z, batch_format="pyarrow",
                   zero_copy_batch=True).write_parquet(
        root, partition_cols=["zp"])

    # driver-side probe enumeration over the full bucket grid
    gu, gh = np.meshgrid(np.arange(64, dtype=np.int64),
                         np.arange(24, dtype=np.int64), indexing="ij")
    gz = _z_interleave(gu.ravel(), gh.ravel())
    in_range = ((gu.ravel() >= u_lo) & (gu.ravel() <= u_hi)
                & (gh.ravel() >= h_lo) & (gh.ravel() <= h_hi))
    touched = np.unique(gz[in_range] >> np.int64(5))

    present = sorted(int(p.rsplit("=", 1)[1])
                     for p in glob.glob(f"{root}/zp=*"))
    n_total = len(present)
    read_parts = [p for p in present if p in set(touched.tolist())]
    files = []
    for p in read_parts:
        files.extend(sorted(glob.glob(f"{root}/zp={p}/*.parquet")))

    n_scanned = 0
    n_match = 0
    if files:
        window = ray.data.read_parquet(files, columns=["ub", "hb"])

        def count(t: pa.Table) -> pa.Table:
            ub = t["ub"].to_numpy(zero_copy_only=False)
            hb = t["hb"].to_numpy(zero_copy_only=False)
            m = ((ub >= u_lo) & (ub <= u_hi)
                 & (hb >= h_lo) & (hb <= h_hi))
            return pa.table({
                "n_scanned": pa.array([t.num_rows], type=pa.int64()),
                "n_match": pa.array([int(m.sum())], type=pa.int64()),
            })

        agg = (window.map_batches(count, batch_format="pyarrow",
                                  zero_copy_batch=True)
               .aggregate(Sum("n_scanned", alias_name="s"),
                          Sum("n_match", alias_name="m")))
        n_scanned, n_match = int(agg["s"] or 0), int(agg["m"] or 0)

    return pa.table({
        "n_match": pa.array([n_match], type=pa.int64()),
        "n_scanned": pa.array([n_scanned], type=pa.int64()),
        "n_parts_touched": pa.array([len(read_parts)], type=pa.int64()),
        "n_parts_total": pa.array([n_total], type=pa.int64()),
    })


def _zorder_sql(u_lo: int = 8, u_hi: int = 15,
                h_lo: int = 9, h_hi: int = 16) -> str:
    def zexpr(u: str, h: str) -> str:
        terms = []
        for b in range(6):
            terms.append(f"((({u} >> {b}) & 1) << {2 * b})")
            terms.append(f"((({h} >> {b}) & 1) << {2 * b + 1})")
        return " + ".join(terms)

    return f"""
WITH ev AS (
  SELECT user_id % 64 AS ub,
         (CAST(epoch_us(ts) AS BIGINT) // 3600000000) % 24 AS hb
  FROM events
), evz AS (
  SELECT ub, hb, ({zexpr('ub', 'hb')}) >> 5 AS zp FROM ev
), grid AS (
  SELECT u.range AS gu, h.range AS gh
  FROM range(0, 64) u CROSS JOIN range(0, 24) h
), touched AS (
  SELECT DISTINCT ({zexpr('gu', 'gh')}) >> 5 AS zp
  FROM grid
  WHERE gu BETWEEN {u_lo} AND {u_hi} AND gh BETWEEN {h_lo} AND {h_hi}
)
SELECT
  CAST(count(*) FILTER (WHERE ub BETWEEN {u_lo} AND {u_hi}
                          AND hb BETWEEN {h_lo} AND {h_hi})
       AS BIGINT) AS n_match,
  CAST(count(*) FILTER (WHERE zp IN (SELECT zp FROM touched))
       AS BIGINT) AS n_scanned,
  CAST(count(DISTINCT zp)
       FILTER (WHERE zp IN (SELECT zp FROM touched))
       AS BIGINT) AS n_parts_touched,
  CAST(count(DISTINCT zp) AS BIGINT) AS n_parts_total
FROM evz
"""


ZORDER_LAYOUT_SQL = _zorder_sql()


def decayed_type_popularity(sf_dir: str) -> "ray.data.Dataset":
    """FRESHNESS-WEIGHTED popularity: each event counts ppm-fixed-point
    2^-age_days (integer 1_000_000 >> age_days, age measured in whole
    days back from the corpus max timestamp) and the per-type sums rank
    event types by recency-discounted volume -- the exponential-decay
    counter every trending/ranking surface runs, in exact integer
    arithmetic (a halving per day; shifts, no floats).

    Scale shape: one tiny Max(ts) pass fixes the reference day
    (broadcast as a plain closure scalar); the weighting pass streams
    with per-block (type) partials, so the exchange is O(types)."""
    from ray.data.aggregate import Max
    ds = _read(sf_dir, "events", ["ts", "event_type"])
    DAY_US = np.int64(86_400_000_000)
    mx = ds.aggregate(Max("ts", alias_name="mx"))["mx"]
    max_day = int(pa.scalar(mx).cast(pa.int64()).as_py() // int(DAY_US))

    def weight(t: pa.Table) -> pa.Table:
        us = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        age = np.minimum(np.int64(max_day) - us // DAY_US, np.int64(62))
        return pa.table({"event_type": t["event_type"],
                         "w": np.int64(1_000_000) >> age})

    return combine_agg(ds, ["event_type"], weight,
                       [("w", "count"), ("w", "sum")],
                       named("event_type", "n_events", "decayed_ppm")
                       ).sort("event_type")


DECAYED_POPULARITY_SQL = """
WITH mx AS (
  SELECT CAST(epoch_us(max(ts)) AS BIGINT) // 86400000000 AS max_day
  FROM events
), w AS (
  SELECT event_type,
         1000000 >> least(
             mx.max_day
               - CAST(epoch_us(ts) AS BIGINT) // 86400000000,
             62) AS wt
  FROM events CROSS JOIN mx
)
SELECT event_type, CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(wt) AS BIGINT) AS decayed_ppm
FROM w GROUP BY 1 ORDER BY 1
"""


def schema_evolution_read_stats(sf_dir: str,
                                out_root: str | None = None
                                ) -> "ray.data.Dataset":
    """SCHEMA-DRIFT TOLERANT READ: the events table is materialized as
    two snapshot generations with different schemas -- v1 (the
    murmur-even half) written BEFORE a `props` column existed, v2 (the
    odd half) with `props` plus a new `schema_ver` column -- then both
    generations are read back, normalized to the union schema (missing
    columns null-filled, vintage tagged), unioned into ONE stream and
    rolled up per generation.  This is the migration-day read path every
    long-lived lakehouse table needs: old files keep working, new
    columns appear as nulls behind them.

    Scale shape: the split is a streaming murmur64 filter (DuckDB
    hash-replicable, so the oracle regenerates the same halves from the
    raw table); each generation normalizes inside its own map_batches
    (schema work is per-block, no shuffle) and the union is Ray's
    zero-copy stream concatenation; the rollup is the standard in-batch
    combiner with an O(generations) exchange."""
    import shutil

    from ..hashing import murmur64

    root = out_root or "/tmp/p2pdds_gate/events_snapshots"
    shutil.rmtree(root, ignore_errors=True)

    ds = _read(sf_dir, "events", ["event_id", "value", "props"])

    def half(t: pa.Table, *, odd: bool) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        m = (murmur64(eid) % np.uint64(2) == np.uint64(1)) == odd
        return t.filter(pa.array(m))

    # v1: pre-migration schema, no props column
    (ds.map_batches(lambda t: half(t, odd=False).drop_columns(["props"]),
                    batch_format="pyarrow", zero_copy_batch=True)
     .write_parquet(f"{root}/v1"))
    # v2: post-migration schema with the new column
    (ds.map_batches(
        lambda t: half(t, odd=True).append_column(
            "schema_ver", pa.array(["v2"] * half(t, odd=True).num_rows,
                                   type=pa.string())),
        batch_format="pyarrow", zero_copy_batch=True)
     .write_parquet(f"{root}/v2"))

    v1 = ray.data.read_parquet(f"{root}/v1")
    v2 = ray.data.read_parquet(f"{root}/v2")

    def norm_v1(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table({
            "schema_ver": pa.array(["v1"] * n, type=pa.string()),
            "event_id": t["event_id"],
            "value_c": _int_units(t["value"], 100),
            "props": pa.nulls(n, type=pa.string()),
        })

    def norm_v2(t: pa.Table) -> pa.Table:
        return pa.table({
            "schema_ver": t["schema_ver"],
            "event_id": t["event_id"],
            "value_c": _int_units(t["value"], 100),
            "props": t["props"],
        })

    unified = (v1.map_batches(norm_v1, batch_format="pyarrow",
                              zero_copy_batch=True)
               .union(v2.map_batches(norm_v2, batch_format="pyarrow",
                                     zero_copy_batch=True)))

    def flags(t: pa.Table) -> pa.Table:
        return pa.table({
            "schema_ver": t["schema_ver"],
            "has": pc.cast(pc.is_valid(t["props"]), pa.int64()),
            "value_c": t["value_c"]})

    return combine_agg(unified, ["schema_ver"], flags,
                       [("has", "count"), ("has", "sum"),
                        ("value_c", "sum")],
                       named("schema_ver", "n_rows", "n_with_props",
                             "sum_value_c")).sort("schema_ver")


SCHEMA_EVOLUTION_SQL = """
WITH tagged AS (
  SELECT CASE WHEN hash(event_id) % 2 = 1 THEN 'v2' ELSE 'v1' END
           AS schema_ver,
         CAST(floor(value * 100.0 + 0.5) AS BIGINT) AS value_c,
         CASE WHEN hash(event_id) % 2 = 1 THEN props ELSE NULL END
           AS props
  FROM events
)
SELECT schema_ver, CAST(count(*) AS BIGINT) AS n_rows,
       CAST(count(props) AS BIGINT) AS n_with_props,
       CAST(sum(value_c) AS BIGINT) AS sum_value_c
FROM tagged GROUP BY 1 ORDER BY 1
"""


def seasonal_naive_mae(sf_dir: str) -> "ray.data.Dataset":
    """FORECAST BASELINE with a leakage-safe holdout: train on the
    hash(event_id)%4 != 0 rows, model each (event_type, hour-of-day)
    cell as its truncated-mean value in integer cents, score the held-out
    quarter with the cell prediction (global train mean when a cell is
    unseen) and report per-type n_test and summed absolute error -- the
    seasonal-naive yardstick every real forecaster must beat, evaluated
    distributed and integer-exact end to end.

    Scale shape: the train pass folds O(types x 24) integer partials
    in-batch; the tiny model is a plain closure broadcast; the scoring
    pass streams the test quarter with a vectorized cell lookup and
    O(types) partials.  The murmur split makes both halves
    oracle-regenerable."""
    from ..hashing import murmur64
    ds = _read(sf_dir, "events", ["event_id", "ts", "event_type",
                                  "value"])
    HOUR_US = np.int64(3_600_000_000)

    def featurize(t: pa.Table) -> pa.Table:
        us = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        eid = t["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "is_test": pa.array(murmur64(eid) % np.uint64(4)
                                == np.uint64(0)),
            "event_type": t["event_type"],
            "hr": pa.array((us // HOUR_US) % np.int64(24)),
            "value_c": _int_units(t["value"], 100),
        })

    feats = ds.map_batches(featurize, batch_format="pyarrow",
                           zero_copy_batch=True)

    model = combine_agg(
        feats, ["event_type", "hr"],
        lambda t: t.filter(pc.invert(t["is_test"])),
        [("value_c", "sum"), ("value_c", "count")],
        named("event_type", "hr", "s", "n")).to_pandas()
    # truncated integer means, same // semantics as the SQL
    cell = {(r.event_type, int(r.hr)): int(r.s) // int(r.n)
            for r in model.itertuples()}
    g_mean = int(model["s"].sum()) // int(model["n"].sum())
    cell_ref = ray.put((cell, g_mean))

    def score(t: pa.Table) -> pa.Table:
        t = t.filter(t["is_test"])
        m, gm = ray.get(cell_ref)
        et = t["event_type"].to_numpy(zero_copy_only=False)
        hr = t["hr"].to_numpy(zero_copy_only=False)
        vc = t["value_c"].to_numpy(zero_copy_only=False)
        ut, inv = np.unique(et, return_inverse=True)
        comp = inv.astype(np.int64) * np.int64(24) + hr
        uc = np.unique(comp)
        lut = np.array([m.get((ut[c // 24], int(c % 24)), gm)
                        for c in uc], dtype=np.int64)
        pred = lut[np.searchsorted(uc, comp)]
        return pa.table({"event_type": t["event_type"],
                         "err": np.abs(vc - pred)})

    return combine_agg(feats, ["event_type"], score,
                       [("err", "count"), ("err", "sum")],
                       named("event_type", "n_test", "sum_abs_err_c")
                       ).sort("event_type")


SEASONAL_NAIVE_MAE_SQL = """
WITH f AS (
  SELECT hash(event_id) % 4 = 0 AS is_test, event_type,
         (CAST(epoch_us(ts) AS BIGINT) // 3600000000) % 24 AS hr,
         CAST(floor(value * 100.0 + 0.5) AS BIGINT) AS value_c
  FROM events
), m AS (
  SELECT event_type, hr, CAST(sum(value_c) AS BIGINT) AS s,
         CAST(count(*) AS BIGINT) AS n
  FROM f WHERE NOT is_test GROUP BY 1, 2
), g AS (
  SELECT CAST(sum(s) AS BIGINT) // CAST(sum(n) AS BIGINT) AS gm FROM m
), scored AS (
  SELECT f.event_type,
         abs(f.value_c - coalesce(m.s // m.n, g.gm)) AS err
  FROM f LEFT JOIN m ON m.event_type = f.event_type AND m.hr = f.hr
  CROSS JOIN g
  WHERE f.is_test
)
SELECT event_type, CAST(count(*) AS BIGINT) AS n_test,
       CAST(sum(err) AS BIGINT) AS sum_abs_err_c
FROM scored GROUP BY 1 ORDER BY 1
"""


def ab_test_arm_stats(sf_dir: str,
                      conv_type: str = "purchase") -> "ray.data.Dataset":
    """EXPERIMENTATION SCAFFOLD: users are assigned to arms A/B by
    murmur64(user_id) % 2 (the deterministic, rerun- and engine-stable
    bucketing an experimentation platform uses), and each arm reports
    exact distinct users, distinct converters (users with at least one
    ``conv_type`` event) and the conversion rate in integer ppm.

    Scale shape: a grouped max of the converted bit per user (the
    presence-OR trick of user_churn_sets: each block folds to distinct
    users before the shuffle, so each user counts exactly once), then
    the arm rollup is O(2) rows."""
    from ..hashing import murmur64
    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    def presence(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": pc.cast(t["user_id"], pa.int64()),
            "conv": pc.cast(pc.equal(t["event_type"], conv_type),
                            pa.int64())})

    def arm_of(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        arm = (murmur64(uid) % np.uint64(2)).astype(np.int64)
        return pa.table({"arm": pa.array(np.array(["A", "B"])[arm],
                                         type=pa.string()),
                         "conv": t["conv_max"]})

    users = combine_agg(ds, ["user_id"], presence, [("conv", "max")],
                        arm_of)
    agg = combine_agg(users, ["arm"], lambda t: t,
                      [("conv", "count"), ("conv", "sum")],
                      named("arm", "n_users", "n_converted"))
    rows = sorted(agg.take_all(), key=lambda r: r["arm"])
    n = [int(r["n_users"]) for r in rows]
    c = [int(r["n_converted"]) for r in rows]
    return pa.table({
        "arm": pa.array([r["arm"] for r in rows], type=pa.string()),
        "n_users": pa.array(n, type=pa.int64()),
        "n_converted": pa.array(c, type=pa.int64()),
        "cvr_ppm": pa.array([ci * 1_000_000 // ni if ni else 0
                             for ci, ni in zip(c, n)], type=pa.int64()),
    })


AB_TEST_ARM_SQL = """
WITH u AS (
  SELECT user_id,
         max(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END)
           AS conv
  FROM events GROUP BY 1
), armed AS (
  SELECT CASE WHEN hash(user_id) % 2 = 0 THEN 'A' ELSE 'B' END AS arm,
         conv
  FROM u
)
SELECT arm, CAST(count(*) AS BIGINT) AS n_users,
       CAST(sum(conv) AS BIGINT) AS n_converted,
       CAST(sum(conv) * 1000000 // count(*) AS BIGINT) AS cvr_ppm
FROM armed GROUP BY 1 ORDER BY 1
"""


def session_bounce_stats(sf_dir: str,
                         gap_minutes: int = 30) -> pa.Table:
    """SESSION QUALITY: bounce accounting on top of the sessionization
    kernel -- per user-arm-free corpus total: sessions, single-event
    (bounced) sessions, and the bounce rate in integer ppm, plus total
    events per class.  The engagement-quality number a clickstream
    report leads with, computed in the same single co-partition pass as
    sessionization (the kernel emits per-session lengths; the rollup is
    one reduceat)."""
    from ..stages.partition import fit_partitions, partition_by
    gap_us = int(gap_minutes) * 60 * 1_000_000
    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": pc.cast(t["user_id"], pa.int64()),
            "us": pc.cast(t["ts"], pa.int64()),
        })

    empty = pa.table({"n_sessions": pa.array([], type=pa.int64()),
                      "n_bounced": pa.array([], type=pa.int64()),
                      "n_events": pa.array([], type=pa.int64())})

    def bounce(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return empty
        u = group["user_id"].to_numpy(zero_copy_only=False)
        us = group["us"].to_numpy(zero_copy_only=False)
        order = np.lexsort((us, u))
        u, us = u[order], us[order]
        new_session = np.concatenate(
            [[True], (np.diff(u) != 0) | (np.diff(us) > gap_us)])
        starts = np.nonzero(new_session)[0]
        sizes = np.diff(np.append(starts, u.shape[0]))
        return pa.table({
            "n_sessions": pa.array([starts.shape[0]], type=pa.int64()),
            "n_bounced": pa.array([int((sizes == 1).sum())],
                                  type=pa.int64()),
            "n_events": pa.array([u.shape[0]], type=pa.int64()),
        })

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    parts = partition_by(prepped, ["user_id"], fit_partitions(32),
                         bounce, empty)
    agg = parts.aggregate(Sum("n_sessions", alias_name="s"),
                          Sum("n_bounced", alias_name="b"),
                          Sum("n_events", alias_name="e"))
    s, b, e = int(agg["s"] or 0), int(agg["b"] or 0), int(agg["e"] or 0)
    return pa.table({
        "n_sessions": pa.array([s], type=pa.int64()),
        "n_bounced": pa.array([b], type=pa.int64()),
        "n_events": pa.array([e], type=pa.int64()),
        "bounce_ppm": pa.array([b * 1_000_000 // s if s else 0],
                               type=pa.int64()),
    })


SESSION_BOUNCE_SQL = """
WITH v AS (
  SELECT user_id, CAST(epoch_us(ts) AS BIGINT) AS us FROM events
), flags AS (
  SELECT user_id, us,
         CASE WHEN lag(us) OVER w IS NULL
                OR us - lag(us) OVER w > 1800000000
              THEN 1 ELSE 0 END AS new_s
  FROM v WINDOW w AS (PARTITION BY user_id ORDER BY us)
), seg AS (
  SELECT user_id,
         sum(new_s) OVER (PARTITION BY user_id ORDER BY us
                          ROWS UNBOUNDED PRECEDING) AS seg
  FROM flags
), sized AS (
  SELECT user_id, seg, CAST(count(*) AS BIGINT) AS sz
  FROM seg GROUP BY 1, 2
)
SELECT CAST(count(*) AS BIGINT) AS n_sessions,
       CAST(count(*) FILTER (WHERE sz = 1) AS BIGINT) AS n_bounced,
       CAST(sum(sz) AS BIGINT) AS n_events,
       CAST(count(*) FILTER (WHERE sz = 1) * 1000000 // count(*)
            AS BIGINT) AS bounce_ppm
FROM sized
"""


def activity_streak_stats(sf_dir: str) -> "ray.data.Dataset":
    """GAPS-AND-ISLANDS: each user's longest streak of CONSECUTIVE
    active days (distinct event days), reported as a histogram
    (streak length -> number of users whose maximum streak is exactly
    that) -- the retention-quality view behind "7-day streak" product
    metrics, and the classic island-detection window pattern.

    Dataflow: per-block DISTINCT (user, day) partials, a user-keyed
    co-partition dedups days globally and finds islands with ONE sorted
    diff pass (consecutive days differ by 1; reduceat over island
    boundaries gives lengths; a max per user), then an O(streak
    lengths) histogram rollup."""
    from ..stages.partition import fit_partitions, partition_by
    ds = _read(sf_dir, "events", ["user_id", "ts"])
    DAY_US = np.int64(86_400_000_000)

    pair_empty = pa.table({"user_id": pa.array([], type=pa.int64()),
                           "day": pa.array([], type=pa.int64())})

    def block_days(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pair_empty
        uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        day = (pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
               // DAY_US)
        comp = np.unique(uid * np.int64(1 << 20) + day)
        return pa.table({"user_id": pa.array(comp >> np.int64(20)),
                         "day": pa.array(comp & np.int64((1 << 20) - 1))})

    best_empty = pa.table({"streak_days": pa.array([], type=pa.int64())})

    def islands(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return best_empty
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        day = t["day"].to_numpy(zero_copy_only=False)
        comp = np.unique(uid * np.int64(1 << 20) + day)
        u, d = comp >> np.int64(20), comp & np.int64((1 << 20) - 1)
        new_island = np.ones(u.shape[0], dtype=bool)
        new_island[1:] = (u[1:] != u[:-1]) | (d[1:] != d[:-1] + 1)
        starts = np.nonzero(new_island)[0]
        lens = np.diff(np.append(starts, u.shape[0]))
        iu = u[starts]
        new_user = np.ones(iu.shape[0], dtype=bool)
        new_user[1:] = iu[1:] != iu[:-1]
        ustarts = np.nonzero(new_user)[0]
        best = np.maximum.reduceat(lens, ustarts)
        return pa.table({"streak_days": pa.array(best.astype(np.int64))})

    pairs = ds.map_batches(block_days, batch_format="pyarrow",
                           zero_copy_batch=True)
    per_user = partition_by(pairs, ["user_id"], fit_partitions(32),
                            islands, best_empty)
    return combine_agg(per_user, ["streak_days"], lambda t: t,
                       [("streak_days", "count")],
                       named("streak_days", "n_users")).sort("streak_days")


ACTIVITY_STREAK_SQL = """
WITH d AS (
  SELECT DISTINCT user_id,
         CAST(epoch_us(ts) AS BIGINT) // 86400000000 AS day
  FROM events
), isl AS (
  SELECT user_id, day,
         day - row_number() OVER (PARTITION BY user_id ORDER BY day)
           AS grp
  FROM d
), lens AS (
  SELECT user_id, CAST(count(*) AS BIGINT) AS len
  FROM isl GROUP BY user_id, grp
), best AS (
  SELECT user_id, max(len) AS streak_days FROM lens GROUP BY 1
)
SELECT streak_days, CAST(count(*) AS BIGINT) AS n_users
FROM best GROUP BY 1 ORDER BY 1
"""


def prefix_autocomplete_topk(sf_dir: str, plen: int = 3,
                             k: int = 5) -> "ray.data.Dataset":
    """AUTOCOMPLETE INDEX: for every ``plen``-character token prefix,
    the ``k`` most frequent completions with exact corpus counts and
    deterministic (count desc, token asc) ranks -- the materialization
    behind a type-ahead box, built as one streaming pass over the
    corpus.

    Scale shape: per-block (token, count) partials, the one exchange is
    the vocab-bounded (token) groupby, and the per-prefix rank is a
    block-local keep-k prereduce over the merged vocabulary --
    O(prefixes x k) final rows."""
    ds = _read(sf_dir, "documents", ["text"])
    vocab = combine_agg(ds, ["tok"], _tokens, [("tok", "count")],
                        named("tok", "cnt"))

    out_empty = pa.table({"prefix": pa.array([], type=pa.string()),
                          "tok": pa.array([], type=pa.string()),
                          "cnt": pa.array([], type=pa.int64()),
                          "rnk": pa.array([], type=pa.int64())})

    def keep_k(t: pa.Table, with_rank: bool) -> pa.Table:
        if t.num_rows == 0:
            return out_empty if with_rank \
                else out_empty.drop_columns(["rnk"])
        if "prefix" in t.column_names:
            pref = t["prefix"].to_numpy(zero_copy_only=False)
        else:
            long_enough = pc.greater_equal(
                pc.utf8_length(t["tok"]), pa.scalar(plen))
            t = t.filter(long_enough)
            if t.num_rows == 0:
                return out_empty if with_rank \
                    else out_empty.drop_columns(["rnk"])
            pref = pc.utf8_slice_codeunits(
                t["tok"], 0, plen).to_numpy(zero_copy_only=False)
        tok = t["tok"].to_numpy(zero_copy_only=False)
        cnt = pc.cast(t["cnt"], pa.int64()).to_numpy(zero_copy_only=False)
        up, pinv = np.unique(pref, return_inverse=True)
        order = np.lexsort((tok, -cnt, pinv))
        p_s = pinv[order]
        new_grp = np.ones(order.shape[0], dtype=bool)
        new_grp[1:] = p_s[1:] != p_s[:-1]
        starts = np.nonzero(new_grp)[0]
        first = np.repeat(starts,
                          np.diff(np.append(starts, order.shape[0])))
        rank = np.arange(order.shape[0]) - first
        sel = rank < k
        keep = order[sel]
        out = {"prefix": pa.array(up[p_s[sel]].tolist(),
                                  type=pa.string()),
               "tok": pa.array(tok[keep].tolist(), type=pa.string()),
               "cnt": pa.array(cnt[keep], type=pa.int64())}
        if with_rank:
            out["rnk"] = pa.array(rank[sel] + 1, type=pa.int64())
        return pa.table(out)

    prereduced = vocab.map_batches(lambda t: keep_k(t, False),
                                   batch_format="pyarrow")
    from ..stages.partition import partition_by
    return partition_by(prereduced, [], 1,
                        lambda t: keep_k(t, True), out_empty)


PREFIX_AUTOCOMPLETE_SQL = """
WITH toks AS (
  SELECT unnest(string_split(text, ' ')) AS tok FROM documents
), counted AS (
  SELECT tok, CAST(count(*) AS BIGINT) AS cnt
  FROM toks WHERE length(tok) >= 3 GROUP BY 1
)
SELECT substr(tok, 1, 3) AS prefix, tok, cnt,
       CAST(row_number() OVER (PARTITION BY substr(tok, 1, 3)
                               ORDER BY cnt DESC, tok) AS BIGINT) AS rnk
FROM counted
QUALIFY rnk <= 5
ORDER BY 1, 4
"""


def local_supplier_volume(sf_dir: str,
                          region: str = "ASIA") -> "ray.data.Dataset":
    """TPC-H-Q5-SHAPED 6-table join: revenue from lineitems whose
    CUSTOMER and SUPPLIER sit in the SAME nation of one region --
    the classic join shape with a post-join equality predicate between
    two fact-side attributes (c_nationkey = s_nationkey), which no
    single join key can express.  Output per nation: order-line count
    and exact revenue cents (price * (1 - discount)).

    Scale shape: nation/region and supplier fold into broadcast sorted
    lookup arrays (genuinely small at any SF); orders gains its
    customer's nation via ONE custkey co-partition join (customer is
    fact-scale -- never broadcast); lineitem joins the slimmed
    (orderkey, c_nat) rows via ONE orderkey co-partition; the same-nation
    + region filter happens inside that kernel and the grouped combiner
    folds revenue per nation, so the final exchange is O(nations) rows
    per block.  Two co-partition exchanges
    total, both on already-pruned 16-byte-ish rows."""
    import pyarrow.parquet as pq
    from ..stages.partition import fit_partitions, partition_by

    nation = pq.read_table(f"{sf_dir}/nation.parquet")
    reg = pq.read_table(f"{sf_dir}/region.parquet")
    rkey = reg.filter(pc.equal(reg["r_name"], region))["r_regionkey"][0]
    nat_in = nation.filter(pc.equal(nation["n_regionkey"], rkey))
    nat_keys = np.sort(nat_in["n_nationkey"].to_numpy(
        zero_copy_only=False).astype(np.int64))
    nat_sorted = nat_in.take(pc.sort_indices(nat_in["n_nationkey"]))
    nat_names = np.asarray(nat_sorted["n_name"].to_pylist())

    sup = pq.read_table(f"{sf_dir}/supplier.parquet",
                        columns=["s_suppkey", "s_nationkey"])
    s_order = pc.sort_indices(sup["s_suppkey"])
    sup_keys = sup["s_suppkey"].take(s_order).to_numpy(
        zero_copy_only=False).astype(np.int64)
    sup_nat = sup["s_nationkey"].take(s_order).to_numpy(
        zero_copy_only=False).astype(np.int64)
    lut_ref = ray.put((nat_keys, nat_names, sup_keys, sup_nat))

    # stage 1: orders gain c_nationkey via a custkey co-partition join
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])

    def o_norm(t: pa.Table) -> pa.Table:
        return pa.table({"k": pc.cast(t["o_custkey"], pa.int64()),
                         "o_orderkey": pc.cast(t["o_orderkey"],
                                               pa.int64()),
                         "c_nat": pa.nulls(t.num_rows, type=pa.int64())})

    def c_norm(t: pa.Table) -> pa.Table:
        return pa.table({"k": pc.cast(t["c_custkey"], pa.int64()),
                         "o_orderkey": pa.nulls(t.num_rows,
                                                type=pa.int64()),
                         "c_nat": pc.cast(t["c_nationkey"], pa.int64())})

    both = (orders.map_batches(o_norm, batch_format="pyarrow",
                               zero_copy_batch=True)
            .union(cust.map_batches(c_norm, batch_format="pyarrow",
                                    zero_copy_batch=True)))

    onat_empty = pa.table({"o_orderkey": pa.array([], type=pa.int64()),
                           "c_nat": pa.array([], type=pa.int64())})

    def join_cust(t: pa.Table) -> pa.Table:
        k = t["k"].to_numpy(zero_copy_only=False)
        ok = t["o_orderkey"].to_numpy(zero_copy_only=False)
        cn = t["c_nat"].to_numpy(zero_copy_only=False)
        is_c = ~np.isnan(cn) if cn.dtype.kind == "f" else \
            pc.is_valid(t["c_nat"]).to_numpy(zero_copy_only=False)
        ck = k[is_c]
        cv = cn[is_c].astype(np.int64)
        order = np.argsort(ck, kind="stable")
        ck, cv = ck[order], cv[order]
        is_o = ~is_c
        pos = np.searchsorted(ck, k[is_o])
        pos = np.minimum(pos, max(ck.shape[0] - 1, 0))
        hit = (ck.shape[0] > 0) & (ck[pos] == k[is_o]) \
            if ck.shape[0] else np.zeros(int(is_o.sum()), dtype=bool)
        return pa.table({
            "o_orderkey": pa.array(ok[is_o][hit].astype(np.int64)),
            "c_nat": pa.array(cv[pos[hit]]),
        })

    onat = partition_by(both, ["k"], fit_partitions(32), join_cust,
                        onat_empty)

    # stage 2: lineitem joins (orderkey, c_nat); filter in-kernel
    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_suppkey", "l_extendedprice",
                "l_discount"])

    def li_norm(t: pa.Table) -> pa.Table:
        p = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        d = t["l_discount"].to_numpy(zero_copy_only=False)
        rev = np.floor(p * (1.0 - d) * 100.0 + 0.5).astype(np.int64)
        return pa.table({"k": pc.cast(t["l_orderkey"], pa.int64()),
                         "sk": pc.cast(t["l_suppkey"], pa.int64()),
                         "rev_c": pa.array(rev),
                         "c_nat": pa.nulls(t.num_rows, type=pa.int64())})

    def on_norm(t: pa.Table) -> pa.Table:
        return pa.table({"k": t["o_orderkey"],
                         "sk": pa.nulls(t.num_rows, type=pa.int64()),
                         "rev_c": pa.nulls(t.num_rows, type=pa.int64()),
                         "c_nat": t["c_nat"]})

    both2 = (li.map_batches(li_norm, batch_format="pyarrow",
                            zero_copy_batch=True)
             .union(onat.map_batches(on_norm, batch_format="pyarrow",
                                     zero_copy_batch=True)))

    out_empty = pa.table({"n_name": pa.array([], type=pa.string()),
                          "rev_c": pa.array([], type=pa.int64())})

    def join_fold(t: pa.Table) -> pa.Table:
        nk, nn, sk_lut, sn_lut = ray.get(lut_ref)
        k = t["k"].to_numpy(zero_copy_only=False)
        is_o = pc.is_valid(t["c_nat"]).to_numpy(zero_copy_only=False)
        okk = k[is_o]
        ocn = t["c_nat"].to_numpy(zero_copy_only=False)[is_o] \
            .astype(np.int64)
        order = np.argsort(okk, kind="stable")
        okk, ocn = okk[order], ocn[order]
        is_l = ~is_o
        if not is_l.any() or okk.shape[0] == 0:
            return out_empty
        lk = k[is_l]
        pos = np.searchsorted(okk, lk)
        pos = np.minimum(pos, okk.shape[0] - 1)
        hit = okk[pos] == lk
        c_nat = ocn[pos]
        sk = t["sk"].to_numpy(zero_copy_only=False)[is_l] \
            .astype(np.int64)
        spos = np.searchsorted(sk_lut, sk)
        spos = np.minimum(spos, sk_lut.shape[0] - 1)
        shit = sk_lut[spos] == sk
        s_nat = sn_lut[spos]
        npos = np.searchsorted(nk, c_nat)
        npos_c = np.minimum(npos, nk.shape[0] - 1)
        in_region = nk[npos_c] == c_nat
        m = hit & shit & (c_nat == s_nat) & in_region
        if not m.any():
            return out_empty
        rev = t["rev_c"].to_numpy(zero_copy_only=False)[is_l] \
            .astype(np.int64)
        return pa.table({
            "n_name": pa.array(nn[npos_c[m]].tolist(), type=pa.string()),
            "rev_c": pa.array(rev[m]),
        })

    joined = partition_by(both2, ["k"], fit_partitions(32), join_fold,
                          out_empty)
    return combine_agg(joined, ["n_name"], lambda t: t,
                       [("rev_c", "count"), ("rev_c", "sum")],
                       named("n_name", "n_lines", "revenue_c")
                       ).sort("n_name")


LOCAL_SUPPLIER_VOLUME_SQL = """
SELECT n_name,
       CAST(count(*) AS BIGINT) AS n_lines,
       CAST(sum(CAST(floor(l_extendedprice * (1.0 - l_discount)
                           * 100.0 + 0.5) AS BIGINT)) AS BIGINT)
         AS revenue_c
FROM lineitem
JOIN orders ON l_orderkey = o_orderkey
JOIN customer ON o_custkey = c_custkey
JOIN supplier ON l_suppkey = s_suppkey
JOIN nation ON c_nationkey = n_nationkey
JOIN region ON n_regionkey = r_regionkey
WHERE r_name = 'ASIA' AND c_nationkey = s_nationkey
GROUP BY 1 ORDER BY 1
"""


def revenue_gini(sf_dir: str, n_buckets: int | None = None) -> pa.Table:
    """REVENUE CONCENTRATION: the exact Gini coefficient of order totals
    (0 = everyone equal, 1 = one order owns everything) in integer ppm
    via G = (2 * sum(i * x_i) - (n + 1) * sum(x)) / (n * sum(x)) over
    the (cents, key)-ordered values -- the inequality lens a marketplace
    or corpus-source analysis reads before rebalancing.

    Scale shape: the global_order_ranks two-pass range-bucket scheme --
    O(buckets) count/offset exchange, then per-bucket local sorts
    emitting ONE (sum_rank_cents, n, sum_cents) partial each; the
    driver folds O(buckets) rows with Python big ints, so the final
    ratio is exact at any magnitude.  Each bucket partial is checked
    against int64 overflow and the fix (raise n_buckets) is named in
    the error."""
    from ray.data.aggregate import Max as _Max, Min as _Min
    from ..stages.partition import fit_partitions, partition_by
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "key": pc.cast(t["o_orderkey"], pa.int64()),
            "cents": _int_units(t["o_totalprice"], 100),
        })

    rows = ds.map_batches(prep, batch_format="pyarrow",
                          zero_copy_batch=True)
    mm = rows.aggregate(_Min("cents"), _Max("cents"))
    lo, hi = int(mm["min(cents)"]), int(mm["max(cents)"])
    nb = n_buckets or fit_partitions(32)
    width = max(1, (hi - lo + nb) // nb)

    def bucket_of(c: np.ndarray) -> np.ndarray:
        return np.minimum((c - lo) // width, nb - 1)

    def add_bucket(t: pa.Table) -> pa.Table:
        c = t["cents"].to_numpy(zero_copy_only=False)
        return t.append_column("b", pa.array(bucket_of(c)))

    counts = combine_agg(rows, ["b"],
                         lambda t: add_bucket(t).select(["b"]),
                         [("b", "count")], named("b", "n")).to_pandas()
    per_bucket = np.zeros(nb, dtype=np.int64)
    per_bucket[counts["b"].to_numpy()] = counts["n"].to_numpy()
    offsets = np.concatenate(([0], np.cumsum(per_bucket)[:-1]))

    empty = pa.table({"srx": pa.array([], type=pa.int64()),
                      "n": pa.array([], type=pa.int64()),
                      "sx": pa.array([], type=pa.int64())})

    def bucket_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        b = int(t["b"][0].as_py())
        c = t["cents"].to_numpy(zero_copy_only=False)
        k = t["key"].to_numpy(zero_copy_only=False)
        order = np.lexsort((k, c))
        c_s = c[order]
        rnk = offsets[b] + 1 + np.arange(c_s.shape[0], dtype=np.int64)
        if int(rnk[-1]) * int(c_s.max()) * c_s.shape[0] >= (1 << 62):
            raise OverflowError(
                "revenue_gini: bucket partial would overflow int64; "
                "raise n_buckets so each bucket holds fewer rows")
        srx = int(np.sum(rnk * c_s))
        return pa.table({"srx": pa.array([srx], type=pa.int64()),
                         "n": pa.array([c_s.shape[0]], type=pa.int64()),
                         "sx": pa.array([int(c_s.sum())],
                                        type=pa.int64())})

    parts = partition_by(rows.map_batches(add_bucket,
                                          batch_format="pyarrow"),
                         ["b"], nb, bucket_partial, empty).take_all()
    srx = sum(int(r["srx"]) for r in parts)   # Python big ints: exact
    n = sum(int(r["n"]) for r in parts)
    sx = sum(int(r["sx"]) for r in parts)
    gini_ppm = (2 * srx - (n + 1) * sx) * 1_000_000 // (n * sx)
    return pa.table({
        "n": pa.array([n], type=pa.int64()),
        "sum_cents": pa.array([sx], type=pa.int64()),
        "gini_ppm": pa.array([gini_ppm], type=pa.int64()),
    })


REVENUE_GINI_SQL = """
WITH v AS (
  SELECT o_orderkey AS key,
         CAST(floor(o_totalprice * 100.0 + 0.5) AS BIGINT) AS cents
  FROM orders
), r AS (
  SELECT cents,
         CAST(row_number() OVER (ORDER BY cents, key) AS HUGEINT) AS rnk
  FROM v
)
SELECT CAST(count(*) AS BIGINT) AS n,
       CAST(sum(cents) AS BIGINT) AS sum_cents,
       CAST((2 * sum(rnk * cents)
             - (count(*) + 1) * sum(CAST(cents AS HUGEINT)))
            * 1000000 // (count(*) * sum(CAST(cents AS HUGEINT)))
            AS BIGINT) AS gini_ppm
FROM r
"""


def top_session_paths(sf_dir: str, gap_minutes: int = 30,
                      k: int = 10) -> "ray.data.Dataset":
    """NAVIGATION PATHS: the k most frequent 3-step event-type paths
    (trigrams of consecutive events WITHIN a session, sessions split by
    the usual inactivity gap) with exact corpus counts and deterministic
    (count desc, path asc) ranks -- the "where do users actually go"
    table of clickstream analytics.

    Dataflow: the sessionization co-partition kernel extended by two
    shifted compares -- a trigram is valid when positions i, i+1, i+2
    share a session -- emits each valid trigram's path string; the
    grouped combiner counts them (O(types^3)-bounded partials) and the
    final ranking is one keep-k pass."""
    from ..stages.partition import fit_partitions, partition_by
    gap_us = int(gap_minutes) * 60 * 1_000_000
    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id",
                                  "event_type"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": pc.cast(t["user_id"], pa.int64()),
            "us": pc.cast(t["ts"], pa.int64()),
            "event_id": t["event_id"],
            "event_type": t["event_type"],
        })

    empty = pa.table({"path": pa.array([], type=pa.string())})

    def paths(group: pa.Table) -> pa.Table:
        if group.num_rows < 3:
            return empty
        u = group["user_id"].to_numpy(zero_copy_only=False)
        us = group["us"].to_numpy(zero_copy_only=False)
        eid = group["event_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, us, u))
        u, us = u[order], us[order]
        et = pc.take(group["event_type"], pa.array(order))
        same = (u[1:] == u[:-1]) & (us[1:] - us[:-1] <= gap_us)
        # i..i+2 in one session
        i = np.flatnonzero(same[:-1] & same[1:])
        return pa.table({"path": pc.binary_join_element_wise(
            pc.take(et, i), pc.take(et, i + 1), pc.take(et, i + 2), ">")})

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    partials = partition_by(prepped, ["user_id"], fit_partitions(32),
                            paths, empty)
    merged = combine_agg(partials, ["path"], lambda t: t,
                         [("path", "count")], named("path", "cnt"))

    out_empty = pa.table({"path": pa.array([], type=pa.string()),
                          "cnt": pa.array([], type=pa.int64()),
                          "rnk": pa.array([], type=pa.int64())})

    def keep_k(t: pa.Table, with_rank: bool) -> pa.Table:
        if t.num_rows == 0:
            return out_empty if with_rank \
                else out_empty.drop_columns(["rnk"])
        p = t["path"].to_numpy(zero_copy_only=False)
        c = pc.cast(t["cnt"], pa.int64()).to_numpy(zero_copy_only=False)
        order = np.lexsort((p, -c))[:k]
        out = {"path": pa.array(p[order].tolist(), type=pa.string()),
               "cnt": pa.array(c[order], type=pa.int64())}
        if with_rank:
            out["rnk"] = pa.array(
                np.arange(1, order.shape[0] + 1, dtype=np.int64))
        return pa.table(out)

    prereduced = merged.map_batches(lambda t: keep_k(t, False),
                                    batch_format="pyarrow")
    from ..stages.partition import partition_by as _pb
    return _pb(prereduced, [], 1, lambda t: keep_k(t, True), out_empty)


TOP_SESSION_PATHS_SQL = """
WITH v AS (
  SELECT user_id, CAST(epoch_us(ts) AS BIGINT) AS us, event_id,
         event_type
  FROM events
), w AS (
  SELECT event_type AS c,
         lag(event_type, 1) OVER w AS b,
         lag(event_type, 2) OVER w AS a,
         us - lag(us, 1) OVER w AS g1,
         lag(us, 1) OVER w - lag(us, 2) OVER w AS g2
  FROM v WINDOW w AS (PARTITION BY user_id ORDER BY us, event_id)
), tri AS (
  SELECT a || '>' || b || '>' || c AS path
  FROM w
  WHERE a IS NOT NULL AND g1 <= 1800000000 AND g2 <= 1800000000
), counted AS (
  SELECT path, CAST(count(*) AS BIGINT) AS cnt FROM tri GROUP BY 1
)
SELECT path, cnt,
       CAST(row_number() OVER (ORDER BY cnt DESC, path) AS BIGINT)
         AS rnk
FROM counted
QUALIFY rnk <= 10
ORDER BY 3
"""


def embedding_gram_stats(sf_dir: str) -> "ray.data.Dataset":
    """GRAM / SCATTER MATRIX of the embedding column: G = sum over
    vectors of x x^T in exact integer milli-units, emitted as the upper
    triangle (i <= j) -- the d x d sufficient statistic behind PCA,
    whitening and covariance drift checks, reduced distributed so no
    raw vectors ever leave their blocks.

    Scale shape: each block folds ONE (d, n) @ (n, d) integer matmul
    into a d^2 partial (d=64 -> 32 KB), the exchange is O(d^2) rows
    per block, and the driver never sees anything larger than the
    matrix itself."""
    ds = _read(sf_dir, "embeddings", ["embedding"])
    return combine_agg(ds, ["i", "j"], _gram_upper, [("s", "sum")],
                       named("i", "j", "s")).sort(["i", "j"])


def _gram_upper(t: pa.Table) -> pa.Table:
    """The batch's upper-triangle (i <= j) Gram partial X^T X of the
    milli-unit ``embedding`` matrix: ONE integer matmul, d(d+1)/2 rows."""
    from ..functions.vectors import list_to_matrix
    if t.num_rows == 0:
        return pa.table({"i": pa.array([], type=pa.int64()),
                         "j": pa.array([], type=pa.int64()),
                         "s": pa.array([], type=pa.int64())})
    x = np.floor(list_to_matrix(t["embedding"], dtype=np.float64)
                 * 1000.0 + 0.5).astype(np.int64)
    g = x.T @ x
    iu, ju = np.triu_indices(g.shape[0])
    return pa.table({"i": pa.array(iu.astype(np.int64)),
                     "j": pa.array(ju.astype(np.int64)),
                     "s": pa.array(g[iu, ju])})


EMBEDDING_GRAM_SQL = """
WITH nums AS (
  SELECT CAST(range AS BIGINT) AS i FROM range(1, 4097)
), q AS (
  SELECT vec_id, CAST(i - 1 AS BIGINT) AS dim,
         CAST(floor(CAST(embedding[i] AS DOUBLE) * 1000.0 + 0.5)
              AS BIGINT) AS x
  FROM embeddings JOIN nums ON nums.i <= len(embedding)
)
SELECT a.dim AS i, b.dim AS j,
       CAST(sum(a.x * b.x) AS BIGINT) AS s
FROM q a JOIN q b ON a.vec_id = b.vec_id AND a.dim <= b.dim
GROUP BY 1, 2 ORDER BY 1, 2
"""


_PI_MOD = 999_999_999_989  # largest prime < 1e12: exact residue channel


def gram_power_iteration(sf_dir: str) -> pa.Table:
    """POWER ITERATION toward the top principal direction, run on the
    DISTRIBUTED Gram sufficient statistic: the cluster reduces
    G = X^T X once (the embedding_gram_stats partials -- no raw vector
    ever leaves its block), then two exact iterations u1 = G 1 and
    u2 = G u1 unfold in Python big-int arithmetic on the d x d matrix.
    Per dimension the output carries u1 exactly (int64-safe by
    construction) and u2 as a residue mod a fixed prime (u2 exceeds
    int64 by design; the residue is the exact-equality channel the gate
    can hash).  This is how iterative linear algebra should meet a
    100 TB corpus: one distributed reduction per STATISTIC, iterations
    on the tiny dense result.
    """
    ds = _read(sf_dir, "embeddings", ["embedding"])
    tri = combine_agg(ds, ["i", "j"], _gram_upper, [("s", "sum")],
                      named("i", "j", "s")).to_pandas()
    d = int(tri["j"].max()) + 1
    G = [[0] * d for _ in range(d)]
    for r in tri.itertuples():
        i, j, s = int(r.i), int(r.j), int(r.s)
        G[i][j] = s
        G[j][i] = s
    u1 = [sum(G[i]) for i in range(d)]                 # G @ ones
    u2 = [sum(G[i][j] * u1[j] for j in range(d)) for i in range(d)]
    return pa.table({
        "dim": pa.array(np.arange(d, dtype=np.int64)),
        "u1": pa.array(u1, type=pa.int64()),
        "u2_mod": pa.array([u % _PI_MOD for u in u2], type=pa.int64()),
    })


GRAM_POWER_ITERATION_SQL = """
WITH nums AS (
  SELECT CAST(range AS BIGINT) AS i FROM range(1, 4097)
), q AS (
  SELECT vec_id, CAST(i - 1 AS BIGINT) AS dim,
         CAST(floor(CAST(embedding[i] AS DOUBLE) * 1000.0 + 0.5)
              AS BIGINT) AS x
  FROM embeddings JOIN nums ON nums.i <= len(embedding)
), g AS (
  SELECT a.dim AS i, b.dim AS j,
         CAST(sum(a.x * b.x) AS HUGEINT) AS s
  FROM q a JOIN q b ON a.vec_id = b.vec_id
  GROUP BY 1, 2
), u1 AS (
  SELECT i, sum(s) AS u FROM g GROUP BY 1
), u2 AS (
  SELECT g.i, sum(g.s * u1.u) AS u
  FROM g JOIN u1 ON u1.i = g.j GROUP BY 1
)
SELECT u1.i AS dim, CAST(u1.u AS BIGINT) AS u1,
       CAST(((u2.u % 999999999989) + 999999999989) % 999999999989
            AS BIGINT) AS u2_mod
FROM u1 JOIN u2 ON u2.i = u1.i
ORDER BY 1
"""


def sorted_export_stats(sf_dir: str, n_buckets: int = 16,
                        out_root: str | None = None) -> pa.Table:
    """GLOBAL SORTED MATERIALIZATION: orders are exported as one
    parquet file per value-range bucket, each file internally sorted by
    (cents, key) and the files non-overlapping in bucket order -- a
    total global order ON DISK without any single node ever sorting
    more than one bucket (the external-sort export shape behind ORDER
    BY materializations and merge-ready layouts).  Output per bucket:
    row count and the min/max cents actually written, read back FROM
    THE EXPORTED FILES (the oracle recomputes the identical bucket
    math from the raw table, so a mis-written file hash-fails).

    Scale shape: one streaming Min/Max pass fixes the bucket grid
    (fixed n_buckets, engine-independent); one bucket co-partition
    sorts locally and writes its own file; the stats read-back opens
    O(buckets) footers' worth of data.  Raise n_buckets so a bucket
    fits a worker at 100 TB."""
    import shutil

    import pyarrow.parquet as pq
    from ray.data.aggregate import Max as _Max, Min as _Min
    from ..stages.partition import partition_by

    root = out_root or "/tmp/p2pdds_gate/orders_sorted"
    shutil.rmtree(root, ignore_errors=True)
    import os
    os.makedirs(root, exist_ok=True)

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "key": pc.cast(t["o_orderkey"], pa.int64()),
            "cents": _int_units(t["o_totalprice"], 100),
        })

    rows = ds.map_batches(prep, batch_format="pyarrow",
                          zero_copy_batch=True)
    mm = rows.aggregate(_Min("cents"), _Max("cents"))
    lo, hi = int(mm["min(cents)"]), int(mm["max(cents)"])
    width = max(1, (hi - lo + n_buckets) // n_buckets)

    def add_bucket(t: pa.Table) -> pa.Table:
        c = t["cents"].to_numpy(zero_copy_only=False)
        b = np.minimum((c - lo) // width, n_buckets - 1)
        return t.append_column("b", pa.array(b))

    empty = pa.table({"bucket": pa.array([], type=pa.int64()),
                      "n": pa.array([], type=pa.int64())})

    def sort_and_write(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        b = int(t["b"][0].as_py())
        c = t["cents"].to_numpy(zero_copy_only=False)
        k = t["key"].to_numpy(zero_copy_only=False)
        order = np.lexsort((k, c))
        out = pa.table({"cents": pa.array(c[order]),
                        "key": pa.array(k[order])})
        pq.write_table(out, f"{root}/part-{b:05d}.parquet")
        return pa.table({"bucket": pa.array([b], type=pa.int64()),
                         "n": pa.array([t.num_rows], type=pa.int64())})

    written = partition_by(rows.map_batches(add_bucket,
                                            batch_format="pyarrow"),
                           ["b"], n_buckets, sort_and_write,
                           empty).take_all()
    buckets = sorted(int(r["bucket"]) for r in written)
    ns, mins, maxs = [], [], []
    for b in buckets:   # stats from the EXPORTED files themselves
        t = pq.read_table(f"{root}/part-{b:05d}.parquet",
                          columns=["cents"])
        c = t["cents"].to_numpy()
        ns.append(len(c))
        mins.append(int(c.min()))
        maxs.append(int(c.max()))
    return pa.table({
        "bucket": pa.array(buckets, type=pa.int64()),
        "n": pa.array(ns, type=pa.int64()),
        "min_cents": pa.array(mins, type=pa.int64()),
        "max_cents": pa.array(maxs, type=pa.int64()),
    })


SORTED_EXPORT_SQL = """
WITH v AS (
  SELECT CAST(floor(o_totalprice * 100.0 + 0.5) AS BIGINT) AS cents
  FROM orders
), g AS (
  SELECT min(cents) AS lo,
         greatest(1, (max(cents) - min(cents) + 16) // 16) AS w
  FROM v
), b AS (
  SELECT least((cents - g.lo) // g.w, 15) AS bucket, cents
  FROM v CROSS JOIN g
)
SELECT bucket, CAST(count(*) AS BIGINT) AS n,
       CAST(min(cents) AS BIGINT) AS min_cents,
       CAST(max(cents) AS BIGINT) AS max_cents
FROM b GROUP BY 1 ORDER BY 1
"""


def bpe_pair_counts(sf_dir: str, k: int = 10) -> "ray.data.Dataset":
    """ONE BPE TRAINING STEP: the k most frequent adjacent character
    pairs inside whitespace tokens across the corpus (cross-token pairs
    masked), exact counts, deterministic (count desc, pair asc) ranks --
    the statistic a byte-pair-encoding tokenizer trainer computes every
    merge round; run it in a loop with a merge-apply map for full BPE.

    Dataflow: per block, ONE vectorized pass over the flat text buffer
    encodes every within-token byte pair as code = b0 * 256 + b1 (pairs
    never materialize as strings until the final k rows); the combiner
    counts the codes, so the exchange is O(distinct pairs) per block and
    the ranking is the standard keep-k."""
    ds = _read(sf_dir, "documents", ["text"])

    empty = pa.table({"code": pa.array([], type=pa.int64())})

    def block_pairs(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        toks = pc.split_pattern(t["text"], pattern=" ")
        flat = pc.list_flatten(toks).combine_chunks()
        if len(flat) == 0:
            return empty
        bufs = flat.buffers()
        off_dt = (np.int64 if pa.types.is_large_string(flat.type)
                  else np.int32)
        off = np.frombuffer(bufs[1], dtype=off_dt,
                            count=len(flat) + 1,
                            offset=flat.offset
                            * np.dtype(off_dt).itemsize).astype(np.int64)
        if bufs[2] is None:
            return empty
        data = np.frombuffer(bufs[2], dtype=np.uint8)
        if data.shape[0] < 2:
            return empty
        code = (data[:-1].astype(np.int64) * 256
                + data[1:].astype(np.int64))
        # mask positions whose pair crosses a token boundary
        valid = np.ones(code.shape[0], dtype=bool)
        ends = off[1:] - 1          # last byte index of each token
        ends = ends[(ends >= 0) & (ends < code.shape[0])]
        valid[ends] = False
        lo, hi = off[0], off[-1] - 1
        valid[:lo] = False
        if hi < valid.shape[0]:
            valid[hi:] = False
        return pa.table({"code": pa.array(code[valid])})

    merged = combine_agg(ds, ["code"], block_pairs, [("code", "count")],
                         named("code", "cnt"))

    out_empty = pa.table({"pair": pa.array([], type=pa.string()),
                          "cnt": pa.array([], type=pa.int64()),
                          "rnk": pa.array([], type=pa.int64())})

    def keep_k(t: pa.Table, with_rank: bool) -> pa.Table:
        if t.num_rows == 0:
            return out_empty if with_rank \
                else out_empty.drop_columns(["rnk"])
        if "pair" in t.column_names:
            pair = t["pair"].to_numpy(zero_copy_only=False)
        else:
            code = t["code"].to_numpy(zero_copy_only=False)
            b = np.stack([code // 256, code % 256],
                         axis=1).astype(np.uint8)
            pair = np.array([bytes(r).decode("latin-1") for r in b],
                            dtype=object)  # <= 65536 rows, final only
        cnt = pc.cast(t["cnt"], pa.int64()).to_numpy(zero_copy_only=False)
        order = np.lexsort((pair.astype(np.str_), -cnt))[:k]
        out = {"pair": pa.array(pair[order].tolist(), type=pa.string()),
               "cnt": pa.array(cnt[order], type=pa.int64())}
        if with_rank:
            out["rnk"] = pa.array(
                np.arange(1, order.shape[0] + 1, dtype=np.int64))
        return pa.table(out)

    prereduced = merged.map_batches(lambda t: keep_k(t, False),
                                    batch_format="pyarrow")
    from ..stages.partition import partition_by
    return partition_by(prereduced, [], 1, lambda t: keep_k(t, True),
                        out_empty)


BPE_PAIR_SQL = """
WITH toks AS (
  SELECT unnest(string_split(text, ' ')) AS tok FROM documents
), nums AS (
  SELECT CAST(range AS BIGINT) AS i FROM range(1, 1024)
), pairs AS (
  SELECT substr(tok, CAST(i AS INT), 2) AS pair
  FROM toks JOIN nums ON nums.i <= length(tok) - 1
), counted AS (
  SELECT pair, CAST(count(*) AS BIGINT) AS cnt FROM pairs GROUP BY 1
)
SELECT pair, cnt,
       CAST(row_number() OVER (ORDER BY cnt DESC, pair) AS BIGINT)
         AS rnk
FROM counted
QUALIFY rnk <= 10
ORDER BY 3
"""


def dedup_normalized_stats(sf_dir: str) -> pa.Table:
    """NORMALIZED-TEXT dedup tier: how many documents collide only
    AFTER casefolding + whitespace collapsing (the cheap normalization
    every curation pipeline runs before exact hashing) versus raw exact
    dups.  Output: docs, distinct raw texts, distinct normalized texts,
    and the extra duplicates normalization reveals.

    Dataflow: one streaming pass computes both fingerprints with Arrow
    kernels (utf8_lower + regex collapse + trim, then the shared
    64-bit fingerprint); a grouped count per (kind, fingerprint) leaves
    each text once, and a second one per kind counts them -- the
    dedup_exact shape run twice in the same map."""
    from ..functions.text import fingerprint64
    ds = _read(sf_dir, "documents", ["text"])

    def fps(t: pa.Table) -> pa.Table:
        raw = t["text"]
        norm = pc.utf8_trim_whitespace(
            pc.replace_substring_regex(pc.utf8_lower(raw),
                                       pattern=" +", replacement=" "))
        return pa.table({
            "kind": np.repeat(np.arange(2, dtype=np.int64), t.num_rows),
            "fp": pa.concat_arrays([fingerprint64(raw),
                                    fingerprint64(norm)])})

    texts = combine_agg(ds, ["kind", "fp"], fps, [("fp", "count")],
                        named("kind", "fp", "cnt"))
    agg = combine_agg(texts, ["kind"], lambda t: t,
                      [("cnt", "count"), ("cnt", "sum")],
                      named("kind", "n_distinct", "n_rows")).take_all()
    by_kind = {int(r["kind"]): (int(r["n_distinct"]), int(r["n_rows"]))
               for r in agg}
    n_docs = by_kind.get(0, (0, 0))[1]
    d_raw = by_kind.get(0, (0, 0))[0]
    d_norm = by_kind.get(1, (0, 0))[0]
    return pa.table({
        "n_docs": pa.array([n_docs], type=pa.int64()),
        "distinct_raw": pa.array([d_raw], type=pa.int64()),
        "distinct_normalized": pa.array([d_norm], type=pa.int64()),
        "extra_dups_from_norm": pa.array([d_raw - d_norm],
                                         type=pa.int64()),
    })


DEDUP_NORMALIZED_SQL = """
WITH n AS (
  SELECT text AS raw,
         trim(regexp_replace(lower(text), ' +', ' ', 'g')) AS norm
  FROM documents
)
SELECT CAST(count(*) AS BIGINT) AS n_docs,
       CAST(count(DISTINCT raw) AS BIGINT) AS distinct_raw,
       CAST(count(DISTINCT norm) AS BIGINT) AS distinct_normalized,
       CAST(count(DISTINCT raw) - count(DISTINCT norm) AS BIGINT)
         AS extra_dups_from_norm
FROM n
"""


def jsonl_roundtrip_stats(sf_dir: str,
                          out_root: str | None = None) -> "ray.data.Dataset":
    """JSON-LINES SINK + SOURCE round trip: a slice of events is written
    as .jsonl (the interchange format half the world's event logs
    arrive in), read back with the JSON reader, and rolled up -- the
    gate compares the ROUND-TRIPPED rollup against the raw table, so a
    lossy write or a mistyped read hash-fails.  Values ride as integer
    cents so JSON float formatting can't perturb them.

    Scale shape: both legs stream (write_json / read_json are
    block-parallel); the rollup is the standard in-batch combiner."""
    import shutil

    root = out_root or "/tmp/p2pdds_gate/events_jsonl"
    shutil.rmtree(root, ignore_errors=True)

    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])

    def slim(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": pc.cast(t["event_id"], pa.int64()),
            "event_type": t["event_type"],
            "value_c": _int_units(t["value"], 100),
        })

    ds.map_batches(slim, batch_format="pyarrow",
                   zero_copy_batch=True).write_json(root)
    back = ray.data.read_json(root)

    def typed(t: pa.Table) -> pa.Table:
        return pa.table({"event_type": t["event_type"],
                         "value_c": pc.cast(t["value_c"], pa.int64()),
                         "event_id": pc.cast(t["event_id"], pa.int64())})

    return combine_agg(back, ["event_type"], typed,
                       [("value_c", "count"), ("value_c", "sum"),
                        ("event_id", "sum")],
                       named("event_type", "n", "sum_value_c",
                             "sum_event_id")).sort("event_type")


JSONL_ROUNDTRIP_SQL = """
SELECT event_type, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(CAST(floor(value * 100.0 + 0.5) AS BIGINT)) AS BIGINT)
         AS sum_value_c,
       CAST(sum(event_id) AS BIGINT) AS sum_event_id
FROM events GROUP BY 1 ORDER BY 1
"""


def stratified_allocation_plan(sf_dir: str, total_k: int = 100) -> pa.Table:
    """SAMPLE-ALLOCATION PLAN by the largest-remainder method: split a
    ``total_k``-item eval budget across (lang, source) strata
    proportionally to their sizes, integer floors first, the leftover
    seats going to the largest remainders (ties -> lexicographic
    stratum) -- the deterministic allocation step ahead of stratified
    sampling, fully integer so both engines agree seat by seat.

    Scale shape: the only distributed work is the O(strata) count
    partials; the seat assignment folds a strata-sized table on the
    driver."""
    ds = _read(sf_dir, "documents", ["lang", "source"])
    counts = (combine_agg(ds, ["lang", "source"], lambda t: t,
                          [("source", "count")],
                          named("lang", "source", "n"))
              .to_pandas().sort_values(["lang", "source"])
              .reset_index(drop=True))
    n = counts["n"].to_numpy(dtype=np.int64)
    total = int(n.sum())
    floors = n * total_k // total
    rem = n * total_k % total
    leftover = total_k - int(floors.sum())
    # largest remainder, ties to lexicographically smaller stratum
    order = np.lexsort((np.arange(n.shape[0]), -rem))
    extra = np.zeros(n.shape[0], dtype=np.int64)
    extra[order[:leftover]] = 1
    return pa.table({
        "lang": pa.array(counts["lang"], type=pa.string()),
        "source": pa.array(counts["source"], type=pa.string()),
        "n": pa.array(n, type=pa.int64()),
        "alloc": pa.array(floors + extra, type=pa.int64()),
    })


STRATIFIED_ALLOCATION_SQL = """
WITH c AS (
  SELECT lang, source, CAST(count(*) AS BIGINT) AS n
  FROM documents GROUP BY 1, 2
), tot AS (SELECT CAST(sum(n) AS BIGINT) AS t FROM c),
base AS (
  SELECT lang, source, n,
         n * 100 // tot.t AS fl,
         n * 100 % tot.t AS rem
  FROM c CROSS JOIN tot
), seats AS (
  SELECT CAST(100 - sum(fl) AS BIGINT) AS leftover FROM base
), ranked AS (
  SELECT lang, source, n, fl,
         row_number() OVER (ORDER BY rem DESC, lang, source) AS r
  FROM base
)
SELECT lang, source, n,
       CAST(fl + CASE WHEN r <= seats.leftover THEN 1 ELSE 0 END
            AS BIGINT) AS alloc
FROM ranked CROSS JOIN seats
ORDER BY 1, 2
"""


def bm25_topk(sf_dir: str, terms: tuple = ("hash", "join"),
              k: int = 15, k1: float = 1.2, b: float = 0.75) -> "ray.data.Dataset":
    """BM25 RANKED RETRIEVAL (Robertson-Sparck Jones probabilistic
    scoring, the default lexical ranker everywhere): disjunctive query,
    score(d) = sum over terms of idf_t * tf*(k1+1) / (tf + k1*(1 - b +
    b*dl*N/total_dl)), with idf_t = ln((N - df + 0.5)/(df + 0.5) + 1).
    Every input to the float expression is an exact integer from the
    corpus (tf, dl, df, N, total_dl) and both engines evaluate the ONE
    expression in the same order, so the rounded scores hash-match --
    the keyword_search_topk pipeline upgraded from raw tf to the real
    scorer.

    Scale shape: pass 1 folds (N, total_dl, df_t) block partials --
    O(terms) integers; pass 2 streams with the broadcast stats,
    dictionary-encoded tf counting, per-block top-k prereduce,
    O(k x blocks) exchange."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    terms = tuple(terms)

    stat_empty = pa.table({
        "n_docs": pa.array([], type=pa.int64()),
        "total_dl": pa.array([], type=pa.int64()),
        **{f"df_{i}": pa.array([], type=pa.int64())
           for i in range(len(terms))}})

    def tf_dl(t: pa.Table):
        toks = pc.split_pattern(t["text"], pattern=" ")
        flat = pc.list_flatten(toks).combine_chunks()
        nper = pc.list_value_length(toks).to_numpy(
            zero_copy_only=False).astype(np.int64)
        dcode = np.repeat(np.arange(t.num_rows, dtype=np.int64), nper)
        dic = flat.dictionary_encode()
        idx = dic.indices.to_numpy(zero_copy_only=False)
        dwords = dic.dictionary.to_pylist()
        tfm = np.zeros((t.num_rows, len(terms)), dtype=np.int64)
        for j, term in enumerate(terms):
            if term in dwords:
                code = dwords.index(term)
                np.add.at(tfm[:, j], dcode[idx == code], 1)
        return tfm, nper

    def stats_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return stat_empty
        tfm, dl = tf_dl(t)
        cols = {"n_docs": pa.array([t.num_rows], type=pa.int64()),
                "total_dl": pa.array([int(dl.sum())], type=pa.int64())}
        for i in range(len(terms)):
            cols[f"df_{i}"] = pa.array([int((tfm[:, i] > 0).sum())],
                                       type=pa.int64())
        return pa.table(cols)

    aggs = [Sum("n_docs", alias_name="n_docs"),
            Sum("total_dl", alias_name="total_dl")]
    aggs += [Sum(f"df_{i}", alias_name=f"df_{i}")
             for i in range(len(terms))]
    st = (docs.map_batches(stats_partial, batch_format="pyarrow",
                           zero_copy_batch=True).aggregate(*aggs))
    N = int(st["n_docs"])
    total_dl = int(st["total_dl"])
    df = np.array([int(st[f"df_{i}"]) for i in range(len(terms))],
                  dtype=np.float64)
    idf = np.log((np.float64(N) - df + 0.5) / (df + 0.5) + 1.0)

    out_empty = pa.table({"doc_id": pa.array([], type=pa.int64()),
                          "score": pa.array([], type=pa.float64())})

    def score_block(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_empty
        tfm, dl = tf_dl(t)
        hit = (tfm > 0).any(axis=1)
        if not hit.any():
            return out_empty
        tf = tfm[hit].astype(np.float64)
        dlh = dl[hit].astype(np.float64)
        denom = tf + k1 * (1.0 - b
                           + b * (dlh[:, None] * np.float64(N))
                           / np.float64(total_dl))
        sc = (idf[None, :] * (tf * (k1 + 1.0)) / denom)
        sc[tf == 0] = 0.0
        total = np.round(sc.sum(axis=1), 4)
        ids = t["doc_id"].to_numpy(zero_copy_only=False)[hit]
        order = np.lexsort((ids, -total))[:k]
        return pa.table({
            "doc_id": pa.array(ids[order].astype(np.int64)),
            "score": pa.array(total[order], type=pa.float64()),
        })

    prereduced = docs.map_batches(score_block, batch_format="pyarrow",
                                  zero_copy_batch=True)

    def final_rank(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_empty.append_column(
                "rnk", pa.array([], type=pa.int64()))
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        sc = t["score"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, -sc))[:k]
        return pa.table({
            "doc_id": pa.array(ids[order], type=pa.int64()),
            "score": pa.array(sc[order], type=pa.float64()),
            "rnk": pa.array(np.arange(1, order.shape[0] + 1,
                                      dtype=np.int64)),
        })

    from ..stages.partition import partition_by
    return partition_by(prereduced, [], 1, final_rank,
                        out_empty.append_column(
                            "rnk", pa.array([], type=pa.int64())))


BM25_TOPK_SQL = """
WITH toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok FROM documents
), dl AS (
  SELECT doc_id, CAST(count(*) AS BIGINT) AS dl FROM toks GROUP BY 1
), corpus AS (
  SELECT CAST(count(*) AS BIGINT) AS n,
         CAST(sum(dl) AS BIGINT) AS total_dl FROM dl
), tf AS (
  SELECT doc_id,
         CAST(sum(CASE WHEN tok = 'hash' THEN 1 ELSE 0 END) AS BIGINT)
           AS tf0,
         CAST(sum(CASE WHEN tok = 'join' THEN 1 ELSE 0 END) AS BIGINT)
           AS tf1
  FROM toks GROUP BY 1
), dfs AS (
  SELECT CAST(count(*) FILTER (WHERE tf0 > 0) AS BIGINT) AS df0,
         CAST(count(*) FILTER (WHERE tf1 > 0) AS BIGINT) AS df1
  FROM tf
), scored AS (
  SELECT tf.doc_id,
         round(
           CASE WHEN tf.tf0 > 0 THEN
             ln((CAST(corpus.n AS DOUBLE) - dfs.df0 + 0.5)
                / (dfs.df0 + 0.5) + 1.0)
             * (tf.tf0 * 2.2)
             / (tf.tf0 + 1.2 * (1.0 - 0.75
                + 0.75 * (CAST(dl.dl AS DOUBLE)
                          * CAST(corpus.n AS DOUBLE))
                  / CAST(corpus.total_dl AS DOUBLE)))
           ELSE 0.0 END
           +
           CASE WHEN tf.tf1 > 0 THEN
             ln((CAST(corpus.n AS DOUBLE) - dfs.df1 + 0.5)
                / (dfs.df1 + 0.5) + 1.0)
             * (tf.tf1 * 2.2)
             / (tf.tf1 + 1.2 * (1.0 - 0.75
                + 0.75 * (CAST(dl.dl AS DOUBLE)
                          * CAST(corpus.n AS DOUBLE))
                  / CAST(corpus.total_dl AS DOUBLE)))
           ELSE 0.0 END, 4) AS score
  FROM tf JOIN dl USING (doc_id)
  CROSS JOIN corpus CROSS JOIN dfs
  WHERE tf.tf0 > 0 OR tf.tf1 > 0
)
SELECT doc_id, score,
       CAST(row_number() OVER (ORDER BY score DESC, doc_id) AS BIGINT)
         AS rnk
FROM scored
QUALIFY rnk <= 15
ORDER BY 3
"""


def feature_hashing_report(sf_dir: str, n_buckets: int = 1024) -> pa.Table:
    """HASHING-TRICK AUDIT: map the corpus token vocabulary into
    ``n_buckets`` feature slots by md5-64(token) % n_buckets (the
    oracle-replicable content hash) and report vocab size, occupied
    buckets, buckets with collisions, vocabulary words involved in a
    collision, and the largest bucket -- the numbers that decide
    whether a hashed feature space is big enough before anyone trains
    on it.

    Scale shape: per-block DISTINCT token partials keyed by the fast
    fingerprint (equal tokens co-partition), per-partition dedupe, and
    md5 runs ONLY over the deduped vocabulary (bounded, never the
    corpus stream); the driver merges O(n_buckets) counts."""
    from ..functions.text import fingerprint64
    from ..hashing import md5_uint64
    from ..stages.partition import fit_partitions, partition_by
    ds = _read(sf_dir, "documents", ["text"])

    empty = pa.table({"fp": pa.array([], type=pa.int64()),
                      "tok": pa.array([], type=pa.string())})

    def block_vocab(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t["text"], pattern=" ")
        flat = pc.list_flatten(toks).combine_chunks()
        if len(flat) == 0:
            return empty
        uniq = pc.unique(flat)
        fp = fingerprint64(uniq)
        return pa.table({"fp": fp, "tok": uniq})

    bucket_empty = pa.table({"bucket": pa.array([], type=pa.int64())})

    def word_buckets(t: pa.Table) -> pa.Table:
        uniq = pc.unique(t["tok"].combine_chunks())
        b = (md5_uint64(uniq) % np.uint64(n_buckets)).astype(np.int64)
        return pa.table({"bucket": pa.array(b)})

    vocab = ds.map_batches(block_vocab, batch_format="pyarrow",
                           zero_copy_batch=True)
    words = partition_by(vocab, ["fp"], fit_partitions(32),
                         word_buckets, bucket_empty)
    agg = combine_agg(words, ["bucket"], lambda t: t, [("bucket", "count")],
                      named("bucket", "n_words")).to_pandas()
    n_words = agg["n_words"].to_numpy(dtype=np.int64)
    vocab_size = int(n_words.sum())
    occupied = int((n_words > 0).sum())
    collided_buckets = int((n_words > 1).sum())
    collided_words = int(n_words[n_words > 1].sum())
    return pa.table({
        "vocab_size": pa.array([vocab_size], type=pa.int64()),
        "n_buckets": pa.array([n_buckets], type=pa.int64()),
        "occupied": pa.array([occupied], type=pa.int64()),
        "collided_buckets": pa.array([collided_buckets],
                                     type=pa.int64()),
        "collided_words": pa.array([collided_words], type=pa.int64()),
        "max_bucket": pa.array([int(n_words.max())], type=pa.int64()),
    })


FEATURE_HASHING_SQL = """
WITH vocab AS (
  SELECT DISTINCT unnest(string_split(text, ' ')) AS tok
  FROM documents
), b AS (
  SELECT CAST(('0x' || substr(md5(tok), 1, 16))::UBIGINT % 1024
              AS BIGINT) AS bucket
  FROM vocab
), counts AS (
  SELECT bucket, CAST(count(*) AS BIGINT) AS n FROM b GROUP BY 1
)
SELECT CAST(sum(n) AS BIGINT) AS vocab_size,
       CAST(1024 AS BIGINT) AS n_buckets,
       CAST(count(*) AS BIGINT) AS occupied,
       CAST(count(*) FILTER (WHERE n > 1) AS BIGINT)
         AS collided_buckets,
       CAST(coalesce(sum(n) FILTER (WHERE n > 1), 0) AS BIGINT)
         AS collided_words,
       CAST(max(n) AS BIGINT) AS max_bucket
FROM counts
"""


def doc_length_hill(sf_dir: str, k: int = 100) -> pa.Table:
    """HEAVY-TAIL INDEX (Hill estimator, Annals of Statistics 1975)
    of the document-length distribution: over the k largest n_chars,
    H = (1/k) * sum ln(x_i / x_(k+1)); reported as the integer
    micro-nat term sum (per-term flooring, the entropy discipline) plus
    the order statistics it used -- the tail diagnostic that says
    whether truncation policies must expect power-law monsters.

    Scale shape: the only distributed work is a block-local top-(k+1)
    prereduce on ONE int64 column (O(k x blocks) exchange); the ln
    fold is k driver terms."""
    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])

    empty = pa.table({"n_chars": pa.array([], type=pa.int64()),
                      "doc_id": pa.array([], type=pa.int64())})

    def keep_top(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        n = t["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        d = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((d, -n))[:k + 1]
        return pa.table({"n_chars": pa.array(n[order]),
                         "doc_id": pa.array(d[order])})

    from ..stages.partition import partition_by
    top = partition_by(ds.map_batches(keep_top, batch_format="pyarrow",
                                      zero_copy_batch=True),
                       [], 1, keep_top, empty).take_all()
    top.sort(key=lambda r: (-r["n_chars"], r["doc_id"]))
    xs = np.array([r["n_chars"] for r in top[:k + 1]], dtype=np.float64)
    ref = xs[k]
    terms = np.floor(np.log(xs[:k] / ref) * 1e6).astype(np.int64)
    return pa.table({
        "k": pa.array([k], type=pa.int64()),
        "x_kplus1": pa.array([int(ref)], type=pa.int64()),
        "sum_ln_unats": pa.array([int(terms.sum())], type=pa.int64()),
        "hill_unats": pa.array([int(terms.sum()) // k],
                               type=pa.int64()),
    })


DOC_LENGTH_HILL_SQL = """
WITH top AS (
  SELECT n_chars,
         row_number() OVER (ORDER BY n_chars DESC, doc_id) AS r
  FROM documents QUALIFY r <= 101
), ref AS (
  SELECT CAST(n_chars AS BIGINT) AS x FROM top WHERE r = 101
), terms AS (
  SELECT CAST(floor(ln(CAST(top.n_chars AS DOUBLE)
                       / CAST(ref.x AS DOUBLE)) * 1000000.0)
              AS BIGINT) AS term
  FROM top CROSS JOIN ref WHERE top.r <= 100
)
SELECT CAST(100 AS BIGINT) AS k,
       (SELECT x FROM ref) AS x_kplus1,
       CAST(sum(term) AS BIGINT) AS sum_ln_unats,
       CAST(sum(term) // 100 AS BIGINT) AS hill_unats
FROM terms
"""


def split_user_coverage(sf_dir: str) -> pa.Table:
    """COLD-START AUDIT of the hash split: how many users appear ONLY in
    the held-out quarter (hash(event_id) % 4 == 0) and would therefore
    be unseen at training time -- the per-entity leakage/coverage check
    that event-level splits owe their users (an event split does NOT
    partition users).  Output: train users, test users, test-only
    (cold) users, and the cold fraction of test users in ppm.

    Scale shape: per-block (user, side-bitmask) presence partials via
    bitwise_or.at (the user_churn_sets trick), one user co-partition
    ORs them so each user contributes exactly one mask, O(1) rollup."""
    from ..hashing import murmur64
    from ..stages.partition import fit_partitions, partition_by
    ds = _read(sf_dir, "events", ["event_id", "user_id"])

    empty = pa.table({"user_id": pa.array([], type=pa.int64()),
                      "mask": pa.array([], type=pa.int64())})

    def presence(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        eid = t["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        is_test = murmur64(eid) % np.uint64(4) == np.uint64(0)
        bit = np.where(is_test, np.int64(2), np.int64(1))
        uu, inv = np.unique(uid, return_inverse=True)
        mask = np.zeros(uu.shape[0], dtype=np.int64)
        np.bitwise_or.at(mask, inv, bit)
        return pa.table({"user_id": pa.array(uu),
                         "mask": pa.array(mask)})

    part_empty = pa.table({"n_train": pa.array([], type=pa.int64()),
                           "n_test": pa.array([], type=pa.int64()),
                           "n_cold": pa.array([], type=pa.int64())})

    def fold(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return part_empty
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        m = t["mask"].to_numpy(zero_copy_only=False)
        uu, inv = np.unique(uid, return_inverse=True)
        mask = np.zeros(uu.shape[0], dtype=np.int64)
        np.bitwise_or.at(mask, inv, m)
        return pa.table({
            "n_train": pa.array([int(((mask & 1) > 0).sum())],
                                type=pa.int64()),
            "n_test": pa.array([int(((mask & 2) > 0).sum())],
                               type=pa.int64()),
            "n_cold": pa.array([int((mask == 2).sum())],
                               type=pa.int64()),
        })

    partials = ds.map_batches(presence, batch_format="pyarrow",
                              zero_copy_batch=True)
    per_part = partition_by(partials, ["user_id"], fit_partitions(32),
                            fold, part_empty)
    agg = per_part.aggregate(Sum("n_train", alias_name="tr"),
                             Sum("n_test", alias_name="te"),
                             Sum("n_cold", alias_name="co"))
    tr, te, co = int(agg["tr"] or 0), int(agg["te"] or 0), \
        int(agg["co"] or 0)
    return pa.table({
        "n_train_users": pa.array([tr], type=pa.int64()),
        "n_test_users": pa.array([te], type=pa.int64()),
        "n_cold_users": pa.array([co], type=pa.int64()),
        "cold_ppm": pa.array([co * 1_000_000 // te if te else 0],
                             type=pa.int64()),
    })


SPLIT_USER_COVERAGE_SQL = """
WITH u AS (
  SELECT user_id,
         max(CASE WHEN hash(event_id) % 4 <> 0 THEN 1 ELSE 0 END)
           AS in_train,
         max(CASE WHEN hash(event_id) % 4 = 0 THEN 1 ELSE 0 END)
           AS in_test
  FROM events GROUP BY 1
)
SELECT CAST(sum(in_train) AS BIGINT) AS n_train_users,
       CAST(sum(in_test) AS BIGINT) AS n_test_users,
       CAST(sum(CASE WHEN in_test = 1 AND in_train = 0
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_cold_users,
       CAST(sum(CASE WHEN in_test = 1 AND in_train = 0
                     THEN 1 ELSE 0 END) * 1000000
            // sum(in_test) AS BIGINT) AS cold_ppm
FROM u
"""


def tukey_outlier_counts(sf_dir: str) -> pa.Table:
    """TUKEY-FENCE (box-plot) outlier counts per return flag: exact
    p25/p75 in integer cents via the grouped histogram-bisection
    machinery, fences at quartile -/+ 1.5 IQR computed in EXACT integer
    arithmetic (4*q1 - 6*(q3-q1) style: scale by 4 so 1.5x stays
    integral), then one streaming integer-compare pass -- the robust
    outlier rule that, unlike k-sigma, a single monster value cannot
    drag.

    Composition: exact_quantiles_grouped -> broadcast fences ->
    per-block (flag, side) partials."""
    from .quantiles import exact_quantiles_grouped

    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_extendedprice"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "flag": t["l_returnflag"],
            "cents": _int_units(t["l_extendedprice"], 100),
            "cf": pc.cast(_int_units(t["l_extendedprice"], 100),
                          pa.float64()),
        })

    rows = ds.map_batches(prep, batch_format="pyarrow",
                          zero_copy_batch=True).materialize()
    th = exact_quantiles_grouped(rows, "cf", "flag", [0.25, 0.75])
    fen = {}
    for g in sorted({r["flag"] for r in th.to_pylist()}):
        qs = {float(r["q"]): int(r["value"]) for r in th.to_pylist()
              if r["flag"] == g}
        q1, q3 = qs[0.25], qs[0.75]
        # fences scaled by 4: low = 4*q1 - 6*(q3-q1), high = 4*q3 + 6*iqr
        fen[g] = (4 * q1 - 6 * (q3 - q1), 4 * q3 + 6 * (q3 - q1),
                  q1, q3)
    fen_ref = ray.put(fen)

    def fences(t: pa.Table) -> pa.Table:
        f = ray.get(fen_ref)
        flag = t["flag"].to_numpy(zero_copy_only=False)
        c = t["cents"].to_numpy(zero_copy_only=False)
        uf, inv = np.unique(flag, return_inverse=True)
        lo = np.array([f[x][0] for x in uf], dtype=np.int64)[inv]
        hi = np.array([f[x][1] for x in uf], dtype=np.int64)[inv]
        return pa.table({"l_returnflag": t["flag"],
                         "low": (4 * c < lo).astype(np.int64),
                         "high": (4 * c > hi).astype(np.int64)})

    agg = (combine_agg(rows, ["l_returnflag"], fences,
                       [("low", "count"), ("low", "sum"), ("high", "sum")],
                       named("l_returnflag", "n", "n_low", "n_high"))
           .to_pandas().sort_values("l_returnflag")
           .reset_index(drop=True))
    return pa.table({
        "l_returnflag": pa.array(agg["l_returnflag"], type=pa.string()),
        "n": pa.array(agg["n"].astype(np.int64)),
        "n_low": pa.array(agg["n_low"].astype(np.int64)),
        "n_high": pa.array(agg["n_high"].astype(np.int64)),
    })


TUKEY_OUTLIER_SQL = """
WITH v AS (
  SELECT l_returnflag AS flag,
         CAST(floor(l_extendedprice * 100.0 + 0.5) AS BIGINT) AS cents
  FROM lineitem
), q AS (
  SELECT flag,
         CAST(quantile_disc(cents, 0.25) AS BIGINT) AS q1,
         CAST(quantile_disc(cents, 0.75) AS BIGINT) AS q3
  FROM v GROUP BY 1
)
SELECT v.flag AS l_returnflag, CAST(count(*) AS BIGINT) AS n,
       CAST(count(*) FILTER (
           WHERE 4 * v.cents < 4 * q.q1 - 6 * (q.q3 - q.q1))
         AS BIGINT) AS n_low,
       CAST(count(*) FILTER (
           WHERE 4 * v.cents > 4 * q.q3 + 6 * (q.q3 - q.q1))
         AS BIGINT) AS n_high
FROM v JOIN q USING (flag)
GROUP BY 1 ORDER BY 1
"""


# floor(log10(1 + 1/d) * 1e6) for d = 1..9 -- the Benford expected
# first-significant-digit mass in ppm.  Single Python source of truth;
# the SQL oracle inlines the same integers (f-string below) so parity
# is by construction, not by trusting two libms to agree.
BENFORD_PPM = [301029, 176091, 124938, 96910, 79181, 66946, 57991,
               51152, 45757]


def benford_digit_audit(sf_dir: str) -> pa.Table:
    """BENFORD first-significant-digit audit of order totals: observed
    digit counts vs the Benford expectation, deviation in exact ppm
    integers.  The fraud/data-quality screen: a synthetic or truncated
    price column shows up as a large dev_ppm on digits 1-2.

    Scale shape: <= 9 digit partials per block (zero-copy Arrow in,
    int64 partials out), a 9-key groupby, all ratio math on the driver
    over exactly 9 rows.  No float crosses the shuffle.
    """
    ds = _read(sf_dir, "orders", ["o_totalprice"])

    def first_digit(t: pa.Table) -> pa.Table:
        c = _int_units(t["o_totalprice"], 100).to_numpy(
            zero_copy_only=False)
        c = c[c > 0]
        # astype to width-1 unicode truncates to the first character:
        # the first significant digit of the positive integer cents.
        return pa.table({
            "digit": c.astype(np.str_).astype("U1").astype(np.int64)})

    agg = combine_agg(ds, ["digit"], first_digit, [("digit", "count")],
                      named("digit", "n")).to_pandas()
    by = {int(r.digit): int(r.n) for r in agg.itertuples()}
    obs = [by.get(d, 0) for d in range(1, 10)]
    total = sum(obs)
    obs_ppm = [o * 1_000_000 // total if total else 0 for o in obs]
    return pa.table({
        "digit": pa.array(list(range(1, 10)), type=pa.int64()),
        "n_obs": pa.array(obs, type=pa.int64()),
        "obs_ppm": pa.array(obs_ppm, type=pa.int64()),
        "benford_ppm": pa.array(BENFORD_PPM, type=pa.int64()),
        "dev_ppm": pa.array([abs(o - b) for o, b
                             in zip(obs_ppm, BENFORD_PPM)],
                            type=pa.int64()),
    })


BENFORD_DIGIT_SQL = f"""
WITH c AS (
  SELECT CAST(floor(o_totalprice * 100.0 + 0.5) AS BIGINT) AS cents
  FROM orders
  WHERE floor(o_totalprice * 100.0 + 0.5) > 0
), g AS (
  SELECT CAST(substr(CAST(cents AS VARCHAR), 1, 1) AS BIGINT) AS digit,
         CAST(count(*) AS BIGINT) AS n_obs
  FROM c GROUP BY 1
), b(digit, benford_ppm) AS (VALUES
  {", ".join(f"({d}, {p})" for d, p in zip(range(1, 10), BENFORD_PPM))}
), t AS (SELECT CAST(sum(n_obs) AS BIGINT) AS total FROM g)
SELECT b.digit AS digit,
       CAST(COALESCE(g.n_obs, 0) AS BIGINT) AS n_obs,
       CAST(COALESCE(g.n_obs, 0) * 1000000 // t.total AS BIGINT)
         AS obs_ppm,
       CAST(b.benford_ppm AS BIGINT) AS benford_ppm,
       CAST(abs(COALESCE(g.n_obs, 0) * 1000000 // t.total
                - b.benford_ppm) AS BIGINT) AS dev_ppm
FROM b LEFT JOIN g USING (digit) CROSS JOIN t
ORDER BY 1
"""


def customer_frequency_spectrum(sf_dir: str) -> pa.Table:
    """FREQUENCY-OF-FREQUENCIES (Good-Turing) spectrum: how many users
    placed exactly k orders, k capped at the 11+ tail bucket, plus the
    Good-Turing unseen-mass estimate P0 = N1/N in exact ppm -- the
    planning statistic for dedup/sampling budgets ("how much of the
    corpus is singletons?").

    Scale shape: one distributed groupby(o_custkey) count, then an
    11-key groupby of the per-customer counts; all ratio math on <= 11
    driver rows.
    """
    ds = _read(sf_dir, "orders", ["o_custkey"])
    per_user = combine_agg(
        ds, ["o_custkey"], lambda t: t, [("o_custkey", "count")],
        lambda t: pa.table({"kb": pc.min_element_wise(t["o_custkey_count"],
                                                      11),
                            "k": t["o_custkey_count"]}))
    agg = (combine_agg(per_user, ["kb"], lambda t: t,
                       [("k", "count"), ("k", "sum")],
                       named("k", "n_users", "n_events"))
           .to_pandas().sort_values("k").reset_index(drop=True))
    total = int(agg["n_events"].sum())
    n1 = int(agg.loc[agg["k"] == 1, "n_events"].sum())
    gt = n1 * 1_000_000 // total if total else 0
    return pa.table({
        "k": pa.array(agg["k"].astype(np.int64)),
        "n_users": pa.array(agg["n_users"].astype(np.int64)),
        "n_events": pa.array(agg["n_events"].astype(np.int64)),
        "gt_unseen_ppm": pa.array([gt] * len(agg), type=pa.int64()),
    })


CUSTOMER_FREQUENCY_SPECTRUM_SQL = """
WITH pu AS (
  SELECT o_custkey, count(*) AS k FROM orders GROUP BY 1
), g AS (
  SELECT LEAST(k, 11) AS kb,
         CAST(count(*) AS BIGINT) AS n_users,
         CAST(sum(k) AS BIGINT) AS n_events
  FROM pu GROUP BY 1
), t AS (
  SELECT CAST(sum(n_events) AS BIGINT) AS total,
         CAST(COALESCE(sum(n_events) FILTER (WHERE kb = 1), 0)
              AS BIGINT) AS n1
  FROM g
)
SELECT g.kb AS k, g.n_users, g.n_events,
       CAST(t.n1 * 1000000 // t.total AS BIGINT) AS gt_unseen_ppm
FROM g CROSS JOIN t
ORDER BY 1
"""


def _avg_rank2(v: np.ndarray) -> np.ndarray:
    """2x the average-tie rank of each element of v (ascending) --
    doubled so tied ranks (.5 halves) stay exact int64."""
    order = np.argsort(v, kind="stable")
    sv = v[order]
    uniq, start = np.unique(sv, return_index=True)
    cnt = np.diff(np.append(start, sv.shape[0]))
    r2g = 2 * (start + 1) + cnt - 1          # 2*min_rank + ties - 1
    r2_sorted = r2g[np.searchsorted(uniq, sv)]
    r2 = np.empty_like(r2_sorted)
    r2[order] = r2_sorted
    return r2.astype(np.int64)


def spearman_hourly_corr(sf_dir: str) -> pa.Table:
    """SPEARMAN rank correlation between every pair of event types'
    hourly count series (zero-filled common hour grid, average-tie
    ranks): the monotone-association monitor that, unlike Pearson,
    a single spike hour cannot dominate.

    Determinism: ranks are doubled so tie-averages stay integral; the
    Pearson-on-ranks sums are exact int64; the single final float
    expression (num / sqrt(va*vb)) is mirrored term-for-term in the
    SQL oracle, then floored to ppm.

    Scale shape: per-block (type, hour) combiner -> one
    cardinality-bounded groupby; the rank/correlation math runs on the
    driver over types x hours rows (bounded by the time window, ~10k
    at 90 days), never on raw events.
    """
    ds = _read(sf_dir, "events", ["event_type", "ts"])

    agg = combine_agg(ds, ["event_type", "h"], _event_hours,
                      [("h", "count")],
                      named("event_type", "h", "n")).to_pandas()
    h0, h1 = int(agg["h"].min()), int(agg["h"].max())
    n_hours = h1 - h0 + 1
    types = sorted(agg["event_type"].unique())
    # zero-filled per-type series over the common grid, then 2x ranks
    r2 = {}
    for ty in types:
        sub = agg[agg["event_type"] == ty]
        v = np.zeros(n_hours, dtype=np.int64)
        v[sub["h"].to_numpy(dtype=np.int64) - h0] = \
            sub["n"].to_numpy(dtype=np.int64)
        r2[ty] = _avg_rank2(v)
    import math
    rows = []
    for i, ta in enumerate(types):
        for tb in types[i + 1:]:
            a, b = r2[ta], r2[tb]
            n = n_hours
            sx, sy = int(a.sum()), int(b.sum())
            sxx = int((a * a).sum())
            syy = int((b * b).sum())
            sxy = int((a * b).sum())
            num = n * sxy - sx * sy
            va, vb = n * sxx - sx * sx, n * syy - sy * sy
            if va == 0 or vb == 0:
                ppm = 0
            else:
                den = math.sqrt(float(va) * float(vb))
                ppm = math.floor(float(num) * 1000000.0 / den)
            rows.append((ta, tb, n, ppm))
    return pa.table({
        "type_a": pa.array([r[0] for r in rows], type=pa.string()),
        "type_b": pa.array([r[1] for r in rows], type=pa.string()),
        "n_hours": pa.array([r[2] for r in rows], type=pa.int64()),
        "rho_ppm": pa.array([r[3] for r in rows], type=pa.int64()),
    })


SPEARMAN_HOURLY_SQL = """
WITH e AS (
  SELECT event_type, epoch_us(ts) // 3600000000 AS h FROM events
), b AS (
  SELECT min(h) AS h0, max(h) AS h1 FROM e
), hrs AS (
  SELECT unnest(generate_series(b.h0, b.h1)) AS h FROM b
), ty AS (SELECT DISTINCT event_type FROM e),
c AS (
  SELECT event_type, h, CAST(count(*) AS BIGINT) AS n
  FROM e GROUP BY 1, 2
), f AS (
  SELECT ty.event_type, hrs.h, COALESCE(c.n, 0) AS n
  FROM ty CROSS JOIN hrs
  LEFT JOIN c ON c.event_type = ty.event_type AND c.h = hrs.h
), r AS (
  SELECT event_type, h,
         2 * rank() OVER (PARTITION BY event_type ORDER BY n)
           + count(*) OVER (PARTITION BY event_type, n) - 1 AS r2
  FROM f
), s AS (
  SELECT a.event_type AS type_a, b2.event_type AS type_b,
         CAST(count(*) AS BIGINT) AS n_hours,
         sum(a.r2) AS sx, sum(b2.r2) AS sy,
         sum(a.r2 * a.r2) AS sxx, sum(b2.r2 * b2.r2) AS syy,
         sum(a.r2 * b2.r2) AS sxy
  FROM r a JOIN r b2 ON a.h = b2.h AND a.event_type < b2.event_type
  GROUP BY 1, 2
)
SELECT type_a, type_b, n_hours,
       CAST(CASE WHEN (n_hours * sxx - sx * sx) = 0
                   OR (n_hours * syy - sy * sy) = 0 THEN 0
            ELSE floor(CAST(n_hours * sxy - sx * sy AS DOUBLE)
                       * 1000000.0
                       / sqrt(CAST(n_hours * sxx - sx * sx AS DOUBLE)
                              * CAST(n_hours * syy - sy * sy
                                     AS DOUBLE)))
       END AS BIGINT) AS rho_ppm
FROM s ORDER BY 1, 2
"""


def ks_drift_binned(sf_dir: str, type_a: str = "click",
                    type_b: str = "error", n_bins: int = 256) -> pa.Table:
    """BINNED two-sample KOLMOGOROV-SMIRNOV drift statistic between two
    event types' value distributions: max CDF gap over a fixed
    equi-width integer grid -- the classic "did the distribution move?"
    monitor, exact on the binned CDF by all-integer cross-multiplied
    arithmetic (|cum_a*n_b - cum_b*n_a|, no float ratio ever formed).

    Scale shape (_two_sample_bins): pass 1 streams a distributed
    Min/Max of the micro-unit values; pass 2 folds each block to <=
    n_bins partial rows for a bounded groupby; the cumulative walk runs
    on the driver over
    exactly n_bins rows with Python big-int overflow immunity.
    """
    na, nb = _two_sample_bins(sf_dir, type_a, type_b, n_bins)
    n_a, n_b = int(na.sum()), int(nb.sum())
    ca, cb, best, best_bin = 0, 0, -1, 0
    for i in range(n_bins):          # exact big-int walk, n_bins rows
        ca += int(na[i]); cb += int(nb[i])
        dv = abs(ca * n_b - cb * n_a)
        if dv > best:
            best, best_bin = dv, i
    ks = best * 1_000_000 // (n_a * n_b) if n_a and n_b else 0
    return pa.table({
        "type_a": pa.array([type_a], type=pa.string()),
        "type_b": pa.array([type_b], type=pa.string()),
        "n_a": pa.array([n_a], type=pa.int64()),
        "n_b": pa.array([n_b], type=pa.int64()),
        "ks_ppm": pa.array([ks], type=pa.int64()),
        "bin_at_max": pa.array([best_bin], type=pa.int64()),
    })


def _two_sample_bins(sf_dir: str, type_a: str, type_b: str,
                     n_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-bin event counts of ``type_a`` and ``type_b`` over one
    equi-width grid of ``n_bins`` bins spanning both types' micro-unit
    values (bin = (m - lo) * n_bins // span): a streamed Min/Max pass,
    then one grouped sum per bin."""
    ds = _read(sf_dir, "events", ["event_type", "value"])

    def micro(t: pa.Table) -> pa.Table:
        keep = pc.is_in(t["event_type"],
                        value_set=pa.array([type_a, type_b]))
        t = t.filter(keep)
        return pa.table({"event_type": t["event_type"],
                         "m": _int_units(t["value"], 1_000_000)})

    vals = ds.map_batches(micro, batch_format="pyarrow",
                          zero_copy_batch=True).materialize()
    mm = vals.aggregate(Min("m", alias_name="lo"),
                        Max("m", alias_name="hi"))
    lo, hi = int(mm["lo"]), int(mm["hi"])
    span = hi - lo + 1

    def binned(t: pa.Table) -> pa.Table:
        m = t["m"].to_numpy(zero_copy_only=False)
        b = np.zeros_like(m) if span <= 1 else (m - lo) * n_bins // span
        is_a = pc.cast(pc.equal(t["event_type"], pa.scalar(type_a)),
                       pa.int64())
        return pa.table({"bin": b, "a": is_a,
                         "b": pc.subtract(pa.scalar(1, pa.int64()), is_a)})

    agg = combine_agg(vals, ["bin"], binned, [("a", "sum"), ("b", "sum")],
                      named("bin", "na", "nb")).to_pandas()
    na = np.zeros(n_bins, dtype=np.int64)
    nb = np.zeros(n_bins, dtype=np.int64)
    na[agg["bin"].to_numpy(dtype=np.int64)] = agg["na"]
    nb[agg["bin"].to_numpy(dtype=np.int64)] = agg["nb"]
    return na, nb


KS_DRIFT_SQL = """
WITH v AS (
  SELECT event_type,
         CAST(floor(value * 1000000.0 + 0.5) AS BIGINT) AS m
  FROM events WHERE event_type IN ('click', 'error')
), b AS (SELECT min(m) AS lo, max(m) AS hi FROM v),
g AS (
  SELECT event_type,
         CASE WHEN b.hi - b.lo + 1 <= 1 THEN 0
              ELSE (m - b.lo) * 256 // (b.hi - b.lo + 1) END AS bin,
         CAST(count(*) AS BIGINT) AS n
  FROM v CROSS JOIN b GROUP BY 1, 2
), grid AS (SELECT unnest(generate_series(0, 255)) AS bin),
f AS (
  SELECT grid.bin,
         COALESCE(sum(g.n) FILTER (WHERE g.event_type = 'click'), 0)
           AS na,
         COALESCE(sum(g.n) FILTER (WHERE g.event_type = 'error'), 0)
           AS nb
  FROM grid LEFT JOIN g ON g.bin = grid.bin GROUP BY 1
), cum AS (
  SELECT bin, sum(na) OVER (ORDER BY bin) AS ca,
         sum(nb) OVER (ORDER BY bin) AS cb
  FROM f
), t AS (SELECT CAST(sum(na) AS BIGINT) AS n_a,
                CAST(sum(nb) AS BIGINT) AS n_b FROM f),
d AS (
  SELECT bin, abs(ca * t.n_b - cb * t.n_a) AS dv FROM cum CROSS JOIN t
), m AS (SELECT max(dv) AS md FROM d),
am AS (SELECT min(d.bin) AS bin_at_max FROM d, m WHERE d.dv = m.md)
SELECT 'click' AS type_a, 'error' AS type_b, t.n_a, t.n_b,
       CAST(m.md * 1000000 // (t.n_a * t.n_b) AS BIGINT) AS ks_ppm,
       CAST(am.bin_at_max AS BIGINT) AS bin_at_max
FROM t, m, am
"""


def km_user_survival(sf_dir: str, horizon_hours: int = 72) -> pa.Table:
    """KAPLAN-MEIER time-to-conversion curve: hours from each user's
    first event to their first 'purchase', administratively censored at
    `horizon_hours` (users converting later, or never, are censored at
    the horizon) -- the product-limit estimator, carried as an exact
    cumulative sum of per-hour floor(ln((n_risk-d)/n_risk)*1e6)
    micro-nat terms so the curve is hash-comparable (each ln of an
    identical double ratio is mirrored term-for-term in the SQL
    oracle; no float product is ever formed).

    Risk-set convention: n_risk(t) = #{observed duration >= t}; deaths
    at t are conversions at exactly t <= horizon.  If survival hits
    exactly zero the final term uses the defined sentinel
    floor(ln(1/(2*n_users))*1e6).

    Scale shape: one distributed groupby(user) of (first-event min,
    first-purchase min) -> bounded (hour, censored) histogram
    partials; the KM walk runs on the driver over <= horizon_hours
    rows.
    """
    import math
    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type"])
    us_hour = 3_600_000_000
    BIG = 2 ** 62   # sentinel: "no purchase observed"

    def prep(t: pa.Table) -> pa.Table:
        us = pc.cast(t["ts"], pa.int64())
        is_p = pc.equal(t["event_type"], pa.scalar("purchase"))
        return pa.table({
            "user_id": t["user_id"], "f_us": us,
            "p_us": pc.if_else(is_p, us, pa.scalar(BIG, type=pa.int64()))})

    per_user = combine_agg(ds, ["user_id"], prep,
                           [("f_us", "min"), ("p_us", "min")],
                           named("user_id", "f_us", "p_us"))

    def outcome(t: pa.Table) -> pa.Table:
        f = t["f_us"].to_numpy(zero_copy_only=False)
        p = t["p_us"].to_numpy(zero_copy_only=False)
        conv = p < BIG
        dur = np.where(conv, (p - f) // us_hour, horizon_hours + 1)
        death = (conv & (dur <= horizon_hours)).astype(np.int64)
        return pa.table({"h": np.minimum(dur, horizon_hours),
                         "death": death, "cens": 1 - death})

    agg = (combine_agg(per_user, ["h"], outcome,
                       [("death", "sum"), ("cens", "sum")],
                       named("h", "n_deaths", "n_cens"))
           .to_pandas().sort_values("h").reset_index(drop=True))
    n_users = int((agg["n_deaths"] + agg["n_cens"]).sum())
    n_at = (agg["n_deaths"] + agg["n_cens"]).to_numpy(dtype=np.int64)
    n_risk = n_at[::-1].cumsum()[::-1]
    rows, cum = [], 0
    for i in range(len(agg)):
        h = int(agg["h"][i])
        nd, nc, nr = int(agg["n_deaths"][i]), int(agg["n_cens"][i]), \
            int(n_risk[i])
        if nd == 0:
            continue
        if nr == nd:
            term = math.floor(math.log(1.0 / float(2 * n_users))
                              * 1000000.0)
        else:
            term = math.floor(math.log(float(nr - nd) / float(nr))
                              * 1000000.0)
        cum += term
        rows.append((h, nr, nd, nc, cum))
    return pa.table({
        "hour": pa.array([r[0] for r in rows], type=pa.int64()),
        "n_risk": pa.array([r[1] for r in rows], type=pa.int64()),
        "n_deaths": pa.array([r[2] for r in rows], type=pa.int64()),
        "n_censored": pa.array([r[3] for r in rows], type=pa.int64()),
        "surv_micronat": pa.array([r[4] for r in rows],
                                  type=pa.int64()),
    })


KM_SURVIVAL_SQL = """
WITH pu AS (
  SELECT user_id, min(epoch_us(ts)) AS f,
         min(CASE WHEN event_type = 'purchase' THEN epoch_us(ts)
                  ELSE 4611686018427387904 END) AS p
  FROM events GROUP BY 1
), u AS (
  SELECT CASE WHEN p < 4611686018427387904
              THEN LEAST((p - f) // 3600000000, 72) ELSE 72 END AS h,
         CASE WHEN p < 4611686018427387904
                AND (p - f) // 3600000000 <= 72
              THEN 0 ELSE 1 END AS cens
  FROM pu
), t AS (SELECT CAST(count(*) AS BIGINT) AS n FROM u),
hh AS (
  SELECT h,
         CAST(count(*) FILTER (WHERE cens = 0) AS BIGINT) AS n_deaths,
         CAST(count(*) FILTER (WHERE cens = 1) AS BIGINT) AS n_cens,
         CAST(count(*) AS BIGINT) AS n_at
  FROM u GROUP BY 1
), r AS (
  SELECT h, n_deaths, n_cens,
         CAST(sum(n_at) OVER (ORDER BY h DESC) AS BIGINT) AS n_risk
  FROM hh
), term AS (
  SELECT h, n_risk, n_deaths, n_cens,
         CASE WHEN n_deaths = 0 THEN 0
              WHEN n_risk = n_deaths THEN
                CAST(floor(ln(1.0 / CAST(2 * t.n AS DOUBLE))
                           * 1000000.0) AS BIGINT)
              ELSE
                CAST(floor(ln(CAST(n_risk - n_deaths AS DOUBLE)
                              / CAST(n_risk AS DOUBLE))
                           * 1000000.0) AS BIGINT)
         END AS tm
  FROM r CROSS JOIN t
)
SELECT h AS hour, n_risk, n_deaths, n_cens AS n_censored,
       CAST(sum(tm) OVER (ORDER BY h) AS BIGINT) AS surv_micronat
FROM term WHERE n_deaths > 0 ORDER BY hour
"""


def theilsen_daily_trend(sf_dir: str) -> pa.Table:
    """THEIL-SEN robust trend of daily event counts per type: the
    median of all pairwise slopes (c2-c1)/(d2-d1), the estimator a
    29%-contaminated series cannot bend (one broken logging day moves
    OLS arbitrarily; it moves the pairwise-slope median not at all).

    Determinism: slopes are (c2-c1)*1e6 / (d2-d1) integer
    micro-counts/day, truncated toward zero (DuckDB // semantics,
    mirrored explicitly in numpy); the median is the lower order
    statistic (index (m-1)//2), matching quantile_disc(_, 0.5).

    Scale shape: per-block (type, day) combiner -> cardinality-bounded
    groupby; the O(days^2) pair enumeration runs on the driver over the
    bounded day span (~92 days -> <=4186 pairs per type), never on raw
    events.
    """
    ds = _read(sf_dir, "events", ["event_type", "ts"])

    def days(t: pa.Table) -> pa.Table:
        return pa.table({"event_type": t["event_type"],
                         "d": pc.divide(pc.cast(t["ts"], pa.int64()),
                                        pa.scalar(86_400_000_000,
                                                  pa.int64()))})

    agg = combine_agg(ds, ["event_type", "d"], days, [("d", "count")],
                      named("event_type", "d", "n")).to_pandas()
    rows = []
    for ty in sorted(agg["event_type"].unique()):
        sub = agg[agg["event_type"] == ty].sort_values("d")
        d = sub["d"].to_numpy(dtype=np.int64)
        c = sub["n"].to_numpy(dtype=np.int64)
        i, j = np.triu_indices(d.shape[0], k=1)
        num = (c[j] - c[i]) * 1_000_000
        den = d[j] - d[i]
        # toward-zero division: DuckDB's BIGINT // truncates
        slopes = np.sign(num) * (np.abs(num) // den)
        slopes.sort()
        med = int(slopes[(slopes.shape[0] - 1) // 2]) \
            if slopes.shape[0] else 0
        rows.append((ty, int(d.shape[0]), int(slopes.shape[0]), med))
    return pa.table({
        "event_type": pa.array([r[0] for r in rows], type=pa.string()),
        "n_days": pa.array([r[1] for r in rows], type=pa.int64()),
        "n_pairs": pa.array([r[2] for r in rows], type=pa.int64()),
        "slope_micro_per_day": pa.array([r[3] for r in rows],
                                        type=pa.int64()),
    })


THEILSEN_TREND_SQL = """
WITH c AS (
  SELECT event_type, epoch_us(ts) // 86400000000 AS d,
         CAST(count(*) AS BIGINT) AS n
  FROM events GROUP BY 1, 2
), p AS (
  SELECT a.event_type,
         (b.n - a.n) * 1000000 // (b.d - a.d) AS slope
  FROM c a JOIN c b
    ON a.event_type = b.event_type AND b.d > a.d
)
, m AS (
  SELECT event_type, quantile_disc(slope, 0.5) AS med,
         CAST(count(*) AS BIGINT) AS n_pairs
  FROM p GROUP BY 1
), dd AS (
  SELECT event_type, CAST(count(*) AS BIGINT) AS n_days
  FROM c GROUP BY 1
)
SELECT dd.event_type, dd.n_days,
       CAST(COALESCE(m.n_pairs, 0) AS BIGINT) AS n_pairs,
       CAST(COALESCE(m.med, 0) AS BIGINT) AS slope_micro_per_day
FROM dd LEFT JOIN m USING (event_type) ORDER BY 1
"""


def moment_shape_by_type(sf_dir: str, n_bins: int = 1024) -> pa.Table:
    """SKEWNESS and EXCESS KURTOSIS of each event type's value
    distribution, computed on a fixed 1024-bin equi-width grid: the
    shape moments that tell a long right tail from a heavy symmetric
    one.  Standardized moments are scale-free, so binning to integer
    indices preserves them (up to grid resolution) while making every
    distributed sum exact.

    Determinism: per-(type,bin) counts are exact int64; the power sums
    S1..S4 over bin indices are exact big ints (Python on the driver,
    HUGEINT in the oracle); the one final float expression
    (m3/var^1.5, m4/var^2 - 3) is mirrored term-for-term and floored
    to ppm.

    Scale shape: pass 1 = distributed Min/Max; pass 2 = one bounded
    (type, bin) partial per block and a (types x bins)-key groupby; the
    moment math runs on the driver over <= types*n_bins rows.
    """
    ds = _read(sf_dir, "events", ["event_type", "value"])

    def micro(t: pa.Table) -> pa.Table:
        return pa.table({"event_type": t["event_type"],
                         "m": _int_units(t["value"], 1_000_000)})

    vals = ds.map_batches(micro, batch_format="pyarrow",
                          zero_copy_batch=True).materialize()
    mm = vals.aggregate(Min("m", alias_name="lo"),
                        Max("m", alias_name="hi"))
    lo, hi = int(mm["lo"]), int(mm["hi"])
    span = hi - lo + 1

    def binned(t: pa.Table) -> pa.Table:
        m = t["m"].to_numpy(zero_copy_only=False)
        b = np.zeros_like(m) if span <= 1 else (m - lo) * n_bins // span
        return pa.table({"event_type": t["event_type"],
                         "bin": pa.array(b.astype(np.int64))})

    agg = combine_agg(vals, ["event_type", "bin"], binned,
                      [("bin", "count")],
                      named("event_type", "bin", "c")).to_pandas()
    import math
    rows = []
    for ty in sorted(agg["event_type"].unique()):
        sub = agg[agg["event_type"] == ty]
        # exact big-int power sums over bin indices
        n = s1 = s2 = s3 = s4 = 0
        for b, c in zip(sub["bin"].astype(int), sub["c"].astype(int)):
            n += c
            s1 += c * b
            s2 += c * b * b
            s3 += c * b * b * b
            s4 += c * b * b * b * b
        mean_ppm = s1 * 1_000_000 // n
        mmn = float(s1) / float(n)
        e2 = float(s2) / float(n)
        var = e2 - mmn * mmn
        if var <= 0.0:
            skew_ppm = kurt_ppm = 0
        else:
            m3 = float(s3) / float(n) - 3.0 * mmn * e2 \
                + 2.0 * mmn * mmn * mmn
            m4 = float(s4) / float(n) \
                - 4.0 * mmn * (float(s3) / float(n)) \
                + 6.0 * mmn * mmn * e2 - 3.0 * mmn * mmn * mmn * mmn
            skew_ppm = math.floor(m3 / (var * math.sqrt(var))
                                  * 1000000.0)
            kurt_ppm = math.floor((m4 / (var * var) - 3.0) * 1000000.0)
        rows.append((ty, n, mean_ppm, skew_ppm, kurt_ppm))
    return pa.table({
        "event_type": pa.array([r[0] for r in rows], type=pa.string()),
        "n": pa.array([r[1] for r in rows], type=pa.int64()),
        "mean_bin_ppm": pa.array([r[2] for r in rows], type=pa.int64()),
        "skew_ppm": pa.array([r[3] for r in rows], type=pa.int64()),
        "kurt_ppm": pa.array([r[4] for r in rows], type=pa.int64()),
    })


MOMENT_SHAPE_SQL = """
WITH v AS (
  SELECT event_type,
         CAST(floor(value * 1000000.0 + 0.5) AS BIGINT) AS m
  FROM events
), b AS (SELECT min(m) AS lo, max(m) AS hi FROM v),
g AS (
  SELECT event_type,
         CASE WHEN b.hi - b.lo + 1 <= 1 THEN 0
              ELSE (m - b.lo) * 1024 // (b.hi - b.lo + 1) END AS bin,
         CAST(count(*) AS BIGINT) AS c
  FROM v CROSS JOIN b GROUP BY 1, 2
), s AS (
  SELECT event_type,
         CAST(sum(c) AS HUGEINT) AS n,
         CAST(sum(c * bin) AS HUGEINT) AS s1,
         CAST(sum(c * bin * bin) AS HUGEINT) AS s2,
         CAST(sum(c * bin * bin * bin) AS HUGEINT) AS s3,
         CAST(sum(c * bin * bin * bin * bin) AS HUGEINT) AS s4
  FROM g GROUP BY 1
), f AS (
  SELECT event_type, n, s1,
         CAST(s1 AS DOUBLE) / CAST(n AS DOUBLE) AS mmn,
         CAST(s2 AS DOUBLE) / CAST(n AS DOUBLE) AS e2,
         CAST(s3 AS DOUBLE) / CAST(n AS DOUBLE) AS e3,
         CAST(s4 AS DOUBLE) / CAST(n AS DOUBLE) AS e4
  FROM s
), x AS (
  SELECT event_type, n, s1, mmn, e2,
         e2 - mmn * mmn AS var,
         e3 - 3.0 * mmn * e2 + 2.0 * mmn * mmn * mmn AS m3,
         e4 - 4.0 * mmn * e3 + 6.0 * mmn * mmn * e2
            - 3.0 * mmn * mmn * mmn * mmn AS m4
  FROM f
)
SELECT event_type, CAST(n AS BIGINT) AS n,
       CAST(s1 * 1000000 // n AS BIGINT) AS mean_bin_ppm,
       CAST(CASE WHEN var <= 0.0 THEN 0
            ELSE floor(m3 / (var * sqrt(var)) * 1000000.0)
       END AS BIGINT) AS skew_ppm,
       CAST(CASE WHEN var <= 0.0 THEN 0
            ELSE floor((m4 / (var * var) - 3.0) * 1000000.0)
       END AS BIGINT) AS kurt_ppm
FROM x ORDER BY 1
"""


def cusum_hourly_alarms(sf_dir: str) -> pa.Table:
    """CUSUM (Page) control chart over each event type's hourly count
    series: the one-sided cumulative-sum recurrence
    S_i = max(0, S_{i-1} + x_i - mean - k) that detects a sustained
    upward level shift far sooner than any per-hour threshold.

    Determinism: the recurrence is scaled by n_hours so the mean never
    becomes a float -- S_i = max(0, S_{i-1} + n*x_i - T - K) with slack
    K = T//20 and alarm threshold H = T//2, all exact int64; the SQL
    oracle replays the identical recurrence with a recursive CTE.

    Scale shape: per-block (type, hour) combiner -> cardinality-bounded
    groupby; the inherently-sequential CUSUM walk runs on the driver
    over the bounded hour span per type, never on raw events.
    """
    ds = _read(sf_dir, "events", ["event_type", "ts"])

    agg = combine_agg(ds, ["event_type", "h"], _event_hours,
                      [("h", "count")],
                      named("event_type", "h", "n")).to_pandas()
    h0, h1 = int(agg["h"].min()), int(agg["h"].max())
    nh = h1 - h0 + 1
    rows = []
    for ty in sorted(agg["event_type"].unique()):
        sub = agg[agg["event_type"] == ty]
        x = np.zeros(nh, dtype=np.int64)
        x[sub["h"].to_numpy(dtype=np.int64) - h0] = \
            sub["n"].to_numpy(dtype=np.int64)
        tot = int(x.sum())
        slack, thresh = tot // 20, tot // 2
        s, max_s, n_alarms, first = 0, 0, 0, -1
        for i in range(nh):
            s = max(0, s + nh * int(x[i]) - tot - slack)
            if s > max_s:
                max_s = s
            if s > thresh:
                n_alarms += 1
                if first < 0:
                    first = i
        rows.append((ty, nh, tot, n_alarms, max_s, first))
    return pa.table({
        "event_type": pa.array([r[0] for r in rows], type=pa.string()),
        "n_hours": pa.array([r[1] for r in rows], type=pa.int64()),
        "total": pa.array([r[2] for r in rows], type=pa.int64()),
        "n_alarms": pa.array([r[3] for r in rows], type=pa.int64()),
        "max_s": pa.array([r[4] for r in rows], type=pa.int64()),
        "first_alarm_hour": pa.array([r[5] for r in rows],
                                     type=pa.int64()),
    })


CUSUM_HOURLY_SQL = """
WITH RECURSIVE
e AS (SELECT event_type, epoch_us(ts) // 3600000000 AS h FROM events),
b AS (SELECT min(h) AS h0, max(h) AS h1 FROM e),
hrs AS (SELECT unnest(generate_series(b.h0, b.h1)) AS h FROM b),
ty AS (SELECT DISTINCT event_type FROM e),
c AS (
  SELECT event_type, h, CAST(count(*) AS BIGINT) AS n
  FROM e GROUP BY 1, 2
), f AS (
  SELECT ty.event_type, hrs.h - b.h0 AS i, COALESCE(c.n, 0) AS x
  FROM ty CROSS JOIN hrs CROSS JOIN b
  LEFT JOIN c ON c.event_type = ty.event_type AND c.h = hrs.h
), t AS (
  SELECT event_type, CAST(sum(x) AS BIGINT) AS tot,
         CAST(count(*) AS BIGINT) AS nh
  FROM f GROUP BY 1
), rec(event_type, i, s) AS (
  SELECT f.event_type, CAST(0 AS BIGINT),
         GREATEST(CAST(0 AS BIGINT),
                  t.nh * f.x - t.tot - t.tot // 20)
  FROM f JOIN t USING (event_type) WHERE f.i = 0
  UNION ALL
  SELECT r.event_type, r.i + 1,
         GREATEST(CAST(0 AS BIGINT),
                  r.s + t.nh * f.x - t.tot - t.tot // 20)
  FROM rec r
  JOIN f ON f.event_type = r.event_type AND f.i = r.i + 1
  JOIN t ON t.event_type = r.event_type
)
SELECT t.event_type, t.nh AS n_hours, t.tot AS total,
       CAST(count(*) FILTER (WHERE rec.s > t.tot // 2) AS BIGINT)
         AS n_alarms,
       CAST(COALESCE(max(rec.s), 0) AS BIGINT) AS max_s,
       CAST(COALESCE(min(rec.i) FILTER (WHERE rec.s > t.tot // 2), -1)
            AS BIGINT) AS first_alarm_hour
FROM t LEFT JOIN rec USING (event_type)
GROUP BY 1, 2, 3 ORDER BY 1
"""


def gopher_rules_report(sf_dir: str) -> pa.Table:
    """GOPHER-STYLE quality-rule report (Rae et al. 2021, table A1
    adapted to this corpus' scale): per-language counts of documents
    failing each rule, plus the documents passing all of them --
    the per-rule attribution a corpus curator reads before tuning
    thresholds, not just the final keep count.

      R1 token count outside [30, 100000]
      R2 mean token length outside [3, 10]   (integer cross-multiply)
      R3 punctuation-to-token ratio > 0.1    (punct*10 > tokens)
      R4 fewer than 2 stopword occurrences

    Tokens/punctuation/stopwords reuse the proven oracle-parity
    definitions in functions/text.py; mean token length is derived as
    (total chars - chars after stripping tokens), one vectorized
    regex-replace, never a Python loop.

    Scale shape: four regex kernels per block + per-block (lang)
    combiner -> one 5-key groupby; nothing but per-lang counters ever
    shuffles.
    """
    from ..functions.text import (TOKEN_RE, token_count, punct_count,
                                  stopword_count)
    ds = _read(sf_dir, "documents", ["lang", "text"])

    def rules(t: pa.Table) -> pa.Table:
        text = t["text"].combine_chunks() if isinstance(
            t["text"], pa.ChunkedArray) else t["text"]
        toks = token_count(text).to_numpy(zero_copy_only=False)
        punct = punct_count(text).to_numpy(zero_copy_only=False)
        stops = stopword_count(text).to_numpy(zero_copy_only=False)
        stripped = pc.cast(pc.utf8_length(pc.replace_substring_regex(
            text, TOKEN_RE, "")), pa.int64()).to_numpy(
                zero_copy_only=False)
        chars = pc.cast(pc.utf8_length(text), pa.int64()).to_numpy(
            zero_copy_only=False)
        tokchars = chars - stripped
        f1 = (toks < 30) | (toks > 100000)
        f2 = (tokchars < 3 * toks) | (tokchars > 10 * toks)
        f3 = punct * 10 > toks
        f4 = stops < 2
        ok = ~(f1 | f2 | f3 | f4)
        return pa.table({
            "lang": t["lang"],
            "f1": pa.array(f1.astype(np.int64)),
            "f2": pa.array(f2.astype(np.int64)),
            "f3": pa.array(f3.astype(np.int64)),
            "f4": pa.array(f4.astype(np.int64)),
            "ok": pa.array(ok.astype(np.int64)),
        })

    agg = (combine_agg(ds, ["lang"], rules,
                       [("ok", "count"), ("f1", "sum"), ("f2", "sum"),
                        ("f3", "sum"), ("f4", "sum"), ("ok", "sum")],
                       named("lang", "n_docs", "n_fail_wordcount",
                             "n_fail_wordlen", "n_fail_symbol",
                             "n_fail_stopword", "n_pass"))
           .to_pandas().sort_values("lang").reset_index(drop=True))
    return pa.table({
        "lang": pa.array(agg["lang"], type=pa.string()),
        "n_docs": pa.array(agg["n_docs"].astype(np.int64)),
        "n_fail_wordcount": pa.array(
            agg["n_fail_wordcount"].astype(np.int64)),
        "n_fail_wordlen": pa.array(
            agg["n_fail_wordlen"].astype(np.int64)),
        "n_fail_symbol": pa.array(agg["n_fail_symbol"].astype(np.int64)),
        "n_fail_stopword": pa.array(
            agg["n_fail_stopword"].astype(np.int64)),
        "n_pass": pa.array(agg["n_pass"].astype(np.int64)),
    })


def vocab_growth_curve(sf_dir: str) -> pa.Table:
    """HEAPS'-LAW vocabulary growth: reading the corpus in doc_id order,
    how many NEVER-SEEN-BEFORE token types does each corpus decile
    contribute?  A healthy natural corpus keeps minting types
    (V ~ k*n^beta); a template-heavy or duplicated crawl flatlines --
    the curve is the dedup-planning diagnostic.

    A token type's decile is the decile of min(doc_id) over its
    occurrences, so the curve is order-deterministic and exactly
    SQL-replicable (no streaming state).  Tokens are the proven
    oracle-parity [a-z0-9]+ runs over lower(text).

    Scale shape: per-block (token, min-doc, count) combiner -> ONE
    groupby(token) all-to-all (the operator IS a distinct-by-key);
    decile math and the 10-row cumsum run on bounded aggregates.
    """
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    hi = int(ds.max("doc_id"))
    span = hi + 1

    def toks(t: pa.Table) -> pa.Table:
        text = t["text"].combine_chunks() if isinstance(
            t["text"], pa.ChunkedArray) else t["text"]
        arr = pc.split_pattern_regex(
            pc.utf8_lower(text), "[^a-z0-9]+")
        flat = pc.list_flatten(arr)
        keep = pc.not_equal(pc.utf8_length(flat), pa.scalar(0, type=pa.int32()))
        flat = flat.filter(keep)
        # parent doc per token: repeat doc_id by list length
        lens = pc.list_value_length(arr).to_numpy(zero_copy_only=False)
        docs = np.repeat(t["doc_id"].to_numpy(zero_copy_only=False),
                         lens)
        docs = docs[np.asarray(keep)]
        return pa.table({"token": flat,
                         "doc": pa.array(docs.astype(np.int64))})

    agg = combine_agg(ds, ["token"], toks,
                      [("doc", "min"), ("doc", "count")],
                      named("token", "first_doc", "occ"))

    def decile(t: pa.Table) -> pa.Table:
        return pa.table({
            "decile": t["first_doc"].to_numpy(zero_copy_only=False)
            * 10 // span,
            "occ": t["occ"]})

    out = (combine_agg(agg, ["decile"], decile,
                       [("occ", "count"), ("occ", "sum")],
                       named("decile", "new_tokens", "occurrences"))
           .to_pandas().sort_values("decile").reset_index(drop=True))
    nt = np.zeros(10, dtype=np.int64)
    oc = np.zeros(10, dtype=np.int64)
    nt[out["decile"].to_numpy(dtype=np.int64)] = out["new_tokens"]
    oc[out["decile"].to_numpy(dtype=np.int64)] = out["occurrences"]
    return pa.table({
        "decile": pa.array(list(range(10)), type=pa.int64()),
        "new_tokens": pa.array(nt),
        "cum_vocab": pa.array(nt.cumsum().astype(np.int64)),
        "occurrences": pa.array(oc),
    })


VOCAB_GROWTH_SQL = """
WITH tok AS (
  SELECT doc_id,
         unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS token
  FROM documents
), span AS (SELECT max(doc_id) + 1 AS s FROM documents),
firsts AS (
  SELECT token, min(doc_id) AS first_doc,
         CAST(count(*) AS BIGINT) AS occ
  FROM tok GROUP BY 1
), g AS (
  SELECT first_doc * 10 // span.s AS decile,
         CAST(count(*) AS BIGINT) AS new_tokens,
         CAST(sum(occ) AS BIGINT) AS occurrences
  FROM firsts CROSS JOIN span GROUP BY 1
), grid AS (SELECT unnest(generate_series(0, 9)) AS decile)
SELECT grid.decile,
       CAST(COALESCE(g.new_tokens, 0) AS BIGINT) AS new_tokens,
       CAST(sum(COALESCE(g.new_tokens, 0))
            OVER (ORDER BY grid.decile) AS BIGINT) AS cum_vocab,
       CAST(COALESCE(g.occurrences, 0) AS BIGINT) AS occurrences
FROM grid LEFT JOIN g USING (decile)
ORDER BY 1
"""


def fano_dispersion_by_type(sf_dir: str) -> pa.Table:
    """FANO dispersion index (variance-to-mean ratio) of each event
    type's hourly arrival counts on the zero-filled hour grid: ~1e6 ppm
    for Poisson traffic, >1e6 for bursty arrivals, <1e6 for
    metronome-regular ones -- the burstiness diagnostic that tells a
    CUSUM alarm (level shift) from plain overdispersion.

    Determinism: hourly counts are exact ints; with S1 = sum x,
    S2 = sum x^2 over n hours, fano_ppm = floor((n*S2 - S1^2) * 1e6 /
    (n * S1)) is pure integer arithmetic -- no float ever forms.

    Scale shape: the same per-block (type, hour) combiner as the CUSUM
    chart; the 5-row ratio math runs on bounded aggregates.
    """
    ds = _read(sf_dir, "events", ["event_type", "ts"])

    agg = combine_agg(ds, ["event_type", "h"], _event_hours,
                      [("h", "count")],
                      named("event_type", "h", "n")).to_pandas()
    h0, h1 = int(agg["h"].min()), int(agg["h"].max())
    nh = h1 - h0 + 1
    rows = []
    for ty in sorted(agg["event_type"].unique()):
        sub = agg[agg["event_type"] == ty]
        x = np.zeros(nh, dtype=np.int64)
        x[sub["h"].to_numpy(dtype=np.int64) - h0] = \
            sub["n"].to_numpy(dtype=np.int64)
        s1 = int(x.sum())
        s2 = int((x * x).sum())
        fano = (nh * s2 - s1 * s1) * 1_000_000 // (nh * s1) \
            if s1 else 0
        rows.append((ty, nh, s1, fano))
    return pa.table({
        "event_type": pa.array([r[0] for r in rows], type=pa.string()),
        "n_hours": pa.array([r[1] for r in rows], type=pa.int64()),
        "total": pa.array([r[2] for r in rows], type=pa.int64()),
        "fano_ppm": pa.array([r[3] for r in rows], type=pa.int64()),
    })


FANO_DISPERSION_SQL = """
WITH e AS (SELECT event_type, epoch_us(ts) // 3600000000 AS h
           FROM events),
b AS (SELECT min(h) AS h0, max(h) AS h1 FROM e),
hrs AS (SELECT unnest(generate_series(b.h0, b.h1)) AS h FROM b),
ty AS (SELECT DISTINCT event_type FROM e),
c AS (SELECT event_type, h, CAST(count(*) AS BIGINT) AS n
      FROM e GROUP BY 1, 2),
f AS (
  SELECT ty.event_type, hrs.h, COALESCE(c.n, 0) AS x
  FROM ty CROSS JOIN hrs
  LEFT JOIN c ON c.event_type = ty.event_type AND c.h = hrs.h
)
SELECT event_type,
       CAST(count(*) AS BIGINT) AS n_hours,
       CAST(sum(x) AS BIGINT) AS total,
       CAST(CASE WHEN sum(x) = 0 THEN 0
            ELSE (count(*) * sum(x * x) - sum(x) * sum(x)) * 1000000
                 // (count(*) * sum(x)) END AS BIGINT) AS fano_ppm
FROM f GROUP BY 1 ORDER BY 1
"""


def hhi_source_concentration(sf_dir: str) -> pa.Table:
    """HERFINDAHL-HIRSCHMAN concentration of each language's source
    mix: HHI = sum over sources of share^2, in exact ppm
    (floor(sum(n_s^2) * 1e6 / n^2)) -- 1e6/k for a k-way even split,
    1e6 when one source owns the language; the single-supplier-risk
    audit for corpus curation.

    Scale shape: per-block (lang, source) combiner -> bounded groupby;
    the squared-share math runs on <= langs x sources driver rows with
    Python big ints.
    """
    ds = _read(sf_dir, "documents", ["lang", "source"])
    agg = combine_agg(ds, ["lang", "source"], lambda t: t,
                      [("source", "count")],
                      named("lang", "source", "n")).to_pandas()
    rows = []
    for lang in sorted(agg["lang"].unique()):
        sub = agg[agg["lang"] == lang]
        ns = [int(v) for v in sub["n"]]
        n = sum(ns)
        hhi = sum(v * v for v in ns) * 1_000_000 // (n * n) if n else 0
        rows.append((lang, len(ns), n, hhi))
    return pa.table({
        "lang": pa.array([r[0] for r in rows], type=pa.string()),
        "n_sources": pa.array([r[1] for r in rows], type=pa.int64()),
        "n_docs": pa.array([r[2] for r in rows], type=pa.int64()),
        "hhi_ppm": pa.array([r[3] for r in rows], type=pa.int64()),
    })


HHI_SOURCE_SQL = """
WITH c AS (
  SELECT lang, source, CAST(count(*) AS BIGINT) AS n
  FROM documents GROUP BY 1, 2
)
SELECT lang,
       CAST(count(*) AS BIGINT) AS n_sources,
       CAST(sum(n) AS BIGINT) AS n_docs,
       CAST(sum(n * n) * 1000000 // (sum(n) * sum(n)) AS BIGINT)
         AS hhi_ppm
FROM c GROUP BY 1 ORDER BY 1
"""


def eb_shrunk_user_rates(sf_dir: str, m: int = 20,
                         k: int = 10) -> pa.Table:
    """EMPIRICAL-BAYES shrunk per-user purchase rates: each user's
    purchase share is pulled toward the global prior with pseudo-count
    m -- shrunk_ppm = (purchases*1e6 + prior_ppm*m) // (events + m) --
    so a 1-for-1 user cannot outrank a 90-for-100 one; the top-k by
    shrunk rate, deterministically tie-broken by user_id.  The
    smoothed-rate ranking every sparse-entity leaderboard needs, in
    pure integer arithmetic.

    Scale shape: per-block per-user (purchases, events) combiner ->
    one groupby(user); the global prior is a 2-number aggregate; top-k
    is a block-local prereduce then a k-row driver sort.
    """
    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": t["user_id"],
            "p": pc.cast(pc.equal(t["event_type"], pa.scalar("purchase")),
                         pa.int64())})

    per_user = combine_agg(ds, ["user_id"], prep,
                           [("p", "sum"), ("p", "count")],
                           named("user_id", "p", "n")).materialize()
    tot = per_user.aggregate(Sum("p", alias_name="tp"),
                             Sum("n", alias_name="tn"))
    prior_ppm = int(tot["tp"]) * 1_000_000 // int(tot["tn"])

    empty = pa.table({"user_id": pa.array([], type=pa.int64()),
                      "purchases": pa.array([], type=pa.int64()),
                      "events": pa.array([], type=pa.int64()),
                      "shrunk_ppm": pa.array([], type=pa.int64())})

    def shrink_topk(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        p = t["p"].to_numpy(zero_copy_only=False)
        n = t["n"].to_numpy(zero_copy_only=False)
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        s = (p * 1_000_000 + prior_ppm * m) // (n + m)
        # block-local top-k prereduce: rank by (-shrunk, user_id)
        order = np.lexsort((uid, -s))[:k]
        return pa.table({"user_id": pa.array(uid[order]),
                         "purchases": pa.array(p[order]),
                         "events": pa.array(n[order]),
                         "shrunk_ppm": pa.array(s[order])})

    cand = (per_user.map_batches(shrink_topk, batch_format="pyarrow",
                                 zero_copy_batch=True)
            .to_pandas())
    cand = cand.sort_values(["shrunk_ppm", "user_id"],
                            ascending=[False, True]).head(k)
    return pa.table({
        "user_id": pa.array(cand["user_id"].astype(np.int64)),
        "purchases": pa.array(cand["purchases"].astype(np.int64)),
        "events": pa.array(cand["events"].astype(np.int64)),
        "shrunk_ppm": pa.array(cand["shrunk_ppm"].astype(np.int64)),
    })


EB_SHRUNK_SQL = """
WITH pu AS (
  SELECT user_id,
         CAST(sum(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END)
              AS BIGINT) AS p,
         CAST(count(*) AS BIGINT) AS n
  FROM events GROUP BY 1
), t AS (
  SELECT CAST(sum(p) * 1000000 // sum(n) AS BIGINT) AS prior_ppm
  FROM pu
)
SELECT user_id, p AS purchases, n AS events,
       CAST((p * 1000000 + t.prior_ppm * 20) // (n + 20) AS BIGINT)
         AS shrunk_ppm
FROM pu CROSS JOIN t
ORDER BY shrunk_ppm DESC, user_id ASC
LIMIT 10
"""


def temperature_mix_weights(sf_dir: str, temp_num: int = 7,
                            temp_den: int = 10) -> pa.Table:
    """TEMPERATURE-SCALED language sampling weights (the multilingual
    pretraining standard: q_l ∝ p_l^T with T = 0.7): low-resource
    languages are upsampled, the head is flattened -- the corpus-mixing
    knob every multilingual training run turns.

    Determinism: p_l are exact doc-count rationals; p^T = exp(T*ln p)
    is ONE mirrored float expression per language over identical double
    inputs, floored to ppm BEFORE the final integer renormalization, so
    the output weights are pure integers (micro-shares that sum to
    <= 1e6 with the remainder attributed to the largest language,
    largest-remainder style on a single row).

    Scale shape: per-block lang combiner -> one <=langs-key groupby;
    everything else is driver math over one row per language.
    """
    import math
    ds = _read(sf_dir, "documents", ["lang"])
    agg = (combine_agg(ds, ["lang"], lambda t: t, [("lang", "count")],
                       named("lang", "n"))
           .to_pandas().sort_values("lang").reset_index(drop=True))
    langs = list(agg["lang"])
    ns = [int(v) for v in agg["n"]]
    total = sum(ns)
    t_f = float(temp_num) / float(temp_den)
    raw_ppm = [n * 1_000_000 // total for n in ns]
    # p^T in micro units, each a single mirrored float expression
    pw = [math.floor(math.exp(t_f * math.log(float(n) / float(total)))
                     * 1000000.0) for n in ns]
    wsum = sum(pw)
    temp_ppm = [w * 1_000_000 // wsum for w in pw]
    # largest-remainder: hand the rounding slack to the largest lang
    slack = 1_000_000 - sum(temp_ppm)
    imax = max(range(len(ns)), key=lambda i: (ns[i], langs[i]))
    temp_ppm[imax] += slack
    return pa.table({
        "lang": pa.array(langs, type=pa.string()),
        "n_docs": pa.array(ns, type=pa.int64()),
        "raw_ppm": pa.array(raw_ppm, type=pa.int64()),
        "temp_ppm": pa.array(temp_ppm, type=pa.int64()),
    })


TEMPERATURE_MIX_SQL = """
WITH c AS (
  SELECT lang, CAST(count(*) AS BIGINT) AS n FROM documents GROUP BY 1
), t AS (SELECT CAST(sum(n) AS BIGINT) AS total FROM c),
w AS (
  SELECT lang, n,
         CAST(n * 1000000 // t.total AS BIGINT) AS raw_ppm,
         CAST(floor(exp(0.7 * ln(CAST(n AS DOUBLE)
                                 / CAST(t.total AS DOUBLE)))
                    * 1000000.0) AS BIGINT) AS pw
  FROM c CROSS JOIN t
), s AS (SELECT CAST(sum(pw) AS BIGINT) AS wsum FROM w),
q AS (
  SELECT lang, n, raw_ppm,
         CAST(pw * 1000000 // s.wsum AS BIGINT) AS tp
  FROM w CROSS JOIN s
), slack AS (SELECT 1000000 - CAST(sum(tp) AS BIGINT) AS sl FROM q),
big AS (
  SELECT lang AS blang FROM q ORDER BY n DESC, lang DESC LIMIT 1
)
SELECT lang, n AS n_docs, raw_ppm,
       CAST(tp + CASE WHEN lang = big.blang THEN slack.sl ELSE 0 END
            AS BIGINT) AS temp_ppm
FROM q CROSS JOIN slack CROSS JOIN big
ORDER BY lang
"""


_FK_RELATIONS: list[tuple[str, str, str, str, str]] = [
    # (label, child table, fk col, parent table, pk col)
    ("customer.c_nationkey->nation", "customer", "c_nationkey",
     "nation", "n_nationkey"),
    ("events.user_id->customer", "events", "user_id",
     "customer", "c_custkey"),
    ("lineitem.l_orderkey->orders", "lineitem", "l_orderkey",
     "orders", "o_orderkey"),
    ("lineitem.l_partkey->part", "lineitem", "l_partkey",
     "part", "p_partkey"),
    ("lineitem.l_suppkey->supplier", "lineitem", "l_suppkey",
     "supplier", "s_suppkey"),
    ("nation.n_regionkey->region", "nation", "n_regionkey",
     "region", "r_regionkey"),
    ("orders.o_custkey->customer", "orders", "o_custkey",
     "customer", "c_custkey"),
    ("supplier.s_nationkey->nation", "supplier", "s_nationkey",
     "nation", "n_nationkey"),
]


def fk_integrity_audit(sf_dir: str) -> pa.Table:
    """Referential-integrity audit over every foreign-key edge of the
    schema: per relation, how many child rows / distinct child keys
    exist and how many are ORPHANS (no matching parent key) -- the
    first data-quality report any warehouse runs after a load.

    Scale shape, per relation: the child side collapses to (fk, rows)
    via a per-block combiner BEFORE any exchange (the shuffle carries
    one row per distinct key per block, not per child row); parent keys
    are deduplicated the same way; both sides then hash co-partition on
    the key (`stages/partition.partition_by`) and each partition
    resolves its orphans with one vectorized `pc.is_in` -- an exact
    distributed anti-join with no driver-side key set and no broadcast
    of a possibly-huge parent.  The driver folds one summary row per
    partition per relation (O(partitions), never O(keys)).
    """
    from ..stages.partition import fit_partitions, partition_by

    out_rows: list[dict] = []
    for label, child_t, fk, parent_t, pk in _FK_RELATIONS:
        child = _read(sf_dir, child_t, [fk])

        def child_prep(t: pa.Table, fk=fk) -> pa.Table:
            keys = pc.cast(t[fk], pa.int64())
            g = pa.table({"key": keys}).group_by("key").aggregate(
                [("key", "count")])
            return pa.table({"key": g["key"],
                             "rows": pc.cast(g["key_count"], pa.int64()),
                             "side": pa.array(
                                 np.ones(g.num_rows, dtype=np.int64))})

        parent = _read(sf_dir, parent_t, [pk])

        def parent_prep(t: pa.Table, pk=pk) -> pa.Table:
            keys = pc.unique(pc.cast(t[pk], pa.int64()))
            n = len(keys)
            return pa.table({"key": keys,
                             "rows": pa.array(np.zeros(n, dtype=np.int64)),
                             "side": pa.array(np.zeros(n, dtype=np.int64))})

        both = (child.map_batches(child_prep, batch_format="pyarrow",
                                  zero_copy_batch=True)
                .union(parent.map_batches(parent_prep,
                                          batch_format="pyarrow",
                                          zero_copy_batch=True)))

        empty = pa.table({"fk_rows": pa.array([], type=pa.int64()),
                          "distinct_fk": pa.array([], type=pa.int64()),
                          "orphan_rows": pa.array([], type=pa.int64()),
                          "orphan_keys": pa.array([], type=pa.int64())})

        def resolve(t: pa.Table) -> pa.Table:
            key = t["key"].to_numpy(zero_copy_only=False)
            rows = t["rows"].to_numpy(zero_copy_only=False)
            side = t["side"].to_numpy(zero_copy_only=False)
            ck = key[side == 1]
            cr = rows[side == 1]
            # child combiner rows may repeat per block: fold per key
            uk, inv = np.unique(ck, return_inverse=True)
            ur = np.bincount(inv, weights=cr).astype(np.int64)
            pk_set = np.unique(key[side == 0])
            orphan = ~np.isin(uk, pk_set)
            return pa.table({
                "fk_rows": pa.array([int(ur.sum())]),
                "distinct_fk": pa.array([int(len(uk))]),
                "orphan_rows": pa.array([int(ur[orphan].sum())]),
                "orphan_keys": pa.array([int(orphan.sum())]),
            })

        parts = partition_by(both, ["key"], fit_partitions(16),
                             resolve, empty).to_pandas()
        out_rows.append({
            "relation": label,
            "fk_rows": int(parts["fk_rows"].sum()),
            "distinct_fk": int(parts["distinct_fk"].sum()),
            "orphan_rows": int(parts["orphan_rows"].sum()),
            "orphan_keys": int(parts["orphan_keys"].sum()),
        })

    out_rows.sort(key=lambda r: r["relation"])
    return pa.table({
        "relation": pa.array([r["relation"] for r in out_rows]),
        "fk_rows": pa.array([r["fk_rows"] for r in out_rows],
                            type=pa.int64()),
        "distinct_fk": pa.array([r["distinct_fk"] for r in out_rows],
                                type=pa.int64()),
        "orphan_rows": pa.array([r["orphan_rows"] for r in out_rows],
                                type=pa.int64()),
        "orphan_keys": pa.array([r["orphan_keys"] for r in out_rows],
                                type=pa.int64()),
    })


def _fk_sql_one(label: str, child_t: str, fk: str,
                parent_t: str, pk: str) -> str:
    return f"""
SELECT '{label}' AS relation,
       CAST(count(*) AS BIGINT) AS fk_rows,
       CAST(count(DISTINCT {fk}) AS BIGINT) AS distinct_fk,
       CAST(sum(CASE WHEN NOT EXISTS (
            SELECT 1 FROM {parent_t} p
            WHERE CAST(p.{pk} AS BIGINT) = CAST(c.{fk} AS BIGINT))
          THEN 1 ELSE 0 END) AS BIGINT) AS orphan_rows,
       CAST(count(DISTINCT CASE WHEN NOT EXISTS (
            SELECT 1 FROM {parent_t} p
            WHERE CAST(p.{pk} AS BIGINT) = CAST(c.{fk} AS BIGINT))
          THEN {fk} END) AS BIGINT) AS orphan_keys
FROM {child_t} c"""


FK_INTEGRITY_SQL = "\nUNION ALL\n".join(
    _fk_sql_one(*rel) for rel in _FK_RELATIONS) + "\nORDER BY relation"


_FD_CHECKS: list[tuple[str, str, str, str]] = [
    # (label, table, lhs col, rhs col)
    ("customer: c_nationkey->c_mktsegment", "customer",
     "c_nationkey", "c_mktsegment"),
    ("documents: source->lang", "documents", "source", "lang"),
    ("events: user_id->event_type", "events", "user_id", "event_type"),
    ("lineitem: l_orderkey->l_returnflag", "lineitem",
     "l_orderkey", "l_returnflag"),
    ("orders: o_custkey->o_orderpriority", "orders",
     "o_custkey", "o_orderpriority"),
    ("part: p_brand->p_type", "part", "p_brand", "p_type"),
]


def fd_violation_audit(sf_dir: str) -> pa.Table:
    """Functional-dependency audit: for each candidate FD ``lhs -> rhs``,
    how many lhs groups exist, how many VIOLATE the dependency (more
    than one distinct rhs), the worst group's variant count, and the
    number of distinct (lhs, rhs) pairs -- profiling output a schema-
    inference or data-contract tool emits.

    Scale shape: per-block DISTINCT combiner on int64 FINGERPRINT pair
    keys (the exchange carries 16-byte fp rows, never strings) -> ONE
    lhs-fp co-partition whose kernel finishes the pair dedup, counts
    per-lhs variants, and folds straight to the four scalars -> driver
    sums O(partitions) scalar rows.  One exchange per FD; no Ray
    aggregate touches a high-cardinality key (its combine is ~6 us per
    GROUP -- lineitem's 150k lhs groups made the string-keyed version
    ~9x slower).  Exact up to fingerprint64 collisions on (lhs, rhs)
    pairs -- the same fp64 tier contract the dedup/ppjoin gate paths
    rely on.
    """
    from ..functions.text import fingerprint64
    from ..hashing import splitmix64
    from ..stages.partition import fit_partitions, partition_by

    pair_empty = pa.table({"fd": pa.array([], type=pa.int64()),
                           "fpl": pa.array([], type=pa.int64()),
                           "fpc": pa.array([], type=pa.int64())})
    scal_empty = pa.table({"fd": pa.array([], type=pa.int64()),
                           "groups": pa.array([], type=pa.int64()),
                           "viol": pa.array([], type=pa.int64()),
                           "maxv": pa.array([], type=pa.int64()),
                           "pairs": pa.array([], type=pa.int64())})

    def kernel(t: pa.Table) -> pa.Table:
        fd = t["fd"].to_numpy(zero_copy_only=False)
        fpl = t["fpl"].to_numpy(zero_copy_only=False)
        fpc = t["fpc"].to_numpy(zero_copy_only=False)
        order = np.lexsort((fpc, fpl, fd))
        f_s, l_s, c_s = fd[order], fpl[order], fpc[order]
        keep = np.ones(l_s.size, dtype=bool)
        keep[1:] = ((f_s[1:] != f_s[:-1]) | (l_s[1:] != l_s[:-1])
                    | (c_s[1:] != c_s[:-1]))
        f_u, l_u = f_s[keep], l_s[keep]
        new = np.ones(l_u.size, dtype=bool)
        new[1:] = (f_u[1:] != f_u[:-1]) | (l_u[1:] != l_u[:-1])
        starts = np.flatnonzero(new)
        v = np.diff(np.append(starts, l_u.size))
        run_fd = f_u[starts]
        ufd, inv = np.unique(run_fd, return_inverse=True)
        groups = np.bincount(inv).astype(np.int64)
        viol = np.bincount(inv, weights=(v > 1)).astype(np.int64)
        pairs_n = np.bincount(inv, weights=v).astype(np.int64)
        maxv = np.zeros(ufd.size, dtype=np.int64)
        np.maximum.at(maxv, inv, v)
        return pa.table({"fd": pa.array(ufd),
                         "groups": pa.array(groups),
                         "viol": pa.array(viol),
                         "maxv": pa.array(maxv),
                         "pairs": pa.array(pairs_n)})

    # ONE execution for all FDs: each table contributes tagged fp-pair
    # rows, one (fd, lhs-fp) co-partition computes every audit at once
    parts = []
    for i, (label, table, lhs, rhs) in enumerate(_FD_CHECKS):
        ds = _read(sf_dir, table, [lhs, rhs])

        def pairs(t: pa.Table, i=i, lhs=lhs, rhs=rhs) -> pa.Table:
            if t.num_rows == 0:
                return pair_empty
            fpl = fingerprint64(pc.cast(t[lhs], pa.string())).to_numpy(
                zero_copy_only=False)
            fpr = fingerprint64(pc.cast(t[rhs], pa.string())).to_numpy(
                zero_copy_only=False)
            fpc = (splitmix64(fpl * np.int64(1_000_003) + fpr)
                   >> np.uint64(1)).astype(np.int64)
            u, idx = np.unique(fpc, return_index=True)
            return pa.table({
                "fd": pa.array(np.full(u.size, i, dtype=np.int64)),
                "fpl": pa.array(fpl[idx]),
                "fpc": pa.array(u)})

        parts.append(ds.map_batches(pairs, batch_format="pyarrow",
                                    zero_copy_batch=True))

    allp = parts[0] if len(parts) == 1 else parts[0].union(*parts[1:])
    f = partition_by(allp, ["fd", "fpl"],
                     fit_partitions(16), kernel, scal_empty).to_pandas()
    out: list[dict] = []
    for i, (label, _, _, _) in enumerate(_FD_CHECKS):
        g = f[f["fd"] == i]
        out.append({"fd": label,
                    "lhs_groups": int(g["groups"].sum()),
                    "violating_groups": int(g["viol"].sum()),
                    "max_rhs_variants": int(g["maxv"].max()),
                    "distinct_pairs": int(g["pairs"].sum())})

    out.sort(key=lambda r: r["fd"])
    return pa.table({
        "fd": pa.array([r["fd"] for r in out]),
        "lhs_groups": pa.array([r["lhs_groups"] for r in out],
                               type=pa.int64()),
        "violating_groups": pa.array(
            [r["violating_groups"] for r in out], type=pa.int64()),
        "max_rhs_variants": pa.array(
            [r["max_rhs_variants"] for r in out], type=pa.int64()),
        "distinct_pairs": pa.array([r["distinct_pairs"] for r in out],
                                   type=pa.int64()),
    })


def _fd_sql_one(label: str, table: str, lhs: str, rhs: str) -> str:
    return f"""
SELECT '{label}' AS fd,
       CAST(count(*) AS BIGINT) AS lhs_groups,
       CAST(sum(CASE WHEN v > 1 THEN 1 ELSE 0 END) AS BIGINT)
         AS violating_groups,
       CAST(max(v) AS BIGINT) AS max_rhs_variants,
       CAST(sum(v) AS BIGINT) AS distinct_pairs
FROM (SELECT CAST({lhs} AS VARCHAR) AS l,
             count(DISTINCT CAST({rhs} AS VARCHAR)) AS v
      FROM {table} GROUP BY 1)"""


FD_VIOLATION_SQL = "\nUNION ALL\n".join(
    _fd_sql_one(*fd) for fd in _FD_CHECKS) + "\nORDER BY fd"


def char_bigram_entropy_by_lang(sf_dir: str) -> pa.Table:
    """Character-BIGRAM language-model entropy per language: train the
    empirical bigram model p(b|a) = c(ab)/c(a.) on the corpus itself and
    report its total code length  -sum_ab c(ab) * ln p(b|a)  in integer
    micro-nats -- the standard "how predictable is this language's
    text" corpus statistic (and the cross-entropy a char-bigram
    compressor would achieve), plus doc/bigram/vocabulary counts.

    Scale shape: per-batch vectorized bigram keying (each text decodes
    to one uint32 codepoint buffer -- C-level encode per doc, numpy
    pair-keying; never a per-character Python loop) -> grouped count
    per (lang, bigram) -> hash co-partition on (lang, first char) so
    each partition holds whole conditional distributions -> per-bigram
    floor(1e6*ln(c/t)) terms -> grouped per-lang sums.  The model table is vocabulary-bounded
    (distinct bigrams), never corpus-sized.

    Determinism: ln is applied to the SAME double ratio in numpy and
    DuckDB and floored to micro-nats per (lang, bigram) term, so the
    integer totals hash-match (proven per-term-ln-parity pattern).
    """
    ds = _read(sf_dir, "documents", ["lang", "text"])

    def bigrams(t: pa.Table) -> pa.Table:
        keys, docs = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
        for i, s in enumerate(t["text"].to_numpy(zero_copy_only=False)):
            if s is not None and len(s) >= 2:  # C-level utf-32 decode
                c = np.frombuffer(s.encode("utf-32-le"),
                                  dtype=np.uint32).astype(np.int64)
                keys.append((c[:-1] << 21) | c[1:])
                docs.append(np.full(c.shape[0] - 1, i, dtype=np.int64))
        return pa.table({"lang": pc.take(t["lang"], np.concatenate(docs)),
                         "bg": np.concatenate(keys)})

    model = combine_agg(ds, ["lang", "bg"], bigrams, [("bg", "count")],
                        named("lang", "bg", "c"))

    def add_ctxkey(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "bg" not in t.column_names:
            return pa.table({"lang": pa.array([], type=pa.string()),
                             "bg": pa.array([], type=pa.int64()),
                             "c": pa.array([], type=pa.int64()),
                             "ctxkey": pa.array([], type=pa.int64())})
        langs = t["lang"].to_numpy(zero_copy_only=False)
        bg = t["bg"].to_numpy(zero_copy_only=False)
        codes = np.zeros(t.num_rows, dtype=np.int64)
        for lang in np.unique(langs):
            lc = int.from_bytes(str(lang).encode()[:7], "big")
            codes[langs == lang] = lc
        # co-location key only -- collisions just merge partitions
        ctx = (codes * 1_000_003 + (bg >> 21)) % (1 << 61)
        return pa.table({"lang": t["lang"], "bg": pa.array(bg),
                         "c": pc.cast(t["c"], pa.int64()),
                         "ctxkey": pa.array(ctx)})

    empty = pa.table({"lang": pa.array([], type=pa.string()),
                      "c": pa.array([], type=pa.int64()),
                      "code_len": pa.array([], type=pa.int64())})

    def score_partition(t: pa.Table) -> pa.Table:
        langs = t["lang"].to_numpy(zero_copy_only=False)
        bg = t["bg"].to_numpy(zero_copy_only=False)
        c = t["c"].to_numpy(zero_copy_only=False)
        # per (lang, first char < 2^21): the context total of each bigram
        lcode = np.unique(langs, return_inverse=True)[1].astype(np.int64)
        _, inv = np.unique((lcode << 21) | (bg >> 21), return_inverse=True)
        tot = np.bincount(inv, weights=c).astype(np.int64)
        lp = np.floor(np.log(c.astype(np.float64)
                             / tot[inv].astype(np.float64))
                      * 1_000_000.0).astype(np.int64)
        return pa.table({"lang": t["lang"], "c": pa.array(c),
                         "code_len": pa.array(-(c * lp))})

    from ..stages.partition import fit_partitions, partition_by
    partials = partition_by(
        model.map_batches(add_ctxkey, batch_format="pyarrow"),
        ["ctxkey"], fit_partitions(16), score_partition, empty)
    stats = combine_agg(partials, ["lang"], lambda t: t,
                        [("c", "count"), ("c", "sum"), ("code_len", "sum")],
                        named("lang", "distinct_bigrams", "n_bigrams",
                              "xent_micro")).to_pandas()
    nd = combine_agg(_read(sf_dir, "documents", ["lang"]), ["lang"],
                     lambda t: t, [("lang", "count")],
                     named("lang", "n_docs")).to_pandas()
    merged = nd.merge(stats, on="lang", how="left").fillna(0)
    merged = merged.sort_values("lang").reset_index(drop=True)
    return pa.table({
        "lang": pa.array(merged["lang"], type=pa.string()),
        "n_docs": pa.array(merged["n_docs"].astype(np.int64)),
        "distinct_bigrams": pa.array(
            merged["distinct_bigrams"].astype(np.int64)),
        "n_bigrams": pa.array(merged["n_bigrams"].astype(np.int64)),
        "xent_micro": pa.array(merged["xent_micro"].astype(np.int64)),
    })


CHAR_BIGRAM_ENTROPY_SQL = """
WITH ch AS (
  SELECT lang, substr(text, CAST(u AS INT), 2) AS bg
  FROM (SELECT lang, text,
               unnest(generate_series(1, length(text) - 1)) AS u
        FROM documents)
), bc AS (
  SELECT lang, bg, CAST(count(*) AS BIGINT) AS c FROM ch GROUP BY 1, 2
), cc AS (
  SELECT lang, substr(bg, 1, 1) AS a, CAST(sum(c) AS BIGINT) AS t
  FROM bc GROUP BY 1, 2
), term AS (
  SELECT bc.lang, bc.c,
         CAST(floor(ln(CAST(bc.c AS DOUBLE) / CAST(cc.t AS DOUBLE))
                    * 1000000.0) AS BIGINT) AS lp
  FROM bc JOIN cc ON bc.lang = cc.lang AND substr(bc.bg, 1, 1) = cc.a
), agg AS (
  SELECT lang, CAST(count(*) AS BIGINT) AS distinct_bigrams,
         CAST(sum(c) AS BIGINT) AS n_bigrams,
         CAST(-sum(c * lp) AS BIGINT) AS xent_micro
  FROM term GROUP BY 1
), nd AS (
  SELECT lang, CAST(count(*) AS BIGINT) AS n_docs FROM documents GROUP BY 1
)
SELECT nd.lang, nd.n_docs,
       COALESCE(agg.distinct_bigrams, 0) AS distinct_bigrams,
       COALESCE(agg.n_bigrams, 0) AS n_bigrams,
       COALESCE(agg.xent_micro, 0) AS xent_micro
FROM nd LEFT JOIN agg ON nd.lang = agg.lang
ORDER BY nd.lang
"""


_WS_TOKEN_RE = r"\S+"
_BPE_TOKEN_RE = r"[A-Za-z0-9]+|[^A-Za-z0-9\s]"


def tokenizer_fertility_by_lang(sf_dir: str) -> "ray.data.Dataset":
    """Tokenizer FERTILITY comparison per language: how many tokens a
    BPE-ish pre-tokenizer ([A-Za-z0-9]+ runs | single symbols) produces
    per whitespace word and per character -- the metric multilingual
    tokenizer reports quote ("fertility = subword tokens per word") to
    compare tokenizer fit across languages.

    Everything is two pc.count_substring_regex passes (RE2, identical
    semantics to DuckDB's regexp_extract_all) + utf8_length, combined
    per-block and folded through one langs-cardinality groupby; ratios
    are exact integer ppm.
    """
    ds = _read(sf_dir, "documents", ["lang", "text"])

    def prep(t: pa.Table) -> pa.Table:
        texts = t["text"]
        return pa.table({
            "lang": t["lang"],
            "ws": pc.cast(pc.count_substring_regex(texts, _WS_TOKEN_RE),
                          pa.int64()),
            "bpe": pc.cast(pc.count_substring_regex(texts, _BPE_TOKEN_RE),
                           pa.int64()),
            "chars": pc.cast(pc.utf8_length(texts), pa.int64()),
        })

    def fert(t: pa.Table) -> pa.Table:
        ws = t["ws_sum"].to_numpy(zero_copy_only=False)
        bpe = t["bpe_sum"].to_numpy(zero_copy_only=False)
        ch = t["chars_sum"].to_numpy(zero_copy_only=False)
        return pa.table({
            "lang": t["lang"],
            "n_docs": t["ws_count"],
            "ws_tokens": pa.array(ws),
            "bpe_tokens": pa.array(bpe),
            "n_chars": pa.array(ch),
            "fertility_ppm": pa.array(
                bpe * 1_000_000 // np.maximum(ws, 1)),
            "tokens_per_kchar_ppm": pa.array(
                bpe * 1_000_000_000 // np.maximum(ch, 1)),
        })

    return combine_agg(ds, ["lang"], prep,
                       [("ws", "count"), ("ws", "sum"), ("bpe", "sum"),
                        ("chars", "sum")], fert)


TOKENIZER_FERTILITY_SQL = r"""
WITH m AS (
  SELECT lang,
         CAST(count(*) AS BIGINT) AS n_docs,
         CAST(sum(length(regexp_extract_all(text, '\S+'))) AS BIGINT)
           AS ws_tokens,
         CAST(sum(length(regexp_extract_all(
             text, '[A-Za-z0-9]+|[^A-Za-z0-9\s]'))) AS BIGINT)
           AS bpe_tokens,
         CAST(sum(length(text)) AS BIGINT) AS n_chars
  FROM documents GROUP BY 1)
SELECT lang, n_docs, ws_tokens, bpe_tokens, n_chars,
       bpe_tokens * 1000000 // greatest(ws_tokens, 1) AS fertility_ppm,
       bpe_tokens * 1000000000 // greatest(n_chars, 1)
         AS tokens_per_kchar_ppm
FROM m
"""


def join_fanout_histogram(sf_dir: str) -> pa.Table:
    """JOIN-FANOUT profile of the lineitem->orders edge: for each fanout
    f (lines per order, including 0 for childless orders), how many
    orders have it -- the skew histogram a distributed-join planner
    reads before sizing partitions (a hot key's fanout bounds the
    largest co-partition).

    Scale shape: a grouped count of lines per order key, then a grouped
    count of orders per fanout: both exchanges are cardinality-bounded
    (keys, then distinct fanouts).  The zero bucket is total orders
    minus matched keys -- two scalar aggregates, no anti-join needed.
    """
    li = _read(sf_dir, "lineitem", ["l_orderkey"])
    per_order = combine_agg(
        li, ["key"],
        lambda t: pa.table({"key": pc.cast(t["l_orderkey"], pa.int64())}),
        [("key", "count")], lambda t: pa.table({"fanout": t["key_count"]}))
    hist = combine_agg(
        per_order, ["fanout"], lambda t: t, [("fanout", "count")],
        lambda t: pa.table({"fanout": t["fanout"],
                            "n_orders": t["fanout_count"]})
    ).to_pandas().sort_values("fanout")

    n_orders_total = _read(sf_dir, "orders", ["o_orderkey"]).count()
    matched = int(hist["n_orders"].sum())
    fanouts = [0] + [int(v) for v in hist["fanout"]]
    counts = [int(n_orders_total - matched)] + \
             [int(v) for v in hist["n_orders"]]
    return pa.table({"fanout": pa.array(fanouts, type=pa.int64()),
                     "n_orders": pa.array(counts, type=pa.int64())})


JOIN_FANOUT_SQL = """
WITH c AS (
  SELECT o.o_orderkey,
         CAST(count(l.l_orderkey) AS BIGINT) AS fanout
  FROM orders o LEFT JOIN lineitem l ON l.l_orderkey = o.o_orderkey
  GROUP BY 1
)
SELECT fanout, CAST(count(*) AS BIGINT) AS n_orders
FROM c GROUP BY 1 ORDER BY 1
"""


def dup_cluster_size_hist(sf_dir: str,
                          hash_tier: str = "md5") -> pa.Table:
    """Duplicate-CLUSTER size distribution: group documents by exact
    content and report, for each cluster size s, how many clusters and
    documents sit in it -- the single most-quoted statistic in web-
    corpus dedup papers ("X% of the crawl is exact-duplicate in
    clusters of size >= k").

    Scale shape: content-hash per block -> grouped count per hash ->
    grouped count and sum per cluster size: every exchange is bounded
    by distinct content, then by distinct sizes.  ``hash_tier="md5"`` is
    the oracle-replicable tier; pass "fp64" for the C-vectorized 100 TB
    path (same dataflow).
    """
    from functools import partial as _partial

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    hashed = ds.map_batches(_partial(_content_hash_batch,
                                     hash_tier=hash_tier),
                            batch_format="pyarrow", zero_copy_batch=True)
    col = "text_md5" if hash_tier == "md5" else "text_fp64"
    sizes = combine_agg(hashed, [col], lambda t: t.select([col]),
                        [(col, "count")],
                        lambda t: pa.table({"n": t[f"{col}_count"]}))
    out = (combine_agg(sizes, ["n"], lambda t: t,
                       [("n", "count"), ("n", "sum")],
                       named("cluster_size", "n_clusters", "n_docs"))
           .to_pandas().sort_values("cluster_size"))
    return pa.table({
        "cluster_size": pa.array(out["cluster_size"].astype(np.int64)),
        "n_clusters": pa.array(out["n_clusters"].astype(np.int64)),
        "n_docs": pa.array(out["n_docs"].astype(np.int64)),
    })


DUP_CLUSTER_SIZE_SQL = """
WITH c AS (
  SELECT md5(text) AS h, CAST(count(*) AS BIGINT) AS n
  FROM documents GROUP BY 1
)
SELECT n AS cluster_size, CAST(count(*) AS BIGINT) AS n_clusters,
       CAST(sum(n) AS BIGINT) AS n_docs
FROM c GROUP BY 1 ORDER BY 1
"""


def source_similarity_matrix(sf_dir: str) -> pa.Table:
    """Pairwise COSINE similarity between per-source term-frequency
    vectors -- the "which sources say the same things" matrix a corpus
    mixer consults before weighting.  Exact integer dot products and
    squared norms; cos_ppm is ONE mirrored float expression
    (dot / (sqrt(na2)*sqrt(nb2)) * 1e6, floored) so it hash-matches.

    Scale shape: per-block (token fingerprint, source) count partials
    (the engine's standard vocabulary combiner) -> groupby(token,
    source) -> token co-partition, where
    each partition builds a dense (tokens x sources) count matrix and
    one int64 M^T @ M gives every pair's partial dot -- O(sources^2)
    per partition, summed on the driver.  Norms ride the same matmul's
    diagonal.  Assumes a schema-bounded source domain (DOC_SOURCES),
    the same contract as docs_lang_source_pivot.
    """
    from ..functions.text import fingerprint64
    from ..stages.partition import fit_partitions, partition_by

    src_domain = sorted(DOC_SOURCES)
    n_src = len(src_domain)

    ds = _read(sf_dir, "documents", ["source", "text"])

    def tokens(t: pa.Table) -> pa.Table:
        tok = _tokens(t, "source")
        return pa.table({"fp": fingerprint64(tok["tok"]),
                         "src": pc.index_in(tok["source"],
                                            pa.array(src_domain))})

    vec = combine_agg(ds, ["fp", "src"], tokens, [("src", "count")],
                      named("fp", "src", "c"))

    empty = pa.table({"i": pa.array([], type=pa.int64()),
                      "j": pa.array([], type=pa.int64()),
                      "v": pa.array([], type=pa.int64())})

    def gram(t: pa.Table) -> pa.Table:
        fp = t["fp"].to_numpy(zero_copy_only=False)
        src = t["src"].to_numpy(zero_copy_only=False)
        c = t["c"].to_numpy(zero_copy_only=False)
        ufp, finv = np.unique(fp, return_inverse=True)
        m = np.zeros((len(ufp), n_src), dtype=np.int64)
        m[finv, src] = c
        g = m.T @ m
        i, j = np.nonzero(g)
        keep = i <= j
        return pa.table({"i": pa.array(i[keep].astype(np.int64)),
                         "j": pa.array(j[keep].astype(np.int64)),
                         "v": pa.array(g[i[keep], j[keep]])})

    parts = partition_by(vec, ["fp"], fit_partitions(16), gram, empty)
    g = combine_agg(parts, ["i", "j"], lambda t: t, [("v", "sum")],
                    named("i", "j", "v")).to_pandas()
    full = np.zeros((n_src, n_src), dtype=np.int64)
    for _, r in g.iterrows():
        full[int(r.i), int(r.j)] = int(r.v)
    norms2 = np.diag(full).astype(np.float64)
    rows = {"source_a": [], "source_b": [], "dot": [],
            "norm2_a": [], "norm2_b": [], "cos_ppm": []}
    for a in range(n_src):
        for b in range(a + 1, n_src):
            dot = int(full[a, b])
            na2, nb2 = int(full[a, a]), int(full[b, b])
            if na2 == 0 or nb2 == 0:
                continue  # source absent from the corpus (mirrors SQL)
            cos = int(np.floor(float(dot)
                               / (np.sqrt(float(na2)) * np.sqrt(float(nb2)))
                               * 1_000_000.0))
            rows["source_a"].append(src_domain[a])
            rows["source_b"].append(src_domain[b])
            rows["dot"].append(dot)
            rows["norm2_a"].append(na2)
            rows["norm2_b"].append(nb2)
            rows["cos_ppm"].append(cos)
    return pa.table({
        "source_a": pa.array(rows["source_a"], type=pa.string()),
        "source_b": pa.array(rows["source_b"], type=pa.string()),
        "dot": pa.array(rows["dot"], type=pa.int64()),
        "norm2_a": pa.array(rows["norm2_a"], type=pa.int64()),
        "norm2_b": pa.array(rows["norm2_b"], type=pa.int64()),
        "cos_ppm": pa.array(rows["cos_ppm"], type=pa.int64()),
    })


SOURCE_SIMILARITY_SQL = """
WITH tok AS (
  SELECT source, unnest(string_split(text, ' ')) AS t FROM documents
), c AS (
  SELECT source, t, CAST(count(*) AS BIGINT) AS c FROM tok GROUP BY 1, 2
), d AS (
  SELECT a.source AS sa, b.source AS sb,
         CAST(sum(a.c * b.c) AS BIGINT) AS dot
  FROM c a JOIN c b ON a.t = b.t AND a.source < b.source GROUP BY 1, 2
), n AS (
  SELECT source, CAST(sum(c * c) AS BIGINT) AS n2 FROM c GROUP BY 1
), srcs AS (SELECT DISTINCT source FROM documents)
SELECT p.sa AS source_a, p.sb AS source_b,
       COALESCE(d.dot, 0) AS dot,
       na.n2 AS norm2_a, nb.n2 AS norm2_b,
       CASE WHEN na.n2 > 0 AND nb.n2 > 0 THEN
         CAST(floor(CAST(COALESCE(d.dot, 0) AS DOUBLE)
                    / (sqrt(CAST(na.n2 AS DOUBLE))
                       * sqrt(CAST(nb.n2 AS DOUBLE)))
                    * 1000000.0) AS BIGINT)
       ELSE 0 END AS cos_ppm
FROM (SELECT x.source AS sa, y.source AS sb
      FROM srcs x JOIN srcs y ON x.source < y.source) p
LEFT JOIN d ON d.sa = p.sa AND d.sb = p.sb
JOIN n na ON na.source = p.sa
JOIN n nb ON nb.source = p.sb
ORDER BY 1, 2
"""


def pinball_eval_hourly(sf_dir: str, q_num: int = 9,
                        q_den: int = 10) -> "ray.data.Dataset":
    """QUANTILE-FORECAST evaluation with pinball (quantile) loss: train
    a per-(event_type, hour-of-day) q=0.9 quantile predictor on the
    hash-split train rows, score the held-out quarter with the exact
    pinball loss -- the loss every probabilistic-forecast benchmark
    (M5, GEFCom) reports, and the loss the cell quantile OPTIMIZES, so
    this doubles as a self-check of the engine's grouped exact
    quantiles.

    Integer exactness: values in cents; pinball x q_den stays integral
    (q=9/10: 10*loss = 9*(y-p) if y>=p else (p-y)); the per-cell
    predictor is the distributed histogram-bisection exact quantile
    (quantiles.exact_quantiles_grouped, quantile_disc semantics), so
    the DuckDB replica hash-matches.

    Scale shape: train pass = the shared-histogram grouped quantile
    (O(cells x bins) state, data passes bounded by bisection rounds);
    model is an O(cells) broadcast; scoring pass streams test rows with
    a vectorized lookup and per-type integer partials.
    """
    from ..hashing import murmur64
    from .quantiles import exact_quantiles, exact_quantiles_grouped

    q = q_num / q_den
    ds = _read(sf_dir, "events", ["event_id", "ts", "event_type",
                                  "value"])
    HOUR_US = np.int64(3_600_000_000)

    def featurize(t: pa.Table) -> pa.Table:
        us = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        eid = t["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        hr = (us // HOUR_US) % np.int64(24)
        et = t["event_type"].to_numpy(zero_copy_only=False)
        cell = np.array([f"{e}|{h}" for e, h in zip(et, hr)],
                        dtype=object)
        return pa.table({
            "is_test": pa.array(murmur64(eid) % np.uint64(4)
                                == np.uint64(0)),
            "event_type": t["event_type"],
            "cell": pa.array(cell, type=pa.string()),
            "value_c": _int_units(t["value"], 100),
        })

    feats = ds.map_batches(featurize, batch_format="pyarrow",
                           zero_copy_batch=True)
    train = feats.map_batches(
        lambda t: t.filter(pc.invert(t["is_test"])),
        batch_format="pyarrow")
    model_t = exact_quantiles_grouped(train, "value_c", "cell", [q])
    fallback = int(exact_quantiles(train, "value_c", [q])["value"][0]
                   .as_py())
    cells = model_t["cell"].to_pylist()
    preds = [int(v) for v in model_t["value"].to_pylist()]
    model_ref = ray.put((dict(zip(cells, preds)), fallback))

    def score(t: pa.Table) -> pa.Table:
        t = t.filter(t["is_test"])
        model, fb = ray.get(model_ref)
        cell = t["cell"].to_numpy(zero_copy_only=False)
        y = t["value_c"].to_numpy(zero_copy_only=False)
        p = np.array([model.get(c, fb) for c in cell], dtype=np.int64)
        diff = y - p
        loss = np.where(diff >= 0, q_num * diff, (q_den - q_num) * -diff)
        return pa.table({"event_type": t["event_type"],
                         "loss": pa.array(loss.astype(np.int64))})

    return combine_agg(feats, ["event_type"], score,
                       [("loss", "count"), ("loss", "sum")],
                       named("event_type", "n_test", "pinball_x10"))


PINBALL_EVAL_SQL = """
WITH f AS (
  SELECT event_type,
         (CAST(epoch_us(ts) AS BIGINT) // 3600000000) % 24 AS hr,
         CAST(round(value * 100) AS BIGINT) AS vc,
         (hash(event_id) % 4 = 0) AS is_test
  FROM events
), m AS (
  SELECT event_type, hr, quantile_disc(vc, 0.9) AS p
  FROM f WHERE NOT is_test GROUP BY 1, 2
), g AS (
  SELECT quantile_disc(vc, 0.9) AS p FROM f WHERE NOT is_test
), t AS (
  SELECT f.event_type, f.vc, COALESCE(m.p, g.p) AS p
  FROM f LEFT JOIN m ON m.event_type = f.event_type AND m.hr = f.hr
  CROSS JOIN g
  WHERE f.is_test
)
SELECT event_type, CAST(count(*) AS BIGINT) AS n_test,
       CAST(sum(CASE WHEN vc >= p THEN 9 * (vc - p)
                     ELSE p - vc END) AS BIGINT) AS pinball_x10
FROM t GROUP BY 1
"""


def postings_gap_stats(sf_dir: str) -> pa.Table:
    """Inverted-index COMPRESSIBILITY profile: for every token's sorted
    doc_id postings list, the delta gaps between consecutive postings,
    histogrammed by bit length -- exactly the statistic that predicts
    the size of a varbyte/PForDelta-compressed index, computed without
    ever building one.

    Scale shape: per-batch DISTINCT (token-fingerprint, doc_id)
    combiner -> groupby to finish the dedup -> token co-partition,
    where a single lexsort + masked diff produces every gap in the
    partition at once (no per-token loop) and np.frexp gives exact
    integer bit lengths; the final exchange is <= 64 rows per block.  Token
    identity by 64-bit fingerprint (same collision class the
    oracle-green source_vocab_overlap accepts).
    """
    from ..functions.text import fingerprint64
    from ..stages.partition import fit_partitions, partition_by

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def pairs(t: pa.Table) -> pa.Table:
        import re
        txt = pc.utf8_lower(t["text"])
        # pyarrow has no extract_all kernel, so tokenization runs the
        # compiled C regex per document (bounded by batch row count;
        # everything downstream of extraction is numpy).
        pat = re.compile(r"[a-z0-9]+")
        texts = txt.to_numpy(zero_copy_only=False)
        doc = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        all_toks: list[str] = []
        all_docs: list[np.ndarray] = []
        for i, s in enumerate(texts):
            ts_ = pat.findall(s) if s is not None else []
            if ts_:
                all_toks.extend(ts_)
                all_docs.append(np.full(len(ts_), doc[i],
                                        dtype=np.int64))
        return pa.table({
            "fp": fingerprint64(pa.array(all_toks, type=pa.string())),
            "doc_id": np.concatenate([np.zeros(0, np.int64)] + all_docs)})

    postings = combine_agg(ds, ["fp", "doc_id"], pairs,
                           [("doc_id", "count")],
                           lambda t: t.select(["fp", "doc_id"]))

    empty = pa.table({"bitlen": pa.array([], type=pa.int64()),
                      "gap": pa.array([], type=pa.int64())})

    def gaps(t: pa.Table) -> pa.Table:
        fp = t["fp"].to_numpy(zero_copy_only=False)
        doc = t["doc_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((doc, fp))
        fp, doc = fp[order], doc[order]
        same = fp[1:] == fp[:-1]
        gap = (doc[1:] - doc[:-1])[same]
        return pa.table({
            "bitlen": np.frexp(gap.astype(np.float64))[1].astype(np.int64),
            "gap": gap})

    out = partition_by(postings, ["fp"], fit_partitions(16), gaps, empty)
    res = (combine_agg(out, ["bitlen"], lambda t: t,
                       [("gap", "count"), ("gap", "sum")],
                       named("bitlen", "n_gaps", "sum_gaps"))
           .to_pandas().sort_values("bitlen"))
    return pa.table({
        "bitlen": pa.array(res["bitlen"].astype(np.int64)),
        "n_gaps": pa.array(res["n_gaps"].astype(np.int64)),
        "sum_gaps": pa.array(res["sum_gaps"].astype(np.int64)),
    })


_BITS_VALUES = ",".join(f"({n},{1 << (n - 1)},{(1 << n) - 1})"
                        for n in range(1, 41))

POSTINGS_GAP_SQL = f"""
WITH tok AS (
  SELECT DISTINCT t, doc_id FROM (
    SELECT doc_id,
           unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS t
    FROM documents)
), g AS (
  SELECT doc_id - lag(doc_id) OVER (PARTITION BY t ORDER BY doc_id)
           AS gap
  FROM tok
), bits(n, lo, hi) AS (VALUES {_BITS_VALUES})
SELECT CAST(b.n AS BIGINT) AS bitlen,
       CAST(count(*) AS BIGINT) AS n_gaps,
       CAST(sum(gap) AS BIGINT) AS sum_gaps
FROM g JOIN bits b ON g.gap BETWEEN b.lo AND b.hi
WHERE gap IS NOT NULL
GROUP BY 1 ORDER BY 1
"""


def changepoint_binary_split(sf_dir: str) -> pa.Table:
    """CHANGE-POINT detection, binary-segmentation style: over the
    hourly mean-value series, find the hour boundary whose split most
    reduces the sum of squared errors (the CUSUM-of-squares gain
    s1^2/n1 + s2^2/n2 - S^2/N) -- one exact step of the classic binary
    segmentation / PELT family, evaluated over per-hour event totals.

    Determinism: hourly sums are exact integer cents; every candidate
    gain is the SAME double expression over the same integers in numpy
    and DuckDB, and the argmax tie-breaks on the hour, so both engines
    pick the identical split.

    Scale shape: one per-(hour) integer combiner + groupby (hour
    cardinality-bounded); the gain scan is driver math over the hourly
    series, O(hours).
    """

    ds = _read(sf_dir, "events", ["ts", "value"])
    HOUR_US = np.int64(3_600_000_000)

    def hourly(t: pa.Table) -> pa.Table:
        us = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({"hour": pa.array(us // HOUR_US),
                         "vc": _int_units(t["value"], 100)})

    h = (combine_agg(ds, ["hour"], hourly, [("vc", "sum"), ("vc", "count")],
                     named("hour", "s", "n"))
         .to_pandas().sort_values("hour").reset_index(drop=True))
    s = h["s"].to_numpy(dtype=np.int64)
    n = h["n"].to_numpy(dtype=np.int64)
    hours = h["hour"].to_numpy(dtype=np.int64)
    cs = np.cumsum(s, dtype=np.int64)
    cn = np.cumsum(n, dtype=np.int64)
    S, N = float(cs[-1]), float(cn[-1])
    # candidate split AFTER hour index i (both sides non-empty)
    s1 = cs[:-1].astype(np.float64)
    n1 = cn[:-1].astype(np.float64)
    gain = (s1 * s1 / n1 + (S - s1) * (S - s1) / (N - n1) - S * S / N)
    best = int(np.argmax(gain))          # first max = smallest hour
    return pa.table({
        "split_hour": pa.array([int(hours[best])], type=pa.int64()),
        "gain_floor": pa.array([int(np.floor(gain[best]))],
                               type=pa.int64()),
        "s1": pa.array([int(cs[best])], type=pa.int64()),
        "n1": pa.array([int(cn[best])], type=pa.int64()),
        "s2": pa.array([int(cs[-1] - cs[best])], type=pa.int64()),
        "n2": pa.array([int(cn[-1] - cn[best])], type=pa.int64()),
    })


CHANGEPOINT_SQL = """
WITH h AS (
  SELECT CAST(epoch_us(ts) AS BIGINT) // 3600000000 AS hour,
         CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS s,
         CAST(count(*) AS BIGINT) AS n
  FROM events GROUP BY 1
), c AS (
  SELECT hour,
         CAST(sum(s) OVER w AS BIGINT) AS cs,
         CAST(sum(n) OVER w AS BIGINT) AS cn
  FROM h WINDOW w AS (ORDER BY hour
                      ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
), tot AS (
  SELECT CAST(sum(s) AS BIGINT) AS ts_, CAST(sum(n) AS BIGINT) AS tn
  FROM h
), gains AS (
  SELECT c.hour, c.cs, c.cn,
         (CAST(c.cs AS DOUBLE) * CAST(c.cs AS DOUBLE)
            / CAST(c.cn AS DOUBLE)
          + (CAST(tot.ts_ AS DOUBLE) - CAST(c.cs AS DOUBLE))
            * (CAST(tot.ts_ AS DOUBLE) - CAST(c.cs AS DOUBLE))
            / (CAST(tot.tn AS DOUBLE) - CAST(c.cn AS DOUBLE))
          - CAST(tot.ts_ AS DOUBLE) * CAST(tot.ts_ AS DOUBLE)
            / CAST(tot.tn AS DOUBLE)) AS gain
  FROM c CROSS JOIN tot
  WHERE c.cn < tot.tn
)
SELECT hour AS split_hour,
       CAST(floor(gain) AS BIGINT) AS gain_floor,
       cs AS s1, cn AS n1,
       CAST((SELECT ts_ FROM tot) - cs AS BIGINT) AS s2,
       CAST((SELECT tn FROM tot) - cn AS BIGINT) AS n2
FROM gains
ORDER BY gain DESC, hour ASC
LIMIT 1
"""


def association_rules(sf_dir: str) -> pa.Table:
    """ASSOCIATION RULES over per-user event-type baskets: for every
    ordered type pair X -> Y, the user supports (n_X, n_Y, n_both),
    confidence = P(Y|X) in ppm, and lift (confidence relative to
    P(Y), milli-scaled) -- market-basket analytics on behavioral data.

    Scale shape: the basket universe collapses to a BITMASK per user
    (event-type domain is a schema contract, <= 64 types): per-block
    (user, mask) OR-partials -> groupby(user) bitwise fold -> a mask
    HISTOGRAM (<= 2^|types| rows, tiny) from which every rule's
    supports are exact sums -- no pair shuffle at all.  Integer ops
    mirror the SQL exactly, including the two-step lift division.
    """

    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    # event-type domain: deterministic, data-derived, tiny
    types = sorted(
        _read(sf_dir, "events", ["event_type"]).unique("event_type"))
    bit_of = {t: i for i, t in enumerate(types)}

    def masks(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        et = t["event_type"].to_numpy(zero_copy_only=False)
        bits = np.array([np.int64(1) << bit_of[x] for x in et],
                        dtype=np.int64)
        uu, inv = np.unique(uid, return_inverse=True)
        m = np.zeros(len(uu), dtype=np.int64)
        np.bitwise_or.at(m, inv, bits)
        return pa.table({"user_id": pa.array(uu.astype(np.int64)),
                         "mask": pa.array(m)})

    # groupby has no bitwise-or aggregate, so the per-user OR folds
    # inside one user co-partition (all of a user's block-partial masks
    # meet in one partition) before the tiny mask histogram.
    from ..stages.partition import fit_partitions, partition_by

    empty = pa.table({"mask": pa.array([], type=pa.int64())})

    def fold_masks(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        m = t["mask"].to_numpy(zero_copy_only=False)
        uu, inv = np.unique(uid, return_inverse=True)
        fm = np.zeros(len(uu), dtype=np.int64)
        np.bitwise_or.at(fm, inv, m)
        return pa.table({"mask": pa.array(fm)})

    hist = combine_agg(partition_by(
        ds.map_batches(masks, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["user_id"], fit_partitions(32), fold_masks, empty),
        ["mask"], lambda t: t, [("mask", "count")],
        named("mask", "n_users")).to_pandas()
    mask_v = hist["mask"].to_numpy(dtype=np.int64)
    cnt_v = hist["n_users"].to_numpy(dtype=np.int64)
    total = int(cnt_v.sum())

    rows = []
    for xi, x in enumerate(types):
        has_x = (mask_v >> xi) & 1 == 1
        n_x = int(cnt_v[has_x].sum())
        if n_x == 0:
            continue
        for yi, y in enumerate(types):
            if yi == xi:
                continue
            has_y = (mask_v >> yi) & 1 == 1
            n_y = int(cnt_v[has_y].sum())
            n_both = int(cnt_v[has_x & has_y].sum())
            conf_ppm = n_both * 1_000_000 // n_x
            lift_milli = conf_ppm * total // n_y // 1000
            rows.append((x, y, n_x, n_y, n_both, conf_ppm, lift_milli))
    rows.sort(key=lambda r: (r[0], r[1]))
    return pa.table({
        "antecedent": pa.array([r[0] for r in rows], type=pa.string()),
        "consequent": pa.array([r[1] for r in rows], type=pa.string()),
        "n_x": pa.array([r[2] for r in rows], type=pa.int64()),
        "n_y": pa.array([r[3] for r in rows], type=pa.int64()),
        "n_both": pa.array([r[4] for r in rows], type=pa.int64()),
        "conf_ppm": pa.array([r[5] for r in rows], type=pa.int64()),
        "lift_milli": pa.array([r[6] for r in rows], type=pa.int64()),
    })


ASSOCIATION_RULES_SQL = """
WITH b AS (SELECT DISTINCT user_id, event_type FROM events),
n AS (SELECT event_type, CAST(count(*) AS BIGINT) AS nu
      FROM b GROUP BY 1),
tot AS (SELECT CAST(count(DISTINCT user_id) AS BIGINT) AS n FROM events),
pairb AS (
  SELECT a.event_type AS x, c.event_type AS y,
         CAST(count(*) AS BIGINT) AS nb
  FROM b a JOIN b c ON a.user_id = c.user_id
                   AND a.event_type <> c.event_type
  GROUP BY 1, 2
)
SELECT nx.event_type AS antecedent, ny.event_type AS consequent,
       nx.nu AS n_x, ny.nu AS n_y, COALESCE(pairb.nb, 0) AS n_both,
       CAST(COALESCE(pairb.nb, 0) * 1000000 // nx.nu AS BIGINT)
         AS conf_ppm,
       CAST(COALESCE(pairb.nb, 0) * 1000000 // nx.nu * tot.n // ny.nu
            // 1000 AS BIGINT) AS lift_milli
FROM n nx JOIN n ny ON nx.event_type <> ny.event_type
LEFT JOIN pairb ON pairb.x = nx.event_type AND pairb.y = ny.event_type
CROSS JOIN tot
ORDER BY 1, 2
"""


def length_quality_corr(sf_dir: str) -> pa.Table:
    """Pearson CORRELATION between document length (chars) and token
    count, per language, from exact integer moment sums (n, Sx, Sy,
    Sxy, Sxx, Syy) -- the canonical "are these two quality signals
    redundant" check, distributed as one in-batch moment combiner plus
    a langs-cardinality groupby.  corr_ppm is one mirrored double
    expression over the exact integer moments.
    """
    from ..functions.text import token_count

    ds = _read(sf_dir, "documents", ["lang", "text", "n_chars"])

    def moments(t: pa.Table) -> pa.Table:
        x = pc.cast(t["n_chars"], pa.int64()).to_numpy(
            zero_copy_only=False)
        y = token_count(t["text"]).to_numpy(zero_copy_only=False)
        return pa.table({"lang": t["lang"], "sx": x, "sy": y,
                         "sxy": x * y, "sxx": x * x, "syy": y * y})

    agg = (combine_agg(ds, ["lang"], moments,
                       [("sx", "count")] + [(c, "sum") for c in (
                           "sx", "sy", "sxy", "sxx", "syy")],
                       named("lang", "n", "sx", "sy", "sxy", "sxx", "syy"))
           .to_pandas().sort_values("lang").reset_index(drop=True))
    n = agg["n"].to_numpy(np.float64)
    sx = agg["sx"].to_numpy(np.float64)
    sy = agg["sy"].to_numpy(np.float64)
    sxy = agg["sxy"].to_numpy(np.float64)
    sxx = agg["sxx"].to_numpy(np.float64)
    syy = agg["syy"].to_numpy(np.float64)
    corr = np.floor((n * sxy - sx * sy)
                    / (np.sqrt(n * sxx - sx * sx)
                       * np.sqrt(n * syy - sy * sy))
                    * 1_000_000.0).astype(np.int64)
    return pa.table({
        "lang": pa.array(agg["lang"], type=pa.string()),
        "n_docs": pa.array(agg["n"].astype(np.int64)),
        "corr_ppm": pa.array(corr),
    })


LENGTH_QUALITY_CORR_SQL = """
WITH m AS (
  SELECT lang, CAST(count(*) AS BIGINT) AS n,
         CAST(sum(n_chars) AS BIGINT) AS sx,
         CAST(sum(length(regexp_extract_all(text, '[A-Za-z0-9]+')))
              AS BIGINT) AS sy,
         CAST(sum(n_chars
                  * length(regexp_extract_all(text, '[A-Za-z0-9]+')))
              AS BIGINT) AS sxy,
         CAST(sum(n_chars * n_chars) AS BIGINT) AS sxx,
         CAST(sum(length(regexp_extract_all(text, '[A-Za-z0-9]+'))
                  * length(regexp_extract_all(text, '[A-Za-z0-9]+')))
              AS BIGINT) AS syy
  FROM documents GROUP BY 1)
SELECT lang, n AS n_docs,
       CAST(floor((CAST(n AS DOUBLE) * CAST(sxy AS DOUBLE)
                   - CAST(sx AS DOUBLE) * CAST(sy AS DOUBLE))
                  / (sqrt(CAST(n AS DOUBLE) * CAST(sxx AS DOUBLE)
                          - CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE))
                     * sqrt(CAST(n AS DOUBLE) * CAST(syy AS DOUBLE)
                            - CAST(sy AS DOUBLE) * CAST(sy AS DOUBLE)))
                  * 1000000.0) AS BIGINT) AS corr_ppm
FROM m ORDER BY lang
"""


def value_quantile_bands_hourly(sf_dir: str) -> pa.Table:
    """Exact per-hour-of-day quantile BANDS (p10/p50/p90 of event value
    in cents): the distributed histogram-bisection grouped quantile
    (quantile_disc semantics, no global sort) over 24 diurnal groups --
    the seasonality envelope an anomaly detector thresholds against.
    """
    from .quantiles import exact_quantiles_grouped

    ds = _read(sf_dir, "events", ["ts", "value"])
    HOUR_US = np.int64(3_600_000_000)

    def featurize(t: pa.Table) -> pa.Table:
        us = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        hr = (us // HOUR_US) % np.int64(24)
        return pa.table({
            "hr": pa.array([f"{h:02d}" for h in hr], type=pa.string()),
            "value_c": _int_units(t["value"], 100),
        })

    feats = ds.map_batches(featurize, batch_format="pyarrow",
                           zero_copy_batch=True)
    out = exact_quantiles_grouped(feats, "value_c", "hr",
                                  [0.1, 0.5, 0.9])
    return pa.table({
        "hr": out["hr"],
        "q": out["q"],
        "value_c": pc.cast(out["value"], pa.int64()),
    })


QUANTILE_BANDS_HOURLY_SQL = """
WITH f AS (
  SELECT lpad(CAST((CAST(epoch_us(ts) AS BIGINT) // 3600000000) % 24
                   AS VARCHAR), 2, '0') AS hr,
         CAST(round(value * 100) AS BIGINT) AS vc
  FROM events
), v AS (
  SELECT hr, quantile_disc(vc, [0.1, 0.5, 0.9]) AS vs
  FROM f GROUP BY hr
)
SELECT hr, unnest([0.1, 0.5, 0.9]) AS q, unnest(vs) AS value_c
FROM v ORDER BY hr, q
"""


def hourly_autocorrelation(sf_dir: str,
                           lags: tuple[int, ...] = (1, 24)) -> pa.Table:
    """AUTOCORRELATION of the hourly revenue series at lag 1 (momentum)
    and lag 24 (diurnal cycle) over the gap-filled hour grid -- the two
    numbers a seasonality detector reads first.

    The series is exact integer cents per hour (missing hours are 0 on
    both engines); each lag's Pearson r is one mirrored double
    expression over exact integer sums, floored to ppm.

    Scale shape: one per-hour integer combiner + cardinality-bounded
    groupby; the lag products are driver math over the O(hours) series.
    """

    ds = _read(sf_dir, "events", ["ts", "value"])
    HOUR_US = np.int64(3_600_000_000)

    def hourly(t: pa.Table) -> pa.Table:
        us = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({"hour": pa.array(us // HOUR_US),
                         "vc": _int_units(t["value"], 100)})

    h = (combine_agg(ds, ["hour"], hourly, [("vc", "sum")],
                     named("hour", "s"))
         .to_pandas().sort_values("hour").reset_index(drop=True))
    hours = h["hour"].to_numpy(dtype=np.int64)
    s = h["s"].to_numpy(dtype=np.int64)
    lo, hi = int(hours.min()), int(hours.max())
    grid = np.zeros(hi - lo + 1, dtype=np.int64)
    grid[hours - lo] = s

    rows = []
    for lag in lags:
        if len(grid) <= lag:
            continue
        x = grid[lag:].astype(np.float64)   # t
        y = grid[:-lag].astype(np.float64)  # t - lag
        n = float(len(x))
        sx, sy = x.sum(), y.sum()
        sxy = (x * y).sum()
        sxx, syy = (x * x).sum(), (y * y).sum()
        denom = (np.sqrt(n * sxx - sx * sx)
                 * np.sqrt(n * syy - sy * sy))
        r_ppm = int(np.floor((n * sxy - sx * sy) / denom * 1_000_000.0))
        rows.append((lag, int(n), r_ppm))
    return pa.table({
        "lag": pa.array([r[0] for r in rows], type=pa.int64()),
        "n_pairs": pa.array([r[1] for r in rows], type=pa.int64()),
        "autocorr_ppm": pa.array([r[2] for r in rows], type=pa.int64()),
    })


HOURLY_AUTOCORR_SQL = """
WITH hsum AS (
  SELECT CAST(epoch_us(ts) AS BIGINT) // 3600000000 AS hour,
         CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS s
  FROM events GROUP BY 1
), bounds AS (
  SELECT min(hour) AS lo, max(hour) AS hi FROM hsum
), grid AS (
  SELECT g.hour, COALESCE(hsum.s, 0) AS s
  FROM (SELECT unnest(generate_series(bounds.lo, bounds.hi)) AS hour
        FROM bounds) g
  LEFT JOIN hsum ON hsum.hour = g.hour
), lagd AS (
  SELECT l.lag, g1.s AS x, g2.s AS y
  FROM (VALUES (1), (24)) l(lag)
  JOIN grid g1 ON TRUE
  JOIN grid g2 ON g2.hour = g1.hour - l.lag
), m AS (
  SELECT lag, CAST(count(*) AS BIGINT) AS n,
         CAST(sum(x) AS BIGINT) AS sx, CAST(sum(y) AS BIGINT) AS sy,
         CAST(sum(x * y) AS BIGINT) AS sxy,
         CAST(sum(x * x) AS BIGINT) AS sxx,
         CAST(sum(y * y) AS BIGINT) AS syy
  FROM lagd GROUP BY 1
)
SELECT lag, n AS n_pairs,
       CAST(floor((CAST(n AS DOUBLE) * CAST(sxy AS DOUBLE)
                   - CAST(sx AS DOUBLE) * CAST(sy AS DOUBLE))
                  / (sqrt(CAST(n AS DOUBLE) * CAST(sxx AS DOUBLE)
                          - CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE))
                     * sqrt(CAST(n AS DOUBLE) * CAST(syy AS DOUBLE)
                            - CAST(sy AS DOUBLE) * CAST(sy AS DOUBLE)))
                  * 1000000.0) AS BIGINT) AS autocorr_ppm
FROM m ORDER BY lag
"""


def k_anonymity_audit(sf_dir: str, at_risk_k: int = 5) -> pa.Table:
    """K-ANONYMITY audit of the customer table under the quasi-
    identifier (nation, market segment): the minimum equivalence-class
    size (the k the table actually provides), how many classes and rows
    sit below the at-risk threshold, and the class-size extremes -- the
    first number a privacy review asks for before a data release.

    Scale shape: per-block (QI) count combiner -> one groupby over the
    QI domain (cardinality-bounded) -> driver fold of the QI-domain
    class sizes.
    """
    ds = _read(sf_dir, "customer", ["c_nationkey", "c_mktsegment"])
    n = combine_agg(ds, ["c_nationkey", "c_mktsegment"], lambda t: t,
                    [("c_nationkey", "count")],
                    named("nk", "seg", "n")).to_pandas()["n"].to_numpy()
    risk = n < at_risk_k
    return pa.table({
        "n_classes": pa.array([len(n)], type=pa.int64()),
        "n_rows": pa.array([int(n.sum())], type=pa.int64()),
        "k_min": pa.array([int(n.min())], type=pa.int64()),
        "k_max": pa.array([int(n.max())], type=pa.int64()),
        "classes_at_risk": pa.array([int(risk.sum())], type=pa.int64()),
        "rows_at_risk": pa.array([int(n[risk].sum())], type=pa.int64()),
    })


K_ANONYMITY_SQL = """
WITH c AS (
  SELECT c_nationkey, c_mktsegment, CAST(count(*) AS BIGINT) AS n
  FROM customer GROUP BY 1, 2
)
SELECT CAST(count(*) AS BIGINT) AS n_classes,
       CAST(sum(n) AS BIGINT) AS n_rows,
       CAST(min(n) AS BIGINT) AS k_min,
       CAST(max(n) AS BIGINT) AS k_max,
       CAST(sum(CASE WHEN n < 5 THEN 1 ELSE 0 END) AS BIGINT)
         AS classes_at_risk,
       CAST(sum(CASE WHEN n < 5 THEN n ELSE 0 END) AS BIGINT)
         AS rows_at_risk
FROM c
"""


def cuped_adjusted_outcomes(sf_dir: str) -> pa.Table:
    """CUPED variance-reduced experiment readout: users hash-split into
    two arms, outcome = post-period spend, covariate = pre-period spend
    (time midpoint split), theta = cov(pre, post)/var(pre) estimated
    once globally, and each arm's adjusted mean
    mean(post) - theta * (mean(pre|arm) - mean(pre)) reported in
    floored micro-cents -- the industry-standard experiment adjustment
    (Deng et al. WSDM'13), exact-integer distributed.

    Scale shape: one pass folds per-user (pre, post) cents via a
    user-keyed groupby; moments and arm partials are in-batch integer
    combiners over the per-user table; only mirrored double expressions
    touch floats.
    """
    from ray.data.aggregate import Max as _Max, Min as _Min
    from ..hashing import murmur64

    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])
    bounds = ds.aggregate(_Min("ts", alias_name="lo"),
                          _Max("ts", alias_name="hi"))
    lo = int(pa.scalar(bounds["lo"]).cast(pa.int64()).as_py())
    hi = int(pa.scalar(bounds["hi"]).cast(pa.int64()).as_py())
    mid = (lo + hi) // 2

    def pre_post(t: pa.Table) -> pa.Table:
        us = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        vc = _int_units(t["value"], 100).to_numpy(zero_copy_only=False)
        is_pre = us <= mid
        return pa.table({
            "user_id": pc.cast(t["user_id"], pa.int64()),
            "pre": pa.array(np.where(is_pre, vc, 0)),
            "post": pa.array(np.where(is_pre, 0, vc)),
        })

    per_user = combine_agg(ds, ["user_id"], pre_post,
                           [("pre", "sum"), ("post", "sum")],
                           named("user_id", "pre", "post"))

    def moments(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        pre = t["pre"].to_numpy(zero_copy_only=False)
        post = t["post"].to_numpy(zero_copy_only=False)
        return pa.table({
            "arm": (murmur64(uid.astype(np.int64)) % np.uint64(2))
            .astype(np.int64),
            "pre": pre, "post": post, "pp": pre * pre, "po": pre * post})

    agg = (combine_agg(per_user, ["arm"], moments,
                       [("pre", "count"), ("pre", "sum"), ("post", "sum"),
                        ("pp", "sum"), ("po", "sum")],
                       named("arm", "n", "sp", "so", "spp", "spo"))
           .to_pandas().sort_values("arm").reset_index(drop=True))
    N = float(agg["n"].sum())
    SP = float(agg["sp"].sum())
    SO = float(agg["so"].sum())
    SPP = float(agg["spp"].sum())
    SPO = float(agg["spo"].sum())
    theta = (N * SPO - SP * SO) / (N * SPP - SP * SP)
    rows = []
    for _, r in agg.iterrows():
        n = float(r["n"])
        mean_post = float(r["so"]) / n
        mean_pre = float(r["sp"]) / n
        adj = mean_post - theta * (mean_pre - SP / N)
        rows.append((int(r["arm"]), int(r["n"]), int(r["so"]),
                     int(np.floor(adj * 1_000_000.0))))
    return pa.table({
        "arm": pa.array([r[0] for r in rows], type=pa.int64()),
        "n_users": pa.array([r[1] for r in rows], type=pa.int64()),
        "sum_post_cents": pa.array([r[2] for r in rows],
                                   type=pa.int64()),
        "adj_mean_micro": pa.array([r[3] for r in rows],
                                   type=pa.int64()),
    })


CUPED_SQL = """
WITH mm AS (
  SELECT (CAST(epoch_us(min(ts)) AS BIGINT)
          + CAST(epoch_us(max(ts)) AS BIGINT)) // 2 AS mid
  FROM events
), pu AS (
  SELECT user_id,
         CAST(sum(CASE WHEN CAST(epoch_us(ts) AS BIGINT) <= mm.mid
                       THEN CAST(round(value * 100) AS BIGINT)
                       ELSE 0 END) AS BIGINT) AS pre,
         CAST(sum(CASE WHEN CAST(epoch_us(ts) AS BIGINT) <= mm.mid
                       THEN 0
                       ELSE CAST(round(value * 100) AS BIGINT)
                  END) AS BIGINT) AS post
  FROM events CROSS JOIN mm GROUP BY 1
), armed AS (
  SELECT CAST(hash(user_id) % 2 AS BIGINT) AS arm, pre, post FROM pu
), m AS (
  SELECT arm, CAST(count(*) AS BIGINT) AS n,
         CAST(sum(pre) AS BIGINT) AS sp,
         CAST(sum(post) AS BIGINT) AS so,
         CAST(sum(pre * pre) AS BIGINT) AS spp,
         CAST(sum(pre * post) AS BIGINT) AS spo
  FROM armed GROUP BY 1
), tot AS (
  SELECT CAST(sum(n) AS BIGINT) AS tn, CAST(sum(sp) AS BIGINT) AS tsp,
         CAST(sum(so) AS BIGINT) AS tso,
         CAST(sum(spp) AS BIGINT) AS tspp,
         CAST(sum(spo) AS BIGINT) AS tspo
  FROM m
), th AS (
  SELECT (CAST(tn AS DOUBLE) * CAST(tspo AS DOUBLE)
          - CAST(tsp AS DOUBLE) * CAST(tso AS DOUBLE))
         / (CAST(tn AS DOUBLE) * CAST(tspp AS DOUBLE)
            - CAST(tsp AS DOUBLE) * CAST(tsp AS DOUBLE)) AS theta,
         CAST(tsp AS DOUBLE) / CAST(tn AS DOUBLE) AS gpre
  FROM tot
)
SELECT m.arm, m.n AS n_users, m.so AS sum_post_cents,
       CAST(floor((CAST(m.so AS DOUBLE) / CAST(m.n AS DOUBLE)
                   - th.theta * (CAST(m.sp AS DOUBLE)
                                 / CAST(m.n AS DOUBLE) - th.gpre))
                  * 1000000.0) AS BIGINT) AS adj_mean_micro
FROM m CROSS JOIN th
ORDER BY m.arm
"""


_FILTER_GRID = [(mt, mp) for mt in (10, 30, 100) for mp in (5, 10, 20)]


def filter_threshold_grid(sf_dir: str) -> "ray.data.Dataset":
    """Quality-filter THRESHOLD sweep: for every (min_tokens,
    max_punct_per_100_tokens) combination in a 3x3 grid, how many
    documents and characters survive -- the tuning table a corpus
    curator reads before committing to one filter setting, computed in
    ONE pass (counts per doc once, 9 vectorized threshold masks per
    block, grid-keyed combiner).
    """
    from ..functions.text import punct_count, token_count

    ds = _read(sf_dir, "documents", ["text", "n_chars"])
    mt, mp = (np.array(c, dtype=np.int64) for c in zip(*_FILTER_GRID))

    def sweep(t: pa.Table) -> pa.Table:
        """One row per (document, grid cell)."""
        toks = token_count(t["text"]).to_numpy(zero_copy_only=False)
        punct = punct_count(t["text"]).to_numpy(zero_copy_only=False)
        chars = pc.cast(t["n_chars"], pa.int64()).to_numpy(
            zero_copy_only=False)
        keep = ((toks[:, None] >= mt)
                & (punct[:, None] * 100 <= toks[:, None] * mp))
        return pa.table({
            "min_tokens": np.tile(mt, t.num_rows),
            "max_punct_per_100": np.tile(mp, t.num_rows),
            "kept": keep.ravel().astype(np.int64),
            "chars": (keep * chars[:, None]).ravel(),
        })

    return combine_agg(ds, ["min_tokens", "max_punct_per_100"], sweep,
                       [("kept", "sum"), ("chars", "sum")],
                       named("min_tokens", "max_punct_per_100",
                             "kept_docs", "kept_chars"))


FILTER_GRID_SQL = """
WITH m AS (
  SELECT length(regexp_extract_all(text, '[A-Za-z0-9]+')) AS toks,
         length(regexp_extract_all(text, '[.,;:!?]')) AS punct,
         n_chars
  FROM documents
), grid(min_tokens, max_punct_per_100) AS (
  VALUES (10, 5), (10, 10), (10, 20), (30, 5), (30, 10), (30, 20),
         (100, 5), (100, 10), (100, 20)
)
SELECT CAST(g.min_tokens AS BIGINT) AS min_tokens,
       CAST(g.max_punct_per_100 AS BIGINT) AS max_punct_per_100,
       CAST(sum(CASE WHEN m.toks >= g.min_tokens
                      AND m.punct * 100 <= m.toks * g.max_punct_per_100
                THEN 1 ELSE 0 END) AS BIGINT) AS kept_docs,
       CAST(sum(CASE WHEN m.toks >= g.min_tokens
                      AND m.punct * 100 <= m.toks * g.max_punct_per_100
                THEN m.n_chars ELSE 0 END) AS BIGINT) AS kept_chars
FROM m CROSS JOIN grid g
GROUP BY 1, 2
"""


def rolling_extrema_hourly(sf_dir: str, window: int = 24) -> pa.Table:
    """ROLLING 24-hour envelope over the hourly revenue series: per
    hour, the min / max / range of the trailing ``window`` hourly
    totals -- the monotonic-deque classic, here distributed as one
    per-hour integer combiner plus an O(hours) driver sweep (pandas
    rolling over exact cents; the series is cardinality-bounded, never
    row-bounded).  Missing hours count as 0, matching the gap-filled
    SQL window replica.
    """

    ds = _read(sf_dir, "events", ["ts", "value"])
    HOUR_US = np.int64(3_600_000_000)

    def hourly(t: pa.Table) -> pa.Table:
        us = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({"hour": pa.array(us // HOUR_US),
                         "vc": _int_units(t["value"], 100)})

    h = (combine_agg(ds, ["hour"], hourly, [("vc", "sum")],
                     named("hour", "s"))
         .to_pandas().sort_values("hour").reset_index(drop=True))
    hours = h["hour"].to_numpy(dtype=np.int64)
    s = h["s"].to_numpy(dtype=np.int64)
    lo, hi = int(hours.min()), int(hours.max())
    grid = np.zeros(hi - lo + 1, dtype=np.int64)
    grid[hours - lo] = s
    import pandas as pd
    ser = pd.Series(grid)
    rmin = ser.rolling(window, min_periods=1).min().astype(np.int64)
    rmax = ser.rolling(window, min_periods=1).max().astype(np.int64)
    return pa.table({
        "hour": pa.array(np.arange(lo, hi + 1, dtype=np.int64)),
        "total_c": pa.array(grid),
        "roll_min": pa.array(rmin.to_numpy()),
        "roll_max": pa.array(rmax.to_numpy()),
        "roll_range": pa.array((rmax - rmin).to_numpy()),
    })


ROLLING_EXTREMA_SQL = """
WITH hsum AS (
  SELECT CAST(epoch_us(ts) AS BIGINT) // 3600000000 AS hour,
         CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS s
  FROM events GROUP BY 1
), bounds AS (SELECT min(hour) AS lo, max(hour) AS hi FROM hsum),
grid AS (
  SELECT g.hour, COALESCE(hsum.s, 0) AS s
  FROM (SELECT unnest(generate_series(bounds.lo, bounds.hi)) AS hour
        FROM bounds) g
  LEFT JOIN hsum ON hsum.hour = g.hour
)
SELECT hour, s AS total_c,
       CAST(min(s) OVER w AS BIGINT) AS roll_min,
       CAST(max(s) OVER w AS BIGINT) AS roll_max,
       CAST(max(s) OVER w - min(s) OVER w AS BIGINT) AS roll_range
FROM grid
WINDOW w AS (ORDER BY hour ROWS BETWEEN 23 PRECEDING AND CURRENT ROW)
ORDER BY hour
"""


def revenue_topshare(sf_dir: str, q: float = 0.99) -> pa.Table:
    """REVENUE CONCENTRATION at the tail: the p99 per-customer revenue
    threshold (exact distributed quantile, quantile_disc semantics) and
    the share of total revenue earned by customers STRICTLY above it --
    the "top 1% of customers drive X% of revenue" number, exact in
    integer cents with ppm share.

    Scale shape: per-user revenue via a user-keyed groupby; the
    threshold comes from the histogram-bisection exact quantile; the
    share is one more streaming filter + sum.
    """
    from .quantiles import exact_quantiles

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    per_user = _customer_revenue(orders).materialize()
    thr = int(exact_quantiles(per_user, "rev", [q])["value"][0].as_py())

    def above_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "rev" not in t.column_names:
            return pa.table({"n": pa.array([], type=pa.int64()),
                             "na": pa.array([], type=pa.int64()),
                             "tot": pa.array([], type=pa.int64()),
                             "above": pa.array([], type=pa.int64())})
        rev = t["rev"].to_numpy(zero_copy_only=False)
        m = rev > thr
        return pa.table({"n": pa.array([len(rev)], type=pa.int64()),
                         "na": pa.array([int(m.sum())], type=pa.int64()),
                         "tot": pa.array([int(rev.sum())],
                                         type=pa.int64()),
                         "above": pa.array([int(rev[m].sum())],
                                           type=pa.int64())})

    f = per_user.map_batches(above_partial,
                             batch_format="pyarrow").to_pandas()
    n = int(f["n"].sum()); na = int(f["na"].sum())
    tot = int(f["tot"].sum()); above = int(f["above"].sum())
    return pa.table({
        "n_customers": pa.array([n], type=pa.int64()),
        "thr_cents": pa.array([thr], type=pa.int64()),
        "n_above": pa.array([na], type=pa.int64()),
        "rev_above_cents": pa.array([above], type=pa.int64()),
        "total_rev_cents": pa.array([tot], type=pa.int64()),
        "share_ppm": pa.array([above * 1_000_000 // tot],
                              type=pa.int64()),
    })


REVENUE_TOPSHARE_SQL = """
WITH pu AS (
  SELECT o_custkey,
         CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT)
           AS rev
  FROM orders GROUP BY 1
), thr AS (SELECT quantile_disc(rev, 0.99) AS t FROM pu)
SELECT CAST(count(*) AS BIGINT) AS n_customers,
       CAST(thr.t AS BIGINT) AS thr_cents,
       CAST(sum(CASE WHEN rev > thr.t THEN 1 ELSE 0 END) AS BIGINT)
         AS n_above,
       CAST(sum(CASE WHEN rev > thr.t THEN rev ELSE 0 END) AS BIGINT)
         AS rev_above_cents,
       CAST(sum(rev) AS BIGINT) AS total_rev_cents,
       CAST(sum(CASE WHEN rev > thr.t THEN rev ELSE 0 END) * 1000000
            // sum(rev) AS BIGINT) AS share_ppm
FROM pu CROSS JOIN thr GROUP BY thr.t
"""


def emd_drift_binned(sf_dir: str, type_a: str = "view",
                     type_b: str = "purchase",
                     n_bins: int = 256) -> pa.Table:
    """BINNED 1-D WASSERSTEIN (earth mover's) drift between two event
    types' value distributions: the mean absolute CDF gap over a fixed
    equi-width grid -- the area-under-the-CDF-difference companion to
    the max-gap KS statistic, exact on the binned CDFs by all-integer
    cross-multiplied arithmetic (sum |cum_a*n_b - cum_b*n_a|; the only
    division is the final ppm).

    Scale shape is identical to ks_drift_binned (the same
    _two_sample_bins pass): a streamed global Min/Max, a bounded
    per-bin groupby, and an O(n_bins) driver walk with big-int
    immunity.
    """
    na, nb = _two_sample_bins(sf_dir, type_a, type_b, n_bins)
    n_a, n_b = int(na.sum()), int(nb.sum())
    ca, cb, acc = 0, 0, 0
    for i in range(n_bins):          # exact big-int walk, n_bins rows
        ca += int(na[i]); cb += int(nb[i])
        acc += abs(ca * n_b - cb * n_a)
    emd = acc * 1_000_000 // (n_a * n_b * n_bins) if n_a and n_b else 0
    return pa.table({
        "type_a": pa.array([type_a], type=pa.string()),
        "type_b": pa.array([type_b], type=pa.string()),
        "n_a": pa.array([n_a], type=pa.int64()),
        "n_b": pa.array([n_b], type=pa.int64()),
        "emd_ppm_of_span": pa.array([emd], type=pa.int64()),
    })


EMD_DRIFT_SQL = """
WITH v AS (
  SELECT event_type,
         CAST(floor(value * 1000000.0 + 0.5) AS BIGINT) AS m
  FROM events WHERE event_type IN ('view', 'purchase')
), b AS (SELECT min(m) AS lo, max(m) AS hi FROM v),
g AS (
  SELECT event_type,
         CASE WHEN b.hi - b.lo + 1 <= 1 THEN 0
              ELSE (m - b.lo) * 256 // (b.hi - b.lo + 1) END AS bin,
         CAST(count(*) AS BIGINT) AS n
  FROM v CROSS JOIN b GROUP BY 1, 2
), grid AS (SELECT unnest(generate_series(0, 255)) AS bin),
f AS (
  SELECT grid.bin,
         COALESCE(sum(g.n) FILTER (WHERE g.event_type = 'view'), 0)
           AS na,
         COALESCE(sum(g.n) FILTER (WHERE g.event_type = 'purchase'), 0)
           AS nb
  FROM grid LEFT JOIN g ON g.bin = grid.bin GROUP BY 1
), cum AS (
  SELECT bin, sum(na) OVER (ORDER BY bin) AS ca,
         sum(nb) OVER (ORDER BY bin) AS cb
  FROM f
), t AS (SELECT CAST(sum(na) AS BIGINT) AS n_a,
                CAST(sum(nb) AS BIGINT) AS n_b FROM f),
s AS (SELECT sum(abs(ca * t.n_b - cb * t.n_a)) AS acc
      FROM cum CROSS JOIN t)
SELECT 'view' AS type_a, 'purchase' AS type_b, t.n_a, t.n_b,
       CAST(s.acc * 1000000 // (t.n_a * t.n_b * 256) AS BIGINT)
         AS emd_ppm_of_span
FROM t, s
"""


def mann_kendall_trend(sf_dir: str) -> pa.Table:
    """MANN-KENDALL monotone-trend test per event type over the DAILY
    event-count series: S = sum over i<j of sign(x_j - x_i), the
    tie-corrected variance numerator (18*Var, integer), and Kendall's
    tau in ppm -- the standard nonparametric "is this metric drifting
    up or down?" monitor, exact because S, ties and the x18 variance
    are all integers (the only division is the sign-safe final ppm).

    Scale shape: a (type, day) count combiner inside map_batches, one
    cardinality-bounded groupby((type, day)), and an O(types x days^2)
    driver fold over the tiny daily grid (days, not rows).
    """
    ds = _read(sf_dir, "events", ["event_type", "ts"])
    DAY_US = np.int64(86_400_000_000)

    def daily(t: pa.Table) -> pa.Table:
        us = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({"event_type": t["event_type"],
                         "day": pa.array(us // DAY_US)})

    grid = (combine_agg(ds, ["event_type", "day"], daily,
                        [("day", "count")], named("event_type", "day", "n"))
            .to_pandas().sort_values(["event_type", "day"]))

    types, s_out, n_out, var18_out, tau_out = [], [], [], [], []
    for et, g in grid.groupby("event_type", sort=True):
        x = g.sort_values("day")["n"].to_numpy(dtype=np.int64)
        n = len(x)
        diff = np.sign(x[None, :] - x[:, None])
        s = int(np.triu(diff, 1).sum())
        _, tie_counts = np.unique(x, return_counts=True)
        tie_term = int(sum(t * (t - 1) * (2 * t + 5)
                           for t in tie_counts.tolist()))
        var18 = n * (n - 1) * (2 * n + 5) - tie_term
        denom = n * (n - 1) // 2
        tau = (-((-s) * 1_000_000 // denom) if s < 0
               else s * 1_000_000 // denom) if denom else 0
        types.append(et); s_out.append(s); n_out.append(n)
        var18_out.append(var18); tau_out.append(tau)
    return pa.table({
        "event_type": pa.array(types, type=pa.string()),
        "n_days": pa.array(n_out, type=pa.int64()),
        "mk_s": pa.array(s_out, type=pa.int64()),
        "var_s_x18": pa.array(var18_out, type=pa.int64()),
        "tau_ppm": pa.array(tau_out, type=pa.int64()),
    })


MANN_KENDALL_SQL = """
WITH d AS (
  SELECT event_type,
         CAST(epoch_us(ts) AS BIGINT) // 86400000000 AS day,
         CAST(count(*) AS BIGINT) AS n
  FROM events GROUP BY 1, 2
), pairs AS (
  SELECT a.event_type,
         CASE WHEN b.n > a.n THEN 1 WHEN b.n < a.n THEN -1 ELSE 0 END
           AS sg
  FROM d a JOIN d b
    ON a.event_type = b.event_type AND a.day < b.day
), s AS (
  SELECT event_type, CAST(count(*) AS BIGINT) AS n_days FROM d
  GROUP BY 1
), ties AS (
  SELECT event_type, n, CAST(count(*) AS BIGINT) AS t
  FROM d GROUP BY 1, 2
), tt AS (
  SELECT event_type,
         CAST(sum(t * (t - 1) * (2 * t + 5)) AS BIGINT) AS tie_term
  FROM ties GROUP BY 1
), sv AS (
  SELECT event_type, CAST(COALESCE(sum(sg), 0) AS BIGINT) AS mk_s
  FROM pairs GROUP BY 1
)
SELECT s.event_type, s.n_days, sv.mk_s,
       CAST(s.n_days * (s.n_days - 1) * (2 * s.n_days + 5)
            - tt.tie_term AS BIGINT) AS var_s_x18,
       CAST(CASE WHEN sv.mk_s < 0
                 THEN -((-sv.mk_s) * 1000000
                        // (s.n_days * (s.n_days - 1) // 2))
                 ELSE sv.mk_s * 1000000
                      // (s.n_days * (s.n_days - 1) // 2) END AS BIGINT)
         AS tau_ppm
FROM s JOIN sv USING (event_type) JOIN tt USING (event_type)
ORDER BY 1
"""


def mannwhitney_qty_flags(sf_dir: str, flag_a: str = "R",
                          flag_b: str = "A") -> pa.Table:
    """MANN-WHITNEY U rank-sum test between two return flags on
    l_quantity: doubled tie-averaged rank sums (always integer), the
    doubled U statistic, and the tie-handling AUC estimate
    P(a > b) + P(a == b)/2 in ppm -- the standard nonparametric
    two-sample location test, exact because quantity is a small integer
    domain so every rank average x2 is an integer.

    Scale shape: a (value -> count per group) histogram combiner per
    block, one groupby over the ~50-value quantity domain, and an
    O(distinct values) driver walk -- cardinality-bounded, never
    row-bounded.
    """
    h = _flag_qty_hist(sf_dir, flag_a, flag_b)
    na = h["na"].to_numpy(dtype=np.int64)
    nb = h["nb"].to_numpy(dtype=np.int64)
    tot = na + nb
    cum_less = np.concatenate(([0], np.cumsum(tot)[:-1]))
    # doubled tie-averaged rank of every item at value v:
    #   2*rank_avg = 2*cum_less + (ties + 1)
    r1_x2 = int(np.sum(na * (2 * cum_less + tot + 1)))
    n1, n2 = int(na.sum()), int(nb.sum())
    u1_x2 = r1_x2 - n1 * (n1 + 1)
    auc = u1_x2 * 1_000_000 // (2 * n1 * n2) if n1 and n2 else 0
    return pa.table({
        "flag_a": pa.array([flag_a], type=pa.string()),
        "flag_b": pa.array([flag_b], type=pa.string()),
        "n_a": pa.array([n1], type=pa.int64()),
        "n_b": pa.array([n2], type=pa.int64()),
        "r1_x2": pa.array([r1_x2], type=pa.int64()),
        "u1_x2": pa.array([u1_x2], type=pa.int64()),
        "auc_ppm": pa.array([auc], type=pa.int64()),
    })


def _flag_qty_hist(sf_dir: str, flag_a: str, flag_b: str):
    """(q, na, nb) pandas frame sorted by q: per l_quantity value, the
    line counts of return flags ``flag_a`` and ``flag_b``."""
    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_quantity"])

    def flags(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_in(t["l_returnflag"],
                              value_set=pa.array([flag_a, flag_b])))
        return pa.table({
            "q": pc.cast(t["l_quantity"], pa.int64()),
            "a": pc.cast(pc.equal(t["l_returnflag"],
                                  pa.scalar(flag_a)), pa.int64()),
            "b": pc.cast(pc.equal(t["l_returnflag"],
                                  pa.scalar(flag_b)), pa.int64()),
        })

    return (combine_agg(ds, ["q"], flags, [("a", "sum"), ("b", "sum")],
                        named("q", "na", "nb"))
            .to_pandas().sort_values("q"))


MANNWHITNEY_SQL = """
WITH h AS (
  SELECT CAST(l_quantity AS BIGINT) AS q,
         CAST(sum(CASE WHEN l_returnflag = 'R' THEN 1 ELSE 0 END)
              AS BIGINT) AS na,
         CAST(sum(CASE WHEN l_returnflag = 'A' THEN 1 ELSE 0 END)
              AS BIGINT) AS nb
  FROM lineitem WHERE l_returnflag IN ('R', 'A') GROUP BY 1
), c AS (
  SELECT q, na, nb,
         COALESCE(sum(na + nb) OVER
                  (ORDER BY q ROWS BETWEEN UNBOUNDED PRECEDING
                   AND 1 PRECEDING), 0) AS cum_less
  FROM h
), agg AS (
  SELECT CAST(sum(na) AS BIGINT) AS n1,
         CAST(sum(nb) AS BIGINT) AS n2,
         CAST(sum(na * (2 * cum_less + na + nb + 1)) AS BIGINT)
           AS r1_x2
  FROM c
)
SELECT 'R' AS flag_a, 'A' AS flag_b, n1 AS n_a, n2 AS n_b, r1_x2,
       CAST(r1_x2 - n1 * (n1 + 1) AS BIGINT) AS u1_x2,
       CAST((r1_x2 - n1 * (n1 + 1)) * 1000000 // (2 * n1 * n2)
            AS BIGINT) AS auc_ppm
FROM agg
"""


def wilson_lb_types(sf_dir: str,
                    threshold: float = 100.0) -> pa.Table:
    """WILSON-SCORE LOWER BOUND ranking of event types by their
    high-value rate P(value > threshold): the small-sample-safe "sort
    by lower confidence bound, not by raw rate" leaderboard (z = 1.96).
    Counts are exact integers from a streamed combiner; the bound is
    ONE mirrored double expression evaluated from (k, n) identically
    here and in the SQL oracle (same op order, IEEE-exact on both
    sides -- the BM25/ln-parity pattern).

    Scale shape: per-block (type, n, k) partials, a 5-row groupby,
    driver math on the tiny leaderboard.
    """
    ds = _read(sf_dir, "events", ["event_type", "value"])
    thr_m = int(round(threshold * 1_000_000))

    def part(t: pa.Table) -> pa.Table:
        m = _int_units(t["value"], 1_000_000)
        return pa.table({
            "event_type": t["event_type"],
            "k": pc.cast(pc.greater(m, pa.scalar(thr_m, pa.int64())),
                         pa.int64()),
        })

    agg = (combine_agg(ds, ["event_type"], part,
                       [("k", "count"), ("k", "sum")],
                       named("event_type", "n", "k"))
           .to_pandas().sort_values("event_type"))
    n = agg["n"].to_numpy(dtype=np.float64)
    k = agg["k"].to_numpy(dtype=np.float64)
    z = 1.96
    # mirrored single expression -- keep op order identical to the SQL
    p = k / n
    lb = ((p + z * z / (2.0 * n)
           - z * np.sqrt((p * (1.0 - p) + z * z / (4.0 * n)) / n))
          / (1.0 + z * z / n))
    return pa.table({
        "event_type": pa.array(agg["event_type"].tolist(),
                               type=pa.string()),
        "n": pa.array(agg["n"].to_numpy(dtype=np.int64)),
        "k": pa.array(agg["k"].to_numpy(dtype=np.int64)),
        "wilson_lb": pa.array(lb, type=pa.float64()),
    })


WILSON_LB_SQL = """
WITH a AS (
  SELECT event_type, CAST(count(*) AS BIGINT) AS n,
         CAST(sum(CASE WHEN CAST(floor(value * 1000000.0 + 0.5)
                             AS BIGINT) > 100000000
                       THEN 1 ELSE 0 END) AS BIGINT) AS k
  FROM events GROUP BY 1
), f AS (
  SELECT event_type, n, k,
         CAST(k AS DOUBLE) / CAST(n AS DOUBLE) AS p,
         CAST(n AS DOUBLE) AS nd
  FROM a
)
SELECT event_type, n, k,
       (p + 1.96e0 * 1.96e0 / (2.0 * nd)
        - 1.96e0 * sqrt((p * (1.0 - p) + 1.96e0 * 1.96e0 / (4.0 * nd)) / nd))
       / (1.0 + 1.96e0 * 1.96e0 / nd) AS wilson_lb
FROM f ORDER BY 1
"""


# floor(1e9 / log2(i+1)) for ranks 1..10 -- asserted against math.log2
# in tests; the SQL oracle carries the identical literals.
_NDCG_DISC = (1_000_000_000, 630_929_753, 500_000_000, 430_676_558,
              386_852_807, 356_207_187, 333_333_333, 315_464_876,
              301_029_995, 289_064_826)


def ndcg_retrieval_eval(sf_dir: str,
                        terms: tuple = ("hash", "join", "merge",
                                        "scan")) -> pa.Table:
    """RANKING-QUALITY EVAL (NDCG@10 / MRR) of a term-frequency
    retrieval run against an independent relevance label: for each
    query term, rank docs by (tf desc, doc_id asc) and label a doc
    relevant iff the term appears within its first 100 characters (a
    title-proximity proxy, substring semantics on both sides).  DCG
    uses integer discounts floor(1e9/log2(rank+1)) so dcg/idcg/ndcg
    and MRR are all exact integers -- the offline eval loop every
    retrieval stack runs, with zero float divergence risk.

    Scale shape: one tokenized pass emits per-block top-10 prereduced
    candidates per term, and a grouped sum counts relevant docs per
    term; the final ranking folds O(10 x blocks x terms) rows on the
    driver.
    """
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    terms = tuple(terms)
    k = 10

    cand_empty = pa.table({"ti": pa.array([], type=pa.int64()),
                           "doc_id": pa.array([], type=pa.int64()),
                           "tf": pa.array([], type=pa.int64()),
                           "rel": pa.array([], type=pa.int64())})
    rel_empty = pa.table({"ti": pa.array([], type=pa.int64()),
                          "rel": pa.array([], type=pa.int64())})

    def _tf_rel(t: pa.Table):
        toks = pc.split_pattern(t["text"], pattern=" ")
        flat = pc.list_flatten(toks).combine_chunks()
        nper = pc.list_value_length(toks).to_numpy(
            zero_copy_only=False).astype(np.int64)
        dcode = np.repeat(np.arange(t.num_rows, dtype=np.int64), nper)
        dic = flat.dictionary_encode()
        idx = dic.indices.to_numpy(zero_copy_only=False)
        dwords = dic.dictionary.to_pylist()
        head = pc.utf8_slice_codeunits(t["text"], 0, 100)
        tfm = np.zeros((t.num_rows, len(terms)), dtype=np.int64)
        relm = np.zeros((t.num_rows, len(terms)), dtype=np.int64)
        for j, term in enumerate(terms):
            if term in dwords:
                code = dwords.index(term)
                np.add.at(tfm[:, j], dcode[idx == code], 1)
            relm[:, j] = np.asarray(
                pc.match_substring(head, term)).astype(np.int64)
        return tfm, relm

    def candidates(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return cand_empty
        tfm, relm = _tf_rel(t)
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        tis, dids, tfs, rels = [], [], [], []
        for j in range(len(terms)):
            hit = np.flatnonzero(tfm[:, j] > 0)
            if hit.size == 0:
                continue
            order = hit[np.lexsort((ids[hit], -tfm[hit, j]))[:k]]
            tis.append(np.full(order.size, j, dtype=np.int64))
            dids.append(ids[order].astype(np.int64))
            tfs.append(tfm[order, j])
            rels.append(relm[order, j])
        if not tis:
            return cand_empty
        return pa.table({"ti": pa.array(np.concatenate(tis)),
                         "doc_id": pa.array(np.concatenate(dids)),
                         "tf": pa.array(np.concatenate(tfs)),
                         "rel": pa.array(np.concatenate(rels))})

    def rel_rows(t: pa.Table) -> pa.Table:
        """One (term, relevant) row per (document, term)."""
        if t.num_rows == 0:
            return rel_empty
        _, relm = _tf_rel(t)
        return pa.table({
            "ti": np.tile(np.arange(len(terms), dtype=np.int64),
                          t.num_rows),
            "rel": relm.ravel()})

    cand = (docs.map_batches(candidates, batch_format="pyarrow",
                             zero_copy_batch=True).to_pandas())
    rtot = (combine_agg(docs, ["ti"], rel_rows, [("rel", "sum")],
                        named("ti", "n_rel"))
            .to_pandas().set_index("ti")["n_rel"])

    rows = {c: [] for c in ("term", "n_rel", "dcg_e9", "idcg_e9",
                            "ndcg_ppm", "first_rel_rank", "mrr_ppm")}
    for j, term in enumerate(terms):
        g = cand[cand["ti"] == j]
        order = np.lexsort((g["doc_id"].to_numpy(),
                            -g["tf"].to_numpy()))[:k]
        rel = g["rel"].to_numpy()[order]
        n_rel = int(rtot.get(j, 0))
        dcg = int(sum(int(r) * _NDCG_DISC[i]
                      for i, r in enumerate(rel)))
        idcg = int(sum(_NDCG_DISC[:min(n_rel, k)]))
        first = int(np.flatnonzero(rel)[0]) + 1 if rel.any() else 0
        rows["term"].append(term)
        rows["n_rel"].append(n_rel)
        rows["dcg_e9"].append(dcg)
        rows["idcg_e9"].append(idcg)
        rows["ndcg_ppm"].append(dcg * 1_000_000 // idcg if idcg else 0)
        rows["first_rel_rank"].append(first)
        rows["mrr_ppm"].append(1_000_000 // first if first else 0)
    return pa.table({
        "term": pa.array(rows["term"], type=pa.string()),
        "n_rel": pa.array(rows["n_rel"], type=pa.int64()),
        "dcg_e9": pa.array(rows["dcg_e9"], type=pa.int64()),
        "idcg_e9": pa.array(rows["idcg_e9"], type=pa.int64()),
        "ndcg_ppm": pa.array(rows["ndcg_ppm"], type=pa.int64()),
        "first_rel_rank": pa.array(rows["first_rel_rank"],
                                   type=pa.int64()),
        "mrr_ppm": pa.array(rows["mrr_ppm"], type=pa.int64()),
    })


NDCG_EVAL_SQL = """
WITH terms(term) AS (
  VALUES ('hash'), ('join'), ('merge'), ('scan')
), disc(i, d) AS (
  VALUES (1, 1000000000), (2, 630929753), (3, 500000000),
         (4, 430676558), (5, 386852807), (6, 356207187),
         (7, 333333333), (8, 315464876), (9, 301029995),
         (10, 289064826)
), toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok FROM documents
), tf AS (
  SELECT tok AS term, doc_id, CAST(count(*) AS BIGINT) AS tf
  FROM toks WHERE tok IN ('hash', 'join', 'merge', 'scan')
  GROUP BY 1, 2
), rel AS (
  SELECT t.term, d.doc_id,
         CASE WHEN position(t.term IN substr(d.text, 1, 100)) > 0
              THEN 1 ELSE 0 END AS r
  FROM documents d CROSS JOIN terms t
), rtot AS (
  SELECT term, CAST(sum(r) AS BIGINT) AS n_rel FROM rel GROUP BY 1
), ranked AS (
  SELECT term, doc_id, tf,
         row_number() OVER (PARTITION BY term
                            ORDER BY tf DESC, doc_id) AS rnk
  FROM tf QUALIFY rnk <= 10
), j AS (
  SELECT ranked.term, ranked.rnk, rel.r, disc.d
  FROM ranked
  JOIN rel ON rel.term = ranked.term AND rel.doc_id = ranked.doc_id
  JOIN disc ON disc.i = ranked.rnk
), dcg AS (
  SELECT term, CAST(sum(r * d) AS BIGINT) AS dcg_e9,
         min(CASE WHEN r = 1 THEN rnk END) AS first_rel
  FROM j GROUP BY 1
), idcg AS (
  SELECT rtot.term,
         CAST(COALESCE(sum(disc.d), 0) AS BIGINT) AS idcg_e9
  FROM rtot LEFT JOIN disc ON disc.i <= least(rtot.n_rel, 10)
  GROUP BY 1
)
SELECT t.term, COALESCE(rtot.n_rel, 0) AS n_rel,
       COALESCE(dcg.dcg_e9, 0) AS dcg_e9, idcg.idcg_e9,
       CAST(CASE WHEN idcg.idcg_e9 > 0
                 THEN COALESCE(dcg.dcg_e9, 0) * 1000000 // idcg.idcg_e9
                 ELSE 0 END AS BIGINT) AS ndcg_ppm,
       CAST(COALESCE(dcg.first_rel, 0) AS BIGINT) AS first_rel_rank,
       CAST(CASE WHEN dcg.first_rel IS NOT NULL
                 THEN 1000000 // dcg.first_rel
                 ELSE 0 END AS BIGINT) AS mrr_ppm
FROM terms t
LEFT JOIN rtot ON rtot.term = t.term
LEFT JOIN dcg ON dcg.term = t.term
JOIN idcg ON idcg.term = t.term
ORDER BY 1
"""


def conformal_coverage(sf_dir: str, alpha: float = 0.1) -> pa.Table:
    """SPLIT-CONFORMAL PREDICTION-INTERVAL AUDIT per event type: a
    train/calibration/test split by the deterministic row hash
    (murmur64(event_id) % 10 -> 0-5 train, 6-7 cal, 8-9 test), a
    per-type train median predictor, the empirical (1-alpha) quantile
    of absolute calibration residuals as the interval half-width, and
    the achieved test coverage in ppm -- the distribution-free
    uncertainty wrapper (Vovk et al.; empirical-quantile variant) every
    scored pipeline should ship with.  Exact: micro-unit residuals,
    quantile_disc selection, integer coverage counts.

    Scale shape: one projected pass materializes (type, m, pct); the
    median and q-hat come from the grouped histogram-bisection exact
    quantile (no sort); coverage is a 5-row combiner fold.
    """
    from ..hashing import murmur64
    from .quantiles import exact_quantiles_grouped
    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])

    def staged(t: pa.Table) -> pa.Table:
        ids = t["event_id"].to_numpy(zero_copy_only=False).astype(
            np.int64)
        return pa.table({
            "event_type": t["event_type"],
            "m": _int_units(t["value"], 1_000_000),
            "pct": pa.array((murmur64(ids) % np.uint64(10))
                            .astype(np.int64)),
        })

    e = ds.map_batches(staged, batch_format="pyarrow",
                       zero_copy_batch=True).materialize()

    train = e.filter(expr="pct < 6")
    med_t = exact_quantiles_grouped(train, "m", "event_type", [0.5])
    med = {med_t["event_type"][i].as_py():
           int(med_t["value"][i].as_py())
           for i in range(med_t.num_rows)}
    types = sorted(med)
    med_arr = np.array([med[t] for t in types], dtype=np.int64)
    type_lookup = pa.array(types, type=pa.string())

    def resid(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"event_type": pa.array([],
                                                    type=pa.string()),
                             "r": pa.array([], type=pa.int64())})
        code = pc.index_in(t["event_type"],
                           value_set=type_lookup).to_numpy(
            zero_copy_only=False).astype(np.int64)
        m = t["m"].to_numpy(zero_copy_only=False)
        return pa.table({"event_type": t["event_type"],
                         "r": pa.array(np.abs(m - med_arr[code]))})

    cal = (e.filter(expr="pct == 6 or pct == 7")
           .map_batches(resid, batch_format="pyarrow",
                        zero_copy_batch=True))
    qhat_t = exact_quantiles_grouped(cal, "r", "event_type",
                                     [1.0 - alpha])
    qhat = {qhat_t["event_type"][i].as_py():
            int(qhat_t["value"][i].as_py())
            for i in range(qhat_t.num_rows)}
    qhat_arr = np.array([qhat[t] for t in types], dtype=np.int64)

    def cover(t: pa.Table) -> pa.Table:
        code = pc.index_in(t["event_type"],
                           value_set=type_lookup).to_numpy(
            zero_copy_only=False).astype(np.int64)
        m = t["m"].to_numpy(zero_copy_only=False)
        return pa.table({
            "event_type": t["event_type"],
            "hit": (np.abs(m - med_arr[code]) <= qhat_arr[code])
            .astype(np.int64)})

    agg = (combine_agg(e.filter(expr="pct >= 8"), ["event_type"], cover,
                       [("hit", "count"), ("hit", "sum")],
                       named("event_type", "n_test", "n_covered"))
           .to_pandas().sort_values("event_type"))
    nt = agg["n_test"].to_numpy(dtype=np.int64)
    nc = agg["n_covered"].to_numpy(dtype=np.int64)
    return pa.table({
        "event_type": pa.array(agg["event_type"].tolist(),
                               type=pa.string()),
        "med_micro": pa.array([med[t] for t in agg["event_type"]],
                              type=pa.int64()),
        "qhat_micro": pa.array([qhat[t] for t in agg["event_type"]],
                               type=pa.int64()),
        "n_test": pa.array(nt),
        "n_covered": pa.array(nc),
        "cov_ppm": pa.array(nc * 1_000_000 // nt),
    })


CONFORMAL_SQL = """
WITH e AS (
  SELECT event_type,
         CAST(floor(value * 1000000.0 + 0.5) AS BIGINT) AS m,
         hash(event_id) % 10 AS pct
  FROM events
), med AS (
  SELECT event_type, CAST(quantile_disc(m, 0.5) AS BIGINT) AS med
  FROM e WHERE pct < 6 GROUP BY 1
), qh AS (
  SELECT e.event_type,
         CAST(quantile_disc(abs(e.m - med.med), 0.9) AS BIGINT) AS qhat
  FROM e JOIN med USING (event_type)
  WHERE pct IN (6, 7) GROUP BY 1
), test AS (
  SELECT e.event_type, med.med, qh.qhat,
         CASE WHEN abs(e.m - med.med) <= qh.qhat THEN 1 ELSE 0 END
           AS cov
  FROM e JOIN med USING (event_type) JOIN qh USING (event_type)
  WHERE pct >= 8
)
SELECT event_type, CAST(med AS BIGINT) AS med_micro,
       CAST(qhat AS BIGINT) AS qhat_micro,
       CAST(count(*) AS BIGINT) AS n_test,
       CAST(sum(cov) AS BIGINT) AS n_covered,
       CAST(sum(cov) * 1000000 // count(*) AS BIGINT) AS cov_ppm
FROM test GROUP BY 1, 2, 3 ORDER BY 1
"""


def rle_sort_benefit(sf_dir: str) -> pa.Table:
    """STORAGE-LAYOUT AUDIT: how many RLE runs the (returnflag,
    linestatus) pair column has in ship-date order versus sorted by
    (flag, status) -- i.e. how much run-length encoding a sort-before-
    write would buy.  Run counting under a total order is distributed
    by co-partitioning on ship DAY (contiguous, deterministic), sorting
    each day partition by the full (date, orderkey, linenumber)
    tiebreak, counting in-partition transitions vectorized, and
    stitching the O(days) boundary pairs on the driver; the sorted
    layout's run count is exactly the number of distinct pairs.

    Scale shape: one streaming pass for partials, one bounded-key
    groupby per day, O(days) driver fold -- runs, not rows, cross the
    wire.
    """
    ds = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_linenumber", "l_shipdate",
                "l_returnflag", "l_linestatus"])
    DAY_US = np.int64(86_400_000_000)

    empty = pa.table({"day": pa.array([], type=pa.int64()),
                      "runs": pa.array([], type=pa.int64()),
                      "n": pa.array([], type=pa.int64()),
                      "first_pair": pa.array([], type=pa.string()),
                      "last_pair": pa.array([], type=pa.string())})

    def day_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        us = pc.cast(t["l_shipdate"], pa.int64()).to_numpy(
            zero_copy_only=False)
        day = us // DAY_US
        pair = pc.binary_join_element_wise(
            t["l_returnflag"], t["l_linestatus"], "|").to_numpy(
            zero_copy_only=False)
        okey = t["l_orderkey"].to_numpy(zero_copy_only=False)
        line = t["l_linenumber"].to_numpy(
            zero_copy_only=False).astype(np.int64)
        return pa.table({"day": pa.array(day.astype(np.int64)),
                         "us": pa.array(us),
                         "okey": pa.array(okey.astype(np.int64)),
                         "line": pa.array(line),
                         "pair": pa.array(pair.tolist(),
                                          type=pa.string())})

    from ..stages.partition import fit_partitions, partition_by

    def per_day(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        day = t["day"].to_numpy(zero_copy_only=False)
        us = t["us"].to_numpy(zero_copy_only=False)
        okey = t["okey"].to_numpy(zero_copy_only=False)
        line = t["line"].to_numpy(zero_copy_only=False)
        enc = t["pair"].combine_chunks().dictionary_encode()
        code = enc.indices.to_numpy(zero_copy_only=False).astype(
            np.int64)
        words = np.asarray(enc.dictionary.to_pylist())
        order = np.lexsort((line, okey, us, day))
        day_s, code_s = day[order], code[order]
        new_day = np.empty(order.size, dtype=bool)
        new_day[0] = True
        new_day[1:] = day_s[1:] != day_s[:-1]
        trans = np.empty(order.size, dtype=bool)
        trans[0] = True
        trans[1:] = code_s[1:] != code_s[:-1]
        runs_total = np.bincount(
            np.searchsorted(np.flatnonzero(new_day),
                            np.flatnonzero(trans | new_day),
                            side="right") - 1)
        ud = day_s[new_day]
        starts = np.flatnonzero(new_day)
        ends = np.concatenate([starts[1:] - 1,
                               [order.size - 1]])
        nper = ends - starts + 1
        return pa.table({
            "day": pa.array(ud.astype(np.int64)),
            "runs": pa.array(runs_total.astype(np.int64)),
            "n": pa.array(nper.astype(np.int64)),
            "first_pair": pa.array(words[code_s[starts]].tolist(),
                                   type=pa.string()),
            "last_pair": pa.array(words[code_s[ends]].tolist(),
                                  type=pa.string()),
        })

    staged = ds.map_batches(day_partial, batch_format="pyarrow",
                            zero_copy_batch=True)
    per = partition_by(staged, ["day"], fit_partitions(32), per_day,
                       empty).to_pandas().sort_values("day")

    runs_date_order = int(per["runs"].sum())
    # stitch: adjacent day partitions whose boundary pair matches fuse
    lp = per["last_pair"].to_numpy()
    fp = per["first_pair"].to_numpy()
    fused = int((lp[:-1] == fp[1:]).sum())
    runs_date_order -= fused
    n_rows = int(per["n"].sum())

    # sorted-by-pair layout: one run per distinct pair value (a tiny
    # per-block distinct fold -- boundary pairs alone would undercount)
    def distinct_partial(t: pa.Table) -> pa.Table:
        pair = pc.binary_join_element_wise(
            t["l_returnflag"], t["l_linestatus"], "|")
        u = pc.unique(pair)
        return pa.table({"pair": u})

    dp = (ds.map_batches(distinct_partial, batch_format="pyarrow",
                         zero_copy_batch=True).to_pandas())
    distinct_pairs = int(dp["pair"].nunique())

    return pa.table({
        "n_rows": pa.array([n_rows], type=pa.int64()),
        "runs_shipdate_order": pa.array([runs_date_order],
                                        type=pa.int64()),
        "runs_pair_sorted": pa.array([distinct_pairs],
                                     type=pa.int64()),
        "rle_benefit_ppm": pa.array(
            [(runs_date_order - distinct_pairs) * 1_000_000
             // runs_date_order], type=pa.int64()),
    })


RLE_SORT_BENEFIT_SQL = """
WITH o AS (
  SELECT l_returnflag || '|' || l_linestatus AS pair,
         lag(l_returnflag || '|' || l_linestatus) OVER
           (ORDER BY l_shipdate, l_orderkey, l_linenumber) AS prev
  FROM lineitem
), runs AS (
  SELECT CAST(count(*) AS BIGINT) AS n_rows,
         CAST(sum(CASE WHEN prev IS NULL OR pair != prev
                       THEN 1 ELSE 0 END) AS BIGINT) AS r
  FROM o
), d AS (
  SELECT CAST(count(DISTINCT l_returnflag || '|' || l_linestatus)
              AS BIGINT) AS dp
  FROM lineitem
)
SELECT runs.n_rows, runs.r AS runs_shipdate_order,
       d.dp AS runs_pair_sorted,
       CAST((runs.r - d.dp) * 1000000 // runs.r AS BIGINT)
         AS rle_benefit_ppm
FROM runs, d
"""


def order_lineitem_reconciliation(sf_dir: str) -> pa.Table:
    """CROSS-TABLE RECONCILIATION AUDIT: recompute every order's total
    from its lineitems (sum of extendedprice*(1-discount)*(1+tax),
    cents) and compare against orders.o_totalprice -- the classic
    ledger-vs-detail consistency check, reporting header-only orders
    and how far the recomputed totals drift (within-5% band by integer
    cross-multiplication |diff|*20 <= total).

    Scale shape: lineitem collapses to (orderkey, recomputed cents) via
    a per-block combiner before any exchange; both sides hash
    co-partition on the order key and each partition reconciles
    vectorized; the driver folds one row per partition.
    """
    from ..stages.partition import fit_partitions, partition_by

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_extendedprice", "l_discount", "l_tax"])

    def li_prep(t: pa.Table) -> pa.Table:
        x = (t["l_extendedprice"].to_numpy(zero_copy_only=False)
             * (1.0 - t["l_discount"].to_numpy(zero_copy_only=False))
             * (1.0 + t["l_tax"].to_numpy(zero_copy_only=False)))
        cents = np.floor(x * 100.0 + 0.5).astype(np.int64)
        staged = pa.table({
            "key": pc.cast(t["l_orderkey"], pa.int64()),
            "c": pa.array(cents)})
        g = staged.group_by("key").aggregate([("c", "sum")])
        return pa.table({"key": g["key"],
                         "c": pc.cast(g["c_sum"], pa.int64()),
                         "side": pa.array(
                             np.ones(g.num_rows, dtype=np.int64))})

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def o_prep(t: pa.Table) -> pa.Table:
        cents = np.floor(
            t["o_totalprice"].to_numpy(zero_copy_only=False) * 100.0
            + 0.5).astype(np.int64)
        return pa.table({"key": pc.cast(t["o_orderkey"], pa.int64()),
                         "c": pa.array(cents),
                         "side": pa.array(
                             np.zeros(t.num_rows, dtype=np.int64))})

    both = (li.map_batches(li_prep, batch_format="pyarrow",
                           zero_copy_batch=True)
            .union(orders.map_batches(o_prep, batch_format="pyarrow",
                                      zero_copy_batch=True)))

    empty = pa.table({c: pa.array([], type=pa.int64())
                      for c in ("n_orders", "n_no_lineitems",
                                "n_within_5pct", "max_drift_cents",
                                "sum_drift_cents")})

    def resolve(t: pa.Table) -> pa.Table:
        key = t["key"].to_numpy(zero_copy_only=False)
        c = t["c"].to_numpy(zero_copy_only=False)
        side = t["side"].to_numpy(zero_copy_only=False)
        ok_, oc = key[side == 0], c[side == 0]
        lk, lc = key[side == 1], c[side == 1]
        # lineitem combiner rows repeat per block: fold per key
        uk, inv = np.unique(lk, return_inverse=True)
        if uk.size:
            uc = np.bincount(inv, weights=lc.astype(np.float64))
            uc = uc.astype(np.int64)  # exact: cents sums << 2^53
            pos = np.searchsorted(uk, ok_)
            safe = np.minimum(pos, uk.size - 1)
            has = (pos < uk.size) & (uk[safe] == ok_)
            recomputed = np.where(has, uc[safe], 0)
        else:
            has = np.zeros(ok_.size, dtype=bool)
            recomputed = np.zeros(ok_.size, dtype=np.int64)
        drift = np.abs(recomputed - oc)
        within = has & (drift * 20 <= oc)
        return pa.table({
            "n_orders": pa.array([int(ok_.size)], type=pa.int64()),
            "n_no_lineitems": pa.array([int((~has).sum())],
                                       type=pa.int64()),
            "n_within_5pct": pa.array([int(within.sum())],
                                      type=pa.int64()),
            "max_drift_cents": pa.array(
                [int(drift[has].max()) if has.any() else 0],
                type=pa.int64()),
            "sum_drift_cents": pa.array(
                [int(drift[has].sum())], type=pa.int64()),
        })

    parts = partition_by(both, ["key"], fit_partitions(16), resolve,
                         empty).to_pandas()
    return pa.table({
        "n_orders": pa.array([int(parts["n_orders"].sum())],
                             type=pa.int64()),
        "n_no_lineitems": pa.array([int(parts["n_no_lineitems"].sum())],
                                   type=pa.int64()),
        "n_within_5pct": pa.array([int(parts["n_within_5pct"].sum())],
                                  type=pa.int64()),
        "max_drift_cents": pa.array([int(parts["max_drift_cents"].max())
                                     if len(parts) else 0],
                                    type=pa.int64()),
        "sum_drift_cents": pa.array([int(parts["sum_drift_cents"].sum())],
                                    type=pa.int64()),
    })


ORDER_RECONCILIATION_SQL = """
WITH li AS (
  SELECT l_orderkey AS key,
         CAST(sum(CAST(floor(l_extendedprice * (1.0 - l_discount)
                             * (1.0 + l_tax) * 100.0 + 0.5)
                       AS BIGINT)) AS BIGINT) AS recomputed
  FROM lineitem GROUP BY 1
), o AS (
  SELECT o_orderkey AS key,
         CAST(floor(o_totalprice * 100.0 + 0.5) AS BIGINT) AS total
  FROM orders
), j AS (
  SELECT o.key, o.total, li.recomputed,
         li.recomputed IS NOT NULL AS has,
         abs(COALESCE(li.recomputed, 0) - o.total) AS drift
  FROM o LEFT JOIN li USING (key)
)
SELECT CAST(count(*) AS BIGINT) AS n_orders,
       CAST(sum(CASE WHEN has THEN 0 ELSE 1 END) AS BIGINT)
         AS n_no_lineitems,
       CAST(sum(CASE WHEN has AND drift * 20 <= total
                THEN 1 ELSE 0 END) AS BIGINT) AS n_within_5pct,
       CAST(COALESCE(max(CASE WHEN has THEN drift END), 0) AS BIGINT)
         AS max_drift_cents,
       CAST(COALESCE(sum(CASE WHEN has THEN drift END), 0) AS BIGINT)
         AS sum_drift_cents
FROM j
"""


def zipf_slope_tokens(sf_dir: str, k: int = 100) -> pa.Table:
    """ZIPF-LAW FIT over the top-k corpus tokens: least-squares slope
    of ln(frequency) against ln(rank) -- the one-number check that a
    corpus has natural-language token statistics (slope near -1)
    rather than boilerplate or spam.  Exact: per-term micro-nats
    floor(ln(r)*1e6) / floor(ln(f)*1e6) (the proven ln-parity
    pattern), big-int normal equations on the driver, sign-safe final
    division (HUGEINT intermediates in the SQL replica).

    Scale shape: per-block token-count combiner, one vocabulary-
    bounded groupby, per-block top-k prereduce, O(k) driver fold.
    """
    import math
    docs = _read(sf_dir, "documents", ["text"])

    empty = pa.table({"tok": pa.array([], type=pa.string()),
                      "n": pa.array([], type=pa.int64())})
    freq = combine_agg(docs, ["tok"], _tokens, [("tok", "count")],
                       named("tok", "n"))

    def prereduce(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        n = t["n"].to_numpy(zero_copy_only=False)
        toks = t["tok"].to_numpy(zero_copy_only=False)
        order = np.lexsort((toks, -n))[:k]
        return pa.table({"tok": pa.array(toks[order].tolist(),
                                         type=pa.string()),
                         "n": pa.array(n[order].astype(np.int64))})

    top = (freq.map_batches(prereduce, batch_format="pyarrow")
           .to_pandas())
    order = np.lexsort((top["tok"].to_numpy(),
                        -top["n"].to_numpy()))[:k]
    f = top["n"].to_numpy()[order]
    kk = len(f)
    x = [math.floor(math.log(r) * 1_000_000) for r in range(1, kk + 1)]
    y = [math.floor(math.log(int(v)) * 1_000_000) for v in f]
    sx, sy = sum(x), sum(y)
    sxx = sum(v * v for v in x)
    sxy = sum(a * b for a, b in zip(x, y))
    num = kk * sxy - sx * sy
    den = kk * sxx - sx * sx
    slope = (-((-num) * 1_000_000 // den) if num < 0
             else num * 1_000_000 // den)
    return pa.table({
        "k": pa.array([kk], type=pa.int64()),
        "top_freq": pa.array([int(f[0])], type=pa.int64()),
        "kth_freq": pa.array([int(f[-1])], type=pa.int64()),
        "slope_micro": pa.array([slope], type=pa.int64()),
    })


ZIPF_SLOPE_SQL = """
WITH toks AS (
  SELECT unnest(string_split(text, ' ')) AS tok FROM documents
), freq AS (
  SELECT tok, CAST(count(*) AS BIGINT) AS n FROM toks GROUP BY 1
), ranked AS (
  SELECT n, row_number() OVER (ORDER BY n DESC, tok) AS r
  FROM freq QUALIFY r <= 100
), pts AS (
  SELECT CAST(floor(ln(CAST(r AS DOUBLE)) * 1000000) AS BIGINT) AS x,
         CAST(floor(ln(CAST(n AS DOUBLE)) * 1000000) AS BIGINT) AS y,
         n, r
  FROM ranked
), s AS (
  SELECT CAST(count(*) AS HUGEINT) AS kk,
         CAST(sum(x) AS HUGEINT) AS sx, CAST(sum(y) AS HUGEINT) AS sy,
         CAST(sum(CAST(x AS HUGEINT) * x) AS HUGEINT) AS sxx,
         CAST(sum(CAST(x AS HUGEINT) * y) AS HUGEINT) AS sxy,
         CAST(max(CASE WHEN r = 1 THEN n END) AS BIGINT) AS top_freq,
         CAST(min(n) AS BIGINT) AS kth_freq
  FROM pts
)
SELECT CAST(kk AS BIGINT) AS k, top_freq, kth_freq,
       CAST(CASE WHEN kk * sxy - sx * sy < 0
                 THEN -((-(kk * sxy - sx * sy)) * 1000000
                        // (kk * sxx - sx * sx))
                 ELSE (kk * sxy - sx * sy) * 1000000
                      // (kk * sxx - sx * sx) END AS BIGINT)
  AS slope_micro
FROM s
"""


def filter_eval_prf(sf_dir: str) -> pa.Table:
    """CLASSIFIER-STYLE EVAL of the quality filter: treat "tokens >= 30
    and punct <= 10 per 100 tokens" as the predicted keep label and
    "n_chars above the corpus median" as the gold label, and report the
    exact confusion counts plus precision / recall / F1 in ppm -- the
    eval loop for any heuristic document filter, with the median from
    the distributed exact quantile (quantile_disc parity).

    Scale shape: one histogram-bisection pass for the median, one
    streamed confusion combiner, a single-row driver fold.
    """
    from .quantiles import exact_quantiles
    from ..functions.text import punct_count, token_count

    ds = _read(sf_dir, "documents", ["text", "n_chars"])
    med = int(exact_quantiles(ds, "n_chars", [0.5])["value"][0]
              .as_py())

    empty = pa.table({c: pa.array([], type=pa.int64())
                      for c in ("tp", "fp", "fn", "tn")})

    def confusion(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        toks = token_count(t["text"]).to_numpy(zero_copy_only=False)
        punct = punct_count(t["text"]).to_numpy(zero_copy_only=False)
        chars = pc.cast(t["n_chars"], pa.int64()).to_numpy(
            zero_copy_only=False)
        pred = (toks >= 30) & (punct * 100 <= toks * 10)
        gold = chars > med
        return pa.table({
            "tp": pa.array([int((pred & gold).sum())], type=pa.int64()),
            "fp": pa.array([int((pred & ~gold).sum())],
                           type=pa.int64()),
            "fn": pa.array([int((~pred & gold).sum())],
                           type=pa.int64()),
            "tn": pa.array([int((~pred & ~gold).sum())],
                           type=pa.int64()),
        })

    f = ds.map_batches(confusion, batch_format="pyarrow",
                       zero_copy_batch=True).to_pandas()
    tp, fp = int(f["tp"].sum()), int(f["fp"].sum())
    fn, tn = int(f["fn"].sum()), int(f["tn"].sum())
    return pa.table({
        "median_chars": pa.array([med], type=pa.int64()),
        "tp": pa.array([tp], type=pa.int64()),
        "fp": pa.array([fp], type=pa.int64()),
        "fn": pa.array([fn], type=pa.int64()),
        "tn": pa.array([tn], type=pa.int64()),
        "precision_ppm": pa.array(
            [tp * 1_000_000 // (tp + fp) if tp + fp else 0],
            type=pa.int64()),
        "recall_ppm": pa.array(
            [tp * 1_000_000 // (tp + fn) if tp + fn else 0],
            type=pa.int64()),
        "f1_ppm": pa.array(
            [2 * tp * 1_000_000 // (2 * tp + fp + fn)
             if 2 * tp + fp + fn else 0], type=pa.int64()),
    })


FILTER_EVAL_PRF_SQL = """
WITH med AS (
  SELECT CAST(quantile_disc(n_chars, 0.5) AS BIGINT) AS m
  FROM documents
), lab AS (
  SELECT (length(regexp_extract_all(text, '[A-Za-z0-9]+')) >= 30
          AND length(regexp_extract_all(text, '[.,;:!?]')) * 100
              <= length(regexp_extract_all(text, '[A-Za-z0-9]+')) * 10)
           AS pred,
         n_chars > med.m AS gold, med.m AS m
  FROM documents CROSS JOIN med
), c AS (
  SELECT max(m) AS median_chars,
         CAST(sum(CASE WHEN pred AND gold THEN 1 ELSE 0 END)
              AS BIGINT) AS tp,
         CAST(sum(CASE WHEN pred AND NOT gold THEN 1 ELSE 0 END)
              AS BIGINT) AS fp,
         CAST(sum(CASE WHEN NOT pred AND gold THEN 1 ELSE 0 END)
              AS BIGINT) AS fn,
         CAST(sum(CASE WHEN NOT pred AND NOT gold THEN 1 ELSE 0 END)
              AS BIGINT) AS tn
  FROM lab
)
SELECT CAST(median_chars AS BIGINT) AS median_chars, tp, fp, fn, tn,
       CAST(CASE WHEN tp + fp > 0 THEN tp * 1000000 // (tp + fp)
                 ELSE 0 END AS BIGINT) AS precision_ppm,
       CAST(CASE WHEN tp + fn > 0 THEN tp * 1000000 // (tp + fn)
                 ELSE 0 END AS BIGINT) AS recall_ppm,
       CAST(CASE WHEN 2 * tp + fp + fn > 0
                 THEN 2 * tp * 1000000 // (2 * tp + fp + fn)
                 ELSE 0 END AS BIGINT) AS f1_ppm
FROM c
"""


def cohens_kappa_langid(sf_dir: str) -> pa.Table:
    """INTER-RATER AGREEMENT between the trigram language-ID heuristic
    and the corpus's labeled ``lang`` column: exact confusion totals
    and Cohen's kappa in ppm via pure integer cross-multiplication
    (kappa = (N*agree - sum(row_i*col_i)) / (N^2 - sum(row_i*col_i)),
    sign-safe division) -- the standard "is the cheap classifier good
    enough?" agreement audit.

    Scale shape: per-block (pred, true) confusion partials over the
    vectorized trigram scorer, one <=|langs|^2-row groupby, O(langs)
    driver fold.
    """
    from ..functions.text import lang_id
    ds = _read(sf_dir, "documents", ["text", "lang"])

    def predict(t: pa.Table) -> pa.Table:
        texts = (t["text"].combine_chunks()
                 if isinstance(t["text"], pa.ChunkedArray)
                 else t["text"])
        return pa.table({"true_lang": t["lang"],
                         "pred_lang": lang_id(texts)})

    conf = combine_agg(ds, ["true_lang", "pred_lang"], predict,
                       [("pred_lang", "count")],
                       named("true_lang", "pred_lang", "n")).to_pandas()
    n_tot = int(conf["n"].sum())
    agree = int(conf.loc[conf["true_lang"] == conf["pred_lang"],
                         "n"].sum())
    rows = conf.groupby("true_lang")["n"].sum()
    cols = conf.groupby("pred_lang")["n"].sum()
    pe_num = int(sum(int(rows[lg]) * int(cols[lg])
                     for lg in rows.index if lg in cols.index))
    num = n_tot * agree - pe_num
    den = n_tot * n_tot - pe_num
    kappa = (-((-num) * 1_000_000 // den) if num < 0
             else num * 1_000_000 // den) if den else 0
    return pa.table({
        "n_docs": pa.array([n_tot], type=pa.int64()),
        "n_agree": pa.array([agree], type=pa.int64()),
        "accuracy_ppm": pa.array([agree * 1_000_000 // n_tot],
                                 type=pa.int64()),
        "pe_num": pa.array([pe_num], type=pa.int64()),
        "kappa_ppm": pa.array([kappa], type=pa.int64()),
    })


_HAAR_N = 512          # 2^9 hour slots from the corpus's first hour
_HAAR_LEVELS = 9


def haar_energy_hourly(sf_dir: str) -> pa.Table:
    """HAAR WAVELET ENERGY DECOMPOSITION of the hourly event-count
    series: unnormalized Haar detail coefficients (pairwise differences
    of sums) over the first 512 hour slots, with per-level energy
    sum(d^2) -- the classic multi-resolution "where does the variance
    live?" profile (level 1 = hour-to-hour jitter, level 5 ~= daily
    structure), exact because unnormalized Haar keeps every coefficient
    an integer.

    Scale shape: one per-hour count combiner (cardinality-bounded
    shuffle), then an O(512) driver pyramid.
    """
    ds = _read(sf_dir, "events", ["ts"])
    HOUR_US = np.int64(3_600_000_000)

    def hourly(t: pa.Table) -> pa.Table:
        us = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({"hour": pa.array(us // HOUR_US)})

    h = combine_agg(ds, ["hour"], hourly, [("hour", "count")],
                    named("hour", "n")).to_pandas()
    hours = h["hour"].to_numpy(dtype=np.int64)
    lo = int(hours.min())
    grid = np.zeros(_HAAR_N, dtype=np.int64)
    sel = (hours - lo >= 0) & (hours - lo < _HAAR_N)
    grid[hours[sel] - lo] = h["n"].to_numpy(dtype=np.int64)[sel]

    levels, energies, ncoef = [], [], []
    a = grid
    for k in range(1, _HAAR_LEVELS + 1):
        d = a[0::2] - a[1::2]
        a = a[0::2] + a[1::2]
        levels.append(k)
        energies.append(int((d.astype(object) ** 2).sum()))
        ncoef.append(int(d.size))
    return pa.table({
        "level": pa.array(levels, type=pa.int64()),
        "n_coeffs": pa.array(ncoef, type=pa.int64()),
        "energy": pa.array(energies, type=pa.int64()),
    })


def haar_energy_sql() -> str:
    """Chained-CTE SQL replica of haar_energy_hourly (one CTE per
    pyramid level; aggregation is not allowed in a recursive term)."""
    ctes = [f"""lvl0 AS (
  SELECT g.i AS i, CAST(COALESCE(h.n, 0) AS BIGINT) AS v
  FROM (SELECT unnest(generate_series(0, {_HAAR_N - 1})) AS i) g
  CROSS JOIN b LEFT JOIN h ON h.hour = b.lo + g.i
)"""]
    for k in range(1, _HAAR_LEVELS + 1):
        ctes.append(f"""lvl{k} AS (
  SELECT i // 2 AS i, CAST(sum(v) AS BIGINT) AS v,
         CAST(sum(CASE WHEN i % 2 = 0 THEN v ELSE -v END) AS BIGINT)
           AS d
  FROM lvl{k - 1} GROUP BY 1
)""")
    unions = "\n  UNION ALL ".join(
        f"SELECT {k} AS level, CAST(count(*) AS BIGINT) AS n_coeffs, "
        f"CAST(sum(CAST(d AS HUGEINT) * d) AS HUGEINT) AS en "
        f"FROM lvl{k}" for k in range(1, _HAAR_LEVELS + 1))
    return f"""
WITH h AS (
  SELECT CAST(epoch_us(ts) AS BIGINT) // 3600000000 AS hour,
         CAST(count(*) AS BIGINT) AS n
  FROM events GROUP BY 1
), b AS (SELECT min(hour) AS lo FROM h),
{', '.join(ctes)},
e AS (
  {unions}
)
SELECT CAST(level AS BIGINT) AS level, n_coeffs,
       CAST(en AS BIGINT) AS energy
FROM e ORDER BY 1
"""


def runs_test_hourly(sf_dir: str) -> pa.Table:
    """WALD-WOLFOWITZ RUNS TEST per event type on the hourly count
    series: is the above/below-median sign sequence random, or does
    load cluster?  Counts the maximal same-sign runs over the
    gap-filled hourly grid (median-ties excluded, the standard
    convention) and reports the exact expected run count under
    randomness, E[R] = 1 + 2*n1*n2/(n1+n2), in micro units.

    Scale shape: one (type, hour) count combiner, cardinality-bounded
    groupby, O(types x hours) driver walk.
    """
    ds = _read(sf_dir, "events", ["event_type", "ts"])

    grid = combine_agg(ds, ["event_type", "h"], _event_hours,
                       [("h", "count")],
                       named("event_type", "hour", "n")).to_pandas()
    lo = int(grid["hour"].min())
    hi = int(grid["hour"].max())
    span = hi - lo + 1
    out = {c: [] for c in ("event_type", "n_above", "n_below",
                           "n_runs", "expected_runs_micro")}
    for et, g in grid.groupby("event_type", sort=True):
        v = np.zeros(span, dtype=np.int64)
        v[g["hour"].to_numpy(dtype=np.int64) - lo] = \
            g["n"].to_numpy(dtype=np.int64)
        med = int(np.sort(v)[max(0, int(np.ceil(0.5 * span)) - 1)])
        keep = v != med
        sign = v[keep] > med
        n1 = int(sign.sum()); n2 = int((~sign).sum())
        if sign.size == 0:
            runs = 0
        else:
            runs = 1 + int((sign[1:] != sign[:-1]).sum())
        exp = (1_000_000 + 2 * n1 * n2 * 1_000_000 // (n1 + n2)
               if n1 + n2 else 0)
        out["event_type"].append(et)
        out["n_above"].append(n1)
        out["n_below"].append(n2)
        out["n_runs"].append(runs)
        out["expected_runs_micro"].append(exp)
    return pa.table({
        "event_type": pa.array(out["event_type"], type=pa.string()),
        "n_above": pa.array(out["n_above"], type=pa.int64()),
        "n_below": pa.array(out["n_below"], type=pa.int64()),
        "n_runs": pa.array(out["n_runs"], type=pa.int64()),
        "expected_runs_micro": pa.array(out["expected_runs_micro"],
                                        type=pa.int64()),
    })


RUNS_TEST_SQL = """
WITH h AS (
  SELECT event_type,
         CAST(epoch_us(ts) AS BIGINT) // 3600000000 AS hour,
         CAST(count(*) AS BIGINT) AS n
  FROM events GROUP BY 1, 2
), b AS (SELECT min(hour) AS lo, max(hour) AS hi FROM h),
types AS (SELECT DISTINCT event_type FROM h),
grid AS (
  SELECT t.event_type, g.hour, CAST(COALESCE(h.n, 0) AS BIGINT) AS v
  FROM types t
  CROSS JOIN (SELECT unnest(generate_series(b.lo, b.hi)) AS hour
              FROM b) g
  LEFT JOIN h ON h.event_type = t.event_type AND h.hour = g.hour
), med AS (
  SELECT event_type, CAST(quantile_disc(v, 0.5) AS BIGINT) AS m
  FROM grid GROUP BY 1
), s AS (
  SELECT grid.event_type, grid.hour,
         CASE WHEN grid.v > med.m THEN 1 ELSE 0 END AS sign
  FROM grid JOIN med USING (event_type)
  WHERE grid.v != med.m
), lagged AS (
  SELECT event_type, sign,
         lag(sign) OVER (PARTITION BY event_type ORDER BY hour)
           AS prev
  FROM s
)
SELECT event_type,
       CAST(sum(sign) AS BIGINT) AS n_above,
       CAST(sum(1 - sign) AS BIGINT) AS n_below,
       CAST(sum(CASE WHEN prev IS NULL OR sign != prev
                THEN 1 ELSE 0 END) AS BIGINT) AS n_runs,
       CAST(1000000 + 2 * sum(sign) * sum(1 - sign) * 1000000
            // (sum(sign) + sum(1 - sign)) AS BIGINT)
         AS expected_runs_micro
FROM lagged GROUP BY 1 ORDER BY 1
"""


def lorenz_deciles(sf_dir: str) -> pa.Table:
    """LORENZ CURVE TABLE for customer revenue concentration: at each
    revenue decile threshold (exact quantile_disc values), the count of
    customers at or below it and their cumulative share of total
    revenue in ppm -- the full inequality curve whose area the Gini
    query already summarizes, threshold-based so ties resolve
    identically on both sides.

    Scale shape: per-customer revenue groupby, ONE shared
    histogram-bisection pass for all nine thresholds, then a single
    streaming pass of per-(customer, threshold) rows into a 9-key
    grouped (count, sum).
    """
    from .quantiles import exact_quantiles

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    per_user = _customer_revenue(orders).materialize()
    qs = [d / 10.0 for d in range(1, 10)]
    thr_t = exact_quantiles(per_user, "rev", qs)
    thr = np.array(sorted(int(v.as_py())
                          for v in thr_t["value"]), dtype=np.int64)

    def at_or_below(t: pa.Table) -> pa.Table:
        """One row per (customer, decile threshold)."""
        rev = t["rev"].to_numpy(zero_copy_only=False)
        le = (rev[:, None] <= thr[None, :]).astype(np.int64)
        return pa.table({
            "d": np.tile(np.arange(1, 10, dtype=np.int64), rev.size),
            "le": le.ravel(), "rev_le": (le * rev[:, None]).ravel(),
            "rev": np.repeat(rev, 9)})

    f = (combine_agg(per_user, ["d"], at_or_below,
                     [("le", "sum"), ("rev_le", "sum"), ("rev", "count"),
                      ("rev", "sum")],
                     named("d", "n_le", "rev_le", "n", "rev"))
         .to_pandas().sort_values("d"))
    tot_rev = int(f["rev"].iloc[0])
    return pa.table({
        "decile": pa.array(f["d"].to_numpy(dtype=np.int64)),
        "thr_cents": pa.array(thr),
        "n_at_or_below": pa.array(f["n_le"].to_numpy(dtype=np.int64)),
        "rev_share_ppm": pa.array(
            (f["rev_le"].to_numpy(dtype=np.int64) * 1_000_000
             // tot_rev)),
    })


LORENZ_DECILES_SQL = """
WITH pu AS (
  SELECT o_custkey,
         CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT)
           AS rev
  FROM orders GROUP BY 1
), tot AS (SELECT CAST(sum(rev) AS BIGINT) AS r FROM pu),
thr AS (
  SELECT unnest(generate_series(1, 9)) AS decile,
         unnest(quantile_disc(rev, [0.1, 0.2, 0.3, 0.4, 0.5,
                                    0.6, 0.7, 0.8, 0.9])) AS t
  FROM pu
)
SELECT CAST(thr.decile AS BIGINT) AS decile, thr.t AS thr_cents,
       CAST(count(*) FILTER (WHERE pu.rev <= thr.t) AS BIGINT)
         AS n_at_or_below,
       CAST(COALESCE(sum(pu.rev) FILTER (WHERE pu.rev <= thr.t), 0)
            * 1000000 // tot.r AS BIGINT) AS rev_share_ppm
FROM thr CROSS JOIN pu CROSS JOIN tot
GROUP BY 1, 2, tot.r
ORDER BY 1
"""


def brand_year_revenue(sf_dir: str) -> pa.Table:
    """REPORTING ROLLUP with calendar logic and a dimension join:
    discounted lineitem revenue by (part brand, ship year) plus the
    year-over-year growth in ppm -- the classic BI query shape (fact
    -> small-dim broadcast join -> two-key rollup -> windowed ratio).

    Scale shape: the part dimension is projected to (partkey, brand)
    and broadcast once via ray.put (pc.index_in lookup per block --
    never a shuffle); revenue folds per (brand, year); YoY is an
    O(brands x years) driver pass.
    """
    part = (_read(sf_dir, "part", ["p_partkey", "p_brand"])
            .to_pandas())
    pk = pa.array(part["p_partkey"].to_numpy(dtype=np.int64))
    brands = np.sort(part["p_brand"].unique())
    bcode = {b: i for i, b in enumerate(brands)}
    pb = np.array([bcode[b] for b in part["p_brand"]],
                  dtype=np.int64)
    lookup_ref = ray.put((pk, pb))

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_extendedprice", "l_discount",
                "l_shipdate"])

    empty = pa.table({"b": pa.array([], type=pa.int64()),
                      "year": pa.array([], type=pa.int64()),
                      "rev": pa.array([], type=pa.int64())})

    class Roll:
        def __init__(self):
            self.pk, self.pb = ray.get(lookup_ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return empty
            idx = pc.index_in(pc.cast(t["l_partkey"], pa.int64()),
                              value_set=self.pk).to_numpy(
                zero_copy_only=False).astype(np.int64)
            rev = np.floor(
                t["l_extendedprice"].to_numpy(zero_copy_only=False)
                * (1.0 - t["l_discount"].to_numpy(
                    zero_copy_only=False)) * 100.0 + 0.5).astype(
                np.int64)
            us = pc.cast(t["l_shipdate"], pa.int64()).to_numpy(
                zero_copy_only=False)
            year = (us.astype("datetime64[us]")
                    .astype("datetime64[Y]").astype(np.int64) + 1970)
            return pa.table({"b": pa.array(self.pb[idx]),
                             "year": pa.array(year),
                             "rev": pa.array(rev)})

    agg = (combine_agg(li.map_batches(Roll, batch_format="pyarrow",
                                      zero_copy_batch=True, concurrency=2),
                       ["b", "year"], lambda t: t, [("rev", "sum")],
                       named("b", "year", "rev"))
           .to_pandas().sort_values(["b", "year"]))
    b = agg["b"].to_numpy(dtype=np.int64)
    year = agg["year"].to_numpy(dtype=np.int64)
    rev = agg["rev"].to_numpy(dtype=np.int64)
    prev = np.zeros_like(rev)
    same = (b[1:] == b[:-1]) & (year[1:] == year[:-1] + 1)
    prev[1:][same] = rev[:-1][same]
    yoy = np.where(prev > 0, rev * 1_000_000 // np.maximum(prev, 1), 0)
    return pa.table({
        "p_brand": pa.array(brands[b].tolist(), type=pa.string()),
        "year": pa.array(year),
        "rev_cents": pa.array(rev),
        "yoy_ppm": pa.array(yoy.astype(np.int64)),
    })


BRAND_YEAR_REVENUE_SQL = """
WITH r AS (
  SELECT p.p_brand,
         CAST(year(l.l_shipdate) AS BIGINT) AS year,
         CAST(sum(CAST(floor(l.l_extendedprice * (1.0 - l.l_discount)
                             * 100.0 + 0.5) AS BIGINT)) AS BIGINT)
           AS rev_cents
  FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
  GROUP BY 1, 2
), w AS (
  SELECT p_brand, year, rev_cents,
         lag(rev_cents) OVER (PARTITION BY p_brand ORDER BY year)
           AS prev,
         lag(year) OVER (PARTITION BY p_brand ORDER BY year)
           AS prev_year
  FROM r
)
SELECT p_brand, year, rev_cents,
       CAST(CASE WHEN prev_year = year - 1 AND prev > 0
                 THEN rev_cents * 1000000 // prev
                 ELSE 0 END AS BIGINT) AS yoy_ppm
FROM w ORDER BY 1, 2
"""


def cross_source_dup_matrix(sf_dir: str) -> pa.Table:
    """CROSS-SOURCE CONTAMINATION MATRIX: for every unordered source
    pair, how many distinct document texts (by md5 content hash, the
    oracle-replicable tier) appear in BOTH sources -- the provenance
    audit that tells a corpus curator which feeds are mirroring each
    other before dedup budgets are assigned.  The full zero-filled
    pair matrix is emitted so the result is schema-stable even on a
    duplicate-free corpus.

    Scale shape: per-block DISTINCT (hash, source) combiner, hash
    co-partition, per-hash sorted-run source-pair expansion (bounded
    by sources^2 per hash), one tiny pair groupby; sources themselves
    come from an O(sources) distinct fold.
    """
    from ..hashing import md5_uint64
    from ..stages.partition import fit_partitions, partition_by

    ds = _read(sf_dir, "documents", ["text", "source"])

    mem_empty = pa.table({"h": pa.array([], type=pa.int64()),
                          "source": pa.array([], type=pa.string())})

    def memberships(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return mem_empty
        h = md5_uint64(t["text"].combine_chunks()).view(np.int64)
        staged = pa.table({"h": pa.array(h), "source": t["source"]})
        # per-block distinct
        g = staged.group_by(["h", "source"]).aggregate([])
        return g

    pair_empty = pa.table({"a": pa.array([], type=pa.string()),
                           "b": pa.array([], type=pa.string())})

    def expand(t: pa.Table) -> pa.Table:
        h = t["h"].to_numpy(zero_copy_only=False)
        src = np.asarray(t["source"].to_pylist(), dtype=np.str_)
        order = np.lexsort((src, h))
        h, src = h[order], src[order]
        keep = np.ones(h.size, dtype=bool)      # cross-block dedup
        keep[1:] = (h[1:] != h[:-1]) | (src[1:] != src[:-1])
        h, src = h[keep], src[keep]
        new = np.ones(h.size, dtype=bool)
        new[1:] = h[1:] != h[:-1]
        starts = np.flatnonzero(new)
        rlen = np.diff(np.append(starts, h.size))
        rows_a, rows_b = [], []
        for s, ln in zip(starts.tolist(), rlen.tolist()):
            if ln < 2:
                continue
            grp = src[s:s + ln]
            for i in range(ln - 1):
                for j in range(i + 1, ln):
                    rows_a.append(grp[i]); rows_b.append(grp[j])
        return pa.table({"a": pa.array(rows_a, type=pa.string()),
                         "b": pa.array(rows_b, type=pa.string())})

    mems = ds.map_batches(memberships, batch_format="pyarrow",
                          zero_copy_batch=True)
    pairs = combine_agg(partition_by(mems, ["h"], fit_partitions(16),
                                     expand, pair_empty),
                        ["a", "b"], lambda t: t, [("b", "count")],
                        named("a", "b", "n")).to_pandas()

    def srcs(t: pa.Table) -> pa.Table:
        return pa.table({"source": pc.unique(
            t["source"].combine_chunks())})

    all_src = np.sort(np.unique(
        ds.map_batches(srcs, batch_format="pyarrow")
        .to_pandas()["source"].to_numpy()))
    counts = {(r["a"], r["b"]): int(r["n"])
              for _, r in pairs.iterrows()}
    out_a, out_b, out_n = [], [], []
    for i in range(len(all_src)):
        for j in range(i + 1, len(all_src)):
            a, b = str(all_src[i]), str(all_src[j])
            out_a.append(a); out_b.append(b)
            out_n.append(counts.get((a, b), 0))
    return pa.table({
        "source_a": pa.array(out_a, type=pa.string()),
        "source_b": pa.array(out_b, type=pa.string()),
        "n_shared_texts": pa.array(out_n, type=pa.int64()),
    })


CROSS_SOURCE_DUP_SQL = """
WITH d AS (
  SELECT DISTINCT md5(text) AS h, source FROM documents
), p AS (
  SELECT x.source AS a, y.source AS b,
         CAST(count(DISTINCT x.h) AS BIGINT) AS n
  FROM d x JOIN d y ON x.h = y.h AND x.source < y.source
  GROUP BY 1, 2
), s AS (SELECT DISTINCT source FROM documents)
SELECT s1.source AS source_a, s2.source AS source_b,
       CAST(COALESCE(p.n, 0) AS BIGINT) AS n_shared_texts
FROM s s1 JOIN s s2 ON s1.source < s2.source
LEFT JOIN p ON p.a = s1.source AND p.b = s2.source
ORDER BY 1, 2
"""


def vocab_coverage_curve(sf_dir: str,
                         ks: tuple = (10, 100, 1000)) -> pa.Table:
    """TOKENIZER-BUDGET CURVE: what fraction of all token occurrences
    the top-k vocabulary covers, for several k -- the first number a
    vocab-size decision needs (coverage claims beyond the knee are
    where OOV pain starts).  Exact integer counts and ppm.

    Scale shape: per-block token-count combiner, vocabulary-bounded
    groupby, per-block top-max(k) prereduce, O(max k) driver fold.
    """
    docs = _read(sf_dir, "documents", ["text"])
    kmax = max(ks)

    empty = pa.table({"tok": pa.array([], type=pa.string()),
                      "n": pa.array([], type=pa.int64())})
    freq = combine_agg(docs, ["tok"], _tokens, [("tok", "count")],
                       named("tok", "n")).materialize()
    total = int(freq.sum("n") or 0)
    vocab_size = int(freq.count())

    def prereduce(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        n = t["n"].to_numpy(zero_copy_only=False)
        toks = t["tok"].to_numpy(zero_copy_only=False)
        order = np.lexsort((toks, -n))[:kmax]
        return pa.table({"tok": pa.array(toks[order].tolist(),
                                         type=pa.string()),
                         "n": pa.array(n[order].astype(np.int64))})

    top = (freq.map_batches(prereduce, batch_format="pyarrow")
           .to_pandas())
    order = np.lexsort((top["tok"].to_numpy(),
                        -top["n"].to_numpy()))[:kmax]
    f = top["n"].to_numpy()[order]
    cum = np.concatenate([[0], np.cumsum(f)])
    rows_k, rows_cov, rows_ppm = [], [], []
    for k in ks:
        c = int(cum[min(k, len(f))])
        rows_k.append(k); rows_cov.append(c)
        rows_ppm.append(c * 1_000_000 // total if total else 0)
    return pa.table({
        "k": pa.array(rows_k, type=pa.int64()),
        "covered_occurrences": pa.array(rows_cov, type=pa.int64()),
        "total_occurrences": pa.array(
            [total] * len(ks), type=pa.int64()),
        "vocab_size": pa.array([vocab_size] * len(ks),
                               type=pa.int64()),
        "coverage_ppm": pa.array(rows_ppm, type=pa.int64()),
    })


VOCAB_COVERAGE_SQL = """
WITH toks AS (
  SELECT unnest(string_split(text, ' ')) AS tok FROM documents
), freq AS (
  SELECT tok, CAST(count(*) AS BIGINT) AS n FROM toks GROUP BY 1
), ranked AS (
  SELECT n, row_number() OVER (ORDER BY n DESC, tok) AS r FROM freq
), tot AS (
  SELECT CAST(sum(n) AS BIGINT) AS t,
         CAST(count(*) AS BIGINT) AS v
  FROM freq
), ks(k) AS (VALUES (10), (100), (1000))
SELECT CAST(ks.k AS BIGINT) AS k,
       CAST(COALESCE(sum(ranked.n) FILTER (WHERE ranked.r <= ks.k), 0)
            AS BIGINT) AS covered_occurrences,
       CAST(tot.t AS BIGINT) AS total_occurrences,
       CAST(tot.v AS BIGINT) AS vocab_size,
       CAST(COALESCE(sum(ranked.n) FILTER (WHERE ranked.r <= ks.k), 0)
            * 1000000 // tot.t AS BIGINT) AS coverage_ppm
FROM ks CROSS JOIN ranked CROSS JOIN tot
GROUP BY ks.k, tot.t, tot.v
ORDER BY 1
"""


def rfm_segments(sf_dir: str) -> pa.Table:
    """RFM SEGMENTATION of customers (recency / frequency / monetary
    quintile scores, the retail-analytics classic): per customer, days
    since last order, order count and lifetime cents; each metric is
    scored 1-5 against its own exact quintile thresholds
    (score = 1 + #{thresholds strictly below}, recency inverted so
    fresher = higher) and the (r, f, m) cell census is returned.

    Scale shape: one per-customer groupby, THREE shared
    histogram-bisection threshold passes, one streaming score-census
    combiner -- no sort, no driver-side customer table.
    """
    from .quantiles import exact_quantiles

    orders = _read(sf_dir, "orders",
                   ["o_custkey", "o_totalprice", "o_orderdate"])
    DAY_US = np.int64(86_400_000_000)

    def per_order(t: pa.Table) -> pa.Table:
        us = pc.cast(t["o_orderdate"], pa.int64()).to_numpy(
            zero_copy_only=False)
        return pa.table({
            "cust": pc.cast(t["o_custkey"], pa.int64()),
            "last_day": pa.array(us // DAY_US),
            "money": _int_units(t["o_totalprice"], 100),
        })

    pu = combine_agg(orders, ["cust"], per_order,
                     [("last_day", "max"), ("money", "count"),
                      ("money", "sum")],
                     named("cust", "last_day", "freq", "money")
                     ).materialize()
    anchor = int(pu.max("last_day"))

    def add_rec(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "last_day" not in t.column_names:
            return pa.table({
                "recency": pa.array([], type=pa.int64()),
                "freq": pa.array([], type=pa.int64()),
                "money": pa.array([], type=pa.int64())})
        ld = t["last_day"].to_numpy(zero_copy_only=False)
        return pa.table({"recency": pa.array(anchor - ld),
                         "freq": t["freq"], "money": t["money"]})

    feats = pu.map_batches(add_rec, batch_format="pyarrow").materialize()
    qs = [0.2, 0.4, 0.6, 0.8]
    thr = {}
    for col in ("recency", "freq", "money"):
        tt = exact_quantiles(feats, col, qs)
        thr[col] = np.array(sorted(int(v.as_py())
                                   for v in tt["value"]),
                            dtype=np.int64)

    def census(t: pa.Table) -> pa.Table:
        rec = t["recency"].to_numpy(zero_copy_only=False)
        fr = t["freq"].to_numpy(zero_copy_only=False)
        mo = t["money"].to_numpy(zero_copy_only=False)
        r_raw = 1 + (rec[:, None] > thr["recency"][None, :]).sum(axis=1)
        r = 6 - r_raw                       # fresher = higher score
        f_ = 1 + (fr[:, None] > thr["freq"][None, :]).sum(axis=1)
        m = 1 + (mo[:, None] > thr["money"][None, :]).sum(axis=1)
        return pa.table({"rfm_code": (100 * r + 10 * f_ + m)
                         .astype(np.int64)})

    agg = (combine_agg(feats, ["rfm_code"], census, [("rfm_code", "count")],
                       named("rfm_code", "n_users"))
           .to_pandas().sort_values("rfm_code"))
    return pa.table({
        "rfm_code": pa.array(agg["rfm_code"].to_numpy(dtype=np.int64)),
        "n_users": pa.array(agg["n_users"].to_numpy(dtype=np.int64)),
    })


RFM_SEGMENTS_SQL = """
WITH pu AS (
  SELECT o_custkey,
         CAST(max(CAST(epoch_us(o_orderdate) AS BIGINT) // 86400000000)
              AS BIGINT) AS last_day,
         CAST(count(*) AS BIGINT) AS freq,
         CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT)
           AS money
  FROM orders GROUP BY 1
), anc AS (SELECT max(last_day) AS a FROM pu),
f AS (
  SELECT anc.a - pu.last_day AS recency, pu.freq, pu.money
  FROM pu CROSS JOIN anc
), t AS (
  SELECT quantile_disc(recency, [0.2, 0.4, 0.6, 0.8]) AS tr,
         quantile_disc(freq, [0.2, 0.4, 0.6, 0.8]) AS tf,
         quantile_disc(money, [0.2, 0.4, 0.6, 0.8]) AS tm
  FROM f
), scored AS (
  SELECT 100 * (6 - (1 + CAST(recency > t.tr[1] AS INT)
                       + CAST(recency > t.tr[2] AS INT)
                       + CAST(recency > t.tr[3] AS INT)
                       + CAST(recency > t.tr[4] AS INT)))
         + 10 * (1 + CAST(freq > t.tf[1] AS INT)
                   + CAST(freq > t.tf[2] AS INT)
                   + CAST(freq > t.tf[3] AS INT)
                   + CAST(freq > t.tf[4] AS INT))
         + (1 + CAST(money > t.tm[1] AS INT)
              + CAST(money > t.tm[2] AS INT)
              + CAST(money > t.tm[3] AS INT)
              + CAST(money > t.tm[4] AS INT)) AS rfm_code
  FROM f CROSS JOIN t
)
SELECT CAST(rfm_code AS BIGINT) AS rfm_code,
       CAST(count(*) AS BIGINT) AS n_users
FROM scored GROUP BY 1 ORDER BY 1
"""


_POISSON_CDF_10K = (3679, 7358, 9197, 9810)   # Poisson(1) x 10^4, w<=4


def bootstrap_mean_ci(sf_dir: str, n_resamples: int = 16) -> pa.Table:
    """POISSON-BOOTSTRAP uncertainty for the streaming mean of event
    value: every row gets a DETERMINISTIC resample weight w_b(row) per
    replicate b (hash(event_id * B + b) mapped through the quantized
    Poisson(1) CDF -- the online bootstrap of Oza/Russell, made
    hash-exact), and each replicate's weighted mean comes out in exact
    micro units -- distribution-free error bars with ONE pass and no
    data duplication.

    Scale shape: one streaming pass of (replicate, weight) rows into a
    B-key grouped sum; the exchange carries O(B) rows per block.
    """
    from ..hashing import murmur64
    ds = _read(sf_dir, "events", ["event_id", "value"])
    B = int(n_resamples)
    cdf = np.array(_POISSON_CDF_10K, dtype=np.uint64)

    def weighted(t: pa.Table) -> pa.Table:
        """One row per (event, replicate)."""
        ids = t["event_id"].to_numpy(zero_copy_only=False).astype(
            np.int64)
        m = _int_units(t["value"], 1_000_000).to_numpy(
            zero_copy_only=False)
        with np.errstate(over="ignore"):
            h = murmur64((ids[:, None] * np.int64(B)
                          + np.arange(B, dtype=np.int64)).ravel()) \
                % np.uint64(10_000)
        w = (h[:, None] >= cdf[None, :]).sum(axis=1).astype(np.int64)
        return pa.table({"b": np.tile(np.arange(B, dtype=np.int64),
                                      ids.size),
                         "wm": w * np.repeat(m, B), "w": w})

    agg = (combine_agg(ds, ["b"], weighted, [("wm", "sum"), ("w", "sum")],
                       named("b", "wsum", "wn"))
           .to_pandas().sort_values("b"))
    wsum = agg["wsum"].to_numpy(dtype=np.int64)
    wn = agg["wn"].to_numpy(dtype=np.int64)
    means = np.array([int(s) * 1 // int(n) if n else 0
                      for s, n in zip(wsum, wn)], dtype=np.int64)
    return pa.table({
        "b": pa.array(agg["b"].to_numpy(dtype=np.int64)),
        "n_eff": pa.array(wn),
        "mean_micro": pa.array(means),
    })


BOOTSTRAP_MEAN_SQL = """
WITH b(b) AS (SELECT unnest(generate_series(0, 15))),
w AS (
  SELECT b.b,
         CAST(floor(e.value * 1000000.0 + 0.5) AS BIGINT) AS m,
         CAST(CASE
           WHEN hash(e.event_id * 16 + b.b) % 10000 < 3679 THEN 0
           WHEN hash(e.event_id * 16 + b.b) % 10000 < 7358 THEN 1
           WHEN hash(e.event_id * 16 + b.b) % 10000 < 9197 THEN 2
           WHEN hash(e.event_id * 16 + b.b) % 10000 < 9810 THEN 3
           ELSE 4 END AS BIGINT) AS w
  FROM events e CROSS JOIN b
)
SELECT b, CAST(sum(w) AS BIGINT) AS n_eff,
       CAST(CASE WHEN sum(w) > 0
                 THEN sum(w * m) // sum(w) ELSE 0 END AS BIGINT)
         AS mean_micro
FROM w GROUP BY 1 ORDER BY 1
"""


def ams_f2_estimate(sf_dir: str, n_estimators: int = 9) -> pa.Table:
    """AMS SECOND-MOMENT SKETCH (Alon-Matias-Szegedy STOC'96): estimate
    F2 = sum of squared user frequencies of the event stream with
    ``n_estimators`` independent +-1 sign hashes -- each estimator is
    (sum_u sign_j(u) * c_u)^2, exact in integers (signs from the
    DuckDB-parity murmur hash), reported beside the exact distributed
    F2 and the median estimate so the sketch's error is
    machine-checked by the gate itself.

    Scale shape: per-block (user, count) combiner, one user groupby;
    the J sign projections of each user's exact count fold per block
    (O(J) integers per block through the exchange).
    """
    from ..hashing import murmur64
    ds = _read(sf_dir, "events", ["user_id"])
    J = int(n_estimators)

    counts = combine_agg(
        ds, ["u"],
        lambda t: pa.table({"u": pc.cast(t["user_id"], pa.int64())}),
        [("u", "count")], named("u", "c"))

    def project(t: pa.Table) -> pa.Table:
        """One row per (user, estimator)."""
        u = t["u"].to_numpy(zero_copy_only=False).astype(np.int64)
        c = np.repeat(t["c"].to_numpy(zero_copy_only=False), J)
        with np.errstate(over="ignore"):
            bit = (murmur64((u[:, None] * np.int64(J)
                             + np.arange(J, dtype=np.int64)).ravel())
                   & np.uint64(1)).astype(np.int64)
        return pa.table({"j": np.tile(np.arange(J, dtype=np.int64),
                                      u.size),
                         "z": (1 - 2 * bit) * c, "f2": c * c})

    agg = (combine_agg(counts, ["j"], project, [("z", "sum"), ("f2", "sum")],
                       named("j", "z", "f2"))
           .to_pandas().sort_values("j"))
    z = agg["z"].to_numpy(dtype=np.int64)
    exact = int(agg["f2"].iloc[0])
    est = np.sort(z.astype(object) ** 2)
    med = int(est[(J + 1) // 2 - 1])   # quantile_disc(0.5) rank
    return pa.table({
        "n_estimators": pa.array([J], type=pa.int64()),
        "f2_exact": pa.array([exact], type=pa.int64()),
        "f2_median_est": pa.array([med], type=pa.int64()),
        "err_ppm": pa.array(
            [abs(med - exact) * 1_000_000 // exact if exact else 0],
            type=pa.int64()),
    })


AMS_F2_SQL = """
WITH c AS (
  SELECT user_id AS u, CAST(count(*) AS BIGINT) AS c
  FROM events GROUP BY 1
), j(j) AS (SELECT unnest(generate_series(0, 8))),
z AS (
  SELECT j.j,
         CAST(sum((1 - 2 * CAST(hash(c.u * 9 + j.j) % 2 AS BIGINT))
                  * c.c) AS BIGINT) AS z,
         CAST(sum(c.c * c.c) AS BIGINT) AS f2
  FROM c CROSS JOIN j GROUP BY 1
), e AS (SELECT z * z AS est, f2 FROM z),
m AS (SELECT CAST(quantile_disc(est, 0.5) AS BIGINT) AS med,
             CAST(max(f2) AS BIGINT) AS f2 FROM e)
SELECT CAST(9 AS BIGINT) AS n_estimators, m.f2 AS f2_exact,
       m.med AS f2_median_est,
       CAST(abs(m.med - m.f2) * 1000000 // m.f2 AS BIGINT) AS err_ppm
FROM m
"""


def hapax_ratio_by_source(sf_dir: str) -> pa.Table:
    """VOCABULARY RICHNESS per source: hapax legomena (tokens seen
    exactly once within the source) as a share of the source's
    distinct vocabulary -- the lexical-diversity screen that separates
    templated/boilerplate feeds (low hapax share) from organic text,
    complementing the Heaps-law and Hill-number queries.

    Scale shape: per-block (source, token) count combiner, one
    vocabulary-bounded groupby, then an O(sources) fold of (hapax,
    vocab) partials.
    """
    ds = _read(sf_dir, "documents", ["source", "text"])
    vocab = combine_agg(ds, ["source", "tok"], lambda t: _tokens(t, "source"),
                        [("tok", "count")],
                        lambda t: pa.table({
                            "source": t["source"],
                            "hapax": pc.cast(pc.equal(t["tok_count"], 1),
                                             pa.int64())}))
    agg = (combine_agg(vocab, ["source"], lambda t: t,
                       [("hapax", "sum"), ("hapax", "count")],
                       named("source", "hapax", "vocab"))
           .to_pandas().sort_values("source"))
    hp = agg["hapax"].to_numpy(dtype=np.int64)
    vb = agg["vocab"].to_numpy(dtype=np.int64)
    return pa.table({
        "source": pa.array(agg["source"].tolist(), type=pa.string()),
        "hapax": pa.array(hp),
        "vocab": pa.array(vb),
        "hapax_ppm": pa.array(hp * 1_000_000 // vb),
    })


HAPAX_RATIO_SQL = """
WITH toks AS (
  SELECT source, unnest(string_split(text, ' ')) AS tok
  FROM documents
), v AS (
  SELECT source, tok, CAST(count(*) AS BIGINT) AS n
  FROM toks GROUP BY 1, 2
)
SELECT source,
       CAST(sum(CASE WHEN n = 1 THEN 1 ELSE 0 END) AS BIGINT)
         AS hapax,
       CAST(count(*) AS BIGINT) AS vocab,
       CAST(sum(CASE WHEN n = 1 THEN 1 ELSE 0 END) * 1000000
            // count(*) AS BIGINT) AS hapax_ppm
FROM v GROUP BY 1 ORDER BY 1
"""


def l_diversity_audit(sf_dir: str, l_threshold: int = 3) -> pa.Table:
    """L-DIVERSITY audit (Machanavajjhala et al. ICDE'06), the
    companion to k-anonymity: per quasi-identifier class (nation), the
    class size and the number of DISTINCT sensitive values (market
    segment) -- a class can be large yet still leak if everyone in it
    shares the sensitive value.  Flags classes below ``l_threshold``.

    Scale shape: per-block distinct (nation, segment) + count
    combiner, one bounded groupby, O(nations) driver fold.
    """
    ds = _read(sf_dir, "customer", ["c_nationkey", "c_mktsegment"])
    cells = combine_agg(ds, ["c_nationkey", "c_mktsegment"], lambda t: t,
                        [("c_nationkey", "count")],
                        named("nk", "seg", "n")).to_pandas()
    g = cells.groupby("nk").agg(n_rows=("n", "sum"),
                                l_div=("seg", "nunique")).reset_index()
    g = g.sort_values("nk")
    return pa.table({
        "nationkey": pa.array(g["nk"].to_numpy(dtype=np.int64)),
        "n_rows": pa.array(g["n_rows"].to_numpy(dtype=np.int64)),
        "l_diversity": pa.array(g["l_div"].to_numpy(dtype=np.int64)),
        "at_risk": pa.array(
            (g["l_div"].to_numpy() < l_threshold).astype(np.int64)),
    })


L_DIVERSITY_SQL = """
SELECT CAST(c_nationkey AS BIGINT) AS nationkey,
       CAST(count(*) AS BIGINT) AS n_rows,
       CAST(count(DISTINCT c_mktsegment) AS BIGINT) AS l_diversity,
       CAST(CASE WHEN count(DISTINCT c_mktsegment) < 3
                 THEN 1 ELSE 0 END AS BIGINT) AS at_risk
FROM customer GROUP BY 1 ORDER BY 1
"""


def hodges_lehmann_shift(sf_dir: str, flag_a: str = "R",
                         flag_b: str = "A") -> pa.Table:
    """HODGES-LEHMANN LOCATION SHIFT between two return flags on
    l_quantity: the median of ALL pairwise differences (q_a - q_b) --
    the robust effect-size companion to the Mann-Whitney test, exact
    because the bounded quantity domain turns the n_a*n_b pair multiset
    into a 50x50 histogram convolution (quantile_disc rank pick, no
    pair is ever materialized).

    Scale shape: identical histogram combiner to mannwhitney_qty_flags;
    the convolution runs on the driver over the tiny value domain.
    """
    h = _flag_qty_hist(sf_dir, flag_a, flag_b)
    q = h["q"].to_numpy(dtype=np.int64)
    na = h["na"].to_numpy(dtype=np.int64)
    nb = h["nb"].to_numpy(dtype=np.int64)
    # difference histogram by convolution over the bounded domain
    diffs = {}
    for i in range(len(q)):
        if na[i] == 0:
            continue
        for j in range(len(q)):
            if nb[j] == 0:
                continue
            d = int(q[i] - q[j])
            diffs[d] = diffs.get(d, 0) + int(na[i]) * int(nb[j])
    total = sum(diffs.values())
    rank = max(0, -(-total // 2) - 1)       # ceil(0.5*N) - 1, 0-based
    cum = 0
    hl = 0
    for d in sorted(diffs):
        cum += diffs[d]
        if cum >= rank + 1:
            hl = d
            break
    return pa.table({
        "flag_a": pa.array([flag_a], type=pa.string()),
        "flag_b": pa.array([flag_b], type=pa.string()),
        "n_pairs": pa.array([total], type=pa.int64()),
        "hl_shift": pa.array([hl], type=pa.int64()),
    })


HODGES_LEHMANN_SQL = """
WITH h AS (
  SELECT CAST(l_quantity AS BIGINT) AS q,
         CAST(sum(CASE WHEN l_returnflag = 'R' THEN 1 ELSE 0 END)
              AS BIGINT) AS na,
         CAST(sum(CASE WHEN l_returnflag = 'A' THEN 1 ELSE 0 END)
              AS BIGINT) AS nb
  FROM lineitem WHERE l_returnflag IN ('R', 'A') GROUP BY 1
), d AS (
  SELECT x.q - y.q AS d, CAST(sum(x.na * y.nb) AS BIGINT) AS n
  FROM h x CROSS JOIN h y
  WHERE x.na > 0 AND y.nb > 0
  GROUP BY 1
), t AS (SELECT CAST(sum(n) AS BIGINT) AS total FROM d),
c AS (
  SELECT d, sum(n) OVER (ORDER BY d) AS cum FROM d
)
SELECT 'R' AS flag_a, 'A' AS flag_b, t.total AS n_pairs,
       CAST(min(c.d) AS BIGINT) AS hl_shift
FROM c CROSS JOIN t
WHERE c.cum >= CAST(ceil(0.5 * t.total) AS BIGINT)
GROUP BY t.total
"""


_DICT_COLS = (("lineitem", "l_returnflag"),
              ("lineitem", "l_linestatus"),
              ("orders", "o_orderstatus"),
              ("orders", "o_orderpriority"))


def dict_encoding_report(sf_dir: str) -> pa.Table:
    """DICTIONARY-ENCODING SIZE ESTIMATE per low-cardinality string
    column: rows, distinct values, plain bytes (sum of value lengths),
    dictionary bytes (distinct lengths + 4 bytes/row of codes) and the
    saving in ppm -- the storage-layout audit that decides which
    columns get dictionary pages.

    Scale shape, per column: a per-block (value -> count) combiner,
    one groupby over the tiny value domain, O(distinct) driver fold.
    """
    rows = {c: [] for c in ("table_col", "n_rows", "n_distinct",
                            "plain_bytes", "dict_bytes",
                            "saving_ppm")}
    for table, col in _DICT_COLS:
        agg = combine_agg(_read(sf_dir, table, [col]), [col], lambda t: t,
                          [(col, "count")], named("v", "n")).to_pandas()
        vals = agg["v"].to_numpy()
        n = agg["n"].to_numpy(dtype=np.int64)
        lens = np.array([len(str(v).encode()) for v in vals],
                        dtype=np.int64)
        n_rows = int(n.sum())
        plain = int((lens * n).sum())
        dict_b = int(lens.sum()) + 4 * n_rows
        rows["table_col"].append(f"{table}.{col}")
        rows["n_rows"].append(n_rows)
        rows["n_distinct"].append(len(vals))
        rows["plain_bytes"].append(plain)
        rows["dict_bytes"].append(dict_b)
        num = (plain - dict_b) * 1_000_000
        rows["saving_ppm"].append(
            (-((-num) // plain) if num < 0 else num // plain)
            if plain else 0)
    return pa.table({
        "table_col": pa.array(rows["table_col"], type=pa.string()),
        "n_rows": pa.array(rows["n_rows"], type=pa.int64()),
        "n_distinct": pa.array(rows["n_distinct"], type=pa.int64()),
        "plain_bytes": pa.array(rows["plain_bytes"], type=pa.int64()),
        "dict_bytes": pa.array(rows["dict_bytes"], type=pa.int64()),
        "saving_ppm": pa.array(rows["saving_ppm"], type=pa.int64()),
    })


DICT_ENCODING_SQL = """
WITH u AS (
  SELECT 'lineitem.l_returnflag' AS table_col, l_returnflag AS v
  FROM lineitem
  UNION ALL
  SELECT 'lineitem.l_linestatus', l_linestatus FROM lineitem
  UNION ALL
  SELECT 'orders.o_orderstatus', o_orderstatus FROM orders
  UNION ALL
  SELECT 'orders.o_orderpriority', o_orderpriority FROM orders
), g AS (
  SELECT table_col, v, CAST(count(*) AS BIGINT) AS n,
         CAST(strlen(v) AS BIGINT) AS len
  FROM u GROUP BY 1, 2
), s AS (
  SELECT table_col,
         CAST(sum(n) AS BIGINT) AS n_rows,
         CAST(count(*) AS BIGINT) AS n_distinct,
         CAST(sum(len * n) AS BIGINT) AS plain_bytes,
         CAST(sum(len) + 4 * sum(n) AS BIGINT) AS dict_bytes
  FROM g GROUP BY 1
)
SELECT table_col, n_rows, n_distinct, plain_bytes, dict_bytes,
       CAST((plain_bytes - dict_bytes) * 1000000 // plain_bytes
            AS BIGINT) AS saving_ppm
FROM s ORDER BY 1
"""


def capture_recapture_users(sf_dir: str, type_a: str = "click",
                            type_b: str = "view") -> pa.Table:
    """CHAPMAN CAPTURE-RECAPTURE estimate of the total user population
    from two independent "sightings" (users who clicked, users who
    viewed): N-hat = (n1+1)(n2+1)/(m+1) - 1 with m the overlap -- the
    ecology estimator that data teams reuse to size a population only
    partially observed by any one channel, reported beside the exact
    distinct-user truth so the gate itself checks the estimator.

    Scale shape: per-block (user, seen_a, seen_b) combiner, one user
    groupby, streaming scalar fold.
    """
    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    def seen(t: pa.Table) -> pa.Table:
        return pa.table({
            "u": pc.cast(t["user_id"], pa.int64()),
            "a": pc.cast(pc.equal(t["event_type"], pa.scalar(type_a)),
                         pa.int64()),
            "b": pc.cast(pc.equal(t["event_type"], pa.scalar(type_b)),
                         pa.int64()),
        })

    per = combine_agg(ds, ["u"], seen, [("a", "max"), ("b", "max")],
                      named("u", "a", "b"))

    empty = pa.table({c: pa.array([], type=pa.int64())
                      for c in ("n1", "n2", "m", "tot")})

    def fold(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "a" not in t.column_names:
            return empty
        a = t["a"].to_numpy(zero_copy_only=False)
        b = t["b"].to_numpy(zero_copy_only=False)
        return pa.table({
            "n1": pa.array([int(a.sum())], type=pa.int64()),
            "n2": pa.array([int(b.sum())], type=pa.int64()),
            "m": pa.array([int((a & b).sum())], type=pa.int64()),
            "tot": pa.array([t.num_rows], type=pa.int64()),
        })

    f = per.map_batches(fold, batch_format="pyarrow").to_pandas()
    n1, n2 = int(f["n1"].sum()), int(f["n2"].sum())
    m, tot = int(f["m"].sum()), int(f["tot"].sum())
    nhat = (n1 + 1) * (n2 + 1) // (m + 1) - 1
    return pa.table({
        "n_seen_a": pa.array([n1], type=pa.int64()),
        "n_seen_b": pa.array([n2], type=pa.int64()),
        "n_both": pa.array([m], type=pa.int64()),
        "chapman_nhat": pa.array([nhat], type=pa.int64()),
        "n_true_distinct": pa.array([tot], type=pa.int64()),
    })


CAPTURE_RECAPTURE_SQL = """
WITH per AS (
  SELECT user_id,
         CAST(max(CASE WHEN event_type = 'click' THEN 1 ELSE 0 END)
              AS BIGINT) AS a,
         CAST(max(CASE WHEN event_type = 'view' THEN 1 ELSE 0 END)
              AS BIGINT) AS b
  FROM events GROUP BY 1
)
SELECT CAST(sum(a) AS BIGINT) AS n_seen_a,
       CAST(sum(b) AS BIGINT) AS n_seen_b,
       CAST(sum(a * b) AS BIGINT) AS n_both,
       CAST((sum(a) + 1) * (sum(b) + 1) // (sum(a * b) + 1) - 1
            AS BIGINT) AS chapman_nhat,
       CAST(count(*) AS BIGINT) AS n_true_distinct
FROM per
"""


def simpsons_flip_report(sf_dir: str,
                         threshold: float = 100.0) -> pa.Table:
    """SIMPSON'S-PARADOX SCREEN for the hash-split A/B readout: the
    pooled high-value-rate comparison between arms versus the same
    comparison inside every event-type stratum, entirely by integer
    cross-multiplication (rate_a > rate_b iff k_a*n_b > k_b*n_a -- no
    ratio is ever formed) -- flags when stratified and pooled readouts
    disagree, the classic aggregation trap.

    Scale shape: one streaming (arm, stratum) confusion combiner over
    a bounded domain, O(strata) driver fold.
    """
    from ..hashing import murmur64
    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])
    thr_m = int(round(threshold * 1_000_000))

    def arms(t: pa.Table) -> pa.Table:
        ids = t["event_id"].to_numpy(zero_copy_only=False).astype(
            np.int64)
        m = _int_units(t["value"], 1_000_000).to_numpy(
            zero_copy_only=False)
        return pa.table({
            "stype": t["event_type"],
            "arm": pa.array((murmur64(ids) % np.uint64(2)).astype(np.int64)),
            "k": pa.array((m > thr_m).astype(np.int64)),
        })

    agg = combine_agg(ds, ["stype", "arm"], arms,
                      [("k", "count"), ("k", "sum")],
                      named("stype", "arm", "n", "k")).to_pandas()
    piv = agg.pivot_table(index="stype", columns="arm",
                          values=["n", "k"], fill_value=0,
                          aggfunc="sum")
    na = piv[("n", 0)].to_numpy(dtype=np.int64)
    nb = piv[("n", 1)].to_numpy(dtype=np.int64)
    ka = piv[("k", 0)].to_numpy(dtype=np.int64)
    kb = piv[("k", 1)].to_numpy(dtype=np.int64)
    # direction: +1 a wins, -1 b wins, 0 tie (integer cross-multiply)
    d = np.sign(ka * nb - kb * na).astype(np.int64)
    Na, Nb, Ka, Kb = (int(na.sum()), int(nb.sum()),
                      int(ka.sum()), int(kb.sum()))
    pooled = int(np.sign(Ka * Nb - Kb * Na))
    strata = piv.index.to_numpy()
    order = np.argsort(strata)
    return pa.table({
        "stratum": pa.array([str(s) for s in strata[order]],
                            type=pa.string()),
        "n_a": pa.array(na[order]), "k_a": pa.array(ka[order]),
        "n_b": pa.array(nb[order]), "k_b": pa.array(kb[order]),
        "direction": pa.array(d[order]),
        "pooled_direction": pa.array(
            np.full(len(order), pooled, dtype=np.int64)),
        "flips_pooled": pa.array(
            ((d[order] != 0) & (d[order] != pooled))
            .astype(np.int64)),
    })


SIMPSONS_FLIP_SQL = """
WITH e AS (
  SELECT event_type AS stratum,
         CAST(hash(event_id) % 2 AS BIGINT) AS arm,
         CASE WHEN CAST(floor(value * 1000000.0 + 0.5) AS BIGINT)
                   > 100000000 THEN 1 ELSE 0 END AS k
  FROM events
), s AS (
  SELECT stratum,
         CAST(sum(CASE WHEN arm = 0 THEN 1 ELSE 0 END) AS BIGINT)
           AS n_a,
         CAST(sum(CASE WHEN arm = 0 THEN k ELSE 0 END) AS BIGINT)
           AS k_a,
         CAST(sum(CASE WHEN arm = 1 THEN 1 ELSE 0 END) AS BIGINT)
           AS n_b,
         CAST(sum(CASE WHEN arm = 1 THEN k ELSE 0 END) AS BIGINT)
           AS k_b
  FROM e GROUP BY 1
), p AS (
  SELECT CAST(sign(sum(k_a) * sum(n_b) - sum(k_b) * sum(n_a))
              AS BIGINT) AS pooled
  FROM s
)
SELECT s.stratum, s.n_a, s.k_a, s.n_b, s.k_b,
       CAST(sign(s.k_a * s.n_b - s.k_b * s.n_a) AS BIGINT)
         AS direction,
       p.pooled AS pooled_direction,
       CAST(CASE WHEN sign(s.k_a * s.n_b - s.k_b * s.n_a) != 0
                  AND sign(s.k_a * s.n_b - s.k_b * s.n_a) != p.pooled
                 THEN 1 ELSE 0 END AS BIGINT) AS flips_pooled
FROM s CROSS JOIN p ORDER BY 1
"""


def weekend_share_by_priority(sf_dir: str) -> pa.Table:
    """CALENDAR MIX per order priority: order counts and revenue split
    by weekday vs weekend (epoch-day arithmetic: day 0 = Thursday = index 3, so
    weekday = (day + 3) % 7 with Mon = 0, Sat = 5, Sun = 6) -- the staffing /
    batch-window planning cut, exact in integer cents and ppm.

    Scale shape: one streamed (priority, is_weekend) combiner over a
    10-cell domain.
    """
    ds = _read(sf_dir, "orders",
               ["o_orderpriority", "o_orderdate", "o_totalprice"])
    DAY_US = np.int64(86_400_000_000)

    def weekend(t: pa.Table) -> pa.Table:
        us = pc.cast(t["o_orderdate"], pa.int64()).to_numpy(
            zero_copy_only=False)
        wd = (us // DAY_US + 3) % 7
        return pa.table({
            "prio": t["o_orderpriority"],
            "wk": pa.array((wd >= 5).astype(np.int64)),
            "rev": _int_units(t["o_totalprice"], 100),
        })

    agg = combine_agg(ds, ["prio", "wk"], weekend,
                      [("rev", "count"), ("rev", "sum")],
                      named("prio", "wk", "n", "rev")).to_pandas()
    piv = agg.pivot_table(index="prio", columns="wk",
                          values=["n", "rev"], fill_value=0,
                          aggfunc="sum").sort_index()
    nw = piv.get(("n", 0), 0)
    ne = piv.get(("n", 1), 0)
    rw = piv.get(("rev", 0), 0)
    re_ = piv.get(("rev", 1), 0)
    n_wd = np.asarray(nw, dtype=np.int64)
    n_we = np.asarray(ne, dtype=np.int64)
    r_wd = np.asarray(rw, dtype=np.int64)
    r_we = np.asarray(re_, dtype=np.int64)
    tot = n_wd + n_we
    return pa.table({
        "o_orderpriority": pa.array(piv.index.tolist(),
                                    type=pa.string()),
        "n_weekday": pa.array(n_wd),
        "n_weekend": pa.array(n_we),
        "rev_weekday_cents": pa.array(r_wd),
        "rev_weekend_cents": pa.array(r_we),
        "weekend_share_ppm": pa.array(n_we * 1_000_000 // tot),
    })


WEEKEND_SHARE_SQL = """
WITH o AS (
  SELECT o_orderpriority,
         CASE WHEN (CAST(epoch_us(o_orderdate) AS BIGINT)
                    // 86400000000 + 3) % 7 >= 5
              THEN 1 ELSE 0 END AS wk,
         CAST(round(o_totalprice * 100) AS BIGINT) AS rev
  FROM orders
)
SELECT o_orderpriority,
       CAST(sum(CASE WHEN wk = 0 THEN 1 ELSE 0 END) AS BIGINT)
         AS n_weekday,
       CAST(sum(wk) AS BIGINT) AS n_weekend,
       CAST(sum(CASE WHEN wk = 0 THEN rev ELSE 0 END) AS BIGINT)
         AS rev_weekday_cents,
       CAST(sum(CASE WHEN wk = 1 THEN rev ELSE 0 END) AS BIGINT)
         AS rev_weekend_cents,
       CAST(sum(wk) * 1000000 // count(*) AS BIGINT)
         AS weekend_share_ppm
FROM o GROUP BY 1 ORDER BY 1
"""


def quantile_treatment_effect(sf_dir: str) -> pa.Table:
    """QUANTILE TREATMENT EFFECT of the hash-split A/B assignment on
    event value: per decile, the exact per-arm quantile_disc values and
    their difference in micro units -- the distributional readout that
    catches effects a mean comparison hides (tails move, median
    doesn't).

    Scale shape: two grouped histogram-bisection passes share one
    dataflow (arm is the group key); O(deciles) driver fold.
    """
    from ..hashing import murmur64
    from .quantiles import exact_quantiles_grouped
    ds = _read(sf_dir, "events", ["event_id", "value"])

    def staged(t: pa.Table) -> pa.Table:
        ids = t["event_id"].to_numpy(zero_copy_only=False).astype(
            np.int64)
        return pa.table({
            "arm": pa.array((murmur64(ids) % np.uint64(2))
                            .astype(np.int64)),
            "m": _int_units(t["value"], 1_000_000),
        })

    e = ds.map_batches(staged, batch_format="pyarrow",
                       zero_copy_batch=True)
    qs = [d / 10.0 for d in range(1, 10)]
    qt = exact_quantiles_grouped(e, "m", "arm", qs).to_pandas()
    qt = qt.sort_values(["arm", "q"])
    a = qt[qt["arm"] == 0]["value"].to_numpy(dtype=np.int64)
    b = qt[qt["arm"] == 1]["value"].to_numpy(dtype=np.int64)
    return pa.table({
        "decile": pa.array(np.arange(1, 10, dtype=np.int64)),
        "q_arm_a_micro": pa.array(a),
        "q_arm_b_micro": pa.array(b),
        "qte_micro": pa.array(b - a),
    })


QTE_SQL = """
WITH e AS (
  SELECT CAST(hash(event_id) % 2 AS BIGINT) AS arm,
         CAST(floor(value * 1000000.0 + 0.5) AS BIGINT) AS m
  FROM events
), q AS (
  SELECT arm,
         unnest(generate_series(1, 9)) AS decile,
         unnest(quantile_disc(m, [0.1, 0.2, 0.3, 0.4, 0.5,
                                  0.6, 0.7, 0.8, 0.9])) AS v
  FROM e GROUP BY arm
)
SELECT CAST(a.decile AS BIGINT) AS decile,
       CAST(a.v AS BIGINT) AS q_arm_a_micro,
       CAST(b.v AS BIGINT) AS q_arm_b_micro,
       CAST(b.v - a.v AS BIGINT) AS qte_micro
FROM q a JOIN q b ON a.decile = b.decile AND a.arm = 0 AND b.arm = 1
ORDER BY 1
"""


def audience_overlap_matrix(sf_dir: str) -> pa.Table:
    """EXACT AUDIENCE JACCARD MATRIX between event types: for every
    type pair, |users doing both| / |users doing either| in ppm --
    the full overlap picture the pairwise KMV estimate approximates,
    exact here because the per-user TYPE BITMASK folds the whole
    matrix out of a <=2^types-row histogram (association_rules'
    bitmask trick pointed at audience overlap).

    Scale shape: per-user bitmask groupby, bounded mask histogram,
    O(types^2) driver fold -- no per-pair shuffle.
    """
    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    def mask_partial(t: pa.Table) -> pa.Table:
        # per-block distinct (user, type); a per-block bit rank would
        # not be globally stable, so the type NAME rides to the fold
        staged = pa.table({
            "u": pc.cast(t["user_id"], pa.int64()),
            "event_type": t["event_type"],
        })
        return staged.group_by(["u", "event_type"]).aggregate([])

    pairs = ds.map_batches(mask_partial, batch_format="pyarrow",
                           zero_copy_batch=True)

    from ..stages.partition import fit_partitions, partition_by

    mask_empty = pa.table({"mask": pa.array([], type=pa.int64())})
    types_all = sorted(
        pairs.map_batches(
            lambda t: pa.table({"event_type": pc.unique(
                t["event_type"].combine_chunks())}),
            batch_format="pyarrow").to_pandas()["event_type"]
        .unique().tolist())
    bit = {s: i for i, s in enumerate(types_all)}
    bit_ref = ray.put(bit)

    def to_mask(t: pa.Table) -> pa.Table:
        bmap = ray.get(bit_ref)
        u = t["u"].to_numpy(zero_copy_only=False)
        b = np.array([bmap[s] for s in t["event_type"].to_pylist()],
                     dtype=np.int64)
        order = np.argsort(u, kind="stable")
        u_s, b_s = u[order], b[order]
        new = np.ones(u_s.size, dtype=bool)
        new[1:] = u_s[1:] != u_s[:-1]
        grp = np.cumsum(new) - 1
        masks = np.zeros(int(grp[-1]) + 1, dtype=np.int64)
        np.bitwise_or.at(masks, grp, np.int64(1) << b_s)
        return pa.table({"mask": pa.array(masks)})

    hist = combine_agg(partition_by(pairs, ["u"], fit_partitions(16),
                                    to_mask, mask_empty),
                       ["mask"], lambda t: t, [("mask", "count")],
                       named("mask", "n")).to_pandas()
    masks = hist["mask"].to_numpy(dtype=np.int64)
    cnts = hist["n"].to_numpy(dtype=np.int64)
    k = len(types_all)
    out = {c: [] for c in ("type_a", "type_b", "n_both", "n_either",
                           "jaccard_ppm")}
    for i in range(k):
        for j in range(i + 1, k):
            has_i = (masks >> i) & 1 == 1
            has_j = (masks >> j) & 1 == 1
            both = int(cnts[has_i & has_j].sum())
            either = int(cnts[has_i | has_j].sum())
            out["type_a"].append(types_all[i])
            out["type_b"].append(types_all[j])
            out["n_both"].append(both)
            out["n_either"].append(either)
            out["jaccard_ppm"].append(
                both * 1_000_000 // either if either else 0)
    return pa.table({
        "type_a": pa.array(out["type_a"], type=pa.string()),
        "type_b": pa.array(out["type_b"], type=pa.string()),
        "n_both": pa.array(out["n_both"], type=pa.int64()),
        "n_either": pa.array(out["n_either"], type=pa.int64()),
        "jaccard_ppm": pa.array(out["jaccard_ppm"], type=pa.int64()),
    })


AUDIENCE_OVERLAP_SQL = """
WITH ut AS (
  SELECT DISTINCT user_id, event_type FROM events
), t AS (SELECT DISTINCT event_type FROM events),
p AS (
  SELECT a.event_type AS type_a, b.event_type AS type_b
  FROM t a JOIN t b ON a.event_type < b.event_type
), f AS (
  SELECT p.type_a, p.type_b,
         CAST(count(*) FILTER (
           WHERE x.has_a = 1 AND x.has_b = 1) AS BIGINT) AS n_both,
         CAST(count(*) FILTER (
           WHERE x.has_a = 1 OR x.has_b = 1) AS BIGINT) AS n_either
  FROM p CROSS JOIN LATERAL (
    SELECT user_id,
           max(CASE WHEN event_type = p.type_a THEN 1 ELSE 0 END)
             AS has_a,
           max(CASE WHEN event_type = p.type_b THEN 1 ELSE 0 END)
             AS has_b
    FROM ut GROUP BY user_id
  ) x
  GROUP BY 1, 2
)
SELECT type_a, type_b, n_both, n_either,
       CAST(CASE WHEN n_either > 0
                 THEN n_both * 1000000 // n_either
                 ELSE 0 END AS BIGINT) AS jaccard_ppm
FROM f ORDER BY 1, 2
"""


def weight_ess_report(sf_dir: str) -> pa.Table:
    """EFFECTIVE SAMPLE SIZE of value-weighted estimates per event
    type: ESS = (sum w)^2 / sum w^2 (Kish) in exact integer micro
    units -- how many "real" samples a weighted mean is worth, the
    first diagnostic before trusting importance-weighted metrics.

    Scale shape: one streamed (type, sum w, sum w^2, n) combiner.
    """
    ds = _read(sf_dir, "events", ["event_type", "value"])

    def weights(t: pa.Table) -> pa.Table:
        w = _int_units(t["value"], 100).to_numpy(
            zero_copy_only=False)
        return pa.table({"event_type": t["event_type"], "w": w,
                         "ww": w * w})

    agg = (combine_agg(ds, ["event_type"], weights,
                       [("w", "count"), ("w", "sum"), ("ww", "sum")],
                       named("event_type", "n", "sw", "sww"))
           .to_pandas().sort_values("event_type"))
    n = agg["n"].to_numpy(dtype=np.int64)
    sw = agg["sw"].astype(object).to_numpy()
    sww = agg["sww"].astype(object).to_numpy()
    ess = np.array([int(s) * int(s) * 1_000_000 // int(q) if q else 0
                    for s, q in zip(sw, sww)], dtype=object)
    return pa.table({
        "event_type": pa.array(agg["event_type"].tolist(),
                               type=pa.string()),
        "n": pa.array(n),
        "ess_micro": pa.array([int(x) for x in ess],
                              type=pa.int64()),
        "efficiency_ppm": pa.array(
            [int(int(e) // int(nn)) for e, nn in zip(ess, n)],
            type=pa.int64()),
    })


WEIGHT_ESS_SQL = """
WITH e AS (
  SELECT event_type,
         CAST(round(value * 100) AS BIGINT) AS w
  FROM events
), s AS (
  SELECT event_type, CAST(count(*) AS BIGINT) AS n,
         CAST(sum(w) AS HUGEINT) AS sw,
         CAST(sum(CAST(w AS HUGEINT) * w) AS HUGEINT) AS sww
  FROM e GROUP BY 1
)
SELECT event_type, n,
       CAST(sw * sw * 1000000 // sww AS BIGINT) AS ess_micro,
       CAST(sw * sw * 1000000 // sww // n AS BIGINT)
         AS efficiency_ppm
FROM s ORDER BY 1
"""


def ratio_metric_delta(sf_dir: str) -> pa.Table:
    """DELTA-METHOD readout for a RATIO metric (value per event,
    user-clustered) per hash arm: ratio = sum(value)/sum(events) with
    its delta-method variance from per-user moment sums (Deng et al.,
    "Applying the Delta Method in Metric Analytics") -- the correct
    error bar when the unit of randomization (user) differs from the
    unit of the metric (event).  All moments are exact integers; the
    ratio and SE are TWO mirrored doubles.

    Scale shape: per-user (sum, count) combiner -> user groupby ->
    O(1) moment fold per arm.
    """
    from ..hashing import murmur64
    ds = _read(sf_dir, "events", ["user_id", "value"])

    per = combine_agg(
        ds, ["u"],
        lambda t: pa.table({"u": pc.cast(t["user_id"], pa.int64()),
                            "s": _int_units(t["value"], 100)}),
        [("s", "sum"), ("s", "count")], named("u", "s", "n"))

    def moments(t: pa.Table) -> pa.Table:
        u = t["u"].to_numpy(zero_copy_only=False).astype(np.int64)
        s = t["s"].to_numpy(zero_copy_only=False)
        n = t["n"].to_numpy(zero_copy_only=False)
        return pa.table({
            "arm": (murmur64(u) % np.uint64(2)).astype(np.int64),
            "s": s, "n": n, "s2": s * s, "n2": n * n, "sn": s * n})

    agg = (combine_agg(per, ["arm"], moments,
                       [("s", "count")] + [(c, "sum") for c in (
                           "s", "n", "s2", "n2", "sn")],
                       named("arm", "k", "ss", "sn", "sss", "snn", "ssn"))
           .to_pandas().sort_values("arm"))
    out = {c: [] for c in ("arm", "n_users", "ratio_x100",
                           "se_x100")}
    for _, r in agg.iterrows():
        k = int(r["k"]); ss = int(r["ss"]); sn = int(r["sn"])
        sss = int(r["sss"]); snn = int(r["snn"]); ssn = int(r["ssn"])
        # float() BEFORE dividing: mirrors the SQL CAST(x AS DOUBLE)/k
        mu_s = float(ss) / k
        mu_n = float(sn) / k
        var_s = float(sss) / k - mu_s * mu_s
        var_n = float(snn) / k - mu_n * mu_n
        cov = float(ssn) / k - mu_s * mu_n
        ratio = mu_s / mu_n
        var_r = (var_s - 2.0 * ratio * cov
                 + ratio * ratio * var_n) / (mu_n * mu_n) / k
        out["arm"].append(int(r["arm"]))
        out["n_users"].append(k)
        out["ratio_x100"].append(float(ratio))
        out["se_x100"].append(float(np.sqrt(var_r)))
    return pa.table({
        "arm": pa.array(out["arm"], type=pa.int64()),
        "n_users": pa.array(out["n_users"], type=pa.int64()),
        "ratio_x100": pa.array(out["ratio_x100"], type=pa.float64()),
        "se_x100": pa.array(out["se_x100"], type=pa.float64()),
    })


RATIO_DELTA_SQL = """
WITH pu AS (
  SELECT user_id,
         CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS s,
         CAST(count(*) AS BIGINT) AS n
  FROM events GROUP BY 1
), m AS (
  SELECT CAST(hash(user_id) % 2 AS BIGINT) AS arm,
         CAST(count(*) AS BIGINT) AS k,
         CAST(sum(s) AS BIGINT) AS ss,
         CAST(sum(n) AS BIGINT) AS sn,
         CAST(sum(CAST(s AS HUGEINT) * s) AS HUGEINT) AS sss,
         CAST(sum(CAST(n AS HUGEINT) * n) AS HUGEINT) AS snn,
         CAST(sum(CAST(s AS HUGEINT) * n) AS HUGEINT) AS ssn
  FROM pu GROUP BY 1
)
SELECT arm, k AS n_users,
       (CAST(ss AS DOUBLE) / k) / (CAST(sn AS DOUBLE) / k)
         AS ratio_x100,
       sqrt(((CAST(sss AS DOUBLE) / k
              - (CAST(ss AS DOUBLE) / k) * (CAST(ss AS DOUBLE) / k))
             - 2.0 * ((CAST(ss AS DOUBLE) / k)
                      / (CAST(sn AS DOUBLE) / k))
               * (CAST(ssn AS DOUBLE) / k
                  - (CAST(ss AS DOUBLE) / k)
                    * (CAST(sn AS DOUBLE) / k))
             + ((CAST(ss AS DOUBLE) / k) / (CAST(sn AS DOUBLE) / k))
               * ((CAST(ss AS DOUBLE) / k) / (CAST(sn AS DOUBLE) / k))
               * (CAST(snn AS DOUBLE) / k
                  - (CAST(sn AS DOUBLE) / k)
                    * (CAST(sn AS DOUBLE) / k)))
            / ((CAST(sn AS DOUBLE) / k) * (CAST(sn AS DOUBLE) / k))
            / k) AS se_x100
FROM m ORDER BY 1
"""


def cochran_armitage_trend(sf_dir: str) -> pa.Table:
    """COCHRAN-ARMITAGE TREND TEST across the ORDERED order-priority
    strata: does the high-value rate (totalprice above the global
    median) rise or fall monotonically with priority?  The statistic's
    numerator T = sum_i w_i * (k_i * N - K * n_i) and its variance
    numerator are exact integers (weights w_i = priority rank 1..5);
    no float is ever formed.

    Scale shape: one bisection pass for the median, one 5-cell
    combiner, O(strata) driver fold.
    """
    from .quantiles import exact_quantiles
    ds = _read(sf_dir, "orders", ["o_orderpriority", "o_totalprice"])

    def cents(t: pa.Table) -> pa.Table:
        return pa.table({"prio": t["o_orderpriority"],
                         "c": _int_units(t["o_totalprice"], 100)})

    e = ds.map_batches(cents, batch_format="pyarrow",
                       zero_copy_batch=True).materialize()
    med = int(exact_quantiles(e, "c", [0.5])["value"][0].as_py())

    def above(t: pa.Table) -> pa.Table:
        c = t["c"].to_numpy(zero_copy_only=False)
        return pa.table({"prio": t["prio"],
                         "k": pa.array((c > med).astype(np.int64))})

    agg = (combine_agg(e, ["prio"], above, [("k", "count"), ("k", "sum")],
                       named("prio", "n", "k"))
           .to_pandas().sort_values("prio"))
    # weight = leading digit of the priority label ('1-URGENT' -> 1)
    w = np.array([int(str(p)[0]) for p in agg["prio"]],
                 dtype=np.int64)
    n = agg["n"].to_numpy(dtype=np.int64)
    k = agg["k"].to_numpy(dtype=np.int64)
    N, K = int(n.sum()), int(k.sum())
    t_num = int(sum(int(wi) * (int(ki) * N - K * int(ni))
                    for wi, ki, ni in zip(w, k, n)))
    wbar_num = int(sum(int(wi) * int(ni) for wi, ni in zip(w, n)))
    # Var(T) = K*(N-K)*(N*sum(n w^2) - (sum n w)^2) / N^2; the two
    # integer factors are emitted separately (their product overflows
    # int64 at scale) plus ONE mirrored-double z statistic
    w_inner = (N * int(sum(int(ni) * int(wi) ** 2
                           for wi, ni in zip(w, n)))
               - wbar_num * wbar_num)
    kq_nk = K * (N - K)
    z = (np.floor(t_num
                  / np.sqrt(float(kq_nk) * float(w_inner))
                  * float(N) * 1_000_000.0)
         if kq_nk > 0 and w_inner > 0 else 0)
    return pa.table({
        "n_orders": pa.array([N], type=pa.int64()),
        "n_high": pa.array([K], type=pa.int64()),
        "trend_num": pa.array([t_num], type=pa.int64()),
        "kq_nk": pa.array([kq_nk], type=pa.int64()),
        "w_inner": pa.array([w_inner], type=pa.int64()),
        "z_micro": pa.array([int(z)], type=pa.int64()),
    })


COCHRAN_ARMITAGE_SQL = """
WITH med AS (
  SELECT CAST(quantile_disc(
    CAST(round(o_totalprice * 100) AS BIGINT), 0.5) AS BIGINT) AS m
  FROM orders
), s AS (
  SELECT CAST(substr(o_orderpriority, 1, 1) AS BIGINT) AS w,
         CAST(count(*) AS BIGINT) AS n,
         CAST(sum(CASE WHEN CAST(round(o_totalprice * 100) AS BIGINT)
                            > med.m THEN 1 ELSE 0 END) AS BIGINT)
           AS k
  FROM orders CROSS JOIN med GROUP BY 1
), tot AS (
  SELECT CAST(sum(n) AS BIGINT) AS nn, CAST(sum(k) AS BIGINT) AS kk,
         CAST(sum(w * n) AS BIGINT) AS wn,
         CAST(sum(n * w * w) AS BIGINT) AS wwn
  FROM s
)
SELECT tot.nn AS n_orders, tot.kk AS n_high,
       (SELECT CAST(sum(s.w * (s.k * tot.nn - tot.kk * s.n))
                    AS BIGINT) FROM s) AS trend_num,
       CAST(tot.kk * (tot.nn - tot.kk) AS BIGINT) AS kq_nk,
       CAST(tot.nn * tot.wwn - tot.wn * tot.wn AS BIGINT) AS w_inner,
       CAST(CASE WHEN tot.kk * (tot.nn - tot.kk) > 0
                  AND tot.nn * tot.wwn - tot.wn * tot.wn > 0
                 THEN floor(
                   (SELECT CAST(sum(s.w * (s.k * tot.nn
                                           - tot.kk * s.n))
                                AS BIGINT) FROM s)
                   / sqrt(CAST(tot.kk * (tot.nn - tot.kk) AS DOUBLE)
                          * CAST(tot.nn * tot.wwn - tot.wn * tot.wn
                                 AS DOUBLE))
                   * CAST(tot.nn AS DOUBLE) * 1000000.0)
                 ELSE 0 END AS BIGINT) AS z_micro
FROM tot
"""


def mcnemar_filters(sf_dir: str) -> pa.Table:
    """McNEMAR'S PAIRED TEST between two quality filters on the SAME
    documents (filter A: >= 30 tokens; filter B: punct <= 10 per 100
    tokens): the concordant/discordant 2x2 counts and the McNemar
    statistic numerator (b - c)^2 * 1e6 // (b + c) -- the right test
    when comparing two classifiers on one corpus (only disagreements
    carry information).

    Scale shape: one streamed 4-cell combiner.
    """
    from ..functions.text import punct_count, token_count
    ds = _read(sf_dir, "documents", ["text"])

    empty = pa.table({c: pa.array([], type=pa.int64())
                      for c in ("n_both_pass", "only_a", "only_b",
                                "neither")})

    def cells(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        toks = token_count(t["text"]).to_numpy(zero_copy_only=False)
        punct = punct_count(t["text"]).to_numpy(zero_copy_only=False)
        a = toks >= 30
        b = punct * 100 <= toks * 10
        return pa.table({
            "n_both_pass": pa.array([int((a & b).sum())],
                                    type=pa.int64()),
            "only_a": pa.array([int((a & ~b).sum())],
                               type=pa.int64()),
            "only_b": pa.array([int((~a & b).sum())],
                               type=pa.int64()),
            "neither": pa.array([int((~a & ~b).sum())],
                                type=pa.int64()),
        })

    f = ds.map_batches(cells, batch_format="pyarrow",
                       zero_copy_batch=True).to_pandas()
    both = int(f["n_both_pass"].sum())
    oa = int(f["only_a"].sum())
    ob = int(f["only_b"].sum()); nei = int(f["neither"].sum())
    stat = ((oa - ob) ** 2 * 1_000_000 // (oa + ob)
            if oa + ob else 0)
    return pa.table({
        "n_both_pass": pa.array([both], type=pa.int64()),
        "only_a": pa.array([oa], type=pa.int64()),
        "only_b": pa.array([ob], type=pa.int64()),
        "neither": pa.array([nei], type=pa.int64()),
        "mcnemar_x1e6": pa.array([stat], type=pa.int64()),
    })


MCNEMAR_SQL = """
WITH lab AS (
  SELECT length(regexp_extract_all(text, '[A-Za-z0-9]+')) >= 30 AS a,
         length(regexp_extract_all(text, '[.,;:!?]')) * 100
           <= length(regexp_extract_all(text, '[A-Za-z0-9]+')) * 10
           AS b
  FROM documents
), c AS (
  SELECT CAST(sum(CASE WHEN a AND b THEN 1 ELSE 0 END) AS BIGINT)
           AS n_both_pass,
         CAST(sum(CASE WHEN a AND NOT b THEN 1 ELSE 0 END) AS BIGINT)
           AS only_a,
         CAST(sum(CASE WHEN NOT a AND b THEN 1 ELSE 0 END) AS BIGINT)
           AS only_b,
         CAST(sum(CASE WHEN NOT a AND NOT b THEN 1 ELSE 0 END)
              AS BIGINT) AS neither
  FROM lab
)
SELECT n_both_pass, only_a, only_b, neither,
       CAST(CASE WHEN only_a + only_b > 0
                 THEN (only_a - only_b) * (only_a - only_b)
                      * 1000000 // (only_a + only_b)
                 ELSE 0 END AS BIGINT) AS mcnemar_x1e6
FROM c
"""


def order_aging_report(sf_dir: str, bucket_days: int = 30) -> pa.Table:
    """ORDER AGING / BACKLOG REPORT: per order status, how many orders
    fall into each ``bucket_days``-day age bucket measured from the
    corpus's latest order date, with revenue per bucket -- the AR-style
    aging table, exact in integer cents.

    Scale shape: one streamed Max for the anchor, one
    (status, bucket) combiner over a bounded grid.
    """
    ds = _read(sf_dir, "orders",
               ["o_orderstatus", "o_orderdate", "o_totalprice"])
    DAY_US = np.int64(86_400_000_000)

    def days(t: pa.Table) -> pa.Table:
        us = pc.cast(t["o_orderdate"], pa.int64()).to_numpy(
            zero_copy_only=False)
        return pa.table({"status": t["o_orderstatus"],
                         "day": pa.array(us // DAY_US),
                         "rev": _int_units(t["o_totalprice"], 100)})

    e = ds.map_batches(days, batch_format="pyarrow",
                       zero_copy_batch=True).materialize()
    anchor = int(e.max("day"))

    def aged(t: pa.Table) -> pa.Table:
        day = t["day"].to_numpy(zero_copy_only=False)
        return pa.table({
            "status": t["status"],
            "bucket": pa.array(((anchor - day) // bucket_days)
                               .astype(np.int64)),
            "rev": t["rev"],
        })

    agg = (combine_agg(e, ["status", "bucket"], aged,
                       [("rev", "count"), ("rev", "sum")],
                       named("status", "bucket", "n", "rev"))
           .to_pandas().sort_values(["status", "bucket"]))
    return pa.table({
        "o_orderstatus": pa.array(agg["status"].tolist(),
                                  type=pa.string()),
        "age_bucket": pa.array(agg["bucket"].to_numpy(
            dtype=np.int64)),
        "n_orders": pa.array(agg["n"].to_numpy(dtype=np.int64)),
        "rev_cents": pa.array(agg["rev"].to_numpy(dtype=np.int64)),
    })


ORDER_AGING_SQL = """
WITH anc AS (
  SELECT max(CAST(epoch_us(o_orderdate) AS BIGINT) // 86400000000)
           AS a
  FROM orders
)
SELECT o_orderstatus,
       CAST((anc.a - CAST(epoch_us(o_orderdate) AS BIGINT)
             // 86400000000) // 30 AS BIGINT) AS age_bucket,
       CAST(count(*) AS BIGINT) AS n_orders,
       CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT)
         AS rev_cents
FROM orders CROSS JOIN anc
GROUP BY 1, 2 ORDER BY 1, 2
"""


def learned_index_audit(sf_dir: str,
                        n_buckets: int | None = None) -> pa.Table:
    """LEARNED-INDEX ERROR AUDIT (RMI/PGM-style): least-squares fit of
    global rank against the sort key (order total cents, orderkey
    tiebreak) and the worst over-/under-prediction -- the epsilon a
    single-segment learned index would need over this key distribution.
    Moments are exact big integers (per-bucket int64 partials folded as
    Python big ints; HUGEINT in the oracle); the slope/intercept and
    per-row residuals are mirrored doubles with floor binning.

    Scale shape: the global_order_ranks bucket machinery (O(buckets)
    driver state), one moment pass and one residual pass over the
    bucket co-partition.
    """
    from ..stages.partition import fit_partitions, partition_by

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "key": pc.cast(t["o_orderkey"], pa.int64()),
            "x": _int_units(t["o_totalprice"], 100),
        })

    rows = ds.map_batches(prep, batch_format="pyarrow",
                          zero_copy_batch=True).materialize()
    mm = rows.aggregate(Min("x", alias_name="lo"),
                        Max("x", alias_name="hi"))
    lo, hi = int(mm["lo"]), int(mm["hi"])
    nb = n_buckets or fit_partitions(32)
    width = max(1, (hi - lo + nb) // nb)

    def bucketed(t: pa.Table) -> pa.Table:
        x = t["x"].to_numpy(zero_copy_only=False)
        b = np.minimum((x - lo) // width, nb - 1)
        return t.append_column("b", pa.array(b.astype(np.int64)))

    bt = rows.map_batches(bucketed, batch_format="pyarrow",
                          zero_copy_batch=True).materialize()
    counts = combine_agg(bt, ["b"], lambda t: t.select(["b"]),
                         [("b", "count")], named("b", "n")).to_pandas()
    per_bucket = np.zeros(nb, dtype=np.int64)
    per_bucket[counts["b"].to_numpy(dtype=np.int64)] = \
        counts["n"].to_numpy(dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(per_bucket)[:-1]])
    off_ref = ray.put(offsets)
    n = int(per_bucket.sum())

    mom_empty = pa.table({c: pa.array([], type=pa.int64())
                          for c in ("b", "sxy", "sx", "sxx_hi",
                                    "sxx_lo")})

    def moments(t: pa.Table) -> pa.Table:
        offs = ray.get(off_ref)
        b = t["b"].to_numpy(zero_copy_only=False)
        x = t["x"].to_numpy(zero_copy_only=False)
        k = t["key"].to_numpy(zero_copy_only=False)
        order = np.lexsort((k, x, b))
        b_s, x_s = b[order], x[order]
        new = np.ones(b_s.size, dtype=bool)
        new[1:] = b_s[1:] != b_s[:-1]
        starts = np.flatnonzero(new)
        rlen = np.diff(np.append(starts, b_s.size))
        local = np.arange(b_s.size) - np.repeat(starts, rlen)
        y = offs[b_s] + local
        rows_out = {c: [] for c in ("b", "sxy", "sx", "sxx_hi",
                                    "sxx_lo")}
        for s, ln in zip(starts.tolist(), rlen.tolist()):
            xx = x_s[s:s + ln].astype(object)
            yy = y[s:s + ln].astype(object)
            sxy = int((xx * yy).sum())
            sxx = int((xx * xx).sum())
            rows_out["b"].append(int(b_s[s]))
            rows_out["sxy"].append(sxy)
            rows_out["sx"].append(int(xx.sum()))
            rows_out["sxx_hi"].append(sxx >> 60)
            rows_out["sxx_lo"].append(sxx & ((1 << 60) - 1))
        return pa.table({c: pa.array(v, type=pa.int64())
                         for c, v in rows_out.items()})

    mom = partition_by(bt, ["b"], fit_partitions(16), moments,
                       mom_empty).to_pandas()
    sxy = int(sum(int(v) for v in mom["sxy"]))
    sx = int(sum(int(v) for v in mom["sx"]))
    sxx = int(sum((int(h) << 60) + int(l)
                  for h, l in zip(mom["sxx_hi"], mom["sxx_lo"])))
    sy = n * (n - 1) // 2
    bn = n * sxy - sx * sy
    bd = n * sxx - sx * sx
    slope = float(bn) / float(bd) if bd else 0.0
    a = (float(sy) - slope * float(sx)) / float(n)
    coef_ref = ray.put((a, slope))

    res_empty = pa.table({"over": pa.array([], type=pa.int64()),
                          "under": pa.array([], type=pa.int64())})

    def residuals(t: pa.Table) -> pa.Table:
        offs = ray.get(off_ref)
        aa, bb = ray.get(coef_ref)
        b = t["b"].to_numpy(zero_copy_only=False)
        x = t["x"].to_numpy(zero_copy_only=False)
        k = t["key"].to_numpy(zero_copy_only=False)
        order = np.lexsort((k, x, b))
        b_s, x_s = b[order], x[order]
        new = np.ones(b_s.size, dtype=bool)
        new[1:] = b_s[1:] != b_s[:-1]
        starts = np.flatnonzero(new)
        rlen = np.diff(np.append(starts, b_s.size))
        local = np.arange(b_s.size) - np.repeat(starts, rlen)
        y = (offs[b_s] + local).astype(np.float64)
        fr = np.floor(y - (aa + bb * x_s.astype(np.float64)))
        return pa.table({
            "over": pa.array([int(fr.max())], type=pa.int64()),
            "under": pa.array([int(fr.min())], type=pa.int64())})

    res = partition_by(bt, ["b"], fit_partitions(16), residuals,
                       res_empty).to_pandas()
    return pa.table({
        "n_rows": pa.array([n], type=pa.int64()),
        "slope_pico": pa.array([int(np.floor(slope * 1e12))],
                               type=pa.int64()),
        "max_over_resid": pa.array([int(res["over"].max())],
                                   type=pa.int64()),
        "max_under_resid": pa.array([int(res["under"].min())],
                                    type=pa.int64()),
    })


LEARNED_INDEX_SQL = """
WITH e AS (
  SELECT CAST(round(o_totalprice * 100) AS BIGINT) AS x,
         o_orderkey AS k
  FROM orders
), r AS (
  SELECT x,
         CAST(row_number() OVER (ORDER BY x, k) - 1 AS BIGINT) AS y
  FROM e
), m AS (
  SELECT CAST(count(*) AS HUGEINT) AS n,
         CAST(sum(x) AS HUGEINT) AS sx,
         CAST(sum(CAST(x AS HUGEINT) * x) AS HUGEINT) AS sxx,
         CAST(sum(CAST(x AS HUGEINT) * y) AS HUGEINT) AS sxy,
         CAST(sum(y) AS HUGEINT) AS sy
  FROM r
), c AS (
  SELECT CAST(n AS BIGINT) AS nn,
         CAST(n * sxy - sx * sy AS DOUBLE)
           / CAST(n * sxx - sx * sx AS DOUBLE) AS b,
         (CAST(sy AS DOUBLE)
          - (CAST(n * sxy - sx * sy AS DOUBLE)
             / CAST(n * sxx - sx * sx AS DOUBLE))
            * CAST(sx AS DOUBLE)) / CAST(n AS DOUBLE) AS a
  FROM m
), resid AS (
  SELECT floor(r.y - (c.a + c.b * r.x)) AS fr FROM r CROSS JOIN c
)
SELECT c.nn AS n_rows,
       CAST(floor(c.b * 1e12) AS BIGINT) AS slope_pico,
       CAST((SELECT max(fr) FROM resid) AS BIGINT) AS max_over_resid,
       CAST((SELECT min(fr) FROM resid) AS BIGINT) AS max_under_resid
FROM c
"""


def negative_sampling_audit(sf_dir: str) -> pa.Table:
    """NEGATIVE-SAMPLING AUDIT for contrastive training: each vector's
    deterministic "random" negative is vec_id' = murmur(vec_id) % N;
    per label, how often that negative is a FALSE negative (same
    label) -- the collision-rate table that decides whether in-batch
    negatives need label filtering.  Hash parity makes the sample
    replicable in SQL.

    Scale shape: the (vec_id -> label) map is broadcast once (the
    embeddings table is the bounded side by design); the audit is one
    streaming map + bounded label fold.
    """
    from ..hashing import murmur64
    ds = _read(sf_dir, "embeddings", ["vec_id", "label"])
    lab_t = ds.to_pandas().sort_values("vec_id")
    labels = lab_t["label"].to_numpy(dtype=np.int64)
    n = len(labels)
    lab_ref = ray.put(labels)

    def audit(t: pa.Table) -> pa.Table:
        lab = ray.get(lab_ref)
        vid = t["vec_id"].to_numpy(zero_copy_only=False).astype(
            np.int64)
        own = t["label"].to_numpy(zero_copy_only=False).astype(
            np.int64)
        neg = (murmur64(vid) % np.uint64(n)).astype(np.int64)
        return pa.table({"label": pa.array(own),
                         "fn": pa.array((lab[neg] == own).astype(np.int64))})

    agg = (combine_agg(ds, ["label"], audit, [("fn", "count"), ("fn", "sum")],
                       named("label", "n", "n_false_neg"))
           .to_pandas().sort_values("label"))
    nn = agg["n"].to_numpy(dtype=np.int64)
    fn = agg["n_false_neg"].to_numpy(dtype=np.int64)
    return pa.table({
        "label": pa.array(agg["label"].to_numpy(dtype=np.int64)),
        "n": pa.array(nn),
        "n_false_neg": pa.array(fn),
        "false_neg_ppm": pa.array(fn * 1_000_000 // nn),
    })


NEGATIVE_SAMPLING_SQL = """
WITH n AS (SELECT CAST(count(*) AS BIGINT) AS c FROM embeddings),
a AS (
  SELECT e.label AS label,
         CASE WHEN neg.label = e.label THEN 1 ELSE 0 END AS fn
  FROM embeddings e CROSS JOIN n
  JOIN embeddings neg
    ON neg.vec_id = CAST(hash(e.vec_id) % n.c AS BIGINT)
)
SELECT CAST(label AS BIGINT) AS label,
       CAST(count(*) AS BIGINT) AS n,
       CAST(sum(fn) AS BIGINT) AS n_false_neg,
       CAST(sum(fn) * 1000000 // count(*) AS BIGINT)
         AS false_neg_ppm
FROM a GROUP BY 1 ORDER BY 1
"""


def lang_entropy_by_source(sf_dir: str) -> pa.Table:
    """LANGUAGE-MIX ENTROPY per source: how multilingual each feed is,
    as Shannon entropy of its language distribution in exact micro-nats
    (per-term floor((c/n)*ln(n/c)*1e6), the mirrored ln-parity
    pattern) plus doc and language counts -- the routing signal for
    language-specific downstream stages.

    Scale shape: one (source, lang) count combiner over a bounded
    domain, O(sources x langs) driver fold.
    """
    ds = _read(sf_dir, "documents", ["source", "lang"])
    agg = combine_agg(ds, ["source", "lang"], lambda t: t,
                      [("lang", "count")],
                      named("source", "lang", "n")).to_pandas()
    out = {c: [] for c in ("source", "n_docs", "n_langs",
                           "entropy_micronats")}
    for src, g in agg.groupby("source", sort=True):
        c = g["n"].to_numpy(dtype=np.int64).astype(np.float64)
        n = float(c.sum())
        terms = np.floor((c / n) * np.log(n / c) * 1_000_000.0)
        out["source"].append(src)
        out["n_docs"].append(int(n))
        out["n_langs"].append(len(c))
        out["entropy_micronats"].append(int(terms.sum()))
    return pa.table({
        "source": pa.array(out["source"], type=pa.string()),
        "n_docs": pa.array(out["n_docs"], type=pa.int64()),
        "n_langs": pa.array(out["n_langs"], type=pa.int64()),
        "entropy_micronats": pa.array(out["entropy_micronats"],
                                      type=pa.int64()),
    })


LANG_ENTROPY_SQL = """
WITH c AS (
  SELECT source, lang, CAST(count(*) AS BIGINT) AS n
  FROM documents GROUP BY 1, 2
), t AS (
  SELECT source, CAST(sum(n) AS BIGINT) AS tot,
         CAST(count(*) AS BIGINT) AS n_langs
  FROM c GROUP BY 1
)
SELECT c.source, t.tot AS n_docs, t.n_langs,
       CAST(sum(CAST(floor((CAST(c.n AS DOUBLE)
                            / CAST(t.tot AS DOUBLE))
                           * ln(CAST(t.tot AS DOUBLE)
                                / CAST(c.n AS DOUBLE))
                           * 1000000.0) AS BIGINT)) AS BIGINT)
         AS entropy_micronats
FROM c JOIN t USING (source)
GROUP BY 1, 2, 3 ORDER BY 1
"""


def embedding_isotropy_report(sf_dir: str) -> pa.Table:
    """EMBEDDING ISOTROPY / MEAN-VECTOR BIAS per label and globally:
    anisotropy_ppm = 1e6 * ||sum x||^2 / (n * sum ||x||^2) -- 0 for a
    perfectly centered cloud, 1e6 when all vectors are identical (the
    "your embeddings collapsed" alarm).  Exact: milli-quantized
    integer sums make both numerator and denominator big integers; the
    only division is the final integer ppm.

    Scale shape: per-block (label, dim) partials of the component sum,
    row count and per-vector sum-sq (bounded by labels x dims), one
    small groupby, O(labels) fold.
    """
    from ..functions.vectors import list_to_matrix
    ds = _read(sf_dir, "embeddings", ["embedding", "label"])

    def components(t: pa.Table) -> pa.Table:
        """One row per (vector, dim), the vector's sum-sq on each."""
        if t.num_rows == 0:
            return pa.table({c: pa.array([], type=pa.int64())
                             for c in ("label", "dim", "s", "qq")})
        q = np.floor(list_to_matrix(t["embedding"]) * 1000.0) \
            .astype(np.int64)
        lab = t["label"].to_numpy(zero_copy_only=False).astype(
            np.int64)
        n, d = q.shape
        return pa.table({
            "label": np.repeat(lab, d),
            "dim": np.tile(np.arange(d, dtype=np.int64), n),
            "s": q.ravel(),
            "qq": np.repeat((q * q).sum(axis=1), d),
        })

    agg = (combine_agg(ds, ["label", "dim"], components,
                       [("s", "sum"), ("s", "count"), ("qq", "sum")],
                       named("label", "dim", "s", "n", "qq"))
           .to_pandas().sort_values(["label", "dim"]))
    out = {c: [] for c in ("label", "n", "anisotropy_ppm")}
    d_count = int(agg["dim"].max()) + 1
    g_s = None
    g_n = 0
    g_qq = 0
    for lb, g in agg.groupby("label", sort=True):
        s = g.sort_values("dim")["s"].astype(object).to_numpy()
        n = int(g["n"].iloc[0])
        # qq was repeated per dim by the combiner: any dim's sum over
        # blocks is the label total
        qq = int(g["qq"].iloc[0])
        num = int((s * s).sum()) * 1_000_000
        den = n * qq
        out["label"].append(int(lb))
        out["n"].append(n)
        out["anisotropy_ppm"].append(num // den if den else 0)
        g_s = s if g_s is None else g_s + s
        g_n += n
        g_qq += qq
    out["label"].append(-1)     # global row
    out["n"].append(g_n)
    gnum = int((g_s * g_s).sum()) * 1_000_000
    out["anisotropy_ppm"].append(gnum // (g_n * g_qq)
                                 if g_n * g_qq else 0)
    return pa.table({
        "label": pa.array(out["label"], type=pa.int64()),
        "n": pa.array(out["n"], type=pa.int64()),
        "anisotropy_ppm": pa.array(out["anisotropy_ppm"],
                                   type=pa.int64()),
    })


EMBEDDING_ISOTROPY_SQL = """
WITH q AS (
  SELECT label,
         list_transform(embedding,
                        x -> CAST(floor(x * 1000.0) AS BIGINT)) AS qv
  FROM embeddings
), e AS (
  SELECT label, unnest(qv) AS v,
         unnest(generate_series(1, len(qv))) AS dim
  FROM q
), s AS (
  SELECT label, dim, CAST(sum(v) AS HUGEINT) AS s
  FROM e GROUP BY 1, 2
), nq AS (
  SELECT label, CAST(count(*) AS HUGEINT) AS n,
         CAST(sum(CAST(list_inner_product(qv, qv) AS HUGEINT))
              AS HUGEINT) AS qq
  FROM q GROUP BY 1
), per AS (
  SELECT s.label,
         CAST(sum(s.s * s.s) AS HUGEINT) AS num
  FROM s GROUP BY 1
), lab AS (
  SELECT CAST(per.label AS BIGINT) AS label,
         CAST(nq.n AS BIGINT) AS n,
         CAST(per.num * 1000000 // (nq.n * nq.qq) AS BIGINT)
           AS anisotropy_ppm
  FROM per JOIN nq USING (label)
), gbl AS (
  SELECT CAST(-1 AS BIGINT) AS label,
         CAST((SELECT sum(n) FROM nq) AS BIGINT) AS n,
         CAST((SELECT CAST(sum(gs * gs) AS HUGEINT) FROM (
                 SELECT CAST(sum(s) AS HUGEINT) AS gs
                 FROM s GROUP BY dim)) * 1000000
              // ((SELECT sum(n) FROM nq)
                  * (SELECT sum(qq) FROM nq)) AS BIGINT)
           AS anisotropy_ppm
)
SELECT * FROM lab UNION ALL SELECT * FROM gbl ORDER BY label
"""


def fair_mass_by_source(sf_dir: str) -> pa.Table:
    """DUPLICATION-FAIR MASS per source: every document contributes
    1e6 // (size of its exact-duplicate cluster) micro-docs, so a text
    mirrored across feeds is counted once in total -- the "effective
    unique contribution" ranking that raw doc counts overstate for
    heavy mirrors.  Cluster sizes by md5 content hash (oracle tier).

    Scale shape: distinct (hash, source, copies) combiner, hash
    co-partition to attach cluster sizes, (source) fold.
    """
    from ..hashing import md5_uint64
    from ..stages.partition import fit_partitions, partition_by

    ds = _read(sf_dir, "documents", ["text", "source"])

    empty = pa.table({"h": pa.array([], type=pa.int64()),
                      "source": pa.array([], type=pa.string()),
                      "copies": pa.array([], type=pa.int64())})

    def mems(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        h = md5_uint64(t["text"].combine_chunks()).view(np.int64)
        staged = pa.table({"h": pa.array(h), "source": t["source"],
                           "copies": pa.array(
                               np.ones(t.num_rows, dtype=np.int64))})
        g = staged.group_by(["h", "source"]).aggregate(
            [("copies", "sum")])
        return pa.table({"h": g["h"], "source": g["source"],
                         "copies": pc.cast(g["copies_sum"],
                                           pa.int64())})

    out_empty = pa.table({"source": pa.array([], type=pa.string()),
                          "copies": pa.array([], type=pa.int64()),
                          "fair": pa.array([], type=pa.int64())})

    def attach(t: pa.Table) -> pa.Table:
        h = t["h"].to_numpy(zero_copy_only=False)
        src = np.asarray(t["source"].to_pylist(), dtype=np.str_)
        cp = t["copies"].to_numpy(zero_copy_only=False)
        order = np.lexsort((src, h))
        h, src, cp = h[order], src[order], cp[order]
        # fold duplicate (h, source) rows from different blocks
        keep = np.ones(h.size, dtype=bool)
        keep[1:] = (h[1:] != h[:-1]) | (src[1:] != src[:-1])
        grp = np.cumsum(keep) - 1
        cp_f = np.zeros(int(grp[-1]) + 1 if h.size else 0,
                        dtype=np.int64)
        np.add.at(cp_f, grp, cp)
        h_f, src_f = h[keep], src[keep]
        new = np.ones(h_f.size, dtype=bool)
        new[1:] = h_f[1:] != h_f[:-1]
        starts = np.flatnonzero(new)
        rlen = np.diff(np.append(starts, h_f.size))
        cluster = np.zeros(h_f.size, dtype=np.int64)
        totals = np.add.reduceat(cp_f, starts) if h_f.size else \
            np.array([], dtype=np.int64)
        cluster = np.repeat(totals, rlen)
        return pa.table({"source": pa.array(src_f.tolist(),
                                            type=pa.string()),
                         "copies": pa.array(cp_f),
                         "fair": pa.array(cp_f * (1_000_000 // cluster))})

    mem = ds.map_batches(mems, batch_format="pyarrow",
                         zero_copy_batch=True)
    agg = (combine_agg(partition_by(mem, ["h"], fit_partitions(16), attach,
                                    out_empty),
                       ["source"], lambda t: t,
                       [("copies", "sum"), ("fair", "sum")],
                       named("source", "n_docs", "fair_micro"))
           .to_pandas().sort_values("source"))
    return pa.table({
        "source": pa.array(agg["source"].tolist(), type=pa.string()),
        "n_docs": pa.array(agg["n_docs"].to_numpy(dtype=np.int64)),
        "fair_micro": pa.array(agg["fair_micro"].to_numpy(
            dtype=np.int64)),
    })


FAIR_MASS_SQL = """
WITH d AS (
  SELECT md5(text) AS h, source FROM documents
), cl AS (
  SELECT h, CAST(count(*) AS BIGINT) AS cluster FROM d GROUP BY 1
)
SELECT d.source,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(1000000 // cl.cluster) AS BIGINT) AS fair_micro
FROM d JOIN cl USING (h)
GROUP BY 1 ORDER BY 1
"""


def segment_priority_cramers_v(sf_dir: str) -> pa.Table:
    """CROSS-TABLE ASSOCIATION STRENGTH: the chi-square statistic and
    Cramer's V between customer market segment and order priority --
    a contingency audit that needs a distributed customer-order join
    before the (5 x 5) table even exists.  Chi2 terms are mirrored
    doubles from exact integer counts; V is one final sqrt.

    Scale shape: orders collapse to (custkey, priority, n) partials;
    customers ship (custkey, segment); both co-partition on custkey;
    the bounded (segment, priority) table folds on the driver.
    """
    from ..stages.partition import fit_partitions, partition_by

    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])

    def o_prep(t: pa.Table) -> pa.Table:
        staged = pa.table({
            "key": pc.cast(t["o_custkey"], pa.int64()),
            "attr": t["o_orderpriority"],
            "n": pa.array(np.ones(t.num_rows, dtype=np.int64)),
            "side": pa.array(np.ones(t.num_rows, dtype=np.int64)),
        })
        g = staged.group_by(["key", "attr", "side"]).aggregate(
            [("n", "sum")])
        return pa.table({"key": g["key"], "attr": g["attr"],
                         "side": g["side"],
                         "n": pc.cast(g["n_sum"], pa.int64())})

    def c_prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "key": pc.cast(t["c_custkey"], pa.int64()),
            "attr": t["c_mktsegment"],
            "side": pa.array(np.zeros(t.num_rows, dtype=np.int64)),
            "n": pa.array(np.ones(t.num_rows, dtype=np.int64)),
        })

    both = (orders.map_batches(o_prep, batch_format="pyarrow",
                               zero_copy_batch=True)
            .union(cust.map_batches(c_prep, batch_format="pyarrow",
                                    zero_copy_batch=True)))

    empty = pa.table({"seg": pa.array([], type=pa.string()),
                      "prio": pa.array([], type=pa.string()),
                      "n": pa.array([], type=pa.int64())})

    def resolve(t: pa.Table) -> pa.Table:
        """Each order partial's (segment, priority, n)."""
        key = t["key"].to_numpy(zero_copy_only=False)
        side = t["side"].to_numpy(zero_copy_only=False)
        n = t["n"].to_numpy(zero_copy_only=False)
        attr = np.asarray(t["attr"].to_pylist(), dtype=np.str_)
        ck, cs = key[side == 0], attr[side == 0]
        order = np.argsort(ck)
        ck, cs = ck[order], cs[order]
        ok_, oa, on = key[side == 1], attr[side == 1], n[side == 1]
        pos = np.searchsorted(ck, ok_)
        seg = cs[np.minimum(pos, ck.size - 1)] if ck.size else \
            np.array([], dtype=np.str_)
        return pa.table({"seg": pa.array(seg.tolist(), type=pa.string()),
                         "prio": pa.array(oa.tolist(), type=pa.string()),
                         "n": pa.array(on)})

    agg = combine_agg(partition_by(both, ["key"], fit_partitions(16),
                                   resolve, empty),
                      ["seg", "prio"], lambda t: t, [("n", "sum")],
                      named("seg", "prio", "n")).to_pandas()
    piv = agg.pivot_table(index="seg", columns="prio", values="n",
                          fill_value=0, aggfunc="sum")
    obs = piv.to_numpy(dtype=np.int64)
    N = int(obs.sum())
    rows = obs.sum(axis=1)
    cols = obs.sum(axis=0)
    # chi2 as a SUM OF PER-CELL FLOORED INTEGER TERMS (exact on both
    # sides -- a float sum's association order would not hash-match):
    # term = 1e6 * (o*N - r*c)^2 // (r*c*N)
    chi2_micro = 0
    for i in range(obs.shape[0]):
        for j in range(obs.shape[1]):
            r, c = int(rows[i]), int(cols[j])
            o = int(obs[i, j])
            num = (o * N - r * c) ** 2 * 1_000_000
            chi2_micro += num // (r * c * N)
    kmin = min(obs.shape[0], obs.shape[1]) - 1
    v = np.sqrt(float(chi2_micro) / 1_000_000.0
                / (float(N) * kmin))
    return pa.table({
        "n_orders": pa.array([N], type=pa.int64()),
        "n_cells": pa.array([obs.size], type=pa.int64()),
        "chi2_micro": pa.array([chi2_micro], type=pa.int64()),
        "cramers_v_ppm": pa.array([int(np.floor(v * 1_000_000.0))],
                                  type=pa.int64()),
    })


SEGMENT_PRIORITY_CRAMERS_SQL = """
WITH j AS (
  SELECT c.c_mktsegment AS seg, o.o_orderpriority AS prio,
         CAST(count(*) AS BIGINT) AS n
  FROM orders o JOIN customer c ON c.c_custkey = o.o_custkey
  GROUP BY 1, 2
), tot AS (SELECT CAST(sum(n) AS BIGINT) AS nn FROM j),
r AS (SELECT seg, CAST(sum(n) AS BIGINT) AS rn FROM j GROUP BY 1),
c AS (SELECT prio, CAST(sum(n) AS BIGINT) AS cn FROM j GROUP BY 1),
grid AS (
  SELECT r.seg, c.prio, r.rn, c.cn,
         COALESCE(j.n, 0) AS o
  FROM r CROSS JOIN c
  LEFT JOIN j ON j.seg = r.seg AND j.prio = c.prio
  CROSS JOIN tot
), chi AS (
  SELECT CAST(sum(
           CAST(CAST(o AS HUGEINT) * tot.nn - CAST(rn AS HUGEINT)
                * cn AS HUGEINT)
           * CAST(CAST(o AS HUGEINT) * tot.nn - CAST(rn AS HUGEINT)
                  * cn AS HUGEINT)
           * 1000000
           // (CAST(rn AS HUGEINT) * cn * tot.nn)) AS BIGINT)
           AS chi2_micro,
         CAST(count(*) AS BIGINT) AS cells,
         least((SELECT count(*) FROM r),
               (SELECT count(*) FROM c)) - 1 AS kmin
  FROM grid CROSS JOIN tot GROUP BY kmin
)
SELECT tot.nn AS n_orders, chi.cells AS n_cells, chi.chi2_micro,
       CAST(floor(sqrt(CAST(chi.chi2_micro AS DOUBLE) / 1000000.0
                       / (CAST(tot.nn AS DOUBLE) * chi.kmin))
                  * 1000000.0) AS BIGINT) AS cramers_v_ppm
FROM chi CROSS JOIN tot
"""


def median_of_means_value(sf_dir: str, k_groups: int = 15) -> pa.Table:
    """MEDIAN-OF-MEANS robust mean estimator for event value: rows are
    hash-assigned to ``k_groups`` buckets, each bucket's mean is an
    exact floored micro-unit integer, and the estimate is the
    quantile_disc median of those k integers -- the heavy-tail-immune
    mean with sub-Gaussian concentration, reported beside the plain
    mean so the distortion is visible.

    Scale shape: one streamed (group, sum, n) combiner; O(k) fold.
    """
    from ..hashing import murmur64
    ds = _read(sf_dir, "events", ["event_id", "value"])
    K = int(k_groups)

    def grouped(t: pa.Table) -> pa.Table:
        ids = t["event_id"].to_numpy(zero_copy_only=False).astype(
            np.int64)
        return pa.table({
            "g": (murmur64(ids) % np.uint64(K)).astype(np.int64),
            "m": _int_units(t["value"], 1_000_000)})

    agg = (combine_agg(ds, ["g"], grouped, [("m", "sum"), ("m", "count")],
                       named("g", "s", "n"))
           .to_pandas().sort_values("g"))
    s = agg["s"].to_numpy(dtype=np.int64)
    n = agg["n"].to_numpy(dtype=np.int64)
    # s is already in micro units, so each group mean is s // n
    means = np.array([int(si) // int(ni) if ni else 0
                      for si, ni in zip(s, n)], dtype=np.int64)
    srt = np.sort(means)
    mom = int(srt[max(0, -(-K // 2) - 1)])
    stot, ntot = int(s.sum()), int(n.sum())
    return pa.table({
        "k_groups": pa.array([K], type=pa.int64()),
        "plain_mean_micro": pa.array([stot // ntot], type=pa.int64()),
        "mom_micro": pa.array([mom], type=pa.int64()),
    })


MEDIAN_OF_MEANS_SQL = """
WITH g AS (
  SELECT CAST(hash(event_id) % 15 AS BIGINT) AS g,
         CAST(sum(CAST(floor(value * 1000000.0 + 0.5) AS BIGINT))
              AS BIGINT) AS s,
         CAST(count(*) AS BIGINT) AS n
  FROM events GROUP BY 1
), m AS (SELECT g, CAST(s // n AS BIGINT) AS mean_micro FROM g),
t AS (SELECT CAST(sum(s) AS BIGINT) AS st,
             CAST(sum(n) AS BIGINT) AS nt FROM g)
SELECT CAST(15 AS BIGINT) AS k_groups,
       CAST(t.st // t.nt AS BIGINT) AS plain_mean_micro,
       CAST((SELECT quantile_disc(mean_micro, 0.5) FROM m) AS BIGINT)
         AS mom_micro
FROM t
"""


def hourweek_profile(sf_dir: str) -> pa.Table:
    """HOUR-OF-WEEK LOAD PROFILE: the 7x24 event-count matrix (epoch
    day 0 = Thursday = weekday index 3, Mon = 0) with each cell's
    share in ppm -- the capacity-planning heatmap behind batch-window
    placement, exact integers.

    Scale shape: one streamed 168-cell grouped count.
    """
    ds = _read(sf_dir, "events", ["ts"])
    HOUR_US = np.int64(3_600_000_000)

    def cells(t: pa.Table) -> pa.Table:
        us = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        hour_abs = us // HOUR_US
        dow = (hour_abs // 24 + 3) % 7
        return pa.table({"cell": dow * 24 + hour_abs % 24})

    agg = combine_agg(ds, ["cell"], cells, [("cell", "count")],
                      named("cell", "n")).to_pandas()
    n = np.zeros(168, dtype=np.int64)
    n[agg["cell"].to_numpy(dtype=np.int64)] = \
        agg["n"].to_numpy(dtype=np.int64)
    tot = int(n.sum())
    cells = np.arange(168, dtype=np.int64)
    return pa.table({
        "dow": pa.array(cells // 24),
        "hour": pa.array(cells % 24),
        "n": pa.array(n),
        "share_ppm": pa.array(n * 1_000_000 // tot),
    })


HOURWEEK_PROFILE_SQL = """
WITH e AS (
  SELECT CAST(epoch_us(ts) AS BIGINT) // 3600000000 AS hour_abs
  FROM events
), c AS (
  SELECT (hour_abs // 24 + 3) % 7 AS dow, hour_abs % 24 AS hour,
         CAST(count(*) AS BIGINT) AS n
  FROM e GROUP BY 1, 2
), grid AS (
  SELECT d.d AS dow, h.h AS hour
  FROM (SELECT unnest(generate_series(0, 6)) AS d) d
  CROSS JOIN (SELECT unnest(generate_series(0, 23)) AS h) h
), t AS (SELECT CAST(sum(n) AS BIGINT) AS tot FROM c)
SELECT CAST(grid.dow AS BIGINT) AS dow,
       CAST(grid.hour AS BIGINT) AS hour,
       CAST(COALESCE(c.n, 0) AS BIGINT) AS n,
       CAST(COALESCE(c.n, 0) * 1000000 // t.tot AS BIGINT)
         AS share_ppm
FROM grid LEFT JOIN c ON c.dow = grid.dow AND c.hour = grid.hour
CROSS JOIN t
ORDER BY 1, 2
"""


def lexical_sophistication_by_source(sf_dir: str) -> pa.Table:
    """LEXICAL SOPHISTICATION per source: the mean GLOBAL frequency
    rank of the tokens a source actually uses (occurrence-weighted;
    rank 0 = the corpus's most common token) -- boilerplate feeds skew
    low, technical feeds skew high.  Exact integers via a broadcast
    rarity-rank map over the bounded vocabulary.

    Scale shape: one vocabulary groupby builds the rank map, broadcast
    as TWO int64 numpy arrays (sorted token fingerprints + aligned
    ranks, 16 bytes/token -- never a Python dict, VERDICT r3 item 1);
    one streamed (source, sum-rank, n) combiner probes it with one
    vectorized searchsorted per batch (no per-token Python).
    """
    from ..functions.text import token_value_arrays, token_value_lookup
    docs = _read(sf_dir, "documents", ["source", "text"])
    freq = combine_agg(docs, ["tok"], _tokens, [("tok", "count")],
                       named("tok", "n")).to_pandas()
    toks_all = freq["tok"].to_numpy()
    nf = freq["n"].to_numpy(dtype=np.int64)
    order = np.lexsort((toks_all, -nf))     # most frequent first
    ranks = np.empty(order.shape[0], dtype=np.int64)
    ranks[order] = np.arange(order.shape[0], dtype=np.int64)
    rank_ref = ray.put(token_value_arrays(
        pa.array(toks_all, type=pa.string()), ranks))

    def token_ranks(t: pa.Table) -> pa.Table:
        fp_sorted, rank_vals = ray.get(rank_ref)
        tok = _tokens(t, "source")
        return pa.table({"source": tok["source"],
                         "rank": token_value_lookup(fp_sorted, rank_vals,
                                                    tok["tok"])})

    agg = (combine_agg(docs, ["source"], token_ranks,
                       [("rank", "sum"), ("rank", "count")],
                       named("source", "sum_rank", "n_tokens"))
           .to_pandas().sort_values("source"))
    sr = agg["sum_rank"].to_numpy(dtype=np.int64)
    nt = agg["n_tokens"].to_numpy(dtype=np.int64)
    return pa.table({
        "source": pa.array(agg["source"].tolist(), type=pa.string()),
        "n_tokens": pa.array(nt),
        "mean_rank_micro": pa.array(sr * 1_000_000 // nt),
    })


LEXICAL_SOPHISTICATION_SQL = """
WITH toks AS (
  SELECT source, unnest(string_split(text, ' ')) AS tok
  FROM documents
), freq AS (
  SELECT tok, CAST(count(*) AS BIGINT) AS n FROM toks GROUP BY 1
), ranked AS (
  SELECT tok,
         CAST(row_number() OVER (ORDER BY n DESC, tok) - 1 AS BIGINT)
           AS r
  FROM freq
)
SELECT toks.source,
       CAST(count(*) AS BIGINT) AS n_tokens,
       CAST(sum(ranked.r) * 1000000 // count(*) AS BIGINT)
         AS mean_rank_micro
FROM toks JOIN ranked USING (tok)
GROUP BY 1 ORDER BY 1
"""


def interorder_gap_median(sf_dir: str) -> pa.Table:
    """INTER-PURCHASE TIME: the exact median (and p90) of the
    day-gaps between a customer's consecutive orders -- the cadence
    number behind replenishment and churn models.  Ordered per-user
    diffs via the user co-partition kernel; quantiles via the
    histogram-bisection pass (quantile_disc semantics).

    Scale shape: co-partition by customer, vectorized diff per
    partition, one exact-quantile pass over the gap dataset.
    """
    from ..stages.partition import fit_partitions, partition_by
    from .quantiles import exact_quantiles

    ds = _read(sf_dir, "orders",
               ["o_custkey", "o_orderdate", "o_orderkey"])
    DAY_US = np.int64(86_400_000_000)

    def prep(t: pa.Table) -> pa.Table:
        us = pc.cast(t["o_orderdate"], pa.int64()).to_numpy(
            zero_copy_only=False)
        return pa.table({
            "cust": pc.cast(t["o_custkey"], pa.int64()),
            "day": pa.array(us // DAY_US),
            "key": pc.cast(t["o_orderkey"], pa.int64()),
        })

    empty = pa.table({"gap": pa.array([], type=pa.int64())})

    def gaps(t: pa.Table) -> pa.Table:
        c = t["cust"].to_numpy(zero_copy_only=False)
        d = t["day"].to_numpy(zero_copy_only=False)
        k = t["key"].to_numpy(zero_copy_only=False)
        order = np.lexsort((k, d, c))
        c_s, d_s = c[order], d[order]
        same = c_s[1:] == c_s[:-1]
        g = (d_s[1:] - d_s[:-1])[same]
        if g.size == 0:
            return empty
        return pa.table({"gap": pa.array(g.astype(np.int64))})

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    gap_ds = partition_by(prepped, ["cust"], fit_partitions(32),
                          gaps, empty).materialize()
    n = int(gap_ds.count())
    qt = exact_quantiles(gap_ds, "gap", [0.5, 0.9])
    vals = {float(qt["q"][i].as_py()): int(qt["value"][i].as_py())
            for i in range(qt.num_rows)}
    return pa.table({
        "n_gaps": pa.array([n], type=pa.int64()),
        "median_gap_days": pa.array([vals[0.5]], type=pa.int64()),
        "p90_gap_days": pa.array([vals[0.9]], type=pa.int64()),
    })


INTERORDER_GAP_SQL = """
WITH o AS (
  SELECT o_custkey,
         CAST(epoch_us(o_orderdate) AS BIGINT) // 86400000000 AS day,
         lag(CAST(epoch_us(o_orderdate) AS BIGINT) // 86400000000)
           OVER (PARTITION BY o_custkey
                 ORDER BY epoch_us(o_orderdate), o_orderkey) AS prev
  FROM orders
), g AS (
  SELECT day - prev AS gap FROM o WHERE prev IS NOT NULL
)
SELECT CAST(count(*) AS BIGINT) AS n_gaps,
       CAST(quantile_disc(gap, 0.5) AS BIGINT) AS median_gap_days,
       CAST(quantile_disc(gap, 0.9) AS BIGINT) AS p90_gap_days
FROM g
"""


def price_endings_report(sf_dir: str) -> pa.Table:
    """PRICE-ENDING AUDIT: the cents-ending distribution of order
    totals (top-8 endings plus the .99 / .00 shares) -- the charm-
    pricing / synthetic-data fingerprint check (real retail prices
    cluster on endings; uniform endings scream generated data).

    Scale shape: one streamed 100-cell grouped count.
    """
    ds = _read(sf_dir, "orders", ["o_totalprice"])

    def ending(t: pa.Table) -> pa.Table:
        cents = _int_units(t["o_totalprice"], 100).to_numpy(
            zero_copy_only=False)
        return pa.table({"ending": cents % 100})

    agg = combine_agg(ds, ["ending"], ending, [("ending", "count")],
                      named("ending", "n")).to_pandas()
    n = np.zeros(100, dtype=np.int64)
    n[agg["ending"].to_numpy(dtype=np.int64)] = \
        agg["n"].to_numpy(dtype=np.int64)
    tot = int(n.sum())
    order = np.lexsort((np.arange(100), -n))[:8]
    return pa.table({
        "ending": pa.array(order.astype(np.int64)),
        "n": pa.array(n[order]),
        "share_ppm": pa.array(n[order] * 1_000_000 // tot),
    })


PRICE_ENDINGS_SQL = """
WITH e AS (
  SELECT CAST(round(o_totalprice * 100) AS BIGINT) % 100 AS ending
  FROM orders
), c AS (
  SELECT ending, CAST(count(*) AS BIGINT) AS n FROM e GROUP BY 1
), t AS (SELECT CAST(sum(n) AS BIGINT) AS tot FROM c),
g AS (
  SELECT g.e AS ending, CAST(COALESCE(c.n, 0) AS BIGINT) AS n
  FROM (SELECT unnest(generate_series(0, 99)) AS e) g
  LEFT JOIN c ON c.ending = g.e
)
SELECT CAST(g.ending AS BIGINT) AS ending, g.n,
       CAST(g.n * 1000000 // t.tot AS BIGINT) AS share_ppm
FROM g CROSS JOIN t
ORDER BY g.n DESC, g.ending
LIMIT 8
"""


def bigram_lm_perplexity(sf_dir: str) -> pa.Table:
    """HELD-OUT BIGRAM LANGUAGE MODEL EVAL: train an add-one-smoothed
    token-bigram LM on the hash-split train docs (murmur(doc_id) % 10
    < 8) and report the exact cross-entropy of the held-out docs in
    micro-nats per token -- the canonical "is this corpus modelable /
    is that split leaking" number, carried as per-occurrence
    floor(ln((r + V) / (c + 1)) * 1e6) integer terms (the mirrored
    ln-parity pattern; no float sum).

    Scale shape: bounded-vocabulary bigram-count groupby on the train
    split; the count table broadcasts (ray.put) into one streamed
    eval combiner over the test split.
    """
    from ..hashing import murmur64
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    big_empty = pa.table({"w1": pa.array([], type=pa.string()),
                          "w2": pa.array([], type=pa.string())})

    def _bigrams(t: pa.Table, want_train: bool):
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(
            np.int64)
        pct = (murmur64(ids) % np.uint64(10)).astype(np.int64)
        keep = (pct < 8) if want_train else (pct >= 8)
        t = t.filter(pa.array(keep))
        if t.num_rows == 0:
            return None
        toks = pc.split_pattern(t["text"], pattern=" ")
        flat = np.asarray(pc.list_flatten(toks).to_pylist(),
                          dtype=np.str_)
        nper = pc.list_value_length(toks).to_numpy(
            zero_copy_only=False).astype(np.int64)
        ends = np.cumsum(nper)
        valid = np.ones(flat.size, dtype=bool)
        valid[ends - 1] = False     # no bigram across doc boundary
        w1 = flat[:-1][valid[:-1]]
        w2 = flat[1:][valid[:-1]]
        return w1, w2

    def train_bigrams(t: pa.Table) -> pa.Table:
        r = _bigrams(t, want_train=True)
        if r is None:
            return big_empty
        w1, w2 = r
        return pa.table({"w1": pa.array(w1.tolist(), type=pa.string()),
                         "w2": pa.array(w2.tolist(), type=pa.string())})

    counts = combine_agg(docs, ["w1", "w2"], train_bigrams,
                         [("w2", "count")],
                         named("w1", "w2", "n")).to_pandas()
    # vocabulary = distinct SECOND tokens seen in train (the
    # prediction space); row totals per first token
    vocab = int(counts["w2"].nunique())
    cmap = {(a, b): int(v) for a, b, v in
            zip(counts["w1"], counts["w2"], counts["n"])}
    rtot = counts.groupby("w1")["n"].sum().to_dict()
    model_ref = ray.put((cmap, rtot, vocab))

    ev_empty = pa.table({"terms": pa.array([], type=pa.int64()),
                         "n_tok": pa.array([], type=pa.int64())})

    def evaluate(t: pa.Table) -> pa.Table:
        cmap_, rtot_, V = ray.get(model_ref)
        r = _bigrams(t, want_train=False)
        if r is None:
            return ev_empty
        w1, w2 = r
        c = np.array([cmap_.get((a, b), 0)
                      for a, b in zip(w1.tolist(), w2.tolist())],
                     dtype=np.int64)
        rt = np.array([rtot_.get(a, 0) for a in w1.tolist()],
                      dtype=np.int64)
        terms = np.floor(np.log((rt + V).astype(np.float64)
                                / (c + 1).astype(np.float64))
                         * 1_000_000.0).astype(np.int64)
        return pa.table({
            "terms": pa.array([int(terms.sum())], type=pa.int64()),
            "n_tok": pa.array([int(terms.size)], type=pa.int64())})

    f = docs.map_batches(evaluate, batch_format="pyarrow",
                         zero_copy_batch=True).to_pandas()
    terms = int(f["terms"].sum())
    n_tok = int(f["n_tok"].sum())
    return pa.table({
        "vocab": pa.array([vocab], type=pa.int64()),
        "n_test_bigrams": pa.array([n_tok], type=pa.int64()),
        "xent_micronats_total": pa.array([terms], type=pa.int64()),
        "xent_micronats_per_tok": pa.array(
            [terms // n_tok if n_tok else 0], type=pa.int64()),
    })


BIGRAM_LM_SQL = """
WITH tk AS (
  SELECT doc_id, hash(doc_id) % 10 AS pct,
         string_split(text, ' ') AS toks
  FROM documents
), e AS (
  SELECT doc_id, pct, unnest(toks) AS tok,
         unnest(generate_series(1, len(toks))) AS pos,
         len(toks) AS ln
  FROM tk
), bg AS (
  SELECT a.pct, a.tok AS w1, b.tok AS w2
  FROM e a JOIN e b
    ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
), train AS (
  SELECT w1, w2, CAST(count(*) AS BIGINT) AS n
  FROM bg WHERE pct < 8 GROUP BY 1, 2
), v AS (SELECT CAST(count(DISTINCT w2) AS BIGINT) AS vocab
         FROM train),
r AS (SELECT w1, CAST(sum(n) AS BIGINT) AS rt FROM train GROUP BY 1),
test AS (
  SELECT bg.w1, bg.w2,
         COALESCE(train.n, 0) AS c, COALESCE(r.rt, 0) AS rt
  FROM bg
  LEFT JOIN train ON train.w1 = bg.w1 AND train.w2 = bg.w2
  LEFT JOIN r ON r.w1 = bg.w1
  WHERE bg.pct >= 8
), terms AS (
  SELECT CAST(floor(ln(CAST(rt + v.vocab AS DOUBLE)
                       / CAST(c + 1 AS DOUBLE)) * 1000000.0)
              AS BIGINT) AS t
  FROM test CROSS JOIN v
)
SELECT (SELECT vocab FROM v) AS vocab,
       CAST(count(*) AS BIGINT) AS n_test_bigrams,
       CAST(sum(t) AS BIGINT) AS xent_micronats_total,
       CAST(sum(t) // count(*) AS BIGINT) AS xent_micronats_per_tok
FROM terms
"""


def cvm_drift_binned(sf_dir: str, type_a: str = "view",
                     type_b: str = "purchase",
                     n_bins: int = 256) -> pa.Table:
    """BINNED CRAMER-VON MISES drift between two event types' value
    distributions: the SUM of squared CDF gaps over the grid (KS takes
    the max, EMD the absolute sum; CvM weights persistent medium gaps)
    -- exact big-integer arithmetic: sum (ca*n_b - cb*n_a)^2 with the
    single final division into ppm of the maximum possible.

    Scale shape: identical to ks/emd_drift_binned (_two_sample_bins) --
    streamed Min/Max, bounded per-bin partials, O(n_bins) driver walk.
    """
    na, nb = _two_sample_bins(sf_dir, type_a, type_b, n_bins)
    n_a, n_b = int(na.sum()), int(nb.sum())
    ca, cb, acc = 0, 0, 0
    for i in range(n_bins):
        ca += int(na[i]); cb += int(nb[i])
        acc += (ca * n_b - cb * n_a) ** 2
    denom = (n_a * n_b) ** 2 * n_bins
    cvm = acc * 1_000_000 // denom if denom else 0
    return pa.table({
        "type_a": pa.array([type_a], type=pa.string()),
        "type_b": pa.array([type_b], type=pa.string()),
        "n_a": pa.array([n_a], type=pa.int64()),
        "n_b": pa.array([n_b], type=pa.int64()),
        "cvm_ppm": pa.array([cvm], type=pa.int64()),
    })


CVM_DRIFT_SQL = """
WITH v AS (
  SELECT event_type,
         CAST(floor(value * 1000000.0 + 0.5) AS BIGINT) AS m
  FROM events WHERE event_type IN ('view', 'purchase')
), b AS (SELECT min(m) AS lo, max(m) AS hi FROM v),
g AS (
  SELECT event_type,
         CASE WHEN b.hi - b.lo + 1 <= 1 THEN 0
              ELSE (m - b.lo) * 256 // (b.hi - b.lo + 1) END AS bin,
         CAST(count(*) AS BIGINT) AS n
  FROM v CROSS JOIN b GROUP BY 1, 2
), grid AS (SELECT unnest(generate_series(0, 255)) AS bin),
f AS (
  SELECT grid.bin,
         COALESCE(sum(g.n) FILTER (WHERE g.event_type = 'view'), 0)
           AS na,
         COALESCE(sum(g.n) FILTER (WHERE g.event_type = 'purchase'),
                  0) AS nb
  FROM grid LEFT JOIN g ON g.bin = grid.bin GROUP BY 1
), cum AS (
  SELECT bin, sum(na) OVER (ORDER BY bin) AS ca,
         sum(nb) OVER (ORDER BY bin) AS cb
  FROM f
), t AS (SELECT CAST(sum(na) AS BIGINT) AS n_a,
                CAST(sum(nb) AS BIGINT) AS n_b FROM f),
s AS (
  SELECT CAST(sum(CAST(ca * t.n_b - cb * t.n_a AS HUGEINT)
                  * CAST(ca * t.n_b - cb * t.n_a AS HUGEINT))
              AS HUGEINT) AS acc
  FROM cum CROSS JOIN t
)
SELECT 'view' AS type_a, 'purchase' AS type_b, t.n_a, t.n_b,
       CAST(s.acc * 1000000
            // (CAST(t.n_a AS HUGEINT) * t.n_b
                * CAST(t.n_a AS HUGEINT) * t.n_b * 256) AS BIGINT)
         AS cvm_ppm
FROM t, s
"""


def two_proportion_ztest(sf_dir: str,
                         threshold: float = 100.0) -> pa.Table:
    """TWO-PROPORTION Z-TEST between the hash arms on the high-value
    rate: exact counts, the pooled-variance z statistic as ONE mirrored
    double (micro units), and the integer rate difference in ppm --
    the textbook conversion-rate comparison.

    Scale shape: one streamed 2x2 combiner.
    """
    from ..hashing import murmur64
    ds = _read(sf_dir, "events", ["event_id", "value"])
    thr_m = int(round(threshold * 1_000_000))

    empty = pa.table({c: pa.array([], type=pa.int64())
                      for c in ("n_a", "k_a", "n_b", "k_b")})

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        ids = t["event_id"].to_numpy(zero_copy_only=False).astype(
            np.int64)
        arm = (murmur64(ids) % np.uint64(2)).astype(np.int64)
        m = _int_units(t["value"], 1_000_000).to_numpy(
            zero_copy_only=False)
        k = (m > thr_m)
        return pa.table({
            "n_a": pa.array([int((arm == 0).sum())], type=pa.int64()),
            "k_a": pa.array([int((k & (arm == 0)).sum())],
                            type=pa.int64()),
            "n_b": pa.array([int((arm == 1).sum())], type=pa.int64()),
            "k_b": pa.array([int((k & (arm == 1)).sum())],
                            type=pa.int64()),
        })

    f = ds.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True).to_pandas()
    na, ka = int(f["n_a"].sum()), int(f["k_a"].sum())
    nb, kb = int(f["n_b"].sum()), int(f["k_b"].sum())
    # mirrored doubles, float() before dividing
    p1 = float(ka) / na
    p2 = float(kb) / nb
    pp = float(ka + kb) / (na + nb)
    se = np.sqrt(pp * (1.0 - pp) * (1.0 / na + 1.0 / nb))
    z = (p1 - p2) / se if se > 0 else 0.0
    diff_ppm = (ka * 1_000_000 // na) - (kb * 1_000_000 // nb)
    return pa.table({
        "n_a": pa.array([na], type=pa.int64()),
        "k_a": pa.array([ka], type=pa.int64()),
        "n_b": pa.array([nb], type=pa.int64()),
        "k_b": pa.array([kb], type=pa.int64()),
        "rate_diff_ppm": pa.array([diff_ppm], type=pa.int64()),
        "z_micro": pa.array([int(np.floor(z * 1_000_000.0))],
                            type=pa.int64()),
    })


TWO_PROPORTION_SQL = """
WITH e AS (
  SELECT CAST(hash(event_id) % 2 AS BIGINT) AS arm,
         CASE WHEN CAST(floor(value * 1000000.0 + 0.5) AS BIGINT)
                   > 100000000 THEN 1 ELSE 0 END AS k
  FROM events
), s AS (
  SELECT CAST(sum(CASE WHEN arm = 0 THEN 1 ELSE 0 END) AS BIGINT)
           AS na,
         CAST(sum(CASE WHEN arm = 0 THEN k ELSE 0 END) AS BIGINT)
           AS ka,
         CAST(sum(CASE WHEN arm = 1 THEN 1 ELSE 0 END) AS BIGINT)
           AS nb,
         CAST(sum(CASE WHEN arm = 1 THEN k ELSE 0 END) AS BIGINT)
           AS kb
  FROM e
)
SELECT na AS n_a, ka AS k_a, nb AS n_b, kb AS k_b,
       CAST(ka * 1000000 // na - kb * 1000000 // nb AS BIGINT)
         AS rate_diff_ppm,
       CAST(floor(
         (CAST(ka AS DOUBLE) / na - CAST(kb AS DOUBLE) / nb)
         / sqrt((CAST(ka + kb AS DOUBLE) / (na + nb))
                * (1.0 - CAST(ka + kb AS DOUBLE) / (na + nb))
                * (1.0 / na + 1.0 / nb)) * 1000000.0) AS BIGINT)
         AS z_micro
FROM s
"""


def poisson_surprise_hours(sf_dir: str, k: int = 5) -> pa.Table:
    """POISSON-SURPRISE ANOMALY RANKING: the top-k most surprising
    (event_type, hour) cells by the Pearson residual against each
    type's own hourly mean -- surprise = (x*H - T)^2 / (T*H) where T
    is the type's total and H its hour count, exact by integer
    cross-multiplication (emitted in micro units with a single big-int
    division per cell).

    Scale shape: one (type, hour) count combiner, cardinality-bounded
    groupby, O(types x hours) driver fold with a k-row output.
    """
    ds = _read(sf_dir, "events", ["event_type", "ts"])

    grid = combine_agg(ds, ["event_type", "h"], _event_hours,
                       [("h", "count")],
                       named("event_type", "hour", "n")).to_pandas()
    lo = int(grid["hour"].min()); hi = int(grid["hour"].max())
    span = hi - lo + 1
    rows = {c: [] for c in ("event_type", "hour", "n",
                            "surprise_micro")}
    for et, g in grid.groupby("event_type", sort=True):
        v = np.zeros(span, dtype=np.int64)
        v[g["hour"].to_numpy(dtype=np.int64) - lo] = \
            g["n"].to_numpy(dtype=np.int64)
        T = int(v.sum()); H = span
        for h in range(span):
            x = int(v[h])
            s = (x * H - T) ** 2 * 1_000_000 // (T * H)
            rows["event_type"].append(et)
            rows["hour"].append(lo + h)
            rows["n"].append(x)
            rows["surprise_micro"].append(s)
    import pandas as pd
    df = pd.DataFrame(rows).sort_values(
        ["surprise_micro", "event_type", "hour"],
        ascending=[False, True, True]).head(k)
    return pa.table({
        "event_type": pa.array(df["event_type"].tolist(),
                               type=pa.string()),
        "hour": pa.array(df["hour"].to_numpy(dtype=np.int64)),
        "n": pa.array(df["n"].to_numpy(dtype=np.int64)),
        "surprise_micro": pa.array(
            df["surprise_micro"].to_numpy(dtype=np.int64)),
    })


POISSON_SURPRISE_SQL = """
WITH h AS (
  SELECT event_type,
         CAST(epoch_us(ts) AS BIGINT) // 3600000000 AS hour,
         CAST(count(*) AS BIGINT) AS n
  FROM events GROUP BY 1, 2
), b AS (SELECT min(hour) AS lo, max(hour) AS hi FROM h),
types AS (SELECT event_type, CAST(sum(n) AS BIGINT) AS t FROM h
          GROUP BY 1),
grid AS (
  SELECT ty.event_type, g.hour, ty.t,
         CAST(b.hi - b.lo + 1 AS BIGINT) AS hh,
         CAST(COALESCE(h.n, 0) AS BIGINT) AS x
  FROM types ty
  CROSS JOIN b
  CROSS JOIN (SELECT unnest(generate_series(b2.lo, b2.hi)) AS hour
              FROM b b2) g
  LEFT JOIN h ON h.event_type = ty.event_type AND h.hour = g.hour
), s AS (
  SELECT event_type, hour, x,
         CAST(CAST(x * hh - t AS HUGEINT) * (x * hh - t)
              * 1000000 // (CAST(t AS HUGEINT) * hh) AS BIGINT)
           AS surprise_micro
  FROM grid
)
SELECT event_type, CAST(hour AS BIGINT) AS hour, x AS n,
       surprise_micro
FROM s
ORDER BY surprise_micro DESC, event_type, hour
LIMIT 5
"""


def sax_motif_counts(sf_dir: str, k: int = 5) -> pa.Table:
    """SAX-STYLE MOTIF MINING on the hourly event-count series:
    discretize each hour into one of four symbols by the series' own
    exact quartiles (a = lowest), then count every 3-hour motif and
    return the top-k -- the classic "what does a typical burst look
    like" time-series-mining primitive, fully deterministic because
    symbol thresholds are quantile_disc values and ties break by
    symbol order.

    Scale shape: per-hour count combiner; the symbolization and motif
    scan run on the O(hours) driver grid.
    """
    ds = _read(sf_dir, "events", ["ts"])
    HOUR_US = np.int64(3_600_000_000)

    def hourly(t: pa.Table) -> pa.Table:
        us = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({"hour": pa.array(us // HOUR_US)})

    h = (combine_agg(ds, ["hour"], hourly, [("hour", "count")],
                     named("hour", "n"))
         .to_pandas().sort_values("hour"))
    hours = h["hour"].to_numpy(dtype=np.int64)
    lo, hi = int(hours.min()), int(hours.max())
    grid = np.zeros(hi - lo + 1, dtype=np.int64)
    grid[hours - lo] = h["n"].to_numpy(dtype=np.int64)
    srt = np.sort(grid)
    n = srt.size
    # quantile_disc thresholds at .25/.5/.75
    t1 = int(srt[max(0, -(-n // 4) - 1)])
    t2 = int(srt[max(0, -(-n // 2) - 1)])
    t3 = int(srt[max(0, -(-(3 * n) // 4) - 1)])
    sym = np.where(grid <= t1, 0,
                   np.where(grid <= t2, 1,
                            np.where(grid <= t3, 2, 3)))
    letters = np.array(["a", "b", "c", "d"])
    motifs = {}
    for i in range(len(sym) - 2):
        m = (letters[sym[i]] + letters[sym[i + 1]]
             + letters[sym[i + 2]])
        motifs[m] = motifs.get(m, 0) + 1
    import pandas as pd
    df = (pd.DataFrame({"motif": list(motifs),
                        "n": list(motifs.values())})
          .sort_values(["n", "motif"], ascending=[False, True])
          .head(k))
    return pa.table({
        "motif": pa.array(df["motif"].tolist(), type=pa.string()),
        "n": pa.array(df["n"].to_numpy(dtype=np.int64)),
    })


SAX_MOTIF_SQL = """
WITH h AS (
  SELECT CAST(epoch_us(ts) AS BIGINT) // 3600000000 AS hour,
         CAST(count(*) AS BIGINT) AS n
  FROM events GROUP BY 1
), b AS (SELECT min(hour) AS lo, max(hour) AS hi FROM h),
grid AS (
  SELECT g.hour, CAST(COALESCE(h.n, 0) AS BIGINT) AS v
  FROM (SELECT unnest(generate_series(b.lo, b.hi)) AS hour FROM b) g
  LEFT JOIN h ON h.hour = g.hour
), q AS (
  SELECT CAST(quantile_disc(v, 0.25) AS BIGINT) AS t1,
         CAST(quantile_disc(v, 0.5) AS BIGINT) AS t2,
         CAST(quantile_disc(v, 0.75) AS BIGINT) AS t3
  FROM grid
), sym AS (
  SELECT hour,
         CASE WHEN v <= q.t1 THEN 'a'
              WHEN v <= q.t2 THEN 'b'
              WHEN v <= q.t3 THEN 'c' ELSE 'd' END AS s
  FROM grid CROSS JOIN q
), tri AS (
  SELECT s || lead(s, 1) OVER w || lead(s, 2) OVER w AS motif
  FROM sym WINDOW w AS (ORDER BY hour)
  QUALIFY lead(s, 2) OVER w IS NOT NULL
)
SELECT motif, CAST(count(*) AS BIGINT) AS n
FROM tri GROUP BY 1
ORDER BY n DESC, motif
LIMIT 5
"""


def returns_rate_by_brand(sf_dir: str) -> pa.Table:
    """RETURNS RATE per part brand: the share of lineitems (and of
    revenue cents) carrying returnflag 'R', via the broadcast part
    dimension -- the supplier-quality leaderboard.

    Scale shape: part projected to (partkey, brand) and broadcast
    once (ray.put); one streamed (brand, counts) combiner.
    """
    part = _read(sf_dir, "part", ["p_partkey", "p_brand"]).to_pandas()
    pk = pa.array(part["p_partkey"].to_numpy(dtype=np.int64))
    brands = np.sort(part["p_brand"].unique())
    bcode = {b: i for i, b in enumerate(brands)}
    pb = np.array([bcode[b] for b in part["p_brand"]], dtype=np.int64)
    lookup_ref = ray.put((pk, pb))

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_returnflag", "l_extendedprice"])

    empty = pa.table({c: pa.array([], type=pa.int64())
                      for c in ("b", "ret", "rev", "rev_ret")})

    class Roll:
        def __init__(self):
            self.pk, self.pb = ray.get(lookup_ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return empty
            idx = pc.index_in(pc.cast(t["l_partkey"], pa.int64()),
                              value_set=self.pk).to_numpy(
                zero_copy_only=False).astype(np.int64)
            ret = np.asarray(pc.equal(t["l_returnflag"],
                                      pa.scalar("R"))).astype(np.int64)
            rev = _int_units(t["l_extendedprice"], 100).to_numpy(
                zero_copy_only=False)
            return pa.table({"b": pa.array(self.pb[idx]),
                             "ret": pa.array(ret), "rev": pa.array(rev),
                             "rev_ret": pa.array(rev * ret)})

    agg = (combine_agg(li.map_batches(Roll, batch_format="pyarrow",
                                      zero_copy_batch=True, concurrency=2),
                       ["b"], lambda t: t,
                       [("ret", "count"), ("ret", "sum"), ("rev", "sum"),
                        ("rev_ret", "sum")],
                       named("b", "n", "n_ret", "rev", "rev_ret"))
           .to_pandas().sort_values("b"))
    b = agg["b"].to_numpy(dtype=np.int64)
    n = agg["n"].to_numpy(dtype=np.int64)
    nr = agg["n_ret"].to_numpy(dtype=np.int64)
    rv = agg["rev"].astype(object).to_numpy()
    rr = agg["rev_ret"].astype(object).to_numpy()
    return pa.table({
        "p_brand": pa.array(brands[b].tolist(), type=pa.string()),
        "n_lineitems": pa.array(n),
        "n_returned": pa.array(nr),
        "return_rate_ppm": pa.array(nr * 1_000_000 // n),
        "rev_return_ppm": pa.array(
            [int(a) * 1_000_000 // int(t) if t else 0
             for a, t in zip(rr, rv)], type=pa.int64()),
    })


RETURNS_RATE_SQL = """
SELECT p.p_brand,
       CAST(count(*) AS BIGINT) AS n_lineitems,
       CAST(sum(CASE WHEN l.l_returnflag = 'R' THEN 1 ELSE 0 END)
            AS BIGINT) AS n_returned,
       CAST(sum(CASE WHEN l.l_returnflag = 'R' THEN 1 ELSE 0 END)
            * 1000000 // count(*) AS BIGINT) AS return_rate_ppm,
       CAST(sum(CASE WHEN l.l_returnflag = 'R'
                THEN CAST(round(l.l_extendedprice * 100) AS BIGINT)
                ELSE 0 END) * 1000000
            // sum(CAST(round(l.l_extendedprice * 100) AS BIGINT))
            AS BIGINT) AS rev_return_ppm
FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
GROUP BY 1 ORDER BY 1
"""


def mix_anomaly_hours(sf_dir: str, k: int = 5) -> pa.Table:
    """COMPOSITION-ANOMALY RANKING: the top-k hours whose EVENT-TYPE
    MIX deviates most from the global mix by an integer chi-square
    (per-cell floor(1e6*(o*T - rowsum*coltotal/T... carried as
    (o*T - r*c)^2 // (r*c*T) per cell) -- volume spikes are caught by
    poisson_surprise_hours; this catches a normal-volume hour whose
    COMPOSITION is wrong (bot traffic, partial outage).

    Scale shape: one (type, hour) combiner, bounded groupby,
    O(types x hours) driver fold, k-row output.
    """
    ds = _read(sf_dir, "events", ["event_type", "ts"])

    grid = combine_agg(ds, ["event_type", "h"], _event_hours,
                       [("h", "count")],
                       named("event_type", "hour", "n")).to_pandas()
    piv = grid.pivot_table(index="hour", columns="event_type",
                           values="n", fill_value=0, aggfunc="sum")
    obs = piv.to_numpy(dtype=np.int64)
    hours = piv.index.to_numpy(dtype=np.int64)
    T = int(obs.sum())
    col = obs.sum(axis=0).astype(object)     # global type totals
    row = obs.sum(axis=1).astype(object)     # per-hour volumes
    chi = []
    for i in range(obs.shape[0]):
        acc = 0
        r = int(row[i])
        for j in range(obs.shape[1]):
            c = int(col[j])
            o = int(obs[i, j])
            acc += (o * T - r * c) ** 2 * 1_000_000 // (r * c * T)
        chi.append(acc)
    import pandas as pd
    df = (pd.DataFrame({"hour": hours,
                        "n": row.astype(np.int64),
                        "chi2_micro": np.array(chi, dtype=np.int64)})
          .sort_values(["chi2_micro", "hour"],
                       ascending=[False, True]).head(k))
    return pa.table({
        "hour": pa.array(df["hour"].to_numpy(dtype=np.int64)),
        "n": pa.array(df["n"].to_numpy(dtype=np.int64)),
        "chi2_micro": pa.array(df["chi2_micro"].to_numpy(
            dtype=np.int64)),
    })


MIX_ANOMALY_SQL = """
WITH h AS (
  SELECT event_type,
         CAST(epoch_us(ts) AS BIGINT) // 3600000000 AS hour,
         CAST(count(*) AS BIGINT) AS n
  FROM events GROUP BY 1, 2
), t AS (SELECT CAST(sum(n) AS BIGINT) AS tt FROM h),
col AS (SELECT event_type, CAST(sum(n) AS BIGINT) AS c FROM h
        GROUP BY 1),
row_ AS (SELECT hour, CAST(sum(n) AS BIGINT) AS r FROM h GROUP BY 1),
cells AS (
  SELECT row_.hour, row_.r, col.event_type, col.c,
         CAST(COALESCE(h.n, 0) AS BIGINT) AS o
  FROM row_ CROSS JOIN col
  LEFT JOIN h ON h.hour = row_.hour AND h.event_type = col.event_type
), chi AS (
  SELECT hour, max(r) AS n,
         CAST(sum(CAST(o * t.tt - r * c AS HUGEINT)
                  * (o * t.tt - r * c) * 1000000
                  // (CAST(r AS HUGEINT) * c * t.tt)) AS BIGINT)
           AS chi2_micro
  FROM cells CROSS JOIN t GROUP BY 1
)
SELECT CAST(hour AS BIGINT) AS hour, CAST(n AS BIGINT) AS n,
       chi2_micro
FROM chi
ORDER BY chi2_micro DESC, hour
LIMIT 5
"""


def tpch_q3_topk(sf_dir: str, segment: str = "BUILDING",
                 cutoff: str = "1998-06-15", k: int = 10) -> pa.Table:
    """TPC-H Q3 (shipping priority): top-k unshipped orders by revenue
    for one market segment -- the canonical 3-table join + filter +
    top-k reporting query, exact in integer cents.

    Scale shape: customer filters to a (custkey) broadcast key set
    (segment-bounded); orders stream against it and collapse to
    (orderkey, date) pairs broadcast-joined into the lineitem combiner
    via an order-key co-partition; per-block top-k prereduce before the
    final fold.
    """
    from ..stages.partition import fit_partitions, partition_by
    cut_us = int(np.datetime64(cutoff, "us").astype(np.int64))

    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])

    def ckeys(t: pa.Table) -> pa.Table:
        keep = pc.equal(t["c_mktsegment"], pa.scalar(segment))
        return pa.table({"key": pc.cast(
            t.filter(keep)["c_custkey"], pa.int64())})

    ckset = np.sort(cust.map_batches(ckeys, batch_format="pyarrow")
                    .to_pandas()["key"].to_numpy(dtype=np.int64))
    ck_ref = ray.put(ckset)

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate"])

    o_empty = pa.table({"key": pa.array([], type=pa.int64()),
                        "odate": pa.array([], type=pa.int64()),
                        "side": pa.array([], type=pa.int64()),
                        "rev": pa.array([], type=pa.int64())})

    def o_prep(t: pa.Table) -> pa.Table:
        ck = ray.get(ck_ref)
        us = pc.cast(t["o_orderdate"], pa.int64()).to_numpy(
            zero_copy_only=False)
        cust_k = t["o_custkey"].to_numpy(zero_copy_only=False)
        keep = (us < cut_us) & np.isin(cust_k, ck)
        key = t["o_orderkey"].to_numpy(zero_copy_only=False)[keep]
        return pa.table({
            "key": pa.array(key.astype(np.int64)),
            "odate": pa.array(us[keep]),
            "side": pa.array(np.zeros(keep.sum(), dtype=np.int64)),
            "rev": pa.array(np.zeros(keep.sum(), dtype=np.int64))})

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_extendedprice", "l_discount",
                "l_shipdate"])

    def li_prep(t: pa.Table) -> pa.Table:
        us = pc.cast(t["l_shipdate"], pa.int64()).to_numpy(
            zero_copy_only=False)
        keep = us > cut_us
        t = t.filter(pa.array(keep))
        if t.num_rows == 0:
            return o_empty
        rev = np.floor(
            t["l_extendedprice"].to_numpy(zero_copy_only=False)
            * (1.0 - t["l_discount"].to_numpy(zero_copy_only=False))
            * 100.0 + 0.5).astype(np.int64)
        staged = pa.table({
            "key": pc.cast(t["l_orderkey"], pa.int64()),
            "rev": pa.array(rev)})
        g = staged.group_by("key").aggregate([("rev", "sum")])
        n = g.num_rows
        return pa.table({
            "key": g["key"],
            "odate": pa.array(np.zeros(n, dtype=np.int64)),
            "side": pa.array(np.ones(n, dtype=np.int64)),
            "rev": pc.cast(g["rev_sum"], pa.int64())})

    both = (orders.map_batches(o_prep, batch_format="pyarrow",
                               zero_copy_batch=True)
            .union(li.map_batches(li_prep, batch_format="pyarrow",
                                  zero_copy_batch=True)))

    out_empty = pa.table({"o_orderkey": pa.array([], type=pa.int64()),
                          "o_orderdate": pa.array([], type=pa.int64()),
                          "revenue_cents": pa.array([],
                                                    type=pa.int64())})

    def resolve(t: pa.Table) -> pa.Table:
        key = t["key"].to_numpy(zero_copy_only=False)
        side = t["side"].to_numpy(zero_copy_only=False)
        ok_, od = key[side == 0], \
            t["odate"].to_numpy(zero_copy_only=False)[side == 0]
        lk = key[side == 1]
        lr = t["rev"].to_numpy(zero_copy_only=False)[side == 1]
        if ok_.size == 0 or lk.size == 0:
            return out_empty
        uk, inv = np.unique(lk, return_inverse=True)
        ur = np.bincount(inv, weights=lr.astype(np.float64)) \
            .astype(np.int64)
        pos = np.searchsorted(uk, ok_)
        safe = np.minimum(pos, uk.size - 1)
        has = (pos < uk.size) & (uk[safe] == ok_)
        key_m, od_m, rev_m = ok_[has], od[has], ur[safe[has]]
        order = np.lexsort((key_m, -rev_m))[:k]
        return pa.table({
            "o_orderkey": pa.array(key_m[order].astype(np.int64)),
            "o_orderdate": pa.array(od_m[order]),
            "revenue_cents": pa.array(rev_m[order]),
        })

    pre = partition_by(both, ["key"], fit_partitions(16), resolve,
                       out_empty).to_pandas()
    order = np.lexsort((pre["o_orderkey"].to_numpy(),
                        -pre["revenue_cents"].to_numpy()))[:k]
    return pa.table({
        "o_orderkey": pa.array(
            pre["o_orderkey"].to_numpy(dtype=np.int64)[order]),
        "o_orderdate": pa.array(
            pre["o_orderdate"].to_numpy(dtype=np.int64)[order]),
        "revenue_cents": pa.array(
            pre["revenue_cents"].to_numpy(dtype=np.int64)[order]),
    })


TPCH_Q3_SQL = """
SELECT CAST(l.l_orderkey AS BIGINT) AS o_orderkey,
       CAST(epoch_us(o.o_orderdate) AS BIGINT) AS o_orderdate,
       CAST(sum(CAST(floor(l.l_extendedprice * (1.0 - l.l_discount)
                           * 100.0 + 0.5) AS BIGINT)) AS BIGINT)
         AS revenue_cents
FROM customer c
JOIN orders o ON o.o_custkey = c.c_custkey
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
WHERE c.c_mktsegment = 'BUILDING'
  AND o.o_orderdate < TIMESTAMP '1998-06-15'
  AND l.l_shipdate > TIMESTAMP '1998-06-15'
GROUP BY 1, 2
ORDER BY revenue_cents DESC, o_orderkey
LIMIT 10
"""


def tpch_q6_revenue(sf_dir: str, year: int = 1997,
                    disc_lo: int = 5, disc_hi: int = 7,
                    max_qty: int = 24) -> pa.Table:
    """TPC-H Q6 (forecasting revenue change): the revenue delta from
    lineitems of one ship year with discount in [lo, hi] percent and
    quantity below the cap -- the canonical filter-and-sum scan, exact
    cents via per-row floor(price * discount * 100 + 0.5).

    Scale shape: one streamed filter + scalar combiner (columns pruned
    at the read).
    """
    ds = _read(sf_dir, "lineitem",
               ["l_shipdate", "l_discount", "l_quantity",
                "l_extendedprice"])
    lo_us = int(np.datetime64(f"{year}-01-01", "us").astype(np.int64))
    hi_us = int(np.datetime64(f"{year + 1}-01-01", "us")
                .astype(np.int64))

    empty = pa.table({"n": pa.array([], type=pa.int64()),
                      "rev": pa.array([], type=pa.int64())})

    def partial(t: pa.Table) -> pa.Table:
        us = pc.cast(t["l_shipdate"], pa.int64()).to_numpy(
            zero_copy_only=False)
        disc = t["l_discount"].to_numpy(zero_copy_only=False)
        disc_c = np.floor(disc * 100.0 + 0.5).astype(np.int64)
        qty = t["l_quantity"].to_numpy(zero_copy_only=False)
        keep = ((us >= lo_us) & (us < hi_us)
                & (disc_c >= disc_lo) & (disc_c <= disc_hi)
                & (qty < max_qty))
        if not keep.any():
            return empty
        price = t["l_extendedprice"].to_numpy(
            zero_copy_only=False)[keep]
        rev = np.floor(price * disc[keep] * 100.0 + 0.5).astype(
            np.int64)
        return pa.table({"n": pa.array([int(keep.sum())],
                                       type=pa.int64()),
                         "rev": pa.array([int(rev.sum())],
                                         type=pa.int64())})

    f = ds.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True).to_pandas()
    return pa.table({
        "n_lineitems": pa.array([int(f["n"].sum())], type=pa.int64()),
        "revenue_cents": pa.array([int(f["rev"].sum())],
                                  type=pa.int64()),
    })


TPCH_Q6_SQL = """
SELECT CAST(count(*) AS BIGINT) AS n_lineitems,
       CAST(COALESCE(sum(CAST(floor(l_extendedprice * l_discount
                                    * 100.0 + 0.5) AS BIGINT)), 0)
            AS BIGINT) AS revenue_cents
FROM lineitem
WHERE l_shipdate >= TIMESTAMP '1997-01-01'
  AND l_shipdate < TIMESTAMP '1998-01-01'
  AND CAST(floor(l_discount * 100.0 + 0.5) AS BIGINT) BETWEEN 5 AND 7
  AND l_quantity < 24
"""


def length_token_copula_grid(sf_dir: str) -> pa.Table:
    """EMPIRICAL COPULA GRID between document character length and
    token count: the 5x5 joint decile-bucket census (both margins cut
    at their own exact quintiles) -- the dependence-structure heatmap
    that shows WHERE two quality signals are redundant (diagonal mass)
    vs complementary, beyond what one correlation number says.

    Scale shape: two shared bisection threshold passes, one streamed
    25-cell grouped count.
    """
    from .quantiles import exact_quantiles
    from ..functions.text import token_count

    ds = _read(sf_dir, "documents", ["text", "n_chars"])

    def feats(t: pa.Table) -> pa.Table:
        return pa.table({
            "chars": pc.cast(t["n_chars"], pa.int64()),
            "toks": pc.cast(token_count(t["text"]), pa.int64()),
        })

    e = ds.map_batches(feats, batch_format="pyarrow",
                       zero_copy_batch=True).materialize()
    qs = [0.2, 0.4, 0.6, 0.8]
    thr_c = np.array(sorted(int(v.as_py()) for v in
                            exact_quantiles(e, "chars", qs)["value"]),
                     dtype=np.int64)
    thr_t = np.array(sorted(int(v.as_py()) for v in
                            exact_quantiles(e, "toks", qs)["value"]),
                     dtype=np.int64)

    def census(t: pa.Table) -> pa.Table:
        c = t["chars"].to_numpy(zero_copy_only=False)
        k = t["toks"].to_numpy(zero_copy_only=False)
        bc = (c[:, None] > thr_c[None, :]).sum(axis=1)
        bt = (k[:, None] > thr_t[None, :]).sum(axis=1)
        return pa.table({"cell": (bc * 5 + bt).astype(np.int64)})

    agg = combine_agg(e, ["cell"], census, [("cell", "count")],
                      named("cell", "n")).to_pandas()
    n = np.zeros(25, dtype=np.int64)
    n[agg["cell"].to_numpy(dtype=np.int64)] = \
        agg["n"].to_numpy(dtype=np.int64)
    cells = np.arange(25, dtype=np.int64)
    tot = int(n.sum())
    return pa.table({
        "chars_bucket": pa.array(cells // 5),
        "tokens_bucket": pa.array(cells % 5),
        "n": pa.array(n),
        "share_ppm": pa.array(n * 1_000_000 // tot),
    })


LENGTH_TOKEN_COPULA_SQL = """
WITH f AS (
  SELECT CAST(n_chars AS BIGINT) AS c,
         CAST(length(regexp_extract_all(text, '[A-Za-z0-9]+'))
              AS BIGINT) AS k
  FROM documents
), q AS (
  SELECT quantile_disc(c, [0.2, 0.4, 0.6, 0.8]) AS tc,
         quantile_disc(k, [0.2, 0.4, 0.6, 0.8]) AS tk
  FROM f
), b AS (
  SELECT (CAST(c > q.tc[1] AS INT) + CAST(c > q.tc[2] AS INT)
          + CAST(c > q.tc[3] AS INT) + CAST(c > q.tc[4] AS INT))
           AS bc,
         (CAST(k > q.tk[1] AS INT) + CAST(k > q.tk[2] AS INT)
          + CAST(k > q.tk[3] AS INT) + CAST(k > q.tk[4] AS INT))
           AS bt
  FROM f CROSS JOIN q
), grid AS (
  SELECT x.x AS bc, y.y AS bt
  FROM (SELECT unnest(generate_series(0, 4)) AS x) x
  CROSS JOIN (SELECT unnest(generate_series(0, 4)) AS y) y
), c AS (
  SELECT bc, bt, CAST(count(*) AS BIGINT) AS n FROM b GROUP BY 1, 2
), t AS (SELECT CAST(count(*) AS BIGINT) AS tot FROM f)
SELECT CAST(grid.bc AS BIGINT) AS chars_bucket,
       CAST(grid.bt AS BIGINT) AS tokens_bucket,
       CAST(COALESCE(c.n, 0) AS BIGINT) AS n,
       CAST(COALESCE(c.n, 0) * 1000000 // t.tot AS BIGINT)
         AS share_ppm
FROM grid LEFT JOIN c ON c.bc = grid.bc AND c.bt = grid.bt
CROSS JOIN t
ORDER BY 1, 2
"""


def price_volume_decomposition(sf_dir: str, year0: int = 1996,
                               year1: int = 1997) -> pa.Table:
    """PRICE/VOLUME DECOMPOSITION of the revenue change between two
    ship years (index-number accounting): for parts traded in BOTH
    years, the Laspeyres price term sum_p floor(rev1_p * qty0_p //
    qty1_p) revalues the old basket at new unit prices, and the
    Paasche volume term revalues the new basket at old prices -- the
    "did revenue move because of price or because of volume" split,
    deterministic by per-part floored integer division.

    Scale shape: per-block (part, year, rev, qty) combiner, part
    co-partition pairing the two years vectorized, scalar fold.
    """
    from ..stages.partition import fit_partitions, partition_by

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_shipdate", "l_extendedprice",
                "l_quantity"])
    lo0 = int(np.datetime64(f"{year0}-01-01", "us").astype(np.int64))
    hi0 = int(np.datetime64(f"{year0 + 1}-01-01", "us")
              .astype(np.int64))
    lo1 = int(np.datetime64(f"{year1}-01-01", "us").astype(np.int64))
    hi1 = int(np.datetime64(f"{year1 + 1}-01-01", "us")
              .astype(np.int64))

    empty = pa.table({"part": pa.array([], type=pa.int64()),
                      "y": pa.array([], type=pa.int64()),
                      "rev": pa.array([], type=pa.int64()),
                      "qty": pa.array([], type=pa.int64())})

    def prep(t: pa.Table) -> pa.Table:
        us = pc.cast(t["l_shipdate"], pa.int64()).to_numpy(
            zero_copy_only=False)
        y = np.where((us >= lo0) & (us < hi0), 0,
                     np.where((us >= lo1) & (us < hi1), 1, -1))
        keep = y >= 0
        if not keep.any():
            return empty
        t2 = t.filter(pa.array(keep))
        rev = _int_units(t2["l_extendedprice"], 100)
        staged = pa.table({
            "part": pc.cast(t2["l_partkey"], pa.int64()),
            "y": pa.array(y[keep]),
            "rev": rev,
            "qty": pc.cast(t2["l_quantity"], pa.int64()),
        })
        g = staged.group_by(["part", "y"]).aggregate(
            [("rev", "sum"), ("qty", "sum")])
        return pa.table({"part": g["part"], "y": g["y"],
                         "rev": pc.cast(g["rev_sum"], pa.int64()),
                         "qty": pc.cast(g["qty_sum"], pa.int64())})

    out_empty = pa.table({c: pa.array([], type=pa.int64())
                          for c in ("n_parts", "rev0", "rev1",
                                    "laspeyres", "paasche")})

    def pair(t: pa.Table) -> pa.Table:
        part = t["part"].to_numpy(zero_copy_only=False)
        y = t["y"].to_numpy(zero_copy_only=False)
        rev = t["rev"].to_numpy(zero_copy_only=False)
        qty = t["qty"].to_numpy(zero_copy_only=False)
        # fold cross-block repeats per (part, y)
        comp = part * 2 + y
        order = np.argsort(comp)
        comp_s = comp[order]
        keep = np.ones(comp_s.size, dtype=bool)
        keep[1:] = comp_s[1:] != comp_s[:-1]
        grp = np.cumsum(keep) - 1
        n = int(grp[-1]) + 1 if comp_s.size else 0
        rev_f = np.zeros(n, dtype=np.int64)
        qty_f = np.zeros(n, dtype=np.int64)
        np.add.at(rev_f, grp, rev[order])
        np.add.at(qty_f, grp, qty[order])
        comp_u = comp_s[keep]
        part_u, y_u = comp_u // 2, comp_u % 2
        # pair years: consecutive rows with same part and y 0 then 1
        both = np.zeros(part_u.size, dtype=bool)
        both[:-1] = (part_u[1:] == part_u[:-1]) & (y_u[:-1] == 0) \
            & (y_u[1:] == 1)
        i0 = np.flatnonzero(both)
        i1 = i0 + 1
        lasp = sum(int(rev_f[b]) * int(qty_f[a]) // int(qty_f[b])
                   for a, b in zip(i0, i1))
        paas = sum(int(rev_f[a]) * int(qty_f[b]) // int(qty_f[a])
                   for a, b in zip(i0, i1))
        return pa.table({
            "n_parts": pa.array([int(i0.size)], type=pa.int64()),
            "rev0": pa.array([int(rev_f[i0].sum())], type=pa.int64()),
            "rev1": pa.array([int(rev_f[i1].sum())], type=pa.int64()),
            "laspeyres": pa.array([int(lasp)], type=pa.int64()),
            "paasche": pa.array([int(paas)], type=pa.int64()),
        })

    staged = li.map_batches(prep, batch_format="pyarrow",
                            zero_copy_batch=True)
    f = partition_by(staged, ["part"], fit_partitions(16), pair,
                     out_empty).to_pandas()
    rev0 = int(f["rev0"].sum()); rev1 = int(f["rev1"].sum())
    lasp = int(f["laspeyres"].sum()); paas = int(f["paasche"].sum())
    return pa.table({
        "n_parts_both_years": pa.array([int(f["n_parts"].sum())],
                                       type=pa.int64()),
        "rev0_cents": pa.array([rev0], type=pa.int64()),
        "rev1_cents": pa.array([rev1], type=pa.int64()),
        "laspeyres_cents": pa.array([lasp], type=pa.int64()),
        "paasche_cents": pa.array([paas], type=pa.int64()),
        "price_index_ppm": pa.array(
            [lasp * 1_000_000 // rev0 if rev0 else 0],
            type=pa.int64()),
        "volume_index_ppm": pa.array(
            [paas * 1_000_000 // rev0 if rev0 else 0],
            type=pa.int64()),
    })


PRICE_VOLUME_SQL = """
WITH py AS (
  SELECT l_partkey AS part,
         CASE WHEN l_shipdate >= TIMESTAMP '1996-01-01'
               AND l_shipdate < TIMESTAMP '1997-01-01' THEN 0
              WHEN l_shipdate >= TIMESTAMP '1997-01-01'
               AND l_shipdate < TIMESTAMP '1998-01-01' THEN 1
         END AS y,
         CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT))
              AS BIGINT) AS rev,
         CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT) AS qty
  FROM lineitem
  WHERE l_shipdate >= TIMESTAMP '1996-01-01'
    AND l_shipdate < TIMESTAMP '1998-01-01'
  GROUP BY 1, 2
), b AS (
  SELECT a.part, a.rev AS rev0, a.qty AS qty0,
         c.rev AS rev1, c.qty AS qty1
  FROM py a JOIN py c ON c.part = a.part AND a.y = 0 AND c.y = 1
), s AS (
  SELECT CAST(count(*) AS BIGINT) AS n_parts,
         CAST(sum(rev0) AS BIGINT) AS rev0,
         CAST(sum(rev1) AS BIGINT) AS rev1,
         CAST(sum(rev1 * qty0 // qty1) AS BIGINT) AS lasp,
         CAST(sum(rev0 * qty1 // qty0) AS BIGINT) AS paas
  FROM b
)
SELECT n_parts AS n_parts_both_years, rev0 AS rev0_cents,
       rev1 AS rev1_cents, lasp AS laspeyres_cents,
       paas AS paasche_cents,
       CAST(lasp * 1000000 // rev0 AS BIGINT) AS price_index_ppm,
       CAST(paas * 1000000 // rev0 AS BIGINT) AS volume_index_ppm
FROM s
"""


def ttr_quantiles_by_lang(sf_dir: str) -> pa.Table:
    """TYPE-TOKEN RATIO distribution per language: each document's
    distinct-token share in ppm, summarized as exact p25/p50/p75 per
    lang -- the per-document lexical-diversity screen (templated docs
    sit low) at distribution resolution rather than one mean.

    Scale shape: a vectorized per-doc TTR map (sorted-run distinct
    counting inside each block), then the grouped histogram-bisection
    quantile pass.
    """
    from .quantiles import exact_quantiles_grouped

    ds = _read(sf_dir, "documents", ["lang", "text"])

    empty = pa.table({"lang": pa.array([], type=pa.string()),
                      "ttr": pa.array([], type=pa.int64())})

    def ttr(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        toks = pc.split_pattern(t["text"], pattern=" ")
        flat = np.asarray(pc.list_flatten(toks).to_pylist(),
                          dtype=np.str_)
        nper = pc.list_value_length(toks).to_numpy(
            zero_copy_only=False).astype(np.int64)
        did = np.repeat(np.arange(t.num_rows, dtype=np.int64), nper)
        order = np.lexsort((flat, did))
        d_s, f_s = did[order], flat[order]
        new = np.ones(d_s.size, dtype=bool)
        new[1:] = (d_s[1:] != d_s[:-1]) | (f_s[1:] != f_s[:-1])
        distinct = np.bincount(d_s[new], minlength=t.num_rows)
        ttr_ppm = distinct * 1_000_000 // np.maximum(nper, 1)
        return pa.table({"lang": t["lang"],
                         "ttr": pa.array(ttr_ppm.astype(np.int64))})

    feats = ds.map_batches(ttr, batch_format="pyarrow",
                           zero_copy_batch=True)
    qt = exact_quantiles_grouped(feats, "ttr", "lang",
                                 [0.25, 0.5, 0.75]).to_pandas()
    piv = qt.pivot_table(index="lang", columns="q", values="value",
                         aggfunc="first").sort_index()
    return pa.table({
        "lang": pa.array(piv.index.tolist(), type=pa.string()),
        "ttr_p25": pa.array(piv[0.25].to_numpy(dtype=np.int64)),
        "ttr_p50": pa.array(piv[0.5].to_numpy(dtype=np.int64)),
        "ttr_p75": pa.array(piv[0.75].to_numpy(dtype=np.int64)),
    })


TTR_QUANTILES_SQL = """
WITH toks AS (
  SELECT doc_id, lang, unnest(string_split(text, ' ')) AS tok
  FROM documents
), per AS (
  SELECT doc_id, lang,
         CAST(count(DISTINCT tok) * 1000000 // count(*) AS BIGINT)
           AS ttr
  FROM toks GROUP BY 1, 2
)
SELECT lang,
       CAST(quantile_disc(ttr, 0.25) AS BIGINT) AS ttr_p25,
       CAST(quantile_disc(ttr, 0.5) AS BIGINT) AS ttr_p50,
       CAST(quantile_disc(ttr, 0.75) AS BIGINT) AS ttr_p75
FROM per GROUP BY 1 ORDER BY 1
"""


def copurchase_part_pairs(sf_dir: str, k: int = 10) -> pa.Table:
    """MARKET-BASKET part pairs: the top-k part pairs most often
    bought together in one order -- the classic co-purchase miner,
    distributed as an order-key co-partition with within-order pair
    expansion (bounded by the order fanout, never corpus-quadratic)
    and a pair groupby with per-block top-k prereduce.
    """
    from ..stages.partition import fit_partitions, partition_by

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "okey": pc.cast(t["l_orderkey"], pa.int64()),
            "part": pc.cast(t["l_partkey"], pa.int64()),
        })

    pair_empty = pa.table({"ab": pa.array([], type=pa.int64())})

    def expand(t: pa.Table) -> pa.Table:
        okey = t["okey"].to_numpy(zero_copy_only=False)
        part = t["part"].to_numpy(zero_copy_only=False)
        order = np.lexsort((part, okey))
        o_s, p_s = okey[order], part[order]
        keep = np.ones(o_s.size, dtype=bool)    # distinct (order, part)
        keep[1:] = (o_s[1:] != o_s[:-1]) | (p_s[1:] != p_s[:-1])
        o_s, p_s = o_s[keep], p_s[keep]
        n = o_s.size
        new = np.ones(n, dtype=bool)
        new[1:] = o_s[1:] != o_s[:-1]
        starts = np.flatnonzero(new)
        rlen = np.diff(np.append(starts, n))
        rank = np.arange(n) - np.repeat(starts, rlen)
        cnt_a = np.repeat(rlen, rlen) - rank - 1
        total = int(cnt_a.sum())
        if total == 0:
            return pair_empty
        a_idx = np.repeat(np.arange(n), cnt_a)
        excl = np.concatenate([[0], np.cumsum(cnt_a)[:-1]])
        b_idx = a_idx + (np.arange(total)
                         - np.repeat(excl, cnt_a)) + 1
        # one packed int64 pair key: the sort shuffle samples and
        # compares one numpy column; a/b are split after the count
        comp = p_s[a_idx] * (np.int64(1) << np.int64(31)) \
            + p_s[b_idx]
        return pa.table({"ab": pa.array(comp)})

    staged = li.map_batches(prep, batch_format="pyarrow",
                            zero_copy_batch=True)
    pairs = combine_agg(
        partition_by(staged, ["okey"], fit_partitions(16),
                     expand, pair_empty),
        ["ab"], lambda t: t, [("ab", "count")],
        lambda t: pa.table({"ab": t["ab"], "n": t["ab_count"]}))

    pre_empty = pa.table({"a": pa.array([], type=pa.int64()),
                          "b": pa.array([], type=pa.int64()),
                          "n": pa.array([], type=pa.int64())})

    def prereduce(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "n" not in t.column_names:
            return pre_empty
        ab = t["ab"].to_numpy(zero_copy_only=False)
        a = ab >> 31
        b = ab & ((1 << 31) - 1)
        n = t["n"].to_numpy(zero_copy_only=False)
        order = np.lexsort((b, a, -n))[:k]
        return pa.table({"a": pa.array(a[order].astype(np.int64)),
                         "b": pa.array(b[order].astype(np.int64)),
                         "n": pa.array(n[order].astype(np.int64))})

    pre = (pairs.map_batches(prereduce, batch_format="pyarrow")
           .to_pandas())
    order = np.lexsort((pre["b"].to_numpy(), pre["a"].to_numpy(),
                        -pre["n"].to_numpy()))[:k]
    return pa.table({
        "part_a": pa.array(pre["a"].to_numpy(dtype=np.int64)[order]),
        "part_b": pa.array(pre["b"].to_numpy(dtype=np.int64)[order]),
        "n_orders": pa.array(
            pre["n"].to_numpy(dtype=np.int64)[order]),
    })


COPURCHASE_PAIRS_SQL = """
WITH d AS (
  SELECT DISTINCT l_orderkey AS okey, l_partkey AS part
  FROM lineitem
), p AS (
  SELECT x.part AS a, y.part AS b, CAST(count(*) AS BIGINT) AS n
  FROM d x JOIN d y ON x.okey = y.okey AND x.part < y.part
  GROUP BY 1, 2
)
SELECT CAST(a AS BIGINT) AS part_a, CAST(b AS BIGINT) AS part_b,
       n AS n_orders
FROM p ORDER BY n DESC, a, b LIMIT 10
"""


def nation_share_of_region(sf_dir: str) -> pa.Table:
    """SHARE-OF-PARENT hierarchy rollup: each nation's supplier
    account-balance mass as a ppm share of its region's total -- the
    windowed percent-of-total every hierarchy report needs, with both
    dimension lookups broadcast (region and nation are tiny).

    Scale shape: supplier streams once against a ray.put nation->
    (region, name) lookup; one bounded groupby; O(nations) fold.
    """
    nation = _read(sf_dir, "nation",
                   ["n_nationkey", "n_name", "n_regionkey"]).to_pandas()
    region = _read(sf_dir, "region",
                   ["r_regionkey", "r_name"]).to_pandas()
    nk = pa.array(nation["n_nationkey"].to_numpy(dtype=np.int64))
    rk_of = nation["n_regionkey"].to_numpy(dtype=np.int64)
    lookup_ref = ray.put((nk, rk_of))

    sup = _read(sf_dir, "supplier", ["s_nationkey", "s_acctbal"])

    def balance(t: pa.Table) -> pa.Table:
        return pa.table({"nk": pc.cast(t["s_nationkey"], pa.int64()),
                         "bal": _int_units(t["s_acctbal"], 100)})

    agg = (combine_agg(sup, ["nk"], balance,
                       [("bal", "sum"), ("bal", "count")],
                       named("nk", "bal", "n"))
           .to_pandas().sort_values("nk"))
    nk_arr = agg["nk"].to_numpy(dtype=np.int64)
    bal = agg["bal"].to_numpy(dtype=np.int64)
    nsup = agg["n"].to_numpy(dtype=np.int64)
    nat_idx = {int(k): i for i, k in
               enumerate(nation["n_nationkey"])}
    rkeys = np.array([rk_of[nat_idx[int(k)]] for k in nk_arr],
                     dtype=np.int64)
    reg_tot = {}
    for r, b in zip(rkeys, bal):
        reg_tot[int(r)] = reg_tot.get(int(r), 0) + int(b)
    nname = {int(k): str(v) for k, v in
             zip(nation["n_nationkey"], nation["n_name"])}
    rname = {int(k): str(v) for k, v in
             zip(region["r_regionkey"], region["r_name"])}
    return pa.table({
        "r_name": pa.array([rname[int(r)] for r in rkeys],
                           type=pa.string()),
        "n_name": pa.array([nname[int(k)] for k in nk_arr],
                           type=pa.string()),
        "n_suppliers": pa.array(nsup),
        "bal_cents": pa.array(bal),
        "share_of_region_ppm": pa.array(
            [int(b) * 1_000_000 // reg_tot[int(r)]
             for b, r in zip(bal, rkeys)], type=pa.int64()),
    })


NATION_SHARE_SQL = """
WITH nb AS (
  SELECT n.n_regionkey, n.n_name, n.n_nationkey,
         CAST(count(*) AS BIGINT) AS n_suppliers,
         CAST(sum(CAST(round(s.s_acctbal * 100) AS BIGINT))
              AS BIGINT) AS bal
  FROM supplier s JOIN nation n ON n.n_nationkey = s.s_nationkey
  GROUP BY 1, 2, 3
), rt AS (
  SELECT n_regionkey, CAST(sum(bal) AS BIGINT) AS tot
  FROM nb GROUP BY 1
)
SELECT r.r_name, nb.n_name, nb.n_suppliers, nb.bal AS bal_cents,
       CAST(nb.bal * 1000000 // rt.tot AS BIGINT)
         AS share_of_region_ppm
FROM nb
JOIN rt USING (n_regionkey)
JOIN region r ON r.r_regionkey = nb.n_regionkey
ORDER BY nb.n_nationkey
"""


def youden_threshold_scan(sf_dir: str) -> pa.Table:
    """OPTIMAL FILTER CUT by Youden's J: scan every candidate token-
    count threshold and pick the one maximizing sensitivity +
    specificity - 1 against the gold label (n_chars above the corpus
    median) -- how a heuristic filter's knob should actually be set,
    exact because J comparisons reduce to the integer
    J_num = tp*neg - fp*pos over the fixed pos*neg denominator.

    Scale shape: one bisection pass for the gold median, one streamed
    (token-count -> (pos, neg)) histogram combiner over the bounded
    count domain, an O(distinct counts) driver scan.
    """
    from .quantiles import exact_quantiles
    from ..functions.text import token_count

    ds = _read(sf_dir, "documents", ["text", "n_chars"])
    med = int(exact_quantiles(ds, "n_chars", [0.5])["value"][0]
              .as_py())

    def labeled(t: pa.Table) -> pa.Table:
        toks = token_count(t["text"]).to_numpy(zero_copy_only=False)
        gold = (pc.cast(t["n_chars"], pa.int64())
                .to_numpy(zero_copy_only=False) > med)
        return pa.table({
            "tc": pa.array(toks.astype(np.int64)),
            "pos": pa.array(gold.astype(np.int64)),
            "neg": pa.array((~gold).astype(np.int64)),
        })

    h = (combine_agg(ds, ["tc"], labeled, [("pos", "sum"), ("neg", "sum")],
                     named("tc", "pos", "neg"))
         .to_pandas().sort_values("tc"))
    tc = h["tc"].to_numpy(dtype=np.int64)
    pos = h["pos"].to_numpy(dtype=np.int64)
    neg = h["neg"].to_numpy(dtype=np.int64)
    P, N = int(pos.sum()), int(neg.sum())
    # predicted positive = tokens >= threshold; scan thresholds at
    # each distinct count (suffix sums)
    tp = np.cumsum(pos[::-1])[::-1]
    fp = np.cumsum(neg[::-1])[::-1]
    j_num = tp.astype(object) * N - fp.astype(object) * P
    best = int(np.argmax(j_num))      # first max (lowest threshold)
    return pa.table({
        "n_pos": pa.array([P], type=pa.int64()),
        "n_neg": pa.array([N], type=pa.int64()),
        "best_threshold": pa.array([int(tc[best])], type=pa.int64()),
        "tp": pa.array([int(tp[best])], type=pa.int64()),
        "fp": pa.array([int(fp[best])], type=pa.int64()),
        "j_ppm": pa.array(
            [int(j_num[best]) * 1_000_000 // (P * N)],
            type=pa.int64()),
    })


YOUDEN_SCAN_SQL = """
WITH med AS (
  SELECT CAST(quantile_disc(n_chars, 0.5) AS BIGINT) AS m
  FROM documents
), d AS (
  SELECT CAST(length(regexp_extract_all(text, '[A-Za-z0-9]+'))
              AS BIGINT) AS tc,
         CASE WHEN n_chars > med.m THEN 1 ELSE 0 END AS pos
  FROM documents CROSS JOIN med
), tot AS (
  SELECT CAST(sum(pos) AS BIGINT) AS p,
         CAST(sum(1 - pos) AS BIGINT) AS n
  FROM d
), h AS (
  SELECT tc, CAST(sum(pos) AS BIGINT) AS pos,
         CAST(sum(1 - pos) AS BIGINT) AS neg
  FROM d GROUP BY 1
), suf AS (
  SELECT tc,
         sum(pos) OVER (ORDER BY tc DESC) AS tp,
         sum(neg) OVER (ORDER BY tc DESC) AS fp
  FROM h
), j AS (
  SELECT tc, tp, fp,
         CAST(tp AS HUGEINT) * tot.n - CAST(fp AS HUGEINT) * tot.p
           AS j_num
  FROM suf CROSS JOIN tot
), best AS (
  SELECT tc, tp, fp, j_num,
         row_number() OVER (ORDER BY j_num DESC, tc) AS rn
  FROM j
)
SELECT tot.p AS n_pos, tot.n AS n_neg,
       CAST(best.tc AS BIGINT) AS best_threshold,
       CAST(best.tp AS BIGINT) AS tp, CAST(best.fp AS BIGINT) AS fp,
       CAST(best.j_num * 1000000 // (CAST(tot.p AS HUGEINT) * tot.n)
            AS BIGINT) AS j_ppm
FROM best CROSS JOIN tot WHERE best.rn = 1
"""


def stickiness_quantiles(sf_dir: str) -> pa.Table:
    """BEHAVIORAL STICKINESS distribution: per user, the ppm share of
    consecutive-event transitions that REPEAT the previous event type,
    summarized at exact quartiles (users with >= 2 events) -- the
    habit-strength screen separating scripted streams from organic
    browsing.

    Scale shape: user co-partition ordered kernel -> per-user integer
    share -> one bisection quantile pass.
    """
    from ..stages.partition import fit_partitions, partition_by
    from .quantiles import exact_quantiles

    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id",
                                  "event_type"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": pc.cast(t["user_id"], pa.int64()),
            "ts": pc.cast(t["ts"], pa.int64()),
            "event_id": pc.cast(t["event_id"], pa.int64()),
            "event_type": t["event_type"],
        })

    empty = pa.table({"s": pa.array([], type=pa.int64())})

    def kernel(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        ts = t["ts"].to_numpy(zero_copy_only=False)
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        et = t["event_type"].to_numpy(zero_copy_only=False)
        ue, code = np.unique(et, return_inverse=True)
        order = np.lexsort((eid, ts, uid))
        u_s, c_s = uid[order], code[order]
        same_user = u_s[1:] == u_s[:-1]
        rep = same_user & (c_s[1:] == c_s[:-1])
        n_users = len(np.unique(u_s))
        nt = np.zeros(n_users, dtype=np.int64)
        nr = np.zeros(n_users, dtype=np.int64)
        _, grp = np.unique(u_s, return_inverse=True)
        np.add.at(nt, grp[1:][same_user], 1)
        np.add.at(nr, grp[1:][rep], 1)
        keep = nt >= 1
        share = nr[keep] * 1_000_000 // nt[keep]
        return pa.table({"s": pa.array(share.astype(np.int64))})

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    shares = partition_by(prepped, ["user_id"], fit_partitions(32),
                          kernel, empty).materialize()
    n = int(shares.count())
    qt = exact_quantiles(shares, "s", [0.25, 0.5, 0.75])
    vals = {float(qt["q"][i].as_py()): int(qt["value"][i].as_py())
            for i in range(qt.num_rows)}
    return pa.table({
        "n_users": pa.array([n], type=pa.int64()),
        "stick_p25": pa.array([vals[0.25]], type=pa.int64()),
        "stick_p50": pa.array([vals[0.5]], type=pa.int64()),
        "stick_p75": pa.array([vals[0.75]], type=pa.int64()),
    })


STICKINESS_SQL = """
WITH w AS (
  SELECT user_id, event_type,
         lag(event_type) OVER (PARTITION BY user_id
                               ORDER BY epoch_us(ts), event_id)
           AS prev
  FROM events
), pu AS (
  SELECT user_id,
         CAST(sum(CASE WHEN prev = event_type THEN 1 ELSE 0 END)
              * 1000000
              // count(prev) AS BIGINT) AS s
  FROM w WHERE prev IS NOT NULL GROUP BY 1
)
SELECT CAST(count(*) AS BIGINT) AS n_users,
       CAST(quantile_disc(s, 0.25) AS BIGINT) AS stick_p25,
       CAST(quantile_disc(s, 0.5) AS BIGINT) AS stick_p50,
       CAST(quantile_disc(s, 0.75) AS BIGINT) AS stick_p75
FROM pu
"""


_ZONEMAP_WINDOWS = ((1996, 1), (1997, 1), (1998, 1), (1999, 1))


def zonemap_pruning_audit(sf_dir: str, chunk_bits: int = 12) -> pa.Table:
    """ZONE-MAP PRUNING SIMULATION: with blocks defined as fixed
    l_orderkey ranges (deterministic, block-boundary immune), what
    fraction of blocks would a one-month shipdate filter have to scan
    given the NATURAL layout's per-block [min, max] shipdate spans,
    versus the lower bound a date-sorted layout would achieve -- the
    numbers that justify (or kill) a sort-before-write.

    Scale shape: per-block (chunk, min, max) partials, one bounded
    chunk groupby, O(chunks x windows) driver fold.
    """
    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])

    def prep(t: pa.Table) -> pa.Table:
        okey = t["l_orderkey"].to_numpy(zero_copy_only=False)
        return pa.table({"chunk": (okey >> chunk_bits).astype(np.int64),
                         "us": pc.cast(t["l_shipdate"], pa.int64())})

    agg = combine_agg(ds, ["chunk"], prep,
                      [("us", "min"), ("us", "max"), ("us", "count")],
                      named("chunk", "mn", "mx", "n")).to_pandas()
    mn = agg["mn"].to_numpy(dtype=np.int64)
    mx = agg["mx"].to_numpy(dtype=np.int64)
    nrow = agg["n"].to_numpy(dtype=np.int64)
    n_chunks = len(agg)
    total_rows = int(nrow.sum())
    chunk_rows = (total_rows + n_chunks - 1) // n_chunks
    out = {c: [] for c in ("win", "n_chunks", "chunks_scanned",
                           "rows_matching", "sorted_lower_bound")}
    for y, m in _ZONEMAP_WINDOWS:
        lo = int(np.datetime64(f"{y}-{m:02d}-01", "us")
                 .astype(np.int64))
        nxt_y, nxt_m = (y, m + 1) if m < 12 else (y + 1, 1)
        hi = int(np.datetime64(f"{nxt_y}-{nxt_m:02d}-01", "us")
                 .astype(np.int64))
        hit = (mx >= lo) & (mn < hi)
        # rows matching needs the actual filter count
        out["win"].append(f"{y}-{m:02d}")
        out["n_chunks"].append(n_chunks)
        out["chunks_scanned"].append(int(hit.sum()))
        out["rows_matching"].append(0)       # filled below
        out["sorted_lower_bound"].append(0)
    win_ref = [(int(np.datetime64(f"{y}-{m:02d}-01", "us")
                    .astype(np.int64)),
                int(np.datetime64((f"{y}-{m + 1:02d}-01"
                                   if m < 12 else f"{y + 1}-01-01"),
                                  "us").astype(np.int64)))
               for y, m in _ZONEMAP_WINDOWS]

    def window(t: pa.Table) -> pa.Table:
        """Each row's (disjoint) matching window, rows in none dropped."""
        us = pc.cast(t["l_shipdate"], pa.int64()).to_numpy(
            zero_copy_only=False)
        w = np.full(us.size, -1, dtype=np.int64)
        for i, (lo, hi) in enumerate(win_ref):
            w[(us >= lo) & (us < hi)] = i
        return pa.table({"w": w[w >= 0]})

    mt = combine_agg(ds, ["w"], window, [("w", "count")],
                     named("w", "n")).to_pandas()
    mrows = np.zeros(len(win_ref), dtype=np.int64)
    mrows[mt["w"].to_numpy(dtype=np.int64)] = \
        mt["n"].to_numpy(dtype=np.int64)
    for i in range(len(win_ref)):
        out["rows_matching"][i] = int(mrows[i])
        out["sorted_lower_bound"][i] = \
            (int(mrows[i]) + chunk_rows - 1) // chunk_rows
    return pa.table({
        "win": pa.array(out["win"], type=pa.string()),
        "n_chunks": pa.array(out["n_chunks"], type=pa.int64()),
        "chunks_scanned": pa.array(out["chunks_scanned"],
                                   type=pa.int64()),
        "rows_matching": pa.array(out["rows_matching"],
                                  type=pa.int64()),
        "sorted_lower_bound": pa.array(out["sorted_lower_bound"],
                                       type=pa.int64()),
    })


ZONEMAP_PRUNING_SQL = """
WITH c AS (
  SELECT l_orderkey >> 12 AS chunk,
         min(epoch_us(l_shipdate)) AS mn,
         max(epoch_us(l_shipdate)) AS mx,
         CAST(count(*) AS BIGINT) AS n
  FROM lineitem GROUP BY 1
), tot AS (
  SELECT CAST(count(*) AS BIGINT) AS n_chunks,
         CAST(sum(n) AS BIGINT) AS rows_
  FROM c
), w(win, lo, hi) AS (VALUES
  ('1996-01', epoch_us(TIMESTAMP '1996-01-01'),
   epoch_us(TIMESTAMP '1996-02-01')),
  ('1997-01', epoch_us(TIMESTAMP '1997-01-01'),
   epoch_us(TIMESTAMP '1997-02-01')),
  ('1998-01', epoch_us(TIMESTAMP '1998-01-01'),
   epoch_us(TIMESTAMP '1998-02-01')),
  ('1999-01', epoch_us(TIMESTAMP '1999-01-01'),
   epoch_us(TIMESTAMP '1999-02-01'))
), m AS (
  SELECT w.win,
         CAST(count(*) FILTER (WHERE epoch_us(l.l_shipdate) >= w.lo
                                 AND epoch_us(l.l_shipdate) < w.hi)
              AS BIGINT) AS rows_matching
  FROM w CROSS JOIN lineitem l GROUP BY 1
)
SELECT w.win, tot.n_chunks,
       CAST((SELECT count(*) FROM c
             WHERE c.mx >= w.lo AND c.mn < w.hi) AS BIGINT)
         AS chunks_scanned,
       m.rows_matching,
       CAST((m.rows_matching
             + (tot.rows_ + tot.n_chunks - 1) // tot.n_chunks - 1)
            // ((tot.rows_ + tot.n_chunks - 1) // tot.n_chunks)
            AS BIGINT) AS sorted_lower_bound
FROM w JOIN m USING (win) CROSS JOIN tot
ORDER BY 1
"""


def monetary_unit_sample(sf_dir: str, rate_per_dollar: int = 50) -> pa.Table:
    """MONETARY-UNIT SAMPLING (the audit-profession standard): each
    order is selected with probability proportional to its value --
    deterministically, by hash(orderkey) % 1e6 < value_cents *
    rate_per_dollar / 100 (capped at certainty) -- so big-ticket items
    are near-certain picks and the sampled dollars cover most of the
    population's.  Reports selection counts and the value coverage.

    Scale shape: one streamed combiner; hash parity makes the sample
    SQL-replicable.
    """
    from ..hashing import murmur64
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    M = 1_000_000

    empty = pa.table({c: pa.array([], type=pa.int64())
                      for c in ("n", "n_sel", "val", "val_sel")})

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        keys = t["o_orderkey"].to_numpy(zero_copy_only=False).astype(
            np.int64)
        cents = _int_units(t["o_totalprice"], 100).to_numpy(
            zero_copy_only=False)
        thr = np.minimum(cents * rate_per_dollar // 100, M)
        sel = (murmur64(keys) % np.uint64(M)).astype(np.int64) < thr
        return pa.table({
            "n": pa.array([t.num_rows], type=pa.int64()),
            "n_sel": pa.array([int(sel.sum())], type=pa.int64()),
            "val": pa.array([int(cents.sum())], type=pa.int64()),
            "val_sel": pa.array([int(cents[sel].sum())],
                                type=pa.int64()),
        })

    f = ds.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True).to_pandas()
    n, ns = int(f["n"].sum()), int(f["n_sel"].sum())
    v, vs = int(f["val"].sum()), int(f["val_sel"].sum())
    return pa.table({
        "n_orders": pa.array([n], type=pa.int64()),
        "n_selected": pa.array([ns], type=pa.int64()),
        "sel_rate_ppm": pa.array([ns * 1_000_000 // n],
                                 type=pa.int64()),
        "value_coverage_ppm": pa.array([vs * 1_000_000 // v],
                                       type=pa.int64()),
    })


MONETARY_UNIT_SQL = """
WITH o AS (
  SELECT CAST(round(o_totalprice * 100) AS BIGINT) AS cents,
         CASE WHEN CAST(hash(o_orderkey) % 1000000 AS BIGINT)
                   < least(CAST(round(o_totalprice * 100) AS BIGINT)
                           * 50 // 100, 1000000)
              THEN 1 ELSE 0 END AS sel
  FROM orders
)
SELECT CAST(count(*) AS BIGINT) AS n_orders,
       CAST(sum(sel) AS BIGINT) AS n_selected,
       CAST(sum(sel) * 1000000 // count(*) AS BIGINT)
         AS sel_rate_ppm,
       CAST(sum(CASE WHEN sel = 1 THEN cents ELSE 0 END) * 1000000
            // sum(cents) AS BIGINT) AS value_coverage_ppm
FROM o
"""


def split_leakage_report(sf_dir: str) -> pa.Table:
    """TRAIN/TEST SPLIT CONTAMINATION: exact-duplicate content
    clusters that STRADDLE the hash split (murmur(doc_id) % 10 -> 0-7
    train, 8-9 test) -- the leakage every eval number silently
    inflates on.  Counts straddling clusters and the affected test
    docs (test docs whose text also appears in train).

    Scale shape: distinct (content-hash, split, copies) combiner, hash
    co-partition, O(partitions) fold.
    """
    from ..hashing import md5_uint64, murmur64
    from ..stages.partition import fit_partitions, partition_by

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    empty = pa.table({"h": pa.array([], type=pa.int64()),
                      "split": pa.array([], type=pa.int64()),
                      "copies": pa.array([], type=pa.int64())})

    def mems(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        h = md5_uint64(t["text"].combine_chunks()).view(np.int64)
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(
            np.int64)
        split = ((murmur64(ids) % np.uint64(10)) >= 8).astype(
            np.int64)
        staged = pa.table({"h": pa.array(h),
                           "split": pa.array(split),
                           "copies": pa.array(
                               np.ones(t.num_rows, dtype=np.int64))})
        g = staged.group_by(["h", "split"]).aggregate(
            [("copies", "sum")])
        return pa.table({"h": g["h"], "split": g["split"],
                         "copies": pc.cast(g["copies_sum"],
                                           pa.int64())})

    out_empty = pa.table({c: pa.array([], type=pa.int64())
                          for c in ("n_clusters", "n_straddling",
                                    "test_docs", "leaked_test_docs")})

    def fold(t: pa.Table) -> pa.Table:
        h = t["h"].to_numpy(zero_copy_only=False)
        split = t["split"].to_numpy(zero_copy_only=False)
        cp = t["copies"].to_numpy(zero_copy_only=False)
        order = np.lexsort((split, h))
        h, split, cp = h[order], split[order], cp[order]
        keep = np.ones(h.size, dtype=bool)       # cross-block fold
        keep[1:] = (h[1:] != h[:-1]) | (split[1:] != split[:-1])
        grp = np.cumsum(keep) - 1
        cp_f = np.zeros(int(grp[-1]) + 1 if h.size else 0,
                        dtype=np.int64)
        np.add.at(cp_f, grp, cp)
        h_f, s_f = h[keep], split[keep]
        new = np.ones(h_f.size, dtype=bool)
        new[1:] = h_f[1:] != h_f[:-1]
        starts = np.flatnonzero(new)
        rlen = np.diff(np.append(starts, h_f.size))
        n_clusters = int(starts.size)
        straddle = rlen == 2                     # both splits present
        test_docs = int(cp_f[s_f == 1].sum())
        # leaked test docs: test copies within straddling clusters
        leaked = 0
        for s, ln in zip(starts[straddle].tolist(),
                         rlen[straddle].tolist()):
            for i in range(ln):
                if s_f[s + i] == 1:
                    leaked += int(cp_f[s + i])
        return pa.table({
            "n_clusters": pa.array([n_clusters], type=pa.int64()),
            "n_straddling": pa.array([int(straddle.sum())],
                                     type=pa.int64()),
            "test_docs": pa.array([test_docs], type=pa.int64()),
            "leaked_test_docs": pa.array([leaked], type=pa.int64()),
        })

    mem = ds.map_batches(mems, batch_format="pyarrow",
                         zero_copy_batch=True)
    f = partition_by(mem, ["h"], fit_partitions(16), fold,
                     out_empty).to_pandas()
    return pa.table({
        "n_clusters": pa.array([int(f["n_clusters"].sum())],
                               type=pa.int64()),
        "n_straddling": pa.array([int(f["n_straddling"].sum())],
                                 type=pa.int64()),
        "test_docs": pa.array([int(f["test_docs"].sum())],
                              type=pa.int64()),
        "leaked_test_docs": pa.array(
            [int(f["leaked_test_docs"].sum())], type=pa.int64()),
    })


SPLIT_LEAKAGE_SQL = """
WITH d AS (
  SELECT md5(text) AS h,
         CASE WHEN hash(doc_id) % 10 >= 8 THEN 1 ELSE 0 END AS split
  FROM documents
), cl AS (
  SELECT h,
         CAST(count(DISTINCT split) AS BIGINT) AS n_splits,
         CAST(sum(split) AS BIGINT) AS test_copies
  FROM d GROUP BY 1
)
SELECT CAST(count(*) AS BIGINT) AS n_clusters,
       CAST(sum(CASE WHEN n_splits = 2 THEN 1 ELSE 0 END) AS BIGINT)
         AS n_straddling,
       CAST(sum(test_copies) AS BIGINT) AS test_docs,
       CAST(COALESCE(sum(CASE WHEN n_splits = 2
                         THEN test_copies END), 0) AS BIGINT)
         AS leaked_test_docs
FROM cl
"""


def weekday_pattern_census(sf_dir: str, k: int = 8) -> pa.Table:
    """WEEKDAY-PATTERN CENSUS: users bucketed by the SET of weekdays
    they are ever active on (a 7-bit mask, Mon = bit 0), top-k
    patterns -- the behavioral fingerprint separating weekday-only
    workers from everyday bots, via the bitmask-fold pattern.

    Scale shape: per-user mask co-partition fold, <= 128-cell
    histogram, k-row output.
    """
    from ..stages.partition import fit_partitions, partition_by

    ds = _read(sf_dir, "events", ["user_id", "ts"])
    DAY_US = np.int64(86_400_000_000)

    def prep(t: pa.Table) -> pa.Table:
        us = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        dow = (us // DAY_US + 3) % 7
        staged = pa.table({
            "user_id": pc.cast(t["user_id"], pa.int64()),
            "dow": pa.array(dow.astype(np.int64)),
        })
        return staged.group_by(["user_id", "dow"]).aggregate([])

    empty = pa.table({"mask": pa.array([], type=pa.int64())})

    def masks(t: pa.Table) -> pa.Table:
        u = t["user_id"].to_numpy(zero_copy_only=False)
        d = t["dow"].to_numpy(zero_copy_only=False)
        order = np.argsort(u, kind="stable")
        u_s, d_s = u[order], d[order]
        new = np.ones(u_s.size, dtype=bool)
        new[1:] = u_s[1:] != u_s[:-1]
        grp = np.cumsum(new) - 1
        m = np.zeros(int(grp[-1]) + 1 if u_s.size else 0,
                     dtype=np.int64)
        np.bitwise_or.at(m, grp, np.int64(1) << d_s)
        return pa.table({"mask": pa.array(m)})

    agg = combine_agg(partition_by(ds.map_batches(prep, batch_format="pyarrow",
                                                  zero_copy_batch=True),
                                   ["user_id"], fit_partitions(32), masks,
                                   empty),
                      ["mask"], lambda t: t, [("mask", "count")],
                      named("mask", "n")).to_pandas()
    order = np.lexsort((agg["mask"].to_numpy(),
                        -agg["n"].to_numpy()))[:k]
    m = agg["mask"].to_numpy(dtype=np.int64)[order]
    n = agg["n"].to_numpy(dtype=np.int64)[order]
    return pa.table({
        "mask": pa.array(m),
        "n_days_active": pa.array(
            np.array([bin(int(x)).count("1") for x in m],
                     dtype=np.int64)),
        "n_users": pa.array(n),
    })


WEEKDAY_PATTERN_SQL = """
WITH d AS (
  SELECT DISTINCT user_id,
         (CAST(epoch_us(ts) AS BIGINT) // 86400000000 + 3) % 7
           AS dow
  FROM events
), m AS (
  SELECT user_id,
         CAST(sum(DISTINCT 1 << CAST(dow AS INT)) AS BIGINT) AS mask
  FROM d GROUP BY 1
), c AS (
  SELECT mask, CAST(count(*) AS BIGINT) AS n_users FROM m GROUP BY 1
)
SELECT mask, CAST(bit_count(mask) AS BIGINT) AS n_days_active,
       n_users
FROM c ORDER BY n_users DESC, mask LIMIT 8
"""


def new_part_revenue_share(sf_dir: str, year: int = 2000) -> pa.Table:
    """COLD-START ITEM SHARE: revenue in the target ship year split
    between parts FIRST SOLD that year and the back catalog -- the
    assortment-freshness number merchandising tracks, via a per-part
    first-sale combiner and one co-partition classification pass.

    Scale shape: per-block (part, min shipdate) partials, part
    groupby, then per-part classification local to the same partition
    (both facts derive from the one co-partitioned dataset).
    """
    from ..stages.partition import fit_partitions, partition_by

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_shipdate", "l_extendedprice"])
    lo = int(np.datetime64(f"{year}-01-01", "us").astype(np.int64))
    hi = int(np.datetime64(f"{year + 1}-01-01", "us")
             .astype(np.int64))

    def prep(t: pa.Table) -> pa.Table:
        us = pc.cast(t["l_shipdate"], pa.int64()).to_numpy(
            zero_copy_only=False)
        staged = pa.table({
            "part": pc.cast(t["l_partkey"], pa.int64()),
            "us": pa.array(us),
            "rev": _int_units(t["l_extendedprice"], 100),
        })
        return staged

    empty = pa.table({c: pa.array([], type=pa.int64())
                      for c in ("n_new_parts", "rev_new",
                                "rev_catalog")})

    def classify(t: pa.Table) -> pa.Table:
        part = t["part"].to_numpy(zero_copy_only=False)
        us = t["us"].to_numpy(zero_copy_only=False)
        rev = t["rev"].to_numpy(zero_copy_only=False)
        uk, inv = np.unique(part, return_inverse=True)
        first = np.full(uk.size, np.iinfo(np.int64).max,
                        dtype=np.int64)
        np.minimum.at(first, inv, us)
        is_new_part = first >= lo
        in_year = (us >= lo) & (us < hi)
        new_rev = int(rev[in_year & is_new_part[inv]].sum())
        cat_rev = int(rev[in_year & ~is_new_part[inv]].sum())
        n_new = int((is_new_part & (first < hi)).sum())
        return pa.table({
            "n_new_parts": pa.array([n_new], type=pa.int64()),
            "rev_new": pa.array([new_rev], type=pa.int64()),
            "rev_catalog": pa.array([cat_rev], type=pa.int64()),
        })

    f = partition_by(li.map_batches(prep, batch_format="pyarrow",
                                    zero_copy_batch=True),
                     ["part"], fit_partitions(16), classify,
                     empty).to_pandas()
    rn, rc = int(f["rev_new"].sum()), int(f["rev_catalog"].sum())
    return pa.table({
        "n_new_parts": pa.array([int(f["n_new_parts"].sum())],
                                type=pa.int64()),
        "rev_new_cents": pa.array([rn], type=pa.int64()),
        "rev_catalog_cents": pa.array([rc], type=pa.int64()),
        "new_share_ppm": pa.array(
            [rn * 1_000_000 // (rn + rc) if rn + rc else 0],
            type=pa.int64()),
    })


NEW_PART_SHARE_SQL = """
WITH fs AS (
  SELECT l_partkey, min(epoch_us(l_shipdate)) AS first_us
  FROM lineitem GROUP BY 1
), y AS (
  SELECT l.l_partkey,
         CAST(round(l.l_extendedprice * 100) AS BIGINT) AS rev,
         fs.first_us >= epoch_us(TIMESTAMP '2000-01-01') AS is_new
  FROM lineitem l JOIN fs ON fs.l_partkey = l.l_partkey
  WHERE l.l_shipdate >= TIMESTAMP '2000-01-01'
    AND l.l_shipdate < TIMESTAMP '2001-01-01'
)
SELECT (SELECT CAST(count(*) AS BIGINT) FROM fs
        WHERE first_us >= epoch_us(TIMESTAMP '2000-01-01')
          AND first_us < epoch_us(TIMESTAMP '2001-01-01'))
         AS n_new_parts,
       CAST(COALESCE(sum(CASE WHEN is_new THEN rev END), 0)
            AS BIGINT) AS rev_new_cents,
       CAST(COALESCE(sum(CASE WHEN NOT is_new THEN rev END), 0)
            AS BIGINT) AS rev_catalog_cents,
       CAST(COALESCE(sum(CASE WHEN is_new THEN rev END), 0) * 1000000
            // sum(rev) AS BIGINT) AS new_share_ppm
FROM y
"""


def session_entry_types(sf_dir: str, gap_minutes: int = 30) -> pa.Table:
    """SESSION ENTRY-POINT CENSUS: the first event type of every
    session (30-minute gap semantics) with counts and ppm shares --
    the landing-page analysis of clickstream work.

    Scale shape: the gap-sessionization kernel emits each session's
    entry type, folded by a bounded (type -> count) combiner.
    """
    from ..stages.partition import fit_partitions, partition_by

    gap_us = int(gap_minutes) * 60 * 1_000_000
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts",
                                  "event_type"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": pc.cast(t["user_id"], pa.int64()),
            "us": pc.cast(t["ts"], pa.int64()),
            "event_id": pc.cast(t["event_id"], pa.int64()),
            "event_type": t["event_type"],
        })

    empty = pa.table({"event_type": pa.array([], type=pa.string())})

    def kernel(t: pa.Table) -> pa.Table:
        u = t["user_id"].to_numpy(zero_copy_only=False)
        us = t["us"].to_numpy(zero_copy_only=False)
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, us, u))
        u_s, us_s = u[order], us[order]
        new_session = np.ones(u_s.size, dtype=bool)
        new_session[1:] = (u_s[1:] != u_s[:-1]) \
            | (us_s[1:] - us_s[:-1] > gap_us)
        return pa.table({"event_type": pc.take(
            t["event_type"], pa.array(order[new_session]))})

    agg = (combine_agg(partition_by(ds.map_batches(prep,
                                                   batch_format="pyarrow",
                                                   zero_copy_batch=True),
                                    ["user_id"], fit_partitions(32), kernel,
                                    empty),
                       ["event_type"], lambda t: t,
                       [("event_type", "count")],
                       named("event_type", "n"))
           .to_pandas().sort_values("event_type"))
    n = agg["n"].to_numpy(dtype=np.int64)
    tot = int(n.sum())
    return pa.table({
        "event_type": pa.array(agg["event_type"].tolist(),
                               type=pa.string()),
        "n_sessions": pa.array(n),
        "share_ppm": pa.array(n * 1_000_000 // tot),
    })


SESSION_ENTRY_SQL = """
WITH e AS (
  SELECT user_id, event_type,
         CAST(epoch_us(ts) AS BIGINT) AS us, event_id,
         lag(CAST(epoch_us(ts) AS BIGINT)) OVER (
           PARTITION BY user_id ORDER BY epoch_us(ts), event_id)
           AS prev
  FROM events
), entries AS (
  SELECT event_type FROM e
  WHERE prev IS NULL OR us - prev > 1800000000
), t AS (SELECT CAST(count(*) AS BIGINT) AS tot FROM entries)
SELECT event_type, CAST(count(*) AS BIGINT) AS n_sessions,
       CAST(count(*) * 1000000 // t.tot AS BIGINT) AS share_ppm
FROM entries CROSS JOIN t GROUP BY 1, t.tot ORDER BY 1
"""


def weekly_revenue_wow(sf_dir: str) -> pa.Table:
    """WEEKLY REVENUE with week-over-week change: epoch-week totals in
    exact cents and the WoW ratio in ppm (0 when no prior week) -- the
    default exec chart, gap-filled over the observed week span.

    Scale shape: one per-week combiner, O(weeks) driver fold.
    """
    ds = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])
    WEEK_US = np.int64(7) * 86_400_000_000

    def weekly(t: pa.Table) -> pa.Table:
        us = pc.cast(t["o_orderdate"], pa.int64()).to_numpy(
            zero_copy_only=False)
        return pa.table({"week": pa.array(us // WEEK_US),
                         "rev": _int_units(t["o_totalprice"], 100)})

    h = (combine_agg(ds, ["week"], weekly, [("rev", "sum")],
                     named("week", "rev"))
         .to_pandas().sort_values("week"))
    weeks = h["week"].to_numpy(dtype=np.int64)
    lo, hi = int(weeks.min()), int(weeks.max())
    grid = np.zeros(hi - lo + 1, dtype=np.int64)
    grid[weeks - lo] = h["rev"].to_numpy(dtype=np.int64)
    prev = np.concatenate([[0], grid[:-1]])
    wow = np.where(prev > 0,
                   grid * 1_000_000 // np.maximum(prev, 1), 0)
    return pa.table({
        "week": pa.array(np.arange(lo, hi + 1, dtype=np.int64)),
        "rev_cents": pa.array(grid),
        "wow_ppm": pa.array(wow.astype(np.int64)),
    })


WEEKLY_WOW_SQL = """
WITH w AS (
  SELECT CAST(epoch_us(o_orderdate) AS BIGINT) // 604800000000
           AS week,
         CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT))
              AS BIGINT) AS rev
  FROM orders GROUP BY 1
), b AS (SELECT min(week) AS lo, max(week) AS hi FROM w),
grid AS (
  SELECT g.week, CAST(COALESCE(w.rev, 0) AS BIGINT) AS rev
  FROM (SELECT unnest(generate_series(b.lo, b.hi)) AS week FROM b) g
  LEFT JOIN w ON w.week = g.week
), l AS (
  SELECT week, rev,
         lag(rev) OVER (ORDER BY week) AS prev
  FROM grid
)
SELECT CAST(week AS BIGINT) AS week, rev AS rev_cents,
       CAST(CASE WHEN prev > 0 THEN rev * 1000000 // prev
                 ELSE 0 END AS BIGINT) AS wow_ppm
FROM l ORDER BY 1
"""


def activity_span_quantiles(sf_dir: str) -> pa.Table:
    """USER ACTIVITY-SPAN distribution: hours between each user's
    first and last event, at exact quartiles -- the lifetime-length
    screen behind retention modeling (one-shot visitors sit at 0).

    Scale shape: per-user Min/Max groupby, one bisection pass.
    """
    from .quantiles import exact_quantiles

    ds = _read(sf_dir, "events", ["user_id", "ts"])
    HOUR_US = np.int64(3_600_000_000)

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "u": pc.cast(t["user_id"], pa.int64()),
            "us": pc.cast(t["ts"], pa.int64()),
        })

    def span(t: pa.Table) -> pa.Table:
        mn = t["us_min"].to_numpy(zero_copy_only=False)
        mx = t["us_max"].to_numpy(zero_copy_only=False)
        return pa.table({"h": pa.array((mx - mn) // HOUR_US)})

    spans = combine_agg(ds, ["u"], prep, [("us", "min"), ("us", "max")],
                        span).materialize()
    n = int(spans.count())
    qt = exact_quantiles(spans, "h", [0.25, 0.5, 0.75])
    vals = {float(qt["q"][i].as_py()): int(qt["value"][i].as_py())
            for i in range(qt.num_rows)}
    return pa.table({
        "n_users": pa.array([n], type=pa.int64()),
        "span_h_p25": pa.array([vals[0.25]], type=pa.int64()),
        "span_h_p50": pa.array([vals[0.5]], type=pa.int64()),
        "span_h_p75": pa.array([vals[0.75]], type=pa.int64()),
    })


ACTIVITY_SPAN_SQL = """
WITH pu AS (
  SELECT user_id,
         (max(CAST(epoch_us(ts) AS BIGINT))
          - min(CAST(epoch_us(ts) AS BIGINT))) // 3600000000 AS h
  FROM events GROUP BY 1
)
SELECT CAST(count(*) AS BIGINT) AS n_users,
       CAST(quantile_disc(h, 0.25) AS BIGINT) AS span_h_p25,
       CAST(quantile_disc(h, 0.5) AS BIGINT) AS span_h_p50,
       CAST(quantile_disc(h, 0.75) AS BIGINT) AS span_h_p75
FROM pu
"""


def priority_mix_by_year(sf_dir: str) -> pa.Table:
    """ORDER-PRIORITY COMPOSITION over time: per order year, each
    priority's ppm share -- the mix-shift chart that catches intake
    drift long before totals move.

    Scale shape: one (year, priority) combiner over a bounded grid.
    """
    ds = _read(sf_dir, "orders", ["o_orderdate", "o_orderpriority"])

    def yearly(t: pa.Table) -> pa.Table:
        us = pc.cast(t["o_orderdate"], pa.int64()).to_numpy(
            zero_copy_only=False)
        return pa.table({
            "year": (us.astype("datetime64[us]").astype("datetime64[Y]")
                     .astype(np.int64) + 1970),
            "prio": t["o_orderpriority"]})

    agg = (combine_agg(ds, ["year", "prio"], yearly, [("prio", "count")],
                       named("year", "prio", "n"))
           .to_pandas().sort_values(["year", "prio"]))
    ytot = agg.groupby("year")["n"].transform("sum").to_numpy(
        dtype=np.int64)
    n = agg["n"].to_numpy(dtype=np.int64)
    return pa.table({
        "year": pa.array(agg["year"].to_numpy(dtype=np.int64)),
        "o_orderpriority": pa.array(agg["prio"].tolist(),
                                    type=pa.string()),
        "n_orders": pa.array(n),
        "share_ppm": pa.array(n * 1_000_000 // ytot),
    })


PRIORITY_MIX_SQL = """
WITH c AS (
  SELECT CAST(year(o_orderdate) AS BIGINT) AS year,
         o_orderpriority,
         CAST(count(*) AS BIGINT) AS n
  FROM orders GROUP BY 1, 2
), t AS (
  SELECT year, CAST(sum(n) AS BIGINT) AS tot FROM c GROUP BY 1
)
SELECT c.year, c.o_orderpriority, c.n AS n_orders,
       CAST(c.n * 1000000 // t.tot AS BIGINT) AS share_ppm
FROM c JOIN t USING (year)
ORDER BY 1, 2
"""


def abc_classification(sf_dir: str) -> pa.Table:
    """ABC INVENTORY CLASSIFICATION: parts ranked by lifetime revenue;
    class A carries the first 80% of cumulative revenue (first-crossing
    part included), B the next 15%, C the tail -- the ops-research
    workhorse for stocking policy, exact by integer cumulative cents
    with (revenue desc, partkey) deterministic ranking.

    Scale shape: one per-part revenue groupby (the part dimension is
    cardinality-bounded by design), O(parts) driver cumsum.
    """
    li = _read(sf_dir, "lineitem", ["l_partkey", "l_extendedprice"])
    agg = combine_agg(
        li, ["part"],
        lambda t: pa.table({"part": pc.cast(t["l_partkey"], pa.int64()),
                            "rev": _int_units(t["l_extendedprice"], 100)}),
        [("rev", "sum")], named("part", "rev")).to_pandas()
    part = agg["part"].to_numpy(dtype=np.int64)
    rev = agg["rev"].to_numpy(dtype=np.int64)
    order = np.lexsort((part, -rev))
    rev_s = rev[order]
    cum = np.cumsum(rev_s.astype(object))
    total = int(cum[-1])
    # class boundaries on the cumulative share BEFORE this part:
    # A while prev_cum < 80%, B while prev_cum < 95%, else C
    prev = np.concatenate([[0], cum[:-1]])
    cls = np.where(prev * 100 < total * 80, 0,
                   np.where(prev * 100 < total * 95, 1, 2))
    out = {c: [] for c in ("abc_class", "n_parts", "rev_cents",
                           "rev_share_ppm")}
    for ci, name in enumerate(("A", "B", "C")):
        m = cls == ci
        r = int(rev_s[m].sum())
        out["abc_class"].append(name)
        out["n_parts"].append(int(m.sum()))
        out["rev_cents"].append(r)
        out["rev_share_ppm"].append(r * 1_000_000 // total)
    return pa.table({
        "abc_class": pa.array(out["abc_class"], type=pa.string()),
        "n_parts": pa.array(out["n_parts"], type=pa.int64()),
        "rev_cents": pa.array(out["rev_cents"], type=pa.int64()),
        "rev_share_ppm": pa.array(out["rev_share_ppm"],
                                  type=pa.int64()),
    })


ABC_CLASSIFICATION_SQL = """
WITH pr AS (
  SELECT l_partkey AS part,
         CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT))
              AS BIGINT) AS rev
  FROM lineitem GROUP BY 1
), r AS (
  SELECT part, rev,
         COALESCE(sum(rev) OVER (
           ORDER BY rev DESC, part
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
           AS prev
  FROM pr
), t AS (SELECT CAST(sum(rev) AS BIGINT) AS total FROM pr),
c AS (
  SELECT CASE WHEN prev * 100 < t.total * 80 THEN 'A'
              WHEN prev * 100 < t.total * 95 THEN 'B'
              ELSE 'C' END AS abc_class,
         rev
  FROM r CROSS JOIN t
)
SELECT abc_class, CAST(count(*) AS BIGINT) AS n_parts,
       CAST(sum(rev) AS BIGINT) AS rev_cents,
       CAST(sum(rev) * 1000000 // t.total AS BIGINT)
         AS rev_share_ppm
FROM c CROSS JOIN t GROUP BY 1, t.total ORDER BY 1
"""


def ship_lag_quantiles_by_priority(sf_dir: str) -> pa.Table:
    """FULFILLMENT LAG per priority: exact p50/p90 of the days between
    order date and each lineitem's ship date -- the SLA table that
    shows whether URGENT is actually faster, via an order-key
    co-partition join and the grouped bisection quantile pass.
    """
    from ..stages.partition import fit_partitions, partition_by
    from .quantiles import exact_quantiles_grouped

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderdate", "o_orderpriority"])
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])
    DAY_US = np.int64(86_400_000_000)

    def o_prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "key": pc.cast(t["o_orderkey"], pa.int64()),
            "us": pc.cast(t["o_orderdate"], pa.int64()),
            "prio": t["o_orderpriority"],
            "side": pa.array(np.zeros(t.num_rows, dtype=np.int64)),
        })

    def li_prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "key": pc.cast(t["l_orderkey"], pa.int64()),
            "us": pc.cast(t["l_shipdate"], pa.int64()),
            "prio": pa.array([""] * t.num_rows, type=pa.string()),
            "side": pa.array(np.ones(t.num_rows, dtype=np.int64)),
        })

    both = (orders.map_batches(o_prep, batch_format="pyarrow",
                               zero_copy_batch=True)
            .union(li.map_batches(li_prep, batch_format="pyarrow",
                                  zero_copy_batch=True)))

    empty = pa.table({"prio": pa.array([], type=pa.string()),
                      "lag": pa.array([], type=pa.int64())})

    def resolve(t: pa.Table) -> pa.Table:
        key = t["key"].to_numpy(zero_copy_only=False)
        us = t["us"].to_numpy(zero_copy_only=False)
        side = t["side"].to_numpy(zero_copy_only=False)
        prio = np.asarray(t["prio"].to_pylist(), dtype=np.str_)
        ok_, ous, op = (key[side == 0], us[side == 0],
                        prio[side == 0])
        lk, lus = key[side == 1], us[side == 1]
        if ok_.size == 0 or lk.size == 0:
            return empty
        o_order = np.argsort(ok_)
        ok_s, ous_s, op_s = (ok_[o_order], ous[o_order],
                             op[o_order])
        pos = np.searchsorted(ok_s, lk)
        safe = np.minimum(pos, ok_s.size - 1)
        has = (pos < ok_s.size) & (ok_s[safe] == lk)
        # divide the positive timestamps FIRST (day floor), then
        # subtract -- a negative lag would floor vs truncate
        # differently between numpy and DuckDB
        lag = lus[has] // DAY_US - ous_s[safe[has]] // DAY_US
        return pa.table({
            "prio": pa.array(op_s[safe[has]].tolist(),
                             type=pa.string()),
            "lag": pa.array(lag.astype(np.int64))})

    lags = partition_by(both, ["key"], fit_partitions(16), resolve,
                        empty)
    qt = exact_quantiles_grouped(lags, "lag", "prio",
                                 [0.5, 0.9]).to_pandas()
    piv = qt.pivot_table(index="prio", columns="q", values="value",
                         aggfunc="first").sort_index()
    return pa.table({
        "o_orderpriority": pa.array(piv.index.tolist(),
                                    type=pa.string()),
        "lag_days_p50": pa.array(piv[0.5].to_numpy(dtype=np.int64)),
        "lag_days_p90": pa.array(piv[0.9].to_numpy(dtype=np.int64)),
    })


SHIP_LAG_SQL = """
WITH j AS (
  SELECT o.o_orderpriority AS prio,
         CAST(epoch_us(l.l_shipdate) AS BIGINT) // 86400000000
          - CAST(epoch_us(o.o_orderdate) AS BIGINT) // 86400000000
           AS lag
  FROM lineitem l JOIN orders o ON o.o_orderkey = l.l_orderkey
)
SELECT prio AS o_orderpriority,
       CAST(quantile_disc(lag, 0.5) AS BIGINT) AS lag_days_p50,
       CAST(quantile_disc(lag, 0.9) AS BIGINT) AS lag_days_p90
FROM j GROUP BY 1 ORDER BY 1
"""


def daily_type_entropy(sf_dir: str) -> pa.Table:
    """DAILY BEHAVIOR-DIVERSITY SERIES: Shannon entropy of the event-
    type mix per day in exact micro-nats (per-term ln-floor parity) --
    a collapsing entropy curve flags traffic turning single-purpose
    (incident, bot flood) even when volume holds.

    Scale shape: one (day, type) combiner over a bounded grid,
    O(days x types) driver fold.
    """
    ds = _read(sf_dir, "events", ["event_type", "ts"])
    DAY_US = np.int64(86_400_000_000)

    def daily(t: pa.Table) -> pa.Table:
        us = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({"day": pa.array(us // DAY_US),
                         "event_type": t["event_type"]})

    grid = combine_agg(ds, ["day", "event_type"], daily,
                       [("event_type", "count")],
                       named("day", "event_type", "n")).to_pandas()
    out = {c: [] for c in ("day", "n_events", "entropy_micronats")}
    for day, g in grid.groupby("day", sort=True):
        c = g["n"].to_numpy(dtype=np.int64).astype(np.float64)
        n = float(c.sum())
        terms = np.floor((c / n) * np.log(n / c) * 1_000_000.0)
        out["day"].append(int(day))
        out["n_events"].append(int(n))
        out["entropy_micronats"].append(int(terms.sum()))
    return pa.table({
        "day": pa.array(out["day"], type=pa.int64()),
        "n_events": pa.array(out["n_events"], type=pa.int64()),
        "entropy_micronats": pa.array(out["entropy_micronats"],
                                      type=pa.int64()),
    })


DAILY_TYPE_ENTROPY_SQL = """
WITH c AS (
  SELECT CAST(epoch_us(ts) AS BIGINT) // 86400000000 AS day,
         event_type, CAST(count(*) AS BIGINT) AS n
  FROM events GROUP BY 1, 2
), t AS (
  SELECT day, CAST(sum(n) AS BIGINT) AS tot FROM c GROUP BY 1
)
SELECT CAST(c.day AS BIGINT) AS day, t.tot AS n_events,
       CAST(sum(CAST(floor((CAST(c.n AS DOUBLE)
                            / CAST(t.tot AS DOUBLE))
                           * ln(CAST(t.tot AS DOUBLE)
                                / CAST(c.n AS DOUBLE))
                           * 1000000.0) AS BIGINT)) AS BIGINT)
         AS entropy_micronats
FROM c JOIN t USING (day)
GROUP BY 1, 2 ORDER BY 1
"""


def part_rank_movers(sf_dir: str, year0: int = 1999,
                     year1: int = 2000, k: int = 5) -> pa.Table:
    """BIGGEST RANK MOVERS: the parts whose revenue RANK shifted most
    between two ship years (both-year parts; rank by revenue desc,
    partkey tiebreak) -- the assortment-churn leaderboard behind
    "what changed this year" reviews.

    Scale shape: one (part, year) revenue groupby over the bounded
    part dimension, O(parts) driver ranking.
    """
    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_shipdate", "l_extendedprice"])
    lo0 = int(np.datetime64(f"{year0}-01-01", "us").astype(np.int64))
    hi0 = int(np.datetime64(f"{year0 + 1}-01-01", "us")
              .astype(np.int64))
    lo1 = int(np.datetime64(f"{year1}-01-01", "us").astype(np.int64))
    hi1 = int(np.datetime64(f"{year1 + 1}-01-01", "us")
              .astype(np.int64))

    def prep(t: pa.Table) -> pa.Table:
        us = pc.cast(t["l_shipdate"], pa.int64()).to_numpy(
            zero_copy_only=False)
        y = np.where((us >= lo0) & (us < hi0), 0,
                     np.where((us >= lo1) & (us < hi1), 1, -1))
        keep = y >= 0
        t2 = t.filter(pa.array(keep))
        return pa.table({
            "part": pc.cast(t2["l_partkey"], pa.int64()),
            "y": pa.array(y[keep]),
            "rev": _int_units(t2["l_extendedprice"], 100),
        })

    agg = combine_agg(li, ["part", "y"], prep, [("rev", "sum")],
                      named("part", "y", "rev")).to_pandas()
    g0 = agg[agg["y"] == 0]
    g1 = agg[agg["y"] == 1]
    both = set(g0["part"]).intersection(set(g1["part"]))

    def ranks(g):
        gg = g[g["part"].isin(both)]
        p = gg["part"].to_numpy(dtype=np.int64)
        r = gg["rev"].to_numpy(dtype=np.int64)
        order = np.lexsort((p, -r))
        rk = np.empty(order.size, dtype=np.int64)
        rk[order] = np.arange(1, order.size + 1)
        return dict(zip(p.tolist(), rk.tolist()))

    r0, r1 = ranks(g0), ranks(g1)
    parts = sorted(both)
    shift = [(abs(r0[p] - r1[p]), p) for p in parts]
    shift.sort(key=lambda x: (-x[0], x[1]))
    top = shift[:k]
    return pa.table({
        "part": pa.array([p for _, p in top], type=pa.int64()),
        "rank0": pa.array([r0[p] for _, p in top], type=pa.int64()),
        "rank1": pa.array([r1[p] for _, p in top], type=pa.int64()),
        "abs_shift": pa.array([s for s, _ in top], type=pa.int64()),
    })


PART_RANK_MOVERS_SQL = """
WITH py AS (
  SELECT l_partkey AS part,
         CASE WHEN l_shipdate >= TIMESTAMP '1999-01-01'
               AND l_shipdate < TIMESTAMP '2000-01-01' THEN 0
              WHEN l_shipdate >= TIMESTAMP '2000-01-01'
               AND l_shipdate < TIMESTAMP '2001-01-01' THEN 1
         END AS y,
         CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT))
              AS BIGINT) AS rev
  FROM lineitem
  WHERE l_shipdate >= TIMESTAMP '1999-01-01'
    AND l_shipdate < TIMESTAMP '2001-01-01'
  GROUP BY 1, 2
), b AS (
  SELECT part FROM py GROUP BY 1 HAVING count(*) = 2
), r AS (
  SELECT py.part, py.y,
         CAST(row_number() OVER (PARTITION BY py.y
                                 ORDER BY py.rev DESC, py.part)
              AS BIGINT) AS rk
  FROM py JOIN b USING (part)
), p AS (
  SELECT r0.part, r0.rk AS rank0, r1.rk AS rank1,
         abs(r0.rk - r1.rk) AS abs_shift
  FROM r r0 JOIN r r1 ON r1.part = r0.part
  WHERE r0.y = 0 AND r1.y = 1
)
SELECT CAST(part AS BIGINT) AS part, rank0, rank1,
       CAST(abs_shift AS BIGINT) AS abs_shift
FROM p ORDER BY abs_shift DESC, part LIMIT 5
"""


def key_account_risk_by_nation(sf_dir: str, k: int = 3) -> pa.Table:
    """KEY-ACCOUNT CONCENTRATION per nation: the ppm share of each
    nation's order revenue held by its top-k customers -- the sales-
    risk table (one defection nukes the region?).  Customer revenue
    joins its nation via a custkey co-partition; the per-nation top-k
    folds from (nation, customer) totals over the bounded nation
    domain.
    """
    from ..stages.partition import fit_partitions, partition_by

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])

    def o_prep(t: pa.Table) -> pa.Table:
        staged = pa.table({
            "key": pc.cast(t["o_custkey"], pa.int64()),
            "rev": _int_units(t["o_totalprice"], 100),
            "side": pa.array(np.ones(t.num_rows, dtype=np.int64)),
        })
        g = staged.group_by(["key", "side"]).aggregate(
            [("rev", "sum")])
        return pa.table({"key": g["key"],
                         "rev": pc.cast(g["rev_sum"], pa.int64()),
                         "side": g["side"]})

    def c_prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "key": pc.cast(t["c_custkey"], pa.int64()),
            "rev": pc.cast(t["c_nationkey"], pa.int64()),  # carries nk
            "side": pa.array(np.zeros(t.num_rows, dtype=np.int64)),
        })

    both = (orders.map_batches(o_prep, batch_format="pyarrow",
                               zero_copy_batch=True)
            .union(cust.map_batches(c_prep, batch_format="pyarrow",
                                    zero_copy_batch=True)))

    empty = pa.table({"nk": pa.array([], type=pa.int64()),
                      "rev": pa.array([], type=pa.int64())})

    def resolve(t: pa.Table) -> pa.Table:
        key = t["key"].to_numpy(zero_copy_only=False)
        rev = t["rev"].to_numpy(zero_copy_only=False)
        side = t["side"].to_numpy(zero_copy_only=False)
        ck, cn = key[side == 0], rev[side == 0]
        ok_, orv = key[side == 1], rev[side == 1]
        if ck.size == 0 or ok_.size == 0:
            return empty
        # fold per-block order partials per customer
        uk, inv = np.unique(ok_, return_inverse=True)
        ur = np.bincount(inv, weights=orv.astype(np.float64)) \
            .astype(np.int64)
        order = np.argsort(ck)
        ck_s, cn_s = ck[order], cn[order]
        pos = np.searchsorted(ck_s, uk)
        safe = np.minimum(pos, ck_s.size - 1)
        has = (pos < ck_s.size) & (ck_s[safe] == uk)
        return pa.table({"nk": pa.array(cn_s[safe[has]]
                                        .astype(np.int64)),
                         "rev": pa.array(ur[has])})

    per_cust = partition_by(both, ["key"], fit_partitions(16),
                            resolve, empty)

    agg_empty = pa.table({"nk": pa.array([], type=pa.int64()),
                          "topk": pa.array([], type=pa.int64()),
                          "tot": pa.array([], type=pa.int64()),
                          "n": pa.array([], type=pa.int64())})

    def per_nation(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "rev" not in t.column_names:
            return agg_empty
        nk = t["nk"].to_numpy(zero_copy_only=False)
        rev = t["rev"].to_numpy(zero_copy_only=False)
        out = {c: [] for c in ("nk", "topk", "tot", "n")}
        for u in np.unique(nk):
            r = np.sort(rev[nk == u])[::-1]
            out["nk"].append(int(u))
            out["topk"].append(int(r[:k].sum()))
            out["tot"].append(int(r.sum()))
            out["n"].append(int(r.size))
        return pa.table({c: pa.array(v, type=pa.int64())
                         for c, v in out.items()})

    # customers of one nation may span partitions: re-co-partition by
    # nation before the per-nation top-k
    agg = (partition_by(per_cust, ["nk"], fit_partitions(16),
                        per_nation, agg_empty)
           .to_pandas().sort_values("nk"))
    topk = agg["topk"].to_numpy(dtype=np.int64)
    tot = agg["tot"].to_numpy(dtype=np.int64)
    return pa.table({
        "nationkey": pa.array(agg["nk"].to_numpy(dtype=np.int64)),
        "n_customers": pa.array(agg["n"].to_numpy(dtype=np.int64)),
        "rev_cents": pa.array(tot),
        "topk_rev_cents": pa.array(topk),
        "topk_share_ppm": pa.array(topk * 1_000_000 // tot),
    })


KEY_ACCOUNT_SQL = """
WITH pc AS (
  SELECT c.c_nationkey AS nk, o.o_custkey,
         CAST(sum(CAST(round(o.o_totalprice * 100) AS BIGINT))
              AS BIGINT) AS rev
  FROM orders o JOIN customer c ON c.c_custkey = o.o_custkey
  GROUP BY 1, 2
), r AS (
  SELECT nk, rev,
         row_number() OVER (PARTITION BY nk
                            ORDER BY rev DESC, o_custkey) AS rn
  FROM pc
)
SELECT CAST(nk AS BIGINT) AS nationkey,
       CAST(count(*) AS BIGINT) AS n_customers,
       CAST(sum(rev) AS BIGINT) AS rev_cents,
       CAST(sum(CASE WHEN rn <= 3 THEN rev ELSE 0 END) AS BIGINT)
         AS topk_rev_cents,
       CAST(sum(CASE WHEN rn <= 3 THEN rev ELSE 0 END) * 1000000
            // sum(rev) AS BIGINT) AS topk_share_ppm
FROM r GROUP BY 1 ORDER BY 1
"""


def monthly_seasonal_index(sf_dir: str) -> pa.Table:
    """MONTHLY SEASONAL INDEX: each calendar month's revenue relative
    to the all-month average, in ppm (index 1e6 = a typical month) --
    the first seasonality table a planner builds, exact by integer
    cross-multiplication (rev_m * 12 * 1e6 // total).

    Scale shape: one 12-cell combiner.
    """
    ds = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def monthly(t: pa.Table) -> pa.Table:
        us = pc.cast(t["o_orderdate"], pa.int64()).to_numpy(
            zero_copy_only=False)
        months = (us.astype("datetime64[us]").astype("datetime64[M]")
                  .astype(np.int64) % 12)
        return pa.table({"month": pa.array(months + 1),
                         "rev": _int_units(t["o_totalprice"], 100)})

    agg = combine_agg(ds, ["month"], monthly, [("rev", "sum")],
                      named("month", "rev")).to_pandas()
    rev = np.zeros(12, dtype=np.int64)
    rev[agg["month"].to_numpy(dtype=np.int64) - 1] = \
        agg["rev"].to_numpy(dtype=np.int64)
    tot = int(rev.sum())
    return pa.table({
        "month": pa.array(np.arange(1, 13, dtype=np.int64)),
        "rev_cents": pa.array(rev),
        "seasonal_index_ppm": pa.array(
            rev.astype(object) * 12 * 1_000_000 // tot),
    })


MONTHLY_SEASONAL_SQL = """
WITH m AS (
  SELECT CAST(month(o_orderdate) AS BIGINT) AS month,
         CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT))
              AS BIGINT) AS rev
  FROM orders GROUP BY 1
), t AS (SELECT CAST(sum(rev) AS BIGINT) AS tot FROM m),
grid AS (SELECT unnest(generate_series(1, 12)) AS month)
SELECT CAST(grid.month AS BIGINT) AS month,
       CAST(COALESCE(m.rev, 0) AS BIGINT) AS rev_cents,
       CAST(COALESCE(m.rev, 0) * 12 * 1000000 // t.tot AS BIGINT)
         AS seasonal_index_ppm
FROM grid LEFT JOIN m USING (month) CROSS JOIN t
ORDER BY 1
"""


def token_codegree_topk(sf_dir: str, k: int = 10) -> pa.Table:
    """WORD-GRAPH DEGREE: tokens ranked by how many DISTINCT tokens
    ever appear adjacent to them (either side) -- connector words rank
    high, content words low; the adjacency-degree view of the corpus
    the PMI query's lift view complements.

    Scale shape: distinct adjacent-pair combiner over the bounded
    vocabulary (pairs deduped on int64 FINGERPRINT pairs -- the token
    stream never round-trips through Python strings, VERDICT r3 item
    3), fingerprint co-partition, per-token distinct-neighbor fold
    (fp-keyed run counting; only the per-partition UNIQUE tokens are
    materialized as strings for the tie-break), top-k prereduce.
    """
    from ..functions.text import fingerprint64
    from ..stages.partition import fit_partitions, partition_by

    docs = _read(sf_dir, "documents", ["text"])

    empty = pa.table({"tok": pa.array([], type=pa.string()),
                      "fp": pa.array([], type=pa.int64()),
                      "nfp": pa.array([], type=pa.int64())})

    def pairs(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t["text"], pattern=" ")
        flat = pc.list_flatten(toks).combine_chunks()
        nper = pc.list_value_length(toks).to_numpy(
            zero_copy_only=False).astype(np.int64)
        if len(flat) < 2:
            return empty
        fp = fingerprint64(flat).to_numpy(zero_copy_only=False)
        ends = np.cumsum(nper)
        valid = np.ones(len(flat), dtype=bool)
        valid[ends - 1] = False
        ia = np.flatnonzero(valid[:-1])
        ib = ia + 1
        # symmetric adjacency: count each side as the center once
        ctr = np.concatenate([ia, ib])
        nbr = np.concatenate([ib, ia])
        cf, nf = fp[ctr], fp[nbr]
        order = np.lexsort((nf, cf))
        cf_s, nf_s = cf[order], nf[order]
        keep = np.ones(cf_s.size, dtype=bool)
        keep[1:] = (cf_s[1:] != cf_s[:-1]) | (nf_s[1:] != nf_s[:-1])
        sel = order[keep]
        return pa.table({
            "tok": pc.take(flat, pa.array(ctr[sel])),
            "fp": pa.array(cf[sel]),
            "nfp": pa.array(nf[sel])})

    deg_empty = pa.table({"tok": pa.array([], type=pa.string()),
                          "deg": pa.array([], type=pa.int64())})

    def degree(t: pa.Table) -> pa.Table:
        tf = t["fp"].to_numpy(zero_copy_only=False)
        nf = t["nfp"].to_numpy(zero_copy_only=False)
        order = np.lexsort((nf, tf))
        tf_s, nf_s = tf[order], nf[order]
        keep = np.ones(tf_s.size, dtype=bool)     # cross-block dedup
        keep[1:] = (tf_s[1:] != tf_s[:-1]) | (nf_s[1:] != nf_s[:-1])
        tfk = tf_s[keep]
        idx_kept = order[keep]
        new = np.ones(tfk.size, dtype=bool)
        new[1:] = tfk[1:] != tfk[:-1]
        starts = np.flatnonzero(new)
        cnt = np.diff(np.append(starts, tfk.size))
        # strings only for the per-partition unique tokens (tie-break)
        ut = np.asarray(
            pc.take(t["tok"], pa.array(idx_kept[starts])).to_pylist(),
            dtype=np.str_)
        order2 = np.lexsort((ut, -cnt))[:k]
        return pa.table({"tok": pa.array(ut[order2].tolist(),
                                         type=pa.string()),
                         "deg": pa.array(cnt[order2]
                                         .astype(np.int64))})

    mem = docs.map_batches(pairs, batch_format="pyarrow",
                           zero_copy_batch=True)
    pre = (partition_by(mem, ["fp"], fit_partitions(16), degree,
                        deg_empty).to_pandas())
    order = np.lexsort((pre["tok"].to_numpy(),
                        -pre["deg"].to_numpy()))[:k]
    return pa.table({
        "tok": pa.array(pre["tok"].to_numpy()[order].tolist(),
                        type=pa.string()),
        "degree": pa.array(pre["deg"].to_numpy(
            dtype=np.int64)[order]),
    })


TOKEN_CODEGREE_SQL = """
WITH tk AS (
  SELECT doc_id, string_split(text, ' ') AS toks FROM documents
), e AS (
  SELECT doc_id, unnest(toks) AS tok,
         unnest(generate_series(1, len(toks))) AS pos
  FROM tk
), adj AS (
  SELECT a.tok AS tok, b.tok AS nb
  FROM e a JOIN e b ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
  UNION
  SELECT b.tok, a.tok
  FROM e a JOIN e b ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
)
SELECT tok, CAST(count(DISTINCT nb) AS BIGINT) AS degree
FROM adj GROUP BY 1
ORDER BY degree DESC, tok LIMIT 10
"""


_QTY_BUCKETS = ((1, 10), (11, 20), (21, 30), (31, 40), (41, 50))


def discount_by_qty_bucket(sf_dir: str) -> pa.Table:
    """PRICING-POLICY AUDIT: mean discount (basis points) per quantity
    bucket -- does volume actually buy a better rate?  Exact integer
    basis-point sums over a 5-bucket combiner.
    """
    ds = _read(sf_dir, "lineitem", ["l_quantity", "l_discount"])

    def bucketed(t: pa.Table) -> pa.Table:
        q = pc.cast(t["l_quantity"], pa.int64()).to_numpy(
            zero_copy_only=False)
        d = t["l_discount"].to_numpy(zero_copy_only=False)
        return pa.table({"b": np.clip((q - 1) // 10, 0, 4),
                         "bp": np.floor(d * 10_000.0 + 0.5)
                         .astype(np.int64)})

    agg = combine_agg(ds, ["b"], bucketed, [("bp", "count"), ("bp", "sum")],
                      named("b", "n", "bp")).to_pandas()
    n = np.zeros(5, dtype=np.int64)
    bp = np.zeros(5, dtype=np.int64)
    n[agg["b"].to_numpy()] = agg["n"].to_numpy()
    bp[agg["b"].to_numpy()] = agg["bp"].to_numpy()
    los = [lo for lo, _ in _QTY_BUCKETS]
    his = [hi for _, hi in _QTY_BUCKETS]
    return pa.table({
        "qty_lo": pa.array(np.array(los, dtype=np.int64)),
        "qty_hi": pa.array(np.array(his, dtype=np.int64)),
        "n_lineitems": pa.array(n),
        "mean_discount_bp_x100": pa.array(
            [int(s) * 100 // int(c) if c else 0
             for s, c in zip(bp, n)], type=pa.int64()),
    })


DISCOUNT_QTY_SQL = """
WITH b AS (
  SELECT least(greatest((CAST(l_quantity AS BIGINT) - 1) // 10, 0),
               4) AS b,
         CAST(floor(l_discount * 10000.0 + 0.5) AS BIGINT) AS bp
  FROM lineitem
), g AS (
  SELECT b, CAST(count(*) AS BIGINT) AS n,
         CAST(sum(bp) AS BIGINT) AS sbp
  FROM b GROUP BY 1
)
SELECT CAST(b * 10 + 1 AS BIGINT) AS qty_lo,
       CAST(b * 10 + 10 AS BIGINT) AS qty_hi,
       n AS n_lineitems,
       CAST(sbp * 100 // n AS BIGINT) AS mean_discount_bp_x100
FROM g ORDER BY 1
"""


def _incr_checkpoint_root(sf_dir: str, cutoff_day: int) -> str:
    # lineage key includes the input file's (size, mtime): a regenerated
    # orders table at the same path gets a FRESH base build instead of a
    # stale checkpoint (the state/checkpoint.py lineage contract)
    import hashlib
    import os
    try:
        st = os.stat(f"{sf_dir}/orders.parquet")
        stamp = f"{st.st_size}|{int(st.st_mtime)}"
    except OSError:
        stamp = "missing"
    key = hashlib.md5(
        f"{sf_dir}|{cutoff_day}|{stamp}".encode()).hexdigest()[:10]
    return f"/tmp/p2pdds_gate/incr_rev_{key}"


def incremental_daily_revenue(sf_dir: str,
                              cutoff: str = "1999-01-01") -> pa.Table:
    """INCREMENTAL VIEW MAINTENANCE of a daily-revenue aggregate: the
    per-day order revenue view is kept as a PERSISTED base checkpoint
    (days before ``cutoff``) that is built once and thereafter only
    MERGED with the newly-arrived delta (days >= cutoff) -- the daily
    crawl-refresh pattern: at 100 TB the historical corpus is never
    rescanned, each refresh reads yesterday's partition plus a
    kilobyte-scale aggregate checkpoint.

    Mechanics: both phases are day-grain int64-cents partial
    aggregates (merge-order independent); the base is built ONLY if
    its checkpoint directory is absent (lineage-keyed on input path +
    cutoff, the state/checkpoint.py contract), the delta read pushes
    ``o_orderdate >= cutoff`` into the parquet scan, and the final
    groupby folds checkpoint rows with delta partials -- O(days) rows
    total.  Returns the full maintained view, identical to a fresh
    full-table aggregate (the oracle).
    """
    import datetime as _dt
    import os

    import pyarrow.dataset as pads
    import pyarrow.parquet as _pq

    DAY_US = np.int64(86_400_000_000)
    cut_dt = _dt.datetime.fromisoformat(cutoff)
    cutoff_day = int((cut_dt - _dt.datetime(1970, 1, 1)).days)
    root = _incr_checkpoint_root(sf_dir, cutoff_day)

    empty = pa.table({"day_idx": pa.array([], type=pa.int64()),
                      "revenue_cents": pa.array([], type=pa.int64())})

    def daily(t: pa.Table) -> pa.Table:
        ts = t["o_orderdate"].to_numpy(zero_copy_only=False)
        return pa.table({
            "day_idx": ts.astype("datetime64[us]").view(np.int64) // DAY_US,
            "revenue_cents": np.floor(t["o_totalprice"].to_numpy(
                zero_copy_only=False) * 100.0 + 0.5).astype(np.int64)})

    def day_agg(ds: "ray.data.Dataset", prep) -> "ray.data.Dataset":
        return combine_agg(ds, ["day_idx"], prep,
                           [("revenue_cents", "sum")],
                           named("day_idx", "revenue_cents"))

    done_marker = f"{root}/_SUCCESS"
    if not os.path.exists(done_marker):
        # base build: runs once per (input, cutoff) lineage key; a
        # crashed build leaves no marker and is rebuilt from scratch
        base = ray.data.read_parquet(
            f"{sf_dir}/orders.parquet",
            columns=["o_orderdate", "o_totalprice"],
            filter=(pads.field("o_orderdate") < cut_dt))
        tbl = collect(day_agg(base, daily))
        os.makedirs(root, exist_ok=True)
        _pq.write_table(tbl.cast(empty.schema) if tbl.num_rows else empty,
                        f"{root}/base.parquet.tmp")
        os.replace(f"{root}/base.parquet.tmp", f"{root}/base.parquet")
        open(done_marker, "w").close()      # atomic publish

    # refresh: checkpoint + delta ONLY (the base table is not rescanned)
    delta = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderdate", "o_totalprice"],
        filter=(pads.field("o_orderdate") >= cut_dt))
    merged = (day_agg(day_agg(delta, daily).union(
                  ray.data.read_parquet(f"{root}/base.parquet")),
                      lambda t: t)
              .to_pandas().sort_values("day_idx"))
    return pa.table({
        "day_idx": pa.array(merged["day_idx"].to_numpy(dtype=np.int64)),
        "revenue_cents": pa.array(
            merged["revenue_cents"].to_numpy(dtype=np.int64)),
    })


INCREMENTAL_DAILY_REVENUE_SQL = """
SELECT CAST(epoch_us(o_orderdate) // 86400000000 AS BIGINT) AS day_idx,
       CAST(sum(CAST(floor(o_totalprice * 100.0 + 0.5) AS BIGINT))
            AS BIGINT) AS revenue_cents
FROM orders GROUP BY 1 ORDER BY 1
"""




def t_closeness_audit(sf_dir: str, n_bins: int = 8) -> pa.Table:
    """t-CLOSENESS audit (Li et al., ICDE 2007): for every
    quasi-identifier group (lang, source), the ordered-distance EMD
    between the group's distribution of the sensitive attribute
    (n_chars, equal-width binned) and the global distribution --
    completing the privacy-audit family (k-anonymity, l-diversity).
    EMD over ordered bins = mean |prefix-sum gap|, reported in
    micro-units; a group with t_micro near 1e6 leaks the sensitive
    attribute through its quasi-identifier.

    Scale shape: one Min/Max pass fixes the bin grid, one streamed
    grouped count folds to the bounded (lang x source x bin) grid,
    and the EMD arithmetic runs on that grid driver-side in exact
    Python big ints (prefix cross-multiplication |pg*N - pG*n_g| never
    overflows and never divides early)."""
    ds = _read(sf_dir, "documents", ["lang", "source", "n_chars"])
    mm = ds.aggregate(Min("n_chars"), Max("n_chars"))
    mn, mx = int(mm["min(n_chars)"]), int(mm["max(n_chars)"])
    width_den = mx - mn + 1

    def cells(tbl: pa.Table) -> pa.Table:
        nc = tbl["n_chars"].to_numpy(zero_copy_only=False)
        bins = (nc - mn) * n_bins // width_den
        return pa.table({"lang": tbl["lang"], "source": tbl["source"],
                         "bin": pa.array(bins.astype(np.int64))})

    grid = combine_agg(ds, ["lang", "source", "bin"], cells,
                       [("bin", "count")],
                       named("lang", "source", "bin", "c")).to_pandas()
    import pandas as pd
    piv = grid.pivot_table(index=["lang", "source"], columns="bin",
                           values="c", fill_value=0, aggfunc="sum")
    piv = piv.reindex(columns=range(n_bins), fill_value=0)
    counts = piv.to_numpy(dtype=np.int64)
    glob = counts.sum(axis=0).astype(object)
    total = int(sum(glob))
    # one prefix term per GRID bin, present or not: the prefix gap
    # persists across empty bins, and each unit of ground distance it
    # persists for costs one term (the SQL twin generates the same full
    # grid with generate_series)
    rows = []
    for (lang, source), row in zip(piv.index, counts):
        n_g = int(row.sum())
        pg = 0
        pG = 0
        num = 0
        for b in range(n_bins):
            pg += int(row[b])
            pG += int(glob[b])
            num += abs(pg * total - pG * n_g)
        t_micro = num * 1_000_000 // ((n_bins - 1) * n_g * total)
        rows.append((lang, source, n_g, t_micro))
    rows.sort(key=lambda r: (-r[3], r[0], r[1]))
    return pa.table({
        "lang": pa.array([r[0] for r in rows], type=pa.string()),
        "source": pa.array([r[1] for r in rows], type=pa.string()),
        "n_docs": pa.array([r[2] for r in rows], type=pa.int64()),
        "t_micro": pa.array([r[3] for r in rows], type=pa.int64()),
    })


T_CLOSENESS_SQL = """
WITH mm AS (SELECT min(n_chars) AS mn, max(n_chars) AS mx
            FROM documents),
binned AS (SELECT lang, source,
                  CAST((n_chars - mm.mn) * 8 // (mm.mx - mm.mn + 1)
                       AS BIGINT) AS bin
           FROM documents CROSS JOIN mm),
cell AS (SELECT lang, source, bin, CAST(count(*) AS BIGINT) AS c
         FROM binned GROUP BY 1, 2, 3),
grp AS (SELECT lang, source, CAST(sum(c) AS BIGINT) AS n_g
        FROM cell GROUP BY 1, 2),
gb AS (SELECT gs.bin, COALESCE(x.g, 0) AS g
       FROM (SELECT CAST(range AS BIGINT) AS bin
             FROM range(0, 8)) gs
       LEFT JOIN (SELECT bin, CAST(sum(c) AS BIGINT) AS g
                  FROM cell GROUP BY 1) x ON x.bin = gs.bin),
tot AS (SELECT CAST(sum(c) AS BIGINT) AS n_all FROM cell),
grid AS (SELECT grp.lang, grp.source, grp.n_g, gb.bin, gb.g,
                COALESCE(cell.c, 0) AS c
         FROM grp CROSS JOIN gb
         LEFT JOIN cell ON cell.lang = grp.lang
                       AND cell.source = grp.source
                       AND cell.bin = gb.bin),
pre AS (SELECT lang, source, n_g,
               CAST(sum(c) OVER (PARTITION BY lang, source
                                 ORDER BY bin) AS HUGEINT) AS pg,
               CAST(sum(g) OVER (PARTITION BY lang, source
                                 ORDER BY bin) AS HUGEINT) AS pglob
        FROM grid),
emd AS (SELECT pre.lang, pre.source, max(pre.n_g) AS n_docs,
               sum(abs(pre.pg * tot.n_all - pre.pglob * pre.n_g))
                 AS num
        FROM pre CROSS JOIN tot GROUP BY 1, 2)
SELECT emd.lang, emd.source, n_docs,
       CAST(num * 1000000
            // (7 * CAST(n_docs AS HUGEINT)
                * (SELECT n_all FROM tot)) AS BIGINT) AS t_micro
FROM emd
ORDER BY t_micro DESC, lang, source
"""


def psi_drift_binned(sf_dir: str, split: str = "2024-01-16",
                     n_bins: int = 10) -> pa.Table:
    """POPULATION STABILITY INDEX between the event-value distributions
    before and after a split date, per event_type -- the industry drift
    score (sum of (pA - pB) * ln(pA / pB) over bins) completing the
    drift family (KS / CvM / EMD / chi2).  Laplace +1 smoothing keeps
    empty bins finite and deterministic; terms are floored micro-nats
    with the exact float expression mirrored in the SQL twin.

    Scale shape: values are binned on integer cents against a min/max
    grid pass; each block folds to the bounded (type x period x bin)
    grid; the ln arithmetic runs driver-side on that grid."""
    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])
    split_us = int(np.datetime64(split, "us").astype(np.int64))

    def cents_col(t: pa.Table) -> pa.Table:
        v = t["value"].to_numpy(zero_copy_only=False)
        vc = np.floor(v * 100.0 + 0.5).astype(np.int64)
        return pa.table({"mn": pa.array([int(vc.min())], pa.int64()),
                         "mx": pa.array([int(vc.max())], pa.int64())})

    mm = (ds.map_batches(cents_col, batch_format="pyarrow",
                         zero_copy_batch=True)
          .aggregate(Min("mn"), Max("mx")))
    mn, mx = int(mm["min(mn)"]), int(mm["max(mx)"])
    width_den = mx - mn + 1

    def cells(t: pa.Table) -> pa.Table:
        v = t["value"].to_numpy(zero_copy_only=False)
        vc = np.floor(v * 100.0 + 0.5).astype(np.int64)
        us = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({"event_type": t["event_type"],
                         "bin": (vc - mn) * n_bins // width_den,
                         "period": (us >= split_us).astype(np.int64)})

    grid = combine_agg(ds, ["event_type", "bin", "period"], cells,
                       [("period", "count")],
                       named("event_type", "bin", "period", "cnt")
                       ).to_pandas()
    import pandas as pd
    piv = grid.pivot_table(index=["event_type", "bin"],
                           columns="period", values="cnt",
                           fill_value=0, aggfunc="sum")
    piv = piv.reindex(columns=[0, 1], fill_value=0)
    # full (type x bin) grid: empty bins still contribute a smoothed
    # term (the SQL twin generates the same grid)
    types = sorted(piv.index.get_level_values(0).unique())
    full = pd.MultiIndex.from_product([types, range(n_bins)],
                                      names=["event_type", "bin"])
    piv = piv.reindex(full, fill_value=0)
    ca = piv[0].to_numpy(dtype=np.int64)
    cb = piv[1].to_numpy(dtype=np.int64)
    na = piv.groupby(level=0)[0].transform("sum") \
        .to_numpy(dtype=np.int64)
    nb = piv.groupby(level=0)[1].transform("sum") \
        .to_numpy(dtype=np.int64)
    # ONE float expression per term, same parenthesization as the SQL
    pa_ = (ca.astype(np.float64) + 1.0) \
        / (na.astype(np.float64) + np.float64(n_bins))
    pb_ = (cb.astype(np.float64) + 1.0) \
        / (nb.astype(np.float64) + np.float64(n_bins))
    terms = np.floor(((pa_ - pb_) * np.log(pa_ / pb_)) * 1e6) \
        .astype(np.int64)
    out = pd.DataFrame({
        "event_type": piv.index.get_level_values(0),
        "bin": piv.index.get_level_values(1).astype(np.int64),
        "cnt_a": ca, "cnt_b": cb, "psi_term_unats": terms,
    }).sort_values(["event_type", "bin"]).reset_index(drop=True)
    return pa.table({
        "event_type": pa.array(out["event_type"], type=pa.string()),
        "bin": pa.array(out["bin"].to_numpy(dtype=np.int64)),
        "cnt_a": pa.array(out["cnt_a"].to_numpy(dtype=np.int64)),
        "cnt_b": pa.array(out["cnt_b"].to_numpy(dtype=np.int64)),
        "psi_term_unats": pa.array(
            out["psi_term_unats"].to_numpy(dtype=np.int64)),
    })


PSI_DRIFT_SQL = """
WITH v AS (
  SELECT event_type,
         CAST(floor(value * 100.0 + 0.5) AS BIGINT) AS vc,
         CASE WHEN ts >= TIMESTAMP '2024-01-16' THEN 1 ELSE 0 END
           AS period
  FROM events
),
mm AS (SELECT min(vc) AS mn, max(vc) AS mx FROM v),
binned AS (SELECT event_type, period,
                  CAST((vc - mm.mn) * 10 // (mm.mx - mm.mn + 1)
                       AS BIGINT) AS bin
           FROM v CROSS JOIN mm),
cell AS (SELECT event_type, bin, period,
                CAST(count(*) AS BIGINT) AS cnt
         FROM binned GROUP BY 1, 2, 3),
grid AS (SELECT et.event_type, gs.bin,
                COALESCE(a.cnt, 0) AS cnt_a,
                COALESCE(b.cnt, 0) AS cnt_b
         FROM (SELECT DISTINCT event_type FROM events) et
         CROSS JOIN (SELECT CAST(range AS BIGINT) AS bin
                     FROM range(0, 10)) gs
         LEFT JOIN cell a ON a.event_type = et.event_type
                         AND a.bin = gs.bin AND a.period = 0
         LEFT JOIN cell b ON b.event_type = et.event_type
                         AND b.bin = gs.bin AND b.period = 1),
tots AS (SELECT event_type,
                CAST(sum(cnt_a) AS BIGINT) AS na,
                CAST(sum(cnt_b) AS BIGINT) AS nb
         FROM grid GROUP BY 1)
SELECT g.event_type, g.bin, g.cnt_a, g.cnt_b,
       CAST(floor(
         (((CAST(g.cnt_a AS DOUBLE) + 1.0)
             / (CAST(tt.na AS DOUBLE) + 10.0))
          - ((CAST(g.cnt_b AS DOUBLE) + 1.0)
             / (CAST(tt.nb AS DOUBLE) + 10.0)))
         * ln(((CAST(g.cnt_a AS DOUBLE) + 1.0)
                 / (CAST(tt.na AS DOUBLE) + 10.0))
              / ((CAST(g.cnt_b AS DOUBLE) + 1.0)
                 / (CAST(tt.nb AS DOUBLE) + 10.0)))
         * 1000000.0) AS BIGINT) AS psi_term_unats
FROM grid g JOIN tots tt ON tt.event_type = g.event_type
ORDER BY 1, 2
"""


def diff_in_diff_report(sf_dir: str,
                        split: str = "2024-01-16") -> pa.Table:
    """DIFFERENCE-IN-DIFFERENCES estimator over events: treatment =
    users in the deterministic hash split (hash(user_id) even), pre /
    post = the split date; the causal-analysis primitive an experiment
    platform runs as a baseline check.  Cell means are floored
    micro-units of `value`, so the 2x2 arithmetic is exact and the
    SQL twin reproduces it bit-for-bit (hash(BIGINT) == murmur64).

    Scale shape: one streamed pass folds each block to the fixed
    2x2 (treat, period) grid of (sum_micro, n); the DiD arithmetic is
    four integer divisions on the driver."""
    from ..hashing import murmur64
    ds = _read(sf_dir, "events", ["ts", "user_id", "value"])
    split_us = int(np.datetime64(split, "us").astype(np.int64))

    def cells(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        treat = (murmur64(uid) % np.uint64(2) == 0).astype(np.int64)
        us = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        post = (us >= split_us).astype(np.int64)
        v = t["value"].to_numpy(zero_copy_only=False)
        return pa.table({
            "cell": treat * 2 + post,
            "micro": np.floor(v * 1_000_000.0 + 0.5).astype(np.int64)})

    grid = (combine_agg(ds, ["cell"], cells,
                        [("micro", "sum"), ("micro", "count")],
                        named("cell", "s", "n"))
            .to_pandas().set_index("cell"))
    means = {}
    for cell in range(4):
        s = int(grid.loc[cell, "s"]) if cell in grid.index else 0
        n = int(grid.loc[cell, "n"]) if cell in grid.index else 0
        means[cell] = s // n if n else 0
    did = (means[3] - means[2]) - (means[1] - means[0])
    return pa.table({
        "control_pre_micro": pa.array([means[0]], type=pa.int64()),
        "control_post_micro": pa.array([means[1]], type=pa.int64()),
        "treat_pre_micro": pa.array([means[2]], type=pa.int64()),
        "treat_post_micro": pa.array([means[3]], type=pa.int64()),
        "did_micro": pa.array([did], type=pa.int64()),
    })


DIFF_IN_DIFF_SQL = """
WITH cells AS (
  SELECT CASE WHEN hash(user_id) % 2 = 0 THEN 1 ELSE 0 END AS treat,
         CASE WHEN ts >= TIMESTAMP '2024-01-16' THEN 1 ELSE 0 END
           AS post,
         CAST(sum(CAST(floor(value * 1000000.0 + 0.5) AS BIGINT))
              AS BIGINT) AS s,
         CAST(count(*) AS BIGINT) AS n
  FROM events GROUP BY 1, 2
),
m AS (SELECT treat, post, s // n AS mu FROM cells)
SELECT
  (SELECT mu FROM m WHERE treat = 0 AND post = 0)
    AS control_pre_micro,
  (SELECT mu FROM m WHERE treat = 0 AND post = 1)
    AS control_post_micro,
  (SELECT mu FROM m WHERE treat = 1 AND post = 0)
    AS treat_pre_micro,
  (SELECT mu FROM m WHERE treat = 1 AND post = 1)
    AS treat_post_micro,
  ((SELECT mu FROM m WHERE treat = 1 AND post = 1)
   - (SELECT mu FROM m WHERE treat = 1 AND post = 0))
  - ((SELECT mu FROM m WHERE treat = 0 AND post = 1)
     - (SELECT mu FROM m WHERE treat = 0 AND post = 0)) AS did_micro
"""


def rake_keywords_topk(sf_dir: str, k: int = 15,
                       max_phrase: int = 4) -> pa.Table:
    """RAKE keyword extraction (Rose et al. 2010): candidate phrases
    are maximal stopword-free token runs (length <= ``max_phrase``;
    longer runs are excluded, the standard phrase-length cap), each
    scored by the sum of its words' degree/frequency ratios -- the
    unsupervised keyword miner that complements tf-idf
    (`tfidf_top_term_per_doc`) with multi-word phrases.

    Scale shape: stage 1 is a grouped per-word (freq, deg) combiner
    (vocab-bounded groupby); the word scores broadcast as the
    shared sorted-fp + searchsorted arrays (never a dict); stage 2
    rescans, scores each phrase with one vectorized lookup, and
    reduces distinct phrases through a grouped combiner + bounded
    top-k.  Phrase strings materialize only at phrase grain (np.char
    column joins, max_phrase vectorized steps), never per token.
    Word score is floor(deg * 1e6 / freq) micro-units, mirrored in the
    SQL twin."""
    from ..functions.text import (STOPWORDS, token_value_arrays,
                                  token_value_lookup)
    from ..stages.topk import topk as _topk

    ds = _read(sf_dir, "documents", ["text"])
    stop_set = pa.array(list(STOPWORDS), type=pa.string())

    def _phrase_layout(t: pa.Table):
        """(tokens, doc_idx, group_inv, group_sizes, pos_in_group) for
        the block's kept (stopword-free, length-capped) phrase words."""
        xs = pc.split_pattern(t["text"], pattern=" ")
        flat = pc.list_flatten(xs)
        lens = pc.list_value_length(xs).to_numpy(zero_copy_only=False)
        doc_idx = np.repeat(np.arange(lens.shape[0], dtype=np.int64),
                            lens)
        stop = pc.is_in(flat, value_set=stop_set).to_numpy(
            zero_copy_only=False)
        n = stop.shape[0]
        if n == 0:
            return None
        # phrase key: (doc, run id); runs split at stopwords
        run = np.cumsum(stop.astype(np.int64))
        comp = doc_idx * np.int64(n + 1) + run
        keep = ~stop
        comp_k = comp[keep]
        if comp_k.size == 0:
            return None
        order = np.argsort(comp_k, kind="stable")
        comp_s = comp_k[order]
        new = np.ones(comp_s.size, dtype=bool)
        new[1:] = comp_s[1:] != comp_s[:-1]
        gid = np.cumsum(new) - 1
        sizes = np.bincount(gid).astype(np.int64)
        ok = sizes <= max_phrase
        keep2 = ok[gid]
        starts = np.flatnonzero(new)
        pos_in_group = np.arange(comp_s.size) - starts[gid]
        kept_idx = np.flatnonzero(keep)[order]
        return (flat.take(pa.array(kept_idx[keep2])),
                gid[keep2], sizes, ok, pos_in_group[keep2])

    ws_empty = pa.table({"tok": pa.array([], type=pa.string()),
                         "deg": pa.array([], type=pa.int64())})

    def word_degrees(t: pa.Table) -> pa.Table:
        lay = _phrase_layout(t)
        if lay is None:
            return ws_empty
        toks, gid, sizes, ok, _pos = lay
        # gid keeps original group ids
        return pa.table({"tok": toks, "deg": pa.array(sizes[gid])})

    wstats = combine_agg(ds, ["tok"], word_degrees,
                         [("deg", "count"), ("deg", "sum")],
                         named("tok", "freq", "deg")).to_pandas()
    ws = (wstats["deg"].to_numpy(dtype=np.int64) * 1_000_000
          // wstats["freq"].to_numpy(dtype=np.int64))
    fp_sorted, vals = token_value_arrays(
        pa.array(wstats["tok"], type=pa.string()), ws)
    map_ref = ray.put((fp_sorted, vals))

    ph_empty = pa.table({"phrase": pa.array([], type=pa.string()),
                         "score": pa.array([], type=pa.int64())})

    def phrase_scores(t: pa.Table) -> pa.Table:
        lay = _phrase_layout(t)
        if lay is None:
            return ph_empty
        toks, gid, sizes, ok, pos = lay
        fp_s, v = ray.get(map_ref)
        w = token_value_lookup(fp_s, v, toks)
        # renumber to the groups actually present (the cap filter
        # removed some original ids)
        _ug, gid = np.unique(gid, return_inverse=True)
        n_groups = _ug.shape[0]
        score = np.zeros(n_groups, dtype=np.int64)
        np.add.at(score, gid, w)
        # phrase strings: max_phrase columnar join steps at PHRASE grain
        tok_np = toks.to_numpy(zero_copy_only=False)
        cols = np.full((max_phrase, n_groups), "", dtype=object)
        cols[pos, gid] = tok_np
        phrase = cols[0]
        for i in range(1, max_phrase):
            sep = np.where(cols[i] == "", "", " ")
            phrase = np.char.add(np.char.add(
                phrase.astype(str), sep.astype(str)),
                cols[i].astype(str))
        return pa.table({
            "phrase": pa.array(phrase.astype(object), type=pa.string()),
            "score": pa.array(score)})

    grouped = combine_agg(ds, ["phrase"], phrase_scores,
                          [("score", "count"), ("score", "max")],
                          named("phrase", "n_occurrences", "score_micro"))
    out = _topk(grouped, [("score_micro", "descending"),
                          ("phrase", "ascending")], k).to_pandas()
    return pa.table({
        "phrase": pa.array(out["phrase"], type=pa.string()),
        "n_occurrences": pa.array(
            out["n_occurrences"].to_numpy(dtype=np.int64)),
        "score_micro": pa.array(
            out["score_micro"].to_numpy(dtype=np.int64)),
    })


RAKE_KEYWORDS_SQL = """
WITH t AS (
  SELECT doc_id, string_split(text, ' ') AS xs FROM documents
), tok AS (
  SELECT doc_id, unnest(xs) AS w, generate_subscripts(xs, 1) AS i
  FROM t
), marked AS (
  SELECT doc_id, i, w,
         CASE WHEN w IN ('the','and','of','a','to','in','is','it',
                         'that','for') THEN 1 ELSE 0 END AS stop
  FROM tok
), phrased AS (
  SELECT doc_id, i, w, stop,
         sum(stop) OVER (PARTITION BY doc_id ORDER BY i) AS pid
  FROM marked
), pwords AS (
  SELECT doc_id, pid, w, i FROM phrased WHERE stop = 0
), plens AS (
  SELECT doc_id, pid, CAST(count(*) AS BIGINT) AS plen
  FROM pwords GROUP BY 1, 2
), kept AS (
  SELECT pw.doc_id, pw.pid, pw.w, pw.i, pl.plen
  FROM pwords pw JOIN plens pl
    ON pl.doc_id = pw.doc_id AND pl.pid = pw.pid
  WHERE pl.plen <= 4
), wstats AS (
  SELECT w, CAST(count(*) AS BIGINT) AS freq,
         CAST(sum(plen) AS BIGINT) AS deg
  FROM kept GROUP BY 1
), wscore AS (
  SELECT w, CAST(deg * 1000000 // freq AS BIGINT) AS wsc FROM wstats
), phrases AS (
  SELECT k.doc_id, k.pid,
         string_agg(k.w, ' ' ORDER BY k.i) AS phrase,
         CAST(sum(ws.wsc) AS BIGINT) AS score
  FROM kept k JOIN wscore ws ON ws.w = k.w
  GROUP BY 1, 2
)
SELECT phrase, CAST(count(*) AS BIGINT) AS n_occurrences,
       CAST(max(score) AS BIGINT) AS score_micro
FROM phrases GROUP BY 1
ORDER BY score_micro DESC, phrase
LIMIT 15
"""


def weighted_doc_sample(sf_dir: str, k: int = 100) -> pa.Table:
    """WEIGHTED sample without replacement: bottom-k documents by the
    Efraimidis-Spirakis exponential key e_i = -ln(u_i) / w_i (PIS
    2006) with weight w = n_chars -- each doc's inclusion probability
    is proportional to its length, the standard size-biased corpus
    sample (long docs carry more tokens, so a token-fair subsample
    must overweight them).  Deterministic and engine-replicable:
    u_i = (hash(doc_id) + 0.5) / 2^64 via the proven hash(BIGINT) ==
    murmur64 parity, the key is the ONE mirrored float expression
    floor(-ln(u) / w * 1e15), ties break on doc_id.

    Scale shape: per-block bottom-k prereduce (only k rows per block
    shuffle), single final fold -- identical to the unweighted
    hash-sample tier.
    """
    from ..hashing import murmur64
    from ..stages.partition import partition_by

    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])

    empty = pa.table({"doc_id": pa.array([], type=pa.int64()),
                      "n_chars": pa.array([], type=pa.int64()),
                      "key_femto": pa.array([], type=pa.int64())})

    def keyed_bottomk(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        ids = pc.cast(t["doc_id"], pa.int64()).to_numpy(
            zero_copy_only=False)
        w = pc.cast(t["n_chars"], pa.int64()).to_numpy(
            zero_copy_only=False).astype(np.float64)
        u = (murmur64(ids).astype(np.float64) + 0.5) / 18446744073709551616.0
        key = np.floor(-np.log(u) / w * 1e15).astype(np.int64)
        order = np.lexsort((ids, key))[:k]
        return pa.table({
            "doc_id": pa.array(ids[order]),
            "n_chars": pa.array(pc.cast(t["n_chars"], pa.int64())
                                .to_numpy(zero_copy_only=False)[order]),
            "key_femto": pa.array(key[order])})

    def fold(t: pa.Table) -> pa.Table:
        key = t["key_femto"].to_numpy(zero_copy_only=False)
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, key))[:k]
        return t.take(pa.array(order))

    pre = ds.map_batches(keyed_bottomk, batch_format="pyarrow",
                         zero_copy_batch=True)
    final = partition_by(pre, [], 1, fold, empty).to_pandas()
    key = final["key_femto"].to_numpy(dtype=np.int64)
    ids = final["doc_id"].to_numpy(dtype=np.int64)
    order = np.lexsort((ids, key))
    return pa.table({
        "doc_id": pa.array(ids[order]),
        "n_chars": pa.array(final["n_chars"].to_numpy(
            dtype=np.int64)[order]),
        "key_femto": pa.array(key[order]),
        "rnk": pa.array(np.arange(1, order.size + 1, dtype=np.int64)),
    })


WEIGHTED_DOC_SAMPLE_SQL = """
WITH s AS (
  SELECT CAST(doc_id AS BIGINT) AS doc_id,
         CAST(n_chars AS BIGINT) AS n_chars,
         CAST(floor(-ln((CAST(hash(CAST(doc_id AS BIGINT)) AS DOUBLE)
                         + 0.5) / 18446744073709551616.0)
                    / CAST(n_chars AS DOUBLE) * 1e15)
              AS BIGINT) AS key_femto
  FROM documents
)
SELECT doc_id, n_chars, key_femto,
       CAST(row_number() OVER (ORDER BY key_femto, doc_id)
            AS BIGINT) AS rnk
FROM s QUALIFY rnk <= 100 ORDER BY rnk
"""


def q13_custdist(sf_dir: str) -> pa.Table:
    """TPC-H Q13 shape (customer distribution): how many customers
    placed exactly c orders, INCLUDING the zero bucket -- the
    LEFT-JOIN-with-count histogram that trips engines which drop
    unmatched rows.  Stand-in predicate: non-urgent orders only (the
    canonical comment NOT LIKE has no column here).

    Scale shape: join-free -- the fact side pre-aggregates to
    per-custkey counts (custkey co-partition), the histogram is a
    second tiny groupby, and the zero bucket is arithmetic
    (total customers - customers seen), relying on the FK integrity
    the fk_integrity_audit query checks (every o_custkey exists).
    """
    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"])

    def non_urgent(t: pa.Table) -> pa.Table:
        keep = pc.not_equal(t["o_orderpriority"], "1-URGENT")
        return pa.table({"o_custkey": pc.cast(t.filter(keep)["o_custkey"],
                                              pa.int64())})

    counts = combine_agg(orders, ["o_custkey"], non_urgent,
                         [("o_custkey", "count")], named("o_custkey", "n"))
    h = combine_agg(counts, ["n"], lambda t: t, [("n", "count")],
                    named("c_count", "custdist")).to_pandas()
    n_cust = _read(sf_dir, "customer", ["c_custkey"]).count()
    cc = h["c_count"].to_numpy(dtype=np.int64)
    cd = h["custdist"].to_numpy(dtype=np.int64)
    zero = int(n_cust) - int(cd.sum())
    if zero > 0:            # the LEFT JOIN emits no empty 0 bucket
        cc = np.concatenate((cc, [0]))
        cd = np.concatenate((cd, [zero]))
    order = np.lexsort((-cc, -cd))
    return pa.table({"c_count": pa.array(cc[order]),
                     "custdist": pa.array(cd[order])})


Q13_CUSTDIST_SQL = """
SELECT c_count, CAST(count(*) AS BIGINT) AS custdist
FROM (
  SELECT c.c_custkey,
         CAST(count(o.o_orderkey) AS BIGINT) AS c_count
  FROM customer c
  LEFT JOIN orders o ON o.o_custkey = c.c_custkey
                    AND o.o_orderpriority <> '1-URGENT'
  GROUP BY 1
)
GROUP BY 1 ORDER BY custdist DESC, c_count DESC
"""


def q17_small_quantity_revenue(sf_dir: str,
                               brand: str = "Brand#12") -> pa.Table:
    """TPC-H Q17 shape (small-quantity-order revenue): revenue lost if
    orders below 20% of a part's average quantity were dropped --
    the correlated-scalar-subquery-per-group pattern (threshold =
    per-part aggregate applied back to the same fact rows).  The
    comparison q < 0.2 * avg(q) is exact integer cross-multiplication:
    5 * q_hundredths * cnt < sum_q_hundredths.

    Scale shape: brand parts are catalog-bounded -> broadcast sorted
    partkey array; pass 1 folds per-part (sum, count) over only brand
    rows (O(brand parts) to the driver, broadcast back); pass 2
    filters and sums cents.  Two streamed fact passes, no join
    shuffle.
    """
    import ray as _ray

    parts = _read(sf_dir, "part", ["p_partkey", "p_brand"])
    brand_keys = np.sort(np.asarray(
        [r["p_partkey"]
         for r in parts.filter(
             expr=f"p_brand == '{brand}'").take_all()],
        dtype=np.int64))
    keys_ref = _ray.put(brand_keys)

    lineitem = _read(sf_dir, "lineitem",
                     ["l_partkey", "l_quantity", "l_extendedprice"])

    def brand_rows(t: pa.Table) -> pa.Table:
        keys = _ray.get(keys_ref)
        pk = pc.cast(t["l_partkey"], pa.int64()).to_numpy(
            zero_copy_only=False)
        pos = np.searchsorted(keys, pk)
        pos[pos == keys.size] = 0
        hit = keys[pos] == pk if keys.size else np.zeros(
            pk.size, dtype=bool)
        q = t["l_quantity"].to_numpy(zero_copy_only=False)[hit]
        return pa.table({"pk": pa.array(pk[hit]),
                         "sq": np.floor(q * 100.0 + 0.5).astype(np.int64)})

    st = (combine_agg(lineitem, ["pk"], brand_rows,
                      [("sq", "sum"), ("sq", "count")],
                      named("pk", "sq", "cnt"))
          .to_pandas().sort_values("pk"))
    tk = st["pk"].to_numpy(dtype=np.int64)
    tsq = st["sq"].to_numpy(dtype=np.int64)
    tcnt = st["cnt"].to_numpy(dtype=np.int64)
    thr_ref = _ray.put((tk, tsq, tcnt))

    def small_rows(t: pa.Table) -> pa.Table:
        keys, sq, cnt = _ray.get(thr_ref)
        pk = pc.cast(t["l_partkey"], pa.int64()).to_numpy(
            zero_copy_only=False)
        pos = np.searchsorted(keys, pk)
        pos[pos == keys.size] = 0
        hit = keys[pos] == pk if keys.size else np.zeros(
            pk.size, dtype=bool)
        if not hit.any():
            return pa.table({"cents": pa.array([], type=pa.int64()),
                             "nr": pa.array([], type=pa.int64())})
        q = t["l_quantity"].to_numpy(zero_copy_only=False)[hit]
        qi = np.floor(q * 100.0 + 0.5).astype(np.int64)
        p = pos[hit]
        small = 5 * qi * cnt[p] < sq[p]
        price = t["l_extendedprice"].to_numpy(
            zero_copy_only=False)[hit][small]
        cents = np.floor(price * 100.0 + 0.5).astype(np.int64)
        return pa.table({"cents": pa.array([int(cents.sum())],
                                           type=pa.int64()),
                         "nr": pa.array([int(small.sum())],
                                        type=pa.int64())})

    agg = (lineitem.map_batches(small_rows, batch_format="pyarrow",
                                zero_copy_batch=True)
           .to_pandas())
    total = int(agg["cents"].sum())
    nr = int(agg["nr"].sum())
    return pa.table({
        "n_rows": pa.array([nr], type=pa.int64()),
        "total_cents": pa.array([total], type=pa.int64()),
        "avg_yearly_cents": pa.array([total // 7], type=pa.int64()),
    })


Q17_SMALL_QTY_SQL = """
WITH bp AS (
  SELECT p_partkey FROM part WHERE p_brand = 'Brand#12'
), st AS (
  SELECT l_partkey,
         CAST(sum(CAST(floor(l_quantity * 100.0 + 0.5) AS BIGINT))
              AS BIGINT) AS sq,
         CAST(count(*) AS BIGINT) AS cnt
  FROM lineitem JOIN bp ON bp.p_partkey = l_partkey
  GROUP BY 1
), hit AS (
  SELECT CAST(floor(l.l_extendedprice * 100.0 + 0.5) AS BIGINT)
           AS cents
  FROM lineitem l
  JOIN st ON st.l_partkey = l.l_partkey
  WHERE 5 * CAST(floor(l.l_quantity * 100.0 + 0.5) AS BIGINT)
          * st.cnt < st.sq
)
SELECT CAST(count(*) AS BIGINT) AS n_rows,
       CAST(COALESCE(sum(cents), 0) AS BIGINT) AS total_cents,
       CAST(COALESCE(sum(cents), 0) // 7 AS BIGINT)
         AS avg_yearly_cents
FROM hit
"""


def epoch_shuffle_stats(sf_dir: str, n_shards: int = 8) -> pa.Table:
    """DETERMINISTIC epoch resharding audit -- the training-loader
    contract that every epoch is a different but REPRODUCIBLE global
    shuffle: epoch e assigns doc d to shard hash(d XOR seed_e) % S.
    Reports per (epoch, shard) the doc count, a doc-id checksum and a
    placement checksum (sum of hash % 1000003), so two runs -- or the
    Ray pipeline and the DuckDB replica -- can assert byte-equal
    placement without comparing row sets.

    Scale shape: one streamed pass of (epoch, shard) placement rows;
    each block folds to O(epochs x shards) partial rows (all
    Sum-foldable integers), one tiny groupby finishes.  Nothing
    key-shaped leaves the blocks.
    """
    from ..hashing import murmur64

    EPOCH_SEEDS = (0, 6364136223846793005, 2862933555777941757)
    ds = _read(sf_dir, "documents", ["doc_id"])

    def placements(t: pa.Table) -> pa.Table:
        """One row per (document, epoch)."""
        did = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        h = np.concatenate([murmur64(did ^ np.int64(seed))
                            for seed in EPOCH_SEEDS])
        return pa.table({
            "epoch": np.repeat(np.arange(len(EPOCH_SEEDS), dtype=np.int64),
                               did.size),
            "shard": (h % np.uint64(n_shards)).astype(np.int64),
            "doc_id": np.tile(did, len(EPOCH_SEEDS)),
            "chk": (h % np.uint64(1_000_003)).astype(np.int64)})

    agg = (combine_agg(ds, ["epoch", "shard"], placements,
                       [("doc_id", "count"), ("doc_id", "sum"),
                        ("chk", "sum")],
                       named("epoch", "shard", "n_docs", "sum_doc_id",
                             "hash_check"))
           .to_pandas().sort_values(["epoch", "shard"])
           .reset_index(drop=True))
    return pa.table({
        "epoch": pa.array(agg["epoch"].astype("int64")),
        "shard": pa.array(agg["shard"].astype("int64")),
        "n_docs": pa.array(agg["n_docs"].astype("int64")),
        "sum_doc_id": pa.array(agg["sum_doc_id"].astype("int64")),
        "hash_check": pa.array(agg["hash_check"].astype("int64")),
    })


EPOCH_SHUFFLE_SQL = """
WITH seeds(epoch, s) AS (VALUES (0, 0),
                                (1, 6364136223846793005),
                                (2, 2862933555777941757)),
h AS (SELECT seeds.epoch,
             hash(xor(d.doc_id, CAST(seeds.s AS BIGINT))) AS hv,
             d.doc_id
      FROM documents d CROSS JOIN seeds)
SELECT CAST(epoch AS BIGINT) AS epoch,
       CAST(hv % 8 AS BIGINT) AS shard,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(doc_id) AS BIGINT) AS sum_doc_id,
       CAST(sum(hv % 1000003) AS BIGINT) AS hash_check
FROM h GROUP BY 1, 2 ORDER BY 1, 2
"""


def percentile_norm_by_source(sf_dir: str) -> pa.Table:
    """QUANTILE NORMALIZATION of a quality signal: each document's
    n_chars is mapped to its within-LANGUAGE percent rank (integer ppm,
    rank()-semantics: ties share the count of strictly-smaller rows),
    then rolled up per source -- the scale-free "is this feed long for
    its language" score a mixed-language curation pipeline compares
    across sources.  percent_rank = count_lt * 1e6 // max(n_lang-1, 1),
    all integers, hash-replicable.

    Scale shape: ranks come from a (lang, value) HISTOGRAM groupby --
    O(langs x distinct values) rows, a value distribution, never the
    corpus -- broadcast as sorted arrays (values + cumulative
    below-counts per lang segment); one streamed combiner pass probes
    it with two searchsorteds per batch and folds to O(sources) rows.
    """
    ds = _read(sf_dir, "documents", ["lang", "source", "n_chars"])

    hist = combine_agg(ds, ["lang", "n_chars"], lambda t: t,
                       [("n_chars", "count")],
                       named("lang", "n_chars", "c")).to_pandas()
    langs = np.sort(hist["lang"].unique().astype(np.str_))
    lcode = np.searchsorted(langs, hist["lang"].to_numpy(dtype=np.str_))
    vals = hist["n_chars"].to_numpy(dtype=np.int64)
    cnts = hist["c"].to_numpy(dtype=np.int64)
    order = np.lexsort((vals, lcode))
    lcode, vals, cnts = lcode[order], vals[order], cnts[order]
    # per-lang segment offsets + strictly-below cumulative counts
    seg_starts = np.searchsorted(lcode, np.arange(langs.shape[0]))
    cum = np.cumsum(cnts)
    below = cum - cnts           # count of rows before this value row
    seg_base = np.concatenate([[0], cum])[seg_starts]
    below = below - seg_base[lcode]  # within-lang strictly-below count
    n_lang_rows = np.zeros(langs.shape[0], dtype=np.int64)
    for j in range(langs.shape[0]):
        lo, hi = seg_starts[j], (seg_starts[j + 1]
                                 if j + 1 < langs.shape[0]
                                 else lcode.shape[0])
        n_lang_rows[j] = int(cnts[lo:hi].sum())
    lut_ref = ray.put((langs, seg_starts, vals, below, n_lang_rows))

    def percent_rank(t: pa.Table) -> pa.Table:
        lg, starts, v, bl, nl = ray.get(lut_ref)
        code = np.searchsorted(
            lg, t["lang"].to_numpy(zero_copy_only=False)
            .astype(np.str_))
        x = t["n_chars"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        ends = np.append(starts[1:], v.shape[0])
        # segment-local searchsorted via a composite key: values are
        # sorted within each lang segment, so offset probes by segment
        pos = np.empty(x.shape[0], dtype=np.int64)
        for j in np.unique(code):
            m = code == j
            pos[m] = starts[j] + np.searchsorted(
                v[starts[j]:ends[j]], x[m], side="left")
        count_lt = bl[np.minimum(pos, bl.shape[0] - 1)]
        denom = np.maximum(nl[code] - 1, 1)
        return pa.table({"source": t["source"],
                         "ppm": count_lt * np.int64(1_000_000) // denom})

    agg = (combine_agg(ds, ["source"], percent_rank,
                       [("ppm", "count"), ("ppm", "sum")],
                       named("source", "n_docs", "sum_pr_ppm"))
           .to_pandas().sort_values("source").reset_index(drop=True))
    n = agg["n_docs"].to_numpy(dtype=np.int64)
    sm = agg["sum_pr_ppm"].to_numpy(dtype=np.int64)
    return pa.table({
        "source": pa.array(agg["source"], type=pa.string()),
        "n_docs": pa.array(n),
        "sum_pr_ppm": pa.array(sm),
        "mean_pr_ppm": pa.array(sm // n),
    })


PERCENTILE_NORM_SQL = """
WITH r AS (
  SELECT source,
         ((rank() OVER (PARTITION BY lang ORDER BY n_chars) - 1)
          * 1000000)
           // greatest(count(*) OVER (PARTITION BY lang) - 1, 1)
           AS ppm
  FROM documents
)
SELECT source, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(ppm) AS BIGINT) AS sum_pr_ppm,
       CAST(sum(ppm) // count(*) AS BIGINT) AS mean_pr_ppm
FROM r GROUP BY 1 ORDER BY 1
"""


def hhh_type_user(sf_dir: str, phi_den: int = 200) -> pa.Table:
    """HIERARCHICAL HEAVY HITTERS over the (event_type -> user_id)
    hierarchy (Cormode et al., the exact reference semantics): level 0
    reports every (type, user) pair with count >= ceil(N/phi_den);
    level 1 reports each event_type with its raw count AND its
    DISCOUNTED count (raw minus the counts already claimed by its
    level-0 heavy descendants) -- the discount is what separates "this
    type is hot" from "one user inside it is hot", the triage signal
    behind DDoS/abuse rollups and skew diagnosis before a shuffle.

    Scale shape: per-block (type, user) bincount partials -> one
    groupby sum; only rows >= threshold leave the exchange at level 0
    (<= phi_den of them by definition), and level 1 is O(types).
    Nothing unbounded ever reaches the driver.
    """
    ds = _read(sf_dir, "events", ["event_type", "user_id"])
    pairs = combine_agg(ds, ["event_type", "user_id"], lambda t: t,
                        [("user_id", "count")],
                        named("event_type", "user_id", "n"))
    type_tot = combine_agg(pairs, ["event_type"], lambda t: t,
                           [("n", "sum")],
                           named("event_type", "raw")).to_pandas()
    n_total = int(type_tot["raw"].sum())
    thresh = (n_total + phi_den - 1) // phi_den

    hh = pairs.filter(expr=f"n >= {thresh}").to_pandas()
    if len(hh):
        hh = hh.sort_values(["event_type", "user_id"])
    claimed = (hh.groupby("event_type")["n"].sum() if len(hh)
               else None)
    rows = {c: [] for c in ("level", "event_type", "user_id",
                            "raw_cnt", "disc_cnt", "is_hhh")}
    for _, r in hh.iterrows():
        rows["level"].append(0)
        rows["event_type"].append(r["event_type"])
        rows["user_id"].append(int(r["user_id"]))
        rows["raw_cnt"].append(int(r["n"]))
        rows["disc_cnt"].append(int(r["n"]))
        rows["is_hhh"].append(1)
    for _, r in type_tot.sort_values("event_type").iterrows():
        raw = int(r["raw"])
        sub = int(claimed.get(r["event_type"], 0)) if claimed is not None else 0
        disc = raw - sub
        rows["level"].append(1)
        rows["event_type"].append(r["event_type"])
        rows["user_id"].append(-1)
        rows["raw_cnt"].append(raw)
        rows["disc_cnt"].append(disc)
        rows["is_hhh"].append(1 if disc >= thresh else 0)
    return pa.table({
        "level": pa.array(rows["level"], type=pa.int64()),
        "event_type": pa.array(rows["event_type"], type=pa.string()),
        "user_id": pa.array(rows["user_id"], type=pa.int64()),
        "raw_cnt": pa.array(rows["raw_cnt"], type=pa.int64()),
        "disc_cnt": pa.array(rows["disc_cnt"], type=pa.int64()),
        "is_hhh": pa.array(rows["is_hhh"], type=pa.int64()),
    })


HHH_TYPE_USER_SQL = """
WITH p AS (
  SELECT event_type, user_id, CAST(count(*) AS BIGINT) AS c
  FROM events GROUP BY 1, 2
), tot AS (
  SELECT CAST(count(*) AS BIGINT) AS n FROM events
), th AS (
  SELECT CAST((n + 199) // 200 AS BIGINT) AS t FROM tot
), hp AS (
  SELECT p.* FROM p CROSS JOIN th WHERE p.c >= th.t
), tc AS (
  SELECT event_type, CAST(count(*) AS BIGINT) AS raw
  FROM events GROUP BY 1
), cl AS (
  SELECT event_type, CAST(sum(c) AS BIGINT) AS claimed
  FROM hp GROUP BY 1
)
SELECT CAST(0 AS BIGINT) AS level, event_type, user_id,
       c AS raw_cnt, c AS disc_cnt, CAST(1 AS BIGINT) AS is_hhh
FROM hp
UNION ALL
SELECT CAST(1 AS BIGINT), tc.event_type, CAST(-1 AS BIGINT),
       tc.raw, tc.raw - coalesce(cl.claimed, 0),
       CASE WHEN tc.raw - coalesce(cl.claimed, 0) >= th.t
            THEN 1 ELSE 0 END
FROM tc LEFT JOIN cl USING (event_type) CROSS JOIN th
ORDER BY level, event_type, user_id
"""


def feature_info_gain(sf_dir: str) -> pa.Table:
    """INFORMATION-GAIN feature ranking: which categorical feature of a
    lineitem best predicts the return label (l_returnflag = 'R') --
    IG(F) = H(Y) - H(Y|F) in exact micro-nats (every entropy term
    individually floor((n/N)*ln(.)*1e6), the mirrored ln-parity
    pattern), over four derived features: line status, ship month,
    quantity decade, discount band.  The feature-selection pass a
    labeling/curation pipeline runs before training a filter model.

    Scale shape: ONE streaming pass emits (feature, value, label) rows
    for all four features at once; one grouped count folds them per
    block and again after the shuffle; the entropy algebra runs on
    O(sum of feature arities) rows on the driver.
    """
    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_shipdate",
                "l_quantity", "l_discount"])

    def labeled(t: pa.Table) -> pa.Table:
        """One (feature, value, label) row per (lineitem, feature)."""
        y = (t["l_returnflag"].to_numpy(zero_copy_only=False)
             == "R").astype(np.int64)
        month = pc.month(t["l_shipdate"]).to_numpy(
            zero_copy_only=False).astype(np.int64)
        qty = np.floor(t["l_quantity"].to_numpy(
            zero_copy_only=False)).astype(np.int64) // 10
        disc = np.round(t["l_discount"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64) // 2
        feats = {
            "linestatus": t["l_linestatus"].to_numpy(
                zero_copy_only=False).astype(np.str_),
            "ship_month": month.astype(np.str_),
            "qty_decade": qty.astype(np.str_),
            "disc_band": disc.astype(np.str_),
        }
        return pa.table({
            "feature": np.repeat(list(feats), t.num_rows),
            "val": np.concatenate(list(feats.values())),
            "y": np.tile(y, len(feats)),
        })

    agg = combine_agg(ds, ["feature", "val", "y"], labeled, [("y", "count")],
                      named("feature", "val", "y", "n")).to_pandas()

    n_total = float(agg["n"].sum() / 4)  # each row counted once per feature
    # label entropy from any one feature's marginals
    lab = agg[agg["feature"] == "linestatus"].groupby("y")["n"].sum()
    h_y = int(sum(np.floor((c / n_total)
                           * np.log(n_total / c) * 1_000_000.0)
                  for c in lab.to_numpy(dtype=np.float64)))

    out = {c: [] for c in ("feature", "n_values",
                           "h_cond_micronats", "info_gain_micronats")}
    for fname, g in agg.groupby("feature", sort=True):
        vt = g.groupby("val")["n"].sum()
        cond = 0
        for _, r in g.iterrows():
            nvy = float(r["n"])
            nv = float(vt[r["val"]])
            cond += int(np.floor((nvy / n_total)
                                 * np.log(nv / nvy) * 1_000_000.0))
        out["feature"].append(fname)
        out["n_values"].append(int(len(vt)))
        out["h_cond_micronats"].append(cond)
        out["info_gain_micronats"].append(h_y - cond)
    return pa.table({
        "feature": pa.array(out["feature"], type=pa.string()),
        "n_values": pa.array(out["n_values"], type=pa.int64()),
        "h_label_micronats": pa.array([h_y] * len(out["feature"]),
                                      type=pa.int64()),
        "h_cond_micronats": pa.array(out["h_cond_micronats"],
                                     type=pa.int64()),
        "info_gain_micronats": pa.array(out["info_gain_micronats"],
                                        type=pa.int64()),
    })


FEATURE_INFO_GAIN_SQL = """
WITH base AS (
  SELECT CASE WHEN l_returnflag = 'R' THEN 1 ELSE 0 END AS y,
         l_linestatus,
         CAST(month(l_shipdate) AS VARCHAR) AS ship_month,
         CAST(CAST(floor(l_quantity) AS BIGINT) // 10 AS VARCHAR)
           AS qty_decade,
         CAST(CAST(round(l_discount * 100.0, 0) AS BIGINT) // 2
              AS VARCHAR) AS disc_band
  FROM lineitem
), fv AS (
  SELECT 'linestatus' AS feature, l_linestatus AS val, y FROM base
  UNION ALL SELECT 'ship_month', ship_month, y FROM base
  UNION ALL SELECT 'qty_decade', qty_decade, y FROM base
  UNION ALL SELECT 'disc_band', disc_band, y FROM base
), c AS (
  SELECT feature, val, y, CAST(count(*) AS BIGINT) AS n
  FROM fv GROUP BY 1, 2, 3
), tot AS (
  SELECT CAST(count(*) AS BIGINT) AS n FROM base
), lab AS (
  SELECT y, CAST(count(*) AS BIGINT) AS n FROM base GROUP BY 1
), hy AS (
  SELECT CAST(sum(CAST(floor((CAST(lab.n AS DOUBLE)
                              / CAST(tot.n AS DOUBLE))
                             * ln(CAST(tot.n AS DOUBLE)
                                  / CAST(lab.n AS DOUBLE))
                             * 1000000.0) AS BIGINT)) AS BIGINT) AS h
  FROM lab CROSS JOIN tot
), vt AS (
  SELECT feature, val, CAST(sum(n) AS BIGINT) AS nv
  FROM c GROUP BY 1, 2
), cond AS (
  SELECT c.feature,
         CAST(sum(CAST(floor((CAST(c.n AS DOUBLE)
                              / CAST(tot.n AS DOUBLE))
                             * ln(CAST(vt.nv AS DOUBLE)
                                  / CAST(c.n AS DOUBLE))
                             * 1000000.0) AS BIGINT)) AS BIGINT)
           AS h_cond,
         CAST(count(DISTINCT c.val) AS BIGINT) AS n_values
  FROM c JOIN vt ON vt.feature = c.feature AND vt.val = c.val
  CROSS JOIN tot
  GROUP BY 1
)
SELECT cond.feature, cond.n_values, hy.h AS h_label_micronats,
       cond.h_cond AS h_cond_micronats,
       hy.h - cond.h_cond AS info_gain_micronats
FROM cond CROSS JOIN hy ORDER BY 1
"""


def dp_noisy_counts(sf_dir: str, eps_x1000: int = 100,
                    seed_tag: str = "dpseed1") -> pa.Table:
    """DIFFERENTIALLY-PRIVATE release of per-event-type counts via the
    Laplace mechanism (Dwork et al., TCC 2006): count + Lap(1/eps)
    noise, sensitivity 1 (one event changes one count by 1).  The noise
    is SEEDED -- u = md5(event_type || tag) as a uniform in (0,1),
    noise = -b * sgn(u - 1/2) * ln(1 - 2|u - 1/2|) -- so the release is
    reproducible and the DuckDB oracle replays the exact same draw
    (a real deployment would use a fresh CSPRNG draw per release; the
    mechanism, sensitivity math, and post-processing are identical).

    Scale shape: the exact counts are a per-block combiner + tiny
    groupby (O(types) rows); noise is O(groups) driver math on the
    bounded result.
    """
    ds = _read(sf_dir, "events", ["event_type"])
    counts = combine_agg(ds, ["event_type"], lambda t: t,
                         [("event_type", "count")],
                         named("event_type", "n_exact")).to_pandas()
    b = 1000.0 / eps_x1000  # b = 1/eps
    from ..hashing import md5_pair_uint64
    keys = [f"{t}:{seed_tag}" for t in counts["event_type"]]
    h1, _ = md5_pair_uint64(keys)
    u = h1.astype(np.float64) / 18446744073709551616.0
    noise = -b * np.sign(u - 0.5) * np.log(1.0 - 2.0 * np.abs(u - 0.5))
    noisy = np.round(counts["n_exact"].to_numpy() + noise, 6)
    out = pa.table({
        "event_type": pa.array(counts["event_type"], type=pa.string()),
        "n_exact": pa.array(counts["n_exact"].astype(np.int64)),
        "n_noisy": pa.array(noisy, type=pa.float64()),
        "eps_x1000": pa.array(np.full(len(counts), eps_x1000,
                                      dtype=np.int64)),
    })
    return out.sort_by("event_type")


DP_NOISY_COUNTS_SQL = """
WITH c AS (
  SELECT event_type, CAST(count(*) AS BIGINT) AS n_exact
  FROM events GROUP BY 1
), u AS (
  SELECT event_type, n_exact,
         CAST(CAST(('0x' || substr(md5(event_type || ':dpseed1'), 1, 16))
              AS UBIGINT) AS DOUBLE) / 18446744073709551616.0 AS u
  FROM c
)
SELECT event_type, n_exact,
       round(n_exact + (-10.0) * sign(u - 0.5)
             * ln(1.0 - 2.0 * abs(u - 0.5)), 6) AS n_noisy,
       CAST(100 AS BIGINT) AS eps_x1000
FROM u ORDER BY event_type
"""


def huber_location_by_flag(sf_dir: str, k_cents: int = 20000,
                           iters: int = 3) -> pa.Table:
    """HUBER M-estimator of location per returnflag via IRLS (Huber
    1964): weights w = min(1, k/|x - mu|) downweight tail prices so the
    estimate sits between mean (outlier-dragged) and median (discards
    magnitude).  Fixed-point iterated ``iters`` times from the exact
    integer mean.

    Every iteration is one distributed pass: per-block partial
    (flag, sum(w_milli * x), sum(w_milli)) with weights quantized to
    integer milli-units, folded by a tiny groupby -- the update is
    order-independent integer math, so the DuckDB twin replays the
    exact trajectory.  Driver holds only O(flags) state between
    iterations (broadcast back into the next pass).
    """
    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_extendedprice"])

    def cents_stage(t: pa.Table) -> pa.Table:
        return pa.table({"flag": t["l_returnflag"],
                         "cents": _int_units(t["l_extendedprice"], 100)})

    base = (combine_agg(ds, ["flag"], cents_stage,
                        [("cents", "sum"), ("cents", "count")],
                        named("flag", "s", "n"))
            .to_pandas().sort_values("flag"))
    flags = base["flag"].tolist()
    mu = {f: int(s) // int(n)
          for f, s, n in zip(flags, base["s"], base["n"])}
    n_by = {f: int(n) for f, n in zip(flags, base["n"])}

    for _ in range(iters):
        mu_ref = ray.put(dict(mu))

        def wstage(t: pa.Table, _ref=mu_ref) -> pa.Table:
            m = ray.get(_ref)
            flag = np.asarray(t["l_returnflag"].to_pylist(),
                              dtype=np.str_)
            x = _int_units(t["l_extendedprice"], 100).to_numpy(
                zero_copy_only=False)
            uf, inv = np.unique(flag, return_inverse=True)
            mu_row = np.array([m[f] for f in uf], dtype=np.int64)[inv]
            dev = np.abs(x - mu_row)
            # w_milli = min(1000, k*1000 // dev)  (w=1 inside the knee)
            w = np.where(dev <= k_cents, np.int64(1000),
                         (np.int64(k_cents) * 1000)
                         // np.maximum(dev, 1))
            return pa.table({"flag": t["l_returnflag"], "wx": w * x,
                             "w": w})

        it = combine_agg(ds, ["flag"], wstage,
                         [("wx", "sum"), ("w", "sum")],
                         named("flag", "swx", "sw")).to_pandas()
        mu = {f: int(swx) // int(sw)
              for f, swx, sw in zip(it["flag"], it["swx"], it["sw"])}

    mean_cents = {f: int(s) // int(n)
                  for f, s, n in zip(flags, base["s"], base["n"])}
    return pa.table({
        "l_returnflag": pa.array(flags, type=pa.string()),
        "n_rows": pa.array([n_by[f] for f in flags], type=pa.int64()),
        "mean_cents": pa.array([mean_cents[f] for f in flags],
                               type=pa.int64()),
        "huber_cents": pa.array([mu[f] for f in flags],
                                type=pa.int64()),
    })


HUBER_LOCATION_SQL = """
WITH x AS (
  SELECT l_returnflag AS flag,
         CAST(round(l_extendedprice * 100) AS BIGINT) AS c
  FROM lineitem
), m0 AS (
  SELECT flag, CAST(sum(c) AS BIGINT) // CAST(count(*) AS BIGINT) AS mu,
         CAST(sum(c) AS BIGINT) // CAST(count(*) AS BIGINT) AS mean_c,
         CAST(count(*) AS BIGINT) AS n
  FROM x GROUP BY 1
), m1 AS (
  SELECT x.flag,
         CAST(sum(CASE WHEN abs(x.c - m0.mu) <= 20000 THEN 1000
                       ELSE 20000000 // greatest(abs(x.c - m0.mu), 1)
                  END * x.c) AS BIGINT)
           // CAST(sum(CASE WHEN abs(x.c - m0.mu) <= 20000 THEN 1000
                            ELSE 20000000 // greatest(abs(x.c - m0.mu), 1)
                       END) AS BIGINT) AS mu
  FROM x JOIN m0 USING (flag) GROUP BY 1
), m2 AS (
  SELECT x.flag,
         CAST(sum(CASE WHEN abs(x.c - m1.mu) <= 20000 THEN 1000
                       ELSE 20000000 // greatest(abs(x.c - m1.mu), 1)
                  END * x.c) AS BIGINT)
           // CAST(sum(CASE WHEN abs(x.c - m1.mu) <= 20000 THEN 1000
                            ELSE 20000000 // greatest(abs(x.c - m1.mu), 1)
                       END) AS BIGINT) AS mu
  FROM x JOIN m1 ON m1.flag = x.flag GROUP BY 1
), m3 AS (
  SELECT x.flag,
         CAST(sum(CASE WHEN abs(x.c - m2.mu) <= 20000 THEN 1000
                       ELSE 20000000 // greatest(abs(x.c - m2.mu), 1)
                  END * x.c) AS BIGINT)
           // CAST(sum(CASE WHEN abs(x.c - m2.mu) <= 20000 THEN 1000
                            ELSE 20000000 // greatest(abs(x.c - m2.mu), 1)
                       END) AS BIGINT) AS mu
  FROM x JOIN m2 ON m2.flag = x.flag GROUP BY 1
)
SELECT m0.flag AS l_returnflag, m0.n AS n_rows,
       m0.mean_c AS mean_cents, m3.mu AS huber_cents
FROM m0 JOIN m3 ON m3.flag = m0.flag ORDER BY 1
"""


def template_prefix_clusters(sf_dir: str, n_tokens: int = 2,
                             k: int = 15) -> pa.Table:
    """TEMPLATE detection by opening-prefix clustering: group documents
    on their first ``n_tokens`` tokens and report the top-k most
    repeated prefixes with document counts and distinct-source spread
    -- the boilerplate screen a Common-Crawl curation pass runs to find
    mirrored/templated pages before content dedup.

    Scale shape: prefix extraction is zero-copy Arrow kernels (split ->
    list_slice -> binary_join); a per-block (prefix, source) combiner
    bounds the shuffle at O(distinct prefixes x sources) rows per
    block; the final top-k sort runs on the aggregated prefix table.
    """
    ds = _read(sf_dir, "documents", ["text", "source"])

    def prep(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t["text"], pattern=" ")
        return pa.table({
            "prefix": pc.binary_join(pc.list_slice(toks, 0, n_tokens), " "),
            "source": t["source"]})

    per_src = combine_agg(ds, ["prefix", "source"], prep,
                          [("source", "count")],
                          named("prefix", "source", "n"))
    agg = combine_agg(per_src, ["prefix"], lambda t: t,
                      [("n", "sum"), ("n", "count")],
                      named("prefix", "n_docs", "n_sources")).to_pandas()
    agg = agg.sort_values(["n_docs", "prefix"],
                          ascending=[False, True]).head(k)
    return pa.table({
        "prefix": pa.array(agg["prefix"], type=pa.string()),
        "n_docs": pa.array(agg["n_docs"].astype(np.int64)),
        "n_sources": pa.array(agg["n_sources"].astype(np.int64)),
    })


TEMPLATE_PREFIX_SQL = """
WITH p AS (
  SELECT array_to_string(list_slice(string_split(text, ' '), 1, 2), ' ')
           AS prefix,
         source
  FROM documents
)
SELECT prefix, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(count(DISTINCT source) AS BIGINT) AS n_sources
FROM p GROUP BY 1
ORDER BY n_docs DESC, prefix LIMIT 15
"""


def doc_novelty_stats(sf_dir: str, shingle_n: int = 3) -> pa.Table:
    """SHINGLE-NOVELTY per source: for each document, the share of its
    distinct token ``shingle_n``-grams that occur in NO other document
    (global document frequency 1), averaged per source in exact integer
    micro units -- the memorization/novelty complement of the
    duplication metrics: sources full of template shingles score low,
    genuinely novel text scores high.

    Dataflow (all vectorized): per block, distinct (doc, shingle-fp)
    rows via token fingerprints combined through a splitmix chain; a
    shingle-fp co-partition attaches global document frequency as a
    run length IN PLACE (no vocabulary groupby, nothing driver-side --
    the same rarity trick as ppjoin); a grouped (doc, source) combiner
    folds to per-doc (n_shingles, n_unique); the per-source mean is a
    tiny final groupby.  Fp64 tier: grouping by 64-bit shingle
    fingerprints equals the SQL twin's group-by-string as long as the
    fingerprint is collision-free on the observed shingle set (the
    tier contract asserted by the dedup tests).
    """
    from ..functions.text import fingerprint64
    from ..hashing import splitmix64
    from ..stages.partition import fit_partitions, partition_by

    ds = _read(sf_dir, "documents", ["doc_id", "source", "text"])

    row_empty = pa.table({"doc_id": pa.array([], type=pa.int64()),
                          "src": pa.array([], type=pa.string()),
                          "fp": pa.array([], type=pa.int64())})

    def shingles(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return row_empty
        toks = pc.split_pattern(t["text"], pattern=" ")
        flat = pc.list_flatten(toks).combine_chunks()
        if len(flat) == 0:
            return row_empty
        f = fingerprint64(flat).to_numpy(zero_copy_only=False)
        nper = pc.list_value_length(toks).to_numpy(
            zero_copy_only=False).astype(np.int64)
        doc_row = np.repeat(np.arange(t.num_rows, dtype=np.int64), nper)
        n = f.shape[0]
        w = shingle_n
        if n < w:
            return row_empty
        valid = doc_row[: n - w + 1] == doc_row[w - 1:]
        # splitmix chain over the window's token fps: the leading fp is
        # hashed FIRST so every chain step is non-commutative
        # (sm(sm(f0)+f1) != sm(sm(f1)+f0)); injective w.h.p., one
        # vectorized pass per window position
        h = splitmix64(f[: n - w + 1].astype(np.uint64))
        for j in range(1, w):
            h = splitmix64(h + f[j: n - w + 1 + j].astype(np.uint64))
        h = (h >> np.uint64(1)).astype(np.int64)[valid]
        docs = doc_row[: n - w + 1][valid]
        order = np.lexsort((h, docs))
        d_s, h_s = docs[order], h[order]
        keep = np.ones(d_s.size, dtype=bool)
        keep[1:] = (d_s[1:] != d_s[:-1]) | (h_s[1:] != h_s[:-1])
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        src = np.asarray(t["source"].to_pylist(), dtype=np.str_)
        return pa.table({
            "doc_id": pa.array(ids[d_s[keep]].astype(np.int64)),
            "src": pa.array(src[d_s[keep]].tolist(), type=pa.string()),
            "fp": pa.array(h_s[keep]),
        })

    rows = ds.map_batches(shingles, batch_format="pyarrow",
                          zero_copy_batch=True)

    part_empty = pa.table({"doc_id": pa.array([], type=pa.int64()),
                           "src": pa.array([], type=pa.string()),
                           "uniq": pa.array([], type=pa.int64())})

    def attach_df(t: pa.Table) -> pa.Table:
        # fp co-partition: every row of a shingle is here, so df is a
        # run length; each (doc, src, shingle) row learns if it is unique
        fp = t["fp"].to_numpy(zero_copy_only=False)
        order = np.argsort(fp, kind="stable")
        f_s = fp[order]
        new = np.ones(f_s.size, dtype=bool)
        new[1:] = f_s[1:] != f_s[:-1]
        rlen = np.diff(np.append(np.flatnonzero(new), f_s.size))
        return pa.table({
            "doc_id": pc.take(t["doc_id"], pa.array(order)),
            "src": pc.take(t["src"], pa.array(order)),
            "uniq": pa.array((np.repeat(rlen, rlen) == 1).astype(np.int64)),
        })

    per_doc = combine_agg(partition_by(rows, ["fp"], fit_partitions(16),
                                       attach_df, part_empty),
                          ["doc_id", "src"], lambda t: t,
                          [("uniq", "count"), ("uniq", "sum")],
                          named("doc_id", "src", "n_sh", "n_uniq"))

    def share(t: pa.Table) -> pa.Table:
        return pa.table({
            "source": t["src"],
            "share": (t["n_uniq"].to_numpy(zero_copy_only=False)
                      * np.int64(1_000_000))
            // t["n_sh"].to_numpy(zero_copy_only=False)})

    agg = (combine_agg(per_doc, ["source"], share,
                       [("share", "sum"), ("share", "count")],
                       named("source", "s", "n"))
           .to_pandas().sort_values("source"))
    return pa.table({
        "source": pa.array(agg["source"], type=pa.string()),
        "n_docs": pa.array(agg["n"].astype(np.int64)),
        "mean_novelty_micro": pa.array(
            (agg["s"].astype(np.int64) // agg["n"].astype(np.int64))
            .astype(np.int64)),
    })


DOC_NOVELTY_SQL = """
WITH toks AS (
  SELECT doc_id, source, string_split(text, ' ') AS l FROM documents
), sh AS (
  SELECT DISTINCT doc_id, source,
         array_to_string(list_slice(l, i, i + 2), ' ') AS s
  FROM (SELECT doc_id, source, l,
               unnest(generate_series(1, len(l) - 2)) AS i
        FROM toks)
), df AS (
  SELECT s, CAST(count(*) AS BIGINT) AS d FROM sh GROUP BY 1
), per_doc AS (
  SELECT sh.doc_id, sh.source,
         CAST(count(*) AS BIGINT) AS n_sh,
         CAST(sum(CASE WHEN df.d = 1 THEN 1 ELSE 0 END) AS BIGINT)
           AS n_uniq
  FROM sh JOIN df USING (s) GROUP BY 1, 2
)
SELECT source, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(n_uniq * 1000000 // n_sh) // count(*) AS BIGINT)
         AS mean_novelty_micro
FROM per_doc GROUP BY 1 ORDER BY 1
"""


def median_polish_doclen(sf_dir: str, sweeps: int = 2) -> pa.Table:
    """TUKEY MEDIAN POLISH of the (lang x source) table of median
    document lengths: alternately subtract row and column low-medians
    for ``sweeps`` sweeps, decomposing each cell into
    cell = row_effect + col_effect + residual -- the classic robust
    two-way ANOVA screen (Tukey, EDA 1977).  A residual that stays
    large flags a (lang, source) pocket whose length distribution no
    additive model explains -- the kind of cell a curation pass
    investigates.

    Scale shape: the per-cell low-medians come from the exact
    distributed quantile machinery (histogram bisection, one data pass
    per round for ALL cells together); the polish itself is driver
    arithmetic on the langs x sources matrix -- dimension-bounded.
    Low-median (quantile_disc 0.5) keeps every step integer-exact, so
    the DuckDB twin replays the full sweep trajectory.
    """
    from .quantiles import exact_quantiles_grouped

    ds = _read(sf_dir, "documents", ["lang", "source", "n_chars"])

    def cellify(t: pa.Table) -> pa.Table:
        cell = pc.binary_join_element_wise(t["lang"], t["source"], "|")
        return pa.table({"cell": cell,
                         "v": pc.cast(t["n_chars"], pa.float64())})

    cells = exact_quantiles_grouped(
        ds.map_batches(cellify, batch_format="pyarrow",
                       zero_copy_batch=True),
        "v", "cell", [0.5]).to_pydict()

    import pandas as pd
    rows = []
    for cell, v in zip(cells["cell"], cells["value"]):
        lang, source = cell.split("|", 1)
        rows.append((lang, source, int(v)))
    df = pd.DataFrame(rows, columns=["lang", "source", "med"])
    df["resid"] = df["med"]
    row_eff = {l: 0 for l in df["lang"].unique()}
    col_eff = {s: 0 for s in df["source"].unique()}

    def lowmed(v: "pd.Series") -> int:
        s = sorted(int(x) for x in v)
        return s[(len(s) + 1) // 2 - 1]

    for _ in range(sweeps):
        r = df.groupby("lang")["resid"].apply(lowmed)
        for l, x in r.items():
            row_eff[l] += int(x)
        df["resid"] = df["resid"] - df["lang"].map(r).astype(int)
        c = df.groupby("source")["resid"].apply(lowmed)
        for s, x in c.items():
            col_eff[s] += int(x)
        df["resid"] = df["resid"] - df["source"].map(c).astype(int)

    df = df.sort_values(["lang", "source"]).reset_index(drop=True)
    return pa.table({
        "lang": pa.array(df["lang"], type=pa.string()),
        "source": pa.array(df["source"], type=pa.string()),
        "cell_med": pa.array(df["med"].astype(np.int64)),
        "row_eff": pa.array(df["lang"].map(row_eff).astype(np.int64)),
        "col_eff": pa.array(df["source"].map(col_eff).astype(np.int64)),
        "residual": pa.array(df["resid"].astype(np.int64)),
    })


MEDIAN_POLISH_SQL = """
WITH cells AS (
  SELECT lang, source,
         CAST(quantile_disc(n_chars, 0.5) AS BIGINT) AS v
  FROM documents GROUP BY 1, 2
), r1 AS (
  SELECT lang, CAST(quantile_disc(v, 0.5) AS BIGINT) AS r
  FROM cells GROUP BY 1
), m1 AS (
  SELECT c.lang, c.source, c.v - r1.r AS v
  FROM cells c JOIN r1 USING (lang)
), c1 AS (
  SELECT source, CAST(quantile_disc(v, 0.5) AS BIGINT) AS c
  FROM m1 GROUP BY 1
), m2 AS (
  SELECT m1.lang, m1.source, m1.v - c1.c AS v
  FROM m1 JOIN c1 USING (source)
), r2 AS (
  SELECT lang, CAST(quantile_disc(v, 0.5) AS BIGINT) AS r
  FROM m2 GROUP BY 1
), m3 AS (
  SELECT m2.lang, m2.source, m2.v - r2.r AS v
  FROM m2 JOIN r2 USING (lang)
), c2 AS (
  SELECT source, CAST(quantile_disc(v, 0.5) AS BIGINT) AS c
  FROM m3 GROUP BY 1
), m4 AS (
  SELECT m3.lang, m3.source, m3.v - c2.c AS v
  FROM m3 JOIN c2 USING (source)
)
SELECT cells.lang, cells.source, cells.v AS cell_med,
       r1.r + r2.r AS row_eff, c1.c + c2.c AS col_eff,
       m4.v AS residual
FROM cells
JOIN r1 ON r1.lang = cells.lang
JOIN r2 ON r2.lang = cells.lang
JOIN c1 ON c1.source = cells.source
JOIN c2 ON c2.source = cells.source
JOIN m4 ON m4.lang = cells.lang AND m4.source = cells.source
ORDER BY 1, 2
"""
