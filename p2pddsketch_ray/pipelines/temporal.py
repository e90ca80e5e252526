"""Temporal joins: as-of join (latest right row at or before each left
row's timestamp, per key) as a first-class distributed operator.

The reference engine has no join machinery at all (it is a quantile
gossip simulator -- main.cpp drives sketch exchange only); an as-of join
is one of the "operators Ray Data lacks" the engine adds for
training-data pipelines (BASELINE.md north star: event/feature alignment
at Common-Crawl scale).

Dataflow (Ray-Data-first, no driver materialization):

1. both sides are projected to a shared schema (`_key`, `_ts`, `_side`,
   payload columns null-padded on the other side) and unioned -- the
   union stays lazy, blocks stream;
2. coarse hash co-partitioning on `_key` (`stages/partition.partition_by`
   -- ONE vectorized call per partition, not per group);
3. per partition, a fully vectorized as-of kernel: dense-rank the union
   of timestamps (rank order == value order, so `>=` semantics survive),
   build the composite sort key ``key_rank * (n_ts_ranks+1) + ts_rank``,
   and one ``np.searchsorted(right_composites, left_composites, 'right')
   - 1`` finds every left row's match -- no per-key Python loop.

Partitioning assumption (documented like sessionization's): all right
rows of one key fit in one partition.  Right sides are dimension-like
(orders per customer, checkpoints per shard), so a key's history is
millions of rows at most while partitions hold billions; a key whose
history exceeds a partition would need a secondary time-split + boundary
broadcast of each split's last row.

Tie handling: if several right rows share (key, ts), searchsorted picks
whichever sorted last -- nondeterministic under shuffle.  Callers that
need bit-stable output (the driver's oracle gate) must pre-deduplicate
the right side to one row per (key, ts) with a deterministic rule;
`events_asof_orders` keeps the max `o_orderkey` and its DuckDB oracle
replicates that with a row_number() CTE, because SQL ASOF JOIN leaves
the same tie unspecified.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..sources.tables import read_table
from ..stages.combine import combine_agg, named
from ..stages.partition import fit_partitions, partition_by
from ..stages.sketch_build import collect


def _as_int64(col) -> np.ndarray:
    """int64 view of an int/timestamp column (timestamps: epoch micros)."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if pa.types.is_timestamp(arr.type):
        arr = arr.cast(pa.int64())
    return arr.to_numpy(zero_copy_only=False).astype(np.int64, copy=False)


def asof_join(left_ds, right_ds, *, left_on: str, right_on: str,
              left_ts: str, right_ts: str,
              left_cols: Sequence[str], right_cols: Sequence[str],
              num_partitions: int | None = None,
              left_schema: pa.Schema | None = None,
              right_schema: pa.Schema | None = None,
              right_tiebreak: str | None = None,
              direction: str = "backward"):
    """events-style as-of join: for every left row, attach the right row
    with the greatest ``right_ts`` <= ``left_ts`` among rows whose
    ``right_on`` key equals the left row's ``left_on`` key (inclusive
    match, LEFT join -- unmatched rows keep nulls).

    ``direction="forward"`` flips the match to the SMALLEST
    ``right_ts`` >= ``left_ts`` (the "next event after" join, DuckDB
    ``ASOF JOIN ... ON l.ts <= r.ts``); the ``right_tiebreak`` dedup
    then keeps the MIN tiebreak per (key, ts) instead of the max,
    mirroring a ``row_number() ... ORDER BY tb ASC`` oracle CTE.

    ``direction="nearest"`` attaches the right row minimizing
    ``abs(right_ts - left_ts)``; an exact distance tie between a row
    before and a row after picks the BEFORE row (deterministic, and
    what a SQL ``ORDER BY abs(gap), gap`` brute-force replicates).
    Tie-dedup under nearest keeps the max tiebreak (backward's rule).

    Returns a Dataset with ``left_cols`` + ``right_cols`` (+ ``_matched``
    bool).  Only the named columns ride the shuffle -- project before
    calling.  ``on``/ts columns must be int64 or timestamp[us].

    Pass ``left_schema``/``right_schema`` when a side is a derived
    dataset: ``Dataset.schema()`` on an unexecuted derived plan triggers
    a limit-1 execution of the whole plan just to learn the dtypes.

    ``right_tiebreak``: optional right payload column; when set, right
    rows are deduplicated to ONE per (key, ts) -- max tiebreak wins --
    INSIDE the join partition (all rows of a key are co-located there
    anyway), replacing what would otherwise be a second full shuffle of
    the right side just to pre-dedupe ties.
    """
    if direction not in ("backward", "forward", "nearest"):
        raise ValueError(f"direction must be backward|forward|nearest, "
                         f"got {direction!r}")
    left_cols = list(left_cols)
    right_cols = list(right_cols)
    overlap = set(left_cols) & set(right_cols)
    if overlap:
        raise ValueError(f"left/right payload column collision: {overlap}")

    if left_schema is None:
        left_schema = left_ds.schema()
    if right_schema is None:
        right_schema = right_ds.schema()
    l_types = {n: t for n, t in zip(left_schema.names, left_schema.types)}
    r_types = {n: t for n, t in zip(right_schema.names, right_schema.types)}
    payload = ([(c, l_types[c]) for c in left_cols]
               + [(c, r_types[c]) for c in right_cols])

    def norm(side: int, key_col: str, ts_col: str, own: list[str]):
        def f(t: pa.Table) -> pa.Table:
            n = t.num_rows
            cols = {
                "_key": pc.cast(t[key_col], pa.int64()),
                "_ts": pa.array(_as_int64(t[ts_col]), type=pa.int64()),
                "_side": pa.array(np.full(n, side, dtype=np.int8)),
            }
            for name, typ in payload:
                cols[name] = (t[name] if name in own
                              else pa.nulls(n, type=typ))
            return pa.table(cols)
        return f

    lhs = left_ds.map_batches(norm(0, left_on, left_ts, left_cols),
                              batch_format="pyarrow", zero_copy_batch=True)
    rhs = right_ds.map_batches(norm(1, right_on, right_ts, right_cols),
                               batch_format="pyarrow", zero_copy_batch=True)
    both = lhs.union(rhs)

    out_fields = ([(name, typ) for name, typ in payload]
                  + [("_matched", pa.bool_())])
    empty = pa.table({name: pa.array([], type=typ)
                      for name, typ in out_fields})

    def join_partition(t: pa.Table) -> pa.Table:
        side = t["_side"].to_numpy(zero_copy_only=False)
        key = t["_key"].to_numpy(zero_copy_only=False)
        ts = t["_ts"].to_numpy(zero_copy_only=False)
        li = np.nonzero(side == 0)[0]
        ri = np.nonzero(side == 1)[0]
        if li.shape[0] == 0:
            return empty
        if ri.shape[0] == 0:
            cols = {}
            for name in left_cols:
                cols[name] = t[name].take(pa.array(li))
            for name, typ in payload:
                if name in right_cols:
                    cols[name] = pa.nulls(li.shape[0], type=typ)
            cols["_matched"] = pa.array(
                np.zeros(li.shape[0], dtype=bool))
            return pa.table(cols)
        if right_tiebreak is not None and ri.shape[0] > 1:
            # one right row per (key, ts): max tiebreak wins backward,
            # min forward (fused tie-dedup; the partition holds every
            # row of each key)
            tb = pc.fill_null(pc.cast(t[right_tiebreak], pa.int64()),
                              0).to_numpy(zero_copy_only=False)
            tb_key = (tb[ri] if direction == "forward" else -tb[ri])
            order_d = np.lexsort((tb_key, ts[ri], key[ri]))
            rk_s, rts_s = key[ri][order_d], ts[ri][order_d]
            first = np.ones(order_d.shape[0], dtype=bool)
            first[1:] = (rk_s[1:] != rk_s[:-1]) | (rts_s[1:] != rts_s[:-1])
            ri = ri[order_d[first]]
        # dense ranks preserve <=, so the composite is a faithful
        # lexicographic (key, ts) order that fits one int64
        ukey, key_rank = np.unique(key, return_inverse=True)
        uts, ts_rank = np.unique(ts, return_inverse=True)
        comp = key_rank.astype(np.int64) * np.int64(uts.shape[0] + 1) \
            + ts_rank
        rc = comp[ri]
        order_r = np.argsort(rc, kind="stable")
        rc_sorted = rc[order_r]
        if direction == "backward":
            pos = np.searchsorted(rc_sorted, comp[li], side="right") - 1
            safe = np.maximum(pos, 0)
            matched = (pos >= 0) & (key_rank[ri[order_r[safe]]]
                                    == key_rank[li])
            src = ri[order_r[safe]]
        elif direction == "forward":
            pos = np.searchsorted(rc_sorted, comp[li], side="left")
            safe = np.minimum(pos, rc_sorted.shape[0] - 1)
            matched = (pos < rc_sorted.shape[0]) \
                & (key_rank[ri[order_r[safe]]] == key_rank[li])
            src = ri[order_r[safe]]
        else:
            # nearest: both neighbors from ONE sorted array, pick the
            # smaller |ts gap| in VALUE space (ranks only order the
            # search); exact-distance tie -> the before row
            pos_b = np.searchsorted(rc_sorted, comp[li], side="right") - 1
            safe_b = np.maximum(pos_b, 0)
            src_b = ri[order_r[safe_b]]
            m_b = (pos_b >= 0) & (key_rank[src_b] == key_rank[li])
            pos_f = np.searchsorted(rc_sorted, comp[li], side="left")
            safe_f = np.minimum(pos_f, rc_sorted.shape[0] - 1)
            src_f = ri[order_r[safe_f]]
            m_f = (pos_f < rc_sorted.shape[0]) \
                & (key_rank[src_f] == key_rank[li])
            gap_b = ts[li] - ts[src_b]
            gap_f = ts[src_f] - ts[li]
            use_f = m_f & (~m_b | (gap_f < gap_b))
            matched = m_b | m_f
            src = np.where(use_f, src_f, src_b)
        cols = {}
        for name in left_cols:
            cols[name] = t[name].take(pa.array(li))
        take_idx = np.where(matched, src, -1)
        idx_arr = pa.array(np.where(take_idx < 0, None, take_idx),
                           type=pa.int64())
        for name in right_cols:
            cols[name] = t[name].take(idx_arr)
        cols["_matched"] = pa.array(matched)
        return pa.table(cols)

    parts = (num_partitions if num_partitions is not None
             else fit_partitions(32))
    return partition_by(both, ["_key"], parts, join_partition, empty)


def _limbs(gap_us: np.ndarray) -> dict:
    """Non-negative microsecond gaps as two limbs, whole seconds (``s``)
    and the microsecond remainder (``r``): each limb's GLOBAL sum stays
    in int64 where one microsecond sum does not (the sf1-regime
    overflow)."""
    return {"s": pa.array(gap_us // 1_000_000),
            "r": pa.array(gap_us % 1_000_000)}


def _gap_totals(t: pa.Table, gap: str) -> dict:
    """``sum_{gap}_s`` and ``{gap}_rem_us`` (0..999999) from the merged
    limb sums ``s_sum`` and ``r_sum``: one carry normalization recovers
    the exact total.  Both limbs sum non-negative terms, so a negative
    one is a sum that wrapped past 2^63."""
    s = t["s_sum"].to_numpy(zero_copy_only=False)
    r = t["r_sum"].to_numpy(zero_copy_only=False)
    if (s < 0).any() or (r < 0).any():
        raise OverflowError(f"{gap} limb sum wrapped past int64")
    return {f"sum_{gap}_s": pa.array(s + r // 1_000_000),
            f"{gap}_rem_us": pa.array(r % 1_000_000)}


def _matched_limbs(t: pa.Table) -> pa.Table:
    """One row per matched as-of pair of ``t``: its (event_type,
    o_orderpriority), the order's integer cents and the limbs of
    ts - o_orderdate."""
    t = t.filter(t["_matched"])  # matched rows only: no nulls remain
    price = t["o_totalprice"].to_numpy(zero_copy_only=False)
    return pa.table({
        "event_type": t["event_type"],
        "o_orderpriority": t["o_orderpriority"],
        "cents": pa.array(np.floor(price * 100.0 + 0.5).astype(np.int64)),
        **_limbs(_as_int64(t["ts"]) - _as_int64(t["o_orderdate"]))})


def _asof_rollup(joined, gap: str) -> "ray.data.Dataset":
    """Per (event_type, o_orderpriority) of an as-of join's matched
    rows: n, sum_price_cents, and the total gap as ``sum_{gap}_s`` plus
    ``{gap}_rem_us``."""
    def finalize(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": t["event_type"],
            "o_orderpriority": t["o_orderpriority"],
            "n": t["cents_count"],
            "sum_price_cents": t["cents_sum"],
            **_gap_totals(t, gap),
        })

    return combine_agg(joined, ["event_type", "o_orderpriority"],
                       _matched_limbs,
                       [("cents", "count"), ("cents", "sum"),
                        ("s", "sum"), ("r", "sum")], finalize)


def events_asof_orders(sf_dir: str) -> pa.Table:
    """Driver query: align every event with that user's most recent order
    at event time (inclusive), then roll up per (event_type,
    o_orderpriority): match count, order value in integer cents, and the
    total event-to-order lag.  Integer sums keep the aggregate
    associative, so the result hash-matches the DuckDB ASOF JOIN oracle
    regardless of merge order.

    The lag total is carried as TWO bounded int64 limbs -- whole
    seconds (sum_lag_s) and the microsecond remainder (lag_rem_us,
    0..999999 after the finalize carry) -- because a single int64
    microsecond sum overflows in the 10x regime already (the sf1 tier
    caught exactly this: 2.8e19 us > 2^63).  Per-row split
    floor(lag/1e6) + lag%1e6 is exact for the non-negative as-of lags,
    and one carry normalization at finalize recovers the exact total;
    DuckDB replays it from its HUGEINT sum.  Range: the seconds limb
    sums whole seconds, so it stays in int64 while the group's total lag
    is below 2^63 s (~2.9e11 years: 10^12 matched rows at a mean lag
    under ~107 days); the remainder limb adds < 10^6 per row, so it
    stays in int64 up to ~9.2e12 rows.  Both limbs sum non-negative
    terms, so finalize raises on a negative limb: the sign a sum takes
    after wrapping past 2^63 once."""
    events = read_table(sf_dir, "events", ["ts", "user_id", "event_type"])
    orders = read_table(sf_dir, "orders",
                        ["o_custkey", "o_orderdate", "o_orderkey",
                         "o_totalprice", "o_orderpriority"])

    # deterministic tie-break: one order per (custkey, orderdate), max
    # o_orderkey wins (mirrored by the oracle's row_number() CTE) --
    # FUSED into the join partition kernel via right_tiebreak: the join
    # co-partitions orders by custkey anyway, so a separate pre-dedupe
    # shuffle of the whole orders table would be pure waste
    joined = asof_join(
        events, orders, left_on="user_id", right_on="o_custkey",
        left_ts="ts", right_ts="o_orderdate",
        left_cols=["ts", "user_id", "event_type"],
        right_cols=["o_orderdate", "o_orderkey", "o_totalprice",
                    "o_orderpriority"],
        right_tiebreak="o_orderkey")

    return _asof_rollup(joined, "lag")


EVENTS_ASOF_ORDERS_SQL = """
WITH ranked AS (
  SELECT o_custkey, o_orderdate, o_orderkey, o_totalprice, o_orderpriority,
         row_number() OVER (PARTITION BY o_custkey, o_orderdate
                            ORDER BY o_orderkey DESC) AS rn
  FROM orders
), uniq AS (
  SELECT * FROM ranked WHERE rn = 1
)
SELECT e.event_type,
       o.o_orderpriority,
       count(*) AS n,
       CAST(sum(CAST(floor(o.o_totalprice * 100.0 + 0.5) AS BIGINT))
            AS BIGINT) AS sum_price_cents,
       CAST(sum(date_diff('microsecond', o.o_orderdate, e.ts))
            // 1000000 AS BIGINT) AS sum_lag_s,
       CAST(sum(date_diff('microsecond', o.o_orderdate, e.ts))
            % 1000000 AS BIGINT) AS lag_rem_us
FROM events e
ASOF JOIN uniq o
  ON e.user_id = o.o_custkey AND e.ts >= o.o_orderdate
GROUP BY 1, 2
ORDER BY 1, 2
"""


def orders_asof_next_event(sf_dir: str) -> pa.Table:
    """FORWARD as-of: align every order with that customer's NEXT event
    at or after the order date (the attribution direction -- "what was
    the first touchpoint after this purchase"), rolled up per
    (o_orderpriority, event_type) with match counts, order cents and
    total order-to-event lead microseconds.  Same co-partitioned kernel
    as `events_asof_orders`, direction flipped; the fused tie-dedup
    keeps the MIN event_id per (user, ts) to mirror the oracle's
    row_number() ASC CTE."""
    orders = read_table(sf_dir, "orders",
                        ["o_custkey", "o_orderdate", "o_totalprice",
                         "o_orderpriority"])
    events = read_table(sf_dir, "events",
                        ["ts", "user_id", "event_type", "event_id"])

    joined = asof_join(
        orders, events, left_on="o_custkey", right_on="user_id",
        left_ts="o_orderdate", right_ts="ts",
        left_cols=["o_orderdate", "o_custkey", "o_totalprice",
                   "o_orderpriority"],
        right_cols=["ts", "event_type", "event_id"],
        right_tiebreak="event_id", direction="forward")

    out = (_asof_rollup(joined, "lead")
           .to_pandas()
           .sort_values(["event_type", "o_orderpriority"])
           .reset_index(drop=True))
    return pa.table({
        "event_type": pa.array(out["event_type"], type=pa.string()),
        "o_orderpriority": pa.array(out["o_orderpriority"],
                                    type=pa.string()),
        "n": pa.array(out["n"].to_numpy(dtype=np.int64)),
        "sum_price_cents": pa.array(
            out["sum_price_cents"].to_numpy(dtype=np.int64)),
        "sum_lead_s": pa.array(
            out["sum_lead_s"].to_numpy(dtype=np.int64)),
        "lead_rem_us": pa.array(
            out["lead_rem_us"].to_numpy(dtype=np.int64)),
    })


ORDERS_ASOF_NEXT_SQL = """
WITH ranked AS (
  SELECT user_id, ts, event_type, event_id,
         row_number() OVER (PARTITION BY user_id, ts
                            ORDER BY event_id ASC) AS rn
  FROM events
), uniq AS (
  SELECT * FROM ranked WHERE rn = 1
)
SELECT e.event_type,
       o.o_orderpriority,
       count(*) AS n,
       CAST(sum(CAST(floor(o.o_totalprice * 100.0 + 0.5) AS BIGINT))
            AS BIGINT) AS sum_price_cents,
       CAST(sum(date_diff('microsecond', o.o_orderdate, e.ts))
            // 1000000 AS BIGINT) AS sum_lead_s,
       CAST(sum(date_diff('microsecond', o.o_orderdate, e.ts))
            % 1000000 AS BIGINT) AS lead_rem_us
FROM orders o
ASOF JOIN uniq e
  ON o.o_custkey = e.user_id AND o.o_orderdate <= e.ts
GROUP BY 1, 2
ORDER BY 1, 2
"""


# ---------------------------------------------------------------------------
# Range (interval-overlap) join
# ---------------------------------------------------------------------------

def range_join_agg(point_ds, range_ds, *, point_ts: str, value_col: str,
                   range_key: str, range_start: str, window_us: int,
                   value_scale: float = 1e6,
                   num_partitions: int | None = None,
                   point_schema: pa.Schema | None = None,
                   range_schema: pa.Schema | None = None):
    """Distributed interval-overlap join with fused aggregation: for every
    range row ``[range_start, range_start + window_us)`` count the point
    rows whose ``point_ts`` falls inside it and sum their ``value_col``
    (in exact integer units of ``1/value_scale``).  LEFT semantics: every
    range row appears in the output, zero-filled when nothing overlaps.

    Another "operator Ray Data lacks" (no interval-join primitive; naive
    SQL engines run it as an inequality nested loop).  Dataflow:

    1. time-bucket both sides with bucket width == window length: a point
       lands in exactly ``floor(ts / W)``; a range overlaps at most TWO
       consecutive buckets, so ranges are replicated <= 2x while points
       -- the big side at web scale -- are never duplicated;
    2. coarse hash co-partition on the bucket id (``partition_by``);
    3. per partition, one vectorized kernel: lexsort points by
       (bucket, ts), dense-rank the union of point timestamps and range
       endpoints, form rank-composites ``bucket * K + ts_rank`` and
       answer every replica's [start, end) slice with two
       ``np.searchsorted`` calls against the sorted composites plus a
       prefix-sum gather for the value sum -- no per-range Python;
    4. per-replica partials (<= 2 small rows per range) flow through one
       ``combine_agg`` sum per range_key whose shuffle moves O(ranges)
       24-byte rows, never the points.

    Replicas of one range live in different buckets and a bucket's points
    all satisfy ``bucket == floor(ts / W)``, so the two replica slices are
    disjoint by construction -- no double counting and no clamp logic.
    """
    if point_schema is None:
        point_schema = point_ds.schema()
    if range_schema is None:
        range_schema = range_ds.schema()
    w = np.int64(window_us)

    def norm_points(t: pa.Table) -> pa.Table:
        ts = _as_int64(t[point_ts])
        vals = t[value_col].to_numpy(zero_copy_only=False)
        units = np.floor(vals * value_scale + 0.5).astype(np.int64)
        return pa.table({
            "_bucket": pa.array(ts // w, type=pa.int64()),
            "_ts": pa.array(ts, type=pa.int64()),
            "_key": pa.nulls(t.num_rows, type=pa.int64()),
            "_units": pa.array(units),
            "_side": pa.array(np.zeros(t.num_rows, dtype=np.int8)),
        })

    def norm_ranges(t: pa.Table) -> pa.Table:
        s = _as_int64(t[range_start])
        key = pc.cast(t[range_key], pa.int64()).to_numpy(zero_copy_only=False)
        b0 = s // w
        b1 = (s + w - 1) // w  # last bucket the half-open range touches
        extra = np.nonzero(b1 != b0)[0]  # second replica only when it differs
        bb = np.concatenate([b0, b1[extra]])
        ss = np.concatenate([s, s[extra]])
        kk = np.concatenate([key, key[extra]])
        return pa.table({
            "_bucket": pa.array(bb, type=pa.int64()),
            "_ts": pa.array(ss, type=pa.int64()),
            "_key": pa.array(kk, type=pa.int64()),
            "_units": pa.array(np.zeros(bb.shape[0], dtype=np.int64)),
            "_side": pa.array(np.ones(bb.shape[0], dtype=np.int8)),
        })

    points = point_ds.map_batches(norm_points, batch_format="pyarrow",
                                  zero_copy_batch=True)
    ranges = range_ds.map_batches(norm_ranges, batch_format="pyarrow",
                                  zero_copy_batch=True)
    both = points.union(ranges)

    empty = pa.table({range_key: pa.array([], type=pa.int64()),
                      "_n": pa.array([], type=pa.int64()),
                      "_sum": pa.array([], type=pa.int64())})

    def kernel(t: pa.Table) -> pa.Table:
        side = t["_side"].to_numpy(zero_copy_only=False)
        bucket = t["_bucket"].to_numpy(zero_copy_only=False)
        ts = t["_ts"].to_numpy(zero_copy_only=False)
        pi = np.nonzero(side == 0)[0]
        ri = np.nonzero(side == 1)[0]
        if ri.shape[0] == 0:
            return empty
        # dense ranks over the union of point ts and range endpoints keep
        # the composite faithful to (bucket, ts) lexicographic order
        starts = ts[ri]
        ends = starts + w
        uts = np.unique(np.concatenate([ts[pi], starts, ends]))
        k = np.int64(uts.shape[0] + 1)
        comp_p = bucket[pi] * k + np.searchsorted(uts, ts[pi])
        order = np.argsort(comp_p, kind="stable")
        comp_sorted = comp_p[order]
        units_sorted = t["_units"].to_numpy(zero_copy_only=False)[pi][order]
        csum = np.concatenate([[0], np.cumsum(units_sorted)])
        rb = bucket[ri]
        lo = np.searchsorted(comp_sorted, rb * k + np.searchsorted(uts, starts))
        hi = np.searchsorted(comp_sorted, rb * k + np.searchsorted(uts, ends))
        return pa.table({
            range_key: t["_key"].take(pa.array(ri)),
            "_n": pa.array((hi - lo).astype(np.int64)),
            "_sum": pa.array(csum[hi] - csum[lo]),
        })

    parts = (num_partitions if num_partitions is not None
             else fit_partitions(32))
    partials = partition_by(both, ["_bucket"], parts, kernel, empty)
    return combine_agg(partials, [range_key], lambda t: t,
                       [("_n", "sum"), ("_sum", "sum")],
                       named(range_key, "_n", "_sum"))


def orders_event_window_stats(sf_dir: str,
                              window_days: int = 7) -> "ray.data.Dataset":
    """Driver query: for every order, the number of events (any user) in
    the ``window_days`` window starting at its order date and their total
    value in integer micro-units.  Exercises the interval join with LEFT
    semantics; integer sums keep the rollup merge-order-proof."""
    events = read_table(sf_dir, "events", ["ts", "value"])
    orders = read_table(sf_dir, "orders", ["o_orderkey", "o_orderdate"])
    agg = range_join_agg(
        events, orders, point_ts="ts", value_col="value",
        range_key="o_orderkey", range_start="o_orderdate",
        window_us=window_days * 86_400_000_000)

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": pc.cast(t["o_orderkey"], pa.int64()),
            "n_events": pc.cast(t["_n"], pa.int64()),
            "sum_value_micros": pc.cast(t["_sum"], pa.int64()),
        })

    return agg.map_batches(finalize, batch_format="pyarrow")


ORDERS_EVENT_WINDOW_SQL = """
SELECT o.o_orderkey,
       count(e.ts) AS n_events,
       CAST(coalesce(sum(CAST(floor(e.value * 1000000.0 + 0.5) AS BIGINT)),
                     0) AS BIGINT) AS sum_value_micros
FROM orders o
LEFT JOIN events e
  ON e.ts >= o.o_orderdate
 AND e.ts < o.o_orderdate + INTERVAL 7 DAY
GROUP BY 1
ORDER BY 1
"""


# ---------------------------------------------------------------------------
# Per-key ordered window functions (lag / delta)
# ---------------------------------------------------------------------------

def user_event_lag_stats(sf_dir: str) -> "ray.data.Dataset":
    """Driver query: SQL window functions ``lag(...) OVER (PARTITION BY
    user_id ORDER BY ts, event_id)`` as a distributed operator -- per
    user, each event's value delta and time gap versus that user's
    previous event, rolled up per event_type.

    Dataflow: coarse hash co-partition on user_id (every user's history
    lands in one partition -- same assumption as sessionization, with the
    same time-split escape hatch if a user ever outgrows a partition),
    then ONE vectorized kernel per partition: lexsort by (user, ts,
    event_id), shift-compare to find same-user predecessors, integer
    micro-unit diffs, one row per event; ``combine_agg`` sums them per
    event_type, so the final shuffle moves O(types) rows per batch.

    Values are diffed in integer micro-units (exact, associative); the
    (ts, event_id) ordering makes the lag deterministic under ties.
    """
    events = read_table(sf_dir, "events",
                        ["event_id", "ts", "user_id", "event_type", "value"])

    empty = pa.table({"event_type": pa.array([], type=pa.string()),
                      **{c: pa.array([], type=pa.int64())
                         for c in ("prev", "du", "s", "r")}})

    def prep(t: pa.Table) -> pa.Table:
        units = np.floor(
            t["value"].to_numpy(zero_copy_only=False) * 1e6 + 0.5
        ).astype(np.int64)
        return pa.table({
            "user_id": t["user_id"],
            "ts": pa.array(_as_int64(t["ts"]), type=pa.int64()),
            "event_id": t["event_id"],
            "event_type": t["event_type"],
            "units": pa.array(units),
        })

    def lag_kernel(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        ts = t["ts"].to_numpy(zero_copy_only=False)
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        units = t["units"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        uid_s, ts_s, units_s = uid[order], ts[order], units[order]
        has_prev = np.zeros(order.shape[0], dtype=bool)
        has_prev[1:] = uid_s[1:] == uid_s[:-1]
        du = np.zeros(order.shape[0], dtype=np.int64)
        gap = np.zeros(order.shape[0], dtype=np.int64)
        du[1:] = units_s[1:] - units_s[:-1]
        gap[1:] = ts_s[1:] - ts_s[:-1]
        du[~has_prev] = 0
        gap[~has_prev] = 0
        return pa.table({
            "event_type": t["event_type"].take(pa.array(order)),
            "prev": pa.array(has_prev.astype(np.int64)),
            "du": pa.array(du), **_limbs(gap)})

    prepped = events.map_batches(prep, batch_format="pyarrow",
                                 zero_copy_batch=True)
    partials = partition_by(prepped, ["user_id"], fit_partitions(32),
                            lag_kernel, empty)

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": t["event_type"],
            "n_with_prev": t["prev_sum"],
            "sum_dvalue_units": t["du_sum"],
            **_gap_totals(t, "gap"),
        })

    return combine_agg(partials, ["event_type"], lambda t: t,
                       [("prev", "sum"), ("du", "sum"), ("s", "sum"),
                        ("r", "sum")], finalize)


USER_EVENT_LAG_SQL = """
WITH v AS (
  SELECT user_id, ts, event_id, event_type,
         CAST(floor(value * 1000000.0 + 0.5) AS BIGINT) AS units
  FROM events
), w AS (
  SELECT event_type,
         units - lag(units) OVER (PARTITION BY user_id
                                  ORDER BY ts, event_id) AS du,
         date_diff('microsecond',
                   lag(ts) OVER (PARTITION BY user_id
                                 ORDER BY ts, event_id), ts) AS gap
  FROM v
)
SELECT event_type,
       count(du) AS n_with_prev,
       CAST(coalesce(sum(du), 0) AS BIGINT) AS sum_dvalue_units,
       CAST(coalesce(sum(gap), 0) // 1000000 AS BIGINT) AS sum_gap_s,
       CAST(coalesce(sum(gap), 0) % 1000000 AS BIGINT) AS gap_rem_us
FROM w
GROUP BY 1
ORDER BY 1
"""


def user_running_totals(sf_dir: str) -> "ray.data.Dataset":
    """Cumulative windowed aggregate: per event, the running sum of the
    user's values so far and the event's rank in the user's history --
    ``sum(v) OVER (PARTITION BY user ORDER BY ts, id ROWS UNBOUNDED
    PRECEDING)`` as a distributed per-ROW operator (unlike the lag
    ROLLUP, the full O(events) result survives to the output).

    Dataflow: the same coarse user-hash co-partition as the lag/session
    kernels, then one vectorized pass per partition: lexsort by (user,
    ts, event_id), one np.cumsum, and a per-user base subtraction
    (cumsum minus the group's starting offset) -- prefix sums with
    resets, no per-user Python.  Integer micro-units keep the running
    sums exact and order-proof."""
    events = read_table(sf_dir, "events",
                        ["event_id", "ts", "user_id", "value"])

    empty = pa.table({"event_id": pa.array([], type=pa.int64()),
                      "user_id": pa.array([], type=pa.int64()),
                      "rnk": pa.array([], type=pa.int64()),
                      "running_units": pa.array([], type=pa.int64())})

    def prep(t: pa.Table) -> pa.Table:
        units = np.floor(
            t["value"].to_numpy(zero_copy_only=False) * 1e6 + 0.5
        ).astype(np.int64)
        return pa.table({
            "user_id": pc.cast(t["user_id"], pa.int64()),
            "ts": pa.array(_as_int64(t["ts"]), type=pa.int64()),
            "event_id": pc.cast(t["event_id"], pa.int64()),
            "units": pa.array(units),
        })

    def running_kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        ts = t["ts"].to_numpy(zero_copy_only=False)
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        units = t["units"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        uid_s, units_s = uid[order], units[order]
        cs = np.cumsum(units_s)
        new_grp = np.ones(order.shape[0], dtype=bool)
        new_grp[1:] = uid_s[1:] != uid_s[:-1]
        starts = np.nonzero(new_grp)[0]
        counts = np.diff(np.append(starts, order.shape[0]))
        base = np.repeat(cs[starts] - units_s[starts], counts)
        rank = np.arange(order.shape[0]) - np.repeat(starts, counts) + 1
        return pa.table({
            "event_id": pa.array(eid[order]),
            "user_id": pa.array(uid_s),
            "rnk": pa.array(rank.astype(np.int64)),
            "running_units": pa.array(cs - base),
        })

    prepped = events.map_batches(prep, batch_format="pyarrow",
                                 zero_copy_batch=True)
    return partition_by(prepped, ["user_id"], fit_partitions(32),
                        running_kernel, empty)


USER_RUNNING_TOTALS_SQL = """
SELECT CAST(event_id AS BIGINT) AS event_id,
       CAST(user_id AS BIGINT) AS user_id,
       CAST(row_number() OVER w AS BIGINT) AS rnk,
       CAST(sum(CAST(floor(value * 1000000.0 + 0.5) AS BIGINT))
            OVER w AS BIGINT) AS running_units
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
             ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
ORDER BY user_id, rnk
"""


def user_moving_window(sf_dir: str, window: int = 4) -> "ray.data.Dataset":
    """Bounded ROLLING window aggregate: per event, the sum/count of the
    user's last ``window`` values -- ``sum(v) OVER (PARTITION BY user
    ORDER BY ts, id ROWS BETWEEN 3 PRECEDING AND CURRENT ROW)`` -- the
    sliding companion of the UNBOUNDED-PRECEDING running total above.

    Same coarse user-hash co-partition; per partition one lexsort + one
    cumsum, then the windowed sum is a cumsum DIFFERENCE (inclusive
    cumsum minus the exclusive cumsum at the clamped window start) --
    no per-row loop, no per-user Python, exact int64 micro-units."""
    events = read_table(sf_dir, "events",
                        ["event_id", "ts", "user_id", "value"])

    empty = pa.table({"event_id": pa.array([], type=pa.int64()),
                      "user_id": pa.array([], type=pa.int64()),
                      "n_window": pa.array([], type=pa.int64()),
                      "moving_units": pa.array([], type=pa.int64())})

    def prep(t: pa.Table) -> pa.Table:
        units = np.floor(
            t["value"].to_numpy(zero_copy_only=False) * 1e6 + 0.5
        ).astype(np.int64)
        return pa.table({
            "user_id": pc.cast(t["user_id"], pa.int64()),
            "ts": pa.array(_as_int64(t["ts"]), type=pa.int64()),
            "event_id": pc.cast(t["event_id"], pa.int64()),
            "units": pa.array(units),
        })

    def window_kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        ts = t["ts"].to_numpy(zero_copy_only=False)
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        units = t["units"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        uid_s, units_s = uid[order], units[order]
        n = order.shape[0]
        cs = np.cumsum(units_s)
        ecs = cs - units_s                       # exclusive prefix sum
        new_grp = np.ones(n, dtype=bool)
        new_grp[1:] = uid_s[1:] != uid_s[:-1]
        starts = np.nonzero(new_grp)[0]
        counts = np.diff(np.append(starts, n))
        starts_row = np.repeat(starts, counts)
        r = np.arange(n) - starts_row            # 0-based in-group rank
        lo = starts_row + np.maximum(0, r - (window - 1))
        return pa.table({
            "event_id": pa.array(eid[order]),
            "user_id": pa.array(uid_s),
            "n_window": pa.array(np.minimum(r + 1, window)
                                 .astype(np.int64)),
            "moving_units": pa.array(cs - ecs[lo]),
        })

    prepped = events.map_batches(prep, batch_format="pyarrow",
                                 zero_copy_batch=True)
    return partition_by(prepped, ["user_id"], fit_partitions(32),
                        window_kernel, empty)


USER_MOVING_WINDOW_SQL = """
SELECT CAST(event_id AS BIGINT) AS event_id,
       CAST(user_id AS BIGINT) AS user_id,
       CAST(count(*) OVER w AS BIGINT) AS n_window,
       CAST(sum(CAST(floor(value * 1000000.0 + 0.5) AS BIGINT))
            OVER w AS BIGINT) AS moving_units
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
             ROWS BETWEEN 3 PRECEDING AND CURRENT ROW)
ORDER BY user_id, event_id
"""


# string-offset overflow boundary for sequence assembly; module-level so
# tests can exercise the large-offset branch without 2 GB fixtures
_SEQ_SMALL_OFFSET_MAX = np.iinfo(np.int32).max


def user_event_sequences(sf_dir: str) -> "ray.data.Dataset":
    """collect_list as a distributed operator: per user, the
    time-ordered comma-joined sequence of event types -- the behavior-
    sequence builder a sequence-model training pipeline runs (user
    history -> one training example per user).

    The sequence ASSEMBLY is fully vectorized: event types are
    dictionary-encoded, output byte offsets come from prefix sums of the
    token lengths, and the bytes buffer is written with one fancy-index
    scatter per vocab entry (|vocab| iterations, not |rows|); the result
    column is built directly from offsets+data buffers.  No per-user
    Python, no string concatenation in a loop."""
    events = read_table(sf_dir, "events",
                        ["event_id", "ts", "user_id", "event_type"])

    empty = pa.table({"user_id": pa.array([], type=pa.int64()),
                      "n_events": pa.array([], type=pa.int64()),
                      "seq": pa.array([], type=pa.string())})

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": pc.cast(t["user_id"], pa.int64()),
            "ts": pa.array(_as_int64(t["ts"]), type=pa.int64()),
            "event_id": pc.cast(t["event_id"], pa.int64()),
            "event_type": t["event_type"],
        })

    def seq_kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        ts = t["ts"].to_numpy(zero_copy_only=False)
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        et = t["event_type"].combine_chunks() if isinstance(
            t["event_type"], pa.ChunkedArray) else t["event_type"]
        enc = et.dictionary_encode()
        codes = np.asarray(enc.indices)
        vocab = [v.encode() for v in enc.dictionary.to_pylist()]
        tok_len = np.array([len(v) for v in vocab], dtype=np.int64)

        order = np.lexsort((eid, ts, uid))
        uid_s, codes_s = uid[order], codes[order]
        n = order.shape[0]
        new_grp = np.ones(n, dtype=bool)
        new_grp[1:] = uid_s[1:] != uid_s[:-1]
        starts = np.nonzero(new_grp)[0]
        counts = np.diff(np.append(starts, n))

        # output layout: token bytes + 1 comma per row, except the last
        # row of each user (no trailing comma)
        is_last = np.zeros(n, dtype=bool)
        is_last[np.append(starts[1:] - 1, n - 1)] = True
        out_len = tok_len[codes_s] + (~is_last).astype(np.int64)
        pos = np.concatenate([[0], np.cumsum(out_len)])  # per-row starts
        total = int(pos[-1])
        buf = np.empty(total, dtype=np.uint8)
        for code, tok in enumerate(vocab):
            rows = np.nonzero(codes_s == code)[0]
            if rows.shape[0] == 0:
                continue
            idx = (pos[rows][:, None]
                   + np.arange(len(tok), dtype=np.int64)[None, :])
            buf[idx.ravel()] = np.tile(
                np.frombuffer(tok, dtype=np.uint8), rows.shape[0])
        comma_rows = np.nonzero(~is_last)[0]
        buf[pos[comma_rows + 1] - 1] = ord(",")

        # per-user string offsets: slice the buffer at user boundaries.
        # >2 GB of sequence bytes in one partition needs large offsets
        # (a hot user's whole history lands in one partition -- same
        # assumption as sessionization, documented there)
        bounds = np.concatenate([pos[starts], [total]])
        if total > _SEQ_SMALL_OFFSET_MAX:
            seq_arr = pa.LargeStringArray.from_buffers(
                starts.shape[0],
                pa.py_buffer(bounds.astype(np.int64).tobytes()),
                pa.py_buffer(buf.tobytes()))
        else:
            seq_arr = pa.StringArray.from_buffers(
                starts.shape[0],
                pa.py_buffer(bounds.astype(np.int32).tobytes()),
                pa.py_buffer(buf.tobytes()))
        return pa.table({
            "user_id": pa.array(uid_s[starts]),
            "n_events": pa.array(counts.astype(np.int64)),
            "seq": seq_arr,
        })

    prepped = events.map_batches(prep, batch_format="pyarrow",
                                 zero_copy_batch=True)
    return partition_by(prepped, ["user_id"], fit_partitions(32),
                        seq_kernel, empty)


USER_EVENT_SEQUENCES_SQL = """
SELECT CAST(user_id AS BIGINT) AS user_id,
       CAST(count(*) AS BIGINT) AS n_events,
       string_agg(event_type, ',' ORDER BY ts, event_id) AS seq
FROM events GROUP BY 1 ORDER BY 1
"""


def funnel_counts(sf_dir: str,
                  steps: tuple = ("view", "click", "purchase")) -> pa.Table:
    """Ordered-sequence FUNNEL analysis: how many users performed step 1,
    then step 2 strictly after it, then step 3 strictly after that --
    the product-analytics sequential-pattern operator, computed with one
    user co-partition and a vectorized per-step scan (no per-user
    Python, no joins).

    Semantics (standard first-touch funnel): t1 = user's earliest
    step-1 event; t_k = earliest step-k event strictly after t_{k-1};
    the user counts for every step whose t_k exists.  Tie-break within
    equal timestamps by event_id (the same total order the other
    ordered-window kernels use)."""
    events = read_table(sf_dir, "events",
                        ["event_id", "ts", "user_id", "event_type"])

    n_steps = len(steps)
    empty = pa.table({f"n_step{i + 1}": pa.array([], type=pa.int64())
                      for i in range(n_steps)})

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": pc.cast(t["user_id"], pa.int64()),
            "ts": pa.array(_as_int64(t["ts"]), type=pa.int64()),
            "event_id": pc.cast(t["event_id"], pa.int64()),
            "event_type": t["event_type"],
        })

    def funnel_kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        ts = t["ts"].to_numpy(zero_copy_only=False)
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        et = t["event_type"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        uid_s, ts_s, eid_s, et_s = (uid[order], ts[order], eid[order],
                                    et[order])
        n = uid_s.shape[0]
        new_grp = np.ones(n, dtype=bool)
        new_grp[1:] = uid_s[1:] != uid_s[:-1]
        grp = np.cumsum(new_grp) - 1        # dense user index
        n_users = int(grp[-1]) + 1
        # composite rank: position within the global (user, ts, id) sort
        # -- strictly increasing, so "strictly after" = larger position
        pos = np.arange(n, dtype=np.int64)
        INF = np.iinfo(np.int64).max
        prev = np.full(n_users, -1, dtype=np.int64)  # pos of step k-1
        counts = []
        for step in steps:
            is_step = et_s == step
            # earliest step event strictly after prev[user]
            cand = np.where(is_step & (pos > prev[grp]), pos, INF)
            first = np.minimum.reduceat(cand, np.nonzero(new_grp)[0])
            done = first < INF
            counts.append(int(done.sum()))
            prev = np.where(done, first, INF)
        return pa.table({f"n_step{i + 1}": pa.array([c], type=pa.int64())
                         for i, c in enumerate(counts)})

    prepped = events.map_batches(prep, batch_format="pyarrow",
                                 zero_copy_batch=True)
    per_part = partition_by(prepped, ["user_id"], fit_partitions(32),
                            funnel_kernel, empty)
    from ray.data.aggregate import Sum
    agg = per_part.aggregate(*[Sum(f"n_step{i + 1}",
                                   alias_name=f"n_step{i + 1}")
                               for i in range(n_steps)])
    return pa.table({f"n_step{i + 1}": pa.array(
        [int(agg[f"n_step{i + 1}"] or 0)], type=pa.int64())
        for i in range(n_steps)})


FUNNEL_COUNTS_SQL = """
WITH e AS (SELECT user_id, event_type,
                  CAST(epoch_us(ts) AS HUGEINT) * 4294967296
                  + CAST(event_id AS BIGINT) AS p FROM events),
s1 AS (SELECT user_id, min(p) AS p1 FROM e
       WHERE event_type = 'view' GROUP BY 1),
s2 AS (SELECT e.user_id, min(e.p) AS p2
       FROM e JOIN s1 ON s1.user_id = e.user_id
       WHERE e.event_type = 'click' AND e.p > s1.p1 GROUP BY 1),
s3 AS (SELECT e.user_id, min(e.p) AS p3
       FROM e JOIN s2 ON s2.user_id = e.user_id
       WHERE e.event_type = 'purchase' AND e.p > s2.p2 GROUP BY 1)
SELECT (SELECT CAST(count(*) AS BIGINT) FROM s1) AS n_step1,
       (SELECT CAST(count(*) AS BIGINT) FROM s2) AS n_step2,
       (SELECT CAST(count(*) AS BIGINT) FROM s3) AS n_step3
"""


def cohort_retention(sf_dir: str) -> "ray.data.Dataset":
    """COHORT RETENTION matrix: for every signup cohort (the user's
    first active week) and week offset k, how many of that cohort's
    users were active k weeks later -- the product-analytics retention
    report, as one user co-partition + vectorized dedup/min kernel and
    a tiny (cohort, offset)-keyed rollup.

    Per partition: distinct (user, week) pairs via lexsort run
    detection, per-user first week via minimum.reduceat, then each
    distinct pair emits its (cohort_week, week_offset) -- no per-user
    Python -- and ``combine_agg`` counts them, so shuffle rows are
    bounded by cohorts x offsets per batch."""
    events = read_table(sf_dir, "events", ["ts", "user_id"])

    empty = pa.table({"cohort_week": pa.array([], type=pa.int64()),
                      "week_offset": pa.array([], type=pa.int64())})

    def prep(t: pa.Table) -> pa.Table:
        us = pa.array(_as_int64(t["ts"]), type=pa.int64())
        wk = pc.divide(us, pa.scalar(604_800_000_000))
        return pa.table({"user_id": pc.cast(t["user_id"], pa.int64()),
                         "wk": wk})

    def cohort_kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        wk = t["wk"].to_numpy(zero_copy_only=False)
        order = np.lexsort((wk, uid))
        uid_s, wk_s = uid[order], wk[order]
        keep = np.ones(uid_s.shape[0], dtype=bool)
        keep[1:] = (uid_s[1:] != uid_s[:-1]) | (wk_s[1:] != wk_s[:-1])
        uid_u, wk_u = uid_s[keep], wk_s[keep]
        new_grp = np.ones(uid_u.shape[0], dtype=bool)
        new_grp[1:] = uid_u[1:] != uid_u[:-1]
        starts = np.nonzero(new_grp)[0]
        counts = np.diff(np.append(starts, uid_u.shape[0]))
        first = np.repeat(np.minimum.reduceat(wk_u, starts), counts)
        return pa.table({
            "cohort_week": pa.array(first.astype(np.int64)),
            "week_offset": pa.array((wk_u - first).astype(np.int64)),
        })

    prepped = events.map_batches(prep, batch_format="pyarrow",
                                 zero_copy_batch=True)
    per_part = partition_by(prepped, ["user_id"], fit_partitions(32),
                            cohort_kernel, empty)

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table({
            "cohort_week": pc.multiply(t["cohort_week"],
                                       pa.scalar(604_800, type=pa.int64())),
            "week_offset": t["week_offset"],
            "n_users": t["week_offset_count"],
        })

    return combine_agg(per_part, ["cohort_week", "week_offset"],
                       lambda t: t, [("week_offset", "count")], finalize)


COHORT_RETENTION_SQL = """
WITH uw AS (SELECT DISTINCT user_id,
                   CAST(epoch_us(ts) AS BIGINT)//604800000000 AS wk
            FROM events),
f AS (SELECT user_id, min(wk) AS cw FROM uw GROUP BY 1)
SELECT f.cw * 604800 AS cohort_week,
       CAST(uw.wk - f.cw AS BIGINT) AS week_offset,
       CAST(count(*) AS BIGINT) AS n_users
FROM uw JOIN f ON uw.user_id = f.user_id
GROUP BY 1, 2 ORDER BY 1, 2
"""


def active_user_counts(sf_dir: str, window_days: int = 7) -> pa.Table:
    """DAU / trailing-WAU report: per day, the exact count of distinct
    users active that day and in the trailing ``window_days`` -- the
    engagement metrics pair, computed EXACTLY with one user
    co-partition and no windowed distinct shuffle: each user's distinct
    active days expand to their covered window days (interval union,
    vectorized), deduped per user, so the per-day rollup is a plain
    count -- the classic distinct-within-window problem turned into a
    linear expansion (output rows <= window_days x active pairs).

    Days outside the observed [min_day, max_day] range are clipped, so
    a day appears iff some user was active within its window."""
    events = read_table(sf_dir, "events", ["ts", "user_id"])

    def prep(t: pa.Table) -> pa.Table:
        us = pa.array(_as_int64(t["ts"]), type=pa.int64())
        return pa.table({"user_id": pc.cast(t["user_id"], pa.int64()),
                         "day": pc.divide(us,
                                          pa.scalar(86_400_000_000))})

    prepped = events.map_batches(prep, batch_format="pyarrow",
                                 zero_copy_batch=True).materialize()
    from ray.data.aggregate import Max, Min
    bounds = prepped.aggregate(Min("day", alias_name="mn"),
                               Max("day", alias_name="mx"))
    mn, mx = int(bounds["mn"]), int(bounds["mx"])

    empty = pa.table({"day": pa.array([], type=pa.int64()),
                      "dau": pa.array([], type=pa.int64()),
                      "wau": pa.array([], type=pa.int64())})

    def cover_kernel(t: pa.Table) -> pa.Table:
        # one row per distinct (user, day), flagged dau, and one per
        # distinct (user, covered window day), flagged wau
        if t.num_rows == 0:
            return empty
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        day = t["day"].to_numpy(zero_copy_only=False)
        order = np.lexsort((day, uid))
        uid_s, day_s = uid[order], day[order]
        keep = np.ones(uid_s.shape[0], dtype=bool)
        keep[1:] = (uid_s[1:] != uid_s[:-1]) | (day_s[1:] != day_s[:-1])
        uid_u, day_u = uid_s[keep], day_s[keep]          # distinct pairs
        # wau rows: expand each pair to [day, day+W-1], dedup per user
        # (two pairs of one user may cover overlapping days)
        W = window_days
        cov_day = (day_u[:, None]
                   + np.arange(W, dtype=np.int64)[None, :]).ravel()
        cov_uid = np.repeat(uid_u, W)
        ok = cov_day <= mx
        cov_day, cov_uid = cov_day[ok], cov_uid[ok]
        order2 = np.lexsort((cov_day, cov_uid))
        cd, cu = cov_day[order2], cov_uid[order2]
        keep2 = np.ones(cd.shape[0], dtype=bool)
        keep2[1:] = (cu[1:] != cu[:-1]) | (cd[1:] != cd[:-1])
        wd = cd[keep2]
        is_dau = np.concatenate([np.ones(day_u.shape[0], dtype=np.int64),
                                 np.zeros(wd.shape[0], dtype=np.int64)])
        return pa.table({"day": pa.array(np.concatenate([day_u, wd])),
                         "dau": pa.array(is_dau),
                         "wau": pa.array(1 - is_dau)})

    per_part = partition_by(prepped, ["user_id"], fit_partitions(32),
                            cover_kernel, empty)
    agg = combine_agg(per_part, ["day"], lambda t: t,
                      [("dau", "sum"), ("wau", "sum")],
                      named("day", "dau", "wau"))
    out = agg.to_pandas().sort_values("day").reset_index(drop=True)
    return pa.table({
        "day_start": pa.array(out["day"].astype("int64") * 86_400),
        "dau": pa.array(out["dau"].astype("int64")),
        "wau": pa.array(out["wau"].astype("int64")),
    })


ACTIVE_USER_COUNTS_SQL = """
WITH ud AS (SELECT DISTINCT user_id,
                   CAST(epoch_us(ts) AS BIGINT)//86400000000 AS day
            FROM events),
bounds AS (SELECT min(day) AS mn, max(day) AS mx FROM ud),
dau AS (SELECT day, CAST(count(*) AS BIGINT) AS dau FROM ud GROUP BY 1),
cov AS (SELECT DISTINCT user_id, day + i AS d
        FROM ud JOIN (SELECT CAST(range AS BIGINT) AS i
                      FROM range(0, 7)) ON TRUE),
wau AS (SELECT d, CAST(count(*) AS BIGINT) AS wau FROM cov
        WHERE d <= (SELECT mx FROM bounds) GROUP BY d)
SELECT wau.d * 86400 AS day_start,
       COALESCE(dau.dau, 0) AS dau, wau.wau
FROM wau LEFT JOIN dau ON dau.day = wau.d
ORDER BY 1
"""


def user_interval_coverage(sf_dir: str,
                           width_s: int = 300) -> "ray.data.Dataset":
    """INTERVAL UNION (sweep-line coverage): each event opens a
    [ts, ts + width) activity interval; per user, overlapping intervals
    merge into islands and the result is (n_islands, covered seconds) --
    the interval-algebra primitive behind "total active time" metrics,
    ad-exposure dedup, and overlap-free billing.

    Scale shape: users co-partition once (the sessionization
    assumption); within a partition ONE lexsort + ONE segmented running
    max computes every user's island structure vectorized -- the
    user-run reset is free because the running max operates in an
    adjusted space (user_rank * HUGE + e) where a new user's values
    dominate all previous rows, so islands can never leak across
    users.  Output is O(users), exchanged once."""
    width_us = np.int64(width_s) * np.int64(1_000_000)
    ds = read_table(sf_dir, "events", ["user_id", "ts"])

    empty = pa.table({"user_id": pa.array([], type=pa.int64()),
                      "n_islands": pa.array([], type=pa.int64()),
                      "covered_s": pa.array([], type=pa.int64())})

    def coverage(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        u = pc.cast(t["user_id"], pa.int64()).to_numpy(
            zero_copy_only=False)
        s = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        e = s + width_us
        order = np.lexsort((e, s, u))
        u_s, s_s, e_s = u[order], s[order], e[order]
        new_user = np.ones(order.shape[0], dtype=bool)
        new_user[1:] = u_s[1:] != u_s[:-1]
        ucode = np.cumsum(new_user) - 1
        lo = s_s.min()
        huge = np.int64(e_s.max() - lo + 2)
        adj_e = ucode * huge + (e_s - lo)
        adj_s = ucode * huge + (s_s - lo)
        cm = np.maximum.accumulate(adj_e)
        new_island = np.ones(order.shape[0], dtype=bool)
        new_island[1:] = adj_s[1:] > cm[:-1]
        isl = np.cumsum(new_island) - 1
        n_isl = isl[-1] + 1
        s0 = s_s[new_island]
        ends = np.zeros(n_isl, np.int64)
        np.maximum.at(ends, isl, e_s)
        user_of_isl = u_s[new_island]
        uu, inv = np.unique(user_of_isl, return_inverse=True)
        cnt = np.bincount(inv).astype(np.int64)
        cov = np.zeros(uu.shape[0], np.int64)
        np.add.at(cov, inv, (ends - s0) // np.int64(1_000_000))
        return pa.table({"user_id": pa.array(uu),
                         "n_islands": pa.array(cnt),
                         "covered_s": pa.array(cov)})

    return partition_by(ds, ["user_id"], fit_partitions(16), coverage,
                        empty)


INTERVAL_COVERAGE_SQL = """
WITH iv AS (
  SELECT user_id, epoch_us(ts) AS s, epoch_us(ts) + 300000000 AS e
  FROM events
), ord AS (
  SELECT user_id, s, e,
         max(e) OVER (PARTITION BY user_id ORDER BY s, e
                      ROWS BETWEEN UNBOUNDED PRECEDING
                               AND 1 PRECEDING) AS prev_max
  FROM iv
), isl AS (
  SELECT user_id, s, e,
         CAST(sum(CASE WHEN prev_max IS NULL OR s > prev_max
                       THEN 1 ELSE 0 END)
              OVER (PARTITION BY user_id ORDER BY s, e
                    ROWS UNBOUNDED PRECEDING) AS BIGINT) AS island
  FROM ord
), grp AS (
  SELECT user_id, island, CAST(min(s) AS BIGINT) AS s0,
         CAST(max(e) AS BIGINT) AS e1
  FROM isl GROUP BY 1, 2
)
SELECT user_id, CAST(count(*) AS BIGINT) AS n_islands,
       CAST(sum((e1 - s0) // 1000000) AS BIGINT) AS covered_s
FROM grp GROUP BY 1 ORDER BY 1
"""


def event_transition_matrix(sf_dir: str) -> "ray.data.Dataset":
    """First-order Markov transition matrix over user event streams:
    for every (previous type -> type) pair of consecutive events per
    user, the exact count and the transition probability in integer
    ppm (n * 1e6 // n_from) -- the behavior-model statistic behind
    next-event prediction features and anomaly baselines.

    Scale shape: same user co-partition + one lexsort kernel as the
    lag/window family (one partition sees a user's whole history); each
    consecutive pair is one row, ``combine_agg`` counts them (an
    O(types^2 x batches) exchange), and the probability is derived
    AFTER the global sum with integer division only (order-proof)."""
    events = read_table(sf_dir, "events",
                        ["event_id", "ts", "user_id", "event_type"])

    empty = pa.table({"from_type": pa.array([], type=pa.string()),
                      "to_type": pa.array([], type=pa.string())})

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": t["user_id"],
            "ts": pa.array(_as_int64(t["ts"]), type=pa.int64()),
            "event_id": t["event_id"],
            "event_type": t["event_type"],
        })

    def pair_kernel(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        ts = t["ts"].to_numpy(zero_copy_only=False)
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        uid_s = uid[order]
        # one row per consecutive same-user pair, in (ts, event_id) order
        prev = order[:-1][uid_s[1:] == uid_s[:-1]]
        nxt = order[1:][uid_s[1:] == uid_s[:-1]]
        return pa.table({"from_type": t["event_type"].take(pa.array(prev)),
                         "to_type": t["event_type"].take(pa.array(nxt))})

    prepped = events.map_batches(prep, batch_format="pyarrow",
                                 zero_copy_batch=True)
    partials = partition_by(prepped, ["user_id"], fit_partitions(32),
                            pair_kernel, empty)
    agg = combine_agg(partials, ["from_type", "to_type"], lambda t: t,
                      [("to_type", "count")],
                      named("from_type", "to_type", "n"))

    out_empty = pa.table({"from_type": pa.array([], type=pa.string()),
                          "to_type": pa.array([], type=pa.string()),
                          "n": pa.array([], type=pa.int64()),
                          "ppm": pa.array([], type=pa.int64())})

    def with_ppm(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_empty
        n = pc.cast(t["n"], pa.int64()).to_numpy(zero_copy_only=False)
        ft = np.asarray(t["from_type"].to_pylist(), dtype=np.str_)
        uf, inv = np.unique(ft, return_inverse=True)
        nf = np.zeros(uf.shape[0], np.int64)
        np.add.at(nf, inv, n)
        ppm = n * np.int64(1_000_000) // nf[inv]
        return pa.table({
            "from_type": t["from_type"], "to_type": t["to_type"],
            "n": pa.array(n), "ppm": pa.array(ppm),
        })

    # types^2-sized input: one partition derives the row-normalized ppm
    return partition_by(agg, [], 1, with_ppm,
                        out_empty).sort(["from_type", "to_type"])


EVENT_TRANSITION_SQL = """
WITH w AS (
  SELECT user_id, event_type,
         lag(event_type) OVER (PARTITION BY user_id
                               ORDER BY ts, event_id) AS prev
  FROM events
), p AS (
  SELECT prev AS from_type, event_type AS to_type,
         CAST(count(*) AS BIGINT) AS n
  FROM w WHERE prev IS NOT NULL GROUP BY 1, 2
), f AS (
  SELECT from_type, CAST(sum(n) AS BIGINT) AS nf FROM p GROUP BY 1
)
SELECT p.from_type, p.to_type, p.n,
       CAST(p.n * 1000000 // f.nf AS BIGINT) AS ppm
FROM p JOIN f USING (from_type)
ORDER BY 1, 2
"""


def peak_concurrency_stats(sf_dir: str, dur_s: int = 60,
                           bucket_s: int = 3600) -> "ray.data.Dataset":
    """Global PEAK CONCURRENCY: treating every event as a
    ``dur_s``-second session, the maximum number simultaneously open
    and the first instant it is reached -- the capacity-planning sweep
    (max concurrent users/connections) as a distributed ordered
    prefix aggregation.

    Scale shape: the sweep's running sum is made distributed the same
    way global_order_ranks distributes row_number -- +1/-1 delta points
    are time-bucket co-partitioned, pass 1 sums each bucket to its NET
    delta (one O(buckets) ``combine_agg`` exchange whose driver prefix
    gives every bucket its entry offset), pass 2 sorts only within
    buckets and emits one (local peak, first time) candidate per bucket;
    the global answer is a max over O(buckets) candidates.  Ties are
    fixed by ordering (t, delta) with ends before starts, so concurrency
    at a shared boundary never double-counts."""
    dur_us = np.int64(dur_s) * 1_000_000
    bkt_us = np.int64(bucket_s) * 1_000_000
    events = read_table(sf_dir, "events", ["ts"])

    def deltas(t: pa.Table) -> pa.Table:
        ts = _as_int64(t["ts"])
        tt = np.concatenate([ts, ts + dur_us])
        dd = np.concatenate([np.ones(ts.shape[0], np.int64),
                             -np.ones(ts.shape[0], np.int64)])
        return pa.table({"t": pa.array(tt), "d": pa.array(dd),
                         "b": pa.array(tt // bkt_us)})

    dl = events.map_batches(deltas, batch_format="pyarrow",
                            zero_copy_batch=True)

    net = (combine_agg(dl, ["b"], lambda t: t, [("d", "sum")],
                       named("b", "net"))
           .to_pandas().sort_values("b"))
    bs = net["b"].to_numpy().astype(np.int64)
    nets = net["net"].to_numpy().astype(np.int64)
    offs = np.concatenate(([0], np.cumsum(nets)[:-1]))
    off_map = {int(b): int(o) for b, o in zip(bs, offs)}

    empty = pa.table({"peak": pa.array([], type=pa.int64()),
                      "t_first": pa.array([], type=pa.int64())})

    def bucket_peak(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        b = int(t["b"][0].as_py())
        tt = t["t"].to_numpy(zero_copy_only=False)
        dd = t["d"].to_numpy(zero_copy_only=False)
        order = np.lexsort((dd, tt))
        run = np.cumsum(dd[order]) + off_map[b]
        i = int(np.argmax(run))
        return pa.table({"peak": pa.array([np.int64(run[i])]),
                         "t_first": pa.array([np.int64(tt[order][i])])})

    from ..stages.partition import partition_by as _pb  # noqa: F401
    cands = dl.groupby("b").map_groups(bucket_peak,
                                       batch_format="pyarrow")

    def reduce_final(t: pa.Table) -> pa.Table:
        p = t["peak"].to_numpy(zero_copy_only=False)
        tf = t["t_first"].to_numpy(zero_copy_only=False)
        g = p.max()
        return pa.table({"peak": pa.array([np.int64(g)]),
                         "first_peak_t": pa.array(
                             [np.int64(tf[p == g].min())])})

    return _pb(cands, [], 1, reduce_final,
               pa.table({"peak": pa.array([], type=pa.int64()),
                         "first_peak_t": pa.array([], type=pa.int64())}))


PEAK_CONCURRENCY_SQL = """
WITH d AS (
  SELECT epoch_us(ts) AS t, 1 AS d FROM events
  UNION ALL
  SELECT epoch_us(ts) + 60000000 AS t, -1 AS d FROM events
), r AS (
  SELECT t, sum(d) OVER (ORDER BY t, d
                         ROWS UNBOUNDED PRECEDING) AS c
  FROM d
)
SELECT CAST(max(c) AS BIGINT) AS peak,
       CAST(min(CASE WHEN c = (SELECT max(c) FROM r) THEN t END)
            AS BIGINT) AS first_peak_t
FROM r
"""


def session_copresence_counts(sf_dir: str,
                              gap_minutes: int = 30) -> "ray.data.Dataset":
    """Association-rule SUPPORT mining over sessions: for every pair of
    event types, in how many sessions both occur (and the share of all
    sessions, integer ppm) -- the market-basket statistic computed on
    sessionized behavior, composing the gap-based session kernel with a
    bitmask pair count.

    Scale shape: user co-partition (one user's history in one
    partition, as all session kernels here); per partition, sessions
    get ids from one cumsum and each session folds to a TYPE BITMASK
    (event-type vocabulary << 64 by construction), so pair counting is
    a bit test per (pair, session) -- no per-session Python; each
    session emits one row per type pair it holds plus one session-total
    row, and ``combine_agg`` counts them, so the exchange carries
    O(types^2) count rows per batch."""
    gap_us = np.int64(gap_minutes) * 60_000_000
    events = read_table(sf_dir, "events",
                        ["event_id", "ts", "user_id", "event_type"])

    SENTINEL = "__sessions__"
    empty = pa.table({"type_a": pa.array([], type=pa.string()),
                      "type_b": pa.array([], type=pa.string())})

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": t["user_id"],
            "ts": pa.array(_as_int64(t["ts"]), type=pa.int64()),
            "event_id": t["event_id"],
            "event_type": t["event_type"],
        })

    def copresence(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        ts = t["ts"].to_numpy(zero_copy_only=False)
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        uid_s, ts_s = uid[order], ts[order]
        new_s = np.ones(order.shape[0], dtype=bool)
        new_s[1:] = (uid_s[1:] != uid_s[:-1]) | (
            ts_s[1:] - ts_s[:-1] > gap_us)
        sid = np.cumsum(new_s) - 1
        et = np.asarray(t["event_type"].to_pylist(),
                        dtype=np.str_)[order]
        ue, code = np.unique(et, return_inverse=True)
        n_sess = int(sid[-1]) + 1 if sid.shape[0] else 0
        masks = np.zeros(n_sess, np.int64)
        np.bitwise_or.at(masks, sid, np.int64(1) << code)
        names = pa.array(list(ue) + [SENTINEL], type=pa.string())
        # every session's sentinel row, then its pairs' rows
        rows_a = [np.full(n_sess, ue.shape[0], dtype=np.int64)]
        rows_b = [rows_a[0]]
        for i in range(ue.shape[0]):
            for j in range(i + 1, ue.shape[0]):   # types^2, tiny
                both = np.int64((1 << i) | (1 << j))
                cnt = int(((masks & both) == both).sum())
                rows_a.append(np.full(cnt, i, dtype=np.int64))
                rows_b.append(np.full(cnt, j, dtype=np.int64))
        return pa.table({
            "type_a": names.take(pa.array(np.concatenate(rows_a))),
            "type_b": names.take(pa.array(np.concatenate(rows_b))),
        })

    prepped = events.map_batches(prep, batch_format="pyarrow",
                                 zero_copy_batch=True)
    partials = partition_by(prepped, ["user_id"], fit_partitions(32),
                            copresence, empty)
    agg = combine_agg(partials, ["type_a", "type_b"], lambda t: t,
                      [("type_b", "count")], named("type_a", "type_b", "n"))

    out_empty = pa.table({"type_a": pa.array([], type=pa.string()),
                          "type_b": pa.array([], type=pa.string()),
                          "n_sessions_both": pa.array([], type=pa.int64()),
                          "ppm": pa.array([], type=pa.int64())})

    def finalize(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_empty
        a = np.asarray(t["type_a"].to_pylist(), dtype=np.str_)
        n = pc.cast(t["n"], pa.int64()).to_numpy(zero_copy_only=False)
        is_tot = a == SENTINEL
        total = int(n[is_tot].sum())
        keep = ~is_tot
        return pa.table({
            "type_a": pa.array(a[keep].tolist(), type=pa.string()),
            "type_b": pc.cast(t["type_b"], pa.string()).filter(
                pa.array(keep)),
            "n_sessions_both": pa.array(n[keep]),
            "ppm": pa.array(n[keep] * np.int64(1_000_000)
                            // np.int64(total)),
        })

    return partition_by(agg, [], 1, finalize,
                        out_empty).sort(["type_a", "type_b"])


SESSION_COPRESENCE_SQL = """
WITH e AS (
  SELECT user_id, event_type, epoch_us(ts) AS us, event_id FROM events
), d AS (
  SELECT user_id, event_type, us, event_id,
         CASE WHEN lag(us) OVER w IS NULL
                   OR us - lag(us) OVER w > 1800000000
              THEN 1 ELSE 0 END AS new_s
  FROM e WINDOW w AS (PARTITION BY user_id ORDER BY us, event_id)
), s AS (
  SELECT user_id, event_type,
         sum(new_s) OVER (PARTITION BY user_id ORDER BY us, event_id
                          ROWS UNBOUNDED PRECEDING) AS sid
  FROM d
), p AS (
  SELECT DISTINCT user_id, sid, event_type FROM s
), tot AS (
  SELECT CAST(count(*) AS BIGINT) AS n FROM (
    SELECT DISTINCT user_id, sid FROM p)
), pr AS (
  SELECT a.event_type AS type_a, b.event_type AS type_b,
         CAST(count(*) AS BIGINT) AS n_both
  FROM p a JOIN p b ON a.user_id = b.user_id AND a.sid = b.sid
                   AND a.event_type < b.event_type
  GROUP BY 1, 2
)
SELECT type_a, type_b, n_both AS n_sessions_both,
       CAST(n_both * 1000000 // t.n AS BIGINT) AS ppm
FROM pr CROSS JOIN tot t ORDER BY 1, 2
"""


def user_time_weighted_value(sf_dir: str) -> "ray.data.Dataset":
    """Time-weighted average value per user: each event's value holds
    until that user's next event; the weight is the whole-second gap to
    it (the last event carries zero weight).  The standard metric for
    sampled gauges in observability/billing, where plain means
    over-weight chatty periods.

    Dataflow: the same coarse user co-partition as the lag/session
    kernels, then ONE vectorized pass per partition -- lexsort by
    (user, ts, event_id), shift to find each row's same-user successor,
    integer cents x gap-seconds products.  The result is emitted as the
    exact rational (twa_num, twa_den) so the rollup is associative and
    float-free end to end; output is O(users) rows.

    Overflow headroom: per-term |cents| * gap_s <= ~2^35 at the observed
    data shape and the sum is PER USER (bounded by one user's history,
    not corpus breadth), leaving int64 ~2^28 headroom at 10^9-event
    user histories."""
    events = read_table(sf_dir, "events",
                        ["event_id", "ts", "user_id", "value"])

    empty = pa.table({"user_id": pa.array([], type=pa.int64()),
                      "n_weighted": pa.array([], type=pa.int64()),
                      "twa_num": pa.array([], type=pa.int64()),
                      "twa_den": pa.array([], type=pa.int64())})

    def prep(t: pa.Table) -> pa.Table:
        cents = np.floor(
            t["value"].to_numpy(zero_copy_only=False) * 100 + 0.5
        ).astype(np.int64)
        return pa.table({
            "user_id": t["user_id"],
            "ts": pa.array(_as_int64(t["ts"]), type=pa.int64()),
            "event_id": t["event_id"],
            "cents": pa.array(cents),
        })

    def twa_kernel(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        ts = t["ts"].to_numpy(zero_copy_only=False)
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        cents = t["cents"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        uid_s, ts_s, cents_s = uid[order], ts[order], cents[order]
        has_next = np.zeros(order.size, dtype=bool)
        has_next[:-1] = uid_s[:-1] == uid_s[1:]
        gap_s = np.zeros(order.size, dtype=np.int64)
        gap_s[:-1] = (ts_s[1:] - ts_s[:-1]) // 1_000_000
        gap_s[~has_next] = 0
        term = cents_s * gap_s
        uu, uinv = np.unique(uid_s, return_inverse=True)
        num = np.zeros(uu.size, dtype=np.int64)
        den = np.zeros(uu.size, dtype=np.int64)
        np.add.at(num, uinv, term)
        np.add.at(den, uinv, gap_s)
        nw = np.bincount(uinv[has_next], minlength=uu.size).astype(np.int64)
        return pa.table({"user_id": pa.array(uu),
                         "n_weighted": pa.array(nw),
                         "twa_num": pa.array(num),
                         "twa_den": pa.array(den)})

    prepped = events.map_batches(prep, batch_format="pyarrow",
                                 zero_copy_batch=True)
    return partition_by(prepped, ["user_id"], fit_partitions(32),
                        twa_kernel, empty)


USER_TWA_SQL = """
WITH v AS (
  SELECT user_id, CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents,
         CAST(epoch_us(ts) AS BIGINT) AS us,
         lead(CAST(epoch_us(ts) AS BIGINT))
           OVER (PARTITION BY user_id ORDER BY epoch_us(ts), event_id)
           AS nxt
  FROM events
)
SELECT user_id,
       CAST(count(nxt) AS BIGINT) AS n_weighted,
       CAST(coalesce(sum(CASE WHEN nxt IS NULL THEN 0
                 ELSE cents * ((nxt - us) // 1000000) END), 0) AS BIGINT)
         AS twa_num,
       CAST(coalesce(sum(CASE WHEN nxt IS NULL THEN 0
                 ELSE (nxt - us) // 1000000 END), 0) AS BIGINT)
         AS twa_den
FROM v GROUP BY 1 ORDER BY 1
"""


def hourly_backfill_stats(sf_dir: str, late_mod: int = 997,
                          root: str | None = None) -> "ray.data.Dataset":
    """Incremental view maintenance (late-data backfill): an hourly
    (event_type, hour) rollup is materialized from the on-time events
    (``event_id % late_mod != 0``), then the late slice arrives and ONLY
    the hours it touches are recomputed and swapped into the view --
    every untouched row is served from the MATERIALIZED copy, never
    recomputed.  The oracle compares against a full recompute, proving
    the selective merge reconstructs it exactly.

    Scale shape: the affected-hour set is O(|delta hours|) scalars
    (collected once, broadcast into the pruned filters); the recompute
    pass scans only rows whose hour is affected (at scale: hour-
    partitioned layout -> path-pruned reads, see day_pruned_window_
    stats); the untouched rows stream straight from the materialized
    parquet.  Driver memory is O(affected hours), never O(view)."""
    import shutil

    root = root or "/tmp/p2pdds_gate/backfill"
    shutil.rmtree(root, ignore_errors=True)

    events = read_table(sf_dir, "events",
                        ["event_id", "ts", "event_type", "value"])

    empty = pa.table({"event_type": pa.array([], type=pa.string()),
                      "hour": pa.array([], type=pa.int64()),
                      "n_events": pa.array([], type=pa.int64()),
                      "value_cents": pa.array([], type=pa.int64())})

    def partials(t: pa.Table, keep: str) -> pa.Table:
        # (event_type, hour, cents) of every event of the ``keep`` slice
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        late = (eid % late_mod) == 0
        sel = late if keep == "late" else ~late
        if keep == "affected_full":
            sel = np.ones(t.num_rows, dtype=bool)
        sub = t.filter(pa.array(sel))
        return pa.table({
            "event_type": sub["event_type"],
            "hour": pa.array(_as_int64(sub["ts"]) // 3_600_000_000),
            "cents": pa.array(np.floor(
                sub["value"].to_numpy(zero_copy_only=False) * 100 + 0.5
            ).astype(np.int64))})

    def rollup(src, fn):
        return combine_agg(src, ["event_type", "hour"], fn,
                           [("cents", "count"), ("cents", "sum")],
                           named("event_type", "hour", "n_events",
                                 "value_cents"))

    # 1) materialize the on-time view
    rollup(events, lambda t: partials(t, "ontime")).write_parquet(root)

    # 2) the late slice's affected hours (tiny: O(|delta hours|))
    late_hours = collect(rollup(events, lambda t: partials(t, "late")))
    affected = (np.unique(late_hours["hour"].to_numpy(zero_copy_only=False))
                if late_hours.num_rows else np.empty(0, dtype=np.int64))

    # 3) recompute ONLY affected hours from the full stream
    def affected_only(t: pa.Table) -> pa.Table:
        full = partials(t, "affected_full")
        h = full["hour"].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(affected, h)
        idx[idx == affected.size] = 0
        return full.filter(pa.array(affected[idx] == h))

    recomputed = ray.data.from_arrow(empty) \
        if affected.size == 0 else rollup(events, affected_only)

    # 4) untouched rows come from the MATERIALIZED copy only
    def untouched(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        h = t["hour"].to_numpy(zero_copy_only=False)
        if affected.size == 0:
            return t
        idx = np.searchsorted(affected, h)
        idx[idx == affected.size] = 0
        return t.filter(pa.array(affected[idx] != h))

    served = ray.data.read_parquet(root).map_batches(
        untouched, batch_format="pyarrow", zero_copy_batch=True)
    return served.union(recomputed)


HOURLY_BACKFILL_SQL = """
WITH v AS (
  SELECT event_type,
         CAST(epoch_us(ts) AS BIGINT) // 3600000000 AS hour,
         CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
  FROM events
)
SELECT event_type, hour, CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(cents) AS BIGINT) AS value_cents
FROM v GROUP BY 1, 2 ORDER BY 1, 2
"""


def impute_value_hourly(sf_dir: str, miss_mod: int = 20) -> "ray.data.Dataset":
    """Missing-data IMPUTATION: a deterministic hash-selected slice of
    events (``hash(event_id) % miss_mod == 0``) is treated as having a
    missing value; each gap is filled with its event type's observed
    mean (exact integer micro-units, truncating division) and the
    imputed stream rolls up per (type, hour) -- the mean-fill
    preprocessing step every feature pipeline runs, as the canonical
    two-pass broadcast shape: tiny stats pass -> O(types) fill values
    broadcast into one streaming rewrite pass.

    murmur64 bit-replicates DuckDB hash(BIGINT) so the oracle masks the
    identical rows; trunc-division (not floor) matches SQL ``//`` for
    any sign."""
    from ..hashing import murmur64

    events = read_table(sf_dir, "events",
                        ["event_id", "ts", "event_type", "value"])

    def micro_units(t: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        eid = t["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return ((murmur64(eid) % np.uint64(miss_mod)) == 0,
                np.floor(t["value"].to_numpy(zero_copy_only=False) * 1e6
                         + 0.5).astype(np.int64))

    # -- pass 1: observed per-type sufficient stats (tiny) ---------------
    def observed(t: pa.Table) -> pa.Table:
        miss, micro = micro_units(t)
        return pa.table({"event_type": t["event_type"].filter(
            pa.array(~miss)), "micro": pa.array(micro[~miss])})

    stats = combine_agg(events, ["event_type"], observed,
                        [("micro", "count"), ("micro", "sum")],
                        named("event_type", "n_obs", "sum_obs")
                        ).take_all()  # O(types) rows
    fills = {}
    for r in stats:
        s, n = int(r["sum_obs"]), int(r["n_obs"])
        fills[r["event_type"]] = (1 if s >= 0 else -1) * (abs(s) // n)
    fill_types = pa.array(list(fills), type=pa.string())
    # a type with no observed value fills 0
    fill_vals = np.array(list(fills.values()) + [0], dtype=np.int64)

    # -- pass 2: broadcast fills into the hourly rollup ------------------
    def imputed(t: pa.Table) -> pa.Table:
        miss, micro = micro_units(t)
        code = pc.fill_null(pc.index_in(t["event_type"],
                                        value_set=fill_types),
                            len(fills)).to_numpy(zero_copy_only=False)
        return pa.table({
            "event_type": t["event_type"],
            "hour": pa.array(_as_int64(t["ts"]) // 3_600_000_000),
            "miss": pa.array(miss.astype(np.int64)),
            "micro": pa.array(np.where(miss, fill_vals[code], micro))})

    return combine_agg(events, ["event_type", "hour"], imputed,
                       [("micro", "count"), ("miss", "sum"),
                        ("micro", "sum")],
                       named("event_type", "hour", "n_events", "n_imputed",
                             "sum_micro"))


IMPUTE_VALUE_SQL = """
WITH m AS (
  SELECT event_type,
         CAST(epoch_us(ts) AS BIGINT) // 3600000000 AS hour,
         CAST(floor(value * 1000000.0 + 0.5) AS BIGINT) AS micro,
         hash(event_id) % 20 = 0 AS miss
  FROM events
), f AS (
  SELECT event_type,
         sum(CASE WHEN NOT miss THEN micro END)
           // count(CASE WHEN NOT miss THEN 1 END) AS fill
  FROM m GROUP BY 1
)
SELECT m.event_type, m.hour,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(CASE WHEN miss THEN 1 ELSE 0 END) AS BIGINT)
         AS n_imputed,
       CAST(sum(CASE WHEN miss THEN f.fill ELSE m.micro END) AS BIGINT)
         AS sum_micro
FROM m JOIN f USING (event_type)
GROUP BY 1, 2 ORDER BY 1, 2
"""


def scd2_state_history(sf_dir: str) -> "ray.data.Dataset":
    """Slowly-changing-dimension (type 2) history build: treat each
    user's event_type stream as a state machine and emit one validity
    row per run of equal consecutive states -- (user_id, state,
    valid_from_us, valid_to_us, n_events), valid_to being the next
    state's start (-1 for the still-open current state).  This is the
    change-data-capture materialization a warehouse derives from an
    event log.

    Dataflow: coarse hash co-partition on user_id (one user's history in
    one partition -- the sessionization assumption, same time-split
    escape hatch), then ONE vectorized kernel per partition: lexsort by
    (user, ts, event_id), run-detection over (user, state-code), reduceat
    for run sizes, and a shifted compare wires each run's valid_to to
    its successor.  The kernel emits FINAL rows -- no second shuffle;
    output is O(state changes), streamed as a Dataset.

    Determinism: the (ts, event_id) ordering fixes run boundaries under
    ts ties; run successor order is the run sequence itself (replicated
    in SQL by lead() OVER seg ordinal), so values match bit-for-bit.
    """
    events = read_table(sf_dir, "events",
                        ["event_id", "ts", "user_id", "event_type"])

    empty = pa.table({
        "user_id": pa.array([], type=pa.int64()),
        "state": pa.array([], type=pa.string()),
        "valid_from_us": pa.array([], type=pa.int64()),
        "valid_to_us": pa.array([], type=pa.int64()),
        "n_events": pa.array([], type=pa.int64()),
    })

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": t["user_id"],
            "ts": pa.array(_as_int64(t["ts"]), type=pa.int64()),
            "event_id": t["event_id"],
            "event_type": t["event_type"],
        })

    def scd2_kernel(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        ts = t["ts"].to_numpy(zero_copy_only=False)
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        et = t["event_type"].to_numpy(zero_copy_only=False)
        ustate, ecode = np.unique(et, return_inverse=True)
        order = np.lexsort((eid, ts, uid))
        uid_s, ts_s, code_s = uid[order], ts[order], ecode[order]
        n = order.shape[0]
        new = np.empty(n, dtype=bool)
        new[0] = True
        new[1:] = (uid_s[1:] != uid_s[:-1]) | (code_s[1:] != code_s[:-1])
        starts = np.nonzero(new)[0]
        sizes = np.diff(np.append(starts, n)).astype(np.int64)
        seg_uid = uid_s[starts]
        seg_from = ts_s[starts]
        valid_to = np.full(starts.shape[0], -1, dtype=np.int64)
        if starts.shape[0] > 1:
            nxt = seg_uid[1:] == seg_uid[:-1]
            valid_to[:-1][nxt] = seg_from[1:][nxt]
        return pa.table({
            "user_id": pa.array(seg_uid, type=pa.int64()),
            "state": pa.array(ustate[code_s[starts]], type=pa.string()),
            "valid_from_us": pa.array(seg_from, type=pa.int64()),
            "valid_to_us": pa.array(valid_to, type=pa.int64()),
            "n_events": pa.array(sizes, type=pa.int64()),
        })

    prepped = events.map_batches(prep, batch_format="pyarrow",
                                 zero_copy_batch=True)
    return partition_by(prepped, ["user_id"], fit_partitions(32),
                        scd2_kernel, empty)


SCD2_STATE_HISTORY_SQL = """
WITH v AS (
  SELECT user_id, event_id, event_type,
         CAST(epoch_us(ts) AS BIGINT) AS ts_us
  FROM events
), marked AS (
  SELECT user_id, event_id, event_type, ts_us,
         CASE WHEN lag(event_type) OVER w IS NULL
                OR lag(event_type) OVER w <> event_type
              THEN 1 ELSE 0 END AS chg
  FROM v WINDOW w AS (PARTITION BY user_id ORDER BY ts_us, event_id)
), grp AS (
  SELECT user_id, event_type, ts_us,
         sum(chg) OVER (PARTITION BY user_id ORDER BY ts_us, event_id
                        ROWS UNBOUNDED PRECEDING) AS seg
  FROM marked
), segs AS (
  SELECT user_id, seg, min(event_type) AS state,
         min(ts_us) AS valid_from_us,
         CAST(count(*) AS BIGINT) AS n_events
  FROM grp GROUP BY 1, 2
)
SELECT user_id, state, valid_from_us,
       coalesce(lead(valid_from_us) OVER (PARTITION BY user_id
                                          ORDER BY seg), -1)
         AS valid_to_us,
       n_events
FROM segs
ORDER BY 1, 3
"""


def last_touch_attribution(sf_dir: str,
                           touch_types: tuple = ("click", "view"),
                           conv_type: str = "purchase",
                           window_us: int = 3 * 86400 * 1_000_000
                           ) -> "ray.data.Dataset":
    """MARKETING-STYLE last-touch attribution: every conversion event is
    credited to the same user's most recent prior touch event (strictly
    earlier in (ts, event_id) order, within ``window_us``); conversions
    with no in-window touch report as 'none'.  Output per touch type:
    conversions credited and the exact summed touch-to-conversion gap.

    Dataflow: coarse hash co-partition on user_id, then ONE vectorized
    kernel per partition -- lexsort by (user, ts, event_id), a
    maximum.accumulate over touch positions gives each row its user's
    most recent touch (segment-start guard stops cross-user leaks; the
    accumulate never needs per-user resets), gaps and the window test
    are array ops.  Each conversion is one (touch type, gap) row.
    The (ts, event_id) order makes same-timestamp races deterministic:
    a touch sharing a conversion's timestamp attributes only if its
    event_id is smaller."""
    events = read_table(sf_dir, "events",
                        ["event_id", "ts", "user_id", "event_type"])
    touch_set = set(touch_types)

    empty = pa.table({"touch_type": pa.array([], type=pa.string()),
                      "s": pa.array([], type=pa.int64()),
                      "r": pa.array([], type=pa.int64())})

    def prep(t: pa.Table) -> pa.Table:
        keep = pc.is_in(t["event_type"],
                        value_set=pa.array(list(touch_set) + [conv_type]))
        t = t.filter(keep)
        return pa.table({
            "user_id": t["user_id"],
            "ts": pa.array(_as_int64(t["ts"]), type=pa.int64()),
            "event_id": t["event_id"],
            "event_type": t["event_type"],
        })

    def attribute(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        ts = t["ts"].to_numpy(zero_copy_only=False)
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        et = t["event_type"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        uid_s, ts_s, et_s = uid[order], ts[order], et[order]
        n = order.shape[0]
        is_touch = np.isin(et_s, list(touch_set))
        is_conv = et_s == conv_type
        pos = np.arange(n, dtype=np.int64)
        cand = np.where(is_touch, pos, np.int64(-1))
        last = np.maximum.accumulate(cand)
        new_user = np.ones(n, dtype=bool)
        new_user[1:] = uid_s[1:] != uid_s[:-1]
        seg_start = pos[new_user][np.cumsum(new_user) - 1]
        ok = is_conv & (last >= seg_start)
        gap = np.zeros(n, dtype=np.int64)
        safe = np.maximum(last, 0)
        gap[ok] = ts_s[ok] - ts_s[safe[ok]]
        ok &= gap <= window_us
        conv_idx = np.nonzero(is_conv)[0]
        hit = ok[conv_idx]
        lab = np.full(conv_idx.shape[0], "none", dtype=object)
        lab[hit] = et_s[safe[conv_idx[hit]]]
        return pa.table({"touch_type": pa.array(lab, type=pa.string()),
                         **_limbs(np.where(hit, gap[conv_idx], 0))})

    prepped = events.map_batches(prep, batch_format="pyarrow",
                                 zero_copy_batch=True)
    partials = partition_by(prepped, ["user_id"], fit_partitions(32),
                            attribute, empty)

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table({"touch_type": t["touch_type"],
                         "n_conversions": t["s_count"],
                         **_gap_totals(t, "gap")})

    return combine_agg(partials, ["touch_type"], lambda t: t,
                       [("s", "count"), ("s", "sum"), ("r", "sum")],
                       finalize).sort("touch_type")


LAST_TOUCH_SQL = """
WITH p AS (
  SELECT user_id, event_id, CAST(epoch_us(ts) AS BIGINT) AS pts
  FROM events WHERE event_type = 'purchase'
), t AS (
  SELECT user_id, event_id, event_type,
         CAST(epoch_us(ts) AS BIGINT) AS tts
  FROM events WHERE event_type IN ('click', 'view')
), m AS (
  SELECT p.event_id AS pe, t.event_type AS touch, t.tts, p.pts,
         row_number() OVER (PARTITION BY p.event_id
                            ORDER BY t.tts DESC, t.event_id DESC) AS r
  FROM p JOIN t ON t.user_id = p.user_id
    AND (t.tts < p.pts OR (t.tts = p.pts AND t.event_id < p.event_id))
), best AS (
  SELECT pe, touch, pts - tts AS gap FROM m WHERE r = 1
), labeled AS (
  SELECT p.event_id,
         CASE WHEN best.pe IS NOT NULL
                   AND best.gap <= 259200000000
              THEN best.touch ELSE 'none' END AS touch_type,
         CASE WHEN best.pe IS NOT NULL
                   AND best.gap <= 259200000000
              THEN best.gap ELSE 0 END AS gap
  FROM p LEFT JOIN best ON best.pe = p.event_id
)
SELECT touch_type, CAST(count(*) AS BIGINT) AS n_conversions,
       CAST(sum(gap) // 1000000 AS BIGINT) AS sum_gap_s,
       CAST(sum(gap) % 1000000 AS BIGINT) AS gap_rem_us
FROM labeled GROUP BY 1 ORDER BY 1
"""


def markov_stationary_ppm(sf_dir: str) -> pa.Table:
    """STATIONARY BEHAVIOR MIX by fixed-point iteration over the exact
    event-transition counts: three exact power steps v <- v P_counts
    from the all-ones start, big-int on the driver (the count matrix is
    types x types -- the DISTRIBUTED work is the pair counting, the
    same user-co-partition lag kernel as event_transition_matrix), with
    the step-3 mass share in integer ppm -- where user behavior
    concentrates if today's transition dynamics persist.  v1 is emitted
    exactly (int64-safe); v3 rides the fixed-prime residue channel used
    by gram_power_iteration since it exceeds int64 by design."""
    from .relational import _PI_MOD
    rows = event_transition_matrix(sf_dir).take_all()
    types = sorted({r["from_type"] for r in rows}
                   | {r["to_type"] for r in rows})
    pos = {t: i for i, t in enumerate(types)}
    k = len(types)
    n = [[0] * k for _ in range(k)]
    for r in rows:
        n[pos[r["from_type"]]][pos[r["to_type"]]] = int(r["n"])
    v = [1] * k
    v1 = None
    for step in range(3):
        v = [sum(v[i] * n[i][j] for i in range(k)) for j in range(k)]
        if step == 0:
            v1 = list(v)
    total = sum(v)
    return pa.table({
        "event_type": pa.array(types, type=pa.string()),
        "v1": pa.array(v1, type=pa.int64()),
        "v3_mod": pa.array([x % _PI_MOD for x in v], type=pa.int64()),
        "share_ppm": pa.array([x * 1_000_000 // total for x in v],
                              type=pa.int64()),
    })


MARKOV_STATIONARY_SQL = """
WITH w AS (
  SELECT user_id, event_type,
         lag(event_type) OVER (PARTITION BY user_id
                               ORDER BY ts, event_id) AS prev
  FROM events
), p AS (
  SELECT prev AS f, event_type AS t, CAST(count(*) AS HUGEINT) AS n
  FROM w WHERE prev IS NOT NULL GROUP BY 1, 2
), types AS (
  SELECT DISTINCT f AS ty FROM p UNION SELECT DISTINCT t FROM p
), u1 AS (
  SELECT t AS ty, sum(n) AS v FROM p GROUP BY 1
), u1f AS (
  SELECT types.ty, coalesce(u1.v, 0) AS v
  FROM types LEFT JOIN u1 ON u1.ty = types.ty
), u2 AS (
  SELECT p.t AS ty, sum(u1f.v * p.n) AS v
  FROM p JOIN u1f ON u1f.ty = p.f GROUP BY 1
), u2f AS (
  SELECT types.ty, coalesce(u2.v, 0) AS v
  FROM types LEFT JOIN u2 ON u2.ty = types.ty
), u3 AS (
  SELECT p.t AS ty, sum(u2f.v * p.n) AS v
  FROM p JOIN u2f ON u2f.ty = p.f GROUP BY 1
), u3f AS (
  SELECT types.ty, coalesce(u3.v, 0) AS v
  FROM types LEFT JOIN u3 ON u3.ty = types.ty
), tot AS (SELECT sum(v) AS s FROM u3f)
SELECT u1f.ty AS event_type,
       CAST(u1f.v AS BIGINT) AS v1,
       CAST(((u3f.v % 999999999989) + 999999999989) % 999999999989
            AS BIGINT) AS v3_mod,
       CAST(u3f.v * 1000000 // tot.s AS BIGINT) AS share_ppm
FROM u1f JOIN u3f ON u3f.ty = u1f.ty CROSS JOIN tot
ORDER BY 1
"""


def props_vocab_drift(sf_dir: str, k: int = 15) -> "ray.data.Dataset":
    """VOCABULARY DRIFT between the first and second time half of the
    event log: per props token, its frequency share in each half
    (integer ppm) and the k largest absolute share changes -- the
    content-drift monitor a streaming corpus runs to catch a source
    going stale or a new pattern flooding in.  The halfway boundary is
    the epoch midpoint (min+max)//2, derived from the data so both
    engines agree.

    Scale shape: one tiny Min/Max pass fixes the boundary; the count
    pass is one ``combine_agg`` per props token; shares and the keep-k
    ranking fold an O(vocab) table."""
    from ray.data.aggregate import Max as _Max, Min as _Min
    ds = read_table(sf_dir, "events", ["ts", "props"])
    mm = ds.aggregate(_Min("ts"), _Max("ts"))
    lo = int(pa.scalar(mm["min(ts)"]).cast(pa.int64()).as_py())
    hi = int(pa.scalar(mm["max(ts)"]).cast(pa.int64()).as_py())
    mid = (lo + hi) // 2

    def halves(t: pa.Table) -> pa.Table:
        us = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        second = (us > mid).astype(np.int64)
        return pa.table({"props": pc.cast(t["props"], pa.string()),
                         "first": pa.array(1 - second),
                         "second": pa.array(second)})

    merged = combine_agg(ds, ["props"], halves,
                         [("first", "sum"), ("second", "sum")],
                         named("props", "n_first", "n_second")).to_pandas()
    tf = int(merged["n_first"].sum())
    ts_ = int(merged["n_second"].sum())
    nf = merged["n_first"].to_numpy(dtype=np.int64)
    ns = merged["n_second"].to_numpy(dtype=np.int64)
    dppm = ns * 1_000_000 // ts_ - nf * 1_000_000 // tf
    toks = merged["props"].to_numpy()
    order = np.lexsort((toks.astype(np.str_), -np.abs(dppm)))[:k]
    return pa.table({
        "props": pa.array(toks[order].tolist(), type=pa.string()),
        "n_first": pa.array(nf[order], type=pa.int64()),
        "n_second": pa.array(ns[order], type=pa.int64()),
        "dppm": pa.array(dppm[order], type=pa.int64()),
        "rnk": pa.array(np.arange(1, order.shape[0] + 1,
                                  dtype=np.int64)),
    })


PROPS_VOCAB_DRIFT_SQL = """
WITH mm AS (
  SELECT (CAST(epoch_us(min(ts)) AS BIGINT)
          + CAST(epoch_us(max(ts)) AS BIGINT)) // 2 AS mid
  FROM events
), c AS (
  SELECT props,
         CAST(count(*) FILTER (
             WHERE CAST(epoch_us(ts) AS BIGINT) <= mm.mid)
           AS BIGINT) AS n_first,
         CAST(count(*) FILTER (
             WHERE CAST(epoch_us(ts) AS BIGINT) > mm.mid)
           AS BIGINT) AS n_second
  FROM events CROSS JOIN mm GROUP BY 1
), tot AS (
  SELECT CAST(sum(n_first) AS BIGINT) AS tf,
         CAST(sum(n_second) AS BIGINT) AS ts FROM c
), d AS (
  SELECT props, n_first, n_second,
         n_second * 1000000 // tot.ts
           - n_first * 1000000 // tot.tf AS dppm
  FROM c CROSS JOIN tot
)
SELECT props, n_first, n_second, CAST(dppm AS BIGINT) AS dppm,
       CAST(row_number() OVER (ORDER BY abs(dppm) DESC, props)
            AS BIGINT) AS rnk
FROM d
QUALIFY rnk <= 15
ORDER BY 5
"""


def _chunk_seeds(ds: "ray.data.Dataset",
                 chunk_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """(chunks, seeds): every occupied chunk (event_id >> chunk_bits) of
    ``ds`` ascending, and the max ts over all EARLIER chunks (-2^62 for
    the first) -- the exclusive prefix max a chunked running-max scan
    starts each chunk from."""
    def chunk_ts(t: pa.Table) -> pa.Table:
        return pa.table({"chunk": pa.array(_as_int64(t["event_id"])
                                           >> chunk_bits),
                         "ts": pa.array(_as_int64(t["ts"]))})

    summ = (combine_agg(ds, ["chunk"], chunk_ts, [("ts", "max")],
                        named("chunk", "max_ts"))
            .to_pandas().sort_values("chunk"))
    maxes = summ["max_ts"].to_numpy(dtype=np.int64)
    seeds = np.concatenate(([-(2 ** 62)],
                            np.maximum.accumulate(maxes)[:-1]))
    return (summ["chunk"].to_numpy(dtype=np.int64),
            seeds[:maxes.shape[0]].astype(np.int64))


def ooo_lateness_stats(sf_dir: str, chunk_bits: int = 12) -> "ray.data.Dataset":
    """OUT-OF-ORDER lateness audit: how disordered is the event stream
    relative to arrival order (event_id)?  For every event, lateness =
    running-max(ts over all EARLIER event_ids) - ts, clipped at 0 -- the
    exact quantity a streaming engine's watermark generator needs (how
    far behind the frontier do records arrive), reported per event_type.

    A GLOBAL running max is inherently sequential; the engine computes
    it with a deterministic-chunk prefix scan that never depends on Ray
    block boundaries (two map_batches passes over one dataset are NOT
    guaranteed to see identical blocks, so a block-identity handoff can
    silently misalign -- this design is immune by construction):

    1. chunk = event_id >> chunk_bits partitions the id RANGE into
       fixed, data-independent segments;
    2. pass 1: a ``combine_agg`` max of ts per chunk
       -> O(id_range / 2^chunk_bits) rows to the driver, which computes
       the EXCLUSIVE prefix max per chunk and broadcasts it (ray.put);
    3. pass 2: hash co-partition on chunk; per partition, rows sort by
       event_id and prev[i] = max(seed[chunk(i)], exclusive-cummax) --
       rows of EARLIER chunks co-resident in the partition cannot leak
       wrongly because every chunk's seed already dominates everything
       before it; one vectorized np.maximum.accumulate, no row loop;
    4. one row per event -> a cardinality-bounded ``combine_agg`` per
       event_type.

    ``chunk_bits`` sizes the driver's prefix table: 2^12-id chunks suit
    the gate's dense ids; at 10^12 ids raise it to >= 20 so the driver
    holds ~10^6 chunk maxes (8 MB), never O(rows).  Lateness is exact
    integer microseconds (epoch_us), so the DuckDB window-function
    oracle hashes identically.
    """
    ds = read_table(sf_dir, "events", ["event_id", "ts", "event_type"])

    seed_ref = ray.put(_chunk_seeds(ds, chunk_bits))

    empty = pa.table({"event_type": pa.array([], type=pa.string()),
                      **{c: pa.array([], type=pa.int64())
                         for c in ("is_late", "s", "r", "late_us")}})

    def add_chunk(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t.append_column("chunk",
                                   pa.array([], type=pa.int64()))
        eid = _as_int64(t["event_id"])
        return t.append_column("chunk", pa.array(eid >> chunk_bits))

    def late_partition(t: pa.Table) -> pa.Table:
        ck, sd = ray.get(seed_ref)
        eid = _as_int64(t["event_id"])
        ts = _as_int64(t["ts"])
        order = np.argsort(eid, kind="stable")
        ts_s = ts[order]
        chunk_s = eid[order] >> chunk_bits
        seed_row = sd[np.searchsorted(ck, chunk_s)]
        run = np.maximum.accumulate(ts_s)
        prev = np.concatenate(([-(2 ** 62)], run[:-1]))
        prev = np.maximum(prev, seed_row)
        late = np.maximum(prev - ts_s, 0)
        return pa.table({
            "event_type": pc.take(t["event_type"],
                                  pa.array(order, type=pa.int64())),
            "is_late": pa.array((late > 0).astype(np.int64)),
            **_limbs(late),
            "late_us": pa.array(late),
        })

    parts = partition_by(
        ds.map_batches(add_chunk, batch_format="pyarrow"),
        ["chunk"], fit_partitions(32), late_partition, empty)

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": t["event_type"],
            "n_events": t["late_us_count"],
            "n_late": t["is_late_sum"],
            **_gap_totals(t, "late"),
            "max_late_us": t["late_us_max"],
        })

    return combine_agg(parts, ["event_type"], lambda t: t,
                       [("late_us", "count"), ("is_late", "sum"),
                        ("s", "sum"), ("r", "sum"), ("late_us", "max")],
                       finalize)


OOO_LATENESS_SQL = """
WITH w AS (
  SELECT event_type, CAST(epoch_us(ts) AS BIGINT) AS ts_us,
         max(CAST(epoch_us(ts) AS BIGINT)) OVER (
           ORDER BY event_id
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS rmax
  FROM events)
SELECT event_type,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(CASE WHEN rmax > ts_us THEN 1 ELSE 0 END) AS BIGINT)
         AS n_late,
       CAST(sum(CASE WHEN rmax > ts_us THEN rmax - ts_us ELSE 0 END)
            // 1000000 AS BIGINT) AS sum_late_s,
       CAST(sum(CASE WHEN rmax > ts_us THEN rmax - ts_us ELSE 0 END)
            % 1000000 AS BIGINT) AS late_rem_us,
       CAST(max(CASE WHEN rmax > ts_us THEN rmax - ts_us ELSE 0 END)
            AS BIGINT) AS max_late_us
FROM w GROUP BY 1
"""


def markov_next_accuracy(sf_dir: str) -> pa.Table:
    """NEXT-EVENT prediction accuracy of the first-order Markov
    baseline: per previous type, predict the most frequent successor
    (count desc, alphabetical tie-break) and report how often the
    stream actually follows it -- the sanity yardstick every sequence
    model must beat.

    Derivation trick: accuracy is computable from the transition-count
    table ALONE (n_correct(prev) = the argmax cell's count), so this
    reuses the transition pipeline's user-co-partition pair kernel and
    adds only O(types^2) driver math -- no second data pass, no model
    broadcast, no scoring scan.
    """
    counts = event_transition_matrix(sf_dir).to_pandas()
    rows = []
    for ft, grp in counts.groupby("from_type"):
        grp = grp.sort_values(["n", "to_type"],
                              ascending=[False, True])
        best = grp.iloc[0]
        n_pairs = int(grp["n"].sum())
        rows.append({"from_type": str(ft),
                     "predicted": str(best["to_type"]),
                     "n_pairs": n_pairs,
                     "n_correct": int(best["n"]),
                     "acc_ppm": int(best["n"]) * 1_000_000 // n_pairs})
    rows.sort(key=lambda r: r["from_type"])
    return pa.table({
        "from_type": pa.array([r["from_type"] for r in rows],
                              type=pa.string()),
        "predicted": pa.array([r["predicted"] for r in rows],
                              type=pa.string()),
        "n_pairs": pa.array([r["n_pairs"] for r in rows],
                            type=pa.int64()),
        "n_correct": pa.array([r["n_correct"] for r in rows],
                              type=pa.int64()),
        "acc_ppm": pa.array([r["acc_ppm"] for r in rows],
                            type=pa.int64()),
    })


MARKOV_NEXT_ACC_SQL = """
WITH w AS (
  SELECT user_id, event_type,
         lag(event_type) OVER (PARTITION BY user_id
                               ORDER BY ts, event_id) AS prev
  FROM events
), p AS (
  SELECT prev AS from_type, event_type AS to_type,
         CAST(count(*) AS BIGINT) AS n
  FROM w WHERE prev IS NOT NULL GROUP BY 1, 2
), r AS (
  SELECT from_type, to_type, n,
         row_number() OVER (PARTITION BY from_type
                            ORDER BY n DESC, to_type ASC) AS rn,
         CAST(sum(n) OVER (PARTITION BY from_type) AS BIGINT) AS np
  FROM p
)
SELECT from_type, to_type AS predicted, np AS n_pairs,
       n AS n_correct, CAST(n * 1000000 // np AS BIGINT) AS acc_ppm
FROM r WHERE rn = 1 ORDER BY from_type
"""


def markov_entropy_rate(sf_dir: str) -> pa.Table:
    """ENTROPY RATE of the first-order event-type Markov chain (the
    average per-step information of the stream, the compressibility /
    predictability number behind "how surprising is user behavior"):
    H = sum_ij (c_ij / N) * ln(r_i / c_ij), carried as per-term
    floor(f * 1e6) micro-nats mirrored in the SQL oracle -- no float
    sum is ever formed across terms.

    Scale shape: reuses the transition-count dataflow (user
    co-partition, O(types^2) count rows), then an O(types^2) driver
    fold.
    """
    trans = event_transition_matrix(sf_dir).to_pandas()
    c = trans["n"].to_numpy(dtype=np.int64).astype(np.float64)
    ntot = float(c.sum())
    rsum = trans.groupby("from_type")["n"].transform("sum").to_numpy(
        dtype=np.int64).astype(np.float64)
    terms = np.floor((c / ntot) * np.log(rsum / c) * 1_000_000.0)
    return pa.table({
        "n_transitions": pa.array([int(ntot)], type=pa.int64()),
        "n_cells": pa.array([len(trans)], type=pa.int64()),
        "entropy_rate_micronats": pa.array([int(terms.sum())],
                                           type=pa.int64()),
    })


MARKOV_ENTROPY_SQL = """
WITH w AS (
  SELECT user_id, event_type,
         lag(event_type) OVER (PARTITION BY user_id
                               ORDER BY ts, event_id) AS prev
  FROM events
), p AS (
  SELECT prev AS from_type, event_type AS to_type,
         CAST(count(*) AS BIGINT) AS n
  FROM w WHERE prev IS NOT NULL GROUP BY 1, 2
), f AS (
  SELECT from_type, CAST(sum(n) AS BIGINT) AS nf FROM p GROUP BY 1
), tot AS (SELECT CAST(sum(n) AS BIGINT) AS nn FROM p),
terms AS (
  SELECT CAST(floor((CAST(p.n AS DOUBLE) / CAST(tot.nn AS DOUBLE))
              * ln(CAST(f.nf AS DOUBLE) / CAST(p.n AS DOUBLE))
              * 1000000.0) AS BIGINT) AS t
  FROM p JOIN f USING (from_type) CROSS JOIN tot
)
SELECT tot.nn AS n_transitions,
       (SELECT CAST(count(*) AS BIGINT) FROM p) AS n_cells,
       (SELECT CAST(sum(t) AS BIGINT) FROM terms)
         AS entropy_rate_micronats
FROM tot
"""


def _hourly_cents(sf_dir: str) -> np.ndarray:
    """Event revenue in integer cents per epoch hour, on the dense grid
    of hours from the first event's to the last's (zero where none)."""
    def cents(t: pa.Table) -> pa.Table:
        v = t["value"].to_numpy(zero_copy_only=False)
        return pa.table({
            "hour": pa.array(_as_int64(t["ts"]) // 3_600_000_000),
            "c": pa.array(np.floor(v * 100.0 + 0.5).astype(np.int64))})

    h = combine_agg(read_table(sf_dir, "events", ["ts", "value"]),
                    ["hour"], cents, [("c", "sum")],
                    named("hour", "c")).to_pandas()
    hours = h["hour"].to_numpy(dtype=np.int64)
    lo = int(hours.min())
    grid = np.zeros(int(hours.max()) - lo + 1, dtype=np.int64)
    grid[hours - lo] = h["c"].to_numpy(dtype=np.int64)
    return grid


def ewma_forecast_hourly(sf_dir: str) -> pa.Table:
    """INTEGER EWMA (alpha = 1/2) one-step-ahead forecast of the
    hourly revenue series with its mean absolute error -- the
    cheapest online forecaster there is, made hash-exact by the
    floor-halving recurrence s_t = (s_{t-1} + v_t) // 2 (every state
    is an integer, so the sequential recursion is replicable by a
    recursive CTE).

    Scale shape: one per-hour cents ``combine_agg``
    (cardinality-bounded), then an O(hours) driver recurrence.
    """
    grid = _hourly_cents(sf_dir)
    s = int(grid[0])
    abs_err = 0
    for v in grid[1:]:
        abs_err += abs(int(v) - s)          # forecast for t is s_{t-1}
        s = (s + int(v)) // 2
    n_fc = len(grid) - 1
    return pa.table({
        "n_hours": pa.array([len(grid)], type=pa.int64()),
        "sum_abs_err_cents": pa.array([abs_err], type=pa.int64()),
        "mae_cents": pa.array([abs_err // n_fc if n_fc else 0],
                              type=pa.int64()),
        "final_state_cents": pa.array([s], type=pa.int64()),
    })


EWMA_FORECAST_SQL = """
WITH RECURSIVE h AS (
  SELECT CAST(epoch_us(ts) AS BIGINT) // 3600000000 AS hour,
         CAST(sum(CAST(floor(value * 100.0 + 0.5) AS BIGINT))
              AS BIGINT) AS c
  FROM events GROUP BY 1
), b AS (SELECT min(hour) AS lo, max(hour) AS hi FROM h),
grid AS (
  SELECT g.hour, CAST(COALESCE(h.c, 0) AS BIGINT) AS v
  FROM (SELECT unnest(generate_series(b.lo, b.hi)) AS hour FROM b) g
  LEFT JOIN h ON h.hour = g.hour
),
r(hour, s, abs_err) AS (
  SELECT b.lo, (SELECT v FROM grid WHERE grid.hour = b.lo),
         CAST(0 AS BIGINT)
  FROM b
  UNION ALL
  SELECT r.hour + 1, (r.s + g.v) // 2, abs(g.v - r.s)
  FROM r JOIN grid g ON g.hour = r.hour + 1
),
agg AS (
  SELECT CAST(count(*) AS BIGINT) AS n_hours,
         CAST(sum(abs_err) AS BIGINT) AS sum_abs_err,
         CAST(max(hour) AS BIGINT) AS last_h
  FROM r
), fin AS (SELECT r.s AS final_s FROM r, agg WHERE r.hour = agg.last_h)
SELECT agg.n_hours,
       agg.sum_abs_err AS sum_abs_err_cents,
       CAST(CASE WHEN agg.n_hours > 1
                 THEN agg.sum_abs_err // (agg.n_hours - 1)
                 ELSE 0 END AS BIGINT) AS mae_cents,
       CAST(fin.final_s AS BIGINT) AS final_state_cents
FROM agg, fin
"""


def funnel_windowed_counts(sf_dir: str,
                           steps: tuple = ("view", "click",
                                           "purchase"),
                           window_hours: int = 24) -> pa.Table:
    """TIME-BOUNDED FUNNEL: like funnel_counts, but each next step must
    land within ``window_hours`` of the previous matched step -- the
    conversion-window semantics real product funnels use (a purchase a
    month after the click does not count).  First-touch matching, same
    (ts, event_id) total order as the unwindowed kernel.

    Scale shape: identical user co-partition + vectorized reduceat
    scan; the window check adds one comparison per candidate.
    """
    events = read_table(sf_dir, "events",
                        ["event_id", "ts", "user_id", "event_type"])
    W = np.int64(window_hours) * 3_600_000_000

    n_steps = len(steps)
    empty = pa.table({f"n_step{i + 1}": pa.array([], type=pa.int64())
                      for i in range(n_steps)})

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": pc.cast(t["user_id"], pa.int64()),
            "ts": pa.array(_as_int64(t["ts"]), type=pa.int64()),
            "event_id": pc.cast(t["event_id"], pa.int64()),
            "event_type": t["event_type"],
        })

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        ts = t["ts"].to_numpy(zero_copy_only=False)
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        et = t["event_type"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        uid_s, ts_s, et_s = uid[order], ts[order], et[order]
        n = uid_s.shape[0]
        new_grp = np.ones(n, dtype=bool)
        new_grp[1:] = uid_s[1:] != uid_s[:-1]
        grp = np.cumsum(new_grp) - 1
        n_users = int(grp[-1]) + 1
        starts = np.nonzero(new_grp)[0]
        pos = np.arange(n, dtype=np.int64)
        INF = np.iinfo(np.int64).max
        prev_pos = np.full(n_users, -1, dtype=np.int64)
        prev_ts = np.zeros(n_users, dtype=np.int64)
        first_step = True
        counts = []
        for step in steps:
            is_step = et_s == step
            ok = is_step & (pos > prev_pos[grp])
            if not first_step:
                ok &= ts_s <= prev_ts[grp] + W
            cand = np.where(ok, pos, INF)
            first = np.minimum.reduceat(cand, starts)
            done = first < INF
            counts.append(int(done.sum()))
            safe = np.minimum(first, n - 1)
            prev_pos = np.where(done, first, INF)
            prev_ts = np.where(done, ts_s[safe], 0)
            first_step = False
        return pa.table({f"n_step{i + 1}": pa.array([c],
                                                    type=pa.int64())
                         for i, c in enumerate(counts)})

    prepped = events.map_batches(prep, batch_format="pyarrow",
                                 zero_copy_batch=True)
    per_part = partition_by(prepped, ["user_id"], fit_partitions(32),
                            kernel, empty)
    from ray.data.aggregate import Sum
    agg = per_part.aggregate(*[Sum(f"n_step{i + 1}",
                                   alias_name=f"n_step{i + 1}")
                               for i in range(n_steps)])
    return pa.table({f"n_step{i + 1}": pa.array(
        [int(agg[f"n_step{i + 1}"] or 0)], type=pa.int64())
        for i in range(n_steps)})


FUNNEL_WINDOWED_SQL = """
WITH e AS (SELECT user_id, event_type,
                  CAST(epoch_us(ts) AS HUGEINT) * 4294967296
                  + CAST(event_id AS BIGINT) AS p FROM events),
s1 AS (SELECT user_id, min(p) AS p1 FROM e
       WHERE event_type = 'view' GROUP BY 1),
s2 AS (SELECT e.user_id, min(e.p) AS p2
       FROM e JOIN s1 ON s1.user_id = e.user_id
       WHERE e.event_type = 'click' AND e.p > s1.p1
         AND e.p // 4294967296 <= s1.p1 // 4294967296 + 86400000000
       GROUP BY 1),
s3 AS (SELECT e.user_id, min(e.p) AS p3
       FROM e JOIN s2 ON s2.user_id = e.user_id
       WHERE e.event_type = 'purchase' AND e.p > s2.p2
         AND e.p // 4294967296 <= s2.p2 // 4294967296 + 86400000000
       GROUP BY 1)
SELECT (SELECT CAST(count(*) AS BIGINT) FROM s1) AS n_step1,
       (SELECT CAST(count(*) AS BIGINT) FROM s2) AS n_step2,
       (SELECT CAST(count(*) AS BIGINT) FROM s3) AS n_step3
"""


def leadlag_xcorr(sf_dir: str, type_a: str = "click",
                  type_b: str = "purchase",
                  max_lag: int = 3) -> pa.Table:
    """LEAD-LAG CROSS-CORRELATION between two event types' hourly
    count series at lags -max_lag..+max_lag (positive lag = type_a
    leads type_b): the "does click volume predict purchases an hour
    later?" table.  Exact integer moment sums over the overlapping
    gap-filled grid per lag; the Pearson value is ONE mirrored double
    per lag.

    Scale shape: one (type, hour) ``combine_agg`` count
    (cardinality-bounded), O(lags x hours) driver fold.
    """
    events = read_table(sf_dir, "events", ["event_type", "ts"])
    HOUR_US = np.int64(3_600_000_000)

    def hourly(t: pa.Table) -> pa.Table:
        keep = pc.is_in(t["event_type"],
                        value_set=pa.array([type_a, type_b]))
        t = t.filter(keep)
        return pa.table({"event_type": t["event_type"],
                         "hour": pa.array(_as_int64(t["ts"]) // HOUR_US)})

    grid = combine_agg(events, ["event_type", "hour"], hourly,
                       [("hour", "count")],
                       named("event_type", "hour", "n")).to_pandas()
    lo = int(grid["hour"].min())
    hi = int(grid["hour"].max())
    span = hi - lo + 1
    a = np.zeros(span, dtype=np.int64)
    b = np.zeros(span, dtype=np.int64)
    ga = grid[grid["event_type"] == type_a]
    gb = grid[grid["event_type"] == type_b]
    a[ga["hour"].to_numpy(dtype=np.int64) - lo] = \
        ga["n"].to_numpy(dtype=np.int64)
    b[gb["hour"].to_numpy(dtype=np.int64) - lo] = \
        gb["n"].to_numpy(dtype=np.int64)

    lags, rs, ns = [], [], []
    for lag in range(-max_lag, max_lag + 1):
        # pair a[t] with b[t + lag]
        if lag >= 0:
            x, y = a[:span - lag], b[lag:]
        else:
            x, y = a[-lag:], b[:span + lag]
        m = int(x.size)
        sx, sy = int(x.sum()), int(y.sum())
        sxx = int((x.astype(object) * x).sum())
        syy = int((y.astype(object) * y).sum())
        sxy = int((x.astype(object) * y).sum())
        num = float(m * sxy - sx * sy)
        den = np.sqrt(float(m * sxx - sx * sx)) \
            * np.sqrt(float(m * syy - sy * sy))
        r = int(np.floor(num / den * 1_000_000.0)) if den > 0 else 0
        lags.append(lag); rs.append(r); ns.append(m)
    return pa.table({
        "lag": pa.array(lags, type=pa.int64()),
        "n_hours": pa.array(ns, type=pa.int64()),
        "r_ppm": pa.array(rs, type=pa.int64()),
    })


LEADLAG_XCORR_SQL = """
WITH h AS (
  SELECT event_type,
         CAST(epoch_us(ts) AS BIGINT) // 3600000000 AS hour,
         CAST(count(*) AS BIGINT) AS n
  FROM events WHERE event_type IN ('click', 'purchase')
  GROUP BY 1, 2
), b AS (SELECT min(hour) AS lo, max(hour) AS hi FROM h),
grid AS (
  SELECT g.hour,
         CAST(COALESCE(max(h.n) FILTER (
           WHERE h.event_type = 'click'), 0) AS BIGINT) AS a,
         CAST(COALESCE(max(h.n) FILTER (
           WHERE h.event_type = 'purchase'), 0) AS BIGINT) AS bb
  FROM (SELECT unnest(generate_series(b.lo, b.hi)) AS hour FROM b) g
  LEFT JOIN h ON h.hour = g.hour
  GROUP BY 1
), lags(lag) AS (SELECT unnest(generate_series(-3, 3))),
pairs AS (
  SELECT l.lag, x.a AS x, y.bb AS y
  FROM lags l
  JOIN grid x ON TRUE
  JOIN grid y ON y.hour = x.hour + l.lag
), s AS (
  SELECT lag, CAST(count(*) AS BIGINT) AS m,
         CAST(sum(x) AS BIGINT) AS sx, CAST(sum(y) AS BIGINT) AS sy,
         CAST(sum(x * x) AS BIGINT) AS sxx,
         CAST(sum(y * y) AS BIGINT) AS syy,
         CAST(sum(x * y) AS BIGINT) AS sxy
  FROM pairs GROUP BY 1
)
SELECT CAST(lag AS BIGINT) AS lag, m AS n_hours,
       CAST(CASE WHEN (m * sxx - sx * sx) > 0
                  AND (m * syy - sy * sy) > 0
                 THEN floor(CAST(m * sxy - sx * sy AS DOUBLE)
                      / (sqrt(CAST(m * sxx - sx * sx AS DOUBLE))
                         * sqrt(CAST(m * syy - sy * sy AS DOUBLE)))
                      * 1000000.0)
                 ELSE 0 END AS BIGINT) AS r_ppm
FROM s ORDER BY 1
"""


def retry_storm_stats(sf_dir: str, window_s: int = 1) -> pa.Table:
    """CLIENT-RETRY-STORM AUDIT: per event type, how many events are
    exact duplicates of the PREVIOUS event of the same (user, type,
    value) within ``window_s`` seconds -- the double-fire / retry bug
    detector every ingestion pipeline wants before dedup budgets are
    spent.  First event of each burst is kept; followers are counted.

    Scale shape: user co-partition + one lexsort kernel (the ordered-
    window family); O(types) rows out per partition.
    """
    events = read_table(sf_dir, "events",
                        ["event_id", "ts", "user_id", "event_type", "value"])
    W = np.int64(window_s) * 1_000_000

    empty = pa.table({"event_type": pa.array([], type=pa.string()),
                      "retry": pa.array([], type=pa.int64())})

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": pc.cast(t["user_id"], pa.int64()),
            "ts": pa.array(_as_int64(t["ts"]), type=pa.int64()),
            "event_id": pc.cast(t["event_id"], pa.int64()),
            "event_type": t["event_type"],
            "vm": pc.cast(pc.round(pc.multiply(
                pc.cast(t["value"], pa.float64()),
                pa.scalar(1_000_000.0))), pa.int64()),
        })

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        ts = t["ts"].to_numpy(zero_copy_only=False)
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        vm = t["vm"].to_numpy(zero_copy_only=False)
        et = t["event_type"].to_numpy(zero_copy_only=False)
        ue, code = np.unique(et, return_inverse=True)
        order = np.lexsort((eid, ts, vm, code, uid))
        u_s, t_s, v_s, c_s = (uid[order], ts[order], vm[order],
                              code[order])
        same = np.zeros(u_s.size, dtype=bool)
        same[1:] = ((u_s[1:] == u_s[:-1]) & (c_s[1:] == c_s[:-1])
                    & (v_s[1:] == v_s[:-1])
                    & (t_s[1:] - t_s[:-1] <= W))
        return pa.table({
            "event_type": t["event_type"].take(pa.array(order)),
            "retry": pa.array(same.astype(np.int64)),
        })

    prepped = events.map_batches(prep, batch_format="pyarrow",
                                 zero_copy_batch=True)
    per = partition_by(prepped, ["user_id"], fit_partitions(32),
                       kernel, empty)
    agg = (combine_agg(per, ["event_type"], lambda t: t,
                       [("retry", "count"), ("retry", "sum")],
                       named("event_type", "n_events", "n_retries"))
           .to_pandas().sort_values("event_type"))
    return pa.table({
        "event_type": pa.array(agg["event_type"].tolist(),
                               type=pa.string()),
        "n_events": pa.array(agg["n_events"].to_numpy(
            dtype=np.int64)),
        "n_retries": pa.array(agg["n_retries"].to_numpy(
            dtype=np.int64)),
    })


RETRY_STORM_SQL = """
WITH e AS (
  SELECT user_id, event_type,
         CAST(floor(value * 1000000.0 + 0.5) AS BIGINT) AS vm,
         CAST(epoch_us(ts) AS BIGINT) AS us,
         lag(CAST(epoch_us(ts) AS BIGINT)) OVER (
           PARTITION BY user_id, event_type,
                        CAST(floor(value * 1000000.0 + 0.5) AS BIGINT)
           ORDER BY epoch_us(ts), event_id) AS prev_us
  FROM events
)
SELECT event_type,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(CASE WHEN prev_us IS NOT NULL
                      AND us - prev_us <= 1000000
                THEN 1 ELSE 0 END) AS BIGINT) AS n_retries
FROM e GROUP BY 1 ORDER BY 1
"""


def slo_burn_report(sf_dir: str, p: float = 0.99,
                    slo_micro: int = 450_000_000) -> pa.Table:
    """SLO BURN REPORT: treating event value as a latency, the exact
    hourly p99 against a fixed objective -- hours in violation, the
    worst hour, and the LONGEST consecutive violation streak (the
    number an error-budget policy pages on).  Exact grouped quantiles
    (quantile_disc) over the hour key; absent hours are not violations.

    Scale shape: one grouped histogram-bisection pass keyed by hour
    (O(hours) targets share each round's single histogram), O(hours)
    driver walk for the streak.
    """
    from .quantiles import exact_quantiles_grouped
    ds = read_table(sf_dir, "events", ["ts", "value"])
    HOUR_US = np.int64(3_600_000_000)

    def staged(t: pa.Table) -> pa.Table:
        us = _as_int64(t["ts"])
        return pa.table({
            "hr": pa.array(us // HOUR_US),
            "m": pc.cast(pc.round(pc.multiply(
                pc.cast(t["value"], pa.float64()),
                pa.scalar(1_000_000.0))), pa.int64()),
        })

    e = ds.map_batches(staged, batch_format="pyarrow",
                       zero_copy_batch=True)
    qt = (exact_quantiles_grouped(e, "m", "hr", [p]).to_pandas()
          .sort_values("hr"))
    hours = qt["hr"].to_numpy(dtype=np.int64)
    v = qt["value"].to_numpy(dtype=np.float64).astype(np.int64)
    viol = v > slo_micro
    streak = best = 0
    prev_h = None
    for h, bad in zip(hours.tolist(), viol.tolist()):
        if bad and prev_h is not None and h == prev_h + 1 and streak:
            streak += 1
        elif bad:
            streak = 1
        else:
            streak = 0
        best = max(best, streak)
        prev_h = h
    worst = int(v.max()) if v.size else 0
    return pa.table({
        "n_hours": pa.array([len(hours)], type=pa.int64()),
        "n_violations": pa.array([int(viol.sum())], type=pa.int64()),
        "worst_p99_micro": pa.array([worst], type=pa.int64()),
        "longest_streak": pa.array([best], type=pa.int64()),
    })


SLO_BURN_SQL = """
WITH e AS (
  SELECT CAST(epoch_us(ts) AS BIGINT) // 3600000000 AS hr,
         CAST(floor(value * 1000000.0 + 0.5) AS BIGINT) AS m
  FROM events
), q AS (
  SELECT hr, CAST(quantile_disc(m, 0.99) AS BIGINT) AS p99
  FROM e GROUP BY 1
), v AS (
  SELECT hr, p99, CASE WHEN p99 > 450000000 THEN 1 ELSE 0 END AS bad
  FROM q
), runs AS (
  SELECT hr, bad,
         hr - CAST(row_number() OVER (
           PARTITION BY bad ORDER BY hr) AS BIGINT) AS grp
  FROM v
), streaks AS (
  SELECT CAST(count(*) AS BIGINT) AS ln
  FROM runs WHERE bad = 1 GROUP BY grp
)
SELECT (SELECT CAST(count(*) AS BIGINT) FROM q) AS n_hours,
       (SELECT CAST(sum(bad) AS BIGINT) FROM v) AS n_violations,
       (SELECT CAST(max(p99) AS BIGINT) FROM q) AS worst_p99_micro,
       CAST(COALESCE((SELECT max(ln) FROM streaks), 0) AS BIGINT)
         AS longest_streak
"""


_WATERMARK_DELAYS_US = (0, 60_000_000, 300_000_000, 3_600_000_000)


def watermark_lateness_curve(sf_dir: str,
                             chunk_bits: int = 12) -> pa.Table:
    """WATERMARK TUNING CURVE: for each candidate allowed-lateness
    delay (0s / 1m / 5m / 1h), how many events a streaming engine
    would DROP because they arrive (by event_id order) more than the
    delay behind the running event-time frontier -- the table that
    picks a watermark.  Uses the same deterministic-chunk prefix-max
    scan as ooo_lateness_stats (block-boundary immune by
    construction).
    """
    ds = read_table(sf_dir, "events", ["event_id", "ts"])
    delays = np.array(_WATERMARK_DELAYS_US, dtype=np.int64)
    seed_ref = ray.put(_chunk_seeds(ds, chunk_bits))

    empty = pa.table({"delay_us": pa.array([], type=pa.int64()),
                      "dropped": pa.array([], type=pa.int64())})

    def add_chunk(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t.append_column("chunk",
                                   pa.array([], type=pa.int64()))
        eid = _as_int64(t["event_id"])
        return t.append_column("chunk", pa.array(eid >> chunk_bits))

    def drops(t: pa.Table) -> pa.Table:
        ck, sd = ray.get(seed_ref)
        eid = _as_int64(t["event_id"])
        ts = _as_int64(t["ts"])
        chunk = t["chunk"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, chunk))
        ts_s, ch_s = ts[order], chunk[order]
        seed = sd[np.searchsorted(ck, ch_s)]
        run = np.maximum(seed,
                         np.maximum.accumulate(
                             np.maximum(ts_s, seed)))
        # frontier BEFORE each event: shift within the partition and
        # re-seed at chunk starts (earlier rows of the same chunk
        # cannot be elsewhere: chunks are co-partitioned)
        prev = np.empty_like(run)
        prev[0] = seed[0]
        prev[1:] = run[:-1]
        new_chunk = np.ones(ch_s.size, dtype=bool)
        new_chunk[1:] = ch_s[1:] != ch_s[:-1]
        # at a chunk start inside the partition the running max of the
        # PREVIOUS co-resident chunk is still a valid earlier frontier
        # only if that chunk precedes this one; partition_by hashing
        # does not order chunks, so reset to the chunk seed there
        prev[new_chunk] = seed[new_chunk]
        late = prev - ts_s
        # one row per (delay, event): is it dropped at that delay?
        return pa.table({
            "delay_us": pa.array(np.repeat(delays, ts_s.size)),
            "dropped": pa.array((late[None, :] > delays[:, None])
                                .ravel().astype(np.int64)),
        })

    with_chunk = ds.map_batches(add_chunk, batch_format="pyarrow",
                                zero_copy_batch=True)
    agg = (combine_agg(partition_by(with_chunk, ["chunk"],
                                    fit_partitions(32), drops, empty),
                       ["delay_us"], lambda t: t,
                       [("dropped", "sum"), ("dropped", "count")],
                       named("delay_us", "n_dropped", "n_events"))
           .to_pandas().sort_values("delay_us"))
    nd = agg["n_dropped"].to_numpy(dtype=np.int64)
    ne = agg["n_events"].to_numpy(dtype=np.int64)
    return pa.table({
        "delay_us": pa.array(agg["delay_us"].to_numpy(
            dtype=np.int64)),
        "n_events": pa.array(ne),
        "n_dropped": pa.array(nd),
        "drop_ppm": pa.array(nd * 1_000_000 // ne),
    })


WATERMARK_CURVE_SQL = """
WITH e AS (
  SELECT CAST(epoch_us(ts) AS BIGINT) AS us,
         greatest(COALESCE(max(CAST(epoch_us(ts) AS BIGINT)) OVER (
           ORDER BY event_id
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
           -4611686018427387904), -4611686018427387904) AS frontier
  FROM events
), d(delay_us) AS (
  VALUES (0), (60000000), (300000000), (3600000000)
)
SELECT CAST(d.delay_us AS BIGINT) AS delay_us,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(CASE WHEN e.frontier - e.us > d.delay_us
                THEN 1 ELSE 0 END) AS BIGINT) AS n_dropped,
       CAST(sum(CASE WHEN e.frontier - e.us > d.delay_us
                THEN 1 ELSE 0 END) * 1000000 // count(*) AS BIGINT)
         AS drop_ppm
FROM e CROSS JOIN d GROUP BY 1 ORDER BY 1
"""


def metronome_bot_report(sf_dir: str, min_gaps: int = 5) -> pa.Table:
    """METRONOME-BOT SCREEN: users whose inter-event gaps are PERFECTLY
    regular (identical across >= min_gaps gaps) -- the cheapest strong
    bot signal in clickstream QA, exact because "zero variance" is
    simply min(gap) == max(gap) in integer microseconds (no squares,
    no overflow).

    Scale shape: user co-partition ordered kernel -> per-user integer
    gap moments -> one scalar fold.
    """
    from ..stages.partition import fit_partitions, partition_by

    ds = read_table(sf_dir, "events", ["event_id", "ts", "user_id"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": pc.cast(t["user_id"], pa.int64()),
            "ts": pa.array(_as_int64(t["ts"]), type=pa.int64()),
            "event_id": pc.cast(t["event_id"], pa.int64()),
        })

    empty = pa.table({c: pa.array([], type=pa.int64())
                      for c in ("n_users", "n_eligible", "n_bots",
                                "bot_events")})

    def kernel(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        ts = t["ts"].to_numpy(zero_copy_only=False)
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        u_s, t_s = uid[order], ts[order]
        n = u_s.size
        new = np.ones(n, dtype=bool)
        new[1:] = u_s[1:] != u_s[:-1]
        grp = np.cumsum(new) - 1
        n_users = int(grp[-1]) + 1 if n else 0
        same = ~new[1:]
        g = (t_s[1:] - t_s[:-1])
        gu = grp[1:]
        n_g = np.zeros(n_users, dtype=np.int64)
        g_min = np.full(n_users, np.iinfo(np.int64).max,
                        dtype=np.int64)
        g_max = np.full(n_users, np.iinfo(np.int64).min,
                        dtype=np.int64)
        np.add.at(n_g, gu[same], 1)
        np.minimum.at(g_min, gu[same], g[same])
        np.maximum.at(g_max, gu[same], g[same])
        eligible = n_g >= min_gaps
        bots = eligible & (g_min == g_max)
        ev_per_user = np.bincount(grp, minlength=n_users)
        return pa.table({
            "n_users": pa.array([n_users], type=pa.int64()),
            "n_eligible": pa.array([int(eligible.sum())],
                                   type=pa.int64()),
            "n_bots": pa.array([int(bots.sum())], type=pa.int64()),
            "bot_events": pa.array([int(ev_per_user[bots].sum())],
                                   type=pa.int64()),
        })

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    f = (partition_by(prepped, ["user_id"], fit_partitions(32),
                      kernel, empty).to_pandas())
    return pa.table({
        "n_users": pa.array([int(f["n_users"].sum())],
                            type=pa.int64()),
        "n_eligible": pa.array([int(f["n_eligible"].sum())],
                               type=pa.int64()),
        "n_bots": pa.array([int(f["n_bots"].sum())],
                           type=pa.int64()),
        "bot_events": pa.array([int(f["bot_events"].sum())],
                               type=pa.int64()),
    })


METRONOME_BOT_SQL = """
WITH e AS (
  SELECT user_id,
         CAST(epoch_us(ts) AS BIGINT)
           - lag(CAST(epoch_us(ts) AS BIGINT)) OVER (
               PARTITION BY user_id ORDER BY epoch_us(ts), event_id)
           AS gap
  FROM events
), pu AS (
  SELECT user_id,
         CAST(count(gap) AS BIGINT) AS n_g,
         CAST(min(gap) AS BIGINT) AS g_min,
         CAST(max(gap) AS BIGINT) AS g_max,
         CAST(count(*) AS BIGINT) AS n_ev
  FROM e GROUP BY 1
)
SELECT CAST(count(*) AS BIGINT) AS n_users,
       CAST(sum(CASE WHEN n_g >= 5 THEN 1 ELSE 0 END) AS BIGINT)
         AS n_eligible,
       CAST(sum(CASE WHEN n_g >= 5 AND g_min = g_max
                THEN 1 ELSE 0 END) AS BIGINT) AS n_bots,
       CAST(COALESCE(sum(CASE WHEN n_g >= 5 AND g_min = g_max
                THEN n_ev END), 0) AS BIGINT) AS bot_events
FROM pu
"""


def _user_days(t: pa.Table) -> pa.Table:
    """The distinct (user_id, epoch day) pairs of a batch of events."""
    return pa.table({
        "user_id": pc.cast(t["user_id"], pa.int64()),
        "day": pa.array(_as_int64(t["ts"]) // 86_400_000_000),
    }).group_by(["user_id", "day"]).aggregate([])


def trailing_distinct_users(sf_dir: str, window_days: int = 7) -> pa.Table:
    """EXACT trailing-``window_days`` distinct active users per day --
    the rolling-DAU/WAU curve computed exactly (the HLL query gives the
    approximate tier).  A user active on day d is "covered" on days
    d..d+6; the per-day distinct count is then the sum of a +-1 DIFF
    ARRAY over each user's MERGED coverage intervals, so the exchange
    carries O(days) integers per batch instead of user sets.

    Scale shape: user co-partition; per user, sort active days, merge
    overlapping coverage intervals vectorized, one +-1 row per interval
    edge; a ``combine_agg`` sums them per day and the driver
    prefix-sums O(days).
    """
    from ..stages.partition import fit_partitions, partition_by

    ds = read_table(sf_dir, "events", ["user_id", "ts"])
    DAY_US = np.int64(86_400_000_000)
    W = int(window_days)

    mm = (ds.map_batches(
        lambda t: pa.table({
            "lo": pa.array([int((_as_int64(t["ts"]) // DAY_US).min())],
                           type=pa.int64()),
            "hi": pa.array([int((_as_int64(t["ts"]) // DAY_US).max())],
                           type=pa.int64())}),
        batch_format="pyarrow").to_pandas())
    lo_day = int(mm["lo"].min())
    hi_day = int(mm["hi"].max())
    span = hi_day - lo_day + 1

    empty = pa.table({"day": pa.array([], type=pa.int64()),
                      "d": pa.array([], type=pa.int64())})

    def diffs(t: pa.Table) -> pa.Table:
        u = t["user_id"].to_numpy(zero_copy_only=False)
        d = t["day"].to_numpy(zero_copy_only=False)
        order = np.lexsort((d, u))
        u_s, d_s = u[order], d[order]
        # per-user distinct days (cross-block dupes possible)
        keep = np.ones(u_s.size, dtype=bool)
        keep[1:] = (u_s[1:] != u_s[:-1]) | (d_s[1:] != d_s[:-1])
        u_s, d_s = u_s[keep], d_s[keep]
        # coverage interval per active day: [d, d+W-1]; merge runs
        # where the next active day starts before the current cover
        # ends (same user)
        same = np.zeros(u_s.size, dtype=bool)
        same[1:] = (u_s[1:] == u_s[:-1]) & (d_s[1:] <= d_s[:-1] + W - 1)
        # interval starts: rows where not merged into the previous
        starts = np.flatnonzero(~same)
        ends_idx = np.append(starts[1:] - 1, u_s.size - 1)
        # one +1 row per interval start, one -1 row past its end (the
        # day index past the grid drops out)
        day = np.concatenate([
            np.clip(d_s[starts] - lo_day, 0, span),
            np.clip(d_s[ends_idx] + W - lo_day, 0, span)]).astype(np.int64)
        d = np.repeat(np.array([1, -1], dtype=np.int64), starts.size)
        return pa.table({"day": pa.array(day[day < span]),
                         "d": pa.array(d[day < span])})

    mem = ds.map_batches(_user_days, batch_format="pyarrow",
                         zero_copy_batch=True)
    agg = combine_agg(partition_by(mem, ["user_id"], fit_partitions(32),
                                   diffs, empty),
                      ["day"], lambda t: t, [("d", "sum")],
                      named("day", "d")).to_pandas()
    diff = np.zeros(span, dtype=np.int64)
    diff[agg["day"].to_numpy(dtype=np.int64)] = \
        agg["d"].to_numpy(dtype=np.int64)
    counts = np.cumsum(diff)
    return pa.table({
        "day": pa.array(np.arange(lo_day, hi_day + 1,
                                  dtype=np.int64)),
        "trailing_distinct": pa.array(counts),
    })


TRAILING_DISTINCT_SQL = """
WITH a AS (
  SELECT DISTINCT user_id,
         CAST(epoch_us(ts) AS BIGINT) // 86400000000 AS day
  FROM events
), b AS (SELECT min(day) AS lo, max(day) AS hi FROM a),
grid AS (
  SELECT unnest(generate_series(b.lo, b.hi)) AS day FROM b
)
SELECT CAST(grid.day AS BIGINT) AS day,
       CAST(count(DISTINCT a.user_id) AS BIGINT)
         AS trailing_distinct
FROM grid LEFT JOIN a
  ON a.day BETWEEN grid.day - 6 AND grid.day
GROUP BY 1 ORDER BY 1
"""


def late_order_counts(sf_dir: str, grace_days: int = 60) -> pa.Table:
    """LATE-ORDER CENSUS per priority (TPC-H Q4 shape adapted to this
    schema): orders having AT LEAST ONE lineitem shipped more than
    ``grace_days`` after the order date -- an EXISTS semi-join
    resolved by an order-key co-partition, counted per priority.

    Scale shape: orders collapse to (key, date, priority-code);
    lineitem to per-block (key, max shipdate) partials; one
    co-partition resolves the EXISTS vectorized.
    """
    from ..stages.partition import fit_partitions, partition_by

    GRACE_US = np.int64(grace_days) * 86_400_000_000
    orders = read_table(sf_dir, "orders",
                        ["o_orderkey", "o_orderdate", "o_orderpriority"])
    li = read_table(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])

    o_empty = pa.table({"key": pa.array([], type=pa.int64()),
                        "ts": pa.array([], type=pa.int64()),
                        "prio": pa.array([], type=pa.string()),
                        "side": pa.array([], type=pa.int64())})

    def o_prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "key": pc.cast(t["o_orderkey"], pa.int64()),
            "ts": pa.array(_as_int64(t["o_orderdate"]),
                           type=pa.int64()),
            "prio": t["o_orderpriority"],
            "side": pa.array(np.zeros(t.num_rows, dtype=np.int64)),
        })

    def li_prep(t: pa.Table) -> pa.Table:
        staged = pa.table({
            "key": pc.cast(t["l_orderkey"], pa.int64()),
            "ts": pa.array(_as_int64(t["l_shipdate"]),
                           type=pa.int64()),
        })
        g = staged.group_by("key").aggregate([("ts", "max")])
        n = g.num_rows
        return pa.table({"key": g["key"],
                         "ts": pc.cast(g["ts_max"], pa.int64()),
                         "prio": pa.array([""] * n, type=pa.string()),
                         "side": pa.array(np.ones(n,
                                                  dtype=np.int64))})

    both = (orders.map_batches(o_prep, batch_format="pyarrow",
                               zero_copy_batch=True)
            .union(li.map_batches(li_prep, batch_format="pyarrow",
                                  zero_copy_batch=True)))

    empty = pa.table({"prio": pa.array([], type=pa.string()),
                      "late": pa.array([], type=pa.int64())})

    def resolve(t: pa.Table) -> pa.Table:
        # one (priority, late) row per order
        key = t["key"].to_numpy(zero_copy_only=False)
        ts = t["ts"].to_numpy(zero_copy_only=False)
        side = t["side"].to_numpy(zero_copy_only=False)
        prio = np.asarray(t["prio"].to_pylist(), dtype=np.str_)
        ok_, ots, op = (key[side == 0], ts[side == 0],
                        prio[side == 0])
        lk, lts = key[side == 1], ts[side == 1]
        uk, inv = np.unique(lk, return_inverse=True)
        if uk.size and ok_.size:
            umax = np.full(uk.size, np.iinfo(np.int64).min,
                           dtype=np.int64)
            np.maximum.at(umax, inv, lts)
            pos = np.searchsorted(uk, ok_)
            safe = np.minimum(pos, uk.size - 1)
            has = (pos < uk.size) & (uk[safe] == ok_)
            late = has & (umax[safe] > ots + GRACE_US)
        else:
            late = np.zeros(ok_.size, dtype=bool)
        return pa.table({"prio": pa.array(op.tolist(), type=pa.string()),
                         "late": pa.array(late.astype(np.int64))})

    agg = (combine_agg(partition_by(both, ["key"], fit_partitions(16),
                                    resolve, empty),
                       ["prio"], lambda t: t,
                       [("late", "count"), ("late", "sum")],
                       named("prio", "n_orders", "n_late"))
           .to_pandas().sort_values("prio"))
    n = agg["n_orders"].to_numpy(dtype=np.int64)
    nl = agg["n_late"].to_numpy(dtype=np.int64)
    return pa.table({
        "o_orderpriority": pa.array(agg["prio"].tolist(),
                                    type=pa.string()),
        "n_orders": pa.array(n),
        "n_late": pa.array(nl),
        "late_ppm": pa.array(nl * 1_000_000 // n),
    })


LATE_ORDER_SQL = """
WITH lm AS (
  SELECT l_orderkey, max(epoch_us(l_shipdate)) AS mx
  FROM lineitem GROUP BY 1
)
SELECT o.o_orderpriority,
       CAST(count(*) AS BIGINT) AS n_orders,
       CAST(sum(CASE WHEN lm.mx > epoch_us(o.o_orderdate)
                          + 60 * 86400000000 THEN 1 ELSE 0 END)
            AS BIGINT) AS n_late,
       CAST(sum(CASE WHEN lm.mx > epoch_us(o.o_orderdate)
                          + 60 * 86400000000 THEN 1 ELSE 0 END)
            * 1000000 // count(*) AS BIGINT) AS late_ppm
FROM orders o LEFT JOIN lm ON lm.l_orderkey = o.o_orderkey
GROUP BY 1 ORDER BY 1
"""


def new_vs_returning_daily(sf_dir: str) -> pa.Table:
    """NEW vs RETURNING daily active users: per day, how many of the
    day's distinct actives are first-ever-seen vs repeat -- the
    growth-accounting split every DAU chart needs.

    Scale shape: user co-partition; per user the first active day is
    local to the partition, so each partition flags every distinct
    (user, day) new or returning; one O(days) ``combine_agg`` counts.
    """
    from ..stages.partition import fit_partitions, partition_by

    ds = read_table(sf_dir, "events", ["user_id", "ts"])

    empty = pa.table({"day": pa.array([], type=pa.int64()),
                      "new": pa.array([], type=pa.int64())})

    def split(t: pa.Table) -> pa.Table:
        u = t["user_id"].to_numpy(zero_copy_only=False)
        d = t["day"].to_numpy(zero_copy_only=False)
        order = np.lexsort((d, u))
        u_s, d_s = u[order], d[order]
        keep = np.ones(u_s.size, dtype=bool)
        keep[1:] = (u_s[1:] != u_s[:-1]) | (d_s[1:] != d_s[:-1])
        u_s, d_s = u_s[keep], d_s[keep]
        first = np.ones(u_s.size, dtype=bool)
        first[1:] = u_s[1:] != u_s[:-1]
        return pa.table({"day": pa.array(d_s.astype(np.int64)),
                         "new": pa.array(first.astype(np.int64))})

    mem = ds.map_batches(_user_days, batch_format="pyarrow",
                         zero_copy_batch=True)
    agg = (combine_agg(
        partition_by(mem, ["user_id"], fit_partitions(32), split, empty),
        ["day"], lambda t: t, [("new", "sum"), ("new", "count")],
        lambda t: pa.table({"day": t["day"], "n_new": t["new_sum"],
                            "n_returning": pc.subtract(t["new_count"],
                                                       t["new_sum"])}))
           .to_pandas().sort_values("day"))
    return pa.table({
        "day": pa.array(agg["day"].to_numpy(dtype=np.int64)),
        "n_new": pa.array(agg["n_new"].to_numpy(dtype=np.int64)),
        "n_returning": pa.array(
            agg["n_returning"].to_numpy(dtype=np.int64)),
    })


NEW_VS_RETURNING_SQL = """
WITH a AS (
  SELECT DISTINCT user_id,
         CAST(epoch_us(ts) AS BIGINT) // 86400000000 AS day
  FROM events
), f AS (
  SELECT user_id, min(day) AS first_day FROM a GROUP BY 1
)
SELECT CAST(a.day AS BIGINT) AS day,
       CAST(sum(CASE WHEN a.day = f.first_day THEN 1 ELSE 0 END)
            AS BIGINT) AS n_new,
       CAST(sum(CASE WHEN a.day > f.first_day THEN 1 ELSE 0 END)
            AS BIGINT) AS n_returning
FROM a JOIN f USING (user_id)
GROUP BY 1 ORDER BY 1
"""


def session_depth_survival(sf_dir: str, gap_minutes: int = 30,
                           max_depth: int = 10) -> pa.Table:
    """SESSION DEPTH SURVIVAL CURVE: P(session reaches >= k events)
    for k = 1..max_depth -- the engagement decay profile product teams
    read before funnel work, built on the same gap-based
    sessionization kernel (30-minute inactivity boundary).

    Scale shape: user co-partition, vectorized session splitting, one
    capped-depth row per session, O(max_depth) ``combine_agg`` count.
    """
    from ..stages.partition import fit_partitions, partition_by

    gap_us = int(gap_minutes) * 60 * 1_000_000
    ds = read_table(sf_dir, "events", ["user_id", "ts"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": pc.cast(t["user_id"], pa.int64()),
            "us": pc.cast(t["ts"], pa.int64()),
        })

    empty = pa.table({"depth": pa.array([], type=pa.int64())})

    def kernel(t: pa.Table) -> pa.Table:
        u = t["user_id"].to_numpy(zero_copy_only=False)
        us = t["us"].to_numpy(zero_copy_only=False)
        order = np.lexsort((us, u))
        u, us = u[order], us[order]
        new_session = np.ones(u.size, dtype=bool)
        new_session[1:] = (u[1:] != u[:-1]) | (us[1:] - us[:-1]
                                               > gap_us)
        starts = np.flatnonzero(new_session)
        lens = np.diff(np.append(starts, u.size))
        return pa.table({"depth": pa.array(
            np.minimum(lens, max_depth).astype(np.int64))})

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    agg = combine_agg(partition_by(prepped, ["user_id"], fit_partitions(32),
                                   kernel, empty),
                      ["depth"], lambda t: t, [("depth", "count")],
                      named("depth", "n")).to_pandas()
    cnt = np.zeros(max_depth + 1, dtype=np.int64)
    cnt[agg["depth"].to_numpy(dtype=np.int64)] = \
        agg["n"].to_numpy(dtype=np.int64)
    total = int(cnt.sum())
    # survival: sessions with CAPPED length >= k
    suffix = np.cumsum(cnt[::-1])[::-1]
    ks = np.arange(1, max_depth + 1, dtype=np.int64)
    return pa.table({
        "depth": pa.array(ks),
        "n_sessions_at_least": pa.array(suffix[1:].astype(np.int64)),
        "survival_ppm": pa.array(
            suffix[1:] * 1_000_000 // total),
    })


SESSION_DEPTH_SQL = """
WITH e AS (
  SELECT user_id, CAST(epoch_us(ts) AS BIGINT) AS us,
         CASE WHEN CAST(epoch_us(ts) AS BIGINT)
                   - lag(CAST(epoch_us(ts) AS BIGINT)) OVER (
                       PARTITION BY user_id ORDER BY epoch_us(ts))
                   > 1800000000
               OR lag(CAST(epoch_us(ts) AS BIGINT)) OVER (
                       PARTITION BY user_id ORDER BY epoch_us(ts))
                  IS NULL
              THEN 1 ELSE 0 END AS new_s
  FROM events
), s AS (
  SELECT user_id,
         sum(new_s) OVER (PARTITION BY user_id ORDER BY us
                          ROWS UNBOUNDED PRECEDING) AS sid
  FROM e
), ln AS (
  SELECT least(CAST(count(*) AS BIGINT), 10) AS d
  FROM s GROUP BY user_id, sid
), tot AS (SELECT CAST(count(*) AS BIGINT) AS t FROM ln),
ks AS (SELECT unnest(generate_series(1, 10)) AS depth)
SELECT CAST(ks.depth AS BIGINT) AS depth,
       CAST(count(*) FILTER (WHERE ln.d >= ks.depth) AS BIGINT)
         AS n_sessions_at_least,
       CAST(count(*) FILTER (WHERE ln.d >= ks.depth) * 1000000
            // tot.t AS BIGINT) AS survival_ppm
FROM ks CROSS JOIN ln CROSS JOIN tot
GROUP BY 1, tot.t ORDER BY 1
"""


def resurrected_users_daily(sf_dir: str,
                            dormant_days: int = 14) -> pa.Table:
    """RESURRECTED USERS per day: actives whose previous activity was
    at least ``dormant_days`` days earlier -- the third leg of growth
    accounting beside new and returning.

    Scale shape: user co-partition; per-user day gaps are local, so
    each partition flags every distinct (user, day) resurrected or not;
    O(days) ``combine_agg``.
    """
    from ..stages.partition import fit_partitions, partition_by

    ds = read_table(sf_dir, "events", ["user_id", "ts"])

    empty = pa.table({"day": pa.array([], type=pa.int64()),
                      "res": pa.array([], type=pa.int64())})

    def kernel(t: pa.Table) -> pa.Table:
        u = t["user_id"].to_numpy(zero_copy_only=False)
        d = t["day"].to_numpy(zero_copy_only=False)
        order = np.lexsort((d, u))
        u_s, d_s = u[order], d[order]
        keep = np.ones(u_s.size, dtype=bool)
        keep[1:] = (u_s[1:] != u_s[:-1]) | (d_s[1:] != d_s[:-1])
        u_s, d_s = u_s[keep], d_s[keep]
        res = np.zeros(u_s.size, dtype=np.int64)
        res[1:] = ((u_s[1:] == u_s[:-1])
                   & (d_s[1:] - d_s[:-1] >= dormant_days))
        return pa.table({"day": pa.array(d_s.astype(np.int64)),
                         "res": pa.array(res)})

    mem = ds.map_batches(_user_days, batch_format="pyarrow",
                         zero_copy_batch=True)
    agg = (combine_agg(partition_by(mem, ["user_id"], fit_partitions(32),
                                    kernel, empty),
                       ["day"], lambda t: t,
                       [("res", "sum"), ("res", "count")],
                       named("day", "n_resurrected", "n_active"))
           .to_pandas().sort_values("day"))
    return pa.table({
        "day": pa.array(agg["day"].to_numpy(dtype=np.int64)),
        "n_active": pa.array(agg["n_active"].to_numpy(
            dtype=np.int64)),
        "n_resurrected": pa.array(agg["n_resurrected"].to_numpy(
            dtype=np.int64)),
    })


RESURRECTED_SQL = """
WITH a AS (
  SELECT DISTINCT user_id,
         CAST(epoch_us(ts) AS BIGINT) // 86400000000 AS day
  FROM events
), w AS (
  SELECT user_id, day,
         lag(day) OVER (PARTITION BY user_id ORDER BY day) AS prev
  FROM a
)
SELECT CAST(day AS BIGINT) AS day,
       CAST(count(*) AS BIGINT) AS n_active,
       CAST(sum(CASE WHEN prev IS NOT NULL AND day - prev >= 14
                THEN 1 ELSE 0 END) AS BIGINT) AS n_resurrected
FROM w GROUP BY 1 ORDER BY 1
"""


def weekly_arpu(sf_dir: str) -> pa.Table:
    """WEEKLY ARPU: event-value revenue per distinct active user per
    epoch week, in exact micro units -- the normalized engagement
    number that survives user-count swings.

    Scale shape: one per-week cents ``combine_agg`` for revenue; for
    actives, one distinct (week, user) ``combine_agg`` and one count of
    its rows per week; O(weeks) fold.
    """
    ds = read_table(sf_dir, "events", ["user_id", "ts", "value"])
    WEEK_US = np.int64(7) * 86_400_000_000

    def weekly(t: pa.Table) -> pa.Table:
        v = t["value"].to_numpy(zero_copy_only=False)
        return pa.table({
            "week": pa.array(_as_int64(t["ts"]) // WEEK_US),
            "user_id": pc.cast(t["user_id"], pa.int64()),
            "rev": pa.array(np.floor(v * 100.0 + 0.5).astype(np.int64))})

    rev = combine_agg(ds, ["week"], weekly, [("rev", "sum")],
                      named("week", "rev")).to_pandas()
    week_users = combine_agg(ds, ["week", "user_id"], weekly,
                             [("user_id", "count")],
                             lambda t: t.select(["week", "user_id"]))
    users = combine_agg(week_users, ["week"], lambda t: t,
                        [("user_id", "count")],
                        named("week", "n")).to_pandas()
    merged = rev.merge(users, on="week", how="inner").sort_values(
        "week")
    r = merged["rev"].to_numpy(dtype=np.int64)
    n = merged["n"].to_numpy(dtype=np.int64)
    return pa.table({
        "week": pa.array(merged["week"].to_numpy(dtype=np.int64)),
        "rev_cents": pa.array(r),
        "n_users": pa.array(n),
        "arpu_micro": pa.array(
            r.astype(object) * 10_000 // n, type=pa.int64()),
    })


WEEKLY_ARPU_SQL = """
WITH r AS (
  SELECT CAST(epoch_us(ts) AS BIGINT) // 604800000000 AS week,
         CAST(sum(CAST(floor(value * 100.0 + 0.5) AS BIGINT))
              AS BIGINT) AS rev,
         CAST(count(DISTINCT user_id) AS BIGINT) AS n_users
  FROM events GROUP BY 1
)
SELECT CAST(week AS BIGINT) AS week, rev AS rev_cents, n_users,
       CAST(rev * 10000 // n_users AS BIGINT) AS arpu_micro
FROM r ORDER BY 1
"""


def trailing_top_user_hourly(sf_dir: str,
                             window_hours: int = 24) -> pa.Table:
    """SLIDING-WINDOW ARGMAX: for every hour with activity, the single
    top user by trailing-``window_hours`` event count (ties to the
    smaller user_id) -- the "current heaviest client" panel a streaming
    monitor keeps, computed batch-side.

    Scale shape: events fold per block to (user, hour, n) cells; one
    user co-partition expands each cell into the <= window_hours
    future hours it supports (vectorized, bounded 24x fan-out on the
    COMPACTED cells, not raw events), keeps only globally-observed
    hours (a broadcast sorted array, bounded by the time span), and
    emits one winner per (partition, hour); the final argmax folds
    partitions x hours rows driver-side."""
    from ..stages.partition import fit_partitions, partition_by

    HOUR_US = 3_600_000_000
    ds = read_table(sf_dir, "events", ["ts", "user_id"])

    def hcells(t: pa.Table) -> pa.Table:
        hr = _as_int64(t["ts"]) // HOUR_US
        uid = t["user_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        # composite via rank to stay in int64 regardless of ranges
        uu, ui = np.unique(uid, return_inverse=True)
        uh, hi = np.unique(hr, return_inverse=True)
        key = ui.astype(np.int64) * np.int64(uh.shape[0]) + hi
        uk, inv = np.unique(key, return_inverse=True)
        cnt = np.bincount(inv).astype(np.int64)
        return pa.table({
            "user_id": pa.array(uu[uk // uh.shape[0]]),
            "hour": pa.array(uh[uk % uh.shape[0]]),
            "n": pa.array(cnt)})

    cells = ds.map_batches(hcells, batch_format="pyarrow",
                           zero_copy_batch=True)

    # globally-observed hours: bounded by the corpus time span (one row
    # per hour ever active), safe to hold and broadcast
    hours_pd = combine_agg(
        ds, ["hour"],
        lambda t: pa.table({"hour": pa.array(_as_int64(t["ts"])
                                             // HOUR_US)}),
        [("hour", "count")], named("hour", "n")).to_pandas()
    hours = np.sort(hours_pd["hour"].to_numpy(dtype=np.int64))
    hours_ref = ray.put(hours)

    win_empty = pa.table({"hour": pa.array([], type=pa.int64()),
                          "user_id": pa.array([], type=pa.int64()),
                          "trailing_n": pa.array([], type=pa.int64())})

    def winners(t: pa.Table) -> pa.Table:
        obs = ray.get(hours_ref)
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        hr = t["hour"].to_numpy(zero_copy_only=False)
        n = t["n"].to_numpy(zero_copy_only=False)
        w = window_hours
        # each (u, h, n) supports window ends h .. h+w-1
        ends = (hr[:, None] + np.arange(w, dtype=np.int64)).ravel()
        usr = np.repeat(uid, w)
        wt = np.repeat(n, w)
        pos = np.searchsorted(obs, ends)
        safe = np.minimum(pos, obs.size - 1)
        keep = (pos < obs.size) & (obs[safe] == ends)
        ends, usr, wt = ends[keep], usr[keep], wt[keep]
        if ends.size == 0:
            return win_empty
        uu, ui = np.unique(usr, return_inverse=True)
        uh, hi = np.unique(ends, return_inverse=True)
        key = ui.astype(np.int64) * np.int64(uh.shape[0]) + hi
        uk, inv = np.unique(key, return_inverse=True)
        tot = np.zeros(uk.shape[0], dtype=np.int64)
        np.add.at(tot, inv, wt)
        ku = uu[uk // uh.shape[0]]
        kh = uh[uk % uh.shape[0]]
        order = np.lexsort((ku, -tot, kh))
        kh_s = kh[order]
        first = np.ones(kh_s.size, dtype=bool)
        first[1:] = kh_s[1:] != kh_s[:-1]
        sel = order[first]
        return pa.table({"hour": pa.array(kh[sel]),
                         "user_id": pa.array(ku[sel]),
                         "trailing_n": pa.array(tot[sel])})

    pre = partition_by(cells, ["user_id"], fit_partitions(16),
                       winners, win_empty).to_pandas()
    kh = pre["hour"].to_numpy(dtype=np.int64)
    ku = pre["user_id"].to_numpy(dtype=np.int64)
    kn = pre["trailing_n"].to_numpy(dtype=np.int64)
    order = np.lexsort((ku, -kn, kh))
    kh_s = kh[order]
    first = np.ones(kh_s.size, dtype=bool)
    first[1:] = kh_s[1:] != kh_s[:-1]
    sel = order[first]
    return pa.table({"hour": pa.array(kh[sel]),
                     "user_id": pa.array(ku[sel]),
                     "trailing_n": pa.array(kn[sel])})


TRAILING_TOP_USER_SQL = """
WITH e AS (SELECT CAST(epoch_us(ts) AS BIGINT) // 3600000000 AS hour,
                  user_id
           FROM events),
hrs AS (SELECT DISTINCT hour FROM e),
cnt AS (SELECT h.hour AS hour, e.user_id,
               CAST(count(*) AS BIGINT) AS n
        FROM hrs h JOIN e ON e.hour BETWEEN h.hour - 23 AND h.hour
        GROUP BY 1, 2),
best AS (SELECT hour, user_id, n,
                row_number() OVER (PARTITION BY hour
                                   ORDER BY n DESC, user_id ASC) AS rn
         FROM cnt)
SELECT hour, CAST(user_id AS BIGINT) AS user_id, n AS trailing_n
FROM best WHERE rn = 1
ORDER BY hour
"""


def debounced_event_counts(sf_dir: str,
                           gap_s: int = 300) -> pa.Table:
    """DEBOUNCE: per event_type, how many events survive after
    collapsing repeats -- an event is dropped when the SAME (user,
    type) fired within ``gap_s`` seconds before it (lag semantics) --
    the stream-cleaning pass that turns button-mashing and retry storms
    into one logical action.

    Scale shape: one user co-partition; inside it a single lexsort by
    (user, type, ts) and a vectorized lag-diff marks survivors; the
    shuffle output is the bounded per-type (kept, dropped) grid."""
    from ..stages.partition import fit_partitions, partition_by

    ds = read_table(sf_dir, "events", ["ts", "user_id", "event_type"])
    gap_us = int(gap_s) * 1_000_000

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": pc.cast(t["user_id"], pa.int64()),
            "event_type": t["event_type"],
            "us": pa.array(_as_int64(t["ts"]))})

    out_empty = pa.table({"event_type": pa.array([], type=pa.string()),
                          "dropped": pa.array([], type=pa.int64())})

    def kernel(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        et = t["event_type"].to_numpy(zero_copy_only=False)
        us = t["us"].to_numpy(zero_copy_only=False)
        ut, tr = np.unique(et, return_inverse=True)
        order = np.lexsort((us, tr, uid))
        u_s, t_s, us_s = uid[order], tr[order], us[order]
        same = np.zeros(order.size, dtype=bool)
        same[1:] = (u_s[1:] == u_s[:-1]) & (t_s[1:] == t_s[:-1])
        gap = np.empty(order.size, dtype=np.int64)
        gap[0] = gap_us + 1
        gap[1:] = us_s[1:] - us_s[:-1]
        dropped = same & (gap <= gap_us)
        return pa.table({
            "event_type": t["event_type"].take(pa.array(order)),
            "dropped": pa.array(dropped.astype(np.int64))})

    pre = partition_by(
        ds.map_batches(prep, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["user_id"], fit_partitions(16), kernel, out_empty)
    out = (combine_agg(pre, ["event_type"], lambda t: t,
                       [("dropped", "count"), ("dropped", "sum")],
                       lambda t: pa.table({
                           "event_type": t["event_type"],
                           "kept": pc.subtract(t["dropped_count"],
                                               t["dropped_sum"]),
                           "dropped": t["dropped_sum"]}))
           .to_pandas().sort_values("event_type")
           .reset_index(drop=True))
    return pa.table({
        "event_type": pa.array(out["event_type"], type=pa.string()),
        "kept": pa.array(out["kept"].to_numpy(dtype=np.int64)),
        "dropped": pa.array(out["dropped"].to_numpy(dtype=np.int64)),
    })


DEBOUNCE_SQL = """
WITH lagged AS (
  SELECT event_type,
         CAST(epoch_us(ts) AS BIGINT)
         - lag(CAST(epoch_us(ts) AS BIGINT))
             OVER (PARTITION BY user_id, event_type
                   ORDER BY epoch_us(ts)) AS gap_us
  FROM events
)
SELECT event_type,
       CAST(sum(CASE WHEN gap_us IS NULL OR gap_us > 300000000
                     THEN 1 ELSE 0 END) AS BIGINT) AS kept,
       CAST(sum(CASE WHEN gap_us IS NOT NULL AND gap_us <= 300000000
                     THEN 1 ELSE 0 END) AS BIGINT) AS dropped
FROM lagged
GROUP BY 1
ORDER BY 1
"""


def value_ohlc_hourly(sf_dir: str) -> pa.Table:
    """OHLC BARS: per hour, the open (value of the earliest event,
    event_id tiebreak), high, low, and close (latest event) of `value`
    in integer cents plus the tick count -- the argmin/argmax-by-time
    aggregate family (finance bars, sensor rollups) that plain
    Sum/Min/Max aggregates cannot express.

    Scale shape: each block folds to one candidate row per hour
    (open/close candidates + hi/lo/n); an hour co-partition resolves
    candidates with two lexsorts -- hours hash to one partition each,
    so the partition fold IS the final answer (no driver fold)."""
    from ..stages.partition import fit_partitions, partition_by

    HOUR_US = 3_600_000_000
    ds = read_table(sf_dir, "events", ["ts", "event_id", "value"])

    cand_empty = pa.table({
        "hour": pa.array([], type=pa.int64()),
        "o_ts": pa.array([], type=pa.int64()),
        "o_eid": pa.array([], type=pa.int64()),
        "open_cents": pa.array([], type=pa.int64()),
        "c_ts": pa.array([], type=pa.int64()),
        "c_eid": pa.array([], type=pa.int64()),
        "close_cents": pa.array([], type=pa.int64()),
        "high_cents": pa.array([], type=pa.int64()),
        "low_cents": pa.array([], type=pa.int64()),
        "n": pa.array([], type=pa.int64())})

    def _fold(hour, us, eid, cents):
        uh, inv = np.unique(hour, return_inverse=True)
        k = uh.shape[0]
        first = np.lexsort((eid, us, hour))
        hs = hour[first]
        new = np.ones(hs.size, dtype=bool)
        new[1:] = hs[1:] != hs[:-1]
        oi = first[new]
        last = np.lexsort((-eid, -us, hour))
        hs2 = hour[last]
        new2 = np.ones(hs2.size, dtype=bool)
        new2[1:] = hs2[1:] != hs2[:-1]
        ci = last[new2]
        hi = np.full(k, np.iinfo(np.int64).min, dtype=np.int64)
        lo = np.full(k, np.iinfo(np.int64).max, dtype=np.int64)
        n = np.zeros(k, dtype=np.int64)
        np.maximum.at(hi, inv, cents)
        np.minimum.at(lo, inv, cents)
        np.add.at(n, inv, 1)
        return pa.table({
            "hour": pa.array(uh),
            "o_ts": pa.array(us[oi]), "o_eid": pa.array(eid[oi]),
            "open_cents": pa.array(cents[oi]),
            "c_ts": pa.array(us[ci]), "c_eid": pa.array(eid[ci]),
            "close_cents": pa.array(cents[ci]),
            "high_cents": pa.array(hi), "low_cents": pa.array(lo),
            "n": pa.array(n)})

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return cand_empty
        us = _as_int64(t["ts"])
        cents = np.floor(t["value"].to_numpy(zero_copy_only=False)
                         * 100.0 + 0.5).astype(np.int64)
        eid = t["event_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        return _fold(us // HOUR_US, us, eid, cents)

    out_empty = pa.table({
        "hour": pa.array([], type=pa.int64()),
        "n": pa.array([], type=pa.int64()),
        "open_cents": pa.array([], type=pa.int64()),
        "high_cents": pa.array([], type=pa.int64()),
        "low_cents": pa.array([], type=pa.int64()),
        "close_cents": pa.array([], type=pa.int64())})

    def resolve(t: pa.Table) -> pa.Table:
        hour = t["hour"].to_numpy(zero_copy_only=False)
        uh, inv = np.unique(hour, return_inverse=True)
        k = uh.shape[0]
        o_order = np.lexsort((t["o_eid"].to_numpy(zero_copy_only=False),
                              t["o_ts"].to_numpy(zero_copy_only=False),
                              hour))
        hs = hour[o_order]
        new = np.ones(hs.size, dtype=bool)
        new[1:] = hs[1:] != hs[:-1]
        oi = o_order[new]
        c_order = np.lexsort(
            (-t["c_eid"].to_numpy(zero_copy_only=False),
             -t["c_ts"].to_numpy(zero_copy_only=False), hour))
        hs2 = hour[c_order]
        new2 = np.ones(hs2.size, dtype=bool)
        new2[1:] = hs2[1:] != hs2[:-1]
        ci = c_order[new2]
        hi = np.full(k, np.iinfo(np.int64).min, dtype=np.int64)
        lo = np.full(k, np.iinfo(np.int64).max, dtype=np.int64)
        n = np.zeros(k, dtype=np.int64)
        np.maximum.at(hi, inv,
                      t["high_cents"].to_numpy(zero_copy_only=False))
        np.minimum.at(lo, inv,
                      t["low_cents"].to_numpy(zero_copy_only=False))
        np.add.at(n, inv, t["n"].to_numpy(zero_copy_only=False))
        opens = t["open_cents"].to_numpy(zero_copy_only=False)[oi]
        closes = t["close_cents"].to_numpy(zero_copy_only=False)[ci]
        return pa.table({
            "hour": pa.array(uh), "n": pa.array(n),
            "open_cents": pa.array(opens),
            "high_cents": pa.array(hi),
            "low_cents": pa.array(lo),
            "close_cents": pa.array(closes)})

    pre = partition_by(
        ds.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["hour"], fit_partitions(16), resolve, out_empty).to_pandas()
    pre = pre.sort_values("hour").reset_index(drop=True)
    return pa.table({
        c: pa.array(pre[c].to_numpy(dtype=np.int64))
        for c in ["hour", "n", "open_cents", "high_cents",
                  "low_cents", "close_cents"]})


VALUE_OHLC_SQL = """
WITH e AS (
  SELECT CAST(epoch_us(ts) AS BIGINT) // 3600000000 AS hour,
         CAST(epoch_us(ts) AS BIGINT) AS tus, event_id,
         CAST(floor(value * 100.0 + 0.5) AS BIGINT) AS cents
  FROM events
), rk AS (
  SELECT hour, cents,
         row_number() OVER (PARTITION BY hour
                            ORDER BY tus, event_id) AS rn_o,
         row_number() OVER (PARTITION BY hour
                            ORDER BY tus DESC, event_id DESC) AS rn_c
  FROM e
), agg AS (
  SELECT hour, CAST(count(*) AS BIGINT) AS n,
         max(cents) AS high_cents, min(cents) AS low_cents
  FROM e GROUP BY 1
)
SELECT a.hour, a.n, o.cents AS open_cents, a.high_cents,
       a.low_cents, c.cents AS close_cents
FROM agg a
JOIN rk o ON o.hour = a.hour AND o.rn_o = 1
JOIN rk c ON c.hour = a.hour AND c.rn_c = 1
ORDER BY a.hour
"""


def theil_sen_trend_by_type(sf_dir: str) -> pa.Table:
    """THEIL-SEN robust trend per event type: the median of all
    pairwise slopes of the hourly revenue series -- the estimator
    that survives 29% outliers where OLS folds (Sen 1968, the
    standard robust trend in ops/monitoring).  Slopes are exact
    integers: floor(1e6 * (c_j - c_i) / (h_j - h_i)) micro-cents per
    hour via true floor division (sign-safe -((-n + d - 1) // d)
    mirrored in the SQL twin, because DuckDB's ``//`` truncates while
    numpy floors); the median is the quantile_disc lower-median rank
    ceil(n/2) - 1.

    Scale shape: one per-block (type, hour) cents combiner (shuffle
    rows = types x hours, cardinality-bounded), then a per-type
    map_groups pair kernel -- O(hours^2) work but distributed per
    group and never on the driver.  Micro-unit note: hourly cents x
    1e6 must fit int64, so series whose hourly totals exceed ~9e12
    cents need a coarser slope unit.
    """
    ds = read_table(sf_dir, "events", ["ts", "event_type", "value"])
    HOUR_US = np.int64(3_600_000_000)

    def hourly(t: pa.Table) -> pa.Table:
        us = _as_int64(t["ts"])
        v = t["value"].to_numpy(zero_copy_only=False)
        cents = np.floor(v * 100.0 + 0.5).astype(np.int64)
        staged = pa.table({"event_type": t["event_type"],
                           "hour": pa.array(us // HOUR_US),
                           "c": pa.array(cents)})
        g = staged.group_by(["event_type", "hour"]).aggregate(
            [("c", "sum")])
        return pa.table({"event_type": g["event_type"],
                         "hour": g["hour"],
                         "c": pc.cast(g["c_sum"], pa.int64())})

    def pair_kernel(group: pa.Table) -> pa.Table:
        # re-fold block partials to one row per hour, then all pairs
        g = group.group_by("hour").aggregate([("c", "sum")])
        hours = g["hour"].to_numpy(zero_copy_only=False).astype(np.int64)
        cents = g["c_sum"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(hours)
        hours, cents = hours[order], cents[order]
        i, j = np.triu_indices(hours.size, k=1)
        num = (cents[j] - cents[i]) * 1_000_000
        den = hours[j] - hours[i]
        slopes = np.floor_divide(num, den)
        slopes.sort()
        n = slopes.size
        med = int(slopes[int(np.ceil(0.5 * n)) - 1]) if n else 0
        return pa.table({
            "event_type": pa.array([group["event_type"][0].as_py()]),
            "n_hours": pa.array([hours.size], type=pa.int64()),
            "n_pairs": pa.array([n], type=pa.int64()),
            "slope_micro_med": pa.array([med], type=pa.int64()),
            "slope_micro_min": pa.array(
                [int(slopes[0]) if n else 0], type=pa.int64()),
            "slope_micro_max": pa.array(
                [int(slopes[-1]) if n else 0], type=pa.int64()),
        })

    out = (ds.map_batches(hourly, batch_format="pyarrow",
                          zero_copy_batch=True)
           .groupby("event_type")
           .map_groups(pair_kernel, batch_format="pyarrow")
           .to_pandas().sort_values("event_type"))
    return pa.table({
        "event_type": pa.array(out["event_type"], type=pa.string()),
        "n_hours": pa.array(out["n_hours"].to_numpy(dtype=np.int64)),
        "n_pairs": pa.array(out["n_pairs"].to_numpy(dtype=np.int64)),
        "slope_micro_med": pa.array(
            out["slope_micro_med"].to_numpy(dtype=np.int64)),
        "slope_micro_min": pa.array(
            out["slope_micro_min"].to_numpy(dtype=np.int64)),
        "slope_micro_max": pa.array(
            out["slope_micro_max"].to_numpy(dtype=np.int64)),
    })


THEIL_SEN_SQL = """
WITH h AS (
  SELECT event_type,
         CAST(epoch_us(ts) AS BIGINT) // 3600000000 AS hour,
         CAST(sum(CAST(floor(value * 100.0 + 0.5) AS BIGINT))
              AS BIGINT) AS c
  FROM events GROUP BY 1, 2
), p AS (
  SELECT a.event_type AS event_type,
         (b.c - a.c) * 1000000 AS num, (b.hour - a.hour) AS den
  FROM h a JOIN h b ON b.event_type = a.event_type
                   AND b.hour > a.hour
), s AS (
  SELECT event_type,
         CASE WHEN num >= 0 THEN num // den
              ELSE -((-num + den - 1) // den) END AS slope
  FROM p
), nh AS (
  SELECT event_type, CAST(count(*) AS BIGINT) AS n_hours
  FROM h GROUP BY 1
)
SELECT s.event_type, nh.n_hours,
       CAST(count(*) AS BIGINT) AS n_pairs,
       CAST(quantile_disc(s.slope, 0.5) AS BIGINT) AS slope_micro_med,
       CAST(min(s.slope) AS BIGINT) AS slope_micro_min,
       CAST(max(s.slope) AS BIGINT) AS slope_micro_max
FROM s JOIN nh ON nh.event_type = s.event_type
GROUP BY 1, 2 ORDER BY 1
"""


def km_user_survival(sf_dir: str, censor_hours: int = 72) -> pa.Table:
    """KAPLAN-MEIER product-limit survival of user lifetime with
    RIGHT-CENSORING (Kaplan & Meier 1958) -- the estimator behind
    every churn/retention curve that is honest about still-active
    users.  Lifetime = hours between a user's first and last event;
    a user whose last event is within ``censor_hours`` of the global
    stream end may still be alive, so they are censored (they count
    in every risk set up to their time but are never a death).  The
    curve is carried as the CUMULATIVE per-term-floored log:
    log_surv_micro(t) = sum_{s<=t, deaths} floor(ln((n_s-d_s)/n_s)
    * 1e6) -- no float product is ever formed, mirroring the SQL
    twin term by term.  If a risk set is wiped out (n == d) the term
    is 0 and ``surv_zero`` flags the curve as 0 from there on.

    Scale shape: per-user first/last via one user ``combine_agg``
    min/max; lifetimes are then counted by a second ``combine_agg`` into
    O(distinct hours x 2) rows before anything reaches the driver --
    users never do.
    """
    ds = read_table(sf_dir, "events", ["ts", "user_id"])
    HOUR_US = np.int64(3_600_000_000)
    CENSOR_US = np.int64(censor_hours) * HOUR_US

    # materialized once: O(users) rows, block-level in the object
    # store (the max() consume would otherwise re-execute the grouping
    # for the downstream count pass)
    spans = combine_agg(ds, ["user_id"],
                        lambda t: pa.table({
                            "user_id": t["user_id"],
                            "us": pa.array(_as_int64(t["ts"]))}),
                        [("us", "min"), ("us", "max")],
                        named("user_id", "f", "l")).materialize()
    gmax = int(spans.max("l"))

    def lifetimes(t: pa.Table) -> pa.Table:
        f = t["f"].to_numpy(zero_copy_only=False).astype(np.int64)
        l = t["l"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"t": pa.array((l - f) // HOUR_US),
                         "obs": pa.array((gmax - l >= CENSOR_US)
                                         .astype(np.int64))})

    counts = combine_agg(spans, ["t", "obs"], lifetimes, [("t", "count")],
                         named("t", "obs", "ct")).to_pandas()
    # driver fold over O(distinct lifetimes x 2) rows only
    counts = counts.sort_values(["t", "obs"])
    times = counts["t"].to_numpy(dtype=np.int64)
    obs = counts["obs"].to_numpy(dtype=np.int64)
    ct = counts["ct"].to_numpy(dtype=np.int64)
    total = int(ct.sum())
    uniq = np.unique(times)
    at_t = np.zeros(uniq.size, dtype=np.int64)       # all exits at t
    d_t = np.zeros(uniq.size, dtype=np.int64)        # deaths at t
    pos = np.searchsorted(uniq, times)
    np.add.at(at_t, pos, ct)
    np.add.at(d_t, pos, ct * obs)
    before = np.concatenate(([0], np.cumsum(at_t)[:-1]))
    n_risk = total - before
    mask = d_t > 0
    t_out = uniq[mask]
    n_out, d_out = n_risk[mask], d_t[mask]
    alive = n_out - d_out
    terms = np.zeros(t_out.size, dtype=np.int64)
    ok = alive > 0
    terms[ok] = np.floor(np.log(alive[ok].astype(np.float64)
                                / n_out.astype(np.float64)[ok])
                         * 1_000_000.0).astype(np.int64)
    zero = np.maximum.accumulate((alive == 0).astype(np.int64))
    return pa.table({
        "t_hours": pa.array(t_out),
        "n_risk": pa.array(n_out),
        "n_event": pa.array(d_out),
        "log_surv_micro": pa.array(np.cumsum(terms)),
        "surv_zero": pa.array(zero),
    })


KM_SURVIVAL_SQL = """
WITH u AS (
  SELECT user_id, CAST(min(epoch_us(ts)) AS BIGINT) AS f,
         CAST(max(epoch_us(ts)) AS BIGINT) AS l
  FROM events GROUP BY 1
), g AS (SELECT max(l) AS gmax FROM u),
lt AS (
  SELECT (u.l - u.f) // 3600000000 AS t,
         CASE WHEN g.gmax - u.l >= {censor_hours} * 3600000000
              THEN 1 ELSE 0 END AS obs
  FROM u, g
), c AS (
  SELECT t, CAST(count(*) AS BIGINT) AS at_t,
         CAST(sum(obs) AS BIGINT) AS d
  FROM lt GROUP BY 1
), tot AS (SELECT CAST(count(*) AS BIGINT) AS n FROM lt),
r AS (
  SELECT c.t, c.d,
         tot.n - (sum(c.at_t) OVER (ORDER BY c.t
                  ROWS UNBOUNDED PRECEDING) - c.at_t) AS n_risk
  FROM c, tot
), terms AS (
  SELECT t, n_risk, d,
         CASE WHEN n_risk > d
              THEN CAST(floor(ln(CAST(n_risk - d AS DOUBLE)
                                 / CAST(n_risk AS DOUBLE))
                              * 1000000.0) AS BIGINT)
              ELSE 0 END AS term,
         CASE WHEN n_risk = d THEN 1 ELSE 0 END AS z
  FROM r WHERE d > 0
)
SELECT t AS t_hours, CAST(n_risk AS BIGINT) AS n_risk,
       CAST(d AS BIGINT) AS n_event,
       CAST(sum(term) OVER (ORDER BY t ROWS UNBOUNDED PRECEDING)
            AS BIGINT) AS log_surv_micro,
       CAST(max(z) OVER (ORDER BY t ROWS UNBOUNDED PRECEDING)
            AS BIGINT) AS surv_zero
FROM terms ORDER BY t
"""


def acf_hourly_revenue(sf_dir: str, max_lag: int = 6) -> pa.Table:
    """AUTOCORRELATION FUNCTION of the hourly revenue series at lags
    1..max_lag -- the seasonality / burstiness fingerprint (a daily
    cycle shows as a hump at lag 24; white noise dies at lag 1).
    Hash-exact: the hourly series is integer cents on a dense grid
    (missing hours are true zeros), and r_k is computed from the
    cross-multiplied INTEGER identity
      num_k*n^2 = n^2*C_k - n*S*(H_k+T_k) + (n-k)*S^2,
      den*n^2   = n^2*Q - n*S^2
    (C_k = sum x_t*x_{t+k}, H/T = head/tail sums, Q = sum x^2)
    carried as arbitrary-precision ints on the driver and HUGEINT in
    the SQL twin; acf_ppm = floor(num*1e6 / den) with sign-safe floor
    division.

    Scale shape: one per-hour cents ``combine_agg``
    (cardinality-bounded), then an O(lags x hours) driver fold over
    exact integers.
    """
    grid = _hourly_cents(sf_dir)
    x = [int(v) for v in grid]              # exact big ints
    n = len(x)
    S = sum(x)
    Q = sum(v * v for v in x)
    den = n * n * Q - n * S * S
    lags, ppm = [], []
    for k in range(1, max_lag + 1):
        head, tail = x[:n - k], x[k:]
        C = sum(a * b for a, b in zip(head, tail))
        num = (n * n * C - n * S * (sum(head) + sum(tail))
               + (n - k) * S * S) * 1_000_000
        lags.append(k)
        ppm.append(num // den)              # Python // floors
    return pa.table({
        "lag": pa.array(lags, type=pa.int64()),
        "n_hours": pa.array([n] * len(lags), type=pa.int64()),
        "acf_ppm": pa.array(ppm, type=pa.int64()),
    })


ACF_HOURLY_SQL = """
WITH h AS (
  SELECT CAST(epoch_us(ts) AS BIGINT) // 3600000000 AS hour,
         CAST(sum(CAST(floor(value * 100.0 + 0.5) AS BIGINT))
              AS BIGINT) AS c
  FROM events GROUP BY 1
), b AS (SELECT min(hour) AS lo, max(hour) AS hi FROM h),
grid AS (
  SELECT g.hour, CAST(COALESCE(h.c, 0) AS BIGINT) AS v
  FROM (SELECT unnest(generate_series(b.lo, b.hi)) AS hour FROM b) g
  LEFT JOIN h ON h.hour = g.hour
), tot AS (
  SELECT CAST(count(*) AS HUGEINT) AS n,
         CAST(sum(v) AS HUGEINT) AS s,
         CAST(sum(CAST(v AS HUGEINT) * v) AS HUGEINT) AS q
  FROM grid
), lags(k) AS (VALUES (1), (2), (3), (4), (5), (6)),
cr AS (
  SELECT l.k AS k,
         CAST(sum(CAST(a.v AS HUGEINT) * b2.v) AS HUGEINT) AS c,
         CAST(sum(a.v) AS HUGEINT) AS hd,
         CAST(sum(b2.v) AS HUGEINT) AS tl
  FROM lags l
  JOIN grid a ON TRUE
  JOIN grid b2 ON b2.hour = a.hour + l.k
  GROUP BY 1
), f AS (
  SELECT cr.k,
         (t.n * t.n * cr.c - t.n * t.s * (cr.hd + cr.tl)
          + (t.n - cr.k) * t.s * t.s) * 1000000 AS num,
         (t.n * t.n * t.q - t.n * t.s * t.s) AS den,
         t.n AS n
  FROM cr, tot t
)
SELECT CAST(k AS BIGINT) AS lag, CAST(n AS BIGINT) AS n_hours,
       CAST(CASE WHEN num >= 0 THEN num // den
                 ELSE -((-num + den - 1) // den) END AS BIGINT)
         AS acf_ppm
FROM f ORDER BY 1
"""


def events_nearest_order(sf_dir: str) -> pa.Table:
    """NEAREST-timestamp join: align every event with that user's
    closest order in EITHER direction (min |order_ts - event_ts|;
    exact-distance tie prefers the order at-or-before) -- the
    feature-alignment variant neither backward nor forward as-of can
    express, e.g. "which order is this event really about".  Rolls up
    per event_type: matched events, how many matched FORWARD (the
    order is strictly after the event), and the total absolute gap in
    integer MILLIseconds (per-row floor us//1000 -- microsecond sums
    overflow int64 at scale; the oracle floors identically).

    Scale shape: same single co-partition exchange as the other as-of
    queries -- the nearest kernel reads both neighbors from one
    searchsorted pass, so direction costs nothing extra;
    ``combine_agg`` folds each joined batch to O(event types) rows.
    """
    events = read_table(sf_dir, "events", ["ts", "user_id", "event_type"])
    orders = read_table(sf_dir, "orders",
                        ["o_custkey", "o_orderdate", "o_orderkey"])

    joined = asof_join(
        events, orders, left_on="user_id", right_on="o_custkey",
        left_ts="ts", right_ts="o_orderdate",
        left_cols=["ts", "event_type"],
        right_cols=["o_orderdate", "o_orderkey"],
        right_tiebreak="o_orderkey", direction="nearest")

    def matched(t: pa.Table) -> pa.Table:
        t = t.filter(t["_matched"])
        ets = _as_int64(t["ts"])
        ots = _as_int64(t["o_orderdate"])
        return pa.table({"event_type": t["event_type"],
                         "after": pa.array((ots > ets).astype(np.int64)),
                         "gap": pa.array(np.abs(ets - ots) // 1000)})

    agg = (combine_agg(joined, ["event_type"], matched,
                       [("gap", "count"), ("after", "sum"),
                        ("gap", "sum")],
                       named("event_type", "n", "n_after",
                             "sum_abs_gap_ms"))
           .to_pandas().sort_values("event_type").reset_index(drop=True))
    return pa.table({
        "event_type": pa.array(agg["event_type"], type=pa.string()),
        "n": pa.array(agg["n"].astype("int64")),
        "n_after": pa.array(agg["n_after"].astype("int64")),
        "sum_abs_gap_ms": pa.array(agg["sum_abs_gap_ms"].astype("int64")),
    })


EVENTS_NEAREST_ORDER_SQL = """
WITH ranked AS (
  SELECT o_custkey, o_orderdate, o_orderkey,
         row_number() OVER (PARTITION BY o_custkey, o_orderdate
                            ORDER BY o_orderkey DESC) AS rn
  FROM orders
), uniq AS (
  SELECT * FROM ranked WHERE rn = 1
), ev AS (
  SELECT user_id, ts, event_type, CAST(count(*) AS BIGINT) AS cnt
  FROM events GROUP BY 1, 2, 3
), cand AS (
  SELECT ev.event_type, ev.cnt,
         abs(date_diff('microsecond', o.o_orderdate, ev.ts)) // 1000
           AS agap,
         CASE WHEN o.o_orderdate > ev.ts THEN 1 ELSE 0 END AS aft,
         row_number() OVER (
           PARTITION BY ev.user_id, ev.ts, ev.event_type
           ORDER BY abs(date_diff('microsecond', o.o_orderdate, ev.ts)),
                    CASE WHEN o.o_orderdate > ev.ts THEN 1 ELSE 0 END
         ) AS rn
  FROM ev JOIN uniq o ON o.o_custkey = ev.user_id
)
SELECT event_type,
       CAST(sum(cnt) AS BIGINT) AS n,
       CAST(sum(cnt * aft) AS BIGINT) AS n_after,
       CAST(sum(cnt * agap) AS BIGINT) AS sum_abs_gap_ms
FROM cand WHERE rn = 1
GROUP BY 1 ORDER BY 1
"""


def scd2_snapshot_counts(sf_dir: str) -> pa.Table:
    """POINT-IN-TIME query over the SCD2 history: how many users were
    in each state at the stream's midpoint instant T = (min_ts +
    max_ts) // 2 (exact integer microseconds) -- the "state of the
    world as of T" read that is the whole purpose of building validity
    intervals.  A user is in state s at T iff the run covering T is s
    (valid_from <= T and (open run or valid_to > T)).

    Dataflow: composes scd2_state_history (already O(state changes),
    streamed) with one filtered ``combine_agg`` count; two scalar ts
    aggregates fix T deterministically on both sides.
    """
    from ray.data.aggregate import Max, Min

    tsds = read_table(sf_dir, "events", ["ts"])
    agg = tsds.aggregate(Min("ts"), Max("ts"))
    mn = int(pa.scalar(agg["min(ts)"]).cast(pa.timestamp("us"))
             .cast(pa.int64()).as_py())
    mx = int(pa.scalar(agg["max(ts)"]).cast(pa.timestamp("us"))
             .cast(pa.int64()).as_py())
    t_us = (mn + mx) // 2

    hist = scd2_state_history(sf_dir)

    def at_t(t: pa.Table) -> pa.Table:
        vf = t["valid_from_us"].to_numpy(zero_copy_only=False)
        vt = t["valid_to_us"].to_numpy(zero_copy_only=False)
        live = (vf <= t_us) & ((vt == -1) | (vt > t_us))
        return pa.table({"state": pc.cast(t["state"], pa.string())
                         .filter(pa.array(live))})

    out = (combine_agg(hist, ["state"], at_t, [("state", "count")],
                       named("state", "n_users"))
           .to_pandas().sort_values("state").reset_index(drop=True))
    return pa.table({
        "state": pa.array(out["state"], type=pa.string()),
        "n_users": pa.array(out["n_users"].astype("int64")),
    })


SCD2_SNAPSHOT_SQL = """
WITH v AS (
  SELECT user_id, event_id, event_type,
         CAST(epoch_us(ts) AS BIGINT) AS ts_us
  FROM events
), cutoff AS (
  SELECT (min(ts_us) + max(ts_us)) // 2 AS t FROM v
), marked AS (
  SELECT user_id, event_id, event_type, ts_us,
         CASE WHEN lag(event_type) OVER w IS NULL
                OR lag(event_type) OVER w <> event_type
              THEN 1 ELSE 0 END AS chg
  FROM v WINDOW w AS (PARTITION BY user_id ORDER BY ts_us, event_id)
), grp AS (
  SELECT user_id, event_type, ts_us,
         sum(chg) OVER (PARTITION BY user_id ORDER BY ts_us, event_id
                        ROWS UNBOUNDED PRECEDING) AS seg
  FROM marked
), segs AS (
  SELECT user_id, seg, min(event_type) AS state,
         min(ts_us) AS valid_from_us,
         CAST(count(*) AS BIGINT) AS n_events
  FROM grp GROUP BY 1, 2
), hist AS (
  SELECT user_id, state, valid_from_us,
         coalesce(lead(valid_from_us) OVER (PARTITION BY user_id
                                            ORDER BY seg), -1)
           AS valid_to_us
  FROM segs
)
SELECT state, CAST(count(*) AS BIGINT) AS n_users
FROM hist CROSS JOIN cutoff
WHERE valid_from_us <= cutoff.t
  AND (valid_to_us = -1 OR valid_to_us > cutoff.t)
GROUP BY 1 ORDER BY 1
"""
