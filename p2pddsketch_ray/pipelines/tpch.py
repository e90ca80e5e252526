"""TPC-H-shaped reporting pipelines (Q4/Q12/Q14/Q18/Q19 shapes).

Complements the Q1/Q3/Q6/Q10 shapes in ``relational.py``: each query
here exercises a distinct distributed-join/aggregation pattern --
EXISTS semi-join (Q4), join + conditional counts (Q12), broadcast-dim
conditional share (Q14), HAVING-filtered join-back (Q18), disjunctive
bracket predicates pushed into a broadcast lookup (Q19) -- re-expressed
Ray-Data-first over the driver testdata (which lacks l_shipmode /
l_commitdate / p_container, so the predicates are adapted to the
columns that exist while keeping each query's canonical plan shape).

All money math is exact integer cents (per-row floor(x*100+0.5) is
bit-identical between numpy and DuckDB; int64 sums are
order-independent), so every query is value-hash comparable to its SQL
twin.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..sources.tables import read_table as _read
from ..stages.combine import combine_agg, named
from ..stages.partition import fit_partitions, partition_by
from ..stages.sketch_build import collect


def _cents(col) -> np.ndarray:
    x = col.to_numpy(zero_copy_only=False)
    return np.floor(x * 100.0 + 0.5).astype(np.int64)


# ---------------------------------------------------------------------------
# Q4 shape: EXISTS semi-join + grouped count
# ---------------------------------------------------------------------------

def tpch_q4_priority_counts(sf_dir: str, date_lo: str = "1997-07-01",
                            date_hi: str = "1997-10-01") -> pa.Table:
    """TPC-H Q4 shape (order priority checking): count orders per
    priority placed in one quarter that have at least one returned
    lineitem (EXISTS semi-join; the testdata has no
    l_commitdate/l_receiptdate, so `l_returnflag = 'R'` stands in for
    the late-delivery predicate -- same plan shape).

    Scale shape: lineitem collapses per block to distinct qualifying
    orderkeys (no payload), orders stream with the date filter pushed
    down; both sides co-partition on orderkey and the semi-join is one
    vectorized membership probe per partition; output is the bounded
    5-row priority census.
    """
    lo_us = int(np.datetime64(date_lo, "us").astype(np.int64))
    hi_us = int(np.datetime64(date_hi, "us").astype(np.int64))

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderdate", "o_orderpriority"])
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_returnflag"])

    def o_prep(t: pa.Table) -> pa.Table:
        us = pc.cast(t["o_orderdate"], pa.int64()).to_numpy(
            zero_copy_only=False)
        keep = (us >= lo_us) & (us < hi_us)
        t = t.filter(pa.array(keep))
        n = t.num_rows
        return pa.table({"key": pc.cast(t["o_orderkey"], pa.int64()),
                         "side": pa.array(np.zeros(n, dtype=np.int64)),
                         "prio": t["o_orderpriority"]})

    def l_prep(t: pa.Table) -> pa.Table:
        keep = pc.equal(t["l_returnflag"], pa.scalar("R"))
        k = np.unique(t.filter(keep)["l_orderkey"].to_numpy(
            zero_copy_only=False).astype(np.int64))
        return pa.table({"key": pa.array(k),
                         "side": pa.array(np.ones(k.size,
                                                  dtype=np.int64)),
                         "prio": pa.array([""] * k.size,
                                          type=pa.string())})

    both = (orders.map_batches(o_prep, batch_format="pyarrow",
                               zero_copy_batch=True)
            .union(li.map_batches(l_prep, batch_format="pyarrow",
                                  zero_copy_batch=True)))

    part_empty = pa.table({"o_orderpriority": pa.array([],
                                                       type=pa.string())})

    def resolve(t: pa.Table) -> pa.Table:
        side = t["side"].to_numpy(zero_copy_only=False)
        key = t["key"].to_numpy(zero_copy_only=False)
        rkeys = np.unique(key[side == 1])
        omask = side == 0
        ok, oprio = key[omask], t["prio"].to_numpy(
            zero_copy_only=False)[omask]
        if ok.size == 0 or rkeys.size == 0:
            return part_empty
        pos = np.searchsorted(rkeys, ok)
        safe = np.minimum(pos, rkeys.size - 1)
        has = (pos < rkeys.size) & (rkeys[safe] == ok)
        return pa.table({"o_orderpriority": pa.array(
            oprio[has].astype(object), type=pa.string())})

    pre = partition_by(both, ["key"], fit_partitions(16), resolve,
                       part_empty)
    out = (combine_agg(pre, ["o_orderpriority"], lambda t: t,
                       [("o_orderpriority", "count")],
                       named("o_orderpriority", "order_count"))
           .to_pandas().sort_values("o_orderpriority"))
    return pa.table({
        "o_orderpriority": pa.array(out["o_orderpriority"].to_numpy(
            dtype=object), type=pa.string()),
        "order_count": pa.array(out["order_count"].to_numpy(
            dtype=np.int64)),
    })


TPCH_Q4_SQL = """
SELECT o.o_orderpriority,
       CAST(count(*) AS BIGINT) AS order_count
FROM orders o
WHERE o.o_orderdate >= TIMESTAMP '1997-07-01'
  AND o.o_orderdate < TIMESTAMP '1997-10-01'
  AND EXISTS (SELECT 1 FROM lineitem l
              WHERE l.l_orderkey = o.o_orderkey
                AND l.l_returnflag = 'R')
GROUP BY 1
ORDER BY 1
"""


# ---------------------------------------------------------------------------
# Q12 shape: join + conditional counts
# ---------------------------------------------------------------------------

def tpch_q12_priority_by_status(sf_dir: str,
                                year: int = 1997) -> pa.Table:
    """TPC-H Q12 shape (shipping-mode priority split): for lineitems
    shipped in one year, per l_linestatus (stand-in for the missing
    l_shipmode), how many belong to high-priority orders (1-URGENT /
    2-HIGH) vs low-priority ones.

    Scale shape: orders collapse to (orderkey, is_high) bit pairs;
    lineitems filter on the ship-year and carry only (orderkey,
    status); co-partition on orderkey, one vectorized lookup per
    partition, bounded (status x 2) partial counts.
    """
    lo_us = int(np.datetime64(f"{year}-01-01", "us").astype(np.int64))
    hi_us = int(np.datetime64(f"{year + 1}-01-01", "us")
                .astype(np.int64))

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_linestatus", "l_shipdate"])

    def o_prep(t: pa.Table) -> pa.Table:
        prio = t["o_orderpriority"]
        hi = pc.or_(pc.equal(prio, pa.scalar("1-URGENT")),
                    pc.equal(prio, pa.scalar("2-HIGH")))
        n = t.num_rows
        return pa.table({"key": pc.cast(t["o_orderkey"], pa.int64()),
                         "side": pa.array(np.zeros(n, dtype=np.int64)),
                         "hi": pc.cast(hi, pa.int64()),
                         "status": pa.array([""] * n,
                                            type=pa.string())})

    def l_prep(t: pa.Table) -> pa.Table:
        us = pc.cast(t["l_shipdate"], pa.int64()).to_numpy(
            zero_copy_only=False)
        t = t.filter(pa.array((us >= lo_us) & (us < hi_us)))
        n = t.num_rows
        return pa.table({"key": pc.cast(t["l_orderkey"], pa.int64()),
                         "side": pa.array(np.ones(n, dtype=np.int64)),
                         "hi": pa.array(np.zeros(n, dtype=np.int64)),
                         "status": t["l_linestatus"]})

    both = (orders.map_batches(o_prep, batch_format="pyarrow",
                               zero_copy_batch=True)
            .union(li.map_batches(l_prep, batch_format="pyarrow",
                                  zero_copy_batch=True)))

    part_empty = pa.table({"l_linestatus": pa.array([],
                                                    type=pa.string()),
                           "hl": pa.array([], type=pa.int64()),
                           "ll": pa.array([], type=pa.int64())})

    def resolve(t: pa.Table) -> pa.Table:
        side = t["side"].to_numpy(zero_copy_only=False)
        key = t["key"].to_numpy(zero_copy_only=False)
        om = side == 0
        ok = key[om]
        ohi = t["hi"].to_numpy(zero_copy_only=False)[om]
        order = np.argsort(ok, kind="stable")
        ok, ohi = ok[order], ohi[order]
        lm = side == 1
        lk = key[lm]
        lstat = t["status"].to_numpy(zero_copy_only=False)[lm]
        if lk.size == 0 or ok.size == 0:
            return part_empty
        pos = np.searchsorted(ok, lk)
        safe = np.minimum(pos, ok.size - 1)
        has = (pos < ok.size) & (ok[safe] == lk)
        hi = ohi[safe[has]]
        return pa.table({
            "l_linestatus": pa.array(lstat[has].astype(object),
                                     type=pa.string()),
            "hl": pa.array(hi.astype(np.int64)),
            "ll": pa.array((1 - hi).astype(np.int64))})

    pre = partition_by(both, ["key"], fit_partitions(16), resolve,
                       part_empty)
    out = (combine_agg(pre, ["l_linestatus"], lambda t: t,
                       [("hl", "sum"), ("ll", "sum")],
                       named("l_linestatus", "high_line_count",
                             "low_line_count"))
           .to_pandas().sort_values("l_linestatus"))
    return pa.table({
        "l_linestatus": pa.array(out["l_linestatus"].to_numpy(
            dtype=object), type=pa.string()),
        "high_line_count": pa.array(
            out["high_line_count"].to_numpy(dtype=np.int64)),
        "low_line_count": pa.array(
            out["low_line_count"].to_numpy(dtype=np.int64)),
    })


TPCH_Q12_SQL = """
SELECT l.l_linestatus,
       CAST(sum(CASE WHEN o.o_orderpriority IN ('1-URGENT', '2-HIGH')
                     THEN 1 ELSE 0 END) AS BIGINT) AS high_line_count,
       CAST(sum(CASE WHEN o.o_orderpriority IN ('1-URGENT', '2-HIGH')
                     THEN 0 ELSE 1 END) AS BIGINT) AS low_line_count
FROM orders o
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
WHERE l.l_shipdate >= TIMESTAMP '1997-01-01'
  AND l.l_shipdate < TIMESTAMP '1998-01-01'
GROUP BY 1
ORDER BY 1
"""


# ---------------------------------------------------------------------------
# Q14 shape: broadcast-dim conditional revenue share
# ---------------------------------------------------------------------------

def tpch_q14_promo_share(sf_dir: str,
                         month: str = "1997-09") -> pa.Table:
    """TPC-H Q14 shape (promotion effect): the ppm share of one ship
    month's revenue that comes from PROMO-type parts.

    Scale shape: part is the bounded dim -- one pass collapses it to a
    broadcast sorted partkey array + promo bitmask (`ray.put` once);
    lineitem streams with the month filter, each block contributing two
    int64 cells (promo cents, total cents); the ratio is computed from
    the two folded integers.
    """
    lo_us = int(np.datetime64(month, "us").astype(np.int64))
    hi_np = (np.datetime64(month, "M") + 1).astype("datetime64[us]")
    hi_us = int(hi_np.astype(np.int64))

    part = _read(sf_dir, "part", ["p_partkey", "p_type"])

    def pkeys(t: pa.Table) -> pa.Table:
        return pa.table({
            "key": pc.cast(t["p_partkey"], pa.int64()),
            "promo": pc.cast(pc.equal(t["p_type"], pa.scalar("PROMO")),
                             pa.int64())})

    pdim = part.map_batches(pkeys, batch_format="pyarrow").to_pandas()
    pk = pdim["key"].to_numpy(dtype=np.int64)
    order = np.argsort(pk)
    pk = pk[order]
    promo = pdim["promo"].to_numpy(dtype=np.int64)[order]
    dim_ref = ray.put((pk, promo))

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_extendedprice", "l_discount",
                "l_shipdate"])

    empty = pa.table({"promo_cents": pa.array([], type=pa.int64()),
                      "total_cents": pa.array([], type=pa.int64())})

    def partial(t: pa.Table) -> pa.Table:
        keys, flags = ray.get(dim_ref)
        us = pc.cast(t["l_shipdate"], pa.int64()).to_numpy(
            zero_copy_only=False)
        t = t.filter(pa.array((us >= lo_us) & (us < hi_us)))
        if t.num_rows == 0:
            return empty
        price = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = t["l_discount"].to_numpy(zero_copy_only=False)
        rev = np.floor(price * (1.0 - disc) * 100.0 + 0.5) \
            .astype(np.int64)
        lp = t["l_partkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        pos = np.searchsorted(keys, lp)
        safe = np.minimum(pos, keys.size - 1)
        has = (pos < keys.size) & (keys[safe] == lp)
        is_promo = np.zeros(lp.size, dtype=np.int64)
        is_promo[has] = flags[safe[has]]
        return pa.table({
            "promo_cents": pa.array([int((rev * is_promo).sum())],
                                    type=pa.int64()),
            "total_cents": pa.array([int(rev[has].sum())],
                                    type=pa.int64())})

    folded = (li.map_batches(partial, batch_format="pyarrow",
                             zero_copy_batch=True)
              .sum(["promo_cents", "total_cents"]))
    promo_c = int(folded["sum(promo_cents)"])
    total_c = int(folded["sum(total_cents)"])
    ppm = promo_c * 1_000_000 // total_c if total_c else 0
    return pa.table({"promo_cents": pa.array([promo_c],
                                             type=pa.int64()),
                     "total_cents": pa.array([total_c],
                                             type=pa.int64()),
                     "promo_ppm": pa.array([ppm], type=pa.int64())})


TPCH_Q14_SQL = """
WITH j AS (
  SELECT CAST(floor(l.l_extendedprice * (1.0 - l.l_discount) * 100.0
                    + 0.5) AS BIGINT) AS rev,
         CASE WHEN p.p_type = 'PROMO' THEN 1 ELSE 0 END AS promo
  FROM lineitem l
  JOIN part p ON p.p_partkey = l.l_partkey
  WHERE l.l_shipdate >= TIMESTAMP '1997-09-01'
    AND l.l_shipdate < TIMESTAMP '1997-10-01'
)
SELECT CAST(COALESCE(sum(rev * promo), 0) AS BIGINT) AS promo_cents,
       CAST(COALESCE(sum(rev), 0) AS BIGINT) AS total_cents,
       CAST(COALESCE(CAST(sum(rev * promo) AS HUGEINT) * 1000000
            // NULLIF(sum(rev), 0), 0) AS BIGINT) AS promo_ppm
FROM j
"""


# ---------------------------------------------------------------------------
# Q18 shape: HAVING-filtered aggregation + join-back
# ---------------------------------------------------------------------------

def tpch_q18_large_orders(sf_dir: str, min_qty: int = 250,
                          k: int = 100) -> pa.Table:
    """TPC-H Q18 shape (large-volume customers): orders whose total
    lineitem quantity exceeds ``min_qty``, joined back to the order
    header, top-k by total price.

    Scale shape: lineitem pre-aggregates (orderkey, qty) per block,
    co-partitions on orderkey, and each partition emits only qualifying
    orders (HAVING pushed into the partition fold); the qualifying set
    is a tiny data-dependent fraction (bounded by total_qty/min_qty),
    broadcast as a sorted array for the orders-side filter; per-block
    top-k prereduce before the final k-row fold.
    """
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])

    part_empty = pa.table({"key": pa.array([], type=pa.int64()),
                           "qty": pa.array([], type=pa.int64())})

    def l_partial(t: pa.Table) -> pa.Table:
        qty = np.floor(t["l_quantity"].to_numpy(zero_copy_only=False)
                       + 0.5).astype(np.int64)
        staged = pa.table({"key": pc.cast(t["l_orderkey"], pa.int64()),
                           "qty": pa.array(qty)})
        g = staged.group_by("key").aggregate([("qty", "sum")])
        return pa.table({"key": g["key"],
                         "qty": pc.cast(g["qty_sum"], pa.int64())})

    def resolve(t: pa.Table) -> pa.Table:
        key = t["key"].to_numpy(zero_copy_only=False)
        qty = t["qty"].to_numpy(zero_copy_only=False)
        uk, inv = np.unique(key, return_inverse=True)
        tot = np.bincount(inv, weights=qty.astype(np.float64)) \
            .astype(np.int64)
        big = tot > min_qty
        return pa.table({"key": pa.array(uk[big]),
                         "qty": pa.array(tot[big])})

    pre = partition_by(
        li.map_batches(l_partial, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["key"], fit_partitions(16), resolve, part_empty).to_pandas()
    qk = pre["key"].to_numpy(dtype=np.int64)
    order = np.argsort(qk)
    qk = qk[order]
    qq = pre["qty"].to_numpy(dtype=np.int64)[order]
    q_ref = ray.put((qk, qq))

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate",
                    "o_totalprice"])

    out_empty = pa.table({
        "o_custkey": pa.array([], type=pa.int64()),
        "o_orderkey": pa.array([], type=pa.int64()),
        "o_orderdate": pa.array([], type=pa.int64()),
        "total_cents": pa.array([], type=pa.int64()),
        "sum_qty": pa.array([], type=pa.int64())})

    def o_join(t: pa.Table) -> pa.Table:
        keys, qtys = ray.get(q_ref)
        ok = t["o_orderkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        pos = np.searchsorted(keys, ok)
        safe = np.minimum(pos, max(keys.size - 1, 0))
        has = (pos < keys.size) if keys.size else \
            np.zeros(ok.size, dtype=bool)
        if keys.size:
            has &= keys[safe] == ok
        t = t.filter(pa.array(has))
        if t.num_rows == 0:
            return out_empty
        cents = _cents_col(t["o_totalprice"])
        sq = qtys[safe[has]]
        order = np.lexsort((ok[has], -cents))[:k]
        return pa.table({
            "o_custkey": pc.cast(t["o_custkey"], pa.int64())
            .take(pa.array(order)),
            "o_orderkey": pa.array(ok[has][order]),
            "o_orderdate": pc.cast(t["o_orderdate"], pa.int64())
            .take(pa.array(order)),
            "total_cents": pa.array(cents[order]),
            "sum_qty": pa.array(sq[order])})

    pre2 = orders.map_batches(o_join, batch_format="pyarrow",
                              zero_copy_batch=True).to_pandas()
    order = np.lexsort((pre2["o_orderkey"].to_numpy(),
                        -pre2["total_cents"].to_numpy()))[:k]
    cols = {}
    for c in ["o_custkey", "o_orderkey", "o_orderdate", "total_cents",
              "sum_qty"]:
        cols[c] = pa.array(pre2[c].to_numpy(dtype=np.int64)[order])
    return pa.table(cols)


def _cents_col(col) -> np.ndarray:
    return np.floor(col.to_numpy(zero_copy_only=False) * 100.0
                    + 0.5).astype(np.int64)


TPCH_Q18_SQL = """
SELECT CAST(o.o_custkey AS BIGINT) AS o_custkey,
       CAST(o.o_orderkey AS BIGINT) AS o_orderkey,
       CAST(epoch_us(o.o_orderdate) AS BIGINT) AS o_orderdate,
       CAST(floor(o.o_totalprice * 100.0 + 0.5) AS BIGINT)
         AS total_cents,
       CAST(sum(CAST(floor(l.l_quantity + 0.5) AS BIGINT)) AS BIGINT)
         AS sum_qty
FROM orders o
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
GROUP BY 1, 2, 3, 4
HAVING sum(CAST(floor(l.l_quantity + 0.5) AS BIGINT)) > 250
ORDER BY total_cents DESC, o_orderkey
LIMIT 100
"""


# ---------------------------------------------------------------------------
# Q19 shape: disjunctive bracket predicates via broadcast lookup
# ---------------------------------------------------------------------------

_Q19_BRACKETS = (
    # (brand, size_lo, size_hi, qty_lo, qty_hi)
    ("Brand#12", 1, 5, 1, 11),
    ("Brand#23", 1, 10, 10, 20),
    ("Brand#34", 1, 15, 20, 30),
)


def tpch_q19_bracket_revenue(sf_dir: str) -> pa.Table:
    """TPC-H Q19 shape (discounted revenue from bracketed parts): sum
    revenue over a disjunction of (brand, size-range, quantity-range)
    brackets -- the canonical OR-of-ANDs predicate that a naive plan
    evaluates as three separate joins (the testdata has no p_container
    / l_shipmode, so those conjuncts are dropped; plan shape intact).

    Scale shape: part collapses to a broadcast sorted partkey array +
    per-part bracket id (0 = no bracket matches); lineitem streams
    once, resolving the quantity bracket per row against the looked-up
    id -- the disjunction costs one probe, not three joins; one int64
    cell per block.
    """
    part = _read(sf_dir, "part", ["p_partkey", "p_brand", "p_size"])

    def pprep(t: pa.Table) -> pa.Table:
        brand = t["p_brand"].to_numpy(zero_copy_only=False)
        size = t["p_size"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        grp = np.zeros(t.num_rows, dtype=np.int64)
        for gi, (b, slo, shi, _, _) in enumerate(_Q19_BRACKETS, 1):
            m = (brand == b) & (size >= slo) & (size <= shi)
            grp[m & (grp == 0)] = gi
        return pa.table({
            "key": pc.cast(t["p_partkey"], pa.int64()),
            "grp": pa.array(grp)})

    pdim = part.map_batches(pprep, batch_format="pyarrow").to_pandas()
    pk = pdim["key"].to_numpy(dtype=np.int64)
    order = np.argsort(pk)
    dim_ref = ray.put((pk[order],
                       pdim["grp"].to_numpy(dtype=np.int64)[order]))

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_quantity", "l_extendedprice",
                "l_discount"])

    empty = pa.table({"revenue_cents": pa.array([], type=pa.int64()),
                      "n_lineitems": pa.array([], type=pa.int64())})

    def partial(t: pa.Table) -> pa.Table:
        keys, grps = ray.get(dim_ref)
        lp = t["l_partkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        pos = np.searchsorted(keys, lp)
        safe = np.minimum(pos, keys.size - 1)
        has = (pos < keys.size) & (keys[safe] == lp)
        grp = np.zeros(lp.size, dtype=np.int64)
        grp[has] = grps[safe[has]]
        qty = np.floor(t["l_quantity"].to_numpy(zero_copy_only=False)
                       + 0.5).astype(np.int64)
        keep = np.zeros(lp.size, dtype=bool)
        for gi, (_, _, _, qlo, qhi) in enumerate(_Q19_BRACKETS, 1):
            keep |= (grp == gi) & (qty >= qlo) & (qty <= qhi)
        if not keep.any():
            return empty
        price = t["l_extendedprice"].to_numpy(
            zero_copy_only=False)[keep]
        disc = t["l_discount"].to_numpy(zero_copy_only=False)[keep]
        rev = np.floor(price * (1.0 - disc) * 100.0 + 0.5) \
            .astype(np.int64)
        return pa.table({
            "revenue_cents": pa.array([int(rev.sum())],
                                      type=pa.int64()),
            "n_lineitems": pa.array([int(keep.sum())],
                                    type=pa.int64())})

    folded = (li.map_batches(partial, batch_format="pyarrow",
                             zero_copy_batch=True)
              .sum(["revenue_cents", "n_lineitems"]))
    # no qualifying lineitem: Ray's sum of no rows is None, SQL's
    # COALESCE(sum, 0) and count(*) are 0
    return pa.table({
        "revenue_cents": pa.array([int(folded["sum(revenue_cents)"] or 0)],
                                  type=pa.int64()),
        "n_lineitems": pa.array([int(folded["sum(n_lineitems)"] or 0)],
                                type=pa.int64())})


TPCH_Q19_SQL = """
SELECT CAST(COALESCE(sum(CAST(floor(l.l_extendedprice
                                    * (1.0 - l.l_discount)
                                    * 100.0 + 0.5) AS BIGINT)), 0)
            AS BIGINT) AS revenue_cents,
       CAST(count(*) AS BIGINT) AS n_lineitems
FROM lineitem l
JOIN part p ON p.p_partkey = l.l_partkey
WHERE (p.p_brand = 'Brand#12' AND p.p_size BETWEEN 1 AND 5
       AND CAST(floor(l.l_quantity + 0.5) AS BIGINT) BETWEEN 1 AND 11)
   OR (p.p_brand = 'Brand#23' AND p.p_size BETWEEN 1 AND 10
       AND CAST(floor(l.l_quantity + 0.5) AS BIGINT) BETWEEN 10
           AND 20)
   OR (p.p_brand = 'Brand#34' AND p.p_size BETWEEN 1 AND 15
       AND CAST(floor(l.l_quantity + 0.5) AS BIGINT) BETWEEN 20
           AND 30)
"""


# ---------------------------------------------------------------------------
# Q7 shape: two-nation volume shipping by year
# ---------------------------------------------------------------------------

def _year_of(us: np.ndarray) -> np.ndarray:
    """Calendar year of int64 microsecond timestamps (matches DuckDB
    EXTRACT(year ...) for CE dates)."""
    return (us.astype("datetime64[us]").astype("datetime64[Y]")
            .astype(np.int64) + 1970)


def tpch_q7_volume_shipping(sf_dir: str, nation_a: str = "NATION_1",
                            nation_b: str = "NATION_2") -> pa.Table:
    """TPC-H Q7 shape (volume shipping): lineitem revenue flowing
    between two nations, in BOTH directions, per ship year -- the
    canonical disjunctive cross-nation predicate
    (supp=A AND cust=B) OR (supp=B AND cust=A) that needs both a
    supplier-side and a customer-side nation on every fact row
    (reference Q7 uses a ship-date range; the testdata spans whole
    years, so all years are reported).

    Scale shape: nation + supplier fold into broadcast sorted arrays
    (supplier is the small dim, as in Q5); orders gain c_nationkey via
    ONE custkey co-partition join and rows outside {A,B} drop THERE;
    lineitem rows from suppliers outside {A,B} drop in the stateless
    prep map BEFORE the orderkey exchange, so both shuffles carry only
    two-nation traffic; the fold inside the join kernel leaves
    O(2 x years) rows.
    """
    import pyarrow.parquet as pq

    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_name"])
    names = nation["n_name"].to_pylist()
    keys = nation["n_nationkey"].to_pylist()
    nat_of = {n: int(k) for n, k in zip(names, keys)}
    ka, kb = nat_of[nation_a], nat_of[nation_b]

    sup = pq.read_table(f"{sf_dir}/supplier.parquet",
                        columns=["s_suppkey", "s_nationkey"])
    s_order = pc.sort_indices(sup["s_suppkey"])
    sup_keys = sup["s_suppkey"].take(s_order).to_numpy(
        zero_copy_only=False).astype(np.int64)
    sup_nat = sup["s_nationkey"].take(s_order).to_numpy(
        zero_copy_only=False).astype(np.int64)
    lut_ref = ray.put((sup_keys, sup_nat, ka, kb))

    # stage 1: orders gain c_nationkey; keep only customers in {A,B}
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])

    def o_norm(t: pa.Table) -> pa.Table:
        return pa.table({"k": pc.cast(t["o_custkey"], pa.int64()),
                         "o_orderkey": pc.cast(t["o_orderkey"],
                                               pa.int64()),
                         "c_nat": pa.nulls(t.num_rows,
                                           type=pa.int64())})

    def c_norm(t: pa.Table) -> pa.Table:
        nk = pc.cast(t["c_nationkey"], pa.int64())
        keep = pc.or_(pc.equal(nk, ka), pc.equal(nk, kb))
        t = t.filter(keep)
        return pa.table({"k": pc.cast(t["c_custkey"], pa.int64()),
                         "o_orderkey": pa.nulls(t.num_rows,
                                                type=pa.int64()),
                         "c_nat": pc.cast(t["c_nationkey"],
                                          pa.int64())})

    both = (orders.map_batches(o_norm, batch_format="pyarrow",
                               zero_copy_batch=True)
            .union(cust.map_batches(c_norm, batch_format="pyarrow",
                                    zero_copy_batch=True)))

    onat_empty = pa.table({"o_orderkey": pa.array([], type=pa.int64()),
                           "c_nat": pa.array([], type=pa.int64())})

    def join_cust(t: pa.Table) -> pa.Table:
        k = t["k"].to_numpy(zero_copy_only=False)
        is_c = pc.is_valid(t["c_nat"]).to_numpy(zero_copy_only=False)
        ck = k[is_c]
        if ck.size == 0:
            return onat_empty
        cv = t["c_nat"].to_numpy(zero_copy_only=False)[is_c] \
            .astype(np.int64)
        order = np.argsort(ck, kind="stable")
        ck, cv = ck[order], cv[order]
        is_o = ~is_c
        pos = np.searchsorted(ck, k[is_o])
        pos = np.minimum(pos, ck.shape[0] - 1)
        hit = ck[pos] == k[is_o]
        ok = t["o_orderkey"].to_numpy(zero_copy_only=False)[is_o]
        return pa.table({
            "o_orderkey": pa.array(ok[hit].astype(np.int64)),
            "c_nat": pa.array(cv[pos[hit]]),
        })

    onat = partition_by(both, ["k"], fit_partitions(32), join_cust,
                        onat_empty)

    # stage 2: two-nation lineitems join (orderkey, c_nat); fold by
    # (direction, year) inside the kernel
    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_suppkey", "l_extendedprice",
                "l_discount", "l_shipdate"])

    def li_norm(t: pa.Table) -> pa.Table:
        sk_lut, sn_lut, a, b = ray.get(lut_ref)
        sk = pc.cast(t["l_suppkey"], pa.int64()).to_numpy(
            zero_copy_only=False)
        pos = np.searchsorted(sk_lut, sk)
        pos = np.minimum(pos, sk_lut.shape[0] - 1)
        s_nat = sn_lut[pos]
        keep = (sk_lut[pos] == sk) & ((s_nat == a) | (s_nat == b))
        t = t.filter(pa.array(keep))
        s_nat = s_nat[keep]
        p = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        d = t["l_discount"].to_numpy(zero_copy_only=False)
        rev = np.floor(p * (1.0 - d) * 100.0 + 0.5).astype(np.int64)
        yr = _year_of(pc.cast(t["l_shipdate"], pa.int64()).to_numpy(
            zero_copy_only=False))
        return pa.table({"k": pc.cast(t["l_orderkey"], pa.int64()),
                         "s_nat": pa.array(s_nat),
                         "yr": pa.array(yr),
                         "rev_c": pa.array(rev),
                         "c_nat": pa.nulls(t.num_rows,
                                           type=pa.int64())})

    def on_norm(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table({"k": t["o_orderkey"],
                         "s_nat": pa.nulls(n, type=pa.int64()),
                         "yr": pa.nulls(n, type=pa.int64()),
                         "rev_c": pa.nulls(n, type=pa.int64()),
                         "c_nat": t["c_nat"]})

    both2 = (li.map_batches(li_norm, batch_format="pyarrow",
                            zero_copy_batch=True)
             .union(onat.map_batches(on_norm, batch_format="pyarrow",
                                     zero_copy_batch=True)))

    YR0, NYR = 1990, 20
    out_empty = pa.table({"cell": pa.array([], type=pa.int64()),
                          "revenue_c": pa.array([], type=pa.int64())})

    def join_fold(t: pa.Table) -> pa.Table:
        _, _, a, b = ray.get(lut_ref)
        k = t["k"].to_numpy(zero_copy_only=False)
        is_o = pc.is_valid(t["c_nat"]).to_numpy(zero_copy_only=False)
        okk = k[is_o]
        is_l = ~is_o
        if okk.size == 0 or not is_l.any():
            return out_empty
        ocn = t["c_nat"].to_numpy(zero_copy_only=False)[is_o] \
            .astype(np.int64)
        order = np.argsort(okk, kind="stable")
        okk, ocn = okk[order], ocn[order]
        lk = k[is_l]
        pos = np.searchsorted(okk, lk)
        pos = np.minimum(pos, okk.shape[0] - 1)
        hit = okk[pos] == lk
        c_nat = ocn[pos]
        s_nat = t["s_nat"].to_numpy(zero_copy_only=False)[is_l] \
            .astype(np.int64)
        m = hit & (((s_nat == a) & (c_nat == b))
                   | ((s_nat == b) & (c_nat == a)))
        if not m.any():
            return out_empty
        yr = t["yr"].to_numpy(zero_copy_only=False)[is_l] \
            .astype(np.int64)[m]
        rev = t["rev_c"].to_numpy(zero_copy_only=False)[is_l] \
            .astype(np.int64)[m]
        a_to_b = (s_nat[m] == a).astype(np.int64)
        cell = (1 - a_to_b) * NYR + (yr - YR0)
        return pa.table({"cell": pa.array(cell),
                         "revenue_c": pa.array(rev)})

    folded = partition_by(both2, ["k"], fit_partitions(32), join_fold,
                          out_empty)
    # no two-nation lineitem: partition_by's output has no rows and no
    # schema, so neither has the aggregate
    agg = collect(combine_agg(folded, ["cell"], lambda t: t,
                              [("revenue_c", "sum")],
                              named("cell", "revenue_c")))
    if not agg.num_rows:
        agg = out_empty
    cells = agg["cell"].to_numpy()
    revs = agg["revenue_c"].to_numpy()
    dir_ab = cells < NYR
    yrs = YR0 + np.where(dir_ab, cells, cells - NYR)
    supp = np.where(dir_ab, nation_a, nation_b)
    custn = np.where(dir_ab, nation_b, nation_a)
    order = np.lexsort((yrs, custn, supp))
    return pa.table({
        "supp_nation": pa.array(supp[order].tolist(),
                                type=pa.string()),
        "cust_nation": pa.array(custn[order].tolist(),
                                type=pa.string()),
        "l_year": pa.array(yrs[order]),
        "revenue_c": pa.array(revs[order]),
    })


TPCH_Q7_SQL = """
SELECT sn.n_name AS supp_nation,
       cn.n_name AS cust_nation,
       CAST(EXTRACT(year FROM l.l_shipdate) AS BIGINT) AS l_year,
       CAST(sum(CAST(floor(l.l_extendedprice * (1.0 - l.l_discount)
                           * 100.0 + 0.5) AS BIGINT)) AS BIGINT)
         AS revenue_c
FROM lineitem l
JOIN orders o ON o.o_orderkey = l.l_orderkey
JOIN customer c ON c.c_custkey = o.o_custkey
JOIN supplier s ON s.s_suppkey = l.l_suppkey
JOIN nation sn ON sn.n_nationkey = s.s_nationkey
JOIN nation cn ON cn.n_nationkey = c.c_nationkey
WHERE (sn.n_name = 'NATION_1' AND cn.n_name = 'NATION_2')
   OR (sn.n_name = 'NATION_2' AND cn.n_name = 'NATION_1')
GROUP BY 1, 2, 3
ORDER BY 1, 2, 3
"""


# ---------------------------------------------------------------------------
# Q8 shape: national market share within a region + part class
# ---------------------------------------------------------------------------

def tpch_q8_market_share(sf_dir: str, nation: str = "NATION_8",
                         p_type: str = "MEDIUM") -> pa.Table:
    """TPC-H Q8 shape (national market share): of all revenue for one
    part class sold to customers in the target nation's REGION, the
    ppm share supplied by the target nation itself, per order year --
    the conditional-share-of-a-filtered-join pattern where the
    numerator predicate (supplier nation) and the scope predicates
    (customer region, part class) live on different dimensions.

    Scale shape: the part class folds to a broadcast sorted partkey
    array (class-bounded slice of the catalog) and lineitems outside
    it drop in the stateless prep map; orders gain (year, in-region)
    via ONE custkey co-partition join that also drops out-of-region
    customers; the orderkey kernel folds straight to O(years) rows of
    (total, national) cents, so the share division happens on the
    driver over a handful of rows.
    """
    import pyarrow.parquet as pq

    nat = pq.read_table(f"{sf_dir}/nation.parquet")
    row = nat.filter(pc.equal(nat["n_name"], nation))
    nkey = int(row["n_nationkey"][0].as_py())
    rkey = int(row["n_regionkey"][0].as_py())
    region_nats = np.sort(nat.filter(
        pc.equal(nat["n_regionkey"], rkey))["n_nationkey"].to_numpy(
        zero_copy_only=False).astype(np.int64))

    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_type"])
    class_pk = np.sort(part.filter(
        pc.equal(part["p_type"], p_type))["p_partkey"].to_numpy(
        zero_copy_only=False).astype(np.int64))

    sup = pq.read_table(f"{sf_dir}/supplier.parquet",
                        columns=["s_suppkey", "s_nationkey"])
    s_order = pc.sort_indices(sup["s_suppkey"])
    sup_keys = sup["s_suppkey"].take(s_order).to_numpy(
        zero_copy_only=False).astype(np.int64)
    sup_nat = sup["s_nationkey"].take(s_order).to_numpy(
        zero_copy_only=False).astype(np.int64)
    lut_ref = ray.put((class_pk, sup_keys, sup_nat, region_nats,
                       nkey))

    # stage 1: orders gain (o_year, customer-in-region) via custkey
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])

    def o_norm(t: pa.Table) -> pa.Table:
        yr = _year_of(pc.cast(t["o_orderdate"], pa.int64()).to_numpy(
            zero_copy_only=False))
        return pa.table({"k": pc.cast(t["o_custkey"], pa.int64()),
                         "o_orderkey": pc.cast(t["o_orderkey"],
                                               pa.int64()),
                         "yr": pa.array(yr),
                         "c_nat": pa.nulls(t.num_rows,
                                           type=pa.int64())})

    def c_norm(t: pa.Table) -> pa.Table:
        rn = ray.get(lut_ref)[3]
        nk = pc.cast(t["c_nationkey"], pa.int64()).to_numpy(
            zero_copy_only=False)
        pos = np.searchsorted(rn, nk)
        pos = np.minimum(pos, rn.shape[0] - 1)
        t = t.filter(pa.array(rn[pos] == nk))
        return pa.table({"k": pc.cast(t["c_custkey"], pa.int64()),
                         "o_orderkey": pa.nulls(t.num_rows,
                                                type=pa.int64()),
                         "yr": pa.nulls(t.num_rows, type=pa.int64()),
                         "c_nat": pc.cast(t["c_nationkey"],
                                          pa.int64())})

    both = (orders.map_batches(o_norm, batch_format="pyarrow",
                               zero_copy_batch=True)
            .union(cust.map_batches(c_norm, batch_format="pyarrow",
                                    zero_copy_batch=True)))

    onat_empty = pa.table({"o_orderkey": pa.array([], type=pa.int64()),
                           "yr": pa.array([], type=pa.int64())})

    def join_cust(t: pa.Table) -> pa.Table:
        k = t["k"].to_numpy(zero_copy_only=False)
        is_c = pc.is_valid(t["c_nat"]).to_numpy(zero_copy_only=False)
        ck = np.sort(k[is_c])
        is_o = ~is_c
        if ck.size == 0 or not is_o.any():
            return onat_empty
        pos = np.searchsorted(ck, k[is_o])
        pos = np.minimum(pos, ck.shape[0] - 1)
        hit = ck[pos] == k[is_o]
        ok = t["o_orderkey"].to_numpy(zero_copy_only=False)[is_o]
        yr = t["yr"].to_numpy(zero_copy_only=False)[is_o]
        return pa.table({
            "o_orderkey": pa.array(ok[hit].astype(np.int64)),
            "yr": pa.array(yr[hit].astype(np.int64)),
        })

    onat = partition_by(both, ["k"], fit_partitions(32), join_cust,
                        onat_empty)

    # stage 2: class lineitems join in-region order years
    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_partkey", "l_suppkey",
                "l_extendedprice", "l_discount"])

    def li_norm(t: pa.Table) -> pa.Table:
        pk_lut, sk_lut, sn_lut, _, target = ray.get(lut_ref)
        pk = pc.cast(t["l_partkey"], pa.int64()).to_numpy(
            zero_copy_only=False)
        pos = np.searchsorted(pk_lut, pk)
        pos = np.minimum(pos, max(pk_lut.shape[0] - 1, 0))
        keep = pk_lut[pos] == pk if pk_lut.size else np.zeros(
            pk.size, dtype=bool)
        t = t.filter(pa.array(keep))
        sk = pc.cast(t["l_suppkey"], pa.int64()).to_numpy(
            zero_copy_only=False)
        spos = np.searchsorted(sk_lut, sk)
        spos = np.minimum(spos, sk_lut.shape[0] - 1)
        is_nat = (sk_lut[spos] == sk) & (sn_lut[spos] == target)
        p = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        d = t["l_discount"].to_numpy(zero_copy_only=False)
        rev = np.floor(p * (1.0 - d) * 100.0 + 0.5).astype(np.int64)
        return pa.table({"k": pc.cast(t["l_orderkey"], pa.int64()),
                         "rev_c": pa.array(rev),
                         "nat_c": pa.array(
                             np.where(is_nat, rev, 0)),
                         "yr": pa.nulls(t.num_rows,
                                        type=pa.int64())})

    def on_norm(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table({"k": t["o_orderkey"],
                         "rev_c": pa.nulls(n, type=pa.int64()),
                         "nat_c": pa.nulls(n, type=pa.int64()),
                         "yr": t["yr"]})

    both2 = (li.map_batches(li_norm, batch_format="pyarrow",
                            zero_copy_batch=True)
             .union(onat.map_batches(on_norm, batch_format="pyarrow",
                                     zero_copy_batch=True)))

    YR0, NYR = 1990, 20
    out_empty = pa.table({"yr": pa.array([], type=pa.int64()),
                          "total_c": pa.array([], type=pa.int64()),
                          "nation_c": pa.array([], type=pa.int64())})

    def join_fold(t: pa.Table) -> pa.Table:
        k = t["k"].to_numpy(zero_copy_only=False)
        is_o = pc.is_valid(t["yr"]).to_numpy(zero_copy_only=False)
        okk = k[is_o]
        is_l = ~is_o
        if okk.size == 0 or not is_l.any():
            return out_empty
        oyr = t["yr"].to_numpy(zero_copy_only=False)[is_o] \
            .astype(np.int64)
        order = np.argsort(okk, kind="stable")
        okk, oyr = okk[order], oyr[order]
        lk = k[is_l]
        pos = np.searchsorted(okk, lk)
        pos = np.minimum(pos, okk.shape[0] - 1)
        hit = okk[pos] == lk
        if not hit.any():
            return out_empty
        yr = oyr[pos[hit]] - YR0
        rev = t["rev_c"].to_numpy(zero_copy_only=False)[is_l] \
            .astype(np.int64)[hit]
        natc = t["nat_c"].to_numpy(zero_copy_only=False)[is_l] \
            .astype(np.int64)[hit]
        return pa.table({"yr": pa.array(yr + YR0),
                         "total_c": pa.array(rev),
                         "nation_c": pa.array(natc)})

    folded = partition_by(both2, ["k"], fit_partitions(32), join_fold,
                          out_empty)
    agg = (combine_agg(folded, ["yr"], lambda t: t,
                       [("total_c", "sum"), ("nation_c", "sum")],
                       named("yr", "total_c", "nation_c"))
           .to_pandas().sort_values("yr"))
    yr = agg["yr"].to_numpy(dtype=np.int64)
    tot = agg["total_c"].to_numpy(dtype=np.int64)
    natc = agg["nation_c"].to_numpy(dtype=np.int64)
    ppm = np.where(tot > 0, (natc * 1_000_000) // np.maximum(tot, 1),
                   0)
    return pa.table({"o_year": pa.array(yr),
                     "total_c": pa.array(tot),
                     "nation_c": pa.array(natc),
                     "mkt_share_ppm": pa.array(ppm)})


TPCH_Q8_SQL = """
WITH scoped AS (
  SELECT CAST(EXTRACT(year FROM o.o_orderdate) AS BIGINT) AS o_year,
         CAST(floor(l.l_extendedprice * (1.0 - l.l_discount)
                    * 100.0 + 0.5) AS BIGINT) AS rev_c,
         (sn.n_name = 'NATION_8') AS is_nat
  FROM lineitem l
  JOIN part p ON p.p_partkey = l.l_partkey
  JOIN orders o ON o.o_orderkey = l.l_orderkey
  JOIN customer c ON c.c_custkey = o.o_custkey
  JOIN nation cn ON cn.n_nationkey = c.c_nationkey
  JOIN supplier s ON s.s_suppkey = l.l_suppkey
  JOIN nation sn ON sn.n_nationkey = s.s_nationkey
  WHERE p.p_type = 'MEDIUM'
    AND cn.n_regionkey = (SELECT n_regionkey FROM nation
                          WHERE n_name = 'NATION_8')
)
SELECT o_year,
       CAST(sum(rev_c) AS BIGINT) AS total_c,
       CAST(COALESCE(sum(rev_c) FILTER (is_nat), 0) AS BIGINT)
         AS nation_c,
       CAST(COALESCE(sum(rev_c) FILTER (is_nat), 0) * 1000000
            // sum(rev_c) AS BIGINT) AS mkt_share_ppm
FROM scoped
GROUP BY 1 ORDER BY 1
"""


# ---------------------------------------------------------------------------
# Q15 shape: top supplier(s) by window revenue (max + equality join-back)
# ---------------------------------------------------------------------------

def tpch_q15_top_supplier(sf_dir: str, date_lo: str = "1997-01-01",
                          date_hi: str = "1997-04-01") -> pa.Table:
    """TPC-H Q15 shape (top supplier): per-supplier revenue over one
    quarter, returning EVERY supplier that attains the maximum -- the
    view + scalar-max + equality-join-back pattern whose correctness
    trap is ties (a LIMIT 1 would be wrong).

    Scale shape: the date filter and the cents run in ``combine_agg``'s
    prep, which folds each batch per suppkey, so the only exchange is
    the O(suppliers) grouped sum; the max and the tie filter run on that
    already-small aggregate without leaving the dataset plan, and
    supplier names attach via a broadcast sorted array at the very
    end (supplier is the small dim, as in Q5/Q7).
    """
    import pyarrow.parquet as pq

    lo_us = int(np.datetime64(date_lo, "us").astype(np.int64))
    hi_us = int(np.datetime64(date_hi, "us").astype(np.int64))

    li = _read(sf_dir, "lineitem",
               ["l_suppkey", "l_extendedprice", "l_discount",
                "l_shipdate"])

    def revenue(t: pa.Table) -> pa.Table:
        us = pc.cast(t["l_shipdate"], pa.int64()).to_numpy(
            zero_copy_only=False)
        t = t.filter(pa.array((us >= lo_us) & (us < hi_us)))
        p = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        d = t["l_discount"].to_numpy(zero_copy_only=False)
        rev = np.floor(p * (1.0 - d) * 100.0 + 0.5).astype(np.int64)
        return pa.table({"s_suppkey": pc.cast(t["l_suppkey"], pa.int64()),
                         "rev": pa.array(rev)})

    per_sup = combine_agg(li, ["s_suppkey"], revenue, [("rev", "sum")],
                          named("s_suppkey", "total_revenue_c"))
    best = per_sup.max("total_revenue_c")

    top = (per_sup.filter(
        expr=f"total_revenue_c == {int(best)}").to_pandas()
        .sort_values("s_suppkey"))

    sup = pq.read_table(f"{sf_dir}/supplier.parquet",
                        columns=["s_suppkey", "s_name"])
    s_order = pc.sort_indices(sup["s_suppkey"])
    sup_keys = sup["s_suppkey"].take(s_order).to_numpy(
        zero_copy_only=False).astype(np.int64)
    sup_names = np.asarray(sup["s_name"].take(s_order).to_pylist())
    sk = top["s_suppkey"].to_numpy(dtype=np.int64)
    pos = np.searchsorted(sup_keys, sk)
    return pa.table({
        "s_suppkey": pa.array(sk),
        "s_name": pa.array(sup_names[pos].tolist(),
                           type=pa.string()),
        "total_revenue_c": pa.array(
            top["total_revenue_c"].to_numpy(dtype=np.int64)),
    })


TPCH_Q15_SQL = """
WITH revenue AS (
  SELECT l_suppkey AS s_suppkey,
         CAST(sum(CAST(floor(l_extendedprice * (1.0 - l_discount)
                             * 100.0 + 0.5) AS BIGINT)) AS BIGINT)
           AS total_revenue_c
  FROM lineitem
  WHERE l_shipdate >= TIMESTAMP '1997-01-01'
    AND l_shipdate < TIMESTAMP '1997-04-01'
  GROUP BY 1
)
SELECT r.s_suppkey, s.s_name, r.total_revenue_c
FROM revenue r JOIN supplier s ON s.s_suppkey = r.s_suppkey
WHERE r.total_revenue_c = (SELECT max(total_revenue_c) FROM revenue)
ORDER BY r.s_suppkey
"""


# ---------------------------------------------------------------------------
# Q22 shape: global sales opportunity (anti-join + avg-over-subset)
# ---------------------------------------------------------------------------

def tpch_q22_sales_opportunity(
        sf_dir: str,
        codes: tuple = (3, 8, 13, 17, 21),
        since: str = "2000-01-01") -> pa.Table:
    """TPC-H Q22 shape (global sales opportunity): customers in a set
    of "country codes" (stand-in: c_nationkey values -- the testdata
    has no c_phone) whose balance exceeds the average POSITIVE balance
    of that same code set, and who have placed NO orders since a
    cutoff (the canonical "lapsed for 7 years" becomes "lapsed since
    `since`" -- every testdata customer has SOME order); per code:
    customer count and total balance.  Exercises the scalar-subquery
    threshold + NOT EXISTS anti-join combination.

    Scale shape: the threshold is a one-pass distributed (sum, count)
    over the code-set customers, carried as exact integer cents and
    applied by cross-multiplication (bal_c * cnt > sum_c -- no
    division); orders collapse per block to distinct custkeys with no
    payload; the anti-join is one custkey co-partition membership
    probe whose kernel folds straight to O(codes) rows.
    """
    code_arr = np.sort(np.asarray(codes, dtype=np.int64))

    cust = _read(sf_dir, "customer",
                 ["c_custkey", "c_nationkey", "c_acctbal"])

    thr_empty = pa.table({"sum_c": pa.array([], type=pa.int64()),
                          "cnt": pa.array([], type=pa.int64())})

    def thr_partial(t: pa.Table) -> pa.Table:
        nk = pc.cast(t["c_nationkey"], pa.int64()).to_numpy(
            zero_copy_only=False)
        pos = np.searchsorted(code_arr, nk)
        pos = np.minimum(pos, code_arr.shape[0] - 1)
        bal = t["c_acctbal"].to_numpy(zero_copy_only=False)
        keep = (code_arr[pos] == nk) & (bal > 0.0)
        if not keep.any():
            return thr_empty
        bal_c = np.floor(bal[keep] * 100.0 + 0.5).astype(np.int64)
        return pa.table({"sum_c": pa.array([int(bal_c.sum())],
                                           type=pa.int64()),
                         "cnt": pa.array([int(keep.sum())],
                                         type=pa.int64())})

    thr = (cust.map_batches(thr_partial, batch_format="pyarrow",
                            zero_copy_batch=True).to_pandas())
    sum_c = int(thr["sum_c"].sum())
    cnt = int(thr["cnt"].sum())

    since_us = int(np.datetime64(since, "us").astype(np.int64))
    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderdate"])

    def c_norm(t: pa.Table) -> pa.Table:
        nk = pc.cast(t["c_nationkey"], pa.int64()).to_numpy(
            zero_copy_only=False)
        pos = np.searchsorted(code_arr, nk)
        pos = np.minimum(pos, code_arr.shape[0] - 1)
        bal = t["c_acctbal"].to_numpy(zero_copy_only=False)
        bal_c = np.floor(bal * 100.0 + 0.5).astype(np.int64)
        keep = (code_arr[pos] == nk) & (bal_c * cnt > sum_c)
        t = t.filter(pa.array(keep))
        return pa.table({"k": pc.cast(t["c_custkey"], pa.int64()),
                         "nat": pc.cast(t["c_nationkey"], pa.int64()),
                         "bal_c": pa.array(bal_c[keep])})

    def o_norm(t: pa.Table) -> pa.Table:
        us = pc.cast(t["o_orderdate"], pa.int64()).to_numpy(
            zero_copy_only=False)
        k = np.unique(pc.cast(t["o_custkey"], pa.int64()).to_numpy(
            zero_copy_only=False)[us >= since_us])
        n = k.shape[0]
        return pa.table({"k": pa.array(k),
                         "nat": pa.nulls(n, type=pa.int64()),
                         "bal_c": pa.nulls(n, type=pa.int64())})

    both = (cust.map_batches(c_norm, batch_format="pyarrow",
                             zero_copy_batch=True)
            .union(orders.map_batches(o_norm, batch_format="pyarrow",
                                      zero_copy_batch=True)))

    out_empty = pa.table({"cntrycode": pa.array([], type=pa.int64()),
                          "numcust": pa.array([], type=pa.int64()),
                          "totacctbal_c": pa.array([],
                                                   type=pa.int64())})
    rows_empty = pa.table({"cntrycode": pa.array([], type=pa.int64()),
                           "bal_c": pa.array([], type=pa.int64())})

    def anti_fold(t: pa.Table) -> pa.Table:
        k = t["k"].to_numpy(zero_copy_only=False)
        is_c = pc.is_valid(t["nat"]).to_numpy(zero_copy_only=False)
        if not is_c.any():
            return rows_empty
        ok = np.unique(k[~is_c])
        ck = k[is_c]
        if ok.size:
            pos = np.searchsorted(ok, ck)
            pos = np.minimum(pos, ok.shape[0] - 1)
            no_orders = ok[pos] != ck
        else:
            no_orders = np.ones(ck.shape[0], dtype=bool)
        if not no_orders.any():
            return rows_empty
        nat = t["nat"].to_numpy(zero_copy_only=False)[is_c] \
            .astype(np.int64)[no_orders]
        bal = t["bal_c"].to_numpy(zero_copy_only=False)[is_c] \
            .astype(np.int64)[no_orders]
        return pa.table({
            "cntrycode": pa.array(code_arr[np.searchsorted(code_arr, nat)]),
            "bal_c": pa.array(bal)})

    folded = partition_by(both, ["k"], fit_partitions(32), anti_fold,
                          rows_empty)
    agg = combine_agg(folded, ["cntrycode"], lambda t: t,
                      [("bal_c", "count"), ("bal_c", "sum")],
                      named("cntrycode", "numcust", "totacctbal_c")
                      ).to_pandas()
    if agg.empty:        # a zero-row result carries no columns
        return out_empty
    agg = agg.sort_values("cntrycode")
    return pa.table({
        "cntrycode": pa.array(agg["cntrycode"].to_numpy(
            dtype=np.int64)),
        "numcust": pa.array(agg["numcust"].to_numpy(dtype=np.int64)),
        "totacctbal_c": pa.array(agg["totacctbal_c"].to_numpy(
            dtype=np.int64)),
    })


TPCH_Q22_SQL = """
WITH scoped AS (
  SELECT c_custkey,
         CAST(c_nationkey AS BIGINT) AS cntrycode,
         CAST(floor(c_acctbal * 100.0 + 0.5) AS BIGINT) AS bal_c
  FROM customer WHERE c_nationkey IN (3, 8, 13, 17, 21)
), pos AS (
  SELECT CAST(sum(bal_c) AS BIGINT) AS sum_c,
         CAST(count(*) AS BIGINT) AS cnt
  FROM scoped WHERE bal_c > 0
)
SELECT cntrycode,
       CAST(count(*) AS BIGINT) AS numcust,
       CAST(sum(bal_c) AS BIGINT) AS totacctbal_c
FROM scoped, pos
WHERE bal_c * cnt > sum_c
  AND NOT EXISTS (SELECT 1 FROM orders
                  WHERE o_custkey = c_custkey
                    AND o_orderdate >= TIMESTAMP '2000-01-01')
GROUP BY 1 ORDER BY 1
"""


# ---------------------------------------------------------------------------
# Q21 shape: suppliers who kept orders waiting (EXISTS + NOT EXISTS)
# ---------------------------------------------------------------------------

def tpch_q21_waiting_supplier(sf_dir: str, topk: int = 10) -> pa.Table:
    """TPC-H Q21 shape (suppliers who kept orders waiting): for
    finished ('F') multi-supplier orders, the supplier who is the
    ONLY one with a returned line -- the EXISTS (another supplier
    participated) + NOT EXISTS (no other supplier failed) double
    correlation (l_returnflag='R' stands in for the late-receipt
    predicate; the testdata has no commit/receipt dates).

    Scale shape: lineitem collapses per block to distinct
    (orderkey, suppkey, any_R) triples before the exchange; orders
    ship only F-status keys; the orderkey co-partition kernel
    re-dedups pairs (cross-block duplicates), counts suppliers and
    failing suppliers per order with one lexsort + reduceat, and
    emits bare suppkeys; the per-supplier census is O(suppliers) and
    the top-k tiebreak (count desc, name asc) happens on that bounded
    result with names from a broadcast sorted array.
    """
    import pyarrow.parquet as pq

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderstatus"])
    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_suppkey", "l_returnflag"])

    def o_norm(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["o_orderstatus"], "F"))
        n = t.num_rows
        return pa.table({"k": pc.cast(t["o_orderkey"], pa.int64()),
                         "sk": pa.nulls(n, type=pa.int64()),
                         "has_r": pa.nulls(n, type=pa.int64())})

    def l_norm(t: pa.Table) -> pa.Table:
        ok = pc.cast(t["l_orderkey"], pa.int64()).to_numpy(
            zero_copy_only=False)
        sk = pc.cast(t["l_suppkey"], pa.int64()).to_numpy(
            zero_copy_only=False)
        r = pc.equal(t["l_returnflag"], "R").to_numpy(
            zero_copy_only=False).astype(np.int64)
        order = np.lexsort((-r, sk, ok))
        ok, sk, r = ok[order], sk[order], r[order]
        first = np.ones(ok.shape[0], dtype=bool)
        first[1:] = (ok[1:] != ok[:-1]) | (sk[1:] != sk[:-1])
        return pa.table({"k": pa.array(ok[first]),
                         "sk": pa.array(sk[first]),
                         "has_r": pa.array(r[first])})

    both = (orders.map_batches(o_norm, batch_format="pyarrow",
                               zero_copy_batch=True)
            .union(li.map_batches(l_norm, batch_format="pyarrow",
                                  zero_copy_batch=True)))

    out_empty = pa.table({"s_suppkey": pa.array([], type=pa.int64())})

    def fold(t: pa.Table) -> pa.Table:
        k = t["k"].to_numpy(zero_copy_only=False)
        is_o = pc.is_null(t["sk"]).to_numpy(zero_copy_only=False)
        fkeys = np.unique(k[is_o])
        is_l = ~is_o
        if fkeys.size == 0 or not is_l.any():
            return out_empty
        ok = k[is_l]
        sk = t["sk"].to_numpy(zero_copy_only=False)[is_l] \
            .astype(np.int64)
        r = t["has_r"].to_numpy(zero_copy_only=False)[is_l] \
            .astype(np.int64)
        # re-dedup (ok, sk) pairs across blocks, keeping any-R
        order = np.lexsort((-r, sk, ok))
        ok, sk, r = ok[order], sk[order], r[order]
        first = np.ones(ok.shape[0], dtype=bool)
        first[1:] = (ok[1:] != ok[:-1]) | (sk[1:] != sk[:-1])
        ok, sk, r = ok[first], sk[first], r[first]
        # per-order supplier census
        starts = np.flatnonzero(np.concatenate(
            ([True], ok[1:] != ok[:-1])))
        nsupp = np.diff(np.concatenate((starts, [ok.shape[0]])))
        nr = np.add.reduceat(r, starts)
        grp = np.repeat(np.arange(starts.shape[0]), nsupp)
        # order status F?
        pos = np.searchsorted(fkeys, ok[starts])
        pos = np.minimum(pos, fkeys.shape[0] - 1)
        is_f = fkeys[pos] == ok[starts]
        qual = is_f & (nsupp >= 2) & (nr == 1)
        emit = qual[grp] & (r == 1)
        return pa.table({"s_suppkey": pa.array(sk[emit])})

    folded = partition_by(both, ["k"], fit_partitions(32), fold,
                          out_empty)
    agg = combine_agg(folded, ["s_suppkey"], lambda t: t,
                      [("s_suppkey", "count")],
                      named("s_suppkey", "numwait")).to_pandas()

    sup = pq.read_table(f"{sf_dir}/supplier.parquet",
                        columns=["s_suppkey", "s_name"])
    s_order = pc.sort_indices(sup["s_suppkey"])
    sup_keys = sup["s_suppkey"].take(s_order).to_numpy(
        zero_copy_only=False).astype(np.int64)
    sup_names = np.asarray(sup["s_name"].take(s_order).to_pylist())
    sk = agg["s_suppkey"].to_numpy(dtype=np.int64)
    nw = agg["numwait"].to_numpy(dtype=np.int64)
    names = sup_names[np.searchsorted(sup_keys, sk)]
    order = np.lexsort((names, -nw))[:topk]
    return pa.table({
        "s_name": pa.array(names[order].tolist(), type=pa.string()),
        "numwait": pa.array(nw[order]),
    })


TPCH_Q21_SQL = """
WITH pairs AS (
  SELECT l_orderkey AS ok, l_suppkey AS sk,
         max(CASE WHEN l_returnflag = 'R' THEN 1 ELSE 0 END)
           AS has_r
  FROM lineitem GROUP BY 1, 2
), per_order AS (
  SELECT ok, CAST(count(*) AS BIGINT) AS nsupp,
         CAST(sum(has_r) AS BIGINT) AS nr
  FROM pairs GROUP BY 1
)
SELECT s.s_name, CAST(count(*) AS BIGINT) AS numwait
FROM pairs p
JOIN per_order po ON po.ok = p.ok
JOIN orders o ON o.o_orderkey = p.ok AND o.o_orderstatus = 'F'
JOIN supplier s ON s.s_suppkey = p.sk
WHERE p.has_r = 1 AND po.nsupp >= 2 AND po.nr = 1
GROUP BY 1 ORDER BY numwait DESC, s_name LIMIT 10
"""


# ---------------------------------------------------------------------------
# Q16 shape: distinct supplier census per part descriptor
# ---------------------------------------------------------------------------

def tpch_q16_parts_supplier_census(
        sf_dir: str, excl_brand: str = "Brand#12",
        sizes: tuple = (1, 3, 5, 7, 9)) -> pa.Table:
    """TPC-H Q16 shape (parts/supplier relationship): how many DISTINCT
    suppliers have shipped each (brand, type, size) descriptor,
    excluding one brand and a supplier denylist (stand-in for the
    complaints NOT IN: suppliers with negative account balance).

    Scale shape: qualifying parts fold to a broadcast sorted
    partkey->descriptor-id map and the denylist to a sorted array, so
    lineitem drops non-qualifying rows and collapses to distinct
    (descriptor, supplier) composite cells per block BEFORE the only
    exchange; the composite-key kernel re-dedups and emits one row per
    distinct cell, and the ``combine_agg`` count per descriptor is
    bounded by the descriptor census (brands x types x sizes).  Assumes suppkey
    < 2^40 (asserted) so the composite fits int64.
    """
    import pyarrow.parquet as pq

    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_brand", "p_type",
                                  "p_size"])
    size_arr = np.sort(np.asarray(sizes, dtype=np.int64))
    psize = part["p_size"].to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    pos = np.searchsorted(size_arr, psize)
    pos = np.minimum(pos, size_arr.shape[0] - 1)
    ok_brand = pc.not_equal(part["p_brand"], excl_brand).to_numpy(
        zero_copy_only=False)
    keep = (size_arr[pos] == psize) & ok_brand
    part = part.filter(pa.array(keep))
    order = pc.sort_indices(part["p_partkey"])
    part = part.take(order)
    pk_lut = part["p_partkey"].to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    brands = np.asarray(part["p_brand"].to_pylist())
    types = np.asarray(part["p_type"].to_pylist())
    sizes_col = part["p_size"].to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    desc = np.char.add(np.char.add(brands, "|"),
                       np.char.add(types, "|"))
    desc = np.char.add(desc, sizes_col.astype(np.str_))
    uniq, desc_id = np.unique(desc, return_inverse=True)
    rep = np.zeros(uniq.shape[0], dtype=np.int64)
    rep[desc_id[::-1]] = np.arange(pk_lut.shape[0] - 1, -1, -1,
                                   dtype=np.int64)

    sup = pq.read_table(f"{sf_dir}/supplier.parquet",
                        columns=["s_suppkey", "s_acctbal"])
    bad = np.sort(sup.filter(pc.less(sup["s_acctbal"], 0.0))
                  ["s_suppkey"].to_numpy(zero_copy_only=False)
                  .astype(np.int64))
    lut_ref = ray.put((pk_lut, desc_id, bad))

    li = _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey"])

    empty = pa.table({"cell": pa.array([], type=pa.int64())})

    def cells(t: pa.Table) -> pa.Table:
        pkl, did, badl = ray.get(lut_ref)
        pk = pc.cast(t["l_partkey"], pa.int64()).to_numpy(
            zero_copy_only=False)
        sk = pc.cast(t["l_suppkey"], pa.int64()).to_numpy(
            zero_copy_only=False)
        assert sk.max(initial=0) < (1 << 40), "suppkey >= 2^40"
        pos = np.searchsorted(pkl, pk)
        pos = np.minimum(pos, max(pkl.shape[0] - 1, 0))
        hit = pkl[pos] == pk if pkl.size else np.zeros(pk.size,
                                                       dtype=bool)
        if badl.size:
            bpos = np.searchsorted(badl, sk)
            bpos = np.minimum(bpos, badl.shape[0] - 1)
            hit &= badl[bpos] != sk
        if not hit.any():
            return empty
        cell = (did[pos[hit]] << np.int64(40)) | sk[hit]
        return pa.table({"cell": pa.array(np.unique(cell))})

    staged = li.map_batches(cells, batch_format="pyarrow",
                            zero_copy_batch=True)

    part_empty = pa.table({"desc_id": pa.array([], type=pa.int64())})

    def distinct_cells(t: pa.Table) -> pa.Table:
        # one row per distinct (description, supplier) cell
        c = np.unique(t["cell"].to_numpy(zero_copy_only=False))
        return pa.table({"desc_id": pa.array(c >> np.int64(40))})

    folded = partition_by(staged, ["cell"], fit_partitions(32),
                          distinct_cells, part_empty)
    agg = combine_agg(folded, ["desc_id"], lambda t: t,
                      [("desc_id", "count")],
                      named("desc_id", "supplier_cnt")).to_pandas()
    did = agg["desc_id"].to_numpy(dtype=np.int64)
    cnt = agg["supplier_cnt"].to_numpy(dtype=np.int64)
    b = brands[rep[did]]
    ty = types[rep[did]]
    sz = sizes_col[rep[did]]
    order = np.lexsort((sz, ty, b, -cnt))
    return pa.table({
        "p_brand": pa.array(b[order].tolist(), type=pa.string()),
        "p_type": pa.array(ty[order].tolist(), type=pa.string()),
        "p_size": pa.array(sz[order]),
        "supplier_cnt": pa.array(cnt[order]),
    })


TPCH_Q16_SQL = """
SELECT p_brand, p_type, CAST(p_size AS BIGINT) AS p_size,
       CAST(count(DISTINCT l_suppkey) AS BIGINT) AS supplier_cnt
FROM lineitem
JOIN part ON p_partkey = l_partkey
WHERE p_brand <> 'Brand#12' AND p_size IN (1, 3, 5, 7, 9)
  AND l_suppkey NOT IN (SELECT s_suppkey FROM supplier
                        WHERE s_acctbal < 0)
GROUP BY 1, 2, 3
ORDER BY supplier_cnt DESC, p_brand, p_type, p_size
"""


# ---------------------------------------------------------------------------
# Q11 shape: important parts by national value share
# ---------------------------------------------------------------------------

def tpch_q11_important_parts(sf_dir: str, nation: str = "NATION_3",
                             num: int = 3, den: int = 2) -> pa.Table:
    """TPC-H Q11 shape (important stock identification): parts whose
    revenue from one nation's suppliers exceeds num/den (default 1.5x)
    of the MEAN per-part value -- the grouped-aggregate vs
    global-scalar HAVING pattern (the testdata has no partsupp, so
    lineitem revenue from the nation's suppliers stands in for
    supplycost * availqty; the canonical fixed fraction scales with
    1/SF, so the scale-invariant mean-multiple keeps the query
    non-vacuous at every test scale).

    Scale shape: the nation's suppliers fold to a broadcast sorted
    array; lineitem drops other-nation rows in ``combine_agg``'s prep,
    which folds each batch per part, so the only exchange is the
    O(touched parts) grouped sum; the global total is a sum over that
    same aggregate (never a second fact pass) and the HAVING filter
    is exact integer cross-multiplication pushed into the dataset.
    """
    import pyarrow.parquet as pq

    nat = pq.read_table(f"{sf_dir}/nation.parquet",
                        columns=["n_nationkey", "n_name"])
    nkey = int(nat.filter(pc.equal(nat["n_name"], nation))
               ["n_nationkey"][0].as_py())
    sup = pq.read_table(f"{sf_dir}/supplier.parquet",
                        columns=["s_suppkey", "s_nationkey"])
    nat_sk = np.sort(sup.filter(
        pc.equal(pc.cast(sup["s_nationkey"], pa.int64()), nkey))
        ["s_suppkey"].to_numpy(zero_copy_only=False)
        .astype(np.int64))
    sk_ref = ray.put(nat_sk)

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_suppkey", "l_extendedprice",
                "l_discount"])

    empty = pa.table({"p_partkey": pa.array([], type=pa.int64()),
                      "value_c": pa.array([], type=pa.int64())})

    def per_part(t: pa.Table) -> pa.Table:
        skl = ray.get(sk_ref)
        sk = pc.cast(t["l_suppkey"], pa.int64()).to_numpy(
            zero_copy_only=False)
        pos = np.searchsorted(skl, sk)
        pos = np.minimum(pos, max(skl.shape[0] - 1, 0))
        hit = skl[pos] == sk if skl.size else np.zeros(sk.size,
                                                       dtype=bool)
        t = t.filter(pa.array(hit))
        p = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        d = t["l_discount"].to_numpy(zero_copy_only=False)
        rev = np.floor(p * (1.0 - d) * 100.0 + 0.5).astype(np.int64)
        return pa.table({"p_partkey": pc.cast(t["l_partkey"], pa.int64()),
                         "value_c": pa.array(rev)})

    per = combine_agg(li, ["p_partkey"], per_part, [("value_c", "sum")],
                      named("p_partkey", "value_c")).materialize()
    total = int(per.sum("value_c") or 0)
    nparts = per.count()
    if nparts == 0:
        return empty

    # value_c * den * nparts > num * total  <=>  value_c >= floor+1
    thr = num * total // (den * nparts) + 1
    kept = per.filter(expr=f"value_c >= {thr}").to_pandas()
    if kept.empty:
        return empty
    pk = kept["p_partkey"].to_numpy(dtype=np.int64)
    v = kept["value_c"].to_numpy(dtype=np.int64)
    order = np.lexsort((pk, -v))
    return pa.table({"p_partkey": pa.array(pk[order]),
                     "value_c": pa.array(v[order])})


TPCH_Q11_SQL = """
WITH scoped AS (
  SELECT l_partkey AS p_partkey,
         CAST(sum(CAST(floor(l_extendedprice * (1.0 - l_discount)
                             * 100.0 + 0.5) AS BIGINT)) AS BIGINT)
           AS value_c
  FROM lineitem
  JOIN supplier ON s_suppkey = l_suppkey
  JOIN nation ON n_nationkey = s_nationkey
  WHERE n_name = 'NATION_3'
  GROUP BY 1
)
SELECT p_partkey, value_c FROM scoped
WHERE value_c * 2 * (SELECT count(*) FROM scoped)
      > 3 * (SELECT sum(value_c) FROM scoped)
ORDER BY value_c DESC, p_partkey
"""


# ---------------------------------------------------------------------------
# Q2 shape: minimum-cost supplier per part (correlated argmin join-back)
# ---------------------------------------------------------------------------

def tpch_q2_min_cost_supplier(sf_dir: str, region: str = "EUROPE",
                              p_size: int = 5,
                              p_type: str = "STANDARD",
                              topk: int = 100) -> pa.Table:
    """TPC-H Q2 shape (minimum cost supplier): for each part of one
    size+type class, the in-region supplier with the LOWEST observed
    unit price -- the correlated per-group min + join-back-with-
    tiebreak pattern (the testdata has no partsupp, so the minimum
    lineitem unit price stands in for min supplycost; ties break to
    the lowest suppkey).  Unit price is exact integer tenth-micro
    units: (price_cents * 10^6) // qty_hundredths, positive-domain
    floor division identical in numpy and DuckDB.

    Scale shape: the part class and the region's suppliers fold to
    broadcast sorted arrays, so lineitem drops out-of-scope rows AND
    collapses to one (part, best unit, best supplier) candidate per
    block in the stateless map; the partkey kernel repeats the same
    lexsort-first argmin, leaving O(class parts) rows; names/balances
    attach from broadcast supplier arrays at the end.
    """
    import pyarrow.parquet as pq

    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_size", "p_type"])
    keep = pc.and_(pc.equal(pc.cast(part["p_size"], pa.int64()),
                            p_size),
                   pc.equal(part["p_type"], p_type))
    class_pk = np.sort(part.filter(keep)["p_partkey"].to_numpy(
        zero_copy_only=False).astype(np.int64))

    nat = pq.read_table(f"{sf_dir}/nation.parquet")
    reg = pq.read_table(f"{sf_dir}/region.parquet")
    rkey = reg.filter(pc.equal(reg["r_name"], region))
    rkey = int(rkey["r_regionkey"][0].as_py())
    nat_in = nat.filter(pc.equal(pc.cast(nat["n_regionkey"],
                                         pa.int64()), rkey))
    nat_keys = np.sort(nat_in["n_nationkey"].to_numpy(
        zero_copy_only=False).astype(np.int64))
    nat_sorted = nat_in.take(pc.sort_indices(nat_in["n_nationkey"]))
    nat_names = np.asarray(nat_sorted["n_name"].to_pylist())

    sup = pq.read_table(f"{sf_dir}/supplier.parquet")
    s_order = pc.sort_indices(sup["s_suppkey"])
    sup = sup.take(s_order)
    sup_keys = sup["s_suppkey"].to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    sup_nat = sup["s_nationkey"].to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    sup_names = np.asarray(sup["s_name"].to_pylist())
    sup_bal_c = np.floor(sup["s_acctbal"].to_numpy(
        zero_copy_only=False) * 100.0 + 0.5).astype(np.int64)
    npos = np.searchsorted(nat_keys, sup_nat)
    npos = np.minimum(npos, max(nat_keys.shape[0] - 1, 0))
    in_region = nat_keys[npos] == sup_nat if nat_keys.size else \
        np.zeros(sup_nat.shape[0], dtype=bool)
    lut_ref = ray.put((class_pk, sup_keys, in_region))

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_suppkey", "l_quantity",
                "l_extendedprice"])

    empty = pa.table({"pk": pa.array([], type=pa.int64()),
                      "unit_tm": pa.array([], type=pa.int64()),
                      "sk": pa.array([], type=pa.int64())})

    def candidates(t: pa.Table) -> pa.Table:
        pkl, skl, reg_ok = ray.get(lut_ref)
        pk = pc.cast(t["l_partkey"], pa.int64()).to_numpy(
            zero_copy_only=False)
        sk = pc.cast(t["l_suppkey"], pa.int64()).to_numpy(
            zero_copy_only=False)
        ppos = np.searchsorted(pkl, pk)
        ppos = np.minimum(ppos, max(pkl.shape[0] - 1, 0))
        hit = pkl[ppos] == pk if pkl.size else np.zeros(
            pk.size, dtype=bool)
        spos = np.searchsorted(skl, sk)
        spos = np.minimum(spos, skl.shape[0] - 1)
        hit &= (skl[spos] == sk) & reg_ok[spos]
        if not hit.any():
            return empty
        pk, sk = pk[hit], sk[hit]
        cents = np.floor(t["l_extendedprice"].to_numpy(
            zero_copy_only=False)[hit] * 100.0 + 0.5) \
            .astype(np.int64)
        qh = np.floor(t["l_quantity"].to_numpy(
            zero_copy_only=False)[hit] * 100.0 + 0.5) \
            .astype(np.int64)
        unit = (cents * 1_000_000) // qh
        order = np.lexsort((sk, unit, pk))
        pk, unit, sk = pk[order], unit[order], sk[order]
        first = np.ones(pk.shape[0], dtype=bool)
        first[1:] = pk[1:] != pk[:-1]
        return pa.table({"pk": pa.array(pk[first]),
                         "unit_tm": pa.array(unit[first]),
                         "sk": pa.array(sk[first])})

    staged = li.map_batches(candidates, batch_format="pyarrow",
                            zero_copy_batch=True)

    def argmin_fold(t: pa.Table) -> pa.Table:
        pk = t["pk"].to_numpy(zero_copy_only=False)
        unit = t["unit_tm"].to_numpy(zero_copy_only=False)
        sk = t["sk"].to_numpy(zero_copy_only=False)
        order = np.lexsort((sk, unit, pk))
        pk, unit, sk = pk[order], unit[order], sk[order]
        first = np.ones(pk.shape[0], dtype=bool)
        first[1:] = pk[1:] != pk[:-1]
        return pa.table({"pk": pa.array(pk[first]),
                         "unit_tm": pa.array(unit[first]),
                         "sk": pa.array(sk[first])})

    best = partition_by(staged, ["pk"], fit_partitions(32),
                        argmin_fold, empty).to_pandas()
    pk = best["pk"].to_numpy(dtype=np.int64)
    unit = best["unit_tm"].to_numpy(dtype=np.int64)
    sk = best["sk"].to_numpy(dtype=np.int64)
    spos = np.searchsorted(sup_keys, sk)
    bal = sup_bal_c[spos]
    names = sup_names[spos]
    nnames = nat_names[np.searchsorted(
        nat_keys, sup_nat[spos])]
    order = np.lexsort((pk, names, nnames, -bal))[:topk]
    return pa.table({
        "s_acctbal_c": pa.array(bal[order]),
        "s_name": pa.array(names[order].tolist(), type=pa.string()),
        "n_name": pa.array(nnames[order].tolist(),
                           type=pa.string()),
        "p_partkey": pa.array(pk[order]),
        "unit_price_tm": pa.array(unit[order]),
    })


TPCH_Q2_SQL = """
WITH scoped AS (
  SELECT l_partkey AS pk, l_suppkey AS sk,
         CAST(floor(l_extendedprice * 100.0 + 0.5) AS BIGINT)
           * 1000000
           // CAST(floor(l_quantity * 100.0 + 0.5) AS BIGINT)
           AS unit_tm
  FROM lineitem
  JOIN part ON p_partkey = l_partkey
  JOIN supplier ON s_suppkey = l_suppkey
  JOIN nation ON n_nationkey = s_nationkey
  JOIN region ON r_regionkey = n_regionkey
  WHERE p_size = 5 AND p_type = 'STANDARD' AND r_name = 'EUROPE'
), best AS (
  SELECT pk, min(unit_tm) AS unit_tm FROM scoped GROUP BY 1
), pick AS (
  SELECT s.pk, s.unit_tm, CAST(min(s.sk) AS BIGINT) AS sk
  FROM scoped s JOIN best b ON b.pk = s.pk
                           AND b.unit_tm = s.unit_tm
  GROUP BY 1, 2
)
SELECT CAST(floor(su.s_acctbal * 100.0 + 0.5) AS BIGINT)
         AS s_acctbal_c,
       su.s_name, n.n_name, p.pk AS p_partkey,
       p.unit_tm AS unit_price_tm
FROM pick p
JOIN supplier su ON su.s_suppkey = p.sk
JOIN nation n ON n.n_nationkey = su.s_nationkey
ORDER BY s_acctbal_c DESC, n_name, s_name, p_partkey LIMIT 100
"""


# ---------------------------------------------------------------------------
# Q9 shape: product profit by supplier nation and year
# ---------------------------------------------------------------------------

def tpch_q9_product_profit(sf_dir: str,
                           name_token: str = "red") -> pa.Table:
    """TPC-H Q9 shape (product type profit): per supplier nation and
    order year, the profit on parts whose name contains a token --
    amount = revenue - cost with cost prorated per unit (the testdata
    has no partsupp, so p_retailprice stands in for ps_supplycost:
    cost_c = (retail_cents * qty_hundredths) // 100, a positive-domain
    floor division identical in numpy and DuckDB).

    Scale shape: the name-matched parts fold to broadcast sorted
    (partkey, retail_cents) arrays and non-matching lineitems drop in
    the stateless prep map (which also folds revenue-minus-cost to one
    int64); supplier nation rides the same broadcast; the single
    orderkey co-partition join attaches the order year and folds to
    O(nations x years) rows in-kernel.
    """
    import pyarrow.parquet as pq

    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_name",
                                  "p_retailprice"])
    keep = pc.match_substring(part["p_name"], name_token)
    part = part.filter(keep)
    order = pc.sort_indices(part["p_partkey"])
    part = part.take(order)
    pk_lut = part["p_partkey"].to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    retail_c = np.floor(part["p_retailprice"].to_numpy(
        zero_copy_only=False) * 100.0 + 0.5).astype(np.int64)

    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_name"])
    n_order = pc.sort_indices(nation["n_nationkey"])
    nation = nation.take(n_order)
    nat_keys = nation["n_nationkey"].to_numpy(
        zero_copy_only=False).astype(np.int64)
    nat_names = np.asarray(nation["n_name"].to_pylist())

    sup = pq.read_table(f"{sf_dir}/supplier.parquet",
                        columns=["s_suppkey", "s_nationkey"])
    s_order = pc.sort_indices(sup["s_suppkey"])
    sup = sup.take(s_order)
    sup_keys = sup["s_suppkey"].to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    sup_nat_idx = np.searchsorted(nat_keys, sup["s_nationkey"]
                                  .to_numpy(zero_copy_only=False)
                                  .astype(np.int64))
    lut_ref = ray.put((pk_lut, retail_c, sup_keys, sup_nat_idx))

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_partkey", "l_suppkey",
                "l_quantity", "l_extendedprice", "l_discount"])
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"])

    def li_norm(t: pa.Table) -> pa.Table:
        pkl, rc, skl, sni = ray.get(lut_ref)
        pk = pc.cast(t["l_partkey"], pa.int64()).to_numpy(
            zero_copy_only=False)
        pos = np.searchsorted(pkl, pk)
        pos = np.minimum(pos, max(pkl.shape[0] - 1, 0))
        hit = pkl[pos] == pk if pkl.size else np.zeros(pk.size,
                                                       dtype=bool)
        t2 = t.filter(pa.array(hit))
        p = t2["l_extendedprice"].to_numpy(zero_copy_only=False)
        d = t2["l_discount"].to_numpy(zero_copy_only=False)
        rev = np.floor(p * (1.0 - d) * 100.0 + 0.5).astype(np.int64)
        qh = np.floor(t2["l_quantity"].to_numpy(zero_copy_only=False)
                      * 100.0 + 0.5).astype(np.int64)
        cost = (rc[pos[hit]] * qh) // 100
        sk = pc.cast(t2["l_suppkey"], pa.int64()).to_numpy(
            zero_copy_only=False)
        spos = np.searchsorted(skl, sk)
        spos = np.minimum(spos, skl.shape[0] - 1)
        return pa.table({"k": pc.cast(t2["l_orderkey"], pa.int64()),
                         "nat_i": pa.array(sni[spos]),
                         "amount_c": pa.array(rev - cost),
                         "yr": pa.nulls(t2.num_rows,
                                        type=pa.int64())})

    def o_norm(t: pa.Table) -> pa.Table:
        yr = _year_of(pc.cast(t["o_orderdate"], pa.int64()).to_numpy(
            zero_copy_only=False))
        n = t.num_rows
        return pa.table({"k": pc.cast(t["o_orderkey"], pa.int64()),
                         "nat_i": pa.nulls(n, type=pa.int64()),
                         "amount_c": pa.nulls(n, type=pa.int64()),
                         "yr": pa.array(yr)})

    both = (li.map_batches(li_norm, batch_format="pyarrow",
                           zero_copy_batch=True)
            .union(orders.map_batches(o_norm, batch_format="pyarrow",
                                      zero_copy_batch=True)))

    YR0, NYR = 1990, 20
    out_empty = pa.table({"cell": pa.array([], type=pa.int64()),
                          "profit_c": pa.array([], type=pa.int64())})

    def join_fold(t: pa.Table) -> pa.Table:
        k = t["k"].to_numpy(zero_copy_only=False)
        is_o = pc.is_valid(t["yr"]).to_numpy(zero_copy_only=False)
        is_l = ~is_o
        if not is_o.any() or not is_l.any():
            return out_empty
        okk = k[is_o]
        oyr = t["yr"].to_numpy(zero_copy_only=False)[is_o] \
            .astype(np.int64)
        order = np.argsort(okk, kind="stable")
        okk, oyr = okk[order], oyr[order]
        lk = k[is_l]
        pos = np.searchsorted(okk, lk)
        pos = np.minimum(pos, okk.shape[0] - 1)
        hit = okk[pos] == lk
        if not hit.any():
            return out_empty
        yr = oyr[pos[hit]] - YR0
        nat_i = t["nat_i"].to_numpy(zero_copy_only=False)[is_l] \
            .astype(np.int64)[hit]
        amt = t["amount_c"].to_numpy(zero_copy_only=False)[is_l] \
            .astype(np.int64)[hit]
        return pa.table({"cell": pa.array(nat_i * NYR + yr),
                         "profit_c": pa.array(amt)})

    folded = partition_by(both, ["k"], fit_partitions(32), join_fold,
                          out_empty)
    agg = combine_agg(folded, ["cell"], lambda t: t, [("profit_c", "sum")],
                      named("cell", "profit_c")).to_pandas()
    cells = agg["cell"].to_numpy(dtype=np.int64)
    prof = agg["profit_c"].to_numpy(dtype=np.int64)
    nn = nat_names[cells // NYR]
    yr = YR0 + cells % NYR
    order = np.lexsort((-yr, nn))
    return pa.table({
        "nation": pa.array(nn[order].tolist(), type=pa.string()),
        "o_year": pa.array(yr[order]),
        "profit_c": pa.array(prof[order]),
    })


TPCH_Q9_SQL = """
SELECT n.n_name AS nation,
       CAST(EXTRACT(year FROM o.o_orderdate) AS BIGINT) AS o_year,
       CAST(sum(CAST(floor(l.l_extendedprice * (1.0 - l.l_discount)
                           * 100.0 + 0.5) AS BIGINT)
                - CAST(floor(p.p_retailprice * 100.0 + 0.5)
                       AS BIGINT)
                  * CAST(floor(l.l_quantity * 100.0 + 0.5)
                         AS BIGINT) // 100) AS BIGINT) AS profit_c
FROM lineitem l
JOIN part p ON p.p_partkey = l.l_partkey
JOIN orders o ON o.o_orderkey = l.l_orderkey
JOIN supplier s ON s.s_suppkey = l.l_suppkey
JOIN nation n ON n.n_nationkey = s.s_nationkey
WHERE p.p_name LIKE '%red%'
GROUP BY 1, 2
ORDER BY nation, o_year DESC
"""


# ---------------------------------------------------------------------------
# Q20 shape: dominant-supplier semi-join
# ---------------------------------------------------------------------------

def tpch_q20_dominant_suppliers(sf_dir: str, nation: str = "NATION_5",
                                brand: str = "Brand#23",
                                mult: int = 2) -> pa.Table:
    """TPC-H Q20 shape (potential part promotion): suppliers in one
    nation who DOMINATE some brand part -- shipped more than `mult`
    times the average supplier's share of that part's quantity (the
    testdata has no partsupp/availqty, so "availqty > half of shipped"
    becomes a mean-multiple dominance test; a fixed 50% bar is vacuous
    when ~25 suppliers split every part).  Keeps the
    per-(part,supplier) aggregate vs per-part scalar comparison +
    distinct-supplier semi-join shape.

    Scale shape: brand partkeys and the nation's suppliers fold to
    broadcast sorted arrays; lineitem drops non-brand rows and
    pre-folds (part, supplier) quantities per block; the partkey
    kernel computes per-part totals and per-pair sums with one
    lexsort + two reduceats and emits bare dominating suppkeys; the
    distinct + nation filter + name sort run on the O(suppliers)
    result.
    """
    import pyarrow.parquet as pq

    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_brand"])
    brand_pk = np.sort(part.filter(
        pc.equal(part["p_brand"], brand))["p_partkey"].to_numpy(
        zero_copy_only=False).astype(np.int64))

    nat = pq.read_table(f"{sf_dir}/nation.parquet",
                        columns=["n_nationkey", "n_name"])
    nkey = int(nat.filter(pc.equal(nat["n_name"], nation))
               ["n_nationkey"][0].as_py())
    sup = pq.read_table(f"{sf_dir}/supplier.parquet",
                        columns=["s_suppkey", "s_name",
                                 "s_nationkey"])
    s_order = pc.sort_indices(sup["s_suppkey"])
    sup = sup.take(s_order)
    sup_keys = sup["s_suppkey"].to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    sup_names = np.asarray(sup["s_name"].to_pylist())
    sup_nat = sup["s_nationkey"].to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    lut_ref = ray.put(brand_pk)

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_suppkey", "l_quantity"])

    empty = pa.table({"pk": pa.array([], type=pa.int64()),
                      "sk": pa.array([], type=pa.int64()),
                      "qh": pa.array([], type=pa.int64())})

    def pair_partial(t: pa.Table) -> pa.Table:
        pkl = ray.get(lut_ref)
        pk = pc.cast(t["l_partkey"], pa.int64()).to_numpy(
            zero_copy_only=False)
        pos = np.searchsorted(pkl, pk)
        pos = np.minimum(pos, max(pkl.shape[0] - 1, 0))
        hit = pkl[pos] == pk if pkl.size else np.zeros(pk.size,
                                                       dtype=bool)
        if not hit.any():
            return empty
        pk = pk[hit]
        sk = pc.cast(t["l_suppkey"], pa.int64()).to_numpy(
            zero_copy_only=False)[hit]
        qh = np.floor(t["l_quantity"].to_numpy(
            zero_copy_only=False)[hit] * 100.0 + 0.5) \
            .astype(np.int64)
        order = np.lexsort((sk, pk))
        pk, sk, qh = pk[order], sk[order], qh[order]
        starts = np.flatnonzero(np.concatenate(
            ([True], (pk[1:] != pk[:-1]) | (sk[1:] != sk[:-1]))))
        return pa.table({"pk": pa.array(pk[starts]),
                         "sk": pa.array(sk[starts]),
                         "qh": pa.array(np.add.reduceat(qh, starts))})

    staged = li.map_batches(pair_partial, batch_format="pyarrow",
                            zero_copy_batch=True)

    dom_empty = pa.table({"sk": pa.array([], type=pa.int64())})

    def dominate(t: pa.Table) -> pa.Table:
        pk = t["pk"].to_numpy(zero_copy_only=False)
        sk = t["sk"].to_numpy(zero_copy_only=False)
        qh = t["qh"].to_numpy(zero_copy_only=False)
        order = np.lexsort((sk, pk))
        pk, sk, qh = pk[order], sk[order], qh[order]
        # merge cross-block pair partials
        pstarts = np.flatnonzero(np.concatenate(
            ([True], (pk[1:] != pk[:-1]) | (sk[1:] != sk[:-1]))))
        pk, sk = pk[pstarts], sk[pstarts]
        qh = np.add.reduceat(qh, pstarts)
        # per-part totals
        tstarts = np.flatnonzero(np.concatenate(
            ([True], pk[1:] != pk[:-1])))
        tot = np.add.reduceat(qh, tstarts)
        npair = np.diff(np.concatenate((tstarts, [pk.shape[0]])))
        total_of = np.repeat(tot, npair)
        np_of = np.repeat(npair, npair)
        dom = qh * np_of > mult * total_of
        if not dom.any():
            return dom_empty
        return pa.table({"sk": pa.array(np.unique(sk[dom]))})

    doms = partition_by(staged, ["pk"], fit_partitions(32), dominate,
                        dom_empty).to_pandas()
    if doms.empty:
        return pa.table({"s_name": pa.array([], type=pa.string())})
    sk = np.unique(doms["sk"].to_numpy(dtype=np.int64))
    pos = np.searchsorted(sup_keys, sk)
    pos = np.minimum(pos, max(sup_keys.shape[0] - 1, 0))
    keep = (sup_keys[pos] == sk) & (sup_nat[pos] == nkey)
    names = np.sort(sup_names[pos[keep]])
    return pa.table({"s_name": pa.array(names.tolist(),
                                        type=pa.string())})


TPCH_Q20_SQL = """
WITH pair AS (
  SELECT l_partkey AS pk, l_suppkey AS sk,
         CAST(sum(CAST(floor(l_quantity * 100.0 + 0.5) AS BIGINT))
              AS BIGINT) AS qh
  FROM lineitem
  JOIN part ON p_partkey = l_partkey
  WHERE p_brand = 'Brand#23'
  GROUP BY 1, 2
), tot AS (
  SELECT pk, CAST(sum(qh) AS BIGINT) AS total,
         CAST(count(*) AS BIGINT) AS np FROM pair GROUP BY 1
)
SELECT DISTINCT s.s_name
FROM pair p
JOIN tot t ON t.pk = p.pk
JOIN supplier s ON s.s_suppkey = p.sk
JOIN nation n ON n.n_nationkey = s.s_nationkey
WHERE p.qh * t.np > 2 * t.total AND n.n_name = 'NATION_5'
ORDER BY s.s_name
"""
