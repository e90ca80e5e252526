"""Approximate-aggregation pipelines: HLL distinct count, count-min point
queries, Bloom-prefiltered semi-join.

Each is the distributed build/merge of a mergeable accumulator (the same
dataflow as DDSketch, SURVEY.md section 3.3) with an exact-SQL-replicable
estimator, wired into __ray_entry__ as oracle-matched queries.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..sketches.bloom import BloomFilter
from ..sketches.countmin import CountMinSketch
from ..sketches.hll import HyperLogLog
from ..sources.tables import read_table as _read
from ..stages.combine import combine_agg, named
from ..stages.generic_build import build_and_merge


def _key_counts(ds: "ray.data.Dataset", key: str) -> "ray.data.Dataset":
    """(key, n): every value of ``ds[key]`` with its row count."""
    return combine_agg(ds, [key], lambda t: t.select([key]), [(key, "count")],
                       named(key, "n"))


def hll_build(ds, col: str, p: int = 12,
              hash_kind: str = "murmur64") -> HyperLogLog:
    def add(s: HyperLogLog, t: pa.Table) -> None:
        c = t[col]
        if c.null_count:
            c = c.drop_null()
        s.add_batch(c.to_numpy(zero_copy_only=False))
    return build_and_merge(ds, [col], lambda: HyperLogLog(p, hash_kind), add)


def hll_distinct_users(sf_dir: str) -> pa.Table:
    """HLL distinct-count of events.user_id with register-level stats so the
    DuckDB oracle can verify the whole sketch state, not just the estimate."""
    h = hll_build(_read(sf_dir, "events", ["user_id"]), "user_id", p=12)
    regs = h.registers
    return pa.table({
        "m": pa.array([h.m], type=pa.int64()),
        "nonzero_registers": pa.array([int((regs > 0).sum())], type=pa.int64()),
        "sum_registers": pa.array([int(regs.astype(np.int64).sum())],
                                  type=pa.int64()),
        "hll_estimate": pa.array([round(h.estimate(), 6)], type=pa.float64()),
    })


def cms_build(ds, col: str, width: int = 8192,
              depth: int = 4) -> CountMinSketch:
    def add(s: CountMinSketch, t: pa.Table) -> None:
        c = t[col]
        if c.null_count:
            c = c.drop_null()
        s.add_batch(c.to_numpy(zero_copy_only=False))
    return build_and_merge(ds, [col], lambda: CountMinSketch(width, depth), add)


def cms_user_counts(sf_dir: str) -> pa.Table:
    """Count-min estimated event count per distinct user: integer counters
    + DuckDB-replicable cells make the estimates exactly hash-matchable."""
    ds = _read(sf_dir, "events", ["user_id"])
    cms = cms_build(ds, "user_id", width=8192, depth=4)
    keys = np.asarray(sorted(ds.unique("user_id")), dtype=np.int64)
    est = cms.estimate(keys)
    return pa.table({
        "user_id": pa.array(keys, type=pa.int64()),
        "est_count": pa.array(est.astype(np.int64), type=pa.int64()),
    })


def bloom_semijoin_orders(sf_dir: str, min_acctbal: float = 7000.0) -> "ray.data.Dataset":
    """Semi-join via Bloom prefilter + exact confirm.

    Small side: customers with c_acctbal > min_acctbal.  A Bloom filter of
    their keys is broadcast (ray.put) and probed inside map_batches over
    orders -- at 100 TB this prunes the stream before the exact
    confirmation set is consulted, and false positives are removed by the
    exact set, so the output equals the plain semi-join (the SQL oracle).
    """
    import pyarrow.parquet as pq
    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_acctbal"])
    keys = cust.filter(pc.greater(cust["c_acctbal"],
                                  min_acctbal))["c_custkey"].to_numpy()
    bloom = BloomFilter.sized_for(max(64, len(keys)), fp_rate=0.01)
    bloom.add_batch(keys.astype(np.int64))
    bloom_ref = ray.put(bloom.to_row())
    # exact-confirm side: broadcast sorted int64 array, probed with np.isin
    exact_ref = ray.put(np.unique(keys.astype(np.int64)))

    ds = _read(sf_dir, "orders", ["o_custkey", "o_orderstatus"])

    def probe(t: pa.Table) -> pa.Table:
        b = BloomFilter.from_row(ray.get(bloom_ref))
        cand = b.contains_batch(t["o_custkey"].to_numpy(zero_copy_only=False)
                                .astype(np.int64))
        t = t.filter(pa.array(cand))
        confirm = ray.get(exact_ref)
        ok = np.isin(t["o_custkey"].to_numpy(zero_copy_only=False), confirm)
        return t.filter(pa.array(ok))

    return combine_agg(ds, ["o_orderstatus"], probe,
                       [("o_custkey", "count")],
                       named("o_orderstatus", "n_orders"))


def hll_users_by_type(sf_dir: str, p: int = 12) -> "ray.data.Dataset":
    """GROUPED HLL: approximate distinct users per event_type -- the
    generic-sketch dataflow with a group key (one partial accumulator per
    (block, group), merged per group), emitting register-level stats so
    the DuckDB replica verifies the whole per-group sketch state.

    Scale shape: the shuffle moves one ~2^p-byte blob per (block, group)
    -- classic partial aggregation, skew-immune like the DDSketch path
    (a hot group still contributes one blob per block)."""
    import pickle

    ds = _read(sf_dir, "events", ["event_type", "user_id"])

    def partials(t: pa.Table) -> pa.Table:
        et = t["event_type"].to_numpy(zero_copy_only=False)
        uid = (t["user_id"].drop_null().to_numpy(zero_copy_only=False)
               .astype(np.int64)
               if t["user_id"].null_count else
               t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64))
        ut, inv = np.unique(et, return_inverse=True)
        names, blobs = [], []
        for g in range(ut.shape[0]):   # bounded by group cardinality
            h = HyperLogLog(p, "murmur64")
            h.add_batch(uid[inv == g])
            names.append(ut[g])
            blobs.append(pickle.dumps(h))
        return pa.table({"event_type": pa.array(names, type=pa.string()),
                         "blob": pa.array(blobs, type=pa.binary())})

    def merge_group(group: pa.Table) -> pa.Table:
        merged = None
        for b in group["blob"].to_pylist():
            s = pickle.loads(b)
            merged = s if merged is None else merged.merge(s)
        regs = merged.registers
        return pa.table({
            "event_type": pa.array([group["event_type"][0].as_py()],
                                   type=pa.string()),
            "m": pa.array([merged.m], type=pa.int64()),
            "nonzero_registers": pa.array([int((regs > 0).sum())],
                                          type=pa.int64()),
            "sum_registers": pa.array([int(regs.astype(np.int64).sum())],
                                      type=pa.int64()),
            "hll_estimate": pa.array([round(merged.estimate(), 6)],
                                     type=pa.float64()),
        })

    return (ds.map_batches(partials, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby("event_type")
            .map_groups(merge_group, batch_format="pyarrow"))


def _kmv_group_partials(ds, group_col: str, value_col: str, k: int):
    """One pickled KMV partial per (block, group) -- the same skew-immune
    partial-aggregation shape as the DDSketch / grouped-HLL paths."""
    import pickle

    from ..sketches.kmv import KMVSketch

    def partials(t: pa.Table) -> pa.Table:
        g = t[group_col].to_numpy(zero_copy_only=False)
        v = (t[value_col].drop_null().to_numpy(zero_copy_only=False)
             .astype(np.int64)
             if t[value_col].null_count else
             t[value_col].to_numpy(zero_copy_only=False).astype(np.int64))
        ut, inv = np.unique(g, return_inverse=True)
        names, blobs = [], []
        for i in range(ut.shape[0]):   # bounded by group cardinality
            s = KMVSketch(k)
            s.add_batch(v[inv == i])
            names.append(ut[i])
            blobs.append(pickle.dumps(s))
        return pa.table({group_col: pa.array(names, type=pa.string()),
                         "blob": pa.array(blobs, type=pa.binary())})

    return ds.map_batches(partials, batch_format="pyarrow",
                          zero_copy_batch=True)


def kmv_sketches_by_group(sf_dir: str, k: int = 64) -> dict:
    """Merged per-event_type KMV sketches of user_id (driver-side dict:
    group cardinality is small by contract; each sketch is <= 8k bytes)."""
    import pickle

    ds = _read(sf_dir, "events", ["event_type", "user_id"])
    parts = _kmv_group_partials(ds, "event_type", "user_id", k)

    def merge_group(group: pa.Table) -> pa.Table:
        merged = None
        for b in group["blob"].to_pylist():
            s = pickle.loads(b)
            merged = s if merged is None else merged.merge(s)
        return pa.table({
            "event_type": pa.array([group["event_type"][0].as_py()],
                                   type=pa.string()),
            "blob": pa.array([pickle.dumps(merged)], type=pa.binary()),
        })

    out = (parts.groupby("event_type")
           .map_groups(merge_group, batch_format="pyarrow")
           .materialize().to_arrow_refs())
    import ray as _ray
    sketches = {}
    for ref in out:
        t = _ray.get(ref)
        if t.num_rows == 0:   # 0-row blocks arrive schema-less in Ray 2.49
            continue
        for et, blob in zip(t["event_type"].to_pylist(),
                            t["blob"].to_pylist()):
            sketches[et] = pickle.loads(blob)
    return sketches


def kmv_distinct_users(sf_dir: str, k: int = 64) -> pa.Table:
    """KMV bottom-k distinct users per event_type with the FULL sketch
    state oracle-verifiable: k-th hash (split 32/32 into int64 columns),
    a mod-2^31 checksum over the stored set, and the estimate -- the
    DuckDB replica recomputes all of it from ``hash(user_id)`` because
    murmur64 bit-matches DuckDB ``hash(BIGINT)``."""
    sketches = kmv_sketches_by_group(sf_dir, k)
    rows = []
    for et in sorted(sketches):
        s = sketches[et]
        kth = np.uint64(s.kth)
        rows.append({
            "event_type": et,
            "n_mins": s.n_mins,
            "kth_hi": int(kth >> np.uint64(32)),
            "kth_lo": int(kth & np.uint64(0xFFFFFFFF)),
            "mins_checksum": s.checksum(),
            "est_distinct": s.estimate(),
        })
    return pa.table({
        "event_type": pa.array([r["event_type"] for r in rows]),
        "n_mins": pa.array([r["n_mins"] for r in rows], type=pa.int64()),
        "kth_hi": pa.array([r["kth_hi"] for r in rows], type=pa.int64()),
        "kth_lo": pa.array([r["kth_lo"] for r in rows], type=pa.int64()),
        "mins_checksum": pa.array([r["mins_checksum"] for r in rows],
                                  type=pa.int64()),
        "est_distinct": pa.array([r["est_distinct"] for r in rows],
                                 type=pa.int64()),
    })


def kmv_user_overlap(sf_dir: str, k: int = 64) -> pa.Table:
    """Set ALGEBRA between per-group KMV sketches: estimated union and
    intersection of the user sets of every event_type pair -- the
    capability HLL lacks and the reason KMV is in the family.  All
    arithmetic is float64 with the op order replicated in the oracle."""
    sketches = kmv_sketches_by_group(sf_dir, k)
    types = sorted(sketches)
    rows = []
    for i, ta in enumerate(types):
        for tb in types[i + 1:]:
            est_u, n_common, n_l = sketches[ta].union_intersection(
                sketches[tb])
            est_i = (np.float64(n_common) / n_l) * est_u
            rows.append({
                "type_a": ta, "type_b": tb, "n_l": n_l,
                "n_common": n_common,
                "est_union": int(np.floor(est_u + 0.5)),
                "est_intersection": int(np.floor(est_i + 0.5)),
            })
    return pa.table({
        "type_a": pa.array([r["type_a"] for r in rows]),
        "type_b": pa.array([r["type_b"] for r in rows]),
        "n_l": pa.array([r["n_l"] for r in rows], type=pa.int64()),
        "n_common": pa.array([r["n_common"] for r in rows],
                             type=pa.int64()),
        "est_union": pa.array([r["est_union"] for r in rows],
                              type=pa.int64()),
        "est_intersection": pa.array([r["est_intersection"] for r in rows],
                                     type=pa.int64()),
    })


def kmv_anotb_users(sf_dir: str, k: int = 64) -> pa.Table:
    """Theta-sketch set DIFFERENCE between per-group KMV sketches: for
    every ordered event-type pair (a, b), the estimated count of users
    who did ``a`` but never ``b`` -- the A-not-B operation that
    completes the KMV set-algebra family (union/intersection in
    `kmv_user_overlap`).  theta and the kept-count are emitted alongside
    the estimate so the DuckDB replica verifies the full decision, not
    just the rounded number (theta rides as a 32/32 split to stay in
    int64)."""
    sketches = kmv_sketches_by_group(sf_dir, k)
    types = sorted(sketches)
    rows = []
    for ta in types:
        for tb in types:
            if ta == tb:
                continue
            n_keep, theta, est_f = sketches[ta].a_not_b(sketches[tb])
            rows.append({
                "type_a": ta, "type_b": tb, "n_keep": n_keep,
                "theta_hi": theta >> 32,
                "theta_lo": theta & 0xFFFFFFFF,
                "est_diff": int(np.floor(est_f + 0.5)),
            })
    return pa.table({
        "type_a": pa.array([r["type_a"] for r in rows]),
        "type_b": pa.array([r["type_b"] for r in rows]),
        "n_keep": pa.array([r["n_keep"] for r in rows], type=pa.int64()),
        "theta_hi": pa.array([r["theta_hi"] for r in rows],
                             type=pa.int64()),
        "theta_lo": pa.array([r["theta_lo"] for r in rows],
                             type=pa.int64()),
        "est_diff": pa.array([r["est_diff"] for r in rows],
                             type=pa.int64()),
    })


KMV_ANOTB_SQL = """
WITH d AS (SELECT DISTINCT event_type, hash(user_id) AS hv FROM events),
r AS (SELECT event_type, hv,
             row_number() OVER (PARTITION BY event_type ORDER BY hv) rn
      FROM d),
topk AS (SELECT event_type, hv FROM r WHERE rn <= 64),
st AS (SELECT event_type, CAST(count(*) AS BIGINT) AS n, max(hv) AS kth
       FROM topk GROUP BY 1),
pairs AS (SELECT a.event_type AS ta, b.event_type AS tb
          FROM (SELECT DISTINCT event_type FROM events) a
          JOIN (SELECT DISTINCT event_type FROM events) b
            ON a.event_type <> b.event_type),
th AS (SELECT p.ta, p.tb,
              CASE WHEN sa.n >= 64 AND sb.n >= 64
                     THEN LEAST(sa.kth, sb.kth)
                   WHEN sa.n >= 64 THEN sa.kth
                   WHEN sb.n >= 64 THEN sb.kth
                   ELSE NULL END AS theta
       FROM pairs p
       JOIN st sa ON sa.event_type = p.ta
       JOIN st sb ON sb.event_type = p.tb),
keepc AS (SELECT th.ta, th.tb, CAST(count(*) AS BIGINT) AS n_keep
          FROM th JOIN topk a
            ON a.event_type = th.ta
           AND (th.theta IS NULL OR a.hv <= th.theta)
          WHERE NOT EXISTS (SELECT 1 FROM topk b
                            WHERE b.event_type = th.tb
                              AND b.hv = a.hv)
          GROUP BY 1, 2)
SELECT th.ta AS type_a, th.tb AS type_b,
       COALESCE(k.n_keep, 0) AS n_keep,
       COALESCE(CAST(th.theta // 4294967296 AS BIGINT), 0) AS theta_hi,
       COALESCE(CAST(th.theta % 4294967296 AS BIGINT), 0) AS theta_lo,
       CAST(FLOOR((CASE WHEN th.theta IS NULL
                        THEN CAST(COALESCE(k.n_keep, 0) AS DOUBLE)
                        ELSE CAST(COALESCE(k.n_keep, 0) AS DOUBLE)
                             * (18446744073709551616.0
                                / CAST(th.theta AS DOUBLE))
                   END) + 0.5) AS BIGINT) AS est_diff
FROM th LEFT JOIN keepc k ON k.ta = th.ta AND k.tb = th.tb
ORDER BY 1, 2
"""


def mg_heavy_users(sf_dir: str, k: int = 400,
                   inv_phi: float = 200.0) -> "ray.data.Dataset":
    """Deterministic frequent-items: every user whose event count is at
    least ``ceil(n / inv_phi)``, with EXACT counts -- the Misra-Gries
    counterpart of `cms_user_counts` (counter-based, hash-free, bounded
    memory) run as candidate-generation + one exact confirm pass.

    Scale shape: pass 1 folds each block to a <= k-counter summary (one
    pickled row per block through the generic tree reduce -- kilobytes
    regardless of corpus size); the merged summary's candidate set
    (<= k ids, guaranteed to contain every true heavy hitter because
    min_count > err <= n/(k+1)) is broadcast into pass 2, which
    pre-reduces per-candidate counts inside each block so the confirm
    shuffle moves O(k x blocks) tiny rows.  At 100 TB the driver never
    holds more than k counters."""
    from ..sketches.misragries import MisraGries
    import math

    ds = _read(sf_dir, "events", ["user_id"])

    def add(s: MisraGries, t: pa.Table) -> None:
        s.add_batch(t["user_id"].to_numpy(zero_copy_only=False))

    summary = build_and_merge(ds, ["user_id"], lambda: MisraGries(k), add)
    min_count = int(math.ceil(summary.n / inv_phi))
    if min_count <= summary.err:
        raise ValueError(
            f"MG guarantee violated: min_count {min_count} <= err "
            f"{summary.err}; raise k (k={k}, need k+1 > n/min_count)")
    cand = np.sort(summary.candidates(min_count))

    empty = pa.table({"user_id": pa.array([], type=pa.int64()),
                      "n_events": pa.array([], type=pa.int64())})
    if cand.size == 0:
        # no candidate survives the MG guarantee => the exact answer is
        # the empty set; return the typed empty table directly so the
        # schema survives without a confirm pass (the sf0.1 regime,
        # where no user reaches ceil(n / inv_phi) events)
        return empty

    def confirm(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(cand, uid)
        idx[idx == cand.size] = 0
        return pa.table({"user_id": pa.array(
            uid[cand[idx] == uid].astype(np.int64))})

    agg = combine_agg(ds, ["user_id"], confirm, [("user_id", "count")],
                      named("user_id", "n_events"))
    return agg.map_batches(
        lambda t: t.filter(pc.greater_equal(t["n_events"],
                                            pa.scalar(min_count))),
        batch_format="pyarrow")


MG_HEAVY_USERS_SQL = """
WITH tot AS (SELECT count(*) AS n FROM events),
c AS (
  SELECT user_id, CAST(count(*) AS BIGINT) AS n_events
  FROM events GROUP BY 1
)
SELECT c.user_id, c.n_events FROM c, tot
WHERE c.n_events >= CAST(ceil(tot.n / 200.0) AS BIGINT)
ORDER BY 1
"""


def join_size_estimate(sf_dir: str, type_a: str = "click",
                       type_b: str = "view") -> pa.Table:
    """JOIN-SIZE ESTIMATION by count-min inner product (the Cormode &
    Muthukrishnan application of CM to equi-join cardinality, J.Alg
    2005 s4.3): |A join B on user_id| = sum_u cntA(u) * cntB(u) is
    estimated as min over rows d of dot(cmsA[d], cmsB[d]) -- the
    planner-side answer a distributed optimizer wants BEFORE running a
    shuffle join, from two tiny mergeable counter arrays.  Output: the
    exact join size (computed distributed for the error audit), the CM
    estimate, and the overestimate in ppm (CM inner product never
    underestimates).

    Scale shape: both sketches build via the standard streaming counter
    partials (O(depth x width) ints per block); the exact audit is one
    user-keyed co-partition of per-side count partials.  The oracle
    rebuilds every counter cell with the proven hash(xor)) % width
    replica and takes the same row-dot minimum."""
    from ..stages.partition import fit_partitions, partition_by
    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    def side(tname: str):
        return (ds.filter(expr=f"event_type == '{tname}'")
                .select_columns(["user_id"]))

    cms_a = cms_build(side(type_a), "user_id", width=8192, depth=4)
    cms_b = cms_build(side(type_b), "user_id", width=8192, depth=4)
    dots = (cms_a.table.astype(object) * cms_b.table.astype(object)) \
        .sum(axis=1)                      # Python ints: no overflow
    est = int(min(dots))

    # exact audit: per-user counts per side, product-summed per partition
    pair_empty = pa.table({"user_id": pa.array([], type=pa.int64()),
                           "ca": pa.array([], type=pa.int64()),
                           "cb": pa.array([], type=pa.int64())})

    def block_counts(t: pa.Table) -> pa.Table:
        et = t["event_type"].to_numpy(zero_copy_only=False)
        uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        is_a, is_b = et == type_a, et == type_b
        m = is_a | is_b
        if not m.any():
            return pair_empty
        uu, inv = np.unique(uid[m], return_inverse=True)
        ca = np.zeros(uu.shape[0], dtype=np.int64)
        cb = np.zeros(uu.shape[0], dtype=np.int64)
        np.add.at(ca, inv, is_a[m].astype(np.int64))
        np.add.at(cb, inv, is_b[m].astype(np.int64))
        return pa.table({"user_id": pa.array(uu), "ca": pa.array(ca),
                         "cb": pa.array(cb)})

    prod_empty = pa.table({"prod": pa.array([], type=pa.int64())})

    def fold(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        ca = t["ca"].to_numpy(zero_copy_only=False)
        cb = t["cb"].to_numpy(zero_copy_only=False)
        uu, inv = np.unique(uid, return_inverse=True)
        sa = np.zeros(uu.shape[0], dtype=np.int64)
        sb = np.zeros(uu.shape[0], dtype=np.int64)
        np.add.at(sa, inv, ca)
        np.add.at(sb, inv, cb)
        return pa.table({"prod": pa.array([int((sa * sb).sum())],
                                          type=pa.int64())})

    partials = ds.map_batches(block_counts, batch_format="pyarrow",
                              zero_copy_batch=True)
    per_part = partition_by(partials, ["user_id"], fit_partitions(32),
                            fold, prod_empty)
    from ray.data.aggregate import Sum
    exact = int(per_part.aggregate(Sum("prod", alias_name="p"))["p"] or 0)

    return pa.table({
        "exact_join_size": pa.array([exact], type=pa.int64()),
        "cms_estimate": pa.array([est], type=pa.int64()),
        "over_ppm": pa.array([(est - exact) * 1_000_000 // exact
                              if exact else 0], type=pa.int64()),
    })


JOIN_SIZE_ESTIMATE_SQL = """
WITH a AS (
  SELECT user_id, CAST(count(*) AS BIGINT) AS c FROM events
  WHERE event_type = 'click' GROUP BY 1
), b AS (
  SELECT user_id, CAST(count(*) AS BIGINT) AS c FROM events
  WHERE event_type = 'view' GROUP BY 1
), exact AS (
  SELECT CAST(coalesce(sum(a.c * b.c), 0) AS BIGINT) AS x
  FROM a JOIN b USING (user_id)
), seeds(d, s) AS (VALUES (0, 461845907), (1, 3432918353),
                          (2, 2246822507), (3, 3266489909)),
ca AS (
  SELECT s.d, hash(xor(a.user_id, CAST(s.s AS BIGINT))) % 8192 AS w,
         CAST(sum(a.c) AS BIGINT) AS c
  FROM a CROSS JOIN seeds s GROUP BY 1, 2
), cb AS (
  SELECT s.d, hash(xor(b.user_id, CAST(s.s AS BIGINT))) % 8192 AS w,
         CAST(sum(b.c) AS BIGINT) AS c
  FROM b CROSS JOIN seeds s GROUP BY 1, 2
), dots AS (
  SELECT ca.d, CAST(sum(ca.c * cb.c) AS BIGINT) AS dot
  FROM ca JOIN cb ON cb.d = ca.d AND cb.w = ca.w
  GROUP BY 1
)
SELECT exact.x AS exact_join_size,
       (SELECT CAST(min(dot) AS BIGINT) FROM dots) AS cms_estimate,
       CAST(((SELECT min(dot) FROM dots) - exact.x) * 1000000
            // exact.x AS BIGINT) AS over_ppm
FROM exact
"""


class _HLLPair:
    """Two HLLs built in ONE scan (sets A and B by a row predicate),
    mergeable as a unit so build_and_merge's tree reduce applies."""

    def __init__(self, p: int):
        self.a = HyperLogLog(p, "murmur64")
        self.b = HyperLogLog(p, "murmur64")

    def merge(self, other: "_HLLPair") -> "_HLLPair":
        self.a = self.a.merge(other.a)
        self.b = self.b.merge(other.b)
        return self


def hll_type_overlap(sf_dir: str, type_a: str = "click",
                     type_b: str = "view", p: int = 12) -> pa.Table:
    """HLL INCLUSION-EXCLUSION set overlap: estimated |A ∩ B| of the
    user sets behind two event types from three register estimates
    (|A| + |B| - |A ∪ B|), where the union sketch is the elementwise
    register max -- the audience-overlap question answered with three
    4 KB sketches instead of a distinct shuffle of both sides.

    Both per-type sketches are built in ONE pass over events (a
    mergeable pair accumulator through the generic tree reduce); the
    union is a register merge on the driver.  The DuckDB oracle
    replays the register pipeline for A, B, and A-union-B and the
    identical estimator expression, so all four estimates hash-match.
    """
    ds = _read(sf_dir, "events", ["event_type", "user_id"])

    def add(s: _HLLPair, t: pa.Table) -> None:
        uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        et = t["event_type"]
        in_a = np.asarray(pc.equal(et, pa.scalar(type_a)))
        in_b = np.asarray(pc.equal(et, pa.scalar(type_b)))
        s.a.add_batch(uid[in_a])
        s.b.add_batch(uid[in_b])

    pair = build_and_merge(ds, ["event_type", "user_id"],
                           lambda: _HLLPair(p), add)
    union = pair.a.copy().merge(pair.b)
    ea, eb, eu = pair.a.estimate(), pair.b.estimate(), union.estimate()
    return pa.table({
        "type_a": pa.array([type_a], type=pa.string()),
        "type_b": pa.array([type_b], type=pa.string()),
        "est_a": pa.array([round(ea, 6)], type=pa.float64()),
        "est_b": pa.array([round(eb, 6)], type=pa.float64()),
        "est_union": pa.array([round(eu, 6)], type=pa.float64()),
        "est_intersection": pa.array([round(ea + eb - eu, 6)],
                                     type=pa.float64()),
    })


class _OracleBloom:
    """Bloom bitmap with SQL-replicable Kirsch-Mitzenmacher positions:
    pos_i(key) = ((h1 % m) + i * (h2 % m)) % m from the two MD5 halves
    of str(key) -- every step integer-exact in DuckDB.  Mergeable
    (bitwise OR); used by the FPR audit, while the production semi-join
    path keeps the faster splitmix BloomFilter."""

    def __init__(self, m_bits: int, k: int):
        self.m = int(m_bits)
        self.k = int(k)
        self.bits = np.zeros(self.m, dtype=bool)

    def _positions(self, keys: np.ndarray) -> np.ndarray:
        from ..hashing import md5_pair_uint64
        h1, h2 = md5_pair_uint64([str(int(v)) for v in keys])
        a = (h1 % np.uint64(self.m)).astype(np.int64)
        b = (h2 % np.uint64(self.m)).astype(np.int64)
        return np.stack([(a + i * b) % self.m for i in range(self.k)])

    def add_batch(self, keys: np.ndarray) -> None:
        if len(keys):
            self.bits[self._positions(keys).ravel()] = True

    def contains_batch(self, keys: np.ndarray) -> np.ndarray:
        if not len(keys):
            return np.zeros(0, dtype=bool)
        return self.bits[self._positions(keys)].all(axis=0)

    def merge(self, other: "_OracleBloom") -> "_OracleBloom":
        self.bits |= other.bits
        return self


def bloom_fpr_audit(sf_dir: str, m_bits: int = 2048,
                    k: int = 2,
                    min_acctbal: float = 7000.0) -> pa.Table:
    """EMPIRICAL false-positive audit of a Bloom filter: build the
    filter over the member keys (customers above the balance cut),
    probe every NON-member, and report the measured FP count alongside
    the filter's fill -- the number every capacity-planning doc quotes
    and almost nobody measures.  Deliberately small (m=2048) so the
    audit exercises a meaningfully loaded filter at test scale.

    The bitmap uses MD5 double hashing (_OracleBloom) so DuckDB
    reproduces every bit position integer-exactly: the oracle builds
    the same set-bit table, probes the same non-members, and counts
    keys whose k positions all hit -- a bit-level verification of a
    probabilistic structure.

    Scale shape: per-block partial bitmaps tree-merge (generic blob
    reduce, m/8 bytes each); the probe pass streams non-members with
    the merged bitmap broadcast once.
    """
    ds = _read(sf_dir, "customer", ["c_custkey", "c_acctbal"])

    def add(s: _OracleBloom, t: pa.Table) -> None:
        keys = t.filter(pc.greater(t["c_acctbal"], min_acctbal))[
            "c_custkey"].to_numpy(zero_copy_only=False)
        s.add_batch(keys.astype(np.int64))

    bloom = build_and_merge(ds, ["c_custkey", "c_acctbal"],
                            lambda: _OracleBloom(m_bits, k), add)
    bloom_ref = ray.put(bloom)

    empty = pa.table({"n_probes": pa.array([], type=pa.int64()),
                      "n_fp": pa.array([], type=pa.int64())})

    def probe(t: pa.Table) -> pa.Table:
        nm = t.filter(pc.less_equal(t["c_acctbal"], min_acctbal))
        if nm.num_rows == 0:
            return empty
        b = ray.get(bloom_ref)
        hit = b.contains_batch(
            nm["c_custkey"].to_numpy(zero_copy_only=False)
            .astype(np.int64))
        return pa.table({"n_probes": pa.array([nm.num_rows]),
                         "n_fp": pa.array([int(hit.sum())])})

    res = (ds.map_batches(probe, batch_format="pyarrow",
                          zero_copy_batch=True).to_pandas())
    n_probes = int(res["n_probes"].sum())
    n_fp = int(res["n_fp"].sum())
    return pa.table({
        "m_bits": pa.array([m_bits], type=pa.int64()),
        "k": pa.array([k], type=pa.int64()),
        "fill_bits": pa.array([int(bloom.bits.sum())], type=pa.int64()),
        "n_probes": pa.array([n_probes], type=pa.int64()),
        "n_fp": pa.array([n_fp], type=pa.int64()),
        "fpr_ppm": pa.array([n_fp * 1_000_000 // max(n_probes, 1)],
                            type=pa.int64()),
    })


BLOOM_FPR_SQL = """
WITH mem AS (
  SELECT c_custkey AS key FROM customer WHERE c_acctbal > 7000.0
), hs AS (
  SELECT key,
         CAST(('0x' || substr(md5(CAST(key AS VARCHAR)), 1, 16))
              AS UBIGINT) % 2048 AS h1,
         CAST(('0x' || substr(md5(CAST(key AS VARCHAR)), 17, 16))
              AS UBIGINT) % 2048 AS h2
  FROM mem
), bits AS (
  SELECT DISTINCT CAST((h1 + i.range * h2) % 2048 AS BIGINT) AS pos
  FROM hs CROSS JOIN range(0, 2) i
), probe AS (
  SELECT c_custkey AS key FROM customer WHERE c_acctbal <= 7000.0
), ph AS (
  SELECT key,
         CAST(('0x' || substr(md5(CAST(key AS VARCHAR)), 1, 16))
              AS UBIGINT) % 2048 AS h1,
         CAST(('0x' || substr(md5(CAST(key AS VARCHAR)), 17, 16))
              AS UBIGINT) % 2048 AS h2
  FROM probe
), pp AS (
  SELECT key, CAST((h1 + i.range * h2) % 2048 AS BIGINT) AS pos
  FROM ph CROSS JOIN range(0, 2) i
), hitc AS (
  SELECT pp.key, count(*) AS c
  FROM pp JOIN bits USING (pos) GROUP BY 1
), agg AS (
  SELECT (SELECT CAST(count(*) AS BIGINT) FROM probe) AS n_probes,
         CAST(count(*) AS BIGINT) AS n_fp
  FROM hitc WHERE c = 2
)
SELECT CAST(2048 AS BIGINT) AS m_bits, CAST(2 AS BIGINT) AS k,
       (SELECT CAST(count(*) AS BIGINT) FROM bits) AS fill_bits,
       n_probes, n_fp,
       CAST(n_fp * 1000000 // greatest(n_probes, 1) AS BIGINT)
         AS fpr_ppm
FROM agg
"""


def cms_error_report(sf_dir: str, topk: int = 10) -> pa.Table:
    """Count-min ERROR report on the keys that matter: for the top-k
    users by EXACT event count, the CMS estimate and its overestimate
    (CMS never underestimates) -- the sketch-quality panel a production
    heavy-hitter service publishes next to its estimates.

    Reuses the distributed CMS build (integer cells, DuckDB-replicable
    hash(xor(k, seed)) % width) and the exact top-k path (per-block
    count + block-local prereduce); the report join happens on the
    driver over k rows.
    """
    ds = _read(sf_dir, "events", ["user_id"])
    cms = cms_build(ds, "user_id", width=8192, depth=4)
    exact = _key_counts(ds, "user_id")

    def prereduce(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "n" not in t.column_names:
            return pa.table({"user_id": pa.array([], type=pa.int64()),
                             "n": pa.array([], type=pa.int64())})
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        n = t["n"].to_numpy(zero_copy_only=False)
        order = np.lexsort((uid, -n))[:topk]
        return pa.table({"user_id": pa.array(uid[order]),
                         "n": pa.array(n[order])})

    cand = (exact.map_batches(prereduce, batch_format="pyarrow")
            .to_pandas())
    cand = cand.sort_values(["n", "user_id"],
                            ascending=[False, True]).head(topk)
    uids = cand["user_id"].to_numpy(dtype=np.int64)
    ns = cand["n"].to_numpy(dtype=np.int64)
    est = cms.estimate(uids).astype(np.int64)
    return pa.table({
        "user_id": pa.array(uids),
        "exact": pa.array(ns),
        "cms_est": pa.array(est),
        "overestimate": pa.array(est - ns),
    })


CMS_ERROR_SQL = """
WITH counts AS (
  SELECT user_id AS k, CAST(count(*) AS BIGINT) AS c
  FROM events GROUP BY user_id
), seeds(d, s) AS (VALUES (0, 461845907), (1, 3432918353),
                          (2, 2246822507), (3, 3266489909)),
cells AS (
  SELECT s.d AS d, hash(xor(c.k, CAST(s.s AS BIGINT))) % 8192 AS cell,
         CAST(sum(c.c) AS BIGINT) AS tot
  FROM counts c CROSS JOIN seeds s GROUP BY s.d, cell
), est AS (
  SELECT c.k AS user_id, c.c AS exact,
         CAST(min(cells.tot) AS BIGINT) AS cms_est
  FROM counts c CROSS JOIN seeds s
  JOIN cells ON cells.d = s.d
            AND cells.cell = hash(xor(c.k, CAST(s.s AS BIGINT))) % 8192
  GROUP BY 1, 2
)
SELECT user_id, exact, cms_est,
       CAST(cms_est - exact AS BIGINT) AS overestimate
FROM est
ORDER BY exact DESC, user_id ASC
LIMIT 10
"""


_PROFILE_COLS = (
    # (column, hash tier): BIGINT columns ride murmur64 (== DuckDB
    # hash()); VARCHAR columns ride md5_uint64 (== DuckDB md5 prefix --
    # the oracle-replicable string tier; a 100 TB caller swaps in the
    # vectorized fingerprint tier and loses only SQL replicability)
    ("o_custkey", "int"),
    ("o_orderstatus", "str"),
    ("o_orderpriority", "str"),
)


def table_profile_sketched(sf_dir: str) -> pa.Table:
    """One-pass TABLE PROFILER over orders: per profiled column, the
    row count, null count and an HLL(p=12) distinct estimate -- the
    schema-exploration primitive (what a warehouse's ANALYZE collects)
    built from mergeable sketches so a single streamed pass profiles
    every column at once at any scale.

    Scale shape: every value of every column is one (column, register,
    rho) row (a null is register -1); one ``combine_agg`` max/count/sum
    folds them to O(cols x 4096) rows per batch regardless of batch
    size and merges those; the estimator arithmetic (same float op order
    as `hll_distinct_users`) runs on the cols x 4096 grid driver-side.
    Register-level columns (nonzero/sum) ride along so the oracle
    verifies the whole sketch state, not just the rounded estimate."""

    from ..hashing import md5_uint64, murmur64
    from ..sketches.hll import HyperLogLog, register_updates

    cols = [c for c, _ in _PROFILE_COLS]
    ds = _read(sf_dir, "orders", cols)

    def registers(t: pa.Table) -> pa.Table:
        # one row per (row, profiled column): the register the value
        # updates and its rho, or register -1 for a null
        cis, idxs, rhos, nulls = [], [], [], []
        for ci, (col, kind) in enumerate(_PROFILE_COLS):
            arr = t[col]
            valid = arr.is_valid().to_numpy(zero_copy_only=False)
            vals = arr.drop_null()
            if kind == "int":
                h = murmur64(vals.to_numpy(zero_copy_only=False))
            else:
                h = md5_uint64(vals)
            idx = np.full(t.num_rows, -1, dtype=np.int64)
            rho = np.zeros(t.num_rows, dtype=np.int64)
            idx[valid], rho[valid] = register_updates(h, 12)
            cis.append(np.full(t.num_rows, ci, dtype=np.int64))
            idxs.append(idx)
            rhos.append(rho)
            nulls.append((~valid).astype(np.int64))
        return pa.table({"ci": pa.array(np.concatenate(cis)),
                         "idx": pa.array(np.concatenate(idxs)),
                         "rho": pa.array(np.concatenate(rhos)),
                         "null": pa.array(np.concatenate(nulls))})

    merged = combine_agg(ds, ["ci", "idx"], registers,
                         [("rho", "max"), ("rho", "count"),
                          ("null", "sum")],
                         named("ci", "idx", "rho", "n", "n_null")
                         ).to_pandas()
    rows = []
    for ci, (col, _) in enumerate(_PROFILE_COLS):
        sub = merged[merged["ci"] == ci]
        n = int(sub["n"].sum())
        n_null = int(sub["n_null"].sum())
        regs_rows = sub[sub["idx"] >= 0]
        h = HyperLogLog(12)
        h.registers[regs_rows["idx"].to_numpy(dtype=np.int64)] = \
            regs_rows["rho"].to_numpy(dtype=np.int64).astype(np.uint8)
        regs = h.registers
        rows.append((col, n, n_null, int((regs > 0).sum()),
                     int(regs.astype(np.int64).sum()),
                     round(h.estimate(), 6)))
    return pa.table({
        "col": pa.array([r[0] for r in rows], type=pa.string()),
        "n_rows": pa.array([r[1] for r in rows], type=pa.int64()),
        "n_nulls": pa.array([r[2] for r in rows], type=pa.int64()),
        "nonzero_registers": pa.array([r[3] for r in rows],
                                      type=pa.int64()),
        "sum_registers": pa.array([r[4] for r in rows],
                                  type=pa.int64()),
        "hll_estimate": pa.array([r[5] for r in rows],
                                 type=pa.float64()),
    })


def _profile_branch_sql(col: str, kind: str) -> str:
    if kind == "int":
        hexpr = f"hash({col}::BIGINT)"
    else:
        hexpr = (f"CAST(('0x' || substr(md5({col}), 1, 16)) "
                 "AS UBIGINT)")
    return f"""
SELECT '{col}' AS col,
       (SELECT CAST(count(*) AS BIGINT) FROM orders) AS n_rows,
       (SELECT CAST(count(*) - count({col}) AS BIGINT) FROM orders)
         AS n_nulls,
       nonzero AS nonzero_registers, sumr AS sum_registers,
       round(CASE WHEN raw <= 2.5*4096 AND zeros > 0
                  THEN 4096 * ln(4096.0 / CAST(zeros AS DOUBLE))
                  ELSE raw END, 6) AS hll_estimate
FROM (
  SELECT nonzero, sumr, 4096 - nonzero AS zeros,
         (0.7213/(1.0 + 1.079/4096)) * 4096 * 4096 /
             (s_nonzero + CAST(4096 - nonzero AS DOUBLE)) AS raw
  FROM (
    SELECT count(*) AS nonzero, CAST(sum(r) AS BIGINT) AS sumr,
           sum(pow(2.0, -CAST(r AS DOUBLE))) AS s_nonzero
    FROM (
      SELECT idx, max(rho) AS r FROM (
        SELECT CAST(hv >> 52 AS BIGINT) AS idx,
               CASE WHEN (hv & 4503599627370495::UBIGINT) = 0 THEN 53
                    ELSE 52 - CAST(floor(log2(CAST(hv
                         & 4503599627370495::UBIGINT AS DOUBLE)))
                         AS BIGINT)
               END AS rho
        FROM (SELECT {hexpr} AS hv FROM orders
              WHERE {col} IS NOT NULL) hh
      ) rr GROUP BY idx
    ) mx
  ) stats
) est
"""


TABLE_PROFILE_SQL = "\nUNION ALL\n".join(
    _profile_branch_sql(c, k) for c, k in _PROFILE_COLS
) + "\nORDER BY col"


def cms_weighted_revenue(sf_dir: str, width: int = 8192,
                         depth: int = 4, k: int = 20) -> pa.Table:
    """WEIGHTED count-min: per-customer total order value estimated
    from a CMS whose increments are integer cents instead of 1 -- the
    turnstile-sum capability (estimate any key's aggregate from a
    fixed-size linear state; counters stay a linear function of the
    input so merge is still elementwise addition).  Reports the top-k
    customers by estimated revenue.

    Scale shape: identical dataflow to `cms_user_counts` (per-block
    partial counters, elementwise tree merge); the probe set here is
    the full customer key list (bounded dim -- a 100 TB caller probes
    an MG-candidate set instead)."""
    ds = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def add(s: CountMinSketch, t: pa.Table) -> None:
        keys = t["o_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        cents = np.floor(t["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100.0 + 0.5).astype(np.int64)
        s.add_batch(keys, cents)

    cms = build_and_merge(ds, ["o_custkey", "o_totalprice"],
                          lambda: CountMinSketch(width, depth), add)
    keys = np.asarray(sorted(ds.unique("o_custkey")), dtype=np.int64)
    est = cms.estimate(keys).astype(np.int64)
    order = np.lexsort((keys, -est))[:k]
    return pa.table({
        "o_custkey": pa.array(keys[order], type=pa.int64()),
        "est_cents": pa.array(est[order], type=pa.int64()),
    })


CMS_WEIGHTED_SQL = """
WITH w AS (SELECT o_custkey AS k,
                  CAST(sum(CAST(floor(o_totalprice * 100.0 + 0.5)
                                AS BIGINT)) AS BIGINT) AS c
           FROM orders GROUP BY 1),
seeds(d, s) AS (VALUES (0, 461845907), (1, 3432918353),
                       (2, 2246822507), (3, 3266489909)),
cells AS (SELECT s.d AS d,
                 hash(xor(w.k, CAST(s.s AS BIGINT))) % 8192 AS cell,
                 CAST(sum(w.c) AS BIGINT) AS tot
          FROM w CROSS JOIN seeds s GROUP BY s.d, cell)
SELECT w.k AS o_custkey, CAST(min(cells.tot) AS BIGINT) AS est_cents
FROM w CROSS JOIN seeds s
JOIN cells ON cells.d = s.d
          AND cells.cell = hash(xor(w.k, CAST(s.s AS BIGINT))) % 8192
GROUP BY w.k
ORDER BY est_cents DESC, o_custkey
LIMIT 20
"""


def countsketch_build(ds, col: str, width: int = 1024,
                      depth: int = 3):
    from ..sketches.countsketch import CountSketch

    def add(s: CountSketch, t: pa.Table) -> None:
        c = t[col]
        if c.null_count:
            c = c.drop_null()
        s.add_batch(c.to_numpy(zero_copy_only=False))
    return build_and_merge(ds, [col], lambda: CountSketch(width, depth),
                           add)


def countsketch_user_freq(sf_dir: str) -> pa.Table:
    """Count-SKETCH (signed median) event count per distinct user --
    the unbiased counterpart of cms_user_counts: collisions add +-1
    and cancel in expectation instead of stacking one-sided.  Odd
    depth makes the median an exact integer order statistic
    (sum - max - min for depth 3), so every estimate is hash-matchable
    against the DuckDB cell/sign replica.

    Scale shape: identical to the CMS path -- per-block linear
    partials, elementwise-sum tree merge (one depth x width int64
    blob per block leaves each node), probe on the driver over the
    O(distinct users) key census.
    """
    ds = _read(sf_dir, "events", ["user_id"])
    cs = countsketch_build(ds, "user_id", width=1024, depth=3)
    keys = np.asarray(sorted(ds.unique("user_id")), dtype=np.int64)
    est = cs.estimate(keys)
    return pa.table({
        "user_id": pa.array(keys, type=pa.int64()),
        "est_count": pa.array(est.astype(np.int64), type=pa.int64()),
    })


def countsketch_topk_confirm(sf_dir: str, width: int = 256,
                             shortlist: int = 40,
                             topk: int = 20) -> pa.Table:
    """Heavy hitters BY count-sketch shortlist + exact confirm -- the
    composition Charikar'02 was built for: the (deliberately small,
    width=256) signed sketch ranks candidates, the shortlist's exact
    counts come from ONE filtered distributed count, and the final
    top-k is exact for every key the sketch surfaced.  Publishing
    est alongside exact makes the sketch's two-sided error visible
    per key (compare cms_error_report's one-sided panel).

    Scale shape: sketch build = linear per-block partials + tree
    merge; the shortlist (O(k) keys) is broadcast as a sorted array
    and confirmed by one tiny ``combine_agg`` count of the shortlisted
    rows -- the fact stream is never shuffled.
    """
    ds = _read(sf_dir, "events", ["user_id"])
    cs = countsketch_build(ds, "user_id", width=width, depth=3)
    keys = np.asarray(sorted(ds.unique("user_id")), dtype=np.int64)
    est = cs.estimate(keys)
    # shortlist: top by (est desc, user_id asc) -- deterministic
    order = np.lexsort((keys, -est))[:shortlist]
    short = np.sort(keys[order])
    short_ref = ray.put(short)

    def confirm(t: pa.Table) -> pa.Table:
        sl = ray.get(short_ref)
        uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.searchsorted(sl, uid)
        pos[pos == sl.shape[0]] = 0
        return pa.table({"user_id": pa.array(uid[sl[pos] == uid])})

    agg = combine_agg(ds, ["user_id"], confirm, [("user_id", "count")],
                      named("user_id", "exact_count")).to_pandas()
    uid = agg["user_id"].to_numpy().astype(np.int64)
    exact = agg["exact_count"].to_numpy().astype(np.int64)
    est_short = cs.estimate(uid)
    pick = np.lexsort((uid, -exact))[:topk]
    return pa.table({
        "user_id": pa.array(uid[pick], type=pa.int64()),
        "est_count": pa.array(est_short[pick].astype(np.int64)),
        "exact_count": pa.array(exact[pick]),
        "err": pa.array((est_short[pick] - exact[pick])
                        .astype(np.int64)),
    })


class _OracleBloomPair:
    """Two same-shape _OracleBloom bitmaps built in one pass (user sets
    of two event types); mergeable elementwise."""

    def __init__(self, m_bits: int, k: int):
        from p2pddsketch_ray.pipelines.approx import _OracleBloom
        self.a = _OracleBloom(m_bits, k)
        self.b = _OracleBloom(m_bits, k)

    def merge(self, other: "_OracleBloomPair") -> "_OracleBloomPair":
        self.a.merge(other.a)
        self.b.merge(other.b)
        return self


def bloom_intersection_estimate(sf_dir: str, type_a: str = "click",
                                type_b: str = "view",
                                m_bits: int = 4096,
                                k: int = 2) -> pa.Table:
    """Set-cardinality ALGEBRA on Bloom bitmaps (Swamidass & Baldi,
    JCIM 2007): estimate |A|, |B| and |A INTERSECT B| for the user sets
    behind two event types from fill counts alone --
    n-hat = -(m/k) ln((m - X)/m) with X the set-bit count, and
    intersection by inclusion-exclusion with the union filter being
    the bitwise OR (the Bloom merge).  The HLL twin (hll_type_overlap)
    answers the same question with register max; this one works on
    filters a semi-join pipeline has ALREADY built, for free.

    Estimates are integer micro-units with the ln folded per term as
    floor(ln(.)*1e6) BEFORE the -(m/k) multiply, so DuckDB reproduces
    every value exactly (same per-term-floor parity pattern as the
    lang-entropy queries).  MD5 double hashing (_OracleBloom) keeps
    every bit position SQL-replicable.

    Scale shape: one pass, per-block pair-of-bitmap partials
    (2 x m/8 bytes) tree-merged; nothing key-shaped leaves the blocks.
    """
    import math

    ds = _read(sf_dir, "events", ["event_type", "user_id"])

    def add(s: _OracleBloomPair, t: pa.Table) -> None:
        uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        et = t["event_type"]
        s.a.add_batch(uid[np.asarray(pc.equal(et, pa.scalar(type_a)))])
        s.b.add_batch(uid[np.asarray(pc.equal(et, pa.scalar(type_b)))])

    pair = build_and_merge(ds, ["event_type", "user_id"],
                           lambda: _OracleBloomPair(m_bits, k), add)
    fill_a = int(pair.a.bits.sum())
    fill_b = int(pair.b.bits.sum())
    fill_u = int((pair.a.bits | pair.b.bits).sum())

    def est_micro(fill: int) -> int:
        if fill >= m_bits:
            raise ValueError("bloom saturated: size m_bits for the "
                             "expected distinct count")
        ln_micro = math.floor(
            math.log((m_bits - fill) / m_bits) * 1_000_000.0)
        return (m_bits * -ln_micro) // k

    ea, eb, eu = est_micro(fill_a), est_micro(fill_b), est_micro(fill_u)
    return pa.table({
        "type_a": pa.array([type_a], type=pa.string()),
        "type_b": pa.array([type_b], type=pa.string()),
        "m_bits": pa.array([m_bits], type=pa.int64()),
        "fill_a": pa.array([fill_a], type=pa.int64()),
        "fill_b": pa.array([fill_b], type=pa.int64()),
        "fill_union": pa.array([fill_u], type=pa.int64()),
        "est_a_micro": pa.array([ea], type=pa.int64()),
        "est_b_micro": pa.array([eb], type=pa.int64()),
        "est_union_micro": pa.array([eu], type=pa.int64()),
        "est_inter_micro": pa.array([ea + eb - eu], type=pa.int64()),
    })


def decayed_cms_user_scores(sf_dir: str, width: int = 8192,
                            depth: int = 4, k: int = 20) -> pa.Table:
    """TIME-DECAYED heavy hitters from a weighted count-min: each event
    adds ``1e6 >> age_days`` micro-units (half-life one day, ages
    measured from the stream's max ts by exact integer floor division),
    so the sketch answers "who is heavy NOW" from the same fixed-size
    linear state -- decay without per-key timestamps and without
    rescanning (the classic turnstile alternative to a sliding window
    when staleness may fade instead of expiring).

    Determinism: weights are integer bit-shifts of 1e6, the max ts is
    an exact aggregate, and the cells are the DuckDB-replicable
    hash(xor(key, seed)) % width -- every estimate hash-matches.

    Scale shape: one tiny max(ts) pass broadcast as a scalar, then the
    usual per-block partial counters + elementwise tree merge.
    """
    from ray.data.aggregate import Max

    ds = _read(sf_dir, "events", ["ts", "user_id"])
    mx = ds.aggregate(Max("ts"))["max(ts)"]
    # pin to MICROseconds whatever scalar flavor the aggregate returns
    max_us = int(pa.scalar(mx).cast(pa.timestamp("us"))
                 .cast(pa.int64()).as_py())
    DAY_US = 86_400_000_000

    def add(s: CountMinSketch, t: pa.Table) -> None:
        keys = t["user_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        ts = t["ts"].combine_chunks() if isinstance(
            t["ts"], pa.ChunkedArray) else t["ts"]
        if pa.types.is_timestamp(ts.type):
            ts = ts.cast(pa.int64())
        age_d = np.minimum((max_us - ts.to_numpy(zero_copy_only=False)
                            .astype(np.int64)) // DAY_US, 40)
        w = (np.int64(1_000_000) >> age_d).astype(np.int64)
        s.add_batch(keys, w)

    cms = build_and_merge(ds, ["ts", "user_id"],
                          lambda: CountMinSketch(width, depth), add)
    keys = np.asarray(sorted(ds.unique("user_id")), dtype=np.int64)
    est = cms.estimate(keys).astype(np.int64)
    order = np.lexsort((keys, -est))[:k]
    return pa.table({
        "user_id": pa.array(keys[order], type=pa.int64()),
        "est_decayed_micro": pa.array(est[order], type=pa.int64()),
    })


def cms_join_size_estimate(sf_dir: str, width: int = 8192,
                           depth: int = 4) -> pa.Table:
    """JOIN-SIZE estimation from two count-min sketches (the classic
    inner-product bound, Cormode & Muthukrishnan 2005 s4.2): the
    equi-join cardinality |orders JOIN events ON o_custkey = user_id|
    is Sum_k f_o(k) * f_e(k), estimated as min over depth rows of the
    cellwise inner product <cms_o[d], cms_e[d]> -- one-sided
    (never underestimates), computed from two fixed-size states without
    touching the join.  The exact size rides along for the error panel
    (same philosophy as cms_error_report): one broadcast of the
    O(users) event-count census probed per orders block -- the join is
    never materialized even for the exact side.

    Both sketches use the same seeds/width so the DuckDB replica
    rebuilds both cell tables and the identical min-of-inner-products.
    """
    from ray.data.aggregate import Sum

    events = _read(sf_dir, "events", ["user_id"])
    orders = _read(sf_dir, "orders", ["o_custkey"])
    cms_e = cms_build(events, "user_id", width=width, depth=depth)
    cms_o = cms_build(orders, "o_custkey", width=width, depth=depth)
    est = int(min(int(np.dot(cms_o.table[d], cms_e.table[d]))
                  for d in range(depth)))

    # exact join size WITHOUT the join: per-user event counts (bounded
    # census) broadcast; each orders block sums its rows' frequencies
    per_user = _key_counts(events, "user_id").to_pandas()
    uk = per_user["user_id"].to_numpy(dtype=np.int64)
    un = per_user["n"].to_numpy(dtype=np.int64)
    order = np.argsort(uk)
    lut_ref = ray.put((uk[order], un[order]))

    def fold(t: pa.Table) -> pa.Table:
        k, n = ray.get(lut_ref)
        ck = t["o_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        pos = np.searchsorted(k, ck)
        pos[pos == k.shape[0]] = 0
        hit = k[pos] == ck
        return pa.table({"s": pa.array(
            [int(n[pos[hit]].sum())], type=pa.int64())})

    exact = int(orders.map_batches(fold, batch_format="pyarrow",
                                   zero_copy_batch=True)
                .aggregate(Sum("s"))["sum(s)"])
    return pa.table({
        "est_join_size": pa.array([est], type=pa.int64()),
        "exact_join_size": pa.array([exact], type=pa.int64()),
        "overestimate": pa.array([est - exact], type=pa.int64()),
    })


def universe_join_sample(sf_dir: str, buckets: int = 16) -> pa.Table:
    """UNIVERSE (correlated) join sampling: estimate the equi-join
    cardinality |orders JOIN events ON o_custkey = user_id| by sampling
    the KEY UNIVERSE -- keep a row iff murmur64(key) % buckets == 0 on
    BOTH sides, so sampled keys survive together and every join match
    among them is preserved (Bernoulli row sampling would square the
    match-survival probability; hashing the shared key does not).  The
    classic join-approximation fix from the AQP literature
    (BlinkDB/VerdictDB lineage).  est = sampled_size * buckets.

    Scale shape: the sample predicate is a pure streaming map (no
    shuffle, ~1/buckets of each table survives); the sampled events
    census (O(users/buckets)) is broadcast and probed per sampled
    orders block -- the join itself is never materialized.  The exact
    join size rides along the same way (full O(users) census, bounded)
    for the error panel.
    """
    from ray.data.aggregate import Sum

    from ..hashing import murmur64

    events = _read(sf_dir, "events", ["user_id"])
    orders = _read(sf_dir, "orders", ["o_custkey"])
    b = np.uint64(buckets)

    def census(ds, key):
        per = _key_counts(ds, key).to_pandas()
        k = per[key].to_numpy(dtype=np.int64)
        n = per["n"].to_numpy(dtype=np.int64)
        o = np.argsort(k)
        return k[o], n[o]

    ek, en = census(events, "user_id")
    in_sample = (murmur64(ek) % b) == np.uint64(0)
    lut_ref = ray.put((ek, en, ek[in_sample], en[in_sample]))

    def fold(t: pa.Table) -> pa.Table:
        fk, fn, sk, sn = ray.get(lut_ref)
        ck = t["o_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)

        def probe(keys, cnts, probe_keys):
            if probe_keys.shape[0] == 0 or keys.shape[0] == 0:
                return 0
            pos = np.searchsorted(keys, probe_keys)
            pos[pos == keys.shape[0]] = 0
            hit = keys[pos] == probe_keys
            return int(cnts[pos[hit]].sum())

        full = probe(fk, fn, ck)
        samp = probe(sk, sn,
                     ck[(murmur64(ck) % b) == np.uint64(0)])
        return pa.table({"full": pa.array([full], type=pa.int64()),
                         "samp": pa.array([samp], type=pa.int64())})

    agg = (orders.map_batches(fold, batch_format="pyarrow",
                              zero_copy_batch=True)
           .aggregate(Sum("full"), Sum("samp")))
    exact = int(agg["sum(full)"])
    sampled = int(agg["sum(samp)"])
    est = sampled * buckets
    return pa.table({
        "sampled_join_size": pa.array([sampled], type=pa.int64()),
        "est_join_size": pa.array([est], type=pa.int64()),
        "exact_join_size": pa.array([exact], type=pa.int64()),
        "est_error": pa.array([est - exact], type=pa.int64()),
    })


UNIVERSE_JOIN_SAMPLE_SQL = """
WITH se AS (SELECT user_id FROM events WHERE hash(user_id) % 16 = 0),
so AS (SELECT o_custkey FROM orders WHERE hash(o_custkey) % 16 = 0),
s AS (SELECT CAST(count(*) AS BIGINT) AS n
      FROM so JOIN se ON user_id = o_custkey),
ex AS (SELECT CAST(count(*) AS BIGINT) AS n
       FROM orders JOIN events ON o_custkey = user_id)
SELECT s.n AS sampled_join_size,
       CAST(s.n * 16 AS BIGINT) AS est_join_size,
       ex.n AS exact_join_size,
       CAST(s.n * 16 - ex.n AS BIGINT) AS est_error
FROM s CROSS JOIN ex
"""


class _LinearCounter:
    """Linear probabilistic counting bitmap (Whang/Vander-Zanden/Taylor,
    TODS 1990): one bit per md5-derived cell, distinct-count estimated
    from the zero-cell fraction, n_hat = -m * ln(V_n).  Mergeable by
    bitwise OR (order-independent), and -- unlike HLL -- every cell is
    SQL-replicable bit-for-bit from ``md5(CAST(key AS VARCHAR))``, so
    the oracle rebuilds the whole bitmap, not just the estimate.

    The reference's mergeable-accumulator dataflow
    (/root/reference/ddsketch.cc DDS_MergeCollapse) applied to the
    simplest distinct sketch in the literature."""

    def __init__(self, m: int):
        self.m = int(m)
        self.bits = np.zeros(self.m, dtype=bool)

    def add_batch(self, keys: np.ndarray) -> None:
        if len(keys):
            from ..hashing import md5_pair_uint64
            h1, _ = md5_pair_uint64([str(int(v)) for v in keys])
            self.bits[(h1 % np.uint64(self.m)).astype(np.int64)] = True

    def merge(self, other: "_LinearCounter") -> "_LinearCounter":
        self.bits |= other.bits
        return self


def linear_counting_users(sf_dir: str, m: int = 4096) -> pa.Table:
    """LINEAR-COUNTING distinct users: per-block partial bitmaps
    (m/8 bytes each) tree-merge by OR; the estimate -m*ln(zeros/m) and
    the exact distinct ride side by side with the signed error.

    Scale shape: the bitmap is a fixed 512-byte blob regardless of
    input rows -- the whole shuffle is O(blocks * m/8) bytes; the exact
    count is the rows of the per-user grouped count.  At 10^12 rows
    the accuracy collapses once fill approaches 1 (the documented
    regime bound: keep n <~ m * ln(m)); the query surfaces fill so a
    caller can see saturation.
    """
    ds = _read(sf_dir, "events", ["user_id"])

    def add(s: _LinearCounter, t: pa.Table) -> None:
        c = t["user_id"]
        if c.null_count:
            c = c.drop_null()
        s.add_batch(c.to_numpy(zero_copy_only=False))

    lc = build_and_merge(ds, ["user_id"], lambda: _LinearCounter(m), add)
    nonzero = int(lc.bits.sum())
    zeros = m - nonzero
    est = round(-m * float(np.log(zeros / m)), 6) if zeros else float("inf")

    exact = _key_counts(ds, "user_id").count()
    return pa.table({
        "m": pa.array([m], type=pa.int64()),
        "nonzero_bits": pa.array([nonzero], type=pa.int64()),
        "lc_estimate": pa.array([est], type=pa.float64()),
        "exact_distinct": pa.array([exact], type=pa.int64()),
        "err_x1000000": pa.array(
            [int(round(est * 1_000_000)) - exact * 1_000_000],
            type=pa.int64()),
    })


LINEAR_COUNTING_SQL = """
WITH pos AS (
  SELECT DISTINCT
         CAST(CAST(('0x' || substr(md5(CAST(user_id AS VARCHAR)), 1, 16))
              AS UBIGINT) % 4096 AS BIGINT) AS p
  FROM events WHERE user_id IS NOT NULL
), s AS (
  SELECT CAST(count(*) AS BIGINT) AS nonzero,
         CAST(4096 - count(*) AS BIGINT) AS zeros
  FROM pos
), ex AS (
  SELECT CAST(count(DISTINCT user_id) AS BIGINT) AS exact_distinct
  FROM events WHERE user_id IS NOT NULL
)
SELECT CAST(4096 AS BIGINT) AS m,
       nonzero AS nonzero_bits,
       round(-4096 * ln(CAST(zeros AS DOUBLE) / 4096.0), 6) AS lc_estimate,
       exact_distinct,
       CAST(round(round(-4096 * ln(CAST(zeros AS DOUBLE) / 4096.0), 6)
                  * 1000000) AS BIGINT)
         - exact_distinct * 1000000 AS err_x1000000
FROM s CROSS JOIN ex
"""


class _CountingBloom:
    """Counting Bloom filter (Fan/Cao/Almeida/Broder, ToN 2000):
    int32 cells instead of bits so deletions are supported -- the
    turnstile analogue of the plain Bloom, mirroring the reference's
    DDS_DeleteCollapse turnstile path (/root/reference/ddsketch.cc) on
    a membership sketch.  Positions are the same SQL-replicable
    Kirsch-Mitzenmacher md5 double hashing as _OracleBloom; cells add
    under merge (order-independent), deletes subtract.
    """

    def __init__(self, m: int, k: int):
        self.m, self.k = int(m), int(k)
        self.cells = np.zeros(self.m, dtype=np.int64)

    def _positions(self, keys: np.ndarray) -> np.ndarray:
        from ..hashing import md5_pair_uint64
        h1, h2 = md5_pair_uint64([str(int(v)) for v in keys])
        a = (h1 % np.uint64(self.m)).astype(np.int64)
        b = (h2 % np.uint64(self.m)).astype(np.int64)
        return np.stack([(a + i * b) % self.m for i in range(self.k)])

    def update_batch(self, keys: np.ndarray, delta: int) -> None:
        if len(keys):
            np.add.at(self.cells, self._positions(keys).ravel(), delta)

    def contains_batch(self, keys: np.ndarray) -> np.ndarray:
        if not len(keys):
            return np.zeros(0, dtype=bool)
        return (self.cells[self._positions(keys)] > 0).all(axis=0)

    def merge(self, other: "_CountingBloom") -> "_CountingBloom":
        self.cells += other.cells
        return self


def counting_bloom_delete_audit(sf_dir: str, m: int = 4096, k: int = 2,
                                cut: float = 7000.0) -> pa.Table:
    """COUNTING-BLOOM deletion audit: insert every customer key, delete
    the low-balance tier, then probe both sides of the cut against the
    post-delete filter.  Reports the two numbers that matter for any
    deletable membership structure: remaining members must ALL still
    test present (no false negatives -- asserted, not assumed), and the
    deleted keys that still test present (false-stay collisions) are
    counted.  Cell state (sum/nonzero) is oracle-verified bit-exactly.

    Scale shape: inserts and deletes build in one pass as two signed
    partial cell arrays that tree-merge by addition (turnstile, like
    the reference's delete path); probes stream with the merged filter
    broadcast once via ray.put.
    """
    ds = _read(sf_dir, "customer", ["c_custkey", "c_acctbal"])

    def add(s: _CountingBloom, t: pa.Table) -> None:
        keys = t["c_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        s.update_batch(keys, +1)
        low = t.filter(pc.less_equal(t["c_acctbal"], cut))[
            "c_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        s.update_batch(low, -1)

    cbf = build_and_merge(ds, ["c_custkey", "c_acctbal"],
                          lambda: _CountingBloom(m, k), add)
    assert (cbf.cells >= 0).all(), "counting-bloom cell went negative"
    cbf_ref = ray.put(cbf)

    empty = pa.table({c: pa.array([], type=pa.int64())
                      for c in ["n_del", "n_stay", "n_rem", "n_rem_hit"]})

    def probe(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        b = ray.get(cbf_ref)
        low_m = pc.less_equal(t["c_acctbal"], cut)
        dele = t.filter(low_m)["c_custkey"].to_numpy(
            zero_copy_only=False).astype(np.int64)
        rem = t.filter(pc.invert(low_m))["c_custkey"].to_numpy(
            zero_copy_only=False).astype(np.int64)
        return pa.table({
            "n_del": pa.array([len(dele)]),
            "n_stay": pa.array([int(b.contains_batch(dele).sum())]),
            "n_rem": pa.array([len(rem)]),
            "n_rem_hit": pa.array([int(b.contains_batch(rem).sum())]),
        })

    from ray.data.aggregate import Sum
    agg = (ds.map_batches(probe, batch_format="pyarrow",
                          zero_copy_batch=True)
           .aggregate(Sum("n_del"), Sum("n_stay"),
                      Sum("n_rem"), Sum("n_rem_hit")))
    n_rem, n_rem_hit = int(agg["sum(n_rem)"]), int(agg["sum(n_rem_hit)"])
    assert n_rem_hit == n_rem, "counting bloom false negative"
    return pa.table({
        "m": pa.array([m], type=pa.int64()),
        "k": pa.array([k], type=pa.int64()),
        "sum_cells": pa.array([int(cbf.cells.sum())], type=pa.int64()),
        "nonzero_cells": pa.array([int((cbf.cells > 0).sum())],
                                  type=pa.int64()),
        "n_deleted": pa.array([int(agg["sum(n_del)"])], type=pa.int64()),
        "n_false_stay": pa.array([int(agg["sum(n_stay)"])],
                                 type=pa.int64()),
        "n_remaining": pa.array([n_rem], type=pa.int64()),
        "n_remaining_present": pa.array([n_rem_hit], type=pa.int64()),
    })


COUNTING_BLOOM_SQL = """
WITH keyed AS (
  SELECT c_custkey AS key,
         CASE WHEN c_acctbal <= 7000.0 THEN -1 ELSE 0 END AS del_f,
         CAST(('0x' || substr(md5(CAST(c_custkey AS VARCHAR)), 1, 16))
              AS UBIGINT) % 4096 AS h1,
         CAST(('0x' || substr(md5(CAST(c_custkey AS VARCHAR)), 17, 16))
              AS UBIGINT) % 4096 AS h2
  FROM customer
), incr AS (
  -- +1 at both positions for every key, -1 for the deleted tier
  SELECT CAST((h1 + i.range * h2) % 4096 AS BIGINT) AS pos,
         CAST(1 + del_f AS BIGINT) AS w
  FROM keyed CROSS JOIN range(0, 2) i
), cells AS (
  SELECT pos, CAST(sum(w) AS BIGINT) AS c FROM incr GROUP BY pos
), probes AS (
  SELECT key, del_f,
         CAST((h1 + i.range * h2) % 4096 AS BIGINT) AS pos
  FROM keyed CROSS JOIN range(0, 2) i
), hits AS (
  SELECT p.key, p.del_f, min(coalesce(c.c, 0)) AS mn
  FROM probes p LEFT JOIN cells c USING (pos)
  GROUP BY 1, 2
)
SELECT CAST(4096 AS BIGINT) AS m, CAST(2 AS BIGINT) AS k,
       (SELECT CAST(sum(c) AS BIGINT) FROM cells) AS sum_cells,
       (SELECT CAST(count(*) AS BIGINT) FROM cells WHERE c > 0)
         AS nonzero_cells,
       CAST(sum(CASE WHEN del_f = -1 THEN 1 ELSE 0 END) AS BIGINT)
         AS n_deleted,
       CAST(sum(CASE WHEN del_f = -1 AND mn > 0 THEN 1 ELSE 0 END)
            AS BIGINT) AS n_false_stay,
       CAST(sum(CASE WHEN del_f = 0 THEN 1 ELSE 0 END) AS BIGINT)
         AS n_remaining,
       CAST(sum(CASE WHEN del_f = 0 AND mn > 0 THEN 1 ELSE 0 END)
            AS BIGINT) AS n_remaining_present
FROM hits
"""


def bloom_partition_pruning_audit(sf_dir: str, n_parts: int = 16,
                                  m_bits: int = 4096, k: int = 2,
                                  probe_mod: int = 797,
                                  out_dir: str | None = None) -> pa.Table:
    """BLOOM-PER-PARTITION pruning audit -- the data-skipping index every
    lake table format (Parquet bloom pages, Iceberg/Delta file skipping)
    hangs point lookups on, built and MEASURED end to end:

      1. events are written as hash-partitioned parquet
         (p = user_id % n_parts, one directory per partition);
      2. one distributed pass builds a per-partition Bloom filter over
         event_id (md5 double hashing -- _OracleBloom cells, so DuckDB
         replays every bit);
      3. a deterministic probe set (event_id % probe_mod == 0) asks
         each filter "might this id be here?"; the pruned read then
         opens ONLY the claiming partitions' paths and fetches the rows;
      4. the audit reports partitions touched vs the single true
         partition per probe (false partition hits = Bloom FPs) and
         row-verifies the pruned read against the full-scan answer
         (asserted -- no false negatives is the guarantee, measured,
         not assumed).

    Scale shape: filters are m_bits/8-byte blobs merged per partition
    key through a tiny groupby (never the data); the pruned read is
    path-level (zero foreign bytes); probes stream once.
    """
    import shutil

    out_dir = out_dir or "/tmp/p2pdds_gate/events_bloom_parts"
    shutil.rmtree(out_dir, ignore_errors=True)

    ds = _read(sf_dir, "events", ["event_id", "user_id", "event_type"])

    def with_p(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "event_id": pc.cast(t["event_id"], pa.int64()),
            "user_id": pc.cast(t["user_id"], pa.int64()),
            "event_type": t["event_type"],
            "p": pa.array(uid % n_parts),
        })

    staged = ds.map_batches(with_p, batch_format="pyarrow",
                            zero_copy_batch=True)
    staged.write_parquet(out_dir, partition_cols=["p"])

    # per-partition Bloom partials: one blob row per (block, partition)
    def bloom_partial(t: pa.Table) -> pa.Table:
        import pickle
        if t.num_rows == 0:
            return pa.table({"p": pa.array([], type=pa.int64()),
                             "blob": pa.array([], type=pa.binary())})
        pv = t["p"].to_numpy(zero_copy_only=False)
        ev = t["event_id"].to_numpy(zero_copy_only=False)
        ps, blobs = [], []
        for p in np.unique(pv):
            b = _OracleBloom(m_bits, k)
            b.add_batch(ev[pv == p])
            ps.append(int(p))
            blobs.append(pickle.dumps(b))
        return pa.table({"p": pa.array(ps, type=pa.int64()),
                         "blob": pa.array(blobs, type=pa.binary())})

    def fold(group: pa.Table) -> pa.Table:
        import pickle
        merged = None
        for blob in group["blob"].to_pylist():
            s = pickle.loads(blob)
            merged = s if merged is None else merged.merge(s)
        return pa.table({"p": group["p"][:1],
                         "blob": pa.array([pickle.dumps(merged)],
                                          type=pa.binary())})

    reread = ray.data.read_parquet(out_dir)
    blooms_t = (reread.map_batches(bloom_partial, batch_format="pyarrow",
                                   zero_copy_batch=True)
                .groupby("p").map_groups(fold, batch_format="pyarrow")
                .to_pandas())
    import pickle as _pickle
    blooms = {int(r.p): _pickle.loads(r.blob)
              for r in blooms_t.itertuples()}

    # deterministic probe set + its true partitions (one scan)
    def probe_rows(t: pa.Table) -> pa.Table:
        ev = t["event_id"].to_numpy(zero_copy_only=False)
        m = ev % probe_mod == 0
        return pa.table({"event_id": pa.array(ev[m]),
                         "p_true": pa.array(
                             t["p"].to_numpy(zero_copy_only=False)[m])})

    probes = (reread.map_batches(probe_rows, batch_format="pyarrow",
                                 zero_copy_batch=True).to_pandas()
              .sort_values("event_id").reset_index(drop=True))
    probe_ids = probes["event_id"].to_numpy(dtype=np.int64)

    touched = 0
    touched_paths: set[int] = set()
    per_probe_hits = np.zeros(len(probe_ids), dtype=np.int64)
    for p, b in sorted(blooms.items()):
        hits = b.contains_batch(probe_ids)
        per_probe_hits += hits.astype(np.int64)
        touched += int(hits.sum())
        if hits.any():
            touched_paths.add(p)
    # no false negatives: every probe's true partition claims it
    for pid, pt in zip(probe_ids, probes["p_true"]):
        assert blooms[int(pt)].contains_batch(
            np.array([pid], dtype=np.int64))[0]

    # pruned read: ONLY the claiming partitions' files leave storage
    import glob
    files = [f for p in sorted(touched_paths)
             for f in sorted(glob.glob(f"{out_dir}/p={p}/*.parquet"))]
    pruned = ray.data.read_parquet(files)

    def fetch(t: pa.Table) -> pa.Table:
        m = pc.is_in(t["event_id"], value_set=pa.array(probe_ids))
        return t.filter(m).select(["event_id", "user_id", "event_type"])

    found = pruned.map_batches(fetch, batch_format="pyarrow") \
        .to_pandas().sort_values("event_id").reset_index(drop=True)
    assert found["event_id"].tolist() == probes["event_id"].tolist(), \
        "pruned read lost rows"

    return pa.table({
        "n_partitions": pa.array([n_parts], type=pa.int64()),
        "n_probes": pa.array([len(probe_ids)], type=pa.int64()),
        "partitions_claiming": pa.array([touched], type=pa.int64()),
        "false_partition_hits": pa.array(
            [touched - len(probe_ids)], type=pa.int64()),
        "max_claims_one_probe": pa.array(
            [int(per_probe_hits.max()) if len(probe_ids) else 0],
            type=pa.int64()),
        "rows_found": pa.array([len(found)], type=pa.int64()),
    })


BLOOM_PRUNING_SQL = """
WITH mem AS (
  SELECT user_id % 16 AS p, event_id AS key FROM events
), hs AS (
  SELECT p, key,
         CAST(('0x' || substr(md5(CAST(key AS VARCHAR)), 1, 16))
              AS UBIGINT) % 4096 AS h1,
         CAST(('0x' || substr(md5(CAST(key AS VARCHAR)), 17, 16))
              AS UBIGINT) % 4096 AS h2
  FROM mem
), bits AS (
  SELECT DISTINCT p, CAST((h1 + i.range * h2) % 4096 AS BIGINT) AS pos
  FROM hs CROSS JOIN range(0, 2) i
), probes AS (
  SELECT key FROM (SELECT event_id AS key FROM events)
  WHERE key % 797 = 0
), ph AS (
  SELECT pr.key, pt.p,
         CAST((CAST(('0x' || substr(md5(CAST(pr.key AS VARCHAR)), 1, 16))
              AS UBIGINT) % 4096
              + i.range
              * (CAST(('0x' || substr(md5(CAST(pr.key AS VARCHAR)), 17, 16))
                 AS UBIGINT) % 4096)) % 4096 AS BIGINT) AS pos,
         i.range AS i
  FROM probes pr
  CROSS JOIN (SELECT DISTINCT p FROM mem) pt
  CROSS JOIN range(0, 2) i
), claim AS (
  SELECT ph.key, ph.p, count(*) AS c
  FROM ph JOIN bits ON bits.p = ph.p AND bits.pos = ph.pos
  GROUP BY 1, 2 HAVING count(*) = 2
), per_probe AS (
  SELECT key, CAST(count(*) AS BIGINT) AS hits FROM claim GROUP BY 1
)
SELECT CAST(16 AS BIGINT) AS n_partitions,
       (SELECT CAST(count(*) AS BIGINT) FROM probes) AS n_probes,
       (SELECT CAST(count(*) AS BIGINT) FROM claim) AS partitions_claiming,
       (SELECT CAST(count(*) AS BIGINT) FROM claim)
         - (SELECT CAST(count(*) AS BIGINT) FROM probes)
         AS false_partition_hits,
       (SELECT CAST(coalesce(max(hits), 0) AS BIGINT) FROM per_probe)
         AS max_claims_one_probe,
       (SELECT CAST(count(*) AS BIGINT) FROM probes) AS rows_found
"""


_PRIORITY_EMPTY = pa.table({
    "seg": pa.array([], type=pa.string()),
    "w": pa.array([], type=pa.int64()),
    "pri": pa.array([], type=pa.int64()),
    "key": pa.array([], type=pa.int64()),
    "exact": pa.array([], type=pa.int64()),
    "n": pa.array([], type=pa.int64()),
})

_PRIORITY_M = 1_000_000


def _err_ppm(est: np.ndarray, exact: np.ndarray) -> np.ndarray:
    """|est - exact| in parts per million of exact (floor division, as
    the SQL twins' ``// exact_cents``); 0 where exact is 0, since a
    segment with no revenue has no relative error to report."""
    nonzero = exact != 0
    return np.where(nonzero, np.abs(est - exact) * 1_000_000
                    // np.where(nonzero, exact, 1), 0)


def _priority_block_partial(t: pa.Table, k: int) -> pa.Table:
    """One pass over an orders block: its top-(k+1) candidate rows by
    priority (anything below a block's (k+1)-th priority can never
    enter the global sample NOR set tau) + per-segment exact sums --
    the ONLY rows that ever leave the block (scale-contract-tested)."""
    from ..hashing import murmur64

    M = _PRIORITY_M
    if t.num_rows == 0:
        return _PRIORITY_EMPTY
    keys = t["o_orderkey"].to_numpy(zero_copy_only=False).astype(
        np.int64)
    w = np.floor(t["o_totalprice"].to_numpy(zero_copy_only=False)
                 * 100.0 + 0.5).astype(np.int64)
    seg = t["o_orderpriority"]
    u = (murmur64(keys) % np.uint64(M)).astype(np.int64) + 1
    pri = w * M // u
    top = min(k + 1, pri.size)
    cand = np.lexsort((keys, -pri))[:top]
    exact = pa.table({"seg": seg, "w": pa.array(w)}).group_by(
        ["seg"]).aggregate([("w", "sum")])
    n_c, n_e = cand.size, exact.num_rows
    z_c = np.zeros(n_c, dtype=np.int64)
    z_e = np.zeros(n_e, dtype=np.int64)
    cand_t = pa.table({
        "seg": seg.take(pa.array(cand)),
        "w": pa.array(w[cand]), "pri": pa.array(pri[cand]),
        "key": pa.array(keys[cand]), "exact": pa.array(z_c),
        "n": pa.array(z_c)})
    exact_t = pa.table({
        "seg": exact["seg"], "w": pa.array(z_e),
        "pri": pa.array(z_e), "key": pa.array(z_e),
        "exact": pc.cast(exact["w_sum"], pa.int64()),
        "n": pa.array(np.ones(n_e, dtype=np.int64))})
    return pa.concat_tables([cand_t, exact_t]).combine_chunks()


def priority_sample_revenue(sf_dir: str, k: int = 200) -> pa.Table:
    """PRIORITY SAMPLING (Duffield, Lund & Thorup, JACM 2007): one
    weighted sample of k orders that answers ANY subset-sum query over
    order value with near-optimal variance.  Each order draws a
    deterministic uniform u from hash(orderkey) and gets priority
    q = w / u; the k highest-priority orders are kept, tau is the
    (k+1)-th priority, and the subset-sum estimator sums max(w, tau)
    over sampled members of the subset -- unbiased for every subset
    simultaneously, which is why a single priority sample replaces a
    stratified design.  Reported per o_orderpriority segment: sampled
    count, estimated vs exact revenue (cents), and the error in ppm.

    All arithmetic is int64 (w in cents, u in 1..1e6, priority
    w * 1e6 // u), so the DuckDB window-function replica hash-matches
    bit-for-bit; hash(o_orderkey) is the murmur64 parity tier.

    Scale shape (100 TB): the ONLY exchange is each block's local
    top-(k+1) rows -- the classic distributed top-k prereduce -- so the
    driver folds O(blocks * k) kilobyte rows, never the order stream;
    the exact per-segment totals ride the same pass as an int64
    combiner (segment cardinality is 5).  Contrast with
    monetary_unit_sample (per-item Bernoulli, no subset-sum guarantee):
    priority sampling gives the tau-threshold estimator its variance
    optimality at the same single-pass cost.
    """
    ds = _read(sf_dir, "orders",
               ["o_orderkey", "o_orderpriority", "o_totalprice"])

    f = ds.map_batches(
        lambda t: _priority_block_partial(t, k),
        batch_format="pyarrow", zero_copy_batch=True).to_pandas()
    samp = f[f["n"] == 0]
    exact = (f[f["n"] == 1].groupby("seg", as_index=False)["exact"]
             .sum().sort_values("seg"))

    pri = samp["pri"].to_numpy()
    order = np.lexsort((samp["key"].to_numpy(), -pri))
    tau = int(pri[order[k]]) if order.size > k else 0
    chosen = samp.iloc[order[:k]]
    est_w = np.maximum(chosen["w"].to_numpy(), tau)

    est = (pd.DataFrame({"seg": chosen["seg"].to_numpy(), "est": est_w,
                         "ns": np.ones(len(chosen), dtype=np.int64)})
           .groupby("seg", as_index=False).sum())
    # nullable Int64 keeps unsampled segments integer end-to-end: a
    # plain left-merge would promote est/ns to float64 the moment any
    # segment has zero sampled rows, silently capping exactness at 2^53
    est = est.astype({"est": "Int64", "ns": "Int64"})
    out = exact.merge(est, on="seg", how="left")
    est_i = out["est"].fillna(0).to_numpy(dtype=np.int64)
    ns_i = out["ns"].fillna(0).to_numpy(dtype=np.int64)
    exact_i = out["exact"].to_numpy().astype(np.int64)
    err = _err_ppm(est_i, exact_i)
    return pa.table({
        "o_orderpriority": pa.array(out["seg"].astype(str)),
        "n_sampled": pa.array(ns_i),
        "est_cents": pa.array(est_i),
        "exact_cents": pa.array(exact_i),
        "err_ppm": pa.array(err.astype(np.int64)),
    })


def _priority_sample_sql(k: int = 200) -> str:
    """SQL twin builder parameterized on the same default as the
    Python kernel, so non-default k keeps oracle parity (ADVICE r4)."""
    return f"""
WITH o AS (
  SELECT o_orderpriority AS seg, o_orderkey AS key,
         CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS w,
         CAST(hash(o_orderkey) % 1000000 AS BIGINT) + 1 AS u
  FROM orders
), p AS (
  SELECT seg, key, w, w * 1000000 // u AS pri FROM o
), r AS (
  SELECT *, row_number() OVER (ORDER BY pri DESC, key) AS rn FROM p
), tau AS (
  SELECT pri AS t FROM r WHERE rn = {k + 1}
), s AS (
  SELECT seg, greatest(w, coalesce((SELECT t FROM tau), 0)) AS est_w
  FROM r WHERE rn <= {k}
), ex AS (
  SELECT seg, CAST(sum(w) AS BIGINT) AS exact_cents FROM o GROUP BY 1
), est AS (
  SELECT seg, CAST(count(*) AS BIGINT) AS n_sampled,
         CAST(sum(est_w) AS BIGINT) AS est_cents
  FROM s GROUP BY 1
)
SELECT ex.seg AS o_orderpriority,
       coalesce(est.n_sampled, 0) AS n_sampled,
       coalesce(est.est_cents, 0) AS est_cents,
       ex.exact_cents,
       CAST(abs(coalesce(est.est_cents, 0) - ex.exact_cents) * 1000000
            // ex.exact_cents AS BIGINT) AS err_ppm
FROM ex LEFT JOIN est ON est.seg = ex.seg
ORDER BY 1
"""


PRIORITY_SAMPLE_SQL = _priority_sample_sql()


def _priority_block_partial_by_seg(t: pa.Table, k: int) -> pa.Table:
    """Per-SEGMENT top-(k+1) candidates from one orders block (plus the
    per-segment exact sums): the stratified variant of
    _priority_block_partial -- anything below its segment's block-local
    (k+1)-th priority can never enter that segment's sample nor set its
    tau, so blocks emit O(segments * k) rows, never the order stream."""
    from ..hashing import murmur64

    M = _PRIORITY_M
    if t.num_rows == 0:
        return _PRIORITY_EMPTY
    keys = t["o_orderkey"].to_numpy(zero_copy_only=False).astype(
        np.int64)
    w = np.floor(t["o_totalprice"].to_numpy(zero_copy_only=False)
                 * 100.0 + 0.5).astype(np.int64)
    seg = t["o_orderpriority"]
    u = (murmur64(keys) % np.uint64(M)).astype(np.int64) + 1
    pri = w * M // u
    enc = seg.combine_chunks().dictionary_encode()
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    # sort (segment, -priority, key); within-run rank by run arithmetic
    order = np.lexsort((keys, -pri, codes))
    c_s = codes[order]
    new_run = np.ones(c_s.size, dtype=bool)
    new_run[1:] = c_s[1:] != c_s[:-1]
    starts = np.nonzero(new_run)[0]
    rlen = np.diff(np.append(starts, c_s.size))
    rank = np.arange(c_s.size) - np.repeat(starts, rlen)
    cand = order[rank <= k]
    exact = pa.table({"seg": seg, "w": pa.array(w)}).group_by(
        ["seg"]).aggregate([("w", "sum")])
    n_c, n_e = cand.size, exact.num_rows
    z_c = np.zeros(n_c, dtype=np.int64)
    z_e = np.zeros(n_e, dtype=np.int64)
    cand_t = pa.table({
        "seg": seg.take(pa.array(cand)),
        "w": pa.array(w[cand]), "pri": pa.array(pri[cand]),
        "key": pa.array(keys[cand]), "exact": pa.array(z_c),
        "n": pa.array(z_c)})
    exact_t = pa.table({
        "seg": exact["seg"], "w": pa.array(z_e),
        "pri": pa.array(z_e), "key": pa.array(z_e),
        "exact": pc.cast(exact["w_sum"], pa.int64()),
        "n": pa.array(np.ones(n_e, dtype=np.int64))})
    return pa.concat_tables([cand_t, exact_t]).combine_chunks()


def priority_sample_by_segment(sf_dir: str, k: int = 60) -> pa.Table:
    """STRATIFIED PRIORITY SAMPLING: one independent Duffield-Lund-
    Thorup sample of k orders PER o_orderpriority segment, each with
    its own threshold tau -- the per-stratum design the single global
    sample (priority_sample_revenue) replaces when every segment is
    queried, kept here as the grouped member of the window x sketch x
    group matrix (VERDICT r4 item 7).  Same all-int64 bit-exact
    arithmetic (w in cents, u in 1..1e6, priority w * 1e6 // u), so
    the DuckDB twin with a PARTITION BY seg window hash-matches.

    Scale shape: the only exchange is each block's per-segment
    top-(k+1) rows + per-segment exact sums (O(segments * k) per
    block); the driver folds kilobyte partials and re-ranks per
    segment over <= blocks * (k+1) candidates.
    """
    ds = _read(sf_dir, "orders",
               ["o_orderkey", "o_orderpriority", "o_totalprice"])

    f = ds.map_batches(
        lambda t: _priority_block_partial_by_seg(t, k),
        batch_format="pyarrow", zero_copy_batch=True).to_pandas()
    samp = f[f["n"] == 0]
    exact = (f[f["n"] == 1].groupby("seg", as_index=False)["exact"]
             .sum().sort_values("seg", ignore_index=True))

    segs, n_s, tau_s, est_s = [], [], [], []
    for s in exact["seg"]:
        g = samp[samp["seg"] == s]
        pri = g["pri"].to_numpy()
        order = np.lexsort((g["key"].to_numpy(), -pri))
        tau = int(pri[order[k]]) if order.size > k else 0
        chosen_w = g["w"].to_numpy()[order[:k]]
        segs.append(s)
        n_s.append(int(min(k, order.size)))
        tau_s.append(tau)
        est_s.append(int(np.maximum(chosen_w, tau).sum()))
    exact_i = exact["exact"].to_numpy().astype(np.int64)
    est_i = np.array(est_s, dtype=np.int64)
    err = _err_ppm(est_i, exact_i)
    return pa.table({
        "o_orderpriority": pa.array([str(s) for s in segs]),
        "n_sampled": pa.array(np.array(n_s, dtype=np.int64)),
        "tau": pa.array(np.array(tau_s, dtype=np.int64)),
        "est_cents": pa.array(est_i),
        "exact_cents": pa.array(exact_i),
        "err_ppm": pa.array(err.astype(np.int64)),
    })


def _priority_sample_by_segment_sql(k: int = 60) -> str:
    return f"""
WITH o AS (
  SELECT o_orderpriority AS seg, o_orderkey AS key,
         CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS w,
         CAST(hash(o_orderkey) % 1000000 AS BIGINT) + 1 AS u
  FROM orders
), p AS (
  SELECT seg, key, w, w * 1000000 // u AS pri FROM o
), r AS (
  SELECT *, row_number() OVER (PARTITION BY seg
                               ORDER BY pri DESC, key) AS rn FROM p
), tau AS (
  SELECT seg, pri AS t FROM r WHERE rn = {k + 1}
), s AS (
  SELECT r.seg, greatest(r.w, coalesce(tau.t, 0)) AS est_w
  FROM r LEFT JOIN tau ON tau.seg = r.seg WHERE r.rn <= {k}
), ex AS (
  SELECT seg, CAST(sum(w) AS BIGINT) AS exact_cents FROM o GROUP BY 1
), est AS (
  SELECT seg, CAST(count(*) AS BIGINT) AS n_sampled,
         CAST(sum(est_w) AS BIGINT) AS est_cents
  FROM s GROUP BY 1
)
SELECT ex.seg AS o_orderpriority,
       coalesce(est.n_sampled, 0) AS n_sampled,
       coalesce(tau.t, 0) AS tau,
       coalesce(est.est_cents, 0) AS est_cents,
       ex.exact_cents,
       CAST(abs(coalesce(est.est_cents, 0) - ex.exact_cents) * 1000000
            // ex.exact_cents AS BIGINT) AS err_ppm
FROM ex
LEFT JOIN est ON est.seg = ex.seg
LEFT JOIN tau ON tau.seg = ex.seg
ORDER BY 1
"""


PRIORITY_SAMPLE_BY_SEG_SQL = _priority_sample_by_segment_sql()


def hyperminhash_type_jaccard(sf_dir: str, r_bits: int = 10) -> pa.Table:
    """HYPERMINHASH (Yu & Weber, IEEE TKDE 2020): Jaccard similarity
    between BIG sets at loglog space -- each of 256 buckets stores the
    quantized minimum hash as (HLL exponent, r-bit mantissa), so the
    sketch costs ~2 bytes/bucket yet the matched-register fraction
    estimates Jaccard directly, where plain MinHash would need one
    permutation pass per register and plain HLL can only reach overlap
    through inclusion-exclusion (hll_type_overlap) whose error scales
    with the UNION.  Registers merge by elementwise MIN, so the build
    is the same mergeable-accumulator tree as every other sketch here.

    Register encoding (the floor(log2) float path is exact because the
    mantissa word keeps only the low 52 bits -- the proven HLL-oracle
    tier): bucket = h >> 56, w = h & (2^52-1), e = floor(log2(w)),
    D = (e+1) * 2^r + (w - 2^e) * 2^r // 2^e  (w == 0 -> D = 0);
    smaller D == smaller hash fraction, min-mergeable, and every step
    is integer-exact in DuckDB, so the twin replays all registers.

    Estimator: matched buckets over buckets occupied in EITHER sketch
    (the sparse-regime denominator -- identical sets estimate exactly
    1.0 even when the 256 buckets are undersaturated), collision-
    corrected by the paper's expected random-collision rate ~1.47/2^r
    (ppm-integer algebra, clamped at 0).  The EXACT per-type-pair Jaccard rides the
    same output row: distinct (type, user) combiner, user
    co-partition, <= C(5,2) integer pair partials per partition -- so
    the estimator's error is audited in-query.

    Scale shape: ``combine_agg`` (type, bucket) min (kilobytes), driver
    folds 5 x 256 registers; exact side
    shuffles only distinct int64 pairs and emits 10-row partials.
    """
    from ..hashing import murmur64
    from ..stages.partition import fit_partitions, partition_by

    R = 1 << r_bits
    ds = _read(sf_dir, "events", ["event_type", "user_id"])

    def reg_partial(t: pa.Table) -> pa.Table:
        # each event's (type, bucket, D); registers keep the min D
        uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        h = murmur64(uid)
        idx = (h >> np.uint64(56)).astype(np.int64)
        w = (h & np.uint64((1 << 52) - 1)).astype(np.int64)
        nz = w > 0
        e = np.zeros(w.size, dtype=np.int64)
        e[nz] = np.floor(np.log2(w[nz].astype(np.float64))).astype(
            np.int64)                      # exact: w < 2^53
        msb = np.int64(1) << e
        d = np.where(nz, (e + 1) * R + (w - msb) * R // msb,
                     np.int64(0))
        return pa.table({"ty": t["event_type"], "idx": pa.array(idx),
                         "d": pa.array(d)})

    regs = combine_agg(ds, ["ty", "idx"], reg_partial, [("d", "min")],
                       named("ty", "idx", "d")).to_pandas()
    # driver folds <= n_types x 256 rows
    types = sorted(regs["ty"].unique())
    mat = {ty: np.full(256, -1, dtype=np.int64) for ty in types}
    for ty, idx, d in zip(regs["ty"], regs["idx"], regs["d"]):
        mat[ty][idx] = d

    # exact side: distinct (user, type) -> user co-partition -> pair
    # partial counts; partitions emit <= C(types, 2) + types rows each
    pair_empty = pa.table({"ta": pa.array([], type=pa.string()),
                           "tb": pa.array([], type=pa.string()),
                           "inter": pa.array([], type=pa.int64()),
                           "na": pa.array([], type=pa.int64())})

    def mem_partial(t: pa.Table) -> pa.Table:
        return pa.table({"u": t["user_id"],
                         "ty": t["event_type"]}).group_by(
            ["u", "ty"]).aggregate([])

    def pair_counts(t: pa.Table) -> pa.Table:
        # user co-partitioned: each user's full type set is local
        if t.num_rows == 0:
            return pair_empty
        df = pa.table({"u": t["u"], "ty": t["ty"]}).group_by(
            ["u", "ty"]).aggregate([]).to_pandas()
        piv = df.assign(one=1).pivot_table(index="u", columns="ty",
                                           values="one", fill_value=0)
        cols = list(piv.columns)
        m = piv.to_numpy(dtype=np.int64)
        ta, tb, inter, na = [], [], [], []
        for i, ca in enumerate(cols):
            ta.append(ca); tb.append(ca)
            inter.append(0); na.append(int(m[:, i].sum()))
            for j in range(i + 1, len(cols)):
                ta.append(ca); tb.append(cols[j])
                inter.append(int((m[:, i] & m[:, j]).sum())); na.append(0)
        return pa.table({"ta": pa.array(ta, type=pa.string()),
                         "tb": pa.array(tb, type=pa.string()),
                         "inter": pa.array(inter, type=pa.int64()),
                         "na": pa.array(na, type=pa.int64())})

    mem = ds.map_batches(mem_partial, batch_format="pyarrow",
                         zero_copy_batch=True)
    pairs = partition_by(mem, ["u"], fit_partitions(8),
                         pair_counts, pair_empty).to_pandas()
    agg = pairs.groupby(["ta", "tb"], as_index=False).sum()
    sizes = {r["ta"]: int(r["na"]) for _, r in agg.iterrows()
             if r["ta"] == r["tb"]}
    inters = {(r["ta"], r["tb"]): int(r["inter"])
              for _, r in agg.iterrows() if r["ta"] != r["tb"]}

    c_ppm = int(1.47 * 1_000_000) // R       # paper's collision rate
    ta_o, tb_o, m_o, est_o, ex_o = [], [], [], [], []
    for i, a in enumerate(types):
        for b in types[i + 1:]:
            da, db = mat[a], mat[b]
            m = int(((da == db) & (da >= 0) & (db >= 0)).sum())
            occ = int(((da >= 0) | (db >= 0)).sum())
            m_ppm = m * 1_000_000 // occ if occ else 0
            est = max(0, (m_ppm - c_ppm) * 1_000_000
                      // (1_000_000 - c_ppm))
            # .get: two types may never co-occur in any partition's
            # pivot (a rare type whose users all lack the other type)
            inter = inters.get((a, b), 0)
            uni = sizes.get(a, 0) + sizes.get(b, 0) - inter
            ta_o.append(a); tb_o.append(b); m_o.append(m)
            est_o.append(est)
            ex_o.append(inter * 1_000_000 // uni if uni else 0)
    return pa.table({
        "type_a": pa.array(ta_o, type=pa.string()),
        "type_b": pa.array(tb_o, type=pa.string()),
        "matches": pa.array(m_o, type=pa.int64()),
        "est_jaccard_ppm": pa.array(est_o, type=pa.int64()),
        "exact_jaccard_ppm": pa.array(ex_o, type=pa.int64()),
    })


def _hyperminhash_sql(r_bits: int = 10) -> str:
    """SQL twin builder parameterized on the same default as the
    Python kernel, so non-default r_bits keeps parity (ADVICE r4)."""
    R = 1 << r_bits
    c_ppm = int(1.47 * 1_000_000) // R
    return f"""
WITH ev AS (SELECT DISTINCT event_type AS ty, user_id AS u FROM events),
h AS (SELECT ty, CAST(hash(u) AS UBIGINT) AS hv FROM ev),
q AS (SELECT ty, CAST(hv >> 56 AS BIGINT) AS idx,
             CAST(hv & 4503599627370495::UBIGINT AS BIGINT) AS w
      FROM h),
d AS (SELECT ty, idx,
             CASE WHEN w = 0 THEN 0
                  ELSE (CAST(floor(log2(CAST(w AS DOUBLE))) AS BIGINT)
                        + 1) * {R}
                       + (w - (1::BIGINT << CAST(floor(log2(CAST(w AS
                            DOUBLE))) AS BIGINT))) * {R}
                         // (1::BIGINT << CAST(floor(log2(CAST(w AS
                            DOUBLE))) AS BIGINT))
             END AS dd
      FROM q),
regs AS (SELECT ty, idx, min(dd) AS d FROM d GROUP BY 1, 2),
m AS (SELECT a.ty AS ta, b.ty AS tb,
             CAST(count(*) AS BIGINT) AS matches
      FROM regs a JOIN regs b
        ON a.idx = b.idx AND a.d = b.d AND a.ty < b.ty
      GROUP BY 1, 2),
rocc AS (SELECT ty, CAST(count(*) AS BIGINT) AS nb FROM regs
         GROUP BY 1),
bocc AS (SELECT a.ty AS ta, b.ty AS tb, CAST(count(*) AS BIGINT) AS c
         FROM regs a JOIN regs b ON a.idx = b.idx AND a.ty < b.ty
         GROUP BY 1, 2),
sz AS (SELECT ty, CAST(count(*) AS BIGINT) AS n FROM ev GROUP BY 1),
ix AS (SELECT a.ty AS ta, b.ty AS tb, CAST(count(*) AS BIGINT) AS i
       FROM ev a JOIN ev b ON a.u = b.u AND a.ty < b.ty
       GROUP BY 1, 2),
allp AS (SELECT sa.ty AS ta, sb.ty AS tb FROM sz sa JOIN sz sb
         ON sa.ty < sb.ty)
SELECT allp.ta AS type_a, allp.tb AS type_b,
       coalesce(m.matches, 0) AS matches,
       greatest(coalesce(m.matches, 0) * 1000000
                // (ra.nb + rb.nb - coalesce(bocc.c, 0)) - {c_ppm}, 0)
         * 1000000 // (1000000 - {c_ppm}) AS est_jaccard_ppm,
       CASE WHEN sa.n + sb.n - coalesce(ix.i, 0) > 0
            THEN coalesce(ix.i, 0) * 1000000
                 // (sa.n + sb.n - coalesce(ix.i, 0))
            ELSE 0 END AS exact_jaccard_ppm
FROM allp
LEFT JOIN m ON m.ta = allp.ta AND m.tb = allp.tb
LEFT JOIN ix ON ix.ta = allp.ta AND ix.tb = allp.tb
LEFT JOIN bocc ON bocc.ta = allp.ta AND bocc.tb = allp.tb
JOIN rocc ra ON ra.ty = allp.ta
JOIN rocc rb ON rb.ty = allp.tb
JOIN sz sa ON sa.ty = allp.ta
JOIN sz sb ON sb.ty = allp.tb
ORDER BY 1, 2
"""


HYPERMINHASH_SQL = _hyperminhash_sql()


def cmm_user_counts(sf_dir: str, width: int = 2048, depth: int = 4,
                    topk: int = 20) -> pa.Table:
    """COUNT-MEAN-MIN (Deng & Rafiei, SIGMOD 2007): debias each
    count-min row by its expected collision noise (N - cell)/(w - 1)
    and take the median of the row estimates -- an (almost) unbiased
    frequency estimator from the SAME mergeable CMS whose plain min
    is a one-sided upper bound.  Pure deterministic post-processing of
    the sketch state, so unlike conservative-update variants (whose
    cell values depend on arrival order) it stays merge-order-
    invariant and hash-replayable.

    Integer contract: row estimates in milli-units (cell * 1000 -
    (N - cell) * 1000 // (w - 1), exact in int64), median = the LOWER
    median (row_number 2 of the depth=4 sorted row estimates,
    tie-broken by row index -- both engines pick the identical cell).
    Reported for the exact top-``topk`` users: exact count, the
    count-min upper bound, and the count-mean-min milli estimate.

    Scale shape: the CMS build is the standard mergeable-accumulator
    tree (depth x width int64 cells ride the merge); the exact census
    is a grouped count with a per-block top-k prereduce; the driver
    folds one sketch + topk rows.
    """
    ds = _read(sf_dir, "events", ["user_id"])
    cms = cms_build(ds, "user_id", width=width, depth=depth)
    N = cms.n

    def local_top(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        n = t["n"].to_numpy(zero_copy_only=False)
        order = np.lexsort((uid, -n))[:topk]
        return pa.table({"user_id": pa.array(uid[order]),
                         "n": pa.array(n[order])})

    census = (_key_counts(ds, "user_id")
              .map_batches(local_top, batch_format="pyarrow")
              .to_pandas())
    uid = census["user_id"].to_numpy(dtype=np.int64)
    n = census["n"].to_numpy(dtype=np.int64)
    order = np.lexsort((uid, -n))[:topk]
    probes, exact = uid[order], n[order]
    o2 = np.argsort(probes)
    probes, exact = probes[o2], exact[o2]

    cells = np.empty((probes.shape[0], depth), dtype=np.int64)
    for d in range(depth):
        cells[:, d] = cms.table[d][cms._cells(probes, d)]
    cm = cells.min(axis=1)
    row_est = cells * 1000 - (N - cells) * 1000 // (width - 1)
    # lower median with row-index tie-break (depth=4 -> 2nd smallest):
    # combined key (est * depth + d) orders by (est, d) lexicographic
    d_idx = np.broadcast_to(np.arange(depth), row_est.shape)
    pick = (depth - 1) // 2
    cmm = np.take_along_axis(
        row_est, np.argsort(row_est * depth + d_idx, axis=1),
        axis=1)[:, pick]
    return pa.table({
        "user_id": pa.array(probes),
        "exact_count": pa.array(exact),
        "cm_est": pa.array(cm),
        "cmm_est_milli": pa.array(cmm),
    })


def _cmm_user_counts_sql(width: int = 2048, depth: int = 4,
                         topk: int = 20) -> str:
    from ..sketches.countmin import DEFAULT_SEEDS
    seeds = ", ".join(f"({d}, {s})"
                      for d, s in enumerate(DEFAULT_SEEDS[:depth]))
    return f"""
WITH counts AS (
  SELECT CAST(user_id AS BIGINT) AS k, CAST(count(*) AS BIGINT) AS c
  FROM events GROUP BY 1
), tu AS (
  SELECT k, c FROM counts ORDER BY c DESC, k LIMIT {topk}
), seeds(d, s) AS (VALUES {seeds}),
cells AS (
  SELECT s.d, hash(xor(counts.k, CAST(s.s AS BIGINT))) % {width}
           AS cell,
         CAST(sum(counts.c) AS BIGINT) AS tot
  FROM counts CROSS JOIN seeds s GROUP BY 1, 2
), nn AS (SELECT CAST(count(*) AS BIGINT) AS n FROM events),
probes AS (
  SELECT tu.k, tu.c, s.d, cells.tot
  FROM tu CROSS JOIN seeds s
  JOIN cells ON cells.d = s.d
            AND cells.cell = hash(xor(tu.k, CAST(s.s AS BIGINT)))
                             % {width}
), ests AS (
  SELECT k, c, d, tot,
         tot * 1000 - (nn.n - tot) * 1000 // ({width} - 1) AS row_est
  FROM probes, nn
), ranked AS (
  SELECT k, c, tot, row_est,
         row_number() OVER (PARTITION BY k ORDER BY row_est, d) AS rn
  FROM ests
)
SELECT k AS user_id, any_value(c) AS exact_count,
       CAST(min(tot) AS BIGINT) AS cm_est,
       CAST(min(CASE WHEN rn = {(depth - 1) // 2 + 1} THEN row_est
                END) AS BIGINT) AS cmm_est_milli
FROM ranked GROUP BY 1 ORDER BY 1
"""


CMM_USER_COUNTS_SQL = _cmm_user_counts_sql()
