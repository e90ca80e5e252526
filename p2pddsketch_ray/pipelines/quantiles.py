"""Quantile pipelines: the engine's flagship flow.

Replaces the reference's whole main() simulation (main.cpp:214-396):

    read -> project metric column -> map_batches(partial sketches)
         -> keyed_merge(merge + quantile per table)     # grouped
         -> (or) keyed_merge(merged_table)              # grouped sketches
         -> (or) distributed tree reduce of partial rows       # global

Every grouped merge of partial rows here is one ``merged_rows`` call per
exchanged table (stages.sketch_build), never a ``map_groups`` call per
group; ``stages.exchange.keyed_merge`` carries the partials there, in one
task while they are small, else by a sort shuffle.

The only shuffle moves serialized partials (<= ~6 KB per (block, group)):
classic partial aggregation, so a Zipf-skewed group key (lang ~ 60% 'en')
cannot hot-spot -- the hot group still contributes one row per input block.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import (DEFAULT_ALPHA, DEFAULT_BIN_LIMIT, DEFAULT_OFFSET,
                      HEADLINE_QUANTILES)
from ..sketches.ddsketch import DDSketch
from ..sources.tables import read_table
from ..stages.combine import combine_agg, named
from ..stages.exchange import keyed_merge
from ..stages.sketch_build import (collect, merge_by_group, merged_table,
                                   partial_builder, partial_columns,
                                   quantile_finalizer, sketches_by_group)


def build_partials_ds(ds: "ray.data.Dataset", value_col: str,
                      group_cols: Sequence[str] | None = None,
                      *, weight_col: str | None = None,
                      alpha: float = DEFAULT_ALPHA,
                      bin_limit: int = DEFAULT_BIN_LIMIT,
                      offset: int = DEFAULT_OFFSET, mode: str = "uniform",
                      batch_size: int | None = 65536) -> "ray.data.Dataset":
    """Stage 1: per-(block, group) partial sketch rows (stateless tasks)."""
    cols = [value_col] + list(group_cols or ())
    if weight_col:
        cols.append(weight_col)
    return ds.select_columns(cols).map_batches(
        partial_builder(value_col, group_cols, weight_col=weight_col,
                        alpha=alpha, bin_limit=bin_limit, offset=offset,
                        mode=mode),
        batch_format="pyarrow", batch_size=batch_size, zero_copy_batch=True)


def dds_quantiles_global(ds: "ray.data.Dataset", value_col: str,
                         quantiles: Sequence[float] = HEADLINE_QUANTILES,
                         *, round_digits: int | None = None,
                         **sketch_kwargs) -> pa.Table:
    """Global quantiles: distributed partial build + distributed tree
    merge; only the single merged sketch row reaches the driver."""
    return sketch_quantile_table(dds_sketch_global(ds, value_col,
                                                   **sketch_kwargs),
                                 quantiles, round_digits)


def sketch_quantile_table(sketch: DDSketch, quantiles: Sequence[float],
                          round_digits: int | None = None) -> pa.Table:
    """(q, bucket_key, est) rows of a merged sketch; one
    ``DDSketch.quantile_keys`` call answers every q."""
    qs = list(quantiles)
    keys = sketch.quantile_keys(qs).tolist()
    ests = [sketch._bucket_estimate(k) for k in keys]
    if round_digits is not None:
        ests = [round(e, round_digits) for e in ests]
    return pa.table({"q": pa.array(qs, type=pa.float64()),
                     "bucket_key": pa.array(keys, type=pa.int64()),
                     "est": pa.array(ests, type=pa.float64())})


def dds_sketch_global(ds: "ray.data.Dataset", value_col: str,
                      **sketch_kwargs) -> DDSketch:
    """The merged global sketch itself (for callers that want the full
    accumulator, e.g. checkpointing or repeated queries).

    The merge is a distributed tree reduce (stages.sketch_build.
    tree_merge_sketches): the driver deserializes exactly one row."""
    from ..stages.sketch_build import tree_merge_sketches
    partials = build_partials_ds(ds, value_col, None, **sketch_kwargs)
    return tree_merge_sketches(partials)


def rank_errors(ds: "ray.data.Dataset", value_col: str,
                quantiles: Sequence[float], estimates: Sequence[float],
                *, max_rank_err: float | None = None) -> list[float]:
    """Distributed exact-rank self-check for quantile estimates.

    One extra map pass computes per-block counts of values strictly below
    / at-or-below each estimate (3 vectorized compares per row); the tiny
    per-block count rows are summed by Ray.  The rank error of estimate
    e_i for target q_i is then

        err_i = max(0, q_i - rank_le(e_i), rank_lt(e_i) - q_i)

    (zero whenever q_i lies inside [count(x < e)/n, count(x <= e)/n] --
    the standard containment interval for discrete data with ties).

    Raises ValueError when ``max_rank_err`` is given and exceeded: a
    mis-configured or broken sketch (KLL / t-digest / DDSketch) fails at
    the pipeline boundary instead of silently emitting bad estimates.
    """
    import numpy as np
    est = np.asarray(list(estimates), dtype=np.float64)
    qs = np.asarray(list(quantiles), dtype=np.float64)

    def counts(t: pa.Table) -> pa.Table:
        v = t[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        v = v[~np.isnan(v)]
        lt = (v[:, None] < est[None, :]).sum(axis=0)
        le = (v[:, None] <= est[None, :]).sum(axis=0)
        cols = {f"lt_{i}": pa.array([int(lt[i])], type=pa.int64())
                for i in range(est.shape[0])}
        cols.update({f"le_{i}": pa.array([int(le[i])], type=pa.int64())
                     for i in range(est.shape[0])})
        cols["cnt"] = pa.array([int(v.shape[0])], type=pa.int64())
        return pa.table(cols)

    names = ([f"lt_{i}" for i in range(est.shape[0])]
             + [f"le_{i}" for i in range(est.shape[0])] + ["cnt"])
    sums = (ds.select_columns([value_col])
            .map_batches(counts, batch_format="pyarrow",
                         zero_copy_batch=True)
            .sum(names))
    n = max(int(sums["sum(cnt)"]), 1)
    errs = []
    for i, q in enumerate(qs):
        r_lt = sums[f"sum(lt_{i})"] / n
        r_le = sums[f"sum(le_{i})"] / n
        errs.append(max(0.0, q - r_le, r_lt - q))
    if max_rank_err is not None and max(errs) > max_rank_err:
        raise ValueError(
            f"quantile self-check failed: rank errors {errs} exceed "
            f"{max_rank_err} for quantiles {list(qs)} -- the sketch "
            "configuration does not meet its accuracy bound")
    return errs


def dds_quantiles_grouped(ds: "ray.data.Dataset", value_col: str,
                          group_cols: Sequence[str],
                          quantiles: Sequence[float] = HEADLINE_QUANTILES,
                          *, round_digits: int | None = None,
                          **sketch_kwargs) -> "ray.data.Dataset":
    """Grouped quantiles: exchange only the partial rows by the group key
    (``keyed_merge``), then merge+query every group of an exchanged table
    in one call.  Output: one row per (group, q) with columns
    group_cols + [q, bucket_key, est], ascending by group."""
    partials = build_partials_ds(ds, value_col, group_cols, **sketch_kwargs)
    return keyed_merge(partials, group_cols,
                       quantile_finalizer(group_cols, quantiles,
                                          round_digits))


# ---------------------------------------------------------------------------
# Exact distributed quantiles (selection by histogram bisection)
# ---------------------------------------------------------------------------

def _float_order_keys(v):
    """Order-preserving float64 -> uint64 transform (the radix-sort
    trick): key comparison == IEEE total order for non-NaN values, so
    all bucketing below is EXACT integer arithmetic -- no float boundary
    rounding can ever misassign a value between rounds."""
    import numpy as np
    u = np.ascontiguousarray(v, dtype=np.float64).view(np.uint64)
    neg = (u >> np.uint64(63)).astype(bool)
    out = np.where(neg, ~u, u | np.uint64(0x8000000000000000))
    return out


def _key_to_float(key: int) -> float:
    import numpy as np
    k = np.uint64(key)
    if k & np.uint64(0x8000000000000000):
        u = k & np.uint64(0x7FFFFFFFFFFFFFFF)
    else:
        u = ~k
    return float(np.array([u], dtype=np.uint64).view(np.float64)[0])


def _order_key_stats(ds, value_col: str, group_col: str | None = None,
                     weight_col: str | None = None) -> list[dict]:
    """One row per group (one overall row without ``group_col``, none for
    an input without non-NaN values) of the non-NaN values of
    ``value_col``: ``n`` (rows, or the total of the weights rounded to
    integers when ``weight_col`` is set) and the least and greatest order
    key, ``kmin`` / ``kmax``.  Arrow's min and max are uint64-native, so
    keys >= 2^63 merge as they are."""
    from ..stages.combine import combine_agg

    keys = [group_col] if group_col else []
    cols = [value_col] + keys + ([weight_col] if weight_col else [])

    def prep(t: pa.Table) -> pa.Table:
        v = t[value_col].to_numpy(zero_copy_only=False)
        ok = ~np.isnan(v)
        out = {k: t[k].filter(pa.array(ok)) for k in keys}
        out["k"] = pa.array(_float_order_keys(v[ok]), type=pa.uint64())
        if weight_col:
            w = t[weight_col].to_numpy(zero_copy_only=False)[ok]
            out["w"] = pa.array(np.floor(w + 0.5).astype(np.int64))
        return pa.table(out)

    n = ("w", "sum") if weight_col else ("k", "count")

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table({**{k: t[k] for k in keys},
                         "n": t["_".join(n)], "kmin": t["k_min"],
                         "kmax": t["k_max"]})

    return combine_agg(ds.select_columns(cols), keys, prep,
                       [n, ("k", "min"), ("k", "max")], finalize).take_all()


class _IntervalHist:
    """Mergeable per-interval integer histogram over float order-keys.

    ``intervals`` is a list of (lo, hi) inclusive uint64 key ranges, one
    per still-unresolved quantile target; each has ``bins`` buckets of
    exact integer width ceil(span/bins).  With ``group_col`` set, each
    interval additionally carries a group value (``groups[i]``) and only
    counts rows of that group -- the grouped-quantile variant.  Mergeable
    accumulator shape == the engine's Sketch protocol, so the distributed
    reduction reuses stages.generic_build.build_and_merge (tiny blobs,
    tree merge).
    """

    def __init__(self, value_col: str, intervals, bins: int,
                 group_col: str | None = None, groups=None):
        import numpy as np
        self.value_col = value_col
        self.intervals = [(int(lo), int(hi)) for lo, hi in intervals]
        self.bins = bins
        self.group_col = group_col
        self.widths = [max(1, -((hi - lo + 1) // -bins))
                       for lo, hi in self.intervals]
        self.counts = np.zeros((len(self.intervals), bins), dtype=np.int64)
        if group_col is None:
            self.group_values, self.codes = None, None
        else:
            # distinct group values of the active intervals; interval i
            # matches rows whose group encodes to codes[i]
            self.group_values = sorted(set(groups))
            lut = {g: c for c, g in enumerate(self.group_values)}
            self.codes = [lut[g] for g in groups]

    def _keys_and_codes(self, t: pa.Table):
        import numpy as np
        import pyarrow.compute as pc
        v = t[self.value_col].to_numpy(zero_copy_only=False)
        ok = ~np.isnan(v)
        if self.group_col is None:
            return _float_order_keys(v[ok]), None
        gc = pc.fill_null(pc.index_in(
            t[self.group_col],
            value_set=pa.array(self.group_values)), -1).to_numpy(
                zero_copy_only=False).astype(np.int64)
        return _float_order_keys(v[ok]), gc[ok]

    def add_batch(self, t: pa.Table) -> None:
        import numpy as np
        keys, gcodes = self._keys_and_codes(t)
        for i, (lo, hi) in enumerate(self.intervals):
            m = (keys >= np.uint64(lo)) & (keys <= np.uint64(hi))
            if gcodes is not None:
                m &= gcodes == self.codes[i]
            if not m.any():
                continue
            idx = ((keys[m] - np.uint64(lo))
                   // np.uint64(self.widths[i])).astype(np.int64)
            self.counts[i] += np.bincount(idx, minlength=self.bins)

    def merge(self, other: "_IntervalHist") -> "_IntervalHist":
        self.counts += other.counts
        return self


def _resolve_exact_targets(ds, value_col: str, targets, *, bins: int,
                           collect_limit: int, max_rounds: int,
                           group_col: str | None = None) -> None:
    """Shared bisection driver: narrow every target's key interval by
    ~``bins``x per round with ONE mergeable multi-interval histogram pass
    (tiny blobs through the tree merge), then resolve the survivors with
    one pruned collect pass (<= collect_limit candidate keys per target).
    Mutates each target dict's ``value`` in place.  Targets carry an
    optional ``group`` value when ``group_col`` is set."""
    import numpy as np

    from ..stages.generic_build import build_and_merge

    cols = [value_col] + ([group_col] if group_col else [])

    for _ in range(max_rounds):
        active = [t for t in targets
                  if t["value"] is None and t["in_interval"] > collect_limit
                  and t["lo"] < t["hi"]]
        if not active:
            break
        groups = ([t["group"] for t in active] if group_col else None)
        hist = build_and_merge(
            ds, cols,
            lambda: _IntervalHist(value_col,
                                  [(t["lo"], t["hi"]) for t in active],
                                  bins, group_col, groups),
            lambda s, batch: s.add_batch(batch))
        for i, t in enumerate(active):
            cum = np.cumsum(hist.counts[i])
            r_local = t["rank"] - t["below"]
            b = int(np.searchsorted(cum, r_local + 1))
            w = hist.widths[i]
            t["below"] += int(cum[b - 1]) if b > 0 else 0
            t["lo"], t["hi"] = (t["lo"] + b * w,
                                min(t["lo"] + (b + 1) * w - 1, t["hi"]))
            t["in_interval"] = int(hist.counts[i][b])
        for t in targets:
            if t["value"] is None and t["lo"] == t["hi"]:
                t["value"] = _key_to_float(t["lo"])

    pending = [t for t in targets if t["value"] is None]
    if not pending:
        return
    los = np.array([t["lo"] for t in pending], dtype=np.uint64)
    his = np.array([t["hi"] for t in pending], dtype=np.uint64)
    if group_col:
        gvals = sorted({t["group"] for t in pending})
        lut = {g: c for c, g in enumerate(gvals)}
        pcodes = np.array([lut[t["group"]] for t in pending],
                          dtype=np.int64)

    def pick(tab: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        v = tab[value_col].to_numpy(zero_copy_only=False)
        ok = ~np.isnan(v)
        keys = _float_order_keys(v[ok])
        inr = ((keys[:, None] >= los[None, :])
               & (keys[:, None] <= his[None, :]))
        if group_col:
            gc = pc.fill_null(pc.index_in(
                tab[group_col], value_set=pa.array(gvals)), -1).to_numpy(
                    zero_copy_only=False).astype(np.int64)[ok]
            inr &= gc[:, None] == pcodes[None, :]
            m = inr.any(axis=1)
            return pa.table({"k": pa.array(keys[m], type=pa.uint64()),
                             "g": pa.array(gc[m], type=pa.int64())})
        m = inr.any(axis=1)
        return pa.table({"k": pa.array(keys[m], type=pa.uint64())})

    allt = collect(ds.select_columns(cols)
                   .map_batches(pick, batch_format="pyarrow",
                                zero_copy_batch=True))
    if allt.num_rows:
        allk = allt["k"].to_numpy(zero_copy_only=False)
        allg = (allt["g"].to_numpy(zero_copy_only=False)
                if group_col else None)
    else:
        allk = np.array([], dtype=np.uint64)
        allg = None
    for j, t in enumerate(pending):
        m = (allk >= los[j]) & (allk <= his[j])
        if allg is not None:
            m &= allg == pcodes[j]
        sel = np.sort(allk[m])
        t["value"] = _key_to_float(int(sel[t["rank"] - t["below"]]))


def exact_quantiles(ds: "ray.data.Dataset", value_col: str,
                    quantiles: Sequence[float], *, bins: int = 4096,
                    collect_limit: int = 2_000_000,
                    max_rounds: int = 8) -> pa.Table:
    """EXACT distributed quantiles (``quantile_disc`` semantics: the data
    value at 0-based rank ``max(0, ceil(q*n) - 1)``) without a global
    sort: iterative histogram bisection over integer order-keys.

    Passes over the data (all streaming, nothing materialized):
      1. count + key min/max (``_order_key_stats``: one tiny row per
         batch, merged in one block);
      2. per round, ONE mergeable multi-interval histogram (4096 exact
         integer buckets per unresolved target, 32 KB blobs through the
         tree merge); each round narrows every target's key interval by
         ~4096x, so the candidate count drops below ``collect_limit``
         after ceil(log_4096(n)) rounds -- 3 rounds covers 10^12 rows;
      3. one pruned filter pass collecting only the <= collect_limit
         candidate values per target for a driver-side partition select.

    The order-key transform makes every bucket boundary exact integer
    arithmetic -- no float-rounding misassignment between rounds -- and
    an interval that narrows to a single key resolves with no collect.
    The selected value is an actual data element, so the result is
    hash-identical to DuckDB's ``quantile_disc``.
    """
    import math

    stats = _order_key_stats(ds, value_col)
    if not stats:
        raise ValueError(f"exact_quantiles: no non-NaN values in "
                         f"{value_col!r}")
    n, kmin, kmax = (int(stats[0][c]) for c in ("n", "kmin", "kmax"))

    qs = list(quantiles)
    # DuckDB quantile_disc rank: 0-based max(0, ceil(q*n) - 1)
    targets = []
    for q in qs:
        r = max(0, int(math.ceil(q * n)) - 1)
        targets.append({"rank": min(r, n - 1), "lo": kmin, "hi": kmax,
                        "below": 0, "in_interval": n, "value": None})

    _resolve_exact_targets(ds, value_col, targets, bins=bins,
                           collect_limit=collect_limit,
                           max_rounds=max_rounds)

    return pa.table({
        "q": pa.array(qs, type=pa.float64()),
        "value": pa.array([t["value"] for t in targets], type=pa.float64()),
    })


def exact_quantiles_grouped(ds: "ray.data.Dataset", value_col: str,
                            group_col: str, quantiles: Sequence[float],
                            *, bins: int = 4096,
                            collect_limit: int = 2_000_000,
                            max_rounds: int = 8) -> pa.Table:
    """Per-group EXACT quantiles (``quantile_disc`` semantics per group)
    by the same histogram-bisection machinery: one grouped stats pass
    (``_order_key_stats``: per-batch per-group rows, merged after a sort
    shuffle), then shared rounds in
    which every still-unresolved (group, q) target contributes one
    interval row to the SAME multi-interval histogram -- one data pass
    per round total, regardless of group count.

    Intended for low-cardinality group keys (flags, languages,
    categories): histogram blob size is O(groups x quantiles x bins).
    For high-cardinality keys use dds_quantiles_grouped (sketch tier)."""
    import math

    qs = list(quantiles)
    targets = []
    for row in _order_key_stats(ds, value_col, group_col):
        n = int(row["n"])
        for q in qs:
            r = max(0, int(math.ceil(q * n)) - 1)
            targets.append({"group": row[group_col], "q": q,
                            "rank": min(r, n - 1),
                            "lo": int(row["kmin"]), "hi": int(row["kmax"]),
                            "below": 0, "in_interval": n, "value": None})

    _resolve_exact_targets(ds, value_col, targets, bins=bins,
                           collect_limit=collect_limit,
                           max_rounds=max_rounds, group_col=group_col)

    targets.sort(key=lambda t: (str(t["group"]), t["q"]))
    return pa.table({
        group_col: pa.array([t["group"] for t in targets]),
        "q": pa.array([t["q"] for t in targets], type=pa.float64()),
        "value": pa.array([t["value"] for t in targets], type=pa.float64()),
    })


def sketch_cdf_by_type(sf_dir: str, *, alpha: float = 0.01,
                       bin_limit: int = 2048) -> pa.Table:
    """Sketch-driven CDF TRANSFORM: build the global DDSketch once, then
    broadcast its (sorted keys, cumulative counts) table and map every
    event to its estimated cumulative rank -- the quantile-normalization
    step of a feature pipeline (value -> percentile), done with one tiny
    broadcast instead of a global sort.

    Two streaming passes: (1) the standard distributed partial build +
    tree merge (one ~6 KB sketch row to the driver); (2) per batch,
    vectorized bucket keys + one np.searchsorted into the broadcast
    cumulative table, rolled up per event_type as exact int64 sums of
    cumulative counts (counts never average, so they are integers and
    the rollup is associative).  The DuckDB oracle re-derives the same
    bucket histogram and inclusive cumulative walk in SQL.

    At 10^12 rows the second pass is map-only: the CDF table is
    O(bin_limit) entries, ray.put once, fetched per task."""
    import ray as _ray

    events = read_table(sf_dir, "events", ["event_type", "value"])
    sketch = dds_sketch_global(events, "value", alpha=alpha,
                               bin_limit=bin_limit)
    keys = np.fromiter(sketch.bins.keys(), dtype=np.int64,
                       count=len(sketch.bins))
    counts = np.fromiter(sketch.bins.values(), dtype=np.float64,
                         count=len(sketch.bins))
    order = np.argsort(keys)
    keys_s = keys[order]
    cum = np.cumsum(np.floor(counts[order] + 0.5).astype(np.int64))
    cdf_ref = _ray.put((keys_s, cum))
    ln_gamma, offset = sketch.ln_gamma, sketch.offset

    def cum_ranks(t: pa.Table) -> pa.Table:
        ks, cs = _ray.get(cdf_ref)
        t = t.filter(pc.is_valid(t["value"]))
        from ..sketches.ddsketch import compute_keys
        k = compute_keys(t["value"].to_numpy(zero_copy_only=False),
                         ln_gamma, offset)
        pos = np.searchsorted(ks, k, side="right") - 1
        # every key was built from this same data, so pos >= 0 always;
        # guard anyway for reuse with foreign sketches
        c = np.where(pos >= 0, cs[np.maximum(pos, 0)], 0)
        return pa.table({"event_type": t["event_type"],
                         "cum": pa.array(c.astype(np.int64))})

    return collect(combine_agg(
        events, ["event_type"], cum_ranks, [("cum", "count"), ("cum", "sum")],
        named("event_type", "n_events", "sum_cum"))).sort_by("event_type")


def dds_sketches_grouped(ds: "ray.data.Dataset", value_col: str,
                         group_col: str, **sketch_kwargs) -> dict:
    """Merged per-group DDSketches on the driver (dict: group value ->
    sketch).  Bounded by group cardinality x sketch size; the shuffle
    moves only partial rows, exactly like dds_quantiles_grouped."""
    partials = build_partials_ds(ds, value_col, [group_col],
                                 **sketch_kwargs)
    return sketches_by_group(collect(merge_by_group(partials, [group_col])),
                             [group_col])


def drift_stats_pairs(sf_dir: str, *, alpha: float = 0.01,
                      bin_limit: int = 2048) -> pa.Table:
    """Distribution-DRIFT detection between groups: for every pair of
    event types, the Kolmogorov-Smirnov statistic of their value
    distributions estimated from the per-group DDSketches -- the
    training-data drift monitor (did split A's distribution move vs
    split B?) computed without any row-level comparison.

    KS is emitted as an EXACT INTEGER cross-product numerator:
    ``ks_num = max over bucket keys of |cum_a * n_b - cum_b * n_a|``
    (KS = ks_num / (n_a * n_b)), so the distributed result hash-matches
    the SQL replica with no float division anywhere.  Caveat: the
    cross products need n_a * cum_b < 2^63 -- at >10^9-row groups emit
    the float ratio instead."""
    events = read_table(sf_dir, "events", ["event_type", "value"])
    sketches = dds_sketches_grouped(events, "value", "event_type",
                                    alpha=alpha, bin_limit=bin_limit)
    types = sorted(sketches)
    rows = []
    for i, ta in enumerate(types):
        for tb in types[i + 1:]:
            sa, sb = sketches[ta], sketches[tb]
            ka = np.fromiter(sa.bins.keys(), dtype=np.int64,
                             count=len(sa.bins))
            ca = np.fromiter(sa.bins.values(), dtype=np.float64,
                             count=len(sa.bins))
            kb = np.fromiter(sb.bins.keys(), dtype=np.int64,
                             count=len(sb.bins))
            cb = np.fromiter(sb.bins.values(), dtype=np.float64,
                             count=len(sb.bins))
            allk = np.union1d(ka, kb)
            oa, ob = np.argsort(ka), np.argsort(kb)
            cum_a = np.zeros(allk.shape[0], dtype=np.int64)
            cum_b = np.zeros(allk.shape[0], dtype=np.int64)
            ia = np.searchsorted(ka[oa], allk, side="right")
            ib = np.searchsorted(kb[ob], allk, side="right")
            csa = np.concatenate([[0], np.cumsum(
                np.floor(ca[oa] + 0.5).astype(np.int64))])
            csb = np.concatenate([[0], np.cumsum(
                np.floor(cb[ob] + 0.5).astype(np.int64))])
            cum_a, cum_b = csa[ia], csb[ib]
            n_a, n_b = int(csa[-1]), int(csb[-1])
            ks_num = int(np.abs(cum_a * n_b - cum_b * n_a).max())
            rows.append((ta, tb, n_a, n_b, ks_num))
    return pa.table({
        "type_a": pa.array([r[0] for r in rows], type=pa.string()),
        "type_b": pa.array([r[1] for r in rows], type=pa.string()),
        "n_a": pa.array([r[2] for r in rows], type=pa.int64()),
        "n_b": pa.array([r[3] for r in rows], type=pa.int64()),
        "ks_num": pa.array([r[4] for r in rows], type=pa.int64()),
    })


def mad_by_flag(sf_dir: str, *, alpha: float = 0.01,
                bin_limit: int = 2048) -> pa.Table:
    """Robust statistics via TWO-PASS sketch composition: per
    l_returnflag, the DDSketch median of l_extendedprice (pass 1) and
    the median absolute deviation around it (pass 2: a second grouped
    sketch over |x - median| with the pass-1 medians broadcast) -- the
    outlier-robust scale estimate a feature pipeline prefers over
    stddev.  Both passes are the standard partial-build + merge; the
    oracle replays the identical two walks in SQL (the residual keys
    are computed from the same float median estimate, so the bucket
    math matches bit-for-bit)."""
    import ray as _ray

    col, grp = "l_extendedprice", "l_returnflag"
    ds = read_table(sf_dir, "lineitem", [grp, col])
    s1 = dds_sketches_grouped(ds, col, grp, alpha=alpha,
                              bin_limit=bin_limit)
    groups = sorted(s1)
    med = {g: s1[g].quantile(0.5) for g in groups}
    med_ref = _ray.put(med)

    def residual(t: pa.Table) -> pa.Table:
        m = _ray.get(med_ref)
        g = t[grp].to_numpy(zero_copy_only=False)
        x = t[col].to_numpy(zero_copy_only=False)
        meds = np.empty(x.shape[0], dtype=np.float64)
        for gv, mv in m.items():      # bounded by group cardinality
            meds[g == gv] = mv
        return pa.table({grp: t[grp],
                         "resid": pa.array(np.abs(x - meds))})

    resid_ds = ds.map_batches(residual, batch_format="pyarrow",
                              zero_copy_batch=True)
    s2 = dds_sketches_grouped(resid_ds, "resid", grp, alpha=alpha,
                              bin_limit=bin_limit)
    return pa.table({
        grp: pa.array(groups, type=pa.string()),
        "est_median": pa.array([round(med[g], 6) for g in groups],
                               type=pa.float64()),
        "est_mad": pa.array([round(s2[g].quantile(0.5), 6)
                             for g in groups], type=pa.float64()),
    })


def dds_rollup_lang_source(sf_dir: str, *, alpha: float = 0.01,
                           bin_limit: int = 2048,
                           quantiles=(0.5, 0.95)) -> pa.Table:
    """OLAP ROLLUP from ONE sketch build: per-(lang, source) DDSketch
    quantiles of n_chars AND the per-lang totals, where the lang level
    is produced by MERGING the finished (lang, source) sketches -- the
    data is read once; coarser aggregation levels are sketch merges,
    not re-scans.  This is the capability that makes mergeable sketches
    the right tool for data-cube reporting at 100 TB (each extra level
    costs kilobytes of merging, zero input passes).

    Output: (lang, source, q, est) with source='ALL' rows for the
    rolled-up level.  The oracle replays both group-bys from the raw
    table -- equality of the merged level with a direct per-lang build
    is exactly the merge-associativity contract the kernel property
    tests pin down."""
    ds = read_table(sf_dir, "documents", ["lang", "source", "n_chars"])
    # one build keyed by the FINEST grouping
    fine = ["lang", "source"]
    partials = build_partials_ds(ds, "n_chars", fine, alpha=alpha,
                                 bin_limit=bin_limit)
    pairs = collect(merge_by_group(partials, fine))
    # roll the finished sketches up to lang (merge, no re-read)
    langs = merged_table(pairs, ["lang"])
    langs = quantile_finalizer(["lang"], quantiles, 6)(langs)
    langs = langs.add_column(1, "source", pa.array(["ALL"] * langs.num_rows,
                                                   type=pa.string()))
    out = pa.concat_tables([quantile_finalizer(fine, quantiles, 6)(pairs),
                            langs]).drop_columns(["bucket_key"])
    return out.sort_by([(c, "ascending") for c in out.column_names])


def quantile_error_report(sf_dir: str, *, alpha: float = 0.01,
                          bin_limit: int = 2048,
                          quantiles=(0.5, 0.95, 0.99)) -> pa.Table:
    """The reference's accuracy harness (testQuantile,
    /root/reference/main.cpp:1041-1082) as a first-class DISTRIBUTED
    query: for each q, the DDSketch estimate, the EXACT order statistic
    (histogram-bisection selection -- no global sort), and the relative
    error in integer ppm.  The printed |q, estimate, real, error| table
    of the reference becomes a self-auditing pipeline whose own oracle
    verifies that error <= alpha -- trust, then verify, in the same
    engine."""
    col = "l_extendedprice"
    ds = read_table(sf_dir, "lineitem", [col])
    sketch = dds_sketch_global(ds, col, alpha=alpha, bin_limit=bin_limit)
    ests = [sketch.quantile(q) for q in quantiles]
    exact = exact_quantiles(ds, col, list(quantiles))
    exact_vals = exact["value"].to_numpy(zero_copy_only=False)
    rel_ppm = [int(np.floor(abs(e - x) / x * 1e6 + 0.5))
               for e, x in zip(ests, exact_vals)]
    assert all(p <= alpha * 1e6 * 1.01 for p in rel_ppm), \
        "DDSketch violated its alpha bound"   # the reference's guarantee
    return pa.table({
        "q": pa.array(list(quantiles), type=pa.float64()),
        "est": pa.array([round(e, 6) for e in ests], type=pa.float64()),
        "exact": pa.array(exact_vals, type=pa.float64()),
        "rel_err_ppm": pa.array(rel_ppm, type=pa.int64()),
    })


# ---------------------------------------------------------------------------
# Exact WEIGHTED median (grouped): histogram bisection over weight mass
# ---------------------------------------------------------------------------

class _WeightedIntervalHist:
    """Per-interval integer histogram over float order-keys accumulating
    WEIGHT mass instead of row counts -- the weighted twin of
    _IntervalHist, same mergeable accumulator shape."""

    def __init__(self, value_col: str, weight_col: str, intervals,
                 bins: int, group_col: str, groups):
        import numpy as np
        self.value_col, self.weight_col = value_col, weight_col
        self.group_col = group_col
        self.intervals = [(int(lo), int(hi)) for lo, hi in intervals]
        self.bins = bins
        self.widths = [max(1, -((hi - lo + 1) // -bins))
                       for lo, hi in self.intervals]
        self.counts = np.zeros((len(self.intervals), bins), dtype=np.int64)
        self.group_values = sorted(set(groups))
        lut = {g: c for c, g in enumerate(self.group_values)}
        self.codes = [lut[g] for g in groups]

    def add_batch(self, t: pa.Table) -> None:
        import numpy as np
        import pyarrow.compute as pc
        v = t[self.value_col].to_numpy(zero_copy_only=False)
        w = t[self.weight_col].to_numpy(zero_copy_only=False)
        ok = ~np.isnan(v)
        keys = _float_order_keys(v[ok])
        wts = np.floor(w[ok] + 0.5).astype(np.int64)
        gc = pc.fill_null(pc.index_in(
            t[self.group_col],
            value_set=pa.array(self.group_values)), -1).to_numpy(
                zero_copy_only=False).astype(np.int64)[ok]
        for i, (lo, hi) in enumerate(self.intervals):
            m = ((keys >= np.uint64(lo)) & (keys <= np.uint64(hi))
                 & (gc == self.codes[i]))
            if not m.any():
                continue
            idx = ((keys[m] - np.uint64(lo))
                   // np.uint64(self.widths[i])).astype(np.int64)
            self.counts[i] += np.bincount(idx, weights=wts[m],
                                          minlength=self.bins
                                          ).astype(np.int64)

    def merge(self, other: "_WeightedIntervalHist"):
        self.counts += other.counts
        return self


def exact_weighted_median_grouped(ds: "ray.data.Dataset", value_col: str,
                                  weight_col: str, group_col: str, *,
                                  bins: int = 4096,
                                  collect_limit: int = 2_000_000,
                                  max_rounds: int = 8) -> dict:
    """EXACT weighted median per group without a global sort: the
    smallest data value v with cumulative weight(rows <= v) >=
    (W_group + 1) // 2.  Same iterative histogram-bisection shape as
    exact_quantiles, with WEIGHT mass driving the rank walk -- each
    round is one mergeable multi-interval weighted histogram (tiny
    blobs through the tree merge), then one pruned collect resolves the
    survivors driver-side.  Weights must be non-negative integers
    (enforced by rounding).  Returns {group: (W, median_value)}."""
    from ..stages.generic_build import build_and_merge

    cols = [value_col, weight_col, group_col]
    targets = []
    for r in _order_key_stats(ds, value_col, group_col, weight_col):
        W = int(r["n"])
        targets.append({"group": r[group_col], "W": W,
                        "rank": (W + 1) // 2,
                        "lo": int(r["kmin"]), "hi": int(r["kmax"]),
                        "below": 0, "in_interval": W, "value": None})

    for _ in range(max_rounds):
        active = [t for t in targets
                  if t["value"] is None and t["in_interval"] > collect_limit
                  and t["lo"] < t["hi"]]
        if not active:
            break
        hist = build_and_merge(
            ds.select_columns(cols), cols,
            lambda: _WeightedIntervalHist(
                value_col, weight_col,
                [(t["lo"], t["hi"]) for t in active], bins, group_col,
                [t["group"] for t in active]),
            lambda s, batch: s.add_batch(batch))
        for i, t in enumerate(active):
            cum = np.cumsum(hist.counts[i])
            L = t["rank"] - t["below"]
            b = int(np.searchsorted(cum, L, side="left"))
            w = hist.widths[i]
            t["below"] += int(cum[b - 1]) if b > 0 else 0
            t["lo"], t["hi"] = (t["lo"] + b * w,
                                min(t["lo"] + (b + 1) * w - 1, t["hi"]))
            t["in_interval"] = int(hist.counts[i][b])
        for t in targets:
            if t["value"] is None and t["lo"] == t["hi"]:
                t["value"] = _key_to_float(t["lo"])

    pending = [t for t in targets if t["value"] is None]
    if pending:
        los = np.array([t["lo"] for t in pending], dtype=np.uint64)
        his = np.array([t["hi"] for t in pending], dtype=np.uint64)
        gvals = sorted({t["group"] for t in pending})
        lut = {g: c for c, g in enumerate(gvals)}
        pcodes = np.array([lut[t["group"]] for t in pending],
                          dtype=np.int64)

        def pick(tab: pa.Table) -> pa.Table:
            import pyarrow.compute as pc
            v = tab[value_col].to_numpy(zero_copy_only=False)
            w = tab[weight_col].to_numpy(zero_copy_only=False)
            ok = ~np.isnan(v)
            keys = _float_order_keys(v[ok])
            wts = np.floor(w[ok] + 0.5).astype(np.int64)
            gc = pc.fill_null(pc.index_in(
                tab[group_col], value_set=pa.array(gvals)), -1).to_numpy(
                    zero_copy_only=False).astype(np.int64)[ok]
            inr = ((keys[:, None] >= los[None, :])
                   & (keys[:, None] <= his[None, :])
                   & (gc[:, None] == pcodes[None, :]))
            m = inr.any(axis=1)
            return pa.table({"k": pa.array(keys[m], type=pa.uint64()),
                             "w": pa.array(wts[m], type=pa.int64()),
                             "g": pa.array(gc[m], type=pa.int64())})

        allt = collect(ds.select_columns(cols)
                       .map_batches(pick, batch_format="pyarrow",
                                    zero_copy_batch=True))
        if not allt.num_rows:
            allt = pa.table({"k": pa.array([], type=pa.uint64()),
                             "w": pa.array([], type=pa.int64()),
                             "g": pa.array([], type=pa.int64())})
        allk = allt["k"].to_numpy(zero_copy_only=False)
        allw = allt["w"].to_numpy(zero_copy_only=False)
        allg = allt["g"].to_numpy(zero_copy_only=False)
        for j, t in enumerate(pending):
            m = ((allk >= los[j]) & (allk <= his[j])
                 & (allg == pcodes[j]))
            order = np.argsort(allk[m], kind="stable")
            ks, ws = allk[m][order], allw[m][order]
            cum = np.cumsum(ws)
            L = t["rank"] - t["below"]
            t["value"] = _key_to_float(
                int(ks[int(np.searchsorted(cum, L, side="left"))]))

    return {t["group"]: (t["W"], t["value"]) for t in targets}


def weighted_median_by_flag(sf_dir: str) -> pa.Table:
    """Driver query: exact QUANTITY-weighted median extended price per
    return flag -- 'the price at which half the shipped units are
    cheaper', the inventory-weighted robust center that an unweighted
    median misstates whenever price correlates with volume."""
    ds = read_table(sf_dir, "lineitem",
                    ["l_returnflag", "l_extendedprice", "l_quantity"])
    res = exact_weighted_median_grouped(
        ds, "l_extendedprice", "l_quantity", "l_returnflag")
    flags = sorted(res)
    return pa.table({
        "l_returnflag": pa.array(flags, type=pa.string()),
        "total_weight": pa.array([res[f][0] for f in flags],
                                 type=pa.int64()),
        "weighted_median": pa.array([res[f][1] for f in flags],
                                    type=pa.float64()),
    })


WEIGHTED_MEDIAN_SQL = """
WITH w AS (
  SELECT l_returnflag AS flag, l_extendedprice AS v,
         CAST(l_quantity AS BIGINT) AS wt
  FROM lineitem
), tot AS (
  SELECT flag, CAST(sum(wt) AS BIGINT) AS W FROM w GROUP BY 1
), c AS (
  SELECT flag, v,
         sum(wt) OVER (PARTITION BY flag ORDER BY v
                       ROWS UNBOUNDED PRECEDING) AS cum
  FROM w
)
SELECT c.flag AS l_returnflag, tot.W AS total_weight,
       min(c.v) AS weighted_median
FROM c JOIN tot USING (flag)
WHERE c.cum >= (tot.W + 1) // 2
GROUP BY 1, 2 ORDER BY 1
"""


def conversion_lag_dds(sf_dir: str, qs=(0.5, 0.95, 0.99),
                       alpha: float = 0.01, bin_limit: int = 2048,
                       from_type: str = "signup",
                       to_type: str = "purchase") -> pa.Table:
    """DDSketch quantiles of a DERIVED stream: per-user conversion lag
    (first ``to_type`` minus first ``from_type``, microseconds, users
    converting at/after the first touch) -- the sketch-over-pipeline
    composition a funnel team runs ("p95 time-to-convert"), showing the
    sketch stage consuming a co-partitioned join kernel's output
    instead of a raw column.

    Scale shape: events fold per block to (user, which, min_ts)
    partials; one user co-partition computes each user's lag (one row
    per converting user); the standard DDSketch partial/merge path
    sketches the lag stream without materializing it anywhere."""
    from ..stages.partition import fit_partitions, partition_by

    ds = read_table(sf_dir, "events", ["ts", "user_id", "event_type"])

    part_empty = pa.table({"user_id": pa.array([], type=pa.int64()),
                           "which": pa.array([], type=pa.int64()),
                           "t": pa.array([], type=pa.int64())})

    def prep(t: pa.Table) -> pa.Table:
        et = t["event_type"]
        m0 = pc.equal(et, pa.scalar(from_type))
        m1 = pc.equal(et, pa.scalar(to_type))
        keep = pc.or_(m0, m1)
        t2 = t.filter(keep)
        if t2.num_rows == 0:
            return part_empty
        which = pc.cast(pc.equal(t2["event_type"], pa.scalar(to_type)),
                        pa.int64()).to_numpy(zero_copy_only=False)
        uid = t2["user_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        us = pc.cast(t2["ts"], pa.int64()).to_numpy(
            zero_copy_only=False)
        comp = uid * 2 + which
        uc, inv = np.unique(comp, return_inverse=True)
        tmin = np.full(uc.shape[0], np.iinfo(np.int64).max,
                       dtype=np.int64)
        np.minimum.at(tmin, inv, us)
        return pa.table({"user_id": pa.array(uc // 2),
                         "which": pa.array(uc % 2),
                         "t": pa.array(tmin)})

    lag_empty = pa.table({"x": pa.array([], type=pa.float64())})

    def lag_kernel(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        which = t["which"].to_numpy(zero_copy_only=False)
        ts = t["t"].to_numpy(zero_copy_only=False)
        comp = uid * 2 + which
        uc, inv = np.unique(comp, return_inverse=True)
        tmin = np.full(uc.shape[0], np.iinfo(np.int64).max,
                       dtype=np.int64)
        np.minimum.at(tmin, inv, ts)
        u_of = uc // 2
        w_of = uc % 2
        users = np.unique(u_of)
        t0 = np.full(users.shape[0], -1, dtype=np.int64)
        t1 = np.full(users.shape[0], -1, dtype=np.int64)
        pos = np.searchsorted(users, u_of)
        t0[pos[w_of == 0]] = tmin[w_of == 0]
        t1[pos[w_of == 1]] = tmin[w_of == 1]
        ok = (t0 >= 0) & (t1 >= 0) & (t1 >= t0)
        return pa.table({"x": pa.array((t1[ok] - t0[ok])
                                       .astype(np.float64))})

    lags = partition_by(
        ds.map_batches(prep, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["user_id"], fit_partitions(16), lag_kernel, lag_empty)
    return dds_quantiles_global(lags, "x", tuple(qs), alpha=alpha,
                                bin_limit=bin_limit, round_digits=6)


def dds_alpha_error_sweep(sf_dir: str, q: float = 0.95,
                          alphas=(0.02, 0.01, 0.005),
                          bin_limit: int = 4096) -> pa.Table:
    """ACCURACY-vs-ALPHA sweep with an exact audit: build DDSketches at
    several alphas in ONE streamed pass (one partial row per (block,
    alpha), tagged with the alpha's index ``ai``), estimate the
    q-quantile from each, and check every estimate against the EXACT
    distributed quantile (the bisection pipeline) -- the flagship
    metric's own acceptance test ("max quantile relative error <=
    alpha") as a driver query.

    Scale shape: the multi-alpha build reads the column once; the
    merge is one keyed exchange of the partial rows by ``ai``; the exact
    audit adds the histogram-bisection passes (no sort, no
    materialization)."""
    ds = read_table(sf_dir, "lineitem", ["l_extendedprice"])
    alphas = tuple(alphas)

    def partials(t: pa.Table) -> pa.Table:
        col = t["l_extendedprice"]
        if col.null_count:
            col = col.drop_null()
        vals = col.to_numpy(zero_copy_only=False).astype(np.float64,
                                                         copy=False)
        ids = np.zeros(vals.shape[0], dtype=np.int64)
        return pa.concat_tables(
            pa.table({"ai": pa.array([i], type=pa.int64()),
                      **partial_columns(vals, ids, 1, alpha=a,
                                        bin_limit=bin_limit)})
            for i, a in enumerate(alphas))

    merged = sketches_by_group(collect(merge_by_group(
        ds.map_batches(partials, batch_format="pyarrow",
                       zero_copy_batch=True), ["ai"])), ["ai"])

    exact_t = exact_quantiles(ds, "l_extendedprice", [q])
    exact = float(exact_t["value"][0].as_py())

    rows = []
    for i, a in enumerate(alphas):
        s = merged[i]
        key = s.quantile_key(q)
        est = round(s._bucket_estimate(key), 6)
        # ONE float expression, mirrored in the SQL twin
        err = int(np.floor(abs(est - exact) / exact * 1_000_000.0))
        am = int(round(a * 1_000_000))
        rows.append((am, key, est, exact, err, int(err <= am)))
    rows.sort(key=lambda r: -r[0])
    return pa.table({
        "alpha_micro": pa.array([r[0] for r in rows], type=pa.int64()),
        "bucket_key": pa.array([r[1] for r in rows], type=pa.int64()),
        "est": pa.array([r[2] for r in rows], type=pa.float64()),
        "exact": pa.array([r[3] for r in rows], type=pa.float64()),
        "rel_err_micro": pa.array([r[4] for r in rows],
                                  type=pa.int64()),
        "within_alpha": pa.array([r[5] for r in rows],
                                 type=pa.int64()),
    })


def exact_rank_select(ds: "ray.data.Dataset", value_col: str,
                      ranks: Sequence[int], *, bins: int = 4096,
                      collect_limit: int = 2_000_000,
                      max_rounds: int = 8) -> list[float]:
    """Value at each explicit 0-based rank (ascending order) -- the
    rank-select primitive under exact_quantiles, exposed for callers
    that know positions rather than fractions (e.g. the DGIM bucket
    boundary lookup).  Same bisection dataflow: no global sort, tiny
    histogram blobs, one pruned collect."""
    stats = _order_key_stats(ds, value_col)
    if not stats:
        raise ValueError("exact_rank_select: empty input")
    n, kmin, kmax = (int(stats[0][c]) for c in ("n", "kmin", "kmax"))
    targets = [{"rank": min(max(int(r), 0), n - 1), "lo": kmin,
                "hi": kmax, "below": 0, "in_interval": n,
                "value": None} for r in ranks]
    _resolve_exact_targets(ds, value_col, targets, bins=bins,
                           collect_limit=collect_limit,
                           max_rounds=max_rounds)
    return [t["value"] for t in targets]
