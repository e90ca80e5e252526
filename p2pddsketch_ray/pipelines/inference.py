"""Batched model inference as Ray Data actor-pool stages.

The training-data-pipeline shape the reference never had: a trained
model's parameters are broadcast (``ray.put`` once), each actor of a
``map_batches(Cls, concurrency=N)`` pool fetches them ONCE in
``__init__`` (never per batch), and inference is a vectorized kernel
over the whole Arrow batch.  The demo model is a deterministic integer
linear classifier over SQL-replicable text features, so the driver's
DuckDB oracle can replay the exact scores; a real sentiment/quality
model drops into the same stage by replacing ``_features``/``predict``
(the plumbing -- broadcast, pooling, batching, combiner -- is what this
module exercises).

Determinism: features and weights are integers, the logit is an exact
int64 dot product, and class thresholds compare integers -- no float
crosses an engine boundary.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data
from ray.data.aggregate import Max, Min

from ..sources.tables import read_table
from ..stages.combine import combine_agg, named
from ..stages.partition import cluster_cpus

# "trained" model: integer weights over (bias, n_chars, n_toks, n_a, n_e)
MODEL_WEIGHTS = {"bias": 2000, "w_chars": -3, "w_toks": 40,
                 "w_a": 7, "w_e": -5}
CLS_LO, CLS_HI = 3000, 3700  # integer logit thresholds
CLASS_NAMES = pa.array(["low", "mid", "high"])


def _letter_count(txt: pa.ChunkedArray, ch: str,
                  total: np.ndarray) -> np.ndarray:
    """Occurrences of ``ch`` per string via length arithmetic (the same
    length(x) - length(replace(x, ch, '')) the SQL oracle uses)."""
    stripped = pc.utf8_length(pc.replace_substring(txt, ch, ""))
    return total - stripped.to_numpy(zero_copy_only=False)


class LinearDocScorer:
    """Actor-pool inference stage: broadcast weights -> per-batch logits.

    ``weights_ref`` is a ``ray.put`` handle; each pool actor resolves it
    once here (model load happens per ACTOR, not per batch -- swap in a
    real model deserialization and the economics stay right).  The
    callable emits each document's (lang, class, logit).
    """

    def __init__(self, weights_ref):
        w = ray.get(weights_ref) if not isinstance(weights_ref, dict) \
            else weights_ref
        self.w = {k: np.int64(v) for k, v in w.items()}

    def predict(self, t: pa.Table) -> np.ndarray:
        """Exact int64 logits for every row of the batch."""
        txt = t["text"]
        total = pc.utf8_length(txt).to_numpy(zero_copy_only=False)
        nch = pc.cast(t["n_chars"], pa.int64()).to_numpy(
            zero_copy_only=False)
        ntok = pc.list_value_length(
            pc.split_pattern(txt, pattern=" ")).to_numpy(
            zero_copy_only=False).astype(np.int64)
        n_a = _letter_count(txt, "a", total)
        n_e = _letter_count(txt, "e", total)
        w = self.w
        return (w["bias"] + w["w_chars"] * nch + w["w_toks"] * ntok
                + w["w_a"] * n_a + w["w_e"] * n_e)

    def __call__(self, t: pa.Table) -> pa.Table:
        logit = self.predict(t)
        cls = (logit >= CLS_LO).astype(np.int64) + (logit >= CLS_HI)
        return pa.table({"lang": t["lang"],
                         "cls": pc.take(CLASS_NAMES, cls),
                         "logit": pa.array(logit)})


def model_score_stats(sf_dir: str) -> "ray.data.Dataset":
    """Batched model inference over documents: broadcast-weight linear
    classifier scored by an actor pool, rolled up per (lang, class).

    Scale shape: the model ships to the object store ONCE (``ray.put``)
    and each of the pool's actors fetches it once in ``__init__`` -- at
    a real model size (GBs) this is the only layout that works; the
    per-batch work is one vectorized feature pass + integer dot product;
    ``combine_agg`` bounds the shuffle at O(langs x 3) rows per block
    regardless of corpus size."""
    ds = read_table(sf_dir, "documents", ["lang", "text", "n_chars"])
    weights_ref = ray.put(dict(MODEL_WEIGHTS))
    scored = ds.map_batches(LinearDocScorer, batch_format="pyarrow",
                            zero_copy_batch=True,
                            concurrency=min(2, cluster_cpus()),
                            fn_constructor_kwargs={
                                "weights_ref": weights_ref})
    return combine_agg(
        scored, ["lang", "cls"], lambda t: t,
        [("logit", "count"), ("logit", "sum"), ("logit", "max")],
        named("lang", "cls", "n_docs", "sum_logit", "max_logit")
    ).sort(["lang", "cls"])


MODEL_SCORE_SQL = f"""
WITH feat AS (
  SELECT lang,
         {MODEL_WEIGHTS['bias']}
         + {MODEL_WEIGHTS['w_chars']} * n_chars
         + {MODEL_WEIGHTS['w_toks']} * len(string_split(text, ' '))
         + {MODEL_WEIGHTS['w_a']} *
             (length(text) - length(replace(text, 'a', '')))
         + {MODEL_WEIGHTS['w_e']} *
             (length(text) - length(replace(text, 'e', '')))
         AS logit
  FROM documents
)
SELECT lang,
       CASE WHEN logit >= {CLS_HI} THEN 'high'
            WHEN logit >= {CLS_LO} THEN 'mid' ELSE 'low' END AS cls,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(logit) AS BIGINT) AS sum_logit,
       CAST(max(logit) AS BIGINT) AS max_logit
FROM feat GROUP BY 1, 2 ORDER BY 1, 2
"""


def score_lift_report(sf_dir: str, n_bins: int = 10,
                      pos_chars: int = 200) -> pa.Table:
    """Model-eval LIFT/GAINS table for the broadcast linear scorer: the
    logit range is split into equal-width bins and each bin reports its
    document count, positive count (label: n_chars >= ``pos_chars``),
    positive rate, exact logit mass, and the cumulative share of all
    positives captured from the top score bin down -- the gains curve a
    ranking-model evaluation reads off.

    Scale shape: pass 1 folds per-block (min, max) logits to fix the
    grid (at corpus scale you would persist the score column once via
    the partitioned-write stage instead of re-scoring); pass 2 is the
    same actor-pool scorer binning every document, folded by
    ``combine_agg`` to <= n_bins rows per block; the cumulative walk runs
    on the bounded grid driver-side."""
    w_ref = ray.put(MODEL_WEIGHTS)

    def read():
        return read_table(sf_dir, "documents", ["text", "n_chars"])

    class MinMax:
        def __init__(self, weights_ref):
            self.scorer = LinearDocScorer(weights_ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            logit = self.scorer.predict(t)
            return pa.table({
                "mn": pa.array([int(logit.min())], type=pa.int64()),
                "mx": pa.array([int(logit.max())], type=pa.int64())})

    mm = (read().map_batches(MinMax, batch_format="pyarrow",
                             zero_copy_batch=True,
                             concurrency=min(2, cluster_cpus()),
                             fn_constructor_args=(w_ref,))
          .aggregate(Min("mn"), Max("mx")))
    mn, mx = int(mm["min(mn)"]), int(mm["max(mx)"])
    width_den = mx - mn + 1

    class BinFold:
        def __init__(self, weights_ref):
            self.scorer = LinearDocScorer(weights_ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            logit = self.scorer.predict(t)
            bins = (logit - mn) * n_bins // width_den
            pos = (pc.cast(t["n_chars"], pa.int64())
                   .to_numpy(zero_copy_only=False)
                   >= pos_chars).astype(np.int64)
            return pa.table({"bin": pa.array(bins.astype(np.int64)),
                             "pos": pa.array(pos),
                             "logit": pa.array(logit.astype(np.int64))})

    binned = read().map_batches(BinFold, batch_format="pyarrow",
                                zero_copy_batch=True,
                                concurrency=min(2, cluster_cpus()),
                                fn_constructor_args=(w_ref,))
    grid = (combine_agg(binned, ["bin"], lambda t: t,
                        [("pos", "count"), ("pos", "sum"),
                         ("logit", "sum")],
                        named("bin", "n_docs", "n_pos", "sum_logit"))
            .to_pandas().sort_values("bin", ascending=False))
    n_docs = grid["n_docs"].to_numpy(dtype=np.int64)
    n_pos = grid["n_pos"].to_numpy(dtype=np.int64)
    total_pos = int(n_pos.sum())
    cum_pos = np.cumsum(n_pos)
    pos_rate = n_pos * 1_000_000 // n_docs
    if total_pos:
        cum_share = cum_pos * 1_000_000 // total_pos
    else:
        cum_share = np.zeros(len(grid), dtype=np.int64)
    return pa.table({
        "bin": pa.array(grid["bin"].to_numpy(dtype=np.int64)),
        "n_docs": pa.array(n_docs),
        "n_pos": pa.array(n_pos),
        "pos_rate_ppm": pa.array(pos_rate.astype(np.int64)),
        "sum_logit": pa.array(grid["sum_logit"].to_numpy(
            dtype=np.int64)),
        "cum_pos_share_ppm": pa.array(cum_share.astype(np.int64)),
    })


SCORE_LIFT_SQL = f"""
WITH feat AS (
  SELECT CASE WHEN n_chars >= 200 THEN 1 ELSE 0 END AS pos,
         {MODEL_WEIGHTS['bias']}
         + {MODEL_WEIGHTS['w_chars']} * n_chars
         + {MODEL_WEIGHTS['w_toks']} * len(string_split(text, ' '))
         + {MODEL_WEIGHTS['w_a']} *
             (length(text) - length(replace(text, 'a', '')))
         + {MODEL_WEIGHTS['w_e']} *
             (length(text) - length(replace(text, 'e', '')))
         AS logit
  FROM documents
),
mm AS (SELECT min(logit) AS mn, max(logit) AS mx FROM feat),
binned AS (SELECT CAST((logit - mm.mn) * 10 // (mm.mx - mm.mn + 1)
                       AS BIGINT) AS bin,
                  logit, pos
           FROM feat CROSS JOIN mm),
cell AS (SELECT bin, CAST(count(*) AS BIGINT) AS n_docs,
                CAST(sum(pos) AS BIGINT) AS n_pos,
                CAST(sum(logit) AS BIGINT) AS sum_logit
         FROM binned GROUP BY 1),
tot AS (SELECT CAST(sum(n_pos) AS BIGINT) AS tp FROM cell)
SELECT bin, n_docs, n_pos,
       CAST(n_pos * 1000000 // n_docs AS BIGINT) AS pos_rate_ppm,
       sum_logit,
       COALESCE(CAST(CAST(sum(n_pos) OVER (ORDER BY bin DESC)
                          AS HUGEINT) * 1000000
                     // NULLIF((SELECT tp FROM tot), 0) AS BIGINT), 0)
         AS cum_pos_share_ppm
FROM cell
ORDER BY bin DESC
"""


def brier_decomposition(sf_dir: str, n_bins: int = 10,
                        pos_chars: int = 200) -> pa.Table:
    """MURPHY (1973) decomposition of the Brier score for the broadcast
    linear scorer: per probability-bin reliability (calibration gap)
    and resolution (how far the bin's hit rate sits from the base
    rate), plus the raw squared-error mass -- the calibration report a
    ranking/quality model gets before its scores gate a data pipeline.

    The logit is squashed to an integer micro-probability by clamping
    to [CLS_LO, CLS_HI] then linear rescale (deterministic ints, no
    sigmoid float), label y = n_chars >= ``pos_chars`` -- every column
    is exact integer math the DuckDB twin replays.

    Scale shape: the actor pool scores each batch once (weights fetched
    per actor), ``combine_agg`` folds each batch to O(bins) rows, and
    the decomposition terms are driver math over the bounded bin table.
    """
    ds = read_table(sf_dir, "documents", ["text", "n_chars"])
    weights_ref = ray.put(dict(MODEL_WEIGHTS))
    span = CLS_HI - CLS_LO

    class _BinStage(LinearDocScorer):
        def __call__(self, t: pa.Table) -> pa.Table:
            logit = self.predict(t)
            lc = np.clip(logit, CLS_LO, CLS_HI)
            p = (lc - CLS_LO) * np.int64(1_000_000) // span
            y = (pc.cast(t["n_chars"], pa.int64())
                 .to_numpy(zero_copy_only=False)
                 >= pos_chars).astype(np.int64)
            bins = np.minimum(p * n_bins // 1_000_000, n_bins - 1)
            # int64 sums (never float): the micro^2 sums must stay exact
            # past 2^53
            err = p - y * np.int64(1_000_000)
            return pa.table({"bin": pa.array(bins), "y": pa.array(y),
                             "p": pa.array(p), "sse": pa.array(err * err)})

    binned = ds.map_batches(_BinStage, batch_format="pyarrow",
                            zero_copy_batch=True,
                            concurrency=min(2, cluster_cpus()),
                            fn_constructor_kwargs={
                                "weights_ref": weights_ref})
    agg = (combine_agg(binned, ["bin"], lambda t: t,
                       [("y", "count"), ("y", "sum"), ("p", "sum"),
                        ("sse", "sum")],
                       named("bin", "n", "n_pos", "sum_p", "sse"))
           .to_pandas().sort_values("bin"))
    n = agg["n"].to_numpy(dtype=np.int64)
    npos = agg["n_pos"].to_numpy(dtype=np.int64)
    sp = agg["sum_p"].to_numpy(dtype=np.int64)
    ybar = int(npos.sum()) * 1_000_000 // int(n.sum())
    mean_p = sp // n
    rate = npos * np.int64(1_000_000) // n
    return pa.table({
        "bin": pa.array(agg["bin"].to_numpy(dtype=np.int64)),
        "n_docs": pa.array(n),
        "n_pos": pa.array(npos),
        "mean_p_micro": pa.array(mean_p),
        "pos_rate_micro": pa.array(rate),
        "sse_micro2": pa.array(agg["sse"].to_numpy(dtype=np.int64)),
        "rel_contrib": pa.array(n * (mean_p - rate) ** 2),
        "res_contrib": pa.array(n * (rate - ybar) ** 2),
    })


BRIER_DECOMP_SQL = f"""
WITH feat AS (
  SELECT n_chars,
         {MODEL_WEIGHTS['bias']}
         + {MODEL_WEIGHTS['w_chars']} * n_chars
         + {MODEL_WEIGHTS['w_toks']} * len(string_split(text, ' '))
         + {MODEL_WEIGHTS['w_a']} *
             (length(text) - length(replace(text, 'a', '')))
         + {MODEL_WEIGHTS['w_e']} *
             (length(text) - length(replace(text, 'e', '')))
         AS logit
  FROM documents
), p AS (
  SELECT (least({CLS_HI}, greatest({CLS_LO}, logit)) - {CLS_LO})
           * 1000000 // {CLS_HI - CLS_LO} AS pm,
         CASE WHEN n_chars >= 200 THEN 1 ELSE 0 END AS y
  FROM feat
), b AS (
  SELECT least(pm * 10 // 1000000, 9) AS bin,
         CAST(count(*) AS BIGINT) AS n_docs,
         CAST(sum(y) AS BIGINT) AS n_pos,
         CAST(sum(pm) AS BIGINT) AS sum_p,
         CAST(sum((pm - y * 1000000) * (pm - y * 1000000)) AS BIGINT)
           AS sse_micro2
  FROM p GROUP BY 1
), tot AS (
  SELECT CAST(sum(n_pos) * 1000000 // sum(n_docs) AS BIGINT) AS ybar
  FROM b
)
SELECT CAST(bin AS BIGINT) AS bin, n_docs, n_pos,
       sum_p // n_docs AS mean_p_micro,
       n_pos * 1000000 // n_docs AS pos_rate_micro,
       sse_micro2,
       n_docs * (sum_p // n_docs - n_pos * 1000000 // n_docs)
              * (sum_p // n_docs - n_pos * 1000000 // n_docs)
         AS rel_contrib,
       n_docs * (n_pos * 1000000 // n_docs - ybar)
              * (n_pos * 1000000 // n_docs - ybar) AS res_contrib
FROM b CROSS JOIN tot
WHERE n_docs > 0 ORDER BY bin
"""
