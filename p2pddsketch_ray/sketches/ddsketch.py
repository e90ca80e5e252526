"""DDSketch: relative-error quantile sketch with collapsing log-bucket stores.

From-scratch Python/numpy implementation of the data structure described in

    Masson, Rim, Lee. "DDSketch: a fast and fully-mergeable quantile sketch
    with relative-error guarantees." PVLDB 12(12), 2019.

Semantics match the reference implementation at /root/reference/ddsketch.cc
(studied for behavior, not copied):

* key function (ddsketch.cc:84-104): for x > 0, ``key = ceil(ln x / ln g) +
  offset``; for x < 0 the sign-mirrored ``-(ceil(ln -x / ln g)) - offset``;
  x == 0 maps to key 0.  The offset (default 2^30, main.cpp:49) shifts
  positive keys to ~ +2^30 and negative keys to ~ -2^30 so plain integer
  ordering of keys equals value ordering (negatives < 0 < positives), which
  is what makes the quantile walk correct.
* value estimate for a bucket (ddsketch.cc:106-127): ``2*g^m / (g+1)``
  (geometric midpoint), sign-mirrored, where m = |key| - offset.
* gamma^2 collapse (ddsketch.cc:837-911): gamma <- gamma^2,
  alpha <- 2a/(1+a^2), and every bucket magnitude m remaps to ceil(m/2)
  (the reference's even/odd ``ceil((m+of)/2)`` with of=-1/+1,
  ddsketch.cc:184-210 + 870-895, reduces to ceil(m/2) for even offsets).
* last/first-bucket collapse strategies (ddsketch.cc:788-835): fold the
  second-extreme bin into the extreme bin and track the collapsed key
  range [kmin, kmax]; deletes whose key falls inside that range hit the
  extreme bin instead (ddsketch.cc:414-419, 478-481).
* quantile (ddsketch.cc:520-557): rank target ``stop = q*(n-1)``; walk bins
  in ascending key order accumulating counts until the running count
  exceeds ``stop``; answer is that bucket's midpoint estimate.

Deliberate divergences (documented, see SURVEY.md section 3.3 / 7.3):

* **Exact-sum merge, no gossip averaging.**  The reference's
  ``DDS_MergeCollapse`` (ddsketch.cc:559-647) halves every bin and averages
  ``n`` because its P2P gossip protocol computes a push-sum *average*; a Ray
  Data shuffle computes the exact global *sum*, so our uniform-mode merge is
  the plain bin-wise sum (the semantics of ``DDS_MergeCollapseLastBucket``,
  ddsketch.cc:649-716, applied to the uniform strategy).
* **Integer collapse generation instead of float-alpha tolerance.**  The
  reference equalizes two sketches' alphas by collapsing the finer one until
  ``|a1-a2| <= 1e-7`` (ddsketch.cc:582-596).  We track ``generation`` = the
  integer number of gamma^2 collapses since construction; sketches with equal
  (alpha0, generation) have bit-identical gamma, so merge promotes both
  operands to ``max(gen1, gen2)`` and associativity holds exactly.  Because
  bin counts are integers (sums of +1s) they are exact in float64 up to
  2^53, so merge order cannot perturb a single bit: this is what makes the
  "bit-identical serialized sketch for every merge order" property test pass.
* Keys are int64 (the reference uses C ``int``; its overflow for extreme
  magnitudes is not replicated).  ``offset`` must be even (the default 2^30
  is), so the parity-based collapse-key remap reduces to ceil(m/2).
"""

from __future__ import annotations

import math
import struct
from functools import lru_cache

import numpy as np

from ..config import DEFAULT_ALPHA, DEFAULT_BIN_LIMIT, DEFAULT_OFFSET

_INT32_MAX = 2**31 - 1
_INT32_MIN = -(2**31)

_MODES = ("uniform", "last", "first")


@lru_cache(maxsize=None)
def _derived_params(alpha0: float, generation: int) -> tuple[float, float, float]:
    """(alpha, gamma, ln_gamma) after ``generation`` gamma^2 collapses.

    Iterates the exact float ops of the reference collapse
    (ddsketch.cc:856-858: gamma = gamma^2, ln_gamma = log(gamma),
    alpha = 2a/(1+a^2)) so every sketch at the same (alpha0, generation)
    holds bit-identical parameters regardless of its history.
    """
    alpha = alpha0
    gamma = (1.0 + alpha) / (1.0 - alpha)
    ln_gamma = math.log(gamma)
    for _ in range(generation):
        gamma = gamma * gamma
        ln_gamma = math.log(gamma)
        alpha = (2.0 * alpha) / (1.0 + alpha * alpha)
    return alpha, gamma, ln_gamma


def compute_keys(values: np.ndarray, ln_gamma: float, offset: int) -> np.ndarray:
    """Vectorized key function (semantics of ddsketch.cc:84-104).

    int64 keys: positives ~ +offset, negatives ~ -offset, zero -> 0.
    """
    v = np.asarray(values, dtype=np.float64)
    keys = np.zeros(v.shape[0], dtype=np.int64)
    pos = v > 0
    neg = v < 0
    if pos.any():
        keys[pos] = np.ceil(np.log(v[pos]) / ln_gamma).astype(np.int64) + offset
    if neg.any():
        keys[neg] = -np.ceil(np.log(-v[neg]) / ln_gamma).astype(np.int64) - offset
    return keys


def _collapse_keys(keys: np.ndarray, offset: int) -> np.ndarray:
    """Key remap for one gamma^2 collapse: magnitude m -> ceil(m/2).

    Matches ddsketch.cc:184-210/870-895 for even offsets; key 0 stays 0.
    ceil(m/2) == (m+1)//2 for all integers m (floor division).
    """
    new = np.zeros_like(keys)
    pos = keys > 0
    neg = keys < 0
    if pos.any():
        m = keys[pos] - offset
        new[pos] = (m + 1) // 2 + offset
    if neg.any():
        m = -keys[neg] - offset
        new[neg] = -((m + 1) // 2) - offset
    return new


def _sum_by_key(keys: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct keys and their summed counts.  Each sum runs from
    0.0 through the key's counts in input order (bincount is a sequential
    loop), so a fold that adds bins in that order gets the same bits."""
    uniq, inv = np.unique(keys, return_inverse=True)
    return uniq, np.bincount(inv, weights=counts, minlength=uniq.shape[0])


def quantile_keys(keys: np.ndarray, counts: np.ndarray, n: float,
                  qs) -> np.ndarray:
    """Keys of the buckets holding each q-quantile (walk of
    ddsketch.cc:535-547): for each q, the first key, in ascending order,
    whose running count exceeds ``stop = q*(n-1)``.  ``keys`` must be
    sorted ascending; one cumsum + searchsorted answers every q."""
    qs = np.asarray(qs, dtype=np.float64)
    if not np.all((qs >= 0.0) & (qs <= 1.0)):
        raise ValueError("q must be in [0, 1]")
    if qs.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    if keys.shape[0] == 0:
        raise ValueError("empty sketch")
    idx = np.searchsorted(np.cumsum(counts), qs * (n - 1.0), side="right")
    return keys[np.minimum(idx, keys.shape[0] - 1)]


def bucket_estimate(key: int, gamma: float, offset: int) -> float:
    """Geometric-midpoint estimate of a bucket (DDS_GetRank,
    ddsketch.cc:106-127)."""
    if key > 0:
        return (2.0 * math.pow(gamma, key - offset)) / (gamma + 1.0)
    if key < 0:
        return -(2.0 * math.pow(gamma, -key - offset)) / (gamma + 1.0)
    return 0.0


class DDSketch:
    """Mergeable accumulator API: add_batch / delete_batch / merge /
    quantile / collapse / to_row / from_row / to_bytes."""

    __slots__ = ("alpha0", "bin_limit", "offset", "mode", "generation",
                 "bins", "n", "kmin", "kmax")

    def __init__(self, alpha: float = DEFAULT_ALPHA,
                 bin_limit: int = DEFAULT_BIN_LIMIT,
                 offset: int = DEFAULT_OFFSET,
                 mode: str = "uniform"):
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        if offset % 2 != 0:
            raise ValueError("offset must be even (collapse-key remap contract)")
        if not (0.0 < alpha < 1.0):
            raise ValueError("alpha must be in (0, 1)")
        self.alpha0 = float(alpha)
        self.bin_limit = int(bin_limit)
        self.offset = int(offset)
        self.mode = mode
        self.generation = 0
        self.bins: dict[int, float] = {}
        self.n = 0.0
        # collapsed-key-range markers (ddsketch.h:41-44 sentinels)
        self.kmin = _INT32_MAX
        self.kmax = _INT32_MIN

    # -- derived parameters ------------------------------------------------

    @property
    def alpha(self) -> float:
        return _derived_params(self.alpha0, self.generation)[0]

    @property
    def gamma(self) -> float:
        return _derived_params(self.alpha0, self.generation)[1]

    @property
    def ln_gamma(self) -> float:
        return _derived_params(self.alpha0, self.generation)[2]

    @property
    def size(self) -> int:
        """Number of occupied bins (DDS_Size, ddsketch.cc:71-82)."""
        return len(self.bins)

    def sum_bins(self) -> float:
        """Invariant helper (DDS_SumBins, ddsketch.cc:956-970): == n."""
        return float(sum(self.bins.values()))

    def _bin_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(keys, counts) of the bins in ascending key order."""
        keys = np.fromiter(self.bins.keys(), dtype=np.int64,
                           count=len(self.bins))
        counts = np.fromiter(self.bins.values(), dtype=np.float64,
                             count=len(self.bins))
        order = np.argsort(keys)
        return keys[order], counts[order]

    # -- build -------------------------------------------------------------

    def add_batch(self, values, weights=None) -> None:
        """Bulk insert (semantics of per-item DDS_AddCollapse*,
        ddsketch.cc:213-341, applied batch-wise: all inserts, then the
        over-limit collapse loop).

        ``weights`` (optional, positive) turns the insert into a weighted
        one: each value contributes its weight to its bucket count, and
        quantiles become weighted quantiles (the bucket store already
        holds float counts, so this is the natural generalization --
        merge/collapse/delete semantics are unchanged)."""
        v = np.asarray(values, dtype=np.float64)
        if v.size == 0:
            return
        keys = compute_keys(v, self.ln_gamma, self.offset)
        if weights is None:
            uniq, cnts = np.unique(keys, return_counts=True)
            added = float(v.size)
        else:
            w = np.asarray(weights, dtype=np.float64)
            if w.shape != v.shape:
                raise ValueError("weights must match values in length")
            if (w < 0).any():
                raise ValueError("weights must be non-negative")
            uniq, cnts = _sum_by_key(keys, w)
            nonzero = cnts > 0  # zero-weight rows must not open bins
            uniq, cnts = uniq[nonzero], cnts[nonzero]
            added = float(w.sum())
        self.add_bins(uniq, cnts, added)

    def add_bins(self, keys: np.ndarray, counts: np.ndarray,
                 added: float) -> None:
        """Add sorted distinct ``keys`` with their ``counts`` (current
        generation) and ``added`` to n, then enforce bin_limit -- the tail
        of add_batch, for callers that already hold one batch's bins.

        Uniform mode runs the gamma^2 collapse loop on the (keys, counts)
        arrays and builds the bin dict once.  A collapse sums at most two
        bins per new key, and two-term float addition commutes, so the
        bits match collapsing the dict one step at a time."""
        bins = self.bins
        self.n += added
        if self.mode == "uniform" and len(bins) + keys.shape[0] > self.bin_limit:
            if bins:
                old_keys, old_counts = self._bin_arrays()
                keys, counts = _sum_by_key(np.concatenate([old_keys, keys]),
                                           np.concatenate([old_counts, counts]))
            while keys.shape[0] > self.bin_limit:
                self.generation += 1
                keys, counts = _sum_by_key(_collapse_keys(keys, self.offset),
                                           counts)
            self.bins = dict(zip(keys.tolist(), counts.tolist()))
            return
        for k, c in zip(keys.tolist(), counts.tolist()):
            bins[k] = bins.get(k, 0.0) + c
        self._enforce_limit()

    def add(self, value: float) -> None:
        self.add_batch(np.asarray([value], dtype=np.float64))

    def delete_batch(self, values) -> None:
        """Bulk delete (semantics of DDS_DeleteCollapse*,
        ddsketch.cc:343-518): a delete whose bin is absent is a no-op; in
        last/first mode a key inside the collapsed range [kmin, kmax]
        decrements the extreme bin instead."""
        v = np.asarray(values, dtype=np.float64)
        if v.size == 0:
            return
        keys = compute_keys(v, self.ln_gamma, self.offset)
        uniq, cnts = np.unique(keys, return_counts=True)
        bins = self.bins
        ranged = self.mode != "uniform"
        ext = None  # the extreme key, found again only once it is deleted
        for key, c in zip(uniq.tolist(), cnts.tolist()):
            if ranged and self.kmin <= key <= self.kmax and bins:
                if ext not in bins:
                    ext = max(bins) if self.mode == "last" else min(bins)
                key = ext
            cur = bins.get(key)
            if cur is None:
                continue
            removed = min(float(c), cur)
            if cur - removed <= 0:
                del bins[key]
            else:
                bins[key] = cur - removed
            self.n -= removed

    # -- collapse strategies ----------------------------------------------

    def collapse(self) -> None:
        """One gamma^2 collapse (DDS_Collapse, ddsketch.cc:837-911)."""
        self.generation += 1
        if not self.bins:
            return
        keys, counts = self._bin_arrays()
        uniq, sums = _sum_by_key(_collapse_keys(keys, self.offset), counts)
        self.bins = dict(zip(uniq.tolist(), sums.tolist()))

    def _fold_excess(self) -> None:
        """Fold every bin beyond bin_limit into the extreme bin in one step.

        Same result as folding the second-extreme bin into the extreme one
        until the limit holds (ddsketch.cc:788-835): the folded bins are
        added to the extreme bin nearest-first, and [kmin, kmax] widens to
        cover them, without re-sorting the keys for every fold."""
        bins = self.bins
        excess = min(len(bins) - self.bin_limit, len(bins) - 1)
        if excess <= 0:
            return
        keys = np.sort(np.fromiter(bins.keys(), dtype=np.int64,
                                   count=len(bins)))
        if self.mode == "last":
            ext, folded = int(keys[-1]), keys[-1 - excess:-1][::-1].tolist()
            lo, hi = folded[-1], ext
        else:
            ext, folded = int(keys[0]), keys[1:1 + excess].tolist()
            lo, hi = ext, folded[-1]
        total = bins[ext]
        for k in folded:
            total += bins.pop(k)
        bins[ext] = total
        if lo < self.kmin:
            self.kmin = lo
        if hi > self.kmax:
            self.kmax = hi

    def _enforce_limit(self) -> None:
        if len(self.bins) <= self.bin_limit:
            return
        if self.mode != "uniform":
            self._fold_excess()
            return
        while len(self.bins) > self.bin_limit:
            self.collapse()

    # -- merge -------------------------------------------------------------

    def merge(self, other: "DDSketch") -> "DDSketch":
        """Exact-sum merge (in place; returns self).

        uniform: promote both operands to max generation (integer-exact
        replacement for the reference's alpha-tolerance loop,
        ddsketch.cc:582-596), bin-wise sum, collapse while over bin_limit.
        Plain sum of n -- the gossip /2 averaging of ddsketch.cc:608-641 is
        deliberately dropped (exact shuffle merge; see module docstring).

        last/first: generations must match (the reference errors at
        |a1-a2| > 1e-3, ddsketch.cc:673-676); bin-wise sum, union
        [kmin,kmax], fold while over limit (ddsketch.cc:649-786).
        """
        if (other.alpha0 != self.alpha0 or other.offset != self.offset
                or other.mode != self.mode or other.bin_limit != self.bin_limit):
            raise ValueError("cannot merge sketches with different parameters")
        if self.mode == "uniform":
            while self.generation < other.generation:
                self.collapse()
            if other.generation < self.generation:
                other = other.copy()  # never mutate the argument
                while other.generation < self.generation:
                    other.collapse()
        else:
            if self.generation != other.generation:
                raise ValueError(
                    "last/first-mode merge requires equal alpha (generation)")
        bins = self.bins
        for k, c in other.bins.items():
            bins[k] = bins.get(k, 0.0) + c
        self.n += other.n
        if other.kmin < self.kmin:
            self.kmin = other.kmin
        if other.kmax > self.kmax:
            self.kmax = other.kmax
        self._enforce_limit()
        return self

    def merge_averaged(self, other: "DDSketch") -> "DDSketch":
        """Gossip-averaging merge -- COMPAT MODE (in place; returns self).

        Reproduces the reference's ``DDS_MergeCollapse`` exactly
        (ddsketch.cc:559-647): equalize alpha (gamma^2-collapse the finer
        sketch), bin-wise sum, then halve EVERY bin (ddsketch.cc:613-615)
        and set ``n = n1/2 + n2/2`` (ddsketch.cc:641).  Counts become
        fractional push-sum mass; recover the global sum with
        ``finalize_gossip`` (K25).  The production path is ``merge``
        (exact sum); this exists for side-by-side validation against the
        reference binary's converged-average numbers.
        """
        if (other.alpha0 != self.alpha0 or other.offset != self.offset
                or other.bin_limit != self.bin_limit):
            raise ValueError("cannot merge sketches with different parameters")
        if self.mode != "uniform" or other.mode != "uniform":
            raise ValueError("gossip averaging is defined for uniform mode "
                             "(the reference gossips via DDS_MergeCollapse)")
        while self.generation < other.generation:
            self.collapse()
        if other.generation < self.generation:
            other = other.copy()
            while other.generation < self.generation:
                other.collapse()
        bins = self.bins
        for k, c in other.bins.items():
            bins[k] = bins.get(k, 0.0) + c
        for k in bins:
            bins[k] = bins[k] / 2.0
        self.n = self.n / 2.0 + other.n / 2.0
        self._enforce_limit()
        return self

    def finalize_gossip(self, weight: float) -> "DDSketch":
        """Push-sum reconstruction (DDS_finalizeGossip,
        ddsketch.cc:988-1002): divide all bins and n by the gossip weight
        to recover the global sum from the converged average."""
        if weight <= 0:
            raise ValueError("gossip weight must be positive")
        for k in self.bins:
            self.bins[k] = self.bins[k] / weight
        self.n = self.n / weight
        return self

    def copy(self) -> "DDSketch":
        c = DDSketch(self.alpha0, self.bin_limit, self.offset, self.mode)
        c.generation = self.generation
        c.bins = dict(self.bins)
        c.n = self.n
        c.kmin = self.kmin
        c.kmax = self.kmax
        return c

    # -- query -------------------------------------------------------------

    def _bucket_estimate(self, key: int) -> float:
        return bucket_estimate(key, self.gamma, self.offset)

    def bucket_upper_bound(self, key: int) -> float:
        """gamma^m upper bound (DDS_GetValue, ddsketch.cc:129-150)."""
        g = self.gamma
        if key > 0:
            return math.pow(g, key - self.offset)
        if key < 0:
            return -math.pow(g, -key - self.offset)
        return 0.0

    def quantile_keys(self, qs) -> np.ndarray:
        """Bucket keys of every q-quantile (see ``quantile_keys``)."""
        keys, counts = self._bin_arrays()
        return quantile_keys(keys, counts, self.n, qs)

    def quantile_key(self, q: float) -> int:
        """Key of the bucket holding the q-quantile."""
        return int(self.quantile_keys([q])[0])

    def quantile(self, q: float) -> float:
        return self._bucket_estimate(self.quantile_key(q))

    def quantiles(self, qs) -> list[float]:
        return [self._bucket_estimate(k)
                for k in self.quantile_keys(list(qs)).tolist()]

    # -- serialization -----------------------------------------------------

    def to_row(self) -> dict:
        """One sketch as a plain row (Arrow-friendly: list<int64> +
        list<float64> + scalars) for use as Ray Dataset data."""
        keys, counts = self._bin_arrays()
        return {
            "keys": keys,
            "counts": counts,
            "n": float(self.n),
            "generation": int(self.generation),
            "alpha0": float(self.alpha0),
            "bin_limit": int(self.bin_limit),
            "offset": int(self.offset),
            "mode": self.mode,
            "kmin": int(self.kmin),
            "kmax": int(self.kmax),
        }

    @classmethod
    def from_row(cls, row: dict) -> "DDSketch":
        s = cls(row["alpha0"], row["bin_limit"], row["offset"], row["mode"])
        s.generation = int(row["generation"])
        keys = np.asarray(row["keys"], dtype=np.int64)
        counts = np.asarray(row["counts"], dtype=np.float64)
        s.bins = dict(zip(keys.tolist(), counts.tolist()))
        s.n = float(row["n"])
        s.kmin = int(row["kmin"])
        s.kmax = int(row["kmax"])
        return s

    def to_bytes(self) -> bytes:
        """Canonical serialization (sorted keys) -- bit-identical for
        semantically identical sketches; used by the merge-order tests
        (the analog of the reference's peer-convergence checks,
        main.cpp:596-640)."""
        r = self.to_row()
        header = struct.pack(
            "<dqqqdqq", r["n"], r["generation"], r["bin_limit"], r["offset"],
            r["alpha0"], r["kmin"], r["kmax"]) + self.mode.encode("ascii")
        return header + b"|" + np.ascontiguousarray(r["keys"]).tobytes() + \
            np.ascontiguousarray(r["counts"]).tobytes()

    def __repr__(self) -> str:
        return (f"DDSketch(alpha0={self.alpha0}, gen={self.generation}, "
                f"bins={len(self.bins)}, n={self.n}, mode={self.mode!r})")
