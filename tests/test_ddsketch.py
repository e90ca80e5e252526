"""DDSketch kernel unit tests (no Ray).

Mirrors the reference's correctness checks (SURVEY.md section 5):
end-to-end accuracy vs an exact order-statistic oracle (main.cpp:1041-1082),
the DDS_SumBins counter invariant (ddsketch.cc:956-970), and merge
convergence (main.cpp:596-640) strengthened to bit-identity.
"""

import math

import numpy as np
import pytest

from p2pddsketch_ray.config import DEFAULT_ALPHA, DEFAULT_QUANTILES, PRACTICAL_ALPHA
from p2pddsketch_ray.sketches.ddsketch import DDSketch, compute_keys, _derived_params


def exact_quantile(data: np.ndarray, q: float) -> float:
    """The reference oracle convention (main.cpp:1062-1067):
    order statistic at index floor(1 + q*(n-1)) - 1 of the sorted data."""
    n = len(data)
    idx = int(math.floor(1 + q * (n - 1))) - 1
    return float(np.partition(np.asarray(data, dtype=np.float64), idx)[idx])


def rel_err(est: float, real: float) -> float:
    return abs(est - real) / abs(real) if real != 0 else abs(est)


DISTS = {
    # mirror of the reference generators (main.cpp:1016-1035), seeded
    "normal": lambda rng, n: rng.normal(1.0, 3.0, n),       # mean=1 stddev=3 (main.cpp:39-40)
    "exponential": lambda rng, n: rng.exponential(1.0, n),
    "uniform": lambda rng, n: rng.uniform(0.0, 1000.0, n),
}


@pytest.mark.parametrize("dist", list(DISTS))
@pytest.mark.parametrize("n", [508, 20000])  # 508 = reference default ni (main.cpp:41)
def test_accuracy_vs_oracle(dist, n):
    rng = np.random.default_rng(1)
    data = DISTS[dist](rng, n)
    s = DDSketch(alpha=DEFAULT_ALPHA)
    s.add_batch(data)
    for q in DEFAULT_QUANTILES:
        real = exact_quantile(data, q)
        est = s.quantile(q)
        if abs(real) > 1e-9:
            assert rel_err(est, real) <= s.alpha + 1e-12, (q, est, real)


def test_key_value_roundtrip():
    # |estimate(key(x)) - x| / x <= alpha for any x != 0
    s = DDSketch(alpha=PRACTICAL_ALPHA)
    rng = np.random.default_rng(7)
    xs = np.concatenate([
        rng.uniform(1e-6, 1e6, 1000),
        -rng.uniform(1e-6, 1e6, 1000),
        rng.lognormal(0, 10, 1000),
    ])
    keys = compute_keys(xs, s.ln_gamma, s.offset)
    for x, k in zip(xs.tolist(), keys.tolist()):
        est = s._bucket_estimate(int(k))
        assert rel_err(est, x) <= s.alpha + 1e-12


def test_zero_maps_to_key_zero():
    s = DDSketch(alpha=PRACTICAL_ALPHA)
    s.add_batch([0.0, 0.0, 5.0])
    assert s.bins.get(0) == 2.0
    assert s.quantile(0.0) == 0.0


def test_key_ordering_matches_value_ordering():
    s = DDSketch(alpha=PRACTICAL_ALPHA)
    vals = np.array([-100.0, -1.0, -0.01, 0.0, 0.01, 1.0, 100.0])
    keys = compute_keys(vals, s.ln_gamma, s.offset)
    assert (np.diff(keys) > 0).all()


def test_sum_bins_invariant_and_bin_limit():
    rng = np.random.default_rng(3)
    data = rng.lognormal(0, 5, 50000)  # wide spread forces collapses
    s = DDSketch(alpha=DEFAULT_ALPHA, bin_limit=128)
    s.add_batch(data)
    assert s.size <= 128
    assert s.generation > 0
    assert s.sum_bins() == pytest.approx(s.n)
    assert s.n == 50000


def test_collapse_preserves_counts_and_halves_resolution():
    rng = np.random.default_rng(5)
    data = rng.lognormal(0, 3, 5000)
    s = DDSketch(alpha=PRACTICAL_ALPHA)
    s.add_batch(data)
    size_before, n_before, a0 = s.size, s.n, s.alpha
    s.collapse()
    assert s.sum_bins() == pytest.approx(n_before)
    assert s.size <= size_before
    assert s.alpha == pytest.approx((2 * a0) / (1 + a0 * a0))
    # a dense contiguous key range halves exactly under gamma^2
    d = DDSketch(alpha=PRACTICAL_ALPHA)
    d.bins = {d.offset + k: 1.0 for k in range(1, 101)}
    d.n = 100
    d.collapse()
    assert d.size == 50
    # accuracy still holds at the doubled alpha
    for q in (0.1, 0.5, 0.9):
        real = exact_quantile(data, q)
        assert rel_err(s.quantile(q), real) <= s.alpha + 1e-12


def test_derived_params_generation_consistency():
    a, g, lg = _derived_params(PRACTICAL_ALPHA, 3)
    # independently: 3 squarings
    a2, g2 = PRACTICAL_ALPHA, (1 + PRACTICAL_ALPHA) / (1 - PRACTICAL_ALPHA)
    for _ in range(3):
        g2 = g2 * g2
        a2 = 2 * a2 / (1 + a2 * a2)
    assert (a, g) == (a2, g2)
    assert lg == math.log(g2)


def test_add_then_delete_inverse():
    rng = np.random.default_rng(11)
    data = rng.normal(1, 3, 2000)
    s = DDSketch(alpha=PRACTICAL_ALPHA)
    s.add_batch(data)
    extra = rng.uniform(10, 20, 500)
    s2 = s.copy()
    s2.add_batch(extra)
    s2.delete_batch(extra)
    assert s2.n == s.n
    assert s2.bins == s.bins
    assert s2.to_bytes() == s.to_bytes()


def test_delete_missing_bin_is_noop():
    s = DDSketch(alpha=PRACTICAL_ALPHA)
    s.add_batch([1.0, 2.0])
    n0, bins0 = s.n, dict(s.bins)
    s.delete_batch([1e6])  # no such bin
    assert s.n == n0 and s.bins == bins0


@pytest.mark.parametrize("mode", ["last", "first"])
def test_fold_modes_respect_limit_and_counts(mode):
    # Folding collapses the extreme end of the key range; quantiles that
    # land in the dense un-collapsed region stay alpha-accurate.
    rng = np.random.default_rng(13)
    if mode == "last":
        dense = rng.uniform(10.0, 11.0, 19000)          # ~5 low bins
        tail = rng.uniform(100.0, 1e8, 1000)            # sparse tail strictly above
    else:
        dense = rng.uniform(1e6, 1.1e6, 19000)          # ~5 high bins
        tail = rng.uniform(1e-4, 1e5, 1000)             # sparse tail strictly below
    data = np.concatenate([dense, tail])
    s = DDSketch(alpha=PRACTICAL_ALPHA, bin_limit=64, mode=mode)
    s.add_batch(data)
    assert s.size <= 64
    assert s.sum_bins() == pytest.approx(s.n)
    assert s.generation == 0  # fold modes never change alpha
    real = exact_quantile(data, 0.5)  # median lies in the dense region
    assert rel_err(s.quantile(0.5), real) <= s.alpha + 1e-12


@pytest.mark.parametrize("mode", ["last", "first"])
def test_fold_mode_delete_in_collapsed_range(mode):
    rng = np.random.default_rng(17)
    data = rng.lognormal(0, 4, 20000)
    s = DDSketch(alpha=PRACTICAL_ALPHA, bin_limit=64, mode=mode)
    s.add_batch(data)
    assert s.kmin <= s.kmax  # collapses happened
    # delete a value whose key is inside the collapsed range: hits extreme bin
    mid_key = (s.kmin + s.kmax) // 2
    ext_key = max(s.bins) if mode == "last" else min(s.bins)
    before = s.bins[ext_key]
    # reconstruct a value in bucket mid_key
    val = s._bucket_estimate(mid_key)
    n0 = s.n
    s.delete_batch([val])
    assert s.n == n0 - 1
    assert s.bins.get(ext_key, 0) == before - 1


def _reference_fold(s):
    """The one-bin-at-a-time fold (ddsketch.cc:788-835): sort every key,
    fold the second-extreme bin into the extreme one, repeat."""
    while len(s.bins) > s.bin_limit:
        skeys = sorted(s.bins)
        if s.mode == "last":
            ext, second = skeys[-1], skeys[-2]
        else:
            ext, second = skeys[0], skeys[1]
        s.kmin = min(s.kmin, ext, second)
        s.kmax = max(s.kmax, ext, second)
        s.bins[ext] += s.bins.pop(second)


def _reference_delete(s, values):
    """Per-key delete that re-sorts the keys for every key in the
    collapsed range."""
    keys = compute_keys(np.asarray(values, dtype=np.float64), s.ln_gamma,
                        s.offset)
    uniq, cnts = np.unique(keys, return_counts=True)
    for key, c in zip(uniq.tolist(), cnts.tolist()):
        if s.kmin <= key <= s.kmax and s.bins:
            skeys = sorted(s.bins)
            key = skeys[-1] if s.mode == "last" else skeys[0]
        cur = s.bins.get(key)
        if cur is None:
            continue
        removed = min(float(c), cur)
        if cur - removed <= 0:
            del s.bins[key]
        else:
            s.bins[key] = cur - removed
        s.n -= removed


@pytest.mark.parametrize("mode", ["last", "first"])
@pytest.mark.parametrize("weighted", [False, True])
def test_fold_excess_equals_one_bin_at_a_time_fold(mode, weighted):
    rng = np.random.default_rng(23)
    fast = DDSketch(DEFAULT_ALPHA, 500, mode=mode)
    ref = DDSketch(DEFAULT_ALPHA, 500, mode=mode)
    for size in (300, 4096, 2048):
        v = rng.normal(100, 10, size)
        w = rng.random(size) * 3 if weighted else None
        fast.add_batch(v, w)
        ref.bin_limit = 10**9           # insert without folding ...
        ref.add_batch(v, w)
        ref.bin_limit = 500             # ... then fold the old way
        _reference_fold(ref)
        assert fast.to_bytes() == ref.to_bytes()
    assert fast.kmin <= fast.kmax
    # deletes in the collapsed range hit the extreme bin, and once it is
    # emptied, the next extreme one
    ext = max(ref.bins) if mode == "last" else min(ref.bins)
    gone = np.full(int(ref.bins[ext]) + 40, fast._bucket_estimate(ext))
    dels = np.concatenate([gone, rng.normal(100, 10, 3000)])
    fast.delete_batch(dels)
    _reference_delete(ref, dels)
    assert ext not in fast.bins
    assert fast.to_bytes() == ref.to_bytes()


def test_serialization_roundtrip():
    rng = np.random.default_rng(19)
    s = DDSketch(alpha=DEFAULT_ALPHA, bin_limit=100)
    s.add_batch(rng.lognormal(0, 5, 10000))
    r = s.to_row()
    s2 = DDSketch.from_row(r)
    assert s2.to_bytes() == s.to_bytes()
    assert s2.bins == s.bins and s2.n == s.n and s2.generation == s.generation


def test_quantile_bounds_validation():
    s = DDSketch(alpha=PRACTICAL_ALPHA)
    s.add_batch([1.0])
    with pytest.raises(ValueError):
        s.quantile(-0.1)
    with pytest.raises(ValueError):
        s.quantile(1.1)
    with pytest.raises(ValueError):
        DDSketch(alpha=PRACTICAL_ALPHA).quantile(0.5)  # empty
    assert DDSketch(alpha=PRACTICAL_ALPHA).quantiles([]) == []
    assert s.quantiles([]) == []


def test_dds_incremental_update_is_bit_identical(ray_session):
    """The driver query asserts merge(old, delta) == rebuild internally
    and returns the full-data quantiles; check it against the plain
    global query (same sketch state -> identical table)."""
    import __ray_entry__ as entrymod
    got = entrymod.queries()["dds_incremental_update"](
        "/root/testdata/sf0.001")
    base = entrymod.queries()["dds_event_value_global"](
        "/root/testdata/sf0.001")
    got = got.to_pandas() if hasattr(got, "to_pandas") else got
    base = base.to_pandas() if hasattr(base, "to_pandas") else base
    assert got["bucket_key"].tolist() == base["bucket_key"].tolist()
    assert got["est"].tolist() == base["est"].tolist()
