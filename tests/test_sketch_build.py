"""The columnar sketch build / merge / finalize path against the per-group
DDSketch loop and the sequential merge fold it replaces."""

import datetime

import numpy as np
import pyarrow as pa
import pytest

from p2pddsketch_ray.sketches.ddsketch import DDSketch
from p2pddsketch_ray.stages.sketch_build import (build_partials, group_codes,
                                                 merge_sketch_table,
                                                 quantile_finalizer,
                                                 sketch_rows_to_table)

QS = (0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0)


def reference_partials(batch, value_col, group_cols=None, weight_col=None,
                       **kw):
    """One fresh DDSketch per group fed with add_batch, keys grouped with
    np.unique over the numpy key columns."""
    col = batch[value_col]
    if col.null_count:
        batch = batch.filter(col.is_valid())
    values = batch[value_col].to_numpy(zero_copy_only=False).astype(
        np.float64)
    weights = (batch[weight_col].to_numpy(zero_copy_only=False)
               .astype(np.float64) if weight_col else None)
    if not group_cols:
        s = DDSketch(**kw)
        s.add_batch(values, weights)
        return sketch_rows_to_table([s.to_row()])
    if len(group_cols) == 1:
        uniq, inv = np.unique(
            batch[group_cols[0]].to_numpy(zero_copy_only=False),
            return_inverse=True)
        group_values = {group_cols[0]: uniq.tolist()}
    else:
        uniq, inv = np.unique(np.core.records.fromarrays(
            [batch[c].to_numpy(zero_copy_only=False) for c in group_cols]),
            return_inverse=True)
        group_values = {c: [u[j] for u in uniq.tolist()]
                        for j, c in enumerate(group_cols)}
    rows = []
    for g in range(len(uniq)):
        sel = np.flatnonzero(inv == g)
        s = DDSketch(**kw)
        s.add_batch(values[sel], weights[sel] if weights is not None
                    else None)
        rows.append(s.to_row())
    return sketch_rows_to_table(rows, group_values)


def fold(table):
    acc = None
    for row in table.to_pylist():
        s = DDSketch.from_row(row)
        acc = s if acc is None else acc.merge(s)
    return acc


def sketch_bytes(table):
    names = ["keys", "counts", "n", "generation", "alpha0", "bin_limit",
             "offset", "mode", "kmin", "kmax"]
    return [DDSketch.from_row(r).to_bytes()
            for r in table.select(names).to_pylist()]


@pytest.fixture(scope="module")
def batch():
    rng = np.random.default_rng(11)
    n = 6000
    values = rng.lognormal(3, 1.5, n) * rng.choice([-1.0, 1.0, 1.0], n)
    values[rng.random(n) < 0.02] = 0.0
    ints = rng.integers(0, 40, n)
    days = np.datetime64("2021-03-01") + rng.integers(0, 9, n)
    return pa.table({
        "v": pa.array(values, mask=rng.random(n) < 0.05),
        "w": rng.random(n) * 2.5,
        "s": rng.choice(["en", "de", "zh", "é", ""], n),
        "s2": rng.choice(["A", "N", "R"], n),
        "i64": ints,
        "i32": pa.array(ints.astype(np.int32)),
        "d": pa.array(days.astype("datetime64[D]")),
    })


KEYS = [None, ["s"], ["s", "s2"], ["i64"], ["i32"], ["d"],
        ["d", "s2", "i32"]]
SKETCH = [dict(alpha=0.01, bin_limit=2048),            # no collapse
          dict(alpha=0.01, bin_limit=24),              # groups over limit
          dict(alpha=0.01, bin_limit=24, mode="last"),
          dict(alpha=0.01, bin_limit=24, mode="first")]


@pytest.mark.parametrize("keys", KEYS, ids=str)
@pytest.mark.parametrize("weight_col", [None, "w"])
@pytest.mark.parametrize("kw", SKETCH, ids=str)
def test_build_partials_equals_per_group_sketches(batch, keys, weight_col,
                                                  kw):
    got = build_partials(batch, value_col="v", group_cols=keys,
                         weight_col=weight_col, **kw)
    want = reference_partials(batch, "v", keys, weight_col, **kw)
    assert got.schema == want.schema
    assert got.equals(want)
    assert sketch_bytes(got) == sketch_bytes(want)
    if kw["bin_limit"] == 24 and keys == ["s"]:  # groups over bin_limit
        if kw.get("mode"):
            assert min(got["kmin"].to_pylist()) < 2**31 - 1
        else:
            assert max(got["generation"].to_pylist()) > 0


@pytest.mark.parametrize("weight_col", [None, "w"])
def test_build_partials_keys_too_spread_to_pack(batch, weight_col):
    # with offset 2^60, positive and negative keys lie ~2^61 apart, so a
    # (group, key) pair of 5 groups no longer packs into one int64
    kw = dict(alpha=0.01, bin_limit=24, offset=2**60)
    got = build_partials(batch, value_col="v", group_cols=["s"],
                         weight_col=weight_col, **kw)
    want = reference_partials(batch, "v", ["s"], weight_col, **kw)
    assert got.equals(want)
    assert sketch_bytes(got) == sketch_bytes(want)


@pytest.mark.parametrize("keys", [None, ["s"], ["s", "i64"]], ids=str)
def test_build_partials_empty_and_all_null(batch, keys):
    empty = batch.slice(0, 0)
    nulls = batch.slice(0, 30).set_column(0, "v", pa.nulls(30, pa.float64()))
    for t in (empty, nulls):
        got = build_partials(t, value_col="v", group_cols=keys)
        want = reference_partials(t, "v", keys)
        assert got.schema == want.schema and got.equals(want)


def test_group_codes_order_and_values():
    t = pa.table({"a": ["b", "a", "b", "c", "a"],
                  "b": pa.array([2, 1, 1, 2, 1], type=pa.int32())})
    ids, values = group_codes(t, ["a", "b"])
    assert ids.tolist() == [2, 0, 1, 3, 0]
    assert values["a"].to_pylist() == ["a", "b", "b", "c"]
    assert values["b"].type == pa.int64()
    assert values["b"].to_pylist() == [1, 1, 2, 2]
    ids, values = group_codes(pa.table({"d": [datetime.date(2020, 1, 2),
                                              datetime.date(2020, 1, 1)]}),
                              ["d"])
    assert ids.tolist() == [1, 0] and values["d"].type == pa.date32()


def mixed_generation_rows(weighted):
    """Partial rows at generations 0..3: batches of growing spread built
    under a small bin_limit collapse a different number of times."""
    rng = np.random.default_rng(5)
    rows = []
    for i in range(12):
        s = DDSketch(alpha=0.01, bin_limit=64)
        v = rng.lognormal(0, 0.2 + 0.35 * (i % 4), 400)
        s.add_batch(v, rng.random(400) * 3 if weighted else None)
        rows.append(s.to_row())
    table = sketch_rows_to_table(rows)
    assert len(set(table["generation"].to_pylist())) >= 3
    return table


@pytest.mark.parametrize("weighted", [False, True])
def test_merge_sketch_table_equals_sequential_fold(weighted):
    table = mixed_generation_rows(weighted)
    for seed in range(6):
        perm = np.random.default_rng(seed).permutation(table.num_rows)
        shuffled = table.take(perm)
        assert merge_sketch_table(shuffled).to_bytes() \
            == fold(shuffled).to_bytes()
    # equal generations whose union fits: the one-sum fast path
    same = table.filter(pa.compute.equal(table["generation"], 0))
    merged = merge_sketch_table(same)
    assert same.num_rows >= 2 and merged.generation == 0
    assert merged.to_bytes() == fold(same).to_bytes()


def test_merge_sketch_table_rejects_mixed_parameters():
    a = DDSketch(alpha=0.01, bin_limit=64)
    b = DDSketch(alpha=0.02, bin_limit=64)
    a.add_batch(np.arange(1.0, 10.0))
    b.add_batch(np.arange(1.0, 10.0))
    with pytest.raises(ValueError):
        merge_sketch_table(sketch_rows_to_table([a.to_row(), b.to_row()]))
    with pytest.raises(ValueError):
        merge_sketch_table(sketch_rows_to_table([]))


@pytest.mark.parametrize("mode", ["uniform", "last"])
def test_quantile_finalizer_equals_per_q_quantile_key(batch, mode):
    parts = pa.concat_tables(
        build_partials(batch.slice(o, 1000), value_col="v",
                       group_cols=["s2"], alpha=0.01, bin_limit=24,
                       mode=mode)
        for o in range(0, batch.num_rows, 1000))
    fin = quantile_finalizer(["s2"], QS)
    for key in ("A", "N", "R"):
        group = parts.filter(pa.compute.equal(parts["s2"], key))
        group = group.take(np.random.default_rng(1).permutation(
            group.num_rows))
        got = fin(group)
        sketch = fold(group.drop_columns(["s2"]))
        keys = [sketch.quantile_key(q) for q in QS]
        assert got["s2"].to_pylist() == [key] * len(QS)
        assert got["q"].to_pylist() == list(QS)
        assert got["bucket_key"].to_pylist() == keys
        assert got["est"].to_pylist() == [sketch._bucket_estimate(k)
                                          for k in keys]
