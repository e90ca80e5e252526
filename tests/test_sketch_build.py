"""The columnar sketch build / merge / finalize path against the per-group
DDSketch loop and the sequential merge fold it replaces."""

import datetime
from functools import partial

import numpy as np
import pyarrow as pa
import pytest

from p2pddsketch_ray.sketches.ddsketch import DDSketch
from p2pddsketch_ray.stages.sketch_build import (SKETCH_FIELDS,
                                                 build_partials, collect,
                                                 group_codes,
                                                 merge_by_group,
                                                 merge_sketch_table,
                                                 merged_rows, merged_table,
                                                 quantile_finalizer,
                                                 sketch_rows_to_table,
                                                 sketches_by_group)

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


def test_null_int_key_stays_int(ray_session, exchange_path):
    """An int64 key with a null groups as 1, 2, null (not as doubles with
    a NaN group) in the partials and in the grouped quantiles, the null
    group last on both exchange paths."""
    import ray

    from p2pddsketch_ray.pipelines.quantiles import dds_quantiles_grouped
    t = pa.table({"g": pa.array([1, None, 2] * 20, type=pa.int64()),
                  "v": np.arange(1.0, 61.0)})
    parts = build_partials(t, value_col="v", group_cols=["g"], alpha=0.01,
                           bin_limit=2048)
    assert parts["g"].type == pa.int64()
    assert parts["g"].to_pylist() == [1, 2, None]
    assert parts["n"].to_pylist() == [20, 20, 20]
    out = collect(dds_quantiles_grouped(
        ray.data.from_arrow(t).repartition(3), "v", ["g"], (0.0, 1.0),
        alpha=0.01, bin_limit=2048))
    assert out["g"].type == pa.int64()
    assert out["g"].to_pylist() == [1, 1, 2, 2, None, None]
    lo, hi = out["est"].to_pylist()[4:]
    assert abs(lo - 2.0) <= 0.02 * 2.0 and abs(hi - 59.0) <= 0.02 * 59.0


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


# -- block-level finalize: every group of a sorted block in one call ------

def group_starts(table, cols):
    """Rows where the key tuple differs from the previous row's."""
    keys = list(zip(*[table[c].to_pylist() for c in cols]))
    return [i for i in range(len(keys)) if i == 0 or keys[i] != keys[i - 1]]


def sorted_block(batch, keys, weight_col, kw, slices, seed=0):
    """Partials of batch slices of the given sizes, shuffled, then sorted
    by the keys (stable, nulls last): each group's rows contiguous in a
    random order, as a sort shuffle leaves them."""
    bounds = np.cumsum([0] + list(slices))
    parts = pa.concat_tables(
        build_partials(batch.slice(a, b - a), value_col="v",
                       group_cols=keys, weight_col=weight_col, **kw)
        for a, b in zip(bounds[:-1], bounds[1:]) if a < batch.num_rows)
    parts = parts.take(np.random.default_rng(seed).permutation(
        parts.num_rows))
    return parts.take(pa.compute.sort_indices(
        parts, [(c, "ascending") for c in keys], null_placement="at_end"))


def per_group_reference(block, keys, qs, round_digits=None):
    """The finalize table rebuilt group by group from a sequential
    DDSketch.merge fold and per-q quantile_key calls."""
    names = [name for name, _ in SKETCH_FIELDS]
    starts = group_starts(block, keys) + [block.num_rows]
    out = {c: [] for c in keys}
    out.update(q=[], bucket_key=[], est=[])
    for a, b in zip(starts[:-1], starts[1:]):
        sketch = fold(block.slice(a, b - a).select(names))
        for c in keys:
            out[c] += [block[c][a].as_py()] * len(qs)
        for q in qs:
            k = sketch.quantile_key(q)
            e = sketch._bucket_estimate(k)
            out["q"].append(q)
            out["bucket_key"].append(k)
            out["est"].append(e if round_digits is None
                              else round(e, round_digits))
    return out


@pytest.fixture(scope="module")
def keyed_batch(batch):
    rng = np.random.default_rng(3)
    n = batch.num_rows
    return batch.append_column("sn", pa.array(
        rng.choice(["x", "y", "z"], n), mask=rng.random(n) < 0.2))


BLOCK_KEYS = [["s"], ["s", "s2"], ["i32"], ["d"], ["sn"]]
# slices of 40 rows keep every partial at generation 0 under bin_limit 60
# while a group's key union exceeds it; the 4400-row slice collapses, so
# the same groups also mix generations
BLOCK_SKETCH = [(dict(alpha=0.01, bin_limit=2048), [700]),
                (dict(alpha=0.01, bin_limit=60), [40] * 40 + [4400]),
                (dict(alpha=0.01, bin_limit=24, mode="last"), [300]),
                (dict(alpha=0.01, bin_limit=24, mode="first"), [300])]


@pytest.mark.parametrize("keys", BLOCK_KEYS, ids=str)
@pytest.mark.parametrize("weight_col", [None, "w"])
@pytest.mark.parametrize("kw,slices", BLOCK_SKETCH,
                         ids=[str(kw) for kw, _ in BLOCK_SKETCH])
def test_quantile_finalizer_block_equals_per_group_calls(
        keyed_batch, keys, weight_col, kw, slices):
    block = sorted_block(keyed_batch, keys, weight_col, kw, slices)
    fin = quantile_finalizer(keys, QS)
    got = fin(block)
    starts = group_starts(block, keys) + [block.num_rows]
    assert len(starts) > 3
    per_group = pa.concat_tables(
        [fin(block.slice(a, b - a)) for a, b in zip(starts[:-1], starts[1:])],
        promote_options="default")
    assert got.equals(per_group)
    assert got.to_pydict() == per_group_reference(block, keys, QS)
    if kw["bin_limit"] == 60:  # groups that mix generations fold
        gens = [set(block["generation"][a:b].to_pylist())
                for a, b in zip(starts[:-1], starts[1:])]
        assert any(len(g) > 1 for g in gens)
    if keys == ["i32"]:
        assert got["i32"].type == pa.int64()


def test_quantile_finalizer_block_fast_path_fallbacks():
    """One block holding a group on the one-sum path, a group at one
    generation whose key union exceeds bin_limit, a group of mixed
    generations whose key union fits bin_limit, and one that does not:
    each merges to the fold's bits."""
    rng = np.random.default_rng(8)
    rows, keys = [], []
    for name, spread, size in (("a_fast", 0.02, 40), ("b_over", 3.0, 40)):
        for _ in range(6):
            s = DDSketch(alpha=0.01, bin_limit=64)
            s.add_batch(rng.lognormal(0, spread, size),
                        rng.random(size) * 2)
            assert s.generation == 0
            rows.append(s.to_row())
            keys.append(name)
    for size in (65, 3, 3):  # 65 distinct keys collapse once, to ~33
        s = DDSketch(alpha=0.01, bin_limit=64)
        s.add_batch(1.03 ** np.arange(size), rng.random(size) * 2)
        rows.append(s.to_row())
        keys.append("c_mixed_fits")
    mixed = mixed_generation_rows(weighted=True)
    rows += mixed.to_pylist()
    keys += ["d_mixed"] * mixed.num_rows
    block = sketch_rows_to_table(rows, {"g": keys})
    fin = quantile_finalizer(["g"], QS, round_digits=4)
    got = fin(block)
    assert got.to_pydict() == per_group_reference(block, ["g"], QS, 4)
    bounds = [0, 6, 12, 15, block.num_rows]
    merged = merged_rows(block, bounds[:-1])
    for g, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
        group = block.slice(a, b - a).drop_columns(["g"])
        assert DDSketch.from_row(merged[g]).to_bytes() \
            == fold(group).to_bytes()
    sketch = block.drop_columns(["g"])
    assert fold(sketch.slice(0, 6)).generation == 0   # the one sum
    assert fold(sketch.slice(6, 6)).generation > 0    # union over the limit
    assert block["generation"].to_pylist()[12:15] == [1, 0, 0]
    assert len(set(block["keys"][12:15].combine_chunks().flatten()
                   .to_pylist())) <= 64


@pytest.mark.parametrize("round_digits", [None, 0, 3])
def test_quantile_finalizer_block_round_digits(keyed_batch, round_digits):
    kw = dict(alpha=0.01, bin_limit=2048)
    block = sorted_block(keyed_batch, ["s", "s2"], "w", kw, [500])
    got = quantile_finalizer(["s", "s2"], QS, round_digits)(block)
    assert got.to_pydict() == per_group_reference(block, ["s", "s2"], QS,
                                                  round_digits)


@pytest.mark.parametrize("keys", [None, ["s"], ["s", "i32"]], ids=str)
def test_quantile_finalizer_empty_block(batch, keys):
    block = build_partials(batch.slice(0, 10), value_col="v",
                           group_cols=keys).slice(0, 0)
    got = quantile_finalizer(keys, QS)(block)
    assert got.num_rows == 0
    assert got.column_names == list(keys or []) + ["q", "bucket_key", "est"]


def test_merged_rows_rejects_rows_outside_groups(batch):
    parts = build_partials(batch, value_col="v", group_cols=["s2"])
    with pytest.raises(ValueError):
        merged_rows(parts, [1, 2])      # row 0 in no group
    with pytest.raises(ValueError):
        merged_rows(parts, [0, 2, 2])   # an empty group
    assert merged_rows(parts.slice(0, 0), []) == []


def test_dds_quantiles_grouped_many_blocks(ray_session, exchange_path,
                                           keyed_batch):
    """Many input blocks (and on the sort path more sort partitions than
    groups): one row set per group in ascending group order, equal to one
    DDSketch over each group's values."""
    import ray

    from p2pddsketch_ray.pipelines.quantiles import dds_quantiles_grouped
    table = keyed_batch.select(["v", "s2", "i32"])
    for keys in (["s2"], ["i32", "s2"]):
        ds = ray.data.from_arrow(table).repartition(12)
        got = pa.concat_tables(
            t for t in map(ray.get, dds_quantiles_grouped(
                ds, "v", keys, QS, alpha=0.01,
                bin_limit=2048).materialize().to_arrow_refs())
            if t.num_rows)
        valid = table.filter(table["v"].is_valid())
        groups = sorted(set(zip(*[valid[c].to_pylist() for c in keys])))
        assert got.num_rows == len(groups) * len(QS)
        want = {c: [] for c in keys}
        want.update(q=[], bucket_key=[], est=[])
        for g in groups:
            mask = np.ones(valid.num_rows, dtype=bool)
            for c, v in zip(keys, g):
                mask &= valid[c].to_numpy(zero_copy_only=False) == v
            s = DDSketch(alpha=0.01, bin_limit=2048)
            s.add_batch(valid["v"].to_numpy(zero_copy_only=False)[mask])
            for c, v in zip(keys, g):
                want[c] += [v] * len(QS)
            want["q"] += list(QS)
            want["bucket_key"] += [s.quantile_key(q) for q in QS]
            want["est"] += [s.quantile(q) for q in QS]
        assert got.to_pydict() == want


# -- merged_table / merge_by_group: the one grouped merge of partial rows --

def rows_by_group(table, cols):
    """{key tuple: row indices in table order} of every group."""
    out: dict = {}
    for i, key in enumerate(zip(*[table[c].to_pylist() for c in cols])):
        out.setdefault(key, []).append(i)
    return out


MERGE_SKETCH = BLOCK_SKETCH + [(dict(alpha=0.01, bin_limit=60), [40] * 40)]


@pytest.mark.parametrize("keys", [["s"], ["s", "s2"], ["i64"], ["sn"]],
                         ids=str)
@pytest.mark.parametrize("weight_col", [None, "w"])
@pytest.mark.parametrize("kw,slices", MERGE_SKETCH,
                         ids=[f"{kw}-{len(sl)}" for kw, sl in MERGE_SKETCH])
def test_merged_table_equals_per_group_merge(keyed_batch, keys, weight_col,
                                             kw, slices):
    """A shuffled block of many groups: one row per group, in sorted key
    order (nulls last), each the bits of merge_sketch_table over that
    group's rows in block order."""
    block = sorted_block(keyed_batch, keys, weight_col, kw, slices)
    order = [tuple(block[c][i].as_py() for c in keys)
             for i in group_starts(block, keys)]
    shuffled = block.take(np.random.default_rng(2).permutation(
        block.num_rows))
    got = merged_table(shuffled, keys)
    names = [name for name, _ in SKETCH_FIELDS]
    assert got.column_names == keys + names
    assert [got.schema.field(c).type for c in keys] == \
        [shuffled.schema.field(c).type for c in keys]
    assert list(zip(*[got[c].to_pylist() for c in keys])) == order
    rows = rows_by_group(shuffled, keys)
    assert len(rows) > 3
    want = [merge_sketch_table(shuffled.take(rows[key])).to_bytes()
            for key in order]
    assert sketch_bytes(got) == want
    # the stable sort by key that a shuffle would apply changes nothing
    stable = shuffled.take(pa.compute.sort_indices(
        shuffled, [(c, "ascending") for c in keys], null_placement="at_end"))
    assert merged_table(stable, keys).equals(got)
    gens = [set(block["generation"].take(idx).to_pylist())
            for idx in rows_by_group(block, keys).values()]
    if len(slices) == 41:  # groups that mix generations
        assert any(len(g) > 1 for g in gens)
    if len(slices) == 40:  # generation-0 rows only
        assert gens == [{0}] * len(gens)
        if len(rows) < 10:  # ~300+ values a group: key unions exceed 60
            assert min(got["generation"].to_pylist()) > 0


def test_merged_table_without_group_columns_is_one_row(batch):
    parts = pa.concat_tables(
        build_partials(batch.slice(o, 700), value_col="v",
                       group_cols=["s"], alpha=0.01, bin_limit=60)
        for o in range(0, batch.num_rows, 700))
    got = merged_table(parts)
    assert got.column_names == [name for name, _ in SKETCH_FIELDS]
    assert sketch_bytes(got) == [merge_sketch_table(parts).to_bytes()]


@pytest.mark.parametrize("keys", [None, ["s"], ["s", "i32"], ["sn"], ["d"]],
                         ids=str)
def test_empty_block_outputs_have_the_nonempty_schema(keyed_batch, keys):
    """An empty sort partition gives the schema of a non-empty one, so
    blocks of one output never disagree on types."""
    block = build_partials(keyed_batch.slice(0, 500), value_col="v",
                           group_cols=keys)
    for body in (partial(merged_table, group_cols=keys or ()),
                 quantile_finalizer(keys, QS, 6)):
        full, empty = body(block), body(block.slice(0, 0))
        assert full.num_rows and not empty.num_rows
        assert empty.schema == full.schema


def test_merge_by_group_many_blocks(ray_session, exchange_path,
                                    keyed_batch):
    """Partials of many input blocks, merged in one task or by a sort
    shuffle with more partitions than groups: one sketch per group (a
    tuple key for two columns, None for the null group), in ascending
    group order with the null group last, equal to one DDSketch over the
    group's values."""
    import ray

    from p2pddsketch_ray.pipelines.quantiles import build_partials_ds
    table = keyed_batch.select(["v", "s2", "i32", "sn"])
    valid = table.filter(table["v"].is_valid())
    values = valid["v"].to_numpy(zero_copy_only=False)
    for keys in (["s2"], ["i32", "s2"], ["sn"]):
        partials = build_partials_ds(
            ray.data.from_arrow(table).repartition(12), "v", keys,
            alpha=0.01, bin_limit=2048)
        merged = collect(merge_by_group(partials, keys))
        order = merged.sort_by([(c, "ascending") for c in keys])
        assert merged.select(keys).equals(order.select(keys))
        got = sketches_by_group(merged, keys)
        rows = rows_by_group(valid, keys)
        assert len(rows) > 2
        assert got.keys() == {k if len(keys) > 1 else k[0] for k in rows}
        for key, idx in rows.items():
            s = DDSketch(alpha=0.01, bin_limit=2048)
            s.add_batch(values[idx])
            assert got[key if len(keys) > 1 else key[0]].to_bytes() \
                == s.to_bytes()
