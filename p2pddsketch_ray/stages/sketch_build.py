"""Ray Data stages that build and merge sketch partials.

This is the architectural replacement for the reference's distributed
phases (SURVEY.md section 3.3):

* ``distributedAdd`` (main.cpp:432-472, one sketch per simulated peer)
  becomes ``map_batches(partial_sketch_builder)`` -- stateless tasks that
  emit ONE serialized-sketch row per (block, group).  Stateless-per-block
  is deliberately chosen over a long-lived actor accumulator: a retried
  task reproduces the identical partial, which is what makes the pipeline
  deterministic and resumable (SURVEY.md section 4).
* ``distributedCommunication`` (main.cpp:475-658, gossip rounds until
  convergence) becomes one deterministic reduction over those tiny rows:
  the keyed exchange (``stages.exchange.keyed_merge``: one task while the
  partials are small, else a ``sort(keys)`` shuffle) leaves each group's
  rows in one table, then one call per table merges every group of it --
  ``merge_by_group`` (``merged_table``: one merged sketch row per group)
  or ``quantile_finalizer`` (merged and queried) -- or a distributed tree
  merge (``tree_merge``) for the global (single-group) case and for the
  fused webpages build.  Partials are <= bin_limit
  bins ~ 6 KB each, so the merge stage moves kilobytes, not data.  Every
  per-group merge of partial rows in the library goes through
  ``merged_rows``, whatever carries the rows there (``keyed_merge``,
  ``partition_by``, a driver-side table).

A DDSketch merge is a bin-wise sum, so both halves are columnar:

* build (``build_partials``): ``group_codes`` turns the key columns into
  int64 group ids (Arrow dictionary encoding, ranked by the sorted
  dictionary); every value's bucket key is computed once per batch; one
  ``np.unique`` over the packed int64 (group id, key) codes makes each
  (group, key) pair a run, and the ``keys`` / ``counts`` list columns are
  cut straight from the run offsets.  No per-group DDSketch is built,
  except for a group with more distinct keys than ``bin_limit``, which
  collapses (or folds) through ``DDSketch.add_bins``.
* merge (``merged_rows``, one ``to_row()`` dict per contiguous group of
  rows): one pass sums the block's concatenated keys and counts by
  (group, key), in row order.  That sum is the merge of every group whose
  rows are uniform mode at one generation, with a key union that fits
  ``bin_limit``; any other group folds its columnar-decoded sketches with
  ``DDSketch.merge``.  Both give the same bits as folding each group row
  by row.  ``merge_sketch_table`` is the one-group case.

All hot-path math is vectorized numpy over zero-copy Arrow columns.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import DEFAULT_ALPHA, DEFAULT_BIN_LIMIT, DEFAULT_OFFSET
from ..sketches.ddsketch import (DDSketch, _derived_params, bucket_estimate,
                                 compute_keys, quantile_keys)

SKETCH_FIELDS = [
    ("keys", pa.list_(pa.int64())),
    ("counts", pa.list_(pa.float64())),
    ("n", pa.float64()),
    ("generation", pa.int64()),
    ("alpha0", pa.float64()),
    ("bin_limit", pa.int64()),
    ("offset", pa.int64()),
    ("mode", pa.string()),
    ("kmin", pa.int64()),
    ("kmax", pa.int64()),
]


def sketch_rows_to_table(rows: Sequence[dict], group_values: dict | None = None) -> pa.Table:
    """Pack DDSketch.to_row() dicts (plus optional group-key columns) into
    an Arrow table."""
    cols: dict[str, pa.Array] = {}
    if group_values:
        for name, values in group_values.items():
            cols[name] = pa.array(values)
    for name, typ in SKETCH_FIELDS:
        cols[name] = pa.array([r[name] for r in rows], type=typ)
    return pa.table(cols)


def _list_column(table: pa.Table, name: str) -> tuple[np.ndarray, np.ndarray]:
    """(offsets, values) of a list column: row i is
    ``values[offsets[i]:offsets[i + 1]]``."""
    col = table[name].combine_chunks()
    return (col.offsets.to_numpy(zero_copy_only=False),
            col.values.to_numpy(zero_copy_only=False))


def sketches_from_table(table: pa.Table) -> list[DDSketch]:
    """Decode every serialized-sketch row of a table with columnar
    operations (one offsets/values buffer pair per list column instead of
    per-row as_py round-trips)."""
    koffs, kvals = _list_column(table, "keys")
    coffs, cvals = _list_column(table, "counts")
    scalars = {name: table[name].to_pylist()
               for name, _ in SKETCH_FIELDS if name not in ("keys", "counts")}
    out = []
    for i in range(table.num_rows):
        row = {name: vals[i] for name, vals in scalars.items()}
        row["keys"] = np.asarray(kvals[koffs[i]:koffs[i + 1]],
                                 dtype=np.int64)
        row["counts"] = np.asarray(cvals[coffs[i]:coffs[i + 1]],
                                   dtype=np.float64)
        out.append(DDSketch.from_row(row))
    return out


def _pack_codes(ids: np.ndarray, keys: np.ndarray, n_groups: int):
    """int64 codes that sort (group id, key) pairs lexicographically, and
    the function that turns codes back into (ids, keys).  Keys spread too
    far to pack beside n_groups ids in an int64 are packed by rank."""
    lo = int(keys.min()) if keys.shape[0] else 0
    span = int(keys.max()) - lo + 1 if keys.shape[0] else 1
    if span * n_groups >= 2**63:
        key_values, key_codes = np.unique(keys, return_inverse=True)
        span = key_values.shape[0]
    else:
        key_values, key_codes = None, keys - lo

    def unpack(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        code_ids, code_keys = np.divmod(codes, span)
        return code_ids, (code_keys + lo if key_values is None
                          else key_values[code_keys])

    return ids * span + key_codes, unpack


def merged_rows(table: pa.Table, starts: Sequence[int]) -> list[dict]:
    """``DDSketch.to_row()`` of every contiguous group of serialized-sketch
    rows of a table merged, group g being rows ``starts[g]`` up to the next
    start (the last group runs to the end): for each group, the same bits
    as folding its rows in row order with ``DDSketch.merge``.

    One pass sums every group's bins by key: one ``np.unique`` over packed
    (group, key) codes and one ``np.bincount`` of the counts, which adds
    each bin's counts from 0.0 in row order, as ``_sum_by_key`` does.  A
    group whose rows are all uniform mode at one generation, with a key
    union that fits bin_limit, never collapses in the fold, so that sum is
    its merge.  Every other group folds its columnar-decoded sketches with
    ``DDSketch.merge``."""
    starts = np.asarray(starts, dtype=np.int64)
    n_groups = starts.shape[0]
    if (starts[0] if n_groups else table.num_rows) != 0:
        raise ValueError("sketch rows outside every group")
    if not n_groups:
        return []
    sizes = np.diff(starts, append=table.num_rows)
    if (sizes <= 0).any():
        raise ValueError("no sketch rows to merge")
    group_of_row = np.repeat(np.arange(n_groups), sizes)
    scalars = {name: table[name].to_numpy(zero_copy_only=False)
               for name, _ in SKETCH_FIELDS if name not in ("keys", "counts")}
    first = {name: col[starts] for name, col in scalars.items()}
    for name in ("alpha0", "bin_limit", "offset", "mode"):
        if (scalars[name] != first[name][group_of_row]).any():
            raise ValueError("cannot merge sketches with different parameters")
    fast = (first["mode"] == "uniform") & np.logical_and.reduceat(
        scalars["generation"] == first["generation"][group_of_row], starts)
    koffs, kvals = _list_column(table, "keys")
    coffs, cvals = _list_column(table, "counts")
    packed, unpack = _pack_codes(np.repeat(group_of_row, np.diff(koffs)),
                                 kvals[koffs[0]:koffs[-1]], n_groups)
    runs, run_of_bin = np.unique(packed, return_inverse=True)
    sums = np.bincount(run_of_bin, weights=cvals[coffs[0]:coffs[-1]],
                       minlength=runs.shape[0])
    run_groups, run_keys = unpack(runs)
    union = np.bincount(run_groups, minlength=n_groups)
    fast &= union <= first["bin_limit"]
    run_bounds = np.concatenate(([0], np.cumsum(union)))
    n = np.bincount(group_of_row, weights=scalars["n"], minlength=n_groups)
    kmin = np.minimum.reduceat(scalars["kmin"], starts)
    kmax = np.maximum.reduceat(scalars["kmax"], starts)
    out = []
    for g, (a, size) in enumerate(zip(starts.tolist(), sizes.tolist())):
        if not fast[g]:
            acc, *rest = sketches_from_table(table.slice(a, size))
            for s in rest:
                acc.merge(s)
            out.append(acc.to_row())
            continue
        lo, hi = run_bounds[g], run_bounds[g + 1]
        out.append({
            "keys": run_keys[lo:hi],
            "counts": sums[lo:hi],
            "n": float(n[g]),
            "generation": int(first["generation"][g]),
            "alpha0": float(first["alpha0"][g]),
            "bin_limit": int(first["bin_limit"][g]),
            "offset": int(first["offset"][g]),
            "mode": "uniform",
            "kmin": int(kmin[g]),
            "kmax": int(kmax[g]),
        })
    return out


def merge_sketch_table(table: pa.Table) -> DDSketch:
    """Merge all serialized-sketch rows of an Arrow table into one sketch
    (the one-group case of ``merged_rows``)."""
    return DDSketch.from_row(merged_rows(table, [0])[0])


def tree_merge(partials_ds, body, *, fanin: int = 32) -> pa.Table:
    """Distributed tree reduce of a Dataset of mergeable partial rows;
    ``body`` merges one block of partial rows into fewer rows of the same
    kind (for DDSketch rows, ``merged_table``).

    Replaces the driver-side sequential fold (at 10^6 input blocks the
    old fold held and merged 10^6 sketches serially on the driver):

    1. leaf: ``body`` FUSED into the build stage (no shuffle, no barrier)
       merges each block's partial rows;
    2. reduce rounds: while more than ``fanin`` blocks remain, one
       repartition(fanin) + per-block ``body`` folds them remotely (tiny
       rows -- the shuffle moves kilobytes);
    3. root: the driver concatenates the <= ``fanin`` remaining tables,
       for the caller's final merge -- bounded by the constant fanin,
       independent of input size.

    The common case (blocks <= fanin after the leaf merge) therefore pays
    ZERO extra shuffle barriers over the build itself.
    """
    import ray as _ray
    leaves = partials_ds.map_batches(
        body, batch_format="pyarrow", batch_size=None).materialize()
    while leaves.num_blocks() > fanin:
        leaves = leaves.repartition(fanin).map_batches(
            body, batch_format="pyarrow", batch_size=None).materialize()
    tables = [t for t in map(_ray.get, leaves.to_arrow_refs())
              if t.num_rows]
    if not tables:
        raise ValueError("empty dataset")
    return pa.concat_tables(tables)


def tree_merge_sketches(partials_ds, *, fanin: int = 32) -> DDSketch:
    """The one sketch of a Dataset of serialized-sketch rows: a
    ``tree_merge`` with ``merged_table`` leaves, folded at the root."""
    return merge_sketch_table(tree_merge(partials_ds, merged_table,
                                         fanin=fanin))


def group_codes(table: pa.Table, cols: Sequence[str]
                ) -> tuple[np.ndarray, dict[str, pa.Array]]:
    """Group id of every row by the key columns ``cols``, and each key
    column's value per group.

    Ids run 0..G-1 in ascending lexicographic key order, the order
    ``np.unique`` gives.  Each column is dictionary-encoded and its
    indices are replaced by their entry's rank in the sorted dictionary,
    so only the dictionaries are sorted.  Key values come back as
    ``pa.array(values.to_pylist())``, the types a numpy group-by produces
    (an int32 key comes back int64, a date32 key as date32), and a null
    key as a null of that type."""
    n = table.num_rows
    ids, n_ids = np.zeros(n, dtype=np.int64), 1
    ranked: list[tuple[np.ndarray, pa.Array]] = []
    for name in cols:
        col = table[name]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if pa.types.is_dictionary(col.type):
            col = col.dictionary_decode()
        enc = pc.dictionary_encode(col, null_encoding="encode")
        order = pc.sort_indices(enc.dictionary,
                                null_placement="at_end").to_numpy()
        rank = np.empty(order.shape[0], dtype=np.int64)
        rank[order] = np.arange(order.shape[0])
        codes = rank[enc.indices.to_numpy(zero_copy_only=False)]
        ranked.append((codes, enc.dictionary.take(order)))
        if len(ranked) > 1:  # renumber the (ids, codes) pairs that occur
            uniq, ids = np.unique(ids * order.shape[0] + codes,
                                  return_inverse=True)
            n_ids = uniq.shape[0]
        else:  # one column's ranks are already dense
            ids, n_ids = codes, order.shape[0]
    rep = np.empty(n_ids, dtype=np.int64)  # one row of every group
    rep[ids] = np.arange(n)
    values = {name: pa.array(sorted_dict.take(codes[rep]).to_pylist())
              for name, (codes, sorted_dict) in zip(cols, ranked)}
    return ids, values


def contiguous_groups(block: pa.Table, group_cols: Sequence[str]
                      ) -> tuple[pa.Table, np.ndarray]:
    """The block with each group's rows contiguous, and the first row of
    every group.  Rows are ordered by ``group_codes`` id with a stable
    sort, so a sorted block stays as it is and a group's rows keep their
    order.  No group columns make the block one group."""
    if not group_cols:
        return block, np.zeros(min(block.num_rows, 1), dtype=np.int64)
    ids = group_codes(block, group_cols)[0]
    if (np.diff(ids) < 0).any():
        order = np.argsort(ids, kind="stable")
        block, ids = block.take(order), ids[order]
    return block, np.flatnonzero(np.diff(ids, prepend=-1))


def merged_table(block: pa.Table, group_cols: Sequence[str] = ()
                 ) -> pa.Table:
    """Block body (``map_batches`` or ``partition_by``) over partial rows:
    one merged sketch row per group, the group columns (their input types
    kept) followed by SKETCH_FIELDS.  All groups of the block merge in one
    ``merged_rows`` call; no group columns merge the block to one row."""
    block, starts = contiguous_groups(block, group_cols)
    keys = block.select(list(group_cols)).take(starts)
    merged = sketch_rows_to_table(merged_rows(block, starts))
    return pa.Table.from_arrays(keys.columns + merged.columns,
                                keys.column_names + merged.column_names)


def merge_by_group(partials, group_cols: Sequence[str]):
    """Dataset of one merged sketch row per group of a partial-row
    Dataset, in ascending group order: the keyed exchange
    (``stages.exchange.keyed_merge``: one task for small partials, a sort
    shuffle past its bound) leaves each group's rows in one table, and
    ``merged_table`` merges every group of a table at once."""
    from .exchange import keyed_merge
    return keyed_merge(partials, group_cols,
                       partial(merged_table, group_cols=tuple(group_cols)))


def collect(ds) -> pa.Table:
    """The non-empty blocks of a Dataset concatenated on the driver (a
    table without columns when there are none).  Materialized first: on
    an unmaterialized Dataset, ``to_arrow_refs`` fetches the schema with
    a second (limit=1) execution of the whole plan."""
    import ray as _ray
    tables = [t for t in _ray.get(ds.materialize().to_arrow_refs())
              if t.num_rows]
    return pa.concat_tables(tables) if tables else pa.table({})


def sketches_by_group(merged: pa.Table, group_cols: Sequence[str]) -> dict:
    """{group value, or a tuple of values for several group columns:
    DDSketch} of merged sketch rows (``merged_table`` output), decoded
    with one ``sketches_from_table`` call."""
    if not merged.num_rows:
        return {}
    values = [merged[c].to_pylist() for c in group_cols]
    groups = values[0] if len(values) == 1 else zip(*values)
    return dict(zip(groups, sketches_from_table(merged)))


def partial_columns(values: np.ndarray, ids: np.ndarray, n_groups: int,
                    weights: np.ndarray | None = None, *,
                    alpha: float = DEFAULT_ALPHA,
                    bin_limit: int = DEFAULT_BIN_LIMIT,
                    offset: int = DEFAULT_OFFSET,
                    mode: str = "uniform") -> dict[str, pa.Array]:
    """The SKETCH_FIELDS columns of one partial row per group id
    0..n_groups-1: the rows a fresh ``DDSketch`` per group would give
    after ``add_batch`` of that group's values (and weights), columnar.

    One sort of the packed (group id, bucket key) codes makes every
    (group, key) a run; a run's length (or its weights summed in row order)
    is the bin count.  A group with more distinct keys than bin_limit is
    handed to ``DDSketch.add_bins`` to collapse or fold."""
    proto = DDSketch(alpha, bin_limit, offset, mode)  # validates params
    keys = compute_keys(values, proto.ln_gamma, offset)
    packed, unpack = _pack_codes(ids, keys, n_groups)
    if weights is None:
        runs, lengths = np.unique(packed, return_counts=True)
        run_counts = lengths.astype(np.float64)
        added = np.bincount(ids, minlength=n_groups).astype(np.float64)
    else:
        if (weights < 0).any():
            raise ValueError("weights must be non-negative")
        runs, run_of_row = np.unique(packed, return_inverse=True)
        run_counts = np.bincount(run_of_row, weights=weights,
                                 minlength=runs.shape[0])
        nonzero = run_counts > 0  # zero-weight rows must not open bins
        runs, run_counts = runs[nonzero], run_counts[nonzero]
        # each group's weights summed as add_batch does: w.sum() of the
        # group's rows in row order
        by_group = np.argsort(ids, kind="stable")
        bounds = np.searchsorted(ids[by_group], np.arange(n_groups + 1))
        added = np.array([weights[by_group[a:b]].sum()
                          for a, b in zip(bounds[:-1], bounds[1:])],
                         dtype=np.float64)
    run_ids, run_keys = unpack(runs)
    sizes = np.bincount(run_ids, minlength=n_groups)
    n = added + 0.0  # DDSketch.n starts at 0.0 and adds
    generation = np.zeros(n_groups, dtype=np.int64)
    kmin = np.full(n_groups, proto.kmin, dtype=np.int64)
    kmax = np.full(n_groups, proto.kmax, dtype=np.int64)
    over = np.flatnonzero(sizes > bin_limit)
    if over.size:
        bounds = np.concatenate(([0], np.cumsum(sizes)))
        key_parts, count_parts, prev = [], [], 0
        for g in over.tolist():
            a, b = bounds[g], bounds[g + 1]
            s = DDSketch(alpha, bin_limit, offset, mode)
            s.add_bins(run_keys[a:b], run_counts[a:b], float(added[g]))
            row = s.to_row()
            key_parts += [run_keys[bounds[prev]:a], row["keys"]]
            count_parts += [run_counts[bounds[prev]:a], row["counts"]]
            prev = g + 1
            sizes[g] = row["keys"].shape[0]
            n[g], generation[g] = row["n"], row["generation"]
            kmin[g], kmax[g] = row["kmin"], row["kmax"]
        run_keys = np.concatenate(key_parts + [run_keys[bounds[prev]:]])
        run_counts = np.concatenate(count_parts + [run_counts[bounds[prev]:]])
    list_offsets = pa.array(np.concatenate(([0], np.cumsum(sizes))),
                            type=pa.int32())
    return {
        "keys": pa.ListArray.from_arrays(
            list_offsets, pa.array(run_keys, type=pa.int64())),
        "counts": pa.ListArray.from_arrays(
            list_offsets, pa.array(run_counts, type=pa.float64())),
        "n": pa.array(n, type=pa.float64()),
        "generation": pa.array(generation, type=pa.int64()),
        "alpha0": pa.array(np.full(n_groups, proto.alpha0),
                           type=pa.float64()),
        "bin_limit": pa.array(np.full(n_groups, proto.bin_limit),
                              type=pa.int64()),
        "offset": pa.array(np.full(n_groups, proto.offset), type=pa.int64()),
        "mode": pa.array([mode] * n_groups, type=pa.string()),
        "kmin": pa.array(kmin, type=pa.int64()),
        "kmax": pa.array(kmax, type=pa.int64()),
    }


def build_partials(batch: pa.Table, *, value_col: str,
                   group_cols: Sequence[str] | None = None,
                   weight_col: str | None = None,
                   alpha: float = DEFAULT_ALPHA,
                   bin_limit: int = DEFAULT_BIN_LIMIT,
                   offset: int = DEFAULT_OFFSET,
                   mode: str = "uniform") -> pa.Table:
    """map_batches body: one partial-sketch row per (batch, group), the
    group-key columns first (no group columns: one row for the batch).

    Nulls in the value column are dropped (the reference's scalar stream
    has no notion of null, main.cpp:967-1000).  ``weight_col`` makes the
    partials weighted (each row adds its weight to its bucket).
    """
    col = batch[value_col]
    if col.null_count:
        keep = col.is_valid()
        batch = batch.filter(keep)
        col = batch[value_col]
    values = col.to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
    weights = (batch[weight_col].to_numpy(zero_copy_only=False)
               .astype(np.float64, copy=False) if weight_col else None)
    if group_cols:
        ids, group_values = group_codes(batch, group_cols)
        n_groups = len(group_values[group_cols[0]])
    else:
        ids, group_values, n_groups = np.zeros(values.shape[0], np.int64), {}, 1
    return pa.table({**group_values, **partial_columns(
        values, ids, n_groups, weights, alpha=alpha, bin_limit=bin_limit,
        offset=offset, mode=mode)})


def partial_builder(value_col: str, group_cols: Sequence[str] | None = None,
                    **sketch_kwargs):
    """Picklable map_batches callable (stateless task)."""
    return partial(build_partials, value_col=value_col,
                   group_cols=tuple(group_cols) if group_cols else None,
                   **sketch_kwargs)


def quantile_finalizer(group_cols: Sequence[str] | None,
                       quantiles: Sequence[float],
                       round_digits: int | None = None):
    """map_batches body factory over a block of partial rows holding whole
    groups (a sorted block): merge every group once (``merged_rows``)
    and emit one row per (group, quantile):
    group keys (their input types kept) + (q, bucket_key, est), in
    ``contiguous_groups`` order; no group columns make the block one
    group.  One cumsum + searchsorted over a group's merged bins answers
    every quantile."""
    group_cols = tuple(group_cols) if group_cols else ()
    qs = tuple(quantiles)

    def finalize(block: pa.Table) -> pa.Table:
        block, starts = contiguous_groups(block, group_cols)
        rows = merged_rows(block, starts)
        out = {c: block[c].take(np.repeat(starts, len(qs)))
               for c in group_cols}
        bucket_keys, ests = [], []
        for row in rows:
            gamma = _derived_params(row["alpha0"], row["generation"])[1]
            keys = quantile_keys(row["keys"], row["counts"], row["n"],
                                 qs).tolist()
            bucket_keys += keys
            ests += [bucket_estimate(k, gamma, row["offset"]) for k in keys]
        if round_digits is not None:
            ests = [round(e, round_digits) for e in ests]
        out["q"] = pa.array(list(qs) * len(rows), type=pa.float64())
        out["bucket_key"] = pa.array(bucket_keys, type=pa.int64())
        out["est"] = pa.array(ests, type=pa.float64())
        return pa.table(out)

    return finalize


def actor_pool_sketch_build(ds, value_col: str, *, n_actors: int = 8,
                            alpha: float = DEFAULT_ALPHA,
                            bin_limit: int = DEFAULT_BIN_LIMIT,
                            offset: int = DEFAULT_OFFSET,
                            mode: str = "uniform",
                            weight_col: str | None = None) -> DDSketch:
    """Stateful ACTOR-POOL build: ``n_actors`` long-lived Ray actors each
    hold ONE DDSketch and stream their share of the dataset through it
    (``streaming_split`` iterators), so exactly ``n_actors`` partial rows
    exist no matter how many blocks the input has -- the "per-partition
    sketch held in actor state" execution shape (north-star phrasing;
    the reference's per-peer accumulation, main.cpp:432-472).

    This is the raw-actor escape hatch the Dataset API needs here: a
    map_batches callable class cannot flush accumulated state after its
    last batch, so cross-batch accumulation genuinely requires actors
    consuming split iterators.  The default path (build_partials +
    tree_merge_sketches) stays stateless-per-block -- identical results
    (merge associativity), better retry semantics; this pool variant
    wins when per-block partial rows dominate (tiny blocks, huge block
    counts) or when the accumulator is expensive to construct.

    Returns the merged global sketch; bit-identical to the stateless
    path by merge-order invariance (asserted in tests).
    """
    import ray as _ray

    @_ray.remote
    class _SketchActor:
        def __init__(self):
            self.sketch = DDSketch(alpha, bin_limit, offset, mode)

        def consume(self, it) -> dict:
            for batch in it.iter_batches(batch_format="pyarrow",
                                         batch_size=65536):
                col = batch[value_col]
                if col.null_count:
                    batch = batch.filter(col.is_valid())
                    col = batch[value_col]
                v = col.to_numpy(zero_copy_only=False).astype(
                    np.float64, copy=False)
                w = (batch[weight_col].to_numpy(zero_copy_only=False)
                     .astype(np.float64, copy=False)
                     if weight_col else None)
                self.sketch.add_batch(v, w)
            return self.sketch.to_row()

    cols = [value_col] + ([weight_col] if weight_col else [])
    splits = ds.select_columns(cols).streaming_split(
        n_actors, equal=False)
    actors = [_SketchActor.remote() for _ in range(n_actors)]
    rows = _ray.get([a.consume.remote(it)
                     for a, it in zip(actors, splits)])
    for a in actors:
        _ray.kill(a)
    merged = DDSketch.from_row(rows[0])
    for r in rows[1:]:
        merged.merge(DDSketch.from_row(r))
    return merged
