"""Exact grouped aggregation by combine-then-sort.

``combine_agg`` is the combiner the exact pipelines share.  Each batch is
folded to one partial row per key by one Arrow ``group_by``; a sort
shuffle brings every partial row of a key into one block; one more
``group_by`` per block merges the partials (sums and counts add, mins and
maxes keep theirs) and the caller's ``finalize`` shapes the block's
answer.  All of it is vectorized Arrow: no Python runs per group, and
the shuffle moves one row per (batch, key) instead of one per input row.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Sequence

import pyarrow as pa
import pyarrow.compute as pc

import ray.data

# how the partials of each aggregate merge
_MERGE = {"sum": "sum", "count": "sum", "min": "min", "max": "max"}
# count is rows, nulls included (what Ray's Count() and SQL count(*) give)
_COUNT_ALL = pc.CountOptions(mode="all")


def _group(table: pa.Table, keys: list[str],
           aggs: list[tuple[str, str]]) -> pa.Table:
    """One row per key of ``table``: the key columns, then ``{col}_{fn}``
    for every (col, fn) of ``aggs``.  A table without rows gives none,
    with or without keys."""
    out = table.group_by(keys, use_threads=False).aggregate(
        [(c, fn, _COUNT_ALL) if fn == "count" else (c, fn)
         for c, fn in aggs])
    out = out.select(keys + [f"{c}_{fn}" for c, fn in aggs])
    return out if table.num_rows else out.slice(0, 0)


def _partial(batch: pa.Table, prep, keys: list[str],
             aggs: list[tuple[str, str]]) -> pa.Table:
    out = _group(prep(batch), keys, aggs)
    for k in keys:
        col = out[k]
        # Ray's sort shuffle compares the boundary sample as numpy
        # values; a null is NaN in a numeric column, None elsewhere
        if col.null_count and not (pa.types.is_integer(col.type)
                                   or pa.types.is_floating(col.type)):
            raise ValueError(
                f"combine_agg: key column {k!r} ({col.type}) has nulls; "
                f"the sort shuffle orders nulls only in numeric keys")
    return out


def _reduce(block: pa.Table, keys: list[str], aggs: list[tuple[str, str]],
            finalize) -> pa.Table:
    names = [f"{c}_{fn}" for c, fn in aggs]
    merged = _group(block, keys,
                    [(n, _MERGE[fn]) for n, (_, fn) in zip(names, aggs)])
    return finalize(merged.rename_columns(keys + names))


def combine_agg(ds: "ray.data.Dataset", keys: Sequence[str],
                prep: Callable[[pa.Table], pa.Table],
                aggs: Sequence[tuple[str, str]],
                finalize: Callable[[pa.Table], pa.Table]
                ) -> "ray.data.Dataset":
    """Grouped exact aggregation of ``ds``.

    ``prep(batch)`` turns an input batch into a table holding the
    ``keys`` and the aggregated columns.  ``aggs`` is a list of
    ``(column, fn)`` with ``fn`` one of sum, min, max or count (rows,
    nulls included).  ``finalize`` gets one merged table per sorted
    block: the key columns, then ``{column}_{fn}`` per aggregate, one row
    per key, and returns that block's output.

    The sort shuffle leaves every row of a key in one block, so each key
    is merged exactly once.  Without keys the one-row partials of every
    batch merge in one block.  Null keys form one group in integer and
    float columns; other key types with nulls raise ``ValueError``,
    because the sort cannot order them.

    Ray calls no block body on a block without rows, so when the schema
    of ``ds`` is known without running it (a read), ``prep`` and
    ``finalize`` also run once on a zero-row table on the caller, and
    the output carries that result as one more block: an input without
    rows gives zero rows with the schema of a non-empty output.
    """
    keys = list(keys)
    aggs = [(c, fn) for c, fn in aggs]
    bad = [fn for _, fn in aggs if fn not in _MERGE]
    if bad:
        raise ValueError(f"combine_agg: unknown aggregate(s) {bad}; "
                         f"expected one of {sorted(_MERGE)}")
    partials = ds.map_batches(partial(_partial, prep=prep, keys=keys,
                                      aggs=aggs),
                              batch_format="pyarrow", zero_copy_batch=True)
    exchanged = partials.sort(keys) if keys else partials.repartition(1)
    reduce = partial(_reduce, keys=keys, aggs=aggs, finalize=finalize)
    out = exchanged.map_batches(reduce, batch_format="pyarrow",
                                batch_size=None)
    schema = ds.schema(fetch_if_missing=False)
    if schema is None:
        return out
    empty = reduce(_partial(schema.base_schema.empty_table(), prep, keys,
                            aggs))
    return out.union(ray.data.from_arrow(empty))


def named(*names: str):
    """A ``combine_agg`` finalize that only renames: the key columns,
    then one merged column per aggregate, to ``names`` in that order."""
    return lambda t: t.rename_columns(list(names))
