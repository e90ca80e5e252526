"""Exact grouped aggregation by combine-then-merge.

``combine_agg`` is the combiner the exact pipelines share.  Each batch is
folded to one partial row per key by one Arrow ``group_by``; the keyed
exchange (``stages.exchange.keyed_merge``) brings every partial row of a
key into one table: one Ray task when the partials are small, which they
are unless the keys are near-unique, a sort shuffle past its bound.  One
more ``group_by`` per table merges the partials (sums and counts add,
mins and maxes keep theirs) and the caller's ``finalize`` shapes that
table's answer.  All of it is vectorized Arrow: no Python runs per group,
and the exchange moves one row per (batch, key) instead of one per input
row.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Sequence

import pyarrow as pa
import pyarrow.compute as pc

from .exchange import keyed_merge

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
        # a sort shuffle (keyed_merge past its bound) compares the
        # boundary sample as numpy values; a null is NaN in a numeric
        # column, None elsewhere
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
    if keys:  # a group_by by several keys does not keep a sorted order
        merged = merged.sort_by([(k, "ascending") for k in keys])
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
    nulls included).  ``finalize`` gets one merged table per exchanged
    table: the key columns, then ``{column}_{fn}`` per aggregate, one row
    per key, and returns that table's output.

    ``keyed_merge`` leaves every partial row of a key in one table, so
    each key is merged exactly once, and the output rows come in
    ascending key order (nulls last).  Without keys the one-row partials
    of every batch merge in one task.  Null keys form one group in
    integer and float columns; other key types with nulls raise
    ``ValueError``, because the sort shuffle cannot order them.

    An input without rows gives zero rows with the schema of a non-empty
    output: ``finalize`` of a merged zero-row table.  Ray calls no block
    body on a block without rows, so when no partial was made, ``prep``
    runs once on a zero-row table of ``ds``'s schema on the caller, if
    that schema is known without running ``ds`` (a read); otherwise the
    output has no columns.
    """
    keys = list(keys)
    aggs = [(c, fn) for c, fn in aggs]
    bad = [fn for _, fn in aggs if fn not in _MERGE]
    if bad:
        raise ValueError(f"combine_agg: unknown aggregate(s) {bad}; "
                         f"expected one of {sorted(_MERGE)}")
    fold = partial(_partial, prep=prep, keys=keys, aggs=aggs)
    partials = ds.map_batches(fold, batch_format="pyarrow",
                              zero_copy_batch=True)
    schema = ds.schema(fetch_if_missing=False)
    empty = (None if schema is None
             else lambda: fold(schema.base_schema.empty_table()))
    return keyed_merge(partials, keys,
                       partial(_reduce, keys=keys, aggs=aggs,
                               finalize=finalize), empty)


def named(*names: str):
    """A ``combine_agg`` finalize that only renames: the key columns,
    then one merged column per aggregate, to ``names`` in that order."""
    return lambda t: t.rename_columns(list(names))
