"""Generic partial-sketch build/merge for any Sketch-protocol accumulator.

Same shape as stages.sketch_build (one partial per block, tiny rows through
the shuffle / driver fold) but sketch-agnostic: the partial row is a pickled
accumulator blob (internal wire format only -- DDSketch keeps its typed
Arrow row schema for checkpointing; HLL/CMS/Bloom partials are opaque).
"""

from __future__ import annotations

import pickle
from typing import Callable

import pyarrow as pa

from .sketch_build import tree_merge


def sketch_partials_ds(ds, columns: list[str],
                       make_sketch: Callable[[], object],
                       add_batch: Callable[[object, pa.Table], None],
                       batch_size: int | None = 65536):
    """Stage 1: stateless map_batches emitting one pickled partial per
    block."""

    def build(batch: pa.Table) -> pa.Table:
        s = make_sketch()
        add_batch(s, batch)
        return pa.table({"blob": pa.array([pickle.dumps(s)],
                                          type=pa.binary())})

    return ds.select_columns(columns).map_batches(
        build, batch_format="pyarrow", batch_size=batch_size,
        zero_copy_batch=True)


def _merge_blob_block(t: pa.Table) -> pa.Table:
    """Fold a block of pickled partials into one partial row."""
    if t.num_rows == 0:
        return pa.table({"blob": pa.array([], type=pa.binary())})
    merged = None
    for blob in t["blob"].to_pylist():
        s = pickle.loads(blob)
        merged = s if merged is None else merged.merge(s)
    return pa.table({"blob": pa.array([pickle.dumps(merged)],
                                      type=pa.binary())})


def merge_partials(partials_ds, *, fanin: int = 32):
    """The one accumulator of a Dataset of pickled partials: a
    ``tree_merge`` with ``_merge_blob_block`` leaves, then a driver fold
    of the <= ``fanin`` blobs it leaves."""
    root = tree_merge(partials_ds, _merge_blob_block, fanin=fanin)
    return pickle.loads(_merge_blob_block(root)["blob"][0].as_py())


def build_and_merge(ds, columns, make_sketch, add_batch, batch_size=65536):
    return merge_partials(
        sketch_partials_ds(ds, columns, make_sketch, add_batch, batch_size))
