"""One keyed exchange for partial rows.

The combiners of the package (``combine_agg``, ``merge_by_group``,
``dds_quantiles_grouped``) fold each input batch to a few partial rows
per key, so what they exchange is small: kilobytes where the input is
gigabytes.  ``keyed_merge`` sizes the exchange to those partials:

* it materializes them (a sort's barrier would have done so anyway), so
  their row count and in-memory size are known from block metadata;
* without rows, the answer is ``body`` of a zero-row partial table;
* up to ``SMALL_BYTES`` (and always without keys), one Ray task gets
  the refs of the non-empty blocks, concatenates them, sorts them by the
  keys and runs ``body`` once.  That skips the sort's boundary sampling,
  its shuffle and its separate reduce stage, a fixed cost of ~0.1 s that
  kilobyte partials cannot amortize;
* above it, ``sort(keys)`` brings every row of a key into one block and
  ``body`` runs once per block, spread over the cluster's CPUs, which
  high-cardinality partials (a row per user, per document) need.

Both paths give ``body`` its rows in the same order: ascending by the
keys, nulls last, rows of one key in block order.  So the output rows
come in the same order too, for a ``body`` that keeps its rows' order.

Every path returns its output materialized.  A ``from_arrow_refs`` or
``from_arrow`` Dataset without a snapshot starts one more streaming
execution on each pull (``to_pandas()``, ``to_arrow_refs()``);
``materialize()`` gives it one without starting any.  So a query of a
read, a fold and one ``keyed_merge`` executes one plan, the read and the
fold, fused when the read makes one block per CPU
(``sources.tables.read_table``).
"""

from __future__ import annotations

from typing import Callable, Sequence

import pyarrow as pa

import ray
import ray.data

# Partials up to this many bytes merge in one task: there the one-task
# merge costs no more than the sort's fixed overhead.  Measured on one
# CPU (Ray 2.49): the sort of 4 blocks of tiny partials takes 0.13 s
# against 0.02 s for the task, and one task merges ~8 MiB in 0.09-0.13 s
# (near-unique 32-char string keys through combine_agg's group_by, the
# slowest body, 0.13 s; merged_table and quantile_finalizer over 1000
# groups of sketch rows, 0.09-0.10 s).
SMALL_BYTES = 8 << 20


@ray.remote
def _merge_one_task(body, keys: list[str], *blocks: pa.Table) -> pa.Table:
    table = pa.concat_tables(blocks, promote_options="permissive")
    # a stable sort, as a sort shuffle leaves each of its blocks
    return body(table.sort_by([(k, "ascending") for k in keys])
                if keys else table)


def keyed_merge(partials: "ray.data.Dataset", keys: Sequence[str],
                body: Callable[[pa.Table], pa.Table],
                empty: Callable[[], pa.Table] | None = None
                ) -> "ray.data.Dataset":
    """``body`` over every key's partial rows of ``partials``, each key's
    rows in one call.

    ``body`` gets a table of partial rows holding every row of each key
    it sees (every row, without ``keys``) and returns that table's
    answer.  An input without rows gives ``body`` of a zero-row table of
    the partials' schema; ``empty()`` gives that zero-row table when the
    partials carry no schema either (Ray runs no block body on an input
    without rows), and without ``empty`` the output is then a Dataset
    without rows or columns.  The output is materialized on every path,
    so pulling it executes no plan.
    """
    keys = list(keys)
    partials = partials.materialize()
    if not partials.count():
        schema = partials.schema(fetch_if_missing=False)
        if schema is not None and schema.names:
            zero = schema.base_schema.empty_table()
        elif empty is not None:
            zero = empty()
        else:
            return partials
        return ray.data.from_arrow(body(zero)).materialize()
    if not keys or partials.size_bytes() <= SMALL_BYTES:
        # block refs only: no partial row comes to the driver
        blocks = [ref for bundle in partials.iter_internal_ref_bundles()
                  for ref, meta in bundle.blocks if meta.num_rows]
        return ray.data.from_arrow_refs(
            [_merge_one_task.remote(body, keys, *blocks)]).materialize()
    return partials.sort(keys).map_batches(body, batch_format="pyarrow",
                                           batch_size=None).materialize()
