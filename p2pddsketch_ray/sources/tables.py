"""Reads of the test-data tables, one ``<sf_dir>/<table>.parquet`` each:
a parquet file, or a directory of parquet files (``tools/gen_sf.py``)."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.dataset as pads

import ray.data

from ..stages.partition import cluster_cpus


def read_table(sf_dir: str, table: str, columns=None) -> "ray.data.Dataset":
    """``<sf_dir>/<table>.parquet`` as a Dataset of ``columns`` (every
    column when None).  The read gets the table's schema of those columns
    without its metadata: Ray cannot hash a schema that carries pandas
    metadata and logs a warning from every read task that meets one.

    The read makes one block per cluster CPU (``override_num_blocks``).
    Left to itself, Ray plans at least 2 x CPUs read blocks
    (``ray.data._internal.util._autodetect_parallelism``) and splits each
    read task's output to reach them, and a read whose output is split
    does not fuse with the map after it
    (``ray.data._internal.logical.rules.operator_fusion``: an additional
    split factor over 1).  With one block per CPU, a table of at least as
    many files as CPUs is read in one task per CPU, each fused with the
    maps after it (a one-file table on one CPU: one task), unless a
    task's output passes Ray's block size bound; a table of fewer files
    is still split, to one block per CPU."""
    path = f"{sf_dir}/{table}.parquet"
    schema = pads.dataset(path, format="parquet").schema.remove_metadata()
    if columns is not None:
        schema = pa.schema([schema.field(c) for c in columns])
    return ray.data.read_parquet(path, columns=columns, schema=schema,
                                 override_num_blocks=cluster_cpus())
