"""Reads of the test-data tables, one ``<sf_dir>/<table>.parquet`` each:
a parquet file, or a directory of parquet files (``tools/gen_sf.py``)."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.dataset as pads

import ray.data


def read_table(sf_dir: str, table: str, columns=None) -> "ray.data.Dataset":
    """``<sf_dir>/<table>.parquet`` as a Dataset of ``columns`` (every
    column when None).  The read gets the table's schema of those columns
    without its metadata: Ray cannot hash a schema that carries pandas
    metadata and logs a warning from every read task that meets one."""
    path = f"{sf_dir}/{table}.parquet"
    schema = pads.dataset(path, format="parquet").schema.remove_metadata()
    if columns is not None:
        schema = pa.schema([schema.field(c) for c in columns])
    return ray.data.read_parquet(path, columns=columns, schema=schema)
