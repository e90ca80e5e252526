"""Resumable partitioned output for map-style pipelines.

The 100-TB contract (SURVEY.md section 4 / task brief): output is written
as one Parquet directory per input shard, so a failed run re-processes
only the shards whose output is missing -- never one giant file, never a
restart from zero.

Same lineage discipline as state.checkpoint: the output directory name is
md5(input_path | stage_version | params); a shard's output is published
atomically (write to ``<dir>.tmp``, fsync-free os.replace) so a crash
mid-write leaves no partial output that a resume would mistake for done.
Correct because the transforms are deterministic per shard (stateless
map_batches, no RNG -- the same property that makes Ray task retries
safe).
"""

from __future__ import annotations

import json
import os
import shutil
from typing import Callable, Sequence

import pyarrow as pa

from .lineage import lineage_key


class ResumableMapWrite:
    """Apply a batch transform to many input parquet shards, writing one
    output directory per shard, skipping shards already done.

    transform: pa.Table -> pa.Table, applied via map_batches (stateless,
    deterministic).  Each shard runs as its own small Ray Data pipeline:
    at 100 TB the unit of retry IS the input shard, and Ray's streaming
    executor parallelizes within the shard; process pools of shards can
    be run by invoking ``run`` on disjoint path lists from several
    drivers.
    """

    def __init__(self, out_dir: str, stage: str,
                 transform: Callable[[pa.Table], pa.Table],
                 params: dict | None = None, *,
                 columns: Sequence[str] | None = None,
                 batch_size: int | None = None):
        self.out_dir = out_dir
        self.stage = stage
        self.transform = transform
        self.params = dict(params or {})
        self.columns = list(columns) if columns else None
        self.batch_size = batch_size
        os.makedirs(out_dir, exist_ok=True)
        self.written: list[str] = []
        self.skipped: list[str] = []

    def _shard_key(self, input_path: str) -> str:
        return lineage_key(input_path, {"stage": self.stage, **self.params})

    def _shard_dir(self, input_path: str) -> str:
        return os.path.join(self.out_dir,
                            f"shard-{self._shard_key(input_path)}")

    def run(self, input_paths: Sequence[str]) -> list[str]:
        """Process every input shard whose output does not yet exist.
        Returns the list of all shard output directories (done + new).

        Each shard's directory carries a ``_METRICS.json`` manifest
        (lineage key, rows in/out, bytes out, wall seconds) written
        inside the tmp dir BEFORE the atomic publish -- so a shard is
        done iff its metrics exist, and per-partition metrics survive
        resume untouched."""
        import glob
        import time

        import pyarrow.parquet as pq

        import ray.data
        self.written, self.skipped = [], []
        outs = []
        for path in input_paths:
            final = self._shard_dir(path)
            outs.append(final)
            if os.path.isdir(final):
                self.skipped.append(path)
                continue
            tmp = final + ".tmp"
            if os.path.isdir(tmp):       # crashed mid-write: redo
                shutil.rmtree(tmp)
            t0 = time.time()
            ds = ray.data.read_parquet(path, columns=self.columns)
            ds = ds.map_batches(self.transform, batch_format="pyarrow",
                                batch_size=self.batch_size,
                                zero_copy_batch=True)
            ds.write_parquet(tmp)
            out_files = sorted(glob.glob(os.path.join(tmp, "*.parquet")))
            manifest = {
                "input": os.path.abspath(path),
                "stage": self.stage,
                "params": self.params,
                "shard_key": self._shard_key(path),
                "rows_in": pq.ParquetFile(path).metadata.num_rows,
                "rows_out": sum(pq.ParquetFile(f).metadata.num_rows
                                for f in out_files),
                "bytes_out": sum(os.path.getsize(f) for f in out_files),
                "files_out": len(out_files),
                "wall_sec": round(time.time() - t0, 4),
            }
            with open(os.path.join(tmp, "_METRICS.json"), "w") as fh:
                json.dump(manifest, fh, sort_keys=True)
            os.replace(tmp, final)       # atomic publish
            self.written.append(path)
        return outs

    def metrics(self, input_paths: Sequence[str]) -> list[dict]:
        """The per-partition metrics manifests, one dict per shard (in
        input order).  Raises if any shard has not been run."""
        out = []
        for path in input_paths:
            mpath = os.path.join(self._shard_dir(path), "_METRICS.json")
            if not os.path.isfile(mpath):
                raise FileNotFoundError(
                    f"no metrics for shard {path!r}; call run() first")
            with open(mpath) as fh:
                out.append(json.load(fh))
        return out

    def output_dataset(self, input_paths: Sequence[str]):
        """The combined output across all shards as one Dataset."""
        import glob

        import ray.data
        dirs = [self._shard_dir(p) for p in input_paths]
        missing = [d for d in dirs if not os.path.isdir(d)]
        if missing:
            raise FileNotFoundError(
                f"{len(missing)} shard outputs missing; call run() first")
        # ray.data.read_parquet treats a path LIST as files: expand each
        # shard directory explicitly
        files = [f for d in dirs
                 for f in sorted(glob.glob(os.path.join(d, "*.parquet")))]
        return ray.data.read_parquet(files)
