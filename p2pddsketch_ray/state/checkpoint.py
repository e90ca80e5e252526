"""Per-partition lineage + checkpoint/resume for sketch builds
(BASELINE.json: "resumable from checkpoint with per-partition lineage").

Layout (SURVEY.md section 4): one parquet of partial-sketch rows per input
file, named by a lineage key = md5(input_path | stage_version | params);
written atomically (tmp + rename).  On resume, inputs whose partial exists
are skipped entirely (never re-read); the final merge folds ALL partial
files -- idempotent because the merge is associative/commutative and the
partials are deterministic per input (stateless per-block builders, no
RNG).  The reference's embryonic form of this is the DDS_PrintCSV bins
dump (ddsketch.cc:913-954); here the checkpoint IS the serialized-sketch
table format of stages.sketch_build.
"""

from __future__ import annotations

import os
from typing import Sequence

import pyarrow as pa
import pyarrow.parquet as pq

from ..config import DEFAULT_ALPHA, DEFAULT_BIN_LIMIT, DEFAULT_OFFSET
from ..sketches.ddsketch import DDSketch
from ..stages.sketch_build import (merge_sketch_table, merged_table,
                                   sketches_by_group)
from .lineage import lineage_key

STAGE_VERSION = 1


class CheckpointedSketchBuild:
    """Build a (optionally grouped) DDSketch over many parquet inputs with
    per-input checkpointing."""

    def __init__(self, checkpoint_dir: str, value_col: str,
                 group_cols: Sequence[str] | None = None,
                 alpha: float = DEFAULT_ALPHA,
                 bin_limit: int = DEFAULT_BIN_LIMIT,
                 offset: int = DEFAULT_OFFSET, mode: str = "uniform"):
        self.dir = checkpoint_dir
        os.makedirs(checkpoint_dir, exist_ok=True)
        self.value_col = value_col
        self.group_cols = tuple(group_cols) if group_cols else None
        self.params = {"value_col": value_col,
                       "group_cols": list(self.group_cols or ()),
                       "alpha": alpha, "bin_limit": bin_limit,
                       "offset": offset, "mode": mode}
        self.sketch_kwargs = {"alpha": alpha, "bin_limit": bin_limit,
                              "offset": offset, "mode": mode}
        self.built_inputs: list[str] = []   # inputs built THIS run
        self.skipped_inputs: list[str] = []  # satisfied from checkpoint

    def _partial_path(self, input_path: str) -> str:
        key = lineage_key(input_path,
                          {"stage_version": STAGE_VERSION, **self.params})
        return os.path.join(self.dir, f"partial-{key}.parquet")

    def build(self, input_paths: Sequence[str]) -> None:
        """Ensure a partial exists for every input (building the missing
        ones through the distributed pipeline)."""
        from ..pipelines.quantiles import build_partials_ds
        import ray.data

        self.built_inputs, self.skipped_inputs = [], []
        for path in input_paths:
            out = self._partial_path(path)
            if os.path.exists(out):
                self.skipped_inputs.append(path)
                continue
            import ray
            ds = ray.data.read_parquet(path)
            partials = build_partials_ds(ds, self.value_col, self.group_cols,
                                         **self.sketch_kwargs)
            chunks = [ray.get(r)
                      for r in partials.materialize().to_arrow_refs()]
            nonempty = [t for t in chunks if t.num_rows]
            if nonempty:
                table = pa.concat_tables(nonempty)
            elif chunks:
                # all-empty input: publish a zero-row partial anyway so
                # resume skips this input instead of re-failing every run;
                # merge treats it as identity
                table = chunks[0]
            else:
                from ..stages.sketch_build import sketch_rows_to_table
                table = sketch_rows_to_table([])
            tmp = out + ".tmp"
            pq.write_table(table, tmp)
            os.replace(tmp, out)           # atomic publish
            self.built_inputs.append(path)

    def merged(self, input_paths: Sequence[str]) -> DDSketch:
        """Global merged sketch from the checkpointed partials."""
        tables = [pq.read_table(self._partial_path(p)) for p in input_paths]
        # permissive: a zero-row partial from an empty input may carry
        # null-typed group columns
        return merge_sketch_table(
            pa.concat_tables(tables, promote_options="permissive"))

    def merged_by_group(self, input_paths: Sequence[str]) -> dict:
        """group value (a tuple for several group columns) -> merged
        DDSketch, every group merged in one ``merged_table`` call."""
        if not self.group_cols:
            raise ValueError("merged_by_group requires group columns")
        table = pa.concat_tables(
            [pq.read_table(self._partial_path(p)) for p in input_paths],
            promote_options="permissive")
        return sketches_by_group(merged_table(table, self.group_cols),
                                 self.group_cols)
