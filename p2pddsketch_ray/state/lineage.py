"""The lineage key that names checkpointed partials and resumable shard
outputs: md5 of the input's absolute path and the fields that decide the
stage's output, as sorted-key JSON.  Its bytes must never change, or
existing checkpoints and shards stop resuming."""

from __future__ import annotations

import hashlib
import json
import os


def lineage_key(input_path: str, fields: dict) -> str:
    blob = json.dumps({"input": os.path.abspath(input_path), **fields},
                      sort_keys=True)
    return hashlib.md5(blob.encode()).hexdigest()
