"""The mergeable-accumulator protocol every sketch in this library follows.

This generalizes the reference's compile-time strategy families
(/root/reference/ddsketch.h:154-251 exposes parallel Add/Delete/Merge
function sets) into one runtime protocol, so DDSketch, HyperLogLog,
count-min, Bloom, KLL and MinHash all plug into the same Ray Data stages:

* build:   ``map_batches(...)`` calls ``add_batch`` per Arrow batch and
           emits one ``to_row()`` per (block, group) -- the partial.
* merge:   a distributed tree reduce of the partial rows
           (``stages.sketch_build.tree_merge``) or a per-key grouping of
           them (a sort then one merge per block, or
           ``groupby(key).map_groups``) calls ``merge`` -- the
           partial-then-merge tree replaces the reference's gossip rounds
           (main.cpp:475-658).
* query:   ``finalize``-side methods (quantile / estimate / contains ...).

Contract: ``merge`` must be associative and commutative, and ``to_row`` /
``from_row`` must round-trip exactly.  Sketches whose state is a pure
function of the input *multiset* (DDSketch-uniform, HLL, count-min, Bloom)
additionally serialize bit-identically for every merge order.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable


@runtime_checkable
class Sketch(Protocol):
    def add_batch(self, values) -> None: ...

    def merge(self, other) -> "Sketch": ...

    def to_row(self) -> dict: ...

    @classmethod
    def from_row(cls, row: dict) -> "Sketch": ...

    def to_bytes(self) -> bytes: ...
