"""p2pddsketch_ray: a Ray-Data-native distributed sketch / approximate-
aggregation engine with the query capabilities of gmorleo/p2pDDSketch.

Centerpiece: DDSketch (relative-error quantile sketch) built via
``map_batches`` over zero-copy Arrow batches and merged through
groupby-aggregate tree merges -- the reference's P2P gossip topology
(/root/reference/main.cpp:475-658, graph.cpp) is replaced by explicit Ray
Data shuffle/merge stages.  Alongside: HyperLogLog, count-min, Bloom, KLL,
MinHash/SimHash, dedup, text analysis, and ANN similarity-search pipelines.
"""

from .config import SketchConfig
from .sketches import DDSketch


def configure_for_cluster(num_cpus: int | None = None) -> None:
    """Tune Ray Data for this engine.

    Strategy note (measured on Ray 2.49, local mode): the HASH_SHUFFLE
    strategy's aggregator actors throttle upstream map stages at low CPU
    counts (~1.3 of 8 CPUs utilized), so the engine keeps the default
    sort-based shuffle: exact grouped aggregates sort their per-batch
    partials (``stages.combine.combine_agg``, no Ray
    ``groupby().aggregate()``), and LSH buckets co-locate via an explicit
    coarse partition column + groupby().map_groups
    (``stages.partition.partition_by``) instead of keyed repartition.
    The hash-shuffle parallelism knobs are still bounded here (Ray's
    default of 200 partitions deadlocks a small cluster) in case a caller
    opts into HASH_SHUFFLE."""
    import os
    try:
        from ray.data.context import DataContext
        if num_cpus is None:
            try:
                import ray
                if ray.is_initialized():
                    num_cpus = int(ray.cluster_resources().get(
                        "CPU", os.cpu_count() or 8))
            except Exception:
                pass
        if num_cpus is None:
            num_cpus = os.cpu_count() or 8
        ctx = DataContext.get_current()
        parallelism = max(2, min(64, int(num_cpus)))
        ctx.default_hash_shuffle_parallelism = parallelism
        ctx.max_hash_shuffle_aggregators = parallelism
        _mute_empty_bundle_schema_warning()
    except Exception:  # pragma: no cover - ray.data unavailable/changed
        pass


class _EmptyBundleSchemaFilter:
    """Drop Ray 2.49's streaming-executor warning for EMPTY-schema bundles.

    ``groupby().aggregate()``'s sort-based shuffle emits zero-row,
    schemaless blocks for empty partitions (more partitions than groups),
    and the executor logs 'Operator produced a RefBundle with a different
    schema ... new schema: .' for each -- an internal cosmetic artifact,
    not a pipeline bug.  Genuine schema mismatches (non-empty new schema)
    still log."""

    def filter(self, record) -> bool:
        msg = record.getMessage()
        return not ("RefBundle with a different schema" in msg
                    and msg.rstrip().endswith("new schema: . This may lead "
                                              "to unexpected behavior."))


def _mute_empty_bundle_schema_warning() -> None:
    import logging
    logger = logging.getLogger(
        "ray.data._internal.execution.streaming_executor_state")
    if not any(isinstance(f, _EmptyBundleSchemaFilter)
               for f in logger.filters):
        logger.addFilter(_EmptyBundleSchemaFilter())


configure_for_cluster()

__all__ = ["DDSketch", "SketchConfig"]
__version__ = "0.1.0"
