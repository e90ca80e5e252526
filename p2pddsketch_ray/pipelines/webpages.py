"""The flagship 100-TB-shaped pipeline over Common-Crawl-style webpages
(BASELINE.json north star): per-document metric quantiles, globally and
per lang.

    read_parquet(webpages, columns pruned)
      -> map_batches: project text_len / html_size (zero-copy Arrow,
         html dropped immediately after -- the binary column dominates
         bytes and must not travel further, SURVEY.md section 7.3)
      -> map_batches(partial DDSketches per (block, lang))
      -> per lang: sort(lang).map_batches(merge + quantile per block)
         global:   tree merge

``fused_sketch_build`` tree-merges its per-lang rows too, with no
sort(lang): a DDSketch merge is a bin-wise sum, so the per-(batch, lang)
rows may meet in any order and any tree shape.

Optionally re-extracts text from html and enforces the per-url
byte-identity invariant inline.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..config import HEADLINE_QUANTILES, PRACTICAL_ALPHA
from ..stages.extract import extract_text_column
from .quantiles import (dds_quantiles_global, dds_quantiles_grouped,
                        sketch_quantile_table)


def project_metrics(batch: pa.Table, verify_extraction: bool = False) -> pa.Table:
    """webpage rows -> (lang, text_len, html_size); drops html/text."""
    text = batch["text"]
    if verify_extraction:
        got = extract_text_column(batch["html"])
        stored = text.combine_chunks() if isinstance(text, pa.ChunkedArray) else text
        if not pc.all(pc.equal(got, stored)).as_py():
            import numpy as np
            eq = np.asarray(pc.equal(got, stored).to_pandas(), dtype=bool)
            bad = batch["url"][int(np.argmin(eq))].as_py()
            raise AssertionError(f"extraction mismatch at url={bad}")
    return pa.table({
        "lang": batch["lang"],
        "text_len": pc.cast(pc.utf8_length(text), pa.int64()),
        "html_size": pc.cast(pc.binary_length(batch["html"]), pa.int64()),
    })


def webpage_metrics_ds(paths, *, verify: bool = False,
                       batch_size: int | None = 8192) -> "ray.data.Dataset":
    ds = ray.data.read_parquet(
        paths, columns=["url", "lang", "html", "text"] if verify
        else ["lang", "html", "text"])
    from functools import partial
    return ds.map_batches(partial(project_metrics, verify_extraction=verify),
                          batch_format="pyarrow", batch_size=batch_size,
                          zero_copy_batch=True)


def fused_sketch_build(paths, quantiles: Sequence[float] = HEADLINE_QUANTILES,
                       *, alpha: float = PRACTICAL_ALPHA,
                       bin_limit: int = 2048, verify: bool = True,
                       num_perm: int = 64, bands: int = 16, k: int = 9,
                       batch_size: int = 512,
                       signature_tier: str = "classic") -> dict:
    """The flagship sketch-build workload as ONE dataset execution -- the
    scaling-bench pipeline (BASELINE.md): per batch of webpages, one map

      1. re-extracts text from html and enforces the per-url
         byte-identity invariant (input_hint contract),
      2. computes the text-analysis metrics (tokens/punct/stopwords/
         quality micro-units),
      3. builds per-(batch, lang) DDSketch partials over text_len,
      4. computes MinHash signatures + LSH band hashes (the heaviest
         per-doc sketch kernel; results are folded to a checksum -- the
         candidate shuffle is measured elsewhere and is O(blocks) light),
      5. accumulates its own cpu-time (time.thread_time) so the caller
         can report work conservation across parallelism levels,

    then a ``tree_merge`` of the tiny per-(batch, lang) rows, no sort:
    ``merge_lang`` merges each lang's sketch rows (``merged_table``) and
    sums their metric counters, first fused into the map (one row per
    lang per block), then in repartition rounds while more than fanin
    blocks remain.  The driver runs ``merge_lang`` once more over the
    <= fanin * n_lang rows left and folds the n_lang merged rows into
    the global answer.  Fusing the phases removes two driver
    planning/barrier rounds vs running them as separate pipelines --
    fixed costs that otherwise dilute the measured scaling ratio.

    Returns {"global": pa.Table, "per_lang": pa.Table, "docs": int,
    "cpu_sec": float, "band_checksum": int}.
    """
    import time as _time

    from ..sketches.minhash import (band_hashes, minhash_signatures,
                                    oph_signatures)
    from ..functions.text import (punct_count, quality_score_from_counts,
                                  stopword_count, token_count)
    from ..stages.sketch_build import (contiguous_groups, group_codes,
                                       merge_sketch_table, merged_table,
                                       partial_columns, quantile_finalizer,
                                       tree_merge)

    if signature_tier not in ("classic", "oph"):
        raise ValueError(f"unknown signature_tier {signature_tier!r}; "
                         "expected 'classic' or 'oph'")
    qs = tuple(quantiles)

    def fused(batch: pa.Table) -> pa.Table:
        t0 = _time.thread_time_ns()
        m = project_metrics(batch, verify_extraction=verify)
        texts = batch["text"].combine_chunks() if isinstance(
            batch["text"], pa.ChunkedArray) else batch["text"]
        toks = token_count(texts)
        punct = punct_count(texts)
        stops = stopword_count(texts)
        q_micro = pc.cast(pc.floor(pc.add(pc.multiply(
            quality_score_from_counts(
                toks.to_numpy(zero_copy_only=False),
                punct.to_numpy(zero_copy_only=False),
                stops.to_numpy(zero_copy_only=False)),
            pa.scalar(1e6)), pa.scalar(0.5))), pa.int64())
        # signature_tier="oph": ONE-pass densified OPH registers in
        # place of the num_perm permutation passes (same band contract)
        sig = (oph_signatures(texts, n_bins=num_perm, k=k)
               if signature_tier == "oph"
               else minhash_signatures(texts, num_perm=num_perm, k=k))
        bh = band_hashes(sig, bands)
        checksum = int(bh.sum(dtype=np.uint64) & np.uint64(0x3FFFFFFF))

        # per-lang partial sketch rows + metric sums (columnar group split)
        ids, group_values = group_codes(m, ["lang"])
        n_lang = len(group_values["lang"])
        tl = m["text_len"].to_numpy(zero_copy_only=False).astype(np.float64)
        stat = np.stack([c.to_numpy(zero_copy_only=False)
                         for c in (toks, punct, stops, q_micro)], axis=1)
        sums = np.zeros((n_lang, stat.shape[1]), dtype=np.int64)
        np.add.at(sums, ids, stat)
        counts = np.bincount(ids, minlength=n_lang)
        cpu_us = np.zeros(n_lang, dtype=np.int64)
        cpu_us[0] = (_time.thread_time_ns() - t0) // 1000
        out = pa.table({**group_values, **partial_columns(
            tl, ids, n_lang, alpha=alpha, bin_limit=bin_limit)})
        for name, col in (("n_docs", counts), ("tokens", sums[:, 0]),
                          ("punct", sums[:, 1]), ("stops", sums[:, 2]),
                          ("q_micro", sums[:, 3]),
                          ("band_checksum",
                           [checksum] + [0] * (n_lang - 1)),
                          ("cpu_us", cpu_us)):
            out = out.append_column(name, pa.array(np.asarray(col),
                                                   type=pa.int64()))
        return out

    _EXTRA = ["n_docs", "tokens", "punct", "stops", "q_micro",
              "band_checksum", "cpu_us"]

    def merge_lang(block: pa.Table) -> pa.Table:
        block, starts = contiguous_groups(block, ["lang"])
        out = merged_table(block, ["lang"])
        for name in _EXTRA:
            sums = (np.add.reduceat(block[name].to_numpy(), starts)
                    if starts.size else [])
            out = out.append_column(name, pa.array(sums, type=pa.int64()))
        return out

    ds = ray.data.read_parquet(
        paths, columns=["url", "lang", "html", "text"] if verify
        else ["lang", "html", "text"])
    merged = merge_lang(tree_merge(
        ds.map_batches(fused, batch_format="pyarrow", batch_size=batch_size,
                       zero_copy_batch=True), merge_lang))

    # driver fold over the n_lang merged rows: global sketch + totals
    glob = sketch_quantile_table(merge_sketch_table(merged), qs)
    per_lang = quantile_finalizer(["lang"], qs)(merged).drop_columns(
        ["bucket_key"]).sort_by([("lang", "ascending"), ("q", "ascending")])
    return {
        "global": glob,
        "per_lang": per_lang,
        "docs": int(pc.sum(merged["n_docs"]).as_py()),
        "cpu_sec": float(pc.sum(merged["cpu_us"]).as_py()) / 1e6,
        # every batch masks its own sum, so only the total mod 2^30 is
        # the same however the rows were cut into batches
        "band_checksum": int(pc.sum(merged["band_checksum"]).as_py())
        & 0x3FFFFFFF,
        "tokens": int(pc.sum(merged["tokens"]).as_py()),
    }


def webpage_quantiles(paths, metric: str = "text_len",
                      quantiles: Sequence[float] = HEADLINE_QUANTILES,
                      by_lang: bool = True, *, alpha: float = PRACTICAL_ALPHA,
                      bin_limit: int = 2048, verify: bool = False):
    """Returns (global pa.Table, per-lang pa.Table or None).

    ONE distributed build pass: per-(block, lang) partial sketches are
    built once and materialized (kilobyte rows); the per-lang answers come
    from the keyed exchange of those rows (``keyed_merge``), each exchanged
    table merged and queried in one ``quantile_finalizer`` call, and the
    global answer from a distributed tree reduce of the same rows
    (identical to an ungrouped build because the exact-sum merge is
    associative over any partitioning of the multiset).  The driver only
    receives the final answer rows, never the partial set."""
    from ..stages.exchange import keyed_merge
    from ..stages.sketch_build import (collect, quantile_finalizer,
                                       tree_merge_sketches)
    from .quantiles import build_partials_ds

    metrics = webpage_metrics_ds(paths, verify=verify)
    partials = build_partials_ds(metrics, metric,
                                 ["lang"] if by_lang else None,
                                 alpha=alpha, bin_limit=bin_limit)
    if by_lang:
        partials = partials.materialize()  # built once, consumed twice

    glob = sketch_quantile_table(tree_merge_sketches(partials), quantiles)

    grouped = None
    if by_lang:
        grouped = collect(keyed_merge(
            partials, ["lang"], quantile_finalizer(["lang"], quantiles))
        ).sort_by([("lang", "ascending"), ("q", "ascending")])
    return glob, grouped
