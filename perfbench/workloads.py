"""The benchmark's four workloads.

Each workload makes its inputs from the seed, knows the exact answer of
every query it sends, runs one closed-loop round (every query, one at a
time, each forced to complete), a staged round with spans around each
public stage call, and an in-process replay of the same job without Ray.
The program is only reached through the public functions of
``p2pddsketch_ray.sketches``, ``stages``, ``pipelines``, ``sources`` and
``functions``.
"""

from __future__ import annotations

import inspect
import math
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data

from p2pddsketch_ray.config import (DEFAULT_ALPHA, DEFAULT_BIN_LIMIT,
                                    DEFAULT_QUANTILES)
from p2pddsketch_ray.sketches.ddsketch import DDSketch
from p2pddsketch_ray.stages.sketch_build import (build_partials,
                                                 merge_sketch_table,
                                                 quantile_finalizer,
                                                 sketches_from_table)

from spans import span

QS = DEFAULT_QUANTILES            # the reference's 11-quantile list
BATCH = 65536                     # build_partials_ds's batch size
REL_TOL = 1e-9                    # float slack on the alpha comparison


def exact_quantiles(sorted_values: np.ndarray, qs) -> list[float]:
    """Order statistic at floor(1 + q(n-1)) - 1 of the sorted values: the
    reference's nth_element convention (FIXTURES.md F3)."""
    n = sorted_values.shape[0]
    return [float(sorted_values[int(math.floor(1 + q * (n - 1))) - 1])
            for q in qs]


def rel_err(est: float, exact: float) -> float:
    return abs(est - exact) / abs(exact) if exact else abs(est)


def collect(ds: "ray.data.Dataset") -> pa.Table:
    """Materialize a dataset and pull its blocks to the driver."""
    tables = [t for t in ray.get(ds.materialize().to_arrow_refs())
              if t.num_rows]
    return pa.concat_tables(tables)


def split_by_keys(table: pa.Table, keys) -> list[pa.Table]:
    """Rows of ``table`` grouped by ``keys`` (in-process shuffle)."""
    table = table.sort_by([(k, "ascending") for k in keys])
    cols = [table[k].to_pylist() for k in keys]
    tuples = list(zip(*cols))
    bounds = [0] + [i for i in range(1, len(tuples))
                    if tuples[i] != tuples[i - 1]] + [len(tuples)]
    return [table.slice(a, b - a) for a, b in zip(bounds, bounds[1:])]


def lineitem_like(n: int, seed: int) -> dict:
    """Columns shaped like TPC-H lineitem: a skewed 3-value return flag,
    a 2-value line status (4 flag/status pairs), 1000 supplier keys and
    extendedprice = quantity x a 900..2100 retail price."""
    rng = np.random.default_rng(seed)
    flag = np.array(["A", "N", "R"])[
        rng.choice(3, n, p=[0.25, 0.5, 0.25])]
    status = np.where((flag == "N") & (rng.random(n) < 0.96), "O", "F")
    qty = rng.integers(1, 51, n).astype(np.float64)
    return {
        "l_orderkey": rng.integers(1, 4 * n + 2, n),
        "l_suppkey": rng.integers(1, 1001, n),
        "l_quantity": qty,
        "l_extendedprice": np.round(qty * rng.uniform(900, 2100, n), 2),
        "l_discount": rng.integers(0, 11, n) / 100.0,
        "l_tax": rng.integers(0, 9, n) / 100.0,
        "l_returnflag": flag,
        "l_linestatus": status,
        "l_shipdate": (np.datetime64("1992-01-02", "us")
                       + rng.integers(0, 2500, n) * 86_400_000_000),
    }


def write_pandas_parquet(columns: dict, path: str) -> None:
    """Write through pandas, as the sf* test tables (FIXTURES.md F4) were,
    so the files carry the same pandas schema metadata."""
    import pandas as pd
    pq.write_table(pa.Table.from_pandas(pd.DataFrame(columns),
                                        preserve_index=False), path)


class Workload:
    """One named workload.  ``queries`` names the queries of a round;
    ``inputs`` maps each query to the (path, columns) it reads."""

    name = ""
    SIZES: dict = {}

    def __init__(self, work_dir: str, seed: int, size: str) -> None:
        self.dir = work_dir
        self.seed = seed
        self.size = self.SIZES[size]
        self.max_rel_err = 0.0
        self.queries: list[str] = []
        self.inputs: dict[str, tuple[str, list[str]]] = {}
        self.rows_per_round = 0
        self.counts: dict[str, float] = {}

    def generate(self) -> float:
        """Write the inputs; return the seconds spent in ``sources``."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Compute the exact answers (once, after generation)."""
        raise NotImplementedError

    def run_query(self, name: str, tr=None):
        raise NotImplementedError

    def check(self, name: str, answer) -> list[str]:
        raise NotImplementedError

    def replay(self, tr) -> list[tuple[str, object]]:
        """The same job in this process, without Ray; each query's job is
        one ``replay.job`` span.  Empty when no replay exists."""
        return []

    def corrupt_expected(self) -> None:
        """Make one expected answer wrong (for the smoke run's check that
        a wrong answer is counted)."""
        raise NotImplementedError

    def _check_quantiles(self, label, qs, ests, exact, alpha) -> list[str]:
        problems = []
        if len(ests) != len(qs):
            return [f"{label}: {len(ests)} answers for {len(qs)} quantiles"]
        for q, est, ex in zip(qs, ests, exact):
            err = rel_err(est, ex)
            self.max_rel_err = max(self.max_rel_err, err)
            if err > alpha * (1 + REL_TOL):
                problems.append(f"{label} q={q}: est={est!r} exact={ex!r} "
                                f"rel_err={err:.3g} > alpha={alpha:.3g}")
        return problems


# ---------------------------------------------------------------------------
# dds_global: the paper's own job
# ---------------------------------------------------------------------------

class DdsGlobal(Workload):
    """Global DDSketch quantiles over seeded scalar shards (FIXTURES F2)
    plus the sorted, range-partitioned adversarial variant, at the
    practical tier (alpha 0.01, 2048 bins) and the reference tier
    (alpha 0.000161167, 500 bins, which collapses on merge)."""

    name = "dds_global"
    SIZES = {"bench": {"n": 200_000, "parts": 16},
             "tiny": {"n": 4_000, "parts": 4}}
    INPUTS = (("normal", "normal", False), ("exponential", "exponential", False),
              ("uniform", "uniform", False), ("sorted", "normal", True))
    TIERS = ((0.01, 2048), (DEFAULT_ALPHA, DEFAULT_BIN_LIMIT))

    def __init__(self, *a) -> None:
        super().__init__(*a)
        self.specs = {}
        for i, (inp, dist, _) in enumerate(self.INPUTS):
            for alpha, bins in self.TIERS:
                q = f"{inp}@{alpha:g}"
                self.specs[q] = (inp, alpha, bins)
                self.queries.append(q)
                self.inputs[q] = (os.path.join(self.dir, inp), ["value"])
        self.rows_per_round = self.size["n"] * len(self.queries)

    def _seed(self, i: int) -> int:
        return self.seed * 16 + i

    def generate(self) -> float:
        import time
        from p2pddsketch_ray.sources.scalars import write_scalar_shards
        t0 = time.perf_counter()
        for i, (inp, dist, sort_first) in enumerate(self.INPUTS):
            write_scalar_shards(os.path.join(self.dir, inp), dist,
                                self.size["n"], self.size["parts"],
                                self._seed(i), sort_first=sort_first)
        return time.perf_counter() - t0

    def prepare(self) -> None:
        from p2pddsketch_ray.sources.scalars import generate_scalars
        self.exact = {}
        for i, (inp, dist, _) in enumerate(self.INPUTS):
            v = np.sort(generate_scalars(dist, self.size["n"], self._seed(i)))
            self.exact[inp] = exact_quantiles(v, QS)

    def corrupt_expected(self) -> None:
        inp = self.INPUTS[0][0]
        self.exact[inp][0] = self.exact[inp][0] * 2 + 1

    @staticmethod
    def _answer(sketch: DDSketch) -> dict:
        return {"ests": sketch.quantiles(QS), "alpha": sketch.alpha,
                "sum_bins": sketch.sum_bins(), "n": sketch.n,
                "bytes": len(sketch.to_bytes())}

    def run_query(self, name: str, tr=None):
        from p2pddsketch_ray.pipelines.quantiles import (build_partials_ds,
                                                         dds_sketch_global)
        from p2pddsketch_ray.stages.sketch_build import tree_merge_sketches
        inp, alpha, bins = self.specs[name]
        path, cols = self.inputs[name]
        if tr is None:
            sketch = dds_sketch_global(ray.data.read_parquet(path, columns=cols),
                                       "value", alpha=alpha, bin_limit=bins)
            return self._answer(sketch)
        with tr.span("quantiles.read"):
            ds = ray.data.read_parquet(path, columns=cols).materialize()
        tr.record_stats(f"{name}:read", ds)
        with tr.span("quantiles.build"):
            partials = build_partials_ds(ds, "value", alpha=alpha,
                                         bin_limit=bins).materialize()
        tr.record_stats(f"{name}:build_partials", partials)
        with tr.span("quantiles.tree_merge"):
            sketch = tree_merge_sketches(partials)
        with tr.span("quantiles.collect"):
            ans = self._answer(sketch)
        self.counts["driver.collect_bytes"] = (
            self.counts.get("driver.collect_bytes", 0) + ans["bytes"])
        return ans

    def check(self, name: str, ans) -> list[str]:
        inp = self.specs[name][0]
        n = self.size["n"]
        problems = []
        if ans["n"] != n or ans["sum_bins"] != n:
            problems.append(f"{name}: n={ans['n']} sum(bins)="
                            f"{ans['sum_bins']} != {n}")
        return problems + self._check_quantiles(
            name, QS, ans["ests"], self.exact[inp], ans["alpha"])

    def replay(self, tr) -> list[tuple[str, object]]:
        out = []
        bins_total, generation = 0, 0
        rows, nbytes = 0, 0
        for name in self.queries:
            inp, alpha, bins = self.specs[name]
            path, cols = self.inputs[name]
            with tr.span("replay.job"):
                with tr.span("replay.read"):
                    table = pq.read_table(path, columns=cols)
                with tr.span("sketch_build.build_partials"):
                    partials = pa.concat_tables(
                        build_partials(table.slice(o, BATCH),
                                       value_col="value", alpha=alpha,
                                       bin_limit=bins)
                        for o in range(0, table.num_rows, BATCH))
                with tr.span("sketch_build.merge_table"):
                    sketch = merge_sketch_table(partials)
                with tr.span("ddsketch.quantile"):
                    out.append((name, self._answer(sketch)))
            rows += partials.num_rows
            nbytes += partials.nbytes
            with tr.span("sketch_build.decode_columnar"):
                sketches_from_table(partials)
            with tr.span("sketch_build.finalize"):
                quantile_finalizer(None, QS)(partials)
            # the kernel alone, on the same batches
            values = table["value"].to_numpy()
            parts = []
            for o in range(0, values.shape[0], BATCH):
                s = DDSketch(alpha, bins)
                with tr.span("ddsketch.add_batch"):
                    s.add_batch(values[o:o + BATCH])
                parts.append(s)
            with tr.span("ddsketch.merge"):
                acc = parts[0]
                for s in parts[1:]:
                    acc.merge(s)
            bins_total += acc.size
            generation = max(generation, acc.generation)
        self.counts.update({"ddsketch.bins": bins_total,
                            "ddsketch.generation": generation,
                            "sketch_build.partial_rows": rows,
                            "sketch_build.partial_bytes": nbytes})
        return out


# ---------------------------------------------------------------------------
# dds_grouped: the same sketch layer, merge-heavy
# ---------------------------------------------------------------------------

class DdsGrouped(Workload):
    """Grouped DDSketch quantiles of extendedprice over a seeded
    lineitem-shaped table, by a skewed 3-value string key, a 2-column
    string key and a 1000-value int key."""

    name = "dds_grouped"
    SIZES = {"bench": {"n": 100_000, "parts": 4},
             "tiny": {"n": 6_000, "parts": 2}}
    KEYS = {"by_flag": ("l_returnflag",),
            "by_flag_status": ("l_returnflag", "l_linestatus"),
            "by_suppkey": ("l_suppkey",)}
    VALUE = "l_extendedprice"
    ALPHA, BIN_LIMIT = 0.01, 2048

    def __init__(self, *a) -> None:
        super().__init__(*a)
        self.path = os.path.join(self.dir, "lineitem")
        for q, keys in self.KEYS.items():
            self.queries.append(q)
            self.inputs[q] = (self.path, list(keys) + [self.VALUE])
        self.rows_per_round = self.size["n"] * len(self.queries)

    def generate(self) -> float:
        cols = lineitem_like(self.size["n"], self.seed)
        os.makedirs(self.path, exist_ok=True)
        n, parts = self.size["n"], self.size["parts"]
        for i in range(parts):
            lo, hi = i * n // parts, (i + 1) * n // parts
            write_pandas_parquet({k: v[lo:hi] for k, v in cols.items()},
                                 os.path.join(self.path, f"part-{i}.parquet"))
        self.cols = cols
        return 0.0

    def prepare(self) -> None:
        values = self.cols[self.VALUE]
        self.expected = {}
        for q, keys in self.KEYS.items():
            key_cols = [self.cols[k] for k in keys]
            order = np.lexsort([values] + key_cols[::-1])
            groups: dict[tuple, tuple[list[float], float]] = {}
            sorted_keys = list(zip(*[c[order].tolist() for c in key_cols]))
            bounds = [0] + [i for i in range(1, len(order))
                            if sorted_keys[i] != sorted_keys[i - 1]] \
                + [len(order)]
            for a, b in zip(bounds, bounds[1:]):
                v = values[order[a:b]]
                ref = DDSketch(self.ALPHA, self.BIN_LIMIT)
                ref.add_batch(v)
                groups[sorted_keys[a]] = (exact_quantiles(v, QS), ref.alpha)
            self.expected[q] = groups

    def corrupt_expected(self) -> None:
        groups = self.expected["by_flag"]
        key = next(iter(groups))
        exact, alpha = groups[key]
        groups[key] = ([exact[0] * 2 + 1] + exact[1:], alpha)

    def run_query(self, name: str, tr=None):
        from p2pddsketch_ray.pipelines.quantiles import (build_partials_ds,
                                                         dds_quantiles_grouped)
        keys = list(self.KEYS[name])
        path, cols = self.inputs[name]
        kw = {"alpha": self.ALPHA, "bin_limit": self.BIN_LIMIT}
        if tr is None:
            return collect(dds_quantiles_grouped(
                ray.data.read_parquet(path, columns=cols), self.VALUE, keys,
                QS, **kw))
        with tr.span("quantiles.read"):
            ds = ray.data.read_parquet(path, columns=cols).materialize()
        tr.record_stats(f"{name}:read", ds)
        with tr.span("quantiles.build"):
            partials = build_partials_ds(ds, self.VALUE, keys,
                                         **kw).materialize()
        tr.record_stats(f"{name}:build_partials", partials)
        with tr.span("quantiles.groupby"):
            grouped = partials.groupby(keys).map_groups(
                quantile_finalizer(keys, QS),
                batch_format="pyarrow").materialize()
        tr.record_stats(f"{name}:groupby_finalize", grouped)
        with tr.span("quantiles.collect"):
            table = collect(grouped)
        self.counts["driver.collect_bytes"] = (
            self.counts.get("driver.collect_bytes", 0) + table.nbytes)
        return table

    def check(self, name: str, table) -> list[str]:
        keys = self.KEYS[name]
        groups = self.expected[name]
        if table.num_rows != len(groups) * len(QS):
            return [f"{name}: {table.num_rows} rows, expected "
                    f"{len(groups)} groups x {len(QS)} quantiles"]
        got: dict[tuple, dict[float, float]] = {}
        cols = [table[k].to_pylist() for k in keys]
        for key, q, est in zip(zip(*cols), table["q"].to_pylist(),
                               table["est"].to_pylist()):
            got.setdefault(key, {})[q] = est
        if set(got) != set(groups):
            return [f"{name}: groups differ from the input's"]
        problems = []
        for key, (exact, alpha) in groups.items():
            ests = [got[key].get(q, math.nan) for q in QS]
            problems += self._check_quantiles(f"{name}{key}", QS, ests,
                                              exact, alpha)
        return problems

    def replay(self, tr) -> list[tuple[str, object]]:
        out = []
        rows, nbytes = 0, 0
        for name in self.queries:
            keys = list(self.KEYS[name])
            path, cols = self.inputs[name]
            with tr.span("replay.job"):
                with tr.span("replay.read"):
                    table = pq.read_table(path, columns=cols)
                with tr.span("sketch_build.build_partials"):
                    partials = pa.concat_tables(
                        build_partials(table.slice(o, BATCH),
                                       value_col=self.VALUE, group_cols=keys,
                                       alpha=self.ALPHA,
                                       bin_limit=self.BIN_LIMIT)
                        for o in range(0, table.num_rows, BATCH))
                with tr.span("replay.shuffle"):
                    groups = split_by_keys(partials, keys)
                with tr.span("sketch_build.finalize"):
                    fin = quantile_finalizer(keys, QS)
                    out.append((name, pa.concat_tables(fin(g)
                                                       for g in groups)))
            rows += partials.num_rows
            nbytes += partials.nbytes
            with tr.span("sketch_build.merge_table"):
                for g in groups:
                    merge_sketch_table(g)
            with tr.span("sketch_build.decode_columnar"):
                sketches_from_table(partials)
        self._replay_kernel(tr)
        self.counts.update({"sketch_build.partial_rows": rows,
                            "sketch_build.partial_bytes": nbytes})
        return out

    def _replay_kernel(self, tr) -> None:
        """The DDSketch kernel alone on the 1000-group key: one sketch per
        (batch, group), merged per group, then queried."""
        values = self.cols[self.VALUE]
        key = self.cols["l_suppkey"]
        per_group: dict[int, list[DDSketch]] = {}
        for o in range(0, values.shape[0], BATCH):
            v, k = values[o:o + BATCH], key[o:o + BATCH]
            order = np.argsort(k, kind="stable")
            uniq, starts = np.unique(k[order], return_index=True)
            ends = list(starts[1:]) + [order.shape[0]]
            for g, a, b in zip(uniq.tolist(), starts, ends):
                s = DDSketch(self.ALPHA, self.BIN_LIMIT)
                with tr.span("ddsketch.add_batch"):
                    s.add_batch(v[order[a:b]])
                per_group.setdefault(g, []).append(s)
        bins, generation = 0, 0
        for parts in per_group.values():
            with tr.span("ddsketch.merge"):
                acc = parts[0]
                for s in parts[1:]:
                    acc.merge(s)
            with tr.span("ddsketch.quantile"):
                acc.quantiles(QS)
            bins += acc.size
            generation = max(generation, acc.generation)
        self.counts.update({"ddsketch.bins": bins,
                            "ddsketch.generation": generation})


# ---------------------------------------------------------------------------
# webpages_fused: the north-star pipeline, bound by its kernels
# ---------------------------------------------------------------------------

class WebpagesFused(Workload):
    """``pipelines.webpages.fused_sketch_build`` over seeded
    ``sources.webpages`` documents, verify on, default signature tier."""

    name = "webpages_fused"
    SIZES = {"bench": {"n": 2_000, "parts": 4},
             "tiny": {"n": 120, "parts": 2}}
    COLS = ["url", "lang", "html", "text"]

    def __init__(self, *a) -> None:
        super().__init__(*a)
        from p2pddsketch_ray.pipelines.webpages import fused_sketch_build
        params = inspect.signature(fused_sketch_build).parameters
        self.kw = {k: params[k].default for k in
                   ("quantiles", "alpha", "bin_limit", "verify", "num_perm",
                    "bands", "k", "batch_size", "signature_tier")}
        self.qs = tuple(self.kw["quantiles"])
        self.path = os.path.join(self.dir, "webpages")
        self.queries = ["fused_sketch_build"]
        self.inputs = {"fused_sketch_build": (self.path, self.COLS)}
        self.rows_per_round = self.size["n"]
        self.checksum = None

    def generate(self) -> float:
        import time
        from p2pddsketch_ray.sources.webpages import make_rows
        os.makedirs(self.path, exist_ok=True)
        n, parts = self.size["n"], self.size["parts"]
        spent = 0.0
        for i in range(parts):
            t0 = time.perf_counter()
            rows = make_rows(np.arange(i * n // parts, (i + 1) * n // parts),
                             self.seed)
            spent += time.perf_counter() - t0
            pq.write_table(rows, os.path.join(self.path, f"part-{i}.parquet"))
        return spent

    def prepare(self) -> None:
        from p2pddsketch_ray.functions.text import token_count
        t = pq.read_table(self.path, columns=["lang", "text"])
        text_len = pc.utf8_length(t["text"]).to_numpy().astype(np.float64)
        ref = DDSketch(self.kw["alpha"], self.kw["bin_limit"])
        ref.add_batch(text_len)
        self.alpha = ref.alpha
        self.exact_global = exact_quantiles(np.sort(text_len), self.qs)
        langs = np.asarray(t["lang"].to_pylist())
        self.exact_lang = {
            lang: exact_quantiles(np.sort(text_len[langs == lang]), self.qs)
            for lang in np.unique(langs).tolist()}
        self.tokens = int(pc.sum(token_count(
            t["text"].combine_chunks())).as_py())

    def corrupt_expected(self) -> None:
        self.tokens += 1

    def run_query(self, name: str, tr=None):
        from p2pddsketch_ray.pipelines.webpages import fused_sketch_build
        with span(tr, "webpages.fused_sketch_build"):
            res = fused_sketch_build(self.path)
        self.counts["webpages.kernel_cpu_s"] = res["cpu_sec"]
        if tr is not None:
            self.counts["driver.collect_bytes"] = (
                res["global"].nbytes + res["per_lang"].nbytes)
        return res

    def check(self, name: str, res) -> list[str]:
        problems = []
        if res["docs"] != self.size["n"]:
            problems.append(f"docs={res['docs']} != {self.size['n']}")
        if res["tokens"] != self.tokens:
            problems.append(f"tokens={res['tokens']} != {self.tokens}")
        if "band_checksum" in res:
            if self.checksum is None:
                self.checksum = res["band_checksum"]
            elif res["band_checksum"] != self.checksum:
                problems.append(f"band_checksum {res['band_checksum']} != "
                                f"first round's {self.checksum}")
        problems += self._check_quantiles(
            "global", self.qs, res["global"]["est"].to_pylist(),
            self.exact_global, self.alpha)
        per = res["per_lang"]
        if sorted(set(per["lang"].to_pylist())) != sorted(self.exact_lang):
            return problems + ["per_lang: languages differ from the input's"]
        for lang, exact in self.exact_lang.items():
            ests = per.filter(pc.equal(per["lang"], lang)) \
                .sort_by("q")["est"].to_pylist()
            problems += self._check_quantiles(f"lang={lang}", self.qs, ests,
                                              exact, self.alpha)
        return problems

    def replay(self, tr) -> list[tuple[str, object]]:
        from p2pddsketch_ray.functions.text import (punct_count,
                                                    quality_score_from_counts,
                                                    stopword_count,
                                                    token_count)
        from p2pddsketch_ray.pipelines.webpages import project_metrics
        from p2pddsketch_ray.sketches.minhash import (band_hashes,
                                                      minhash_signatures,
                                                      oph_signatures)
        kw = self.kw
        with tr.span("replay.job"):
            with tr.span("replay.read"):
                table = pq.read_table(self.path, columns=self.COLS)
            per_lang: dict[str, list[DDSketch]] = {}
            tokens = 0
            for o in range(0, table.num_rows, kw["batch_size"]):
                batch = table.slice(o, kw["batch_size"])
                with tr.span("webpages.project_metrics"):
                    m = project_metrics(batch,
                                        verify_extraction=kw["verify"])
                texts = batch["text"].combine_chunks()
                with tr.span("text.counts"):
                    toks = token_count(texts)
                    quality_score_from_counts(
                        toks.to_numpy(zero_copy_only=False),
                        punct_count(texts).to_numpy(zero_copy_only=False),
                        stopword_count(texts).to_numpy(zero_copy_only=False))
                tokens += int(pc.sum(toks).as_py())
                with tr.span("minhash.signatures"):
                    sig = (oph_signatures(texts, n_bins=kw["num_perm"],
                                          k=kw["k"])
                           if kw["signature_tier"] == "oph" else
                           minhash_signatures(texts, num_perm=kw["num_perm"],
                                              k=kw["k"]))
                with tr.span("minhash.band_hashes"):
                    band_hashes(sig, kw["bands"])
                lang = np.asarray(m["lang"].to_pylist())
                tl = m["text_len"].to_numpy().astype(np.float64)
                for g in np.unique(lang).tolist():
                    s = DDSketch(kw["alpha"], kw["bin_limit"])
                    with tr.span("ddsketch.add_batch"):
                        s.add_batch(tl[lang == g])
                    per_lang.setdefault(g, []).append(s)
            merged = {}
            with tr.span("ddsketch.merge"):
                for g, parts in per_lang.items():
                    acc = parts[0]
                    for s in parts[1:]:
                        acc.merge(s)
                    merged[g] = acc
                glob = DDSketch(kw["alpha"], kw["bin_limit"])
                for acc in merged.values():
                    glob.merge(acc)
            with tr.span("ddsketch.quantile"):
                langs = sorted(merged)
                answer = {
                    "docs": table.num_rows, "tokens": tokens,
                    "global": pa.table({"est": glob.quantiles(self.qs)}),
                    "per_lang": pa.table({
                        "lang": [g for g in langs for _ in self.qs],
                        "q": [q for _ in langs for q in self.qs],
                        "est": [e for g in langs
                                for e in merged[g].quantiles(self.qs)]})}
        self.counts.update({
            "ddsketch.bins": sum(s.size for s in merged.values()),
            "ddsketch.generation": max(s.generation for s in merged.values())})
        return [("fused_sketch_build", answer)]


# ---------------------------------------------------------------------------
# relational_exact: the exact pipelines against their DuckDB twins
# ---------------------------------------------------------------------------

_VOCAB = ("data query index rank score model table stream window batch "
          "merge sketch shard block hash value group spark scan filter "
          "Join Sort Agg Page Crawl 2024 42 v2").split()
_STOPS = ("the", "and", "of", "a", "to", "in", "is", "it", "that", "for")
_PUNCT = (".", ",", ";", ":", "!", "?")


class RelationalExact(Workload):
    """``pricing_summary``, ``events_hourly_window``,
    ``token_stats_by_lang`` and ``dedup_exact_docs`` over seeded tables
    shaped like the lineitem / events / documents test tables, checked
    against their DuckDB twins in ``__ray_entry__.oracle_sql()``."""

    name = "relational_exact"
    SIZES = {"bench": {"lineitem": 100_000, "events": 40_000,
                       "documents": 3_000},
             "tiny": {"lineitem": 3_000, "events": 2_000, "documents": 200}}
    QUERIES = {"pricing_summary": ("lineitem", ["l_returnflag", "l_linestatus",
                                                "l_quantity", "l_extendedprice",
                                                "l_discount"]),
               "events_hourly_window": ("events", ["event_type", "ts",
                                                   "value"]),
               "token_stats_by_lang": ("documents", ["lang", "text"]),
               "dedup_exact_docs": ("documents", ["doc_id", "text"])}

    def __init__(self, *a) -> None:
        super().__init__(*a)
        self.queries = list(self.QUERIES)
        self.inputs = {q: (os.path.join(self.dir, f"{t}.parquet"), cols)
                       for q, (t, cols) in self.QUERIES.items()}
        self.rows_per_round = sum(self.size[t]
                                  for t, _ in self.QUERIES.values())

    def generate(self) -> float:
        rng = np.random.default_rng(self.seed)
        os.makedirs(self.dir, exist_ok=True)
        write_pandas_parquet(lineitem_like(self.size["lineitem"], self.seed),
                             os.path.join(self.dir, "lineitem.parquet"))
        n = self.size["events"]
        write_pandas_parquet({
            "event_id": np.arange(n),
            "ts": np.sort(np.datetime64("2024-01-01", "us")
                          + rng.integers(0, 14 * 86_400_000_000, n)),
            "user_id": rng.integers(0, 5_000, n),
            "event_type": np.array(["view", "click", "purchase", "error",
                                    "signup"])[rng.choice(
                                        5, n, p=[0.5, 0.3, 0.1, 0.05, 0.05])],
            "value": np.round(rng.exponential(80.0, n), 2),
            "props": [f'{{"k": {k}}}' for k in rng.integers(0, 100, n)],
        }, os.path.join(self.dir, "events.parquet"))
        n = self.size["documents"]
        words = np.array(_VOCAB + list(_STOPS) * 2)
        texts: list[str] = []
        for i in range(n):
            if i >= 10 and rng.random() < 0.05:      # exact duplicate
                texts.append(texts[int(rng.integers(0, i))])
                continue
            w = words[rng.integers(0, len(words), int(rng.integers(3, 80)))]
            parts = [f"{x}{_PUNCT[j % 6]}" if j % 7 == 3 else str(x)
                     for j, x in enumerate(w.tolist())]
            texts.append(" ".join(parts))
        write_pandas_parquet({
            "doc_id": np.arange(n),
            "text": texts,
            "lang": np.array(["en", "de", "fr", "es", "zh"])[
                rng.choice(5, n, p=[0.6, 0.1, 0.1, 0.1, 0.1])],
            "source": [f"src{i % 5}" for i in range(n)],
            "n_chars": [len(t) for t in texts],
        }, os.path.join(self.dir, "documents.parquet"))
        return 0.0

    def prepare(self) -> None:
        import duckdb
        import __ray_entry__
        sql = __ray_entry__.oracle_sql()
        con = duckdb.connect()
        for t in ("lineitem", "events", "documents"):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                        f"read_parquet('{os.path.join(self.dir, t)}.parquet')")
        self.expected = {q: con.execute(sql[q]).df() for q in self.queries}
        con.close()

    def corrupt_expected(self) -> None:
        df = self.expected["pricing_summary"]
        df.loc[0, "sum_qty"] = df.loc[0, "sum_qty"] + 1

    def _pipeline(self, name: str):
        from p2pddsketch_ray.pipelines import relational as R
        if name == "dedup_exact_docs":
            # the tier the oracle gate pins (md5 is replicable in SQL)
            return R.dedup_exact_docs(self.dir, hash_tier="md5")
        return getattr(R, name)(self.dir)

    def run_query(self, name: str, tr=None):
        if tr is None:
            return self._pipeline(name).to_pandas()
        with tr.span(f"relational.{name}"):
            ds = self._pipeline(name).materialize()
            df = ds.to_pandas()
        tr.record_stats(name, ds)
        self.counts["driver.collect_bytes"] = (
            self.counts.get("driver.collect_bytes", 0) + ds.size_bytes())
        return df

    def check(self, name: str, df) -> list[str]:
        from tools.check_oracle import compare
        return [f"{name}: {p}" for p in compare(name, df,
                                                 self.expected[name])]


WORKLOADS = {w.name: w for w in (DdsGlobal, DdsGrouped, WebpagesFused,
                                 RelationalExact)}
