#!/usr/bin/env python3
"""Closed-loop benchmark of p2pddsketch_ray on a fresh local Ray session.

Run from anywhere; the checkout is the parent of this directory:

    python3 perfbench/run.py --workload dds_global --seed 1 --seconds 20 --trace 0

One driver sends one query at a time (a closed loop with one query in
flight).  A round is every query of the workload, each forced to complete;
rounds repeat for ``--seconds`` and every answer is checked after its
round, outside the timed region.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones (see perfbench/README.md).
The last line of stdout is one JSON object; the line before it carries
the run stamp and a readable report.  Everything else goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "p2pddsketch_ray", "__init__.py")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")
RAY_TMP = os.path.join(ROOT, ".pbr")
# Ray puts its sockets at <temp>/session_<date>_<pid>/sockets/plasma_store
# (the temp dir plus up to 64 bytes), and a Unix socket path may hold at
# most 107 bytes.
RAY_TMP_MAX = 43
SETUP_REPEATS = 3
SCHEMA_HASH_WARNING = "Failed to hash the schemas"

END_TO_END = {"setup_s": "s", "round_s": "s", "rows_per_s": "rows/s",
              "driver_rss_mb": "MB"}
PER_LAYER = {
    "ddsketch.add_batch_s": "s", "ddsketch.merge_s": "s",
    "ddsketch.quantile_s": "s", "ddsketch.bins": "count",
    "ddsketch.generation": "count",
    "sketch_build.build_partials_s": "s", "sketch_build.partial_rows": "count",
    "sketch_build.partial_bytes": "bytes", "sketch_build.merge_table_s": "s",
    "sketch_build.decode_columnar_s": "s", "sketch_build.finalize_s": "s",
    "quantiles.read_s": "s", "quantiles.build_s": "s",
    "quantiles.tree_merge_s": "s", "quantiles.groupby_s": "s",
    "quantiles.collect_s": "s",
    "ray.floor_s": "s", "ray.overhead_share": "ratio", "ray.blocks": "count",
    "ray.schema_hash_warnings": "count", "baseline.inprocess_s": "s",
    "webpages.project_metrics_s": "s", "text.counts_s": "s",
    "minhash.signatures_s": "s", "minhash.band_hashes_s": "s",
    "webpages.kernel_cpu_s": "s",
    "sources.generate_s": "s",
    "relational.pricing_summary_s": "s",
    "relational.events_hourly_window_s": "s",
    "relational.token_stats_by_lang_s": "s",
    "relational.dedup_exact_docs_s": "s",
    "driver.collect_bytes": "bytes", "trace.overhead_s": "s",
    "accuracy.max_rel_err": "ratio",
}
WORKLOAD_NAMES = ("dds_global", "dds_grouped", "webpages_fused",
                  "relational_exact")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("bench", "tiny"), default="bench",
                   help="input size; 'tiny' is for the smoke run")
    p.add_argument("--expect-wrong", action="store_true",
                   help="corrupt one expected answer (smoke run: checks "
                        "that a wrong answer is counted as failed)")
    return p.parse_args(argv)


def nproc() -> int:
    """The count GNU ``nproc`` prints: OMP_NUM_THREADS when set, else the
    CPUs this process may run on, capped by OMP_THREAD_LIMIT."""
    try:
        n = len(os.sched_getaffinity(0))
    except AttributeError:
        n = os.cpu_count() or 1
    for var, pick in (("OMP_NUM_THREADS", lambda v: v),
                      ("OMP_THREAD_LIMIT", lambda v: min(n, v))):
        try:
            v = int(os.environ.get(var, "").split(",")[0])
        except ValueError:
            continue
        if v > 0:
            n = pick(v)
    return n


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def _proc_table() -> dict[int, tuple[int, str]]:
    """pid -> (ppid, command line) for every visible process."""
    out = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
            with open(f"/proc/{d}/cmdline", "rb") as f:
                cmd = f.read().replace(b"\0", b" ").decode(errors="replace")
        except (OSError, IndexError, ValueError):
            continue
        out[int(d)] = (ppid, cmd)
    return out


def _descendants(pid: int) -> set[int]:
    table = _proc_table()
    found, frontier = set(), [pid]
    while frontier:
        parent = frontier.pop()
        for p, (ppid, _) in table.items():
            if ppid == parent and p not in found:
                found.add(p)
                frontier.append(p)
    return found


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _reap(pids: set[int], grace_s: float) -> None:
    """Wait for ``pids`` to end; SIGKILL whatever outlives the grace."""
    deadline = time.monotonic() + grace_s
    while time.monotonic() < deadline:
        pids = {p for p in pids if _alive(p)}
        if not pids:
            return
        time.sleep(0.1)
    for p in pids:
        try:
            os.kill(p, signal.SIGKILL)
        except OSError:
            pass
    deadline = time.monotonic() + 10
    while pids and time.monotonic() < deadline:
        pids = {p for p in pids if _alive(p)}
        time.sleep(0.1)


class RaySession:
    """A fresh local Ray session whose files stay inside the checkout."""

    def __init__(self) -> None:
        self.temp_dir = RAY_TMP if len(RAY_TMP) <= RAY_TMP_MAX else None
        self.session_dir = None
        self.schema_hash_warnings = 0
        self.started = False

    def stop_stale(self) -> None:
        """End the Ray processes a killed earlier run left behind."""
        if self.temp_dir is None:
            return
        me = os.getpid()
        stale = {p for p, (_, cmd) in _proc_table().items()
                 if self.temp_dir in cmd and p != me}
        _reap(stale, 0)
        shutil.rmtree(self.temp_dir, ignore_errors=True)

    def start(self) -> None:
        import ray
        from ray.data import DataContext

        self.stop_stale()
        if self.temp_dir is None:
            print("perfbench: checkout path too long for Ray's sockets; "
                  "Ray keeps its session files in its default place",
                  file=sys.stderr)
        ncpu = nproc()
        self.started = True
        ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
                 log_to_driver=False, logging_level="WARNING",
                 object_store_memory=300 * 1024 * 1024,
                 _temp_dir=self.temp_dir)
        try:
            self.session_dir = \
                ray._private.worker._global_node.get_session_dir_path()
        except Exception:
            self.session_dir = None
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.execution_options.verbose_progress = False
        import p2pddsketch_ray
        p2pddsketch_ray.configure_for_cluster(ncpu)

    def close(self) -> None:
        if not self.started:
            return
        import ray
        children = _descendants(os.getpid())
        ray.shutdown()
        _reap(children, 15)
        self.started = False
        if self.session_dir and os.path.isdir(self.session_dir):
            self.schema_hash_warnings = _count_in_logs(
                os.path.join(self.session_dir, "logs"), SCHEMA_HASH_WARNING)
            if self.temp_dir is not None:
                shutil.rmtree(self.temp_dir, ignore_errors=True)


def _count_in_logs(log_dir: str, needle: str) -> int:
    n = 0
    for dirpath, _, files in os.walk(log_dir):
        for name in files:
            try:
                with open(os.path.join(dirpath, name), errors="replace") as f:
                    n += sum(needle in line for line in f)
            except OSError:
                pass
    return n


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

class Checker:
    """Counts query executions and the ones that failed or were wrong."""

    def __init__(self, wl) -> None:
        self.wl = wl
        self.attempted = 0
        self.failed = 0

    def __call__(self, answers) -> None:
        for name, ans in answers:
            self.attempted += 1
            if isinstance(ans, Exception):
                problems = [f"{name}: raised {ans!r}"]
            else:
                try:
                    problems = self.wl.check(name, ans)
                except Exception as e:
                    problems = [f"{name}: check raised {e!r}"]
            if problems:
                self.failed += 1
                for p in problems[:5]:
                    print(f"perfbench: WRONG {p}", file=sys.stderr)


def one_round(wl, tr=None):
    """Every query of the workload, one at a time; returns the answers
    (or the exception a query raised) and the round's wall time."""
    from spans import span
    answers = []
    if tr is not None:
        wl.counts["driver.collect_bytes"] = 0   # counted per round
    t0 = time.perf_counter()
    with span(tr, "round"):
        for name in wl.queries:
            try:
                answers.append((name, wl.run_query(name, tr)))
            except Exception as e:
                traceback.print_exc()
                answers.append((name, e))
    return answers, time.perf_counter() - t0


def rounds_for(wl, check, budget_s: float, min_rounds: int, tr=None):
    """Closed loop: rounds until the next one would overrun the budget."""
    times = []
    start = time.perf_counter()
    while True:
        answers, dt = one_round(wl, tr)
        check(answers)
        times.append(dt)
        if (len(times) >= min_rounds
                and time.perf_counter() - start + dt > budget_s):
            return times


def _noop(batch):
    return batch


def ray_floor(wl, tr=None):
    """Read plus a no-op map_batches over the columns each query reads,
    summed over the round's queries (each distinct input read once)."""
    import ray.data
    per_input = {}
    total, blocks = 0.0, 0
    for name in wl.queries:
        path, cols = wl.inputs[name]
        key = (path, tuple(cols))
        if key not in per_input:
            t0 = time.perf_counter()
            ds = ray.data.read_parquet(path, columns=cols).map_batches(
                _noop, batch_format="pyarrow", zero_copy_batch=True
            ).materialize()
            per_input[key] = (time.perf_counter() - t0, ds.num_blocks())
            if tr is not None:
                tr.record_stats(f"floor:{os.path.basename(path)}", ds)
        total += per_input[key][0]
        blocks += per_input[key][1]
    return total, blocks


def stamp(args) -> dict:
    import numpy
    import pyarrow
    import ray
    sha = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=20).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    return {"workload": args.workload, "seed": args.seed, "size": args.size,
            "trace": args.trace, "seconds": args.seconds,
            "nproc": nproc(), "loadavg": list(os.getloadavg()),
            "git_sha": sha, "ray": ray.__version__,
            "pyarrow": pyarrow.__version__, "numpy": numpy.__version__,
            "python": platform.python_version()}


def measure(args, session: RaySession, work_dir: str):
    """Set up, run the closed loop, and return the raw measurements."""
    t_start = time.perf_counter()
    session.start()
    import workloads
    from spans import Tracer
    ray_start_s = time.perf_counter() - t_start

    shutil.rmtree(WORK, ignore_errors=True)  # inputs of a killed earlier run
    os.makedirs(WORK)
    wl = workloads.WORKLOADS[args.workload](work_dir, args.seed, args.size)
    raw = {"wl": wl}
    gen_s, sources_s = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work_dir, ignore_errors=True)
        t0 = time.perf_counter()
        sources_s.append(wl.generate())
        gen_s.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    wl.prepare()
    prepare_s = time.perf_counter() - t0
    if args.expect_wrong:
        wl.corrupt_expected()
    check = Checker(wl)
    answers, warm_s = one_round(wl)
    check(answers)
    raw.update(check=check, setup_s=ray_start_s + statistics.median(gen_s)
               + prepare_s + warm_s,
               sources_s=statistics.median(sources_s),
               setup_parts={"ray_start_s": ray_start_s, "generate_s": gen_s,
                            "prepare_s": prepare_s, "warmup_s": warm_s})

    s = args.seconds
    if not args.trace:
        raw["rounds"] = rounds_for(wl, check, s, 3)
        return raw
    tr = Tracer()
    raw["tracer"] = tr
    raw["rounds"] = rounds_for(wl, check, 0.3 * s, 2)
    raw["traced"] = rounds_for(wl, check, 0.3 * s, 2, tr)
    replays, start = [], time.perf_counter()
    while not replays or (len(replays) < 3
                          and time.perf_counter() - start < 0.2 * s):
        with tr.span("replay"):
            answers = wl.replay(tr)
        check(answers)
        replays.append(answers)
    floors = [ray_floor(wl, tr if i == 0 else None) for i in range(2)]
    raw["floor_s"] = statistics.median(f for f, _ in floors)
    raw["blocks"] = floors[0][1]
    return raw


def per_layer(raw, session: RaySession) -> dict:
    tr, wl = raw["tracer"], raw["wl"]

    def medians(root: str) -> dict:
        per = [tr.totals({rid}) for rid in tr.roots(root)]
        names = {n for d in per for n in d}
        return {n: statistics.median(d.get(n, 0.0) for d in per)
                for n in names}

    spans = {**medians("round"), **medians("replay")}
    round_s = statistics.median(raw["rounds"])
    baseline = spans.get("replay.job", 0.0)
    # a time is its span's total unless the workload counted it itself
    out = {name: wl.counts.get(name, spans.get(name[:-2], 0.0)
                               if name.endswith("_s") else 0)
           for name in PER_LAYER}
    out.update({
        "baseline.inprocess_s": baseline,
        "ray.floor_s": raw["floor_s"],
        "ray.overhead_share": 1 - baseline / round_s if baseline else 0.0,
        "ray.blocks": raw["blocks"],
        "ray.schema_hash_warnings": session.schema_hash_warnings,
        "sources.generate_s": raw["sources_s"],
        "trace.overhead_s": (statistics.median(raw["traced"])
                             - statistics.median(raw["rounds"])),
        "accuracy.max_rel_err": wl.max_rel_err,
    })
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(PACKAGE):
        print(f"perfbench: no p2pddsketch_ray package under {ROOT}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    # Ray's workers import the program by name, whatever directory the
    # benchmark was started from
    os.chdir(ROOT)
    sys.path.insert(1, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                  if p])
    for k, v in (("RAY_USAGE_STATS_ENABLED", "0"),
                 ("RAY_DATA_DISABLE_PROGRESS_BARS", "1"),
                 ("RAY_DISABLE_IMPORT_WARNING", "1")):
        os.environ.setdefault(k, v)
    # stdout carries the result only: everything else, Ray's output
    # included, goes to stderr
    result_out = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    logging.getLogger("ray.data").setLevel(logging.WARNING)

    # a terminated run still shuts Ray down and removes its inputs
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    session = RaySession()
    work_dir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    raw = None
    try:
        raw = measure(args, session, work_dir)
    except Exception:
        traceback.print_exc()
    finally:
        try:
            session.close()
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
            try:
                os.rmdir(WORK)
            except OSError:
                pass
    if raw is None:
        return 1

    wl, check = raw["wl"], raw["check"]
    round_s = statistics.median(raw["rounds"])
    e2e = {"setup_s": raw["setup_s"], "round_s": round_s,
           "rows_per_s": wl.rows_per_round / round_s,
           "driver_rss_mb":
               resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    metrics = per_layer(raw, session) if args.trace else e2e
    info = stamp(args)
    report = {
        **{k: [v, END_TO_END[k]] for k, v in e2e.items()},
        "max_rel_err": [wl.max_rel_err, "ratio"],
        "error_rate": [check.failed / max(check.attempted, 1), "ratio"],
        "rounds": len(raw["rounds"]), "round_times_s": raw["rounds"],
        "rows_per_round": wl.rows_per_round,
        "setup_parts": raw["setup_parts"],
    }
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        raw["tracer"].write(path, {"stamp": info, "report": report,
                                   "per_layer": metrics})
        report["trace_file"] = os.path.relpath(path, ROOT)
    units = PER_LAYER if args.trace else END_TO_END
    result = {"correct": check.failed == 0 and check.attempted > 0,
              "attempted": check.attempted, "failed": check.failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    result_out.write(json.dumps({"stamp": info, "report": report}) + "\n")
    result_out.write(json.dumps(result) + "\n")
    result_out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
