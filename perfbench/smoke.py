#!/usr/bin/env python3
"""Tiny-size smoke run of the benchmark, launched from outside the checkout.

    python3 perfbench/smoke.py [workload ...]

For every workload (default: all four) it runs ``run.py --size tiny``
with the working directory set to a temporary directory outside the
checkout, and asserts that:

* ``--trace 0`` and ``--trace 1`` runs are correct and emit every metric
  BENCHMARK.json names, each with its unit;
* a run with a deliberately wrong expected answer (``--expect-wrong``)
  counts it: ``failed`` >= 1 and ``correct`` is false;

and, once, that ``run.py`` copied next to BENCHMARK.json without the
program exits non-zero without printing a result.  Takes about two minutes
on one CPU.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def bench_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(cwd: str, *args: str) -> tuple[int, dict | None, str]:
    p = subprocess.run([sys.executable, RUN, "--seed", "7", "--seconds", "2",
                        "--size", "tiny", *args], cwd=cwd,
                       capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    return p.returncode, json.loads(lines[-1]) if lines else None, p.stderr


def expect_metrics(result: dict, wanted: list[dict], label: str) -> None:
    got = result["metrics"]
    for m in wanted:
        assert m["name"] in got, f"{label}: metric {m['name']} missing"
        assert got[m["name"]]["unit"] == m["unit"], \
            f"{label}: {m['name']} unit {got[m['name']]['unit']!r}"
        assert isinstance(got[m["name"]]["value"], (int, float))
    assert set(got) == {m["name"] for m in wanted}, \
        f"{label}: unexpected metrics {set(got) - {m['name'] for m in wanted}}"


def smoke_workload(name: str, spec: dict, cwd: str) -> None:
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        code, res, err = run(cwd, "--workload", name, "--trace", trace)
        label = f"{name} trace={trace}"
        assert code == 0 and res is not None, f"{label}: exit {code}\n{err}"
        assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0, \
            f"{label}: {res}\n{err}"
        expect_metrics(res, spec[key], label)
    code, res, err = run(cwd, "--workload", name, "--trace", "0",
                         "--expect-wrong")
    assert code == 0 and res is not None, f"{name} wrong: exit {code}\n{err}"
    assert res["failed"] >= 1 and not res["correct"], \
        f"{name}: a wrong expected answer was not counted: {res}"
    print(f"smoke: {name} ok ({res['failed']} of {res['attempted']} "
          f"deliberately wrong answers counted)")


def smoke_without_program() -> None:
    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                            "dds_global", "--seed", "1", "--seconds", "1",
                            "--trace", "0"], cwd=bare, capture_output=True,
                           text=True, timeout=180)
        assert p.returncode != 0 and not p.stdout.strip(), \
            f"without the program: exit {p.returncode}, stdout {p.stdout!r}"
    print("smoke: run without the program fails cleanly")


def main(argv: list[str]) -> int:
    spec = bench_spec()
    names = argv or [w["name"] for w in spec["workloads"]]
    smoke_without_program()
    with tempfile.TemporaryDirectory() as outside:
        for name in names:
            smoke_workload(name, spec, outside)
    print("smoke: all ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
