"""Profile any driver query's Ray Data execution: run one `queries()`
entry and print the per-stage wall-clock breakdown from ``ds.stats()``
-- the measure-don't-guess loop for deciding which stage of a pipeline
deserves optimization.

Usage:
    python tools/profile_query.py <query_name> [sf_dir]

Prints the query's wall time, its result row count, the operator
chain of every plan the query executed (input to output), how many of
those plans sorted (``Sort``) and how many re-ran a plan under
``limit=1`` to fetch its schema, and (when the result is a Dataset) the
Ray Data stats summary with per-operator times.  Owns its Ray session
(guarded init), like bench.py.
"""

from __future__ import annotations

import sys
import time


def main() -> int:
    if len(sys.argv) < 2:
        print(__doc__)
        return 2
    name = sys.argv[1]
    sf_dir = sys.argv[2] if len(sys.argv) > 2 else "/root/testdata/sf0.01"

    import ray
    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False,
                 logging_level="ERROR")

    sys.path.insert(0, ".")
    import __ray_entry__ as entry_mod
    qs = entry_mod.queries()
    if name not in qs:
        print(f"unknown query {name!r}; available: {sorted(qs)}")
        return 2

    from tools.plans import chain, counts, recorded_plans
    t0 = time.perf_counter()
    with recorded_plans() as plans:
        res = qs[name](sf_dir)
        is_ds = hasattr(res, "stats")
        if is_ds:
            res = res.materialize()
            n = res.count()
        else:
            n = res.num_rows if hasattr(res, "num_rows") else len(res)
    wall = time.perf_counter() - t0
    print(f"{name}: {wall:.2f}s wall, {n} rows")
    for i, plan in enumerate(plans):
        print(f"  plan {i}: {chain(plan)}")
    c = counts(plans)
    print(f"  {c['plans']} plans executed, {c['sort']} with Sort, "
          f"{c['limit=1']} limit=1 re-runs")
    if is_ds:
        print(res.stats())
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
