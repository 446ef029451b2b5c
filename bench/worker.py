"""Warm worker: evaluates every input of a workload through ``run_scenario``.

Run by ``run.py`` as a separate process so that its peak resident memory
is that of grassvar alone; grassvar is found on the ``PYTHONPATH`` that
``run.py`` sets.  It loads every scenario once with ``load_scenario``,
makes one warm-up pass at one cell per axis (imports, code paths and
sympy's caches settle at little cost), then repeats full passes until both
the minimum pass count and the time budget are reached.  It starts no pass
once ``--limit`` seconds are used, and stops after a pass in which every
input failed.  Within a pass the inputs are evaluated one at a time (a
closed loop), and each successful evaluation is one timed unit of a
``ScaledTimer``.  ``pass_s`` is the sum over inputs of each input's median
scaled time.  With ``--trace 1`` the worker then installs the span wrappers
and repeats the passes traced, so that the tracing overhead is the
difference of the two ``pass_s``.

Usage: worker.py --ops OPS.json --out RESULT.json --budget S --limit S --trace 0|1
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import warnings

from speed import ScaledTimer

MIN_PASSES = 3
# The program's own --seed (the CLI default), fixed so that its sampled
# checks do the same work whatever the benchmark seed.
PROGRAM_SEED = 42


def _evaluate(scenarios, op, scenario, overrides=None) -> dict:
    """One operation: rows, warnings and error of a run_scenario call."""
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = scenarios.run_scenario(op["sub"], scenario, PROGRAM_SEED, overrides)
    except Exception as exc:  # reported as a failed operation; the loop goes on
        return {"rows": [], "warnings": [], "error": f"{type(exc).__name__}: {exc}"}
    return {
        "rows": [[r.name, float(r.value), r.status] for r in result.rows],
        "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
        "error": None,
    }


def _passes(scenarios, ops, loaded, budget, limit, on_pass=None):
    """Full passes until MIN_PASSES are done and ``budget`` seconds are used,
    with none started after ``limit`` seconds or after a pass without a
    successful input.

    Returns (scaled pass_s, unscaled pass_s, results per pass); the two
    times are None when no input succeeded."""
    timer, results = ScaledTimer(), []
    start = time.perf_counter()
    while not results or (
        any(res["error"] is None for res in results[-1])
        and (len(results) < MIN_PASSES or time.perf_counter() - start < budget)
        and time.perf_counter() - start < limit
    ):
        out = []
        for i, (op, sc) in enumerate(zip(ops, loaded)):
            t0 = time.perf_counter()
            out.append(_evaluate(scenarios, op, sc))
            if out[-1]["error"] is None:
                timer.add(i, time.perf_counter() - t0)
            else:
                timer.skip()
        results.append(out)
        if on_pass is not None:
            on_pass()
    if not timer.units:
        return None, None, results
    return sum(timer.medians().values()), sum(timer.medians(scaled=False).values()), results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--ops", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--limit", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from grassvar import scenarios

    with open(args.ops, encoding="utf-8") as fh:
        ops = json.load(fh)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    loaded = [scenarios.load_scenario(op["path"]) for op in ops]
    report = {}
    if tracer is not None:
        tracer.uninstall()
        report["load"] = tracer.metrics()

    for op, sc in zip(ops, loaded):
        _evaluate(scenarios, op, sc, {"cells_per_axis": 1})

    halves = 2.0 if tracer else 1.0
    report["pass_s"], report["pass_raw_s"], results = _passes(
        scenarios, ops, loaded, args.budget / halves, args.limit / halves
    )
    report["passes"] = len(results)
    if tracer is not None:
        per_pass = []

        def snapshot():
            per_pass.append(tracer.metrics())
            report["spans"] = tracer.span_table()  # of the last traced pass
            tracer.reset()

        tracer.reset()
        tracer.install()
        report["traced_pass_s"], _, traced = _passes(
            scenarios, ops, loaded, args.budget / halves, args.limit / halves, snapshot
        )
        tracer.uninstall()
        results += traced
        report["traced_passes"] = len(traced)
        report["layers"] = {  # a value one pass measured: counts stay whole numbers
            key: statistics.median_low(p[key] for p in per_pass) for key in per_pass[0]
        }
        report["counts_repeat"] = all(
            p[k] == per_pass[0][k] for p in per_pass for k in p if not k.endswith("_s")
        )
        report["absent"] = tracer.absent()
    report["results"] = results
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
