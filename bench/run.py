"""The grassvar benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload {areal,forms,curves} --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout of the repository.  One run generates
the workload's scenario files from the seed, measures grassvar from outside
through its public entry points (``load_scenario``, ``run_scenario`` and
the CLI), checks every output against the independent computations in
``oracles.py`` and prints each metric with its unit.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Untraced (``--trace 0``), the end-to-end metrics:
  setup_s      median over fresh processes of the time from launch until
               grassvar.cli is imported and every scenario file is loaded
  pass_s       time to evaluate every input once through run_scenario in a
               warm worker: the sum over inputs of each input's median
  cli_s        mean over a fixed subset of files of each file's median time
               of ``grassvar <subcommand> --scenario F --csv OUT``, from
               launch until the CSV is written
  peak_rss_mb  peak resident memory of the warm worker
Every time is scaled to a reference CPU speed (see ``speed.py``); the
unscaled medians are printed too.  Traced (``--trace 1``), the per-layer
metrics of ``tracing.py`` for one pass, the import breakdown and
``trace.overhead_s``.  A metric with nothing to measure (its layer is gone,
or every operation behind it failed) is printed as absent and left out of
the JSON object.

A failed operation is counted and the run goes on; a phase ends early after
a round in which every operation failed, and no child starts after
RUN_LIMIT_S, so a run always ends with its tally.

Child processes run one at a time (a closed loop) with BLAS and OpenMP
pinned to one thread.  Generated files and run outputs go to
``bench/_work/``.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import oracles  # noqa: E402  (numpy is imported after the thread pins)
import tracing  # noqa: E402
import workloads  # noqa: E402
from speed import REFERENCE_IMPORTS, REFERENCE_LAUNCH_S, ScaledTimer  # noqa: E402
from worker import PROGRAM_SEED  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SHIPPED_DIR = os.path.join(ROOT, "scenarios")
WORK = os.path.join(HERE, "_work")
PROBE = os.path.join(HERE, "probe.py")

# Share of --seconds for each phase; the rest goes to generation, worker
# start-up and the last round of each phase.  Each phase also has a minimum
# number of rounds, so a slow program overruns its share instead of
# measuring less.
SETUP_SHARE, PASS_SHARE, CLI_SHARE = 0.15, 0.3, 0.3
MIN_SETUP, MIN_CLI_ROUNDS = 5, 4
IMPORT_PROBES = 3
# No child starts after this, and a running one is killed then, so a run
# ends within 180 s.  The worker gets WORKER_SHARE of the time left.
RUN_LIMIT_S = 170.0
WORKER_SHARE = 0.6
IMPORT_PACKAGES = ("numpy", "scipy", "sympy", "jsonschema", "grassvar")

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "cli_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {
    **{f"import.{p}_s": "s" for p in IMPORT_PACKAGES},
    **{m: tracing.UNITS[kind] for m, (kind, *_) in tracing.METRICS.items()},
    "trace.overhead_s": "s",
}


def csv_rows(data: bytes) -> list:
    """``[name, value, status]`` of each row of a CLI CSV file."""
    rows = list(csv.reader(data.decode("utf-8").splitlines()))
    return [[r[0], float(r[1]), r[5]] for r in rows[1:]]


class Run:
    """One benchmark run: its inputs, children, and tally of operations."""

    def __init__(self, workload: str, seed: int, seconds: float, work: str):
        self.workload, self.seed, self.seconds, self.work = workload, seed, seconds, work
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = SRC + (
            os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else ""
        )
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.wrong = False
        self.ops = workloads.generate(workload, seed, os.path.join(work, "scenarios"), SHIPPED_DIR)
        self.expected = []
        for op in self.ops:
            with open(op["path"], encoding="utf-8") as fh:
                self.expected.append(oracles.expectations(json.load(fh), op["sub"]))

    def fail(self, what: str) -> None:
        self.failed += 1
        self.messages.append(f"FAILED {what}")

    def mismatch(self, what: str) -> None:
        self.wrong = True
        self.messages.append(f"WRONG {what}")

    def time_left(self) -> float:
        return self.deadline - time.monotonic()

    def child(self, args: list[str]) -> subprocess.CompletedProcess:
        """Run one child to completion; at the deadline it is killed, reaped
        and reported as exit code -9."""
        try:
            return subprocess.run(
                [sys.executable] + args,
                env=self.env,
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=max(0.5, self.time_left()),
            )
        except subprocess.TimeoutExpired:
            return subprocess.CompletedProcess(args, -9, "", "killed at the run's time limit")

    def next_round(self, rounds: int, minimum: int, start: float, share: float, ok: bool) -> bool:
        """Whether a phase starts another round: not after the deadline or a
        round without success, and only below its minimum rounds or within
        its share of --seconds."""
        if (rounds and not ok) or self.time_left() <= 0:
            return False
        return rounds < minimum or time.monotonic() - start < share * self.seconds

    def launch_timer(self) -> ScaledTimer:
        """A timer for fresh-process units, calibrated by a reference launch."""

        def calibrate() -> float:
            t0 = time.monotonic()
            self.child(["-c", REFERENCE_IMPORTS])
            return time.monotonic() - t0

        return ScaledTimer(calibrate, REFERENCE_LAUNCH_S)

    def check(self, where: str, rows: list, i: int) -> None:
        for msg in oracles.check_rows(rows, self.expected[i]):
            self.mismatch(f"{where}: {msg}")

    # -- phases ----------------------------------------------------------

    def measure_setup(self) -> ScaledTimer:
        """Fresh processes, each timed from launch until grassvar.cli is
        imported and every scenario file is loaded.  The worker has run
        before, so bytecode is compiled and the files are cached."""
        paths = [op["path"] for op in self.ops]
        timer = self.launch_timer()
        start, rounds, ok = time.monotonic(), 0, True
        while self.next_round(rounds, MIN_SETUP, start, SETUP_SHARE, ok):
            rounds += 1
            proc = self.child([PROBE, "setup", repr(time.monotonic())] + paths)
            self.attempted += 1
            ok = proc.returncode == 0
            if not ok:
                self.fail(f"setup probe exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
                timer.skip()
                continue
            out = json.loads(proc.stdout.splitlines()[-1])
            timer.add(None, out["elapsed"])
            if out["loaded"] != len(paths):
                self.mismatch(f"setup probe loaded {out['loaded']} of {len(paths)} files")
        return timer

    def run_worker(self, budget: float, trace: int):
        """The worker's report with every result checked, or None when the
        worker itself failed (one failed operation)."""
        if self.time_left() <= 0:
            return None
        ops_path = os.path.join(self.work, "ops.json")
        out_path = os.path.join(self.work, "worker.json")
        with open(ops_path, "w", encoding="utf-8") as fh:
            json.dump(self.ops, fh)
        proc = self.child(
            [os.path.join(HERE, "worker.py"), "--ops", ops_path, "--out", out_path,
             "--budget", repr(budget), "--limit", repr(WORKER_SHARE * self.time_left()),
             "--trace", str(trace)]
        )
        if proc.returncode != 0:
            self.attempted += 1
            self.fail(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
            return None
        with open(out_path, encoding="utf-8") as fh:
            report = json.load(fh)
        for p, results in enumerate(report["results"]):
            for i, (op, res) in enumerate(zip(self.ops, results)):
                self.attempted += 1
                where = f"pass {p} {op['name']}"
                if res["error"] is not None:
                    self.fail(f"{where}: {res['error']}")
                    continue
                self.check(where, res["rows"], i)
                for w in res["warnings"]:
                    self.mismatch(f"{where}: unexpected warning {w}")
        return report

    def measure_cli(self, in_process) -> ScaledTimer:
        """Launches round-robin over the CLI subset, timed per file.

        Each launch must exit with the code its rows call for, write the
        same bytes as the first launch on that file, and write the rows the
        warm worker computed in process (unless that evaluation failed).
        """
        subset = [i for i, op in enumerate(self.ops)
                  if op["name"] in workloads.CLI_SUBSET[self.workload]]
        timer = self.launch_timer()
        first_bytes: dict[int, bytes] = {}
        start, rounds, ok = time.monotonic(), 0, True
        while self.next_round(rounds, MIN_CLI_ROUNDS, start, CLI_SHARE, ok):
            rounds += 1
            ok = False
            for i in subset:
                if self.time_left() <= 0:
                    break
                op = self.ops[i]
                out_csv = os.path.join(self.work, f"cli_{len(timer.units)}_{op['name']}.csv")
                args = [op["sub"], "--scenario", op["path"], "--seed", str(PROGRAM_SEED),
                        "--csv", out_csv, "--quiet"]
                proc = self.child([PROBE, "cli", repr(time.monotonic())] + args)
                self.attempted += 1
                where = f"cli {op['sub']} {op['name']}"
                if proc.returncode not in (0, 1):
                    self.fail(f"{where} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
                    timer.skip()
                    continue
                timer.add(i, json.loads(proc.stdout.splitlines()[-1])["elapsed"])
                ok = True
                want = 1 if any(e["status"] == "FAIL" for e in self.expected[i]) else 0
                if proc.returncode != want:
                    self.mismatch(f"{where}: exit code {proc.returncode}, expected {want}")
                with open(out_csv, "rb") as fh:
                    data = fh.read()
                os.remove(out_csv)
                if i not in first_bytes:
                    first_bytes[i] = data
                    rows = csv_rows(data)
                    if in_process[i] is not None and rows != in_process[i]:
                        self.mismatch(f"{where}: CSV rows {rows} != in-process {in_process[i]}")
                    self.check(where, rows, i)
                elif data != first_bytes[i]:
                    self.mismatch(f"{where}: CSV differs between launches")
        return timer

    def import_breakdown(self) -> dict:
        """Median over fresh processes of each package's self import time."""
        samples = {p: [] for p in IMPORT_PACKAGES}
        for _ in range(IMPORT_PROBES):
            if self.time_left() <= 0:
                break
            proc = self.child(["-X", "importtime", "-c", "import grassvar.cli"])
            self.attempted += 1
            if proc.returncode != 0:
                self.fail(f"import probe exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            totals = dict.fromkeys(IMPORT_PACKAGES, 0)
            for line in proc.stderr.splitlines():
                if not line.startswith("import time:") or "self [us]" in line:
                    continue
                self_us, _, name = line[len("import time:"):].split("|")
                top = name.strip().split(".")[0]
                if top in totals:
                    totals[top] += int(self_us)
            for p in IMPORT_PACKAGES:
                samples[p].append(totals[p] / 1e6)
        return {f"import.{p}_s": statistics.median(v) for p, v in samples.items() if v}

    # -- the two kinds of run ----------------------------------------------

    def end_to_end(self) -> dict:
        """The end-to-end metrics that have at least one successful unit."""
        report = self.run_worker(PASS_SHARE * self.seconds, 0)
        setup = self.measure_setup()
        in_process = [None] * len(self.ops)
        if report:
            in_process = [res["rows"] if res["error"] is None else None
                          for res in report["results"][0]]
        cli = self.measure_cli(in_process)
        metrics, raw = {}, {}
        if setup.units:
            metrics["setup_s"] = setup.medians()[None]
            raw["setup_s"] = setup.medians(scaled=False)[None]
        if report and report["pass_s"] is not None:
            metrics["pass_s"], raw["pass_s"] = report["pass_s"], report["pass_raw_s"]
        if cli.units:
            metrics["cli_s"] = statistics.fmean(cli.medians().values())
            raw["cli_s"] = statistics.fmean(cli.medians(scaled=False).values())
        if report:
            metrics["peak_rss_mb"] = report["peak_rss_mb"]
        print(f"units: {len(setup.units)} setup processes, "
              f"{report['passes'] if report else 0} passes, {len(cli.units)} CLI launches")
        print("unscaled: " + ", ".join(f"{k} {v:.6g} s" for k, v in raw.items()))
        return metrics

    def per_layer(self) -> dict:
        """The import breakdown and the worker's per-layer metrics that were
        measured."""
        metrics = self.import_breakdown()
        report = self.run_worker(2.0 * PASS_SHARE * self.seconds, 1)
        if report is None:
            return metrics
        metrics.update(report["layers"])
        metrics.update({k: v for k, v in report["load"].items() if k.startswith("scenarios.load")})
        if report["pass_s"] is not None and report["traced_pass_s"] is not None:
            metrics["trace.overhead_s"] = report["traced_pass_s"] - report["pass_s"]
        trace_file = os.path.join(WORK, f"trace_{self.workload}.json")
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump({"seed": self.seed, "metrics": metrics, "absent": report["absent"],
                       "spans": report["spans"]}, fh, indent=1)
        if not report["counts_repeat"]:
            print("note: per-layer counts differ between traced passes")
        print(f"passes: {report['passes']} untraced, {report['traced_passes']} traced; "
              f"spans in {os.path.relpath(trace_file, ROOT)}")
        return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (os.path.isfile(os.path.join(SRC, "grassvar", "cli.py")) and os.path.isdir(SHIPPED_DIR)):
        print(f"error: no grassvar sources and scenarios under {ROOT}", file=sys.stderr)
        return 2

    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        run = Run(args.workload, args.seed, args.seconds, work)
        metrics = run.per_layer() if args.trace else run.end_to_end()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    for msg in run.messages[:20]:
        print(msg)
    print(f"workload {args.workload} seed {args.seed}: "
          f"{run.attempted} attempted, {run.failed} failed")
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}" if name in metrics else f"  {name} absent")
    print(json.dumps({
        "correct": not run.wrong,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items() if n in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
