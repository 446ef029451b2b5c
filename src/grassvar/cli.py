"""Command-line front end: scenario-driven computations and verifications.

    grassvar length    --scenario s.json [--csv out.csv] [flags]
    grassvar area      --scenario s.json ...
    grassvar check     --scenario s.json ...
    grassvar variation --scenario s.json ...

Exit codes: 0 all rows pass, 1 at least one FAIL row, 2 scenario/input
error or an output file that cannot be written, 3 runtime numeric error.
With a fixed ``--seed`` the CSV output is byte-identical across runs;
wall-clock timings therefore go to the text report only and the CSV
``seconds`` column is pinned to 0.
"""
from __future__ import annotations

import argparse
import sys
import warnings

from . import __version__
from .errors import GrassvarError, ScenarioError
from .scenarios import Row, load_scenario, run_scenario

CSV_HEADER = "name,value,expected,tolerance,residual,status,seconds"


def _fmt(x) -> str:
    if x is None:
        return ""
    return format(float(x), ".17g")


def _csv_line(row: Row) -> str:
    return ",".join(
        [
            row.name,
            _fmt(row.value),
            _fmt(row.expected),
            _fmt(row.tolerance),
            _fmt(row.residual),
            row.status,
            "0",  # deterministic placeholder; timings live in the report
        ]
    )


def _report_line(row: Row) -> str:
    out = f"{row.name} = {row.value:.9g}"
    detail = []
    if row.expected is not None:
        detail.append(f"expected {row.expected:.9g}")
    if row.residual is not None and row.tolerance is not None:
        detail.append(f"residual {row.residual:.3g} <= {row.tolerance:.3g}")
    detail.append(row.status)
    detail.append(f"{row.seconds:.3f}s")
    return out + " (" + ", ".join(detail) + ")"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grassvar",
        description="Scenario-driven Finsler/areal functionals and geometric checks.",
    )
    parser.add_argument("--version", action="version", version=f"grassvar {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, helptext in [
        ("length", "curve length under a degree-1 metric"),
        ("area", "areal value of a k-piece"),
        ("check", "run the scenario's named verification checks"),
        ("variation", "extremality diagnostic along variation fields"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--scenario", required=True, help="path to a scenario JSON file")
        p.add_argument("--seed", type=int, default=42, help="RNG seed for sampled checks")
        p.add_argument("--gauss-order", type=int, default=None, help="override quadrature order")
        p.add_argument("--cells", type=int, default=None, help="override cells per axis")
        p.add_argument("--csv", default=None, help="write result rows as CSV")
        p.add_argument("--report", default=None, help="write the text report to a file")
        p.add_argument("--quiet", action="store_true", help="suppress stdout report")
        p.add_argument(
            "--dump-integrand",
            default=None,
            metavar="PATH",
            help="write sampled integrand values as CSV for external plotting",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {"gauss_order": args.gauss_order, "cells_per_axis": args.cells}
    try:
        scenario = load_scenario(args.scenario)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_scenario(
                args.subcommand,
                scenario,
                args.seed,
                overrides,
                dump=args.dump_integrand is not None,
            )
    except ScenarioError as exc:
        print(f"scenario error: {exc} [{exc.location}]", file=sys.stderr)
        return 2
    except GrassvarError as exc:
        print(f"numeric error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 3

    lines = [
        f"grassvar {__version__} :: {args.subcommand} :: {args.scenario}",
        f"seed={args.seed}"
        + (f" gauss_order={args.gauss_order}" if args.gauss_order else "")
        + (f" cells={args.cells}" if args.cells else ""),
    ]
    lines += [_report_line(row) for row in result.rows]
    for w in caught:
        lines.append(f"warning: {w.category.__name__}: {w.message}")
    n_fail = sum(1 for row in result.rows if row.status == "FAIL")
    lines.append(f"{len(result.rows)} row(s), {n_fail} failure(s)")

    report = "\n".join(lines) + "\n"
    if not args.quiet:
        sys.stdout.write(report)
    outputs = [
        (args.report, report),
        (args.csv, "".join(line + "\n" for line in [CSV_HEADER, *map(_csv_line, result.rows)])),
        (args.dump_integrand, "".join(",".join(map(_fmt, s)) + "\n" for s in result.samples)),
    ]
    for path, text in outputs:
        if path:
            try:
                with open(path, "w", encoding="utf-8", newline="\n") as fh:
                    fh.write(text)
            except OSError as exc:
                print(f"cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
                return 2

    return 1 if n_fail else 0


if __name__ == "__main__":
    sys.exit(main())
