"""CLI: ``python -m repro.bench``.

Runs the perf scenarios, writes the deterministic ``BENCH_core.json``,
prints a summary table, and — given ``--baseline`` — compares throughput
against the committed contract, exiting non-zero on regression.

Exit codes: 0 ok, 1 throughput regression, 2 usage/baseline error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.bench.baseline import BaselineError, compare_reports, load_report
from repro.bench.harness import (
    DEFAULT_SEED,
    BenchError,
    build_report,
    render_report,
    report_to_json,
    run_scenarios,
)
from repro.bench.scenarios import scenario_names


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run the hot-path perf scenarios and emit BENCH_core.json.",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smoke subset: every scenario at its small parameter set",
    )
    parser.add_argument(
        "--scenario",
        action="append",
        default=None,
        metavar="NAME",
        help=f"run only the named scenario(s); available: {scenario_names()}",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--out",
        default="BENCH_core.json",
        help="output path for the deterministic report (default: %(default)s)",
    )
    parser.add_argument(
        "--no-out",
        action="store_true",
        help="skip writing the JSON file (print-only run)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="compare against a committed report; exit 1 on regression",
    )
    args = parser.parse_args(argv)

    try:
        report = run_scenarios(
            names=args.scenario, seed=args.seed, quick=args.quick
        )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_report(report))
    if not args.no_out:
        out_path = Path(args.out)
        out_path.write_text(report_to_json(report))
        print(f"wrote {out_path}")
    if args.baseline is None:
        return 0
    try:
        baseline = load_report(args.baseline)
        comparison = compare_reports(build_report(report), baseline)
    except BaselineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(comparison.render())
    return 0 if comparison.ok else 1


if __name__ == "__main__":
    sys.exit(main())
