"""Wall-clock benchmark of the reproduction: ``ingest``, ``serve``, ``surge``.

Run from the repository root::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

Each workload measures a fixed amount of work sized from ``--seconds``
(``surge`` is a fixed simulation whatever the length).  ``--trace 0``
runs it untraced and reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` runs a quarter of that work twice, untraced and then
traced, and reports
the per-layer metrics, including ``trace.overhead_ratio``; the spans are
written to ``.perfbench_out/``.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
lines before it are the workload's own named figures and, when traced,
self time per layer.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("ingest", "serve", "surge")
#: a traced run measures this share of an untraced run's work, twice
TRACE_SHARE = 0.25


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--small",
        action="store_true",
        help="a reduced surge (for tests); the other workloads ignore it",
    )
    parser.add_argument(
        "--corrupt-reference",
        action="store_true",
        help="corrupt one reference digest (for tests of the checks)",
    )
    return parser.parse_args(argv)


def _emit(outcome, metrics: dict) -> None:
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    import importlib

    from perfbench.common import E2E_UNITS
    from perfbench.layers import PER_LAYER, layer_metrics
    from perfbench.tracer import Tracer

    workload = importlib.import_module(f"perfbench.{args.workload}")
    share = TRACE_SHARE if args.trace else 1.0
    work = max(1, round(workload.WORK_PER_S * args.seconds * share))
    options = {"work": work, "corrupt": args.corrupt_reference}
    small = {"small": True} if args.workload == "surge" else {}
    if args.small:
        options.update(small)
    if not args.trace:
        outcome = workload.run(args.seed, **options)
        print("detail", args.workload, json.dumps(outcome.detail))
        for note in outcome.notes:
            print("note", note)
        _emit(
            outcome,
            {
                name: {"value": outcome.metrics[name], "unit": unit}
                for name, unit in E2E_UNITS.items()
            },
        )
        return 0

    # A small run first, so that neither measured run pays for imports and
    # the first use of its code paths.
    workload.run(args.seed, work=1, setups=1, **small)
    untraced = workload.run(args.seed, setups=1, **options)
    tracer = Tracer()
    with tracer:
        outcome = workload.run(args.seed, setups=1, tracer=tracer, **options)
    overhead = outcome.wall_s / untraced.wall_s
    values = layer_metrics(tracer, overhead)
    tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    shares = tracer.layer_self_ms()
    print(
        "layers",
        args.workload,
        json.dumps(
            {
                "traced_wall_ms": 1000.0 * outcome.wall_s,
                "untraced_wall_ms": 1000.0 * untraced.wall_s,
                "self_ms": dict(sorted(shares.items())),
                "spans_kept": len(tracer.spans),
                "spans_dropped": tracer.dropped_spans,
            }
        ),
    )
    for note in untraced.notes + outcome.notes:
        print("note", note)
    outcome.correct = outcome.correct and untraced.correct
    _emit(
        outcome,
        {name: {"value": values[name], "unit": unit} for name, unit, __ in PER_LAYER},
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
