#!/usr/bin/env python
"""CI equivalence gate: the columnar plane must match the row plane.

Runs the two vectorized bench scenarios — ``flink_window`` (columnar
source + vectorized window kernels) and ``presto_scan`` (chunked
produce/ingest + ColumnBatch pages through broker, connector and stage
scheduler) — in both planes, across several seeds, and byte-compares
the results digests.  The digest folds every window sum / result row,
so any divergence between the vectorized kernels and the row-at-a-time
reference — a dropped null, a re-ordered group, a mis-sliced chunk —
fails the job.

The columnar plane must also be strictly cheaper under the op-cost
model: an "optimization" that loses its speedup is a regression even
when results still match.

Exit codes: 0 equivalent, 1 diverged (or columnar not cheaper).
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
for entry in (str(REPO_ROOT / "src"), str(REPO_ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

SEEDS = (42, 7, 2021)
SCENARIO_NAMES = ("flink_window", "presto_scan")


def run_variant(name: str, seed: int, columnar: bool):
    from repro.bench.costmodel import virtual_us
    from repro.bench.scenarios import SCENARIOS
    from repro.common.perf import PERF, measured
    from repro.common.records import reset_uid_counter

    spec = next(s for s in SCENARIOS if s.name == name)
    params = dict(spec.quick_params)
    params["columnar"] = columnar
    reset_uid_counter()
    with measured():
        outcome = spec.fn(params, seed)
        cost_us = virtual_us(PERF.counts)
    return outcome, cost_us


def main() -> int:
    failures = 0
    for name in SCENARIO_NAMES:
        for seed in SEEDS:
            row, row_cost = run_variant(name, seed, columnar=False)
            col, col_cost = run_variant(name, seed, columnar=True)
            plane = f"{name} seed={seed}"
            if (row.check, row.records) != (col.check, col.records):
                print(
                    f"FAIL {plane}: columnar diverged from row plane "
                    f"(row check={row.check} records={row.records}, "
                    f"columnar check={col.check} records={col.records})",
                    file=sys.stderr,
                )
                failures += 1
                continue
            if col_cost >= row_cost:
                print(
                    f"FAIL {plane}: columnar not cheaper "
                    f"({col_cost:,.1f}us vs row {row_cost:,.1f}us)",
                    file=sys.stderr,
                )
                failures += 1
                continue
            print(
                f"  ok {plane}: check={col.check} digests byte-equal, "
                f"virtual cost {row_cost:,.1f}us -> {col_cost:,.1f}us "
                f"({row_cost / col_cost:.2f}x)"
            )
    if failures:
        print(f"{failures} columnar-equivalence failure(s)", file=sys.stderr)
        return 1
    print(
        f"columnar plane equivalent to row plane on "
        f"{len(SCENARIO_NAMES) * len(SEEDS)} scenario/seed pairs"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
