#!/usr/bin/env python
"""CI equivalence gate: sticky routing must be an invisible optimization.

Runs ``controlplane_surge`` and ``pinot_selective_query`` with sticky
locality (rendezvous replica routing + scan-share caches + stage
pinning + sticky queue subsets) on and off, across several seeds, and
byte-compares the check digests.  The surge check folds every admitted
query's result rows *and* the rendered decision log, so a routing
policy that leaks into results, admission or scaling — a float merge
re-ordered, a stale scan-share entry, an estimate that saw a cache —
fails the job.

The sticky variant must also be strictly cheaper under the op-cost
model: locality that stops paying for itself is a regression even when
results still match.  For ``pinot_selective_query`` the broker result
cache is disabled in both variants — it would absorb the repeated
queries whole and hide the scan-share layer this gate exists to watch.

Exit codes: 0 equivalent and cheaper, 1 diverged (or sticky not cheaper).
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
for entry in (str(REPO_ROOT / "src"), str(REPO_ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

SEEDS = (42, 7, 2021)
#: scenario name -> param overrides applied to both variants
SCENARIOS_UNDER_TEST = {
    "controlplane_surge": {},
    "pinot_selective_query": {"cache": False},
}


def run_variant(name: str, seed: int, sticky: bool, overrides: dict):
    from repro.bench.costmodel import virtual_us
    from repro.bench.scenarios import SCENARIOS
    from repro.common.perf import PERF, measured
    from repro.common.records import reset_uid_counter

    spec = next(s for s in SCENARIOS if s.name == name)
    params = dict(spec.quick_params)
    params.update(overrides)
    params["sticky"] = sticky
    reset_uid_counter()
    with measured():
        outcome = spec.fn(params, seed)
        cost_us = virtual_us(PERF.counts)
    return outcome, cost_us


def main() -> int:
    failures = 0
    for name, overrides in SCENARIOS_UNDER_TEST.items():
        for seed in SEEDS:
            scatter, scatter_cost = run_variant(
                name, seed, sticky=False, overrides=overrides
            )
            sticky, sticky_cost = run_variant(
                name, seed, sticky=True, overrides=overrides
            )
            pair = f"{name} seed={seed}"
            if (scatter.check, scatter.records) != (
                sticky.check,
                sticky.records,
            ):
                print(
                    f"FAIL {pair}: sticky diverged from scatter "
                    f"(scatter check={scatter.check} records={scatter.records}, "
                    f"sticky check={sticky.check} records={sticky.records})",
                    file=sys.stderr,
                )
                failures += 1
                continue
            if sticky_cost >= scatter_cost:
                print(
                    f"FAIL {pair}: sticky not cheaper "
                    f"({sticky_cost:,.1f}us vs scatter {scatter_cost:,.1f}us)",
                    file=sys.stderr,
                )
                failures += 1
                continue
            print(
                f"  ok {pair}: check={sticky.check} digests byte-equal, "
                f"virtual cost {scatter_cost:,.1f}us -> {sticky_cost:,.1f}us "
                f"({scatter_cost / sticky_cost:.2f}x)"
            )
    if failures:
        print(f"{failures} sticky-equivalence failure(s)", file=sys.stderr)
        return 1
    pairs = len(SCENARIOS_UNDER_TEST) * len(SEEDS)
    print(
        f"sticky routing equivalent to scatter (and cheaper) on "
        f"{pairs} scenario/seed pairs"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
