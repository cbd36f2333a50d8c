#!/usr/bin/env python
"""CI determinism gate: the interval-join + feature-store path.

Runs the ``stream_join`` bench scenario — out-of-order prediction and
outcome streams through ``interval_join`` feeding a point-in-time
feature store — across several seeds, and byte-compares the outcome
digests along two axes:

* **Same-seed reproducibility.**  Two runs of the registered
  configuration must digest identically: the digest folds every joined
  row, the seeded batch of point-in-time feature reads, the
  late-drop/eviction counters and the store's version count, so any
  scheduling leak into results fails the job.

* **Crash-restore equivalence.**  The ``crash_restore=True`` variant
  (2PC transactional sink, mid-run checkpoint, crash + restore from it,
  replay) must digest identically to the fault-free run: the join's
  snapshot/restore, the bounded readers' watermark rewind and the
  store's idempotent absorption of replayed writes are all inside this
  equality.

Exit codes: 0 deterministic, 1 diverged.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
for entry in (str(REPO_ROOT / "src"), str(REPO_ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

SEEDS = (42, 7, 2021)


def run_variant(seed: int, crash_restore: bool):
    from repro.bench.scenarios import SCENARIOS
    from repro.common.perf import measured
    from repro.common.records import reset_uid_counter

    spec = next(s for s in SCENARIOS if s.name == "stream_join")
    params = dict(spec.quick_params)
    params["crash_restore"] = crash_restore
    reset_uid_counter()
    with measured():
        return spec.fn(params, seed)


def main() -> int:
    failures = 0
    for seed in SEEDS:
        first = run_variant(seed, crash_restore=False)
        second = run_variant(seed, crash_restore=False)
        if (first.check, first.records) != (second.check, second.records):
            print(
                f"FAIL seed={seed}: same-seed runs diverged "
                f"(check {first.check} vs {second.check})",
                file=sys.stderr,
            )
            failures += 1
            continue
        crashed = run_variant(seed, crash_restore=True)
        if (first.check, first.records) != (crashed.check, crashed.records):
            print(
                f"FAIL seed={seed}: crash-restore run diverged from "
                f"fault-free run (check {first.check} vs {crashed.check})",
                file=sys.stderr,
            )
            failures += 1
            continue
        print(
            f"  ok seed={seed}: check={first.check} byte-equal across "
            f"rerun and crash-restore replay"
        )
    if failures:
        print(f"{failures} join-determinism failure(s)", file=sys.stderr)
        return 1
    print(
        f"stream_join deterministic (rerun + crash-restore) on "
        f"{len(SEEDS)} seeds"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
