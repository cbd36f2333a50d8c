"""stream_join scenario: reproducibility and crash-restore equivalence.

The quick-params version of what ``scripts/check_join_determinism.py``
gates in CI: same-seed reruns digest identically, the crash-restore
variant digests identically to the fault-free run, and the scenario
actually exercises the paths it claims to (joins emitted, state
evicted, duplicate deliveries absorbed by the store).
"""

from __future__ import annotations

from repro.bench.scenarios import SCENARIOS
from repro.common.perf import PERF, measured
from repro.common.records import reset_uid_counter

SPEC = next(s for s in SCENARIOS if s.name == "stream_join")

# Smaller than quick_params: this runs inside tier-1 on every push.
PARAMS = {
    "records": 600,
    "keys": 96,
    "models": 8,
    "delay_max_s": 8.0,
    "ooo_s": 2.0,
    "lateness_s": 1.0,
    "ttl_s": 8.0,
    "dup_rate": 0.05,
    "loss_rate": 0.05,
    "reads": 80,
    "parallelism": 2,
}


def run(seed, crash_restore=False):
    params = dict(PARAMS)
    if crash_restore:
        # The tier-1 workload is small, so crash earlier than the
        # defaults sized for the registered quick/full configs.
        params.update(crash_restore=True, checkpoint_round=1, crash_round=2)
    reset_uid_counter()
    with measured():
        outcome = SPEC.fn(params, seed)
        counters = dict(PERF.counts)
    return outcome, counters


def test_same_seed_runs_digest_identically():
    first, __ = run(42)
    second, __ = run(42)
    assert (first.check, first.records) == (second.check, second.records)


def test_different_seeds_diverge():
    assert run(42)[0].check != run(7)[0].check


def test_crash_restore_digest_matches_fault_free_run():
    plain, __ = run(42)
    crashed, __ = run(42, crash_restore=True)
    assert (plain.check, plain.records) == (crashed.check, crashed.records)


def test_scenario_exercises_the_join_and_store_paths():
    __, counters = run(42)
    assert counters["flink.join_rows_out"] > 0
    assert counters["flink.join_evictions"] > 0
    assert counters["features.writes"] > 0
    assert counters["features.duplicate_writes"] > 0
    assert counters["features.reads"] > 0


def test_registered_in_quick_set():
    assert SPEC.in_quick
    # The registered config keeps crash_restore off: the bench gate
    # measures the steady-state path; determinism owns the crash variant.
    assert "crash_restore" not in SPEC.full_params
    assert "crash_restore" not in SPEC.quick_params
