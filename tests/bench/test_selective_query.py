"""The pinot_selective_query scenario: determinism + the 2x pruning claim."""

from __future__ import annotations

from repro.bench.costmodel import virtual_us
from repro.bench.scenarios import pinot_selective_query
from repro.common.perf import PERF, measured
from repro.common.records import reset_uid_counter

PARAMS = {
    "records": 3_000,
    "keys": 16,
    "segment_rows": 250,
    "query_rounds": 4,
}


def run(pruning: bool, cache: bool, sticky: bool = False):
    # sticky (replica affinity + scan sharing) defaults off here so each
    # test isolates exactly the optimizations it names.
    params = dict(PARAMS, pruning=pruning, cache=cache, sticky=sticky)
    reset_uid_counter()
    with measured():
        outcome = pinot_selective_query(params, 42)
        counters = PERF.snapshot()
    rps = outcome.records / (virtual_us(counters) / 1e6)
    return outcome, counters, rps


def test_pruning_and_cache_double_throughput_without_changing_results():
    optimized, opt_counters, opt_rps = run(pruning=True, cache=True, sticky=True)
    ablated, abl_counters, abl_rps = run(pruning=False, cache=False)
    # Same seeded workload, same answers: the digest covers every query's
    # rows in every round.
    assert optimized.check == ablated.check
    # The optimizations must actually fire...
    assert opt_counters["pinot.segments_pruned"] > 0
    assert opt_counters["pinot.bloom_checks"] > 0
    assert opt_counters["pinot.cache_hits"] > 0
    assert "pinot.segments_pruned" not in abl_counters
    assert "pinot.cache_hits" not in abl_counters
    assert "pinot.scanshare_hits" not in abl_counters
    # ...and pay off: the acceptance bar is 2x deterministic throughput.
    assert opt_rps >= 2 * abl_rps
    # Deterministic: a second optimized run reproduces counters exactly.
    again, again_counters, __ = run(pruning=True, cache=True, sticky=True)
    assert again.check == optimized.check
    assert again_counters == opt_counters


def test_pruning_alone_reduces_segments_scanned():
    __, pruned_counters, pruned_rps = run(pruning=True, cache=False)
    __, full_counters, full_rps = run(pruning=False, cache=False)
    assert (
        pruned_counters["pinot.segments_scanned"]
        < full_counters["pinot.segments_scanned"]
    )
    assert pruned_rps > full_rps
