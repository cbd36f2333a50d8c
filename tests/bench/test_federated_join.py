"""The presto_federated_join scenario: determinism + the 2x reuse claim."""

from __future__ import annotations

from repro.bench.costmodel import virtual_us
from repro.bench.scenarios import presto_federated_join
from repro.common.perf import PERF, measured
from repro.common.records import reset_uid_counter

PARAMS = {
    "records": 1_500,
    "keys": 12,
    "segment_rows": 125,
    "query_rounds": 6,
}


def run(reuse: bool):
    params = dict(PARAMS, reuse=reuse)
    reset_uid_counter()
    with measured():
        outcome = presto_federated_join(params, 42)
        counters = PERF.snapshot()
    rps = outcome.records / (virtual_us(counters) / 1e6)
    return outcome, counters, rps


def test_artifact_reuse_doubles_throughput_without_changing_results():
    optimized, opt_counters, opt_rps = run(reuse=True)
    ablated, abl_counters, abl_rps = run(reuse=False)
    # Same seeded workload, same answers: the digest covers every query's
    # rows in every round, including the rounds after the mid-bench
    # ingest burst — so a stale artifact surviving the TableEpoch bump
    # would break this equality.
    assert optimized.check == ablated.check
    # Reuse must actually fire: most stages are artifact hits, and the
    # shared scan→join prefix executes far fewer times than the ablation
    # recomputes it.
    assert opt_counters["presto.stage_artifact_hits"] > 0
    assert (
        opt_counters["presto.stage_executions"]
        < abl_counters["presto.stage_executions"]
    )
    assert "presto.stage_artifact_hits" not in abl_counters
    # ...and pay off: the acceptance bar is 2x deterministic throughput.
    assert opt_rps >= 2 * abl_rps
    # Deterministic: a second optimized run reproduces counters exactly.
    again, again_counters, __ = run(reuse=True)
    assert again.check == optimized.check
    assert again_counters == opt_counters


def test_epoch_bump_forces_recompute_midway():
    # With reuse on, the ingest burst at round query_rounds//2 must
    # invalidate the rides-derived artifacts: the join work runs again
    # after the burst, so probe/build counters exceed a single execution
    # of the plan but stay far below the ablation's every-round replay.
    __, opt_counters, __ = run(reuse=True)
    __, abl_counters, __ = run(reuse=False)
    probes = opt_counters["presto.join_probe_rows"]
    # Two computations (before + after the burst) over ~records rows each.
    assert probes > PARAMS["records"]
    assert probes < abl_counters["presto.join_probe_rows"] / 2
