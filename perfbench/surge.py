"""``surge``: the million-user surge experiment, end to end.

:func:`repro.controlplane.surge.run_surge` with its default parameters:
2M Zipf/diurnal users, a 6x spike, a Kafka broker kill and restart, a
telemetry firehose (Kafka -> Flink -> Pinot) writing beside the reads,
SLO-tiered admission shedding and cross-layer autoscaling.  Arrivals are
open-loop in simulated time and no decision reads the wall clock, so a
run is a fixed amount of work; it is timed as a whole.

The benchmark hooks three public methods from outside: the two query
entry points (``PinotBroker.execute``, ``PrestoEngine.execute``) to time
each admitted query, and ``SurgeWorkload.requests`` to mark the end of
set-up (the rides table is ingested and sealed, the telemetry job and the
control plane are deployed).  Set-up is measured on the full run plus
short runs that stop after one simulated second.

Checks: admitted plus shed equals requests, every tier meets its SLO in
the tier report, and a seeded sample of admitted queries re-executed on a
broker with the result cache and scan sharing off (and an engine with
artifact reuse off) returns the same result digest.
"""

from __future__ import annotations

import random
import statistics

from perfbench.common import (
    SETUP_PROBES,
    SETUP_REPEATS,
    Outcome,
    SpeedProbe,
    clock,
    e2e_metrics,
    percentile,
    rows_digest,
    scaled_s,
)

#: a surge is a fixed amount of work; it ignores the requested run length
WORK_PER_S = 1
SAMPLE_RATE = 0.05  # share of admitted queries re-executed for the check
PROBE_EVERY = 20  # requests between speed-probe samples
#: a short run: only its set-up is used
SETUP_PROBE = {"duration": 1.0}
#: a reduced surge for tests
SMALL = {
    "records": 1_500,
    "users": 20_000,
    "duration": 40.0,
    "spike_start": 10.0,
    "spike_end": 25.0,
    "broker_kill_at": 15.0,
    "broker_restart_at": 30.0,
}


class _Probe:
    """Times admitted queries and marks the end of set-up."""

    def __init__(self, seed: int, speed: SpeedProbe, tracer=None) -> None:
        self.rng = random.Random(f"perfbench.surge.sample.{seed}")
        self.speed = speed
        self.tracer = tracer
        self.latency_s: list[tuple] = []  # (seconds, speed-probe position)
        self.busy: list[tuple] = []  # pieces of the measured phase, likewise
        self.sample: list[tuple] = []  # (query, digest)
        self.controller = None
        self.setup_end = None
        self._mark = None
        self._depth = 0
        self._patches: list = []

    def lap(self) -> None:
        """Close a piece of the measured phase and sample the speed."""
        self.busy.append((clock() - self._mark, self.speed.position))
        self.speed.sample()
        self._mark = clock()

    def _query(self, orig):
        def wrapper(target, query, *args, **kwargs):
            if self._depth:
                return orig(target, query, *args, **kwargs)
            self._depth += 1
            start = clock()
            try:
                result = orig(target, query, *args, **kwargs)
            finally:
                self._depth -= 1
            self.latency_s.append((clock() - start, self.speed.position))
            if self.controller is None:
                broker = getattr(target, "controller", None)
                self.controller = broker or target.catalog["rides"].broker.controller
            if self.rng.random() < SAMPLE_RATE:
                self.sample.append((query, rows_digest(result.rows)))
            return result

        return wrapper

    def _requests(self, orig):
        def wrapper(workload, *args, **kwargs):
            self.setup_end = self._mark = clock()
            for n, request in enumerate(orig(workload, *args, **kwargs)):
                if n % PROBE_EVERY == 0:
                    self.lap()
                if self.tracer is not None:
                    self.tracer.begin_op(request.request_id)
                yield request

        return wrapper

    def __enter__(self) -> "_Probe":
        from repro.controlplane.workload import SurgeWorkload
        from repro.pinot.broker import PinotBroker
        from repro.sql.presto.engine import PrestoEngine

        for owner, attr, make in (
            (PinotBroker, "execute", self._query),
            (PrestoEngine, "execute", self._query),
            (SurgeWorkload, "requests", self._requests),
        ):
            orig = owner.__dict__[attr]
            self._patches.append((owner, attr, orig))
            setattr(owner, attr, make(orig))
        return self

    def __exit__(self, *exc) -> bool:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)
        return False


def _timed_surge(params: dict, seed: int, speed: SpeedProbe, tracer=None):
    """Run one surge; returns (report, probe, set-up seconds)."""
    from repro.controlplane.surge import run_surge

    with _Probe(seed, speed, tracer) as probe:
        start = clock()
        report = run_surge(params, seed)
        probe.lap()
    return report, probe, probe.setup_end - start


def _recheck(probe: _Probe, corrupt: bool) -> int:
    """Re-execute the sampled queries on a cache-off, reuse-off stack."""
    from repro.pinot.broker import PinotBroker
    from repro.sql.presto.connector import PinotConnector
    from repro.sql.presto.engine import PrestoEngine

    broker = PinotBroker(probe.controller, enable_cache=False, sticky=False)
    engine = PrestoEngine(
        {"rides": PinotConnector(broker, pushdown="full")},
        artifact_reuse=False,
        sticky=False,
    )
    failed = 0
    for n, (query, digest) in enumerate(probe.sample):
        target = engine if isinstance(query, str) else broker
        fresh = rows_digest(target.execute(query).rows)
        if corrupt and n == 0:
            fresh = "corrupted"
        failed += fresh != digest
    return failed


def run(seed, work, tracer=None, corrupt=False, small=False, setups=SETUP_REPEATS):
    """One surge, a fixed amount of work whatever ``work`` says;
    ``setups - 1`` short runs add to the set-up median."""
    params = dict(SMALL) if small else {}
    probe_params = {**params, **SETUP_PROBE}
    speed = SpeedProbe()
    setup_times = []  # (seconds, speed-probe position)
    for __ in range(setups - 1):
        setup_times.append((_timed_surge(probe_params, seed, speed)[2], speed.position))
        for __ in range(SETUP_PROBES):
            speed.sample()
    for __ in range(SETUP_PROBES):
        speed.sample()
    setup_at = speed.position
    report, probe, setup_s = _timed_surge(params, seed, speed, tracer)
    if tracer is not None:
        tracer.uninstall()  # the checks below are not the workload
    setup_times.append((setup_s, setup_at))
    raw_setup_s = statistics.median(s for s, __ in setup_times)
    setup_s = statistics.median(s * speed.scale(pos) for s, pos in setup_times)

    notes = []
    failed = _recheck(probe, corrupt)
    if failed:
        notes.append(f"{failed} sampled queries differ from the reference")
    timed = len(probe.latency_s)
    tiers_met = all(report.tier_met(tier) for tier in report.per_tier)
    invariants = {
        "admitted + shed == requests": report.admitted + report.shed == report.requests,
        "one timed query per admitted request": timed == report.admitted,
        "every tier meets its SLO": tiers_met,
    }
    for name, held in invariants.items():
        if not held:
            failed += 1
            notes.append(f"invariant broken: {name}")
    latency = [(1000.0 * seconds, pos) for seconds, pos in probe.latency_s]
    metrics = e2e_metrics(speed, setup_s, report.requests, probe.busy, latency)
    latency_ms = [ms for ms, __ in latency]
    rate = report.requests / sum(seconds for seconds, __ in probe.busy)
    return Outcome(
        correct=failed == 0,
        attempted=report.requests,
        failed=failed,
        metrics=metrics,
        detail={
            "requests_per_s": rate,
            "query_p50_ms": percentile(latency_ms, 50),
            "query_p95_ms": percentile(latency_ms, 95),
            "query_p97_ms": percentile(latency_ms, 97),
            "query_p99_ms": percentile(latency_ms, 99),
            "requests": report.requests,
            "admitted": report.admitted,
            "shed": report.shed,
            "shed_share": report.shed / report.requests,
            "error_rate": (report.shed + failed) / report.requests,
            "rechecked": len(probe.sample),
            "scale_actions": report.scale_actions,
            "setup_s": raw_setup_s,
            "peak_rss_mb": metrics["peak_rss_mb"],
            "speed_scale": speed.median_scale(),
        },
        wall_s=setup_s + scaled_s(speed, probe.busy),
        notes=notes,
    )
