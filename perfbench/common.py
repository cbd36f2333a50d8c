"""Shared pieces of the workloads: outcomes, the speed probe, set-up
timing, percentiles, result digests and memory."""

from __future__ import annotations

import hashlib
import resource
import statistics
import time
from dataclasses import dataclass, field

clock = time.perf_counter

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: speed-probe samples taken after each set-up
SETUP_PROBES = 20
#: Size of the speed probe's work, and the probe time timings are scaled
#: to (about the probe's median on the 2-core VM the bounds were set on).
PROBE_LOOP = 40_000
PROBE_KEYS = 1500
NOMINAL_PROBE_S = 0.0027
#: probe samples whose median sets the speed around one point of a run
PROBE_WINDOW = 21


def _probe_work() -> None:
    """Plain Python of the program's kinds, calling nothing of the
    program: interpreter arithmetic, then allocation, string keys, dict
    lookups and a sort.  The workloads' costs follow the machine's speed
    in different proportions of the two (``surge`` closer to the first,
    ``serve`` and ``ingest`` closer to the second), so the probe times
    both, in about equal parts."""
    x = 0
    for i in range(PROBE_LOOP):
        x += i
    table = {}
    for i in range(PROBE_KEYS):
        table[f"k{i}"] = (i, float(i), [i])
    total = 0
    for i in range(PROBE_KEYS):
        total += table[f"k{(i * 7) % PROBE_KEYS}"][0]
    sorted(table, reverse=True)


class SpeedProbe:
    """Samples the machine's speed during a run.

    On a shared VM the speed of plain Python code drifts by a third within
    seconds and across minutes (see perfbench/README.md), and a run's
    figures drift with it.  A run samples a fixed piece of work between
    its ops, outside every timed region, and notes ``position`` with each
    timing; ``scale(position)`` turns seconds measured there into seconds
    at the nominal probe speed, from the median of the ``PROBE_WINDOW``
    samples around it.  The end-to-end timings of two runs then compare
    the program, not the moments they ran at.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    @property
    def position(self) -> int:
        return len(self.samples)

    def sample(self) -> None:
        start = clock()
        _probe_work()
        self.samples.append(clock() - start)

    def scale(self, position: int) -> float:
        last = len(self.samples) - PROBE_WINDOW
        low = max(0, min(position - PROBE_WINDOW // 2, last))
        window = self.samples[low : low + PROBE_WINDOW]
        return NOMINAL_PROBE_S / statistics.median(window)

    def median_scale(self) -> float:
        """The whole run's scale (reported as ``speed_scale``)."""
        return NOMINAL_PROBE_S / statistics.median(self.samples)


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    correct: bool
    attempted: int
    failed: int
    #: end-to-end metrics (BENCHMARK.json names) -> value; timings are
    #: scaled to the nominal speed-probe time
    metrics: dict
    #: the workload's own named figures (see perfbench/README.md)
    detail: dict = field(default_factory=dict)
    #: seconds of set-up plus measured phase at the nominal probe speed
    #: (the traced run's cost, for the tracing overhead)
    wall_s: float = 0.0
    notes: list = field(default_factory=list)


#: the end-to-end metrics of BENCHMARK.json and their units
E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p97_ms": "ms",
    "peak_rss_mb": "MB",
}


def scaled_s(probe: SpeedProbe, pieces) -> float:
    """Total of ``(seconds, position)`` pieces at the nominal probe speed."""
    return sum(seconds * probe.scale(pos) for seconds, pos in pieces)


def e2e_metrics(probe: SpeedProbe, setup_s, ops: int, busy, latency_ms) -> dict:
    """The end-to-end metrics, timings scaled to the nominal probe speed.

    ``busy`` holds ``(seconds, position)`` pieces of the measured phase,
    ``latency_ms`` holds ``(ms, position)`` samples; ``setup_s`` is
    already scaled."""
    latency = [ms * probe.scale(pos) for ms, pos in latency_ms]
    return {
        "setup_s": setup_s,
        "ops_per_s": ops / scaled_s(probe, busy),
        "latency_p50_ms": percentile(latency, 50),
        "latency_p97_ms": percentile(latency, 97),
        "peak_rss_mb": peak_rss_mb(),
    }


def ingest_until_caught_up(controller, ingestion) -> None:
    """Drive Pinot ingestion and segment backup until the table has
    consumed its topic and no partition waits on a backup."""
    while True:
        rows = ingestion.run_step()
        controller.backup.run_step()
        blocked = any(p.blocked() for p in ingestion.partitions.values())
        if rows == 0 and ingestion.lag() == 0 and not blocked:
            return


def percentile(values, q: float) -> float:
    """Interpolated percentile ``q`` (0..100) of a non-empty sample."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[round(q) - 1]


def rows_digest(rows) -> str:
    """Order-free digest of result rows (dicts)."""
    canon = sorted(repr(sorted(row.items())) for row in rows)
    return hashlib.blake2b(repr(canon).encode(), digest_size=12).hexdigest()


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median_setup(prepare, build, repeats: int, probe: SpeedProbe):
    """Set up ``repeats`` times from fresh inputs; return the last set-up,
    the median set-up seconds, and the median of the set-up seconds each
    scaled by the probe samples taken after it.  ``prepare()`` makes the
    inputs and is not timed; ``build(inputs)`` is."""
    times = []
    scaled = []
    built = None
    for __ in range(repeats):
        built = None  # let the previous set-up go before the next one
        inputs = prepare()
        start = clock()
        built = build(inputs)
        times.append(clock() - start)
        for __ in range(SETUP_PROBES):
            probe.sample()
        scaled.append(times[-1] * probe.scale(probe.position - SETUP_PROBES // 2))
    return built, statistics.median(times), statistics.median(scaled)
