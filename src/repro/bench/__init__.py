"""repro.bench — the machine-readable perf harness and CI regression gate.

The unit benchmarks under ``benchmarks/`` assert the *shape* of the
paper's claims (who wins, roughly by how much) but leave no machine-
readable trajectory: a PR could make the Kafka append path or a Pinot
scan several times slower and CI would stay green.  This package closes
that gap:

* :mod:`repro.bench.scenarios` defines parameterized hot-path workloads —
  Kafka produce→fetch, a Flink window pipeline, Pinot realtime
  ingest+query, a Presto scan — each driven under the simulated clock
  from a single seed.
* :mod:`repro.bench.harness` runs them, collecting records/sec (over
  virtual seconds) and allocation counts from the perf counters threaded
  through the hot paths (:mod:`repro.common.perf`).
* :mod:`repro.bench.baseline` compares a fresh run against a committed
  ``BENCH_core.json`` and flags throughput drops of more than 25%.
* ``python -m repro.bench`` is the CLI; CI runs it with ``--quick
  --baseline BENCH_core.json`` and fails the build on a regression.

The committed JSON is **deterministic**: throughput is derived from
counted hot-path operations through a fixed cost model
(:mod:`repro.bench.costmodel`), so two runs with the same seed emit
byte-identical files on any machine.  This package reads no wall clock;
wall time and per-op latency come from ``perfbench/``.
"""

from repro.bench.baseline import BaselineComparison, compare_reports, load_report
from repro.bench.harness import (
    BenchReport,
    ScenarioResult,
    build_report,
    render_report,
    report_to_json,
    run_scenarios,
)
from repro.bench.scenarios import SCENARIOS, quick_scenario_names, scenario_names

__all__ = [
    "BaselineComparison",
    "BenchReport",
    "SCENARIOS",
    "ScenarioResult",
    "build_report",
    "compare_reports",
    "load_report",
    "quick_scenario_names",
    "render_report",
    "report_to_json",
    "run_scenarios",
    "scenario_names",
]
