"""Scenario runner: perf counters in, deterministic report out.

A scenario executes once, under :class:`repro.common.perf.measured`,
which enables the global counters for exactly the scenario's duration.
The counter snapshot, priced through the cost model, is the scenario's
virtual time; nothing here reads a wall clock (``perfbench/`` measures
wall time and latency).

Report layout (``BENCH_core.json``)::

    {
      "schema_version": 2,
      "cost_model_version": 1,
      "seed": 42,
      "mode": "full",
      "scenarios": {
        "<name>": {
          "records": ...,   # workload size (records through the pipeline)
          "ops": ...,       # total counted hot-path operations
          "allocs": ...,    # counted allocations (``*_allocs`` counters)
          "sim_s": ...,     # simulated-clock seconds the workload spanned
          "virtual_s": ..., # virtual seconds (cost model over ops)
          "rps": ...,       # records / virtual_s — the regression-gated number
          "check": ...,     # workload-validity checksum (results, not speed)
          "counters": {...} # full counter snapshot
        }
      }
    }

Everything in the file is derived from counted operations and the seeded
workload, so two runs with the same seed produce byte-identical bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from repro.bench.costmodel import (
    COST_MODEL_VERSION,
    alloc_count,
    virtual_us,
)
from repro.bench.scenarios import SCENARIOS, ScenarioSpec
from repro.common.errors import ReproError
from repro.common.perf import PERF, measured
from repro.common.records import reset_uid_counter

SCHEMA_VERSION = 2
DEFAULT_SEED = 42


class BenchError(ReproError):
    """Harness misuse: unknown scenario, malformed baseline, etc."""


@dataclass
class ScenarioResult:
    """One scenario's outcome: counted work and its results digest."""

    name: str
    records: int
    sim_s: float
    check: int
    counters: dict[str, int]

    @property
    def ops(self) -> int:
        return sum(self.counters.values())

    @property
    def virtual_s(self) -> float:
        return virtual_us(self.counters) / 1e6

    @property
    def rps(self) -> float:
        return self.records / self.virtual_s if self.virtual_s else math.inf

    def core_dict(self) -> dict:
        """The deterministic per-scenario JSON fragment."""
        return {
            "records": self.records,
            "ops": self.ops,
            "allocs": alloc_count(self.counters),
            "sim_s": round(self.sim_s, 6),
            "virtual_s": round(self.virtual_s, 6),
            "rps": round(self.rps, 1),
            "check": self.check,
            "counters": dict(sorted(self.counters.items())),
        }


@dataclass
class BenchReport:
    seed: int
    mode: str
    results: list[ScenarioResult] = field(default_factory=list)

    def scenario(self, name: str) -> ScenarioResult:
        for result in self.results:
            if result.name == name:
                return result
        raise BenchError(f"no scenario {name!r} in report")


def run_scenarios(
    names: list[str] | None = None,
    seed: int = DEFAULT_SEED,
    quick: bool = False,
) -> BenchReport:
    """Run the named scenarios (default: all; ``quick`` selects the smoke
    subset and its smaller parameter sets) and collect results."""
    specs = _select(names, quick)
    report = BenchReport(seed=seed, mode="quick" if quick else "full")
    for spec in specs:
        report.results.append(_run_one(spec, seed, quick))
    return report


def _select(names: list[str] | None, quick: bool) -> list[ScenarioSpec]:
    by_name = {spec.name: spec for spec in SCENARIOS}
    if names:
        unknown = [n for n in names if n not in by_name]
        if unknown:
            raise BenchError(
                f"unknown scenario(s) {unknown}; available: {sorted(by_name)}"
            )
        return [by_name[n] for n in names]
    if quick:
        return [spec for spec in SCENARIOS if spec.in_quick]
    return list(SCENARIOS)


def _run_one(spec: ScenarioSpec, seed: int, quick: bool) -> ScenarioResult:
    params = spec.quick_params if quick else spec.full_params
    # Uid strings are stamped from a process-global counter and their
    # length feeds encoded record sizes (so producer batch boundaries);
    # restart it so a scenario's counts don't depend on what ran earlier
    # in this process.
    reset_uid_counter()
    with measured():
        outcome = spec.fn(dict(params), seed)
        counters = PERF.snapshot()
    return ScenarioResult(
        name=spec.name,
        records=outcome.records,
        sim_s=outcome.sim_s,
        check=outcome.check,
        counters=counters,
    )


# -- serialization -------------------------------------------------------------


def build_report(report: BenchReport) -> dict:
    """The report as a JSON-ready dict."""
    return {
        "schema_version": SCHEMA_VERSION,
        "cost_model_version": COST_MODEL_VERSION,
        "seed": report.seed,
        "mode": report.mode,
        "scenarios": {r.name: r.core_dict() for r in report.results},
    }


def report_to_json(report: BenchReport) -> str:
    """Canonical serialization: sorted keys, two-space indent, trailing
    newline.  Byte-identical across runs with the same seed."""
    return json.dumps(build_report(report), indent=2, sort_keys=True) + "\n"


def render_report(report: BenchReport) -> str:
    """Human-readable table of the deterministic metrics."""
    header = f"{'scenario':<22} {'records':>8} {'rps':>12} {'allocs':>9}"
    lines = [f"repro.bench seed={report.seed} mode={report.mode}", header,
             "-" * len(header)]
    for r in report.results:
        core = r.core_dict()
        lines.append(
            f"{r.name:<22} {core['records']:>8} {core['rps']:>12,.1f} "
            f"{core['allocs']:>9}"
        )
    return "\n".join(lines)
