"""Baseline comparison: the regression gate itself.

A committed ``BENCH_core.json`` is the perf contract; a fresh run is
compared scenario-by-scenario on the deterministic ``rps``.  A scenario
regresses when its throughput drops more than ``DEFAULT_THRESHOLD``
(25%) below the baseline — CI fails on any regression.  Scenarios present
in the baseline but missing from the run also fail (a deleted workload
is not a speedup); scenarios new in the run pass with a note.

Comparisons across different schema or cost-model versions are rejected:
re-weighting the cost model must regenerate baselines, not shift the
gate silently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_THRESHOLD = 0.25


@dataclass
class ScenarioDelta:
    name: str
    baseline_rps: float | None
    current_rps: float | None
    regressed: bool
    note: str = ""

    def render(self) -> str:
        if self.baseline_rps is None:
            return f"  NEW  {self.name}: rps={self.current_rps:,.1f} (no baseline)"
        if self.current_rps is None:
            return f"  FAIL {self.name}: in baseline but not in this run"
        change = self.current_rps / self.baseline_rps - 1.0
        mark = "FAIL" if self.regressed else ("  ok" if change < 0 else "  up")
        return (
            f"  {mark} {self.name}: rps {self.baseline_rps:,.1f} -> "
            f"{self.current_rps:,.1f} ({change:+.1%})"
        )


@dataclass
class BaselineComparison:
    deltas: list[ScenarioDelta] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not any(d.regressed for d in self.deltas)

    @property
    def regressions(self) -> list[ScenarioDelta]:
        return [d for d in self.deltas if d.regressed]

    def render(self) -> str:
        verdict = (
            "no throughput regressions"
            if self.ok
            else f"{len(self.regressions)} scenario(s) regressed "
            f"beyond {DEFAULT_THRESHOLD:.0%}"
        )
        lines = [f"baseline comparison (threshold {DEFAULT_THRESHOLD:.0%}): {verdict}"]
        lines.extend(d.render() for d in self.deltas)
        return "\n".join(lines)


class BaselineError(Exception):
    """Unusable baseline: missing file, version mismatch, bad shape."""


def load_report(path: str | Path) -> dict:
    path = Path(path)
    if not path.exists():
        raise BaselineError(f"baseline file {path} does not exist")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise BaselineError(f"baseline {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "scenarios" not in doc:
        raise BaselineError(f"baseline {path} has no 'scenarios' section")
    return doc


def compare_reports(current: dict, baseline: dict) -> BaselineComparison:
    """Compare two report documents (as emitted by ``build_report``)."""
    for key in ("schema_version", "cost_model_version"):
        if baseline.get(key) != current.get(key):
            raise BaselineError(
                f"baseline {key}={baseline.get(key)} does not match "
                f"current {key}={current.get(key)}; regenerate the baseline"
            )
    comparison = BaselineComparison()
    base_scenarios = baseline["scenarios"]
    cur_scenarios = current["scenarios"]
    for name in sorted(set(base_scenarios) | set(cur_scenarios)):
        base_rps = base_scenarios.get(name, {}).get("rps")
        cur_rps = cur_scenarios.get(name, {}).get("rps")
        if base_rps is None:
            comparison.deltas.append(
                ScenarioDelta(name, None, cur_rps, regressed=False, note="new")
            )
        elif cur_rps is None:
            comparison.deltas.append(
                ScenarioDelta(name, base_rps, None, regressed=True, note="missing")
            )
        else:
            regressed = cur_rps < base_rps * (1.0 - DEFAULT_THRESHOLD)
            comparison.deltas.append(
                ScenarioDelta(name, base_rps, cur_rps, regressed=regressed)
            )
    return comparison
