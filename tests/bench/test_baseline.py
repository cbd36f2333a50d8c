"""Baseline comparison and the CLI regression gate."""

from __future__ import annotations

import json

import pytest

from repro.bench.__main__ import main
from repro.bench.baseline import BaselineError, compare_reports
from repro.bench.costmodel import COST_MODEL_VERSION
from repro.bench.harness import SCHEMA_VERSION


def _report(rps_by_name: dict[str, float], **overrides) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "cost_model_version": COST_MODEL_VERSION,
        "seed": 42,
        "mode": "full",
        "scenarios": {name: {"rps": rps} for name, rps in rps_by_name.items()},
    }
    doc.update(overrides)
    return doc


def test_within_threshold_passes():
    comparison = compare_reports(_report({"a": 80.0}), _report({"a": 100.0}))
    assert comparison.ok
    assert not comparison.regressions


def test_drop_beyond_threshold_fails():
    comparison = compare_reports(_report({"a": 74.0}), _report({"a": 100.0}))
    assert not comparison.ok
    assert [d.name for d in comparison.regressions] == ["a"]


def test_doctored_double_baseline_fails():
    # A baseline doctored to 2x the real throughput makes any honest run
    # a >25% "regression" — the gate must trip.
    current = _report({"a": 100.0, "b": 50.0})
    doctored = _report({"a": 200.0, "b": 100.0})
    comparison = compare_reports(current, doctored)
    assert not comparison.ok
    assert len(comparison.regressions) == 2


def test_missing_scenario_is_a_regression_and_new_is_not():
    comparison = compare_reports(_report({"new_one": 10.0}), _report({"gone": 10.0}))
    by_name = {d.name: d for d in comparison.deltas}
    assert by_name["gone"].regressed
    assert not by_name["new_one"].regressed


def test_version_mismatch_is_rejected():
    with pytest.raises(BaselineError, match="cost_model_version"):
        compare_reports(
            _report({"a": 1.0}),
            _report({"a": 1.0}, cost_model_version=COST_MODEL_VERSION + 1),
        )


def test_cli_gate_exit_codes(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["--quick", "--scenario", "flink_window", "--out", str(out)]) == 0

    # Same-seed rerun against its own report: no regression.
    code = main(
        ["--quick", "--scenario", "flink_window", "--no-out",
         "--baseline", str(out)]
    )
    assert code == 0

    # Doctor the baseline to 2x the measured throughput: gate trips.
    doc = json.loads(out.read_text())
    for scenario in doc["scenarios"].values():
        scenario["rps"] *= 2
    doctored = tmp_path / "doctored.json"
    doctored.write_text(json.dumps(doc))
    code = main(
        ["--quick", "--scenario", "flink_window", "--no-out",
         "--baseline", str(doctored)]
    )
    assert code == 1
    assert "regressed" in capsys.readouterr().out

    # Unusable baseline (missing file) is a usage error, not a pass.
    code = main(
        ["--quick", "--scenario", "flink_window", "--no-out",
         "--baseline", str(tmp_path / "nope.json")]
    )
    assert code == 2
