"""repro.bench harness: schema stability, determinism, quick subset."""

from __future__ import annotations

import json

import pytest

from repro.bench.costmodel import COST_MODEL_VERSION
from repro.bench.harness import (
    SCHEMA_VERSION,
    BenchError,
    report_to_json,
    run_scenarios,
)
from repro.bench.scenarios import SCENARIOS

CORE_SCENARIO_KEYS = {
    "records",
    "ops",
    "allocs",
    "sim_s",
    "virtual_s",
    "rps",
    "check",
    "counters",
}


def test_quick_report_is_byte_identical_across_runs():
    names = ["kafka_produce_fetch", "flink_window"]
    first = report_to_json(run_scenarios(names=names, quick=True))
    second = report_to_json(run_scenarios(names=names, quick=True))
    assert first == second


def test_report_schema_is_stable():
    report = run_scenarios(names=["flink_window"], quick=True)
    doc = json.loads(report_to_json(report))
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["cost_model_version"] == COST_MODEL_VERSION
    assert doc["seed"] == 42
    assert doc["mode"] == "quick"
    assert "wall" not in doc  # wall time is measured by perfbench/, not here
    scenario = doc["scenarios"]["flink_window"]
    assert set(scenario) == CORE_SCENARIO_KEYS
    assert scenario["records"] > 0
    assert scenario["rps"] > 0
    assert scenario["virtual_s"] > 0  # virtual seconds from the cost model


def test_quick_runs_the_smoke_subset_with_smaller_workloads():
    report = run_scenarios(quick=True)
    expected = [spec.name for spec in SCENARIOS if spec.in_quick]
    assert [r.name for r in report.results] == expected
    for spec in SCENARIOS:
        assert spec.quick_params["records"] < spec.full_params["records"]


def test_scenario_results_digest_matches_across_modes():
    # The check digests results, not speed; it differs across workload
    # sizes but must be stable for a fixed (scenario, params, seed).
    one = run_scenarios(names=["pinot_ingest_query"], quick=True)
    two = run_scenarios(names=["pinot_ingest_query"], quick=True)
    assert one.scenario("pinot_ingest_query").check == two.scenario(
        "pinot_ingest_query"
    ).check


def test_unknown_scenario_is_rejected():
    with pytest.raises(BenchError, match="unknown scenario"):
        run_scenarios(names=["does_not_exist"])
