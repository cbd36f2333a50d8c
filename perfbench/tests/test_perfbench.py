"""Tests of the wall-clock benchmark, at a small size.

Run from the repository root::

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join("perfbench", "run.py")
WORKLOADS = ("ingest", "serve", "surge")
NAME = re.compile(r"[A-Za-z0-9_.-]+")
SEED = "11"
SECONDS = "0.5"


def _bench(workload: str, trace: int, *extra: str, cwd: str = ROOT):
    return subprocess.run(
        [
            sys.executable,
            RUN,
            "--workload",
            workload,
            "--seed",
            SEED,
            "--seconds",
            SECONDS,
            "--trace",
            str(trace),
            "--small",
            *extra,
        ],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=600,
    )


def _result(proc) -> tuple[list[str], dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.fixture(scope="module")
def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


@pytest.fixture(scope="module")
def readme() -> str:
    with open(os.path.join(ROOT, "perfbench", "README.md")) as f:
        return f.read()


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request) -> dict:
    workload = request.param
    return {
        "workload": workload,
        "untraced": _result(_bench(workload, 0)),
        "traced": [_result(_bench(workload, 1)) for __ in range(2)],
    }


def _counts(metrics: dict) -> dict:
    """Every per-layer value that must repeat exactly for a seed."""
    return {
        name: entry["value"]
        for name, entry in metrics.items()
        if not name.endswith(".self_ms") and name != "trace.overhead_ratio"
    }


def test_same_seed_traced_runs_repeat_every_count(runs):
    (__, first), (__, second) = runs["traced"]
    assert first["correct"] and second["correct"]
    assert _counts(first["metrics"]) == _counts(second["metrics"])
    assert first["attempted"] == second["attempted"]


def test_printed_metrics_are_those_of_benchmark_json(runs, spec, readme):
    detail_lines, untraced = runs["untraced"]
    __, traced = runs["traced"][0]
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {n: m["unit"] for n, m in untraced["metrics"].items()} == e2e
    assert {n: m["unit"] for n, m in traced["metrics"].items()} == per_layer
    assert set(untraced) == set(traced) == {"correct", "attempted", "failed", "metrics"}
    for name in [*e2e, *per_layer]:
        assert NAME.fullmatch(name), name
    # The workload's own figures, printed before the result line, are
    # each documented in perfbench/README.md.
    (detail,) = [line for line in detail_lines if line.startswith("detail ")]
    figures = json.loads(detail.split(" ", 2)[2])
    for name in figures:
        assert NAME.fullmatch(name), name
        assert f"`{name}`" in readme, name
    for entry in untraced["metrics"].values():
        assert entry["value"] > 0


def test_checks_pass_and_error_rate(runs):
    detail_lines, result = runs["untraced"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    (detail,) = [line for line in detail_lines if line.startswith("detail ")]
    figures = json.loads(detail.split(" ", 2)[2])
    if runs["workload"] == "surge":
        # Shed requests count against error_rate, and only they do.
        assert figures["error_rate"] == figures["shed_share"]
    else:
        assert figures["error_rate"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_reference_digest_raises_error_rate(workload):
    detail_lines, result = _result(_bench(workload, 0, "--corrupt-reference"))
    assert not result["correct"]
    assert result["failed"] > 0
    (detail,) = [line for line in detail_lines if line.startswith("detail ")]
    figures = json.loads(detail.split(" ", 2)[2])
    baseline = figures.get("shed_share", 0.0)
    assert figures["error_rate"] > baseline


def test_ingest_check_counts_windows_missing_at_the_end(monkeypatch):
    """A cube that stops short of the windows the produced stream closed
    (a stuck watermark, a dropped sink) fails the check."""
    monkeypatch.syspath_prepend(ROOT)
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    from perfbench import ingest

    events = ingest.Events(int(SEED))
    pipe = ingest.Pipeline()
    for tick in range(1, 120):
        pipe.tick(events.until(tick * ingest.TICK_S))
    actual = ingest.cube_rows(pipe)
    expected = ingest.reference_cube(pipe.produced)
    closed = ingest.closed_until(pipe.produced)
    assert ingest.cube_failures(actual, expected, closed) == 0
    last = max(key[2] for key in actual)
    trimmed = {key: cell for key, cell in actual.items() if key[2] < last}
    assert ingest.cube_failures(trimmed, expected, closed) > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = _bench("serve", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip()
