"""The controlplane_surge scenario: SLO outcomes and registration."""

from __future__ import annotations

from repro.bench.scenarios import SCENARIOS
from repro.controlplane.admission import TIER_ORDER
from tests.controlplane.surge_fixtures import (
    ablation_run,
    controlled_run,
    scatter_run,
)


class TestSloOutcomes:
    def test_control_holds_the_top_tier_slo(self):
        report = controlled_run()
        top = report.per_tier["surge_pricing"]
        assert top["count"] > 0
        assert top["met"], (
            f"surge_pricing p{top['p']:.0%} = {top['latency']:.2f}s "
            f"exceeded its {top['target']:.2f}s target under control"
        )

    def test_ablation_violates_the_top_tier_slo(self):
        report = ablation_run()
        top = report.per_tier["surge_pricing"]
        assert top["count"] > 0
        assert not top["met"]  # the spike is genuinely past capacity

    def test_control_reports_every_tier(self):
        report = controlled_run()
        assert set(report.per_tier) == set(TIER_ORDER)
        assert all(entry["count"] > 0 for entry in report.per_tier.values())


class TestStickyInvisibility:
    """Sticky routing is a pure optimization: decisions and results are
    byte-identical with it off; only the cache/latency telemetry moves."""

    def test_sticky_and_scatter_agree_on_every_digested_byte(self):
        sticky = controlled_run()
        scatter = scatter_run()
        assert sticky.check == scatter.check
        assert sticky.query_digests == scatter.query_digests
        assert sticky.decision_log == scatter.decision_log
        assert (sticky.admitted, sticky.shed) == (
            scatter.admitted,
            scatter.shed,
        )

    def test_sticky_run_engages_the_locality_caches(self):
        stats = controlled_run().cache_stats
        assert stats["scan_share"]["hits"] > 0
        assert 0.0 < stats["scan_share"]["hit_rate"] <= 1.0
        assert stats["queue"]["sticky_submits"] > 0
        assert stats["stage_artifacts"]["hits"] > 0
        # Per-tier broker cache attribution covers every queried tier.
        assert set(stats["broker"]["per_tier"]) <= set(TIER_ORDER)
        assert stats["broker"]["lookups"] > 0

    def test_scatter_run_reports_cold_locality_caches(self):
        stats = scatter_run().cache_stats
        assert stats["scan_share"]["hits"] == 0
        assert stats["scan_share"]["entries"] == 0
        assert stats["queue"]["sticky_submits"] == 0
        # The broker result cache still serves (it is keyed on query +
        # epoch, not on routing) — but its hit *sequence* legitimately
        # differs: stage-artifact hits upstream change how often the
        # exploration tier reaches the broker at all, which shifts the
        # shared LRU.  Only the digested bytes must agree (asserted
        # above); the telemetry may not.
        assert stats["broker"]["lookups"] > 0


class TestScenarioRegistration:
    def _spec(self):
        spec = next(
            (s for s in SCENARIOS if s.name == "controlplane_surge"), None
        )
        assert spec is not None, "controlplane_surge missing from SCENARIOS"
        return spec

    def test_in_quick_set(self):
        assert self._spec().in_quick

    def test_quick_params_keep_the_records_segment_ratio(self):
        # Mode-invariance: quick mode must shrink the workload without
        # changing per-record shape, so the drop-only rps gate stays fair.
        spec = self._spec()
        full = spec.full_params
        quick = spec.quick_params
        assert full["records"] / full["segment_rows"] == (
            quick["records"] / quick["segment_rows"]
        )
        assert quick["control"] and full["control"]

    def test_scenario_produces_an_outcome(self):
        # Drive the scenario fn through the cached small run's params to
        # confirm the Outcome plumbing (records/sim_s/check) is wired.
        from tests.controlplane.surge_fixtures import SMALL_PARAMS, SEED

        outcome = self._spec().fn(dict(SMALL_PARAMS, control=True), SEED)
        assert outcome.records == controlled_run().requests
        assert outcome.sim_s > 0
        assert outcome.check == controlled_run().check
