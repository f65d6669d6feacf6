"""Tests for the master-crash (blocking analysis) extension."""

import pytest

from repro.config import ModelParams
from repro.failures import (
    BlockingReport,
    compare_blocking,
    run_crash_scenario,
)


@pytest.fixture(scope="module")
def reports():
    return compare_blocking(crash_duration_ms=10_000.0,
                            measured_transactions=200)


class TestCrashScenarios:
    def test_blocking_protocol_blocks_for_the_whole_outage(self, reports):
        report = reports["2PC"]
        # Cohorts unblock only at recovery: latency ~ crash duration.
        assert report.unblock_latency_ms >= 10_000.0
        assert report.unblock_latency_ms < 12_000.0

    def test_3pc_termination_unblocks_quickly(self, reports):
        report = reports["3PC"]
        assert report.unblock_latency_ms < 2_000.0, (
            "the termination protocol must release locks long before "
            "the master recovers")

    def test_nonblocking_sustains_throughput_through_outage(self, reports):
        assert (reports["3PC"].outage_throughput
                > 2.0 * reports["2PC"].outage_throughput)

    def test_all_target_cohorts_eventually_release(self, reports):
        for report in reports.values():
            assert len(report.release_times_ms) == 3  # dist_degree


class TestScenarioMechanics:
    def test_pa_and_pc_also_block(self):
        for protocol in ("PA", "PC"):
            report = run_crash_scenario(
                protocol, crash_duration_ms=5_000.0,
                measured_transactions=150)
            assert report.unblock_latency_ms >= 5_000.0

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            run_crash_scenario("NOPE")

    def test_target_never_reached_raises(self):
        with pytest.raises(RuntimeError, match="never reached"):
            run_crash_scenario("2PC", target_txn_id=10_000,
                               measured_transactions=30)

    def test_custom_params(self):
        params = ModelParams(num_sites=4, db_size=2000, mpl=2,
                             dist_degree=2, cohort_size=3)
        report = run_crash_scenario("2PC", crash_duration_ms=3_000.0,
                                    params=params, target_txn_id=15,
                                    measured_transactions=100)
        assert len(report.release_times_ms) == 2
        assert report.unblock_latency_ms >= 3_000.0

    def test_report_summary_format(self, reports):
        text = reports["2PC"].summary()
        assert "2PC" in text and "blocked" in text

    def test_report_edge_cases(self):
        empty = BlockingReport("2PC", 0.0, [], 0, 0.0)
        assert empty.unblock_latency_ms == 0.0
        assert empty.outage_throughput == 0.0
