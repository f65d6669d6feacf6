"""Blocking-cost coverage across every crash scenario: every registered
protocol the scenario applies to -- the blocking ones and the 3PC
termination path -- with the event stream proving the stalled run is
indistinguishable from the same run without the stall right up to the
crash instant.
"""

import pytest

from repro.config import ModelParams
from repro.core import PROTOCOL_NAMES
from repro.failures import run_crash_scenario
from repro.obs import EventLog
from repro.obs.events import EventKind

CRASH_MS = 5_000.0
TIMEOUT_MS = 500.0
TXNS = 150
SEED = 11

#: the master's stall strands prepared cohorts until it returns.
BLOCKING = ("2PC", "PA", "PC", "OPT", "OPT-PA", "OPT-PC", "EP", "UV")
#: precommitted cohorts terminate among themselves.
NONBLOCKING = ("3PC", "OPT-3PC")
ALL = BLOCKING + NONBLOCKING
#: protocols the scenario does not apply to, and why.
NOT_APPLICABLE = {
    "LIN-2PC": "decides elsewhere",   # the chain tail decides
    "OPT-LIN": "decides elsewhere",
    "CENT": "never prepare",          # cohorts hold no prepared locks
    "DPCC": "never prepare",
}
PREFIX = ("2PC", "PA", "PC", "3PC", "OPT", "PAXOS", "EP", "UV")


def _params():
    return ModelParams(mpl=4)


@pytest.fixture(scope="module")
def reports():
    return {name: run_crash_scenario(
        name, crash_duration_ms=CRASH_MS, decision_timeout_ms=TIMEOUT_MS,
        params=_params(), measured_transactions=TXNS, seed=SEED)
        for name in ALL}


class TestUnblockLatencyOrdering:
    @pytest.mark.parametrize("protocol", BLOCKING)
    def test_every_blocking_protocol_blocks_for_the_outage(self, reports,
                                                           protocol):
        latency = reports[protocol].unblock_latency_ms
        # Cohorts hold their locks until the master recovers: the
        # unblock latency is the crash duration plus protocol rounds.
        assert CRASH_MS <= latency < CRASH_MS + 2_000.0

    def test_3pc_unblocks_at_the_decision_timeout(self, reports):
        for protocol in NONBLOCKING:
            latency = reports[protocol].unblock_latency_ms
            assert TIMEOUT_MS <= latency < CRASH_MS / 2, (
                f"{protocol}'s termination protocol must release locks "
                "on the decision timeout, not at master recovery")

    def test_strict_ordering_nonblocking_beats_all_blocking(self, reports):
        worst_3pc = max(reports[protocol].unblock_latency_ms
                        for protocol in NONBLOCKING)
        for protocol in BLOCKING:
            assert worst_3pc < reports[protocol].unblock_latency_ms

    @pytest.mark.parametrize("protocol", ALL)
    def test_every_target_cohort_releases(self, reports, protocol):
        assert len(reports[protocol].release_times_ms) == \
            _params().dist_degree

    def test_every_registered_protocol_is_classified(self):
        # PAXOS (F=1) blocks too, but only because its takeover refuses
        # to decide once ACCEPT records exist: an open finding, not a
        # property to pin.
        classified = set(ALL) | set(NOT_APPLICABLE) | {"PAXOS"}
        assert classified == set(PROTOCOL_NAMES)

    @pytest.mark.parametrize("protocol", sorted(NOT_APPLICABLE))
    def test_scenario_rejects_inapplicable_protocol(self, protocol):
        with pytest.raises(RuntimeError, match=NOT_APPLICABLE[protocol]):
            run_crash_scenario(
                protocol, crash_duration_ms=CRASH_MS,
                decision_timeout_ms=TIMEOUT_MS, params=_params(),
                measured_transactions=TXNS, seed=SEED)


class TestEventStreamPrefix:
    """A stalled run must look exactly like the same run without the
    stall until the crash: same events, same order, same timestamps.

    The reference keeps the fault plane armed (the stall aimed at a
    transaction beyond the run): armed waits race their deadlines,
    which orders same-timestamp events differently from an unarmed
    run, so only an armed run is the like-for-like baseline.
    """

    @pytest.mark.parametrize("protocol", PREFIX)
    def test_prefix_identical_to_healthy_run(self, protocol):
        crash_log = EventLog()
        report = run_crash_scenario(
            protocol, crash_duration_ms=CRASH_MS,
            decision_timeout_ms=TIMEOUT_MS, params=_params(),
            measured_transactions=TXNS, seed=SEED, event_log=crash_log)

        # The same scenario, stalling a transaction the run never
        # reaches: it raises, and the log holds the whole run.
        healthy_log = EventLog()
        with pytest.raises(RuntimeError, match="never reached"):
            run_crash_scenario(
                protocol, crash_duration_ms=CRASH_MS,
                decision_timeout_ms=TIMEOUT_MS, target_txn_id=10 * TXNS,
                params=_params(), measured_transactions=TXNS, seed=SEED,
                event_log=healthy_log)

        crash_time = report.crash_time_ms
        crash_prefix = crash_log.as_dicts(until=crash_time)
        healthy_prefix = healthy_log.as_dicts(until=crash_time)
        assert len(crash_prefix) > 500, "prefix too short to be meaningful"
        assert crash_prefix == healthy_prefix
        # ... and the streams diverge after it: the injected run
        # records the crash, the healthy run never does.
        assert len(crash_log.of_kind(EventKind.SITE_CRASH)) == 1
        if protocol in BLOCKING + ("PAXOS",):
            # Blocking masters must recover to finish their protocol;
            # a 3PC run can end before the stalled master's timer fires
            # (its cohorts already terminated without it).
            assert len(crash_log.of_kind(EventKind.SITE_RECOVER)) == 1
        assert healthy_log.of_kind(EventKind.SITE_CRASH) == []
