"""Tests for lifecycle tracing: an :class:`EventLog` over the
transaction lifecycle kinds."""

import repro
from repro.config import ModelParams
from repro.obs import EventLog
from repro.obs.events import EventKind

#: the lifecycle kinds a trace of submissions, outcomes, lending,
#: shelving and victims records.
LIFECYCLE = (EventKind.TXN_SUBMIT, EventKind.TXN_RESTART,
             EventKind.TXN_COMMIT, EventKind.TXN_ABORT, EventKind.BORROW,
             EventKind.SHELF_ENTER, EventKind.DEADLOCK_VICTIM,
             EventKind.LENDER_ABORT)


def traced_run(protocol="OPT", limit=None, **overrides):
    defaults = dict(num_sites=4, db_size=400, mpl=4, dist_degree=2,
                    cohort_size=3)
    defaults.update(overrides)
    system = repro.build_system(protocol, params=ModelParams(**defaults))
    log = EventLog(kinds=LIFECYCLE, limit=limit).attach(system.bus)
    result = system.run(measured_transactions=150, warmup_transactions=0)
    return log, result


class TestTracer:
    def test_records_submissions_and_commits(self):
        log, result = traced_run()
        submits = log.of_kind(EventKind.TXN_SUBMIT)
        commits = log.of_kind(EventKind.TXN_COMMIT)
        assert len(submits) > 0
        assert len(commits) >= 150

    def test_borrows_traced_for_opt(self):
        log, result = traced_run("OPT")
        borrows = log.of_kind(EventKind.BORROW)
        # Warmup is zero, so the log saw exactly the measured borrows
        # (the metrics collector counts the same bus events).
        assert len(borrows) == round(result.borrow_ratio
                                     * result.committed)
        assert borrows, "contended OPT run must borrow"
        for event in borrows[:5]:
            assert 0 <= event.page < 400
            assert event.cohort.site.site_id == event.site_id

    def test_no_borrows_for_2pc(self):
        log, _ = traced_run("2PC")
        assert log.of_kind(EventKind.BORROW) == []

    def test_restarts_follow_aborts(self):
        log, result = traced_run("2PC")
        aborts = log.of_kind(EventKind.TXN_ABORT)
        restarts = log.of_kind(EventKind.TXN_RESTART)
        if aborts:
            assert restarts, "every abort must eventually restart"
            # Each restart is an aborted transaction's successor
            # incarnation (same txn id, later incarnation).
            aborted_ids = {e.txn.txn_id for e in aborts}
            assert {e.txn.txn_id for e in restarts} <= aborted_ids
            first_abort = {}
            for event in aborts:
                first_abort.setdefault(event.txn.txn_id, event.time)
            for event in restarts:
                assert event.time >= first_abort[event.txn.txn_id]
                assert event.txn.incarnation > 0

    def test_deadlock_victims_tagged(self):
        log, result = traced_run("2PC", db_size=160, mpl=6)
        if result.aborts_by_reason.get("deadlock"):
            assert log.of_kind(EventKind.DEADLOCK_VICTIM)

    def test_limit_caps_memory(self):
        log, _ = traced_run(limit=10)
        assert len(log) == 10

    def test_tracing_does_not_change_results(self):
        plain = repro.simulate("OPT", mpl=4, num_sites=4, db_size=400,
                               dist_degree=2, cohort_size=3,
                               measured_transactions=150,
                               warmup_transactions=0)
        _, traced = traced_run("OPT")
        assert traced.throughput == plain.throughput
        assert traced.aborted == plain.aborted
