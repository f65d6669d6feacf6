"""Failure injection: what "blocking" actually costs.

The paper compares commit protocols under failure-free operation and
argues (Section 2.4) that blocking protocols can bring transaction
processing to a halt when a master fails at the wrong moment, while 3PC
survives.  This module makes that argument measurable -- an extension
beyond the paper's experiments (DESIGN.md section 6), run on the fault
plane (:class:`~repro.faults.DecisionStall`):

- one designated transaction's master goes silent just before forcing
  its COMMIT record, with every cohort prepared (3PC: precommitted);
- under a **blocking** protocol, the prepared cohorts find no decision
  to read and hold their update locks until the master recovers
  (``crash_duration_ms`` later) and completes the protocol;
- under **3PC** the cohorts time out (``decision_timeout_ms``), run the
  termination protocol among themselves -- paying a round of messages --
  and commit from the precommitted state without the master;
- everything else keeps running, piling up behind the stalled
  transaction's locks.

The report gives the cohorts' *unblock latency* (crash to last lock
release) and the system throughput during the outage window.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.config import ModelParams
from repro.core import create_protocol
from repro.db.system import DistributedSystem
from repro.db.wal import LogRecordKind
from repro.faults import DecisionStall, FaultConfig, FaultTimeouts
from repro.obs.events import EventKind
from repro.obs.recorder import EventLog

#: a deadline no run reaches: in the scenario only the cohorts'
#: decision wait may time out (the others stay the healthy waits).
_NEVER_MS = 1e12


@dataclasses.dataclass
class BlockingReport:
    """Outcome of one master-crash scenario."""

    protocol: str
    crash_time_ms: float
    #: when each crashed-transaction cohort released its locks.
    release_times_ms: list[float]
    #: committed transactions during the outage window.
    committed_during_outage: int
    outage_window_ms: float

    @property
    def unblock_latency_ms(self) -> float:
        """Crash to last lock release."""
        if not self.release_times_ms:
            return 0.0
        return max(self.release_times_ms) - self.crash_time_ms

    @property
    def outage_throughput(self) -> float:
        """Committed transactions per second during the outage."""
        if self.outage_window_ms <= 0:
            return 0.0
        return self.committed_during_outage / (self.outage_window_ms / 1000)

    def summary(self) -> str:
        return (f"{self.protocol:>4}: cohorts blocked for "
                f"{self.unblock_latency_ms:8.1f} ms after the crash; "
                f"throughput during outage "
                f"{self.outage_throughput:6.2f} txn/s")


def run_crash_scenario(protocol: str,
                       crash_duration_ms: float = 20_000.0,
                       decision_timeout_ms: float = 500.0,
                       target_txn_id: int = 40,
                       params: ModelParams | None = None,
                       measured_transactions: int = 600,
                       seed: int | None = None,
                       event_log: EventLog | None = None) -> BlockingReport:
    """Stall the designated transaction's master; report the damage.

    ``protocol`` is any registered protocol name.  Pass an
    :class:`~repro.obs.recorder.EventLog` as ``event_log`` to capture
    the run's full event stream (e.g. to show it is identical to an
    unstalled run's right up to the crash).  Raises ``RuntimeError``
    when the scenario does not apply: the target never decides, another
    agent decides (LIN-2PC's chain tail), or no cohort prepares (CENT).
    """
    if params is None:
        params = ModelParams(mpl=4)
    name = protocol.upper()
    faults = FaultConfig(
        decision_stall=DecisionStall(target_txn_id, crash_duration_ms),
        timeouts=FaultTimeouts(work_timeout_ms=_NEVER_MS,
                               vote_timeout_ms=_NEVER_MS,
                               decision_timeout_ms=decision_timeout_ms,
                               ack_timeout_ms=_NEVER_MS))
    system = DistributedSystem(params, create_protocol(name), seed=seed,
                               faults=faults)
    if event_log is not None:
        event_log.attach(system.bus)

    log = EventLog(kinds=(EventKind.SITE_CRASH, EventKind.LOCK_RELEASE))
    log.attach(system.bus)
    system.run(measured_transactions=measured_transactions,
               warmup_transactions=0)
    # The stall publishes the master's SITE_CRASH; each of the target's
    # cohorts, one committed-path LOCK_RELEASE (at its own site).
    crashes = log.of_kind(EventKind.SITE_CRASH)
    release_times = [event.time
                     for event in log.of_kind(EventKind.LOCK_RELEASE)
                     if event.committed
                     and event.cohort.txn.txn_id == target_txn_id]
    if not crashes:
        if release_times:
            raise RuntimeError(f"{name} decides elsewhere: transaction "
                               f"{target_txn_id}'s master never forced "
                               "a COMMIT record to stall before")
        raise RuntimeError(
            "the target transaction never reached its commit phase; "
            "increase measured_transactions or lower target_txn_id")
    crash_time = crashes[0].time
    released = [t for t in release_times if t >= crash_time]
    if not released:
        raise RuntimeError(f"{name} cohorts never prepare: no lock of "
                           f"transaction {target_txn_id} outlived the "
                           "stall")
    outage_end = crash_time + crash_duration_ms
    committed_in_window = _commits_between(system, crash_time, outage_end)
    return BlockingReport(
        protocol=name,
        crash_time_ms=crash_time,
        release_times_ms=released,
        committed_during_outage=committed_in_window,
        outage_window_ms=crash_duration_ms)


def _commits_between(system: DistributedSystem, start: float,
                     end: float) -> int:
    """Commits that completed inside [start, end] (from the WAL)."""
    count = 0
    seen: set[int] = set()
    for site in system.sites:
        for record in site.log_manager.records:
            if record.kind is LogRecordKind.COMMIT and record.forced \
                    and start <= record.time <= end \
                    and record.txn_id not in seen:
                seen.add(record.txn_id)
                count += 1
    return count


def compare_blocking(crash_duration_ms: float = 20_000.0,
                     measured_transactions: int = 600,
                     params: ModelParams | None = None,
                     protocols: typing.Sequence[str] = ("2PC", "3PC"),
                     seed: int | None = None,
                     ) -> dict[str, BlockingReport]:
    """Run the crash scenario under each protocol; return the reports.

    Defaults to the headline 2PC-vs-3PC comparison; pass e.g.
    ``protocols=("2PC", "PA", "PC", "3PC")`` for the presumption
    variants too, or any other registered protocol names.  A shared
    ``seed`` gives every protocol the identical workload, so differences
    in the reports are the protocols' alone.
    """
    return {name: run_crash_scenario(
        name, crash_duration_ms=crash_duration_ms,
        measured_transactions=measured_transactions, params=params,
        seed=seed)
        for name in protocols}
