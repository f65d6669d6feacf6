"""The commit protocol interface.

A protocol supplies two generator methods -- the master side and the
cohort side of commit processing -- written against the agent primitives
(:meth:`~repro.db.transaction.Agent.send`,
:meth:`~repro.db.transaction.Agent.recv`,
:meth:`~repro.db.transaction.Agent.force_log`,
:meth:`~repro.db.transaction.Agent.log`).  Because message and log costs
are charged inside those primitives, the per-protocol overhead counts of
the paper's Tables 3 and 4 fall out of the implementation for free.

The 2PC family shares one decision phase (``master_decide`` /
``cohort_decide``) whose costs follow from the protocol's
:class:`Presumption` (paper Section 2).
"""

from __future__ import annotations

import abc
import enum
import typing

from repro.db.messages import MessageKind
from repro.db.transaction import (
    AbortReason,
    Agent,
    CohortAgent,
    CohortState,
    MasterAgent,
    TransactionOutcome,
)
from repro.db.wal import LogRecordKind
from repro.obs.events import CommitPhase, EventKind, TxnResolvedInDoubt
from repro.sim.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.site import Site
    from repro.db.system import DistributedSystem

MasterGenerator = typing.Generator[Event, typing.Any, TransactionOutcome]
CohortGenerator = typing.Generator[Event, typing.Any, None]

#: The log record that makes each decision message's outcome durable.
DECISION_RECORDS = {MessageKind.COMMIT: LogRecordKind.COMMIT,
                    MessageKind.ABORT: LogRecordKind.ABORT}


class Presumption(enum.Enum):
    """What a coordinator with no decision record assumes.

    The value is the presumed decision, or None when nothing is presumed.
    docs/MODEL.md tabulates the decision costs each one sets.
    """

    NOTHING = None               # 2PC
    ABORT = MessageKind.ABORT    # PA
    COMMIT = MessageKind.COMMIT  # PC


def _write(agent: Agent, record: LogRecordKind, forced: bool,
           ) -> typing.Generator[Event, typing.Any, None]:
    """Append ``record`` to ``agent``'s log, forced or not."""
    if forced:
        yield from agent.force_log(record)
    else:
        agent.log(record)


class CommitProtocol(abc.ABC):
    """Base class for all commit protocols."""

    #: registry name, e.g. ``"2PC"``.
    name: str = "abstract"
    #: True for OPT variants: prepared cohorts lend their update locks.
    lending: bool = False
    #: True for protocols with an extra (precommit) phase.
    non_blocking: bool = False
    #: what a coordinator with no decision record assumes; sets every
    #: decision cost of :meth:`master_decide` / :meth:`cohort_decide`.
    presumption: Presumption = Presumption.NOTHING

    def __init__(self) -> None:
        self.system: "DistributedSystem | None" = None

    def bind(self, system: "DistributedSystem") -> None:
        """Attach to the system being simulated (called by the system)."""
        self.system = system

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def master_commit(self, master: MasterAgent) -> MasterGenerator:
        """The master's commit processing; returns the outcome."""

    @abc.abstractmethod
    def cohort_commit(self, cohort: CohortAgent) -> CohortGenerator:
        """The cohort's commit processing (from awaiting PREPARE on)."""

    def send_workdone(self, cohort: CohortAgent,
                      ) -> typing.Generator[Event, typing.Any, None]:
        """Report work completion to the master.

        Protocols that piggyback information on the completion report
        (e.g. Unsolicited Vote's YES votes) override this.
        """
        master = cohort.master
        assert master is not None
        yield from cohort.send(MessageKind.WORKDONE, master)

    def master_begin(self, master: MasterAgent,
                     ) -> typing.Generator[Event, typing.Any, None]:
        """Work the master must do *before* starting its cohorts.

        Early Prepare, for instance, must have its membership
        (collecting) record stable before any cohort can unilaterally
        prepare.  Default: nothing.
        """
        return
        yield  # pragma: no cover - makes this a generator

    # ------------------------------------------------------------------
    # Shared building blocks
    # ------------------------------------------------------------------
    def collect_votes(self, master: MasterAgent,
                      ) -> typing.Generator[Event, typing.Any, bool]:
        """Send PREPARE to every cohort and gather the votes.

        Returns True iff every vote was YES.  YES-voters are recorded in
        ``master.prepared_cohorts`` (the set phase two must talk to);
        read-only voters (when the optimization is enabled) are recorded
        in ``master.read_only_cohorts`` and excluded from phase two.
        Under presumed commit the collecting record (the cohort roster)
        is forced first: it must be stable before any cohort prepares.
        """
        assert self.system is not None
        if self.presumption is Presumption.COMMIT:
            yield from master.force_log(LogRecordKind.COLLECTING)
        master.prepared_cohorts = []
        master.read_only_cohorts = []
        for cohort in master.cohorts:
            yield from master.send(MessageKind.PREPARE, cohort)
        all_yes = True
        ft = self.system.fault_timeouts
        expected = len(master.cohorts)
        while expected:
            if ft is None:
                message = yield master.recv()
            else:
                message = yield from master.recv_wait(ft.vote_timeout_ms,
                                                      wait="votes")
                if message is None:
                    # A vote (or its PREPARE) is missing: abort.  The
                    # silent cohorts resolve via WAL replay / inquiry.
                    if master.txn.abort_reason is None:
                        master.txn.abort_reason = AbortReason.TIMEOUT
                    all_yes = False
                    break
            if message.kind is MessageKind.VOTE_YES:
                master.prepared_cohorts.append(message.sender)
                expected -= 1
            elif message.kind is MessageKind.VOTE_READ_ONLY:
                master.read_only_cohorts.append(message.sender)
                expected -= 1
            elif message.kind is MessageKind.VOTE_NO:
                all_yes = False
                expected -= 1
            elif ft is None:  # pragma: no cover - protocol violation
                raise RuntimeError(f"unexpected vote {message!r}")
            # else: stray (late/duplicate) traffic under faults; ignore.
        master.mark_phase(CommitPhase.DECIDE)
        return all_yes

    def cohort_vote(self, cohort: CohortAgent,
                    ) -> typing.Generator[Event, typing.Any, str]:
        """The cohort's voting step; returns ``"yes"``, ``"no"`` or
        ``"read_only"``.

        A NO vote is a unilateral abort: the cohort undoes locally and
        never waits for a decision (see :meth:`vote_no`).
        """
        assert self.system is not None
        master = cohort.master
        assert master is not None
        ft = self.system.fault_timeouts
        if ft is None:
            message = yield cohort.recv()
            assert message.kind is MessageKind.PREPARE, message
        else:
            while True:
                message = yield from cohort.recv_wait(ft.work_timeout_ms,
                                                      wait="prepare")
                if message is None or message.kind is MessageKind.ABORT:
                    # PREPARE never came (lost, or the master is gone) or
                    # the master already aborted.  Nothing was promised:
                    # abort unilaterally.
                    cohort.log(LogRecordKind.ABORT)
                    cohort.implement_abort()
                    if message is None:
                        # Tell a master that may still be collecting.
                        yield from cohort.send(MessageKind.VOTE_NO, master)
                    return "no"
                if message.kind is MessageKind.PREPARE:
                    break
                # stray traffic; keep waiting.
        if self.system.surprise_no_vote():
            yield from self.vote_no(cohort)
            return "no"
        if (self.system.params.read_only_optimization
                and cohort.access.is_read_only):
            # Read-only optimization: one-phase finish, no log records.
            cohort.implement_commit()
            yield from cohort.send(MessageKind.VOTE_READ_ONLY, master)
            return "read_only"
        yield from cohort.force_log(LogRecordKind.PREPARE)
        cohort.state = CohortState.PREPARED
        # Entering the prepared state releases read locks and -- for OPT
        # protocols -- makes the update locks lendable.
        cohort.site.lock_manager.prepare(cohort)
        yield from cohort.send(MessageKind.VOTE_YES, master)
        return "yes"

    def vote_no(self, cohort: CohortAgent,
                ) -> typing.Generator[Event, typing.Any, None]:
        """Abort unilaterally and vote NO.  The abort record is forced
        unless abort is the presumed outcome."""
        assert cohort.master is not None
        yield from _write(cohort, LogRecordKind.ABORT,
                          self.presumption is not Presumption.ABORT)
        cohort.implement_abort()
        yield from cohort.send(MessageKind.VOTE_NO, cohort.master)

    def master_decide(self, master: MasterAgent, kind: MessageKind,
                      ) -> typing.Generator[Event, typing.Any, None]:
        """Log the decision ``kind`` (COMMIT or ABORT; forced unless it
        is a presumed abort), send it to the prepared cohorts and, unless
        it is the presumed outcome, await their ACKs and log the end."""
        yield from _write(master, DECISION_RECORDS[kind],
                          self.presumption is not Presumption.ABORT
                          or kind is MessageKind.COMMIT)
        for cohort in master.prepared_cohorts:
            yield from master.send(kind, cohort)
        if kind is not self.presumption.value:
            master.mark_phase(CommitPhase.ACK)
            yield from self.collect_acks(master, MessageKind.ACK,
                                         len(master.prepared_cohorts))
            master.log(LogRecordKind.END)

    def cohort_decide(self, cohort: CohortAgent, kind: MessageKind,
                      ) -> typing.Generator[Event, typing.Any, None]:
        """Implement the decision ``kind`` (COMMIT or ABORT) received from
        the master.  A decision other than the presumed one is forced
        and acknowledged; the presumed one is logged lazily, no ACK."""
        assert cohort.master is not None
        acknowledged = kind is not self.presumption.value
        yield from _write(cohort, DECISION_RECORDS[kind], acknowledged)
        if kind is MessageKind.COMMIT:
            cohort.implement_commit()
        else:
            cohort.implement_abort()
        if acknowledged:
            yield from cohort.send(MessageKind.ACK, cohort.master)

    def abort_outcome(self, master: MasterAgent) -> TransactionOutcome:
        """Record a protocol-level (surprise-vote) abort on the txn."""
        if master.txn.abort_reason is not AbortReason.TIMEOUT:
            master.txn.abort_reason = AbortReason.SURPRISE_VOTE
        return TransactionOutcome.ABORTED

    # ------------------------------------------------------------------
    # Recovery machinery (fault injection only)
    # ------------------------------------------------------------------
    # Every protocol inherits one in-doubt resolution loop; protocols
    # customize it through four small hooks:
    #
    # - ``inquiry_site``: whom a blocked cohort asks (default: the
    #   coordinator's site; Linear overrides with the chain tail, whose
    #   forced COMMIT record is the decision).
    # - ``terminate_without_coordinator``: a chance to decide without the
    #   coordinator at all (3PC's cooperative termination protocol).
    # - ``presumed_outcome``: what a recovered-but-amnesiac coordinator
    #   log implies (set by the presumption: PA aborts, PC commits on a
    #   COLLECTING record; 3PC reads its PRECOMMIT record).
    # - ``coordinator_finished``: whether the coordinator can still
    #   decide (inquiries keep retrying until then).

    def await_decision(self, cohort: CohortAgent,
                       expected: tuple[MessageKind, ...],
                       wait: str = "decision",
                       ) -> typing.Generator[Event, typing.Any,
                                             typing.Optional[object]]:
        """The cohort's decision wait.

        Healthy path: a plain blocking receive (asserting the kind).
        Under faults: a deadline; on expiry the cohort is in doubt and
        runs :meth:`resolve_in_doubt`, after which None is returned and
        the caller must finish without further protocol steps.
        """
        assert self.system is not None
        ft = self.system.fault_timeouts
        if ft is None:
            message = yield cohort.recv()
            assert message.kind in expected, message
            return message
        while True:
            message = yield from cohort.recv_wait(ft.decision_timeout_ms,
                                                  wait=wait)
            if message is None:
                yield from self.resolve_in_doubt(cohort)
                return None
            if message.kind in expected:
                return message
            # stray (late/duplicate) traffic under faults; ignore.

    def collect_acks(self, master: MasterAgent,
                     expected_kind: MessageKind, count: int,
                     wait: str = "acks",
                     ) -> typing.Generator[Event, typing.Any, None]:
        """The master's ACK wait.

        Under faults, missing ACKs are abandoned after a deadline: the
        decision is already durable, and silent cohorts terminate through
        the recovery machinery, so waiting longer buys nothing.
        """
        assert self.system is not None
        ft = self.system.fault_timeouts
        remaining = count
        while remaining:
            if ft is None:
                message = yield master.recv()
                assert message.kind is expected_kind, message
                remaining -= 1
                continue
            message = yield from master.recv_wait(ft.ack_timeout_ms,
                                                  wait=wait)
            if message is None:
                break
            if message.kind is expected_kind:
                remaining -= 1
            # stray (late/duplicate) traffic under faults; ignore.

    def resolve_in_doubt(self, cohort: CohortAgent,
                         ) -> typing.Generator[Event, typing.Any, None]:
        """Drive one in-doubt cohort to a decision (and implement it).

        Runs either inside the cohort's own process (decision wait timed
        out) or inside a recovering site's WAL-replay process (the crash
        killed the cohort).  Loops -- termination attempt, then status
        inquiries against the coordinator's stable log -- until one of
        the rules yields an outcome; every blocking master has deadlines,
        so the coordinator always either decides or dies, and the loop
        terminates.
        """
        assert self.system is not None
        system = self.system
        if system.faults is not None and cohort.in_doubt_since is None:
            # Timed-out (not crashed) cohorts enter the in-doubt state
            # here; crash victims were stamped by register_in_doubt().
            cohort.in_doubt_since = system.env.now
        outcome_rule = yield from self.terminate_without_coordinator(cohort)
        if outcome_rule is None:
            ft = system.fault_timeouts
            base_retry = ft.resolve_retry_ms if ft is not None else 500.0
            retry = base_retry
            network = system.network
            target = self.inquiry_site(cohort)
            while True:
                path_open = network.path_open(cohort.site, target)
                if target.up and path_open:
                    ok = yield from network.inquiry_round_trip(cohort,
                                                               target)
                    if ok:
                        retry = base_retry
                        outcome_rule = self.attempt_resolution(cohort,
                                                               target)
                        if outcome_rule is not None:
                            break
                elif not path_open:
                    # The decider is across a severed link: back off
                    # (capped exponential) instead of paying a failed
                    # retry every resolve_retry_ms for the whole
                    # partition.  A merely-crashed target keeps the
                    # plain resolve_retry_ms poll (site repairs are
                    # fast; partitions can last much longer).  Also arm
                    # the injector's heal wake-up: the backoff can reach
                    # 8x, and sleeping out a full interval after the
                    # link is already back would inflate blocked_lock_ms
                    # for nothing.
                    retry = min(retry * 2.0, base_retry * 8.0)
                    if system.faults is not None:
                        healed = system.faults.heal_event()
                        yield system.env.any_of(
                            [system.env.timeout(retry), healed])
                        if healed.triggered:
                            retry = base_retry
                        continue
                yield system.env.timeout(retry)
        outcome, rule = outcome_rule
        if outcome == "commit":
            yield from cohort.force_log(LogRecordKind.COMMIT)
            cohort.implement_commit()
        else:
            yield from cohort.force_log(LogRecordKind.ABORT)
            cohort.implement_abort()
        if system.faults is not None:
            system.faults.note_resolved(cohort)
        bus = system.bus
        if bus.has_subscribers(EventKind.TXN_RESOLVED_IN_DOUBT):
            bus.publish(TxnResolvedInDoubt(system.env.now, cohort, outcome,
                                           rule))

    def attempt_resolution(self, cohort: CohortAgent, site: "Site",
                           ) -> typing.Optional[tuple[str, str]]:
        """Classify one status-inquiry answer (a read of ``site``'s WAL).

        Returns ``(outcome, rule)`` or None when the coordinator exists
        but has not decided yet (the cohort stays blocked and retries).
        """
        kinds = site.log_manager.txn_kinds(cohort.txn.txn_id,
                                           cohort.txn.incarnation)
        if LogRecordKind.COMMIT in kinds:
            return ("commit", "decision-record")
        if LogRecordKind.ABORT in kinds:
            return ("abort", "decision-record")
        if not self.coordinator_finished(cohort):
            return None
        return self.presumed_outcome(cohort, kinds)

    def presumed_outcome(self, cohort: CohortAgent,
                         kinds: set[LogRecordKind]) -> tuple[str, str]:
        """The presumption applied when the coordinator's log holds no
        decision record and the coordinator can no longer decide.

        Presumed commit resolves a stable collecting record to commit
        (the cost-model reading of the PC rule; docs/MODEL.md, "Failure
        model & recovery", says how it diverges from a production PC).
        Otherwise a coordinator with no information aborts.
        """
        if self.presumption is Presumption.ABORT:
            return ("abort", "presumed-abort")
        if self.presumption is Presumption.COMMIT:
            if LogRecordKind.COLLECTING in kinds:
                return ("commit", "presumed-commit")
            return ("abort", "no-collecting-record")
        return ("abort", "no-decision-record")

    def coordinator_finished(self, cohort: CohortAgent) -> bool:
        """True when the coordinator can no longer produce a decision."""
        master = cohort.master
        assert master is not None
        return master.process is None or not master.process.is_alive

    def inquiry_site(self, cohort: CohortAgent) -> "Site":
        """The site whose stable log answers status inquiries."""
        assert cohort.master is not None
        return cohort.master.site

    def terminate_without_coordinator(
            self, cohort: CohortAgent,
            ) -> typing.Generator[Event, typing.Any,
                                  typing.Optional[tuple[str, str]]]:
        """Protocol-specific termination that needs no coordinator
        (3PC overrides this with its cooperative termination round)."""
        return None
        yield  # pragma: no cover - makes this a generator

    def termination_round(self, cohort: CohortAgent,
                          ) -> typing.Generator[Event, typing.Any, int]:
        """Pay for one round of state exchange with every peer cohort.

        Returns how many peers were actually reached (site up, and the
        round trip crossed no severed link) -- 3PC's termination
        protocol uses the count to commit only with a majority in hand
        while a partition is live.
        """
        assert self.system is not None
        network = self.system.network
        reached = 0
        for peer in cohort.txn.cohorts:
            if peer is cohort:
                continue
            ok = yield from network.inquiry_round_trip(cohort, peer.site)
            if ok and peer.site.up:
                reached += 1
        return reached

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
