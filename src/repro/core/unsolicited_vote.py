"""Unsolicited Vote (UV) -- an "other protocol" from paper Section 2.5.

In UV (distributed INGRES, Stonebraker 1979) a cohort enters the
prepared state *unilaterally* when it finishes its work: it force-writes
its prepare record and its YES vote rides on the work-completion report,
eliminating the master's PREPARE round entirely.  The decision phase is
standard 2PC, inherited.

Committing-transaction message counts at ``DistDegree = 3``: the two
PREPARE messages disappear and the two votes *are* the completion
reports, so the wire carries 8 messages per transaction instead of
2PC's 12 (forced writes unchanged at 7).

Why there is deliberately **no** OPT-UV variant: the paper's Section 3.2
warns that protocols "which do not guarantee that a cohort which has
unilaterally entered the prepared state will not be forced back later
into an active state" break OPT's bounded-abort-chain argument --
lending from a UV-prepared cohort can cascade aborts, produce unbounded
shelf times, and create lender/borrower deadlocks.  Subclassing
``UnsolicitedVote`` with ``lending = True`` raises at construction.
"""

from __future__ import annotations

import typing

from repro.core.base import Presumption
from repro.core.two_phase import TwoPhaseCommit
from repro.db.messages import MessageKind
from repro.db.transaction import CohortAgent, CohortState, MasterAgent
from repro.db.wal import LogRecordKind
from repro.obs.events import CommitPhase
from repro.sim.events import Event


class UnsolicitedVote(TwoPhaseCommit):
    """2PC with unsolicited votes piggybacked on completion reports."""

    name = "UV"

    def __init__(self) -> None:
        super().__init__()
        if self.lending:
            raise TypeError(
                "OPT cannot be combined with Unsolicited Vote: a "
                "unilaterally prepared cohort offers no guarantee it "
                "will not be forced back to the active state, which "
                "breaks OPT's bounded abort chain (paper Section 3.2)")

    def master_begin(self, master: MasterAgent,
                     ) -> typing.Generator[Event, typing.Any, None]:
        # Under presumed commit (EP) the membership record must be
        # durable before any cohort can unilaterally enter the prepared
        # state, i.e. before any cohort starts work.
        if self.presumption is Presumption.COMMIT:
            yield from master.force_log(LogRecordKind.COLLECTING)

    # ------------------------------------------------------------------
    # Cohort side: prepare unilaterally, vote with the work report.
    # ------------------------------------------------------------------
    def send_workdone(self, cohort: CohortAgent,
                      ) -> typing.Generator[Event, typing.Any, None]:
        assert self.system is not None
        master = cohort.master
        assert master is not None
        if self.system.surprise_no_vote():
            yield from self.vote_no(cohort)
            return
        yield from cohort.force_log(LogRecordKind.PREPARE)
        cohort.state = CohortState.PREPARED
        cohort.site.lock_manager.prepare(cohort)
        yield from cohort.send(MessageKind.VOTE_YES, master)

    def cohort_vote(self, cohort: CohortAgent,
                    ) -> typing.Generator[Event, typing.Any, str]:
        """The vote already went out with the completion report."""
        return "yes" if cohort.state is CohortState.PREPARED else "no"
        yield  # pragma: no cover - makes this a generator

    # ------------------------------------------------------------------
    # Master side: the votes arrived with the completion reports.
    # ------------------------------------------------------------------
    def collect_votes(self, master: MasterAgent,
                      ) -> typing.Generator[Event, typing.Any, bool]:
        """Tally the votes that rode on the completion reports."""
        master.prepared_cohorts = [
            message.sender for message in master.early_votes
            if message.kind is MessageKind.VOTE_YES]
        no_votes = sum(1 for message in master.early_votes
                       if message.kind is MessageKind.VOTE_NO)
        master.mark_phase(CommitPhase.DECIDE)
        # Local cohorts report for free (same-site messages carry no
        # kind change); they are prepared iff they said so.
        return no_votes == 0 and (
            len(master.prepared_cohorts) == len(master.cohorts))
        yield  # pragma: no cover - makes this a generator
