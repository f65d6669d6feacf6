"""The classical two-phase commit protocol (paper Section 2.1).

Committing-transaction overheads at ``DistDegree = 3`` (one cohort local
to the master, two remote), matching paper Table 3:

- commit messages: 2 PREPARE + 2 YES + 2 COMMIT + 2 ACK = 8;
- forced writes: 3 cohort *prepare* + 1 master *commit* + 3 cohort
  *commit* = 7.

PA, PC, UV, EP and Paxos Commit reuse this skeleton; PA and PC differ
only in their :class:`~repro.core.base.Presumption`.
"""

from __future__ import annotations

from repro.core.base import CohortGenerator, CommitProtocol, MasterGenerator
from repro.db.messages import MessageKind
from repro.db.transaction import CohortAgent, MasterAgent, TransactionOutcome


class TwoPhaseCommit(CommitProtocol):
    """Presumed-nothing two-phase commit."""

    name = "2PC"

    def master_commit(self, master: MasterAgent) -> MasterGenerator:
        all_yes = yield from self.collect_votes(master)
        if all_yes:
            yield from self.master_decide(master, MessageKind.COMMIT)
            return TransactionOutcome.COMMITTED
        yield from self.master_decide(master, MessageKind.ABORT)
        return self.abort_outcome(master)

    def cohort_commit(self, cohort: CohortAgent) -> CohortGenerator:
        vote = yield from self.cohort_vote(cohort)
        if vote != "yes":
            return
        message = yield from self.await_decision(
            cohort, (MessageKind.COMMIT, MessageKind.ABORT))
        if message is None:
            return  # resolved through recovery; no ACK to send
        yield from self.cohort_decide(cohort, message.kind)
