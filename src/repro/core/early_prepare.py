"""Early Prepare (EP) -- paper Section 2.5 (Stamos & Cristian).

Early Prepare combines Unsolicited Vote with Presumed Commit: cohorts
prepare unilaterally and vote on their completion reports (UV), and the
commit decision is presumed (PC), so commit needs neither cohort forced
commit records nor acknowledgements.  The price is paid up front: the
master must force its *collecting* (membership) record **before any
cohort starts work**, because a cohort may enter the prepared state at
any moment after that.

Committing-transaction counts at ``DistDegree = 3``:

- messages: 2 STARTWORK + 2 votes + 2 COMMIT = **6** on the wire
  (half of 2PC's 12);
- forced writes: collecting + 3 prepare + master commit = **5**.

This is the message-minimal 2PC-family protocol in the library; the
paper notes EP-style designs pay for it with a longer execution phase
(the early collecting write) and longer prepared windows.  Like UV, it
must not be combined with OPT (Section 3.2).
  Everything but
the presumption is inherited from UV.
"""

from __future__ import annotations

from repro.core.base import Presumption
from repro.core.unsolicited_vote import UnsolicitedVote


class EarlyPrepare(UnsolicitedVote):
    """Unsolicited votes + presumed commit."""

    name = "EP"
    presumption = Presumption.COMMIT
