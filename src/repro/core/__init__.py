"""Commit protocols (the paper's contribution plus all comparators).

Implemented protocols and the paper sections they reproduce:

========  =======================================================
Name      Protocol
========  =======================================================
2PC       classical two-phase commit (Section 2.1)
PA        presumed abort (Section 2.2)
PC        presumed commit (Section 2.3)
3PC       three-phase (non-blocking) commit (Section 2.4)
OPT       optimistic 2PC with lending/borrowing (Section 3)
UV        unsolicited vote (Section 2.5; no OPT variant by design)
EP        early prepare = UV + PC (Section 2.5; message-minimal)
LIN-2PC   linear 2PC over a communication chain (Section 2.5)
OPT-LIN   OPT on the linear chain (Section 3.2's favourite pairing)
OPT-PA    OPT combined with presumed abort (Section 3.2)
OPT-PC    OPT combined with presumed commit (Section 3.2)
OPT-3PC   non-blocking OPT (Sections 3.2, 5.6)
DPCC      distributed processing / centralized commit baseline
CENT      fully centralized baseline (with centralized topology)
PAXOS     Paxos Commit, F=1 quorum commit (``PAXOS:f=<F>`` general)
========  =======================================================
"""

from repro.core.base import CommitProtocol, Presumption
from repro.core.centralized import CentralizedCommit
from repro.core.early_prepare import EarlyPrepare
from repro.core.linear import LinearTwoPhaseCommit, OptimisticLinear
from repro.core.optimistic import OptimisticCommit
from repro.core.paxos_commit import PaxosCommit
from repro.core.presumed_abort import PresumedAbort
from repro.core.presumed_commit import PresumedCommit
from repro.core.registry import (
    PROTOCOL_NAMES,
    create_protocol,
    protocol_requires_centralized_topology,
)
from repro.core.three_phase import ThreePhaseCommit
from repro.core.two_phase import TwoPhaseCommit
from repro.core.unsolicited_vote import UnsolicitedVote
from repro.core.variants import (
    OptimisticPresumedAbort,
    OptimisticPresumedCommit,
    OptimisticThreePhase,
)

__all__ = [
    "CentralizedCommit",
    "EarlyPrepare",
    "LinearTwoPhaseCommit",
    "OptimisticLinear",
    "CommitProtocol",
    "OptimisticCommit",
    "OptimisticPresumedAbort",
    "OptimisticPresumedCommit",
    "OptimisticThreePhase",
    "PROTOCOL_NAMES",
    "PaxosCommit",
    "Presumption",
    "PresumedAbort",
    "PresumedCommit",
    "ThreePhaseCommit",
    "TwoPhaseCommit",
    "UnsolicitedVote",
    "create_protocol",
    "protocol_requires_centralized_topology",
]
