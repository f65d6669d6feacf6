"""Structural tests of the protocol class hierarchy and registry."""

import pytest

import repro
from repro.core import (
    CommitProtocol,
    OptimisticCommit,
    OptimisticPresumedAbort,
    OptimisticPresumedCommit,
    OptimisticThreePhase,
    PresumedAbort,
    PresumedCommit,
    Presumption,
    ThreePhaseCommit,
    TwoPhaseCommit,
    create_protocol,
)
from repro.core.linear import LinearTwoPhaseCommit, OptimisticLinear


class TestHierarchy:
    def test_opt_variants_subclass_their_bases(self):
        assert issubclass(OptimisticCommit, TwoPhaseCommit)
        assert issubclass(OptimisticPresumedAbort, PresumedAbort)
        assert issubclass(OptimisticPresumedCommit, PresumedCommit)
        assert issubclass(OptimisticThreePhase, ThreePhaseCommit)
        assert issubclass(OptimisticLinear, LinearTwoPhaseCommit)

    def test_lending_flags(self):
        lending = {"OPT", "OPT-PA", "OPT-PC", "OPT-3PC", "OPT-LIN"}
        for name in repro.PROTOCOL_NAMES:
            protocol = create_protocol(name)
            assert protocol.lending == (name in lending), name

    def test_presumptions(self):
        """The presumption alone sets each 2PC-family protocol's
        decision costs (docs/MODEL.md table)."""
        presumed = {"PA": Presumption.ABORT, "OPT-PA": Presumption.ABORT,
                    "PC": Presumption.COMMIT, "OPT-PC": Presumption.COMMIT,
                    "EP": Presumption.COMMIT}
        for name in repro.PROTOCOL_NAMES:
            expected = presumed.get(name, Presumption.NOTHING)
            assert create_protocol(name).presumption is expected, name

    def test_non_blocking_flags(self):
        for name in repro.PROTOCOL_NAMES:
            protocol = create_protocol(name)
            expected = name in ("3PC", "OPT-3PC", "PAXOS")
            assert protocol.non_blocking == expected, name
        # F = 0 degenerates to plain (blocking) 2PC.
        assert not create_protocol("PAXOS:f=0").non_blocking

    def test_every_protocol_is_a_commit_protocol(self):
        for name in repro.PROTOCOL_NAMES:
            assert isinstance(create_protocol(name), CommitProtocol)

    def test_factories_return_fresh_instances(self):
        a = create_protocol("OPT")
        b = create_protocol("OPT")
        assert a is not b

    def test_registry_names_match_instances(self):
        for name in repro.PROTOCOL_NAMES:
            assert create_protocol(name).name == name

    def test_abstract_base_unusable(self):
        with pytest.raises(TypeError):
            CommitProtocol()  # type: ignore[abstract]


class TestBindContract:
    def test_bind_sets_system(self):
        protocol = create_protocol("2PC")
        assert protocol.system is None
        system = repro.build_system("2PC", num_sites=2, db_size=400,
                                    dist_degree=1, cohort_size=2, mpl=1)
        assert system.protocol.system is system

    def test_reusing_protocol_instance_rebinds(self):
        from repro.config import ModelParams
        from repro.db.system import DistributedSystem
        protocol = create_protocol("PC")
        params = ModelParams(num_sites=2, db_size=400, dist_degree=1,
                             cohort_size=2, mpl=1)
        first = DistributedSystem(params, protocol)
        second = DistributedSystem(params, protocol)
        assert protocol.system is second
