"""Configuration-driven fault injection (the general failure plane).

The paper's argument about commit protocols is ultimately an argument
about *failures* -- blocking in the 2PC family versus 3PC's termination
protocol -- yet most simulation studies only ever crash one hand-picked
process.  This package generalizes that: a seeded, deterministic
:class:`FaultPlan` schedules stochastic site crash/recover cycles
(MTTF/MTTR) or explicit crash schedules, plus per-message loss in the
network, and a :class:`DecisionStall` silences one coordinator just
before its COMMIT record (the :mod:`repro.failures` scenarios).  The
:class:`FaultInjector` executes the plan against a running
:class:`~repro.db.system.DistributedSystem`, and the protocol layer
(``core/base.py``) supplies the timeout and WAL-replay recovery
machinery every registered protocol inherits.

Determinism: all fault draws come from dedicated named RNG streams
(``faults-site-<id>``, ``faults-msgloss``), so enabling faults never
perturbs the workload streams, and the same seed plus the same
:class:`FaultConfig` reproduces the identical failure trajectory.

Correlated failures (:mod:`repro.faults.region`) extend the plane from
independent per-site crashes to whole-datacenter outages and inter-DC
link partitions: a parseable :class:`RegionPlan` (``--fault-plan``)
crashes every site of a datacenter atomically or severs the link group
between two datacenters, with scheduled (``at=/for=``) or stochastic
(``mttf=/mttr=`` on per-directive streams ``faults-dc-<dc>`` /
``faults-partition-<a>-<b>``) timing.  Region plans require a
multi-datacenter topology (``--topology dcs:...``) to resolve the
site -> datacenter placement.

An *inactive* config (:attr:`FaultConfig.is_active` false) wires
nothing: the system runs byte-identical to one built without faults
(pinned against ``tests/data/golden_sweep.json``).
"""

from repro.faults.plan import (
    CrashEvent,
    DecisionStall,
    FaultConfig,
    FaultPlan,
    FaultTimeouts,
)
from repro.faults.region import RegionDirective, RegionPlan
from repro.faults.injector import FaultInjector

__all__ = [
    "CrashEvent",
    "DecisionStall",
    "FaultConfig",
    "FaultInjector",
    "FaultPlan",
    "FaultTimeouts",
    "RegionDirective",
    "RegionPlan",
]
