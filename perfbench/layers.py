"""Which program functions belong to which layer in the traced run.

Layers are named after the program's modules.  Each entry wraps the
public methods a class defines itself (plus a few process bodies that
are private but are where a layer's own processes run), so every call
into a layer from another layer opens a span.  Code that no wrapper
covers runs inside its caller's span: kernel calls a layer makes
directly (``Event.succeed``, ``Timeout(...)``) count toward that layer,
and the system's own slot loop (``DistributedSystem._slot`` /
``_run_to_commit`` / ``_launch``) counts toward ``sim``, whose root
span is ``DistributedSystem.run``.
"""

from __future__ import annotations

from spans import Patch

LAYERS = (
    "sim",
    "sim.resources",
    "db.locks",
    "db.deadlock",
    "db.network",
    "db.wal",
    "core",
    "db.transaction",
    "obs.bus",
    "db.workload",
    "db.pages",
    "faults",
    "admission",
    "experiments",
)

#: ``Class.method`` call counts the per-layer metrics read.
SPAWN_FN = "Environment.process"
LOCK_ACQUIRE_FN = "LockManager.acquire"
DEADLOCK_CHECK_FN = "WaitForGraph.check_for_deadlock"
PUBLISH_FN = "EventBus.publish"


def _protocol_classes():
    from repro.core.base import CommitProtocol
    from repro.core.paxos_commit import PaxosAcceptor
    seen = [CommitProtocol]
    for cls in seen:
        seen.extend(sub for sub in cls.__subclasses__() if sub not in seen)
    return seen + [PaxosAcceptor]


def install(patch: Patch) -> None:
    """Wrap every layer's entry points (undone by ``patch.restore()``)."""
    from repro.admission import BoundedAdmissionQueue, HalfAndHalfController
    from repro.db.deadlock import WaitForGraph
    from repro.db.locks import LockManager
    from repro.db.network import Network
    from repro.db.pages import PageDirectory, ReplicaDirectory
    from repro.db.system import DistributedSystem
    from repro.db.topology import LanSwitch, WanTopology
    from repro.db.transaction import (
        Agent,
        CohortAgent,
        MasterAgent,
        ReplicaApplier,
        Transaction,
    )
    from repro.db.wal import LogManager
    from repro.db.workload import WorkloadGenerator
    from repro.experiments.base import MplSweep
    from repro.faults.injector import FaultInjector
    from repro.obs.bus import EventBus
    from repro.sim.engine import Environment
    from repro.sim.resources import (
        InfiniteServer,
        PriorityResource,
        Resource,
        Store,
    )

    patch.wrap("sim", DistributedSystem, ["run"])
    patch.wrap_public("sim", Environment)
    for cls in (Resource, PriorityResource, InfiniteServer, Store):
        patch.wrap_public("sim.resources", cls)
    patch.wrap_public("db.locks", LockManager)
    patch.wrap_public("db.deadlock", WaitForGraph)
    patch.wrap_public("db.network", Network, extra=["_deliver"])
    patch.wrap_public("db.network", LanSwitch)
    patch.wrap_public("db.network", WanTopology)
    patch.wrap_public("db.wal", LogManager)
    for cls in _protocol_classes():
        patch.wrap_public("core", cls)
    for cls in (Agent, CohortAgent, MasterAgent, Transaction):
        patch.wrap_public("db.transaction", cls)
    patch.wrap("obs.bus", EventBus, ["publish"])
    patch.wrap_public("db.workload", WorkloadGenerator)
    patch.wrap_public("db.pages", PageDirectory)
    patch.wrap_public("db.pages", ReplicaDirectory)
    patch.wrap("db.pages", ReplicaApplier, ["run"])
    patch.wrap("db.pages", CohortAgent, ["_replicate_updates"])
    patch.wrap_public("faults", FaultInjector, extra=[
        "_scheduled_driver", "_stochastic_driver",
        "_region_scheduled_driver", "_region_stochastic_driver",
        "_replay"])
    patch.wrap_public("admission", BoundedAdmissionQueue)
    patch.wrap_public("admission", HalfAndHalfController)
    patch.wrap_public("experiments", MplSweep)
