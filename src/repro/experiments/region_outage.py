"""Region-outage sweep: commit protocols under correlated failures.

The availability sweep (``repro-commit avail``) injects *independent*
per-site crashes -- the regime the paper's Section 4 experiments model.
Real deployments fail in correlated ways: a datacenter power event takes
every replica in the blast radius down at once, and a WAN cut leaves
both sides running but mutually unreachable.  This sweep (an extension;
see docs/MODEL.md, "Failure model & recovery") drives the fault plane's
region plans -- ``dc_crash:<dc>:at=..:for=..`` and
``partition:<dcA>|<dcB>:at=..:for=..`` -- over a protocol x outage x
duration grid on a multi-datacenter topology and reports, per point:

- **blocked lock time**: total milliseconds in-doubt cohorts spent
  operationally blocked (holding locks, actively trying to resolve)
  before the outcome was learned.  This is the paper's blocking
  phenomenon made measurable: under a coordinator-side DC loss, 2PC
  cohorts must wait out the outage while 3PC's termination protocol
  commits from peer evidence, so 2PC's blocked time is strictly higher;
- **carried throughput during the outage** and after it -- how much of
  the offered load the surviving region still commits;
- **recovery time**: how long after the heal instant the first
  post-outage commit lands, a proxy for time back to steady state;
- the ``drops_by_reason`` split from the network layer, separating
  partition drops from crashed-site and stochastic-loss drops.

Every grid point shares the workload seed, so protocols face common
random numbers and differences isolate commit-path behaviour.
"""

from __future__ import annotations

import functools
import typing

from repro.config import ModelParams
from repro.db.topology import NetworkTopology, TopologyKind
from repro.experiments.grid import GridResults, GridSweep, Metrics, PointConfig
from repro.faults import FaultConfig, RegionPlan
from repro.obs import EventKind

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.system import DistributedSystem

#: Outage shapes: lose a whole datacenter, or cut the link between two.
DEFAULT_OUTAGES: tuple[str, ...] = ("dc_crash", "partition")

DEFAULT_DURATIONS: tuple[float, ...] = (2000.0, 4000.0)


def sweep(protocols: typing.Sequence[str],
          outages: typing.Sequence[str] = DEFAULT_OUTAGES,
          durations_ms: typing.Sequence[float] = DEFAULT_DURATIONS,
          topology: "str | NetworkTopology" = "dcs:2x2:rtt_ms=5",
          mpl: int = 2,
          at_ms: float = 1000.0,
          params: ModelParams | None = None,
          measured_transactions: int = 40,
          seed: int = 7) -> GridSweep:
    """An outage x protocol x duration grid on a dcs topology.

    Each point injects one scheduled outage at ``at_ms``: ``dc_crash``
    takes down datacenter 0 (the side hosting coordinators for roughly
    its share of transactions) atomically for the duration;
    ``partition`` severs every link between datacenters 0 and 1 and
    heals them together.  ``num_sites`` is derived from the topology, so
    ``dcs:2x2`` runs 4 sites and ``dcs:3x2`` runs 6.
    """
    for outage in outages:
        if outage not in DEFAULT_OUTAGES:
            raise ValueError(
                f"unknown outage {outage!r}; expected one of "
                f"{', '.join(DEFAULT_OUTAGES)}")
    if not durations_ms:
        raise ValueError("durations_ms must be non-empty")
    for duration in durations_ms:
        if duration <= 0:
            raise ValueError(
                f"outage durations must be positive, got {duration}")
    spec = outage_topology(topology, "region-outage",
                           "datacenter boundaries define the blast radius")
    at_ms = float(at_ms)
    point_params = (params if params is not None else ModelParams()).replace(
        num_sites=spec.num_dcs * spec.sites_per_dc, mpl=mpl,
        network_topology=spec)
    shapes = {"dc_crash": "dc_crash:0", "partition": "partition:0|1"}
    return GridSweep(
        (("outage", outages), ("protocol", protocols),
         ("duration_ms", tuple(float(d) for d in durations_ms))),
        configure=lambda outage, protocol, duration_ms: PointConfig(
            protocol, point_params, measured_transactions, seed,
            faults=FaultConfig(region=RegionPlan.parse(
                f"{shapes[outage]}:at={at_ms}:for={duration_ms}"))),
        point=functools.partial(outage_point, at_ms=at_ms),
        summary=functools.partial(_summary, topology=spec.describe(),
                                  at_ms=at_ms),
        label=lambda outage, protocol, duration_ms: (
            f"region-outage: {protocol} {outage} for {duration_ms:.0f}ms"))


def outage_topology(topology: "str | NetworkTopology", sweep_name: str,
                    blast_radius: str) -> NetworkTopology:
    """The multi-DC topology an outage sweep hits; ``blast_radius``
    says what the datacenters mean to the sweep."""
    spec = NetworkTopology.parse(topology) \
        if isinstance(topology, str) else topology
    if spec.kind is not TopologyKind.DCS:
        raise ValueError(
            f"{sweep_name} needs a dcs:<D>x<S> topology ({blast_radius}), "
            f"got {topology!r}")
    if spec.num_dcs < 2:
        raise ValueError(f"{sweep_name} needs at least 2 datacenters")
    return spec


def outage_point(config: PointConfig, *, at_ms: float, duration_ms: float,
                 **_: typing.Any) -> Metrics:
    """Point function of the outage sweeps (this one and
    :mod:`~repro.experiments.replication`): simulate ``config`` and
    time its commits against the outage window
    ``[at_ms, at_ms + duration_ms)``."""
    captured: list[DistributedSystem] = []
    commit_times: list[float] = []

    def hook(system: "DistributedSystem") -> None:
        captured.append(system)
        system.bus.subscribe(
            EventKind.TXN_COMMIT,
            lambda event: commit_times.append(event.time))

    result = config.simulate(on_system=hook)
    system = captured[0]
    faults = system.faults
    assert faults is not None
    heal = at_ms + duration_ms
    during = sum(1 for t in commit_times if at_ms <= t < heal)
    after = [t for t in commit_times if t >= heal]
    return {
        "result": result,
        # operational blocking (see FaultInjector.note_resolved)
        "blocked_lock_ms": faults.blocked_lock_ms,
        "in_doubt_resolved": faults.in_doubt_resolved,
        "dc_crashes": faults.dc_crashes,
        "link_partitions": faults.link_partitions,
        # network drop split, e.g. {"site_down": 3, "partition": 7}
        "drops_by_reason": dict(system.network.drops_by_reason),
        # replica propagations shipped / skipped (available copies)
        "replica_updates_sent": system.replica_updates_sent,
        "replica_writes_skipped": system.replica_writes_skipped,
        # commits landing inside / after the outage window, and the
        # committed tps carried while the outage was live
        "commits_during": during,
        "commits_after": len(after),
        "throughput_during": during / (duration_ms / 1000.0),
        # ms from the heal instant to the first post-outage commit
        # (None when nothing committed after the heal)
        "recovery_ms": (min(after) - heal) if after else None,
    }


def _blk_tps_rec(point: Metrics) -> str:
    recovery = ("-" if point["recovery_ms"] is None
                else f"{point['recovery_ms']:.0f}ms")
    return (f"{point['blocked_lock_ms']:.0f}ms"
            f"/{point['throughput_during']:.1f}/{recovery}")


def _summary(results: GridResults, *, topology: str, at_ms: float) -> str:
    protocols = results.values("protocol")
    outages = results.values("outage")
    lines = [f"== region-outage: correlated failures over {topology} =="]
    for outage in outages:
        # rows are durations; blocked/tps-during/recovery per protocol
        lines.append(results.table(
            "duration_ms", "protocol", _blk_tps_rec,
            corner="outage for", label_width=12, min_width=24, pad=17,
            row_label=lambda duration: f"{duration:.0f}ms",
            col_label=lambda protocol: f"{protocol} (blk/tps/rec)",
            title=f"-- outage: {outage} at t={at_ms:.0f}ms --",
            outage=outage))
        split = results.total("drops_by_reason", outage=outage)
        rendered = ", ".join(f"{reason}={count}" for reason, count
                             in sorted(split.items())) or "none"
        lines.append(f"   dropped messages by reason: {rendered}")
    top = results.values("duration_ms")[-1]
    for outage in outages:
        ranked = results.ranked("blocked_lock_ms", along="protocol",
                                outage=outage, duration_ms=top)
        lines.append(f"at {outage} for {top:.0f}ms: least blocking "
                     + " < ".join(ranked))
    if {"2PC", "3PC"} <= set(protocols) and "dc_crash" in outages:
        blocked = dict(results.series("blocked_lock_ms", along="protocol",
                                      outage="dc_crash", duration_ms=top))
        lines.append(
            f"coordinator-side DC loss ({top:.0f}ms): 2PC blocked "
            f"{blocked['2PC']:.0f}ms vs 3PC {blocked['3PC']:.0f}ms -- the "
            f"termination protocol is what non-blocking buys")
    return "\n".join(lines)
