"""Replication sweep: quorum commit meets available-copies replication.

Races commit protocols (by default the blocking baseline 2PC, Skeen's
3PC, and Paxos Commit) across a replication-factor x site-MTTF grid
while a scheduled datacenter outage (the PR 9 correlated-failure plane)
hits the topology.  The question the grid answers: once pages are
replicated, the data survives the blast radius -- does the *commit
protocol* still block the survivors?

Per point it reports the same outage-centric metrics as the
region-outage sweep -- carried throughput during the outage, blocked
lock time, recovery time -- plus the replication plane's own counters
(update propagations shipped vs skipped by the available-copies rule).
Every grid point shares the workload seed, so protocols and factors face
common random numbers and differences isolate the commit path.
"""

from __future__ import annotations

import functools
import typing

from repro.config import ModelParams
from repro.db.pages import ReplicationSpec
from repro.db.topology import NetworkTopology
from repro.experiments.grid import GridResults, GridSweep, PointConfig
from repro.experiments.region_outage import outage_point, outage_topology
from repro.faults import FaultConfig, RegionPlan

DEFAULT_PROTOCOLS: tuple[str, ...] = ("2PC", "3PC", "PAXOS")

DEFAULT_FACTORS: tuple[int, ...] = (1, 2, 3)

#: site MTTFs in ms; 0 = only the scheduled DC outage, no extra crashes.
DEFAULT_MTTFS: tuple[float, ...] = (0.0, 60_000.0)


def sweep(protocols: typing.Sequence[str] = DEFAULT_PROTOCOLS,
          factors: typing.Sequence[int] = DEFAULT_FACTORS,
          mttfs: typing.Sequence[float] = DEFAULT_MTTFS,
          topology: "str | NetworkTopology" = "dcs:2x2:rtt_ms=5",
          mpl: int = 2,
          at_ms: float = 1000.0,
          outage_ms: float = 1500.0,
          mttr_ms: float = 2000.0,
          params: ModelParams | None = None,
          measured_transactions: int = 40,
          seed: int = 7) -> GridSweep:
    """An MTTF x replication-factor x protocol grid under a DC outage on
    a multi-datacenter topology.

    Every point injects one scheduled ``dc_crash`` of datacenter 0 at
    ``at_ms`` for ``outage_ms``; MTTF values above zero add independent
    per-site crashes on top of the correlated loss.  ``num_sites``
    derives from the topology; the replication factor is capped by it.
    """
    spec = outage_topology(topology, "replication sweep",
                           "the DC outage defines the blast radius")
    num_sites = spec.num_dcs * spec.sites_per_dc
    if not factors:
        raise ValueError("factors must be non-empty")
    for factor in factors:
        ReplicationSpec(factor).validate(num_sites)
    if not mttfs:
        raise ValueError("mttfs must be non-empty")
    for mttf in mttfs:
        if mttf < 0:
            raise ValueError(f"MTTF must be >= 0, got {mttf}")
    if outage_ms <= 0:
        raise ValueError(
            f"outage duration must be positive, got {outage_ms}")
    at_ms, outage_ms = float(at_ms), float(outage_ms)
    point_params = (params if params is not None else ModelParams()).replace(
        num_sites=num_sites, mpl=mpl, network_topology=spec)
    plan = RegionPlan.parse(f"dc_crash:0:at={at_ms}:for={outage_ms}")
    return GridSweep(
        (("mttf_ms", tuple(float(m) for m in mttfs)),
         ("factor", tuple(int(f) for f in factors)),
         ("protocol", protocols)),
        configure=lambda mttf_ms, factor, protocol: PointConfig(
            protocol, point_params.replace(
                replication=ReplicationSpec(factor) if factor > 1 else None),
            measured_transactions, seed,
            faults=FaultConfig(mttf_ms=mttf_ms, mttr_ms=float(mttr_ms),
                               region=plan)),
        point=functools.partial(outage_point, at_ms=at_ms,
                                duration_ms=outage_ms),
        summary=functools.partial(_summary, topology=spec.describe()),
        label=lambda mttf_ms, factor, protocol: (
            f"replication: {protocol} R={factor} mttf={mttf_ms:.0f}ms"))


def _summary(results: GridResults, *, topology: str) -> str:
    lines = [f"== replication: quorum commit over replicated pages "
             f"({topology}, DC 0 outage) =="]
    for mttf in results.values("mttf_ms"):
        # rows are replication factors, one cell of blocked-ms /
        # carried-tps-during-outage per protocol
        label = "outage only" if mttf == 0 else f"MTTF {mttf:.0f}ms"
        lines.append(results.table(
            "factor", "protocol",
            lambda point: (f"{point['blocked_lock_ms']:.0f}ms"
                           f"/{point['throughput_during']:.1f}"),
            corner="replication", label_width=12, min_width=20, pad=13,
            row_label=lambda factor: f"R={factor}",
            col_label=lambda protocol: f"{protocol} (blk/tps)",
            title=f"-- site faults: {label} --", mttf_ms=mttf))
    top_factor = results.values("factor")[-1]
    top_mttf = results.values("mttf_ms")[-1]
    ranked = results.ranked("blocked_lock_ms", along="protocol",
                            factor=top_factor, mttf_ms=top_mttf)
    lines.append(f"at R={top_factor}: least blocking " + " < ".join(ranked))
    lines.append(f"replica propagations: "
                 f"{results.total('replica_updates_sent')} shipped, "
                 f"{results.total('replica_writes_skipped')} skipped "
                 f"(available copies)")
    return "\n".join(lines)
