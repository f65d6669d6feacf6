"""WAN sweep: commit protocols across multi-datacenter topologies.

The paper's LAN switch makes wire latency free, so protocols differ only
in CPU/disk overheads.  Spread the same system across datacenters and
the picture inverts: every cross-DC message now pays ``rtt_ms / 2`` of
wire latency, so commit latency is dominated by *how many cross-DC round
trips the protocol's commit path serializes* (the metric Gray & Lamport
count protocols by).  This sweep (an extension; see docs/MODEL.md,
"Topology & network cost model") runs a protocol x RTT x placement grid
and reports, per point:

- mean commit **response time** -- at WAN RTTs the fewer-round-trip
  variants (PC skips the commit-ACK round, OPT lends locks across the
  prepared window) beat 2PC, and 3PC's extra PRECOMMIT round makes it
  strictly worse;
- **cross-DC round trips per commit** from the metrics layer (two
  cross-DC messages = one round trip), the quantity that multiplies RTT
  into latency;
- the intra- vs cross-DC message split from the network layer, showing
  how much traffic the ``local`` placement policy (cohorts drawn from
  the master's own DC first) keeps off the expensive links.

Placements: ``spread`` picks cohort sites uniformly (the paper's rule);
``local`` prefers same-DC cohorts (``prefer_local_cohorts``).
"""

from __future__ import annotations

import typing

from repro.config import ModelParams
from repro.db.topology import NetworkTopology, TopologyKind
from repro.experiments.grid import GridResults, GridSweep, Metrics, PointConfig

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.system import DistributedSystem

#: Cross-DC round-trip times (ms) from "same metro" to
#: "cross-continent"; 0 isolates the placement/accounting machinery.
DEFAULT_RTTS: tuple[float, ...] = (0.0, 10.0, 40.0, 100.0)

DEFAULT_PLACEMENTS: tuple[str, ...] = ("spread", "local")


def sweep(protocols: typing.Sequence[str],
          rtts_ms: typing.Sequence[float] = DEFAULT_RTTS,
          placements: typing.Sequence[str] = DEFAULT_PLACEMENTS,
          num_dcs: int = 2,
          mpl: int = 2,
          params: ModelParams | None = None,
          measured_transactions: int = 300,
          seed: int = 20250705) -> GridSweep:
    """A placement x protocol x RTT grid over a multi-DC topology.

    Every grid point shares ``seed``: workload shape comes from the same
    substreams everywhere, so protocols face common random numbers and
    latency differences isolate the commit path.  The topology is
    ``num_dcs`` datacenters of ``num_sites / num_dcs`` sites each
    (``dcs:DxS:rtt_ms=<rtt>``), closed mode at the given ``mpl``.
    """
    if not rtts_ms:
        raise ValueError("rtts_ms must be non-empty")
    for placement in placements:
        if placement not in ("spread", "local"):
            raise ValueError(
                f"unknown placement {placement!r}; expected "
                f"'spread' or 'local'")
    if num_dcs < 1:
        raise ValueError(f"num_dcs must be >= 1, got {num_dcs}")
    base = params if params is not None else ModelParams()
    if base.num_sites % num_dcs:
        raise ValueError(
            f"num_sites={base.num_sites} does not split "
            f"into {num_dcs} equal datacenters")
    return GridSweep(
        (("placement", placements), ("protocol", protocols),
         ("rtt_ms", tuple(float(rtt) for rtt in rtts_ms))),
        configure=lambda placement, protocol, rtt_ms: PointConfig(
            protocol, base.replace(
                mpl=mpl,
                network_topology=topology_for(base.num_sites, num_dcs,
                                              rtt_ms),
                prefer_local_cohorts=(placement == "local")),
            measured_transactions, seed),
        point=_point, summary=_summary,
        label=lambda placement, protocol, rtt_ms: (
            f"wan: {protocol} @ rtt={rtt_ms:.0f}ms ({placement})"))


def topology_for(num_sites: int, num_dcs: int,
                 rtt_ms: float) -> NetworkTopology:
    """``num_dcs`` datacenters of ``num_sites / num_dcs`` sites at
    ``rtt_ms`` apart."""
    return NetworkTopology(kind=TopologyKind.DCS, num_dcs=num_dcs,
                           sites_per_dc=num_sites // num_dcs,
                           rtt_ms=rtt_ms)


def _point(config: PointConfig, **_: typing.Any) -> Metrics:
    captured: list[DistributedSystem] = []
    result = config.simulate(on_system=captured.append)
    system = captured[0]
    return {
        "result": result,
        "response_ms": result.response_time_ms,
        "throughput": result.throughput,
        # remote-message split observed by the network layer (whole run)
        "cross_dc_messages": system.network.cross_dc_messages,
        "intra_dc_messages": system.network.intra_dc_messages,
        # per-committed-transaction round trips from the metrics layer
        # (measured period only)
        "cross_dc_round_trips_per_commit":
            system.metrics.cross_dc_round_trips_per_commit(),
    }


def _summary(results: GridResults) -> str:
    lines = ["== wan: commit latency vs cross-DC round-trip time =="]
    for placement in results.values("placement"):
        # rows are RTTs; resp/xdc-rt per protocol
        lines.append(results.table(
            "rtt_ms", "protocol",
            lambda point: (f"{point['response_ms']:.0f}ms/"
                           f"{point['cross_dc_round_trips_per_commit']:.1f}"),
            corner="rtt", label_width=8, min_width=18, pad=11,
            row_label=lambda rtt: f"{rtt:.0f}ms",
            col_label=lambda protocol: f"{protocol} (resp/xdc-rt)",
            title=f"-- placement: {placement} --", placement=placement))
    top_rtt = results.values("rtt_ms")[-1]
    for placement in results.values("placement"):
        ranked = results.ranked("response_ms", along="protocol",
                                rtt_ms=top_rtt, placement=placement)
        lines.append(f"at rtt={top_rtt:.0f}ms, {placement}: fastest commit "
                     + " < ".join(ranked))
    return "\n".join(lines)
