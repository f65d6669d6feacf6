"""Availability under failures: what the commit protocols deliver when
sites actually crash.

The paper's experiments are failure-free; its *arguments* about
blocking, presumption and non-blocking termination are about failures.
This sweep (an extension, like :mod:`repro.failures`) makes those
arguments measurable for **every** registered protocol: each grid point
runs one protocol under a seeded :class:`repro.faults.FaultConfig` --
stochastic site crash/recover cycles (exponential MTTF/MTTR) and
optional message loss -- and reports the throughput the protocol
sustains alongside the injector's accounting (crashes survived, messages
dropped, in-doubt transactions resolved by recovery).

The x-axis is the site MTTF: shorter MTTF means a harsher environment.
``mttf_ms=0`` disables crashes at that point (the failure-free
baseline), which makes the degradation visible in one table.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.config import ModelParams
from repro.experiments.grid import GridResults, GridSweep, Metrics, PointConfig
from repro.faults import FaultConfig, FaultTimeouts

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.system import DistributedSystem

DEFAULT_MTTFS: tuple[float, ...] = (0.0, 400_000.0, 200_000.0, 100_000.0)


def sweep(protocols: typing.Sequence[str],
          mttfs: typing.Sequence[float] = DEFAULT_MTTFS,
          mttr_ms: float = 5_000.0,
          msg_loss_prob: float = 0.0,
          mpl: int = 2,
          params: ModelParams | None = None,
          measured_transactions: int = 300,
          timeouts: FaultTimeouts | None = None,
          seed: int = 20250705) -> GridSweep:
    """A protocol x MTTF grid of fault-injected simulations.

    Every grid point of one sweep shares ``seed``: the workload *and*
    the fault plan draws are reproducible, so two sweeps with the same
    arguments produce identical results (the determinism contract the
    fault tests pin).
    """
    params = (params if params is not None else ModelParams()).replace(
        mpl=mpl)
    faults = FaultConfig(mttr_ms=mttr_ms, msg_loss_prob=msg_loss_prob,
                         timeouts=(timeouts if timeouts is not None
                                   else FaultTimeouts()))
    return GridSweep(
        (("protocol", protocols), ("mttf_ms", mttfs)),
        configure=lambda protocol, mttf_ms: PointConfig(
            protocol, params, measured_transactions, seed,
            faults=dataclasses.replace(faults, mttf_ms=mttf_ms),
            warmup_transactions=0),
        point=_point, summary=_summary,
        label=lambda protocol, mttf_ms: (
            f"availability: {protocol} @ MTTF "
            + ("inf" if mttf_ms == 0 else f"{mttf_ms / 1000:.0f}s")))


def _point(config: PointConfig, **_: typing.Any) -> Metrics:
    captured: list[DistributedSystem] = []
    result = config.simulate(on_system=captured.append)
    injector = captured[0].faults  # None at the failure-free baseline
    return {
        "result": result,
        "throughput": result.throughput,
        "abort_ratio": result.abort_ratio,
        "crashes": injector.crashes if injector else 0,
        "recoveries": injector.recoveries if injector else 0,
        "messages_dropped": injector.messages_dropped if injector else 0,
        "in_doubt_resolved": injector.in_doubt_resolved if injector else 0,
        # network drop split, e.g. {"site_down": 3, "injected_loss": 2};
        # sums to the network layer's total drop count for the run.
        "drops_by_reason": dict(captured[0].network.drops_by_reason),
    }


def _mttf_label(mttf_ms: float) -> str:
    return "inf" if mttf_ms == 0 else f"{mttf_ms / 1000:.0f}"


def _summary(results: GridResults) -> str:
    lines = ["== availability: throughput vs site MTTF =="]
    # rows are MTTFs (``inf`` for the failure-free baseline), one
    # throughput column per protocol
    lines.append(results.table(
        "mttf_ms", "protocol", lambda point: f"{point['throughput']:.2f}",
        corner="MTTF(s)", label_width=9, min_width=8, pad=1,
        row_label=_mttf_label))
    for protocol in results.values("protocol"):
        split = results.total("drops_by_reason", protocol=protocol)
        rendered = ", ".join(f"{reason}={count}"
                             for reason, count in sorted(split.items()))
        by_reason = f" ({rendered})" if rendered else ""
        lines.append(
            f"{protocol:>8}: "
            f"{results.total('crashes', protocol=protocol)} crashes "
            f"survived, "
            f"{results.total('messages_dropped', protocol=protocol)} "
            f"messages dropped{by_reason}, "
            f"{results.total('in_doubt_resolved', protocol=protocol)} "
            f"in-doubt transactions resolved")
    return "\n".join(lines)
