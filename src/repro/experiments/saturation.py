"""Saturation sweep: open-system throughput versus offered load.

The paper's closed model reports throughput at a fixed multiprogramming
level; an open system instead asks *how much offered load each commit
protocol can carry before the admission queues overflow*.  This sweep
(an extension; see docs/MODEL.md, "Open-system workload") runs every
requested protocol across a grid of per-site Poisson arrival rates and
reports, per point:

- **carried** throughput (committed transactions/second) against the
  **offered** load -- the two coincide until saturation, then carried
  flattens at the protocol's service ceiling;
- the **shed ratio** (arrivals dropped on a full admission queue);
- mean admission-queue wait and the p50/p95/p99 response percentiles,
  which diverge from the mean far below the point where throughput
  visibly flattens -- the behaviour the closed model cannot show.

Faster commit protocols (e.g. OPT's lending) saturate later: their
curves separate exactly where the paper's MPL sweeps predict.
"""

from __future__ import annotations

import typing

from repro.config import ModelParams, WorkloadMode
from repro.experiments.grid import GridResults, GridSweep, Metrics, PointConfig

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.system import OpenSimulationResult
    from repro.db.workload import AccessSkew

#: Per-site arrival rates (txns/second) bracketing the baseline
#: hardware's ~1.6 txns/s/site service ceiling at mpl=8: linear region,
#: the knee, saturation (latency blows up), deep overload (queues
#: overflow and load is shed).
DEFAULT_RATES: tuple[float, ...] = (0.5, 1.0, 1.5, 2.0, 3.0, 5.0)


def sweep(protocols: typing.Sequence[str],
          rates: typing.Sequence[float] = DEFAULT_RATES,
          mpl: int = 8,
          skew: "AccessSkew | None" = None,
          queue_limit: int = 64,
          params: ModelParams | None = None,
          measured_transactions: int = 300,
          seed: int = 20250705) -> GridSweep:
    """A protocol x arrival-rate grid of open-system simulations.

    Every grid point of one sweep shares ``seed``: arrival timing and
    workload shape are drawn from the same substreams everywhere, so the
    protocols face literally the same offered load (common random
    numbers) and two sweeps with the same arguments are identical.
    """
    if not rates:
        raise ValueError("rates must be non-empty")
    base = params if params is not None else ModelParams()
    return GridSweep(
        (("protocol", protocols), ("rate", rates)),
        configure=lambda protocol, rate: PointConfig(
            protocol, base.replace(
                workload_mode=WorkloadMode.OPEN, arrival_rate_tps=rate,
                admission_queue_limit=queue_limit, skew=skew, mpl=mpl),
            measured_transactions, seed),
        point=_point, summary=_summary,
        label=lambda protocol, rate: (
            f"saturation: {protocol} @ {rate:.2f} txns/s/site"))


def _point(config: PointConfig, **_: typing.Any) -> Metrics:
    result = typing.cast("OpenSimulationResult", config.simulate())
    return {"result": result, "carried": result.throughput,
            "shed_ratio": result.shed_ratio,
            "p95_ms": result.response_p95_ms}


def _summary(results: GridResults) -> str:
    rates = results.values("rate")
    lines = ["== saturation: carried load vs offered load "
             "(per-site txns/s) =="]
    # rows are rates; carried/shed/p95 per protocol
    lines.append(results.table(
        "rate", "protocol",
        lambda point: (f"{point['carried']:.2f}/{point['shed_ratio']:.2f}"
                       f"/{point['p95_ms']:.0f}ms"),
        corner="rate/site", label_width=10, min_width=20, pad=13,
        row_label=lambda rate: f"{rate:.2f}",
        col_label=lambda protocol: f"{protocol} (car/shed/p95)"))
    for protocol in results.values("protocol"):
        knee = next((rate for rate in rates if results.point(
            protocol=protocol, rate=rate)["shed_ratio"] > 0.01), None)
        if knee is None:
            lines.append(f"{protocol:>8}: no shedding up to "
                         f"{rates[-1]:.2f} txns/s/site")
        else:
            lines.append(f"{protocol:>8}: sheds load from "
                         f"{knee:.2f} txns/s/site")
    return "\n".join(lines)
