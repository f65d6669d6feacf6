"""Shared experiment machinery: MPL sweeps, replications, series.

The paper's figures plot a metric (throughput, block ratio, borrow
ratio) against the per-site multiprogramming level, one curve per
protocol.  :class:`MplSweep` runs that grid; :class:`ExperimentResults`
holds it and renders the series as text tables.

Replications: the paper uses one long run per point with batch-means
confidence intervals; we support both one long run (default) and
multiple independent replications (``replications > 1``) whose means are
combined with a Student-t interval (:func:`repro.sim.stats.confidence_interval`).
"""

from __future__ import annotations

import dataclasses
import functools
import typing

from repro.config import ModelParams
from repro.db.system import SimulationResult
from repro.experiments.runner import (
    ParallelSweepRunner,
    PointSpec,
    PointSummary,
    point_seed,
    run_point_spec,
    run_point_summary,
)
from repro.sim.stats import StoppingRule, confidence_interval

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.system import DistributedSystem
    from repro.obs.export import JsonlExporter

#: Replication cap in adaptive (``target_ci``) mode when the caller
#: left ``replications`` at its fixed-mode default of 1.
DEFAULT_ADAPTIVE_CAP = 8

#: Builds the parameters for one sweep point.
ParamsFactory = typing.Callable[[int], ModelParams]

#: Extracts a plotted metric from a result.
MetricFn = typing.Callable[[SimulationResult], float]

METRICS: dict[str, MetricFn] = {
    "throughput": lambda r: r.throughput,
    "response_time": lambda r: r.response_time_ms,
    "block_ratio": lambda r: r.block_ratio,
    "borrow_ratio": lambda r: r.borrow_ratio,
    "abort_ratio": lambda r: r.abort_ratio,
}

DEFAULT_MPLS: tuple[int, ...] = (1, 2, 3, 4, 6, 8, 10)


@dataclasses.dataclass
class SweepPoint:
    """One (protocol, mpl) grid point, possibly replicated.

    ``results`` holds full :class:`SimulationResult` objects on the
    default paths, or lean :class:`PointSummary` objects when the sweep
    ran with the compact wire format (adaptive mode, ``lean=True``) --
    both expose the metric attributes :data:`METRICS` reads.
    """

    protocol: str
    mpl: int
    results: list[SimulationResult | PointSummary]

    @property
    def result(self) -> SimulationResult | PointSummary:
        """The first (or only) replication's result."""
        return self.results[0]

    def metric(self, name: str) -> float:
        """Mean of a metric across replications."""
        fn = METRICS[name]
        values = [fn(r) for r in self.results]
        return sum(values) / len(values)

    def metric_interval(self, name: str,
                        confidence: float = 0.90) -> tuple[float, float]:
        """(mean, half-width) across replications."""
        fn = METRICS[name]
        return confidence_interval([fn(r) for r in self.results],
                                   confidence)


@dataclasses.dataclass
class ExperimentResults:
    """All points of one experiment, with rendering helpers."""

    experiment_id: str
    title: str
    points: dict[tuple[str, int], SweepPoint]
    protocols: tuple[str, ...]
    mpls: tuple[int, ...]
    #: simulated work actually executed: the sum of configured measured
    #: transactions over every replication run (adaptive mode stops
    #: early, so this is how much work ``target_ci`` saved).
    total_measured_transactions: int = 0
    #: the CI target the sweep ran under (None = fixed replications).
    target_ci: float | None = None

    def point(self, protocol: str, mpl: int) -> SweepPoint:
        return self.points[(protocol, mpl)]

    def max_rel_half_width(self, metric: str = "throughput",
                           confidence: float = 0.90) -> float:
        """The loosest point's relative CI half-width (inf with < 2
        replications anywhere) -- the quantity ``target_ci`` bounds."""
        worst = 0.0
        for point in self.points.values():
            mean, half = point.metric_interval(metric, confidence)
            if half == 0.0:
                continue
            worst = max(worst,
                        abs(half / mean) if mean else float("inf"))
        return worst

    def series(self, protocol: str, metric: str = "throughput",
               ) -> list[tuple[int, float]]:
        """[(mpl, value), ...] for one curve of a figure."""
        return [(mpl, self.points[(protocol, mpl)].metric(metric))
                for mpl in self.mpls]

    def peak(self, protocol: str, metric: str = "throughput",
             ) -> tuple[int, float]:
        """(mpl, value) of the curve's maximum (peak throughput)."""
        return max(self.series(protocol, metric), key=lambda p: p[1])

    def table(self, metric: str = "throughput",
              precision: int = 2) -> str:
        """Text table: rows are MPLs, one column per protocol."""
        from repro.analysis.tables import render_series_table
        return render_series_table(self, metric, precision)

    def summary(self) -> str:
        lines = [f"== {self.experiment_id}: {self.title} =="]
        lines.append(self.table("throughput"))
        return "\n".join(lines)


class MplSweep:
    """Runs a protocol x MPL grid of simulations."""

    def __init__(self, protocols: typing.Sequence[str],
                 params_factory: ParamsFactory,
                 mpls: typing.Sequence[int] = DEFAULT_MPLS,
                 measured_transactions: int = 1500,
                 warmup_transactions: int | None = None,
                 replications: int = 1,
                 base_seed: int = 20250705) -> None:
        if replications < 1:
            raise ValueError("replications must be >= 1")
        self.protocols = tuple(protocols)
        self.params_factory = params_factory
        self.mpls = tuple(mpls)
        self.measured_transactions = measured_transactions
        self.warmup_transactions = warmup_transactions
        self.replications = replications
        self.base_seed = base_seed

    def _spec(self, protocol: str, mpl: int, rep: int,
              params: ModelParams) -> PointSpec:
        return PointSpec(
            protocol=protocol, mpl=mpl, rep=rep, params=params,
            measured_transactions=self.measured_transactions,
            warmup_transactions=self.warmup_transactions,
            seed=point_seed(self.base_seed, rep))

    def run_point(self, protocol: str, mpl: int,
                  on_system: typing.Callable[..., None] | None = None,
                  ) -> SweepPoint:
        """Run all replications of one grid point.

        ``on_system(system, protocol=..., mpl=..., rep=...)`` is invoked
        per replication, before it runs -- the hook for attaching
        observers to the system's event bus.
        """
        params = self.params_factory(mpl)
        return SweepPoint(protocol, mpl, [
            run_point_spec(
                self._spec(protocol, mpl, rep, params),
                on_system=None if on_system is None else functools.partial(
                    on_system, protocol=protocol, mpl=mpl, rep=rep))
            for rep in range(self.replications)])

    def point_specs(self) -> list[PointSpec]:
        """The whole grid as picklable specs, in (protocol, mpl, rep)
        order -- the exact inputs (seeds included) every path runs."""
        specs = []
        for protocol in self.protocols:
            for mpl in self.mpls:
                params = self.params_factory(mpl)
                specs += [self._spec(protocol, mpl, rep, params)
                          for rep in range(self.replications)]
        return specs

    def _runner(self, experiment_id: str,
                progress: typing.Callable[[str], None] | None,
                jobs: int) -> ParallelSweepRunner:
        return ParallelSweepRunner(
            jobs=jobs,
            progress=(None if progress is None else
                      (lambda label: progress(f"{experiment_id}: {label}"))))

    def run(self, experiment_id: str = "sweep",
            title: str = "",
            progress: typing.Callable[[str], None] | None = None,
            jobs: int = 1,
            events_out: str | None = None,
            target_ci: float | None = None,
            ci_metric: str = "throughput",
            ci_confidence: float = 0.90,
            lean: bool = False,
            ) -> ExperimentResults:
        """Run the whole grid.

        Every path runs :meth:`point_specs` through
        :class:`~repro.experiments.runner.ParallelSweepRunner`:
        ``jobs=1`` in-process, ``jobs>1`` fanned out over that many
        processes of the warm shared pool.  Results are identical either
        way -- each point's seed is fixed by ``(base_seed, rep)``, not by
        execution order -- and progress fires as each replication
        *completes* on both paths.

        ``target_ci`` switches to adaptive replication: each point runs
        waves of replications (seeds continue the serial
        ``base_seed + rep * 7919`` scheme) until its ``ci_confidence``
        CI relative half-width on ``ci_metric`` drops to ``target_ci``,
        up to a cap of ``replications`` (or ``DEFAULT_ADAPTIVE_CAP``
        when ``replications`` was left at 1).  Adaptive results ship as
        lean :class:`PointSummary` objects.

        ``lean`` returns compact summaries instead of full results on
        the fixed-rep path too (cheaper IPC for big grids; the default
        keeps full results, which the golden byte-identity contract
        pins).

        ``events_out`` streams every simulation event of every point to
        a JSONL file (one ``{"meta": ...}`` line per point, then its
        events); it requires the serial fixed-replication path
        (``jobs=1``, no ``target_ci``).
        """
        if events_out is not None and jobs != 1:
            raise ValueError("events_out requires jobs=1 (events are "
                             "interleaved per point, in grid order)")
        if target_ci is not None:
            if events_out is not None:
                raise ValueError("events_out requires fixed replications "
                                 "(target_ci changes how many reps run)")
            return self._run_adaptive(experiment_id, title, progress,
                                      jobs, target_ci, ci_metric,
                                      ci_confidence)
        specs = self.point_specs()
        fn = run_point_summary if lean else run_point_spec
        exporter = None
        if events_out is not None:
            from repro.obs.export import JsonlExporter
            exporter = JsonlExporter.open(events_out)
            fn = functools.partial(_run_exported, exporter, experiment_id)
        try:
            results = self._runner(experiment_id, progress, jobs).run(
                specs, fn)
        finally:
            if exporter is not None:
                exporter.close()
        points: dict[tuple[str, int], SweepPoint] = {}
        for spec, result in zip(specs, results):
            points.setdefault((spec.protocol, spec.mpl), SweepPoint(
                spec.protocol, spec.mpl, [])).results.append(result)
        return ExperimentResults(
            experiment_id, title, points, self.protocols, self.mpls,
            total_measured_transactions=(len(specs)
                                         * self.measured_transactions))

    # ------------------------------------------------------------------
    def _run_adaptive(self, experiment_id: str, title: str,
                      progress: typing.Callable[[str], None] | None,
                      jobs: int, target_ci: float, ci_metric: str,
                      ci_confidence: float) -> ExperimentResults:
        """Wave-based adaptive replication (CI-driven early stopping).

        Every wave gathers the next batch of replications for every
        still-unsettled point into one spec list and runs it through the
        (possibly parallel) runner with the lean wire format, so a wave
        costs one dispatch round regardless of how many points are
        still converging.
        """
        metric_fn = METRICS[ci_metric]
        cap = (self.replications if self.replications > 1
               else DEFAULT_ADAPTIVE_CAP)
        runner = self._runner(experiment_id, progress, jobs)
        keys = [(protocol, mpl) for protocol in self.protocols
                for mpl in self.mpls]
        params = {key: self.params_factory(key[1]) for key in keys}
        # cap >= 2 always: replications=1 bumps to the adaptive default.
        rules = {key: StoppingRule(target_ci, confidence=ci_confidence,
                                   min_replications=2,
                                   max_replications=cap)
                 for key in keys}
        points = {key: SweepPoint(key[0], key[1], []) for key in keys}
        reps_done = dict.fromkeys(keys, 0)
        total_txns = 0
        while True:
            wave: list[PointSpec] = []
            for key in keys:
                for rep in range(reps_done[key],
                                 reps_done[key] + rules[key].next_wave()):
                    wave.append(self._spec(*key, rep, params[key]))
            if not wave:
                break
            summaries = runner.run(wave, run_point_summary)
            for spec, summary in zip(wave, summaries):
                key = (spec.protocol, spec.mpl)
                points[key].results.append(summary)
                rules[key].observe(metric_fn(summary))
                reps_done[key] += 1
                total_txns += spec.measured_transactions
        return ExperimentResults(
            experiment_id, title, points, self.protocols, self.mpls,
            total_measured_transactions=total_txns, target_ci=target_ci)


def _run_exported(exporter: "JsonlExporter", experiment_id: str,
                  spec: PointSpec) -> SimulationResult:
    """Run one spec with its events streamed to ``exporter``: one
    ``{"meta": ...}`` line, then the replication's events."""
    def attach(system: "DistributedSystem") -> None:
        exporter.detach()
        exporter.meta(experiment=experiment_id, protocol=spec.protocol,
                      mpl=spec.mpl, rep=spec.rep, seed=spec.seed)
        exporter.attach(system.bus)
    return run_point_spec(spec, on_system=attach)


@dataclasses.dataclass
class ExperimentDefinition:
    """Binds a paper artifact to a runnable sweep."""

    experiment_id: str
    title: str
    paper_artifacts: tuple[str, ...]
    protocols: tuple[str, ...]
    params_factory: ParamsFactory
    mpls: tuple[int, ...] = DEFAULT_MPLS
    #: metrics worth reporting for this experiment.
    metrics: tuple[str, ...] = ("throughput",)
    description: str = ""

    def sweep(self, measured_transactions: int = 1500,
              warmup_transactions: int | None = None,
              mpls: typing.Sequence[int] | None = None,
              replications: int = 1,
              base_seed: int = 20250705) -> MplSweep:
        return MplSweep(self.protocols, self.params_factory,
                        mpls=tuple(mpls) if mpls is not None else self.mpls,
                        measured_transactions=measured_transactions,
                        warmup_transactions=warmup_transactions,
                        replications=replications,
                        base_seed=base_seed)

    def run(self, measured_transactions: int = 1500,
            mpls: typing.Sequence[int] | None = None,
            replications: int = 1,
            progress: typing.Callable[[str], None] | None = None,
            jobs: int = 1,
            events_out: str | None = None,
            target_ci: float | None = None,
            lean: bool = False,
            ) -> ExperimentResults:
        sweep = self.sweep(measured_transactions=measured_transactions,
                           mpls=mpls, replications=replications)
        return sweep.run(self.experiment_id, self.title, progress=progress,
                         jobs=jobs, events_out=events_out,
                         target_ci=target_ci, lean=lean)
