"""Grid sweeps: run a protocol x parameter grid, tabulate metrics per point.

The paper's method (Section 5) is one loop: simulate every point of a
protocol x parameter grid and tabulate what each point measured.  The
extension sweeps (:mod:`~repro.experiments.availability`,
:mod:`~repro.experiments.wan`, :mod:`~repro.experiments.region_outage`,
:mod:`~repro.experiments.replication` and
:mod:`~repro.experiments.saturation`) are all that loop.  Each module
keeps only its science -- axis defaults and validation, a point
function and its summary text -- and :class:`GridSweep` does the rest:

- **Axes** are ordered ``(name, values)`` pairs, outermost first.  Points
  run in that nested order, which also fixes the progress-line order.
  An empty axis or a repeated value on any axis is a ``ValueError``.
- **Point function**: a module-level (hence picklable) function called
  as ``point(config, **coord)`` with the point's :class:`PointConfig`
  (built in the parent by ``configure(**coord)``); it runs the
  simulation and returns the point's metrics dict.
- **One pool path**: every grid runs through
  :class:`~repro.experiments.runner.ParallelSweepRunner` -- in-process
  at ``jobs=1``, chunked over the warm shared pool otherwise, where a
  raising point surfaces as ``SweepWorkerError`` carrying its label.
  Each point's inputs are fixed by its coordinate, so ``jobs=2`` is
  identical to ``jobs=1``.
- **Fail fast**: every point's protocol, params and faults are validated
  before the first simulation runs, so an invalid grid costs nothing.

:class:`GridResults` holds the metrics by coordinate and renders the
row x column text tables the summaries are made of.
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
import typing

import repro
from repro.config import ModelParams, Topology
from repro.core import create_protocol, protocol_requires_centralized_topology
from repro.experiments.runner import ParallelSweepRunner, ProgressFn

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.system import DistributedSystem, SimulationResult
    from repro.faults import FaultConfig

#: What one grid point measured, by metric name.
Metrics = dict[str, typing.Any]


@dataclasses.dataclass(frozen=True)
class PointConfig:
    """What one grid point simulates: one :func:`repro.simulate` call."""

    protocol: str
    params: ModelParams
    measured_transactions: int
    seed: int
    faults: "FaultConfig | None" = None
    warmup_transactions: int | None = None

    def validate(self) -> None:
        """Raise ``ValueError`` for a point that could not be built --
        the checks ``build_system`` would make, without simulating."""
        create_protocol(self.protocol)
        if protocol_requires_centralized_topology(self.protocol):
            self.params.replace(topology=Topology.CENTRALIZED)
        if self.faults is not None:
            self.faults.validate()
        if self.measured_transactions < 1:
            raise ValueError("measured_transactions must be >= 1")

    def simulate(self, on_system: typing.Callable[["DistributedSystem"],
                                                  None] | None = None,
                 ) -> "SimulationResult":
        return repro.simulate(
            self.protocol, params=self.params,
            measured_transactions=self.measured_transactions,
            warmup_transactions=self.warmup_transactions,
            seed=self.seed, faults=self.faults, on_system=on_system)


@dataclasses.dataclass(frozen=True)
class _GridPoint:
    """One point as shipped to a pool worker."""

    label: str
    point: typing.Callable[..., Metrics]
    config: PointConfig
    coord: dict[str, typing.Any]


def _run_grid_point(spec: _GridPoint) -> Metrics:
    """Runner entry point (module-level so it pickles by reference)."""
    return spec.point(spec.config, **spec.coord)


def _in_grid_order(labels: list[str], progress: ProgressFn) -> ProgressFn:
    """Progress that reports points in grid order even when the pool
    completes them out of order (identical labels are interchangeable,
    so a count per label is enough)."""
    done: collections.Counter[str] = collections.Counter()
    position = 0

    def emit(label: str) -> None:
        nonlocal position
        done[label] += 1
        while position < len(labels) and done[labels[position]]:
            done[labels[position]] -= 1
            progress(labels[position])
            position += 1
    return emit


class GridSweep:
    """A named-axis grid of simulations.

    ``configure(**coord)`` builds a point's :class:`PointConfig`,
    ``point(config, **coord)`` simulates it and returns its metrics
    dict, ``label(**coord)`` is its progress line, and
    ``summary(results)`` renders the finished grid.
    """

    def __init__(self, axes: typing.Sequence[tuple[str, typing.Sequence]],
                 *, configure: typing.Callable[..., PointConfig],
                 point: typing.Callable[..., Metrics],
                 label: typing.Callable[..., str],
                 summary: typing.Callable[["GridResults"], str]) -> None:
        self.axes = tuple((name, tuple(values)) for name, values in axes)
        for name, values in self.axes:
            if not values:
                raise ValueError(f"grid axis {name!r} has no values")
            repeated = [value for value, count
                        in collections.Counter(values).items() if count > 1]
            if repeated:
                raise ValueError(
                    f"grid axis {name!r} repeats the value {repeated[0]!r}")
        self.configure = configure
        self.point = point
        self.label = label
        self.summary = summary

    def coords(self) -> list[dict[str, typing.Any]]:
        """Every coordinate, outermost axis first."""
        names = [name for name, _ in self.axes]
        return [dict(zip(names, values)) for values
                in itertools.product(*(values for _, values in self.axes))]

    def configs(self) -> list[PointConfig]:
        """Every point's validated config, in grid order."""
        configs = [self.configure(**coord) for coord in self.coords()]
        for config in configs:
            config.validate()
        return configs

    def run(self, progress: ProgressFn | None = None,
            jobs: int = 1) -> "GridResults":
        """Validate every point, then run the grid (``jobs > 1`` fans
        the points out over the warm shared pool)."""
        coords = self.coords()
        specs = [_GridPoint(self.label(**coord), self.point, config, coord)
                 for coord, config in zip(coords, self.configs())]
        runner = ParallelSweepRunner(
            jobs=jobs, progress=None if progress is None else
            _in_grid_order([spec.label for spec in specs], progress))
        metrics = runner.run(specs, _run_grid_point)
        return GridResults(
            self.axes, {tuple(coord.values()): point
                        for coord, point in zip(coords, metrics)},
            self.summary)


@dataclasses.dataclass
class GridResults:
    """Every point's metrics, keyed by coordinate (axis order)."""

    axes: tuple[tuple[str, tuple[typing.Any, ...]], ...]
    points: dict[tuple[typing.Any, ...], Metrics]
    summarize: typing.Callable[["GridResults"], str]

    def values(self, axis: str) -> tuple[typing.Any, ...]:
        return dict(self.axes)[axis]

    def point(self, **coords: typing.Any) -> Metrics:
        names = [name for name, _ in self.axes]
        if sorted(coords) != sorted(names):
            raise TypeError(f"point() wants exactly the axes {names}, "
                            f"got {sorted(coords)}")
        return self.points[tuple(coords[name] for name in names)]

    def select(self, **fixed: typing.Any) -> list[Metrics]:
        """Metrics of every point matching ``fixed``, in grid order."""
        names = [name for name, _ in self.axes]
        return [metrics for key, metrics in self.points.items()
                if all(key[names.index(name)] == value
                       for name, value in fixed.items())]

    def total(self, metric: str, **fixed: typing.Any) -> typing.Any:
        """A count metric summed over the points matching ``fixed``;
        dict-valued counts (e.g. drops by reason) sum per key."""
        values = [point[metric] for point in self.select(**fixed)]
        if not values or not isinstance(values[0], dict):
            return sum(values)
        merged: dict[str, int] = {}
        for value in values:
            for key, count in value.items():
                merged[key] = merged.get(key, 0) + count
        return merged

    def series(self, metric: str, along: str,
               **fixed: typing.Any) -> list[tuple[typing.Any, typing.Any]]:
        """[(value, metric), ...] along one axis, the others fixed."""
        return [(value, self.point(**fixed, **{along: value})[metric])
                for value in self.values(along)]

    def ranked(self, metric: str, along: str,
               **fixed: typing.Any) -> list[typing.Any]:
        """One axis's values, smallest ``metric`` first (stable)."""
        return [value for value, _ in sorted(
            self.series(metric, along, **fixed), key=lambda item: item[1])]

    def table(self, rows: str, cols: str,
              cell: typing.Callable[[Metrics], str], *,
              corner: str, label_width: int, min_width: int, pad: int,
              row_label: typing.Callable[[typing.Any], str] = str,
              col_label: typing.Callable[[typing.Any], str] = str,
              title: str | None = None, **fixed: typing.Any) -> str:
        """Text table: one row per ``rows`` value, one right-aligned
        column per ``cols`` value, the other axes ``fixed``.  Columns
        are ``pad`` wider than the longest ``cols`` value, and at least
        ``min_width``."""
        width = max(min_width,
                    max(len(str(col)) for col in self.values(cols)) + pad)
        header = f"{corner:>{label_width}} " + "".join(
            f"{col_label(col):>{width}}" for col in self.values(cols))
        lines = [] if title is None else [title]
        lines += [header, "-" * len(header)]
        for row in self.values(rows):
            cells = [cell(self.point(**fixed, **{rows: row, cols: col}))
                     for col in self.values(cols)]
            lines.append(f"{row_label(row):>{label_width}} "
                         + "".join(f"{text:>{width}}" for text in cells))
        return "\n".join(lines)

    def summary(self) -> str:
        return self.summarize(self)
