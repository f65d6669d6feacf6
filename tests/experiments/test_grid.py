"""The grid-sweep layer: axes, fail-fast validation, one pool path, and
byte-identical rendered output of the five extension sweeps."""

import dataclasses
import json
import pathlib

import pytest

from repro.config import ModelParams
from repro.experiments import GridSweep, SweepWorkerError
from repro.experiments import (
    availability,
    region_outage,
    replication,
    saturation,
    wan,
)
from repro.experiments.grid import PointConfig

GOLDEN = (pathlib.Path(__file__).parent.parent / "data"
          / "golden_sweep_summaries.json")

SWEEPS = {
    "availability": availability,
    "wan": wan,
    "region_outage": region_outage,
    "replication": replication,
    "saturation": saturation,
}


def _comparable(results):
    return {key: {**point, "result": dataclasses.asdict(point["result"])}
            for key, point in results.points.items()}


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_summary_matches_golden_and_pool_matches_serial(name):
    """Each sweep's small golden grid renders byte-identically to the
    recorded text, and ``jobs=2`` reproduces ``jobs=1`` point for point."""
    golden = json.loads(GOLDEN.read_text())[name]
    sweep = SWEEPS[name].sweep(**golden["kwargs"])
    serial = sweep.run(jobs=1)
    assert serial.summary() == golden["summary"]
    pooled = sweep.run(jobs=2)
    assert pooled.summary() == golden["summary"]
    assert _comparable(pooled) == _comparable(serial)


# ----------------------------------------------------------------------
# A tiny grid with an instrumented point function
# ----------------------------------------------------------------------
def _configure(protocol, mpl):
    return PointConfig(protocol, ModelParams(mpl=mpl),
                       measured_transactions=5, seed=3)


def _point(config, **coord):
    return {"committed": config.simulate().committed, **coord}


def _raising_point(config, **coord):
    raise RuntimeError(f"no metrics for {coord['protocol']}")


def _label(protocol, mpl):
    return f"{protocol} @ {mpl}"


def _grid(point=_point, protocols=("2PC", "PC"), mpls=(1, 2)):
    return GridSweep((("protocol", protocols), ("mpl", mpls)),
                     configure=_configure, point=point, label=_label,
                     summary=lambda results: "summary")


class TestAxes:
    def test_points_run_outermost_axis_first(self):
        assert [tuple(c.values()) for c in _grid().coords()] == [
            ("2PC", 1), ("2PC", 2), ("PC", 1), ("PC", 2)]

    @pytest.mark.parametrize("protocols, mpls, axis", [
        (("2PC", "2PC"), (1,), "protocol"),
        (("2PC",), (1, 2, 1), "mpl"),
    ])
    def test_duplicate_axis_values_rejected(self, protocols, mpls, axis):
        with pytest.raises(ValueError, match=f"axis '{axis}' repeats"):
            _grid(protocols=protocols, mpls=mpls)

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="axis 'mpl' has no values"):
            _grid(mpls=())


class TestFailFast:
    def test_invalid_point_raises_before_any_simulation(self):
        calls = []

        def point(config, **coord):  # pragma: no cover - must not run
            calls.append(coord)
            return {}

        with pytest.raises(ValueError, match="unknown protocol"):
            _grid(point=point, protocols=("2PC", "NOT-A-PROTOCOL")).run()
        assert calls == []

    def test_cent_on_a_multi_dc_grid_is_invalid(self):
        sweep = wan.sweep(("2PC", "CENT"), rtts_ms=(0.0,),
                          placements=("spread",))
        with pytest.raises(ValueError, match="CENT baseline"):
            sweep.configs()

    def test_invalid_faults_rejected(self):
        sweep = availability.sweep(("2PC",), mttfs=(-1.0,))
        with pytest.raises(ValueError, match="mttf_ms"):
            sweep.run()


class TestPoolPath:
    def test_raising_point_surfaces_as_sweep_worker_error(self):
        with pytest.raises(SweepWorkerError,
                           match=r"sweep point 'PC @ [12]'") as excinfo:
            _grid(point=_raising_point, protocols=("PC",)).run(jobs=2)
        assert "no metrics for PC" in str(excinfo.value)

    def test_progress_reports_in_grid_order_under_the_pool(self):
        lines = []
        results = _grid().run(progress=lines.append, jobs=2)
        assert lines == ["2PC @ 1", "2PC @ 2", "PC @ 1", "PC @ 2"]
        assert results.point(protocol="PC", mpl=2)["committed"] >= 5


class TestResults:
    @pytest.fixture(scope="class")
    def results(self):
        return _grid().run()

    def test_point_wants_every_axis(self, results):
        assert results.point(mpl=1, protocol="2PC")["mpl"] == 1
        with pytest.raises(TypeError, match="axes"):
            results.point(protocol="2PC")

    def test_select_and_series(self, results):
        assert [p["mpl"] for p in results.select(protocol="PC")] == [1, 2]
        assert [v for v, _ in results.series(
            "committed", along="mpl", protocol="2PC")] == [1, 2]

    def test_table_layout(self, results):
        table = results.table(
            "mpl", "protocol", lambda point: str(point["mpl"]),
            corner="mpl", label_width=4, min_width=5, pad=1,
            title="-- t --")
        assert table.splitlines() == [
            "-- t --",
            " mpl   2PC   PC",
            "---------------",
            "   1     1    1",
            "   2     2    2",
        ]
        assert results.summary() == "summary"
