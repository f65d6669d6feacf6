"""Golden-fixture equivalence: the instrumented system reproduces the
pre-refactor simulation trajectories bit-for-bit.

The fixture (``tests/data/golden_sweep.json``) records every
:class:`SimulationResult` field of the canonical sweep grids, generated
by ``scripts/make_golden_sweep.py`` from the direct-call (pre-event-bus)
metrics path.  Routing metrics and admission control through the event
bus must not perturb a single field -- same seeds, same event order,
same numbers.  Only regenerate the fixture when a change is *meant* to
alter results.

Those grids are healthy runs in which every vote is YES.  The
commit-path fixture (``tests/data/golden_commit_paths.json``) pins the
rest of the commit machinery -- abort decisions, read-only votes,
sequential execution and the fault plane -- for every registered
protocol plus ``PAXOS:f=0``.
"""

import dataclasses
import json
import pathlib

import pytest

import repro
from repro.config import ModelParams, TransactionType
from repro.experiments.base import MplSweep
from repro.faults import FaultConfig

FIXTURE = pathlib.Path(__file__).parent / "data" / "golden_sweep.json"
COMMIT_PATHS = FIXTURE.with_name("golden_commit_paths.json")


def _round_trip(result):
    """Normalize a SimulationResult the way the fixture was written."""
    return json.loads(json.dumps(dataclasses.asdict(result)))


def _check_grid(grid):
    sweep = MplSweep(tuple(grid["protocols"]),
                     lambda mpl: ModelParams(mpl=mpl),
                     mpls=tuple(grid["mpls"]),
                     measured_transactions=grid["transactions"])
    results = sweep.run("golden")
    mismatched = []
    for (protocol, mpl), point in results.points.items():
        expected = grid["points"][f"{protocol}@{mpl}"]
        if _round_trip(point.result) != expected:
            mismatched.append(f"{protocol}@{mpl}")
    assert not mismatched, (
        f"{len(mismatched)} points diverged from the golden fixture: "
        f"{mismatched}; if the change is intentional, regenerate with "
        f"scripts/make_golden_sweep.py")


@pytest.fixture(scope="module")
def fixture():
    return json.loads(FIXTURE.read_text())


def test_tier1_grid_matches_golden_fixture(fixture):
    _check_grid(fixture["tier1"])


@pytest.mark.tier2
def test_tier2_full_protocol_grid_matches_golden_fixture(fixture):
    _check_grid(fixture["tier2"])


def test_commit_path_fixture_matches():
    """Every protocol's abort, read-only, sequential and fault paths
    reproduce the fixture bit-for-bit."""
    fixture = json.loads(COMMIT_PATHS.read_text())
    assert set(repro.PROTOCOL_NAMES) <= set(fixture["protocols"])
    mismatched = []
    for protocol in fixture["protocols"]:
        for name, config in fixture["configs"].items():
            params = dict(config["params"], mpl=fixture["mpl"])
            if "trans_type" in params:
                params["trans_type"] = TransactionType(params["trans_type"])
            faults = config["faults"]
            result = repro.simulate(
                protocol, ModelParams(**params),
                measured_transactions=fixture["transactions"],
                seed=fixture["seed"],
                faults=FaultConfig(**faults) if faults else None)
            key = f"{protocol}/{name}"
            if _round_trip(result) != fixture["points"][key]:
                mismatched.append(key)
    assert not mismatched, (
        f"{len(mismatched)} commit-path points diverged: {mismatched}; "
        f"if the change is intentional, regenerate with "
        f"scripts/make_golden_sweep.py commit-paths")
