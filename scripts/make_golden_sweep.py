#!/usr/bin/env python
"""Regenerate the golden fixtures used by tests/test_equivalence.py.

``sweep`` (``tests/data/golden_sweep.json``) runs the canonical
:class:`MplSweep` grids (a fast tier-1 subset and the full every-protocol
tier-2 grid): healthy runs, every commit reaching the commit decision.

``commit-paths`` (``tests/data/golden_commit_paths.json``) runs every
registered protocol plus ``PAXOS:f=0`` under the configurations that
reach the rest of the commit machinery: abort decisions (surprise
aborts), read-only votes, sequential execution and the fault plane.

Both record every :class:`SimulationResult` field as JSON.  The fixtures
pin the simulated trajectory bit-for-bit: any refactor that perturbs
event order, metric accounting, or seeding shows up as a diff.

Usage::

    PYTHONPATH=src python scripts/make_golden_sweep.py [sweep] [commit-paths]

With no argument both fixtures are rewritten.  Only rerun this when a
change is *meant* to alter simulation results; commit the regenerated
fixture together with that change.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

DATA = REPO_ROOT / "tests" / "data"

#: (name, protocols, mpls, measured transactions) per grid.
GRIDS = [
    ("tier1", ("2PC", "PA", "PC", "3PC", "OPT"), (1, 2, 4), 60),
    ("tier2", None, (1, 2, 3, 4, 6, 8, 10), 40),  # None = all protocols
]

#: Commit-path configurations: ``ModelParams`` overrides (enums by
#: value) and ``FaultConfig`` fields (None = no fault plane).  The
#: fixture stores them, so the test rebuilds each run from the fixture.
COMMIT_PATH_CONFIGS = {
    "surprise": {"params": {"surprise_abort_prob": 0.10}, "faults": None},
    "read-only": {"params": {"update_prob": 0.5,
                             "read_only_optimization": True},
                  "faults": None},
    "sequential": {"params": {"trans_type": "sequential",
                              "surprise_abort_prob": 0.05},
                   "faults": None},
    "faults": {"params": {"surprise_abort_prob": 0.05},
               "faults": {"mttf_ms": 20000.0, "msg_loss_prob": 0.02}},
}
COMMIT_PATH_EXTRA_PROTOCOLS = ("PAXOS:f=0",)
COMMIT_PATH_MPL = 4
COMMIT_PATH_SEED = 1
COMMIT_PATH_TRANSACTIONS = 40


def run_grid(protocols, mpls, transactions):
    from repro.config import ModelParams
    from repro.experiments.base import MplSweep

    sweep = MplSweep(protocols, lambda mpl: ModelParams(mpl=mpl),
                     mpls=mpls, measured_transactions=transactions)
    results = sweep.run("golden")
    grid = {}
    for (protocol, mpl), point in results.points.items():
        grid[f"{protocol}@{mpl}"] = dataclasses.asdict(point.result)
    return grid


def make_sweep() -> dict:
    from repro.core import PROTOCOL_NAMES

    fixture = {"_comment": "regenerate with scripts/make_golden_sweep.py"}
    for name, protocols, mpls, transactions in GRIDS:
        if protocols is None:
            protocols = PROTOCOL_NAMES
        print(f"{name}: {len(protocols)} protocols x {len(mpls)} MPLs "
              f"({transactions} txns/point)")
        fixture[name] = {
            "protocols": list(protocols),
            "mpls": list(mpls),
            "transactions": transactions,
            "points": run_grid(protocols, mpls, transactions),
        }
    return fixture


def run_commit_path(protocol, config, mpl, seed, transactions):
    """One commit-path point (tests/test_equivalence.py mirrors this)."""
    import repro
    from repro.config import ModelParams, TransactionType
    from repro.faults import FaultConfig

    params = dict(config["params"], mpl=mpl)
    if "trans_type" in params:
        params["trans_type"] = TransactionType(params["trans_type"])
    faults = config["faults"]
    return repro.simulate(
        protocol, ModelParams(**params), measured_transactions=transactions,
        seed=seed, faults=FaultConfig(**faults) if faults else None)


def make_commit_paths() -> dict:
    from repro.core import PROTOCOL_NAMES

    protocols = (*PROTOCOL_NAMES, *COMMIT_PATH_EXTRA_PROTOCOLS)
    print(f"commit-paths: {len(protocols)} protocols x "
          f"{len(COMMIT_PATH_CONFIGS)} configs "
          f"({COMMIT_PATH_TRANSACTIONS} txns/point)")
    points = {}
    for protocol in protocols:
        for name, config in COMMIT_PATH_CONFIGS.items():
            result = run_commit_path(protocol, config, COMMIT_PATH_MPL,
                                     COMMIT_PATH_SEED,
                                     COMMIT_PATH_TRANSACTIONS)
            points[f"{protocol}/{name}"] = dataclasses.asdict(result)
    return {
        "_comment": "regenerate with scripts/make_golden_sweep.py "
                    "commit-paths",
        "protocols": list(protocols),
        "configs": COMMIT_PATH_CONFIGS,
        "mpl": COMMIT_PATH_MPL,
        "seed": COMMIT_PATH_SEED,
        "transactions": COMMIT_PATH_TRANSACTIONS,
        "points": points,
    }


FIXTURES = {
    "sweep": (DATA / "golden_sweep.json", make_sweep),
    "commit-paths": (DATA / "golden_commit_paths.json", make_commit_paths),
}


def main(argv: list[str]) -> int:
    names = argv or list(FIXTURES)
    unknown = [name for name in names if name not in FIXTURES]
    if unknown:
        print(f"unknown fixture(s) {unknown}; choose from {list(FIXTURES)}",
              file=sys.stderr)
        return 2
    for name in names:
        output, make = FIXTURES[name]
        fixture = make()
        output.parent.mkdir(parents=True, exist_ok=True)
        output.write_text(json.dumps(fixture, indent=1, sort_keys=True)
                          + "\n")
        print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
