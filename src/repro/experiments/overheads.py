"""Tables 3 and 4: protocol overheads for committing transactions.

The paper tabulates, per committing transaction, the number of
execution-phase messages, forced log writes, and commit-phase messages,
at ``DistDegree`` 3 (Table 3) and 6 (Table 4).  Here both the *analytic*
counts (closed forms below) and *measured* counts (from abort-free
simulation runs) are produced; the benchmark asserts they agree.

Closed forms, with ``D`` = DistDegree (so ``D - 1`` remote cohorts,
``r = D - 1``):

===========  ===================  =======================  ==================
Protocol     execution messages   forced writes            commit messages
===========  ===================  =======================  ==================
2PC / PA     ``2r``               ``2D + 1``               ``4r``
PC           ``2r``               ``D + 2``                ``3r``
3PC          ``2r``               ``3D + 2``               ``6r``
DPCC         ``2r``               ``1``                    ``0``
CENT         ``0``                ``1``                    ``0``
===========  ===================  =======================  ==================

OPT variants inherit the counts of their base protocol (lending is free
in messages and log writes).
"""

from __future__ import annotations

import dataclasses
import typing

import repro
from repro.config import ModelParams
from repro.experiments.runner import ParallelSweepRunner, point_seed


@dataclasses.dataclass(frozen=True)
class OverheadRow:
    """One protocol's row of Table 3/4."""

    protocol: str
    execution_messages: float
    forced_writes: float
    commit_messages: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.execution_messages, self.forced_writes,
                self.commit_messages)


#: The protocols the paper tabulates, in table order.
TABLE_PROTOCOLS: tuple[str, ...] = ("2PC", "PA", "PC", "3PC", "DPCC", "CENT")


def expected_overheads(protocol: str, dist_degree: int) -> OverheadRow:
    """Analytic per-committing-transaction overheads."""
    remote = dist_degree - 1
    base = protocol.upper().replace("OPT-", "")
    if base == "OPT":
        base = "2PC"
    if base in ("2PC", "PA"):
        row = (2 * remote, 2 * dist_degree + 1, 4 * remote)
    elif base == "PC":
        row = (2 * remote, dist_degree + 2, 3 * remote)
    elif base == "3PC":
        row = (2 * remote, 3 * dist_degree + 2, 6 * remote)
    elif base == "DPCC":
        row = (2 * remote, 1, 0)
    elif base == "CENT":
        row = (0, 1, 0)
    else:
        raise KeyError(f"no analytic overheads for protocol {protocol!r}")
    return OverheadRow(protocol, *row)


#: base seed of the table measurement runs; adaptive replications step
#: by the sweep runner's historical stride.
MEASURE_SEED = 20250705


def measure_overheads(protocol: str, dist_degree: int, cohort_size: int,
                      transactions: int = 60,
                      seed: int = MEASURE_SEED) -> OverheadRow:
    """Measured overheads from a conflict-free simulation run."""
    params = ModelParams(num_sites=8, db_size=48000, mpl=1,
                         dist_degree=dist_degree, cohort_size=cohort_size)
    result = repro.simulate(protocol, params=params,
                            measured_transactions=transactions,
                            warmup_transactions=10, seed=seed)
    if result.aborted:
        raise RuntimeError(
            "overhead measurement expected an abort-free run; got "
            f"{result.aborted} aborts")
    exec_msgs, forced, commit_msgs = result.overheads.rounded()
    return OverheadRow(protocol, exec_msgs, forced, commit_msgs)


@dataclasses.dataclass(frozen=True)
class _RowSpec:
    """One measurement run of a table row (picklable)."""

    protocol: str
    dist_degree: int
    cohort_size: int
    transactions: int
    seed: int

    @property
    def label(self) -> str:
        return f"{self.protocol} @ DistDegree {self.dist_degree}"


def _measure_row(spec: _RowSpec) -> OverheadRow:
    """Runner entry point (module-level so it pickles by reference)."""
    return measure_overheads(spec.protocol, spec.dist_degree,
                             spec.cohort_size,
                             transactions=spec.transactions, seed=spec.seed)


def _measure_rows(specs: list[_RowSpec], jobs: int) -> list[OverheadRow]:
    """Run measurement specs, through the warm shared pool if asked."""
    return ParallelSweepRunner(jobs=jobs).run(specs, _measure_row)


def build_table(dist_degree: int, cohort_size: int,
                protocols: typing.Sequence[str] = TABLE_PROTOCOLS,
                measured: bool = True,
                transactions: int = 60,
                jobs: int = 1,
                target_ci: float | None = None,
                ) -> list[tuple[OverheadRow, OverheadRow]]:
    """[(expected, measured), ...] rows of Table 3 (D=3) or 4 (D=6).

    ``jobs > 1`` measures the per-protocol rows on the warm shared
    worker pool; each row is an independent simulation with a fixed
    seed, so the table is identical to the serial one.

    ``target_ci`` replicates each row's measurement with fresh seeds
    until all three overhead means reach that 90%-CI relative
    half-width (waves of reps via :class:`~repro.sim.stats.StoppingRule`);
    the reported row is the mean over replications.  Since the paper's
    overheads are deterministic per committing transaction, rows
    normally settle at the two-replication floor.
    """
    expected_rows = [expected_overheads(protocol, dist_degree)
                     for protocol in protocols]
    if not measured:
        return [(expected, expected) for expected in expected_rows]
    if target_ci is not None:
        return list(zip(expected_rows,
                        _measure_adaptive(list(protocols), dist_degree,
                                          cohort_size, transactions,
                                          jobs, target_ci)))
    specs = [_RowSpec(protocol, dist_degree, cohort_size, transactions,
                      MEASURE_SEED)
             for protocol in protocols]
    return list(zip(expected_rows, _measure_rows(specs, jobs)))


def _measure_adaptive(protocols: list[str], dist_degree: int,
                      cohort_size: int, transactions: int, jobs: int,
                      target_ci: float) -> list[OverheadRow]:
    """CI-driven replication of the measured rows (mean per metric)."""
    from repro.sim.stats import StoppingRule

    def fresh_rules():
        return tuple(StoppingRule(target_ci, min_replications=2,
                                  max_replications=8) for _ in range(3))

    rules = {protocol: fresh_rules() for protocol in protocols}
    reps_done = dict.fromkeys(protocols, 0)
    while True:
        wave: list[_RowSpec] = []
        for protocol in protocols:
            pending = max(rule.next_wave() for rule in rules[protocol])
            for rep in range(reps_done[protocol],
                             reps_done[protocol] + pending):
                wave.append(_RowSpec(protocol, dist_degree, cohort_size,
                                     transactions,
                                     point_seed(MEASURE_SEED, rep)))
        if not wave:
            break
        for spec, row in zip(wave, _measure_rows(wave, jobs)):
            for rule, value in zip(rules[spec.protocol], row.as_tuple()):
                rule.observe(value)
            reps_done[spec.protocol] += 1
    return [OverheadRow(protocol, *(rule.interval()[0]
                                    for rule in rules[protocol]))
            for protocol in protocols]


def render_table(dist_degree: int, cohort_size: int,
                 protocols: typing.Sequence[str] = TABLE_PROTOCOLS,
                 transactions: int = 60,
                 jobs: int = 1,
                 target_ci: float | None = None) -> str:
    """The paper's table, with measured-vs-analytic agreement marks."""
    rows = build_table(dist_degree, cohort_size, protocols,
                       transactions=transactions, jobs=jobs,
                       target_ci=target_ci)
    header = (f"Protocol Overheads (DistDegree = {dist_degree})\n"
              f"{'Protocol':>9} {'ExecMsgs':>9} {'ForcedWrites':>13} "
              f"{'CommitMsgs':>11}  match")
    lines = [header]
    for expected, actual in rows:
        ok = "yes" if expected.as_tuple() == actual.as_tuple() else "NO"
        lines.append(
            f"{actual.protocol:>9} {actual.execution_messages:>9.0f} "
            f"{actual.forced_writes:>13.0f} {actual.commit_messages:>11.0f}"
            f"  {ok}")
    return "\n".join(lines)
