"""The benchmark's workloads: how each builds, runs and checks one op.

An *op* is one simulation point (for ``sweep-e1``: one whole
Experiment-1 grid).  Every op is driven through the public API
(``repro.build_system`` + ``DistributedSystem.run``, or
``ExperimentDefinition.sweep(...).run``), its outputs are checked, and
its deterministic work counters are read from state the program
already keeps.  Inputs derive only from the op seed, so the same seed
gives the same counters and simulated statistics.

Why these four workloads (see README.md for the layer table):

- ``paper-rcdc``: the paper's RC+DC baseline near peak -- resource
  bound, where the event kernel and resource grant path dominate.
- ``pure-dc``: infinite resources, OPT at MPL 8 -- data contention,
  lending, deadlocks and restarts dominate and the resource grant path
  is bypassed: the contrast case for resource-layer changes.
- ``geo-outage``: Paxos Commit over replicated pages across 3 DCs with
  open arrivals and a scheduled DC crash plus partition: the WAN, fault,
  replication and admission planes.
- ``sweep-e1``: the Experiment-1 grid on the warm 2-worker pool: the
  experiments runner (pickling, chunking, process start).
"""

from __future__ import annotations

import dataclasses
import math
import os
import random
import time
import typing

import repro
from repro.config import baseline_rc_dc, pure_data_contention

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults import FaultConfig

# Everything else of the program is imported where it is used, so that
# ``drift.py`` can build the closed-mode workloads on older source trees.

#: Pool size of ``sweep-e1`` (the host has 2 CPUs; never more than nproc).
SWEEP_JOBS = 2


def op_seed(workload: str, seed: int, index: int) -> int:
    """Simulation seed of the ``index``-th distinct op of a run."""
    return random.Random(f"{workload}:{seed}:{index}").randrange(1, 2**31)


def percentile(sorted_values: typing.Sequence[float], q: float) -> float:
    """Percentile of an ascending sequence, interpolating linearly
    between the two nearest ranks."""
    if not sorted_values:
        return float("nan")
    position = q * (len(sorted_values) - 1)
    low = math.floor(position)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) \
        * (position - low)


@dataclasses.dataclass
class OpResult:
    """What one op reports back to the run loop."""

    seed: int
    commits: int
    wall_s: float
    #: exact work counters (program state after the op).
    counters: dict[str, float]
    #: simulated statistics (exact for the seed).
    sim: dict[str, float]
    #: response-time samples, ms, measured period only.
    samples: list[float]
    errors: list[str]
    #: host-side measurements (not repeatable, kept out of the fingerprint).
    host: dict[str, float] = dataclasses.field(default_factory=dict)
    #: every result the op produced, as plain data (grid workloads).
    outputs: list[dict] = dataclasses.field(default_factory=list)

    def fingerprint(self) -> tuple:
        """Everything that must repeat exactly for the same seed."""
        return (self.commits, tuple(sorted(self.counters.items())),
                tuple(sorted(self.sim.items())), tuple(self.samples),
                repr(self.outputs))


# ----------------------------------------------------------------------
# Single-system workloads
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class SimWorkload:
    """One simulation point per op."""

    name: str
    why: str
    protocol: str
    params: typing.Callable[[], repro.ModelParams]
    measured: int
    warmup: int
    #: distinct seeds per run; op ``i`` uses seed ``i % distinct``.  The
    #: simulated statistics pool the first ``distinct`` ops.
    distinct: int
    faults: typing.Callable[[], "FaultConfig | None"] = lambda: None

    def build(self, seed: int) -> repro.DistributedSystem:
        return repro.build_system(self.protocol, self.params(), seed=seed,
                                  faults=self.faults())

    def run_op(self, seed: int) -> OpResult:
        from repro.obs import EventKind
        system = self.build(seed)
        samples: list[float] = []
        system.bus.subscribe(
            EventKind.TXN_COMMIT,
            lambda event: samples.append(
                event.time - event.txn.first_submit_time))
        start = time.perf_counter()
        result = system.run(measured_transactions=self.measured,
                            warmup_transactions=self.warmup)
        end = time.perf_counter()
        wall = end - start
        measured_samples = sorted(samples[self.warmup:])
        errors = check_system(system, result, self.measured)
        sim = {"throughput": result.throughput,
               "response_mean_ms": result.response_time_ms}
        if not all(math.isfinite(v) for v in sim.values()) or not \
                all(math.isfinite(v) for v in measured_samples):
            errors.append(f"non-finite simulated statistic: {sim}")
        return OpResult(seed=seed, commits=system.completed_total,
                        wall_s=wall, counters=system_counters(system, result),
                        sim=sim, samples=measured_samples, errors=errors,
                        host={"start": start, "end": end})


def check_system(system: repro.DistributedSystem, result,
                 measured: int) -> list[str]:
    """Output checks on one finished simulation point."""
    errors = []
    if result.committed < measured:
        errors.append(f"committed {result.committed} < target {measured}")
    for site in system.sites:
        try:
            site.lock_manager.assert_consistent()
        except AssertionError as error:
            errors.append(f"site {site.site_id} locks: {error}")
    network = system.network
    if network.messages_dropped != sum(network.drops_by_reason.values()):
        errors.append(f"drop accounting: {network.messages_dropped} != "
                      f"sum({network.drops_by_reason})")
    return errors


def system_counters(system: repro.DistributedSystem,
                    result) -> dict[str, float]:
    """Exact per-op work counters from state the program keeps."""
    sites = system.sites
    servers = [r for s in sites
               for r in [s.cpu, *s.data_disks, *s.log_manager.log_disks]]
    now = system.env.now
    # Resource queue-length integral == total simulated wait (Little).
    wait_ms = sum(r.mean_queue_length(now) * now for r in servers)
    network = system.network
    faults = system.faults
    counters: dict[str, float] = {
        "events": system.env._eid,
        "started": system.transactions_started,
        "services": sum(r._served for r in servers),
        "service_wait_ms": wait_ms,
        "lock_grants": sum(s.lock_manager.grants for s in sites),
        "lock_waits": sum(s.lock_manager.waits for s in sites),
        "lock_borrows": sum(s.lock_manager.borrow_grants for s in sites),
        "deadlock_victims": system.wfg.deadlocks_found,
        "msgs": network.messages_sent,
        "cross_dc_msgs": network.cross_dc_messages,
        "drops": network.messages_dropped,
        "forced": sum(s.log_manager.forced_count for s in sites),
        "unforced": sum(s.log_manager.unforced_count for s in sites),
        "replica_updates": system.replica_updates_sent,
        "replica_writes_skipped": system.replica_writes_skipped,
        "crashes": faults.crashes if faults else 0,
        "in_doubt_resolved": faults.in_doubt_resolved if faults else 0,
        "blocked_lock_ms": faults.blocked_lock_ms if faults else 0.0,
        # Measured-period statistics of the result (per measured commit).
        "commit_msgs_mean": result.overheads.commit_messages,
        "forced_writes_mean": result.overheads.forced_writes,
        "block_ratio": result.block_ratio,
        "shed_ratio": getattr(result, "shed_ratio", 0.0),
        "queue_wait_p95_ms": getattr(result, "queue_wait_p95_ms", 0.0),
    }
    for group in ("cpu", "data_disk", "log_disk"):
        counters[f"util_{group}"] = result.utilization.get(group, 0.0)
    return counters


def _geo_params() -> repro.ModelParams:
    from repro.config import open_system
    from repro.db.pages import ReplicationSpec
    from repro.db.topology import NetworkTopology
    return open_system(
        arrival_rate_tps=1.0, num_sites=6, mpl=4,
        network_topology=NetworkTopology.parse("dcs:3x2:rtt_ms=40"),
        replication=ReplicationSpec(2))


def _geo_faults() -> "FaultConfig":
    from repro.faults import FaultConfig, RegionPlan
    # 6 sites x 1 tps: ~(warmup + measured) / 6 s of simulated time
    # (~110 s; warmup ends near 10 s).  Both outages start well after
    # warmup and end well before the last measured commit on any seed.
    return FaultConfig(region=RegionPlan.parse(
        "dc_crash:1:at=35000:for=4000,partition:0|2:at=70000:for=3000"))


# ----------------------------------------------------------------------
# The grid workload
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class SweepWorkload:
    """One Experiment-1 grid per op, on the warm pool."""

    name: str
    why: str
    mpls: tuple[int, ...]
    measured: int
    #: distinct grids per run; op ``i`` uses seed ``i % distinct``.
    distinct: int
    #: leading grids rerun serially (checked, and their per-commit
    #: response times pooled).
    serial_checked: int

    def sweep(self, seed: int):
        from repro.experiments.definitions import EXP1
        return EXP1.sweep(measured_transactions=self.measured,
                          mpls=self.mpls, base_seed=seed)

    def build(self, seed: int):
        """Set-up: the grid specs plus a warm pool."""
        specs = self.sweep(seed).point_specs()
        warm_pool()
        return specs

    def run_op(self, seed: int) -> OpResult:
        sweep = self.sweep(seed)
        workers = pool_pids()
        cpu_before = cpu_seconds(workers)
        start = time.perf_counter()
        results = sweep.run("E1", jobs=SWEEP_JOBS)
        end = time.perf_counter()
        worker_cpu = cpu_seconds(workers) - cpu_before
        errors = []
        flat = []
        for spec in sweep.point_specs():
            point = results.points.get((spec.protocol, spec.mpl))
            if point is None or len(point.results) <= spec.rep:
                errors.append(f"{spec.label}: missing from the grid")
                continue
            flat.append(point.results[spec.rep])
            if flat[-1].committed < self.measured:
                errors.append(f"{spec.label}: below commit target")
        tps = [r.throughput for r in flat]
        if not all(math.isfinite(v) for v in tps):
            errors.append("non-finite simulated statistic")
        return OpResult(seed=seed, commits=sum(r.committed for r in flat),
                        wall_s=end - start, counters={},
                        sim={"throughput": sum(tps) / len(tps)
                             if tps else float("nan")},
                        samples=[], errors=errors,
                        host={"worker_cpu_s": worker_cpu, "start": start,
                              "end": end},
                        outputs=[dataclasses.asdict(r) for r in flat])

    def serial_points(self, seed: int):
        """Run every grid point in-process through ``MplSweep.run_point``
        (the serial path); yields ``(result, system, samples)`` with the
        response times (ms) of the point's measured commits."""
        from repro.obs import EventKind
        sweep = self.sweep(seed)
        for spec in sweep.point_specs():
            captured: list = []
            commits: list[tuple[float, float]] = []

            def hook(system, _captured=captured, _commits=commits, **_):
                _captured.append(system)
                system.bus.subscribe(
                    EventKind.TXN_COMMIT,
                    lambda event: _commits.append(
                        (event.time,
                         event.time - event.txn.first_submit_time)))

            point = sweep.run_point(spec.protocol, spec.mpl, on_system=hook)
            result, system = point.results[spec.rep], captured[0]
            measure_start = system.env.now - result.elapsed_ms
            yield result, system, [r for t, r in commits
                                   if t >= measure_start]

    def check_serial(self, op: OpResult) -> list[float]:
        """The serial path must reproduce the pool's grid point for point
        (same ``point_specs()`` seeds and inputs); records any mismatch
        in ``op.errors``.  Returns the serial grid's measured response
        times (ms), sorted."""
        outputs, samples = [], []
        for result, _, point_samples in self.serial_points(op.seed):
            outputs.append(dataclasses.asdict(result))
            samples += point_samples
        if outputs != op.outputs:
            op.errors.append("the pool's grid differs from the serial "
                             "point_specs() run")
        return sorted(samples)


# ----------------------------------------------------------------------
# Pool helpers (the program's warm shared pool)
# ----------------------------------------------------------------------
def warm_pool() -> float:
    """Create the shared pool and wait until every worker answered."""
    from repro.experiments.pool import get_pool
    start = time.perf_counter()
    pool = get_pool(SWEEP_JOBS)
    seen: set[int] = set()
    for _ in range(200):
        seen.add(pool.submit(os.getpid).result())
        if len(seen) >= SWEEP_JOBS:
            break
    return time.perf_counter() - start


#: The reference sampler of a pool worker process (armed by
#: :func:`arm_pool_samplers`).
_worker_sampler = None


def _worker_arm() -> int:
    global _worker_sampler
    import refloop
    if _worker_sampler is None:
        _worker_sampler = refloop.Sampler()
        _worker_sampler.__enter__()
    time.sleep(0.05)  # hold this worker so the next task goes elsewhere
    return os.getpid()


def _worker_samples(start: float, end: float):
    time.sleep(0.05)
    samples = _worker_sampler.samples
    inside = [(loop, s) for t, loop, s in samples if start <= t <= end]
    samples[:] = [sample for sample in samples if sample[0] > end]
    return os.getpid(), inside


def _on_every_worker(fn, *args) -> list:
    """Run ``fn`` once in each pool worker; results in pid order."""
    from repro.experiments.pool import get_pool
    pool = get_pool(SWEEP_JOBS)
    for _ in range(20):
        results = [f.result() for f in
                   [pool.submit(fn, *args) for _ in range(SWEEP_JOBS)]]
        pids = [r if isinstance(r, int) else r[0] for r in results]
        if len(set(pids)) == SWEEP_JOBS:
            return results
    raise RuntimeError("could not reach every pool worker")


def arm_pool_samplers() -> None:
    """Start the in-op reference sampler in every pool worker."""
    _on_every_worker(_worker_arm)


def pool_section(start: float, end: float) -> tuple[float, float]:
    """Like ``refloop.Sampler.section`` for a section run on the pool:
    wall seconds minus the workers' mean sampled time, and the factor
    from all workers' samples in ``[start, end]``."""
    import refloop
    inside = [sample for _, samples in _on_every_worker(
        _worker_samples, start, end) for sample in samples]
    seconds = (end - start) - sum(s for _, s in inside) / SWEEP_JOBS
    return seconds, refloop.combined_speed(inside)


def kill_pool() -> None:
    """Stop the pool's workers wherever they are (a grid that ran past
    its cap leaves them busy) and shut the pool down; the next grid
    starts a fresh one."""
    from repro.experiments.pool import active_pool, shutdown_pool
    pool = active_pool()
    for process in list((pool._processes or {}).values()) if pool else ():
        process.terminate()
    shutdown_pool()


def pool_pids() -> list[int]:
    from repro.experiments.pool import active_pool
    pool = active_pool()
    if pool is None:
        return []
    return sorted(pool._processes or ())


def cpu_seconds(pids: typing.Iterable[int]) -> float:
    """User + system CPU seconds consumed so far by the given processes."""
    tick = os.sysconf("SC_CLK_TCK")
    total = 0
    for pid in pids:
        with open(f"/proc/{pid}/stat") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        total += int(fields[11]) + int(fields[12])
    return total / tick


def peak_rss_mb(pids: typing.Iterable[int] = ()) -> float:
    """Peak resident set (VmHWM) of this process plus ``pids``, MB."""
    total_kb = 0
    for pid in ["self", *pids]:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024.0


WORKLOADS: dict[str, SimWorkload | SweepWorkload] = {
    w.name: w for w in (
        SimWorkload(
            name="paper-rcdc",
            why="2PC at the paper's RC+DC baseline, MPL 4: resource bound, "
                "kernel and resource grant path dominate",
            protocol="2PC", params=lambda: baseline_rc_dc(mpl=4),
            measured=600, warmup=60, distinct=8),
        SimWorkload(
            name="pure-dc",
            why="OPT, infinite resources, MPL 8: lock, deadlock and "
                "restart work dominate; resource grant path bypassed",
            protocol="OPT", params=lambda: pure_data_contention(mpl=8),
            measured=700, warmup=70, distinct=8),
        SimWorkload(
            name="geo-outage",
            why="PAXOS F=1, 2 replicas, 3 DCs at 40 ms RTT, open arrivals, "
                "scheduled DC crash and partition: WAN, fault, replica "
                "and admission planes",
            protocol="PAXOS:f=1", params=_geo_params,
            measured=600, warmup=60, distinct=7, faults=_geo_faults),
        SweepWorkload(
            name="sweep-e1",
            why="Experiment-1 grid (its 7 protocols at MPL 4) on the warm "
                "2-worker pool: the experiments runner and pool",
            mpls=(4,), measured=300, distinct=4, serial_checked=2),
    )
}
