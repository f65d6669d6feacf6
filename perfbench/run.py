"""The repository benchmark: one workload per command, every metric named.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-rcdc --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload paper-rcdc --seed 1 --seconds 20 --trace 1

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that reports the per-layer
metrics (exact work counters, host self time per layer, tracing
overhead) and writes its spans under ``perfbench/.out/``.  Human-readable
lines come first; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

Host times are normalized by the reference loops in ``refloop.py``, run
in the same process while the ops run (see README.md).  The program is
imported from ``src/`` beside this directory and nowhere else.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import gc
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, ".out")

#: Fresh-interpreter set-up probes per run (median reported), after one
#: discarded probe that fills the bytecode cache.
SETUP_PROBES = 5
#: Distinct seeds the traced run cycles through (its counters pool them).
TRACE_DISTINCT = 2
#: An op that runs longer than this (host seconds) is stopped and fails.
OP_CAP_S = 60.0

#: Counters summed over ops, then divided by commits or ops; the rest
#: are per-op statistics averaged over ops.
_MEAN_KEYS = {"commit_msgs_mean", "forced_writes_mean", "block_ratio",
              "shed_ratio", "queue_wait_p95_ms", "util_cpu",
              "util_data_disk", "util_log_disk"}


class Normalizer:
    """Converts host seconds to reference seconds using the reference
    loop run just before and just after each timed section (the traced
    run, where in-section samples would land inside the spans)."""

    def __init__(self) -> None:
        import refloop
        self._reference = refloop.Reference()
        self.previous = self._reference.speed()

    def after(self) -> float:
        """Factor for a section that just ended (multiply host seconds)."""
        speed = self._reference.speed()
        factor = (self.previous + speed) / 2
        self.previous = speed
        return factor


def _metric(value: float, unit: str) -> dict:
    value = float(value)
    return {"value": value if math.isfinite(value) else 0.0, "unit": unit}


class OpTimeout(Exception):
    """An op ran past its host-time cap."""


@contextlib.contextmanager
def op_cap():
    """Raise :class:`OpTimeout` in the main thread once the block has run
    for ``OP_CAP_S`` of host time, wherever it is: in the simulation loop
    or blocked waiting for the pool.  A timer thread signals the main
    thread (``SIGUSR1``; the reference sampler owns ``SIGALRM``)."""
    seconds = OP_CAP_S

    def expire(signum, frame):
        raise OpTimeout(f"op ran past the {seconds:g}s host-time cap")

    previous = signal.signal(signal.SIGUSR1, expire)
    timer = threading.Timer(seconds, signal.pthread_kill,
                            (threading.main_thread().ident, signal.SIGUSR1))
    timer.daemon = True
    timer.start()
    try:
        yield
    finally:
        timer.cancel()
        timer.join()
        signal.signal(signal.SIGUSR1, previous)


def _run_guarded(fn, *args):
    """Run one op under the host-time cap; an exception or the cap makes
    it a failed op, not a crash."""
    try:
        with op_cap():
            return fn(*args), None
    except Exception:  # noqa: BLE001 - an op failure is data
        return None, traceback.format_exc(limit=4)


# ----------------------------------------------------------------------
# End-to-end run (tracing off)
# ----------------------------------------------------------------------
def measure_setup(workload: str, seed: int) -> list[float]:
    """Normalized set-up seconds from fresh-interpreter probes."""
    # Probes import from a bytecode cache of their own, filled by the
    # first (discarded) probe, whatever the caller's environment says.
    env = dict(os.environ, PYTHONPYCACHEPREFIX=os.path.join(OUT_DIR,
                                                            "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)

    def probe() -> dict:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "probe.py"),
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
            env=env)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    probes = [probe() for _ in range(SETUP_PROBES + 1)][1:]
    return [p["setup_s"] * p["factor"] for p in probes]


def end_to_end_metrics(rates: list[float], setups: list[float], rss: float,
                       sim_tps: float, resp_ms: tuple[float, float],
                       attempted: int, failures: int) -> dict[str, dict]:
    """The end-to-end metrics from per-op rates, set-up probes, peak RSS
    and the fixed op set's simulated statistics."""
    return {
        "txn_per_s": _metric(statistics.median(rates) if rates else 0.0,
                             "1/s"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(rss, "MB"),
        "sim_tps": _metric(sim_tps, "1/s"),
        "sim_resp_p50_ms": _metric(resp_ms[0], "ms"),
        "sim_resp_p99_ms": _metric(resp_ms[1], "ms"),
        "ok_ops_ratio": _metric((attempted - failures) / attempted,
                                "ratio"),
    }


def run_end_to_end(name: str, seed: int, seconds: float):
    import refloop
    import workloads
    workload = workloads.WORKLOADS[name]
    setups = measure_setup(name, seed)
    print(f"setup_s probes (normalized): "
          + " ".join(f"{v:.4f}" for v in setups))
    sweep = isinstance(workload, workloads.SweepWorkload)
    if sweep:
        # The grid runs in the pool's workers: sample the reference loop
        # there while it runs.
        workloads.warm_pool()
        workloads.arm_pool_samplers()
        sampling = contextlib.nullcontext()

        def section(op) -> tuple[float, float]:
            seconds, factor = workloads.pool_section(op.host["start"],
                                                     op.host["end"])
            return seconds, factor or refloop.Reference().speed()
    else:
        # The simulation runs in this process: sample the reference
        # loop while it runs.
        sampling = sampler = refloop.Sampler()

        def section(op) -> tuple[float, float]:
            seconds, factor = sampler.section(op.host["start"],
                                              op.host["end"])
            return seconds, factor or sampler.reference.speed()
    ops: list = []
    failures = 0
    start = time.perf_counter()
    with sampling:
        while True:
            index = len(ops)
            k = index % workload.distinct
            op, error = _run_guarded(
                workload.run_op, workloads.op_seed(name, seed, k))
            gc.collect()
            if op is None:
                failures += 1
                print(f"op {index}: FAILED\n{error}")
                if sweep:  # a timed-out grid leaves its workers busy
                    workloads.kill_pool()
                    workloads.warm_pool()
                    workloads.arm_pool_samplers()
            else:
                op_s, factor = section(op)
                op.host["ref_s"] = op.wall_s - op_s
                op.norm_s = op_s * factor
                if index >= workload.distinct:
                    if ops[k] is not None and \
                            op.fingerprint() != ops[k].fingerprint():
                        op.errors.append(f"not repeatable: differs from op "
                                         f"{k} with the same seed")
                    # Checked: drop the copies, so that memory does not
                    # grow with the number of ops.
                    op.samples, op.outputs = [], []
                if op.errors:
                    failures += 1
                print(f"op {index}: seed={op.seed} commits={op.commits} "
                      f"wall={op.wall_s:.4f}s "
                      f"ref_samples={op.host['ref_s']:.4f}s "
                      f"factor={factor:.4f} normalized={op.norm_s:.4f}s "
                      f"rate={op.commits / op.norm_s:.2f}/s"
                      + (f" ERRORS {op.errors}" if op.errors else ""))
            ops.append(op)
            # At least one seed repeats, unless an op failed (it may have
            # run into the cap: keep the run short).
            if time.perf_counter() - start >= seconds \
                    and (len(ops) > workload.distinct or failures):
                break
    # Peak memory of the process that ran the ops (with its reference
    # table) plus the pool's workers.
    rss = workloads.peak_rss_mb(workloads.pool_pids())
    if sweep:
        from repro.experiments.pool import shutdown_pool
        shutdown_pool()
        # Per-commit samples do not leave the pool: the grids' response
        # times come from their serial reruns, which must also match the
        # pool's results point for point.
        for index, op in enumerate(ops[:workload.serial_checked]):
            if op is None:
                continue
            had_errors = bool(op.errors)
            op.samples, error = _run_guarded(workload.check_serial, op)
            if error:
                op.samples = []
                op.errors.append(f"serial rerun failed\n{error}")
            if op.errors and not had_errors:
                failures += 1
                print(f"op {index}: ERRORS {op.errors}")
    fixed = [op for op in ops[:workload.distinct] if op is not None]
    samples = sorted(s for op in fixed for s in op.samples)
    print(f"response samples={len(samples)}")
    resp_ms = (workloads.percentile(samples, 0.50),
               workloads.percentile(samples, 0.99))

    timed = [op for op in ops[1:] if op is not None]
    rates = [op.commits / op.norm_s for op in timed]
    print(f"timed ops={len(timed)} raw wall="
          f"{sum(op.wall_s for op in timed):.3f}s reference samples="
          f"{sum(op.host['ref_s'] for op in timed):.3f}s normalized="
          f"{sum(op.norm_s for op in timed):.3f}s peak_rss={rss:.2f}MB")
    sim_tps = (statistics.fmean(op.sim["throughput"] for op in fixed)
               if fixed else 0.0)
    metrics = end_to_end_metrics(rates, setups, rss, sim_tps, resp_ms,
                                 len(ops), failures)
    return metrics, len(ops), failures


# ----------------------------------------------------------------------
# Traced run (per-layer metrics)
# ----------------------------------------------------------------------
def _aggregate(units: list) -> dict[str, float]:
    """Sum counters over units; average the per-unit statistics."""
    total: dict[str, float] = {}
    for counters in units:
        for key, value in counters.items():
            total[key] = total.get(key, 0.0) + value
    for key in _MEAN_KEYS & total.keys():
        total[key] /= len(units)
    return total


def _traced(tracer, fn, *args):
    """Run ``fn`` with every layer wrapped; returns (value, error,
    self seconds per layer, call counts)."""
    import layers
    from spans import Patch
    tracer.reset()
    with Patch(tracer) as patch:
        layers.install(patch)
        value, error = _run_guarded(fn, *args)
        tracer.stop()
    return (value, error, {k: v[0] for k, v in tracer.snapshot().items()},
            tracer.call_counts())


def layer_metrics(counters: dict[str, float], units: int, commits: int,
                  calls: dict[str, int], self_us: dict[str, float],
                  extra: dict[str, float]) -> dict[str, dict]:
    import layers
    c = counters
    per = (lambda value: value / commits) if commits else (lambda _: 0.0)
    services = c["services"]
    metrics = {
        "sim.events_per_commit": (per(c["events"]), "count"),
        "sim.spawns_per_commit": (per(calls.get(layers.SPAWN_FN, 0)),
                                  "count"),
        "sim.resources.services_per_commit": (per(services), "count"),
        "sim.resources.wait_ms_per_service": (
            c["service_wait_ms"] / services if services else 0.0, "ms"),
        "sim.resources.cpu_util": (c["util_cpu"], "ratio"),
        "sim.resources.data_disk_util": (c["util_data_disk"], "ratio"),
        "sim.resources.log_disk_util": (c["util_log_disk"], "ratio"),
        "db.locks.acquires_per_commit": (
            per(calls.get(layers.LOCK_ACQUIRE_FN, 0)), "count"),
        "db.locks.waits_per_commit": (per(c["lock_waits"]), "count"),
        "db.locks.borrows_per_commit": (per(c["lock_borrows"]), "count"),
        "db.locks.block_ratio": (c["block_ratio"], "ratio"),
        "db.deadlock.checks_per_commit": (
            per(calls.get(layers.DEADLOCK_CHECK_FN, 0)), "count"),
        "db.deadlock.victims_per_commit": (per(c["deadlock_victims"]),
                                           "count"),
        "db.network.msgs_per_commit": (per(c["msgs"]), "count"),
        "db.network.cross_dc_msgs_per_commit": (per(c["cross_dc_msgs"]),
                                                "count"),
        "db.network.drops_per_commit": (per(c["drops"]), "count"),
        "db.wal.forced_per_commit": (per(c["forced"]), "count"),
        "db.wal.unforced_per_commit": (per(c["unforced"]), "count"),
        "core.commit_msgs_per_commit": (c["commit_msgs_mean"], "count"),
        "core.forced_writes_per_commit": (c["forced_writes_mean"],
                                          "count"),
        "core.useful_ratio": (commits / c["started"] if c["started"]
                              else 0.0, "ratio"),
        "obs.bus.publishes_per_commit": (
            per(calls.get(layers.PUBLISH_FN, 0)), "count"),
        "db.pages.replica_updates_per_commit": (per(c["replica_updates"]),
                                                "count"),
        "db.pages.replica_writes_skipped": (
            c["replica_writes_skipped"] / units, "count"),
        "faults.crashes": (c["crashes"] / units, "count"),
        "faults.in_doubt_resolved": (c["in_doubt_resolved"] / units,
                                     "count"),
        "faults.blocked_lock_ms": (c["blocked_lock_ms"] / units, "ms"),
        "admission.shed_ratio": (c["shed_ratio"], "ratio"),
        "admission.queue_wait_p95_ms": (c["queue_wait_p95_ms"], "ms"),
    }
    for layer in layers.LAYERS:
        metrics[f"{layer}.self_us_per_commit"] = (self_us.get(layer, 0.0),
                                                  "us")
    metrics.update(extra)
    return {name: _metric(value, unit)
            for name, (value, unit) in metrics.items()}


def layer_extras(pool_warm_s: float = 0.0, parallel_efficiency: float = 0.0,
                 trace_overhead: float = 0.0) -> dict[str, tuple]:
    """Per-layer metrics that are not work counters: the pool's (only
    non-zero on ``sweep-e1``) and the tracing overhead."""
    return {
        "experiments.pool_warm_s": (pool_warm_s, "s"),
        "experiments.parallel_efficiency": (parallel_efficiency, "ratio"),
        "bench.trace_overhead": (trace_overhead, "ratio"),
    }


def _self_us(self_s: dict[str, float], factor: float,
             commits: int) -> dict[str, float]:
    return {layer: seconds * factor / commits * 1e6
            for layer, seconds in self_s.items()}


def _median_by_layer(rows: list[dict[str, float]]) -> dict[str, float]:
    return {layer: statistics.median(row[layer] for row in rows)
            for layer in rows[0]} if rows else {}


def run_traced(name: str, seed: int, seconds: float):
    import workloads
    from layers import LAYERS
    from spans import Tracer
    workload = workloads.WORKLOADS[name]
    tracer = Tracer(LAYERS)
    if isinstance(workload, workloads.SweepWorkload):
        return _run_traced_sweep(workload, seed, seconds, tracer)
    norm = Normalizer()
    plain_ops, traced_calls, self_rows, overheads = [], [], [], []
    failures = attempted = 0
    start = time.perf_counter()
    index = 0
    while True:
        k = index % TRACE_DISTINCT
        op_seed = workloads.op_seed(name, seed, k)
        plain, error = _run_guarded(workload.run_op, op_seed)
        gc.collect()
        plain_factor = norm.after()
        traced, t_error, self_s, calls = _traced(
            tracer, workload.run_op, op_seed)
        traced_factor = norm.after()
        gc.collect()
        attempted += 2
        errors = [e for e in (error, t_error) if e]
        if plain is not None and traced is not None:
            if traced.fingerprint() != plain.fingerprint():
                errors.append("traced op differs from untraced op")
            errors += plain.errors + traced.errors
        if errors:
            failures += 1
            print(f"pair {index}: FAILED {errors}")
        else:
            overhead = (traced.wall_s * traced_factor
                        / (plain.wall_s * plain_factor)) - 1
            print(f"pair {index}: seed={op_seed} commits={plain.commits} "
                  f"untraced={plain.wall_s:.3f}s (factor {plain_factor:.4f})"
                  f" traced={traced.wall_s:.3f}s (factor "
                  f"{traced_factor:.4f}) overhead={overhead:.3f}")
            overheads.append(overhead)
            self_rows.append(_self_us(self_s, traced_factor, traced.commits))
            if index < TRACE_DISTINCT:
                plain_ops.append(plain)
                traced_calls.append(calls)
        index += 1
        if time.perf_counter() - start >= seconds \
                and (index >= TRACE_DISTINCT or failures):
            break
    if not plain_ops:
        return {}, attempted, failures
    tracer.dump(OUT_DIR, f"spans-{name}-{seed}")
    extra = layer_extras(
        trace_overhead=statistics.median(overheads) if overheads else 0.0)
    metrics = layer_metrics(
        _aggregate([op.counters for op in plain_ops]), len(plain_ops),
        sum(op.commits for op in plain_ops),
        sum(map(collections.Counter, traced_calls), collections.Counter()),
        _median_by_layer(self_rows), extra)
    return metrics, attempted, failures


def _run_traced_sweep(workload, seed: int, seconds: float, tracer):
    import workloads
    from repro.experiments.pool import shutdown_pool
    norm = Normalizer()
    warm_s = workloads.warm_pool()
    warm_norm = warm_s * norm.after()
    failures = attempted = 0
    efficiencies = []
    start = time.perf_counter()
    index = 0
    while (index < 2 and not failures) \
            or time.perf_counter() - start < seconds / 2:
        op, error = _run_guarded(
            workload.run_op,
            workloads.op_seed(workload.name, seed, index % workload.distinct))
        attempted += 1
        if op is None or op.errors:
            failures += 1
            print(f"grid {index}: FAILED {error or op.errors}")
            if op is None:  # a timed-out grid leaves its workers busy
                workloads.kill_pool()
        else:
            efficiency = op.host["worker_cpu_s"] / (
                workloads.SWEEP_JOBS * op.wall_s)
            efficiencies.append(efficiency)
            print(f"grid {index}: wall={op.wall_s:.3f}s "
                  f"parallel_efficiency={efficiency:.3f}")
        index += 1
    shutdown_pool()

    def serial_pass():
        start = time.perf_counter()
        units = []
        for result, system, _ in workload.serial_points(
                workloads.op_seed(workload.name, seed, 0)):
            errors = workloads.check_system(system, result, workload.measured)
            if errors:
                raise AssertionError(f"{result.protocol}@{result.mpl}: "
                                     f"{errors}")
            units.append((workloads.system_counters(system, result),
                          system.completed_total))
        return time.perf_counter() - start, units

    norm = Normalizer()
    plain, error = _run_guarded(serial_pass)
    gc.collect()
    plain_factor = norm.after()
    traced, t_error, self_s, calls = _traced(tracer, serial_pass)
    traced_factor = norm.after()
    attempted += 2
    if plain is None or traced is None or plain[1] != traced[1]:
        failures += 1
        print(f"serial passes FAILED: {error or t_error or 'counters differ'}")
        return {}, attempted, failures
    tracer.dump(OUT_DIR, f"spans-{workload.name}-{seed}")
    overhead = traced[0] * traced_factor / (plain[0] * plain_factor) - 1
    print(f"serial pass untraced={plain[0]:.3f}s (factor "
          f"{plain_factor:.4f}) traced={traced[0]:.3f}s (factor "
          f"{traced_factor:.4f}) overhead={overhead:.3f}")
    commits = sum(c for _, c in plain[1])
    extra = layer_extras(
        pool_warm_s=warm_norm,
        parallel_efficiency=(statistics.median(efficiencies)
                             if efficiencies else 0.0),
        trace_overhead=overhead)
    metrics = layer_metrics(_aggregate([u for u, _ in plain[1]]),
                            len(plain[1]), commits, calls,
                            _self_us(self_s, traced_factor, commits), extra)
    return metrics, attempted, failures


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: the program's sources are missing "
              f"(expected src/repro beside {os.path.basename(HERE)}/)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     + ", ".join(workloads.WORKLOADS))
    run = run_traced if args.trace else run_end_to_end
    metrics, attempted, failed = run(args.workload, args.seed, args.seconds)
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
