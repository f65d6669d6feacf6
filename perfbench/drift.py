"""Compare host speed of two or more source trees, interleaved.

Answers "did the simulator get slower between two commits, or is that
noise?" with the benchmark's own measurement: the same closed-mode
workload definitions as ``workloads.py``, timed with the in-op reference
sampler (``refloop.Sampler``), each tree in its own interpreter, the
trees alternating round by round so that slow periods of the host hit
all of them.  Usage, from the repository root::

    git archive <rev> src | tar -x -C /tmp/old      # any older tree
    python3 perfbench/drift.py --tree old=/tmp/old/src --tree new=src

Besides the ``paper-rcdc`` and ``pure-dc`` workloads it reruns the two
numbers of the historical ``BENCH_<n>.json`` snapshots: ``bench-e2e``
(2PC, MPL 2, 300 measured transactions) and ``bench-locks`` (2000 lock
grant/release cycles on one ``LockManager``).  Only APIs that exist
since the first snapshot are used.  Prints, per workload and tree, the
median rate of each round, then the median and quartiles over rounds.
Each run is ``ROUNDS`` rounds of ``SECONDS`` per tree and workload, on
benchmark seed ``SEED``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("paper-rcdc", "pure-dc", "bench-e2e", "bench-locks")
ROUNDS = 5
SECONDS = 8.0
SEED = 1


def _sim_op(protocol, params, measured, warmup, seed):
    import repro
    system = repro.build_system(protocol, params, seed=seed)
    start = time.perf_counter()
    result = system.run(measured_transactions=measured,
                        warmup_transactions=warmup)
    end = time.perf_counter()
    return warmup + result.committed, start, end


def _lock_op():
    """The historical ``lock_grant_release`` micro benchmark."""
    from repro.db.deadlock import WaitForGraph
    from repro.db.locks import LockManager, LockMode
    from repro.sim import Environment

    class _Txn:
        def __init__(self, txn_id):
            self.txn_id = txn_id
            self.name = f"bench-{txn_id}"
            self.incarnation = 0
            self.pages_borrowed = 0
            self.blocked_cohorts = 0

    class _Cohort:
        def __init__(self, txn_id):
            self.txn = _Txn(txn_id)
            self.held_locks = {}
            self.lending_pages = set()
            self.lenders = set()

        def add_lender(self, lender):
            self.lenders.add(lender)

        def remove_lender(self, lender):
            self.lenders.discard(lender)

    cycles = 2000
    env = Environment()
    manager = LockManager(env, 0, WaitForGraph(on_victim=lambda txn: None))

    def worker(env):
        for i in range(cycles):
            cohort = _Cohort(i + 1)
            yield from manager.acquire(cohort, i % 64, LockMode.UPDATE)
            manager.finalize(cohort, committed=True)

    env.process(worker(env))
    start = time.perf_counter()
    env.run()
    return cycles, start, time.perf_counter()


def child(src: str, workload: str) -> None:
    """Run ops of one workload against ``src``; print per-op rates."""
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import refloop
    import repro
    assert os.path.dirname(os.path.dirname(repro.__file__)) == \
        os.path.abspath(src), repro.__file__
    if workload in ("paper-rcdc", "pure-dc"):
        import workloads
        w = workloads.WORKLOADS[workload]
        distinct = w.distinct

        def op(k):
            return _sim_op(w.protocol, w.params(), w.measured, w.warmup,
                           workloads.op_seed(workload, SEED, k))
    elif workload == "bench-e2e":
        from repro.config import ModelParams
        distinct = 1

        def op(k):
            return _sim_op("2PC", ModelParams(mpl=2), 300, 30, 20250705)
    else:
        distinct = 1

        def op(k):
            return _lock_op()

    rates = []
    sampler = refloop.Sampler()
    deadline = time.perf_counter() + SECONDS
    with sampler:
        index = 0
        while index < 3 or time.perf_counter() < deadline:
            work, start, end = op(index % distinct)
            gc.collect()  # as run.py does: no garbage left to the next op
            secs, factor = sampler.section(start, end)
            factor = factor or sampler.reference.speed()
            if index:  # op 0 warms the interpreter
                rates.append(work / (secs * factor))
            index += 1
    print(json.dumps({"rates": rates}))


def parent(trees: list[tuple[str, str]]) -> None:
    medians: dict[tuple[str, str], list[float]] = {}
    for round_index in range(ROUNDS):
        order = trees if round_index % 2 == 0 else trees[::-1]
        for workload in WORKLOADS:
            for label, src in order:
                out = subprocess.run(
                    [sys.executable, __file__, "--child", src, workload],
                    capture_output=True, text=True, check=True, timeout=600)
                rates = json.loads(out.stdout.strip().splitlines()[-1])[
                    "rates"]
                value = statistics.median(rates)
                medians.setdefault((workload, label), []).append(value)
                print(f"round {round_index} {workload:<12} {label:<8} "
                      f"median {value:10.2f}/s over {len(rates)} ops",
                      flush=True)
    print("\nworkload     tree     median       q1       q3  rounds")
    for (workload, label), values in medians.items():
        q1, q2, q3 = statistics.quantiles(values, n=4) \
            if len(values) > 1 else (values[0],) * 3
        print(f"{workload:<12} {label:<8} {q2:8.2f} {q1:8.2f} {q3:8.2f}  "
              + " ".join(f"{v:.1f}" for v in values))


def main() -> int:
    if sys.argv[1:2] == ["--child"]:  # one tree and workload, from parent()
        child(*sys.argv[2:4])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", default=[],
                        help="LABEL=PATH_TO_SRC (repeat)")
    args = parser.parse_args()
    trees = []
    for spec in args.tree:
        label, sep, path = spec.partition("=")
        if not sep or not os.path.isdir(os.path.join(path, "repro")):
            parser.error(f"--tree {spec!r}: expected LABEL=PATH with "
                         f"PATH/repro")
        trees.append((label, os.path.abspath(path)))
    if len(trees) < 2:
        parser.error("give at least two --tree LABEL=PATH")
    parent(trees)
    return 0


if __name__ == "__main__":
    sys.exit(main())
