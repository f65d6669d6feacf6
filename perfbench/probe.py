"""Set-up probe: time importing ``repro`` and building one workload.

Run in a fresh interpreter by ``run.py`` (several times per run, median
reported as ``setup_s``)::

    python3 perfbench/probe.py --workload paper-rcdc --seed 1

Prints one JSON line: the set-up seconds (minus the reference samples
taken during it) and the factor converting them to reference seconds.
For ``sweep-e1`` set-up includes warming the 2-worker pool, which is
shut down, and waited for, before the probe exits.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(0, SRC)
    import refloop
    sampler = refloop.Sampler(interval_s=0.01, scale=0.25)
    with sampler:
        start = time.perf_counter()
        import workloads  # imports repro and the modules the workloads use
        workload = workloads.WORKLOADS[args.workload]
        seed = workloads.op_seed(args.workload, args.seed, 0)
        workload.build(seed)
        end = time.perf_counter()
    setup, factor = sampler.section(start, end)
    out = {"setup_s": setup, "factor": factor or sampler.reference.speed()}
    if workloads.pool_pids():
        from repro.experiments.pool import shutdown_pool
        shutdown_pool()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
