"""One round of one workload, in a fresh interpreter; prints its record as JSON.

Started by run.py, which passes the CLOCK_MONOTONIC reading taken just
before the spawn, so ``setup_s`` covers interpreter start, ``import
primstab`` and building the seeded inputs.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from pathlib import Path
from time import perf_counter

import cpus
import tracing
import workloads


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    args = parser.parse_args()

    tracer = None
    if args.traced:
        tracer = tracing.Tracer()
        tracer.install()
    job = workloads.WORKLOADS[args.workload](args.seed, args.workdir, tracer)
    setup_s = time.monotonic() - args.spawned

    meter = workloads.Meter()
    if not job.pool:
        cpus.start()
    spent, start = cpus.spent_s, perf_counter()
    job.work(meter)
    wall_s = perf_counter() - start - (cpus.spent_s - spent)
    if job.pool:
        cpus.start()
    job.check(meter)
    cpus.stop()
    # every time is brought to the reference speed by the host probes
    # around it (cpus.py).  Set-up ran before any, and a pool's work ran on
    # every CPU before any, so they, and the work as a whole, take them all
    wall_s *= cpus.scale(every_cpu=job.pool)
    op_s = {k: v * cpus.scale(*meter.spans[k]) for k, v in meter.op_s.items()}
    layers = None
    if tracer is not None:
        layers = tracing.layer_metrics(tracer, job.layer_extras(tracer, meter))
        tracer.uninstall()

    # ru_maxrss is in KiB on Linux; children report the largest one
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(json.dumps({
        "traced": bool(args.traced),
        "scale": cpus.scale(),
        "setup_s": setup_s * cpus.scale(),
        "wall_s": wall_s,
        "items": job.items,
        # the parts of the work: its operations, or a pool's work as a whole
        "work_s": {"work": wall_s} if job.pool else op_s,
        "op_s": op_s,
        "attempted": meter.attempted,
        "failed": meter.failed,
        "wrong": meter.wrong,
        "reasons": meter.reasons,
        "verdicts": job.verdicts,
        "undecided": job.undecided,
        "peak_rss_mb": own + job.concurrency * child,
        "layers": layers,
    }))


if __name__ == "__main__":
    main()
