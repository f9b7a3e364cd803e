"""primstab benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  Each round of the workload runs in
a fresh interpreter (worker.py) with ``src`` on the path.  A run makes a
fixed number of rounds, as many as fit in ``--seconds`` at the nominal
round length ROUND_S.  A round keeps to whichever CPU is fastest at the
time, and its times are scaled to a reference speed (cpus.py).  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, the per-layer ones with ``--trace 1``.
A traced run alternates traced and untraced rounds, so it can report how
much the tracing itself costs.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("bq_slice", "primitive_sweep", "spectrum_scan", "cli_oneshot")
# a round's length, set-up and check included, at the seed commit on a
# 2-vCPU machine
ROUND_S = {"bq_slice": 8.5, "primitive_sweep": 5.5, "spectrum_scan": 4.5, "cli_oneshot": 9.5}
# so that a traced run has rounds of both kinds and cli_oneshot makes 100
# invocations
MIN_ROUNDS = 3
# on a slow host a run stops early, after MIN_ROUNDS, rather than overrun
# --seconds by more than this share
OVERRUN = 1.3
LAST_START_S = 110  # no round starts later, so a run ends within 180 s
RUN_LIMIT_S = 170


def run_round(workload: str, seed: int, round_no: int, traced: bool, workdir: Path,
              timeout: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--traced", str(int(traced)),
           "--workdir", str(workdir)]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned", repr(spawned)], stdout=subprocess.PIPE,
                            text=True, env=env, cwd=workdir, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and any pool or CLI child
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError("%s round %d exited with %d" % (workload, round_no, proc.returncode))
    return json.loads(out.strip().splitlines()[-1])


def run_rounds(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> list:
    """A fixed number of rounds: as many as fit in ``seconds`` at ROUND_S, so
    the count does not depend on the speed of the code under test."""
    count = max(MIN_ROUNDS, round(seconds / ROUND_S[workload]))
    records = []
    start = time.monotonic()
    for round_no in range(count):
        elapsed = time.monotonic() - start
        if len(records) >= MIN_ROUNDS and (
                elapsed + ROUND_S[workload] > OVERRUN * seconds or elapsed >= LAST_START_S):
            break
        traced = trace and round_no % 2 == 0
        records.append(run_round(workload, seed, round_no, traced, workdir,
                                 RUN_LIMIT_S - elapsed))
    return records


def medians(rounds: list, field: str) -> list:
    """Each timed part's median time over the rounds, for the parts that
    ``field`` names in every round's record."""
    return [statistics.median(r[field][key] for r in rounds) for key in rounds[0][field]]


def end_to_end(records: list) -> dict:
    rounds = [r for r in records if not r["traced"]]
    wall_s = sum(medians(rounds, "work_s"))
    deciles = statistics.quantiles(medians(rounds, "op_s"), n=10)
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    verdicts = sum(r["verdicts"] for r in rounds)
    undecided = sum(r["undecided"] for r in rounds)
    return {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "wall_s": wall_s,
        "items_per_s": rounds[0]["items"] / wall_s,
        "op_p50_ms": deciles[4] * 1e3,
        "op_p90_ms": deciles[8] * 1e3,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
        "ok_frac": 1.0 - failed / attempted,
        # only the BQ search can end undecided; elsewhere every answer is decided
        "decided_frac": 1.0 - undecided / verdicts if verdicts else 1.0,
    }


def per_layer(records: list) -> dict:
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    out = {name: statistics.median(r["layers"][name] for r in traced)
           for name in traced[0]["layers"]}
    out["trace_overhead_frac"] = (statistics.median(r["wall_s"] for r in traced)
                                  / statistics.median(r["wall_s"] for r in plain) - 1.0)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "primstab" / "__init__.py").is_file():
        print("run.py: no primstab sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        records = run_rounds(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with_parent = workdir.parent
        if with_parent.is_dir() and not any(with_parent.iterdir()):
            with_parent.rmdir()

    values = per_layer(records) if args.trace else end_to_end(records)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    wrong = sum(r["wrong"] for r in records)
    reasons = [reason for r in records for reason in r["reasons"]]

    print("%s seed %d: %d rounds (%d traced), %d ops, %d failed, host scale %.3f"
          % (args.workload, args.seed, len(records), sum(r["traced"] for r in records),
             attempted, failed, statistics.median(r["scale"] for r in records)),
          file=sys.stderr)
    for reason in reasons[:5]:
        print("  failure: " + reason, file=sys.stderr)
    for name, m in metrics.items():
        print("  %-36s %14.6g %s" % (name, m["value"], m["unit"]), file=sys.stderr)
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
