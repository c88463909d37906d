"""Benchmark command: run one workload cold in fresh processes and print
its metrics.

    python3 perfbench/run.py --workload suite|spectrum|dsl-check \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The package is loaded from `src/`, after
its bytecode has been compiled (the build step, not timed).  A run first
starts SETUP_SAMPLES processes, one at a time, that only set up, then runs
whole rounds until S seconds have passed (at least one round).  A round is
a pair of fresh, single-threaded worker processes side by side; each sets
up, makes one cold pass over the workload's operations and then warm
passes over the same operations in the same process.  With --trace 1 the
cold pass runs under the span tracer and the run reports the per-layer
metrics instead; spans and a summary go to `.perfbench/` in the checkout.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics` (medians over workers).
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 8       # set-up only processes, one at a time
# Rounds run their workers in pairs, one per CPU.  On a shared 2-vCPU guest
# the CPU speed drifts by tens of percent over seconds, largely independently
# per CPU; two fresh processes side by side halve the spread of a run's
# median in the same run time (see README.md).
PARALLEL = min(2, len(os.sched_getaffinity(0)))
DEADLINE_S = 170.0      # a run must end within 180 s
OUT_DIR = ".perfbench"


def _unit(metric: str) -> str:
    for suffix, unit in (("_s", "s"), ("_mb", "MB"), ("_ratio", "ratio")):
        if metric.endswith(suffix):
            return unit
    return "count"


class BenchError(RuntimeError):
    pass


def _batch(root: str, args, mode: str, first: int, count: int,
           deadline: float) -> list:
    """Run `count` fresh worker processes side by side to their end and
    return their results."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    procs = []
    try:
        for index in range(first, first + count):
            spans = os.path.join(root, OUT_DIR, f"spans-{args.workload}-"
                                                f"{args.seed}-{index}.csv")
            procs.append(subprocess.Popen(
                [sys.executable, os.path.join(HERE, "worker.py"),
                 args.workload, str(args.seed), repr(time.perf_counter()),
                 mode, spans],
                cwd=root, env=env, stdout=subprocess.PIPE, text=True))
        results = []
        for proc in procs:
            try:
                out, _ = proc.communicate(
                    timeout=max(1.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                raise BenchError(f"{args.workload} worker ran past the deadline")
            if proc.returncode != 0 or not out.strip():
                raise BenchError(
                    f"{args.workload} worker exited {proc.returncode}")
            results.append(json.loads(out.strip().splitlines()[-1]))
        return results
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def _check_digest(root: str, seed: int, digests: set) -> bool:
    """The suite report's bytes for a seed must be the same in every round
    and in every run made from this checkout."""
    if len(digests) != 1:
        return False
    path = os.path.join(root, OUT_DIR, "suite-report-sha256.json")
    try:
        with open(path, encoding="utf-8") as fh:
            seen = json.load(fh)
    except FileNotFoundError:
        seen = {}
    digest = digests.pop()
    if seen.setdefault(str(seed), digest) != digest:
        return False
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(seen, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return True


def run(args) -> dict:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "shapeinv", "__init__.py")):
        raise BenchError("no src/shapeinv here: run from the root of a checkout")
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", HERE],
                   cwd=root, check=True, stdout=subprocess.DEVNULL)

    setups = [] if args.trace else [
        _batch(root, args, "setup", 0, 1, deadline)[0]["setup_s"]
        for _ in range(SETUP_SAMPLES)]
    rounds = []
    start = time.monotonic()
    while not rounds or time.monotonic() - start < args.seconds:
        rounds += _batch(root, args, "trace" if args.trace else "plain",
                         len(rounds), PARALLEL, deadline)

    correct = all(r["correct"] for r in rounds)
    if args.workload == "suite":
        correct = _check_digest(root, args.seed, {r["digest"] for r in rounds}) \
            and correct
    med = statistics.median
    if args.trace:
        metrics = {k: med([r["layers"][k] for r in rounds])
                   for k in rounds[0]["layers"]}
        summary = {"workload": args.workload, "seed": args.seed,
                   "traced_wall_s": [r["wall_s"] for r in rounds],
                   "layers": metrics}
        with open(os.path.join(root, OUT_DIR,
                               f"layers-{args.workload}-{args.seed}.json"),
                  "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
    else:
        metrics = {
            "wall_s": med([r["wall_s"] for r in rounds]),
            "cpu_s": med([r["cpu_s"] for r in rounds]),
            "setup_s": med(setups),
            "warm_wall_s": med([w for r in rounds for w in r["warm_wall_s"]]),
            "peak_rss_mb": med([r["peak_rss_mb"] for r in rounds]),
        }
    return {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {k: {"value": v, "unit": _unit(k)}
                    for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        result = run(args)
    except (BenchError, subprocess.CalledProcessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
