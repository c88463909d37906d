"""One fresh benchmark process: set up, one cold pass, then warm passes.

Usage (started by run.py, not by hand):
    python3 perfbench/worker.py WORKLOAD SEED SPAWN_TIME MODE SPANS_FILE

SPAWN_TIME is the parent's `time.perf_counter()` just before it started
this process (the clock is system-wide on Linux), so set-up time covers
interpreter start, `import shapeinv` and making the inputs.  MODE is
`setup` (stop after set-up), `plain` (cold pass, then warm passes) or
`trace` (cold pass under the span tracer; spans written to SPANS_FILE).
The result is one JSON object on the last line of standard output.
"""
from __future__ import annotations

import json
import os
import resource
import sys
import time

# warm passes repeat until they add up to this many seconds (at least one)
WARM_MIN_S = 5.0


def main(argv) -> int:
    name, seed, spawned, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    import shapeinv.cli  # noqa: F401  (every layer, as the CLI loads them)
    import workloads
    inputs = workloads.prepare(name, seed)
    out = {"setup_s": time.perf_counter() - spawned}
    if mode == "setup":
        print(json.dumps(out))
        return 0

    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    c0, t0 = time.process_time(), time.perf_counter()
    if tracer is None:
        cold = workloads.run_pass(name, inputs)
    else:
        cold = tracer.run(workloads.run_pass, name, inputs)
    out["wall_s"] = time.perf_counter() - t0
    out["cpu_s"] = time.process_time() - c0
    passes = [cold]
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.layer_metrics()
        tracer.write_spans(argv[4])
    else:
        warm = []
        while sum(warm) < WARM_MIN_S:
            t0 = time.perf_counter()
            passes.append(workloads.run_pass(name, inputs))
            warm.append(time.perf_counter() - t0)
        out["warm_wall_s"] = warm
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["attempted"] = sum(p.attempted for p in passes)
    out["failed"] = sum(p.failed for p in passes)
    out["correct"] = (all(p.correct for p in passes)
                      and len({p.digest for p in passes}) == 1)
    out["digest"] = cold.digest
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
