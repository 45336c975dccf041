"""One benchmark pass in a fresh single-threaded process.

Usage: python3 perfbench/worker.py '<json spec>'

The spec names the repository root, the workload, the seed, whether to
trace, and for the warm workload how long (``slice_s``) or how many ops
(``max_ops``) to run.  Every pass of one run gets the same seed, so it runs
the same ops in the same order.  The worker times its own set-up (import of
srk, input generation, priming), runs the ops, checks each answer outside
the timed span, and prints one JSON object as the last line of its output.
"""

from __future__ import annotations

import json
import os
import random
import resource
import sys
import time
from collections import Counter


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB.

    VmHWM belongs to this process's own address space; ru_maxrss after exec
    also keeps the launching process's peak, so it is only the fallback.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run(spec: dict) -> dict:
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    import srk
    import srk.cli  # noqa: F401  (the query mix calls srk.cli.main)
    import workloads

    rng = random.Random(f"{spec['workload']}/{spec['seed']}")
    wl = workloads.WORKLOADS[spec["workload"]](srk, rng, spec["workdir"])
    setup_s = time.perf_counter() - t0

    tracer = None
    if spec["traced"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    deadline = time.perf_counter() + spec["slice_s"] if spec.get("slice_s") else None
    max_ops = spec.get("max_ops")
    SrkError = srk.errors.SrkError
    clock = time.perf_counter_ns
    op_ns = []  # per op, in stream order
    failed_at = []  # positions of failed ops
    failures = Counter()
    keys = set()
    for key, op in wl.stream():
        if max_ops is not None and len(op_ns) >= max_ops:
            break
        if deadline is not None and time.perf_counter() >= deadline:
            break
        if tracer is not None:
            tracer.active = True
        error = answer = None
        start = clock()
        try:
            answer = op()
        except SrkError as exc:
            error = exc
        elapsed = clock() - start
        if tracer is not None:
            tracer.active = False
        keys.add(key)
        kind = wl.check(key, answer, error)
        if kind is not None:
            failures[kind] += 1
            failed_at.append(len(op_ns))
        op_ns.append(elapsed)

    out = {
        "setup_s": setup_s,
        "attempted": len(op_ns),
        "op_ns": op_ns,
        "failed_at": failed_at,
        "failures": dict(failures),
        "distinct_inputs": len(keys),
        "peak_rss_mb": peak_rss_mb(),
        "witness_found": getattr(wl, "found", 0),
    }
    if tracer is not None:
        out["trace"] = tracer.snapshot()
    return out


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
