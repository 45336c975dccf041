"""srk benchmark: end-to-end metrics per workload, or per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): ``catalog`` (cold ``srk enumerate`` path),
``witness_sweep`` (cold batch witness search) and ``query_mix`` (warm
session of single queries).  Each pass runs in a fresh single-threaded
worker process, one at a time, and every pass of a run repeats the same ops
from the seed.  A cold workload runs whole passes until ``--seconds`` have
gone by; the warm one runs WARM_WORKERS workers of ``--seconds`` /
WARM_WORKERS each, and each of them sets up (and primes) once.  Op times
are the upper quartile of each op's repeats (see ``op_times``).

With ``--trace 0`` the last line of output is the end-to-end result; with
``--trace 1`` the same passes are run untraced and then traced, and the last
line carries the per-layer metrics.  The line before it holds details: input
properties, failures by kind, the environment and, where at least ten ops
lie beyond it, the 99th percentile.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("catalog", "witness_sweep", "query_mix")
COLD = {"catalog": True, "witness_sweep": True, "query_mix": False}
WARM_WORKERS = 8
MIN_PASSES = 3
WORKER_TIMEOUT_S = 150
# A traced run starts no traced pass after this many seconds.
TRACE_BUDGET_S = 45

TRACED_FUNCTIONS = (
    "diagrams.QuadricDiagram",
    "diagrams.check_conditions",
    "diagrams.enumerate_diagrams",
    "diagrams.parse_diagram",
    "diagrams.print_diagram",
    "degeneration.expand",
    "degeneration.pushforward",
    "degeneration.pushforward_diagram",
    "orthogonal.og_dimension",
    "orthogonal.og_to_diagram",
    "rigidity.classify_og",
    "rigidity.find_nonrigid_witness",
    "catalog.enumerate_og",
    "catalog.build_record",
    "catalog.write_catalog",
    "catalog.read_catalog",
    "classsum.ClassSum",
    "cli.main",
)


class BenchError(Exception):
    pass


def spawn(spec: dict) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, json.dumps(spec)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out after {WORKER_TIMEOUT_S} s: {spec}") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_passes(workload, seed, seconds, workdir, replay=None, budget_s=None):
    """Run identical passes until the time is used (or replay the given
    untraced passes traced); return [(spec, result)].

    A cold workload runs at least MIN_PASSES whole passes; each warm worker
    runs for its share of the time.
    """
    out = []
    start = time.perf_counter()
    if replay is not None:
        for spec, res in replay:
            if budget_s is not None and time.perf_counter() - start > budget_s:
                break
            spec = dict(spec, traced=True, slice_s=None, max_ops=res["attempted"])
            out.append((spec, spawn(spec)))
        return out
    spec = {"root": ROOT, "workload": workload, "seed": seed, "workdir": workdir, "traced": False}
    if COLD[workload]:
        while len(out) < MIN_PASSES or time.perf_counter() - start < seconds:
            out.append((spec, spawn(spec)))
    else:
        spec["slice_s"] = seconds / WARM_WORKERS
        out = [(spec, spawn(spec)) for _ in range(WARM_WORKERS)]
    return out


def percentile_ms(ok_ns, failed_ns, q):
    """q-quantile of all ops with failures ranked above every success.

    ``ok_ns`` is sorted.  Linear interpolation between closest ranks; when
    the quantile falls among the failures it is reported as the slowest
    latency measured in the run.  Returns (value in ms, samples beyond).
    """
    n = len(ok_ns) + len(failed_ns)
    pos = q * (n - 1)
    lo = math.floor(pos)
    beyond = n - 1 - math.ceil(pos)
    if math.ceil(pos) >= len(ok_ns):
        return max(ok_ns[-1:] + failed_ns) / 1e6, beyond
    frac = pos - lo
    return (ok_ns[lo] * (1 - frac) + ok_ns[math.ceil(pos)] * frac) / 1e6, beyond


def upper_quartile(values):
    """Upper quartile by linear interpolation between closest ranks."""
    v = sorted(values)
    pos = 0.75 * (len(v) - 1)
    lo = math.floor(pos)
    return v[lo] + (v[math.ceil(pos)] - v[lo]) * (pos - lo)


def op_times(results):
    """Per op position, the upper quartile of its repeats across the passes.

    Every pass of a run executes the same ops in the same order from a fresh
    process, so the repeats of one op do the same work.  On a shared machine
    the program runs at full speed only in short stretches whose share of
    the time changes from minute to minute; most of the time it runs slower,
    at a steadier speed.  The upper quartile lies in that common state, so
    it moves least with the share of fast stretches; the fastest repeat
    moves most.  Time-sliced passes can stop at different ops; the positions
    all of them reached count.  Returns (sorted successful op times, failed
    op times), in ns.
    """
    failed_at = set()
    for r in results:
        failed_at.update(r["failed_at"])
    n = min(r["attempted"] for r in results)
    times = [upper_quartile([r["op_ns"][i] for r in results]) for i in range(n)]
    ok = sorted(ns for i, ns in enumerate(times) if i not in failed_at)
    return ok, [ns for i, ns in enumerate(times) if i in failed_at]


def end_to_end(results):
    ok, failed = op_times(results)
    busy_s = (sum(ok) + sum(failed)) / 1e9
    p50, _ = percentile_ms(ok, failed, 0.50)
    p90, _ = percentile_ms(ok, failed, 0.90)
    p99, p99_beyond = percentile_ms(ok, failed, 0.99)
    metrics = {
        "ops_per_s": (len(ok) / busy_s, "1/s"),
        "op_p50_ms": (p50, "ms"),
        "op_p90_ms": (p90, "ms"),
        "setup_s": (statistics.median(r["setup_s"] for r in results), "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in results), "MiB"),
    }
    extra = {
        "ops_per_pass": len(ok) + len(failed),
        "op_p99_ms": p99 if p99_beyond >= 10 else None,
    }
    return metrics, extra


def per_layer(traced, untraced):
    ops = sum(r["attempted"] for r in traced)
    records, sites, site_yields, parents = {}, Counter(), Counter(), Counter()
    for r in traced:
        t = r["trace"]
        for name, vals in t["records"].items():
            acc = records.setdefault(name, [0, 0, 0])
            for i, v in enumerate(vals):
                acc[i] += v
        sites.update(t["site_calls"])
        site_yields.update(t["site_yields"])
        parents.update(t["parent_calls"])

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {}
    for name in TRACED_FUNCTIONS:
        calls, self_ns, _ = records.get(name, (0, 0, 0))
        metrics[f"{name}.calls_per_op"] = (calls / ops, "calls/op")
        metrics[f"{name}.self_us_per_op"] = (self_ns / 1e3 / ops, "us/op")
    yields = records.get("diagrams.enumerate_diagrams", (0, 0, 0))[2]
    built = parents["diagrams.enumerate_diagrams>diagrams.QuadricDiagram"]
    metrics["diagrams.enumerate_diagrams.yield_ratio"] = (ratio(yields, built), "ratio")
    metrics["degeneration.steps_per_op"] = (sites["degeneration.kappa"] / ops, "steps/op")
    leaves = sites["degeneration.diagram_to_og"] + sites["degeneration.GrIndex"]
    metrics["degeneration.leaves_per_op"] = (leaves / ops, "leaves/op")
    expands = sites["rigidity.expand"]
    found = sum(r["witness_found"] for r in traced)
    witness = "rigidity.find_nonrigid_witness"
    metrics[f"{witness}.diagrams_scanned_per_op"] = (
        site_yields["rigidity.enumerate_diagrams"] / ops,
        "diagrams/op",
    )
    metrics[f"{witness}.expand_calls_per_op"] = (expands / ops, "calls/op")
    metrics[f"{witness}.hit_ratio"] = (ratio(found, expands), "ratio")
    traced_ns, plain_ns = (sum(map(sum, op_times(rs))) for rs in (traced, untraced))
    metrics["trace.overhead_ratio"] = (traced_ns / plain_ns, "ratio")
    top = sorted(records.items(), key=lambda kv: -kv[1][1])[:12]
    extra = {
        "traced_ops": ops,
        "self_ms_top": {name: round(v[1] / 1e6, 3) for name, v in top},
    }
    return metrics, extra


def commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:]), encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def environment() -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "nproc": nproc,
        "commit": commit(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "srk", "__init__.py")):
        print(f"error: no srk sources under {ROOT}/src", file=sys.stderr)
        return 2

    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        plain = run_passes(args.workload, args.seed, args.seconds, workdir)
        traced = []
        if args.trace:
            traced = run_passes(args.workload, args.seed, args.seconds, workdir,
                                replay=plain, budget_s=TRACE_BUDGET_S)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    plain_res = [r for _, r in plain]
    measured = [r for _, r in traced] if args.trace else plain_res
    failures = Counter()
    for r in measured:
        failures.update(r["failures"])
    attempted = sum(r["attempted"] for r in measured)
    distinct = sum(r["distinct_inputs"] for r in measured)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(measured),
        "failures_by_kind": dict(failures),
        "inputs": {
            "distinct_per_process": distinct,
            "repeat_share": 1 - distinct / attempted,
        },
        "env": environment(),
    }
    if args.trace:
        metrics, extra = per_layer(measured, plain_res[: len(measured)])
        detail["inputs"]["engine_steps_per_op"] = metrics["degeneration.steps_per_op"][0]
    else:
        metrics, extra = end_to_end(measured)
    detail.update(extra)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not any(r["failures"].get("wrong_answer") for r in plain_res + measured),
        "attempted": attempted,
        "failed": sum(failures.values()),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
