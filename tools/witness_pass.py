"""One cold witness pass over every not-rigid position of OG(k,n).

    python3 tools/witness_pass.py --k 4 --n 18

Classifies every index of OG(k,n), then calls ``find_nonrigid_witness`` once
on each position ``classify_og`` calls not rigid, in enumeration order (a
positions before b positions).  Prints one JSON line: the query count, how
many found a witness, found none or raised an ``SrkError``, the seconds the
queries took, the process's peak resident set (VmHWM, in MiB) and
``srk.cache_info()`` after the pass.  Run in a fresh process, the pass starts
from empty caches.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import srk  # noqa: E402
from srk.errors import SrkError  # noqa: E402


def not_rigid_positions(k: int, n: int) -> list:
    """(index, (kind, position)) for every not-rigid position of OG(k,n)."""
    out = []
    for x in srk.enumerate_og(k, n):
        rep = srk.classify_og(x)
        for kind, verdicts in (("a", rep.a_verdicts), ("b", rep.b_verdicts)):
            for i, v in enumerate(verdicts, start=1):
                if v.kind == "not_rigid":
                    out.append((x, (kind, i)))
    return out


def peak_rss_mb() -> float:
    """This process's peak resident set in MiB: VmHWM, else ru_maxrss."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def witness_pass(k: int, n: int) -> dict:
    """Run the pass and return what ``main`` prints."""
    queries = not_rigid_positions(k, n)
    counts = {"witnesses": 0, "none": 0, "raised": 0}
    t0 = time.perf_counter()
    for x, position in queries:
        try:
            found = srk.find_nonrigid_witness(x, position)
        except SrkError:
            counts["raised"] += 1
            continue
        counts["none" if found is None else "witnesses"] += 1
    seconds = time.perf_counter() - t0
    return {
        "k": k,
        "n": n,
        "queries": len(queries),
        **counts,
        "seconds": round(seconds, 3),
        "peak_rss_mb": round(peak_rss_mb(), 1),
        "cache_info": srk.cache_info(),
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--k", type=int, required=True)
    parser.add_argument("--n", type=int, required=True)
    args = parser.parse_args(argv)
    print(json.dumps(witness_pass(args.k, args.n)))


if __name__ == "__main__":
    main()
