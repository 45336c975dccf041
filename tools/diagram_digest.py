"""Digests and timings of the admissible diagrams of one space.

    python3 tools/diagram_digest.py --k 4 --m 11

Prints one JSON line: the count and sha256 of ``enumerate_diagrams(k, m)``
(one ``print_diagram`` line per diagram, in order); the count and sha256 of
the walks of one dimension each, ``enumerate_diagrams(k, m, dim)`` for dim =
0 up to the largest dimension, concatenated; the sha256 of the
``check_conditions`` reports (conditions, x, warnings) of the whole walk's
diagrams; the sha256 of the engine's answers on those diagrams
(``engine_lines``); when 2k <= m, the sha256 of the classifier's answers
on the indices of OG(k, m) (``classify_lines``), else null; and, best of
``ROUNDS`` rounds each, ``check_conditions`` in us per call over those
diagrams and the whole walk in ms.  Two trees that give the same digests
enumerate, judge and expand the same diagrams and classify the same
indices alike.  The tool uses only srk's public API, so a copy of it run
in another checkout compares the two trees.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import srk  # noqa: E402

ROUNDS = 10


def _sha256(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(f"{line}\n".encode())
    return h.hexdigest()


def _best(fn) -> float:
    """The least wall time of ``ROUNDS`` calls of fn, in seconds."""
    best = float("inf")
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _outcome(fn) -> str:
    """What fn returns, or the type and message of the ``SrkError`` it raises."""
    try:
        return fn()
    except srk.errors.SrkError as exc:
        return f"{type(exc).__name__}: {exc}"


def _traced(result) -> str:
    total, root = result
    return f"{total!r} {json.dumps(root.to_json_dict(), separators=(',', ':'))}"


def _stepped(result) -> str:
    decision, derived = result
    return f"{decision!r} {[srk.print_diagram(d) for d in derived]}"


def engine_lines(diagrams):
    """One line per diagram, entry point and mode: ``expand`` and
    ``pushforward_diagram``, untraced (the class) and traced (the class and
    the trace JSON), and ``step`` in both modes (the branch decision and the
    derived diagrams); an entry that raises gives its error instead."""
    for D in diagrams:
        name = srk.print_diagram(D)
        for push, run in ((False, srk.expand), (True, srk.pushforward_diagram)):
            yield f"{name} {push} class {_outcome(lambda: repr(run(D)))}"
            yield f"{name} {push} trace {_outcome(lambda: _traced(run(D, trace=True)))}"
            yield f"{name} {push} step {_outcome(lambda: _stepped(srk.step(D, push)))}"


def classify_lines(k: int, n: int):
    """One line per index of ``enumerate_og(k, n)``: its ``classify_og``
    report as sorted-key JSON and its ``og_dimension``."""
    for x in srk.enumerate_og(k, n):
        report = json.dumps(srk.classify_og(x).to_json_dict(), sort_keys=True)
        yield f"{report} {srk.og_dimension(x)}"


def diagram_digest(k: int, m: int) -> dict:
    """Compute what ``main`` prints."""
    diagrams = list(srk.enumerate_diagrams(k, m))
    largest = max(map(srk.diagram_dimension, diagrams), default=-1)
    by_dimension = [d for dim in range(largest + 1) for d in srk.enumerate_diagrams(k, m, dim)]
    reports = [srk.check_conditions(d) for d in diagrams]

    def walk():
        for _ in srk.enumerate_diagrams(k, m):
            pass

    def check():
        for d in diagrams:
            srk.check_conditions(d)

    return {
        "k": k,
        "m": m,
        "diagrams": len(diagrams),
        "diagrams_sha256": _sha256(map(srk.print_diagram, diagrams)),
        "by_dimension": len(by_dimension),
        "by_dimension_sha256": _sha256(map(srk.print_diagram, by_dimension)),
        "reports_sha256": _sha256(
            f"{srk.print_diagram(d)} {r.conditions} {r.x} {r.warnings}"
            for d, r in zip(diagrams, reports)
        ),
        "engine_sha256": _sha256(engine_lines(diagrams)),
        "classify_sha256": _sha256(classify_lines(k, m)) if 2 * k <= m else None,
        "check_conditions_us": round(_best(check) / max(len(diagrams), 1) * 1e6, 3),
        "enumerate_ms": round(_best(walk) * 1e3, 3),
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--k", type=int, required=True)
    parser.add_argument("--m", type=int, required=True)
    args = parser.parse_args(argv)
    print(json.dumps(diagram_digest(args.k, args.m)))


if __name__ == "__main__":
    main()
