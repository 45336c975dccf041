"""Regenerate the golden answer table of the query_mix workload.

Usage, from the repository root: python3 perfbench/make_golden.py

Writes perfbench/golden/query_mix.json: for every query the mix can draw,
the digest of srk's answer at the current commit.  Regenerate it only when a
change is meant to alter answers, and say so in that change.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import srk  # noqa: E402
import srk.cli  # noqa: E402,F401

from oracle import digest  # noqa: E402
from workloads import ANSWER_KINDS, GOLDEN_PATH, TEXT_KINDS, answer_for, golden_key, query_pool  # noqa: E402


def main():
    indices, texts = query_pool(srk)
    table = {
        golden_key(kind, arg): digest(answer_for(srk, kind, arg))
        for kind in ANSWER_KINDS
        for arg in (texts if kind in TEXT_KINDS else indices)
    }
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{len(table)} answers -> {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
