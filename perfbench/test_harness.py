"""Self-test of the benchmark harness.

Run from the repository root: python3 -m pytest -q perfbench/test_harness.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from oracle import (  # noqa: E402
    asserted_position,
    og_cell_count,
    og_dimension_closed_form,
    omits_assertion,
)
import run  # noqa: E402
from spans import Tracer  # noqa: E402


def test_percentile_ranks_failures_above_every_success():
    ok = [1_000_000 * v for v in range(1, 10)]  # 1..9 ms
    assert run.percentile_ms(ok, [], 0.5) == (5.0, 4)
    value, beyond = run.percentile_ms(ok, [50_000_000], 0.5)
    assert (value, beyond) == (5.5, 4)
    # the quantile falls among the failures: report the slowest measured op
    assert run.percentile_ms(ok[:2], [7_000_000, 3_000_000], 0.9)[0] == 7.0


def test_closed_form_dimension():
    # fundamental class of OG(k,n): k(2n - 3k - 1)/2
    for k, n in ((2, 6), (3, 9), (4, 11)):
        assert og_dimension_closed_form(k, n, (), tuple(range(k))) == k * (2 * n - 3 * k - 1) // 2
    assert og_dimension_closed_form(2, 8, (1, 2), ()) == 0


def test_cell_count():
    # OG(2,7) and OG(2,6) have 12 cells each; OG(k,2k) counts both families
    assert og_cell_count(2, 7) == og_cell_count(2, 6) == 12
    assert og_cell_count(5, 10) == 32 and og_cell_count(4, 12) == 240


def test_asserted_position_follows_even_n_rewrite():
    # OG(2,8), b = (0, 3): b_2 = n/2 - 1 is the primed bracket at 4
    assert asserted_position(2, 8, (), (0, 3), ("b", 2)) == ("bracket", 4, 1)
    assert asserted_position(2, 9, (2,), (3,), ("b", 1)) == ("quadric", 6, 3)
    assert omits_assertion((1, 3), (), ("bracket", 2, 1))
    assert not omits_assertion((2,), (), ("bracket", 2, 1))
    assert omits_assertion((), ((6, 2),), ("quadric", 6, 3))


def test_tracer_self_time_and_counts():
    tracer = Tracer()

    def leaf():
        return sum(range(2000))

    leaf_w = tracer.wrap_function(leaf, "m.leaf", "m.leaf")
    gen_w = tracer.wrap_generator(lambda: (leaf_w() for _ in range(3)), "m.gen", "m.gen")

    def outer():
        return [leaf_w() for _ in range(2)] + list(gen_w())

    outer_w = tracer.wrap_function(outer, "m.outer", "m.outer")
    outer_w()  # inactive: nothing recorded
    assert tracer.records["m.leaf"].calls == 0
    tracer.active = True
    t0 = time.perf_counter_ns()
    outer_w()
    elapsed = time.perf_counter_ns() - t0
    tracer.active = False
    r = tracer.records
    assert (r["m.outer"].calls, r["m.leaf"].calls, r["m.gen"].calls) == (1, 5, 1)
    assert r["m.gen"].yields == 3 and tracer.site_yields["m.gen"] == 3
    assert tracer.parent_calls[("m.gen", "m.leaf")] == 3
    assert tracer.parent_calls[("m.outer", "m.leaf")] == 2
    # self times partition the outer span: none negative, together within it
    assert all(rec.self_ns >= 0 for rec in r.values()) and r["m.leaf"].self_ns > 0
    assert sum(rec.self_ns for rec in r.values()) <= elapsed


def test_op_times_take_each_ops_upper_quartile():
    a = {"attempted": 3, "op_ns": [5, 1, 9], "failed_at": [2]}
    b = {"attempted": 3, "op_ns": [3, 4, 7], "failed_at": [2]}
    assert run.op_times([a, b]) == ([3.25, 4.5], [8.5])
    # time-sliced passes: only the positions every pass reached count
    c = {"attempted": 2, "op_ns": [1, 2], "failed_at": []}
    assert run.op_times([a, b, c]) == ([3.0, 4.0], [])
    assert run.upper_quartile([7]) == 7


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    result = {
        "attempted": 3, "op_ns": [2_000_000, 1_000_000, 5_000_000], "failed_at": [2],
        "setup_s": 0.1, "peak_rss_mb": 20.0, "witness_found": 1,
        "trace": {"records": {}, "site_calls": {}, "site_yields": {}, "parent_calls": {}},
    }
    e2e, _ = run.end_to_end([result])
    layer, _ = run.per_layer([result], [result])
    for got, declared in ((e2e, bench["end_to_end"]), (layer, bench["per_layer"])):
        assert {name: unit for name, (_, unit) in got.items()} == {
            m["name"]: m["unit"] for m in declared
        }


def test_worker_checks_warm_queries(tmp_path):
    spec = {
        "root": ROOT, "workload": "query_mix", "seed": 7,
        "workdir": str(tmp_path), "traced": True, "max_ops": 60,
    }
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    res = json.loads(out.stdout.splitlines()[-1])
    assert res["attempted"] == 60 and res["failures"] == {}
    assert len(res["op_ns"]) == 60 and res["failed_at"] == []
    assert res["trace"]["records"]["cli.main"][0] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0 and out.stdout == ""
