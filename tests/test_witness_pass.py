"""``tools/witness_pass.py``: one cold witness pass over a space's not-rigid
positions, reported as one JSON line."""

import importlib.util
import json
import os

import srk
from srk.errors import SrkError

TOOL = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "witness_pass.py"
)


def _tool():
    spec = importlib.util.spec_from_file_location("witness_pass", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_witness_pass_counts_match_find_nonrigid_witness(capsys):
    tool = _tool()
    tool.main(["--k", "2", "--n", "7"])
    report = json.loads(capsys.readouterr().out)
    assert report["cache_info"] == srk.cache_info()
    want = {"witnesses": 0, "none": 0, "raised": 0}
    queries = 0
    for x in srk.enumerate_og(2, 7):
        rep = srk.classify_og(x)
        for kind, verdicts in (("a", rep.a_verdicts), ("b", rep.b_verdicts)):
            for i, v in enumerate(verdicts, start=1):
                if v.kind != "not_rigid":
                    continue
                queries += 1
                try:
                    found = srk.find_nonrigid_witness(x, (kind, i))
                except SrkError:
                    want["raised"] += 1
                    continue
                want["none" if found is None else "witnesses"] += 1
    assert queries and report["queries"] == queries
    assert {key: report[key] for key in want} == want
    assert (report["k"], report["n"]) == (2, 7)
    assert report["seconds"] >= 0 and report["peak_rss_mb"] > 0
