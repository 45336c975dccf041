"""``tools/diagram_digest.py``: digests and timings of one space's
admissible diagrams, reported as one JSON line."""

import hashlib
import importlib.util
import json
import os

import srk

TOOL = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "diagram_digest.py"
)


def _tool():
    spec = importlib.util.spec_from_file_location("diagram_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sha256(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update(f"{line}\n".encode())
    return h.hexdigest()


def test_diagram_digest_of_og_2_6(capsys):
    _tool().main(["--k", "2", "--m", "6"])
    report = json.loads(capsys.readouterr().out)
    diagrams = list(srk.enumerate_diagrams(2, 6))
    assert len(diagrams) == report["diagrams"] == report["by_dimension"] == 24
    assert report["diagrams_sha256"] == _sha256(map(srk.print_diagram, diagrams))
    by_dimension = sorted(diagrams, key=srk.diagram_dimension)  # stable: walk order within one
    assert report["by_dimension_sha256"] == _sha256(map(srk.print_diagram, by_dimension))
    reports = ((d, srk.check_conditions(d)) for d in diagrams)
    assert report["reports_sha256"] == _sha256(
        f"{srk.print_diagram(d)} {r.conditions} {r.x} {r.warnings}" for d, r in reports
    )
    engine = []
    for d in diagrams:
        for push, run in ((False, srk.expand), (True, srk.pushforward_diagram)):
            total, root = run(d, trace=True)
            trace = json.dumps(root.to_json_dict(), separators=(",", ":"))
            try:
                decision, derived = srk.step(d, push)
                stepped = f"{decision!r} {[srk.print_diagram(e) for e in derived]}"
            except srk.errors.AlreadyTerminal as exc:
                stepped = f"AlreadyTerminal: {exc}"
            name = srk.print_diagram(d)
            engine += [
                f"{name} {push} class {run(d)!r}",
                f"{name} {push} trace {total!r} {trace}",
                f"{name} {push} step {stepped}",
            ]
    assert report["engine_sha256"] == _sha256(engine)
    classify = (
        f"{json.dumps(srk.classify_og(x).to_json_dict(), sort_keys=True)} {srk.og_dimension(x)}"
        for x in srk.enumerate_og(2, 6)
    )
    assert report["classify_sha256"] == _sha256(classify)
    assert (report["k"], report["m"]) == (2, 6)
    assert report["check_conditions_us"] > 0 and report["enumerate_ms"] > 0
