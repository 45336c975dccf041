"""Catalog records, JSONL round-trips, and the command-line surface."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from itertools import combinations
from unittest import mock

import pytest

from srk import (
    Bracket,
    QuadricDiagram,
    build_record,
    enumerate_gr,
    enumerate_og,
    expand,
    find_nonrigid_witness,
    print_diagram,
    pushforward,
    read_catalog,
    validate_gr,
    validate_og,
    write_catalog,
)
from srk.cli import main as cli_main
from srk.errors import (
    CatalogIOError,
    InvalidDiagram,
    NoIsotropicRoom,
    NotAdmissible,
    OutOfBounds,
    SchemaError,
)

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(*args, env=None):
    """``srk.cli.main`` on the arguments, in this process, with stdout and
    stderr captured and ``env`` added to the environment; the result carries
    ``returncode``, ``stdout`` and ``stderr`` as a finished ``srk`` process
    would."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env or {}):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(list(args))
    return subprocess.CompletedProcess(["srk", *args], code, out.getvalue(), err.getvalue())


def test_cli_runs_as_a_module():
    """``python -m srk`` reaches ``main`` and exits with its code."""
    env = dict(os.environ, PYTHONPATH=os.path.join(PKG_ROOT, "src"))
    for args, code, stdout in (
        (("dim", "--space", "og", "--k", "2", "--n", "6", "--a", "1", "--b", "1"), 0, "2\n"),
        (("dim", "--space", "og", "--k", "2", "--n", "7", "--a", "2", "--b", "1"), 2, ""),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "srk", *args], capture_output=True, text=True, env=env
        )
        assert (proc.returncode, proc.stdout) == (code, stdout), proc.stderr
        assert proc.stderr == run_cli(*args).stderr


def test_enumerate_gr_count():
    assert len(list(enumerate_gr(2, 4))) == 6


def test_record_for_cone_vertex_class():
    rec = build_record(validate_og(2, 6, [1], [1]))
    assert rec.space == "OG" and rec.dim == 2 and rec.class_rigid is True
    assert rec.a == (1,) and rec.b == (1,) and rec.prime is False
    assert rec.rigid_a == ("rigid",) and rec.rigid_b == ("rigid:B-RIGID",)
    assert rec.envelope is None
    line = json.loads(rec.to_json_line())
    assert list(line) == [
        "space", "k", "n", "a", "b", "prime", "dim", "essential_a",
        "essential_b", "rigid_a", "rigid_b", "class_rigid", "envelope",
        "warnings",
    ]


def test_record_for_gr_index():
    rec = build_record(validate_gr(3, 6, [1, 3, 5]))
    assert rec.space == "G" and rec.envelope == (1, 4, 5)
    assert rec.b is None and rec.rigid_b is None
    assert rec.rigid_a == ("rigid:G-2", "not_rigid", "rigid:G-1")


def test_catalog_roundtrip_and_determinism(tmp_path):
    records = [build_record(x) for x in enumerate_og(2, 7)]
    records += [build_record(x) for x in enumerate_gr(2, 5)]
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_catalog(records, p1)
    write_catalog(list(reversed(records)), p2)  # input order must not matter
    assert p1.read_bytes() == p2.read_bytes()
    assert read_catalog(p1) == sorted(records, key=lambda r: r.sort_key)


# sha256 of the catalog lines of every OG index of k <= 6, 2k <= n <= 14
CATALOG_LINES_COUNT = 4230
CATALOG_LINES_SHA256 = "559ef716589c46406c5d1c2ef606ae7961127ec79057fe8dd8625220e34e5a19"


def test_catalog_lines_are_byte_stable():
    """Every record line, byte for byte, against a pinned digest.

    Regenerate (only when a catalog change is intended):
    PYTHONPATH=src python -c "import hashlib; from srk import *; h = hashlib.sha256(); xs = [x for k in range(1, 7) for n in range(2 * k, 15) for x in enumerate_og(k, n)]; [h.update((build_record(x).to_json_line() + '\\n').encode()) for x in xs]; print(len(xs), h.hexdigest())"
    """
    h = hashlib.sha256()
    count = 0
    for k in range(1, 7):
        for n in range(2 * k, 15):
            for x in enumerate_og(k, n):
                h.update((build_record(x).to_json_line() + "\n").encode())
                count += 1
    assert count == CATALOG_LINES_COUNT
    assert h.hexdigest() == CATALOG_LINES_SHA256


@pytest.mark.parametrize("k", range(1, 7))
def test_catalog_roundtrip_one_space_per_k(tmp_path, k):
    records = [build_record(x) for x in enumerate_og(k, 2 * k + 2)]
    path = tmp_path / "og.jsonl"
    write_catalog(records, path)
    assert read_catalog(path) == sorted(records, key=lambda r: r.sort_key)


def test_catalog_dims_match_independent_recomputation(tmp_path):
    from srk import gr_dimension, pushforward, validate_gr, validate_og

    path = tmp_path / "mixed.jsonl"
    records = [build_record(x) for x in enumerate_og(2, 6)]
    records += [build_record(x) for x in enumerate_gr(2, 4)]
    write_catalog(records, path)
    for rec in read_catalog(path):
        if rec.space == "G":
            assert rec.dim == gr_dimension(validate_gr(rec.k, rec.n, rec.a))
        else:
            # the engine-derived dimension: every term of the pushforward
            x = validate_og(rec.k, rec.n, rec.a, rec.b, rec.prime)
            assert {gr_dimension(t) for t, _ in pushforward(x)} == {rec.dim}


def test_catalog_schema_error_carries_line(tmp_path):
    p = tmp_path / "bad.jsonl"
    rec = build_record(validate_og(2, 6, [1], [1]))
    p.write_text(rec.to_json_line() + "\n" + '{"space":"OG"}\n')
    with pytest.raises(SchemaError) as exc:
        read_catalog(p)
    assert exc.value.line == 2
    extra = json.loads(rec.to_json_line())
    extra["colour"] = "red"
    p.write_text(2 * (rec.to_json_line() + "\n") + json.dumps(extra) + "\n")
    with pytest.raises(SchemaError) as exc:
        read_catalog(p)
    assert exc.value.line == 3 and "'colour'" in str(exc.value)


@pytest.mark.parametrize(
    "space,field,value",
    [
        ("OG", "k", "two"),
        ("OG", "a", {"x": 1}),
        ("OG", "class_rigid", "maybe"),
        ("OG", "prime", "yes"),
        ("OG", "n", -5),
        ("OG", "dim", 2.0),
        ("OG", "warnings", [1]),
        ("OG", "space", "SP"),
        ("OG", "envelope", [1, 2]),
        ("OG", "rigid_b", None),
        ("OG", "b", [2]),
        ("OG", "a", [2, 1]),
        ("G", "prime", False),
        ("G", "a", [1, 9]),
    ],
)
def test_catalog_schema_error_names_a_bad_value(tmp_path, space, field, value):
    if space == "OG":
        rec = build_record(validate_og(2, 8, [3], [1]))
    else:
        rec = build_record(validate_gr(2, 5, [1, 3]))
    bad = json.loads(rec.to_json_line())
    bad[field] = value
    p = tmp_path / "bad.jsonl"
    p.write_text(rec.to_json_line() + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(SchemaError) as exc:
        read_catalog(p)
    assert exc.value.line == 2 and repr(field) in str(exc.value)


def test_cli_classify_human():
    out = run_cli("classify", "--space", "og", "--k", "2", "--n", "6", "--a", "1", "--b", "1")
    assert out.returncode == 0
    assert "dim 2" in out.stdout and "class rigid: yes" in out.stdout


def test_cli_classify_json():
    out = run_cli(
        "classify", "--space", "og", "--k", "2", "--n", "6",
        "--a", "1", "--b", "1", "--json",
    )
    data = json.loads(out.stdout)
    assert data["dim"] == 2 and data["class_rigid"] is True
    assert data["a_verdicts"] == ["rigid"]


def test_cli_classify_gr():
    out = run_cli("classify", "--space", "g", "--k", "3", "--n", "6", "--a", "1,3,5")
    assert out.returncode == 0 and "envelope: σ_{1,4,5}" in out.stdout


def test_cli_classify_gr_exact_output():
    args = ("classify", "--space", "g", "--k", "3", "--n", "6", "--a", "1,3,5")
    human = run_cli(*args)
    assert human.returncode == 0
    assert human.stdout == (
        "σ_{1,3,5} @ G(3,6)   dim 3\n"
        "  a_1 = 1: rigid:G-2\n"
        "  a_2 = 3: not_rigid\n"
        "  a_3 = 5: rigid:G-1\n"
        "  class rigid: no\n"
        "  envelope: σ_{1,4,5}\n"
    )
    js = run_cli(*args, "--json")
    assert js.returncode == 0
    assert js.stdout == (
        '{"space": "G", "k": 3, "n": 6, "a": [1, 3, 5], "dim": 3, '
        '"essential": [1, 2, 3], "verdicts": ["rigid:G-2", "not_rigid", '
        '"rigid:G-1"], "class_rigid": false, "envelope": [1, 4, 5]}\n'
    )


def test_cli_expand_with_merge_and_trace():
    out = run_cli("expand", "--n", "6", "--diagram", "00]000}0", "--merge-primes")
    assert out.returncode == 0
    assert "σ_1^1 + 2σ_{2,3}" in out.stdout
    traced = run_cli("expand", "--n", "6", "--diagram", "00]000}0", "--trace")
    assert "Root: 00]000}0" in traced.stdout
    json_line = [l for l in traced.stdout.splitlines() if l.startswith("trace-json:")]
    tree = json.loads(json_line[0].removeprefix("trace-json:"))
    assert tree["rule"] == "Root" and tree["children"]


def test_cli_expand_ambient_mismatch_is_validation_error():
    out = run_cli("expand", "--n", "7", "--diagram", "00]000}0")
    assert out.returncode == 2 and "error:" in out.stderr


def test_cli_pushforward():
    out = run_cli("pushforward", "--k", "2", "--n", "6", "--a", "-", "--b", "0,1")
    assert out.returncode == 0 and "4σ_{3,5}" in out.stdout


def test_cli_pushforward_prime():
    primed = run_cli("pushforward", "--k", "2", "--n", "8", "--a", "2,4", "--prime")
    assert primed.returncode == 0 and primed.stderr == ""
    x = validate_og(2, 8, [2, 4], [], prime=True)
    assert primed.stdout == f"i_*({x}) = {pushforward(x)}\n"
    assert primed.stdout.startswith("i_*(σ_{2,4'}) = ")
    misplaced = run_cli("pushforward", "--k", "2", "--n", "9", "--a", "2,4", "--prime")
    assert misplaced.returncode == 2 and "Traceback" not in misplaced.stderr
    assert misplaced.stderr.startswith("error: prime marker needs n even")


def test_read_catalog_missing_path_is_catalog_io_error(tmp_path):
    missing = tmp_path / "absent.jsonl"
    with pytest.raises(CatalogIOError, match="absent.jsonl: No such file or directory"):
        read_catalog(missing)


def test_cli_enumerate_unwritable_path_exit_code(tmp_path):
    target = tmp_path / "no-such-dir" / "x.jsonl"
    out = run_cli("enumerate", "--space", "og", "--k", "2", "--n", "7", "--out", str(target))
    assert out.returncode == 4 and out.stdout == ""
    assert out.stderr == f"error: cannot write catalog {target}: No such file or directory\n"


# The CLI sequence below runs in a fresh process, counting the top-level
# parsers built, and again here through ``run_cli``; both must print the same
# bytes.
_IN_PROCESS = r"""
import argparse, contextlib, io, json, sys

built = []
init = argparse.ArgumentParser.__init__

def counting(self, *args, **kwargs):
    if kwargs.get("prog") == "srk":
        built.append(kwargs["prog"])
    init(self, *args, **kwargs)

argparse.ArgumentParser.__init__ = counting
import srk.cli

after_import = len(built)
runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = srk.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    runs.append([code, out.getvalue(), err.getvalue()])
print(json.dumps({"after_import": after_import, "built": len(built), "runs": runs}))
"""

_SEQUENCE = [
    ["classify", "--space", "og", "--k", "2", "--n", "6", "--a", "1", "--b", "1", "--json"],
    ["dim", "--space", "og", "--k", "2", "--n", "6", "--a", "1", "--b", "1"],
    ["parse", "m=6 k=2 a=2 q=5:0"],
    ["pushforward", "--k", "2", "--n", "6", "--a", "-", "--b", "0,1"],
    ["classify", "--space", "og", "--k", "2"],  # argparse error: SystemExit(2)
    ["classify", "--space", "og", "--k", "2", "--n", "7", "--a", "2", "--b", "1"],
    ["classify", "--space", "og", "--k", "2", "--n", "6", "--a", "3", "--b", "1",
     "--prime", "--json"],
    ["classify", "--space", "og", "--k", "2", "--n", "6", "--a", "3", "--b", "1", "--json"],
]


def test_cli_main_reuses_one_parser_per_process():
    env = dict(os.environ, PYTHONPATH=os.path.join(PKG_ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _IN_PROCESS, json.dumps(_SEQUENCE)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["after_import"] == 0
    assert report["built"] == 1
    codes = [code for code, _, _ in report["runs"]]
    assert codes == [0, 0, 0, 0, 2, 2, 0, 0]
    for argv, (code, stdout, stderr) in zip(_SEQUENCE, report["runs"]):
        alone = run_cli(*argv)
        assert (alone.returncode, alone.stdout, alone.stderr) == (code, stdout, stderr), argv
    primed, unprimed = (json.loads(stdout) for _, stdout, _ in report["runs"][-2:])
    assert primed["prime"] is True and unprimed["prime"] is False


def test_cli_main_returns_argparse_exit_codes(capsys):
    # an in-process caller gets argparse's status back instead of SystemExit
    assert cli_main(["classify", "--space", "og", "--k", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: srk classify")
    assert "error: the following arguments are required: --n, --a" in err
    assert cli_main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: srk")


def test_cli_witness_rejects_malformed_position():
    # "--1" and "²" pass str.isdigit() after stripping a sign, yet int()
    # rejects both; each must be a validation error, not a traceback
    for raw in ("a:--1", "a:²"):
        out = run_cli(
            "witness", "--k", "2", "--n", "9", "--a", "2", "--b", "3", "--position", raw,
        )
        assert out.returncode == 2 and out.stdout == "" and "Traceback" not in out.stderr
        assert out.stderr == f"error: --position must look like a:2 or b:1, got {raw!r}\n"


def test_cli_dim_and_parse():
    out = run_cli("dim", "--space", "og", "--k", "2", "--n", "6", "--a", "1", "--b", "1")
    assert out.stdout.strip() == "2"
    out = run_cli("parse", "m=6 k=2 a=2 q=5:0")
    assert out.stdout.splitlines() == ["00]000}0", "m=6 k=2 s=1 admissible=yes"]
    # each passes the conditions but does not fit its ambient, so expand
    # refuses it
    for text, shape in (("0000]00", "m=6 k=1 s=1"), ("11000}", "m=5 k=1 s=0")):
        out = run_cli("parse", text)
        assert out.returncode == 0
        assert out.stdout.splitlines() == [text, f"{shape} admissible=no"]


def _coranks(ds, acc=()):
    """Every nondecreasing corank chain with r_j <= d_j."""
    if len(acc) == len(ds):
        yield acc
        return
    for r in range(acc[-1] if acc else 0, ds[len(acc)] + 1):
        yield from _coranks(ds, acc + (r,))


def _constructible_diagrams(m):
    """Every diagram the constructor accepts in ambient m.  Brackets range
    over 1..m and coranks up to d, past the isotropic bound and the ambient
    fit that the enumerators never cross."""
    for s in range(m + 1):
        for dims in combinations(range(1, m + 1), s):
            variants = [tuple(Bracket(v) for v in dims)]
            if m % 2 == 0 and m // 2 in dims:
                variants.append(tuple(Bracket(v, 2 * v == m) for v in dims))
            for brackets in variants:
                for q in range(m + 1):
                    for dset in combinations(range(max(dims, default=1), m + 1), q):
                        ds = dset[::-1]
                        for rs in _coranks(ds):
                            try:
                                yield QuadricDiagram(m, brackets, tuple(zip(ds, rs)))
                            except InvalidDiagram:
                                pass


def test_cli_parse_admissible_means_expand_accepts(capsys):
    seen = accepted = 0
    for m in range(1, 8):
        for D in _constructible_diagrams(m):
            text = print_diagram(D)
            assert cli_main(["parse", text]) == 0
            verdict = capsys.readouterr().out.splitlines()[-1].rsplit("=", 1)[1]
            try:
                expand(D)
            except NotAdmissible:
                assert verdict == "no", text
            else:
                assert verdict == "yes", text
                accepted += 1
            seen += 1
    assert (seen, accepted) == (13165, 155)


def test_cli_witness_found_and_none():
    found = run_cli(
        "witness", "--k", "3", "--n", "7", "--a", "1,2", "--b", "2",
        "--position", "a:2",
    )
    assert found.returncode == 0 and found.stdout.strip() == "1]00]00}00"
    none = run_cli(
        "witness", "--k", "2", "--n", "6", "--a", "1", "--b", "1",
        "--position", "a:1",
    )
    assert none.returncode == 0 and none.stdout.strip() == "none"


def test_cli_witness_prime():
    # σ_{2,4'} in OG(2,8): an MT-1 position with no restriction-variety witness
    x = validate_og(2, 8, [2, 4], [], prime=True)
    assert find_nonrigid_witness(x, ("a", 1)) is None
    out = run_cli(
        "witness", "--k", "2", "--n", "8", "--a", "2,4", "--b", "-",
        "--position", "a:1", "--prime",
    )
    assert (out.returncode, out.stdout, out.stderr) == (0, "none\n", "")
    # a missing --b is the empty list, as --b - is
    no_b = run_cli("witness", "--k", "2", "--n", "8", "--a", "2,4", "--position", "a:1", "--prime")
    assert (no_b.returncode, no_b.stdout, no_b.stderr) == (out.returncode, out.stdout, out.stderr)
    misplaced = run_cli(
        "witness", "--k", "2", "--n", "9", "--a", "2", "--b", "3",
        "--position", "b:1", "--prime",
    )
    assert misplaced.returncode == 2 and "Traceback" not in misplaced.stderr
    assert misplaced.stderr.startswith("error: prime marker needs n even")


def test_cli_witness_budget_exit_code():
    out = run_cli(
        "witness", "--k", "2", "--n", "9", "--a", "2", "--b", "3",
        "--position", "b:1", "--budget", "2",
    )
    assert out.returncode == 3
    env_out = run_cli(
        "witness", "--k", "2", "--n", "9", "--a", "2", "--b", "3",
        "--position", "b:1", env={"SRK_SEARCH_BUDGET": "2"},
    )
    assert env_out.returncode == 3
    bad_env = run_cli(
        "witness", "--k", "2", "--n", "9", "--a", "2", "--b", "3",
        "--position", "b:1", env={"SRK_SEARCH_BUDGET": "lots"},
    )
    assert bad_env.returncode == 2 and "Traceback" not in bad_env.stderr
    assert bad_env.stderr.startswith("error: SRK_SEARCH_BUDGET must be an integer")
    negative_arg = run_cli(
        "witness", "--k", "2", "--n", "9", "--a", "2", "--b", "3",
        "--position", "b:1", "--budget", "-1",
    )
    negative_env = run_cli(
        "witness", "--k", "2", "--n", "9", "--a", "2", "--b", "3",
        "--position", "b:1", env={"SRK_SEARCH_BUDGET": "-5"},
    )
    for negative in (negative_arg, negative_env):
        assert negative.returncode == 2 and "Traceback" not in negative.stderr
        assert negative.stderr.startswith("error: witness search budget must be nonnegative")


def test_cli_engine_error_exit_code_for_witness():
    # the scan reaches the out-of-family diagram 244000}0}0}0}000
    out = run_cli(
        "witness", "--k", "4", "--n", "12", "--a", "2,6", "--b", "3,4",
        "--position", "a:1",
    )
    assert out.returncode == 4 and out.stdout == ""
    assert out.stderr.startswith("error: 244000}0}0}0}000 fails")
    assert out.stderr.endswith("(while expanding scan candidate 344000}0}0}0}000)\n")
    assert "Traceback" not in out.stderr


def test_cli_engine_error_exit_code_for_enumerate(tmp_path):
    # no engine error any more: σ_{2,3,5}^{0,3} pushes forward to zero in the
    # engine, but its record only needs the closed-form dimension
    target = tmp_path / "og510.jsonl"
    out = run_cli(
        "enumerate", "--space", "og", "--k", "5", "--n", "10", "--out", str(target),
    )
    assert out.returncode == 0 and "32 records" in out.stdout
    [rec] = [
        r for r in read_catalog(target)
        if (r.a, r.b, r.prime) == ((2, 3, 5), (0, 3), False)
    ]
    # (2-1) + (3-2) + (5-3) + (10-0-3-2-3) + (10-3-3-4-1)
    assert rec.dim == 5


def test_cli_engine_error_exit_code_for_pushforward():
    out = run_cli("pushforward", "--k", "5", "--n", "10", "--a", "2,3,5", "--b", "0,3")
    assert out.returncode == 4 and out.stdout == ""
    assert out.stderr.startswith("error: zero pushforward for σ_{2,3,5}^{0,3}")
    assert "Traceback" not in out.stderr


def test_cli_validation_error_exit_code():
    out = run_cli("classify", "--space", "og", "--k", "2", "--n", "7", "--a", "2", "--b", "1")
    assert out.returncode == 2 and "splits" in out.stderr


def test_cli_rejects_empty_og_index():
    for command in ("classify", "dim"):
        out = run_cli(command, "--space", "og", "--k", "0", "--n", "4", "--a", "-")
        assert out.returncode == 2 and out.stdout == ""
        assert out.stderr.startswith("error: need k >= 1, got 0")


def test_cli_og_only_options_rejected_for_g():
    for command in ("classify", "dim"):
        for extra in (("--b", "1"), ("--prime",)):
            out = run_cli(command, "--space", "g", "--k", "2", "--n", "5", "--a", "1,3", *extra)
            assert out.returncode == 2 and out.stdout == ""
            assert out.stderr.startswith("error: --b/--prime only apply to --space og")


def test_cli_g_takes_a_dash_b_as_the_empty_list():
    for command in ("classify", "dim"):
        args = (command, "--space", "g", "--k", "3", "--n", "6", "--a", "1,3,5")
        out = run_cli(*args, "--b", "-")
        assert out.returncode == 0 and out.stderr == ""
        assert out.stdout == run_cli(*args).stdout


def test_cli_classifies_the_even_boundary_spelling_as_its_primed_twin():
    # b = 1 = n/2 - 1 in OG(1,4) names σ_{2'}, which is rigid
    out = run_cli("classify", "--space", "og", "--k", "1", "--n", "4", "--a", "-", "--b", "1")
    assert out.returncode == 0
    assert out.stdout == run_cli(
        "classify", "--space", "og", "--k", "1", "--n", "4", "--a", "2", "--prime"
    ).stdout
    assert out.stdout.splitlines()[:3] == [
        "σ_{2'} @ OG(1,4)   dim 1",
        "  a_1 = 2: rigid",
        "  class rigid: yes (methods agree)",
    ]


def test_cli_enumerate_writes_catalog(tmp_path):
    target = tmp_path / "og27.jsonl"
    out = run_cli(
        "enumerate", "--space", "og", "--k", "2", "--n", "7",
        "--filter", "all", "--out", str(target),
    )
    assert out.returncode == 0 and "12 records" in out.stdout
    assert len(read_catalog(target)) == 12
    rigid_only = tmp_path / "rigid.jsonl"
    run_cli(
        "enumerate", "--space", "og", "--k", "2", "--n", "7",
        "--filter", "rigid", "--out", str(rigid_only),
    )
    assert all(r.class_rigid for r in read_catalog(rigid_only))


def test_cli_enumerate_filters_split_each_space(tmp_path):
    # rigid and nonrigid records together read back as the whole catalog
    for space, k, n in (("g", 2, 5), ("og", 2, 7)):
        parts = {}
        for which in ("all", "rigid", "nonrigid"):
            path = tmp_path / f"{space}-{which}.jsonl"
            out = run_cli(
                "enumerate", "--space", space, "--k", str(k), "--n", str(n),
                "--filter", which, "--out", str(path),
            )
            assert out.returncode == 0, out.stderr
            parts[which] = read_catalog(path)
        assert parts["all"] and parts["rigid"] and parts["nonrigid"]
        assert {r.space for r in parts["all"]} == {"G" if space == "g" else "OG"}
        assert all(r.class_rigid for r in parts["rigid"])
        assert not any(r.class_rigid for r in parts["nonrigid"])
        whole = sorted(parts["rigid"] + parts["nonrigid"], key=lambda r: r.sort_key)
        assert whole == parts["all"]


def test_cli_classify_human_prints_warnings():
    out = run_cli("classify", "--space", "og", "--k", "2", "--n", "5", "--a", "-", "--b", "0,1")
    assert out.returncode == 0
    assert out.stdout.splitlines()[-1] == "  warnings: SMALL-N-REGIME, NO-ESSENTIAL-B"


def test_read_catalog_skips_blank_lines_and_names_lines_that_are_not_objects(tmp_path):
    rec = build_record(validate_og(2, 6, [1], [1]))
    p = tmp_path / "cat.jsonl"
    p.write_text("\n" + rec.to_json_line() + "\n  \n")
    assert read_catalog(p) == [rec]
    for bad in ("{not json", "[1, 2]"):
        p.write_text(rec.to_json_line() + "\n\n" + bad + "\n")
        with pytest.raises(SchemaError) as exc:
            read_catalog(p)
        assert exc.value.line == 3


@pytest.mark.parametrize(
    "enumerate_space,k,n,err",
    [
        (enumerate_og, 0, 4, OutOfBounds),
        (enumerate_og, 3, 5, NoIsotropicRoom),
        (enumerate_gr, 3, 2, OutOfBounds),
    ],
)
def test_enumerate_rejects_sizes_without_indices(enumerate_space, k, n, err):
    with pytest.raises(err):
        list(enumerate_space(k, n))
