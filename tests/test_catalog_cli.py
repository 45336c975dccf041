"""Catalog records, JSONL round-trips, and the command-line surface."""

import json
import os
import subprocess
import sys

import pytest

from srk import (
    build_record,
    enumerate_gr,
    enumerate_og,
    read_catalog,
    validate_gr,
    validate_og,
    write_catalog,
)
from srk.errors import SchemaError

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(*args, env=None):
    full_env = dict(os.environ)
    full_env["PYTHONPATH"] = os.path.join(PKG_ROOT, "src")
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "srk", *args],
        capture_output=True,
        text=True,
        env=full_env,
    )


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


def test_cli_dim_and_parse():
    out = run_cli("dim", "--space", "og", "--k", "2", "--n", "6", "--a", "1", "--b", "1")
    assert out.stdout.strip() == "2"
    out = run_cli("parse", "m=6 k=2 a=2 q=5:0")
    assert out.stdout.splitlines() == ["00]000}0", "m=6 k=2 s=1 admissible=yes"]


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
    # the scan reaches the out-of-family diagram 244000}0}0}0}00
    out = run_cli(
        "witness", "--k", "4", "--n", "11", "--a", "-", "--b", "0,1,2,4",
        "--position", "b:4",
    )
    assert out.returncode == 4 and out.stdout == ""
    assert out.stderr.startswith("error: 244000}0}0}0}00 fails")
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
