"""The value-type contract: QuadricDiagram, OgIndex, GrIndex and Verdict are
immutable, hashable, equal only within their own class and by field, and
print as their constructor calls; the step objects keep their attributes."""

import os
import pickle
import subprocess
import sys

import pytest

import srk
from srk import (
    BranchDecision,
    Bracket,
    GrIndex,
    OgIndex,
    Quadric,
    QuadricDiagram,
    TraceNode,
    Verdict,
    check_conditions,
    classify_og,
    expand,
    find_nonrigid_witness,
    parse_diagram,
    step,
    validate_og,
)
from srk.orthogonal import og_merge_prime

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _values():
    """(value, equal value built another way, repr) per value type."""
    return [
        (
            QuadricDiagram(6, (Bracket(2),), (Quadric(5, 0),)),
            QuadricDiagram(6, [(2, False)], [(5, 0)]),
            "QuadricDiagram(m=6, brackets=(Bracket(dim=2, prime=False),), "
            "quadrics=(Quadric(d=5, r=0),))",
        ),
        (
            OgIndex(2, 8, (2, 4), (), True),
            validate_og(2, 8, [2, 4], [], prime=True),
            "OgIndex(k=2, n=8, a=(2, 4), b=(), prime=True)",
        ),
        (GrIndex(3, 6, (1, 3, 5)), GrIndex(3, 6, [1, 3, 5]), "GrIndex(k=3, n=6, a=(1, 3, 5))"),
        (
            Verdict("rigid", clause="G-1"),
            Verdict("rigid", "G-1", None),
            "Verdict(kind='rigid', clause='G-1', note=None)",
        ),
    ]


@pytest.mark.parametrize("value,twin,text", _values())
def test_equal_values_hash_alike_and_print_as_constructor_calls(value, twin, text):
    assert value == twin and not value != twin
    assert hash(value) == hash(twin)
    assert len({value, twin}) == 1
    assert repr(value) == repr(twin) == text


@pytest.mark.parametrize("value,twin,text", _values())
def test_values_survive_pickling(value, twin, text):
    copy = pickle.loads(pickle.dumps(value))
    assert copy == value and hash(copy) == hash(value) and repr(copy) == text


def test_equality_holds_only_within_one_class():
    og, gr = OgIndex(1, 4, (1,), ()), GrIndex(1, 4, (1,))
    assert og != gr and gr != og
    assert og != (1, 4, (1,), (), False)
    D = QuadricDiagram(6, [(2, False)], [(5, 0)])
    assert D != (6, ((2, False),), ((5, 0),))
    assert Verdict("rigid") != ("rigid", None, None)
    assert OgIndex(2, 8, (2, 4), (), True) != OgIndex(2, 8, (2, 4), ())


@pytest.mark.parametrize("value,twin,text", _values())
def test_values_refuse_assignment(value, twin, text):
    field = text[text.index("(") + 1 : text.index("=")]  # the first field
    with pytest.raises(AttributeError):
        setattr(value, field, 1)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == twin and hash(value) == hash(twin)


def test_derived_attributes_are_stored():
    x = validate_og(3, 9, [1, 4], [2])
    assert (x.s, x.sort_key) == (2, (2, (1, 4), 0, (2,)))
    assert GrIndex(2, 5, [1, 4]).sort_key == (1, 4)
    v = Verdict("not_rigid", clause="MT-1")
    assert (v.token(), str(v), v.is_rigid, v.is_essential) == (
        "not_rigid:MT-1", "not_rigid:MT-1", False, True,
    )
    assert not Verdict("not_essential").is_essential and Verdict("rigid").is_rigid
    D = parse_diagram("22]000}0}0")
    assert (D.bracket_dims, D.ds, D.rs, D.sums, D.s, D.q, D.k) == (
        (2,), (6, 5), (0, 2), (6, 7), 1, 2, 3,
    )


def test_og_merge_prime():
    primed = validate_og(2, 8, [2, 4], [], prime=True)
    merged = og_merge_prime(primed)
    assert merged == validate_og(2, 8, [2, 4], []) and not merged.prime
    assert type(merged) is OgIndex and merged.sort_key == (2, (2, 4), 0, ())
    assert og_merge_prime(merged) is merged


def test_branch_decision_attributes():
    decision, _ = step(QuadricDiagram(6, [(2, False)], [(5, 0)]))
    names = ("kappa", "x_kappa", "y_kappa", "n_s_le_r", "gap_test", "chosen", "ambiguous_y")
    assert tuple(getattr(decision, n) for n in names) == (1, 0, 2, False, False, "Both", True)
    assert decision == BranchDecision(1, 0, 2, False, False, "Both", True)
    assert BranchDecision(1, 0, None, True, False, "DaOnly").ambiguous_y is False


def test_step_objects_keep_their_attributes():
    root = TraceNode(None, "Root")
    assert (root.diagram, root.rule, root.note, root.children) == (None, "Root", None, [])
    assert TraceNode(None, "Root").children is not root.children
    rep = check_conditions(parse_diagram("22000}0}0"))
    assert rep.ok and rep.failed() == [] and rep.x == (0, 0)
    bad = check_conditions(parse_diagram("0]00}"))
    assert not bad.ok and bad.failed() == ["A2", "A3"]
    x = validate_og(2, 8, [2, 4], [])
    report = classify_og(x)
    assert report.index is x and report == classify_og(x)
    assert repr(report).startswith("RigidityReport(index=OgIndex(k=2, n=8, a=(2, 4)")


def test_import_loads_no_dataclasses_inspect_or_decimal_arithmetic():
    """``import srk, srk.cli`` loads none of dataclasses, inspect, fractions
    or decimal."""
    env = dict(os.environ, PYTHONPATH=os.path.join(PKG_ROOT, "src"))
    code = (
        "import sys, srk, srk.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect', 'fractions', 'decimal') "
        "if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_cache_info_counts_hits_misses_and_size():
    D = parse_diagram("00]000}0")
    expand(D)
    before = srk.cache_info()
    expand(D)
    after = srk.cache_info()
    assert after["expand"] == {
        "hits": before["expand"]["hits"] + 1,
        "misses": before["expand"]["misses"],
        "size": before["expand"]["size"],
    }
    x = validate_og(2, 7, [1], [2])
    find_nonrigid_witness(x, ("a", 1))
    before = srk.cache_info()
    find_nonrigid_witness(x, ("a", 1))
    after = srk.cache_info()
    assert after["candidates"]["misses"] == before["candidates"]["misses"]
    assert after["candidates"]["hits"] > before["candidates"]["hits"]
    assert after["candidates"]["size"] == before["candidates"]["size"] > 0
    assert all(type(v) is int for counts in after.values() for v in counts.values())
