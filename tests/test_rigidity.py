"""Rigidity classifiers and the non-rigidity witness search."""

import functools
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from itertools import islice

import pytest

from srk import (
    Bracket,
    ClassSum,
    Quadric,
    QuadricDiagram,
    canonical_index,
    classify_og,
    enumerate_diagrams,
    enumerate_og,
    expand,
    find_nonrigid_witness,
    og_rigid_a,
    og_rigid_b,
    og_rigid_class,
    validate_og,
    x_counts,
    z_counts,
)
from srk import rigidity
from srk.errors import (
    PositionOutOfRange,
    SearchBudgetExceeded,
    SrkError,
    ValidationError,
)
from srk.orthogonal import needs_rewrite
from test_diagrams import _unpruned_diagrams


def test_counts():
    x = validate_og(3, 9, [1, 4], [1])
    assert x_counts(x) == (1,)
    assert z_counts(x) == (1, 0)


def test_rigid_a_examples():
    assert og_rigid_a(validate_og(2, 6, [1], [1]), 1).kind == "rigid"
    assert og_rigid_a(validate_og(3, 7, [2, 3], [0]), 2).kind == "rigid"
    v = og_rigid_a(validate_og(3, 7, [1, 2], [2]), 2)
    assert v.kind == "disputed" and v.note
    with pytest.raises(PositionOutOfRange):
        og_rigid_a(validate_og(2, 6, [1], [1]), 2)


def test_rigid_a_clauses():
    # consecutive-gap pattern with nothing between: not rigid
    assert og_rigid_a(validate_og(2, 8, [2, 4], []), 1).token() == "not_rigid:MT-1"
    # non-essential position reported as such
    assert og_rigid_a(validate_og(2, 8, [1, 2], []), 1).kind == "not_essential"


def test_rigid_b_examples():
    assert og_rigid_b(validate_og(2, 6, [1], [1]), 1).token() == "rigid:B-RIGID"
    assert og_rigid_b(validate_og(2, 9, [2], [3]), 1).kind == "not_rigid"
    assert og_rigid_b(validate_og(3, 7, [1, 2], [2]), 1).kind == "rigid"
    assert og_rigid_b(validate_og(2, 6, [2], [0]), 1).kind == "not_essential"


def test_rigid_b_contested_threshold_is_disputed():
    # x_1 sits exactly one above the arithmetic threshold at odd n;
    # the expansion of 100]00}00 concretely moves the flag element
    v = og_rigid_b(validate_og(2, 7, [2], [2]), 1)
    assert v.kind == "disputed"
    witness = QuadricDiagram(7, (Bracket(3),), (Quadric(5, 1),))
    assert expand(witness) == ClassSum.single(validate_og(2, 7, [2], [2]))


def test_rigid_b_vacuous_construction_is_disputed():
    # a_s = n/2 leaves no room for the deformation the arithmetic predicts
    assert og_rigid_b(validate_og(2, 6, [3], [1]), 1).kind == "disputed"


def test_rigid_class_examples():
    assert og_rigid_class(validate_og(2, 6, [1], [1])) == (True, True)
    assert og_rigid_class(validate_og(2, 9, [2], [3])) == (False, True)
    assert og_rigid_class(validate_og(3, 7, [2, 3], [0])) == (True, True)


def test_classify_report_shape():
    rep = classify_og(validate_og(3, 7, [1, 2], [2]))
    assert [v.token() for v in rep.a_verdicts][1].startswith("disputed")
    assert rep.class_rigid is False
    assert "SMALL-N-REGIME" in rep.warnings and "DISPUTED-A2" in rep.warnings
    js = rep.to_json_dict()
    assert js["space"] == "OG" and js["z"] == [0, 1] and js["x"] == [2]
    rep2 = classify_og(validate_og(3, 7, [2, 3], [0]))
    assert "NO-ESSENTIAL-B" in rep2.warnings and rep2.class_rigid


def test_witness_found_for_small_ambient_counterexample():
    x = validate_og(3, 7, [1, 2], [2])
    w = find_nonrigid_witness(x, ("a", 2))
    assert w == QuadricDiagram(7, (Bracket(1), Bracket(3)), (Quadric(5, 1),))
    assert expand(w) == ClassSum.single(x)


def test_witness_found_for_loose_corank_condition():
    x = validate_og(2, 9, [2], [3])
    w = find_nonrigid_witness(x, ("b", 1))
    assert w == QuadricDiagram(9, (Bracket(2),), (Quadric(6, 2),))
    assert expand(w) == ClassSum.single(x)


def test_witness_absent_for_rigid_position():
    assert find_nonrigid_witness(validate_og(2, 6, [1], [1]), ("a", 1)) is None


def test_witness_respects_budget():
    with pytest.raises(SearchBudgetExceeded):
        find_nonrigid_witness(validate_og(2, 9, [2], [3]), ("b", 1), budget=2)


def test_witness_budget_from_environment(monkeypatch):
    x = validate_og(2, 9, [2], [3])
    monkeypatch.setenv("SRK_SEARCH_BUDGET", "2")
    with pytest.raises(SearchBudgetExceeded):
        find_nonrigid_witness(x, ("b", 1))
    monkeypatch.setenv("SRK_SEARCH_BUDGET", "lots")
    with pytest.raises(ValidationError, match="SRK_SEARCH_BUDGET"):
        find_nonrigid_witness(x, ("b", 1))
    monkeypatch.setenv("SRK_SEARCH_BUDGET", "-5")
    with pytest.raises(ValidationError, match="nonnegative, got -5"):
        find_nonrigid_witness(x, ("b", 1))
    with pytest.raises(ValidationError, match="nonnegative, got -1"):
        find_nonrigid_witness(x, ("b", 1), budget=-1)
    # a budget of 0 is legal: the scan stops before the first diagram
    with pytest.raises(SearchBudgetExceeded, match="passed 0 diagrams"):
        find_nonrigid_witness(x, ("b", 1), budget=0)


def test_witness_position_validation():
    x = validate_og(2, 6, [1], [1])
    with pytest.raises(PositionOutOfRange):
        find_nonrigid_witness(x, ("a", 2))
    with pytest.raises(PositionOutOfRange):
        find_nonrigid_witness(x, ("c", 1))


def test_witness_for_rewritten_boundary_position():
    # the boundary condition b = n/2 - 1 is queried through its bracket form
    x = validate_og(2, 8, [2], [3])
    assert find_nonrigid_witness(x, ("b", 1)) is None


# --- the memoized scan against a plain one ----------------------------------


def _reference_scan(x, position):
    """The witness scan without memos: a fresh unpruned reference enumeration
    per query and the traced expansion, which bypasses the expansion cache.
    Returns (1-based scan count, witness) or (None, None)."""
    kind, idx = position
    cx = canonical_index(x)
    if needs_rewrite(x) and kind == "b" and idx == len(x.b):
        kind, idx = "a", cx.s
    target = ClassSum.single(cx)
    for count, D in enumerate(_unpruned_diagrams(x.k, x.n), start=1):
        if rigidity._omits_assertion(D, cx, kind, idx) and expand(D, trace=True)[0] == target:
            return count, D
    return None, None


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except SrkError as exc:
        return "raised", type(exc)


@functools.cache
def _reference_answers(k, n):
    """((index, position), reference outcome) for every not_rigid position."""
    out = []
    for x in enumerate_og(k, n):
        rep = classify_og(x)
        for kind, verdicts in (("a", rep.a_verdicts), ("b", rep.b_verdicts)):
            for i, v in enumerate(verdicts, start=1):
                if v.kind == "not_rigid":
                    want = _outcome(lambda: _reference_scan(x, (kind, i))[1])
                    out.append(((x, (kind, i)), want))
    return tuple(out)


@pytest.mark.parametrize("k,n", [(2, 7), (2, 8), (2, 9), (3, 8)])
def test_memoized_witness_scan_matches_reference(k, n):
    answers = _reference_answers(k, n)
    assert answers
    for (x, pos), want in answers:
        assert _outcome(find_nonrigid_witness, x, pos) == want, (x, pos)


def test_budget_counts_the_same_on_a_warm_memo():
    x, pos = validate_og(2, 9, [2], [3]), ("b", 1)
    count, witness = _reference_scan(x, pos)
    assert count > 1
    find_nonrigid_witness(x, pos)  # (2, 9) is warm from here on
    assert find_nonrigid_witness(x, pos, budget=count) == witness
    with pytest.raises(SearchBudgetExceeded):
        find_nonrigid_witness(x, pos, budget=count - 1)


def test_diagram_memo_resumes_where_a_scan_stopped():
    full = list(enumerate_diagrams(2, 8))
    memo = rigidity._DiagramMemo(2, 8)
    assert list(islice(memo, 5)) == full[:5]
    inner = iter(memo)
    assert list(islice(inner, 3)) == full[:3]
    assert list(memo) == full
    assert list(inner) == full[3:]
    assert list(memo) == full


def test_diagram_memo_survives_an_interrupted_fill():
    full = list(enumerate_diagrams(2, 8))
    memo = rigidity._DiagramMemo(2, 8)

    def interrupted():
        yield from full[:4]
        raise KeyboardInterrupt

    memo._source = interrupted()
    with pytest.raises(KeyboardInterrupt):
        list(memo)
    assert list(memo) == full


def test_witness_scan_shared_by_two_threads(monkeypatch):
    answers = _reference_answers(2, 9)
    memo = rigidity._DiagramMemo(2, 9)
    monkeypatch.setattr(rigidity, "_admissible_diagrams", lambda k, n: memo)
    start = threading.Barrier(2, timeout=30)

    def sweep():
        start.wait()
        return [_outcome(find_nonrigid_witness, x, pos) for (x, pos), _ in answers]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(sweep) for _ in range(2)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(old)
    want = [outcome for _, outcome in answers]
    assert results == [want, want]
    assert memo._items == list(enumerate_diagrams(2, 9))[: len(memo._items)]
