"""The degeneration engine: branch selection, repairs, expansion, pushforward."""

from collections import Counter
from functools import lru_cache

import pytest

import srk.degeneration as deg
from srk import (
    Bracket,
    ClassSum,
    GrIndex,
    Quadric,
    QuadricDiagram,
    check_conditions,
    derive_and_fix_a,
    derive_and_fix_b,
    diagram_to_og,
    enumerate_diagrams,
    expand,
    kappa,
    merge_primes,
    parse_diagram,
    print_diagram,
    pushforward,
    pushforward_diagram,
    step,
    validate_gr,
    validate_og,
)
from srk.errors import AlreadyTerminal, DepthExceeded, EngineInvariantError, NotAdmissible


def D(m, brackets=(), quadrics=()):
    return QuadricDiagram(
        m,
        tuple(Bracket(*b) if isinstance(b, tuple) else Bracket(b) for b in brackets),
        tuple(Quadric(*q) for q in quadrics),
    )


CONE_POINT = D(6, [2], [(5, 0)])  # smooth conic cone restriction in OG(2,6)


def test_kappa_examples():
    assert kappa(CONE_POINT) == 1
    assert kappa(D(9, [], [(6, 0), (4, 1)])) == 2
    with pytest.raises(AlreadyTerminal):
        kappa(D(6, [1], [(5, 1)]))
    # the same diagram is not terminal in pushforward mode
    assert kappa(D(6, [1], [(5, 1)]), pushforward=True) == 1


def test_derive_a_splits_into_prime_pair():
    out = derive_and_fix_a(CONE_POINT)
    assert out == [D(6, [2, 3], []), D(6, [2, (3, True)], [])]


def test_derive_a_doubles_without_prime_in_odd_ambient():
    out = derive_and_fix_a(D(13, [3], [(6, 3)]))
    assert out == [D(13, [3, 5], []), D(13, [3, 5], [])]


def test_derive_a_discards_on_failed_a3(monkeypatch):
    notes = []
    grow = deg._grow

    def recording(node, diagram, rule, note=None):
        if rule == "Discard":
            notes.append(note)
        return grow(node, diagram, rule, note)

    monkeypatch.setattr(deg, "_grow", recording)
    assert derive_and_fix_a(D(7, [1, 3], [(5, 1)])) == []
    assert notes == ["(A3) fails: x_1 = 1 < 2"]


def test_derive_b_examples():
    assert derive_and_fix_b(CONE_POINT) == D(6, [1], [(5, 1)])
    assert derive_and_fix_b(D(7, [1, 3], [(5, 1)])) == D(7, [1, 2], [(5, 2)])
    assert derive_and_fix_b(D(9, [], [(8, 0), (7, 1)])) is None  # no bracket


def test_step_takes_both_branches_on_the_cone():
    decision, results = step(CONE_POINT)
    assert decision.chosen == "Both"
    assert decision.kappa == 1 and decision.x_kappa == 0 and decision.y_kappa == 2
    assert results == [
        D(6, [2, 3], []),
        D(6, [2, (3, True)], []),
        D(6, [1], [(5, 1)]),
    ]


def test_step_db_only_when_bump_fails_a3():
    decision, results = step(D(13, [4], [(6, 2)]))
    assert decision.chosen == "DbOnly"
    assert results == [D(13, [3], [(6, 3)])]


def test_step_flags_the_ambiguous_y_guard():
    # on the cone diagram the two readings of the y guard pick different
    # branches; the implemented one is validated by the expansion oracle
    # (the other would drop the vertex-class term entirely)
    decision, _ = step(CONE_POINT)
    assert decision.ambiguous_y and not decision.gap_test
    unambiguous, _ = step(D(13, [3], [(6, 3)]))  # bracket inside singular locus
    assert not unambiguous.ambiguous_y


def test_step_da_only_when_bracket_inside_singular_locus():
    decision, results = step(D(13, [3], [(6, 3)]))
    assert decision.chosen == "DaOnly" and decision.n_s_le_r
    assert results == [D(13, [3, 5], []), D(13, [3, 5], [])]


def test_expand_cone_point_class():
    s11 = validate_og(2, 6, [1], [1])
    s23 = validate_og(2, 6, [2, 3], [])
    s23p = validate_og(2, 6, [2, 3], [], prime=True)
    assert expand(CONE_POINT) == ClassSum({s11: 1, s23: 1, s23p: 1})
    assert merge_primes(expand(CONE_POINT)) == ClassSum({s11: 1, s23: 2})


def test_expand_point_line_flag_class():
    got = expand(D(7, [2, 3], [(6, 0)]))
    assert got == ClassSum.single(validate_og(3, 7, [1, 3], [1]))


def test_expand_terminal_diagram_is_identity():
    term = D(6, [1], [(5, 1)])
    assert expand(term) == ClassSum.single(validate_og(2, 6, [1], [1]))


def test_expand_rejects_inadmissible():
    inadmissible = [
        D(6, [2], [(5, 1)]),  # fails A2
        D(6, [2], [(6, 1), (5, 2)]),  # quadric does not fit the ambient
        D(6, [1, 4]),  # terminal in both modes, bracket past the isotropic bound
    ]
    for bad in inadmissible:
        with pytest.raises(NotAdmissible):
            expand(bad)
        # every public entry checks its root before asking for kappa, so an
        # inadmissible terminal diagram is NotAdmissible, not AlreadyTerminal
        for entry in (step, derive_and_fix_a, derive_and_fix_b):
            for push in (False, True):
                with pytest.raises(NotAdmissible):
                    entry(bad, push)


def test_expand_trace_structure():
    result, root = expand(CONE_POINT, trace=True)
    assert result == expand(CONE_POINT)
    assert root.rule == "Root" and root.diagram == CONE_POINT
    rules = set()
    leaves = []

    def walk(node):
        rules.add(node.rule)
        if not node.children and node.diagram is not None:
            leaves.append(node.diagram)
        for child in node.children:
            walk(child)

    walk(root)
    assert {"Da", "Db", "FixA2", "FixA1Split"} <= rules
    # every surviving leaf is an admissible terminal diagram
    assert leaves and all(check_conditions(d).ok for d in leaves)
    assert all(q.d + q.r == d.m for d in leaves for q in d.quadrics)
    js = root.to_json_dict()
    assert set(js) == {"rule", "diagram", "note", "children"}
    assert "κ=1" in root.note and "Both" in root.note
    assert "FixA1Split" in root.render()


def _discard_notes(node):
    if node.rule == "Discard":
        yield node.note
    for child in node.children:
        yield from _discard_notes(child)


# for each way a derivation can lose a branch, the first diagram in canonical
# order (OG(3,6), OG(3,8), OG(3,8), OG(4,9), OG(5,10)) whose step records it
@pytest.mark.parametrize(
    "text,reason",
    [
        ("00]000}0}", "two braces would collide"),
        ("22000}0}0}0", "structural collision while splitting (A1)"),
        ("22]0000}0}0", "structural collision while repairing (A2)"),
        ("22]2]000}00}0", "(A3) fails: "),
        ("344]000}0}0}00}", "inadmissible after repairs: "),
    ],
)
def test_each_discard_reason_is_reached(text, reason):
    _, root = expand(parse_diagram(text), trace=True)
    assert any(note.startswith(reason) for note in _discard_notes(root))


def test_pushforward_examples():
    assert pushforward(validate_og(2, 6, [1], [1])) == ClassSum.single(
        validate_gr(2, 6, [1, 4]), 2
    )
    assert pushforward(validate_og(2, 7, [2], [0])) == ClassSum(
        {validate_gr(2, 7, [1, 6]): 2, validate_gr(2, 7, [2, 5]): 2}
    )
    assert pushforward(validate_og(2, 6, [], [0, 1])) == ClassSum.single(
        validate_gr(2, 6, [3, 5]), 4
    )


def test_pushforward_of_bracket_only_index_is_itself():
    x = validate_og(2, 6, [2, 3], [], prime=True)
    assert pushforward(x) == ClassSum.single(validate_gr(2, 6, [2, 3]))


# every k = 5 index of OG(5,10..12) whose pushforward the engine loses
ZERO_PUSHFORWARD = [
    (5, 10, [2, 3, 5], [0, 3], False),
    (5, 10, [2, 3, 5], [0, 3], True),
    (5, 11, [3, 4], [0, 1, 4], False),
    (5, 12, [4, 6], [0, 1, 4], False),
    (5, 12, [4, 6], [0, 1, 4], True),
    (5, 12, [3, 4, 6], [1, 4], False),
    (5, 12, [3, 4, 6], [1, 4], True),
]


@pytest.mark.parametrize("k,n,a,b,prime", ZERO_PUSHFORWARD)
def test_zero_pushforward_raises(k, n, a, b, prime):
    x = validate_og(k, n, a, b, prime)
    for trace in (False, True):
        with pytest.raises(EngineInvariantError, match="zero pushforward for"):
            pushforward(x, trace=trace)


def test_pushforward_diagram_matches_index_route():
    x = validate_og(2, 7, [2], [0])
    assert pushforward_diagram(D(7, [2], [(7, 0)])) == pushforward(x)


def test_merge_primes():
    a = validate_og(2, 6, [2, 3], [])
    ap = validate_og(2, 6, [2, 3], [], prime=True)
    assert merge_primes(ClassSum({a: 1, ap: 1})) == ClassSum({a: 2})
    plain = ClassSum({validate_og(2, 6, [1], [1]): 3})
    assert merge_primes(plain) == plain
    assert merge_primes(ClassSum.zero()) == ClassSum.zero()


def test_expansion_is_deterministic_and_cached():
    first = expand(parse_diagram("00]000}0"))
    hits = deg._expand_cached.cache_info().hits
    second = expand(parse_diagram("00]000}0"))
    assert first == second and str(first) == str(second)
    assert deg._expand_cached.cache_info().hits == hits + 1


def _surviving_leaves(node):
    if node.diagram is None:
        return
    if not node.children:
        yield node.diagram
    for child in node.children:
        yield from _surviving_leaves(child)


def test_replayed_trace_agrees_with_cached_class():
    """Over every admissible diagram of k <= 3, m <= 8, in both modes: the
    traced class equals the cached one, every surviving leaf of the trace is
    terminal, and the leaves' basis elements sum to the class."""
    cases = 0
    for k in range(1, 4):
        for m in range(2 * k, 9):
            for D in enumerate_diagrams(k, m):
                for run, push in ((expand, False), (pushforward_diagram, True)):
                    traced, root = run(D, trace=True)
                    assert traced == run(D), print_diagram(D)
                    leaves = list(_surviving_leaves(root))
                    if push:
                        assert all(not L.quadrics for L in leaves)
                        basis = [GrIndex(L.k, L.m, L.bracket_dims) for L in leaves]
                    else:
                        assert all(s == L.m for L in leaves for s in L.sums)
                        basis = [diagram_to_og(L) for L in leaves]
                    assert ClassSum(Counter(basis)) == traced, print_diagram(D)
                    cases += 1
    assert cases == 686


def test_expansion_checks_each_diagram_once(monkeypatch):
    checked = Counter()

    def counting(D):
        checked[D] += 1
        return check_conditions(D)

    monkeypatch.setattr(deg, "check_conditions", counting)
    # a private cache, so that every step of the derivation runs here
    monkeypatch.setattr(
        deg, "_expand_cached", lru_cache(maxsize=None)(deg._expand_cached.__wrapped__)
    )
    expand(CONE_POINT)
    twice = sorted(print_diagram(D) for D, calls in checked.items() if calls > 1)
    assert checked[CONE_POINT] == 1
    assert twice == []


def test_endless_derivation_raises_depth_exceeded(monkeypatch):
    def endless(node, push):
        # the input diagram comes back as its own child, forever
        return None, [(node.diagram, deg._grow(node, node.diagram, "Da"))]

    monkeypatch.setattr(deg, "_step", endless)
    # a private cache, so that no class cached by another test short-cuts it
    monkeypatch.setattr(
        deg, "_expand_cached", lru_cache(maxsize=None)(deg._expand_cached.__wrapped__)
    )
    for trace in (False, True):
        for run in (expand, pushforward_diagram):
            with pytest.raises(DepthExceeded, match="does not bottom out"):
                run(CONE_POINT, trace=trace)
