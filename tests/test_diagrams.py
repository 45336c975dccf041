"""Quadric diagrams: structure, admissibility conditions, text grammar."""

import hashlib
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from srk import (
    Bracket,
    Quadric,
    QuadricDiagram,
    check_conditions,
    diagram_dimension,
    digits,
    enumerate_diagrams,
    parse_diagram,
    print_diagram,
)
from srk.errors import (
    DiagramSyntaxError,
    InconsistentDigits,
    InvalidDiagram,
    MarkerMisplaced,
    OutOfBounds,
)


def D(m, brackets=(), quadrics=()):
    return QuadricDiagram(
        m,
        tuple(Bracket(*b) if isinstance(b, tuple) else Bracket(b) for b in brackets),
        tuple(Quadric(*q) for q in quadrics),
    )


@pytest.mark.parametrize(
    "m,brackets,quadrics",
    [
        (6, [2, 2], []),                    # duplicate bracket
        (6, [(2, True)], []),               # prime away from m/2
        (6, [], [(4, 5)]),                  # corank above dimension
        (6, [], [(5, 1), (5, 0)]),          # braces collide / d not decreasing
        (6, [], [(6, 1), (5, 0)]),          # coranks decreasing
        (6, [5], [(4, 0)]),                 # bracket right of smallest brace
        (7, [3], [(5, 0)]),                 # bracket cannot lie on Q_5^0
        (6, [], []),                        # nothing at all
    ],
)
def test_structural_rejections(m, brackets, quadrics):
    with pytest.raises(InvalidDiagram):
        D(m, brackets, quadrics)


@pytest.mark.parametrize(
    "m,brackets,quadrics",
    [
        (6, 5, ()),                         # parts are sequences
        (6, [], None),
        (6, [2], ()),                       # a part is a pair
        (6, [(1, False, 2)], ()),
        (6, [], [(5,)]),
        (6, [(3, "x")], ()),                # the prime is a bool
        (6, [(3, 1)], ()),
        (6, [(2.0, False)], ()),            # dims, d and r are ints
        (6, [(True, False)], [(5, 0)]),
        (8, [], [Quadric(7.5, 0)]),
        (8, [], [(7, 0.0)]),
    ],
)
def test_mistyped_parts_are_invalid(m, brackets, quadrics):
    with pytest.raises(InvalidDiagram):
        QuadricDiagram(m, brackets, quadrics)


@pytest.mark.parametrize("m", [6.0, "6", True])
def test_ambient_that_is_not_an_int_is_out_of_bounds(m):
    with pytest.raises(OutOfBounds):
        D(m, [1], [(5, 0)])


def test_check_conditions_examples():
    assert check_conditions(D(6, [2], [(5, 0)])).ok
    rep_a1 = check_conditions(D(6, [2], [(4, 2)]))
    assert rep_a1.failed() == ["A1"]
    rep_a2 = check_conditions(D(6, [2], [(5, 1)]))
    assert rep_a2.failed() == ["A2"]
    assert rep_a2.x == (0,)


# sha256 of (print_diagram, conditions, x, warnings) of check_conditions over
# every structurally valid diagram of k <= 4, m <= 10 with d_j + r_j <= m
CONDITION_REPORTS_COUNT = 23669
CONDITION_REPORTS_SHA256 = "b0b53745102241fcd3ca6552dfd7b6d46e898d0a6de8527b069a0cebba5a7b76"


def test_condition_reports_are_stable():
    """Every report, its failing verdicts and witness strings included,
    against a pinned digest.

    Regenerate (only when a report change is intended):
    PYTHONPATH=src:tests python -c "import hashlib; from srk import *; from test_diagrams import _unpruned_diagrams; h = hashlib.sha256(); reps = [(d, check_conditions(d)) for k in range(1, 5) for m in range(1, 11) for d in _unpruned_diagrams(k, m, admissible_only=False)]; [h.update(f'{print_diagram(d)} {r.conditions} {r.x} {r.warnings}\\n'.encode()) for d, r in reps]; print(len(reps), h.hexdigest())"
    """
    h = hashlib.sha256()
    count = 0
    for k in range(1, 5):
        for m in range(1, 11):
            for d in _unpruned_diagrams(k, m, admissible_only=False):
                rep = check_conditions(d)
                h.update(f"{print_diagram(d)} {rep.conditions} {rep.x} {rep.warnings}\n".encode())
                count += 1
    assert count == CONDITION_REPORTS_COUNT
    assert h.hexdigest() == CONDITION_REPORTS_SHA256


def test_condition3_tail_clause():
    # equal coranks above r_1 force a unit step between their braces
    bad = D(9, [], [(7, 1), (5, 2), (3, 2)])
    assert "3" in check_conditions(bad).failed()
    good = D(9, [], [(7, 1), (5, 2), (4, 2)])
    assert "3" not in check_conditions(good).failed()


def test_condition3_witness_is_the_least_pair_i_first():
    # read corank by corank, r_4 - r_2 < 1 fails before r_5 - r_1 < 3
    rep = check_conditions(D(20, [], [(15, 1), (13, 3), (12, 3), (11, 3), (10, 3)]))
    assert rep.conditions["3"] == (False, "r_5 - r_1 < 3")
    # d_2 - d_3 != 1 fails before r_4 - r_1 < 2, which is reported instead
    rep = check_conditions(D(12, [], [(9, 0), (7, 1), (5, 1), (4, 1)]))
    assert rep.conditions["3"] == (False, "r_4 - r_1 < 2")


def test_condition3_first_clause_warns_when_deciding():
    # all coranks equal a bracket dimension, but the gap rule fails
    rep = check_conditions(D(9, [1], [(7, 1), (6, 1), (5, 1)]))
    assert rep.conditions["3"][0]
    assert "COND3-FIRST-CLAUSE" in rep.warnings
    # the enumerator's (3) pruning keeps a chain the first clause alone saves
    only_first = parse_diagram("1]000}0}00}0")
    assert only_first in enumerate_diagrams(4, 8)
    rep = check_conditions(only_first)
    assert rep.ok and "COND3-FIRST-CLAUSE" in rep.warnings


def test_digits_examples():
    assert digits(D(6, [1], [(5, 1)])) == [1, 0, 0, 0, 0, 0]
    assert digits(D(6, [2], [(5, 0)])) == [0, 0, 0, 0, 0, 0]
    assert digits(D(13, [], [(6, 1), (5, 2)])) == [1, 2] + [0] * 11


def test_parse_examples():
    assert parse_diagram("00]000}0") == D(6, [2], [(5, 0)])
    assert parse_diagram("1]00]00}00") == D(7, [1, 3], [(5, 1)])
    assert parse_diagram("00]0]'000") == D(6, [2, (3, True)], [])


def test_parse_verbose_and_canonical_forms():
    d = D(6, [2], [(5, 0)])
    assert print_diagram(d) == "00]000}0"
    verbose = print_diagram(d, form="verbose")
    assert verbose == "m=6 k=2 a=2 q=5:0"
    assert parse_diagram(verbose) == d
    bare = D(6, [2, (3, True)], [])
    assert print_diagram(bare, form="verbose") == "m=6 k=2 a=2,3' q=-"
    assert parse_diagram("m=6 k=2 a=2,3' q=-") == bare
    assert parse_diagram("m=6 k=2 a=- q=6:0,5:1") == D(6, [], [(6, 0), (5, 1)])


def test_canonical_form_is_compact_up_to_nine_quadrics():
    # digits 1..q at positions 1..q, so digit 10 needs the verbose form
    nine = D(20, [], [(20 - j, j) for j in range(1, 10)])
    ten = D(20, [], [(20 - j, j) for j in range(1, 11)])
    assert print_diagram(nine) == print_diagram(nine, form="compact")
    assert print_diagram(nine).startswith("123456789")
    assert parse_diagram(print_diagram(nine)) == nine
    assert print_diagram(ten) == print_diagram(ten, form="verbose")
    with pytest.raises(ValueError, match="verbose"):
        print_diagram(ten, form="compact")


@pytest.mark.parametrize(
    "text,err",
    [
        ("]000", DiagramSyntaxError),
        ("00x0", DiagramSyntaxError),
        ("0]1}", InconsistentDigits),   # nonzero digit after a zero
        ("1]00", InconsistentDigits),   # digit exceeds the brace count
        ("21]000}0}", InconsistentDigits),
        ("0]'000", MarkerMisplaced),
        ("m=6 k=3 a=2 q=5:0", DiagramSyntaxError),  # declared k mismatch
        ("m=8 k=1 a=3' q=-", MarkerMisplaced),
        ("m=6 k=2 a=2 q", DiagramSyntaxError),  # a token without "="
        ("m=6 k=2 a=2", DiagramSyntaxError),  # missing field q=
        ("m=x k=2 a=2 q=5:0", DiagramSyntaxError),  # m is not an int
        ("m=6 k=2 a=x q=5:0", DiagramSyntaxError),  # bad bracket
        ("m=6 k=2 a=2 q=5", DiagramSyntaxError),  # bad quadric
        ("}000", DiagramSyntaxError),  # brace before any digit
        (" \t\n", DiagramSyntaxError),  # whitespace only
    ],
)
def test_parse_rejects(text, err):
    with pytest.raises(err):
        parse_diagram(text)


def test_syntax_error_carries_position():
    with pytest.raises(DiagramSyntaxError) as exc:
        parse_diagram("00!0")
    assert exc.value.position == 2


def _unpruned_diagrams(k, m, admissible_only=True):
    """Reference enumeration without pruning: every bracket set and every
    quadric chain is constructed, constructor rejections are skipped, and
    admissibility is decided by the full check alone."""
    half = m // 2
    for s in range(0, k + 1):
        q = k - s
        for dims in combinations(range(1, half + 1), s):
            variants = [tuple(Bracket(v) for v in dims)]
            if dims and 2 * dims[-1] == m:
                variants.append(
                    tuple(Bracket(v) for v in dims[:-1]) + (Bracket(dims[-1], True),)
                )
            min_d = dims[-1] if dims else 1
            for brackets in variants:
                for quadrics in _unpruned_chains(q, m, min_d):
                    try:
                        d = QuadricDiagram(m, brackets, quadrics)
                    except InvalidDiagram:
                        continue
                    if admissible_only and not check_conditions(d).ok:
                        continue
                    yield d


def _unpruned_chains(q, m, min_d):
    """Every (d, r) chain: d strictly decreasing >= min_d, r nondecreasing,
    r_j <= d_j and d_j + r_j <= m."""
    if q == 0:
        yield ()
        return
    for dset in combinations(range(min_d, m + 1), q):
        ds = tuple(reversed(dset))

        def fill(j, prev_r, acc):
            if j == q:
                yield tuple(acc)
                return
            for r in range(prev_r, min(ds[j], m - ds[j]) + 1):
                acc.append(r)
                yield from fill(j + 1, r, acc)
                acc.pop()

        for rs in fill(0, 0, []):
            yield tuple(Quadric(d, r) for d, r in zip(ds, rs))


_POOL = [
    d
    for k in range(1, 4)
    for m in range(2 * k, 10)
    for d in _unpruned_diagrams(k, m, admissible_only=False)
]


def test_pool_is_reasonably_large():
    assert len(_POOL) > 400


@given(st.sampled_from(_POOL))
def test_print_parse_roundtrip(d):
    assert parse_diagram(print_diagram(d)) == d
    assert parse_diagram(print_diagram(d, form="verbose")) == d
    plain = QuadricDiagram(d.m, tuple(map(tuple, d.brackets)), tuple(map(tuple, d.quadrics)))
    assert plain == d and hash(plain) == hash(d) and repr(plain) == repr(d)


@given(st.sampled_from(_POOL))
def test_digit_blocks_are_contiguous(d):
    digs = digits(d)
    for j, q in enumerate(d.quadrics, start=1):
        prev = d.quadrics[j - 2].r if j >= 2 else 0
        assert [pos for pos in range(1, d.m + 1) if digs[pos - 1] == j] == list(
            range(prev + 1, q.r + 1)
        )


def test_enumeration_is_deterministic_and_admissible():
    first = list(enumerate_diagrams(2, 7))
    second = list(enumerate_diagrams(2, 7))
    assert first == second
    assert all(check_conditions(d).ok for d in first)


def _assert_shape(d):
    """The shape stored at construction equals the shape of the parts."""
    assert d.bracket_dims == tuple(b.dim for b in d.brackets)
    assert d.ds == tuple(q.d for q in d.quadrics)
    assert d.rs == tuple(q.r for q in d.quadrics)
    assert d.sums == tuple(q.d + q.r for q in d.quadrics)
    assert (d.s, d.q, d.k) == (
        len(d.brackets), len(d.quadrics), len(d.brackets) + len(d.quadrics)
    )


def test_pruned_enumeration_matches_unpruned_reference():
    """Same diagrams in the same order as the reference.  The enumerator runs
    no check of its own, so every diagram it yields must pass the full check;
    and every diagram's stored shape matches its parts."""
    spaces = [(k, m) for k in range(1, 4) for m in range(1, 13)]
    # k = 4 brings chains of four quadrics; (4, 11) is where witness_sweep samples a query
    for k, m in spaces + [(4, 9), (4, 10), (4, 11)]:
        got = list(enumerate_diagrams(k, m))
        assert got == list(_unpruned_diagrams(k, m)), (k, m)
        for d in got:
            _assert_shape(d)
            assert check_conditions(d).ok, print_diagram(d)


def test_enumeration_of_one_dimension_is_the_filtered_enumeration():
    """Same diagrams in the same order as the whole enumeration filtered by
    ``diagram_dimension``; a dimension with no diagrams, one below the least
    and one above the greatest included, yields nothing."""
    count = 0
    for k in range(1, 5):
        for m in range(1, 12):
            full = list(enumerate_diagrams(k, m))
            dimensions = [diagram_dimension(d) for d in full]
            for dim in range(-1, max(dimensions, default=-1) + 2):
                got = list(enumerate_diagrams(k, m, dim))
                assert got == [d for d, e in zip(full, dimensions) if e == dim], (k, m, dim)
                count += len(got)
    assert count == 3784


def test_one_dimension_of_the_readme_example():
    # the README tour: 5 of OG(2,6)'s 24 admissible diagrams share the
    # dimension of 00]000}0
    assert diagram_dimension(parse_diagram("00]000}0")) == 2
    assert len(list(enumerate_diagrams(2, 6))) == 24
    assert len(list(enumerate_diagrams(2, 6, 2))) == 5


@pytest.mark.parametrize("k,m", [(0, 5), (3, 0), (-1, 4), (2, 6.0), (2.0, 6), (True, 6)])
def test_enumeration_of_an_empty_range_raises(k, m):
    with pytest.raises(OutOfBounds):
        list(enumerate_diagrams(k, m))


@pytest.mark.parametrize("dim", ["a", 2.0, True])
def test_enumeration_of_a_dimension_not_an_int_raises(dim):
    with pytest.raises(OutOfBounds):
        list(enumerate_diagrams(2, 6, dim))
