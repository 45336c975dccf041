"""OG Schubert indices: validation, essential positions, diagram conversion."""

from collections import Counter
from math import comb

import pytest

from srk import (
    Bracket,
    OgIndex,
    Quadric,
    QuadricDiagram,
    canonical_index,
    classify_og,
    diagram_to_og,
    enumerate_og,
    og_dimension,
    og_essential,
    og_to_diagram,
    validate_og,
)
from srk.errors import (
    BadArity,
    BadPrime,
    Bounds,
    NoIsotropicRoom,
    NotSchubertDiagram,
    NotStrictlyIncreasing,
    SplitsIntoTwo,
)


def test_validate_accepts_basic_index():
    x = validate_og(2, 6, [1], [1])
    assert (x.k, x.n, x.a, x.b, x.prime) == (2, 6, (1,), (1,), False)


def test_validate_splits_into_two_with_diagnostic():
    with pytest.raises(SplitsIntoTwo) as exc:
        validate_og(2, 7, [2], [1])
    assert (exc.value.i, exc.value.j) == (1, 1)
    assert exc.value.split_pair == (((1,), (1,)), ((2,), (2,)))


@pytest.mark.parametrize(
    "kwargs,err",
    [
        (dict(k=2, n=6, a=[2], b=[1], prime=True), BadPrime),  # a_s != n/2
        (dict(k=2, n=7, a=[3], b=[1], prime=True), BadPrime),  # odd n
        (dict(k=3, n=5, a=[1], b=[0, 2]), NoIsotropicRoom),
        (dict(k=2, n=6, a=[4], b=[0]), Bounds),
        (dict(k=2, n=6, a=[1], b=[3]), Bounds),
        (dict(k=2, n=6, a=[2, 1], b=[]), NotStrictlyIncreasing),
        (dict(k=3, n=8, a=[1], b=[3]), BadArity),
        (dict(k=0, n=0, a=[], b=[]), Bounds),
        (dict(k=0, n=4, a=[], b=[]), Bounds),
        (dict(k=2, n=8, a=[True, 3], b=[]), Bounds),  # bool is not a part
        (dict(k=2, n=8, a=[3], b=[False]), Bounds),
        (dict(k=2, n=8, a=[2, 4], b=[], prime="yes"), BadPrime),  # not a bool
        (dict(k=2, n=8, a=[2, 4], b=[], prime=1), BadPrime),
        (dict(k=2.0, n=8, a=[1], b=[1]), Bounds),  # k and n are plain ints
        (dict(k=2, n=8.5, a=[1], b=[1]), Bounds),
        (dict(k=True, n=8, a=[1], b=[]), Bounds),
        (dict(k="two", n=8, a=[1], b=[1]), Bounds),
        (dict(k=2, n=8, a=5, b=[1]), Bounds),  # parts are sequences
        (dict(k=2, n=8, a=[1], b=None), Bounds),
        (dict(k=2, n=8, a=[2, 2], b=[]), NotStrictlyIncreasing),  # equal parts
        (dict(k=2, n=8, a=[], b=[1, 1]), NotStrictlyIncreasing),
    ],
)
def test_validate_rejects(kwargs, err):
    with pytest.raises(err):
        validate_og(**kwargs)


@pytest.mark.parametrize("k,n", [(True, 4), (2.0, 8), (2, 8.0), ("two", 8)])
def test_enumeration_rejects_a_size_that_is_not_an_int(k, n):
    with pytest.raises(Bounds):
        list(enumerate_og(k, n))


def test_essential_examples():
    assert og_essential(validate_og(2, 6, [1], [1])) == ({1}, {1})
    ess_a, _ = og_essential(validate_og(3, 6, [1, 3], [1]))
    assert 2 not in ess_a and ess_a == {1}  # degenerate n = 2k case
    _, ess_b = og_essential(validate_og(3, 9, [], [0, 1, 3]))
    assert ess_b == {3}
    # in OG(3,8), b_3 = 3 = n/2 - 1 is stored as its twin: σ^{0,1,3} is σ_{4'}^{0,1}
    x = validate_og(3, 8, [], [0, 1, 3])
    assert x == validate_og(3, 8, [4], [0, 1], prime=True)
    assert og_essential(x) == ({1}, set())


def test_og_to_diagram_examples():
    D = og_to_diagram(validate_og(2, 6, [1], [1]))
    assert D == QuadricDiagram(6, (Bracket(1),), (Quadric(5, 1),))
    D2 = og_to_diagram(validate_og(3, 7, [1, 2], [2]))
    assert D2 == QuadricDiagram(7, (Bracket(1), Bracket(2)), (Quadric(5, 2),))


def test_og_to_diagram_rewrites_even_boundary():
    x = validate_og(2, 8, [2], [3])  # b = n/2 - 1 names the second family
    D = og_to_diagram(x)
    assert D == QuadricDiagram(8, (Bracket(2), Bracket(4, True)), ())
    assert canonical_index(x) == validate_og(2, 8, [2, 4], [], prime=True)


def test_even_boundary_spelling_is_its_primed_twin():
    # one class, one index: b_{k-s} = n/2 - 1 builds the primed index, which
    # hashes alike and gets the same rigidity report
    primed = [
        x for k in range(1, 7) for n in range(2 * k, 15, 2) for x in enumerate_og(k, n) if x.prime
    ]
    assert len(primed) == 1029
    for x in primed:
        y = OgIndex(x.k, x.n, x.a[:-1], x.b + (x.n // 2 - 1,))
        assert y == x and hash(y) == hash(x)
        assert classify_og(y) == classify_og(x)


def test_diagram_to_og_examples():
    assert diagram_to_og(
        QuadricDiagram(6, (Bracket(1),), (Quadric(5, 1),))
    ) == validate_og(2, 6, [1], [1])
    assert diagram_to_og(
        QuadricDiagram(6, (Bracket(2), Bracket(3, True)), ())
    ) == validate_og(2, 6, [2, 3], [], prime=True)
    with pytest.raises(NotSchubertDiagram):
        diagram_to_og(QuadricDiagram(6, (Bracket(2),), (Quadric(5, 0),)))


def test_diagram_roundtrip_exhaustive():
    for k in range(1, 4):
        for n in range(2 * k, 11):
            for x in enumerate_og(k, n):
                assert diagram_to_og(og_to_diagram(x)) == x


def test_dimension_examples():
    assert og_dimension(validate_og(2, 6, [1], [1])) == 2
    assert og_dimension(validate_og(2, 6, [], [0, 1])) == 5
    assert og_dimension(validate_og(3, 7, [1, 2], [2])) == 1


def test_fundamental_dimension_formula():
    for k in range(1, 4):
        for n in range(2 * k + 1, 10):
            fund = validate_og(k, n, [], range(k))
            assert og_dimension(fund) == k * (n - k) - k * (k + 1) // 2


def test_enumeration_and_dimension_invariants_to_k6():
    """Engine-free checks for every k <= 6, n <= 14: the cell count is the
    Weyl-group quotient order 2^k C(floor(n/2), k), dimensions fill
    0..dim OG(k,n) with the fundamental class on top, and the number of
    classes of each dimension obeys Poincare duality."""
    for k in range(1, 7):
        for n in range(2 * k, 15):
            xs = list(enumerate_og(k, n))
            assert len(xs) == 2**k * comb(n // 2, k), (k, n)
            top = k * (2 * n - 3 * k - 1) // 2
            dims = Counter(og_dimension(x) for x in xs)
            assert min(dims) == 0 and max(dims) == top, (k, n)
            assert og_dimension(validate_og(k, n, [], range(k))) == top
            assert all(dims[d] == dims[top - d] for d in dims), (k, n)


def test_enumeration_counts_and_order():
    twelve_b3 = 48 // 4  # |W(B_3)| / |W(A_1) x W(B_1)| = (2^3 3!) / (2 * 2)
    twelve_d3 = 24 // 2  # |W(D_3)| / |W_P|     = (2^2 3!) / 2
    assert len(list(enumerate_og(2, 7))) == twelve_b3
    assert len(list(enumerate_og(2, 6))) == twelve_d3
    for k, n in [(2, 6), (2, 7), (3, 8)]:
        keys = [x.sort_key for x in enumerate_og(k, n)]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)


def test_enumeration_skips_even_boundary_synonyms():
    for x in enumerate_og(2, 6):
        assert not (x.b and x.b[-1] == 2)
