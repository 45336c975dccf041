"""Ordinary Grassmannian indices: validation, duality, rigidity, envelopes."""

import pytest
from hypothesis import given, strategies as st

from srk import (
    GrIndex,
    enumerate_gr,
    gr_dimension,
    gr_dual,
    gr_envelope,
    gr_essential,
    gr_rigid_class,
    gr_rigid_index,
    validate_gr,
)
from srk.errors import (
    BadArity,
    NotStrictlyIncreasing,
    OutOfBounds,
    PositionOutOfRange,
)


def test_validate_accepts_strictly_increasing():
    x = validate_gr(3, 6, [1, 3, 5])
    assert (x.k, x.n, x.a) == (3, 6, (1, 3, 5))


@pytest.mark.parametrize(
    "k,n,a,err",
    [
        (2, 4, [2, 2], NotStrictlyIncreasing),
        (2, 4, [1, 5], OutOfBounds),
        (2, 4, [0, 3], OutOfBounds),
        (2, 4, [1], BadArity),
        (5, 4, [1, 2, 3, 4, 4], OutOfBounds),
        (2, 5, [True, 2], OutOfBounds),  # bool is not a part
        (2, 5, [1, 2.0], OutOfBounds),
        (2.0, 8, [1, 2], OutOfBounds),  # k and n are plain ints
        (2, 8.0, [1, 2], OutOfBounds),
        (True, 8, [1], OutOfBounds),
        ("two", 8, [1, 2], OutOfBounds),
        (2, 8, None, OutOfBounds),  # parts are a sequence
        (1, 8, 5, OutOfBounds),
    ],
)
def test_validate_rejects(k, n, a, err):
    with pytest.raises(err):
        validate_gr(k, n, a)


@pytest.mark.parametrize("k,n", [(True, 4), (2.0, 8), (2, 8.0), ("two", 8)])
def test_enumeration_rejects_a_size_that_is_not_an_int(k, n):
    with pytest.raises(OutOfBounds):
        list(enumerate_gr(k, n))


def test_dimension_examples():
    assert gr_dimension(validate_gr(3, 6, [1, 3, 5])) == 3
    assert gr_dimension(validate_gr(4, 9, [1, 2, 3, 4])) == 0  # point class
    for k, n in [(2, 5), (3, 7)]:
        top = validate_gr(k, n, range(n - k + 1, n + 1))
        assert gr_dimension(top) == k * (n - k)


def _dual_by_diagram_flip(x):
    """Independent oracle: transpose the Young diagram as a set of cells."""
    lam = [x.n - x.k + i - v for i, v in enumerate(x.a, start=1)]
    cells = {(r, c) for r, width in enumerate(lam, start=1) for c in range(1, width + 1)}
    flipped = {(c, r) for r, c in cells}
    kd = x.n - x.k
    lam_t = [sum(1 for (r, c) in flipped if r == i) for i in range(1, kd + 1)]
    return GrIndex(kd, x.n, tuple(x.k + j - lam_t[j - 1] for j in range(1, kd + 1)))


@pytest.mark.parametrize(
    "k,n,a,expected",
    [
        (3, 6, [1, 3, 5], (1, 3, 5)),  # self-conjugate staircase
        (2, 4, [1, 2], (1, 2)),
        (2, 6, [5, 6], (3, 4, 5, 6)),  # top class maps to the dual top class
    ],
)
def test_dual_examples(k, n, a, expected):
    x = validate_gr(k, n, a)
    d = gr_dual(x)
    assert d.a == tuple(expected)
    assert d == _dual_by_diagram_flip(x)


def test_dual_involution_and_codimension_exhaustive():
    for n in range(2, 10):
        for k in range(1, min(4, n - 1) + 1):
            for x in enumerate_gr(k, n):
                d = gr_dual(x)
                assert gr_dual(d) == x
                codim = k * (n - k) - gr_dimension(x)
                codim_d = d.k * (n - d.k) - gr_dimension(d)
                assert codim == codim_d
                assert d == _dual_by_diagram_flip(x)


def test_dual_rejects_full_grassmannian():
    with pytest.raises(OutOfBounds):
        gr_dual(validate_gr(3, 3, [1, 2, 3]))


@given(st.data())
def test_dual_involution_random(data):
    n = data.draw(st.integers(min_value=2, max_value=14))
    k = data.draw(st.integers(min_value=1, max_value=n - 1))
    a = data.draw(
        st.lists(st.integers(1, n), min_size=k, max_size=k, unique=True).map(sorted)
    )
    x = validate_gr(k, n, a)
    assert gr_dual(gr_dual(x)) == x


def test_essential_examples():
    assert gr_essential(validate_gr(3, 8, [2, 3, 7])) == {2, 3}
    assert gr_essential(validate_gr(3, 6, [1, 3, 5])) == {1, 2, 3}
    assert gr_essential(validate_gr(3, 7, [5, 6, 7])) == set()
    assert gr_essential(validate_gr(1, 1, [1])) == set()


def test_rigid_index_examples():
    x = validate_gr(3, 6, [1, 3, 5])
    assert gr_rigid_index(x, 1).is_rigid
    assert gr_rigid_index(x, 2).kind == "not_rigid"
    assert gr_rigid_index(x, 3).token() == "rigid:G-1"
    assert gr_rigid_index(validate_gr(2, 5, [2, 4]), 1).kind == "not_rigid"
    assert gr_rigid_index(validate_gr(3, 8, [2, 3, 7]), 1).kind == "not_essential"
    for position in (4, 0, True, 1.0, "1"):
        with pytest.raises(PositionOutOfRange):
            gr_rigid_index(x, position)


def test_rigid_class_examples():
    assert gr_rigid_class(validate_gr(2, 4, [1, 4])) is True
    assert gr_rigid_class(validate_gr(2, 4, [2, 4])) is False  # hyperplane class
    assert gr_rigid_class(validate_gr(3, 9, [1, 2, 3])) is True  # point class


def test_envelope_examples():
    assert gr_envelope(validate_gr(3, 6, [1, 3, 5])).a == (1, 4, 5)
    assert gr_envelope(validate_gr(3, 9, [1, 2, 3])).a == (1, 2, 3)
    assert gr_envelope(validate_gr(2, 5, [2, 4])).a == (3, 4)


def test_envelope_properties_exhaustive():
    for n in range(1, 10):
        for k in range(1, min(4, n) + 1):
            for x in enumerate_gr(k, n):
                env = gr_envelope(x)
                assert all(e >= v for e, v in zip(env.a, x.a))
                assert all(
                    gr_rigid_index(env, i).is_rigid for i in gr_essential(env)
                )
                assert gr_envelope(env) == env
                gap = gr_dimension(env) - gr_dimension(x)
                assert gap >= 0
                assert (gap == 0) == gr_rigid_class(x)
