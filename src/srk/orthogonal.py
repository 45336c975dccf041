"""Schubert indices for the orthogonal Grassmannian OG(k,n).

An index is a pair of increasing sequences (a_1 < ... < a_s ; b_1 < ... <
b_{k-s}) with a_i <= n/2, b_j <= n/2 - 1 and a_i != b_j + 1 for all pairs.
The a-parts ask for incidence with isotropic subspaces F_{a_i}, the b-parts
for incidence with orthogonal complements F_{b_j}^perp.  When n is even and
a_s = n/2, a prime marker picks the second family of maximal isotropic
subspaces.

The fundamental class needs s = 0 (every condition vacuous), so s = 0 is
admitted here even though the classical definition starts at s = 1; the
Weyl-group enumeration counts only come out right with it.

The Schubert diagram of a valid index is admissible by construction (see
``og_to_diagram``), so nothing here checks admissibility; the degeneration
engine checks every diagram it is given.
"""

from __future__ import annotations

from bisect import bisect_right

from .diagrams import Bracket, Quadric, QuadricDiagram, _dimension_offset
from .errors import (
    BadArity,
    BadPrime,
    Bounds,
    NoIsotropicRoom,
    NotSchubertDiagram,
    NotStrictlyIncreasing,
    SplitsIntoTwo,
)
from .values import Frozen


class OgIndex(Frozen):
    """A Schubert index for OG(k,n); immutable and validated on construction.

    When a_i = b_j + 1 the locus is a union of two Schubert varieties; the
    raised ``SplitsIntoTwo`` carries both replacement indices as a diagnostic.
    ``s`` and ``sort_key`` are stored at construction.
    """

    __slots__ = ("k", "n", "a", "b", "prime", "s", "sort_key")
    _fields = ("k", "n", "a", "b", "prime")

    def __init__(self, k, n, a, b, prime=False):
        try:
            a, b = tuple(a), tuple(b)
        except TypeError:
            raise Bounds(f"a and b must be sequences of parts, got a={a!r}, b={b!r}") from None
        if type(k) is not int or type(n) is not int:
            raise Bounds(f"k and n must be ints, got k={k!r}, n={n!r}")
        if k < 1:
            raise Bounds(f"need k >= 1, got {k}")
        if n < 2 * k:
            raise NoIsotropicRoom(f"OG({k},{n}): need n >= 2k")
        if len(a) + len(b) != k:
            raise BadArity(f"got {len(a)} + {len(b)} parts for k = {k}")
        # Every index the enumerator and the classifiers build comes
        # through here, so the checks are plain loops, in a fixed order.
        for v in a + b:
            if not isinstance(v, int) or isinstance(v, bool):
                raise Bounds(f"parts must be integers: a={a}, b={b}")
        for i in range(1, len(a)):
            if a[i - 1] >= a[i]:
                raise NotStrictlyIncreasing(f"a must strictly increase: {a}")
        for j in range(1, len(b)):
            if b[j - 1] >= b[j]:
                raise NotStrictlyIncreasing(f"b must strictly increase: {b}")
        if a and (a[0] < 1 or 2 * a[-1] > n):
            raise Bounds(f"need 1 <= a_i <= n/2: {a}")
        if b and (b[0] < 0 or 2 * b[-1] > n - 2):
            raise Bounds(f"need 0 <= b_j <= n/2 - 1: {b}")
        if type(prime) is not bool:
            raise BadPrime(f"prime marker must be a bool, got {prime!r}")
        if prime and not (n % 2 == 0 and a and 2 * a[-1] == n):
            raise BadPrime(f"prime marker needs n even and a_s = n/2: a={a}, n={n}")
        for i, av in enumerate(a, start=1):
            for j, bv in enumerate(b, start=1):
                if av == bv + 1:
                    split = (
                        (a[: i - 1] + (av - 1,) + a[i:], b),
                        (a, b[: j - 1] + (bv + 1,) + b[j:]),
                    )
                    raise SplitsIntoTwo(i, j, split)
        s = len(a)
        key = (k, n, a, b, prime)
        self._store(key, hash(key), k, n, a, b, prime, s, (s, a, int(prime), b))

    def __str__(self):
        parts = [f"{v}'" if self.prime and i == self.s else str(v)
                 for i, v in enumerate(self.a, start=1)]
        sub = ",".join(parts)
        sup = ",".join(str(v) for v in self.b)
        out = "σ"
        if sub:
            out += f"_{sub}" if len(self.a) == 1 and not self.prime else f"_{{{sub}}}"
        if sup:
            out += f"^{sup}" if len(self.b) == 1 else f"^{{{sup}}}"
        return out


# construction validates, so the validator is the constructor itself
validate_og = OgIndex


def og_essential(x: OgIndex) -> tuple:
    """(essential a-positions, essential b-positions), both 1-based sets.

    a_i (i < s) is essential iff a_{i+1} != a_i + 1; a_s is essential except
    in the single degenerate case n = 2k, a_s = b_{k-s} + 2 = k.  b_j is
    essential iff b_{j-1} != b_j - 1 with the sentinel b_0 = -1, which makes
    the vacuous condition b_1 = 0 non-essential.
    """
    s = x.s
    ess_a = set()
    for i in range(1, s):
        if x.a[i] != x.a[i - 1] + 1:
            ess_a.add(i)
    if s:
        degenerate = (
            x.n == 2 * x.k
            and x.b
            and x.a[-1] == x.b[-1] + 2
            and x.a[-1] == x.k
        )
        if not degenerate:
            ess_a.add(s)
    ess_b = set()
    for j in range(1, len(x.b) + 1):
        prev = x.b[j - 2] if j >= 2 else -1
        if prev != x.b[j - 1] - 1:
            ess_b.add(j)
    return ess_a, ess_b


def needs_rewrite(x: OgIndex) -> bool:
    """True when n is even and b_{k-s} = n/2 - 1, i.e. the largest b-condition
    names a single maximal isotropic space of the second family."""
    return x.n % 2 == 0 and bool(x.b) and x.b[-1] == x.n // 2 - 1


def canonical_index(x: OgIndex) -> OgIndex:
    """Rewrite the even-n boundary condition b_{k-s} = n/2 - 1 as a primed
    bracket a_{s+1} = n/2; identity on everything else."""
    if not needs_rewrite(x):
        return x
    # a_i != b_j + 1 already guarantees no existing a_s = n/2
    return OgIndex(x.k, x.n, x.a + (x.n // 2,), x.b[:-1], prime=True)


def og_to_diagram(x: OgIndex) -> QuadricDiagram:
    """The Schubert diagram: brackets at the a-parts and quadrics
    (n - b_j, b_j) for the b-parts.

    The even-n boundary case b_{k-s} = n/2 - 1 has no admissible quadric form
    (it would need d - r = 2) and is first rewritten to its primed-bracket
    synonym.  The diagram of a valid index is then admissible, so it is not
    checked here:

      (A3)  for each j, the values a_i > b_j, b_j + 1 and b_{j'} + 1
            (j' > j) are distinct points of [b_j + 1, floor(n/2)], given
            a_i != b_{j'} + 1;
      (A1)  holds once the even-n rewrite has been applied;
      (A2)  holds by a_i != b_j + 1;
      (3)   holds because b strictly increases.

    The tests assert ``check_conditions`` on the diagram of every index of
    k <= 6, n <= 14.
    """
    x = canonical_index(x)
    brackets = tuple(
        Bracket(v, x.prime and i == x.s) for i, v in enumerate(x.a, start=1)
    )
    quadrics = tuple(Quadric(x.n - v, v) for v in x.b)
    return QuadricDiagram(x.n, brackets, quadrics)


def diagram_to_og(D: QuadricDiagram) -> OgIndex:
    """Inverse of ``og_to_diagram`` on its image: requires d_j + r_j = m."""
    for j, qq in enumerate(D.quadrics, start=1):
        if qq.d + qq.r != D.m:
            raise NotSchubertDiagram(
                f"quadric {j} has d + r = {qq.d + qq.r} != {D.m}"
            )
    prime = any(b.prime for b in D.brackets)
    x = OgIndex(D.k, D.m, D.bracket_dims, D.rs, prime)
    if needs_rewrite(x):
        # not in the image: the boundary condition b = m/2 - 1 is always
        # rendered as a primed bracket, never as a quadric
        raise NotSchubertDiagram(
            f"quadric with corank {x.b[-1]} = m/2 - 1 must appear as a primed bracket"
        )
    return x


def og_dimension(x: OgIndex) -> int:
    """Dimension of the Schubert variety of ``x``: the closed form of
    ``diagrams._dimension_offset`` on its Schubert diagram, with n_i = a_i,
    d_j = n - b_j and x_j = #{i : a_i <= b_j}, read off the index without
    building the diagram.

    The prime marker does not change the dimension, and the even-n boundary
    form b_{k-s} = n/2 - 1 gives the same value as its primed rewrite.  The
    fundamental class (s = 0, b = 0..k-1) has dimension k(2n - 3k - 1)/2.
    """
    a, n = x.a, x.n
    return _dimension_offset(a, len(x.b)) + sum([n - bv + bisect_right(a, bv) for bv in x.b])


def og_merge_prime(x: OgIndex) -> OgIndex:
    """The unprimed twin of a primed index; identity when unprimed."""
    return OgIndex(x.k, x.n, x.a, x.b) if x.prime else x
