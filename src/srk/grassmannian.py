"""Schubert indices for the ordinary Grassmannian G(k,n).

An index ``a_1 < ... < a_k <= n`` names the Schubert variety of k-planes
meeting a fixed flag element F_{a_i} in dimension at least i.  This module
classifies which positions of an index pin a unique flag element across every
representative of the class, and computes the minimal enveloping index.

All values are immutable and all functions are pure.
"""

from __future__ import annotations

from .errors import BadArity, NotStrictlyIncreasing, OutOfBounds, PositionOutOfRange
from .values import Frozen


class Verdict(Frozen):
    """Outcome of a single-position rigidity test: ``kind`` is "rigid",
    "not_rigid", "not_essential" or "disputed".  The token, ``is_rigid`` and
    ``is_essential`` are stored at construction."""

    _fields = ("kind", "clause", "note")

    def __init__(self, kind: str, clause: str | None = None, note: str | None = None):
        key = (kind, clause, note)
        self.__dict__.update({
            "_key": key, "_hash": hash(key),
            "kind": kind, "clause": clause, "note": note,
            "is_rigid": kind == "rigid", "is_essential": kind != "not_essential",
            "_token": f"{kind}:{clause}" if clause else kind,
        })

    def token(self) -> str:
        """Compact machine-readable form, e.g. ``not_rigid:MT-1``."""
        return self._token

    def __str__(self):
        return self._token


NOT_ESSENTIAL = Verdict("not_essential")


class GrIndex(Frozen):
    """A Schubert index for G(k,n): k strictly increasing parts bounded by n.
    ``sort_key`` is stored at construction."""

    _fields = ("k", "n", "a")

    def __init__(self, k, n, a):
        try:
            a = tuple(a)
        except TypeError:
            raise OutOfBounds(f"a must be a sequence of parts, got {a!r}") from None
        if type(k) is not int or type(n) is not int:
            raise OutOfBounds(f"k and n must be ints, got k={k!r}, n={n!r}")
        if not (1 <= k <= n):
            raise OutOfBounds(f"need 1 <= k <= n, got k={k}, n={n}")
        if len(a) != k:
            raise BadArity(f"expected {k} parts, got {len(a)}")
        if any(not isinstance(v, int) or isinstance(v, bool) for v in a):
            raise OutOfBounds(f"parts must be integers: {a}")
        if any(x >= y for x, y in zip(a, a[1:])):
            raise NotStrictlyIncreasing(f"parts must strictly increase: {a}")
        if a[0] < 1 or a[-1] > n:
            raise OutOfBounds(f"parts must lie in 1..{n}: {a}")
        key = (k, n, a)
        self.__dict__.update({
            "_key": key, "_hash": hash(key), "k": k, "n": n, "a": a, "sort_key": a,
        })

    def __str__(self):
        body = ",".join(str(v) for v in self.a)
        return f"σ_{body}" if self.k == 1 else f"σ_{{{body}}}"


# construction validates, so the validator is the constructor itself
validate_gr = GrIndex


def gr_dimension(x: GrIndex) -> int:
    """Dimension of the Schubert variety: sum of (a_i - i)."""
    return sum(v - i for i, v in enumerate(x.a, start=1))


def partition_of(x: GrIndex) -> tuple:
    """The nonincreasing partition with lambda_i = n - k + i - a_i."""
    return tuple(x.n - x.k + i - v for i, v in enumerate(x.a, start=1))


def transpose_partition(lam, width: int) -> tuple:
    """Conjugate partition, padded/truncated to ``width`` rows."""
    return tuple(sum(1 for v in lam if v >= j) for j in range(1, width + 1))


def gr_dual(x: GrIndex) -> GrIndex:
    """Index of the same class seen in G(n-k, n) under V = V*.

    Computed by transposing the associated partition; an involution that
    preserves codimension.  Defined for k < n: the dual of the full
    Grassmannian G(n,n) would live in G(0,n), outside this index model.
    """
    if x.k == x.n:
        raise OutOfBounds(f"G({x.k},{x.n}) is a point; its dual index has no parts")
    lam_t = transpose_partition(partition_of(x), x.n - x.k)
    kd = x.n - x.k
    return GrIndex(kd, x.n, tuple(x.k + j - lam_t[j - 1] for j in range(1, kd + 1)))


def gr_essential(x: GrIndex) -> set:
    """1-based positions whose incidence condition is not forced by a neighbor.

    Position i < k is essential iff a_i != a_{i+1} - 1; position k is
    essential iff a_k < n (a_k = n imposes nothing).
    """
    out = set()
    for i in range(1, x.k):
        if x.a[i - 1] != x.a[i] - 1:
            out.add(i)
    if x.a[-1] < x.n:
        out.add(x.k)
    return out


def check_position(name: str, i, limit: int) -> None:
    """Raise PositionOutOfRange unless i is an int, not a bool, in 1..limit;
    ``name`` labels the position in the message."""
    if not isinstance(i, int) or isinstance(i, bool):
        raise PositionOutOfRange(f"position index must be an int, got {i!r}")
    if not (1 <= i <= limit):
        raise PositionOutOfRange(f"{name} {i} not in 1..{limit}")


def gr_rigid_index(x: GrIndex, i: int) -> Verdict:
    """Whether essential position i pins a unique flag element.

    Rigid iff one of: i = k; a_i = i; a_i <= a_{i+1} - 3; a_i = a_{i-1} + 1
    (with the sentinel a_0 = 0).  The converse holds, so anything else is
    genuinely deformable.
    """
    check_position("position", i, x.k)
    if i not in gr_essential(x):
        return NOT_ESSENTIAL
    ai = x.a[i - 1]
    if i == x.k:
        return Verdict("rigid", clause="G-1")
    if ai == i:
        return Verdict("rigid", clause="G-2")
    if ai <= x.a[i] - 3:
        return Verdict("rigid", clause="G-3")
    prev = x.a[i - 2] if i >= 2 else 0
    if ai == prev + 1:
        return Verdict("rigid", clause="G-4")
    return Verdict("not_rigid")


def gr_rigid_class(x: GrIndex) -> bool:
    """True iff every essential position is rigid (so every representative is
    a Schubert variety)."""
    return all(gr_rigid_index(x, i).is_rigid for i in gr_essential(x))


def gr_envelope(x: GrIndex) -> GrIndex:
    """Index of the minimal Schubert variety containing every representative.

    Rigid positions keep their value; the rest are filled from the top down
    with the largest values compatible with strict increase.
    """
    filled = [0] * x.k
    upper = x.n
    for i in range(x.k, 0, -1):
        if gr_rigid_index(x, i).is_rigid:
            filled[i - 1] = x.a[i - 1]
        else:
            filled[i - 1] = upper
        upper = filled[i - 1] - 1
    return GrIndex(x.k, x.n, tuple(filled))
