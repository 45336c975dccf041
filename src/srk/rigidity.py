"""Rigidity classification for Schubert classes in OG(k,n).

An essential position is *rigid* when every representative of the class meets
one fixed flag element the way the index prescribes there; the class is rigid
when every representative is a Schubert variety, which happens exactly when
all essential positions are rigid.

The per-position tests are purely arithmetic (clauses MT-1, MT-2 on the
a-side, B-RIGID on the b-side, with exact rational comparison against
(n-1)/2).  The supporting constructions assume n >= 2k + 2; in the small
regimes n = 2k, 2k + 1 two documented index families have explicit
deformations contradicting the arithmetic test, and those come back as
``disputed`` with a warning rather than as a clean verdict.

``find_nonrigid_witness`` searches for hard evidence: a restriction-variety
diagram whose expansion is exactly the class but which omits the flag element
the queried position asserts.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice

from .classsum import ClassSum
from .degeneration import expand
from .diagrams import QuadricDiagram, enumerate_diagrams
from .errors import PositionOutOfRange, SearchBudgetExceeded, ValidationError
from .grassmannian import NOT_ESSENTIAL, Verdict
from .orthogonal import OgIndex, canonical_index, needs_rewrite, og_essential

DEFAULT_SEARCH_BUDGET = 100_000

WARN_SMALL_REGIME = "SMALL-N-REGIME"
WARN_NO_ESSENTIAL_B = "NO-ESSENTIAL-B"


def x_counts(x: OgIndex) -> tuple:
    """x_j = #{i : a_i <= b_j} for each b-position j."""
    return tuple(sum(1 for v in x.a if v <= bv) for bv in x.b)


def z_counts(x: OgIndex) -> tuple:
    """z_i = #{j : a_i <= b_j < a_{i+1}} for each a-position i (a_{s+1} open)."""
    out = []
    for i in range(1, x.s + 1):
        lo = x.a[i - 1]
        hi = x.a[i] if i < x.s else None
        out.append(sum(1 for bv in x.b if bv >= lo and (hi is None or bv < hi)))
    return tuple(out)


def _half(n: int) -> Fraction:
    return Fraction(n - 1, 2)


def _mt1_fires(x: OgIndex, i: int) -> bool:
    """Clause MT-1 (only meaningful for i < s): a_i avoids the b's, the gap
    below is at least 2 (sentinel a_0 = 0), and the gap above is exactly
    2 + #{j : a_i < b_j < a_{i+1}}."""
    if i >= x.s:
        return False
    ai, anext = x.a[i - 1], x.a[i]
    if ai in x.b:
        return False
    prev = x.a[i - 2] if i >= 2 else 0
    if ai - prev < 2:
        return False
    between = sum(1 for bv in x.b if ai < bv < anext)
    return anext - ai == 2 + between


def _disputed_note(x: OgIndex, i: int) -> str | None:
    """Documented small-regime families where an explicit deformation
    contradicts the arithmetic Rigid verdict, plus the conflicting
    consecutive-gap region."""
    k, n, s = x.k, x.n, x.s
    if n == 2 * k + 1 and s == k - 1 and len(x.b) == 1:
        if i == s and x.a == tuple(range(1, k)) and x.b == (k - 1,):
            return (
                "at n = 2k+1 this class has a restriction-variety "
                "representative that fixes no subspace at this position"
            )
        t = x.b[0]
        if (
            1 <= t <= k - 2
            and i == t
            and x.a == tuple(range(1, t + 1)) + tuple(range(t + 2, k + 1))
        ):
            return (
                "at n = 2k+1 this class has a restriction-variety "
                "representative that fixes no subspace at this position"
            )
    if 2 <= i < s and x.a[i - 1] not in x.b and x.a[i - 1] == x.a[i - 2] + 1:
        between = sum(1 for bv in x.b if x.a[i - 1] < bv < x.a[i])
        if x.a[i] - x.a[i - 1] == 2 + between:
            return (
                "the consecutive-gap pattern a_i = a_{i-1}+1, "
                "a_{i+1} = a_i + 2 + z_i is rigid by the arithmetic test "
                "but has a documented deformation"
            )
    return None


def _b_boundary_disputed(x: OgIndex, j: int) -> bool:
    """Whether the B-RIGID verdict at j sits on the contested threshold.

    For odd n, the deformation analysis behind the b-side test puts the
    non-rigid boundary at x_{j'} = k - j' + 1 - (n - 2 b_{j'} - 1)/2, one
    above the threshold in the arithmetic test; when every matching j' >= j
    sits exactly there, the class expansion produces a concrete restriction
    variety deforming the flag element, contradicting the Rigid arithmetic.
    Flagged only for n >= 2k + 2 (below that the small-regime warning
    already covers the index).
    """
    if x.n % 2 == 0 or x.n < 2 * x.k + 2:
        return False
    xs = x_counts(x)
    matches = [jp for jp in range(j, len(x.b) + 1) if x.b[jp - 1] in x.a]
    if not matches:
        return False
    return all(
        Fraction(xs[jp - 1]) == x.k - jp + x.b[jp - 1] - _half(x.n) + 1
        for jp in matches
    )


def og_rigid_a(x: OgIndex, i: int) -> Verdict:
    """Verdict for a-position i.

    Not rigid iff MT-1 or MT-2 fires; clause MT-2 needs a_i = b_j with
    x_j = k - j + b_j - (n-1)/2 exactly (never for even n).  Verdicts that
    fall in a documented small-regime conflict, or on the contested b-side
    threshold the position's rigidity rests on, come back disputed.
    """
    if not (1 <= i <= x.s):
        raise PositionOutOfRange(f"a-position {i} not in 1..{x.s}")
    if i not in og_essential(x)[0]:
        return NOT_ESSENTIAL
    if _mt1_fires(x, i):
        return Verdict("not_rigid", clause="MT-1")
    ai = x.a[i - 1]
    if ai in x.b:
        j = x.b.index(ai) + 1
        if Fraction(x_counts(x)[j - 1]) == x.k - j + ai - _half(x.n):
            return Verdict("not_rigid", clause="MT-2")
        if _b_boundary_disputed(x, j):
            return Verdict(
                "disputed",
                note="rests on a b-side verdict at the contested threshold",
            )
    note = _disputed_note(x, i)
    if note is not None:
        return Verdict("disputed", note=note)
    return Verdict("rigid")


def og_rigid_b(x: OgIndex, j: int) -> Verdict:
    """Verdict for b-position j: rigid iff some j' >= j has b_{j'} among the
    a-parts with x_{j'} strictly above k - j' + b_{j'} - (n-1)/2.

    A Rigid verdict earned only on the contested odd-n threshold (see
    ``_b_boundary_disputed``) is downgraded to disputed.
    """
    if not (1 <= j <= len(x.b)):
        raise PositionOutOfRange(f"b-position {j} not in 1..{len(x.b)}")
    if j not in og_essential(x)[1]:
        return NOT_ESSENTIAL
    xs = x_counts(x)
    for jp in range(j, len(x.b) + 1):
        bjp = x.b[jp - 1]
        if bjp in x.a and Fraction(xs[jp - 1]) > x.k - jp + bjp - _half(x.n):
            if _b_boundary_disputed(x, j):
                return Verdict(
                    "disputed",
                    note="arithmetic test says rigid, but the class expansion "
                    "yields a restriction variety moving this flag element",
                )
            return Verdict("rigid", clause="B-RIGID", note=f"via j'={jp}")
    if x.n % 2 == 0 and x.s and 2 * x.a[-1] == x.n:
        # a bracket at n/2 forces every quadric of any witness diagram to
        # have d + r = n, i.e. the diagram is already a Schubert one; the
        # deformation backing the not-rigid arithmetic cannot exist here
        return Verdict(
            "disputed",
            note="arithmetic test says not rigid, but no restriction variety "
            "can move this flag element while a_s = n/2",
        )
    return Verdict("not_rigid")


def og_rigid_class(x: OgIndex) -> tuple:
    """(class is rigid, the two characterizations agree).

    The normative verdict demands every essential position be rigid; the
    literal two-clause test on the largest essential b is evaluated alongside
    (clause 1 skipped when no essential b-position exists).
    """
    ess_a, ess_b = og_essential(x)
    all_rigid = all(og_rigid_a(x, i).is_rigid for i in ess_a) and all(
        og_rigid_b(x, j).is_rigid for j in ess_b
    )
    if ess_b:
        gamma = max(ess_b)
        bg = x.b[gamma - 1]
        cond1 = bg in x.a and Fraction(x_counts(x)[gamma - 1]) > (
            x.k - gamma + bg - _half(x.n)
        )
    else:
        cond1 = True
    cond2 = not any(_mt1_fires(x, i) for i in range(1, x.s))
    return all_rigid, all_rigid == (cond1 and cond2)


@dataclass
class RigidityReport:
    """Everything the classifiers say about one index."""

    index: OgIndex
    a_verdicts: tuple  # Verdict per a-position, 1-based order
    b_verdicts: tuple
    class_rigid: bool
    method_agreement: bool
    warnings: tuple
    z: tuple
    x: tuple

    def to_json_dict(self) -> dict:
        return {
            "space": "OG",
            "k": self.index.k,
            "n": self.index.n,
            "a": list(self.index.a),
            "b": list(self.index.b),
            "prime": self.index.prime,
            "a_verdicts": [v.token() for v in self.a_verdicts],
            "b_verdicts": [v.token() for v in self.b_verdicts],
            "class_rigid": self.class_rigid,
            "method_agreement": self.method_agreement,
            "warnings": list(self.warnings),
            "z": list(self.z),
            "x": list(self.x),
        }


def classify_og(x: OgIndex) -> RigidityReport:
    """Run every per-position and class-level test on one index."""
    a_verdicts = tuple(og_rigid_a(x, i) for i in range(1, x.s + 1))
    b_verdicts = tuple(og_rigid_b(x, j) for j in range(1, len(x.b) + 1))
    class_rigid, agree = og_rigid_class(x)
    warnings = []
    if x.n <= 2 * x.k + 1:
        warnings.append(WARN_SMALL_REGIME)
    if not og_essential(x)[1]:
        warnings.append(WARN_NO_ESSENTIAL_B)
    for pos, v in enumerate(a_verdicts, start=1):
        if v.kind == "disputed":
            warnings.append(f"DISPUTED-A{pos}")
    for pos, v in enumerate(b_verdicts, start=1):
        if v.kind == "disputed":
            warnings.append(f"DISPUTED-B{pos}")
    return RigidityReport(
        index=x,
        a_verdicts=a_verdicts,
        b_verdicts=b_verdicts,
        class_rigid=class_rigid,
        method_agreement=agree,
        warnings=tuple(warnings),
        z=z_counts(x),
        x=x_counts(x),
    )


def _omits_assertion(D: QuadricDiagram, cx: OgIndex, kind: str, idx: int) -> bool:
    """Whether the diagram lacks the flag element asserted at the position."""
    if kind == "a":
        target = cx.a[idx - 1]
        return not (D.s >= idx and D.bracket_dims[idx - 1] == target)
    bj = cx.b[idx - 1]
    return any(q.d == cx.n - bj and q.r < bj for q in D.quadrics)


class _DiagramMemo:
    """The admissible diagrams of OG(k, n) in canonical order, enumerated
    lazily: the list grows only as far as some scan has read.

    A scan that stops early (a witness found, a budget hit, an engine error)
    leaves the rest unenumerated; enumerating eagerly would make such a scan
    pay for every diagram of the space.  The fill is locked because scans may
    share a memo across threads and a generator cannot be advanced from two
    threads at once.
    """

    def __init__(self, k: int, n: int):
        self._k, self._n = k, n
        self._items: list = []
        self._source = enumerate_diagrams(k, n, admissible_only=True)
        self._exhausted = False
        self._lock = threading.Lock()

    def _fill_to(self, i: int) -> bool:
        """Enumerate up to item i; False when the space has fewer items."""
        with self._lock:
            while len(self._items) <= i and not self._exhausted:
                try:
                    self._items.append(next(self._source))
                except StopIteration:
                    self._exhausted = True
                except BaseException:
                    # an interrupted generator is finished for good; resume
                    # from a fresh one so later scans still see every diagram
                    self._source = islice(
                        enumerate_diagrams(self._k, self._n, admissible_only=True),
                        len(self._items),
                        None,
                    )
                    raise
            return len(self._items) > i

    def __iter__(self):
        i = 0
        while i < len(self._items) or self._fill_to(i):
            yield self._items[i]
            i += 1


@lru_cache(maxsize=None)
def _admissible_diagrams(k: int, n: int) -> _DiagramMemo:
    return _DiagramMemo(k, n)


def find_nonrigid_witness(x: OgIndex, position, budget: int | None = None):
    """Search for a restriction variety showing the position is not rigid.

    Scans admissible diagrams with k parts in ambient n, in canonical order,
    keeping those that omit the asserted flag element; the first whose
    expansion is exactly 1 * x wins.  Returns None when the exhaustive scan
    finds nothing; raises SearchBudgetExceeded past the cap (argument, else
    the SRK_SEARCH_BUDGET environment variable, else 100000 diagrams) and
    ValidationError when SRK_SEARCH_BUDGET is not an integer or the budget
    is negative.
    The admissible diagrams of (k, n) are kept for the life of the process.
    """
    kind, idx = position
    if kind not in ("a", "b"):
        raise PositionOutOfRange(f"position kind must be 'a' or 'b', got {kind!r}")
    limit = len(x.a) if kind == "a" else len(x.b)
    if not (1 <= idx <= limit):
        raise PositionOutOfRange(f"{kind}-position {idx} not in 1..{limit}")
    if budget is None:
        raw = os.environ.get("SRK_SEARCH_BUDGET", DEFAULT_SEARCH_BUDGET)
        try:
            budget = int(raw)
        except ValueError:
            raise ValidationError(
                f"SRK_SEARCH_BUDGET must be an integer, got {raw!r}"
            ) from None
    if budget < 0:
        raise ValidationError(f"witness search budget must be nonnegative, got {budget}")
    cx = canonical_index(x)
    if needs_rewrite(x) and kind == "b" and idx == len(x.b):
        # the boundary condition is really the primed bracket of the rewrite
        kind, idx = "a", cx.s
    target = ClassSum.single(cx)
    examined = 0
    for D in _admissible_diagrams(x.k, x.n):
        examined += 1
        if examined > budget:
            raise SearchBudgetExceeded(f"witness search passed {budget} diagrams")
        if not _omits_assertion(D, cx, kind, idx):
            continue
        if expand(D) == target:
            return D
    return None
