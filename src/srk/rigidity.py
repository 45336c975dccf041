"""Rigidity classification for Schubert classes in OG(k,n).

An essential position is *rigid* when every representative of the class meets
one fixed flag element the way the index prescribes there; the class is rigid
when every representative is a Schubert variety, which happens exactly when
all essential positions are rigid.

The per-position tests are purely arithmetic (clause MT-1 on the a-side,
B-RIGID on the b-side).  Their thresholds k - j + b_j - (n-1)/2 are
half-integers for even n, so each comparison is made exactly in doubled
integers: 2 x_j against 2(k - j + b_j) - (n - 1).  Where b_j is an a-part,
no valid index meets that threshold exactly (proved in the tests).  The
supporting constructions assume n >= 2k + 2; in the small regimes n = 2k,
2k + 1 two documented index families have explicit deformations
contradicting the arithmetic test, and those come back as ``disputed`` with
a warning rather than as a clean verdict.

``find_nonrigid_witness`` searches for hard evidence: a restriction-variety
diagram whose expansion is exactly the class but which omits the flag element
the queried position asserts.  A diagram's dimension is read off the diagram
(``diagram_dimension``) and every term of its expansion has that dimension,
so only the diagrams of the class's dimension are candidates, and only they
are enumerated: ``_candidates`` keeps, per (k, n, dimension, bracket set),
the tuple of those diagrams in canonical order, and the scan walks the
bracket sets in ``bracket_sets`` order.  The search budget counts the
diagrams of the class's dimension the scan reads.  A candidate whose
derivation cannot reach the class (``can_reach``: brackets only move left,
a quadric's d never rises, quadrics leave from the innermost end) is
skipped unexpanded; the others take their class from ``expand``'s cache,
the only store of classes, without ``expand``'s entry check
(``_expand_admissible``): an enumerated diagram is admissible and fits its
ambient by construction, so the scan validates and checks each candidate
once, when the enumerator builds it.  A candidate's engine error aborts the
scan; no error is caught.
"""

from __future__ import annotations

import os
from functools import lru_cache
from itertools import chain

from .classsum import ClassSum
from .degeneration import _expand_admissible, _expand_cached, can_reach
from .diagrams import _PART_TABLES, QuadricDiagram, bracket_sets, diagrams_with, print_diagram
from .errors import (
    EngineInvariantError,
    PositionOutOfRange,
    SearchBudgetExceeded,
    ValidationError,
)
from .grassmannian import NOT_ESSENTIAL, Verdict, check_position
from .orthogonal import (
    OgIndex,
    canonical_index,
    needs_rewrite,
    og_dimension,
    og_essential,
)
from .values import Fields

DEFAULT_SEARCH_BUDGET = 100_000

WARN_SMALL_REGIME = "SMALL-N-REGIME"
WARN_NO_ESSENTIAL_B = "NO-ESSENTIAL-B"

# The verdicts that carry no index-dependent note.
_RIGID = Verdict("rigid")
_NOT_RIGID = Verdict("not_rigid")
_NOT_RIGID_MT1 = Verdict("not_rigid", clause="MT-1")
_DISPUTED_A_ON_B_THRESHOLD = Verdict(
    "disputed", note="rests on a b-side verdict at the contested threshold"
)
_DISPUTED_B_ON_THRESHOLD = Verdict(
    "disputed",
    note="arithmetic test says rigid, but the class expansion "
    "yields a restriction variety moving this flag element",
)
_DISPUTED_B_HALF_BRACKET = Verdict(
    "disputed",
    note="arithmetic test says not rigid, but no restriction variety "
    "can move this flag element while a_s = n/2",
)


def x_counts(x: OgIndex) -> tuple:
    """x_j = #{i : a_i <= b_j} for each b-position j."""
    return tuple(sum(1 for v in x.a if v <= bv) for bv in x.b)


def z_counts(x: OgIndex) -> tuple:
    """z_i = #{j : a_i <= b_j < a_{i+1}} for each a-position i (a_{s+1} open)."""
    out = []
    s = x.s
    for i in range(1, s + 1):
        lo = x.a[i - 1]
        hi = x.a[i] if i < s else None
        out.append(sum(1 for bv in x.b if bv >= lo and (hi is None or bv < hi)))
    return tuple(out)


def _twice_threshold(x: OgIndex, j: int, bj: int) -> int:
    """2(k - j + b_j) - (n - 1): twice the b-side threshold
    k - j + b_j - (n-1)/2, an integer for every n, so that it compares
    exactly with 2 x_j."""
    return 2 * (x.k - j + bj) - (x.n - 1)


def _b_rigid_at(x: OgIndex, j: int, xs: tuple) -> bool:
    """B-RIGID's test at b-position j: b_j is an a-part and 2 x_j >
    2(k - j + b_j) - (n - 1).  ``xs`` is ``x_counts(x)``."""
    bj = x.b[j - 1]
    return bj in x.a and 2 * xs[j - 1] > _twice_threshold(x, j, bj)


def _gap_above(x: OgIndex, i: int) -> bool:
    """MT-1's gap rule at a-position i < s: a_i avoids the b's and
    a_{i+1} - a_i = 2 + #{j : a_i < b_j < a_{i+1}}."""
    ai, anext = x.a[i - 1], x.a[i]
    if ai in x.b:
        return False
    return anext - ai == 2 + sum(1 for bv in x.b if ai < bv < anext)


def _mt1_fires(x: OgIndex, i: int) -> bool:
    """Clause MT-1 (only meaningful for i < s): the gap rule above a_i, and
    a gap of at least 2 below it (sentinel a_0 = 0)."""
    if i >= x.s:
        return False
    prev = x.a[i - 2] if i >= 2 else 0
    return x.a[i - 1] - prev >= 2 and _gap_above(x, i)


def _disputed_note(x: OgIndex, i: int) -> str | None:
    """Documented small-regime families where an explicit deformation
    contradicts the arithmetic Rigid verdict, plus the conflicting
    consecutive-gap region."""
    # n = 2k+1, b = (i) and a = 1..k without i + 1
    if (
        x.n == 2 * x.k + 1
        and x.b == (i,)
        and x.a == tuple(range(1, i + 1)) + tuple(range(i + 2, x.k + 1))
    ):
        return (
            "at n = 2k+1 this class has a restriction-variety "
            "representative that fixes no subspace at this position"
        )
    # MT-1's gap rule above a_i, with a gap of exactly 1 below, not >= 2
    if 2 <= i < x.s and x.a[i - 1] == x.a[i - 2] + 1 and _gap_above(x, i):
        return (
            "the consecutive-gap pattern a_i = a_{i-1}+1, "
            "a_{i+1} = a_i + 2 + z_i is rigid by the arithmetic test "
            "but has a documented deformation"
        )
    return None


def _b_boundary_disputed(x: OgIndex, j: int, xs: tuple) -> bool:
    """Whether the B-RIGID verdict at j sits on the contested threshold.

    For odd n, the deformation analysis behind the b-side test puts the
    non-rigid boundary at x_{j'} = k - j' + 1 - (n - 2 b_{j'} - 1)/2, one
    above the threshold in the arithmetic test; when every matching j' >= j
    sits exactly there, the class expansion produces a concrete restriction
    variety deforming the flag element, contradicting the Rigid arithmetic.
    Doubled, the boundary reads 2 x_{j'} = 2(k - j' + b_{j'} + 1) - (n - 1).
    Flagged only for n >= 2k + 2 (below that the small-regime warning
    already covers the index).  ``xs`` is ``x_counts(x)``.
    """
    if x.n % 2 == 0 or x.n < 2 * x.k + 2:
        return False
    matched = False
    for jp in range(j, len(x.b) + 1):
        bjp = x.b[jp - 1]
        if bjp in x.a:
            if 2 * xs[jp - 1] != _twice_threshold(x, jp, bjp) + 2:
                return False
            matched = True
    return matched


def og_rigid_a(x: OgIndex, i: int) -> Verdict:
    """Verdict for a-position i.

    Not rigid iff MT-1 fires.  Verdicts that fall in a documented
    small-regime conflict, or on the contested b-side threshold the
    position's rigidity rests on, come back disputed.  Raises
    PositionOutOfRange unless i is an int in 1..s.
    """
    check_position("a-position", i, x.s)
    return _rigid_a(x, i, og_essential(x)[0], x_counts(x))


def og_rigid_b(x: OgIndex, j: int) -> Verdict:
    """Verdict for b-position j: rigid iff some j' >= j has b_{j'} among the
    a-parts with x_{j'} strictly above k - j' + b_{j'} - (n-1)/2, tested as
    2 x_{j'} > 2(k - j' + b_{j'}) - (n - 1).

    A Rigid verdict earned only on the contested odd-n threshold (see
    ``_b_boundary_disputed``) is downgraded to disputed.  Raises
    PositionOutOfRange unless j is an int in 1..len(b).
    """
    check_position("b-position", j, len(x.b))
    return _rigid_b(x, j, og_essential(x)[1], x_counts(x))


def _rigid_a(x: OgIndex, i: int, ess_a: set, xs: tuple) -> Verdict:
    """``og_rigid_a`` for an a-position in range, given the essential
    a-positions and ``x_counts(x)``."""
    if i not in ess_a:
        return NOT_ESSENTIAL
    if _mt1_fires(x, i):
        return _NOT_RIGID_MT1
    ai = x.a[i - 1]
    if ai in x.b and _b_boundary_disputed(x, x.b.index(ai) + 1, xs):
        return _DISPUTED_A_ON_B_THRESHOLD
    note = _disputed_note(x, i)
    if note is not None:
        return Verdict("disputed", note=note)
    return _RIGID


def _rigid_b(x: OgIndex, j: int, ess_b: set, xs: tuple) -> Verdict:
    """``og_rigid_b`` for a b-position in range, given the essential
    b-positions and ``x_counts(x)``."""
    if j not in ess_b:
        return NOT_ESSENTIAL
    for jp in range(j, len(x.b) + 1):
        if _b_rigid_at(x, jp, xs):
            if _b_boundary_disputed(x, j, xs):
                return _DISPUTED_B_ON_THRESHOLD
            return Verdict("rigid", clause="B-RIGID", note=f"via j'={jp}")
    if x.n % 2 == 0 and x.a and 2 * x.a[-1] == x.n:
        # a bracket at n/2 forces every quadric of any witness diagram to
        # have d + r = n, i.e. the diagram is already a Schubert one; the
        # deformation backing the not-rigid arithmetic cannot exist here
        return _DISPUTED_B_HALF_BRACKET
    return _NOT_RIGID


def og_rigid_class(x: OgIndex) -> tuple:
    """(class is rigid, the two characterizations agree), as ``classify_og``
    decides them."""
    rep = classify_og(x)
    return rep.class_rigid, rep.method_agreement


class RigidityReport(Fields):
    """Everything the classifiers say about one index; the verdicts are one
    ``Verdict`` per a-position and per b-position, in 1-based order."""

    __slots__ = _fields = ("index", "a_verdicts", "b_verdicts", "class_rigid",
                           "method_agreement", "warnings", "z", "x")

    def __init__(self, index, a_verdicts, b_verdicts, class_rigid, method_agreement,
                 warnings, z, x):
        self.index = index
        self.a_verdicts = a_verdicts
        self.b_verdicts = b_verdicts
        self.class_rigid = class_rigid
        self.method_agreement = method_agreement
        self.warnings = warnings
        self.z = z
        self.x = x

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
    """Run every per-position and class-level test on one index.

    The class is rigid when every essential position is; the literal
    two-clause test on the largest essential b is evaluated alongside
    (clause 1 skipped when no essential b-position exists), and
    ``method_agreement`` says whether the two agree.
    """
    s = x.s
    ess = og_essential(x)
    xs = x_counts(x)
    a_verdicts = tuple(_rigid_a(x, i, ess[0], xs) for i in range(1, s + 1))
    b_verdicts = tuple(_rigid_b(x, j, ess[1], xs) for j in range(1, len(x.b) + 1))
    class_rigid = all(v.is_rigid for v in a_verdicts + b_verdicts if v.is_essential)
    ess_b = [j for j, v in enumerate(b_verdicts, start=1) if v.is_essential]
    cond1 = _b_rigid_at(x, ess_b[-1], xs) if ess_b else True
    cond2 = not any(_mt1_fires(x, i) for i in range(1, s))
    warnings = []
    if x.n <= 2 * x.k + 1:
        warnings.append(WARN_SMALL_REGIME)
    if not ess_b:
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
        method_agreement=class_rigid == (cond1 and cond2),
        warnings=tuple(warnings),
        z=z_counts(x),
        x=xs,
    )


def _omits_assertion(D: QuadricDiagram, cx: OgIndex, kind: str, idx: int) -> bool:
    """Whether the diagram lacks the flag element asserted at the position."""
    if kind == "a":
        target = cx.a[idx - 1]
        return not (D.s >= idx and D.bracket_dims[idx - 1] == target)
    bj = cx.b[idx - 1]
    return any(q.d == cx.n - bj and q.r < bj for q in D.quadrics)


@lru_cache(maxsize=None)
def _candidates(k: int, n: int, dim: int, brackets: tuple) -> tuple:
    """The admissible diagrams of OG(k, n) of dimension dim on one bracket
    set, in canonical order.  Two threads may both build one tuple, and get
    equal ones; an interrupted build stores nothing."""
    return tuple(diagrams_with(k, n, brackets, dim))


def find_nonrigid_witness(x: OgIndex, position, budget: int | None = None):
    """Search for a restriction variety showing the position is not rigid.

    Scans the admissible diagrams with k parts in ambient n whose dimension
    is the class's, in canonical order, keeping those that omit the asserted
    flag element; the first whose expansion is exactly 1 * x wins.  Every
    term of a diagram's expansion has the diagram's dimension, so no diagram
    of another dimension can be a witness, and none is enumerated.  A kept
    candidate is expanded only when ``can_reach`` says its derivation can
    end at x; the others cannot be witnesses and are skipped.  An engine
    error in an expanded candidate aborts the scan; no error is caught.
    Every diagram of the class's dimension the scan reads counts against
    the budget, expanded or not.  Returns None when the exhaustive scan
    finds nothing; raises SearchBudgetExceeded past the cap (argument, else
    the SRK_SEARCH_BUDGET environment variable, else 100000 diagrams),
    PositionOutOfRange unless the position is a pair of "a" or "b" and an
    int in range, and ValidationError unless the budget is a nonnegative
    int (SRK_SEARCH_BUDGET an integer).
    Candidates are built and kept for the life of the process one bracket
    set at a time, so a scan that stops builds the rest of its bracket set.
    """
    try:
        kind, idx = position
    except (TypeError, ValueError):
        raise PositionOutOfRange(
            f"position must be a (kind, index) pair, got {position!r}"
        ) from None
    if kind not in ("a", "b"):
        raise PositionOutOfRange(f"position kind must be 'a' or 'b', got {kind!r}")
    check_position(f"{kind}-position", idx, len(x.a) if kind == "a" else len(x.b))
    if budget is None:
        raw = os.environ.get("SRK_SEARCH_BUDGET", DEFAULT_SEARCH_BUDGET)
        try:
            budget = int(raw)
        except ValueError:
            raise ValidationError(
                f"SRK_SEARCH_BUDGET must be an integer, got {raw!r}"
            ) from None
    elif not isinstance(budget, int) or isinstance(budget, bool):
        raise ValidationError(f"witness search budget must be an int, got {budget!r}")
    if budget < 0:
        raise ValidationError(f"witness search budget must be nonnegative, got {budget}")
    cx = canonical_index(x)
    if needs_rewrite(x) and kind == "b" and idx == len(x.b):
        # the boundary condition is really the primed bracket of the rewrite
        kind, idx = "a", cx.s
    target = ClassSum.single(cx)
    dim = og_dimension(cx)
    chunks = (_candidates(x.k, x.n, dim, b) for b in bracket_sets(x.k, x.n))
    for i, D in enumerate(chain.from_iterable(chunks)):
        if i >= budget:
            raise SearchBudgetExceeded(f"witness search passed {budget} diagrams")
        if not (_omits_assertion(D, cx, kind, idx) and can_reach(D, cx)):
            continue
        try:
            # an enumerated diagram is admissible and fits its ambient by
            # construction, so it skips ``expand``'s entry check
            cls = _expand_admissible(D, False, False, "derivation")
        except EngineInvariantError as exc:
            raise EngineInvariantError(
                f"{exc} (while expanding scan candidate {print_diagram(D)})"
            ) from exc
        if cls == target:
            return D
    return None


def cache_info() -> dict:
    """Hit, miss and size counts of the process's two caches: the classes of
    ``expand`` and ``pushforward_diagram`` (``"expand"``) and the witness
    scan's candidate diagrams (``"candidates"``); and the size of the tables
    of parts that equal diagrams share (``"parts"``)."""
    out = {}
    for name, cached in (("expand", _expand_cached), ("candidates", _candidates)):
        info = cached.cache_info()
        out[name] = {"hits": info.hits, "misses": info.misses, "size": info.currsize}
    out["parts"] = {"size": sum(map(len, _PART_TABLES))}
    return out
