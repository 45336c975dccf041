"""The degeneration engine: class expansion of quadric diagrams.

One degeneration step picks the quadric kappa whose dimension-plus-corank sum
last drops, and produces one or both of

  D^a -- raise the corank of quadric kappa by one (a digit change), then
         repair: discard if (A3) fails; while (A2) fails, raise the corank
         again and slide the kappa-th brace one step left; if (A1) fails the
         rank-<=-2 quadric degenerates into a pair of linear spaces, so the
         brace becomes a bracket one position to the left (two copies, the
         second primed when the new rightmost bracket sits at position m/2;
         never in pushforward mode, whose ambient 2m+1 is odd);
  D^b -- in D^a, move the leftmost bracket lying right of position
         r_kappa + 1 onto that position, then repair (A2) by repeatedly
         demoting the digit at the offending bracket and sliding the matching
         brace left, giving up if two braces collide.

Which branches are taken follows the gap test on x_kappa, y_kappa and n_s.
Iterating until every surviving diagram is terminal (d_j + r_j = n for all j)
expands the class into Schubert classes of OG(k,n).  Treating the ambient as
2n+1 instead (terminal = no quadrics left) computes the pushforward of the
class to the ordinary Grassmannian G(k,n).

There is one derivation path.  ``_step`` records what it does under the
node it is given, and ``_expand_node`` is the one recursion that accumulates
child classes.  An untraced expansion steps a ``_Sink``, which records
nothing, and takes each child's class from ``_expand_cached``, the one
cache.  A traced expansion runs the same recursion on a fresh ``TraceNode``
root outside the cache, so it replays every step and returns the same class
as the cached call.

Admissibility is the one contract of every step, decided once per diagram.
Every public entry (``expand``, ``pushforward_diagram``, ``step`` and
``derive_and_fix_a/b``) checks its root with ``_entry_check``, which builds
a ``check_conditions`` report; the witness scan, whose candidates are
admissible and fit their ambient by construction, expands them through
``_expand_admissible``, which skips it.  A derived diagram is checked only
inside the two repair loops, ``_algorithm1`` for D^a and ``_derive_b`` for
D^b.  Each is one loop that reads ``_fold``'s state once per diagram it
reaches (``diagrams._repair_state``, no report): its first failures pick
the repair, the (A2) bracket included, and the last state is the verdict.
A report is built there only for an error message or a traced discard
note.  ``_algorithm1`` repairs the two copies of an (A1) split by calling
itself on each; untraced, a split that returns one diagram twice is
repaired once and its pairs count twice.  The two loops stay apart because
they repair (A2) at different quadrics: D^a at kappa, D^b at the last
quadric of corank p - 1, p the first failing bracket.  A loop emits a child
only after its state passes, so the recursion never checks a child again,
and the (A3) probe that picks ``Both`` hands its state on to
``_algorithm1``.  Every diagram a step starts from is therefore
admissible, and these constructions rely on it: ``_bump`` builds D^a
without validation ((A1) keeps each raised corank below every d_j);
``_derive_b`` moves its bracket onto r_kappa + 1 without validation ((A2)
keeps that position free, and the top bracket never rises), and always
finds a brace to slide, because no D^b iterate has a bracket at r_q + 1;
and ``_algorithm1``'s (A2) repair always finds quadric kappa, because a
copy split off at quadric kappa never fails (A2).  The repairs themselves
(``_fix_a2``, ``_split_a1``) build through the validating constructor,
which detects a collision.

Four monotonicity facts hold along every derivation, read off the rules:

  - a bracket only moves left (D^b) or is added (the (A1) split);
  - a quadric's d never rises (only the (A2) repair changes it, by -1);
  - coranks never fall (every corank change is ``_raise_corank``);
  - quadrics leave from the innermost end (the (A1) split drops quadric q).

So ``can_reach`` can tell, without expanding a diagram, that a class is
not one of its terms.

Diagrams are immutable; expansion is deterministic and side-effect free, so
results may be cached and shared across threads.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from itertools import chain
from typing import NamedTuple

from .classsum import ClassSum
from .diagrams import (
    Bracket,
    Quadric,
    QuadricDiagram,
    _repair_state,
    _witness,
    check_conditions,
    print_diagram,
)
from .errors import (
    AlreadyTerminal,
    DepthExceeded,
    EngineInvariantError,
    InvalidDiagram,
    NotAdmissible,
)
from .grassmannian import GrIndex
from .orthogonal import OgIndex, diagram_to_og, og_merge_prime, og_to_diagram
from .values import Fields


class BranchDecision(NamedTuple):
    """Why a step chose D^a, D^b, or both."""

    kappa: int
    x_kappa: int
    y_kappa: int | None
    n_s_le_r: bool
    gap_test: bool
    chosen: str  # "DaOnly" | "DbOnly" | "Both" | "Terminal"
    ambiguous_y: bool = False  # the two readings of the y guard disagree


class TraceNode(Fields):
    """One node of a derivation trace; ``rule`` is Root, Da, Db, FixA2,
    FixA1Split, FixB or Discard, and ``diagram`` is None for a discard."""

    __slots__ = _fields = ("diagram", "rule", "note", "children")

    def __init__(self, diagram, rule: str, note: str | None = None, children=None):
        self.diagram = diagram
        self.rule = rule
        self.note = note
        self.children = [] if children is None else children

    def to_json_dict(self) -> dict:
        return {
            "rule": self.rule,
            "diagram": None if self.diagram is None else print_diagram(self.diagram),
            "note": self.note,
            "children": [c.to_json_dict() for c in self.children],
        }

    def render(self, indent: int = 0) -> str:
        label = "(discarded)" if self.diagram is None else print_diagram(self.diagram)
        line = "  " * indent + f"{self.rule}: {label}"
        if self.note:
            line += f"  [{self.note}]"
        return "\n".join([line] + [c.render(indent + 1) for c in self.children])


class _Sink:
    """The node of an untraced step: it holds the diagram and records
    nothing; ``_grow`` hands it back for every derived diagram, and
    ``_expand_node`` takes its children's classes from the cache."""

    __slots__ = ("diagram",)
    children = None

    def __init__(self, diagram: QuadricDiagram):
        self.diagram = diagram


def _is_terminal(D: QuadricDiagram, push: bool) -> bool:
    if push:
        return not D.quadrics
    return D.sums.count(D.m) == D.q


def kappa(D: QuadricDiagram, pushforward: bool = False) -> int:
    """Index of the quadric the next degeneration acts on.

    The largest j whose sum d_j + r_j drops below its predecessor's, or 1
    when no sum drops; raises AlreadyTerminal when nothing is left to do in
    the active mode.
    """
    if _is_terminal(D, pushforward):
        raise AlreadyTerminal(f"{print_diagram(D)} is terminal")
    return _kappa(D)


def _kappa(D: QuadricDiagram) -> int:
    """``kappa`` of a diagram that is not terminal."""
    sums = D.sums
    drops = [j for j in range(2, D.q + 1) if sums[j - 1] < sums[j - 2]]
    return max(drops) if drops else 1


def _raise_corank(quadrics: tuple, j1: int) -> tuple:
    """Set the digit right after block j1 to j1: r_{j1} grows by one and any
    empty blocks above absorb (r_j := max(r_j, r_{j1} + 1) for j >= j1)."""
    pos = quadrics[j1 - 1].r + 1
    return tuple([
        Quadric(q.d, max(q.r, pos)) if j >= j1 else q
        for j, q in enumerate(quadrics, start=1)
    ])


def _try_build(m, brackets, quadrics):
    try:
        return QuadricDiagram(m, tuple(brackets), tuple(quadrics))
    except InvalidDiagram:
        return None


def _grow(node, diagram, rule: str, note: str | None = None):
    """Record a derived diagram (or, with None, a discard) under ``node``;
    a ``_Sink`` records nothing and is handed back."""
    if node.children is None:
        return node
    child = TraceNode(diagram, rule, note)
    node.children.append(child)
    return child


def _bump(D: QuadricDiagram, kap: int) -> QuadricDiagram:
    """The corank bump D^a of an admissible D before any repair, built
    without validation: (A1) gives r_q <= d_q - 3, so every raised corank
    stays below every d_j, and a raised corank only eases flag existence."""
    return QuadricDiagram._unchecked(D.m, D.brackets, _raise_corank(D.quadrics, kap))


def _fix_a2(cur: QuadricDiagram, kap: int):
    """One (A2) repair: raise quadric kappa's corank and slide its brace left;
    None when the brace runs into its neighbour."""
    nq = list(_raise_corank(cur.quadrics, kap))
    nq[kap - 1] = Quadric(nq[kap - 1].d - 1, nq[kap - 1].r)
    return _try_build(cur.m, cur.brackets, nq)


def _split_a1(cur: QuadricDiagram, push: bool):
    """Degenerate the innermost quadric into a bracket one position left;
    returns the two copies, or None when the new bracket does not fit.
    Outside pushforward mode the second copy is primed when the new bracket
    sits at m/2."""
    brackets = sorted(cur.brackets + (Bracket(cur.quadrics[-1].d - 1, False),))
    base = _try_build(cur.m, brackets, cur.quadrics[:-1])
    if base is None:
        return None
    second = base
    if not push and 2 * base.brackets[-1].dim == cur.m:
        primed = base.brackets[:-1] + (Bracket(base.brackets[-1].dim, True),)
        second = QuadricDiagram(base.m, primed, base.quadrics)
    return base, second


def _algorithm1(cur: QuadricDiagram, kap: int, push: bool, node, state=None):
    """The repair loop of D^a, from ``cur`` recorded as ``node`` and its
    ``_repair_state`` ``state`` when the caller has it; returns the
    surviving (diagram, trace node) pairs.  Each diagram the loop reaches is
    checked once.  The two copies of an (A1) split are repaired by a call
    each; untraced, one diagram returned twice is repaired once, and its
    pairs are returned twice."""
    for _ in range(4 * cur.m + 8):
        failures, live = _repair_state(cur) if state is None else state
        if "A3" in failures:
            _grow(node, None, "Discard", f"(A3) fails: {_witness(failures['A3'])}")
            return []
        if "A2" in failures:
            fixed = _fix_a2(cur, kap)
            if fixed is None:
                _grow(node, None, "Discard", "structural collision while repairing (A2)")
                return []
            cur, node, state = fixed, _grow(node, fixed, "FixA2"), None
            continue
        if "A1" in failures:
            pair = _split_a1(cur, push)
            if pair is None:
                _grow(node, None, "Discard", "structural collision while splitting (A1)")
                return []
            if node.children is None and pair[0] is pair[1]:
                return _algorithm1(pair[0], kap, push, node) * 2
            out = []
            for copy in pair:
                out += _algorithm1(copy, kap, push, _grow(node, copy, "FixA1Split"))
            return out
        if not live:
            # the corank rules repair (A1)-(A3) only; a corank bump can
            # break condition (3) when four or more quadrics carry a
            # non-monotone d+r profile, which lies outside the family the
            # rewriting rules preserve
            raise EngineInvariantError(
                f"{print_diagram(cur)} fails {check_conditions(cur).failed()} after "
                "repairs; the derivation left the admissible family"
            )
        return [(cur, node)]
    raise EngineInvariantError(f"(A2) repair loop stuck on {print_diagram(cur)}")


def derive_and_fix_a(D: QuadricDiagram, pushforward: bool = False):
    """Diagrams derived from D^a: usually 0, 1, or 2 of them."""
    _entry_check(D)
    kap = kappa(D, pushforward)
    pairs = _algorithm1(_bump(D, kap), kap, pushforward, _Sink(D))
    return [d for d, _ in pairs]


def _derive_b(Da: QuadricDiagram, kap: int, node):
    """D^b (a bracket moved in D^a), recorded under ``node``, and its repair
    loop; returns [(diagram, trace node)] or [].  Each iterate is checked
    once, and its ``_repair_state`` gives both the (A2) failure to repair
    next and, for the last one, the verdict."""
    p = Da.quadrics[kap - 1].r
    movable = [b for b in Da.brackets if b.dim > p]
    if not movable:
        return []
    keep = [b for b in Da.brackets if b is not movable[0]]
    # built without validation: (A2) on the admissible diagram Da was bumped
    # from keeps p = its r_kappa + 1 off the brackets, and the move never
    # raises the top bracket
    brackets = tuple(sorted(keep + [Bracket(p, False)]))
    cur = QuadricDiagram._unchecked(Da.m, brackets, Da.quadrics)
    node = _grow(node, cur, "Db")
    for _ in range(4 * cur.m + 8):
        failures, live = _repair_state(cur)
        a2 = failures.get("A2")
        if a2 is None:
            break
        # the first (A2) failure's bracket p = r_j + 1 is the least bracket
        # with p - 1 among the coranks; no bracket sits at r_q + 1, so
        # p <= r_q and the digit i at p is at least 2; p = r_j + 1 and
        # r_{i-1} < p <= r_i force r_{i-1} = p - 1
        built = _fix_a2(cur, cur.digit_at(a2[2]) - 1)
        if built is None:
            _grow(node, None, "Discard", "two braces would collide")
            return []
        cur, node = built, _grow(node, built, "FixB")
    else:
        raise EngineInvariantError(f"(A2) repair loop stuck on {print_diagram(cur)}")
    if not live:
        if node.children is not None:
            failed = check_conditions(cur).failed()
            _grow(node, None, "Discard", f"inadmissible after repairs: {failed}")
        return []
    return [(cur, node)]


def derive_and_fix_b(D: QuadricDiagram, pushforward: bool = False):
    """The diagram derived from D^b, or None when there is no bracket to move
    or the repair gives up."""
    _entry_check(D)
    kap = kappa(D, pushforward)
    pairs = _derive_b(_bump(D, kap), kap, _Sink(D))
    return pairs[0][0] if pairs else None


def _step(node, push: bool):
    """One step of ``node.diagram``, which is not terminal, recorded under
    ``node``; returns the branch decision and the (child, node) pairs."""
    D = node.diagram
    kap = _kappa(D)
    r_kap = D.quadrics[kap - 1].r
    dims, rs = D.bracket_dims, D.rs
    x_kap = bisect_right(dims, r_kap)
    n_s = dims[-1] if dims else 0
    n_s_le_r = n_s <= r_kap

    y_kap = None
    gap_test = False
    ambiguous = False
    if not n_s_le_r:
        n_next = dims[x_kap]  # x_kap < s here
        # the largest j with r_j <= n_next; r_1 <= r_kappa < n_next, so j >= 1
        y_all = bisect_right(rs, n_next)
        y_kap = y_all if rs[-1] >= n_next else D.q + 1
        gap = n_next - r_kap - 1
        gap_test = gap > y_kap - kap
        ambiguous = gap_test != (gap > y_all - kap)

    Da = _bump(D, kap)
    if n_s_le_r or gap_test:
        chosen = "DaOnly"
        pairs = _algorithm1(Da, kap, push, _grow(node, Da, "Da"))
    elif "A3" in (state := _repair_state(Da))[0]:
        chosen = "DbOnly"
        pairs = _derive_b(Da, kap, node)
    else:
        chosen = "Both"
        pairs = _algorithm1(Da, kap, push, _grow(node, Da, "Da"), state) + _derive_b(Da, kap, node)
    if node.children is not None:
        node.note = f"κ={kap} x={x_kap} y={y_kap} → {chosen}"
        if ambiguous:
            node.note += " (y-guard readings disagree)"
    decision = BranchDecision(kap, x_kap, y_kap, n_s_le_r, gap_test, chosen, ambiguous)
    return decision, pairs


def step(D: QuadricDiagram, pushforward: bool = False):
    """One degeneration step: the branch decision and the derived diagrams."""
    _entry_check(D)
    kappa(D, pushforward)  # raises AlreadyTerminal
    decision, pairs = _step(_Sink(D), pushforward)
    return decision, [d for d, _ in pairs]


def _terminal_basis(D: QuadricDiagram, push: bool):
    if push:
        return GrIndex(D.k, D.m, D.bracket_dims)
    return diagram_to_og(D)


def _expand_node(node, push: bool) -> ClassSum:
    """Class of ``node.diagram``.  On a ``TraceNode`` the whole derivation is
    recorded under ``node``; on a ``_Sink``, which records nothing, each
    child's class is taken from the cache.  A node with one child shares
    that child's class."""
    D = node.diagram
    if _is_terminal(D, push):
        return ClassSum.single(_terminal_basis(D, push))
    _, pairs = _step(node, push)
    if node.children is None:
        subs = [_expand_cached(child, push) for child, _ in pairs]
    else:
        subs = [_expand_node(child_node, push) for _, child_node in pairs]
    return subs[0] if len(subs) == 1 else ClassSum(chain.from_iterable(subs))


@lru_cache(maxsize=None)
def _expand_cached(D, push):
    return _expand_node(_Sink(D), push)


def _entry_check(D: QuadricDiagram):
    rep = check_conditions(D)
    if not rep.ok:
        raise NotAdmissible(
            f"{print_diagram(D)} fails conditions {rep.failed()}", report=rep
        )
    if D.brackets and 2 * D.bracket_dims[-1] > D.m:
        raise NotAdmissible(
            f"bracket {D.bracket_dims[-1]} exceeds the isotropic bound in ambient {D.m}"
        )
    if any(d + r > D.m for d, r in D.quadrics):
        raise NotAdmissible(f"a quadric of {print_diagram(D)} does not fit in ambient {D.m}")


def is_admissible(D: QuadricDiagram) -> bool:
    """Whether ``expand`` and ``pushforward_diagram`` accept D."""
    try:
        _entry_check(D)
    except NotAdmissible:
        return False
    return True


def _expand_root(D: QuadricDiagram, push: bool, trace: bool, what: str):
    _entry_check(D)
    return _expand_admissible(D, push, trace, what)


def _expand_admissible(D: QuadricDiagram, push: bool, trace: bool, what: str):
    """``_expand_root`` without the entry check, for a diagram known to be
    admissible and to fit its ambient, as every enumerated diagram is."""
    try:
        if not trace:
            return _expand_cached(D, push)
        root = TraceNode(D, "Root")
        return _expand_node(root, push), root
    except RecursionError:
        raise DepthExceeded(f"{what} of {print_diagram(D)} does not bottom out")


def expand(D: QuadricDiagram, trace: bool = False):
    """Expand a restriction-variety diagram into OG(k, m) Schubert classes.

    Returns the ClassSum, or (ClassSum, TraceNode) when ``trace`` is set.
    Deterministic: terms accumulate into the canonical basis order no matter
    how the tree is walked.  Untraced results are cached, the root included.
    """
    return _expand_root(D, False, trace, "derivation")


def pushforward_diagram(D: QuadricDiagram, trace: bool = False):
    """Class of the diagram's variety inside the ordinary Grassmannian G(k, m),
    computed by running the engine with the ambient treated as 2m + 1."""
    return _expand_root(D, True, trace, "pushforward")


def pushforward(x: OgIndex, trace: bool = False):
    """Type-A class of the Schubert variety named by ``x`` under the inclusion
    of OG(k,n) into G(k,n).

    A Schubert variety never pushes forward to zero, so a zero result means
    the engine lost every branch; that raises EngineInvariantError.
    """
    result = pushforward_diagram(og_to_diagram(x), trace=trace)
    if not (result[0] if trace else result):
        raise EngineInvariantError(f"zero pushforward for {x}")
    return result


def can_reach(D: QuadricDiagram, x: OgIndex) -> bool:
    """Whether sigma_x can be a term of ``expand(D)``, as far as the four
    monotonicity facts tell; False only when no derivation from D can end
    at x's Schubert diagram.

    x is taken in canonical form (``canonical_index``), the form of every
    term.  A derivation ending at x keeps D's first q' = len(x.b) quadrics,
    the j-th with d_j shrunk to n - b_j, so q' <= q and b_j >= n - d_j.
    Each of the others left as a bracket at or left of d_j - 1, and every
    bracket moved left or stayed, so the sorted brackets of D and those
    positions bound x's a-parts from above, one by one.
    """
    b = x.b
    kept = len(b)
    ds = D.ds
    if kept > len(ds):
        return False
    m = D.m
    for bj, d in zip(b, ds):
        if bj + d < m:
            return False
    ends = sorted(D.bracket_dims + tuple([d - 1 for d in ds[kept:]]))
    for end, a in zip(ends, x.a):
        if end < a:
            return False
    return True


def merge_primes(S: ClassSum) -> ClassSum:
    """Replace every primed basis element by its unprimed twin (display form)."""
    return S.map_basis(og_merge_prime)
