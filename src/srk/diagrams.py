"""Quadric diagrams: the bracket/brace/digit encoding of restriction varieties.

A restriction variety in OG(k,n) is cut out by a flag of isotropic subspaces
F_{n_1} c ... c F_{n_s} and sub-quadrics Q_{d_q}^{r_q} c ... c Q_{d_1}^{r_1}
(d = dimension of the spanning linear space, r = corank).  Its diagram is a
string of m digits (m = ambient dimension) with a bracket ``]`` after the
n_i-th digit for each isotropic space and a brace ``}`` after the d_j-th digit
for each quadric; the l-th digit equals j when r_{j-1} < l <= r_j (r_0 = 0)
and 0 when l > r_q.  When m is even, an isotropic space of dimension m/2 in
the second family is marked ``]'``.

Admissibility is conditions (1)-(3) and (A1)-(A3) of Coskun, *Restriction
varieties and geometric branching rules* (Adv. Math. 2011).  (1), coranks
nested inward, and (2), the containment pattern of flag elements and
singular loci, hold for every diagram the constructor accepts: the diagram
encodes them.  (3) and (A1)-(A3) are each stated once, in ``_place``, as a
rule on the chain of quadrics placed so far and the next one;
``check_conditions`` folds it over a diagram's quadrics.

``enumerate_diagrams`` yields only admissible diagrams, one bracket set
(``bracket_sets``) at a time (``diagrams_with``).  It calls ``_place`` at
each corank it tries, and skips a corank under which the chain can no longer
pass with its whole subtree, so every diagram it yields is admissible by
construction and is not checked again there; the tests assert
``check_conditions`` on every one.  The walk also enforces every rule the
constructor checks, so the enumerator builds its diagrams without validation
(``QuadricDiagram._unchecked``).  Asked for one dimension, it also skips
every chain whose diagram cannot have it, so the diagrams of one dimension
cost less than a walk of the space.
Besides the enumerator, admissibility is decided only by the degeneration
engine: at entry, for a root (a ``check_conditions`` report), and in its
repair loops, for a derived diagram (``_repair_state``, which reads the
same fold and builds no report).

Diagrams are immutable; every function here is pure.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import combinations
from math import inf
from operator import add
from typing import NamedTuple

from .errors import (
    DiagramSyntaxError,
    InconsistentDigits,
    InvalidDiagram,
    MarkerMisplaced,
    OutOfBounds,
)
from .values import Fields, Frozen


class Bracket(NamedTuple):
    dim: int
    prime: bool = False


class Quadric(NamedTuple):
    d: int
    r: int


# The parts of every diagram built, kept once for the life of the process so that equal
# diagrams share them: brackets -> (brackets, bracket_dims), quadrics -> (quadrics, ds, rs,
# sums), a Quadric or int tuple to itself; one table per kind, as Bracket(5) == Quadric(5, 0).
_PART_TABLES = _BRACKET_SHAPES, _QUADRIC_SHAPES, _QUADRICS, _INT_TUPLES = {}, {}, {}, {}


def _parts(parts, kind) -> tuple:
    """``parts`` as a tuple of ``kind``s; a tuple of them is kept as given."""
    parts = tuple(parts)
    for p in parts:
        if type(p) is not kind:
            return tuple([p if type(p) is kind else kind(*p) for p in parts])
    return parts


class QuadricDiagram(Frozen):
    """Structurally valid diagram; admissibility is a separate check.

    Its shape (``bracket_dims``, ``ds``, ``rs``, ``sums``, ``s``, ``q``,
    ``k``) and its hash are computed once, at construction; equality,
    hashing and ``repr`` see only (m, brackets, quadrics): ``Bracket``s with
    dims strictly increasing, ``Quadric``s with d strictly decreasing and r
    nondecreasing.  Equal diagrams share their part tuples.  The
    constructor validates; ``_unchecked`` builds the same diagram without
    validation, for the three builders that guarantee every rule.
    """

    __slots__ = ("m", "brackets", "quadrics", "bracket_dims", "ds", "rs", "sums", "s", "q", "k")
    _fields = ("m", "brackets", "quadrics")

    def __init__(self, m, brackets, quadrics):
        # The parser, ``og_to_diagram`` and the engine's repairs build
        # through here, so the checks are plain loops, in a fixed order; the
        # parts' types are checked first.
        try:
            brackets = _parts(brackets, Bracket)
            quadrics = _parts(quadrics, Quadric)
        except TypeError:
            raise InvalidDiagram(
                f"brackets must be (dim, prime) pairs and quadrics (d, r) pairs: "
                f"{brackets!r}, {quadrics!r}"
            ) from None
        dims, primes = zip(*brackets) if brackets else ((), ())
        ds, rs = zip(*quadrics) if quadrics else ((), ())
        for v in dims + ds + rs:
            if type(v) is not int:
                raise InvalidDiagram(f"bracket dims, d and r must be ints, got {v!r}")
        for prime in primes:
            if type(prime) is not bool:
                raise InvalidDiagram(f"a bracket's prime must be a bool, got {prime!r}")
        s, q = len(brackets), len(quadrics)
        if type(m) is not int:
            raise OutOfBounds(f"m must be an int, got {m!r}")
        if m < 1:
            raise InvalidDiagram(f"need m >= 1, got {m}")
        if not s and not q:
            raise InvalidDiagram("diagram needs at least one bracket or brace")
        prev = None
        for v in dims:
            if prev is not None and prev >= v:
                raise InvalidDiagram(f"bracket dims must strictly increase: {dims}")
            prev = v
        if s and (dims[0] < 1 or dims[-1] > m):
            raise InvalidDiagram(f"bracket dims must lie in 1..{m}: {dims}")
        for dim, prime in brackets:
            if prime and 2 * dim != m:
                raise InvalidDiagram(
                    f"prime marker only allowed at dimension {m}/2, got {dim}"
                )
        prev = None
        for d in ds:
            if prev is not None and prev <= d:
                raise InvalidDiagram(f"quadric dims must strictly decrease: {ds}")
            prev = d
        prev = None
        for r in rs:
            if prev is not None and prev > r:
                raise InvalidDiagram(f"coranks must be nondecreasing: {rs}")
            prev = r
        for d, r in quadrics:
            if not (1 <= d <= m):
                raise InvalidDiagram(f"quadric dim {d} outside 1..{m}")
            if not (0 <= r <= d):
                raise InvalidDiagram(f"corank {r} outside 0..{d}")
        if s and q:
            top = dims[-1]
            if top > ds[-1]:
                raise InvalidDiagram(
                    f"largest bracket {top} sticks out of smallest brace {ds[-1]}"
                )
            # flag existence: an isotropic space inside Q_d^r has dimension
            # at most r + (d - r)/2, i.e. floor((d + r)/2)
            for d, r in quadrics:
                if top > (d + r) // 2:
                    raise InvalidDiagram(
                        f"bracket {top} cannot lie isotropically inside Q_{d}^{r}"
                    )
        self._set(m, brackets, quadrics)

    @classmethod
    def _unchecked(cls, m: int, brackets: tuple, quadrics: tuple) -> QuadricDiagram:
        """The diagram (m, brackets, quadrics), built without validation:
        ``brackets`` a tuple of ``Bracket``s and ``quadrics`` one of
        ``Quadric``s that the caller guarantees pass every rule ``__init__``
        checks.  Only ``diagrams_with``, ``degeneration._bump`` and the
        bracket move of ``degeneration._derive_b`` call it."""
        self = object.__new__(cls)
        self._set(m, brackets, quadrics)
        return self

    def _set(self, m, brackets, quadrics):
        """Store the diagram, its parts taken from the tables of parts."""
        shape = _BRACKET_SHAPES.get(brackets)
        if shape is None:
            dims = tuple([b.dim for b in brackets])
            dims = _INT_TUPLES.setdefault(dims, dims)
            shape = _BRACKET_SHAPES.setdefault(brackets, (brackets, dims))
        brackets, dims = shape
        shape = _QUADRIC_SHAPES.get(quadrics)
        if shape is None:
            quadrics = tuple([_QUADRICS.setdefault(qq, qq) for qq in quadrics])
            ds, rs = tuple([qq.d for qq in quadrics]), tuple([qq.r for qq in quadrics])
            ints = [_INT_TUPLES.setdefault(t, t) for t in (ds, rs, tuple(map(add, ds, rs)))]
            shape = _QUADRIC_SHAPES.setdefault(quadrics, (quadrics, *ints))
        quadrics, ds, rs, sums = shape
        s, q = len(brackets), len(quadrics)
        key = (m, brackets, quadrics)
        self._store(key, hash(key), m, brackets, quadrics, dims, ds, rs, sums, s, q, s + q)

    def __str__(self):
        return print_diagram(self)


def digits(D: QuadricDiagram) -> list:
    """The m digits of the diagram as a list of ints."""
    out = [0] * D.m
    prev = 0
    for j, q in enumerate(D.quadrics, start=1):
        for pos in range(prev + 1, q.r + 1):
            out[pos - 1] = j
        prev = max(prev, q.r)
    return out


class AdmissibilityReport(Fields):
    """Per-condition verdicts, label -> (passed, witness); ``witness``
    describes the first violation.  ``ok`` is decided once, at
    construction."""

    __slots__ = ("conditions", "x", "warnings", "ok")
    _fields = ("conditions", "x", "warnings")

    def __init__(self, conditions=None, x=(), warnings=()):
        self.conditions = {} if conditions is None else conditions
        self.x = x
        self.warnings = warnings
        self.ok = True
        for passed, _ in self.conditions.values():
            if not passed:
                self.ok = False
                break

    def failed(self) -> list:
        return [label for label, (p, _) in self.conditions.items() if not p]


def x_profile(D: QuadricDiagram) -> tuple:
    """x_j = number of brackets with n_i <= r_j."""
    dims = D.bracket_dims  # strictly increasing
    return tuple([bisect_right(dims, r) for r in D.rs])


def _dimension_offset(dims, q: int) -> int:
    """The part of the dimension closed form that the bracket dimensions
    ``dims`` and the number q of quadrics fix: a diagram's dimension is

        sum_i n_i - s(s+1)/2 - 2sq - q(q+1) + sum_j (d_j + x_j),

    x_j = #{i : n_i <= r_j}, and this returns all but the last sum."""
    s = len(dims)
    return sum(dims) - s * (s + 1) // 2 - 2 * s * q - q * (q + 1)


def diagram_dimension(D: QuadricDiagram) -> int:
    """Dimension of the restriction variety of D, by the closed form of
    ``_dimension_offset``.  On the Schubert diagram of an index (d_j = m -
    b_j, r_j = b_j) it is ``og_dimension``.  Every term of ``expand(D)`` has
    this dimension, and every diagram ``step`` derives from D has it too
    (both checked exhaustively in the tests).
    """
    return _dimension_offset(D.bracket_dims, D.q) + sum(D.ds) + sum(x_profile(D))


def _a1_cap(d: int) -> int:
    """(A1): the innermost quadric has rank at least 3, so its corank is at
    most d_q - 3."""
    return d - 3


# What conditions (3) and (A1)-(A3) carry from an empty chain; see ``_place``.
_NO_QUADRICS = (False, None, False, (), True)


def _place(k: int, dims: tuple, ds: tuple, rs, j: int, r: int, x: int, state: tuple) -> tuple:
    """Place Q_{d_{j+1}}^r as quadric j + 1 (0-based j) of a k-part diagram
    with bracket dimensions ``dims`` and quadric dimensions ``ds``, under
    the quadrics 1..j already placed with coranks ``rs`` and leaving
    ``state``; x = #{i : n_i <= r}.  Returns the state of quadrics 1..j + 1.
    Conditions (3) and (A1)-(A3) are stated here and nowhere else, and are
    read on the chain so far: only d_1..d_{j+1} and r_1..r_j are looked at,
    and the whole of ``ds`` only for its length.

    A state is (first, fail3, tail, fails, live): whether the first clause of
    (3) holds so far; the failure of its second clause that it reports, or
    None; whether the chain holds an equal pair above r_1; the failures of
    (A1)-(A3) in order; and whether the chain can still pass every
    condition.  A failure is (label or key, format, *args), and
    ``format.format(*args)`` is its witness.

      (3)   the first clause: every corank equals r_1, and r_1 is a bracket
            dimension (the verdict hinges on reading "r_i = r_1 = n_{r_1}"
            this way, hence a warning when it alone decides); or the
            second clause: r_t - r_i >= t - i - 1 for all t > i, which holds
            at t = i + 1 as the coranks never fall, and at the first equal
            pair above r_1, r_{t-1} = r_t > r_1, adjacent braces, d_{t-1} -
            d_t = 1, and d_{i-1} - d_i = r_i - r_{i-1} for every later i.
            Once that pair passes, every later corank step is at least 1
            (the d's strictly decrease), so no later pair needs the check.
            The witness is the least failing pair (i, t), i first, and else
            the first failing brace step.
      (A1)  r_q <= d_q - 3 (``_a1_cap``) on the innermost quadric.
      (A2)  r_j + 1 is not a bracket dimension: n_i - r_j != 1.
      (A3)  x_j >= k - j + 1 - floor((d_j - r_j)/2).

    ``live`` turns false at the first quadric that breaks one of (A1)-(A3),
    or after which both clauses of (3) are broken; as a failure is never
    taken back, every chain that extends it fails too.
    """
    first, fail3, tail, fails, _ = state
    d = ds[j]
    if j:
        first = first and r == rs[0]
        if j > 1:
            # only a pair with a smaller i than the reported one replaces it
            for i in range(j - 1 if fail3 is None else min(j - 1, fail3[0])):
                if r - rs[i] < j - i - 1:
                    fail3 = (i, "r_{} - r_{} < {}", j + 1, i + 1, j - i - 1)
                    break
        if fail3 is None:
            # a brace step failure sorts after every pair failure
            if tail:
                if r - rs[j - 1] != ds[j - 1] - d:
                    fail3 = (inf, "d_{} - d_{} != r gap", j, j + 1)
            elif r == rs[j - 1] > rs[0]:
                tail = True
                if ds[j - 1] - d != 1:
                    fail3 = (inf, "d_{} - d_{} != 1", j, j + 1)
    else:
        first = r in dims
    if j == len(ds) - 1 and r > _a1_cap(d):
        fails += (("A1", "r_q = {} > {}", r, _a1_cap(d)),)
    if r + 1 in dims:
        fails += (("A2", "bracket {} = r_{} + 1", r + 1, j + 1),)
    need = k - j - (d - r) // 2
    if x < need:
        fails += (("A3", "x_{} = {} < {}", j + 1, x, need),)
    return first, fail3, tail, fails, not fails and (fail3 is None or first)


def _fold(D: QuadricDiagram, xs: tuple) -> tuple:
    """The state ``_place`` leaves after D's last quadric; xs is
    ``x_profile(D)``."""
    state = _NO_QUADRICS
    k, dims, ds, rs = D.k, D.bracket_dims, D.ds, D.rs
    for j, r in enumerate(rs):
        state = _place(k, dims, ds, rs, j, r, xs[j], state)
    return state


def _witness(failure: tuple) -> str:
    return failure[1].format(*failure[2:])


def _first_failures(fails: tuple) -> dict:
    """label -> the first failure of each failing label among (A1)-(A3)."""
    return {failure[0]: failure for failure in reversed(fails)}


def _repair_state(D: QuadricDiagram) -> tuple:
    """(``_first_failures``, whether D passes every condition): what the
    engine's repair loops read of ``_fold``.  It decides what
    ``check_conditions`` decides, and builds no report."""
    _, _, _, fails, live = _fold(D, x_profile(D))
    return _first_failures(fails), live


def check_conditions(D: QuadricDiagram) -> AdmissibilityReport:
    """Evaluate conditions (1)-(3) and (A1)-(A3); verdicts, not exceptions.

    Folds ``_place``, which states (3) and (A1)-(A3), over the quadrics;
    each failing label reports its first failure.  (1) and (2) hold for
    every diagram the constructor accepts.
    """
    xs = x_profile(D)
    first, fail3, _, fails, _ = _fold(D, xs)
    conditions = {
        # (1): nondecreasing coranks, r_j <= d_j.  The constructor rejects
        # any diagram that breaks it, so it holds for every QuadricDiagram.
        "1": (True, None),
        # (2): the containment pattern between flag elements and singular
        # loci is exactly what the digit/bracket layout encodes.
        "2": (True, "convention: encoded by the diagram"),
        "3": (True, None) if first or fail3 is None else (False, _witness(fail3)),
        "A1": (True, None),
        "A2": (True, None),
        "A3": (True, None),
    }
    for label, failure in _first_failures(fails).items():
        conditions[label] = (False, _witness(failure))
    warnings = ("COND3-FIRST-CLAUSE",) if first and fail3 is not None else ()
    return AdmissibilityReport(conditions, xs, warnings)


# --- text forms ------------------------------------------------------------

def print_diagram(D: QuadricDiagram, form: str = "canonical") -> str:
    """Render a diagram; ``form`` is "compact", "verbose", or "canonical".

    Canonical output is the compact string whenever every digit fits a single
    character, otherwise the verbose form.
    """
    if form not in ("compact", "verbose", "canonical"):
        raise ValueError(f"unknown form {form!r}")
    compact_ok = D.q <= 9
    if form == "canonical":
        form = "compact" if compact_ok else "verbose"
    if form == "compact":
        if not compact_ok:
            raise ValueError("diagram has digits > 9; use the verbose form")
        digs = digits(D)
        out = []
        for pos in range(1, D.m + 1):
            out.append(str(digs[pos - 1]))
            for b in D.brackets:
                if b.dim == pos:
                    out.append("]'" if b.prime else "]")
            for qq in D.quadrics:
                if qq.d == pos:
                    out.append("}")
        return "".join(out)
    a_part = (
        ",".join(f"{b.dim}'" if b.prime else str(b.dim) for b in D.brackets) or "-"
    )
    q_part = ",".join(f"{q.d}:{q.r}" for q in D.quadrics) or "-"
    return f"m={D.m} k={D.k} a={a_part} q={q_part}"


def _parse_compact(text: str) -> QuadricDiagram:
    digs = []
    brackets = []
    braces = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isdigit():
            digs.append(int(ch))
            i += 1
        elif ch == "]":
            if not digs:
                raise DiagramSyntaxError(i, "bracket before any digit")
            prime = i + 1 < len(text) and text[i + 1] == "'"
            brackets.append(Bracket(len(digs), prime))
            i += 2 if prime else 1
        elif ch == "}":
            if not digs:
                raise DiagramSyntaxError(i, "brace before any digit")
            braces.append(len(digs))
            i += 1
        else:
            raise DiagramSyntaxError(i, f"unexpected character {ch!r}")
    m = len(digs)
    q = len(braces)
    seen_zero = False
    prev = 0
    for pos, v in enumerate(digs, start=1):
        if v == 0:
            seen_zero = True
            continue
        if seen_zero:
            raise InconsistentDigits(f"nonzero digit after a zero at position {pos}")
        if v < prev:
            raise InconsistentDigits(f"digit {v} after {prev} at position {pos}")
        if v > q:
            raise InconsistentDigits(f"digit {v} exceeds the brace count {q}")
        prev = v
    rs = [sum(1 for v in digs if 1 <= v <= j) for j in range(1, q + 1)]
    ds = sorted(braces, reverse=True)
    for b in brackets:
        if b.prime and 2 * b.dim != m:
            raise MarkerMisplaced(f"]' after digit {b.dim}, but m = {m}")
    quadrics = tuple(Quadric(d, r) for d, r in zip(ds, rs))
    return QuadricDiagram(m, tuple(sorted(brackets)), quadrics)


def _parse_verbose(text: str) -> QuadricDiagram:
    fields = {}
    for tok in text.split():
        if "=" not in tok:
            raise DiagramSyntaxError(text.index(tok), f"expected key=value, got {tok!r}")
        key, val = tok.split("=", 1)
        fields[key] = val
    for key in ("m", "k", "a", "q"):
        if key not in fields:
            raise DiagramSyntaxError(0, f"missing field {key}=")
    try:
        m = int(fields["m"])
        k = int(fields["k"])
    except ValueError as exc:
        raise DiagramSyntaxError(0, str(exc)) from None
    brackets = []
    if fields["a"] != "-":
        for part in fields["a"].split(","):
            prime = part.endswith("'")
            try:
                dim = int(part.rstrip("'"))
            except ValueError:
                raise DiagramSyntaxError(text.index(part), f"bad bracket {part!r}") from None
            if prime and 2 * dim != m:
                raise MarkerMisplaced(f"]' at dimension {dim}, but m = {m}")
            brackets.append(Bracket(dim, prime))
    quadrics = []
    if fields["q"] != "-":
        for part in fields["q"].split(","):
            try:
                d, r = part.split(":")
                quadrics.append(Quadric(int(d), int(r)))
            except ValueError:
                raise DiagramSyntaxError(text.index(part), f"bad quadric {part!r}") from None
    D = QuadricDiagram(m, tuple(brackets), tuple(quadrics))
    if D.k != k:
        raise DiagramSyntaxError(0, f"declared k={k} but diagram has k={D.k}")
    return D


def parse_diagram(text: str) -> QuadricDiagram:
    """Parse either text form; the inverse of ``print_diagram`` on its output."""
    stripped = text.strip()
    if not stripped:
        raise DiagramSyntaxError(0, "empty input")
    if stripped.startswith("m="):
        return _parse_verbose(stripped)
    return _parse_compact(stripped)


# --- enumeration -----------------------------------------------------------

def _quadric_profiles(q, m, dims, k, total=None):
    """All (d, r) chains that can sit under the brackets ``dims`` in a
    k-part admissible diagram, in a deterministic order: d strictly
    decreasing, r nondecreasing, d_j + r_j <= m, and flag existence r_j >=
    2 n_s - d_j (the constructor's rule).  Each corank is placed by
    ``_place``, and one under which the chain can no longer pass (3) or
    (A1)-(A3) is skipped with its whole subtree; every corank is at most
    r_q, which (A1) caps (``_a1_cap``).  So every chain yielded passes (1)-(3)
    and (A1)-(A3), and the survivors come in the same order as in an
    unpruned loop.

    With ``total``, only the chains with sum_j (d_j + x_j) = total are
    built, x_j = #{i : n_i <= r_j}.  Each x_j lies in 0..s, and since r_t
    <= m - d_t and r_t <= r_q <= d_q - 3 by (A1), x_t <= #{i : n_i <=
    min(m - d_t, d_q - 3)}; a d-set whose sum exceeds the total, or falls
    short of it by more than qs or than these bounds add up to, is skipped.
    The x_j never decrease along the chain, and a corank whose x_j leaves
    the rest of the chain unable to meet the total is skipped with its
    subtree.
    """
    if q == 0:
        if total is None or total == 0:
            yield ()
        return
    top = dims[-1] if dims else 0
    # the least d_q that leaves the innermost quadric a corank r_q between
    # flag existence, r_q >= 2 n_s - d_q, and (A1)
    lo = top
    while max(2 * top - lo, 0) > _a1_cap(lo):
        lo += 1
    need = room = None
    last = q - 1
    acc = []  # the coranks placed so far
    x_at = [bisect_right(dims, v) for v in range(m + 1)]  # x_j for r_j = v
    for dset in combinations(range(lo, m + 1), q):
        if total is not None:
            need = total - sum(dset)  # what sum_j x_j must come to
            if not 0 <= need <= q * len(dims):  # each x_j lies in 0..s
                continue
        ds = tuple(reversed(dset))  # d_1 > ... > d_q
        cap = _a1_cap(dset[0])  # every corank is at most r_q
        if need is not None:
            # room[j]: the most that x_{j+1}, ..., x_q can add up to
            room = [0] * (q + 1)
            for t in range(q - 1, -1, -1):
                room[t] = room[t + 1] + x_at[min(m - ds[t], cap)]
            if room[0] < need:
                continue

        def fill(j, prev_r, state, xsum):
            d = ds[j]
            for r in range(max(prev_r, 2 * top - d), min(m - d, cap) + 1):
                x = x_at[r]
                if need is not None:
                    if xsum + (q - j) * x > need:
                        break  # x only grows with r
                    if xsum + x + room[j + 1] < need:
                        continue
                placed = _place(k, dims, ds, acc, j, r, x, state)
                if placed[-1]:  # the chain can still pass
                    acc.append(r)
                    if j == last:
                        yield tuple(acc)
                    else:
                        yield from fill(j + 1, r, placed, xsum + x)
                    acc.pop()

        for rs in fill(0, 0, _NO_QUADRICS, 0):
            yield tuple(map(Quadric, ds, rs))


def bracket_sets(k: int, m: int):
    """The bracket tuples of k-part diagrams in ambient m, in canonical order:
    s = 0..k brackets at dimensions <= m/2, a tuple whose largest bracket
    sits at m/2 followed by its primed variant."""
    half = m // 2
    for s in range(0, k + 1):
        for dims in combinations(range(1, half + 1), s):
            yield tuple(Bracket(v) for v in dims)
            if dims and 2 * dims[-1] == m:
                yield tuple(Bracket(v) for v in dims[:-1]) + (Bracket(dims[-1], True),)


def diagrams_with(k: int, m: int, brackets: tuple, dim: int | None = None):
    """The admissible k-part diagrams in ambient m on ``brackets``, one of
    ``bracket_sets(k, m)`` (k and m ints >= 1), in canonical order; with
    ``dim``, only those of ``diagram_dimension`` dim.

    The dimension is not computed per diagram.  Its closed form
    (``_dimension_offset``) fixes sum_j (d_j + x_j) = dim - offset, and
    ``_quadric_profiles`` builds only the chains that meet that total, so a
    dimension with no diagrams yields nothing.

    The diagrams are built without validation (``_unchecked``): the bracket
    set is valid in ambient m, and the chain walk keeps each quadric in
    1..m, d strictly decreasing, r nondecreasing and in 0..d, and above the
    top bracket with room for it (flag existence).
    """
    dims = tuple(b.dim for b in brackets)
    q = k - len(dims)
    total = None if dim is None else dim - _dimension_offset(dims, q)
    build = QuadricDiagram._unchecked
    for quadrics in _quadric_profiles(q, m, dims, k, total):
        yield build(m, brackets, quadrics)


def enumerate_diagrams(k: int, m: int, dim: int | None = None):
    """Every admissible diagram with k parts in ambient m, in canonical order
    (``diagrams_with`` for each tuple of ``bracket_sets``); with ``dim``,
    only those of ``diagram_dimension`` dim, in the same order.

    Quadrics range over chains with d_j + r_j <= m, so every diagram yielded
    fits its ambient.  ``_quadric_profiles`` never builds a chain that breaks
    flag existence, (3) or (A1)-(A3), so every diagram yielded passes (1)-(3)
    and (A1)-(A3) by construction and none is checked here; the tests assert
    ``check_conditions`` on every one.  Raises ``OutOfBounds`` unless k and
    m are ints >= 1 and dim is None or an int.
    """
    if type(k) is not int or type(m) is not int:
        raise OutOfBounds(f"k and m must be ints, got k={k!r}, m={m!r}")
    if dim is not None and type(dim) is not int:
        raise OutOfBounds(f"dim must be None or an int, got {dim!r}")
    if k < 1 or m < 1:
        raise OutOfBounds(f"need k >= 1 and m >= 1, got k={k}, m={m}")
    for brackets in bracket_sets(k, m):
        yield from diagrams_with(k, m, brackets, dim)
