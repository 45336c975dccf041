"""Quadric diagrams: the bracket/brace/digit encoding of restriction varieties.

A restriction variety in OG(k,n) is cut out by a flag of isotropic subspaces
F_{n_1} c ... c F_{n_s} and sub-quadrics Q_{d_q}^{r_q} c ... c Q_{d_1}^{r_1}
(d = dimension of the spanning linear space, r = corank).  Its diagram is a
string of m digits (m = ambient dimension) with a bracket ``]`` after the
n_i-th digit for each isotropic space and a brace ``}`` after the d_j-th digit
for each quadric; the l-th digit equals j when r_{j-1} < l <= r_j (r_0 = 0)
and 0 when l > r_q.  When m is even, an isotropic space of dimension m/2 in
the second family is marked ``]'``.

Admissibility conditions checked here, by label:

  (1)   coranks nested inward: r_1 <= ... <= r_q and r_j <= d_j;
  (2)   flag/singular-locus containment pattern -- encoded by the diagram
        itself, recorded as convention-satisfied;
  (3)   either all coranks equal r_1 with r_1 among the bracket dimensions,
        or r_t - r_i >= t - i - 1 for all t > i, with an extra constraint on
        consecutive equal coranks above r_1;
  (A1)  r_q <= d_q - 3;
  (A2)  n_i - r_j != 1 for every bracket/quadric pair;
  (A3)  x_j >= k - j + 1 - floor((d_j - r_j)/2), where x_j = #{i : n_i <= r_j}.

``enumerate_diagrams`` yields only admissible diagrams, one bracket set
(``bracket_sets``) at a time (``diagrams_with``).  It prunes each quadric
chain while generating it: a corank that breaks flag existence, (3) or one
of (A1)-(A3) given the chain placed so far is skipped with its whole
subtree, so every diagram it yields is admissible by construction and is not
checked again there; the tests assert ``check_conditions`` on every one.
Asked for one dimension, it also skips every chain whose diagram cannot have
it, so the diagrams of one dimension cost less than a walk of the space.
Besides the enumerator, admissibility is decided only by the degeneration
engine: at entry, for a root, and in its repair loops, for a derived diagram.

Diagrams are immutable; every function here is pure.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import combinations
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


class QuadricDiagram(Frozen):
    """Structurally valid diagram; admissibility is a separate check.

    Its shape (``bracket_dims``, ``ds``, ``rs``, ``sums``, ``s``, ``q``,
    ``k``) and its hash are computed once, at construction; equality,
    hashing and ``repr`` see only (m, brackets, quadrics): ``Bracket``s with
    dims strictly increasing, ``Quadric``s with d strictly decreasing and r
    nondecreasing.
    """

    _fields = ("m", "brackets", "quadrics")

    def __init__(self, m, brackets, quadrics):
        # Every diagram the enumerator and the engine build comes through
        # here, so the checks are plain loops, in a fixed order; the parts'
        # types are checked first.
        try:
            brackets = tuple([b if type(b) is Bracket else Bracket(*b) for b in brackets])
            quadrics = tuple([q if type(q) is Quadric else Quadric(*q) for q in quadrics])
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
        key = (m, brackets, quadrics)
        self.__dict__.update({
            "_key": key, "_hash": hash(key),
            "m": m, "brackets": brackets, "quadrics": quadrics,
            "bracket_dims": dims, "ds": ds, "rs": rs,
            "sums": tuple(map(add, ds, rs)), "s": s, "q": q, "k": s + q,
        })

    def digit_at(self, pos: int) -> int:
        """Digit at 1-based position pos: the j with r_{j-1} < pos <= r_j."""
        for j, q in enumerate(self.quadrics, start=1):
            if pos <= q.r:
                return j
        return 0

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
    describes the first violation.  ``ok`` is decided once, at construction."""

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

    def witness(self, label: str):
        return self.conditions[label][1]


def x_profile(D: QuadricDiagram) -> tuple:
    """x_j = number of brackets with n_i <= r_j."""
    dims = D.bracket_dims  # strictly increasing
    return tuple([bisect_right(dims, r) for r in D.rs])


def _a2_bracket(D: QuadricDiagram):
    """The first bracket dimension n_i with n_i = r_j + 1 for some j, where
    (A2) fails; None when (A2) holds."""
    rs = D.rs
    for v in D.bracket_dims:
        if v - 1 in rs:
            return v
    return None


def diagram_dimension(D: QuadricDiagram) -> int:
    """Dimension of the restriction variety of D, by the closed form

        sum_i (n_i - i) + sum_j (d_j - 2s - 2j + x_j),  x_j = #{i : n_i <= r_j}.

    On the Schubert diagram of an index (d_j = m - b_j, r_j = b_j) this is
    ``og_dimension``'s formula.  Every term of ``expand(D)`` has this
    dimension, and every diagram ``step`` derives from D has it too (both
    checked exhaustively in the tests).
    """
    s = D.s
    total = sum(D.bracket_dims) - s * (s + 1) // 2
    for j, (d, x) in enumerate(zip(D.ds, x_profile(D)), start=1):
        total += d - 2 * s - 2 * j + x
    return total


def check_conditions(D: QuadricDiagram) -> AdmissibilityReport:
    """Evaluate conditions (1)-(3) and (A1)-(A3); verdicts, not exceptions.

    Every condition is decided in one pass over the parts.  The constructor
    keeps the coranks nondecreasing, so r_t - r_i >= t - i - 1 holds for
    t = i + 1 and all coranks equal r_1 exactly when r_q does.
    """
    ds, rs, dims = D.ds, D.rs, D.bracket_dims
    q = D.q
    xs = x_profile(D)

    # (3): the first clause, or the second, r_t - r_i >= t - i - 1 for all
    # t > i and, at the first equal pair above r_1, adjacent braces and
    # d_i - d_{i+1} = r_{i+1} - r_i from there inward.  When that pair
    # passes, every later corank step is at least 1 (the d's strictly
    # decrease), so the first pair is the only one to check.
    first = bool(q) and rs[-1] == rs[0] and rs[0] in dims
    wit3 = None
    for i in range(q - 2):
        for t in range(i + 2, q):
            if rs[t] - rs[i] < t - i - 1:
                wit3 = f"r_{t + 1} - r_{i + 1} < {t - i - 1}"
                break
        if wit3:
            break
    else:
        for t in range(1, q):
            if rs[t] == rs[t - 1] > rs[0]:
                if ds[t - 1] - ds[t] != 1:
                    wit3 = f"d_{t} - d_{t + 1} != 1"
                else:
                    for i in range(t, q - 1):
                        if ds[i] - ds[i + 1] != rs[i + 1] - rs[i]:
                            wit3 = f"d_{i + 1} - d_{i + 2} != r gap"
                            break
                break
    second = wit3 is None
    # the verdict hinges on reading "r_i = r_1 = n_{r_1}" as "all coranks
    # equal r_1 and r_1 is a bracket dimension"
    warnings = ("COND3-FIRST-CLAUSE",) if first and not second else ()

    okA1 = not q or rs[-1] <= ds[-1] - 3

    v = _a2_bracket(D)
    witA2 = None if v is None else f"bracket {v} = r_{rs.index(v - 1) + 1} + 1"

    witA3 = None
    k = D.k
    for j in range(1, q + 1):
        need = k - j + 1 - (ds[j - 1] - rs[j - 1]) // 2
        if xs[j - 1] < need:
            witA3 = f"x_{j} = {xs[j - 1]} < {need}"
            break

    return AdmissibilityReport(
        {
            # (1): nondecreasing coranks, r_j <= d_j.  The constructor rejects
            # any diagram that breaks it, so it holds for every QuadricDiagram.
            "1": (True, None),
            # (2): the containment pattern between flag elements and singular
            # loci is exactly what the digit/bracket layout encodes.
            "2": (True, "convention: encoded by the diagram"),
            "3": (True, None) if first or second else (False, wit3),
            "A1": (True, None) if okA1 else (False, f"r_q = {rs[-1]} > {ds[-1] - 3}"),
            "A2": (witA2 is None, witA2),
            "A3": (witA3 is None, witA3),
        },
        xs,
        warnings,
    )


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
    if not digs:
        raise DiagramSyntaxError(0, "no digits")
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
    k-part diagram: d strictly decreasing >= the largest bracket, r
    nondecreasing, r_j <= d_j and d_j + r_j <= m.  Deterministic order.

    While the chain is filled, a corank is skipped as soon as the chain so
    far breaks a rule, so no chain is built that must fail:

      flag existence  r_j >= 2 n_s - d_j (the constructor's rule);
      (A1)            r_q <= d_q - 3 on the innermost quadric;
      (A2)            r_j + 1 is not a bracket dimension;
      (A3)            #{i : n_i <= r_j} >= k - j + 1 - floor((d_j - r_j)/2);
      (3)             the second clause for the chain so far (below), or
                      else the first: every corank equals r_1 and r_1 is a
                      bracket dimension.

    The second clause of (3) is decided corank by corank: r_j - r_i >=
    j - i - 1 for every earlier i; at the first equal pair above r_1,
    r_{t-1} = r_t > r_1, the braces are adjacent, d_{t-1} - d_t = 1; after
    that pair each step keeps r_j - r_{j-1} = d_{j-1} - d_j.

    With ``total``, only the chains with sum_j (d_j + x_j) = total are
    built, x_j = #{i : n_i <= r_j}.  Each x_j lies in 0..s, and since r_t
    <= m - d_t and r_t <= r_q <= d_q - 3, x_t <= #{i : n_i <= min(m - d_t,
    d_q - 3)}; a d-set whose sum exceeds the total, or falls short of it by
    more than qs or than these bounds add up to, is skipped.  The x_j never
    decrease along the chain, and a corank whose x_j leaves the rest of the
    chain unable to meet the total is skipped with its subtree.

    Every chain yielded passes (1)-(3) and (A1)-(A3).  The skipped coranks
    would all fail later, so the survivors come in the same order as in an
    unpruned loop.
    """
    if q == 0:
        if total is None or total == 0:
            yield ()
        return
    top = dims[-1] if dims else 0
    # 2 n_s - d_q <= r_q <= d_q - 3 (flag existence, (A1)), so d_q >= n_s + 2
    # and d_q >= 3; a d-set with a smaller d_q yields no chain
    lo = max(top + 2, 3)
    need = room = None
    x_at = [bisect_right(dims, v) for v in range(m + 1)]  # x_j for r_j = v
    for dset in combinations(range(lo, m + 1), q):
        ds = tuple(reversed(dset))  # d_1 > ... > d_q
        if total is not None:
            need = total - sum(dset)  # what sum_j x_j must come to
            if not 0 <= need <= q * len(dims):  # each x_j lies in 0..s
                continue
            # room[j]: the most that x_{j+1}, ..., x_q can add up to
            room = [0] * (q + 1)
            for t in range(q - 1, -1, -1):
                room[t] = room[t + 1] + x_at[min(m - ds[t], dset[0] - 3)]
            if room[0] < need:
                continue

        def fill(j, prev_r, acc, second, tail, xsum):
            # second: the chain so far passes the second clause of (3);
            # tail: it holds an equal pair above r_1; xsum: sum of its x's
            if j == q:
                yield tuple(acc)
                return
            d = ds[j]
            cap = min(d, m - d)
            if j == q - 1:
                cap = min(cap, d - 3)  # (A1)
            for r in range(max(prev_r, 2 * top - d), cap + 1):
                x = x_at[r]
                if need is not None:
                    if xsum + (q - j) * x > need:
                        break  # x only grows with r
                    if xsum + x + room[j + 1] < need:
                        continue
                # (A2), then (A3) for the quadric numbered j + 1
                if r + 1 in dims or x < k - j - (d - r) // 2:
                    continue
                ok, pair = second, tail
                if j and ok:
                    for i in range(j - 1):
                        if r - acc[i] < j - i - 1:
                            ok = False
                            break
                    else:
                        if tail:
                            ok = r - prev_r == ds[j - 1] - d
                        elif r == prev_r > acc[0]:
                            ok, pair = ds[j - 1] - d == 1, True
                if not ok and not (r == acc[0] and r in dims):
                    continue
                acc.append(r)
                yield from fill(j + 1, r, acc, ok, pair, xsum + x)
                acc.pop()

        for rs in fill(0, 0, [], True, False, 0):
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
    """The admissible k-part diagrams in ambient m on the tuple ``brackets``,
    in canonical order; with ``dim``, only those of ``diagram_dimension`` dim.

    The dimension is not computed per diagram.  Its closed form fixes
    sum_j (d_j + x_j) = dim - sum_i n_i + s(s+1)/2 + 2sq + q(q+1), and
    ``_quadric_profiles`` builds only the chains that meet that total, so a
    dimension with no diagrams yields nothing.
    """
    dims = tuple(b.dim for b in brackets)
    s, q = len(dims), k - len(dims)
    total = None
    if dim is not None:
        total = dim - sum(dims) + s * (s + 1) // 2 + 2 * s * q + q * (q + 1)
    for quadrics in _quadric_profiles(q, m, dims, k, total):
        yield QuadricDiagram(m, brackets, quadrics)


def enumerate_diagrams(k: int, m: int, dim: int | None = None):
    """Every admissible diagram with k parts in ambient m, in canonical order
    (``diagrams_with`` for each tuple of ``bracket_sets``); with ``dim``,
    only those of ``diagram_dimension`` dim, in the same order.

    Quadrics range over chains with d_j + r_j <= m, so every diagram yielded
    fits its ambient.  ``_quadric_profiles`` never builds a chain that breaks
    flag existence, (3) or (A1)-(A3), so every diagram yielded passes (1)-(3)
    and (A1)-(A3) by construction and none is checked here; the tests assert
    ``check_conditions`` on every one.  Raises ``OutOfBounds`` unless k and
    m are ints >= 1.
    """
    if type(k) is not int or type(m) is not int:
        raise OutOfBounds(f"k and m must be ints, got k={k!r}, m={m!r}")
    if k < 1 or m < 1:
        raise OutOfBounds(f"need k >= 1 and m >= 1, got k={k}, m={m}")
    for brackets in bracket_sets(k, m):
        yield from diagrams_with(k, m, brackets, dim)
