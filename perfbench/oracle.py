"""Checks on srk's answers that do not run the degeneration engine."""

from __future__ import annotations

import hashlib
import math


def og_dimension_closed_form(k: int, n: int, a, b) -> int:
    """dim of the OG(k,n) Schubert variety of index (a; b):

    sum_i (a_i - i) + sum_j (n - b_j - s - 2j - #{i : a_i > b_j}).
    """
    s = len(a)
    return sum(v - i for i, v in enumerate(a, start=1)) + sum(
        n - bv - s - 2 * j - sum(1 for av in a if av > bv)
        for j, bv in enumerate(b, start=1)
    )


def og_cell_count(k: int, n: int) -> int:
    """Number of Schubert cells of OG(k,n), counting both families when
    n = 2k: |W| / |W_P| = 2^k * C(floor(n/2), k).
    """
    return 2**k * math.comb(n // 2, k)


def asserted_position(k: int, n: int, a, b, position):
    """The flag element a query position asserts, after the even-n rewrite.

    Returns ("bracket", dim, i) for an a-side assertion (the i-th bracket
    sits at dim) or ("quadric", n - b_j, b_j) for a b-side one.  When n is
    even and the largest b-part is n/2 - 1, that part names the primed
    bracket at n/2, which becomes the last a-part.
    """
    kind, idx = position
    a, b = tuple(a), tuple(b)
    rewrite = n % 2 == 0 and b and b[-1] == n // 2 - 1
    if rewrite:
        a, b = a + (n // 2,), b[:-1]
        if kind == "b" and idx == len(b) + 1:
            kind, idx = "a", len(a)
    if kind == "a":
        return ("bracket", a[idx - 1], idx)
    return ("quadric", n - b[idx - 1], b[idx - 1])


def omits_assertion(brackets, quadrics, asserted) -> bool:
    """Whether a diagram (bracket dims, (d, r) quadrics) lacks the asserted
    flag element: the i-th bracket elsewhere, or the asserted quadric's
    span present with a smaller corank."""
    what, x, y = asserted
    if what == "bracket":
        return not (len(brackets) >= y and brackets[y - 1] == x)
    return any(d == x and r < y for d, r in quadrics)


def digest(answer: str) -> str:
    """Short stable fingerprint of an answer, as stored in the golden table."""
    return hashlib.sha256(answer.encode("utf-8")).hexdigest()[:16]
