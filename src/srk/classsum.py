"""Formal integer linear combinations over a combinatorial basis.

A ``ClassSum`` stores a finite map from basis elements (GrIndex or OgIndex)
to nonzero integer coefficients.  All basis elements must live in the same
ambient space, and iteration always follows the canonical total order given
by each element's ``sort_key``, so printed output is deterministic.
"""

from __future__ import annotations


class ClassSum:
    """Immutable formal sum ``sum_i c_i * basis_i`` with integer c_i != 0."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        acc = {}
        if terms:
            items = terms.items() if hasattr(terms, "items") else terms
            for basis, coeff in items:
                if not isinstance(coeff, int):
                    raise TypeError(f"coefficient must be int, got {coeff!r}")
                c = acc.get(basis, 0) + coeff
                if c:
                    acc[basis] = c
                else:
                    acc.pop(basis, None)
        if len(acc) > 1:
            spaces = {(type(b), b.k, b.n) for b in acc}
            if len(spaces) > 1:
                raise ValueError(f"mixed ambient spaces in one sum: {spaces}")
            acc = dict(sorted(acc.items(), key=lambda kv: kv[0].sort_key))
        self._terms = acc

    @classmethod
    def zero(cls) -> "ClassSum":
        return cls()

    @classmethod
    def single(cls, basis, coeff: int = 1) -> "ClassSum":
        return cls({basis: coeff})

    def items(self):
        """Pairs (basis, coefficient) in canonical order."""
        return list(self._terms.items())

    def __iter__(self):
        return iter(self._terms.items())

    def __len__(self):
        return len(self._terms)

    def __bool__(self):
        return bool(self._terms)

    def __contains__(self, basis):
        return basis in self._terms

    def __getitem__(self, basis) -> int:
        return self._terms.get(basis, 0)

    def __eq__(self, other):
        if not isinstance(other, ClassSum):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(tuple(self._terms.items()))

    def __add__(self, other: "ClassSum") -> "ClassSum":
        if not isinstance(other, ClassSum):
            return NotImplemented
        merged = dict(self._terms)
        for basis, coeff in other._terms.items():
            c = merged.get(basis, 0) + coeff
            if c:
                merged[basis] = c
            else:
                del merged[basis]
        return ClassSum(merged)

    def __rmul__(self, scalar: int) -> "ClassSum":
        if not isinstance(scalar, int):
            return NotImplemented
        if scalar == 0:
            return ClassSum()
        return ClassSum({b: scalar * c for b, c in self._terms.items()})

    __mul__ = __rmul__

    def map_basis(self, fn) -> "ClassSum":
        """Sum of ``coeff * fn(basis)`` where fn returns a new basis element."""
        return ClassSum((fn(b), c) for b, c in self._terms.items())

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for basis, coeff in self._terms.items():
            parts.append(str(basis) if coeff == 1 else f"{coeff}{basis}")
        return " + ".join(parts)

    def __repr__(self):
        return f"ClassSum({self._terms!r})"
