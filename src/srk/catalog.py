"""Index enumeration and the JSONL classification catalog.

``enumerate_og`` walks every Schubert index of OG(k,n) exactly once in
canonical order.  When n is even, an index whose largest b-part equals
n/2 - 1 names the same class as a primed-bracket index (the orthogonal
complement of F_{n/2-1} is a single chosen maximal isotropic space), so only
the bracket form is emitted; the counts then match the Weyl-group quotient
orders.
"""

from __future__ import annotations

import json
from itertools import combinations
from typing import NamedTuple

from .errors import CatalogIOError, NoIsotropicRoom, OutOfBounds, SchemaError, ValidationError
from .grassmannian import (
    GrIndex,
    gr_dimension,
    gr_envelope,
    gr_essential,
    gr_rigid_class,
    gr_rigid_index,
)
from .orthogonal import OgIndex, og_dimension
from .rigidity import classify_og


def enumerate_gr(k: int, n: int):
    """Every Schubert index of G(k,n), lexicographically."""
    if type(k) is not int or type(n) is not int:
        raise OutOfBounds(f"k and n must be ints, got k={k!r}, n={n!r}")
    if not (1 <= k <= n):
        raise OutOfBounds(f"need 1 <= k <= n, got k={k}, n={n}")
    for a in combinations(range(1, n + 1), k):
        yield GrIndex(k, n, a)


def enumerate_og(k: int, n: int):
    """Every Schubert index of OG(k,n) exactly once, canonical order.

    s runs over 0..k, primed variants are included, indices with
    a_i = b_j + 1 (unions of two Schubert varieties) are excluded, and
    even-n synonyms with b_{k-s} = n/2 - 1 are not generated: their
    primed-bracket form is.
    """
    if type(k) is not int or type(n) is not int:
        raise OutOfBounds(f"k and n must be ints, got k={k!r}, n={n!r}")
    if k < 1:
        raise OutOfBounds(f"need k >= 1, got {k}")
    if n < 2 * k:
        raise NoIsotropicRoom(f"OG({k},{n}): need n >= 2k")
    half = n // 2
    # b_j <= n/2 - 1, and for even n b_j = n/2 - 1 is a primed bracket
    b_top = (n - 3) // 2
    for s in range(0, k + 1):
        for a in combinations(range(1, half + 1), s):
            splits = {av - 1 for av in a}  # b_j = a_i - 1 splits the locus
            primes = [False]
            if s and 2 * a[-1] == n:
                primes.append(True)
            for prime in primes:
                for b in combinations(range(0, b_top + 1), k - s):
                    if splits.isdisjoint(b):
                        yield OgIndex(k, n, a, b, prime)


class CatalogRecord(NamedTuple):
    """One classified index; ``envelope`` is set only for G, the b-side
    fields only for OG."""

    space: str
    k: int
    n: int
    a: tuple
    b: tuple | None
    prime: bool | None
    dim: int
    essential_a: tuple
    essential_b: tuple | None
    rigid_a: tuple
    rigid_b: tuple | None
    class_rigid: bool
    envelope: tuple | None
    warnings: tuple

    @property
    def sort_key(self):
        return (
            self.space,
            self.k,
            self.n,
            len(self.a),
            self.a,
            int(bool(self.prime)),
            self.b or (),
        )

    def to_json_line(self) -> str:
        out = {}
        for name, value in zip(self._fields, self):
            out[name] = list(value) if isinstance(value, tuple) else value
        return _ENCODER.encode(out)


# A record's JSON keys, in line order; ``read_catalog`` wants exactly these.
_FIELD_SET = frozenset(CatalogRecord._fields)
# One compact encoder for every line; ``json.dumps`` with ``separators``
# would build a new one per call.
_ENCODER = json.JSONEncoder(separators=(",", ":"))


def _essential(verdicts) -> tuple:
    """The 1-based positions whose verdict is not ``not_essential``."""
    return tuple(i for i, v in enumerate(verdicts, start=1) if v.is_essential)


def build_record(x) -> CatalogRecord:
    """Classify one index into a catalog record."""
    if isinstance(x, GrIndex):
        ess = tuple(sorted(gr_essential(x)))
        return CatalogRecord(
            space="G",
            k=x.k,
            n=x.n,
            a=x.a,
            b=None,
            prime=None,
            dim=gr_dimension(x),
            essential_a=ess,
            essential_b=None,
            rigid_a=tuple(gr_rigid_index(x, i).token() for i in range(1, x.k + 1)),
            rigid_b=None,
            class_rigid=gr_rigid_class(x),
            envelope=gr_envelope(x).a,
            warnings=(),
        )
    if isinstance(x, OgIndex):
        rep = classify_og(x)
        return CatalogRecord(
            space="OG",
            k=x.k,
            n=x.n,
            a=x.a,
            b=x.b,
            prime=x.prime,
            dim=og_dimension(x),
            essential_a=_essential(rep.a_verdicts),
            essential_b=_essential(rep.b_verdicts),
            rigid_a=tuple(v.token() for v in rep.a_verdicts),
            rigid_b=tuple(v.token() for v in rep.b_verdicts),
            class_rigid=rep.class_rigid,
            envelope=None,
            warnings=rep.warnings,
        )
    raise TypeError(f"cannot build a record from {type(x).__name__}")


def _io_error(verb: str, path, exc: OSError) -> CatalogIOError:
    return CatalogIOError(f"cannot {verb} catalog {path}: {exc.strerror or exc}")


def write_catalog(records, path) -> None:
    """Write records as JSON Lines, sorted canonically; byte-deterministic.
    Raises CatalogIOError when the file cannot be written."""
    ordered = sorted(records, key=lambda r: r.sort_key)
    text = "".join([rec.to_json_line() + "\n" for rec in ordered])
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _io_error("write", path, exc) from exc


# Each field's JSON type and, for a list, its items' type; the parts of a
# and b are checked when the index is rebuilt.
_FIELD_TYPES = {
    "space": (str, None),
    "k": (int, None),
    "n": (int, None),
    "a": (list, None),
    "b": (list, None),
    "prime": (bool, None),
    "dim": (int, None),
    "essential_a": (list, int),
    "essential_b": (list, int),
    "rigid_a": (list, str),
    "rigid_b": (list, str),
    "class_rigid": (bool, None),
    "envelope": (list, int),
    "warnings": (list, str),
}
# Per space, (field, type, item type) in line order; the fields that only
# the other space fills are null.
_SPACE_TYPES = {
    space: tuple(
        (name, type(None), None) if name in nulls else (name, *_FIELD_TYPES[name])
        for name in CatalogRecord._fields
    )
    for space, nulls in (("G", ("b", "prime", "essential_b", "rigid_b")), ("OG", ("envelope",)))
}


def _record_from_dict(obj: dict, line_no: int) -> CatalogRecord:
    """The record of one decoded line, once every field has its type and
    (k, n, a, b, prime) validates as an index of the line's space."""
    keys = obj.keys()
    if keys != _FIELD_SET:
        raise SchemaError(line_no, f"fields {sorted(keys ^ _FIELD_SET)} mismatched")
    space = obj["space"]
    if space not in ("G", "OG"):
        raise SchemaError(line_no, f"field 'space' has a bad value {space!r}")
    values = []
    for name, kind, item in _SPACE_TYPES[space]:
        value = obj[name]
        if type(value) is not kind or item and any(type(e) is not item for e in value):
            raise SchemaError(line_no, f"field {name!r} has a bad value {value!r}")
        values.append(tuple(value) if kind is list else value)
    try:
        if space == "OG":
            OgIndex(obj["k"], obj["n"], obj["a"], obj["b"], obj["prime"])
        else:
            GrIndex(obj["k"], obj["n"], obj["a"])
    except ValidationError as exc:
        raise SchemaError(line_no, f"fields 'k', 'n', 'a', 'b', 'prime': {exc}") from None
    return CatalogRecord(*values)


def read_catalog(path):
    """Read a JSONL catalog back; inverse of ``write_catalog``.  Raises
    CatalogIOError when the file cannot be read, and SchemaError, naming the
    line and the field, on a line that is not a record: bad JSON, missing or
    extra keys, a value of the wrong JSON type, or an index that does not
    validate."""
    out = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise SchemaError(line_no, exc.msg) from None
                if not isinstance(obj, dict):
                    raise SchemaError(line_no, "expected a JSON object")
                out.append(_record_from_dict(obj, line_no))
    except OSError as exc:
        raise _io_error("read", path, exc) from exc
    return out
