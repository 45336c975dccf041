"""Equality and repr by named fields, shared by srk's value and step types."""


class Fields:
    """``repr`` and equality read the attributes named in ``_fields``, in
    order; an instance equals only an instance of its own class."""

    __slots__ = ()
    _fields = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __repr__(self):
        args = ", ".join([f"{f}={v!r}" for f, v in zip(self._fields, self._astuple())])
        return f"{self.__class__.__name__}({args})"


class Frozen(Fields):
    """An immutable, hashable ``Fields`` whose ``_fields`` are its
    ``__init__`` parameters, in order.  ``__init__`` validates, then stores
    every attribute with one ``__dict__`` update, among them ``_key``, the
    fields' values, and ``_hash``, its hash, which is taken only there.
    Assigning or deleting an attribute raises ``AttributeError``."""

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuilt through __init__, so that the hash is taken in the new process
        return self.__class__, self._key

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__
