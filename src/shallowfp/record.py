"""`Record`, the base of the small value classes that `gen`, `circuit` and
`simulate --j` build.

A record's fields are its ``__slots__``, which ``__init__`` sets through
``object.__setattr__``.  Records of one class compare and hash by their
fields in slot order, and refuse later assignment.  A frozen dataclass
gives the same, but the `dataclasses` module imports `inspect`, and the
two add about 16 ms to the start of a fresh interpreter (Python 3.11,
2-vCPU VM).
"""
from __future__ import annotations


class Record:
    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return type(self), self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")
