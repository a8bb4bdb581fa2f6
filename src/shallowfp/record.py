"""`Record`, the base of every value class of the package.

A record's fields are its ``__slots__``.  The generic ``__init__`` takes
one positional argument per slot, in slot order; a class that checks its
arguments or gives them defaults does so in its own ``__init__`` and then
calls ``super().__init__``.  Records of one class compare and hash by their
fields in slot order (a class with an array or dict field overrides
``__eq__`` or ``__hash__``), and refuse later assignment, as frozen data
classes do; the standard module for those imports `inspect`, and the two add
about 16 ms to the start of a fresh interpreter (Python 3.11, 2-vCPU VM).
"""
from __future__ import annotations


class Record:
    __slots__ = ()

    def __init__(self, *fields):
        if len(fields) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} fields, "
                            f"got {len(fields)}")
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

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
