"""Frozen records: plain slotted classes whose fields are their `__slots__`.

The package defines its records this way rather than with `dataclasses`,
whose import (with `inspect`, `ast`, `dis` and `tokenize`) would dominate
the start-up of each `tgw` command."""
from __future__ import annotations

_set = object.__setattr__


class Record:
    """A record over the fields its class names in `__slots__`: `__init__`
    takes them in that order, records of one class with equal fields are
    equal and hash alike, and assignment raises."""

    __slots__ = ()

    def __init__(self, *values):
        names = self.__slots__
        if len(values) != len(names):
            raise TypeError(f"{type(self).__name__} takes fields {names}")
        for name, value in zip(names, values):
            _set(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__name__}({fields})"
