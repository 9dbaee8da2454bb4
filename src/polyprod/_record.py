"""The immutable value classes' one base, in place of ``dataclasses``.

A record names its fields in ``_fields``, declares them as ``__slots__``
(or keeps an instance dict when it needs one) and sets them in its own
``__init__`` through ``object.__setattr__``, validating there.  The base
gives what ``dataclass(frozen=True)`` gave: equality with records of the
same class only, a hash over the fields, the ``Name(field=value, ...)``
repr, assignment and deletion refused, and ``pickle``, ``copy`` and
``deepcopy`` rebuilding through ``__init__``.

Why not dataclasses: every command and benchmark round imports the
package cold.  ``import dataclasses``, which pulls in ``inspect``, ``ast``,
``dis`` and ``tokenize``, took 7.6-12.5 ms of it, and decorating the 17
frozen classes 11.9-19.7 ms more (8 runs, Python 3.11 on a 2-core Xeon
VM).  The hot classes write ``__eq__`` and ``__hash__`` out on their own
fields: Python 3.11 specializes direct attribute loads, so a complex's
equality took 165 ns as a dataclass, 288 ns through a generic getter and
112-221 ns written out.
"""


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()
