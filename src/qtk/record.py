"""Immutable value records.

A record class lists its fields once, as its __slots__ in constructor
order; slots whose names start with "_" are private state, not fields.
Fields may be passed positionally or by keyword, and `_defaults` supplies
the trailing ones left out.  The constructor runs `_check`, which validates
the fields and may fill private slots with object.__setattr__.  Records of
the same class are equal when all their fields are, and then hash alike;
after construction no attribute can be assigned.

These are plain slotted classes rather than dataclasses: importing
`dataclasses` and generating its methods cost each qtk process about 25 ms
of start-up, as much as a small command spends on its mathematics.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    _defaults: dict = {}
    # Set per class by __init_subclass__: the inherited fields, then its own.
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__slots__", ())
        cls._fields += tuple(name for name in own if not name.startswith("_"))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__}() takes at most {len(fields)} "
                            f"arguments ({len(args)} given)")
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        for name in fields[len(args):]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in self._defaults:
                value = self._defaults[name]
            else:
                raise TypeError(f"{type(self).__name__}() missing argument {name!r}")
            object.__setattr__(self, name, value)
        if kwargs:
            raise TypeError(f"{type(self).__name__}() got unexpected or repeated "
                            f"argument(s) {', '.join(sorted(kwargs))}")
        self._check()

    def _check(self) -> None:
        """Validate the fields; raise on bad input."""

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"
