"""Frozen records whose methods are written once, not generated per class.

``dataclasses.dataclass`` compiles an ``__init__``, ``__repr__``, ``__eq__``,
``__hash__``, ``__setattr__`` and ``__delattr__`` for each class it
decorates, six ``exec`` calls per class that every process pays at import,
with cached bytecode or without.  A ``Record`` subclass declares its fields
as a dataclass does and is a dataclass to ``dataclasses.fields``,
``replace``, ``asdict`` and ``is_dataclass``, but the decorator only
collects those fields: the six methods are this class's, shared by all.
"""

from __future__ import annotations

from dataclasses import MISSING, FrozenInstanceError, dataclass, fields

__all__ = ["Record"]


class Record:
    """Base of an immutable record, declared as a frozen dataclass is.

    The constructor takes the fields by position or keyword, fills the rest
    from their ``default`` or ``default_factory``, then calls
    ``__post_init__``, which may set a field with ``object.__setattr__``.
    Records of one class are equal, and hash alike, when their fields are
    equal; the repr leaves out ``field(repr=False)`` fields.
    """

    _fields = ()    # the class's dataclasses.Field objects, in order

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        dataclass(cls, init=False, repr=False, eq=False)
        cls._fields = fields(cls)

    def __init__(self, *args, **kwargs):
        name = type(self).__name__
        if len(args) > len(self._fields):
            raise TypeError(f"{name}() takes {len(self._fields)} arguments, "
                            f"not {len(args)}")
        for f, value in zip(self._fields, args):
            if f.name in kwargs:
                raise TypeError(f"{name}() got two values for {f.name!r}")
            kwargs[f.name] = value
        for f in self._fields:
            value = kwargs.pop(f.name, MISSING)
            if value is MISSING:
                if f.default is not MISSING:
                    value = f.default
                elif f.default_factory is not MISSING:
                    value = f.default_factory()
                else:
                    raise TypeError(f"{name}() missing argument {f.name!r}")
            object.__setattr__(self, f.name, value)
        if kwargs:
            raise TypeError(f"{name}() got unknown argument {min(kwargs)!r}")
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, f.name) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{f.name}={getattr(self, f.name)!r}"
                          for f in self._fields if f.repr)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")
