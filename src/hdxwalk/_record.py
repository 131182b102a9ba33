"""Immutable value classes without generated code.

A subclass of :class:`Record` lists its fields as its own class annotations,
in order, each with an optional class-level default.  The base reads them
once, when the subclass is created, and serves every subclass with the same
``__init__`` (positional or keyword arguments), field-wise ``__eq__`` (within
one class) and ``__hash__``, a ``Name(field=value, ...)`` repr and
``asdict``.  The base checks no field values.  Fields cannot be assigned or
deleted; ``functools.cached_property`` still works, because it writes the
instance ``__dict__`` directly.  This is what
``@dataclass(frozen=True)`` gave these classes, without compiling methods per
class or importing the dataclass module and ``inspect`` at every start-up.
"""

from operator import attrgetter


class Record:
    """Immutable value with named fields, compared and hashed field by field."""

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}
        # One C call reads every field; given a single name, attrgetter returns the bare value.
        get = attrgetter(*cls._fields)
        cls._get = staticmethod(get if len(cls._fields) > 1 else lambda record: (get(record),))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(fields, args))

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """Field values in field order from a call's arguments, as a function would bind them."""
        fields, name = cls._fields, cls.__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        for key in kwargs:
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if fields.index(key) < len(args):
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
        values = {**cls._defaults, **dict(zip(fields, args)), **kwargs}
        missing = [repr(f) for f in fields if f not in values]
        if missing:
            raise TypeError(f"{name}() missing required arguments: {', '.join(missing)}")
        return [values[f] for f in fields]

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return self._get(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in self.asdict().items())
        return f"{self.__class__.__qualname__}({body})"

    def asdict(self) -> dict:
        """The fields by name, in order; values are not copied or converted."""
        return dict(zip(self._fields, self._values()))
