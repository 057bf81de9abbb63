"""Frozen records: the base of every value type in the package.

A frozen dataclass would do the same job, but importing ``dataclasses``
and synthesising each class's methods with ``exec`` costs more than most
command-line calls spend on their own work.
"""

from operator import attrgetter


class Record:
    """Immutable value whose fields are the names annotated in its class body.

    A class attribute of a field's name is that field's default.  Equality,
    hash and repr are taken over the fields in order, and assigning or
    deleting an attribute raises.  The generic constructor binds arguments
    to fields like a call signature, then runs ``__post_init__`` if the
    class has one; a check there may normalise a field with
    :func:`object.__setattr__`.  Three hot calls build a value in normal
    form without the constructor, skipping the checks their callers have
    made: ``local_frobenius.colength`` and ``colength_profile``, and
    ``polygons.make_polygon``.  The fields are the whole value but for
    two memos: a ``LocalContext`` and the tau powers it builds remember
    the powers and shifts already built, and each remembered power and
    shift its image at the last point, in non-field attributes that no
    field, equality, hash or repr reads.  These fields and attributes are
    set with :func:`object.__setattr__` too, never through the instance's
    ``__dict__``: reading it gives the instance a dict of its own in place
    of its inline values, which costs memory and slows every later read.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = fields = tuple(cls.__annotations__)
        attrs = cls.__dict__
        cls._defaults = {f: attrs[f] for f in fields if f in attrs}
        cls._key = attrgetter(*fields)

    def __init__(self, *args, **kwargs) -> None:
        name, fields = type(self).__name__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name} takes {len(fields)} fields, got {len(args)}")
        values = {**self._defaults, **dict(zip(fields, args))}
        for field, value in kwargs.items():
            if field not in fields or field in fields[: len(args)]:
                raise TypeError(f"{name} got an unknown or repeated field {field!r}")
            values[field] = value
        missing = [f for f in fields if f not in values]
        if missing:
            raise TypeError(f"{name} is missing fields {missing}")
        for field in fields:
            object.__setattr__(self, field, values[field])
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: {type(self).__name__} is frozen")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is frozen")
