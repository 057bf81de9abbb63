"""Frozen records: the base of every value type in the package.

A frozen dataclass would do the same job, but importing ``dataclasses``
and synthesising each class's methods with ``exec`` costs more than most
command-line calls spend on their own work.
"""

from operator import attrgetter


class Record:
    """Immutable value whose fields are the names annotated in its class body.

    Equality, hash and repr are taken over the fields in order, and
    assigning or deleting an attribute raises.  Each record's ``__init__``
    takes its fields in order, checks them, and sets each once with
    :func:`object.__setattr__`, as ``local_frobenius.colength`` and
    ``polygons.make_polygon`` do when they build a value in place,
    skipping the checks their callers have made.  So are the memos of a
    ``LocalContext`` and its tau powers, attributes that no field,
    equality, hash or repr reads.  Nothing writes an instance's
    ``__dict__``: reading it gives the instance a dict of its own in place
    of its inline values, which costs memory and slows every later read.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = fields = tuple(cls.__annotations__)
        cls._key = attrgetter(*fields)

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
