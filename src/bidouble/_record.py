"""Immutable value records: the base class of every bidouble record type.

A record declares its fields as class annotations, in order, and every
field is required: a class attribute with a field's name raises a
``TypeError`` when the class is created, so no field has a default and
no value is shared between instances. ``__init__`` takes the fields by
position or keyword, stores them and then calls ``__post_init__`` when
the class defines one, which may normalise a field with
``object.__setattr__``. Records compare equal only to records of the
same class with equal fields, hash as the tuple of their fields, print
as ``Name(field=value, ...)`` and refuse attribute assignment and
deletion: the behaviour of ``@dataclass(frozen=True)``.

Why not ``dataclasses``: its cost is paid at import, by every process, in
a command line whose paper commands compute for a few ms. Measured with
``python -S`` on Python 3.11.7 on a 2-vCPU VM: ``import dataclasses``
added 12-14 ms to what ``json`` and ``argparse`` (which the command line
imported then) loaded, because it loads ``inspect``, ``ast``, ``dis`` and
``tokenize``; a frozen ``@dataclass`` took 1.2-1.5 ms per class against
0.2-0.4 ms for one ``exec`` per class, because each generated method is
``exec``'d on its own (and a class without a docstring also goes through
``inspect.signature``); ``typing``, for one ``NamedTuple``, added 4-6 ms
more.

Nor is any source generated here: ``__init_subclass__`` gives each class
three closures over its field tuple and compiles nothing. ``__eq__`` and
``__hash__`` read the fields through one ``operator.attrgetter`` per
class, so an attribute that ``__post_init__`` sets and that is not a
field (``CurveConfiguration._index``) is in neither. ``__init__`` stores
a call that passes every field by position, and no keyword, with one
``object.__setattr__`` per field; any other call goes through ``_bind``,
which places the keywords and raises a ``TypeError`` naming the class
and the argument. Whether ``__post_init__`` runs is settled once per
class. ``inspect.signature`` of a record class therefore reads
``(*args, **kwargs)``. Memory per record is 128 bytes for a
``DivisorClass``: assigning each instance a fresh ``__dict__`` built by
``dict(zip(...))`` was tried, and took 280 bytes.

Records are not tuples, so they never pass an ``isinstance(value, tuple)``
test: certificate serialisation refuses a record instead of writing it as
a list (``certificates.Table`` aside, which it writes as the list of dicts
that the table's flat columns declare), and no record equals a plain tuple.
"""

from itertools import repeat
from operator import attrgetter

_set = object.__setattr__


def _getter(fields: tuple[str, ...]):
    """The function from a record to the tuple of its field values."""
    if len(fields) == 1:  # attrgetter of one name returns the bare value
        get = attrgetter(fields[0])
        return lambda self: (get(self),)
    return attrgetter(*fields) if fields else lambda self: ()


def _bind(cls, args: tuple, kwargs: dict) -> list:
    """The field values of ``cls(*args, **kwargs)``, in field order."""
    fields = cls._fields
    if len(args) > len(fields):
        raise TypeError(f"{cls.__qualname__}() takes {len(fields)} arguments "
                        f"({', '.join(fields)}) but {len(args)} were given")
    for key in kwargs:
        if key not in fields:
            raise TypeError(f"{cls.__qualname__}() got an unexpected keyword argument {key!r}")
        if key in fields[:len(args)]:
            raise TypeError(f"{cls.__qualname__}() got multiple values for argument {key!r}")
    values = list(args)
    for name in fields[len(args):]:
        if name not in kwargs:
            raise TypeError(f"{cls.__qualname__}() missing argument {name!r}")
        values.append(kwargs[name])
    return values


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        fields = cls._fields + tuple(cls.__annotations__)
        for name in fields:
            if hasattr(cls, name):
                raise TypeError(f"field {name!r} of {cls.__qualname__} has a default; "
                                "record fields take none")
        count = len(fields)
        values = _getter(fields)

        # A positional call stores its fields with object.__setattr__ one by
        # one, which keeps them in the instance's inline values (half the
        # memory of assigning a fresh __dict__).
        if hasattr(cls, "__post_init__"):
            def __init__(self, *args, **kwargs):
                if kwargs or len(args) != count:
                    args = _bind(cls, args, kwargs)
                any(map(_set, repeat(self), fields, args))
                self.__post_init__()
        else:
            def __init__(self, *args, **kwargs):
                if kwargs or len(args) != count:
                    args = _bind(cls, args, kwargs)
                any(map(_set, repeat(self), fields, args))

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return values(self) == values(other)
            return NotImplemented

        def __hash__(self):
            return hash(values(self))

        for method in (__init__, __eq__, __hash__):
            method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
            setattr(cls, method.__name__, method)
        cls._fields = fields

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a record")
