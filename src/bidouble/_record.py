"""Immutable value records: the base class of every bidouble record type.

A record declares its fields as class annotations, in order; a class
attribute with a field's name is that field's default. Defaults are shared
by every instance, so a mutable default must be copied in ``__post_init__``.
``__init__`` takes the fields by position or keyword, stores them and then
calls ``__post_init__`` when the class defines one, which may normalise a
field with ``object.__setattr__``. Records compare equal only to records of
the same class with equal fields, hash as the tuple of their fields, print
as ``Name(field=value, ...)`` and refuse attribute assignment and deletion:
the behaviour of ``@dataclass(frozen=True)``.

Why not ``dataclasses``: its cost is paid at import, by every process, in
a command line whose paper commands compute for a few ms. Measured with
``python -S`` on Python 3.11.7 on a 2-vCPU VM: ``import dataclasses``
added 12-14 ms to what ``json`` and ``argparse`` (which the command line
imported then) loaded, because it loads ``inspect``, ``ast``, ``dis`` and
``tokenize``; a frozen ``@dataclass`` took 1.2-1.5 ms per class against
0.2-0.4 ms for one ``exec`` per class, because each generated method is
``exec``'d on its own (and a class without a docstring also goes through
``inspect.signature``); ``typing``, for one ``NamedTuple``, added 4-6 ms
more. With the one-``exec`` base, ``import bidouble.cli`` went from 68-82
ms to 41-50 ms; a bare interpreter takes 10.5-12.6 ms.

Nor is any source generated here: ``__init_subclass__`` gives each class
three closures over its field tuple and compiles nothing. ``__eq__`` and
``__hash__`` read the fields through one ``operator.attrgetter`` per
class, so an attribute that ``__post_init__`` sets and that is not a
field (``CurveConfiguration._index``) is in neither. ``__init__`` stores
a call that passes every field without a default by position, and no
keyword, with one ``object.__setattr__`` per given field; any other
call goes through ``_bind``, which fills defaults and keywords and
raises a ``TypeError`` naming the class and the argument. Whether
``__post_init__`` runs is settled once per class. ``inspect.signature``
of a record class therefore reads ``(*args, **kwargs)``.

This module used to ``exec`` generated source, one compile per class, as
``collections.namedtuple`` does. With ``site`` on Python 3.11.7 on a
2-vCPU VM, that took ``import bidouble.cli`` to 13.6 ms against 8.5 ms
now (medians of 31 interleaved runs). Construction costs more per
instance (one process holding both versions, best of 20 rounds):
``NumericalCase`` 1.69 -> 2.07 us with ``r`` defaulted, as the
classifier builds it, ``DivisorClass`` 0.49 -> 1.00 us, ``==`` 0.19 ->
0.30 us and ``hash`` 0.21 -> 0.27 us. A paper command builds at most
~260 ``DivisorClass`` and ~90 ``CheckRow`` records, so it pays under
0.2 ms of the ~5 ms saved. Memory per record is unchanged (128 bytes
for a ``DivisorClass``): assigning each instance a fresh ``__dict__``
built by ``dict(zip(...))`` was tried, and took 280 bytes.

Records are not tuples, so they never pass an ``isinstance(value, tuple)``
test: certificate serialisation refuses a record instead of writing it as
a list, and no record equals a plain tuple.
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
        if name in kwargs:
            values.append(kwargs[name])
        elif hasattr(cls, name):
            values.append(getattr(cls, name))
        else:
            raise TypeError(f"{cls.__qualname__}() missing argument {name!r}")
    return values


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        fields = cls._fields + tuple(cls.__annotations__)
        count = len(fields)
        required = sum(not hasattr(cls, name) for name in fields)
        for name in fields[required:]:
            if not hasattr(cls, name):
                raise TypeError(f"field {name!r} without a default follows one with a default")
        values = _getter(fields)

        # A positional call stores its fields with object.__setattr__ one by
        # one, which keeps them in the instance's inline values (half the
        # memory of assigning a fresh __dict__); a defaulted field it leaves
        # out is read from the class attribute.
        if hasattr(cls, "__post_init__"):
            def __init__(self, *args, **kwargs):
                if kwargs or not required <= len(args) <= count:
                    args = _bind(cls, args, kwargs)
                any(map(_set, repeat(self), fields, args))
                self.__post_init__()
        else:
            def __init__(self, *args, **kwargs):
                if kwargs or not required <= len(args) <= count:
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
