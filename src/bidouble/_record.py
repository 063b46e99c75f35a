"""Immutable value records: the base class of every bidouble record type.

A record declares its fields as class annotations, in order; a class
attribute with a field's name is that field's default. Defaults are shared
by every instance, so a mutable default must be copied in ``__post_init__``.
The generated ``__init__`` takes the fields by position or keyword, stores
them and then calls ``__post_init__`` when the class defines one, which may
normalise a field with ``object.__setattr__``. Records compare equal only
to records of the same class with equal fields, hash as the tuple of their
fields, print as ``Name(field=value, ...)`` and refuse attribute assignment
and deletion: the behaviour of ``@dataclass(frozen=True)``.

Why not ``dataclasses``: its cost is paid at import, by every process, in
a command line whose paper commands compute for a few ms. Measured with
``python -S`` on Python 3.11.7 on a 2-vCPU VM: ``import dataclasses``
added 12-14 ms to what ``json`` and ``argparse`` (which the command line
imported then) loaded, because it loads ``inspect``, ``ast``, ``dis`` and
``tokenize``; a frozen ``@dataclass`` took 1.2-1.5 ms per class against
0.2-0.4 ms here, because each generated method is ``exec``'d on its own
(and a class without a docstring also goes through ``inspect.signature``);
``typing``, for one ``NamedTuple``, added 4-6 ms more. With this base,
``import bidouble.cli`` went from 68-82 ms to 41-50 ms; a bare interpreter
takes 10.5-12.6 ms.

Here one ``exec`` per class compiles ``__init__``, ``__eq__`` and
``__hash__``, much as ``collections.namedtuple`` compiles its ``__new__``.
Records are not tuples, so they never pass an ``isinstance(value, tuple)``
test: certificate serialisation refuses a record instead of writing it as
a list, and no record equals a plain tuple.
"""

_TEMPLATE = """\
def __init__(self, {args}):
{sets}{post}    return None

def __eq__(self, other):
    if other.__class__ is self.__class__:
        return ({values}) == ({others})
    return NotImplemented

def __hash__(self):
    return hash(({values}))
"""


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        fields = cls._fields + tuple(cls.__annotations__)
        defaults = tuple(getattr(cls, name) for name in fields if hasattr(cls, name))
        for name in fields[len(fields) - len(defaults):]:
            if not hasattr(cls, name):
                raise TypeError(f"field {name!r} without a default follows one with a default")
        source = _TEMPLATE.format(
            args=", ".join(fields),
            sets="".join(f"    _set(self, {name!r}, {name})\n" for name in fields),
            post="    self.__post_init__()\n" if hasattr(cls, "__post_init__") else "",
            values="".join(f"self.{name}, " for name in fields),
            others="".join(f"other.{name}, " for name in fields),
        )
        methods: dict = {}
        exec(source, {"_set": object.__setattr__}, methods)
        methods["__init__"].__defaults__ = defaults or None
        for name, method in methods.items():
            method.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, method)
        cls._fields = fields

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a record")
