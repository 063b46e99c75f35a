"""The value-record base, on the package's own record classes.

Expected reprs, hashes and errors are what ``@dataclass(frozen=True)``
produced for the same classes.
"""

from __future__ import annotations

import pytest

from bidouble import cli, fixtures  # noqa: F401  (cli loads every module, so every record class)
from bidouble._record import Record
from bidouble.certificates import CheckRow, canonical_json, check
from bidouble.classifier import ClassifierError, NumericalCase, classify_with_trace
from bidouble.covers import compute_invariants
from bidouble.fixtures import expectations, fixture, verify_surface
from bidouble.lattice import DivisorClass, SurfaceLattice
from bidouble.surface_io import SurfaceFile, surface_from_dict, surface_to_dict


def lattice() -> SurfaceLattice:
    return SurfaceLattice("t", ("E1", "E2"))


def test_construction_by_position_keyword_and_default():
    lat = lattice()
    assert DivisorClass(lat, (3, -1, 0)) == DivisorClass(coeffs=(3, -1, 0), lattice=lat)
    case = NumericalCase(7, (5, 5, 3), (1, 5, 7))
    assert case == fixtures.expectations("dp1").case
    assert case == NumericalCase(m=(1, 5, 7), k=(5, 5, 3), k2=7)
    assert NumericalCase._fields == ("k2", "k", "m")
    # R_i^2 = -1 is a constant of the classifier, not a field with a default,
    # l, K_Sigma^2 and det A are derived from k and m, not passed in, and the
    # status is read from the K^2 = 7 table
    for name, value in (("r", (1, 2, 3)), ("l", (4, 2, 0)), ("k_sigma_sq", 1), ("det_a", 144),
                        ("status", "realized_dp1")):
        with pytest.raises(TypeError, match=r"^NumericalCase\(\) got an unexpected keyword "
                                            rf"argument '{name}'$"):
            NumericalCase(7, (5, 5, 3), (1, 5, 7), **{name: value})
    with pytest.raises(TypeError, match=r"^DivisorClass\(\) missing argument 'coeffs'$"):
        DivisorClass(lat)
    with pytest.raises(TypeError, match=r"^DivisorClass\(\) takes 2 arguments \(lattice, "
                                        r"coeffs\) but 3 were given$"):
        DivisorClass(lat, (3, -1, 0), None)


def test_post_init_validates_and_normalises():
    # dp1's row with a bad m_3 (wrong parity, k_3 + 6) and m_1, with its text
    for args, message in (
        ((7, (5, 5, 3), (1, 5, 6)),
         "l = (k + 4 - m) / 2 is not a nonnegative integer at index 3: "
         "NumericalCase(k2=7, k=(5, 5, 3), m=(1, 5, 6))"),
        ((7, (5, 5, 3), (1, 5, 9)),
         "l = (k + 4 - m) / 2 is not a nonnegative integer at index 3: "
         "NumericalCase(k2=7, k=(5, 5, 3), m=(1, 5, 9))"),
        ((7, (5, 5, 3), (2, 5, 7)),
         "l = (k + 4 - m) / 2 is not a nonnegative integer at index 1: "
         "NumericalCase(k2=7, k=(5, 5, 3), m=(2, 5, 7))"),
    ):
        with pytest.raises(ClassifierError) as exc:
            NumericalCase(*args)
        assert str(exc.value) == message
    assert SurfaceLattice("t", ["E1", "E2"]).exceptional_names == ("E1", "E2")


def test_equality_is_per_class_and_by_fields():
    lat = lattice()
    a = DivisorClass(lat, (3, -1, 0))
    assert a == DivisorClass(SurfaceLattice("t", ("E1", "E2")), (3, -1, 0))
    assert a != DivisorClass(lat, (3, -1, 1))
    assert a != (lat, (3, -1, 0))
    row = CheckRow("a/b", "desc", "ref", 1, 1, "pass")
    assert row == check("a/b", "desc", "ref", 1, 1)
    assert row != check("a/b", "desc", "ref", 1, 2)

    class Other(Record):
        row_id: str
        description: str
        ref: str
        computed: object
        expected: object
        status: str

    assert row != Other("a/b", "desc", "ref", 1, 1, "pass")


def test_hash_is_the_hash_of_the_field_tuple():
    lat = lattice()
    assert hash(lat) == hash(("t", ("E1", "E2")))
    assert hash(DivisorClass(lat, (3, -1, 0))) == hash((lat, (3, -1, 0)))
    case = NumericalCase(7, (7, 5, 5), (7, 9, 5))
    assert hash(case) == hash((7, (7, 5, 5), (7, 9, 5)))
    assert len({DivisorClass(lat, (1, 0, 0)), lat.line(), lat.zero()}) == 2
    with pytest.raises(TypeError):
        hash(CheckRow("a/b", "desc", "ref", [1], [1], "pass"))  # a list field


def test_repr_names_every_field():
    lat = lattice()
    assert repr(DivisorClass(lat, (3, -1, 0))) == (
        "DivisorClass(lattice=SurfaceLattice(label='t', exceptional_names=('E1', 'E2')), "
        "coeffs=(3, -1, 0))"
    )
    assert repr(check("a/b", "desc", "ref", (1, 2), [1, 2])) == (
        "CheckRow(row_id='a/b', description='desc', ref='ref', computed=(1, 2), "
        "expected=[1, 2], status='pass')"
    )


@pytest.mark.parametrize("record", [
    DivisorClass(lattice(), (3, -1, 0)),
    NumericalCase(7, (5, 5, 3), (1, 5, 7)),
    CheckRow("a/b", "desc", "ref", 1, 1, "pass"),
], ids=["DivisorClass", "NumericalCase", "CheckRow"])
def test_records_refuse_assignment_and_deletion(record):
    name = record._fields[0]
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, before)
    with pytest.raises(AttributeError):
        setattr(record, "extra", 1)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) == before


def test_a_record_is_not_certificate_data():
    with pytest.raises(TypeError, match="not DivisorClass"):
        canonical_json({"class": lattice().line()})


def test_a_field_default_is_refused():
    # first, last or every field: a default anywhere raises when the class is made
    for defaults in ({"a": 0}, {"b": {}}, {"a": (), "b": None}):
        with pytest.raises(TypeError, match=r"^field '[ab]' of Bad has a default; "
                                            r"record fields take none$"):
            type("Bad", (Record,), {"__annotations__": {"a": int, "b": int}, **defaults})

    class Plain(Record):
        a: int
        b: int

    assert Plain(1, b=2) == Plain(1, 2)
    with pytest.raises(TypeError, match=r"^field 'a' of .*Sub has a default"):
        class Sub(Plain):
            a = 1


def _record_classes(cls=Record):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("bidouble."):
            yield sub
        yield from _record_classes(sub)


def _one_of_each() -> list[Record]:
    config, cover = fixture("dp1")
    expect = expectations("dp1")
    outcome = classify_with_trace(7)
    certificate = verify_surface("dp1", fixture("dp1")[1])
    surface = surface_from_dict(surface_to_dict(SurfaceFile("dp1", config, cover)))
    return [
        config.lattice, config.lattice.line(), config.curves[0], config, cover,
        compute_invariants(cover), expect, expect.fibers[0], expect.case, outcome,
        outcome.k_rejections[0], outcome.m_rejections[0], certificate, certificate.rows[0],
        surface, fixtures._FIXTURES["dp1"],
    ]


RECORDS = _one_of_each()


def _values(record: Record) -> tuple:
    return tuple(getattr(record, name) for name in record._fields)


def test_every_record_class_is_covered():
    assert {type(record) for record in RECORDS} == set(_record_classes())
    assert len(RECORDS) == 16
    for record in RECORDS:
        cls = type(record)
        for method in ("__init__", "__eq__", "__hash__"):
            assert getattr(cls, method).__qualname__ == f"{cls.__qualname__}.{method}"


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__qualname__)
def test_keyword_construction_equals_positional(record):
    cls, values = type(record), _values(record)
    keywords = dict(reversed(list(zip(cls._fields, values))))
    assert cls(**keywords) == cls(*values) == record
    assert _values(cls(**keywords)) == _values(cls(*values)) == values


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__qualname__)
def test_hash_is_the_hash_of_the_fields_of_every_class(record):
    try:
        expected = hash(_values(record))
    except TypeError:  # a dict field: FixtureExpectations, and _Fixture through it
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__qualname__)
def test_equality_reads_declared_fields_only(record):
    cls, values = type(record), _values(record)
    copy = cls(*values)
    object.__setattr__(copy, "_index", {})  # not a field, as in CurveConfiguration
    assert copy == record
    for name in cls._fields:
        changed = cls(*values)
        object.__setattr__(changed, name, object())
        assert changed != record and record != changed, name


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__qualname__)
def test_bad_arguments_name_the_class_and_the_field(record):
    cls, values = type(record), _values(record)
    name, fields = cls.__qualname__, cls._fields
    for args, kwargs, message in (
        (values[:-1], {}, f"{name}() missing argument {fields[-1]!r}"),
        ((), {fields[0]: values[0]}, f"{name}() missing argument {fields[1]!r}"),
        (values + (None,), {},
         f"{name}() takes {len(fields)} arguments ({', '.join(fields)}) "
         f"but {len(fields) + 1} were given"),
        (values, {fields[0]: values[0]}, f"{name}() got multiple values for argument {fields[0]!r}"),
        (values[:1], {fields[0]: values[0]},
         f"{name}() got multiple values for argument {fields[0]!r}"),
        (values, {"nosuch": 1}, f"{name}() got an unexpected keyword argument 'nosuch'"),
    ):
        with pytest.raises(TypeError) as exc:
            cls(*args, **kwargs)
        assert str(exc.value) == message
