"""The value-record base, on the package's own record classes.

Expected reprs, hashes and errors are what ``@dataclass(frozen=True)``
produced for the same classes.
"""

from __future__ import annotations

import pytest

from bidouble._record import Record
from bidouble.certificates import CheckRow, canonical_json, check
from bidouble.classifier import K7_REFERENCE, ClassifierError, NumericalCase
from bidouble.covers import FixtureExpectations
from bidouble.fixtures import expectations
from bidouble.lattice import DivisorClass, SurfaceLattice


def lattice() -> SurfaceLattice:
    return SurfaceLattice("t", ("E1", "E2"))


def test_construction_by_position_keyword_and_default():
    lat = lattice()
    assert DivisorClass(lat, (3, -1, 0)) == DivisorClass(coeffs=(3, -1, 0), lattice=lat)
    case = NumericalCase(7, (5, 5, 3), (1, 5, 7), (4, 2, 0), 1, 144, "realized_dp1")
    assert case == K7_REFERENCE[1]
    assert case.r == (-1, -1, -1)
    with_r = NumericalCase(7, (5, 5, 3), (1, 5, 7), (4, 2, 0), 1, 144, "open", r=(1, 2, 3))
    assert with_r.r == (1, 2, 3)
    with pytest.raises(TypeError):
        DivisorClass(lat)
    with pytest.raises(TypeError):
        DivisorClass(lat, (3, -1, 0), None)


def test_post_init_validates_and_normalises():
    # dp1's row, broken so that each check in turn is the first to fail, with its text
    for args, message in (
        ((7, (5, 5, 3), (1, 5, 7), (4, 2, 0), 1, 144, "bogus"), "unknown status 'bogus'"),
        ((7, (5, 5, 3), (1, 5, 7), (4, 2, 1), 1, 144, "open"),
         "2l+m = k+4 violated at index 3: NumericalCase(k2=7, k=(5, 5, 3), m=(1, 5, 7), "
         "l=(4, 2, 1), k_sigma_sq=1, det_a=144, status='open', r=(-1, -1, -1))"),
        ((7, (5, 5, 3), (1, 5, 9), (4, 2, -1), 2, 196, "open"),
         "negative nodal count at index 3: NumericalCase(k2=7, k=(5, 5, 3), m=(1, 5, 9), "
         "l=(4, 2, -1), k_sigma_sq=2, det_a=196, status='open', r=(-1, -1, -1))"),
        ((7, (5, 5, 3), (1, 5, 7), (4, 2, 0), 2, 144, "open"),
         "base square inconsistent with nodal counts: NumericalCase(k2=7, k=(5, 5, 3), "
         "m=(1, 5, 7), l=(4, 2, 0), k_sigma_sq=2, det_a=144, status='open', r=(-1, -1, -1))"),
        ((7, (5, 5, 3), (1, 5, 7), (4, 2, 0), 1, 145, "open"),
         "stored determinant does not match m: NumericalCase(k2=7, k=(5, 5, 3), m=(1, 5, 7), "
         "l=(4, 2, 0), k_sigma_sq=1, det_a=145, status='open', r=(-1, -1, -1))"),
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
    case = K7_REFERENCE[0]
    assert hash(case) == hash((7, (7, 5, 5), (7, 9, 5), (2, 0, 2), 3, 784, "realized_inoue",
                               (-1, -1, -1)))
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
    K7_REFERENCE[1],
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


def test_dict_defaults_are_not_shared():
    dp1 = expectations("dp1")
    fields = dict(case=dp1.case, d_class=dp1.d_class, dims=dp1.dims)
    first, second = FixtureExpectations(**fields), FixtureExpectations(**fields)
    first.table[("Fb", "Fb")] = 0
    first.d_dot["Fb"] = 4
    first.m_dot["Fb"] = 0
    assert (second.table, second.d_dot, second.m_dot) == ({}, {}, {})
    assert FixtureExpectations.table == {}


def test_defaults_must_trail():
    with pytest.raises(TypeError, match="'b' without a default"):
        class Bad(Record):
            a: int = 0
            b: int
