from __future__ import annotations

import itertools
import re

import pytest

from bidouble.lattice import (
    DivisorClass,
    LatticeError,
    SurfaceLattice,
    arithmetic_genus,
    format_class,
    halve,
    index_bound_holds,
    intersect,
    is_perfect_square,
    riemann_roch_chi,
)


def make(n: int, label: str = "test") -> SurfaceLattice:
    return SurfaceLattice(label, tuple(f"E{i}" for i in range(1, n + 1)))


def test_basic_shape():
    lat = make(6)
    assert lat.n == 6
    assert lat.rank == 7
    assert lat.basis_names == ("L", "E1", "E2", "E3", "E4", "E5", "E6")


def test_gram_matrix_and_determinant():
    for n in range(1, 9):
        lat = make(n)
        basis = [lat.line()] + [lat.exceptional(f"E{i}") for i in range(1, n + 1)]
        g = [[a.dot(b) for b in basis] for a in basis]
        assert g[0][0] == 1
        for i in range(1, n + 1):
            assert g[i][i] == -1
        assert all(g[i][j] == 0 for i in range(lat.rank) for j in range(lat.rank) if i != j)
        # diagonal Gram matrix, so the determinant is the diagonal product
        det = 1
        for i in range(lat.rank):
            det *= g[i][i]
        assert det == (-1) ** n


def test_name_validation():
    with pytest.raises(LatticeError):
        SurfaceLattice("bad", ("E1", "E1"))
    with pytest.raises(LatticeError):
        SurfaceLattice("bad", ("E1", "L"))
    with pytest.raises(LatticeError):
        SurfaceLattice("bad", ("E1", ""))


def test_divisor_construction_and_lookup():
    lat = make(3)
    with pytest.raises(LatticeError):
        lat.divisor((1, 2, 3))
    assert lat.exceptional("E2").coeffs == (0, 0, 1, 0)
    with pytest.raises(LatticeError):
        lat.exceptional("E7")


@pytest.mark.parametrize("bad", [1.9, 1.0, "3", True, False, None])
def test_divisor_takes_exact_ints_only(bad):
    # no entry is rounded or converted: the first one that is not an int is named
    lat = SurfaceLattice("x", ("E1", "E2"))
    with pytest.raises(LatticeError, match=rf"^coefficient {re.escape(repr(bad))} for "
                                           r"lattice 'x' is not an int$"):
        lat.divisor([1, 0, bad])
    with pytest.raises(LatticeError, match=rf"^coefficient {re.escape(repr(bad))} "):
        lat.divisor((bad, 0.5, "x"))


def test_divisor_class_checks_its_own_coefficients():
    # the constructor, not only ``SurfaceLattice.divisor``, refuses a float
    # (which would square to a float), a short vector (which would pair
    # through a truncated zip) and a list, with divisor's messages
    lat = SurfaceLattice("x", ("E1", "E2"))
    with pytest.raises(LatticeError, match=r"^coefficient 1\.9 for lattice 'x' is not an int$"):
        DivisorClass(lat, (1.9, 0.5, 0))
    with pytest.raises(LatticeError, match=r"^expected 3 coefficients for lattice 'x', got 1$"):
        DivisorClass(lat, (1,))
    with pytest.raises(LatticeError, match=r"^coefficients for lattice 'x' must be a tuple, "
                                           r"not list$"):
        DivisorClass(lat, [1, 0, 0])
    assert DivisorClass(lat, (1, 0, 0)) == lat.line()


def test_divisor_accepts_big_ints_and_scales_by_ints_only():
    lat = SurfaceLattice("x", ("E1", "E2"))
    big = 10**100
    d = lat.divisor([big, -big, 0])
    assert d.coeffs == (big, -big, 0)
    assert d.dot(d) == 0
    assert (2 * d).coeffs == (2 * big, -2 * big, 0)
    for scalar in (True, False, 2.0):
        with pytest.raises(TypeError):
            d * scalar
        with pytest.raises(TypeError):
            scalar * d


def test_canonical_class():
    lat = make(3)
    k = lat.canonical_class()
    assert k.coeffs == (-3, 1, 1, 1)
    assert k.dot(k) == 9 - 3


def test_vector_arithmetic():
    lat = make(2)
    a = lat.divisor((1, -1, 0))
    b = lat.divisor((0, 1, -2))
    assert (a + b).coeffs == (1, 0, -2)
    assert (a - b).coeffs == (1, -2, 2)
    assert (-a).coeffs == (-1, 1, 0)
    assert (3 * a).coeffs == (3, -3, 0)
    assert (a * 3).coeffs == (3, -3, 0)


def test_pairing_is_diagonal():
    lat = make(4)
    line = lat.line()
    assert line.dot(line) == 1
    for name in ("E1", "E2", "E3", "E4"):
        e = lat.exceptional(name)
        assert e.dot(e) == -1
        assert line.dot(e) == 0
    assert intersect(lat.divisor((2, -1, -1, 0, 0)), lat.divisor((1, 0, -1, -1, 0))) == 1
    c = lat.divisor((1, -1, -1, 0, 0))
    assert c.dot(c) == -1


def test_mixed_lattice_pairing_rejected():
    a = make(2, "one").line()
    b = make(2, "two").line()
    with pytest.raises(LatticeError):
        a.dot(b)
    with pytest.raises(LatticeError):
        a + b


def test_format_class():
    lat = make(3)
    assert format_class(lat.zero()) == "0"
    assert format_class(lat.divisor((5, -1, -2, 0))) == "5L - E1 - 2E2"
    assert format_class(lat.divisor((0, 1, 0, 0))) == "E1"
    assert format_class(lat.divisor((-1, 1, 0, 0))) == "-L + E1"
    assert format_class(lat.divisor((1, 0, 0, 0))) == "L"


def test_arithmetic_genus_small_cases():
    lat = make(3)
    # line, conic, exceptional curve: rational; plane cubic: genus 1
    assert arithmetic_genus(lat.line()) == 0
    assert arithmetic_genus(2 * lat.line()) == 0
    assert arithmetic_genus(lat.exceptional("E1")) == 0
    assert arithmetic_genus(3 * lat.line()) == 1
    assert arithmetic_genus(lat.divisor((1, -1, -1, 0))) == 0
    # plane curves of degree d through the points with multiplicities m_i:
    # p_a = (d-1)(d-2)/2 - sum m_i(m_i-1)/2, genera well outside {-1, 0, 1}
    for d in range(0, 11):
        for ms in itertools.product(range(0, 5), repeat=3):
            want = (d - 1) * (d - 2) // 2 - sum(m * (m - 1) // 2 for m in ms)
            assert arithmetic_genus(lat.divisor((d, *(-m for m in ms)))) == want


def test_riemann_roch_chi():
    lat = make(3)
    assert riemann_roch_chi(lat.zero()) == 1
    assert riemann_roch_chi(lat.line()) == 3
    assert riemann_roch_chi(2 * lat.line()) == 6
    k = lat.canonical_class()
    d = lat.divisor((4, -2, -1, 0))
    assert riemann_roch_chi(d) == riemann_roch_chi(k - d)


def test_index_bound():
    assert index_bound_holds(7, 13, 21)
    assert index_bound_holds(1, 0, -5)
    assert not index_bound_holds(7, 2, 5)
    with pytest.raises(LatticeError):
        index_bound_holds(0, 1, 1)
    with pytest.raises(LatticeError):
        index_bound_holds(-7, 1, 1)


def test_is_perfect_square():
    assert is_perfect_square(0)
    assert is_perfect_square(1)
    assert is_perfect_square(144)
    assert is_perfect_square(784)
    assert not is_perfect_square(2)
    assert not is_perfect_square(656)
    assert not is_perfect_square(208)
    assert not is_perfect_square(-4)


def test_halve():
    lat = make(2)
    d = lat.divisor((4, -2, 0))
    half = halve(d)
    assert isinstance(half, DivisorClass)
    assert half.coeffs == (2, -1, 0)
    assert halve(lat.divisor((3, -2, 0))) is None
    assert halve(lat.zero()).coeffs == (0, 0, 0)
