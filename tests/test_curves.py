from __future__ import annotations

import itertools
import math
import re

import pytest

from bidouble.curves import (
    MIN_SELFINT,
    MAX_SELFINT,
    ConfigurationError,
    CurveConfiguration,
    FiberDecomposition,
    NamedCurve,
    _degree_range,
    _solve_sum_square,
    enumerate_classes,
    filter_effective_against_nodal,
    verify_fiber_decomposition,
)
from bidouble.covers import FixtureExpectations, run_verification
from bidouble.fixtures import expectations, fixture
from bidouble.lattice import LatticeError, SurfaceLattice, arithmetic_genus


def make(n: int) -> SurfaceLattice:
    return SurfaceLattice(f"n{n}", tuple(f"E{i}" for i in range(1, n + 1)))


def brute_force_classes(lattice: SurfaceLattice, s: int) -> list[tuple[int, ...]]:
    """Direct window scan, independent of the solver's interval/pruning logic."""
    n = lattice.n
    out = []
    for a in range(-12, 13):
        q = a * a - s
        if q < 0:
            continue
        bmax = math.isqrt(q)
        for bs in itertools.product(range(-bmax, bmax + 1), repeat=n):
            if sum(bs) == s + 2 - 3 * a and sum(b * b for b in bs) == q:
                out.append((a, *bs))
    return sorted(out)


@pytest.mark.parametrize(
    "n,s",
    [(2, -1), (2, -2), (3, -1), (3, -2)] + [(n, s) for n in (0, 1) for s in range(-6, 4)],
)
def test_enumeration_matches_brute_force(n, s):
    lat = make(n)
    got = [c.coeffs for c in enumerate_classes(lat, s)]
    assert got == brute_force_classes(lat, s)


def test_degree_range_is_exactly_the_cauchy_schwarz_interval():
    # the degrees a with (s + 2 - 3a)^2 <= n (a^2 - s), found by scanning a
    # window wide enough to hold every interval in this sweep
    for n in range(9):
        for s in range(MIN_SELFINT, 15):
            window = range(-200, 201)
            want = [a for a in window if (s + 2 - 3 * a) ** 2 <= n * (a * a - s)]
            got = _degree_range(n, s)
            assert list(got) == want, (n, s)
            assert not want or (want[0] > window[0] and want[-1] < window[-1])


def test_solve_sum_square_matches_product():
    # every b in a box holding all solutions, in itertools.product's order,
    # which is lexicographic; the box is empty when target_sq < 0
    for n in range(5):
        for target_sq in range(-3, 9):
            box = range(-math.isqrt(max(target_sq, 0)), math.isqrt(max(target_sq, 0)) + 1)
            for target_sum in range(-7, 8):
                want = [b for b in itertools.product(box, repeat=n)
                        if sum(b) == target_sum and sum(x * x for x in b) == target_sq]
                got = _solve_sum_square(n, target_sum, target_sq)
                assert got == want, (n, target_sum, target_sq)
                # b and b^2 share parity, and no square sum is negative
                if (target_sum - target_sq) % 2 or target_sq < 0:
                    assert got == [], (n, target_sum, target_sq)


def sigma3(m: int) -> int:
    return sum(d ** 3 for d in range(1, m + 1) if m % d == 0)


def test_enumeration_counts():
    # classical counts on the plane blown up in n general points:
    # (-1)-classes and roots (square -2, K-degree 0) for n = 0..8
    minus_one = (0, 1, 3, 6, 10, 16, 27, 56, 240)
    roots = (0, 0, 2, 8, 20, 40, 72, 126, 240)
    for n in range(9):
        assert len(enumerate_classes(make(n), -1)) == minus_one[n]
        assert len(enumerate_classes(make(n), -2)) == roots[n]
    # conic classes on the degree-one del Pezzo
    assert len(enumerate_classes(make(8), 0)) == 2160
    # on I_{1,8}, x -> x + (s + 2)K maps the genus-zero classes of square s
    # one to one onto the E8 vectors of norm s^2 + 3s + 4, which the E8
    # theta series counts: 240 sigma_3(norm / 2)
    for s in range(-4, 2):
        assert len(enumerate_classes(make(8), s)) == 240 * sigma3((s * s + 3 * s + 4) // 2), s
    # the plane: the line is its only genus-zero class of any supported square
    for s in range(-6, 4):
        assert [c.coeffs for c in enumerate_classes(make(0), s)] == ([(1,)] if s == 1 else []), s


def mirror_pairs():
    # (n, s, 5 - n - s) with s <= 5 - n - s and both squares supported; on
    # n = 8 only two pairs, whose class counts stay small
    for n in range(8):
        for s in range(MIN_SELFINT, MAX_SELFINT + 1):
            if s <= 5 - n - s <= MAX_SELFINT:
                yield n, s, 5 - n - s
    yield from ((8, -2, -1), (8, -3, 0))


def test_anticanonical_mirror_is_a_bijection_between_enumerations():
    # y = -K - x has y.K = -x.K - K^2 and y^2 = x^2 + 2x.K + K^2, so for a
    # genus-zero x of square s (x.K = -2 - s) y has square 5 - n - s and
    # y.K = -y^2 - 2: genus zero again. The map is an involution, so it is a
    # bijection, and a degree range cut short at either end loses the classes
    # that the other enumeration's mirror image brings back
    pairs = list(mirror_pairs())
    assert len(pairs) == 26
    for n, s, t in pairs:
        lat = make(n)
        minus_k = -lat.canonical_class()
        mirrored = sorted((minus_k - x).coeffs for x in enumerate_classes(lat, s))
        assert mirrored == [y.coeffs for y in enumerate_classes(lat, t)], (n, s, t)


@pytest.mark.parametrize("n,s", [(6, s) for s in range(-6, 4)] + [(8, -1), (8, -2)])
def test_enumeration_output_is_sound(n, s):
    # nothing sorts the output: its order is the walk's own
    lat = make(n)
    classes = enumerate_classes(lat, s)
    assert len(set(c.coeffs for c in classes)) == len(classes)
    assert [c.coeffs for c in classes] == sorted(c.coeffs for c in classes)
    for c in classes:
        assert c.dot(c) == s
        assert arithmetic_genus(c) == 0


def test_enumeration_closed_under_slot_permutations():
    # the constraints do not see the order of the exceptional slots
    import random

    rng = random.Random(7)
    for n, s in ((6, -1), (8, -2)):
        got = {c.coeffs for c in enumerate_classes(make(n), s)}
        for _ in range(50):
            perm = list(range(n))
            rng.shuffle(perm)
            for coeffs in got:
                permuted = (coeffs[0],) + tuple(coeffs[1 + perm[i]] for i in range(n))
                assert permuted in got


def test_twentyseven_lines_by_degree():
    # classical composition: 6 exceptional, 15 through two points, 6 conics
    classes = enumerate_classes(make(6), -1)
    by_degree = {}
    for c in classes:
        by_degree[c.coeffs[0]] = by_degree.get(c.coeffs[0], 0) + 1
    assert by_degree == {0: 6, 1: 15, 2: 6}


def test_rank_nine_rejected():
    with pytest.raises(LatticeError):
        enumerate_classes(make(9), -1)


class Square(int):
    pass


# True ran as s = 1 (the 17,520 classes of s = 1); 1.0 and "1" raised a bare TypeError
_NOT_A_SQUARE = {"bool": True, "float": 1.0, "str": "1", "int subclass": Square(1), "None": None}


@pytest.mark.parametrize("s", _NOT_A_SQUARE.values(), ids=_NOT_A_SQUARE)
def test_enumeration_refuses_a_self_intersection_that_is_not_an_exact_int(s):
    with pytest.raises(LatticeError) as caught:
        enumerate_classes(make(8), s)
    assert str(caught.value) == f"a self-intersection must be an exact int, not {type(s).__name__}"


def test_nodal_filter_on_inoue_lattice():
    config, _ = fixture("inoue")
    lat = config.lattice
    classes = enumerate_classes(lat, -1)
    assert len(classes) == 27
    kept = filter_effective_against_nodal(classes, config)
    assert len(kept) == 9
    expected = {lat.exceptional(n).coeffs for n in lat.exceptional_names}
    expected |= {config.cls(n).coeffs for n in ("Gamma1", "Gamma2", "Gamma3")}
    assert {c.coeffs for c in kept} == expected


def test_nodal_filter_keeps_nodal_classes_and_is_idempotent():
    config, _ = fixture("inoue")
    classes = enumerate_classes(config.lattice, -2)
    assert len(classes) == 72
    kept = filter_effective_against_nodal(classes, config)
    once = [c.coeffs for c in kept]
    twice = [c.coeffs for c in filter_effective_against_nodal(kept, config)]
    assert once == twice
    for name in ("Z1", "Z2", "Z3", "Z"):
        assert config.cls(name).coeffs in once
    # order preserved, subset of input
    it = iter(c.coeffs for c in classes)
    assert all(any(c == x for x in it) for c in once)


def test_filter_monotone_in_the_nodal_set():
    # removing nodal curves removes constraints, so the output only grows
    config, _ = fixture("inoue")
    pool = enumerate_classes(config.lattice, -1) + enumerate_classes(config.lattice, -2)
    full = {c.coeffs for c in filter_effective_against_nodal(pool, config)}
    for dropped in (c.name for c in config.by_role("nodal")):
        curves = tuple(
            c for c in config.curves if not (c.role == "nodal" and c.name == dropped)
        )
        reduced = CurveConfiguration(config.lattice, curves)
        kept = {c.coeffs for c in filter_effective_against_nodal(pool, reduced)}
        assert full <= kept
    no_nodal = CurveConfiguration(
        config.lattice, tuple(c for c in config.curves if c.role != "nodal")
    )
    unconstrained = filter_effective_against_nodal(pool, no_nodal)
    assert [c.coeffs for c in unconstrained] == [c.coeffs for c in pool]


def test_filter_tests_a_repeated_nodal_class_once(monkeypatch):
    # a nodal class under extra names filters exactly as its one copy does,
    # in the same order, and costs no extra pairing
    from bidouble import curves

    config, _ = fixture("inoue")
    copies = tuple(NamedCurve(f"Z1{tag}", config.cls("Z1"), "nodal") for tag in "abc")
    repeated = CurveConfiguration(config.lattice, config.curves + copies)
    pool = enumerate_classes(config.lattice, -1) + enumerate_classes(config.lattice, -2)
    pairings = []
    monkeypatch.setattr(curves, "intersect", lambda a, b: pairings.append(1) or a.dot(b))
    once = [c.coeffs for c in filter_effective_against_nodal(pool, config)]
    single = len(pairings)
    assert [c.coeffs for c in filter_effective_against_nodal(pool, repeated)] == once
    assert len(pairings) == 2 * single


def test_configuration_role_validation():
    lat = make(2)
    with pytest.raises(ConfigurationError, match=re.escape(
            "nodal curve 'N' has (C^2, K.C) = (1, -3), wanted (-2, 0)")):
        CurveConfiguration(
            lat, (NamedCurve("N", lat.divisor((1, 0, 0)), "nodal"),)
        )
    with pytest.raises(ConfigurationError, match=re.escape(
            "minus_one curve 'E' has (C^2, K.C) = (-2, -2), wanted (-1, -1)")):
        CurveConfiguration(
            lat, (NamedCurve("E", lat.divisor((0, 1, 1)), "minus_one"),)
        )
    with pytest.raises(ConfigurationError):
        CurveConfiguration(
            lat,
            (
                NamedCurve("A", lat.exceptional("E1"), "other"),
                NamedCurve("A", lat.exceptional("E2"), "other"),
            ),
        )
    with pytest.raises(ConfigurationError):
        CurveConfiguration(
            lat, (NamedCurve("X", lat.divisor((0, 1, 0)), "hero"),)
        )


def test_configuration_lookup():
    config, _ = fixture("dp1")
    assert config.cls("Fb").coeffs[0] == 1
    assert {c.name for c in config.by_role("nodal")} == {
        "C1", "C2", "C3", "C1'", "C2'", "C3'",
    }
    with pytest.raises(ConfigurationError):
        config.curve("nope")


def test_intersection_table_checks():
    _, cover = fixture("dp1")
    table = {("Lambda", "Lambda"): -1, ("Lambda", "Fb"): 3, ("B2", "B3"): 1}
    # dp1's expectations with only this table: no fiber, dot or swap rows
    dp1 = expectations("dp1")
    expect = FixtureExpectations(case=dp1.case, d_shape=dp1.d_shape, table=table,
                                 fibers=(), d_dot={}, m_dot={}, swap=None)
    cert = run_verification(cover, expect, "table: dp1")
    rows = {r.row_id: r for r in cert.rows if r.row_id.startswith("table/")}
    # sorted key order, not the order the table was written in
    assert list(rows) == ["table/B2.B3", "table/Lambda.Fb", "table/Lambda.Lambda"]
    bad = rows["table/Lambda.Fb"]
    assert (bad.computed, bad.expected, bad.status) == (2, 3, "fail")
    # a key naming one curve twice checks its self-intersection
    square = rows["table/Lambda.Lambda"]
    assert (square.computed, square.expected, square.status) == (-1, -1, "pass")
    assert [r.row_id for r in cert.failures()] == ["table/Lambda.Fb"]


def test_fiber_decomposition_checks():
    config, _ = fixture("inoue")
    good = FiberDecomposition("F2", (("Z1", 1), ("E2'", 2), ("Z3", 1)))
    assert verify_fiber_decomposition(config, good) == []

    wrong_mult = FiberDecomposition("F2", (("Z1", 1), ("E2'", 1), ("Z3", 1)))
    problems = verify_fiber_decomposition(config, wrong_mult)
    assert any("sum to" in p for p in problems)

    nonpositive = FiberDecomposition("F2", (("Z1", 1), ("E2'", 2), ("Z3", 0)))
    assert any("multiplicity" in p for p in verify_fiber_decomposition(config, nonpositive))

    not_a_fiber = FiberDecomposition("Z1", (("Z1", 1),))
    assert any("square" in p for p in verify_fiber_decomposition(config, not_a_fiber))
