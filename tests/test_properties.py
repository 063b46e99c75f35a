"""Randomized and exhaustive property suites.

Each randomized suite runs at least a thousand trials from a fixed seed,
so failures are reproducible. The mutation suite is exhaustive over all
single edits of the fixture cover data.
"""

from __future__ import annotations

import random
from itertools import permutations, product

import pytest

from bidouble.classifier import (
    MAX_K2,
    ClassifierError,
    _m_domain,
    _m_failure,
    branch_matrix_determinant,
    candidate_k_triples,
    classify,
    enumerate_m_triples,
    enumerate_m_triples_trace,
)
from bidouble.covers import CoverData, building_data_rows
from bidouble.curves import enumerate_classes, filter_effective_against_nodal
from bidouble.fixtures import fixture
from bidouble.lattice import (
    SurfaceLattice,
    arithmetic_genus,
    halve,
    is_perfect_square,
    riemann_roch_chi,
)

TRIALS = 1000
SEED = 20260814

LATTICES = [
    SurfaceLattice(f"prop{n}", tuple(f"E{i}" for i in range(1, n + 1)))
    for n in range(1, 9)
]


def random_class(rng, lattice):
    return lattice.divisor(tuple(rng.randint(-9, 9) for _ in range(lattice.rank)))


def test_pairing_symmetry_and_bilinearity():
    for lat in LATTICES:
        basis = [lat.divisor(tuple(int(i == j) for j in range(lat.rank)))
                 for i in range(lat.rank)]
        for i, a in enumerate(basis):
            for j, b in enumerate(basis):
                expected = 1 if i == j == 0 else -1 if i == j else 0
                assert a.dot(b) == expected
    rng = random.Random(SEED)
    for _ in range(TRIALS):
        lat = rng.choice(LATTICES)
        a, b, c = (random_class(rng, lat) for _ in range(3))
        s = rng.randint(-7, 7)
        assert a.dot(b) == b.dot(a)
        assert (a + b).dot(c) == a.dot(c) + b.dot(c)
        assert (s * a).dot(b) == s * a.dot(b)


def test_adjunction_parity_and_serre_symmetry():
    rng = random.Random(SEED + 1)
    for _ in range(TRIALS):
        lat = rng.choice(LATTICES)
        a = random_class(rng, lat)
        k = lat.canonical_class()
        assert (a.dot(a) + k.dot(a)) % 2 == 0
        assert isinstance(arithmetic_genus(a), int)
        assert riemann_roch_chi(a) == riemann_roch_chi(k - a)
        assert riemann_roch_chi(a) + riemann_roch_chi(k - a) == a.dot(a - k) + 2


def det_oracle(m1, m2, m3):
    rows = ((-1, m1, m2), (m1, -1, m3), (m2, m3, -1))
    return (
        rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
        - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
        + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
    )


def test_branch_determinant_against_cofactor_oracle():
    # exhaustive over all triples with entries <= 15 (the odd ones are the
    # meaningful domain, the rest come along for free), plus random values
    count = 0
    for m1 in range(16):
        for m2 in range(16):
            for m3 in range(16):
                assert branch_matrix_determinant((m1, m2, m3)) == det_oracle(m1, m2, m3)
                count += 1
    rng = random.Random(SEED + 2)
    while count < 5 * TRIALS:
        m = tuple(rng.randint(-99, 99) for _ in range(3))
        assert branch_matrix_determinant(m) == det_oracle(*m)
        count += 1


def test_genus_bound_is_implied_by_earlier_filters():
    # With dk = (K^2 - sum k) // 2, the genus bound K^2 + dk >= 0 needs no
    # filter of its own: if it fails, M^2 = 2K^2 - sum l + 2dk <= -sum l - 2 < 0
    # because every domain m has l_i >= 0. Any k, ordered or not, of either
    # parity and whether or not stage one keeps it. Draws continue until both
    # the trial count and the candidate count are reached.
    rng = random.Random(SEED)
    trials = checked = 0
    while trials < TRIALS or checked <= 100 * TRIALS:
        k2 = rng.randint(1, 5)
        k = tuple(rng.randint(0, 3 * k2 + 3) for _ in range(3))
        if k2 + (k2 - sum(k)) // 2 >= 0:
            continue
        trials += 1
        for m in _m_domain(k):
            assert _m_failure(k2, k, m) is not None, (k2, k, m)
            checked += 1
    assert checked > 100 * TRIALS


def k_orbit(k, m):
    # the index permutations of m that fix k relabel the same case
    return {tuple(m[i] for i in p) for p in permutations(range(3))
            if tuple(k[i] for i in p) == tuple(k)}


def assert_one_case_per_orbit(k2, k, survivors):
    found = [c.m for c in enumerate_m_triples(k2, k)]
    orbits = [k_orbit(k, m) for m in found]
    assert set().union(*orbits) == survivors, (k2, k)
    assert sum(map(len, orbits)) == len(survivors), (k2, k)
    # in table order, which the walk meets: larger total intersection
    # first, then reported form ascending
    keys = [(-sum(m), m[::-1]) for m in found]
    assert keys == sorted(keys), (k2, k)
    # the reported member: m_1 <= m_3 <= m_2 on each index pair whose k agree
    for m in found:
        assert k[0] != k[1] or m[0] <= m[1], (k2, k, m)
        assert k[0] != k[2] or m[0] <= m[2], (k2, k, m)
        assert k[1] != k[2] or m[2] <= m[1], (k2, k, m)


def test_stage_two_domain_against_full_box():
    # brute force: every m_i of the parity of k_i up to k_i + 4, with the
    # even-nodal-count rule l_i = (k_i + 4 - m_i) / 2 applied here rather
    # than in the search domain
    for k2 in range(1, 21):
        for k in candidate_k_triples(k2):
            survivors, rejections = set(), []
            for m in product(*(range(k[i] % 2, k[i] + 5, 2) for i in range(3))):
                if any((m[i] - k[i]) % 4 for i in range(3)):
                    continue
                failure = _m_failure(k2, k, m)
                if failure is None:
                    survivors.add(m)
                else:
                    rejections.append((k, m, *failure))
            assert_one_case_per_orbit(k2, k, survivors)
            traced = enumerate_m_triples_trace(k2, k)[1]
            assert [(r.k, r.m, r.filter_name, r.detail) for r in traced] == rejections


def test_bounded_search_against_domain_brute_force():
    # the closed-form bounds of the search are exact for any k in 0..K^2,
    # ordered or not, of either parity and whether or not stage one keeps
    # it: the survivors are one member of each k-stabiliser orbit of the
    # domain m that pass every filter of _m_failure; a k_i above K^2 is
    # never a case, and stage two refuses it
    rng = random.Random(SEED + 5)
    nonempty = refused = 0
    for _ in range(TRIALS):
        k2 = rng.randint(1, 12)
        k = tuple(rng.randint(0, k2 + 2) for _ in range(3))
        if max(k) > k2:
            for enumerate_cases in (enumerate_m_triples, enumerate_m_triples_trace):
                with pytest.raises(ClassifierError, match="outside 0..K"):
                    enumerate_cases(k2, k)
            refused += 1
            continue
        expected = {m for m in _m_domain(k) if _m_failure(k2, k, m) is None}
        assert_one_case_per_orbit(k2, k, expected)
        nonempty += bool(expected)
    assert nonempty > TRIALS // 10 and refused > TRIALS // 10


def test_bounded_search_against_domain_brute_force_for_every_k():
    # the random draws above, made exhaustive at the lower degrees: every k
    # in 0..K^2, in any order, for K^2 <= 12 (8,280 triples)
    count = nonempty = 0
    for k2 in range(1, 13):
        for k in product(range(k2 + 1), repeat=3):
            expected = {m for m in _m_domain(k) if _m_failure(k2, k, m) is None}
            assert_one_case_per_orbit(k2, k, expected)
            count += 1
            nonempty += bool(expected)
    assert count == 8280 and nonempty == 3131


def test_bounded_search_at_the_benchmark_degrees():
    # the degrees the benchmark classifies, above those the tests before
    # this one reach, and 49, near the cap: for every k stage one keeps, the
    # survivors are one member of each k-stabiliser orbit of the domain m
    # that pass every filter, in table order
    for k2 in (15, 21, 25, 49):
        for k in candidate_k_triples(k2):
            expected = {m for m in _m_domain(k) if _m_failure(k2, k, m) is None}
            assert_one_case_per_orbit(k2, k, expected)


def test_every_case_classify_emits_is_sound():
    # soundness at every degree the search accepts, the walk's inline
    # determinant included: each emitted case passes every filter, has a
    # square det A and even nonnegative nodal counts (completeness is the
    # brute-force tests' part above)
    count = 0
    for k2 in range(1, MAX_K2 + 1):
        for case in classify(k2):
            assert _m_failure(k2, case.k, case.m) is None, case
            assert is_perfect_square(branch_matrix_determinant(case.m)), case
            assert all(x >= 0 and x % 2 == 0 for x in case.l), case
            # only the K^2 = 7 table states a status other than "open"
            assert k2 == 7 or case.status == "open", case
            count += 1
    assert count == 29993


def test_sign_elimination_sweep_never_square():
    # with m odd, 1 + m^2 = 2 (mod 8), so 2^l (1 + m^2) has odd 2-adic
    # valuation for even l: the sign choice it stands for never occurs
    count = 0
    for l_total in range(0, 21, 2):
        for m in range(1, 200, 2):
            assert is_perfect_square((1 << l_total) * (1 + m * m)) is False
            count += 1
    assert count >= TRIALS


def test_filter_is_pointwise_idempotent_and_order_preserving():
    config, _ = fixture("inoue")
    pool = enumerate_classes(config.lattice, -1) + enumerate_classes(config.lattice, -2)
    keep = {c.coeffs for c in filter_effective_against_nodal(pool, config)}
    rng = random.Random(SEED + 3)
    for _ in range(TRIALS):
        sample = rng.sample(pool, rng.randint(0, len(pool)))
        kept = filter_effective_against_nodal(sample, config)
        # pointwise: membership depends only on the class itself
        assert [c.coeffs for c in kept] == [c.coeffs for c in sample if c.coeffs in keep]
        again = filter_effective_against_nodal(kept, config)
        assert [c.coeffs for c in again] == [c.coeffs for c in kept]


def test_halve_round_trip():
    rng = random.Random(SEED + 4)
    for _ in range(TRIALS):
        lat = rng.choice(LATTICES)
        c = random_class(rng, lat)
        doubled = 2 * c
        half = halve(doubled)
        assert half is not None and half.coeffs == c.coeffs
        if any(x % 2 for x in c.coeffs):
            assert halve(c) is None


def test_cover_sums_match_name_by_name_sums():
    # CoverData sums each branch list from its name counts; the oracle adds
    # the named classes one at a time, repeats and all, through
    # DivisorClass.__add__, and splits off the nodal names by role
    rng = random.Random(SEED + 6)
    configs = [fixture(name)[0] for name in ("dp1", "inoue")]
    halvable = set()
    for _ in range(TRIALS):
        config = rng.choice(configs)
        names = config.names()
        delta = [[rng.choice(names) for _ in range(rng.randint(0, 15))] for _ in range(3)]
        deltas, branches, l = [], [], []
        for picked in delta:
            whole = branch = config.lattice.zero()
            nodal = 0
            for name in picked:
                whole = whole + config.cls(name)
                if config.curve(name).role == "nodal":
                    nodal += 1
                else:
                    branch = branch + config.cls(name)
            deltas.append(whole)
            branches.append(branch)
            l.append(nodal)
        cover = CoverData(config, delta, None)
        assert cover.deltas == tuple(deltas)
        assert cover.branches == tuple(branches)
        assert cover.l == tuple(l)
        for i, root in enumerate(cover.roots):
            pair_sum = deltas[(i + 1) % 3] + deltas[(i + 2) % 3]
            if any(c % 2 for c in pair_sum.coeffs):
                assert root is None
            else:
                assert 2 * root == pair_sum
            halvable.add(root is not None)
        as_tuples = CoverData(config, tuple(tuple(picked) for picked in delta), None)
        assert cover.delta == as_tuples.delta
        assert cover == as_tuples and hash(cover) == hash(as_tuples)
    assert halvable == {True, False}  # both outcomes were drawn


def assert_some_row_fails(cover):
    rows = building_data_rows(cover)
    assert any(r.status == "fail" for r in rows), "mutation went undetected"


def test_any_single_delta_edit_is_detected():
    for name in ("dp1", "inoue"):
        config, cover = fixture(name)
        for i in range(3):
            for dropped in cover.delta[i]:
                delta = list(cover.delta)
                delta[i] = tuple(n for n in delta[i] if n != dropped)
                assert_some_row_fails(CoverData(config, delta, cover.roots))
            for added in config.names():
                if added in cover.delta[i]:
                    continue
                delta = list(cover.delta)
                delta[i] = delta[i] + (added,)
                assert_some_row_fails(CoverData(config, delta, cover.roots))


def test_any_single_root_edit_is_detected():
    for name in ("dp1", "inoue"):
        config, cover = fixture(name)
        lat = config.lattice
        units = [lat.line()] + [lat.exceptional(e) for e in lat.exceptional_names]
        for i in range(3):
            for unit in units:
                roots = list(cover.roots)
                roots[i] = roots[i] + unit
                assert_some_row_fails(CoverData(config, cover.delta, roots))
