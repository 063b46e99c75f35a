from __future__ import annotations

import pytest

from bidouble.certificates import Table
from bidouble.classifier import (
    MAX_K2,
    ClassifierError,
    MRejection,
    NumericalCase,
    _case_table,
    _k_domain,
    _k_failure,
    branch_matrix_determinant,
    candidate_k_triples,
    candidate_k_triples_trace,
    classification_certificate,
    classify,
    classify_with_trace,
    eigenspace_dims,
    enumerate_m_triples,
    enumerate_m_triples_trace,
)


def cofactor_det(m1: int, m2: int, m3: int) -> int:
    rows = ((-1, m1, m2), (m1, -1, m3), (m2, m3, -1))
    return (
        rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
        - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
        + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
    )


def test_branch_matrix_determinant_spot_values():
    assert branch_matrix_determinant((1, 1, 1)) == 4
    assert branch_matrix_determinant((7, 9, 5)) == 784
    assert branch_matrix_determinant((1, 5, 7)) == 144
    assert branch_matrix_determinant((3, 9, 9)) == 656
    assert branch_matrix_determinant((5, 5, 3)) == 208
    assert branch_matrix_determinant((2, 2, 2)) == cofactor_det(2, 2, 2)


def test_eigenspace_dims():
    assert eigenspace_dims(7, (7, 5, 5)) == (7, 1, 0, 0)
    assert eigenspace_dims(7, (5, 5, 3)) == (6, 1, 1, 0)
    assert eigenspace_dims(7, (5, 3, 1)) == (5, 2, 1, 0)
    with pytest.raises(ClassifierError):
        eigenspace_dims(7, (7, 5, 4))


def test_eigenspace_dims_sum_rule():
    for k in candidate_k_triples(7):
        dims = eigenspace_dims(7, k)
        assert sum(dims) == 7 + 1


def test_candidate_k_triples():
    got = candidate_k_triples(7)
    assert got == [
        (7, 5, 5), (7, 3, 3), (7, 1, 1),
        (5, 5, 3), (5, 3, 1), (3, 3, 3), (3, 1, 1),
    ]
    first = {k for k in got if k[0] == 7}
    rest = {k for k in got if k[0] != 7}
    assert first == {(7, 1, 1), (7, 3, 3), (7, 5, 5)}
    assert rest == {(3, 1, 1), (3, 3, 3), (5, 3, 1), (5, 5, 3)}


def test_stage_one_closed_form_against_domain_filters():
    # the closed-form walk keeps exactly the domain triples that pass every
    # test of _k_failure, in domain order
    for k2 in range(1, MAX_K2 + 1):
        expected = [k for k in _k_domain(k2) if _k_failure(k2, k) is None]
        assert candidate_k_triples(k2) == expected, k2


def test_candidate_k_rejection_reasons():
    _, rejections = candidate_k_triples_trace(7)
    reasons = {r.k: r.reason for r in rejections}
    assert reasons[(7, 7, 5)] == "character dimension integrality"
    assert reasons[(7, 7, 3)] == "negative character dimension"
    assert reasons[(7, 7, 7)] == "bicanonical degree"


def test_stage_one_needs_positive_degree():
    for k2 in (0, -3):
        with pytest.raises(ClassifierError):
            candidate_k_triples_trace(k2)
        with pytest.raises(ClassifierError):
            candidate_k_triples(k2)


def test_stage_two_needs_positive_degree():
    # the search's bounds divide by K^2, so a degree below 1 is refused
    # rather than answered with a meaningless list
    for k2 in (0, -3):
        with pytest.raises(ClassifierError, match="positive K\\^2 required"):
            enumerate_m_triples(k2, (1, 1, 1))
        with pytest.raises(ClassifierError, match="positive K\\^2 required"):
            enumerate_m_triples_trace(k2, (5, 3, 1))


class Degree(int):
    pass


# A K^2 that is not an exact int: True ran as K^2 = 1 (and a certificate said
# "computed": true), 7.0 and "7" raised a bare TypeError from range() or <.
_NOT_A_DEGREE = {"bool": True, "float": 7.0, "str": "7", "int subclass": Degree(7), "None": None}


@pytest.mark.parametrize("search", [
    candidate_k_triples,
    lambda k2: enumerate_m_triples(k2, (1, 1, 1)),
    classify,
    classification_certificate,
    classify_with_trace,
], ids=["candidate_k_triples", "enumerate_m_triples", "classify", "classification_certificate",
        "classify_with_trace"])
def test_every_search_refuses_a_degree_that_is_not_an_exact_int(search):
    for name, k2 in _NOT_A_DEGREE.items():
        with pytest.raises(ClassifierError) as caught:
            search(k2)
        assert str(caught.value) == f"K^2 must be an exact int, not {type(k2).__name__}", name


# A K^2, k or m that is not exact ints: True ran as 1, (5.0, 5, 3) and
# ("5", 5, 3) raised a bare TypeError, (5, 5) a bare ValueError, and a case
# with K^2 = 7.0 was built, read its status and failed only when rendered.
_NOT_K = "k must be a tuple of three exact ints, not "
_NOT_M = "m must be a tuple of three exact ints, not "
_NOT_A_CASE = {
    "bool in k": (7, (True, 1, 1), (1, 1, 1), _NOT_K + "(True, 1, 1)"),
    "float in k": (7, (5.0, 5, 3), (1, 5, 7), _NOT_K + "(5.0, 5, 3)"),
    "str in k": (7, ("5", 5, 3), (1, 5, 7), _NOT_K + "('5', 5, 3)"),
    "int subclass in k": (7, (Degree(5), 5, 3), (1, 5, 7), _NOT_K + "(5, 5, 3)"),
    "two k": (7, (5, 5), (1, 5, 7), _NOT_K + "(5, 5)"),
    "four k": (7, (5, 5, 3, 1), (1, 5, 7), _NOT_K + "(5, 5, 3, 1)"),
    "list k": (7, [5, 5, 3], (1, 5, 7), _NOT_K + "[5, 5, 3]"),
    "None k": (7, None, (1, 5, 7), _NOT_K + "None"),
    "float K^2": (7.0, (5, 5, 3), (1, 5, 7), "K^2 must be an exact int, not float"),
    "bool K^2": (True, (1, 1, 1), (1, 1, 1), "K^2 must be an exact int, not bool"),
    "float in m": (7, (5, 5, 3), (1, 5, 7.0), _NOT_M + "(1, 5, 7.0)"),
    "bool in m": (7, (5, 5, 3), (True, 5, 7), _NOT_M + "(True, 5, 7)"),
    "two m": (7, (5, 5, 3), (1, 5), _NOT_M + "(1, 5)"),
    "list m": (7, (5, 5, 3), [1, 5, 7], _NOT_M + "[1, 5, 7]"),
}


@pytest.mark.parametrize("k2, k, m, message", _NOT_A_CASE.values(), ids=_NOT_A_CASE.keys())
def test_a_k_or_case_that_is_not_exact_ints_is_refused(k2, k, m, message):
    with pytest.raises(ClassifierError) as caught:
        NumericalCase(k2, k, m)
    assert str(caught.value) == message
    if not message.startswith("m "):  # stage two takes K^2 and k only
        for search in (enumerate_m_triples, enumerate_m_triples_trace):
            with pytest.raises(ClassifierError) as caught:
                search(k2, k)
            assert str(caught.value) == message, search


def test_stage_two_refuses_what_stage_one_refuses():
    # a degree above the cap, and a k_i outside 0..K^2, which is never a
    # case, are refused before any walk: the m-domain grows with k alone,
    # so the traced walk over a large k would build millions of rejections
    for k2, k, message in (
        (MAX_K2 + 1, (1, 1, 1), f"above the supported maximum {MAX_K2}"),
        (801, (801, 799, 799), f"above the supported maximum {MAX_K2}"),
        (7, (801, 799, 799), "outside 0..K\\^2 = 7"),
        (7, (9, 5, 5), "outside 0..K\\^2 = 7"),
        (7, (7, 5, -1), "outside 0..K\\^2 = 7"),
    ):
        with pytest.raises(ClassifierError, match=message):
            enumerate_m_triples(k2, k)
        with pytest.raises(ClassifierError, match=message):
            enumerate_m_triples_trace(k2, k)
    # a k inside 0..K^2 that stage one refuses is still walked
    assert enumerate_m_triples(7, (7, 7, 7)) == []
    assert enumerate_m_triples(MAX_K2, (0, 0, 0)) == []


def test_stage_one_refuses_degree_above_cap():
    assert candidate_k_triples(MAX_K2)
    with pytest.raises(ClassifierError, match=f"above the supported maximum {MAX_K2}"):
        candidate_k_triples_trace(MAX_K2 + 1)
    with pytest.raises(ClassifierError):
        classify(MAX_K2 + 1)


def test_even_degrees_have_no_survivors():
    # For even K^2 every k_i is even, so every domain m_i = k_i (mod 4) is
    # even too. With m_i = 2a_i the determinant is
    # 4(a_1^2 + a_2^2 + a_3^2) + 16a_1a_2a_3 - 1 = 3 (mod 4), and no square
    # is 3 mod 4 (nor is -1 a square): the square test rejects every m.
    for k2 in range(2, MAX_K2 + 1, 2):
        assert classify(k2) == [], k2


def test_m_survivors_per_k():
    surv = enumerate_m_triples(7, (7, 5, 5))
    assert len(surv) == 1
    assert surv[0].m == (7, 9, 5)
    assert surv[0].l == (2, 0, 2)
    assert surv[0].k_sigma_sq == 3
    assert surv[0].det_a == 784

    surv = enumerate_m_triples(7, (5, 5, 3))
    assert [(s.m, s.l, s.k_sigma_sq, s.det_a) for s in surv] == [
        ((1, 5, 7), (4, 2, 0), 1, 144),
        ((1, 5, 3), (4, 2, 2), -1, 64),
        ((1, 1, 7), (4, 4, 0), -1, 64),
    ]

    surv = enumerate_m_triples(7, (5, 3, 1))
    assert [(s.m, s.l) for s in surv] == [((1, 3, 1), (4, 2, 2))]

    for k in ((7, 3, 3), (7, 1, 1), (3, 3, 3), (3, 1, 1)):
        assert enumerate_m_triples(7, k) == []


def test_m_rejection_traces():
    _, rej = enumerate_m_triples_trace(7, (7, 5, 5))
    by_reported = {r.m_reported: r for r in rej}
    hit = by_reported[(9, 9, 3)]
    assert hit.filter_name == "determinant square test"
    assert "656" in hit.detail

    _, rej = enumerate_m_triples_trace(7, (5, 5, 3))
    by_reported = {r.m_reported: r for r in rej}
    hit = by_reported[(3, 5, 5)]
    assert hit.filter_name == "determinant square test"
    assert "208" in hit.detail

    _, rej = enumerate_m_triples_trace(7, (7, 3, 3))
    by_reported = {r.m_reported: r for r in rej}
    assert by_reported[(7, 7, 3)].filter_name == "triple index bound"


def test_even_k_domain_includes_zero():
    # m_i = 0 is allowed for even k_i; at K^2 = 8 some candidates have it
    assert any(0 in r.m for r in classify_with_trace(8) if type(r) is MRejection)


def test_survivor_canonical_under_k_symmetry():
    # k has a repeated entry, so (7, 9, 5) and (7, 5, 9) describe the same
    # case; the enumeration must return one canonical representative.
    surv = enumerate_m_triples(7, (7, 5, 5))
    assert [s.m for s in surv] == [(7, 9, 5)]


def k_fixing_perms(k):
    import itertools

    return [
        p
        for p in itertools.permutations(range(3))
        if tuple(k[i] for i in p) == k
    ]


def test_every_survivor_is_its_orbit_representative():
    # permuting indices that fix k yields the same case; the emitted triple
    # must be the canonical element of that orbit (max by rotated key), so
    # each orbit shows up exactly once
    for k in candidate_k_triples(7):
        survivors = enumerate_m_triples(7, k)
        seen_orbits = []
        for s in survivors:
            orbit = {tuple(s.m[i] for i in p) for p in k_fixing_perms(k)}
            assert s.m == max(orbit, key=lambda m: (m[1], m[2], m[0]))
            assert orbit not in seen_orbits
            seen_orbits.append(orbit)


def test_all_emitted_nodal_counts_are_even():
    for c in classify(7):
        assert all(x % 2 == 0 for x in c.l)
    for k in candidate_k_triples(7):
        for s in enumerate_m_triples(7, k):
            assert all(x % 2 == 0 for x in s.l)


def test_classify_k7_table():
    cases = [(c.k, c.m, c.det_a) for c in classify(7)]
    assert _case_table(7, cases).dicts() == [
        {"K2": 7, "k": [7, 5, 5], "m": [5, 9, 7], "r": [-1, -1, -1],
         "l": [2, 0, 2], "KSigma2": 3, "detA": 784, "status": "realized_inoue"},
        {"K2": 7, "k": [5, 5, 3], "m": [7, 5, 1], "r": [-1, -1, -1],
         "l": [4, 2, 0], "KSigma2": 1, "detA": 144, "status": "realized_dp1"},
        {"K2": 7, "k": [5, 5, 3], "m": [3, 5, 1], "r": [-1, -1, -1],
         "l": [4, 2, 2], "KSigma2": -1, "detA": 64, "status": "excluded_geometric"},
        {"K2": 7, "k": [5, 5, 3], "m": [7, 1, 1], "r": [-1, -1, -1],
         "l": [4, 4, 0], "KSigma2": -1, "detA": 64, "status": "excluded_geometric"},
        {"K2": 7, "k": [5, 3, 1], "m": [1, 3, 1], "r": [-1, -1, -1],
         "l": [4, 2, 2], "KSigma2": -1, "detA": 16, "status": "open"},
    ]


def test_certificate_survivor_rows_are_the_classified_cases():
    # the certificate writes its survivor rows from the stage-two walk with
    # no NumericalCase; at every degree they are the cases' rows, read off
    # the case's own properties, key order included (markdown cells keep
    # it), as dicts at K^2 = 7 and as the rows of a table elsewhere; and
    # each det A the walk computed is the closed form of the row's m
    for k2 in range(1, MAX_K2 + 1):
        rows = classification_certificate(k2).rows
        if k2 == 7:  # table/count, then one table/* row per reference case
            survivors = [list(r.computed.items()) for r in rows[1:]]
        else:
            assert rows[1].row_id == "table/unvalidated"
            table = rows[1].computed
            assert type(table) is Table, k2
            survivors = [list(row.items()) for row in table.dicts()]
        expected = [[("K2", c.k2), ("k", list(c.k)), ("m", list(c.m_reported)), ("r", [-1, -1, -1]),
                     ("l", list(c.l)), ("KSigma2", c.k_sigma_sq), ("detA", c.det_a),
                     ("status", c.status)] for c in classify(k2)]
        assert survivors == expected, k2
        for items in survivors:
            d = dict(items)
            assert d["detA"] == branch_matrix_determinant(tuple(reversed(d["m"]))), (k2, d)


def test_the_survivor_table_holds_each_constant_once():
    # K^2, the R_i^2 and the status are the same in every row away from
    # K^2 = 7, so each is a column of one cell; with no survivor, every
    # column is empty
    for k2 in range(1, MAX_K2 + 1):
        if k2 == 7:
            continue
        table = classification_certificate(k2).rows[1].computed
        assert table.keys == ("K2", "k", "m", "r", "l", "KSigma2", "detA", "status")
        assert table.widths == (0, 3, 3, 3, 3, 0, 0, 0)
        count = len(classify(k2))
        one = min(count, 1)
        assert table.length == count, k2
        assert [len(column) for column in table.columns] == (
            [one] + [count] * 6 + [one] * 3 + [count] * 5 + [one]), k2
        assert table.columns[0] == (k2,) * one and table.columns[-1] == ("open",) * one
        assert table.columns[7:10] == ((-1,) * one,) * 3


def test_classify_trace_flags_validation():
    # stage one's rejections, then stage two's of each kept k; a degree the
    # search refuses is refused by the call, before any rejection. The cases
    # are classify's (test_classify_k7_table, test_every_case_classify_emits_is_sound)
    for k2 in (7, 5):
        kept, expected = candidate_k_triples_trace(k2)
        for k in kept:
            expected += enumerate_m_triples_trace(k2, k)[1]
        assert list(classify_with_trace(k2)) == expected, k2
    for k2 in (0, MAX_K2 + 1):
        with pytest.raises(ClassifierError):
            classify_with_trace(k2)


def test_numerical_case_consistency_enforced():
    # a case stores k and m, so what it can get wrong is an m whose nodal
    # count l_i = (k_i + 4 - m_i) / 2 is not a nonnegative integer
    good = classify(7)[0]

    def case(m):
        return NumericalCase(k2=good.k2, k=good.k, m=m)

    assert case(good.m) == good
    for i in range(3):
        def with_m_i(value):
            return good.m[:i] + (value,) + good.m[i + 1:]

        assert case(with_m_i(good.k[i] + 4)).l[i] == 0
        for bad in (good.k[i] + 6, good.m[i] + 1):
            with pytest.raises(ClassifierError, match=rf" at index {i + 1}: NumericalCase\("):
                case(with_m_i(bad))


def test_status_is_read_from_the_k7_table():
    # the table names five cases at K^2 = 7; every other case reads "open",
    # a valid one at K^2 = 7 that the table lacks and a table pair at K^2 = 8
    assert NumericalCase(7, (5, 5, 3), (1, 5, 7)).status == "realized_dp1"
    assert NumericalCase(7, (5, 5, 3), (1, 1, 3)).status == "open"
    assert NumericalCase(8, (5, 5, 3), (1, 5, 7)).status == "open"
