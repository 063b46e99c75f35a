"""Arithmetic classification of commuting-involution data on a K^2 = 7 surface.

A pair of commuting involutions on a minimal surface of general type with
p_g = 0 cuts the bicanonical space into four character subspaces and hands
each of the three nontrivial involutions a divisorial fixed part R_i
(R_i^2 = -1 here). A case is K^2 and six integers, k_i = K.R_i and
m_1 = R_2.R_3, m_2 = R_1.R_3, m_3 = R_1.R_2; the rest is derived: the
number l_i = (k_i + 4 - m_i) / 2 of isolated branch nodes feeding the i-th
intermediate quotient, K_Sigma^2 = K^2 - sum l, det A and the status.

Stage one enumerates the k-triples allowed by character dimensions and by
the degree of the bicanonical map. Stage two considers only the m-triples
whose nodal counts l_i are even and nonnegative, so
m_i = k_i mod 4, ..., k_i + 4 in steps of 4, against a chain of exact tests
(signature bounds, a determinant that unimodularity forces to be a perfect
square and nonnegativity of an adjoint square, which implies the genus
bound). Everything is integer arithmetic.

All tests but the determinant are linear bounds on m_i or on
m_1 + m_2 + m_3, so the search solves them once per k and walks only the
m inside those bounds, testing the determinant alone there. Index
permutations fixing k only relabel a case, so the walk also visits just
one m per orbit of them: one case per k-stabiliser orbit, walked
directly. The traced variants walk the whole domain instead and report,
for each rejected candidate, the first test it fails in filter order;
that walk is also the oracle the bounded search is tested against.

``classification_certificate`` checks the survivors against ``K7_REFERENCE``,
the published K^2 = 7 table and the one place a status is written.

The numbers 7 appearing in prose above are really K^2; every function
takes K^2 as a parameter so the pipeline can be pointed at other values,
but only K^2 = 7 is validated against known geometry.
"""

from __future__ import annotations

from itertools import product
from math import isqrt

from ._record import Record
from .certificates import Certificate, check, recorded
from .lattice import index_bound_holds, is_perfect_square

class ClassifierError(ValueError):
    pass


# Largest K^2 the search accepts. Stage one alone lists about (K^2)^3 / 48
# k-triples before any test runs; at 50 the traced classification, which
# walks every candidate, takes a couple of seconds, and the cost grows
# steeply from there.
MAX_K2 = 50


Triple = tuple[int, int, int]

# (R_1^2, R_2^2, R_3^2): every divisorial fixed part is a (-1)-curve. The
# search builds this in (the class squares 2m_i - 2 and 2(m_1 + m_2 + m_3) - 3
# and the -1 diagonal of ``branch_matrix_determinant``), so no case carries it.
R_SQUARES: Triple = (-1, -1, -1)


def branch_matrix_determinant(m: Triple) -> int:
    """det of the pairing matrix of the three branch classes.

    The matrix has -1 on the diagonal and m_1, m_2, m_3 off it; expanding
    gives the closed form below. Unimodularity of the ambient lattice
    forces this determinant to be a perfect square for realizable data.
    """
    m1, m2, m3 = m
    return m1 * m1 + m2 * m2 + m3 * m3 + 2 * m1 * m2 * m3 - 1


def eigenspace_dims(k2: int, k: Triple) -> tuple[int, int, int, int]:
    """Dimensions of the four character subspaces of the bicanonical space.

    Returns (invariant part, then one entry per involution). Raises when
    the data is not 4-divisible where it must be; the total always comes
    out to K^2 + 1.
    """
    total = k2 + sum(k)
    if total % 4:
        raise ClassifierError(f"character dimensions not integral for k={k}, K2={k2}")
    dims = [total // 4 + 1]
    for i in range(3):
        num = k2 + k[i] - k[(i + 1) % 3] - k[(i + 2) % 3]
        if num % 4:
            raise ClassifierError(f"character dimensions not integral for k={k}, K2={k2}")
        dims.append(num // 4)
    return tuple(dims)  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# stage one: k-triples
# ---------------------------------------------------------------------------


class KRejection(Record):
    k: Triple
    reason: str


def _k_domain(k2: int) -> list[Triple]:
    lo = 1 if k2 % 2 else 0
    values = range(lo, k2 + 1, 2)
    triples = []
    for k1 in values:
        for k2_ in range(lo, k1 + 1, 2):
            for k3 in range(lo, k2_ + 1, 2):
                triples.append((k1, k2_, k3))
    triples.sort(reverse=True)
    return triples


def _k_failure(k2: int, k: Triple) -> str | None:
    try:
        dims = eigenspace_dims(k2, k)
    except ClassifierError:
        return "character dimension integrality"
    if min(dims) < 0:
        return "negative character dimension"
    # a divisorial part of degree K^2 means the bicanonical map already has
    # degree 2 on that involution, so at most one part can have it; past
    # the two tests above, the only triple with two such parts is
    # (K^2, K^2, K^2), and this rule decides exactly that one
    if k.count(k2) > 1:
        return "bicanonical degree"
    return None


def candidate_k_triples(k2: int) -> list[Triple]:
    """Non-increasing triples (K.R_1, K.R_2, K.R_3) surviving stage one.

    The tests of ``_k_failure`` in closed form, walked in ``_k_domain``
    order. Every k_i = K^2 (mod 2), so each character dimension's
    numerator is K^2 + sum k (mod 4): integrality puts k_3 on a grid of
    step 4. The least dimension is (K^2 + k_3 - k_1 - k_2) / 4, so
    k_3 >= k_1 + k_2 - K^2. And k_2 < K^2, since at most one part has
    degree K^2.
    """
    if k2 < 1:
        raise ClassifierError("positive K^2 required")
    if k2 > MAX_K2:
        raise ClassifierError(f"K^2 = {k2} is above the supported maximum {MAX_K2}")
    lo = k2 % 2
    triples = []
    for k1 in range(k2, lo - 1, -2):
        for k2_ in range(min(k1, k2 - 2), lo - 1, -2):
            top = k2_ - (k2 + k1 + 2 * k2_) % 4
            triples.extend((k1, k2_, k3) for k3 in range(top, max(lo, k1 + k2_ - k2) - 1, -4))
    return triples


def candidate_k_triples_trace(k2: int) -> tuple[list[Triple], list[KRejection]]:
    """Stage one, also returning each rejected triple with its first failing test."""
    kept = candidate_k_triples(k2)
    rejected = []
    for k in _k_domain(k2):
        reason = _k_failure(k2, k)
        if reason is not None:
            rejected.append(KRejection(k, reason))
    return kept, rejected


# ---------------------------------------------------------------------------
# stage two: m-triples for a fixed k
# ---------------------------------------------------------------------------


class MRejection(Record):
    k: Triple
    m: Triple
    filter_name: str
    detail: str

    @property
    def m_reported(self) -> Triple:
        return (self.m[2], self.m[1], self.m[0])


def _l_of(k: Triple, m: Triple) -> Triple:
    return ((k[0] + 4 - m[0]) // 2, (k[1] + 4 - m[1]) // 2, (k[2] + 4 - m[2]) // 2)


def _m_failure(k2: int, k: Triple, m: Triple) -> tuple[str, str] | None:
    """First failing filter for an m-triple, or None if it survives.

    Filter order matters only for reporting; the survivor set is the
    intersection of all of them.
    """
    # each index bound is index_bound_holds(K^2, K.C, C^2) for a class C:
    # C = R_j + R_k (K.C = k_j + k_k, C^2 = 2m_i - 2), C = R_1 + R_2 + R_3
    # (K.C = sum k, C^2 = 2(m_1 + m_2 + m_3) - 3), and on the base (dk, K_Sigma^2)
    k_sum = sum(k)
    for i in range(3):
        kc = k[(i + 1) % 3] + k[(i + 2) % 3]
        if not index_bound_holds(k2, kc, 2 * m[i] - 2):
            return ("pairwise index bound", f"{k2 * (2 * m[i] - 2)} > {kc * kc} at i={i + 1}")
    c_sq = 2 * sum(m) - 3
    if not index_bound_holds(k2, k_sum, c_sq):
        return ("triple index bound", f"{k2 * c_sq} > {k_sum * k_sum}")
    det = branch_matrix_determinant(m)
    if not is_perfect_square(det):
        return ("determinant square test", f"det A = {det} is not a square")
    k_sigma_sq = k2 - sum(_l_of(k, m))
    dk = (k2 - k_sum) // 2
    if not index_bound_holds(k2, dk, k_sigma_sq):
        return ("base index bound", f"{k2 * k_sigma_sq} > {dk * dk}")
    m_sq = k_sigma_sq + 2 * dk + k2
    if m_sq < 0:
        return ("adjoint square", f"M^2 = {m_sq} < 0")
    return None


def _m_domain(k: Triple) -> list[Triple]:
    # the m_i with an even nonnegative nodal count l_i (module docstring)
    return list(product(*(range(k[i] % 4, k[i] + 5, 4) for i in range(3))))


def _m_bounds(k2: int, k: Triple) -> tuple[Triple, int, int]:
    """The linear filters of ``_m_failure`` solved for m, once per k.

    Returns (cap on each m_i, least and greatest m_1 + m_2 + m_3). With
    s = sum k and dk = (K^2 - s) // 2, and sum l = (s + 12 - sum m) / 2:
    pairwise index bound  m_i <= 1 + (k_j + k_k)^2 // 2K^2;
    triple index bound    sum m <= (s^2 + 3K^2) // 2K^2;
    base index bound      K_Sigma^2 = K^2 - sum l <= dk^2 // K^2;
    adjoint square        K_Sigma^2 + 2dk + K^2 >= 0.
    """
    if k2 < 1:
        raise ClassifierError("positive K^2 required")
    s = sum(k)
    dk = (k2 - s) // 2
    caps = tuple(
        min(k[i] + 4, 1 + (k[(i + 1) % 3] + k[(i + 2) % 3]) ** 2 // (2 * k2))
        for i in range(3)
    )
    hi = min((s * s + 3 * k2) // (2 * k2), 2 * (dk * dk // k2) - 2 * k2 + s + 12)
    lo = s + 12 - 4 * k2 - 4 * dk
    return caps, lo, hi  # type: ignore[return-value]


def enumerate_m_triples(k2: int, k: Triple) -> list[NumericalCase]:
    """Surviving cases for one k, one per k-stabiliser orbit, deterministically ordered.

    Only the m inside the bounds of ``_m_bounds`` are visited, and each is
    tested for a square determinant. Triples related by an index
    permutation fixing k are the same case, so the walk visits only one
    member of each orbit. Order: larger total intersection first, then
    reported form ascending.
    """
    caps, lo, hi = _m_bounds(k2, k)
    floor3 = k[2] % 4  # the least m_3 on its grid
    if lo > hi or floor3 > caps[2]:
        return []
    # survivors as (-sum m, reported m), so one sort puts them in order
    found = []
    # One m per orbit: m_1 <= m_3 <= m_2 on each index pair whose k agree,
    # the reporting convention (reported m_1 <= reported m_2 when the last
    # two k agree, reported m_2 >= reported m_3 when the first two do).
    # Equal k share a residue mod 4, so the tightened starts stay on the grid.
    for m1 in range(k[0] % 4, caps[0] + 1, 4):
        # Only the m_2 whose m_3 range below is not empty, from least <= most:
        # lo - m1 - m2 <= caps[2], and <= m2 when k_3 = k_2, bound m_2 below;
        # floor3 <= hi - m1 - m2, and m1 <= hi - m1 - m2 when k_3 = k_1, above.
        # Every other pair of ends holds for all m_2 once the test above passed.
        start = m1 if k[1] == k[0] else k[1] % 4
        least_m2 = max(lo - m1 - caps[2], (lo - m1 + 1) // 2 if k[2] == k[1] else start)
        most_m2 = min(caps[1], hi - m1 - floor3, hi - 2 * m1 if k[2] == k[0] else caps[1])
        for m2 in range(max(start, least_m2 + (start - least_m2) % 4), most_m2 + 1, 4):
            # lo = sum k (mod 4), so lo - m1 - m2 = k_3 (mod 4) already
            least = max(floor3, lo - m1 - m2, m1 if k[2] == k[0] else 0)
            most = min(caps[2], hi - m1 - m2, m2 if k[2] == k[1] else caps[2])
            # branch_matrix_determinant, with the terms free of m_3 taken out
            fixed, twice = m1 * m1 + m2 * m2 - 1, 2 * m1 * m2
            for m3 in range(least, most + 1, 4):
                det = fixed + m3 * (m3 + twice)
                if det >= 0:
                    root = isqrt(det)
                    if root * root == det:
                        found.append((-(m1 + m2 + m3), m3, m2, m1))
    found.sort()
    return [NumericalCase(k2, k, (m1, m2, m3)) for _, m3, m2, m1 in found]


def enumerate_m_triples_trace(k2: int, k: Triple) -> tuple[list[NumericalCase], list[MRejection]]:
    """Stage two, also returning each rejected domain m with its first failing test."""
    cases = enumerate_m_triples(k2, k)
    rejections = []
    for m in _m_domain(k):
        failure = _m_failure(k2, k, m)
        if failure is not None:
            rejections.append(MRejection(k, m, *failure))
    return cases, rejections


# ---------------------------------------------------------------------------
# assembled cases
# ---------------------------------------------------------------------------


class NumericalCase(Record):
    """One case: K^2, k and m; l, K_Sigma^2, det A and the status are derived.

    m is stored as (R_2.R_3, R_1.R_3, R_1.R_2); the reported order used in
    tables reverses it to (R_1.R_2, R_1.R_3, R_2.R_3). The status is the
    case's entry in ``K7_REFERENCE``, or "open" for a case it does not name.
    """

    k2: int
    k: Triple
    m: Triple

    def __post_init__(self) -> None:
        for i in range(3):
            if self.m[i] > self.k[i] + 4 or (self.k[i] - self.m[i]) % 2:
                raise ClassifierError(f"l = (k + 4 - m) / 2 is not a nonnegative integer "
                                      f"at index {i + 1}: {self}")

    @property
    def l(self) -> Triple:
        return _l_of(self.k, self.m)

    @property
    def k_sigma_sq(self) -> int:
        return self.k2 - sum(self.l)

    @property
    def det_a(self) -> int:
        return branch_matrix_determinant(self.m)

    @property
    def m_reported(self) -> Triple:
        return (self.m[2], self.m[1], self.m[0])

    @property
    def status(self) -> str:
        return K7_REFERENCE.get((self.k, self.m) if self.k2 == 7 else None, "open")

    def to_json_dict(self) -> dict:
        l = _l_of(self.k, self.m)  # derived once for both of its entries
        return {
            "K2": self.k2,
            "k": list(self.k),
            "m": list(self.m_reported),
            "r": list(R_SQUARES),
            "l": list(l),
            "KSigma2": self.k2 - sum(l),
            "detA": branch_matrix_determinant(self.m),
            "status": self.status,
        }


# The published K^2 = 7 classification, in table order, from (k, m) (m in
# stored order) to the status that `NumericalCase.status` reads. Checked by
# `classification_certificate` below, so `classify --k2 7` fails loudly if
# the search ever drifts. Two survivors admit a geometric (not numeric)
# exclusion argument, an annotation in the status only; the last is open.
K7_REFERENCE = {
    ((7, 5, 5), (7, 9, 5)): "realized_inoue",
    ((5, 5, 3), (1, 5, 7)): "realized_dp1",
    ((5, 5, 3), (1, 5, 3)): "excluded_geometric",
    ((5, 5, 3), (1, 1, 7)): "excluded_geometric",
    ((5, 3, 1), (1, 3, 1)): "open",
}


class ClassificationOutcome(Record):
    cases: tuple[NumericalCase, ...]
    k_rejections: tuple[KRejection, ...]
    m_rejections: tuple[MRejection, ...]


def classify(k2: int) -> list[NumericalCase]:
    """All surviving cases, in table order (k descending, then stage-two order)."""
    return [case for k in candidate_k_triples(k2) for case in enumerate_m_triples(k2, k)]


def classification_certificate(k2: int) -> Certificate:
    """Certificate comparing classify(k2) against the built-in table."""
    cases = classify(k2)
    rows = []
    if k2 == 7:
        rows.append(
            check("table/count", "number of surviving numerical cases",
                  "classification table", len(cases), len(K7_REFERENCE))
        )
        by_key = {(case.k, case.m): case.to_json_dict() for case in cases}
        for key in K7_REFERENCE:
            ref = NumericalCase(7, *key)
            kk = ".".join(str(v) for v in ref.k)
            mm = ".".join(str(v) for v in ref.m_reported)
            rows.append(
                check(f"table/{kk}-{mm}",
                      f"case k=({kk}) m=({mm}) matches the reference row",
                      "classification table", by_key.pop(key, None), ref.to_json_dict())
            )
        for i, extra in enumerate(by_key.values(), start=1):
            rows.append(
                check(f"table/extra-{i}",
                      "case not present in the reference table",
                      "classification table", extra, None)
            )
    else:
        rows.append(
            check("table/reference",
                  "the built-in reference table only covers canonical degree 7",
                  "classification table", k2, 7)
        )
        rows.append(
            recorded("table/unvalidated",
                     "survivors for this degree are reported without validation",
                     "classification table", [case.to_json_dict() for case in cases])
        )
    return Certificate(title=f"classification table: K2={k2}", rows=tuple(rows))


def classify_with_trace(k2: int) -> ClassificationOutcome:
    """``classify`` with every rejected k and m, each with its first failing test."""
    kept_k, k_rejections = candidate_k_triples_trace(k2)
    cases: list[NumericalCase] = []
    m_rejections: list[MRejection] = []
    for k in kept_k:
        survivors, rejections = enumerate_m_triples_trace(k2, k)
        m_rejections.extend(rejections)
        cases.extend(survivors)
    return ClassificationOutcome(
        cases=tuple(cases),
        k_rejections=tuple(k_rejections),
        m_rejections=tuple(m_rejections),
    )

