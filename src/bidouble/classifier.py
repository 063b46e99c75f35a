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
m inside those bounds, testing the determinant alone there; a k whose
bounds on m_1 + m_2 + m_3 leave no sum on the grid is skipped before its
caps are computed. Index permutations fixing k only relabel a case, so
the walk also visits just one m per orbit of them. That one walk,
``_survivors``, meets the cases in table order and yields (k, m, det A)
per surviving orbit as it finds it; the traced variants walk the whole
domain instead and report, for each rejected candidate, the first test
it fails in filter order; that walk is also the oracle the bounded
search is tested against.

``enumerate_m_triples`` and ``classify`` build a ``NumericalCase`` per
survivor; stage two refuses what stage one refuses (a K^2 that is not an
exact int or lies outside 1..``MAX_K2``), a k that is not three exact
ints and any k_i outside 0..K^2, which is never a case.
``classification_certificate`` builds none: it fills one
``certificates.Table`` of flat columns (``_case_table``, the one
definition of a case's row) in one pass over the walk's (k, m, det A),
and the columns that hold one value in every row (K^2, the R_i^2 and,
away from K^2 = 7, the status) hold it once. At K^2 = 7 the rows are the
dicts of that table, checked against the dicts of one table of
``K7_REFERENCE``, the published K^2 = 7 table and the one place a status
is written. At any other K^2 the table is the certificate's value: it is
checked once, when it is built, and written without a dict per survivor
(the writer detects no tables: a list of dicts is written dict by dict).

The numbers 7 appearing in prose above are really K^2; every function
takes K^2 as a parameter so the pipeline can be pointed at other values,
but only K^2 = 7 is validated against known geometry.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import chain, product
from math import isqrt

from ._record import Record
from .certificates import Certificate, Table, check, recorded
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
    # the non-increasing triples with k_i = K^2 (mod 2) in 0..K^2, descending
    lo = k2 % 2
    return [(k1, k2_, k3)
            for k1 in range(k2, lo - 1, -2)
            for k2_ in range(k1, lo - 1, -2)
            for k3 in range(k2_, lo - 1, -2)]


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


def _check_exact(k2: int, *triples: Triple) -> None:
    # True would run as 1, and 7.0 or "7" fail inside range() or <=
    if type(k2) is not int:
        raise ClassifierError(f"K^2 must be an exact int, not {type(k2).__name__}")
    for name, value in zip("km", triples):
        if type(value) is not tuple or len(value) != 3 or any(type(x) is not int for x in value):
            raise ClassifierError(f"{name} must be a tuple of three exact ints, not {value!r}")


def _check_degree(k2: int, *triples: Triple) -> None:
    _check_exact(k2, *triples)
    if k2 < 1:
        raise ClassifierError("positive K^2 required")
    if k2 > MAX_K2:
        raise ClassifierError(f"K^2 = {k2} is above the supported maximum {MAX_K2}")


def candidate_k_triples(k2: int) -> list[Triple]:
    """Non-increasing triples (K.R_1, K.R_2, K.R_3) surviving stage one.

    The tests of ``_k_failure`` in closed form, walked in ``_k_domain``
    order. Every k_i = K^2 (mod 2), so each character dimension's
    numerator is K^2 + sum k (mod 4): integrality puts k_3 on a grid of
    step 4. The least dimension is (K^2 + k_3 - k_1 - k_2) / 4, so
    k_3 >= k_1 + k_2 - K^2. And k_2 < K^2, since at most one part has
    degree K^2.
    """
    _check_degree(k2)
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


def _survivors(k2: int, ks) -> Iterator[tuple[Triple, Triple, int]]:
    """(k, m, det A) of each surviving case whose k is in ``ks``, in table order.

    k in the order of ``ks``, then larger total intersection first, then
    reported m ascending; one m per k-stabiliser orbit. The linear filters
    of ``_m_failure`` are solved for m once per k. With s = sum k,
    dk = (K^2 - s) // 2 and sum l = (s + 12 - sum m) / 2:
    pairwise index bound  m_i <= 1 + (k_j + k_k)^2 // 2K^2;
    triple index bound    sum m <= (s^2 + 3K^2) // 2K^2;
    base index bound      K_Sigma^2 = K^2 - sum l <= dk^2 // K^2;
    adjoint square        K_Sigma^2 + 2dk + K^2 >= 0.
    The walk meets the m inside those bounds in table order, the total
    descending, then m_3 and m_2 ascending with m_1 what is left of the
    total, and yields each whose determinant is a square as it finds it.
    """
    for k in ks:
        ka, kb, kc = k
        s = ka + kb + kc
        dk = (k2 - s) // 2
        hi = (s * s + 3 * k2) // (2 * k2)
        base = 2 * (dk * dk // k2) - 2 * k2 + s + 12
        if base < hi:
            hi = base
        floor1, floor2, floor3 = ka % 4, kb % 4, kc % 4  # the least m_i on their grids
        lo = s + 12 - 4 * k2 - 4 * dk
        if lo < floor1 + floor2 + floor3:  # the least sum on the grid
            lo = floor1 + floor2 + floor3
        if hi < lo:
            continue
        cap1 = min(ka + 4, 1 + (kb + kc) ** 2 // (2 * k2))
        cap2 = min(kb + 4, 1 + (ka + kc) ** 2 // (2 * k2))
        cap3 = min(kc + 4, 1 + (ka + kb) ** 2 // (2 * k2))
        # One m per orbit: m_1 <= m_3 <= m_2 on each index pair whose k agree,
        # the reporting convention (reported m_1 <= reported m_2 when the last
        # two k agree, reported m_2 >= reported m_3 when the first two do).
        same12, same23, same13 = ka == kb, kb == kc, kc == ka
        # the total t = sum m is s (mod 4), as every m_i is k_i (mod 4)
        for t in range(hi - (hi - s) % 4, lo - 1, -4):
            # the m_3 that leave m_1 + m_2 inside [floor1 + floor2, cap1 + cap2]
            least3 = t - cap1 - cap2
            if least3 < floor3:
                least3 = floor3
            least3 += (kc - least3) % 4
            most3 = t - floor1 - floor2
            if most3 > cap3:
                most3 = cap3
            for m3 in range(least3, most3 + 1, 4):
                rest = t - m3  # m_1 + m_2, which is k_1 + k_2 (mod 4)
                least = rest - cap1
                if least < floor2:
                    least = floor2
                # the orbit lows: m_3 <= m_2, m_1 <= m_2 and m_1 <= m_3
                if same23 and least < m3:
                    least = m3
                if same12 and least < (rest + 1) // 2:
                    least = (rest + 1) // 2
                if same13 and least < rest - m3:
                    least = rest - m3
                least += (kb - least) % 4
                most = rest - floor1
                if most > cap2:
                    most = cap2
                # branch_matrix_determinant with m_1 = rest - m_2, a quadratic in m_2
                fixed, linear, square = rest * rest + m3 * m3 - 1, 2 * rest * (m3 - 1), 2 - 2 * m3
                for m2 in range(least, most + 1, 4):
                    det = fixed + m2 * (linear + square * m2)
                    if det >= 0:
                        root = isqrt(det)
                        if root * root == det:
                            yield k, (rest - m2, m2, m3), det


def enumerate_m_triples(k2: int, k: Triple) -> list[NumericalCase]:
    """Surviving cases for one k, one per k-stabiliser orbit, deterministically ordered.

    Triples related by an index permutation fixing k are the same case, so
    the walk visits only one member of each orbit. Order: larger total
    intersection first, then reported form ascending. A K^2 that stage one
    refuses, a k that is not three exact ints or a k_i outside 0..K^2 raises
    ``ClassifierError``: k_i = K.R_i is nonnegative because K is nef, and a
    k_i above K^2 makes the other two character dimensions sum to
    (K^2 - k_i) / 2 < 0, so no such k is a case.
    """
    _check_degree(k2, k)
    if not all(0 <= k_i <= k2 for k_i in k):
        raise ClassifierError(f"k = {k} has an entry outside 0..K^2 = {k2}")
    return [NumericalCase(k2, k, m) for _, m, _ in _survivors(k2, (k,))]


def enumerate_m_triples_trace(k2: int, k: Triple) -> tuple[list[NumericalCase], list[MRejection]]:
    """Stage two, also returning each rejected domain m with its first failing test.

    It refuses what ``enumerate_m_triples`` refuses, before walking the domain.
    """
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
    A K^2, k or m that is not exact ints raises ``ClassifierError``.
    """

    k2: int
    k: Triple
    m: Triple

    def __post_init__(self) -> None:
        _check_exact(self.k2, self.k, self.m)
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
        return _status(self.k2, self.k, self.m)


def _status(k2: int, k: Triple, m: Triple) -> str:
    return K7_REFERENCE.get((k, m), "open") if k2 == 7 else "open"


# The keys of a case's row, in the order of the markdown cell, and their widths:
# 0 for an int or str cell, 3 for a triple.
_CASE_KEYS = ("K2", "k", "m", "r", "l", "KSigma2", "detA", "status")
_CASE_WIDTHS = (0, 3, 3, 3, 3, 0, 0, 0)


def _case_table(k2: int, cases) -> Table:
    """The rows of the cases (k, m, det A) at K^2 = k2, as one table.

    The one definition of a case's row: the certificate's survivor table
    is this table of the stage-two walk, and every case dict is a row of
    one (``Table.dicts``). Per case it appends eleven ints: k, reported m,
    l, K_Sigma^2 and det A. K^2, the R_i^2 and, at a K^2 other than 7, the
    status are the same in every row, so they are one-cell columns.
    """
    if k2 == 7:
        cases = list(cases)
        status = [_status(k2, k, m) for k, m, _ in cases]
    ka, kb, kc, ma, mb, mc, la, lb, lc, sigma, det = columns = [[] for _ in range(11)]
    for (k1, k2_, k3), (m1, m2, m3), d in cases:
        ka.append(k1)
        kb.append(k2_)
        kc.append(k3)
        ma.append(m3)
        mb.append(m2)
        mc.append(m1)
        l1, l2, l3 = (k1 + 4 - m1) // 2, (k2_ + 4 - m2) // 2, (k3 + 4 - m3) // 2
        la.append(l1)
        lb.append(l2)
        lc.append(l3)
        sigma.append(k2 - l1 - l2 - l3)
        det.append(d)
    one = 1 if det else 0  # a table with no rows has only empty columns
    if k2 != 7:
        status = ["open"] * one
    return Table(_CASE_KEYS, _CASE_WIDTHS,
                 ([k2] * one, *columns[:6], *([r] * one for r in R_SQUARES), *columns[6:], status))


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


def classify(k2: int) -> list[NumericalCase]:
    """All surviving cases, in table order (k descending, then stage-two order)."""
    return [NumericalCase(k2, k, m) for k, m, _ in _survivors(k2, candidate_k_triples(k2))]


def classification_certificate(k2: int) -> Certificate:
    """Certificate comparing the survivors at k2 against the built-in table.

    Each survivor's row comes straight from the stage-two walk, with the
    det A the walk computed; no ``NumericalCase`` is built. At a K^2 other
    than 7 the survivors are recorded as one ``Table`` of their cells.
    """
    survivors = _survivors(k2, candidate_k_triples(k2))
    if k2 == 7:
        survivors = list(survivors)
        by_key = dict(zip([(k, m) for k, m, _ in survivors], _case_table(k2, survivors).dicts()))
        reference = [(k, m, branch_matrix_determinant(m)) for k, m in K7_REFERENCE]
        rows = [
            check("table/count", "number of surviving numerical cases",
                  "classification table", len(by_key), len(K7_REFERENCE))
        ]
        for (k, m), expected in zip(K7_REFERENCE, _case_table(k2, reference).dicts()):
            kk = ".".join(map(str, k))
            mm = ".".join(map(str, reversed(m)))
            rows.append(
                check(f"table/{kk}-{mm}",
                      f"case k=({kk}) m=({mm}) matches the reference row",
                      "classification table", by_key.pop((k, m), None), expected)
            )
        for i, extra in enumerate(by_key.values(), start=1):
            rows.append(
                check(f"table/extra-{i}",
                      "case not present in the reference table",
                      "classification table", extra, None)
            )
    else:
        rows = [
            check("table/reference",
                  "the built-in reference table only covers canonical degree 7",
                  "classification table", k2, 7),
            recorded("table/unvalidated",
                     "survivors for this degree are reported without validation",
                     "classification table", _case_table(k2, survivors)),
        ]
    return Certificate(title=f"classification table: K2={k2}", rows=tuple(rows))


def classify_with_trace(k2: int) -> Iterator[KRejection | MRejection]:
    """Every rejected k, then the rejected m of each kept k, each with its first failing test.

    The degree is checked by the call; the rejections come one at a time, in
    that order, so a listing of them is never held whole.
    """
    kept_k, k_rejections = candidate_k_triples_trace(k2)
    m_rejections = (r for k in kept_k for r in enumerate_m_triples_trace(k2, k)[1])
    return chain(k_rejections, m_rejections)
