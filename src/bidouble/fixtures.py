"""The two built-in surface configurations and their expected invariants.

Both fixtures live on blowups of the plane and carry a bidouble-cover
structure whose minimal model is a general-type surface with K^2 = 7.

``inoue``: six points, branch lists built from three (-1)-curves Gamma_i,
members of three pencils F_i of 0-curves, and four nodal curves Z_1, Z_2,
Z_3, Z. The square roots L_i are not part of the input data; they are
derived here by halving (the lattice is torsion free, so the half is
unique when it exists).

``dp1``: eight points (a degree-one weak del Pezzo made singular along six
nodal curves C_j, C_j'), with branch lists built from a fiber F_b, curves
Gamma and E, and two branch components B_2, B_3 of higher degree. The
roots are stored explicitly.

Each fixture names its row of ``classifier.K7_REFERENCE``, the one with
status ``realized_<name>``, and the verification takes from that row
every number it can give: k, reported m, l, K_Sigma^2 and K^2, and what
follows from them on a surface with p_g = q = 0 (D^2, D.K_W, M^2, the
B_i^2, K_V^2, the blowdown count, sum L_i(L_i + K_W) and chi(O), computed
in ``covers``). The expectation tables below freeze only what
the row cannot give: the class of D, the character dimensions and the
name-keyed intersection, fiber, dot and swap tables. A fixture's entry
also holds every input of its deformation report: the frozen values are
keyed by the ``report/...`` row id each one checks, and dp1 alone
carries imported second-cohomology bounds, which give it the h1 rows,
and provenance notes. Every frozen number was recomputed by hand from
the coefficient vectors before being frozen; the test suite re-derives
the same values through independent code paths.
"""

from __future__ import annotations

from ._record import Record
from .certificates import Certificate
from .classifier import K7_REFERENCE, NumericalCase
from .covers import CoverData, FixtureExpectations, make_cover, run_verification
from .curves import CurveConfiguration, FiberDecomposition, NamedCurve
from .lattice import SurfaceLattice


class FixtureError(KeyError):
    pass


def _reference_case(name: str) -> NumericalCase:
    """The fixture's row of the K^2 = 7 classification table."""
    return next(case for case in K7_REFERENCE if case.status == f"realized_{name}")


# ---------------------------------------------------------------------------
# inoue: blowup of the plane in six points
# ---------------------------------------------------------------------------

_INOUE_LATTICE = SurfaceLattice("inoue", ("E1", "E2", "E3", "E1'", "E2'", "E3'"))

_INOUE_CURVES = (
    # basis order: L, E1, E2, E3, E1', E2', E3'
    ("E1", (0, 1, 0, 0, 0, 0, 0), "minus_one"),
    ("E2", (0, 0, 1, 0, 0, 0, 0), "minus_one"),
    ("E3", (0, 0, 0, 1, 0, 0, 0), "minus_one"),
    ("E1'", (0, 0, 0, 0, 1, 0, 0), "minus_one"),
    ("E2'", (0, 0, 0, 0, 0, 1, 0), "minus_one"),
    ("E3'", (0, 0, 0, 0, 0, 0, 1), "minus_one"),
    ("Gamma1", (1, -1, 0, 0, -1, 0, 0), "minus_one"),
    ("Gamma2", (1, 0, -1, 0, 0, -1, 0), "minus_one"),
    ("Gamma3", (1, 0, 0, -1, 0, 0, -1), "minus_one"),
    ("F1", (2, 0, -1, -1, 0, -1, -1), "fiber"),
    ("F2", (2, -1, 0, -1, -1, 0, -1), "fiber"),
    ("F3", (2, -1, -1, 0, -1, -1, 0), "fiber"),
    ("F1'", (2, 0, -1, -1, 0, -1, -1), "fiber"),
    ("Z1", (1, -1, 0, 0, 0, -1, -1), "nodal"),
    ("Z2", (1, 0, -1, 0, -1, 0, -1), "nodal"),
    ("Z3", (1, 0, 0, -1, -1, -1, 0), "nodal"),
    ("Z", (1, -1, -1, -1, 0, 0, 0), "nodal"),
)

_INOUE_DELTA = (
    ("Gamma1", "F2", "Z1", "Z3"),
    ("Gamma2", "F3"),
    ("Gamma3", "F1", "F1'", "Z2", "Z"),
)

_INOUE_EXPECT = FixtureExpectations(
    case=_reference_case("inoue"),
    d_class=(5, -1, -2, -2, -1, -2, -2),
    dims=(7, 1, 0, 0),
    table={
        ("F1", "F1"): 0,
        ("F1", "F1'"): 0,
        ("F2", "F2"): 0,
        ("F3", "F3"): 0,
        ("Gamma1", "F2"): 0,
        ("Gamma2", "F3"): 0,
        ("Gamma3", "F1"): 0,
    },
    fibers=(
        FiberDecomposition("F2", (("Gamma1", 1), ("Gamma3", 1))),
        FiberDecomposition("F2", (("Z1", 1), ("E2'", 2), ("Z3", 1))),
        FiberDecomposition("F2", (("Z2", 1), ("E2", 2), ("Z", 1))),
    ),
    d_dot={"F1": 2, "F1'": 2, "F2": 4, "F3": 4},
    m_dot={"F1": 0, "F1'": 0},
    swap_basis={"E1": "E1'", "E1'": "E1", "E2": "E2'", "E2'": "E2"},
    swap_rows=(
        ("Z1", "Z2"),
        ("Z2", "Z1"),
        ("Z3", "Z"),
        ("Z", "Z3"),
        ("Gamma1", "Gamma1"),
        ("Gamma2", "Gamma2"),
        ("Gamma3", "Gamma3"),
        ("F1", "F1"),
        ("F2", "F2"),
        ("F3", "F3"),
    ),
    d_description="class of D = 2K_W + B_1 + B_2 + B_3 (equal to -K_W + F1')",
)

_INOUE_REPORT = {
    "report/chi-twist": -4,
    "report/chi-restrictions": 0,
    "report/chi-log": -4,
    "report/balance": 4,
}


# ---------------------------------------------------------------------------
# dp1: blowup of the plane in eight points
# ---------------------------------------------------------------------------

_DP1_LATTICE = SurfaceLattice(
    "dp1", ("E0", "E1", "E1'", "E2", "E2'", "E3", "E3'", "E")
)

_DP1_CURVES = (
    # basis order: L, E0, E1, E1', E2, E2', E3, E3', E
    ("C1", (1, -1, -1, -1, 0, 0, 0, 0, 0), "nodal"),
    ("C2", (1, -1, 0, 0, -1, -1, 0, 0, 0), "nodal"),
    ("C3", (1, -1, 0, 0, 0, 0, -1, -1, 0), "nodal"),
    ("C1'", (0, 0, 1, -1, 0, 0, 0, 0, 0), "nodal"),
    ("C2'", (0, 0, 0, 0, 1, -1, 0, 0, 0), "nodal"),
    ("C3'", (0, 0, 0, 0, 0, 0, 1, -1, 0), "nodal"),
    ("E1'", (0, 0, 0, 1, 0, 0, 0, 0, 0), "minus_one"),
    ("E2'", (0, 0, 0, 0, 0, 1, 0, 0, 0), "minus_one"),
    ("E3'", (0, 0, 0, 0, 0, 0, 0, 1, 0), "minus_one"),
    ("Fb", (1, -1, 0, 0, 0, 0, 0, 0, 0), "fiber"),
    ("Gamma", (1, -1, 0, 0, 0, 0, 0, 0, -1), "minus_one"),
    ("E", (0, 0, 0, 0, 0, 0, 0, 0, 1), "minus_one"),
    ("B2", (5, -1, -2, -2, -2, -2, -2, -2, -1), "branch_component"),
    ("B3", (6, -2, -2, -2, -2, -2, -2, -2, -3), "branch_component"),
    ("Lambda", (3, -1, -1, -1, -1, -1, -1, 0, -2), "minus_one"),
)

_DP1_DELTA = (
    ("Fb", "Gamma", "C1", "C1'", "C2", "C2'"),
    ("B2", "C3", "C3'"),
    ("B3",),
)

_DP1_ROOTS = (
    (6, -2, -2, -2, -2, -2, -2, -3, -2),
    (5, -3, -1, -2, -1, -2, -1, -1, -2),
    (5, -3, -1, -2, -1, -2, -1, -2, -1),
)

_DP1_EXPECT = FixtureExpectations(
    case=_reference_case("dp1"),
    d_class=(7, -3, -2, -2, -2, -2, -2, -2, -3),
    dims=(6, 1, 1, 0),
    table={
        ("Lambda", "Lambda"): -1,
        ("Lambda", "Fb"): 2,
        ("Lambda", "C1"): 0,
        ("Lambda", "C1'"): 0,
        ("Lambda", "C2"): 0,
        ("Lambda", "C2'"): 0,
        ("Lambda", "C3"): 1,
        ("Lambda", "C3'"): 1,
        ("B2", "Gamma"): 3,
        ("B2", "B3"): 1,
        ("B2", "E"): 1,
        ("B3", "Gamma"): 1,
        ("B3", "E"): 3,
        ("Gamma", "E"): 1,
        ("Fb", "Fb"): 0,
    },
    fibers=(
        FiberDecomposition("Fb", (("C1", 1), ("E1'", 2), ("C1'", 1))),
        FiberDecomposition("Fb", (("C2", 1), ("E2'", 2), ("C2'", 1))),
        FiberDecomposition("Fb", (("C3", 1), ("E3'", 2), ("C3'", 1))),
        FiberDecomposition("Fb", (("Gamma", 1), ("E", 1))),
    ),
    d_dot={"Fb": 4},
    m_dot={},
    swap_basis=None,
    swap_rows=(),
    d_description="class of D = 2K_W + B_1 + B_2 + B_3 (equal to -2K_W + Gamma)",
)

_DP1_REPORT = {
    "report/chi-twist": -8,
    "report/chi-restrictions": 5,
    "report/chi-log": -3,
    "report/balance": 4,
    "report/h1-inv": 3,
}

# Imported per-character upper bounds for the second cohomology of the
# tangent sheaf in the dp1 analysis: (invariant part, then one per
# involution). The report pairs their total with the balance to bound h1.
_DP1_H2_BOUNDS = (0, 2, 2, 3)

_DP1_NOTES = (
    "h1_inv = 3 uses imported vanishing of the 0th and 2nd log-sheaf "
    "cohomology; only the Euler characteristic -3 is computed here",
    "stated dimension totals of (h1, h2) = (7, 3) appear alongside derived "
    "bounds h1 <= 3, h2 <= 7; the two agree only with the labels swapped, "
    "so both readings are reported and neither is adjudicated",
    "one source sentence states the per-character bounds for the second "
    "cohomology while discussing first cohomology; flagged, not resolved",
)


# ---------------------------------------------------------------------------
# public access
# ---------------------------------------------------------------------------


def _build_config(lattice: SurfaceLattice, rows) -> CurveConfiguration:
    return CurveConfiguration(
        lattice,
        tuple(NamedCurve(name, lattice.divisor(coeffs), role) for name, coeffs, role in rows),
    )


class _Fixture(Record):
    lattice: SurfaceLattice
    curves: tuple
    delta: tuple[tuple[str, ...], ...]
    roots: tuple[tuple[int, ...], ...] | None  # None: derived by halving
    expect: FixtureExpectations
    # deformation report inputs: frozen values keyed by the row id each
    # one checks, imported h2 bounds (None: no h1 analysis, so no h1 rows)
    # and provenance notes
    report: dict[str, int]
    h2_bounds: tuple[int, ...] | None
    notes: tuple[str, ...]


_FIXTURES = {
    "dp1": _Fixture(
        _DP1_LATTICE, _DP1_CURVES, _DP1_DELTA, _DP1_ROOTS, _DP1_EXPECT,
        _DP1_REPORT, _DP1_H2_BOUNDS, _DP1_NOTES,
    ),
    "inoue": _Fixture(
        _INOUE_LATTICE, _INOUE_CURVES, _INOUE_DELTA, None, _INOUE_EXPECT,
        _INOUE_REPORT, None, (),
    ),
}

FIXTURE_NAMES = tuple(_FIXTURES)


def _lookup(name: str) -> _Fixture:
    if name not in _FIXTURES:
        raise FixtureError(f"unknown fixture {name!r}; known: {', '.join(FIXTURE_NAMES)}")
    return _FIXTURES[name]


def fixture(name: str) -> tuple[CurveConfiguration, CoverData]:
    entry = _lookup(name)
    config = _build_config(entry.lattice, entry.curves)
    roots = None if entry.roots is None else tuple(config.lattice.divisor(v) for v in entry.roots)
    return config, make_cover(config, entry.delta, roots)


def expectations(name: str) -> FixtureExpectations:
    return _lookup(name).expect


def report_inputs(name: str) -> tuple[dict[str, int], tuple[int, ...] | None, tuple[str, ...]]:
    """A fixture's deformation report inputs: frozen values, h2 bounds, notes."""
    entry = _lookup(name)
    return entry.report, entry.h2_bounds, entry.notes


def verify_surface(label: str, cover: CoverData) -> Certificate:
    """Certificate of a cover; a fixture's label brings its frozen expectations."""
    if label in _FIXTURES:
        return run_verification(cover, _FIXTURES[label].expect, f"fixture verification: {label}")
    return run_verification(cover, None, f"surface verification: {label}")


def verify_fixture(name: str) -> Certificate:
    return verify_surface(name, fixture(name)[1])
