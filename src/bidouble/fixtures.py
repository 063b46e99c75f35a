"""The two bundled surface configurations and their expected invariants.

Both fixtures live on blowups of the plane and carry a bidouble-cover
structure whose minimal model is a general-type surface with K^2 = 7.
Their lattices, curves, branch lists and roots ship as the surface files
``dp1.json`` and ``inoue.json`` beside this module, the bytes that
``bidouble verify --fixture NAME --export PATH`` writes, and ``fixture``
reads them with ``surface_io.load_surface``: a fixture takes the one
construction path, with the same input checks, that every surface file
takes. A fixture label means "this shipped file": ``fixture(NAME)`` is
whatever that file holds, checked against the frozen expectations below,
so an edit to the file shows as failing rows or an input error, not as
another fixture.

``inoue``: six points, branch lists built from three (-1)-curves Gamma_i,
members of three pencils F_i of 0-curves, and four nodal curves Z_1, Z_2,
Z_3, Z. The square roots L_i are the halves of the complementary branch
sums (the lattice is torsion free, so the half is unique when it exists);
the file stores them, as every export does.

``dp1``: eight points (a degree-one weak del Pezzo made singular along six
nodal curves C_j, C_j'), with branch lists built from a fiber F_b, curves
Gamma and E, and two branch components B_2, B_3 of higher degree.

Each fixture names its row of ``classifier.K7_REFERENCE``, the one with
status ``realized_<name>``, and the verification takes from that row
every number it can give: the row states k and m at K^2 = 7, l and K_Sigma^2
follow from k and m, and the rest follows from those on a surface with
p_g = q = 0 (D^2, D.K_W, M^2, the B_i^2, K_V^2, the blowdown count,
sum L_i(L_i + K_W), chi(O) and the character dimensions, computed in
``covers``). The expectation tables below freeze only what the row
cannot give: D and the name-keyed intersection, fiber, dot and swap
tables. D is stated by name, as a K_W + C for a named curve C (dp1:
-2K_W + Gamma, inoue: -K_W + F1'), and the expected class is computed on
the lattice of the file being verified, so a fixture label fixes D in any basis: an isometry that
fixes K_W and moves every curve, such as a reflection in a (-2)-class
orthogonal to K_W, moves the expected D with them. The swap is
different: ``swap`` pairs a permutation of basis names with the curve
rows it must map (inoue exchanges E_i and E_i' for i = 1, 2), so a label
fixes the swap in the shipped coordinates only. A coordinate-free swap,
an isometry of the lattice that moves with the file, is left open. A
fixture without a swap states None, so a map without rows, or rows
without a map, cannot be written down.

A fixture's entry also holds the inputs of its deformation report that
no formula gives, as typed fields: the hand-computed ``chi_restrictions``,
``h1`` and provenance notes. ``h1`` is None (no h1 rows) or the pair
(invariant h1, imported per-character h2 bounds); dp1 alone has one, with
invariant h1 = 3, the paper's "dimension 3", so no entry can hold bounds
without the value they bound. ``cohomology`` expects the twisted
cotangent characteristic to be 2K_W^2 - 10, the log sum to be that plus
``chi_restrictions``, and the balance from the table row's K^2. Every
frozen number was recomputed by hand from the coefficient vectors before
being frozen; the test suite re-derives the same values through
independent code paths.
"""

from __future__ import annotations

import os

from ._record import Record
from .certificates import Certificate
from .classifier import K7_REFERENCE, NumericalCase
from .covers import CoverData, FixtureExpectations, run_verification
from .curves import CurveConfiguration, FiberDecomposition
from .surface_io import load_surface

# the directory of the shipped surface files
_DIR = os.path.dirname(__file__)


class FixtureError(KeyError):
    # printed as its message, without the quotes KeyError puts round a key
    __str__ = Exception.__str__


def _reference_case(name: str) -> NumericalCase:
    """The fixture's row of the K^2 = 7 classification table."""
    key = next(key for key, status in K7_REFERENCE.items() if status == f"realized_{name}")
    return NumericalCase(7, *key)


# ---------------------------------------------------------------------------
# inoue: blowup of the plane in six points (basis L, E1, E2, E3, E1', E2', E3')
# ---------------------------------------------------------------------------

_INOUE_EXPECT = FixtureExpectations(
    case=_reference_case("inoue"),
    d_shape=(-1, "F1'"),
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
    swap=(
        {"E1": "E1'", "E1'": "E1", "E2": "E2'", "E2'": "E2"},
        (
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
    ),
)


# ---------------------------------------------------------------------------
# dp1: blowup of the plane in eight points (basis L, E0, E1, E1', E2, E2', E3,
# E3', E)
# ---------------------------------------------------------------------------

_DP1_EXPECT = FixtureExpectations(
    case=_reference_case("dp1"),
    d_shape=(-2, "Gamma"),
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
    swap=None,
)

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


class _Fixture(Record):
    expect: FixtureExpectations
    # deformation report inputs: the expected report/chi-restrictions value,
    # the h1 analysis and provenance notes
    chi_restrictions: int
    # None (no h1 rows), or (expected report/h1-inv, imported per-character
    # upper bounds for the second cohomology of the tangent sheaf: invariant
    # part, then one per involution); the report pairs the bounds' total
    # with the balance
    h1: tuple[int, tuple[int, ...]] | None
    notes: tuple[str, ...]


_FIXTURES = {
    "dp1": _Fixture(_DP1_EXPECT, chi_restrictions=5, h1=(3, (0, 2, 2, 3)), notes=_DP1_NOTES),
    "inoue": _Fixture(_INOUE_EXPECT, chi_restrictions=0, h1=None, notes=()),
}

FIXTURE_NAMES = tuple(_FIXTURES)


def _lookup(name: str) -> _Fixture:
    if name not in _FIXTURES:
        raise FixtureError(f"unknown fixture {name!r}; known: {', '.join(FIXTURE_NAMES)}")
    return _FIXTURES[name]


def fixture(name: str) -> tuple[CurveConfiguration, CoverData]:
    """A fixture's curves and cover, read from its shipped surface file.

    A fixture is a cover: a file without a cover block raises
    ``FixtureError``, as an unknown name does, and a file that does not
    load raises ``SurfaceFileError``.
    """
    _lookup(name)
    path = os.path.join(_DIR, name + ".json")
    surface = load_surface(path)
    if surface.cover is None:
        raise FixtureError(f"fixture {name!r}: {path} has no cover block")
    return surface.config, surface.cover


def expectations(name: str) -> FixtureExpectations:
    return _lookup(name).expect


def verify_surface(label: str, cover: CoverData) -> Certificate:
    """Certificate of a cover; a fixture's label brings its frozen expectations."""
    if label in _FIXTURES:
        return run_verification(cover, _FIXTURES[label].expect, f"fixture verification: {label}")
    return run_verification(cover, None, f"surface verification: {label}")

