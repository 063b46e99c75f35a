"""Euler-characteristic bookkeeping for the deformation-theory side.

Three exact computations feed the first-order deformation count of the
covers: the Riemann-Roch value of a twisted rank-2 cotangent sheaf, the
restriction characteristic over the branch components (all smooth
rational, which the code checks rather than assumes), and their sum, the
characteristic of the log-differential sheaf. ``deformation_certificate``
computes these and the balance value 2K^2 - 10chi, and checks them
against the fixture's entry in ``fixtures``, which freezes only the two
parts (and dp1's invariant h1): the log sum's expected value is theirs
added, the balance's comes from the K^2 of the fixture's table row. The
dimension statements layered on top (vanishing of outer cohomology,
per-character upper bounds) are imported facts: they live in the same
entry with the provenance notes, and appear as ``recorded`` rows, so the
arithmetic here stays separate from the inputs and names no fixture.
"""

from __future__ import annotations

from .certificates import Certificate, check, recorded
from .covers import CoverData, CoverError, compute_invariants
from .curves import CurveConfiguration
from .fixtures import FixtureError, _lookup, fixture
from .lattice import DivisorClass, SurfaceLattice, arithmetic_genus


class CohomologyError(ValueError):
    pass


def chi_rank2_twist(surface: SurfaceLattice, d: DivisorClass) -> int:
    """chi of the cotangent sheaf twisted by O(d), by Riemann-Roch.

    With c1 = K + 2d and c2 = (12 - K^2) + K.d + d^2 this is
    2 + c1(c1 - K)/2 - c2; the half is exact since c1(c1-K) = 2d(K+2d).
    """
    if d.lattice != surface:
        raise CohomologyError("twist class lives on a different lattice")
    k = surface.canonical_class()
    c1 = k + 2 * d
    c2 = (12 - k.dot(k)) + k.dot(d) + d.dot(d)
    paired = c1.dot(c1 - k)
    assert paired % 2 == 0
    return 2 + paired // 2 - c2


def chi_branch_restrictions(config: CurveConfiguration, cover: CoverData, d: DivisorClass) -> int:
    """Sum of (d.Y + 1) over all branch-list components Y.

    This is chi of O_Y(d) summed over the components, valid because each
    component is a smooth rational curve; a component of positive genus
    is a hard error, not a certificate row, since the formula itself
    would be wrong.
    """
    total = 0
    for names in cover.delta:
        for name in names:
            y = config.cls(name)
            if arithmetic_genus(y) != 0:
                raise CohomologyError(
                    f"component {name!r} has genus {arithmetic_genus(y)}; formula needs 0"
                )
            total += d.dot(y) + 1
    return total


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

_BALANCE_NOTE = (
    "the balance value 2K^2 - 10chi equals h2 - h1 of the tangent sheaf; "
    "it is computed here, the individual dimensions are not"
)


def deformation_certificate(fixture_name: str) -> Certificate:
    """Deformation bookkeeping of a fixture, checked against its frozen values.

    Every fixture gets the characteristic and balance rows. A fixture
    whose entry carries an h1 analysis also gets the invariant h1 row and
    the recorded inputs and bound totals that go with it. A fixture file
    edited into a cover these formulas do not apply to (a component of
    positive genus, an underivable root) raises ``FixtureError``.
    """
    entry = _lookup(fixture_name)
    config, cover = fixture(fixture_name)
    kw = config.lattice.canonical_class()
    chi_twist = chi_rank2_twist(config.lattice, kw)
    try:
        chi_restr = chi_branch_restrictions(config, cover, kw)
        inv = compute_invariants(cover)
    except (CohomologyError, CoverError) as exc:
        raise FixtureError(f"fixture {fixture_name!r} cannot be reported: {exc}") from exc
    chi_log = chi_twist + chi_restr
    balance = 2 * inv.k_s_sq - 10 * inv.chi_ov
    twist, restr = entry.chi_twist, entry.chi_restrictions
    rows = [
        check("report/chi-twist", "chi of the K_W-twisted cotangent sheaf",
              "Riemann-Roch", chi_twist, twist),
        check("report/chi-restrictions", "chi of the branch restrictions at K_W",
              "rational restriction", chi_restr, restr),
        check("report/chi-log", "chi of the log-differential sheaf (sum of the two parts)",
              "additivity", chi_log, twist + restr),
        # p_g = q = 0 on the minimal model, so chi(O) = 1 and the balance is
        # 2K^2 - 10 with the K^2 of the fixture's table row
        check("report/balance", "2K^2 - 10chi of the minimal cover",
              "tangent sheaf balance", balance, 2 * entry.expect.case.k2 - 10),
    ]
    if entry.h1 is not None:
        h1_inv, bounds = entry.h1
        h2_total = sum(bounds)
        h1_total = h2_total - balance
        rows += [
            check("report/h1-inv", "invariant first cohomology of the tangent sheaf",
                  "tangent sheaf balance", -chi_log, h1_inv),
            recorded("report/h0-h2-vanishing",
                     "0th and 2nd log-sheaf cohomology vanish (imported input)",
                     "imported vanishing", "imported, not derived"),
            recorded("report/h2-bounds",
                     f"per-character upper bounds for second tangent cohomology, total {h2_total}",
                     "imported bounds", list(bounds)),
            recorded("report/h-totals",
                     f"bound totals: h1 <= {h1_total} and h2 <= {h2_total}; "
                     "their difference equals the balance",
                     "tangent sheaf balance",
                     {"h1_total_bound": h1_total, "h2_total_bound": h2_total}),
        ]
    for i, note in enumerate(entry.notes + (_BALANCE_NOTE,), start=1):
        rows.append(recorded(f"report/note-{i}", note, "provenance note", "noted"))
    return Certificate(title=f"deformation report: {fixture_name}", rows=tuple(rows))
