from __future__ import annotations

import pytest

from bidouble import fixtures
from bidouble.cohomology import (
    CohomologyError,
    chi_branch_restrictions,
    chi_rank2_twist,
    deformation_certificate,
)
from bidouble.covers import compute_invariants
from bidouble.curves import CurveConfiguration, NamedCurve
from bidouble.fixtures import FixtureError, fixture
from bidouble.lattice import LatticeError, SurfaceLattice


def test_chi_rank2_twist_values():
    for name, zero_val, kw_val in (("dp1", -9, -8), ("inoue", -7, -4)):
        config, _ = fixture(name)
        lat = config.lattice
        assert chi_rank2_twist(lat.zero()) == zero_val
        assert chi_rank2_twist(lat.canonical_class()) == kw_val


def test_chi_rank2_twist_zero_class_on_every_lattice():
    for n in range(0, 9):
        lat = SurfaceLattice(f"z{n}", tuple(f"E{i}" for i in range(1, n + 1)))
        assert chi_rank2_twist(lat.zero()) == (9 - lat.n) - 10  # K^2 - 10


def test_chi_branch_restrictions():
    config, cover = fixture("dp1")
    kw = config.lattice.canonical_class()
    assert chi_branch_restrictions(cover, kw) == 5
    config, cover = fixture("inoue")
    kw = config.lattice.canonical_class()
    assert chi_branch_restrictions(cover, kw) == 0


def test_chi_branch_restrictions_refuses_a_twist_off_the_cover_lattice():
    # the curve classes come from cover.config, so d must live on its lattice
    _, cover = fixture("dp1")
    inoue_kw = fixture("inoue")[0].lattice.canonical_class()
    with pytest.raises(LatticeError, match="different lattices"):
        chi_branch_restrictions(cover, inoue_kw)


def test_chi_branch_restrictions_additive_over_partitions():
    from bidouble.covers import CoverData

    config, cover = fixture("dp1")
    d = config.lattice.canonical_class()
    total = chi_branch_restrictions(cover, d)
    # split each branch list at an arbitrary point, on the fixture's own
    # configuration; the totals must add up
    for cut in range(3):
        first = tuple(names[:cut] for names in cover.delta)
        second = tuple(names[cut:] for names in cover.delta)
        a = CoverData(config, first, (None, None, None))
        b = CoverData(config, second, (None, None, None))
        assert chi_branch_restrictions(a, d) + chi_branch_restrictions(b, d) == total


def test_chi_branch_restrictions_requires_rational_components():
    # a cubic has genus one; restriction bookkeeping only covers genus zero
    lat = SurfaceLattice("plane", ())
    cubic = NamedCurve("Cub", 3 * lat.line(), "other")
    config = CurveConfiguration(lat, (cubic,))
    from bidouble.covers import CoverData

    cover = CoverData(config, (("Cub",), (), ()), (None, None, None))
    with pytest.raises(CohomologyError):
        chi_branch_restrictions(cover, lat.canonical_class())


def report_values(name):
    return {r.row_id: r.computed for r in deformation_certificate(name).rows}


def test_deformation_report_dp1():
    values = report_values("dp1")
    assert values["report/chi-twist"] == -8
    assert values["report/chi-restrictions"] == 5
    assert values["report/chi-log"] == -3
    assert values["report/balance"] == 4
    assert values["report/h1-inv"] == 3
    assert values["report/h2-bounds"] == [0, 2, 2, 3]
    assert values["report/h-totals"] == {"h1_total_bound": 3, "h2_total_bound": 7}
    assert [k for k in values if k.startswith("report/note-")] == [
        f"report/note-{i}" for i in range(1, 5)
    ]


def test_deformation_report_inoue():
    values = report_values("inoue")
    assert values["report/chi-twist"] == -4
    assert values["report/chi-restrictions"] == 0
    assert values["report/chi-log"] == -4
    assert values["report/balance"] == 4
    assert "report/h1-inv" not in values
    assert "report/h2-bounds" not in values
    assert "report/h-totals" not in values
    assert [k for k in values if k.startswith("report/note-")] == ["report/note-1"]


def test_log_characteristic_is_the_sum_of_its_parts():
    for name in ("dp1", "inoue"):
        values = report_values(name)
        assert values["report/chi-log"] == (
            values["report/chi-twist"] + values["report/chi-restrictions"]
        )


def test_balance_matches_cover_invariants():
    for name in ("dp1", "inoue"):
        _, cover = fixture(name)
        inv = compute_invariants(cover)
        assert report_values(name)["report/balance"] == 2 * inv.k_s_sq - 10 * inv.chi_ov == 4


def test_h2_bounds_total():
    cert = deformation_certificate("dp1")
    rows = {r.row_id: r for r in cert.rows}
    bounds = rows["report/h2-bounds"].computed
    totals = rows["report/h-totals"].computed
    assert totals["h2_total_bound"] == sum(bounds) == 7
    assert totals["h2_total_bound"] - totals["h1_total_bound"] == rows["report/balance"].computed
    assert "h1 <= 3 and h2 <= 7" in rows["report/h-totals"].description
    assert "total 7" in rows["report/h2-bounds"].description


def entry_with(name, **changes):
    """The fixture's entry with some fields replaced."""
    entry = fixtures._lookup(name)
    return type(entry)(**{**{field: getattr(entry, field) for field in entry._fields}, **changes})


def test_report_rows_follow_the_fixture_entry(monkeypatch):
    # the h1 rows come from the inputs an entry carries, not from its name
    from bidouble import cohomology

    with_h1 = entry_with("inoue", h1=(4, (1, 1, 1, 1)), notes=("a note",))
    monkeypatch.setattr(cohomology, "_lookup", lambda name: with_h1)
    cert = deformation_certificate("inoue")
    rows = {r.row_id: r for r in cert.rows}
    assert cert.overall == "pass"
    assert rows["report/h1-inv"].computed == 4
    assert rows["report/h-totals"].computed == {"h1_total_bound": 0, "h2_total_bound": 4}
    assert rows["report/h-totals"].description.startswith("bound totals: h1 <= 0 and h2 <= 4;")
    assert rows["report/note-1"].description == "a note"
    assert rows["report/note-2"].description.startswith("the balance value")



def test_an_error_in_the_twist_fails_its_row_and_the_log_sum(monkeypatch):
    # the twist is expected to be 2K_W^2 - 10 and the log sum that plus the
    # frozen restriction part, so a c2 one too large in chi_rank2_twist
    # (chi one too small) fails exactly those two rows; on dp1 the invariant
    # h1, which is minus the log sum, fails with them
    from bidouble import cohomology

    def wrong_c2(d):
        return chi_rank2_twist(d) - 1

    monkeypatch.setattr(cohomology, "chi_rank2_twist", wrong_c2)
    for name, failing in (("inoue", ["report/chi-twist", "report/chi-log"]),
                          ("dp1", ["report/chi-twist", "report/chi-log", "report/h1-inv"])):
        cert = deformation_certificate(name)
        assert [r.row_id for r in cert.failures()] == failing
        row = next(r for r in cert.rows if r.row_id == "report/chi-twist")
        assert (row.computed, row.expected) == ({"dp1": -9, "inoue": -5}[name],
                                                {"dp1": -8, "inoue": -4}[name])


def test_fixture_entry_freezes_only_what_no_formula_gives():
    # the twist is 2K_W^2 - 10 by Hirzebruch-Riemann-Roch, so no entry stores it
    assert fixtures._Fixture._fields == ("expect", "chi_restrictions", "h1", "notes")
    for name in ("dp1", "inoue"):
        kw = fixture(name)[0].lattice.canonical_class()
        assert chi_rank2_twist(kw) == 2 * kw.dot(kw) - 10


def test_report_without_an_h1_analysis_drops_only_the_h1_rows(monkeypatch):
    from bidouble import cohomology

    h1_rows = {"report/h1-inv", "report/h0-h2-vanishing", "report/h2-bounds", "report/h-totals"}
    full = deformation_certificate("dp1")
    assert h1_rows <= {r.row_id for r in full.rows}
    monkeypatch.setattr(cohomology, "_lookup", lambda name: entry_with("dp1", h1=None))
    # the same rows, notes numbered as before, less the four h1 rows
    assert deformation_certificate("dp1").rows == tuple(
        r for r in full.rows if r.row_id not in h1_rows
    )


def test_deformation_certificates():
    for name in ("dp1", "inoue"):
        cert = deformation_certificate(name)
        assert cert.overall == "pass"
        ids = {r.row_id for r in cert.rows}
        assert "report/chi-twist" in ids
        assert "report/chi-restrictions" in ids
        assert "report/chi-log" in ids
        assert "report/balance" in ids
    dp1_ids = {r.row_id for r in deformation_certificate("dp1").rows}
    assert "report/h1-inv" in dp1_ids
    assert "report/h2-bounds" in dp1_ids
    with pytest.raises(FixtureError):
        deformation_certificate("nope")
