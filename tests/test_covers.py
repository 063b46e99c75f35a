from __future__ import annotations

import pytest

from bidouble.covers import (
    CoverError,
    FixtureExpectations,
    building_data_rows,
    compute_invariants,
    make_cover,
    permute_basis,
    run_verification,
)
from bidouble.fixtures import expectations, fixture, verify_surface


def test_building_data_passes_for_fixtures():
    for name in ("dp1", "inoue"):
        _, cover = fixture(name)
        rows = building_data_rows(cover)
        assert [r for r in rows if r.status != "pass"] == []
        ids = [r.row_id for r in rows]
        for i in (1, 2, 3):
            assert f"building/double-{i}" in ids
            assert f"building/mixed-{i}" in ids
            assert f"building/halvable-{i}" in ids
        assert "building/closure" in ids
        assert "building/distinct-names" in ids


def test_derived_roots_satisfy_defining_congruences():
    config, cover = fixture("inoue")
    for i in range(3):
        root = cover.roots[i]
        assert root is not None
        j, k = (i + 1) % 3, (i + 2) % 3
        assert (2 * root).coeffs == (cover.delta_class(j) + cover.delta_class(k)).coeffs
    total = cover.roots[0] + cover.roots[1] + cover.roots[2]
    sigma = cover.delta_class(0) + cover.delta_class(1) + cover.delta_class(2)
    assert total.coeffs == sigma.coeffs


def test_branch_classes_split_off_nodal_parts():
    config, cover = fixture("inoue")
    # Delta_1 carries the nodal curves Z1 and Z3; B1 is what remains
    assert set(cover.nodal_names(0)) == {"Z1", "Z3"}
    b1 = cover.branch_class(0)
    assert b1.coeffs == (config.cls("Gamma1") + config.cls("F2")).coeffs
    assert cover.l() == (2, 0, 2)


def test_invariants_dp1():
    _, cover = fixture("dp1")
    inv = compute_invariants(cover)
    assert inv.d.coeffs == (7, -3, -2, -2, -2, -2, -2, -2, -3)
    assert inv.d_sq == 7
    assert inv.d_kw == -3
    assert inv.m_sq == 2
    assert inv.db == (5, 5, 3)
    assert inv.bb == (7, 5, 1)
    assert inv.b_sq == (-1, -1, -1)
    assert inv.l == (4, 2, 0)
    assert inv.k_v_sq == -5
    assert inv.blowdown == 12
    assert inv.k_s_sq == 7
    assert inv.sum_llk == -6
    assert inv.chi_ov == 1
    assert inv.dims == (6, 1, 1, 0)


def test_invariants_inoue():
    _, cover = fixture("inoue")
    inv = compute_invariants(cover)
    assert inv.d.coeffs == (5, -1, -2, -2, -1, -2, -2)
    assert inv.d_sq == 7
    assert inv.d_kw == -5
    assert inv.m_sq == 0
    assert inv.db == (7, 5, 5)
    assert inv.bb == (5, 9, 7)
    assert inv.k_v_sq == -1
    assert inv.blowdown == 8
    assert inv.k_s_sq == 7
    assert inv.sum_llk == -6
    assert inv.chi_ov == 1
    assert inv.dims == (7, 1, 0, 0)


def test_character_dimensions_sum_for_both_fixtures():
    for name in ("dp1", "inoue"):
        _, cover = fixture(name)
        inv = compute_invariants(cover)
        assert inv.chi_ov == 1
        assert inv.k_s_sq == 7
        assert sum(inv.dims) == inv.k_s_sq + 1


def test_inoue_polarization_shape():
    # D agrees with -K_W + F1' on the nose
    config, cover = fixture("inoue")
    inv = compute_invariants(cover)
    expected = -config.lattice.canonical_class() + config.cls("F1'")
    assert inv.d.coeffs == expected.coeffs
    assert inv.m.dot(config.cls("F1")) == 0
    assert inv.m.dot(config.cls("F1'")) == 0


def test_dp1_polarization_shape():
    config, cover = fixture("dp1")
    inv = compute_invariants(cover)
    expected = -2 * config.lattice.canonical_class() + config.cls("Gamma")
    assert inv.d.coeffs == expected.coeffs


def test_polarization_curve_is_a_name_the_expectations_use():
    # D = -2K_W + C for a C the file lacks: one fixture/names row, not an error
    _, cover = fixture("dp1")
    dp1 = expectations("dp1")
    fields = {name: getattr(dp1, name) for name in FixtureExpectations._fields}
    expect = FixtureExpectations(**{**fields, "d_shape": (-2, "Gamma'")})
    cert = run_verification(cover, expect, "fixture verification: dp1")
    assert [(r.row_id, r.computed) for r in cert.failures()] == [("fixture/names", ["Gamma'"])]


def test_verification_refuses_broken_building_data():
    config, cover = fixture("dp1")
    delta = (cover.delta[0][1:], cover.delta[1], cover.delta[2])
    broken = make_cover(config, delta, cover.roots)
    cert = run_verification(broken, expectations("dp1"), "broken: dp1")
    assert cert.overall == "fail"
    assert cert.failures()
    assert all(r.row_id.startswith("building/") for r in cert.failures())
    assert cert.rows[-1].row_id == "invariant/skipped"
    assert not any(r.row_id.startswith("case/") for r in cert.rows)
    # direct computation still works, the gate is only in run_verification
    compute_invariants(broken)


def test_withheld_root_fails_exactly_its_congruences():
    config, cover = fixture("inoue")
    roots = (cover.roots[0], None, cover.roots[2])
    withheld = make_cover(config, cover.delta, roots)
    cert = run_verification(withheld, expectations("inoue"), "withheld: inoue")
    failing = {r.row_id: r for r in cert.failures()}
    assert set(failing) == {
        "building/double-2", "building/mixed-1", "building/mixed-2", "building/mixed-3",
    }
    assert all(r.description.endswith("(root unavailable)") for r in failing.values())
    assert failing["building/double-2"].computed == "unavailable"
    assert failing["building/mixed-2"].computed == "unavailable"
    # the side that does not involve L_2 is still computed
    assert failing["building/double-2"].expected == (
        cover.delta_class(0) + cover.delta_class(2)
    ).coeffs
    assert failing["building/mixed-2"].expected == (cover.roots[0] + cover.roots[2]).coeffs
    assert failing["building/mixed-1"].computed == (
        cover.roots[0] + cover.delta_class(0)
    ).coeffs
    assert failing["building/mixed-3"].computed == (
        cover.roots[2] + cover.delta_class(2)
    ).coeffs
    assert failing["building/mixed-1"].expected == "unavailable"
    assert failing["building/mixed-3"].expected == "unavailable"
    assert "building/closure" not in {r.row_id for r in cert.rows}
    assert cert.rows[-1].row_id == "invariant/skipped"


def test_underivable_roots_become_failing_rows():
    config, cover = fixture("inoue")
    delta = (cover.delta[0][1:], cover.delta[1], cover.delta[2])
    broken = make_cover(config, delta)
    assert any(r is None for r in broken.roots)
    rows = building_data_rows(broken)
    assert any(r.status == "fail" for r in rows)
    with pytest.raises(CoverError):
        compute_invariants(broken)


def test_permute_basis():
    config, _ = fixture("inoue")
    swap = {"E1": "E1'", "E1'": "E1", "E2": "E2'", "E2'": "E2"}
    z1 = config.cls("Z1")
    assert permute_basis(z1, swap).coeffs == config.cls("Z2").coeffs
    assert permute_basis(config.cls("Gamma1"), swap).coeffs == config.cls("Gamma1").coeffs
    with pytest.raises(CoverError):
        permute_basis(z1, {"E1": "nope"})


def test_full_verification_certificates():
    for name in ("dp1", "inoue"):
        cert = verify_surface(name, fixture(name)[1])
        assert cert.overall == "pass"
        assert cert.failures() == []
        families = {r.row_id.split("/")[0] for r in cert.rows}
        assert {"building", "disjoint", "branch-nodal", "polarization-nodal",
                "table", "fiber", "invariant", "pencil", "case", "axiom"} <= families


def test_verification_without_expectations_records_values():
    _, cover = fixture("dp1")
    cert = run_verification(cover, None, "bare run: dp1")
    assert cert.overall == "pass"
    assert any(r.row_id == "invariant/values" and r.status == "recorded" for r in cert.rows)


def test_swap_rows_present_for_inoue():
    cert = verify_surface("inoue", fixture("inoue")[1])
    swap_rows = [r for r in cert.rows if r.row_id.startswith("swap/")]
    assert len(swap_rows) == 10
    assert all(r.status == "pass" for r in swap_rows)
