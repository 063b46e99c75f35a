from __future__ import annotations

import pytest

from bidouble.classifier import NumericalCase, classify
from bidouble.covers import (
    CoverData,
    CoverError,
    CoverInvariants,
    FixtureExpectations,
    building_data_rows,
    compute_invariants,
    permute_basis,
    run_verification,
)
from bidouble.curves import ConfigurationError
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


def test_repeated_branch_names_are_reported_sorted_and_once():
    config, cover = fixture("dp1")
    first, second, third = cover.delta
    delta = (first + ("Gamma", "C1"), second, third + ("Fb", "Fb"))
    rows = building_data_rows(CoverData(config, delta, (None, None, None)))
    row = next(r for r in rows if r.row_id == "building/distinct-names")
    assert (row.computed, row.status) == (["C1", "Fb", "Gamma"], "fail")


def test_derived_roots_satisfy_defining_congruences():
    config, cover = fixture("inoue")
    for i in range(3):
        root = cover.roots[i]
        assert root is not None
        j, k = (i + 1) % 3, (i + 2) % 3
        assert (2 * root).coeffs == (cover.deltas[j] + cover.deltas[k]).coeffs
    total = cover.roots[0] + cover.roots[1] + cover.roots[2]
    sigma = cover.deltas[0] + cover.deltas[1] + cover.deltas[2]
    assert total.coeffs == sigma.coeffs


def test_branch_classes_split_off_nodal_parts():
    config, cover = fixture("inoue")
    # Delta_1 carries the nodal curves Z1 and Z3; B1 is what remains
    assert cover.branches[0] == config.cls("Gamma1") + config.cls("F2")
    assert cover.deltas[0] - cover.branches[0] == config.cls("Z1") + config.cls("Z3")
    assert cover.l == (2, 0, 2)


def test_cover_data_refuses_malformed_lists_and_roots():
    config, cover = fixture("dp1")
    other, _ = fixture("inoue")
    with pytest.raises(CoverError, match="exactly three"):
        CoverData(config, cover.delta[:2], None)
    with pytest.raises(CoverError, match="exactly three"):
        CoverData(config, cover.delta, cover.roots[:2])
    with pytest.raises(ConfigurationError, match="no curve named 'Z1'"):
        CoverData(config, (cover.delta[0] + ("Z1",), (), ()), None)
    with pytest.raises(CoverError, match="different lattice"):
        CoverData(config, cover.delta, (other.lattice.zero(), None, None))


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


def expectations_with(name, **changes):
    """The fixture's expectations with some fields replaced."""
    expect = expectations(name)
    fields = {field: getattr(expect, field) for field in FixtureExpectations._fields}
    return FixtureExpectations(**{**fields, **changes})


def test_polarization_curve_is_a_name_the_expectations_use():
    # D = -2K_W + C for a C the file lacks: one fixture/names row, not an error
    _, cover = fixture("dp1")
    expect = expectations_with("dp1", d_shape=(-2, "Gamma'"))
    cert = run_verification(cover, expect, "fixture verification: dp1")
    assert [(r.row_id, r.computed) for r in cert.failures()] == [("fixture/names", ["Gamma'"])]


def test_swap_names_are_names_the_expectations_use():
    # a swap map naming a basis vector the file lacks, or a row naming a
    # missing curve: one fixture/names row, not an error
    _, cover = fixture("inoue")
    mapping, pairs = expectations("inoue").swap
    for swap, missing in ((({**mapping, "E9": "E3"}, pairs), ["E9"]),
                          ((mapping, pairs + (("Z9", "Z"),)), ["Z9"])):
        cert = run_verification(cover, expectations_with("inoue", swap=swap),
                                "fixture verification: inoue")
        assert [(r.row_id, r.computed) for r in cert.failures()] == [("fixture/names", missing)]


def test_case_the_classifier_does_not_emit_fails_the_table_row():
    # (5, 5, 3) with m = (1, 1, 3) has even nodal counts but M^2 = -2 < 0
    _, cover = fixture("dp1")
    case = NumericalCase(7, (5, 5, 3), (1, 1, 3))
    assert case not in classify(7)
    cert = run_verification(cover, expectations_with("dp1", case=case), "unlisted case: dp1")
    (row,) = [r for r in cert.rows if r.row_id == "case/table"]
    assert (row.computed, row.expected, row.status) == (0, 1, "fail")
    assert "case/status" not in {r.row_id for r in cert.rows}


def test_verification_refuses_broken_building_data():
    config, cover = fixture("dp1")
    delta = (cover.delta[0][1:], cover.delta[1], cover.delta[2])
    broken = CoverData(config, delta, cover.roots)
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
    withheld = CoverData(config, cover.delta, roots)
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
        cover.deltas[0] + cover.deltas[2]
    ).coeffs
    assert failing["building/mixed-2"].expected == (cover.roots[0] + cover.roots[2]).coeffs
    assert failing["building/mixed-1"].computed == (
        cover.roots[0] + cover.deltas[0]
    ).coeffs
    assert failing["building/mixed-3"].computed == (
        cover.roots[2] + cover.deltas[2]
    ).coeffs
    assert failing["building/mixed-1"].expected == "unavailable"
    assert failing["building/mixed-3"].expected == "unavailable"
    assert "building/closure" not in {r.row_id for r in cert.rows}
    assert cert.rows[-1].row_id == "invariant/skipped"


def test_underivable_roots_become_failing_rows():
    config, cover = fixture("inoue")
    delta = (cover.delta[0][1:], cover.delta[1], cover.delta[2])
    broken = CoverData(config, delta, None)
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
    # a map that is no permutation of its names would overwrite a coefficient:
    # E2's own coefficient over the one moved from E1, or E1's dropped
    for mapping in ({"E1": "E2"}, {"E1": "E1'"}):
        with pytest.raises(CoverError, match="not a permutation"):
            permute_basis(z1, mapping)


def test_full_verification_certificates():
    for name in ("dp1", "inoue"):
        cert = verify_surface(name, fixture(name)[1])
        assert cert.overall == "pass"
        assert cert.failures() == []
        families = {r.row_id.split("/")[0] for r in cert.rows}
        assert {"building", "disjoint", "branch-nodal", "polarization-nodal",
                "table", "fiber", "invariant", "pencil", "case", "axiom"} <= families


# every invariant, in the order the invariant/values row prints them; the
# values are the ones stated above, and M = K_W + D by hand
BARE_VALUES = {
    "dp1": {
        "D": [7, -3, -2, -2, -2, -2, -2, -2, -3], "M": [4, -2, -1, -1, -1, -1, -1, -1, -2],
        "D2": 7, "DKW": -3, "M2": 2, "DB": [5, 5, 3], "BB": [7, 5, 1], "B2": [-1, -1, -1],
        "l": [4, 2, 0], "KV2": -5, "blowdown": 12, "KS2": 7, "sumLLK": -6, "chiOV": 1,
        "dims": [6, 1, 1, 0],
    },
    "inoue": {
        "D": [5, -1, -2, -2, -1, -2, -2], "M": [2, 0, -1, -1, 0, -1, -1],
        "D2": 7, "DKW": -5, "M2": 0, "DB": [7, 5, 5], "BB": [5, 9, 7], "B2": [-1, -1, -1],
        "l": [2, 0, 2], "KV2": -1, "blowdown": 8, "KS2": 7, "sumLLK": -6, "chiOV": 1,
        "dims": [7, 1, 0, 0],
    },
}
BARE_CELLS = {
    "dp1": '{"D": [7, -3, -2, -2, -2, -2, -2, -2, -3], "M": [4, -2, -1, -1, -1, -1, -1, -1, -2], '
           '"D2": 7, "DKW": -3, "M2": 2, "DB": [5, 5, 3], "BB": [7, 5, 1], "B2": [-1, -1, -1], '
           '"l": [4, 2, 0], "KV2": -5, "blowdown": 12, "KS2": 7, "sumLLK": -6, "chiOV": 1, '
           '"dims": [6, 1, 1, 0]}',
    "inoue": '{"D": [5, -1, -2, -2, -1, -2, -2], "M": [2, 0, -1, -1, 0, -1, -1], '
             '"D2": 7, "DKW": -5, "M2": 0, "DB": [7, 5, 5], "BB": [5, 9, 7], "B2": [-1, -1, -1], '
             '"l": [2, 0, 2], "KV2": -1, "blowdown": 8, "KS2": 7, "sumLLK": -6, "chiOV": 1, '
             '"dims": [7, 1, 0, 0]}',
}


def test_verification_without_expectations_records_values():
    for name in ("dp1", "inoue"):
        _, cover = fixture(name)
        cert = run_verification(cover, None, f"bare run: {name}")
        assert cert.overall == "pass"
        (row,) = [r for r in cert.rows if r.row_id == "invariant/values"]
        assert row.status == "recorded"
        assert row.computed == BARE_VALUES[name]
        assert list(row.computed) == list(BARE_VALUES[name])
        line = (f"| invariant/values | computed invariants of the cover | intersection number "
                f"| {BARE_CELLS[name]} |  | recorded |")
        assert line in cert.to_markdown().splitlines()


@pytest.mark.parametrize("name", ["m", "d_sq", "d_kw", "m_sq", "blowdown", "k_s_sq",
                                  "chi_ov", "dims"])
def test_cover_invariants_take_no_derived_value(name):
    inv = compute_invariants(fixture("dp1")[1])
    assert CoverInvariants._fields == ("d", "db", "bb", "b_sq", "l", "k_v_sq", "sum_llk")
    values = [getattr(inv, field) for field in CoverInvariants._fields]
    with pytest.raises(TypeError, match=r"^CoverInvariants\(\) got an unexpected keyword "
                                        rf"argument '{name}'$"):
        CoverInvariants(*values, **{name: getattr(inv, name)})


def test_swap_rows_present_for_inoue():
    cover = fixture("inoue")[1]
    cert = verify_surface("inoue", cover)
    swap_rows = [r for r in cert.rows if r.row_id.startswith("swap/")]
    assert len(swap_rows) == 10
    assert all(r.status == "pass" for r in swap_rows)
    # without a swap, the same certificate less its swap rows
    bare = run_verification(cover, expectations_with("inoue", swap=None), cert.title)
    assert bare.rows == tuple(r for r in cert.rows if not r.row_id.startswith("swap/"))
