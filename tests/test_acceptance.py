"""Acceptance checks, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per criterion. All comparisons are exact integer equality (zero
tolerance); the only non-exact quantities are the pinned wall-clock
budgets, which use a monotonic clock.
"""

from __future__ import annotations

import json
import time

from bidouble.classifier import (
    branch_matrix_determinant,
    candidate_k_triples,
    classify,
    enumerate_m_triples_trace,
)
from bidouble.cli import main
from bidouble.cohomology import deformation_certificate
from bidouble.curves import enumerate_classes, filter_effective_against_nodal
from bidouble.fixtures import fixture, verify_surface
from bidouble.lattice import SurfaceLattice, is_perfect_square
from bidouble.surface_io import SurfaceFile, surface_to_dict

import test_properties

CLASSIFY_BUDGET_S = 1.0
VERIFY_BUDGET_S = 1.0
ENUMERATE_BUDGET_S = 5.0
# a ~120 KB file naming one branch curve 20,000 times, on which a count of
# repeated names that is quadratic in their number takes ~10 s
REPEATED_NAMES_BUDGET_S = 2.0


def rows_by_id(cert):
    return {r.row_id: r for r in cert.rows}


def test_c1_classification_table_for_degree_seven(capsys):
    start = time.monotonic()
    cases = classify(7)
    exit_code = main(["classify", "--k2", "7"])
    elapsed = time.monotonic() - start
    capsys.readouterr()
    assert exit_code == 0
    got = [(c.k, c.m_reported, c.l, c.k_sigma_sq) for c in cases]
    assert got == [
        ((7, 5, 5), (5, 9, 7), (2, 0, 2), 3),
        ((5, 5, 3), (7, 5, 1), (4, 2, 0), 1),
        ((5, 5, 3), (3, 5, 1), (4, 2, 2), -1),
        ((5, 5, 3), (7, 1, 1), (4, 4, 0), -1),
        ((5, 3, 1), (1, 3, 1), (4, 2, 2), -1),
    ]
    assert elapsed < CLASSIFY_BUDGET_S


def test_c2_candidate_k_stage_lists():
    got = candidate_k_triples(7)
    assert {k for k in got if k[0] == 7} == {(7, 1, 1), (7, 3, 3), (7, 5, 5)}
    assert {k for k in got if k[0] != 7} == {(3, 1, 1), (3, 3, 3), (5, 3, 1), (5, 5, 3)}
    assert len(got) == 7


def test_c3_determinant_square_filter():
    survivors = {c.m_reported: c.det_a for c in classify(7)}
    assert survivors == {
        (5, 9, 7): 784, (7, 5, 1): 144, (3, 5, 1): 64, (7, 1, 1): 64, (1, 3, 1): 16,
    }
    assert all(is_perfect_square(v) for v in survivors.values())

    assert branch_matrix_determinant((3, 9, 9)) == 656
    assert branch_matrix_determinant((5, 5, 3)) == 208
    assert not is_perfect_square(656)
    assert not is_perfect_square(208)

    _, rej = enumerate_m_triples_trace(7, (7, 5, 5))
    trace = {r.m_reported: r for r in rej}
    assert trace[(9, 9, 3)].filter_name == "determinant square test"
    _, rej = enumerate_m_triples_trace(7, (5, 5, 3))
    trace = {r.m_reported: r for r in rej}
    assert trace[(3, 5, 5)].filter_name == "determinant square test"


def test_c4_dp1_fixture_certificate():
    start = time.monotonic()
    cert = verify_surface("dp1", fixture("dp1")[1])
    elapsed = time.monotonic() - start
    assert cert.overall == "pass"
    rows = rows_by_id(cert)

    for i in (1, 2, 3):
        assert rows[f"building/double-{i}"].status == "pass"
        assert rows[f"building/mixed-{i}"].status == "pass"

    assert rows["invariant/D2"].computed == 7
    assert rows["invariant/DB"].computed == (5, 5, 3)
    assert rows["invariant/BB"].computed == (7, 5, 1)
    assert rows["invariant/KV2"].computed == -5
    assert rows["invariant/blowdown"].computed == 12
    assert rows["invariant/KS2"].computed == 7
    assert rows["invariant/sumLLK"].computed == -6
    assert rows["invariant/chiOV"].computed == 1
    assert rows["invariant/dims"].computed == (6, 1, 1, 0)

    assert rows["table/Lambda.Lambda"].computed == -1
    assert rows["table/Lambda.Fb"].computed == 2
    assert rows["table/Lambda.C3"].computed == 1
    assert rows["table/Lambda.C3'"].computed == 1
    assert rows["table/Lambda.C1"].computed == 0
    assert rows["table/Lambda.C2"].computed == 0

    fiber_rows = [r for r in cert.rows if r.row_id.startswith("fiber/Fb/")]
    assert len(fiber_rows) == 4
    assert all(r.status == "pass" for r in fiber_rows)
    assert elapsed < VERIFY_BUDGET_S


def test_c5_inoue_fixture_certificate():
    cert = verify_surface("inoue", fixture("inoue")[1])
    assert cert.overall == "pass"
    rows = rows_by_id(cert)

    assert rows["invariant/DB"].computed == (7, 5, 5)
    assert rows["invariant/BB"].computed == (5, 9, 7)
    assert rows["invariant/D2"].computed == 7
    assert rows["invariant/KV2"].computed == -1
    assert rows["invariant/blowdown"].computed == 8
    assert rows["invariant/KS2"].computed == 7
    assert rows["invariant/chiOV"].computed == 1
    assert rows["invariant/dims"].computed == (7, 1, 0, 0)

    config, cover = fixture("inoue")
    d_class = rows["invariant/D"].computed
    shape = -config.lattice.canonical_class() + config.cls("F1'")
    assert tuple(d_class) == shape.coeffs

    assert rows["adjoint/M.F1"].computed == 0
    assert rows["adjoint/M.F1'"].computed == 0


def test_c6_enumeration_counts():
    start = time.monotonic()
    deg_one = SurfaceLattice("deg1", tuple(f"E{i}" for i in range(1, 9)))
    assert len(enumerate_classes(deg_one, -1)) == 240
    assert len(enumerate_classes(deg_one, -2)) == 240

    config, _ = fixture("inoue")
    classes = enumerate_classes(config.lattice, -1)
    assert len(classes) == 27
    kept = filter_effective_against_nodal(classes, config)
    expected = {config.lattice.exceptional(n).coeffs for n in config.lattice.exceptional_names}
    expected |= {config.cls(n).coeffs for n in ("Gamma1", "Gamma2", "Gamma3")}
    assert {c.coeffs for c in kept} == expected
    assert len(kept) == 9
    elapsed = time.monotonic() - start
    assert elapsed < ENUMERATE_BUDGET_S


def test_c7_dp1_deformation_report():
    cert = deformation_certificate("dp1")
    assert cert.overall == "pass"
    rows = rows_by_id(cert)
    assert rows["report/chi-twist"].computed == -8
    assert rows["report/chi-restrictions"].computed == 5
    assert rows["report/chi-log"].computed == -3
    assert rows["report/h1-inv"].computed == 3
    assert rows["report/balance"].computed == 4
    assert sum(rows["report/h2-bounds"].computed) == 7
    assert rows["report/h2-bounds"].status == "recorded"
    assert tuple(rows["report/h2-bounds"].computed) == (0, 2, 2, 3)


def test_c8_property_suites():
    test_properties.test_pairing_symmetry_and_bilinearity()
    test_properties.test_adjunction_parity_and_serre_symmetry()
    test_properties.test_branch_determinant_against_cofactor_oracle()
    test_properties.test_sign_elimination_sweep_never_square()
    test_properties.test_filter_is_pointwise_idempotent_and_order_preserving()
    test_properties.test_any_single_delta_edit_is_detected()
    test_properties.test_any_single_root_edit_is_detected()


def test_repeated_branch_names_verify_in_bounded_time(tmp_path, capsys):
    doc = surface_to_dict(SurfaceFile("big", *fixture("dp1")))
    del doc["cover"]["roots"]
    doc["cover"]["delta"][0] += ["Fb"] * 20_000
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(doc))
    start = time.monotonic()
    code = main(["verify", "--file", str(path)])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    assert code == 1
    assert ("| building/distinct-names | branch component names are pairwise distinct "
            "across the three lists | branch components | [\"Fb\"] | [] | fail |") in out
    assert elapsed < REPEATED_NAMES_BUDGET_S
