"""Metamorphic test: a reflection in a root of K_W^perp changes no invariant.

For a class r with r^2 = -2 and K_W.r = 0, s_r(c) = c + (c.r) r is an
isometry of the lattice that fixes K_W (Dolgachev, Classical Algebraic
Geometry, ch. 8). Reflecting every curve class and root of a shipped
surface file therefore gives another file of the same cover in another
basis: every intersection number, and so every row computed from them,
must come out as before, and a fixture's expected class of D must move
with the curves.
"""

from __future__ import annotations

import pytest

from bidouble.curves import enumerate_classes
from bidouble.fixtures import fixture, verify_surface
from bidouble.surface_io import SurfaceFile, surface_from_dict, surface_to_dict


def reflect(vector: list[int], root: tuple[int, ...]) -> list[int]:
    """s_r(c) = c + (c.r) r, with the pairing diag(1, -1, ..., -1)."""
    dot = vector[0] * root[0] - sum(a * b for a, b in zip(vector[1:], root[1:]))
    return [a + dot * b for a, b in zip(vector, root)]


def reflected(doc: dict, root: tuple[int, ...]) -> dict:
    """The surface document with every curve class and root reflected in ``root``."""
    cover = doc["cover"]
    return {
        **doc,
        "curves": [{**curve, "class": reflect(curve["class"], root)} for curve in doc["curves"]],
        "cover": {
            "delta": cover["delta"],
            "roots": [None if v is None else reflect(v, root) for v in cover["roots"]],
        },
    }


def _unmoved(cert) -> dict:
    """Computed values of the rows that a change of basis leaves alone.

    Building rows print coefficient vectors, and so does invariant/D; the
    swap rows (inoue's only) permute basis names, which a reflection does
    not commute with.
    """
    return {row.row_id: row.computed for row in cert.rows
            if row.row_id != "invariant/D" and not row.row_id.startswith(("building/", "swap/"))}


@pytest.mark.parametrize("name, count", [("dp1", 240), ("inoue", 72)])
def test_root_reflections_keep_the_certificate(name, count):
    config, cover = fixture(name)
    doc = surface_to_dict(SurfaceFile(name, config, cover))
    base = verify_surface(name, cover)
    roots = enumerate_classes(config.lattice, -2)
    assert len(roots) == count
    assert all(r.dot(config.lattice.canonical_class()) == 0 for r in roots)
    for root in roots:
        image = surface_from_dict(reflected(doc, root.coeffs))
        assert image.label == name
        cert = verify_surface(name, image.cover)
        rows = {row.row_id: row for row in cert.rows}
        assert rows["invariant/D"].status == "pass", root.coeffs
        assert _unmoved(cert) == _unmoved(base), root.coeffs
        if name == "dp1":
            assert cert.overall == "pass", root.coeffs
