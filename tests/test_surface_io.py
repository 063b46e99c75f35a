from __future__ import annotations

import json

import pytest

from bidouble.covers import run_verification
from bidouble.fixtures import expectations, fixture, verify_surface
from bidouble.surface_io import (
    MAX_BASIS_NAMES,
    MAX_COEFFICIENT,
    MAX_CURVES,
    SurfaceFile,
    SurfaceFileError,
    load_surface,
    save_surface,
    surface_from_dict,
    surface_to_dict,
)


def dp1_surface() -> SurfaceFile:
    config, cover = fixture("dp1")
    return SurfaceFile(label="dp1", config=config, cover=cover)


def test_dict_round_trip_preserves_everything():
    surface = dp1_surface()
    doc = surface_to_dict(surface)
    back = surface_from_dict(json.loads(json.dumps(doc)))
    assert back.label == "dp1"
    assert back.config.names() == surface.config.names()
    for name in surface.config.names():
        assert back.config.cls(name).coeffs == surface.config.cls(name).coeffs
        assert back.config.curve(name).role == surface.config.curve(name).role
    assert back.cover.delta == surface.cover.delta
    assert [r.coeffs for r in back.cover.roots] == [r.coeffs for r in surface.cover.roots]


def test_round_trip_certificate_identical():
    surface = dp1_surface()
    back = surface_from_dict(surface_to_dict(surface))
    original = verify_surface("dp1", fixture("dp1")[1])
    again = run_verification(back.cover, expectations("dp1"), "fixture verification: dp1")
    assert again.to_json() == original.to_json()


def test_file_round_trip(tmp_path):
    surface = dp1_surface()
    path = tmp_path / "dp1.json"
    save_surface(surface, path)
    loaded = load_surface(path)
    assert surface_to_dict(loaded) == surface_to_dict(surface)


@pytest.mark.parametrize("name", ["dp1", "inoue"])
def test_saved_file_is_the_stdlib_canonical_encoding(tmp_path, name):
    surface = SurfaceFile(name, *fixture(name))
    path = tmp_path / f"{name}.json"
    save_surface(surface, path)
    doc = surface_to_dict(surface)
    assert path.read_text(encoding="utf-8") == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_inoue_roots_derived_on_load():
    config, cover = fixture("inoue")
    doc = surface_to_dict(SurfaceFile("inoue", config, cover))
    del doc["cover"]["roots"]
    loaded = surface_from_dict(doc)
    assert [r.coeffs for r in loaded.cover.roots] == [r.coeffs for r in cover.roots]


def test_null_root_slot_round_trips():
    config, cover = fixture("inoue")
    doc = surface_to_dict(SurfaceFile("inoue", config, cover))
    doc["cover"]["roots"][1] = None
    loaded = surface_from_dict(doc)
    assert loaded.cover.roots[1] is None
    doc2 = surface_to_dict(loaded)
    assert doc2["cover"]["roots"][1] is None


def rejects(doc):
    with pytest.raises(SurfaceFileError):
        surface_from_dict(doc)


def test_structural_rejection():
    base = surface_to_dict(dp1_surface())

    rejects([])
    rejects({**base, "extra": 1})
    rejects({k: v for k, v in base.items() if k != "label"})
    rejects({**base, "label": ""})
    rejects({**base, "basis": []})
    rejects({**base, "basis": ["E1", "L"]})
    rejects({**base, "signature": [1, 1] + [-1] * 7})
    rejects({**base, "signature": 5})

    doc = json.loads(json.dumps(base))
    doc["curves"][0]["role"] = "hero"
    rejects(doc)

    doc = json.loads(json.dumps(base))
    doc["curves"][0]["class"] = [1, 2]
    rejects(doc)

    doc = json.loads(json.dumps(base))
    doc["curves"][0]["class"][0] = True
    rejects(doc)

    doc = json.loads(json.dumps(base))
    doc["curves"][0]["class"][0] = 1.5
    rejects(doc)

    doc = json.loads(json.dumps(base))
    doc["cover"]["delta"][0].append("NoSuchCurve")
    rejects(doc)

    doc = json.loads(json.dumps(base))
    doc["cover"]["delta"] = doc["cover"]["delta"][:2]
    rejects(doc)

    # a delta entry must be a name, not a number that happens to spell one
    doc = json.loads(json.dumps(base))
    for curve in doc["curves"]:
        if curve["name"] == "B3":
            curve["name"] = "5"
    doc["cover"]["delta"][2] = [5]
    rejects(doc)

    doc = json.loads(json.dumps(base))
    doc["cover"]["roots"] = doc["cover"]["roots"][:2]
    rejects(doc)

    doc = json.loads(json.dumps(base))
    doc["cover"]["surprise"] = 1
    rejects(doc)


def test_unreadable_or_invalid_files(tmp_path):
    with pytest.raises(SurfaceFileError):
        load_surface(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(SurfaceFileError):
        load_surface(bad)
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    with pytest.raises(SurfaceFileError):
        load_surface(deep)


def test_cover_block_is_optional():
    base = surface_to_dict(dp1_surface())
    del base["cover"]
    loaded = surface_from_dict(base)
    assert loaded.cover is None
    assert loaded.config.names()


def test_coefficient_bound_is_inclusive_for_classes_and_roots():
    doc = surface_to_dict(dp1_surface())
    b2 = next(c for c in doc["curves"] if c["name"] == "B2")
    b2["class"][0] = -MAX_COEFFICIENT
    surface_from_dict(doc)
    b2["class"][0] = -MAX_COEFFICIENT - 1
    with pytest.raises(SurfaceFileError, match="B2' has a coefficient above"):
        surface_from_dict(doc)
    b2["class"][0] = 5
    doc["cover"]["roots"][1][2] = MAX_COEFFICIENT + 1
    with pytest.raises(SurfaceFileError, match="root 2 has a coefficient above"):
        surface_from_dict(doc)


def widened(doc: dict, basis: int, curves: int) -> dict:
    """``doc`` with zero-coefficient basis names and "other" curves appended up to the sizes."""
    extra = basis - len(doc["basis"])
    doc = json.loads(json.dumps(doc))
    doc["basis"] += [f"X{i}" for i in range(extra)]
    doc["signature"] += [-1] * extra
    for curve in doc["curves"]:
        curve["class"] += [0] * extra
    doc["cover"]["roots"] = [root + [0] * extra for root in doc["cover"]["roots"]]
    doc["curves"] += [{"name": f"Y{i}", "class": [1] + [0] * (basis - 1), "role": "other"}
                      for i in range(curves - len(doc["curves"]))]
    return doc


def test_size_caps_are_inclusive():
    doc = surface_to_dict(dp1_surface())
    at_caps = surface_from_dict(widened(doc, MAX_BASIS_NAMES, MAX_CURVES))
    assert (at_caps.config.lattice.rank, len(at_caps.config.curves)) == (MAX_BASIS_NAMES, MAX_CURVES)
    assert verify_surface("mine", at_caps.cover).overall == "pass"
    with pytest.raises(SurfaceFileError, match=f"^'basis' has {MAX_BASIS_NAMES + 1} names; "
                                               f"a file may hold at most {MAX_BASIS_NAMES}$"):
        surface_from_dict(widened(doc, MAX_BASIS_NAMES + 1, MAX_CURVES))
    with pytest.raises(SurfaceFileError, match=f"^'curves' has {MAX_CURVES + 1} entries; "
                                               f"a file may hold at most {MAX_CURVES}$"):
        surface_from_dict(widened(doc, MAX_BASIS_NAMES, MAX_CURVES + 1))
