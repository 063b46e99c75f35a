"""The paper commands' output bytes, pinned by the benchmark's own digests.

``bench/checks.py`` keeps a SHA-256 digest of the bytes of every paper
command (``PIN_SHA256``) and the arguments of each command
(``cli_argv``). This test reads that file without importing it as a
package module or writing next to it, runs each pinned command in
process and compares digests, so the tier-1 suite guards the same bytes
(row ids and descriptions included) from the same single table.
"""

from __future__ import annotations

import hashlib
import types
from pathlib import Path

import pytest

from bidouble import fixtures
from bidouble.cli import main

CHECKS_PATH = Path(__file__).resolve().parent.parent / "bench" / "checks.py"


def _load_checks() -> types.ModuleType:
    module = types.ModuleType("bench_checks")
    module.__file__ = str(CHECKS_PATH)
    with open(CHECKS_PATH, encoding="utf-8") as handle:
        exec(compile(handle.read(), str(CHECKS_PATH), "exec"), module.__dict__)
    return module


checks = _load_checks()


def _spec(key: str) -> dict:
    """The command behind a pin key such as ``classify-7.md`` or ``surface-dp1.json``."""
    name, emit = key.rsplit(".", 1)
    what, rest = name.split("-", 1)
    if what == "classify":
        return {"what": what, "k2": int(rest), "emit": emit}
    if what == "enumerate":
        fixture, selfint = rest.split("-", 1)
        filtered = selfint.endswith("-filtered")
        selfint = selfint.removesuffix("-filtered")
        return {"what": what, "fixture": fixture, "selfint": int(selfint),
                "filtered": filtered, "emit": emit}
    if what == "surface":  # the file ``verify --export`` writes
        return {"what": "verify", "fixture": rest, "emit": "md"}
    return {"what": what, "fixture": rest, "emit": emit}


@pytest.mark.parametrize("key", sorted(checks.PIN_SHA256))
def test_paper_command_bytes_match_the_bench_pins(key, tmp_path, capsys):
    spec = _spec(key)
    if key.startswith("surface-"):
        spec["export"] = str(tmp_path / "surface.json")
    code = main(checks.cli_argv(spec))
    out = capsys.readouterr().out
    # a degree other than 7 has no reference table, and its certificate says so
    assert code == (1 if spec.get("k2", 7) != 7 else 0)
    data = Path(spec["export"]).read_bytes() if "export" in spec else out.encode("utf-8")
    assert hashlib.sha256(data).hexdigest() == checks.PIN_SHA256[key]


@pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
def test_shipped_surface_file_matches_its_export_pin(name):
    # the file a fixture is read from holds the bytes that its export writes
    data = (Path(fixtures._DIR) / f"{name}.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == checks.PIN_SHA256[f"surface-{name}.json"]


def test_every_pinned_command_kind_is_covered():
    kinds = {key.split("-", 1)[0] for key in checks.PIN_SHA256}
    assert kinds == {"classify", "enumerate", "report", "surface", "verify"}
