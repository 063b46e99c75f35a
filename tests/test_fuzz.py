"""Seeded fuzz of the command line on mutated surface files.

Each trial applies one random edit to an exported fixture and runs the
file through ``verify`` and ``enumerate``, then reads it in place of the
shipped fixture file and runs ``report NAME`` and ``verify --fixture
NAME``. Whatever the edit, the exit code must be 0, 1 or 2 (3 is a
library bug; a name broken by ``|`` or a line boundary must give 2),
stderr must carry no traceback and no internal error, and a file that
verifies at all must export to a file that verifies to the same bytes.
"""

from __future__ import annotations

import copy
import json
import random

import pytest

from bidouble import fixtures
from bidouble.cli import main

TRIALS = 150  # per fixture
SEED = 20261018

# one value of each JSON type, plus a float and a bool, which are not ints here
VALUES = (None, True, 0, -1, 2.5, "x", [], {}, [0], {"name": "x"})


def nodes(doc, path=()):
    """Every (path, value) in the document, the root excluded."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield path + (key,), value
        yield from nodes(value, path + (key,))


def parent_of(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def drop_key(rng, doc):
    target = rng.choice([doc] + [v for _, v in nodes(doc) if isinstance(v, dict) and v])
    del target[rng.choice(sorted(target))]


def retype(rng, doc):
    path, value = rng.choice(list(nodes(doc)))
    parent_of(doc, path)[path[-1]] = rng.choice([v for v in VALUES if type(v) is not type(value)])


def perturb_int(rng, doc):
    ints = [p for p, v in nodes(doc) if type(v) is int]
    path = rng.choice(ints)
    parent_of(doc, path)[path[-1]] += rng.choice((-3, -2, -1, 1, 2, 3, 10**6))


def inflate_int(rng, doc):
    # around the coefficient bound and far past it, still legal JSON integers
    ints = [p for p, v in nodes(doc) if type(v) is int]
    path = rng.choice(ints)
    size = rng.choice((10**100, 10**100 + 1, int("9" * 3000)))
    parent_of(doc, path)[path[-1]] = rng.choice((-1, 1)) * size


def rename_curve(rng, doc):
    curve = rng.choice(doc["curves"])
    names = [c["name"] for c in doc["curves"]] + ["L", "E1", "new"]
    curve["name"] = rng.choice(names)


# "|" and every character that str.splitlines() splits on
NAME_BREAKERS = "|\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def break_name(rng, doc):
    # the label, a basis name or a curve name; a file naming the old curve
    # elsewhere fails on the name's characters all the same
    bad = rng.choice(NAME_BREAKERS)
    where = rng.choice(("label", "basis", "curves"))
    if where == "label":
        doc["label"] += bad
    elif where == "basis":
        doc["basis"][rng.randrange(len(doc["basis"]))] += bad
    else:
        rng.choice(doc["curves"])["name"] += bad


def duplicate_curve(rng, doc):
    doc["curves"].append(copy.deepcopy(rng.choice(doc["curves"])))


def null_root(rng, doc):
    doc["cover"]["roots"][rng.randrange(3)] = None


MUTATIONS = (drop_key, retype, perturb_int, inflate_int, rename_curve, duplicate_curve,
             null_root, break_name)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err and "internal error" not in captured.err, argv
    return code, captured.out


@pytest.mark.parametrize("name", ["dp1", "inoue"])
def test_mutated_files_keep_the_exit_code_contract(monkeypatch, tmp_path, capsys, name):
    exported = tmp_path / "fixture.json"
    assert run(capsys, "verify", "--fixture", name, "--export", str(exported))[0] == 0
    original = json.loads(exported.read_text())
    rng = random.Random(f"{SEED}-{name}")
    path, again = tmp_path / "mutated.json", tmp_path / "again.json"
    # the same edit, read as the shipped fixture file
    shipped = tmp_path / "shipped"
    shipped.mkdir()
    monkeypatch.setattr(fixtures, "_DIR", str(shipped))
    codes = set()
    for trial in range(TRIALS):
        doc = copy.deepcopy(original)
        mutation = rng.choice(MUTATIONS)
        mutation(rng, doc)
        path.write_text(json.dumps(doc))
        (shipped / f"{name}.json").write_text(json.dumps(doc))
        where = (name, trial, mutation.__name__)

        code, out = run(capsys, "verify", "--file", str(path), "--export", str(again))
        assert code in ((2,) if mutation is break_name else (0, 1, 2)), where
        codes.add(code)
        if code != 2:
            assert run(capsys, "verify", "--file", str(again)) == (code, out), where
        code, _ = run(capsys, "enumerate", "--file", str(path), "--selfint", "-1")
        assert code in ((2,) if mutation is break_name else (0, 2)), where
        for argv in (("report", name), ("verify", "--fixture", name)):
            code, _ = run(capsys, *argv)
            assert code in ((2,) if mutation is break_name else (0, 1, 2)), where + argv
    # the edits reach every outcome, not only the parser's refusals
    assert codes == {0, 1, 2}
