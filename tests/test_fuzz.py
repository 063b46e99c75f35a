"""Seeded fuzz of the command line on mutated surface files.

Each trial applies one random edit to an exported fixture and runs the
file through ``verify`` and ``enumerate``. Whatever the edit, the exit
code must be 0, 1 or 2 (3 is a library bug), stderr must carry no
traceback and no internal error, and a file that verifies at all must
export to a file that verifies to the same bytes.
"""

from __future__ import annotations

import copy
import json
import random

import pytest

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


def duplicate_curve(rng, doc):
    doc["curves"].append(copy.deepcopy(rng.choice(doc["curves"])))


def null_root(rng, doc):
    doc["cover"]["roots"][rng.randrange(3)] = None


MUTATIONS = (drop_key, retype, perturb_int, inflate_int, rename_curve, duplicate_curve,
             null_root)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err and "internal error" not in captured.err, argv
    return code, captured.out


@pytest.mark.parametrize("name", ["dp1", "inoue"])
def test_mutated_files_keep_the_exit_code_contract(tmp_path, capsys, name):
    exported = tmp_path / "fixture.json"
    assert run(capsys, "verify", "--fixture", name, "--export", str(exported))[0] == 0
    original = json.loads(exported.read_text())
    rng = random.Random(f"{SEED}-{name}")
    path, again = tmp_path / "mutated.json", tmp_path / "again.json"
    codes = set()
    for trial in range(TRIALS):
        doc = copy.deepcopy(original)
        mutation = rng.choice(MUTATIONS)
        mutation(rng, doc)
        path.write_text(json.dumps(doc))
        where = (name, trial, mutation.__name__)

        code, out = run(capsys, "verify", "--file", str(path), "--export", str(again))
        assert code in (0, 1, 2), where
        codes.add(code)
        if code != 2:
            assert run(capsys, "verify", "--file", str(again)) == (code, out), where
        code, _ = run(capsys, "enumerate", "--file", str(path), "--selfint", "-1")
        assert code in (0, 2), where
    # the edits reach every outcome, not only the parser's refusals
    assert codes == {0, 1, 2}
