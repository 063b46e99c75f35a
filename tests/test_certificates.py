from __future__ import annotations

import enum
import json
import random
from collections import OrderedDict

import pytest

from bidouble.certificates import _jsonable, canonical_json, check
from bidouble.cli import classification_certificate
from bidouble.cohomology import deformation_certificate
from bidouble.fixtures import verify_fixture
from bidouble.lattice import SurfaceLattice


def test_check_refuses_values_it_cannot_render():
    # a value without an exact JSON form would be compared by its repr
    line = SurfaceLattice("plane", ()).line()
    for value in (object(), line):
        with pytest.raises(TypeError):
            check("x/y", "unrenderable value", "intersection number", value, 1)


class Count(int):
    def __repr__(self):
        return f"Count({int(self)})"


class Colour(enum.IntEnum):
    RED = 3


class Name(str):
    pass


class Label(str):
    def __str__(self):
        return "label:" + self


class Row(list):
    pass


class Span(tuple):
    pass


class Table(dict):
    pass


_TEXT = ["", "a", "é", "ß∑", "\U0001d11e", '"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "/", " "]


def _stdlib(value) -> str:
    return json.dumps(_jsonable(value), sort_keys=True, indent=2) + "\n"


def _random_text(rng: random.Random):
    text = "".join(rng.choice(_TEXT) for _ in range(rng.randrange(4)))
    return rng.choice([str, str, Name, Label])(text)


def _random_key(rng: random.Random):
    return rng.choice([
        lambda: _random_text(rng),
        lambda: rng.randrange(-3, 4),
        lambda: Count(rng.randrange(5)),
        lambda: rng.choice([True, False, None]),
    ])()


def _random_scalar(rng: random.Random):
    return rng.choice([
        lambda: None,
        lambda: rng.choice([True, False]),
        lambda: rng.randrange(-10, 10),
        lambda: rng.choice([-1, 1]) * rng.randrange(2**70),
        lambda: Count(rng.randrange(-5, 5)),
        lambda: Colour.RED,
        lambda: _random_text(rng),
    ])()


def _random_value(rng: random.Random, depth: int = 0):
    kind = rng.randrange(5) if depth < 4 else 0
    if kind <= 1:
        return _random_scalar(rng)
    size = rng.randrange(5)
    if kind == 2:
        # all-int lists take a shortcut in the writer, so make them common
        if rng.random() < 0.5:
            return [rng.randrange(-9, 9) for _ in range(size)]
        items = [_random_value(rng, depth + 1) for _ in range(size)]
        return rng.choice([list, tuple, Row, Span])(items)
    if kind == 3:
        return rng.choice([dict, OrderedDict, Table])(
            (_random_key(rng), _random_value(rng, depth + 1)) for _ in range(size)
        )
    return {str(i): [rng.randrange(3) for _ in range(3)] for i in range(size)}


def test_canonical_json_matches_stdlib_on_random_values():
    rng = random.Random(20140801)
    for _ in range(2500):
        value = _random_value(rng)
        assert canonical_json(value) == _stdlib(value), value


def test_canonical_json_corner_cases():
    cases = [
        None, True, False, 0, -7, 2**100, "", "é\"\\\n", [], (), {}, [[]], [{}], {"a": []},
        [True, 1, False], [1, 2, 3], (1, (2, 3)), {2: "b", 10: "a", "1": 1},
        {1: "int key", "1": "str key"}, {Label("k"): 1}, [Count(4), Colour.RED],
        Row([1]), Span((None,)),
    ]
    for value in cases:
        assert canonical_json(value) == _stdlib(value), value


def _with_bad_leaf(rng: random.Random, bad):
    """A random value holding bad once, at a random depth."""
    if rng.random() < 0.3:
        return bad
    container = rng.choice([list, tuple, dict])
    items = [_random_value(rng, 2) for _ in range(rng.randrange(3))]
    items.insert(rng.randrange(len(items) + 1), _with_bad_leaf(rng, bad))
    if container is dict:
        return {f"key{i}": item for i, item in enumerate(items)}
    return container(items)


@pytest.mark.parametrize("bad", [1.5, 0.0, {1, 2}, b"bytes", object()],
                         ids=["float", "zero-float", "set", "bytes", "object"])
def test_canonical_json_refuses_non_certificate_values(bad):
    rng = random.Random(7)
    message = f"a certificate value must be JSON data, not {type(bad).__name__}"
    for _ in range(200):
        value = _with_bad_leaf(rng, bad)
        with pytest.raises(TypeError) as caught:
            _jsonable(value)
        assert str(caught.value) == message
        with pytest.raises(TypeError) as caught:
            canonical_json(value)
        assert str(caught.value) == message


def test_canonical_json_refuses_a_value_hidden_by_a_key_collision():
    # {1: ..., "1": ...} keeps only the last value once keys are strings
    with pytest.raises(TypeError):
        canonical_json({1: 1.5, "1": 2})


@pytest.mark.parametrize("make", [
    lambda: classification_certificate(7),
    lambda: classification_certificate(21),
    lambda: verify_fixture("dp1"),
    lambda: verify_fixture("inoue"),
    lambda: deformation_certificate("dp1"),
    lambda: deformation_certificate("inoue"),
], ids=["classify-7", "classify-21", "verify-dp1", "verify-inoue", "report-dp1", "report-inoue"])
def test_certificate_json_matches_stdlib_encoding(make):
    cert = make()
    doc = {
        "title": cert.title,
        "overall": cert.overall,
        "rows": [
            {
                "id": r.row_id,
                "description": r.description,
                "ref": r.ref,
                "computed": _jsonable(r.computed),
                "expected": _jsonable(r.expected),
                "status": r.status,
            }
            for r in cert.rows
        ],
    }
    assert cert.to_json() == json.dumps(doc, sort_keys=True, indent=2) + "\n"
