from __future__ import annotations

import enum
import json
import random
from collections import OrderedDict

import pytest

from bidouble.certificates import Certificate, _Writer, canonical_json, check, recorded
from bidouble.cli import classification_certificate
from bidouble.cohomology import deformation_certificate
from bidouble.fixtures import fixture, verify_surface
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


def _normalised(value):
    """The value the layouts are defined on: lists for tuples, str(key) for keys."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_normalised(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _normalised(v) for k, v in value.items()}
    raise TypeError(f"a certificate value must be JSON data, not {type(value).__name__}")


def _stdlib(value) -> str:
    return json.dumps(_normalised(value), sort_keys=True, indent=2) + "\n"


def _cell(value) -> str:
    """The markdown cell of a value, read off a one-row certificate."""
    table = Certificate("t", (recorded("x/y", "d", "r", value),)).to_markdown()
    return table.split("\n")[4][len("| x/y | d | r | "):-len(" |  | recorded |")]


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
    kind = rng.randrange(6) if depth < 4 else 0
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
    if kind == 4:
        return {str(i): [rng.randrange(3) for _ in range(3)] for i in range(size)}
    return _random_table(rng, depth)


# Tables: lists of two or more dicts sharing one key tuple. The writer writes
# a flat one row by row from a template, and any other one dict by dict.
_TABLE_TEXT = _TEXT + ["%", "%s", "%%", "%(k)d"]


def _table_text(rng: random.Random) -> str:
    return "".join(rng.choice(_TABLE_TEXT) for _ in range(rng.randrange(4)))


def _flat_int(rng: random.Random) -> int:
    return rng.choice([-1, 1]) * rng.randrange(rng.choice([10, 2**80]))


def _flat_column(rng: random.Random, rows: int) -> list:
    """One flat column: exact ints, exact strs, or int lists or tuples of one length."""
    kind = rng.randrange(3)
    if kind == 0:
        return [_flat_int(rng) for _ in range(rows)]
    if kind == 1:
        return [_table_text(rng) for _ in range(rows)]
    length = rng.randrange(1, 5)
    return [rng.choice([list, tuple])(_flat_int(rng) for _ in range(length)) for _ in range(rows)]


def _spoilt_cell(rng: random.Random, cell, depth: int):
    """A value that makes a table with it in one cell fall back to dict-by-dict writing."""
    sequence = type(cell) in (list, tuple)
    return rng.choice([
        lambda: rng.choice([True, False]),
        lambda: None,
        lambda: Count(rng.randrange(5)),
        lambda: Name(_table_text(rng)),
        lambda: [],
        # lists of different lengths, or an int list holding a bool
        lambda: list(cell) + [1] if sequence else [1, 2],
        lambda: list(cell)[:-1] + [True] if sequence else (1, False),
        # a nested column
        lambda: [list(cell) if sequence else [1]],
        lambda: {"k": cell},
        lambda: _random_value(rng, depth + 1),
    ])()


def _random_table(rng: random.Random, depth: int) -> list:
    """Two to six dicts sharing keys: flat, or with one reason to fall back."""
    rows = rng.randrange(2, 7)
    keys = list(dict.fromkeys(_table_text(rng) for _ in range(rng.randrange(1, 6))))
    columns = [_flat_column(rng, rows) for _ in keys]
    table = [dict(zip(keys, values)) for values in zip(*columns)]
    spoiler = rng.randrange(6)
    row = rng.randrange(1, rows)
    if spoiler == 0:  # an equal Label key in a later row
        changed = rng.choice(keys)
        table[row] = {Label(k) if k == changed else k: v for k, v in table[row].items()}
    elif spoiler == 1 and len(keys) > 1:  # one row with its keys in another order
        table[row] = dict(reversed(table[row].items()))
    elif spoiler == 2:
        key = rng.choice(keys)
        table[row][key] = _spoilt_cell(rng, table[row][key], depth)
    return table


def test_canonical_json_matches_stdlib_on_random_values():
    rng = random.Random(20140801)
    for _ in range(2500):
        value = _random_value(rng)
        assert canonical_json(value) == _stdlib(value), value


def test_markdown_cells_match_stdlib_on_random_values():
    # the compact layout: insertion order, the encoder's default separators
    rng = random.Random(20140801)
    for _ in range(2500):
        value = _random_value(rng)
        assert _cell(value) == json.dumps(_normalised(value)), value


# a flat table, and one table for each reason to fall back to dict by dict
_TABLE_CASES = {
    "flat": [{"b": 2**80, "a": "x%s\n", "c": [1, -2]}, {"b": -1, "a": "", "c": (3, 4)}],
    "percent key": [{"%s": 1, "%%": "%d"}, {"%s": 2, "%%": "%"}],
    "bool cell": [{"a": 1}, {"a": True}],
    "None cell": [{"a": "x"}, {"a": None}],
    "Count cell": [{"a": 1}, {"a": Count(2)}],
    "Name cell": [{"a": "x"}, {"a": Name("y")}],
    "int and str": [{"a": 1}, {"a": "1"}],
    "empty list": [{"a": []}, {"a": []}],
    "other length": [{"a": [1, 2]}, {"a": (3,)}],
    "bool in list": [{"a": [1, 2]}, {"a": [3, True]}],
    "Label key": [{"k": 1, "j": 2}, {Label("k"): 1, "j": 2}],
    "key order": [{"k": 1, "j": 2}, {"j": 2, "k": 1}],
    "fewer keys": [{"k": 1, "j": 2}, {"k": 1}],
    "more keys": [{"k": 1}, {"k": 1, "j": 2}],
    "nested list": [{"a": [[1]]}, {"a": [[2]]}],
    "nested dict": [{"a": {"b": 1}}, {"a": {"b": 2}}],
    "nested table": [{"a": [{"b": 1}, {"b": 2}]}, {"a": [{"b": 3}, {"b": 4}]}],
    "empty rows": [{}, {}],
    "OrderedDict row": [{"a": 1}, OrderedDict(a=2)],
    "Row cell": [{"a": [1]}, {"a": Row([2])}],
}


def test_the_unvalidated_survivors_are_written_as_a_table(monkeypatch):
    # the survivors of classify at K^2 != 7 are the table the row templates
    # are for: in neither layout is one of them written dict by dict
    written = []
    write_dict = _Writer.write_dict

    def spy(self, value, depth):
        written.append(tuple(value))
        write_dict(self, value, depth)

    monkeypatch.setattr(_Writer, "write_dict", spy)
    cert = classification_certificate(15)
    assert len(cert.rows[1].computed) == 62
    cert.to_json()
    cert.to_markdown()
    assert written and not any("K2" in keys for keys in written)


def test_a_float_in_a_table_cell_is_refused():
    rng = random.Random(21)
    message = "a certificate value must be JSON data, not float"
    for _ in range(300):
        table = _random_table(rng, 0)
        row = rng.choice(table)
        key = rng.choice(list(row))
        cell = row[key]
        if type(cell) in (list, tuple) and cell and rng.random() < 0.5:
            items = list(cell)
            items[rng.randrange(len(items))] = 0.5
            row[key] = type(cell)(items)
        else:
            row[key] = 1.5
        for write in (canonical_json, _cell):
            with pytest.raises(TypeError) as caught:
                write(table)
            assert str(caught.value) == message


def test_canonical_json_corner_cases():
    cases = [
        None, True, False, 0, -7, 2**100, "", "é\"\\\n", [], (), {}, [[]], [{}], {"a": []},
        [True, 1, False], [1, 2, 3], (1, (2, 3)), {2: "b", 10: "a", "1": 1},
        {1: "int key", "1": "str key"}, {Label("k"): 1}, [Count(4), Colour.RED],
        Row([1]), Span((None,)), *_TABLE_CASES.values(),
    ]
    for value in cases:
        assert canonical_json(value) == _stdlib(value), value
        assert _cell(value) == json.dumps(_normalised(value)), value


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
            _normalised(value)
        assert str(caught.value) == message
        with pytest.raises(TypeError) as caught:
            canonical_json(value)
        assert str(caught.value) == message
        with pytest.raises(TypeError) as caught:
            _cell(value)
        assert str(caught.value) == message


def test_canonical_json_refuses_a_value_hidden_by_a_key_collision():
    # {1: ..., "1": ...} keeps only the last value once keys are strings
    with pytest.raises(TypeError):
        canonical_json({1: 1.5, "1": 2})
    with pytest.raises(TypeError):
        _cell({1: 1.5, "1": 2})


def test_a_str_subclass_key_is_written_as_its_str():
    # a key equal to a str key but with its own __str__ must not borrow
    # the str key's cached shape
    value = [{"k": 1, "j": 2}, {Label("k"): 1, "j": 2}, {"k": 1, "j": 2}]
    assert canonical_json(value) == _stdlib(value)
    assert _cell(value) == json.dumps(_normalised(value))


def test_check_tells_bools_from_ints():
    # True == 1 in Python, but a certificate shows `true` and `1`
    assert check("x/y", "bool against int", "r", True, 1).status == "fail"
    assert check("x/y", "bool against int", "r", False, 0).status == "fail"
    assert check("x/y", "nested", "r", {"a": [True, 0]}, {"a": (1, False)}).status == "fail"
    assert check("x/y", "same data", "r", {"a": [True, 0]}, {"a": (True, 0)}).status == "pass"
    assert check("x/y", "key order", "r", {"a": 1, "b": 2}, {"b": 2, "a": 1}).status == "pass"
    assert check("x/y", "int subclass", "r", Count(3), Colour.RED).status == "pass"


@pytest.mark.parametrize("make", [
    lambda: classification_certificate(7),
    lambda: classification_certificate(21),
    lambda: verify_surface("dp1", fixture("dp1")[1]),
    lambda: verify_surface("inoue", fixture("inoue")[1]),
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
                "computed": _normalised(r.computed),
                "expected": _normalised(r.expected),
                "status": r.status,
            }
            for r in cert.rows
        ],
    }
    assert cert.to_json() == json.dumps(doc, sort_keys=True, indent=2) + "\n"
