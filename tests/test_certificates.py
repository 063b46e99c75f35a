from __future__ import annotations

import enum
import json
import random
from collections import OrderedDict

import pytest

from bidouble import certificates
from bidouble.certificates import Certificate, _Writer, canonical_json, check, recorded
from bidouble.cli import classification_certificate
from bidouble.cohomology import deformation_certificate
from bidouble.covers import CoverData
from bidouble.fixtures import fixture, verify_surface
from bidouble.lattice import SurfaceLattice
from bidouble.surface_io import SurfaceFile, surface_from_dict, surface_to_dict


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
    """The value the layouts are defined on: lists for tuples, lists of dicts for
    tables; only exact built-ins and tables pass."""
    if value is None or type(value) in (bool, int, str):
        return value
    if type(value) in (list, tuple):
        return [_normalised(v) for v in value]
    if type(value) is certificates.Table:
        return _table_dicts(value)
    if type(value) is dict:
        for key in value:
            if type(key) is not str:
                raise TypeError(f"a certificate dict key must be a str, not {type(key).__name__}")
        return {k: _normalised(v) for k, v in value.items()}
    raise TypeError(f"a certificate value must be JSON data, not {type(value).__name__}")


def _table_dicts(table: certificates.Table) -> list[dict]:
    """The list of dicts a table stands for, read cell by cell off its flat columns."""
    columns = iter(table.columns)
    groups = [[next(columns) for _ in range(width or 1)] for width in table.widths]
    rows = []
    for i in range(max(len(column) for column in table.columns)):
        def cell(column):
            return column[0] if len(column) == 1 else column[i]

        rows.append({key: cell(group[0]) if width == 0 else [cell(c) for c in group]
                     for key, width, group in zip(table.keys, table.widths, groups)})
    return rows


def _stdlib(value) -> str:
    return json.dumps(_normalised(value), sort_keys=True, indent=2) + "\n"


def _cell(value) -> str:
    """The markdown cell of a value, read off a one-row certificate."""
    table = Certificate("t", (recorded("x/y", "d", "r", value),)).to_markdown()
    return table.split("\n")[4][len("| x/y | d | r | "):-len(" |  | recorded |")]


def _random_text(rng: random.Random) -> str:
    return "".join(rng.choice(_TEXT) for _ in range(rng.randrange(4)))


def _random_scalar(rng: random.Random):
    return rng.choice([
        lambda: None,
        lambda: rng.choice([True, False]),
        lambda: rng.randrange(-10, 10),
        lambda: rng.choice([-1, 1]) * rng.randrange(2**70),
        lambda: _random_text(rng),
    ])()


def _random_value(rng: random.Random, depth: int = 0):
    kind = rng.randrange(6) if depth < 4 else 0
    if kind <= 1:
        return _random_scalar(rng)
    size = rng.randrange(5)
    if kind == 2:
        # all-int lists are most of a real certificate's lists, so make them common
        if rng.random() < 0.5:
            return [rng.randrange(-9, 9) for _ in range(size)]
        items = [_random_value(rng, depth + 1) for _ in range(size)]
        return rng.choice([list, tuple])(items)
    if kind == 3:
        return {_random_text(rng): _random_value(rng, depth + 1) for _ in range(size)}
    if kind == 4:
        return {str(i): [rng.randrange(3) for _ in range(3)] for i in range(size)}
    return _random_table(rng, depth)


# Lists of two or more dicts sharing one key tuple, flat or not: the writer
# writes them dict by dict, as any list. The flat ones are also the tables
# that a declared ``certificates.Table`` stands for.
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
    """A value that makes a table with it in one cell no longer flat."""
    sequence = type(cell) in (list, tuple)
    return rng.choice([
        lambda: rng.choice([True, False]),
        lambda: None,
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
    """Two to six dicts sharing keys: flat, or with one reason not to be."""
    rows = rng.randrange(2, 7)
    keys = list(dict.fromkeys(_table_text(rng) for _ in range(rng.randrange(1, 6))))
    columns = [_flat_column(rng, rows) for _ in keys]
    table = [dict(zip(keys, values)) for values in zip(*columns)]
    spoiler = rng.randrange(6)
    row = rng.randrange(1, rows)
    if spoiler == 0:  # one row with another key in place of one
        changed = rng.choice(keys)
        table[row] = {k + "'" if k == changed else k: v for k, v in table[row].items()}
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


# a flat table, and one list of dicts for each reason a table is not flat
_TABLE_CASES = {
    "flat": [{"b": 2**80, "a": "x%s\n", "c": [1, -2]}, {"b": -1, "a": "", "c": (3, 4)}],
    "percent key": [{"%s": 1, "%%": "%d"}, {"%s": 2, "%%": "%"}],
    "bool cell": [{"a": 1}, {"a": True}],
    "None cell": [{"a": "x"}, {"a": None}],
    "int and str": [{"a": 1}, {"a": "1"}],
    "empty list": [{"a": []}, {"a": []}],
    "other length": [{"a": [1, 2]}, {"a": (3,)}],
    "bool in list": [{"a": [1, 2]}, {"a": [3, True]}],
    "other key": [{"k": 1, "j": 2}, {"k'": 1, "j": 2}],
    "key order": [{"k": 1, "j": 2}, {"j": 2, "k": 1}],
    "fewer keys": [{"k": 1, "j": 2}, {"k": 1}],
    "more keys": [{"k": 1}, {"k": 1, "j": 2}],
    "nested list": [{"a": [[1]]}, {"a": [[2]]}],
    "nested dict": [{"a": {"b": 1}}, {"a": {"b": 2}}],
    "nested table": [{"a": [{"b": 1}, {"b": 2}]}, {"a": [{"b": 3}, {"b": 4}]}],
    "empty rows": [{}, {}],
}


def test_the_unvalidated_survivors_are_written_as_a_table(monkeypatch):
    # the survivors of classify at K^2 != 7 are a declared table, written one
    # row template at a time: in neither layout is a dict written for them
    written = []
    write_dict = _Writer.write_dict

    def spy(self, value, depth):
        written.append(tuple(value))
        write_dict(self, value, depth)

    monkeypatch.setattr(_Writer, "write_dict", spy)
    cert = classification_certificate(15)
    survivors = cert.rows[1].computed
    assert type(survivors) is certificates.Table and survivors.length == 62
    canonical_json(survivors)
    _cell(survivors)
    assert written == []
    cert.to_json()
    cert.to_markdown()
    assert written and not any("K2" in keys for keys in written)


def _random_declared_table(rng: random.Random) -> certificates.Table:
    """A table of zero to six rows: widths 0..4, each column a list or a tuple, and a
    third of the columns of one cell, as the survivors' K2, r and status are."""
    keys = list(dict.fromkeys(_table_text(rng) for _ in range(rng.randrange(1, 6))))
    widths = [rng.randrange(5) for _ in keys]
    length = rng.randrange(7)
    columns = []
    for width in widths:
        text = width == 0 and rng.random() < 0.5
        for _ in range(width or 1):
            cells = [_table_text(rng) if text else _flat_int(rng) for _ in range(length)]
            if cells and rng.random() < 1 / 3:
                cells = cells[:1]
            columns.append(rng.choice([list, tuple])(cells))
    return certificates.Table(keys, widths, columns)


def test_tables_match_stdlib_on_random_tables():
    # both layouts of a declared table, alone and at random depth, are the
    # stdlib encoder's text for the list of dicts it stands for, which are
    # the dicts the table derives
    rng = random.Random(20140802)
    lengths = set()
    for _ in range(1500):
        table = _random_declared_table(rng)
        lengths.add(table.length)
        assert table.dicts() == _table_dicts(table), table
        for value in (table, _with_bad_leaf(rng, table)):  # the table as the "leaf"
            assert canonical_json(value) == _stdlib(value), value
            assert _cell(value) == json.dumps(_normalised(value)), value
    assert lengths == set(range(7))


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
        [True, 1, False], [1, 2, 3], (1, (2, 3)), *_TABLE_CASES.values(),
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


def _computed(value) -> None:
    check("x/y", "d", "r", value, 1)


def _expected(value) -> None:
    check("x/y", "d", "r", 1, value)


# every way to refuse a value: both layouts, either side of a check, and the oracle
_REFUSERS = (canonical_json, _cell, _computed, _expected, _normalised)


def _assert_refused(value, message: str) -> None:
    for refuse in _REFUSERS:
        with pytest.raises(TypeError) as caught:
            refuse(value)
        assert str(caught.value) == message, (refuse.__name__, value)


# subclasses of the built-ins are refused as the types outside JSON are
_BAD_LEAVES = {
    "float": 1.5, "zero-float": 0.0, "set": {1, 2}, "bytes": b"bytes", "object": object(),
    "Count": Count(4), "Colour": Colour.RED, "Name": Name("n"), "Label": Label("k"),
    "Row": Row([1]), "Span": Span((None,)), "Table": Table(a=1), "OrderedDict": OrderedDict(a=1),
}


@pytest.mark.parametrize("bad", _BAD_LEAVES.values(), ids=_BAD_LEAVES)
def test_canonical_json_refuses_non_certificate_values(bad):
    rng = random.Random(7)
    message = f"a certificate value must be JSON data, not {type(bad).__name__}"
    for _ in range(200):
        _assert_refused(_with_bad_leaf(rng, bad), message)


_BAD_KEYS = {"int": 1, "bool": True, "None": None, "Count": Count(1), "Name": Name("k"),
             "Label": Label("k")}


@pytest.mark.parametrize("key", _BAD_KEYS.values(), ids=_BAD_KEYS)
def test_canonical_json_refuses_a_key_that_is_not_a_str(key):
    rng = random.Random(8)
    message = f"a certificate dict key must be a str, not {type(key).__name__}"
    for _ in range(200):
        row = {key: _random_value(rng, 2)}
        row.update((_random_text(rng), _random_value(rng, 2)) for _ in range(rng.randrange(3)))
        _assert_refused(_with_bad_leaf(rng, row), message)


def test_a_key_that_would_collide_as_a_str_is_refused():
    # {1: ..., "1": ...} holds two keys that both write as "1"
    message = "a certificate dict key must be a str, not int"
    _assert_refused({1: 1.5, "1": 2}, message)
    _assert_refused({1: 2, "1": 2}, message)
    _assert_refused({2: "b", 10: "a", "1": 1}, message)


def test_a_str_subclass_key_is_refused_beside_an_equal_str_key():
    # Label("k") == "k" and hashes alike, so a dict keyed by it looks up as
    # the dicts around it do
    _assert_refused([{"k": 1, "j": 2}, {Label("k"): 1, "j": 2}, {"k": 1, "j": 2}],
                    "a certificate dict key must be a str, not Label")
    _assert_refused({"a": {"k": 1}, "b": {Name("k"): 1}},
                    "a certificate dict key must be a str, not Name")


# tables with one cell, row or key outside the rule: the whole value is refused
_VALUE = "a certificate value must be JSON data, not "
_KEY = "a certificate dict key must be a str, not "
_REFUSED_TABLES = {
    "Count cell": ([{"a": 1}, {"a": Count(2)}], _VALUE + "Count"),
    "Name cell": ([{"a": "x"}, {"a": Name("y")}], _VALUE + "Name"),
    "Row cell": ([{"a": [1]}, {"a": Row([2])}], _VALUE + "Row"),
    "Span cell": ([{"a": (1,)}, {"a": Span((2,))}], _VALUE + "Span"),
    "OrderedDict row": ([{"a": 1}, OrderedDict(a=2)], _VALUE + "OrderedDict"),
    "Table row": ([{"a": 1}, Table(a=2)], _VALUE + "Table"),
    "Label key": ([{"k": 1, "j": 2}, {Label("k"): 1, "j": 2}], _KEY + "Label"),
    "int key": ([{"1": 1}, {1: 2}], _KEY + "int"),
}


@pytest.mark.parametrize("table,message", _REFUSED_TABLES.values(), ids=_REFUSED_TABLES)
def test_a_table_outside_the_rule_is_refused(table, message):
    _assert_refused(table, message)


# one table for each way a declared table is refused when it is built: a
# non-str key and a cell that is not certificate data as the writer refuses
# them, any other column that is not flat by its key, and each way its keys,
# widths and columns fail to make one shape
_TABLE_SHAPE = "a table has one or more distinct keys and rows of one cell per key"
_WIDTHS = "a table has one width per key, an exact int from 0"
_COLUMNS = "a table has one column per width-0 key and per tuple position: "
_COLUMN = ("table column 'a' is not all exact ints, all exact strs "
           "or all non-empty tuples of exact ints of one length")


def _length(key: str, length: int) -> str:
    return (f"table column {key!r} is not a list or tuple of the table's length ({length}) "
            "or of one cell")


_NOT_A_TABLE = {
    "float cell": ((("b", "a"), (0, 0), [(1, 3), (2, 1.5)]), _VALUE + "float"),
    "float in a tuple": ((("a",), (2,), [(1, 3), (2, 0.5)]), _VALUE + "float"),
    "bool cell": ((("a",), (0,), [(1, True)]), _COLUMN),
    "bool in a tuple": ((("a",), (2,), [(1, 3), (2, False)]), _COLUMN),
    "str in a tuple": ((("a",), (2,), [(1, 3), ("2", "4")]), _COLUMN),
    "Count cell": ((("a",), (0,), [(1, Count(2))]), _VALUE + "Count"),
    "Name cell": ((("a",), (0,), [("x", Name("y"))]), _VALUE + "Name"),
    "Span cell": ((("a",), (1,), [((1,), Span((2,)))]), _VALUE + "Span"),
    "None cell": ((("a",), (0,), [("x", None)]), _COLUMN),
    "list cell": ((("a",), (0,), [([1], [2])]), _COLUMN),
    "empty tuple": ((("a",), (0,), [((), ())]), _COLUMN),
    "int and str": ((("a",), (0,), [(1, "1")]), _COLUMN),
    "other length": ((("a",), (2,), [(1, 3, 5), (2, 4)]), _length("a", 3)),
    "int key": ((("a", 1), (0, 0), [(1,), (2,)]), _KEY + "int"),
    "Label key": (((Label("k"), "j"), (0, 0), [(1,), (2,)]), _KEY + "Label"),
    "no key": (((), (), []), _TABLE_SHAPE),
    "repeated key": ((("k", "j", "k"), (0, 0, 0), [(1,), (2,), (3,)]), _TABLE_SHAPE),
    "int column": ((("a",), (0,), [5]), _length("a", 0)),
    "str column": ((("a", "b"), (0, 0), ["xy", ("x", "y")]), _length("a", 2)),
    "Span column": ((("a",), (0,), [Span((1,))]), _VALUE + "Span"),
    "short row": ((("a", "b"), (0, 0), [(1, 2, 3), (1, 2)]), _length("b", 3)),
    "one row left empty": ((("a", "b"), (0, 0), [(1,), ()]), _length("b", 1)),
    "negative width": ((("a",), (-1,), [(1,)]), _WIDTHS),
    "bool width": ((("a",), (True,), [(1,)]), _WIDTHS),
    "float width": ((("a",), (1.0,), [(1,)]), _WIDTHS),
    "fewer widths": ((("a", "b"), (0,), [(1,), (2,)]), _WIDTHS),
    "more widths": ((("a",), (0, 0), [(1,), (2,)]), _WIDTHS),
    "fewer columns": ((("a", "b"), (0, 2), [(1,), (2,)]), _COLUMNS + "3, not 2"),
    "more columns": ((("a",), (1,), [(1,), (2,)]), _COLUMNS + "1, not 2"),
}


@pytest.mark.parametrize("args,message", _NOT_A_TABLE.values(), ids=_NOT_A_TABLE)
def test_a_table_refuses_what_is_not_a_table_when_built(args, message):
    with pytest.raises(TypeError) as caught:
        certificates.Table(*args)
    assert str(caught.value) == message


def test_check_tells_bools_from_ints():
    # True == 1 in Python, but a certificate shows `true` and `1`
    assert check("x/y", "bool against int", "r", True, 1).status == "fail"
    assert check("x/y", "bool against int", "r", False, 0).status == "fail"
    assert check("x/y", "nested", "r", {"a": [True, 0]}, {"a": (1, False)}).status == "fail"
    assert check("x/y", "same data", "r", {"a": [True, 0]}, {"a": (True, 0)}).status == "pass"
    assert check("x/y", "key order", "r", {"a": 1, "b": 2}, {"b": 2, "a": 1}).status == "pass"
    with pytest.raises(TypeError):
        check("x/y", "int subclass", "r", Count(3), Colour.RED)


def _dp1_root_withheld() -> Certificate:
    # the failing rows of a cover with no second root
    config, cover = fixture("dp1")
    roots = (cover.roots[0], None, cover.roots[2])
    cert = verify_surface("dp1", CoverData(config, cover.delta, roots))
    assert cert.failures()
    return cert


def _dp1_basis_reversed() -> Certificate:
    # a surface with no expectations, so its invariants are one recorded dict
    config, cover = fixture("dp1")
    doc = surface_to_dict(SurfaceFile("dp1-reversed", config, cover))

    def reverse(coeffs):
        return coeffs[:1] + coeffs[:0:-1]

    doc["basis"] = reverse(doc["basis"])
    for curve in doc["curves"]:
        curve["class"] = reverse(curve["class"])
    doc["cover"]["roots"] = [reverse(root) for root in doc["cover"]["roots"]]
    cert = verify_surface("dp1-reversed", surface_from_dict(doc).cover)
    (row,) = [r for r in cert.rows if r.row_id == "invariant/values"]
    assert len(row.computed) == 15
    return cert


@pytest.mark.parametrize("make", [
    lambda: classification_certificate(7),
    lambda: classification_certificate(21),
    lambda: classification_certificate(50),
    lambda: verify_surface("dp1", fixture("dp1")[1]),
    lambda: verify_surface("inoue", fixture("inoue")[1]),
    _dp1_root_withheld,
    _dp1_basis_reversed,
    lambda: deformation_certificate("dp1"),
    lambda: deformation_certificate("inoue"),
], ids=["classify-7", "classify-21", "classify-50", "verify-dp1", "verify-inoue",
        "verify-dp1-root-withheld", "verify-dp1-basis-reversed", "report-dp1", "report-inoue"])
def test_certificate_json_matches_stdlib_encoding(make):
    # both layouts of every value of a real certificate, against json.dumps
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
    lines = [f"# {cert.title}", "", "| id | description | ref | computed | expected | status |",
             "| --- | --- | --- | --- | --- | --- |"]
    for row in doc["rows"]:
        expected = "" if row["status"] == "recorded" else json.dumps(row["expected"])
        lines.append(f"| {row['id']} | {row['description']} | {row['ref']} "
                     f"| {json.dumps(row['computed'])} | {expected} | {row['status']} |")
    lines += ["", f"overall: {cert.overall} ({len(cert.rows)} rows)"]
    assert cert.to_markdown() == "\n".join(lines) + "\n"
