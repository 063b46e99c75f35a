"""Machine-checkable certificates: named rows of computed vs expected values.

A certificate is the output format of every verification entry point. Each
row carries a stable id, a human description, a short name of the
mathematical fact being exercised (``ref``), the computed and expected
values, and a status. Rows are either computed comparisons (pass/fail) or
``recorded`` inputs, facts imported rather than derived, which never
affect the overall verdict.

One writer renders every certificate value, in one of two layouts:

* canonical, for JSON documents: keys sorted, two-space indent. With a
  trailing newline this is what ``canonical_json`` returns, so two runs
  over the same data give byte-identical documents;
* compact, for the cells of the markdown table: keys in insertion order,
  ``", "`` and ``": "`` separators.

Each layout is byte for byte what the standard library's JSON encoder
writes for the value with its tuples turned into lists, with
``sort_keys=True, indent=2`` and with its defaults respectively.

A certificate value is None, a bool, an exact ``int``, an exact ``str``,
a ``list`` or ``tuple`` of values, an exact ``dict`` whose keys are
exact ``str``, or a ``Table``. Anything else raises ``TypeError``: a
float, a subclass of a built-in (an ``IntEnum``, an ``OrderedDict``) and
a key of any other type alike.

A ``Table`` is a declared list of dicts: a tuple of keys and rows of
cells, one cell per key. A cell is an exact int, an exact str or a
non-empty tuple of exact ints, and a column holds one kind of cell (and
tuples of one length). It is checked once, when it is built, and is
written as the list of dicts it stands for, one ``%`` template per row.
The writer detects no tables: any other list, a list of dicts included,
is written item by item.

``check`` compares the canonical texts of its two values, so a row passes
only when both are the same JSON: ``true`` is not ``1``.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote

from ._record import Record

PASS = "pass"
FAIL = "fail"
RECORDED = "recorded"


class CheckRow(Record):
    row_id: str
    description: str
    ref: str
    computed: object
    expected: object
    status: str


def check(row_id: str, description: str, ref: str, computed, expected) -> CheckRow:
    """Comparison row; pass iff both values have the same canonical JSON text."""
    text = _Writer(True).text
    status = PASS if text(computed) == text(expected) else FAIL
    return CheckRow(row_id, description, ref, computed, expected, status)


def recorded(row_id: str, description: str, ref: str, value) -> CheckRow:
    """An imported fact, stated but not derived here."""
    return CheckRow(row_id, description, ref, value, None, RECORDED)


class Table(Record):
    """A list of dicts that share one key tuple, declared as such (see the module docstring).

    ``rows`` holds one tuple of cells per dict, in the order of ``keys``.
    Building one checks it, one pass per column, and raises ``TypeError``
    for what the writer refuses (a key that is not an exact ``str``, a
    cell that is not certificate data), with the writer's message, and for
    whatever else is not a table: no key or a repeated one, a row that is
    not a tuple of one cell per key, and a column that is not all exact
    ints, all exact strs or all non-empty tuples of exact ints of one
    length. Writing one checks nothing again.
    """

    keys: tuple[str, ...]
    rows: tuple[tuple, ...]

    def __post_init__(self) -> None:
        keys, rows = tuple(self.keys), tuple(self.rows)
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "rows", rows)
        for key in keys:
            if type(key) is not str:
                raise TypeError(f"a certificate dict key must be a str, not {type(key).__name__}")
        if (not keys or len(set(keys)) < len(keys)
                or not all(type(row) is tuple and len(row) == len(keys) for row in rows)):
            raise TypeError("a table has one or more distinct keys and rows of one cell per key")
        # each column with its kind: int or str and the column, or the length
        # of its int tuples and the column of each position
        columns = []
        for key, column in zip(keys, zip(*rows)):
            kinds = set(map(type, column))
            if kinds == _EXACT_INT or kinds == _EXACT_STR:
                columns.append((kinds.pop(), column))
                continue
            positions = ()
            if kinds == _EXACT_TUPLE and len(set(map(len, column))) == 1:
                positions = tuple(zip(*column))
            if not positions or not all(_EXACT_INT.issuperset(map(type, p)) for p in positions):
                _Writer(True).text(column)  # what the writer refuses, a float say, as it does
                raise TypeError(f"table column {key!r} is not all exact ints, all exact strs "
                                "or all non-empty tuples of exact ints of one length")
            columns.append((len(positions), positions))
        object.__setattr__(self, "_columns", tuple(columns))


class Certificate(Record):
    title: str
    rows: tuple[CheckRow, ...]

    @property
    def overall(self) -> str:
        return FAIL if any(r.status == FAIL for r in self.rows) else PASS

    def failures(self) -> list[CheckRow]:
        return [r for r in self.rows if r.status == FAIL]

    def to_json(self) -> str:
        rows = [
            {
                "id": r.row_id,
                "description": r.description,
                "ref": r.ref,
                "computed": r.computed,
                "expected": r.expected,
                "status": r.status,
            }
            for r in self.rows
        ]
        return canonical_json({"title": self.title, "overall": self.overall, "rows": rows})

    def to_markdown(self) -> str:
        cell = _Writer(False).text
        lines = [f"# {self.title}", ""]
        lines.append("| id | description | ref | computed | expected | status |")
        lines.append("| --- | --- | --- | --- | --- | --- |")
        for r in self.rows:
            computed = cell(r.computed)
            expected = "" if r.status == RECORDED else cell(r.expected)
            lines.append(
                f"| {r.row_id} | {r.description} | {r.ref} | {computed} | {expected} | {r.status} |"
            )
        lines.append("")
        lines.append(f"overall: {self.overall} ({len(self.rows)} rows)")
        return "\n".join(lines) + "\n"


def canonical_json(obj) -> str:
    """The canonical JSON document of a certificate value (see the module docstring)."""
    return _Writer(True).text(obj) + "\n"


_EXACT_INT = frozenset((int,))
_EXACT_STR = frozenset((str,))
_EXACT_TUPLE = frozenset((tuple,))
_COMPACT = ("", ", ", "")


class _Writer:
    """Writes certificate values as JSON text in the canonical or the compact layout.

    It takes types as the module docstring states them: a value of any
    other type, a subclass of a built-in included, and a dict key that is
    not an exact ``str`` raise ``TypeError``, in either layout.

    ``write`` is the one place that branches on a value's type: a list
    and a dict write their items through it, a dict its keys sorted in the
    canonical layout and in insertion order in the compact one, once they
    are all checked.

    A ``Table``, checked when it was built, is written without a check:
    each row is one ``%`` template, built from the shape of its keys,
    filled with that row's cells. Every other list is written item by item.
    """

    __slots__ = ("canonical", "parts")

    def __init__(self, canonical: bool) -> None:
        self.canonical = canonical
        self.parts: list[str] = []

    def text(self, value) -> str:
        parts = self.parts
        self.write(value, 0)
        text = "".join(parts)
        parts.clear()
        return text

    def level(self, depth: int) -> tuple[str, str, str]:
        """What follows an opening bracket, separates items and precedes the closing one."""
        if not self.canonical:
            return _COMPACT
        inner = "\n" + "  " * (depth + 1)
        return inner, "," + inner, inner[:-2]

    def write(self, value, depth: int) -> None:
        cls = type(value)
        if cls is str:
            self.parts.append(_quote(value))
        elif cls is int:  # an exact int formats as its repr; a subclass may not
            self.parts.append(str(value))
        elif cls is list or cls is tuple:
            self.write_list(value, depth)
        elif cls is dict:
            self.write_dict(value, depth)
        elif cls is Table:
            self.write_table(value, depth)
        elif value is None:
            self.parts.append("null")
        elif value is True:
            self.parts.append("true")
        elif value is False:
            self.parts.append("false")
        else:
            raise TypeError(f"a certificate value must be JSON data, not {type(value).__name__}")

    def write_list(self, value, depth: int) -> None:
        parts = self.parts
        if not value:
            parts.append("[]")
            return
        first, sep, close = self.level(depth)
        head = "[" + first
        for item in value:
            parts.append(head)
            self.write(item, depth + 1)
            head = sep
        parts.append(close + "]")

    def write_dict(self, value, depth: int) -> None:
        parts = self.parts
        if not value:
            parts.append("{}")
            return
        for key in value:
            if type(key) is not str:
                raise TypeError(f"a certificate dict key must be a str, not {type(key).__name__}")
        first, sep, close = self.level(depth)
        head = "{" + first
        for key, item in sorted(value.items()) if self.canonical else value.items():
            parts.append(f"{head}{_quote(key)}: ")
            self.write(item, depth + 1)
            head = sep
        parts.append(close + "}")

    def write_table(self, table: Table, depth: int) -> None:
        if not table.rows:
            self.parts.append("[]")
            return
        first, sep, close = self.level(depth)
        heads, row_close, (inner_first, inner_sep, inner_close) = self.shape(table.keys, depth + 1)
        template, args = [], []
        for head, i in heads:
            kind, cells = table._columns[i]
            template.append(head.replace("%", "%%"))  # a key may hold a %
            if kind is int:
                template.append("%s")
                args.append(cells)
            elif kind is str:
                template.append("%s")
                args.append(map(_quote, cells))
            else:
                template.append(f"[{inner_first}{inner_sep.join(['%s'] * kind)}{inner_close}]")
                args.extend(cells)
        template.append(row_close)
        rows = map("".join(template).__mod__, zip(*args))
        self.parts.append(f"[{first}{sep.join(rows)}{close}]")

    def shape(self, keys: tuple[str, ...], depth: int):
        """A table row's (head, column) per key in output order, closing text and inner level."""
        first, sep, close = self.level(depth)
        order = sorted(range(len(keys)), key=keys.__getitem__) if self.canonical else range(len(keys))
        heads = [(("{" + first if n == 0 else sep) + _quote(keys[i]) + ": ", i)
                 for n, i in enumerate(order)]
        return heads, close + "}", self.level(depth + 1)
