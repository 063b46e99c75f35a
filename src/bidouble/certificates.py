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
a ``list`` or ``tuple`` of values, or an exact ``dict`` whose keys are
exact ``str``. Anything else raises ``TypeError``: a float, a subclass of
a built-in (an ``IntEnum``, an ``OrderedDict``) and a key of any other
type alike.

``check`` compares the canonical texts of its two values, so a row passes
only when both are the same JSON: ``true`` is not ``1``.
"""

from __future__ import annotations

from itertools import chain
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
_EXACT_DICT = frozenset((dict,))
_SEQUENCES = frozenset((list, tuple))
_COMPACT = ("", ", ", "")


class _Writer:
    """Writes certificate values as JSON text in the canonical or the compact layout.

    It takes types as the module docstring states them: a value of any
    other type, a subclass of a built-in included, and a dict key that is
    not an exact ``str`` raise ``TypeError``, in either layout.

    A dict is written from a shape cached per (key tuple, depth): the
    order of its values and the pre-quoted heads, separator and key, in
    front of each. The many dicts of one certificate that share their keys
    are then neither sorted nor quoted again. The keys are type-checked
    before the lookup, since a ``str`` subclass key equals its ``str``. The
    cache lives as long as the writer, which is one rendering.

    A table, a list of two or more exact dicts that share one key tuple of
    exact ``str`` and hold only flat values, is written column by column:
    each column's types are checked in one pass, and each row is one ``%``
    template, built from the cached shape, filled with that row's values.
    A flat value is an exact int, an exact str, or a non-empty list or
    tuple of exact ints; a column is all ints, all strs or all sequences
    of one length. Flatness is tested before the keys, on the first and
    last rows and then column by column, so a list of dicts that hold
    containers (a certificate's rows) leaves the path at once. Any other
    list, a table that is not flat included, is written item by item, so
    what the table path does not take is refused there.
    """

    __slots__ = ("canonical", "parts", "shapes")

    def __init__(self, canonical: bool) -> None:
        self.canonical = canonical
        self.parts: list[str] = []
        self.shapes: dict = {}

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
        if _EXACT_INT.issuperset(map(type, value)):  # no bools, which are ints too
            parts.append(f"[{first}{sep.join(map(str, value))}{close}]")
            return
        if type(value[0]) is dict and len(value) > 1:
            rows = self.table_rows(value, depth + 1)
            if rows is not None:
                parts.append(f"[{first}{sep.join(rows)}{close}]")
                return
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
        keys = tuple(value)
        if not _EXACT_STR.issuperset(map(type, keys)):
            bad = next(k for k in keys if type(k) is not str)
            raise TypeError(f"a certificate dict key must be a str, not {type(bad).__name__}")
        shape = self.shapes.get((keys, depth))
        if shape is None:
            shape = self.shapes[keys, depth] = self.shape(keys, depth)
        values = tuple(value.values())
        heads, close, (first, sep, inner_close) = shape
        # scalars and all-int lists inline
        for head, i in heads:
            item = values[i]
            cls = type(item)
            if cls is int:
                parts.append(f"{head}{item}")
            elif cls is str:
                parts.append(head + _quote(item))
            elif (cls is list or cls is tuple) and item and _EXACT_INT.issuperset(map(type, item)):
                parts.append(f"{head}[{first}{sep.join(map(str, item))}{inner_close}]")
            else:
                parts.append(head)
                self.write(item, depth + 1)
        parts.append(close)

    def table_rows(self, rows, depth: int):
        """The text of each row of a table at depth, or None when rows are not a table."""
        if not _EXACT_DICT.issuperset(map(type, rows)):
            return None
        # the end rows alone first, so that a list of dicts holding containers
        # or empty lists (a certificate's rows) leaves before any column pass;
        # this also makes the one length of a sequence column below non-zero
        for value in chain(rows[0].values(), rows[-1].values()):
            kind = type(value)
            if not (kind is int or kind is str or (kind is list or kind is tuple) and value):
                return None
        # each column with its kind: int, str, or the length of its int sequences
        cells = []
        for column in zip(*map(dict.values, rows)):
            kinds = set(map(type, column))
            if kinds == _EXACT_INT or kinds == _EXACT_STR:
                cells.append((kinds.pop(), column))
            elif kinds <= _SEQUENCES:
                lengths = set(map(len, column))
                if (len(lengths) > 1
                        or not _EXACT_INT.issuperset(map(type, chain.from_iterable(column)))):
                    return None
                cells.append((lengths.pop(), column))
            else:
                return None
        keys = tuple(rows[0])
        if (not keys or not _EXACT_STR.issuperset(map(type, chain.from_iterable(rows)))
                or not all(map(keys.__eq__, map(tuple, rows)))):
            return None
        shape = self.shapes.get((keys, depth))
        if shape is None:
            shape = self.shapes[keys, depth] = self.shape(keys, depth)
        heads, close, (first, sep, inner_close) = shape
        template, args = [], []
        for head, i in heads:
            kind, column = cells[i]
            template.append(head.replace("%", "%%"))  # a key may hold a %
            if kind is int:
                template.append("%s")
                args.append(column)
            elif kind is str:
                template.append("%s")
                args.append(map(_quote, column))
            else:
                template.append(f"[{first}{sep.join(['%s'] * kind)}{inner_close}]")
                args.extend(zip(*column))
        template.append(close)
        return map("".join(template).__mod__, zip(*args))

    def shape(self, keys: tuple[str, ...], depth: int):
        """(head and value index per key in output order, closing text, inner level)."""
        first, sep, close = self.level(depth)
        order = sorted(range(len(keys)), key=keys.__getitem__) if self.canonical else range(len(keys))
        heads = [(("{" + first if n == 0 else sep) + _quote(keys[i]) + ": ", i)
                 for n, i in enumerate(order)]
        return heads, close + "}", self.level(depth + 1)
