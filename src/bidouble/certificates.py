"""Machine-checkable certificates: named rows of computed vs expected values.

A certificate is the output format of every verification entry point. Each
row carries a stable id, a human description, a short name of the
mathematical fact being exercised (``ref``), the computed and expected
values, and a status. Rows are either computed comparisons (pass/fail) or
``recorded`` inputs, facts imported rather than derived, which never
affect the overall verdict.

JSON output is canonical: keys sorted, two-space indent, trailing newline.
Two runs over the same data produce byte-identical documents.
``canonical_json`` normalises and writes in one walk. Its output is byte
for byte ``json.dumps(v, sort_keys=True, indent=2) + "\n"`` of the
normalised value v: tuples become lists and dictionary keys become
``str(key)``. Only certificate values are accepted: None, bools, ints,
strings, lists, tuples and dicts of them. Anything else, floats included,
raises ``TypeError``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

PASS = "pass"
FAIL = "fail"
RECORDED = "recorded"


def _jsonable(value):
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    raise _refusal(value)


def _refusal(value) -> TypeError:
    return TypeError(f"a certificate value must be JSON data, not {type(value).__name__}")


@dataclass(frozen=True)
class CheckRow:
    row_id: str
    description: str
    ref: str
    computed: object
    expected: object
    status: str


def check(row_id: str, description: str, ref: str, computed, expected) -> CheckRow:
    """Comparison row; pass iff the normalized values agree exactly."""
    status = PASS if _jsonable(computed) == _jsonable(expected) else FAIL
    return CheckRow(row_id, description, ref, computed, expected, status)


def recorded(row_id: str, description: str, ref: str, value) -> CheckRow:
    """An imported fact, stated but not derived here."""
    return CheckRow(row_id, description, ref, value, None, RECORDED)


@dataclass(frozen=True)
class Certificate:
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
        lines = [f"# {self.title}", ""]
        lines.append("| id | description | ref | computed | expected | status |")
        lines.append("| --- | --- | --- | --- | --- | --- |")
        for r in self.rows:
            computed = json.dumps(_jsonable(r.computed))
            expected = "" if r.status == RECORDED else json.dumps(_jsonable(r.expected))
            lines.append(
                f"| {r.row_id} | {r.description} | {r.ref} | {computed} | {expected} | {r.status} |"
            )
        lines.append("")
        lines.append(f"overall: {self.overall} ({len(self.rows)} rows)")
        return "\n".join(lines) + "\n"


def canonical_json(obj) -> str:
    """The canonical JSON document of a certificate value (see the module docstring)."""
    parts: list[str] = []
    _write(obj, parts, "\n")
    parts.append("\n")
    return "".join(parts)


_quote = json.encoder.encode_basestring_ascii
_EXACT_INT = frozenset((int,))


def _write(value, parts: list[str], newline: str) -> None:
    """Append the JSON text of value; newline is "\n" plus the current indent."""
    cls = type(value)
    if cls is str:
        parts.append(_quote(value))
    elif cls is int:
        parts.append(int.__repr__(value))
    elif cls is list or cls is tuple:
        _write_list(value, parts, newline)
    elif cls is dict:
        _write_dict(value, parts, newline)
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, str):
        parts.append(_quote(value))
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        _write_list(value, parts, newline)
    elif isinstance(value, dict):
        _write_dict(value, parts, newline)
    else:
        raise _refusal(value)


def _write_list(value, parts: list[str], newline: str) -> None:
    if not value:
        parts.append("[]")
        return
    inner = newline + "  "
    if _EXACT_INT.issuperset(map(type, value)):  # no bools, which are ints too
        parts.append("[" + inner + ("," + inner).join(map(int.__repr__, value)) + newline + "]")
        return
    sep = "[" + inner
    for item in value:
        parts.append(sep)
        _write(item, parts, inner)
        sep = "," + inner
    parts.append(newline + "]")


def _write_dict(value, parts: list[str], newline: str) -> None:
    items = {str(k): v for k, v in value.items()}
    if not items:
        parts.append("{}")
        return
    if len(items) < len(value):
        _jsonable(value)  # keys that collide as strings still need JSON values
    inner = newline + "  "
    sep = "{" + inner
    for key, item in sorted(items.items()):
        parts.append(sep + _quote(key) + ": ")
        _write(item, parts, inner)
        sep = "," + inner
    parts.append(newline + "}")
