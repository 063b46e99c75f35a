"""Machine-checkable certificates: named rows of computed vs expected values.

A certificate is the output format of every verification entry point. Each
row carries a stable id, a human description, a short name of the
mathematical fact being exercised (``ref``), the computed and expected
values, and a status. Rows are either computed comparisons (pass/fail) or
``recorded`` inputs, facts imported rather than derived, which never
affect the overall verdict.

JSON output is canonical: keys sorted, two-space indent, trailing newline.
Two runs over the same data produce byte-identical documents.
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
    raise TypeError(f"a certificate value must be JSON data, not {type(value).__name__}")


@dataclass(frozen=True)
class CheckRow:
    row_id: str
    description: str
    ref: str
    computed: object
    expected: object
    status: str

    def to_json_dict(self) -> dict:
        return {
            "id": self.row_id,
            "description": self.description,
            "ref": self.ref,
            "computed": _jsonable(self.computed),
            "expected": _jsonable(self.expected),
            "status": self.status,
        }


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

    def to_json_dict(self) -> dict:
        return {
            "title": self.title,
            "overall": self.overall,
            "rows": [r.to_json_dict() for r in self.rows],
        }

    def to_json(self) -> str:
        return canonical_json(self.to_json_dict())

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
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
