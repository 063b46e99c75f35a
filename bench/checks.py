"""Output checks for the benchmark, against answers bidouble does not derive.

Three kinds of expected answer are kept apart on purpose:

* oracles: facts from the literature written here as literals, namely the
  paper's K^2 = 7 classification table, the classical curve counts 240 and
  2160 on ``dp1`` and 27 and 9 on ``inoue``, the fixture invariants and the
  deformation numbers;
* the harness's own arithmetic: every enumerated, filtered and rendered
  class and every classified survivor is re-checked with integer code
  written here, not with bidouble's;
* regression pins: counts at larger s and K^2 and sha256 digests of output
  bytes, recorded from the seed implementation. A pin says "unchanged
  since the seed", not "correct".

Every checker returns a list of problems; an empty list means the output
passed. Checkers stream over large outputs so that checking does not raise
the peak memory the benchmark reports.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from math import isqrt
from operator import mul

# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

# The paper's classification table for K^2 = 7, in output order.
K7_TABLE = (
    {"K2": 7, "k": [7, 5, 5], "m": [5, 9, 7], "r": [-1, -1, -1],
     "l": [2, 0, 2], "KSigma2": 3, "detA": 784, "status": "realized_inoue"},
    {"K2": 7, "k": [5, 5, 3], "m": [7, 5, 1], "r": [-1, -1, -1],
     "l": [4, 2, 0], "KSigma2": 1, "detA": 144, "status": "realized_dp1"},
    {"K2": 7, "k": [5, 5, 3], "m": [3, 5, 1], "r": [-1, -1, -1],
     "l": [4, 2, 2], "KSigma2": -1, "detA": 64, "status": "excluded_geometric"},
    {"K2": 7, "k": [5, 5, 3], "m": [7, 1, 1], "r": [-1, -1, -1],
     "l": [4, 4, 0], "KSigma2": -1, "detA": 64, "status": "excluded_geometric"},
    {"K2": 7, "k": [5, 3, 1], "m": [1, 3, 1], "r": [-1, -1, -1],
     "l": [4, 2, 2], "KSigma2": -1, "detA": 16, "status": "open"},
)

BASIS = {
    "dp1": ("L", "E0", "E1", "E1'", "E2", "E2'", "E3", "E3'", "E"),
    "inoue": ("L", "E1", "E2", "E3", "E1'", "E2'", "E3'"),
}

# The six nodal curves C_j, C_j' of dp1, the input of the nodal filter.
DP1_NODAL = (
    (1, -1, -1, -1, 0, 0, 0, 0, 0),
    (1, -1, 0, 0, -1, -1, 0, 0, 0),
    (1, -1, 0, 0, 0, 0, -1, -1, 0),
    (0, 0, 1, -1, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 1, -1, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 1, -1, 0),
)

# Invariants of the two covers, as the paper states them. D is given in the
# fixture's own basis order; every other value is basis independent.
COVER_FACTS = {
    "dp1": {"D": [7, -3, -2, -2, -2, -2, -2, -2, -3], "D2": 7, "DKW": -3, "M2": 2,
            "DB": [5, 5, 3], "BB": [7, 5, 1], "B2": [-1, -1, -1], "l": [4, 2, 0],
            "KV2": -5, "blowdown": 12, "KS2": 7, "sumLLK": -6, "chiOV": 1,
            "dims": [6, 1, 1, 0]},
    "inoue": {"D": [5, -1, -2, -2, -1, -2, -2], "D2": 7, "DKW": -5, "M2": 0,
              "DB": [7, 5, 5], "BB": [5, 9, 7], "B2": [-1, -1, -1], "l": [2, 0, 2],
              "KV2": -1, "blowdown": 8, "KS2": 7, "sumLLK": -6, "chiOV": 1,
              "dims": [7, 1, 0, 0]},
}

# Deformation bookkeeping values of the paper, by certificate row.
REPORT_FACTS = {
    "dp1": {"report/chi-twist": -8, "report/chi-restrictions": 5,
            "report/chi-log": -3, "report/balance": 4, "report/h1-inv": 3},
    "inoue": {"report/chi-twist": -4, "report/chi-restrictions": 0,
              "report/chi-log": -4, "report/balance": 4},
}

# Classical counts: (-1)-curves and conic classes on a degree-one del Pezzo
# lattice, and (-1)-curves on a degree-three one.
CLASSICAL_COUNTS = {("dp1", -1): 240, ("dp1", 0): 2160, ("inoue", -1): 27}

# On inoue the (-1)-classes meeting no nodal curve negatively are the six
# exceptional curves and the three lines Gamma_i.
INOUE_FILTERED = frozenset({
    (0, 1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0, 0),
    (0, 0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 0, 1),
    (1, -1, 0, 0, -1, 0, 0), (1, 0, -1, 0, 0, -1, 0), (1, 0, 0, -1, 0, 0, -1),
})

# ---------------------------------------------------------------------------
# regression pins (recorded from the seed implementation, not oracles)
# ---------------------------------------------------------------------------

PIN_ENUMERATE_COUNTS = {("dp1", 1): 17520, ("dp1", 2): 82560}
PIN_SURVIVORS = {15: 62, 21: 184, 25: 331}
PIN_SHA256 = {
    "classify-7.json": "491136e88bf5884432e71152cf2647e4cafa908508f86a495de07f6ed6ada315",
    "classify-7.md": "e3db93a014ee8e24ae5d4e9a9c944dfe42f644addff2bb52a7fd660710f79301",
    "classify-15.json": "8e25060b44215c0d86600d66b757b3a700f3ad883ecd6796b03bbe5ffe5696af",
    "classify-15.md": "8b185d1ed04ff06412d73b2771798f4dbb6c1c7bced803e4a7d57dafb5f18eb3",
    "classify-21.json": "d10471b71f3bad40c07d2465ab43cefa1a935ebdb29d74a95ab2c9fb853e8267",
    "classify-21.md": "f68b1de0fd59dac090ffd3e774d35a48be917b9da1eb8df6404e4c0f0cbf54cb",
    "classify-25.json": "6c7f48771341d542cd2238831394b343a5756ca0ae7eaa0adf9fefb95b4c1513",
    "classify-25.md": "69dc303a142652c576ac4c664906af823a9bce9a78c4f341b6e7a42161da3216",
    "enumerate-dp1--1.md": "7dad038fa2f82debbdf5d7c2a7c78bba3672440e7020fe8ecfb7ec52457380c0",
    "enumerate-inoue--1-filtered.json":
        "7d5699bc8dd3314b393de99a98f7126dde52e3208509a9970afb16db80fb3a85",
    "report-dp1.json": "44e21c0c0c8d30719d4179127a242d21d23b8fdf066b5a2520d6e0fa8077696f",
    "report-dp1.md": "3a2f74ca30dd37f7149f34c50fc0f3f07b8efa77b9e4b45fbb9d0b2f3bffa318",
    "report-inoue.json": "b34c54bff8477409d933432e7e7a5f7b8866116e8bcfd587c7aeaa8ae8bf76d4",
    "report-inoue.md": "99e1c9847afb2254616f1b9ba875035319df220bb13275ca2a983a833b390b49",
    "surface-dp1.json": "edc51291506cace7dfdd21c51e2efe03104086488fcab2c49f083b2801abd3ef",
    "surface-inoue.json": "5503a96ab8b80dd90b11042af800f36d032bd38f0ed6e291ade9ae22dbfc1989",
    "verify-dp1.json": "2ebe63ee30b8ae1e6e97156f61f868cefeedde05f697a400b6f42b66d55c42f3",
    "verify-dp1.md": "9f8f061691445c6e1fc35e0a2bf612ca22a47dcc5c9d80f416559a697395f0cc",
    "verify-inoue.json": "6533cd3f457a3644c7a719c79fe3265093e0ad093b3014beb7f0d46e993e1e87",
    "verify-inoue.md": "2bec95a142f05533b6032b69c7b243c03014a090b683a14fcca1707765f2b9f8",
}

# ---------------------------------------------------------------------------
# arithmetic written for the harness
# ---------------------------------------------------------------------------


def canonical(rank: int) -> tuple[int, ...]:
    """K = -3L + E_1 + ... + E_n in the basis (L, E_1, ..., E_n)."""
    return (-3,) + (1,) * (rank - 1)


@lru_cache(maxsize=None)
def _term(name: str, c: int, first: bool) -> str:
    term = name if abs(c) == 1 else f"{abs(c)}{name}"
    if first:
        return term if c > 0 else "-" + term
    return (" + " if c > 0 else " - ") + term


def render_class(basis, coeffs) -> str:
    """The class as text, e.g. ``5L - E1 - 2E2``, written independently."""
    out: list[str] = []
    for name, c in zip(basis, coeffs):
        if c:
            out.append(_term(name, c, not out))
    return "".join(out) or "0"


def parse_class(basis, text: str) -> tuple[int, ...]:
    """Inverse of :func:`render_class`; raises ValueError on malformed text."""
    coeffs = [0] * len(basis)
    index = {name: i for i, name in enumerate(basis)}
    tokens = text.split(" ")
    sign = 1
    expect_term = True
    for tok in tokens:
        if not expect_term:
            if tok not in ("+", "-"):
                raise ValueError(f"expected a sign in {text!r}")
            sign = 1 if tok == "+" else -1
            expect_term = True
            continue
        if tok.startswith("-"):
            sign, tok = -sign, tok[1:]
        digits = len(tok) - len(tok.lstrip("0123456789"))
        mag = int(tok[:digits]) if digits else 1
        name = tok[digits:]
        if name not in index or coeffs[index[name]]:
            raise ValueError(f"bad term {tok!r} in {text!r}")
        coeffs[index[name]] = sign * mag
        expect_term = False
    if expect_term:
        raise ValueError(f"dangling sign in {text!r}")
    return tuple(coeffs)


def det3(rows) -> int:
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def is_square(x: int) -> bool:
    return x >= 0 and isqrt(x) ** 2 == x


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _pin(key: str, data, problems: list) -> None:
    want = PIN_SHA256.get(key)
    if want is None:
        problems.append(f"no pinned digest for {key}")
    elif sha256(data) != want:
        problems.append(f"{key}: bytes differ from the pinned seed output")


# ---------------------------------------------------------------------------
# curve classes
# ---------------------------------------------------------------------------


def class_problems(fixture: str, s: int, classes) -> tuple[int, list[str]]:
    """Each class has square s and K.C = -2 - s, and the list is strictly sorted.

    Returns the number of classes seen and the problems found.
    """
    problems: list[str] = []
    rank = len(BASIS[fixture])
    prev = None
    count = 0
    for c in classes:
        c = tuple(c)
        count += 1
        a, b = c[0], c[1:]
        # C.C = a^2 - sum b_i^2 and K.C = -3a - sum b_i for K = -3L + sum E_i
        if len(c) != rank or a * a - sum(map(mul, b, b)) != s or -3 * a - sum(b) != -2 - s:
            problems.append(f"class {c} is not a rational curve class of square {s}")
        if prev is not None and not prev < c:
            problems.append(f"classes not strictly sorted at {c}")
        prev = c
        if len(problems) > 5:
            break
    return count, problems


def check_enumerated(fixture: str, s: int, classes) -> list[str]:
    """All classes of square s, checked one by one and counted."""
    count, problems = class_problems(fixture, s, classes)
    want = CLASSICAL_COUNTS.get((fixture, s), PIN_ENUMERATE_COUNTS.get((fixture, s)))
    if want is None:
        problems.append(f"no expected count for {fixture} at s={s}")
    elif count != want:
        problems.append(f"{count} classes at s={s}, expected {want}")
    return problems


def check_filtered(classes, kept) -> list[str]:
    """``kept`` is exactly the dp1 ``classes`` meeting no nodal curve negatively."""
    sparse = [(n, n[0], [(i, x) for i, x in enumerate(n) if i and x]) for n in DP1_NODAL]

    def meets_all_nonnegatively(c):
        for n, n0, terms in sparse:
            if c[0] * n0 - sum(c[i] * x for i, x in terms) < 0 and tuple(c) != n:
                return False
        return True
    want = (c for c in classes if meets_all_nonnegatively(c))
    got = iter(kept)
    for w in want:
        g = next(got, None)
        if g is None or tuple(g) != tuple(w):
            return [f"filtered list differs at {tuple(w)} (got {g})"]
    extra = next(got, None)
    if extra is not None:
        return [f"filtered list has an extra class {tuple(extra)}"]
    return []


def check_rendered(fixture: str, classes, lines) -> list[str]:
    basis = BASIS[fixture]
    got = iter(lines)
    for c in classes:
        line = next(got, None)
        if line != render_class(basis, c):
            return [f"class {tuple(c)} rendered as {line!r}"]
    if next(got, None) is not None:
        return ["more rendered lines than classes"]
    return []


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

_MD_HEAD = ("| id | description | ref | computed | expected | status |",
            "| --- | --- | --- | --- | --- | --- |")
_DECODER = json.JSONDecoder()


def _md_value(text: str):
    """Decode a JSON value at the start of ``text``; it must be in json.dumps form."""
    value, end = _DECODER.raw_decode(text)
    if json.dumps(value) != text[:end]:
        raise ValueError("cell is not in json.dumps form")
    return value, text[end:]


def _md_row(line: str) -> dict:
    if not (line.startswith("| ") and line.endswith(" |")):
        raise ValueError("row is not a table line")
    row_id, description, ref, rest = line[2:-2].split(" | ", 3)
    computed, rest = _md_value(rest)
    if not rest.startswith(" | "):
        raise ValueError("missing separator")
    rest = rest[3:]
    if rest.startswith(" | "):
        expected, status = None, rest[3:]
        if status != "recorded":
            raise ValueError("empty expected cell on a compared row")
    else:
        expected, rest = _md_value(rest)
        if not rest.startswith(" | ") or rest[3:] not in ("pass", "fail"):
            raise ValueError("bad status cell")
        status = rest[3:]
    return {"computed": computed, "description": description, "expected": expected,
            "id": row_id, "ref": ref, "status": status}


def parse_markdown(md_text: str) -> dict:
    """Read a markdown certificate back into the shape of its JSON form."""
    lines = md_text.split("\n")
    if (len(lines) < 7 or not lines[0].startswith("# ") or lines[1] != ""
            or tuple(lines[2:4]) != _MD_HEAD or lines[-3] != "" or lines[-1] != ""):
        raise ValueError("markdown certificate layout")
    rows = [_md_row(line) for line in lines[4:-3]]
    overall = "fail" if any(r["status"] == "fail" for r in rows) else "pass"
    if lines[-2] != f"overall: {overall} ({len(rows)} rows)":
        raise ValueError("markdown footer does not match the rows")
    return {"title": lines[0][2:], "overall": overall, "rows": rows}


def parse_json_certificate(json_text: str) -> dict:
    doc = json.loads(json_text)
    if json.dumps(doc, sort_keys=True, indent=2) + "\n" != json_text:
        raise ValueError("certificate JSON is not in canonical form")
    if not isinstance(doc, dict) or set(doc) != {"title", "overall", "rows"}:
        raise ValueError("certificate JSON has the wrong keys")
    overall = "fail" if any(r.get("status") == "fail" for r in doc["rows"]) else "pass"
    if doc["overall"] != overall:
        raise ValueError("certificate overall does not match its rows")
    return doc


def certificate(json_text=None, md_text=None):
    """Parse one or both forms of a certificate; both must say the same.

    Returns (document or None, problems).
    """
    docs = []
    try:
        if json_text is not None:
            docs.append(parse_json_certificate(json_text))
        if md_text is not None:
            docs.append(parse_markdown(md_text))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return None, [f"certificate does not parse: {exc}"]
    if len(docs) == 2 and docs[0] != docs[1]:
        return None, ["JSON and markdown certificates differ"]
    return docs[0], []


def _rows(doc) -> dict:
    return {r["id"]: r for r in doc["rows"]}


def _pins(key: str, json_text, md_text, problems: list) -> None:
    for ext, text in (("json", json_text), ("md", md_text)):
        if text is not None:
            _pin(f"{key}.{ext}", text, problems)


def survivor_problems(k2: int, case) -> list[str]:
    """Re-check one classified case with the harness's own arithmetic."""
    try:
        k, l, ks = case["k"], case["l"], case["KSigma2"]
        m = case["m"][::-1]  # reported (R1R2, R1R3, R2R3) -> (R2R3, R1R3, R1R2)
        bad = []
        if case["K2"] != k2 or case["r"] != [-1, -1, -1]:
            bad.append("wrong K2 or r")
        if not k2 >= k[0] >= k[1] >= k[2] >= 0 or any((x - k2) % 2 for x in k):
            bad.append("k out of range")
        for i in range(3):
            if 2 * l[i] + m[i] != k[i] + 4 or l[i] < 0 or m[i] < 1:
                bad.append(f"2l + m = k + 4 fails at {i + 1}")
            if k2 * (2 * m[i] - 2) > (k[(i + 1) % 3] + k[(i + 2) % 3]) ** 2:
                bad.append(f"pairwise index bound fails at {i + 1}")
        if k2 * (2 * sum(m) - 3) > sum(k) ** 2:
            bad.append("triple index bound fails")
        # pairing matrix of R_1, R_2, R_3: squares -1, R2R3 = m[0] and so on
        det = det3(((-1, m[2], m[1]), (m[2], -1, m[0]), (m[1], m[0], -1)))
        if det != case["detA"] or not is_square(det):
            bad.append(f"detA {case['detA']} is not the square determinant {det}")
        dk2 = k2 - sum(k)  # twice D.K_Sigma
        if ks != k2 - sum(l) or dk2 % 2 or 4 * k2 * ks > dk2 * dk2:
            bad.append("base index bound fails")
        if ks + dk2 + k2 < 0 or 2 * k2 + dk2 < 0:
            bad.append("adjoint square or genus bound fails")
    except (KeyError, TypeError, IndexError):
        return [f"malformed case {case!r}"]
    return [f"case k={k} m={case['m']}: {b}" for b in bad]


def check_table7(doc) -> list[str]:
    """The K^2 = 7 certificate reproduces the paper's table, row for row."""
    rows = doc["rows"]
    problems = [] if doc["overall"] == "pass" else ["K2=7 classification does not pass"]
    if not rows or rows[0]["id"] != "table/count" or rows[0]["computed"] != len(K7_TABLE):
        problems.append("K2=7 classification does not report five cases")
    if len(rows) != len(K7_TABLE) + 1:
        problems.append(f"{len(rows) - 1} table rows, expected {len(K7_TABLE)}")
    for row, want in zip(rows[1:], K7_TABLE):
        if row["computed"] != want or row["status"] != "pass":
            problems.append(f"table row {row['id']} differs from the paper")
        else:
            problems += survivor_problems(7, want)
    return problems


def check_classify(k2: int, json_text=None, md_text=None) -> list[str]:
    """Classification certificate: the paper's table at 7, re-checked survivors elsewhere."""
    doc, problems = certificate(json_text, md_text)
    _pins(f"classify-{k2}", json_text, md_text, problems)
    if doc is None:
        return problems
    if k2 == 7:
        return problems + check_table7(doc)
    rows = doc["rows"]
    if doc["overall"] != "fail" or [r["id"] for r in rows] != [
            "table/reference", "table/unvalidated"]:
        return problems + ["an uncovered degree must give the two documented rows"]
    cases = rows[1]["computed"]
    if len(cases) != PIN_SURVIVORS.get(k2):
        problems.append(f"{len(cases)} survivors at K2={k2}, pinned {PIN_SURVIVORS.get(k2)}")
    prev = None
    for case in cases:
        problems += survivor_problems(k2, case)
        if case.get("status") != "open":
            problems.append("survivors of an uncovered degree must be open")
        key = ([-x for x in case["k"]], -sum(case["m"]), case["m"])
        if prev is not None and not prev < key:
            problems.append(f"survivors out of order at k={case['k']} m={case['m']}")
        prev = key
    return problems


def permuted(vec, perm) -> list[int]:
    """The vector in a basis whose i-th exceptional entry is old entry perm[i]."""
    return [vec[0]] + [vec[p + 1] for p in perm]


def _fixture_rows(fx: str, doc) -> list[str]:
    rows = _rows(doc)
    facts = COVER_FACTS[fx]
    problems = []
    if doc["title"] != f"fixture verification: {fx}" or doc["overall"] != "pass":
        problems.append(f"{fx} fixture certificate does not pass")
    for key in ("D", "D2", "DKW", "M2", "DB", "BB", "B2", "l", "KV2", "blowdown",
                "KS2", "sumLLK", "chiOV", "dims"):
        row = rows.get(f"invariant/{key}")
        if row is None or row["computed"] != facts[key] or row["status"] != "pass":
            problems.append(f"{fx} invariant {key} differs from the paper")
    case = K7_TABLE[0 if fx == "inoue" else 1]
    row = rows.get("case/table")
    if row is None or row["status"] != "pass" or row["computed"] != [
            case["k"], case["m"], case["l"], case["KSigma2"]]:
        problems.append(f"{fx} is not matched to its row of the table")
    return problems


def check_verification(variant, json_text=None, md_text=None) -> list[str]:
    """Certificate of ``verify`` on a fixture file or one of its variants.

    ``variant`` is {"fixture", "kind", ...} with kind ``exported`` (the
    fixture itself), ``permuted`` (basis order ``perm`` and a new ``label``,
    so no expectations apply) or ``withheld`` (root ``root`` set to null).
    """
    fx, kind = variant["fixture"], variant["kind"]
    doc, problems = certificate(json_text, md_text)
    if kind == "exported":
        _pins(f"verify-{fx}", json_text, md_text, problems)
    if doc is None:
        return problems
    if kind == "exported":
        return problems + _fixture_rows(fx, doc)
    if kind == "permuted":
        want = dict(COVER_FACTS[fx])
        want["D"] = permuted(want["D"], variant["perm"])
        want["M"] = [a + b for a, b in zip(canonical(len(want["D"])), want["D"])]
        row = _rows(doc).get("invariant/values")
        if doc["overall"] != "pass" or row is None or row["computed"] != want:
            problems.append(f"permuted {fx} does not give the fixture's invariants")
        if doc["title"] != f"surface verification: {variant['label']}":
            problems.append("permuted copy has the wrong title")
        return problems
    w = variant["root"] + 1
    fails = {r["id"] for r in doc["rows"] if r["status"] == "fail"}
    want = {f"building/double-{w}", "building/mixed-1", "building/mixed-2",
            "building/mixed-3"}
    if doc["overall"] != "fail" or fails != want:
        problems.append(f"withheld root {w} of {fx} fails rows {sorted(fails)}")
    if doc["rows"][-1]["id"] != "invariant/skipped":
        problems.append("withheld root does not skip the invariant rows")
    return problems


def check_report(fx: str, json_text=None, md_text=None) -> list[str]:
    doc, problems = certificate(json_text, md_text)
    _pins(f"report-{fx}", json_text, md_text, problems)
    if doc is None:
        return problems
    rows = _rows(doc)
    if doc["overall"] != "pass":
        problems.append(f"{fx} deformation report does not pass")
    for row_id, value in REPORT_FACTS[fx].items():
        row = rows.get(row_id)
        if row is None or row["computed"] != value or row["status"] != "pass":
            problems.append(f"{fx} {row_id} differs from the paper")
    return problems


# ---------------------------------------------------------------------------
# whole command-line runs
# ---------------------------------------------------------------------------


def cli_argv(spec) -> list[str]:
    """The ``bidouble`` arguments of a command-line operation."""
    what = spec["what"]
    if what == "classify":
        argv = ["classify", "--k2", str(spec["k2"])]
    elif what == "verify":
        argv = ["verify"] + (["--file", spec["file"]] if "file" in spec
                             else ["--fixture", spec["fixture"]])
        if "export" in spec:
            argv += ["--export", spec["export"]]
    elif what == "enumerate":
        argv = ["enumerate", "--fixture", spec["fixture"], "--selfint", str(spec["selfint"])]
        if spec.get("filtered"):
            argv.append("--filtered")
    else:
        argv = ["report", spec["fixture"]]
    return argv + ["--emit", spec["emit"]]


def check_cli(spec, exit_code: int, stdout: bytes, exported=None) -> list[str]:
    """One ``bidouble`` process: exit code 0 and the right bytes on stdout.

    ``exported`` holds the bytes of the surface file a ``--export`` wrote.
    """
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    try:
        text = stdout.decode("utf-8")
    except UnicodeDecodeError:
        return problems + ["stdout is not UTF-8"]
    what, emit = spec["what"], spec["emit"]
    texts = {"json_text": text} if emit == "json" else {"md_text": text}
    if what == "classify":
        return problems + check_classify(spec["k2"], **texts)
    if what == "report":
        return problems + check_report(spec["fixture"], **texts)
    if what == "verify":
        problems += check_verification({"fixture": spec["fixture"], "kind": "exported"}, **texts)
        if "export" in spec:
            if exported is None:
                problems.append("exported surface file missing")
            else:
                _pin(f"surface-{spec['fixture']}.json", exported, problems)
        return problems
    return problems + _check_listing(spec, text)


def _check_listing(spec, text: str) -> list[str]:
    fx, s, emit = spec["fixture"], spec["selfint"], spec["emit"]
    basis = BASIS[fx]
    problems: list[str] = []
    try:
        if emit == "json":
            doc = json.loads(text)
            classes = [tuple(c) for c in doc["classes"]]
            if doc["count"] != len(classes) or doc["basis"] != list(basis):
                problems.append("enumeration JSON count or basis is inconsistent")
        else:
            lines = text.split("\n")
            if lines[-1] != "" or lines[0] != f"count: {len(lines) - 2}":
                problems.append("enumeration count line does not match the listing")
            classes = [parse_class(basis, line) for line in lines[1:-1]]
            if any(render_class(basis, c) != line for c, line in zip(classes, lines[1:])):
                problems.append("a class is rendered non-canonically")
    except (ValueError, KeyError, TypeError) as exc:
        return [f"enumeration output malformed: {exc}"]
    filtered = spec.get("filtered", False)
    _pin(f"enumerate-{fx}-{s}{'-filtered' if filtered else ''}.{emit}", text, problems)
    if not filtered:
        return problems + check_enumerated(fx, s, classes)
    if (fx, s) != ("inoue", -1):
        return problems + ["no expected answer for this filtered listing"]
    if len(classes) != len(INOUE_FILTERED) or set(classes) != INOUE_FILTERED:
        problems.append("filtered inoue (-1)-classes are not the nine expected")
    return problems + class_problems(fx, s, classes)[1]
