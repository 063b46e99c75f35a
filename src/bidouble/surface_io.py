"""Reading and writing surface descriptions as JSON documents.

The document format mirrors the in-memory objects: a lattice (ordered
basis names, first of square +1 and the rest of square -1), named curve
classes with roles, and an optional cover block with the three branch
lists and, optionally, the three root classes. When the roots are
omitted they are derived by halving the complementary branch sums; an
absent integral half is left as a gap for the verifier to report.

Anything structurally wrong with a document (unknown curve names, a
label, basis or curve name holding ``|``, a control character or a line
break, bad roles, wrong vector lengths, a non-Lorentzian signature) raises
``SurfaceFileError``: a file must parse to valid objects before any
verification starts, and the command line maps these errors to the
input-error exit code rather than a failed check.
"""

from __future__ import annotations

import json

from ._record import Record
from .certificates import canonical_json
from .covers import CoverData
from .curves import ConfigurationError, CurveConfiguration, NamedCurve
from .lattice import LatticeError, SurfaceLattice

_TOP_KEYS = {"label", "basis", "signature", "curves", "cover"}
_CURVE_KEYS = {"name", "class", "role"}
_COVER_KEYS = {"delta", "roots"}

# Largest absolute value of a class or root coefficient a file may carry.
# Every number a certificate prints is a polynomial of low degree in the
# coefficients (pairings are quadratic), so this bound keeps them all far
# below the 4300-digit limit of Python's int-to-string conversion, which a
# coefficient that is itself legal JSON could otherwise exceed.
MAX_COEFFICIENT = 10**100

# Most basis names (L included) and curves a file may hold. Verification pairs
# every two nodal curves, each pairing one pass over the basis, and prints a
# row per pair, so its time grows with curves^2 x basis names: 800 nodal
# curves took 39 s and 245 MB. The worst case at both caps, 128 nodal curves
# of 64 coefficients near 10**100 each, took 0.32-0.41 s for `verify --file`
# (0.35-0.58 s with `--emit json`) and 27-31 MB peak RSS: best of 5 whole
# processes, Python 3.11.7 on a 2-vCPU VM. `enumerate --filtered` pairs each
# class with each distinct nodal class: 128 copies of one nodal class on the
# degree-one lattice took 0.22-0.33 s at self-intersection 1, as the six of
# the dp1 fixture do (0.22-0.30 s); pairing every copy took 2.1-2.3 s.
MAX_BASIS_NAMES = 64
MAX_CURVES = 128


# Names are printed in markdown table cells and one per line, so none may
# hold the cell separator, a control character or a line break: the C0
# controls and DEL, and U+0085, U+2028 and U+2029, which complete the set
# that str.splitlines() splits on.
_NOT_IN_NAMES = frozenset("|\x7f\x85\u2028\u2029" + "".join(map(chr, range(32))))


class SurfaceFileError(ValueError):
    pass


def _check_name(name: str, what: str) -> None:
    if not _NOT_IN_NAMES.isdisjoint(name):
        raise SurfaceFileError(f"{what} {name!r} holds '|', a control character or a line break")


class SurfaceFile(Record):
    """A labelled curve configuration and, optionally, one cover of it.

    A cover of another configuration raises ``SurfaceFileError``: its
    branch lists and roots would be written beside curves they do not name.
    """

    label: str
    config: CurveConfiguration
    cover: CoverData | None

    def __post_init__(self) -> None:
        if self.cover is not None and self.cover.config != self.config:
            raise SurfaceFileError(f"the cover of surface {self.label!r} is a cover of "
                                   "another curve configuration")


def _int_vector(value, rank: int, what: str) -> tuple[int, ...]:
    if not isinstance(value, list) or len(value) != rank:
        raise SurfaceFileError(f"{what} must be a list of {rank} integers")
    out = []
    for entry in value:
        if isinstance(entry, bool) or not isinstance(entry, int):
            raise SurfaceFileError(f"{what} must contain integers only, got {entry!r}")
        if abs(entry) > MAX_COEFFICIENT:
            raise SurfaceFileError(f"{what} has a coefficient above 10**100 in absolute value")
        out.append(entry)
    return tuple(out)


def surface_from_dict(data) -> SurfaceFile:
    if not isinstance(data, dict):
        raise SurfaceFileError("surface document must be an object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise SurfaceFileError(f"unknown top-level keys: {sorted(unknown)}")
    label = data.get("label")
    if not isinstance(label, str) or not label:
        raise SurfaceFileError("'label' must be a non-empty string")
    _check_name(label, "label")
    basis = data.get("basis")
    if (
        not isinstance(basis, list)
        or not basis
        or any(not isinstance(b, str) for b in basis)
    ):
        raise SurfaceFileError("'basis' must be a non-empty list of names")
    if len(basis) > MAX_BASIS_NAMES:
        raise SurfaceFileError(f"'basis' has {len(basis)} names; a file may hold at most "
                               f"{MAX_BASIS_NAMES}")
    if basis[0] != "L":
        raise SurfaceFileError("the first basis name must be 'L' (the +1 vector)")
    for b in basis:
        _check_name(b, "basis name")
    rank = len(basis)
    signature = data.get("signature")
    if signature is not None and signature != [1] + [-1] * (rank - 1):
        raise SurfaceFileError("only the signature (+1, -1, ..., -1) is supported")
    try:
        lattice = SurfaceLattice(label, tuple(basis[1:]))
    except LatticeError as exc:
        raise SurfaceFileError(str(exc)) from exc

    curves_data = data.get("curves", [])
    if not isinstance(curves_data, list):
        raise SurfaceFileError("'curves' must be a list")
    if len(curves_data) > MAX_CURVES:
        raise SurfaceFileError(f"'curves' has {len(curves_data)} entries; a file may hold at "
                               f"most {MAX_CURVES}")
    named = []
    for entry in curves_data:
        if not isinstance(entry, dict) or set(entry) - _CURVE_KEYS:
            raise SurfaceFileError(f"bad curve entry: {entry!r}")
        name = entry.get("name")
        role = entry.get("role")
        if not isinstance(name, str) or not name:
            raise SurfaceFileError("curve entries need a non-empty 'name'")
        _check_name(name, "curve name")
        coeffs = _int_vector(entry.get("class"), rank, f"class of curve {name!r}")
        named.append(NamedCurve(name, lattice.divisor(coeffs), role))
    try:
        config = CurveConfiguration(lattice, tuple(named))
    except ConfigurationError as exc:
        raise SurfaceFileError(str(exc)) from exc

    cover = None
    cover_data = data.get("cover")
    if cover_data is not None:
        if not isinstance(cover_data, dict) or set(cover_data) - _COVER_KEYS:
            raise SurfaceFileError("'cover' must be an object with 'delta' and optional 'roots'")
        delta = cover_data.get("delta")
        if (
            not isinstance(delta, list)
            or len(delta) != 3
            or any(
                not isinstance(part, list) or any(not isinstance(n, str) for n in part)
                for part in delta
            )
        ):
            raise SurfaceFileError("'cover.delta' must be three lists of curve names")
        roots_data = cover_data.get("roots")
        roots = None  # derived by CoverData
        if roots_data is not None:
            if not isinstance(roots_data, list) or len(roots_data) != 3:
                raise SurfaceFileError("'cover.roots' must be three coefficient vectors")
            roots = tuple(
                None
                if v is None
                else lattice.divisor(_int_vector(v, rank, f"root {i + 1}"))
                for i, v in enumerate(roots_data)
            )
        try:
            cover = CoverData(config, delta, roots)
        except ValueError as exc:
            raise SurfaceFileError(str(exc)) from exc
    return SurfaceFile(label=label, config=config, cover=cover)


def surface_to_dict(surface: SurfaceFile) -> dict:
    lattice = surface.config.lattice
    doc: dict = {
        "label": surface.label,
        "basis": list(lattice.basis_names),
        "signature": [1] + [-1] * lattice.n,
        "curves": [
            {"name": c.name, "class": list(c.cls.coeffs), "role": c.role}
            for c in surface.config.curves
        ],
    }
    if surface.cover is not None:
        roots = [
            None if r is None else list(r.coeffs) for r in surface.cover.roots
        ]
        doc["cover"] = {
            "delta": [list(part) for part in surface.cover.delta],
            "roots": roots,
        }
    return doc


def load_surface(path: str) -> SurfaceFile:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SurfaceFileError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer over the digit limit
        raise SurfaceFileError(f"invalid JSON in {path}: {exc}") from exc
    except RecursionError as exc:
        raise SurfaceFileError(f"invalid JSON in {path}: nested too deeply") from exc
    return surface_from_dict(data)


def save_surface(surface: SurfaceFile, path: str) -> None:
    text = canonical_json(surface_to_dict(surface))
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise SurfaceFileError(f"cannot write {path}: {exc}") from exc
