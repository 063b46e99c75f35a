"""Exact intersection arithmetic on the Picard lattice of a blown-up plane.

Everything here is plain integer arithmetic. A lattice is determined by an
ordered list of exceptional-curve names; the basis is (L, E_1, ..., E_n)
with L the pullback of a line. The intersection form is diagonal with
signature (+1, -1, ..., -1), so every pairing is a difference of products
of Python ints and nothing ever rounds.

Classes are coefficient vectors over a fixed lattice. Mixing classes from
two different lattices is a programming error and raises ``LatticeError``
rather than silently zipping coefficient vectors of different meanings.
"""

from __future__ import annotations

from math import isqrt

from ._record import Record

_INT_ONLY = frozenset((int,))


class LatticeError(ValueError):
    """Domain error: malformed lattice data or mixed-lattice arithmetic."""


# ---------------------------------------------------------------------------
# lattice and divisor classes
# ---------------------------------------------------------------------------


class SurfaceLattice(Record):
    """Picard lattice of the plane blown up in finitely many points.

    ``exceptional_names`` fixes both the rank and the printing/serialization
    order of the basis. Names must be distinct and must not clash with the
    reserved degree symbol ``L``.
    """

    label: str
    exceptional_names: tuple[str, ...]

    def __post_init__(self) -> None:
        names = tuple(self.exceptional_names)
        object.__setattr__(self, "exceptional_names", names)
        if len(set(names)) != len(names):
            raise LatticeError(f"duplicate exceptional names in lattice {self.label!r}")
        if "L" in names:
            raise LatticeError("'L' is reserved for the line class")
        for name in names:
            if not name or not isinstance(name, str):
                raise LatticeError(f"bad exceptional name {name!r}")

    @property
    def n(self) -> int:
        """Number of exceptional basis vectors (points blown up)."""
        return len(self.exceptional_names)

    @property
    def rank(self) -> int:
        return self.n + 1

    @property
    def basis_names(self) -> tuple[str, ...]:
        return ("L",) + self.exceptional_names

    def k_squared(self) -> int:
        return 9 - self.n

    # -- class constructors -------------------------------------------------

    def divisor(self, coeffs: list[int] | tuple[int, ...]) -> DivisorClass:
        """Class with the given coefficient vector (degree first) of exact ints.

        A float, str, bool or any other non-``int`` entry raises
        ``LatticeError`` (from ``DivisorClass``) instead of being rounded or
        converted.
        """
        return DivisorClass(self, tuple(coeffs))

    def zero(self) -> DivisorClass:
        return DivisorClass(self, (0,) * self.rank)

    def line(self) -> DivisorClass:
        return DivisorClass(self, (1,) + (0,) * self.n)

    def exceptional(self, name: str) -> DivisorClass:
        try:
            i = self.exceptional_names.index(name)
        except ValueError:
            raise LatticeError(f"no exceptional curve named {name!r} in {self.label!r}") from None
        vec = [0] * self.rank
        vec[i + 1] = 1
        return DivisorClass(self, tuple(vec))

    def canonical_class(self) -> DivisorClass:
        """-3L + sum of all exceptional classes (total-transform basis)."""
        return DivisorClass(self, (-3,) + (1,) * self.n)


class DivisorClass(Record):
    """A class on ``lattice``: ``coeffs`` is a tuple of ``rank`` exact ints, degree first.

    Anything else raises ``LatticeError``: a list, a vector of another
    length (which would pair through a truncated ``zip``), or a float, bool
    or other non-``int`` entry (which would pair to a float).
    """

    lattice: SurfaceLattice
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        vec, lattice = self.coeffs, self.lattice
        if type(vec) is not tuple:
            raise LatticeError(f"coefficients for lattice {lattice.label!r} must be a tuple, "
                               f"not {type(vec).__name__}")
        if len(vec) != lattice.rank:
            raise LatticeError(
                f"expected {lattice.rank} coefficients for lattice {lattice.label!r}, got {len(vec)}"
            )
        if not _INT_ONLY.issuperset(map(type, vec)):
            bad = next(c for c in vec if type(c) is not int)
            raise LatticeError(f"coefficient {bad!r} for lattice {lattice.label!r} is not an int")

    @property
    def degree(self) -> int:
        return self.coeffs[0]

    def coefficient(self, name: str) -> int:
        if name == "L":
            return self.coeffs[0]
        try:
            i = self.lattice.exceptional_names.index(name)
        except ValueError:
            raise LatticeError(f"no basis vector named {name!r}") from None
        return self.coeffs[i + 1]

    # -- ring-ish operations -------------------------------------------------

    def _check_same(self, other: DivisorClass) -> None:
        if self.lattice is not other.lattice and self.lattice != other.lattice:
            raise LatticeError(
                f"classes live on different lattices: {self.lattice.label!r} vs {other.lattice.label!r}"
            )

    def __add__(self, other: DivisorClass) -> DivisorClass:
        self._check_same(other)
        return DivisorClass(self.lattice, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: DivisorClass) -> DivisorClass:
        self._check_same(other)
        return DivisorClass(self.lattice, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> DivisorClass:
        return DivisorClass(self.lattice, tuple(-a for a in self.coeffs))

    def __mul__(self, scalar: int) -> DivisorClass:
        if type(scalar) is not int:  # an exact int: a bool is no scalar
            return NotImplemented
        return DivisorClass(self.lattice, tuple(scalar * a for a in self.coeffs))

    __rmul__ = __mul__

    def dot(self, other: DivisorClass) -> int:
        self._check_same(other)
        head = self.coeffs[0] * other.coeffs[0]
        tail = sum(a * b for a, b in zip(self.coeffs[1:], other.coeffs[1:]))
        return head - tail

    def __str__(self) -> str:
        return format_class(self)


def format_class(a: DivisorClass) -> str:
    """Render a class as e.g. ``5L - E1 - 2E2 - 2E3``, deterministically."""
    parts: list[str] = []
    for name, c in zip(a.lattice.basis_names, a.coeffs):
        if c == 0:
            continue
        mag = abs(c)
        term = name if mag == 1 else f"{mag}{name}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# numerical operators
# ---------------------------------------------------------------------------


def intersect(a: DivisorClass, b: DivisorClass) -> int:
    """Intersection number of two classes (exact)."""
    return a.dot(b)


def arithmetic_genus(a: DivisorClass) -> int:
    """Genus from the adjunction formula, p = 1 + (a.a + K.a)/2.

    The sum a.a + K.a is even for every integral class on these lattices,
    so the division is exact; we assert rather than round.
    """
    k = a.lattice.canonical_class()
    total = a.dot(a) + k.dot(a)
    assert total % 2 == 0, "adjunction parity violated; lattice data corrupt"
    return 1 + total // 2


def riemann_roch_chi(a: DivisorClass) -> int:
    """Euler characteristic chi(O(a)) = 1 + (a.a - K.a)/2 on a rational surface."""
    k = a.lattice.canonical_class()
    total = a.dot(a) - k.dot(a)
    assert total % 2 == 0
    return 1 + total // 2


def index_bound_holds(d_sq: int, dc: int, c_sq: int) -> bool:
    """Signature-(1,n) bound: if D.D > 0 then C.C * D.D <= (D.C)^2.

    Exact integer cross-multiplication, no division. ``d_sq`` must be
    positive; calling this with a non-positive d_sq is a domain error
    because the inequality carries no information there.
    """
    if d_sq <= 0:
        raise LatticeError("index bound needs a class of positive self-intersection")
    return c_sq * d_sq <= dc * dc


def is_perfect_square(x: int) -> bool:
    if x < 0:
        return False
    r = isqrt(x)
    return r * r == x


def halve(a: DivisorClass) -> DivisorClass | None:
    """The class a/2 when it is integral, else None.

    Indivisibility is an expected outcome (it is how candidate square roots
    get rejected), so this is a soft None and not an exception.
    """
    if any(c % 2 for c in a.coeffs):
        return None
    return DivisorClass(a.lattice, tuple(c // 2 for c in a.coeffs))
