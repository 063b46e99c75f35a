"""Enumeration of rational curve classes and named curve configurations.

The enumeration side solves, in exact integers, the pair of equations that
pin down classes of fixed self-intersection and arithmetic genus zero on a
blown-up plane. For a class aL + sum(b_i E_i) with square s and genus 0,
adjunction forces K.C = -2 - s, so

    sum(b_i)   = s + 2 - 3a,
    sum(b_i^2) = a^2 - s.

For each admissible degree a this is a bounded integer program solved by
depth-first search with a Cauchy-Schwarz prune. The degree range itself
comes from the same inequality applied to all n slots at once; it is a
finite interval precisely because K^2 = 9 - n is positive, which is why
lattices with n >= 9 are rejected up front. Degrees ascend and so do each
slot's values, so the walk meets the classes in lexicographic order of
their coefficients, which is the output order: nothing sorts them.

The configuration side is bookkeeping: named classes tagged with a role
(nodal, minus_one, fiber, branch_component, other), with the numerically
checkable roles validated at construction time.
"""

from __future__ import annotations

from math import isqrt

from ._record import Record
from .lattice import DivisorClass, LatticeError, SurfaceLattice, intersect

ROLES = ("nodal", "minus_one", "fiber", "branch_component", "other")


class ConfigurationError(ValueError):
    """Bad curve configuration data (role mismatch, duplicate name, ...)."""


# The self-intersections ``enumerate_classes`` accepts. The class count grows
# steeply on both sides: on the degree-one lattice (n = 8) it is 319,680 at
# either end of this range and 1,123,440 one step past it, all built in memory.
MIN_SELFINT, MAX_SELFINT = -6, 3


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def _degree_range(n: int, s: int) -> range:
    """Exactly the integer degrees a allowed by Cauchy-Schwarz across all n slots.

    (s + 2 - 3a)^2 <= n (a^2 - s) rearranges to a quadratic in a with
    leading coefficient 9 - n > 0, so the solution set is an interval.
    """

    def holds(a: int) -> bool:
        return (s + 2 - 3 * a) ** 2 <= n * (a * a - s)

    # (9-n) a^2 - 6(s+2) a + (s+2)^2 + n s <= 0
    lead = 9 - n
    disc = 4 * n * ((s + 2) ** 2 - lead * s)
    if disc < 0:
        return range(0)
    root = isqrt(disc)
    # the real ends are (6(s+2) -+ sqrt(disc)) / (2 lead); isqrt truncates
    # by less than one, so each integer end is this candidate or the next
    # one outward, and the inequality itself decides which
    lo = _ceil_div(6 * (s + 2) - root, 2 * lead)
    hi = (6 * (s + 2) + root) // (2 * lead)
    if holds(lo - 1):
        lo -= 1
    if holds(hi + 1):
        hi += 1
    return range(lo, hi + 1)


def _solve_sum_square(n: int, target_sum: int, target_sq: int) -> list[tuple[int, ...]]:
    """All b in Z^n with sum(b)=target_sum and sum(b^2)=target_sq, in lexicographic order.

    One depth-first walk, each slot ascending. A slot is entered only when
    Cauchy-Schwarz holds for the slots left, remaining_sum^2 <= slots *
    remaining_sq, and the last slot is the remaining sum, kept when its
    square is the remaining square.
    """
    out: list[tuple[int, ...]] = []
    prefix: list[int] = []

    def descend(slots: int, remaining_sum: int, remaining_sq: int) -> None:
        if slots == 1:
            if remaining_sum * remaining_sum == remaining_sq:
                out.append((*prefix, remaining_sum))
            return
        bound = isqrt(remaining_sq)
        for b in range(-bound, bound + 1):
            rs = remaining_sum - b
            rq = remaining_sq - b * b
            if rs * rs <= (slots - 1) * rq:
                prefix.append(b)
                descend(slots - 1, rs, rq)
                prefix.pop()

    if n == 0:  # the plane itself: only the empty b, and only for zero targets
        return [()] if target_sum == target_sq == 0 else []
    if target_sum * target_sum <= n * target_sq:
        descend(n, target_sum, target_sq)
    return out


def enumerate_classes(lattice: SurfaceLattice, self_sq: int) -> list[DivisorClass]:
    """All genus-zero classes of the given self-intersection, in coefficient order.

    The order is lexicographic in the full coefficient tuple (degree
    first), the order the walk finds them in, so it is reproducible across
    runs and platforms without a sort. The list is finite only on lattices
    with K^2 > 0; larger lattices raise, and so does a self-intersection
    that is not an exact int or lies outside ``MIN_SELFINT..MAX_SELFINT``.
    """
    n = lattice.n
    if n >= 9:
        raise LatticeError(
            "class enumeration needs K^2 = 9 - n > 0; "
            f"lattice {lattice.label!r} has n = {n}"
        )
    if type(self_sq) is not int:  # True would run as s = 1, and 1.0 fail inside range()
        raise LatticeError(f"a self-intersection must be an exact int, not {type(self_sq).__name__}")
    if not MIN_SELFINT <= self_sq <= MAX_SELFINT:
        raise LatticeError(
            f"self-intersection {self_sq} is outside the supported range "
            f"{MIN_SELFINT}..{MAX_SELFINT}"
        )
    found: list[DivisorClass] = []
    for a in _degree_range(n, self_sq):
        target_sum = self_sq + 2 - 3 * a
        target_sq = a * a - self_sq
        for b in _solve_sum_square(n, target_sum, target_sq):
            found.append(lattice.divisor((a,) + b))
    return found


# ---------------------------------------------------------------------------
# configurations
# ---------------------------------------------------------------------------


class NamedCurve(Record):
    name: str
    cls: DivisorClass
    role: str


class CurveConfiguration(Record):
    """A fixed set of named curves on one lattice.

    Roles with a numerical meaning are validated eagerly: a nodal curve
    must have square -2 and K.C = 0, a minus_one curve square -1 and
    K.C = -1. The other roles are structural tags.
    """

    lattice: SurfaceLattice
    curves: tuple[NamedCurve, ...]

    def __post_init__(self) -> None:
        index: dict[str, NamedCurve] = {}
        k = self.lattice.canonical_class()
        for curve in self.curves:
            if curve.name in index:
                raise ConfigurationError(f"duplicate curve name {curve.name!r}")
            if curve.role not in ROLES:
                raise ConfigurationError(f"unknown role {curve.role!r} for {curve.name!r}")
            if curve.cls.lattice != self.lattice:
                raise ConfigurationError(f"curve {curve.name!r} lives on a different lattice")
            sq = curve.cls.dot(curve.cls)
            kc = k.dot(curve.cls)
            if curve.role == "nodal" and (sq, kc) != (-2, 0):
                raise ConfigurationError(
                    f"nodal curve {curve.name!r} has (C^2, K.C) = ({sq}, {kc}), wanted (-2, 0)"
                )
            if curve.role == "minus_one" and (sq, kc) != (-1, -1):
                raise ConfigurationError(
                    f"minus_one curve {curve.name!r} has (C^2, K.C) = ({sq}, {kc}), wanted (-1, -1)"
                )
            index[curve.name] = curve
        object.__setattr__(self, "_index", index)  # a lookup table, not a field

    def curve(self, name: str) -> NamedCurve:
        try:
            return self._index[name]
        except KeyError:
            raise ConfigurationError(f"no curve named {name!r}") from None

    def cls(self, name: str) -> DivisorClass:
        return self.curve(name).cls

    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.curves)

    def by_role(self, role: str) -> tuple[NamedCurve, ...]:
        if role not in ROLES:
            raise ConfigurationError(f"unknown role {role!r}")
        return tuple(c for c in self.curves if c.role == role)


def filter_effective_against_nodal(
    candidates: list[DivisorClass], config: CurveConfiguration
) -> list[DivisorClass]:
    """Drop candidates meeting some nodal curve negatively.

    An irreducible curve other than a nodal curve N itself satisfies
    C.N >= 0, so a class failing this for some N cannot be such a curve.
    Comparisons where the candidate IS the nodal class are skipped, which
    keeps the nodal curves in the output and makes the filter idempotent.
    Input order is preserved. Each distinct nodal class is tested once,
    however many names the configuration gives it.
    """
    nodal = list({c.cls.coeffs: c.cls for c in config.by_role("nodal")}.values())
    kept = []
    for cand in candidates:
        ok = True
        for ncls in nodal:
            if cand.coeffs == ncls.coeffs:
                continue
            if intersect(cand, ncls) < 0:
                ok = False
                break
        if ok:
            kept.append(cand)
    return kept


# ---------------------------------------------------------------------------
# fiber checks
# ---------------------------------------------------------------------------


class FiberDecomposition(Record):
    """One reducible member of a fiber class, as (component name, multiplicity)."""

    fiber: str
    components: tuple[tuple[str, int], ...]


def verify_fiber_decomposition(
    config: CurveConfiguration, decomposition: FiberDecomposition
) -> list[str]:
    """Check one fiber decomposition; returns human messages for failures.

    Checked: the fiber class has square zero, every multiplicity is
    positive, the weighted component sum equals the fiber class, and each
    component is orthogonal to the fiber (components of a fiber never meet
    a general member).
    """
    problems: list[str] = []
    fiber = config.cls(decomposition.fiber)
    if fiber.dot(fiber) != 0:
        problems.append(f"fiber {decomposition.fiber!r} has square {fiber.dot(fiber)}, not 0")
    total = config.lattice.zero()
    for name, mult in decomposition.components:
        if mult < 1:
            problems.append(f"component {name!r} has nonpositive multiplicity {mult}")
        cls = config.cls(name)
        total = total + mult * cls
        pairing = intersect(fiber, cls)
        if pairing != 0:
            problems.append(f"component {name!r} meets the fiber class in {pairing}, not 0")
    if total.coeffs != fiber.coeffs:
        problems.append(
            f"components of {decomposition.fiber!r} sum to {total}, expected {fiber}"
        )
    return problems
