"""Bidouble-cover building data and the verification engine for fixtures.

A smooth bidouble cover of a rational surface W is pinned down by three
branch divisors Delta_1, Delta_2, Delta_3 and three classes L_1, L_2, L_3
subject to the congruences

    2 L_i = Delta_{i+1} + Delta_{i+2},
    L_i + Delta_i = L_{i+1} + L_{i+2}      (indices mod 3).

Here each Delta_i is given as a list of named curves on W; its nodal-role
members form the part N_i contracted to nodes downstairs, and the rest is
the honest branch part B_i. ``CoverData`` sums each list into Delta_i,
B_i and the nodal count l_i once, when it is built, and derives missing
roots from those sums; every row and invariant below reads them from
there. All derived invariants of the cover (the polarization
D = 2K_W + B_1 + B_2 + B_3, the adjoint M = K_W + D, squares, Euler
characteristics, character-space dimensions) are exact integers.

Verification never throws on bad data; discrepancies become failing
certificate rows so a mutated input produces a readable diff.
"""

from __future__ import annotations

from collections import Counter

from . import classifier
from ._record import Record
from .certificates import Certificate, CheckRow, check, recorded
from .curves import CurveConfiguration, FiberDecomposition, verify_fiber_decomposition
from .lattice import DivisorClass, format_class, halve


class CoverError(ValueError):
    pass


def permute_basis(cls: DivisorClass, mapping: dict[str, str]) -> DivisorClass:
    """Push a class through a permutation of basis names: the map's values are its keys."""
    lattice = cls.lattice
    names = lattice.basis_names
    for src, dst in mapping.items():
        if src not in names or dst not in names:
            raise CoverError(f"permutation names {src!r} -> {dst!r} not in basis")
    if set(mapping.values()) != set(mapping):
        raise CoverError(f"basis map {mapping!r} is not a permutation of its names")
    new = [0] * lattice.rank
    for i, name in enumerate(names):
        target = mapping.get(name, name)
        new[names.index(target)] = cls.coeffs[i]
    return lattice.divisor(new)


# ---------------------------------------------------------------------------
# cover data
# ---------------------------------------------------------------------------


class CoverData(Record):
    """Branch lists and square-root classes of one bidouble cover.

    ``delta`` is stored as three tuples of curve names, whatever sequences
    it is given as. Building the record sums each list once, from its name
    counts, into three attributes that are not fields: ``deltas`` (the
    classes Delta_i), ``branches`` (B_i, the non-nodal part of each) and
    ``l`` (the number of nodal names in each list, repeats counted). An
    unknown name raises ``ConfigurationError``.

    ``roots`` None derives each L_i as half of Delta_{i+1} + Delta_{i+2}.
    A root may be None when no integral half exists; verification reports
    that as a failing row instead of refusing to build the object, so
    mutated data stays inspectable.
    """

    config: CurveConfiguration
    delta: tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]
    roots: tuple[DivisorClass | None, DivisorClass | None, DivisorClass | None]

    def __post_init__(self) -> None:
        delta = tuple(tuple(names) for names in self.delta)
        if len(delta) != 3 or (self.roots is not None and len(self.roots) != 3):
            raise CoverError("a bidouble cover needs exactly three branch lists and roots")
        lattice = self.config.lattice
        deltas, branches, l = [], [], []
        for names in delta:
            branch, nodal, count_nodal = [0] * lattice.rank, [0] * lattice.rank, 0
            for name, count in Counter(names).items():
                curve = self.config.curve(name)  # raises on unknown names
                if curve.role == "nodal":
                    part = nodal
                    count_nodal += count
                else:
                    part = branch
                for j, c in enumerate(curve.cls.coeffs):
                    part[j] += count * c
            branches.append(lattice.divisor(branch))
            deltas.append(branches[-1] + lattice.divisor(nodal))
            l.append(count_nodal)
        if self.roots is None:
            roots = tuple(halve(deltas[(i + 1) % 3] + deltas[(i + 2) % 3]) for i in range(3))
        else:
            roots = tuple(self.roots)
        for root in roots:
            if root is not None and root.lattice != lattice:
                raise CoverError("root class lives on a different lattice")
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "roots", roots)
        # not fields, so equality and hashing read only the data the sums come from
        object.__setattr__(self, "deltas", tuple(deltas))
        object.__setattr__(self, "branches", tuple(branches))
        object.__setattr__(self, "l", tuple(l))


# ---------------------------------------------------------------------------
# building data verification
# ---------------------------------------------------------------------------


def _congruence_row(row_id: str, description: str, ref: str, left, right) -> CheckRow:
    if left is None or right is None:
        return CheckRow(row_id, description + " (root unavailable)", ref,
                        "unavailable" if left is None else left.coeffs,
                        "unavailable" if right is None else right.coeffs, "fail")
    row = check(row_id, description, ref, left.coeffs, right.coeffs)
    if row.status == "fail":
        residual = right - left
        row = CheckRow(
            row.row_id,
            f"{description} (residual {format_class(residual)})",
            row.ref,
            row.computed,
            row.expected,
            row.status,
        )
    return row


def building_data_rows(cover: CoverData) -> list[CheckRow]:
    rows: list[CheckRow] = []
    counts = Counter(n for names in cover.delta for n in names)
    duplicates = sorted(n for n, count in counts.items() if count > 1)
    rows.append(
        check(
            "building/distinct-names",
            "branch component names are pairwise distinct across the three lists",
            "branch components",
            duplicates,
            [],
        )
    )
    deltas = cover.deltas
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        pair_sum = deltas[j] + deltas[k]
        rows.append(
            check(
                f"building/halvable-{i + 1}",
                f"Delta_{j + 1} + Delta_{k + 1} is divisible by 2 in the lattice",
                "integral square root",
                halve(pair_sum) is not None,
                True,
            )
        )
        root = cover.roots[i]
        doubled = None if root is None else 2 * root
        rows.append(
            _congruence_row(
                f"building/double-{i + 1}",
                f"2 L_{i + 1} = Delta_{j + 1} + Delta_{k + 1}",
                "building data congruence",
                doubled,
                pair_sum,
            )
        )
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        left = None if cover.roots[i] is None else cover.roots[i] + deltas[i]
        if cover.roots[j] is None or cover.roots[k] is None:
            right = None
        else:
            right = cover.roots[j] + cover.roots[k]
        rows.append(
            _congruence_row(
                f"building/mixed-{i + 1}",
                f"L_{i + 1} + Delta_{i + 1} = L_{j + 1} + L_{k + 1}",
                "building data congruence",
                left,
                right,
            )
        )
    if all(r is not None for r in cover.roots):
        total_roots = cover.roots[0] + cover.roots[1] + cover.roots[2]
        rows.append(
            check(
                "building/closure",
                "L_1 + L_2 + L_3 = Delta_1 + Delta_2 + Delta_3",
                "building data congruence",
                total_roots.coeffs,
                (deltas[0] + deltas[1] + deltas[2]).coeffs,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


class CoverInvariants(Record):
    """The seven numbers ``compute_invariants`` measures on W; eight more derive from them.

    Measured: d = D = 2K_W + B_1 + B_2 + B_3, db = (D.B_i), bb = (B_1B_2,
    B_1B_3, B_2B_3), b_sq = (B_i^2), the nodal counts l, k_v_sq = K_V^2 =
    (2K_W + Delta_1 + Delta_2 + Delta_3)^2 and sum_llk = sum L_i(L_i + K_W).
    Derived: m = K_W + D, d_sq = D^2, d_kw = D.K_W, m_sq = M^2, blowdown =
    2(l_1 + l_2 + l_3), k_s_sq = k_v_sq + blowdown, chi_ov = 4 + sum_llk / 2
    and dims = eigenspace_dims(k_s_sq, db), or None where that raises.
    """

    d: DivisorClass
    db: tuple[int, int, int]
    bb: tuple[int, int, int]
    b_sq: tuple[int, int, int]
    l: tuple[int, int, int]
    k_v_sq: int
    sum_llk: int

    @property
    def m(self) -> DivisorClass:
        return self.d.lattice.canonical_class() + self.d

    @property
    def d_sq(self) -> int:
        return self.d.dot(self.d)

    @property
    def d_kw(self) -> int:
        return self.d.dot(self.d.lattice.canonical_class())

    @property
    def m_sq(self) -> int:
        return self.m.dot(self.m)

    @property
    def blowdown(self) -> int:
        return 2 * sum(self.l)

    @property
    def k_s_sq(self) -> int:
        return self.k_v_sq + self.blowdown

    @property
    def chi_ov(self) -> int:
        return 4 + self.sum_llk // 2

    @property
    def dims(self) -> tuple[int, int, int, int] | None:
        try:
            return classifier.eigenspace_dims(self.k_s_sq, self.db)
        except classifier.ClassifierError:
            return None

    def to_json_dict(self) -> dict:
        return {
            "D": list(self.d.coeffs),
            "M": list(self.m.coeffs),
            "D2": self.d_sq,
            "DKW": self.d_kw,
            "M2": self.m_sq,
            "DB": list(self.db),
            "BB": list(self.bb),
            "B2": list(self.b_sq),
            "l": list(self.l),
            "KV2": self.k_v_sq,
            "blowdown": self.blowdown,
            "KS2": self.k_s_sq,
            "sumLLK": self.sum_llk,
            "chiOV": self.chi_ov,
            "dims": None if self.dims is None else list(self.dims),
        }


def compute_invariants(cover: CoverData) -> CoverInvariants:
    """The measured invariants of the cover; ``CoverError`` if a root L_i is None."""
    kw = cover.config.lattice.canonical_class()
    b, deltas = cover.branches, cover.deltas
    d = 2 * kw + b[0] + b[1] + b[2]
    upstairs = 2 * kw + deltas[0] + deltas[1] + deltas[2]
    if None in cover.roots:
        raise CoverError("cover has an underivable root; verify building data first")
    sum_llk = sum(root.dot(root + kw) for root in cover.roots)
    bb = (b[0].dot(b[1]), b[0].dot(b[2]), b[1].dot(b[2]))  # (B1B2, B1B3, B2B3)
    return CoverInvariants(d, tuple(d.dot(bi) for bi in b), bb,  # type: ignore[arg-type]
                           tuple(bi.dot(bi) for bi in b), cover.l,  # type: ignore[arg-type]
                           upstairs.dot(upstairs), sum_llk)


# ---------------------------------------------------------------------------
# fixture-level expectations and the aggregated certificate
# ---------------------------------------------------------------------------


class FixtureExpectations(Record):
    """Expected values for one fixture, compared row by row.

    ``case`` is the fixture's row of the classification table. The k, m,
    l and K^2 rows are checked against it, and the other invariant rows
    but D, dims and the K_V^2 identity against values computed from it.
    The fields below freeze only what the row cannot give: the class of
    D, the character dimensions (deriving them would repeat
    ``compute_invariants``) and the name-keyed tables. ``d_shape`` states
    D = a K_W + C as (a, name of C), so the expected class is computed on
    the lattice of the file being verified, in whatever basis it uses.
    ``swap`` is None or the pair (basis map, rows): the map permutes basis
    names, and each row (src, dst) checks that it sends curve src to dst.
    """

    case: classifier.NumericalCase
    d_shape: tuple[int, str]
    dims: tuple[int, int, int, int]
    table: dict[tuple[str, str], int]
    fibers: tuple[FiberDecomposition, ...]
    d_dot: dict[str, int]
    m_dot: dict[str, int]
    swap: tuple[dict[str, str], tuple[tuple[str, str], ...]] | None


def _invariant_rows(inv: CoverInvariants, expect: FixtureExpectations,
                    config: CurveConfiguration) -> list[CheckRow]:
    ref = "intersection number"
    case = expect.case
    # D.K_W = (D^2 - sum D.B_i) / 2, since D - 2K_W = B_1 + B_2 + B_3 and D^2 = K^2
    dk = (case.k2 - sum(case.k)) // 2
    # D as the fixture states it, a K_W + C, on this configuration's lattice
    a, curve = expect.d_shape
    d_expected = a * config.lattice.canonical_class() + config.cls(curve)
    multiple = {1: "", -1: "-"}.get(a, str(a))
    rows = [
        check("invariant/D",
              f"class of D = 2K_W + B_1 + B_2 + B_3 (equal to {multiple}K_W + {curve})",
              ref, inv.d.coeffs, d_expected.coeffs),
        # D plays the part of K on W: D.B_i = k_i = K.R_i and D^2 = K^2
        check("invariant/D2", "D^2", ref, inv.d_sq, case.k2),
        check("invariant/DKW", "D.K_W", ref, inv.d_kw, dk),
        # M^2 = K_W^2 + 2D.K_W + D^2, and K_W^2 = K_Sigma^2 since resolving the
        # nodes of the base changes no K^2: the classifier's adjoint square
        check("invariant/M2", "M^2 with M = K_W + D", ref, inv.m_sq,
              case.k_sigma_sq + 2 * dk + case.k2),
        check("invariant/DB", "(D.B_1, D.B_2, D.B_3)", ref, inv.db, case.k),
        check("invariant/BB", "(B_1B_2, B_1B_3, B_2B_3)", ref, inv.bb, case.m_reported),
        check("invariant/B2", "(B_1^2, B_2^2, B_3^2)", ref, inv.b_sq,
              classifier.R_SQUARES),
        check("invariant/l", "nodal counts (l_1, l_2, l_3)", "nodal bookkeeping",
              inv.l, case.l),
        # each of the l_1 + l_2 + l_3 nodal curves lifts to two (-1)-curves of V,
        # and contracting those gives the minimal model of K^2 = D^2
        check("invariant/KV2", "K^2 of the smooth cover", ref, inv.k_v_sq,
              case.k2 - 2 * sum(case.l)),
        check("invariant/KV2-identity", "K_V^2 = D^2 - 2(l_1+l_2+l_3)", ref,
              inv.k_v_sq, inv.d_sq - 2 * sum(inv.l)),
        check("invariant/blowdown", "number of contracted (-1)-curves, 2(l_1+l_2+l_3)",
              "nodal bookkeeping", inv.blowdown, 2 * sum(case.l)),
        check("invariant/KS2", "K^2 of the minimal model", ref, inv.k_s_sq, case.k2),
        # p_g = q = 0 on the minimal model, so chi(O_V) = 1 = 4 + (1/2) sum L_i(L_i + K_W)
        check("invariant/sumLLK", "sum of L_i(L_i + K_W)", ref, inv.sum_llk, 2 * (1 - 4)),
        check("invariant/chiOV", "chi(O) of the cover, 4 + (1/2) sum L_i(L_i+K_W)",
              "double cover Euler characteristic", inv.chi_ov, 1),
        check("invariant/dims", "character subspace dimensions (inv, 1, 2, 3)",
              "character dimensions", inv.dims, expect.dims),
    ]
    return rows


def _case_rows(inv: CoverInvariants, case: classifier.NumericalCase) -> list[CheckRow]:
    rows = [
        check("case/k", "fixture (D.B_i) matches the classified k-triple",
              "classification table", inv.db, case.k),
        check("case/m", "fixture (B_1B_2, B_1B_3, B_2B_3) matches the reported m-triple",
              "classification table", inv.bb, case.m_reported),
        check("case/l", "fixture nodal counts match the classified l-triple",
              "classification table", inv.l, case.l),
    ]
    found = next((c for c in classifier.classify(case.k2) if c == case), None)
    if found is not None:
        rows.append(
            check("case/table", "classifier emits exactly this case with matching l and K_Sigma^2",
                  "classification table",
                  (found.k, found.m_reported, found.l, found.k_sigma_sq),
                  (case.k, case.m_reported, case.l, case.k_sigma_sq)),
        )
        rows.append(recorded("case/status", "status of the matching case in the table",
                             "classification table", found.status))
    else:
        rows.append(
            check("case/table", "classifier emits exactly one matching case",
                  "classification table", 0, 1)
        )
    return rows


def _missing_names(config: CurveConfiguration, expect: FixtureExpectations) -> list[str]:
    """Curve and basis names the expectations use that the configuration lacks."""
    curves = {name for pair in expect.table for name in pair}
    for decomposition in expect.fibers:
        curves.add(decomposition.fiber)
        curves.update(name for name, _ in decomposition.components)
    curves.add(expect.d_shape[1])
    curves.update(expect.d_dot, expect.m_dot)
    mapping, pairs = expect.swap or ({}, ())
    curves.update(name for pair in pairs for name in pair)
    basis = {*mapping, *mapping.values()}
    return sorted((curves - set(config.names())) | (basis - set(config.lattice.basis_names)))


def run_verification(
    cover: CoverData,
    expect: FixtureExpectations | None,
    title: str,
) -> Certificate:
    """Aggregate certificate: building data, tables, fibers, invariants, cross-checks."""
    config = cover.config
    rows: list[CheckRow] = list(building_data_rows(cover))

    nodal = config.by_role("nodal")
    for a_i in range(len(nodal)):
        for b_i in range(a_i + 1, len(nodal)):
            a, b = nodal[a_i], nodal[b_i]
            rows.append(
                check(f"disjoint/{a.name}.{b.name}",
                      f"nodal curves {a.name} and {b.name} are disjoint",
                      "nodal disjointness", a.cls.dot(b.cls), 0)
            )

    building_ok = not any(r.status == "fail" for r in rows)
    if not building_ok:
        rows.append(
            recorded("invariant/skipped", "invariant rows skipped: building data failed",
                     "building data congruence", "skipped")
        )
        return Certificate(title=title, rows=tuple(rows))

    inv = compute_invariants(cover)

    for i, bi in enumerate(cover.branches):
        for curve in nodal:
            rows.append(
                check(f"branch-nodal/B{i + 1}.{curve.name}",
                      f"branch part B_{i + 1} avoids the nodal curve {curve.name}",
                      "nodal disjointness", bi.dot(curve.cls), 0)
            )
    for curve in nodal:
        rows.append(
            check(f"polarization-nodal/D.{curve.name}",
                  f"D avoids the nodal curve {curve.name}",
                  "nodal disjointness", inv.d.dot(curve.cls), 0)
        )

    if expect is None:
        rows.append(recorded("invariant/values", "computed invariants of the cover",
                             "intersection number", inv.to_json_dict()))
        return Certificate(title=title, rows=tuple(rows))

    missing = _missing_names(config, expect)
    if missing:
        rows.append(
            check("fixture/names", "every curve and basis name the expectations use exists",
                  "fixture expectations", missing, [])
        )
        return Certificate(title=title, rows=tuple(rows))

    for a, b in sorted(expect.table):
        rows.append(
            check(f"table/{a}.{b}", f"{a}.{b}", "intersection number",
                  config.cls(a).dot(config.cls(b)), expect.table[(a, b)])
        )

    for idx, decomposition in enumerate(expect.fibers, start=1):
        problems = verify_fiber_decomposition(config, decomposition)
        label = " + ".join(
            n if mult == 1 else f"{mult}{n}" for n, mult in decomposition.components
        )
        rows.append(
            check(f"fiber/{decomposition.fiber}/{idx}",
                  f"{label} is a member of |{decomposition.fiber}|",
                  "fiber decomposition",
                  problems if problems else "ok", "ok")
        )

    rows.extend(_invariant_rows(inv, expect, config))

    for name in sorted(expect.d_dot):
        rows.append(
            check(f"pencil/D.{name}", f"D.{name}", "genus-2 pencil input",
                  inv.d.dot(config.cls(name)), expect.d_dot[name])
        )
    for name in sorted(expect.m_dot):
        rows.append(
            check(f"adjoint/M.{name}", f"M.{name}", "intersection number",
                  inv.m.dot(config.cls(name)), expect.m_dot[name])
        )

    rows.extend(_case_rows(inv, expect.case))

    if expect.swap is not None:
        mapping, pairs = expect.swap
        for src, dst in pairs:
            image = permute_basis(config.cls(src), mapping)
            rows.append(
                check(f"swap/{src}",
                      f"the plane involution sends {src} to {dst}",
                      "involution symmetry", image.coeffs, config.cls(dst).coeffs)
            )

    rows.append(recorded("axiom/nef-D", "D is nef and big on the base", "nef divisor input",
                         "imported, not derived"))
    if expect.d_dot:
        rows.append(recorded("axiom/pencil-degree",
                             "every genus-2 pencil member meets D in at least 2",
                             "genus-2 pencil input", "imported, not derived"))

    return Certificate(title=title, rows=tuple(rows))
