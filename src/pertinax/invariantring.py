"""The invariant subalgebra: bases, generators, cofinality and normality.

The fixed space in each degree is the image of the Reynolds operator
(1/|G|) sum_g g, exact because |G| is invertible in characteristic 0;
generators are extracted greedily by degree, modulo the products of the
generators already chosen with lower degree invariants.  Cofinality
certificates compare the power filtrations of the radical and of the
invariant part a of the radical inside the ambient algebra, degree-wise up
to the truncation bound.  The ideals a R, R a and a^s R are the one-sided
closures of the rows of a and a^s (``GradedIdealTable.closure``).  The
products behind the powers are closures too (``GradedIdealTable.product``):
r^n r closes over left multiplication by the letters, and a^s a over left
multiplication by the invariant generators, since a is an ideal of the
invariant ring but not of R.  Each product checks its closure from the
tables before it relies on it.  Normality compares the one-sided closures
of a single element.
"""

from __future__ import annotations

from fractions import Fraction

from . import kernel, linalg
from .action import FiniteGroup
from .errors import TruncationExceeded
from .galgebra import AlgElement, GradedAlgebra
from .skewgroup import (
    GradedIdealTable,
    intersect_with_invariants,
    oracle_radical,
    vec_product,
)


class InvariantRing:
    """Per-degree bases of the fixed subalgebra and a minimal generator list."""

    __slots__ = ("algebra", "group", "D", "rows", "generators")

    def __init__(self, algebra, group, D, rows, generators):
        self.algebra = algebra
        self.group = group
        self.D = D
        self.rows = rows
        self.generators = generators  # list of (AlgElement, degree)

    def dim(self, d: int) -> int:
        return len(self.rows[d])

    def dims(self) -> list[int]:
        return [len(rs) for rs in self.rows]

    def basis_elements(self, d: int):
        return [self.algebra.vector_to_element(d, row) for _, row in self.rows[d]]

    def contains(self, elem: AlgElement) -> bool:
        R = self.algebra
        for d, part in elem.homogeneous_parts().items():
            if d > self.D:
                raise TruncationExceeded("membership beyond the invariant table")
            if not linalg.in_span(R.field, R.coords(part, d), self.rows[d]):
                return False
        return True

    def __repr__(self):
        return "InvariantRing(dims=%s)" % (self.dims(),)


def invariants_basis(R: GradedAlgebra, G: FiniteGroup, D: int | None = None) -> InvariantRing:
    """Fixed spaces per degree plus a generator list minimal up to D.

    The fixed space A_d is the canonical echelon form of the h_d vectors
    sum_g g.w, w over the degree d basis words.  They span it: the Reynolds
    operator rho = (1/|G|) sum_g g maps R_d into A_d and is the identity on
    A_d, so A_d = rho(R_d), and the vectors are |G| rho(w), a nonzero
    multiple since the characteristic is 0.

    The generators of degree d are the rows of A_d kept modulo (A_+^2)_d,
    where A is the invariant subalgebra.  That span is built as

        (A_+^2)_d = sum_g g A_{d - deg g},

    with g over the generators already chosen, all of degree < d.  It is
    exact: the generators of degree < d generate every A_i with i < d, so
    each element of A_i (i >= 1) is a sum of products whose leftmost factor
    is a generator g, i.e. A_i = sum_g g A_{i - deg g}.  Hence A_i A_{d-i}
    lies in sum_g g A_{d - deg g}, and conversely g A_{d - deg g} lies in
    A_{deg g} A_{d - deg g} with both degrees at least 1.  This takes
    sum_g dim A_{d - deg g} products instead of sum_i dim A_i dim A_{d-i}.
    """
    if D is None:
        D = R.D
    if D > R.D:
        raise TruncationExceeded("invariants beyond the algebra truncation")
    field = R.field
    one = field.one.raw
    rows = []
    for d in range(D + 1):
        # the Reynolds image: sum_g g.w over the degree d basis words w
        gcols = [g.matrix_on_degree(d) for g in G.elements[1:]]
        sums = []
        for c in range(R.dim(d)):
            row = {c: one}  # the identity's term
            for cols in gcols:
                kernel.dict_axpy(row, one, cols[c], field.red)
            sums.append(row)
        rows.append(linalg.rref(field, sums))
    rows = tuple(tuple(rs) for rs in rows)

    generators = []
    chosen = []  # (degree, coordinates) of each generator
    for d in range(1, D + 1):
        if not rows[d]:
            continue
        # (A_+^2)_d = sum_g g A_{d - deg g} over the generators chosen so far
        prod_vecs = [
            vec_product(R, dg, d - dg, cg, v) for dg, cg in chosen for _, v in rows[d - dg]
        ]
        span = linalg.rref(field, prod_vecs)
        for _, row in rows[d]:
            residue = linalg.reduce_vec(field, row, span)
            if residue:
                generators.append((R.vector_to_element(d, residue), d))
                chosen.append((d, residue))
                span = linalg.rref(field, [dict(r) for _, r in span] + [dict(residue)])
    return InvariantRing(R, G, D, rows, generators)


def trace_average_dims(R: GradedAlgebra, G: FiniteGroup, D: int | None = None) -> list[int]:
    """Character-theoretic dimension count: average of traces on each degree.

    Independent of the kernel computation in invariants_basis; the two must
    agree for any linear action with stable graded components.
    """
    if D is None:
        D = R.D
    field = R.field
    out = []
    for d in range(D + 1):
        h = R.dim(d)
        total = field.scalar(h)  # identity contributes its full trace
        for gi in range(1, G.order):
            cols = G.elements[gi].matrix_on_degree(d)
            tr = field.zero
            for j in range(h):
                raw = cols[j].get(j)
                if raw is not None:
                    tr = tr + field.from_raw(raw)
            total = total + tr
        avg = total * Fraction(1, G.order)
        frac = avg.as_fraction()
        if frac.denominator != 1 or frac < 0:
            raise ArithmeticError("trace average %s is not a nonnegative integer" % frac)
        out.append(int(frac))
    return out


def invariant_radical_table(
    R: GradedAlgebra,
    G: FiniteGroup,
    D: int | None = None,
    radical: GradedIdealTable | None = None,
    inv: InvariantRing | None = None,
) -> GradedIdealTable:
    """The invariant part of the radical, as subspaces of the ambient algebra."""
    if radical is None:
        radical = oracle_radical(R, G, D)
    if inv is None:
        inv = invariants_basis(R, G, radical.D)
    return intersect_with_invariants(radical, inv.rows)


class CofinalityCertificate:
    """Truncated interleaving data for the radical and invariant-radical filtrations."""

    __slots__ = ("D", "s_max", "n_cap", "aR_eq_Ra", "entries", "invariant_radical")

    def __init__(self, D, s_max, n_cap, aR_eq_Ra, entries, invariant_radical):
        self.D = D
        self.s_max = s_max
        self.n_cap = n_cap
        self.aR_eq_Ra = aR_eq_Ra
        self.entries = entries  # list of dicts {s, n, vacuous}
        self.invariant_radical = invariant_radical  # the table of a

    def as_json(self):
        return {
            "aR_eq_Ra": self.aR_eq_Ra,
            "s_max": self.s_max,
            "n_cap": self.n_cap,
            "checked_upto": self.D,
            "table": self.entries,
        }

    def __repr__(self):
        return "CofinalityCertificate(aR=Ra: %s, %s)" % (self.aR_eq_Ra, self.entries)


def cofinality_check(
    R: GradedAlgebra,
    G: FiniteGroup,
    D: int | None = None,
    s_max: int = 3,
    n_cap: int = 8,
    radical: GradedIdealTable | None = None,
    inv: InvariantRing | None = None,
) -> CofinalityCertificate:
    """For each s <= s_max, the least n with radical^n inside (a^s R) up to D.

    Also reports whether aR = Ra holds degree-wise, where a is the invariant
    part of the radical, and returns the table of a on the certificate.
    Containments are exact statements about the graded components of
    degree <= D.  aR, Ra and a^s R are the right, left and right ideals of
    R that the rows of a and a^s generate: their one-sided closures under
    the letters.  Each power a^{s+1} = a^s a closes over the invariant
    generators: a is an ideal of the invariant ring A, so A a^s lies in
    a^s, and ``GradedIdealTable.product`` checks this closure from the
    tables before it relies on it.
    """
    if radical is None:
        radical = oracle_radical(R, G, D)
    D = radical.D
    if inv is None:
        inv = invariants_basis(R, G, D)
    aa = invariant_radical_table(R, G, D, radical=radical, inv=inv)
    inv_gens = [(d, R.coords(g, d)) for g, d in inv.generators]
    aR = aa.closure(False, True)
    Ra = aa.closure(True, False)
    a_eq = aR.rows == Ra.rows

    entries = []
    rad_powers = {1: radical}
    a_power = aa
    start = 1
    for s in range(1, s_max + 1):
        asR = aR if s == 1 else a_power.closure(False, True)
        n_found = None
        vacuous = False
        n = start
        while n <= n_cap:
            if n not in rad_powers:
                rad_powers[n] = rad_powers[n - 1].product(radical)
            rn = rad_powers[n]
            if asR.contains_table(rn):
                n_found = n
                vacuous = rn.is_zero()
                break
            n += 1
        entries.append({"s": s, "n": n_found, "vacuous": vacuous})
        if n_found is not None:
            start = n_found
        if s < s_max:
            a_power = a_power.product(aa, multipliers=inv_gens)
    return CofinalityCertificate(D, s_max, n_cap, a_eq, entries, aa)


def normality_check(
    elements,
    R: GradedAlgebra,
    D: int | None = None,
    inv: InvariantRing | None = None,
):
    """Per element: is aR_d = R_d a for all d, and the same inside the invariants.

    An element is normal precisely when its left and right multiples agree
    as subspaces in every degree; in_A is None for elements outside the
    invariant subalgebra.

    For in_R, aR and Ra are the closures of {a} under right and under left
    letter multiplication (``GradedIdealTable.closure``): since
    R_d = sum_x R_{d - deg x} x, the degree da + d part of aR is
    sum_x (aR)_{da + d - deg x} x (plus a itself at d = 0), and mirrored
    for Ra.  Their canonical rows are compared.  For
    in_A, a is multiplied by every invariant basis row, since A is not
    generated by letters.
    """
    if D is None:
        D = R.D
    field = R.field
    out = []
    for a in elements:
        if not a.is_homogeneous():
            raise ValueError("normality test needs homogeneous elements")
        da = a.degree()
        if da is None:
            out.append({"element": a, "in_R": True, "in_A": True})
            continue
        span = GradedIdealTable.from_elements(R, D, [a])
        in_R = span.closure(False, True) == span.closure(True, False)
        ca = R.coords(a, da)
        in_A = None
        if inv is not None and inv.contains(a):
            in_A = True
            for d in range(0, D - da + 1):
                left_rows, right_rows = [], []
                for _, v in inv.rows[d]:
                    left_rows.append(vec_product(R, da, d, ca, v))
                    right_rows.append(vec_product(R, d, da, v, ca))
                if linalg.rref(field, left_rows) != linalg.rref(field, right_rows):
                    in_A = False
                    break
        out.append({"element": a, "in_R": in_R, "in_A": in_A})
    return out
