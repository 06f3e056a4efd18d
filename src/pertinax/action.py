"""Finite groups of degree-preserving linear automorphisms.

A LinearAuto is given by a matrix on the degree one generators (column j
holds the coordinates of the image of the j-th generator); it extends
multiplicatively to the whole algebra.  Construction verifies exactly that
the matrix is invertible and maps every defining relation to zero, which
for graded presentations is a complete automorphism check.
"""

from __future__ import annotations

from fractions import Fraction

from . import kernel, linalg
from .errors import (
    ConductorTooSmall,
    NotAnAutomorphism,
    NotFiniteWithinBound,
    TrivialGroupRejected,
)
from .freealgebra import FreePoly
from .galgebra import AlgElement, GradedAlgebra, substitution_images

DEFAULT_MAX_ORDER = 64


class LinearAuto:
    """A graded algebra automorphism acting linearly on the generators.

    ``rational`` records once whether every matrix entry is rational; on a
    rational algebra the action columns are then kept as integer rows.
    """

    __slots__ = ("algebra", "matrix", "rational")

    def __init__(self, algebra: GradedAlgebra, matrix, verify: bool = True):
        field = algebra.field
        n = algebra.ngens
        rows = tuple(tuple(field.scalar(e) for e in row) for row in matrix)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("automorphism matrix must be %d x %d" % (n, n))
        self.algebra = algebra
        self.matrix = rows
        self.rational = all(c.is_rational() for row in rows for c in row)
        degs = algebra.alphabet.degrees
        for i in range(n):
            for j in range(n):
                if rows[i][j] and degs[i] != degs[j]:
                    raise NotAnAutomorphism(
                        "matrix mixes generators of different degrees"
                    )
        if verify:
            self._verify()

    def _verify(self):
        """Check that the matrix is invertible and that g(r) = 0 in R for
        every defining relation r.

        g(r) is formed in the free algebra, each letter x replaced by its
        image sum_y M[y][x] y, and its words are reduced by the rewriting
        rules (``nf_word``).  That reduction works at any degree, so a
        relation above the truncation degree is checked too.
        """
        R = self.algebra
        n = R.ngens
        if self._rank() != n:
            raise NotAnAutomorphism("matrix is singular")
        M = self.matrix
        columns = [[(y, M[y][x]) for y in range(n) if M[y][x]] for x in range(n)]
        nf_word = R.gb.nf_word
        zero = R.field.zero
        for r in R.relations:
            out: dict = {}
            for w, c in r.terms.items():
                image = {(): c}  # g of a prefix of w, in the free algebra
                for x in w:
                    image = {u + (y,): cu * cy for u, cu in image.items() for y, cy in columns[x]}
                for u, cu in image.items():
                    for v, cv in nf_word(u).items():
                        out[v] = out.get(v, zero) + cu * cv
            if any(out.values()):
                raise NotAnAutomorphism(
                    "relation %s is not preserved by the matrix" % r
                )

    def _rank(self) -> int:
        field = self.algebra.field
        rows = []
        for row in self.matrix:
            rows.append({j: c.raw for j, c in enumerate(row) if c})
        return len(kernel.rref(rows, field.red, field.minpoly))

    # -- the action ---------------------------------------------------------

    def apply(self, elem: AlgElement) -> AlgElement:
        """g(elem), one homogeneous part at a time: the coordinates of the
        degree d part times the action columns ``matrix_on_degree(d)``."""
        R = self.algebra
        if elem.algebra is not R:
            raise ValueError("element of a different algebra")
        terms: dict = {}
        for d, part in elem.homogeneous_parts().items():
            image = linalg.map_vector(self.matrix_on_degree(d), R.coords(part, d), R.field)
            terms.update(R.vector_to_element(d, image).poly.terms)
        return AlgElement(R, FreePoly(R.alphabet, R.field, terms))

    def matrix_on_degree(self, d: int):
        """The action on the degree d component, as a map form (``linalg``).

        Column j is the image of the j-th basis word: ``(den, int_cols)``
        when the matrix and the algebra are both rational, else
        ``(None, raw_cols)``.  The form is cached on the algebra per matrix
        and degree and must not be edited.

        It is the letter recursion ``substitution_images`` with g(1) = 1
        and the coefficients of the matrix: g(x w') = g(x) g(w') =
        sum_y M[y][x] y g(w'), y over the letters with M[y][x] != 0.
        """
        R = self.algebra
        M = self.matrix
        cols = [{y: row[x].raw for y, row in enumerate(M) if row[x]} for x in range(R.ngens)]
        subst = (linalg.integer_form(cols) if self.rational else None) or (None, cols)
        return substitution_images(R, ("act", M), (0, {0: R.field.one.raw}), subst, d, False)

    def is_identity(self) -> bool:
        field = self.algebra.field
        n = self.algebra.ngens
        return all(
            self.matrix[i][j] == (field.one if i == j else field.zero)
            for i in range(n)
            for j in range(n)
        )

    def __mul__(self, other: "LinearAuto") -> "LinearAuto":
        """Composition: (self * other)(x) = self(other(x))."""
        if other.algebra is not self.algebra:
            raise ValueError("automorphisms of different algebras")
        n = self.algebra.ngens
        zero = self.algebra.field.zero
        prod = [
            [
                sum((self.matrix[i][k] * other.matrix[k][j] for k in range(n)), zero)
                for j in range(n)
            ]
            for i in range(n)
        ]
        return LinearAuto(self.algebra, prod, verify=False)

    def __eq__(self, other):
        if not isinstance(other, LinearAuto):
            return NotImplemented
        return self.algebra is other.algebra and self.matrix == other.matrix

    def __hash__(self):
        return hash((id(self.algebra), self.matrix))

    def __repr__(self):
        return "LinearAuto(%s)" % (
            "; ".join(",".join(str(e) for e in row) for row in self.matrix),
        )


def identity_auto(algebra: GradedAlgebra) -> LinearAuto:
    field = algebra.field
    n = algebra.ngens
    eye = [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]
    return LinearAuto(algebra, eye, verify=False)


class FiniteGroup:
    """A finite group of verified automorphisms, identity first.

    Element ordering is the breadth-first closure order from the identity,
    so it is deterministic for a fixed generator list.
    """

    __slots__ = ("algebra", "elements", "table", "inverse")

    def __init__(self, algebra, elements, table, inverse):
        self.algebra = algebra
        self.elements = tuple(elements)
        self.table = table
        self.inverse = inverse

    @property
    def order(self) -> int:
        return len(self.elements)

    def __len__(self):
        return len(self.elements)

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def element_order(self, i: int) -> int:
        k, cur = 1, i
        while cur != 0:
            cur = self.table[cur][i]
            k += 1
        return k

    def is_cyclic(self):
        """An index generating the whole group, or None."""
        for i in range(self.order):
            if self.element_order(i) == self.order:
                return i
        return None

    def on_algebra(self, other: GradedAlgebra) -> "FiniteGroup":
        """The same abstract group acting on another algebra over the alphabet.

        Used for induced actions on quotients: matrices, ordering and the
        multiplication table carry over; each matrix is re-verified against
        the new relations.
        """
        if other.alphabet != self.algebra.alphabet or other.field != self.algebra.field:
            raise ValueError("group does not match the target presentation")
        elems = [LinearAuto(other, g.matrix, verify=True) for g in self.elements]
        return FiniteGroup(other, elems, self.table, self.inverse)

    def __repr__(self):
        return "FiniteGroup(order=%d)" % self.order


def group_generate(gens, max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    """Close verified generator automorphisms into a finite group."""
    if not gens:
        raise ValueError("need at least one generating automorphism")
    algebra = gens[0].algebra
    for g in gens:
        if g.algebra is not algebra:
            raise ValueError("generators act on different algebras")
    identity = identity_auto(algebra)
    elements = [identity]
    seen = {identity.matrix: 0}
    frontier = [identity]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = a * g
                if b.matrix not in seen:
                    if len(elements) >= max_order:
                        raise NotFiniteWithinBound(
                            "group closure exceeds max_order=%d" % max_order
                        )
                    seen[b.matrix] = len(elements)
                    elements.append(b)
                    nxt.append(b)
        frontier = nxt
    if len(elements) == 1:
        raise TrivialGroupRejected("generators produce only the identity")
    k = len(elements)
    table = []
    for a in elements:
        row = []
        for b in elements:
            row.append(seen[(a * b).matrix])
        table.append(tuple(row))
    table = tuple(table)
    inverse = [0] * k
    for i in range(k):
        for j in range(k):
            if table[i][j] == 0:
                inverse[i] = j
                break
    group = FiniteGroup(algebra, elements, table, tuple(inverse))
    m = algebra.field.m
    for i in range(k):
        order = group.element_order(i)
        if m % order != 0:
            raise ConductorTooSmall(
                "group element of order %d needs the conductor (%d) to be a multiple"
                % (order, m)
            )
    return group


def act(g: LinearAuto, f: AlgElement) -> AlgElement:
    return g.apply(f)


def reynolds(G: FiniteGroup, f: AlgElement) -> AlgElement:
    """Average of the orbit of f; a projection onto the invariants."""
    total = G.elements[0].apply(f)
    for g in G.elements[1:]:
        total = total + g.apply(f)
    return total * Fraction(1, G.order)
