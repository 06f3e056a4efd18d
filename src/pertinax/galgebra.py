"""Finitely presented connected graded algebras and their elements.

A GradedAlgebra couples a presentation with a truncated Groebner basis and
the per-degree monomial bases of the quotient; its elements are stored in
normal form, so equality, coordinates and membership questions in degrees
up to the truncation bound are exact.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BadQMatrix, DegenerateQuotient, NotGraded, TruncationExceeded
from .freealgebra import Alphabet, FreePoly, Word
from .gbasis import QuotientBasis, TruncatedGB, gb_complete
from .scalars import CycField, Scalar

DEFAULT_TRUNCATION = 12


class GradedAlgebra:
    """A connected graded algebra with exact arithmetic up to a degree bound."""

    __slots__ = (
        "field",
        "alphabet",
        "relations",
        "gb",
        "basis",
        "D",
        "known_gkdim",
        "name",
        "_act_cache",
    )

    def __init__(self, field, alphabet, relations, gb, basis, D, known_gkdim=None, name=""):
        self.field = field
        self.alphabet = alphabet
        self.relations = tuple(relations)
        self.gb = gb
        self.basis = basis
        self.D = D
        self.known_gkdim = known_gkdim
        self.name = name
        self._act_cache: dict = {}

    # -- basic structure ---------------------------------------------------

    @property
    def ngens(self) -> int:
        return len(self.alphabet)

    def dim(self, d: int) -> int:
        if d < 0:
            return 0
        if d > self.D:
            raise TruncationExceeded("degree %d beyond truncation %d" % (d, self.D))
        return self.basis.dim(d)

    def dims(self) -> list[int]:
        return self.basis.dims()

    def basis_words(self, d: int):
        if d < 0:
            return ()
        if d > self.D:
            raise TruncationExceeded("degree %d beyond truncation %d" % (d, self.D))
        return self.basis.words[d]

    def max_generator_degree(self) -> int:
        return max(self.alphabet.degrees)

    def __eq__(self, other):
        return self is other

    def __hash__(self):
        return id(self)

    def __repr__(self):
        label = self.name or "GradedAlgebra"
        return "%s<%s; D=%d>" % (label, ", ".join(self.alphabet.names), self.D)

    # -- elements ------------------------------------------------------------

    def element(self, poly: FreePoly) -> "AlgElement":
        if poly.alphabet != self.alphabet or poly.field != self.field:
            raise ValueError("polynomial over a different presentation")
        return AlgElement(self, self.gb.normal_form(poly))

    def zero(self) -> "AlgElement":
        return AlgElement(self, FreePoly.zero(self.alphabet, self.field))

    def one(self) -> "AlgElement":
        return AlgElement(self, FreePoly.one(self.alphabet, self.field))

    def gen(self, i) -> "AlgElement":
        if isinstance(i, str):
            i = self.alphabet.index[i]
        return self.element(FreePoly.gen(self.alphabet, self.field, i))

    def gens(self):
        return [self.gen(i) for i in range(self.ngens)]

    def from_word(self, word: Word) -> "AlgElement":
        return self.element(FreePoly.monomial(self.alphabet, self.field, word))

    def coords(self, elem: "AlgElement", d: int) -> dict:
        """Sparse coordinates of a homogeneous element over the degree d basis."""
        index = self.basis.index[d]
        out = {}
        for w, c in elem.poly.terms.items():
            out[index[w]] = c.raw
        return out

    def vector_to_element(self, d: int, vec: dict) -> "AlgElement":
        words = self.basis.words[d]
        terms = {}
        for col, raw in vec.items():
            sc = self.field.from_raw(raw)
            if sc:
                terms[words[col]] = sc
        return AlgElement(self, FreePoly(self.alphabet, self.field, terms))

    def product_word_vec(self, u: Word, v: Word) -> dict:
        """Normal form of u*v as a term dict over normal words, for normal u, v."""
        return self.gb.nf_product(u, v)


class AlgElement:
    """An element of a GradedAlgebra, held in normal form."""

    __slots__ = ("algebra", "poly")

    def __init__(self, algebra: GradedAlgebra, normal_poly: FreePoly):
        self.algebra = algebra
        self.poly = normal_poly

    def _check(self, other):
        if not isinstance(other, AlgElement) or other.algebra is not self.algebra:
            raise ValueError("elements of different algebras")

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def __bool__(self):
        return bool(self.poly)

    def degree(self):
        return self.poly.degree()

    def is_homogeneous(self) -> bool:
        return self.poly.is_homogeneous()

    def homogeneous_parts(self) -> dict:
        return {
            d: AlgElement(self.algebra, p) for d, p in self.poly.homogeneous_parts().items()
        }

    def __add__(self, other):
        self._check(other)
        return AlgElement(self.algebra, self.poly + other.poly)

    def __sub__(self, other):
        self._check(other)
        return AlgElement(self.algebra, self.poly - other.poly)

    def __neg__(self):
        return AlgElement(self.algebra, -self.poly)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return AlgElement(self.algebra, self.poly * other)
        self._check(other)
        return self.algebra.element(self.poly * other.poly)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return AlgElement(self.algebra, self.poly * other)
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        result = self.algebra.one()
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        if not isinstance(other, AlgElement):
            return NotImplemented
        return self.algebra is other.algebra and self.poly == other.poly

    def __hash__(self):
        return hash((id(self.algebra), frozenset(self.poly.terms.items())))

    def __str__(self):
        return str(self.poly)

    def __repr__(self):
        return "AlgElement(%s)" % self.poly


# -- constructors -----------------------------------------------------------


def _finish(field, alphabet, relations, D, known_gkdim, name):
    if relations:
        gb = gb_complete(relations, D)
    else:
        gb = TruncatedGB(alphabet, field, [], D)
    basis = QuotientBasis(gb, D)
    return GradedAlgebra(field, alphabet, relations, gb, basis, D, known_gkdim, name)


def make_free(field: CycField, names, D: int = DEFAULT_TRUNCATION, degrees=None) -> GradedAlgebra:
    alphabet = Alphabet(names, degrees)
    return _finish(field, alphabet, [], D, None, "free")


def make_commutative(field: CycField, n: int, D: int = DEFAULT_TRUNCATION) -> GradedAlgebra:
    """Polynomial ring on n degree one generators."""
    if n < 1:
        raise ValueError("need at least one generator")
    names = default_names(n)
    alphabet = Alphabet(names)
    gens = [FreePoly.gen(alphabet, field, i) for i in range(n)]
    rels = [gens[j] * gens[i] - gens[i] * gens[j] for i in range(n) for j in range(i + 1, n)]
    if not rels:
        return _finish(field, alphabet, [], D, 1, "commutative")
    return _finish(field, alphabet, rels, D, n, "commutative")


def make_quantum_affine(field: CycField, q, D: int = DEFAULT_TRUNCATION) -> GradedAlgebra:
    """Quantum affine space: x_j x_i = q_ij x_i x_j for i < j.

    The parameter matrix must satisfy q_ii = 1 and q_ji = q_ij^(-1); ordered
    monomials then form a basis in every degree.
    """
    n = len(q)
    q = [[field.scalar(e) for e in row] for row in q]
    if any(len(row) != n for row in q):
        raise BadQMatrix("q must be a square matrix")
    for i in range(n):
        if q[i][i] != field.one:
            raise BadQMatrix("q[%d][%d] must be 1" % (i, i))
        for j in range(n):
            if not q[i][j]:
                raise BadQMatrix("q entries must be nonzero")
            if q[i][j] * q[j][i] != field.one:
                raise BadQMatrix("q[%d][%d] is not inverse to q[%d][%d]" % (j, i, i, j))
    names = default_names(n)
    alphabet = Alphabet(names)
    gens = [FreePoly.gen(alphabet, field, i) for i in range(n)]
    rels = [
        gens[j] * gens[i] - q[i][j] * (gens[i] * gens[j])
        for i in range(n)
        for j in range(i + 1, n)
    ]
    if not rels:
        return _finish(field, alphabet, [], D, 1, "quantum_affine")
    return _finish(field, alphabet, rels, D, n, "quantum_affine")


def make_skew_symmetric(field: CycField, n: int, D: int = DEFAULT_TRUNCATION) -> GradedAlgebra:
    """The (-1)-skew polynomial ring: x_j x_i = -x_i x_j for i != j."""
    minus_one = field.scalar(-1)
    q = [[minus_one if i != j else field.one for j in range(n)] for i in range(n)]
    return make_quantum_affine(field, q, D)


def make_downup(field: CycField, alpha, beta, D: int = DEFAULT_TRUNCATION) -> GradedAlgebra:
    """Down-up algebra on x, y with the two standard cubic relations."""
    alpha = field.scalar(alpha)
    beta = field.scalar(beta)
    alphabet = Alphabet(["x", "y"])
    x = FreePoly.gen(alphabet, field, 0)
    y = FreePoly.gen(alphabet, field, 1)
    r1 = x * x * y - alpha * (x * y * x) - beta * (y * x * x)
    r2 = x * y * y - alpha * (y * x * y) - beta * (y * y * x)
    return _finish(field, alphabet, [r1, r2], D, 3, "downup")


def make_presentation(
    field: CycField,
    names,
    relations,
    D: int = DEFAULT_TRUNCATION,
    degrees=None,
    known_gkdim=None,
) -> GradedAlgebra:
    """User presentation; no GK-dimension is attached unless asserted."""
    alphabet = Alphabet(names, degrees)
    rels = []
    for r in relations:
        if not isinstance(r, FreePoly):
            raise TypeError("relations must be free polynomials")
        if r.alphabet != alphabet:
            r = FreePoly(alphabet, field, dict(r.terms))
        rels.append(r)
    rels = [r for r in rels if not r.is_zero()]
    if rels:
        return _finish(field, alphabet, rels, D, known_gkdim, "presentation")
    return _finish(field, alphabet, [], D, known_gkdim, "presentation")


def quotient_by_ideal(R: GradedAlgebra, gens, D: int | None = None) -> GradedAlgebra:
    """Quotient of R by the two-sided ideal generated by homogeneous elements.

    The presentation keeps the ambient alphabet and simply gains relations,
    so any group acting on R acts on the quotient through the same matrices;
    degree one generators of the ideal become rewriting rules rather than
    triggering generator elimination.
    """
    if D is None:
        D = R.D
    if D > R.D:
        raise TruncationExceeded("quotient truncation beyond the ambient bound")
    polys = []
    for g in gens:
        if isinstance(g, AlgElement):
            if g.algebra is not R:
                raise ValueError("ideal generator from a different algebra")
            p = g.poly
        elif isinstance(g, FreePoly):
            p = R.gb.normal_form(g)
        else:
            raise TypeError("ideal generators must be algebra elements")
        if p.is_zero():
            continue
        if not p.is_homogeneous():
            raise NotGraded("quotient generator %s is not homogeneous" % p)
        if p.degree() == 0:
            raise DegenerateQuotient("degree 0 generator collapses the quotient to zero")
        polys.append(p)
    if not polys:
        return R
    rels = list(R.relations) + polys
    gb = gb_complete(rels, D, allow_linear=True)
    basis = QuotientBasis(gb, D)
    return GradedAlgebra(R.field, R.alphabet, rels, gb, basis, D, None, "quotient")


def default_names(n: int):
    """Generator names of commutative(n) and quantum affine spaces: x, y, z
    for up to three generators, x1, ..., xn otherwise."""
    if n <= 3:
        return ["x", "y", "z"][:n]
    return ["x%d" % (i + 1) for i in range(n)]
