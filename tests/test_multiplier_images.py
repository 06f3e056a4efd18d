"""The products and the group action that read the cached letter images,
and the in_A half of ``normality_check``, against their definitions.

The reference images and products multiply basis words with
``product_word_vec``, the normal form of the concatenated word by the
rewriting rules, and sum with ``Scalar`` arithmetic; they do not use
``letter_images`` or the letter recursion.  The reference action
substitutes the images of the letters in the free algebra and takes the
normal form.  The in_A reference is the pairwise span of ``vec_product``
over the invariant basis rows, as ``normality_check`` computed it before it
read the cached images.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from pertinax import linalg
from pertinax.action import LinearAuto
from pertinax.errors import NotAnAutomorphism
from pertinax.freealgebra import Alphabet, FreePoly
from pertinax.galgebra import (
    make_commutative,
    make_downup,
    make_presentation,
    make_quantum_affine,
    make_skew_symmetric,
)
from pertinax.invariantring import invariants_basis, normality_check
from pertinax.scalars import cyclotomic_field
from pertinax.skewgroup import multiplier_images, vec_product

from fixture_cases import fixture_pairs

RATIONAL_Q = (1, -1, 2, Fraction(1, 2), Fraction(-2, 3))


@st.composite
def algebras(draw, top=5):
    """Over Q(zeta_3), truncated at a degree from 2 to ``top``: a quantum
    affine space with rational or zeta_3 entries, x of degree 1 and w of
    degree 2 with w x = q x w, or the down-up algebra with alpha = -3 and
    beta = 2, whose monic rules have fractional tails."""
    field = cyclotomic_field(3)
    zeta = field.zeta()
    D = draw(st.integers(2, top))
    rational = draw(st.booleans())

    def q_entry():
        if rational:
            return field.scalar(draw(st.sampled_from(RATIONAL_Q)))
        return zeta ** draw(st.integers(0, 2))

    kind = draw(st.sampled_from(("quantum", "weighted", "downup")))
    if kind == "downup":
        return make_downup(field, -3, 2, D)
    if kind == "quantum":
        n = draw(st.integers(2, 3))
        q = [[field.one] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                q[i][j] = q_entry()
                q[j][i] = q[i][j].inv()
        return make_quantum_affine(field, q, D)
    alphabet = Alphabet(["x", "w"], [1, 2])
    x = FreePoly.gen(alphabet, field, 0)
    w = FreePoly.gen(alphabet, field, 1)
    return make_presentation(field, ["x", "w"], [w * x - q_entry() * (x * w)], D, degrees=[1, 2])


@st.composite
def multipliers(draw, R):
    """A nonzero homogeneous element of degree 1 or 2 with up to three terms,
    as ``(degree, coordinates)``; coefficients have denominators, and zeta
    parts unless ``rational`` is drawn."""
    field = R.field
    rational = draw(st.booleans())
    dm = draw(st.integers(1, min(2, R.D - 1)))
    words = R.basis_words(dm)
    coords = {}
    for _ in range(draw(st.integers(1, 3))):
        c = Fraction(draw(st.integers(-3, 3).filter(bool)), draw(st.integers(1, 4)))
        e = 0 if rational else draw(st.integers(0, 2))
        coords[draw(st.integers(0, len(words) - 1))] = (field.zeta() ** e * c).raw
    return dm, coords


def reference_images(R, multiplier, d, left):
    """m w (or w m) for each degree d basis word w, by word products."""
    dm, coords = multiplier
    field = R.field
    mwords, index = R.basis_words(dm), R.basis.index[d + dm]
    out = []
    for w in R.basis_words(d):
        acc = {}
        for c, raw in coords.items():
            u = mwords[c]
            prod = R.product_word_vec(u, w) if left else R.product_word_vec(w, u)
            for t, sc in prod.items():
                k = index[t]
                acc[k] = acc.get(k, field.zero) + field.from_raw(raw) * sc
        out.append({k: v.raw for k, v in acc.items() if v})
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_multiplier_images_match_word_products(data):
    R = data.draw(algebras())
    m = data.draw(multipliers(R))
    rational = R.rational and all(R.field.from_raw(v).is_rational() for v in m[1].values())
    for left in (True, False):
        for d in range(R.D - m[0] + 1):
            form = multiplier_images(R, m, d, left)
            assert (form[0] is not None) == rational, (d, left)
            got = linalg.raw_vectors(form, R.field)
            assert got == reference_images(R, m, d, left), (d, left)


def scalar(draw, field, rational):
    """A nonzero scalar with a denominator, times a power of zeta_3 unless
    ``rational``."""
    c = Fraction(draw(st.integers(-3, 3).filter(bool)), draw(st.integers(1, 4)))
    return field.zeta() ** (0 if rational else draw(st.integers(0, 2))) * c


@st.composite
def vectors(draw, R, d):
    """Raw coordinates of up to four terms in degree d, rational or not."""
    rational = draw(st.booleans())
    h = R.dim(d)
    cols = draw(st.lists(st.integers(0, h - 1), max_size=4, unique=True))
    return {c: scalar(draw, R.field, rational).raw for c in cols}


def reference_product(R, i, j, u, v):
    """The coordinates of u v, summed over the pairs of basis words."""
    field = R.field
    words_i, words_j, index = R.basis_words(i), R.basis_words(j), R.basis.index[i + j]
    acc = {}
    for a, ra in u.items():
        for b, rb in v.items():
            c = field.from_raw(ra) * field.from_raw(rb)
            for t, sc in R.product_word_vec(words_i[a], words_j[b]).items():
                acc[index[t]] = acc.get(index[t], field.zero) + c * sc
    return {k: c.raw for k, c in acc.items() if c}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_vec_product_matches_word_products(data):
    """Both argument orders, so that the factor of lower degree is applied
    by the left and by the right images, and factors of equal and of
    different degrees."""
    R = data.draw(algebras(top=7))
    i = data.draw(st.integers(0, R.D // 2))
    j = data.draw(st.integers(i, R.D - i))
    u = data.draw(vectors(R, i))
    v = data.draw(vectors(R, j))
    assert vec_product(R, i, j, u, v) == reference_product(R, i, j, u, v)
    assert vec_product(R, j, i, v, u) == reference_product(R, j, i, v, u)


def test_vec_product_matches_word_products_on_full_vectors():
    """Every degree pair up to D = 6, each factor with every basis word, on
    the down-up algebra and on a quantum 3-space with q = 2, -1 and zeta_3,
    with rational and with zeta_3 coefficients."""
    field = cyclotomic_field(3)
    zeta = field.zeta()
    q = [[1, 2, -1], [Fraction(1, 2), 1, zeta], [-1, zeta.inv(), 1]]
    for R in (make_downup(field, -3, 2, 6), make_quantum_affine(field, q, 6)):
        for i in range(4):
            for j in range(7 - i):
                for c in (field.one, zeta):
                    u = {k: (c * Fraction(k + 1, 3)).raw for k in range(R.dim(i))}
                    v = {k: field.scalar(Fraction(2, k + 1)).raw for k in range(R.dim(j))}
                    assert vec_product(R, i, j, u, v) == reference_product(R, i, j, u, v)
                    assert vec_product(R, j, i, v, u) == reference_product(R, j, i, v, u)


@st.composite
def automorphisms(draw):
    """A diagonal matrix on any algebra of ``algebras``, an invertible matrix
    on k[x, y, z], or a monomial matrix on the skew 3-space; entries with
    denominators, and with zeta_3 unless ``rational`` is drawn."""
    field = cyclotomic_field(3)
    rational = draw(st.booleans())
    kind = draw(st.sampled_from(("diagonal", "dense", "monomial")))
    if kind == "diagonal":
        R = draw(algebras())
        n = R.ngens
        diagonal = [scalar(draw, field, rational) for _ in range(n)]
        return LinearAuto(R, [[diagonal[i] if i == j else 0 for j in range(n)] for i in range(n)])
    D = draw(st.integers(2, 5))
    if kind == "dense":
        R = make_commutative(field, 3, D)
        matrix = [
            [scalar(draw, field, rational) if draw(st.booleans()) else 0 for _ in range(3)]
            for _ in range(3)
        ]
        try:
            return LinearAuto(R, matrix)
        except NotAnAutomorphism:  # singular
            assume(False)
    R = make_skew_symmetric(field, 3, D)
    perm = draw(st.permutations(range(3)))
    entries = [scalar(draw, field, rational) for _ in range(3)]
    return LinearAuto(R, [[entries[j] if i == perm[j] else 0 for j in range(3)] for i in range(3)])


def substituted(g, f):
    """g(f): every letter x of f replaced by sum_y M[y][x] y in the free
    algebra, then the normal form."""
    R = g.algebra
    n = R.ngens
    images = [
        FreePoly(R.alphabet, R.field, {(y,): g.matrix[y][x] for y in range(n) if g.matrix[y][x]})
        for x in range(n)
    ]
    total = FreePoly.zero(R.alphabet, R.field)
    for w, c in f.poly.terms.items():
        term = FreePoly.one(R.alphabet, R.field) * c
        for x in w:
            term = term * images[x]
        total = total + term
    return R.element(total)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_apply_matches_substitution(data):
    """On elements with parts in several degrees."""
    g = data.draw(automorphisms())
    R = g.algebra
    f = R.zero()
    for d in data.draw(st.lists(st.integers(0, R.D), max_size=3, unique=True)):
        f = f + R.vector_to_element(d, data.draw(vectors(R, d)))
    assert g.apply(f) == substituted(g, f)


def test_verify_accepts_a_dense_integer_matrix(QQ):
    """L U, L unit lower and U unit upper triangular with every entry below
    (above) the diagonal 1, is invertible and dense; every invertible
    matrix is an automorphism of k[x1, ..., x8]."""
    n = 8
    matrix = [[min(i, j) + 1 for j in range(n)] for i in range(n)]  # L U
    g = LinearAuto(make_commutative(QQ, n, 2), matrix)
    assert g.rational and not g.is_identity()


def test_verify_rejects_a_non_monomial_matrix_on_the_skew_space(QQ):
    """x -> x + y sends y x + x y to 2 y^2, which is not 0."""
    R = make_skew_symmetric(QQ, 3, 4)
    with pytest.raises(NotAnAutomorphism, match="not preserved"):
        LinearAuto(R, [[1, 0, 0], [1, 1, 0], [0, 0, 1]])


def test_verify_checks_relations_above_the_truncation(QQ):
    """The down-up relations are cubic; at maxdeg 2 the swap of x and y
    still has to map them into their span.  It does for alpha = 2 and
    beta = -1 (the swap of r1 is r2), not for alpha = beta = 1."""
    swap = [[0, 1], [1, 0]]
    LinearAuto(make_downup(QQ, 2, -1, 2), swap)
    with pytest.raises(NotAnAutomorphism, match="not preserved"):
        LinearAuto(make_downup(QQ, 1, 1, 2), swap)


def pairwise_normal_in_A(a, inv, D):
    """Whether a A_d and A_d a span the same subspace for every d <= D - deg a,
    from the ``vec_product`` of a with every invariant basis row."""
    R = a.algebra
    da = a.degree()
    ca = R.coords(a, da)
    for d in range(D - da + 1):
        left = [vec_product(R, da, d, ca, v) for _, v in inv.rows[d]]
        right = [vec_product(R, d, da, v, ca) for _, v in inv.rows[d]]
        if linalg.rref(R.field, left) != linalg.rref(R.field, right):
            return False
    return True


def test_normality_in_A_matches_pairwise_span_on_fixtures():
    D = 7
    seen = set()
    for name, R, G in fixture_pairs(D):
        inv = invariants_basis(R, G, D)
        elems = [g for g, _ in inv.generators] + inv.basis_elements(2)
        got = [r["in_A"] for r in normality_check(elems, R, D, inv=inv)]
        assert got == [pairwise_normal_in_A(a, inv, D) for a in elems], name
        seen.update(got)
    assert seen == {True, False}


def test_invariant_that_is_not_normal_in_A():
    """x + y is invariant under the swap of the skew plane, and (x + y) A is
    not A (x + y)."""
    R, G = next((R, G) for name, R, G in fixture_pairs(6) if name == "km1xy_swap")
    inv = invariants_basis(R, G, 6)
    x, y = R.gens()
    a = x + y
    assert inv.contains(a)
    (result,) = normality_check([a], R, 6, inv=inv)
    assert result["in_A"] is False
    assert pairwise_normal_in_A(a, inv, 6) is False
