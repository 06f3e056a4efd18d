"""``multiplier_images`` and the in_A half of ``normality_check`` against
their definitions.

The reference images multiply the multiplier's words into each basis word
with ``product_word_vec`` and sum with ``Scalar`` arithmetic; they do not
use ``letter_images`` or the letter recursion.  The in_A reference is the
pairwise span of ``vec_product`` over the invariant basis rows, as
``normality_check`` computed it before it read the cached images.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from pertinax import linalg
from pertinax.freealgebra import Alphabet, FreePoly
from pertinax.galgebra import make_presentation, make_quantum_affine
from pertinax.invariantring import invariants_basis, normality_check
from pertinax.scalars import cyclotomic_field
from pertinax.skewgroup import multiplier_images, vec_product

from fixture_cases import fixture_pairs

RATIONAL_Q = (1, -1, 2, Fraction(1, 2), Fraction(-2, 3))


@st.composite
def algebras(draw):
    """Over Q(zeta_3): a quantum affine space with rational or zeta_3 entries,
    or x of degree 1 and w of degree 2 with w x = q x w."""
    field = cyclotomic_field(3)
    zeta = field.zeta()
    D = draw(st.integers(2, 5))
    rational = draw(st.booleans())

    def q_entry():
        if rational:
            return field.scalar(draw(st.sampled_from(RATIONAL_Q)))
        return zeta ** draw(st.integers(0, 2))

    kind = draw(st.sampled_from(("quantum", "weighted")))
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
