"""Automorphism verification, group closure, acting and averaging."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from pertinax import linalg
from pertinax.action import LinearAuto, act, group_generate, identity_auto, reynolds
from pertinax.errors import (
    ConductorTooSmall,
    NotAnAutomorphism,
    NotFiniteWithinBound,
    TrivialGroupRejected,
)
from pertinax.freealgebra import Alphabet, FreePoly
from pertinax.galgebra import (
    make_commutative,
    make_downup,
    make_presentation,
    make_quantum_affine,
    make_skew_symmetric,
)
from pertinax.scalars import cyclotomic_field

from fixture_cases import fixture_pairs
from invariant_reference import action_columns, fixed_space_rows


def test_swap_group_on_plane(QQ):
    R = make_commutative(QQ, 2, 6)
    swap = LinearAuto(R, [[0, 1], [1, 0]])
    G = group_generate([swap])
    assert G.order == 2
    assert G.elements[0].is_identity()


def test_sign_groups(QQ, Q3):
    S = make_skew_symmetric(QQ, 3, 6)
    g = LinearAuto(S, [[1, 0, 0], [0, -1, 0], [0, 0, -1]])
    assert group_generate([g]).order == 2
    Sw = make_skew_symmetric(Q3, 3, 6)
    w = Q3.primitive_root(3)
    gw = LinearAuto(Sw, [[1, 0, 0], [0, w, 0], [0, 0, w * w]])
    G3 = group_generate([gw])
    assert G3.order == 3
    assert G3.is_cyclic() is not None


def test_act_examples(QQ):
    R = make_commutative(QQ, 2, 6)
    x, y = R.gens()
    swap = LinearAuto(R, [[0, 1], [1, 0]])
    assert act(swap, x * y) == x * y
    neg = LinearAuto(R, [[-1, 0], [0, -1]])
    assert act(neg, x * x) == x * x
    S = make_skew_symmetric(QQ, 2, 6)
    sw = LinearAuto(S, [[0, 1], [1, 0]])
    assert act(sw, S.gen(0)) == S.gen(1)


def test_act_is_multiplicative_and_linear(QQ):
    R = make_downup(QQ, 1, -1, 6)
    sw = LinearAuto(R, [[0, 1], [1, 0]])
    rng = random.Random(31)
    for _ in range(25):
        f = _rand(rng, R)
        g = _rand(rng, R)
        assert act(sw, f * g) == act(sw, f) * act(sw, g)
        assert act(sw, f + g) == act(sw, f) + act(sw, g)


def test_composition_follows_the_table(Q3):
    S = make_skew_symmetric(Q3, 3, 5)
    w = Q3.primitive_root(3)
    gw = LinearAuto(S, [[1, 0, 0], [0, w, 0], [0, 0, w * w]])
    perm = LinearAuto(S, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    G = group_generate([gw, perm], max_order=30)
    rng = random.Random(8)
    f = _rand(rng, S)
    for i in range(G.order):
        for j in range(G.order):
            gi, gj = G.elements[i], G.elements[j]
            assert act(gi, act(gj, f)) == act(G.elements[G.mul(i, j)], f)


def _rand(rng, R):
    total = R.zero()
    for _ in range(rng.randint(1, 3)):
        word = tuple(rng.randint(0, R.ngens - 1) for _ in range(rng.randint(0, 3)))
        total = total + R.from_word(word) * rng.randint(-3, 3)
    return total


def test_reynolds_examples(QQ):
    R = make_commutative(QQ, 2, 6)
    x, y = R.gens()
    swap = LinearAuto(R, [[0, 1], [1, 0]])
    G = group_generate([swap])
    avg = reynolds(G, x)
    assert avg == (x + y) * Fraction(1, 2)
    assert reynolds(G, avg) == avg  # idempotent
    neg = LinearAuto(R, [[-1, 0], [0, -1]])
    Gn = group_generate([neg])
    assert reynolds(Gn, x * y) == x * y


def test_reynolds_image_is_the_fixed_space(QQ):
    """The averages of the basis words span the kernel of g - id, row for row."""
    R = make_commutative(QQ, 2, 6)
    G = group_generate([LinearAuto(R, [[0, 1], [1, 0]])])
    fixed = fixed_space_rows(R, G, 4)
    for d in range(5):
        averages = [reynolds(G, R.from_word(w)) for w in R.basis_words(d)]
        images = [R.coords(e, d) for e in averages if e]
        assert tuple(linalg.rref(R.field, images)) == fixed[d]


def test_rejection_paths(QQ):
    R = make_commutative(QQ, 2, 6)
    S = make_skew_symmetric(QQ, 3, 6)
    with pytest.raises(NotAnAutomorphism):
        LinearAuto(S, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])  # breaks skew relations
    with pytest.raises(NotAnAutomorphism):
        LinearAuto(R, [[1, 1], [1, 1]])  # singular
    with pytest.raises(TrivialGroupRejected):
        group_generate([identity_auto(R)])
    with pytest.raises(NotFiniteWithinBound):
        # a non-root scaling has infinite order
        group_generate([LinearAuto(R, [[2, 0], [0, 2]])], max_order=16)


def test_conductor_enforced_on_element_orders():
    field = cyclotomic_field(1)
    R = make_commutative(field, 2, 4)
    with pytest.raises(ConductorTooSmall):
        group_generate([LinearAuto(R, [[0, 1], [1, 0]])])  # order 2 needs 2 | m


# -- the action columns against apply ---------------------------------------------


def assert_columns_match_apply(g, D):
    """Every column of ``matrix_on_degree`` up to D is the coordinate vector
    of ``apply`` on its basis word, and the form is integer exactly when the
    matrix and the algebra are rational."""
    R = g.algebra
    for d in range(D + 1):
        form = g.matrix_on_degree(d)
        assert (form[0] is not None) == (g.rational and R.rational)
        assert linalg.raw_vectors(form, R.field) == action_columns(g, d)


@st.composite
def linear_actions(draw):
    """An automorphism of a small algebra and a truncation degree.

    Dense invertible integer (and sometimes fractional) matrices on
    k[x,y,z], signed permutations on the skew 3-space, a diagonal zeta_3
    action (non-rational) on either, rational diagonal actions on the
    quantum plane yx = q xy with q = 1/2 or -2/3, whose letter images carry
    denominators, and on commutative x, y, z of degrees 1, 2, 2 a rational
    or a zeta_6 matrix that mixes y and z, where a word's tail lies two
    degrees down when it starts with y or z.
    """
    kind = draw(st.sampled_from(("dense", "signed", "diagonal", "quantum", "weighted")))
    D = draw(st.integers(0, 5))
    if kind == "weighted":
        field = cyclotomic_field(6)
        alphabet = Alphabet(["x", "y", "z"], [1, 2, 2])
        x, y, z = (FreePoly.gen(alphabet, field, i) for i in range(3))
        rels = [y * x - x * y, z * x - x * z, z * y - y * z]
        R = make_presentation(field, ["x", "y", "z"], rels, D, degrees=[1, 2, 2])
        if draw(st.booleans()):
            matrix = [[2, 0, 0], [0, 1, Fraction(1, 2)], [0, -3, 1]]
        else:
            zeta = field.zeta()
            matrix = [[zeta, 0, 0], [0, zeta**2, 1], [0, 1, zeta]]
        return LinearAuto(R, matrix), D
    if kind == "quantum":
        q = draw(st.sampled_from((Fraction(1, 2), Fraction(-2, 3))))
        R = make_quantum_affine(cyclotomic_field(2), [[1, q], [1 / q, 1]], D)
        a, b = draw(st.lists(st.sampled_from((1, -1, 2, Fraction(1, 3))), min_size=2, max_size=2))
        return LinearAuto(R, [[a, 0], [0, b]]), D
    if kind == "dense":
        field = cyclotomic_field(draw(st.sampled_from((1, 2, 6))))
        entries = st.integers(-3, 3)
        if draw(st.booleans()):
            entries = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
        matrix = draw(st.lists(st.lists(entries, min_size=3, max_size=3), min_size=3, max_size=3))
        R = make_commutative(field, 3, D)
    elif kind == "signed":
        field = cyclotomic_field(2)
        perm = draw(st.permutations(range(3)))
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=3, max_size=3))
        matrix = [[signs[j] if perm[j] == i else 0 for j in range(3)] for i in range(3)]
        R = make_skew_symmetric(field, 3, D)
    else:
        field = cyclotomic_field(3)
        zeta = field.zeta()
        exps = draw(st.lists(st.integers(0, 2), min_size=3, max_size=3))
        matrix = [[zeta ** exps[i] if i == j else 0 for j in range(3)] for i in range(3)]
        if draw(st.booleans()):
            R = make_commutative(field, 3, D)
        else:
            R = make_skew_symmetric(field, 3, D)
    try:
        g = LinearAuto(R, matrix)
    except NotAnAutomorphism:  # a singular dense matrix
        assume(False)
    return g, D


@settings(max_examples=60, deadline=None)
@given(case=linear_actions())
def test_matrix_on_degree_matches_apply(case):
    g, D = case
    assert_columns_match_apply(g, D)


def test_matrix_on_degree_matches_apply_on_fixtures():
    seen = 0
    for _, _, G in fixture_pairs(8):
        for g in G.elements:
            assert_columns_match_apply(g, 8)
        seen += 1
    assert seen >= 9
