"""Automorphism verification, group closure, acting and averaging."""

import random
from fractions import Fraction

import pytest

from pertinax import linalg
from pertinax.action import LinearAuto, act, group_generate, identity_auto, reynolds
from pertinax.errors import (
    ConductorTooSmall,
    NotAnAutomorphism,
    NotFiniteWithinBound,
    TrivialGroupRejected,
)
from pertinax.galgebra import make_commutative, make_downup, make_skew_symmetric
from pertinax.scalars import cyclotomic_field

from invariant_reference import fixed_space_rows


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
