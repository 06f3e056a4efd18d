"""Skew group algebra identities and the radical oracle."""

import random
from fractions import Fraction

import pytest

from pertinax.action import LinearAuto, act, group_generate
from pertinax.galgebra import make_commutative, make_skew_symmetric, quotient_by_ideal
from pertinax.skewgroup import GradedIdealTable, intersect_with_invariants, oracle_radical
from pertinax.invariantring import invariants_basis
from skew_reference import SkewElement, integral_idempotent, skew_mul


@pytest.fixture(scope="module")
def plane(QQ):
    R = make_commutative(QQ, 2, 8)
    swap = LinearAuto(R, [[0, 1], [1, 0]])
    G = group_generate([swap])
    return R, G


def test_idempotent_identities(plane):
    R, G = plane
    e = integral_idempotent(R, G)
    assert e * e == e
    for gi in range(G.order):
        g = SkewElement.from_group_element(R, G, gi)
        assert g * e == e
    x, y = R.gens()
    rx = SkewElement.from_r(R, G, x)
    ry = SkewElement.from_r(R, G, y)
    assert (rx * ry).components == {0: x * y}


def test_res_expansion_identity(plane):
    """(r#1) e (s#1) = (1/|G|) sum_g r (g.s) # g, on random elements."""
    R, G = plane
    e = integral_idempotent(R, G)
    rng = random.Random(12)
    for _ in range(20):
        r = _rand(rng, R)
        s = _rand(rng, R)
        lhs = SkewElement.from_r(R, G, r) * e * SkewElement.from_r(R, G, s)
        w = Fraction(1, G.order)
        expected = {}
        for gi in range(G.order):
            val = r * act(G.elements[gi], s) * w
            if val:
                expected[gi] = val
        assert lhs.components == expected


def _rand(rng, R):
    total = R.zero()
    for _ in range(rng.randint(1, 3)):
        word = tuple(rng.randint(0, R.ngens - 1) for _ in range(rng.randint(0, 2)))
        total = total + R.from_word(word) * rng.randint(-3, 3)
    return total


def test_oracle_swap_on_plane(plane):
    R, G = plane
    T = oracle_radical(R, G, 6)
    assert T.dims() == [0, 1, 2, 3, 4, 5, 6]
    assert [R.dim(d) - T.dim(d) for d in range(7)] == [1] * 7


def test_oracle_swap_skew_plane(QQ):
    S = make_skew_symmetric(QQ, 2, 5)
    G = group_generate([LinearAuto(S, [[0, 1], [1, 0]])])
    T = oracle_radical(S, G, 5)
    x, y = S.gens()
    assert T.dim(1) == 1 and T.member(x - y)
    for d in range(2, 6):
        assert T.dim(d) == S.dim(d)


def test_oracle_is_ideal_and_stable(QQ, Q3):
    cases = []
    R = make_commutative(QQ, 2, 6)
    cases.append((R, group_generate([LinearAuto(R, [[-1, 0], [0, -1]])])))
    Sw = make_skew_symmetric(Q3, 3, 6)
    w = Q3.primitive_root(3)
    cases.append((Sw, group_generate([LinearAuto(Sw, [[1, 0, 0], [0, w, 0], [0, 0, w * w]])])))
    for R, G in cases:
        T = oracle_radical(R, G)
        assert T.is_two_sided_ideal_upto()
        assert T.is_g_stable(G)


def test_radical_of_pertinency_algebra_vanishes(QQ):
    """Quotient by the radical generators, re-run the oracle: zero table."""
    S = make_skew_symmetric(QQ, 3, 6)
    G = group_generate([LinearAuto(S, [[1, 0, 0], [0, -1, 0], [0, 0, -1]])])
    T = oracle_radical(S, G, 6)
    gens = [g for g, _ in T.generators()]
    Q = quotient_by_ideal(S, gens, 6)
    GQ = G.on_algebra(Q)
    TQ = oracle_radical(Q, GQ, 6)
    assert TQ.is_zero()


def test_semisimple_quotient_gives_zero_table(Q3):
    S = make_skew_symmetric(Q3, 3, 10)
    w = Q3.primitive_root(3)
    G = group_generate([LinearAuto(S, [[1, 0, 0], [0, w, 0], [0, 0, w * w]])])
    y, z = S.gen(1), S.gen(2)
    Q = quotient_by_ideal(S, [y * y, z * z, y * z], 10)
    GQ = G.on_algebra(Q)
    assert oracle_radical(Q, GQ, 10).is_zero()


def test_intersect_with_invariants_examples(QQ):
    R = make_commutative(QQ, 2, 6)
    Gn = group_generate([LinearAuto(R, [[-1, 0], [0, -1]])])
    T = oracle_radical(R, Gn, 6)
    inv = invariants_basis(R, Gn, 6)
    aa = intersect_with_invariants(T, inv.rows)
    x, y = R.gens()
    assert aa.dim(2) == 3
    for e in (x * x, x * y, y * y):
        assert aa.member(e)

    S = make_skew_symmetric(QQ, 3, 6)
    G = group_generate([LinearAuto(S, [[1, 0, 0], [0, -1, 0], [0, 0, -1]])])
    T2 = oracle_radical(S, G, 6)
    inv2 = invariants_basis(S, G, 6)
    aa2 = intersect_with_invariants(T2, inv2.rows)
    yv, zv = S.gen(1), S.gen(2)
    assert aa2.dim(2) == 3
    for e in (yv * yv, zv * zv, yv * zv):
        assert aa2.member(e)

    zero = GradedIdealTable.zero(S, 6)
    assert intersect_with_invariants(zero, inv2.rows).is_zero()


def test_table_algebra(QQ):
    R = make_commutative(QQ, 2, 6)
    x, y = R.gens()
    I = GradedIdealTable.ideal_from_generators(R, [x], 6)
    J = GradedIdealTable.ideal_from_generators(R, [y], 6)
    U = I.union(J)
    full = GradedIdealTable.ideal_from_generators(R, [x, y], 6)
    assert U.rows == full.rows
    P = I.product(J)
    xy_ideal = GradedIdealTable.ideal_from_generators(R, [x * y], 6)
    assert P.rows == xy_ideal.rows
    meet = I.intersect(J)
    assert meet.rows == xy_ideal.rows  # (x) cap (y) = (xy) in k[x,y]
    assert I.power(2).rows == GradedIdealTable.ideal_from_generators(R, [x * x], 6).rows


def test_skew_mul_truncation_guard(QQ):
    from pertinax.errors import TruncationExceeded

    R = make_commutative(QQ, 2, 3)
    G = group_generate([LinearAuto(R, [[0, 1], [1, 0]])])
    x = R.gen(0)
    big = SkewElement.from_r(R, G, x * x)
    with pytest.raises(TruncationExceeded):
        skew_mul(big, big)


def test_table_dump_renders_polynomials(QQ):
    R = make_commutative(QQ, 2, 4)
    G = group_generate([LinearAuto(R, [[0, 1], [1, 0]])])
    dump = oracle_radical(R, G, 4).dump()
    assert dump[1] == ["x - y"]
    assert dump[0] == []


def _dense_radical_dim(R, G, d):
    """Independent rank computation: dim of the radical component equals
    rank [pair-condition block | value block] minus rank of the condition
    block alone, over dense Scalar matrices and plain Gaussian elimination."""
    from conftest import gauss_dim

    field = R.field
    h = R.dim(d)
    k = G.order
    rows_T, rows_TV = [], []
    for i in range(d + 1):
        j = d - i
        for u in R.basis_words(i):
            for v in R.basis_words(j):
                uv = R.from_word(u) * R.from_word(v)
                blocks = []
                for gi in range(1, k):
                    gv = G.elements[gi].apply(R.from_word(v))
                    prod = R.from_word(u) * gv
                    vec = [field.zero] * h
                    for w, c in prod.poly.terms.items():
                        vec[R.basis.index[d][w]] = c
                    blocks.extend(vec)
                value = [field.zero] * h
                for w, c in uv.poly.terms.items():
                    value[R.basis.index[d][w]] = c
                rows_T.append(blocks)
                rows_TV.append(blocks + value)
    return gauss_dim(field, rows_TV) - gauss_dim(field, rows_T)


def test_oracle_dims_against_independent_ranks(QQ, Q3):
    R = make_skew_symmetric(QQ, 2, 4)
    G = group_generate([LinearAuto(R, [[0, 1], [1, 0]])])
    T = oracle_radical(R, G, 4)
    for d in range(5):
        assert T.dim(d) == _dense_radical_dim(R, G, d)

    S = make_skew_symmetric(Q3, 3, 3)
    w = Q3.primitive_root(3)
    Gw = group_generate([LinearAuto(S, [[1, 0, 0], [0, w, 0], [0, 0, w * w]])])
    Tw = oracle_radical(S, Gw, 3)
    for d in range(4):
        assert Tw.dim(d) == _dense_radical_dim(S, Gw, d)


def test_klein_four_group_oracle(QQ):
    """A non-cyclic group: closure, oracle, and the independent ranks."""
    R = make_commutative(QQ, 2, 6)
    a = LinearAuto(R, [[-1, 0], [0, 1]])
    b = LinearAuto(R, [[1, 0], [0, -1]])
    G = group_generate([a, b])
    assert G.order == 4
    assert G.is_cyclic() is None
    T = oracle_radical(R, G, 6)
    assert T.is_two_sided_ideal_upto()
    assert T.is_g_stable(G)
    for d in range(5):
        assert T.dim(d) == _dense_radical_dim(R, G, d)
    from pertinax.invariantring import invariants_basis, trace_average_dims

    assert trace_average_dims(R, G, 6) == invariants_basis(R, G, 6).dims()
    # inclusion-exclusion over the three non-identity elements
    from pertinax.radical import gen_translate_product

    x, y = R.gens()
    pair = gen_translate_product(G, [x + y, x + y, x + y])
    assert not pair.value().is_zero()
    assert T.member(pair.value())


def test_oracle_rows_have_pair_certificates(QQ, Q3):
    """Each oracle component element is the value of an explicit verified
    pertinent pair, recovered by tracking the eliminations through an
    identity block.  This is the reverse inclusion of the soundness suite:
    the oracle produces nothing outside the set of pair values."""
    from pertinax import linalg
    from pertinax.radical import verify_pertinent

    def certify(R, G, d):
        field = R.field
        h = R.dim(d)
        k = G.order
        pairs = []
        for i in range(d + 1):
            for u in R.basis_words(i):
                for v in R.basis_words(d - i):
                    pairs.append((u, v))
        split = (k - 1) * h
        width = split + h
        rows = []
        for pidx, (u, v) in enumerate(pairs):
            row = {}
            eu = R.from_word(u)
            for gi in range(1, k):
                gv = G.elements[gi].apply(R.from_word(v))
                prod = eu * gv
                base = (gi - 1) * h
                for w, c in prod.poly.terms.items():
                    row[base + R.basis.index[d][w]] = c.raw
            uv = eu * R.from_word(v)
            for w, c in uv.poly.terms.items():
                row[split + R.basis.index[d][w]] = c.raw
            row[width + pidx] = field.one.raw
            rows.append(row)
        certified = []
        for p, row in linalg.rref(field, rows):
            if p < split or p >= width:
                continue  # condition-block pivot, or a pure kernel row
            left, right = [], []
            for col, raw in row.items():
                if col < width:
                    continue
                u, v = pairs[col - width]
                left.append(R.from_word(u) * field.from_raw(raw))
                right.append(R.from_word(v))
            pair = verify_pertinent(left, right, G)
            value = {w: c.raw for w, c in pair.value().poly.terms.items()}
            expected = {
                R.basis.words[d][col - split]: raw
                for col, raw in row.items()
                if split <= col < width
            }
            assert value == expected
            certified.append(pair)
        return certified

    R = make_commutative(QQ, 2, 5)
    G = group_generate([LinearAuto(R, [[0, 1], [1, 0]])])
    T = oracle_radical(R, G, 5)
    for d in range(5):
        assert len(certify(R, G, d)) == T.dim(d)

    S = make_skew_symmetric(Q3, 3, 3)
    w = Q3.primitive_root(3)
    Gw = group_generate([LinearAuto(S, [[1, 0, 0], [0, w, 0], [0, 0, w * w]])])
    Tw = oracle_radical(S, Gw, 3)
    for d in range(4):
        assert len(certify(S, Gw, d)) == Tw.dim(d)
