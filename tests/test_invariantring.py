"""Invariant subalgebra bases, generators, cofinality and normality."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from pertinax.action import LinearAuto, group_generate
from pertinax.errors import TrivialGroupRejected
from pertinax.galgebra import make_commutative, make_downup, make_skew_symmetric
from pertinax.invariantring import (
    cofinality_check,
    invariant_radical_table,
    invariants_basis,
    normality_check,
    trace_average_dims,
)
from pertinax.linalg import rref
from pertinax.scalars import cyclotomic_field
from pertinax.skewgroup import GradedIdealTable, intersect_with_invariants, oracle_radical

from invariant_reference import fixed_space_rows


def _gen_strs(inv):
    return sorted(str(g) for g, _ in inv.generators)


def test_generators_sign_action(QQ):
    R = make_commutative(QQ, 2, 8)
    G = group_generate([LinearAuto(R, [[-1, 0], [0, -1]])])
    inv = invariants_basis(R, G, 8)
    assert _gen_strs(inv) == ["x*y", "x^2", "y^2"]
    assert [d for _, d in inv.generators] == [2, 2, 2]


def test_generators_diag_minus(QQ):
    S = make_skew_symmetric(QQ, 3, 8)
    G = group_generate([LinearAuto(S, [[1, 0, 0], [0, -1, 0], [0, 0, -1]])])
    inv = invariants_basis(S, G, 8)
    assert _gen_strs(inv) == ["x", "y*z", "y^2", "z^2"]


def test_generators_omega(Q3):
    S = make_skew_symmetric(Q3, 3, 8)
    w = Q3.primitive_root(3)
    G = group_generate([LinearAuto(S, [[1, 0, 0], [0, w, 0], [0, 0, w * w]])])
    inv = invariants_basis(S, G, 8)
    assert _gen_strs(inv) == ["x", "y*z", "y^3", "z^3"]


def _fixture_cases(QQ, Q3):
    R = make_commutative(QQ, 2, 8)
    S = make_skew_symmetric(QQ, 3, 8)
    Sw = make_skew_symmetric(Q3, 3, 8)
    w = Q3.primitive_root(3)
    Rdu = make_downup(QQ, 1, -1, 6)
    return [
        (R, group_generate([LinearAuto(R, [[0, 1], [1, 0]])])),
        (R, group_generate([LinearAuto(R, [[-1, 0], [0, -1]])])),
        (S, group_generate([LinearAuto(S, [[1, 0, 0], [0, -1, 0], [0, 0, -1]])])),
        (Sw, group_generate([LinearAuto(Sw, [[1, 0, 0], [0, w, 0], [0, 0, w * w]])])),
        (Sw, group_generate([LinearAuto(Sw, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])])),
        (Rdu, group_generate([LinearAuto(Rdu, [[0, 1], [1, 0]])])),
    ]


def test_trace_average_matches_kernel_dims(QQ, Q3):
    """Character count equals the fixed space dimension, every degree."""
    for R, G in _fixture_cases(QQ, Q3):
        inv = invariants_basis(R, G)
        assert trace_average_dims(R, G) == inv.dims()


CYCLE = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]


def _reynolds_cases(name):
    if name == "s3":  # S3 permuting the generators of k[x, y, z] over Q(zeta_6)
        R = make_commutative(cyclotomic_field(6), 3, 7)
        return R, group_generate(
            [LinearAuto(R, [[0, 1, 0], [1, 0, 0], [0, 0, 1]]), LinearAuto(R, CYCLE)]
        )
    Q3 = cyclotomic_field(3)
    S = make_skew_symmetric(Q3, 3, 8)
    if name == "cyclic3":
        return S, group_generate([LinearAuto(S, CYCLE)])
    w = Q3.primitive_root(3)  # km1xyz_omega
    return S, group_generate([LinearAuto(S, [[1, 0, 0], [0, w, 0], [0, 0, w * w]])])


@pytest.mark.parametrize("name", ["s3", "cyclic3", "km1xyz_omega"])
def test_reynolds_image_is_the_fixed_space_kernel(name):
    R, G = _reynolds_cases(name)
    assert invariants_basis(R, G).rows == fixed_space_rows(R, G)


@st.composite
def signed_permutation_groups(draw):
    """k[x_1..x_n] or the skew n-space over Q(zeta_12), with a group generated
    by one or two signed permutations (automorphisms of both)."""
    n = draw(st.integers(1, 3))
    skew = draw(st.booleans())
    D = draw(st.integers(0, 5))
    mats = []
    for _ in range(draw(st.integers(1, 2))):
        perm = draw(st.permutations(range(n)))
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
        mats.append([[signs[j] if perm[j] == i else 0 for j in range(n)] for i in range(n)])
    return n, skew, D, mats


@settings(max_examples=40, deadline=None)
@given(signed_permutation_groups())
def test_reynolds_image_is_the_fixed_space_kernel_for_signed_permutations(case):
    n, skew, D, mats = case
    field = cyclotomic_field(12)  # signed permutations of <= 3 letters have order | 12
    R = (make_skew_symmetric if skew else make_commutative)(field, n, D)
    try:
        G = group_generate([LinearAuto(R, m) for m in mats])
    except TrivialGroupRejected:
        assume(False)
    assert invariants_basis(R, G).rows == fixed_space_rows(R, G)


def test_generator_products_span(QQ, Q3):
    """Products of the extracted generators span every invariant component."""
    from pertinax.skewgroup import vec_product

    for R, G in _fixture_cases(QQ, Q3)[:4]:
        D = R.D
        inv = invariants_basis(R, G, D)
        field = R.field
        span = {0: [(0, {0: field.one.raw})]}
        for d in range(1, D + 1):
            vecs = []
            for g, dg in inv.generators:
                if dg > d:
                    continue
                cg = R.coords(g, dg)
                if dg == d:
                    vecs.append(cg)
                    continue
                for _, v in span.get(d - dg, []):
                    vecs.append(vec_product(R, dg, d - dg, cg, v))
            span[d] = rref(field, vecs)
            assert len(span[d]) == inv.dim(d), (d, len(span[d]), inv.dim(d))


def test_invariant_radical_is_the_intersection(QQ):
    R = make_commutative(QQ, 2, 8)
    G = group_generate([LinearAuto(R, [[-1, 0], [0, -1]])])
    T = oracle_radical(R, G, 8)
    inv = invariants_basis(R, G, 8)
    aa = invariant_radical_table(R, G, 8, radical=T, inv=inv)
    assert aa.rows == intersect_with_invariants(T, inv.rows).rows
    # degree-wise the intersection is inside both
    for d in range(9):
        assert all(T.member_vec(d, dict(row)) for _, row in aa.rows[d])
        from pertinax.linalg import in_span

        assert all(in_span(R.field, dict(row), inv.rows[d]) for _, row in aa.rows[d])


def test_power_filtration_monotone(QQ):
    R = make_commutative(QQ, 2, 8)
    G = group_generate([LinearAuto(R, [[-1, 0], [0, -1]])])
    aa = invariant_radical_table(R, G, 8)
    full = GradedIdealTable.full(R, 8)
    prev = aa.product(full)
    power = aa
    for _ in range(2):
        power = power.product(aa)
        cur = power.product(full)
        assert prev.contains_table(cur)
        prev = cur


def test_cofinality_sign_action(QQ):
    R = make_commutative(QQ, 2, 10)
    G = group_generate([LinearAuto(R, [[-1, 0], [0, -1]])])
    cert = cofinality_check(R, G, 10, s_max=3, n_cap=8)
    assert cert.aR_eq_Ra
    assert [e["n"] for e in cert.entries] == [2, 4, 6]
    assert not any(e["vacuous"] for e in cert.entries)


def test_cofinality_diag_minus(QQ):
    S = make_skew_symmetric(QQ, 3, 8)
    G = group_generate([LinearAuto(S, [[1, 0, 0], [0, -1, 0], [0, 0, -1]])])
    cert = cofinality_check(S, G, 8, s_max=3, n_cap=8)
    assert cert.aR_eq_Ra
    assert all(e["n"] is not None for e in cert.entries)


def test_cofinality_trivial_for_zero_radical(Q3):
    from pertinax.galgebra import quotient_by_ideal

    S = make_skew_symmetric(Q3, 3, 8)
    w = Q3.primitive_root(3)
    G = group_generate([LinearAuto(S, [[1, 0, 0], [0, w, 0], [0, 0, w * w]])])
    y, z = S.gen(1), S.gen(2)
    Q = quotient_by_ideal(S, [y * y, z * z, y * z], 8)
    GQ = G.on_algebra(Q)
    cert = cofinality_check(Q, GQ, 8, s_max=3, n_cap=8)
    assert [e["n"] for e in cert.entries] == [1, 1, 1]
    assert all(e["vacuous"] for e in cert.entries)


def test_normality(QQ):
    S = make_skew_symmetric(QQ, 3, 6)
    inv = invariants_basis(
        S, group_generate([LinearAuto(S, [[1, 0, 0], [0, -1, 0], [0, 0, -1]])]), 6
    )
    y, z = S.gen(1), S.gen(2)
    res = normality_check([y * y, z * z, y * z], S, 6, inv=inv)
    assert all(r["in_R"] and r["in_A"] for r in res)

    R = make_commutative(QQ, 2, 6)
    rx = normality_check([R.gen(0)], R, 6)
    assert rx[0]["in_R"] is True and rx[0]["in_A"] is None

    # y in the down-up algebra: left and right multiples differ in degree 2
    Rdu = make_downup(QQ, 1, -1, 5)
    ry = normality_check([Rdu.gen(1)], Rdu, 5)
    assert ry[0]["in_R"] is False
