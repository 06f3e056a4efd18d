"""The letter-recursion oracle against the pair-enumeration reference."""

from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from pertinax.action import LinearAuto, group_generate
from pertinax.errors import ConductorTooSmall, NotAnAutomorphism, TrivialGroupRejected
from pertinax.frontend.parser import parse
from pertinax.frontend.runner import Session
from pertinax.galgebra import make_quantum_affine
from pertinax.scalars import cyclotomic_field
from pertinax.skewgroup import oracle_radical

from oracle_reference import pair_oracle_radical, semi_invariant_radical

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@st.composite
def monomial_actions(draw):
    """A random quantum affine space and a monomial matrix on its generators.

    The matrix is a permutation times a diagonal of roots of unity, so it
    covers diagonal actions (identity permutation) and permutation actions;
    whether it preserves the relations is left to ``LinearAuto``.
    """
    m = draw(st.sampled_from((2, 3, 4, 6)))
    n = draw(st.integers(2, 3))
    D = draw(st.integers(0, 6))
    field = cyclotomic_field(m)
    zeta = field.zeta()
    # a uniform q = +-1 makes every permutation an automorphism
    signs = (0, m // 2) if m % 2 == 0 else (0,)
    uniform = draw(st.one_of(st.none(), st.sampled_from(signs)))
    q = [[field.one] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            e = uniform if uniform is not None else draw(st.integers(0, m - 1))
            q[i][j] = zeta**e
            q[j][i] = zeta ** (m - e)
    perm = draw(st.permutations(range(n)))
    scales = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    matrix = [
        [zeta ** scales[j] if perm[j] == i else 0 for j in range(n)] for i in range(n)
    ]
    return field, q, matrix, D


@settings(max_examples=60, deadline=None)
@given(monomial_actions())
def test_recursion_matches_pair_reference(case):
    field, q, matrix, D = case
    R = make_quantum_affine(field, q, D)
    try:
        g = LinearAuto(R, matrix)
    except NotAnAutomorphism:
        assume(False)
    try:
        G = group_generate([g])
    except (TrivialGroupRejected, ConductorTooSmall):
        assume(False)
    assert oracle_radical(R, G, D).rows == pair_oracle_radical(R, G, D).rows


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.ptx")), ids=lambda p: p.stem)
def test_recursion_matches_pair_reference_on_fixtures(path):
    D = 9
    script = parse(path.read_text())
    session = Session(script, default_maxdeg=D)
    pairs = dict.fromkeys(tuple(task.args[-2:]) for task in script.tasks)
    assert pairs
    for aname, gname in pairs:
        R = session.algebras[aname]
        G = session.group(gname, aname)
        assert oracle_radical(R, G, D).rows == pair_oracle_radical(R, G, D).rows


@st.composite
def diagonal_actions(draw):
    """A random quantum affine space and exponents a of sigma = diag(zeta^a)."""
    m = draw(st.sampled_from((2, 3, 4, 6)))
    n = draw(st.integers(1, 3))
    D = draw(st.integers(0, 6))
    field = cyclotomic_field(m)
    zeta = field.zeta()
    q = [[field.one] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            e = draw(st.integers(0, m - 1))
            q[i][j] = zeta**e
            q[j][i] = zeta ** (m - e)
    exponents = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    return field, q, exponents, D


def _diagonal_group(R, exponents):
    zeta = R.field.zeta()
    n = len(exponents)
    matrix = [[zeta ** exponents[j] if i == j else 0 for j in range(n)] for i in range(n)]
    return group_generate([LinearAuto(R, matrix)])


@settings(max_examples=60, deadline=None)
@given(diagonal_actions())
def test_recursion_matches_semi_invariant_reference(case):
    field, q, exponents, D = case
    assume(any(exponents))
    R = make_quantum_affine(field, q, D)
    G = _diagonal_group(R, exponents)
    assert oracle_radical(R, G, D).rows == semi_invariant_radical(R, exponents, D).rows


DIAGONAL_FIXTURES = {
    "km1xyz_omega": (0, 1, 2),
    "quantum_plane": (1, 0),
    "kxy_negid": (1, 1),
    "km1xyz_diag11": (0, 1, 1),
    "kx_sign": (1,),
}


@pytest.mark.parametrize("name", sorted(DIAGONAL_FIXTURES))
def test_recursion_matches_semi_invariant_reference_on_fixtures(name):
    D = 8
    exponents = DIAGONAL_FIXTURES[name]
    script = parse((FIXTURES / (name + ".ptx")).read_text())
    session = Session(script, default_maxdeg=D)
    pairs = dict.fromkeys(tuple(task.args[-2:]) for task in script.tasks)
    for aname, gname in pairs:
        R = session.algebras[aname]
        G = session.group(gname, aname)
        # the fixture's group is the cyclic group of diag(zeta^a)
        assert {g.matrix for g in G.elements} == {
            g.matrix for g in _diagonal_group(R, exponents).elements
        }
        assert oracle_radical(R, G, D).rows == semi_invariant_radical(R, exponents, D).rows
