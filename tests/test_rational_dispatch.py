"""Integer rows are an exact stand-in for raw rows.

Rational algebras and rational group matrices keep their letter images and
action columns as integer rows, and the closures form their multiples in
int arithmetic.  Forcing both rationality decisions off sends the same
computations through raw field arithmetic; every answer must come out the
same, row for row.
"""

from fractions import Fraction

from pertinax.action import LinearAuto, group_generate
from pertinax.galgebra import letter_images, make_commutative
from pertinax.invariantring import invariants_basis
from pertinax.scalars import cyclotomic_field
from pertinax.skewgroup import GradedIdealTable, oracle_radical

from fixture_cases import fixture_pairs
from invariant_reference import fixed_space_rows
from oracle_reference import pair_oracle_radical

D = 8


def _answers(R, G):
    oracle = oracle_radical(R, G, D)
    inv = invariants_basis(R, G, D)
    x, z = R.gens()[0], R.gens()[-1]
    seeds = GradedIdealTable.from_elements(R, D, [x * z, z * z])
    sides = ((True, False), (False, True), (True, True))
    closures = [seeds.closure(left, right) for left, right in sides]
    return {
        "oracle": oracle.rows,
        "oracle^2": oracle.power(2).rows,
        "invariants": inv.rows,
        "generators": [(str(g), d) for g, d in inv.generators],
        "closures": [t.rows for t in closures],
    }


def test_forcing_the_rationality_decision_off_changes_no_row(monkeypatch):
    rational = 0
    for (name, R, G), (_, R_raw, G_raw) in zip(fixture_pairs(D), fixture_pairs(D)):
        if not (R.rational and all(g.rational for g in G.elements)):
            continue
        rational += 1
        monkeypatch.setattr(R_raw, "rational", False)
        for g in G_raw.elements:
            monkeypatch.setattr(g, "rational", False)
        assert _answers(R_raw, G_raw) == _answers(R, G), name
        assert letter_images(R, 0, 1, True)[0] is not None
        assert letter_images(R_raw, 0, 1, True)[0] is None
        assert G.elements[-1].matrix_on_degree(2)[0] is not None
        assert G_raw.elements[-1].matrix_on_degree(2)[0] is None
    assert rational >= 8


def test_fractional_group_matrices_match_the_references():
    """Group matrices with denominators: the action columns, the oracle
    seeds and the Reynolds sums carry a common denominator per map and
    degree, and the answers still match the apply-based references."""
    cases = [
        # a Klein four group: elements with denominators 2^d and 1 in degree d
        (
            make_commutative(cyclotomic_field(2), 2, 6),
            [[[0, 2], [Fraction(1, 2), 0]], [[-1, 0], [0, -1]]],
        ),
        # the cyclic permutation of x, y, z conjugated by diag(1, 2, 3)
        (
            make_commutative(cyclotomic_field(3), 3, 5),
            [[[0, 0, Fraction(1, 3)], [2, 0, 0], [0, Fraction(3, 2), 0]]],
        ),
    ]
    for R, matrices in cases:
        G = group_generate([LinearAuto(R, m) for m in matrices])
        dens = {g.matrix_on_degree(3)[0] for g in G.elements}
        assert len(dens) > 1 and all(g.rational for g in G.elements)
        assert oracle_radical(R, G).rows == pair_oracle_radical(R, G).rows
        assert invariants_basis(R, G).rows == fixed_space_rows(R, G)
