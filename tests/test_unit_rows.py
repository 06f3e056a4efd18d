"""The unit form of spans against the definition.

Closures, ``one_sided_generators`` and ``span_contains`` carry the unit
vectors e_c of a span as a set of columns beside its other rows
(``linalg.unit_rref``).  These tests check the unit form against the
``Fraction`` reference of ``tests/test_kernel_rref.py``, and the closures,
ideal products and one-sided generators built on it against the pairwise
references of ``tests/product_reference.py``, on diagonal actions (almost
every row a unit) and on non-diagonal ones (almost none).
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pertinax import linalg
from pertinax.galgebra import make_downup, make_skew_symmetric
from pertinax.scalars import cyclotomic_field
from pertinax.skewgroup import (
    GradedIdealTable,
    letter_closure,
    one_sided_generators,
    oracle_radical,
)

from fixture_cases import fixture_pairs
from product_reference import pair_product_rows
from test_kernel_rref import CONDUCTORS, _to_int, _to_raw, rational_rows, reference_rref


def _unit(field):
    return field.one.raw


def _check_unit_form(units, echelon):
    """The other rows have two entries or more and none at a unit column."""
    for p, row in echelon:
        assert len(row) > 1 and min(row) == p
        assert units.isdisjoint(row)


@settings(max_examples=150, deadline=None)
@given(m=st.sampled_from(CONDUCTORS), rows=rational_rows(), data=st.data())
def test_unit_rref_matches_reference(m, rows, data):
    """Units and rows, raw or integer, against the RREF of the unit vectors
    and the rows; a unit also given as a raw one-entry row and as an int
    one-entry row changes nothing."""
    field = cyclotomic_field(m)
    phi = field.phi
    units = set(data.draw(st.lists(st.integers(0, 7), max_size=4)))
    raw_rows = _to_raw(rows, phi)
    as_int = data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    mixed = [_to_int(r) if flag else raw for r, raw, flag in zip(rows, raw_rows, as_int)]
    if units and data.draw(st.booleans()):
        c = min(units)
        scale = data.draw(st.integers(-5, 5).filter(bool))
        mixed += [{c: scale}, _to_raw([{c: Fraction(scale, 3)}], phi)[0]]
    copies = [dict(r) for r in mixed]
    got_units, echelon = linalg.unit_rref(field, set(units), copies)
    assert copies == mixed  # the input rows are left as they were
    assert units <= got_units
    _check_unit_form(got_units, echelon)
    one = _unit(field)
    expected = reference_rref([{c: one} for c in units] + raw_rows, field.minpoly)
    assert linalg.join_units(field, got_units, echelon) == expected
    assert got_units == {p for p, row in expected if len(row) == 1}


@pytest.mark.parametrize("m", [2, 3, 12])
def test_unit_found_only_after_elimination(m):
    """x + y + 5z and x + 2y, with z a unit: deleting z leaves two rows whose
    elimination gives e_x and e_y, which join the units; the row y + 3w
    then leaves the unit w."""
    field = cyclotomic_field(m)
    phi = field.phi
    rows = [{0: 1, 1: 1, 2: 5}, _to_raw([{0: Fraction(1), 1: Fraction(2)}], phi)[0]]
    units, echelon = linalg.unit_rref(field, {2}, rows + [{1: 1, 3: 3}])
    assert (units, echelon) == ({0, 1, 2, 3}, [])
    units, echelon = linalg.unit_rref(field, {2}, [{0: 1, 1: 1, 2: 5}, {0: 2, 4: 1}])
    assert units == {2}
    one = _unit(field)
    expected = reference_rref(
        [{2: one}, _to_raw([{0: 1, 1: 1, 2: 5}], phi)[0], _to_raw([{0: 2, 4: 1}], phi)[0]],
        field.minpoly,
    )
    assert linalg.join_units(field, units, echelon) == expected


def test_unit_form_over_a_non_rational_field():
    """Over Q(zeta_3) a row with a zeta entry takes the field path; a
    one-entry row of any nonzero value is a unit."""
    field = cyclotomic_field(3)
    zeta = field.zeta().raw
    one = _unit(field)
    rows = [{0: zeta, 1: one}, {1: zeta}, {2: one, 3: zeta}]
    units, echelon = linalg.unit_rref(field, {3}, rows)
    assert units == {0, 1, 2, 3} and echelon == []
    rows = [{0: zeta, 1: one, 4: one}, {0: one, 2: zeta}]
    units, echelon = linalg.unit_rref(field, {2}, rows)
    expected = reference_rref([{2: one}] + rows, field.minpoly)
    assert linalg.join_units(field, units, echelon) == expected
    _check_unit_form(units, echelon)


@settings(max_examples=150, deadline=None)
@given(m=st.sampled_from(CONDUCTORS), rows=rational_rows(), data=st.data())
def test_span_contains_with_units_matches_reference(m, rows, data):
    """Super spans with unit rows; sub rows that are unit vectors, rows of
    the super span, their sums, and arbitrary rows."""
    field = cyclotomic_field(m)
    phi = field.phi
    one = _unit(field)
    units = data.draw(st.lists(st.integers(0, 7), max_size=3, unique=True))
    super_rows = linalg.rref(field, [{c: one} for c in units] + _to_raw(rows, phi))
    sub = []
    for _ in range(data.draw(st.integers(0, 3))):
        kind = data.draw(st.sampled_from(("unit", "row", "sum", "random")))
        if kind == "unit":
            sub.append({data.draw(st.integers(0, 7)): one})
        elif kind in ("row", "sum") and super_rows:
            picks = data.draw(st.lists(st.sampled_from(super_rows), min_size=1, max_size=2))
            acc: dict = {}
            for _, row in picks:
                for c, v in row.items():
                    acc[c] = acc.get(c, field.zero) + field.from_raw(v)
            sub.append({c: v.raw for c, v in acc.items() if v})
        else:
            sub += _to_raw(data.draw(rational_rows(max_rows=2)), phi)
    sub = [row for row in sub if row]
    expected = reference_rref([r for _, r in super_rows] + sub, field.minpoly) == super_rows
    assert linalg.span_contains(field, [(min(r), r) for r in sub], super_rows) == expected


# -- closures on diagonal and non-diagonal actions -----------------------------------

CASES = ("km1xyz_diag11", "kxy_negid", "km1xyz_cyclic3", "downup_swap")
DIAGONAL = {"km1xyz_diag11", "kxy_negid"}


def _fixture_cases(D):
    """The pairs of the named fixtures with a nonzero radical, and the radical;
    a quotient by the radical is skipped."""
    out = []
    for name, R, G in fixture_pairs(D):
        if name in CASES:
            radical = oracle_radical(R, G, D)
            if not radical.is_zero():
                out.append((name, R, radical))
    return out


def _reference_table(I, J):
    return GradedIdealTable(I.algebra, I.D, pair_product_rows(I, J), "user")


def _unit_rows(table):
    return sum(len(row) == 1 for rows in table.rows for _, row in rows)


def one_sided_reference(T, left):
    """``one_sided_generators`` over the letters as its docstring defines it,
    from element multiplication: None unless every x v (or v x) lies in T,
    else the rows of T_d whose pivot is not a pivot of those products."""
    R = T.algebra
    field = R.field
    out = []
    for d in range(T.D + 1):
        vecs = []
        for x, dx in zip(R.gens(), R.alphabet.degrees):
            if dx <= d:
                vecs += [R.coords(x * v if left else v * x, d) for v in T.polys(d - dx)]
        images = linalg.rref(field, vecs)
        stacked = [row for _, row in T.rows[d]] + [row for _, row in images]
        if linalg.rref(field, stacked) != list(T.rows[d]):
            return None
        pivots = {p for p, _ in images}
        out.append([(p, row) for p, row in T.rows[d] if p not in pivots])
    return out


def test_products_and_closures_match_pair_reference_on_fixtures():
    """The radical, its square and cube, and the closures of its lowest
    rows; on the diagonal actions the radical is spanned by unit rows."""
    D = 7
    seen = set()
    for name, R, radical in _fixture_cases(D):
        seen.add(name)
        if name in DIAGONAL:
            assert _unit_rows(radical) == sum(radical.dims())
        square = radical.product(radical)
        assert square.rows == _reference_table(radical, radical).rows, name
        cube = square.product(radical)
        assert cube.rows == _reference_table(square, radical).rows, name
        d0, _ = radical.first_nonzero()
        low = GradedIdealTable.from_elements(R, D, radical.polys(d0) + radical.polys(d0 + 1)[:1])
        full = GradedIdealTable.full(R, D)
        left = _reference_table(full, low)
        assert low.closure(True, False).rows == left.rows, name
        assert low.closure(False, True).rows == _reference_table(low, full).rows, name
        assert low.closure(True, True).rows == _reference_table(left, full).rows, name
    assert seen == set(CASES)


def test_one_sided_generators_match_definition_on_fixtures():
    D = 7
    for name, R, radical in _fixture_cases(D):
        d0, elem = radical.first_nonzero()
        full = GradedIdealTable.full(R, D)
        span = GradedIdealTable.from_elements(R, D, [elem])
        tables = [radical, radical.product(radical), full, span, span.closure(True, False)]
        for T in tables:
            for left in (True, False):
                expected = one_sided_reference(T, left)
                assert one_sided_generators(T, left) == expected, (name, left)
        assert one_sided_reference(span, True) is None


# -- closures over R^blocks -------------------------------------------------------------


def block_closure_reference(R, seeds, D, blocks, left, right):
    """Per degree, the canonical rows of the span of u s v over the seeds s
    of R^blocks and the basis words u (when ``left``) and v (when
    ``right``), from element multiplication in each block."""
    field = R.field
    out = []
    for d in range(D + 1):
        h = R.dim(d)
        vecs = []
        for e in range(d + 1):
            for seed in seeds.get(e, ()):
                he = R.dim(e)
                split = [{} for _ in range(blocks)]
                for t, v in seed.items():
                    split[t // he][t % he] = v
                parts = [R.vector_to_element(e, vec) for vec in split]
                for i in range(d - e + 1):
                    if (i and not left) or (d - e - i and not right):
                        continue
                    for u in R.basis_words(i):
                        for v in R.basis_words(d - e - i):
                            uu, vv = R.from_word(u), R.from_word(v)
                            vec = {}
                            for b, part in enumerate(parts):
                                for t, c in R.coords(uu * part * vv, d).items():
                                    vec[b * h + t] = c
                            vecs.append(vec)
        out.append(linalg.rref(field, vecs))
    return out


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_block_closure_matches_reference(data):
    """Seeds over R^2 and R^3, unit vectors and sums, on the skew 3-space
    (a diagonal case: unit rows stay units) and on a down-up algebra."""
    field = cyclotomic_field(2)
    D = 4
    R = data.draw(st.sampled_from([make_skew_symmetric(field, 3, D), make_downup(field, 2, -1, D)]))
    blocks = data.draw(st.integers(2, 3))
    seeds: dict = {}
    for _ in range(data.draw(st.integers(1, 4))):
        e = data.draw(st.integers(0, 2))
        width = blocks * R.dim(e)
        cols = data.draw(st.lists(st.integers(0, width - 1), min_size=1, max_size=3, unique=True))
        seed = {c: field.scalar(data.draw(st.integers(-2, 2).filter(bool))).raw for c in cols}
        seeds.setdefault(e, []).append(seed)
    left, right = data.draw(st.sampled_from([(True, False), (False, True), (True, True)]))
    got = letter_closure(R, lambda d: seeds.get(d, ()), D, left, right, blocks=blocks)
    assert got == block_closure_reference(R, seeds, D, blocks, left, right)
