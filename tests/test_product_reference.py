"""Ideal products, invariant generators and normality against pairwise
references built from element multiplication."""

from hypothesis import given, settings, strategies as st

from pertinax.freealgebra import Alphabet, FreePoly
from pertinax.galgebra import (
    make_downup,
    make_free,
    make_presentation,
    make_quantum_affine,
    make_skew_symmetric,
)
from pertinax.invariantring import invariant_radical_table, invariants_basis, normality_check
from pertinax.scalars import cyclotomic_field
from pertinax.skewgroup import (
    GradedIdealTable,
    letter_closure,
    one_sided_generators,
    oracle_radical,
)

from fixture_cases import fixture_pairs
from product_reference import (
    pair_invariant_generators,
    pair_normal_in_R,
    pair_product_rows,
    word_letter_closed,
)

KINDS = ("two_sided", "left", "right", "full", "span")


@st.composite
def algebras(draw):
    """A random quantum affine space, a down-up algebra, or the algebra on x
    of degree 1 and w of degree 2, free or with w x = q x w."""
    m = draw(st.sampled_from((2, 3, 4, 6)))
    field = cyclotomic_field(m)
    zeta = field.zeta()
    D = draw(st.integers(2, 5))
    kind = draw(st.sampled_from(("quantum", "downup", "weighted")))
    if kind == "quantum":
        n = draw(st.integers(2, 3))
        q = [[field.one] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                e = draw(st.integers(0, m - 1))
                q[i][j] = zeta**e
                q[j][i] = zeta ** (m - e)
        return make_quantum_affine(field, q, D)
    if kind == "downup":
        alpha, beta = draw(st.sampled_from(((0, 1), (2, -1), (1, 1), (-1, 1))))
        return make_downup(field, alpha, beta, D)
    e = draw(st.one_of(st.none(), st.integers(0, m - 1)))
    if e is None:
        return make_free(field, ["x", "w"], D, degrees=[1, 2])
    alphabet = Alphabet(["x", "w"], [1, 2])
    x = FreePoly.gen(alphabet, field, 0)
    w = FreePoly.gen(alphabet, field, 1)
    return make_presentation(field, ["x", "w"], [w * x - zeta**e * (x * w)], D, degrees=[1, 2])


@st.composite
def homogeneous_elements(draw, R):
    """One to three nonzero homogeneous elements of degree 1 to 3."""
    zeta = R.field.zeta()
    out = []
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.integers(1, min(3, R.D)))
        words = R.basis_words(d)
        if not words:
            continue
        terms = draw(
            st.lists(
                st.tuples(
                    st.integers(0, len(words) - 1),
                    st.integers(-2, 2).filter(bool),
                    st.integers(0, R.field.m - 1),
                ),
                min_size=1,
                max_size=3,
            )
        )
        elem = R.zero()
        for k, c, e in terms:
            elem = elem + R.from_word(words[k]) * (zeta**e * c)
        if elem:
            out.append(elem)
    return out


def build_table(R, kind, gens):
    D = R.D
    if kind == "full":
        return GradedIdealTable.full(R, D)
    if kind == "two_sided":
        return GradedIdealTable.ideal_from_generators(R, gens, D)
    if kind == "span":
        return GradedIdealTable.from_elements(R, D, gens)
    multiples = []
    for g in gens:
        for e in range(D - g.degree() + 1):
            for w in R.basis_words(e):
                u = R.from_word(w)
                multiples.append(u * g if kind == "left" else g * u)
    return GradedIdealTable.from_elements(R, D, multiples)


def reference_table(I, J):
    return GradedIdealTable(I.algebra, I.D, pair_product_rows(I, J), "user")


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_product_matches_pair_reference(data):
    R = data.draw(algebras())
    kind_i, kind_j = data.draw(st.tuples(st.sampled_from(KINDS), st.sampled_from(KINDS)))
    I = build_table(R, kind_i, data.draw(homogeneous_elements(R)))
    J = build_table(R, kind_j, data.draw(homogeneous_elements(R)))
    # the case selection never misses a one-sided ideal: a left ideal I
    # closes on the left and a right ideal J on the right, whatever the other
    if kind_i in ("two_sided", "left", "full"):
        assert one_sided_generators(I, left=True) is not None
    if kind_j in ("two_sided", "right", "full"):
        assert one_sided_generators(J, left=False) is not None
    assert I.product(J).rows == reference_table(I, J).rows


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_closure_matches_pair_reference(data):
    """Every kind of table closes to the products with R on either side,
    and is a two-sided ideal exactly when its letter multiples stay in it."""
    R = data.draw(algebras())
    gens = data.draw(homogeneous_elements(R))
    full = GradedIdealTable.full(R, R.D)
    for kind in KINDS:
        T = build_table(R, kind, gens)
        RT = reference_table(full, T)
        assert T.closure(False, True).rows == reference_table(T, full).rows, kind
        assert T.closure(True, False).rows == RT.rows, kind
        assert T.closure(True, True).rows == reference_table(RT, full).rows, kind
        assert T.is_two_sided_ideal_upto() == word_letter_closed(T), kind
    tagged = GradedIdealTable.from_elements(R, R.D, gens, tag="constructive")
    assert tagged.closure(True, True).tag == "constructive"


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_normality_in_R_matches_pair_reference(data):
    R = data.draw(algebras())
    elems = data.draw(homogeneous_elements(R))
    got = [r["in_R"] for r in normality_check(elems, R, R.D)]
    assert got == [pair_normal_in_R(a, R.D) for a in elems]


def test_product_case_selection(QQ):
    R = make_free(QQ, ["x", "y"], 4)
    x, y = R.gens()
    one = QQ.one.raw
    full = GradedIdealTable.full(R, 4)
    unit = [[(0, {0: one})]] + [[] for _ in range(4)]
    assert one_sided_generators(full, left=True) == unit
    assert one_sided_generators(full, left=False) == unit
    words = [R.from_word(w) for e in range(4) for w in R.basis_words(e)]
    left = GradedIdealTable.from_elements(R, 4, [w * x for w in words])
    right = GradedIdealTable.from_elements(R, 4, [x * w for w in words])
    span = GradedIdealTable.from_elements(R, 4, [x, x * y])
    # R x is a left ideal only, x R a right ideal only, span(x, xy) neither
    assert one_sided_generators(left, left=True)[1] == [(0, R.coords(x, 1))]
    assert one_sided_generators(left, left=False) is None
    assert one_sided_generators(right, left=False) is not None
    assert one_sided_generators(right, left=True) is None
    assert one_sided_generators(span, left=True) is None
    assert one_sided_generators(span, left=False) is None
    for I in (full, left, right, span):
        for J in (full, left, right, span):
            assert I.product(J).rows == reference_table(I, J).rows


def test_invariant_generators_match_pair_reference_on_fixtures():
    D = 8
    seen = 0
    for name, R, G in fixture_pairs(D):
        inv = invariants_basis(R, G, D)
        assert inv.generators == pair_invariant_generators(inv), name
        elems = [g for g, _ in inv.generators] + [g for g in R.gens() if g]
        got = [r["in_R"] for r in normality_check(elems, R, D, inv=inv)]
        assert got == [pair_normal_in_R(a, D) for a in elems], name
        seen += 1
    assert seen >= 9


def _letters_as_multipliers(R):
    return [(d, R.coords(x, d)) for x, d in zip(R.gens(), R.alphabet.degrees)]


def test_invariant_radical_powers_match_pair_reference_on_fixtures():
    """a^s a over the invariant generators, as in ``cofinality_check``."""
    D = 8
    seen = 0
    for name, R, G in fixture_pairs(D):
        inv = invariants_basis(R, G, D)
        aa = invariant_radical_table(R, G, D, inv=inv)
        if aa.is_zero():
            continue
        gens = [(d, R.coords(g, d)) for g, d in inv.generators]
        power = aa
        for s in range(1, 4):
            # a is an ideal of the invariant ring, so the closure path is taken
            assert one_sided_generators(power, left=True, multipliers=gens) is not None, name
            expected = reference_table(power, aa)
            assert power.product(aa, multipliers=gens).rows == expected.rows, (name, s)
            power = expected
        seen += 1
    assert seen >= 9


def test_product_over_multipliers_falls_back_when_not_closed():
    """The letters, given as multipliers, do not preserve a: every pair is
    multiplied.  They do preserve the radical, a two-sided ideal, so its
    square closes over them."""
    D = 8
    seen = 0
    for name, R, G in fixture_pairs(D):
        inv = invariants_basis(R, G, D)
        radical = oracle_radical(R, G, D)
        aa = invariant_radical_table(R, G, D, radical=radical, inv=inv)
        if aa.is_zero():
            continue
        letters = _letters_as_multipliers(R)
        assert one_sided_generators(aa, left=True, multipliers=letters) is None, name
        assert aa.product(aa, multipliers=letters).rows == reference_table(aa, aa).rows, name
        assert one_sided_generators(radical, left=True, multipliers=letters) is not None, name
        square = radical.product(radical, multipliers=letters)
        assert square.rows == reference_table(radical, radical).rows, name
        seen += 1
    assert seen >= 9


def test_closure_over_letters_as_multipliers_matches_letters():
    for name, R, G in fixture_pairs(6):
        inv = invariants_basis(R, G, 6)
        seeds = {d: [row for _, row in inv.rows[d]] for d in (1, 2)}
        letters = _letters_as_multipliers(R)
        for left, right in ((True, False), (False, True), (True, True)):
            by_letters = letter_closure(R, lambda d: seeds.get(d, ()), 6, left, right)
            by_elements = letter_closure(
                R, lambda d: seeds.get(d, ()), 6, left, right, multipliers=letters
            )
            assert by_elements == by_letters, (name, left, right)


def _closure_case(I, J, multipliers=None):
    """(I closed on the left, J closed on the right) over the multipliers."""
    return (
        one_sided_generators(I, left=True, multipliers=multipliers) is not None,
        one_sided_generators(J, left=False, multipliers=multipliers) is not None,
    )


ALL_CASES = {(True, True), (True, False), (False, True), (False, False)}


def test_product_closure_cases_over_letters(QQ):
    """R (x + y) by (y + z) R on the skew 3-space: a left ideal times a right
    ideal, neither two-sided (x and y are normal there, x + y is not), closes
    on both sides from the seed (x + y)(y + z).  With spans in place of
    either factor it closes on one side or on none."""
    R = make_skew_symmetric(QQ, 3, 6)
    x, y, z = R.gens()
    words = [R.from_word(w) for e in range(6) for w in R.basis_words(e)]
    left = GradedIdealTable.from_elements(R, 6, [w * (x + y) for w in words])
    right = GradedIdealTable.from_elements(R, 6, [(y + z) * w for w in words])
    assert not left.is_two_sided_ideal_upto() and not right.is_two_sided_ideal_upto()
    span_left = GradedIdealTable.from_elements(R, 6, [x + y, z * (x + y)])
    span_right = GradedIdealTable.from_elements(R, 6, [y + z, (y + z) * x])
    cases = set()
    for I in (left, span_left):
        for J in (right, span_right):
            cases.add(_closure_case(I, J))
            assert I.product(J).rows == reference_table(I, J).rows
    assert cases == ALL_CASES
    assert one_sided_generators(left, left=True)[1] == [(0, R.coords(x + y, 1))]


def test_product_closure_cases_over_invariant_generators():
    """a (closed on both sides over the invariant generators), its left
    closure of one row, and spans of rows of a: every product of two of them
    over the invariant generators against the pairwise reference, meeting
    all four closure cases across the fixtures."""
    D = 6
    seen = set()
    for name, R, G in fixture_pairs(D):
        inv = invariants_basis(R, G, D)
        aa = invariant_radical_table(R, G, D, inv=inv)
        d0, _ = aa.first_nonzero()
        if d0 is None:
            continue
        gens = [(d, R.coords(g, d)) for g, d in inv.generators]
        row = [dict(aa.rows[d0][-1][1])]
        left = letter_closure(R, lambda d: row if d == d0 else (), D, True, False, gens)
        tables = [
            aa,
            GradedIdealTable(R, D, left, "user"),
            GradedIdealTable.from_elements(R, D, aa.polys(d0)[:1]),
            GradedIdealTable.from_elements(R, D, aa.polys(d0)[-1:] + aa.polys(d0 + 1)[:1]),
        ]
        for I in tables:
            for J in tables:
                seen.add(_closure_case(I, J, gens))
                assert I.product(J, multipliers=gens).rows == reference_table(I, J).rows, name
    assert seen == ALL_CASES


def test_one_sided_memo_does_not_depend_on_call_order():
    """a is not closed under the letters but is under the invariant
    generators; the answers kept on the table are the same in either order."""
    for name, R, G in fixture_pairs(6):
        inv = invariants_basis(R, G, 6)
        aa = invariant_radical_table(R, G, 6, inv=inv)
        if aa.is_zero():
            continue
        letters = _letters_as_multipliers(R)
        gens = [(d, R.coords(g, d)) for g, d in inv.generators]
        first = GradedIdealTable(R, 6, aa.rows, "user")
        second = GradedIdealTable(R, 6, aa.rows, "user")
        by_letters = one_sided_generators(first, left=True, multipliers=letters)
        by_gens = one_sided_generators(first, left=True, multipliers=gens)
        assert by_letters is None and by_gens is not None, name
        assert one_sided_generators(second, left=True, multipliers=gens) == by_gens, name
        assert one_sided_generators(second, left=True, multipliers=letters) is None, name
        assert one_sided_generators(second, left=False, multipliers=letters) is None, name
        assert one_sided_generators(first, left=True, multipliers=letters) is None, name
