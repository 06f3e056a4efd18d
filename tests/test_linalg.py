"""Span containment by one rref against the definition, row by row."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from pertinax import linalg
from pertinax.scalars import cyclotomic_field

WIDTH = 6


@st.composite
def scalars(draw, field, rational):
    """A raw scalar c zeta^e with c a small nonzero fraction; e = 0 if rational."""
    c = Fraction(draw(st.integers(-3, 3).filter(bool)), draw(st.integers(1, 3)))
    e = 0 if rational else draw(st.integers(0, field.m - 1))
    return (field.zeta() ** e * c).raw


@st.composite
def rows(draw, field, rational, max_size):
    out = []
    for _ in range(draw(st.integers(0, max_size))):
        cols = draw(st.lists(st.integers(0, WIDTH - 1), min_size=1, max_size=WIDTH, unique=True))
        out.append({c: draw(scalars(field, rational)) for c in cols})
    return out


def _combination(field, vecs, coeffs):
    out: dict = {}
    for vec, c in zip(vecs, coeffs):
        for col, raw in vec.items():
            cur = out.get(col, field.zero)
            out[col] = cur + field.from_raw(c) * field.from_raw(raw)
    return {col: v.raw for col, v in out.items() if v}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_span_contains_matches_row_by_row_membership(data):
    m = data.draw(st.sampled_from((1, 2, 3)))
    field = cyclotomic_field(m)
    # over Q(zeta_3) the rows may hold non-rational entries
    rational = m != 3 or data.draw(st.booleans())
    super_rows = linalg.rref(field, data.draw(rows(field, rational, 4)))
    kind = data.draw(st.sampled_from(("contained", "outside", "random", "empty")))
    vecs = [row for _, row in super_rows]
    sub = []
    if kind in ("contained", "outside"):
        sub = [
            _combination(field, vecs, [data.draw(scalars(field, rational)) for _ in vecs])
            for _ in range(data.draw(st.integers(1, 3)))
        ]
    if kind == "outside":
        # a unit vector off the pivot columns is not in the span (rank <= 4 < WIDTH)
        pivots = {p for p, _ in super_rows}
        c = data.draw(st.sampled_from([c for c in range(WIDTH) if c not in pivots]))
        sub.append({c: data.draw(scalars(field, rational))})
    if kind == "random":
        sub = data.draw(rows(field, rational, 3))
    sub_rows = linalg.rref(field, sub)
    expected = all(linalg.in_span(field, row, super_rows) for _, row in sub_rows)
    assert linalg.span_contains(field, sub_rows, super_rows) == expected
    if kind in ("contained", "empty"):
        assert expected
    if kind == "outside":
        assert not expected
