"""The kernel's rref against a definition-level Fraction reference.

Rational matrices take the integer path of ``kernel.rref``, every other one
the elimination in Q(zeta); both must give the canonical RREF with every
entry a raw scalar in normal form.  The reference below is independent of
the kernel: it works over Q only, with ``Fraction`` Gauss-Jordan.  A matrix
M over Q(zeta) is blown up to the rational matrix whose rows are the power
basis coordinates of t^k * r for every row r of M and k < phi.  Its RREF
consists of the rows t^k * e for the rows e of the RREF of M, and t^k * e
has its pivot at coordinate k of e's pivot column, so the rows of M's RREF
are the blown-up RREF rows whose pivot sits at coordinate 0.

``kernel.row_reduce`` is checked against the same reference: its residue
modulo a reference RREF is judged by comparing reference RREFs.
"""

import ast
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from pertinax import kernel
from pertinax.scalars import cyclotomic_field

# conductors with phi = 1, 2 and 4
CONDUCTORS = (1, 2, 3, 4, 6, 5, 8, 12)


def fraction_rref(rows, width):
    """Gauss-Jordan on dense Fraction rows: ``[(pivot, row), ...]``."""
    rows = [list(r) for r in rows]
    rank = 0
    pivots = []
    for col in range(width):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [x / lead for x in rows[rank]]
        for i, row in enumerate(rows):
            if i != rank and row[col]:
                f = row[col]
                rows[i] = [x - f * y for x, y in zip(row, rows[rank])]
        pivots.append(col)
        rank += 1
    return list(zip(pivots, rows[:rank]))


def _times_t(coords, minpoly):
    # t^phi = -(minpoly[0] + ... + minpoly[phi-1] t^(phi-1))
    top = coords[-1]
    shifted = [Fraction(0)] + coords[:-1]
    return [s - top * c for s, c in zip(shifted, minpoly)]


def _raw(coords):
    den = lcm(*(c.denominator for c in coords))
    return (tuple(int(c * den) for c in coords), den)


def reference_rref(rows, minpoly):
    """Canonical RREF over Q(zeta) of raw-scalar rows, by the blow-up over Q."""
    phi = len(minpoly) - 1
    ncols = 1 + max((c for row in rows for c in row), default=-1)
    blown = []
    for row in rows:
        coords = {c: [Fraction(n, den) for n in nums] for c, (nums, den) in row.items()}
        for _ in range(phi):
            dense = [Fraction(0)] * (ncols * phi)
            for c, z in coords.items():
                dense[c * phi : (c + 1) * phi] = z
            blown.append(dense)
            coords = {c: _times_t(z, minpoly) for c, z in coords.items()}
    out = []
    for p, row in fraction_rref(blown, ncols * phi):
        if p % phi:
            continue
        vec = {}
        for c in range(ncols):
            z = row[c * phi : (c + 1) * phi]
            if any(z):
                vec[c] = _raw(z)
        out.append((p // phi, vec))
    return out


def _rational(f, phi):
    return ((f.numerator,) + (0,) * (phi - 1), f.denominator)


def _normal(nums, den):
    g = gcd(*nums, den)
    return (tuple(n // g for n in nums), den // g)


def assert_normal_form(echelon, phi, rational):
    for p, row in echelon:
        assert row[p] == ((1,) + (0,) * (phi - 1), 1)
        for nums, den in row.values():
            assert len(nums) == phi and den > 0 and gcd(*nums, den) == 1
            assert any(nums)
            if rational:
                assert not any(nums[1:])


fractions = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))


@st.composite
def rational_rows(draw, max_rows=7, max_cols=6):
    """Sparse Fraction rows plus scaled duplicates, zero and unit rows."""
    width = draw(st.integers(1, max_cols))
    base = draw(
        st.lists(
            st.dictionaries(st.integers(0, width - 1), fractions, max_size=width),
            max_size=max_rows,
        )
    )
    rows = [{c: f for c, f in row.items() if f} for row in base]
    if rows:
        picks = draw(st.lists(st.integers(0, len(rows) - 1), max_size=3))
        for i in picks:
            scale = draw(fractions.filter(bool))
            rows.append({c: f * scale for c, f in rows[i].items()})
    return draw(st.permutations(rows))


def _to_raw(rows, phi):
    return [{c: _rational(f, phi) for c, f in row.items()} for row in rows]


def _run(raw_rows, field):
    copies = [dict(r) for r in raw_rows]
    out = kernel.rref(copies, field.red, field.minpoly)
    assert copies == raw_rows  # the input rows are left as they were
    return out


@settings(max_examples=150, deadline=None)
@given(m=st.sampled_from(CONDUCTORS), rows=rational_rows())
def test_rational_rref_matches_reference(m, rows):
    field = cyclotomic_field(m)
    raw_rows = _to_raw(rows, field.phi)
    with mock.patch.object(kernel, "_integer_rref", wraps=kernel._integer_rref) as spy:
        out = _run(raw_rows, field)
    assert spy.call_count == 1
    assert out == reference_rref(raw_rows, field.minpoly)
    assert_normal_form(out, field.phi, rational=True)


@settings(max_examples=60, deadline=None)
@given(
    m=st.sampled_from([m for m in CONDUCTORS if cyclotomic_field(m).phi > 1]),
    rows=rational_rows(max_rows=5, max_cols=4),
    data=st.data(),
)
def test_one_non_rational_entry_takes_the_field_path(m, rows, data):
    field = cyclotomic_field(m)
    phi = field.phi
    raw_rows = _to_raw(rows, phi) or [{}]
    i = data.draw(st.integers(0, len(raw_rows) - 1))
    col = data.draw(st.integers(0, 4))
    nums = data.draw(st.lists(st.integers(-9, 9), min_size=phi, max_size=phi))
    nums[data.draw(st.integers(1, phi - 1))] = data.draw(st.integers(1, 9))
    raw_rows[i][col] = _normal(nums, data.draw(st.integers(1, 6)))
    with mock.patch.object(kernel, "_integer_rref", wraps=kernel._integer_rref) as spy:
        out = _run(raw_rows, field)
    assert spy.call_count == 0
    assert out == reference_rref(raw_rows, field.minpoly)
    assert_normal_form(out, phi, rational=False)


@settings(max_examples=60, deadline=None)
@given(m=st.sampled_from(CONDUCTORS), rows=rational_rows())
def test_integer_path_equals_field_path(m, rows):
    field = cyclotomic_field(m)
    raw_rows = _to_raw(rows, field.phi)
    integer = _run(raw_rows, field)
    with mock.patch.object(kernel, "_integer_rows", return_value=None):
        in_field = _run(raw_rows, field)
    assert integer == in_field


F = Fraction


# -- integer rows: the form callers build from rational data -------------------


def _to_int(row):
    """A Fraction row times the lcm of its denominators, as a plain-int row."""
    den = lcm(1, *(f.denominator for f in row.values()))
    return {c: int(f * den) for c, f in row.items()}


def _spied_run(rows, field):
    """``_run`` with both elimination paths spied on: (output, integer calls,
    field calls)."""
    with (
        mock.patch.object(kernel, "_integer_rref", wraps=kernel._integer_rref) as ints,
        mock.patch.object(kernel, "_field_rref", wraps=kernel._field_rref) as in_field,
    ):
        out = _run(rows, field)
    return out, ints.call_count, in_field.call_count


@settings(max_examples=100, deadline=None)
@given(m=st.sampled_from(CONDUCTORS), rows=rational_rows(), data=st.data())
def test_integer_rows_match_reference(m, rows, data):
    """Plain-int rows, alone or mixed with rational raw rows, take the
    integer path and give the reference RREF of the rows they stand for."""
    field = cyclotomic_field(m)
    raw_rows = _to_raw(rows, field.phi)
    as_int = data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    mixed = [_to_int(r) if flag else raw for r, raw, flag in zip(rows, raw_rows, as_int)]
    out, int_calls, field_calls = _spied_run(mixed, field)
    assert (int_calls, field_calls) == (1, 0)  # all-rational input never reaches the field
    assert out == reference_rref(raw_rows, field.minpoly)
    assert_normal_form(out, field.phi, rational=True)


@settings(max_examples=60, deadline=None)
@given(
    m=st.sampled_from([m for m in CONDUCTORS if cyclotomic_field(m).phi > 1]),
    rows=rational_rows(max_rows=5, max_cols=4),
    data=st.data(),
)
def test_integer_rows_with_a_non_rational_row_take_the_field_path(m, rows, data):
    field = cyclotomic_field(m)
    phi = field.phi
    nums = data.draw(st.lists(st.integers(-9, 9), min_size=phi, max_size=phi))
    nums[data.draw(st.integers(1, phi - 1))] = data.draw(st.integers(1, 9))
    odd = {data.draw(st.integers(0, 4)): _normal(nums, data.draw(st.integers(1, 6)))}
    int_rows = [_to_int(r) for r in rows]
    at = data.draw(st.integers(0, len(int_rows)))
    mixed = int_rows[:at] + [odd] + int_rows[at:]
    out, int_calls, field_calls = _spied_run(mixed, field)
    assert (int_calls, field_calls) == (0, 1)
    raw_rows = _to_raw(rows, phi)
    assert out == reference_rref(raw_rows[:at] + [odd] + raw_rows[at:], field.minpoly)
    assert_normal_form(out, phi, rational=False)


@pytest.mark.parametrize("m", [2, 3, 12])
def test_repeated_unit_rows_in_both_forms(m):
    """Single-entry rows, integer or raw, of any nonzero value, are kept once
    per column; rows with more entries are unaffected."""
    field = cyclotomic_field(m)
    raw = _to_raw([{3: F(5, 2)}, {1: F(-1)}, {0: F(1), 3: F(2)}], field.phi)
    rows = [{3: 4}, {3: -7}, raw[0], {1: 1}, raw[1], {3: 1}, raw[2], {0: 2, 3: 4}, {1: -3}]
    assert kernel._integer_rows(rows, field.phi) == [{3: 1}, {1: 1}, {0: 1, 3: 2}, {0: 2, 3: 4}]
    out, int_calls, field_calls = _spied_run(rows, field)
    assert (int_calls, field_calls) == (1, 0)
    unit = ((1,) + (0,) * (field.phi - 1), 1)
    assert out == [(0, {0: unit}), (1, {1: unit}), (3, {3: unit})]
    with mock.patch.object(kernel, "_integer_rows", return_value=None):
        assert _run(rows, field) == out  # the field path agrees


@pytest.mark.parametrize(
    "rows",
    [
        [],
        [{}, {}],
        [{0: F(1, 2)}, {0: F(-3)}, {0: F(5, 7)}],
        [{1: F(2), 3: F(-4, 3)}, {1: F(-1), 3: F(2, 3)}, {}],
        [{0: F(-6), 2: F(9)}, {0: F(4), 1: F(-1, 5), 2: F(-6)}, {2: F(3, 4)}],
        [{2: F(1)}, {0: F(1), 2: F(-1)}, {0: F(2)}, {2: F(7, 11)}],
    ],
    ids=["empty", "zero-rows", "one-column", "duplicate", "denominators", "unit-rows"],
)
@pytest.mark.parametrize("m", [2, 3, 12])
def test_rational_edge_cases(m, rows):
    field = cyclotomic_field(m)
    raw_rows = _to_raw(rows, field.phi)
    out = _run(raw_rows, field)
    assert out == reference_rref(raw_rows, field.minpoly)
    assert_normal_form(out, field.phi, rational=True)


def _coords(raw):
    nums, den = raw
    return [Fraction(n, den) for n in nums]


def _axpy(u, f, v, phi):
    """u + f v for raw-scalar vectors, computed over Fraction coordinates."""
    zero = ((0,) * phi, 1)
    out = {}
    for c in set(u) | set(v):
        z = [a + f * b for a, b in zip(_coords(u.get(c, zero)), _coords(v.get(c, zero)))]
        if any(z):
            out[c] = _raw(z)
    return out


@st.composite
def row_reduce_cases(draw):
    """A field, rows and a vector, with non-rational entries at phi > 1 when
    drawn so, and the vector a rational combination of the rows when drawn
    so."""
    field = cyclotomic_field(draw(st.sampled_from(CONDUCTORS)))
    phi = field.phi
    rows = _to_raw(draw(rational_rows(max_rows=5, max_cols=5)), phi)
    vec = _to_raw(
        [draw(st.dictionaries(st.integers(0, 5), fractions.filter(bool), max_size=4))], phi
    )[0]
    if phi > 1 and draw(st.booleans()):
        for target in rows + [vec]:
            if target and draw(st.booleans()):
                nums = draw(st.lists(st.integers(-9, 9), min_size=phi, max_size=phi))
                nums[draw(st.integers(1, phi - 1))] = draw(st.integers(1, 9))
                target[draw(st.sampled_from(sorted(target)))] = _normal(nums, 1)
    if rows and draw(st.booleans()):
        vec = {}
        for row in rows:
            vec = _axpy(vec, draw(fractions), row, phi)
    return field, rows, vec


@settings(max_examples=150, deadline=None)
@given(case=row_reduce_cases())
def test_row_reduce_matches_reference(case):
    """The residue of ``row_reduce`` modulo the reference RREF has no entry at
    a pivot column, differs from the vector by an element of the span, and
    is zero exactly when the vector lies in the span."""
    field, rows, vec = case
    echelon = reference_rref(rows, field.minpoly)
    original = dict(vec)
    residue = kernel.row_reduce(vec, echelon, field.red)
    assert vec == original
    assert not set(residue) & {p for p, _ in echelon}
    for nums, den in residue.values():
        assert any(nums) and den > 0 and gcd(*nums, den) == 1
    basis = [row for _, row in echelon]
    assert reference_rref(basis + [_axpy(vec, -1, residue, field.phi)], field.minpoly) == echelon
    in_span = reference_rref(basis + [vec], field.minpoly) == echelon
    assert (not residue) == in_span


# -- every echelon call goes through the module attribute ------------------------

SRC = Path(__file__).resolve().parent.parent / "src" / "pertinax"
PRIVATE = {"_integer_rref", "_integer_rows", "_field_rref"}
WRAPPED = {"rref", "row_reduce"}


def _bypasses(tree):
    """Names in a module that reach the elimination without ``kernel.rref``
    or ``kernel.row_reduce``: the kernel's private paths, by any route, and
    the wrapped functions imported by name (a binding a wrapper of the
    module attribute does not see)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in PRIVATE:
            found.append(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in PRIVATE:
            found.append(node.attr)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "kernel":
            found += [a.name for a in node.names if a.name in WRAPPED | PRIVATE]
    return found


def test_echelon_calls_go_through_the_kernel_module():
    """``perfbench/tracer.py`` wraps ``kernel.rref`` and ``kernel.row_reduce``
    and records every call; outside the kernel no module may go round them."""
    files = sorted(p for p in SRC.rglob("*.py") if p != SRC / "kernel.py")
    assert len(files) >= 10
    for path in files:
        assert _bypasses(ast.parse(path.read_text())) == [], path.name
    bad = (
        "from .kernel import rref\n"
        "from pertinax.kernel import row_reduce\n"
        "kernel._integer_rows(r, 1)\n"
    )
    assert _bypasses(ast.parse(bad)) == ["rref", "row_reduce", "_integer_rows"]
