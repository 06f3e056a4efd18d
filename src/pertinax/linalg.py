"""Exact sparse linear algebra over the session field.

Vectors are dicts ``column -> raw scalar``; spans are kept in canonical
reduced row echelon form so that equality of subspaces is equality of the
stored rows.  Everything delegates the arithmetic to the kernel backend.

Linear maps on a graded component (letter and multiplier images, group
action columns) are lists of column vectors in one of two forms, a pair
``(den, vecs)``: ``den`` None means ``vecs`` holds raw scalars, and an int
``den`` means every image is rational and column j is ``vecs[j] / den``
with ``vecs[j]`` a dict ``column -> int``.  Rational maps are kept in the
integer form only, so their rows reach ``kernel.rref`` as integers.

Closures and containment checks carry a span in unit form, a pair
``(units, echelon)``: ``units`` is the set of columns c whose unit vector
e_c lies in the span, and ``echelon`` is the rest of its canonical RREF.
This is exact.  A vector of the span is the sum of the RREF rows weighted
by its entries at the pivots.  So if e_c lies in the span, c is a pivot,
its row is e_c, and every other row is 0 at c.  Hence

    RREF(units + rows) = {e_c : c in units} + RREF(rows minus the unit columns),

the one-entry rows of the second part are new units, already cleared from
its other rows, and e_c lies in the span exactly when c is a unit.  A
unit then costs a set entry instead of a dict through ``kernel.rref``;
``join_units`` gives the canonical RREF back.  For the diagonal actions on
quantum affine spaces every table is spanned by monomials, so almost every
row is a unit.
"""

from __future__ import annotations

from math import lcm
from operator import itemgetter

from . import kernel


def rref(field, rows):
    return kernel.rref(rows, field.red, field.minpoly)


def reduce_vec(field, vec, rrows):
    return kernel.row_reduce(vec, rrows, field.red)


def in_span(field, vec, rrows) -> bool:
    return not reduce_vec(field, vec, rrows)


def span_contains(field, sub_rows, super_rows) -> bool:
    """Whether the rows of ``sub_rows`` lie in the span of ``super_rows``.

    ``super_rows`` must be a canonical RREF; it is read in unit form
    (``split_units``), and ``unit_form_contains`` decides.
    """
    return unit_form_contains(field, *split_units(super_rows), [row for _, row in sub_rows])


def split_units(echelon):
    """The unit form ``(units, rows)`` of a canonical RREF: the pivots of its
    one-entry rows, and the list of its other rows."""
    units = set()
    rows = []
    for p, row in echelon:
        if len(row) == 1:
            units.add(p)
        else:
            rows.append((p, row))
    return units, rows


def _without_units(units, rows):
    """The rows with their entries at the unit columns deleted.

    A row that touches no unit column is passed on as it is, after one
    ``isdisjoint`` test, so spans without units pay almost nothing.
    """
    if not units:
        return rows
    isdisjoint = units.isdisjoint
    return [
        row if isdisjoint(row) else {c: v for c, v in row.items() if c not in units}
        for row in rows
    ]


def unit_rref(field, units, rows):
    """The unit form of the span of e_c (c in ``units``) and ``rows``.

    Only the rows, minus the unit columns, reach ``kernel.rref``; the
    pivots of its one-entry rows join ``units``, which is updated in place
    and returned with the other rows of the echelon form.
    """
    new, echelon = split_units(rref(field, _without_units(units, rows)))
    units |= new
    return units, echelon


def unit_form_contains(field, units, echelon, rows) -> bool:
    """Whether ``rows`` lie in the span with unit form ``(units, echelon)``.

    A one-entry row e_c lies in it exactly when c is a unit: a subset
    test.  Any other row lies in it exactly when the row minus the unit
    columns lies in the span of ``echelon``, which is 0 at every unit
    column; those rows leave the canonical RREF ``echelon`` unchanged
    exactly when they lie in its span, so one rref decides them all (on
    the kernel's integer path when every entry is rational).
    """
    general = []
    for row in rows:
        if len(row) == 1:
            if units.isdisjoint(row):
                return False
        else:
            general.append(row)
    general = [row for row in _without_units(units, general) if row]
    if not general:
        return True
    return rref(field, [row for _, row in echelon] + general) == echelon


def join_units(field, units, echelon):
    """The canonical RREF of the span with unit form ``(units, echelon)``."""
    if not units:
        return echelon
    one = field.one.raw
    out = [(c, {c: one}) for c in units]
    out += echelon
    out.sort(key=itemgetter(0))
    return out


def trailing_block_rows(field, rows, split):
    """RREF the rows and keep those supported on columns >= split, shifted.

    With rows of the form ``[T(v) | V(v)]`` over a spanning set of v, the
    returned rows are a canonical basis of ``{V(v) : T(v) = 0}``: the image
    of the kernel of T under V.  It drives kernels and subspace
    intersections; the radical oracle applies ``trailing_rows`` to the
    echelon forms of its closure.
    """
    return trailing_rows(rref(field, rows), split)


def trailing_rows(echelon, split):
    """The rows of an RREF with pivot at column >= split, shifted by split.

    Such rows vanish on every column below split, so they are a canonical
    basis of the part of the row space supported on the trailing block.
    """
    out = []
    for p, row in echelon:
        if p >= split:
            out.append((p - split, {c - split: v for c, v in row.items()}))
    return out


def kernel_rows(field, columns, n, codim):
    """Canonical basis of the kernel of a linear map given by its columns.

    ``columns[j]`` is the sparse image of the j-th domain basis vector in a
    codim dimensional codomain; the kernel is returned as RREF rows over the
    n domain coordinates.
    """
    rows = []
    one = field.one.raw
    for j in range(n):
        row = dict(columns[j])
        row[codim + j] = one
        rows.append(row)
    return trailing_block_rows(field, rows, codim)


def intersect_rows(field, rows1, rows2, width):
    """Zassenhaus intersection of two row spaces inside a width-column space."""
    stacked = []
    for _, row in rows1:
        double = dict(row)
        for c, v in row.items():
            double[c + width] = v
        stacked.append(double)
    for _, row in rows2:
        stacked.append(dict(row))
    return trailing_block_rows(field, stacked, width)


def sum_rows(field, rows1, rows2):
    return rref(field, [dict(r) for _, r in rows1] + [dict(r) for _, r in rows2])


# -- maps in integer or raw form ------------------------------------------------


def integer_form(vecs):
    """``(den, int_vecs)`` with vecs[j] = int_vecs[j] / den, or None.

    ``vecs`` are raw vectors; den is the lcm of their denominators, and
    None is returned when an entry has a nonzero zeta coordinate.
    """
    den = 1
    for vec in vecs:
        for nums, d in vec.values():
            if any(nums[1:]):
                return None
            if d != 1:
                den = lcm(den, d)
    return den, [{c: nums[0] * (den // d) for c, (nums, d) in vec.items()} for vec in vecs]


def raw_vectors(form, field):
    """The raw vectors of a map in either form (the cached list when raw)."""
    den, vecs = form
    if den is None:
        return vecs
    zeros = [0] * (field.phi - 1)
    return [{c: kernel.q_normalize([v] + zeros, den) for c, v in vec.items()} for vec in vecs]


def map_vector(form, vec, field):
    """The image of a raw vector under a map in either form, as a raw vector.

    Int products (``kernel.int_axpy``) when the map and the vector are both
    rational; otherwise raw products, with only the columns the vector
    reads converted from an integer form.
    """
    den, maps = form
    ivec = integer_form([vec]) if den is not None else None
    if ivec is not None:
        acc: dict = {}
        for c, a in ivec[1][0].items():
            kernel.int_axpy(acc, a, maps[c])
        return raw_vectors((den * ivec[0], [acc]), field)[0]
    cols = list(vec)
    acc = {}
    for c, image in zip(cols, raw_vectors((den, [maps[c] for c in cols]), field)):
        kernel.dict_axpy(acc, vec[c], image, field.red)
    return acc


def common_arithmetic(forms, field, signs=None):
    """One arithmetic for a signed sum of maps given in either form.

    Returns ``(unit, scales, vecs, axpy)`` such that, for every j, the sum
    over i of ``axpy(acc, scales[i], vecs[i][j])`` adds L times the sum of
    ``signs[i]`` (default 1) times the image of j under map i, with unit
    standing for L times the identity.  When every form is an integer form,
    L is the lcm of their denominators, the vecs are the integer vectors
    and axpy is ``kernel.int_axpy``, so rows built this way are integer
    rows.  Otherwise L = 1 and everything is raw, with axpy
    ``kernel.dict_axpy`` over the field.  Either way the rows span the same
    lines as the raw sums.
    """
    if signs is None:
        signs = [1] * len(forms)
    if all(den is not None for den, _ in forms):
        unit = lcm(1, *(den for den, _ in forms))
        scales = [s * (unit // den) for s, (den, _) in zip(signs, forms)]
        return unit, scales, [v for _, v in forms], kernel.int_axpy
    scales = [field.scalar(s).raw for s in signs]
    return field.one.raw, scales, [raw_vectors(f, field) for f in forms], field_axpy(field)


def field_axpy(field):
    """``kernel.dict_axpy`` over the field, with the signature of ``int_axpy``."""
    red = field.red

    def axpy(acc, c, terms):
        return kernel.dict_axpy(acc, c, terms, red)

    return axpy


def scaled_integer_rows(echelon):
    """Each row of an echelon list times the lcm of its denominators, as an
    integer dict; None if an entry is not rational."""
    out = []
    for _, row in echelon:
        den = 1
        for nums, d in row.values():
            if any(nums[1:]):
                return None
            if d != 1:
                den = lcm(den, d)
        if den == 1:
            out.append({c: nums[0] for c, (nums, _) in row.items()})
        else:
            out.append({c: nums[0] * (den // d) for c, (nums, d) in row.items()})
    return out
