"""Exact sparse linear algebra over the session field.

Vectors are dicts ``column -> raw scalar``; spans are kept in canonical
reduced row echelon form so that equality of subspaces is equality of the
stored rows.  Everything delegates the arithmetic to the kernel backend.
"""

from __future__ import annotations

from . import kernel


def rref(field, rows):
    return kernel.rref(rows, field.red, field.minpoly)


def reduce_vec(field, vec, rrows):
    return kernel.row_reduce(vec, rrows, field.red)


def in_span(field, vec, rrows) -> bool:
    return not reduce_vec(field, vec, rrows)


def span_contains(field, sub_rows, super_rows) -> bool:
    """Whether the rows of ``sub_rows`` lie in the span of ``super_rows``.

    ``super_rows`` must be a canonical RREF.  The span contains the sub rows
    exactly when adding them leaves the canonical RREF unchanged, so one
    rref decides it (on the kernel's integer path when every entry is
    rational) instead of a reduction per row.
    """
    if not sub_rows:
        return True
    stacked = [row for _, row in super_rows] + [row for _, row in sub_rows]
    return rref(field, stacked) == list(super_rows)


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
