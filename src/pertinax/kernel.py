"""Arithmetic kernel: cyclotomic scalars, sparse rows and their echelon form.

Scalars of the cyclotomic field Q(zeta_m) are raw pairs ``(nums, den)``:
``nums`` is a tuple of ``phi(m)`` integers (coordinates in the power basis
``1, t, ..., t^(phi-1)`` modulo the m-th cyclotomic polynomial) and ``den``
is a positive integer denominator.  Normal form: ``gcd(*nums, den) == 1``
and the zero scalar is ``((0,...,0), 1)``.

Two context objects parameterize the field and are passed explicitly:

* ``red`` -- tuple of integer coefficient tuples; ``red[k]`` is the power
  basis expansion of ``t^(phi+k)`` for ``k = 0 .. phi-2``.
* ``minpoly`` -- integer coefficients of the cyclotomic polynomial,
  lowest degree first, length ``phi+1``, monic.

``rref`` takes two row forms, which may be mixed in one call: raw rows,
dicts ``column -> raw scalar``, and integer rows, dicts ``column -> int``
with nonzero entries that callers build from rational data with
``int_axpy``, the integer twin of ``dict_axpy`` (an integer row stands for
the same entries as raw scalars; only its span matters to the echelon
form).  It eliminates a matrix whose entries are all rational (every zeta
coordinate zero, and every entry of an integer row) over the integers
instead, fraction-free: most matrices of real runs are such, even over
Q(zeta_3) or Q(zeta_6), and integer steps skip the cyclotomic products and
the normalisation of every intermediate scalar.  It is exact with no check
or fallback, because the RREF over Q of a rational matrix is its RREF over
Q(zeta); the output is the same raw scalars in normal form.

Callers reach ``rref`` and ``row_reduce`` through this module's attributes
and no function here calls either by its global name, so wrapping the
module attribute (as ``perfbench/tracer.py`` does) sees every call.
"""

from fractions import Fraction
from math import gcd

# the only backend; benchmark results record it so runs stay comparable
BACKEND = "python"


def q_normalize(nums, den):
    """Normalize a coefficient list and denominator into a raw scalar."""
    if den == 0:
        raise ZeroDivisionError("scalar with zero denominator")
    g = den
    for n in nums:
        g = gcd(g, n)
        if g == 1:
            break
    if g == 0:
        return (tuple(0 for _ in nums), 1)
    if den < 0:
        g = -g
    if g != 1:
        return (tuple(n // g for n in nums), den // g)
    return (tuple(nums), den)


def q_is_zero(a):
    for n in a[0]:
        if n:
            return False
    return True


def q_neg(a):
    return (tuple(-n for n in a[0]), a[1])


def q_add(a, b):
    na, da = a
    nb, db = b
    if da == db:
        return q_normalize([x + y for x, y in zip(na, nb)], da)
    return q_normalize([x * db + y * da for x, y in zip(na, nb)], da * db)


def q_sub(a, b):
    na, da = a
    nb, db = b
    if da == db:
        return q_normalize([x - y for x, y in zip(na, nb)], da)
    return q_normalize([x * db - y * da for x, y in zip(na, nb)], da * db)


def q_mul(a, b, red):
    na, da = a
    nb, db = b
    phi = len(na)
    if phi == 1:
        return q_normalize((na[0] * nb[0],), da * db)
    conv = [0] * (2 * phi - 1)
    for i, x in enumerate(na):
        if x:
            for j, y in enumerate(nb):
                if y:
                    conv[i + j] += x * y
    # fold powers t^(phi+k) back into the power basis
    out = conv[:phi]
    for k in range(phi - 1):
        c = conv[phi + k]
        if c:
            row = red[k]
            for i in range(phi):
                r = row[i]
                if r:
                    out[i] += c * r
    return q_normalize(out, da * db)


def q_inv(a, minpoly):
    """Invert a nonzero scalar by the extended Euclidean algorithm in Q[t]."""
    if q_is_zero(a):
        raise ZeroDivisionError("inversion of zero scalar")
    phi = len(a[0])
    if phi == 1:
        n, d = a[0][0], a[1]
        if n < 0:
            return ((-d,), -n)
        return ((d,), n)
    r0 = [Fraction(c) for c in minpoly]
    r1 = [Fraction(n, a[1]) for n in a[0]]
    while r1 and r1[-1] == 0:
        r1.pop()
    s0 = [Fraction(0)]
    s1 = [Fraction(1)]
    while len(r1) > 1:
        q, rem = _poly_divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
    c = r1[0]  # nonzero constant: the minimal polynomial is irreducible
    inv = [x / c for x in s1]
    inv.extend(Fraction(0) for _ in range(phi - len(inv)))
    den = 1
    for x in inv:
        den = den * x.denominator // gcd(den, x.denominator)
    return q_normalize([int(x * den) for x in inv[:phi]], den)


def _poly_divmod(a, b):
    a = list(a)
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    inv_lead = 1 / b[-1]
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] * inv_lead
        if c:
            q[i] = c
            for j, bc in enumerate(b):
                a[i + j] -= c * bc
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return q, a


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _poly_sub(a, b):
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] -= x
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def dict_axpy(acc, c, terms, red):
    """In place sparse update ``acc += c * terms``; drops zero entries."""
    for k, v in terms.items():
        cur = acc.get(k)
        if cur is None:
            w = q_mul(c, v, red)
            if not q_is_zero(w):
                acc[k] = w
        else:
            w = q_add(cur, q_mul(c, v, red))
            if q_is_zero(w):
                del acc[k]
            else:
                acc[k] = w
    return acc


def int_axpy(acc, c, terms):
    """In place sparse update ``acc += c * terms`` over plain ints; drops zeros."""
    for k, v in terms.items():
        w = acc.get(k, 0) + c * v
        if w:
            acc[k] = w
        else:
            del acc[k]
    return acc


def row_reduce(vec, rows, red):
    """Residue of a sparse vector modulo rows in reduced echelon form.

    ``rows`` is a list of ``(pivot_col, rowdict)`` sorted by pivot column,
    each row monic at its pivot and with no entries at other pivot columns.
    Each step subtracts c times the pivot row, c the entry at its pivot;
    the row is monic, so that entry becomes c - c = 0 and is dropped.
    """
    vec = dict(vec)
    for p, prow in rows:
        c = vec.get(p)
        if c is not None:
            dict_axpy(vec, q_neg(c), prow, red)
    return vec


def rref(rows, red, minpoly):
    """Reduced row echelon form of sparse rows over the cyclotomic field.

    Input rows are dicts ``column -> raw scalar`` or ``column -> int`` (see
    the module docstring), in any mix; the result is the canonical list of
    ``(pivot_col, rowdict)`` sorted by pivot column, with raw-scalar
    entries, unit pivots and zeros above and below every pivot.
    Canonicity makes equality of row spaces testable as equality of
    outputs.  The input rows are left as they were.

    When every entry is rational, the rows go to the integer path:
    ``_integer_rows`` clears the denominators of raw rows and takes integer
    rows as they are, and ``_integer_rref`` eliminates fraction-free over
    Z.  A matrix with any non-rational entry goes to ``_field_rref`` whole,
    its integer rows as raw scalars.  The two paths give identical output:
    no step of either leaves the row space (rows are scaled by nonzero
    rationals, multiples of other rows are added, and repeats of a unit
    row are dropped), the RREF of a row space is unique, and the RREF over
    Q of a rational matrix is also its RREF over Q(zeta).
    """
    rows = list(rows)
    phi = len(minpoly) - 1
    int_rows = _integer_rows(rows, phi)
    if int_rows is not None:
        return _integer_rref(int_rows, phi)
    return _field_rref(rows, red, minpoly)


def _field_rref(rows, red, minpoly):
    """Gauss-Jordan elimination in Q(zeta), integer rows read as raw scalars."""
    zeros = (0,) * (len(minpoly) - 2)
    pivots = {}
    for row in rows:
        if row and type(next(iter(row.values()))) is int:
            row = {col: ((v,) + zeros, 1) for col, v in row.items()}
        else:
            row = dict(row)
        while row:
            lead = min(row)
            prow = pivots.get(lead)
            if prow is None:
                break
            # prow is monic at lead, so this clears the entry there
            dict_axpy(row, q_neg(row[lead]), prow, red)
        if not row:
            continue
        lead = min(row)
        inv = q_inv(row[lead], minpoly)
        row = {col: q_mul(inv, v, red) for col, v in row.items()}
        pivots[lead] = row
    # back substitution, highest pivot first, yields the Jordan form
    for p in sorted(pivots, reverse=True):
        row = pivots[p]
        for q in [c for c in row if c != p and c in pivots]:
            dict_axpy(row, q_neg(row[q]), pivots[q], red)
    return [(p, pivots[p]) for p in sorted(pivots)]


def _integer_rows(rows, phi):
    """The rows as new integer dicts, if every entry is rational.

    An integer row is copied.  A raw row is scaled by the lcm of its denominators, so it
    spans the same line.  A row with a single entry at column c spans the
    line of the unit vector e_c and is kept once per c, whichever form it
    came in.  Returns ``None`` at the first raw entry with a nonzero zeta
    coordinate.
    """
    out = []
    units = set()
    for row in rows:
        if len(row) > 1:
            if type(next(iter(row.values()))) is int:
                out.append(dict(row))
                continue
            den = 1
            for nums, d in row.values():
                if phi > 1 and any(nums[1:]):
                    return None
                if d != 1:
                    den = den * d // gcd(den, d)
            row = {c: nums[0] * (den // d) for c, (nums, d) in row.items() if nums[0]}
            if len(row) > 1:
                out.append(row)
                continue
        if not row:
            continue
        ((c, v),) = row.items()
        if type(v) is not int:
            if phi > 1 and any(v[0][1:]):
                return None
            if not v[0][0]:
                continue
        if c not in units:
            units.add(c)
            out.append({c: 1})
    return out


def _primitive(row, lead):
    """Divide a nonzero integer row by its content, leading entry positive."""
    g = gcd(*row.values())
    if row[lead] < 0:
        g = -g
    if g != 1:
        return {c: v // g for c, v in row.items()}
    return row


def _clear(row, prow, q):
    """Fraction-free step: zero entry q of ``row`` with the pivot row at q.

    With a = prow[q], c = row[q] and g = gcd(a, c) this is
    row <- (a/g) row - (c/g) prow.  ``row`` loses its entry at q in place;
    the result may be a new dict.
    """
    c = row.pop(q)
    a = prow[q]
    g = gcd(a, c)
    if g != 1:
        a //= g
        c //= g
    if a != 1:
        row = {col: a * v for col, v in row.items()}
    for col, v in prow.items():
        if col != q:
            w = row.get(col, 0) - c * v
            if w:
                row[col] = w
            else:
                del row[col]
    return row


def _integer_rref(rows, phi):
    """Canonical RREF of integer rows, as raw scalars with ``phi`` coordinates.

    Fraction-free Gauss-Jordan elimination (cf. Bareiss, Math. Comp. 1968):
    every step is ``_clear``, which scales a row by a nonzero integer and
    subtracts a multiple of a pivot row.  Pivot rows are stored primitive
    with a positive leading entry a, and dividing by a at the end gives the
    unit-pivot rows in normal form.
    """
    pivots = {}
    for row in rows:
        while row:
            lead = min(row)
            prow = pivots.get(lead)
            if prow is None:
                pivots[lead] = _primitive(row, lead)
                break
            row = _clear(row, prow, lead)
    # back substitution, highest pivot first, yields the Jordan form
    for p in sorted(pivots, reverse=True):
        row = pivots[p]
        qs = [q for q in row if q != p and q in pivots]
        if qs:
            for q in qs:
                row = _clear(row, pivots[q], q)
            pivots[p] = _primitive(row, p)
    zeros = (0,) * (phi - 1)
    one = ((1,) + zeros, 1)
    out = []
    for p in sorted(pivots):
        row = pivots[p]
        a = row[p]
        scaled = {}
        for col, v in row.items():
            if col == p:
                scaled[col] = one
            else:
                g = gcd(v, a)
                scaled[col] = ((v // g,) + zeros, a // g)
        out.append((p, scaled))
    return out
