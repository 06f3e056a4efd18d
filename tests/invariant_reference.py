"""Definition-level reference for the fixed spaces of a group action.

The degree d fixed space is the common kernel of the maps g - id, g over
the group.  This module solves that linear system: the columns of the
stacked map, of width (|G| - 1) h_d, go to ``linalg.kernel_rows``.
``pertinax.invariantring.invariants_basis`` takes the image of the
Reynolds operator instead, so the two agree only if that image is the
whole fixed space.  The action columns are products of the images of the
letters, multiplied as algebra elements (normal forms by the rewriting
rules), not read from ``matrix_on_degree`` or ``LinearAuto.apply``, which
the library builds by its letter recursion.
"""

from pertinax import kernel, linalg


def fixed_space_rows(R, G, D=None):
    """Per degree, the canonical rows of the kernel of the stacked g - id."""
    if D is None:
        D = R.D
    return tuple(tuple(_fixed_component(R, G, d)) for d in range(D + 1))


def action_columns(g, d):
    """Raw coordinates of g(w) for the degree d basis words w: g(x1 ... xk)
    is the product g(x1) ... g(xk) of the letter images sum_y M[y][x] y."""
    R = g.algebra
    n = R.ngens

    def letter(x):  # only letters of degree <= d, which R holds
        return sum((g.matrix[y][x] * R.gen(y) for y in range(n) if g.matrix[y][x]), R.zero())

    columns = []
    for w in R.basis_words(d):
        image = R.one()
        for x in w:
            image = image * letter(x)
        columns.append(R.coords(image, d))
    return columns


def _fixed_component(R, G, d):
    h = R.dim(d)
    if h == 0:
        return []
    field = R.field
    one = field.one.raw
    k = G.order
    gcols = [action_columns(G.elements[gi], d) for gi in range(1, k)]
    cols = []
    for j in range(h):
        col: dict = {}
        for b in range(k - 1):
            base = b * h
            for r, v in gcols[b][j].items():
                col[base + r] = v
            cur = col.get(base + j)
            diff = kernel.q_sub(cur, one) if cur is not None else kernel.q_neg(one)
            if kernel.q_is_zero(diff):
                col.pop(base + j, None)
            else:
                col[base + j] = diff
        cols.append(col)
    return linalg.kernel_rows(field, cols, h, (k - 1) * h)
