"""Definition-level references for ideal products, invariant generators and
normality.

Each builds its spans the way the definition reads, from ``AlgElement``
multiplication: the product table from every pair of rows, the square of
the augmentation ideal of the invariants from every pair of invariant basis
elements, and the left and right multiples of an element from every basis
word.  None of them uses ``vec_product`` or the letter closure of
``pertinax.skewgroup``; they share only the rref kernel with the library.

Kept outside ``conftest.py``, whose oracles avoid the kernel altogether.
"""

from pertinax import linalg


def pair_product_rows(I, J):
    """Per degree, the canonical rows of sum_i I_i J_{d-i} from every pair."""
    R = I.algebra
    rows = []
    for d in range(I.D + 1):
        vecs = []
        for i in range(d + 1):
            for u in I.polys(i):
                for v in J.polys(d - i):
                    vecs.append(R.coords(u * v, d))
        rows.append(linalg.rref(R.field, vecs))
    return rows


def pair_invariant_generators(inv):
    """Generators of the invariants taken greedily modulo (A_+)^2, where
    (A_+^2)_d is spanned by every product of invariant basis elements of
    degrees i and d - i with 1 <= i < d."""
    R = inv.algebra
    field = R.field
    generators = []
    for d in range(1, inv.D + 1):
        if not inv.rows[d]:
            continue
        vecs = [
            R.coords(u * v, d)
            for i in range(1, d)
            for u in inv.basis_elements(i)
            for v in inv.basis_elements(d - i)
        ]
        span = linalg.rref(field, vecs)
        for _, row in inv.rows[d]:
            residue = linalg.reduce_vec(field, row, span)
            if residue:
                generators.append((R.vector_to_element(d, residue), d))
                span = linalg.rref(field, [r for _, r in span] + [residue])
    return generators


def pair_normal_in_R(a, D):
    """Whether a R_d and R_d a span the same subspace for every d <= D - deg a."""
    R = a.algebra
    da = a.degree()
    for d in range(D - da + 1):
        words = [R.from_word(w) for w in R.basis_words(d)]
        left = linalg.rref(R.field, [R.coords(a * w, da + d) for w in words])
        right = linalg.rref(R.field, [R.coords(w * a, da + d) for w in words])
        if left != right:
            return False
    return True
