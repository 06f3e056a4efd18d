"""Definition-level reference for the radical oracle.

The degree d part of the radical is R_d cap W_d, where W_d = sum_i R_i e R_{d-i}
is the degree d part of the two-sided ideal of R # G generated by the
averaging idempotent e.  This module spans W_d the way the definition reads:
one row |G| u e v = sum_g u (g.v) # g for every monomial pair (u, v) with
deg u + deg v = d.  It shares only the rref kernel with the library, not the
letter recursion that ``pertinax.skewgroup.oracle_radical`` uses, so the two
agree only if the recursion spans the same W_d.

Kept outside ``conftest.py``, whose oracles avoid the kernel altogether.
"""

from pertinax import kernel, linalg
from pertinax.skewgroup import GradedIdealTable


def pair_oracle_radical(R, G, D=None):
    """The radical table from every monomial pair of every split."""
    if D is None:
        D = R.D
    rows = [_pair_component(R, G, d) for d in range(D + 1)]
    return GradedIdealTable(R, D, rows, "oracle")


def _pair_component(R, G, d):
    h = R.dim(d)
    if h == 0:
        return []
    field = R.field
    red = field.red
    k = G.order
    split = (k - 1) * h
    index_d = R.basis.index[d]
    rows = []
    for i in range(d + 1):
        j = d - i
        words_i = R.basis.words[i]
        words_j = R.basis.words[j]
        if not words_i or not words_j:
            continue
        gcols = [G.elements[gi].matrix_on_degree(j) for gi in range(1, k)]
        for u in words_i:
            # products of u against the whole degree-j basis, reused per v
            prods = [
                {index_d[t]: sc.raw for t, sc in R.product_word_vec(u, w).items()}
                for w in words_j
            ]
            for cv in range(len(words_j)):
                row: dict = {}
                for b in range(k - 1):
                    block: dict = {}
                    for cj, raw in gcols[b][cv].items():
                        kernel.dict_axpy(block, raw, prods[cj], red)
                    base = b * h
                    for t, val in block.items():
                        row[base + t] = val
                for t, val in prods[cv].items():
                    row[split + t] = val
                rows.append(row)
    return linalg.trailing_block_rows(field, rows, split)
