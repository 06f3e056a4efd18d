"""Definition-level reference for the radical oracle.

The degree d part of the radical is R_d cap W_d, where W_d = sum_i R_i e R_{d-i}
is the degree d part of the two-sided ideal of R # G generated by the
averaging idempotent e.  This module spans W_d the way the definition reads:
one row |G| u e v = sum_g u (g.v) # g for every monomial pair (u, v) with
deg u + deg v = d.  It shares only the rref kernel with the library, not the
letter recursion that ``pertinax.skewgroup.oracle_radical`` uses, so the two
agree only if the recursion spans the same W_d.  The action columns g.v come
from ``LinearAuto.apply``, not from the recursion of ``matrix_on_degree``.

``semi_invariant_radical`` is a second reference that never forms R # G.
For a cyclic group generated by a diagonal sigma = diag(zeta^a_i) on the
letters, with zeta the field's root of unity, every normal word w is an
eigenvector, of character sum_t a_{w_t} mod m.  The primitive idempotents
e_chi of kG sum to 1 and W is a right ideal, so r lies in W exactly when
every r e_chi lies in W e_chi = R (e R e_chi).  For a word v of character
psi, e v = v e_psi' with psi' determined by psi, so e R e_chi = R^chi' e_chi,
with R^chi' spanned by the words of the character chi' that runs over the
characters as chi does, the trivial one included.  The trivial chi puts
r e in W for every r; for the others r e_chi lies in R R^chi' e_chi exactly
when r lies in R R^chi', since r -> r e_chi is injective.  Hence r lies in
the radical exactly when r lies in every left ideal R R^chi:

    radical = intersection over the n - 1 nontrivial characters chi of R R^chi,

where n is the order of sigma.  A character no word of degree <= D has
gives R R^chi = 0 up to D, so it must not be skipped.

Kept outside ``conftest.py``, whose oracles avoid the kernel altogether.
"""

from math import gcd

from pertinax import kernel, linalg
from pertinax.skewgroup import GradedIdealTable

from invariant_reference import action_columns


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
        gcols = [action_columns(G.elements[gi], j) for gi in range(1, k)]
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


def semi_invariant_radical(R, exponents, D=None):
    """The radical of sigma = diag(zeta^a) for ``exponents`` a, as the
    intersection of the left ideals R R^chi over the nontrivial characters."""
    if D is None:
        D = R.D
    m = R.field.m
    step = gcd(m, *exponents)  # the characters of words: the multiples of step
    assert step < m, "sigma is the identity"
    rows = []
    for d in range(D + 1):
        component = None
        for chi in range(step, m, step):
            span = _left_ideal_component(R, exponents, chi, d)
            component = (
                span
                if component is None
                else linalg.intersect_rows(R.field, component, span, R.dim(d))
            )
        rows.append(component)
    return GradedIdealTable(R, D, rows, "oracle")


def _left_ideal_component(R, exponents, chi, d):
    """Degree d of R R^chi: the products u v of words with v of character chi."""
    m = R.field.m
    index = R.basis.index[d]
    vecs = []
    for i in range(d + 1):
        for v in R.basis.words[d - i]:
            if sum(exponents[t] for t in v) % m != chi:
                continue
            for u in R.basis.words[i]:
                prod = R.product_word_vec(u, v)
                vecs.append({index[t]: sc.raw for t, sc in prod.items()})
    return linalg.rref(R.field, vecs)
