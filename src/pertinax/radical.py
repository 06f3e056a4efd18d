"""Pertinent sequence calculus and constructive radical generators.

A pair of equal-length sequences (a_1..a_n), (b_1..b_n) is pertinent when
sum a_i (g.b_i) vanishes for every non-identity g; the sums a_i b_i over
all pertinent pairs form the radical of the action.  This module verifies
pairs, implements the closure moves (translate, scale, concatenate, merge)
and the constructive recipes: eigenvector products, inclusion-exclusion
translate products for central and q-commuting families, and the
determinant of translates.  Every constructed pair is re-verified from the
definition before it is returned.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement

from . import kernel, linalg
from .action import FiniteGroup, LinearAuto
from .errors import (
    BadInput,
    BadPair,
    NotCentral,
    NotEigen,
    NotPertinent,
    NotQCommuting,
)
from .galgebra import AlgElement, GradedAlgebra
from .skewgroup import GradedIdealTable, oracle_radical

SUBSET_CAP = 12  # inclusion-exclusion families enumerate 2^(n-1) subsets


class PertinentPair:
    """A verified pertinent pair; construct through verify_pertinent."""

    __slots__ = ("left", "right", "group", "verified")

    def __init__(self, left, right, group, verified):
        self.left = tuple(left)
        self.right = tuple(right)
        self.group = group
        self.verified = verified

    def __len__(self):
        return len(self.left)

    @property
    def algebra(self) -> GradedAlgebra:
        return self.group.algebra

    def value(self) -> AlgElement:
        total = self.left[0] * self.right[0]
        for a, b in zip(self.left[1:], self.right[1:]):
            total = total + a * b
        return total

    def __repr__(self):
        return "PertinentPair(n=%d, value=%s)" % (len(self), self.value())


def verify_pertinent(left, right, G: FiniteGroup) -> PertinentPair:
    """Check the defining identity for every non-identity group element.

    Raises NotPertinent with the first violating element and its residue.
    """
    left = tuple(left)
    right = tuple(right)
    if len(left) != len(right) or not left:
        raise BadPair("sequences must have equal positive length")
    R = G.algebra
    for e in left + right:
        if not isinstance(e, AlgElement) or e.algebra is not R:
            raise BadPair("pair entries must be elements of the acted-on algebra")
    for gi in range(1, G.order):
        g = G.elements[gi]
        total = R.zero()
        for a, b in zip(left, right):
            total = total + a * g.apply(b)
        if total:
            raise NotPertinent(
                "pair fails at group element %d with residue %s" % (gi, total),
                gi,
                total,
            )
    return PertinentPair(left, right, G, True)


def pair_concat(p: PertinentPair, q: PertinentPair) -> PertinentPair:
    if p.group is not q.group:
        raise BadPair("pairs over different groups")
    return PertinentPair(p.left + q.left, p.right + q.right, p.group, True)


def pair_translate(h: LinearAuto, p: PertinentPair) -> PertinentPair:
    left = tuple(h.apply(a) for a in p.left)
    right = tuple(h.apply(b) for b in p.right)
    return PertinentPair(left, right, p.group, True)


def pair_scale(a: AlgElement, b: AlgElement, p: PertinentPair) -> PertinentPair:
    """Multiply the left entries by a on the left, the right entries by b on the right."""
    left = tuple(a * x for x in p.left)
    right = tuple(y * b for y in p.right)
    return PertinentPair(left, right, p.group, True)


def pair_simplify(p: PertinentPair) -> PertinentPair:
    """Merge repeated right entries (adding lefts) and repeated left entries."""
    left, right = list(p.left), list(p.right)
    changed = True
    while changed:
        changed = False
        for i in range(len(left)):
            for j in range(i + 1, len(left)):
                if right[i] == right[j]:
                    left[i] = left[i] + left[j]
                    del left[j], right[j]
                    changed = True
                    break
                if left[i] == left[j]:
                    right[i] = right[i] + right[j]
                    del left[j], right[j]
                    changed = True
                    break
            if changed:
                break
    return PertinentPair(left, right, p.group, True)


def pair_transfer(p: PertinentPair, cs, bs) -> PertinentPair:
    """Move invariant coefficients across: from (a_i) ~ (c_i b_i) to (a_i c_i) ~ (b_i).

    Each c_i must be a G-invariant element and p.right[i] must equal c_i b_i.
    """
    G = p.group
    cs = tuple(cs)
    bs = tuple(bs)
    if len(cs) != len(p) or len(bs) != len(p):
        raise BadPair("coefficient and target sequences must match the pair length")
    for i, c in enumerate(cs):
        for g in G.elements[1:]:
            if g.apply(c) != c:
                raise BadPair("transfer coefficient %d is not invariant" % i)
        if c * bs[i] != p.right[i]:
            raise BadPair("right entry %d does not factor as c_i b_i" % i)
    left = tuple(a * c for a, c in zip(p.left, cs))
    return verify_pertinent(left, bs, G)


# -- centrality and eigen checks ---------------------------------------------


def is_central(elem: AlgElement) -> bool:
    """Commutation with every generator, exact within the truncation."""
    R = elem.algebra
    d = elem.degree()
    if d is None:
        return True
    for i in range(R.ngens):
        if d + R.alphabet.degrees[i] > R.D:
            return False  # cannot certify beyond the truncation
        x = R.gen(i)
        if elem * x != x * elem:
            return False
    return True


def eigenvalue_of(g: LinearAuto, elem: AlgElement):
    """The scalar xi with g.elem = xi elem, or None."""
    if elem.is_zero():
        return None
    image = g.apply(elem)
    terms = elem.poly.terms
    lead = elem.poly.leading_word()
    c = image.poly.terms.get(lead)
    if c is None:
        return None
    xi = c / terms[lead]
    if image == elem * xi:
        return xi
    return None


# -- constructive generators ---------------------------------------------------


def gen_eigen_product(G: FiniteGroup, sigma: LinearAuto, elems) -> PertinentPair:
    """Pertinent pair of partial products of a common eigenvector family.

    All elements must be sigma-eigenvectors for one primitive n-th root of
    unity, n the family length; the value is n times the full product.
    """
    elems = tuple(elems)
    n = len(elems)
    if n < 1:
        raise BadInput("need at least one element")
    R = G.algebra
    xi = None
    for e in elems:
        ev = eigenvalue_of(sigma, e)
        if ev is None:
            raise NotEigen("element %s is not an eigenvector" % e)
        if xi is None:
            xi = ev
        elif ev != xi:
            raise NotEigen("elements have different eigenvalues")
    one = R.field.one
    if xi**n != one or any(xi**k == one for k in range(1, n)):
        raise NotEigen("eigenvalue is not a primitive root of unity of order %d" % n)
    prefix = [R.one()]
    for e in elems[:-1]:
        prefix.append(prefix[-1] * e)
    suffix = [elems[-1]]
    for e in reversed(elems[:-1]):
        suffix.insert(0, e * suffix[0])
    return verify_pertinent(prefix, suffix, G)


def _hat_product(R: GradedAlgebra, factors, skip):
    """Ascending product of factors with the positions in skip removed."""
    total = R.one()
    for i, f in enumerate(factors):
        if i not in skip:
            total = total * f
    return total


def gen_translate_product(G: FiniteGroup, elems) -> PertinentPair:
    """Inclusion-exclusion pair over subsets for a central family.

    With the non-identity elements listed as g_1..g_(n-1) and central
    a_1..a_(n-1), the value is the product of the translates g_i(a_i) - a_i.
    """
    elems = tuple(elems)
    n = G.order
    if len(elems) != n - 1:
        raise BadInput("need exactly %d central elements" % (n - 1))
    if n - 1 > SUBSET_CAP:
        raise BadInput("family too long: subset enumeration capped at %d" % SUBSET_CAP)
    for e in elems:
        if not is_central(e):
            raise NotCentral("element %s is not central within the truncation" % e)
    one = G.algebra.field.one
    return _subset_pair(G, elems, {(i, j): one for i in range(n - 1) for j in range(i + 1, n - 1)})


def gen_qcommuting_product(G: FiniteGroup, elems, q) -> PertinentPair:
    """Signed, q-weighted subset pair for a q-commuting eigenvector family.

    ``q[(i, j)]`` for i < j is the scalar with a_i a_j = q_ij a_j a_i; the
    a_i must be common eigenvectors of the whole group.
    """
    elems = tuple(elems)
    n = G.order
    R = G.algebra
    field = R.field
    if len(elems) != n - 1:
        raise BadInput("need exactly %d elements" % (n - 1))
    if n - 1 > SUBSET_CAP:
        raise BadInput("family too long: subset enumeration capped at %d" % SUBSET_CAP)
    qmat = {}
    for i in range(n - 1):
        for j in range(i + 1, n - 1):
            try:
                qmat[(i, j)] = field.scalar(q[(i, j)])
            except KeyError:
                raise BadInput("missing commutation scalar q[(%d, %d)]" % (i, j))
            if elems[i] * elems[j] != qmat[(i, j)] * (elems[j] * elems[i]):
                raise NotQCommuting(
                    "a_%d a_%d != q a_%d a_%d for the given scalar" % (i, j, j, i)
                )
    for e in elems:
        for g in G.elements[1:]:
            if eigenvalue_of(g, e) is None:
                raise NotEigen("element %s is not a common eigenvector" % e)
    return _subset_pair(G, elems, qmat)


def _subset_pair(G: FiniteGroup, elems, qmat) -> PertinentPair:
    """The signed subset pair of ``gen_qcommuting_product`` for the scalars
    ``qmat[(i, j)]``, i < j; all of them 1 for ``gen_translate_product``.

    Over the subsets S of the positions, the left factor is the ascending
    product of the translates g_i(a_i) with i not in S, and the right one
    (-1)^|S| times the product of the q_kj (k in S, j > k not in S) and
    the a_i with i in S.
    """
    R = G.algebra
    n = G.order
    translated = [G.elements[i + 1].apply(e) for i, e in enumerate(elems)]
    left, right = [], []
    for s in range(n):
        for subset in combinations(range(n - 1), s):
            skip = set(subset)
            left.append(_hat_product(R, translated, skip))
            weight = R.field.one
            for k in subset:
                for j in range(k + 1, n - 1):
                    if j not in skip:
                        weight = weight * qmat[(k, j)]
            prod = R.one() * weight
            for i in subset:
                prod = prod * elems[i]
            right.append(prod if s % 2 == 0 else -prod)
    return verify_pertinent(left, right, G)


def gen_determinant(G: FiniteGroup, elems):
    """Determinant of translates of a central family and its cofactor pair.

    Returns (delta, pair) where delta = sum a_i A_i expands the determinant
    of the matrix whose rows are the group translates of (a_1..a_n) along
    its first row.
    """
    elems = tuple(elems)
    n = G.order
    R = G.algebra
    if len(elems) != n:
        raise BadInput("need exactly |G| = %d central elements" % n)
    for e in elems:
        if not is_central(e):
            raise NotCentral("element %s is not central within the truncation" % e)
    rows = [list(elems)]
    for gi in range(1, n):
        g = G.elements[gi]
        rows.append([g.apply(e) for e in elems])
    cofactors = []
    sign = 1
    for i in range(n):
        minor = [[rows[r][c] for c in range(n) if c != i] for r in range(1, n)]
        a = _central_det(R, minor)
        cofactors.append(a if sign > 0 else -a)
        sign = -sign
    delta = R.zero()
    for a, cof in zip(elems, cofactors):
        delta = delta + a * cof
    pair = verify_pertinent(elems, cofactors, G)
    return delta, pair


def _central_det(R: GradedAlgebra, m) -> AlgElement:
    """Laplace expansion; entries are central so the order is immaterial."""
    n = len(m)
    if n == 0:
        return R.one()
    if n == 1:
        return m[0][0]
    total = R.zero()
    sign = 1
    for i in range(n):
        minor = [[m[r][c] for c in range(n) if c != i] for r in range(1, n)]
        term = m[0][i] * _central_det(R, minor)
        total = total + (term if sign > 0 else -term)
        sign = -sign
    return total


# -- aggregation ---------------------------------------------------------------


STRATEGIES = ("eigen_product", "translate_product", "qcommuting_product", "determinant")


def radical_constructive(
    R: GradedAlgebra,
    G: FiniteGroup,
    D: int | None = None,
    strategies=STRATEGIES,
    extra_pairs=(),
    extra_elements=(),
) -> GradedIdealTable:
    """Two-sided ideal closure of the values found by the selected recipes.

    Always a sub-table of the oracle radical; the gap, if any, is reported
    by comparing tables degree-wise.
    """
    if D is None:
        D = R.D
    unknown = set(strategies) - set(STRATEGIES)
    if unknown:
        raise BadInput("unknown strategies: %s" % ", ".join(sorted(unknown)))
    values = [p.value() for p in extra_pairs]
    values.extend(extra_elements)
    ordered = [s for s in STRATEGIES if s in set(strategies)]
    for strategy in ordered:
        if strategy == "eigen_product":
            values.extend(_eigen_values(R, G))
        elif strategy == "translate_product":
            values.extend(_translate_values(R, G))
        elif strategy == "qcommuting_product":
            values.extend(_qcommuting_values(R, G))
        elif strategy == "determinant":
            values.extend(_determinant_values(R, G))
    values = [v for v in values if not v.is_zero()]
    # translates of pertinent values are again pertinent values, and closing
    # the generator set under the group makes the resulting ideal G-stable
    orbit = []
    for v in values:
        for g in G.elements:
            orbit.append(g.apply(v))
    return GradedIdealTable.ideal_from_generators(R, orbit, D, tag="constructive")


def _eigen_values(R, G):
    """Products of degree one eigenvectors with primitive eigenvalue of order |G|."""
    si = G.is_cyclic()
    if si is None or si == 0:
        return []
    sigma = G.elements[si]
    n = G.order
    out = []
    for vec in _eigenvectors_degree_one(R, sigma):
        try:
            pair = gen_eigen_product(G, sigma, [vec] * n)
        except (NotEigen, NotPertinent):
            continue
        out.append(pair.value())
    return out


def _eigenvectors_degree_one(R, sigma):
    """A basis of each eigenspace of sigma on the degree one component."""
    field = R.field
    h = R.dim(1)
    if h == 0:
        return
    order = 1
    probe = sigma
    while not probe.is_identity():
        probe = probe * sigma
        order += 1
    zeta = field.primitive_root(order)
    action = linalg.raw_vectors(sigma.matrix_on_degree(1), field)
    for k in range(order):
        lam = zeta**k
        cols = []
        for j in range(h):
            col = dict(action[j])  # the action columns are cached: edit a copy
            cur = col.get(j)
            diff = kernel.q_sub(cur, lam.raw) if cur is not None else (-lam).raw
            if kernel.q_is_zero(diff):
                col.pop(j, None)
            else:
                col[j] = diff
            cols.append(col)
        for _, row in linalg.kernel_rows(field, cols, h, h):
            yield R.vector_to_element(1, row)


def _central_degree_one(R):
    out = []
    for i in range(R.ngens):
        g = R.gen(i)
        if is_central(g):
            out.append(g)
    return out


def _translate_values(R, G):
    out = []
    for a in _central_degree_one(R):
        if G.order - 1 > SUBSET_CAP:
            break
        try:
            pair = gen_translate_product(G, [a] * (G.order - 1))
        except (NotCentral, NotPertinent):
            continue
        out.append(pair.value())
    return out


def _qcommuting_values(R, G):
    n = G.order
    if n - 1 > SUBSET_CAP:
        return []
    # generators that are common eigenvectors of the whole group
    pool = []
    for i in range(R.ngens):
        g = R.gen(i)
        if all(eigenvalue_of(h, g) is not None for h in G.elements[1:]):
            pool.append(g)
    out = []
    for combo in combinations_with_replacement(pool, n - 1):
        q = {}
        ok = True
        for i in range(n - 1):
            for j in range(i + 1, n - 1):
                q[(i, j)] = _commutation_scalar(combo[i], combo[j])
                if q[(i, j)] is None:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        try:
            pair = gen_qcommuting_product(G, combo, q)
        except (NotEigen, NotQCommuting, NotPertinent):
            continue
        out.append(pair.value())
    return out


def _commutation_scalar(a, b):
    """The scalar q with a b = q b a, or None."""
    ab = a * b
    ba = b * a
    if ba.is_zero():
        return None
    lead = ba.poly.leading_word()
    c = ab.poly.terms.get(lead)
    if c is None:
        return None
    q = c / ba.poly.terms[lead]
    if ab == ba * q:
        return q
    return None


def _determinant_values(R, G):
    n = G.order
    out = []
    for a in _central_degree_one(R):
        if (n * (n - 1)) // 2 > R.D:
            continue  # the determinant would exceed the truncation degree
        elems = [a**k for k in range(n)]
        try:
            delta, _pair = gen_determinant(G, elems)
        except (NotCentral, NotPertinent, BadInput):
            continue
        out.append(delta)
    return out


def is_semisimple_upto(R: GradedAlgebra, G: FiniteGroup, D: int | None = None):
    """True when the radical vanishes up to D; otherwise a minimal witness."""
    table = oracle_radical(R, G, D)
    if table.is_zero():
        return True, None
    _, witness = table.first_nonzero()
    return False, witness
