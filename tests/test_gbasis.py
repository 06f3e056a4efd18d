"""Truncated Groebner bases, normal forms and quotient bases."""

import random
from collections import Counter
from math import comb

import pytest

from pertinax.errors import BasisTooLarge, NotGraded, RedundantGenerator, TruncationExceeded
from pertinax.freealgebra import Alphabet, FreePoly
from pertinax.galgebra import make_quantum_affine
from pertinax.gbasis import (
    QuotientBasis,
    _interreduce,
    _LeadIndex,
    _reduce_full,
    gb_complete,
)

from conftest import free_quotient_dims, q_straighten


def _gens(ab, field):
    return [FreePoly.gen(ab, field, i) for i in range(len(ab))]


def commutator_relations(ab, field):
    gens = _gens(ab, field)
    return [
        gens[j] * gens[i] - gens[i] * gens[j]
        for i in range(len(ab))
        for j in range(i + 1, len(ab))
    ]


def test_commutative_two_vars(QQ):
    ab = Alphabet(["x", "y"])
    gb = gb_complete(commutator_relations(ab, QQ), 6)
    qb = QuotientBasis(gb, 6)
    assert qb.dims() == [d + 1 for d in range(7)]
    assert len(gb.relations) == 1


def test_skew_symmetric_two_vars(QQ):
    ab = Alphabet(["x", "y"])
    x, y = _gens(ab, QQ)
    gb = gb_complete([x * y + y * x], 6)
    qb = QuotientBasis(gb, 6)
    assert qb.dims() == [d + 1 for d in range(7)]
    # defining relation rewrites
    assert gb.normal_form(y * x) == -(x * y)
    assert gb.normal_form(x * (x * y + y * x) * y).is_zero()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_commutative_dims_match_binomials(QQ, n):
    D = 10 if n <= 3 else 8
    ab = Alphabet(["x%d" % i for i in range(n)])
    gb = gb_complete(commutator_relations(ab, QQ), D)
    qb = QuotientBasis(gb, D)
    assert qb.dims() == [comb(n + d - 1, d) for d in range(D + 1)]


def downup_relations(ab, field, alpha, beta):
    x, y = _gens(ab, field)
    a = field.scalar(alpha)
    b = field.scalar(beta)
    return [
        x * x * y - a * (x * y * x) - b * (y * x * x),
        x * y * y - a * (y * x * y) - b * (y * y * x),
    ]


def test_downup_dims_against_brute_force(QQ):
    # independent oracle: span words modulo the ideal in the free algebra
    ab = Alphabet(["x", "y"])
    rels = downup_relations(ab, QQ, 1, -1)
    expected = free_quotient_dims(rels, 6)
    gb = gb_complete(rels, 6)
    qb = QuotientBasis(gb, 6)
    assert qb.dims() == expected
    assert expected == [1, 2, 4, 6, 9, 12, 16]
    for r in rels:
        assert gb.normal_form(r).is_zero()


def test_downup_dims_parameter_independent(QQ):
    ab = Alphabet(["x", "y"])
    rels = downup_relations(ab, QQ, 2, -1)
    expected = free_quotient_dims(rels, 4)
    gb = gb_complete(rels, 4)
    assert QuotientBasis(gb, 4).dims() == expected
    base = free_quotient_dims(downup_relations(ab, QQ, 1, -1), 4)
    assert expected == base


def test_rejects_inhomogeneous_and_linear(QQ):
    ab = Alphabet(["x", "y"])
    x, y = _gens(ab, QQ)
    with pytest.raises(NotGraded):
        gb_complete([x * y - x], 4)
    with pytest.raises(RedundantGenerator):
        gb_complete([x - y], 4)
    # degree one rules are accepted in quotient mode
    gb = gb_complete([x - y, x * y - y * x], 4, allow_linear=True)
    assert QuotientBasis(gb, 4).dims() == [1, 1, 1, 1, 1]


def test_truncation_guard(QQ):
    ab = Alphabet(["x", "y"])
    x, y = _gens(ab, QQ)
    gb = gb_complete([x * y - y * x], 3)
    with pytest.raises(TruncationExceeded):
        gb.normal_form(x * x * y * y)


def test_confluence_within_truncation(QQ):
    ab = Alphabet(["x", "y"])
    rels = downup_relations(ab, QQ, 1, -1)
    gb = gb_complete(rels, 8)
    rng = random.Random(3)
    nf = gb.normal_form
    for _ in range(40):
        f = _random_poly(rng, ab, QQ, 3)
        g = _random_poly(rng, ab, QQ, 3)
        assert nf(nf(f) * nf(g)) == nf(f * g)
        assert nf(nf(f)) == nf(f)


def _random_poly(rng, ab, field, max_len):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        w = tuple(rng.randint(0, len(ab) - 1) for _ in range(rng.randint(0, max_len)))
        c = field.scalar(rng.randint(-4, 4))
        if c:
            terms[w] = c
    return FreePoly(ab, field, terms)


def test_quantum_affine_matches_straightening(Q12):
    """Normal forms of 500 random words against direct q-reordering."""
    rng = random.Random(17)
    roots = [Q12.primitive_root(n) for n in (1, 2, 3, 4, 6, 12)]
    n = 3
    q = [[Q12.one] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            val = roots[rng.randrange(len(roots))]
            q[i][j] = val
            q[j][i] = val.inv()
    R = make_quantum_affine(Q12, q, 10)
    for _ in range(500):
        word = tuple(rng.randint(0, n - 1) for _ in range(rng.randint(0, 10)))
        coeff, sorted_word = q_straighten(Q12, q, word)
        nf = R.gb.nf_word(word)
        assert set(nf) == {sorted_word}
        assert nf[sorted_word] == coeff


def test_completion_adds_overlap_resolutions(QQ):
    """A presentation whose ambiguities do not all resolve to zero."""
    ab = Alphabet(["x", "y"])
    x, y = _gens(ab, QQ)
    rels = [y * y - x * y]  # rewrite y^2 -> xy; the self-overlap y^3 is critical
    gb = gb_complete(rels, 6)
    expected = free_quotient_dims(rels, 6)
    assert QuotientBasis(gb, 6).dims() == expected
    # the completed system must contain more than the input rule
    assert len(gb.relations) > 1
    nf = gb.normal_form
    f = (y * y - x * y) * (x + y)
    assert nf(f).is_zero()


def test_completion_downup_beta_zero(QQ):
    """beta = 0 changes the leading words; dims still match brute force."""
    ab = Alphabet(["x", "y"])
    rels = downup_relations(ab, QQ, 1, 0)
    gb = gb_complete(rels, 6)
    assert QuotientBasis(gb, 6).dims() == free_quotient_dims(rels, 6)


def test_mixed_degree_alphabet(QQ):
    ab = Alphabet(["u", "w"], degrees=[1, 2])
    u = FreePoly.gen(ab, QQ, 0)
    w = FreePoly.gen(ab, QQ, 1)
    gb = gb_complete([w * u - u * w], 8)
    qb = QuotientBasis(gb, 8)
    # monomials u^a w^b with a + 2b = d
    assert qb.dims() == [d // 2 + 1 for d in range(9)]
    assert gb.normal_form(w * u) == gb.normal_form(u * w)


def _scan_superwords(rules, lead):
    """The rules whose word contains ``lead``, by a scan over every rule."""
    n = len(lead)
    return [
        w
        for w in rules
        if len(w) >= n and any(w[p : p + n] == lead for p in range(len(w) - n + 1))
    ]


def test_lead_index_evicts_like_the_full_scan():
    """On random rule sets, with evicted words coming back later, the letter
    index lists the same words in the same order as a scan of the rules."""
    rng = random.Random(5)
    for _ in range(40):
        letters = rng.randint(1, 4)
        rules: dict = {}
        index = _LeadIndex()
        evicted = []
        for _ in range(60):
            if evicted and rng.random() < 0.3:
                lead = evicted.pop(rng.randrange(len(evicted)))
            else:
                lead = tuple(rng.randrange(letters) for _ in range(rng.randint(1, 5)))
            if lead in rules:
                continue
            got = index.superwords(lead)
            assert got == _scan_superwords(rules, lead)
            for w in got:
                index.discard(w)
                del rules[w]
                evicted.append(w)
            rules[lead] = None
            index.add(lead)
            assert index.lengths == Counter(len(w) for w in rules)


def _interreduce_by_scan(polys):
    """``_interreduce`` with the evict scan over every rule and each tail
    reduced by every rule but its own, as before the letter index."""
    work = list(polys)
    out: dict = {}
    while work:
        f = work.pop(0)
        f = _reduce_full(f, out, sorted({len(w) for w in out}))
        if f.is_zero():
            continue
        f = f.monic()
        lead = f.leading_word()
        for w in _scan_superwords(out, lead):
            work.append(out.pop(w))
        out[lead] = f
    lengths = sorted({len(w) for w in out})
    final = {}
    for lead in sorted(out, key=lambda w: (len(w), w)):
        f = out[lead]
        tail = FreePoly(f.alphabet, f.field, {w: c for w, c in f.terms.items() if w != lead})
        tail = _reduce_full(tail, {w: p for w, p in out.items() if w != lead}, lengths)
        final[lead] = FreePoly(f.alphabet, f.field, {lead: f.field.one, **tail.terms})
    return [final[w] for w in sorted(final, key=lambda w: (len(w), w))]


def test_interreduce_matches_the_scan(QQ):
    """Random homogeneous relation sets over letters of degrees 1 and 2."""
    rng = random.Random(11)
    ab = Alphabet(["x", "y", "w"], [1, 1, 2])
    words = {d: [] for d in (2, 3, 4)}
    for length in range(1, 5):
        for k in range(3**length):
            w = tuple((k // 3**p) % 3 for p in range(length))
            if ab.word_degree(w) in words:
                words[ab.word_degree(w)].append(w)
    for _ in range(60):
        rels = []
        for _ in range(rng.randint(1, 8)):
            d = rng.choice((2, 3, 4))
            terms = {}
            for w in rng.sample(words[d], rng.randint(1, 4)):
                terms[w] = QQ.scalar(rng.choice((-3, -1, 1, 2, 5)))
            rels.append(FreePoly(ab, QQ, terms))
        assert _interreduce(rels) == _interreduce_by_scan(rels)


def test_all_commutators_of_64_letters_reach_the_size_guard(QQ):
    """64 letters and their 2016 commutators: the size guard's
    ``BasisTooLarge`` comes after one interreduction of the relations."""
    ab = Alphabet(["x%d" % (i + 1) for i in range(64)])
    with pytest.raises(BasisTooLarge, match="2016 rules, so 4064256 ordered pairs"):
        gb_complete(commutator_relations(ab, QQ), 2)
