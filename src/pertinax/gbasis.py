"""Degree-truncated two-sided Groebner bases in the free algebra.

Completion follows Bergman's diamond lemma: overlap ambiguities between
leading words are resolved in increasing degree until every ambiguity of
degree at most D reduces to zero.  For homogeneous presentations this
makes every statement about graded components of degree <= D exact; there
are no "maybe" answers below the truncation bound.

``TruncatedGB.nf_word`` rewrites one word to normal form.  It serves the
normal forms of free polynomials (parsed relations and elements, and
``AlgElement`` arithmetic), the letter images x w and w x of the basis
words (``galgebra.letter_images``), and the automorphism check of
``LinearAuto``, which must reduce relations above the truncation degree.
Every product of coordinate vectors is built from the letter images, and
so are the group actions and the multiplier images, by the one letter
recursion ``galgebra.substitution_images``.
"""

from __future__ import annotations

from collections import Counter, deque

from .errors import (
    BasisTooLarge,
    DegenerateQuotient,
    NotGraded,
    RedundantGenerator,
    TruncationExceeded,
)
from .freealgebra import FreePoly, Word

# Most candidate words (w x, with w a normal word of degree d - deg x) the
# normal-word basis examines in one degree: far above every fixture and
# benchmark degree (a few thousand), and about a second of work at the bound.
MAX_BASIS_CANDIDATES = 10**6

# Highest truncation degree that relations are completed to and a normal-word
# basis is built to: far above every fixture and benchmark degree (below 50).
# k[x], with one word per degree, runs at D = 4000 in about 2 s; its words up
# to 10^4 hold 5 * 10^7 letters.
MAX_TRUNCATION_DEGREE = 10**4

# Most ordered pairs (u, v) of leading words one completion sweep examines
# for overlaps: commutative(45) has 990 rules and 980100 pairs, within the
# bound; commutative(64) has 2016 rules and 4064256 pairs, about 13 s of
# overlap search per sweep.
MAX_OVERLAP_PAIRS = 10**6


class TruncatedGB:
    """A monic, inter-reduced rewriting system complete up to a degree bound."""

    __slots__ = (
        "alphabet",
        "field",
        "relations",
        "truncation_degree",
        "complete_upto",
        "_leads",
        "_lead_lengths",
        "_nf_cache",
    )

    def __init__(self, alphabet, field, relations, truncation_degree):
        self.alphabet = alphabet
        self.field = field
        self.relations = tuple(relations)
        self.truncation_degree = truncation_degree
        self.complete_upto = truncation_degree
        self._leads = {}  # leading word -> the other terms of its relation
        for r in self.relations:
            lead = r.leading_word()
            self._leads[lead] = {t: c for t, c in r.terms.items() if t != lead}
        self._lead_lengths = sorted({len(w) for w in self._leads})
        self._nf_cache: dict = {(): {(): field.one}}

    # -- rewriting ---------------------------------------------------------

    def _suffix_relation(self, word: Word):
        """(lead, tail) of the shortest leading word that is a suffix of
        ``word``, or None; the relation is lead + tail, monic."""
        leads = self._leads
        for length in self._lead_lengths:
            if length > len(word):
                return None
            lead = word[len(word) - length :]
            tail = leads.get(lead)
            if tail is not None:
                return lead, tail
        return None

    def _step(self, normal: Word, letter: int) -> dict:
        """Normal form of (normal word) * (generator) as a term dict."""
        word = normal + (letter,)
        rule = self._suffix_relation(word)
        if rule is None:
            return {word: self.field.one}
        lead, tail = rule
        prefix = word[: len(word) - len(lead)]
        out: dict = {}
        for t, c in tail.items():
            for v, cv in self.nf_word(prefix + t).items():
                cur = out.get(v)
                s = -(c * cv) if cur is None else cur - c * cv
                if s:
                    out[v] = s
                elif cur is not None:
                    del out[v]
        return out

    def nf_word(self, word: Word) -> dict:
        """Normal form of a word as a term dict over normal words (memoized).

        It rewrites at any degree, also above the truncation degree.
        """
        cached = self._nf_cache.get(word)
        if cached is not None:
            return cached
        head = self.nf_word(word[:-1])
        letter = word[-1]
        out: dict = {}
        for v, c in head.items():
            for t, ct in self._step(v, letter).items():
                cur = out.get(t)
                s = c * ct if cur is None else cur + c * ct
                if s:
                    out[t] = s
                elif cur is not None:
                    del out[t]
        self._nf_cache[word] = out
        return out

    def normal_form(self, f: FreePoly) -> FreePoly:
        """The unique irreducible representative of f modulo the ideal."""
        deg = f.degree()
        if deg is not None and deg > self.complete_upto:
            raise TruncationExceeded(
                "normal form of degree %d exceeds completion bound %d"
                % (deg, self.complete_upto)
            )
        out: dict = {}
        for w, c in f.terms.items():
            for v, cv in self.nf_word(w).items():
                cur = out.get(v)
                s = c * cv if cur is None else cur + c * cv
                if s:
                    out[v] = s
                elif cur is not None:
                    del out[v]
        return FreePoly(self.alphabet, self.field, out)

    def dump(self) -> str:
        """One relation per line, for debugging."""
        return "\n".join(str(r) for r in self.relations)


def _check_truncation(D: int):
    if D > MAX_TRUNCATION_DEGREE:
        raise BasisTooLarge(
            "truncation degree %d is above %d; lower it with --maxdeg or a task's maxdeg"
            % (D, MAX_TRUNCATION_DEGREE)
        )


class QuotientBasis:
    """Normal (irreducible) words per degree: monomial bases of the quotient.

    Degree d is built from the candidates w·x, w normal of degree
    d - deg x.  More than ``MAX_BASIS_CANDIDATES`` of them raise
    ``BasisTooLarge`` before any is examined, and so does a truncation
    degree above ``MAX_TRUNCATION_DEGREE``, before any degree is allocated.
    """

    __slots__ = ("alphabet", "words", "index")

    def __init__(self, gb: TruncatedGB, D: int):
        _check_truncation(D)
        alphabet = gb.alphabet
        self.alphabet = alphabet
        by_degree: list[list[Word]] = [[] for _ in range(D + 1)]
        by_degree[0] = [()]
        for d in range(1, D + 1):
            candidates = sum(
                len(by_degree[d - dx]) for dx in alphabet.degrees if dx <= d
            )
            if candidates > MAX_BASIS_CANDIDATES:
                raise BasisTooLarge(
                    "degree %d of the algebra has %d candidate basis words, above %d; "
                    "lower the truncation with --maxdeg or a task's maxdeg"
                    % (d, candidates, MAX_BASIS_CANDIDATES)
                )
            found = []
            for i in range(len(alphabet)):
                dx = alphabet.degrees[i]
                if dx > d:
                    continue
                for w in by_degree[d - dx]:
                    cand = w + (i,)
                    if gb._suffix_relation(cand) is None:
                        found.append(cand)
            found.sort()
            by_degree[d] = found
        self.words = tuple(tuple(ws) for ws in by_degree)
        self.index = [{w: i for i, w in enumerate(ws)} for ws in by_degree]

    def dim(self, d: int) -> int:
        return len(self.words[d])

    def dims(self) -> list[int]:
        return [len(ws) for ws in self.words]


def _find_reduction(word: Word, leads: dict, lengths):
    """Leftmost, then shortest, occurrence of a leading word inside ``word``."""
    best = None
    for pos in range(len(word)):
        for length in lengths:
            if pos + length > len(word):
                break
            sub = word[pos : pos + length]
            if sub in leads:
                return pos, leads[sub]
    return best


def _reduce_full(f: FreePoly, leads: dict, lengths) -> FreePoly:
    """Full two-sided reduction of f by the monic rewriting rules in leads."""
    alphabet, field = f.alphabet, f.field
    terms = dict(f.terms)
    key = alphabet.deglex_key
    while True:
        target = None
        for w in sorted(terms, key=key, reverse=True):
            hit = _find_reduction(w, leads, lengths)
            if hit is not None:
                target = (w, hit)
                break
        if target is None:
            return FreePoly(alphabet, field, terms)
        w, (pos, rel) = target
        c = terms.pop(w)
        lead = rel.leading_word()
        prefix, suffix = w[:pos], w[pos + len(lead) :]
        for t, ct in rel.terms.items():
            if t == lead:
                continue
            u = prefix + t + suffix
            cur = terms.get(u)
            s = -(c * ct) if cur is None else cur - c * ct
            if s:
                terms[u] = s
            elif cur is not None:
                del terms[u]


class _LeadIndex:
    """The leading words of an interreduction, bucketed by letter.

    Each bucket is a dict in insertion order, like the rule dict it shadows:
    a word is added to and discarded from both at once, so every bucket
    lists its words in the rule dict's order.
    """

    __slots__ = ("buckets", "lengths")

    def __init__(self):
        self.buckets: dict = {}  # letter -> {word: None}
        self.lengths: Counter = Counter()

    def add(self, word: Word):
        for x in set(word):
            self.buckets.setdefault(x, {})[word] = None
        self.lengths[len(word)] += 1

    def discard(self, word: Word):
        for x in set(word):
            del self.buckets[x][word]
        self.lengths[len(word)] -= 1
        if not self.lengths[len(word)]:
            del self.lengths[len(word)]

    def superwords(self, lead: Word) -> list:
        """The words that contain ``lead`` as a subword, in insertion order.

        Each of them contains every letter of ``lead``, so one bucket (the
        smallest) holds them all, in the order of the rule dict.
        """
        n = len(lead)
        bucket = min((self.buckets.get(x, {}) for x in set(lead)), key=len)
        return [
            w
            for w in bucket
            if len(w) >= n and any(w[p : p + n] == lead for p in range(len(w) - n + 1))
        ]


def _interreduce(polys) -> list[FreePoly]:
    """Fully autoreduced monic basis with mutually irreducible leading words."""
    work = deque(polys)
    out: dict = {}  # lead word -> poly
    index = _LeadIndex()
    while work:
        f = work.popleft()
        f = _reduce_full(f, out, sorted(index.lengths))
        if f.is_zero():
            continue
        f = f.monic()
        lead = f.leading_word()
        # evict basis members whose leads became reducible by the new rule
        for w in index.superwords(lead):
            index.discard(w)
            work.append(out.pop(w))
        out[lead] = f
        index.add(lead)
    # second pass: reduce every tail against the final rule set.  The rule
    # of the lead itself never applies: reduction only meets words below the
    # lead, and a word containing the lead is the lead or of larger degree.
    lengths = sorted(index.lengths)
    final = {}
    for lead in sorted(out, key=lambda w: (len(w), w)):
        f = out[lead]
        tail = FreePoly(f.alphabet, f.field, {w: c for w, c in f.terms.items() if w != lead})
        tail = _reduce_full(tail, out, lengths)
        final[lead] = FreePoly(f.alphabet, f.field, {lead: f.field.one, **tail.terms})
    return [final[w] for w in sorted(final, key=lambda w: (len(w), w))]


def _overlap_words(u: Word, v: Word):
    """Proper overlaps: nonempty suffix of u equal to a proper prefix of v."""
    for s in range(1, min(len(u), len(v))):
        if u[len(u) - s :] == v[:s]:
            yield s


def gb_complete(
    relations,
    D: int,
    *,
    allow_linear: bool = False,
) -> TruncatedGB:
    """Complete homogeneous relations into a Groebner basis up to degree D.

    Raises NotGraded for inhomogeneous input and RedundantGenerator for
    degree one relations (eliminate the generator instead); quotient
    construction passes allow_linear to accept degree one rules.  A sweep
    over more than ``MAX_OVERLAP_PAIRS`` ordered pairs of leading words
    raises ``BasisTooLarge`` before any pair is examined, and so does a D
    above ``MAX_TRUNCATION_DEGREE`` before any relation is read: completion
    need not end below D when the Groebner basis is infinite.
    """
    _check_truncation(D)
    relations = [r for r in relations if not r.is_zero()]
    if not relations:
        raise ValueError("gb_complete needs at least one relation; use the free algebra")
    alphabet = relations[0].alphabet
    field = relations[0].field
    for r in relations:
        if r.alphabet != alphabet or r.field != field:
            raise ValueError("relations over different free algebras")
        if not r.is_homogeneous():
            raise NotGraded("relation %s is not homogeneous" % r)
        d = r.degree()
        if d == 0:
            raise DegenerateQuotient("constant relation collapses the algebra to zero")
        if d == 1 and not allow_linear:
            raise RedundantGenerator(
                "degree 1 relation %s: eliminate the generator before presenting" % r
            )

    basis = _interreduce(relations)
    # Sweep the ambiguities of the current system in increasing degree; a
    # nonzero resolution of degree delta enlarges the basis and restarts the
    # sweep at delta.  The pairs below delta need no new look: the relations
    # are homogeneous, so the new rule has degree delta and its lead occurs
    # in no word of lower degree.  Interreduction therefore leaves every
    # rule of degree < delta as it was, and a pair of degree < delta, whose
    # rules and reductions all lie below delta, still reduces to zero.  The
    # final pass thus certifies, with the earlier ones, that every ambiguity
    # of degree <= D reduces to zero against the finished system, which is
    # exactly the diamond lemma hypothesis in the graded, truncated setting.
    floor = 0
    while True:
        lead_map = {f.leading_word(): f for f in basis}
        pairs = len(lead_map) ** 2
        if pairs > MAX_OVERLAP_PAIRS:
            raise BasisTooLarge(
                "Groebner completion has %d rules, so %d ordered pairs to search for "
                "overlaps, above %d; present the algebra with fewer relations"
                % (len(lead_map), pairs, MAX_OVERLAP_PAIRS)
            )
        lengths = sorted({len(w) for w in lead_map})
        pending = []
        for u in lead_map:
            for v in lead_map:
                for s in _overlap_words(u, v):
                    w = u + v[s:]
                    deg = alphabet.word_degree(w)
                    if floor <= deg <= D:
                        pending.append((deg, u, v, s))
        pending.sort()
        grew = False
        for deg, u, v, s in pending:
            spoly = lead_map[u].rshift(v[s:]) - lead_map[v].lshift(u[: len(u) - s])
            spoly = _reduce_full(spoly, lead_map, lengths)
            if not spoly.is_zero():
                basis = _interreduce(basis + [spoly])
                floor = deg
                grew = True
                break
        if not grew:
            break

    return TruncatedGB(alphabet, field, basis, D)


def normal_form(f: FreePoly, gb: TruncatedGB) -> FreePoly:
    return gb.normal_form(f)
