"""Words and exact noncommutative polynomials in a free algebra.

Words are plain tuples of generator indices; a polynomial is a finite
term map from words to nonzero scalars.  The monomial order is degree
first, ties broken left-lexicographically by generator index, which is a
two-sided monomial order on homogeneous presentations.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .scalars import CycField, Scalar

Word = tuple  # tuple[int, ...]


class Alphabet:
    """Ordered generator names with positive integer degrees."""

    __slots__ = ("names", "degrees", "index")

    def __init__(self, names: Iterable[str], degrees: Iterable[int] | None = None):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("generator names must be distinct")
        if not names:
            raise ValueError("alphabet needs at least one generator")
        if degrees is None:
            degrees = tuple(1 for _ in names)
        else:
            degrees = tuple(degrees)
        if len(degrees) != len(names) or any(d < 1 for d in degrees):
            raise ValueError("each generator needs a degree >= 1")
        self.names = names
        self.degrees = degrees
        self.index = {name: i for i, name in enumerate(names)}

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        return (
            isinstance(other, Alphabet)
            and other.names == self.names
            and other.degrees == self.degrees
        )

    def __hash__(self):
        return hash((self.names, self.degrees))

    def __repr__(self):
        return "Alphabet(%s)" % ", ".join(self.names)

    def word_degree(self, word: Word) -> int:
        degs = self.degrees
        return sum(degs[i] for i in word)

    def deglex_key(self, word: Word):
        return (self.word_degree(word), word)

    def word_str(self, word: Word) -> str:
        if not word:
            return "1"
        parts = []
        i = 0
        while i < len(word):
            j = i
            while j < len(word) and word[j] == word[i]:
                j += 1
            name = self.names[word[i]]
            parts.append(name if j - i == 1 else "%s^%d" % (name, j - i))
            i = j
        return "*".join(parts)


def word_cmp_deglex(alphabet: Alphabet, u: Word, v: Word) -> int:
    """-1, 0 or 1 as u is below, equal to or above v in the monomial order."""
    ku, kv = alphabet.deglex_key(u), alphabet.deglex_key(v)
    return (ku > kv) - (ku < kv)


class FreePoly:
    """Exact polynomial in the free algebra over a fixed alphabet."""

    __slots__ = ("alphabet", "field", "terms")

    def __init__(self, alphabet: Alphabet, field: CycField, terms: dict | None = None):
        self.alphabet = alphabet
        self.field = field
        self.terms = {} if terms is None else terms  # word -> nonzero Scalar

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, alphabet, field):
        return cls(alphabet, field)

    @classmethod
    def one(cls, alphabet, field):
        return cls(alphabet, field, {(): field.one})

    @classmethod
    def gen(cls, alphabet, field, i: int):
        return cls(alphabet, field, {(i,): field.one})

    @classmethod
    def monomial(cls, alphabet, field, word: Word, coeff=None):
        c = field.one if coeff is None else field.scalar(coeff)
        if not c:
            return cls(alphabet, field)
        return cls(alphabet, field, {tuple(word): c})

    def _check(self, other: "FreePoly"):
        if other.alphabet != self.alphabet or other.field != self.field:
            raise ValueError("polynomials over different free algebras")

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def degree(self):
        """Maximal word degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        wd = self.alphabet.word_degree
        return max(wd(w) for w in self.terms)

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        wd = self.alphabet.word_degree
        degs = {wd(w) for w in self.terms}
        return len(degs) == 1

    def homogeneous_component(self, d: int) -> "FreePoly":
        wd = self.alphabet.word_degree
        return FreePoly(
            self.alphabet, self.field, {w: c for w, c in self.terms.items() if wd(w) == d}
        )

    def homogeneous_parts(self) -> dict:
        out: dict[int, FreePoly] = {}
        wd = self.alphabet.word_degree
        for w, c in self.terms.items():
            out.setdefault(wd(w), FreePoly(self.alphabet, self.field)).terms[w] = c
        return {d: out[d] for d in sorted(out)}

    def leading_word(self) -> Word:
        if not self.terms:
            raise ValueError("zero polynomial has no leading word")
        return max(self.terms, key=self.alphabet.deglex_key)

    def leading_coeff(self) -> Scalar:
        return self.terms[self.leading_word()]

    def coefficient(self, word: Word) -> Scalar:
        return self.terms.get(tuple(word), self.field.zero)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, FreePoly):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for w, c in other.terms.items():
            cur = terms.get(w)
            s = c if cur is None else cur + c
            if s:
                terms[w] = s
            elif cur is not None:
                del terms[w]
        return FreePoly(self.alphabet, self.field, terms)

    def __sub__(self, other):
        if not isinstance(other, FreePoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return FreePoly(self.alphabet, self.field, {w: -c for w, c in self.terms.items()})

    def scale(self, coeff) -> "FreePoly":
        c = self.field.scalar(coeff)
        if not c:
            return FreePoly(self.alphabet, self.field)
        return FreePoly(self.alphabet, self.field, {w: c * v for w, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        if not isinstance(other, FreePoly):
            return NotImplemented
        self._check(other)
        terms: dict = {}
        for u, cu in self.terms.items():
            for v, cv in other.terms.items():
                w = u + v
                c = cu * cv
                cur = terms.get(w)
                s = c if cur is None else cur + c
                if s:
                    terms[w] = s
                elif cur is not None:
                    del terms[w]
        return FreePoly(self.alphabet, self.field, terms)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        result = FreePoly.one(self.alphabet, self.field)
        for _ in range(n):
            result = result * self
        return result

    def lshift(self, word: Word) -> "FreePoly":
        """Multiply by a word on the left."""
        word = tuple(word)
        return FreePoly(self.alphabet, self.field, {word + w: c for w, c in self.terms.items()})

    def rshift(self, word: Word) -> "FreePoly":
        """Multiply by a word on the right."""
        word = tuple(word)
        return FreePoly(self.alphabet, self.field, {w + word: c for w, c in self.terms.items()})

    def monic(self) -> "FreePoly":
        if not self.terms:
            return self
        return self.scale(self.leading_coeff().inv())

    # -- equality and rendering ----------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, FreePoly):
            return NotImplemented
        return (
            self.alphabet == other.alphabet
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.alphabet, frozenset(self.terms.items())))

    def __str__(self):
        if not self.terms:
            return "0"
        key = self.alphabet.deglex_key
        parts = []
        for w in sorted(self.terms, key=key):
            c = self.terms[w]
            word = self.alphabet.word_str(w)
            if not w:
                cs = str(c) if c.is_simple() else "(%s)" % c
            elif c.is_one():
                cs = word
                word = ""
            elif c == self.field.scalar(-1):
                cs = "-" + word
                word = ""
            elif c.is_simple():
                cs = "%s*%s" % (c, word)
                word = ""
            else:
                cs = "(%s)*%s" % (c, word)
                word = ""
            parts.append(cs)
        out = parts[0]
        for p in parts[1:]:
            if p.startswith("-"):
                out += " - " + p[1:]
            else:
                out += " + " + p
        return out

    def __repr__(self):
        return "FreePoly(%s)" % self
