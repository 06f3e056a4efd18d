"""Hand-written recursive descent parser for the session script language.

The grammar is documented in docs/dsl.md.  parse() produces an AST with
source positions and performs the binding checks that are decidable
syntactically: declaration before use, matrix shapes against generator
counts, root-of-unity orders against the declared conductor, and generator
names inside polynomials wherever the owning algebra is known.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from fractions import Fraction

from .. import gbasis
from ..errors import ConductorTooSmall, ParseError
from ..freealgebra import Alphabet, FreePoly
from ..galgebra import default_names
from ..scalars import CycField

KEYWORDS = {
    "field",
    "cyclotomic",
    "algebra",
    "group",
    "pair",
    "task",
    "commutative",
    "quantum_affine",
    "downup",
    "presentation",
    "quotient",
    "matrices",
    "gens",
    "rels",
}

# Size caps checked at parse time (docs/dsl.md).  Beyond the first two a run
# stalls before its first task: the field's reduction data has about
# phi(m)^2 entries, and an algebra's setup grows with its generators.
# commutative(n) and an n x n quantum_affine are capped lower by the
# completion bound gbasis.MAX_OVERLAP_PAIRS (``_cap_rules``).  The
# cofinality task writes one table entry per s <= s_max, and computes
# radical powers up to n_cap.
MAX_CONDUCTOR = 1000
MAX_GENERATORS = 64
MAX_EXPONENT = 100

TASK_KINDS = ("radical", "pertinency", "invariants", "cofinality", "verify", "semisimple")

STRATEGY_NAMES = {
    "eigen": "eigen_product",
    "translate": "translate_product",
    "qcommuting": "qcommuting_product",
    "determinant": "determinant",
}


# -- tokens --------------------------------------------------------------------


@dataclass
class Token:
    kind: str  # IDENT INT ROOT PUNCT EOF
    value: object
    line: int
    col: int


_PUNCT = set("()[]{},;:=^*+-/")


def _lex(text: str):
    tokens = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == "(" and i + 2 < n and text[i + 1] == "z":
            j = i + 2
            while j < n and text[j].isdigit():
                j += 1
            if j > i + 2 and j < n and text[j] == ")":
                tokens.append(Token("ROOT", int(text[i + 2 : j]), line, col))
                col += j + 1 - i
                i = j + 1
                continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("INT", int(text[i:j]), line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("IDENT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c in _PUNCT:
            tokens.append(Token("PUNCT", c, line, col))
            i += 1
            col += 1
            continue
        raise ParseError("unexpected character %r" % c, line, col)
    tokens.append(Token("EOF", None, line, col))
    return tokens


# -- AST -----------------------------------------------------------------------


@dataclass
class ScalarTerm:
    coef: Fraction
    roots: tuple  # ((order, exponent), ...)

    def render(self) -> str:
        parts = []
        c = self.coef
        if not self.roots:
            return str(c)
        for order, e in self.roots:
            parts.append("(z%d)" % order if e == 1 else "(z%d)^%d" % (order, e))
        body = "*".join(parts)
        if c == 1:
            return body
        if c == -1:
            return "-" + body
        return "%s*%s" % (c, body)


@dataclass
class ScalarExpr:
    terms: tuple  # of ScalarTerm
    span: tuple = dfield(compare=False, default=None)

    def render(self) -> str:
        if not self.terms:
            return "0"
        out = self.terms[0].render()
        for t in self.terms[1:]:
            r = t.render()
            out += " - " + r[1:] if r.startswith("-") else " + " + r
        return out

    def eval(self, field: CycField):
        total = field.zero
        for t in self.terms:
            val = field.scalar(t.coef)
            for order, e in t.roots:
                val = val * field.primitive_root(order) ** e
            total = total + val
        return total

    def root_orders(self):
        return [order for t in self.terms for order, _ in t.roots]


@dataclass
class PolyTerm:
    scalar: ScalarExpr
    word: tuple  # ((generator name, exponent), ...)

    def render(self) -> str:
        ws = "*".join(n if e == 1 else "%s^%d" % (n, e) for n, e in self.word)
        s = self.scalar
        simple = len(s.terms) <= 1
        if not self.word:
            return s.render() if simple else "(%s)" % s.render()
        if simple:
            t = s.terms[0]
            if t.coef == 1 and not t.roots:
                return ws
            if t.coef == -1 and not t.roots:
                return "-" + ws
            return "%s*%s" % (t.render(), ws)
        return "(%s)*%s" % (s.render(), ws)


@dataclass
class PolyExpr:
    terms: tuple  # of PolyTerm
    span: tuple = dfield(compare=False, default=None)

    def render(self) -> str:
        if not self.terms:
            return "0"
        out = self.terms[0].render()
        for t in self.terms[1:]:
            r = t.render()
            out += " - " + r[1:] if r.startswith("-") else " + " + r
        return out

    def eval(self, alphabet: Alphabet, field: CycField) -> FreePoly:
        total = FreePoly.zero(alphabet, field)
        for t in self.terms:
            c = t.scalar.eval(field)
            word = []
            for name, e in t.word:
                if name not in alphabet.index:
                    line, col = self.span or (0, 0)
                    raise ParseError("unknown generator %r" % name, line, col)
                word.extend([alphabet.index[name]] * e)
            total = total + FreePoly.monomial(alphabet, field, tuple(word), c)
        return total

    def root_orders(self):
        return [o for t in self.terms for o in t.scalar.root_orders()]

    def gen_names(self):
        return [name for t in self.terms for name, _ in t.word]


@dataclass
class FieldDecl:
    m: int
    span: tuple = dfield(compare=False, default=None)

    def render(self):
        return "field cyclotomic(%d);" % self.m


@dataclass
class CommutativeExpr:
    n: int

    def render(self):
        return "commutative(%d)" % self.n


@dataclass
class QuantumAffineExpr:
    matrix: tuple  # of tuple of ScalarExpr

    def render(self):
        rows = ", ".join(
            "[%s]" % ", ".join(e.render() for e in row) for row in self.matrix
        )
        return "quantum_affine([%s])" % rows


@dataclass
class DownupExpr:
    alpha: ScalarExpr
    beta: ScalarExpr

    def render(self):
        return "downup(%s, %s)" % (self.alpha.render(), self.beta.render())


@dataclass
class PresentationExpr:
    gens: tuple  # of str
    rels: tuple  # of PolyExpr

    def render(self):
        rels = ", ".join(r.render() for r in self.rels)
        return "presentation { gens: %s; rels: %s; }" % (", ".join(self.gens), rels)


@dataclass
class QuotientExpr:
    base: str
    elems: tuple  # of PolyExpr

    def render(self):
        return "quotient(%s, [%s])" % (self.base, ", ".join(e.render() for e in self.elems))


@dataclass
class AlgebraDecl:
    name: str
    expr: object
    span: tuple = dfield(compare=False, default=None)

    def render(self):
        return "algebra %s = %s;" % (self.name, self.expr.render())


@dataclass
class GroupDecl:
    name: str
    items: tuple  # of (name, matrix of ScalarExpr)
    span: tuple = dfield(compare=False, default=None)

    def render(self):
        parts = []
        for gname, matrix in self.items:
            rows = ", ".join(
                "[%s]" % ", ".join(e.render() for e in row) for row in matrix
            )
            parts.append("%s: [%s];" % (gname, rows))
        return "group %s = matrices { %s };" % (self.name, " ".join(parts))


@dataclass
class PairDecl:
    name: str
    left: tuple  # of PolyExpr
    right: tuple
    span: tuple = dfield(compare=False, default=None)

    def render(self):
        return "pair %s = ([%s], [%s]);" % (
            self.name,
            ", ".join(p.render() for p in self.left),
            ", ".join(p.render() for p in self.right),
        )


@dataclass
class TaskDecl:
    kind: str
    args: tuple  # of str
    options: tuple  # of (key, value) with value int | str | tuple[str]
    span: tuple = dfield(compare=False, default=None)

    def option(self, key, default=None):
        for k, v in self.options:
            if k == key:
                return v
        return default

    def render(self):
        parts = ["task", self.kind] + list(self.args)
        for k, v in self.options:
            if isinstance(v, tuple):
                parts.append("%s=%s" % (k, "+".join(v)))
            else:
                parts.append("%s=%s" % (k, v))
        return " ".join(parts) + ";"


@dataclass
class SessionScript:
    field: FieldDecl
    statements: tuple  # declarations and tasks, in source order
    span: tuple = dfield(compare=False, default=None)

    @property
    def algebras(self):
        return {s.name: s for s in self.statements if isinstance(s, AlgebraDecl)}

    @property
    def groups(self):
        return {s.name: s for s in self.statements if isinstance(s, GroupDecl)}

    @property
    def pairs(self):
        return {s.name: s for s in self.statements if isinstance(s, PairDecl)}

    @property
    def tasks(self):
        return [s for s in self.statements if isinstance(s, TaskDecl)]

    def render(self):
        lines = [self.field.render()]
        lines.extend(s.render() for s in self.statements)
        return "\n".join(lines) + "\n"


# -- parser ---------------------------------------------------------------------


class _Parser:
    def __init__(self, text):
        self.tokens = _lex(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def error(self, message, token=None):
        t = token or self.peek()
        raise ParseError(message, t.line, t.col)

    def expect_punct(self, ch) -> Token:
        t = self.peek()
        if t.kind != "PUNCT" or t.value != ch:
            self.error("expected %r" % ch)
        return self.next()

    def expect_ident(self, what="identifier") -> Token:
        t = self.peek()
        if t.kind != "IDENT":
            self.error("expected %s" % what)
        return self.next()

    def expect_int(self) -> Token:
        t = self.peek()
        if t.kind != "INT":
            self.error("expected an integer")
        return self.next()

    def expect_keyword(self, kw):
        t = self.peek()
        if t.kind != "IDENT" or t.value != kw:
            self.error("expected %r" % kw)
        return self.next()

    def at_punct(self, ch) -> bool:
        t = self.peek()
        return t.kind == "PUNCT" and t.value == ch

    # -- scalar and polynomial expressions ------------------------------------

    def parse_fraction(self) -> Fraction:
        t = self.expect_int()
        num = t.value
        if self.at_punct("/"):
            self.next()
            den = self.expect_int().value
            if den == 0:
                self.error("zero denominator", t)
            return Fraction(num, den)
        return Fraction(num)

    def parse_scalar_term(self, sign=1) -> ScalarTerm:
        coef = Fraction(sign)
        roots = []
        saw_atom = False
        while True:
            t = self.peek()
            if t.kind == "INT":
                coef *= self.parse_fraction()
                saw_atom = True
            elif t.kind == "ROOT":
                self.next()
                e = 1
                if self.at_punct("^"):
                    self.next()
                    e = self.expect_int().value
                roots.append((t.value, e))
                saw_atom = True
            else:
                break
            if self.at_punct("*") and self.tokens[self.pos + 1].kind in ("INT", "ROOT"):
                self.next()
                continue
            break
        if not saw_atom:
            self.error("expected a scalar")
        return ScalarTerm(coef, tuple(roots))

    def parse_scalar_expr(self) -> ScalarExpr:
        span = (self.peek().line, self.peek().col)
        sign = 1
        if self.at_punct("-"):
            self.next()
            sign = -1
        elif self.at_punct("+"):
            self.next()
        terms = [self.parse_scalar_term(sign)]
        while self.at_punct("+") or self.at_punct("-"):
            sign = 1 if self.next().value == "+" else -1
            terms.append(self.parse_scalar_term(sign))
        return ScalarExpr(tuple(terms), span)

    def parse_poly_term(self, sign=1) -> PolyTerm:
        coef = Fraction(sign)
        roots = []
        word = []
        composite = []  # parenthesized scalar factors
        saw = False
        while True:
            t = self.peek()
            if t.kind == "INT":
                coef *= self.parse_fraction()
                saw = True
            elif t.kind == "ROOT":
                self.next()
                e = 1
                if self.at_punct("^"):
                    self.next()
                    e = self.expect_int().value
                roots.append((t.value, e))
                saw = True
            elif t.kind == "IDENT":
                self.next()
                e = 1
                if self.at_punct("^"):
                    self.next()
                    e = self.expect_int().value
                word.append((t.value, e))
                saw = True
            elif t.kind == "PUNCT" and t.value == "(":
                self.next()
                composite.append(self.parse_scalar_expr())
                self.expect_punct(")")
                saw = True
            else:
                break
            if self.at_punct("*"):
                self.next()
                continue
            break
        if not saw:
            self.error("expected a polynomial term")
        # scalars are central, so factor order is immaterial: expand products
        terms = [ScalarTerm(coef, tuple(roots))]
        for expr in composite:
            terms = [
                ScalarTerm(a.coef * b.coef, a.roots + b.roots)
                for a in terms
                for b in expr.terms
            ]
        return PolyTerm(ScalarExpr(tuple(terms)), tuple(word))

    def parse_poly(self) -> PolyExpr:
        span = (self.peek().line, self.peek().col)
        sign = 1
        if self.at_punct("-"):
            self.next()
            sign = -1
        elif self.at_punct("+"):
            self.next()
        terms = [self.parse_poly_term(sign)]
        while self.at_punct("+") or self.at_punct("-"):
            sign = 1 if self.next().value == "+" else -1
            terms.append(self.parse_poly_term(sign))
        return PolyExpr(tuple(terms), span)

    def parse_poly_list(self, close: str):
        out = []
        if self.at_punct(close):
            return out
        out.append(self.parse_poly())
        while self.at_punct(","):
            self.next()
            out.append(self.parse_poly())
        return out

    def parse_matrix(self):
        self.expect_punct("[")
        rows = []
        while True:
            self.expect_punct("[")
            row = [self.parse_scalar_expr()]
            while self.at_punct(","):
                self.next()
                row.append(self.parse_scalar_expr())
            self.expect_punct("]")
            rows.append(tuple(row))
            if self.at_punct(","):
                self.next()
                continue
            break
        self.expect_punct("]")
        return tuple(rows)

    # -- statements -------------------------------------------------------------

    def parse_script(self) -> SessionScript:
        field_decl = None
        statements = []
        while self.peek().kind != "EOF":
            t = self.peek()
            if t.kind != "IDENT":
                self.error("expected a statement")
            if t.value == "field":
                if field_decl is not None:
                    self.error("duplicate field declaration", t)
                if statements:
                    self.error("the field declaration must come first", t)
                field_decl = self.parse_field()
            elif t.value == "algebra":
                statements.append(self.parse_algebra())
            elif t.value == "group":
                statements.append(self.parse_group())
            elif t.value == "pair":
                statements.append(self.parse_pair())
            elif t.value == "task":
                statements.append(self.parse_task())
            else:
                self.error("unknown statement %r" % t.value)
        if field_decl is None:
            field_decl = FieldDecl(1, (1, 1))
        return SessionScript(field_decl, tuple(statements), (1, 1))

    def parse_field(self) -> FieldDecl:
        t = self.expect_keyword("field")
        self.expect_keyword("cyclotomic")
        self.expect_punct("(")
        m = self.expect_int().value
        self.expect_punct(")")
        self.expect_punct(";")
        if m < 1:
            self.error("conductor must be positive", t)
        if m > MAX_CONDUCTOR:
            self.error("conductor must be at most %d" % MAX_CONDUCTOR, t)
        return FieldDecl(m, (t.line, t.col))

    def parse_algebra(self) -> AlgebraDecl:
        t = self.expect_keyword("algebra")
        name = self.expect_ident("algebra name").value
        self.expect_punct("=")
        kind = self.expect_ident("algebra constructor")
        if kind.value == "commutative":
            self.expect_punct("(")
            tok = self.expect_int()
            if tok.value < 1:
                self.error("commutative needs at least one generator", tok)
            self._cap_generators(tok.value, tok)
            self._cap_rules(tok.value, tok)
            self.expect_punct(")")
            expr = CommutativeExpr(tok.value)
        elif kind.value == "quantum_affine":
            self.expect_punct("(")
            expr = QuantumAffineExpr(self.parse_matrix())
            self._cap_generators(len(expr.matrix), kind)
            self._cap_rules(len(expr.matrix), kind)
            self.expect_punct(")")
        elif kind.value == "downup":
            self.expect_punct("(")
            alpha = self.parse_scalar_expr()
            self.expect_punct(",")
            beta = self.parse_scalar_expr()
            self.expect_punct(")")
            expr = DownupExpr(alpha, beta)
        elif kind.value == "presentation":
            self.expect_punct("{")
            self.expect_keyword("gens")
            self.expect_punct(":")
            gens = [self.expect_ident("generator name").value]
            while self.at_punct(","):
                self.next()
                gens.append(self.expect_ident("generator name").value)
            self._cap_generators(len(gens), kind)
            self.expect_punct(";")
            self.expect_keyword("rels")
            self.expect_punct(":")
            rels = self.parse_poly_list(";")
            self.expect_punct(";")
            self.expect_punct("}")
            expr = PresentationExpr(tuple(gens), tuple(rels))
        elif kind.value == "quotient":
            self.expect_punct("(")
            base = self.expect_ident("algebra name").value
            self.expect_punct(",")
            self.expect_punct("[")
            elems = self.parse_poly_list("]")
            self.expect_punct("]")
            self.expect_punct(")")
            expr = QuotientExpr(base, tuple(elems))
        else:
            self.error("unknown algebra constructor %r" % kind.value, kind)
        self.expect_punct(";")
        return AlgebraDecl(name, expr, (t.line, t.col))

    def _cap_generators(self, n, token):
        if n > MAX_GENERATORS:
            self.error("an algebra has at most %d generators" % MAX_GENERATORS, token)

    def _cap_rules(self, n, token):
        # the n(n-1)/2 relations x_j x_i - q x_i x_j are reduced with distinct
        # leading words, so the first completion sweep searches rules^2 pairs
        rules = n * (n - 1) // 2
        if rules * rules > gbasis.MAX_OVERLAP_PAIRS:
            self.error(
                "%d generators give %d commutation relations, so %d overlap pairs, above %d"
                % (n, rules, rules * rules, gbasis.MAX_OVERLAP_PAIRS),
                token,
            )

    def parse_group(self) -> GroupDecl:
        t = self.expect_keyword("group")
        name = self.expect_ident("group name").value
        self.expect_punct("=")
        self.expect_keyword("matrices")
        self.expect_punct("{")
        items = []
        while not self.at_punct("}"):
            gname = self.expect_ident("generator label").value
            self.expect_punct(":")
            matrix = self.parse_matrix()
            self.expect_punct(";")
            items.append((gname, matrix))
        self.expect_punct("}")
        self.expect_punct(";")
        if not items:
            self.error("a group needs at least one generator matrix", t)
        return GroupDecl(name, tuple(items), (t.line, t.col))

    def parse_pair(self) -> PairDecl:
        t = self.expect_keyword("pair")
        name = self.expect_ident("pair name").value
        self.expect_punct("=")
        self.expect_punct("(")
        self.expect_punct("[")
        left = self.parse_poly_list("]")
        self.expect_punct("]")
        self.expect_punct(",")
        self.expect_punct("[")
        right = self.parse_poly_list("]")
        self.expect_punct("]")
        self.expect_punct(")")
        self.expect_punct(";")
        return PairDecl(name, tuple(left), tuple(right), (t.line, t.col))

    def parse_task(self) -> TaskDecl:
        t = self.expect_keyword("task")
        kind = self.expect_ident("task kind")
        if kind.value not in TASK_KINDS:
            self.error("unknown task kind %r" % kind.value, kind)
        args = []
        options = []
        while not self.at_punct(";"):
            ident = self.expect_ident("task argument")
            if self.at_punct("="):
                self.next()
                nt = self.peek()
                if nt.kind == "INT":
                    self.next()
                    options.append((ident.value, nt.value))
                elif nt.kind == "IDENT":
                    values = [self.next().value]
                    while self.at_punct("+"):
                        self.next()
                        values.append(self.expect_ident("list entry").value)
                    options.append(
                        (ident.value, values[0] if len(values) == 1 else tuple(values))
                    )
                else:
                    self.error("expected an option value")
            else:
                args.append(ident.value)
        self.expect_punct(";")
        return TaskDecl(kind.value, tuple(args), tuple(options), (t.line, t.col))


# -- binding validation -----------------------------------------------------------


def _check_conductor(script: SessionScript):
    m = script.field.m

    def check_orders(expr, span):
        for order in expr.root_orders():
            if m % order != 0:
                line, col = span or (0, 0)
                raise ConductorTooSmall(
                    "%d:%d: (z%d) needs the conductor (%d) to be a multiple of %d"
                    % (line, col, order, m, order)
                )

    for s in script.statements:
        if isinstance(s, AlgebraDecl):
            e = s.expr
            if isinstance(e, QuantumAffineExpr):
                for row in e.matrix:
                    for entry in row:
                        check_orders(entry, s.span)
            elif isinstance(e, DownupExpr):
                check_orders(e.alpha, s.span)
                check_orders(e.beta, s.span)
            elif isinstance(e, PresentationExpr):
                for r in e.rels:
                    check_orders(r, r.span or s.span)
            elif isinstance(e, QuotientExpr):
                for r in e.elems:
                    check_orders(r, r.span or s.span)
        elif isinstance(s, GroupDecl):
            for _, matrix in s.items:
                for row in matrix:
                    for entry in row:
                        check_orders(entry, s.span)
        elif isinstance(s, PairDecl):
            for p in s.left + s.right:
                check_orders(p, p.span or s.span)


def _algebra_gen_names(script, name, seen=None):
    """Generator names of a declared algebra, following quotient bases."""
    decl = script.algebras[name]
    e = decl.expr
    if isinstance(e, CommutativeExpr):
        return default_names(e.n)
    if isinstance(e, QuantumAffineExpr):
        return default_names(len(e.matrix))
    if isinstance(e, DownupExpr):
        return ["x", "y"]
    if isinstance(e, PresentationExpr):
        return list(e.gens)
    if isinstance(e, QuotientExpr):
        return _algebra_gen_names(script, e.base)
    raise AssertionError("unhandled algebra expression")


def _validate(script: SessionScript):
    declared: dict = {}
    for s in script.statements:
        if isinstance(s, (AlgebraDecl, GroupDecl, PairDecl)):
            kind = type(s).__name__
            if s.name in declared:
                line, col = s.span
                raise ParseError("duplicate declaration of %r" % s.name, line, col)
            declared[s.name] = s
        if isinstance(s, AlgebraDecl):
            e = s.expr
            if isinstance(e, PresentationExpr):
                names = set(e.gens)
                if len(names) != len(e.gens):
                    line, col = s.span
                    raise ParseError("repeated generator names", line, col)
                for r in e.rels:
                    for g in r.gen_names():
                        if g not in names:
                            line, col = r.span or s.span
                            raise ParseError("undeclared generator %r" % g, line, col)
            if isinstance(e, QuotientExpr):
                base = declared.get(e.base)
                if not isinstance(base, AlgebraDecl):
                    line, col = s.span
                    raise ParseError("undeclared algebra %r" % e.base, line, col)
                base_names = set(_algebra_gen_names(script, e.base))
                for r in e.elems:
                    for g in r.gen_names():
                        if g not in base_names:
                            line, col = r.span or s.span
                            raise ParseError("undeclared generator %r" % g, line, col)
            if isinstance(e, QuantumAffineExpr):
                n = len(e.matrix)
                if any(len(row) != n for row in e.matrix):
                    line, col = s.span
                    raise ParseError("quantum_affine needs a square matrix", line, col)
        if isinstance(s, GroupDecl):
            shape = {len(m) for _, m in s.items} | {
                len(row) for _, m in s.items for row in m
            }
            if len(shape) != 1:
                line, col = s.span
                raise ParseError("group matrices must be square, same size", line, col)
        if isinstance(s, TaskDecl):
            _validate_task(script, declared, s)


_TASK_SIGNATURES = {
    "radical": ("algebra", "group"),
    "pertinency": ("algebra", "group"),
    "invariants": ("algebra", "group"),
    "cofinality": ("algebra", "group"),
    "semisimple": ("algebra", "group"),
    "verify": ("pair", "algebra", "group"),
}

_TASK_OPTIONS = {
    "radical": {"maxdeg", "strategies", "pairs"},
    "pertinency": {"maxdeg", "window"},
    "invariants": {"maxdeg"},
    "cofinality": {"maxdeg", "s_max", "n_cap"},
    "semisimple": {"maxdeg"},
    "verify": {"maxdeg"},
}


def _validate_task(script, declared, task: TaskDecl):
    line, col = task.span
    sig = _TASK_SIGNATURES[task.kind]
    if len(task.args) != len(sig):
        raise ParseError(
            "task %s expects %s" % (task.kind, " ".join("<%s>" % a for a in sig)),
            line,
            col,
        )
    kinds = {"algebra": AlgebraDecl, "group": GroupDecl, "pair": PairDecl}
    for arg, want in zip(task.args, sig):
        decl = declared.get(arg)
        if decl is None or not isinstance(decl, kinds[want]):
            raise ParseError("undeclared %s %r" % (want, arg), line, col)
    if "group" in sig:
        aname, gname = task.args[-2:]
        n = len(_algebra_gen_names(script, aname))
        size = len(declared[gname].items[0][1])  # all matrices share it
        if size != n:
            raise ParseError(
                "group %s acts by %dx%d matrices, but %s has %d generators"
                % (gname, size, size, aname, n),
                line,
                col,
            )
    allowed = _TASK_OPTIONS[task.kind]
    for key, value in task.options:
        if key not in allowed:
            raise ParseError("unknown option %r for task %s" % (key, task.kind), line, col)
        if key in ("maxdeg", "window", "s_max", "n_cap"):
            if not isinstance(value, int) or value < 1:
                raise ParseError("option %s needs a positive integer" % key, line, col)
        if key in ("s_max", "n_cap") and value > MAX_EXPONENT:
            raise ParseError("option %s must be at most %d" % (key, MAX_EXPONENT), line, col)
        if key == "strategies":
            values = value if isinstance(value, tuple) else (value,)
            for v in values:
                if v not in STRATEGY_NAMES:
                    raise ParseError(
                        "unknown strategy %r (choose from %s)"
                        % (v, ", ".join(sorted(STRATEGY_NAMES))),
                        line,
                        col,
                    )
        if key == "pairs":
            values = value if isinstance(value, tuple) else (value,)
            for v in values:
                if not isinstance(declared.get(v), PairDecl):
                    raise ParseError("undeclared pair %r" % v, line, col)
    # generator names in pair polynomials, now that the algebra is known
    if task.kind == "verify":
        pair = declared[task.args[0]]
        names = set(_algebra_gen_names(script, task.args[1]))
        for p in pair.left + pair.right:
            for g in p.gen_names():
                if g not in names:
                    pline, pcol = p.span or pair.span
                    raise ParseError("undeclared generator %r" % g, pline, pcol)
    if task.kind == "radical":
        pairs = task.option("pairs")
        if pairs is not None:
            values = pairs if isinstance(pairs, tuple) else (pairs,)
            names = set(_algebra_gen_names(script, task.args[0]))
            for v in values:
                pair = declared[v]
                for p in pair.left + pair.right:
                    for g in p.gen_names():
                        if g not in names:
                            pline, pcol = p.span or pair.span
                            raise ParseError("undeclared generator %r" % g, pline, pcol)


def parse(text: str) -> SessionScript:
    """Parse and validate a session script."""
    script = _Parser(text).parse_script()
    _validate(script)
    _check_conductor(script)
    return script
