"""The skew group algebra, graded ideal tables and the radical oracle.

The radical of the action is R cap W, with W = (R#G) e (R#G), R#G the skew
group algebra and e = (1/|G|) sum_g g its averaging idempotent.  Degree by
degree it is a finite, exact linear problem.  The oracle drops R e, which
lies in W: with g0 a fixed non-identity element (|G| >= 2),

    pi(sum_g r_g # g) = (r_g - r_g0)_{g != g0}

is left R-linear with kernel R e, so W is the preimage of pi(W), a left
submodule of R^(|G|-1), and r # 1 maps to r in the identity block.  The
radical is the part of pi(W) supported on that block.  The oracle builds
pi(W)_d by the letter recursion

    pi(W)_d = sum_x x pi(W)_{d - deg x} + pi(e R_d)    (x over the letters),

which holds because R is connected graded and generated by its letters, so
R_i = sum_x x R_{i - deg x} for i >= 1.  The same closure,
``letter_closure``, builds ideal closures and ideal products of graded
tables from the rows of lower degrees, over the letters or over any
homogeneous multipliers of positive degree that the table is closed under.
"""

from __future__ import annotations

from functools import partial
from math import lcm

from . import kernel, linalg
from .action import FiniteGroup
from .errors import TruncationExceeded
from .galgebra import AlgElement, GradedAlgebra, letter_images, substitution_images


class GradedIdealTable:
    """Canonical per-degree echelon bases of a graded subspace of R.

    Rows are stored in reduced row echelon form over the degree-d monomial
    basis, so two tables describe the same subspaces exactly when they
    compare equal.  The provenance tag records how the table was produced.
    A table is not changed after it is built, so ``one_sided_generators``
    keeps its answers for it in ``_sided``.
    """

    __slots__ = ("algebra", "D", "tag", "rows", "_sided")

    def __init__(self, algebra: GradedAlgebra, D: int, rows, tag: str):
        self.algebra = algebra
        self.D = D
        self.rows = tuple(tuple(rs) for rs in rows)
        self.tag = tag
        self._sided: dict = {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, R: GradedAlgebra, D: int, tag: str = "user"):
        return cls(R, D, [[] for _ in range(D + 1)], tag)

    @classmethod
    def full(cls, R: GradedAlgebra, D: int, tag: str = "user"):
        one = R.field.one.raw
        rows = []
        for d in range(D + 1):
            rows.append([(j, {j: one}) for j in range(R.dim(d))])
        return cls(R, D, rows, tag)

    @classmethod
    def from_vectors(cls, R: GradedAlgebra, D: int, vecs_by_degree, tag: str = "user"):
        rows = []
        for d in range(D + 1):
            vecs = vecs_by_degree.get(d, [])
            rows.append(linalg.rref(R.field, [dict(v) for v in vecs]))
        return cls(R, D, rows, tag)

    @classmethod
    def from_elements(cls, R: GradedAlgebra, D: int, elems, tag: str = "user"):
        by_degree: dict = {}
        for e in elems:
            for d, part in e.homogeneous_parts().items():
                if d <= D:
                    by_degree.setdefault(d, []).append(R.coords(part, d))
        return cls.from_vectors(R, D, by_degree, tag)

    @classmethod
    def ideal_from_generators(cls, R: GradedAlgebra, gens, D: int, tag: str = "user"):
        """Two-sided ideal closure of homogeneous generators, degree by degree."""
        return cls.from_elements(R, D, gens, tag).closure(True, True)

    # -- queries -------------------------------------------------------------

    def dim(self, d: int) -> int:
        return len(self.rows[d])

    def dims(self) -> list[int]:
        return [len(rs) for rs in self.rows]

    def is_zero(self) -> bool:
        return all(not rs for rs in self.rows)

    def member_vec(self, d: int, vec) -> bool:
        return linalg.in_span(self.algebra.field, vec, self.rows[d])

    def member(self, elem: AlgElement) -> bool:
        """Exact membership of an element with homogeneous parts of degree <= D."""
        if elem.algebra is not self.algebra:
            raise ValueError("element of a different algebra")
        for d, part in elem.homogeneous_parts().items():
            if d > self.D:
                raise TruncationExceeded("membership test beyond table degree")
            if not self.member_vec(d, self.algebra.coords(part, d)):
                return False
        return True

    def polys(self, d: int):
        return [self.algebra.vector_to_element(d, row) for _, row in self.rows[d]]

    def first_nonzero(self):
        """Minimal degree with a nonzero component and its first basis element."""
        for d in range(self.D + 1):
            if self.rows[d]:
                return d, self.algebra.vector_to_element(d, self.rows[d][0][1])
        return None, None

    def __eq__(self, other):
        if not isinstance(other, GradedIdealTable):
            return NotImplemented
        return (
            self.algebra is other.algebra
            and self.D == other.D
            and self.rows == other.rows
        )

    def equal_upto(self, other: "GradedIdealTable", upto: int | None = None):
        """Per-degree equality flags against another table."""
        upto = min(self.D, other.D) if upto is None else upto
        return [self.rows[d] == other.rows[d] for d in range(upto + 1)]

    def contains_table(self, other: "GradedIdealTable", upto: int | None = None) -> bool:
        upto = min(self.D, other.D) if upto is None else upto
        field = self.algebra.field
        return all(
            linalg.span_contains(field, other.rows[d], self.rows[d]) for d in range(upto + 1)
        )

    # -- algebra on tables -----------------------------------------------------

    def union(self, other: "GradedIdealTable", tag=None) -> "GradedIdealTable":
        _same_frame(self, other)
        field = self.algebra.field
        rows = [
            linalg.sum_rows(field, self.rows[d], other.rows[d]) for d in range(self.D + 1)
        ]
        return GradedIdealTable(self.algebra, self.D, rows, tag or self.tag)

    def intersect(self, other: "GradedIdealTable", tag=None) -> "GradedIdealTable":
        _same_frame(self, other)
        field = self.algebra.field
        rows = []
        for d in range(self.D + 1):
            rows.append(
                linalg.intersect_rows(
                    field, self.rows[d], other.rows[d], self.algebra.dim(d)
                )
            )
        return GradedIdealTable(self.algebra, self.D, rows, tag or self.tag)

    def product(
        self, other: "GradedIdealTable", tag=None, multipliers=None
    ) -> "GradedIdealTable":
        """Degree-wise span of pairwise products; the ideal product for ideals.

        (IJ)_d = sum_i I_i J_{d-i}.  The multipliers m are homogeneous of
        positive degree: the letters of R by default, or the given
        ``multipliers`` (``(degree, coordinates)`` pairs), such as the
        generators of the invariant ring for ideals of it.  They generate a
        subalgebra A (R itself for the letters), with 1 in A.

        Suppose A I lies in I (I closed on the left, checked up to D).  Let
        N_i be a complement of sum_m m I_{i - deg m} in I_i
        (``one_sided_generators``).  Then I_i = sum_m m I_{i - deg m} + N_i,
        and by induction on i, I = A N: A N lies in A I, inside I, and each
        I_i lies in A N.  Mirrored, J = M A when J A lies in J, with M the
        right complement.  Hence

            IJ = (A N)(M A) = A (N M) A,

        the closure of the seeds sum_i N_i M_{d-i} under multiplication by
        the m on both sides (``letter_closure``), built degree by degree from
        the canonical rows of the lower degrees.  A factor that is not closed
        on its side takes its own rows in place of N or M, and the closure
        omits that side: A N J, I M A, or the span of the pairs I_i J_{d-i}
        when neither is closed.  The echelon form is canonical, so every case
        gives the rows of the pairwise span.  An ideal that the rows of one
        table generate, such as aR, is its ``closure``, not a product.
        """
        _same_frame(self, other)
        R = self.algebra
        left_gens = one_sided_generators(self, left=True, multipliers=multipliers)
        right_gens = one_sided_generators(other, left=False, multipliers=multipliers)
        left_rows = self.rows if left_gens is None else left_gens
        right_rows = other.rows if right_gens is None else right_gens

        def seeds(d):
            return [
                vec_product(R, i, d - i, u, v)
                for i in range(d + 1)
                for _, u in left_rows[i]
                for _, v in right_rows[d - i]
            ]

        closed = (left_gens is not None, right_gens is not None)
        rows = letter_closure(R, seeds, self.D, *closed, multipliers=multipliers)
        return GradedIdealTable(R, self.D, rows, tag or self.tag)

    def closure(self, left: bool, right: bool) -> "GradedIdealTable":
        """The left, right or two-sided ideal of R the rows generate, up to D.

        ``letter_closure`` seeded with the table's own rows.  The closure
        keeps the table's tag.
        """
        rows = letter_closure(
            self.algebra, lambda d: [row for _, row in self.rows[d]], self.D, left, right
        )
        return GradedIdealTable(self.algebra, self.D, rows, self.tag)

    def power(self, n: int, tag=None) -> "GradedIdealTable":
        if n < 1:
            raise ValueError("power must be >= 1")
        out = self
        for _ in range(n - 1):
            out = out.product(self, tag=tag)
        return out

    # -- structural checks -------------------------------------------------------

    def is_two_sided_ideal_upto(self) -> bool:
        """Whether every letter multiple of a row lies in the table, up to D.

        The two-sided closure contains the table, and equals it exactly
        when every letter multiple x v and v x of a row v lies in it.
        """
        return self.closure(True, True) == self

    def is_g_stable(self, G: FiniteGroup) -> bool:
        field = self.algebra.field
        for g in G.elements[1:]:
            for d in range(self.D + 1):
                for _, row in self.rows[d]:
                    img = linalg.map_vector(g.matrix_on_degree(d), row, field)
                    if not linalg.in_span(field, img, self.rows[d]):
                        return False
        return True

    def dump(self) -> dict:
        """Per degree, the canonical rows rendered as polynomial strings."""
        return {d: [str(p) for p in self.polys(d)] for d in range(self.D + 1)}

    def generators(self):
        """A minimal (up to D) homogeneous generating set of the ideal.

        Degree-d rows are kept only modulo the ideal closure of the
        generators already chosen in lower degrees.
        """
        R = self.algebra
        field = R.field
        chosen: list = []
        for d in range(self.D + 1):
            if not self.rows[d]:
                continue
            if chosen:
                closure = GradedIdealTable.ideal_from_generators(
                    R, [g for g, _ in chosen], d, tag="user"
                )
                span = list(closure.rows[d])
            else:
                span = []
            for _, row in self.rows[d]:
                residue = linalg.reduce_vec(field, row, span)
                if residue:
                    chosen.append((R.vector_to_element(d, residue), d))
                    span = linalg.rref(
                        field, [dict(r) for _, r in span] + [dict(residue)]
                    )
        return chosen


def _same_frame(a: GradedIdealTable, b: GradedIdealTable):
    if a.algebra is not b.algebra or a.D != b.D:
        raise ValueError("tables over different algebras or bounds")


def multiplier_images(R: GradedAlgebra, multiplier, d: int, left: bool):
    """Coordinates of m * w (or w * m) for each degree d basis word w.

    ``multiplier`` is a homogeneous element m given as ``(degree,
    coordinates)``.  The images live over the basis of degree d + deg m and
    are cached on the algebra under the coordinates of m, in one form like
    ``letter_images``: integer when R and the coordinates of m are rational.

    They are the letter recursion ``substitution_images`` with F(1) = m and
    every coefficient 1: m (w' y) = (m w') y by the right letter images of
    y, the last letter of w, and mirrored (y w'') m = y (w'' m) by the left
    images of its first letter.
    """
    key = ("multiplier", *_multiplier_key(multiplier), left)
    return substitution_images(R, key, multiplier, None, d, left)


def _multiplier_maps(R: GradedAlgebra, multipliers, left: bool):
    """(degree, images) per multiplier, where images(d) are the cached images
    of the degree d basis words; the letters of R when ``multipliers`` is None."""
    if multipliers is None:
        return [
            (dx, partial(letter_images, R, letter, left=left))
            for letter, dx in enumerate(R.alphabet.degrees)
        ]
    if any(dm < 1 for dm, _ in multipliers):
        raise ValueError("multipliers must have positive degree")
    return [(m[0], partial(multiplier_images, R, m, left=left)) for m in multipliers]


def letter_multiples(
    R: GradedAlgebra, units, rows, ints, d: int, left: bool, multipliers=None, blocks=1
):
    """The unit columns and the other vectors among m * v (or v * m) in
    degree d, m over the multipliers (the letters by default) and v over a
    basis of degree d - deg m of a span over R^blocks (column b * h_d + t).

    The span is given per degree as ``unit_forms`` lists it: the unit
    columns ``units[i]``, the other echelon rows ``rows[i]``, and ``ints[i]``,
    None or those rows as integer rows.  m * e_c is the image of column c:
    a unit column when it has one term, else a vector.  Where ``ints[i]``
    and the images of m are both integer, the multiples of the rows are
    integer rows formed with int products; otherwise they are raw.  Either
    way each spans the line of m * v.
    """
    field = R.field
    raw_axpy = linalg.field_axpy(field)
    h = R.dim(d)
    unit_out = set()
    out = []
    for dm, images in _multiplier_maps(R, multipliers, left):
        lower = d - dm
        if lower < 0 or not (units[lower] or rows[lower]):
            continue
        form = images(lower)
        if form[0] is not None and ints[lower] is not None:
            maps, vecs, axpy = form[1], ints[lower], kernel.int_axpy
        else:
            maps, axpy = linalg.raw_vectors(form, field), raw_axpy
            vecs = [row for _, row in rows[lower]]
        if blocks > 1:
            # m (r_b)_b = (m r_b)_b: the images, shifted into each block
            maps = [{b * h + t: v for t, v in img.items()} for b in range(blocks) for img in maps]
        for c in units[lower]:
            image = maps[c]
            if len(image) == 1:
                unit_out.update(image)
            elif image:
                out.append(image)
        for row in vecs:
            vec: dict = {}
            for c, a in row.items():
                axpy(vec, a, maps[c])
            out.append(vec)
    return unit_out, out


def unit_forms(R: GradedAlgebra, echelons):
    """``(units, rows, ints)`` per degree of canonical RREFs, as
    ``letter_multiples`` reads them: the unit form of each degree
    (``linalg.split_units``), and its other rows as integer rows when R is
    rational."""
    split = [linalg.split_units(rs) for rs in echelons]
    rows = [rs for _, rs in split]
    ints = [linalg.scaled_integer_rows(rs) if R.rational else None for rs in rows]
    return [u for u, _ in split], rows, ints


def letter_closure(
    R: GradedAlgebra, seeds, D: int, left: bool, right: bool, multipliers=None, blocks=1
):
    """Per-degree canonical rows of T_d = seeds(d) + sum_m m T_{d - deg m}
    (when ``left``) + sum_m T_{d - deg m} m (when ``right``), for d <= D.

    The m run over ``multipliers``, homogeneous elements of positive degree
    given as ``(degree, coordinates)``, or over the letters of R when it is
    None.  Over the letters, with both sides this is the two-sided ideal
    generated by the seeds, with one side the one-sided ideal, with neither
    the span of the seeds.  Over other multipliers it is the closure of the
    seeds under multiplication by them, for instance the ideal of the
    invariant ring generated by the seeds when the multipliers generate the
    invariant ring.  The images come from the cached ``letter_images`` and
    ``multiplier_images``.

    The seeds are vectors with nonzero entries, raw or integer.  Each degree
    is built and kept in unit form (``linalg.unit_rref``): one-entry seeds,
    and unit columns whose image under an m has one term, are unit columns
    of T_d and never reach ``kernel.rref``; the other vectors reach it
    minus the unit columns.  The canonical rows are joined
    once per degree for the answer (``linalg.join_units``).  For a diagonal
    action on a quantum affine space almost every row is a unit.

    When R is rational, each finished degree's other rows are also turned
    into integer rows once, each scaled by the lcm of its denominators, and
    kept only while the closure runs; the multiples m * v of rational rows
    by integer images are then formed in int arithmetic and reach
    ``kernel.rref`` as integer rows.  Rows with a non-rational entry, and
    images that are not rational, take raw arithmetic.  The span of each
    degree, and so its echelon form, is the same either way.

    ``blocks`` is the rank of the free module R^blocks the span lives in:
    a degree d vector has column b * h_d + t for coordinate t of block b,
    and m acts on every block alike.  Ideals of R take the default 1; the
    radical oracle closes a left submodule of R^(|G|-1).  The multiples of
    each degree are listed before its seeds: the echelon form is the same
    either way, but most seeds then reduce against rows already placed.
    """
    field = R.field
    units: list = []
    rows: list = []
    ints: list = []
    out = []
    for d in range(D + 1):
        new: set = set()
        vecs = []
        for side, on in ((True, left), (False, right)):
            if on:
                side_units, side_vecs = letter_multiples(
                    R, units, rows, ints, d, side, multipliers, blocks
                )
                new |= side_units
                vecs += side_vecs
        for seed in seeds(d):
            if len(seed) == 1:
                new.update(seed)
            else:
                vecs.append(seed)
        new, echelon = linalg.unit_rref(field, new, vecs)
        units.append(new)
        rows.append(echelon)
        ints.append(linalg.scaled_integer_rows(echelon) if R.rational else None)
        out.append(linalg.join_units(field, new, echelon))
    return out


def one_sided_generators(table: GradedIdealTable, left: bool, multipliers=None):
    """Per degree, echelon rows N_d completing sum_m m T_{d - deg m} to T_d, or None.

    The m run over ``multipliers``, homogeneous elements of positive degree
    given as ``(degree, coordinates)``, or over the letters of R when it is
    None.  The images of T_{d - deg m} under the multipliers on the chosen
    side are echelonised; T is closed under them (a left or right ideal,
    for the letters) up to D exactly when the images lie in T_d for every
    d <= D, and None is returned otherwise.  The rows of T_d whose pivot is
    not a pivot of the images form a complement: distinct leading columns
    outside the images' pivots make them independent modulo the images, and
    there are dim T_d minus dim(images) of them.  Then T is the closure of
    the N_d under the multipliers on that side.

    Both spans are read in unit form (``linalg.unit_rref``): a unit vector
    e_c among the images lies in T_d exactly when c is a unit of T_d, a
    subset test, and only the other images, minus the units of T_d, go
    through ``kernel.rref`` for the containment.

    The answer is kept on the table (``_sided``) under the side and the
    multipliers' coordinates, so a table used as a factor of many products,
    such as the radical in its powers, is checked once per side.
    """
    key = (left, None if multipliers is None else tuple(_multiplier_key(m) for m in multipliers))
    memo = table._sided
    if key not in memo:
        memo[key] = _one_sided_generators(table, left, multipliers)
    return memo[key]


def _multiplier_key(multiplier):
    dm, coords = multiplier
    return dm, tuple(sorted(coords.items()))


def _one_sided_generators(table: GradedIdealTable, left: bool, multipliers):
    """The body of ``one_sided_generators``, run once per table and key."""
    R = table.algebra
    field = R.field
    units, rows, ints = unit_forms(R, table.rows)
    out = []
    for d in range(table.D + 1):
        image_units, images = linalg.unit_rref(
            field, *letter_multiples(R, units, rows, ints, d, left, multipliers)
        )
        if not (
            image_units <= units[d]
            and linalg.unit_form_contains(field, units[d], rows[d], [r for _, r in images])
        ):
            return None
        pivots = image_units.union(p for p, _ in images)
        out.append([(p, row) for p, row in table.rows[d] if p not in pivots])
    return out


def vec_product(R: GradedAlgebra, i: int, j: int, u, v):
    """Coordinates of the product of coordinate vectors in degrees i and j.

    The words of the factor of lower degree are applied to the other factor
    one letter at a time, through the cached ``letter_images``.  For i <= j,
    u v = sum_w u_w (w v), and w v = w' (y v) for w = w' y: the left images,
    last letter first.  Otherwise u v = sum_w v_w (u w), and u w = (u y) w''
    for w = y w'': the right images, first letter first.  Words that share
    their outer letters share those steps (``_apply_words``).

    When R and both vectors are rational, the vectors and the images are
    integer rows, the products are int products (``kernel.int_axpy``) and
    one denominator is carried; otherwise the arithmetic is raw.  The result
    is raw either way.
    """
    left = i <= j
    short, other, d = (u, v, j) if left else (v, u, i)
    words = R.basis.words[i if left else j]
    ints = (linalg.integer_form([short]), linalg.integer_form([other])) if R.rational else (None,)
    integer = None not in ints
    if integer:
        (sden, (short,)), (oden, (other,)) = ints
    terms = {words[c]: a for c, a in short.items()}
    den, vec = _apply_words(R, terms, other, d, left, integer)
    return linalg.raw_vectors((sden * oden * den, [vec]), R.field)[0] if integer else vec


def _apply_words(R: GradedAlgebra, terms, vec, d: int, left: bool, integer: bool):
    """``(den, sum_w c_w w vec)`` when ``left``, else ``(den, sum_w c_w vec w)``.

    ``terms`` maps words of one degree to coefficients and ``vec`` lies in
    degree d.  The words are grouped by their outer letter y (last when
    ``left``, first otherwise), y is applied to vec once per group through
    ``letter_images``, and the rest of each group's words recurse on that
    image.  On the integer path the coefficients and vec are ints and the
    sum is the int vector over the int den; on the raw path den is None.
    """
    field = R.field
    if () in terms:  # degree 0: the empty word alone
        if integer:
            c = terms[()]
            return 1, {k: c * a for k, a in vec.items()}
        return None, kernel.dict_axpy({}, terms[()], vec, field.red)
    groups: dict = {}
    for w, c in terms.items():
        y, rest = (w[-1], w[:-1]) if left else (w[0], w[1:])
        groups.setdefault(y, {})[rest] = c
    parts = []
    for y, rest in groups.items():
        form = letter_images(R, y, d, left)
        if integer:
            yv: dict = {}
            for t, a in vec.items():
                kernel.int_axpy(yv, a, form[1][t])
        else:
            yv = linalg.map_vector(form, vec, field)
        pden, pvec = _apply_words(R, rest, yv, d + R.alphabet.degrees[y], left, integer)
        parts.append((form[0] * pden if integer else None, pvec))
    if len(parts) == 1:
        return parts[0]
    if not integer:
        out: dict = {}
        for _, pvec in parts:
            kernel.dict_axpy(out, field.one.raw, pvec, field.red)
        return None, out
    den = lcm(1, *(pden for pden, _ in parts))
    out = {}
    for pden, pvec in parts:
        kernel.int_axpy(out, den // pden, pvec)
    return den, out


def oracle_radical(R: GradedAlgebra, G: FiniteGroup, D: int | None = None) -> GradedIdealTable:
    """Exact degree-wise radical of the action, computed from first principles.

    The radical is R cap W with W = (R#G) e (R#G), the two-sided ideal
    generated by e; |G| >= 2, since ``group_generate`` rejects the trivial
    group.  Fix g0, the last element of G, and let

        pi(sum_g r_g # g) = (r_g - r_g0)  for g != g0,

    a vector of R^(|G|-1) whose blocks list the non-identity g != g0 first
    and the identity last.  pi is left R-linear, and its kernel is R e:
    all r_g equal to one r means sum_g r # g = |G| r e.  R e lies in W,
    since r e = r e 1, so a lies in W exactly when pi(a) lies in pi(W).
    pi(r # 1) is r in the identity block and 0 elsewhere, hence

        r in the radical  iff  (0, ..., 0, r) in pi(W),

    and the degree d radical is the part of pi(W)_d supported on the
    trailing block: the trailing rows of its canonical echelon form.

    pi(W) is a left closure.  W = R e R, and R_i = sum_x x R_{i - deg x}
    for i >= 1 (R is connected graded and generated by its letters x), so
    W_d = sum_x x W_{d - deg x} + e R_d and

        pi(W)_d = sum_x x pi(W)_{d - deg x} + pi(|G| e R_d),

    with pi(|G| e w) = (g.w - g0.w)_{g != g0} for the degree d basis words
    w.  Left multiplication by x acts on every block alike.  Since the
    echelon form is canonical, the table equals the one spanned by every
    monomial pair u e v.
    """
    if G.algebra is not R:
        raise ValueError("group acts on a different algebra")
    if D is None:
        D = R.D
    if D > R.D:
        raise TruncationExceeded("oracle degree beyond the algebra truncation")
    field = R.field
    k = G.order

    def seeds(d):
        # pi(|G| e w) = (g.w - g0.w)_{g != g0} for w in the degree d basis,
        # blocks in the order G.elements[1:-1], then the identity; integer
        # rows (times the lcm of the denominators) when every g is rational
        h = R.dim(d)
        forms = [g.matrix_on_degree(d) for g in G.elements[1:]]
        signs = [1] * (k - 2) + [-1]
        unit, scales, cols, axpy = linalg.common_arithmetic(forms, field, signs)
        out = []
        for c in range(h):
            row = {(k - 2) * h + c: unit}  # 1.w = w
            for b in range(k - 1):
                base = b * h
                if b < k - 2:
                    axpy(row, scales[b], {base + t: v for t, v in cols[b][c].items()})
                axpy(row, scales[-1], {base + t: v for t, v in cols[-1][c].items()})
            out.append(row)
        return out

    echelons = letter_closure(R, seeds, D, left=True, right=False, blocks=k - 1)
    rows = [linalg.trailing_rows(e, (k - 2) * R.dim(d)) for d, e in enumerate(echelons)]
    return GradedIdealTable(R, D, rows, "oracle")


def intersect_with_invariants(table: GradedIdealTable, invariant_rows) -> GradedIdealTable:
    """Degree-wise intersection of a table with per-degree invariant bases,
    with the table's tag."""
    invariants = GradedIdealTable(table.algebra, table.D, invariant_rows, table.tag)
    return table.intersect(invariants)
