"""Definition-level skew group algebra R#G, for identities checked in tests.

``SkewElement`` holds sum r_g # g as a dict ``group index -> AlgElement``,
and ``skew_mul`` is the bilinear extension of (r # g)(s # h) = r (g.s) # gh
term by term, with ``AlgElement`` arithmetic only.  The library never forms
R#G elements: ``pertinax.skewgroup`` works with coordinate rows of
(R#G)_d instead, so this is an independent reference for it.
"""

from fractions import Fraction

from pertinax.action import FiniteGroup
from pertinax.errors import TruncationExceeded
from pertinax.galgebra import AlgElement, GradedAlgebra


class SkewElement:
    """An element sum r_g (x) g of the skew group algebra R * G."""

    __slots__ = ("algebra", "group", "components")

    def __init__(self, algebra: GradedAlgebra, group: FiniteGroup, components=None):
        self.algebra = algebra
        self.group = group
        comps = {}
        if components:
            for gi, r in components.items():
                if r:
                    comps[gi] = r
        self.components = comps

    @classmethod
    def from_r(cls, algebra, group, elem: AlgElement):
        return cls(algebra, group, {0: elem})

    @classmethod
    def from_group_element(cls, algebra, group, gi: int):
        return cls(algebra, group, {gi: algebra.one()})

    def is_zero(self):
        return not self.components

    def __add__(self, other: "SkewElement"):
        comps = dict(self.components)
        for gi, r in other.components.items():
            cur = comps.get(gi)
            s = r if cur is None else cur + r
            if s:
                comps[gi] = s
            elif cur is not None:
                del comps[gi]
        return SkewElement(self.algebra, self.group, comps)

    def __neg__(self):
        return SkewElement(
            self.algebra, self.group, {gi: -r for gi, r in self.components.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return SkewElement(
                self.algebra, self.group, {gi: r * other for gi, r in self.components.items()}
            )
        if not isinstance(other, SkewElement):
            return NotImplemented
        return skew_mul(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, SkewElement):
            return NotImplemented
        return (
            self.algebra is other.algebra
            and self.group is other.group
            and self.components == other.components
        )

    def degree(self):
        """Common degree of a homogeneous element, None if zero."""
        degs = {r.degree() for r in self.components.values()}
        if not degs:
            return None
        if len(degs) != 1:
            raise ValueError("inhomogeneous skew element")
        return degs.pop()

    def __str__(self):
        if not self.components:
            return "0"
        parts = []
        for gi in sorted(self.components):
            parts.append("(%s) # g%d" % (self.components[gi], gi))
        return " + ".join(parts)

    __repr__ = __str__


def skew_mul(u: SkewElement, v: SkewElement) -> SkewElement:
    """Bilinear extension of (r # g)(s # h) = r (g.s) # gh."""
    if u.algebra is not v.algebra or u.group is not v.group:
        raise ValueError("skew elements over different data")
    R, G = u.algebra, u.group
    for r in list(u.components.values()) + list(v.components.values()):
        d = r.degree()
        if d is not None and d > R.D:
            raise TruncationExceeded("skew product beyond truncation")
    du = max((r.degree() or 0) for r in u.components.values()) if u.components else 0
    dv = max((r.degree() or 0) for r in v.components.values()) if v.components else 0
    if du + dv > R.D:
        raise TruncationExceeded("skew product of degree %d beyond truncation" % (du + dv))
    comps: dict = {}
    for gi, r in u.components.items():
        g = G.elements[gi]
        for hi, s in v.components.items():
            target = G.table[gi][hi]
            term = r * g.apply(s)
            cur = comps.get(target)
            tot = term if cur is None else cur + term
            if tot:
                comps[target] = tot
            elif cur is not None:
                del comps[target]
    return SkewElement(R, G, comps)


def integral_idempotent(R: GradedAlgebra, G: FiniteGroup) -> SkewElement:
    """e = (1/|G|) sum of the group elements inside R * G."""
    w = Fraction(1, G.order)
    one = R.one()
    return SkewElement(R, G, {gi: one * w for gi in range(G.order)})
