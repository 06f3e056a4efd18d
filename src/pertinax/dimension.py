"""Hilbert functions, GK-dimension estimation and pertinency.

GK-dimension of a graded quotient is estimated from the vanishing order of
iterated finite differences of its Hilbert function over a trailing window.
Estimates are labelled as such; the only certificates are a constructor
supplied dimension and the finite-dimensionality certificate, which is
sound for connected graded quotients: once the Hilbert function vanishes
on a window as wide as the largest generator degree it vanishes forever.
"""

from __future__ import annotations

from .errors import InsufficientDegrees, NeedsGKdim, TruncationExceeded
from .galgebra import GradedAlgebra
from .skewgroup import GradedIdealTable, oracle_radical

DEFAULT_WINDOW = 4


class HilbertData:
    """Dimensions h(0..D) of a graded algebra or of a quotient by a table."""

    __slots__ = ("dims", "source")

    def __init__(self, dims, source=""):
        self.dims = tuple(dims)
        self.source = source

    def __iter__(self):
        return iter(self.dims)

    def __len__(self):
        return len(self.dims)

    def __getitem__(self, d):
        return self.dims[d]

    def __eq__(self, other):
        if isinstance(other, HilbertData):
            return self.dims == other.dims
        return tuple(other) == self.dims

    def __repr__(self):
        return "HilbertData(%s)" % (list(self.dims),)


class GKEstimate:
    """A GK-dimension value with its evidence.

    ``exact`` is set only for constructor-known dimensions and for the
    finite-dimensionality certificate; ``window`` records which finite
    difference order vanished over which trailing degree range.
    """

    __slots__ = ("value", "exact", "window")

    def __init__(self, value, exact, window=None):
        self.value = value
        self.exact = exact
        self.window = window

    def as_json(self):
        return {"value": self.value, "exact": self.exact, "window": self.window}

    def __repr__(self):
        kind = "exact" if self.exact else "estimate"
        return "GKEstimate(%s, %s)" % (self.value, kind)


def hilbert(R: GradedAlgebra, table: GradedIdealTable | None = None, D: int | None = None) -> HilbertData:
    """h(d) = dim R_d - dim J_d for an optional graded ideal table J."""
    if D is None:
        D = R.D if table is None else table.D
    if D > R.D or (table is not None and D > table.D):
        raise TruncationExceeded("hilbert data beyond the truncation bound")
    if table is None:
        return HilbertData([R.dim(d) for d in range(D + 1)], source=R.name or "algebra")
    dims = [R.dim(d) - table.dim(d) for d in range(D + 1)]
    return HilbertData(dims, source="quotient by %s table" % table.tag)


def gk_estimate(
    h: HilbertData,
    known: int | None = None,
    window: int = DEFAULT_WINDOW,
    gen_degree_bound: int = 1,
) -> GKEstimate:
    """Growth estimate from iterated finite differences of the Hilbert data.

    The smallest k whose k-th difference vanishes on the trailing window is
    the estimate; eventually-zero data with a trailing zero run at least as
    wide as the generator degree bound certifies finite dimension, hence an
    exact value 0.
    """
    if known is not None:
        return GKEstimate(known, True, None)
    dims = list(h.dims)
    if window < 1:
        raise ValueError("window must be positive")
    if window > len(dims):
        raise InsufficientDegrees(
            "window %d larger than the %d available degrees" % (window, len(dims))
        )
    top = len(dims) - 1
    # finite-dimensionality certificate from the trailing zero run
    run = 0
    for v in reversed(dims):
        if v != 0:
            break
        run += 1
    if run >= max(gen_degree_bound, 1) and run > 0:
        return GKEstimate(
            0,
            True,
            {"difference_order": 0, "degrees": [len(dims) - run, top], "zero_run": run},
        )
    seq = dims
    k = 0
    while len(seq) >= window:
        if all(v == 0 for v in seq[-window:]):
            return GKEstimate(
                k,
                False,
                {"difference_order": k, "degrees": [len(seq) - window + k, top]},
            )
        seq = [seq[i + 1] - seq[i] for i in range(len(seq) - 1)]
        k += 1
    raise InsufficientDegrees(
        "no finite difference up to order %d vanishes on a window of %d" % (k - 1, window)
    )


class PertinencyResult:
    """Pertinency value with its provenance kind and the supporting data."""

    __slots__ = ("value", "kind", "gk_quotient", "hilbert_R", "hilbert_quotient")

    def __init__(self, value, kind, gk_quotient, hilbert_R, hilbert_quotient):
        self.value = value
        self.kind = kind
        self.gk_quotient = gk_quotient
        self.hilbert_R = hilbert_R
        self.hilbert_quotient = hilbert_quotient

    def as_json(self):
        return {
            "hilbert_R": list(self.hilbert_R.dims),
            "hilbert_quotient": list(self.hilbert_quotient.dims),
            "gk_quotient": self.gk_quotient.as_json(),
            "pertinency": {"value": self.value, "kind": self.kind},
        }

    def __repr__(self):
        return "PertinencyResult(%s, %s)" % (self.value, self.kind)


def pertinency(
    R: GradedAlgebra,
    G=None,
    D: int | None = None,
    window: int = DEFAULT_WINDOW,
    table: GradedIdealTable | None = None,
) -> PertinencyResult:
    """GKdim(R) minus the growth of the quotient by the radical.

    With the oracle table the result is exact when the quotient growth is
    certified, otherwise an estimate.  With a constructive table (a
    sub-ideal of the radical) the reported value is a lower bound, except
    that a finite dimensional quotient already forces the full value.
    """
    if R.known_gkdim is None:
        raise NeedsGKdim(
            "pertinency needs an exact GK-dimension for the algebra; "
            "constructors attach one, user presentations must assert it"
        )
    if table is None:
        if G is None:
            raise ValueError("pertinency needs a group or a precomputed table")
        table = oracle_radical(R, G, D)
    if D is None:
        D = table.D
    h_R = hilbert(R, None, D)
    h_q = hilbert(R, table, D)
    gk_q = gk_estimate(h_q, window=window, gen_degree_bound=R.max_generator_degree())
    value = R.known_gkdim - gk_q.value
    if gk_q.exact:
        kind = "exact"
    elif table.tag == "constructive":
        kind = "lower_bound"
    else:
        kind = "estimate"
    return PertinencyResult(value, kind, gk_q, h_R, h_q)
