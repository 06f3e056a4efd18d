"""pertinax: exact radicals of group actions on graded algebras.

Computes the radical of a finite group action on a finitely presented
connected graded algebra by exact linear algebra over a cyclotomic field,
verifies constructive pertinent-sequence recipes against it, and derives
Hilbert functions, pertinency, invariant-ring generators and truncated
cofinality certificates.
"""

__version__ = "0.1.0"

from .scalars import CycField, Scalar, cyclotomic_field, cyclotomic_polynomial, euler_phi
from .freealgebra import Alphabet, FreePoly, word_cmp_deglex
from .gbasis import QuotientBasis, TruncatedGB, gb_complete, normal_form
from .galgebra import (
    AlgElement,
    GradedAlgebra,
    make_commutative,
    make_downup,
    make_free,
    make_presentation,
    make_quantum_affine,
    make_skew_symmetric,
    quotient_by_ideal,
)
from .action import FiniteGroup, LinearAuto, act, group_generate, identity_auto, reynolds
from .skewgroup import (
    GradedIdealTable,
    intersect_with_invariants,
    oracle_radical,
)
from .radical import (
    PertinentPair,
    gen_determinant,
    gen_eigen_product,
    gen_qcommuting_product,
    gen_translate_product,
    is_central,
    is_semisimple_upto,
    pair_concat,
    pair_scale,
    pair_simplify,
    pair_transfer,
    pair_translate,
    radical_constructive,
    verify_pertinent,
)
from .dimension import GKEstimate, HilbertData, gk_estimate, hilbert, pertinency
from .invariantring import (
    CofinalityCertificate,
    InvariantRing,
    cofinality_check,
    invariant_radical_table,
    invariants_basis,
    normality_check,
    trace_average_dims,
)

__all__ = [name for name in dir() if not name.startswith("_")]
