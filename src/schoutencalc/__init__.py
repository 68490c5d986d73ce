"""Exact bracket calculus on the exterior algebra of a Lie-Rinehart pair.

The package builds the exterior algebra of a pair (a commutative coefficient
algebra acted on by a Lie algebra), computes both Schouten-Nijenhuis
brackets and the whole family of higher brackets, and mechanically verifies
the identities they satisfy, in exact rational arithmetic throughout.
"""

from .errors import (
    DegreeUndefinedError,
    MorphismValidationError,
    PairDocumentError,
    ParseError,
    UnsupportedPairError,
)
from .exterior import (
    INHOMOGENEOUS,
    Multivector,
    associated_exterior_morphism,
    embed,
    tensor_degree,
    wedge,
)
from .graded import Permutation, koszul_sign, parity_sign, shuffles
from .linfty import (
    BracketFamily,
    ce_differential,
    check_linfty_morphism,
    composition_identity_lhs,
    composition_identity_terms,
    injection_family,
    injection_morphism_residual,
    n_bracket,
    natural_injection,
    weak_jacobi_residual,
)
from .pairs import (
    GradedPairElement,
    LieRinehartPair,
    PairMorphism,
    Vector,
    anchor,
    bracket_vectors,
    check_pair_morphism,
    leibniz_residual,
    load_morphism,
    load_pair,
)
from .report import BracketReport, run_identity
from .scalars import Scalar, parse_fraction
from .schouten import (
    antisym_jacobi_residual,
    morphism_sn_residual,
    poisson_residual,
    sn_antisym,
    sn_sym,
)

__version__ = "0.1.0"
