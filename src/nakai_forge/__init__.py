"""Exact witnesses that second-order derivations exceed compositions of
first-order ones on quasi-homogeneous isolated hypersurface singularities."""

from .derivations import (
    Adjustment,
    Derivation1,
    DerivationTuple,
    DiffOp2,
    build_candidate_tuple,
    euler_derivation,
    hamiltonian,
    lift_to_diff2,
    replay_ledger,
    symmetric_tuple,
    symmetrize,
    theta2_extract,
)
from .exprio import (
    CertificateError,
    ParseError,
    format_poly,
    parse_poly,
    read_certificate,
    write_certificate,
)
from .groebner import (
    GroebnerBasis,
    Ideal,
    InternalInconsistencyError,
    ResourceLimitExceeded,
    buchberger,
    is_isolated_singularity,
    jacobian_ideal,
    quotient_dimension,
)
from .minors import (
    PolyMatrix,
    algebraic_cofactor,
    determinant,
    hessian,
    signed_minor,
    verify_cofactor_identity,
)
from .pipeline import (
    INPUT_REJECTED,
    WITNESS_FOUND,
    WitnessCertificate,
    build_witness,
    certificate_failures,
    generic_slice_search,
    saito_check,
    verify_certificate,
)
from .poly import (
    GREVLEX,
    LEX,
    MonomialOrder,
    Polynomial,
    quasi_homogeneous_weights,
)

__version__ = "0.1.0"
