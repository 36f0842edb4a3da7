"""Exact computation with G-quadratic forms, quaternion algebras and
hermitian elements over the rational function field F_p(t), p odd.

The library builds and classifies G-invariant symmetric bilinear forms on
modules over group algebras k[G] in characteristic p, decides the
sufficient criterion for the local-global principle through the component
analysis of the endomorphism algebra modulo its radical, and assembles the
two-quaternion counterexample pair with a machine-checked report.
"""

from .funcfield import (
    Place,
    Poly,
    RatFunc,
    SquareClass,
    hilbert_symbol,
    irreducibles,
    is_local_square,
    quadratic_character,
    smallest_nonsquare,
    square_class,
    support,
    valuation,
)
from .quadform import (
    QuadForm,
    equivalent_global,
    equivalent_local,
    hyperbolic_form,
    invariants_report,
    is_hyperbolic,
    is_isotropic,
)
from .csa import (
    Quaternion,
    QuatElem,
    SandwichIso,
    quat_conj,
    quat_mul,
    quaternion_from_algebra,
    rho_involution,
    solve_alpha,
    tensor_m2q,
    twisted_involution,
)
from .grpalg import (
    EndAlgebra,
    GModule,
    GroupSpec,
    check_module,
    decompose_components,
    endomorphism_algebra,
    hp_verdict,
    is_projective,
    jacobson_radical,
    quotient_with_involution,
)
from .hermitian import (
    QuaternionPairShape,
    clifford_quaternion_pair,
    counterexample_element,
    induced_involution,
    records_equal,
)
from .construct import (
    build_N,
    build_q,
    bundle,
    counterexample_pipeline,
    report_to_json,
    tensor_pair,
    verify_EN,
)
from .errors import (
    CertificateError,
    ExtractionError,
    InputError,
    UnsupportedCenterError,
)

__version__ = "0.1.0"
