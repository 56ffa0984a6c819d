"""Exact-arithmetic ADHM data, monads and dimension experiments for Quot
schemes of points on affine spaces."""

from .adhm import (
    AdhmDatum,
    act,
    commutators,
    equivalence,
    is_adhm,
    is_nilpotent_tuple,
    is_stable,
    krylov_closure,
    random_datum,
    stabilizer_lie_dimension,
)
from .exactalg import GF, QQ, Matrix, Subspace, kernel_basis, rank, solve
from .geometry import (
    EquationSystem,
    dimension_experiment,
    jacobian,
    moduli_dimension_estimate,
    tangent_dimension,
)
from .monad import (
    alpha0,
    alpha_minus1,
    alpha_minus2_p3,
    compose,
    evaluate,
    fiber_report,
    surjectivity_certificate,
)
from .punctual import (
    basepoint,
    homotopy_path,
    support,
    verify_path,
)
from .quiver import QuiverRep, StabilityParameter, enumerate_subreps, is_theta_stable
from .quotmod import (
    PolyVector,
    hilbert_profile,
    kernel_basis_up_to_degree,
    module_from_generators,
    phi_apply,
)

__version__ = "0.1.0"
