"""Deformation flows of recurrence coefficients for generalized Jacobi weights.

Everything is organized around node values at the moving endpoints:
weights and trajectories (``weights``), singularity-absorbing quadrature
and Cauchy transforms (``quadrature``), recurrence coefficients and
Hankel determinants (``orthopoly``), ladder polynomials (``ladder``),
the coefficient deformation ODE system (``evolution``), the linear
moment flow (``momentflow``), and a CSV-emitting CLI (``cli``).
"""

from .errors import (
    BadConstant,
    BadExponent,
    ConfigError,
    DivergentTransform,
    EndpointCollision,
    GJFlowError,
    IndexOutOfRange,
    InitFailure,
    LostOrthogonality,
    NonDistinctEndpoints,
    NonFinite,
    StepCollapse,
    UnderResolved,
    ZeroCoefficient,
)
from .evolution import (
    EvolutionReport,
    EvolutionState,
    VerificationTable,
    evolution_rhs,
    evolve,
    init_state,
    init_states,
    pn_time_derivative_check,
    verify_against_direct,
)
from .ladder import (
    LadderReport,
    LadderValues,
    ladder_checks,
    ladder_from_table,
    ladder_init,
    ladder_step,
    residue_sums,
)
from .momentflow import (
    MomentState,
    evolve_moments,
    moment_rhs,
    nu_by_quadrature,
)
from .orthopoly import (
    RecurrenceTable,
    eval_polynomial,
    hankel_det,
    moments,
    stieltjes_procedure,
)
from .quadrature import (
    QuadratureRule,
    discretized_measure,
    gauss_jacobi_rule,
    integrate_against_weight,
    stieltjes_at_node,
)
from .weights import (
    EndpointTrajectory,
    GeneralizedJacobiWeight,
    NodeData,
    barycentric_interpolate,
    make_weight,
    node_data,
    stage_node_data,
)

__version__ = "0.1.0"
