"""Deformation flows of recurrence coefficients for generalized Jacobi weights.

Everything is organized around node values at the moving endpoints:
weights and trajectories (``weights``), singularity-absorbing quadrature
and Cauchy transforms (``quadrature``), recurrence coefficients
(``orthopoly``), ladder polynomials (``ladder``),
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
    NotConverged,
    StepCollapse,
    UnderResolved,
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
    ladder_init,
    residue_sums,
)
from .momentflow import (
    evolve_moments,
    moment_rhs,
)
from .orthopoly import (
    RecurrenceTable,
    eval_polynomial,
    stieltjes_procedure,
)
from .quadrature import (
    discretized_measure,
    gauss_jacobi_rule,
)
from .weights import (
    EndpointTrajectory,
    GeneralizedJacobiWeight,
    NodeFrames,
    barycentric_interpolate,
    check_span,
    make_weight,
    node_data,
    stage_node_data,
)

__version__ = "0.1.0"
