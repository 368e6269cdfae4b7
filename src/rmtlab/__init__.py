"""Finite-n correlation kernels of unitary-invariant ensembles near a
nucleating spectral band, with finite-size GUE reference kernels."""

from .critical import (
    ScalingParams,
    curvature_c,
    detect_singular,
    find_xstar_nt,
    make_scaling,
    phix_growth_check,
    s_to_t,
    scaling_J,
    unit_equilibrium,
)
from .equilibrium import (
    EquilibriumData,
    density,
    lagrange_ell,
    log_potential,
    phi,
    q_eval,
    q_eval_resolvent,
    solve,
    variational_residual,
)
from .errors import (
    InvalidParameterError,
    NoConvergenceError,
    NoSingularPointError,
    NotOneCutRegularError,
    NumericalBreakdownError,
    OffAxisRequiredError,
    PrecisionLimitError,
    RmtlabError,
    WrongOrderError,
)
from .experiments import (
    ComparisonReport,
    GridSpec,
    LambdaFit,
    compare_to_gue,
    convergence_sweep,
    expected_count,
    lambda_fit,
    rescaled_kernel,
)
from .gue import (
    PsiMatrix,
    gue_kernel,
    gue_kernel_grid,
    gue_kernel_sum,
    hermite,
    hermite_cauchy,
    psi_matrix,
)
from .orthopoly import (
    RecurrenceTable,
    build_recurrence,
    kernel,
    kernel_matrix,
    quadrature_support,
    string_residual,
)
from .potential import Potential, from_config, make_eynard
