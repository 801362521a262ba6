"""Spectral solver suite for the mean-field orientation model of rod
suspensions on S^(D-1): zonal polynomial basis, kernel coefficient
tables, self-consistency solver, bifurcation analysis and relaxation
dynamics."""

from .bifurcation import (
    Branch,
    DegreeReport,
    ThresholdReport,
    classify_stability,
    critical_values,
    degree_audit,
    index_of,
    trace_branch,
    uniqueness_thresholds,
)
from .dynamics import (
    ThetaGrid,
    Trajectory,
    evolve,
    grid_energy,
    grid_mass,
    grid_moments,
    grid_norm,
    make_grid,
    step,
)
from .errors import (
    AccuracyError,
    BranchNotFoundError,
    DivergenceError,
    InconclusiveAuditError,
    OnsagerError,
    SingularLinearizationError,
    ThresholdUndefinedError,
    ValidationError,
)
from .kernel import (
    KernelSpec,
    build_kernel_spec,
    coeff_by_quadrature,
    coeff_by_recurrence,
    coeff_ratio,
    khat_eval,
    mean_value,
    onsager_mean,
    tail_bound,
)
from .polybasis import (
    harmonic_count,
    legendre_eval,
    legendre_table,
    surface_area,
    weighted_integral,
)
from .solver import (
    AxisymState,
    DensityProfile,
    SolutionReport,
    apply_G,
    censuses,
    free_energy,
    jacobian,
    multistart,
    recover_density,
    residual,
    solve,
    state_norm,
    zonal_moments,
)

__version__ = "0.1.0"
