"""Spectral solver suite for the mean-field orientation model of rod
suspensions on S^(D-1): zonal polynomial basis, kernel coefficient
tables, self-consistency solver, bifurcation analysis and relaxation
dynamics.

The public names below are imported from their modules on first use
(PEP 562), so `import onsager.cli` loads no numpy and a command loads
only the modules it runs."""

# The public names of each module the package re-exports.
_EXPORTS = {
    "bifurcation": ("Branch", "DegreeReport", "ThresholdReport",
                    "classify_stability", "critical_values", "degree_audit",
                    "index_of", "trace_branch", "uniqueness_thresholds"),
    "dynamics": ("ThetaGrid", "Trajectory", "evolve", "grid_energy",
                 "grid_mass", "grid_moments", "grid_norm", "make_grid",
                 "step"),
    "errors": ("AccuracyError", "BranchNotFoundError", "DivergenceError",
               "InconclusiveAuditError", "OnsagerError",
               "SingularLinearizationError", "ThresholdUndefinedError",
               "ValidationError"),
    "kernel": ("KernelSpec", "build_kernel_spec", "coeff_by_quadrature",
               "coeff_by_recurrence", "coeff_ratio", "onsager_mean",
               "tail_bound"),
    "polybasis": ("harmonic_count", "legendre_table", "surface_area"),
    "solver": ("AxisymState", "SolutionReport", "censuses", "jacobian",
               "multistart", "residual", "solve", "state_norm",
               "zonal_moments"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

# What `from onsager import *` binds: the modules and their public names.
__all__ = sorted([*_EXPORTS, *_MODULE_OF])

__version__ = "0.1.0"


def __getattr__(name):
    """A module of the package, or a public name from its module."""
    from importlib import import_module
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    dunders = {name for name in globals() if name.startswith("__")}
    return sorted((dunders - {"__getattr__", "__dir__"}) | set(__all__))
