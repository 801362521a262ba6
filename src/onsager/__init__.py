"""Spectral solver suite for the mean-field orientation model of rod
suspensions on S^(D-1): zonal polynomial basis, kernel coefficient
tables, self-consistency solver, bifurcation analysis and relaxation
dynamics.

Each public name lives in its module and is imported from there, as in
`from onsager.solver import multistart`; `import onsager` loads no
module, so `import onsager.cli` loads no numpy."""

__version__ = "0.1.0"
