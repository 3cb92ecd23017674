"""Discontinuous Galerkin time discretization for ODE optimal control."""

from .basis import (
    QuadratureRule,
    default_rule,
    deriv_inner_matrix,
    gauss_rule,
    legendre_table,
    mass_diagonal,
)
from .convergence import ConvergenceReport, ConvergenceRow, run_convergence
from .ivp import IVPRight, SolverFailure, reverse_dg, solve_backward, solve_forward
from .mesh import (
    DGFunction,
    Partition,
    l2_error,
    load_dg,
    make_uniform_partition,
    modal_from_values,
    project_l2,
    save_dg,
    total_variation,
)
from .ocp import (
    OCProblem,
    adjoint_residual,
    cost,
    hessian_form,
    hessian_vector,
    projected_gradient,
    solve_adjoint,
    solve_state,
    tangent_solve,
)
from .optimize import OptimizeOptions, OptimizeReport, StallError, minimize, stationarity
from .problems import BuiltinProblem, get_builtin, linear_lq, nonlinear_quadratic

__all__ = [
    "QuadratureRule", "default_rule", "deriv_inner_matrix", "gauss_rule",
    "legendre_table", "mass_diagonal",
    "ConvergenceReport", "ConvergenceRow", "run_convergence",
    "IVPRight", "SolverFailure", "reverse_dg",
    "solve_backward", "solve_forward",
    "DGFunction", "Partition", "l2_error", "load_dg",
    "make_uniform_partition", "modal_from_values", "project_l2", "save_dg",
    "total_variation",
    "OCProblem", "adjoint_residual", "cost",
    "hessian_form", "hessian_vector", "projected_gradient", "solve_adjoint",
    "solve_state", "tangent_solve",
    "OptimizeOptions", "OptimizeReport", "StallError", "minimize", "stationarity",
    "BuiltinProblem", "get_builtin", "linear_lq", "nonlinear_quadratic",
]
