"""Monotone iterative solver for nonlinear four-point boundary value problems.

Solves -u'' = psi(x, u, u') with u'(0) = lambda1 u(xi), u'(1) = lambda2 u(eta)
by quasilinearization: each step solves a shifted linear problem through a
closed-form piecewise kernel, producing bracketing lower/upper sequences
with certified monotonicity.
"""
from ._version import __version__
from .errors import (DegenerateKernelError, DivergenceError, ExpressionError,
                     MibvpError, NumericalError, OracleError, ValidationError)
from .expressions import Expression, parse_expression
from .kernel import (PI2_OVER_4, BoundaryConfig, KernelSample, Regime,
                     ShiftedOperator, green_dx_sign_check, green_eval,
                     kernel_functions, normalization, normalization_value)
from .linear_bvp import (GridFunction, LinearSolver, boundary_residuals, build_grid,
                         get_solver, node_index)
from .admissibility import (AdmissibilityReport, Condition, LipschitzData,
                            NagumoData, check_negative_k, check_positive_k,
                            estimate_l1, estimate_lipschitz, nagumo_bound,
                            scan_k, sign_table)
from .monotone import (IterationTrace, NonlinearProblem, iterate_once, run,
                       verify_initial_bracket)
from .oracle import build_fd_system, fd_linear, fd_nonlinear, fd_weights
from .problems import (EXAMPLE1, EXAMPLE2, ProblemConfig, build_problem,
                       example1, example2)

__all__ = [
    "__version__",
    "MibvpError", "ValidationError", "ExpressionError", "NumericalError",
    "DegenerateKernelError", "DivergenceError", "OracleError",
    "Expression", "parse_expression",
    "PI2_OVER_4", "BoundaryConfig", "Regime", "ShiftedOperator", "KernelSample",
    "kernel_functions", "normalization", "normalization_value",
    "green_eval", "green_dx_sign_check",
    "GridFunction", "LinearSolver", "build_grid", "node_index", "get_solver",
    "boundary_residuals",
    "LipschitzData", "NagumoData", "AdmissibilityReport", "Condition",
    "check_positive_k", "check_negative_k", "scan_k", "estimate_l1",
    "estimate_lipschitz", "nagumo_bound", "sign_table",
    "NonlinearProblem", "IterationTrace", "iterate_once", "run",
    "verify_initial_bracket",
    "build_fd_system", "fd_linear", "fd_nonlinear", "fd_weights",
    "ProblemConfig", "build_problem", "example1", "example2",
    "EXAMPLE1", "EXAMPLE2",
]
