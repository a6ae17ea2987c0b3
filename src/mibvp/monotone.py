"""Quasilinearized monotone iteration for the four-point problem.

Each step freezes the source at the current iterate and solves one shifted
linear problem per sequence: -u'' - k u = psi(x, u_n, u_n') - k u_n with
homogeneous multipoint boundary conditions. The lower and upper sequences
advance together; every ordering and monotonicity flag is recorded.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .admissibility import Condition, LipschitzData, NagumoData
from .errors import DivergenceError, NumericalError, ValidationError
from .expressions import Expression, require_variables
from .kernel import BoundaryConfig, ShiftedOperator
from .linear_bvp import (GridFunction, boundary_residuals, build_grid, get_solver,
                         node_index)
from .oracle import fd_weights

# the sign the shift k must have for each bracket ordering: a reverse-ordered
# bracket goes with 0 < k < pi^2/4, a well-ordered one with k < 0
SHIFT_SIGN = {"reverse": 1.0, "well": -1.0}
ORDERINGS = tuple(SHIFT_SIGN)
MONOTONE_SLACK = 1e-9
DIVERGENCE_FACTOR = 10.0
DERIVATIVE_SLACK = 1e-6


@dataclass
class NonlinearProblem:
    """The nonlinear problem plus its initial bracket and certification data.

    psi depends on (x, u, up); lower0/upper0 are closed forms in x only.
    ordering "reverse" expects lower0 >= upper0 and a positive shift,
    "well" expects lower0 <= upper0 and a negative shift. nagumo_phi is the
    growth majorant specification ("auto", an expression in s, or None).
    """

    psi: Expression
    config: BoundaryConfig
    lower0: Expression
    upper0: Expression
    ordering: str
    lip: LipschitzData | None = None
    nagumo: NagumoData | None = None
    nagumo_phi: object = None

    def __post_init__(self):
        if self.ordering not in ORDERINGS:
            raise ValidationError("ordering must be one of %s, got %r"
                                  % (ORDERINGS, self.ordering))
        require_variables(self.psi, {"x", "u", "up"}, "psi")
        require_variables(self.lower0, {"x"}, "lower0")
        require_variables(self.upper0, {"x"}, "upper0")

    def initial_lower(self, nodes):
        return self.lower0.sample(x=nodes), self.lower0.diff("x").sample(x=nodes)

    def initial_upper(self, nodes):
        return self.upper0.sample(x=nodes), self.upper0.diff("x").sample(x=nodes)

    def psi_values(self, xs, u, du):
        with np.errstate(over="ignore", invalid="ignore"):
            return self.psi.sample(x=xs, u=u, up=du)


@dataclass
class IterationTrace:
    """Everything the iteration produced, flags included.

    iterates_lower/upper hold the last level's (u, du) node arrays, as
    one-element lists; run's on_level sees every level. Transition flags
    (monotone_*, step_moves_*, derivative_bound_*) have one entry per step;
    ordered has one entry per level. derivative_bound_* is None when no
    successful Nagumo bound was attached to the problem.
    """

    k: float
    nodes: np.ndarray
    iterates_lower: list = field(default_factory=list)
    iterates_upper: list = field(default_factory=list)
    gaps: list = field(default_factory=list)
    step_moves_lower: list = field(default_factory=list)
    step_moves_upper: list = field(default_factory=list)
    monotone_lower: list = field(default_factory=list)
    monotone_upper: list = field(default_factory=list)
    ordered: list = field(default_factory=list)
    derivative_bound_lower: list | None = None
    derivative_bound_upper: list | None = None
    final_residual: float = np.nan
    residual_lower: float = np.nan
    residual_upper: float = np.nan
    boundary_residual_lower: tuple = (np.nan, np.nan)
    boundary_residual_upper: tuple = (np.nan, np.nan)
    converged: bool = False
    diverged: bool = False
    iterations: int = 0

    def limit_lower(self):
        return tuple(GridFunction(self.nodes.copy(), v.copy()) for v in self.iterates_lower[-1])

    def _record(self, name, pair):
        """Append pair[0] to the name_lower list and pair[1] to name_upper."""
        getattr(self, name + "_lower").append(pair[0])
        getattr(self, name + "_upper").append(pair[1])

    def to_dict(self):
        """The record as JSON-ready data; run stores Python floats and bools only."""
        return {
            "k": self.k,
            "iterations": self.iterations,
            "converged": self.converged,
            "diverged": self.diverged,
            "grid_n": self.nodes.size,
            "gaps": list(self.gaps),
            "step_moves_lower": list(self.step_moves_lower),
            "step_moves_upper": list(self.step_moves_upper),
            "monotone_lower": list(self.monotone_lower),
            "monotone_upper": list(self.monotone_upper),
            "ordered": list(self.ordered),
            "derivative_bound_lower": (None if self.derivative_bound_lower is None
                                       else list(self.derivative_bound_lower)),
            "derivative_bound_upper": (None if self.derivative_bound_upper is None
                                       else list(self.derivative_bound_upper)),
            "final_residual": self.final_residual,
            "residual_lower": self.residual_lower,
            "residual_upper": self.residual_upper,
            "boundary_residual_lower": list(self.boundary_residual_lower),
            "boundary_residual_upper": list(self.boundary_residual_upper),
        }


def iterate_once(problem: NonlinearProblem, solver, u, du):
    """One quasilinearization step from the node arrays u and du.

    Builds g = psi(x, u, u') - k u on the solver's grid, with k the solver's
    shift, and solves the shifted linear problem with zero boundary shift.
    u and du hold one sequence, shape (n,), or a stack of them, shape
    (m, n): psi is sampled once over the stack and each row is solved on
    its own. Returns the next (u, du) pair, shaped like u, as two separate
    contiguous arrays, so keeping one does not keep the other.
    """
    nodes = solver.nodes
    g = problem.psi_values(nodes, u, du) - solver.op.k * u
    if not np.all(np.isfinite(g)):
        bad = np.unravel_index(np.argmin(np.isfinite(g)), g.shape)[-1]
        raise NumericalError("source evaluation produced a non-finite value at x=%r"
                             % nodes[bad])
    u1, du1 = zip(*(solver.solve(row, 0.0) for row in g.reshape(-1, nodes.size)))
    return np.array(u1).reshape(g.shape), np.array(du1).reshape(g.shape)


def _interior_residual(problem, nodes, u, du):
    """sup | -u'' - psi(x,u,u') | on interior nodes via a 5-point second derivative.

    The weights come from fd_weights, so any build_grid grid works, an
    inserted xi or eta node included. Skips the two nodes nearest each
    boundary where the one-sided stencils would dominate the estimate. The
    weights sum to zero, so they are applied to differences from the centre
    value, which keeps the 1/h^2 roundoff of the raw values out of the sup.
    """
    i = np.arange(2, len(nodes) - 2)
    offsets = np.arange(-2, 3)
    rises = u[i[:, None] + offsets] - u[i][:, None]
    d2 = np.sum(fd_weights(nodes, i, offsets, 2) * rises, axis=1)
    res = -d2 - problem.psi_values(nodes[i], u[i], du[i])
    return float(np.max(np.abs(res)))


def require_shift_sign(ordering: str, k: float) -> None:
    """Raise ValidationError unless k has the sign SHIFT_SIGN gives the ordering."""
    if not SHIFT_SIGN[ordering] * k > 0:
        raise ValidationError("a %s-ordered bracket needs k %s 0, got %r"
                              % (ordering, ">" if SHIFT_SIGN[ordering] > 0 else "<", k))


def run(problem: NonlinearProblem, k: float, max_iter: int, tol: float,
        grid_n: int = 501, on_level=None) -> IterationTrace:
    """Advance both sequences until the step movements drop below tol.

    The trace keeps the last level. on_level, when given, is called with
    each level's (2, n) stack of lower and upper node values, level 0
    included.

    converged requires, on top of the movement criterion, that the interior
    nonlinear residual of both limits stays within 10*tol and the boundary
    residuals within tol. Monotonicity, ordering, and (when a Nagumo bound
    is present) derivative-bound flags are recorded at every step with a
    1e-9 comparison slack; failures are recorded, not fatal. An iterate
    growing past 10x the initial bracket sup-norm raises DivergenceError
    with the partial trace attached. A k of the wrong sign for the ordering
    raises ValidationError before any step.
    """
    if max_iter < 1:
        raise ValidationError("max_iter must be at least 1, got %r" % max_iter)
    if not 0 < tol < np.inf:
        raise ValidationError("tol must be positive and finite, got %r" % tol)
    require_shift_sign(problem.ordering, k)
    nodes = build_grid(grid_n, problem.config.xi, problem.config.eta)
    solver = get_solver(problem.config, ShiftedOperator(k), nodes)
    (c, dc), (d, dd) = problem.initial_lower(nodes), problem.initial_upper(nodes)
    # row 0 is the lower sequence, row 1 the upper one
    u, du = np.array([c, d]), np.array([dc, dd])
    bracket_sup = np.max(np.abs(u))
    bound = DIVERGENCE_FACTOR * max(bracket_sup, 1e-12)
    # +1 for a sequence that must rise, -1 for one that must fall; ordered
    # means the lower row sits on the side the upper row rises towards
    rise = np.array([-1.0, 1.0] if problem.ordering == "reverse" else [1.0, -1.0])
    nag = problem.nagumo
    track_p = nag is not None and nag.success
    trace = IterationTrace(k=k, nodes=nodes)
    if track_p:
        trace.derivative_bound_lower, trace.derivative_bound_upper = [], []

    def record_level(u, du):
        trace.gaps.append(float(np.max(np.abs(u[0] - u[1]))))
        trace.ordered.append(bool(np.all(rise[1] * u[0] >= rise[1] * u[1] - MONOTONE_SLACK)))
        trace.iterates_lower, trace.iterates_upper = ([pair] for pair in zip(u, du))
        if on_level is not None:
            on_level(u)

    record_level(u, du)
    for _ in range(max_iter):
        u1, du1 = iterate_once(problem, solver, u, du)
        trace.iterations += 1

        moves = np.max(np.abs(u1 - u), axis=1)
        trace._record("step_moves", moves.tolist())
        trace._record("monotone", np.all(rise[:, None] * u1 >= rise[:, None] * u
                                         - MONOTONE_SLACK, axis=1).tolist())
        if track_p:
            trace._record("derivative_bound",
                          (np.max(np.abs(du1), axis=1) <= nag.P + DERIVATIVE_SLACK).tolist())

        u, du = u1, du1
        record_level(u, du)

        sup_now = np.max(np.abs(u))
        if sup_now > bound or not np.isfinite(sup_now):
            trace.diverged = True
            raise DivergenceError(
                "iterate sup-norm %.3e exceeded 10x the initial bracket (%.3e) at step %d"
                % (sup_now, bracket_sup, trace.iterations), trace=trace)

        if np.all(moves <= tol):
            break

    trace.residual_lower, trace.residual_upper = (
        _interior_residual(problem, nodes, v, dv) for v, dv in zip(u, du))
    trace.final_residual = max(trace.residual_lower, trace.residual_upper)
    trace.boundary_residual_lower, trace.boundary_residual_upper = (
        boundary_residuals(problem.config, nodes, v, dv) for v, dv in zip(u, du))
    bres = trace.boundary_residual_lower + trace.boundary_residual_upper
    trace.converged = bool(
        np.all(moves <= tol)
        and trace.final_residual <= 10 * tol
        and all(abs(r) <= tol for r in bres)
    )
    return trace


@dataclass
class BracketReport:
    checks: list
    ok: bool

    def check(self, cid):
        for c in self.checks:
            if c.cid == cid:
                return c
        raise KeyError(cid)

    def to_dict(self):
        return {"ok": bool(self.ok), "checks": [c.to_dict() for c in self.checks]}


def verify_initial_bracket(problem: NonlinearProblem, k: float = None) -> BracketReport:
    """Check that lower0/upper0 really are lower/upper solutions.

    Lower side: psi(x,c,c') + c'' >= 0, c'(0) = lambda1 c(xi) (to 1e-9), and
    lambda2 c(eta) - c'(1) >= 0. Upper side mirrored. Also checks the
    declared ordering and, when k is given, the cross condition
    psi(x,d,d') - psi(x,c,c') - k (d - c) >= 0, all on the 501-node grid.
    Margins are the most negative slack observed (>= -MONOTONE_SLACK
    passes). Pure report, never raises on a failed inequality.
    """
    cfg = problem.config
    nodes = build_grid(501, cfg.xi, cfg.eta)
    i_xi, i_eta = node_index(nodes, cfg.xi), node_index(nodes, cfg.eta)

    c, dc = problem.initial_lower(nodes)
    d, dd = problem.initial_upper(nodes)
    d2c = problem.lower0.diff("x").diff("x").sample(x=nodes)
    d2d = problem.upper0.diff("x").diff("x").sample(x=nodes)

    psi_c = problem.psi_values(nodes, c, dc)
    psi_d = problem.psi_values(nodes, d, dd)

    margins = [
        ("lower-interior", np.min(psi_c + d2c)),
        ("lower-bc0", -abs(dc[0] - cfg.lambda1 * c[i_xi])),
        ("lower-bc1", cfg.lambda2 * c[i_eta] - dc[-1]),
        ("upper-interior", np.min(-(psi_d + d2d))),
        ("upper-bc0", -abs(dd[0] - cfg.lambda1 * d[i_xi])),
        ("upper-bc1", dd[-1] - cfg.lambda2 * d[i_eta]),
        ("ordering", np.min(c - d) if problem.ordering == "reverse" else np.min(d - c)),
    ]
    if k is not None:
        margins.append(("cross", np.min(psi_d - psi_c - k * (d - c))))
    checks = [Condition(cid, m >= -MONOTONE_SLACK, m) for cid, m in margins]
    return BracketReport(checks=checks, ok=all(chk.ok for chk in checks))
