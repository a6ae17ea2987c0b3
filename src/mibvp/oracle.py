"""Independent finite-difference reference solvers.

Deliberately shares no code path with the kernel pipeline: second-order
central differences inside, 3-point one-sided boundary stencils, sparse LU.
fd_linear checks the quadrature solver; fd_nonlinear (damped Newton)
checks the monotone iteration's limit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .errors import OracleError, ValidationError
from .linear_bvp import GridFunction

NEWTON_TOL = 1e-10
NEWTON_MAX = 60
HALVING_FLOOR = 2.0 ** -20


def _uniform_spacing(nodes):
    h = nodes[1] - nodes[0]
    if np.max(np.abs(np.diff(nodes) - h)) > 1e-9 * max(h, 1.0):
        raise ValidationError("finite-difference oracle needs a uniform grid")
    return float(h)


def _node_at(nodes, p, label):
    i = int(np.argmin(np.abs(nodes - p)))
    if abs(nodes[i] - p) > 1e-12:
        raise ValidationError("%s=%r is not a grid node" % (label, p))
    return i


@dataclass
class FdSystem:
    """Assembled sparse system for the shifted linear problem."""

    n: int
    h: float
    matrix: sparse.csr_matrix
    rhs: np.ndarray


def _factor_checked(matrix, what):
    """LU-factor a sparse matrix, refusing numerically singular factors.

    SuperLU can finish factoring a rank-deficient matrix without raising as
    long as no hard zero pivot is hit during elimination, so inspect the U
    diagonal and report the offending pivot position.
    """
    try:
        lu = splu(matrix.tocsc())
    except RuntimeError as exc:
        raise OracleError("singular %s: %s" % (what, exc)) from exc
    diag = np.abs(lu.U.diagonal())
    scale = np.max(diag) if diag.size else 0.0
    if scale == 0.0 or not np.all(np.isfinite(diag)) or np.min(diag) <= 1e-12 * scale:
        pivot = int(np.argmin(diag))
        raise OracleError("singular %s: zero pivot at position %d" % (what, pivot))
    return lu


def build_fd_system(config, k: float, g: GridFunction, c_shift: float = 0.0) -> FdSystem:
    """Discretize -u'' - k u = g with the multipoint boundary rows.

    Interior rows are the standard second difference; the boundary rows use
    one-sided 3-point first-derivative stencils so the whole scheme is
    O(h^2). The lambda couplings at xi and eta land off the three-band
    pattern, hence the general sparse matrix.
    """
    nodes = g.nodes
    n = nodes.size
    h = _uniform_spacing(nodes)
    i_xi = _node_at(nodes, config.xi, "xi")
    i_eta = _node_at(nodes, config.eta, "eta")

    rows, cols, vals = [], [], []

    def add(i, j, v):
        rows.append(i)
        cols.append(j)
        vals.append(v)

    # u'(0) - lambda1 u(xi) = 0
    add(0, 0, -1.5 / h)
    add(0, 1, 2.0 / h)
    add(0, 2, -0.5 / h)
    add(0, i_xi, -config.lambda1)
    for i in range(1, n - 1):
        add(i, i - 1, -1.0 / h ** 2)
        add(i, i, 2.0 / h ** 2 - k)
        add(i, i + 1, -1.0 / h ** 2)
    # u'(1) - lambda2 u(eta) = c_shift
    add(n - 1, n - 1, 1.5 / h)
    add(n - 1, n - 2, -2.0 / h)
    add(n - 1, n - 3, 0.5 / h)
    add(n - 1, i_eta, -config.lambda2)

    matrix = sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    rhs = np.empty(n)
    rhs[0] = 0.0
    rhs[1:-1] = g.values[1:-1]
    rhs[-1] = c_shift
    return FdSystem(n=n, h=h, matrix=matrix, rhs=rhs)


def fd_linear(config, k: float, g: GridFunction, c_shift: float = 0.0) -> GridFunction:
    """Solve the discretized shifted linear problem by sparse LU."""
    sys_ = build_fd_system(config, k, g, c_shift)
    lu = _factor_checked(sys_.matrix, "finite-difference system")
    u = lu.solve(sys_.rhs)
    if not np.all(np.isfinite(u)):
        bad = int(np.argmin(np.isfinite(u)))
        raise OracleError("finite-difference solve produced a non-finite value "
                          "at node %d (x=%r)" % (bad, g.nodes[bad]))
    return GridFunction(g.nodes.copy(), u)


def fd_nonlinear(problem, n: int = 201, tol: float = NEWTON_TOL,
                 max_newton: int = NEWTON_MAX) -> GridFunction:
    """Damped Newton on the FD residual of -u'' = psi(x, u, u').

    Residual rows are scaled by h^2 (h at the boundary rows) so the
    convergence test is meaningful near machine precision. The Jacobian is
    factored at the starting iterate even when the residual is already
    small, so a singular linearization is reported rather than returning
    the untested guess. Start is the bracket midpoint; leaving a 10x
    inflated bracket or stagnating under step halving raises OracleError.
    """
    if (n - 1) % 10 != 0:
        # keep boundary points like 0.1, 0.2, 0.3 exactly on grid nodes
        n = 10 * ((n - 1) // 10) + 1
    nodes = np.linspace(0.0, 1.0, n)
    h = nodes[1] - nodes[0]
    cfg = problem.config
    i_xi = _node_at(nodes, cfg.xi, "xi")
    i_eta = _node_at(nodes, cfg.eta, "eta")
    lam1, lam2 = cfg.lambda1, cfg.lambda2

    c0 = problem.lower0.sample(x=nodes)
    d0 = problem.upper0.sample(x=nodes)
    bracket_sup = max(np.max(np.abs(c0)), np.max(np.abs(d0)))
    u = 0.5 * (c0 + d0)

    psi_u = problem.psi.diff("u")

    def residual(v):
        r = np.empty_like(v)
        up = (v[2:] - v[:-2]) / (2 * h)
        with np.errstate(over="ignore", invalid="ignore"):
            psi_vals = problem.psi.sample(x=nodes[1:-1], u=v[1:-1], up=up)
        r[0] = (-3 * v[0] + 4 * v[1] - v[2]) / 2 - h * lam1 * v[i_xi]
        r[1:-1] = -(v[:-2] - 2 * v[1:-1] + v[2:]) - h ** 2 * psi_vals
        r[-1] = (3 * v[-1] - 4 * v[-2] + v[-3]) / 2 - h * lam2 * v[i_eta]
        return r

    def jacobian(v):
        up = (v[2:] - v[:-2]) / (2 * h)
        x_in = nodes[1:-1]
        with np.errstate(over="ignore", invalid="ignore"):
            pu = psi_u.sample(x=x_in, u=v[1:-1], up=up)
            e = 1e-6 * np.maximum(1.0, np.abs(up))
            pp = problem.psi.sample(x=x_in, u=v[1:-1], up=up + e)
            pm = problem.psi.sample(x=x_in, u=v[1:-1], up=up - e)
            pup = (pp - pm) / (2 * e)
        rows, cols, vals = [], [], []

        def add(i, j, w):
            rows.append(i)
            cols.append(j)
            vals.append(w)

        add(0, 0, -1.5)
        add(0, 1, 2.0)
        add(0, 2, -0.5)
        add(0, i_xi, -h * lam1)
        for idx, i in enumerate(range(1, n - 1)):
            add(i, i - 1, -1.0 + (h / 2) * pup[idx])
            add(i, i, 2.0 - h ** 2 * pu[idx])
            add(i, i + 1, -1.0 - (h / 2) * pup[idx])
        add(n - 1, n - 1, 1.5)
        add(n - 1, n - 2, -2.0)
        add(n - 1, n - 3, 0.5)
        add(n - 1, i_eta, -h * lam2)
        return sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsc()

    def factor(v):
        return _factor_checked(jacobian(v), "Newton Jacobian")

    r = residual(u)
    if not np.all(np.isfinite(r)):
        raise OracleError("non-finite residual at the starting iterate")
    rnorm = np.max(np.abs(r))
    lu = factor(u)

    for _ in range(max_newton):
        if rnorm <= tol:
            break
        step = lu.solve(-r)
        alpha = 1.0
        while True:
            trial = u + alpha * step
            rt = residual(trial)
            tnorm = np.max(np.abs(rt)) if np.all(np.isfinite(rt)) else np.inf
            if tnorm < rnorm:
                break
            alpha *= 0.5
            if alpha < HALVING_FLOOR:
                raise OracleError("Newton stagnated: step halving floor reached "
                                  "with residual %.3e" % rnorm)
        u, r, rnorm = trial, rt, tnorm
        if np.max(np.abs(u)) > 10.0 * max(bracket_sup, 1e-12):
            raise OracleError("Newton iterate left the inflated bracket "
                              "(sup %.3e)" % np.max(np.abs(u)))
        lu = factor(u)
    else:
        if rnorm > tol:
            raise OracleError("Newton did not reach tolerance: last residual %.3e"
                              % rnorm)
    return GridFunction(nodes, u)
