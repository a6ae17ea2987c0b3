"""Independent finite-difference reference solvers.

Deliberately shares no code path with the kernel pipeline: it takes only
the grid (GridFunction, build_grid, node_index) from the rest of the package.
fd_weights gives finite-difference weights on arbitrarily spaced nodes, so
every build_grid grid works, including those with an inserted xi or eta.
The schemes use 3-point stencils: central inside, one-sided in the
boundary rows, with sparse LU. fd_linear checks the quadrature solver;
fd_nonlinear (damped Newton) checks the monotone iteration's limit. This
is the only module that uses scipy, and it imports it on first use, so
importing the package loads numpy alone.
"""
from __future__ import annotations

from math import factorial

import numpy as np
from numpy.polynomial.polynomial import polyvander

from .errors import OracleError
from .linear_bvp import GridFunction, build_grid, node_index

NEWTON_TOL = 1e-10
NEWTON_MAX = 60
HALVING_FLOOR = 2.0 ** -20


def fd_weights(nodes, centres, offsets, order: int):
    """Weights of the order-th derivative at nodes[centres] from nearby nodes.

    Row r holds the weights w with sum_j w_j f(nodes[centres[r] + offsets[r, j]])
    equal to the order-th derivative at nodes[centres[r]] of the polynomial
    interpolating f on those nodes. offsets is one stencil, shape (w,), or
    one per centre, shape (m, w). Each stencil's Vandermonde system is solved
    in units of its own width, so its conditioning does not grow as the grid
    is refined; Fornberg (Math. Comp. 51, 1988) derives the same weights by
    recursion. Two nodes much closer than the others still make it
    ill-conditioned.
    """
    centres = np.asarray(centres)
    offsets = np.broadcast_to(offsets, centres.shape + np.shape(offsets)[-1:])
    dx = nodes[centres[:, None] + offsets] - nodes[centres][:, None]
    width = np.ptp(dx, axis=1)[:, None]
    vandermonde = polyvander(dx / width, offsets.shape[1] - 1).transpose(0, 2, 1)
    target = np.zeros(offsets.shape + (1,))
    target[:, order] = factorial(order)
    return np.linalg.solve(vandermonde, target)[..., 0] / width ** order


def _stencils(nodes):
    """Columns and 3-point weights of v' and v'' at every node.

    Interior rows are central. Rows 0 and n-1 are one-sided, as the boundary
    conditions need, and only their v' weights are used.
    """
    n = nodes.size
    centres = np.arange(n)
    offsets = np.array([-1, 0, 1]) + np.r_[1, np.zeros(n - 2, int), -1][:, None]
    return (centres[:, None] + offsets, fd_weights(nodes, centres, offsets, 1),
            fd_weights(nodes, centres, offsets, 2))


def _assemble(config, nodes, stencils, diag, slope, scale):
    """Sparse matrix of the linear operator the oracle discretizes.

    Interior row i is scale_i * (-v'' - diag_i v - slope_i v') at x_i; row 0
    is scale_0 * (v'(0) - lambda1 v(xi)) and row n-1 is
    scale_{n-1} * (v'(1) - lambda2 v(eta)). diag and slope are scalars or
    hold one value per interior node; scale is a scalar or one per row. The
    lambda couplings land off the three-band pattern, hence the general
    sparse matrix.
    """
    cols, d1, d2 = stencils
    n = nodes.size
    vals = d1.copy()
    vals[1:-1] = -d2[1:-1] - np.asarray(slope)[..., None] * d1[1:-1]
    inner = np.arange(1, n - 1)
    rows = np.r_[np.repeat(np.arange(n), 3), inner, 0, n - 1]
    cols = np.r_[cols.ravel(), inner, node_index(nodes, config.xi),
                 node_index(nodes, config.eta)]
    vals = np.r_[vals.ravel(), -np.broadcast_to(diag, inner.shape),
                 -config.lambda1, -config.lambda2]
    vals *= np.broadcast_to(scale, (n,))[rows]
    from scipy import sparse

    return sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))


def splu(matrix):
    """scipy.sparse.linalg.splu of matrix, with scipy imported on the first call."""
    from scipy.sparse.linalg import splu as factor

    return factor(matrix)


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


def build_fd_system(config, k: float, g: GridFunction, c_shift: float = 0.0):
    """Discretize -u'' - k u = g with the multipoint boundary rows.

    Returns (matrix, rhs) on g's grid. The whole scheme is O(h^2) on a
    uniform grid; next to an inserted node the interior rows drop to first
    order in the local spacing.
    """
    nodes = g.nodes
    matrix = _assemble(config, nodes, _stencils(nodes), k, 0.0, 1.0)
    rhs = g.values.copy()
    rhs[0] = 0.0
    rhs[-1] = c_shift
    return matrix, rhs


def fd_linear(config, k: float, g: GridFunction, c_shift: float = 0.0) -> GridFunction:
    """Solve the discretized shifted linear problem by sparse LU."""
    matrix, rhs = build_fd_system(config, k, g, c_shift)
    lu = _factor_checked(matrix, "finite-difference system")
    u = lu.solve(rhs)
    if not np.all(np.isfinite(u)):
        bad = int(np.argmin(np.isfinite(u)))
        raise OracleError("finite-difference solve produced a non-finite value "
                          "at node %d (x=%r)" % (bad, g.nodes[bad]))
    return GridFunction(g.nodes.copy(), u)


def fd_nonlinear(problem, n: int = 201) -> GridFunction:
    """Damped Newton on the FD residual of -u'' = psi(x, u, u').

    Works on build_grid(n, xi, eta). Residual rows are scaled by the local
    h^2 (h at the boundary rows) so the convergence test is meaningful near
    machine precision. The Jacobian is factored at the starting iterate even
    when the residual is already small, so a singular linearization is
    reported rather than returning the untested guess. Start is the bracket
    midpoint; leaving a 10x inflated bracket or stagnating under step
    halving raises OracleError.
    """
    cfg = problem.config
    nodes = build_grid(n, cfg.xi, cfg.eta)
    stencils = _stencils(nodes)
    cols, d1, _ = stencils
    gaps = np.diff(nodes)
    scale = np.r_[gaps[0], gaps[:-1] * gaps[1:], gaps[-1]]
    x_in = nodes[1:-1]
    # the residual is linear_part @ v - scale * psi on the interior rows
    linear_part = _assemble(cfg, nodes, stencils, 0.0, 0.0, scale)

    c0 = problem.lower0.sample(x=nodes)
    d0 = problem.upper0.sample(x=nodes)
    bracket_sup = max(np.max(np.abs(c0)), np.max(np.abs(d0)))
    u = 0.5 * (c0 + d0)

    psi_u = problem.psi.diff("u")

    def derivative(v):
        return np.sum(d1[1:-1] * v[cols[1:-1]], axis=1)

    def residual(v):
        with np.errstate(over="ignore", invalid="ignore"):
            psi_vals = problem.psi.sample(x=x_in, u=v[1:-1], up=derivative(v))
        r = linear_part @ v
        r[1:-1] -= scale[1:-1] * psi_vals
        return r

    def jacobian(v):
        up = derivative(v)
        with np.errstate(over="ignore", invalid="ignore"):
            pu = psi_u.sample(x=x_in, u=v[1:-1], up=up)
            e = 1e-6 * np.maximum(1.0, np.abs(up))
            pp = problem.psi.sample(x=x_in, u=v[1:-1], up=up + e)
            pm = problem.psi.sample(x=x_in, u=v[1:-1], up=up - e)
            pup = (pp - pm) / (2 * e)
        return _assemble(cfg, nodes, stencils, pu, pup, scale)

    def factor(v):
        return _factor_checked(jacobian(v), "Newton Jacobian")

    r = residual(u)
    if not np.all(np.isfinite(r)):
        raise OracleError("non-finite residual at the starting iterate")
    rnorm = np.max(np.abs(r))
    lu = factor(u)

    for _ in range(NEWTON_MAX):
        if rnorm <= NEWTON_TOL:
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
        if rnorm > NEWTON_TOL:
            raise OracleError("Newton did not reach tolerance: last residual %.3e"
                              % rnorm)
    return GridFunction(nodes, u)
