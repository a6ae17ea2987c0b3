"""Independent finite-difference reference solvers.

Deliberately shares no code path with the kernel pipeline: it takes only
the grid (GridFunction, build_grid, node_index) from the rest of the package.
fd_weights gives finite-difference weights on arbitrarily spaced nodes, so
every build_grid grid works, including those with an inserted xi or eta.
The 3-point stencils make every system tridiagonal but for the two lambda
couplings, so splu solves it in O(n). fd_linear checks the quadrature
solver; fd_nonlinear (damped Newton) checks the monotone iteration's limit.
"""
from __future__ import annotations

from math import factorial, inf

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
    """The operator the oracle discretizes, as (cols, vals, couplings).

    Interior row i is scale_i * (-v'' - diag_i v - slope_i v') at x_i; row 0
    is scale_0 * (v'(0) - lambda1 v(xi)) and row n-1 is
    scale_{n-1} * (v'(1) - lambda2 v(eta)); diag and slope are scalars or one
    per interior node, scale a scalar or one per row. Row i weighs columns
    cols[i] by vals[i]; couplings are the (column, weight) of the lambda terms.
    """
    cols, d1, d2 = stencils
    scale = np.broadcast_to(scale, (nodes.size,))
    vals = d1.copy()
    vals[1:-1] = -d2[1:-1] - np.asarray(slope)[..., None] * d1[1:-1]
    vals[1:-1, 1] -= diag
    vals *= scale[:, None]
    return cols, vals, ((node_index(nodes, config.xi), -config.lambda1 * scale[0]),
                        (node_index(nodes, config.eta), -config.lambda2 * scale[-1]))


def _apply(system, v):
    """The product of a system from _assemble with the node values v."""
    cols, vals, ((j_start, w_start), (j_end, w_end)) = system
    r = np.sum(vals * v[cols], axis=1)
    r[0] += w_start * v[j_start]
    r[-1] += w_end * v[j_end]
    return r


def _sweep(lower, inv, ratio, rhs):
    """Thomas forward and back substitution over the interior rows."""
    out, g = [], 0.0
    for low, q, f in zip(lower, inv, rhs):
        g = (f - low * g) * q
        out.append(g)
    for m in range(len(out) - 2, -1, -1):
        out[m] -= ratio[m] * out[m + 1]
    return out


def splu(system):
    """Factor a system from _assemble into (solve, pivots), pivots[i] of node i.

    Thomas elimination of rows 1..n-2, with v_0 and v_{n-1} moved to the
    right-hand side, gives v = y + v_0 e_a + v_{n-1} e_b. Rows 0 and n-1 then
    form a 2x2 system in (v_0, v_{n-1}), solved with partial pivoting. The
    recurrences run over Python floats, faster than numpy scalars. It keeps
    the name of the sparse LU it replaced, which perfbench/spans.py wraps to
    count factorizations.
    """
    lower, diag, upper = system[1][1:-1].T.tolist()
    pivots, inv, ratio = [], [], []
    for low, d, up in zip(lower, diag, upper):
        pivots.append(d - low * (ratio[-1] if ratio else 0.0))
        inv.append(1.0 / pivots[-1] if pivots[-1] else inf)
        ratio.append(up * inv[-1])
    pad = [0.0] * (len(diag) - 1)
    e_a = np.array([1.0] + _sweep(lower, inv, ratio, [-lower[0]] + pad) + [0.0])
    e_b = np.array([0.0] + _sweep(lower, inv, ratio, pad + [-upper[-1]]) + [1.0])
    m = np.c_[_apply(system, e_a)[[0, -1]], _apply(system, e_b)[[0, -1]]].tolist()
    first, other = (0, 1) if abs(m[0][0]) >= abs(m[1][0]) else (1, 0)
    q1 = 1.0 / m[first][0] if m[first][0] else inf
    mult = m[other][0] * q1
    p2 = m[other][1] - mult * m[first][1]
    q2 = 1.0 / p2 if p2 else inf

    def solve(rhs):
        y = np.array([0.0] + _sweep(lower, inv, ratio, rhs[1:-1].tolist()) + [0.0])
        b = (rhs[[0, -1]] - _apply(system, y)[[0, -1]]).tolist()
        v_end = (b[other] - mult * b[first]) * q2
        v_start = (b[first] - m[first][1] * v_end) * q1
        return y + v_start * e_a + v_end * e_b

    return solve, np.array([m[first][0]] + pivots + [p2])


def _factor_checked(system, what):
    """Factor a system, refusing a pivot not finite or at most 1e-12 times the largest."""
    solve, pivots = splu(system)
    size = np.nan_to_num(np.abs(pivots), nan=0.0, posinf=0.0)
    if np.min(size) <= 1e-12 * np.max(size):
        raise OracleError("singular %s: zero pivot at node %d" % (what, int(np.argmin(size))))
    return solve


def build_fd_system(config, k: float, g: GridFunction, c_shift: float = 0.0):
    """Discretize -u'' - k u = g with the multipoint boundary rows.

    Returns (system, rhs) on g's grid, system as _assemble returns it. The
    whole scheme is O(h^2) on a uniform grid;
    next to an inserted node the interior rows drop to first order in the
    local spacing.
    """
    nodes = g.nodes
    system = _assemble(config, nodes, _stencils(nodes), k, 0.0, 1.0)
    return system, np.r_[0.0, g.values[1:-1], c_shift]


def fd_linear(config, k: float, g: GridFunction, c_shift: float = 0.0) -> GridFunction:
    """Solve the discretized shifted linear problem."""
    system, rhs = build_fd_system(config, k, g, c_shift)
    u = _factor_checked(system, "finite-difference system")(rhs)
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
    # the residual is the linear part times v, less scale * psi inside
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
        r = _apply(linear_part, v)
        r[1:-1] -= scale[1:-1] * psi_vals
        return r

    def factor(v):
        up = derivative(v)
        with np.errstate(over="ignore", invalid="ignore"):
            pu = psi_u.sample(x=x_in, u=v[1:-1], up=up)
            e = 1e-6 * np.maximum(1.0, np.abs(up))
            pp = problem.psi.sample(x=x_in, u=v[1:-1], up=up + e)
            pm = problem.psi.sample(x=x_in, u=v[1:-1], up=up - e)
            pup = (pp - pm) / (2 * e)
        return _factor_checked(_assemble(cfg, nodes, stencils, pu, pup, scale),
                               "Newton Jacobian")

    r = residual(u)
    if not np.all(np.isfinite(r)):
        raise OracleError("non-finite residual at the starting iterate")
    rnorm = np.max(np.abs(r))
    solve = factor(u)

    for _ in range(NEWTON_MAX):
        if rnorm <= NEWTON_TOL:
            break
        step = solve(-r)
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
        solve = factor(u)
    else:
        if rnorm > NEWTON_TOL:
            raise OracleError("Newton did not reach tolerance: last residual %.3e"
                              % rnorm)
    return GridFunction(nodes, u)
