"""Solve the shifted linear problem -u'' - k u = g with four-point coupling.

The solution is the boundary term times the shift constant minus the kernel
quadrature, u(x) = c*B(x) - int_0^1 G(x,s) g(s) ds, and its derivative uses
the analytically differentiated boundary term plus the kernel x-derivative,
whose unit jump at s = x falls on a panel endpoint.

Quadrature is composite Simpson per grid panel. g is known only at the
nodes; the panel midpoint value is the mean of the endpoint samples, which
makes the integration exact for piecewise-linear g and keeps the whole
solve a pair of precomputed matrix-vector products.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .kernel import BLOCK_ROWS, BoundaryConfig, ShiftedOperator, kernel_functions

NODE_MATCH_TOL = 1e-12
# the most nodes a grid may have
MAX_GRID_N = 10 ** 6


@dataclass
class GridFunction:
    """Samples of a function on a sorted grid over [0, 1]."""

    nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, float)
        self.values = np.asarray(self.values, float)
        if self.nodes.ndim != 1 or self.nodes.shape != self.values.shape:
            raise ValidationError("nodes and values must be 1-d arrays of equal length")
        if self.nodes[0] != 0.0 or self.nodes[-1] != 1.0:
            raise ValidationError("grid must start at 0 and end at 1")
        if np.any(np.diff(self.nodes) <= 0):
            raise ValidationError("grid nodes must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValidationError("grid values must be finite")


def build_grid(n: int, xi: float, eta: float) -> np.ndarray:
    """Uniform n-node grid on [0,1] with xi and eta guaranteed to be nodes.

    The nearest interior node moves onto xi or eta when it lies within h/4,
    h = 1/(n-1); otherwise the point is inserted (making the grid locally
    non-uniform). Nodes 0 and n-1 and a node already holding the other
    point never move, so xi < h/4, or 0 < eta - xi < h/4, inserts instead.
    """
    if not 5 <= n <= MAX_GRID_N:
        raise ValidationError("grid needs 5 to %d nodes, got %r" % (MAX_GRID_N, n))
    xs = np.linspace(0.0, 1.0, int(n))
    h = 1.0 / (int(n) - 1)
    for p, other in ((xi, eta), (eta, xi)):
        i = int(np.argmin(np.abs(xs - p)))
        if xs[i] == p:
            continue
        if 0 < i < xs.size - 1 and abs(xs[i] - p) < h / 4 and xs[i] != other:
            xs[i] = p
        else:
            xs = np.sort(np.append(xs, p))
    return xs


def node_index(nodes, p: float) -> int:
    """Index of the node within NODE_MATCH_TOL of p, or raise ValidationError."""
    i = int(np.argmin(np.abs(nodes - p)))
    if abs(nodes[i] - p) > NODE_MATCH_TOL:
        raise ValidationError("grid lacking required node at %r" % p)
    return i


class LinearSolver:
    """Precomputed quadrature matrices for one (config, operator, grid) triple.

    solve(g_values, c_shift) costs two matrix-vector products. The two
    matrices are the solver's 16 n^2 bytes; the build fills them BLOCK_ROWS
    rows at a time, from the kernel sampled at the nodes and at the panel
    midpoints, so it adds only O(BLOCK_ROWS n) bytes on top. The kernel's
    x <= s rule gives dG/dx(x_i, x_i) the limit from below, but panel i-1
    ends on x_i from the left, where its integrand is the limit from above,
    one more; so the diagonal gets w_{i-1}/6 on top.
    """

    def __init__(self, config: BoundaryConfig, op: ShiftedOperator, nodes):
        self.op = op
        self.nodes = np.asarray(nodes, float)
        fns = kernel_functions(config, op)
        for p in (config.xi, config.eta):
            node_index(self.nodes, p)
        xs = self.nodes
        n = xs.size
        mids = 0.5 * (xs[:-1] + xs[1:])
        w = np.diff(xs)
        self.value_matrix, self.derivative_matrix = np.zeros((n, n)), np.zeros((n, n))
        for r in range(0, n, BLOCK_ROWS):
            X = xs[r:r + BLOCK_ROWS, None]
            for f, Q in ((fns.value, self.value_matrix), (fns.dvalue_dx, self.derivative_matrix)):
                _simpson(w, f(X, xs[None, :]), f(X, mids[None, :]), Q[r:r + BLOCK_ROWS])
        diag = np.arange(1, n)
        self.derivative_matrix[diag, diag] += w / 6.0
        self.boundary_values = fns.boundary_term(xs)
        self.boundary_derivatives = fns.boundary_term_dx(xs)

    def solve(self, g_values, c_shift: float = 0.0):
        g = np.asarray(g_values, float)
        u = c_shift * self.boundary_values - self.value_matrix @ g
        du = c_shift * self.boundary_derivatives - self.derivative_matrix @ g
        return u, du


def _simpson(w, at_nodes, at_mids, Q):
    """Add the Simpson sums of kernel samples F(x_i, s_j), F(x_i, m_j) to Q.

    Q holds the rows x_i of the samples and starts at zero. With the
    midpoint g taken as the mean of the endpoint samples, panel j adds
    (w_j/6)(F(x, s_j) + 2 F(x, m_j)) to column j and
    (w_j/6)(F(x, s_{j+1}) + 2 F(x, m_j)) to column j+1.
    """
    co = w / 6.0
    Q[:, :-1] += co * (at_nodes[:, :-1] + 2 * at_mids)
    Q[:, 1:] += co * (at_nodes[:, 1:] + 2 * at_mids)


def get_solver(config: BoundaryConfig, op: ShiftedOperator, nodes) -> LinearSolver:
    """A new LinearSolver for the triple; nothing is memoized.

    A run solves at one fixed shift on one grid, so it needs one solver;
    the caller holds it for as long as it needs the matrices.
    """
    return LinearSolver(config, op, nodes)


def boundary_residuals(config: BoundaryConfig, nodes, u, du):
    """r0 = du(0) - lambda1 u(xi), r1 = du(1) - lambda2 u(eta) from node arrays.

    xi and eta must be nodes so no interpolation is involved.
    """
    if not np.shape(nodes) == np.shape(u) == np.shape(du):
        raise ValidationError("nodes, u and du must have one shape")
    r0 = float(du[0] - config.lambda1 * u[node_index(nodes, config.xi)])
    r1 = float(du[-1] - config.lambda2 * u[node_index(nodes, config.eta)])
    return r0, r1
