import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mibvp import linear_bvp
from mibvp.errors import ValidationError
from mibvp.kernel import BoundaryConfig, ShiftedOperator, kernel_functions
from mibvp.linear_bvp import (GridFunction, boundary_residuals, build_grid, get_solver,
                              node_index)
from mibvp.monotone import NonlinearProblem, run

CFG1 = BoundaryConfig(0.1, 0.2, 2.0, 3.0)
CFG2 = BoundaryConfig(0.2, 0.3, 0.25, 1.0 / 9.0)
OP1 = ShiftedOperator(0.49)
OP2 = ShiftedOperator(-2.0)


class TestBuildGrid:
    def test_too_few_nodes(self):
        with pytest.raises(ValidationError):
            build_grid(4, 0.1, 0.2)

    def test_too_many_nodes(self):
        # numpy's "Maximum allowed size exceeded" used to escape from linspace
        with pytest.raises(ValidationError, match="grid needs 5 to 1000000 nodes"):
            build_grid(10 ** 30, 0.1, 0.2)

    def test_snap_keeps_count(self):
        xs = build_grid(501, 0.1, 0.2)
        assert xs.size == 501
        assert xs[50] == 0.1 and xs[100] == 0.2
        assert np.all(np.diff(xs) > 0)

    def test_insertion_grows_grid(self):
        # 0.155 is h/2 from the nearest nodes of linspace(0,1,101)
        xs = build_grid(101, 0.155, 0.2)
        assert xs.size == 102
        assert 0.155 in xs and 0.2 in xs
        assert np.all(np.diff(xs) > 0)

    def test_snap_within_quarter_step(self):
        # a node 2e-9 off xi moves onto it instead of leaving a 2e-9 panel
        xi = 0.1 + 2e-9
        xs = build_grid(501, xi, 0.2)
        assert xs.size == 501
        assert xs[50] == xi and xs[100] == 0.2
        assert np.min(np.diff(xs)) >= 0.002 - 3e-9

    def test_off_lattice_residual(self, ex1_problem):
        problem = NonlinearProblem(
            psi=ex1_problem.psi, config=BoundaryConfig(0.1 + 2e-9, 0.2, 2.0, 3.0),
            lower0=ex1_problem.lower0, upper0=ex1_problem.upper0, ordering="reverse")
        trace = run(problem, 0.49, max_iter=300, tol=1e-8, grid_n=501)
        assert trace.nodes.size == 501
        assert trace.converged
        assert trace.final_residual <= 4e-9

    def test_equal_points_share_one_node(self):
        xs = build_grid(101, 0.3, 0.3)
        assert xs.size == 101
        assert np.count_nonzero(xs == 0.3) == 1
        ys = build_grid(101, 0.3051, 0.3051)
        assert ys.size == 102
        assert np.count_nonzero(ys == 0.3051) == 1
        assert np.all(np.diff(ys) > 0)

    def test_close_points_keep_both_nodes(self):
        # eta - xi < h/4: the node that took xi must not move onto eta
        xs = build_grid(101, 0.3, 0.302)
        assert xs.size == 102
        assert 0.3 in xs and 0.302 in xs
        assert np.all(np.diff(xs) > 0)
        ys = build_grid(101, 0.301, 0.303)
        assert ys.size == 102
        assert 0.301 in ys and 0.303 in ys
        assert np.all(np.diff(ys) > 0)

    def test_end_nodes_never_move(self):
        # xi < h/4 is inserted next to node 0, which stays at 0
        xs = build_grid(101, 0.001, 0.2)
        assert xs.size == 102
        assert xs[0] == 0.0 and xs[1] == 0.001 and xs[-1] == 1.0
        assert np.all(np.diff(xs) > 0)

    def test_node_index(self):
        xs = build_grid(501, 0.1, 0.2)
        assert node_index(xs, 0.1) == 50
        with pytest.raises(ValidationError):
            node_index(xs, 0.1234567)


class TestGridFunction:
    def test_requires_unit_interval(self):
        with pytest.raises(ValidationError):
            GridFunction(np.linspace(0.0, 0.9, 10), np.zeros(10))

    def test_requires_increasing(self):
        nodes = np.array([0.0, 0.5, 0.5, 1.0])
        with pytest.raises(ValidationError):
            GridFunction(nodes, np.zeros(4))

    def test_requires_finite_values(self):
        nodes = np.linspace(0.0, 1.0, 5)
        vals = np.array([0.0, 1.0, np.nan, 0.0, 0.0])
        with pytest.raises(ValidationError):
            GridFunction(nodes, vals)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            GridFunction(np.linspace(0, 1, 5), np.zeros(6))


def _solve(cfg, op, xs, g_vals, c_shift):
    return get_solver(cfg, op, xs).solve(g_vals, c_shift)


def _solvers(n):
    return {cfg: get_solver(cfg, op, build_grid(n, cfg.xi, cfg.eta))
            for cfg, op in ((CFG1, OP1), (CFG2, OP2))}


@pytest.fixture(scope="module")
def fine():
    """One solver per regime on the 1001-node grid, built once for this module."""
    return _solvers(1001)


@pytest.fixture(scope="module")
def coarse():
    """One solver per regime on the 201-node grid, built once for this module."""
    return _solvers(201)


class TestSolveLinear:
    def test_zero_data_is_exactly_zero(self):
        for cfg, op in ((CFG1, OP1), (CFG2, OP2)):
            xs = build_grid(101, cfg.xi, cfg.eta)
            u, du = _solve(cfg, op, xs, np.zeros_like(xs), 0.0)
            assert np.all(u == 0.0)
            assert np.all(du == 0.0)

    def test_manufactured_positive_regime(self, fine):
        # u* = 1 + 2.525 x + x^2 satisfies the left condition of CFG1
        # exactly; the right condition holds with c_shift = -0.11
        xs = fine[CFG1].nodes
        u_star = 1.0 + 2.525 * xs + xs ** 2
        g = -2.0 - 0.49 * u_star
        u, du = fine[CFG1].solve(g, -0.11)
        err = float(np.max(np.abs(u - u_star)))
        derr = float(np.max(np.abs(du - (2.525 + 2 * xs))))
        assert err <= 2e-7
        assert err == pytest.approx(1.1181716613909917e-07, rel=1e-3)
        assert derr <= 5e-7

    def test_manufactured_negative_regime(self, fine):
        # u* = 1 + b x + x^2 with b = 0.26/0.95 satisfies the left
        # condition of CFG2 exactly
        b = 0.26 / 0.95
        c = (b + 2.0) - (1.09 + 0.3 * b) / 9.0
        xs = fine[CFG2].nodes
        u_star = 1.0 + b * xs + xs ** 2
        g = -2.0 + 2.0 * u_star
        u, du = fine[CFG2].solve(g, c)
        err = float(np.max(np.abs(u - u_star)))
        assert err <= 2e-7
        assert err == pytest.approx(1.6653437064878168e-07, rel=1e-3)

    def test_boundary_residuals(self):
        xs = build_grid(501, CFG1.xi, CFG1.eta)
        g = np.sin(3 * xs) + 2.0
        solver = get_solver(CFG1, OP1, xs)
        for c_shift in (0.0, -0.11, 1.7):
            u, du = solver.solve(g, c_shift)
            r0, r1 = boundary_residuals(CFG1, xs, u, du)
            assert r0 == pytest.approx(0.0, abs=1e-12)
            assert r1 - c_shift == pytest.approx(0.0, abs=1e-12)

    def test_boundary_residuals_grid_mismatch(self):
        xs = build_grid(101, CFG1.xi, CFG1.eta)
        ys = build_grid(501, CFG1.xi, CFG1.eta)
        with pytest.raises(ValidationError):
            boundary_residuals(CFG1, xs, np.zeros_like(xs), np.zeros_like(ys))

    def test_anti_maximum_positive_regime(self):
        # nonnegative data force a nonpositive solution when k > 0
        xs = build_grid(501, CFG1.xi, CFG1.eta)
        u, _ = _solve(CFG1, OP1, xs, 1.0 + xs, 0.5)
        assert float(u.max()) < 0.0
        assert float(u.max()) == pytest.approx(-0.6117, abs=1e-3)

    def test_maximum_negative_regime(self):
        # the same data force a nonnegative solution when k < 0
        xs = build_grid(501, CFG2.xi, CFG2.eta)
        u, _ = _solve(CFG2, OP2, xs, 1.0 + xs, 0.5)
        assert float(u.min()) > 0.0
        assert float(u.min()) == pytest.approx(0.7693, abs=1e-3)

    def test_linearity(self):
        xs = build_grid(301, CFG2.xi, CFG2.eta)
        g1 = np.cos(2 * xs)
        g2 = xs ** 3 - xs
        solver = get_solver(CFG2, OP2, xs)
        u1, du1 = solver.solve(g1, 0.4)
        u2, du2 = solver.solve(g2, -1.1)
        a, b = 2.5, -0.75
        u3, du3 = solver.solve(a * g1 + b * g2, a * 0.4 + b * (-1.1))
        assert np.max(np.abs(u3 - (a * u1 + b * u2))) <= 1e-10
        assert np.max(np.abs(du3 - (a * du1 + b * du2))) <= 1e-10

    def test_derivative_consistency(self, fine):
        xs = fine[CFG1].nodes
        g = np.sin(3 * xs) + 2.0
        u, du = fine[CFG1].solve(g, 0.3)
        num = np.gradient(u, xs, edge_order=2)
        assert float(np.max(np.abs(du[1:-1] - num[1:-1]))) <= 1e-5

    def test_operator_residual(self, fine):
        # -u'' - k u = g on a 5-point interior stencil, both regimes
        for solver in fine.values():
            xs, op = solver.nodes, solver.op
            h = xs[1] - xs[0]
            g = np.sin(3 * xs) + 2.0
            v, _ = solver.solve(g, 0.25)
            upp = (-v[:-4] + 16 * v[1:-3] - 30 * v[2:-2] + 16 * v[3:-1] - v[4:]) \
                / (12 * h * h)
            res = -upp - op.k * v[2:-2] - g[2:-2]
            assert float(np.max(np.abs(res))) <= 1e-5

    def test_missing_interior_node_rejected(self):
        # 0.1 is not a node of linspace(0,1,100)
        xs = np.linspace(0.0, 1.0, 100)
        with pytest.raises(ValidationError):
            get_solver(CFG1, OP1, xs)

    def test_solver_freed_when_dropped(self):
        xs = build_grid(101, CFG1.xi, CFG1.eta)
        solver = get_solver(CFG1, OP1, xs)
        ref = weakref.ref(solver)
        assert get_solver(CFG1, OP1, xs) is not solver
        del solver
        gc.collect()
        assert ref() is None


def _panel_loop_derivative_matrix(config, op, xs):
    # Simpson panel by panel, with dG/dx(x_i, .) sampled on the side of the
    # diagonal the panel lies on: a panel ending on x_i takes the limit from
    # above there (x one ulp past s, which exists at x = 1 too), every other
    # sample is off the diagonal or starts a panel right of x_i
    fns = kernel_functions(config, op)
    n = xs.size
    Q = np.zeros((n, n))
    for i, x in enumerate(xs):
        for j in range(n - 1):
            a, b = xs[j], xs[j + 1]
            fa = float(fns.dvalue_dx(x, a))
            fm = float(fns.dvalue_dx(x, 0.5 * (a + b)))
            if b == x:
                fb = float(fns.dvalue_dx(np.nextafter(x, np.inf), x))
            else:
                fb = float(fns.dvalue_dx(x, b))
            Q[i, j] += (b - a) / 6.0 * (fa + 2.0 * fm)
            Q[i, j + 1] += (b - a) / 6.0 * (fb + 2.0 * fm)
    return Q


@pytest.mark.parametrize("config, op", [
    (CFG1, OP1), (CFG2, OP2),
    (BoundaryConfig(0.123, 0.2, 2.0, 3.0), OP1),  # xi inserted between nodes
])
def test_derivative_matrix_matches_panel_loop(config, op):
    xs = build_grid(21, config.xi, config.eta)
    Qd = get_solver(config, op, xs).derivative_matrix
    ref = _panel_loop_derivative_matrix(config, op, xs)
    assert np.max(np.abs(Qd - ref)) <= 1e-13 * np.max(np.abs(Qd))


def _dense_matrices(config, op, xs):
    # the one-shot assembly the blocked build replaced: the kernel on the
    # whole n x n grid of nodes and of midpoints, then zeros plus the two
    # Simpson sums, then the diagonal fix
    fns = kernel_functions(config, op)
    mids = 0.5 * (xs[:-1] + xs[1:])
    co = np.diff(xs) / 6.0
    X = xs[:, None]
    matrices = []
    for f in (fns.value, fns.dvalue_dx):
        at_nodes, at_mids = f(X, xs[None, :]), f(X, mids[None, :])
        Q = np.zeros(at_nodes.shape)
        Q[:, :-1] += co * (at_nodes[:, :-1] + 2 * at_mids)
        Q[:, 1:] += co * (at_nodes[:, 1:] + 2 * at_mids)
        matrices.append(Q)
    diag = np.arange(1, xs.size)
    matrices[1][diag, diag] += co
    return matrices


def _assert_same_bits(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


B = linear_bvp.BLOCK_ROWS


@pytest.mark.parametrize("n", [5, B - 1, B, B + 1, 201])
@pytest.mark.parametrize("config, k", [
    (CFG1, 0.49), (CFG1, 2.4), (CFG2, -2.0), (CFG2, -500.0), (CFG2, -1000.0),
    (BoundaryConfig(0.117, 0.2, 2.0, 3.0), 0.49),  # xi inserted at every n here
])
def test_blocked_build_is_bit_identical_to_dense(config, k, n):
    op = ShiftedOperator(k)
    xs = build_grid(n, config.xi, config.eta)
    solver = get_solver(config, op, xs)
    value_ref, derivative_ref = _dense_matrices(config, op, xs)
    _assert_same_bits(solver.value_matrix, value_ref)
    _assert_same_bits(solver.derivative_matrix, derivative_ref)


@settings(max_examples=25, deadline=None)
@given(a=st.floats(0.0, 3.0), b=st.floats(0.0, 3.0), c=st.floats(0.0, 2.0))
def test_sign_principles_hold_for_nonnegative_data(coarse, a, b, c):
    xs = coarse[CFG1].nodes
    g = a + b * xs
    u_pos, _ = coarse[CFG1].solve(g, c)
    assert float(u_pos.max()) <= 1e-10
    ys = coarse[CFG2].nodes
    u_neg, _ = coarse[CFG2].solve(a + b * ys, c)
    assert float(u_neg.min()) >= -1e-10
