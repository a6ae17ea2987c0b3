import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mibvp.errors import ValidationError
from mibvp.kernel import BoundaryConfig, ShiftedOperator
from mibvp.linear_bvp import (GridFunction, boundary_residuals, build_grid, get_solver,
                              node_index)

CFG1 = BoundaryConfig(0.1, 0.2, 2.0, 3.0)
CFG2 = BoundaryConfig(0.2, 0.3, 0.25, 1.0 / 9.0)
OP1 = ShiftedOperator(0.49)
OP2 = ShiftedOperator(-2.0)


class TestBuildGrid:
    def test_too_few_nodes(self):
        with pytest.raises(ValidationError):
            build_grid(4, 0.1, 0.2)

    def test_snap_keeps_count(self):
        xs = build_grid(501, 0.1, 0.2)
        assert xs.size == 501
        assert xs[50] == 0.1 and xs[100] == 0.2
        assert np.all(np.diff(xs) > 0)

    def test_insertion_grows_grid(self):
        # 0.155 is not within 1e-9 of any node of linspace(0,1,101)
        xs = build_grid(101, 0.155, 0.2)
        assert xs.size == 102
        assert 0.155 in xs and 0.2 in xs
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


class TestSolveLinear:
    def test_zero_data_is_exactly_zero(self):
        for cfg, op in ((CFG1, OP1), (CFG2, OP2)):
            xs = build_grid(101, cfg.xi, cfg.eta)
            u, du = _solve(cfg, op, xs, np.zeros_like(xs), 0.0)
            assert np.all(u == 0.0)
            assert np.all(du == 0.0)

    def test_manufactured_positive_regime(self):
        # u* = 1 + 2.525 x + x^2 satisfies the left condition of CFG1
        # exactly; the right condition holds with c_shift = -0.11
        xs = build_grid(1001, CFG1.xi, CFG1.eta)
        u_star = 1.0 + 2.525 * xs + xs ** 2
        g = -2.0 - 0.49 * u_star
        u, du = _solve(CFG1, OP1, xs, g, -0.11)
        err = float(np.max(np.abs(u - u_star)))
        derr = float(np.max(np.abs(du - (2.525 + 2 * xs))))
        assert err <= 2e-7
        assert err == pytest.approx(1.1181716613909917e-07, rel=1e-3)
        assert derr <= 5e-7

    def test_manufactured_negative_regime(self):
        # u* = 1 + b x + x^2 with b = 0.26/0.95 satisfies the left
        # condition of CFG2 exactly
        b = 0.26 / 0.95
        c = (b + 2.0) - (1.09 + 0.3 * b) / 9.0
        xs = build_grid(1001, CFG2.xi, CFG2.eta)
        u_star = 1.0 + b * xs + xs ** 2
        g = -2.0 + 2.0 * u_star
        u, du = _solve(CFG2, OP2, xs, g, c)
        err = float(np.max(np.abs(u - u_star)))
        assert err <= 2e-7
        assert err == pytest.approx(1.6653437064878168e-07, rel=1e-3)

    def test_boundary_residuals(self):
        xs = build_grid(501, CFG1.xi, CFG1.eta)
        g = np.sin(3 * xs) + 2.0
        for c_shift in (0.0, -0.11, 1.7):
            u, du = _solve(CFG1, OP1, xs, g, c_shift)
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
        u1, du1 = _solve(CFG2, OP2, xs, g1, 0.4)
        u2, du2 = _solve(CFG2, OP2, xs, g2, -1.1)
        a, b = 2.5, -0.75
        u3, du3 = _solve(CFG2, OP2, xs, a * g1 + b * g2, a * 0.4 + b * (-1.1))
        assert np.max(np.abs(u3 - (a * u1 + b * u2))) <= 1e-10
        assert np.max(np.abs(du3 - (a * du1 + b * du2))) <= 1e-10

    def test_derivative_consistency(self):
        xs = build_grid(1001, CFG1.xi, CFG1.eta)
        g = np.sin(3 * xs) + 2.0
        u, du = _solve(CFG1, OP1, xs, g, 0.3)
        num = np.gradient(u, xs, edge_order=2)
        assert float(np.max(np.abs(du[1:-1] - num[1:-1]))) <= 1e-5

    def test_operator_residual(self):
        # -u'' - k u = g on a 5-point interior stencil, both regimes
        for cfg, op in ((CFG1, OP1), (CFG2, OP2)):
            xs = build_grid(1001, cfg.xi, cfg.eta)
            h = xs[1] - xs[0]
            g = np.sin(3 * xs) + 2.0
            v, _ = _solve(cfg, op, xs, g, 0.25)
            upp = (-v[:-4] + 16 * v[1:-3] - 30 * v[2:-2] + 16 * v[3:-1] - v[4:]) \
                / (12 * h * h)
            res = -upp - op.k * v[2:-2] - g[2:-2]
            assert float(np.max(np.abs(res))) <= 1e-5

    def test_missing_interior_node_rejected(self):
        # 0.1 is not a node of linspace(0,1,100)
        xs = np.linspace(0.0, 1.0, 100)
        with pytest.raises(ValidationError):
            get_solver(CFG1, OP1, xs)

    def test_solver_cache_returns_same_object(self):
        xs = build_grid(101, CFG1.xi, CFG1.eta)
        s1 = get_solver(CFG1, OP1, xs)
        s2 = get_solver(CFG1, OP1, xs.copy())
        assert s1 is s2


@settings(max_examples=25, deadline=None)
@given(a=st.floats(0.0, 3.0), b=st.floats(0.0, 3.0), c=st.floats(0.0, 2.0))
def test_sign_principles_hold_for_nonnegative_data(a, b, c):
    xs = build_grid(201, 0.1, 0.2)
    g = a + b * xs
    u_pos, _ = _solve(CFG1, OP1, xs, g, c)
    assert float(u_pos.max()) <= 1e-10
    ys = build_grid(201, 0.2, 0.3)
    u_neg, _ = _solve(CFG2, OP2, ys, a + b * ys, c)
    assert float(u_neg.min()) >= -1e-10
