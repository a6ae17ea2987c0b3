import math

import numpy as np
import pytest

from mibvp.errors import OracleError, ValidationError
from mibvp.expressions import parse_expression
from mibvp.kernel import BoundaryConfig, ShiftedOperator
from mibvp.linear_bvp import GridFunction, build_grid, get_solver
from mibvp.monotone import NonlinearProblem
from mibvp.oracle import (_assemble, _factor_checked, _stencils, build_fd_system,
                          fd_linear, fd_nonlinear, fd_weights)

CFG1 = BoundaryConfig(0.1, 0.2, 2.0, 3.0)
CFG2 = BoundaryConfig(0.2, 0.3, 0.25, 1.0 / 9.0)


def densify(system):
    """The dense matrix of an oracle system (cols, vals, couplings)."""
    cols, vals, couplings = system
    n = len(vals)
    m = np.zeros((n, n))
    np.add.at(m, (np.repeat(np.arange(n), cols.shape[1]), cols.ravel()), vals.ravel())
    for row, (col, weight) in zip((0, n - 1), couplings):
        m[row, col] += weight
    return m


class TestFdWeights:
    @pytest.mark.parametrize("points", [3, 5])
    @pytest.mark.parametrize("order", [1, 2])
    def test_exact_for_polynomials(self, points, order):
        # random non-uniform nodes; central stencils inside, one-sided ones
        # (given per row) at the two ends
        rng = np.random.default_rng(7)
        nodes = np.cumsum(rng.uniform(0.1, 1.0, size=40)) / 20.0
        half = points // 2
        centres = np.arange(nodes.size)
        last = nodes.size - 1
        shift = np.clip(half - centres, 0, None) - np.clip(centres + half - last, 0, None)
        offsets = np.arange(-half, half + 1) + shift[:, None]
        w = fd_weights(nodes, centres, offsets, order)
        for degree in range(points):
            coef = rng.uniform(-1.0, 1.0, size=degree + 1)
            poly = np.polynomial.Polynomial(coef)
            got = np.sum(w * poly(nodes[centres[:, None] + offsets]), axis=1)
            want = poly.deriv(order)(nodes)
            scale = max(float(np.max(np.abs(want))), 1.0)
            assert np.max(np.abs(got - want)) <= 1e-9 * scale, degree


class TestFdLinear:
    def test_zero_data_exact(self):
        xs = np.linspace(0.0, 1.0, 101)
        u = fd_linear(CFG1, 0.49, GridFunction(xs, np.zeros_like(xs)), 0.0)
        assert np.all(u.values == 0.0)

    def test_second_order_convergence(self):
        # manufactured u* = cos x with lambda1 = 0 so the left condition
        # holds; the error must shrink like h^2
        cfg = BoundaryConfig(0.1, 0.2, 0.0, 3.0)
        k = 0.49
        c_shift = -math.sin(1.0) - 3.0 * math.cos(0.2)
        errs = []
        for n in (101, 201, 401):
            xs = np.linspace(0.0, 1.0, n)
            g = (1.0 - k) * np.cos(xs)
            u = fd_linear(cfg, k, GridFunction(xs, g), c_shift)
            errs.append(float(np.max(np.abs(u.values - np.cos(xs)))))
        # the n = 401 value is the solve refined with long-double residuals:
        # at that size LU roundoff can move the error by 2e-12, more than
        # the relative 1e-6 allows
        expected = [1.0984293979054982e-05, 2.7797979865740174e-06,
                    6.9915676271e-07]
        for e, ref in zip(errs, expected):
            assert e == pytest.approx(ref, rel=1e-6)
        assert 3.4 <= errs[0] / errs[1] <= 4.6
        assert 3.4 <= errs[1] / errs[2] <= 4.6

    def test_agrees_with_quadrature_solver(self):
        xs = np.linspace(0.0, 1.0, 1001)
        g = GridFunction(xs, 1.0 + xs)
        u_fd = fd_linear(CFG1, 0.49, g, 0.0)
        u_q, _ = get_solver(CFG1, ShiftedOperator(0.49), xs).solve(g.values)
        diff = float(np.max(np.abs(u_fd.values - u_q)))
        assert diff <= 1e-4
        assert diff == pytest.approx(2.5888066579327074e-07, rel=1e-3)

    def test_needs_boundary_points_on_grid(self):
        xs = np.linspace(0.0, 1.0, 100)  # 0.1 is not a node
        with pytest.raises(ValidationError):
            fd_linear(CFG1, 0.49, GridFunction(xs, np.ones_like(xs)), 0.0)

    def test_boundary_rows_encode_couplings(self):
        xs = np.linspace(0.0, 1.0, 101)
        k = 0.49
        system, rhs = build_fd_system(CFG1, k, GridFunction(xs, np.ones_like(xs)), 0.25)
        m = densify(system)
        h = xs[1] - xs[0]
        # one-sided derivative stencils on the boundary rows
        assert m[0, 0] == pytest.approx(-1.5 / h)
        assert m[0, 1] == pytest.approx(2.0 / h)
        assert m[0, 2] == pytest.approx(-0.5 / h)
        assert m[-1, -1] == pytest.approx(1.5 / h)
        assert m[-1, -2] == pytest.approx(-2.0 / h)
        assert m[-1, -3] == pytest.approx(0.5 / h)
        # couplings land on the xi and eta columns
        assert m[0, 10] == pytest.approx(-CFG1.lambda1)
        assert m[-1, 20] == pytest.approx(-CFG1.lambda2)
        # interior three-point rows
        assert m[50, 49] == pytest.approx(-1.0 / h ** 2)
        assert m[50, 50] == pytest.approx(2.0 / h ** 2 - k)
        assert m[50, 51] == pytest.approx(-1.0 / h ** 2)
        assert rhs[0] == 0.0
        assert rhs[-1] == 0.25


class TestBorderedSolve:
    """The O(n) solve against LAPACK's dense LU of the same matrix."""

    # k away from 0, where both configs resonate and the condition number
    # grows like 1/|k| (4e6 at k = -0.01, n = 101)
    CASES = [(cfg, k, n) for cfg, ks in ((CFG1, (0.49, 2.4)),
                                         (CFG2, (-2.0, -10.0, -1000.0)))
             for k in ks for n in (5, 21, 101)]

    @staticmethod
    def _check(system, rhs):
        got = _factor_checked(system, "test system")(rhs)
        want = np.linalg.solve(densify(system), rhs)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("cfg, k, n", CASES)
    def test_linear_system(self, cfg, k, n):
        nodes = build_grid(n, cfg.xi, cfg.eta)
        g = GridFunction(nodes, 1.0 + nodes + np.sin(7.0 * nodes))
        self._check(*build_fd_system(cfg, k, g, 0.3))

    @pytest.mark.parametrize("n", [5, 21, 101])
    def test_inserted_node(self, n):
        cfg = BoundaryConfig(0.123, 0.3, 0.25, 1.0 / 9.0)
        nodes = build_grid(n, cfg.xi, cfg.eta)
        assert nodes.size == n + 1 and 0.123 in nodes
        g = GridFunction(nodes, np.cos(3.0 * nodes))
        self._check(*build_fd_system(cfg, -2.0, g, -0.4))

    @pytest.mark.parametrize("cfg", [CFG1, CFG2])
    @pytest.mark.parametrize("n", [5, 21, 101])
    def test_newton_jacobian(self, cfg, n):
        # the shape fd_nonlinear factors: diag and slope vary per interior
        # node, and the rows are scaled by h^2 (h on the boundary rows)
        nodes = build_grid(n, cfg.xi, cfg.eta)
        x_in = nodes[1:-1]
        gaps = np.diff(nodes)
        scale = np.r_[gaps[0], gaps[:-1] * gaps[1:], gaps[-1]]
        system = _assemble(cfg, nodes, _stencils(nodes), 0.3 * np.cos(x_in) - 1.0,
                           2.0 * x_in - 0.5, scale)
        self._check(system, np.sin(5.0 * nodes) + 0.2)


class TestFdNonlinear:
    def test_reverse_example_endpoints(self, ex1_problem):
        u = fd_nonlinear(ex1_problem, n=201)
        assert u.values[0] == pytest.approx(-0.00114917, abs=1e-5)
        assert u.values[-1] == pytest.approx(-0.00579105, abs=1e-5)

    def test_well_example_endpoints(self, ex2_problem):
        u = fd_nonlinear(ex2_problem, n=201)
        assert u.values[0] == pytest.approx(-0.02042537, abs=1e-5)
        assert u.values[-1] == pytest.approx(-0.02477419, abs=1e-5)

    def test_solution_stays_in_bracket(self, ex1_problem, ex2_problem):
        for problem in (ex1_problem, ex2_problem):
            u = fd_nonlinear(problem, n=201)
            c0, _ = problem.initial_lower(u.nodes)
            d0, _ = problem.initial_upper(u.nodes)
            lo = np.minimum(c0, d0)
            hi = np.maximum(c0, d0)
            assert np.all(u.values >= lo - 1e-6)
            assert np.all(u.values <= hi + 1e-6)

    def test_matches_monotone_limits(self, trace_ex1, trace_ex2,
                                     ex1_problem, ex2_problem):
        for problem, trace in ((ex1_problem, trace_ex1),
                               (ex2_problem, trace_ex2)):
            u_fd = fd_nonlinear(problem, n=201)
            u_mono, _ = trace.limit_lower()
            # x = 0.01 m is node 2m on the oracle grid and 5m on the
            # iteration grid; compare without interpolating
            m = np.arange(101)
            diff = np.abs(u_fd.values[2 * m] - u_mono.values[5 * m])
            assert float(np.max(diff)) <= 1e-4

    def test_runs_on_build_grid_nodes(self, ex1_problem, trace_ex1):
        # 0.1 and 0.2 are not nodes of linspace(0, 1, 200): build_grid
        # moves the nearest nodes onto them and the oracle works on that
        # non-uniform grid
        u = fd_nonlinear(ex1_problem, n=200)
        assert np.array_equal(u.nodes, build_grid(200, 0.1, 0.2))
        assert u.nodes.size == 200
        u_mono, _ = trace_ex1.limit_lower()
        diff = np.abs(np.interp(u.nodes, u_mono.nodes, u_mono.values) - u.values)
        assert float(np.max(diff)) <= 1e-4

    def test_singular_linearization_reported(self):
        # -u'' = 0 with zero couplings admits all constants; the Jacobian
        # must be flagged as singular, not silently solved
        cfg = BoundaryConfig(0.1, 0.2, 0.0, 0.0)
        problem = NonlinearProblem(
            psi=parse_expression("0"),
            config=cfg,
            lower0=parse_expression("1"),
            upper0=parse_expression("-1"),
            ordering="reverse",
        )
        with pytest.raises(OracleError, match="zero pivot"):
            fd_nonlinear(problem, n=201)

    def test_divergent_newton_reports(self):
        # an iteration forced far outside the bracket trips the inflation
        # guard or the stagnation guard, never returns garbage
        problem = NonlinearProblem(
            psi=parse_expression("exp(10*u)"),
            config=CFG1,
            lower0=parse_expression("0.001"),
            upper0=parse_expression("-0.001"),
            ordering="reverse",
        )
        try:
            u = fd_nonlinear(problem, n=101)
        except OracleError:
            return
        # if Newton did land, the result must at least be finite and small
        assert np.all(np.isfinite(u.values))
