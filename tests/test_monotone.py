import numpy as np
import pytest

from mibvp.errors import DivergenceError, NumericalError, ValidationError
from mibvp.expressions import parse_expression
from mibvp.kernel import BoundaryConfig, ShiftedOperator
from mibvp.linear_bvp import GridFunction, build_grid, get_solver
from mibvp.monotone import (NonlinearProblem, iterate_once, run,
                            verify_initial_bracket)
from mibvp.oracle import fd_nonlinear

CFG1 = BoundaryConfig(0.1, 0.2, 2.0, 3.0)
CFG2 = BoundaryConfig(0.2, 0.3, 0.25, 1.0 / 9.0)


def _toy_problem(**overrides):
    fields = dict(
        psi=parse_expression("u/10"),
        config=CFG1,
        lower0=parse_expression("1 + x"),
        upper0=parse_expression("-1 - x"),
        ordering="reverse",
    )
    fields.update(overrides)
    return NonlinearProblem(**fields)


class TestNonlinearProblem:
    def test_bad_ordering(self):
        with pytest.raises(ValidationError):
            _toy_problem(ordering="sideways")

    def test_psi_variable_set(self):
        with pytest.raises(ValidationError):
            _toy_problem(psi=parse_expression("s + u"))

    def test_initial_profiles_must_be_closed_forms(self):
        with pytest.raises(ValidationError):
            _toy_problem(lower0=parse_expression("x + u"))
        with pytest.raises(ValidationError):
            _toy_problem(upper0=parse_expression("up"))

    def test_initial_sampling(self):
        p = _toy_problem()
        xs = build_grid(11, 0.1, 0.2)
        u, du = p.initial_lower(xs)
        assert np.allclose(u, 1 + xs)
        assert np.allclose(du, 1.0)
        v, dv = p.initial_upper(xs)
        assert np.allclose(v, -1 - xs)
        assert np.allclose(dv, -1.0)


class TestVerifyInitialBracket:
    def test_reverse_example(self, ex1_problem):
        report = verify_initial_bracket(ex1_problem, k=0.49)
        assert report.ok is True
        ids = [c.cid for c in report.checks]
        assert ids == ["lower-interior", "lower-bc0", "lower-bc1",
                       "upper-interior", "upper-bc0", "upper-bc1",
                       "ordering", "cross"]
        assert abs(report.check("lower-bc0").margin) <= 1e-12
        assert report.check("cross").margin >= -1e-9

    def test_well_example(self, ex2_problem):
        report = verify_initial_bracket(ex2_problem, k=-2.0)
        assert report.ok is True

    def test_no_cross_check_without_k(self, ex1_problem):
        report = verify_initial_bracket(ex1_problem)
        assert "cross" not in [c.cid for c in report.checks]
        assert report.ok is True

    def test_degenerate_bracket_sits_on_the_boundary(self):
        # psi = -2 makes c = d = 0.945 + 2.3875 x + x^2 an exact solution,
        # so every inequality holds with zero slack
        expr = parse_expression("0.945 + 2.3875*x + x^2")
        p = _toy_problem(psi=parse_expression("-2"), lower0=expr, upper0=expr)
        report = verify_initial_bracket(p, k=0.49)
        assert report.ok is True
        for chk in report.checks:
            assert abs(chk.margin) <= 1e-12, chk.cid

    def test_swapped_bracket_fails(self, ex1_config):
        from mibvp.problems import build_problem
        problem = build_problem(ex1_config)
        swapped = NonlinearProblem(
            psi=problem.psi, config=problem.config,
            lower0=problem.upper0, upper0=problem.lower0,
            ordering="reverse")
        report = verify_initial_bracket(swapped, k=0.49)
        assert report.ok is False
        assert report.check("ordering").ok is False

    def test_report_shapes(self, ex1_problem):
        report = verify_initial_bracket(ex1_problem, k=0.49)
        d = report.to_dict()
        assert d["ok"] is True
        assert all(set(c) == {"id", "ok", "margin"} for c in d["checks"])
        with pytest.raises(KeyError):
            report.check("nope")


class TestIterateOnce:
    def test_oracle_solution_is_nearly_fixed(self, ex1_problem):
        u = fd_nonlinear(ex1_problem, n=1001)
        du = np.gradient(u.values, u.nodes, edge_order=2)
        solver = get_solver(CFG1, ShiftedOperator(0.49), u.nodes)
        u1, _ = iterate_once(ex1_problem, solver, u.values, du)
        assert float(np.max(np.abs(u1 - u.values))) <= 1e-5

    def test_limit_is_fixed_point(self, trace_ex1, ex1_problem):
        u, du = trace_ex1.limit_lower()
        solver = get_solver(CFG1, ShiftedOperator(0.49), u.nodes)
        u1, _ = iterate_once(ex1_problem, solver, u.values, du.values)
        assert float(np.max(np.abs(u1 - u.values))) <= 1e-7

    def test_first_step_decreases_reverse(self, ex1_problem):
        xs = build_grid(501, 0.1, 0.2)
        c0, dc0 = ex1_problem.initial_lower(xs)
        solver = get_solver(CFG1, ShiftedOperator(0.49), xs)
        c1, _ = iterate_once(ex1_problem, solver, c0, dc0)
        assert np.all(c1 <= c0 + 1e-9)

    def test_first_step_increases_well(self, ex2_problem):
        xs = build_grid(501, 0.2, 0.3)
        c0, dc0 = ex2_problem.initial_lower(xs)
        solver = get_solver(CFG2, ShiftedOperator(-2.0), xs)
        c1, _ = iterate_once(ex2_problem, solver, c0, dc0)
        assert np.all(c1 >= c0 - 1e-9)

    def test_stack_matches_single_rows(self, ex2_problem):
        xs = build_grid(101, 0.2, 0.3)
        solver = get_solver(CFG2, ShiftedOperator(-2.0), xs)
        pairs = [ex2_problem.initial_lower(xs), ex2_problem.initial_upper(xs)]
        u, du = np.array(pairs).transpose(1, 0, 2)
        u1, du1 = iterate_once(ex2_problem, solver, u, du)
        assert u1.shape == du1.shape == (2, xs.size)
        for row, (v, dv) in enumerate(pairs):
            v1, dv1 = iterate_once(ex2_problem, solver, v, dv)
            assert np.array_equal(u1[row], v1)
            assert np.array_equal(du1[row], dv1)

    def test_returns_separate_contiguous_arrays(self, ex2_problem):
        # a kept level's u must not pin that step's u'
        xs = build_grid(101, 0.2, 0.3)
        solver = get_solver(CFG2, ShiftedOperator(-2.0), xs)
        pairs = [ex2_problem.initial_lower(xs), ex2_problem.initial_upper(xs)]
        for u, du in (np.array(pairs).transpose(1, 0, 2), pairs[0]):
            u1, du1 = iterate_once(ex2_problem, solver, u, du)
            assert not np.shares_memory(u1, du1)
            assert u1.flags.c_contiguous and du1.flags.c_contiguous

    def test_non_finite_source(self):
        p = _toy_problem(psi=parse_expression("ln(u)"), config=CFG2)
        xs = build_grid(101, 0.2, 0.3)
        solver = get_solver(CFG2, ShiftedOperator(-2.0), xs)
        with pytest.raises(NumericalError):
            iterate_once(p, solver, -np.ones_like(xs), np.zeros_like(xs))


class TestRunReverse:
    def test_converges_with_all_flags(self, trace_ex1):
        t = trace_ex1
        assert t.converged is True
        assert t.diverged is False
        assert t.iterations == 21
        assert all(t.monotone_lower)
        assert all(t.monotone_upper)
        assert all(t.ordered)
        assert t.final_residual <= 1e-7
        for r in t.boundary_residual_lower + t.boundary_residual_upper:
            assert abs(r) <= 1e-8
        assert t.gaps[-1] <= 1e-6

    @pytest.mark.parametrize("grid_n, size", [
        pytest.param(500, 500, id="500"), pytest.param(502, 502, id="502"),
        pytest.param(1000, 1000, id="1000"), pytest.param(504, 506, id="504")])
    def test_converges_with_inserted_nodes(self, ex1_problem, grid_n, size):
        # xi and eta are not nodes of linspace(0, 1, grid_n): build_grid moves
        # the nearest node onto each within h/4 (500, 502, 1000) and inserts
        # them otherwise (504); the residual must not blow up next to them
        t = run(ex1_problem, 0.49, max_iter=300, tol=1e-8, grid_n=grid_n)
        assert t.nodes.size == size
        assert t.converged is True
        assert t.iterations == 21
        assert t.final_residual <= 1e-8

    def test_limit_value(self, trace_ex1):
        u, _ = trace_ex1.limit_lower()
        assert u.values[0] == pytest.approx(-0.00114916, abs=1e-6)
        v, _ = trace_ex1.iterates_upper[-1]
        assert float(np.max(np.abs(u.values - v))) <= 1e-6

    def test_no_derivative_flags_without_a_bound(self, trace_ex1):
        # the reverse example has no certified derivative bound
        assert trace_ex1.derivative_bound_lower is None
        assert trace_ex1.derivative_bound_upper is None


class TestRunWell:
    def test_converges_with_all_flags(self, trace_ex2):
        t = trace_ex2
        assert t.converged is True
        assert t.iterations == 232
        assert all(t.monotone_lower)
        assert all(t.monotone_upper)
        assert all(t.ordered)

    def test_converges_with_inserted_nodes(self, ex2_problem):
        # at grid_n = 500 a node moves onto xi = 0.2 and eta = 0.3 is inserted
        t = run(ex2_problem, -2.0, max_iter=1500, tol=1e-8, grid_n=500)
        assert t.nodes.size == 501
        assert t.converged is True
        assert t.iterations == 232
        assert t.final_residual <= 1e-7

    def test_limit_value(self, trace_ex2):
        u, _ = trace_ex2.limit_lower()
        assert u.values[0] == pytest.approx(-0.0204249, abs=1e-6)

    def test_derivative_flags_tracked(self, trace_ex2):
        t = trace_ex2
        assert t.derivative_bound_lower is not None
        assert len(t.derivative_bound_lower) == t.iterations
        assert all(t.derivative_bound_lower)
        assert all(t.derivative_bound_upper)


class TestRunControl:
    def test_divergence_raises_with_trace(self):
        p = _toy_problem(psi=parse_expression("200*u"),
                         lower0=parse_expression("1"),
                         upper0=parse_expression("-1"))
        with pytest.raises(DivergenceError) as exc:
            run(p, 0.49, max_iter=100, tol=1e-8, grid_n=201)
        trace = exc.value.trace
        assert trace.diverged is True
        assert trace.iterations >= 1

    def test_iteration_budget_exhausted_quietly(self, ex1_problem):
        t = run(ex1_problem, 0.49, max_iter=3, tol=1e-8, grid_n=201)
        assert t.converged is False
        assert t.diverged is False
        assert t.iterations == 3

    def test_validation(self, ex1_problem, ex2_problem):
        with pytest.raises(ValidationError):
            run(ex1_problem, 0.49, max_iter=0, tol=1e-8)
        with pytest.raises(ValidationError):
            run(ex1_problem, 0.49, max_iter=10, tol=0.0)
        with pytest.raises(ValidationError):
            run(ex1_problem, 0.49, max_iter=10, tol=-1e-8)
        with pytest.raises(ValidationError):
            run(ex1_problem, 0.49, max_iter=10, tol=float("inf"))
        # a shift of the wrong sign for the ordering is refused before any
        # step, not left to the divergence check
        with pytest.raises(ValidationError, match="reverse-ordered bracket needs k > 0"):
            run(ex1_problem, -2.0, max_iter=10, tol=1e-8, grid_n=201)
        with pytest.raises(ValidationError, match="well-ordered bracket needs k < 0"):
            run(ex2_problem, 0.5, max_iter=10, tol=1e-8, grid_n=201)


@pytest.fixture(scope="module")
def levels_ex1(ex1_problem):
    """The example1 run of trace_ex1, with every level gathered by on_level."""
    levels = []
    trace = run(ex1_problem, 0.49, max_iter=300, tol=1e-8, grid_n=501,
                on_level=levels.append)
    return trace, levels


class TestTraceInvariants:
    def test_list_lengths(self, levels_ex1):
        t, levels = levels_ex1
        n = t.iterations
        assert len(levels) == n + 1
        assert all(u.shape == (2, 501) for u in levels)
        assert len(t.gaps) == n + 1
        assert len(t.ordered) == n + 1
        assert len(t.step_moves_lower) == n
        assert len(t.step_moves_upper) == n
        assert len(t.monotone_lower) == n
        assert len(t.monotone_upper) == n

    def test_flags_recomputable_from_iterates(self, levels_ex1):
        t, levels = levels_ex1
        for i in range(t.iterations):
            u_prev = levels[i][0]
            u_next = levels[i + 1][0]
            assert t.monotone_lower[i] == bool(np.all(u_next <= u_prev + 1e-9))
            assert t.step_moves_lower[i] == pytest.approx(
                float(np.max(np.abs(u_next - u_prev))), rel=1e-12)
        for i in range(t.iterations + 1):
            c, d = levels[i]
            assert t.gaps[i] == pytest.approx(float(np.max(np.abs(c - d))), rel=1e-12)
            assert t.ordered[i] == bool(np.all(c >= d - 1e-9))

    def test_keeps_the_last_level_only(self, ex2_problem):
        t = run(ex2_problem, -10.0, max_iter=1500, tol=1e-8, grid_n=201)
        assert t.iterations > 1
        assert len(t.iterates_lower) == len(t.iterates_upper) == 1
        assert all(v.shape == (201,) for v in t.iterates_lower[0] + t.iterates_upper[0])

    def test_on_level_sees_every_level(self, ex2_problem):
        levels = []
        t = run(ex2_problem, -10.0, max_iter=1500, tol=1e-8, grid_n=201,
                on_level=levels.append)
        assert len(levels) == t.iterations + 1
        assert np.array_equal(levels[-1][0], t.iterates_lower[-1][0])
        assert np.array_equal(levels[-1][1], t.iterates_upper[-1][0])
        plain = run(ex2_problem, -10.0, max_iter=1500, tol=1e-8, grid_n=201)
        assert np.array_equal(levels[-1], [plain.iterates_lower[-1][0],
                                           plain.iterates_upper[-1][0]])

    def test_to_dict_shape(self, trace_ex1):
        d = trace_ex1.to_dict()
        expected = {
            "k", "iterations", "converged", "diverged", "grid_n", "gaps",
            "step_moves_lower", "step_moves_upper", "monotone_lower",
            "monotone_upper", "ordered", "derivative_bound_lower",
            "derivative_bound_upper", "final_residual", "residual_lower",
            "residual_upper", "boundary_residual_lower",
            "boundary_residual_upper",
        }
        assert set(d) == expected
        assert d["grid_n"] == 501
        assert isinstance(d["converged"], bool)

    def test_limits_are_grid_functions(self, trace_ex1):
        u, du = trace_ex1.limit_lower()
        assert isinstance(u, GridFunction) and isinstance(du, GridFunction)
        assert u.nodes.size == 501
