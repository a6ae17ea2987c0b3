"""Acceptance criteria, one test per criterion.

Each test prints one CRITERION line with the measured values before
asserting, so a -v run reads as a checklist. Tolerances are pinned; the
random-data criteria use fixed seeds. Criterion 7's off-diagonal slope
clause asserts the stated bound literally and is expected to fail: above
the diagonal the kernel slope is positive over most of the region (see
test_kernel.py::TestDxSignCheck), so the certificate cannot hold as
written. The test documents that honestly instead of weakening the bound.
"""
import math
import time

import numpy as np
import pytest

from mibvp.admissibility import (check_negative_k, estimate_l1, nagumo_bound,
                                 scan_k, sign_table)
from mibvp.kernel import (PI2_OVER_4, ShiftedOperator, kernel_functions)
from mibvp.linear_bvp import GridFunction, build_grid, get_solver
from mibvp.monotone import run
from mibvp.oracle import fd_linear, fd_nonlinear
from mibvp.problems import EXAMPLE1, EXAMPLE2


def test_criterion_01_one_sided_lipschitz_estimates(ex1_problem, ex2_problem):
    t0 = time.perf_counter()
    l1_reverse = estimate_l1(ex1_problem)
    t1 = time.perf_counter() - t0
    t0 = time.perf_counter()
    l1_well = estimate_l1(ex2_problem)
    t2 = time.perf_counter() - t0
    ref_reverse = math.exp(4.525) / 195.0
    ref_well = (math.e - 1.0) / 40.0
    ok = (abs(l1_reverse - ref_reverse) <= 1e-3
          and abs(l1_well - ref_well) <= 1e-4
          and t1 < 1.0 and t2 < 1.0)
    print("CRITERION 1: %s - reverse L1 %.6f (ref %.6f, %.3fs), "
          "well L1 %.6f (ref %.6f, %.3fs)"
          % ("PASS" if ok else "FAIL", l1_reverse, ref_reverse, t1,
             l1_well, ref_well, t2))
    assert abs(l1_reverse - ref_reverse) <= 1e-3
    assert abs(l1_well - ref_well) <= 1e-4
    assert t1 < 1.0 and t2 < 1.0


def test_criterion_02_combined_bound_and_scan_endpoint(ex2_problem):
    t0 = time.perf_counter()
    report = check_negative_k(ex2_problem.config, -2.0, ex2_problem.lip)
    sup_term = report.extras["a2_sup_term"]
    intervals = scan_k(ex2_problem.config, ex2_problem.lip, "negative",
                       -10.0, -0.01, 400)
    elapsed = time.perf_counter() - t0
    hi = intervals[0][1]
    ok = (abs(sup_term - 1.447171) <= 1e-3
          and abs(hi - (-1.4472)) <= 1e-3 and elapsed < 5.0)
    print("CRITERION 2: %s - combined-bound sup term %.6f (ref 1.447171), "
          "admissible interval upper endpoint %.6f (ref -1.4472), %.3fs"
          % ("PASS" if ok else "FAIL", sup_term, hi, elapsed))
    assert abs(sup_term - 1.447171) <= 1e-3
    assert abs(hi - (-1.4472)) <= 1e-3
    assert elapsed < 5.0


def test_criterion_03_positive_scan_onset(ex1_problem):
    t0 = time.perf_counter()
    intervals = scan_k(ex1_problem.config, ex1_problem.lip, "positive",
                       1e-3, PI2_OVER_4 * 0.9999, 1000)
    elapsed = time.perf_counter() - t0
    lo = intervals[0][0]
    ok = abs(lo - 0.4811) <= 0.01 and elapsed < 5.0
    print("CRITERION 3: %s - positive-regime admissibility onset %.5f "
          "(ref 0.4811 +- 0.01), %.3fs"
          % ("PASS" if ok else "FAIL", lo, elapsed))
    assert len(intervals) == 1
    assert abs(lo - 0.4811) <= 0.01
    assert elapsed < 5.0


def test_criterion_04_reverse_iteration_converges(ex1_problem):
    results = []
    for k in (0.49, 1.0, 2.3):
        t0 = time.perf_counter()
        trace = run(ex1_problem, k, max_iter=300, tol=1e-8, grid_n=501)
        elapsed = time.perf_counter() - t0
        flags = (trace.converged and all(trace.monotone_lower)
                 and all(trace.monotone_upper) and all(trace.ordered))
        results.append((k, trace.iterations, flags, elapsed))
    ok = all(f and n <= 200 and dt < 30.0 for _, n, f, dt in results)
    print("CRITERION 4: %s - %s"
          % ("PASS" if ok else "FAIL",
             "; ".join("k=%g: %d iterations, flags %s, %.2fs"
                       % (k, n, f, dt) for k, n, f, dt in results)))
    for k, n, flags, elapsed in results:
        assert flags, "k=%g" % k
        assert n <= 200, "k=%g" % k
        assert elapsed < 30.0, "k=%g" % k


def test_criterion_05_well_iteration_converges(ex2_problem):
    results = []
    for k in (-1.0698, -4.0, -5.0):
        t0 = time.perf_counter()
        trace = run(ex2_problem, k, max_iter=1500, tol=1e-8, grid_n=501)
        elapsed = time.perf_counter() - t0
        flags = (trace.converged and all(trace.monotone_lower)
                 and all(trace.monotone_upper) and all(trace.ordered))
        results.append((k, trace.iterations, flags, elapsed))
    ok = all(f and dt < 30.0 for _, n, f, dt in results)
    print("CRITERION 5: %s - %s"
          % ("PASS" if ok else "FAIL",
             "; ".join("k=%g: %d iterations, flags %s, %.2fs"
                       % (k, n, f, dt) for k, n, f, dt in results)))
    for k, n, flags, elapsed in results:
        assert flags, "k=%g" % k
        assert elapsed < 30.0, "k=%g" % k


def test_criterion_06_linear_solver_random_data(ex1_problem, ex2_problem):
    rng = np.random.default_rng(12345)
    worst_res = 0.0
    worst_fd = 0.0
    cases = [(p.config, k, get_solver(p.config, ShiftedOperator(k),
                                      build_grid(1001, p.config.xi, p.config.eta)))
             for p, k in ((ex1_problem, 0.49), (ex2_problem, -2.0))]
    for i in range(20):
        cfg, k, solver = cases[i % 2]
        xs = solver.nodes
        a = rng.uniform(-2.0, 2.0, size=5)
        g = (a[0] + a[1] * xs + a[2] * xs ** 2
             + a[3] * np.sin(3 * xs) + a[4] * np.cos(2 * xs))
        v, _ = solver.solve(g)
        h = xs[1] - xs[0]
        upp = (-v[:-4] + 16 * v[1:-3] - 30 * v[2:-2] + 16 * v[3:-1] - v[4:]) \
            / (12 * h * h)
        res = float(np.max(np.abs(-upp - k * v[2:-2] - g[2:-2])))
        u_fd = fd_linear(cfg, k, GridFunction(xs, g), 0.0)
        fd_diff = float(np.max(np.abs(v - u_fd.values)))
        worst_res = max(worst_res, res)
        worst_fd = max(worst_fd, fd_diff)
    ok = worst_res <= 1e-5 and worst_fd <= 1e-4
    print("CRITERION 6: %s - 20 random sources, worst interior residual "
          "%.3e (<= 1e-5), worst difference against the finite-difference "
          "oracle %.3e (<= 1e-4)" % ("PASS" if ok else "FAIL", worst_res, worst_fd))
    assert worst_res <= 1e-5
    assert worst_fd <= 1e-4


def test_criterion_07_kernel_sign_certificates(ex1_problem, ex2_problem):
    pts = np.linspace(0.0, 1.0, 101)
    X, S = pts[:, None], pts[None, :]
    fns1 = kernel_functions(ex1_problem.config, ShiftedOperator(0.49))
    min_pos = float(np.min(fns1.value(X, S)))
    max_neg = -np.inf
    max_slope = -np.inf
    for k in (-2.0, -4.0):
        fns = kernel_functions(ex2_problem.config, ShiftedOperator(k))
        max_neg = max(max_neg, float(np.max(fns.value(X, S))))
        d = fns.dvalue_dx(X, S)
        max_slope = max(
            max_slope,
            float(np.max(np.where(X < S, d, -np.inf))),
            float(np.max(np.where(X > S, d, -np.inf))))
    ok = min_pos >= -1e-12 and max_neg <= 1e-12 and max_slope <= 1e-10
    print("CRITERION 7: %s - positive-regime kernel min %.3e (>= -1e-12), "
          "negative-regime kernel max %.3e (<= 1e-12), off-diagonal slope "
          "max %.4f (<= 1e-10; holds below the diagonal only, so this "
          "clause fails as stated)"
          % ("PASS" if ok else "FAIL", min_pos, max_neg, max_slope))
    assert min_pos >= -1e-12
    assert max_neg <= 1e-12
    assert max_slope <= 1e-10


def test_criterion_08_sign_principles_random_data(ex1_problem, ex2_problem):
    rng = np.random.default_rng(2718)
    worst_pos = -np.inf
    worst_neg = np.inf
    cases = [(k, get_solver(p.config, ShiftedOperator(k),
                            build_grid(501, p.config.xi, p.config.eta)))
             for p, k in ((ex1_problem, 0.49), (ex2_problem, -2.0))]
    for i in range(10):
        k, solver = cases[i % 2]
        xs = solver.nodes
        a = np.abs(rng.uniform(0.0, 2.0, size=4))
        g = a[0] + a[1] * xs + a[2] * xs ** 2
        u, _ = solver.solve(g, float(a[3]))
        if k > 0:
            worst_pos = max(worst_pos, float(np.max(u)))
        else:
            worst_neg = min(worst_neg, float(np.min(u)))
    ok = worst_pos <= 1e-10 and worst_neg >= -1e-10
    print("CRITERION 8: %s - 10 random nonnegative sources: positive-regime "
          "max %.3e (<= 1e-10), negative-regime min %.3e (>= -1e-10)"
          % ("PASS" if ok else "FAIL", worst_pos, worst_neg))
    assert worst_pos <= 1e-10
    assert worst_neg >= -1e-10


def test_criterion_09_iteration_limits_match_oracle(trace_ex1, trace_ex2,
                                                    ex1_problem, ex2_problem):
    diffs = {}
    for label, problem, trace in (("reverse", ex1_problem, trace_ex1),
                                  ("well", ex2_problem, trace_ex2)):
        u_fd = fd_nonlinear(problem, n=201)
        u_mono, _ = trace.limit_lower()
        m = np.arange(101)
        diffs[label] = float(np.max(np.abs(
            u_fd.values[2 * m] - u_mono.values[5 * m])))
    ok = all(d <= 1e-4 for d in diffs.values())
    print("CRITERION 9: %s - monotone limit vs independent Newton oracle: "
          "reverse %.3e, well %.3e (both <= 1e-4)"
          % ("PASS" if ok else "FAIL", diffs["reverse"], diffs["well"]))
    for label, d in diffs.items():
        assert d <= 1e-4, label


def test_criterion_10_certification_summary(ex1_problem, ex2_problem):
    nag2 = nagumo_bound(ex2_problem)
    a, b = 0.042957, 2.65
    closed = math.sqrt((nag2.gamma ** 2 + b) * math.exp(2 * a * nag2.diameter) - b)
    nag1 = nagumo_bound(ex1_problem)

    pos_rows = {r["id"]: r for r in sign_table(
        ex1_problem.config, ex1_problem.lip, "positive",
        1e-3, PI2_OVER_4 * 0.9999)}
    neg_rows = {r["id"]: r for r in sign_table(
        ex2_problem.config, ex2_problem.lip, "negative", -10.0, -0.01)}
    crossings = {rid: row["crossings"]
                 for rid, row in list(pos_rows.items()) + list(neg_rows.items())}
    expected_crossings = {"L34a-sup": 2, "A1-3": 0, "A1-2": 1, "Dk": 0,
                          "A'1-1-endpoint": 0, "A'1-2": 1, "A'1-3": 1}
    single = {rid: (pos_rows | neg_rows)[rid]["first_crossing"]
              for rid, n in expected_crossings.items() if n == 1}

    # the documented problem constants live in the bundled configs
    dev_constant_well = "5.868826" in EXAMPLE2["lipschitz"]["L2"]
    dev_constant_reverse = "0.2154" in EXAMPLE1["lipschitz"]["L2"]

    ok = (nag2.success and abs(nag2.P - 5.98) <= 0.02
          and abs(nag2.P - closed) <= 1e-6
          and not nag1.success and nag1.P is None and nag1.tail > 0
          and crossings == expected_crossings
          and all(v is not None for v in single.values())
          and dev_constant_well and dev_constant_reverse)
    print("CRITERION 10: %s - derivative bound P=%.6f (closed form %.6f, "
          "ref 5.98 +- 0.02; the bundled config documents 5.868826, logged "
          "as a deviation); reverse-example majorant fails with tail %.6f "
          "(config documents 0.2154, logged as a deviation); sign-table "
          "crossings %s; single-crossing positions %s"
          % ("PASS" if ok else "FAIL", nag2.P, closed, nag1.tail,
             crossings, {k: round(v, 6) for k, v in single.items()}))
    assert nag2.success is True
    assert abs(nag2.P - 5.98) <= 0.02
    assert abs(nag2.P - closed) <= 1e-6
    assert nag1.success is False and nag1.P is None
    assert nag1.tail == pytest.approx(0.2289, abs=1e-3)
    assert crossings == expected_crossings
    assert all(v is not None for v in single.values())
    assert dev_constant_well and dev_constant_reverse
