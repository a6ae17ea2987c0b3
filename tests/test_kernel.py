import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mibvp.errors import DegenerateKernelError, ValidationError
from mibvp.kernel import (PI2_OVER_4, BoundaryConfig, Regime, ShiftedOperator,
                          green_dx_sign_check, green_eval, kernel_functions,
                          normalization, normalization_value)
from mibvp.linear_bvp import build_grid, get_solver
from mibvp.problems import EXAMPLE1, EXAMPLE2

CFG1 = BoundaryConfig(0.1, 0.2, 2.0, 3.0)
CFG2 = BoundaryConfig(0.2, 0.3, 0.25, 1.0 / 9.0)
OP1 = ShiftedOperator(0.49)
OP2 = ShiftedOperator(-2.0)


@pytest.mark.parametrize("args", [
    (0.0, 0.2, 1.0, 1.0),     # xi must be > 0
    (0.3, 0.2, 1.0, 1.0),     # xi <= eta
    (0.2, 1.0, 1.0, 1.0),     # eta < 1
    (0.2, 0.3, -1.0, 1.0),    # lambda1 >= 0
    (0.2, 0.3, 1.0, -0.5),    # lambda2 >= 0
    (0.2, 0.3, float("nan"), 1.0),
])
def test_boundary_config_validation(args):
    with pytest.raises(ValidationError):
        BoundaryConfig(*args)


def test_boundary_config_xi_eta_equal_allowed():
    cfg = BoundaryConfig(0.3, 0.3, 1.0, 1.0)
    assert cfg.xi == cfg.eta


@pytest.mark.parametrize("k", [0.0, PI2_OVER_4, 3.0, 10.0, float("nan"), float("inf")])
def test_shifted_operator_rejects_out_of_regime(k):
    with pytest.raises(ValidationError):
        ShiftedOperator(k)


def test_shifted_operator_regimes_and_roots():
    assert OP1.regime is Regime.POSITIVE_K
    assert OP1.root == pytest.approx(0.7)
    assert OP2.regime is Regime.NEGATIVE_K
    assert OP2.root == pytest.approx(math.sqrt(2.0))
    # any k < 0 is allowed, including large magnitudes
    assert ShiftedOperator(-250.0).regime is Regime.NEGATIVE_K


class TestNormalization:
    def test_positive_frozen_value(self):
        assert normalization(CFG1, OP1) == pytest.approx(1.6835388311811905, rel=1e-12)

    def test_negative_frozen_value(self):
        assert normalization(CFG2, OP2) == pytest.approx(4.299718928080497, rel=1e-12)

    def test_positive_reduces_without_couplings(self):
        # with lambda1 = lambda2 = 0 the scalar collapses to k sin(sqrt k)
        cfg = BoundaryConfig(0.1, 0.2, 0.0, 0.0)
        for k in (0.3, 1.5, 2.4):
            expected = k * math.sin(math.sqrt(k))
            assert normalization(cfg, ShiftedOperator(k)) == pytest.approx(expected, rel=1e-13)

    def test_negative_reduces_without_couplings(self):
        # mirrored collapse: |k| sinh(sqrt|k|), via plain exponentials
        cfg = BoundaryConfig(0.1, 0.2, 0.0, 0.0)
        for k in (-0.5, -2.0, -7.0):
            t = math.sqrt(-k)
            expected = -k * (math.exp(t) - math.exp(-t)) / 2.0
            assert normalization(cfg, ShiftedOperator(k)) == pytest.approx(expected, rel=1e-13)

    def test_degenerate_normalization_raises(self):
        # with lambda2 = 0, xi = 0.1, k = 1 the scalar is
        # sin(1) - lambda1 cos(0.9); take its root and hit it
        lam_star = math.sin(1.0) / math.cos(0.9)
        cfg = BoundaryConfig(0.1, 0.2, lam_star, 0.0)
        assert abs(normalization_value(cfg, ShiftedOperator(1.0))) < 1e-12
        with pytest.raises(DegenerateKernelError):
            normalization(cfg, ShiftedOperator(1.0))
        with pytest.raises(DegenerateKernelError):
            green_eval(cfg, ShiftedOperator(1.0), 0.5, 0.5)
        with pytest.raises(DegenerateKernelError):
            kernel_functions(cfg, ShiftedOperator(1.0))
        with pytest.raises(DegenerateKernelError):
            get_solver(cfg, ShiftedOperator(1.0), build_grid(101, cfg.xi, cfg.eta))

    def test_tiny_shift_is_not_degenerate(self):
        # D = (k/sqrt|k|) W vanishes like sqrt|k| as k -> 0, but the divisor
        # W tends to lambda2 + lambda1 (lambda2 (eta - xi) - 1) = 1.6
        for k in (1e-26, -1e-26):
            op = ShiftedOperator(k)
            assert abs(normalization(CFG1, op)) == pytest.approx(1.6e-13, rel=1e-12)
            assert green_eval(CFG1, op, 0.3, 0.6).value == pytest.approx(0.875, rel=1e-12)

    def test_normalization_value_never_raises(self):
        cfg = BoundaryConfig(0.1, 0.2, math.sin(1.0) / math.cos(0.9), 0.0)
        val = normalization_value(cfg, ShiftedOperator(1.0))
        assert abs(val) < 1e-12


@pytest.mark.parametrize("cfg, op", [(CFG1, OP1), (CFG2, OP2),
                                     (CFG2, ShiftedOperator(-5.0)),
                                     (CFG1, ShiftedOperator(2.0)),
                                     (CFG2, ShiftedOperator(-50.0)),
                                     (CFG1, ShiftedOperator(-2.0)),
                                     (CFG2, ShiftedOperator(0.49)),
                                     (CFG2, ShiftedOperator(-500.0))])
class TestKernelStructure:
    def test_continuity_across_diagonal(self, cfg, op):
        # Richardson toward the diagonal from both sides
        fns = kernel_functions(cfg, op)
        for s in np.linspace(0.02, 0.98, 17):
            vals = {}
            for side in (-1.0, 1.0):
                f1 = fns.value(s + side * 1e-6, s)
                f2 = fns.value(s + side * 5e-7, s)
                vals[side] = 2 * f2 - f1
            assert vals[-1.0] == pytest.approx(vals[1.0], abs=1e-9)

    def test_branch_consistency_at_seams(self, cfg, op):
        # at s = xi, s = eta, and x = s the adjacent branch formulas agree
        fns = kernel_functions(cfg, op)
        eps = 1e-12
        for x in np.linspace(0.0, 1.0, 11):
            for seam in (cfg.xi, cfg.eta):
                left = fns.value(x, seam - eps)
                right = fns.value(x, seam + eps)
                assert left == pytest.approx(right, abs=1e-9)
        for s in np.linspace(0.05, 0.95, 7):
            below = fns.value(s, s)  # select picks the below branch at the tie
            above_branch = fns.value(np.nextafter(s, 1.0), s)
            assert below == pytest.approx(above_branch, abs=1e-9)

    def test_derivative_jump_is_one(self, cfg, op):
        # the limit of dG/dx from above at x = s is one more than the value there
        fns = kernel_functions(cfg, op)
        for s in np.linspace(0.03, 0.97, 19):
            jump = fns.dvalue_dx(np.nextafter(s, 1.0), s) - fns.dvalue_dx(s, s)
            assert float(jump) == pytest.approx(1.0, abs=1e-11)

    def test_boundary_identities(self, cfg, op):
        # G_x(0, s) = lambda1 G(xi, s) and G_x(1, s) = lambda2 G(eta, s)
        fns = kernel_functions(cfg, op)
        for s in np.linspace(0.01, 0.99, 23):
            gx0 = float(fns.dvalue_dx(0.0, s))
            assert gx0 == pytest.approx(cfg.lambda1 * float(fns.value(cfg.xi, s)),
                                        abs=1e-11)
            gx1 = float(fns.dvalue_dx(1.0, s))
            assert gx1 == pytest.approx(cfg.lambda2 * float(fns.value(cfg.eta, s)),
                                        abs=1e-11)

    def test_boundary_term_identities(self, cfg, op):
        # B'(0) = lambda1 B(xi); B'(1) - lambda2 B(eta) = 1
        fns = kernel_functions(cfg, op)
        b_xi = float(fns.boundary_term(cfg.xi))
        b_eta = float(fns.boundary_term(cfg.eta))
        db0 = float(fns.boundary_term_dx(0.0))
        db1 = float(fns.boundary_term_dx(1.0))
        assert db0 == pytest.approx(cfg.lambda1 * b_xi, abs=1e-12)
        assert db1 - cfg.lambda2 * b_eta == pytest.approx(1.0, abs=1e-12)

    def test_dvalue_matches_finite_differences(self, cfg, op):
        fns = kernel_functions(cfg, op)
        eps = 1e-6
        for x, s in [(0.15, 0.6), (0.8, 0.25), (0.4, 0.45), (0.05, 0.95)]:
            num = (fns.value(x + eps, s) - fns.value(x - eps, s)) / (2 * eps)
            assert float(fns.dvalue_dx(x, s)) == pytest.approx(float(num), abs=1e-6)


# G and dG/dx at one point inside each of the six branches, from the
# earlier hand-written trigonometric and hyperbolic kernels; one (x, s) per
# (s-region, side) pair, the first of each pair below the diagonal
BRANCH_PINS = [
    (CFG1, OP1, [
        ((0.02, 0.05), 0.12773759445813918, 0.4212006719669677),
        ((0.7, 0.05), 1.0170634217676224, 1.2316658856008678),
        ((0.12, 0.15), 0.292265271690964, 0.5473450754316641),
        ((0.5, 0.15), 0.834042390806854, 1.444452028141623),
        ((0.3, 0.6), 0.5501368141106122, 0.7330666140307154),
        ((0.9, 0.6), 1.227145947060347, 1.4903591069112418),
    ]),
    (CFG2, OP2, [
        ((0.05, 0.1), -0.6204525712532224, -0.20278425268093436),
        ((0.6, 0.1), -0.39819665632537415, 0.23988126849055846),
        ((0.22, 0.25), -0.5586142537546892, -0.369602561232417),
        ((0.8, 0.25), -0.38937600646178366, 0.09385789174375765),
        ((0.4, 0.7), -0.43612600357454806, -0.39608064545559096),
        ((0.95, 0.7), -0.5600845586002183, 0.01149812686806865),
    ]),
]


@pytest.mark.parametrize("cfg, op, pins", BRANCH_PINS)
def test_branch_values_pinned(cfg, op, pins):
    fns = kernel_functions(cfg, op)
    for (x, s), g, d in pins:
        assert float(fns.value(x, s)) == pytest.approx(g, rel=1e-13)
        assert float(fns.dvalue_dx(x, s)) == pytest.approx(d, rel=1e-13)


def _reference_branches(cfg, op):
    """G and dG/dx as (below, above) pairs, each of the six branches written
    out in cos/sin or cosh/sinh, as a reference for the kernel's one table."""
    xi, eta, l1, l2, k, r = cfg.xi, cfg.eta, cfg.lambda1, cfg.lambda2, op.k, op.root
    if k > 0:
        C, S = (lambda z: np.cos(r * z)), (lambda z: np.sin(r * z) / r)
    else:
        C, S = (lambda z: np.cosh(r * z)), (lambda z: np.sinh(r * z) / r)
    phi = lambda z: C(z) + l1 * S(z - xi)  # noqa: E731
    dphi = lambda z: -k * S(z) + l1 * C(z - xi)  # noqa: E731
    psi = lambda z: C(z - 1) + l2 * S(z - eta)  # noqa: E731
    dpsi = lambda z: -k * S(z - 1) + l2 * C(z - eta)  # noqa: E731
    a1 = l1 * (l2 * S(eta - xi) - C(xi - 1))
    a3 = l2 * phi(eta)
    W = k * S(1.0) + l2 * C(eta) + a1

    def by_region(s, b1, b2, b3):
        return np.where(s <= xi, b1, np.where(s <= eta, b2, b3))

    def value(x, s):
        return (by_region(s, C(x) * psi(s) + a1 * S(s - x),
                          phi(x) * psi(s), phi(x) * C(s - 1)) / W,
                by_region(s, psi(x) * C(s), psi(x) * phi(s),
                          C(x - 1) * phi(s) + a3 * S(x - s)) / W)

    def dvalue_dx(x, s):
        return (by_region(s, -k * S(x) * psi(s) - a1 * C(s - x),
                          dphi(x) * psi(s), dphi(x) * C(s - 1)) / W,
                by_region(s, dpsi(x) * C(s), dpsi(x) * phi(s),
                          -k * S(x - 1) * phi(s) + a3 * C(x - s)) / W)

    return value, dvalue_dx


@pytest.mark.parametrize("example", [EXAMPLE1, EXAMPLE2], ids=["example1", "example2"])
@pytest.mark.parametrize("k", [1e-26, -1e-26, 1e-12, 0.49, 2.4, -1e-12, -1e-6,
                               -0.01, -2.0, -500.0, -1000.0])
def test_table_matches_written_out_branches(example, k):
    # the one branch table agrees with the six value and six dG/dx branches
    # written out, down to k -> 0- where a pair divided by 2t would not
    cfg, op = BoundaryConfig(**example["boundary"]), ShiftedOperator(k)
    fns = kernel_functions(cfg, op)
    pts = np.unique(np.r_[np.linspace(0.0, 1.0, 41), cfg.xi, cfg.eta])
    X, S = pts[:, None], pts[None, :]
    value, dvalue_dx = _reference_branches(cfg, op)
    for got, ref in ((fns.value, value), (fns.dvalue_dx, dvalue_dx)):
        below, above = ref(X, S)
        expected = np.where(X <= S, below, above)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(got(X, S) - expected)) <= 1e-14 * scale
    # a diagonal point takes the below branch, whose dG/dx is one less
    below, above = dvalue_dx(pts, pts)
    assert np.max(np.abs(fns.dvalue_dx(pts, pts) - below)) <= 1e-14 * scale
    assert np.max(np.abs(above - below - 1.0)) <= 1e-9


def test_kernel_continuous_across_regime_seam():
    # one analytic kernel in k: the two regimes meet at k = 0. Relative to
    # sup |G|, since G itself moves by up to 65 * 2e-8 over the step for CFG2
    pts = np.linspace(0.0, 1.0, 21)
    X, S = pts[:, None], pts[None, :]
    for cfg in (CFG1, CFG2):
        pos = kernel_functions(cfg, ShiftedOperator(1e-8))
        neg = kernel_functions(cfg, ShiftedOperator(-1e-8))
        scale = np.max(np.abs(pos.value(X, S)))
        assert np.max(np.abs(pos.value(X, S) - neg.value(X, S))) <= 1e-6 * scale
        assert np.max(np.abs(pos.dvalue_dx(X, S) - neg.dvalue_dx(X, S))) <= 1e-6 * scale


class TestSignCertificates:
    def test_positive_kernel_nonnegative(self):
        pts = np.linspace(0.0, 1.0, 101)
        fns = kernel_functions(CFG1, OP1)
        G = fns.value(pts[:, None], pts[None, :])
        assert float(G.min()) >= -1e-12
        assert float(G.min()) == pytest.approx(0.06935402083034353, rel=1e-9)

    def test_negative_kernel_nonpositive(self):
        pts = np.linspace(0.0, 1.0, 101)
        for k in (-2.0, -4.0):
            fns = kernel_functions(CFG2, ShiftedOperator(k))
            G = fns.value(pts[:, None], pts[None, :])
            assert float(G.max()) <= 1e-12
        fns = kernel_functions(CFG2, OP2)
        G = fns.value(pts[:, None], pts[None, :])
        assert float(G.max()) == pytest.approx(-0.31224280452786446, rel=1e-9)


class TestDxSignCheck:
    def test_regime_mismatch(self):
        with pytest.raises(ValidationError):
            green_dx_sign_check(CFG1, OP1, np.linspace(0, 1, 11))

    def test_below_diagonal_holds_above_fails(self):
        report = green_dx_sign_check(CFG2, OP2, np.linspace(0, 1, 101))
        assert report.ok_below is True
        assert report.ok_above is False
        assert report.ok is False
        assert not report  # __bool__ mirrors ok
        assert report.max_below == pytest.approx(-0.0855, abs=1e-3)
        assert report.max_above == pytest.approx(0.8462, abs=1e-3)
        assert report.worst_above == (0.01, 0.0)
        d = report.to_dict()
        assert d["ok"] is False and d["ok_below"] is True

    def test_below_side_for_other_shifts(self):
        for k in (-4.0, -5.0):
            report = green_dx_sign_check(CFG2, ShiftedOperator(k),
                                         np.linspace(0, 1, 51))
            assert report.ok_below is True

    def test_slopes_match_finite_differences(self):
        # the reported extrema are real slopes of G, not formula artifacts
        report = green_dx_sign_check(CFG2, OP2, np.linspace(0, 1, 101))
        fns = kernel_functions(CFG2, OP2)
        for (x, s) in (report.worst_below, report.worst_above):
            eps = 1e-7
            lo = max(x - eps, 0.0)
            hi = min(x + eps, 1.0)
            if lo <= s <= hi and x != s:
                continue  # straddles the kink; slope is one-sided there
            num = (fns.value(hi, s) - fns.value(lo, s)) / (hi - lo)
            assert float(fns.dvalue_dx(x, s)) == pytest.approx(float(num), abs=1e-5)


class TestGreenEval:
    def test_domain_validation(self):
        with pytest.raises(ValidationError):
            green_eval(CFG1, OP1, -0.1, 0.5)
        with pytest.raises(ValidationError):
            green_eval(CFG1, OP1, 0.5, 1.5)

    def test_diagonal_flagged(self):
        sample = green_eval(CFG1, OP1, 0.3, 0.3)
        assert sample.diagonal_left_limit is True
        off = green_eval(CFG1, OP1, 0.3, 0.6)
        assert off.diagonal_left_limit is False

    def test_fields(self):
        s = green_eval(CFG2, OP2, 0.25, 0.75)
        assert s.x == 0.25 and s.s == 0.75
        assert np.isfinite(s.value) and np.isfinite(s.dvalue_dx)


class TestWeightedSlopeInvariants:
    # combined kernel/Lipschitz slope certificates used by the monotonicity
    # argument; L2 profiles match the bundled example data

    def test_positive_combination_nonpositive(self):
        l1, k = 0.47331, 0.49
        pts = np.linspace(0.0, 1.0, 101)
        fns = kernel_functions(CFG1, OP1)
        X, S = pts[:, None], pts[None, :]
        G = fns.value(X, S)
        l2 = X * math.exp(0.2154) / 195.0
        off = X != S
        Gx = fns.dvalue_dx(X, S)
        worst = -np.inf
        for sign in (1.0, -1.0):
            vals = (l1 - k) * G + sign * l2 * Gx
            worst = max(worst, float(np.max(np.where(off, vals, -np.inf))))
        assert worst <= 1e-10

    def test_negative_combination_nonnegative(self):
        l1, k = 0.042957, -2.0
        l2_sup = 2 * 5.868826 * (math.e - 1.0) / 40.0
        # extra hypothesis for this certificate
        assert (l1 + k) + l2_sup * (CFG2.lambda1 - k) <= 0
        pts = np.linspace(0.0, 1.0, 101)
        fns = kernel_functions(CFG2, OP2)
        X, S = pts[:, None], pts[None, :]
        G = fns.value(X, S)
        l2 = 2 * 5.868826 * (np.exp(X) - 1.0) / 40.0
        off = X != S
        Gx = fns.dvalue_dx(X, S)
        worst = np.inf
        for sign in (1.0, -1.0):
            vals = (l1 + k) * G + sign * l2 * Gx
            worst = min(worst, float(np.min(np.where(off, vals, np.inf))))
        assert worst >= -1e-10


@settings(max_examples=80, deadline=None)
@given(x=st.floats(0.0, 1.0), s=st.floats(0.0, 1.0),
       k=st.sampled_from([0.49, 1.7, -1.0, -3.0]))
def test_green_eval_finite_everywhere(x, s, k):
    cfg = CFG1 if k > 0 else CFG2
    sample = green_eval(cfg, ShiftedOperator(k), x, s)
    assert np.isfinite(sample.value)
    assert np.isfinite(sample.dvalue_dx)
