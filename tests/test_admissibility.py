import math
import warnings

import numpy as np
import pytest

from mibvp import admissibility
from mibvp.admissibility import (LipschitzData, check_negative_k,
                                 check_positive_k, estimate_l1,
                                 estimate_lipschitz, nagumo_bound, scan_k,
                                 sign_table)
from mibvp.errors import NumericalError, ValidationError
from mibvp.expressions import parse_expression
from mibvp.kernel import PI2_OVER_4, BoundaryConfig, Regime
from mibvp.monotone import NonlinearProblem
from mibvp.problems import build_problem

CFG1 = BoundaryConfig(0.1, 0.2, 2.0, 3.0)
CFG2 = BoundaryConfig(0.2, 0.3, 0.25, 1.0 / 9.0)

LIP1 = LipschitzData.from_expression(0.47331, parse_expression("x*exp(0.2154)/195"))
LIP2 = LipschitzData.from_expression(
    0.042957, parse_expression("2*5.868826*(exp(x)-1)/40"))


class TestLipschitzData:
    def test_example_profiles_are_clean(self):
        assert LIP1.notes == ()
        assert LIP2.notes == ()
        assert LIP1.l2_text == "x*exp(0.2154)/195"
        assert LIP1.l2_sup == pytest.approx(math.exp(0.2154) / 195.0, rel=1e-6)
        assert LIP1.l2prime_sup == pytest.approx(math.exp(0.2154) / 195.0, rel=1e-6)
        assert LIP2.l2_sup == pytest.approx(
            2 * 5.868826 * (math.e - 1.0) / 40.0, rel=1e-6)

    def test_negative_l1_rejected(self):
        with pytest.raises(ValidationError):
            LipschitzData.from_expression(-0.1, parse_expression("x"))
        with pytest.raises(ValidationError):
            LipschitzData.from_expression(float("nan"), parse_expression("x"))

    def test_l2_must_depend_on_x_only(self):
        with pytest.raises(ValidationError):
            LipschitzData.from_expression(1.0, parse_expression("x + u"))

    def test_notes_flag_profile_violations(self):
        offset = LipschitzData.from_expression(1.0, parse_expression("1 + x"))
        assert any("not zero" in n for n in offset.notes)
        wobbly = LipschitzData.from_expression(1.0, parse_expression("cos(3*x)"))
        assert any("nondecreasing" in n for n in wobbly.notes)
        neg = LipschitzData.from_expression(1.0, parse_expression("-x"))
        assert any("negative" in n for n in neg.notes)

    def test_from_callable(self):
        lip = LipschitzData.from_callable(0.5, lambda xs: xs ** 2)
        assert lip.l2_text is None
        assert lip.l2_sup == pytest.approx(1.0, rel=1e-6)
        assert lip.l2prime_sup == pytest.approx(2.0, rel=1e-3)
        assert lip.notes == ()


class TestPositiveChecks:
    def test_example_shift_passes_all(self):
        report = check_positive_k(CFG1, 0.49, LIP1)
        assert report.admissible is True
        assert report.regime is Regime.POSITIVE_K
        expected = {
            "Dk>0": 1.6835388311811905,
            "A1-2": 0.1167601871664325,
            "A1-3": 0.5601143053249344,
            "L34a": 0.009896793711749178,
            "L34b": 0.01032919004652805,
        }
        for cid, margin in expected.items():
            cond = report.conditions[cid]
            assert cond.ok is True
            assert cond.margin == pytest.approx(margin, rel=1e-9), cid

    def test_larger_shifts_fail_one_condition(self):
        r1 = check_positive_k(CFG1, 1.0, LIP1)
        assert r1.admissible is False
        c = r1.conditions["A1-2"]
        assert c.ok is False
        assert c.margin == pytest.approx(-0.055705686517043884, rel=1e-9)
        r2 = check_positive_k(CFG1, 2.3, LIP1)
        assert r2.conditions["A1-2"].margin == pytest.approx(
            -0.8138663109817335, rel=1e-9)
        assert r2.conditions["L34a"].ok is True
        assert r2.conditions["L34b"].ok is True

    def test_large_left_coupling_fails(self):
        cfg = BoundaryConfig(0.1, 0.2, 100.0, 3.0)
        report = check_positive_k(cfg, 0.49, LIP1)
        assert report.conditions["A1-3"].ok is False

    @pytest.mark.parametrize("k", [0.0, -1.0, PI2_OVER_4, 3.0])
    def test_out_of_regime(self, k):
        with pytest.raises(ValidationError):
            check_positive_k(CFG1, k, LIP1)

    def test_report_shapes(self):
        report = check_positive_k(CFG1, 0.49, LIP1)
        d = report.to_dict()
        assert d["regime"] == "positive"
        assert d["admissible"] is True
        assert [c["id"] for c in d["conditions"]] == [
            "Dk>0", "A1-2", "A1-3", "L34a", "L34b"]
        assert all(set(c) == {"id", "ok", "margin"} for c in d["conditions"])
        with pytest.raises(KeyError):
            report.conditions["nope"]


class TestNegativeChecks:
    def test_example_shift_passes_all(self):
        report = check_negative_k(CFG2, -2.0, LIP2)
        assert report.admissible is True
        assert report.regime is Regime.NEGATIVE_K
        assert report.conditions["Dk'>0"].margin == pytest.approx(
            4.299718928080497, rel=1e-9)
        expected = {
            "A'1-1": 2.615336,
            "A'1-2": 0.805739,
            "A'1-3": 1.154147,
            "L55a": 0.446319,
            "A'2": 0.552823,
        }
        for cid, margin in expected.items():
            cond = report.conditions[cid]
            assert cond.ok is True
            assert cond.margin == pytest.approx(margin, abs=1e-5), cid

    def test_combined_bound_components(self):
        report = check_negative_k(CFG2, -2.0, LIP2)
        comp = report.extras["a2_components"]
        assert comp["neg_l1"] == -0.042957
        assert comp["neg_lambda1_sq"] == -0.0625
        assert comp["ratio"] == pytest.approx(0.340895, abs=1e-5)
        assert comp["neg_sup_combined"] == pytest.approx(-1.447177, abs=1e-5)
        assert report.extras["a2_bound"] == comp["neg_sup_combined"]
        assert report.extras["a2_sup_term"] == pytest.approx(1.447171, abs=1e-3)

    def test_ratio_component_dropped_when_l2_sup_large(self):
        lip = LipschitzData.from_expression(0.042957, parse_expression("2*x"))
        report = check_negative_k(CFG2, -2.0, lip)
        assert report.extras["a2_components"]["ratio"] is None

    def test_strong_left_coupling_fails(self):
        cfg = BoundaryConfig(0.2, 0.3, 2.0, 1.0 / 9.0)
        report = check_negative_k(cfg, -2.0, LIP2)
        assert report.conditions["A'1-3"].ok is False
        assert report.admissible is False

    @pytest.mark.parametrize("k", [0.0, 0.5])
    def test_out_of_regime(self, k):
        with pytest.raises(ValidationError):
            check_negative_k(CFG2, k, LIP2)

    def test_infinite_k_rejected_before_margins(self):
        # the margins overflow at k = -inf, so k is checked before any is computed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="k must be finite"):
                check_negative_k(CFG2, -math.inf, LIP2)


class TestScanK:
    def test_positive_window(self):
        intervals = scan_k(CFG1, LIP1, "positive", 1e-3,
                           PI2_OVER_4 * 0.9999, 400)
        assert len(intervals) == 1
        lo, hi = intervals[0]
        assert lo == pytest.approx(0.47968, abs=1e-3)
        assert hi == pytest.approx(0.86785, abs=1e-3)
        # the refined onset agrees with the reference threshold
        assert abs(lo - 0.4811) <= 0.01

    def test_negative_window(self):
        intervals = scan_k(CFG2, LIP2, "negative", -10.0, -0.01, 400)
        assert len(intervals) == 1
        lo, hi = intervals[0]
        assert lo == -10.0
        assert hi == pytest.approx(-1.44722, abs=1e-3)

    def test_interval_membership(self):
        intervals = scan_k(CFG2, LIP2, "negative", -10.0, -0.01, 400)
        lo, hi = intervals[0]
        for k in np.linspace(lo + 1e-3, hi - 1e-3, 7):
            assert check_negative_k(CFG2, float(k), LIP2).admissible
        assert not check_negative_k(CFG2, hi + 0.01, LIP2).admissible

    def test_positive_membership(self):
        intervals = scan_k(CFG1, LIP1, Regime.POSITIVE_K, 1e-3,
                           PI2_OVER_4 * 0.9999, 400)
        lo, hi = intervals[0]
        for k in np.linspace(lo + 1e-3, hi - 1e-3, 7):
            assert check_positive_k(CFG1, float(k), LIP1).admissible
        assert not check_positive_k(CFG1, lo - 0.01, LIP1).admissible
        assert not check_positive_k(CFG1, hi + 0.01, LIP1).admissible

    def test_empty_scan(self):
        fat = LipschitzData.from_expression(3.0, parse_expression("x*exp(0.2154)/195"))
        assert scan_k(CFG1, fat, "positive", 1e-3, PI2_OVER_4 * 0.9999, 60) == []

    def test_validation(self):
        with pytest.raises(ValidationError):
            scan_k(CFG1, LIP1, "both", 0.1, 0.5, 10)
        with pytest.raises(ValidationError):
            scan_k(CFG1, LIP1, "positive", 0.5, 0.1, 10)
        with pytest.raises(ValidationError):
            scan_k(CFG1, LIP1, "positive", 0.1, 0.5, 1)
        with pytest.raises(ValidationError):
            scan_k(CFG1, LIP1, "positive", -0.5, 1.0, 10)
        with pytest.raises(ValidationError):
            scan_k(CFG2, LIP2, "negative", -1.0, 0.5, 10)
        with pytest.raises(ValidationError, match="scan needs 2 to 1000000 steps"):
            scan_k(CFG2, LIP2, "negative", -10.0, -0.01, 10 ** 30)


# the sampled scan of each bundled config: the problem fixture, lo, hi, steps
BUNDLED_SCANS = [("ex1_problem", 1e-3, PI2_OVER_4 * 0.9999, 400),
                 ("ex2_problem", -10.0, -0.01, 400)]
# L2 profiles for the L34a identity: example1's, and four that peak inside
# [0, 1], bend or are nonlinear
L34A_PROFILES = ["x*exp(0.2154)/195", "x*(1.2-x)/3", "sin(3*x)/5", "x*exp(-4*x)", "0.3*x^2"]


class TestMarginTable:
    @pytest.mark.parametrize("fixture, lo, hi, steps", BUNDLED_SCANS)
    def test_rows_equal_check_reports(self, request, fixture, lo, hi, steps):
        problem = request.getfixturevalue(fixture)
        ks = np.linspace(lo, hi, steps)
        table, extras = admissibility.margin_table(problem.config, problem.lip, ks)
        for i, k in enumerate(ks):
            report = admissibility.check_k(problem.config, k, problem.lip)
            assert list(table) == list(report.conditions)
            for c in report.conditions.values():
                ok, margin = table[c.cid]
                assert (bool(ok[i]), float(margin[i])) == (c.ok, c.margin), (k, c.cid)
            assert extras == report.extras

    @pytest.mark.parametrize("l2", L34A_PROFILES)
    def test_l34a_at_sup_l2_equals_the_sampled_sup(self, l2):
        # r sin r > 0 on the positive regime, so the sup over x of the L34a
        # slope sits where L2 is largest
        lip = LipschitzData.from_expression(0.47331, parse_expression(l2))
        for k in np.linspace(1e-3, PI2_OVER_4 * 0.9999, 400):
            r = np.sqrt(k)
            sampled = admissibility._refined_extremum(
                (lip.l1 - k) * np.cos(r) + lip.l2 * r * np.sin(r), admissibility.SUP_XS)
            at_sup = admissibility._l34a_slope(lip.l1, lip.l2_sup, k, r)
            assert at_sup == pytest.approx(sampled, rel=1e-12, abs=1e-15), k
            assert (at_sup <= 0) == (sampled <= 0), k

    @pytest.mark.parametrize("fixture, lo, hi, steps", BUNDLED_SCANS)
    def test_scan_reads_the_table(self, request, monkeypatch, fixture, lo, hi, steps):
        # the samples come from one table; only endpoint bisection calls a check
        problem = request.getfixturevalue(fixture)
        calls = []
        for name in ("check_positive_k", "check_negative_k"):
            check = getattr(admissibility, name)
            monkeypatch.setattr(admissibility, name,
                                lambda *a, check=check: calls.append(a) or check(*a))
        regime = "positive" if lo > 0 else "negative"
        assert len(scan_k(problem.config, problem.lip, regime, lo, hi, steps)) == 1
        assert 0 < len(calls) <= 20


class TestEndpointSlopeExtension:
    # when the admissibility margin holds at the endpoint, the underlying
    # pointwise inequality holds on all of [0, 1]

    def test_cosine_form(self):
        k = 0.49
        r = math.sqrt(k)
        assert check_positive_k(CFG1, k, LIP1).conditions["L34a"].ok
        xs = np.linspace(0.0, 1.0, 2001)
        y1 = (LIP1.l1 - k) * np.cos(r * xs) + LIP1.l2 * r * np.sin(r * xs)
        assert float(np.max(y1)) <= 1e-12

    def test_sine_form(self):
        k = 0.49
        r = math.sqrt(k)
        assert check_positive_k(CFG1, k, LIP1).conditions["L34b"].ok
        xs = np.linspace(0.0, 1.0, 2001)
        y2 = (LIP1.l1 - k) * np.sin(r * xs) + LIP1.l2 * r * np.cos(r * xs)
        assert float(np.max(y2)) <= 1e-12


class TestEstimateL1:
    def test_reverse_ordering_example(self, ex1_problem):
        est = estimate_l1(ex1_problem)
        assert est == pytest.approx(0.4733124403791914, rel=1e-9)
        assert abs(est - math.exp(4.525) / 195.0) <= 1e-3

    def test_well_ordering_example(self, ex2_problem):
        est = estimate_l1(ex2_problem)
        assert est == pytest.approx(0.04295704571311599, rel=1e-9)
        assert abs(est - (math.e - 1.0) / 40.0) <= 1e-4

    def test_u_independent_psi_gives_zero(self):
        problem = NonlinearProblem(
            psi=parse_expression("x + up^2/10"),
            config=CFG1,
            lower0=parse_expression("1 + x"),
            upper0=parse_expression("-1 - x"),
            ordering="reverse",
        )
        assert estimate_l1(problem) == 0.0

    def test_non_finite_samples_raise(self):
        problem = NonlinearProblem(
            psi=parse_expression("ln(u)"),
            config=CFG2,
            lower0=parse_expression("-2"),
            upper0=parse_expression("2"),
            ordering="well",
        )
        with pytest.raises(NumericalError):
            estimate_l1(problem)


class TestEstimateLipschitz:
    def test_estimated_profile_is_sane(self, ex1_problem):
        lip = estimate_lipschitz(ex1_problem)
        assert lip.l1 == pytest.approx(0.4733124403791914, rel=1e-6)
        assert lip.l2_sup > 0
        vals = lip.l2
        assert np.all(np.diff(vals) >= -1e-12)
        assert np.all(vals >= 0)

    def test_fallback_bounds_slopes_not_values(self):
        # no Nagumo P: |u'| <= 2 sup|c0', d0'| + 1 = 3, so
        # L2(1) = sup |2 x up / 10| = 0.6 (a bound on the values gave 1.0)
        problem = NonlinearProblem(
            psi=parse_expression("x*up^2/10 + u/20"),
            config=CFG1,
            lower0=parse_expression("1 + x"),
            upper0=parse_expression("-1 - x"),
            ordering="reverse",
        )
        lip = estimate_lipschitz(problem)
        assert float(lip.l2[-1]) == pytest.approx(0.6, rel=1e-9)


class TestConstantBracket:
    """Constant initial solutions evaluate to scalars; the box must still
    span every sample point."""

    @staticmethod
    def _problem():
        return NonlinearProblem(
            psi=parse_expression("up^2/10"),
            config=CFG1,
            lower0=parse_expression("1"),
            upper0=parse_expression("-1"),
            ordering="reverse",
            nagumo_phi="auto",
        )

    def test_auto_nagumo_bound(self):
        nag = nagumo_bound(self._problem())
        assert nag.success is True
        assert nag.P == pytest.approx(2.4435357457, abs=1e-9)

    def test_l2_with_nagumo_box(self):
        problem = self._problem()
        problem.nagumo = nagumo_bound(problem)
        lip = estimate_lipschitz(problem)
        assert np.allclose(lip.l2, 0.2 * problem.nagumo.P, rtol=1e-9, atol=0)
        assert lip.l1 == 0.0

    def test_l2_with_fallback_box(self):
        # c0' = d0' = 0, so |u'| <= 1 and L2 = 2 * 1 / 10
        lip = estimate_lipschitz(self._problem())
        assert np.allclose(lip.l2, 0.2, rtol=1e-9, atol=0)


class TestNagumoBound:
    def test_well_ordering_example_succeeds(self, ex2_problem):
        nag = nagumo_bound(ex2_problem)
        assert nag.success is True
        assert nag.gamma == pytest.approx(4.8, abs=1e-9)
        assert nag.diameter == pytest.approx(4.68, abs=1e-9)
        assert nag.P == pytest.approx(5.979521732704125, abs=1e-4)

    def test_quadratic_majorant_closed_form(self, ex2_problem):
        # phi = a (s^2 + b) integrates in closed form:
        # P = sqrt((gamma^2 + b) e^{2 a d} - b)
        nag = nagumo_bound(ex2_problem)
        a, b = 0.042957, 2.65
        closed = math.sqrt((nag.gamma ** 2 + b) * math.exp(2 * a * nag.diameter) - b)
        assert nag.P == pytest.approx(closed, abs=1e-6)

    def test_reverse_ordering_example_fails(self, ex1_problem):
        nag = nagumo_bound(ex1_problem)
        assert nag.success is False
        assert nag.P is None
        assert nag.tail == pytest.approx(0.22888112617624648, abs=1e-3)

    def test_constant_majorant_exact_relation(self):
        problem = NonlinearProblem(
            psi=parse_expression("u/10"),
            config=CFG1,
            lower0=parse_expression("1 + x"),
            upper0=parse_expression("-1 - x"),
            ordering="reverse",
            nagumo_phi=parse_expression("2"),
        )
        nag = nagumo_bound(problem)
        assert nag.success is True
        assert nag.gamma == pytest.approx(4.0, abs=1e-12)
        assert nag.diameter == pytest.approx(4.0, abs=1e-12)
        # (P^2 - gamma^2) / (2 M) = diameter with M = 2
        assert (nag.P ** 2 - 16.0) / 4.0 == pytest.approx(4.0, abs=1e-7)
        # the integral of s/2 to infinity diverges, so it carries no tail
        assert nag.tail is None

    # ln(s - 10) is undefined (NaN) on [0, 10) and negative on (10, 11)
    @pytest.mark.parametrize("phi", ["s - 100", "ln(s - 10)"])
    def test_nonpositive_majorant_rejected(self, phi):
        problem = NonlinearProblem(
            psi=parse_expression("u/10"),
            config=CFG1,
            lower0=parse_expression("1 + x"),
            upper0=parse_expression("-1 - x"),
            ordering="reverse",
            nagumo_phi=parse_expression(phi),
        )
        with pytest.raises(ValidationError):
            nagumo_bound(problem)

    def test_majorant_variable_set(self):
        problem = NonlinearProblem(
            psi=parse_expression("u/10"),
            config=CFG1,
            lower0=parse_expression("1 + x"),
            upper0=parse_expression("-1 - x"),
            ordering="reverse",
            nagumo_phi=parse_expression("1 + x"),
        )
        with pytest.raises(ValidationError):
            nagumo_bound(problem)

    def test_callable_majorant_rejected(self):
        # phi is "auto" or an expression in s; a bare callable is not a spec
        problem = NonlinearProblem(
            psi=parse_expression("u/10"),
            config=CFG1,
            lower0=parse_expression("1 + x"),
            upper0=parse_expression("-1 - x"),
            ordering="reverse",
            nagumo_phi=lambda s: 2.0 + 0.0 * s,
        )
        with pytest.raises(ValidationError):
            nagumo_bound(problem)

    def test_inverted_bracket_rejected(self):
        problem = NonlinearProblem(
            psi=parse_expression("u/10"),
            config=CFG1,
            lower0=parse_expression("-1 - x"),
            upper0=parse_expression("1 + x"),
            ordering="reverse",
            nagumo_phi=parse_expression("2"),
        )
        with pytest.raises(ValidationError):
            nagumo_bound(problem)

    def test_missing_majorant_rejected(self):
        problem = NonlinearProblem(
            psi=parse_expression("u/10"),
            config=CFG1,
            lower0=parse_expression("1 + x"),
            upper0=parse_expression("-1 - x"),
            ordering="reverse",
        )
        with pytest.raises(ValidationError):
            nagumo_bound(problem)

    def test_sampled_majorant(self, ex2_config):
        from mibvp.problems import build_problem
        problem = build_problem(ex2_config)
        problem.nagumo_phi = "auto"
        nag = nagumo_bound(problem)
        assert nag.success is True
        assert nag.P is not None and nag.P >= nag.gamma


# (config, phi replacing nagumo.phi or None, success, field, value): values
# of scipy's quad and brentq, which the numpy quadrature and root finder
# match to 1e-9 relative
NAGUMO_PINNED = [
    ("example1", None, False, "tail", 0.22888112617624648),
    ("example2", None, True, "P", 5.979521732704125),
    ("example2", "exp(s)", False, "tail", 0.04773253288431617),
    ("example2", "s^2/1000 + 1", True, "P", 5.7149460723841665),
    ("example2", "1/(1+s^2)+s^2", True, "P", 517.5329817725843),
    ("example2", "exp(s/50)", True, "P", 5.78341852652334),
    ("example2", "exp(s/50)", True, "tail", 2489.1914040282545),
]

# (config, field, scipy quad's value, quad at epsrel 1e-14 split at the knots)
# for phi = "auto", whose majorant is piecewise linear between its knots
NAGUMO_AUTO_PINNED = [
    ("example1", "tail", 0.21800629223791299, 0.21800629239994382),
    ("example2", "P", 5.959919827204207, 5.959919796974128),
]

# first_crossing of each single-crossing sign_table row, from brentq
SIGN_TABLE_PINNED = {
    "L34a-sup": 0.47694005643736387,
    "A1-2": 0.8679163308559972,
    "A'1-2": -0.06965248607923917,
    "A'1-3": -0.06265677282578111,
}


def _nagumo_with(config, phi):
    problem = build_problem(config, with_lipschitz=False)
    problem.nagumo_phi = phi
    return nagumo_bound(problem)


class TestPinnedValues:
    @pytest.mark.parametrize("name, phi, success, field, value", NAGUMO_PINNED,
                             ids=["%s-%s-%s" % (c, p, f) for c, p, _, f, _ in NAGUMO_PINNED])
    def test_nagumo(self, ex1_config, ex2_config, name, phi, success, field, value):
        config = ex1_config if name == "example1" else ex2_config
        nag = _nagumo_with(config, config.nagumo["phi"] if phi is None
                           else parse_expression(phi))
        assert nag.success is success
        assert getattr(nag, field) == pytest.approx(value, rel=1e-9, abs=0)

    def test_exponential_tail_closed_form(self, ex2_config):
        # int_gamma^inf s exp(-s/50) ds = 50 exp(-gamma/50) (gamma + 50)
        nag = _nagumo_with(ex2_config, parse_expression("exp(s/50)"))
        exact = 50.0 * math.exp(-nag.gamma / 50.0) * (nag.gamma + 50.0)
        assert nag.tail == pytest.approx(exact, rel=1e-12, abs=0)

    def test_divergent_tail_given_up_early(self, ex2_problem, monkeypatch):
        # example2's s/phi decays like 1/s, so its tail diverges: the end
        # panel's estimate levels off, and the tail is given up after ten
        # rounds instead of halving to the 200-round cap
        phi = ex2_problem.nagumo_phi
        gamma = ex2_problem.nagumo.gamma
        rounds = []
        panel_sums = admissibility._panel_sums
        monkeypatch.setattr(admissibility, "_panel_sums",
                            lambda f, lo, hi: rounds.append(lo.size) or panel_sums(f, lo, hi))
        _, error = admissibility._integrate(lambda s: s / phi.sample(s=s), gamma,
                                            np.inf, ())
        assert error == np.inf
        assert len(rounds) - 1 <= 20  # the first estimate, then one call a round

    @pytest.mark.parametrize("name, field, quad_value, reference", NAGUMO_AUTO_PINNED,
                             ids=[c for c, *_ in NAGUMO_AUTO_PINNED])
    def test_auto_majorant(self, ex1_config, ex2_config, name, field, quad_value,
                           reference):
        config = ex1_config if name == "example1" else ex2_config
        nag = _nagumo_with(config, "auto")
        assert nag.success is (field == "P")
        assert getattr(nag, field) == pytest.approx(quad_value, rel=1e-8, abs=0)
        assert getattr(nag, field) == pytest.approx(reference, rel=1e-10, abs=0)

    def test_sign_table_crossings(self, ex1_problem, ex2_problem):
        rows = sign_table(ex1_problem.config, ex1_problem.lip, "positive",
                          1e-3, PI2_OVER_4 * 0.9999)
        rows += sign_table(ex2_problem.config, ex2_problem.lip, "negative", -10.0, -0.01)
        first = {r["id"]: r["first_crossing"] for r in rows
                 if r["first_crossing"] is not None}
        assert first.keys() == SIGN_TABLE_PINNED.keys()
        for cid, value in SIGN_TABLE_PINNED.items():
            assert first[cid] == pytest.approx(value, rel=0, abs=2e-10), cid


class TestSignTable:
    def test_positive_window(self):
        rows = sign_table(CFG1, LIP1, "positive", 1e-3, PI2_OVER_4 * 0.9999)
        by_id = {r["id"]: r for r in rows}
        assert by_id["L34a-sup"]["crossings"] == 2
        assert by_id["L34a-sup"]["first_crossing"] == pytest.approx(
            0.47694005643735976, abs=1e-6)
        assert by_id["A1-3"] == {"id": "A1-3", "crossings": 0,
                                 "first_crossing": None}
        assert by_id["A1-2"]["crossings"] == 1
        assert by_id["A1-2"]["first_crossing"] == pytest.approx(
            0.8679163308498591, abs=1e-6)
        assert by_id["Dk"]["crossings"] == 0

    def test_negative_window(self):
        rows = sign_table(CFG2, LIP2, "negative", -10.0, -0.01)
        by_id = {r["id"]: r for r in rows}
        assert by_id["A'1-1-endpoint"]["crossings"] == 0
        assert by_id["A'1-2"]["crossings"] == 1
        assert by_id["A'1-2"]["first_crossing"] == pytest.approx(
            -0.06965248607923917, abs=1e-6)
        assert by_id["A'1-3"]["crossings"] == 1
        assert by_id["A'1-3"]["first_crossing"] == pytest.approx(
            -0.0626567728257811, abs=1e-6)

    def test_regime_mismatch(self):
        with pytest.raises(ValidationError):
            sign_table(CFG1, LIP1, "positive", -1.0, 1.0)
        with pytest.raises(ValidationError):
            sign_table(CFG2, LIP2, "negative", -1.0, 1.0)
