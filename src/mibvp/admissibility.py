"""Certify the hypotheses behind the monotone iteration.

Covers the kernel-sign conditions for both regimes, the slope inequalities
tying the Lipschitz data to the shift k, the combined negative-k bound with
its four components, the admissible-k scan with bisection-refined interval
endpoints, Lipschitz constant estimation from the source term, and the
Nagumo derivative bound P.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .errors import NumericalError, ValidationError
from .expressions import Expression
from .kernel import PI2_OVER_4, BoundaryConfig, Regime, ShiftedOperator, normalization_value

SUP_SAMPLES = 2001
SCAN_REFINE_TOL = 1e-4
# x samples of the bracket box searched by the Lipschitz estimates and the
# sampled Nagumo majorant
BOX_SAMPLES = 121
# k samples of a sign_table window
SIGN_TABLE_SAMPLES = 2000


def _as_profile(fn):
    """Wrap an Expression in x (or a plain callable) as array -> array."""
    if isinstance(fn, Expression):
        return lambda xs: fn.sample(x=np.asarray(xs, float))
    return lambda xs: np.broadcast_to(np.asarray(fn(np.asarray(xs, float)), float),
                                      np.shape(xs)).copy()


def _refined_extremum(vals, xs, sign=1.0):
    """Sampled max (sign=+1) or min (sign=-1) with 3-point parabolic refinement."""
    v = sign * np.asarray(vals, float)
    i = int(np.argmax(v))
    best = v[i]
    if 0 < i < len(v) - 1:
        y0, y1, y2 = v[i - 1], v[i], v[i + 1]
        denom = y0 - 2 * y1 + y2
        if denom < 0:
            delta = 0.5 * (y0 - y2) / denom
            if abs(delta) <= 1.0:
                best = max(best, y1 - 0.25 * (y0 - y2) * delta)
    return float(sign * best)


@dataclass
class LipschitzData:
    """One-sided Lipschitz constant in u and the Lipschitz profile in u'.

    l2_fn and l2prime_fn map node arrays to L2(x) and L2'(x) values.
    notes holds sampled-invariant violations (nonzero at the origin,
    decreasing somewhere, negative somewhere) without rejecting the data;
    a non-finite L2 or L2' sample is rejected.
    """

    l1: float
    l2_fn: object
    l2prime_fn: object
    l2_sup: float
    l2prime_sup: float
    l2_text: str | None = None
    notes: tuple = ()

    def __post_init__(self):
        if not np.isfinite(self.l1) or self.l1 < 0:
            raise ValidationError("L1 must be a nonnegative number, got %r" % self.l1)

    @classmethod
    def from_expression(cls, l1: float, l2_expr: Expression) -> "LipschitzData":
        extra = set(l2_expr.variables) - {"x"}
        if extra:
            raise ValidationError(
                "L2 may only depend on x, found %s" % sorted(extra)
            )
        l2_fn = _as_profile(l2_expr)
        l2p_fn = _as_profile(l2_expr.diff("x"))
        return cls._build(l1, l2_fn, l2p_fn, l2_text=l2_expr.text)

    @classmethod
    def from_callable(cls, l1: float, l2_callable) -> "LipschitzData":
        l2_fn = _as_profile(l2_callable)

        def l2p_fn(xs):
            xs = np.asarray(xs, float)
            return np.gradient(l2_fn(xs), xs)

        return cls._build(l1, l2_fn, l2p_fn, l2_text=None)

    @classmethod
    def _build(cls, l1, l2_fn, l2p_fn, l2_text):
        xs = np.linspace(0.0, 1.0, SUP_SAMPLES)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            vals = l2_fn(xs)
            dvals = l2p_fn(xs)
        for name, v in (("L2", vals), ("L2'", dvals)):
            if not np.all(np.isfinite(v)):
                raise ValidationError("%s is not finite at x = %r"
                                      % (name, float(xs[np.argmin(np.isfinite(v))])))
        notes = []
        if abs(vals[0]) > 1e-9:
            notes.append("L2(0) is not zero (%.3e)" % vals[0])
        if np.min(vals) < -1e-9:
            notes.append("L2 is negative somewhere (min %.3e)" % np.min(vals))
        if np.min(np.diff(vals)) < -1e-9:
            notes.append("L2 is not nondecreasing")
        return cls(
            l1=float(l1),
            l2_fn=l2_fn,
            l2prime_fn=l2p_fn,
            l2_sup=_refined_extremum(vals, xs),
            l2prime_sup=_refined_extremum(dvals, xs),
            l2_text=l2_text,
            notes=tuple(notes),
        )


@dataclass
class NagumoData:
    """Derivative bound data: majorant phi, gamma, diameter, and P.

    success False means the improper integral of s/phi could not reach the
    bracket diameter; tail then carries that integral's value and P is None.
    """

    phi: object
    gamma: float
    P: float | None
    diameter: float
    success: bool
    tail: float | None = None
    phi_text: str | None = None


@dataclass
class Condition:
    """One named verdict and its margin, in admissibility and bracket reports."""

    cid: str
    ok: bool
    margin: float

    def __post_init__(self):
        self.ok = bool(self.ok)
        self.margin = float(self.margin)

    def to_dict(self):
        return {"id": self.cid, "ok": bool(self.ok), "margin": float(self.margin)}


@dataclass
class AdmissibilityReport:
    k: float
    regime: Regime
    conditions: list
    admissible: bool
    extras: dict = field(default_factory=dict)

    def condition(self, cid):
        for c in self.conditions:
            if c.cid == cid:
                return c
        raise KeyError(cid)

    def to_dict(self):
        return {
            "k": self.k,
            "regime": self.regime.value,
            "admissible": bool(self.admissible),
            "conditions": [c.to_dict() for c in self.conditions],
            "extras": self.extras,
        }


# kernel-sign margins shared by the regime checks and sign_table;
# r = sqrt(k) for k > 0, t = sqrt(|k|) for k < 0
_KERNEL_SIGN = {
    "A1-2": lambda c, r: r * np.cos(r) - c.lambda2 * np.sin(r * c.eta),
    "A1-3": lambda c, r: r - c.lambda1 * np.sin(r * c.xi),
    "A'1-2": lambda c, t: t * np.sinh(t * c.xi) + (c.lambda1 - t) * np.cosh(t * c.xi),
    "A'1-3": lambda c, t: t - c.lambda1 * np.cosh(t * c.xi),
}


def _l34a_slope(l1, l2, k, r):
    """(L1 - k) cos r + L2 r sin r with r = sqrt(k); L2 is a profile or its sup."""
    return (l1 - k) * np.cos(r) + l2 * r * np.sin(r)


def check_positive_k(config: BoundaryConfig, k: float, lip: LipschitzData) -> AdmissibilityReport:
    """Certify a positive shift: kernel-sign conditions plus slope conditions.

    Conditions (margin >= 0 means pass, strict ones need > 0):
      Dk>0     normalization positive
      A1-2     sqrt(k) cos sqrt(k) - lambda2 sin(sqrt(k) eta) >= 0
      A1-3     sqrt(k) - lambda1 sin(sqrt(k) xi) > 0
      L34a     sup_x [(L1-k) cos sqrt(k) + L2(x) sqrt(k) sin sqrt(k)] <= 0
      L34b     (L1-k) + sup L2' <= 0
    """
    if not (0.0 < k < PI2_OVER_4):
        raise ValidationError("k out of regime: positive checks need 0 < k < pi^2/4, got %r" % k)
    r = float(np.sqrt(k))
    D = normalization_value(config, ShiftedOperator(k))
    v2 = _KERNEL_SIGN["A1-2"](config, r)
    v3 = _KERNEL_SIGN["A1-3"](config, r)
    xs = np.linspace(0.0, 1.0, SUP_SAMPLES)
    sup_a = _refined_extremum(_l34a_slope(lip.l1, lip.l2_fn(xs), k, r), xs)
    val_b = (lip.l1 - k) + lip.l2prime_sup
    conditions = [
        Condition("Dk>0", D > 0, D),
        Condition("A1-2", v2 >= 0, float(v2)),
        Condition("A1-3", v3 > 0, float(v3)),
        Condition("L34a", sup_a <= 0, -sup_a),
        Condition("L34b", val_b <= 0, -float(val_b)),
    ]
    return AdmissibilityReport(
        k=k, regime=Regime.POSITIVE_K, conditions=conditions,
        admissible=all(c.ok for c in conditions),
    )


def check_negative_k(config: BoundaryConfig, k: float, lip: LipschitzData) -> AdmissibilityReport:
    """Certify a negative shift.

    Conditions:
      A'1-1    t sinh t - lambda2 cosh(t eta) >= 0, t = sqrt(|k|)
      A'1-2    t sinh(t xi) + (lambda1 - t) cosh(t xi) <= 0
      A'1-3    t - lambda1 cosh(t xi) > 0
      Dk'>0    normalization positive
      L55a     (L1 + k) + sup_x [L2'(x) + L2(x) t] <= 0
      A'2      k <= min{-L1, -lambda1^2, (L1 + lambda1 sup L2)/(1 - sup L2),
               -sup_x [L1 + L2' + L2^2/2 + (L2/2) sqrt(L2^2 + 4(L1 + L2'))]}
               (the ratio component only applies when 1 - sup L2 > 0)

    A negative L2^2 + 4(L1 + L2') somewhere (possible only where L2' < 0)
    leaves the A'2 bound undefined and raises ValidationError.
    """
    if k >= 0:
        raise ValidationError("k out of regime: negative checks need k < 0, got %r" % k)
    t = float(np.sqrt(-k))
    l1b, l2b = config.lambda1, config.lambda2
    v1 = t * np.sinh(t) - l2b * np.cosh(t * config.eta)
    q2 = _KERNEL_SIGN["A'1-2"](config, t)
    v3 = _KERNEL_SIGN["A'1-3"](config, t)
    D = normalization_value(config, ShiftedOperator(k))
    xs = np.linspace(0.0, 1.0, SUP_SAMPLES)
    l2v = lip.l2_fn(xs)
    l2pv = lip.l2prime_fn(xs)
    sup_slope = _refined_extremum(l2pv + l2v * t, xs)
    val_55a = (lip.l1 + k) + sup_slope
    disc = l2v ** 2 + 4 * (lip.l1 + l2pv)
    if np.any(disc < 0):
        raise ValidationError(
            "A'2 is undefined: L2^2 + 4(L1 + L2') < 0 at x = %r"
            % float(xs[np.argmax(disc < 0)]))
    comb = lip.l1 + l2pv + 0.5 * l2v ** 2 + 0.5 * l2v * np.sqrt(disc)
    sup4 = _refined_extremum(comb, xs)
    components = {
        "neg_l1": -lip.l1,
        "neg_lambda1_sq": -l1b ** 2,
        "ratio": ((lip.l1 + l1b * lip.l2_sup) / (1 - lip.l2_sup)
                  if 1 - lip.l2_sup > 0 else None),
        "neg_sup_combined": -sup4,
    }
    bound = min(v for v in components.values() if v is not None)
    conditions = [
        Condition("A'1-1", v1 >= 0, float(v1)),
        Condition("A'1-2", q2 <= 0, -float(q2)),
        Condition("A'1-3", v3 > 0, float(v3)),
        Condition("Dk'>0", D > 0, D),
        Condition("L55a", val_55a <= 0, -float(val_55a)),
        Condition("A'2", k <= bound, float(bound - k)),
    ]
    return AdmissibilityReport(
        k=k, regime=Regime.NEGATIVE_K, conditions=conditions,
        admissible=all(c.ok for c in conditions),
        extras={"a2_components": components, "a2_bound": bound, "a2_sup_term": sup4},
    )


def _regime_for_range(regime, k_lo: float, k_hi: float) -> Regime:
    """The Regime named by regime; a k range outside it raises ValidationError."""
    try:
        regime = Regime(regime)
    except ValueError:
        raise ValidationError("unknown regime %r" % (regime,)) from None
    if regime is Regime.POSITIVE_K and not (0.0 < k_lo and k_hi < PI2_OVER_4):
        raise ValidationError("regime mismatch: positive k range must lie in (0, pi^2/4)")
    if regime is Regime.NEGATIVE_K and not k_hi < 0.0:
        raise ValidationError("regime mismatch: negative k range must lie below 0")
    return regime


def scan_k(config: BoundaryConfig, lip: LipschitzData, regime, k_lo: float,
           k_hi: float, steps: int):
    """Uniform admissibility scan with bisection-refined interval endpoints.

    Returns a list of (lo, hi) pairs, the maximal admissible subintervals of
    [k_lo, k_hi] sampled at `steps` points and refined to 1e-4 in k.
    """
    regime = _regime_for_range(regime, k_lo, k_hi)
    if not (k_lo < k_hi):
        raise ValidationError("empty scan range: k_lo=%r k_hi=%r" % (k_lo, k_hi))
    if steps < 2:
        raise ValidationError("scan needs at least 2 steps, got %r" % steps)
    checker = check_positive_k if regime is Regime.POSITIVE_K else check_negative_k

    def admissible(k):
        return checker(config, k, lip).admissible

    ks = np.linspace(k_lo, k_hi, int(steps))
    flags = np.array([admissible(k) for k in ks])

    def refine(good, bad):
        # shrink [good, bad) toward the admissibility boundary
        while abs(bad - good) > SCAN_REFINE_TOL:
            mid = 0.5 * (good + bad)
            if admissible(mid):
                good = mid
            else:
                bad = mid
        return good

    intervals = []
    i = 0
    n = len(ks)
    while i < n:
        if not flags[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and flags[j + 1]:
            j += 1
        lo = float(ks[i]) if i == 0 else float(refine(ks[i], ks[i - 1]))
        hi = float(ks[j]) if j == n - 1 else float(refine(ks[j], ks[j + 1]))
        intervals.append((lo, hi))
        i = j + 1
    return intervals


def _bracket_box(problem, n):
    """The initial solutions c0 = lower0 and d0 = upper0 sampled on linspace(0, 1, n)."""
    xs = np.linspace(0.0, 1.0, n)
    return xs, problem.lower0.sample(x=xs), problem.upper0.sample(x=xs)


def _lipschitz_box(problem, nx, nu):
    """Sample points of the box the Lipschitz estimates search.

    Returns xs (nx,), U (nx, nu, 1) spanning [min, max] of c0 and d0 at
    each x in nu steps, and the half-width W of the |u'| range: the Nagumo
    P when one was found, otherwise the crude derivative-range fallback
    2 sup|c0', d0'| + 1.
    """
    xs, c0, d0 = _bracket_box(problem, nx)
    lo = np.minimum(c0, d0)
    hi = np.maximum(c0, d0)
    frac = np.linspace(0.0, 1.0, nu)
    U = lo[:, None, None] + (hi - lo)[:, None, None] * frac[None, :, None]
    nag = getattr(problem, "nagumo", None)
    if nag is not None and nag.success:
        W = nag.P
    else:
        W = 2.0 * float(max(np.max(np.abs(problem.lower0.diff("x").sample(x=xs))),
                            np.max(np.abs(problem.upper0.diff("x").sample(x=xs))))) + 1.0
    return xs, U, W


def estimate_l1(problem) -> float:
    """Estimate the one-sided Lipschitz constant of psi in u.

    Samples the signed partial d psi/du by central differences over the box
    between the initial solutions with |u'| bounded by the Nagumo P (or a
    crude derivative-range fallback when no P is available), then takes the
    positive part for the reverse ordering and the negative-part magnitude
    for the well ordering.
    """
    xs, U, W = _lipschitz_box(problem, BOX_SAMPLES, BOX_SAMPLES)
    X = xs[:, None, None]
    up = np.linspace(-W, W, 41)[None, None, :]
    e = 1e-5 * np.maximum(1.0, np.abs(U))
    with np.errstate(over="ignore", invalid="ignore"):
        plus = problem.psi.sample(x=X, u=U + e, up=up)
        minus = problem.psi.sample(x=X, u=U - e, up=up)
        d = (plus - minus) / (2 * e)
    if not np.all(np.isfinite(d)):
        raise NumericalError("non-finite psi samples in the Lipschitz box")
    if problem.ordering == "reverse":
        return float(max(np.max(d), 0.0))
    return float(max(np.max(-d), 0.0))


def estimate_lipschitz(problem) -> LipschitzData:
    """Estimate full Lipschitz data (L1 plus an L2 profile) from psi.

    The L2 profile is the per-x supremum of |d psi/du'| over the sample box,
    made nondecreasing by a running maximum. Prefer explicit overrides from
    the problem configuration when available; this estimator is a sampled
    stand-in.
    """
    l1 = estimate_l1(problem)
    xs, U, W = _lipschitz_box(problem, BOX_SAMPLES, 41)
    X = xs[:, None, None]
    up = np.linspace(-W, W, 41)[None, None, :]
    e = 1e-5 * np.maximum(1.0, np.abs(up))
    with np.errstate(over="ignore", invalid="ignore"):
        plus = problem.psi.sample(x=X, u=U, up=up + e)
        minus = problem.psi.sample(x=X, u=U, up=up - e)
        d = np.abs((plus - minus) / (2 * e))
    if not np.all(np.isfinite(d)):
        raise NumericalError("non-finite psi samples in the Lipschitz box")
    profile = np.maximum.accumulate(d.max(axis=(1, 2)))

    def l2_fn(pts):
        return np.interp(np.asarray(pts, float), xs, profile)

    return LipschitzData.from_callable(l1, l2_fn)


def nagumo_bound(problem) -> NagumoData:
    """Compute the derivative bound P from the growth majorant phi.

    P is the smallest value >= gamma with int_gamma^P s/phi(s) ds >= diameter,
    where gamma is twice the sup-norm of the dominating initial solution and
    diameter spans the initial bracket. When the improper integral to
    infinity stays below the diameter the verdict is a failure carrying that
    integral (tail).
    """
    phi_spec = getattr(problem, "nagumo_phi", None)
    if phi_spec is None:
        raise ValidationError("no Nagumo majorant configured for this problem")
    xs, c0, d0 = _bracket_box(problem, SUP_SAMPLES)
    if problem.ordering == "reverse":
        dominating = c0
        diameter = _refined_extremum(c0, xs) - _refined_extremum(d0, xs, sign=-1.0)
    else:
        dominating = d0
        diameter = _refined_extremum(d0, xs) - _refined_extremum(c0, xs, sign=-1.0)
    gamma = 2.0 * _refined_extremum(np.abs(dominating), xs)
    if diameter <= 0:
        raise ValidationError("negative diameter: the initial bracket is inverted")

    phi_text = None
    if phi_spec == "auto":
        phi_fn = _auto_majorant(problem, gamma, diameter)
        phi_text = "auto"
    elif isinstance(phi_spec, Expression):
        expr = phi_spec
        extra = set(expr.variables) - {"s"}
        if extra:
            raise ValidationError("phi may only depend on s, found %s" % sorted(extra))

        def phi_fn(s):
            with np.errstate(over="ignore"):
                return expr.sample(s=np.asarray(s, float))

        phi_text = expr.text
    else:
        phi_fn = phi_spec

    probe = phi_fn(np.linspace(0.0, gamma + 10.0 * (diameter + 1.0), 257))
    if np.min(probe) <= 0:
        raise ValidationError("phi must be positive on its sampling range")

    def integrand(s):
        with np.errstate(over="ignore", invalid="ignore"):
            v = s / phi_fn(s)
        return np.where(np.isfinite(v), v, 0.0)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            tail, terr = quad(integrand, gamma, np.inf, limit=200)
        except Exception:
            tail, terr = np.nan, np.nan

    def accumulated(P):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            val, _ = quad(integrand, gamma, P, limit=200)
        return val

    # trust the improper integral only when it is consistent with a finite
    # prefix of itself; on divergent integrands quad can return garbage with
    # a confident error estimate
    if np.isfinite(tail) and tail < diameter and terr < max(1e-8, 0.01 * (diameter - tail)):
        if tail >= max(0.0, accumulated(gamma + 1.0)) - 1e-9:
            return NagumoData(phi=phi_fn, gamma=gamma, P=None, diameter=diameter,
                              success=False, tail=float(tail), phi_text=phi_text)

    hi = gamma + 1.0
    cap = 1e12
    while accumulated(hi) < diameter:
        hi *= 2.0
        if hi > cap:
            reached = accumulated(cap)
            return NagumoData(phi=phi_fn, gamma=gamma, P=None, diameter=diameter,
                              success=False, tail=float(reached), phi_text=phi_text)
    P = brentq(lambda p: accumulated(p) - diameter, gamma, hi, xtol=1e-10)
    # keep the improper integral only when the quadrature actually resolved it
    reliable = np.isfinite(tail) and np.isfinite(terr) and terr < 0.01 * max(abs(tail), 1.0)
    return NagumoData(phi=phi_fn, gamma=gamma, P=float(P), diameter=diameter,
                      success=True, tail=float(tail) if reliable else None,
                      phi_text=phi_text)


def _auto_majorant(problem, gamma, diameter):
    """Sampled growth majorant: sup over the bracket of |psi| at each slope.

    Coarse by construction (nondecreasing envelope, constant beyond the
    sampling cap); prefer an explicit phi when certifying results.
    """
    xs, c0, d0 = _bracket_box(problem, BOX_SAMPLES)
    lo = np.minimum(c0, d0)
    hi = np.maximum(c0, d0)
    frac = np.linspace(0.0, 1.0, 41)
    U = lo[:, None] + (hi - lo)[:, None] * frac[None, :]
    s_cap = 10.0 * (gamma + diameter + 1.0)
    sgrid = np.linspace(0.0, s_cap, 241)
    vals = np.empty_like(sgrid)
    for j, s in enumerate(sgrid):
        with np.errstate(over="ignore", invalid="ignore"):
            a = np.abs(problem.psi.sample(x=xs[:, None], u=U, up=s))
            b = np.abs(problem.psi.sample(x=xs[:, None], u=U, up=-s))
        vals[j] = max(np.max(a), np.max(b))
    vals = np.maximum.accumulate(vals) + 1e-12

    def phi_fn(s):
        return np.interp(np.abs(np.asarray(s, float)), sgrid, vals)

    return phi_fn


def sign_table(config: BoundaryConfig, lip: LipschitzData, regime, k_lo: float,
               k_hi: float):
    """Sign table for the plotted admissibility quantities over a k-window.

    Returns a list of rows {id, crossings, first_crossing}; crossings counts
    sign changes of the quantity sampled at SIGN_TABLE_SAMPLES shifts,
    first_crossing refines the first one by root bracketing (None when the
    sign never changes).
    """
    regime = _regime_for_range(regime, k_lo, k_hi)
    ks = np.linspace(k_lo, k_hi, SIGN_TABLE_SAMPLES)
    if regime is Regime.POSITIVE_K:
        quantities = [
            ("L34a-sup", lambda r, k: _l34a_slope(lip.l1, lip.l2_sup, k, r)),
            ("A1-3", lambda r, k: _KERNEL_SIGN["A1-3"](config, r)),
            ("A1-2", lambda r, k: _KERNEL_SIGN["A1-2"](config, r)),
            ("Dk", lambda r, k: normalization_value(config, ShiftedOperator(k))),
        ]
    else:
        quantities = [
            ("A'1-1-endpoint", lambda t, k: t * np.cosh(t) - config.lambda2 * np.sinh(t)),
            ("A'1-2", lambda t, k: _KERNEL_SIGN["A'1-2"](config, t)),
            ("A'1-3", lambda t, k: _KERNEL_SIGN["A'1-3"](config, t)),
        ]

    rows = []
    for cid, fn in quantities:
        def at(k, fn=fn):
            return float(fn(np.sqrt(abs(k)), float(k)))

        changes = np.nonzero(np.diff(np.sign([at(k) for k in ks])) != 0)[0]
        first = None
        if changes.size:
            i = changes[0]
            first = float(brentq(at, ks[i], ks[i + 1], xtol=1e-10))
        rows.append({"id": cid, "crossings": int(changes.size), "first_crossing": first})
    return rows
