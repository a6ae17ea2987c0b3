"""Certify the hypotheses behind the monotone iteration.

Covers the kernel-sign conditions for both regimes, the slope inequalities
tying the Lipschitz data to the shift k and the combined negative-k bound
with its four components, all written once as margins over an array of k
(margin_table), the admissible-k scan with bisection-refined interval
endpoints, Lipschitz constant estimation from the source term, and the
Nagumo derivative bound P.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError
from .expressions import Expression, require_variables
from .kernel import PI2_OVER_4, BoundaryConfig, Regime, ShiftedOperator, normalization_value

SUP_SAMPLES = 2001
# the x samples every sup over [0, 1] is taken on
SUP_XS = np.linspace(0.0, 1.0, SUP_SAMPLES)
SCAN_REFINE_TOL = 1e-4
# the most k samples one scan takes
MAX_SCAN_STEPS = 10 ** 6
# x samples of the bracket box searched by the Lipschitz estimates and the
# sampled Nagumo majorant
BOX_SAMPLES = 121
# k samples of a sign_table window
SIGN_TABLE_SAMPLES = 2000
# Gauss-Legendre nodes and weights on [-1, 1] for each quadrature panel
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)
# _integrate's panel tolerance (a fraction of the whole) and halving limits
_QUAD_RTOL, _QUAD_LEVELS, _QUAD_PANELS = 1e-13, 200, 4096
# rounds in which a mapped tail's end panel must halve or double, or it is given up
_QUAD_STALL = 10


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


@dataclass(eq=False)
class LipschitzData:
    """One-sided Lipschitz constant in u and the Lipschitz profile in u'.

    l2 and l2prime hold L2(x) and L2'(x) sampled once on SUP_XS.
    notes holds sampled-invariant violations (nonzero at the origin,
    decreasing somewhere, negative somewhere) without rejecting the data;
    a non-finite L2 or L2' sample is rejected.
    """

    l1: float
    l2: np.ndarray
    l2prime: np.ndarray
    l2_sup: float
    l2prime_sup: float
    l2_text: str | None = None
    notes: tuple = ()

    def __post_init__(self):
        if not np.isfinite(self.l1) or self.l1 < 0:
            raise ValidationError("L1 must be a nonnegative number, got %r" % self.l1)

    @classmethod
    def from_expression(cls, l1: float, l2_expr: Expression) -> "LipschitzData":
        require_variables(l2_expr, {"x"}, "L2")
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            vals = l2_expr.sample(x=SUP_XS)
            dvals = l2_expr.diff("x").sample(x=SUP_XS)
        return cls._build(l1, vals, dvals, l2_text=l2_expr.text)

    @classmethod
    def from_callable(cls, l1: float, l2_callable) -> "LipschitzData":
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            vals = np.broadcast_to(np.asarray(l2_callable(SUP_XS), float),
                                   SUP_XS.shape).copy()
            dvals = np.gradient(vals, SUP_XS)
        return cls._build(l1, vals, dvals, l2_text=None)

    @classmethod
    def _build(cls, l1, vals, dvals, l2_text):
        for name, v in (("L2", vals), ("L2'", dvals)):
            if not np.all(np.isfinite(v)):
                raise ValidationError("%s is not finite at x = %r"
                                      % (name, float(SUP_XS[np.argmin(np.isfinite(v))])))
        notes = []
        if abs(vals[0]) > 1e-9:
            notes.append("L2(0) is not zero (%.3e)" % vals[0])
        if np.min(vals) < -1e-9:
            notes.append("L2 is negative somewhere (min %.3e)" % np.min(vals))
        if np.min(np.diff(vals)) < -1e-9:
            notes.append("L2 is not nondecreasing")
        return cls(
            l1=float(l1),
            l2=vals,
            l2prime=dvals,
            l2_sup=_refined_extremum(vals, SUP_XS),
            l2prime_sup=_refined_extremum(dvals, SUP_XS),
            l2_text=l2_text,
            notes=tuple(notes),
        )


@dataclass
class NagumoData:
    """Derivative bound data: gamma, diameter, and P.

    success False means the improper integral of s/phi could not reach the
    bracket diameter; tail then carries that integral's value and P is None.
    """

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


# kernel-sign margins shared by margin_table and sign_table;
# r = sqrt(k) for k > 0, t = sqrt(|k|) for k < 0
_KERNEL_SIGN = {
    "A1-2": lambda c, r: r * np.cos(r) - c.lambda2 * np.sin(r * c.eta),
    "A1-3": lambda c, r: r - c.lambda1 * np.sin(r * c.xi),
    "A'1-2": lambda c, t: t * np.sinh(t * c.xi) + (c.lambda1 - t) * np.cosh(t * c.xi),
    "A'1-3": lambda c, t: t - c.lambda1 * np.cosh(t * c.xi),
}
# the conditions that pass on margin > 0; every other one passes on margin >= 0
_STRICT = {"Dk>0", "A1-3", "A'1-3", "Dk'>0"}


def _l34a_slope(l1, l2_sup, k, r):
    """(L1 - k) cos r + sup L2 r sin r with r = sqrt(k): the sup over x of L34a's slope.

    For 0 < r < pi/2, r sin r > 0, so the sup over x of
    (L1 - k) cos r + L2(x) r sin r is taken where L2 is largest.
    """
    return (l1 - k) * np.cos(r) + l2_sup * r * np.sin(r)


def _a2_bound(config, lip):
    """A'2's bound on k, with its components and sup term; it does not depend on k.

    A negative L2^2 + 4(L1 + L2') somewhere (possible only where L2' < 0)
    leaves the bound undefined and raises ValidationError.
    """
    l2v, l2pv = lip.l2, lip.l2prime
    disc = l2v ** 2 + 4 * (lip.l1 + l2pv)
    if np.any(disc < 0):
        raise ValidationError(
            "A'2 is undefined: L2^2 + 4(L1 + L2') < 0 at x = %r"
            % float(SUP_XS[np.argmax(disc < 0)]))
    sup4 = _refined_extremum(lip.l1 + l2pv + 0.5 * l2v ** 2 + 0.5 * l2v * np.sqrt(disc), SUP_XS)
    components = {
        "neg_l1": -lip.l1,
        "neg_lambda1_sq": -config.lambda1 ** 2,
        "ratio": ((lip.l1 + config.lambda1 * lip.l2_sup) / (1 - lip.l2_sup)
                  if 1 - lip.l2_sup > 0 else None),
        "neg_sup_combined": -sup4,
    }
    bound = min(v for v in components.values() if v is not None)
    return {"a2_components": components, "a2_bound": bound, "a2_sup_term": sup4}


def margin_table(config: BoundaryConfig, lip: LipschitzData, ks):
    """Every admissibility condition of one regime as a margin over the shifts ks.

    ks is a 1-d array of shifts of one sign; ShiftedOperator checks each k
    as its D is computed, before any other margin. Returns ({id: (ok,
    margin)}, extras), ok and margin with one entry per k, the ids in
    report order. Each margin is its condition's inequality moved to one
    side, signed so that it passes on margin > 0 (Dk>0, A1-3, A'1-3, Dk'>0)
    or margin >= 0 (the rest); r = sqrt(|k|). extras is _a2_bound's for
    k < 0, else empty.
    """
    ks = np.asarray(ks, float)
    D = np.array([normalization_value(config, ShiftedOperator(float(k))) for k in ks])
    r = np.sqrt(np.abs(ks))
    if ks[0] > 0:
        extras = {}
        margins = {
            "Dk>0": D,
            "A1-2": _KERNEL_SIGN["A1-2"](config, r),
            "A1-3": _KERNEL_SIGN["A1-3"](config, r),
            "L34a": -_l34a_slope(lip.l1, lip.l2_sup, ks, r),
            "L34b": -((lip.l1 - ks) + lip.l2prime_sup),
        }
    else:
        extras = _a2_bound(config, lip)
        sup_slope = np.array([_refined_extremum(lip.l2prime + lip.l2 * t, SUP_XS)
                              for t in r.tolist()])
        margins = {
            "A'1-1": r * np.sinh(r) - config.lambda2 * np.cosh(r * config.eta),
            "A'1-2": -_KERNEL_SIGN["A'1-2"](config, r),
            "A'1-3": _KERNEL_SIGN["A'1-3"](config, r),
            "Dk'>0": D,
            "L55a": -((lip.l1 + ks) + sup_slope),
            "A'2": extras["a2_bound"] - ks,
        }
    return {cid: (m > 0 if cid in _STRICT else m >= 0, m)
            for cid, m in margins.items()}, extras


def _report(config, k, lip, regime):
    """The AdmissibilityReport of one k, read off its one-row margin_table."""
    table, extras = margin_table(config, lip, [k])
    conditions = [Condition(cid, ok[0], margin[0]) for cid, (ok, margin) in table.items()]
    return AdmissibilityReport(k=k, regime=regime, conditions=conditions,
                               admissible=all(c.ok for c in conditions), extras=extras)


def check_positive_k(config: BoundaryConfig, k: float, lip: LipschitzData) -> AdmissibilityReport:
    """Certify a positive shift: the Dk>0, A1-2, A1-3, L34a and L34b rows of margin_table.

    k must lie in (0, pi^2/4), or ValidationError is raised.
    """
    if not (0.0 < k < PI2_OVER_4):
        raise ValidationError("k out of regime: positive checks need 0 < k < pi^2/4, got %r" % k)
    return _report(config, k, lip, Regime.POSITIVE_K)


def check_negative_k(config: BoundaryConfig, k: float, lip: LipschitzData) -> AdmissibilityReport:
    """Certify a negative shift: the A'1-1 to A'2 rows of margin_table.

    k must be negative, or ValidationError is raised; so is a non-finite k
    (before any margin is computed) and an undefined A'2 bound. extras
    carries the A'2 bound, its components and sup term.
    """
    if k >= 0:
        raise ValidationError("k out of regime: negative checks need k < 0, got %r" % k)
    return _report(config, k, lip, Regime.NEGATIVE_K)


def check_k(config: BoundaryConfig, k: float, lip: LipschitzData) -> AdmissibilityReport:
    """Certify k with the check of its regime.

    That is check_positive_k for k > 0, otherwise check_negative_k, which
    rejects k = 0. Both are looked up at call time, so a rebinding is seen.
    """
    checker = check_positive_k if k > 0 else check_negative_k
    return checker(config, k, lip)


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
    [k_lo, k_hi] sampled at `steps` points (one margin_table) and refined to
    1e-4 in k by bisection on check_k.
    """
    _regime_for_range(regime, k_lo, k_hi)
    if not (k_lo < k_hi):
        raise ValidationError("empty scan range: k_lo=%r k_hi=%r" % (k_lo, k_hi))
    if not 2 <= steps <= MAX_SCAN_STEPS:
        raise ValidationError("scan needs 2 to %d steps, got %r" % (MAX_SCAN_STEPS, steps))
    ks = np.linspace(k_lo, k_hi, int(steps))
    table, _ = margin_table(config, lip, ks)
    flags = np.logical_and.reduce([ok for ok, _ in table.values()])
    # runs of admissible samples start at the even and end at the odd edges
    edges = np.flatnonzero(np.diff(np.r_[False, flags, False]))

    def refine(good, bad):
        # shrink [good, bad) toward the admissibility boundary
        while abs(bad - good) > SCAN_REFINE_TOL:
            mid = 0.5 * (good + bad)
            if check_k(config, mid, lip).admissible:
                good = mid
            else:
                bad = mid
        return float(good)

    last = len(ks) - 1
    return [(float(ks[i]) if i == 0 else refine(ks[i], ks[i - 1]),
             float(ks[j]) if j == last else refine(ks[j], ks[j + 1]))
            for i, j in zip(edges[::2], edges[1::2] - 1)]


def _bracket_box(problem, n):
    """The initial solutions c0 = lower0 and d0 = upper0 sampled on linspace(0, 1, n)."""
    xs = np.linspace(0.0, 1.0, n)
    return xs, problem.lower0.sample(x=xs), problem.upper0.sample(x=xs)


def _u_box(problem, nu):
    """xs (BOX_SAMPLES,) and U (BOX_SAMPLES, nu): nu values of u spanning
    [min, max] of c0 and d0 at each x, the box the psi estimates search."""
    xs, c0, d0 = _bracket_box(problem, BOX_SAMPLES)
    lo = np.minimum(c0, d0)
    hi = np.maximum(c0, d0)
    return xs, lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, nu)[None, :]


def _psi_partial(problem, xs, U, wrt):
    """Central-difference d psi/d wrt (wrt "u" or "up") over xs x U x 41 slopes.

    The slopes span [-W, W]: W is the Nagumo P when one was found,
    otherwise the crude derivative-range fallback 2 sup|c0', d0'| + 1.
    A non-finite sample raises NumericalError.
    """
    nag = getattr(problem, "nagumo", None)
    if nag is not None and nag.success:
        W = nag.P
    else:
        W = 2.0 * float(max(np.max(np.abs(problem.lower0.diff("x").sample(x=xs))),
                            np.max(np.abs(problem.upper0.diff("x").sample(x=xs))))) + 1.0
    at = {"x": xs[:, None, None], "u": U[:, :, None],
          "up": np.linspace(-W, W, 41)[None, None, :]}
    e = 1e-5 * np.maximum(1.0, np.abs(at[wrt]))
    with np.errstate(over="ignore", invalid="ignore"):
        plus = problem.psi.sample(**{**at, wrt: at[wrt] + e})
        minus = problem.psi.sample(**{**at, wrt: at[wrt] - e})
        d = (plus - minus) / (2 * e)
    if not np.all(np.isfinite(d)):
        raise NumericalError("non-finite psi samples in the Lipschitz box")
    return d


def estimate_l1(problem) -> float:
    """Estimate the one-sided Lipschitz constant of psi in u.

    Samples the signed partial d psi/du by central differences over the box
    between the initial solutions with |u'| bounded by the Nagumo P (or a
    crude derivative-range fallback when no P is available), then takes the
    positive part for the reverse ordering and the negative-part magnitude
    for the well ordering.
    """
    xs, U = _u_box(problem, BOX_SAMPLES)
    d = _psi_partial(problem, xs, U, "u")
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
    xs, U = _u_box(problem, 41)
    d = np.abs(_psi_partial(problem, xs, U, "up"))
    profile = np.maximum.accumulate(d.max(axis=(1, 2)))
    return LipschitzData.from_callable(l1, lambda pts: np.interp(pts, xs, profile))


def _panel_sums(f, lo, hi):
    """The Gauss-Legendre estimate of the integral of f over each [lo_i, hi_i]."""
    half = 0.5 * (hi - lo)
    return half * (f((lo + half)[:, None] + half[:, None] * _GL_NODES) @ _GL_WEIGHTS)


def _integrate(f, a, b, breaks):
    """(value, error estimate) of the integral of f from a to b.

    Adaptive composite Gauss-Legendre: the panels start at the breaks inside
    (a, b), where f may have kinks, and each is halved until its estimate
    and the sum over its halves agree. The value sums the halves and the
    error their disagreements; the error is inf when a panel is still open
    after the last round, so an integral that does not settle is not
    trusted. b = inf is mapped by s = a - c + c/u with c = |a| + 1, from
    u in (0, 1] (QUADPACK qagi's map, scaled by c), so halving toward u = 0
    follows an algebraic tail out to s of order c 2**_QUAD_LEVELS. A tail
    whose open panel at u = 0 has neither halved nor doubled in the last
    _QUAD_STALL rounds goes like u**(p-1) with |p| < 0.1 there: it diverges,
    or settles only after more than the 200 rounds, so it is given up at
    once with error inf.
    """
    mapped = b == np.inf
    if mapped:
        c = abs(a) + 1.0
        g, shift = f, a - c

        def f(u):
            return g(shift + c / u) * (c / u ** 2)

        breaks = [c / (x - a + c) for x in breaks if x > a]
        a, b = 0.0, 1.0
    edges = np.array(sorted({a, b, *(x for x in breaks if a < x < b)}))
    lo, hi = edges[:-1], edges[1:]
    est = _panel_sums(f, lo, hi)
    value = error = 0.0
    end = []  # a mapped tail's open panel at u = 0, its estimate each round
    for _ in range(_QUAD_LEVELS):
        if mapped and lo[0] == 0.0:
            end.append(abs(est[0]))
            past = end[-1 - _QUAD_STALL] if len(end) > _QUAD_STALL else np.inf
            if 0.5 * past < end[-1] < 2.0 * past:
                break
        mid = 0.5 * (lo + hi)
        halves = _panel_sums(f, np.r_[lo, mid], np.r_[mid, hi])
        left, right = halves[:lo.size], halves[lo.size:]
        diff = np.abs(left + right - est)
        done = diff <= _QUAD_RTOL * abs(value + halves.sum())
        value += left[done].sum() + right[done].sum()
        error += diff[done].sum()
        if done.all():
            return value, error
        lo, hi = np.r_[lo[~done], mid[~done]], np.r_[mid[~done], hi[~done]]
        est = np.r_[left[~done], right[~done]]
        if lo.size > _QUAD_PANELS:
            break
    return value + est.sum(), np.inf


def _root(f, a, b):
    """A root of f between a and b, where f(a) and f(b) differ in sign.

    Bisects until the bracket is narrower than 1e-10 + 4 eps |a| (brentq's
    stopping rule at xtol=1e-10) and returns its midpoint.
    """
    fa = f(a)
    if fa == 0:
        return a
    while abs(b - a) > 1e-10 + 4 * np.finfo(float).eps * abs(a):
        mid = 0.5 * (a + b)
        fm = f(mid)
        if fm == 0:
            return mid
        if (fm > 0) == (fa > 0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)


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

    breaks = ()
    if phi_spec == "auto":
        phi_fn, breaks = _auto_majorant(problem, gamma, diameter)
        phi_text = "auto"
    elif isinstance(phi_spec, Expression):
        expr = require_variables(phi_spec, {"s"}, "phi")

        def phi_fn(s):
            with np.errstate(over="ignore"):
                return expr.sample(s=np.asarray(s, float))

        phi_text = expr.text
    else:
        raise ValidationError("phi must be \"auto\" or an expression in s, got %r"
                              % (phi_spec,))

    with np.errstate(invalid="ignore", divide="ignore"):
        probe = phi_fn(np.linspace(0.0, gamma + 10.0 * (diameter + 1.0), 257))
    if not np.all(probe > 0):
        raise ValidationError("phi must be defined and positive on its sampling range")

    def integrand(s):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            v = s / phi_fn(s)
        return np.where(np.isfinite(v), v, 0.0)

    tail, terr = _integrate(integrand, gamma, np.inf, breaks)

    def accumulated(P):
        return _integrate(integrand, gamma, P, breaks)[0]

    # trust the improper integral only when it is consistent with a finite
    # prefix of itself
    if np.isfinite(tail) and tail < diameter and terr < max(1e-8, 0.01 * (diameter - tail)):
        if tail >= max(0.0, accumulated(gamma + 1.0)) - 1e-9:
            return NagumoData(gamma=gamma, P=None, diameter=diameter,
                              success=False, tail=float(tail), phi_text=phi_text)

    hi = gamma + 1.0
    cap = 1e12
    while accumulated(hi) < diameter:
        hi *= 2.0
        if hi > cap:
            reached = accumulated(cap)
            return NagumoData(gamma=gamma, P=None, diameter=diameter,
                              success=False, tail=float(reached), phi_text=phi_text)
    P = _root(lambda p: accumulated(p) - diameter, gamma, hi)
    # keep the improper integral only when the quadrature actually resolved it
    reliable = np.isfinite(tail) and np.isfinite(terr) and terr < 0.01 * max(abs(tail), 1.0)
    return NagumoData(gamma=gamma, P=float(P), diameter=diameter,
                      success=True, tail=float(tail) if reliable else None,
                      phi_text=phi_text)


def _auto_majorant(problem, gamma, diameter):
    """Sampled growth majorant: sup over the bracket of |psi| at each slope.

    Returns phi and its knots: phi is piecewise linear between them, a
    nondecreasing envelope, constant beyond the sampling cap. Coarse by
    construction; prefer an explicit phi when certifying results.
    """
    xs, U = _u_box(problem, 41)
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

    return phi_fn, sgrid


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
            first = float(_root(at, ks[i], ks[i + 1]))
        rows.append({"id": cid, "crossings": int(changes.size), "first_crossing": first})
    return rows
