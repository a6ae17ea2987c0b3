"""Closed-form Green's kernels for the shifted operator -u'' - k u.

The boundary conditions couple endpoint derivatives to interior values,
u'(0) = lambda1*u(xi) and u'(1) = lambda2*u(eta). One formula serves both
shift regimes (0 < k < pi^2/4 and k < 0). It is written in the real
functions C(z) = cos(sqrt(k) z) and S(z) = sin(sqrt(k) z)/sqrt(k), which
are cosh(t z) and sinh(t z)/t for k < 0, t = sqrt(|k|). From them come the
left solution phi(z) = C(z) + lambda1 S(z - xi), the right solution
psi(z) = C(z - 1) + lambda2 S(z - eta) and the scalar
W = k S(1) + lambda2 C(eta) + lambda1 (lambda2 S(eta - xi) - C(xi - 1)).

G(x,s) has six branches, keyed by the s-region (s <= xi, xi < s <= eta,
eta < s) and the side, x <= s ("below" the diagonal) or x > s ("above").
KernelFunctions.terms lists each once, as x-factor times s-basis terms
over W; G and dG/dx both sum it, and _c_and_s gives the pair that splits
its S(s - x) and S(x - s) parts. Branch values are continuous across
x = s and the s = xi and s = eta seams; dG/dx jumps by exactly +1 across
x = s, as -G_xx - k G = delta(x - s) requires, and at x = s takes the
below branch, the limit from below. The boundary term is -phi/W.

The below branch satisfies the left boundary identity
G_x(0,s) = lambda1*G(xi,s) pointwise and the above branch the right one,
G_x(1,s) = lambda2*G(eta,s). Note that in the negative-k regime the
x-derivative is nonpositive only below the diagonal; above it, the unit jump
makes the slope positive over most of the region (see green_dx_sign_check).
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateKernelError, ValidationError

PI2_OVER_4 = np.pi ** 2 / 4

DEGENERATE_TOL = 1e-12
DX_SIGN_TOL = 1e-10


@dataclass(frozen=True)
class BoundaryConfig:
    """The four boundary coupling parameters: u'(0)=lambda1*u(xi), u'(1)=lambda2*u(eta)."""

    xi: float
    eta: float
    lambda1: float
    lambda2: float

    def __post_init__(self):
        for name in ("xi", "eta", "lambda1", "lambda2"):
            if not np.isfinite(getattr(self, name)):
                raise ValidationError(
                    "%s must be finite, got %r" % (name, getattr(self, name))
                )
        if not (0.0 < self.xi <= self.eta < 1.0):
            raise ValidationError(
                "boundary points must satisfy 0 < xi <= eta < 1, got xi=%r eta=%r"
                % (self.xi, self.eta)
            )
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValidationError(
                "lambda1 and lambda2 must be nonnegative, got %r, %r"
                % (self.lambda1, self.lambda2)
            )


class Regime(enum.Enum):
    POSITIVE_K = "positive"
    NEGATIVE_K = "negative"


@dataclass(frozen=True)
class ShiftedOperator:
    """The shift k of -u'' - k u. The regime is a pure function of k."""

    k: float

    def __post_init__(self):
        if self.k == 0:
            raise ValidationError("k = 0 is rejected, the operator must be shifted")
        if self.k > 0 and self.k >= PI2_OVER_4:
            raise ValidationError(
                "positive k must lie in (0, pi^2/4), got %r" % self.k
            )
        if not np.isfinite(self.k):
            raise ValidationError("k must be finite, got %r" % self.k)

    @property
    def regime(self) -> Regime:
        return Regime.POSITIVE_K if self.k > 0 else Regime.NEGATIVE_K

    @property
    def root(self) -> float:
        """sqrt(|k|), precomputed once per operator."""
        return float(np.sqrt(abs(self.k)))


@dataclass(frozen=True)
class KernelSample:
    """One kernel evaluation. On the diagonal x = s the derivative stored is
    the one-sided limit from below (x -> s-), flagged by diagonal_left_limit."""

    x: float
    s: float
    value: float
    dvalue_dx: float
    diagonal_left_limit: bool = False


class KernelFunctions:
    """Vectorized kernel closures for one (config, operator) pair.

    terms lists each branch of W*G once, keyed by (above, region): above is
    x > s, and region 0, 1, 2 is s <= xi, xi < s <= eta, s > eta. A branch
    is a sum of terms (f, df, b), each f(x)*b(s) with df = f'. value(x, s)
    and dvalue_dx(x, s) sum f*b or df*b over the branch (x, s) falls in, the
    below one where x <= s, and divide by W. boundary_term(x) multiplies the
    boundary constant and boundary_term_dx is its derivative. A resonant
    shift raises DegenerateKernelError.
    """

    def __init__(self, config: BoundaryConfig, op: ShiftedOperator):
        normalization(config, op)
        xi, eta, l1, l2 = config.xi, config.eta, config.lambda1, config.lambda2
        C, S, y1, dy1 = _c_and_s(op)
        W = _scaled_normalization(config, op)
        dC = lambda z: -op.k * S(z)  # noqa: E731
        C1, dC1 = (lambda z: C(z - 1)), (lambda z: dC(z - 1))
        # phi meets the left boundary condition, psi the right one
        phi = lambda z: C(z) + l1 * S(z - xi)  # noqa: E731
        dphi = lambda z: dC(z) + l1 * C(z - xi)  # noqa: E731
        psi = lambda z: C(z - 1) + l2 * S(z - eta)  # noqa: E731
        dpsi = lambda z: dC(z - 1) + l2 * C(z - eta)  # noqa: E731
        a1 = l1 * (l2 * S(eta - xi) - C(xi - 1))  # left coupling at s <= xi
        a3 = l2 * phi(eta)  # right coupling at s > eta
        # a1 S(s - x) and a3 S(x - s) as y1(b) S(a) - S(b) y1(a), larger term first
        self.terms = {
            (False, 0): ((C, dC, psi), (y1, dy1, lambda z: a1 * S(z)),
                         (S, C, lambda z: -a1 * y1(z))),
            (False, 1): ((phi, dphi, psi),),
            (False, 2): ((phi, dphi, C1),),
            (True, 0): ((psi, dpsi, C),),
            (True, 1): ((psi, dpsi, phi),),
            (True, 2): ((C1, dC1, phi), (S, C, lambda z: a3 * y1(z)),
                        (y1, dy1, lambda z: -a3 * S(z))),
        }

        def evaluate(x, s, part):
            x, s = np.asarray(x, float), np.asarray(s, float)

            def side(above):
                b0, b1, b2 = (sum(t[part](x) * t[2](s) for t in self.terms[above, region])
                              for region in range(3))
                return np.where(s <= xi, b0, np.where(s <= eta, b1, b2))

            return np.where(x <= s, side(False), side(True)) / W

        self.value = lambda x, s: evaluate(x, s, 0)
        self.dvalue_dx = lambda x, s: evaluate(x, s, 1)
        self.boundary_term = lambda x: -phi(np.asarray(x, float)) / W
        self.boundary_term_dx = lambda x: -dphi(np.asarray(x, float)) / W


def kernel_functions(config: BoundaryConfig, op: ShiftedOperator) -> KernelFunctions:
    """Build the kernel closures for a (config, operator) pair."""
    return KernelFunctions(config, op)


def _c_and_s(op: ShiftedOperator):
    """C(z) = cos(sqrt(k) z), S(z) = sin(sqrt(k) z)/sqrt(k), y1 and y1'.

    For k < 0, C and S are cosh(t z) and sinh(t z)/t, t = sqrt(|k|); either
    way C' = -k S and S' = C. y1 is C for k > 0 and exp(-t z) for k < 0.
    Either way y1 S' - y1' S = 1, so S(a - b) = y1(b) S(a) - S(b) y1(a),
    and for k < 0 neither product exceeds e^(t|a - b|)/t on [0, 1], where
    C's products grow like e^(t(a + b)) and cancel. This is the only place
    the kernel branches on the sign of k.
    """
    r = op.root
    if op.k > 0:
        C, S = (lambda z: np.cos(r * z)), (lambda z: np.sin(r * z) / r)
        return C, S, C, (lambda z: -op.k * S(z))
    return (lambda z: np.cosh(r * z)), (lambda z: np.sinh(r * z) / r), \
        (lambda z: np.exp(-r * z)), (lambda z: -r * np.exp(-r * z))


def _scaled_normalization(config: BoundaryConfig, op: ShiftedOperator) -> float:
    """W, the divisor of every kernel branch and of the boundary term."""
    C, S = _c_and_s(op)[:2]
    xi, eta = config.xi, config.eta
    l1, l2 = config.lambda1, config.lambda2
    return op.k * S(1.0) + l2 * C(eta) + l1 * (l2 * S(eta - xi) - C(xi - 1))


def normalization_value(config: BoundaryConfig, op: ShiftedOperator) -> float:
    """The raw normalization scalar (k / sqrt|k|) W, without the degeneracy threshold.

    For k > 0 this is D = k sin(r) + lambda2 r cos(r eta)
    + lambda1 (lambda2 sin(r (eta-xi)) - r cos(r (xi-1))), r = sqrt(k); for
    k < 0 it is D' = |k| sinh(t) - lambda2 t cosh(t eta)
    - lambda1 lambda2 sinh(t (eta-xi)) + lambda1 t cosh(t (xi-1)), t = sqrt(|k|).
    """
    return float(op.k / op.root * _scaled_normalization(config, op))


def normalization(config: BoundaryConfig, op: ShiftedOperator) -> float:
    """Normalization scalar D; reports a degenerate (resonant) kernel.

    Raises DegenerateKernelError when the kernel divisor |W| < 1e-12 rather
    than silently accepting it, since a vanishing divisor invalidates every
    sign certificate downstream. The test is on W, not on D = (k/sqrt|k|) W,
    because D also goes to 0 like sqrt|k| as k -> 0 while the kernel stays
    well defined.
    """
    W = _scaled_normalization(config, op)
    if abs(W) < DEGENERATE_TOL:
        raise DegenerateKernelError(
            "kernel normalization is degenerate: |W| = %.3e < %.0e at k = %r"
            % (abs(W), DEGENERATE_TOL, op.k)
        )
    return normalization_value(config, op)


def green_eval(config: BoundaryConfig, op: ShiftedOperator, x: float, s: float) -> KernelSample:
    """Evaluate G and its x-derivative at one point.

    The derivative follows the kernel's x <= s rule: below branch for
    x <= s, above branch for x > s. On the diagonal that is the limit from
    below, flagged by diagonal_left_limit; the limit from above is one more.
    """
    if not (0.0 <= x <= 1.0 and 0.0 <= s <= 1.0):
        raise ValidationError("x and s must lie in [0, 1], got x=%r s=%r" % (x, s))
    fns = kernel_functions(config, op)
    return KernelSample(x=x, s=s, value=float(fns.value(x, s)),
                        dvalue_dx=float(fns.dvalue_dx(x, s)),
                        diagonal_left_limit=bool(x == s))


@dataclass
class DxSignReport:
    """Result of the off-diagonal derivative sign check (negative regime).

    ok is the blanket verdict over all off-diagonal points. The two sides
    are reported separately because they behave differently: below the
    diagonal (x < s) the derivative is nonpositive, while above it the unit
    derivative jump at x = s makes the slope positive over most of the
    region, so the blanket claim fails there for typical data.
    """

    ok: bool
    ok_below: bool
    ok_above: bool
    max_below: float
    max_above: float
    worst_below: tuple
    worst_above: tuple
    tolerance: float

    def __bool__(self):
        return self.ok

    def to_dict(self):
        return {
            "ok": self.ok,
            "ok_below": self.ok_below,
            "ok_above": self.ok_above,
            "max_below": self.max_below,
            "max_above": self.max_above,
            "worst_below": list(self.worst_below),
            "worst_above": list(self.worst_above),
            "tolerance": self.tolerance,
        }


def green_dx_sign_check(config: BoundaryConfig, op: ShiftedOperator, grid) -> DxSignReport:
    """Check dG/dx <= DX_SIGN_TOL at every off-diagonal point of grid x grid.

    Only meaningful in the negative-k regime (regime mismatch otherwise).
    """
    if op.regime is not Regime.NEGATIVE_K:
        raise ValidationError(
            "regime mismatch: the derivative sign check applies to negative k only, got k=%r" % op.k
        )
    fns = kernel_functions(config, op)
    nodes = np.asarray(grid, float)
    X = nodes[:, None]
    S = nodes[None, :]
    d = fns.dvalue_dx(X, S)

    def side_max(mask):
        vals = np.where(mask, d, -np.inf)
        idx = np.unravel_index(np.argmax(vals), vals.shape)
        return float(vals[idx]), (float(nodes[idx[0]]), float(nodes[idx[1]]))

    max_b, worst_b = side_max(X < S)
    max_a, worst_a = side_max(X > S)
    ok_b = max_b <= DX_SIGN_TOL
    ok_a = max_a <= DX_SIGN_TOL
    return DxSignReport(
        ok=ok_b and ok_a, ok_below=ok_b, ok_above=ok_a,
        max_below=max_b, max_above=max_a,
        worst_below=worst_b, worst_above=worst_a,
        tolerance=DX_SIGN_TOL,
    )
