"""Problem configuration files: schema, validation, and the bundled examples.

The on-disk format is JSON with the exact keys below. from_dict/to_dict
round-trip exactly, so configs can be rewritten without drift.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

from .admissibility import MAX_SCAN_STEPS, LipschitzData, estimate_lipschitz, nagumo_bound
from .errors import ValidationError
from .expressions import Expression, parse_expression, require_variables
from .kernel import PI2_OVER_4, BoundaryConfig
from .linear_bvp import MAX_GRID_N
from .monotone import ORDERINGS, NonlinearProblem, require_shift_sign

_TOP_KEYS = {"boundary", "psi", "lower0", "upper0", "ordering", "k",
             "grid_n", "tol", "max_iter", "lipschitz", "nagumo"}
_BOUNDARY_KEYS = ("xi", "eta", "lambda1", "lambda2")
_RANGE_KEYS = {"lo", "hi", "steps"}
_LIP_KEYS = {"L1", "L2"}
_NAGUMO_KEYS = {"phi"}
# the types of a number field, which _require returns as a float
_NUMBER = (int, float)


def _require(data, key, types, where):
    if key not in data:
        raise ValidationError("missing %r in %s" % (key, where))
    val = data[key]
    if not isinstance(val, types):
        raise ValidationError("%s.%s has wrong type %s" % (where, key, type(val).__name__))
    if isinstance(val, bool):
        raise ValidationError("%s.%s must be numeric, got a boolean" % (where, key))
    if types == _NUMBER:  # an int too large for a float is refused
        try:
            return float(val)
        except OverflowError:
            raise ValidationError("%s.%s is too large for a float" % (where, key)) from None
    return val


def _reject_unknown(data, allowed, where):
    unknown = set(data).difference(allowed)
    if unknown:
        raise ValidationError("unknown keys in %s: %s" % (where, sorted(unknown)))


def _expression(data, key, where, allowed):
    """data[key] parsed, its variables checked against allowed."""
    expr = parse_expression(_require(data, key, str, where))
    return require_variables(expr, allowed, "%s.%s" % (where, key))


def _finite_k(data, key, where):
    k = _require(data, key, _NUMBER, where)
    if not math.isfinite(k):
        raise ValidationError("%s.%s must be finite, got %r" % (where, key, k))
    return k


@dataclass
class ProblemConfig:
    """Validated problem description matching the JSON file schema.

    The expressions are stored parsed. k is either a single shift value or
    a scan range dict {lo, hi, steps}; every k it holds has the sign the
    ordering needs. lipschitz (optional) overrides the estimated data with
    explicit L1 and an L2 expression in x; nagumo.phi is an expression in s
    or "auto".
    """

    boundary_config: BoundaryConfig
    psi: Expression
    lower0: Expression
    upper0: Expression
    ordering: str
    k: object
    grid_n: int
    tol: float
    max_iter: int
    lipschitz: dict | None = None
    nagumo: dict | None = None

    @classmethod
    def from_dict(cls, data: dict) -> "ProblemConfig":
        if not isinstance(data, dict):
            raise ValidationError("config must be a JSON object")
        _reject_unknown(data, _TOP_KEYS, "config")
        boundary = _require(data, "boundary", dict, "config")
        _reject_unknown(boundary, _BOUNDARY_KEYS, "boundary")
        boundary_config = BoundaryConfig(*(
            _require(boundary, key, _NUMBER, "boundary") for key in _BOUNDARY_KEYS))

        psi = _expression(data, "psi", "config", {"x", "u", "up"})
        lower0 = _expression(data, "lower0", "config", {"x"})
        upper0 = _expression(data, "upper0", "config", {"x"})

        ordering = _require(data, "ordering", str, "config")
        if ordering not in ORDERINGS:
            raise ValidationError("ordering must be one of %s, got %r"
                                  % (ORDERINGS, ordering))

        k = data.get("k")
        if isinstance(k, dict):
            _reject_unknown(k, _RANGE_KEYS, "k")
            lo, hi = _finite_k(k, "lo", "k"), _finite_k(k, "hi", "k")
            steps = _require(k, "steps", int, "k")
            if not lo < hi:
                raise ValidationError("k range needs lo < hi")
            if not 2 <= steps <= MAX_SCAN_STEPS:
                raise ValidationError("k range needs 2 <= steps <= %d" % MAX_SCAN_STEPS)
            k = {"lo": lo, "hi": hi, "steps": int(steps)}
            shifts = (lo, hi)
        elif isinstance(k, _NUMBER):  # _finite_k rejects a boolean
            k = _finite_k(data, "k", "config")
            shifts = (k,)
        else:
            raise ValidationError("config.k must be a number or a range object")
        for shift in shifts:
            require_shift_sign(ordering, shift)

        grid_n = _require(data, "grid_n", int, "config")
        if not 5 <= grid_n <= MAX_GRID_N:
            raise ValidationError("grid_n must be 5 to %d" % MAX_GRID_N)
        tol = _require(data, "tol", _NUMBER, "config")
        if not 0 < tol < float("inf"):
            raise ValidationError("tol must be positive and finite")
        max_iter = _require(data, "max_iter", int, "config")
        if max_iter < 1:
            raise ValidationError("max_iter must be at least 1")

        lipschitz = data.get("lipschitz")
        if lipschitz is not None:
            if not isinstance(lipschitz, dict):
                raise ValidationError("lipschitz must be an object")
            _reject_unknown(lipschitz, _LIP_KEYS, "lipschitz")
            l1 = _require(lipschitz, "L1", _NUMBER, "lipschitz")
            if l1 < 0:
                raise ValidationError("lipschitz.L1 must be nonnegative")
            lipschitz = {"L1": l1, "L2": _expression(lipschitz, "L2", "lipschitz", {"x"})}

        nagumo = data.get("nagumo")
        if nagumo is not None:
            if not isinstance(nagumo, dict):
                raise ValidationError("nagumo must be an object")
            _reject_unknown(nagumo, _NAGUMO_KEYS, "nagumo")
            phi = _require(nagumo, "phi", str, "nagumo")
            if phi != "auto":
                phi = _expression(nagumo, "phi", "nagumo", {"s"})
            nagumo = {"phi": phi}

        return cls(boundary_config=boundary_config, psi=psi, lower0=lower0,
                   upper0=upper0, ordering=ordering, k=k, grid_n=int(grid_n),
                   tol=tol, max_iter=int(max_iter), lipschitz=lipschitz,
                   nagumo=nagumo)

    def to_dict(self) -> dict:
        out = {
            "boundary": asdict(self.boundary_config),
            "psi": self.psi.text,
            "lower0": self.lower0.text,
            "upper0": self.upper0.text,
            "ordering": self.ordering,
            "k": dict(self.k) if isinstance(self.k, dict) else self.k,
            "grid_n": self.grid_n,
            "tol": self.tol,
            "max_iter": self.max_iter,
        }
        if self.lipschitz is not None:
            out["lipschitz"] = {"L1": self.lipschitz["L1"], "L2": self.lipschitz["L2"].text}
        if self.nagumo is not None:
            phi = self.nagumo["phi"]
            out["nagumo"] = {"phi": phi if phi == "auto" else phi.text}
        return out

    @classmethod
    def load(cls, path) -> "ProblemConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ValidationError("cannot read config %s: %s" % (path, exc)) from exc
        except json.JSONDecodeError as exc:
            raise ValidationError("config %s is not valid JSON: %s" % (path, exc)) from exc
        return cls.from_dict(data)

    def scalar_k(self) -> float:
        if isinstance(self.k, dict):
            raise ValidationError("config declares a k range; pass an explicit k")
        return float(self.k)

    def scan_range(self):
        """(lo, hi, steps) for scan-k: the configured range, or the regime default."""
        if isinstance(self.k, dict):
            return self.k["lo"], self.k["hi"], self.k["steps"]
        if self.ordering == "reverse":
            return 1e-3, PI2_OVER_4 * 0.9999, 400
        return -10.0, -0.01, 400


def build_problem(config: ProblemConfig, with_lipschitz: bool = True) -> NonlinearProblem:
    """Turn a validated config into a ready-to-run NonlinearProblem.

    Attaches the Nagumo verdict first when the config has a nagumo section
    (the Lipschitz estimator's sampling box uses P when one exists), then
    the explicit Lipschitz override or a sampled estimate. The config's
    expressions are used as parsed; nothing is parsed again.
    """
    problem = NonlinearProblem(
        psi=config.psi,
        config=config.boundary_config,
        lower0=config.lower0,
        upper0=config.upper0,
        ordering=config.ordering,
        nagumo_phi=None if config.nagumo is None else config.nagumo["phi"],
    )
    if problem.nagumo_phi is not None:
        problem.nagumo = nagumo_bound(problem)
    if with_lipschitz:
        if config.lipschitz is not None:
            problem.lip = LipschitzData.from_expression(
                config.lipschitz["L1"], config.lipschitz["L2"])
        else:
            problem.lip = estimate_lipschitz(problem)
    return problem


# The two worked setups shipped with the package. example1 runs the
# reverse-ordered regime with a positive shift; example2 the well-ordered
# regime with a negative-shift scan range. The L2 profiles and majorants
# carry the documented constants for these setups.
EXAMPLE1 = {
    "boundary": {"xi": 0.1, "eta": 0.2, "lambda1": 2.0, "lambda2": 3.0},
    "psi": "(exp(u) - x*exp(up))/195",
    "lower0": "1 + 2.525*x + x^2",
    "upper0": "-(1 + 2.525*x + x^2)",
    "ordering": "reverse",
    "k": 0.49,
    "grid_n": 501,
    "tol": 1e-08,
    "max_iter": 300,
    "lipschitz": {"L1": 0.47331, "L2": "x*exp(0.2154)/195"},
    "nagumo": {"phi": "(exp(4.525) + exp(abs(s)))/195"},
}

EXAMPLE2 = {
    "boundary": {"xi": 0.2, "eta": 0.3, "lambda1": 0.25,
                 "lambda2": 0.1111111111111111},
    "psi": "((exp(x)-1)/40)*(up^2 - u - cos(x)/4)",
    "lower0": "-1.905 - x/2 + x^2/8",
    "upper0": "1.9 + x/2",
    "ordering": "well",
    "k": {"lo": -10.0, "hi": -0.01, "steps": 400},
    "grid_n": 501,
    "tol": 1e-08,
    "max_iter": 1500,
    "lipschitz": {"L1": 0.042957, "L2": "2*5.868826*(exp(x)-1)/40"},
    "nagumo": {"phi": "0.042957*(s^2 + 2.65)"},
}


def example1() -> ProblemConfig:
    return ProblemConfig.from_dict(EXAMPLE1)


def example2() -> ProblemConfig:
    return ProblemConfig.from_dict(EXAMPLE2)
