"""Problem configuration files: schema, validation, and the bundled examples.

The on-disk format is JSON with the exact keys below. from_dict/to_dict
round-trip exactly, so configs can be rewritten without drift.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .admissibility import LipschitzData, estimate_lipschitz, nagumo_bound
from .errors import ValidationError
from .expressions import parse_expression
from .kernel import PI2_OVER_4, BoundaryConfig
from .monotone import ORDERINGS, NonlinearProblem

_TOP_KEYS = {"boundary", "psi", "lower0", "upper0", "ordering", "k",
             "grid_n", "tol", "max_iter", "lipschitz", "nagumo"}
_BOUNDARY_KEYS = {"xi", "eta", "lambda1", "lambda2"}
_RANGE_KEYS = {"lo", "hi", "steps"}
_LIP_KEYS = {"L1", "L2"}
_NAGUMO_KEYS = {"phi"}


def _require(data, key, types, where):
    if key not in data:
        raise ValidationError("missing %r in %s" % (key, where))
    val = data[key]
    if not isinstance(val, types):
        raise ValidationError("%s.%s has wrong type %s" % (where, key, type(val).__name__))
    if isinstance(val, bool):
        raise ValidationError("%s.%s must be numeric, got a boolean" % (where, key))
    return val


def _reject_unknown(data, allowed, where):
    unknown = set(data) - allowed
    if unknown:
        raise ValidationError("unknown keys in %s: %s" % (where, sorted(unknown)))


@dataclass
class ProblemConfig:
    """Validated problem description matching the JSON file schema.

    k is either a single shift value or a scan range dict {lo, hi, steps}.
    lipschitz (optional) overrides the estimated data with explicit L1 and
    an L2 expression in x; nagumo.phi is an expression in s or "auto".
    """

    xi: float
    eta: float
    lambda1: float
    lambda2: float
    psi: str
    lower0: str
    upper0: str
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
        xi = float(_require(boundary, "xi", (int, float), "boundary"))
        eta = float(_require(boundary, "eta", (int, float), "boundary"))
        lambda1 = float(_require(boundary, "lambda1", (int, float), "boundary"))
        lambda2 = float(_require(boundary, "lambda2", (int, float), "boundary"))
        BoundaryConfig(xi, eta, lambda1, lambda2)  # range validation

        psi = _require(data, "psi", str, "config")
        lower0 = _require(data, "lower0", str, "config")
        upper0 = _require(data, "upper0", str, "config")
        for label, text, allowed in (("psi", psi, {"x", "u", "up"}),
                                     ("lower0", lower0, {"x"}),
                                     ("upper0", upper0, {"x"})):
            expr = parse_expression(text)
            extra = set(expr.variables) - allowed
            if extra:
                raise ValidationError("%s uses variables %s outside %s"
                                      % (label, sorted(extra), sorted(allowed)))

        ordering = _require(data, "ordering", str, "config")
        if ordering not in ORDERINGS:
            raise ValidationError("ordering must be one of %s, got %r"
                                  % (ORDERINGS, ordering))

        k = data.get("k")
        if isinstance(k, bool) or k is None:
            raise ValidationError("config.k must be a number or a range object")
        if isinstance(k, dict):
            _reject_unknown(k, _RANGE_KEYS, "k")
            lo = float(_require(k, "lo", (int, float), "k"))
            hi = float(_require(k, "hi", (int, float), "k"))
            steps = _require(k, "steps", int, "k")
            if not lo < hi:
                raise ValidationError("k range needs lo < hi")
            if steps < 2:
                raise ValidationError("k range needs steps >= 2")
            k = {"lo": lo, "hi": hi, "steps": int(steps)}
        elif isinstance(k, (int, float)):
            k = float(k)
            if k == 0.0:
                raise ValidationError("k = 0 is outside both regimes")
        else:
            raise ValidationError("config.k must be a number or a range object")

        grid_n = _require(data, "grid_n", int, "config")
        if grid_n < 5:
            raise ValidationError("grid_n must be at least 5")
        tol = float(_require(data, "tol", (int, float), "config"))
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
            l1 = float(_require(lipschitz, "L1", (int, float), "lipschitz"))
            if l1 < 0:
                raise ValidationError("lipschitz.L1 must be nonnegative")
            l2 = _require(lipschitz, "L2", str, "lipschitz")
            expr = parse_expression(l2)
            extra = set(expr.variables) - {"x"}
            if extra:
                raise ValidationError("lipschitz.L2 may only use x, found %s"
                                      % sorted(extra))
            lipschitz = {"L1": l1, "L2": l2}

        nagumo = data.get("nagumo")
        if nagumo is not None:
            if not isinstance(nagumo, dict):
                raise ValidationError("nagumo must be an object")
            _reject_unknown(nagumo, _NAGUMO_KEYS, "nagumo")
            phi = _require(nagumo, "phi", str, "nagumo")
            if phi != "auto":
                expr = parse_expression(phi)
                extra = set(expr.variables) - {"s"}
                if extra:
                    raise ValidationError("nagumo.phi may only use s, found %s"
                                          % sorted(extra))
            nagumo = {"phi": phi}

        return cls(xi=xi, eta=eta, lambda1=lambda1, lambda2=lambda2, psi=psi,
                   lower0=lower0, upper0=upper0, ordering=ordering, k=k,
                   grid_n=int(grid_n), tol=tol, max_iter=int(max_iter),
                   lipschitz=lipschitz, nagumo=nagumo)

    def to_dict(self) -> dict:
        out = {
            "boundary": {"xi": self.xi, "eta": self.eta,
                         "lambda1": self.lambda1, "lambda2": self.lambda2},
            "psi": self.psi,
            "lower0": self.lower0,
            "upper0": self.upper0,
            "ordering": self.ordering,
            "k": dict(self.k) if isinstance(self.k, dict) else self.k,
            "grid_n": self.grid_n,
            "tol": self.tol,
            "max_iter": self.max_iter,
        }
        if self.lipschitz is not None:
            out["lipschitz"] = dict(self.lipschitz)
        if self.nagumo is not None:
            out["nagumo"] = dict(self.nagumo)
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

    @property
    def boundary_config(self) -> BoundaryConfig:
        return BoundaryConfig(self.xi, self.eta, self.lambda1, self.lambda2)

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
    the explicit Lipschitz override or a sampled estimate.
    """
    phi_spec = None
    if config.nagumo is not None:
        phi_spec = (config.nagumo["phi"] if config.nagumo["phi"] == "auto"
                    else parse_expression(config.nagumo["phi"]))
    problem = NonlinearProblem(
        psi=parse_expression(config.psi),
        config=config.boundary_config,
        lower0=parse_expression(config.lower0),
        upper0=parse_expression(config.upper0),
        ordering=config.ordering,
        nagumo_phi=phi_spec,
    )
    if phi_spec is not None:
        problem.nagumo = nagumo_bound(problem)
    if with_lipschitz:
        if config.lipschitz is not None:
            problem.lip = LipschitzData.from_expression(
                config.lipschitz["L1"], parse_expression(config.lipschitz["L2"]))
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
