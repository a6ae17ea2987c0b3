import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mibvp.errors import ValidationError
from mibvp.expressions import Expression
from mibvp.kernel import PI2_OVER_4, BoundaryConfig
from mibvp.monotone import SHIFT_SIGN
from mibvp.problems import (EXAMPLE1, EXAMPLE2, ProblemConfig, build_problem,
                            example1, example2)


PSI_POOL = ("(exp(u) - x*exp(up))/195", "((exp(x)-1)/40)*(up^2 - u - cos(x)/4)",
            "u/10", "-sin(x)*up")
X_POOL = ("1 + 2.525*x + x^2", "-(1 + 2.525*x + x^2)", "1.9 + x/2", "0")
L2_POOL = ("x*exp(0.2154)/195", "2*5.868826*(exp(x)-1)/40", "x")
PHI_POOL = ("auto", "0.042957*(s^2 + 2.65)", "(exp(4.525) + exp(abs(s)))/195")


@st.composite
def config_dicts(draw):
    """Valid config dicts: random boundary, pooled expressions, a k of the ordering's sign."""
    eta = draw(st.floats(0.01, 0.99))
    xi = draw(st.floats(0.0, eta, exclude_min=True))
    lambdas = st.floats(0.0, 10.0)
    ordering = draw(st.sampled_from(sorted(SHIFT_SIGN)))
    shifts = sorted(SHIFT_SIGN[ordering] * m for m in draw(
        st.lists(st.floats(0.01, 2.4), min_size=2, max_size=2, unique=True)))
    if draw(st.booleans()):
        k = shifts[0]
    else:
        k = {"lo": shifts[0], "hi": shifts[1], "steps": draw(st.integers(2, 500))}
    data = {
        "boundary": {"xi": xi, "eta": eta, "lambda1": draw(lambdas),
                     "lambda2": draw(lambdas)},
        "psi": draw(st.sampled_from(PSI_POOL)),
        "lower0": draw(st.sampled_from(X_POOL)),
        "upper0": draw(st.sampled_from(X_POOL)),
        "ordering": ordering,
        "k": k,
        "grid_n": draw(st.integers(5, 3001)),
        "tol": draw(st.floats(1e-14, 1.0)),
        "max_iter": draw(st.integers(1, 5000)),
    }
    if draw(st.booleans()):
        data["lipschitz"] = {"L1": draw(st.floats(0.0, 5.0)),
                             "L2": draw(st.sampled_from(L2_POOL))}
    if draw(st.booleans()):
        data["nagumo"] = {"phi": draw(st.sampled_from(PHI_POOL))}
    return data


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(config_dicts())
    def test_random_valid_configs(self, data):
        assert ProblemConfig.from_dict(data).to_dict() == data

    def test_example_dicts(self):
        assert ProblemConfig.from_dict(EXAMPLE1).to_dict() == EXAMPLE1
        assert ProblemConfig.from_dict(EXAMPLE2).to_dict() == EXAMPLE2

    def test_bundled_files_match_dicts(self, problems_dir):
        with open(problems_dir / "example1.json", encoding="utf-8") as fh:
            assert json.load(fh) == EXAMPLE1
        with open(problems_dir / "example2.json", encoding="utf-8") as fh:
            assert json.load(fh) == EXAMPLE2

    def test_load_from_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(EXAMPLE1), encoding="utf-8")
        assert ProblemConfig.load(p) == example1()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError):
            ProblemConfig.load(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValidationError):
            ProblemConfig.load(p)


def _corrupt(base, path, value, delete=False):
    data = copy.deepcopy(base)
    node = data
    for key in path[:-1]:
        node = node[key]
    if delete:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return data


BAD_CONFIGS = [
    ("top-level unknown key", _corrupt(EXAMPLE1, ["surprise"], 1)),
    ("boundary unknown key", _corrupt(EXAMPLE1, ["boundary", "mu"], 1)),
    ("boundary missing key", _corrupt(EXAMPLE1, ["boundary", "xi"], None, delete=True)),
    ("boundary wrong type", _corrupt(EXAMPLE1, ["boundary", "xi"], "0.1")),
    ("boundary boolean", _corrupt(EXAMPLE1, ["boundary", "lambda1"], True)),
    ("boundary bad range", _corrupt(EXAMPLE1, ["boundary", "xi"], 0.5)),
    # json.load reads a long integer literal as an int beyond the float range
    ("boundary too large for a float", _corrupt(EXAMPLE1, ["boundary", "lambda2"], 10 ** 400)),
    ("psi bad variable", _corrupt(EXAMPLE1, ["psi"], "s + u")),
    ("psi syntax error", _corrupt(EXAMPLE1, ["psi"], "exp(")),
    ("lower0 bad variable", _corrupt(EXAMPLE1, ["lower0"], "1 + up")),
    ("upper0 bad variable", _corrupt(EXAMPLE1, ["upper0"], "u")),
    ("bad ordering", _corrupt(EXAMPLE1, ["ordering"], "diagonal")),
    ("k zero", _corrupt(EXAMPLE1, ["k"], 0.0)),
    ("k sign against reverse ordering", _corrupt(EXAMPLE1, ["k"], -2.0)),
    ("k sign against well ordering", _corrupt(EXAMPLE2, ["k"], 0.5)),
    ("k range end against well ordering",
     _corrupt(EXAMPLE2, ["k"], {"lo": -10.0, "hi": 0.5, "steps": 5})),
    ("k range against reverse ordering",
     _corrupt(EXAMPLE1, ["k"], {"lo": -10.0, "hi": -0.01, "steps": 5})),
    ("k nan", _corrupt(EXAMPLE1, ["k"], float("nan"))),
    ("k infinite", _corrupt(EXAMPLE2, ["k"], float("-inf"))),
    ("k range end infinite",
     _corrupt(EXAMPLE2, ["k"], {"lo": float("-inf"), "hi": -0.01, "steps": 5})),
    ("k too large for a float", _corrupt(EXAMPLE1, ["k"], 10 ** 400)),
    ("k boolean", _corrupt(EXAMPLE1, ["k"], True)),
    ("k missing", _corrupt(EXAMPLE1, ["k"], None)),
    ("k wrong type", _corrupt(EXAMPLE1, ["k"], "0.49")),
    ("k range inverted", _corrupt(EXAMPLE2, ["k"], {"lo": -0.01, "hi": -10.0, "steps": 5})),
    ("k range one step", _corrupt(EXAMPLE2, ["k"], {"lo": -10.0, "hi": -0.01, "steps": 1})),
    ("k range float steps", _corrupt(EXAMPLE2, ["k"], {"lo": -10.0, "hi": -0.01, "steps": 4.0})),
    ("k range unknown key", _corrupt(EXAMPLE2, ["k"], {"lo": -10.0, "hi": -0.01, "steps": 5, "mid": 1})),
    ("grid too small", _corrupt(EXAMPLE1, ["grid_n"], 4)),
    ("grid wrong type", _corrupt(EXAMPLE1, ["grid_n"], 501.0)),
    ("grid too large", _corrupt(EXAMPLE1, ["grid_n"], 10 ** 6 + 1)),
    ("grid too large to allocate", _corrupt(EXAMPLE1, ["grid_n"], 10 ** 400)),
    ("k range too many steps",
     _corrupt(EXAMPLE2, ["k"], {"lo": -10.0, "hi": -0.01, "steps": 10 ** 6 + 1})),
    ("tol zero", _corrupt(EXAMPLE1, ["tol"], 0.0)),
    ("tol negative", _corrupt(EXAMPLE1, ["tol"], -1e-8)),
    ("tol infinite", _corrupt(EXAMPLE1, ["tol"], float("inf"))),
    ("tol too large for a float", _corrupt(EXAMPLE1, ["tol"], 10 ** 400)),
    ("max_iter zero", _corrupt(EXAMPLE1, ["max_iter"], 0)),
    ("lipschitz wrong type", _corrupt(EXAMPLE1, ["lipschitz"], [1, "x"])),
    ("lipschitz unknown key", _corrupt(EXAMPLE1, ["lipschitz", "L3"], "x")),
    ("lipschitz negative L1", _corrupt(EXAMPLE1, ["lipschitz", "L1"], -0.1)),
    ("lipschitz L2 bad variable", _corrupt(EXAMPLE1, ["lipschitz", "L2"], "x + u")),
    ("nagumo unknown key", _corrupt(EXAMPLE1, ["nagumo", "psi"], "s")),
    ("nagumo phi bad variable", _corrupt(EXAMPLE1, ["nagumo", "phi"], "1 + x")),
    ("nagumo phi wrong type", _corrupt(EXAMPLE1, ["nagumo", "phi"], 2.0)),
]


@pytest.mark.parametrize("label, data", BAD_CONFIGS,
                         ids=[label for label, _ in BAD_CONFIGS])
def test_invalid_configs_rejected(label, data):
    with pytest.raises(ValidationError):
        ProblemConfig.from_dict(data)


def test_not_a_dict_rejected():
    with pytest.raises(ValidationError):
        ProblemConfig.from_dict([1, 2, 3])


class TestAccessors:
    def test_scalar_k(self):
        assert example1().scalar_k() == 0.49
        with pytest.raises(ValidationError):
            example2().scalar_k()

    def test_scan_range_configured(self):
        assert example2().scan_range() == (-10.0, -0.01, 400)

    def test_scan_range_defaults(self):
        lo, hi, steps = example1().scan_range()
        assert lo == 1e-3
        assert hi == pytest.approx(PI2_OVER_4 * 0.9999)
        assert steps == 400
        well = _corrupt(EXAMPLE2, ["k"], -2.0)
        assert ProblemConfig.from_dict(well).scan_range() == (-10.0, -0.01, 400)

    def test_boundary_config(self):
        cfg = example1().boundary_config
        assert cfg == BoundaryConfig(0.1, 0.2, 2.0, 3.0)

    def test_integer_k_coerced(self):
        data = _corrupt(EXAMPLE2, ["k"], -2)
        cfg = ProblemConfig.from_dict(data)
        assert cfg.k == -2.0 and isinstance(cfg.k, float)


class TestBuildProblem:
    def test_reverse_example_wiring(self, ex1_problem):
        p = ex1_problem
        assert p.ordering == "reverse"
        assert isinstance(p.psi, Expression)
        assert p.lip is not None
        assert p.lip.l1 == 0.47331
        assert p.lip.l2_text == "x*exp(0.2154)/195"
        assert isinstance(p.nagumo_phi, Expression)
        assert p.nagumo is not None and p.nagumo.success is False

    def test_well_example_wiring(self, ex2_problem):
        p = ex2_problem
        assert p.ordering == "well"
        assert p.lip.l1 == 0.042957
        assert p.nagumo is not None and p.nagumo.success is True
        assert p.nagumo.P == pytest.approx(5.9795, abs=1e-3)

    def test_parses_nothing(self, ex1_config, monkeypatch):
        # the loaded config already holds the parsed expressions
        def refuse(text):
            raise AssertionError("parse_expression(%r) called" % text)

        monkeypatch.setattr("mibvp.problems.parse_expression", refuse)
        p = build_problem(ex1_config)
        assert p.psi is ex1_config.psi
        assert p.nagumo_phi is ex1_config.nagumo["phi"]
        assert p.lip.l2_text == EXAMPLE1["lipschitz"]["L2"]

    def test_without_lipschitz(self, ex1_config):
        p = build_problem(ex1_config, with_lipschitz=False)
        assert p.lip is None

    def test_estimated_lipschitz_when_not_configured(self):
        data = copy.deepcopy(EXAMPLE1)
        del data["lipschitz"]
        p = build_problem(ProblemConfig.from_dict(data))
        assert p.lip is not None
        assert p.lip.l2_text is None
        assert p.lip.l1 == pytest.approx(0.4733124403791914, rel=1e-6)

    def test_no_nagumo_section(self):
        data = copy.deepcopy(EXAMPLE1)
        del data["nagumo"]
        p = build_problem(ProblemConfig.from_dict(data))
        assert p.nagumo_phi is None
        assert p.nagumo is None
