import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mibvp.errors import ExpressionError
from mibvp.expressions import Expression, parse_expression


def test_source_term_value_at_origin():
    expr = parse_expression("(exp(u) - x*exp(up))/195")
    assert expr.evaluate(x=0.0, u=0.0, up=0.0) == pytest.approx(1.0 / 195.0, abs=1e-15)


def test_constant_zero():
    expr = parse_expression("0")
    for x in (0.0, 0.3, 1.0):
        assert expr.evaluate(x=x, u=2.0, up=-1.0) == 0.0
    assert expr.variables == frozenset()


def test_product_form_value():
    # ((e^1 - 1)/40) * (0 - 0 - cos(1)/4) = -(e-1) cos(1) / 160
    expr = parse_expression("((exp(x)-1)/40)*(up^2 - u - cos(x)/4)")
    expected = -(math.e - 1.0) * math.cos(1.0) / 160.0
    assert expr.evaluate(x=1.0, u=0.0, up=0.0) == pytest.approx(expected, abs=1e-15)


def test_power_right_associative():
    assert parse_expression("2^3^2").evaluate() == 512.0


def test_unary_minus_binds_tighter_than_power():
    # -2^2 parses as (-2)^2
    assert parse_expression("-2^2").evaluate() == 4.0
    assert parse_expression("-(2^2)").evaluate() == -4.0


def test_precedence_and_associativity():
    assert parse_expression("2*3+4").evaluate() == 10.0
    assert parse_expression("2+3*4").evaluate() == 14.0
    assert parse_expression("6/3/2").evaluate() == 1.0
    assert parse_expression("2^-1").evaluate() == 0.5
    assert parse_expression("1 - 2 - 3").evaluate() == -4.0


def test_all_functions():
    expr = parse_expression("exp(x) + sin(x) + cos(x) + sinh(x) + cosh(x)"
                            " + sqrt(x) + abs(-x) + ln(x)")
    x = 0.7
    expected = (math.exp(x) + math.sin(x) + math.cos(x) + math.sinh(x)
                + math.cosh(x) + math.sqrt(x) + abs(-x) + math.log(x))
    assert expr.evaluate(x=x) == pytest.approx(expected, rel=1e-14)


def test_vectorized_evaluation_matches_scalar():
    expr = parse_expression("x*exp(up) - u^2 + sin(x*u)")
    xs = np.linspace(0.0, 1.0, 7)
    us = np.linspace(-1.0, 1.0, 7)
    ups = np.linspace(-2.0, 2.0, 7)
    vec = expr.evaluate(x=xs, u=us, up=ups)
    for i in range(7):
        assert vec[i] == pytest.approx(
            expr.evaluate(x=xs[i], u=us[i], up=ups[i]), rel=1e-14)


def test_sample_constant_fills_the_input_shape():
    xs = np.linspace(0.0, 1.0, 7)
    vals = parse_expression("2").sample(x=xs)
    assert vals.shape == (7,)
    assert vals.dtype == np.float64
    assert vals.flags.writeable
    assert np.all(vals == 2.0)


def test_sample_broadcasts_mixed_shapes():
    n, m, p = 3, 4, 5
    expr = parse_expression("x + u*up")
    x = np.linspace(0.0, 1.0, n)[:, None, None]
    u = np.ones((n, m, 1))
    up = np.arange(p, dtype=float)[None, None, :]
    vals = expr.sample(x=x, u=u, up=up)
    assert vals.shape == (n, m, p)
    assert np.array_equal(vals, x + u * up)
    assert parse_expression("x").sample(x=x, u=u, up=up).shape == (n, m, p)


def test_sample_does_not_alias_its_input():
    xs = np.linspace(0.0, 1.0, 5)
    vals = parse_expression("x").sample(x=xs)
    vals[0] = 9.0
    assert xs[0] == 0.0


def test_variables_reported():
    assert parse_expression("x + up").variables == frozenset({"x", "up"})
    assert parse_expression("s^2").variables == frozenset({"s"})


def test_missing_variable_binding():
    expr = parse_expression("x + u")
    with pytest.raises(ExpressionError):
        expr.evaluate(x=1.0)


@pytest.mark.parametrize("text, fragment", [
    ("", "empty"),
    ("2 +", "syntax error"),
    ("exp()", "syntax error"),
    ("exp(1, 2)", "arity mismatch"),
    ("foo(2)", "unknown identifier"),
    ("y + 1", "unknown identifier"),
    (")(", "syntax error"),
    ("2 @ 3", "unexpected character"),
    ("(1 + 2", "expected ')'"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(ExpressionError) as err:
        parse_expression(text)
    assert fragment in str(err.value)


def test_error_messages_carry_positions():
    with pytest.raises(ExpressionError) as err:
        parse_expression("x + foo(2)")
    assert "position 4" in str(err.value)


def test_diff_polynomial():
    d = parse_expression("1 + 2.525*x + x^2").diff("x")
    xs = np.linspace(0.0, 1.0, 11)
    assert np.allclose(d.evaluate(x=xs), 2.525 + 2 * xs, atol=1e-14)


@pytest.mark.parametrize("text", [
    "exp(u) - x*exp(up)",
    "sin(x*u) + cos(up)",
    "sqrt(u^2 + 1)",
    "ln(u + 3)",
    "abs(u) * x",
    "u^3 - up^2/4",
    "sinh(u/2) + cosh(x)",
    "(exp(x)-1)/40*(up^2 - u - cos(x)/4)",
])
def test_diff_matches_central_difference(text):
    expr = parse_expression(text)
    point = {"x": 0.37, "u": 0.81, "up": -0.29}
    eps = 1e-6
    for var in expr.variables:
        d = expr.diff(var)
        hi = dict(point)
        lo = dict(point)
        hi[var] = point[var] + eps
        lo[var] = point[var] - eps
        numeric = (expr.evaluate(**hi) - expr.evaluate(**lo)) / (2 * eps)
        assert d.evaluate(**point) == pytest.approx(numeric, rel=1e-6, abs=1e-9)


def test_diff_wrt_absent_variable_is_zero():
    d = parse_expression("x^2").diff("u")
    assert d.evaluate(x=3.0, u=1.0) == 0.0


def test_diff_rejects_unknown_variable():
    with pytest.raises(ExpressionError):
        parse_expression("x").diff("t")


def test_round_trip_through_text():
    for text in ("(exp(u) - x*exp(up))/195", "-x^2 + 3*u/(up - 4)",
                 "sqrt(abs(x)) - ln(cosh(u))"):
        expr = parse_expression(text)
        assert parse_expression(expr.text) == expr
        # derivatives carry generated text; it must re-parse to the same tree
        for var in expr.variables:
            d = expr.diff(var)
            assert parse_expression(d.text) == d


def test_equality_is_structural():
    assert parse_expression("x + u") == parse_expression("x+u")
    assert parse_expression("x + u") != parse_expression("u + x")


@settings(max_examples=60, deadline=None)
@given(x=st.floats(-3, 3), u=st.floats(-3, 3), up=st.floats(-3, 3))
def test_evaluation_deterministic_and_finite(x, u, up):
    expr = parse_expression("(exp(u) - x*exp(up))/195")
    a = expr.evaluate(x=x, u=u, up=up)
    b = expr.evaluate(x=x, u=u, up=up)
    assert a == b
    assert np.isfinite(a)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.01, 0.99))
def test_diff_of_composition_property(x):
    expr = parse_expression("sin(x^2)")
    d = expr.diff("x")
    assert d.evaluate(x=x) == pytest.approx(2 * x * math.cos(x * x), rel=1e-12)


def test_expression_repr_and_hashable():
    expr = parse_expression("x + 1")
    assert "x" in repr(expr)
    {expr: 1}
