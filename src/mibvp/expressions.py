"""Tiny expression language for sources, initial solutions, and majorants.

Grammar (fixed contract, do not extend casually):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := base ('^' factor)?
    base   := number | ident | '(' expr ')' | '-' base | func '(' expr ')'
    func   in {exp, sin, cos, sinh, cosh, sqrt, abs, ln}
    ident  in {x, u, up, s}

'^' is right-associative and unary minus binds tighter than '^', so
"-x^2" parses as (-x)^2. Numbers are decimals with an optional exponent.
Evaluation is pure and vectorizes over numpy arrays. Derivatives come from
the same evaluator: Expression.derivative passes forward-mode jets (value,
derivative) through _eval, so every derivative is exact to rounding, and
abs'(0) is taken as sign(0) = 0.
"""
from __future__ import annotations

import re

import numpy as np
from numpy.lib.mixins import NDArrayOperatorsMixin

from .errors import ExpressionError, ValidationError

FUNCTIONS = {
    "exp": np.exp,
    "sin": np.sin,
    "cos": np.cos,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "ln": np.log,
}

VARIABLES = ("x", "u", "up", "s")

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            # skip pure whitespace tail
            if text[pos:].strip() == "":
                break
            raise ExpressionError(
                "syntax error at position %d: unexpected character %r"
                % (pos, text[pos])
            )
        if m.group("num") is not None:
            tokens.append(("num", float(m.group("num")), m.start("num")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ExpressionError(
                "syntax error at position %d: expected %r" % (pos, op)
            )
        return self.next()

    def parse(self):
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExpressionError(
                "syntax error at position %d: unexpected %r" % (pos, val)
            )
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                node = (val, node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                node = (val, node, self.factor())
            else:
                return node

    def factor(self):
        node = self.base()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            node = ("^", node, self.factor())
        return node

    def base(self):
        kind, val, pos = self.next()
        if kind == "num":
            return ("num", val)
        if kind == "op" and val == "-":
            operand = self.base()
            # fold a negated literal so "-1.0" round-trips structurally
            if operand[0] == "num":
                return ("num", -operand[1])
            return ("neg", operand)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "name":
            if val in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                k2, v2, p2 = self.peek()
                if k2 == "op" and v2 == ",":
                    raise ExpressionError(
                        "arity mismatch at position %d: %s takes one argument"
                        % (p2, val)
                    )
                self.expect_op(")")
                return ("call", val, arg)
            if val in VARIABLES:
                return ("var", val)
            raise ExpressionError(
                "unknown identifier %r at position %d" % (val, pos)
            )
        raise ExpressionError(
            "syntax error at position %d: unexpected %r" % (pos, val if val else "end of input")
        )


def _eval(node, env):
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "var":
        try:
            return env[node[1]]
        except KeyError:
            raise ExpressionError(
                "no value supplied for variable %r" % node[1]
            ) from None
    if kind == "neg":
        return -_eval(node[1], env)
    if kind == "call":
        return FUNCTIONS[node[1]](_eval(node[2], env))
    a = _eval(node[1], env)
    b = _eval(node[2], env)
    if kind == "+":
        return a + b
    if kind == "-":
        return a - b
    if kind == "*":
        return a * b
    if kind == "/":
        return a / b
    if kind == "^":
        return np.power(a, b)
    raise AssertionError("bad node %r" % (node,))


def _collect_vars(node, out):
    kind = node[0]
    if kind == "var":
        out.add(node[1])
    elif kind == "neg":
        _collect_vars(node[1], out)
    elif kind == "call":
        _collect_vars(node[2], out)
    elif kind in "+-*/^":
        _collect_vars(node[1], out)
        _collect_vars(node[2], out)


# Forward-mode rules on (value, derivative) pairs. A derivative of None is
# zero: a term constant in the seeded variable stays a plain number and its
# derivative terms are never formed. The operation order is deliberate: a
# quotient by a constant keeps the quotient-rule form (a'b)/b^2, since a'/b
# rounds the bundled L2' and psi partials 1 ulp differently; sqrt and ln
# divide, a'/(2 sqrt a) and a'/a; a constant exponent gives c (a^(c-1) a'),
# in that order.

def _split(a):
    return (a.v, a.d) if isinstance(a, _Jet) else (a, None)


def _jet_add(a, b):
    (av, ad), (bv, bd) = _split(a), _split(b)
    return _Jet(av + bv, bd if ad is None else ad if bd is None else ad + bd)


def _jet_mul(a, b):
    (av, ad), (bv, bd) = _split(a), _split(b)
    if ad is None:
        return _Jet(av * bv, av * bd)
    return _Jet(av * bv, ad * bv if bd is None else ad * bv + av * bd)


def _jet_div(a, b):
    (av, ad), (bv, bd) = _split(a), _split(b)
    num = ad * bv if bd is None else -(av * bd) if ad is None else ad * bv - av * bd
    return _Jet(av / bv, num / np.power(bv, 2.0))


def _jet_pow(a, b):
    (av, ad), (bv, bd) = _split(a), _split(b)
    if bd is None:
        if np.ndim(bv) == 0 and bv == 0.0:
            return np.power(av, bv)  # a^0 is constant, even at a = 0
        return _Jet(np.power(av, bv), bv * (np.power(av, bv - 1.0) * ad))
    p = np.power(av, bv)
    dlog = bd * np.log(av) if ad is None else bd * np.log(av) + bv * (ad / av)
    return _Jet(p, p * dlog)


def _chain(f, df):
    return lambda a: _Jet(f(a.v), df(a.v) * a.d)


_JET_RULES = {
    np.negative: lambda a: _Jet(-a.v, -a.d),
    np.add: _jet_add,
    np.subtract: lambda a, b: _jet_add(a, -b),  # a + (-b) rounds exactly as a - b
    np.multiply: _jet_mul,
    np.divide: _jet_div,
    np.power: _jet_pow,
    np.exp: _chain(np.exp, np.exp),
    np.sin: _chain(np.sin, np.cos),
    np.cos: _chain(np.cos, lambda v: -np.sin(v)),
    np.sinh: _chain(np.sinh, np.cosh),
    np.cosh: _chain(np.cosh, np.sinh),
    np.abs: _chain(np.abs, np.sign),  # abs'(0) = sign(0) = 0
    np.sign: lambda a: np.sign(a.v),
    np.sqrt: lambda a: _Jet(np.sqrt(a.v), a.d / (2.0 * np.sqrt(a.v))),
    np.log: lambda a: _Jet(np.log(a.v), a.d / a.v),
}


class _Jet(NDArrayOperatorsMixin):
    """A value v and its derivative d in one seeded variable; _eval takes it as a float.

    The mixin turns Python operators into numpy ufuncs, and every ufunc,
    ndarray operands included, reaches the rules through __array_ufunc__.
    v and d may be jets themselves, which carries a second derivative.
    """

    __slots__ = ("v", "d")

    def __init__(self, v, d):
        self.v = v
        self.d = d

    def __array_ufunc__(self, ufunc, method, *args, **kwargs):
        rule = _JET_RULES.get(ufunc)
        if rule is None or method != "__call__" or kwargs:
            return NotImplemented
        return rule(*args)


class Expression:
    """A parsed expression, evaluable over numpy arrays.

    Instances are immutable and compare equal when their syntax trees match.
    """

    def __init__(self, text, ast):
        self.text = text
        self.ast = ast
        names = set()
        _collect_vars(ast, names)
        self.variables = frozenset(names)

    def evaluate(self, **env):
        """The value at env; a division of two constants by zero raises ExpressionError."""
        try:
            return _eval(self.ast, env)
        except ZeroDivisionError:
            raise ExpressionError("division by zero in %r" % self.text) from None

    def sample(self, **env):
        """evaluate() as a fresh float array shaped like all inputs broadcast together.

        An expression that ignores some input (a constant, or psi without x)
        still comes back at the full sample shape.
        """
        out = np.empty(np.broadcast(*env.values()).shape)
        out[...] = self.evaluate(**env)
        return out

    def derivative(self, var, order=1, **env):
        """The order-th partial derivative in var (order 1 or 2), sampled as sample(**env) is.

        var is seeded with a jet (a jet of jets for order 2) and the tree is
        evaluated once. A variable the expression does not use gives zeros.
        """
        if var not in VARIABLES:
            raise ExpressionError("cannot differentiate with respect to %r" % var)
        out = np.empty(np.broadcast(*env.values()).shape)
        if var in env:
            for _ in range(order):
                env[var] = _Jet(env[var], 1.0)
        d = self.evaluate(**env)
        for _ in range(order):
            d = d.d if isinstance(d, _Jet) else 0.0
        out[...] = d
        return out

    def __eq__(self, other):
        return isinstance(other, Expression) and self.ast == other.ast

    def __hash__(self):
        return hash(repr(self.ast))

    def __repr__(self):
        return "Expression(%r)" % self.text


def require_variables(expr: Expression, allowed, label: str) -> Expression:
    """Return expr, or raise ValidationError if it uses a variable outside allowed."""
    extra = set(expr.variables) - set(allowed)
    if extra:
        raise ValidationError("%s may only use %s, found %s"
                              % (label, ", ".join(sorted(allowed)), sorted(extra)))
    return expr


def parse_expression(text: str) -> Expression:
    """Parse expression text into an evaluable Expression.

    Raises ExpressionError for syntax errors (with position), unknown
    identifiers, and arity mismatches.
    """
    if not isinstance(text, str) or text.strip() == "":
        raise ExpressionError("empty expression")
    ast = _Parser(text).parse()
    return Expression(text, ast)
