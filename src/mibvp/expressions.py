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
Evaluation is pure and vectorizes over numpy arrays.
"""
from __future__ import annotations

import re

import numpy as np

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


# -- small constructors that fold the easy constant cases, keeping derivative
#    trees readable and cheap to evaluate --

def _is_num(node, value=None):
    return node[0] == "num" and (value is None or node[1] == value)


def _add(a, b):
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    if _is_num(a) and _is_num(b):
        return ("num", a[1] + b[1])
    return ("+", a, b)


def _sub(a, b):
    if _is_num(b, 0.0):
        return a
    if _is_num(a) and _is_num(b):
        return ("num", a[1] - b[1])
    if _is_num(a, 0.0):
        return ("neg", b)
    return ("-", a, b)


def _mul(a, b):
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return ("num", 0.0)
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    if _is_num(a) and _is_num(b):
        return ("num", a[1] * b[1])
    return ("*", a, b)


def _div(a, b):
    if _is_num(a, 0.0):
        return ("num", 0.0)
    if _is_num(b, 1.0):
        return a
    if _is_num(a) and _is_num(b) and b[1] != 0:
        return ("num", a[1] / b[1])
    return ("/", a, b)


def _diff(node, var):
    kind = node[0]
    if kind == "num":
        return ("num", 0.0)
    if kind == "var":
        return ("num", 1.0 if node[1] == var else 0.0)
    if kind == "neg":
        return _sub(("num", 0.0), _diff(node[1], var))
    if kind == "+":
        return _add(_diff(node[1], var), _diff(node[2], var))
    if kind == "-":
        return _sub(_diff(node[1], var), _diff(node[2], var))
    if kind == "*":
        a, b = node[1], node[2]
        return _add(_mul(_diff(a, var), b), _mul(a, _diff(b, var)))
    if kind == "/":
        a, b = node[1], node[2]
        num = _sub(_mul(_diff(a, var), b), _mul(a, _diff(b, var)))
        return _div(num, ("^", b, ("num", 2.0)))
    if kind == "^":
        a, b = node[1], node[2]
        da = _diff(a, var)
        if _is_num(b):
            c = b[1]
            if c == 0.0:
                return ("num", 0.0)
            return _mul(("num", c), _mul(("^", a, ("num", c - 1.0)), da))
        # general a^b, valid for a > 0
        db = _diff(b, var)
        term = _add(_mul(db, ("call", "ln", a)), _mul(b, _div(da, a)))
        return _mul(node, term)
    if kind == "call":
        fn, a = node[1], node[2]
        da = _diff(a, var)
        if fn == "exp":
            outer = node
        elif fn == "sin":
            outer = ("call", "cos", a)
        elif fn == "cos":
            outer = ("neg", ("call", "sin", a))
        elif fn == "sinh":
            outer = ("call", "cosh", a)
        elif fn == "cosh":
            outer = ("call", "sinh", a)
        elif fn == "sqrt":
            return _div(da, _mul(("num", 2.0), node))
        elif fn == "abs":
            # a/|a|, undefined at 0; fine away from the origin
            outer = _div(a, node)
        elif fn == "ln":
            return _div(da, a)
        else:
            raise AssertionError("bad function %r" % fn)
        return _mul(outer, da)
    raise AssertionError("bad node %r" % (node,))


def _to_text(node):
    kind = node[0]
    if kind == "num":
        return repr(node[1])
    if kind == "var":
        return node[1]
    if kind == "neg":
        return "(-%s)" % _to_text(node[1])
    if kind == "call":
        return "%s(%s)" % (node[1], _to_text(node[2]))
    return "(%s %s %s)" % (_to_text(node[1]), kind, _to_text(node[2]))


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
        return _eval(self.ast, env)

    def sample(self, **env):
        """evaluate() as a fresh float array shaped like all inputs broadcast together.

        An expression that ignores some input (a constant, or psi without x)
        still comes back at the full sample shape.
        """
        out = np.empty(np.broadcast(*env.values()).shape)
        out[...] = self.evaluate(**env)
        return out

    def diff(self, var):
        if var not in VARIABLES:
            raise ExpressionError("cannot differentiate with respect to %r" % var)
        ast = _diff(self.ast, var)
        return Expression(_to_text(ast), ast)

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
