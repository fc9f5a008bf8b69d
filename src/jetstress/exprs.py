"""Tiny expression grammar for specifying smooth field components.

A component is either a monomial table ``[(exponents, coefficient), ...]``
or a string over coordinates ``x1..xn`` combined with ``+ - * / ^``,
parentheses, numeric literals, ``pi``/``e``, and the analytic primitives
``sin cos tan exp log sqrt sinh cosh tanh``.  :func:`parse_expression`
parses a string and compiles its tree once, at load, into a leaf: two sets
of closures, the form every leaf of a field has.  Above order 0 the series
route computes in truncated Taylor arithmetic on the coordinate series, so
the derivatives of expression fields are exact; at order 0, where a series
holds one number, the value route computes that number on plain values (a
float or a node array) of the point's coordinates and their powers, and
the field wraps one series at the end.

Each step performs the IEEE operation that walking the tree node by node in
series arithmetic performs, in the same order, so the bits are that walk's,
signed zeros included (see :mod:`jetstress.taylor`): at order 0 a product is
``0.0 + a * b``, ``a - b`` is ``a + (-b)``, ``a / b`` is
``0.0 + a * reciprocal_value(b)``, a power takes the steps of ``**`` and a
call is its primitive's order-0 value.  A constant operand stays a float:
above order 0, ``c * X`` and ``X * c`` are ``X.constant_times(c)``,
``c + X`` is ``X.constant_plus(c)`` and ``X + c`` adds ``c`` into the
constant key; ``+``, ``-``, ``*`` and unary ``-`` of two constants fold at
load, to their value at every order.  A call, power or quotient of a
constant does not fold: its bits depend on the order.
"""

from __future__ import annotations

import math
import re
from typing import Any, Callable, List, Tuple

from .taylor import (
    TruncatedSeries,
    cos_series,
    cos_value,
    cosh_series,
    cosh_value,
    exp_series,
    exp_value,
    integer_power_value,
    log_series,
    log_value,
    reciprocal_value,
    sin_series,
    sin_value,
    sinh_series,
    sinh_value,
    sqrt_series,
    sqrt_value,
    tan_series,
    tan_value,
    tanh_series,
    tanh_value,
)

__all__ = ["parse_expression", "ExpressionError", "FUNCTIONS"]

FUNCTIONS: dict[str, Callable[[TruncatedSeries], TruncatedSeries]] = {
    "sin": sin_series,
    "cos": cos_series,
    "tan": tan_series,
    "exp": exp_series,
    "log": log_series,
    "sqrt": sqrt_series,
    "sinh": sinh_series,
    "cosh": cosh_series,
    "tanh": tanh_series,
}

# Each primitive's order-0 value: the constant term of its series at order 0.
_VALUES = {
    "sin": sin_value,
    "cos": cos_value,
    "tan": tan_value,
    "exp": exp_value,
    "log": log_value,
    "sqrt": sqrt_value,
    "sinh": sinh_value,
    "cosh": cosh_value,
    "tanh": tanh_value,
}

_CONSTANTS = {"pi": math.pi, "e": math.e}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[-+*/^()]))"
)


class ExpressionError(ValueError):
    """Raised when a field expression fails to parse or references unknowns."""


# Deepest expression accepted: both the parser's nesting (parentheses, calls,
# signs and exponents) and the depth of the tree it builds.  The compiled
# closures nest as deep as the tree (twice as deep along a chain of ``-``,
# each an add of a negation), and so do the compiler's calls, so the limit
# bounds recursion at load and at evaluation.  Far below Python's recursion
# limit, even with the parser's five frames per nesting level.
MAX_DEPTH = 100


def _too_deep() -> ExpressionError:
    return ExpressionError(f"expression nested deeper than {MAX_DEPTH} levels")


def _tokenize(text: str) -> List[Tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if not match or match.end() == pos:
            raise ExpressionError(f"unexpected character at {text[pos:]!r}")
        pos = match.end()
        kind = match.lastgroup  # the one alternative that matched
        tokens.append((kind, match[kind]))
    tokens.append(("end", ""))
    return tokens


class _Parser:
    """Recursive descent over +,-,*,/ and right-associative ^ (alias **).

    Each rule returns its tree and the tree's depth in levels, so the depth
    limit is checked once the whole input has parsed, without a second walk.
    """

    def __init__(self, tokens: List[Tuple[str, str]], dim: int):
        self.tokens = tokens
        self.pos = 0
        self.dim = dim
        self.nesting = 0  # open calls of ``factor``, through which every recursion runs

    def peek(self) -> Tuple[str, str]:
        return self.tokens[self.pos]

    def advance(self) -> Tuple[str, str]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, op: str) -> None:
        kind, value = self.advance()
        if kind != "op" or value != op:
            raise ExpressionError(f"expected {op!r}, found {value!r}")

    def parse(self):
        node, depth = self.sum()
        if self.peek()[0] != "end":
            raise ExpressionError(f"trailing input at {self.peek()[1]!r}")
        if depth > MAX_DEPTH:
            raise _too_deep()
        return node

    def sum(self):
        node, depth = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.advance()
            right, right_depth = self.term()
            node, depth = ("add" if op == "+" else "sub", node, right), 1 + max(depth, right_depth)
        return node, depth

    def term(self):
        node, depth = self.factor()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            _, op = self.advance()
            right, right_depth = self.factor()
            node, depth = ("mul" if op == "*" else "div", node, right), 1 + max(depth, right_depth)
        return node, depth

    def factor(self):
        if self.nesting >= MAX_DEPTH:
            raise _too_deep()
        self.nesting += 1
        try:
            return self._factor()
        finally:
            self.nesting -= 1

    def _factor(self):
        kind, value = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            node, depth = self.factor()
            return ("neg", node), depth + 1
        if kind == "op" and value == "+":
            self.advance()
            return self.factor()
        return self.power()

    def power(self):
        base, depth = self.atom()
        kind, value = self.peek()
        if kind == "op" and value in ("^", "**"):
            self.advance()
            exponent, _ = self.factor()
            if exponent[0] == "neg" and exponent[1][0] == "const":
                exponent = ("const", -exponent[1][1])
            if exponent[0] != "const" or exponent[1] != int(exponent[1]):
                raise ExpressionError("exponents must be integer literals")
            return ("pow", base, int(exponent[1])), depth + 1
        return base, depth

    def atom(self):
        kind, value = self.advance()
        if kind == "num":
            if not math.isfinite(float(value)):
                raise ExpressionError(f"numeric literal {value!r} is not a finite number")
            return ("const", float(value)), 1
        if kind == "name":
            if value in _CONSTANTS:
                return ("const", _CONSTANTS[value]), 1
            if value in FUNCTIONS:
                self.expect("(")
                arg, depth = self.sum()
                self.expect(")")
                return ("call", value, arg), depth + 1
            var = re.fullmatch(r"x(\d+)", value)
            if var:
                axis = int(var.group(1)) - 1
                if not 0 <= axis < self.dim:
                    raise ExpressionError(
                        f"variable {value} out of range for dimension {self.dim}"
                    )
                return ("var", axis), 1
            raise ExpressionError(f"unknown identifier {value!r}")
        if kind == "op" and value == "(":
            node, depth = self.sum()
            self.expect(")")
            return node, depth
        raise ExpressionError(f"unexpected token {value!r}")


def _compile(node):
    """``node`` compiled for both routes: (order 0, order >= 1).

    Each is a float for a constant, else a closure from the point's record
    (:class:`PointValues` at order 0, :class:`Coordinates` above it) to the
    node's value (a float or a node array) or to its series.  A variable and
    a variable's power read the record alike on both routes.  ``-`` is ``a +
    (-b)``, the steps the series route takes for it.
    """
    op = node[0]
    if op == "const":
        return node[1], node[1]
    if op == "var":
        axis = node[1]
        return (lambda v: v.x[axis],) * 2
    if op == "sub":
        return _compile(("add", node[1], ("neg", node[2])))
    if op == "neg":
        a, x = _compile(node[1])
        if a.__class__ is float:
            return -a, -a
        return (lambda v: -a(v)), (lambda v: -x(v))
    if op == "pow":
        base, e = node[1], node[2]
        if base[0] == "var":
            axis = base[1]
            return (lambda v: v[axis, e],) * 2
        a, x = _operands(*_compile(base))
        return (lambda v: integer_power_value(a(v), e)), (lambda v: x(v) ** e)
    if op == "call":
        a, x = _operands(*_compile(node[2]))
        value, series = _VALUES[node[1]], FUNCTIONS[node[1]]
        return (lambda v: value(a(v))), (lambda v: series(x(v)))
    (a, x), (b, y) = _compile(node[1]), _compile(node[2])
    if op == "div":
        (a, x), (b, y) = _operands(a, x), _operands(b, y)
        return (lambda v: 0.0 + a(v) * reciprocal_value(b(v))), (lambda v: x(v) / y(v))
    left, right = a.__class__ is float, b.__class__ is float
    if op == "add":
        if left and right:
            return a + b, a + b
        if left:
            return (lambda v: a + b(v)), (lambda v: y(v).constant_plus(a))
        if right:
            return (lambda v: a(v) + b), (lambda v: x(v) + b)
        return (lambda v: a(v) + b(v)), (lambda v: x(v) + y(v))
    if left and right:
        return 0.0 + a * b, 0.0 + a * b
    if left:
        return (lambda v: 0.0 + a * b(v)), (lambda v: y(v).constant_times(a))
    if right:
        return (lambda v: 0.0 + a(v) * b), (lambda v: x(v).constant_times(b))
    return (lambda v: 0.0 + a(v) * b(v)), (lambda v: x(v) * y(v))


def _operands(value, series):
    """Both routes of an operand of a call, power or quotient as closures: a
    constant is its value at order 0 and the constant series above it."""
    if value.__class__ is not float:
        return value, series
    return (lambda v: value), (lambda v: TruncatedSeries.constant(v.x[0].dim, v.x[0].order, value))


def parse_expression(text: str, dim: int) -> Tuple[Any, Any]:
    """Parse an expression string and compile it into a leaf: its value route
    and its series route (see :meth:`jetstress.fields.SmoothField.from_series_maps`)."""
    return _compile(_Parser(_tokenize(text), dim).parse())
