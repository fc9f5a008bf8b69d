"""Tiny expression grammar for specifying smooth field components.

A component is either a monomial table ``[(exponents, coefficient), ...]``
or a string over coordinates ``x1..xn`` combined with ``+ - * / ^``,
parentheses, numeric literals, ``pi``/``e``, and the analytic primitives
``sin cos tan exp log sqrt sinh cosh tanh``.  Expressions are evaluated
directly in truncated Taylor arithmetic, so derivatives of expression
fields are exact.
"""

from __future__ import annotations

import math
import re
from typing import Callable, List, Sequence, Tuple

from .taylor import (
    Coordinates,
    TruncatedSeries,
    cos_series,
    cosh_series,
    exp_series,
    log_series,
    sin_series,
    sinh_series,
    sqrt_series,
    tan_series,
    tanh_series,
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

_CONSTANTS = {"pi": math.pi, "e": math.e}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[-+*/^()]))"
)


class ExpressionError(ValueError):
    """Raised when a field expression fails to parse or references unknowns."""


# Deepest expression accepted: both the parser's nesting (parentheses, calls,
# signs and exponents) and the depth of the tree it builds, which
# :func:`_evaluate` walks recursively.  Far below Python's recursion limit,
# even with the parser's five frames per nesting level.
MAX_DEPTH = 100


def _too_deep() -> ExpressionError:
    return ExpressionError(f"expression nested deeper than {MAX_DEPTH} levels")


def _tree_depth(tree) -> int:
    """Levels of an expression tree, counted without recursion."""
    deepest = 0
    stack = [(tree, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        op = node[0]
        if op in ("neg", "pow"):
            stack.append((node[1], depth + 1))
        elif op == "call":
            stack.append((node[2], depth + 1))
        elif op not in ("const", "var"):
            stack.extend([(node[1], depth + 1), (node[2], depth + 1)])
    return deepest


def _tokenize(text: str) -> List[Tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if not match or match.end() == pos:
            raise ExpressionError(f"unexpected character at {text[pos:]!r}")
        pos = match.end()
        for kind in ("num", "name", "op"):
            value = match.group(kind)
            if value is not None:
                tokens.append((kind, value))
                break
    tokens.append(("end", ""))
    return tokens


class _Parser:
    """Recursive descent over +,-,*,/ and right-associative ^ (alias **)."""

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
        node = self.sum()
        if self.peek()[0] != "end":
            raise ExpressionError(f"trailing input at {self.peek()[1]!r}")
        if _tree_depth(node) > MAX_DEPTH:
            raise _too_deep()
        return node

    def sum(self):
        node = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.advance()
            right = self.term()
            node = ("add" if op == "+" else "sub", node, right)
        return node

    def term(self):
        node = self.factor()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            _, op = self.advance()
            right = self.factor()
            node = ("mul" if op == "*" else "div", node, right)
        return node

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
            return ("neg", self.factor())
        if kind == "op" and value == "+":
            self.advance()
            return self.factor()
        return self.power()

    def power(self):
        base = self.atom()
        kind, value = self.peek()
        if kind == "op" and value in ("^", "**"):
            self.advance()
            exponent = self.factor()
            if exponent[0] == "neg" and exponent[1][0] == "const":
                exponent = ("const", -exponent[1][1])
            if exponent[0] != "const" or exponent[1] != int(exponent[1]):
                raise ExpressionError("exponents must be integer literals")
            return ("pow", base, int(exponent[1]))
        return base

    def atom(self):
        kind, value = self.advance()
        if kind == "num":
            if not math.isfinite(float(value)):
                raise ExpressionError(f"numeric literal {value!r} is not a finite number")
            return ("const", float(value))
        if kind == "name":
            if value in _CONSTANTS:
                return ("const", _CONSTANTS[value])
            if value in FUNCTIONS:
                self.expect("(")
                arg = self.sum()
                self.expect(")")
                return ("call", value, arg)
            var = re.fullmatch(r"x(\d+)", value)
            if var:
                axis = int(var.group(1)) - 1
                if not 0 <= axis < self.dim:
                    raise ExpressionError(
                        f"variable {value} out of range for dimension {self.dim}"
                    )
                return ("var", axis)
            raise ExpressionError(f"unknown identifier {value!r}")
        if kind == "op" and value == "(":
            node = self.sum()
            self.expect(")")
            return node
        raise ExpressionError(f"unexpected token {value!r}")


def _evaluate(node, variables: Coordinates) -> TruncatedSeries:
    op = node[0]
    if op == "const":
        return TruncatedSeries.constant(variables[0].dim, variables[0].order, node[1])
    if op == "var":
        return variables[node[1]]
    if op == "neg":
        return -_evaluate(node[1], variables)
    if op == "add":
        return _evaluate(node[1], variables) + _evaluate(node[2], variables)
    if op == "sub":
        return _evaluate(node[1], variables) - _evaluate(node[2], variables)
    if op == "mul":
        return _evaluate(node[1], variables) * _evaluate(node[2], variables)
    if op == "div":
        return _evaluate(node[1], variables) / _evaluate(node[2], variables)
    if op == "pow":
        if node[1][0] == "var":
            return variables.power(node[1][1], node[2])
        return _evaluate(node[1], variables) ** node[2]
    if op == "call":
        return FUNCTIONS[node[1]](_evaluate(node[2], variables))
    raise ExpressionError(f"unknown node {op!r}")  # pragma: no cover


def parse_expression(text: str, dim: int) -> Callable[[Sequence[TruncatedSeries]], TruncatedSeries]:
    """Compile an expression string into a series-level evaluator."""
    tree = _Parser(_tokenize(text), dim).parse()

    def evaluator(variables: Sequence[TruncatedSeries]) -> TruncatedSeries:
        return _evaluate(tree, Coordinates.of(variables))

    return evaluator
