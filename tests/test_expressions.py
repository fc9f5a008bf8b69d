"""Compiled expressions against the tree walked node by node.

``parse_expression`` compiles a tree once into closures: at order 0 they
compute on plain values, and above it a constant operand stays a float.
``oracles._evaluate`` walks the same tree at every call and makes a series
of every node, constants included.  Both must give the same keys in the
same order and the same bits, or the same exception and message, at one
point and over a batch of nodes whose coordinates include signed zeros,
subnormals, values whose products overflow, and values outside a
primitive's domain.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from jetstress.exprs import FUNCTIONS, _Parser, _tokenize, parse_expression
from jetstress.fields import SmoothField, coordinate_series
from oracles import _evaluate

# The last two are the largest argument whose sinh and cosh are finite and
# the next float, whose sinh and cosh overflow.
COORDINATE = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 1e-170, 1e160, -1e160, 1e308, -1e308, 1000.0,
    math.inf, -math.inf, math.nan, 710.4758600739439, 710.475860073944,
]) | st.floats(-4.0, 4.0)
LITERAL = st.sampled_from(["0", "0.0", "1", "2", "0.5", "3.25", "1e-300", "5e-324",
                           "1e308", "1e3", "pi", "e"])


def expressions(dim):
    """Expression strings over every node of the grammar, a constant or a
    variable on either side of each operator, ``^`` with negative, zero and
    positive exponents on variables and on compound bases, every function."""
    variable = st.integers(1, dim).map(lambda i: f"x{i}")
    leaf = LITERAL | variable
    exponent = st.integers(-3, 4).map(str)

    def extend(inner):
        return (
            st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda t: f"({t[0]}){t[1]}({t[2]})")
            | inner.map(lambda a: f"-({a})")
            | st.tuples(variable, exponent).map(lambda t: f"{t[0]}^{t[1]}")
            | st.tuples(inner, exponent).map(lambda t: f"({t[0]})^{t[1]}")
            | st.tuples(st.sampled_from(sorted(FUNCTIONS)), inner).map(lambda t: f"{t[0]}({t[1]})")
        )

    return st.recursive(leaf, extend, max_leaves=10)


def bits(value):
    if np.ndim(value):
        return "nodes", tuple(float(v).hex() for v in value)
    return type(value).__name__, float(value).hex()


def outcome(evaluate):
    """Keys and bits of each series ``evaluate()`` lists, or the type and
    message it raises."""
    try:
        with np.errstate(all="ignore"):
            series = evaluate()
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)
    return [(s.dim, s.order, [(k, bits(v)) for k, v in s.coeffs.items()]) for s in series]


def same_outcomes(texts, point, order):
    """Each text compiled as a field of its own, and all of them as the
    components of one field, against the trees walked on one shared set of
    coordinate series, as a field's components share them; a field raises
    the error of its first failing component."""
    dim = len(point)
    walked = coordinate_series(point, order)
    trees = [_Parser(_tokenize(text), dim).parse() for text in texts]
    leaves = [parse_expression(text, dim) for text in texts]
    for text, tree, leaf in zip(texts, trees, leaves):
        field = SmoothField.from_series_maps(dim, [leaf])
        assert outcome(lambda: field.series_on(point, order)) == \
            outcome(lambda: [_evaluate(tree, walked)]), text
    field = SmoothField.from_series_maps(dim, leaves)
    assert outcome(lambda: field.series_on(point, order)) == \
        outcome(lambda: [_evaluate(tree, walked) for tree in trees]), texts


@settings(max_examples=150, deadline=None)
@given(data=st.data(), dim=st.integers(1, 3), order=st.integers(0, 3))
def test_compiled_expression_at_a_point_is_the_tree_walk(data, dim, order):
    texts = data.draw(st.lists(expressions(dim), min_size=1, max_size=3))
    point = tuple(data.draw(COORDINATE) for _ in range(dim))
    same_outcomes(texts, point, order)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), dim=st.integers(1, 3), order=st.integers(0, 3), nodes=st.integers(2, 5))
def test_compiled_expression_on_a_batch_is_the_tree_walk(data, dim, order, nodes):
    texts = data.draw(st.lists(expressions(dim), min_size=1, max_size=3))
    # Each coordinate is one float for every node, or one value per node.
    point = tuple(
        np.array([data.draw(COORDINATE) for _ in range(nodes)]) if data.draw(st.booleans())
        else data.draw(COORDINATE)
        for _ in range(dim)
    )
    same_outcomes(texts, point, order)


# Operands whose value or coefficients are zeros of either sign at the
# points below (x2 = -0.0): a constant, a folded constant, a variable and a
# series whose x1 coefficient is -0.0.
OPERANDS = ["-0", "0", "2", "-0*1", "x1", "x2", "-(0*x1)"]
GRID = (
    [f"({a}){op}({b})" for op in "+-*/" for a in OPERANDS for b in OPERANDS]
    + [f"{f}({a})" for f in sorted(FUNCTIONS) for a in OPERANDS]
    + [f"({a})^{e}" for a in OPERANDS for e in range(-2, 4)]
)


def test_every_rule_on_signed_zeros_is_the_tree_walk():
    # A shortcut that drops a 0.0 + of the series route, which turns -0.0
    # into 0.0, shows here.
    for point in [(0.25, -0.0), (np.array([0.25, -0.0, 3.0]), np.array([-0.0, -0.0, 0.0]))]:
        for order in range(4):
            same_outcomes(GRID, point, order)
