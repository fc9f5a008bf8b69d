"""The order-0 value path against the series route it replaces.

At order 0 a series holds one number.  Monomial leaves (the value route of
``MonomialTable``) and products compute that number directly;
``oracles.monomial_series_route`` and ``oracles.series_product`` build one
series per step, each product by the walk over every pair of keys.  Both
must give the same keys and bits, signed zeros included, and neither may
split a batch of nodes.  Coordinates include exact zeros of both signs,
values whose powers underflow to zero at some nodes only, and values whose
powers overflow.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from jetstress.fields import SmoothField, coordinate_series, monomial_map, on_nodes
from jetstress.taylor import PointValues, TruncatedSeries
from oracles import monomial_series_route, series_product, series_route_field

COORDINATE = st.sampled_from([0.0, -0.0, 1e-170, -1e-170, 5e-324, 1e160, -1e160]) | st.floats(-4.0, 4.0)
NONZERO = COORDINATE.filter(lambda v: v != 0.0)
COEFFICIENT = (
    st.sampled_from([0.0, -0.0, 1e300, -1e-300, math.inf, -math.inf, math.nan])
    | st.floats(-4.0, 4.0)
)


@st.composite
def tables(draw, dim):
    """A monomial table: constant terms, exponents up to 4, possibly empty."""
    exponents = st.just((0,) * dim) | st.tuples(*[st.integers(0, 4)] * dim)
    return draw(st.lists(st.tuples(exponents, COEFFICIENT), max_size=6))


def bits(value):
    if value is None:
        return None
    if np.ndim(value):
        return "nodes", tuple(float(v).hex() for v in value)
    return type(value).__name__, float(value).hex()


def outcome(evaluate):
    """Keys and bits of ``evaluate()``."""
    series = evaluate()
    return series.dim, series.order, [(k, bits(v)) for k, v in series.coeffs.items()]


def same_outcomes(point, order, component_tables):
    """The tables as the components of one field through ``monomial_map``,
    and each through the series route on one shared set of coordinates."""
    field = SmoothField.from_series_maps(len(point), [monomial_map(t) for t in component_tables])
    want = list(coordinate_series(point, order).x)
    with np.errstate(all="ignore"):
        got = field.series_on(point, order)
        assert [outcome(lambda: s) for s in got] == \
            [outcome(lambda: monomial_series_route(table)(want)) for table in component_tables]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), dim=st.integers(1, 3), order=st.integers(0, 2))
def test_monomial_leaf_at_a_point_is_the_series_route(data, dim, order):
    component_tables = data.draw(st.lists(tables(dim), min_size=1, max_size=3))
    point = tuple(data.draw(COORDINATE) for _ in range(dim))
    same_outcomes(point, order, component_tables)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), dim=st.integers(1, 3), nodes=st.integers(2, 5))
def test_monomial_leaf_on_a_batch_is_the_series_route(data, dim, nodes):
    component_tables = data.draw(st.lists(tables(dim), min_size=1, max_size=3))
    # Each coordinate is one float for every node, or one value per node.
    point = tuple(
        np.array([data.draw(NONZERO) for _ in range(nodes)]) if data.draw(st.booleans())
        else data.draw(COORDINATE)
        for _ in range(dim)
    )
    same_outcomes(point, 0, component_tables)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), dim=st.integers(1, 3), nodes=st.integers(2, 6))
def test_on_nodes_gives_each_node_its_series_route_bits(data, dim, nodes):
    # Some nodes have a zero coordinate and others not; the batch holds the
    # same keys at every node all the same.
    component_tables = data.draw(st.lists(tables(dim), min_size=1, max_size=3))
    grid = np.array([[data.draw(COORDINATE) for _ in range(dim)] for _ in range(nodes)])
    field = SmoothField.from_series_maps(dim, [monomial_map(t) for t in component_tables])
    route = series_route_field(dim, [monomial_series_route(t) for t in component_tables])
    got = on_nodes(field.values_on, grid, width=len(component_tables))
    want = [route.values_at(tuple(node)) for node in grid]
    assert [[float(v).hex() for v in row] for row in got] == \
        [[float(v).hex() for v in row] for row in want]


@st.composite
def order0_series(draw, dim, nodes):
    kind = draw(st.sampled_from(["absent", "float", "nodes"]))
    if kind == "absent":
        return TruncatedSeries.zero(dim, 0)
    if kind == "float":
        return TruncatedSeries.constant(dim, 0, draw(COORDINATE))
    return TruncatedSeries.constant(dim, 0, np.array([draw(NONZERO) for _ in range(nodes)]))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), dim=st.integers(1, 3), nodes=st.integers(2, 5))
def test_order0_product_is_the_row_walk(data, dim, nodes):
    factors = data.draw(st.lists(order0_series(dim, nodes), min_size=2, max_size=4))

    def chain(multiply):
        out = factors[0]
        for factor in factors[1:]:
            out = multiply(out, factor)
        return out

    with np.errstate(all="ignore"):
        assert outcome(lambda: chain(lambda a, b: a * b)) == outcome(lambda: chain(series_product))
        assert outcome(lambda: factors[1] * factors[0]) == \
            outcome(lambda: series_product(factors[1], factors[0]))


POWER_BASE = COORDINATE | st.sampled_from([math.inf, -math.inf, math.nan, 1e308, -5e-324])


@settings(max_examples=200, deadline=None)
@given(data=st.data(), dim=st.integers(1, 3), nodes=st.integers(2, 5),
       exponents=st.lists(st.integers(1, 9), min_size=1, max_size=4))
def test_order0_power_value_is_the_series_power(data, dim, nodes, exponents):
    # The value of x ** e, a float or one per node, from the steps of ** on
    # plain numbers.
    nodal = data.draw(st.booleans())
    axis = data.draw(st.integers(0, dim - 1))
    zero = (0,) * dim
    base = (np.array([data.draw(POWER_BASE) for _ in range(nodes)]) if nodal
            else data.draw(POWER_BASE))
    values = PointValues([0.5] * axis + [base] + [0.5] * (dim - 1 - axis))
    with np.errstate(all="ignore"):
        for e in exponents:  # repeats read the memo
            want = (TruncatedSeries.constant(dim, 0, base) ** e).coeffs.get(zero)
            assert bits(values[axis, e]) == bits(want)
