"""Bit identity of the series kernel against a plain reference of its loops.

The reference below is the straightforward dict arithmetic the kernel must
reproduce: every coefficient, compared through ``float.hex``, and the key
insertion order of every result.  It shares no code with ``taylor.py``.
No operation drops a key, a zero included.  A batched series, one array per
coefficient, must give at each node what the one-node series gives there,
keys and signed zeros included, and never split.
"""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetstress import fields, taylor
from jetstress.fields import SmoothField, coordinate_series, monomial_map, on_nodes
from jetstress.scenarios import parse_tensor
from jetstress.taylor import TruncatedSeries
from oracles import from_polynomials, polynomial_dict_walk, polynomial_value

# -- reference loops on (dim, order, coeffs) ---------------------------------------


def ref_series(dim, order, coeffs):
    """The public constructor: every value a float, zeros kept, insertion order kept."""
    return (dim, order, {k: float(v) for k, v in coeffs.items()})


def ref_mul(a, b):
    dim, cap, ca = a
    out = {}
    for ka, va in ca.items():
        oa = sum(ka)
        for kb, vb in b[2].items():
            if oa + sum(kb) > cap:
                continue
            key = tuple(x + y for x, y in zip(ka, kb))
            out[key] = out.get(key, 0.0) + va * vb
    return ref_series(dim, cap, out)


def ref_add(a, b):
    out = dict(a[2])
    for key, val in b[2].items():
        out[key] = out.get(key, 0.0) + val
    return ref_series(a[0], a[1], out)


def ref_add_scalar(a, c):
    out = dict(a[2])
    key = (0,) * a[0]
    out[key] = out.get(key, 0.0) + float(c)
    return ref_series(a[0], a[1], out)


def ref_scale(a, c):
    c = float(c)
    return ref_series(a[0], a[1], {k: v * c for k, v in a[2].items()})


def ref_neg(a):
    return ref_series(a[0], a[1], {k: -v for k, v in a[2].items()})


def ref_constant(dim, order, value):
    return ref_series(dim, order, {(0,) * dim: value})


def ref_compose_analytic(u, derivs):
    """Horner from the constant series of the top coefficient:
    sum_m derivs[m]/m! * (u - u0)^m."""
    dim, order, coeffs = u
    h = ref_series(dim, order, {k: v for k, v in coeffs.items() if any(k)})
    result = ref_constant(dim, order, derivs[order] / math.factorial(order))
    for m in range(order - 1, -1, -1):
        result = ref_add_scalar(ref_mul(result, h), derivs[m] / math.factorial(m))
    return result


def ref_pow(a, e):
    result = ref_constant(a[0], a[1], 1.0)
    base = a
    while e:
        if e & 1:
            result = ref_mul(result, base)
        base = ref_mul(base, base) if e > 1 else base
        e >>= 1
    return result


def ref_partial(a, axis):
    dim, order, coeffs = a
    new_order = max(order - 1, 0)
    out = {}
    for key, val in coeffs.items():
        e = key[axis]
        if e == 0:
            continue
        new_key = key[:axis] + (e - 1,) + key[axis + 1:]
        if sum(new_key) <= new_order:
            out[new_key] = out.get(new_key, 0.0) + val * e
    return ref_series(dim, new_order, out)


def ref_truncate(a, order):
    return ref_series(a[0], order, {k: v for k, v in a[2].items() if sum(k) <= order})


def ref_compose(a, offsets):
    """Each term starts as its first power scaled by the coefficient (the
    constant key as a constant), and the sum starts from the first term."""
    inner_dim, inner_order = offsets[0][0], offsets[0][1]
    powers = [{1: off} for off in offsets]

    def power(axis, e):
        cache = powers[axis]
        if e not in cache:
            cache[e] = ref_mul(power(axis, e - 1), cache[1])
        return cache[e]

    result = None
    for key, val in a[2].items():
        term = None
        for axis, e in enumerate(key):
            if e:
                term = ref_scale(power(axis, e), val) if term is None else ref_mul(
                    term, power(axis, e))
        if term is None:
            term = ref_constant(inner_dim, inner_order, val)
        result = term if result is None else ref_add(result, term)
    return ref_series(inner_dim, inner_order, {}) if result is None else result


# -- helpers -----------------------------------------------------------------------

# Dyadic values make sums and products cancel to exact zeros; the others do not.
DYADIC = (0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -0.25)


def keys_within(dim, order):
    return [k for k in itertools.product(range(order + 1), repeat=dim) if sum(k) <= order]


def random_coeffs(rng, dim, order, constant_term=True):
    keys = [k for k in keys_within(dim, order) if constant_term or any(k)]
    keys = rng.sample(keys, rng.randint(0, len(keys)))  # sparse, shuffled insertion
    return {k: rng.choice(DYADIC) if rng.random() < 0.5 else rng.uniform(-2.0, 2.0)
            for k in keys}


def pair_of(rng, dim, order, **kw):
    coeffs = random_coeffs(rng, dim, order, **kw)
    return TruncatedSeries(dim, order, coeffs), ref_series(dim, order, coeffs)


def bits(series):
    """Key order and exact bits of a series or a reference triple."""
    if isinstance(series, TruncatedSeries):
        series = (series.dim, series.order, series.coeffs)
    dim, order, coeffs = series
    return dim, order, [(k, v.hex()) for k, v in coeffs.items()]


CASES = [(seed, dim, order) for seed in range(6) for dim in (1, 2, 3) for order in range(5)]


@pytest.mark.parametrize("seed, dim, order", CASES)
def test_arithmetic_matches_reference_bit_for_bit(seed, dim, order):
    rng = random.Random(1000 * seed + 10 * dim + order)
    for _ in range(4):
        a, ra = pair_of(rng, dim, order)
        b, rb = pair_of(rng, dim, order)
        c = rng.choice(DYADIC + (rng.uniform(-3.0, 3.0),))
        assert bits(a) == bits(ra)
        assert bits(a * b) == bits(ref_mul(ra, rb))
        assert bits(a * a) == bits(ref_mul(ra, ra))
        assert bits(a + b) == bits(ref_add(ra, rb))
        assert bits(a - b) == bits(ref_add(ra, ref_neg(rb)))
        assert bits(a - a) == bits(ref_add(ra, ref_neg(ra)))
        assert bits(-a) == bits(ref_neg(ra))
        assert bits(a * c) == bits(ref_scale(ra, c))
        assert bits(c * a) == bits(ref_scale(ra, c))
        assert bits(a + c) == bits(ref_add_scalar(ra, c))
        assert bits(a.constant_times(c)) == bits(ref_mul(ref_constant(dim, order, c), ra))
        assert bits(a.constant_plus(c)) == bits(ref_add(ref_constant(dim, order, c), ra))
        derivs = [rng.choice(DYADIC + (-0.0, rng.uniform(-3.0, 3.0))) for _ in range(order + 1)]
        assert bits(taylor._compose_analytic(a, derivs)) == bits(ref_compose_analytic(ra, derivs))
        for e in range(5):
            assert bits(a ** e) == bits(ref_pow(ra, e))
        for axis in range(dim):
            assert bits(a.partial(axis)) == bits(ref_partial(ra, axis))
        for target in range(order + 1):
            assert bits(a.truncate(target)) == bits(ref_truncate(ra, target))
        with pytest.raises(ValueError, match="unknown coefficients"):
            a.truncate(order + 1)


@pytest.mark.parametrize("seed, dim, order", CASES)
def test_compose_matches_reference_bit_for_bit(seed, dim, order):
    rng = random.Random(7919 * seed + 10 * dim + order)
    for inner_dim in (1, 2, 3):
        inner_order = rng.randint(0, order)
        a, ra = pair_of(rng, dim, order)
        offsets = [pair_of(rng, inner_dim, inner_order, constant_term=False) for _ in range(dim)]
        got = a.compose([s for s, _ in offsets])
        assert bits(got) == bits(ref_compose(ra, [r for _, r in offsets]))


def test_public_constructor_keeps_its_checks():
    with pytest.raises(ValueError, match="does not match dim"):
        TruncatedSeries(2, 3, {(1,): 1.0})
    with pytest.raises(ValueError, match="does not match dim"):
        TruncatedSeries(2, 3, {(1, 0, 0): 1.0})
    with pytest.raises(ValueError, match="above order"):
        TruncatedSeries(2, 2, {(2, 1): 1.0})
    with pytest.raises(ValueError):
        TruncatedSeries(0, 2)
    with pytest.raises(ValueError):
        TruncatedSeries(2, -1)
    with pytest.raises(ValueError):
        TruncatedSeries.constant(2, -1, 1.0)
    with pytest.raises(ValueError):
        TruncatedSeries.zero(0, 1)
    with pytest.raises(ValueError):
        TruncatedSeries(2, 2, {(1, 0): 1.0}).truncate(-1)
    # Outside values still pass through float().
    s = TruncatedSeries.constant(2, 1, 3) + TruncatedSeries.variable(2, 1, 0, 2)
    assert all(type(v) is float for v in s.coeffs.values())


def count_pow_calls(monkeypatch):
    calls = []
    original = TruncatedSeries.__pow__

    def counted(self, exponent):
        calls.append(exponent)
        return original(self, exponent)

    monkeypatch.setattr(TruncatedSeries, "__pow__", counted)
    return calls


def test_monomial_leaf_computes_each_power_once_per_point(monkeypatch):
    components = [
        [((2, 0, 1), 1.5), ((2, 1, 0), -0.5), ((0, 3, 0), 2.0)],
        [((2, 0, 0), 1.0), ((0, 3, 1), 0.25), ((0, 0, 0), 4.0)],
        [((0, 0, 1), -1.0), ((2, 0, 1), 0.75)],
    ]
    field = from_polynomials(3, components)
    distinct = {(axis, e) for comp in components for exps, _ in comp
                for axis, e in enumerate(exps) if e}
    calls = count_pow_calls(monkeypatch)
    field.series_at((0.3, -0.2, 0.7), 3)
    assert len(calls) <= len(distinct)


def test_expression_leaf_shares_variable_powers(monkeypatch):
    field = SmoothField.from_expressions(2, ["x1^2 + x1^2*x2", "3*x1^2 - x2^3", "(x1 + x2)^2"])
    calls = count_pow_calls(monkeypatch)
    field.series_at((0.4, 1.1), 2)
    # x1^2 and x2^3 once each, and the one power of a compound base.
    assert sorted(calls) == [2, 2, 3]


@pytest.mark.parametrize("exponent, products", [(0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3)])
def test_power_starts_from_the_first_factor(monkeypatch, exponent, products):
    s = TruncatedSeries(2, 3, {(0, 0): 0.5, (1, 0): 2.0, (0, 1): -1.0, (1, 1): 0.25})
    calls = []
    original = TruncatedSeries.__mul__

    def counted(self, other):
        calls.append(other)
        return original(self, other)

    monkeypatch.setattr(TruncatedSeries, "__mul__", counted)
    s ** exponent
    assert len(calls) == products


@pytest.mark.parametrize("terms", [1, 2, 3, 5])
def test_compose_starts_from_the_first_term(monkeypatch, terms):
    keys = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)][:terms]
    outer = TruncatedSeries(2, 2, {k: 0.5 + i for i, k in enumerate(keys)})
    offsets = [TruncatedSeries(1, 2, {(1,): 1.0, (2,): -0.5}), TruncatedSeries(1, 2, {(1,): 2.0})]
    calls = []
    original = TruncatedSeries.__add__

    def counted(self, other):
        calls.append(other)
        return original(self, other)

    monkeypatch.setattr(TruncatedSeries, "__add__", counted)
    outer.compose(offsets)
    assert len(calls) == terms - 1


def test_compose_of_the_zero_series_is_zero():
    offsets = [TruncatedSeries(1, 2, {(1,): 1.0})] * 2
    out = TruncatedSeries.zero(2, 2).compose(offsets)
    assert (out.dim, out.order, out.coeffs) == (1, 2, {})


# -- batches of nodes ----------------------------------------------------------------

ANALYTIC = {
    name: getattr(taylor, f"{name}_series")
    for name in ("sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh", "tanh", "reciprocal")
}
ANALYTIC["power"] = lambda u: taylor.power_series(u, 1.5)

NONZERO = st.floats(0.125, 4.0) | st.floats(-4.0, -0.125)
VALUE = NONZERO | st.sampled_from([0.0, -0.0])


@st.composite
def node_tables(draw, dim, order, nodes, constant=None):
    """Keys in a drawn order, each with one value per node, exact zeros of
    both signs among them.

    ``constant``: None leaves the constant term to the draw, True puts it in
    with positive values, False leaves it out.
    """
    keys = [k for k in keys_within(dim, order) if any(k) or constant is not False]
    keys = draw(st.permutations(keys))[:draw(st.integers(1, len(keys)))]
    zero = (0,) * dim
    if constant and zero not in keys:
        keys.append(zero)
    return {k: [abs(draw(NONZERO)) if constant and k == zero else draw(VALUE)
                for _ in range(nodes)] for k in keys}


def batched(dim, order, table):
    """The batched series of ``table``: its keys in order, one array each."""
    columns = {k: np.array(column) for k, column in table.items()}
    return TruncatedSeries._trusted(dim, order, columns)


def at_node(table, i):
    return {k: column[i] for k, column in table.items()}


def node_bits(series, i):
    """``bits`` of node ``i`` of a batched series."""
    return series.dim, series.order, [
        (k, float(v[i] if np.ndim(v) else v).hex()) for k, v in series.coeffs.items()
    ]


def assert_nodes_match(batch_fn, node_fn, nodes):
    """Every node of ``batch_fn()`` has the bits and key order of ``node_fn(i)``."""
    got = batch_fn()
    for i in range(nodes):
        assert node_bits(got, i) == bits(node_fn(i))


OPERATIONS = {
    "mul": lambda a, b, c: a * b,
    "add": lambda a, b, c: a + b,
    "sub": lambda a, b, c: a - b,
    "neg": lambda a, b, c: -a,
    "scale": lambda a, b, c: a * 0.375,
    "scale-by-node": lambda a, b, c: a * c,
    "shift-by-node": lambda a, b, c: a + c,
    "div-by-node": lambda a, b, c: a / c,
    "pow": lambda a, b, c: a ** 3,
    "partial": lambda a, b, c: a.partial(a.dim - 1),
    "truncate": lambda a, b, c: a.truncate(max(a.order - 1, 0)),
    **{name: (lambda a, b, c, fn=fn: fn(a)) for name, fn in ANALYTIC.items()},
}


@pytest.mark.parametrize("name", sorted(OPERATIONS))
@settings(max_examples=15, deadline=None)
@given(data=st.data(), dim=st.integers(1, 3), order=st.integers(0, 3), nodes=st.integers(2, 4))
def test_each_node_of_a_batched_operation_is_the_one_node_result(name, data, dim, order, nodes):
    a_table = data.draw(node_tables(dim, order, nodes, constant=True))
    b_table = data.draw(node_tables(dim, order, nodes))
    c_column = [data.draw(NONZERO) for _ in range(nodes)]
    op = OPERATIONS[name]
    assert_nodes_match(
        lambda: op(batched(dim, order, a_table), batched(dim, order, b_table), np.array(c_column)),
        lambda i: op(TruncatedSeries(dim, order, at_node(a_table, i)),
                     TruncatedSeries(dim, order, at_node(b_table, i)), c_column[i]),
        nodes,
    )


@settings(max_examples=40, deadline=None)
@given(data=st.data(), dim=st.integers(1, 3), inner_dim=st.integers(1, 3),
       order=st.integers(0, 3), nodes=st.integers(2, 4))
def test_each_node_of_a_batched_compose_is_the_one_node_result(data, dim, inner_dim, order, nodes):
    outer = data.draw(node_tables(dim, order, nodes))
    inner_order = data.draw(st.integers(0, order))
    offsets = [data.draw(node_tables(inner_dim, inner_order, nodes, constant=False))
               for _ in range(dim)] if inner_order else None
    if offsets is None:  # an order-0 offset is the zero series
        offsets = [{} for _ in range(dim)]
    assert_nodes_match(
        lambda: batched(dim, order, outer).compose(
            [batched(inner_dim, inner_order, t) for t in offsets]),
        lambda i: TruncatedSeries(dim, order, at_node(outer, i)).compose(
            [TruncatedSeries(inner_dim, inner_order, at_node(t, i)) for t in offsets]),
        nodes,
    )


def test_a_coefficient_zero_at_some_nodes_keeps_its_key_at_every_node():
    centers = np.array([0.25, 0.5, 0.75])
    got = TruncatedSeries.variable(1, 2, 0, centers) - 0.5
    assert list(got.coeffs) == [(0,), (1,)]
    assert [v.hex() for v in got.coeffs[(0,)]] == ["-0x1.0000000000000p-2", "0x0.0p+0",
                                                   "0x1.0000000000000p-2"]
    # One node keeps the zero too, so it holds the batch's keys.
    one = TruncatedSeries.variable(1, 2, 0, 0.5) - 0.5
    assert bits(one) == node_bits(got, 1)
    # Zero at every node, or a zero built by the validating constructor: kept.
    assert list((TruncatedSeries.variable(1, 2, 0, np.full(3, 0.5)) - 0.5).coeffs) == [(0,), (1,)]
    assert list(TruncatedSeries(1, 2, {(2,): 0.0, (0,): -0.0}).coeffs) == [(2,), (0,)]


ZERO_ON_A_LINE = {
    "neg": SmoothField.from_expressions(2, ["-(x1 - 0.5)"]),
    "scaled": SmoothField.from_expressions(2, ["(x1 - 0.5)*x2"]).scale(-2.0),
    "cubed": SmoothField.from_expressions(2, ["(0.5 - x1)^3*x2 - x2*x1^2"]),
}


@pytest.mark.parametrize("name", sorted(ZERO_ON_A_LINE))
@pytest.mark.parametrize("derivative", [(0, 0), (1, 0), (0, 1)])
def test_nodes_where_a_value_is_zero_keep_the_one_node_bits(name, derivative):
    # At x1 = 0.5 a factor is exactly zero, and its negation -0.0, at one
    # node as in the batch: both keep its key.
    field = ZERO_ON_A_LINE[name]
    nodes = np.array([[x1, x2] for x1 in (0.25, 0.5, 0.75) for x2 in (0.1, 0.5, 0.9)])

    def value(point):
        return field.series_on(point, 2)[0].coefficient(derivative)

    got = on_nodes(value, nodes)
    want = [value(tuple(float(c) for c in node)) for node in nodes]
    assert [float(v).hex() for v in got] == [float(v).hex() for v in want]


# -- monomial leaves: value route and product plan -----------------------------------
#
# The references are the dict walk of series arithmetic and its order-0 value
# (``oracles.polynomial_dict_walk`` and ``oracles.polynomial_value``).

SUBNORMAL = 2.2250738585072014e-308 / 4
LEAF_COEFFICIENT = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, SUBNORMAL, -SUBNORMAL, 1e308, -1e308]) | st.floats(-4.0, 4.0)
LEAF_COORDINATE = st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e160, -1e160]) | st.floats(-4.0, 4.0)


@st.composite
def monomial_tables(draw, dim):
    """A monomial table with exponents up to 5: possibly empty, with constant terms."""
    exponents = st.just((0,) * dim) | st.tuples(*[st.integers(0, 5)] * dim)
    return draw(st.lists(st.tuples(exponents, LEAF_COEFFICIENT), max_size=6))


def leaf_outcome(evaluate):
    """Keys and coefficient bits of each series ``evaluate()`` lists, or the
    type and message of what it raises."""
    try:
        with np.errstate(all="ignore"):
            series = evaluate()
    except Exception as exc:  # whatever either route raises, the other must raise too
        return type(exc).__name__, str(exc)
    return [(s.dim, s.order, [(k, ("nodes", tuple(float(x).hex() for x in v)) if np.ndim(v)
                               else (type(v).__name__, float(v).hex()))
                              for k, v in s.coeffs.items()]) for s in series]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), dim=st.integers(1, 4), order=st.integers(0, 4), nodes=st.integers(1, 5))
def test_monomial_routes_are_the_dict_walk_bit_for_bit(data, dim, order, nodes):
    tables = data.draw(st.lists(monomial_tables(dim), min_size=1, max_size=3))
    # One float point, or a batch whose coordinates are each one float or one
    # value per node.
    point = tuple(
        np.array([data.draw(LEAF_COORDINATE) for _ in range(nodes)])
        if nodes > 1 and data.draw(st.booleans()) else data.draw(LEAF_COORDINATE)
        for _ in range(dim)
    )
    # The tables share their product plans, as those of a scenario's field do;
    # the second read runs the plans the first one built.
    plans = {}
    field = SmoothField.from_series_maps(dim, [monomial_map(t, plans) for t in tables])
    reference = coordinate_series(point, order)
    route = polynomial_dict_walk if order else polynomial_value
    terms = [[(float(coef), [(axis, e) for axis, e in enumerate(exps) if e])
              for exps, coef in table] for table in tables]
    want = leaf_outcome(lambda: [route(reference, t) for t in terms])
    assert leaf_outcome(lambda: field.series_on(point, order)) == want
    assert leaf_outcome(lambda: field.series_on(point, order)) == want


# Op-count guards: the work a leaf read does, not its time.
LEAF_SPECS = [2.5, {"monomials": [[[1, 2], 0.5], [[0, 0], 1.0], [[3, 0], -0.25]]},
              "x1*sin(x2) + x2^2 - 1"]


def leaf_field():
    return parse_tensor(LEAF_SPECS, 2, (len(LEAF_SPECS),), "u").field


def test_an_order0_read_builds_no_coordinate_series(monkeypatch):
    built = []
    series, init = fields.coordinate_series, taylor.Coordinates.__init__
    monkeypatch.setattr(fields, "coordinate_series",
                        lambda *args: built.append("series") or series(*args))
    monkeypatch.setattr(taylor.Coordinates, "__init__",
                        lambda self, *args: built.append("Coordinates") or init(self, *args))
    field = leaf_field()
    field.series_at((0.3, 0.7), 0)
    on_nodes(field.values_on, np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]), width=field.ncomp)
    assert built == []
    field.series_at((0.3, 0.7), 1)  # the guard sees a series read
    assert built == ["series", "Coordinates"]


@pytest.mark.parametrize("order", [1, 2, 3])
def test_a_monomial_table_multiplies_series_only_for_its_powers(monkeypatch, order):
    components = [[((2, 0, 1), 1.5), ((2, 1, 0), -0.5), ((0, 3, 0), 2.0), ((0, 0, 0), 4.0)],
                  [((1, 1, 1), 1.0), ((0, 2, 2), 0.25)]]
    field = from_polynomials(3, components)
    calls, depth = [], [0]
    mul, power = TruncatedSeries.__mul__, TruncatedSeries.__pow__

    def counted_mul(self, other):
        calls.append(depth[0])
        return mul(self, other)

    def counted_pow(self, e):
        depth[0] += 1
        try:
            return power(self, e)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(TruncatedSeries, "__mul__", counted_mul)
    monkeypatch.setattr(TruncatedSeries, "__pow__", counted_pow)
    field.series_at((0.3, -0.2, 0.7), order)
    on_nodes(lambda p: field.series_on(p, order)[0].value, np.array([[0.1, 0.2, 0.3]] * 3))
    # Every series product is a step of some x_i ** e; none is a monomial's.
    assert calls and all(depth for depth in calls)
