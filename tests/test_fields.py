"""Smooth fields: exact jets, the finite-difference oracle, and field algebra."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetstress import fields
from jetstress.fields import (
    SmoothField,
    TensorField,
    coordinate_series,
    fibre_sum,
    finite_difference_jet,
    jet_extension,
    jets_on,
    on_nodes,
)
from jetstress.geometry import FormField
from jetstress.taylor import TruncatedSeries
from oracles import from_polynomials


def test_monomial_jet_one_dim():
    # w = x^2 at x=1: value 1, first derivative 2, second derivative 2.
    w = from_polynomials(1, [[((2,), 1.0)]])
    jet = jet_extension(w, (1.0,), 2)
    assert jet.array(0)[0] == pytest.approx(1.0)
    assert jet.array(1)[0, 0] == pytest.approx(2.0)
    assert jet.array(2)[0, 0, 0] == pytest.approx(2.0)


def test_constant_field_jet():
    w = SmoothField.constant(2, [3.5])
    jet = jet_extension(w, (0.3, -0.2), 2)
    assert jet.array(0)[0] == pytest.approx(3.5)
    assert np.all(jet.array(1) == 0.0)
    assert np.all(jet.array(2) == 0.0)


def test_sine_jet_against_finite_differences():
    # Frozen analytic values (0, 1, 0, -1) for sin at 0, plus the FD oracle.
    w = SmoothField.from_expressions(1, ["sin(x1)"])
    jet = jet_extension(w, (0.0,), 3)
    assert jet.array(0)[0] == pytest.approx(0.0, abs=1e-15)
    assert jet.array(1)[0, 0] == pytest.approx(1.0, abs=1e-15)
    assert jet.array(2)[0, 0, 0] == pytest.approx(0.0, abs=1e-15)
    assert jet.array(3)[0, 0, 0, 0] == pytest.approx(-1.0, abs=1e-14)
    fd = finite_difference_jet(w, (0.0,), 2, 1e-4)
    assert abs(fd.array(1)[0, 0] - jet.array(1)[0, 0]) < 1e-7
    assert abs(fd.array(2)[0, 0, 0] - jet.array(2)[0, 0, 0]) < 1e-6


@pytest.mark.parametrize("n, order", [(1, 2), (2, 1), (2, 2), (3, 2)])
def test_finite_difference_jet_reads_the_field_once_per_stencil_point(monkeypatch, n, order):
    # The oracle's route stays one float point per read, not a batch of nodes;
    # the second differences read the first differences' points again.
    field = SmoothField.from_expressions(n, ["x1^2 + x%d^3" % n, "0.5*x1*x%d" % n])
    reads = []
    original = SmoothField.series_at

    def recorded(self, point, order):
        reads.append((tuple(point), order))
        return original(self, point, order)

    monkeypatch.setattr(SmoothField, "series_at", recorded)
    finite_difference_jet(field, tuple(0.3 + 0.1 * k for k in range(n)), order)
    pairs = n * (n - 1) // 2
    assert len(reads) == 1 + 2 * n * (order >= 1) + (2 * n + 4 * pairs) * (order >= 2)
    assert len(set(reads)) == 1 + 2 * n * (order >= 1) + 4 * pairs * (order >= 2)
    assert all(o == 0 and all(type(c) is float for c in p) for p, o in reads)


def test_finite_difference_quadratic_exact_and_exp():
    w = from_polynomials(1, [[((2,), 1.0)]])
    fd = finite_difference_jet(w, (1.0,), 2, 1e-4)
    assert abs(fd.array(1)[0, 0] - 2.0) < 1e-7
    wexp = SmoothField.from_expressions(1, ["exp(x1)"])
    fd = finite_difference_jet(wexp, (0.0,), 2, 1e-4)
    assert abs(fd.array(2)[0, 0, 0] - 1.0) < 1e-6
    zero = SmoothField.constant(3, [0.0, 0.0])
    fdz = finite_difference_jet(zero, (0.1, 0.2, 0.3), 2)
    assert all(np.all(a == 0.0) for a in fdz.arrays)


def test_polynomial_jets_exact_to_machine():
    rng = random.Random(11)
    for _ in range(10):
        n, k = 2, 3
        table = []
        for exps in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (1, 2)]:
            table.append((exps, rng.uniform(-2, 2)))
        w = from_polynomials(n, [table])
        x = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        jet = jet_extension(w, x, k)

        # Spot-check the mixed second derivative against symbolic differentiation.
        d_dxdy = sum(
            c * e[0] * e[1] * x[0] ** (e[0] - 1) * x[1] ** (e[1] - 1)
            for e, c in table
            if e[0] >= 1 and e[1] >= 1
        )
        rel = abs(jet.array(2)[0, 0, 1] - d_dxdy) / max(1.0, abs(d_dxdy))
        assert rel < 1e-13


def test_jet_symmetry_exact():
    w = SmoothField.from_expressions(2, ["sin(x1)*exp(x2) + x1^3*x2^2"])
    jet = jet_extension(w, (0.4, -0.7), 3)
    a2, a3 = jet.array(2), jet.array(3)
    assert np.array_equal(a2[0], a2[0].T)
    for perm in [(0, 2, 1), (1, 0, 2), (2, 1, 0)]:
        assert np.array_equal(a3[0], np.transpose(a3[0], perm))


def test_transcendental_jet_vs_fd_on_grid():
    # Mixed polynomial / analytic fields across |x| <= 2 stay within 1e-6 of FD.
    fields = [
        SmoothField.from_expressions(2, ["sin(x1)*cos(x2)"]),
        SmoothField.from_expressions(2, ["exp(x1 - x2) + x1^2"]),
        SmoothField.from_expressions(2, ["cos(x1*x2)"]),
    ]
    points = [(-2.0, 1.0), (0.5, -1.5), (1.0, 2.0)]
    for w in fields:
        for x in points:
            exact = jet_extension(w, x, 2)
            approx = finite_difference_jet(w, x, 2, 1e-4)
            for p in range(3):
                assert np.max(np.abs(exact.array(p) - approx.array(p))) < 1e-6


def test_field_composition_chain_rule():
    # (f o g) with f(y) = y^2, g(x) = sin(x): derivative 2 sin x cos x.
    f = from_polynomials(1, [[((2,), 1.0)]])
    g = SmoothField.from_expressions(1, ["sin(x1)"])
    h = f.compose(g)
    x0 = 0.6
    jet = jet_extension(h, (x0,), 1)
    assert jet.array(1)[0, 0] == pytest.approx(2 * math.sin(x0) * math.cos(x0), abs=1e-14)


def test_partial_field_and_compose_partial():
    w = TensorField(from_polynomials(2, [[((2, 1), 1.0)]]), (1,))  # x1^2 x2
    dw = w.gradient()
    assert dw.at((2.0, 3.0))[0, 0] == pytest.approx(12.0)
    ddw = dw.gradient()
    assert ddw.at((2.0, 3.0))[0, 0, 1] == pytest.approx(4.0)


def test_tensor_field_shape_and_component():
    field = from_polynomials(
        2, [[((1, 0), 1.0)], [((0, 1), 2.0)], [((0, 0), 3.0)], [((1, 1), 1.0)]]
    )
    tf = TensorField(field, (2, 2))
    arr = tf.at((1.0, 2.0))
    assert arr.shape == (2, 2)
    assert arr[0, 0] == pytest.approx(1.0)
    assert arr[0, 1] == pytest.approx(4.0)
    assert arr[1, 0] == pytest.approx(3.0)
    assert arr[1, 1] == pytest.approx(2.0)


def test_jet_projection_truncation():
    # The jet projection: a lower-order extension is the truncated higher one.
    w = SmoothField.from_expressions(2, ["exp(x1)*x2", "sin(x1 + x2^2)"])
    jet = jet_extension(w, (0.1, 0.4), 3)
    lower = jet_extension(w, (0.1, 0.4), 1)
    assert lower.order == 1 and len(lower.arrays) == 2
    for p in range(2):
        assert np.array_equal(lower.array(p), jet.array(p))
    assert lower.array(1)[0, 1] == pytest.approx(np.exp(0.1))
    with pytest.raises(ValueError):
        lower.array(2)


# -- batches of nodes ----------------------------------------------------------------


@pytest.mark.parametrize("terms", range(1, 10))
def test_fibre_sum_adds_like_numpy_sum_at_each_node(terms):
    rng = np.random.default_rng(terms)
    values = rng.standard_normal((200, terms)) * rng.choice([1e-8, 1.0, 1e8], (200, terms))
    values[::5, 0] = -0.0
    values[::7] = -0.0
    got = fibre_sum(list(values.T))
    want = [np.sum(row) for row in values]
    assert [float(v).hex() for v in got] == [float(v).hex() for v in want]
    assert float(fibre_sum(list(values[3]))).hex() == float(want[3]).hex()


def test_on_nodes_evaluates_in_batches_of_at_most_batch(monkeypatch):
    monkeypatch.setattr(fields, "BATCH", 4)
    sizes = []
    field = SmoothField.from_expressions(2, ["sin(x1)*exp(x2) - x1^3"])

    def value(point):
        sizes.append(np.size(point[0]))
        return field.values_on(point)[0]

    nodes = np.random.default_rng(0).uniform(0.1, 0.9, (10, 2))
    got = on_nodes(value, nodes)
    assert sizes == [4, 4, 2]
    assert got.tolist() == [field.values_at(node)[0] for node in nodes]


def test_on_nodes_raises_the_error_of_the_first_failing_node():
    # Node 1 divides by zero; node 2 takes the log of a negative number, in an
    # earlier step of the same expression.
    field = SmoothField.from_expressions(2, ["log(x1) + 1/x2"])
    nodes = np.array([[0.5, 0.5], [0.5, 0.0], [-1.0, 0.5]])
    with pytest.raises(ValueError, match="cannot invert"):
        field.values_at(nodes[1])
    with pytest.raises(ValueError, match="cannot invert"):
        on_nodes(lambda point: field.values_on(point)[0], nodes)
    assert on_nodes(lambda point: field.values_on(point)[0], nodes[:1]).tolist() == [
        math.log(0.5) + 2.0]


def test_on_nodes_keeps_nan_and_overflow_quiet(recwarn):
    field = SmoothField.from_expressions(1, ["exp(x1)*exp(x1) - exp(x1)*exp(x1)"])
    got = on_nodes(lambda point: field.values_on(point)[0], np.array([[0.5], [600.0]]))
    assert got[0] == 0.0 and math.isnan(got[1])
    assert not recwarn.list


def _counted(field):
    """``field`` behind an evaluator that records the node count of each call."""
    calls = []

    def evaluator(point, order):
        calls.append(np.size(point[0]))
        return field.series_on(point, order)

    return SmoothField(field.dim, field.ncomp, evaluator), calls


def test_a_field_read_twice_in_one_batch_is_evaluated_once():
    leaf, calls = _counted(SmoothField.from_expressions(2, ["sin(x1)*x2 + x1^2"]))
    twice = leaf + leaf.scale(2.0)
    nodes = np.random.default_rng(1).uniform(0.1, 0.9, (10, 2))
    got = on_nodes(lambda point: twice.values_on(point)[0], nodes)
    assert calls == [10]
    assert got.tolist() == [twice.values_at(node)[0] for node in nodes]
    # One-node evaluation reads the leaf twice per point.
    assert calls[1:] == [1] * 20


def test_series_at_is_memoized_inside_a_batch_only():
    leaf, calls = _counted(SmoothField.from_expressions(2, ["x1*x2"]))
    nodes = np.random.default_rng(2).uniform(0.1, 0.9, (6, 2))
    point = (nodes[:, 0], nodes[:, 1])
    leaf.series_at(point, 1)
    leaf.series_at(point, 1)
    assert calls == [6, 6]
    calls.clear()

    def value(point):
        # One-point calls are separate evaluations; a lower order is served
        # from the stored order 1.
        leaf.series_at(point, 1)
        leaf.series_at((0.5, 0.5), 0)
        leaf.series_at((0.5, 0.5), 0)
        return leaf.series_at(point, 0)[0].value + leaf.series_at(point, 0)[0].value

    on_nodes(value, nodes)
    assert calls == [6, 1, 1]
    assert fields._MEMO.get() is None


def test_content_equal_coordinates_share_a_memo_entry():
    leaf, calls = _counted(SmoothField.from_expressions(2, ["x1*x2"]))
    nodes = np.random.default_rng(4).uniform(0.1, 0.9, (6, 2))

    def value(point):
        copy = tuple(np.array(c) for c in point)
        assert copy[0] is not point[0]
        first = leaf.series_on(point, 1)[0]
        again = leaf.series_on(copy, 1)[0]
        lower = leaf.series_on((point[0] * 1.0, copy[1]), 0)[0]
        assert list(again.coeffs.items()) == list(first.coeffs.items())
        # Other values are another entry.
        leaf.series_on((point[0] + 1.0, point[1]), 0)
        return lower.value

    got = on_nodes(value, nodes)
    assert calls == [6, 6]
    assert got.tolist() == [leaf.values_at(node)[0] for node in nodes]


def test_a_batch_that_falls_back_node_by_node_leaves_no_memo_entry():
    # A batch whose nodes pick pivot rows of different layouts raises
    # ArithmeticError; its nodes are read again one at a time, outside any memo.
    leaf, calls = _counted(SmoothField.from_expressions(1, ["exp(x1)"]))
    opened = []

    def value(point):
        memo = fields._MEMO.get()
        opened.append(None if memo is None else len(memo))
        out = leaf.values_on(point)[0]
        if np.size(point[0]) == 4:
            raise ArithmeticError("nodes of a batch pick pivot rows of different layouts")
        return out

    nodes = np.array([[0.1], [0.2], [0.3], [0.4]])
    got = on_nodes(value, nodes)
    assert opened == [0, None, None, None, None]
    assert calls == [4, 1, 1, 1, 1]
    assert fields._MEMO.get() is None
    assert got.tolist() == [math.exp(x) for x in (0.1, 0.2, 0.3, 0.4)]


def test_on_nodes_with_a_width_returns_one_row_per_node():
    field = SmoothField.from_expressions(2, ["x1 - x2", "x1*x2"])
    nodes = np.random.default_rng(3).uniform(0.1, 0.9, (5, 2))
    got = on_nodes(lambda point: field.values_on(point) + [2.0], nodes, 3)
    assert got.tolist() == [list(field.values_at(node)) + [2.0] for node in nodes]
    assert on_nodes(lambda point: field.values_on(point), nodes[:1], 2).tolist() == [
        list(field.values_at(nodes[0]))]


@pytest.mark.parametrize("text, bad", [
    ("log(x1)", -0.5),
    ("log(x1)", 0.0),
    ("sqrt(x1)", -0.25),
    ("1/x1", 0.0),
    ("sqrt(x1) + 1/(x1 - 0.5)", 0.5),
])
def test_a_batched_primitive_raises_the_message_of_its_one_invalid_node(text, bad):
    field = SmoothField.from_expressions(1, [text])
    nodes = np.array([[0.75], [0.9], [bad], [0.8]])
    with pytest.raises(ValueError) as one_node:
        field.values_at(nodes[2])
    # The batch itself stops on the invalid node.
    with pytest.raises(ValueError) as batch:
        field.values_on((nodes[:, 0],))
    assert str(batch.value) == str(one_node.value)
    with pytest.raises(ValueError) as through_on_nodes:
        on_nodes(lambda point: field.values_on(point)[0], nodes)
    assert str(through_on_nodes.value) == str(one_node.value)
    valid = np.delete(nodes, 2, axis=0)
    got = on_nodes(lambda point: field.values_on(point)[0], valid)
    assert [v.hex() for v in got.tolist()] == [field.values_at(n)[0].hex() for n in valid]


# -- order truncation of stored series ------------------------------------------

MEMO_COORDINATE = st.sampled_from([0.0, 0.5, -0.75]) | st.floats(-2.0, 2.0)
_INNER = from_polynomials(2, [[((1, 0), 1.0), ((0, 2), 0.3)],
                              [((0, 1), 1.0), ((1, 1), -0.2), ((0, 0), 0.1)]])
MEMO_FIELDS = {
    "polynomial": from_polynomials(
        2, [[((2, 1), 0.7), ((0, 3), -1.3), ((1, 0), 0.4), ((0, 0), 0.25)],
            [((1, 1), 2.0), ((0, 0), -1.0)]]),
    "expression": SmoothField.from_expressions(
        2, ["sin(x1)*x2 + exp(x2 - x1)", "sqrt(1 + x1^2 + x2^2)*x1"]),
    "composed": SmoothField.from_expressions(2, ["sin(x1)*exp(x2)", "x1*x2^2"]).compose(_INNER),
    "pulled back": FormField.omitting(SmoothField.from_expressions(
        2, ["exp(x1)*x2", "sin(x2) + x1^2"])).pullback(_INNER).coeffs,
}


def _keys_and_bits(series):
    return [[(k, tuple(float(x).hex() for x in np.atleast_1d(v)), np.ndim(v))
             for k, v in s.coeffs.items()] for s in series]


@settings(max_examples=80, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(MEMO_FIELDS)),
       high=st.integers(1, 3), nodes=st.integers(2, 4))
def test_a_stored_order_truncates_to_a_fresh_lower_order(data, name, high, nodes):
    field = MEMO_FIELDS[name]
    low = data.draw(st.integers(0, high - 1))
    # Each coordinate is one float for every node, or one value per node.
    point = tuple(
        np.array([data.draw(MEMO_COORDINATE) for _ in range(nodes)]) if data.draw(st.booleans())
        else data.draw(MEMO_COORDINATE)
        for _ in range(2)
    )
    with np.errstate(all="ignore"):
        stored = field.series_on(point, high)
        fresh = field.series_on(point, low)
        served = fields._evaluate_batch(
            lambda p: (field.series_on(p, high), field.series_on(p, low))[1], point)
    want = _keys_and_bits(fresh)
    assert _keys_and_bits([s.truncate(low) for s in stored]) == want
    assert _keys_and_bits(served) == want


# -- batch independence ----------------------------------------------------------

# Exact zeros of both signs, a value whose square underflows to 0.0, and a
# few values drawn often, so nodes share coordinates.
BATCH_COORDINATE = st.sampled_from([0.0, -0.0, 0.5, -1.25, 1e-170]) | st.floats(-2.0, 2.0)
BATCH_FIELDS = {
    "monomial": from_polynomials(
        2, [[((2, 1), 0.7), ((0, 3), -1.3), ((1, 0), 0.4), ((0, 0), -0.0)],
            [((1, 1), -2.0), ((2, 0), 0.0), ((0, 0), 1.5)]]),
    "expression": SmoothField.from_expressions(
        2, ["sin(x1)*x2 - x1*x2^2", "exp(x2)*x1 + sqrt(1 + x1^2)*x2 - 0.5*x2", "-(x1*x2)"]),
}


@settings(max_examples=80, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(BATCH_FIELDS)), order=st.integers(0, 2))
def test_a_node_value_does_not_depend_on_the_nodes_that_share_its_batch(data, name, order):
    field = BATCH_FIELDS[name]
    keys = [k for k in itertools.product(range(order + 1), repeat=2) if sum(k) <= order]

    def read(point):
        return [s.coefficient(k) for s in field.series_on(point, order) for k in keys]

    rows = data.draw(st.lists(st.tuples(BATCH_COORDINATE, BATCH_COORDINATE), min_size=2,
                              max_size=8))
    nodes = np.array(rows + rows[:data.draw(st.integers(0, 2))])  # some nodes twice
    width = field.ncomp * len(keys)
    whole = on_nodes(read, nodes, width)
    cuts = sorted(data.draw(st.sets(st.integers(1, len(nodes) - 1))))
    regrouped = np.concatenate([on_nodes(read, part, width) for part in np.split(nodes, cuts)])
    one_node = [read(tuple(float(c) for c in node)) for node in nodes]

    def hexed(values):
        return [[float(v).hex() for v in row] for row in values]

    assert hexed(whole) == hexed(one_node)
    assert hexed(regrouped) == hexed(one_node)


def _jet_from_series(series, order):
    """Derivative arrays from one point's series: each coefficient times I!
    in every slot of its derivative array, 0.0 where the series has no key."""
    dim, d = series[0].dim, len(series)
    arrays = [np.zeros((d,) + (dim,) * p) for p in range(order + 1)]
    for alpha, s in enumerate(series):
        for exps, coef in s.coeffs.items():
            axes = [axis for axis, e in enumerate(exps) for _ in range(e)]
            factorial = math.prod(map(math.factorial, exps))
            for slot in set(itertools.permutations(axes)):
                arrays[len(axes)][(alpha,) + slot] = coef * factorial
    return arrays


@settings(max_examples=60, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(BATCH_FIELDS)), order=st.integers(0, 3))
def test_jets_on_gives_each_node_the_bits_of_its_one_point_jet(data, name, order):
    field = BATCH_FIELDS[name]
    rows = data.draw(st.lists(st.tuples(BATCH_COORDINATE, BATCH_COORDINATE), min_size=1,
                              max_size=6))
    stacked = jets_on(field, rows, order)
    assert [a.shape for a in stacked] == [
        (len(rows), field.ncomp) + (2,) * p for p in range(order + 1)]

    def hexed(arrays):
        return [[float(v).hex() for v in np.ravel(a)] for a in arrays]

    for k, row in enumerate(rows):
        arrays = [a[k] for a in stacked]
        assert all(a.flags.c_contiguous for a in arrays)
        want = hexed(_jet_from_series(field.series_at(row, order), order))
        assert hexed(arrays) == want
        one = jet_extension(field, row, order)
        assert (one.dim, one.fiber_dim, one.order) == (2, field.ncomp, order)
        assert all(a.flags.c_contiguous for a in one.arrays)
        assert hexed(one.arrays) == want


def test_a_one_point_jet_reads_its_series_once_without_a_batch(monkeypatch):
    field = BATCH_FIELDS["expression"]
    reads = []
    series_on = SmoothField.series_on

    def recorded(self, point, order):
        reads.append((point, order))
        return series_on(self, point, order)

    monkeypatch.setattr(SmoothField, "series_on", recorded)
    monkeypatch.setattr(fields, "on_nodes", None)
    jet_extension(field, (0.25, 2), 2)
    assert reads == [((0.25, 2.0), 2)] and type(reads[0][0][1]) is float


def test_the_jet_oracle_check_reads_one_jet_per_sample_point(monkeypatch):
    # The per-layer trace counts jet_extension calls; the check keeps one
    # one-point jet per sample, next to its finite-difference oracle.
    from jetstress import scenarios

    scenario = scenarios.load_scenario(scenarios.generate_scenario(3, 2, 2, 3))
    calls = []

    def counted(field, point, order):
        calls.append(point)
        return jet_extension(field, point, order)

    monkeypatch.setattr(scenarios, "jet_extension", counted)
    scenarios.run_checks(scenario, ["jet-oracle"])
    assert calls == scenarios._sample_points(scenario, 5)


def test_a_failing_one_point_jet_evaluates_its_field_once():
    base = SmoothField.from_expressions(2, ["log(x1)"])
    calls = []

    def evaluator(point, order):
        calls.append(point)
        return base.series_at(point, order)

    with pytest.raises(ValueError, match="positive constant term"):
        jet_extension(SmoothField(2, 1, evaluator), (-1.0, 0.5), 1)
    assert calls == [(-1.0, 0.5)]



@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_coordinate_series_is_the_variable_series(order):
    # Each coordinate, a float or one value per node, is the series
    # ``TruncatedSeries.variable`` builds: its keys in order, its values.
    point = (0.5, np.array([-0.0, 1.25, 3.0]), -2.0)
    got = coordinate_series(point, order)
    for axis, series in enumerate(got.x):
        want = TruncatedSeries.variable(3, order, axis, point[axis])
        assert (series.dim, series.order) == (want.dim, want.order)
        assert list(series.coeffs) == list(want.coeffs)
        for key, value in want.coeffs.items():
            assert np.array_equal(np.signbit(series.coeffs[key]), np.signbit(value))
            assert np.array_equal(series.coeffs[key], value)
