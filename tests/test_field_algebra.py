"""The TensorField combinators against code paths they do not share."""

import random

import numpy as np
import pytest

from jetstress.bundles import JetSectionField
from jetstress.fields import SmoothField, TensorField, jet_extension, pair
from jetstress.nonholonomic import HyperSurfaceStress, NonHolonomicStress, VariationalStress2
from jetstress.stress import VariationalStress1

TERMS = ("sin({c}*{a}) + {b}", "exp({c}*{b})*{a}", "{c}*cos({a}*{b})", "sqrt(1 + {c}*{a}^2)")


def poly_tensor(rng, n, shape, degree=3):
    tables = []
    for _ in range(int(np.prod(shape))):
        table = []
        for _ in range(3):
            exps = [rng.randint(0, degree) for _ in range(n)]
            while sum(exps) > degree:
                exps[rng.randrange(n)] -= 1
                exps = [max(e, 0) for e in exps]
            table.append((tuple(exps), rng.uniform(-1.0, 1.0)))
        tables.append(table)
    return TensorField(SmoothField.from_polynomials(n, tables), shape)


def analytic_tensor(rng, n, shape):
    exprs = []
    for k in range(int(np.prod(shape))):
        a, b = f"x{k % n + 1}", f"x{(k + 1) % n + 1}"
        exprs.append(TERMS[k % len(TERMS)].format(c=f"{rng.uniform(0.2, 0.8):.6f}", a=a, b=b))
    return TensorField(SmoothField.from_expressions(n, exprs), shape)


CASES = [(kind, n, d) for kind in ("poly", "analytic") for n in (2, 3) for d in (1, 2)]


def make(kind, rng, n, shape):
    return poly_tensor(rng, n, shape) if kind == "poly" else analytic_tensor(rng, n, shape)


def points(rng, n, count=4):
    return [tuple(rng.uniform(0.1, 0.9) for _ in range(n)) for _ in range(count)]


@pytest.mark.parametrize("kind,n,d", CASES)
def test_gradient_matches_jet_extension(kind, n, d):
    rng = random.Random(hash((kind, n, d)) % 1000)
    for shape in ((d,), (d, n)):
        t = make(kind, rng, n, shape)
        grad = t.gradient()
        assert grad.shape == shape + (n,)
        for x in points(rng, n):
            expected = jet_extension(t.field, x, 1).array(1).reshape(shape + (n,))
            assert np.allclose(grad.at(x), expected, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("kind,n,d", CASES)
def test_divergence_matches_jet_extension(kind, n, d):
    rng = random.Random(7 + hash((kind, n, d)) % 1000)
    t = make(kind, rng, n, (d, n))
    div = t.divergence()
    assert div.shape == (d,)
    for x in points(rng, n):
        jac = jet_extension(t.field, x, 1).array(1).reshape(d, n, n)
        assert np.allclose(div.at(x), np.einsum("ajj->a", jac), rtol=0.0, atol=1e-13)


def test_divergence_needs_a_chart_axis_last():
    t = poly_tensor(random.Random(0), 2, (2, 3))
    with pytest.raises(ValueError):
        t.divergence()


def test_signed_transpose_matches_numpy():
    rng = random.Random(3)
    n, d = 3, 2
    t = poly_tensor(rng, n, (d, n, n))
    sign = (-1.0) ** np.arange(n)
    for x in points(rng, n):
        raw = t.at(x)
        assert np.array_equal(t.signed(2).at(x), raw * sign)
        swapped = np.transpose(raw, (0, 2, 1))
        assert np.array_equal(t.signed(2, perm=(0, 2, 1)).at(x), swapped * sign)
        assert np.array_equal(t.signed(1, perm=(0, 2, 1)).at(x), swapped * sign[:, None])
        assert np.array_equal(t.signed(None, perm=(2, 0, 1)).at(x), np.transpose(raw, (2, 0, 1)))
    with pytest.raises(ValueError):
        t.signed(0, perm=(0, 1, 1))


def test_pair_matches_numpy_sums():
    rng = random.Random(5)
    n, d = 2, 2
    c0, a0 = poly_tensor(rng, n, (d,)), analytic_tensor(rng, n, (d,))
    c1, a1 = analytic_tensor(rng, n, (d, n)), poly_tensor(rng, n, (d, n))
    sigma = poly_tensor(rng, n, (d, n))
    scalar = pair([(c0, a0), (c1, a1)])
    form = pair([(sigma, a0)])
    assert scalar.shape == () and form.shape == (n,)
    for x in points(rng, n):
        expected = np.sum(c0.at(x) * a0.at(x)) + np.sum(c1.at(x) * a1.at(x))
        assert abs(scalar.at(x) - expected) <= 1e-13
        assert np.allclose(form.at(x), np.einsum("aj,a->j", sigma.at(x), a0.at(x)),
                           rtol=0.0, atol=1e-13)
    with pytest.raises(ValueError):
        pair([(c1, a0), (c0, a0)])


def test_pair_evaluates_each_field_once():
    calls = []
    base = SmoothField.from_expressions(2, ["x1*x2", "sin(x1)"])

    def counted(point, order):
        calls.append((point, order))
        return base.series_at(point, order)

    a = TensorField(SmoothField(2, 2, counted), (2,))
    pair([(a, a), (a.scale(2.0), a)]).at((0.3, 0.4))
    assert calls == [((0.3, 0.4), 0), ((0.3, 0.4), 0)]  # once for a, once inside scale
    calls.clear()
    c = poly_tensor(random.Random(1), 2, (2, 2))
    pair([(a.scale(1.0), a), (c, a, 1)]).at((0.3, 0.4))
    assert calls == [((0.3, 0.4), 0), ((0.3, 0.4), 1)]  # inside scale, then a with its gradient


@pytest.mark.parametrize("kind,n,d", CASES)
def test_pair_with_gradient_block_matches_gradient_field(kind, n, d):
    rng = random.Random(13 + hash((kind, n, d)) % 1000)
    a = make(kind, rng, n, (d,))
    c0, c1 = poly_tensor(rng, n, (d,)), make(kind, rng, n, (d, n))
    fused = pair([(c0, a), (c1, a, 1)])
    separate = pair([(c0, a), (c1, a.gradient())])
    for x in points(rng, n):
        expected = np.sum(c0.at(x) * a.at(x)) + np.sum(c1.at(x) * jet_extension(a.field, x, 1).array(1))
        assert fused.at(x) == separate.at(x)
        assert abs(fused.at(x) - expected) <= 1e-12
        for p, q in zip(fused.field.series_at(x, 2), separate.field.series_at(x, 2)):
            assert list(p.coeffs.items()) == list(q.coeffs.items())
    with pytest.raises(ValueError):
        pair([(c0, a, 1)])


@pytest.mark.parametrize("kind,n,d", CASES)
def test_from_velocity_gradient_block(kind, n, d):
    rng = random.Random(11 + hash((kind, n, d)) % 1000)
    u = make(kind, rng, n, (d,))
    section = JetSectionField.from_velocity(u)
    for x in points(rng, n):
        expected = jet_extension(u.field, x, 1).array(1)
        assert np.allclose(section.a1.at(x), expected, rtol=0.0, atol=1e-13)


RECORDS = [VariationalStress1, VariationalStress2, NonHolonomicStress, HyperSurfaceStress,
           JetSectionField]


def zero_tensor(n, shape):
    return TensorField(SmoothField.constant(n, [0.0] * int(np.prod(shape))), shape)


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: record.__name__)
def test_a_record_takes_the_blocks_of_its_layout(record):
    n, d = 2, 3
    blocks = [zero_tensor(n, (d,) + (n,) * k) for _, k in record.LAYOUT]
    built = record(*blocks)
    assert (built.dim, built.fiber_dim) == (n, d)
    assert all(getattr(built, name) is block for (name, _), block in zip(record.LAYOUT, blocks))
    last = blocks[-1].shape
    wrong_shape = zero_tensor(n, (d + 1,) + last[1:])
    other_chart = zero_tensor(n + 1, last)
    for bad in (wrong_shape, other_chart):
        with pytest.raises(ValueError, match=record.__name__):
            record(*blocks[:-1], bad)
