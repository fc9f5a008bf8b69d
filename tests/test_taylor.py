"""Series arithmetic: exact truncation, composition, and analytic primitives."""

import math
import random

import numpy as np
import pytest

from jetstress.taylor import (
    MultiIndex,
    TruncatedSeries,
    cos_series,
    exp_series,
    log_series,
    power_series,
    reciprocal_series,
    sin_series,
    sqrt_series,
    tan_series,
    tanh_series,
)


def series_from(dim, order, table):
    return TruncatedSeries(dim, order, table)


def test_multiindex_basics():
    idx = MultiIndex((2, 0, 1))
    assert idx.order == 3
    assert idx.factorial() == 2
    assert idx.axes() == (0, 0, 2)
    with pytest.raises(ValueError):
        MultiIndex((-1, 0))
    with pytest.raises(ValueError):
        MultiIndex(())


def test_product_identity_one_plus_x_squared():
    # (1 + x1)^2 at K=2 keeps the full square.
    a = series_from(1, 2, {(0,): 1.0, (1,): 1.0})
    sq = a * a
    assert sq.coefficient((0,)) == 1.0
    assert sq.coefficient((1,)) == 2.0
    assert sq.coefficient((2,)) == 1.0


def test_product_truncates_above_order():
    # x1 * x2 at K=1 drops the degree-2 cross term entirely.
    x1 = series_from(2, 1, {(1, 0): 1.0})
    x2 = series_from(2, 1, {(0, 1): 1.0})
    prod = x1 * x2
    assert prod.coeffs == {}


def test_additive_identity_and_mismatch_errors():
    a = series_from(2, 2, {(1, 0): 3.0})
    zero = TruncatedSeries.zero(2, 2)
    assert (a + zero).coeffs == a.coeffs
    with pytest.raises(ValueError):
        a + TruncatedSeries.zero(2, 1)
    with pytest.raises(ValueError):
        a + TruncatedSeries.zero(3, 2)


def test_truncated_product_associative_commutative_integer_coeffs():
    rng = random.Random(7)
    for _ in range(20):
        dim, order = 2, 3
        def rand_series():
            coeffs = {}
            for exps in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]:
                coeffs[exps] = float(rng.randint(-4, 4))
            return TruncatedSeries(dim, order, coeffs)

        a, b, c = rand_series(), rand_series(), rand_series()
        ab_c = (a * b) * c
        a_bc = a * (b * c)
        assert ab_c.max_abs_diff(a_bc) == 0.0
        assert (a * b).max_abs_diff(b * a) == 0.0


def test_partial_derivative():
    # d/dx1 of x1^2 x2 is 2 x1 x2.
    s = series_from(2, 3, {(2, 1): 1.0})
    ds = s.partial(0)
    assert ds.order == 2
    assert ds.coefficient((1, 1)) == 2.0


def test_compose_substitution():
    # p(dx) = dx1^2 with dx1 = t + t^2 gives t^2 + 2t^3 + t^4 -> truncated at 3.
    p = series_from(1, 3, {(2,): 1.0})
    t = series_from(1, 3, {(1,): 1.0, (2,): 1.0})
    composed = p.compose([t])
    assert composed.coefficient((2,)) == 1.0
    assert composed.coefficient((3,)) == 2.0
    with pytest.raises(ValueError):
        p.compose([series_from(1, 3, {(0,): 1.0})])


def analytic_reference(fn, x0, order, eps=1e-6):
    """High-order central differences as a crude independent reference."""
    # Richardson-free simple stencils suffice for the tolerances below.
    derivs = [fn(x0)]
    if order >= 1:
        derivs.append((fn(x0 + eps) - fn(x0 - eps)) / (2 * eps))
    if order >= 2:
        derivs.append((fn(x0 + eps) - 2 * fn(x0) + fn(x0 - eps)) / eps**2)
    return derivs


@pytest.mark.parametrize(
    "series_fn,ref_fn,x0",
    [
        (sin_series, math.sin, 0.7),
        (cos_series, math.cos, -0.3),
        (exp_series, math.exp, 0.25),
        (log_series, math.log, 1.4),
        (sqrt_series, math.sqrt, 2.2),
        (tan_series, math.tan, 0.4),
        (tanh_series, math.tanh, 0.6),
    ],
)
def test_analytic_primitives_match_finite_differences(series_fn, ref_fn, x0):
    u = TruncatedSeries.variable(1, 2, 0, x0)
    s = series_fn(u)
    ref = analytic_reference(ref_fn, x0, 2)
    assert abs(s.value - ref[0]) < 1e-12
    assert abs(s.coefficient((1,)) - ref[1]) < 1e-5
    assert abs(2.0 * s.coefficient((2,)) - ref[2]) < 1e-3


def test_reciprocal_and_division():
    u = TruncatedSeries.variable(1, 3, 0, 2.0)
    r = reciprocal_series(u)
    # 1/(2 + h) = 1/2 - h/4 + h^2/8 - h^3/16
    assert abs(r.coefficient((0,)) - 0.5) < 1e-15
    assert abs(r.coefficient((1,)) + 0.25) < 1e-15
    assert abs(r.coefficient((2,)) - 0.125) < 1e-15
    one = u * r
    assert abs(one.value - 1.0) < 1e-15
    assert one.max_abs_diff(TruncatedSeries.constant(1, 3, 1.0)) < 1e-15
    with pytest.raises(ValueError):
        reciprocal_series(TruncatedSeries.variable(1, 3, 0, 0.0))


def test_power_series_matches_integer_power():
    u = TruncatedSeries.variable(1, 3, 0, 1.5)
    via_float = power_series(u, 3.0)
    via_int = u**3
    assert via_float.max_abs_diff(via_int) < 1e-12


def test_integer_negative_power():
    u = TruncatedSeries.variable(1, 2, 0, 2.0)
    inv2 = u**-2
    direct = reciprocal_series(u * u)
    assert inv2.max_abs_diff(direct) < 1e-15


def test_max_abs_diff_keeps_a_nan_that_is_not_first():
    # Python's max would drop the NaN of the second key after the first's 0.0.
    nan = TruncatedSeries(1, 1, {(0,): 1.0, (1,): math.nan})
    two = TruncatedSeries(1, 1, {(0,): 1.0, (1,): 2.0})
    assert math.isnan(nan.max_abs_diff(two))
    assert two.max_abs_diff(two) == 0.0
    assert TruncatedSeries(1, 1).max_abs_diff(TruncatedSeries(1, 1)) == 0.0


def test_repr_prints_floats_with_g_and_node_arrays_as_lists():
    one = TruncatedSeries(2, 1, {(1, 0): 0.25, (0, 0): 1.5})
    assert repr(one) == "TruncatedSeries(dim=2, order=1, {(0, 0): 1.5, (1, 0): 0.25})"
    batch = TruncatedSeries._trusted(
        1, 1, {(0,): np.array([0.5, -0.0]), (1,): 2.0})
    assert repr(batch) == "TruncatedSeries(dim=1, order=1, {(0,): [0.5, -0.0], (1,): 2})"
