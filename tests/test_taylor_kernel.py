"""Bit identity of the series kernel against a plain reference of its loops.

The reference below is the straightforward dict arithmetic the kernel must
reproduce: every coefficient, compared through ``float.hex``, and the key
insertion order of every result.  It shares no code with ``taylor.py``.
"""

import itertools
import random

import pytest

from jetstress.fields import SmoothField
from jetstress.taylor import TruncatedSeries

# -- reference loops on (dim, order, coeffs) ---------------------------------------


def ref_series(dim, order, coeffs):
    """The public constructor's filter: zeros dropped, insertion order kept."""
    return (dim, order, {k: float(v) for k, v in coeffs.items() if v != 0.0})


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
    inner_dim, inner_order = offsets[0][0], offsets[0][1]
    powers = [{0: ref_constant(inner_dim, inner_order, 1.0), 1: off} for off in offsets]

    def power(axis, e):
        cache = powers[axis]
        if e not in cache:
            cache[e] = ref_mul(power(axis, e - 1), cache[1])
        return cache[e]

    result = ref_series(inner_dim, inner_order, {})
    for key, val in a[2].items():
        term = ref_constant(inner_dim, inner_order, val)
        for axis, e in enumerate(key):
            if e:
                term = ref_mul(term, power(axis, e))
        result = ref_add(result, term)
    return result


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
        for e in range(5):
            assert bits(a ** e) == bits(ref_pow(ra, e))
        for axis in range(dim):
            assert bits(a.partial(axis)) == bits(ref_partial(ra, axis))
        for target in range(order + 2):
            assert bits(a.truncate(target)) == bits(ref_truncate(ra, target))


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
    field = SmoothField.from_polynomials(3, components)
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
