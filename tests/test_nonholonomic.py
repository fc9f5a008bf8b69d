"""Non-holonomic stresses: action, lifts, traction, divergence, contractions."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetstress.bundles import IteratedJetValue, JetSectionField, include_holonomic
from jetstress.fields import SmoothField, TensorField, jet_extension
from jetstress.nonholonomic import (
    NonHolonomicStress,
    VariationalStress2,
    hyper_surface_action,
    lift_second_order,
    nh_action_form,
    nh_divergence,
    nh_traction,
    restrict_to_second_order,
    second_contraction,
    second_contraction_brute_force,
)
from oracles import from_polynomials, nh_action


def tensor_const(dim, shape, values):
    flat = np.asarray(values, dtype=float).reshape(-1)
    return TensorField(SmoothField.constant(dim, list(flat)), shape)


def tensor_poly(dim, shape, tables):
    return TensorField(from_polynomials(dim, tables), shape)


def random_poly_table(rng, n, degree, nterms=3):
    pool = [e for e in itertools.product(range(degree + 1), repeat=n) if sum(e) <= degree]
    return [(rng.choice(pool), rng.uniform(-1, 1)) for _ in range(nterms)]


def random_nh_stress(rng, n, d, degree):
    return NonHolonomicStress(
        tensor_poly(n, (d,), [random_poly_table(rng, n, degree) for _ in range(d)]),
        tensor_poly(n, (d, n), [random_poly_table(rng, n, degree) for _ in range(d * n)]),
        tensor_poly(n, (d, n), [random_poly_table(rng, n, degree) for _ in range(d * n)]),
        tensor_poly(n, (d, n, n), [random_poly_table(rng, n, degree) for _ in range(d * n * n)]),
    )


def random_section(rng, n, d, degree):
    return JetSectionField(
        tensor_poly(n, (d,), [random_poly_table(rng, n, degree) for _ in range(d)]),
        tensor_poly(n, (d, n), [random_poly_table(rng, n, degree) for _ in range(d * n)]),
    )


def random_velocity(rng, n, d, degree):
    return tensor_poly(n, (d,), [random_poly_table(rng, n, degree) for _ in range(d)])


def test_nh_action_single_term_and_zero():
    n, d = 2, 1
    x3 = np.zeros((1, 2, 2))
    x3[0, 0, 1] = 4.0
    stress = NonHolonomicStress(
        tensor_const(n, (d,), [0.0]),
        tensor_const(n, (d, n), np.zeros((1, 2))),
        tensor_const(n, (d, n), np.zeros((1, 2))),
        tensor_const(n, (d, n, n), x3),
    )
    value = IteratedJetValue(
        np.zeros(1), np.zeros((1, 2)), np.zeros((1, 2)),
        np.array([[[0.0, 1.0], [0.0, 0.0]]]),
    )
    form = nh_action(stress, value, (0.5, 0.5))
    assert form.coefficient((0, 1)) == pytest.approx(4.0)
    zero = nh_action(stress, IteratedJetValue(
        np.zeros(1), np.zeros((1, 2)), np.zeros((1, 2)), np.zeros((1, 2, 2))), (0.5, 0.5))
    assert zero.max_abs() == 0.0


def test_nh_action_form_matches_the_pointwise_oracle():
    # The pair-algebra volume form against numpy dots of the four blocks and
    # the iterated jet of the section, compatible or not.
    rng = random.Random(67)
    for n, d in ((2, 1), (2, 2), (3, 1)):
        stress = random_nh_stress(rng, n, d, 2)
        for section in (random_section(rng, n, d, 3),
                        JetSectionField.from_velocity(random_velocity(rng, n, d, 3))):
            form = nh_action_form(stress, section)
            vol = tuple(range(n))
            for _ in range(3):
                x = tuple(rng.uniform(0, 1) for _ in range(n))
                expected = nh_action(stress, section.iterated_jet_at(x), x).coefficient(vol)
                got = form.value_at(x).coefficient(vol)
                assert got == pytest.approx(expected, rel=1e-13, abs=1e-13)


def test_nh_action_on_holonomic_matches_restriction():
    rng = random.Random(3)
    for _ in range(5):
        n, d = 2, 2
        stress = random_nh_stress(rng, n, d, 2)
        u = random_velocity(rng, n, d, 3)
        x = (rng.uniform(0, 1), rng.uniform(0, 1))
        jet2 = jet_extension(u.field, x, 2)
        holonomic = include_holonomic(jet2)
        via_nh = nh_action(stress, holonomic, x).coefficient((0, 1))
        s2 = restrict_to_second_order(stress)
        arr0 = s2.s0.at(x)
        arr1 = s2.s1.at(x)
        arr2 = s2.s2.at(x)
        direct = (
            float(np.sum(arr0 * jet2.array(0)))
            + float(np.sum(arr1 * jet2.array(1)))
            + float(np.sum(arr2 * jet2.array(2)))
        )
        assert via_nh == pytest.approx(direct, abs=1e-12)


def test_restrict_to_second_order_local_formula():
    n, d = 2, 1
    stress = NonHolonomicStress(
        tensor_const(n, (d,), [0.0]),
        tensor_const(n, (d, n), [[1.0, 0.0]]),
        tensor_const(n, (d, n), [[0.0, 2.0]]),
        tensor_const(n, (d, n, n), [[[0.0, 1.0], [0.0, 0.0]]]),
    )
    s2 = restrict_to_second_order(stress)
    assert np.allclose(s2.s1.at((0.3, 0.3)), [[1.0, 2.0]])
    assert np.allclose(s2.s2.at((0.3, 0.3)), [[[0.0, 0.5], [0.5, 0.0]]])
    zero = restrict_to_second_order(
        NonHolonomicStress(
            tensor_const(n, (d,), [0.0]),
            tensor_const(n, (d, n), np.zeros((1, 2))),
            tensor_const(n, (d, n), np.zeros((1, 2))),
            tensor_const(n, (d, n, n), np.zeros((1, 2, 2))),
        )
    )
    assert np.all(zero.s1.at((0.1, 0.1)) == 0.0)


def test_lift_roundtrip_and_split_extremes():
    rng = random.Random(7)
    n, d = 2, 2
    raw = tensor_poly(
        n, (d, n, n), [random_poly_table(rng, n, 2) for _ in range(d * n * n)]
    )

    def sym_eval(point, order):
        series = raw.field.series_at(point, order)
        out = []
        for alpha in range(d):
            for i in range(n):
                for j in range(n):
                    a = series[(alpha * n + i) * n + j]
                    b = series[(alpha * n + j) * n + i]
                    out.append((a + b) * 0.5)
        return out

    s2 = TensorField(SmoothField(n, d * n * n, sym_eval), (d, n, n))
    stress2 = VariationalStress2(
        tensor_poly(n, (d,), [random_poly_table(rng, n, 2) for _ in range(d)]),
        tensor_poly(n, (d, n), [random_poly_table(rng, n, 2) for _ in range(d * n)]),
        s2,
    )
    x = (0.4, 0.6)
    for split in (0.0, 0.5, 1.0):
        lifted = lift_second_order(stress2, split)
        back = restrict_to_second_order(lifted)
        assert np.allclose(back.s0.at(x), stress2.s0.at(x), atol=1e-14)
        assert np.allclose(back.s1.at(x), stress2.s1.at(x), atol=1e-14)
        assert np.allclose(back.s2.at(x), stress2.s2.at(x), atol=1e-14)
    full = lift_second_order(stress2, 1.0)
    assert np.all(full.x1.at(x) == 0.0)
    with pytest.raises(ValueError):
        lift_second_order(stress2, 1.5)


def test_action_independent_of_split_on_holonomic_arguments():
    rng = random.Random(11)
    n, d = 2, 1
    s2 = tensor_const(n, (d, n, n), [[[1.0, 0.5], [0.5, -2.0]]])
    stress2 = VariationalStress2(
        tensor_poly(n, (d,), [random_poly_table(rng, n, 2)]),
        tensor_poly(n, (d, n), [random_poly_table(rng, n, 2) for _ in range(n)]),
        s2,
    )
    u = random_velocity(rng, n, d, 3)
    for _ in range(5):
        x = (rng.uniform(0, 1), rng.uniform(0, 1))
        holonomic = include_holonomic(jet_extension(u.field, x, 2))
        values = [
            nh_action(lift_second_order(stress2, split), holonomic, x).coefficient((0, 1))
            for split in (0.0, 0.5, 1.0)
        ]
        assert abs(values[0] - values[1]) < 1e-13
        assert abs(values[0] - values[2]) < 1e-13


def test_nh_traction_signs():
    n, d = 2, 1
    stress = NonHolonomicStress(
        tensor_const(n, (d,), [0.0]),
        tensor_const(n, (d, n), np.zeros((1, 2))),
        tensor_const(n, (d, n), [[5.0, 0.0]]),
        tensor_const(n, (d, n, n), [[[0.0, 3.0], [0.0, 7.0]]]),
    )
    surf = nh_traction(stress)
    y0 = surf.y0.at((0.2, 0.2))
    assert y0[0, 0] == pytest.approx(5.0)  # omit axis 1: positive sign
    y1 = surf.y1.at((0.2, 0.2))
    # Omitting the second axis flips the sign on x3[:, i, 1].
    assert y1[0, 0, 1] == pytest.approx(-3.0)
    assert y1[0, 1, 1] == pytest.approx(-7.0)
    zero = nh_traction(
        NonHolonomicStress(
            tensor_const(n, (d,), [4.0]),
            tensor_const(n, (d, n), [[1.0, 1.0]]),
            tensor_const(n, (d, n), np.zeros((1, 2))),
            tensor_const(n, (d, n, n), np.zeros((1, 2, 2))),
        )
    )
    assert np.all(zero.y0.at((0.1, 0.1)) == 0.0)
    assert np.all(zero.y1.at((0.1, 0.1)) == 0.0)


def test_nh_divergence_constant_and_linear():
    n, d = 2, 1
    const = NonHolonomicStress(
        tensor_const(n, (d,), [0.0]),
        tensor_const(n, (d, n), np.zeros((1, 2))),
        tensor_const(n, (d, n), [[3.0, 1.0]]),
        tensor_const(n, (d, n, n), [[[2.0, 0.0], [0.0, 5.0]]]),
    )
    div = nh_divergence(const)
    assert np.all(div.s0.at((0.3, 0.9)) == 0.0)
    assert np.all(div.s1.at((0.3, 0.9)) == 0.0)
    # x3[0, i, j] = x^j on the diagonal contributes 1 per contracted index.
    linear = NonHolonomicStress(
        tensor_const(n, (d,), [0.0]),
        tensor_const(n, (d, n), np.zeros((1, 2))),
        tensor_const(n, (d, n), np.zeros((1, 2))),
        tensor_poly(
            n, (d, n, n),
            [[((1, 0), 1.0)], [((0, 1), 0.0)], [((1, 0), 0.0)], [((0, 1), 1.0)]],
        ),
    )
    div2 = nh_divergence(linear)
    assert np.allclose(div2.s1.at((0.5, 0.5)), [[1.0, 1.0]])


def test_nh_divergence_defining_relation():
    rng = random.Random(13)
    for n, d in ((2, 1), (2, 2), (3, 1)):
        stress = random_nh_stress(rng, n, d, 3)
        div = nh_divergence(stress)
        surf = nh_traction(stress)
        for _ in range(20):
            section = random_section(rng, n, d, 3)
            d_y = hyper_surface_action(surf, section).exterior_derivative()
            action = nh_action_form(stress, section)
            vol = tuple(range(n))
            for _ in range(5):
                x = tuple(rng.uniform(0, 1) for _ in range(n))
                lhs = d_y.value_at(x).coefficient(vol) - action.value_at(x).coefficient(vol)
                a0, a1 = section.values_at(x)
                rhs = float(np.sum(div.s0.at(x) * a0) + np.sum(div.s1.at(x) * a1))
                assert abs(lhs - rhs) < 1e-11


def test_second_contraction_symmetric_vanishes():
    sym = tensor_const(2, (1, 2, 2), [[[1.0, 0.5], [0.5, 3.0]]])
    forms = second_contraction(sym.at((0.4, 0.4)))
    assert forms[0].max_abs() <= 1e-14
    zero = second_contraction(
        tensor_const(2, (1, 2, 2), np.zeros((1, 2, 2))).at((0.4, 0.4)))
    assert zero[0].max_abs() == 0.0


def test_second_contraction_antisymmetric_value():
    x3 = np.zeros((1, 2, 2))
    x3[0, 0, 1] = 1.0
    x3[0, 1, 0] = -1.0
    forms = second_contraction(tensor_const(2, (1, 2, 2), x3).at((0.0, 0.0)))
    assert forms[0].coefficient(()) == pytest.approx(2.0)


def test_second_contraction_matches_brute_force_exactly():
    rng = random.Random(19)
    for n in (2, 3):
        for _ in range(10):
            arr = np.array(
                [[[float(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]]
            )
            tf = tensor_const(n, (1, n, n), arr)
            x = tuple(rng.uniform(0, 1) for _ in range(n))
            fast = second_contraction(tf.at(x))
            brute = second_contraction_brute_force(tf.at(x))
            assert fast[0].max_abs_diff(brute[0]) == 0.0
    with pytest.raises(ValueError):
        second_contraction(tensor_const(1, (1, 1, 1), [[[1.0]]]).at((0.5,)))


def _form_bits(form, node=None):
    """Each key of a form with the hex of its coefficient, at one node of a batch."""
    return {key: float(v if node is None else v[node]).hex() for key, v in form.coeffs.items()}


# Signed zeros, infinities and NaN as well as ordinary entries.
ENTRY = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]) | st.floats(-1e3, 1e3)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(2, 3), d=st.integers(1, 2), nodes=st.integers(1, 5))
def test_a_batched_second_contraction_gives_each_node_its_one_point_form(data, n, d, nodes):
    entries = data.draw(st.lists(ENTRY, min_size=d * n * n * nodes, max_size=d * n * n * nodes))
    block = np.array(entries).reshape(d, n, n, nodes)
    with np.errstate(invalid="ignore"):  # inf - inf
        batched = (second_contraction(block), second_contraction_brute_force(block))
        for k in range(nodes):
            single = (second_contraction(block[..., k].copy()),
                      second_contraction_brute_force(block[..., k].copy()))
            for many, one in zip(batched, single):
                assert [_form_bits(f, k) for f in many] == [_form_bits(f) for f in one]



def test_a_nan_asymmetry_fails_the_symmetry_check():
    # nan > 1e-10 is false: the check must treat a NaN asymmetry as too large.
    n, d = 2, 1
    stress = VariationalStress2(
        tensor_const(n, (d,), [0.0]),
        tensor_const(n, (d, n), [[0.0, 0.0]]),
        tensor_const(n, (d, n, n), [[[0.0, float("nan")], [1.0, 0.0]]]),
    )
    with pytest.raises(ValueError, match="not symmetric"):
        stress.check_symmetry([(0.5, 0.5)])
