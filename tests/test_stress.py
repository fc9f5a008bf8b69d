"""Order-1 stress: action, traction signs, divergence routes, and balance."""

import itertools
import random

import numpy as np
import pytest

from jetstress.fields import JetValue, SmoothField, TensorField, jet_extension
from jetstress.geometry import Body, Chart, QuadratureRule, boundary_faces
from jetstress.stress import (
    VariationalStress1,
    action_form,
    body_force,
    divergence,
    invariant_divergence_residual,
    surface_force,
    traction_action,
    traction_projection,
    verify_balance_order1,
)
from oracles import stress_action, unit_box, zero_jet


def tensor(dim, shape, tables):
    return TensorField(SmoothField.from_polynomials(dim, tables), shape)


def constant_stress(n, d, s0_vals, s1_vals):
    s0 = TensorField(SmoothField.constant(n, list(s0_vals)), (d,))
    s1 = TensorField(SmoothField.constant(n, [v for row in s1_vals for v in row]), (d, n))
    return VariationalStress1(s0, s1)


def random_poly_table(rng, n, degree, nterms=4):
    exps_pool = [e for e in itertools.product(range(degree + 1), repeat=n) if sum(e) <= degree]
    return [(rng.choice(exps_pool), rng.uniform(-1, 1)) for _ in range(nterms)]


def random_stress(rng, n, d, degree):
    s0 = tensor(n, (d,), [random_poly_table(rng, n, degree) for _ in range(d)])
    s1 = tensor(n, (d, n), [random_poly_table(rng, n, degree) for _ in range(d * n)])
    return VariationalStress1(s0, s1)


def random_velocity(rng, n, d, degree):
    return tensor(n, (d,), [random_poly_table(rng, n, degree) for _ in range(d)])


def unit_body(n):
    return Body(Chart(n, unit_box(n)), unit_box(n))


def test_stress_action_single_term():
    stress = constant_stress(2, 1, [0.0], [[1.0, 0.0]])
    u = tensor(2, (1,), [[((1, 0), 1.0)]])  # velocity x1
    jet = jet_extension(u.field, (0.3, 0.4), 1)
    val = stress_action(stress, jet, (0.3, 0.4))
    assert val.coefficient((0, 1)) == pytest.approx(1.0)
    zero = stress_action(stress, zero_jet(2, 1, 1), (0.3, 0.4))
    assert zero.max_abs() == 0.0


def test_action_form_matches_the_pointwise_oracle():
    # The pair-algebra volume form against numpy dots of the blocks and the jet.
    rng = random.Random(61)
    for n, d in ((2, 1), (2, 2), (3, 2)):
        stress = random_stress(rng, n, d, 3)
        w = random_velocity(rng, n, d, 3)
        form = action_form(stress, w)
        vol = tuple(range(n))
        for _ in range(4):
            x = tuple(rng.uniform(0, 1) for _ in range(n))
            expected = stress_action(stress, jet_extension(w.field, x, 1), x).coefficient(vol)
            got = form.value_at(x).coefficient(vol)
            assert got == pytest.approx(expected, rel=1e-13, abs=1e-13)


def test_stress_action_dot_product_oracle():
    # s0 = (2), s1 = (3, 4) against jet (5, (6, 7)): 2*5 + 3*6 + 4*7 = 56.
    stress = constant_stress(2, 1, [2.0], [[3.0, 4.0]])
    jet = JetValue(2, 1, 1, (np.array([5.0]), np.array([[6.0, 7.0]])))
    val = stress_action(stress, jet, (0.0, 0.0))
    assert val.coefficient((0, 1)) == pytest.approx(56.0)


def test_traction_projection_signs():
    # n=2: omit axis 1 keeps +s1[:,0]; omit axis 2 flips sign on s1[:,1].
    stress = constant_stress(2, 1, [9.0], [[2.0, 3.0]])
    sigma = traction_projection(stress).at((0.5, 0.5))
    assert sigma[0, 0] == pytest.approx(2.0)
    assert sigma[0, 1] == pytest.approx(-3.0)
    # n=3: omitting the middle axis flips the sign.
    stress3 = constant_stress(3, 1, [0.0], [[0.0, 4.0, 0.0]])
    sigma3 = traction_projection(stress3).at((0.1, 0.2, 0.3))
    assert sigma3[0, 1] == pytest.approx(-4.0)


def test_traction_projection_discards_value_slot():
    with_s0 = constant_stress(2, 1, [7.0], [[0.0, 0.0]])
    sigma = traction_projection(with_s0).at((0.2, 0.8))
    assert np.all(sigma == 0.0)


def test_traction_action_and_compose():
    stress = constant_stress(2, 1, [0.0], [[1.0, 0.0]])
    sigma = traction_projection(stress)
    w_one = TensorField(SmoothField.constant(2, [1.0]), (1,))
    form = traction_action(sigma, w_one)
    val = form.value_at((0.4, 0.9))
    assert val.coefficient((1,)) == pytest.approx(1.0)  # dx2 density
    w_zero = TensorField(SmoothField.constant(2, [0.0]), (1,))
    assert traction_action(sigma, w_zero).value_at((0.4, 0.9)).max_abs() == 0.0
    # With w = x1, the composed density is x1 dx2.
    w_x1 = tensor(2, (1,), [[((1, 0), 1.0)]])
    val2 = traction_action(sigma, w_x1).value_at((0.3, 0.6))
    assert val2.coefficient((1,)) == pytest.approx(0.3)


def test_surface_force_on_faces():
    # Pulling x1 dx2 onto the face x1 = 1 of the unit square leaves density 1.
    stress = constant_stress(2, 1, [0.0], [[1.0, 0.0]])
    sigma = traction_projection(stress)
    w_x1 = tensor(2, (1,), [[((1, 0), 1.0)]])
    faces = {f.label: f for f in boundary_faces(unit_body(2))}
    force = surface_force(sigma, faces["x1-upper"], w_x1)
    assert force.value_at((0.5,)).coefficient((0,)) == pytest.approx(1.0)
    zero_sigma = traction_projection(constant_stress(2, 1, [3.0], [[0.0, 0.0]]))
    zero_force = surface_force(zero_sigma, faces["x1-upper"], w_x1)
    assert zero_force.value_at((0.5,)).max_abs() == 0.0


def test_divergence_local_formula():
    const = constant_stress(2, 1, [0.0], [[4.0, 5.0]])
    assert np.all(divergence(const).at((0.3, 0.3)) == 0.0)
    # s1[0, 0] = x1 contributes d/dx1 x1 = 1.
    linear = VariationalStress1(
        TensorField(SmoothField.constant(2, [0.0]), (1,)),
        tensor(2, (1, 2), [[((1, 0), 1.0)], [((0, 0), 0.0)]]),
    )
    assert divergence(linear).at((0.7, 0.1))[0] == pytest.approx(1.0)
    # The value slot enters with a minus sign.
    with_s0 = constant_stress(2, 1, [2.0], [[0.0, 0.0]])
    assert divergence(with_s0).at((0.5, 0.5))[0] == pytest.approx(-2.0)
    assert body_force(with_s0).at((0.5, 0.5))[0] == pytest.approx(2.0)


def test_divergence_invariant_route_agrees():
    rng = random.Random(31)
    for n, d in ((2, 1), (2, 2), (3, 1)):
        for _ in range(3):
            stress = random_stress(rng, n, d, 3)
            for _ in range(20):
                velocity = random_velocity(rng, n, d, 3)
                points = [tuple(rng.uniform(0, 1) for _ in range(n)) for _ in range(5)]
                assert invariant_divergence_residual(stress, velocity, points) < 1e-11


def test_balance_hand_example():
    # S with only s1[0,0] = 1, w = x1 on the unit square: lhs = 1 comes
    # entirely from the boundary (interior term vanishes).
    stress = constant_stress(2, 1, [0.0], [[1.0, 0.0]])
    w = tensor(2, (1,), [[((1, 0), 1.0)]])
    terms, residual = verify_balance_order1(stress, w, unit_body(2), QuadratureRule(4))
    assert terms["lhs"] == pytest.approx(1.0, abs=1e-12)
    assert terms["interior"] == pytest.approx(0.0, abs=1e-12)
    assert terms["boundary"] == pytest.approx(1.0, abs=1e-12)
    assert residual < 1e-12
    # Zero velocity: everything vanishes.
    w0 = TensorField(SmoothField.constant(2, [0.0]), (1,))
    terms0, _ = verify_balance_order1(stress, w0, unit_body(2), QuadratureRule(4))
    assert terms0["lhs"] == 0.0 and terms0["boundary"] == 0.0


def test_balance_random_cube():
    rng = random.Random(41)
    rule = QuadratureRule(5)
    body = unit_body(3)
    for _ in range(30):
        stress = random_stress(rng, 3, 1, 3)
        w = random_velocity(rng, 3, 1, 3)
        _, residual = verify_balance_order1(stress, w, body, rule)
        assert residual < 1e-10


def test_linearity_in_stress_and_velocity():
    rng = random.Random(53)
    n, d = 2, 2
    s_a = random_stress(rng, n, d, 2)
    s_b = random_stress(rng, n, d, 2)
    w = random_velocity(rng, n, d, 2)
    x = (0.3, 0.8)
    jet = jet_extension(w.field, x, 1)
    combo = VariationalStress1(
        TensorField(s_a.s0.field + s_b.s0.field.scale(2.0), s_a.s0.shape),
        TensorField(s_a.s1.field + s_b.s1.field.scale(2.0), s_a.s1.shape),
    )
    lhs = stress_action(combo, jet, x).coefficient((0, 1))
    rhs = (
        stress_action(s_a, jet, x).coefficient((0, 1))
        + 2.0 * stress_action(s_b, jet, x).coefficient((0, 1))
    )
    assert lhs == pytest.approx(rhs, abs=1e-13)
