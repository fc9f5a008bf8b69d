"""Cross-cutting structural properties: exterior calculus, functoriality,
degenerate dimensions, and validation guards."""

import itertools
import random

import numpy as np
import pytest

from jetstress.fields import SmoothField, TensorField
from jetstress.geometry import (
    Body,
    Box,
    Chart,
    QuadratureRule,
    increasing_tuples,
    integrate,
    integrate_boundary,
)
from jetstress.stress import (
    VariationalStress1,
    traction_action,
    traction_projection,
    verify_balance_order1,
)
from oracles import form_from_components, unit_box


def random_poly_table(rng, n, degree, nterms=4):
    pool = [e for e in itertools.product(range(degree + 1), repeat=n) if sum(e) <= degree]
    return [(rng.choice(pool), rng.uniform(-1, 1)) for _ in range(nterms)]


def random_form(rng, n, degree, poly_degree=3):
    comps = {
        t: SmoothField.from_polynomials(n, [random_poly_table(rng, n, poly_degree)])
        for t in increasing_tuples(n, degree)
    }
    return form_from_components(n, degree, comps)


def test_exterior_derivative_squares_to_zero():
    rng = random.Random(201)
    for n in (2, 3):
        for degree in range(0, n - 1):
            omega = random_form(rng, n, degree)
            ddo = omega.exterior_derivative().exterior_derivative()
            for _ in range(5):
                x = tuple(rng.uniform(0, 1) for _ in range(n))
                assert ddo.value_at(x).max_abs() < 1e-12


def test_pullback_functoriality():
    # Pulling back through a composition equals composing the pullbacks.
    rng = random.Random(202)
    outer = SmoothField.from_expressions(2, ["x1 + 0.3*x2^2", "x2 - 0.2*x1^2"])
    inner = SmoothField.from_expressions(2, ["0.5*x1 + 0.1*x2", "x2 + 0.2*x1*x2"])
    for degree in (1, 2):
        omega = random_form(rng, 2, degree, poly_degree=2)
        via_composition = omega.pullback(outer.compose(inner))
        via_two_steps = omega.pullback(outer).pullback(inner)
        for _ in range(6):
            y = (rng.uniform(0, 1), rng.uniform(0, 1))
            gap = via_composition.value_at(y).max_abs_diff(via_two_steps.value_at(y))
            assert gap < 1e-12


def test_pullback_commutes_with_d():
    rng = random.Random(203)
    mapping = SmoothField.from_expressions(2, ["x1 + 0.4*x2^2", "x2 - 0.3*x1*x2"])
    omega = random_form(rng, 2, 0, poly_degree=3)
    lhs = omega.pullback(mapping).exterior_derivative()
    rhs = omega.exterior_derivative().pullback(mapping)
    for _ in range(6):
        y = (rng.uniform(0, 1), rng.uniform(0, 1))
        assert lhs.value_at(y).max_abs_diff(rhs.value_at(y)) < 1e-12


def test_balance_order1_interval_body():
    # One-dimensional bodies reduce the balance to the fundamental theorem of
    # calculus; boundary faces are signed endpoint evaluations.
    stress = VariationalStress1(
        TensorField(SmoothField.from_expressions(1, ["x1^2"]), (1,)),
        TensorField(SmoothField.from_expressions(1, ["x1^3 + 1"]), (1, 1)),
    )
    w = TensorField(SmoothField.from_expressions(1, ["x1^2 + 1"]), (1,))
    body = Body(Chart(1, unit_box(1)), unit_box(1))
    terms, residual = verify_balance_order1(stress, w, body, QuadratureRule(4))
    assert residual < 1e-13
    # The boundary term is sigma(w) at 1 minus at 0.
    sigma = traction_projection(stress)
    form = traction_action(sigma, w)
    expected = form.value_at((1.0,)).coefficient(()) - form.value_at((0.0,)).coefficient(())
    assert terms["boundary"] == pytest.approx(expected, abs=1e-14)
    assert abs(expected) > 0.1  # endpoints genuinely contribute here


def test_balance_order1_curved_body():
    rng = random.Random(204)
    chart = Chart(2, Box((-1.0, -1.0), (2.0, 2.0)))
    patch = SmoothField.from_expressions(2, ["x1 + 0.15*x2^2", "x2 - 0.1*x1^2"])
    body = Body(chart, unit_box(2), patch=patch)
    for _ in range(3):
        stress = VariationalStress1(
            TensorField(SmoothField.from_polynomials(2, [random_poly_table(rng, 2, 2)]), (1,)),
            TensorField(
                SmoothField.from_polynomials(
                    2, [random_poly_table(rng, 2, 2) for _ in range(2)]
                ),
                (1, 2),
            ),
        )
        w = TensorField(
            SmoothField.from_polynomials(2, [random_poly_table(rng, 2, 2)]), (1,)
        )
        _, residual = verify_balance_order1(stress, w, body, QuadratureRule(8))
        assert residual < 1e-12


def test_balance_order1_mixed_dims_d2_n3():
    rng = random.Random(205)
    n, d = 3, 2
    body = Body(Chart(n, unit_box(n)), unit_box(n))
    stress = VariationalStress1(
        TensorField(
            SmoothField.from_polynomials(n, [random_poly_table(rng, n, 3) for _ in range(d)]),
            (d,),
        ),
        TensorField(
            SmoothField.from_polynomials(
                n, [random_poly_table(rng, n, 3) for _ in range(d * n)]
            ),
            (d, n),
        ),
    )
    w = TensorField(
        SmoothField.from_polynomials(n, [random_poly_table(rng, n, 3) for _ in range(d)]),
        (d,),
    )
    _, residual = verify_balance_order1(stress, w, body, QuadratureRule(4))
    assert residual < 1e-10


def test_stokes_with_nonunit_boxes():
    # Orientation and scaling bookkeeping on a shifted anisotropic box.
    rng = random.Random(206)
    box = Box((-1.0, 2.0), (1.5, 4.0))
    body = Body(Chart(2, box), box)
    for _ in range(5):
        comps = {
            t: SmoothField.from_polynomials(2, [random_poly_table(rng, 2, 3)])
            for t in increasing_tuples(2, 1)
        }
        omega = form_from_components(2, 1, comps)
        rule = QuadratureRule(6)
        [[interior]] = integrate([omega.exterior_derivative()], body, rule)
        boundary = sum(values[0] for values in integrate_boundary([omega], body, rule))
        scale = max(1.0, abs(interior))
        assert abs(interior - boundary) / scale < 1e-12
