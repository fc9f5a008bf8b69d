"""Forms, interior products, pullbacks, quadrature, faces, edges, and Stokes."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetstress.fields import SmoothField
from jetstress.geometry import (
    _node_sum,
    Body,
    Box,
    FormField,
    FormValue,
    QuadratureRule,
    boundary_faces,
    face_boundary_pieces,
    increasing_tuples,
    integrate,
    integrate_boundary,
    interior_product,
)

from oracles import (
    _integral,
    coordinate_field,
    edges,
    form_from_components,
    from_polynomials,
    pullback_form_value,
    unit_box,
    weighted_sum,
)


@pytest.mark.parametrize("coeffs", [
    {(0,): 1.0, (1,): math.nan},
    {(0,): math.nan, (1,): 1.0},
    {(0,): np.array([1.0, -2.0]), (1,): np.array([0.5, math.nan])},
    {(0,): np.array([math.nan, -2.0]), (1,): np.array([0.5, 3.0])},
])
def test_max_abs_keeps_a_nan_in_any_position(coeffs):
    assert math.isnan(FormValue(2, 1, coeffs).max_abs())


def test_max_abs_reads_every_node():
    assert FormValue(2, 1).max_abs() == 0.0
    assert FormValue(2, 1, {(0,): -0.0}).max_abs() == 0.0
    form = FormValue(2, 1, {(0,): np.array([1.0, -4.0]), (1,): np.array([-3.0, 2.0])})
    assert form.max_abs() == 4.0
    assert form.max_abs_diff(form.scale(0.5)) == 2.0


def unit_body(n):
    return Body(unit_box(n))


def constant_form_field(dim, degree, coeff_map):
    comps = {t: SmoothField.constant(dim, [coeff_map.get(t, 0.0)]) for t in increasing_tuples(dim, degree)}
    return form_from_components(dim, degree, comps)


# -- interior product ---------------------------------------------------------


def test_interior_product_signs():
    omega = FormValue(2, 2, {(0, 1): 1.0})  # dx1 ^ dx2
    first = interior_product(0, omega)
    assert first.coefficient((1,)) == pytest.approx(1.0)  # +dx2
    second = interior_product(1, omega)
    assert second.coefficient((0,)) == pytest.approx(-1.0)  # -dx1


def test_interior_product_absent_index_and_degree_error():
    omega = FormValue(2, 1, {(1,): 1.0})  # dx2
    assert interior_product(0, omega).coeffs == {}
    with pytest.raises(ValueError):
        interior_product(0, FormValue(2, 0, {(): 1.0}))


def test_double_interior_product_antisymmetry():
    rng = random.Random(3)
    for n in (2, 3):
        for _ in range(10):
            coeffs = {t: rng.uniform(-1, 1) for t in increasing_tuples(n, n)}
            omega = FormValue(n, n, coeffs)
            for i in range(n):
                for j in range(n):
                    ij = interior_product(j, interior_product(i, omega))
                    ji = interior_product(i, interior_product(j, omega))
                    assert ij.max_abs_diff(ji.scale(-1.0)) == 0.0


# -- quadrature ----------------------------------------------------------------


def test_integrate_constant_and_linear():
    vol = constant_form_field(2, 2, {(0, 1): 1.0})
    assert integrate([vol], unit_body(2), QuadratureRule(4)) == [[pytest.approx(1.0)]]
    linear = form_from_components(
        2, 2, {(0, 1): from_polynomials(2, [[((1, 0), 1.0)]])}
    )
    assert integrate([linear], unit_body(2), QuadratureRule(4)) == [[pytest.approx(0.5)]]


def test_gauss_exactness_vs_antiderivative():
    # Gauss order q integrates 1D polynomials of degree 2q-1 exactly.
    rng = random.Random(5)
    for q in (2, 3, 4):
        deg = 2 * q - 1
        coeffs = [rng.uniform(-1, 1) for _ in range(deg + 1)]
        table = [((k,), c) for k, c in enumerate(coeffs)]
        form = form_from_components(
            1, 1, {(0,): from_polynomials(1, [table])}
        )
        [[value]] = integrate([form], unit_body(1), QuadratureRule(q))
        exact = sum(c / (k + 1) for k, c in enumerate(coeffs))
        assert abs(value - exact) < 1e-13

    with pytest.raises(ValueError):
        integrate([constant_form_field(2, 1, {(0,): 1.0})], unit_body(2), QuadratureRule(2))


# -- pullback and restriction ---------------------------------------------------


def test_pullback_form_value_minors():
    # Pull dx1^dx2 back through a linear map with Jacobian [[1, 2], [3, 4]].
    omega = FormValue(2, 2, {(0, 1): 1.0})
    jac = np.array([[1.0, 2.0], [3.0, 4.0]])
    pulled = pullback_form_value(omega, jac)
    assert pulled.coefficient((0, 1)) == pytest.approx(-2.0)


def test_restrict_form_substitution():
    # x1 dx2 on the face x1 = 1 of the unit square becomes 1 dy1.
    body = unit_body(2)
    faces = {f.label: f for f in boundary_faces(body)}
    omega = form_from_components(
        2, 1, {(1,): from_polynomials(2, [[((1, 0), 1.0)]])}
    )
    face = faces["x1-upper"]
    restricted = omega.pullback(face.to_chart)
    val = restricted.value_at((0.3,))
    assert val.coefficient((0,)) == pytest.approx(1.0)

    # dx1 annihilates the tangents of that face.
    dx1 = constant_form_field(2, 1, {(0,): 1.0})
    assert dx1.pullback(face.to_chart).value_at((0.3,)).max_abs() == pytest.approx(0.0)


def test_restrict_identity_pullback_on_cube_face():
    body = unit_body(3)
    faces = {f.label: f for f in boundary_faces(body)}
    omega = constant_form_field(3, 2, {(1, 2): 1.0})  # dx2 ^ dx3
    restricted = omega.pullback(faces["x1-upper"].to_chart)
    assert restricted.value_at((0.2, 0.7)).coefficient((0, 1)) == pytest.approx(1.0)


def test_restriction_commutes_with_exterior_derivative():
    rng = random.Random(9)
    for n in (2, 3):
        body = unit_body(n)
        faces = boundary_faces(body)
        for degree in range(0, n - 1):
            comps = {}
            for t in increasing_tuples(n, degree):
                table = []
                for exps in itertools.product(range(3), repeat=n):
                    if sum(exps) <= 4 and rng.random() < 0.4:
                        table.append((exps, rng.uniform(-1, 1)))
                comps[t] = from_polynomials(n, [table or [((0,) * n, 0.0)]])
            omega = form_from_components(n, degree, comps)
            face = faces[rng.randrange(len(faces))]
            lhs = omega.pullback(face.to_chart).exterior_derivative()
            rhs = omega.exterior_derivative().pullback(face.to_chart)
            for _ in range(5):
                y = tuple(rng.uniform(0, 1) for _ in range(n - 1))
                assert lhs.value_at(y).max_abs_diff(rhs.value_at(y)) < 1e-10


# -- boundary faces and Stokes ---------------------------------------------------


def test_square_faces_and_hand_stokes():
    body = unit_body(2)
    faces = boundary_faces(body)
    assert len(faces) == 4
    # omega = x1 dx2: d(omega) = dx1^dx2, both sides equal 1 on the unit square.
    omega = form_from_components(
        2, 1, {(1,): from_polynomials(2, [[((1, 0), 1.0)]])}
    )
    rule = QuadratureRule(4)
    boundary = sum(integrate([omega.pullback(f.to_chart)], f, rule)[0][0] for f in faces)
    assert boundary == pytest.approx(1.0, abs=1e-13)
    [[interior]] = integrate([omega.exterior_derivative()], body, rule)
    assert interior == pytest.approx(1.0, abs=1e-13)


def test_cube_faces_and_hand_stokes():
    body = unit_body(3)
    faces = boundary_faces(body)
    assert len(faces) == 6
    omega = form_from_components(
        3, 2, {(1, 2): from_polynomials(3, [[((1, 0, 0), 1.0)]])}
    )
    rule = QuadratureRule(4)
    boundary = sum(integrate([omega.pullback(f.to_chart)], f, rule)[0][0] for f in faces)
    assert boundary == pytest.approx(1.0, abs=1e-13)


def test_closed_constant_form_sums_to_zero():
    body = unit_body(2)
    omega = constant_form_field(2, 1, {(1,): 1.0})  # constant dx2 is closed
    rule = QuadratureRule(3)
    total = sum(values[0] for values in integrate_boundary([omega], body, rule))
    assert abs(total) < 1e-14


def test_stokes_random_polynomial_forms():
    rng = random.Random(17)
    rule = QuadratureRule(6)
    count = 0
    for n in (2, 3):
        body = unit_body(n)
        faces = boundary_faces(body)
        for _ in range(25):
            comps = {}
            for t in increasing_tuples(n, n - 1):
                table = []
                for exps in itertools.product(range(5), repeat=n):
                    if sum(exps) <= 4 and rng.random() < 0.35:
                        table.append((exps, rng.uniform(-1, 1)))
                comps[t] = from_polynomials(n, [table or [((0,) * n, 0.0)]])
            omega = form_from_components(n, n - 1, comps)
            [[interior]] = integrate([omega.exterior_derivative()], body, rule)
            boundary = sum(values[0] for values in integrate_boundary([omega], body, rule))
            scale = max(1.0, abs(interior), abs(boundary))
            assert abs(interior - boundary) / scale < 1e-10
            count += 1
    assert count == 50


def test_stokes_on_patched_body():
    # Curved body: quadratic patch of the unit square, still exact for Stokes.
    patch = SmoothField.from_expressions(2, ["x1 + 0.2*x2^2", "x2 - 0.1*x1^2"])
    body = Body(unit_box(2), patch=patch)
    body.check_embedding(QuadratureRule(4))
    omega = form_from_components(
        2, 1,
        {(0,): from_polynomials(2, [[((0, 2), 1.0)]]),
         (1,): from_polynomials(2, [[((2, 0), 0.5), ((1, 1), 1.0)]])},
    )
    rule = QuadratureRule(8)
    [[interior]] = integrate([omega.exterior_derivative()], body, rule)
    boundary = sum(values[0] for values in integrate_boundary([omega], body, rule))
    assert abs(interior - boundary) < 1e-12


# -- integrate over a region ----------------------------------------------------------

# Two forms per region, so one pass serves both; analytic coefficients, so the
# sums carry bits a slip in the pullback, the box or the sign would change.
PATCH_2D = ["x1 + 0.2*x2^2", "x2 - 0.1*x1^2"]


def _region_forms(kind):
    if kind in ("box body", "patched body"):
        body = Body(Box((0.0, 0.5), (1.0, 1.5)),
                    SmoothField.from_expressions(2, PATCH_2D) if kind == "patched body" else None)
        forms = [FormField.volume(SmoothField.from_expressions(2, [text]))
                 for text in ("sin(x1 + 0.3*x2)*x2^2 + 0.5", "exp(0.4*x2 - x1)*x1")]
        return body, forms
    if kind == "point face":
        body = Body(unit_box(1),
                    SmoothField.from_expressions(1, ["x1 + 0.5*x1^2 + 0.25"]))
        forms = [FormField(1, 0, [()], SmoothField.from_expressions(1, [text]))
                 for text in ("sin(x1) + 0.5", "exp(-x1)*x1")]
        return boundary_faces(body)[0], forms
    patch = SmoothField.from_expressions(3, ["x1 + 0.1*x3^2", "x2", "x3 - 0.2*x1*x2"])
    body = Body(unit_box(3), patch if kind == "patched face" else None)
    forms = [FormField.omitting(SmoothField.from_expressions(3, texts)) for texts in (
        ["sin(x1 + x2)", "x3^2 + 0.5", "exp(0.3*x1)*x2"],
        ["x1*x2*x3", "cos(x2) - x3", "sqrt(1 + x1^2)"],
    )]
    return boundary_faces(body)[3], forms


@pytest.mark.parametrize(
    "kind", ["box body", "patched body", "box face", "patched face", "point face"])
def test_integrate_over_is_the_explicit_route(kind):
    # The explicit route: pull each form back through the region's map, make
    # one pass over the parameter box for it alone, and multiply by the sign.
    # ``integrate`` pulls a body's chart forms back itself; a face's forms
    # come on its parameters, and a point face's are read at its point.
    region, forms = _region_forms(kind)
    rule = QuadratureRule(5)
    if kind == "point face":
        want = [region.sign * form.value_at(region.point).coefficient(()) for form in forms]
    elif isinstance(region, Body):
        mapping = region.patch or coordinate_field(2)
        want = [_integral(form.pullback(mapping), region.box, rule, 1.0) for form in forms]
    else:
        forms = [form.pullback(region.to_chart) for form in forms]
        want = [_integral(form, region.param_box, rule, region.sign) for form in forms]
    [got] = integrate(forms, region, rule)
    assert [v.hex() for v in got] == [v.hex() for v in want]
    assert all(v != 0.0 for v in got)


# -- edges -------------------------------------------------------------------


def test_square_edge_count_and_orientations():
    body = unit_body(2)
    es = edges(body)
    assert len(es) == 4
    for e in es:
        signs = list(e.face_signs.values())
        assert signs[0] * signs[1] < 0  # opposite induced orientations


def test_cube_edge_count_and_orientations():
    body = unit_body(3)
    es = edges(body)
    assert len(es) == 12
    for e in es:
        signs = list(e.face_signs.values())
        assert signs[0] * signs[1] < 0


def test_edge_signs_cancel_global_forms():
    # Summing a global form over all face boundaries must vanish (dd = 0).
    body = unit_body(3)
    rule = QuadratureRule(5)
    field = from_polynomials(3, [[((1, 1, 1), 1.0), ((2, 0, 0), 0.5)]])
    total = 0.0
    for face in boundary_faces(body):
        eta = form_from_components(
            3, 1, {(t,): field for t in range(1)}  # x-component 1-form
        )
        restricted = eta.pullback(face.to_chart)
        for piece in face_boundary_pieces(face):
            pulled = restricted.pullback(piece.to_chart)
            # A piece is a region of its own: integrate applies its sign.
            total += face.sign * integrate([pulled], piece, rule)[0][0]
    assert abs(total) < 1e-12


def test_face_param_points_lie_on_parent_faces():
    body = unit_body(3)
    for e in edges(body):
        nodes = [(0.25,), (0.75,)]
        for y in nodes:
            pt = tuple(e.to_chart.values_at(y))
            for label in e.labels:
                axis = int(label.split("-")[0][1:]) - 1
                side = label.split("-")[1]
                target = 1.0 if side == "upper" else 0.0
                assert abs(pt[axis] - target) < 1e-10


# Signed zeros, infinities and NaN, often: a sum of -0.0 terms is 0.0 in a loop from 0.0.
SUM_TERMS = st.sampled_from([-0.0, 0.0, math.inf, -math.inf, math.nan]) | st.floats()


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(SUM_TERMS, SUM_TERMS), min_size=1, max_size=40))
def test_a_quadrature_sum_has_the_bits_of_a_loop_in_node_order(terms):
    weights, values = (np.array(column) for column in zip(*terms))
    with np.errstate(all="ignore"):  # inf * 0.0 and inf - inf, as a run reads them
        total = _node_sum(weights, values)
    loop = weighted_sum(weights.tolist(), values.tolist())
    assert type(total) is float
    assert np.array(total).tobytes() == np.array(loop).tobytes()
