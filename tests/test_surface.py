"""Face restriction, transversal splits, tangent traction, surface divergence."""

import itertools
import random

import numpy as np
import pytest

from jetstress import fields, surface
from jetstress.fields import SmoothField, TensorField
from jetstress.geometry import (
    Body,
    Box,
    FacePatch,
    QuadratureRule,
    boundary_faces,
)
from jetstress.nonholonomic import NonHolonomicStress, nh_traction
from jetstress.stress import traction_action, verify_balance_order1
from jetstress.surface import (
    RestrictedSurfaceStress,
    TransversalField,
    face_split,
    face_velocity,
    restrict_Y,
    surface_divergence,
    tangent_edge_force,
    tangent_traction,
    transversal_decomposition,
)
from oracles import (
    annihilator_series,
    face_jet_pairing,
    from_polynomials,
    unit_box,
    validate_transversal,
)


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


def unit_faces(n):
    body = Body(unit_box(n))
    return {f.label: f for f in boundary_faces(body)}


def test_transversal_coordinate_and_annihilator():
    faces = unit_faces(3)
    face = faces["x3-upper"]
    tv = TransversalField.coordinate(face)
    validate_transversal(tv, [(0.3, 0.4), (0.7, 0.1)])
    phi = [s.value for s in annihilator_series(tv, (0.3, 0.4), 0)]
    assert phi == pytest.approx([0.0, 0.0, 1.0])
    lower = TransversalField.coordinate(faces["x3-lower"])
    phi_low = [s.value for s in annihilator_series(lower, (0.3, 0.4), 0)]
    assert phi_low == pytest.approx([0.0, 0.0, -1.0])


def test_transversal_oblique_annihilator():
    # n = d2 + c d1 on the face x2 = 0 still has phi = -dx2 (annihilator of
    # the tangents, normalized against the oblique vector).
    faces = unit_faces(2)
    face = faces["x2-lower"]
    oblique = TransversalField(
        face, tensor_const(1, (2,), [0.7, -1.0])
    )
    validate_transversal(oblique, [(0.2,), (0.9,)])
    phi = [s.value for s in annihilator_series(oblique, (0.5,), 0)]
    assert phi[0] == pytest.approx(0.0)
    assert phi[1] == pytest.approx(-1.0)


def test_transversal_degenerate_rejected():
    faces = unit_faces(2)
    face = faces["x1-upper"]
    tangent_only = TransversalField(face, tensor_const(1, (2,), [0.0, 1.0]))
    with pytest.raises(ValueError):
        annihilator_series(tangent_only, (0.5,), 0)


def test_a_nan_defect_fails_validation():
    # On x1 = 1 the second component is inf - inf: phi(n) is NaN, and the
    # tangent defect after it is 0.0.
    face = unit_faces(2)["x1-upper"]
    ambient = TensorField(
        SmoothField.from_expressions(2, ["1", "1e308*10*x1 - 1e308*10*x1"]), (2,))
    with pytest.raises(ValueError, match="defect nan exceeds"):
        validate_transversal(TransversalField.from_ambient_field(face, ambient), [(0.5,)])


def test_metric_normal_identity_reduces_to_coordinate():
    faces = unit_faces(2)
    face = faces["x1-upper"]
    metric = tensor_const(2, (2, 2), np.eye(2))
    tv = TransversalField.metric_normal(face, metric)
    vec = tv.n_field.at((0.5,))
    assert vec == pytest.approx([1.0, 0.0])
    validate_transversal(tv, [(0.25,), (0.75,)])
    # Scaling the metric rescales the unit normal.
    metric4 = tensor_const(2, (2, 2), 4.0 * np.eye(2))
    tv4 = TransversalField.metric_normal(face, metric4)
    assert tv4.n_field.at((0.5,)) == pytest.approx([0.5, 0.0])


def test_restrict_Y_adapted_face():
    # On the face x3 = 1, only the density omitting axis 3 survives, with
    # coefficient 1, so the restriction picks the j = 3 slots unchanged.
    n, d = 3, 1
    y0 = np.arange(1.0, 4.0).reshape(1, 3)
    y1 = np.arange(1.0, 10.0).reshape(1, 3, 3)
    surf_y0 = tensor_const(n, (d, n), y0)
    surf_y1 = tensor_const(n, (d, n, n), y1)
    from jetstress.nonholonomic import HyperSurfaceStress

    Y = HyperSurfaceStress(surf_y0, surf_y1)
    faces = unit_faces(3)
    restricted = restrict_Y(Y, faces["x3-upper"])
    assert restricted.z0.at((0.3, 0.6)) == pytest.approx([3.0])
    assert restricted.z1.at((0.3, 0.6))[0] == pytest.approx(y1[0, :, 2])
    zero = restrict_Y(
        HyperSurfaceStress(
            tensor_const(n, (d, n), np.zeros((1, 3))),
            tensor_const(n, (d, n, n), np.zeros((1, 3, 3))),
        ),
        faces["x3-upper"],
    )
    assert np.all(zero.z0.at((0.3, 0.6)) == 0.0)


def test_restrict_Y_tilted_face():
    # A slanted segment in the plane mixes the two hatted densities through
    # the parameterization Jacobian: oracle by direct minor computation.
    n, d = 2, 1
    mapping = SmoothField.from_expressions(1, ["x1", "0.5*x1"])
    face = FacePatch("tilted", Box((0.0,), (1.0,)), mapping, 1.0)
    from jetstress.nonholonomic import HyperSurfaceStress

    y0 = tensor_const(n, (d, n), [[2.0, 3.0]])
    y1 = tensor_const(n, (d, n, n), np.zeros((1, 2, 2)))
    restricted = restrict_Y(HyperSurfaceStress(y0, y1), face)
    # d(map)/dy = (1, 0.5): density omit-axis-1 pulls back with det [0.5],
    # density omit-axis-2 with det [1].
    assert restricted.z0.at((0.4,))[0] == pytest.approx(2.0 * 0.5 + 3.0 * 1.0)


def vertical_projection(restricted):
    """The transversal coefficient along the basis vector of the face's own
    axis: the part that ``tangent_edge_force`` requires to vanish."""
    face = restricted.face
    return transversal_decomposition(restricted, TransversalField.axis(face, face.axis))[1]


def is_tangent(restricted, tol=1e-9):
    """Whether ``tangent_edge_force`` takes the face stress as tangent."""
    try:
        tangent_edge_force(restricted, tol)
    except ValueError as exc:
        assert "not tangent" in str(exc)
        return False
    return True


def test_vertical_projection_and_tangency():
    n, d = 3, 1
    faces = unit_faces(3)
    face = faces["x3-upper"]
    from jetstress.nonholonomic import HyperSurfaceStress

    # Only the transversal column i = 3 is populated.
    y1 = np.zeros((1, 3, 3))
    y1[0, 2, 2] = 4.0
    Y = HyperSurfaceStress(tensor_const(n, (d, n), np.zeros((1, 3))), tensor_const(n, (d, n, n), y1))
    restricted = restrict_Y(Y, face)
    vp = vertical_projection(restricted)
    assert vp.at((0.5, 0.5))[0] == pytest.approx(4.0)
    assert not is_tangent(restricted)

    # Tangent columns only: vertical projection vanishes.
    y1t = np.zeros((1, 3, 3))
    y1t[0, 0, 2] = 1.0
    y1t[0, 1, 2] = -2.0
    Yt = HyperSurfaceStress(tensor_const(n, (d, n), np.zeros((1, 3))), tensor_const(n, (d, n, n), y1t))
    restricted_t = restrict_Y(Yt, face)
    assert vertical_projection(restricted_t).at((0.5, 0.5))[0] == pytest.approx(0.0)
    assert is_tangent(restricted_t)
    # A small but non-negligible column defeats the tolerance.
    y1e = y1t.copy()
    y1e[0, 2, 2] = 1e-3
    Ye = HyperSurfaceStress(tensor_const(n, (d, n), np.zeros((1, 3))), tensor_const(n, (d, n, n), y1e))
    assert not is_tangent(restrict_Y(Ye, face), tol=1e-9)


def test_transversal_decomposition_adapted():
    # With the coordinate transversal on an adapted face, the tangent part is
    # a plain column selection and the normal part is the omitted column.
    n, d = 3, 1
    faces = unit_faces(3)
    face = faces["x3-upper"]
    y1 = np.array([[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]])
    from jetstress.nonholonomic import HyperSurfaceStress

    Y = HyperSurfaceStress(tensor_const(n, (d, n), np.zeros((1, 3))), tensor_const(n, (d, n, n), y1))
    restricted = restrict_Y(Y, face)
    tv = TransversalField.coordinate(face)
    tangent, normal = transversal_decomposition(restricted, tv)
    z1 = restricted.z1.at((0.3, 0.4))
    assert tangent.at((0.3, 0.4))[0] == pytest.approx(z1[0, :2])
    assert normal.at((0.3, 0.4))[0] == pytest.approx(z1[0, 2])


def test_transversal_decomposition_oblique_formula():
    # n = d2 + c d1 on the face x2 = 0 in the plane: the tangent component is
    # v1 - c v2, matching the projector with the annihilator weights.
    n, d = 2, 1
    faces = unit_faces(2)
    face = faces["x2-lower"]
    c = 0.7
    tv = TransversalField(face, tensor_const(1, (2,), [c, -1.0]))
    v = np.array([[[3.0, 5.0]]])  # z1 components (d=1, i ambient)
    restricted = RestrictedSurfaceStress(
        face,
        tensor_const(1, (1,), [0.0]),
        tensor_const(1, (1, 2), v[0]),
    )
    tangent, normal = transversal_decomposition(restricted, tv)
    # phi = -dx2 / 1 -> phi(v) = -5... solve: v = a*t + b*n with t = e1:
    # v1 = a + b*c, v2 = -b -> b = -5, a = 3 + 5*0.7... wait v2 = -1*b -> b = -5.
    assert normal.at((0.5,))[0] == pytest.approx(-5.0)
    assert tangent.at((0.5,))[0, 0] == pytest.approx(3.0 + 0.7 * 5.0)
    # Reconstruction: v = tangent * t + normal * n.
    rec = tangent.at((0.5,))[0, 0] * np.array([1.0, 0.0]) + normal.at((0.5,))[0] * np.array(
        [c, -1.0]
    )
    assert rec == pytest.approx([3.0, 5.0])
    # Upward-pointing variant: with the annihilator +dx2 the tangent part is
    # v1 - c*v2, the projector formula with annihilator weights.
    tv_up = TransversalField(face, tensor_const(1, (2,), [c, 1.0]))
    tangent_up, normal_up = transversal_decomposition(restricted, tv_up)
    assert tangent_up.at((0.5,))[0, 0] == pytest.approx(3.0 - 0.7 * 5.0)
    assert normal_up.at((0.5,))[0] == pytest.approx(5.0)
    # Zero input: both parts vanish.
    zero_in = RestrictedSurfaceStress(
        face, tensor_const(1, (1,), [0.0]), tensor_const(1, (1, 2), [[0.0, 0.0]])
    )
    t0, n0 = transversal_decomposition(zero_in, tv)
    assert np.all(t0.at((0.5,)) == 0.0) and np.all(n0.at((0.5,)) == 0.0)


def test_cotangent_split_reconstruction():
    # Any covector splits into a face part killing n and a transversal part
    # killing the tangents; their sum reconstructs the original within 1e-12.
    rng = random.Random(5)
    faces = unit_faces(3)
    face = faces["x1-upper"]
    tv = TransversalField(
        face,
        TensorField(
            SmoothField.from_expressions(2, ["1 + 0.2*x1", "0.3*x2", "0.1"]), (3,)
        ),
    )
    for _ in range(10):
        psi = np.array([rng.uniform(-1, 1) for _ in range(3)])
        y = (rng.uniform(0, 1), rng.uniform(0, 1))
        phi = np.array([s.value for s in annihilator_series(tv, y, 0)])
        nvec = tv.n_field.at(y)
        psi_n = float(np.dot(psi, nvec)) * phi
        psi_v = psi - psi_n
        # psi_v kills the transversal, psi_n kills the tangents.
        assert abs(float(np.dot(psi_v, nvec))) < 1e-12
        tangents = [np.array([1.0 if i == 1 else 0.0 for i in range(3)]),
                    np.array([1.0 if i == 2 else 0.0 for i in range(3)])]
        for t in tangents:
            assert abs(float(np.dot(psi_n, t))) < 1e-12
        assert np.max(np.abs(psi_v + psi_n - psi)) < 1e-12


def test_tangent_traction_signs_and_n2():
    n, d = 3, 1
    faces = unit_faces(3)
    face = faces["x3-upper"]
    from jetstress.nonholonomic import HyperSurfaceStress

    y1 = np.zeros((1, 3, 3))
    y1[0, 0, 2] = 1.0  # tangent component along the first face axis
    Y = HyperSurfaceStress(tensor_const(n, (d, n), np.zeros((1, 3))), tensor_const(n, (d, n, n), y1))
    tv = TransversalField.coordinate(face)
    tau = tangent_traction(face_split(Y, face, tv, tensor_const(n, (d,), [0.0])))
    sig = tau.at((0.5, 0.5))
    assert sig[0, 0] == pytest.approx(1.0)  # sign (+) on the first slot
    assert sig[0, 1] == pytest.approx(0.0)

    # n=2: the output is a single 0-form coefficient.
    faces2 = unit_faces(2)
    face2 = faces2["x2-upper"]
    y1b = np.zeros((1, 2, 2))
    y1b[0, 0, 1] = 2.5
    Y2 = HyperSurfaceStress(
        tensor_const(2, (1, 2), np.zeros((1, 2))), tensor_const(2, (1, 2, 2), y1b)
    )
    tau2 = tangent_traction(face_split(
        Y2, face2, TransversalField.coordinate(face2), tensor_const(2, (1,), [0.0])))
    assert tau2.at((0.5,))[0, 0] == pytest.approx(2.5)


def test_surface_divergence_constant_case():
    # Constant tangent part, zero value slot, velocity with zero transversal
    # derivative: all three terms vanish.
    n, d = 2, 1
    faces = unit_faces(2)
    face = faces["x2-upper"]
    y1 = np.zeros((1, 2, 2))
    y1[0, 0, 1] = 3.0
    from jetstress.nonholonomic import HyperSurfaceStress

    Y = HyperSurfaceStress(
        tensor_const(2, (1, 2), np.zeros((1, 2))), tensor_const(2, (1, 2, 2), y1)
    )
    tv = TransversalField.coordinate(face)
    u = tensor_poly(2, (1,), [[((1, 0), 1.0)]])  # depends only on x1
    div_form = surface_divergence(face_split(Y, face, tv, u))
    assert div_form.value_at((0.4,)).coefficient((0,)) == pytest.approx(0.0)
    u_zero = tensor_const(2, (1,), [0.0])
    assert surface_divergence(face_split(Y, face, tv, u_zero)).value_at((0.4,)).max_abs() == 0.0


def test_surface_divergence_defining_relation():
    # d(tau(Y)(u)) - Y(j1 u) must equal the local surface-divergence form.
    rng = random.Random(21)
    for n in (2, 3):
        d = 1
        body = Body(unit_box(n))
        faces = boundary_faces(body)
        stress = random_nh_stress(rng, n, d, 2)
        Y = nh_traction(stress)
        u = tensor_poly(n, (d,), [random_poly_table(rng, n, 3)])
        for face in faces[:3]:
            tv = TransversalField.coordinate(face)
            split = face_split(Y, face, tv, u)
            tau = tangent_traction(split)
            u_face = face_velocity(u, face)
            tau_u = traction_action(tau, u_face)
            restricted = restrict_Y(Y, face)
            pairing = face_jet_pairing(restricted, u)
            local = surface_divergence(split)
            vol = tuple(range(n - 1))
            if n == 2:
                # 0-form: d(tau(u)) has a single derivative coefficient.
                for _ in range(5):
                    y = (rng.uniform(0, 1),)
                    d_tau = tau_u.exterior_derivative().value_at(y).coefficient(vol)
                    lhs = d_tau - pairing.value_at(y).coefficient(vol)
                    rhs = local.value_at(y).coefficient(vol)
                    assert abs(lhs - rhs) < 1e-11
            else:
                for _ in range(5):
                    y = (rng.uniform(0, 1), rng.uniform(0, 1))
                    d_tau = tau_u.exterior_derivative().value_at(y).coefficient(vol)
                    lhs = d_tau - pairing.value_at(y).coefficient(vol)
                    rhs = local.value_at(y).coefficient(vol)
                    assert abs(lhs - rhs) < 1e-11


def test_surface_divergence_with_varying_oblique_transversal():
    # The defining relation also holds for a non-constant transversal field,
    # where the annihilator becomes a rational function along the face.
    rng = random.Random(33)
    n, d = 2, 1
    faces = unit_faces(2)
    face = faces["x2-upper"]
    tv = TransversalField(
        face,
        TensorField(SmoothField.from_expressions(1, ["0.4*x1", "1 + 0.3*x1"]), (2,)),
    )
    stress = random_nh_stress(rng, n, d, 2)
    Y = nh_traction(stress)
    u = tensor_poly(n, (d,), [random_poly_table(rng, n, 2)])
    split = face_split(Y, face, tv, u)
    tau = tangent_traction(split)
    u_face = face_velocity(u, face)
    tau_u = traction_action(tau, u_face)
    restricted = restrict_Y(Y, face)
    pairing = face_jet_pairing(restricted, u)
    local = surface_divergence(split)
    for _ in range(8):
        y = (rng.uniform(0, 1),)
        lhs = tau_u.exterior_derivative().value_at(y).coefficient((0,)) - pairing.value_at(
            y
        ).coefficient((0,))
        rhs = local.value_at(y).coefficient((0,))
        assert abs(lhs - rhs) < 1e-11


def tangent_face_stress(rng):
    """A tangent polynomial stress on the face x3-upper of the unit cube,
    built directly over the face parameters: its transversal column is 0."""
    face = unit_faces(3)["x3-upper"]
    z0 = tensor_poly(2, (1,), [random_poly_table(rng, 2, 2)])
    z1_cols = [random_poly_table(rng, 2, 2), random_poly_table(rng, 2, 2), [((0, 0), 0.0)]]
    return RestrictedSurfaceStress(face, z0, tensor_poly(2, (1, 3), z1_cols))


def test_tangent_edge_force_balance_on_face():
    # A tangent polynomial face stress behaves as an order-1 stress on the
    # face: the balance identity closes there.
    rng = random.Random(8)
    restricted = tangent_face_stress(rng)
    face = restricted.face
    assert is_tangent(restricted)
    tau, div, reduced = tangent_edge_force(restricted)
    face_body = Body(unit_box(2))
    u_face = tensor_poly(2, (1,), [random_poly_table(rng, 2, 2)])
    _, residual = verify_balance_order1(reduced, u_face, face_body, QuadratureRule(5))
    assert residual < 1e-10
    # Constant tangent stress: the divergence keeps only the value-slot term.
    const = RestrictedSurfaceStress(
        face,
        tensor_const(2, (1,), [2.0]),
        tensor_const(2, (1, 3), [[1.0, -1.0, 0.0]]),
    )
    _, div_const, _ = tangent_edge_force(const)
    assert div_const.at((0.5, 0.5))[0] == pytest.approx(-2.0)
    # Non-tangent input is rejected.
    bad = RestrictedSurfaceStress(
        face,
        tensor_const(2, (1,), [0.0]),
        tensor_const(2, (1, 3), [[0.0, 0.0, 1.0]]),
    )
    with pytest.raises(ValueError):
        tangent_edge_force(bad)


def test_tangent_edge_force_splits_once_and_reads_tangency_in_one_pass(monkeypatch):
    """One ``transversal_decomposition`` serves the tangency test and the
    reduced stress, and the tangency test reads the 3-point rule's face nodes
    in one ``on_nodes`` pass."""
    restricted = tangent_face_stress(random.Random(8))
    splits, passes = [], []
    split, on_nodes = surface.transversal_decomposition, fields.on_nodes

    def counted_split(*args):
        splits.append(args)
        return split(*args)

    def counted_pass(fn, nodes, width=None):
        passes.append(len(nodes))
        return on_nodes(fn, nodes, width)

    monkeypatch.setattr(surface, "transversal_decomposition", counted_split)
    monkeypatch.setattr(fields, "on_nodes", counted_pass)
    tangent_edge_force(restricted)
    assert len(splits) == 1
    assert passes == [9]
