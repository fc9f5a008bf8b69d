"""Second-order balance: integration by parts, edge assembly, the full identity."""

import itertools
import json
import random
from pathlib import Path

import numpy as np
import pytest

import jetstress.stress
from jetstress import balance, geometry, scenarios
from jetstress.bundles import JetSectionField
from jetstress.fields import SmoothField, TensorField
from jetstress.geometry import (
    Body,
    Box,
    FacePatch,
    FormField,
    QuadratureRule,
    boundary_faces,
    face_boundary_pieces,
)
from jetstress.nonholonomic import (
    NonHolonomicStress,
    lift_second_order,
    nh_action_form,
    nh_divergence,
    nh_traction,
)
from jetstress.balance import (
    closed_boundary_exact_term,
    div_div,
    edge_assembly,
    first_integration_by_parts,
    verify_balance_order2,
)
from jetstress.reports import relative_residual
from jetstress.scenarios import load_scenario, run_checks
from jetstress.stress import divergence, traction_projection
from jetstress.surface import TransversalField

from oracles import from_polynomials, restrict_to_second_order, surface_force, unit_box

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


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


def unit_body(n):
    return Body(unit_box(n))


def zero_form(n):
    """The zero (n-1)-form on the chart, for the boundary form of ``edge_assembly``."""
    return FormField.omitting(SmoothField.constant(n, [0.0] * n))


def test_first_ibp_constant_stress():
    # Constant blocks with zero value and first-jet slots: divergence is zero,
    # so the interior action equals the boundary term.
    n, d = 2, 1
    stress = NonHolonomicStress(
        tensor_const(n, (d,), [0.0]),
        tensor_const(n, (d, n), np.zeros((1, 2))),
        tensor_const(n, (d, n), [[1.0, -2.0]]),
        tensor_const(n, (d, n, n), [[[0.5, 1.0], [0.0, 2.0]]]),
    )
    rng = random.Random(2)
    section = random_section(rng, n, d, 2)
    terms, _ = first_integration_by_parts(stress, section, unit_body(2), QuadratureRule(5))
    assert terms["interior"] == pytest.approx(0.0, abs=1e-13)
    assert terms["lhs"] == pytest.approx(terms["boundary"], abs=1e-12)
    # Zero section: everything vanishes.
    zero_section = JetSectionField(
        tensor_const(n, (d,), [0.0]), tensor_const(n, (d, n), np.zeros((1, 2)))
    )
    terms0, _ = first_integration_by_parts(stress, zero_section, unit_body(2), QuadratureRule(4))
    assert terms0["lhs"] == 0.0 and terms0["boundary"] == 0.0


def test_first_ibp_random_scenarios():
    rng = random.Random(29)
    rule = QuadratureRule(5)
    body = unit_body(2)
    for _ in range(20):
        stress = random_nh_stress(rng, 2, 1, 3)
        section = random_section(rng, 2, 1, 3)
        _, residual = first_integration_by_parts(stress, section, body, rule)
        assert residual < 1e-10


def test_relative_residual_divides_by_the_largest_term_and_at_least_one():
    assert relative_residual(2.0, 0.5, -4.0, 3.0) == 0.5
    assert relative_residual(0.25, 0.1, -0.5) == 0.25
    assert relative_residual(0.25) == 0.25


def test_div_div_constant_and_second_derivative():
    n, d = 2, 1
    const = NonHolonomicStress(
        tensor_const(n, (d,), [3.0]),
        tensor_const(n, (d, n), np.zeros((1, 2))),
        tensor_const(n, (d, n), np.zeros((1, 2))),
        tensor_const(n, (d, n, n), np.zeros((1, 2, 2))),
    )
    assert div_div(const).at((0.4, 0.4))[0] == pytest.approx(3.0)
    # x3[0, 0, 0] = x1^2 contributes its second derivative 2.
    quad = NonHolonomicStress(
        tensor_const(n, (d,), [0.0]),
        tensor_const(n, (d, n), np.zeros((1, 2))),
        tensor_const(n, (d, n), np.zeros((1, 2))),
        tensor_poly(n, (d, n, n), [[((2, 0), 1.0)], [((0, 0), 0.0)], [((0, 0), 0.0)], [((0, 0), 0.0)]]),
    )
    assert div_div(quad).at((0.7, 0.2))[0] == pytest.approx(2.0)


def test_div_div_matches_iterated_divergence():
    rng = random.Random(43)
    for n, d in ((2, 1), (2, 2), (3, 1)):
        stress = random_nh_stress(rng, n, d, 3)
        composed = divergence(nh_divergence(stress))
        direct = div_div(stress)
        for _ in range(10):
            x = tuple(rng.uniform(0, 1) for _ in range(n))
            assert np.max(np.abs(composed.at(x) - direct.at(x))) < 1e-12


def boundary_div_traction(stress, face, velocity):
    """The density of balance2's boundary_div term on one face."""
    return surface_force(traction_projection(nh_divergence(stress)), face, velocity)


def test_boundary_div_traction_adapted_face():
    # X1[0, n-1] = 1, X3 constant: the restricted density is (-1)^(n-1)(0 - 1).
    for n in (2, 3):
        d = 1
        x1 = np.zeros((1, n))
        x1[0, n - 1] = 1.0
        stress = NonHolonomicStress(
            tensor_const(n, (d,), [0.0]),
            tensor_const(n, (d, n), x1),
            tensor_const(n, (d, n), np.zeros((1, n))),
            tensor_const(n, (d, n, n), np.ones((1, n, n))),
        )
        body = unit_body(n)
        faces = {f.label: f for f in boundary_faces(body)}
        face = faces[f"x{n}-upper"]
        u_one = tensor_const(n, (d,), [1.0])
        form = boundary_div_traction(stress, face, u_one)
        value = form.value_at(tuple([0.5] * (n - 1))).coefficient(tuple(range(n - 1)))
        assert value == pytest.approx(((-1.0) ** (n - 1)) * (0.0 - 1.0))
    # Constant x3 with zero x1 gives a vanishing density.
    stress0 = NonHolonomicStress(
        tensor_const(2, (1,), [0.0]),
        tensor_const(2, (1, 2), np.zeros((1, 2))),
        tensor_const(2, (1, 2), np.zeros((1, 2))),
        tensor_const(2, (1, 2, 2), np.ones((1, 2, 2))),
    )
    faces = {f.label: f for f in boundary_faces(unit_body(2))}
    form0 = boundary_div_traction(stress0, faces["x1-upper"], tensor_const(2, (1,), [1.0]))
    assert form0.value_at((0.5,)).coefficient((0,)) == pytest.approx(0.0)


def test_edge_assembly_square_against_face_stokes():
    # Per-face Stokes: boundary integrals of tau group into edges and the
    # face interior terms; their difference equals the face pairing integral.
    rng = random.Random(47)
    rule = QuadratureRule(6)
    body = unit_body(2)
    from jetstress.geometry import integrate_boundary
    from jetstress.nonholonomic import hyper_surface_action

    for _ in range(5):
        stress = random_nh_stress(rng, 2, 1, 2)
        u = random_velocity(rng, 2, 1, 2)
        Y = nh_traction(stress)
        section = JetSectionField.from_velocity(u)
        pairing = hyper_surface_action(Y, section)
        edge_terms, face_terms, _ = edge_assembly(Y, u, body, None, rule, boundary_form=pairing)
        boundary_pairing = sum(
            values[0] for values in integrate_boundary([pairing], body, rule)
        )
        total = sum(edge_terms.values()) - sum(face_terms.values())
        assert abs(boundary_pairing - total) < 1e-10


def test_edge_assembly_matches_edges_op_bookkeeping():
    # Independent route: rebuild each per-edge sum from the edges() records
    # (per-face induced signs over the canonical edge parameters) and compare
    # with the grouping the assembly derives from face boundary pieces.
    rng = random.Random(97)
    from jetstress.geometry import (
        boundary_faces as faces_of,
        face_boundary_pieces,
        integrate,
    )
    from oracles import edges as edges_of
    from jetstress.stress import traction_action
    from jetstress.surface import TransversalField, face_split, tangent_traction

    for n in (2, 3):
        body = unit_body(n)
        stress = random_nh_stress(rng, n, 1, 2)
        u = random_velocity(rng, n, 1, 2)
        Y = nh_traction(stress)
        rule = QuadratureRule(6)
        edge_terms, _, _ = edge_assembly(Y, u, body, None, rule, boundary_form=zero_form(n))

        faces = {f.label: f for f in faces_of(body)}
        recomputed = {}
        for edge in edges_of(body):
            total = 0.0
            for label in edge.labels:
                face = faces[label]
                split = face_split(Y, face, TransversalField.coordinate(face), u, u.gradient())
                tau_u = traction_action(tangent_traction(split), split.velocity)
                # Locate this edge among the face's boundary pieces.
                other = edge.labels[0] if edge.labels[1] == label else edge.labels[1]
                axis = int(other.split("-")[0][1:]) - 1
                side = 1 if other.endswith("upper") else 0
                face_axes = [a for a in range(n) if a != face.axis]
                p = face_axes.index(axis)
                for piece in face_boundary_pieces(face):
                    if piece.axis == p and piece.side == side:
                        # integrate, over the piece as a group of itself,
                        # applies the piece sign; divide it out and use the
                        # edges() record instead.  A point piece reads the
                        # face form at its point as it is.
                        forms = [tau_u] if piece.param_box is None else [
                            tau_u.pullback(piece.to_chart)]
                        [[value]] = integrate(lambda *_: (forms, None), [(piece, [piece])], rule)
                        raw = value / piece.sign
                        total += edge.face_signs[label] * raw
            key = "|".join(sorted(edge.labels))
            recomputed[key] = total
        assert set(recomputed) == set(edge_terms)
        for key in edge_terms:
            assert abs(edge_terms[key] - recomputed[key]) < 1e-13


def test_edge_assembly_zero_stress():
    body = unit_body(2)
    zero = NonHolonomicStress(
        tensor_const(2, (1,), [0.0]),
        tensor_const(2, (1, 2), np.zeros((1, 2))),
        tensor_const(2, (1, 2), np.zeros((1, 2))),
        tensor_const(2, (1, 2, 2), np.zeros((1, 2, 2))),
    )
    u = tensor_const(2, (1,), [1.0])
    edge_terms, face_terms, _ = edge_assembly(
        nh_traction(zero), u, body, None, QuadratureRule(3), boundary_form=zero_form(2))
    assert all(abs(v) < 1e-15 for v in edge_terms.values())
    assert all(abs(v) < 1e-15 for v in face_terms.values())


def test_balance_order2_zero_and_value_only():
    n, d = 2, 1
    body = unit_body(2)
    u = tensor_poly(n, (d,), [[((1, 1), 1.0), ((2, 0), 0.5)]])
    zero = NonHolonomicStress(
        tensor_const(n, (d,), [0.0]),
        tensor_const(n, (d, n), np.zeros((1, 2))),
        tensor_const(n, (d, n), np.zeros((1, 2))),
        tensor_const(n, (d, n, n), np.zeros((1, 2, 2))),
    )
    terms, _ = verify_balance_order2(zero, u, body, None, QuadratureRule(6))
    assert terms["lhs"] == pytest.approx(0.0, abs=1e-15)
    assert terms["residual_abs"] < 1e-14

    # Only the value block: the identity reduces to lhs = div-div term.
    value_only = NonHolonomicStress(
        tensor_poly(n, (d,), [[((1, 0), 2.0), ((0, 0), 1.0)]]),
        tensor_const(n, (d, n), np.zeros((1, 2))),
        tensor_const(n, (d, n), np.zeros((1, 2))),
        tensor_const(n, (d, n, n), np.zeros((1, 2, 2))),
    )
    terms2, _ = verify_balance_order2(value_only, u, body, None, QuadratureRule(6))
    assert terms2["edge_sum"] == pytest.approx(0.0, abs=1e-13)
    assert terms2["face_div_sum"] == pytest.approx(0.0, abs=1e-13)
    assert terms2["boundary_div"] == pytest.approx(0.0, abs=1e-13)
    assert terms2["lhs"] == pytest.approx(terms2["div_div"], abs=1e-12)
    assert terms2["residual_abs"] < 1e-12


def test_balance_order2_random_square_scenarios():
    rng = random.Random(59)
    body = unit_body(2)
    rule = QuadratureRule(6)
    for _ in range(10):
        stress = random_nh_stress(rng, 2, 1, 2)
        u = random_velocity(rng, 2, 1, 2)
        _, residual = verify_balance_order2(stress, u, body, None, rule)
        assert residual < 1e-9


def test_balance_order2_cube_scenario():
    rng = random.Random(61)
    body = unit_body(3)
    stress = random_nh_stress(rng, 3, 1, 2)
    u = random_velocity(rng, 3, 1, 2)
    _, residual = verify_balance_order2(stress, u, body, None, QuadratureRule(5))
    assert residual < 1e-9


def test_balance_order2_with_oblique_constant_transversals():
    # Transversals need not be coordinate-aligned; constant oblique fields
    # keep the integrands polynomial and the identity exact.
    rng = random.Random(67)
    body = unit_body(2)
    faces = boundary_faces(body)
    transversals = {}
    for f in faces:
        vec = [0.0, 0.0]
        vec[f.axis] = 1.0 if f.side else -1.0
        vec[1 - f.axis] = 0.3
        transversals[f.label] = TransversalField(
            f, tensor_const(1, (2,), vec)
        )
    stress = random_nh_stress(rng, 2, 1, 2)
    u = random_velocity(rng, 2, 1, 2)
    _, residual = verify_balance_order2(stress, u, body, transversals, QuadratureRule(6))
    assert residual < 1e-9


def test_lhs_invariant_under_lift_split():
    rng = random.Random(71)
    from jetstress.geometry import integrate

    n, d = 2, 1
    body = unit_body(2)
    rule = QuadratureRule(6)
    raw = random_nh_stress(rng, n, d, 2)
    s2 = restrict_to_second_order(raw)
    u = random_velocity(rng, n, d, 2)
    section = JetSectionField.from_velocity(u)
    values = []
    for split in (0.0, 0.5, 1.0):
        lifted = lift_second_order(s2, split)
        [[value]] = integrate([nh_action_form(lifted, section)], body, rule)
        values.append(value)
    assert abs(values[0] - values[1]) < 1e-13
    assert abs(values[1] - values[2]) < 1e-13
    # The full identity holds for every split, with identical lhs.
    results = [
        verify_balance_order2(lift_second_order(s2, split), u, body, None, rule)
        for split in (0.0, 1.0)
    ]
    for _, residual in results:
        assert residual < 1e-9
    assert abs(results[0][0]["lhs"] - results[1][0]["lhs"]) < 1e-13


def test_balance_order2_curved_body():
    # Quadratic patch chosen so the face-frame solves have constant
    # determinants: all integrands stay polynomial and the identity is exact.
    rng = random.Random(79)
    patch = SmoothField.from_expressions(2, ["x1 + 0.2*x2^2", "x2 - 0.1*x1^2"])
    body = Body(unit_box(2), patch=patch)
    body.check_embedding(QuadratureRule(4))
    stress = random_nh_stress(rng, 2, 1, 2)
    u = random_velocity(rng, 2, 1, 2)
    _, residual = verify_balance_order2(stress, u, body, None, QuadratureRule(10))
    assert residual < 1e-9
    section = JetSectionField.from_velocity(u)
    _, residual = first_integration_by_parts(stress, section, body, QuadratureRule(10))
    assert residual < 1e-10


def test_balance_order2_rectangular_box_oblique_d2():
    # Shifted anisotropic box, two fiber components, degree-3 blocks, and
    # constant oblique transversals: the assembly stays exact.
    rng = random.Random(83)
    n, d = 2, 2
    box = Box((-0.5, 1.0), (1.5, 2.0))
    body = Body(box)
    stress = NonHolonomicStress(
        tensor_poly(n, (d,), [random_poly_table(rng, n, 3) for _ in range(d)]),
        tensor_poly(n, (d, n), [random_poly_table(rng, n, 3) for _ in range(d * n)]),
        tensor_poly(n, (d, n), [random_poly_table(rng, n, 3) for _ in range(d * n)]),
        tensor_poly(n, (d, n, n), [random_poly_table(rng, n, 3) for _ in range(d * n * n)]),
    )
    u = tensor_poly(n, (d,), [random_poly_table(rng, n, 3) for _ in range(d)])
    transversals = {}
    for f in boundary_faces(body):
        vec = [0.3, 0.3]
        vec[f.axis] = 1.0 if f.side else -1.0
        transversals[f.label] = TransversalField(
            f, tensor_const(1, (n,), vec)
        )
    _, residual = verify_balance_order2(stress, u, body, transversals, QuadratureRule(8))
    assert residual < 1e-9


def test_closed_boundary_circle_exact_term():
    # A circle inside the chart: the tangent-traction differential integrates
    # to zero around the closed curve, and the endpoints cancel exactly.
    rng = random.Random(73)
    circle = SmoothField.from_expressions(
        2 - 1,
        [
            "0.5 + 0.3*cos(2*pi*x1)",
            "0.5 + 0.3*sin(2*pi*x1)",
        ],
    )
    face = FacePatch("circle", Box((0.0,), (1.0,)), circle, 1.0)
    radial = TensorField(
        SmoothField.from_expressions(2, ["x1 - 0.5", "x2 - 0.5"]), (2,)
    )
    transversal = TransversalField.from_ambient_field(face, radial)
    stress = random_nh_stress(rng, 2, 1, 2)
    u = random_velocity(rng, 2, 1, 2)
    Y = nh_traction(stress)
    quadrature_value, endpoint_defect = closed_boundary_exact_term(
        Y, u, face, transversal, QuadratureRule(64)
    )
    assert abs(endpoint_defect) < 1e-12
    assert abs(quadrature_value) < 1e-10


def _balance2_passes(monkeypatch, doc):
    """The node arrays of each quadrature pass of ``balance2`` on ``doc``, in order."""
    passes = []
    real = geometry.on_nodes

    def on_nodes(fn, nodes, width=None):
        passes.append(np.array(nodes))
        return real(fn, nodes, width)

    scenario = load_scenario(doc)
    monkeypatch.setattr(geometry, "on_nodes", on_nodes)
    run_checks(scenario, ["balance2"])
    return scenario.body, passes


@pytest.mark.parametrize("lower", [0.0, 0.5])
def test_balance2_reads_each_point_set_in_one_pass(monkeypatch, lower):
    doc = json.loads((SCENARIOS / "cube-order2.json").read_text(encoding="utf-8"))
    doc["geometry"]["chart_box"] = doc["geometry"]["body_box"] = [[lower, 1.5]] * 3
    body, passes = _balance2_passes(monkeypatch, doc)
    # One pass over the body's nodes, for the interior power and the div-div
    # term, then one pass per axis.
    assert len(passes) == 1 + 3 and len(passes[0]) == 5 ** 3
    faces = boundary_faces(body)
    for axis, nodes in enumerate(passes[1:]):
        lower_face, upper_face = faces[2 * axis], faces[2 * axis + 1]
        # The pass reads the lower face's four pieces' 5-node sets, on the
        # face's boundary, then its 25 nodes, for the edge terms and both face
        # terms, then the same nodes of the upper face; a last column holds
        # each node's side.  A piece pinned at 0.0 joins it as the others do.
        assert len(face_boundary_pieces(lower_face)) == 4
        assert nodes.shape == (2 * (4 * 5 + 5 ** 2), 3)
        coords, sides = nodes[:, :2], nodes[:, 2]
        assert (sides[:45] == 0.0).all() and (sides[45:] == 1.0).all()
        assert (coords[:45] == coords[45:]).all()
        box = lower_face.param_box
        edge = np.isin(coords[:45], box.lower + box.upper).any(axis=1)
        assert edge[:20].all() and not edge[20:].any()
        assert (upper_face.param_box.lower, upper_face.param_box.upper) == (box.lower, box.upper)


def test_a_face_with_its_own_transversal_shares_its_axis_pass(monkeypatch):
    doc = json.loads((SCENARIOS / "cube-order2.json").read_text(encoding="utf-8"))
    doc["transversals"] = {"x1-upper": {"vector": ["1", "0.2*x2", "0.25*x1"]},
                           "x3-lower": "coordinate"}
    _, passes = _balance2_passes(monkeypatch, doc)
    # The body, then one pass per axis: x1-upper's own transversal pairs as
    # the coordinate one does, each face's 45 rows on its own side.
    assert [len(nodes) for nodes in passes] == [5 ** 3, 90, 90, 90]
    assert all((nodes[:45, 2] == 0.0).all() and (nodes[45:, 2] == 1.0).all()
               for nodes in passes[1:])


@pytest.mark.parametrize("name, check", [
    ("square-order1", "balance1"), ("patched-metric", "balance1"),
    ("cube-order2", "balance2"), ("patched-metric", "balance2"),
    ("disk-closed", "stokes-closed"), ("cube-order2", "lambda-invariance"),
])
def test_every_quadrature_pass_of_a_check_is_one_call_of_integrate(monkeypatch, name, check):
    # Each pass over quadrature nodes, and each rule's nodes, are read inside
    # a call of geometry.integrate, one pass per call of a body and one per
    # group of a call of face groups: face, face pair and edge pieces alike.
    scenario = load_scenario((SCENARIOS / f"{name}.json").read_text(encoding="utf-8"))
    real_integrate, real_on_nodes = geometry.integrate, geometry.on_nodes
    real_nodes_weights = geometry.QuadratureRule.nodes_weights
    calls, inside, passes, outside = [0], [0], [], []

    def integrate(forms, region, *args, **kwargs):
        calls[0] += len(region) if isinstance(region, list) else 1
        inside[0] += 1
        try:
            return real_integrate(forms, region, *args, **kwargs)
        finally:
            inside[0] -= 1

    def on_nodes(fn, nodes, width=None):
        passes.append(inside[0])
        return real_on_nodes(fn, nodes, width)

    def nodes_weights(rule, box):
        if not inside[0]:
            outside.append(box)
        return real_nodes_weights(rule, box)

    for module in (geometry, balance, jetstress.stress, scenarios):
        monkeypatch.setattr(module, "integrate", integrate)
    monkeypatch.setattr(geometry, "on_nodes", on_nodes)
    monkeypatch.setattr(geometry.QuadratureRule, "nodes_weights", nodes_weights)
    run_checks(scenario, [check])
    assert calls[0] > 0
    assert passes == [1] * calls[0]
    assert outside == []
