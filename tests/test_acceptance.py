"""Acceptance suite: every headline identity at its fixed tolerance.

Each test prints one pass/fail line (visible with ``pytest -s``); the
assertions carry the same tolerances, so a plain ``pytest`` run is
equivalent.
"""

import itertools
import random
import time

import numpy as np

from jetstress.balance import (
    closed_boundary_exact_term,
    first_integration_by_parts,
    verify_balance_order2,
)
from jetstress.bundles import JetSectionField
from jetstress.covariance import FrameChange, invariance_check
from jetstress.fields import (
    SmoothField,
    TensorField,
    finite_difference_jet,
    jet_extension,
)
from jetstress.geometry import (
    Body,
    Box,
    FacePatch,
    QuadratureRule,
    boundary_faces,
    integrate,
)
from jetstress.nonholonomic import (
    NonHolonomicStress,
    VariationalStress2,
    lift_second_order,
    nh_action_form,
    nh_traction,
    second_contraction,
    second_contraction_brute_force,
)
from jetstress.stress import (
    VariationalStress1,
    invariant_divergence_residual,
    surface_force,
    traction_projection,
    verify_balance_order1,
)
from jetstress.surface import TransversalField

from oracles import (
    chart_point,
    from_polynomials,
    include_holonomic,
    iterated_jet_at,
    restrict_to_second_order,
    symmetrize_iterated,
    unit_box,
)


def tensor_poly(dim, shape, tables):
    return TensorField(from_polynomials(dim, tables), shape)


def tensor_const(dim, shape, values):
    flat = np.asarray(values, dtype=float).reshape(-1)
    return TensorField(SmoothField.constant(dim, list(flat)), shape)


def random_poly_table(rng, n, degree, nterms=4):
    pool = [e for e in itertools.product(range(degree + 1), repeat=n) if sum(e) <= degree]
    return [(rng.choice(pool), rng.uniform(-1, 1)) for _ in range(nterms)]


def random_stress1(rng, n, d, degree):
    return VariationalStress1(
        tensor_poly(n, (d,), [random_poly_table(rng, n, degree) for _ in range(d)]),
        tensor_poly(n, (d, n), [random_poly_table(rng, n, degree) for _ in range(d * n)]),
    )


def random_velocity(rng, n, d, degree):
    return tensor_poly(n, (d,), [random_poly_table(rng, n, degree) for _ in range(d)])


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


def unit_body(n):
    return Body(unit_box(n))


def report(index, name, detail):
    print(f"[acceptance] {index:02d} {name}: PASS ({detail})")


def test_criterion_01_order1_balance_30_scenarios():
    rng = random.Random(101)
    start = time.perf_counter()
    worst = 0.0
    cases = [(2, 1, 8), (2, 2, 8), (3, 1, 7), (3, 2, 7)]
    total = 0
    for n, d, count in cases:
        body = unit_body(n)
        rule = QuadratureRule(4)
        for _ in range(count):
            stress = random_stress1(rng, n, d, 3)
            velocity = random_velocity(rng, n, d, 3)
            _, residual = verify_balance_order1(stress, velocity, body, rule)
            worst = max(worst, residual)
            assert residual <= 1e-10
            total += 1
    elapsed = time.perf_counter() - start
    assert total == 30
    assert elapsed < 5.0
    report(1, "order-1 balance, 30 scenarios", f"max residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_divergence_consistency():
    rng = random.Random(102)
    worst = 0.0
    for n, d in ((2, 1), (2, 2), (3, 1)):
        stress = random_stress1(rng, n, d, 3)
        velocity = random_velocity(rng, n, d, 3)
        points = [tuple(rng.uniform(0, 1) for _ in range(n)) for _ in range(100)]
        residual = invariant_divergence_residual(stress, velocity, points)
        worst = max(worst, residual)
        assert residual <= 1e-11
    report(2, "divergence two-route consistency", f"max pointwise gap {worst:.2e}")


def test_criterion_03_cauchy_on_cube_faces():
    rng = random.Random(103)
    n, d = 3, 2
    stress = random_stress1(rng, n, d, 3)
    velocity = random_velocity(rng, n, d, 3)
    sigma = traction_projection(stress)
    rule = QuadratureRule(4)
    worst = 0.0
    for face in boundary_faces(unit_body(3)):
        density = surface_force(sigma, face, velocity)
        axis = face.axis
        nodes, _ = rule.nodes_weights(face.param_box)
        for y in nodes:
            y = tuple(y)
            via_pullback = density.value_at(y).coefficient((0, 1))
            pt = chart_point(face, y)
            direct = float(np.sum(sigma.at(pt)[:, axis] * velocity.at(pt)))
            worst = max(worst, abs(via_pullback - direct))
    assert worst <= 1e-11
    report(3, "boundary force equals direct density on all cube faces",
           f"max gap {worst:.2e}")


def test_criterion_04_second_contraction():
    rng = random.Random(104)
    sym_worst = 0.0
    oracle_worst = 0.0
    for n in (2, 3):
        # Symmetric top blocks annihilate the double contraction.
        for _ in range(10):
            raw = np.array(
                [[[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)]]
            )
            sym = 0.5 * (raw + np.transpose(raw, (0, 2, 1)))
            tf = tensor_const(n, (1, n, n), sym)
            x = tuple(rng.uniform(0, 1) for _ in range(n))
            forms = second_contraction(tf.at(x))
            sym_worst = max(sym_worst, max(f.max_abs() for f in forms))
        # Arbitrary blocks match the interior-product oracle exactly.
        for _ in range(10):
            arr = np.array(
                [[[float(rng.randint(-6, 6)) for _ in range(n)] for _ in range(n)]]
            )
            tf = tensor_const(n, (1, n, n), arr)
            x = tuple(rng.uniform(0, 1) for _ in range(n))
            fast = second_contraction(tf.at(x))
            brute = second_contraction_brute_force(tf.at(x))
            oracle_worst = max(
                oracle_worst, max(f.max_abs_diff(b) for f, b in zip(fast, brute))
            )
    assert sym_worst <= 1e-14
    assert oracle_worst == 0.0
    report(4, "double contraction: symmetric kill and oracle equality",
           f"symmetric {sym_worst:.1e}, oracle gap {oracle_worst:.1e}")


def test_criterion_05_noninvariance_counterexample():
    rng = random.Random(105)
    forward = SmoothField.from_expressions(2, ["x1 + x2^2", "x2"])
    inverse = SmoothField.from_expressions(2, ["x1 - x2^2", "x2"])
    changes = FrameChange(forward, inverse, 1).at_points(
        [(0.2, 0.3), (0.5, 0.7), (0.8, 0.4), (0.35, 0.9)])

    s2 = tensor_const(2, (1, 2, 2), [[[0.5, 0.2], [0.2, 1.0]]])
    primed2 = VariationalStress2(
        tensor_poly(2, (1,), [random_poly_table(rng, 2, 2)]),
        tensor_poly(2, (1, 2), [random_poly_table(rng, 2, 2) for _ in range(2)]),
        s2,
    )
    naive = invariance_check(["naive-contraction"], changes, primed_stress2=primed2)
    assert naive["naive_magnitude"] > 1e-3
    assert naive["naive_match_defect"] <= 1e-10

    velocity = random_velocity(rng, 2, 1, 3)
    action2 = invariance_check(
        ["action2"], changes, primed_stress2=primed2, velocity=velocity
    )
    assert action2["action2"] <= 1e-11
    primed1 = random_stress1(rng, 2, 1, 2)
    first = invariance_check(
        ["action1", "traction1"], changes, primed_stress1=primed1, velocity=velocity
    )
    assert first["action1"] <= 1e-11
    assert first["traction1"] <= 1e-11
    report(5, "component-pair contraction defect matches prediction",
           f"magnitude {naive['naive_magnitude']:.2e}, match {naive['naive_match_defect']:.1e}, "
           f"action/traction invariance {max(first['action1'], action2['action2'], first['traction1']):.1e}")


def test_criterion_06_first_integration_by_parts():
    rng = random.Random(106)
    body = unit_body(2)
    rule = QuadratureRule(5)
    worst = 0.0
    for _ in range(20):
        stress = random_nh_stress(rng, 2, 1, 3)
        section = random_section(rng, 2, 1, 3)
        _, residual = first_integration_by_parts(stress, section, body, rule)
        worst = max(worst, residual)
        assert residual <= 1e-10
    report(6, "first integration by parts, 20 scenarios", f"max residual {worst:.2e}")


def test_criterion_07_full_identity_and_disk():
    rng = random.Random(107)
    worst = 0.0
    body2 = unit_body(2)
    rule = QuadratureRule(6)
    for _ in range(10):
        stress = random_nh_stress(rng, 2, 1, 2)
        velocity = random_velocity(rng, 2, 1, 2)
        _, residual = verify_balance_order2(stress, velocity, body2, None, rule)
        worst = max(worst, residual)
        assert residual <= 1e-9
    stress3 = random_nh_stress(rng, 3, 1, 2)
    velocity3 = random_velocity(rng, 3, 1, 2)
    _, residual3 = verify_balance_order2(stress3, velocity3, unit_body(3), None, QuadratureRule(5))
    worst = max(worst, residual3)
    assert residual3 <= 1e-9

    circle = SmoothField.from_expressions(
        1, ["0.5 + 0.3*cos(2*pi*x1)", "0.5 + 0.3*sin(2*pi*x1)"]
    )
    face = FacePatch("circle", Box((0.0,), (1.0,)), circle, 1.0)
    radial = TensorField(SmoothField.from_expressions(2, ["x1 - 0.5", "x2 - 0.5"]), (2,))
    transversal = TransversalField.from_ambient_field(face, radial)
    stress_d = random_nh_stress(rng, 2, 1, 2)
    velocity_d = random_velocity(rng, 2, 1, 2)
    quad_value, endpoint = closed_boundary_exact_term(
        nh_traction(stress_d), velocity_d, face, transversal, QuadratureRule(64)
    )
    disk_residual = max(abs(quad_value), abs(endpoint))
    assert disk_residual <= 1e-10
    report(7, "full second-order identity + closed-boundary disk",
           f"max relative residual {worst:.2e}, disk exact-term {disk_residual:.2e}")


def test_criterion_08_representation_invariance():
    rng = random.Random(108)
    body = unit_body(2)
    rule = QuadratureRule(6)
    raw = random_nh_stress(rng, 2, 1, 2)
    s2 = restrict_to_second_order(raw)
    velocity = random_velocity(rng, 2, 1, 2)
    section = JetSectionField.from_velocity(velocity)
    values = {}
    results = {}
    for split in (0.0, 0.5, 1.0):
        lifted = lift_second_order(s2, split)
        [[values[split]]] = integrate([nh_action_form(lifted, section)], body, rule)
        results[split] = verify_balance_order2(lifted, velocity, body, None, rule)
    gap = max(abs(values[0.0] - values[0.5]), abs(values[0.0] - values[1.0]))
    assert gap <= 1e-13
    # Intermediate face/edge terms are recorded per split and may differ.
    (terms0, _), (terms1, _) = results[0.0], results[1.0]
    edge_spread = max(
        abs(terms0["edge_sum"] - terms1["edge_sum"]),
        abs(terms0["face_div_sum"] - terms1["face_div_sum"]),
    )
    for _, residual in results.values():
        assert residual <= 1e-9
    report(8, "interior power independent of the lift split",
           f"lhs gap {gap:.1e}, recorded face/edge spread {edge_spread:.2e}")


def test_criterion_09_jet_engine_oracle():
    rng = random.Random(109)
    transcendental = [
        SmoothField.from_expressions(2, ["sin(x1)*cos(x2)"]),
        SmoothField.from_expressions(2, ["exp(x1 - 0.5*x2)"]),
        SmoothField.from_expressions(1, ["sin(x1) + exp(x1)"]),
    ]
    fd_worst = 0.0
    for field in transcendental:
        for _ in range(5):
            x = tuple(rng.uniform(-1.5, 1.5) for _ in range(field.dim))
            exact = jet_extension(field, x, 2)
            approx = finite_difference_jet(field, x, 2, 1e-4)
            for p in range(3):
                fd_worst = max(
                    fd_worst, float(np.max(np.abs(exact.array(p) - approx.array(p))))
                )
    assert fd_worst <= 1e-6

    poly_worst = 0.0
    for _ in range(10):
        table = random_poly_table(rng, 2, 4, nterms=6)
        field = from_polynomials(2, [table])
        x = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        jet = jet_extension(field, x, 4)
        # Symbolic derivative oracle for one representative multi-index.
        d_dxdy = sum(
            c * e[0] * e[1] * x[0] ** (e[0] - 1) * x[1] ** (e[1] - 1)
            for e, c in table
            if e[0] >= 1 and e[1] >= 1
        )
        scale = max(1.0, abs(d_dxdy))
        poly_worst = max(poly_worst, abs(jet.array(2)[0, 0, 1] - d_dxdy) / scale)
    assert poly_worst <= 1e-13
    report(9, "jet engine vs finite differences and polynomial exactness",
           f"fd gap {fd_worst:.2e}, poly rel err {poly_worst:.2e}")


def test_criterion_10_roundtrips_and_projections():
    rng = random.Random(110)
    n, d = 2, 2
    # Lift then restrict is the identity for every split.
    raw = random_nh_stress(rng, n, d, 2)
    s2 = restrict_to_second_order(raw)
    worst_rt = 0.0
    for split in (0.0, 0.25, 0.5, 1.0):
        back = restrict_to_second_order(lift_second_order(s2, split))
        for _ in range(5):
            x = (rng.uniform(0, 1), rng.uniform(0, 1))
            worst_rt = max(worst_rt, float(np.max(np.abs(back.s0.at(x) - s2.s0.at(x)))))
            worst_rt = max(worst_rt, float(np.max(np.abs(back.s1.at(x) - s2.s1.at(x)))))
            worst_rt = max(worst_rt, float(np.max(np.abs(back.s2.at(x) - s2.s2.at(x)))))
    assert worst_rt <= 1e-12

    # Symmetrization is the identity on already-symmetric blocks.
    sym = np.array([[[1.0, 0.25], [0.25, -2.0]]])
    assert np.array_equal(symmetrize_iterated(sym), sym)

    # Embedding a 2-jet matches the iterated jet of the induced section.
    worst_incl = 0.0
    for _ in range(10):
        u = tensor_poly(2, (1,), [random_poly_table(rng, 2, 3)])
        section = JetSectionField.from_velocity(u)
        x = (rng.uniform(0, 1), rng.uniform(0, 1))
        direct = include_holonomic(jet_extension(u.field, x, 2))
        via = iterated_jet_at(section, x)
        worst_incl = max(
            worst_incl,
            float(np.max(np.abs(direct.b0 - via.b0))),
            float(np.max(np.abs(direct.b1 - via.b1))),
            float(np.max(np.abs(direct.b2 - via.b2))),
            float(np.max(np.abs(direct.b3 - via.b3))),
        )
    assert worst_incl <= 1e-12
    report(10, "roundtrips: lift/restrict, symmetrize, holonomic embedding",
           f"max defects {worst_rt:.1e} / {worst_incl:.1e}")
