"""Key selection through box-face insertions, and the face pass of ``balance2``.

``geometry.pullback_coefficients`` pulls back through a box face's
insertion by selecting keys; ``oracles.pullback_by_composition`` is the
general route (composition with the map times its Jacobian minors), and the
two must agree in every bit and in key order.  ``balance.edge_assembly``
builds each face's fields once and reads a box face and its edge pieces in
one pass; ``oracles.edge_assembly_by_piece`` builds the fields of each term
apart and reads each term in its own pass, and every term must keep its bits.
The two faces of an axis share their fields and one pass; read through
``oracles.faces_alone``, each face has a pass of its own, and every face
term, edge piece and Cauchy gap must keep its bits and key order.
"""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetstress import balance, geometry, scenarios, surface
from jetstress.balance import edge_assembly
from jetstress.exprs import parse_expression
from jetstress.fields import SmoothField, monomial_map
from jetstress.geometry import (
    Box,
    BoxFace,
    Insertion,
    QuadratureRule,
    boundary_faces,
    increasing_tuples,
    pullback_coefficients,
)
from jetstress.nonholonomic import nh_divergence, nh_traction
from jetstress.scenarios import generate_scenario, load_scenario
from jetstress.stress import traction_action, traction_projection

from oracles import edge_assembly_by_piece, pullback_by_composition, read_faces_alone
from test_transversal_solve import curved_cube

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

# -- key selection ------------------------------------------------------------------

COORDINATE = st.sampled_from([0.0, -0.0, 0.5, -0.75, 1.0]) | st.floats(-1.5, 1.5)
EXPRESSIONS = ("sin(x1 + 0.3*x{n})*x{n}^2 + 0.5", "exp(0.4*x{n} - x1)*x1",
               "sqrt(1 + x1^2 + 0.5*x{n}^2) - x{n}", "x1*x{n} + 0.25*x1^3")


@st.composite
def coefficient_maps(draw, n, count):
    """``count`` component maps over n coordinates: monomial tables or
    expressions with sin, exp and sqrt."""
    maps = []
    for _ in range(count):
        if draw(st.booleans()):
            exps = list(itertools.product(range(3), repeat=n))
            table = [(draw(st.sampled_from(exps)), draw(st.floats(-2.0, 2.0).filter(bool)))
                     for _ in range(draw(st.integers(1, 4)))]
            maps.append(monomial_map(table))
        else:
            text = draw(st.sampled_from(EXPRESSIONS)).format(n=draw(st.integers(1, n)))
            maps.append(parse_expression(text, n))
    return maps


def _outcome(field, point, order):
    """Each series' keys in order with the bits of each value."""
    series = field.series_on(point, order)
    return [
        [(k, [float(x).hex() for x in np.atleast_1d(v)], np.ndim(v)) for k, v in s.coeffs.items()]
        for s in series
    ]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(2, 4), order=st.integers(0, 2))
def test_key_selection_is_the_general_pullback(data, n, order):
    axis, side = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, 1))
    lower = data.draw(st.sampled_from([0.0, -0.5, 0.25]))
    box = Box((lower,) * n, (lower + data.draw(st.sampled_from([1.0, 0.75])),) * n)
    insertion = BoxFace(box, axis, side).insertion()
    assert isinstance(insertion, Insertion)
    degree = data.draw(st.integers(0, n - 1))
    targets = increasing_tuples(n, degree)
    sources = increasing_tuples(n - 1, degree)
    groups = data.draw(st.integers(1, 2))
    coeffs = SmoothField.from_series_maps(
        n, data.draw(coefficient_maps(n, groups * len(targets))))
    nodes = data.draw(st.integers(1, 4))
    # A float point, or one value per node on each axis (0.0 and -0.0 at some
    # nodes only).
    point = tuple(
        data.draw(COORDINATE) if nodes == 1 or data.draw(st.booleans())
        else np.array([data.draw(COORDINATE) for _ in range(nodes)])
        for _ in range(n - 1)
    )
    selected = pullback_coefficients(coeffs, insertion, targets, sources)
    general = pullback_by_composition(coeffs, insertion, targets, sources)
    with np.errstate(all="ignore"):
        assert _outcome(selected, point, order) == _outcome(general, point, order)


def test_a_patched_face_keeps_the_general_pullback():
    patch = SmoothField.from_expressions(2, ["x1 + 0.1*x2^2", "x2 + 0.2*x1"])
    face = boundary_faces(geometry.Body(geometry.Chart(2, Box.unit(2)), Box.unit(2), patch))[1]
    assert not isinstance(face.to_chart, Insertion)


# -- the face pass --------------------------------------------------------------------


def _shifted_cube():
    doc = json.loads((SCENARIOS / "cube-order2.json").read_text(encoding="utf-8"))
    doc["geometry"]["chart_box"] = doc["geometry"]["body_box"] = [[0.5, 1.5]] * 3
    return doc


DOCUMENTS = {
    **{name: json.loads((SCENARIOS / f"{name}.json").read_text(encoding="utf-8"))
       for name in ("covariance-quadratic", "cube-order2", "disk-closed", "patched-metric")},
    "cube-order2 on [0.5, 1.5]^3": _shifted_cube(),
    "generated n=3": generate_scenario(5, 3, 2, 3),
    "generated n=4": generate_scenario(7, 4, 1, 2),
    "curved cube": curved_cube(6),
}


def _assembly_inputs(doc):
    scenario = load_scenario(doc)
    stress = scenario.nh_stress
    sigma_div_u = traction_action(traction_projection(nh_divergence(stress)), scenario.velocity)
    return (nh_traction(stress), scenario.velocity, scenario.body, scenario.transversals,
            QuadratureRule(min(scenario.quad_order, 4 if scenario.body.dim == 4 else 8)),
            sigma_div_u)


def _bits(terms):
    return [{key: value.hex() for key, value in group.items()} for group in terms]


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_the_face_pass_keeps_every_term_of_the_per_piece_route(name):
    *args, boundary_form = _assembly_inputs(DOCUMENTS[name])
    got = edge_assembly(*args, boundary_form=boundary_form)
    want = edge_assembly_by_piece(*args, boundary_form)
    assert _bits(got) == _bits(want)
    assert [list(group) for group in got] == [list(group) for group in want]


def test_each_face_builds_its_fields_once(monkeypatch):
    calls = {"restrict_Y": [], "tangent_traction": [], "surface_divergence": []}
    for module, name in ((surface, "restrict_Y"), (balance, "tangent_traction"),
                         (balance, "surface_divergence")):
        real = getattr(module, name)

        def spy(*args, _real=real, _name=name):
            face = args[1] if _name == "restrict_Y" else args[0].restricted.face
            calls[_name].append(face.label)
            return _real(*args)

        monkeypatch.setattr(module, name, spy)
    *args, boundary_form = _assembly_inputs(DOCUMENTS["cube-order2"])
    edge_assembly(*args, boundary_form=boundary_form)
    # Once per axis: the two faces of each share one face of both sides.
    assert calls == {name: ["x1", "x2", "x3"] for name in calls}


# -- the pass two faces share ------------------------------------------------------

BOUNDS = st.sampled_from([[0.0, 1.0], [-0.5, 0.0], [0.25, 1.5], [-1.0, 0.75]])


@st.composite
def face_documents(draw):
    """A generated document on a box with some bound at 0.0, n = 2 to 4, its
    fields monomial tables or, for the velocity and the raw x0 block,
    expressions with sin, exp and sqrt; patched or not."""
    n = draw(st.integers(2, 4))
    doc = generate_scenario(draw(st.integers(0, 10 ** 6)), n, 1 if n == 4 else 2,
                            draw(st.integers(1, 3)))
    bounds = [draw(BOUNDS) for _ in range(n)]
    bounds[draw(st.integers(0, n - 1))] = [0.0, 1.0]
    doc["geometry"] = {"chart_box": [[-3.0, 3.0]] * n, "body_box": bounds,
                       "quad_order": draw(st.integers(1, 3 if n == 4 else 4))}
    doc["checks"] = ["balance1", "balance2"]  # cauchy refuses a patch at load: it runs apart
    if draw(st.booleans()):
        doc["geometry"]["patch"] = [f"x{i + 1} + 0.1*x{(i + 1) % n + 1}^2" for i in range(n)]
    if draw(st.booleans()):
        fields = doc["stress"]["raw"]["x0"] + doc["velocity"]["u"]
        for k in range(len(fields)):
            fields[k] = draw(st.sampled_from(EXPRESSIONS)).format(n=draw(st.integers(1, n)))
        d = len(doc["velocity"]["u"])
        doc["stress"]["raw"]["x0"], doc["velocity"]["u"] = fields[:d], fields[d:]
    return doc


def _face_reads(scenario, rule):
    """Each face's terms and edge pieces as ``integrate`` returns them to
    ``edge_assembly``, the assembly's terms, balance1's face integrals and
    cauchy's gaps, every value as its bits, in the order each is made."""
    passes = {}
    real = balance.integrate

    def spy(forms, region, rule, members=None, edge_form=None):
        results = real(forms, region, rule, members, edge_form)
        for member, values in zip(members, results):
            passes[member.label] = [v.hex() for v in values]
        return results

    stress, velocity = scenario.nh_stress, scenario.velocity
    sigma_div_u = traction_action(traction_projection(nh_divergence(stress)), velocity)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(balance, "integrate", spy)
        terms = edge_assembly(nh_traction(stress), velocity, scenario.body, None, rule,
                              boundary_form=sigma_div_u)
    sigma_w = traction_action(traction_projection(scenario.stress1), velocity)
    balance1 = geometry.integrate_boundary([sigma_w], scenario.body, rule)
    gaps = scenarios._run_cauchy(scenario)[0]
    return (list(passes.items()), [[(k, v.hex()) for k, v in group.items()] for group in terms],
            [[v.hex() for v in values] for values in balance1],
            [(k, v.hex()) for k, v in gaps.items()])


@settings(max_examples=60, deadline=None)
@given(doc=face_documents())
def test_two_faces_in_one_pass_keep_the_bits_of_a_pass_each(doc):
    scenario = load_scenario(doc)
    rule = QuadratureRule(scenario.quad_order)
    shared = _face_reads(scenario, rule)
    with pytest.MonkeyPatch.context() as patch:
        read_faces_alone(patch)
        alone = _face_reads(scenario, rule)
    assert shared == alone
    # The shared route pairs the faces of every axis.
    groups = geometry.face_groups(scenario.body)
    assert [len(members) for _, members in groups] == [2] * scenario.body.dim
