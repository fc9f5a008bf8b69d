"""Key selection through box-face insertions, and the face pass of ``balance2``.

``geometry.pullback_coefficients`` pulls back through a box face's
insertion by selecting keys; ``oracles.pullback_by_composition`` is the
general route (composition with the map times its Jacobian minors), and the
two must agree in every bit and in key order.  ``balance.edge_assembly``
builds each face's fields once and reads a box face and its edge pieces in
one pass; ``oracles.edge_assembly_by_piece`` builds the fields of each term
apart and reads each term in its own pass, and every term must keep its bits.
The two faces of an axis share their fields and one pass, whatever their
transversals; read through ``oracles.faces_alone``, each face has a pass of
its own, and every face term, edge piece, Cauchy gap and report must keep
its bits and key order.  Each group reads its chart fields at its own
points: each chart leaf once per order at the group's own rows, a field of
one face at both sides' rows, and the body pass each stress block once.
"""

import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetstress import balance, fields, geometry, scenarios, surface
from jetstress.balance import edge_assembly
from jetstress.cli import main
from jetstress.exprs import parse_expression
from jetstress.fields import SmoothField, monomial_map
from jetstress.geometry import (
    Box,
    Insertion,
    QuadratureRule,
    boundary_faces,
    increasing_tuples,
    pullback_coefficients,
)
from jetstress.nonholonomic import nh_divergence, nh_traction
from jetstress.scenarios import generate_scenario, load_scenario
from jetstress.stress import traction_action, traction_projection

from oracles import (
    edge_assembly_by_piece,
    pullback_by_composition,
    read_faces_alone,
    unit_box,
)
from test_transversal_solve import _run, curved_cube, mixed_layout_document

REPO = Path(__file__).resolve().parents[1]
SCENARIOS = REPO / "scenarios"

sys.path.insert(0, str(REPO / "perfbench"))
import workloads  # noqa: E402  (perfbench/ is not a package)

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
    insertion = Insertion(box, {axis: side})
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
    face = boundary_faces(geometry.Body(unit_box(2), patch))[1]
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
    """Each face's terms and edge pieces as ``integrate`` over its groups
    returns them to ``edge_assembly``, the assembly's terms, balance1's face
    integrals and cauchy's gaps, every value as its bits, in the order each
    is made."""
    passes = {}
    real = balance.integrate

    def spy(forms, region, *args):
        results = real(forms, region, *args)
        if isinstance(region, list):
            members = [member for _, group in region for member in group]
            for member, values in zip(members, results):
                passes[member.label] = [v.hex() for v in values]
        return results

    stress, velocity = scenario.nh_stress, scenario.velocity
    sigma_div_u = traction_action(traction_projection(nh_divergence(stress)), velocity)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(balance, "integrate", spy)
        terms = edge_assembly(nh_traction(stress), velocity, scenario.body, scenario.transversals,
                              rule, boundary_form=sigma_div_u)
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


# -- the chart reads of each group ---------------------------------------------------


def _leaf_reads(scenario, patch):
    """Each evaluation of a chart leaf of ``scenario`` (every block of its
    stress and its velocity) over a batch: (leaf, order, node count)."""
    reads = []
    blocks = [(name, getattr(scenario.nh_stress, name)) for name, _ in scenario.nh_stress.LAYOUT]
    for name, tensor in blocks + [("u", scenario.velocity)]:
        leaf = tensor.field
        real = leaf._evaluator

        def evaluator(point, order, _real=real, _name=name):
            if np.ndim(point[0]):
                reads.append((_name, order, np.size(point[0])))
            return _real(point, order)

        patch.setattr(leaf, "_evaluator", evaluator)
    return reads


@pytest.mark.parametrize("patched", [False, True])
def test_each_group_reads_each_chart_leaf_at_its_own_rows_once_per_order(patched):
    doc = generate_scenario(3, 3, 2, 3)
    if patched:  # the leaves are read at the patch images of the nodes
        doc["geometry"]["chart_box"] = [[-1.0, 2.0]] * 3
        doc["geometry"]["patch"] = [f"x{i + 1} + 0.1*x{(i + 1) % 3 + 1}^2" for i in range(3)]
        doc["checks"] = ["balance2"]  # cauchy refuses a patch at load
    scenario = load_scenario(doc)
    q = scenario.quad_order
    body, group = q ** 3, 2 * (q * q + 4 * q)  # the body's nodes; a pair's nodes and edges
    assert body != group
    with pytest.MonkeyPatch.context() as patch:
        reads = _leaf_reads(scenario, patch)
        scenarios._run_balance2(scenario)
    # The body pass reads each stress block once, at the highest order its
    # forms ask for, and the velocity once per order its jet section reads.
    assert sorted(read for read in reads if read[2] == body) == [
        ("u", 0, body), ("u", 1, body), ("u", 2, body),
        ("x0", 0, body), ("x1", 1, body), ("x2", 1, body), ("x3", 2, body)]
    # Then each of the three pairs reads each leaf at its own rows, once per
    # order its pass asks for.
    faces = [read for read in reads if read[2] != body]
    own = [("u", 0, group), ("u", 1, group), ("x1", 0, group), ("x2", 0, group), ("x3", 1, group)]
    assert [sorted(faces[k:k + 5]) for k in range(0, len(faces), 5)] == [own] * 3


def test_a_field_of_one_face_is_read_at_both_sides_rows(tmp_path, monkeypatch):
    # curved-n2-q8-0 of the benchmark's curved-analytic inputs at seed 3:
    # x1-upper and x2-upper have transversals of their own, and each still
    # pairs with its partner.  x1-upper's vector transversal is an ambient
    # field composed on its face map.  Its split reads it at every row of
    # the x1 pair, q nodes and 2 endpoints per side, x1-lower's rows at
    # x1-upper's geometry, and the per-node pick drops those; q + 2 more rows
    # of array work buy one pass less.
    item = workloads.curved_analytic(3, tmp_path)[0]
    assert item.name == "curved-n2-q8-0"
    reads = []
    real = surface.TransversalField.from_ambient_field.__func__

    def from_ambient_field(cls, face, field):
        evaluate = field.field._evaluator

        def evaluator(point, order):
            if np.ndim(point[0]):
                reads.append((face.label, np.size(point[0])))
            return evaluate(point, order)

        monkeypatch.setattr(field.field, "_evaluator", evaluator)
        return real(cls, face, field)

    monkeypatch.setattr(surface.TransversalField, "from_ambient_field",
                        classmethod(from_ambient_field))
    scenario = load_scenario(json.loads(item.path.read_text(encoding="utf-8")))
    reads.clear()
    scenarios._run_balance2(scenario)
    assert reads and set(reads) == {("x1-upper", 2 * (scenario.quad_order + 2))}


def test_a_domain_error_on_one_face_reads_that_group_alone_and_names_its_face(tmp_path, capsys):
    # The velocity's log meets 0.0 at one node only: the centre of face
    # x3-lower, a node at odd q.  The x3 pair's batch raises there and is
    # read node by node, and its pass names the face of the failing node.
    doc = generate_scenario(3, 3, 1, 3)
    doc["velocity"]["u"] = ["log((x1 - 0.5)^2 + (x2 - 0.5)^2 + x3^2)"]
    doc["geometry"]["quad_order"] = 5
    doc["checks"] = ["balance2"]
    path = tmp_path / "log.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: checks.balance2: x3-lower: log of a series requires a positive constant term\n")


def test_a_mixed_layout_group_reads_alone_and_the_others_keep_the_shared_read(tmp_path):
    batches = []  # each whole batch: its node count and what it raised
    real = fields._evaluate_batch

    def recording(fn, point):
        try:
            values = real(fn, point)
        except Exception as exc:
            batches.append((np.size(point[0]), type(exc).__name__))
            raise
        batches.append((np.size(point[0]), None))
        return values

    doc = mixed_layout_document()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fields, "_evaluate_batch", recording)
        _run(doc, tmp_path)
    # The face passes come last: the x1 pair, which keeps its batch, then the
    # x2 pair, whose x2-lower pivot rows differ in layout, so both faces'
    # rows go node by node (16 rows a pair).
    assert batches[-2:] == [(16, None), (16, "ArithmeticError")]


# -- pairs of faces with transversals of their own -------------------------------------

SETTINGS = {  # a face's transversal setting, for a face of axis x1 of an n-dim body
    "coordinate": lambda n: "coordinate",
    "vector": lambda n: {"vector": ["1"] + [f"0.2*x{(i + 1) % n + 1}" for i in range(1, n)]},
    "metric": lambda n: {"metric": [[f"sqrt(1 + 0.3*x{i + 1}^2)" if i == j else "0"
                                     for j in range(n)] for i in range(n)]},
}


def mixed_pair_document(base, lower, upper):
    """``base`` (a generated n = 2 or n = 3 document, or patched-metric, which
    keeps x2-upper's metric) with the settings ``lower`` and ``upper`` on the
    faces of axis x1."""
    if base == "patched-metric":
        doc = json.loads((SCENARIOS / "patched-metric.json").read_text(encoding="utf-8"))
    else:
        doc = generate_scenario(3, int(base[1]), 1, 3)
        doc["geometry"]["quad_order"] = 4
        doc["checks"] = ["balance2"]
    n = doc["bundle"]["n"]
    doc.setdefault("transversals", {}).update(
        {"x1-lower": SETTINGS[lower](n), "x1-upper": SETTINGS[upper](n)})
    return doc


@pytest.mark.parametrize("base", ["n2", "n3", "patched-metric"])
@pytest.mark.parametrize("lower, upper", itertools.product(SETTINGS, repeat=2))
def test_a_pair_of_any_transversals_keeps_the_report_of_a_pass_per_face_and_per_node(
        monkeypatch, tmp_path, base, lower, upper):
    doc = mixed_pair_document(base, lower, upper)
    report = _run(doc, tmp_path)
    with pytest.MonkeyPatch.context() as patch:
        read_faces_alone(patch)
        assert _run(doc, tmp_path) == report
    monkeypatch.setattr(fields, "BATCH", 1)
    assert _run(doc, tmp_path) == report


def test_a_pair_that_gives_every_row_the_lower_faces_values_changes_the_report(
        monkeypatch, tmp_path):
    # The mutant the test above must catch: a per-node pick that reads the
    # lower face's surface divergence and edge form at every row.
    doc = mixed_pair_document("n3", "coordinate", "vector")
    report = _run(doc, tmp_path)
    monkeypatch.setattr(balance, "per_side", lambda *forms: forms[0])
    assert _run(doc, tmp_path) != report


@pytest.mark.parametrize("label", ["x1-lower", "x1-upper"])
def test_a_transversal_tangent_to_one_face_of_a_pair_exits_2_naming_that_face(
        tmp_path, capsys, label):
    # The other face of the pair reads its own metric transversal and fails
    # nowhere; the pair's batch raises, and its rows go node by node.
    doc = mixed_pair_document("n2", "metric", "metric")
    doc["transversals"][label] = {"vector": ["0", "1"]}  # tangent to both x1 faces
    path = tmp_path / "tangent.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: checks.balance2: {label}: transversality system is singular at a sample point\n")


def test_balance2_reads_each_curved_input_in_one_body_pass_and_one_pass_per_axis(
        tmp_path, monkeypatch):
    passes = []
    real = geometry.on_nodes

    def on_nodes(fn, nodes, width=None):
        passes.append(len(nodes))
        return real(fn, nodes, width)

    monkeypatch.setattr(geometry, "on_nodes", on_nodes)
    runs = 0
    for item in workloads.curved_analytic(3, tmp_path):
        scenario = load_scenario(json.loads(item.path.read_text(encoding="utf-8")))
        if "balance2" in scenario.checks:
            passes.clear()
            scenarios._run_balance2(scenario)
            assert len(passes) == 1 + scenario.body.dim, item.name
            runs += 1
    assert runs == 8
