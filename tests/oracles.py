"""Second routes that the tests hold the library against.

Each reaches a quantity the library computes by another path: numpy dot
products of the blocks in place of the ``pair`` forms (``stress_action``,
``nh_action``), per-face orientation records from a sign rule of their own
(``facet_sign``) in place of the assembly's edge keys (``edges``), the
face pairing Z(j1 u) that the surface divergence closes against
(``face_jet_pairing``), and a composed field in place of the chain
rule (``transformed_velocity_field``), and elimination over whole rows in
place of the solver that updates live columns only
(``solve_linear_series_full_rows``), and one series per arithmetic step,
each product a walk over every pair of keys, in place of the order-0 value
path of monomial leaves and products (``monomial_series_route``,
``series_product``, read through ``series_route_field``), and the sum of a
monomial table by series arithmetic, a new series per step, in place of
its product plan (``polynomial_dict_walk``), with its order-0 value on the
constant terms of the coordinate series in place of the value route
(``polynomial_value``), and the expression tree walked node by node, one
series per node, in place of the closures ``parse_expression`` compiles
(``_evaluate``), and the general pullback, a composition with the map
times its Jacobian minors, in place of the key selection through a box
face's insertion (``pullback_by_composition``), and one ``det`` per minor
of a covector's pullback at one sample in place of the covariance laws'
stacked minors (``pullback_form_value``), and each face's edge pieces
and face terms read in passes of their own, from fields built per term, in
place of the face pass (``edge_assembly_by_piece``), and every face read
in a pass of its own, through its own fields, in place of the pass the two
faces of an axis share (``faces_alone``, which ``read_faces_alone`` puts in
place of ``face_groups``).
``weighted_sum`` adds a quadrature sum in a Python loop, in place of
``geometry._node_sum``'s ``np.add.accumulate``.
``form_from_components`` builds test forms from one field per index tuple.
``unit_box``, ``zero_jet``, ``chart_map``, ``chart_point``,
``coordinate_field`` and ``from_polynomials`` build and read the plain
objects that only the tests need: the unit box, the zero jet, a body's
chart map, a face's chart point, the chart's coordinates as a field, and a
field of monomial tables.
``iterated_jet_at`` reads a section's first jet point by point, in place of
``holonomy_class``'s one ``jets_on`` pass per block; ``include_holonomic``,
``symmetrize_iterated``, ``restrict_to_second_order``, ``annihilator_series``,
``validate_transversal`` and ``max_abs_diff`` are the references only tests use.
``pair_table`` and ``signed_rows`` build the index tables of ``pair`` and
``TensorField.signed`` afresh on every call, from ``itertools.product`` and
numpy's transpose of the flat indices, in place of the tables the library
builds once per key.

The law pins (``transform_jet2``, ``transform_stress1``,
``transform_stress2``, ``predicted_contraction_defect``) read one frame
change at one point through ``FrameChange.at_points`` and apply the library's
transformation laws to it, so the tests can pin each law by hand values.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from jetstress import balance, geometry, scenarios
from jetstress.bundles import JetSectionField
from jetstress.covariance import (
    FrameChange,
    _jet_law,
    _primed_blocks,
    _stress_law,
    _top_gradient_terms,
)
from jetstress.fields import (
    JetValue,
    SmoothField,
    TensorField,
    coordinate_series,
    jet_extension,
    monomial_map,
    on_nodes,
    pair,
)
from jetstress.geometry import (
    Body,
    Box,
    FacePatch,
    FormField,
    FormValue,
    Insertion,
    QuadratureRule,
    boundary_faces,
    face_boundary_pieces,
    face_label,
    increasing_tuples,
    series_det,
)
from jetstress.nonholonomic import NonHolonomicStress, VariationalStress2
from jetstress.stress import VariationalStress1, traction_action
from jetstress.surface import (
    RestrictedSurfaceStress,
    TransversalField,
    _frame_series,
    _solve_linear_series,
    face_velocity,
    transversal_decomposition,
)
from jetstress.exprs import FUNCTIONS, ExpressionError
from jetstress.taylor import (
    Coordinates,
    TruncatedSeries,
    integer_power_value,
    reciprocal_series,
)


def unit_box(dim: int) -> Box:
    """The box [0, 1]^dim."""
    return Box((0.0,) * dim, (1.0,) * dim)


def zero_jet(dim: int, fiber_dim: int, order: int) -> JetValue:
    """The jet whose arrays are all zero, up to ``order``."""
    arrays = tuple(np.zeros((fiber_dim,) + (dim,) * p) for p in range(order + 1))
    return JetValue(dim, fiber_dim, order, arrays)


def chart_map(body: Body) -> SmoothField:
    """The body's patch map, or the chart's coordinates when it has none."""
    return body.patch if body.patch is not None else coordinate_field(body.dim)


def coordinate_field(dim: int) -> SmoothField:
    """The chart's coordinate functions as a field."""
    return SmoothField(dim, dim, lambda point, order: list(coordinate_series(point, order).x))


def from_polynomials(dim: int, components) -> SmoothField:
    """A field whose components are monomial tables [(exponents, coefficient), ...]."""
    return SmoothField.from_series_maps(dim, [
        monomial_map([(tuple(exps), float(coef)) for exps, coef in comp])
        for comp in components
    ])


def chart_point(face: FacePatch, param_point: Sequence[float]) -> Tuple[float, ...]:
    """A face's parameter point in the chart; a 0-dimensional face's own point."""
    if face.param_box is None:
        return face.point
    return tuple(face.to_chart.values_at(param_point))


def form_from_components(dim: int, degree: int, components) -> FormField:
    """A form field from one coefficient field per increasing index tuple."""
    tuples = sorted(components)
    fields = [components[t] for t in tuples]

    def evaluator(point, order):
        return [s for f in fields for s in f.series_at(point, order)]

    ncomp = sum(f.ncomp for f in fields)
    return FormField(dim, degree, tuples, SmoothField(dim, ncomp, evaluator))


def series_product(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """``a * b`` by the walk over every pair of keys that the product takes
    above order 0."""
    out: Dict[Tuple[int, ...], object] = {}
    for ka, va in a.coeffs.items():
        for kb, vb in b.coeffs.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            if sum(key) <= a.order:
                out[key] = out.get(key, 0.0) + va * vb
    return TruncatedSeries._trusted(a.dim, a.order, out)


def series_power(base: TruncatedSeries, exponent: int) -> TruncatedSeries:
    """``base ** exponent``, exponent >= 1, by square-and-multiply on ``series_product``."""
    result = None
    while True:
        if exponent & 1:
            result = base if result is None else series_product(result, base)
        exponent >>= 1
        if not exponent:
            return result
        base = series_product(base, base)


def monomial_series_route(table):
    """A monomial table evaluated one series per step at every order: each
    power computed once per call, each monomial ``power * coef`` times its
    other powers, the monomials summed in table order."""
    terms = [(float(coef), [(axis, e) for axis, e in enumerate(exps) if e]) for exps, coef in table]

    def evaluate(variables: Sequence[TruncatedSeries]) -> TruncatedSeries:
        dim, order = variables[0].dim, variables[0].order
        powers: Dict[Tuple[int, int], TruncatedSeries] = {}

        def power(axis, e):
            if (axis, e) not in powers:
                powers[axis, e] = series_power(variables[axis], e)
            return powers[axis, e]

        total = TruncatedSeries.zero(dim, order)
        for coef, factors in terms:
            if not factors:
                total = total + TruncatedSeries.constant(dim, order, coef)
                continue
            term = power(*factors[0]) * coef
            for axis, e in factors[1:]:
                term = series_product(term, power(axis, e))
            total = total + term
        return total

    return evaluate


def polynomial_dict_walk(coordinates: Coordinates, terms) -> TruncatedSeries:
    """The sum, in table order, of the monomials ``terms`` = ``[(coefficient,
    [(axis, exponent), ...]), ...]`` (exponents positive), by series
    arithmetic: a monomial starts as ``power * coefficient`` and is multiplied
    by its other powers in order, each product the library's walk over its
    product rows, and added into the total, a new series per step.  The
    route that ``MonomialTable.series``'s product plan must reproduce."""
    first = coordinates.x[0]
    dim, order = first.dim, first.order
    total = TruncatedSeries.zero(dim, order)
    for coef, factors in terms:
        if not factors:
            total = total + TruncatedSeries.constant(dim, order, coef)
            continue
        term = coordinates[factors[0]] * coef
        for factor in factors[1:]:
            term = term * coordinates[factor]
        total = total + term
    return total


def polynomial_value(coordinates: Coordinates, terms) -> TruncatedSeries:
    """:func:`polynomial_dict_walk` at order 0, where every series holds one
    number or none: each step the IEEE operation the series route performs
    on that number, on the values of the powers (a product is ``0.0 + term
    * value``, and the first term enters the sum as ``0.0 + term``).  A
    power that holds no key makes its monomial hold none, which the sum
    skips.  The route that ``MonomialTable.value`` must reproduce."""
    zero = (0,) * len(coordinates.x)
    powers: Dict[Tuple[int, int], object] = {}

    def power(axis, e):
        if (axis, e) not in powers:
            base = coordinates.x[axis].coeffs.get(zero)
            powers[axis, e] = None if base is None else integer_power_value(base, e)
        return powers[axis, e]

    total = None
    for coef, factors in terms:
        if factors:
            term = power(*factors[0])
            if term is not None:
                term = term * coef
            for factor in factors[1:]:
                value = power(*factor)
                term = None if term is None or value is None else 0.0 + term * value
        else:
            term = coef
        if term is not None:
            total = 0.0 + term if total is None else total + term
    return TruncatedSeries._trusted(len(zero), 0, {} if total is None else {zero: total})


def series_route_field(dim: int, routes) -> SmoothField:
    """A field whose components are functions of the coordinate series, each
    read at every order on the series of one ``coordinate_series`` call."""

    def evaluator(point, order):
        variables = list(coordinate_series(point, order).x)
        return [route(variables) for route in routes]

    return SmoothField(dim, len(routes), evaluator)


# An expression tree walked node by node at every call, each node a series
# and each constant the constant series: the route that ``parse_expression``'s
# compiled closures must reproduce bit for bit, at every order.
def _evaluate(node, variables: Coordinates) -> TruncatedSeries:
    op = node[0]
    if op == "const":
        return TruncatedSeries.constant(variables.x[0].dim, variables.x[0].order, node[1])
    if op == "var":
        return variables.x[node[1]]
    if op == "neg":
        return -_evaluate(node[1], variables)
    if op == "add":
        return _evaluate(node[1], variables) + _evaluate(node[2], variables)
    if op == "sub":
        return _evaluate(node[1], variables) - _evaluate(node[2], variables)
    if op == "mul":
        return _evaluate(node[1], variables) * _evaluate(node[2], variables)
    if op == "div":
        return _evaluate(node[1], variables) / _evaluate(node[2], variables)
    if op == "pow":
        if node[1][0] == "var":
            return variables[node[1][1], node[2]]
        return _evaluate(node[1], variables) ** node[2]
    if op == "call":
        return FUNCTIONS[node[1]](_evaluate(node[2], variables))
    raise ExpressionError(f"unknown node {op!r}")  # pragma: no cover


def solve_linear_series_full_rows(
    matrix: List[List[TruncatedSeries]], rhs: List[List[TruncatedSeries]]
) -> List[List[TruncatedSeries]]:
    """Gauss-Jordan elimination at one point that updates whole rows of the matrix.

    It also computes the eliminated columns, 1 and 0 up to roundoff, which no
    later step reads.  Its pivot is the first row of largest magnitude, as
    ``max`` picks it; every coefficient is one float, so a batch is solved
    one node at a time.
    """
    size = len(matrix)
    m = [row[:] for row in matrix]
    r = [row[:] for row in rhs]
    for col in range(size):
        piv = max(range(col, size), key=lambda k: abs(float(m[k][col].value)))
        if abs(m[piv][col].value) < 1e-13:
            raise ValueError("transversality system is singular at a sample point")
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            r[col], r[piv] = r[piv], r[col]
        inv = reciprocal_series(m[col][col])
        m[col] = [e * inv for e in m[col]]
        r[col] = [e * inv for e in r[col]]
        for k in range(size):
            if k == col or not m[k][col].coeffs:
                continue
            factor = m[k][col]
            m[k] = [e - factor * p for e, p in zip(m[k], m[col])]
            r[k] = [e - factor * p for e, p in zip(r[k], r[col])]
    return r


def stress_action(stress: VariationalStress1, jet: JetValue, point: Sequence[float]) -> FormValue:
    """Pointwise power density of an order-1 stress against an order-1 jet."""
    coeff = (np.sum(stress.s0.at(point) * jet.array(0))
             + np.sum(stress.s1.at(point) * jet.array(1)))
    return FormValue.volume(stress.dim, float(coeff))


def nh_action(
    stress: NonHolonomicStress, value: IteratedJetValue, point: Sequence[float]
) -> FormValue:
    """Pointwise density of a four-block stress against an iterated jet."""
    blocks = (stress.x0, stress.x1, stress.x2, stress.x3)
    args = (value.b0, value.b1, value.b2, value.b3)
    coeff = sum(np.sum(block.at(point) * arg) for block, arg in zip(blocks, args))
    return FormValue.volume(stress.dim, float(coeff))


# The first jet of a first-jet section at one point: b0 (d,) values, b1 (d, n)
# first-jet slots, b2 (d, n) derivatives of b0, b3 (d, n, n) derivatives of b1.
IteratedJetValue = namedtuple("IteratedJetValue", "b0 b1 b2 b3")


def iterated_jet_at(section: JetSectionField, point: Sequence[float]) -> IteratedJetValue:
    """The first jet of a section at one point, one ``jet_extension`` per block."""
    n, d = section.dim, section.fiber_dim
    jet0 = jet_extension(section.a0.field, point, 1)
    jet1 = jet_extension(section.a1.field, point, 1)
    return IteratedJetValue(jet0.array(0), jet1.array(0).reshape(d, n), jet0.array(1),
                            jet1.array(1).reshape(d, n, n))


def include_holonomic(jet: JetValue) -> IteratedJetValue:
    """Embed an order-2 jet as an iterated jet: duplicate the first-order slot."""
    return IteratedJetValue(jet.array(0), jet.array(1), jet.array(1), jet.array(2))


def symmetrize_iterated(b3: np.ndarray) -> np.ndarray:
    """Symmetrize the trailing two axes of a (d, n, n) block."""
    return 0.5 * (b3 + np.transpose(b3, (0, 2, 1)))


def restrict_to_second_order(stress: NonHolonomicStress) -> VariationalStress2:
    """Collapse a four-block stress to the symmetric stress acting on
    holonomic arguments: (x0, x1 + x2, the symmetric part of x3)."""
    x3 = stress.x3
    s2 = TensorField(x3.field + x3.signed(None, (0, 2, 1)).field, x3.shape).scale(0.5)
    return VariationalStress2(
        stress.x0, TensorField(stress.x1.field + stress.x2.field, stress.x1.shape), s2)


def annihilator_series(
    transversal: TransversalField, point: Sequence[float], order: int
) -> List[TruncatedSeries]:
    """Components of the one-form with phi(tangents) = 0, phi(n) = 1."""
    face = transversal.face
    n = face.to_chart.ncomp
    rhs = [[TruncatedSeries.zero(face.param_dim, order)] for _ in range(n)]
    rhs[-1][0] = TruncatedSeries.constant(face.param_dim, order, 1.0)
    # Unknown phi enters through M[k][i] phi_i with M rows = tangents, n.
    sol = _solve_linear_series(_frame_series(face, transversal.n_field, point, order), rhs)
    return [row[0] for row in sol]


def validate_transversal(
    transversal: TransversalField, points: Sequence[Sequence[float]], tol: float = 1e-12
) -> float:
    """Largest defect of phi(tangent) = 0 and phi(n) = 1 over sample points;
    a NaN defect is kept, as numpy's max keeps it, and fails."""
    defects = []
    for y in points:
        phi = [s.value for s in annihilator_series(transversal, y, 0)]
        frame = _frame_series(transversal.face, transversal.n_field, y, 0)
        defects += [abs(np.dot(phi, [s.value for s in vector]) - target)
                    for vector, target in zip(frame, [0.0] * (len(frame) - 1) + [1.0])]
    worst = float(np.max(defects, initial=0.0))
    if not worst <= tol:
        raise ValueError(f"transversal field defect {worst:.2e} exceeds {tol:.1e}")
    return worst


def max_abs_diff(a: TruncatedSeries, b: TruncatedSeries) -> float:
    """The largest |difference| of a coefficient of two series, 0.0 for none;
    NaN if any is NaN (numpy's max keeps it, where Python's drops a later one)."""
    a._check_compatible(b)
    keys = set(a.coeffs) | set(b.coeffs)
    return float(np.max([abs(a.coefficient(k) - b.coefficient(k)) for k in keys], initial=0.0))


def face_jet_pairing(restricted: RestrictedSurfaceStress, velocity: TensorField) -> FormField:
    """The face-volume form Z(j1 u): values and ambient derivatives of u enter."""
    u = face_velocity(velocity, restricted.face)
    du = face_velocity(velocity.gradient(), restricted.face)
    return FormField.volume(pair([(restricted.z0, u), (restricted.z1, du)]).field)


def transformed_velocity_field(velocity: TensorField, change: FrameChange) -> TensorField:
    """The same geometric velocity expressed over the primed chart.

    Composes the unprimed field with the inverse transition and applies the
    frame change; jets of the result are the oracle for the chain-rule path.
    """
    inverse = change.inverse
    u = velocity.compose(inverse)
    if change.frame is None:
        return u
    # Entry [alpha, beta] of the transposed frame multiplies u[alpha] into beta.
    return pair([(change.frame.compose(inverse).signed(None, (1, 0)), u)])


@dataclass(frozen=True)
class Edge:
    """Shared boundary of two faces; orientation is recorded per incident face.

    ``face_signs[label]`` is the total factor (face orientation times the
    orientation the face induces on this edge) multiplying an integral over
    the canonical edge parameters, which keep the remaining axes in order.
    """

    labels: Tuple[str, str]
    param_box: Optional[Box]
    to_chart: Optional[SmoothField]
    point: Optional[Tuple[float, ...]]
    face_signs: Dict[str, float]


def facet_sign(axis: int, side: int) -> float:
    """The orientation Stokes induces on the facet of a box that pins
    ``axis`` on ``side``: (-1)**axis on the upper side, its negative on the
    lower."""
    return (-1.0) ** axis * (1.0 if side else -1.0)


def edges(body: Body) -> List[Edge]:
    """All pairwise intersections of the faces of a box body, with per-face
    signs: an edge's sign on a face is the face's sign times the sign of the
    edge as a facet of the face's parameter box."""
    n = body.dim
    box = body.box
    out = []
    for (axis_i, axis_j), side_i, side_j in itertools.product(
        itertools.combinations(range(n), 2), (0, 1), (0, 1)
    ):
        signs: Dict[str, float] = {}
        for (ax_face, side_face), (ax_other, side_other) in (
            ((axis_i, side_i), (axis_j, side_j)),
            ((axis_j, side_j), (axis_i, side_i)),
        ):
            # The edge is a facet of the face's parameter box.
            p = [a for a in range(n) if a != ax_face].index(ax_other)
            signs[face_label(ax_face, side_face)] = (
                facet_sign(ax_face, side_face) * facet_sign(p, side_other))
        labels = (face_label(axis_i, side_i), face_label(axis_j, side_j))
        if n == 2:
            corner = [box.upper[a] if side else box.lower[a]
                      for a, side in sorted({axis_i: side_i, axis_j: side_j}.items())]
            chart_pt = chart_map(body).values_at(corner)
            out.append(Edge(labels, None, None, tuple(chart_pt), signs))
            continue
        # Pin axis_i, then axis_j inside the face: the remaining axes keep their order.
        face_box = box.drop_axis(axis_i)
        inner = Insertion(face_box, {axis_j - 1: side_j})
        mapping = chart_map(body).compose(Insertion(box, {axis_i: side_i}).compose(inner))
        out.append(Edge(labels, face_box.drop_axis(axis_j - 1), mapping, None, signs))
    return out


# -- law pins -------------------------------------------------------------------


def transform_jet2(jet: JetValue, change: FrameChange, point: Sequence[float]) -> JetValue:
    """Second-order jet components in the primed chart, by the chain rule.

    The input jet lives at the unprimed point; the output is the jet of the
    transformed section at the image point.
    """
    if jet.order < 2:
        raise ValueError("second-order transformation needs an order-2 jet")
    if jet.dim != change.dim or jet.fiber_dim != change.fiber_dim:
        raise ValueError("jet shape does not match the frame change")
    return _jet_law(change.at_points([point])[0], jet)


def transform_stress2(
    primed: VariationalStress2, change: FrameChange, point: Sequence[float]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unprimed second-order stress components at a point, from primed fields
    read at the image of ``point``."""
    pc = change.at_points([point])[0]
    blocks = _primed_blocks(primed, [pc.xp])[0]
    return _stress_law(pc, blocks, _top_gradient_terms(pc, blocks[2]))


def transform_stress1(
    primed: VariationalStress1, change: FrameChange, point: Sequence[float]
) -> Tuple[np.ndarray, np.ndarray]:
    """Unprimed first-order stress components at a point, from primed fields."""
    pc = change.at_points([point])[0]
    return _stress_law(pc, _primed_blocks(primed, [pc.xp])[0])


def predicted_contraction_defect(
    primed: VariationalStress2, change: FrameChange, point: Sequence[float]
) -> np.ndarray:
    """The extra term the gradient-block law deposits on the scalar block."""
    pc = change.at_points([point])[0]
    t1, t2, t3 = _top_gradient_terms(pc, primed.s2.at(pc.xp))
    return pc.det * (t1 + t2 + t3)


def pullback_form_value(form: FormValue, jacobian: np.ndarray) -> FormValue:
    """Pull a p-covector back through a linear map with the given Jacobian,
    one ``np.ix_`` minor and one ``det`` per pair of keys.

    ``jacobian[i][a]`` is the derivative of target coordinate ``i`` with
    respect to source coordinate ``a``; the result lives on the source.
    """
    target_dim, source_dim = jacobian.shape
    if target_dim != form.dim:
        raise ValueError("jacobian rows must match the form dimension")
    degree = form.degree
    out: Dict[Tuple[int, ...], float] = {}
    for key_src in increasing_tuples(source_dim, degree):
        total = 0.0
        for key_tgt, val in form.coeffs.items():
            sub = jacobian[np.ix_(key_tgt, key_src)]
            total += val * (np.linalg.det(sub) if degree else 1.0)
        out[key_src] = total
    return FormValue(source_dim, degree, out)


# -- the general pullback and the per-piece edge assembly -------------------------


def pullback_by_composition(
    coeffs: SmoothField,
    mapping: SmoothField,
    target_tuples: Sequence[Tuple[int, ...]],
    source_tuples: Sequence[Tuple[int, ...]],
) -> SmoothField:
    """Groups of form coefficients pulled back along any smooth map: each
    coefficient composed with the map's offsets, times the Jacobian minor of
    its target tuple, summed over the target tuples."""
    ntgt, nsrc = len(target_tuples), len(source_tuples)
    groups = coeffs.ncomp // ntgt
    src_dim = mapping.dim

    def evaluator(point, order):
        mseries = mapping.series_on(point, order + 1)
        center = tuple(s.value for s in mseries)
        offsets = [s.offset().truncate(order) for s in mseries]
        jac = [[m.partial(a) for a in range(src_dim)] for m in mseries]
        minors = [
            [series_det([[jac[i][a] for a in ks] for i in kt]) if ks else None
             for kt in target_tuples]
            for ks in source_tuples
        ]
        composed = [s.compose(offsets) for s in coeffs.series_on(center, order)]
        out = []
        for g in range(groups):
            for s_minors in minors:
                total = TruncatedSeries.zero(src_dim, order)
                for t, minor in enumerate(s_minors):
                    c = composed[g * ntgt + t]
                    total = total + (c if minor is None else c * minor)
                out.append(total)
        return out

    return SmoothField(src_dim, groups * nsrc, evaluator)


def _pulled_back(form: FormField, mapping: SmoothField) -> FormField:
    tuples = list(itertools.combinations(range(mapping.dim), form.degree))
    coeffs = pullback_by_composition(form.coeffs, mapping, form.tuples, tuples)
    return FormField(mapping.dim, form.degree, tuples, coeffs)


def weighted_sum(weights, values) -> float:
    """The sum of ``weight * value`` as a loop adds it, in node order, from
    0.0: ``geometry._node_sum`` without numpy."""
    total = 0.0
    for w, value in zip(weights, values):
        total += w * value
    return total


def _integral(form: FormField, box: Box, rule: QuadratureRule, sign: float) -> float:
    """One top-degree form over a box, in its own pass, summed in node order."""
    full = tuple(range(box.dim))
    nodes, weights = rule.nodes_weights(box)
    values = on_nodes(lambda point: form.value_at(point).coefficient(full), nodes)
    return sign * weighted_sum(weights.tolist(), values.tolist())


def edge_assembly_by_piece(
    surface_stress,
    velocity: TensorField,
    body: Body,
    transversals: Optional[Dict[str, TransversalField]],
    rule: QuadratureRule,
    boundary_form: FormField,
) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, float]]:
    """``edge_assembly`` with a boundary form, every term from fields built
    for it alone and integrated in a pass of its own: each edge piece pulls
    the tangent-traction action back through its insertion by composition,
    and each face term pulls back through the face map by composition."""
    n = body.dim
    edge_terms: Dict[str, float] = {}
    face_terms: Dict[str, float] = {}
    boundary_terms: Dict[str, float] = {}
    for face in boundary_faces(body):
        if transversals is not None and face.label in transversals:
            transversal = transversals[face.label]
        else:
            transversal = TransversalField.coordinate(face)
        omitting = [tuple(i for i in range(n) if i != j) for j in range(n)]
        volume = [tuple(range(n - 1))]

        def restrict(y: TensorField, shape) -> TensorField:
            return TensorField(
                pullback_by_composition(y.field, face.to_chart, omitting, volume), shape)

        def split():
            restricted = RestrictedSurfaceStress(
                face, restrict(surface_stress.y0, (surface_stress.fiber_dim,)),
                restrict(surface_stress.y1, (surface_stress.fiber_dim, n)))
            return (restricted,) + transversal_decomposition(restricted, transversal)

        _, tangent, _ = split()
        tau_u = traction_action(tangent.signed(1), face_velocity(velocity, face))
        face_axes = [a for a in range(n) if a != face.axis]
        for piece in face_boundary_pieces(face):
            if piece.param_box is None:
                value = piece.sign * tau_u.value_at(piece.point).coefficient(())
            else:
                value = _integral(_pulled_back(tau_u, piece.to_chart), piece.param_box, rule,
                                  piece.sign)
            other = face_label(face_axes[piece.axis], piece.side)
            key = "|".join(sorted([face.label, other]))
            edge_terms[key] = edge_terms.get(key, 0.0) + face.sign * value
        restricted, tangent, normal_coeff = split()
        u = face_velocity(velocity, face)
        du = face_velocity(velocity.gradient(), face)
        transversal_du = pair([(du.signed(None, (1, 0)), transversal.n_field)])
        density = pair([
            (tangent.divergence(), u),
            (restricted.z0.scale(-1.0), u),
            (normal_coeff.scale(-1.0), transversal_du),
        ])
        face_terms[face.label] = _integral(
            FormField.volume(density.field), face.param_box, rule, face.sign)
        boundary_terms[face.label] = _integral(
            _pulled_back(boundary_form, face.to_chart), face.param_box, rule, face.sign)
    return edge_terms, face_terms, boundary_terms


def surface_force(traction: TensorField, face: FacePatch, velocity: TensorField) -> FormField:
    """The traction action pulled onto a face: the force density ``cauchy``
    reads, built for one face alone."""
    return traction_action(traction, velocity).pullback(face.to_chart)


def faces_alone(body: Body) -> List[Tuple[FacePatch, List[FacePatch]]]:
    """``geometry.face_groups`` with every face a group of its own, read
    through itself: each face in the pass it had before faces were paired."""
    return [(face, [face]) for face in boundary_faces(body)]


def read_faces_alone(monkeypatch) -> None:
    """Put :func:`faces_alone` in place of ``face_groups`` wherever the
    library groups faces: ``balance2``, ``balance1`` and ``cauchy``."""
    for module in (geometry, balance, scenarios):
        monkeypatch.setattr(module, "face_groups", faces_alone)


def pair_table(n: int, out_shape: Tuple[int, ...], layout) -> Tuple:
    """``fields._pair_table`` built afresh: per slot its lift, the reads in
    order of first use (C before A, output entry by output entry), and per
    output entry the read positions of each term, its terms ordered by the
    paired index (a prefix before its extensions) and then by block."""
    size = math.prod(out_shape)
    lift: Dict[int, int] = {}
    entries = []
    for b, (a_shape, k, cs, as_) in enumerate(layout):
        lift.setdefault(cs, 0)
        lift[as_] = max(lift.get(as_, 0), k)
        for flat, idx in enumerate(itertools.product(*map(range, a_shape + (n,) * k))):
            a_read = (as_,) + divmod(flat, n) if k else (as_, flat, None)
            entries.append((idx, b, cs, flat, a_read))
    entries.sort(key=lambda entry: entry[:2])
    reads: List[Tuple] = []

    def position(read: Tuple) -> int:
        if read not in reads:
            reads.append(read)
        return reads.index(read)

    table = tuple(tuple((position((cs, flat * size + o, None)), position(a_read))
                        for _, _, cs, flat, a_read in entries)
                  for o in range(size))
    return tuple(lift[s] for s in range(len(lift))), tuple(reads), table


def signed_rows(shape: Tuple[int, ...], axis: Optional[int], perm: Tuple[int, ...]) -> Tuple:
    """``fields._signed_rows`` built afresh: the permuted shape and, per
    entry of it in row-major order, the flat source index numpy's transpose
    puts there, with the factor -1.0 where the index on ``axis`` is odd."""
    sources = np.arange(math.prod(shape)).reshape(shape).transpose(perm)
    rows = tuple(((int(sources[idx]), None, -1.0 if axis is not None and idx[axis] % 2 else None),)
                 for idx in itertools.product(*map(range, sources.shape)))
    return sources.shape, rows
