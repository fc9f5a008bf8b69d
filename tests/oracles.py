"""Second routes that the tests hold the library against.

Each reaches a quantity the library computes by another path: numpy dot
products of the blocks in place of the ``pair`` forms (``stress_action``,
``nh_action``), per-face orientation records in place of the assembly's edge
keys (``edges``), the face pairing Z(j1 u) that the surface divergence closes
against (``face_jet_pairing``), and a composed field in place of the chain
rule (``transformed_velocity_field``), and elimination over whole rows in
place of the solver that updates live columns only
(``solve_linear_series_full_rows``), and one series per arithmetic step,
each product a walk over every pair of keys, in place of the order-0 value
path of monomial leaves and products (``monomial_series_route``,
``series_product``).  ``form_from_components`` builds test forms from one
field per index tuple.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from jetstress.bundles import IteratedJetValue
from jetstress.covariance import FrameChange
from jetstress.fields import JetValue, SmoothField, TensorField, pair
from jetstress.geometry import Body, Box, BoxFace, FormField, FormValue, face_label
from jetstress.nonholonomic import NonHolonomicStress
from jetstress.stress import VariationalStress1
from jetstress.surface import RestrictedSurfaceStress, _pivot_row, face_velocity
from jetstress.taylor import TruncatedSeries, reciprocal_series


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
    above order 0, with the series' own zero test (and batch split)."""
    out: Dict[Tuple[int, ...], object] = {}
    for ka, va in a.coeffs.items():
        for kb, vb in b.coeffs.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            if sum(key) <= a.order:
                out[key] = out.get(key, 0.0) + va * vb
    return TruncatedSeries._trusted(a.dim, a.order, out, a.batch or b.batch)


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


def solve_linear_series_full_rows(
    matrix: List[List[TruncatedSeries]], rhs: List[List[TruncatedSeries]]
) -> List[List[TruncatedSeries]]:
    """Gauss-Jordan elimination that updates whole rows of the matrix.

    It also computes the eliminated columns, 1 and 0 up to roundoff, which no
    later step reads; over a batch of nodes that roundoff can be exactly zero
    at some nodes only and split the batch.
    """
    size = len(matrix)
    m = [row[:] for row in matrix]
    r = [row[:] for row in rhs]
    for col in range(size):
        piv = _pivot_row([abs(m[k][col].value) for k in range(col, size)]) + col
        if np.any(abs(m[piv][col].value) < 1e-13):
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
    inverse = change.transition.inverse
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


def edges(body: Body) -> List[Edge]:
    """All pairwise intersections of the faces of a box body, with per-face signs."""
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
            face_bf = BoxFace(box, ax_face, side_face)
            p = [a for a in range(n) if a != ax_face].index(ax_other)
            signs[face_label(ax_face, side_face)] = face_bf.sign * BoxFace(
                face_bf.param_box, p, side_other).sign
        labels = (face_label(axis_i, side_i), face_label(axis_j, side_j))
        if n == 2:
            corner = [box.upper[a] if side else box.lower[a]
                      for a, side in sorted({axis_i: side_i, axis_j: side_j}.items())]
            chart_pt = body.chart_map().values_at(corner)
            out.append(Edge(labels, None, None, tuple(chart_pt), signs))
            continue
        # Pin axis_i, then axis_j inside the face: the remaining axes keep their order.
        outer = BoxFace(box, axis_i, side_i)
        inner = BoxFace(outer.param_box, axis_j - 1, side_j)
        mapping = body.chart_map().compose(outer.insertion().compose(inner.insertion()))
        out.append(Edge(labels, inner.param_box, mapping, None, signs))
    return out
