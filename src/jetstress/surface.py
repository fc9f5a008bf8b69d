"""Face-level stress analysis: restriction, the transversal split, tangent
traction, surface divergence and the edge force of a tangent face stress.

Restricting a boundary-density stress to a face still pairs with ambient
derivative components, so it is not yet a stress over the face.  A
transversal vector field supplies the missing split: solving against the
frame of face tangents and the transversal separates tangential from
transversal content, making the tangent traction and the surface divergence
well defined.  A face stress whose transversal part vanishes is tangent, and
reduces to an order-1 stress over the face (:func:`tangent_edge_force`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .fields import SmoothField, TensorField, jets_on, linear_field, pair
from .geometry import (
    FacePatch,
    FormField,
    QuadratureRule,
    pullback_coefficients,
    series_det,
    tuple_omitting,
)
from .nonholonomic import HyperSurfaceStress
from .stress import VariationalStress1, divergence, traction_projection
from .taylor import TruncatedSeries, power_series, reciprocal_series

__all__ = [
    "TransversalField",
    "RestrictedSurfaceStress",
    "restrict_Y",
    "transversal_decomposition",
    "FaceSplit",
    "face_split",
    "tangent_traction",
    "surface_divergence",
    "tangent_edge_force",
    "face_velocity",
]


def _solve_linear_series(
    matrix: List[List[TruncatedSeries]], rhs: List[List[TruncatedSeries]]
) -> List[List[TruncatedSeries]]:
    """Gauss-Jordan elimination over truncated series, multiple right-hand sides.

    Partial pivoting on the constant terms (Golub & Van Loan, *Matrix
    Computations*, 4th ed., 2013, section 3.4): over a batch each node picks
    its own pivot row (:func:`_swap_per_node`), and a vanishing pivot at any
    node means the transversality system is singular.  Step ``col`` updates
    only the live columns of ``m``, those after ``col``: no later step reads
    an eliminated column (1 or 0 up to roundoff), and every entry that is
    read gets the operations of a full-row update, so it keeps its bits.
    """
    size = len(matrix)
    m = [row[:] for row in matrix]
    r = [row[:] for row in rhs]
    for col in range(size):
        piv = _pivot_row([abs(m[k][col].value) for k in range(col, size)]) + col
        if np.ndim(piv):
            _swap_per_node(m, r, col, piv)
        elif piv != col:
            m[col], m[piv] = m[piv], m[col]
            r[col], r[piv] = r[piv], r[col]
        if np.any(abs(m[col][col].value) < 1e-13):
            raise ValueError("transversality system is singular at a sample point")
        inv = reciprocal_series(m[col][col])
        live = slice(col + 1, size)
        m[col][live] = [e * inv for e in m[col][live]]
        r[col] = [e * inv for e in r[col]]
        for k in range(size):
            if k == col or not m[k][col].coeffs:
                continue
            factor = m[k][col]
            m[k][live] = [e - factor * p for e, p in zip(m[k][live], m[col][live])]
            r[k] = [e - factor * p for e, p in zip(r[k], r[col])]
    return r


def _pivot_row(magnitudes: List):
    """The first row of largest magnitude, as ``max`` picks it: an int, or one
    row per node where the nodes of a batch disagree.  A later row wins only
    where it is strictly larger, so ties and NaN go as they go for ``max``."""
    best, top = 0, magnitudes[0]
    for k, value in enumerate(magnitudes[1:], 1):
        larger = value > top
        if np.ndim(larger):
            best, top = np.where(larger, k, best), np.where(larger, value, top)
        elif larger:
            best, top = k, value
    if np.ndim(best) and np.any(best != best[0]):
        return best
    return int(np.ravel(best)[0])


def _swap_per_node(m: List[List[TruncatedSeries]], r: List[List[TruncatedSeries]], col: int, piv):
    """Swap row ``col`` with row ``piv[i]`` at each node ``i`` in the entries
    read from step ``col`` on.  Each coefficient becomes an ``np.where`` of the
    two rows', which gives every node the bits of its own swap; that needs
    both rows to hold the same keys in the same order in every entry, and
    otherwise an ``ArithmeticError`` sends the batch node by node."""
    live = len(m) - col
    for k in sorted(set(piv.tolist()) - {col}):
        at = piv == k
        top, row = m[col][col:] + r[col], m[k][col:] + r[k]
        if any(list(a.coeffs) != list(b.coeffs) for a, b in zip(top, row)):
            raise ArithmeticError("nodes of a batch pick pivot rows of different layouts")
        top, row = ([_pick(at, a, b) for a, b in zip(top, row)],
                    [_pick(at, b, a) for a, b in zip(top, row)])
        m[col][col:], r[col] = top[:live], top[live:]
        m[k][col:], r[k] = row[:live], row[live:]


def _pick(at, a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """``b`` at the nodes in ``at`` and ``a`` elsewhere, in the keys of both."""
    pairs = zip(a.coeffs.items(), b.coeffs.values())
    return TruncatedSeries._trusted(
        a.dim, a.order, {key: np.where(at, vb, va) for (key, va), vb in pairs})


def _tangent_basis_series(
    face: FacePatch, point: Sequence[float], order: int
) -> List[List[TruncatedSeries]]:
    """Columns of the face Jacobian: tangent vectors as ambient components."""
    if face.to_chart is None:
        raise ValueError("0-dimensional faces have no tangent basis")
    mapping = face.to_chart.series_on(point, order + 1)
    return [[m.partial(a) for m in mapping] for a in range(face.param_dim)]


def _frame_series(
    face: FacePatch, n_field: TensorField, point: Sequence[float], order: int
) -> List[List[TruncatedSeries]]:
    """The face tangents, then the transversal, as ambient component series."""
    return _tangent_basis_series(face, point, order) + [n_field.field.series_on(point, order)]


class TransversalField:
    """A nowhere-tangent vector field along a face.

    ``n_field`` holds ambient vector components over the face parameters.
    With the face tangents it makes the frame that
    :func:`transversal_decomposition` solves against in series arithmetic,
    so both parts are differentiable along the face.
    """

    def __init__(self, face: FacePatch, n_field: TensorField):
        if face.param_box is None:
            raise ValueError("transversal fields need faces of dimension >= 1")
        n = face.to_chart.ncomp
        if n_field.shape != (n,) or n_field.dim != face.param_dim:
            raise ValueError("transversal components must be (n,) over the face parameters")
        self.face = face
        self.n_field = n_field

    @classmethod
    def axis(cls, face: FacePatch, axis: int, sign: float = 1.0) -> "TransversalField":
        """The constant transversal ``sign`` times the basis vector of ``axis``."""
        n = face.to_chart.ncomp
        vec = [sign if a == axis else 0.0 for a in range(n)]
        return cls(face, TensorField(SmoothField.constant(face.param_dim, vec), (n,)))

    @classmethod
    def coordinate(cls, face: FacePatch) -> "TransversalField":
        """Outward coordinate transversal of a box face: on a face of both
        sides of an axis, each node's sign is its own side's (see
        :meth:`jetstress.geometry.FacePatch.pick`)."""
        if face.axis is None:
            raise ValueError("coordinate transversal needs a box face")
        n, q = face.to_chart.ncomp, face.param_dim

        def evaluator(point, order):
            sign = face.pick(-1.0, 1.0)
            return [TruncatedSeries.constant(q, order, sign if a == face.axis else 0.0)
                    for a in range(n)]

        return cls(face, TensorField(SmoothField(q, n, evaluator), (n,)))

    @classmethod
    def from_ambient_field(cls, face: FacePatch, field: TensorField) -> "TransversalField":
        """Compose an ambient vector field onto the face parameters."""
        return cls(face, field.compose(face.to_chart))

    @classmethod
    def metric_normal(cls, face: FacePatch, metric: TensorField) -> "TransversalField":
        """Outward unit normal of the face for a Riemannian metric on the chart."""
        n = face.to_chart.ncomp
        q = face.param_dim
        metric_on_face = metric.compose(face.to_chart)
        facem = face

        def evaluator(point, order):
            tangents = _tangent_basis_series(facem, point, order)
            # Annihilator covector via cofactors of the tangent matrix.
            ann = []
            for i in range(n):
                rows = [[tangents[a][r] for a in range(q)] for r in range(n) if r != i]
                if q == 0:
                    raise ValueError("metric normal undefined for point faces")
                det = series_det(rows)
                ann.append(det * ((-1.0) ** i))
            g = metric_on_face.field.series_on(point, order)
            # Raise the index: solve g v = ann.
            gmat = [[g[i * n + j] for j in range(n)] for i in range(n)]
            v = _solve_linear_series(gmat, [[a] for a in ann])
            raw = [row[0] for row in v]
            norm_sq = None
            for i in range(n):
                term = ann[i] * raw[i]
                norm_sq = term if norm_sq is None else norm_sq + term
            scale = reciprocal_series(power_series(norm_sq, 0.5))
            return [r * scale for r in raw]

        unsigned = TensorField(SmoothField(q, n, evaluator), (n,))
        sign = cls._outward_sign(face, unsigned)
        return cls(face, TensorField(unsigned.field.scale(sign), (n,)))

    @staticmethod
    def _outward_sign(face: FacePatch, candidate: TensorField) -> float:
        if face.axis is None:
            return 1.0
        center = face.param_box.center()
        vec = candidate.at(center)
        outward = 1.0 if face.side else -1.0
        component = vec[face.axis] * outward
        if abs(component) < 1e-13:
            raise ValueError("cannot orient the metric normal on this face")
        return 1.0 if component > 0 else -1.0


class RestrictedSurfaceStress:
    """A boundary stress pulled onto face parameters, still pairing ambient jets.

    ``z0`` (d,) pairs with values, ``z1`` (d, n) with ambient derivative
    components; both are densities on the face volume element.
    """

    __slots__ = ("face", "z0", "z1")

    def __init__(self, face: FacePatch, z0: TensorField, z1: TensorField):
        self.face, self.z0, self.z1 = face, z0, z1

    @property
    def fiber_dim(self) -> int:
        return self.z0.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.z1.shape[1]


def restrict_Y(surface_stress: HyperSurfaceStress, face: FacePatch) -> RestrictedSurfaceStress:
    """Pull each boundary-density basis form back onto the face parameters."""
    if face.param_box is None:
        raise ValueError("cannot restrict to a 0-dimensional face")
    n, d = surface_stress.dim, surface_stress.fiber_dim
    # y[..., j] multiplies the chart basis form omitting axis j.
    omitting = [tuple_omitting(n, j) for j in range(n)]
    volume = [tuple(range(face.param_dim))]

    def restrict(y: TensorField, shape) -> TensorField:
        return TensorField(pullback_coefficients(y.field, face.to_chart, omitting, volume), shape)

    return RestrictedSurfaceStress(
        face, restrict(surface_stress.y0, (d,)), restrict(surface_stress.y1, (d, n))
    )


def transversal_decomposition(
    restricted: RestrictedSurfaceStress, transversal: TransversalField
) -> Tuple[TensorField, TensorField]:
    """Split the derivative slot into face-tangent and transversal parts.

    Returns the tangent components in the face frame, shape (d, n-1), and the
    transversal coefficient, shape (d,): the pairing with the annihilator.
    The original ambient components are recovered as tangent-part times the
    tangent basis plus coefficient times the transversal vector.
    """
    face = restricted.face
    if face is not transversal.face and face.label != transversal.face.label:
        raise ValueError("transversal field belongs to a different face")
    n = restricted.ambient_dim
    d = restricted.fiber_dim
    q = face.param_dim
    z1 = restricted.z1.field

    def solve_components(point, order):
        frame = _frame_series(face, transversal.n_field, point, order)
        # Columns: tangent vectors then the transversal.
        matrix = [[vector[i] for vector in frame] for i in range(n)]
        series = z1.series_on(point, order)
        rhs = [[series[alpha * n + i] for alpha in range(d)] for i in range(n)]
        sol = _solve_linear_series(matrix, rhs)
        return [sol[a][alpha] for alpha in range(d) for a in range(q + 1)]

    # Shape (d, q + 1): the tangent components, then the transversal coefficient.
    solution = SmoothField(q, d * (q + 1), solve_components)
    tangent = linear_field(solution, 0, [
        [(alpha * (q + 1) + a, None, None)] for alpha in range(d) for a in range(q)
    ])
    normal = linear_field(solution, 0, [[(alpha * (q + 1) + q, None, None)] for alpha in range(d)])
    return TensorField(tangent, (d, q)), TensorField(normal, (d,))


class FaceSplit:
    """The fields of one face that :func:`tangent_traction` and
    :func:`surface_divergence` read, built once by :func:`face_split`:
    ``tangent`` (d, n-1) is the tangent part in the face frame, ``normal``
    (d,) the transversal coefficient, and ``velocity`` and ``gradient`` the
    chart velocity and its chart gradient composed onto the face."""

    __slots__ = ("restricted", "tangent", "normal", "transversal", "velocity", "gradient")

    def __init__(self, restricted: RestrictedSurfaceStress, tangent: TensorField,
                 normal: TensorField, transversal: TransversalField, velocity: TensorField,
                 gradient: TensorField):
        self.restricted, self.tangent, self.normal = restricted, tangent, normal
        self.transversal, self.velocity, self.gradient = transversal, velocity, gradient


def face_split(
    surface_stress: HyperSurfaceStress,
    face: FacePatch,
    transversal: TransversalField,
    velocity: TensorField,
) -> FaceSplit:
    """``restrict_Y`` on the face, both parts of its
    ``transversal_decomposition`` along ``transversal``, and the chart
    velocity and its gradient composed onto the face."""
    restricted = restrict_Y(surface_stress, face)
    tangent, normal = transversal_decomposition(restricted, transversal)
    return FaceSplit(restricted, tangent, normal, transversal,
                     face_velocity(velocity, face), face_velocity(velocity.gradient(), face))


def tangent_traction(split: FaceSplit) -> TensorField:
    """Edge-density traction on the face: contract the tangent part in-face.

    The result is a (d, n-1) traction over the face parameters whose action
    on a velocity is an (n-2)-form; restricting it to the face boundary gives
    the edge force.
    """
    return split.tangent.signed(1)


def face_velocity(velocity: TensorField, face: FacePatch) -> TensorField:
    """Compose a chart velocity field onto the face parameters."""
    return velocity.compose(face.to_chart)


def surface_divergence(split: FaceSplit) -> FormField:
    """Face divergence paired with the full velocity jet.

    Local form: divergence of the tangent part against the velocity, minus
    the value slot, minus the transversal coefficient times the transversal
    derivative of the velocity.  Defined so that integration by parts on the
    face closes against the tangent traction.
    """
    u = split.velocity
    transversal_du = pair([(split.gradient.signed(None, (1, 0)), split.transversal.n_field)])
    density = pair([
        (split.tangent.divergence(), u),
        (split.restricted.z0.scale(-1.0), u),
        (split.normal.scale(-1.0), transversal_du),
    ])
    return FormField.volume(density.field)


def tangent_edge_force(
    restricted: RestrictedSurfaceStress,
    tol: float = 1e-9,
    complement_axis: Optional[int] = None,
) -> Tuple[TensorField, TensorField, VariationalStress1]:
    """Reduce a tangent face stress to an order-1 stress over the face.

    One :func:`transversal_decomposition` along the basis vector of the
    complement coordinate (a box face's own axis by default) gives both
    parts.  The stress is tangent when the transversal part vanishes within
    ``tol`` at the nodes of the 3-point rule on the face, read in one pass.
    Returns the traction of the reduced stress (the edge-force density on
    the face boundary), its divergence, and the reduced stress itself so the
    order-1 balance can be rerun on the face.
    """
    face = restricted.face
    if complement_axis is None:
        if face.axis is None:
            raise ValueError("general faces need an explicit complement coordinate")
        complement_axis = face.axis
    reference = TransversalField.axis(face, complement_axis)
    tangent, normal = transversal_decomposition(restricted, reference)
    nodes, _ = QuadratureRule(3).nodes_weights(face.param_box)
    [vertical] = jets_on(normal.field, nodes, 0)
    if not np.all(np.max(np.abs(vertical), axis=1) <= tol):
        raise ValueError("face stress is not tangent; edge force undefined")
    reduced = VariationalStress1(restricted.z0, tangent)
    return traction_projection(reduced), divergence(reduced), reduced
