"""Oriented box bodies and their faces, alternating forms, pullbacks, and quadrature.

Bodies are reference boxes carried into a chart by an optional smooth patch
map, so integration always happens on boxes with tensor-product
Gauss-Legendre rules.  Boundary faces carry the orientation induced by the
body (outward for the standard volume form), and the boundary pieces of a
face carry the orientation the face induces on them.  One routine,
:func:`integrate`, reads and sums every integral: over a body, and over
groups of faces, with their boundary pieces, one pass per group.
"""

from __future__ import annotations

import itertools
import math
from contextvars import ContextVar
from functools import lru_cache
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .fields import SmoothField, as_point, jets_on, linear_field, on_nodes
from .taylor import TruncatedSeries, per_node

__all__ = [
    "NODE_BUDGET",
    "QuadratureRule",
    "Box",
    "FormValue",
    "FormField",
    "Body",
    "FacePatch",
    "Insertion",
    "interior_product",
    "pullback_coefficients",
    "integrate",
    "integrate_boundary",
    "on_faces",
    "boundary_faces",
    "face_groups",
    "per_side",
    "increasing_tuples",
    "tuple_omitting",
]

IndexTuple = Tuple[int, ...]


def increasing_tuples(dim: int, degree: int) -> List[IndexTuple]:
    return list(itertools.combinations(range(dim), degree))


def tuple_omitting(dim: int, axis: int) -> IndexTuple:
    return tuple(i for i in range(dim) if i != axis)


# -- basic containers ---------------------------------------------------------


class Box:
    """Axis-aligned product of closed intervals."""

    __slots__ = ("lower", "upper")

    def __init__(self, lower: Tuple[float, ...], upper: Tuple[float, ...]):
        if len(lower) != len(upper):
            raise ValueError("box bounds must have equal length")
        for lo, hi in zip(lower, upper):
            if not lo < hi:
                raise ValueError(f"box needs lower < upper per axis, got [{lo}, {hi}]")
        self.lower, self.upper = lower, upper

    @property
    def dim(self) -> int:
        return len(self.lower)

    def drop_axis(self, axis: int) -> Optional["Box"]:
        if self.dim == 1:
            return None
        lower = self.lower[:axis] + self.lower[axis + 1 :]
        upper = self.upper[:axis] + self.upper[axis + 1 :]
        return Box(lower, upper)

    def center(self) -> Tuple[float, ...]:
        return tuple((lo + hi) / 2.0 for lo, hi in zip(self.lower, self.upper))

    @classmethod
    def from_bounds(cls, bounds: Sequence[Sequence[float]]) -> "Box":
        return cls(tuple(float(b[0]) for b in bounds), tuple(float(b[1]) for b in bounds))


# Most nodes a rule may put on one box, order**dim: order 16 in three
# dimensions, 64 in two.  A one-dimensional rule of order q builds a q-by-q
# companion matrix to find its nodes, 128 MB at the budget.
NODE_BUDGET = 4096


class QuadratureRule:
    """Tensor-product Gauss-Legendre rule, one order for every axis."""

    __slots__ = ("order",)

    def __init__(self, order: int):
        if order < 1:
            raise ValueError("quadrature order must be >= 1")
        self.order = order

    def check_budget(self, dim: int) -> None:
        """Raise unless ``order**dim`` nodes fit ``NODE_BUDGET`` and the order
        is one a 2-dim body admits; builds no node.  Without that cap a 1-dim
        body passes the budget up to order 4096, whose run took 6-9 s and
        about 290 MB on an Intel Xeon, where order 4 takes 0.3 s."""
        count = 1
        for _ in range(dim):
            count *= self.order
            if count > NODE_BUDGET:
                raise ValueError(
                    f"{self.order}^{dim} nodes exceed the budget of {NODE_BUDGET}"
                )
        cap = math.isqrt(NODE_BUDGET)
        if self.order > cap:
            raise ValueError(f"order {self.order} exceeds the per-axis cap of {cap}")

    def nodes_weights(self, box: Box) -> Tuple[np.ndarray, np.ndarray]:
        self.check_budget(box.dim)
        return _box_nodes(self.order, box.lower, box.upper)


@lru_cache(maxsize=None)
def _gauss_1d(order: int) -> Tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


@lru_cache(maxsize=None)
def _box_nodes(
    order: int, lower: Tuple[float, ...], upper: Tuple[float, ...]
) -> Tuple[np.ndarray, np.ndarray]:
    base_x, base_w = _gauss_1d(order)
    axes_x, axes_w = [], []
    for lo, hi in zip(lower, upper):
        half = (hi - lo) / 2.0
        axes_x.append(lo + half * (base_x + 1.0))
        axes_w.append(base_w * half)
    grids = np.meshgrid(*axes_x, indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=-1)
    wgrids = np.meshgrid(*axes_w, indexing="ij")
    weights = np.prod(np.stack([g.ravel() for g in wgrids], axis=-1), axis=-1)
    return nodes, weights


# -- alternating forms --------------------------------------------------------


class FormValue:
    """An alternating p-covector: coefficients on strictly increasing index tuples.

    A coefficient may hold one value per node of a batch (``FormField.value_at``
    on node arrays, or :func:`jetstress.nonholonomic.second_contraction` on a
    block of nodes); ``coefficient``, ``+``, ``-``, ``scale`` and ``max_abs``
    take such values, each node's result with the bits of its one-node form.
    """

    __slots__ = ("dim", "degree", "coeffs")

    def __init__(self, dim: int, degree: int, coeffs: Optional[Dict[IndexTuple, float]] = None):
        if not 0 <= degree <= dim:
            raise ValueError(f"degree {degree} outside 0..{dim}")
        coeffs = {tuple(key): val for key, val in (coeffs or {}).items()}
        for key in coeffs:
            if len(key) != degree or any(a >= b for a, b in zip(key, key[1:])):
                raise ValueError(f"{key} is not a strictly increasing {degree}-tuple")
            if any(not 0 <= i < dim for i in key):
                raise ValueError(f"index tuple {key} out of range for dim {dim}")
        self._fill(dim, degree, coeffs)

    @classmethod
    def _trusted(cls, dim: int, degree: int, coeffs: Dict[IndexTuple, float]) -> "FormValue":
        """A form on keys computed from valid forms of this dim and degree: the
        key checks of the constructor are skipped, its value rules kept."""
        out = object.__new__(cls)
        out._fill(dim, degree, coeffs)
        return out

    def _fill(self, dim: int, degree: int, coeffs: Dict[IndexTuple, float]) -> None:
        """Node arrays are kept, other values made floats, zeros included."""
        self.dim = dim
        self.degree = degree
        self.coeffs: Dict[IndexTuple, float] = {
            key: val if per_node(val) else float(val) for key, val in coeffs.items()
        }

    def coefficient(self, key: Sequence[int]) -> float:
        return self.coeffs.get(tuple(key), 0.0)

    def __add__(self, other: "FormValue") -> "FormValue":
        if self.dim != other.dim or self.degree != other.degree:
            raise ValueError("form mismatch in add")
        out = dict(self.coeffs)
        for key, val in other.coeffs.items():
            out[key] = out.get(key, 0.0) + val
        return FormValue._trusted(self.dim, self.degree, out)

    def scale(self, factor: float) -> "FormValue":
        return FormValue._trusted(
            self.dim, self.degree, {k: v * factor for k, v in self.coeffs.items()}
        )

    def __sub__(self, other: "FormValue") -> "FormValue":
        return self + other.scale(-1.0)

    def max_abs(self) -> float:
        """The largest |coefficient| over every key and node, 0.0 for none; NaN
        if any is NaN (numpy's max keeps it, where Python's drops a later one)."""
        return float(np.max([np.max(np.abs(v), initial=0.0) for v in self.coeffs.values()],
                            initial=0.0))

    def max_abs_diff(self, other: "FormValue") -> float:
        return (self - other).max_abs()

    @classmethod
    def volume(cls, dim: int, coefficient: float = 1.0) -> "FormValue":
        return cls(dim, dim, {tuple(range(dim)): coefficient})

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FormValue(dim={self.dim}, degree={self.degree}, {self.coeffs})"


def interior_product(axis: int, form: FormValue) -> FormValue:
    """Contract the basis vector along ``axis`` into the leading slot of ``form``.

    Each basis term keeps the factors after the matched index, with the sign
    alternating with the position of the matched index.
    """
    if form.degree < 1:
        raise ValueError("interior product needs a form of degree >= 1")
    out: Dict[IndexTuple, float] = {}
    for key, val in form.coeffs.items():
        if axis not in key:
            continue
        pos = key.index(axis)
        new_key = key[:pos] + key[pos + 1 :]
        out[new_key] = out.get(new_key, 0.0) + ((-1.0) ** pos) * val
    return FormValue._trusted(form.dim, form.degree - 1, out)


def series_det(matrix: List[List[TruncatedSeries]]) -> TruncatedSeries:
    """Determinant of a square matrix of series, by cofactors along the first row."""
    size = len(matrix)
    if size == 1:
        return matrix[0][0]
    if size == 2:
        return matrix[0][0] * matrix[1][1] - matrix[0][1] * matrix[1][0]
    total = None
    for col in range(size):
        minor = [row[:col] + row[col + 1 :] for row in matrix[1:]]
        term = matrix[0][col] * series_det(minor)
        if col % 2:
            term = -term
        total = term if total is None else total + term
    return total


def pullback_coefficients(
    coeffs: SmoothField,
    mapping: SmoothField,
    target_tuples: Sequence[IndexTuple],
    source_tuples: Sequence[IndexTuple],
) -> SmoothField:
    """Pull groups of form coefficients back along a smooth map.

    ``coeffs`` holds the coefficients of each group on ``target_tuples``,
    group-major; the result holds the same groups on ``source_tuples``.
    Each evaluation composes the coefficients with the map and computes the
    Jacobian minors once, for all groups.  Through an :class:`Insertion`
    the pullback is a selection of keys (see :func:`_selected_coefficients`).
    """
    ntgt, nsrc = len(target_tuples), len(source_tuples)
    if coeffs.dim != mapping.ncomp or coeffs.ncomp % ntgt:
        raise ValueError("coefficient groups do not match the map and the tuple list")
    if isinstance(mapping, Insertion):
        return _selected_coefficients(coeffs, mapping, target_tuples, source_tuples)
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


def _selected_coefficients(
    coeffs: SmoothField,
    insertion: "Insertion",
    target_tuples: Sequence[IndexTuple],
    source_tuples: Sequence[IndexTuple],
) -> SmoothField:
    """:func:`pullback_coefficients` through an insertion, by key selection.

    The insertion's offsets are single variables with coefficient 1.0 on its
    free axes and the zero series on its pinned axes, and its Jacobian minors
    are the constant 1.0 on the image of a source tuple and the zero series
    elsewhere.  So the general route composes each coefficient into the keys
    whose pinned exponents are 0, renamed to the free axes in their order,
    and takes the group of the image tuple: that selection, in the general
    route's key order.  There each value ``v`` is multiplied by 1.0 and added
    into an absent key at least once, which gives ``0.0 + v``; the selection
    computes ``0.0 + v`` too, so a -0.0 becomes 0.0 on both routes.  A key's
    exponents on the free axes are taken as it is read, and it is kept when
    they sum to its total degree.  The coefficients are read at the
    insertion's value, from its own series as in the general route.
    """
    ntgt = len(target_tuples)
    groups = coeffs.ncomp // ntgt
    src_dim = insertion.dim
    columns = {tuple(kt): t for t, kt in enumerate(target_tuples)}
    free = insertion.free
    picks = [columns.get(tuple(free[a] for a in ks)) for ks in source_tuples]

    def evaluator(point, order):
        center = tuple(s.value for s in insertion.series_on(point, 0))
        series = coeffs.series_on(center, order)
        out = []
        for g in range(groups):
            for t in picks:
                if t is None:
                    out.append(TruncatedSeries.zero(src_dim, order))
                    continue
                s = series[g * ntgt + t]
                kept = {}
                for key, val in s.coeffs.items():
                    new = tuple([key[axis] for axis in free])
                    if sum(new) == sum(key):
                        kept[new] = 0.0 + val
                out.append(TruncatedSeries._trusted(src_dim, order, kept))
        return out

    return SmoothField(src_dim, groups * len(source_tuples), evaluator)


class FormField:
    """A point-to-FormValue field with series-backed coefficients."""

    def __init__(self, dim: int, degree: int, tuples: Sequence[IndexTuple], coeffs: SmoothField):
        if coeffs.dim != dim or coeffs.ncomp != len(tuples):
            raise ValueError("coefficient field does not match the tuple list")
        self.dim = dim
        self.degree = degree
        self.tuples = [tuple(t) for t in tuples]
        self.coeffs = coeffs

    @classmethod
    def volume(cls, coefficient: SmoothField) -> "FormField":
        """The top-degree form with one coefficient field."""
        n = coefficient.dim
        return cls(n, n, [tuple(range(n))], coefficient)

    @classmethod
    def omitting(cls, coeffs: SmoothField) -> "FormField":
        """The (n-1)-form whose coefficient j multiplies the basis form omitting axis j."""
        n = coeffs.dim
        return cls(n, n - 1, [tuple_omitting(n, j) for j in range(n)], coeffs)

    def value_at(self, point: Sequence[float]) -> FormValue:
        """The form at a point; node-array coordinates give node-array coefficients."""
        values = self.coeffs.values_on(as_point(point))
        return FormValue(self.dim, self.degree, dict(zip(self.tuples, values)))

    def exterior_derivative(self) -> "FormField":
        """d of the form, computed from order-1 series of the coefficients."""
        if self.degree >= self.dim:
            raise ValueError("exterior derivative exceeds the chart dimension")
        out_tuples = increasing_tuples(self.dim, self.degree + 1)
        rows = {t: [] for t in out_tuples}
        for comp, key in enumerate(self.tuples):
            for axis in range(self.dim):
                if axis not in key:
                    pos = sum(1 for k in key if k < axis)
                    rows[tuple(sorted(key + (axis,)))].append((comp, axis, (-1.0) ** pos))
        coeffs = linear_field(self.coeffs, 1, [rows[t] for t in out_tuples])
        return FormField(self.dim, self.degree + 1, out_tuples, coeffs)

    def pullback(self, mapping: SmoothField) -> "FormField":
        """Pull the form back along a smooth map from a lower/equal-dim domain."""
        if mapping.ncomp != self.dim:
            raise ValueError("map target dimension must match the form dimension")
        if self.degree > mapping.dim:
            raise ValueError("pullback degree exceeds the source dimension")
        out_tuples = increasing_tuples(mapping.dim, self.degree)
        coeffs = pullback_coefficients(self.coeffs, mapping, self.tuples, out_tuples)
        return FormField(mapping.dim, self.degree, out_tuples, coeffs)


# -- bodies and faces ---------------------------------------------------------


# The side a face pass reads at each node: 0.0 (lower) or 1.0 (upper), a float
# at one node and a node array over a batch; None outside a face pass.  Each
# face pass of :func:`on_faces` sets it, as ``fields._MEMO`` is set per batch;
# sides that pick different pivot rows share the batch (``surface._swap_per_node``).
_SIDE: ContextVar[Any] = ContextVar("face_side", default=None)


def _pick(side: Optional[int], lower: float, upper: float) -> Any:
    """``lower`` on side 0 and ``upper`` on side 1; for side None, on the
    side the open face pass reads, one value per node over a batch.  A node
    array holds the very float a face of one side reads, and arrays and
    floats take the same IEEE operations, so each node computes what its
    own face's pass computes."""
    if side is None:
        side = _SIDE.get()
        if side is None:
            raise RuntimeError("a face of both sides is read outside a face pass")
        if per_node(side):
            return np.where(side != 0.0, upper, lower)
    return upper if side else lower


def per_side(*forms: FormField) -> FormField:
    """The form each node of a face pass reads on its own face: ``forms[k]``
    at the nodes of the k-th face of the group (see :func:`on_faces`); one
    form is itself.  Over a batch each form is read at every row, and one
    ``np.where`` on the side (:func:`_pick`) gives each row its own face's
    values; a node read alone reads its own face's form only, so an error
    there is that face's.  It is read for values (order 0) only."""
    if len(forms) == 1:
        return forms[0]
    lower, upper = forms
    dim, zero = lower.dim, (0,) * lower.dim

    def evaluator(point, order):
        side = _SIDE.get()
        if not per_node(side):
            return forms[int(side)].coeffs.series_on(point, 0)
        lows, highs = lower.coeffs.series_on(point, 0), upper.coeffs.series_on(point, 0)
        return [TruncatedSeries._trusted(dim, 0, {zero: _pick(None, a.value, b.value)})
                for a, b in zip(lows, highs)]

    coeffs = SmoothField(dim, len(lower.tuples), evaluator)
    return FormField(dim, lower.degree, lower.tuples, coeffs)


class Body:
    """An oriented box region, optionally pushed into the chart by a patch map;
    its dimension is its box's.

    A body builds its boundary faces and its face groups once (see
    :func:`boundary_faces` and :func:`face_groups`), and keeps them for its
    own lifetime: every check of a scenario reads the same face records, in
    the same groups, and no other body does.
    """

    __slots__ = ("box", "patch", "_faces", "_groups")

    def __init__(self, box: Box, patch: Optional[SmoothField] = None):
        if patch is not None and (patch.dim != box.dim or patch.ncomp != box.dim):
            raise ValueError("patch map must be chart-dim to chart-dim")
        self.box, self.patch = box, patch
        self._faces: Optional[Tuple[FacePatch, ...]] = None
        self._groups: Optional[Tuple[FaceGroup, ...]] = None

    @property
    def dim(self) -> int:
        return self.box.dim

    def check_embedding(self, rule: QuadratureRule) -> np.ndarray:
        """The chart points of the rule's nodes on the body, one row per node:
        the nodes themselves, or their images under the patch, whose Jacobian
        determinant is checked at each node from the same read.  A det of
        magnitude 1e-12 or less is degenerate, and a negative one reverses the
        orientation the body's terms are signed by; a NaN det is passed over."""
        nodes, _ = rule.nodes_weights(self.box)
        if self.patch is None:
            return nodes
        images, jacs = jets_on(self.patch, nodes, 1)
        dets = np.linalg.det(jacs)
        if np.any(np.abs(dets) <= 1e-12):
            raise ValueError("body patch map is degenerate at a quadrature node")
        if np.any(dets < 0.0):
            raise ValueError("body patch map reverses orientation at a quadrature node")
        return images


class FacePatch:
    """A boundary face: a parameterized (n-1)-patch, ``to_chart`` carrying
    its parameters into its parent's coordinates, with the orientation
    ``sign`` its parent induces on it.

    A facet of a box (see :func:`_facet`) also carries the ``box``, the
    ``axis`` it pins and its ``side``: 0 for the lower facet, 1 for the
    upper, and None for both facets of the axis, each node on the side its
    face pass reads (see :func:`on_faces`), with ``sign`` None as each
    keeps its own.  A facet of a 1-dim box has ``param_box`` and
    ``to_chart`` None, and its ``point`` in its parent's coordinates.  Any
    other face has ``box``, ``axis``, ``side`` and ``point`` None.
    """

    __slots__ = ("label", "param_box", "to_chart", "sign", "box", "axis", "side", "point")

    def __init__(self, label: str, param_box: Optional[Box], to_chart: Optional[SmoothField],
                 sign: Optional[float], box: Optional[Box] = None, axis: Optional[int] = None,
                 side: Optional[int] = None, point: Optional[Tuple[float, ...]] = None):
        self.label, self.param_box, self.to_chart, self.sign = label, param_box, to_chart, sign
        self.box, self.axis, self.side, self.point = box, axis, side, point

    @property
    def param_dim(self) -> int:
        return self.param_box.dim if self.param_box is not None else 0

    def pick(self, lower: float, upper: float) -> Any:
        """``lower`` on the lower facet and ``upper`` on the upper one."""
        return _pick(self.side, lower, upper)

    @property
    def fixed_value(self) -> Any:
        """The coordinate the facet pins on its axis."""
        return self.pick(self.box.lower[self.axis], self.box.upper[self.axis])


def face_label(axis: int, side: int) -> str:
    return f"x{axis + 1}-{'upper' if side else 'lower'}"


def _facet(box: Box, axis: int, side: Optional[int], patch: Optional[SmoothField],
           label: str) -> FacePatch:
    """The facet of ``box`` that pins ``axis`` on ``side``, carried into the
    chart by ``patch`` (the identity when None).  Stokes orients it by
    ``(-1)**axis`` on the upper side and by its negative on the lower."""
    base = (-1.0) ** axis
    sign = None if side is None else base if side else -base
    if box.dim == 1:
        point = (_pick(side, box.lower[0], box.upper[0]),)
        point = tuple(patch.values_at(point)) if patch is not None else point
        return FacePatch(label, None, None, sign, box, axis, side, point)
    mapping = Insertion(box, {axis: side})
    if patch is not None:
        mapping = patch.compose(mapping)
    return FacePatch(label, box.drop_axis(axis), mapping, sign, box, axis, side)


def _facets(box: Box, patch: Optional[SmoothField], prefix: str = "") -> List[FacePatch]:
    """The oriented facets of ``box``, two per axis, carried into the chart by
    ``patch``, each labelled ``prefix`` plus its face label."""
    return [_facet(box, axis, side, patch, prefix + face_label(axis, side))
            for axis in range(box.dim) for side in (0, 1)]


def boundary_faces(body: Body) -> List[FacePatch]:
    """The 2n oriented facets whose signed sum realizes the Stokes boundary,
    built on the body's first call and the same records on every later one."""
    if body._faces is None:
        body._faces = tuple(_facets(body.box, body.patch))
    return list(body._faces)


FaceGroup = Tuple[FacePatch, Sequence[FacePatch]]


def face_groups(body: Body) -> List[FaceGroup]:
    """The boundary faces of ``body`` in order, in the groups one face pass
    reads: each group is the face whose maps the pass reads and the faces
    whose nodes it reads (see :func:`on_faces`).

    The two faces of each axis of a body of dim >= 2 form one group, read
    through the facet of both sides of the axis (its ``side`` is None).
    The point faces of a 1-dim body are groups of one, each read through
    itself.  The groups are built on the body's first call, and the same
    records come back on every later one.
    """
    if body._groups is None:
        faces = boundary_faces(body)
        body._groups = tuple(
            [(face, (face,)) for face in faces] if body.dim == 1 else
            [(_facet(body.box, lower.axis, None, body.patch, f"x{lower.axis + 1}"), (lower, upper))
             for lower, upper in zip(faces[::2], faces[1::2])])
    return list(body._groups)


def face_boundary_pieces(face: FacePatch) -> List[FacePatch]:
    """Oriented boundary facets of a face, in the face's own parameter box,
    each a facet of that box, built anew on each call."""
    if face.param_box is None:
        raise ValueError("0-dimensional faces have no boundary")
    return _facets(face.param_box, None, face.label + "/")


class Insertion(SmoothField):
    """A map of a lower box into ``box``: the point's coordinates go, in order,
    to the ``free`` axes, and each axis of ``fixed`` is pinned at its lower
    (side 0) or upper (side 1) bound, or for side None at the bound of the
    side the face pass reads (see :func:`on_faces`).  A pullback through it
    selects keys (see :func:`pullback_coefficients`)."""

    __slots__ = ("free",)

    def __init__(self, box: Box, fixed: Dict[int, Optional[int]]):
        dim = box.dim
        inner_dim = dim - len(fixed)

        def evaluator(point, order):
            series = []
            src = 0
            for axis in range(dim):
                if axis in fixed:
                    value = _pick(fixed[axis], box.lower[axis], box.upper[axis])
                    series.append(TruncatedSeries.constant(inner_dim, order, value))
                else:
                    series.append(TruncatedSeries.variable(inner_dim, order, src, point[src]))
                    src += 1
            return series

        super().__init__(inner_dim, dim, evaluator)
        self.free = tuple(axis for axis in range(dim) if axis not in fixed)


# -- integration --------------------------------------------------------------


def integrate(
    forms: Union[Sequence[FormField], Callable[[FacePatch, Sequence[FacePatch]], Tuple]],
    region: Union[Body, Sequence[FaceGroup]],
    rule: QuadratureRule,
) -> List[List[float]]:
    """The integrals of ``forms`` over ``region``, a body or the groups of
    :func:`face_groups`, one pass over each one's nodes, so the forms share
    the sub-fields they read (see :func:`jetstress.fields.on_nodes`).

    A body's ``forms`` are chart volume forms, pulled back through its patch
    if it has one: one list.  Over face groups, ``forms(face, members)``
    gives a group's face forms and its edge form or None; it is called once
    per group, right before its pass, so a group builds its fields as its
    own pass would.  Face forms are top-degree forms on the face's
    parameters; a point face, of a 1-dim body, reads each chart 0-form at
    its point.  Each member of a group gives one list: each face form's
    integral times the member's sign, then the integral of the edge form,
    one degree lower, over each piece of :func:`face_boundary_pieces`, in
    its order, times the piece's sign; an edge form of None gives no pieces.

    A piece pulls the edge form back through its insertion, whose minor on
    the piece's free tuple is the constant 1.0 and on every other tuple the
    zero series; so the pullback is the coefficient on the free tuple, with
    its bits.  A group's pass (see :func:`on_faces`) reads, for each member
    in turn, every piece's nodes, written in face coordinates (one node for
    an endpoint of a 1-dim face), then the face's nodes, and reads every
    face form and the coefficients of the edge form at each.  Each integral
    is summed over its member's nodes, in node order.  So a face form is
    also read at the edge nodes, where no integral needs it: one that is
    undefined on an edge raises there, and as the edge nodes come first,
    their error is the one a failing pass reports.
    """
    if isinstance(region, Body):
        if region.patch is not None:
            forms = [form.pullback(region.patch) for form in forms]
        _check_top_degree(forms, region.box)
        nodes, weights = rule.nodes_weights(region.box)
        values = on_nodes(_reader(forms, None, tuple(range(region.dim))), nodes, len(forms))
        return [[_node_sum(weights, values[:, c]) for c in range(len(forms))]]
    out = []
    for face, members in region:
        face_forms, edge_form = forms(face, members)
        pieces = [] if edge_form is None else face_boundary_pieces(face)
        parts = []  # (nodes, weights) of each piece, None weights for a point, then the face's
        for piece in pieces:
            if piece.param_box is None:
                parts.append((np.array([piece.point]), None))
                continue
            nodes, weights = rule.nodes_weights(piece.param_box)
            parts.append((np.insert(nodes, piece.axis, piece.fixed_value, axis=1), weights))
        if face.param_box is None:
            parts.append((np.array([face.point]), None))
        else:
            parts.append(rule.nodes_weights(face.param_box))
            _check_top_degree(face_forms, face.param_box)
        columns = {} if edge_form is None else {
            key: len(face_forms) + c for c, key in enumerate(edge_form.tuples)}
        passes = on_faces(_reader(face_forms, edge_form, tuple(range(face.param_dim))), members,
                          np.concatenate([nodes for nodes, _ in parts]),
                          len(face_forms) + len(columns))
        bounds = np.cumsum([0] + [len(nodes) for nodes, _ in parts]).tolist()
        for member, values in zip(members, passes):
            sums = [member.sign * _node_sum(parts[-1][1], values[bounds[-2]:, c])
                    for c in range(len(face_forms))]
            for k, piece in enumerate(pieces):
                column = columns.get(tuple_omitting(face.param_dim, piece.axis))
                sums.append(piece.sign * (0.0 if column is None else _node_sum(
                    parts[k][1], values[bounds[k]:bounds[k + 1], column])))
            out.append(sums)
    return out


def _reader(forms: Sequence[FormField], edge_form: Optional[FormField],
            full: IndexTuple) -> Callable[[Tuple], List[Any]]:
    """The function of a point that one pass reads: each form's coefficient
    on ``full``, then each coefficient of ``edge_form`` if any."""

    def read(point):
        values = [form.value_at(point).coefficient(full) for form in forms]
        return values if edge_form is None else values + edge_form.coeffs.values_on(point)

    return read


def integrate_boundary(
    forms: Sequence[FormField], body: Body, rule: QuadratureRule
) -> List[List[float]]:
    """Each boundary face's integrals of the chart (n-1)-forms, in face
    order, from one :func:`integrate` over the groups of :func:`face_groups`.
    A group describes its face forms as the forms pulled back through the
    group's face map, which its faces share in one pass, and no edge form; a
    point face reads the forms at its point as they are."""
    return integrate(lambda face, members: (forms if face.param_box is None else [
        f.pullback(face.to_chart) for f in forms], None), face_groups(body), rule)


def _check_top_degree(forms: Sequence[FormField], box: Box) -> None:
    for form in forms:
        if form.degree != box.dim:
            raise ValueError(
                f"form degree {form.degree} does not match patch dimension {box.dim}"
            )
        if form.dim != box.dim:
            raise ValueError("form must live on the patch parameters")


def _node_sum(weights: Optional[np.ndarray], values: np.ndarray) -> float:
    """The sum of ``weight * value``, added in node order: ``np.add.accumulate``
    (``np.cumsum``'s ufunc) adds each product to the sum before it (numpy's
    sum and dot add pairwise, in another order), and ``+ 0.0`` gives a
    loop's ``0.0 + x`` on a sum of -0.0 terms; a point (weights None) gives
    its one value."""
    if weights is None:
        return float(values[0])
    return float(np.add.accumulate(weights * values)[-1]) + 0.0


def on_faces(fn: Callable[[Tuple], Any], faces: Sequence[FacePatch], nodes: np.ndarray,
             width: Optional[int] = None) -> List[np.ndarray]:
    """``fn`` at every row of ``nodes`` on each of ``faces`` in turn (the
    faces of a group of :func:`face_groups`), from one pass of
    :func:`jetstress.fields.on_nodes`: each face's rows of results.

    Each row of the pass carries one more column, its face's position in
    ``faces``, for a pair its side.  The pass splits it off and opens it as
    the side while ``fn`` reads the rest, so a face of both sides reads each
    node on its own side (see :meth:`FacePatch.pick`) with the operations of
    that face's own pass.  A ``ValueError`` or an ``OverflowError`` at a
    node is raised again, of its kind, with the label of the node's face in
    front of its message.
    """
    rows = np.column_stack([np.tile(nodes, (len(faces), 1)),
                            np.repeat(np.arange(len(faces), dtype=float), len(nodes))])
    failed = [0]  # the face of the last node read alone: the one an error comes from

    def read(point):
        side = point[-1]
        if not per_node(side):
            failed[0] = int(side)
        token = _SIDE.set(side)
        try:
            return fn(point[:-1])
        finally:
            _SIDE.reset(token)

    try:
        values = on_nodes(read, rows, width)
    except (ValueError, OverflowError) as exc:
        kind = ValueError if isinstance(exc, ValueError) else OverflowError
        raise kind(f"{faces[failed[0]].label}: {exc}") from exc
    return np.split(values, len(faces))
