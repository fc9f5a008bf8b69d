"""Charts, oriented box bodies, alternating forms, pullbacks, and quadrature.

Bodies are reference boxes carried into a chart by an optional smooth patch
map, so integration always happens on boxes with tensor-product
Gauss-Legendre rules.  Boundary faces carry the orientation induced by the
body (outward for the standard volume form), and the boundary pieces of a
face carry the orientation the face induces on them.  One routine,
:func:`integrate`, reads and sums every integral: over a body, a face, the
two faces of an axis in one pass, and a face's boundary pieces.
"""

from __future__ import annotations

import itertools
from contextvars import ContextVar
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Collection, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .fields import SmoothField, as_point, jets_on, linear_field, on_nodes
from .taylor import TruncatedSeries, per_node

__all__ = [
    "NODE_BUDGET",
    "Chart",
    "TransitionMap",
    "QuadratureRule",
    "Box",
    "FormValue",
    "FormField",
    "Body",
    "FacePatch",
    "Insertion",
    "FaceError",
    "interior_product",
    "pullback_coefficients",
    "integrate",
    "integrate_boundary",
    "on_faces",
    "boundary_faces",
    "face_groups",
    "increasing_tuples",
    "tuple_omitting",
]

IndexTuple = Tuple[int, ...]


def increasing_tuples(dim: int, degree: int) -> List[IndexTuple]:
    return list(itertools.combinations(range(dim), degree))


def tuple_omitting(dim: int, axis: int) -> IndexTuple:
    return tuple(i for i in range(dim) if i != axis)


# -- basic containers ---------------------------------------------------------


@dataclass(frozen=True)
class Box:
    """Axis-aligned product of closed intervals."""

    lower: Tuple[float, ...]
    upper: Tuple[float, ...]

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise ValueError("box bounds must have equal length")
        for lo, hi in zip(self.lower, self.upper):
            if not lo < hi:
                raise ValueError(f"box needs lower < upper per axis, got [{lo}, {hi}]")

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
    def unit(cls, dim: int) -> "Box":
        return cls((0.0,) * dim, (1.0,) * dim)

    @classmethod
    def from_bounds(cls, bounds: Sequence[Sequence[float]]) -> "Box":
        return cls(tuple(float(b[0]) for b in bounds), tuple(float(b[1]) for b in bounds))


@dataclass(frozen=True)
class Chart:
    """A coordinate patch with box extent."""

    dim: int
    box: Box

    def __post_init__(self):
        if self.box.dim != self.dim:
            raise ValueError("chart box dimension mismatch")


@dataclass(frozen=True)
class TransitionMap:
    """A chart change given by both directions, with jets of each available."""

    forward: SmoothField  # unprimed -> primed
    inverse: SmoothField  # primed -> unprimed

    def __post_init__(self):
        n = self.forward.dim
        if self.forward.ncomp != n or self.inverse.dim != n or self.inverse.ncomp != n:
            raise ValueError("transition maps must be square and of equal dimension")

    @property
    def dim(self) -> int:
        return self.forward.dim

    def check_roundtrip(self, points: Sequence[Sequence[float]]) -> float:
        """Largest defect of inverse(forward(x)) = x over the sample points; a
        defect above 1e-10 or NaN fails.

        The forward values and Jacobians come from one read of the forward
        map over all the points, the inverse values from one read at their
        images; a singular Jacobian raises at the first point that has one.
        """
        n = self.dim
        xs = np.asarray(points, dtype=float).reshape(-1, n)
        forward = jets_on(self.forward, xs, 1)
        jacs = np.array([jet.array(1) for jet in forward]).reshape(-1, n, n)
        xps = np.array([jet.array(0) for jet in forward]).reshape(-1, n)
        back = on_nodes(self.inverse.values_on, xps, width=n)
        for x, det in zip(points, np.linalg.det(jacs)):
            if abs(det) < 1e-12:
                raise ValueError(f"transition jacobian is singular at {tuple(x)}")
        worst = float(np.max(np.abs(back - xs), initial=0.0))
        if not worst <= 1e-10:
            raise ValueError(f"transition roundtrip defect {worst:.2e} exceeds 1.0e-10")
        return worst


# Most nodes a rule may put on one box, order**dim: order 16 in three
# dimensions, 64 in two.  A one-dimensional rule of order q builds a q-by-q
# companion matrix to find its nodes, 128 MB at the budget.
NODE_BUDGET = 4096


@dataclass(frozen=True)
class QuadratureRule:
    """Tensor-product Gauss-Legendre rule, one order for every axis."""

    order: int

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("quadrature order must be >= 1")

    def check_budget(self, dim: int) -> None:
        """Raise unless ``order**dim`` nodes fit ``NODE_BUDGET``; builds no node."""
        count = 1
        for _ in range(dim):
            count *= self.order
            if count > NODE_BUDGET:
                raise ValueError(
                    f"{self.order}^{dim} nodes exceed the budget of {NODE_BUDGET}"
                )

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
    computes ``0.0 + v`` too, so a -0.0 becomes 0.0 on both routes.  The
    coefficients are read at the insertion's value, from its own series as in
    the general route.
    """
    ntgt = len(target_tuples)
    groups = coeffs.ncomp // ntgt
    src_dim = insertion.dim
    columns = {tuple(kt): t for t, kt in enumerate(target_tuples)}
    picks = [columns.get(tuple(insertion.free[a] for a in ks)) for ks in source_tuples]
    rename = insertion.renamed

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
                    new = rename[key]
                    if new is not None:
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
# evaluation of :func:`on_faces` sets it, as ``fields._MEMO`` is set per batch;
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


@dataclass(frozen=True)
class BoxFace:
    """One facet of a box, with the orientation Stokes induces on it; side
    None is both facets of the axis, each node on the side its face pass
    reads (see :func:`on_faces`)."""

    box: Box
    axis: int
    side: Optional[int]  # 0 lower, 1 upper, None both

    @property
    def sign(self) -> Optional[float]:
        if self.side is None:
            return None
        base = (-1.0) ** self.axis
        return base if self.side else -base

    @property
    def param_box(self) -> Optional[Box]:
        return self.box.drop_axis(self.axis)

    @property
    def fixed_value(self) -> Any:
        return self.pick(self.box.lower[self.axis], self.box.upper[self.axis])

    def pick(self, lower: float, upper: float) -> Any:
        """``lower`` on the lower facet and ``upper`` on the upper one."""
        return _pick(self.side, lower, upper)

    def point(self) -> Tuple[float, ...]:
        """Only valid for 1-dim parents: the endpoint this face pins."""
        if self.box.dim != 1:
            raise ValueError("point() is only defined for faces of 1-dim boxes")
        return (self.fixed_value,)

    def insertion(self) -> "Insertion":
        if self.box.dim == 1:
            raise ValueError("0-dimensional faces have no insertion field")
        return Insertion(self.box, {self.axis: self.side})


def box_faces(box: Box) -> List[BoxFace]:
    return [BoxFace(box, axis, side) for axis in range(box.dim) for side in (0, 1)]


@dataclass(frozen=True)
class Body:
    """An oriented n-box region, optionally pushed into the chart by a patch map."""

    chart: Chart
    box: Box
    patch: Optional[SmoothField] = None

    def __post_init__(self):
        if self.box.dim != self.chart.dim:
            raise ValueError("body box dimension must match the chart")
        if self.patch is not None and (
            self.patch.dim != self.chart.dim or self.patch.ncomp != self.chart.dim
        ):
            raise ValueError("patch map must be chart-dim to chart-dim")

    @property
    def dim(self) -> int:
        return self.chart.dim

    def chart_map(self) -> SmoothField:
        return self.patch if self.patch is not None else SmoothField.coordinates(self.dim)

    def check_embedding(self, rule: QuadratureRule) -> float:
        """Smallest det of the patch Jacobian over quadrature nodes (1.0 if no
        patch).  A det of magnitude 1e-12 or less is degenerate, and a negative
        one reverses the orientation the body's terms are signed by; a NaN
        determinant is passed over, as ``min`` passes it over."""
        if self.patch is None:
            return 1.0
        nodes, _ = rule.nodes_weights(self.box)
        dets = on_nodes(self._jacobian_det, nodes)
        if np.any(np.abs(dets) <= 1e-12):
            raise ValueError("body patch map is degenerate at a quadrature node")
        if np.any(dets < 0.0):
            raise ValueError("body patch map reverses orientation at a quadrature node")
        return float(np.fmin.reduce(dets, initial=np.inf))

    def _jacobian_det(self, point):
        """det of the patch Jacobian at a point whose coordinates are floats or node arrays."""
        n = self.dim
        units = [tuple(int(a == b) for b in range(n)) for a in range(n)]
        entries = [s.coefficient(unit) for s in self.patch.series_on(point, 1) for unit in units]
        flat = np.array(np.broadcast_arrays(*entries))  # (n*n,) or (n*n, nodes)
        jac = np.moveaxis(flat.reshape((n, n) + flat.shape[1:]), (0, 1), (-2, -1))
        return np.linalg.det(jac)


@dataclass(frozen=True)
class FacePatch:
    """A boundary face: a parameterized (n-1)-patch with induced orientation."""

    label: str
    chart: Chart
    param_box: Optional[Box]  # None means a 0-dimensional patch
    to_chart: Optional[SmoothField]
    sign: Optional[float]  # None for both faces of an axis: each keeps its own
    boxface: Optional[BoxFace] = None
    point: Optional[Tuple[float, ...]] = None  # 0-dim patch: its point in its parent's coordinates

    @property
    def param_dim(self) -> int:
        return self.param_box.dim if self.param_box is not None else 0

    def chart_point(self, param_point: Sequence[float]) -> Tuple[float, ...]:
        if self.param_box is None:
            return self.point
        return tuple(self.to_chart.values_at(param_point))


def face_label(axis: int, side: int) -> str:
    return f"x{axis + 1}-{'upper' if side else 'lower'}"


def _facets(
    box: Box, chart: Chart, patch: Optional[SmoothField], prefix: str = ""
) -> List[FacePatch]:
    """The oriented facets of ``box``, two per axis, carried into the chart by
    ``patch`` (the identity when None), each labelled ``prefix`` plus its
    face label."""
    return [_facet(bf, chart, patch, prefix + face_label(bf.axis, bf.side))
            for bf in box_faces(box)]


def _facet(bf: BoxFace, chart: Chart, patch: Optional[SmoothField], label: str) -> FacePatch:
    if bf.box.dim == 1:
        pt = bf.point()
        pt = tuple(patch.values_at(pt)) if patch is not None else pt
        return FacePatch(label, chart, None, None, bf.sign, boxface=bf, point=pt)
    mapping = bf.insertion()
    if patch is not None:
        mapping = patch.compose(mapping)
    return FacePatch(label, chart, bf.param_box, mapping, bf.sign, boxface=bf)


def boundary_faces(body: Body) -> List[FacePatch]:
    """The 2n oriented facets whose signed sum realizes the Stokes boundary."""
    return _facets(body.box, body.chart, body.patch)


FaceGroup = Tuple[FacePatch, List[FacePatch]]


def face_groups(body: Body, alone: Collection[str] = ()) -> List[FaceGroup]:
    """The boundary faces of ``body`` in order, in the groups one face pass
    reads: each group is the face whose maps the pass reads and the faces
    whose nodes it reads (see :func:`on_faces`).

    The two faces of an axis of a body of dim >= 2 form one group, read
    through the face of both sides of the axis (its ``boxface.side`` is
    None), unless either label is in ``alone``.  Every other face is a group
    of its own, read through itself.
    """
    faces = boundary_faces(body)
    groups: List[FaceGroup] = []
    for lower, upper in zip(faces[::2], faces[1::2]):
        if body.dim == 1 or lower.label in alone or upper.label in alone:
            groups += [(lower, [lower]), (upper, [upper])]
            continue
        axis = lower.boxface.axis
        both = _facet(BoxFace(body.box, axis, None), body.chart, body.patch, f"x{axis + 1}")
        groups.append((both, [lower, upper]))
    return groups


def face_boundary_pieces(face: FacePatch) -> List[FacePatch]:
    """Oriented boundary facets of a face, in the face's own parameter box;
    each piece's ``boxface`` is the facet of that box it covers."""
    if face.param_box is None:
        raise ValueError("0-dimensional faces have no boundary")
    return _facets(face.param_box, face.chart, None, face.label + "/")


class _Renaming(dict):
    """``renaming[key]`` is the exponent tuple over the free axes of a key
    whose pinned exponents are 0, and None for any other key; each entry is
    computed on first use and kept."""

    __slots__ = ("free",)

    def __init__(self, free: IndexTuple):
        super().__init__()
        self.free = free

    def __missing__(self, key: IndexTuple) -> Optional[IndexTuple]:
        out = tuple(key[axis] for axis in self.free)
        self[key] = out = None if sum(out) != sum(key) else out
        return out


class Insertion(SmoothField):
    """A map of a lower box into ``box``: the point's coordinates go, in order,
    to the ``free`` axes, and each axis of ``fixed`` is pinned at its lower
    (side 0) or upper (side 1) bound, or for side None at the bound of the
    side the face pass reads (see :func:`on_faces`).  A pullback through it
    selects keys (see :func:`pullback_coefficients`)."""

    __slots__ = ("free", "renamed")

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
        self.renamed = _Renaming(self.free)


# -- integration --------------------------------------------------------------


def integrate(
    forms: Sequence[FormField],
    region: Union[Body, FacePatch],
    rule: QuadratureRule,
    members: Optional[Sequence[FacePatch]] = None,
    edge_form: Optional[FormField] = None,
) -> List[List[float]]:
    """The integrals of ``forms`` over ``region``, a body or a face, from one
    pass over its nodes, so the forms share the sub-fields they read (see
    :func:`jetstress.fields.on_nodes`).

    A body's forms are chart volume forms, pulled back through its patch if
    it has one, and its sign is 1.0; its one list comes from one pass of
    :func:`jetstress.fields.on_nodes`.  A face's forms are top-degree forms
    on its parameters; a point face, of a 1-dim body, reads each chart
    0-form at its point.  A face gives one list for each of ``members``, the
    faces that one pass reads through it (a group of :func:`face_groups`;
    None is ``[region]``).  Each list holds each form's integral times the
    member's sign, then the integral of the face form ``edge_form``, one
    degree lower, over each piece of :func:`face_boundary_pieces`, in its
    order, times the piece's sign.  An ``edge_form`` of None gives no pieces.

    A piece pulls ``edge_form`` back through its insertion, whose minor on the
    piece's free tuple is the constant 1.0 and on every other tuple the zero
    series; so the pullback is the coefficient on the free tuple, with its
    bits.  One pass of :func:`on_faces` reads, for each member in turn, every
    piece's nodes, written in face coordinates (one node for an endpoint of
    a 1-dim face), then the face's nodes, and reads every form and the
    coefficients of ``edge_form`` at each.  Each integral is summed over its
    member's nodes, in node order.
    """
    if isinstance(region, Body):
        if region.patch is not None:
            forms = [form.pullback(region.patch) for form in forms]
        box = region.box
    else:
        box = region.param_box
    pieces = [] if edge_form is None else face_boundary_pieces(region)
    parts = []  # (nodes, weights) of each piece, None weights for a point, then the region's
    for piece in pieces:
        if piece.param_box is None:
            parts.append((np.array([piece.point]), None))
            continue
        nodes, weights = rule.nodes_weights(piece.param_box)
        parts.append((np.insert(nodes, piece.boxface.axis, piece.boxface.fixed_value, axis=1),
                      weights))
    if box is None:
        parts.append((np.array([region.point]), None))
        full = ()
    else:
        _check_top_degree(forms, box)
        parts.append(rule.nodes_weights(box))
        full = tuple(range(box.dim))
    edge_tuples = [] if edge_form is None else edge_form.tuples
    columns = {key: len(forms) + c for c, key in enumerate(edge_tuples)}

    def read(point):
        values = [form.value_at(point).coefficient(full) for form in forms]
        return values if edge_form is None else values + edge_form.coeffs.values_on(point)

    stacked = np.concatenate([nodes for nodes, _ in parts])
    width = len(forms) + len(edge_tuples)
    if isinstance(region, Body):
        signs, passes = [1.0], [on_nodes(read, stacked, width)]
    else:
        members = [region] if members is None else members
        signs = [member.sign for member in members]
        passes = on_faces(read, members, stacked, width)
    out = []
    for sign, values in zip(signs, passes):
        piece_sums, start = [], 0
        for piece, (nodes, weights) in zip(pieces, parts):
            rows = values[start:start + len(nodes)]
            start += len(nodes)
            column = columns.get(tuple_omitting(edge_form.dim, piece.boxface.axis))
            total = 0.0 if column is None else _node_sum(weights, rows[:, column])
            piece_sums.append(piece.sign * total)
        weights = parts[-1][1]
        out.append([sign * _node_sum(weights, values[start:, c]) for c in range(len(forms))]
                   + piece_sums)
    return out


def integrate_boundary(
    forms: Sequence[FormField], body: Body, rule: QuadratureRule
) -> List[List[float]]:
    """Each boundary face's :func:`integrate` of the chart (n-1)-forms, in
    face order.  The faces of a group of :func:`face_groups` share the forms
    pulled back through the group's face map, and one pass; a point face
    reads them at its point as they are."""
    out = []
    for face, members in face_groups(body):
        pulled = forms if face.param_box is None else [f.pullback(face.to_chart) for f in forms]
        out += integrate(pulled, face, rule, members)
    return out


def _check_top_degree(forms: Sequence[FormField], box: Box) -> None:
    for form in forms:
        if form.degree != box.dim:
            raise ValueError(
                f"form degree {form.degree} does not match patch dimension {box.dim}"
            )
        if form.dim != box.dim:
            raise ValueError("form must live on the patch parameters")


def _node_sum(weights: Optional[np.ndarray], values: np.ndarray) -> float:
    """The sum of ``weight * value``, added in a loop in node order (numpy's
    sum and dot add pairwise, in another order); a point (weights None)
    gives its one value."""
    values = values.tolist()
    if weights is None:
        return values[0]
    total = 0.0
    for w, value in zip(weights.tolist(), values):
        total += w * value
    return total


class FaceError(ValueError):
    """A ``ValueError`` at a node of a face pass, with its message; ``face``
    is the face the node lies on."""

    def __init__(self, face: FacePatch, error: ValueError):
        super().__init__(str(error))
        self.face = face


def on_faces(
    fn: Callable[[Tuple], Any],
    faces: Sequence[FacePatch],
    nodes: np.ndarray,
    width: Optional[int] = None,
) -> List[np.ndarray]:
    """``fn`` at every row of ``nodes`` on each of ``faces`` in turn (a group
    of :func:`face_groups`), from one pass of
    :func:`jetstress.fields.on_nodes`: each face's rows of results.

    Each row of the pass carries one more column, its face's position in
    ``faces``, for a pair its side.  The pass splits it off and opens it as
    the side while ``fn`` reads the rest, so a face of both sides reads each
    node on its own side (see :meth:`BoxFace.pick`) with the operations of
    that face's own pass.  A ``ValueError`` at a node is raised again as
    :class:`FaceError`, naming the node's face.
    """
    sides = np.repeat(np.arange(len(faces), dtype=float), len(nodes))
    failed = [0]  # the face of the last node read alone: the one a ValueError comes from

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
        values = on_nodes(read, np.column_stack([np.tile(nodes, (len(faces), 1)), sides]), width)
    except ValueError as exc:
        raise FaceError(faces[failed[0]], exc) from exc
    return np.split(values, len(faces))
