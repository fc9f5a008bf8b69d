"""Charts, oriented box bodies, alternating forms, pullbacks, and quadrature.

Bodies are reference boxes carried into a chart by an optional smooth patch
map, so integration always happens on boxes with tensor-product
Gauss-Legendre rules.  Boundary faces carry the orientation induced by the
body (outward for the standard volume form), and the boundary pieces of a
face carry the orientation the face induces on them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple, Union

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
    "interior_product",
    "pullback_form_value",
    "pullback_coefficients",
    "integrate",
    "integrate_over",
    "integrate_face",
    "boundary_faces",
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


def pullback_form_value(form: FormValue, jacobian: np.ndarray) -> FormValue:
    """Pull a p-covector back through a linear map with the given Jacobian.

    ``jacobian[i][a]`` is the derivative of target coordinate ``i`` with
    respect to source coordinate ``a``; the result lives on the source.
    """
    target_dim, source_dim = jacobian.shape
    if target_dim != form.dim:
        raise ValueError("jacobian rows must match the form dimension")
    degree = form.degree
    out: Dict[IndexTuple, float] = {}
    for key_src in increasing_tuples(source_dim, degree):
        total = 0.0
        for key_tgt, val in form.coeffs.items():
            sub = jacobian[np.ix_(key_tgt, key_src)]
            total += val * (np.linalg.det(sub) if degree else 1.0)
        out[key_src] = total
    return FormValue(source_dim, degree, out)


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


@dataclass(frozen=True)
class BoxFace:
    """One facet of a box, with the orientation Stokes induces on it."""

    box: Box
    axis: int
    side: int  # 0 lower, 1 upper

    @property
    def sign(self) -> float:
        base = (-1.0) ** self.axis
        return base if self.side else -base

    @property
    def param_box(self) -> Optional[Box]:
        return self.box.drop_axis(self.axis)

    @property
    def fixed_value(self) -> float:
        return self.box.upper[self.axis] if self.side else self.box.lower[self.axis]

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
    sign: float
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
    out = []
    for bf in box_faces(box):
        label = prefix + face_label(bf.axis, bf.side)
        if box.dim == 1:
            pt = bf.point()
            pt = tuple(patch.values_at(pt)) if patch is not None else pt
            out.append(FacePatch(label, chart, None, None, bf.sign, boxface=bf, point=pt))
            continue
        mapping = bf.insertion()
        if patch is not None:
            mapping = patch.compose(mapping)
        out.append(FacePatch(label, chart, bf.param_box, mapping, bf.sign, boxface=bf))
    return out


def boundary_faces(body: Body) -> List[FacePatch]:
    """The 2n oriented facets whose signed sum realizes the Stokes boundary."""
    return _facets(body.box, body.chart, body.patch)


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
    (side 0) or upper (side 1) bound.  A pullback through it selects keys
    (see :func:`pullback_coefficients`)."""

    __slots__ = ("free", "renamed")

    def __init__(self, box: Box, fixed: Dict[int, int]):
        dim = box.dim
        inner_dim = dim - len(fixed)

        def evaluator(point, order):
            series = []
            src = 0
            for axis in range(dim):
                if axis in fixed:
                    value = box.upper[axis] if fixed[axis] else box.lower[axis]
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
    forms: Sequence[FormField], box: Box, rule: QuadratureRule, sign: float = 1.0
) -> List[float]:
    """The integral of each top-degree form over one parameter box, times
    ``sign``, from one pass over the nodes, so the forms share the sub-fields
    they read (see :func:`jetstress.fields.on_nodes`).  Each integral is
    summed on its own, in node order."""
    _check_top_degree(forms, box)
    full = tuple(range(box.dim))
    nodes, weights = rule.nodes_weights(box)
    values = on_nodes(
        lambda point: [form.value_at(point).coefficient(full) for form in forms],
        nodes, len(forms),
    )
    weights = weights.tolist()
    return [sign * _weighted_sum(weights, column) for column in values.T.tolist()]


def integrate_over(
    forms: Sequence[FormField], region: Union[Body, FacePatch], rule: QuadratureRule
) -> List[float]:
    """The integral of each chart form over a body (volume forms) or a face
    ((n-1)-forms): each is pulled back through the region's map, the body's
    patch if it has one or the face's ``to_chart``, and all are integrated
    over its parameter box in one pass (see :func:`integrate`), times the
    face's sign.  A point face, of a 1-dim body, gives each 0-form's value
    at its point times its sign."""
    if isinstance(region, Body):
        if region.patch is not None:
            forms = [form.pullback(region.patch) for form in forms]
        return integrate(forms, region.box, rule)
    if region.param_box is None:
        return [region.sign * form.value_at(region.point).coefficient(()) for form in forms]
    forms = [form.pullback(region.to_chart) for form in forms]
    return integrate(forms, region.param_box, rule, region.sign)


def _check_top_degree(forms: Sequence[FormField], box: Box) -> None:
    for form in forms:
        if form.degree != box.dim:
            raise ValueError(
                f"form degree {form.degree} does not match patch dimension {box.dim}"
            )
        if form.dim != box.dim:
            raise ValueError("form must live on the patch parameters")


def _weighted_sum(weights: List[float], values: List[float]) -> float:
    # A loop in node order: numpy's sum and dot add pairwise, in another order.
    total = 0.0
    for w, value in zip(weights, values):
        total += w * value
    return total


def integrate_face(
    forms: Sequence[FormField], edge_form: FormField, face: FacePatch, rule: QuadratureRule
) -> Tuple[List[float], List[float]]:
    """The integral of each top-degree form of the face over it, as
    ``integrate(forms, face.param_box, rule, face.sign)``, and of the face
    form ``edge_form``, one degree lower, over each piece of
    :func:`face_boundary_pieces`, in its order, times the piece's sign.

    A piece pulls ``edge_form`` back through its insertion, whose minor on the
    piece's free tuple is the constant 1.0 and on every other tuple the zero
    series; so the pullback is the coefficient on the free tuple, with its
    bits.  One pass of :func:`jetstress.fields.on_nodes` reads every piece's
    nodes, written in face coordinates (one node for an endpoint of a 1-dim
    face), then the face's nodes, and reads every form and the coefficients
    of ``edge_form`` at each, so they share the sub-fields they read.  Each
    integral is summed in node order.
    """
    box = face.param_box
    _check_top_degree(forms, box)
    pieces = face_boundary_pieces(face)
    parts = []  # (nodes, weights) of each piece, None weights for a point, then the face's
    for piece in pieces:
        if piece.param_box is None:
            parts.append((np.array([piece.point]), None))
            continue
        nodes, weights = rule.nodes_weights(piece.param_box)
        parts.append((np.insert(nodes, piece.boxface.axis, piece.boxface.fixed_value, axis=1),
                      weights))
    parts.append(rule.nodes_weights(box))
    full = tuple(range(box.dim))
    values = on_nodes(
        lambda point: [form.value_at(point).coefficient(full) for form in forms]
        + edge_form.coeffs.values_on(point),
        np.concatenate([nodes for nodes, _ in parts]), len(forms) + len(edge_form.tuples),
    )
    columns = {key: len(forms) + c for c, key in enumerate(edge_form.tuples)}
    out = []
    start = 0
    for piece, (nodes, weights) in zip(pieces, parts):
        rows = values[start:start + len(nodes)]
        start += len(nodes)
        column = columns.get(tuple_omitting(edge_form.dim, piece.boxface.axis))
        read = [0.0] * len(nodes) if column is None else rows[:, column].tolist()
        value = read[0] if weights is None else _weighted_sum(weights.tolist(), read)
        out.append(piece.sign * value)
    weights = parts[-1][1].tolist()
    face_values = [face.sign * _weighted_sum(weights, values[start:, c].tolist())
                   for c in range(len(forms))]
    return face_values, out
