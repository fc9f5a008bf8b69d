"""Smooth fields, a small tensor-field algebra, and the jet-extraction /
finite-difference pair.

A :class:`SmoothField` maps ``(point, order)`` to one truncated Taylor
series per component.  Fields built from monomial tables (through
:func:`monomial_map`, which scenario files use too) or expression strings
differentiate exactly, and so does every field derived from them.

A :class:`TensorField` lays a row-major tensor shape over those components.
The stress identities are written in four operations on it:

- ``gradient()``: every partial derivative, from one evaluation at order + 1;
- ``divergence()``: the sum over j of the partial j of ``T[..., j]``;
- ``signed(axis, perm)``: an optional axis permutation, then the factor
  ``(-1)**index`` along one axis (contraction into the volume form);
- :func:`pair`: the sum of ``C[idx + out] * A[idx]`` over (C, A) blocks; a
  block (C, A, 1) pairs C with the gradient of A.

Each operation builds its flat index table once, when it is constructed,
and evaluates each input field once per (point, order).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .exprs import parse_expression
from .taylor import Coordinates, MultiIndex, TruncatedSeries

__all__ = [
    "SmoothField",
    "TensorField",
    "JetValue",
    "pair",
    "linear_field",
    "monomial_map",
    "jet_extension",
    "finite_difference_jet",
]

Point = Tuple[float, ...]
Evaluator = Callable[[Point, int], List[TruncatedSeries]]
# One term of a linear map: (source component, partial axis or None, factor or None).
Term = Tuple[int, Optional[int], Optional[float]]


def coordinate_series(point: Sequence[float], order: int) -> Coordinates:
    """Identity chart functions expanded about ``point``, with their power memo."""
    dim = len(point)
    return Coordinates(
        TruncatedSeries.variable(dim, order, axis, float(point[axis])) for axis in range(dim)
    )


def monomial_map(table: Sequence[Tuple[Sequence[int], float]]) -> Callable:
    """Series-level evaluator of a monomial table ``[(exponents, coefficient), ...]``.

    Each power ``x_i ** e`` comes from the coordinates' memo, so the
    components of one field share it.  A term starts as ``power * coef``,
    which gives the bits and key order of ``constant(coef) * power``.
    """

    # Per monomial: its coefficient and its (axis, exponent) factors.
    terms = [(coef, [(axis, e) for axis, e in enumerate(exps) if e]) for exps, coef in table]

    def monomial_fn(variables: Sequence[TruncatedSeries]) -> TruncatedSeries:
        variables = Coordinates.of(variables)
        dim = variables[0].dim
        order = variables[0].order
        power = variables.power
        total = TruncatedSeries.zero(dim, order)
        for coef, factors in terms:
            if not factors:
                total = total + TruncatedSeries.constant(dim, order, coef)
                continue
            term = power(*factors[0]) * coef
            for axis, e in factors[1:]:
                term = term * power(axis, e)
            total = total + term
        return total

    return monomial_fn


def linear_field(base: "SmoothField", shift: int, rows: Sequence[Sequence[Term]]) -> "SmoothField":
    """Output component k sums the terms ``rows[k]`` of ``base`` at order + shift.

    A term takes one source component, optionally its partial derivative
    (which lowers the order by one; use it with ``shift=1``), optionally
    times a factor.  An empty row is the zero series.
    """
    rows = [tuple(row) for row in rows]
    dim = base.dim

    def evaluator(point: Point, order: int) -> List[TruncatedSeries]:
        series = base.series_at(point, order + shift)
        out = []
        for row in rows:
            total = None
            for src, axis, factor in row:
                term = series[src] if axis is None else series[src].partial(axis)
                if factor is not None:
                    term = term * factor
                total = term if total is None else total + term
            out.append(TruncatedSeries.zero(dim, order) if total is None else total)
        return out

    return SmoothField(dim, len(rows), evaluator)


class SmoothField:
    """A map from an n-dimensional chart domain to R^m with exact jets.

    Attributes:
        dim: number of input coordinates.
        ncomp: number of output components.
    """

    __slots__ = ("dim", "ncomp", "_evaluator")

    def __init__(self, dim: int, ncomp: int, evaluator: Evaluator):
        if dim < 1 or ncomp < 1:
            raise ValueError("dim and ncomp must be positive")
        self.dim = dim
        self.ncomp = ncomp
        self._evaluator = evaluator

    # -- evaluation ----------------------------------------------------------

    def series_at(self, point: Sequence[float], order: int) -> List[TruncatedSeries]:
        point = tuple(float(c) for c in point)
        if len(point) != self.dim:
            raise ValueError(f"point has dim {len(point)}, field expects {self.dim}")
        series = self._evaluator(point, order)
        if len(series) != self.ncomp:
            raise RuntimeError("field evaluator returned wrong component count")
        for s in series:
            if s.dim != self.dim or s.order != order:
                raise RuntimeError("field evaluator returned mismatched series")
        return series

    def values_at(self, point: Sequence[float]) -> np.ndarray:
        return np.array([s.value for s in self.series_at(point, 0)])

    def jet_at(self, point: Sequence[float], order: int) -> "JetValue":
        return jet_extension(self, point, order)

    # -- derived fields --------------------------------------------------------

    def partial(self, axis: int) -> "SmoothField":
        """Componentwise partial derivative along coordinate ``axis``."""
        if not 0 <= axis < self.dim:
            raise ValueError(f"axis {axis} out of range")
        return linear_field(self, 1, [[(c, axis, None)] for c in range(self.ncomp)])

    def compose(self, inner: "SmoothField") -> "SmoothField":
        """The composite field ``self(inner(.))``."""
        if inner.ncomp != self.dim:
            raise ValueError(
                f"composition mismatch: inner has {inner.ncomp} components, "
                f"outer expects {self.dim} inputs"
            )
        outer = self

        def evaluator(point: Point, order: int) -> List[TruncatedSeries]:
            inner_series = inner.series_at(point, order)
            center = tuple(s.value for s in inner_series)
            offsets = [s - s.value for s in inner_series]
            outer_series = outer.series_at(center, order)
            return [s.compose(offsets) for s in outer_series]

        return SmoothField(inner.dim, self.ncomp, evaluator)

    def component(self, index: int) -> "SmoothField":
        return linear_field(self, 0, [[(index, None, None)]])

    def __add__(self, other: "SmoothField") -> "SmoothField":
        if self.dim != other.dim or self.ncomp != other.ncomp:
            raise ValueError("field shapes do not match")
        a, b = self, other

        def evaluator(point: Point, order: int) -> List[TruncatedSeries]:
            return [x + y for x, y in zip(a.series_at(point, order), b.series_at(point, order))]

        return SmoothField(self.dim, self.ncomp, evaluator)

    def __sub__(self, other: "SmoothField") -> "SmoothField":
        return self + other.scale(-1.0)

    def scale(self, factor: float) -> "SmoothField":
        factor = float(factor)
        return linear_field(self, 0, [[(c, None, factor)] for c in range(self.ncomp)])

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_series_maps(
        cls, dim: int, maps: Sequence[Callable[[List[TruncatedSeries]], TruncatedSeries]]
    ) -> "SmoothField":
        """Build from per-component functions of the coordinate series."""
        maps = list(maps)

        def evaluator(point: Point, order: int) -> List[TruncatedSeries]:
            variables = coordinate_series(point, order)
            return [fn(variables) for fn in maps]

        return cls(dim, len(maps), evaluator)

    @classmethod
    def constant(cls, dim: int, values: Sequence[float]) -> "SmoothField":
        values = [float(v) for v in values]

        def evaluator(point: Point, order: int) -> List[TruncatedSeries]:
            return [TruncatedSeries.constant(dim, order, v) for v in values]

        return cls(dim, len(values), evaluator)

    @classmethod
    def coordinates(cls, dim: int) -> "SmoothField":
        return cls(dim, dim, coordinate_series)

    @classmethod
    def from_polynomials(
        cls, dim: int, components: Sequence[Sequence[Tuple[Sequence[int], float]]]
    ) -> "SmoothField":
        """Each component is a monomial table [(exponents, coefficient), ...]."""
        return cls.from_series_maps(dim, [
            monomial_map([(MultiIndex(exps), float(coef)) for exps, coef in comp])
            for comp in components
        ])

    @classmethod
    def from_expressions(cls, dim: int, expressions: Sequence[str]) -> "SmoothField":
        return cls.from_series_maps(dim, [parse_expression(text, dim) for text in expressions])

    @staticmethod
    def stack(fields: Sequence["SmoothField"]) -> "SmoothField":
        fields = list(fields)
        dim = fields[0].dim
        if any(f.dim != dim for f in fields):
            raise ValueError("stacked fields must share the input dimension")
        ncomp = sum(f.ncomp for f in fields)

        def evaluator(point: Point, order: int) -> List[TruncatedSeries]:
            out: List[TruncatedSeries] = []
            for f in fields:
                out.extend(f.series_at(point, order))
            return out

        return SmoothField(dim, ncomp, evaluator)


def _size(shape: Tuple[int, ...]) -> int:
    return int(np.prod(shape)) if shape else 1


@dataclass(frozen=True)
class TensorField:
    """A SmoothField with a tensor shape layered on its flat component list.

    Components are stored row-major: ``component index = ravel(shape index)``.
    """

    field: SmoothField
    shape: Tuple[int, ...]

    def __post_init__(self):
        if _size(self.shape) != self.field.ncomp:
            raise ValueError(f"shape {self.shape} needs {_size(self.shape)} components, "
                             f"field has {self.field.ncomp}")

    @property
    def dim(self) -> int:
        return self.field.dim

    def at(self, point: Sequence[float]) -> np.ndarray:
        return self.field.values_at(point).reshape(self.shape)

    def series_at(self, point: Sequence[float], order: int) -> np.ndarray:
        flat = self.field.series_at(point, order)
        out = np.empty(len(flat), dtype=object)
        out[:] = flat
        return out.reshape(self.shape)

    def partial(self, axis: int) -> "TensorField":
        return TensorField(self.field.partial(axis), self.shape)

    def compose(self, inner: SmoothField) -> "TensorField":
        return TensorField(self.field.compose(inner), self.shape)

    def component(self, index: Tuple[int, ...]) -> SmoothField:
        flat = int(np.ravel_multi_index(index, self.shape)) if self.shape else 0
        return self.field.component(flat)

    # -- algebra -----------------------------------------------------------------

    def _check_same(self, other: "TensorField") -> None:
        if self.shape != other.shape:
            raise ValueError(f"tensor shapes {self.shape} and {other.shape} differ")

    def __add__(self, other: "TensorField") -> "TensorField":
        self._check_same(other)
        return TensorField(self.field + other.field, self.shape)

    def __sub__(self, other: "TensorField") -> "TensorField":
        self._check_same(other)
        return TensorField(self.field - other.field, self.shape)

    def scale(self, factor: float) -> "TensorField":
        return TensorField(self.field.scale(factor), self.shape)

    def gradient(self) -> "TensorField":
        """Shape ``shape + (n,)``: entry ``[..., i]`` is the partial along axis i."""
        n = self.dim
        rows = [[(c, i, None)] for c in range(self.field.ncomp) for i in range(n)]
        return TensorField(linear_field(self.field, 1, rows), self.shape + (n,))

    def divergence(self) -> "TensorField":
        """Shape ``shape[:-1]``: the sum over j of the partial j of ``T[..., j]``."""
        if not self.shape or self.shape[-1] != self.dim:
            raise ValueError(f"divergence needs a last axis of length {self.dim}")
        n = self.dim
        rows = [[(c * n + j, j, None) for j in range(n)] for c in range(self.field.ncomp // n)]
        return TensorField(linear_field(self.field, 1, rows), self.shape[:-1])

    def signed(self, axis: Optional[int], perm: Optional[Sequence[int]] = None) -> "TensorField":
        """Permute the axes as ``numpy.transpose(T, perm)``, then multiply each
        entry ``out[idx]`` by ``(-1)**idx[axis]``; ``axis=None`` only permutes."""
        perm = tuple(range(len(self.shape))) if perm is None else tuple(perm)
        if sorted(perm) != list(range(len(self.shape))):
            raise ValueError(f"{perm} is not a permutation of the axes of {self.shape}")
        out_shape = tuple(self.shape[p] for p in perm)
        rows = []
        for idx in np.ndindex(*out_shape):
            src = [0] * len(perm)
            for k, p in enumerate(perm):
                src[p] = idx[k]
            odd = axis is not None and idx[axis] % 2
            flat = int(np.ravel_multi_index(src, self.shape))
            rows.append([(flat, None, -1.0 if odd else None)])
        return TensorField(linear_field(self.field, 0, rows), out_shape)

    @classmethod
    def zero(cls, dim: int, shape: Tuple[int, ...]) -> "TensorField":
        return cls(SmoothField.constant(dim, [0.0] * _size(shape)), shape)


def pair(blocks: Sequence[Tuple]) -> TensorField:
    """The sum over blocks of ``C[idx + out] * A[idx]``, shaped like ``out``.

    A block is ``(C, A)``, or ``(C, A, 1)`` to pair ``C`` with the gradient
    of ``A`` (shape ``A.shape + (n,)``, as ``A.gradient()``) taken from the
    same evaluation as the value of ``A``.  ``C`` has the shape of the paired
    array followed by the output shape, the same for every block.  For each
    output entry the products are summed depth-first over ``idx`` (an index
    before its extensions), and in block order at a shared ``idx``.  Each
    distinct field is evaluated once per call, at order + 1 if a block takes
    its gradient.
    """
    blocks = [tuple(block) + (0,) * (3 - len(block)) for block in blocks]
    c0, a0, k0 = blocks[0]
    n = c0.dim
    out_shape = c0.shape[len(a0.shape) + k0:]
    fields: List[SmoothField] = []
    lift: List[int] = []  # per field: 1 when some block takes its gradient
    reads: Dict[Tuple[int, int, Optional[int]], int] = {}  # (field, component, axis) -> slot

    def slot(tensor: TensorField, k: int) -> int:
        for s, f in enumerate(fields):
            if f is tensor.field:
                lift[s] = max(lift[s], k)
                return s
        fields.append(tensor.field)
        lift.append(k)
        return len(fields) - 1

    terms = []
    for b, (c, a, k) in enumerate(blocks):
        shape = a.shape + (n,) * k
        if c.dim != n or a.dim != n:
            raise ValueError("paired fields live on different chart dimensions")
        if k not in (0, 1) or c.shape != shape + out_shape:
            raise ValueError(f"cannot pair shape {c.shape} with {shape} into {out_shape}")
        cs, as_ = slot(c, 0), slot(a, k)
        for flat, idx in enumerate(np.ndindex(*shape)):  # row-major
            a_key = (as_, flat // n, flat % n) if k else (as_, flat, None)
            terms.append((idx, b, cs, flat * _size(out_shape), a_key))
    terms.sort(key=lambda t: (t[0], t[1]))
    table = [
        [(reads.setdefault((cs, c_base + o, None), len(reads)), reads.setdefault(a_key, len(reads)))
         for _, _, cs, c_base, a_key in terms]
        for o in range(_size(out_shape))
    ]

    def evaluator(point: Point, order: int) -> List[TruncatedSeries]:
        series = [f.series_at(point, order + up) for f, up in zip(fields, lift)]
        values = [
            series[s][i].truncate(order) if axis is None else series[s][i].partial(axis)
            for s, i, axis in reads
        ]
        out = []
        for row in table:
            total = None
            for ci, ai in row:
                term = values[ci] * values[ai]
                total = term if total is None else total + term
            out.append(total)
        return out

    return TensorField(SmoothField(n, len(table), evaluator), out_shape)


@dataclass(frozen=True)
class JetValue:
    """Pointwise derivative arrays of a field up to a given order.

    ``arrays[p]`` has shape ``(d,) + (n,)*p`` and is symmetric in the
    trailing axes by construction.
    """

    dim: int
    fiber_dim: int
    order: int
    arrays: Tuple[np.ndarray, ...]

    def array(self, p: int) -> np.ndarray:
        if not 0 <= p <= self.order:
            raise ValueError(f"order {p} outside jet range 0..{self.order}")
        return self.arrays[p]

    def truncated(self, order: int) -> "JetValue":
        if not 0 <= order <= self.order:
            raise ValueError(f"cannot project order-{self.order} jet to order {order}")
        return JetValue(self.dim, self.fiber_dim, order, self.arrays[: order + 1])

    @classmethod
    def zero(cls, dim: int, fiber_dim: int, order: int) -> "JetValue":
        arrays = tuple(
            np.zeros((fiber_dim,) + (dim,) * p) for p in range(order + 1)
        )
        return cls(dim, fiber_dim, order, arrays)

    @classmethod
    def from_series(cls, series: Sequence[TruncatedSeries], order: int) -> "JetValue":
        dim = series[0].dim
        d = len(series)
        arrays = [np.zeros((d,) + (dim,) * p) for p in range(order + 1)]
        for alpha, s in enumerate(series):
            for exps, coef in s.coeffs.items():
                p, factorial, slots = _derivative_slots(exps)
                if p > order:
                    continue
                value = coef * factorial
                for slot in slots:
                    arrays[p][(alpha,) + slot] = value
        return cls(dim, d, order, tuple(arrays))


@lru_cache(maxsize=None)
def _derivative_slots(exps: Tuple[int, ...]) -> Tuple[int, int, Tuple[Tuple[int, ...], ...]]:
    """Order, I!, and every derivative-array slot of the Taylor coefficient ``exps``."""
    index = MultiIndex(exps)
    slots = tuple(sorted(set(itertools.permutations(index.axes()))))
    return index.order, index.factorial(), slots


def jet_extension(field: SmoothField, point: Sequence[float], order: int) -> JetValue:
    """Exact derivative arrays of ``field`` at ``point`` up to ``order``."""
    if order < 0:
        raise ValueError("jet order must be >= 0")
    series = field.series_at(point, order)
    return JetValue.from_series(series, order)


def finite_difference_jet(
    field: SmoothField, point: Sequence[float], order: int, step: float = 1e-4
) -> JetValue:
    """Central-difference estimate of the jet, an oracle for ``jet_extension``.

    Supports orders 0..2; exact for quadratics up to roundoff.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    if not 0 <= order <= 2:
        raise ValueError("finite differences implemented for orders 0..2 only")
    point = tuple(float(c) for c in point)
    n = field.dim

    def val(p: Sequence[float]) -> np.ndarray:
        return field.values_at(p)

    def shift(base: Point, axis: int, amount: float) -> Point:
        out = list(base)
        out[axis] += amount
        return tuple(out)

    arrays = [val(point)]
    d = arrays[0].shape[0]
    if order >= 1:
        a1 = np.zeros((d, n))
        for i in range(n):
            a1[:, i] = (val(shift(point, i, step)) - val(shift(point, i, -step))) / (2 * step)
        arrays.append(a1)
    if order >= 2:
        a2 = np.zeros((d, n, n))
        center = arrays[0]
        for i in range(n):
            a2[:, i, i] = (
                val(shift(point, i, step)) - 2 * center + val(shift(point, i, -step))
            ) / step**2
            for j in range(i + 1, n):
                pp = val(shift(shift(point, i, step), j, step))
                pm = val(shift(shift(point, i, step), j, -step))
                mp = val(shift(shift(point, i, -step), j, step))
                mm = val(shift(shift(point, i, -step), j, -step))
                mixed = (pp - pm - mp + mm) / (4 * step**2)
                a2[:, i, j] = mixed
                a2[:, j, i] = mixed
        arrays.append(a2)
    return JetValue(n, d, order, tuple(arrays))
