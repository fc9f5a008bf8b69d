"""Smooth fields, a small tensor-field algebra, and the jet-extraction /
finite-difference pair.

A :class:`SmoothField` maps ``(point, order)`` to one truncated Taylor
series per component.  Fields built from leaves (numbers, monomial tables
through :func:`monomial_map`, or expression strings) differentiate exactly,
and so does every field derived from them.  A leaf has two routes, made
once at load (see :meth:`SmoothField.from_series_maps`): reading values
(order 0), its value route computes each component's number from the
point's coordinates and their powers, with no coordinate series built, and
it is wrapped in one series; above order 0 its series route reads the
coordinate series, a monomial table through its product plan.  Both give
the bits of the series built step by step (see :mod:`jetstress.taylor`).

A :class:`TensorField` lays a row-major tensor shape over those components.
The stress identities are written in four operations on it:

- ``gradient()``: every partial derivative, from one evaluation at order + 1;
- ``divergence()``: the sum over j of the partial j of ``T[..., j]``;
- ``signed(axis, perm)``: an optional axis permutation, then the factor
  ``(-1)**index`` along one axis (contraction into the volume form);
- :func:`pair`: the sum of ``C[idx + out] * A[idx]`` over (C, A) blocks; a
  block (C, A, 1) pairs C with the gradient of A.

Each operation takes its flat index table when it is constructed, and
evaluates each input field once per (point, order).  The tables of
``signed`` and :func:`pair` depend on integers only (shapes, axes, slots),
so each is built once per process and shared, as tuples no field can
alter.  A stress or a jet section is a :class:`Blocks` record: named tensor
fields of shapes ``(d,) + (n,)*k``, declared once in its ``LAYOUT``.

A point is a tuple of coordinates, each a float, or for a batch of nodes an
array with one value per node (see :mod:`jetstress.taylor`).
:meth:`SmoothField.series_on` evaluates either; :meth:`SmoothField.series_at`
is the one-point entry.  :func:`on_nodes` evaluates a function of a point
over a node array, ``BATCH`` nodes at a time, and while it evaluates a batch
``series_on`` keeps each field's series at each point it reads, keyed by
the point's array objects, so a sub-field read by several parts of the
function at the same arrays is evaluated once; a content-equal copy of an
array is another point.  A read at a lower order than the one stored is
served by truncation, which keeps the coefficient arrays, so a function
that reads a field's highest order first evaluates it once, and a
composite's centre built from the series is the same arrays.  The memo
lives for its batch only: each pass of :func:`on_nodes`, a face group's
included, evaluates the fields it reads at its own points.
"""

from __future__ import annotations

import itertools
import math
from contextvars import ContextVar
from functools import lru_cache
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .exprs import parse_expression
from .taylor import (Coordinates, MonomialTable, PointValues, TruncatedSeries,
                     _coefficient, per_node)

__all__ = [
    "BATCH",
    "on_nodes",
    "fibre_sum",
    "as_point",
    "SmoothField",
    "TensorField",
    "Blocks",
    "JetValue",
    "pair",
    "linear_field",
    "monomial_map",
    "jets_on",
    "jet_extension",
    "finite_difference_jet",
]

Point = Tuple[float, ...]
Evaluator = Callable[[Point, int], List[TruncatedSeries]]
Leaf = Tuple[Any, Any]  # (value route, series route): closures, or a constant's float
# One term of a linear map: (source component, partial axis or None, factor or None).
Term = Tuple[int, Optional[int], Optional[float]]


# Most nodes :func:`on_nodes` evaluates at once: ``geometry.NODE_BUDGET``, so
# every rule within the budget is one batch.  The engine's Python work is paid
# once per batch and its array work once per node, and a larger batch kept
# gaining up to 4096 nodes (n = 3, q = 32 took 2.89 s at 256, 0.78 s at 1024
# and 0.38 s at 4096; n = 4, q = 12 took 4.07, 1.19 and 0.67 s).
BATCH = 4096


class _BatchMemo(dict):
    """The series evaluated so far in one batch: (field, point key) -> (point,
    series).  A point's key holds each node array's ``id`` and each float's
    hex (see :meth:`key`), and its entry holds the point, so no key's arrays
    are freed, and their ids reused, while the batch lives.  A point read
    through the same array objects finds the entry; a content-equal copy is
    another entry.

    An entry keeps the highest order read.  A request at order k <= m, the
    stored order, is served by the truncation to k: every coefficient of
    order <= k is computed at order m from the same inputs by the same
    operations in the same order, so it has the bits and key order of an
    evaluation at order k.  The truncation keeps the coefficient objects, so
    a point built from its values (a composite's centre) is the same arrays.
    """

    __slots__ = ()

    @staticmethod
    def key(point: Point) -> Optional[Tuple]:
        """Each node array's id and each float's hex; None for a point of
        floats only."""
        out = []
        batch = False
        for c in point:
            if per_node(c):
                out.append(id(c))
                batch = True
            else:
                out.append(float(c).hex())
        return tuple(out) if batch else None

    def series(self, key: Tuple, order: int) -> Optional[List[TruncatedSeries]]:
        stored = self.get(key)
        if stored is None or stored[1][0].order < order:
            return None
        return [s.truncate(order) for s in stored[1]]

    def put(self, key: Tuple, point: Point, series: List[TruncatedSeries]) -> None:
        self[key] = (point, list(series))


# The memo of the open batch, or None outside a batch.
_MEMO: ContextVar[Optional[_BatchMemo]] = ContextVar("batch_memo", default=None)


def on_nodes(
    fn: Callable[[Point], Any], nodes: np.ndarray, width: Optional[int] = None
) -> np.ndarray:
    """``fn`` at every row of ``nodes``, one float per node.

    ``fn`` takes a point (floats, or arrays over a batch) and returns a float,
    or one value per node of the batch; with ``width``, it returns a sequence
    of ``width`` such values, and the result has one row of them per node.
    The nodes go in batches of at most ``BATCH``, and each node's values have
    the bits of its one-node evaluation, signed zeros included, whichever
    nodes share its batch (see :mod:`jetstress.taylor`).  A batch is
    evaluated once; one that raises ``ValueError`` or ``ArithmeticError`` (a
    domain error, or pivot rows of different layouts in the transversal
    solve) is evaluated again node by node in order, so the first failing
    node raises its own error.  While a batch is evaluated,
    :meth:`SmoothField.series_on` keeps each field's series at each point it
    reads, so a sub-field that several parts of ``fn`` read at the same
    arrays is evaluated once per batch.
    """
    nodes = np.asarray(nodes, dtype=float)
    out = np.empty(len(nodes) if width is None else (len(nodes), width))
    for start in range(0, len(nodes), BATCH):
        batch = nodes[start:start + BATCH]
        rows = slice(start, start + len(batch))
        values = None  # a batch of one is read as its node
        if len(batch) > 1:
            try:
                values = _evaluate_batch(fn, tuple(batch.T.copy()))
            except (ValueError, ArithmeticError):
                pass
        if values is None:
            for i, node in enumerate(batch, start):
                out[i] = fn(tuple(float(c) for c in node))
        elif width is None:
            out[rows] = values
        else:
            for column, value in enumerate(values):
                out[rows, column] = value
    return out


def _evaluate_batch(fn: Callable[[Point], Any], point: Point) -> Any:
    """``fn(point)`` with a fresh memo open while it runs; the memo is dropped
    when it returns or raises."""
    token = _MEMO.set(_BatchMemo())
    try:
        # Float arithmetic overflows and makes NaN without a warning; so do arrays here.
        with np.errstate(all="ignore"):
            return fn(point)
    finally:
        _MEMO.reset(token)


def as_point(point: Sequence[Any]) -> Point:
    """``point`` as a tuple of floats, node arrays kept as they are."""
    return tuple(c if per_node(c) else float(c) for c in point)


def fibre_sum(terms: Sequence[Any]) -> Any:
    """``numpy.sum`` of the terms at each node, as one node's ``numpy.sum``
    of its terms adds them.  Each term is a float or one value per node."""
    return np.sum(np.stack(np.broadcast_arrays(*terms), axis=-1), axis=-1)


def coordinate_series(point: Sequence[float], order: int) -> Coordinates:
    """Identity chart functions expanded about ``point``, with their power memo.

    Each is the series :meth:`TruncatedSeries.variable` builds, its keys in
    that order (the coordinate's value, then above order 0 the unit key
    holding 1.0), built without its shape checks.
    """
    dim = len(point)
    zero = (0,) * dim
    if not order:
        return Coordinates(TruncatedSeries._trusted(dim, 0, {zero: _coefficient(c)}) for c in point)
    return Coordinates(
        TruncatedSeries._trusted(
            dim, order, {zero: _coefficient(c), zero[:axis] + (1,) + zero[axis + 1:]: 1.0})
        for axis, c in enumerate(point)
    )


def monomial_map(table: Sequence[Tuple[Sequence[int], float]]) -> Leaf:
    """The leaf of a monomial table ``[(exponents, coefficient), ...]``: its
    value route and its series route, which runs product plans (see
    :class:`MonomialTable`)."""
    monomials = MonomialTable(table)
    return monomials.value, monomials.series


def linear_field(base: "SmoothField", shift: int, rows: Sequence[Sequence[Term]]) -> "SmoothField":
    """Output component k sums the terms ``rows[k]`` of ``base`` at order + shift.

    A term takes one source component, optionally its partial derivative
    (which lowers the order by one; use it with ``shift=1``), optionally
    times a factor.  An empty row is the zero series.
    """
    rows = [tuple(row) for row in rows]
    dim = base.dim

    def evaluator(point: Point, order: int) -> List[TruncatedSeries]:
        series = base.series_on(point, order + shift)
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
        """The series at a point, its coordinates made floats (node arrays pass as
        they are, for evaluators that call it on the point they are given)."""
        return self.series_on(as_point(point), order)

    def series_on(self, point: Sequence[Any], order: int) -> List[TruncatedSeries]:
        """The series at a point whose coordinates are floats or node arrays; the
        entry the package's own evaluators use.  Inside a batch of
        :func:`on_nodes`, a point with a node array is evaluated once per
        field and point objects, and not at all at or below the order
        stored: later calls at that point get the stored series, truncated
        to their order, in a new list (see :class:`_BatchMemo`)."""
        if len(point) != self.dim:
            raise ValueError(f"point has dim {len(point)}, field expects {self.dim}")
        point = tuple(point)
        memo = _MEMO.get()
        key = None
        if memo is not None:
            key = memo.key(point)
            if key is not None:
                key = (self, key)
                hit = memo.series(key, order)
                if hit is not None:
                    return hit
        series = self._evaluator(point, order)
        if len(series) != self.ncomp:
            raise RuntimeError("field evaluator returned wrong component count")
        for s in series:
            if s.dim != self.dim or s.order != order:
                raise RuntimeError("field evaluator returned mismatched series")
        if key is not None:
            memo.put(key, point, series)
        return series

    def values_at(self, point: Sequence[float]) -> np.ndarray:
        return np.array([s.value for s in self.series_at(point, 0)])

    def values_on(self, point: Sequence[Any]) -> List[Any]:
        """Each component's value at a point whose coordinates are floats or node arrays."""
        return [s.value for s in self.series_on(point, 0)]

    # -- derived fields --------------------------------------------------------

    def compose(self, inner: "SmoothField") -> "SmoothField":
        """The composite field ``self(inner(.))``."""
        if inner.ncomp != self.dim:
            raise ValueError(
                f"composition mismatch: inner has {inner.ncomp} components, "
                f"outer expects {self.dim} inputs"
            )
        outer = self

        def evaluator(point: Point, order: int) -> List[TruncatedSeries]:
            inner_series = inner.series_on(point, order)
            center = tuple(s.value for s in inner_series)
            offsets = [s.offset() for s in inner_series]
            outer_series = outer.series_on(center, order)
            return [s.compose(offsets) for s in outer_series]

        return SmoothField(inner.dim, self.ncomp, evaluator)

    def __add__(self, other: "SmoothField") -> "SmoothField":
        if self.dim != other.dim or self.ncomp != other.ncomp:
            raise ValueError("field shapes do not match")
        a, b = self, other

        def evaluator(point: Point, order: int) -> List[TruncatedSeries]:
            return [x + y for x, y in zip(a.series_on(point, order), b.series_on(point, order))]

        return SmoothField(self.dim, self.ncomp, evaluator)

    def __sub__(self, other: "SmoothField") -> "SmoothField":
        return self + other.scale(-1.0)

    def scale(self, factor: float) -> "SmoothField":
        factor = float(factor)
        return linear_field(self, 0, [[(c, None, factor)] for c in range(self.ncomp)])

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_series_maps(cls, dim: int, leaves: Sequence[Leaf]) -> "SmoothField":
        """Build from one leaf per component (see ``Leaf``).  At order 0 each
        value route reads one :class:`PointValues` record of the point, and
        each value is wrapped once, None as a series with no key; above it
        each series route reads the coordinate series and their powers."""
        leaves = list(leaves)
        zero = (0,) * dim

        def evaluator(point: Point, order: int) -> List[TruncatedSeries]:
            if order:
                variables = coordinate_series(point, order)
                return [TruncatedSeries.constant(dim, order, series) if series.__class__ is float
                        else series(variables) for _, series in leaves]
            values = PointValues(map(_coefficient, point))
            out = []
            for value, _ in leaves:
                if value.__class__ is not float:
                    value = value(values)
                out.append(TruncatedSeries._trusted(dim, 0, {} if value is None else {zero: value}))
            return out

        return cls(dim, len(leaves), evaluator)

    @classmethod
    def constant(cls, dim: int, values: Sequence[float]) -> "SmoothField":
        """One constant per component: float leaves of :meth:`from_series_maps`."""
        return cls.from_series_maps(dim, [(v, v) for v in map(float, values)])

    @classmethod
    def from_expressions(cls, dim: int, expressions: Sequence[str]) -> "SmoothField":
        return cls.from_series_maps(dim, [parse_expression(text, dim) for text in expressions])


def _size(shape: Tuple[int, ...]) -> int:
    return math.prod(shape)


class TensorField:
    """A SmoothField with a tensor shape layered on its flat component list.

    Components are stored row-major: ``component index = ravel(shape index)``.
    """

    __slots__ = ("field", "shape")

    def __init__(self, field: SmoothField, shape: Tuple[int, ...]):
        if _size(shape) != field.ncomp:
            raise ValueError(f"shape {shape} needs {_size(shape)} components, "
                             f"field has {field.ncomp}")
        self.field, self.shape = field, shape

    @property
    def dim(self) -> int:
        return self.field.dim

    def at(self, point: Sequence[float]) -> np.ndarray:
        return self.field.values_at(point).reshape(self.shape)

    def compose(self, inner: SmoothField) -> "TensorField":
        return TensorField(self.field.compose(inner), self.shape)

    # -- algebra -----------------------------------------------------------------

    def _check_same(self, other: "TensorField") -> None:
        if self.shape != other.shape:
            raise ValueError(f"tensor shapes {self.shape} and {other.shape} differ")

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
        out_shape, rows = _signed_rows(self.shape, axis, perm)
        return TensorField(linear_field(self.field, 0, rows), out_shape)


@lru_cache(maxsize=None)
def _signed_rows(shape: Tuple[int, ...], axis: Optional[int],
                 perm: Tuple[int, ...]) -> Tuple[Tuple[int, ...], Tuple[Tuple[Term], ...]]:
    """The output shape of :meth:`TensorField.signed` and its rows of
    :func:`linear_field`, in the output's row-major order: the source entry
    of each output entry, with the factor -1.0 where its index on ``axis``
    is odd.  Built once per shape, axis and permutation."""
    out_shape = tuple(shape[p] for p in perm)
    rows = []
    for idx in np.ndindex(*out_shape):
        src = [0] * len(perm)
        for k, p in enumerate(perm):
            src[p] = idx[k]
        odd = axis is not None and idx[axis] % 2
        flat = int(np.ravel_multi_index(src, shape))
        rows.append(((flat, None, -1.0 if odd else None),))
    return out_shape, tuple(rows)


class Blocks:
    """A record of tensor blocks over one chart.

    A subclass declares ``LAYOUT``: the name of each block, in constructor
    order, with its number k of chart axes.  Every block has shape
    ``(d,) + (n,)*k`` and lives on the chart of dimension n; d and n are read
    from the first block.
    """

    __slots__ = ()
    LAYOUT: Tuple[Tuple[str, int], ...] = ()

    def __init__(self, *blocks: TensorField):
        first = blocks[0]
        d = first.shape[0] if first.shape else None  # no shape matches a missing d
        n = first.dim
        expected = [(d,) + (n,) * k for _, k in self.LAYOUT]
        actual = [block.shape for block in blocks]
        if actual != expected or any(block.dim != n for block in blocks):
            raise ValueError(
                f"{type(self).__name__} blocks have shapes {actual} on chart dimensions "
                f"{[block.dim for block in blocks]}, expected {expected} on dimension {n}"
            )
        for (name, _), block in zip(self.LAYOUT, blocks):
            setattr(self, name, block)

    @property
    def dim(self) -> int:
        return getattr(self, self.LAYOUT[0][0]).dim

    @property
    def fiber_dim(self) -> int:
        return getattr(self, self.LAYOUT[0][0]).shape[0]


def pair(blocks: Sequence[Tuple]) -> TensorField:
    """The sum over blocks of ``C[idx + out] * A[idx]``, shaped like ``out``.

    A block is ``(C, A)``, or ``(C, A, 1)`` to pair ``C`` with the gradient
    of ``A`` (shape ``A.shape + (n,)``, as ``A.gradient()``) taken from the
    same evaluation as the value of ``A``.  ``C`` has the shape of the paired
    array followed by the output shape, the same for every block.  For each
    output entry the products are summed depth-first over ``idx`` (an index
    before its extensions), and in block order at a shared ``idx``.  Each
    distinct field is evaluated once per call, at order + 1 if a block takes
    its gradient.  The term table depends on the shapes and on which blocks
    share a field only (see :func:`_pair_table`).
    """
    blocks = [tuple(block) + (0,) * (3 - len(block)) for block in blocks]
    c0, a0, k0 = blocks[0]
    n = c0.dim
    out_shape = c0.shape[len(a0.shape) + k0:]
    fields: List[SmoothField] = []

    def slot(tensor: TensorField) -> int:
        for s, f in enumerate(fields):
            if f is tensor.field:
                return s
        fields.append(tensor.field)
        return len(fields) - 1

    layout = []
    for c, a, k in blocks:
        shape = a.shape + (n,) * k
        if c.dim != n or a.dim != n:
            raise ValueError("paired fields live on different chart dimensions")
        if k not in (0, 1) or c.shape != shape + out_shape:
            raise ValueError(f"cannot pair shape {c.shape} with {shape} into {out_shape}")
        layout.append((a.shape, k, slot(c), slot(a)))
    lift, reads, table = _pair_table(n, out_shape, tuple(layout))

    def evaluator(point: Point, order: int) -> List[TruncatedSeries]:
        series = [f.series_on(point, order + up) for f, up in zip(fields, lift)]
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


@lru_cache(maxsize=None)
def _pair_table(n: int, out_shape: Tuple[int, ...], layout: Tuple[Tuple, ...]) -> Tuple[Tuple, ...]:
    """The read plan of :func:`pair` on a chart of dimension ``n``, built once
    per key.  Each block of ``layout`` is ``(A.shape, k, C slot, A slot)``, a
    slot numbering the distinct fields in order of first use, C before A.

    Returns, per slot, 1 when some block takes its field's gradient, else 0;
    the reads, each ``(slot, component, partial axis or None)``; and per
    output entry its terms, each the positions of its C and A reads.
    """
    size = _size(out_shape)
    lift = [0] * (1 + max(max(cs, as_) for _, _, cs, as_ in layout))
    terms = []
    for b, (a_shape, k, cs, as_) in enumerate(layout):
        lift[as_] = max(lift[as_], k)
        for flat, idx in enumerate(np.ndindex(*(a_shape + (n,) * k))):  # row-major
            a_key = (as_, flat // n, flat % n) if k else (as_, flat, None)
            terms.append((idx, b, cs, flat * size, a_key))
    terms.sort(key=lambda t: (t[0], t[1]))
    reads: Dict[Tuple[int, int, Optional[int]], int] = {}  # (slot, component, axis) -> position
    table = tuple(
        tuple((reads.setdefault((cs, c_base + o, None), len(reads)), reads.setdefault(a_key, len(reads)))
              for _, _, cs, c_base, a_key in terms)
        for o in range(size)
    )
    return tuple(lift), tuple(reads), table


class JetValue:
    """Pointwise derivative arrays of a field up to a given order.

    ``arrays[p]`` has shape ``(d,) + (n,)*p`` and is symmetric in the
    trailing axes by construction.
    """

    __slots__ = ("dim", "fiber_dim", "order", "arrays")

    def __init__(self, dim: int, fiber_dim: int, order: int, arrays: Tuple[np.ndarray, ...]):
        self.dim, self.fiber_dim, self.order, self.arrays = dim, fiber_dim, order, arrays

    def array(self, p: int) -> np.ndarray:
        if not 0 <= p <= self.order:
            raise ValueError(f"order {p} outside jet range 0..{self.order}")
        return self.arrays[p]


@lru_cache(maxsize=None)
def _jet_layout(dim: int, order: int, fibre: int) -> Tuple[List[Tuple[int, ...]], List[Tuple]]:
    """The exponents of every Taylor coefficient of order <= ``order``; and per
    derivative order p, for each entry of the ``(fibre,) + (dim,)*p`` array
    in C order, the position of the coefficient that fills it in the list of
    every component's coefficients, component-major, and its I!."""
    if order < 0:
        raise ValueError("jet order must be >= 0")
    keys = [e for e in itertools.product(range(order + 1), repeat=dim) if sum(e) <= order]
    gathers = []
    for p in range(order + 1):
        exps = [tuple(slot.count(a) for a in range(dim))
                for slot in itertools.product(range(dim), repeat=p)]
        columns = [keys.index(e) for e in exps]
        factorials = [math.prod(map(math.factorial, e)) for e in exps]
        gathers.append((np.array([c * len(keys) + k for c in range(fibre) for k in columns]),
                        np.array(factorials * fibre, dtype=float)))
    return keys, gathers


def jets_on(field: SmoothField, nodes: Sequence[Sequence[float]], order: int) -> List[np.ndarray]:
    """Exact derivative arrays of ``field`` up to ``order`` at every row of ``nodes``.

    Entry p is the stacked array of order p, shaped ``(N, d) + (n,)*p``.  One
    :func:`on_nodes` read takes every Taylor coefficient at every node; each
    slot of a derivative array is its coefficient times I!, and a coefficient
    the series does not hold reads 0.0.  Each node's row is C-contiguous, as
    a one-point array is: ``numpy.sum`` and ``einsum`` may add in another
    order over another memory layout.  One read beat a loop of one-point
    :func:`jet_extension` reads 1.7-1.9x at 4 points and 3.7-8.5x at 20
    (velocity and ``s2`` of a generated n = 2 document, orders 0 and 2;
    median of 30 calls on an Intel Xeon).
    """
    n, d = field.dim, field.ncomp
    keys, gathers = _jet_layout(n, order, d)

    def read(point: Point) -> List[Any]:
        return [s.coeffs.get(k, 0.0) for s in field.series_on(point, order) for k in keys]

    rows = on_nodes(read, nodes, width=d * len(keys))
    return [(np.take(rows, positions, axis=1) * factorials).reshape((len(rows), d) + (n,) * p)
            for p, (positions, factorials) in enumerate(gathers)]


def jet_extension(field: SmoothField, point: Sequence[float], order: int) -> JetValue:
    """Exact derivative arrays of ``field`` at ``point`` up to ``order``, from
    one series read at the point: the one-node row of :func:`jets_on`, each
    slot its coefficient times I!, gathered straight from the coefficients."""
    n, d = field.dim, field.ncomp
    keys, gathers = _jet_layout(n, order, d)
    coefficients = np.array([s.coeffs.get(k, 0.0) for s in field.series_on(as_point(point), order)
                             for k in keys], dtype=float)
    return JetValue(n, d, order, tuple((coefficients[positions] * factorials).reshape((d,) + (n,) * p)
                                       for p, (positions, factorials) in enumerate(gathers)))


# An overflowing field makes inf and NaN differences: the oracle reports them
# as values, without a warning.
@np.errstate(all="ignore")
def finite_difference_jet(
    field: SmoothField, point: Sequence[float], order: int, step: float = 1e-4
) -> JetValue:
    """Central-difference estimate of the jet, an oracle for ``jet_extension``.

    Supports orders 0..2; exact for quadratics up to roundoff.  It reads
    only order-0 values, one float point per read, so it shares no series
    route with the exact jet it is held against.  It reads the field once
    per stencil point, repeats included: ``REQUIRED_NONZERO`` in
    ``perfbench/run.py`` requires the benchmark's counts of these one-point
    reads to be above zero until ROADMAP item 1B retires them, so batching
    or deduplicating the stencil would make the traced benchmark run raise.
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
