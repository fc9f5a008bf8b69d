"""Sparse truncated multivariate Taylor polynomial arithmetic.

Everything differentiable in this package bottoms out in a
:class:`TruncatedSeries`: the coefficients of ``(x - x0)^I`` up to a fixed
total order, stored sparsely by exponent multi-index.  For polynomial data
all operations are exact up to float roundoff, so downstream identity
checks are limited only by quadrature error.

A coefficient is a float, or a numpy array holding one value per node of a
batch of expansion points.  A float is a batch of one, so one engine serves
both.  Which keys a series holds, and in which order, depends on the
computation alone, never on coefficient values: no operation drops a
coefficient, an exact zero included.  So one computation builds the same
dict at one node as over a batch, and as elementwise ``+``, ``-`` and ``*``
are the same IEEE operations on arrays as on floats, each node of a batched
result has the bits of the one-node result, signed zeros included
(Griewank & Walther, *Evaluating Derivatives*, 2nd ed., 2008, ch. 13).  A
branch on values that differs across nodes would break that; the one the
package takes, a pivot choice, stops the batch with :class:`BatchSplit`.

A shortcut that claims the bits of a general route performs that route's
operations, ``0.0 + v`` included where the route adds into an absent key:
it turns -0.0 into 0.0 (IEEE 754-2019, section 6.3), and reports carry the
sign of a zero.  At order 0 a series holds one number, the value of its
function: the zero-order forward sweep of Taylor arithmetic.  There a
product multiplies the two constant terms without walking product rows, and
:meth:`Coordinates.polynomial` computes a monomial table's value from the
constant terms of its powers and wraps it once.  Both perform the IEEE
operations of the general route on that number, in its order, so the bits
are those of the general route.

The analytic primitives call ``math`` once per node and function, because
numpy's transcendental ufuncs differ from ``math`` in the last bit on some
arguments, and collect the results into one array per derivative order; a
negated entry is the negated array, which is exact.  Their domain tests
compare the whole batch at once, and fail with the one-node message.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, Mapping, Sequence, Tuple

import numpy as np

__all__ = [
    "MultiIndex",
    "TruncatedSeries",
    "BatchSplit",
    "per_node",
    "Coordinates",
    "sin_series",
    "cos_series",
    "tan_series",
    "exp_series",
    "log_series",
    "sqrt_series",
    "sinh_series",
    "cosh_series",
    "tanh_series",
    "reciprocal_series",
    "power_series",
]

Exponents = Tuple[int, ...]


class MultiIndex(tuple):
    """Exponent tuple ``(i1, ..., in)`` of the monomial ``x1^i1 * ... * xn^in``."""

    def __new__(cls, entries: Iterable[int]) -> "MultiIndex":
        entries = tuple(int(e) for e in entries)
        if len(entries) < 1:
            raise ValueError("multi-index needs at least one entry")
        if any(e < 0 for e in entries):
            raise ValueError(f"multi-index entries must be non-negative, got {entries}")
        return super().__new__(cls, entries)

    @property
    def order(self) -> int:
        return sum(self)

    def factorial(self) -> int:
        """Product of entry factorials, converting Taylor coefficients to derivatives."""
        out = 1
        for e in self:
            out *= math.factorial(e)
        return out

    def axes(self) -> Tuple[int, ...]:
        """Expand into a sorted tuple of axis labels, e.g. (2, 0, 1) -> (0, 0, 1, 2, 2)."""
        out = []
        for axis, e in enumerate(self):
            out.extend([axis] * e)
        return tuple(out)


def _zero_exponents(dim: int) -> Exponents:
    return (0,) * dim


def _check_shape(dim: int, order: int) -> None:
    if dim < 1:
        raise ValueError("series dimension must be >= 1")
    if order < 0:
        raise ValueError("series order must be >= 0")


class _ProductRow(dict):
    """``row[kb]`` is the exponent of ``dx^ka * dx^kb``, or None when its total
    order exceeds the cap; each entry is computed on first use and kept."""

    __slots__ = ("ka", "room")

    def __init__(self, ka: Exponents, cap: int):
        super().__init__()
        self.ka = ka
        self.room = cap - sum(ka)

    def __missing__(self, kb: Exponents):
        key = tuple(a + b for a, b in zip(self.ka, kb)) if sum(kb) <= self.room else None
        self[kb] = key
        return key


# Product index rows by order cap: ``_PRODUCT_ROWS[cap][ka][kb]``.  Entries
# depend on their keys alone, so every series shares them; a cap holds at
# most C(n+cap, cap)**2 of them per dimension n.
_PRODUCT_ROWS: Dict[int, Dict[Exponents, _ProductRow]] = {}


class BatchSplit(Exception):
    """A batch of nodes must be evaluated again in groups: its nodes take
    different branches on their values (a Gauss-Jordan pivot).

    ``labels`` holds one entry per node of the batch; nodes with equal labels
    take the same path through the engine and can share a batch.  Not a
    ``ValueError``, so no error-keying context catches it.
    """

    def __init__(self, labels):
        super().__init__("batch nodes take different paths")
        self.labels = labels


def per_node(value) -> bool:
    """Whether a coefficient holds one value per node of a batch."""
    return getattr(value, "ndim", 0) > 0


def _coefficient(value):
    """``value`` as a float, or as it is when it holds one value per node; the
    result is a node array exactly when its class is not ``float``."""
    if value.__class__ is float:
        return value
    return value if per_node(value) else float(value)


def _any_node(condition) -> bool:
    """A per-node condition (a bool or a bool array) holds at some node."""
    return condition if condition.__class__ is bool else bool(condition.any())


class TruncatedSeries:
    """Polynomial in offsets ``dx = x - x0`` truncated at a fixed total order.

    Coefficients are kept in a dict keyed by exponent tuples; absent keys are
    zero, and a zero coefficient keeps its key.  Series of different ``dim``
    or ``order`` never mix.  A coefficient is a float, or a node array that
    holds one value per node of a batch.
    """

    __slots__ = ("dim", "order", "coeffs")

    def __init__(self, dim: int, order: int, coeffs: Mapping[Exponents, float] | None = None):
        _check_shape(dim, order)
        self.dim = dim
        self.order = order
        self.coeffs: Dict[Exponents, float] = {}
        if coeffs:
            for key, val in coeffs.items():
                key = tuple(key)
                if len(key) != dim:
                    raise ValueError(f"exponent tuple {key} does not match dim {dim}")
                if sum(key) > order:
                    raise ValueError(f"exponent tuple {key} above order {order}")
                self.coeffs[key] = float(val)

    @classmethod
    def _trusted(cls, dim: int, order: int, coeffs: Dict[Exponents, float]) -> "TruncatedSeries":
        """Wrap a fresh dict the engine computed from series it already holds.

        Its keys are exponent tuples of length ``dim`` within ``order`` and its
        values floats or node arrays, so the key checks of the constructor are
        skipped.
        """
        out = object.__new__(cls)
        out.dim = dim
        out.order = order
        out.coeffs = coeffs
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim: int, order: int) -> "TruncatedSeries":
        _check_shape(dim, order)
        return cls._trusted(dim, order, {})

    @classmethod
    def constant(cls, dim: int, order: int, value: float) -> "TruncatedSeries":
        """The constant ``value``: a float, or one value per node of a batch."""
        _check_shape(dim, order)
        value = _coefficient(value)
        return cls._trusted(dim, order, {_zero_exponents(dim): value})

    @classmethod
    def variable(cls, dim: int, order: int, axis: int, center: float) -> "TruncatedSeries":
        """The coordinate function ``x_axis`` expanded about ``center``, a float
        or one center per node of a batch."""
        _check_shape(dim, order)
        center = _coefficient(center)
        coeffs: Dict[Exponents, float] = {_zero_exponents(dim): center}
        if order >= 1:
            exps = [0] * dim
            exps[axis] = 1
            coeffs[tuple(exps)] = 1.0
        return cls._trusted(dim, order, coeffs)

    # -- accessors ---------------------------------------------------------

    @property
    def value(self) -> float:
        """Constant term: the value of the function at the expansion point."""
        return self.coeffs.get(_zero_exponents(self.dim), 0.0)

    def coefficient(self, exponents: Sequence[int]) -> float:
        return self.coeffs.get(tuple(exponents), 0.0)

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other: "TruncatedSeries") -> None:
        if self.dim != other.dim or self.order != other.order:
            raise ValueError(
                f"series mismatch: dim/order ({self.dim},{self.order}) vs "
                f"({other.dim},{other.order})"
            )

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = _coefficient(other)
            out = dict(self.coeffs)
            key = _zero_exponents(self.dim)
            out[key] = out.get(key, 0.0) + other
            return TruncatedSeries._trusted(self.dim, self.order, out)
        self._check_compatible(other)
        out = dict(self.coeffs)
        for key, val in other.coeffs.items():
            out[key] = out.get(key, 0.0) + val
        return TruncatedSeries._trusted(self.dim, self.order, out)

    __radd__ = __add__

    def __neg__(self):
        neg = {k: -v for k, v in self.coeffs.items()}
        return TruncatedSeries._trusted(self.dim, self.order, neg)

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self + (-_coefficient(other))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            c = _coefficient(other)
            out = {k: v * c for k, v in self.coeffs.items()}
            return TruncatedSeries._trusted(self.dim, self.order, out)
        self._check_compatible(other)
        cap = self.order
        if not cap:
            # At order 0 each side holds at most the constant key: the row
            # walk's one step, 0.0 + va * vb (which turns -0.0 into 0.0).
            out = {k: 0.0 + va * vb for k, va in self.coeffs.items()
                   for vb in other.coeffs.values()}
            return TruncatedSeries._trusted(self.dim, 0, out)
        rows = _PRODUCT_ROWS.get(cap)
        if rows is None:
            rows = _PRODUCT_ROWS[cap] = {}
        out: Dict[Exponents, float] = {}
        get = out.get
        other_items = other.coeffs.items()
        for ka, va in self.coeffs.items():
            row = rows.get(ka)
            if row is None:
                row = rows[ka] = _ProductRow(ka, cap)
            for kb, vb in other_items:
                key = row[kb]
                if key is not None:
                    out[key] = get(key, 0.0) + va * vb
        return TruncatedSeries._trusted(self.dim, cap, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = _coefficient(other)
            if _any_node(other == 0.0):
                raise ZeroDivisionError("float division by zero")
            return self * (1.0 / other)
        return self * reciprocal_series(other)

    def __rtruediv__(self, other):
        return reciprocal_series(self) * other

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            raise TypeError("series exponent must be an integer; use power_series for floats")
        if exponent < 0:
            return reciprocal_series(self) ** (-exponent)
        if exponent == 0:
            return TruncatedSeries.constant(self.dim, self.order, 1.0)
        result = None
        base = self
        e = exponent
        while True:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if not e:
                return result
            base = base * base

    # -- calculus ----------------------------------------------------------

    def partial(self, axis: int) -> "TruncatedSeries":
        """Formal partial derivative; the result order drops by one."""
        new_order = max(self.order - 1, 0)
        out: Dict[Exponents, float] = {}
        for key, val in self.coeffs.items():
            e = key[axis]
            if e == 0:
                continue
            new_key = key[:axis] + (e - 1,) + key[axis + 1 :]
            if sum(new_key) <= new_order:
                out[new_key] = out.get(new_key, 0.0) + val * e
        return TruncatedSeries._trusted(self.dim, new_order, out)

    def offset(self) -> "TruncatedSeries":
        """The series less its value: every key but the constant one, so
        ``compose`` can substitute it."""
        out = dict(self.coeffs)
        out.pop(_zero_exponents(self.dim), None)
        return TruncatedSeries._trusted(self.dim, self.order, out)

    def truncate(self, order: int) -> "TruncatedSeries":
        if order == self.order:
            return self
        if order > self.order:
            return TruncatedSeries._trusted(self.dim, order, dict(self.coeffs))
        _check_shape(self.dim, order)
        out = {k: v for k, v in self.coeffs.items() if sum(k) <= order}
        return TruncatedSeries._trusted(self.dim, order, out)

    def compose(self, offsets: Sequence["TruncatedSeries"]) -> "TruncatedSeries":
        """Substitute each offset variable by a series with no constant key.

        `offsets[i]` replaces ``dx_i`` (see :meth:`offset`); all offsets must
        share dim/order, which become the dim/order of the result.  Truncation
        stays exact because the substituted series carry no constant part.
        """
        if len(offsets) != self.dim:
            raise ValueError(f"need {self.dim} offset series, got {len(offsets)}")
        inner_dim = offsets[0].dim
        inner_order = offsets[0].order
        if inner_order > self.order:
            raise ValueError(
                "offset order exceeds the outer series order; the composite "
                "would claim unknown coefficients"
            )
        for off in offsets:
            if off.dim != inner_dim or off.order != inner_order:
                raise ValueError("offset series must share dim and order")
            if _zero_exponents(inner_dim) in off.coeffs:
                raise ValueError("offset series must have no constant term")
        # Cache powers of each offset as needed.
        powers: list[Dict[int, TruncatedSeries]] = [{1: off} for off in offsets]

        def power(axis: int, e: int) -> TruncatedSeries:
            cache = powers[axis]
            if e not in cache:
                cache[e] = power(axis, e - 1) * cache[1]
            return cache[e]

        result = None
        for key, val in self.coeffs.items():
            term = None
            for axis, e in enumerate(key):
                if e:
                    term = power(axis, e) * val if term is None else term * power(axis, e)
            if term is None:
                term = TruncatedSeries.constant(inner_dim, inner_order, val)
            result = term if result is None else result + term
        return TruncatedSeries.zero(inner_dim, inner_order) if result is None else result

    # -- misc ----------------------------------------------------------------

    def max_abs_diff(self, other: "TruncatedSeries") -> float:
        self._check_compatible(other)
        keys = set(self.coeffs) | set(other.coeffs)
        return max(
            (abs(self.coeffs.get(k, 0.0) - other.coeffs.get(k, 0.0)) for k in keys),
            default=0.0,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        terms = ", ".join(f"{k}: {v:g}" for k, v in sorted(self.coeffs.items()))
        return f"TruncatedSeries(dim={self.dim}, order={self.order}, {{{terms}}})"


class Coordinates(list):
    """The coordinate series about one point, with a memo of their powers.

    ``power(axis, e)`` is ``self[axis] ** e``, computed on first use and then
    shared by every map evaluated on these coordinates.
    """

    __slots__ = ("_powers",)

    def __init__(self, series: Iterable[TruncatedSeries] = ()):
        super().__init__(series)
        self._powers: Dict[Tuple[int, int], TruncatedSeries] = {}

    @classmethod
    def of(cls, variables: Sequence[TruncatedSeries]) -> "Coordinates":
        """``variables`` itself if it is one, else a memo over its series."""
        return variables if isinstance(variables, cls) else cls(variables)

    def power(self, axis: int, e: int) -> TruncatedSeries:
        out = self._powers.get((axis, e))
        if out is None:
            out = self._powers[axis, e] = self[axis] ** e
        return out

    def polynomial(
        self, terms: Sequence[Tuple[float, Sequence[Tuple[int, int]]]]
    ) -> TruncatedSeries:
        """The sum, in table order, of the monomials ``terms`` =
        ``[(coefficient, [(axis, exponent), ...]), ...]`` (exponents positive).

        A monomial starts as ``power * coefficient`` and is multiplied by its
        other powers in order; the powers come from the memo.
        """
        dim, order = self[0].dim, self[0].order
        if not order:
            return self._polynomial_value(terms)
        power = self.power
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

    def _polynomial_value(self, terms) -> TruncatedSeries:
        """:meth:`polynomial` at order 0, where every series holds one number
        or none.  Each step is the IEEE operation the series route performs on
        that number, on the constant terms of the same memoized powers: a
        product is ``0.0 + term * value``, and the first term enters the sum
        as ``0.0 + term``.  A power that holds no key makes its monomial hold
        none, which the sum skips, as the series route does.  Only the result
        is wrapped as a series.
        """
        zero = _zero_exponents(self[0].dim)
        total = None
        for coef, factors in terms:
            if factors:
                term = self.power(*factors[0]).coeffs.get(zero)
                if term is not None:
                    term = term * coef
                for axis, e in factors[1:]:
                    value = self.power(axis, e).coeffs.get(zero)
                    term = None if term is None or value is None else 0.0 + term * value
            else:
                term = coef
            if term is not None:
                total = 0.0 + term if total is None else total + term
        coeffs = {} if total is None else {zero: total}
        return TruncatedSeries._trusted(len(zero), 0, coeffs)


# -- composition with univariate analytic primitives -------------------------


def _each(fn: Callable[[float], float], u0):
    """``fn(u0)`` for a float; for a node array, one ``fn`` call per node,
    collected in one array, so each node has its one-node bits."""
    if not per_node(u0):
        return fn(u0)
    return np.fromiter(map(fn, u0.tolist()), float, len(u0))


def _reject(condition, message: str) -> None:
    """Raise ``ValueError(message)`` if ``condition`` holds at some node."""
    if _any_node(condition):
        raise ValueError(message)


def _compose_analytic(u: TruncatedSeries, derivs: Sequence[float]) -> TruncatedSeries:
    """Horner evaluation of sum_m derivs[m]/m! * (u - u0)^m."""
    order = u.order
    h = u.offset()
    result = TruncatedSeries.constant(u.dim, order, derivs[order] / math.factorial(order))
    for m in range(order - 1, -1, -1):
        result = result * h + derivs[m] / math.factorial(m)
    return result


def sin_series(u: TruncatedSeries) -> TruncatedSeries:
    u0 = u.value
    s, c = _each(math.sin, u0), _each(math.cos, u0)
    cycle = (s, c, -s, -c)
    return _compose_analytic(u, [cycle[m % 4] for m in range(u.order + 1)])


def cos_series(u: TruncatedSeries) -> TruncatedSeries:
    u0 = u.value
    s, c = _each(math.sin, u0), _each(math.cos, u0)
    cycle = (c, -s, -c, s)
    return _compose_analytic(u, [cycle[m % 4] for m in range(u.order + 1)])


def exp_series(u: TruncatedSeries) -> TruncatedSeries:
    return _compose_analytic(u, [_each(math.exp, u.value)] * (u.order + 1))


def log_series(u: TruncatedSeries) -> TruncatedSeries:
    u0 = u.value
    _reject(u0 <= 0.0, "log of a series requires a positive constant term")
    derivs = [_each(math.log, u0)]
    for m in range(1, u.order + 1):
        scale = (-1.0) ** (m - 1) * math.factorial(m - 1)
        derivs.append(_each(lambda v: scale / v**m, u0))
    return _compose_analytic(u, derivs)


def reciprocal_series(u: TruncatedSeries) -> TruncatedSeries:
    u0 = u.value
    _reject(u0 == 0.0, "cannot invert a series with zero constant term")
    derivs = []
    for m in range(u.order + 1):
        scale = (-1.0) ** m * math.factorial(m)
        derivs.append(_each(lambda v: scale / v ** (m + 1), u0))
    return _compose_analytic(u, derivs)


def power_series(u: TruncatedSeries, exponent: float) -> TruncatedSeries:
    u0 = u.value
    _reject(u0 <= 0.0, "fractional power of a series requires a positive constant term")
    derivs = []
    fall = 1.0
    for m in range(u.order + 1):
        derivs.append(_each(lambda v: fall * v ** (exponent - m), u0))
        fall *= exponent - m
    return _compose_analytic(u, derivs)


def sqrt_series(u: TruncatedSeries) -> TruncatedSeries:
    return power_series(u, 0.5)


def tan_series(u: TruncatedSeries) -> TruncatedSeries:
    return sin_series(u) * reciprocal_series(cos_series(u))


def sinh_series(u: TruncatedSeries) -> TruncatedSeries:
    u0 = u.value
    cycle = (_each(math.sinh, u0), _each(math.cosh, u0))
    return _compose_analytic(u, [cycle[m % 2] for m in range(u.order + 1)])


def cosh_series(u: TruncatedSeries) -> TruncatedSeries:
    u0 = u.value
    cycle = (_each(math.cosh, u0), _each(math.sinh, u0))
    return _compose_analytic(u, [cycle[m % 2] for m in range(u.order + 1)])


def tanh_series(u: TruncatedSeries) -> TruncatedSeries:
    return sinh_series(u) * reciprocal_series(cosh_series(u))
