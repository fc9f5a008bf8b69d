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
package takes, the pivot row of the transversal solve, each node takes in it.

A shortcut that claims the bits of a general route performs that route's
operations, ``0.0 + v`` included where the route adds into an absent key:
it turns -0.0 into 0.0 (IEEE 754-2019, section 6.3), and reports carry the
sign of a zero.  At order 0 a series holds one number, the value of its
function: the zero-order forward sweep of Taylor arithmetic.  There a
product multiplies the two constant terms without walking product rows; a
power's value takes the binary exponentiation steps of ``**`` on plain
numbers (:func:`integer_power_value`), and each analytic primitive's value
is one function (``sin_value``, ``reciprocal_value``, ...) that its series
form reads too.  Every leaf of a field (a number, a monomial table, an
expression) has two routes, made once at load: a value route that reads a
:class:`PointValues` record of the point's coordinates and their powers,
and a series route that reads :class:`Coordinates`, the coordinate series
and their powers; a monomial table's series route runs a product plan
(:class:`MonomialTable`).  All perform the IEEE operations of the general
route, in its order, so the bits are those of the general route.

The analytic primitives call ``math`` once per node and function, because
numpy's transcendental ufuncs differ from ``math`` in the last bit on some
arguments, and collect the results into one array per derivative order; a
negated entry is the negated array, which is exact.  Their domain tests
compare the whole batch at once, and fail with the one-node message.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "MultiIndex",
    "TruncatedSeries",
    "per_node",
    "PointValues",
    "Coordinates",
    "MonomialTable",
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
    "sin_value",
    "cos_value",
    "tan_value",
    "exp_value",
    "log_value",
    "sqrt_value",
    "sinh_value",
    "cosh_value",
    "tanh_value",
    "reciprocal_value",
    "integer_power_value",
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

    def constant_times(self, c) -> "TruncatedSeries":
        """``TruncatedSeries.constant(c) * self`` with ``c`` kept a float or
        node array: the product walk's ``0.0 + c * v`` at each key, in this
        series' key order."""
        out = {k: 0.0 + c * v for k, v in self.coeffs.items()}
        return TruncatedSeries._trusted(self.dim, self.order, out)

    def constant_plus(self, c) -> "TruncatedSeries":
        """``TruncatedSeries.constant(c) + self`` with ``c`` kept a float or
        node array: the constant key first, holding ``c``, then each key of
        this series added in (``0.0 + v`` where ``c`` has none)."""
        out = {_zero_exponents(self.dim): c}
        get = out.get
        for key, val in self.coeffs.items():
            out[key] = get(key, 0.0) + val
        return TruncatedSeries._trusted(self.dim, self.order, out)

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
        """The largest |difference| of a coefficient, 0.0 for none; NaN if any
        is NaN (numpy's max keeps it, where Python's drops a later one)."""
        self._check_compatible(other)
        keys = set(self.coeffs) | set(other.coeffs)
        return float(np.max(
            [abs(self.coeffs.get(k, 0.0) - other.coeffs.get(k, 0.0)) for k in keys], initial=0.0))

    def __repr__(self) -> str:  # a node array prints as the list of its values
        terms = ", ".join(f"{k}: {v.tolist() if per_node(v) else format(v, 'g')}"
                          for k, v in sorted(self.coeffs.items()))
        return f"TruncatedSeries(dim={self.dim}, order={self.order}, {{{terms}}})"


class PointValues(dict):
    """What the value route of a leaf reads: ``x[axis]``, a coordinate of one
    point (a float or a node array), and ``self[axis, e]``, its
    :func:`integer_power_value`, computed on first read and then kept for
    every component of a field (the coordinate itself for e = 1)."""

    __slots__ = ("x",)

    def __init__(self, x: Iterable):
        super().__init__()
        self.x = tuple(x)
        for axis, c in enumerate(self.x):
            self[axis, 1] = c

    def __missing__(self, key: Tuple[int, int]):
        axis, e = key
        out = self[key] = integer_power_value(self.x[axis], e)
        return out


class Coordinates(PointValues):
    """The coordinate series about one point, and their powers: what the
    series route of a leaf reads.  ``self[axis, e]`` is ``x[axis] ** e``."""

    __slots__ = ()

    def __missing__(self, key: Tuple[int, int]) -> TruncatedSeries:
        axis, e = key
        out = self[key] = self.x[axis] ** e
        return out


class MonomialTable:
    """The two routes of a monomial table ``[(exponents, coefficient), ...]``:
    the sum, in table order, of each monomial's first power times its
    coefficient times its other powers in axis order.

    :meth:`series` runs each monomial's product plan, built once per order
    from the key order of the coordinate powers and kept in ``plans``, which
    the tables of one field may share.  The factors lie on distinct axes, so
    each kept key of a product comes from one pair of keys, and the plan
    performs the dict walk's operations in its order (``v * coef``, ``0.0 +
    t * p`` per kept pair, ``0.0 + v`` or ``acc + v`` into the total, keys in
    first-appearance order) without product rows, a series per step or a
    copy of the total per monomial.
    """

    __slots__ = ("terms", "plans")

    def __init__(self, table: Iterable[Tuple[Sequence[int], float]], plans: Optional[dict] = None):
        # Per monomial: its coefficient and its (axis, exponent) factors.
        self.terms = [(float(coef), tuple((axis, e) for axis, e in enumerate(exps) if e))
                      for exps, coef in table]
        self.plans = {} if plans is None else plans

    def value(self, values: PointValues):
        """The value at order 0, None for an empty table: each product ``0.0 +
        term * power``, and the first term enters the sum as ``0.0 + term``."""
        total = None
        for coef, factors in self.terms:
            if factors:
                term = values[factors[0]] * coef
                for factor in factors[1:]:
                    term = 0.0 + term * values[factor]
            else:
                term = coef
            total = 0.0 + term if total is None else total + term
        return total

    def series(self, coordinates: Coordinates) -> TruncatedSeries:
        dim, order = coordinates.x[0].dim, coordinates.x[0].order
        total: Dict[Exponents, object] = {}
        get = total.get
        for coef, factors in self.terms:
            if not factors:
                zero = _zero_exponents(dim)
                total[zero] = get(zero, 0.0) + coef
                continue
            plan = self.plans.get((factors, order))
            if plan is None:
                plan = self.plans[factors, order] = _product_plan(coordinates, factors, order)
            keys, products = plan
            term = [v * coef for v in coordinates[factors[0]].coeffs.values()]
            for factor, pairs in products:
                values = list(coordinates[factor].coeffs.values())
                term = [0.0 + term[i] * values[j] for i, j in pairs]
            for key, v in zip(keys, term):
                total[key] = get(key, 0.0) + v
        return TruncatedSeries._trusted(dim, order, total)


def _product_plan(coordinates: Coordinates, factors, order: int) -> tuple:
    """The keys of a monomial's product at ``order``, and per further power
    the pairs of key positions (term, power) whose product it keeps."""
    rows = _PRODUCT_ROWS.setdefault(order, {})
    keys, products = list(coordinates[factors[0]].coeffs), []
    for factor in factors[1:]:
        pairs, kept = [], []
        for i, ka in enumerate(keys):
            row = rows.get(ka)
            if row is None:
                row = rows[ka] = _ProductRow(ka, order)
            for j, kb in enumerate(coordinates[factor].coeffs):
                key = row[kb]
                if key is not None:
                    pairs.append((i, j))
                    kept.append(key)
        keys = kept
        products.append((factor, pairs))
    return keys, products


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


def integer_power_value(base, e: int):
    """The value of ``u ** e`` at order 0, where ``u`` holds the one value
    ``base`` (a float or a node array): the steps of ``__pow__`` on plain
    numbers, each product ``0.0 + a * b``; a negative ``e`` starts from
    :func:`reciprocal_value`."""
    if e < 0:
        return integer_power_value(reciprocal_value(base), -e)
    if not e:
        return 1.0
    result = None
    while True:
        if e & 1:
            result = base if result is None else 0.0 + result * base
        e >>= 1
        if not e:
            return result
        base = 0.0 + base * base


# -- order-0 values of the analytic primitives ---------------------------------
#
# Each is the constant term of its ``*_series`` at order 0, where
# ``_compose_analytic`` wraps ``derivs[0] / 0!``, the same bits as
# ``derivs[0]``; the series forms take ``derivs[0]`` from here.


def sin_value(u0):
    return _each(math.sin, u0)


def cos_value(u0):
    return _each(math.cos, u0)


def exp_value(u0):
    return _each(math.exp, u0)


def sinh_value(u0):
    return _each(math.sinh, u0)


def cosh_value(u0):
    return _each(math.cosh, u0)


def log_value(u0):
    _reject(u0 <= 0.0, "log of a series requires a positive constant term")
    return _each(math.log, u0)


def reciprocal_value(u0):
    _reject(u0 == 0.0, "cannot invert a series with zero constant term")
    return _each(lambda v: 1.0 / v ** 1, u0)


def _fractional_power_value(u0, exponent: float):
    _reject(u0 <= 0.0, "fractional power of a series requires a positive constant term")
    return _each(lambda v: 1.0 * v ** exponent, u0)


def sqrt_value(u0):
    return _fractional_power_value(u0, 0.5)


# tan and tanh: their series forms' order-0 product, 0.0 + a * b.
def tan_value(u0):
    return 0.0 + sin_value(u0) * reciprocal_value(cos_value(u0))


def tanh_value(u0):
    return 0.0 + sinh_value(u0) * reciprocal_value(cosh_value(u0))


def _compose_analytic(u: TruncatedSeries, derivs: Sequence[float]) -> TruncatedSeries:
    """Horner evaluation of sum_m derivs[m]/m! * (u - u0)^m, from the constant
    series of the top coefficient; its first product keeps that constant a
    float (:meth:`TruncatedSeries.constant_times`)."""
    order = u.order
    top = _coefficient(_taylor_coefficient(derivs, order))
    if not order:
        return TruncatedSeries._trusted(u.dim, 0, {_zero_exponents(u.dim): top})
    h = u.offset()
    result = h.constant_times(top) + _taylor_coefficient(derivs, order - 1)
    for m in range(order - 2, -1, -1):
        result = result * h + _taylor_coefficient(derivs, m)
    return result


def _taylor_coefficient(derivs, m: int):
    """``derivs[m] / m!``; dividing by 0! = 1! = 1 is exact, so it is skipped."""
    return derivs[m] if m < 2 else derivs[m] / math.factorial(m)


def _cycle(f, df, order: int) -> list:
    """The derivatives 0..order of f, with f'' = -f: f, f', -f, -f', f, ...;
    each negation is exact, so an entry is negated only when it is used."""
    derivs = [f, df][: order + 1]
    while len(derivs) <= order:
        derivs.append(-derivs[-2])
    return derivs


def sin_series(u: TruncatedSeries) -> TruncatedSeries:
    u0 = u.value
    return _compose_analytic(u, _cycle(sin_value(u0), cos_value(u0), u.order))


def cos_series(u: TruncatedSeries) -> TruncatedSeries:
    u0 = u.value
    s, c = sin_value(u0), cos_value(u0)
    return _compose_analytic(u, _cycle(c, -s, u.order))


def exp_series(u: TruncatedSeries) -> TruncatedSeries:
    return _compose_analytic(u, [exp_value(u.value)] * (u.order + 1))


def log_series(u: TruncatedSeries) -> TruncatedSeries:
    u0 = u.value
    derivs = [log_value(u0)]
    for m in range(1, u.order + 1):
        scale = (-1.0) ** (m - 1) * math.factorial(m - 1)
        derivs.append(_each(lambda v: scale / v**m, u0))
    return _compose_analytic(u, derivs)


def reciprocal_series(u: TruncatedSeries) -> TruncatedSeries:
    u0 = u.value
    derivs = [reciprocal_value(u0)]
    for m in range(1, u.order + 1):
        scale = (-1.0) ** m * math.factorial(m)
        derivs.append(_each(lambda v: scale / v ** (m + 1), u0))
    return _compose_analytic(u, derivs)


def power_series(u: TruncatedSeries, exponent: float) -> TruncatedSeries:
    u0 = u.value
    derivs = [_fractional_power_value(u0, exponent)]
    fall = 1.0
    for m in range(1, u.order + 1):
        fall *= exponent - (m - 1)
        derivs.append(_each(lambda v: fall * v ** (exponent - m), u0))
    return _compose_analytic(u, derivs)


def sqrt_series(u: TruncatedSeries) -> TruncatedSeries:
    return power_series(u, 0.5)


def tan_series(u: TruncatedSeries) -> TruncatedSeries:
    return sin_series(u) * reciprocal_series(cos_series(u))


def sinh_series(u: TruncatedSeries) -> TruncatedSeries:
    u0 = u.value
    cycle = (sinh_value(u0), cosh_value(u0))
    return _compose_analytic(u, [cycle[m % 2] for m in range(u.order + 1)])


def cosh_series(u: TruncatedSeries) -> TruncatedSeries:
    u0 = u.value
    cycle = (cosh_value(u0), sinh_value(u0))
    return _compose_analytic(u, [cycle[m % 2] for m in range(u.order + 1)])


def tanh_series(u: TruncatedSeries) -> TruncatedSeries:
    return sinh_series(u) * reciprocal_series(cosh_series(u))
