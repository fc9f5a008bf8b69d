"""Sparse truncated multivariate Taylor polynomial arithmetic.

Everything differentiable in this package bottoms out in a
:class:`TruncatedSeries`: the coefficients of ``(x - x0)^I`` up to a fixed
total order, stored sparsely by exponent multi-index.  For polynomial data
all operations are exact up to float roundoff, so downstream identity
checks are limited only by quadrature error.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Mapping, Sequence, Tuple

__all__ = [
    "MultiIndex",
    "TruncatedSeries",
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


class TruncatedSeries:
    """Polynomial in offsets ``dx = x - x0`` truncated at a fixed total order.

    Coefficients are kept in a dict keyed by exponent tuples; absent keys are
    zero.  Series of different ``dim`` or ``order`` never mix.
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
                if val != 0.0:
                    self.coeffs[key] = float(val)

    @classmethod
    def _trusted(cls, dim: int, order: int, coeffs: Dict[Exponents, float]) -> "TruncatedSeries":
        """Wrap a fresh dict the engine computed from series it already holds.

        Its keys are exponent tuples of length ``dim`` within ``order`` and its
        values floats, so the key checks of the constructor are skipped; zero
        values are dropped in insertion order, as the constructor drops them.
        """
        if 0.0 in coeffs.values():
            coeffs = {k: v for k, v in coeffs.items() if v != 0.0}
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
        _check_shape(dim, order)
        return cls._trusted(dim, order, {_zero_exponents(dim): float(value)})

    @classmethod
    def variable(cls, dim: int, order: int, axis: int, center: float) -> "TruncatedSeries":
        """The coordinate function ``x_axis`` expanded about ``center``."""
        coeffs: Dict[Exponents, float] = {_zero_exponents(dim): center}
        if order >= 1:
            exps = [0] * dim
            exps[axis] = 1
            coeffs[tuple(exps)] = 1.0
        return cls(dim, order, coeffs)

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
        if isinstance(other, (int, float)):
            out = dict(self.coeffs)
            key = _zero_exponents(self.dim)
            out[key] = out.get(key, 0.0) + float(other)
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
        if isinstance(other, (int, float)):
            return self + (-float(other))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            c = float(other)
            return TruncatedSeries._trusted(
                self.dim, self.order, {k: v * c for k, v in self.coeffs.items()}
            )
        self._check_compatible(other)
        cap = self.order
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
        if isinstance(other, (int, float)):
            return self * (1.0 / float(other))
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

    def truncate(self, order: int) -> "TruncatedSeries":
        if order == self.order:
            return self
        if order > self.order:
            return TruncatedSeries._trusted(self.dim, order, dict(self.coeffs))
        _check_shape(self.dim, order)
        out = {k: v for k, v in self.coeffs.items() if sum(k) <= order}
        return TruncatedSeries._trusted(self.dim, order, out)

    def compose(self, offsets: Sequence["TruncatedSeries"]) -> "TruncatedSeries":
        """Substitute each offset variable by a series with zero constant term.

        `offsets[i]` replaces ``dx_i``; all offsets must share dim/order, which
        become the dim/order of the result.  Truncation stays exact because the
        substituted series carry no constant part.
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
            if off.value != 0.0:
                raise ValueError("offset series must have exactly zero constant term")
        # Cache powers of each offset as needed.
        powers: list[Dict[int, TruncatedSeries]] = [{1: off} for off in offsets]

        def power(axis: int, e: int) -> TruncatedSeries:
            cache = powers[axis]
            if e not in cache:
                cache[e] = power(axis, e - 1) * cache[1]
            return cache[e]

        # The sum starts from the first term: 0.0 + v is v, and the engine
        # holds no zero coefficient, so the bits and key order are the same.
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


# -- composition with univariate analytic primitives -------------------------


def _compose_analytic(u: TruncatedSeries, derivs: Sequence[float]) -> TruncatedSeries:
    """Horner evaluation of sum_m derivs[m]/m! * (u - u0)^m."""
    order = u.order
    h = u - u.value
    result = TruncatedSeries.constant(u.dim, order, derivs[order] / math.factorial(order))
    for m in range(order - 1, -1, -1):
        result = result * h + derivs[m] / math.factorial(m)
    return result


def sin_series(u: TruncatedSeries) -> TruncatedSeries:
    u0 = u.value
    cycle = (math.sin(u0), math.cos(u0), -math.sin(u0), -math.cos(u0))
    return _compose_analytic(u, [cycle[m % 4] for m in range(u.order + 1)])


def cos_series(u: TruncatedSeries) -> TruncatedSeries:
    u0 = u.value
    cycle = (math.cos(u0), -math.sin(u0), -math.cos(u0), math.sin(u0))
    return _compose_analytic(u, [cycle[m % 4] for m in range(u.order + 1)])


def exp_series(u: TruncatedSeries) -> TruncatedSeries:
    e0 = math.exp(u.value)
    return _compose_analytic(u, [e0] * (u.order + 1))


def log_series(u: TruncatedSeries) -> TruncatedSeries:
    u0 = u.value
    if u0 <= 0.0:
        raise ValueError("log of a series requires a positive constant term")
    derivs = [math.log(u0)]
    for m in range(1, u.order + 1):
        derivs.append((-1.0) ** (m - 1) * math.factorial(m - 1) / u0**m)
    return _compose_analytic(u, derivs)


def reciprocal_series(u: TruncatedSeries) -> TruncatedSeries:
    u0 = u.value
    if u0 == 0.0:
        raise ValueError("cannot invert a series with zero constant term")
    derivs = [(-1.0) ** m * math.factorial(m) / u0 ** (m + 1) for m in range(u.order + 1)]
    return _compose_analytic(u, derivs)


def power_series(u: TruncatedSeries, exponent: float) -> TruncatedSeries:
    u0 = u.value
    if u0 <= 0.0:
        raise ValueError("fractional power of a series requires a positive constant term")
    derivs = []
    fall = 1.0
    for m in range(u.order + 1):
        derivs.append(fall * u0 ** (exponent - m))
        fall *= exponent - m
    return _compose_analytic(u, derivs)


def sqrt_series(u: TruncatedSeries) -> TruncatedSeries:
    return power_series(u, 0.5)


def tan_series(u: TruncatedSeries) -> TruncatedSeries:
    return sin_series(u) * reciprocal_series(cos_series(u))


def sinh_series(u: TruncatedSeries) -> TruncatedSeries:
    u0 = u.value
    cycle = (math.sinh(u0), math.cosh(u0))
    return _compose_analytic(u, [cycle[m % 2] for m in range(u.order + 1)])


def cosh_series(u: TruncatedSeries) -> TruncatedSeries:
    u0 = u.value
    cycle = (math.cosh(u0), math.sinh(u0))
    return _compose_analytic(u, [cycle[m % 2] for m in range(u.order + 1)])


def tanh_series(u: TruncatedSeries) -> TruncatedSeries:
    return sinh_series(u) * reciprocal_series(cosh_series(u))
