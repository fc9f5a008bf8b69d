"""Second-order stresses through their non-holonomic representatives.

A non-holonomic stress has four blocks pairing with the four blocks of an
iterated jet (a first-jet section and its derivatives).  Restricted to
holonomic arguments it collapses to a symmetric second-order stress; lifting
a second-order stress back is non-unique, parameterized here by how the
first-order content splits between the two middle blocks.

The divergence lands in the first-order layout acting on first-jet
sections, so the order-1 machinery applies to it again; higher orders
follow by iterating that step with a jet bundle as the fiber.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .bundles import JetSectionField
from .fields import Blocks, TensorField, jets_on, pair
from .geometry import FormField, FormValue, interior_product
from .stress import VariationalStress1

__all__ = [
    "NonHolonomicStress",
    "VariationalStress2",
    "HyperSurfaceStress",
    "nh_action_form",
    "lift_second_order",
    "nh_traction",
    "nh_divergence",
    "second_contraction",
    "second_contraction_brute_force",
]


class NonHolonomicStress(Blocks):
    """Dual of the iterated jet blocks, valued in chart volume densities.

    x0: (d,), x1: (d, n), x2: (d, n), x3: (d, n, n); x3 is unconstrained.
    """

    __slots__ = ("x0", "x1", "x2", "x3")
    LAYOUT = (("x0", 0), ("x1", 1), ("x2", 1), ("x3", 2))


class VariationalStress2(Blocks):
    """Second-order stress with a symmetric top block.

    s0: (d,), s1: (d, n), s2: (d, n, n), symmetric.
    """

    __slots__ = ("s0", "s1", "s2")
    LAYOUT = (("s0", 0), ("s1", 1), ("s2", 2))

    def check_symmetry(self, points: Sequence[Sequence[float]]) -> None:
        """Raise at the first point where the top block's asymmetry exceeds
        1e-10 or is NaN; one read of the block serves every point."""
        [s2] = jets_on(self.s2.field, points, 0)
        s2 = s2.reshape((-1,) + self.s2.shape)
        asymmetric = ~(np.max(np.abs(s2 - np.swapaxes(s2, 2, 3)), axis=(1, 2, 3)) <= 1e-10)
        if asymmetric.any():
            point = tuple(float(c) for c in points[np.argmax(asymmetric)])
            raise ValueError(f"top block is not symmetric at {point}")


class HyperSurfaceStress(Blocks):
    """Boundary-density stress pairing with first-jet values.

    y0[alpha, j] (shape (d, n)) and y1[alpha, i, j] (shape (d, n, n)) are
    coefficients on the basis form that omits axis j; the i slot pairs with
    jet derivative components.
    """

    __slots__ = ("y0", "y1")
    LAYOUT = (("y0", 1), ("y1", 2))


def nh_action_form(stress: NonHolonomicStress, section: JetSectionField) -> FormField:
    """The volume form x -> stress(j1 of the section)(x).

    Per fiber component the terms are summed as x0 a0, then for each i:
    x1 a1, x2 d_i a0, and x3 d_j a1 for each j.
    """
    n, d = stress.dim, stress.fiber_dim
    if section.dim != n or section.fiber_dim != d:
        raise ValueError("section shape does not match the stress")
    a0, a1 = section.a0, section.a1
    return FormField.volume(pair([
        (stress.x0, a0), (stress.x1, a1), (stress.x2, a0, 1), (stress.x3, a1, 1),
    ]).field)


def lift_second_order(stress: VariationalStress2, split: float = 1.0) -> NonHolonomicStress:
    """Represent a second-order stress non-holonomically.

    ``split`` in [0, 1] routes that fraction of the first-order block to the
    slot that feeds the boundary term; the complement stays on the direct
    first-jet slot.  Restricting back recovers the input for every split.
    """
    if not 0.0 <= split <= 1.0:
        raise ValueError("split must lie in [0, 1]")
    d, n = stress.fiber_dim, stress.dim
    x1 = TensorField(stress.s1.field.scale(1.0 - split), (d, n))
    x2 = TensorField(stress.s1.field.scale(split), (d, n))
    return NonHolonomicStress(stress.s0, x1, x2, stress.s2)


def nh_traction(stress: NonHolonomicStress) -> HyperSurfaceStress:
    """Boundary-density stress: contract the two derivative blocks into the volume."""
    return HyperSurfaceStress(stress.x2.signed(1), stress.x3.signed(2))


def hyper_surface_action(surface: HyperSurfaceStress, section: JetSectionField) -> FormField:
    """The (n-1)-form field Y(A) on the chart."""
    return FormField.omitting(pair([(surface.y0, section.a0), (surface.y1, section.a1)]).field)


def nh_divergence(stress: NonHolonomicStress) -> VariationalStress1:
    """Divergence as a first-order-stress-shaped pairing on first-jet sections.

    The value slot collects the derivative of the boundary block minus the
    direct value block; the gradient slot does the same one order up.  The
    layout lets the order-1 machinery run again on the result.
    """
    return VariationalStress1(
        stress.x2.divergence() - stress.x0, stress.x3.divergence() - stress.x1
    )


def second_contraction(arr: np.ndarray) -> List[FormValue]:
    """Contract both slots of a top-block value ``arr``, shape (d, n, n), into
    the volume form; a block of shape (d, n, n, nodes) gives one coefficient
    per node, each with the bits of its one-node form.

    Returns one (n-2)-form per fiber component; identically zero whenever the
    block is symmetric.
    """
    d, n = arr.shape[:2]
    if n < 2:
        raise ValueError("second contraction needs chart dimension >= 2")
    out = []
    for alpha in range(d):
        coeffs = {}
        for i in range(n):
            for j in range(i):
                # Basis form omits axes j < i.
                key = tuple(a for a in range(n) if a not in (i, j))
                val = ((-1.0) ** (i + j)) * (arr[alpha, i, j] - arr[alpha, j, i])
                coeffs[key] = coeffs.get(key, 0.0) + val
        out.append(FormValue(n, n - 2, coeffs))
    return out


def second_contraction_brute_force(arr: np.ndarray) -> List[FormValue]:
    """Oracle: apply two interior products to the volume form, term by term;
    ``arr`` as for :func:`second_contraction`."""
    d, n = arr.shape[:2]
    if n < 2:
        raise ValueError("second contraction needs chart dimension >= 2")
    vol = FormValue.volume(n)
    out = []
    for alpha in range(d):
        total = FormValue(n, n - 2)
        for i in range(n):
            inner = interior_product(i, vol)
            for j in range(n):
                contribution = interior_product(j, inner).scale(arr[alpha, i, j])
                total = total + contribution
        out.append(total)
    return out
