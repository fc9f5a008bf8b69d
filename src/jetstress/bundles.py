"""Jet-bundle structure: first-jet sections and their holonomy class.

A first-jet section carries two blocks, a value ``a0`` and a derivative slot
``a1``.  Its first jet adds the derivatives of both; no symmetry is imposed
on the derivative of ``a1``, and symmetry is exactly what holonomy restores.
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence

import numpy as np

from .fields import Blocks, TensorField, jets_on

__all__ = [
    "JetSectionField",
    "HolonomyClass",
    "holonomy_class",
]


class JetSectionField(Blocks):
    """A section of the first-jet bundle given by its two component fields.

    ``a0`` has shape (d,), ``a1`` shape (d, n).  The section is compatible
    (holonomic) exactly when a1 equals the derivative of a0.
    """

    __slots__ = ("a0", "a1")
    LAYOUT = (("a0", 0), ("a1", 1))

    @classmethod
    def from_velocity(cls, u: TensorField) -> "JetSectionField":
        """The compatible section induced by a velocity field (a1 = grad a0)."""
        return cls(u, u.gradient())


class HolonomyClass(str, Enum):
    HOLONOMIC = "holonomic"
    SEMI_HOLONOMIC = "semi-holonomic"
    NONE = "none"


def holonomy_class(
    section: JetSectionField,
    sample_points: Sequence[Sequence[float]],
    tol: float = 1e-9,
) -> HolonomyClass:
    """Classify a first-jet section by sampled compatibility residuals.

    Base compatibility tests a1 against the derivative of a0; the stronger
    class additionally requires the derivative of a1 to be symmetric in its
    two chart axes.  Each block's first jet is read at every sample point in
    one :func:`jets_on` pass.
    """
    d, n = section.fiber_dim, section.dim
    _, grad0 = jets_on(section.a0.field, sample_points, 1)
    value1, grad1 = jets_on(section.a1.field, sample_points, 1)
    grad1 = grad1.reshape((-1, d, n, n))
    base_residual = np.max(np.abs(grad0 - value1.reshape((-1, d, n))), initial=0.0)
    sym_residual = np.max(np.abs(grad1 - np.swapaxes(grad1, 2, 3)), initial=0.0)
    # numpy's max keeps a NaN residual, and a NaN exceeds every bound.
    if not base_residual <= tol:
        return HolonomyClass.NONE
    if not sym_residual <= tol:
        return HolonomyClass.SEMI_HOLONOMIC
    return HolonomyClass.HOLONOMIC
