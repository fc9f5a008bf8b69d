"""Jet-bundle structure: iterated jets, holonomic inclusion, holonomy.

An iterated jet carries four blocks (B0, B1, B2, B3): the value and
derivative slots of a first-jet section, then the derivatives of both.  No
symmetry is imposed on B3; symmetry is exactly what holonomy restores.

Only the first iteration is stored concretely.  Deeper orders are reached by
re-applying the same construction with the fiber itself a jet bundle, not by
dedicated containers.
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence, Tuple

import numpy as np

from .fields import JetValue, TensorField, jet_extension

__all__ = [
    "BundleSpec",
    "IteratedJetValue",
    "JetSectionField",
    "HolonomyClass",
    "include_holonomic",
    "symmetrize_iterated",
    "holonomy_class",
]


class BundleSpec:
    """Base and fiber dimensions; fiber frame changes go through ``FrameChange``."""

    __slots__ = ("base_dim", "fiber_dim")

    def __init__(self, base_dim: int, fiber_dim: int):
        if base_dim < 1 or fiber_dim < 1:
            raise ValueError("bundle dimensions must be positive")
        self.base_dim, self.fiber_dim = base_dim, fiber_dim


class IteratedJetValue:
    """Pointwise data of a first jet of a first-jet section.

    b0: (d,) values; b1: (d, n) first-jet slots; b2: (d, n) derivatives of b0;
    b3: (d, n, n) derivatives of b1, not necessarily symmetric.
    """

    __slots__ = ("b0", "b1", "b2", "b3")

    def __init__(self, b0: np.ndarray, b1: np.ndarray, b2: np.ndarray, b3: np.ndarray):
        d = b0.shape[0]
        n = b1.shape[1]
        if b1.shape != (d, n) or b2.shape != (d, n) or b3.shape != (d, n, n):
            raise ValueError("iterated jet blocks have inconsistent shapes")
        self.b0, self.b1, self.b2, self.b3 = b0, b1, b2, b3


class JetSectionField:
    """A section of the first-jet bundle given by its two component fields.

    ``a0`` has shape (d,), ``a1`` shape (d, n).  The section is compatible
    (holonomic) exactly when a1 equals the derivative of a0.
    """

    def __init__(self, a0: TensorField, a1: TensorField):
        if len(a0.shape) != 1 or len(a1.shape) != 2:
            raise ValueError("expected shapes (d,) and (d, n)")
        if a1.shape != (a0.shape[0], a0.dim) or a0.dim != a1.dim:
            raise ValueError("jet section blocks have inconsistent shapes")
        self.a0 = a0
        self.a1 = a1

    @property
    def dim(self) -> int:
        return self.a0.dim

    @property
    def fiber_dim(self) -> int:
        return self.a0.shape[0]

    @classmethod
    def from_velocity(cls, u: TensorField) -> "JetSectionField":
        """The compatible section induced by a velocity field (a1 = grad a0)."""
        if len(u.shape) != 1:
            raise ValueError("velocity field must have shape (d,)")
        return cls(u, u.gradient())

    def iterated_jet_at(self, point: Sequence[float]) -> IteratedJetValue:
        """First jet of this section: differentiates both blocks at the point."""
        n, d = self.dim, self.fiber_dim
        jet0 = jet_extension(self.a0.field, point, 1)
        jet1 = jet_extension(self.a1.field, point, 1)
        return IteratedJetValue(
            jet0.array(0), jet1.array(0).reshape(d, n), jet0.array(1),
            jet1.array(1).reshape(d, n, n),
        )

    def values_at(self, point: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
        return self.a0.at(point), self.a1.at(point)


def include_holonomic(jet: JetValue) -> IteratedJetValue:
    """Embed an order-2 jet as an iterated jet: duplicate the first-order slot."""
    if jet.order != 2:
        raise ValueError("holonomic inclusion expects an order-2 jet")
    return IteratedJetValue(
        jet.array(0).copy(), jet.array(1).copy(), jet.array(1).copy(), jet.array(2).copy()
    )


def symmetrize_iterated(b3: np.ndarray) -> np.ndarray:
    """Symmetrize the trailing two axes: the projection back onto order-2 data."""
    if b3.ndim != 3 or b3.shape[1] != b3.shape[2]:
        raise ValueError("expected a (d, n, n) block")
    return 0.5 * (b3 + np.transpose(b3, (0, 2, 1)))


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
    classes additionally require the derivative slots of the induced iterated
    jet to match and its b3 block to be symmetric.  For a first-jet section
    b2 = d(a0) by construction, so the derivative-slot condition is base
    compatibility again.
    """
    base_residual = 0.0
    sym_residual = 0.0
    for x in sample_points:
        it = section.iterated_jet_at(x)
        base_residual = max(base_residual, float(np.max(np.abs(it.b2 - it.b1))))
        sym_residual = max(
            sym_residual, float(np.max(np.abs(it.b3 - np.transpose(it.b3, (0, 2, 1)))))
        )
    if base_residual > tol:
        return HolonomyClass.NONE
    if sym_residual > tol:
        return HolonomyClass.SEMI_HOLONOMIC
    return HolonomyClass.HOLONOMIC
