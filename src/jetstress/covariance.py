"""Chart and frame transformation laws for jets and second-order stresses.

Everything here is evaluated numerically at sample points from jets of the
transition and the frame change; no hand-simplified symbolic shortcuts.  The
headline result is quantitative: the component-pair contraction of a
second-order stress fails to transform as a form, and the failure equals a
computable extra term, while the full action and the traction projection
transform cleanly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .fields import JetValue, TensorField, jet_extension, pair
from .geometry import FormValue, TransitionMap, pullback_form_value, tuple_omitting
from .nonholonomic import VariationalStress2
from .stress import VariationalStress1

__all__ = [
    "FrameChange",
    "transform_jet2",
    "transform_stress2",
    "transform_stress1",
    "invariance_check",
    "transformed_velocity_field",
]


@dataclass(frozen=True)
class FrameChange:
    """A chart transition together with an optional fiber frame change."""

    transition: TransitionMap
    fiber_dim: int
    frame: Optional[TensorField] = None  # (d, d) over the unprimed chart

    def __post_init__(self):
        if self.frame is not None and self.frame.shape != (self.fiber_dim, self.fiber_dim):
            raise ValueError("frame change must be a (d, d) field")

    @property
    def dim(self) -> int:
        return self.transition.dim

    def frame_jets(self, point: Sequence[float]):
        """Value, gradient, and Hessian arrays of the frame change at a point."""
        d, n = self.fiber_dim, self.dim
        if self.frame is None:
            return np.eye(d), np.zeros((d, d, n)), np.zeros((d, d, n, n))
        jet = jet_extension(self.frame.field, point, 2)
        a0 = jet.array(0).reshape(d, d)
        a1 = jet.array(1).reshape(d, d, n)
        a2 = jet.array(2).reshape(d, d, n, n)
        if abs(np.linalg.det(a0)) < 1e-12:
            raise ValueError(f"frame change is singular at {tuple(point)}")
        return a0, a1, a2


def transform_jet2(jet: JetValue, change: FrameChange, point: Sequence[float]) -> JetValue:
    """Second-order jet components in the primed chart, by the chain rule.

    The input jet lives at the unprimed point; the output is the jet of the
    transformed section at the image point.
    """
    if jet.order < 2:
        raise ValueError("second-order transformation needs an order-2 jet")
    n, d = change.dim, change.fiber_dim
    if jet.dim != n or jet.fiber_dim != d:
        raise ValueError("jet shape does not match the frame change")
    transition = change.transition
    xp = transition.forward.values_at(point)
    if abs(transition.jacobian_det(point)) < 1e-12:
        raise ValueError(f"transition is singular at {tuple(point)}")
    _, dx, ddx = transition.inverse_jets(tuple(xp))
    a0, a1, a2 = change.frame_jets(point)

    u = jet.array(0)
    du = jet.array(1)
    ddu = jet.array(2)

    up = a0 @ u
    # First derivatives: (A_{,i} u + A u_{,i}) x^i_{,i'}.
    bracket1 = np.einsum("bgi,g->bi", a1, u) + np.einsum("bg,gi->bi", a0, du)
    dup = np.einsum("bi,iI->bI", bracket1, dx)
    # Second derivatives: exact chain rule, symmetric by construction.
    bracket2 = (
        np.einsum("bgij,g->bij", a2, u)
        + np.einsum("bgi,gj->bij", a1, du)
        + np.einsum("bgj,gi->bij", a1, du)
        + np.einsum("bg,gij->bij", a0, ddu)
    )
    ddup = np.einsum("bij,iI,jJ->bIJ", bracket2, dx, dx) + np.einsum(
        "bi,iIJ->bIJ", bracket1, ddx
    )
    return JetValue(n, d, 2, (up, dup, ddup))


def _stress2_arrays(stress: VariationalStress2, point: Sequence[float]):
    return stress.s0.at(point), stress.s1.at(point), stress.s2.at(point)


def transform_stress2(
    primed: VariationalStress2, change: FrameChange, point: Sequence[float]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unprimed second-order stress components at a point, from primed fields.

    The primed components are fields over the primed chart; they are read at
    the image of ``point``.  Matching the power density for every velocity
    fixes all three blocks, including the value block.
    """
    transition = change.transition
    xp = tuple(transition.forward.values_at(point))
    jac_det = transition.jacobian_det(point)
    if abs(jac_det) < 1e-12:
        raise ValueError(f"transition is singular at {tuple(point)}")
    _, dx, ddx = transition.inverse_jets(xp)
    a0, a1, a2 = change.frame_jets(point)
    s0p, s1p, s2p = _stress2_arrays(primed, xp)

    # Value block: everything the chain rule deposits on plain velocity values.
    s0 = jac_det * (
        np.einsum("B,Ba->a", s0p, a0)
        + np.einsum("BI,Bai,iI->a", s1p, a1, dx)
        + np.einsum("BIJ,Baij,iI,jJ->a", s2p, a2, dx, dx)
        + np.einsum("BIJ,Bai,iIJ->a", s2p, a1, ddx)
    )
    # Gradient block: the two symmetric routes through one frame derivative.
    s1 = jac_det * (
        np.einsum("BI,Ba,iI->ai", s1p, a0, dx)
        + np.einsum("BIJ,Baj,jI,iJ->ai", s2p, a1, dx, dx)
        + np.einsum("BIJ,Baj,jJ,iI->ai", s2p, a1, dx, dx)
        + np.einsum("BIJ,Ba,iIJ->ai", s2p, a0, ddx)
    )
    # Hessian block: purely tensorial with the volume weight.
    s2 = jac_det * np.einsum("BIJ,Ba,iI,jJ->aij", s2p, a0, dx, dx)
    return s0, s1, s2


def transform_stress1(
    primed: VariationalStress1, change: FrameChange, point: Sequence[float]
) -> Tuple[np.ndarray, np.ndarray]:
    """Unprimed first-order stress components at a point, from primed fields."""
    transition = change.transition
    xp = tuple(transition.forward.values_at(point))
    jac_det = transition.jacobian_det(point)
    if abs(jac_det) < 1e-12:
        raise ValueError(f"transition is singular at {tuple(point)}")
    _, dx, _ = transition.inverse_jets(xp)
    a0, a1, _ = change.frame_jets(point)
    s0p = primed.s0.at(xp)
    s1p = primed.s1.at(xp)
    s0 = jac_det * (
        np.einsum("B,Ba->a", s0p, a0) + np.einsum("BI,Bai,iI->a", s1p, a1, dx)
    )
    s1 = jac_det * np.einsum("BI,Ba,iI->ai", s1p, a0, dx)
    return s0, s1


def transformed_velocity_field(velocity: TensorField, change: FrameChange) -> TensorField:
    """The same geometric velocity expressed over the primed chart.

    Composes the unprimed field with the inverse transition and applies the
    frame change; jets of the result are the oracle for the chain-rule path.
    """
    inverse = change.transition.inverse
    u = velocity.compose(inverse)
    if change.frame is None:
        return u
    # Entry [alpha, beta] of the transposed frame multiplies u[alpha] into beta.
    return pair([(change.frame.compose(inverse).signed(None, (1, 0)), u)])


def _interior_volume_basis(n: int, axis: int) -> FormValue:
    """The (n-1)-covector obtained by contracting one basis vector into the volume."""
    return FormValue(n, n - 1, {tuple_omitting(n, axis): (-1.0) ** axis})


def _form_to_hatted(form: FormValue) -> np.ndarray:
    """Coefficients of an (n-1)-covector on the contracted-volume basis."""
    n = form.dim
    return np.array(
        [((-1.0) ** i) * form.coefficient(tuple_omitting(n, i)) for i in range(n)]
    )


def _naive_blocks_mapped(
    primed: VariationalStress2, change: FrameChange, point: Sequence[float]
) -> Tuple[np.ndarray, np.ndarray]:
    """The primed-chart component-pair contraction, pushed into the unprimed chart.

    The (n-1)-form factor pulls back through the forward Jacobian, the vector
    factor pushes through the inverse Jacobian, the fiber factor through the
    frame change.  Returns the scalar block (d, n) and vector block (d, n, n)
    in the unprimed bases.
    """
    n, d = change.dim, change.fiber_dim
    transition = change.transition
    xp = tuple(transition.forward.values_at(point))
    jac_fwd = transition.forward_jacobian(point)
    _, dx, _ = transition.inverse_jets(xp)
    a0, _, _ = change.frame_jets(point)
    s0p, s1p, s2p = _stress2_arrays(primed, xp)

    # Pull each primed basis (n-1)-covector back and express it on the
    # unprimed contracted-volume basis.
    basis_map = np.zeros((n, n))  # [primed axis, unprimed axis]
    for ip in range(n):
        pulled = pullback_form_value(_interior_volume_basis(n, ip), jac_fwd)
        basis_map[ip] = _form_to_hatted(pulled)
    scalar = np.einsum("BI,Ba,Ii->ai", s1p, a0, basis_map)
    vector = np.einsum("BIJ,Ba,jJ,Ii->aji", s2p, a0, dx, basis_map)
    return scalar, vector


def predicted_contraction_defect(
    primed: VariationalStress2, change: FrameChange, point: Sequence[float]
) -> np.ndarray:
    """The extra term the gradient-block law deposits on the scalar block."""
    transition = change.transition
    xp = tuple(transition.forward.values_at(point))
    jac_det = transition.jacobian_det(point)
    _, dx, ddx = transition.inverse_jets(xp)
    a0, a1, _ = change.frame_jets(point)
    _, _, s2p = _stress2_arrays(primed, xp)
    return jac_det * (
        np.einsum("BIJ,Baj,jI,iJ->ai", s2p, a1, dx, dx)
        + np.einsum("BIJ,Baj,jJ,iI->ai", s2p, a1, dx, dx)
        + np.einsum("BIJ,Ba,iIJ->ai", s2p, a0, ddx)
    )


def invariance_check(
    quantity: str,
    change: FrameChange,
    sample_points: Sequence[Sequence[float]],
    primed_stress1: Optional[VariationalStress1] = None,
    primed_stress2: Optional[VariationalStress2] = None,
    velocity: Optional[TensorField] = None,
) -> Dict[str, float]:
    """Evaluate a quantity in both charts and report the largest discrepancy.

    Supported quantities: ``action1``, ``action2``, ``traction1``,
    ``naive-contraction``, ``vertical-contraction``.  The stress data is
    given in the primed chart; velocities in the unprimed chart.  Invariant
    quantities should report discrepancies at roundoff level, while the
    component-pair (naive) contraction reports its actual defect together
    with the gap to the predicted extra term.
    """
    n, d = change.dim, change.fiber_dim
    transition = change.transition
    out: Dict[str, float] = {"discrepancy": 0.0}

    if quantity == "action1":
        if primed_stress1 is None or velocity is None:
            raise ValueError("action1 needs a primed first-order stress and a velocity")
        for x in sample_points:
            xp = tuple(transition.forward.values_at(x))
            jac_det = transition.jacobian_det(x)
            jet_un = jet_extension(velocity.field, x, 2)
            jet_pr = transform_jet2(jet_un, change, x)
            s0p = primed_stress1.s0.at(xp)
            s1p = primed_stress1.s1.at(xp)
            primed_density = float(
                np.sum(s0p * jet_pr.array(0)) + np.sum(s1p * jet_pr.array(1))
            )
            s0, s1 = transform_stress1(primed_stress1, change, x)
            unprimed_density = float(
                np.sum(s0 * jet_un.array(0)) + np.sum(s1 * jet_un.array(1))
            )
            out["discrepancy"] = max(
                out["discrepancy"], abs(unprimed_density - jac_det * primed_density)
            )
        return out

    if quantity == "action2":
        if primed_stress2 is None or velocity is None:
            raise ValueError("action2 needs a primed second-order stress and a velocity")
        for x in sample_points:
            xp = tuple(transition.forward.values_at(x))
            jac_det = transition.jacobian_det(x)
            jet_un = jet_extension(velocity.field, x, 2)
            jet_pr = transform_jet2(jet_un, change, x)
            s0p, s1p, s2p = _stress2_arrays(primed_stress2, xp)
            primed_density = float(
                np.sum(s0p * jet_pr.array(0))
                + np.sum(s1p * jet_pr.array(1))
                + np.sum(s2p * jet_pr.array(2))
            )
            s0, s1, s2 = transform_stress2(primed_stress2, change, x)
            unprimed_density = float(
                np.sum(s0 * jet_un.array(0))
                + np.sum(s1 * jet_un.array(1))
                + np.sum(s2 * jet_un.array(2))
            )
            out["discrepancy"] = max(
                out["discrepancy"], abs(unprimed_density - jac_det * primed_density)
            )
        return out

    if quantity == "traction1":
        if primed_stress1 is None or velocity is None:
            raise ValueError("traction1 needs a primed first-order stress and a velocity")
        for x in sample_points:
            xp = tuple(transition.forward.values_at(x))
            jac_fwd = transition.forward_jacobian(x)
            jet_un = jet_extension(velocity.field, x, 2)
            jet_pr = transform_jet2(jet_un, change, x)
            s1p = primed_stress1.s1.at(xp)
            # Primed traction density sigma'(w') as an (n-1)-covector.
            coeffs = {}
            for jp in range(n):
                value = float(np.sum(s1p[:, jp] * jet_pr.array(0)) * ((-1.0) ** jp))
                coeffs[tuple_omitting(n, jp)] = value
            primed_form = FormValue(n, n - 1, coeffs)
            mapped = pullback_form_value(primed_form, jac_fwd)
            _, s1 = transform_stress1(primed_stress1, change, x)
            coeffs_un = {}
            for j in range(n):
                value = float(np.sum(s1[:, j] * jet_un.array(0)) * ((-1.0) ** j))
                coeffs_un[tuple_omitting(n, j)] = value
            unprimed_form = FormValue(n, n - 1, coeffs_un)
            out["discrepancy"] = max(
                out["discrepancy"], unprimed_form.max_abs_diff(mapped)
            )
        return out

    if quantity in ("naive-contraction", "vertical-contraction"):
        if primed_stress2 is None:
            raise ValueError(f"{quantity} needs a primed second-order stress")
        match_defect = 0.0
        vector_defect = 0.0
        magnitude = 0.0
        for x in sample_points:
            scalar_mapped, vector_mapped = _naive_blocks_mapped(primed_stress2, change, x)
            s0, s1, s2 = transform_stress2(primed_stress2, change, x)
            scalar_gap = s1 - scalar_mapped
            vector_gap = np.einsum("aij->aji", s2) - vector_mapped
            predicted = predicted_contraction_defect(primed_stress2, change, x)
            magnitude = max(magnitude, float(np.max(np.abs(scalar_gap))))
            match_defect = max(match_defect, float(np.max(np.abs(scalar_gap - predicted))))
            vector_defect = max(vector_defect, float(np.max(np.abs(vector_gap))))
        if quantity == "vertical-contraction":
            out["discrepancy"] = vector_defect
            return out
        out["discrepancy"] = magnitude
        out["predicted_match_defect"] = match_defect
        out["vector_block_defect"] = vector_defect
        return out

    raise ValueError(f"unknown invariance quantity {quantity!r}")
