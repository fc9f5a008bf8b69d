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

from .fields import JetValue, TensorField, jet_extension
from .geometry import FormValue, TransitionMap, pullback_form_value, tuple_omitting
from .nonholonomic import VariationalStress2
from .stress import VariationalStress1

__all__ = [
    "FrameChange",
    "PointChange",
    "transform_jet2",
    "transform_stress2",
    "transform_stress1",
    "invariance_check",
]


@dataclass(frozen=True)
class PointChange:
    """Every jet of a frame change that the laws below read at one point.

    ``xp`` is the image of ``x``; ``jac`` is d(primed)/d(unprimed) at ``x``
    with determinant ``det``; ``dx[i, ip]`` and ``ddx[i, ip, jp]`` are the
    first and second derivatives of the inverse at ``xp``; ``a0``, ``a1``,
    ``a2`` are the value, gradient, and Hessian of the frame change at ``x``.
    """

    x: Tuple[float, ...]
    xp: Tuple[float, ...]
    jac: np.ndarray
    det: float
    dx: np.ndarray
    ddx: np.ndarray
    a0: np.ndarray
    a1: np.ndarray
    a2: np.ndarray


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
        return tuple(jet.array(p).reshape((d, d) + (n,) * p) for p in range(3))

    def at(self, point: Sequence[float]) -> PointChange:
        """The jets of the transition, its inverse, and the frame at ``point``."""
        x = tuple(point)
        forward = jet_extension(self.transition.forward, point, 1)
        jac = forward.array(1)
        det = float(np.linalg.det(jac))
        if abs(det) < 1e-12:
            raise ValueError(f"transition is singular at {x}")
        xp = tuple(forward.array(0))
        _, dx, ddx = self.transition.inverse_jets(xp)
        a0, a1, a2 = self.frame_jets(point)
        if abs(np.linalg.det(a0)) < 1e-12:
            raise ValueError(f"frame change is singular at {x}")
        return PointChange(x, xp, jac, det, dx, ddx, a0, a1, a2)


def _jet_law(pc: PointChange, jet: JetValue) -> JetValue:
    u, du, ddu = jet.array(0), jet.array(1), jet.array(2)
    a0, a1, a2, dx = pc.a0, pc.a1, pc.a2, pc.dx
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
        "bi,iIJ->bIJ", bracket1, pc.ddx
    )
    return JetValue(jet.dim, jet.fiber_dim, 2, (up, dup, ddup))


def transform_jet2(jet: JetValue, change: FrameChange, point: Sequence[float]) -> JetValue:
    """Second-order jet components in the primed chart, by the chain rule.

    The input jet lives at the unprimed point; the output is the jet of the
    transformed section at the image point.
    """
    if jet.order < 2:
        raise ValueError("second-order transformation needs an order-2 jet")
    if jet.dim != change.dim or jet.fiber_dim != change.fiber_dim:
        raise ValueError("jet shape does not match the frame change")
    return _jet_law(change.at(point), jet)


def _primed_blocks(stress, xp: Tuple[float, ...]) -> Tuple[np.ndarray, ...]:
    """Each block of a primed stress, read once at the image point."""
    blocks = (stress.s0, stress.s1)
    if isinstance(stress, VariationalStress2):
        blocks += (stress.s2,)
    return tuple(block.at(xp) for block in blocks)


def _top_gradient_terms(pc: PointChange, s2p: np.ndarray):
    """What the top block deposits on the gradient block, before the volume weight.

    The two symmetric routes through one frame derivative, then the second
    derivatives of the inverse transition.
    """
    return (
        np.einsum("BIJ,Baj,jI,iJ->ai", s2p, pc.a1, pc.dx, pc.dx),
        np.einsum("BIJ,Baj,jJ,iI->ai", s2p, pc.a1, pc.dx, pc.dx),
        np.einsum("BIJ,Ba,iIJ->ai", s2p, pc.a0, pc.ddx),
    )


def _stress_law(pc: PointChange, primed: Sequence[np.ndarray]) -> Tuple[np.ndarray, ...]:
    """Unprimed stress blocks at ``pc.x`` from the primed blocks read at ``pc.xp``.

    Matching the power density for every velocity fixes every block,
    including the value block.  Two blocks give the first-order law: the
    same law without the top block.
    """
    s0p, s1p = primed[:2]
    # Value block: everything the chain rule deposits on plain velocity values.
    value = np.einsum("B,Ba->a", s0p, pc.a0) + np.einsum("BI,Bai,iI->a", s1p, pc.a1, pc.dx)
    gradient = np.einsum("BI,Ba,iI->ai", s1p, pc.a0, pc.dx)
    if len(primed) == 2:
        return pc.det * value, pc.det * gradient
    s2p = primed[2]
    value = (
        value
        + np.einsum("BIJ,Baij,iI,jJ->a", s2p, pc.a2, pc.dx, pc.dx)
        + np.einsum("BIJ,Bai,iIJ->a", s2p, pc.a1, pc.ddx)
    )
    t1, t2, t3 = _top_gradient_terms(pc, s2p)
    # Hessian block: purely tensorial with the volume weight.
    top = np.einsum("BIJ,Ba,iI,jJ->aij", s2p, pc.a0, pc.dx, pc.dx)
    return pc.det * value, pc.det * (gradient + t1 + t2 + t3), pc.det * top


def transform_stress2(
    primed: VariationalStress2, change: FrameChange, point: Sequence[float]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unprimed second-order stress components at a point, from primed fields.

    The primed components are fields over the primed chart; they are read at
    the image of ``point``.
    """
    pc = change.at(point)
    return _stress_law(pc, _primed_blocks(primed, pc.xp))


def transform_stress1(
    primed: VariationalStress1, change: FrameChange, point: Sequence[float]
) -> Tuple[np.ndarray, np.ndarray]:
    """Unprimed first-order stress components at a point, from primed fields."""
    pc = change.at(point)
    return _stress_law(pc, _primed_blocks(primed, pc.xp))


def _from_hatted(values: Sequence[float]) -> FormValue:
    """The (n-1)-covector with the given coefficients on the contracted-volume basis."""
    n = len(values)
    coeffs = {tuple_omitting(n, i): v * (-1.0) ** i for i, v in enumerate(values)}
    return FormValue(n, n - 1, coeffs)


def _form_to_hatted(form: FormValue) -> np.ndarray:
    """Coefficients of an (n-1)-covector on the contracted-volume basis."""
    n = form.dim
    return np.array([(-1.0) ** i * form.coefficient(tuple_omitting(n, i)) for i in range(n)])


def _traction_covector(s1: np.ndarray, u: np.ndarray) -> FormValue:
    """The traction density s1(., u) as an (n-1)-covector."""
    return _from_hatted([float(np.sum(s1[:, j] * u)) for j in range(s1.shape[1])])


def _naive_blocks_mapped(
    pc: PointChange, s1p: np.ndarray, s2p: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The primed-chart component-pair contraction, pushed into the unprimed chart.

    The (n-1)-form factor pulls back through the forward Jacobian, the vector
    factor pushes through the inverse Jacobian, the fiber factor through the
    frame change.  Returns the scalar block (d, n) and vector block (d, n, n)
    in the unprimed bases.
    """
    # Pull each primed basis (n-1)-covector back and express it on the
    # unprimed contracted-volume basis: rows are primed axes.
    basis_map = np.array([
        _form_to_hatted(pullback_form_value(_from_hatted(unit), pc.jac))
        for unit in np.eye(len(pc.xp))
    ])
    scalar = np.einsum("BI,Ba,Ii->ai", s1p, pc.a0, basis_map)
    vector = np.einsum("BIJ,Ba,jJ,Ii->aji", s2p, pc.a0, pc.dx, basis_map)
    return scalar, vector


def _contraction_defect(pc: PointChange, s2p: np.ndarray) -> np.ndarray:
    t1, t2, t3 = _top_gradient_terms(pc, s2p)
    return pc.det * (t1 + t2 + t3)


def predicted_contraction_defect(
    primed: VariationalStress2, change: FrameChange, point: Sequence[float]
) -> np.ndarray:
    """The extra term the gradient-block law deposits on the scalar block."""
    pc = change.at(point)
    return _contraction_defect(pc, primed.s2.at(pc.xp))


# Quantity -> (order of the primed stress it reads, whether it pairs a velocity).
_QUANTITIES = {
    "action1": (1, True),
    "action2": (2, True),
    "traction1": (1, True),
    "naive-contraction": (2, False),
    "vertical-contraction": (2, False),
}


def _density(blocks: Sequence[np.ndarray], jet: JetValue) -> float:
    """Power density: each stress block summed against the jet array of its order."""
    terms = [np.sum(block * jet.array(p)) for p, block in enumerate(blocks)]
    return float(sum(terms[1:], terms[0]))


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
    if quantity not in _QUANTITIES:
        raise ValueError(f"unknown invariance quantity {quantity!r}")
    order, paired = _QUANTITIES[quantity]
    stress = primed_stress1 if order == 1 else primed_stress2
    if stress is None or (paired and velocity is None):
        needs = f"a primed {('first', 'second')[order - 1]}-order stress"
        raise ValueError(f"{quantity} needs {needs}" + (" and a velocity" if paired else ""))
    keys = ("discrepancy",) if paired else (
        "discrepancy", "predicted_match_defect", "vector_block_defect")
    gaps_by_key: Dict[str, list] = {key: [0.0] for key in keys}
    for x in sample_points:
        pc = change.at(x)
        primed = _primed_blocks(stress, pc.xp)
        unprimed = _stress_law(pc, primed)
        if paired:
            jet_un = jet_extension(velocity.field, pc.x, 2)
            jet_pr = _jet_law(pc, jet_un)
            if quantity == "traction1":
                mapped = pullback_form_value(_traction_covector(primed[1], jet_pr.array(0)), pc.jac)
                gaps = (_traction_covector(unprimed[1], jet_un.array(0)).max_abs_diff(mapped),)
            else:
                gaps = (abs(_density(unprimed, jet_un) - pc.det * _density(primed, jet_pr)),)
        else:
            scalar_mapped, vector_mapped = _naive_blocks_mapped(pc, primed[1], primed[2])
            scalar_gap = unprimed[1] - scalar_mapped
            predicted = _contraction_defect(pc, primed[2])
            gaps = tuple(float(np.max(np.abs(gap))) for gap in (
                scalar_gap,
                scalar_gap - predicted,
                np.einsum("aij->aji", unprimed[2]) - vector_mapped,
            ))
        for key, gap in zip(keys, gaps):
            gaps_by_key[key].append(gap)
    # numpy's max, unlike Python's, keeps a NaN gap.
    out = {key: float(np.max(values)) for key, values in gaps_by_key.items()}
    if quantity == "vertical-contraction":
        return {"discrepancy": out["vector_block_defect"]}
    return out
