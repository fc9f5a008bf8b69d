"""Chart and frame transformation laws for jets and second-order stresses.

Everything here is evaluated numerically at sample points from jets of the
transition and the frame change; no hand-simplified symbolic shortcuts.  The
headline result is quantitative: the component-pair contraction of a
second-order stress fails to transform as a form, and the failure equals a
computable extra term, while the full action and the traction projection
transform cleanly.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .fields import JetValue, SmoothField, TensorField, jets_on, on_nodes
from .geometry import tuple_omitting
from .nonholonomic import VariationalStress2
from .stress import VariationalStress1

__all__ = [
    "FrameChange",
    "PointChange",
    "QUANTITIES",
    "invariance_check",
]


class PointChange:
    """Every jet of a frame change that the laws below read at one point.

    ``xp`` is the image of ``x``; ``jac`` is d(primed)/d(unprimed) at ``x``
    with determinant ``det``; ``dx[i, ip]`` and ``ddx[i, ip, jp]`` are the
    first and second derivatives of the inverse at ``xp``; ``a0``, ``a1``,
    ``a2`` are the value, gradient, and Hessian of the frame change at ``x``;
    ``minors`` as :func:`_minors`.  Arrays are kept C-contiguous: ``einsum``
    adds in memory order, so a strided view would change a law's bits.
    """

    __slots__ = ("x", "xp", "jac", "det", "dx", "ddx", "a0", "a1", "a2", "minors")

    def __init__(self, x: Tuple[float, ...], xp: Tuple[float, ...], jac: np.ndarray, det: float,
                 dx: np.ndarray, ddx: np.ndarray, a0: np.ndarray, a1: np.ndarray,
                 a2: np.ndarray, minors: np.ndarray):
        self.x, self.xp, self.det = x, xp, det
        self.jac, self.dx, self.ddx, self.a0, self.a1, self.a2, self.minors = (
            np.ascontiguousarray(a) for a in (jac, dx, ddx, a0, a1, a2, minors))


class FrameChange:
    """A chart change, given by both directions, together with an optional
    fiber frame change: ``forward`` maps unprimed to primed coordinates,
    ``inverse`` back, and ``frame`` is a (d, d) field over the unprimed chart."""

    __slots__ = ("forward", "inverse", "fiber_dim", "frame")

    def __init__(self, forward: SmoothField, inverse: SmoothField, fiber_dim: int,
                 frame: Optional[TensorField] = None):
        n = forward.dim
        if forward.ncomp != n or inverse.dim != n or inverse.ncomp != n:
            raise ValueError("transition maps must be square and of equal dimension")
        if frame is not None and frame.shape != (fiber_dim, fiber_dim):
            raise ValueError("frame change must be a (d, d) field")
        self.forward, self.inverse, self.fiber_dim, self.frame = forward, inverse, fiber_dim, frame

    @property
    def dim(self) -> int:
        return self.forward.dim

    def at_points(self, points: Sequence[Sequence[float]]) -> List[PointChange]:
        """The jets of the transition, its inverse, and the frame at each point.

        Each field is read once over all the points: the forward map at order
        1, the inverse at order 2 at the images, the frame at order 2, and every
        Jacobian minor from one stacked determinant.  Then, in this order: the
        first point with a singular transition Jacobian raises, a roundtrip
        defect inverse(forward(x)) - x above 1e-10 or NaN raises, and the first
        point with a singular frame raises.
        """
        d, n = self.fiber_dim, self.dim
        xps, jacs = jets_on(self.forward, points, 1)
        dets = np.linalg.det(jacs)
        for x, det in zip(points, dets):
            if abs(det) < 1e-12:
                raise ValueError(f"transition jacobian is singular at {tuple(x)}")
        back, dx, ddx = jets_on(self.inverse, xps, 2)
        worst = float(np.max(np.abs(back - np.reshape(points, (-1, n))), initial=0.0))
        if not worst <= 1e-10:
            raise ValueError(f"transition roundtrip defect {worst:.2e} exceeds 1.0e-10")
        if self.frame is None:
            frames = [np.broadcast_to(np.eye(d), (len(xps), d, d))]
            frames += [np.zeros((len(xps), d, d) + (n,) * p) for p in (1, 2)]
        else:
            frames = [a.reshape((-1, d, d) + (n,) * p)
                      for p, a in enumerate(jets_on(self.frame.field, points, 2))]
        for x, det in zip(points, np.linalg.det(frames[0])):
            if abs(det) < 1e-12:
                raise ValueError(f"frame change is singular at {tuple(x)}")
        return [
            PointChange(tuple(x), tuple(xps[k]), jacs[k], float(dets[k]), dx[k], ddx[k],
                        frames[0][k], frames[1][k], frames[2][k], minors)
            for k, (x, minors) in enumerate(zip(points, _minors(jacs)))
        ]


def _minors(jacs: np.ndarray) -> np.ndarray:
    """``[k, j, i]``: the minor of ``jacs[k]`` without row j and column i, all from one det."""
    n = jacs.shape[-1]
    keep = np.array([tuple_omitting(n, i) for i in range(n)], dtype=int).reshape(n, n - 1)
    return np.linalg.det(jacs[:, keep[:, None, :, None], keep[None, :, None, :]])


def _jet_law(pc: PointChange, jet: JetValue) -> JetValue:
    u, du, ddu = (np.ascontiguousarray(jet.array(p)) for p in range(3))
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


def _primed_blocks(stress, xps: Sequence[Tuple[float, ...]]) -> List[Tuple[np.ndarray, ...]]:
    """Each block of a primed stress at each image point, from one read per block."""
    blocks = (stress.s0, stress.s1)
    if isinstance(stress, VariationalStress2):
        blocks += (stress.s2,)
    values = [
        on_nodes(block.field.values_on, xps, width=block.field.ncomp).reshape((-1,) + block.shape)
        for block in blocks
    ]
    return list(zip(*values))


def _top_gradient_terms(pc: PointChange, s2p: np.ndarray):
    """What the top block deposits on the gradient block, before the volume weight.

    The two symmetric routes through one frame derivative, then the second
    derivatives of the inverse transition.
    """
    s2p = np.ascontiguousarray(s2p)
    return (
        np.einsum("BIJ,Baj,jI,iJ->ai", s2p, pc.a1, pc.dx, pc.dx),
        np.einsum("BIJ,Baj,jJ,iI->ai", s2p, pc.a1, pc.dx, pc.dx),
        np.einsum("BIJ,Ba,iIJ->ai", s2p, pc.a0, pc.ddx),
    )


def _stress_law(pc: PointChange, primed: Sequence[np.ndarray], top=None) -> Tuple[np.ndarray, ...]:
    """Unprimed stress blocks at ``pc.x`` from the primed blocks read at ``pc.xp``.

    Matching the power density for every velocity fixes every block,
    including the value block.  Two blocks give the first-order law: the
    same law without the top block; three need its :func:`_top_gradient_terms`.
    """
    primed = [np.ascontiguousarray(block) for block in primed]
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
    t1, t2, t3 = top
    # Hessian block: purely tensorial with the volume weight.
    hessian = np.einsum("BIJ,Ba,iI,jJ->aij", s2p, pc.a0, pc.dx, pc.dx)
    return pc.det * value, pc.det * (gradient + t1 + t2 + t3), pc.det * hessian


def _pullback(coeffs: np.ndarray, minors: np.ndarray) -> np.ndarray:
    """(n-1)-covectors, ``coeffs[..., j]`` on the index tuple that omits j, pulled
    back through a Jacobian with these minors: ``0.0 + sum_j coeffs[..., j] *
    minors[j, i]``, added in order of j."""
    return sum((coeffs[..., j, None] * minors[j] for j in range(len(minors))), 0.0)


def _traction_coeffs(s1: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The traction density s1(., u) as an (n-1)-covector's coefficients."""
    return np.array([float(np.sum(s1[:, j] * u)) * (-1.0) ** j for j in range(s1.shape[1])])


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
    signs = np.array([(-1.0) ** i for i in range(len(pc.xp))])
    basis_map = _pullback(np.eye(len(pc.xp)) * signs, pc.minors) * signs
    s1p, s2p = np.ascontiguousarray(s1p), np.ascontiguousarray(s2p)
    scalar = np.einsum("BI,Ba,Ii->ai", s1p, pc.a0, basis_map)
    vector = np.einsum("BIJ,Ba,jJ,Ii->aji", s2p, pc.a0, pc.dx, basis_map)
    return scalar, vector


def _density(blocks: Sequence[np.ndarray], jet: JetValue) -> float:
    """Power density: each stress block summed against the jet array of its order."""
    terms = [np.sum(np.ascontiguousarray(block * jet.array(p))) for p, block in enumerate(blocks)]
    return float(sum(terms[1:], terms[0]))


# A quantity's law maps, at one sample, the frame change, the primed blocks
# of its stress, the unprimed blocks they give, the top block's gradient
# terms if a second-order stress is in use, and the velocity jets in both
# charts, if some quantity pairs a velocity, to one gap per record term.
def _action_gaps(pc: PointChange, primed, unprimed, top, jet_un, jet_pr) -> Tuple[float]:
    return (abs(_density(unprimed, jet_un) - pc.det * _density(primed, jet_pr)),)


def _traction_gaps(pc: PointChange, primed, unprimed, top, jet_un, jet_pr) -> Tuple[float]:
    mapped = _pullback(_traction_coeffs(primed[1], jet_pr.array(0)), pc.minors)
    gap = _traction_coeffs(unprimed[1], jet_un.array(0)) - mapped
    return (float(np.max(np.abs(gap), initial=0.0)),)


def _naive_gaps(pc: PointChange, primed, unprimed, top, *jets) -> Tuple[float, float, float]:
    scalar_mapped, vector_mapped = _naive_blocks_mapped(pc, primed[1], primed[2])
    scalar_gap = unprimed[1] - scalar_mapped
    t1, t2, t3 = top
    predicted = pc.det * (t1 + t2 + t3)
    return tuple(float(np.max(np.abs(gap))) for gap in (
        scalar_gap,
        scalar_gap - predicted,
        np.einsum("aij->aji", unprimed[2]) - vector_mapped,
    ))


class Quantity:
    """The order of the primed stress a quantity reads, whether it pairs a
    velocity, its record term names, and its law."""

    __slots__ = ("order", "paired", "terms", "gaps")

    def __init__(self, order: int, paired: bool, terms: Tuple[str, ...],
                 gaps: Callable[..., Tuple[float, ...]]):
        self.order, self.paired, self.terms, self.gaps = order, paired, terms, gaps


# Every quantity the covariance check can select.  The naive contraction
# reports its defect, the gap to the predicted extra term, and the defect of
# its vector block, which transforms cleanly.
QUANTITIES: Dict[str, Quantity] = {
    "action1": Quantity(1, True, ("action1",), _action_gaps),
    "traction1": Quantity(1, True, ("traction1",), _traction_gaps),
    "action2": Quantity(2, True, ("action2",), _action_gaps),
    "naive-contraction": Quantity(
        2, False, ("naive_magnitude", "naive_match_defect", "vertical_invariance"), _naive_gaps
    ),
}


def invariance_check(
    quantities: Sequence[str],
    changes: Sequence[PointChange],
    primed_stress1: Optional[VariationalStress1] = None,
    primed_stress2: Optional[VariationalStress2] = None,
    velocity: Optional[TensorField] = None,
) -> Dict[str, float]:
    """Evaluate quantities in both charts; map each record term to its largest gap.

    ``quantities`` are keys of ``QUANTITIES``.  The stress data is given in
    the primed chart; velocities in the unprimed chart.  Invariant quantities
    report gaps at roundoff level, while the component-pair (naive)
    contraction reports its actual defect together with the gap to the
    predicted extra term.  ``changes`` are the frame change at each sample,
    as :meth:`FrameChange.at_points` gives them.  One pass serves every
    quantity: each field is read once over all the samples (each primed block
    in use at the image points, the velocity jets at ``pc.x`` if any quantity
    pairs a velocity), and each sample runs one law per stress order
    in use (the top block's gradient terms shared), the velocity's law, and
    each quantity's gaps.  The laws run per sample, not over a batch axis:
    ``einsum`` may change its summation order once a batch axis is added.
    """
    stresses = {1: primed_stress1, 2: primed_stress2}
    selected = []
    for name in quantities:
        if name not in QUANTITIES:
            raise ValueError(f"unknown invariance quantity {name!r}")
        quantity = QUANTITIES[name]
        if stresses[quantity.order] is None or (quantity.paired and velocity is None):
            needs = f"a primed {('first', 'second')[quantity.order - 1]}-order stress"
            raise ValueError(f"{name} needs {needs}" + (" and a velocity" if quantity.paired else ""))
        selected.append(quantity)
    orders = sorted({q.order for q in selected})
    paired = any(q.paired for q in selected)
    gaps_by_term: Dict[str, list] = {term: [0.0] for q in selected for term in q.terms}
    primed = {order: _primed_blocks(stresses[order], [pc.xp for pc in changes])
              for order in orders}
    if paired:
        velocity_jets = [JetValue(velocity.dim, velocity.field.ncomp, 2, rows)
                         for rows in zip(*jets_on(velocity.field, [pc.x for pc in changes], 2))]
    for k, pc in enumerate(changes):
        top = _top_gradient_terms(pc, primed[2][k][2]) if 2 in primed else None
        unprimed = {order: _stress_law(pc, blocks[k], top) for order, blocks in primed.items()}
        jets = ()
        if paired:
            jets = velocity_jets[k], _jet_law(pc, velocity_jets[k])
        for q in selected:
            gaps = q.gaps(pc, primed[q.order][k], unprimed[q.order], top, *jets)
            for term, gap in zip(q.terms, gaps):
                gaps_by_term[term].append(gap)
    # numpy's max, unlike Python's, keeps a NaN gap.
    return {term: float(np.max(values)) for term, values in gaps_by_term.items()}
