"""Second-order virtual-power decomposition down to edges.

The interior power of a second-order stress unwinds in three exact steps:
integration by parts against the boundary stress, face-level integration by
parts producing edge terms and surface divergences, and a second volume
integration by parts through the divergence of the divergence.  Each step is
verified by quadrature; the residual of the assembled identity is the
headline number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .bundles import JetSectionField
from .fields import TensorField
from .geometry import (
    Body,
    FacePatch,
    FormField,
    QuadratureRule,
    boundary_faces,
    box_faces,
    face_label,
    integrate,
    integrate_face,
    integrate_over,
)
from .nonholonomic import (
    NonHolonomicStress,
    hyper_surface_action,
    nh_action_form,
    nh_divergence,
    nh_traction,
)
from .reports import CheckRecord, relative_residual
from .stress import (
    divergence,
    pairing_volume_form,
    section_pairing_form,
    traction_action,
    traction_projection,
)
from .surface import TransversalField, face_split, surface_divergence, tangent_traction

__all__ = [
    "BalanceReport",
    "first_integration_by_parts",
    "div_div",
    "edge_assembly",
    "verify_balance_order2",
    "closed_boundary_exact_term",
]


@dataclass
class BalanceReport:
    """Term-by-term record of the second-order power identity."""

    interior_action: float
    edge_terms: Dict[str, float]
    face_divergence_terms: Dict[str, float]
    boundary_div_term: float
    div_div_term: float
    residual: float
    relative_residual: float

    @property
    def edge_sum(self) -> float:
        return sum(self.edge_terms.values())

    @property
    def face_divergence_sum(self) -> float:
        return sum(self.face_divergence_terms.values())

    def terms(self) -> Dict[str, float]:
        """The ``balance2`` record terms: lhs, the four groups, the residual, each edge and face."""
        terms = {
            "lhs": self.interior_action,
            "edge_sum": self.edge_sum,
            "face_div_sum": self.face_divergence_sum,
            "boundary_div": self.boundary_div_term,
            "div_div": self.div_div_term,
            "residual_abs": self.residual,
        }
        for key, value in self.edge_terms.items():
            terms[f"edge:{key}"] = value
        for key, value in self.face_divergence_terms.items():
            terms[f"facediv:{key}"] = value
        return terms


def first_integration_by_parts(
    stress: NonHolonomicStress,
    section: JetSectionField,
    body: Body,
    rule: QuadratureRule,
    tolerance: float = 1e-10,
) -> CheckRecord:
    """Interior action equals boundary-stress power minus divergence power."""
    lhs, interior = integrate_over(
        [nh_action_form(stress, section), section_pairing_form(nh_divergence(stress), section)],
        body, rule,
    )
    boundary_form = hyper_surface_action(nh_traction(stress), section)
    boundary = sum(integrate_over([boundary_form], f, rule)[0] for f in boundary_faces(body))
    residual = abs(lhs - (boundary - interior))
    return CheckRecord(
        "first-integration-by-parts",
        {"lhs": lhs, "boundary": boundary, "interior": interior, "residual_abs": residual},
        relative_residual(residual, lhs, boundary, interior),
        tolerance,
    )


def div_div(stress: NonHolonomicStress) -> TensorField:
    """Twice-iterated divergence: a body-force-like pairing with velocity values."""
    return divergence(nh_divergence(stress))


def edge_assembly(
    surface_stress,
    velocity: TensorField,
    body: Body,
    transversals: Optional[Dict[str, TransversalField]] = None,
    rule: QuadratureRule = QuadratureRule(6),
    *,
    boundary_form: FormField,
) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, float]]:
    """Face-boundary integrals of the tangent traction, grouped by edge, each
    face's surface-divergence integral, and each face's integral of
    ``boundary_form``, a chart (n-1)-form.

    Each face contributes through its own induced boundary orientation; the
    per-edge sums are exactly the interactions two adjacent faces share.  A
    face's transversal is ``transversals[face.label]``, or its coordinate
    transversal.  Each face's fields are built once (see
    :func:`jetstress.surface.face_split`), and one pass reads the face's
    nodes and its edge pieces' (see :func:`jetstress.geometry.integrate_face`).
    """
    n = body.dim
    edge_terms: Dict[str, float] = {}
    face_terms: Dict[str, float] = {}
    boundary_terms: Dict[str, float] = {}
    for face in boundary_faces(body):
        transversal = (transversals or {}).get(face.label) or TransversalField.coordinate(face)
        split = face_split(surface_stress, face, transversal, velocity)
        forms = [surface_divergence(split), boundary_form.pullback(face.to_chart)]
        tau_u = traction_action(tangent_traction(split), split.velocity)
        values, piece_values = integrate_face(forms, tau_u, face, rule)
        face_terms[face.label], boundary_terms[face.label] = values
        face_axes = [a for a in range(n) if a != face.boxface.axis]
        for piece, value in zip(box_faces(face.param_box), piece_values):
            other = face_label(face_axes[piece.axis], piece.side)
            key = "|".join(sorted([face.label, other]))
            edge_terms[key] = edge_terms.get(key, 0.0) + face.sign * value
    return edge_terms, face_terms, boundary_terms


def verify_balance_order2(
    stress: NonHolonomicStress,
    velocity: TensorField,
    body: Body,
    transversals: Optional[Dict[str, TransversalField]] = None,
    rule: QuadratureRule = QuadratureRule(6),
) -> BalanceReport:
    """Full second-order identity: interior power against its four groups.

    interior = edges - face divergences - boundary divergence traction
    + twice-iterated divergence.

    Each point set is read once: the body's nodes for the interior power and
    the twice-iterated divergence, each face's nodes for its surface
    divergence and boundary divergence traction, and each face's edge pieces
    together.
    """
    section = JetSectionField.from_velocity(velocity)
    lhs, dd_term = integrate_over(
        [nh_action_form(stress, section), pairing_volume_form(div_div(stress), velocity)],
        body, rule,
    )

    sigma_div_u = traction_action(traction_projection(nh_divergence(stress)), velocity)
    edge_terms, face_terms, boundary_terms = edge_assembly(
        nh_traction(stress), velocity, body, transversals, rule, boundary_form=sigma_div_u
    )
    boundary_div = sum(boundary_terms.values())

    edges, faces = sum(edge_terms.values()), sum(face_terms.values())
    residual = abs(lhs - (edges - faces - boundary_div + dd_term))
    return BalanceReport(
        interior_action=lhs,
        edge_terms=edge_terms,
        face_divergence_terms=face_terms,
        boundary_div_term=boundary_div,
        div_div_term=dd_term,
        residual=residual,
        relative_residual=relative_residual(residual, lhs, edges, faces, boundary_div, dd_term),
    )


def closed_boundary_exact_term(
    surface_stress,
    velocity: TensorField,
    face: FacePatch,
    transversal: TransversalField,
    rule: QuadratureRule = QuadratureRule(64),
) -> Tuple[float, float]:
    """The exact term over a closed boundary patch: both routes to (near) zero.

    Returns the quadrature of d(tau(u)) over the patch and the endpoint
    defect of tau(u) (exact cancellation for a closed curve).
    """
    if face.param_dim != 1:
        raise ValueError("closed-boundary patches are supported for curves only")
    split = face_split(surface_stress, face, transversal, velocity)
    tau_u = traction_action(tangent_traction(split), split.velocity)
    [quadrature_value] = integrate([tau_u.exterior_derivative()], face.param_box, rule, face.sign)
    lo = (face.param_box.lower[0],)
    hi = (face.param_box.upper[0],)
    endpoint_defect = tau_u.value_at(hi).coefficient(()) - tau_u.value_at(lo).coefficient(())
    return quadrature_value, endpoint_defect
