"""Second-order virtual-power decomposition down to edges.

The interior power of a second-order stress unwinds in three exact steps:
integration by parts against the boundary stress, face-level integration by
parts producing edge terms and surface divergences, and a second volume
integration by parts through the divergence of the divergence.  Each step is
verified by quadrature; the residual of the assembled identity is the
headline number.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .bundles import JetSectionField
from .fields import TensorField
from .geometry import (
    Body,
    FaceError,
    FacePatch,
    FormField,
    QuadratureRule,
    box_faces,
    face_groups,
    face_label,
    integrate,
    integrate_boundary,
)
from .nonholonomic import (
    NonHolonomicStress,
    hyper_surface_action,
    nh_action_form,
    nh_divergence,
    nh_traction,
)
from .reports import relative_residual
from .stress import (
    divergence,
    pairing_volume_form,
    section_pairing_form,
    traction_action,
    traction_projection,
)
from .surface import TransversalField, face_split, surface_divergence, tangent_traction

__all__ = [
    "first_integration_by_parts",
    "div_div",
    "edge_assembly",
    "verify_balance_order2",
    "closed_boundary_exact_term",
]


def first_integration_by_parts(
    stress: NonHolonomicStress,
    section: JetSectionField,
    body: Body,
    rule: QuadratureRule,
) -> Tuple[Dict[str, float], float]:
    """Interior action equals boundary-stress power minus divergence power:
    the terms and the relative residual."""
    [[lhs, interior]] = integrate(
        [nh_action_form(stress, section), section_pairing_form(nh_divergence(stress), section)],
        body, rule,
    )
    boundary_form = hyper_surface_action(nh_traction(stress), section)
    boundary = sum(values[0] for values in integrate_boundary([boundary_form], body, rule))
    residual = abs(lhs - (boundary - interior))
    terms = {"lhs": lhs, "boundary": boundary, "interior": interior, "residual_abs": residual}
    return terms, relative_residual(residual, lhs, boundary, interior)


def div_div(stress: NonHolonomicStress) -> TensorField:
    """Twice-iterated divergence: a body-force-like pairing with velocity values."""
    return divergence(nh_divergence(stress))


def edge_assembly(
    surface_stress,
    velocity: TensorField,
    body: Body,
    transversals: Optional[Dict[str, TransversalField]],
    rule: QuadratureRule,
    *,
    boundary_form: FormField,
) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, float]]:
    """Face-boundary integrals of the tangent traction, grouped by edge, each
    face's surface-divergence integral, and each face's integral of
    ``boundary_form``, a chart (n-1)-form.

    Each face contributes through its own induced boundary orientation; the
    per-edge sums are exactly the interactions two adjacent faces share.  A
    face's transversal is ``transversals[face.label]``, or its coordinate
    transversal.  The faces go in the groups of
    :func:`jetstress.geometry.face_groups`: the two faces of an axis form one
    group unless either has a transversal of its own (one that is not a
    coordinate transversal), since the coordinate transversal is the one
    transversal a face of both sides can read per node.  Each group's fields
    are built once (see :func:`jetstress.surface.face_split`), and one pass
    reads each face's edge pieces and nodes in turn (see
    :func:`jetstress.geometry.integrate`).  A ``ValueError`` from a
    group is raised again with the label of its face in front.
    """
    n = body.dim
    own = {label: t for label, t in (transversals or {}).items()
           if t is not None and not t.is_coordinate}
    edge_terms: Dict[str, float] = {}
    face_terms: Dict[str, float] = {}
    boundary_terms: Dict[str, float] = {}
    for face, members in face_groups(body, own):
        transversal = own.get(face.label) or TransversalField.coordinate(face)
        try:
            split = face_split(surface_stress, face, transversal, velocity)
            forms = [surface_divergence(split), boundary_form.pullback(face.to_chart)]
            tau_u = traction_action(tangent_traction(split), split.velocity)
            results = integrate(forms, face, rule, members, tau_u)
        except ValueError as exc:
            failed = exc.face if isinstance(exc, FaceError) else members[0]
            raise ValueError(f"{failed.label}: {exc}") from exc
        face_axes = [a for a in range(n) if a != face.boxface.axis]
        for member, values in zip(members, results):
            face_terms[member.label], boundary_terms[member.label], *piece_values = values
            for piece, value in zip(box_faces(face.param_box), piece_values):
                other = face_label(face_axes[piece.axis], piece.side)
                key = "|".join(sorted([member.label, other]))
                edge_terms[key] = edge_terms.get(key, 0.0) + member.sign * value
    return edge_terms, face_terms, boundary_terms


def verify_balance_order2(
    stress: NonHolonomicStress,
    velocity: TensorField,
    body: Body,
    transversals: Optional[Dict[str, TransversalField]],
    rule: QuadratureRule,
) -> Tuple[Dict[str, float], float]:
    """Full second-order identity: interior power against its four groups.

    interior = edges - face divergences - boundary divergence traction
    + twice-iterated divergence.

    Each point set is read once: the body's nodes for the interior power and
    the twice-iterated divergence, then each face's edge pieces and nodes for
    its edge terms, surface divergence and boundary divergence traction, the
    two faces of an axis in one pass (see :func:`edge_assembly`).  Returns
    the terms, each edge's and each face's included, and the relative
    residual.
    """
    section = JetSectionField.from_velocity(velocity)
    [[lhs, dd_term]] = integrate(
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
    terms = {"lhs": lhs, "edge_sum": edges, "face_div_sum": faces,
             "boundary_div": boundary_div, "div_div": dd_term, "residual_abs": residual}
    terms.update((f"edge:{key}", value) for key, value in edge_terms.items())
    terms.update((f"facediv:{key}", value) for key, value in face_terms.items())
    return terms, relative_residual(residual, lhs, edges, faces, boundary_div, dd_term)


def closed_boundary_exact_term(
    surface_stress,
    velocity: TensorField,
    face: FacePatch,
    transversal: TransversalField,
    rule: QuadratureRule,
) -> Tuple[float, float]:
    """The exact term over a closed boundary patch: both routes to (near) zero.

    Returns the quadrature of d(tau(u)) over the patch and the endpoint
    defect of tau(u) (exact cancellation for a closed curve), both from the
    patch's one face pass (see :func:`jetstress.geometry.integrate`).
    """
    if face.param_dim != 1:
        raise ValueError("closed-boundary patches are supported for curves only")
    split = face_split(surface_stress, face, transversal, velocity)
    tau_u = traction_action(tangent_traction(split), split.velocity)
    [[quadrature_value, at_lower, at_upper]] = integrate(
        [tau_u.exterior_derivative()], face, rule, edge_form=tau_u)
    # The endpoint pieces carry signs -1.0 and 1.0: their sum is tau(u)(hi) - tau(u)(lo).
    return quadrature_value, at_upper + at_lower
