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
    FacePatch,
    FormField,
    QuadratureRule,
    face_boundary_pieces,
    face_groups,
    face_label,
    integrate,
    integrate_boundary,
    per_side,
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
    :func:`jetstress.geometry.face_groups`, the two faces of an axis in one
    :func:`jetstress.geometry.integrate` pass.  A group's description builds,
    on its face, its edge form (the tangent-traction action) and its face
    forms (the surface divergence and the pulled-back ``boundary_form``) on
    the face splits of the one chart gradient of the velocity (see
    :func:`jetstress.surface.face_split`).  Where no member has a
    transversal in ``transversals``, one split along the coordinate
    transversal serves both, each node with its own side's sign.  Otherwise
    each member splits along its own transversal, on its own map (see
    :meth:`jetstress.surface.FaceSplit.along`), and each node takes its own
    face's forms (see :func:`jetstress.geometry.per_side`).  One pass reads
    each face's edge pieces and nodes in turn, so an error at a node names
    that node's face.
    """
    n = body.dim
    own = transversals or {}
    groups = face_groups(body)
    gradient = velocity.gradient()

    def forms(face, members):
        splits = [face_split(surface_stress, face, TransversalField.coordinate(face), velocity,
                             gradient)]
        if any(member.label in own for member in members):
            splits = [splits[0].along(member, own.get(member.label)
                                      or TransversalField.coordinate(member))
                      for member in members]
        edge_form = per_side(*[traction_action(tangent_traction(split), split.velocity)
                               for split in splits])
        return ([per_side(*map(surface_divergence, splits)), boundary_form.pullback(face.to_chart)],
                edge_form)

    results = iter(integrate(forms, groups, rule))
    edge_terms: Dict[str, float] = {}
    face_terms: Dict[str, float] = {}
    boundary_terms: Dict[str, float] = {}
    for face, members in groups:
        face_axes = [a for a in range(n) if a != face.axis]
        others = [face_label(face_axes[p.axis], p.side) for p in face_boundary_pieces(face)]
        for member in members:
            face_terms[member.label], boundary_terms[member.label], *piece_values = next(results)
            for other, value in zip(others, piece_values):
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
    # div_div first: the memo serves the action's lower orders by truncating its reads.
    [[dd_term, lhs]] = integrate(
        [pairing_volume_form(div_div(stress), velocity), nh_action_form(stress, section)],
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
    defect of tau(u) (exact cancellation for a closed curve), both from one
    pass over the patch, a face group of itself with the edge form tau(u).
    """
    if face.param_dim != 1:
        raise ValueError("closed-boundary patches are supported for curves only")
    split = face_split(surface_stress, face, transversal, velocity, velocity.gradient())
    tau_u = traction_action(tangent_traction(split), split.velocity)
    [[quadrature_value, at_lower, at_upper]] = integrate(
        lambda face, members: ([tau_u.exterior_derivative()], tau_u), [(face, [face])], rule)
    # The endpoint pieces carry signs -1.0 and 1.0: their sum is tau(u)(hi) - tau(u)(lo).
    return quadrature_value, at_upper + at_lower
