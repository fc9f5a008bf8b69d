"""Order-1 stress analysis: action, traction, divergence, and power balance.

A first-order stress pairs the value and gradient of a velocity field into a
volume-form density.  Contracting its gradient slot into the volume form
yields the traction stress, whose restriction to a boundary face is the
surface force; the divergence is defined so that integration by parts closes
exactly.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from .bundles import JetSectionField
from .fields import Blocks, TensorField, fibre_sum, on_nodes, pair
from .geometry import (
    Body,
    FacePatch,
    FormField,
    QuadratureRule,
    integrate,
    integrate_boundary,
)
from .reports import relative_residual

__all__ = [
    "VariationalStress1",
    "action_form",
    "section_pairing_form",
    "traction_projection",
    "traction_action",
    "surface_force",
    "divergence",
    "body_force",
    "invariant_divergence_residual",
    "verify_balance_order1",
]


class VariationalStress1(Blocks):
    """First-order stress components relative to the chart volume form.

    ``s0`` (shape (d,)) pairs with velocity values, ``s1`` (shape (d, n))
    with velocity gradients.
    """

    __slots__ = ("s0", "s1")
    LAYOUT = (("s0", 0), ("s1", 1))


def action_form(stress: VariationalStress1, velocity: TensorField) -> FormField:
    """The volume form x -> stress(j1 velocity)(x), as an integrable field."""
    n, d = stress.dim, stress.fiber_dim
    if velocity.shape != (d,) or velocity.dim != n:
        raise ValueError("velocity shape does not match the stress")
    return FormField.volume(pair([(stress.s0, velocity), (stress.s1, velocity, 1)]).field)


def section_pairing_form(stress: VariationalStress1, section: JetSectionField) -> FormField:
    """Pair the two stress slots with the raw blocks of a first-jet section.

    This is the pointwise pairing of a dual of the first-jet bundle with a
    section of it; when the section is compatible it coincides with the
    stress action on the velocity's jet.
    """
    n, d = stress.dim, stress.fiber_dim
    if section.dim != n or section.fiber_dim != d:
        raise ValueError("section shape does not match the stress")
    return FormField.volume(pair([(stress.s0, section.a0), (stress.s1, section.a1)]).field)


def traction_projection(stress: VariationalStress1) -> TensorField:
    """The traction: the gradient slot contracted into the volume form, the
    value slot dropped.  Entry [alpha, j] (shape (d, n)) multiplies the form
    omitting axis j, with the sign that moving axis j to the front of the
    volume form produces.
    """
    return stress.s1.signed(1)


def traction_action(traction: TensorField, velocity: TensorField) -> FormField:
    """The (n-1)-form field sigma(w) on the chart, for a (d, n) traction sigma."""
    if velocity.shape != traction.shape[:1] or velocity.dim != traction.dim:
        raise ValueError("velocity shape does not match the traction")
    return FormField.omitting(pair([(traction, velocity)]).field)


def surface_force(traction: TensorField, face: FacePatch, velocity: TensorField) -> FormField:
    """Generalized boundary force density: the traction action pulled onto a face."""
    if face.param_box is None:
        raise ValueError("surface force needs a face of dimension >= 1")
    return traction_action(traction, velocity).pullback(face.to_chart)


def divergence(stress: VariationalStress1) -> TensorField:
    """Local divergence: derivative of the gradient slot minus the value slot."""
    return stress.s1.divergence() - stress.s0


def body_force(stress: VariationalStress1) -> TensorField:
    """The force density (shape (d,)) balancing the stress: minus its divergence."""
    return divergence(stress).scale(-1.0)


def pairing_volume_form(coefficients: TensorField, velocity: TensorField) -> FormField:
    """sum_alpha c[alpha] w[alpha] times the chart volume form."""
    return FormField.volume(pair([(coefficients, velocity)]).field)


def invariant_divergence_residual(
    stress: VariationalStress1,
    velocity: TensorField,
    points: Sequence[Sequence[float]],
) -> float:
    """Max pointwise gap between d(sigma(w)) - S(j1 w) and the local divergence."""
    sigma = traction_projection(stress)
    d_sigma_w = traction_action(sigma, velocity).exterior_derivative()
    action = action_form(stress, velocity)
    div = divergence(stress)
    vol = tuple(range(stress.dim))

    def gap(x):
        invariant = d_sigma_w.value_at(x).coefficient(vol) - action.value_at(x).coefficient(vol)
        local = fibre_sum([a * b for a, b in zip(div.field.values_on(x), velocity.field.values_on(x))])
        return abs(invariant - local)

    # numpy's max, unlike Python's, keeps a NaN gap.
    return float(np.max(on_nodes(gap, points)))


def verify_balance_order1(
    stress: VariationalStress1,
    velocity: TensorField,
    body: Body,
    rule: QuadratureRule,
) -> Tuple[Dict[str, float], float]:
    """Interior power equals body-force power plus boundary traction power:
    the terms and the relative residual.  The boundary power sums the faces'
    integrals in face order, the two faces of an axis read in one pass (see
    :func:`jetstress.geometry.integrate_boundary`)."""
    n = stress.dim
    if body.dim != n:
        raise ValueError("body dimension does not match the stress")
    [[lhs, interior]] = integrate(
        [action_form(stress, velocity), pairing_volume_form(body_force(stress), velocity)],
        body, rule,
    )

    sigma_w = traction_action(traction_projection(stress), velocity)
    boundary = sum(values[0] for values in integrate_boundary([sigma_w], body, rule))

    residual = abs(lhs - interior - boundary)
    terms = {"lhs": lhs, "interior": interior, "boundary": boundary, "residual_abs": residual}
    return terms, relative_residual(residual, lhs, interior, boundary)
