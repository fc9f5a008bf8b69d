"""Chart-based jet calculus and hyper-stress identity verification.

Exact truncated-Taylor arithmetic drives every derivative, so the power
balances, traction formulas, and transformation laws checked here are
limited only by quadrature and float roundoff.
"""

from .taylor import TruncatedSeries
from .fields import JetValue, SmoothField, TensorField, finite_difference_jet, jet_extension
from .geometry import (
    Body,
    Box,
    FacePatch,
    FormField,
    FormValue,
    QuadratureRule,
    boundary_faces,
    integrate,
    interior_product,
)
from .bundles import HolonomyClass, JetSectionField, holonomy_class
from .stress import (
    VariationalStress1,
    body_force,
    divergence,
    traction_action,
    traction_projection,
    verify_balance_order1,
)
from .nonholonomic import (
    HyperSurfaceStress,
    NonHolonomicStress,
    VariationalStress2,
    lift_second_order,
    nh_divergence,
    nh_traction,
    second_contraction,
)
from .surface import (
    RestrictedSurfaceStress,
    TransversalField,
    restrict_Y,
    surface_divergence,
    tangent_edge_force,
    tangent_traction,
    transversal_decomposition,
)
from .balance import (
    div_div,
    edge_assembly,
    first_integration_by_parts,
    verify_balance_order2,
)
from .covariance import FrameChange, invariance_check
from .scenarios import Scenario, ScenarioError, generate_scenario, load_scenario, run_checks

__version__ = "0.1.0"
