"""Scenario files: schema, validation, check execution, and generation.

A scenario is a JSON document with a versioned schema id describing the
geometry, the stress and velocity data, which checks to run, and their
tolerances.  Field components are numbers, expression strings, or monomial
tables; see the README for the grammar.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .balance import closed_boundary_exact_term, verify_balance_order2
from .bundles import BundleSpec, JetSectionField
from .covariance import FrameChange, invariance_check
from .exprs import parse_expression
from .fields import (
    SmoothField,
    TensorField,
    finite_difference_jet,
    jet_extension,
    monomial_map,
)
from .geometry import (
    Body,
    Box,
    Chart,
    FacePatch,
    QuadratureRule,
    TransitionMap,
    boundary_faces,
    integrate,  # noqa: F401  (perfbench/tests check that tracing rebinds it here)
    integrate_over_body,
)
from .nonholonomic import (
    NonHolonomicStress,
    VariationalStress2,
    lift_second_order,
    nh_action_form,
    nh_traction,
    second_contraction,
    second_contraction_brute_force,
)
from .reports import CheckRecord, RunReport
from .stress import (
    VariationalStress1,
    invariant_divergence_residual,
    surface_force,
    traction_projection,
    verify_balance_order1,
)
from .surface import TransversalField
from .taylor import TruncatedSeries

__all__ = [
    "SCHEMA_ID",
    "DEFAULT_TOLERANCES",
    "CHECK_IDS",
    "ScenarioError",
    "Scenario",
    "load_scenario",
    "run_checks",
    "generate_scenario",
]

SCHEMA_ID = "jetstress-scenario/1"

DEFAULT_TOLERANCES: Dict[str, float] = {
    "balance1": 1e-10,
    "balance2": 1e-9,
    "cauchy": 1e-11,
    "div-consistency": 1e-11,
    "second-contraction": 1e-14,
    "covariance": 1e-10,
    "stokes-closed": 1e-10,
    "lambda-invariance": 1e-13,
    "jet-oracle": 1e-6,
}

CHECK_IDS = tuple(sorted(DEFAULT_TOLERANCES))


class ScenarioError(ValueError):
    """Configuration problem; the message names the offending key."""


# -- field parsing ------------------------------------------------------------


def _component_map(spec: Any, dim: int, key: str) -> Callable:
    if isinstance(spec, (int, float)):
        value = float(spec)
        return lambda variables: TruncatedSeries.constant(
            variables[0].dim, variables[0].order, value
        )
    if isinstance(spec, str):
        try:
            return parse_expression(spec, dim)
        except ValueError as exc:
            raise ScenarioError(f"{key}: {exc}") from exc
    if isinstance(spec, dict) and "expr" in spec:
        return _component_map(spec["expr"], dim, key)
    if isinstance(spec, dict) and "monomials" in spec:
        table = []
        for entry in spec["monomials"]:
            try:
                exps, coef = entry
                exps = tuple(int(e) for e in exps)
                coef = float(coef)
            except (TypeError, ValueError) as exc:
                raise ScenarioError(f"{key}: bad monomial entry {entry!r}") from exc
            if len(exps) != dim or any(e < 0 for e in exps):
                raise ScenarioError(f"{key}: monomial exponents {exps} invalid for n={dim}")
            table.append((exps, coef))
        return monomial_map(table)
    raise ScenarioError(f"{key}: component must be a number, string, or monomial table")


def _flatten(specs: Any, shape: Tuple[int, ...], key: str) -> List[Any]:
    if not shape:
        return [specs]
    if not isinstance(specs, list) or len(specs) != shape[0]:
        raise ScenarioError(f"{key}: expected a list of length {shape[0]}")
    out: List[Any] = []
    for idx, item in enumerate(specs):
        out.extend(_flatten(item, shape[1:], f"{key}[{idx}]"))
    return out


def parse_tensor(specs: Any, dim: int, shape: Tuple[int, ...], key: str) -> TensorField:
    flat = _flatten(specs, shape, key)
    maps = [_component_map(s, dim, f"{key}#{i}") for i, s in enumerate(flat)]
    return TensorField(SmoothField.from_series_maps(dim, maps), shape)


# -- scenario object ----------------------------------------------------------


@dataclass
class Scenario:
    """Validated scenario: parsed fields plus the raw document digest."""

    raw: Dict[str, Any]
    digest: str
    bundle: BundleSpec
    body: Body
    quad_order: int
    checks: List[str]
    tolerances: Dict[str, float]
    stress1: Optional[VariationalStress1] = None
    stress2: Optional[VariationalStress2] = None
    stress2_split: float = 1.0
    raw_stress: Optional[NonHolonomicStress] = None
    velocity: Optional[TensorField] = None
    section: Optional[JetSectionField] = None
    transversals: Optional[Dict[str, TransversalField]] = None
    frame_change: Optional[FrameChange] = None
    covariance_samples: List[Tuple[float, ...]] = field(default_factory=list)
    covariance_quantities: Optional[List[str]] = None
    expect_noninvariant: bool = False
    closed_face: Optional[FacePatch] = None
    closed_transversal: Optional[TransversalField] = None

    def nonholonomic_stress(self) -> NonHolonomicStress:
        if self.raw_stress is not None:
            return self.raw_stress
        if self.stress2 is not None:
            return lift_second_order(self.stress2, self.stress2_split)
        raise ScenarioError("stress: a 'raw' or 'order2' block is required for this check")


def _path(parent: Optional[str], key: str) -> str:
    return key if parent is None else f"{parent}.{key}"


def _require(doc: Dict[str, Any], key: str, parent: Optional[str] = None) -> Any:
    if key not in doc:
        raise ScenarioError(f"{_path(parent, key)}: missing required key")
    return doc[key]


def _required_tensor(
    blk: Dict[str, Any], parent: str, key: str, dim: int, shape: Tuple[int, ...]
) -> TensorField:
    return parse_tensor(_require(blk, key, parent), dim, shape, f"{parent}.{key}")


def _block(doc: Dict[str, Any], key: str, parent: Optional[str] = None) -> Dict[str, Any]:
    """The optional object ``doc[key]``; ``{}`` when absent or null."""
    value = doc.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ScenarioError(f"{_path(parent, key)}: expected an object")
    return value


def _is_count(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _number(value: Any, key: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"{key}: expected a number, got {value!r}") from exc


def _box(geometry: Dict[str, Any], key: str, n: int) -> Box:
    bounds = _require(geometry, key, "geometry")
    if not isinstance(bounds, list) or len(bounds) != n:
        raise ScenarioError(f"geometry.{key}: expected {n} axis bounds")
    if not all(isinstance(b, list) and len(b) == 2 for b in bounds):
        raise ScenarioError(f"geometry.{key}: each axis bound must be a [lo, hi] pair")
    try:
        return Box.from_bounds([[_number(v, f"geometry.{key}") for v in b] for b in bounds])
    except ValueError as exc:
        raise ScenarioError(f"geometry.{key}: {exc}") from exc


def load_scenario(document: Dict[str, Any] | str) -> Scenario:
    """Parse and validate a scenario document (dict or JSON text)."""
    if isinstance(document, str):
        try:
            doc = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"document: invalid JSON ({exc})") from exc
    else:
        doc = document
    if not isinstance(doc, dict):
        raise ScenarioError("document: expected a JSON object")
    digest = hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode("utf-8")
    ).hexdigest()[:16]

    if doc.get("schema") != SCHEMA_ID:
        raise ScenarioError(f"schema: expected {SCHEMA_ID!r}, got {doc.get('schema')!r}")

    bundle = _require(doc, "bundle")
    if not isinstance(bundle, dict):
        raise ScenarioError("bundle: expected an object with keys n and d")
    n = bundle.get("n")
    d = bundle.get("d")
    if not _is_count(n):
        raise ScenarioError("bundle.n: must be a positive integer")
    if not _is_count(d):
        raise ScenarioError("bundle.d: must be a positive integer")

    geometry = _require(doc, "geometry")
    if not isinstance(geometry, dict):
        raise ScenarioError("geometry: expected an object")
    chart = Chart(n, _box(geometry, "chart_box", n))
    body_box = _box(geometry, "body_box", n)
    patch = None
    if geometry.get("patch") is not None:
        patch_specs = geometry["patch"]
        if not isinstance(patch_specs, list) or len(patch_specs) != n:
            raise ScenarioError("geometry.patch: expected one expression per axis")
        patch = parse_tensor(patch_specs, n, (n,), "geometry.patch").field
    body = Body(chart, body_box, patch)
    quad_order = geometry.get("quad_order", 6)
    if not _is_count(quad_order):
        raise ScenarioError("geometry.quad_order: must be a positive integer")
    if patch is not None:
        try:
            body.check_embedding(QuadratureRule(quad_order))
        except ValueError as exc:
            raise ScenarioError(f"geometry.patch: {exc}") from exc

    checks = _require(doc, "checks")
    if not isinstance(checks, list) or not checks:
        raise ScenarioError("checks: expected a non-empty list")
    for cid in checks:
        if cid not in CHECK_IDS:
            raise ScenarioError(f"checks: unknown check id {cid!r}")

    tolerances = dict(DEFAULT_TOLERANCES)
    overrides = doc.get("tolerances", {})
    if not isinstance(overrides, dict):
        raise ScenarioError("tolerances: expected an object mapping check ids to numbers")
    for key, value in overrides.items():
        if key not in CHECK_IDS:
            raise ScenarioError(f"tolerances.{key}: unknown check id")
        tolerances[key] = _number(value, f"tolerances.{key}")

    scenario = Scenario(
        raw=doc, digest=digest, bundle=BundleSpec(n, d), body=body,
        quad_order=quad_order, checks=list(checks), tolerances=tolerances,
    )

    stress_block = _block(doc, "stress")
    if "order1" in stress_block:
        blk = _block(stress_block, "order1", "stress")
        scenario.stress1 = VariationalStress1(
            _required_tensor(blk, "stress.order1", "s0", n, (d,)),
            _required_tensor(blk, "stress.order1", "s1", n, (d, n)),
        )
    if "order2" in stress_block:
        blk = _block(stress_block, "order2", "stress")
        s2 = _required_tensor(blk, "stress.order2", "s2", n, (d, n, n))
        scenario.stress2 = VariationalStress2(
            _required_tensor(blk, "stress.order2", "s0", n, (d,)),
            _required_tensor(blk, "stress.order2", "s1", n, (d, n)),
            s2,
        )
        split = _number(blk.get("split", 1.0), "stress.order2.split")
        if not 0.0 <= split <= 1.0:
            raise ScenarioError("stress.order2.split: must lie in [0, 1]")
        scenario.stress2_split = split
        try:
            scenario.stress2.check_symmetry(
                [tuple(body_box.center())], tol=1e-10
            )
        except ValueError as exc:
            raise ScenarioError(f"stress.order2.s2: {exc}") from exc
    if "raw" in stress_block:
        blk = _block(stress_block, "raw", "stress")
        scenario.raw_stress = NonHolonomicStress(
            _required_tensor(blk, "stress.raw", "x0", n, (d,)),
            _required_tensor(blk, "stress.raw", "x1", n, (d, n)),
            _required_tensor(blk, "stress.raw", "x2", n, (d, n)),
            _required_tensor(blk, "stress.raw", "x3", n, (d, n, n)),
        )

    velocity_block = _block(doc, "velocity")
    if "u" in velocity_block:
        scenario.velocity = parse_tensor(velocity_block["u"], n, (d,), "velocity.u")
    if "section" in velocity_block:
        blk = _block(velocity_block, "section", "velocity")
        scenario.section = JetSectionField(
            _required_tensor(blk, "velocity.section", "a0", n, (d,)),
            _required_tensor(blk, "velocity.section", "a1", n, (d, n)),
        )

    transversal_block = _block(doc, "transversals")
    if transversal_block:
        faces = {f.label: f for f in boundary_faces(body)}
        fields: Dict[str, TransversalField] = {}
        for label, spec in transversal_block.items():
            if label not in faces:
                raise ScenarioError(f"transversals.{label}: unknown face label")
            if spec == "coordinate":
                fields[label] = TransversalField.coordinate(faces[label])
            elif isinstance(spec, dict) and "vector" in spec:
                ambient = parse_tensor(
                    spec["vector"], n, (n,), f"transversals.{label}.vector"
                )
                fields[label] = TransversalField.from_ambient_field(faces[label], ambient)
            elif isinstance(spec, dict) and "metric" in spec:
                metric = parse_tensor(
                    spec["metric"], n, (n, n), f"transversals.{label}.metric"
                )
                fields[label] = TransversalField.metric_normal(faces[label], metric)
            else:
                raise ScenarioError(
                    f"transversals.{label}: expected 'coordinate', a vector, or a metric"
                )
        scenario.transversals = fields

    blk = _block(doc, "covariance")
    if blk:
        forward = _required_tensor(blk, "covariance", "forward", n, (n,))
        inverse = _required_tensor(blk, "covariance", "inverse", n, (n,))
        transition = TransitionMap(forward.field, inverse.field)
        frame = None
        if blk.get("frame") is not None:
            frame = parse_tensor(blk["frame"], n, (d, d), "covariance.frame")
        samples = blk.get("samples")
        if not samples or not isinstance(samples, list):
            raise ScenarioError("covariance.samples: expected a list of sample points")
        points = []
        for idx, pt in enumerate(samples):
            key = f"covariance.samples[{idx}]"
            if not isinstance(pt, list) or len(pt) != n:
                raise ScenarioError(f"{key}: expected {n} coordinates")
            points.append(tuple(_number(c, key) for c in pt))
        try:
            transition.check_roundtrip(points)
        except ValueError as exc:
            raise ScenarioError(f"covariance: {exc}") from exc
        scenario.frame_change = FrameChange(transition, d, frame)
        scenario.covariance_samples = points
        scenario.expect_noninvariant = bool(blk.get("expect_noninvariant", False))
        quantities = blk.get("quantities")
        if quantities is not None:
            if not isinstance(quantities, list):
                raise ScenarioError("covariance.quantities: expected a list")
            for q in quantities:
                if not isinstance(q, str) or q not in _COVARIANCE_QUANTITIES:
                    raise ScenarioError(f"covariance.quantities: unknown quantity {q!r}")
            scenario.covariance_quantities = list(quantities)

    blk = _block(doc, "closed_boundary")
    if blk:
        if n != 2:
            raise ScenarioError("closed_boundary: supported for n = 2 only")
        mapping = _required_tensor(blk, "closed_boundary", "map", 1, (n,))
        face = FacePatch("closed", chart, Box((0.0,), (1.0,)), mapping.field, 1.0, closed=True)
        ambient = _required_tensor(blk, "closed_boundary", "transversal", n, (n,))
        scenario.closed_face = face
        scenario.closed_transversal = TransversalField.from_ambient_field(face, ambient)

    _validate_check_requirements(scenario)
    return scenario


_CHECK_NEEDS = {
    "balance1": ("stress1", "velocity"),
    "balance2": ("nonholonomic", "velocity"),
    "cauchy": ("stress1", "velocity"),
    "div-consistency": ("stress1", "velocity"),
    "second-contraction": ("nonholonomic",),
    "covariance": ("frame_change",),
    "stokes-closed": ("nonholonomic", "velocity", "closed_face"),
    "lambda-invariance": ("stress2", "velocity"),
    "jet-oracle": ("velocity",),
}


def _validate_check_requirements(scenario: Scenario) -> None:
    for cid in scenario.checks:
        if cid == "cauchy" and scenario.body.patch is not None:
            raise ScenarioError("checks.cauchy: implemented for box bodies only")
        for need in _CHECK_NEEDS[cid]:
            if need == "nonholonomic":
                if scenario.raw_stress is None and scenario.stress2 is None:
                    raise ScenarioError(
                        f"checks.{cid}: needs a stress 'raw' or 'order2' block"
                    )
            elif need == "frame_change":
                if scenario.frame_change is None:
                    raise ScenarioError(f"checks.{cid}: needs a covariance block")
                if scenario.stress1 is None and scenario.stress2 is None:
                    raise ScenarioError(
                        f"checks.{cid}: needs an order1 or order2 stress block"
                    )
            elif getattr(scenario, need) is None:
                block = {
                    "stress1": "stress.order1",
                    "stress2": "stress.order2",
                    "velocity": "velocity.u",
                    "closed_face": "closed_boundary",
                }[need]
                raise ScenarioError(f"checks.{cid}: needs a {block} block")


# -- check execution -----------------------------------------------------------


def _sample_points(scenario: Scenario, count: int, seed: int = 12345) -> List[Tuple[float, ...]]:
    rng = random.Random(seed)
    box = scenario.body.box
    return [
        tuple(rng.uniform(lo, hi) for lo, hi in zip(box.lower, box.upper))
        for _ in range(count)
    ]


def _run_balance1(scenario: Scenario) -> CheckRecord:
    return verify_balance_order1(
        scenario.stress1,
        scenario.velocity,
        scenario.body,
        QuadratureRule(scenario.quad_order),
        scenario.tolerances["balance1"],
    )


def _run_balance2(scenario: Scenario) -> CheckRecord:
    report = verify_balance_order2(
        scenario.nonholonomic_stress(),
        scenario.velocity,
        scenario.body,
        scenario.transversals,
        QuadratureRule(scenario.quad_order),
        scenario.tolerances["balance2"],
    )
    record = report.to_record("balance2")
    for key, value in report.edge_terms.items():
        record.terms[f"edge:{key}"] = value
    for key, value in report.face_divergence_terms.items():
        record.terms[f"facediv:{key}"] = value
    residual = record.residual
    if scenario.stress2 is not None:
        # The interior power must not depend on how the first-order content
        # splits between the two middle blocks of the representative.
        values = _split_actions(scenario, (0.0, 1.0))
        gap = abs(values[0] - values[1])
        record.terms["lhs_split_gap"] = gap
        if gap > 1e-13:
            residual = max(residual, record.tolerance * 10.0)
    return CheckRecord("balance2", record.terms, residual, record.tolerance)


def _run_cauchy(scenario: Scenario) -> CheckRecord:
    stress = scenario.stress1
    velocity = scenario.velocity
    sigma = traction_projection(stress)
    rule = QuadratureRule(scenario.quad_order)
    n = scenario.bundle.base_dim
    worst = 0.0
    terms: Dict[str, float] = {}
    for face in boundary_faces(scenario.body):
        density = surface_force(sigma, face, velocity)
        axis = face.boxface.axis
        nodes, _ = rule.nodes_weights(face.param_box)
        face_worst = 0.0
        for y in nodes:
            y = tuple(y)
            via_pullback = density.value_at(y).coefficient(tuple(range(n - 1)))
            chart_pt = face.chart_point(y)
            direct = float(
                np.sum(
                    sigma.sigma.at(chart_pt)[:, axis] * velocity.at(chart_pt)
                )
            )
            face_worst = max(face_worst, abs(via_pullback - direct))
        terms[face.label] = face_worst
        worst = max(worst, face_worst)
    return CheckRecord("cauchy", terms, worst, scenario.tolerances["cauchy"])


def _run_div_consistency(scenario: Scenario) -> CheckRecord:
    points = _sample_points(scenario, 100)
    residual = invariant_divergence_residual(scenario.stress1, scenario.velocity, points)
    return CheckRecord(
        "div-consistency",
        {"points": float(len(points)), "max_residual": residual},
        residual,
        scenario.tolerances["div-consistency"],
    )


def _run_second_contraction(scenario: Scenario) -> CheckRecord:
    stress = scenario.nonholonomic_stress()
    points = _sample_points(scenario, 20)
    oracle_gap = 0.0
    symmetric = True
    zero_gap = 0.0
    for x in points:
        arr = stress.x3.at(x)
        if np.max(np.abs(arr - np.transpose(arr, (0, 2, 1)))) > 1e-12:
            symmetric = False
        fast = second_contraction(stress.x3, x)
        brute = second_contraction_brute_force(stress.x3, x)
        for f, b in zip(fast, brute):
            oracle_gap = max(oracle_gap, f.max_abs_diff(b))
        if symmetric:
            zero_gap = max(zero_gap, max(f.max_abs() for f in fast))
    residual = max(oracle_gap, zero_gap if symmetric else 0.0)
    return CheckRecord(
        "second-contraction",
        {"oracle_gap": oracle_gap, "symmetric": float(symmetric), "zero_gap": zero_gap},
        residual,
        scenario.tolerances["second-contraction"],
    )


# Covariance quantities a scenario can select: the primed stress each reads,
# whether it pairs the velocity, and the record term of each result key.
# Every term except the naive magnitude, the defect itself, is a residual.
_COVARIANCE_QUANTITIES: Dict[str, Tuple[str, bool, Dict[str, str]]] = {
    "action1": ("stress1", True, {"discrepancy": "action1"}),
    "traction1": ("stress1", True, {"discrepancy": "traction1"}),
    "action2": ("stress2", True, {"discrepancy": "action2"}),
    "naive-contraction": ("stress2", False, {
        "discrepancy": "naive_magnitude",
        "predicted_match_defect": "naive_match_defect",
        "vector_block_defect": "vertical_invariance",
    }),
}


def _run_covariance(scenario: Scenario) -> CheckRecord:
    selected = scenario.covariance_quantities
    terms: Dict[str, float] = {}
    residual = 0.0
    for quantity, (stress, paired, names) in _COVARIANCE_QUANTITIES.items():
        primed = getattr(scenario, stress)
        if primed is None or (paired and scenario.velocity is None):
            continue
        if selected is not None and quantity not in selected:
            continue
        result = invariance_check(
            quantity, scenario.frame_change, scenario.covariance_samples,
            velocity=scenario.velocity, **{f"primed_{stress}": primed},
        )
        for key, name in names.items():
            terms[name] = result[key]
            if name != "naive_magnitude":
                residual = max(residual, result[key])
    naive = terms.get("naive_magnitude")
    if scenario.expect_noninvariant and naive is not None and naive <= 1e-3:
        residual = max(residual, 1.0)  # force a failure: the defect is missing
    if not terms:
        raise ScenarioError(
            "covariance.quantities: no selected quantity is computable from the scenario blocks"
        )
    return CheckRecord("covariance", terms, residual, scenario.tolerances["covariance"])


def _run_stokes_closed(scenario: Scenario) -> CheckRecord:
    stress = scenario.nonholonomic_stress()
    quad_value, endpoint = closed_boundary_exact_term(
        nh_traction(stress),
        scenario.velocity,
        scenario.closed_face,
        scenario.closed_transversal,
        QuadratureRule(max(scenario.quad_order, 48)),
    )
    residual = max(abs(quad_value), abs(endpoint))
    return CheckRecord(
        "stokes-closed",
        {"quadrature": quad_value, "endpoint_defect": endpoint},
        residual,
        scenario.tolerances["stokes-closed"],
    )


def _split_actions(scenario: Scenario, splits: Sequence[float]) -> List[float]:
    """Interior power of the order-2 stress lifted at each split, over the body."""
    rule = QuadratureRule(scenario.quad_order)
    section = JetSectionField.from_velocity(scenario.velocity)
    return [
        integrate_over_body(
            nh_action_form(lift_second_order(scenario.stress2, split), section),
            scenario.body, rule,
        )
        for split in splits
    ]


def _run_lambda_invariance(scenario: Scenario) -> CheckRecord:
    values = _split_actions(scenario, (0.0, 0.5, 1.0))
    residual = max(abs(values[0] - values[1]), abs(values[0] - values[2]))
    return CheckRecord(
        "lambda-invariance",
        {"split_0": values[0], "split_05": values[1], "split_1": values[2]},
        residual,
        scenario.tolerances["lambda-invariance"],
    )


def _run_jet_oracle(scenario: Scenario) -> CheckRecord:
    points = _sample_points(scenario, 5)
    worst = 0.0
    for x in points:
        exact = jet_extension(scenario.velocity.field, x, 2)
        approx = finite_difference_jet(scenario.velocity.field, x, 2, 1e-4)
        for p in range(3):
            worst = max(worst, float(np.max(np.abs(exact.array(p) - approx.array(p)))))
    return CheckRecord(
        "jet-oracle", {"max_gap": worst}, worst, scenario.tolerances["jet-oracle"]
    )


_RUNNERS: Dict[str, Callable[[Scenario], CheckRecord]] = {
    "balance1": _run_balance1,
    "balance2": _run_balance2,
    "cauchy": _run_cauchy,
    "div-consistency": _run_div_consistency,
    "second-contraction": _run_second_contraction,
    "covariance": _run_covariance,
    "stokes-closed": _run_stokes_closed,
    "lambda-invariance": _run_lambda_invariance,
    "jet-oracle": _run_jet_oracle,
}


def run_checks(scenario: Scenario, selected: Optional[Sequence[str]] = None) -> RunReport:
    """Execute the scenario's checks (or a subset) and collect records."""
    report = RunReport(scenario.digest)
    check_ids = list(scenario.checks if selected is None else selected)
    for cid in check_ids:
        if cid not in _RUNNERS:
            raise ScenarioError(f"checks: unknown check id {cid!r}")
        if cid not in scenario.checks:
            raise ScenarioError(f"checks: {cid!r} not configured in this scenario")
        report.add(_RUNNERS[cid](scenario))
    return report


# -- generation ----------------------------------------------------------------


def _random_component(rng: random.Random, n: int, degree: int, nterms: int = 3) -> Dict:
    pool = [e for e in itertools.product(range(degree + 1), repeat=n) if sum(e) <= degree]
    monomials = []
    for _ in range(nterms):
        exps = rng.choice(pool)
        coef = round(rng.uniform(-1.0, 1.0), 6)
        monomials.append([list(exps), coef])
    return {"monomials": monomials}


def generate_scenario(seed: int, n: int, d: int, degree: int) -> Dict[str, Any]:
    """Deterministic random polynomial scenario on the unit box.

    The same seed yields byte-identical documents once serialized with
    sorted keys.
    """
    if n not in (2, 3):
        raise ScenarioError(f"generate: n must be 2 or 3, got {n}")
    if not 1 <= d <= 3:
        raise ScenarioError(f"generate: d must be between 1 and 3, got {d}")
    if not 0 <= degree <= 4:
        raise ScenarioError(f"generate: degree must be between 0 and 4, got {degree}")
    rng = random.Random(seed)
    comp = lambda: _random_component(rng, n, degree)
    raw_degree = min(degree, 2)
    raw_comp = lambda: _random_component(rng, n, raw_degree)

    s2 = [[[None] * n for _ in range(n)] for _ in range(d)]
    for alpha in range(d):
        for i in range(n):
            for j in range(i, n):
                entry = _random_component(rng, n, raw_degree)
                s2[alpha][i][j] = entry
                s2[alpha][j][i] = entry

    doc: Dict[str, Any] = {
        "schema": SCHEMA_ID,
        "name": f"generated-seed{seed}-n{n}-d{d}-deg{degree}",
        "bundle": {"n": n, "d": d},
        "geometry": {
            "chart_box": [[0.0, 1.0]] * n,
            "body_box": [[0.0, 1.0]] * n,
            "quad_order": max(6, degree + 2),
        },
        "stress": {
            "order1": {
                "s0": [comp() for _ in range(d)],
                "s1": [[comp() for _ in range(n)] for _ in range(d)],
            },
            "order2": {
                "s0": [raw_comp() for _ in range(d)],
                "s1": [[raw_comp() for _ in range(n)] for _ in range(d)],
                "s2": s2,
                "split": 1.0,
            },
            "raw": {
                "x0": [raw_comp() for _ in range(d)],
                "x1": [[raw_comp() for _ in range(n)] for _ in range(d)],
                "x2": [[raw_comp() for _ in range(n)] for _ in range(d)],
                "x3": [
                    [[raw_comp() for _ in range(n)] for _ in range(n)] for _ in range(d)
                ],
            },
        },
        "velocity": {"u": [comp() for _ in range(d)]},
        "checks": [
            "balance1",
            "balance2",
            "cauchy",
            "div-consistency",
            "second-contraction",
            "lambda-invariance",
            "jet-oracle",
        ],
        "tolerances": {},
    }
    if n == 2:
        doc["covariance"] = {
            "forward": ["x1 + x2^2", "x2"],
            "inverse": ["x1 - x2^2", "x2"],
            "frame": None,
            "samples": [
                [round(rng.uniform(0.1, 0.9), 6), round(rng.uniform(0.1, 0.9), 6)]
                for _ in range(4)
            ],
            "expect_noninvariant": True,
        }
        doc["checks"].append("covariance")
    return doc


def scenario_to_json(doc: Dict[str, Any]) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
