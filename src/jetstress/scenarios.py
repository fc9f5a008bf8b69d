"""Scenario files: schema, validation, check execution, and generation.

A scenario is a JSON document with a versioned schema id describing the
geometry, the stress and velocity data, which checks to run, and their
tolerances.  Field components are numbers, expression strings, or monomial
tables; see the README for the grammar.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .balance import closed_boundary_exact_term, verify_balance_order2
from .bundles import JetSectionField
from .covariance import QUANTITIES, FrameChange, invariance_check
from .exprs import parse_expression
from .fields import (
    SmoothField,
    TensorField,
    fibre_sum,
    finite_difference_jet,
    jet_extension,
    jets_on,
    monomial_map,
    on_nodes,
)
from .geometry import (
    Body,
    Box,
    FacePatch,
    QuadratureRule,
    boundary_faces,
    face_groups,
    integrate,
    on_faces,
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
    traction_action,
    traction_projection,
    verify_balance_order1,
)
from .surface import TransversalField

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

class ScenarioError(ValueError):
    """Configuration problem; the message names the offending key."""


@contextmanager
def _keyed(key: str) -> Iterator[None]:
    """Re-raise a ``ValueError`` or an ``OverflowError`` (a field whose value
    overflows ``math``) from the block as a ``ScenarioError`` naming ``key``.

    Other arithmetic errors stay tracebacks: the engine checks its divisors,
    so a ``ZeroDivisionError`` is a defect of the program, not of the input.
    """
    try:
        yield
    except ScenarioError:
        raise
    except (ValueError, OverflowError) as exc:
        raise ScenarioError(f"{key}: {exc}") from exc


# -- field parsing ------------------------------------------------------------


def _component_map(spec: Any, dim: int, key: str) -> Tuple[Any, Any]:
    """The leaf of one component: its value route and its series route (see
    :meth:`SmoothField.from_series_maps`)."""
    if isinstance(spec, (int, float)):
        value = _number(spec, key)
        return value, value
    if isinstance(spec, str):
        with _keyed(key):
            return parse_expression(spec, dim)
    if isinstance(spec, dict):
        _known_keys(spec, key, "<component>")
    if isinstance(spec, dict) and list(spec) == ["expr"]:
        return _component_map(spec["expr"], dim, key)
    if isinstance(spec, dict) and list(spec) == ["monomials"]:
        entries = spec["monomials"]
        if not isinstance(entries, list):
            raise ScenarioError(f"{key}: monomial table must be a list, got {entries!r}")
        table = []
        for entry in entries:
            try:
                exps, coef = entry
                exps = tuple(_exponent(e) for e in exps)
                coef = _number(coef, key)
            except (TypeError, ValueError) as exc:
                raise ScenarioError(f"{key}: bad monomial entry {entry!r}") from exc
            if len(exps) != dim or any(e < 0 for e in exps):
                raise ScenarioError(f"{key}: monomial exponents {exps} invalid for n={dim}")
            table.append((exps, coef))
        return monomial_map(table)
    raise ScenarioError(f"{key}: component must be a number, string, or monomial table")


def _exponent(value: Any) -> int:
    """A monomial exponent: an integer, or an integral float as in ``x1^2.0``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
        isinstance(value, float) and not value.is_integer()
    ):
        raise ValueError(f"exponent {value!r} is not an integer")
    return int(value)


def _flatten(specs: Any, shape: Tuple[int, ...], key: str) -> List[Tuple[Any, str]]:
    """Each component of a nested list in row-major order, with its key path."""
    if not shape:
        return [(specs, key)]
    if not isinstance(specs, list) or len(specs) != shape[0]:
        raise ScenarioError(f"{key}: expected a list of length {shape[0]}")
    out: List[Tuple[Any, str]] = []
    for idx, item in enumerate(specs):
        out.extend(_flatten(item, shape[1:], f"{key}[{idx}]"))
    return out


def parse_tensor(specs: Any, dim: int, shape: Tuple[int, ...], key: str) -> TensorField:
    maps = [_component_map(spec, dim, at) for spec, at in _flatten(specs, shape, key)]
    return TensorField(SmoothField.from_series_maps(dim, maps), shape)


# -- scenario object ----------------------------------------------------------


class Scenario:
    """Validated scenario: parsed fields plus the document digest.

    The loader sets each optional block it reads; a block the document
    leaves out stays ``None``, and ``expect_noninvariant`` false.
    ``point_changes`` are the covariance block's frame change at each of its
    samples.  ``nh_stress`` is the raw block, else the lift of ``stress2``.
    """

    __slots__ = (
        "digest", "body", "quad_order", "checks", "tolerances", "stress1", "stress2",
        "nh_stress", "velocity", "section", "transversals", "point_changes",
        "covariance_quantities", "expect_noninvariant", "closed_face", "closed_transversal",
    )

    def __init__(self, digest: str, body: Body, quad_order: int, checks: List[str],
                 tolerances: Dict[str, float]):
        self.digest, self.body = digest, body
        self.quad_order, self.checks, self.tolerances = quad_order, checks, tolerances
        self.stress1 = self.stress2 = self.nh_stress = self.velocity = self.section = None
        self.transversals = self.point_changes = self.covariance_quantities = None
        self.expect_noninvariant = False
        self.closed_face = self.closed_transversal = None


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


def _names(record: type) -> Tuple[str, ...]:
    return tuple(name for name, _ in record.LAYOUT)


# The keys each object of a document may hold, by path ("" is the top level):
# the loader rejects any other key, so a misspelled key cannot read as absent.
_KEYS: Dict[str, Tuple[str, ...]] = {
    "": ("schema", "name", "bundle", "geometry", "stress", "velocity", "transversals",
         "covariance", "closed_boundary", "checks", "tolerances"),
    "bundle": ("n", "d"),
    "geometry": ("chart_box", "body_box", "patch", "quad_order"),
    "stress": ("order1", "order2", "raw"),
    "stress.order1": _names(VariationalStress1),
    "stress.order2": _names(VariationalStress2) + ("split",),
    "stress.raw": _names(NonHolonomicStress),
    "velocity": ("u", "section"),
    "velocity.section": _names(JetSectionField),
    "transversals.<label>": ("vector", "metric"),
    "covariance": ("forward", "inverse", "frame", "samples", "expect_noninvariant", "quantities"),
    "closed_boundary": ("map", "transversal"),
    "<component>": ("expr", "monomials"),
}


def _known_keys(obj: Dict[str, Any], path: str, table: Optional[str] = None) -> None:
    """Reject a key of the object at ``path`` that ``_KEYS[table or path]``
    does not name, suggesting the nearest known one."""
    known = _KEYS[path if table is None else table]
    for key in obj:
        if key not in known:
            import difflib  # the error path alone needs it

            near = difflib.get_close_matches(str(key), known, n=1)
            hint = f" (did you mean {near[0]!r}?)" if near else ""
            raise ScenarioError(f"{_path(path or None, str(key))}: unknown key{hint}")


def _block(doc: Dict[str, Any], key: str, parent: Optional[str] = None) -> Dict[str, Any]:
    """The optional object ``doc[key]``, its keys checked against ``_KEYS``;
    ``{}`` when absent or null."""
    value, path = doc.get(key), _path(parent, key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ScenarioError(f"{path}: expected an object")
    if path in _KEYS:
        _known_keys(value, path)
    return value


def _record(record: type, doc: Dict[str, Any], parent: str, key: str, n: int, d: int) -> Any:
    """The ``record`` (a :class:`jetstress.fields.Blocks` kind) in the object
    ``doc[key]``: each block of its ``LAYOUT`` read by name at shape
    ``(d,) + (n,)*k``."""
    blk, path = _block(doc, key, parent), _path(parent, key)
    return record(*(
        _required_tensor(blk, path, name, n, (d,) + (n,) * k) for name, k in record.LAYOUT
    ))


def _is_count(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _number(value: Any, key: str) -> float:
    """``value`` as a finite float; booleans, NaN and infinities are rejected."""
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if isinstance(value, bool) or not math.isfinite(number):
        raise ScenarioError(f"{key}: expected a number, got {value!r}")
    return number


def _box(geometry: Dict[str, Any], key: str, n: int) -> Box:
    bounds = _require(geometry, key, "geometry")
    if not isinstance(bounds, list) or len(bounds) != n:
        raise ScenarioError(f"geometry.{key}: expected {n} axis bounds")
    if not all(isinstance(b, list) and len(b) == 2 for b in bounds):
        raise ScenarioError(f"geometry.{key}: each axis bound must be a [lo, hi] pair")
    with _keyed(f"geometry.{key}"):
        return Box.from_bounds([[_number(v, f"geometry.{key}") for v in b] for b in bounds])


def load_scenario(document: Dict[str, Any] | str, quad_order: Optional[int] = None) -> Scenario:
    """Parse and validate a scenario document (dict or JSON text).

    ``quad_order`` overrides ``geometry.quad_order``, which is still checked;
    errors in it are keyed ``--quad-order``, the CLI option that passes it.
    """
    if isinstance(document, str):
        try:
            doc = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"document: invalid JSON ({exc})") from exc
    else:
        doc = document
    if not isinstance(doc, dict):
        raise ScenarioError("document: expected a JSON object")
    import hashlib  # the report digest alone needs it; importing it loads OpenSSL

    digest = hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode("utf-8")
    ).hexdigest()[:16]

    if doc.get("schema") != SCHEMA_ID:
        raise ScenarioError(f"schema: expected {SCHEMA_ID!r}, got {doc.get('schema')!r}")
    _known_keys(doc, "")

    bundle = _require(doc, "bundle")
    if not isinstance(bundle, dict):
        raise ScenarioError("bundle: expected an object with keys n and d")
    _known_keys(bundle, "bundle")
    n = bundle.get("n")
    d = bundle.get("d")
    if not _is_count(n):
        raise ScenarioError("bundle.n: must be a positive integer")
    if not _is_count(d):
        raise ScenarioError("bundle.d: must be a positive integer")

    geometry = _require(doc, "geometry")
    if not isinstance(geometry, dict):
        raise ScenarioError("geometry: expected an object")
    _known_keys(geometry, "geometry")
    chart_box = _box(geometry, "chart_box", n)
    body_box = _box(geometry, "body_box", n)
    patch = None
    if geometry.get("patch") is not None:
        patch_specs = geometry["patch"]
        if not isinstance(patch_specs, list) or len(patch_specs) != n:
            raise ScenarioError("geometry.patch: expected one expression per axis")
        patch = parse_tensor(patch_specs, n, (n,), "geometry.patch").field
    body = Body(body_box, patch)
    file_order = geometry.get("quad_order", 6)
    if not _is_count(file_order):
        raise ScenarioError("geometry.quad_order: must be a positive integer")
    with _keyed("geometry.quad_order"):
        QuadratureRule(file_order).check_budget(n)
    if quad_order is None:
        quad_order, key = file_order, "geometry.patch"
    elif not _is_count(quad_order):
        raise ScenarioError("--quad-order: must be a positive integer")
    else:
        key = "--quad-order"
        with _keyed(key):
            QuadratureRule(quad_order).check_budget(n)
    with _keyed(key):
        chart_nodes = body.check_embedding(QuadratureRule(quad_order))
    reach = np.array([body_box.lower, body_box.upper]) if patch is None else chart_nodes
    outside = ~np.all((reach >= chart_box.lower) & (reach <= chart_box.upper), axis=1)
    if outside.any():
        point = tuple(float(c) for c in reach[np.argmax(outside)])
        raise ScenarioError(f"geometry.chart_box: the body reaches {point}, outside the chart box")

    checks = _require(doc, "checks")
    if not isinstance(checks, list) or not checks:
        raise ScenarioError("checks: expected a non-empty list")
    _check_ids(checks)

    tolerances = dict(DEFAULT_TOLERANCES)
    overrides = doc.get("tolerances", {})
    if not isinstance(overrides, dict):
        raise ScenarioError("tolerances: expected an object mapping check ids to numbers")
    for key, value in overrides.items():
        if key not in CHECK_IDS:
            raise ScenarioError(f"tolerances.{key}: unknown check id")
        tolerances[key] = _number(value, f"tolerances.{key}")
        if tolerances[key] < 0.0:
            raise ScenarioError(f"tolerances.{key}: must be >= 0, got {value!r}")

    scenario = Scenario(digest, body, quad_order, list(checks), tolerances)

    stress_block = _block(doc, "stress")
    if "order1" in stress_block:
        scenario.stress1 = _record(VariationalStress1, stress_block, "stress", "order1", n, d)
    if "order2" in stress_block:
        scenario.stress2 = _record(VariationalStress2, stress_block, "stress", "order2", n, d)
        split = _number(stress_block["order2"].get("split", 1.0), "stress.order2.split")
        if not 0.0 <= split <= 1.0:
            raise ScenarioError("stress.order2.split: must lie in [0, 1]")
        with _keyed("stress.order2.s2"):
            scenario.stress2.check_symmetry(chart_nodes)
        scenario.nh_stress = lift_second_order(scenario.stress2, split)
    if "raw" in stress_block:  # a raw representative takes the place of the lift
        scenario.nh_stress = _record(NonHolonomicStress, stress_block, "stress", "raw", n, d)

    velocity_block = _block(doc, "velocity")
    if "u" in velocity_block:
        scenario.velocity = parse_tensor(velocity_block["u"], n, (d,), "velocity.u")
    if "section" in velocity_block:
        scenario.section = _record(JetSectionField, velocity_block, "velocity", "section", n, d)

    transversal_block = _block(doc, "transversals")
    if transversal_block:
        faces = {f.label: f for f in boundary_faces(body)}
        fields: Dict[str, TransversalField] = {}
        for label, spec in transversal_block.items():
            if label not in faces:
                raise ScenarioError(f"transversals.{label}: unknown face label")
            with _keyed(f"transversals.{label}"):
                if isinstance(spec, dict):
                    _known_keys(spec, f"transversals.{label}", "transversals.<label>")
                if spec == "coordinate":
                    pass  # the transversal every face reads by default
                elif isinstance(spec, dict) and list(spec) == ["vector"]:
                    ambient = parse_tensor(spec["vector"], n, (n,), f"transversals.{label}.vector")
                    fields[label] = TransversalField.from_ambient_field(faces[label], ambient)
                elif isinstance(spec, dict) and list(spec) == ["metric"]:
                    metric = parse_tensor(spec["metric"], n, (n, n), f"transversals.{label}.metric")
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
        with _keyed("covariance"):
            change = FrameChange(forward.field, inverse.field, d, frame)
            scenario.point_changes = change.at_points(points)
        expect = blk.get("expect_noninvariant", False)
        if not isinstance(expect, bool):
            raise ScenarioError(
                f"covariance.expect_noninvariant: expected true or false, got {expect!r}")
        scenario.expect_noninvariant = expect
        quantities = blk.get("quantities")
        if quantities is not None:
            if not isinstance(quantities, list):
                raise ScenarioError("covariance.quantities: expected a list")
            for q in quantities:
                if not isinstance(q, str) or q not in QUANTITIES:
                    raise ScenarioError(f"covariance.quantities: unknown quantity {q!r}")
            scenario.covariance_quantities = list(quantities)

    blk = _block(doc, "closed_boundary")
    if blk:
        if n != 2:
            raise ScenarioError("closed_boundary: supported for n = 2 only")
        mapping = _required_tensor(blk, "closed_boundary", "map", 1, (n,))
        face = FacePatch("closed_boundary", Box((0.0,), (1.0,)), mapping.field, 1.0)
        ambient = _required_tensor(blk, "closed_boundary", "transversal", n, (n,))
        scenario.closed_face = face
        scenario.closed_transversal = TransversalField.from_ambient_field(face, ambient)

    _validate_check_requirements(scenario)
    return scenario


def _validate_check_requirements(scenario: Scenario) -> None:
    for cid in scenario.checks:
        for message, met in _CHECKS[cid].requires:
            if not met(scenario):
                raise ScenarioError(message.format(cid=cid))


# -- check execution -----------------------------------------------------------

# What a runner returns: the record's terms and its residual.
_Result = Tuple[Dict[str, float], float]


def _worst(values: Sequence[float]) -> float:
    """The largest value, or NaN if any is NaN: Python's ``max`` would drop a
    NaN that is not first, and pass a check whose every term is NaN."""
    return float(np.max(values))


def _sample_points(scenario: Scenario, count: int) -> List[Tuple[float, ...]]:
    """``count`` points drawn in the body box from a fixed seed, read at
    their chart images: on a patched body, the patch's values at the draws
    from one read of it, as :meth:`Body.check_embedding` reads the nodes."""
    rng = random.Random(12345)
    body = scenario.body
    points = [tuple(rng.uniform(lo, hi) for lo, hi in zip(body.box.lower, body.box.upper))
              for _ in range(count)]
    if body.patch is None:
        return points
    [images] = jets_on(body.patch, points, 0)
    return list(map(tuple, images.tolist()))


def _run_balance1(scenario: Scenario) -> _Result:
    return verify_balance_order1(
        scenario.stress1, scenario.velocity, scenario.body, QuadratureRule(scenario.quad_order)
    )


def _run_balance2(scenario: Scenario) -> _Result:
    return verify_balance_order2(
        scenario.nh_stress,
        scenario.velocity,
        scenario.body,
        scenario.transversals,
        QuadratureRule(scenario.quad_order),
    )


def _run_cauchy(scenario: Scenario) -> _Result:
    stress = scenario.stress1
    velocity = scenario.velocity
    sigma = traction_projection(stress)
    rule = QuadratureRule(scenario.quad_order)
    n, d = stress.dim, stress.fiber_dim
    # The two faces of an axis share the density and one pass (see face_groups),
    # and every group pulls back the one chart action, built once.
    action = traction_action(sigma, velocity)
    terms: Dict[str, float] = {}
    for face, members in face_groups(scenario.body):
        nodes, _ = rule.nodes_weights(face.param_box)
        density = action.pullback(face.to_chart)
        axis = face.axis

        def gap(y):
            via_pullback = density.value_at(y).coefficient(tuple(range(n - 1)))
            chart_pt = face.to_chart.values_on(y)
            s = sigma.field.values_on(chart_pt)
            u = velocity.field.values_on(chart_pt)
            direct = fibre_sum([s[alpha * n + axis] * u[alpha] for alpha in range(d)])
            return abs(via_pullback - direct)

        for member, gaps in zip(members, on_faces(gap, members, nodes)):
            terms[member.label] = _worst(gaps)
    return terms, _worst(list(terms.values()))


def _run_div_consistency(scenario: Scenario) -> _Result:
    points = _sample_points(scenario, 100)
    residual = invariant_divergence_residual(scenario.stress1, scenario.velocity, points)
    return {"points": float(len(points)), "max_residual": residual}, residual


def _run_second_contraction(scenario: Scenario) -> _Result:
    x3 = scenario.nh_stress.x3
    points = _sample_points(scenario, 20)
    values = on_nodes(x3.field.values_on, np.array(points), width=x3.field.ncomp)
    block = np.moveaxis(values.reshape((len(points),) + x3.shape), 0, -1)  # (d, n, n, points)
    fast = second_contraction(block)
    brute = second_contraction_brute_force(block)
    oracle_gap = _worst([0.0] + [f.max_abs_diff(b) for f, b in zip(fast, brute)])
    # A point is asymmetric when its largest asymmetry exceeds 1e-12, so a NaN
    # point counts as symmetric; the zero gap covers the points before the
    # first asymmetric one.
    asymmetric = np.max(np.abs(block - np.swapaxes(block, 1, 2)), axis=(0, 1, 2)) > 1e-12
    symmetric = not asymmetric.any()
    before = len(points) if symmetric else int(np.argmax(asymmetric))
    zero_gap = _worst([0.0] + [
        np.max(np.abs(value[:before]), initial=0.0) for f in fast for value in f.coeffs.values()
    ])
    residual = _worst([oracle_gap, zero_gap if symmetric else 0.0])
    terms = {"oracle_gap": oracle_gap, "symmetric": float(symmetric), "zero_gap": zero_gap}
    return terms, residual


def _covariance_quantities(scenario: Scenario) -> List[str]:
    """The selected covariance quantities that the scenario's blocks can compute."""
    selected = scenario.covariance_quantities
    stresses = {1: scenario.stress1, 2: scenario.stress2}
    return [
        name for name, quantity in QUANTITIES.items()
        if stresses[quantity.order] is not None
        and not (quantity.paired and scenario.velocity is None)
        and (selected is None or name in selected)
    ]


def _run_covariance(scenario: Scenario) -> _Result:
    terms = invariance_check(
        _covariance_quantities(scenario), scenario.point_changes,
        scenario.stress1, scenario.stress2, scenario.velocity,
    )
    # Every term except the naive magnitude, the defect itself, is a residual.
    residual = _worst([0.0] + [v for name, v in terms.items() if name != "naive_magnitude"])
    naive = terms.get("naive_magnitude")
    if scenario.expect_noninvariant and naive is not None and naive <= 1e-3:
        residual = _worst([residual, 1.0])  # force a failure: the defect is missing
    return terms, residual


def _run_stokes_closed(scenario: Scenario) -> _Result:
    quad_value, endpoint = closed_boundary_exact_term(
        nh_traction(scenario.nh_stress),
        scenario.velocity,
        scenario.closed_face,
        scenario.closed_transversal,
        QuadratureRule(max(scenario.quad_order, 48)),
    )
    residual = _worst([abs(quad_value), abs(endpoint)])
    return {"quadrature": quad_value, "endpoint_defect": endpoint}, residual


def _run_lambda_invariance(scenario: Scenario) -> _Result:
    # The interior power of the order-2 stress lifted at three splits.  One
    # pass over the nodes integrates all three, so the lifts share their s0
    # and s2 blocks and the velocity section; each split is summed on its own.
    section = JetSectionField.from_velocity(scenario.velocity)
    forms = [
        nh_action_form(lift_second_order(scenario.stress2, split), section)
        for split in (0.0, 0.5, 1.0)
    ]
    [values] = integrate(forms, scenario.body, QuadratureRule(scenario.quad_order))
    residual = _worst([abs(values[0] - values[1]), abs(values[0] - values[2])])
    return {"split_0": values[0], "split_05": values[1], "split_1": values[2]}, residual


def _run_jet_oracle(scenario: Scenario) -> _Result:
    points = _sample_points(scenario, 5)
    gaps = []
    for x in points:
        exact = jet_extension(scenario.velocity.field, x, 2)
        approx = finite_difference_jet(scenario.velocity.field, x, 2, 1e-4)
        # inf - inf is a NaN gap, reported as one.
        gaps += [float(np.max(np.abs(exact.array(p) - approx.array(p)))) for p in range(3)]
    worst = _worst(gaps)
    return {"max_gap": worst}, worst


# -- the check table ------------------------------------------------------------

# A requirement is a message, formatted with the check id, and the condition
# on a loaded scenario that it reports when false.
_Requirement = Tuple[str, Callable[[Scenario], bool]]


def _needs(what: str, met: Callable[[Scenario], bool]) -> _Requirement:
    return f"checks.{{cid}}: needs {what}", met


_STRESS1 = _needs("a stress.order1 block", lambda s: s.stress1 is not None)
_STRESS2 = _needs("a stress.order2 block", lambda s: s.stress2 is not None)
_NH_STRESS = _needs("a stress 'raw' or 'order2' block", lambda s: s.nh_stress is not None)
_VELOCITY = _needs("a velocity.u block", lambda s: s.velocity is not None)
_PLANE = _needs("a chart dimension n >= 2", lambda s: s.body.dim >= 2)


class _Check:
    """One check id: its default tolerance, its requirements in the order
    they are tested at load time, and its runner, which returns the
    record's terms and residual."""

    __slots__ = ("tolerance", "requires", "run")

    def __init__(self, tolerance: float, requires: Tuple[_Requirement, ...],
                 run: Callable[[Scenario], _Result]):
        self.tolerance, self.requires, self.run = tolerance, requires, run


_CHECKS: Dict[str, _Check] = {
    "balance1": _Check(1e-10, (_STRESS1, _VELOCITY), _run_balance1),
    "balance2": _Check(1e-9, (_PLANE, _NH_STRESS, _VELOCITY), _run_balance2),
    "cauchy": _Check(1e-11, (
        _PLANE,
        ("checks.{cid}: implemented for box bodies only", lambda s: s.body.patch is None),
        _STRESS1,
        _VELOCITY,
    ), _run_cauchy),
    "div-consistency": _Check(1e-11, (_STRESS1, _VELOCITY), _run_div_consistency),
    "second-contraction": _Check(1e-14, (_PLANE, _NH_STRESS), _run_second_contraction),
    "covariance": _Check(1e-10, (
        _needs("a covariance block", lambda s: s.point_changes is not None),
        _needs("an order1 or order2 stress block",
               lambda s: s.stress1 is not None or s.stress2 is not None),
        ("covariance.quantities: no selected quantity is computable from the scenario blocks",
         lambda s: bool(_covariance_quantities(s))),
    ), _run_covariance),
    "stokes-closed": _Check(1e-10, (
        _NH_STRESS,
        _VELOCITY,
        _needs("a closed_boundary block", lambda s: s.closed_face is not None),
    ), _run_stokes_closed),
    "lambda-invariance": _Check(1e-13, (_STRESS2, _VELOCITY), _run_lambda_invariance),
    "jet-oracle": _Check(1e-6, (_VELOCITY,), _run_jet_oracle),
}

DEFAULT_TOLERANCES: Dict[str, float] = {cid: c.tolerance for cid, c in _CHECKS.items()}

CHECK_IDS = tuple(sorted(_CHECKS))


def _check_ids(check_ids: List[Any], configured: Optional[List[str]] = None) -> None:
    """Raise at the first id that is unknown, not ``configured``, or repeated."""
    for i, cid in enumerate(check_ids):
        if cid not in CHECK_IDS:
            raise ScenarioError(f"checks: unknown check id {cid!r}")
        if configured is not None and cid not in configured:
            raise ScenarioError(f"checks: {cid!r} not configured in this scenario")
        if cid in check_ids[:i]:
            raise ScenarioError(f"checks: duplicate check id {cid!r}")


def run_checks(scenario: Scenario, selected: Optional[Sequence[str]] = None) -> RunReport:
    """Execute the scenario's checks (or a subset) and collect records."""
    report = RunReport(scenario.digest)
    check_ids = list(scenario.checks if selected is None else selected)
    _check_ids(check_ids, scenario.checks)
    for cid in check_ids:
        with _keyed(f"checks.{cid}"):
            terms, residual = _CHECKS[cid].run(scenario)
        report.add(CheckRecord(cid, terms, residual, scenario.tolerances[cid]))
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
    if n not in (2, 3, 4):
        raise ScenarioError(f"generate: n must be 2, 3 or 4, got {n}")
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
