"""Per-layer tracing of a benchmark run, applied from outside the program.

``Tracer.install`` wraps functions of the ``jetstress`` modules and rebinds
every module attribute that holds the wrapped object, so a function
imported by name into several modules is seen from all of them.  Spans
(name, start, end, parent, scenario) are kept in memory; Taylor arithmetic
and field evaluation, which run hundreds of thousands of times per check,
get counters and aggregate timers instead.

The lazy ``FormField`` closures built by ``stress``, ``nonholonomic``,
``surface`` and ``bundles`` run inside ``fields.series_at``; from outside
they are visible only through constructor counts and the inclusive spans
of their eager callers.

Metrics:

- ``*.calls`` count calls; ``taylor.mul.calls`` counts ``__mul__`` and
  ``__rmul__``, ``taylor.add.calls`` ``__add__`` and ``__radd__`` (which
  ``__sub__`` uses), ``taylor.analytic.calls`` every analytic primitive,
  nested ones included (``tan_series`` calls three more).
- ``*_s`` is the inclusive time of the outermost span of that name;
  ``scenarios.check.<id>_s`` times ``run_checks(scenario, [<id>])``.
- ``taylor.busy_s`` is the time inside the outermost Taylor operation.
- ``fields.series_at.self_s`` is the time inside the outermost
  ``series_at`` minus the Taylor time within it: the field closures'
  own overhead.
- ``fields.series_at.redundant_frac`` is the share of ``series_at`` calls
  repeating a (field, point, order) already evaluated in the same check.
- ``geometry.nodes`` sums the quadrature nodes ``QuadratureRule`` hands out.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from pathlib import Path
from types import ModuleType
from typing import Callable, Dict, Iterable, List, Optional, Tuple

CHECK_IDS = (
    "balance1", "balance2", "cauchy", "covariance", "div-consistency",
    "jet-oracle", "lambda-invariance", "second-contraction", "stokes-closed",
)

ANALYTIC = (
    "sin_series", "cos_series", "tan_series", "exp_series", "log_series",
    "sqrt_series", "sinh_series", "cosh_series", "tanh_series",
    "reciprocal_series", "power_series",
)

# Taylor operations timed together as ``taylor.busy_s``; the counted ones
# map to their metric.
TAYLOR_METHODS = {
    "__mul__": "taylor.mul.calls", "__rmul__": "taylor.mul.calls",
    "__add__": "taylor.add.calls", "__radd__": "taylor.add.calls",
    "partial": "taylor.partial.calls", "compose": "taylor.compose.calls",
    "__sub__": None, "__rsub__": None, "__neg__": None, "__truediv__": None,
    "__rtruediv__": None, "__pow__": None, "truncate": None,
}

# Spans: (name, module, owner or None, attribute).  Each name ``x`` gives the
# metrics ``x_s``, the inclusive time of its outermost spans, and
# ``x.calls``; ``run_checks`` adds one ``scenarios.check.<id>`` span per check.
SPANS = (
    ("cli.main", "cli", None, "main"),
    ("scenarios.load", "scenarios", None, "load_scenario"),
    ("scenarios.generate", "scenarios", None, "generate_scenario"),
    ("exprs.parse", "exprs", None, "parse_expression"),
    ("fields.fd_oracle", "fields", None, "finite_difference_jet"),
    ("geometry.integrate", "geometry", None, "integrate"),
    ("geometry.embedding", "geometry", "Body", "check_embedding"),
    ("stress.balance1", "stress", None, "verify_balance_order1"),
    ("stress.div_residual", "stress", None, "invariant_divergence_residual"),
    ("nonholonomic.contraction", "nonholonomic", None, "second_contraction"),
    ("nonholonomic.contraction", "nonholonomic", None, "second_contraction_brute_force"),
    ("balance.balance2", "balance", None, "verify_balance_order2"),
    ("balance.edge_assembly", "balance", None, "edge_assembly"),
    ("balance.closed", "balance", None, "closed_boundary_exact_term"),
    ("covariance.invariance", "covariance", None, "invariance_check"),
    ("reports.lines", "reports", "RunReport", "lines"),
)
SPAN_NAMES = tuple(dict.fromkeys(
    [name for name, *_ in SPANS] + [f"scenarios.check.{cid}" for cid in CHECK_IDS]))

# Call counters: metric -> (module, owner or None, attribute).
COUNTERS = {
    "fields.jet_extension.calls": ("fields", None, "jet_extension"),
    "geometry.form_value_at.calls": ("geometry", "FormField", "value_at"),
    "bundles.from_velocity.calls": ("bundles", "JetSectionField", "from_velocity"),
    "nonholonomic.action_form.calls": ("nonholonomic", None, "nh_action_form"),
    "surface.tangent_traction.calls": ("surface", None, "tangent_traction"),
    "surface.surface_divergence.calls": ("surface", None, "surface_divergence"),
}

COUNT_METRICS = (
    "taylor.mul.calls", "taylor.add.calls", "taylor.partial.calls",
    "taylor.compose.calls", "taylor.analytic.calls", "fields.series_at.calls",
    "geometry.nodes", *COUNTERS,
)


def _jetstress_modules() -> List[ModuleType]:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "jetstress" or name.startswith("jetstress."))]


class Tracer:
    """Counters, aggregate timers and spans of one traced run."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.spans: List[list] = []  # [name, start, end, parent, scenario]
        self._open: List[int] = []
        self.scenario: Optional[str] = None
        self.taylor_busy = 0.0
        self._taylor_depth = 0
        self.series_self = 0.0
        self._series_depth = 0
        self._seen: set = set()
        self.redundant = 0
        self._undo: List[Tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.scenario])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    def new_scope(self) -> None:
        """Start a fresh window for counting repeated field evaluations."""
        self._seen.clear()

    # -- wrappers -----------------------------------------------------------------

    def _span(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return wrapper

    def _counter(self, metric: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _taylor(self, metric: Optional[str], fn: Callable) -> Callable:
        counts = self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if metric is not None:
                counts[metric] += 1
            if self._taylor_depth:
                self._taylor_depth += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._taylor_depth -= 1
            self._taylor_depth = 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.taylor_busy += clock() - start
                self._taylor_depth = 0

        return wrapper

    def _series_at(self, fn: Callable) -> Callable:
        counts = self.counts
        clock = time.perf_counter

        def series_at(field, point, order):
            counts["fields.series_at.calls"] += 1
            key = (field, tuple(float(c) for c in point), order)
            if key in self._seen:
                self.redundant += 1
            else:
                self._seen.add(key)
            if self._series_depth:
                self._series_depth += 1
                try:
                    return fn(field, point, order)
                finally:
                    self._series_depth -= 1
            self._series_depth = 1
            start, busy = clock(), self.taylor_busy
            try:
                return fn(field, point, order)
            finally:
                self.series_self += (clock() - start) - (self.taylor_busy - busy)
                self._series_depth = 0

        return series_at

    def _nodes_weights(self, fn: Callable) -> Callable:
        counts = self.counts

        def nodes_weights(rule, box):
            nodes, weights = fn(rule, box)
            counts["geometry.nodes"] += len(nodes)
            return nodes, weights

        return nodes_weights

    def _run_checks(self, fn: Callable, report_type: type) -> Callable:
        """``run_checks`` as one public call per check id, each under its own span."""

        def run_checks(scenario, selected=None):
            report = report_type(scenario.digest)
            for cid in list(scenario.checks if selected is None else selected):
                index = self.open(f"scenarios.check.{cid}")
                self.new_scope()
                try:
                    part = fn(scenario, [cid])
                finally:
                    self.close(index)
                    self.new_scope()
                for record in part.records:
                    report.add(record)
            return report

        return run_checks

    # -- installation -----------------------------------------------------------

    def _replace(self, original: object, replacement: object) -> int:
        """Rebind every ``jetstress`` module attribute, or module-level dict
        value such as ``exprs.FUNCTIONS``, that holds ``original``."""
        hits = 0
        for module in _jetstress_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, replacement)
                    hits += 1
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        if item is original:
                            self._undo.append((value, key, original))
                            value[key] = replacement
                            hits += 1
        return hits

    def _replace_method(self, owner: type, attr: str, wrap: Callable) -> None:
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(wrap(raw.__func__))
        else:
            wrapped = wrap(raw)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def _wrap(self, module_name: str, owner_name: Optional[str], attr: str,
              wrap: Callable) -> None:
        module = sys.modules[f"jetstress.{module_name}"]
        if owner_name is not None:
            self._replace_method(getattr(module, owner_name), attr, wrap)
            return
        original = getattr(module, attr)
        if self._replace(original, wrap(original)) == 0:
            raise RuntimeError(f"jetstress.{module_name}.{attr}: no binding found")

    def install(self) -> None:
        """Wrap every probe; raises if a probe's target no longer exists."""
        import jetstress.cli  # noqa: F401  (loads every module probed below)
        from jetstress import fields, geometry, reports, taylor

        series = taylor.TruncatedSeries
        wrapped: Dict[object, Callable] = {}
        for attr, metric in TAYLOR_METHODS.items():
            raw = series.__dict__[attr]
            # __rmul__ is __mul__ and __radd__ is __add__: one wrapper, one count.
            if raw not in wrapped:
                wrapped[raw] = self._taylor(metric, raw)
            self._undo.append((series, attr, raw))
            setattr(series, attr, wrapped[raw])
        for name in ANALYTIC:
            original = getattr(taylor, name)
            self._replace(original, self._taylor("taylor.analytic.calls", original))

        self._replace_method(fields.SmoothField, "series_at", self._series_at)
        self._replace_method(geometry.QuadratureRule, "nodes_weights", self._nodes_weights)
        for name, module, owner, attr in SPANS:
            self._wrap(module, owner, attr, lambda fn, name=name: self._span(name, fn))
        for metric, (module, owner, attr) in COUNTERS.items():
            self._wrap(module, owner, attr, lambda fn, metric=metric: self._counter(metric, fn))
        self._wrap("scenarios", None, "run_checks",
                   lambda fn: self._run_checks(fn, reports.RunReport))

    def uninstall(self) -> None:
        while self._undo:
            target, attr, original = self._undo.pop()
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)

    # -- results --------------------------------------------------------------------

    def _span_totals(self) -> Tuple[Dict[str, float], Counter]:
        """Inclusive time of the outermost span of each name, and span counts."""
        totals: Dict[str, float] = {}
        calls: Counter = Counter()
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            nested = False
            while parent is not None:
                if self.spans[parent][0] == name:
                    nested = True
                    break
                parent = self.spans[parent][3]
            if not nested:
                totals[name] = totals.get(name, 0.0) + (end - start)
        return totals, calls

    def metrics(self) -> Dict[str, float]:
        totals, calls = self._span_totals()
        out: Dict[str, float] = {m: float(self.counts[m]) for m in COUNT_METRICS}
        for name in SPAN_NAMES:
            out[f"{name}_s"] = totals.get(name, 0.0)
            out[f"{name}.calls"] = float(calls[name])
        out["taylor.busy_s"] = self.taylor_busy
        out["fields.series_at.self_s"] = self.series_self
        series = self.counts["fields.series_at.calls"]
        out["fields.series_at.redundant_frac"] = self.redundant / series if series else 0.0
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for name, start, end, parent, scenario in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "scenario": scenario}) + "\n")


def missing(metrics: Dict[str, float], required: Iterable[str]) -> List[str]:
    """Required metrics that read zero: a probe that no longer reaches its layer."""
    return [m for m in required if not metrics.get(m)]
