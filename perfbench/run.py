"""Benchmark of ``jetstress run``: seeded workloads, verdict checks, metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload quad-poly --seed 1 --seconds 20 --trace 0

The workload's scenario files are generated from the seed into a temporary
directory in the checkout.  Each is run in this process through
``jetstress.cli.main(["run", "--scenario", <file>, ...])`` in a closed loop,
one scenario after the previous verdict, over the whole input set, until
``--seconds`` have passed (at least one pass).  Every run's exit code and
per-check ``pass`` flags are compared with the expected verdict.  Every
timing is in scaled seconds, busy time at a fixed host speed measured while
it ran (see ``hostspeed.py``); raw seconds are printed alongside.

With ``--trace 0`` the end-to-end metrics are measured.  With ``--trace 1``
one untraced pass is followed by a traced set-up and a traced pass, and the
per-layer metrics of ``tracing.py`` are reported; the spans are written to
``.perfbench-out/`` in the checkout.  The host-speed meter runs there too,
so ``trace_overhead`` compares scaled seconds, and per-layer times include
its ticks, a few percent of the run.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import hostspeed
import tracing
import workloads
from hostspeed import Meter, Span
from workloads import ROOT, Input

SRC = ROOT / "src"

SETUP_REPEATS = 7
IMPORT_REPEATS = 9

UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "verdict_s.p50": "s",
    "verdict_s.tail": "s",
    "peak_rss_mb": "MB",
    "fail_frac": "ratio",
    "tol_margin_digits": "digits",
}

# Per-layer metrics that must read nonzero on each workload; a zero means a
# probe no longer reaches its layer (say, after a rename).
_PER_CHECK = {
    "quad-poly": ("balance1", "balance2", "cauchy", "div-consistency",
                  "second-contraction", "lambda-invariance", "jet-oracle"),
    "pointwise-n2": ("balance1", "div-consistency", "second-contraction",
                     "jet-oracle", "covariance"),
    "curved-analytic": ("balance1", "balance2", "jet-oracle", "stokes-closed"),
}
REQUIRED_NONZERO = {
    "quad-poly": (
        "taylor.mul.calls", "taylor.add.calls", "taylor.busy_s", "taylor.partial.calls",
        "taylor.compose.calls", "fields.series_at.calls", "fields.series_at.redundant_frac",
        "fields.series_at.self_s", "geometry.nodes", "geometry.integrate.calls",
        "geometry.form_value_at.calls", "geometry.integrate_s", "stress.balance1_s",
        "nonholonomic.action_form.calls", "nonholonomic.contraction_s",
        "surface.tangent_traction.calls", "surface.surface_divergence.calls",
        "balance.balance2_s", "balance.edge_assembly_s", "scenarios.generate_s",
    ),
    "pointwise-n2": (
        "exprs.parse.calls", "exprs.parse_s", "fields.fd_oracle_s",
        "fields.jet_extension.calls", "stress.div_residual_s", "nonholonomic.contraction_s",
        "covariance.invariance.calls", "covariance.invariance_s", "scenarios.load_s",
        "scenarios.generate_s", "reports.lines_s",
    ),
    "curved-analytic": (
        "taylor.partial.calls", "taylor.compose.calls", "taylor.analytic.calls",
        "exprs.parse.calls", "exprs.parse_s", "geometry.nodes", "geometry.integrate.calls",
        "geometry.form_value_at.calls", "geometry.integrate_s", "geometry.embedding_s",
        "surface.tangent_traction.calls", "surface.surface_divergence.calls",
        "balance.balance2_s", "balance.edge_assembly_s", "balance.closed_s",
    ),
}
for _name, _checks in _PER_CHECK.items():
    REQUIRED_NONZERO[_name] += tuple(f"scenarios.check.{c}_s" for c in _checks)


@dataclass
class Outcome:
    """What one ``cli.main`` call produced, and whether it was the expected verdict."""

    name: str
    span: Span
    exit_code: Optional[int]
    report: bytes
    ok: bool
    error: str = ""


@dataclass
class Tally:
    """Every call of a run: times, verdicts, and the first report of each input."""

    calls: List[Outcome] = field(default_factory=list)
    passes: List[float] = field(default_factory=list)  # raw wall seconds
    reports: Dict[str, Outcome] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(not c.ok for c in self.calls)

    def scaled(self, meter: Meter) -> List[float]:
        """Every call's scaled seconds, in call order."""
        return [meter.scaled(c.span) for c in self.calls]


def _parse_report(text: str) -> Dict[str, dict]:
    records = [json.loads(line) for line in text.splitlines() if line.strip()]
    return {r["check"]: r for r in records if r["check"] != "summary"}


def _main(argv: List[str], stderr: io.StringIO):
    """``cli.main(argv)``: its exit code, or the traceback of an exception."""
    import jetstress.cli

    try:
        with contextlib.redirect_stderr(stderr):
            return jetstress.cli.main(argv), ""
    except SystemExit as exc:  # argparse rejects the arguments
        return (exc.code if isinstance(exc.code, int) else 2), ""
    except Exception:  # a traceback is a failed run, not a crashed benchmark
        return None, traceback.format_exc()


def run_input(item: Input, report_path: Path, meter: Meter) -> Outcome:
    """One ``jetstress run`` in this process, compared with the expected verdict."""
    report_path.unlink(missing_ok=True)
    stderr = io.StringIO()
    (code, crash), span = meter.time(lambda: _main(item.argv(report_path), stderr))
    if crash:
        return Outcome(item.name, span, None, b"", False, crash)
    report = report_path.read_bytes() if report_path.exists() else b""
    records = _parse_report(report.decode("utf-8"))
    flags = {cid: bool(r["pass"]) for cid, r in records.items()}
    ok = code == item.exit_code and flags == item.expected
    error = "" if ok else f"exit {code}, pass flags {flags}; {stderr.getvalue().strip()}"
    return Outcome(item.name, span, code, report, ok, error)


def run_passes(inputs: Sequence[Input], workdir: Path, seconds: float, tally: Tally,
               meter: Meter, tracer: Optional[tracing.Tracer] = None) -> None:
    """Closed loop over the input set in whole passes: one pass, then more
    while another pass of average length still ends within ``seconds``."""
    report_path = workdir / "report.jsonl"
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for item in inputs:
            if tracer is not None:
                tracer.scenario = item.name
                tracer.new_scope()
            outcome = run_input(item, report_path, meter)
            tally.calls.append(outcome)
            tally.reports.setdefault(item.name, outcome)
            if not outcome.ok:
                print(f"unexpected verdict for {item.name}: {outcome.error}", file=sys.stderr)
        tally.passes.append(time.perf_counter() - pass_start)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(tally.passes) > seconds:
            return


def set_up(workload: str, seed: int, workdir: Path) -> List[Input]:
    """Generate the input files and make the first ``load_scenario`` of each."""
    import jetstress.scenarios

    workdir.mkdir(parents=True)
    inputs = workloads.WORKLOADS[workload](seed, workdir)
    for item in inputs:
        try:
            jetstress.scenarios.load_scenario(item.path.read_text(encoding="utf-8"))
        except jetstress.scenarios.ScenarioError:
            if item.exit_code != 2:
                raise
    return inputs


# Run in a fresh interpreter: prints the scaled seconds of ``import jetstress``.
_IMPORT_PROBE = """
import sys
sys.path.insert(0, {here!r})
import hostspeed
meter = hostspeed.Meter()
with meter:
    _, span = meter.time(lambda: __import__("jetstress"))
print(meter.scaled(span))
"""


def import_seconds() -> float:
    """Median scaled time to import ``jetstress`` in a fresh interpreter."""
    code = _IMPORT_PROBE.format(here=str(Path(hostspeed.__file__).resolve().parent))
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    samples = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(out.stdout.strip()))
    return statistics.median(samples)


def tail(samples: Sequence[float]):
    """Highest percentile with at least ten samples beyond it, or None under 11 samples."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    count = len(ordered)
    return ordered[count - 11], 100.0 * (count - 10) / count, count


def tol_margins(tally: Tally, inputs: Sequence[Input]) -> Dict[str, float]:
    """Median over the inputs of log10(tolerance / residual), per check id,
    over the checks expected to pass.

    A residual a few units in the last place above zero reads anywhere from
    2.3 to 4 digits below a 1e-14 tolerance depending on the coefficients;
    the median over the inputs that run a check follows the engine's
    precision rather than one input's rounding.
    """
    margins: Dict[str, List[float]] = {}
    for item in inputs:
        records = _parse_report(tally.reports[item.name].report.decode("utf-8"))
        for cid, passes in item.expected.items():
            if passes and cid in records:
                r = records[cid]
                margin = math.log10(r["tolerance"] / max(r["residual"], 1e-17))
                margins.setdefault(cid, []).append(margin)
    return {cid: statistics.median(values) for cid, values in margins.items()}


def declared(kind: str) -> Dict[str, str]:
    """Metric names and units of ``end_to_end`` or ``per_layer`` in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def _fmt(name: str, value: float, unit: str) -> str:
    return f"{name} = {value!r} {unit}"


def _result(tally: Tally, values: Dict[str, float], kind: str) -> str:
    """The result line: verdict counts and every declared metric of ``kind``."""
    return json.dumps({
        "correct": tally.failed == 0,
        "attempted": len(tally.calls),
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared(kind).items()},
    })


def end_to_end(workload: str, seed: int, seconds: float, scratch: Path) -> str:
    """Untraced run; prints every end-to-end metric and returns the result line."""
    imported = import_seconds()
    meter = Meter()
    setups: List[Span] = []
    files = None
    tally = Tally()
    with meter:
        for rep in range(SETUP_REPEATS):
            inputs, span = meter.time(lambda: set_up(workload, seed, scratch / f"setup{rep}"))
            setups.append(span)
            contents = [i.path.read_bytes() for i in inputs]
            if files is not None and contents != files:
                raise RuntimeError("the same seed produced different input files")
            files = contents
        run_passes(inputs, scratch, seconds, tally, meter)

    times = tally.scaled(meter)
    per_input: Dict[str, List[float]] = {}
    for call, scaled in zip(tally.calls, times):
        per_input.setdefault(call.name, []).append(scaled)
    margins = tol_margins(tally, inputs)
    values = {
        "setup_s": imported + statistics.median(meter.scaled(s) for s in setups),
        # One pass over the input set, each input at its median run.
        "wall_s": sum(statistics.median(v) for v in per_input.values()),
        "verdict_s.p50": statistics.median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_frac": tally.failed / len(times),
        # jet-oracle's residual is the finite-difference oracle's own error
        # (about 1e-8 against 1e-6): it would set the minimum everywhere and
        # move with the coefficients, not with the engine's precision.
        "tol_margin_digits": min(v for k, v in margins.items() if k != "jet-oracle"),
    }
    for item in inputs:
        outcome = tally.reports[item.name]
        print(f"report {item.name} exit={outcome.exit_code} "
              f"median_scaled_s={statistics.median(per_input[item.name]):.4f} "
              f"sha256={hashlib.sha256(outcome.report).hexdigest()}")
    raw = [c.span.busy for c in tally.calls]
    print(f"inputs {len(inputs)}, passes {len(tally.passes)}, runs {len(times)}; "
          f"verdict_s.p50 is over {len(times)} runs; raw busy seconds: median run "
          f"{statistics.median(raw)!r}, total {sum(raw)!r}; host speed over the runs "
          f"{sum(times) / sum(raw)!r} of the reference ({len(meter.durations)} samples)")
    print("tolerance margins (digits) " + json.dumps({k: round(v, 3) for k, v in margins.items()}))
    for name, value in values.items():
        print(_fmt(name, value, UNITS[name]))
    high = tail(times)
    if high is None:
        print(f"verdict_s.tail omitted: {len(times)} samples, fewer than 11")
    else:
        value, pct, count = high
        print(_fmt("verdict_s.tail", value, UNITS["verdict_s.tail"])
              + f" (p{pct:.1f} of {count} samples, 10 beyond)")
    return _result(tally, values, "end_to_end")


def traced(workload: str, seed: int, scratch: Path, out_dir: Path) -> str:
    """One untraced pass, then a traced set-up and pass; returns the result line."""
    meter = Meter()
    baseline = Tally()
    tally = Tally()
    tracer = tracing.Tracer()
    with meter:
        inputs = set_up(workload, seed, scratch / "untraced")
        run_passes(inputs, scratch, 0.0, baseline, meter)
        try:
            tracer.install()
            tracer.scenario = "setup"
            inputs = set_up(workload, seed, scratch / "traced")
            run_passes(inputs, scratch, 0.0, tally, meter, tracer)
        finally:
            tracer.uninstall()
    tracer.write_spans(out_dir / f"spans-{workload}-seed{seed}.jsonl")

    values = tracer.metrics()
    values["trace_overhead"] = sum(tally.scaled(meter)) / sum(baseline.scaled(meter))
    zero = tracing.missing(values, REQUIRED_NONZERO[workload])
    if zero:
        raise RuntimeError(f"per-layer metrics read zero on {workload}: {', '.join(zero)}")
    for name, unit in declared("per_layer").items():
        print(_fmt(name, values[name], unit))
    return _result(Tally(baseline.calls + tally.calls), values, "per_layer")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "jetstress" / "__init__.py").is_file():
        print(f"error: no jetstress sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import jetstress

    if Path(jetstress.__file__).resolve().parent != SRC / "jetstress":
        print(f"error: imported jetstress from {jetstress.__file__}", file=sys.stderr)
        return 2

    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if args.trace:
            line = traced(args.workload, args.seed, scratch, ROOT / ".perfbench-out")
        else:
            line = end_to_end(args.workload, args.seed, args.seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
