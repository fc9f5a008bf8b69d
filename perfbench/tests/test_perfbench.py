"""Toy-size tests of the benchmark harness.

Run from the root of the repository::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import jetstress  # noqa: E402


def toy(seed: int, workdir: Path):
    """Thirteen fast runs: ten finite-difference oracles, one identity check,
    one failing run and one malformed file."""
    rng = random.Random(seed)
    inputs = [workloads._generated(workdir, rng, structure, 2, 1, 2, checks=["jet-oracle"])
              for structure in range(10)]
    inputs.append(workloads._bundled(workdir, "symmetric-contraction"))
    inputs.append(workloads._bundled(workdir, "failing-tolerance", exit_code=1))
    inputs.append(workloads._bundled(workdir, "malformed", exit_code=2))
    return inputs


@pytest.fixture
def toy_workload(monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "toy", toy)
    monkeypatch.setitem(run.REQUIRED_NONZERO, "toy",
                        ("fields.jet_extension.calls", "geometry.nodes", "reports.lines_s"))
    return "toy"


def test_every_end_to_end_metric_prints_with_its_unit(toy_workload, tmp_path, capsys):
    line = run.end_to_end(toy_workload, 3, 0.0, tmp_path)
    printed = {}
    for text in capsys.readouterr().out.splitlines():
        if " = " in text:
            name, rest = text.split(" = ", 1)
            printed[name] = rest.split()[1]
    assert printed == run.UNITS
    result = json.loads(line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 13 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def _build(name: str, seed: int, workdir: Path):
    workdir.mkdir(parents=True)
    return [i.path.read_bytes() for i in workloads.WORKLOADS[name](seed, workdir)]


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    for name in workloads.WORKLOADS:
        first = _build(name, 11, tmp_path / name / "a")
        assert first == _build(name, 11, tmp_path / name / "b")
        assert first != _build(name, 12, tmp_path / name / "c")


def test_flipping_one_expected_verdict_raises_fail_frac(tmp_path):
    inputs = toy(5, tmp_path)
    tally = run.Tally()
    with hostspeed.Meter() as meter:
        run.run_passes(inputs, tmp_path, 0.0, tally, meter)
    assert tally.failed == 0
    flipped = list(inputs)
    flipped[0] = dataclasses.replace(inputs[0], expected={"jet-oracle": False})
    tally = run.Tally()
    with hostspeed.Meter() as meter:
        run.run_passes(flipped, tmp_path, 0.0, tally, meter)
    assert tally.failed == 1 and not tally.calls[0].ok


def test_exception_counts_as_failure(tmp_path, monkeypatch):
    inputs = toy(5, tmp_path)[:1]

    def boom(*args, **kwargs):
        raise ZeroDivisionError("injected")

    monkeypatch.setattr(jetstress.scenarios.SmoothField, "series_at", boom)
    tally = run.Tally()
    with hostspeed.Meter() as meter:
        run.run_passes(inputs, tmp_path, 0.0, tally, meter)
    assert tally.failed == 1 and "ZeroDivisionError" in tally.calls[0].error


def test_meter_scales_busy_time_and_restores_the_timer():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    meter = hostspeed.Meter()
    with meter:
        _, long = meter.time(lambda: [hostspeed.kernel() for _ in range(200)])
        _, short = meter.time(lambda: None)
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # Ticks came during the long span and are not part of its busy time.
    assert meter.times[hostspeed.MIN_SAMPLES] < long.end
    assert 0 < long.busy < long.end - long.start
    # 200 kernel runs are 200 kernel durations at any host speed.
    assert 0.5 * 200 < meter.scaled(long) / hostspeed.REF_KERNEL_S < 2.0 * 200
    # A span without ticks borrows the nearest samples.
    assert meter.scaled(short) >= 0 and meter.speed(short) > 0


def _counts(line: str) -> dict:
    metrics = json.loads(line)["metrics"]
    return {k: v["value"] for k, v in metrics.items()
            if k.endswith(".calls") or k == "geometry.nodes"}


def test_traced_run_counts_repeat_exactly(toy_workload, tmp_path):
    first = run.traced(toy_workload, 4, tmp_path / "one", tmp_path / "out")
    second = run.traced(toy_workload, 4, tmp_path / "two", tmp_path / "out")
    assert _counts(first) == _counts(second)
    assert _counts(first)["fields.jet_extension.calls"] > 0
    assert set(json.loads(first)["metrics"]) == set(run.declared("per_layer"))
    spans = (tmp_path / "out" / "spans-toy-seed4.jsonl").read_text().splitlines()
    assert {json.loads(s)["name"] for s in spans} >= {"cli.main", "scenarios.load"}


def test_traced_run_fails_loudly_on_a_zero_layer(toy_workload, tmp_path, monkeypatch):
    monkeypatch.setitem(run.REQUIRED_NONZERO, "toy", ("balance.closed_s",))
    with pytest.raises(RuntimeError, match="balance.closed_s"):
        run.traced(toy_workload, 4, tmp_path / "w", tmp_path / "out")


def test_wrapper_reaches_every_binding_and_restores_it():
    import jetstress.cli  # noqa: F401

    modules = tracing._jetstress_modules()
    series = jetstress.taylor.TruncatedSeries

    def snapshot():
        return ({(m.__name__, k): v for m in modules for k, v in vars(m).items()},
                dict(jetstress.exprs.FUNCTIONS), dict(vars(series)))

    before = snapshot()
    integrate, sqrt = jetstress.geometry.integrate, jetstress.taylor.sqrt_series
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = jetstress.geometry.integrate
        assert wrapped is not integrate
        for module in (jetstress, jetstress.scenarios, jetstress.stress, jetstress.balance):
            assert module.integrate is wrapped
        assert jetstress.exprs.FUNCTIONS["sqrt"] is jetstress.taylor.sqrt_series is not sqrt
        assert jetstress.surface.power_series is jetstress.taylor.power_series
        assert jetstress.scenarios.run_checks is jetstress.cli.run_checks
        assert series.__rmul__ is series.__mul__
    finally:
        tracer.uninstall()
    assert snapshot() == before


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copyfile(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "quad-poly", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
