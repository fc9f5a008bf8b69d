"""Bundled scenarios reproduce their committed reports byte for byte."""

import json
from pathlib import Path

import pytest

from jetstress.cli import main
from jetstress.scenarios import generate_scenario

REPO = Path(__file__).resolve().parents[1]
SCENARIOS = REPO / "scenarios"
GOLDEN = REPO / "tests" / "golden"

# Scenario stem -> expected exit code of `jetstress run`.
EXIT_CODES = {
    "covariance-quadratic": 0,
    "cube-order2": 0,
    "disk-closed": 0,
    "failing-tolerance": 1,
    "patched-metric": 0,
    "square-order1": 0,
    "symmetric-contraction": 0,
}


@pytest.mark.parametrize("stem", sorted(EXIT_CODES))
def test_bundled_report_matches_golden(stem, tmp_path):
    report = tmp_path / "report.jsonl"
    code = main(["run", "--scenario", str(SCENARIOS / f"{stem}.json"), "--report", str(report)])
    assert code == EXIT_CODES[stem]
    assert report.read_bytes() == (GOLDEN / f"{stem}.jsonl").read_bytes()


def test_every_golden_has_a_scenario():
    assert sorted(p.stem for p in GOLDEN.glob("*.jsonl")) == sorted(EXIT_CODES)


def test_malformed_scenario_exits_2(tmp_path, capsys):
    report = tmp_path / "report.jsonl"
    code = main(["run", "--scenario", str(SCENARIOS / "malformed.json"), "--report", str(report)])
    assert code == 2
    assert not report.exists()
    assert "error:" in capsys.readouterr().err


# Odd quadrature orders put a node at the centre of each box axis, where a
# coefficient can be exactly zero at some nodes of a batch and not at others.
# Golden -> (scenario document, quadrature order written into a copy of it).
ODD_Q = {
    "cube-order2-q5": (lambda: _bundled("cube-order2"), 5),
    "square-order1-q5": (lambda: _bundled("square-order1"), 5),
    "patched-metric-q7": (lambda: _bundled("patched-metric"), 7),
    "generated-seed7-n2-d2-deg3-q7": (lambda: generate_scenario(7, 2, 2, 3), 7),
}


def _bundled(stem):
    return json.loads((SCENARIOS / f"{stem}.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(ODD_Q))
def test_odd_quad_order_report_matches_golden(name, tmp_path):
    make, quad_order = ODD_Q[name]
    doc = make()
    doc["geometry"]["quad_order"] = quad_order
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    report = tmp_path / "report.jsonl"
    assert main(["run", "--scenario", str(scenario), "--report", str(report)]) == 0
    assert report.read_bytes() == (GOLDEN / "odd-q" / f"{name}.jsonl").read_bytes()


def test_every_odd_q_golden_has_a_case():
    assert sorted(p.stem for p in (GOLDEN / "odd-q").glob("*.jsonl")) == sorted(ODD_Q)
