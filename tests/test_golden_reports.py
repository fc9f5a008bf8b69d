"""Bundled scenarios reproduce their committed reports byte for byte."""

from pathlib import Path

import pytest

from jetstress.cli import main

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
