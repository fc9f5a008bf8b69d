"""Bundled scenarios reproduce their committed reports byte for byte."""

import json
from pathlib import Path

import pytest

from jetstress import fields, geometry
from jetstress.cli import main
from jetstress.scenarios import generate_scenario

from oracles import read_faces_alone

REPO = Path(__file__).resolve().parents[1]
SCENARIOS = REPO / "scenarios"
GOLDEN = REPO / "tests" / "golden"

# Scenario stem -> expected exit code of `jetstress run`.
EXIT_CODES = {
    "covariance-quadratic": 0,
    "cube-order2": 0,
    "disk-closed": 0,
    "failing-tolerance": 1,
    "grammar": 0,
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


def _report_at(doc, quad_order, tmp_path):
    """The report of ``doc`` run with ``quad_order`` written into a copy of it."""
    doc["geometry"]["quad_order"] = quad_order
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    report = tmp_path / "report.jsonl"
    assert main(["run", "--scenario", str(scenario), "--report", str(report)]) == 0
    return report.read_bytes()


@pytest.mark.parametrize("name", sorted(ODD_Q))
def test_odd_quad_order_report_matches_golden(name, tmp_path):
    make, quad_order = ODD_Q[name]
    got = _report_at(make(), quad_order, tmp_path)
    assert got == (GOLDEN / "odd-q" / f"{name}.jsonl").read_bytes()


def test_every_odd_q_golden_has_a_case():
    assert sorted(p.stem for p in (GOLDEN / "odd-q").glob("*.jsonl")) == sorted(ODD_Q)


# Inputs at the node budget: every rule they use is one batch of
# ``fields.BATCH`` nodes.  Golden -> (bundled scenario, quadrature order).
BUDGET = {
    "cube-order2-q16": ("cube-order2", 16),
    "patched-metric-q64": ("patched-metric", 64),
}


@pytest.mark.parametrize("name", sorted(BUDGET))
def test_node_budget_report_matches_golden(name, tmp_path):
    stem, quad_order = BUDGET[name]
    assert quad_order ** len(_bundled(stem)["geometry"]["body_box"]) == geometry.NODE_BUDGET
    got = _report_at(_bundled(stem), quad_order, tmp_path)
    assert got == (GOLDEN / "budget" / f"{name}.jsonl").read_bytes()


def test_every_budget_golden_has_a_case():
    assert sorted(p.stem for p in (GOLDEN / "budget").glob("*.jsonl")) == sorted(BUDGET)


# Generated documents, written and run through the CLI; each report holds
# every check its document configures.  Golden -> (seed, n, d, degree).
GENERATED = {
    "generated-seed3-n2-d3-deg4": (3, 2, 3, 4),
    "generated-seed3-n3-d2-deg4": (3, 3, 2, 4),
    "generated-seed3-n4-d1-deg4": (3, 4, 1, 4),
}


def _generated_report(name, tmp_path):
    """The report of a generated document, written and run through the CLI."""
    seed, n, d, degree = GENERATED[name]
    scenario, report = tmp_path / "scenario.json", tmp_path / "report.jsonl"
    assert main(["generate", "--seed", str(seed), "--n", str(n), "--d", str(d),
                 "--degree", str(degree), "--out", str(scenario)]) == 0
    assert main(["run", "--scenario", str(scenario), "--report", str(report)]) == 0
    configured = json.loads(scenario.read_text(encoding="utf-8"))["checks"]
    records = [json.loads(line) for line in report.read_text(encoding="utf-8").splitlines()]
    assert [r["check"] for r in records] == sorted(configured) + ["summary"]
    return report.read_bytes()


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_generated_report_matches_golden(name, tmp_path):
    golden = GOLDEN / "generated" / f"{name}.jsonl"
    assert _generated_report(name, tmp_path) == golden.read_bytes()


def test_every_generated_golden_has_a_case():
    assert sorted(p.stem for p in (GOLDEN / "generated").glob("*.jsonl")) == sorted(GENERATED)


EVERY_INPUT = sorted(EXIT_CODES) + [f"odd-q/{name}" for name in sorted(ODD_Q)]


def _report_of(name, tmp_path):
    """The report of a bundled scenario, or of an odd-q case by ``odd-q/<name>``."""
    if name.startswith("odd-q/"):
        make, quad_order = ODD_Q[name[len("odd-q/"):]]
        return _report_at(make(), quad_order, tmp_path)
    report = tmp_path / "report.jsonl"
    code = main(["run", "--scenario", str(SCENARIOS / f"{name}.json"), "--report", str(report)])
    assert code == EXIT_CODES[name]
    return report.read_bytes()


# A batch size that divides no rule: every batch boundary falls inside a face.
@pytest.mark.parametrize("name", EVERY_INPUT)
def test_reports_do_not_depend_on_the_batch_size(name, tmp_path, monkeypatch):
    monkeypatch.setattr(fields, "BATCH", 7)
    assert _report_of(name, tmp_path) == (GOLDEN / f"{name}.jsonl").read_bytes()


# A memo that stores nothing: every field is evaluated at every order it is
# asked for, none served from another order or another point object.
@pytest.mark.parametrize("name", EVERY_INPUT)
def test_reports_do_not_depend_on_the_batch_memo(name, tmp_path, monkeypatch):
    monkeypatch.setattr(fields._BatchMemo, "put", lambda memo, key, order, series: None)
    assert _report_of(name, tmp_path) == (GOLDEN / f"{name}.jsonl").read_bytes()


# Every face in a pass of its own, as before the two faces of an axis shared
# one: balance2, balance1 and cauchy read each face through its own fields.
@pytest.mark.parametrize("name", EVERY_INPUT + [f"generated/{name}" for name in sorted(GENERATED)])
def test_reports_do_not_depend_on_face_grouping(name, tmp_path, monkeypatch):
    read_faces_alone(monkeypatch)
    if name.startswith("generated/"):
        got = _generated_report(name[len("generated/"):], tmp_path)
    else:
        got = _report_of(name, tmp_path)
    assert got == (GOLDEN / f"{name}.jsonl").read_bytes()
