"""Scenario loading, validation, check execution, determinism, exit codes."""

import json
from pathlib import Path

import pytest

from jetstress.cli import main
from jetstress.scenarios import (
    DEFAULT_TOLERANCES,
    ScenarioError,
    generate_scenario,
    load_scenario,
    run_checks,
    scenario_to_json,
)

REPO = Path(__file__).resolve().parents[1]
SCENARIOS = REPO / "scenarios"


def load_fixture(name):
    return load_scenario((SCENARIOS / name).read_text())


def test_bundled_square_order1_passes():
    scenario = load_fixture("square-order1.json")
    report = run_checks(scenario)
    assert report.passed
    by_id = {r.check_id: r for r in report.records}
    assert by_id["balance1"].residual <= 1e-10


def test_bundled_cube_order2_passes():
    scenario = load_fixture("cube-order2.json")
    report = run_checks(scenario)
    assert report.passed


def test_bundled_symmetric_contraction_tight():
    scenario = load_fixture("symmetric-contraction.json")
    report = run_checks(scenario, ["second-contraction"])
    assert report.passed
    assert report.records[0].residual <= 1e-14


def test_bundled_disk_and_covariance():
    disk = run_checks(load_fixture("disk-closed.json"))
    assert disk.passed
    cov = run_checks(load_fixture("covariance-quadratic.json"))
    assert cov.passed
    record = cov.records[0]
    assert record.terms["naive_magnitude"] > 1e-3
    assert record.terms["naive_match_defect"] <= 1e-10


def test_schema_validation_errors_name_keys():
    with pytest.raises(ScenarioError, match="schema"):
        load_scenario({"schema": "other/1"})
    base = json.loads((SCENARIOS / "square-order1.json").read_text())
    del base["bundle"]
    with pytest.raises(ScenarioError, match="bundle"):
        load_scenario(base)
    base = json.loads((SCENARIOS / "square-order1.json").read_text())
    base["geometry"]["body_box"] = [[0.0, 1.0]]
    with pytest.raises(ScenarioError, match="body_box"):
        load_scenario(base)
    base = json.loads((SCENARIOS / "square-order1.json").read_text())
    base["checks"] = ["balance9"]
    with pytest.raises(ScenarioError, match="balance9"):
        load_scenario(base)
    base = json.loads((SCENARIOS / "square-order1.json").read_text())
    base["checks"] = ["balance2"]
    with pytest.raises(ScenarioError, match="balance2"):
        load_scenario(base)
    base = json.loads((SCENARIOS / "square-order1.json").read_text())
    base["stress"]["order1"]["s1"] = [["x1"]]
    with pytest.raises(ScenarioError, match="s1"):
        load_scenario(base)


def test_component_forms():
    doc = json.loads((SCENARIOS / "square-order1.json").read_text())
    doc["velocity"]["u"] = [{"monomials": [[[1, 0], 2.0], [[0, 2], -1.0]]}]
    scenario = load_scenario(doc)
    value = scenario.velocity.at((0.5, 0.5))[0]
    assert value == pytest.approx(2.0 * 0.5 - 0.25)
    doc["velocity"]["u"] = [3.5]
    scenario = load_scenario(doc)
    assert scenario.velocity.at((0.1, 0.9))[0] == pytest.approx(3.5)
    doc["velocity"]["u"] = [{"bad": 1}]
    with pytest.raises(ScenarioError, match="velocity.u"):
        load_scenario(doc)


def test_generation_deterministic_and_valid():
    doc_a = generate_scenario(7, 2, 1, 3)
    doc_b = generate_scenario(7, 2, 1, 3)
    assert scenario_to_json(doc_a) == scenario_to_json(doc_b)
    assert scenario_to_json(doc_a) != scenario_to_json(generate_scenario(8, 2, 1, 3))
    scenario = load_scenario(doc_a)
    report = run_checks(scenario, ["balance1", "balance2"])
    assert report.passed
    with pytest.raises(ScenarioError):
        generate_scenario(7, 5, 1, 3)
    with pytest.raises(ScenarioError):
        generate_scenario(7, 2, 1, 9)


def test_generation_degree_zero_divergence_terms_vanish():
    doc = generate_scenario(3, 2, 1, 0)
    scenario = load_scenario(doc)
    report = run_checks(scenario, ["balance1"])
    record = report.records[0]
    assert record.passed
    # With the value slot zeroed as well, a constant gradient slot has zero
    # divergence and the interior term disappears from the report.
    doc["stress"]["order1"]["s0"] = [0.0]
    scenario0 = load_scenario(doc)
    record0 = run_checks(scenario0, ["balance1"]).records[0]
    assert record0.terms["interior"] == pytest.approx(0.0, abs=1e-15)


def test_transversal_spec_branches():
    doc = json.loads((SCENARIOS / "cube-order2.json").read_text())
    doc["bundle"] = {"n": 2, "d": 1}
    doc["geometry"] = {
        "chart_box": [[0.0, 1.0], [0.0, 1.0]],
        "body_box": [[0.0, 1.0], [0.0, 1.0]],
        "quad_order": 6,
    }
    doc["stress"] = {
        "raw": {
            "x0": ["x1 - 0.3*x2"],
            "x1": [["x2^2", "0.5*x1"]],
            "x2": [["x1*x2", "-0.75"]],
            "x3": [[["x1", "0.5*x2"], ["x2^2", "-x1*x2"]]],
        }
    }
    doc["velocity"] = {"u": ["x1^2*x2 - x2^2"]}
    doc["checks"] = ["balance2"]
    doc["transversals"] = {
        "x1-lower": "coordinate",
        "x1-upper": {"vector": ["1", "0.4"]},
        "x2-lower": {"metric": [["1", "0"], ["0", "1"]]},
        "x2-upper": {"vector": ["0.2", "1"]},
    }
    report = run_checks(load_scenario(doc))
    assert report.passed
    doc["transversals"]["x1-upper"] = {"vector": ["0", "1"]}  # tangent: singular
    with pytest.raises(Exception):
        run_checks(load_scenario(doc))
    doc["transversals"] = {"x9-upper": "coordinate"}
    with pytest.raises(ScenarioError, match="x9-upper"):
        load_scenario(doc)


def test_run_report_determinism():
    scenario_path = SCENARIOS / "square-order1.json"
    first = run_checks(load_scenario(scenario_path.read_text())).lines()
    second = run_checks(load_scenario(scenario_path.read_text())).lines()
    assert first == second
    # Records are sorted by check id regardless of execution order.
    ids = [json.loads(line)["check"] for line in first[:-1]]
    assert ids == sorted(ids)


def test_cli_exit_codes(tmp_path):
    assert main(["run", "--scenario", str(SCENARIOS / "square-order1.json"),
                 "--report", str(tmp_path / "ok.jsonl")]) == 0
    assert main(["run", "--scenario", str(SCENARIOS / "failing-tolerance.json"),
                 "--report", str(tmp_path / "fail.jsonl")]) == 1
    assert main(["run", "--scenario", str(SCENARIOS / "malformed.json")]) == 2
    assert main(["run", "--scenario", str(tmp_path / "missing.json")]) == 2
    report_lines = (tmp_path / "ok.jsonl").read_text().strip().splitlines()
    summary = json.loads(report_lines[-1])
    assert summary["check"] == "summary" and summary["pass"] is True


def test_cli_check_selection_and_overrides(tmp_path):
    out = tmp_path / "r.jsonl"
    code = main([
        "run", "--scenario", str(SCENARIOS / "square-order1.json"),
        "--check", "balance1", "--quad-order", "8",
        "--tol-override", "balance1=1e-8", "--report", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    records = [json.loads(l) for l in lines]
    assert [r["check"] for r in records] == ["balance1", "summary"]
    assert records[0]["tolerance"] == 1e-8
    # Unknown check id or bad override is a configuration error.
    assert main(["run", "--scenario", str(SCENARIOS / "square-order1.json"),
                 "--check", "nope"]) == 2
    assert main(["run", "--scenario", str(SCENARIOS / "square-order1.json"),
                 "--tol-override", "balance1=abc"]) == 2
    # Selecting a check the scenario does not configure is rejected.
    assert main(["run", "--scenario", str(SCENARIOS / "square-order1.json"),
                 "--check", "balance2"]) == 2


def test_cli_generate_roundtrip(tmp_path):
    out = tmp_path / "gen.json"
    assert main(["generate", "--seed", "11", "--n", "2", "--d", "1",
                 "--degree", "2", "--out", str(out)]) == 0
    assert main(["run", "--scenario", str(out),
                 "--report", str(tmp_path / "gen.jsonl")]) == 0
    assert main(["generate", "--seed", "11", "--n", "7"]) == 2


def test_default_tolerances_documented_values():
    assert DEFAULT_TOLERANCES["balance1"] == 1e-10
    assert DEFAULT_TOLERANCES["div-consistency"] == 1e-11
    assert DEFAULT_TOLERANCES["second-contraction"] == 1e-14


MALFORMED_DOCUMENTS = [
    ("square-order1.json", ("geometry", "body_box"), [[0.0], [0, 1]], "geometry.body_box"),
    ("square-order1.json", ("geometry", "chart_box"), [1, 2], "geometry.chart_box"),
    ("square-order1.json", ("geometry", "chart_box"), [["a", 1], [0, 1]], "geometry.chart_box"),
    ("square-order1.json", ("bundle",), [2, 1], "bundle"),
    ("square-order1.json", ("bundle", "n"), True, "bundle.n"),
    ("square-order1.json", ("geometry",), [], "geometry"),
    ("square-order1.json", ("geometry", "quad_order"), True, "geometry.quad_order"),
    ("square-order1.json", ("tolerances",), ["x"], "tolerances"),
    ("square-order1.json", ("tolerances",), {"balance1": "abc"}, "tolerances.balance1"),
    ("square-order1.json", ("velocity", "u"), [{"monomials": [[[1, 0], "x"]]}], "velocity.u"),
    ("covariance-quadratic.json", ("stress", "order2", "split"), "a", "stress.order2.split"),
    ("covariance-quadratic.json", ("covariance", "samples"), [1, 2], "covariance.samples"),
    ("covariance-quadratic.json", ("covariance", "quantities"), "action1",
     "covariance.quantities"),
]


@pytest.mark.parametrize(
    "fixture, path, value, key", MALFORMED_DOCUMENTS,
    ids=[f"{i}-{case[3]}" for i, case in enumerate(MALFORMED_DOCUMENTS)],
)
def test_malformed_document_exits_2_naming_the_key(tmp_path, capsys, fixture, path, value, key):
    doc = json.loads((SCENARIOS / fixture).read_text())
    target = doc
    for part in path[:-1]:
        target = target[part]
    target[path[-1]] = value
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(scenario)]) == 2
    assert f"error: {key}" in capsys.readouterr().err


NON_OBJECT_BLOCKS = [
    ("square-order1.json", ("velocity",), 5, "velocity: expected an object"),
    ("square-order1.json", ("covariance",), 5, "covariance: expected an object"),
    ("square-order1.json", ("stress",), 5, "stress: expected an object"),
    ("square-order1.json", ("closed_boundary",), 5, "closed_boundary: expected an object"),
    ("square-order1.json", ("transversals",), [1], "transversals: expected an object"),
    ("square-order1.json", ("stress", "order1"), [], "stress.order1: expected an object"),
    ("square-order1.json", ("stress", "order2"), "s2", "stress.order2: expected an object"),
    ("square-order1.json", ("stress", "raw"), [1], "stress.raw: expected an object"),
    ("square-order1.json", ("velocity", "section"), 3, "velocity.section: expected an object"),
    ("square-order1.json", ("stress", "order1"), {"s1": [["1", "1"]]},
     "stress.order1.s0: missing required key"),
    ("covariance-quadratic.json", ("covariance",), {"samples": [[0.5, 0.5]]},
     "covariance.forward: missing required key"),
]


@pytest.mark.parametrize(
    "fixture, path, value, message", NON_OBJECT_BLOCKS,
    ids=[f"{i}-{case[3].split(':')[0]}" for i, case in enumerate(NON_OBJECT_BLOCKS)],
)
def test_non_object_block_exits_2_naming_the_full_key(
    tmp_path, capsys, fixture, path, value, message
):
    doc = json.loads((SCENARIOS / fixture).read_text())
    target = doc
    for part in path[:-1]:
        target = target[part]
    target[path[-1]] = value
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(scenario)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def _patched_square(tmp_path, checks):
    # det of the patch Jacobian is 3*(x1 - 0.5)^2: zero on the line x1 = 0.5,
    # which holds Gauss nodes for odd quadrature orders only.
    doc = json.loads((SCENARIOS / "square-order1.json").read_text())
    doc["geometry"]["patch"] = ["(x1 - 0.5)^3 + 0.5", "x2"]
    doc["geometry"]["quad_order"] = 8
    doc["checks"] = checks
    path = tmp_path / "patched.json"
    path.write_text(json.dumps(doc))
    return path


def test_quad_order_override_rechecks_the_patch(tmp_path, capsys):
    path = _patched_square(tmp_path, ["balance1"])
    report = str(tmp_path / "r.jsonl")
    assert main(["run", "--scenario", str(path), "--report", report]) == 0
    assert main(["run", "--scenario", str(path), "--quad-order", "7", "--report", report]) == 2
    assert capsys.readouterr().err.startswith("error: --quad-order: ")
    assert main(["run", "--scenario", str(path), "--quad-order", "10", "--report", report]) == 0


def test_cauchy_on_a_patched_body_is_rejected_at_load(tmp_path):
    path = _patched_square(tmp_path, ["balance1", "cauchy"])
    with pytest.raises(ScenarioError, match="checks.cauchy"):
        load_scenario(path.read_text())
