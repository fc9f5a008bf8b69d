"""Scenario loading, validation, check execution, determinism, exit codes."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from jetstress import cli, geometry, scenarios
from jetstress.cli import main
from jetstress.bundles import JetSectionField
from jetstress.exprs import MAX_DEPTH
from jetstress.fields import SmoothField, TensorField
from jetstress.nonholonomic import NonHolonomicStress, VariationalStress2
from jetstress.scenarios import (
    DEFAULT_TOLERANCES,
    ScenarioError,
    _sample_points,
    generate_scenario,
    load_scenario,
    run_checks,
    scenario_to_json,
)
from jetstress.stress import VariationalStress1

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


def test_cli_calls_share_one_parser_and_no_option_values(tmp_path):
    # The parser is built once per process; a repeatable option of one call
    # must not carry into the next.
    square = str(SCENARIOS / "square-order1.json")

    def run(*options):
        out = tmp_path / "r.jsonl"
        assert main(["run", "--scenario", square, *options, "--report", str(out)]) == 0
        return {r["check"]: r for r in map(json.loads, out.read_text().splitlines())}

    first = run("--check", "balance1", "--tol-override", "balance1=1e-8")
    assert list(first) == ["balance1", "summary"] and first["balance1"]["tolerance"] == 1e-8
    second = run("--check", "cauchy", "--check", "jet-oracle", "--tol-override", "cauchy=1e-7")
    assert list(second) == ["cauchy", "jet-oracle", "summary"]
    assert second["cauchy"]["tolerance"] == 1e-7
    assert second["jet-oracle"]["tolerance"] == DEFAULT_TOLERANCES["jet-oracle"]
    third = run()
    assert list(third) == ["balance1", "cauchy", "div-consistency", "jet-oracle", "summary"]
    assert all(third[c]["tolerance"] == DEFAULT_TOLERANCES[c] for c in list(third)[:-1])
    assert cli._parser() is cli._parser()


def test_cli_generate_roundtrip(tmp_path, capsys):
    out = tmp_path / "gen.json"
    assert main(["generate", "--seed", "11", "--n", "2", "--d", "1",
                 "--degree", "2", "--out", str(out)]) == 0
    assert main(["run", "--scenario", str(out),
                 "--report", str(tmp_path / "gen.jsonl")]) == 0
    assert main(["generate", "--seed", "11", "--n", "7"]) == 2
    assert capsys.readouterr().err == "error: generate: n must be 2, 3 or 4, got 7\n"


@pytest.mark.parametrize("first_point_fails_sqrt", [True, False])
def test_second_contraction_names_the_error_of_its_first_failing_point(
    tmp_path, capsys, first_point_fails_sqrt
):
    # x3 is defined on neither side of x1 = t: log fails at x1 <= t and sqrt
    # at x1 > t.  t lies just below the first sample point's x1, or at it, so
    # that point fails in sqrt, or in log, and other points in the other one.
    doc = json.loads((SCENARIOS / "symmetric-contraction.json").read_text())
    points = _sample_points(load_scenario(json.dumps(doc)), 20)
    t = points[0][0] - 1e-9 if first_point_fails_sqrt else points[0][0]
    assert any(p[0] <= t for p in points) and any(p[0] > t for p in points)
    doc["stress"]["raw"]["x3"] = [[[f"log(x1 - {t!r})", "0.3"], ["0.3", f"sqrt({t!r} - x1)"]]]
    path = tmp_path / "contraction.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(path)]) == 2
    message = ("fractional power of a series requires a positive constant term"
               if first_point_fails_sqrt else "log of a series requires a positive constant term")
    assert capsys.readouterr().err == f"error: checks.second-contraction: {message}\n"


def test_second_contraction_reads_its_sample_points_in_one_batch(monkeypatch):
    batches = []
    original = scenarios.on_nodes

    def recorded(fn, nodes, width=None):
        batches.append((len(nodes), width))
        return original(fn, nodes, width)

    monkeypatch.setattr(scenarios, "on_nodes", recorded)
    scenario = load_scenario((SCENARIOS / "symmetric-contraction.json").read_text())
    assert run_checks(scenario).passed
    assert batches == [(20, 4)]


def test_default_tolerances_documented_values():
    assert DEFAULT_TOLERANCES["balance1"] == 1e-10
    assert DEFAULT_TOLERANCES["div-consistency"] == 1e-11
    assert DEFAULT_TOLERANCES["second-contraction"] == 1e-14


def _interval_doc(check):
    """A document on the unit interval, n = 1, with every block ``check`` reads."""
    return {
        "schema": "jetstress-scenario/1",
        "name": "interval",
        "bundle": {"n": 1, "d": 1},
        "geometry": {"chart_box": [[0.0, 1.0]], "body_box": [[0.0, 1.0]], "quad_order": 4},
        "stress": {
            "order1": {"s0": ["x1^2"], "s1": [["1 + x1"]]},
            "raw": {"x0": ["x1"], "x1": [["1"]], "x2": [["x1"]], "x3": [[["0.5"]]]},
        },
        "velocity": {"u": ["x1^3 + 1"]},
        "checks": [check],
        "tolerances": {},
    }


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
    ("square-order1.json", ("bundle", "n"), 0, "bundle.n"),
    ("square-order1.json", ("bundle", "d"), 0, "bundle.d"),
    # Asymmetric away from the body box's centre (0.5, 0.5) only.
    ("covariance-quadratic.json", ("stress", "order2", "s2"),
     [[["0.5*x1", "x1 - 0.5"], [0, "1.0"]]], "stress.order2.s2: top block is not symmetric at ("),
    ("covariance-quadratic.json", ("covariance", "expect_noninvariant"), "no",
     "covariance.expect_noninvariant"),
    ("covariance-quadratic.json", ("covariance", "frame"), [[0.0]],
     "covariance: frame change is singular at ("),
    ("square-order1.json", ("geometry", "body_box"), [[0.0, 1.0], [0.5, 1.5]],
     "geometry.chart_box: the body reaches (1.0, 1.5), outside the chart box"),
    ("patched-metric.json", ("geometry", "patch"), ["x1 + 1.5", "x2 + 0.08*x1*x2"],
     "geometry.chart_box: the body reaches ("),
    # A key no object holds, one row per object of the key table.
    ("cube-order2.json", ("tolerance",), {"balance2": 1e-300},
     "tolerance: unknown key (did you mean 'tolerances'?)"),
    ("square-order1.json", ("bundle", "dim"), 2, "bundle.dim: unknown key"),
    ("cube-order2.json", ("geometry", "quad_ordr"), 3,
     "geometry.quad_ordr: unknown key (did you mean 'quad_order'?)"),
    ("cube-order2.json", ("stress", "ordr1"), {}, "stress.ordr1: unknown key (did you mean 'order1'?)"),
    ("square-order1.json", ("stress", "order1", "s_1"), [["0", "0"]],
     "stress.order1.s_1: unknown key (did you mean 's1'?)"),
    ("cube-order2.json", ("stress", "order2", "splt"), 0.5,
     "stress.order2.splt: unknown key (did you mean 'split'?)"),
    ("cube-order2.json", ("stress", "raw", "x4"), [["0"]], "stress.raw.x4: unknown key"),
    ("cube-order2.json", ("velocity", "uu"), ["x1"], "velocity.uu: unknown key (did you mean 'u'?)"),
    ("square-order1.json", ("velocity", "section"), {"a0": ["x1"], "a1": [["1", "0"]], "a_1": 0},
     "velocity.section.a_1: unknown key (did you mean 'a1'?)"),
    ("patched-metric.json", ("transversals", "x1-upper", "metrc"), [[1, 0], [0, 1]],
     "transversals.x1-upper.metrc: unknown key (did you mean 'metric'?)"),
    # Both known keys: neither reads as the other's leftover.
    ("patched-metric.json", ("transversals", "x1-upper", "metric"), [[1, 0], [0, 1]],
     "transversals.x1-upper: expected 'coordinate', a vector, or a metric"),
    ("covariance-quadratic.json", ("covariance", "sample"), [[0.5, 0.5]],
     "covariance.sample: unknown key (did you mean 'samples'?)"),
    ("disk-closed.json", ("closed_boundary", "transverse"), ["1", "0"],
     "closed_boundary.transverse: unknown key (did you mean 'transversal'?)"),
    ("square-order1.json", ("velocity", "u"), [{"monomials": [[[3, 0], 1.0]], "exr": "x1"}],
     "velocity.u[0].exr: unknown key (did you mean 'expr'?)"),
    ("square-order1.json", ("velocity", "u"), [{"monomials": [[[3, 0], 1.0]], "expr": "x1"}],
     "velocity.u[0]: component must be a number, string, or monomial table"),
    # 65 nodes fit the budget at n = 1; the per-axis cap refuses them.
    (_interval_doc("balance1"), ("geometry", "quad_order"), 65, "geometry.quad_order: order 65"),
]


@pytest.mark.parametrize(
    "fixture, path, value, key", MALFORMED_DOCUMENTS,
    ids=[f"{i}-{case[3]}" for i, case in enumerate(MALFORMED_DOCUMENTS)],
)
def test_malformed_document_exits_2_naming_the_key(tmp_path, capsys, fixture, path, value, key):
    doc = json.loads((SCENARIOS / fixture).read_text() if isinstance(fixture, str)
                     else json.dumps(fixture))
    target = doc
    for part in path[:-1]:
        target = target[part]
    target[path[-1]] = value
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(scenario)]) == 2
    assert f"error: {key}" in capsys.readouterr().err


def test_the_readme_names_the_keys_of_each_object():
    # The "Scenario files" table lists every object of the key table, and
    # for each the keys it may hold, none left out and none more.
    readme = (SCENARIOS.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Scenario files\n", 1)[1].split("\n## ", 1)[0]
    table = section.split("| Object | Keys |\n| --- | --- |\n", 1)[1].split("\n\n", 1)[0]
    listed = {}
    for row in table.splitlines():
        obj, keys = [cell.strip() for cell in row.strip("|").split("|")]
        listed["" if obj == "top level" else obj.strip("`")] = re.findall(r"`([^`]+)`", keys)
    assert {obj: sorted(keys) for obj, keys in listed.items()} == \
        {obj: sorted(keys) for obj, keys in scenarios._KEYS.items()}


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


LAYOUT_BLOCKS = [
    ("square-order1.json", ("stress", "order1"), VariationalStress1),
    ("covariance-quadratic.json", ("stress", "order2"), VariationalStress2),
    ("cube-order2.json", ("stress", "raw"), NonHolonomicStress),
    ("square-order1.json", ("velocity", "section"), JetSectionField),
]
MISSING_BLOCKS = [
    (fixture, path, record, name)
    for fixture, path, record in LAYOUT_BLOCKS for name, _ in record.LAYOUT
]


@pytest.mark.parametrize(
    "fixture, path, record, name", MISSING_BLOCKS,
    ids=[".".join(path + (name,)) for _, path, _, name in MISSING_BLOCKS],
)
def test_a_missing_layout_block_exits_2_naming_it(tmp_path, capsys, fixture, path, record, name):
    # No bundled document has a velocity.section: it gets zero blocks at the
    # shapes its LAYOUT declares.
    doc = json.loads((SCENARIOS / fixture).read_text())
    n, d = doc["bundle"]["n"], doc["bundle"]["d"]
    zeros = {key: np.zeros((d,) + (n,) * k).tolist() for key, k in record.LAYOUT}
    target = doc[path[0]].setdefault(path[1], zeros)
    del target[name]
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(scenario)]) == 2
    assert capsys.readouterr().err == f"error: {'.'.join(path)}.{name}: missing required key\n"


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


def test_the_patch_is_checked_at_the_order_in_use_only(tmp_path, capsys):
    # Order 7 puts nodes on the fold of the patch, order 10 does not.
    path = _patched_square(tmp_path, ["balance1"])
    doc = json.loads(path.read_text())
    doc["geometry"]["quad_order"] = 7
    path.write_text(json.dumps(doc))
    report = str(tmp_path / "r.jsonl")
    assert main(["run", "--scenario", str(path), "--report", report]) == 2
    assert capsys.readouterr().err.startswith("error: geometry.patch: ")
    assert main(["run", "--scenario", str(path), "--quad-order", "10", "--report", report]) == 0


@pytest.mark.parametrize("patch", [["x2", "x1"], ["1 - x1", "x2"]])
def test_a_patch_that_reverses_orientation_exits_2(tmp_path, capsys, patch):
    # Each patch maps the unit square onto itself with det -1: loaded, it
    # would flip the sign of every term of the balance, which still closes.
    doc = json.loads((SCENARIOS / "square-order1.json").read_text())
    doc["geometry"]["patch"] = patch
    doc["checks"] = ["balance1"]
    path = tmp_path / "reversed.json"
    path.write_text(json.dumps(doc))
    report = tmp_path / "r.jsonl"
    message = "body patch map reverses orientation at a quadrature node\n"
    assert main(["run", "--scenario", str(path), "--report", str(report)]) == 2
    assert capsys.readouterr().err == "error: geometry.patch: " + message
    assert main(["run", "--scenario", str(path), "--quad-order", "3", "--report", str(report)]) == 2
    assert capsys.readouterr().err == "error: --quad-order: " + message
    assert not report.exists()


def test_cauchy_on_a_patched_body_is_rejected_at_load(tmp_path):
    path = _patched_square(tmp_path, ["balance1", "cauchy"])
    with pytest.raises(ScenarioError, match="checks.cauchy"):
        load_scenario(path.read_text())


def _interval(tmp_path, check):
    path = tmp_path / "interval.json"
    path.write_text(json.dumps(_interval_doc(check)))
    return path


@pytest.mark.parametrize("check", ["balance2", "cauchy", "second-contraction"])
def test_a_check_that_needs_a_plane_rejects_an_interval_at_load(
    tmp_path, capsys, monkeypatch, check
):
    ran = []
    old = scenarios._CHECKS[check]
    monkeypatch.setitem(scenarios._CHECKS, check, scenarios._Check(
        old.tolerance, old.requires, lambda scenario: ran.append(check)))
    report = tmp_path / "r.jsonl"
    argv = ["run", "--scenario", str(_interval(tmp_path, check)), "--report", str(report)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: checks.{check}: needs a chart dimension n >= 2\n"
    assert not report.exists()
    assert ran == []


def test_balance1_runs_on_an_interval(tmp_path):
    # The boundary of [0, 1] is two point faces: sigma u = (1 + x1)(x1^3 + 1)
    # is 1 at x1 = 0 and 4 at x1 = 1, so the boundary power is 4 - 1.
    report = tmp_path / "r.jsonl"
    argv = ["run", "--scenario", str(_interval(tmp_path, "balance1")), "--report", str(report)]
    assert main(argv) == 0
    record = json.loads(report.read_text().splitlines()[0])
    assert record["check"] == "balance1" and record["pass"]
    assert record["terms"]["boundary"] == 3.0


def _order2_square_with_transversal(spec):
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
    doc["transversals"] = {"x1-upper": spec}
    return doc


def _square_with_velocity(u, checks=None):
    doc = json.loads((SCENARIOS / "square-order1.json").read_text())
    doc["velocity"]["u"] = u
    doc["checks"] = checks or doc["checks"]
    return doc


def _disk_with_velocity(u):
    doc = json.loads((SCENARIOS / "disk-closed.json").read_text())
    doc["velocity"]["u"] = u
    return doc


def _order2_square_with_velocity(u):
    # x1-upper's coordinate transversal pairs it with x1-lower in one pass.
    doc = _order2_square_with_transversal("coordinate")
    doc["velocity"]["u"] = u
    return doc


def _degenerate_corner_patch():
    # The patch's x2 slope is 5e-324 at x2 = 0, so the tangent of face
    # x1-lower vanishes at its corner node and its frame solve is singular.
    doc = generate_scenario(3, 2, 1, 2)
    doc["geometry"]["patch"] = ["1.0*x1", "5e-324*x2 + 1.0*x2^2"]
    doc["checks"] = ["balance1", "balance2"]
    return doc


EVALUATION_ERRORS = [
    (_square_with_velocity(["log(x1 - 2)"]), "checks.balance1: "),
    (_square_with_velocity(["1/(x1-x1)"]), "checks.balance1: "),
    (_order2_square_with_transversal({"vector": ["0", "1"]}), "checks.balance2: x1-upper: "),
    (_order2_square_with_transversal({"metric": [["0", "1"], ["1", "0"]]}),
     "transversals.x1-upper: "),
    (_degenerate_corner_patch(), "checks.balance2: x1-lower: "),
    (_order2_square_with_velocity(["log(1 - x1)"]), "checks.balance2: x1-upper: "),
    # Every face pass names the face of its failing node, as balance2's does.
    (_square_with_velocity(["log(1 - x1)"]), "checks.balance1: x1-upper: "),
    (_square_with_velocity(["log(1 - x1)"], ["cauchy"]), "checks.cauchy: x1-upper: "),
    (_disk_with_velocity(["log(x1 - 0.3)"]), "checks.stokes-closed: closed_boundary: "),
]


@pytest.mark.parametrize(
    "doc, prefix", EVALUATION_ERRORS,
    ids=["log-of-negative", "reciprocal-of-zero", "tangent-transversal", "indefinite-metric",
         "degenerate-corner", "upper-face-of-a-pair", "balance1-face", "cauchy-face",
         "closed-boundary"],
)
def test_evaluation_error_exits_2_naming_the_key(tmp_path, capsys, doc, prefix):
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps(doc))
    report = tmp_path / "report.jsonl"
    assert main(["run", "--scenario", str(scenario), "--report", str(report)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {prefix}")
    assert "Traceback" not in err
    assert not report.exists()


def test_a_degenerate_corner_patch_still_loads_and_runs_balance1(tmp_path):
    # balance1 solves no face frame, so the patch is not rejected at load:
    # balance1 alone passes on the same document.
    scenario = tmp_path / "corner.json"
    scenario.write_text(json.dumps(_degenerate_corner_patch()))
    report = tmp_path / "report.jsonl"
    argv = ["run", "--scenario", str(scenario), "--report", str(report), "--check", "balance1"]
    assert main(argv) == 0
    record = json.loads(report.read_text().splitlines()[0])
    assert record["check"] == "balance1" and record["residual"] == 0.0


def test_analytic_overflow_exits_2_naming_the_check(tmp_path, capsys):
    scenario = tmp_path / "overflow.json"
    scenario.write_text(json.dumps(_square_with_velocity(["exp(1000*x1)"])))
    report = tmp_path / "report.jsonl"
    assert main(["run", "--scenario", str(scenario), "--report", str(report)]) == 2
    assert capsys.readouterr().err == "error: checks.balance1: math range error\n"
    assert not report.exists()
    # A failed tolerance is still exit 1, not a keyed error.
    failing = str(SCENARIOS / "failing-tolerance.json")
    assert main(["run", "--scenario", failing, "--report", str(report)]) == 1


def test_an_overflow_in_a_face_pass_exits_2_naming_the_face(tmp_path, capsys):
    # exp(800*x1^50) overflows math.exp only near x1 = 1: the body's nodes
    # pass and the first node of x1-upper overflows, in balance1's and in
    # cauchy's face pass alike.
    scenario = tmp_path / "overflow.json"
    scenario.write_text(json.dumps(_square_with_velocity(["exp(800*x1^50)"])))
    report = tmp_path / "report.jsonl"
    for check in ("balance1", "cauchy"):
        argv = ["run", "--scenario", str(scenario), "--report", str(report), "--check", check]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: checks.{check}: x1-upper: math range error\n"
        assert not report.exists()


def test_a_non_finite_result_exits_2_and_writes_no_report(tmp_path, capfd, recwarn):
    # Finite literals whose product overflows: balance1's boundary term is
    # infinite, and cauchy, div-consistency and jet-oracle read NaN.
    scenario = tmp_path / "overflow.json"
    scenario.write_text(json.dumps(_square_with_velocity(["1e308*10*x1"])))
    report = tmp_path / "report.jsonl"
    assert main(["run", "--scenario", str(scenario), "--report", str(report)]) == 2
    captured = capfd.readouterr()
    assert captured.err == "error: checks.balance1: term 'boundary' is not finite\n"
    assert captured.out == ""
    assert not report.exists()
    # Without balance1 the first record in report order names its NaN term.
    # On x1 = 0 the kept zero of x1 times the infinite coefficient is NaN.
    checks = ["--check", "jet-oracle", "--check", "cauchy"]
    assert main(["run", "--scenario", str(scenario), "--report", str(report), *checks]) == 2
    assert capfd.readouterr().err == "error: checks.cauchy: term 'x1-lower' is not finite\n"
    assert not report.exists()
    assert not recwarn.list  # the oracle's inf - inf stays quiet


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_overflowing_law_prints_only_the_keyed_message(tmp_path, capfd):
    # The covariance laws overflow in their per-sample arithmetic, outside
    # any node batch; the run's stderr holds the keyed message alone.
    doc = json.loads((SCENARIOS / "covariance-quadratic.json").read_text(encoding="utf-8"))
    doc["stress"]["order2"]["s2"][0][1][1] = -1e308
    scenario = tmp_path / "overflow.json"
    scenario.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(scenario)]) == 2
    captured = capfd.readouterr()
    assert captured.err == "error: checks.covariance: term 'action2' is not finite\n"
    assert captured.out == ""


def test_report_lines_refuse_a_value_json_cannot_spell():
    scenario = load_fixture("square-order1.json")
    scenario.velocity = TensorField(SmoothField.constant(2, [math.nan]), (1,))
    report = run_checks(scenario, ["jet-oracle"])
    assert report.nonfinite() == "checks.jet-oracle: term 'max_gap' is not finite"
    with pytest.raises(ValueError, match="not JSON compliant"):
        report.lines()


def test_lambda_invariance_evaluates_each_leaf_block_once_per_batch(monkeypatch):
    # Three lifts share s0, s1, s2 and the velocity: each is evaluated once
    # per (order, batch of nodes), not once per split.
    scenario = load_fixture("cube-order2.json")
    stress = scenario.stress2
    calls = {}
    for name, field in [("s0", stress.s0.field), ("s1", stress.s1.field),
                        ("s2", stress.s2.field), ("u", scenario.velocity.field)]:
        def counted(point, order, name=name, evaluate=field._evaluator):
            if np.size(point[0]) > 1:
                key = (name, order, np.stack(point).tobytes())
                calls[key] = calls.get(key, 0) + 1
            return evaluate(point, order)

        monkeypatch.setattr(field, "_evaluator", counted)
    report = run_checks(scenario, ["lambda-invariance"])
    assert report.passed
    assert {name for name, _, _ in calls} == {"s0", "s1", "s2", "u"}
    assert set(calls.values()) == {1}


def test_second_contraction_zero_gap_stops_at_the_first_asymmetric_point(monkeypatch):
    # x3 is asymmetric by x1: within the 1e-12 symmetry tolerance at small x1.
    # The zero gap reads the points before the first asymmetric one (x1 =
    # 0.5), not the nearly symmetric point after it.
    doc = json.loads((SCENARIOS / "symmetric-contraction.json").read_text())
    doc["stress"]["raw"]["x3"] = [[["x1^2", "x1"], ["0", "x2^2 - 0.5"]]]
    scenario = load_scenario(doc)
    points = [(1e-13, 0.2), (5e-13, 0.4), (0.5, 0.5), (8e-13, 0.6)]
    monkeypatch.setattr(scenarios, "_sample_points", lambda scenario, count: points)
    record, = run_checks(scenario, ["second-contraction"]).records
    assert record.terms == {"oracle_gap": 0.0, "symmetric": 0.0, "zero_gap": 5e-13}
    assert record.residual == 0.0
    # With no asymmetric point, every point counts.
    del points[2]
    record, = run_checks(scenario, ["second-contraction"]).records
    assert record.terms == {"oracle_gap": 0.0, "symmetric": 1.0, "zero_gap": 8e-13}
    assert record.residual == 8e-13


def test_uncomputable_covariance_quantities_are_rejected_at_load():
    doc = json.loads((SCENARIOS / "covariance-quadratic.json").read_text())
    doc["covariance"]["quantities"] = ["action2"]
    del doc["velocity"]
    with pytest.raises(
        ScenarioError,
        match="covariance.quantities: no selected quantity is computable from the scenario blocks",
    ):
        load_scenario(doc)


def test_bad_box_bound_names_the_key_once(tmp_path, capsys):
    doc = json.loads((SCENARIOS / "square-order1.json").read_text())
    doc["geometry"]["chart_box"] = [["a", 1], [0, 1]]
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(scenario)]) == 2
    assert capsys.readouterr().err == "error: geometry.chart_box: expected a number, got 'a'\n"


# -- files that cannot be read or written ------------------------------------------


def test_unwritable_report_exits_2(tmp_path, capsys):
    report = tmp_path / "missing" / "r.jsonl"
    code = main(["run", "--scenario", str(SCENARIOS / "square-order1.json"),
                 "--report", str(report)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --report: ") and "Traceback" not in err


def test_unwritable_generate_output_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "g.json"
    assert main(["generate", "--seed", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --out: ") and "Traceback" not in err


def test_non_utf8_scenario_exits_2(tmp_path, capsys):
    scenario = tmp_path / "latin1.json"
    scenario.write_bytes('{"name": "café"}'.encode("latin-1"))
    assert main(["run", "--scenario", str(scenario)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: scenario: ") and "Traceback" not in err


# -- tolerances and numbers ------------------------------------------------------------


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0, -1e-300, True, False])
def test_bad_tolerance_in_the_file_exits_2(tmp_path, capsys, value):
    doc = json.loads((SCENARIOS / "square-order1.json").read_text())
    doc["tolerances"] = {"balance1": value}
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps(doc))
    report = tmp_path / "r.jsonl"
    assert main(["run", "--scenario", str(scenario), "--report", str(report)]) == 2
    assert capsys.readouterr().err.startswith("error: tolerances.balance1: ")
    assert not report.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "-0.5e-9"])
def test_bad_tolerance_override_exits_2(tmp_path, capsys, value):
    report = tmp_path / "r.jsonl"
    code = main(["run", "--scenario", str(SCENARIOS / "square-order1.json"),
                 "--tol-override", f"balance1={value}", "--report", str(report)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: --tol-override: bad value for 'balance1': {value!r}\n")
    assert not report.exists()


def test_zero_tolerance_is_accepted():
    doc = json.loads((SCENARIOS / "square-order1.json").read_text())
    doc["tolerances"] = {"balance1": 0}
    assert load_scenario(doc).tolerances["balance1"] == 0.0


@pytest.mark.parametrize("path, value, key", [
    (("geometry", "chart_box"), [[True, 1], [0, 1]], "geometry.chart_box"),
    (("geometry", "body_box"), [[0, float("inf")], [0, 1]], "geometry.body_box"),
    (("stress", "order2", "split"), True, "stress.order2.split"),
    (("stress", "order2", "split"), float("nan"), "stress.order2.split"),
    (("covariance", "samples"), [[0.5, float("nan")]], "covariance.samples[0]"),
])
def test_booleans_and_non_finite_numbers_are_rejected(path, value, key):
    doc = json.loads((SCENARIOS / "covariance-quadratic.json").read_text())
    target = doc
    for part in path[:-1]:
        target = target[part]
    target[path[-1]] = value
    with pytest.raises(ScenarioError, match=rf"^{re.escape(key)}: expected a number, got "):
        load_scenario(doc)


@pytest.mark.parametrize("spec, message", [
    (True, "velocity.u[0]: expected a number, got True"),
    (float("nan"), "velocity.u[0]: expected a number, got nan"),
    (float("inf"), "velocity.u[0]: expected a number, got inf"),
    ({"expr": float("-inf")}, "velocity.u[0]: expected a number, got -inf"),
    ({"monomials": [[[1, 0], float("nan")]]}, "velocity.u[0]: bad monomial entry [[1, 0], nan]"),
    ({"monomials": [[[1, 0], True]]}, "velocity.u[0]: bad monomial entry [[1, 0], True]"),
])
def test_constant_components_must_be_finite_numbers(tmp_path, capsys, spec, message):
    doc = json.loads((SCENARIOS / "square-order1.json").read_text())
    doc["velocity"]["u"] = [spec]
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps(doc))  # true, NaN, Infinity in the file
    report = tmp_path / "r.jsonl"
    assert main(["run", "--scenario", str(scenario), "--report", str(report)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not report.exists()


@pytest.mark.parametrize("table, message", [
    (3, "stress.order1.s0[0]: monomial table must be a list, got 3"),
    (None, "stress.order1.s0[0]: monomial table must be a list, got None"),
    ({"x": 1}, "stress.order1.s0[0]: monomial table must be a list, got {'x': 1}"),
    ([[[1.5, 0], 2.0]], "stress.order1.s0[0]: bad monomial entry [[1.5, 0], 2.0]"),
    ([[[True, 0], 2.0]], "stress.order1.s0[0]: bad monomial entry [[True, 0], 2.0]"),
    ([[[1, "2"], 2.0]], "stress.order1.s0[0]: bad monomial entry [[1, '2'], 2.0]"),
])
def test_a_bad_monomial_table_exits_2(tmp_path, capsys, table, message):
    doc = json.loads((SCENARIOS / "square-order1.json").read_text())
    doc["stress"]["order1"]["s0"] = [{"monomials": table}]
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps(doc))
    report = tmp_path / "r.jsonl"
    assert main(["run", "--scenario", str(scenario), "--report", str(report)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not report.exists()


def test_integral_float_exponents_read_as_integers(tmp_path):
    # As the expression grammar reads x1^2.0: the same report as exponent 2.
    reports = []
    for exps in ([2, 1], [2.0, 1.0]):
        doc = json.loads((SCENARIOS / "square-order1.json").read_text())
        doc["stress"]["order1"]["s0"] = [{"monomials": [[exps, 0.5], [[0, 0], 1.0]]}]
        scenario = tmp_path / "doc.json"
        scenario.write_text(json.dumps(doc))
        report = tmp_path / "r.jsonl"
        assert main(["run", "--scenario", str(scenario), "--report", str(report)]) == 0
        # The summary's scenario digest hashes the document, so it differs.
        reports.append(report.read_text().splitlines()[:-1])
    assert reports[0] == reports[1]


@pytest.mark.parametrize("spec, literal", [
    ("1e309*x1", "1e309"), ("x1 + 1e400", "1e400"), ("x1^2 - .5e999", ".5e999"),
])
def test_expression_literals_must_be_finite(tmp_path, capsys, spec, literal):
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps(_square_with_velocity([spec])))
    report = tmp_path / "r.jsonl"
    assert main(["run", "--scenario", str(scenario), "--report", str(report)]) == 2
    assert capsys.readouterr().err == (
        f"error: velocity.u[0]: numeric literal {literal!r} is not a finite number\n")
    assert not report.exists()


@pytest.mark.parametrize("spec", [
    "(" * 300 + "x1" + ")" * 300,
    "-" * 3000 + "x1",
    "x1" + "^1" * 3000,
    # Parses in a loop, into a tree 3000 levels deep.
    "+".join(["x1"] * 3000),
], ids=["parentheses", "signs", "exponents", "sum"])
def test_a_deeply_nested_expression_exits_2(tmp_path, capsys, spec):
    scenario = tmp_path / "deep.json"
    scenario.write_text(json.dumps(_square_with_velocity([spec])))
    report = tmp_path / "r.jsonl"
    assert main(["run", "--scenario", str(scenario), "--report", str(report)]) == 2
    assert capsys.readouterr().err == (
        f"error: velocity.u[0]: expression nested deeper than {MAX_DEPTH} levels\n")
    assert not report.exists()


def test_expressions_at_the_depth_limit_run(tmp_path):
    for spec in ["-" * (MAX_DEPTH - 1) + "x1", "+".join(["x1"] * MAX_DEPTH),
                 "(" * (MAX_DEPTH - 1) + "x1" + ")" * (MAX_DEPTH - 1)]:
        scenario = tmp_path / "deep.json"
        scenario.write_text(json.dumps(_square_with_velocity([spec])))
        report = tmp_path / "r.jsonl"
        assert main(["run", "--scenario", str(scenario), "--report", str(report)]) in (0, 1)


def test_a_duplicate_check_id_in_the_document_exits_2(tmp_path, capsys):
    doc = json.loads((SCENARIOS / "square-order1.json").read_text())
    doc["checks"] = ["balance1", "cauchy", "balance1"]
    scenario = tmp_path / "dup.json"
    scenario.write_text(json.dumps(doc))
    report = tmp_path / "r.jsonl"
    assert main(["run", "--scenario", str(scenario), "--report", str(report)]) == 2
    assert capsys.readouterr().err == "error: checks: duplicate check id 'balance1'\n"
    assert not report.exists()


def test_a_repeated_check_option_exits_2(tmp_path, capsys, monkeypatch):
    ran = []
    old = scenarios._CHECKS["cauchy"]
    monkeypatch.setitem(scenarios._CHECKS, "cauchy", scenarios._Check(
        old.tolerance, old.requires, lambda scenario: ran.append("cauchy")))
    report = tmp_path / "r.jsonl"
    argv = ["run", "--scenario", str(SCENARIOS / "square-order1.json"), "--report", str(report),
            "--check", "cauchy", "--check", "balance1", "--check", "balance1"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: checks: duplicate check id 'balance1'\n"
    assert not report.exists()
    assert ran == []  # the selection is checked before any check runs


def test_a_nan_transition_roundtrip_exits_2(tmp_path, capsys):
    # 1e308*10 overflows to infinity, and infinity minus itself is NaN.
    doc = json.loads((SCENARIOS / "covariance-quadratic.json").read_text())
    doc["covariance"]["inverse"][0] = "x1 - x2^2 + 1e308*10*x1 - 1e308*10*x1"
    scenario = tmp_path / "nan-inverse.json"
    scenario.write_text(json.dumps(doc))
    report = tmp_path / "r.jsonl"
    assert main(["run", "--scenario", str(scenario), "--report", str(report)]) == 2
    assert capsys.readouterr().err == (
        "error: covariance: transition roundtrip defect nan exceeds 1.0e-10\n")
    assert not report.exists()


@pytest.mark.parametrize("fixture, checks", [
    ("square-order1.json", ["cauchy", "div-consistency", "jet-oracle"]),
    ("covariance-quadratic.json", ["covariance"]),
])
def test_a_nan_velocity_fails_every_check_that_reads_it(fixture, checks):
    scenario = load_fixture(fixture)
    scenario.velocity = TensorField(SmoothField.constant(2, [math.nan]), (1,))
    report = run_checks(scenario, checks)
    assert {r.check_id: r.passed for r in report.records} == dict.fromkeys(checks, False)
    assert all(math.isnan(r.residual) for r in report.records)


def _no_gauss_nodes(monkeypatch):
    def refuse(order):
        raise AssertionError(f"Gauss nodes of order {order} were built")

    monkeypatch.setattr(geometry, "_gauss_1d", refuse)


def test_quad_order_over_the_node_budget_exits_2_before_any_node(tmp_path, capsys, monkeypatch):
    _no_gauss_nodes(monkeypatch)
    doc = json.loads((SCENARIOS / "patched-metric.json").read_text())
    doc["geometry"]["quad_order"] = 10**9
    scenario = tmp_path / "huge.json"
    scenario.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(scenario)]) == 2
    assert capsys.readouterr().err == (
        f"error: geometry.quad_order: 1000000000^2 nodes exceed the budget of "
        f"{geometry.NODE_BUDGET}\n")


@pytest.mark.parametrize("fixture", ["square-order1.json", "patched-metric.json"])
def test_quad_order_override_over_the_node_budget_exits_2(capsys, monkeypatch, fixture):
    _no_gauss_nodes(monkeypatch)
    code = main(["run", "--scenario", str(SCENARIOS / fixture), "--quad-order", "65"])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: --quad-order: 65^2 nodes exceed the budget of {geometry.NODE_BUDGET}\n")


def test_quad_order_override_over_the_per_axis_cap_exits_2(tmp_path, capsys, monkeypatch):
    # 65 nodes fit the budget at n = 1; the cap is the largest order a 2-dim
    # body admits, and is tested after the budget.
    _no_gauss_nodes(monkeypatch)
    path = _interval(tmp_path, "balance1")
    assert main(["run", "--scenario", str(path), "--quad-order", "65"]) == 2
    assert capsys.readouterr().err == (
        "error: --quad-order: order 65 exceeds the per-axis cap of 64\n")


def test_node_budget_admits_order_16_in_three_dimensions():
    geometry.QuadratureRule(16).check_budget(3)
    geometry.QuadratureRule(64).check_budget(2)
    geometry.QuadratureRule(64).check_budget(1)
    with pytest.raises(ValueError, match="order 65 exceeds the per-axis cap of 64"):
        geometry.QuadratureRule(65).check_budget(1)
    with pytest.raises(ValueError, match="17\\^3 nodes exceed"):
        geometry.QuadratureRule(17).check_budget(3)
