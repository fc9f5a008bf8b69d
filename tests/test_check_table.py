"""The check catalogue: per-id requirements, one run per identity, tracer ids."""

import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

import jetstress.balance
import jetstress.scenarios
from jetstress.balance import verify_balance_order2
from jetstress.cli import main
from jetstress.geometry import QuadratureRule
from jetstress.scenarios import (
    CHECK_IDS, DEFAULT_TOLERANCES, generate_scenario, load_scenario, run_checks,
)
from jetstress.stress import verify_balance_order1

REPO = Path(__file__).resolve().parents[1]
SCENARIOS = REPO / "scenarios"


def _bare_document(checks):
    """A valid n=2, d=1 unit-square document with no stress, velocity or extras."""
    return {
        "schema": "jetstress-scenario/1",
        "bundle": {"n": 2, "d": 1},
        "geometry": {"chart_box": [[0.0, 1.0], [0.0, 1.0]],
                     "body_box": [[0.0, 1.0], [0.0, 1.0]]},
        "checks": checks,
    }


# Each check id in a document without the block it needs first.
FIRST_NEED = {
    "balance1": "checks.balance1: needs a stress.order1 block",
    "balance2": "checks.balance2: needs a stress 'raw' or 'order2' block",
    "cauchy": "checks.cauchy: needs a stress.order1 block",
    "covariance": "checks.covariance: needs a covariance block",
    "div-consistency": "checks.div-consistency: needs a stress.order1 block",
    "jet-oracle": "checks.jet-oracle: needs a velocity.u block",
    "lambda-invariance": "checks.lambda-invariance: needs a stress.order2 block",
    "second-contraction": "checks.second-contraction: needs a stress 'raw' or 'order2' block",
    "stokes-closed": "checks.stokes-closed: needs a stress 'raw' or 'order2' block",
}


def _exits_2_with(tmp_path, capsys, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    report = tmp_path / "report.jsonl"
    assert main(["run", "--scenario", str(path), "--report", str(report)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not report.exists()


def test_first_need_covers_every_check_id():
    assert sorted(FIRST_NEED) == sorted(CHECK_IDS)


@pytest.mark.parametrize("cid", sorted(FIRST_NEED))
def test_check_without_its_first_block_exits_2(tmp_path, capsys, cid):
    _exits_2_with(tmp_path, capsys, _bare_document([cid]), FIRST_NEED[cid])


_ORDER1 = {"s0": ["x1"], "s1": [["x2", "x1"]]}
_RAW = {"x0": ["x1"], "x1": [["x2", "1"]], "x2": [["x1", "0"]],
        "x3": [[["x1", "x2"], ["x2", "1"]]]}
_COVARIANCE = {"forward": ["x1 + x2^2", "x2"], "inverse": ["x1 - x2^2", "x2"],
               "samples": [[0.5, 0.5]]}

# The other requirements: later needs with the earlier ones met, and the
# box-body rule of cauchy, which fires before its needs.
LATER_NEEDS = [
    ("balance1", {"stress": {"order1": _ORDER1}},
     "checks.balance1: needs a velocity.u block"),
    ("stokes-closed", {"stress": {"raw": _RAW}},
     "checks.stokes-closed: needs a velocity.u block"),
    ("stokes-closed", {"stress": {"raw": _RAW}, "velocity": {"u": ["x1"]}},
     "checks.stokes-closed: needs a closed_boundary block"),
    ("covariance", {"covariance": _COVARIANCE},
     "checks.covariance: needs an order1 or order2 stress block"),
    ("cauchy", {"geometry": {"chart_box": [[-1.0, 2.0], [-1.0, 2.0]],
                             "body_box": [[0.0, 1.0], [0.0, 1.0]],
                             "patch": ["x1 + 0.1*x2^2", "x2"]}},
     "checks.cauchy: implemented for box bodies only"),
]


@pytest.mark.parametrize(
    "cid, blocks, message", LATER_NEEDS,
    ids=[f"{i}-{case[0]}" for i, case in enumerate(LATER_NEEDS)],
)
def test_later_requirement_exits_2(tmp_path, capsys, cid, blocks, message):
    doc = _bare_document([cid])
    doc.update(blocks)
    _exits_2_with(tmp_path, capsys, doc, message)


def test_requirements_fire_in_the_order_of_the_checks_list(tmp_path, capsys):
    doc = _bare_document(["jet-oracle", "balance1", "covariance"])
    _exits_2_with(tmp_path, capsys, doc, FIRST_NEED["jet-oracle"])


def test_balance2_integrates_the_interior_power_once(monkeypatch):
    original = jetstress.balance.nh_action_form
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(jetstress.balance, "nh_action_form", counting)
    monkeypatch.setattr(jetstress.scenarios, "nh_action_form", counting)
    scenario = load_scenario((SCENARIOS / "cube-order2.json").read_text())
    run_checks(scenario, ["balance2"])
    assert len(calls) == 1


# Every bundled document that configures a balance (malformed.json does not
# load), and generated n = 3 and n = 4 documents, which configure both.
BALANCE_DOCUMENTS = {
    path.name: path.read_text() for path in SCENARIOS.glob("*.json")
    if path.name != "malformed.json"
    and {"balance1", "balance2"} & set(json.loads(path.read_text())["checks"])
}
BALANCE_DOCUMENTS.update(generated_n3=generate_scenario(3, 3, 1, 2),
                         generated_n4=generate_scenario(3, 4, 1, 2))


def _hex(terms, residual):
    return {key: value.hex() for key, value in terms.items()}, residual.hex()


@pytest.mark.parametrize("name", sorted(BALANCE_DOCUMENTS))
def test_a_balance_record_holds_the_routine_result_and_the_scenario_tolerance(name):
    scenario = load_scenario(BALANCE_DOCUMENTS[name])
    rule = QuadratureRule(scenario.quad_order)
    direct = {
        "balance1": lambda: verify_balance_order1(
            scenario.stress1, scenario.velocity, scenario.body, rule),
        "balance2": lambda: verify_balance_order2(
            scenario.nh_stress, scenario.velocity, scenario.body, scenario.transversals, rule),
    }
    cids = [cid for cid in scenario.checks if cid in direct]
    assert cids
    for i, cid in enumerate(cids):
        scenario.tolerances[cid] = 0.125 * (i + 1)
    for record in run_checks(scenario, cids).records:
        assert _hex(record.terms, record.residual) == _hex(*direct[record.check_id]())
        assert record.tolerance == scenario.tolerances[record.check_id]


def test_tracer_spans_match_the_check_ids():
    # The benchmark tracer names one span per check id; a check missing from
    # its list would run untimed.
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", REPO / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert sorted(jetstress.scenarios.CHECK_IDS) == sorted(tracing.CHECK_IDS)


def _perfbench_module(name, monkeypatch):
    """``perfbench/<name>.py``, loaded from its file; its sibling modules are
    imported from the ``perfbench`` directory."""
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    path = REPO / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["quad-poly", "pointwise-n2", "curved-analytic"])
def test_a_traced_pass_reaches_every_required_layer(monkeypatch, tmp_path, capsys, workload):
    # The benchmark's traced run fails when a layer it requires reads zero; a
    # change that stops calling a probed function (say, the last caller of
    # ``compose`` on a workload) would otherwise show only there.
    run = _perfbench_module("run", monkeypatch)
    result = json.loads(run.traced(workload, 3, tmp_path / "work", tmp_path / "out"))
    assert result["correct"]
    metrics = result["metrics"]
    assert [name for name in run.REQUIRED_NONZERO[workload] if not metrics[name]["value"]] == []


def test_the_readme_claim_table_lists_every_check_id_in_order():
    # The rows of the claim table under "Check ids", by their first cell.
    section = (REPO / "README.md").read_text(encoding="utf-8").split("\n### Check ids\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    assert [row.split("`")[1] for row in rows] == list(CHECK_IDS)


def test_the_readme_claim_table_gives_each_check_id_its_default_tolerance():
    # The "Default tolerance" column of the claim table, row by row.
    section = (REPO / "README.md").read_text(encoding="utf-8").split("\n### Check ids\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    table = [line for line in section.splitlines() if line.startswith("| ")]
    cells = [[cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1]] for line in table]
    column = cells[0].index("Default tolerance")
    listed = {row[0].strip("`"): float(row[column].strip("`")) for row in cells[2:]}
    assert list(listed) == list(CHECK_IDS)
    assert listed == DEFAULT_TOLERANCES
