"""Checks on a body carried into the chart by a nonlinear patch."""

from jetstress.scenarios import load_scenario, run_checks

PATCHED_ORDER2 = {
    "schema": "jetstress-scenario/1",
    "bundle": {"n": 2, "d": 1},
    "geometry": {
        "chart_box": [[-1.0, 2.0], [-1.0, 2.0]],
        "body_box": [[0.0, 1.0], [0.0, 1.0]],
        "patch": ["x1 + 0.1*x2^2", "x2"],
        "quad_order": 6,
    },
    "stress": {
        "order2": {
            "s0": ["1 + x2"],
            "s1": [["x1", "x1*x2"]],
            "s2": [[["1", "x2"], ["x2", "2"]]],
        }
    },
    "velocity": {"u": ["x1^2 + x2"]},
    "checks": ["balance2", "lambda-invariance"],
}


def test_lambda_invariance_integrates_over_the_patched_body():
    # balance2 lifts the stress at split 1, so both checks integrate the same
    # interior power; both must pull it back through the patch.
    report = run_checks(load_scenario(PATCHED_ORDER2))
    by_id = {r.check_id: r for r in report.records}
    assert report.passed
    lhs = by_id["balance2"].terms["lhs"]
    assert abs(by_id["lambda-invariance"].terms["split_1"] - lhs) <= 1e-13 * abs(lhs)
