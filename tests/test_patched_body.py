"""Checks on a body carried into the chart by a nonlinear patch."""

import numpy as np
import pytest

from jetstress.scenarios import ScenarioError, load_scenario, run_checks

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


# The patch carries the body box [0, 1]^2 to near [5, 6]^2, where
# log(x1 - 4.9) is defined; on the body box itself it is not.
FAR_PATCH = {
    "schema": "jetstress-scenario/1",
    "bundle": {"n": 2, "d": 1},
    "geometry": {
        "chart_box": [[5.0, 6.5], [5.0, 6.5]],
        "body_box": [[0.0, 1.0], [0.0, 1.0]],
        "patch": ["5 + x1", "5 + x2 + 0.1*x1^2"],
        "quad_order": 4,
    },
    "stress": {"order1": {"s0": ["x1"], "s1": [["x2", "x1*x2"]]}},
    "velocity": {"u": ["log(x1 - 4.9)"]},
    "checks": ["balance1", "div-consistency", "jet-oracle"],
}


# A known fault: the pointwise checks draw their samples from the body box
# as if it were chart coordinates (``scenarios._sample_points``), so on this
# body they read the velocity where it is undefined and stop with its error.
SAMPLES_THE_REFERENCE_BOX = pytest.mark.xfail(
    strict=True, raises=ScenarioError,
    reason="the pointwise checks sample the body box, not its image in the chart")


@pytest.mark.parametrize("check", [
    "balance1",
    pytest.param("div-consistency", marks=SAMPLES_THE_REFERENCE_BOX),
    pytest.param("jet-oracle", marks=SAMPLES_THE_REFERENCE_BOX),
])
def test_every_check_reads_a_far_patched_body_in_the_chart(check):
    [record] = run_checks(load_scenario(FAR_PATCH), [check]).records
    assert np.isfinite(record.residual)
