"""Checks on a body carried into the chart by a nonlinear patch."""

import json
import random
from pathlib import Path

import numpy as np
import pytest

from jetstress.scenarios import _sample_points, generate_scenario, load_scenario, run_checks

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

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


# The pointwise checks draw their samples in the body box and read them at
# their images under the patch (``scenarios._sample_points``), so on this
# body they read the velocity where it is defined, as balance1 does.
@pytest.mark.parametrize("check", ["balance1", "div-consistency", "jet-oracle"])
def test_every_check_reads_a_far_patched_body_in_the_chart(check):
    [record] = run_checks(load_scenario(FAR_PATCH), [check]).records
    assert np.isfinite(record.residual)


def _draws(box, count):
    """``count`` points uniform in ``box`` from the seed 12345: the sample
    points of a body as they were drawn before patches were read."""
    rng = random.Random(12345)
    return [tuple(rng.uniform(lo, hi) for lo, hi in zip(box.lower, box.upper))
            for _ in range(count)]


def _bits(points):
    return [[value.hex() for value in point] for point in points]


@pytest.mark.parametrize("doc", [
    pytest.param(json.loads((SCENARIOS / "patched-metric.json").read_text(encoding="utf-8")),
                 id="patched-metric"),
    pytest.param(FAR_PATCH, id="far-patch"),
])
def test_sample_points_are_the_patch_images_of_body_box_draws(doc):
    # One point read of the patch per draw: the images a batched read must
    # give, bit for bit.
    body = load_scenario(doc).body
    want = [tuple(body.patch.values_at(point)) for point in _draws(body.box, 20)]
    assert _bits(_sample_points(load_scenario(doc), 20)) == _bits(want)
    assert _bits(want) != _bits(_draws(body.box, 20))


def test_an_unpatched_body_samples_its_draws():
    scenario = load_scenario(generate_scenario(3, 3, 2, 4))
    assert scenario.body.patch is None
    assert _bits(_sample_points(scenario, 20)) == _bits(_draws(scenario.body.box, 20))
