"""Chart/frame transformation laws and the contraction non-invariance result."""

import collections
import itertools
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetstress import covariance, scenarios
from jetstress.cli import main
from jetstress.covariance import FrameChange, invariance_check
from oracles import (
    from_polynomials,
    predicted_contraction_defect,
    pullback_form_value,
    transform_jet2,
    transform_stress1,
    transform_stress2,
    transformed_velocity_field,
)
from jetstress.fields import JetValue, SmoothField, TensorField, jet_extension
from jetstress.geometry import FormValue
from jetstress.nonholonomic import VariationalStress2
from jetstress.scenarios import generate_scenario, load_scenario, run_checks
from jetstress.stress import VariationalStress1


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def tensor_poly(dim, shape, tables):
    return TensorField(from_polynomials(dim, tables), shape)


def tensor_const(dim, shape, values):
    flat = np.asarray(values, dtype=float).reshape(-1)
    return TensorField(SmoothField.constant(dim, list(flat)), shape)


def random_poly_table(rng, n, degree, nterms=3):
    pool = [e for e in itertools.product(range(degree + 1), repeat=n) if sum(e) <= degree]
    return [(rng.choice(pool), rng.uniform(-1, 1)) for _ in range(nterms)]


# A transition is its (forward, inverse) pair of maps.
def identity_transition(n):
    coords = [f"x{i+1}" for i in range(n)]
    return SmoothField.from_expressions(n, coords), SmoothField.from_expressions(n, coords)


def quadratic_transition():
    forward = SmoothField.from_expressions(2, ["x1 + x2^2", "x2"])
    inverse = SmoothField.from_expressions(2, ["x1 - x2^2", "x2"])
    return forward, inverse


def affine_transition():
    forward = SmoothField.from_expressions(2, ["2*x1 + 0.5*x2 + 0.1", "x2 - 0.3*x1"])
    # Inverse of [[2, .5], [-.3, 1]]: det = 2.15.
    det = 2.0 * 1.0 - 0.5 * (-0.3)
    a, b, c, d = 1.0 / det, -0.5 / det, 0.3 / det, 2.0 / det
    inverse = SmoothField.from_expressions(
        2,
        [f"{a}*(x1 - 0.1) + {b}*x2", f"{c}*(x1 - 0.1) + {d}*x2"],
    )
    return forward, inverse


def scaling_transition_1d(factor):
    return (
        SmoothField.from_expressions(1, [f"{factor}*x1"]),
        SmoothField.from_expressions(1, [f"{1.0/factor}*x1"]),
    )


SAMPLES_2D = [(0.2, 0.3), (0.5, 0.7), (0.8, 0.4), (0.35, 0.9)]


def test_transition_roundtrip_validation():
    forward, inverse = quadratic_transition()
    changes = FrameChange(forward, inverse, 1).at_points(SAMPLES_2D)
    assert [pc.x for pc in changes] == SAMPLES_2D
    assert max(np.max(np.abs(inverse.values_at(pc.xp) - pc.x)) for pc in changes) < 1e-12
    bad = FrameChange(
        SmoothField.from_expressions(2, ["x1 + x2^2", "x2"]),
        SmoothField.from_expressions(2, ["x1", "x2"]),
        1,
    )
    with pytest.raises(ValueError, match="roundtrip defect"):
        bad.at_points(SAMPLES_2D)


def test_jet_transform_linear_rescaling():
    # x' = 2x with trivial frame: derivatives scale by 1/2 and 1/4.
    change = FrameChange(*scaling_transition_1d(2.0), 1)
    u = tensor_poly(1, (1,), [[((2,), 1.0), ((1,), 0.5)]])
    x = (0.6,)
    jet = jet_extension(u.field, x, 2)
    primed = transform_jet2(jet, change, x)
    assert primed.array(0)[0] == pytest.approx(jet.array(0)[0])
    assert primed.array(1)[0, 0] == pytest.approx(0.5 * jet.array(1)[0, 0])
    assert primed.array(2)[0, 0, 0] == pytest.approx(0.25 * jet.array(2)[0, 0, 0])


def test_jet_transform_identity_change():
    change = FrameChange(*identity_transition(2), 2)
    rng = random.Random(5)
    u = tensor_poly(2, (2,), [random_poly_table(rng, 2, 3) for _ in range(2)])
    x = (0.4, 0.7)
    jet = jet_extension(u.field, x, 2)
    primed = transform_jet2(jet, change, x)
    for p in range(3):
        assert np.allclose(primed.array(p), jet.array(p), atol=1e-14)


def test_jet_transform_frame_multiplication():
    # Identity chart, frame A = x1 in one dimension: (Au)' = u + x u'.
    frame = tensor_poly(1, (1, 1), [[((1,), 1.0)]])
    change = FrameChange(*identity_transition(1), 1, frame)
    u = tensor_poly(1, (1,), [[((2,), 1.0)]])
    x = (0.8,)
    jet = jet_extension(u.field, x, 2)
    primed = transform_jet2(jet, change, x)
    uval, du = jet.array(0)[0], jet.array(1)[0, 0]
    assert primed.array(1)[0, 0] == pytest.approx(uval + x[0] * du)


def test_jet_transform_matches_composed_field_oracle():
    # Two routes: chain rule arrays versus direct jets of the composed field.
    rng = random.Random(11)
    frame = tensor_poly(
        2, (2, 2),
        [[((0, 0), 1.0), ((1, 0), 0.3)], [((0, 1), 0.1)],
         [((0, 0), 0.0)], [((0, 0), 1.0), ((1, 0), -0.2)]],
    )
    for trans in (quadratic_transition(), affine_transition()):
        change = FrameChange(*trans, 2, frame)
        u = tensor_poly(2, (2,), [random_poly_table(rng, 2, 3) for _ in range(2)])
        uprime = transformed_velocity_field(u, change)
        for x in SAMPLES_2D:
            xp = tuple(change.forward.values_at(x))
            via_chain_rule = transform_jet2(jet_extension(u.field, x, 2), change, x)
            direct = jet_extension(uprime.field, xp, 2)
            for p in range(3):
                assert np.max(np.abs(via_chain_rule.array(p) - direct.array(p))) < 1e-11


def test_singularity_rejected():
    change = FrameChange(
        SmoothField.from_expressions(1, ["x1*x1"]),
        SmoothField.from_expressions(1, ["x1"]),
        1,
    )
    u = tensor_poly(1, (1,), [[((1,), 1.0)]])
    with pytest.raises(ValueError):
        transform_jet2(jet_extension(u.field, (0.0,), 2), change, (0.0,))


def random_stress2_primed(rng, n, d, degree):
    s2_raw = [random_poly_table(rng, n, degree) for _ in range(d * n * n)]
    raw = tensor_poly(n, (d, n, n), s2_raw)

    def sym_eval(point, order):
        series = raw.field.series_at(point, order)
        out = []
        for alpha in range(d):
            for i in range(n):
                for j in range(n):
                    a = series[(alpha * n + i) * n + j]
                    b = series[(alpha * n + j) * n + i]
                    out.append((a + b) * 0.5)
        return out

    return VariationalStress2(
        tensor_poly(n, (d,), [random_poly_table(rng, n, degree) for _ in range(d)]),
        tensor_poly(n, (d, n), [random_poly_table(rng, n, degree) for _ in range(d * n)]),
        TensorField(SmoothField(n, d * n * n, sym_eval), (d, n, n)),
    )


def test_stress2_identity_change_is_identity():
    rng = random.Random(13)
    change = FrameChange(*identity_transition(2), 1)
    primed = random_stress2_primed(rng, 2, 1, 2)
    for x in SAMPLES_2D:
        s0, s1, s2 = transform_stress2(primed, change, x)
        assert np.allclose(s0, primed.s0.at(x), atol=1e-13)
        assert np.allclose(s1, primed.s1.at(x), atol=1e-13)
        assert np.allclose(s2, primed.s2.at(x), atol=1e-13)


def test_stress2_uniform_scaling_cancellation():
    # x' = 2x in the plane with identity frame: the volume factor 4 cancels
    # the two 1/2 inverse-Jacobian factors on the top block.
    forward = SmoothField.from_expressions(2, ["2*x1", "2*x2"])
    inverse = SmoothField.from_expressions(2, ["0.5*x1", "0.5*x2"])
    change = FrameChange(forward, inverse, 1)
    rng = random.Random(17)
    primed = random_stress2_primed(rng, 2, 1, 2)
    for x in SAMPLES_2D:
        xp = tuple(change.forward.values_at(x))
        _, _, s2 = transform_stress2(primed, change, x)
        assert np.allclose(s2, primed.s2.at(xp), atol=1e-12)


def test_stress1_affine_weight():
    # Affine chart, constant frame: the gradient block transforms tensorially
    # with the volume weight.
    rng = random.Random(19)
    change = FrameChange(*affine_transition(), 1)
    primed = VariationalStress1(
        tensor_poly(2, (1,), [random_poly_table(rng, 2, 2)]),
        tensor_poly(2, (1, 2), [random_poly_table(rng, 2, 2) for _ in range(2)]),
    )
    x = (0.3, 0.5)
    xp = tuple(change.forward.values_at(x))
    jac_det = np.linalg.det(jet_extension(change.forward, x, 1).array(1))
    dx = jet_extension(change.inverse, xp, 2).array(1)
    _, s1 = transform_stress1(primed, change, x)
    expected = jac_det * np.einsum("BI,iI->Bi", primed.s1.at(xp), dx)
    assert np.allclose(s1, expected, atol=1e-13)


def test_action_invariance_order1_and_order2():
    rng = random.Random(23)
    frame = tensor_poly(
        2, (2, 2),
        [[((0, 0), 1.0), ((1, 0), 0.2)], [((0, 1), 0.1)],
         [((0, 0), 0.0), ((1, 1), 0.05)], [((0, 0), 1.0), ((0, 1), -0.15)]],
    )
    velocity = tensor_poly(2, (2,), [random_poly_table(rng, 2, 3) for _ in range(2)])
    for trans in (affine_transition(), quadratic_transition()):
        change = FrameChange(*trans, 2, frame)
        primed1 = VariationalStress1(
            tensor_poly(2, (2,), [random_poly_table(rng, 2, 2) for _ in range(2)]),
            tensor_poly(2, (2, 2), [random_poly_table(rng, 2, 2) for _ in range(4)]),
        )
        result1 = invariance_check(
            ["action1"], change.at_points(SAMPLES_2D), primed_stress1=primed1, velocity=velocity
        )
        assert result1["action1"] < 1e-11
        primed2 = random_stress2_primed(rng, 2, 2, 2)
        result2 = invariance_check(
            ["action2"], change.at_points(SAMPLES_2D), primed_stress2=primed2, velocity=velocity
        )
        assert result2["action2"] < 1e-11
        traction = invariance_check(
            ["traction1"], change.at_points(SAMPLES_2D), primed_stress1=primed1, velocity=velocity
        )
        assert traction["traction1"] < 1e-11


def test_naive_contraction_affine_invariant():
    rng = random.Random(29)
    primed = random_stress2_primed(rng, 2, 1, 2)
    # Identity frame, then a constant non-trivial frame: the extra term needs
    # either frame derivatives or chart curvature, so both stay invariant.
    for frame in (None, tensor_const(2, (1, 1), [1.7])):
        change = FrameChange(*affine_transition(), 1, frame)
        result = invariance_check(
            ["naive-contraction"], change.at_points(SAMPLES_2D), primed_stress2=primed
        )
        assert result["naive_magnitude"] < 1e-11
        assert result["vertical_invariance"] < 1e-11


def test_naive_contraction_quadratic_defect_matches_prediction():
    # The quadratic chart bends the first-order block: the defect is visible
    # and coincides with the predicted extra term; the vector block and the
    # full action stay invariant under the same change.
    rng = random.Random(31)
    change = FrameChange(*quadratic_transition(), 1)
    primed = random_stress2_primed(rng, 2, 1, 2)
    result = invariance_check(
        ["naive-contraction"], change.at_points(SAMPLES_2D), primed_stress2=primed
    )
    assert result["naive_magnitude"] > 1e-3
    assert result["naive_match_defect"] < 1e-10
    assert result["vertical_invariance"] < 1e-11


def test_predicted_defect_hand_value():
    # Identity frame, quadratic chart: only the second-derivative term of the
    # inverse survives: defect[i] = J * s2'[I J] x^i_{,I J}; here
    # x1_{,2'2'} = -2 and J = 1, so defect[0] = -2 * s2'[1, 1].
    change = FrameChange(*quadratic_transition(), 1)
    s2_vals = np.array([[[0.7, 0.2], [0.2, 1.3]]])
    primed = VariationalStress2(
        tensor_const(2, (1,), [0.0]),
        tensor_const(2, (1, 2), np.zeros((1, 2))),
        tensor_const(2, (1, 2, 2), s2_vals),
    )
    x = (0.4, 0.6)
    defect = predicted_contraction_defect(primed, change, x)
    assert defect[0, 0] == pytest.approx(-2.0 * 1.3)
    assert defect[0, 1] == pytest.approx(0.0)


QUANTITIES = ("action1", "action2", "traction1", "naive-contraction")


def counted(field, name, counts):
    """The same smooth field, counting every evaluation under ``name``."""

    def evaluator(point, order):
        counts[name] += 1
        return field.series_at(point, order)

    return SmoothField(field.dim, field.ncomp, evaluator)


def counted_tensor(tensor, name, counts):
    return TensorField(counted(tensor.field, name, counts), tensor.shape)


@pytest.mark.parametrize("quantity", QUANTITIES)
def test_invariance_check_evaluates_each_jet_once_per_sample(quantity):
    counts = collections.Counter()
    rng = random.Random(37)
    forward, inverse = quadratic_transition()
    frame = tensor_poly(
        2, (2, 2),
        [[((0, 0), 1.0), ((1, 0), 0.2)], [((0, 1), 0.1)],
         [((0, 0), 0.0), ((1, 1), 0.05)], [((0, 0), 1.0), ((0, 1), -0.15)]],
    )
    change = FrameChange(
        counted(forward, "forward", counts), counted(inverse, "inverse", counts), 2,
        counted_tensor(frame, "frame", counts),
    )
    velocity = counted_tensor(
        tensor_poly(2, (2,), [random_poly_table(rng, 2, 3) for _ in range(2)]),
        "velocity", counts,
    )
    plain1 = VariationalStress1(
        tensor_poly(2, (2,), [random_poly_table(rng, 2, 2) for _ in range(2)]),
        tensor_poly(2, (2, 2), [random_poly_table(rng, 2, 2) for _ in range(4)]),
    )
    plain2 = random_stress2_primed(rng, 2, 2, 2)
    primed1 = VariationalStress1(
        counted_tensor(plain1.s0, "1.s0", counts), counted_tensor(plain1.s1, "1.s1", counts)
    )
    primed2 = VariationalStress2(
        counted_tensor(plain2.s0, "2.s0", counts),
        counted_tensor(plain2.s1, "2.s1", counts),
        counted_tensor(plain2.s2, "2.s2", counts),
    )
    counts.clear()
    invariance_check(
        [quantity], change.at_points(SAMPLES_2D),
        primed_stress1=primed1, primed_stress2=primed2, velocity=velocity,
    )
    # One read of each field serves every sample of the check.
    order, paired = covariance.QUANTITIES[quantity].order, covariance.QUANTITIES[quantity].paired
    blocks = {1: {"1.s0", "1.s1"}, 2: {"2.s0", "2.s1", "2.s2"}}[order]
    assert set(counts) == {"forward", "inverse", "frame"} | blocks | ({"velocity"} if paired else set())
    assert set(counts.values()) == {1}, dict(counts)


def test_covariance_check_reads_each_sample_once_for_every_quantity(monkeypatch):
    # Every quantity runs at once here, so the two stresses and the velocity
    # could each be read once per quantity, or once per sample; one pass
    # reads each field once for the whole check, and the frame change is
    # read once, at load.
    counts = collections.Counter()
    frame_change_at_points = FrameChange.at_points

    def counted_at_points(change, points):
        counts["FrameChange.at_points"] += 1
        return frame_change_at_points(change, points)

    monkeypatch.setattr(FrameChange, "at_points", counted_at_points)
    scenario = load_scenario(generate_scenario(3, 2, 2, 3))
    assert counts.pop("FrameChange.at_points") == 1
    s1, s2 = scenario.stress1, scenario.stress2
    scenario.stress1 = VariationalStress1(
        counted_tensor(s1.s0, "1.s0", counts), counted_tensor(s1.s1, "1.s1", counts)
    )
    scenario.stress2 = VariationalStress2(
        counted_tensor(s2.s0, "2.s0", counts),
        counted_tensor(s2.s1, "2.s1", counts),
        counted_tensor(s2.s2, "2.s2", counts),
    )
    scenario.velocity = counted_tensor(scenario.velocity, "velocity", counts)
    record, = run_checks(scenario, ["covariance"]).records
    assert list(record.terms) == [
        "action1", "traction1", "action2",
        "naive_magnitude", "naive_match_defect", "vertical_invariance",
    ]
    assert len(scenario.point_changes) > 1
    assert set(counts) == {"1.s0", "1.s1", "2.s0", "2.s1", "2.s2", "velocity"}
    assert set(counts.values()) == {1}, dict(counts)


def test_a_covariance_run_reads_the_forward_map_once(monkeypatch, tmp_path):
    # Loading tests the chart change and the check uses it: one read of the
    # forward map over the samples serves both.
    counts = collections.Counter()
    parse_tensor = scenarios.parse_tensor

    def counted_parse(specs, dim, shape, key):
        tensor = parse_tensor(specs, dim, shape, key)
        return counted_tensor(tensor, key, counts) if key == "covariance.forward" else tensor

    monkeypatch.setattr(scenarios, "parse_tensor", counted_parse)
    report = tmp_path / "r.jsonl"
    assert main(["run", "--scenario", str(SCENARIOS / "covariance-quadratic.json"),
                 "--report", str(report)]) == 0
    assert counts == {"covariance.forward": 1}


def _batch_inputs():
    rng = random.Random(53)
    frame = tensor_poly(
        2, (2, 2),
        [[((0, 0), 1.0), ((1, 0), 0.2)], [((0, 1), 0.1)],
         [((1, 1), 0.05)], [((0, 0), 1.0), ((0, 1), -0.15)]],
    )
    return dict(
        change=FrameChange(*quadratic_transition(), 2, frame),
        primed_stress1=VariationalStress1(
            tensor_poly(2, (2,), [random_poly_table(rng, 2, 2) for _ in range(2)]),
            tensor_poly(2, (2, 2), [random_poly_table(rng, 2, 2) for _ in range(4)]),
        ),
        primed_stress2=random_stress2_primed(rng, 2, 2, 2),
        velocity=tensor_poly(2, (2,), [random_poly_table(rng, 2, 3) for _ in range(2)]),
    )


BATCH_INPUTS = _batch_inputs()


def check_all(samples):
    """Every quantity at ``samples`` on the batch inputs, the frame change
    read at the samples first."""
    inputs = dict(BATCH_INPUTS)
    changes = inputs.pop("change").at_points(samples)
    return invariance_check(list(covariance.QUANTITIES), changes, **inputs)
SAMPLE = st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95))


@settings(max_examples=25, deadline=None)
@given(data=st.data(), samples=st.lists(SAMPLE | st.sampled_from(SAMPLES_2D), min_size=1,
                                         max_size=6))
def test_invariance_check_over_samples_is_the_max_of_its_one_sample_checks(data, samples):
    # Reading every sample in one batch changes no bit of any term, in any
    # order of the samples.
    reordered = data.draw(st.permutations(samples))
    batched = check_all(samples)
    singles = [check_all([x])
               for x in samples]
    assert list(batched) == list(singles[0])
    for term, value in batched.items():
        want = float(np.max([one[term] for one in singles])).hex()
        assert value.hex() == want
    again = check_all(reordered)
    assert {t: v.hex() for t, v in again.items()} == {t: v.hex() for t, v in batched.items()}


def singular_change():
    # x1' = x1^2 folds the chart: the transition Jacobian vanishes on x1 = 0.
    return FrameChange(
        SmoothField.from_expressions(2, ["x1*x1", "x2"]),
        SmoothField.from_expressions(2, ["x1", "x2"]),
        1,
    )


SINGULAR_POINT = (0.0, 0.5)


def _singular_laws():
    rng = random.Random(41)
    primed2 = random_stress2_primed(rng, 2, 1, 2)
    primed1 = VariationalStress1(primed2.s0, primed2.s1)
    velocity = tensor_poly(2, (1,), [random_poly_table(rng, 2, 2)])
    x = SINGULAR_POINT
    laws = {
        "transform_jet2": lambda c: transform_jet2(jet_extension(velocity.field, x, 2), c, x),
        "transform_stress1": lambda c: transform_stress1(primed1, c, x),
        "transform_stress2": lambda c: transform_stress2(primed2, c, x),
        "predicted_contraction_defect": lambda c: predicted_contraction_defect(primed2, c, x),
    }
    for quantity in QUANTITIES:
        laws[quantity] = lambda c, q=quantity: invariance_check(
            [q], c.at_points([x]), primed_stress1=primed1, primed_stress2=primed2, velocity=velocity
        )
    return laws


@pytest.mark.parametrize("law", sorted(_singular_laws()))
def test_every_law_rejects_a_singular_transition(law):
    with pytest.raises(ValueError, match="singular"):
        _singular_laws()[law](singular_change())


# -- the stacked minors and the layout of the laws' inputs ---------------------

# Entries where a zero coefficient times a minor is NaN, or a minor overflows,
# underflows or carries a signed zero.
SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324]


def _entries(data, size):
    """``size`` random values, each replaced by a special one with some chance."""
    values = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).uniform(-4, 4, size)
    picks = data.draw(st.lists(st.none() | st.sampled_from(SPECIAL), min_size=size, max_size=size))
    return np.array([v if pick is None else pick for v, pick in zip(values, picks)])


def _bits(value):
    return "nan" if np.isnan(value) else float(value).hex()


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 4), count=st.integers(1, 6))
def test_stacked_minor_pullback_equals_the_per_sample_oracle(data, n, count):
    # The covariance laws pull (n-1)-covectors back through minors of one
    # stacked det; each coefficient has the bits of the one-sample pullback
    # with an np.ix_ minor and a det per key pair, NaN matching NaN.
    jacs = _entries(data, count * n * n).reshape(count, n, n)
    signs = np.array([(-1.0) ** i for i in range(n)])
    # The basis units of the naive contraction, then a traction.
    rows = np.vstack([np.eye(n) * signs, _entries(data, n)])
    keys = [tuple(i for i in range(n) if i != j) for j in range(n)]
    with np.errstate(all="ignore"):
        minors = covariance._minors(jacs)
        for k in range(count):
            pulled = covariance._pullback(rows, minors[k])
            for r, row in enumerate(rows):
                form = FormValue(n, n - 1, dict(zip(keys, row)))
                oracle = pullback_form_value(form, jacs[k])
                assert [_bits(v) for v in pulled[r]] == [
                    _bits(oracle.coefficient(key)) for key in keys
                ]


def test_a_covariance_check_takes_every_minor_from_one_det(monkeypatch):
    shapes = []
    det = np.linalg.det

    def counted_det(a):
        shapes.append(np.shape(a))
        return det(a)

    monkeypatch.setattr(np.linalg, "det", counted_det)
    for samples in (SAMPLES_2D[:1], SAMPLES_2D * 3):
        shapes.clear()
        check_all(samples)
        assert [s for s in shapes if len(s) == 5] == [(len(samples), 2, 2, 1, 1)]
        assert len(shapes) == 3  # the Jacobians, the frames, the minors


def _strided(a):
    """A view with the values of ``a`` whose memory runs in reverse axis order, with gaps."""
    a = np.asarray(a)
    wide = np.empty(a.shape[::-1] + (2,))
    wide[..., 0] = a.T
    return wide[..., 0].T


def test_the_laws_give_the_same_bits_on_strided_inputs():
    # numpy's sum and einsum add in memory order: the laws make their inputs
    # C-contiguous, so a strided view changes no bit.
    inputs = BATCH_INPUTS
    x = SAMPLES_2D[1]
    pc = inputs["change"].at_points([x])[0]
    arrays = ("jac", "dx", "ddx", "a0", "a1", "a2", "minors")
    strided = {name: _strided(getattr(pc, name)) for name in arrays}
    pc_strided = covariance.PointChange(pc.x, pc.xp, det=pc.det, **strided)
    primed = {
        order: covariance._primed_blocks(inputs[f"primed_stress{order}"], [pc.xp])[0]
        for order in (1, 2)
    }
    jet = jet_extension(inputs["velocity"].field, x, 2)
    jet_strided = JetValue(jet.dim, jet.fiber_dim, 2, tuple(_strided(a) for a in jet.arrays))

    def run(pc, primed, jet):
        top = covariance._top_gradient_terms(pc, primed[2][2])
        unprimed = {order: covariance._stress_law(pc, blocks, top)
                    for order, blocks in primed.items()}
        jet_pr = covariance._jet_law(pc, jet)
        out = [a.tobytes() for blocks in unprimed.values() for a in blocks]
        out += [a.tobytes() for a in jet_pr.arrays]
        for q in covariance.QUANTITIES.values():
            out += [_bits(g) for g in q.gaps(pc, primed[q.order], unprimed[q.order], top,
                                             jet, jet_pr)]
        return out

    strided = {order: tuple(_strided(b) for b in blocks) for order, blocks in primed.items()}
    assert not strided[2][2].flags.c_contiguous and not jet_strided.array(2).flags.c_contiguous
    assert run(pc_strided, strided, jet_strided) == run(pc, primed, jet)
