"""Iterated jets, holonomic inclusion, symmetrization, and holonomy classes."""

import itertools
import random

import numpy as np
import pytest

from jetstress import bundles, fields
from jetstress.bundles import HolonomyClass, JetSectionField, holonomy_class
from jetstress.fields import JetValue, SmoothField, TensorField, jet_extension
from jetstress.scenarios import generate_scenario, load_scenario

from oracles import (
    from_polynomials,
    include_holonomic,
    iterated_jet_at,
    symmetrize_iterated,
    zero_jet,
)


def square_grid(per_axis=3):
    """Interior points of a regular per_axis x per_axis lattice on the unit square."""
    axis = np.linspace(0.0, 1.0, per_axis + 2)[1:-1]
    return list(itertools.product(axis, axis))


def tensor1(dim, tables):
    return TensorField(from_polynomials(dim, tables), (len(tables),))


def tensor2(dim, tables_2d):
    flat = [t for row in tables_2d for t in row]
    return TensorField(
        from_polynomials(dim, flat), (len(tables_2d), len(tables_2d[0]))
    )


def test_iterated_jet_of_identity_section():
    # a0 = x1, a1 = 1 in one dimension: blocks (x1, 1, 1, 0).
    section = JetSectionField(
        tensor1(1, [[((1,), 1.0)]]),
        TensorField(SmoothField.constant(1, [1.0]), (1, 1)),
    )
    it = iterated_jet_at(section, (0.4,))
    assert it.b0[0] == pytest.approx(0.4)
    assert it.b1[0, 0] == pytest.approx(1.0)
    assert it.b2[0, 0] == pytest.approx(1.0)
    assert it.b3[0, 0, 0] == pytest.approx(0.0)


def test_iterated_jet_of_incompatible_section():
    section = JetSectionField(
        TensorField(SmoothField.constant(1, [0.0]), (1,)),
        TensorField(SmoothField.constant(1, [1.0]), (1, 1)),
    )
    it = iterated_jet_at(section, (0.0,))
    assert it.b0[0] == 0.0 and it.b1[0, 0] == 1.0 and it.b2[0, 0] == 0.0
    assert not np.array_equal(it.b1, it.b2)


def test_iterated_jet_of_square_section():
    # a = j1(x1^2): blocks (x^2, 2x, 2x, 2) by hand differentiation.
    u = tensor1(1, [[((2,), 1.0)]])
    section = JetSectionField.from_velocity(u)
    it = iterated_jet_at(section, (0.7,))
    assert it.b0[0] == pytest.approx(0.49)
    assert it.b1[0, 0] == pytest.approx(1.4)
    assert it.b2[0, 0] == pytest.approx(1.4)
    assert it.b3[0, 0, 0] == pytest.approx(2.0)


def test_include_holonomic_local_form():
    jet = JetValue(
        1, 1, 2,
        (np.array([1.0]), np.array([[2.0]]), np.array([[[3.0]]])),
    )
    it = include_holonomic(jet)
    assert it.b0[0] == 1.0
    assert it.b1[0, 0] == 2.0
    assert it.b2[0, 0] == 2.0
    assert it.b3[0, 0, 0] == 3.0
    zero = include_holonomic(zero_jet(2, 1, 2))
    assert np.all(zero.b3 == 0.0) and np.all(zero.b1 == 0.0)


def test_include_holonomic_matches_iterated_jet_of_lift():
    # For polynomial u, embedding the 2-jet equals the iterated jet of j1(u).
    rng = random.Random(23)
    for _ in range(5):
        table = [(e, rng.uniform(-2, 2)) for e in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (2, 1)]]
        u = tensor1(2, [table])
        section = JetSectionField.from_velocity(u)
        x = (rng.uniform(0, 1), rng.uniform(0, 1))
        direct = include_holonomic(jet_extension(u.field, x, 2))
        via_section = iterated_jet_at(section, x)
        assert np.allclose(direct.b0, via_section.b0, atol=1e-14)
        assert np.allclose(direct.b1, via_section.b1, atol=1e-14)
        assert np.allclose(direct.b2, via_section.b2, atol=1e-14)
        assert np.allclose(direct.b3, via_section.b3, atol=1e-14)


def test_symmetrize_iterated():
    b3 = np.array([[[0.0, 1.0], [0.0, 0.0]]])
    sym = symmetrize_iterated(b3)
    assert sym[0, 0, 1] == pytest.approx(0.5)
    assert sym[0, 1, 0] == pytest.approx(0.5)
    already = np.array([[[1.0, 2.0], [2.0, 3.0]]])
    assert np.array_equal(symmetrize_iterated(already), already)
    # Round trip: symmetrize after embedding a symmetric array is the identity.
    assert np.array_equal(symmetrize_iterated(already), already)


def test_holonomic_second_derivatives_symmetric():
    u = tensor1(2, [[((2, 1), 1.0), ((1, 2), -0.5), ((3, 0), 0.25)]])
    section = JetSectionField.from_velocity(u)
    for x in square_grid():
        it = iterated_jet_at(section, x)
        assert np.max(np.abs(it.b3 - symmetrize_iterated(it.b3))) < 1e-12


def test_only_zero_section_is_vertical_everywhere():
    # A polynomial with vanishing 1-jet on a dense enough lattice vanishes.
    grid = square_grid(per_axis=4)
    u = tensor1(2, [[((0, 0), 0.0)]])
    section = JetSectionField.from_velocity(u)
    assert all(
        np.all(iterated_jet_at(section, x).b0 == 0.0)
        and np.all(iterated_jet_at(section, x).b1 == 0.0)
        for x in grid
    )
    # Contrapositive: a nonzero polynomial cannot have zero jets on the grid.
    v = tensor1(2, [[((1, 1), 1.0)]])
    vsec = JetSectionField.from_velocity(v)
    assert any(
        np.max(np.abs(iterated_jet_at(vsec, x).b1)) > 1e-12 for x in grid
    )


def test_holonomy_classification():
    grid = square_grid()
    # j1 of a velocity field is holonomic.
    u = tensor1(2, [[((1, 1), 1.0)]])
    assert holonomy_class(JetSectionField.from_velocity(u), grid) == HolonomyClass.HOLONOMIC

    # Incompatible: a0 = 0 but a1 = 1.
    bad = JetSectionField(
        TensorField(SmoothField.constant(2, [0.0]), (1,)),
        TensorField(SmoothField.constant(2, [1.0, 0.0]), (1, 2)),
    )
    assert holonomy_class(bad, grid) == HolonomyClass.NONE

    # a0 = x1 x2 with a1 = (x2, x1) is holonomic; perturbing a1 breaks it.
    a0 = tensor1(2, [[((1, 1), 1.0)]])
    a1_good = tensor2(2, [[[((0, 1), 1.0)], [((1, 0), 1.0)]]])
    assert holonomy_class(JetSectionField(a0, a1_good), grid) == HolonomyClass.HOLONOMIC
    for eps in (1e-6, 1e-3):
        a1_bad = tensor2(2, [[[((0, 1), 1.0)], [((1, 0), 1.0), ((0, 0), eps)]]])
        assert holonomy_class(JetSectionField(a0, a1_bad), grid) == HolonomyClass.NONE

    # Compatible a1 with asymmetric derivative: semi-holonomic but not holonomic
    # requires b3 asymmetric while b1 = b2; use a1 = grad(a0) + curl-like zero...
    # With a1 = d(a0), b3 is automatically symmetric for twice-differentiable a0,
    # so the semi-holonomic rung is only reachable through rounding; assert the
    # classifier tolerates exact holonomic input.
    assert holonomy_class(JetSectionField.from_velocity(a0), grid) == HolonomyClass.HOLONOMIC


def test_a_nan_in_the_section_is_not_holonomic():
    # Python's max(0.0, nan) is 0.0; the classifier must not drop the NaN.
    a0 = tensor1(2, [[((1, 1), 1.0)]])
    a1 = TensorField(SmoothField.constant(2, [float("nan"), 0.0]), (1, 2))
    assert holonomy_class(JetSectionField(a0, a1), square_grid()) == HolonomyClass.NONE


def test_the_semi_holonomic_rung_is_reached_where_a1_matches_only_at_the_samples():
    # a1 = grad(x1 x2) + (x2 - 0.5, 0.5 - x1) agrees with grad a0 at (0.5, 0.5)
    # only, and its derivative [[0, 2], [0, 0]] is not symmetric.
    a0 = tensor1(2, [[((1, 1), 1.0)]])
    a1 = tensor2(2, [[[((0, 1), 2.0), ((0, 0), -0.5)], [((0, 0), 0.5)]]])
    section = JetSectionField(a0, a1)
    assert holonomy_class(section, [(0.5, 0.5)]) == HolonomyClass.SEMI_HOLONOMIC
    assert holonomy_class(section, [(0.5, 0.5), (0.2, 0.7)]) == HolonomyClass.NONE
    assert holonomy_class(section, []) == HolonomyClass.HOLONOMIC


def test_holonomy_class_reads_each_block_in_one_pass(monkeypatch):
    """Each block's first jet at every sample point comes from one ``on_nodes``
    pass, with no one-point ``jet_extension`` read."""
    section = JetSectionField.from_velocity(
        load_scenario(generate_scenario(3, 3, 2, 4)).velocity)
    rng = random.Random(29)
    points = [tuple(rng.uniform(0.0, 1.0) for _ in range(3)) for _ in range(20)]
    passes = []
    on_nodes = fields.on_nodes

    def counted(fn, nodes, width=None):
        passes.append(len(nodes))
        return on_nodes(fn, nodes, width)

    def refused(*args, **kwargs):
        raise AssertionError("a one-point jet read")

    monkeypatch.setattr(fields, "on_nodes", counted)
    for module in (fields, bundles):
        if hasattr(module, "jet_extension"):
            monkeypatch.setattr(module, "jet_extension", refused)
    assert holonomy_class(section, points) == HolonomyClass.HOLONOMIC
    assert passes == [20, 20]
