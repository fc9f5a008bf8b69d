"""The transversal solve against full-row elimination, and batches it keeps whole.

``surface._solve_linear_series`` updates only the columns a later step reads.
``oracles.solve_linear_series_full_rows`` updates whole rows, as the solver
once did; every entry the solver returns must carry the reference's bits and
key order, at one point and at each node of a batch.  A batch splits only
where its nodes pick different pivots (``surface._pivot_row``).
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetstress import fields
from jetstress.balance import edge_assembly
from jetstress.cli import main
from jetstress.geometry import QuadratureRule
from jetstress.nonholonomic import nh_divergence, nh_traction
from jetstress.scenarios import generate_scenario, load_scenario, run_checks
from jetstress.stress import traction_action, traction_projection
from jetstress.surface import _solve_linear_series
from jetstress.taylor import BatchSplit, TruncatedSeries

from oracles import solve_linear_series_full_rows

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

# Dyadic values make sums and products cancel to exact zeros; the others do not.
DYADIC = st.sampled_from((0.5, -0.5, 1.0, -1.0, 2.0, -0.25))
VALUES = DYADIC | st.floats(0.125, 2.0) | st.floats(-2.0, -0.125)


def keys_within(dim, order):
    return [k for k in np.ndindex(*(order + 1,) * dim) if sum(k) <= order]


@st.composite
def tables(draw, dim, order, nodes, constant=None):
    """Keys in a drawn order, each with one nonzero value per node; a given
    ``constant`` (one value per node) goes first as the constant term."""
    keys = draw(st.permutations(keys_within(dim, order)))
    keys = keys[:draw(st.integers(0, len(keys)))]
    table = {k: [draw(VALUES) for _ in range(nodes)] for k in keys}
    if constant is None:
        return table
    zero = (0,) * dim
    return {zero: list(constant), **{k: v for k, v in table.items() if k != zero}}


@st.composite
def systems(draw, nodes, shared_pivots=True, dominant=True):
    """Tables of a matrix and right-hand sides of size 1-3.

    With ``dominant`` the constant terms of the matrix are strictly
    diagonally dominant by columns with the rows shuffled, so every node has
    a nonsingular system and the solver swaps rows; with ``shared_pivots``
    every node shuffles them the same way.  Otherwise the constant terms are
    free, and the system may be singular.
    """
    size = draw(st.integers(1, 3))
    dim = draw(st.integers(1, 2))
    order = draw(st.integers(0, 2))
    nrhs = draw(st.integers(1, 2))
    const = [[[draw(VALUES) for _ in range(nodes)] for _ in range(size)] for _ in range(size)]
    if dominant:
        rows = [draw(st.permutations(range(size)))] * nodes
        if not shared_pivots:
            rows = [draw(st.permutations(range(size))) for _ in range(nodes)]
        for i in range(nodes):
            for col in range(size):
                diag = 1.0 + sum(abs(const[k][col][i]) for k in range(size) if k != col)
                # Row ``col`` of the unshuffled system holds the dominant entry.
                column = [const[k][col][i] for k in range(size)]
                column[col] = diag if draw(st.booleans()) else -diag
                for k in range(size):
                    const[rows[i][k]][col][i] = column[k]
    matrix = [[draw(tables(dim, order, nodes, const[i][j])) for j in range(size)]
              for i in range(size)]
    rhs = [[draw(tables(dim, order, nodes)) for _ in range(nrhs)] for _ in range(size)]
    return dim, order, matrix, rhs


def at_node(dim, order, system, i):
    return [[TruncatedSeries(dim, order, {k: v[i] for k, v in t.items()}) for t in row]
            for row in system]


def batched(dim, order, system, index):
    """Series whose coefficients hold the values of the nodes in ``index``."""
    return [[TruncatedSeries._trusted(
        dim, order, {k: np.array(v)[index] for k, v in t.items()}, batch=True)
        for t in row] for row in system]


def bits(series, i=None):
    """Key order and exact bits of a series, or of node ``i`` of a batched one."""
    return [(k, float(v[i] if np.ndim(v) else v).hex()) for k, v in series.coeffs.items()]


def solved_bits(solve, matrix, rhs):
    """``bits`` of each solution entry at one point, or the singular message."""
    try:
        return [[bits(s) for s in row] for row in solve(matrix, rhs)]
    except ValueError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_solver_matches_full_row_elimination_at_one_point(data):
    dim, order, matrix, rhs = data.draw(systems(1, dominant=data.draw(st.booleans())))
    m, r = at_node(dim, order, matrix, 0), at_node(dim, order, rhs, 0)
    assert solved_bits(_solve_linear_series, m, r) == solved_bits(
        solve_linear_series_full_rows, m, r)


def solve_in_groups(matrix, rhs, dim, order, index):
    """The solver over the nodes in ``index``, each group of like nodes again
    as its own batch when the batch splits, as ``fields.on_nodes`` does."""
    if len(index) == 1:
        i = index[0]
        return {i: solved_bits(
            _solve_linear_series, at_node(dim, order, matrix, i), at_node(dim, order, rhs, i))}
    try:
        out = _solve_linear_series(
            batched(dim, order, matrix, index), batched(dim, order, rhs, index))
    except BatchSplit as split:
        labels = np.asarray(split.labels)
        assert labels.shape == (len(index),) and len(np.unique(labels)) > 1
        groups = {}
        for label in np.unique(labels):
            groups.update(solve_in_groups(
                matrix, rhs, dim, order, index[labels == label]))
        return groups
    return {node: [[bits(s, j) for s in row] for row in out] for j, node in enumerate(index)}


@pytest.mark.parametrize("shared_pivots", [True, False], ids=["shared-pivots", "own-pivots"])
@settings(max_examples=100, deadline=None)
@given(data=st.data(), nodes=st.integers(2, 4))
def test_each_node_of_a_batched_solve_is_full_row_elimination_at_that_node(
    shared_pivots, data, nodes
):
    dim, order, matrix, rhs = data.draw(systems(nodes, shared_pivots))
    got = solve_in_groups(matrix, rhs, dim, order, np.arange(nodes))
    for i in range(nodes):
        m, r = at_node(dim, order, matrix, i), at_node(dim, order, rhs, i)
        assert got[i] == solved_bits(solve_linear_series_full_rows, m, r)


def test_an_eliminated_column_that_cancels_at_some_nodes_does_not_split():
    # 2 * (1/2) is exactly 1 and 49 * (1/49) is not, so below the pivot the
    # full-row update leaves 1 - 1 * (49 * (1/49)), a zero at the first node
    # only.  Neither solve splits on it, and each node gets its own bits.
    pivot = TruncatedSeries.constant(1, 1, np.array([2.0, 49.0]))
    one = TruncatedSeries.constant(1, 1, 1.0)
    matrix = [[pivot, one], [one, TruncatedSeries(1, 1, {(0,): 3.0, (1,): 0.5})]]
    rhs = [[TruncatedSeries(1, 1, {(0,): 0.75, (1,): -1.0})], [TruncatedSeries.constant(1, 1, 5.0)]]
    for solve in (_solve_linear_series, solve_linear_series_full_rows):
        got = solve(matrix, rhs)
        for i, p in enumerate((2.0, 49.0)):
            m = [[TruncatedSeries.constant(1, 1, p), matrix[0][1]], matrix[1]]
            want = solve_linear_series_full_rows(m, rhs)
            assert [[bits(s, i) for s in row] for row in got] == [
                [bits(s) for s in row] for row in want]


# -- batches of face nodes ---------------------------------------------------------


def count_regroupings(monkeypatch):
    """Count the batches ``fields.on_nodes`` evaluates and the groups it
    evaluates again after a ``BatchSplit``."""
    counts = {"batches": 0, "groups": 0}
    depth = [0]
    original = fields._fill

    def counted(fn, nodes, index, out):
        counts["groups" if depth[0] else "batches"] += 1
        depth[0] += 1
        try:
            return original(fn, nodes, index, out)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(fields, "_fill", counted)
    return counts


def record_splits(monkeypatch):
    """The name of the function that raises each ``BatchSplit``, one per split."""
    raised = []
    original = BatchSplit.__init__

    def recording(self, labels):
        raised.append(sys._getframe(1).f_code.co_name)
        original(self, labels)

    monkeypatch.setattr(BatchSplit, "__init__", recording)
    return raised


def curved_cube(quad_order):
    """A sheared unit cube with analytic blocks, a vector transversal on one
    face and a metric transversal on another."""
    return {
        "schema": "jetstress-scenario/1",
        "name": "curved-cube",
        "bundle": {"n": 3, "d": 1},
        "geometry": {
            "chart_box": [[-1.0, 2.0]] * 3,
            "body_box": [[0.0, 1.0]] * 3,
            "patch": ["x1 + 0.08*x2*x3", "x2 + 0.12*x3*x1", "x3 + 0.1*x1*x2"],
            "quad_order": quad_order,
        },
        "stress": {"raw": {
            "x0": ["0.4*sin(x1) + x2"],
            "x1": [["exp(0.3*x2)", "0.6*cos(x2*x3)", "x3*x1 - 0.5"]],
            "x2": [["sin(0.7*x2) + x3^2", "0.2*exp(-x3)*x1", "0.3*sin(x1) + x2"]],
            "x3": [[["exp(0.5*x3)", "0.45*cos(x1*x2)", "x2*x3 - 0.35"],
                    ["sin(0.25*x1) + x2^2", "0.55*exp(-x2)*x3", "0.65*sin(x3) + x1"],
                    ["exp(0.15*x1)", "0.75*cos(x3*x1)", "x1*x2 - 0.3"]]],
        }},
        "velocity": {"u": ["sin(0.3*x1 + x2) + 0.6*exp(x3)*x1"]},
        "transversals": {
            "x1-upper": {"vector": ["1", "0.2*x2", "0.25*x3"]},
            "x2-upper": {"metric": [["sqrt(1 + 0.3*x1^2)", "0", "0"],
                                    ["0", "sqrt(1 + 0.2*x2^2)", "0"],
                                    ["0", "0", "sqrt(1 + 0.4*x3^2)"]]},
        },
        "checks": ["balance2"],
        "tolerances": {},
    }


def test_curved_faces_stay_in_one_batch(monkeypatch):
    scenario = load_scenario(curved_cube(10))
    counts = count_regroupings(monkeypatch)
    raised = record_splits(monkeypatch)
    stress, velocity = scenario.nh_stress, scenario.velocity
    edge_assembly(nh_traction(stress), velocity, scenario.body, scenario.transversals,
                  QuadratureRule(10), boundary_form=traction_action(
                      traction_projection(nh_divergence(stress)), velocity))
    assert raised == []
    assert counts["groups"] == 0 and counts["batches"] > 0


def _run(doc, tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", "--scenario", str(scenario), "--report", str(tmp_path / "r.jsonl")]) == 0


def test_odd_quad_order_does_not_split_on_a_partial_zero(monkeypatch, tmp_path):
    # Order 5 puts nodes on x = 0.5, where coefficients are exactly zero.
    doc = json.loads((SCENARIOS / "cube-order2.json").read_text(encoding="utf-8"))
    doc["geometry"]["quad_order"] = 5
    counts = count_regroupings(monkeypatch)
    raised = record_splits(monkeypatch)
    _run(doc, tmp_path)
    assert raised == [] and counts["groups"] == 0 and counts["batches"] > 0


def test_closed_disk_still_splits_on_a_pivot(monkeypatch, tmp_path):
    doc = json.loads((SCENARIOS / "disk-closed.json").read_text(encoding="utf-8"))
    counts = count_regroupings(monkeypatch)
    raised = record_splits(monkeypatch)
    _run(doc, tmp_path)
    assert raised and set(raised) == {"_pivot_row"} and counts["groups"] > 0


def _split_guard_documents():
    for path in sorted(SCENARIOS.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        if path.stem != "malformed":
            for quad_order in (None, 5, 7):
                yield load_scenario(doc, quad_order)
    for n, d in ((2, 2), (3, 2), (4, 1)):
        yield load_scenario(generate_scenario(3, n, d, 3))


def test_only_a_pivot_splits_a_batch(monkeypatch):
    # The 7 bundled scenarios that load, at their own order, 5 and 7, and
    # generated documents: every split comes from a pivot choice (the
    # disk's metric normal), none from a value.
    raised = record_splits(monkeypatch)
    for scenario in _split_guard_documents():
        run_checks(scenario)
    assert raised and set(raised) == {"_pivot_row"}
