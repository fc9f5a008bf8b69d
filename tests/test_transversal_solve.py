"""The transversal solve against full-row elimination, and batches it keeps whole.

``surface._solve_linear_series`` updates only the columns a later step reads.
``oracles.solve_linear_series_full_rows`` updates whole rows, as the solver
once did, and picks each pivot by its own rule at one node; every entry the
solver returns must carry the reference's bits and key order, at one point
and at each node of a batch.  Nodes of a batch that pick different pivot
rows each swap their own coefficients; where those rows hold different keys
the solve raises ``ArithmeticError``, and ``fields.on_nodes`` reads that
batch node by node.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetstress import fields, surface
from jetstress.balance import edge_assembly
from jetstress.cli import main
from jetstress.geometry import QuadratureRule
from jetstress.nonholonomic import nh_divergence, nh_traction
from jetstress.scenarios import generate_scenario, load_scenario, run_checks
from jetstress.stress import traction_action, traction_projection
from jetstress.surface import _solve_linear_series
from jetstress.taylor import TruncatedSeries

from oracles import solve_linear_series_full_rows

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

# Dyadic values make sums and products cancel to exact zeros; the others do not.
DYADIC = st.sampled_from((0.5, -0.5, 1.0, -1.0, 2.0, -0.25))
VALUES = DYADIC | st.floats(0.125, 2.0) | st.floats(-2.0, -0.125)


def keys_within(dim, order):
    return [k for k in np.ndindex(*(order + 1,) * dim) if sum(k) <= order]


@st.composite
def layouts(draw, dim, order):
    """Some of the keys within ``order``, in a drawn order."""
    keys = draw(st.permutations(keys_within(dim, order)))
    return keys[:draw(st.integers(0, len(keys)))]


@st.composite
def tables(draw, dim, order, nodes, constant=None, keys=None):
    """The ``keys`` (drawn when None), each with one nonzero value per node; a
    given ``constant`` (one value per node) goes first as the constant term."""
    keys = draw(layouts(dim, order)) if keys is None else keys
    table = {k: [draw(VALUES) for _ in range(nodes)] for k in keys}
    if constant is None:
        return table
    zero = (0,) * dim
    return {zero: list(constant), **{k: v for k, v in table.items() if k != zero}}


@st.composite
def systems(draw, nodes, shared_pivots=True, dominant=True, shared_layout=False):
    """Tables of a matrix and right-hand sides of size 1-3.

    With ``dominant`` the constant terms of the matrix are strictly
    diagonally dominant by columns with the rows shuffled, so every node has
    a nonsingular system and the solver swaps rows; with ``shared_pivots``
    every node shuffles them the same way.  Otherwise the constant terms are
    free, and the system may be singular.  With ``shared_layout`` every row
    holds the same keys in the same order in each column, so rows that nodes
    pick between have one layout.
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
    mkeys, rkeys = [None] * size, [None] * nrhs
    if shared_layout:
        mkeys = [draw(layouts(dim, order)) for _ in range(size)]
        rkeys = [draw(layouts(dim, order)) for _ in range(nrhs)]
    matrix = [[draw(tables(dim, order, nodes, const[i][j], mkeys[j])) for j in range(size)]
              for i in range(size)]
    rhs = [[draw(tables(dim, order, nodes, keys=rkeys[j])) for j in range(nrhs)]
           for _ in range(size)]
    return dim, order, matrix, rhs


def at_node(dim, order, system, i):
    return [[TruncatedSeries(dim, order, {k: v[i] for k, v in t.items()}) for t in row]
            for row in system]


def batched(dim, order, system, nodes):
    """Series whose coefficients hold the values of the first ``nodes`` nodes."""
    return [[TruncatedSeries._trusted(dim, order, {k: np.array(v)[:nodes] for k, v in t.items()})
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


def full_rows_at_each_node(dim, order, matrix, rhs, nodes):
    """The reference solution of each node, solved alone."""
    return [solved_bits(solve_linear_series_full_rows, at_node(dim, order, matrix, i),
                        at_node(dim, order, rhs, i)) for i in range(nodes)]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_solver_matches_full_row_elimination_at_one_point(data):
    dim, order, matrix, rhs = data.draw(systems(1, dominant=data.draw(st.booleans())))
    m, r = at_node(dim, order, matrix, 0), at_node(dim, order, rhs, 0)
    assert solved_bits(_solve_linear_series, m, r) == solved_bits(
        solve_linear_series_full_rows, m, r)


def solve_batch(dim, order, matrix, rhs, nodes):
    """Each node's ``bits`` from one batched solve, and False; or, where the
    batch raises ``ArithmeticError`` or ``ValueError``, from each node solved
    alone, as ``fields.on_nodes`` reads such a batch, and True."""
    try:
        out = _solve_linear_series(
            batched(dim, order, matrix, nodes), batched(dim, order, rhs, nodes))
    except (ArithmeticError, ValueError):
        return [solved_bits(_solve_linear_series, at_node(dim, order, matrix, i),
                            at_node(dim, order, rhs, i)) for i in range(nodes)], True
    return [[[bits(s, i) for s in row] for row in out] for i in range(nodes)], False


@pytest.mark.parametrize("shared_pivots", [True, False], ids=["shared-pivots", "own-pivots"])
@settings(max_examples=100, deadline=None)
@given(data=st.data(), nodes=st.integers(2, 4))
def test_each_node_of_a_batched_solve_is_full_row_elimination_at_that_node(
    shared_pivots, data, nodes
):
    # Rows of any layout: nodes that share their pivots solve in one batch,
    # and a batch whose nodes pick rows of different layouts goes node by node.
    dim, order, matrix, rhs = data.draw(systems(nodes, shared_pivots))
    got, fell_back = solve_batch(dim, order, matrix, rhs, nodes)
    assert got == full_rows_at_each_node(dim, order, matrix, rhs, nodes)
    assert not (shared_pivots and fell_back)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), nodes=st.integers(2, 4))
def test_nodes_that_pick_their_own_pivots_among_rows_of_one_layout_share_one_batch(data, nodes):
    dim, order, matrix, rhs = data.draw(systems(nodes, shared_pivots=False, shared_layout=True))
    got, fell_back = solve_batch(dim, order, matrix, rhs, nodes)
    assert not fell_back
    assert got == full_rows_at_each_node(dim, order, matrix, rhs, nodes)


def test_nodes_that_pick_rows_of_different_layouts_raise_arithmetic_error():
    # The first node picks row 1 and the second row 0, rows of different keys.
    dim, order = 1, 1
    matrix = [[{(0,): [1.0, 3.0]}, {(0,): [0.5, 0.5]}],
              [{(0,): [3.0, 1.0], (1,): [0.25, 0.25]}, {(1,): [2.0, 2.0], (0,): [4.0, 4.0]}]]
    rhs = [[{(0,): [1.0, -1.0]}], [{(0,): [2.0, 0.5]}]]
    with pytest.raises(ArithmeticError, match="pivot rows of different layouts"):
        _solve_linear_series(batched(dim, order, matrix, 2), batched(dim, order, rhs, 2))
    # With the keys of row 1 in row 0, in row 1's order, one batch serves both nodes.
    matrix[0] = [{(0,): [1.0, 3.0], (1,): [0.0, -0.0]}, {(1,): [0.0, 0.0], (0,): [0.5, 0.5]}]
    got, fell_back = solve_batch(dim, order, matrix, rhs, 2)
    assert not fell_back
    assert got == full_rows_at_each_node(dim, order, matrix, rhs, 2)


def test_an_eliminated_column_that_cancels_at_some_nodes_does_not_split():
    # 2 * (1/2) is exactly 1 and 49 * (1/49) is not, so below the pivot the
    # full-row update leaves 1 - 1 * (49 * (1/49)), a zero at the first node
    # only.  The batched solve does not fall back on it, and each node gets
    # the bits of full-row elimination at that node.
    pivot = TruncatedSeries.constant(1, 1, np.array([2.0, 49.0]))
    one = TruncatedSeries.constant(1, 1, 1.0)
    matrix = [[pivot, one], [one, TruncatedSeries(1, 1, {(0,): 3.0, (1,): 0.5})]]
    rhs = [[TruncatedSeries(1, 1, {(0,): 0.75, (1,): -1.0})], [TruncatedSeries.constant(1, 1, 5.0)]]
    got = _solve_linear_series(matrix, rhs)
    for i, p in enumerate((2.0, 49.0)):
        m = [[TruncatedSeries.constant(1, 1, p), matrix[0][1]], matrix[1]]
        want = solve_linear_series_full_rows(m, rhs)
        assert [[bits(s, i) for s in row] for row in got] == [
            [bits(s) for s in row] for row in want]


# -- batches of face nodes ---------------------------------------------------------


def record_batches(monkeypatch):
    """Each batch ``fields.on_nodes`` evaluates whole: its node count and the
    name of the exception it raised, or None."""
    batches = []
    original = fields._evaluate_batch

    def recording(fn, point):
        try:
            values = original(fn, point)
        except Exception as exc:
            batches.append((np.size(point[0]), type(exc).__name__))
            raise
        batches.append((np.size(point[0]), None))
        return values

    monkeypatch.setattr(fields, "_evaluate_batch", recording)
    return batches


def record_own_pivots(monkeypatch):
    """Each pivot choice on which the nodes of a batch disagree: one row per node."""
    own = []
    original = surface._pivot_row

    def recording(magnitudes):
        piv = original(magnitudes)
        if np.ndim(piv):
            own.append(piv)
        return piv

    monkeypatch.setattr(surface, "_pivot_row", recording)
    return own


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
    batches = record_batches(monkeypatch)
    stress, velocity = scenario.nh_stress, scenario.velocity
    edge_assembly(nh_traction(stress), velocity, scenario.body, scenario.transversals,
                  QuadratureRule(10), boundary_form=traction_action(
                      traction_projection(nh_divergence(stress)), velocity))
    assert batches and all(raised is None for _, raised in batches)


def _run(doc, tmp_path):
    """The report bytes of one ``jetstress run`` of ``doc``."""
    scenario = tmp_path / "scenario.json"
    report = tmp_path / "r.jsonl"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", "--scenario", str(scenario), "--report", str(report)]) == 0
    return report.read_bytes()


def test_odd_quad_order_does_not_split_on_a_partial_zero(monkeypatch, tmp_path):
    # Order 5 puts nodes on x = 0.5, where coefficients are exactly zero.
    doc = json.loads((SCENARIOS / "cube-order2.json").read_text(encoding="utf-8"))
    doc["geometry"]["quad_order"] = 5
    batches = record_batches(monkeypatch)
    _run(doc, tmp_path)
    assert batches and all(raised is None for _, raised in batches)


def test_closed_disk_reads_its_curve_in_one_batch_across_pivots(monkeypatch, tmp_path):
    # The disk's metric normal makes the nodes of its curve pick different
    # pivot rows, of one layout: each node swaps its own, in one batch.
    doc = json.loads((SCENARIOS / "disk-closed.json").read_text(encoding="utf-8"))
    batches = record_batches(monkeypatch)
    own = record_own_pivots(monkeypatch)
    _run(doc, tmp_path)
    assert own and all(len(np.unique(piv)) > 1 for piv in own)
    assert len(batches) == 1 and batches[0][1] is None


def _split_guard_documents():
    for path in sorted(SCENARIOS.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        if path.stem != "malformed":
            for quad_order in (None, 5, 7):
                yield load_scenario(doc, quad_order)
    for n, d in ((2, 2), (3, 2), (4, 1)):
        yield load_scenario(generate_scenario(3, n, d, 3))


def test_no_batch_is_evaluated_twice(monkeypatch):
    # The 8 bundled scenarios that load, at their own order, 5 and 7, and
    # generated documents: no batch raises, so none is read again node by
    # node.  Nodes pick different pivots 3 times (the disk's metric normal,
    # once per order), each within its batch.
    batches = record_batches(monkeypatch)
    own = record_own_pivots(monkeypatch)
    for scenario in _split_guard_documents():
        run_checks(scenario)
    assert batches and all(raised is None for _, raised in batches)
    assert len(own) == 3


def mixed_layout_document():
    """A generated square whose lower x2 face has a metric transversal: its
    nodes pick different pivot rows, and those rows hold different keys, so
    its batch, the x2 pair's, is read node by node."""
    doc = generate_scenario(3, 2, 1, 3)
    doc["transversals"] = {"x2-lower": {"metric": [["1", "2*x1"], ["2*x1", "10"]]}}
    doc["checks"] = ["balance2"]
    return doc


def test_a_mixed_layout_batch_reads_its_nodes_alone_with_the_same_report(monkeypatch, tmp_path):
    batches = record_batches(monkeypatch)
    batched_report = _run(mixed_layout_document(), tmp_path)
    # The x2 pair's batch: both faces' rows go node by node.
    assert (16, "ArithmeticError") in batches
    monkeypatch.setattr(fields, "BATCH", 1)
    assert _run(mixed_layout_document(), tmp_path) == batched_report
