"""Structure built once: the index tables of ``pair`` and ``signed``, the
product plans of monomial tables, and the faces of a body.

The tables and plans are module-level caches keyed by integers, so they are
held against a fresh build (``oracles.pair_table``, ``oracles.signed_rows``,
``taylor._product_plan``), and every module-level cache of the package must
stop growing once every bundled scenario has run.  The faces live on their body, so two
bodies of one box and different patches each read their own face maps.
Reports keep their bytes warm, cold, and with every cache cleared.
"""

import contextlib
import io
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

import jetstress
import numpy as np

from jetstress import fields, geometry, taylor
from jetstress.cli import main
from jetstress.scenarios import generate_scenario, load_scenario, run_checks

from oracles import chart_point, pair_table, signed_rows

PACKAGE = Path(jetstress.__file__).resolve().parent
SCENARIOS = PACKAGE.parents[1] / "scenarios"
BUNDLED = sorted(SCENARIOS.glob("*.json"))

SIZES = st.integers(1, 3)
SHAPES = st.lists(SIZES, max_size=3).map(tuple)


@st.composite
def pair_layouts(draw):
    """A chart dimension, an output shape and the layout of 1 to 3 blocks,
    whose C and A fields are drawn from four, so blocks share fields in
    every pattern; slots number the fields in order of first use."""
    n = draw(st.integers(1, 4))
    out_shape = draw(st.lists(SIZES, max_size=2).map(tuple))
    slots = {}
    layout = []
    for _ in range(draw(st.integers(1, 3))):
        c, a = (slots.setdefault(draw(st.integers(0, 3)), len(slots)) for _ in range(2))
        layout.append((draw(st.lists(SIZES, max_size=2).map(tuple)), draw(st.integers(0, 1)), c, a))
    return n, out_shape, tuple(layout)


@st.composite
def signed_keys(draw):
    shape = draw(SHAPES)
    perm = tuple(draw(st.permutations(range(len(shape)))))
    axis = draw(st.one_of(st.none(), st.integers(0, len(shape) - 1))) if shape else None
    return shape, axis, perm


@settings(max_examples=200, deadline=None)
@given(pair_key=pair_layouts(), signed_key=signed_keys())
def test_cached_tables_equal_a_fresh_build(pair_key, signed_key):
    assert fields._pair_table(*pair_key) == pair_table(*pair_key)
    assert fields._signed_rows(*signed_key) == signed_rows(*signed_key)
    # A second call is served from the cache, with the same records.
    assert fields._pair_table(*pair_key) is fields._pair_table(*pair_key)


def test_every_kept_product_plan_equals_a_fresh_build():
    # A plan depends on the chart dim, the order and the factors alone: each
    # one kept after generated runs is the plan built afresh on the
    # coordinate series of another point, a batch of nodes.
    for n, d in ((2, 3), (3, 2), (4, 1)):
        scenario = load_scenario(generate_scenario(3, n, d, 4))
        run_checks(scenario, scenario.checks)
    assert taylor._PLANS
    for (dim, order, factors), plan in taylor._PLANS.items():
        point = tuple(np.linspace(-0.5, 0.75, 3) + axis for axis in range(dim))
        fresh = taylor._product_plan(fields.coordinate_series(point, order), factors, order)
        assert plan == fresh


def _run(tmp_path, path):
    """``jetstress run`` of one scenario in this process: its exit code,
    stdout, stderr and report bytes (None when it writes no report)."""
    report = tmp_path / "warm.jsonl"
    report.unlink(missing_ok=True)
    argv = ["run", "--scenario", str(path), "--report", str(report)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    data = report.read_bytes() if report.exists() else None
    return code, out.getvalue(), err.getvalue(), data


def _caches():
    """Every module-level ``functools`` cache of the package, by name."""
    out = {}
    for info in pkgutil.iter_modules(jetstress.__path__, "jetstress."):
        module = sys.modules[info.name]
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == info.name:
                out[f"{info.name}.{name}"] = obj
    return out


def _entries(value) -> int:
    """The entries of a module-level dict, nested dicts counted through."""
    if not isinstance(value, dict):
        return 0
    return len(value) + sum(_entries(v) for v in value.values())


def _sizes():
    """The size of every module-level cache and dict of the package."""
    sizes = {name: cache.cache_info().currsize for name, cache in _caches().items()}
    for info in pkgutil.iter_modules(jetstress.__path__, "jetstress."):
        for name, obj in vars(sys.modules[info.name]).items():
            if isinstance(obj, dict) and not name.startswith("__"):
                sizes[f"{info.name}.{name}"] = _entries(obj)
    return sizes


_COLD = r"""
import contextlib, io, json, os, sys
from pathlib import Path
from jetstress.cli import main
out = []
for path in sys.argv[2:]:
    report = Path(sys.argv[1])
    report.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["run", "--scenario", path, "--report", str(report)])
    data = report.read_text(encoding="utf-8") if report.exists() else None
    out.append([code, stdout.getvalue(), stderr.getvalue(), data])
print(json.dumps(out))
"""


def _cold(tmp_path, paths):
    """The runs of ``paths`` in one fresh interpreter, every cache empty."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    result = subprocess.run(
        [sys.executable, "-c", _COLD, str(tmp_path / "cold.jsonl"), *map(str, paths)],
        env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return [(code, out, err, None if data is None else data.encode())
            for code, out, err, data in json.loads(result.stdout)]


def test_bundled_reports_keep_their_bytes_warm_cold_and_with_the_caches_cleared(tmp_path):
    first = [_run(tmp_path, path) for path in BUNDLED]
    warm = [_run(tmp_path, path) for path in BUNDLED]
    for cache in _caches().values():
        cache.cache_clear()
    cleared = [_run(tmp_path, path) for path in BUNDLED]
    assert first == warm == cleared == _cold(tmp_path, BUNDLED)
    assert {code for code, *_ in first} == {0, 1, 2}  # passing, failing and malformed files


def test_a_second_pass_adds_no_entry_to_any_module_cache(tmp_path):
    # No key of a module-level cache holds an object of one run, so a run of
    # inputs already seen finds every key it builds.
    for path in BUNDLED:
        _run(tmp_path, path)
    sizes = _sizes()
    assert sizes["jetstress.fields._pair_table"] and sizes["jetstress.fields._signed_rows"]
    for path in BUNDLED:
        _run(tmp_path, path)
    assert _sizes() == sizes


def test_a_body_builds_its_faces_once():
    scenario = load_scenario((SCENARIOS / "cube-order2.json").read_text(encoding="utf-8"))
    body = scenario.body
    faces = geometry.boundary_faces(body)
    assert all(a is b for a, b in zip(faces, geometry.boundary_faces(body)))
    groups = geometry.face_groups(body)
    again = geometry.face_groups(body)
    assert all(a[0] is b[0] for a, b in zip(groups, again))
    # The members of a group are the body's faces, not copies.
    assert [m for _, members in groups for m in members] == faces
    # Every check reads the same groups: the two faces of each axis.
    assert [len(members) for _, members in groups] == [2, 2, 2]
    # A body loaded again builds faces of its own.
    other = load_scenario((SCENARIOS / "cube-order2.json").read_text(encoding="utf-8")).body
    assert not set(map(id, geometry.boundary_faces(other))) & set(map(id, faces))


def _patched(patch):
    doc = generate_scenario(5, 2, 1, 2)
    doc["geometry"] = {"chart_box": [[-3.0, 3.0]] * 2, "body_box": [[-0.0, 1.0], [0.0, 0.5]],
                       "quad_order": 4, "patch": patch}
    doc["checks"] = ["balance1", "balance2"]
    return doc


def test_two_bodies_of_one_box_integrate_over_their_own_face_maps(tmp_path):
    docs = [_patched(["x1 + 0.1*x2^2", "x2"]), _patched(["x1", "x2 + 0.2*x1^2"])]
    paths = []
    for k, doc in enumerate(docs):
        paths.append(tmp_path / f"patched-{k}.json")
        paths[-1].write_text(json.dumps(doc), encoding="utf-8")
    # Both loaded before either runs, then run in turn in this process.
    scenarios = [load_scenario(doc) for doc in docs]
    faces = [geometry.boundary_faces(s.body) for s in scenarios]
    assert not set(map(id, faces[0])) & set(map(id, faces[1]))
    # Each face map carries its own body's patch: at the middle of x1-upper,
    # (1.0, 0.25) goes to (1.00625, 0.25) and to (1.0, 0.45).
    assert [chart_point(own[1], (0.25,)) for own in faces] == [(1.00625, 0.25), (1.0, 0.45)]
    reports = ["\n".join(run_checks(s, s.checks).lines()) + "\n" for s in scenarios]
    assert reports[0] != reports[1]
    # Each equals its run in a process of its own.
    for path, report in zip(paths, reports):
        [(code, _, err, data)] = _cold(tmp_path, [path])
        assert (code, err) == (0, "")
        assert data.decode() == report
