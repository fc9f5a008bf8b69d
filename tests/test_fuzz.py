"""Mutated scenario documents through ``jetstress run``.

Each mutant is a bundled scenario with one change: a key deleted, a list
entry dropped or appended, or a value replaced by a hostile one (a
non-finite or huge number, an expression that fails or overflows, a value
of the wrong type).  Whatever the input, the CLI exits 0, 1 or 2 without a
traceback, and an exit-2 message starts with the key path of what is wrong
(Claessen & Hughes, "QuickCheck", ICFP 2000; MacIver et al., "Hypothesis",
JOSS 2019).  A batch of nodes that must be read node by node stays inside
``fields.on_nodes``, so it never reaches the user either.
"""

import contextlib
import copy
import io
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from jetstress.cli import main

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
DOCUMENTS = {path.stem: json.loads(path.read_text(encoding="utf-8"))
             for path in sorted(SCENARIOS.glob("*.json"))}

HOSTILE = (
    math.nan, math.inf, -math.inf, 1e308, -1e308, 1e-320, 0, -1,
    "1/0", "log(-1)", "exp(800*x1)", "x1^-400", "sqrt(x1 - 5)", "x1 +", "",
    None, True, "abc", [], [1.0], {}, {"expr": 3},
)

# ``error: `` and a key path: dotted keys with list positions, then ``: ``.
KEYED = re.compile(r"error: [A-Za-z_][\w-]*(\.[\w|-]+|\[\d+\])*: \S")


def positions(value, path=()):
    """The path of every key and list entry of a document."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield path + (key,)
        yield from positions(item, path + (key,))


@st.composite
def mutants(draw):
    doc = copy.deepcopy(DOCUMENTS[draw(st.sampled_from(sorted(DOCUMENTS)))])
    *parents, last = draw(st.sampled_from(list(positions(doc))))
    parent = doc
    for key in parents:
        parent = parent[key]
    action = draw(st.sampled_from(("remove", "append", "set")))
    if action == "remove":
        del parent[last]
    elif action == "append" and isinstance(parent[last], list) and parent[last]:
        parent[last].append(copy.deepcopy(parent[last][-1]))
    else:
        parent[last] = draw(st.sampled_from(HOSTILE))
    return doc


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=400, deadline=10_000,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=mutants())
def test_a_mutated_document_exits_0_1_or_2_and_keys_its_error(doc, tmp_path):
    scenario = tmp_path / "mutant.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["run", "--scenario", str(scenario)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert KEYED.match(err.getvalue()), err.getvalue()
    else:
        assert err.getvalue() == ""
        assert all(json.loads(line) for line in out.getvalue().splitlines())
