"""Every module-level function and class method of the package is entered by
what the package is for, or is on ``IDLE`` with the reason it stays.

One fresh interpreter runs under ``sys.setprofile``: every bundled scenario,
``generate`` then ``run`` at three (n, d, degree) shapes, and the README's
library example.  A function or method of ``jetstress`` that none of them
enters, imports included, must be on ``IDLE``; a name on ``IDLE`` that is
entered fails too, so the list cannot go stale.  A name leaves ``IDLE`` when
a check id reaches it, or leaves the package.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import jetstress

PACKAGE = Path(jetstress.__file__).resolve().parent
ROOT = PACKAGE.parents[1]

IDLE = {
    # Paper claims the library computes and no check id runs yet.
    "balance.first_integration_by_parts": "claim waiting for a check id (ibp1)",
    "stress.section_pairing_form": "claim waiting for a check id",
    "nonholonomic.hyper_surface_action": "claim waiting for a check id: first_integration_by_parts reads it",
    "bundles.holonomy_class": "claim waiting for a check id: the holonomy class of velocity.section",
    "surface.tangent_edge_force": "claim waiting for a check id: the edge force of a tangent face stress",
    "surface.TransversalField.axis": "the reference transversal of tangent_edge_force",
    "fields.SmoothField.constant": "the constant transversal of TransversalField.axis",
    # Reached only when a document is malformed.
    "exprs._too_deep": "error path: an expression nested deeper than MAX_DEPTH",
    # Public API the engine bypasses with its trusted constructor.
    "taylor.TruncatedSeries.__init__": "the validating public constructor",
    "taylor.TruncatedSeries.coefficient": "the public accessor of one coefficient",
    # perfbench/tracing.py reads both from TruncatedSeries.__dict__ (TAYLOR_METHODS).
    "taylor.TruncatedSeries.__rsub__": "a binding the benchmark tracer wraps",
    "taylor.TruncatedSeries.__rtruediv__": "a binding the benchmark tracer wraps",
    # Debug output.
    "taylor.TruncatedSeries.__repr__": "debug output",
    "geometry.FormValue.__repr__": "debug output",
}

# (n, d, degree) shapes of the generated documents.
SHAPES = ((2, 1, 3), (3, 2, 4), (4, 1, 4))

PROBE = r"""
import contextlib, importlib, inspect, io, json, pkgutil, re, sys
from pathlib import Path

root, out = Path(sys.argv[1]), Path(sys.argv[2])
shapes = json.loads(sys.argv[3])
entered = set()


def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


sys.setprofile(profile)
import jetstress
import jetstress.cli

package = Path(jetstress.__file__).resolve().parent
readme = (root / "README.md").read_text(encoding="utf-8")
example = readme.split("\n## Library example\n", 1)[1].split("\n## ", 1)[0]
[example] = re.findall(r"```python\n(.*?)```", example, re.S)

runs = [["run", "--scenario", str(path), "--report", str(out / "report.jsonl")]
        for path in sorted((root / "scenarios").glob("*.json"))]
for n, d, degree in shapes:
    document = str(out / f"generated-{n}-{d}-{degree}.json")
    runs += [["generate", "--seed", "3", "--n", str(n), "--d", str(d), "--degree", str(degree),
              "--out", document],
             ["run", "--scenario", document, "--report", str(out / "report.jsonl")]]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in runs:
        jetstress.cli.main(argv)
    exec(compile(example, "README.md", "exec"), {})
sys.setprofile(None)


def codes(module):
    # (name, code) of each function and method defined in the module's file.
    for name, obj in vars(module).items():
        if inspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr, raw in vars(obj).items():
                raw = raw.fget if isinstance(raw, property) else getattr(raw, "__func__", raw)
                yield f"{name}.{attr}", getattr(inspect.unwrap(raw), "__code__", None)
        elif callable(obj) and getattr(obj, "__module__", None) == module.__name__:
            yield name, getattr(inspect.unwrap(obj), "__code__", None)


idle = []
for info in pkgutil.iter_modules(jetstress.__path__, "jetstress."):
    module = importlib.import_module(info.name)
    short = info.name.split(".", 1)[1]
    for name, code in codes(module):
        if code is not None and Path(code.co_filename).parent == package and code not in entered:
            idle.append(f"{short}.{name}")
print(json.dumps(sorted(set(idle))))
"""


def test_every_function_is_entered_or_says_why_it_stays(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    result = subprocess.run(
        [sys.executable, "-c", PROBE, str(ROOT), str(tmp_path), json.dumps(SHAPES)],
        env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    idle = set(json.loads(result.stdout))
    assert sorted(idle - set(IDLE)) == [], "never entered: give it a check id, or delete it"
    assert sorted(set(IDLE) - idle) == [], "entered: take it off IDLE"
