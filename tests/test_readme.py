"""The README names only what exists.

Each backticked ``module.name[.attr]`` of a ``jetstress`` module resolves by
``getattr``, and each backticked repository path exists, a ``tests/...py``
path with a ``::name`` defining that name.  Scenario key paths that read
like module names (``geometry.chart_box``, ``stress.order2.s2``) are told
apart by ``scenarios._KEYS``.  Without this, a README that names internals
goes stale with the next rename.
"""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import jetstress
from jetstress import scenarios

REPO = Path(__file__).resolve().parents[1]
MODULES = {m.name for m in pkgutil.iter_modules(jetstress.__path__)}

# The inline code spans of the README, fenced blocks left out; a span may
# wrap onto the next line.
_TEXT = re.sub(r"```.*?```", "", (REPO / "README.md").read_text(encoding="utf-8"), flags=re.S)
SPANS = [" ".join(span.split()) for span in re.findall(r"`([^`]+)`", _TEXT)]

_DOTTED = re.compile(r"(?:jetstress\.)?([a-z_]+)((?:\.[A-Za-z_]\w*)*)((?:\[\d+\])*)")
_PATH = re.compile(r"((?:tests|scenarios|perfbench)/[\w./-]*)(?:::(\w+)(?:\[[^\]]*\])?)?")


def is_key_path(parts):
    """Whether ``parts`` walk the scenario keys of ``scenarios._KEYS`` from
    the top level, each a key of the object its prefix names."""
    path = ""
    for part in parts:
        if part not in scenarios._KEYS.get(path, ()):
            return False
        path = f"{path}.{part}" if path else part
    return True


def module_names():
    """(span, module, attribute names) of each span that names a module of
    the package or something in one, key paths left out; and the key paths."""
    names, keys = [], []
    for span in SPANS:
        match = _DOTTED.fullmatch(span)
        if match is None or match.group(1) not in MODULES:
            continue
        attrs = [part for part in match.group(2).split(".") if part]
        if is_key_path([match.group(1)] + attrs):
            keys.append(span)
        else:
            names.append((span, match.group(1), attrs))
    return names, keys


def defined_names(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def test_the_spans_cover_module_names_and_key_paths():
    names, keys = module_names()
    assert {"fields.BATCH", "geometry.NODE_BUDGET", "jetstress.taylor"} <= {n[0] for n in names}
    assert {"geometry.chart_box", "stress.order1", "stress.raw.x3[0][1][2]"} <= set(keys)


def test_every_module_name_the_readme_gives_resolves():
    missing = []
    for span, module, attrs in module_names()[0]:
        obj = importlib.import_module(f"jetstress.{module}")
        for attr in attrs:
            if not hasattr(obj, attr):
                missing.append(span)
                break
            obj = getattr(obj, attr)
    assert missing == []


def test_every_path_the_readme_gives_exists_and_defines_its_test():
    paths = [match for match in map(_PATH.fullmatch, SPANS) if match]
    assert any(match.group(2) for match in paths)
    missing = []
    for match in paths:
        path = REPO / match.group(1)
        if not path.exists():
            missing.append(match.group(0))
        elif match.group(2) and match.group(2) not in defined_names(path):
            missing.append(match.group(0))
    assert missing == []
