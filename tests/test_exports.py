"""Every name in a ``jetstress`` module's ``__all__`` resolves on that module,
every name the package imports from a module is in that module's
``__all__``, and the README's library example runs, so a deleted or renamed
helper or a changed signature cannot leave a stale export or example
behind."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import jetstress

README = Path(__file__).resolve().parents[1] / "README.md"

MODULES = sorted(m.name for m in pkgutil.iter_modules(jetstress.__path__, "jetstress."))


def test_the_package_has_its_modules():
    assert {"jetstress.geometry", "jetstress.scenarios", "jetstress.surface"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [attr for attr in exported if not hasattr(module, attr)] == []


def test_the_package_exports_only_what_its_modules_export():
    tree = ast.parse(Path(jetstress.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level]
    assert len(imports) > 5
    for node in imports:
        exported = importlib.import_module(f"jetstress.{node.module}").__all__
        assert [alias.name for alias in node.names if alias.name not in exported] == []


def test_the_readme_library_example_runs(capsys):
    section = README.read_text().split("\n## Library example\n", 1)[1].split("\n## ", 1)[0]
    [block] = re.findall(r"```python\n(.*?)```", section, re.S)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["residual"] <= 1e-10
    assert capsys.readouterr().out.strip()
