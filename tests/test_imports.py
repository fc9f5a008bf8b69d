"""Every module of the package uses each name it imports, and importing the
package generates no code.

No lint tool runs on the package, so this reads each module with the
standard library's ``ast``: a name that an import binds must be read
somewhere in the module.  ``__init__`` is left out, as it imports names
to export them, and ``from __future__`` imports bind no name.
"""

import ast
import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import jetstress
import jetstress.cli

PACKAGE = Path(jetstress.__file__).resolve().parent
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_the_package_has_modules_to_read():
    assert {"geometry.py", "balance.py", "scenarios.py"} <= {path.name for path in MODULES}


def test_an_unused_import_is_found():
    assert unused_imports("import math\nfrom os import path, sep\nprint(sep)\n") == [
        "math", "path"]
    assert unused_imports("from __future__ import annotations\nimport numpy as np\nnp.pi\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_every_module_uses_each_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_importing_the_package_defines_no_dataclass():
    """Most of a fresh ``jetstress run`` is interpreter start and import, and
    a dataclass compiles its generated methods (``__init__``, ``__eq__``,
    ``__repr__``, and more) with ``exec`` at every import, bytecode cache or
    not: about 1 ms a class.  So every class of the package is a plain class,
    and importing the CLI, in a fresh interpreter, leaves the ``dataclasses``
    module unloaded (numpy does not load it)."""
    probe = "import sys, jetstress.cli; print('dataclasses' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "False\n"
    modules = [module for name, module in sys.modules.items()
               if name == "jetstress" or name.startswith("jetstress.")]
    assert len(modules) > 10
    classes = [cls for module in modules for cls in vars(module).values()
               if inspect.isclass(cls) and cls.__module__ == module.__name__]
    assert [cls.__qualname__ for cls in classes if dataclasses.is_dataclass(cls)] == []


def test_importing_the_package_loads_no_hashlib():
    """``hashlib`` loads OpenSSL's ``_hashlib``, about 5 ms of a fresh import,
    and only the report digest of ``scenarios.load_scenario`` needs it, so
    it is imported there; numpy does not load it either."""
    probe = "import sys, jetstress; print('hashlib' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "False\n"
