"""Every module of the package uses each name it imports.

No lint tool runs on the package, so this reads each module with the
standard library's ``ast``: a name that an import binds must be read
somewhere in the module.  ``__init__`` is left out, as it imports names
to export them, and ``from __future__`` imports bind no name.
"""

import ast
from pathlib import Path

import pytest

import jetstress

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
