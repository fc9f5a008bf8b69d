"""Every name in a ``jetstress`` module's ``__all__`` resolves on that module,
so a deleted or renamed helper cannot leave a stale export behind."""

import importlib
import pkgutil

import pytest

import jetstress

MODULES = sorted(m.name for m in pkgutil.iter_modules(jetstress.__path__, "jetstress."))


def test_the_package_has_its_modules():
    assert {"jetstress.geometry", "jetstress.scenarios", "jetstress.surface"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [attr for attr in exported if not hasattr(module, attr)] == []
