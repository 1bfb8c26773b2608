"""Every name a module exports in `__all__` resolves, so that deleting a
function cannot leave a stale export behind."""

import importlib
import pkgutil

import pytest

import detproc

_MODULES = [detproc] + [importlib.import_module(f"detproc.{info.name}")
                        for info in pkgutil.iter_modules(detproc.__path__)]


@pytest.mark.parametrize("module", [m for m in _MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(module, name)] == []

