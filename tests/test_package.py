import importlib
import pkgutil

import pytest

import helfrich

MODULES = ["helfrich"] + [f"helfrich.{m.name}" for m in pkgutil.iter_modules(helfrich.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    # a name deleted from a module but left in its __all__ breaks star imports
    module = importlib.import_module(name)
    missing = [entry for entry in getattr(module, "__all__", []) if not hasattr(module, entry)]
    assert missing == []
