"""Every name a module exports resolves, so no deleted name lingers in __all__."""

import importlib
import pkgutil

import pytest

import wigentropy

MODULES = ["wigentropy"] + [f"wigentropy.{info.name}"
                            for info in pkgutil.iter_modules(wigentropy.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
