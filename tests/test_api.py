"""Every name a mesoweyl module exports in ``__all__`` exists, so
``from mesoweyl.<module> import *`` works after a name is pruned."""

import importlib
import pkgutil

import pytest

import mesoweyl

MODULES = ["mesoweyl"] + [f"mesoweyl.{m.name}" for m in pkgutil.iter_modules(mesoweyl.__path__)
                          if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
