"""Every name a mesoweyl module exports in ``__all__`` exists, so
``from mesoweyl.<module> import *`` works after a name is pruned, and every
module imports on its own, so moving a name between modules leaves no
circular import."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import mesoweyl

MODULES = ["mesoweyl"] + [f"mesoweyl.{m.name}" for m in pkgutil.iter_modules(mesoweyl.__path__)
                          if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_each_module_imports_alone_in_a_fresh_interpreter(name):
    # a circular import shows only when its module is the first one loaded
    src = os.path.dirname(os.path.dirname(mesoweyl.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", f"import {name}"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
