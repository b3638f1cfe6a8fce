"""Every name a mesoweyl module exports in ``__all__`` exists, so
``from mesoweyl.<module> import *`` works after a name is pruned, and every
module imports on its own, so moving a name between modules leaves no
circular import.  Every function the benchmark's tracer counts by name is
defined, so a renamed function cannot leave its counter reading 0 unseen."""

import ast
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


TRACING = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench", "tracing.py")

# names perfbench/tracing.py counts that no longer exist: the Bessel helpers
# that specfun.bessel_j_harmonics and specfun.bessel_ive_all replaced, and
# the drive coefficients that states.weyl_time_average(state, c, k) replaced
KNOWN_STALE = {
    "specfun.bessel_i", "specfun.bessel_i_all", "specfun.bessel_j", "specfun.bessel_j_all",
    "states.weyl_drive_coeffs",
}


class StaleTracedNames(AssertionError):
    pass


def _traced_names():
    """The dotted names the tracer counts: its BESSEL list and every string
    passed to ``calls(...)`` or compared inside ``self_s(...)``."""
    with open(TRACING, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "BESSEL" for t in node.targets):
            names.update(ast.literal_eval(node.value))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("calls", "self_s"):
            names.update(c.value for arg in node.args for c in ast.walk(arg)
                         if isinstance(c, ast.Constant) and isinstance(c.value, str))
    return names


def _is_defined(name):
    layer, *path = name.split(".")
    obj = importlib.import_module(f"mesoweyl.{layer}")
    for attr in path:
        obj = getattr(obj, attr, None)
    return callable(obj)


@pytest.mark.xfail(strict=True, raises=StaleTracedNames, reason=(
    "perfbench/tracing.py still counts the names in KNOWN_STALE; the next "
    "benchmark change points them at the functions that replaced them"
))
def test_every_function_the_benchmark_traces_is_defined():
    names = _traced_names()
    assert len(names) >= 10 and "states.weyl" in names
    missing = {name for name in names if not _is_defined(name)}
    # a name going stale beyond the known ones is a plain failure
    assert missing <= KNOWN_STALE, sorted(missing - KNOWN_STALE)
    if missing:
        raise StaleTracedNames(sorted(missing))
