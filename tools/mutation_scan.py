"""Mutation score of the ``verify`` suites over named functions.

Each mutant flips one arithmetic operator inside one function: ``+`` with
``-`` or ``*`` with ``/`` (augmented assignments included).  The mutated
module is written into a fresh copy of the package, and a fresh Python
process runs the chosen ``verify`` suites on that copy under a timeout, one
mutant at a time.  A failed suite, an exception or a timeout counts as
caught; a mutant that passes every suite survives.  The unmutated copy must
pass first, or the scan stops.

Run it by hand from the repository root, for example::

    python tools/mutation_scan.py states.weyl squid.ratio_c_ent_number
    python tools/mutation_scan.py --suites squid --src other/src squid.ratio_c_ent_number

Functions are named ``module.function`` after the ``mesoweyl`` package;
only module-level functions are searched, and a target that names none
exits 2 before any suite runs.  ``--src`` is the directory that
holds the package (``src`` of this repository by default), so the same scan
can score another tree.  It uses only the standard library.
"""

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SUITES = ("weyl-oracle", "flux-stats", "autocorr", "twomode", "squid")
# seconds per mutant run: all five suites take about 1 s, so only a mutant
# that loops or sizes a huge table reaches it
TIMEOUT = 300.0
FLIPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult}
SYMBOLS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}

# exits 0 when every suite passes, 1 when one fails; an exception exits 1 too
RUNNER = """
import sys
from mesoweyl import verify
sys.exit(0 if all(verify.run_suite(name)["passed"] for name in sys.argv[1:]) else 1)
"""


def _function(tree: ast.Module, name: str) -> ast.FunctionDef:
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    raise LookupError(f"no module-level function {name!r}")


def _sites(func: ast.FunctionDef) -> list:
    """The operator nodes a mutant may flip, in source order."""
    nodes = [n for n in ast.walk(func) if isinstance(n, (ast.BinOp, ast.AugAssign)) and type(n.op) in FLIPS]
    return sorted(nodes, key=lambda n: (n.lineno, n.col_offset))


def mutants(source: str, name: str):
    """(line, description, mutated source) for every flip inside the
    function ``name`` of the module ``source``."""
    count = len(_sites(_function(ast.parse(source), name)))
    for i in range(count):
        tree = ast.parse(source)
        node = _sites(_function(tree, name))[i]
        old = type(node.op)
        node.op = FLIPS[old]()
        yield node.lineno, f"{SYMBOLS[old]} -> {SYMBOLS[FLIPS[old]]}", ast.unparse(tree)


def _target_error(src: Path, target: str):
    """Why ``target`` names no module-level function of the package under
    ``src``, or None when it does."""
    module, _, name = target.rpartition(".")
    if not module or not name:
        return f"target {target!r} is not module.function"
    path = src / "mesoweyl" / f"{module}.py"
    if not path.is_file():
        return f"target {target!r}: no module mesoweyl.{module} under {src}"
    try:
        _function(ast.parse(path.read_text()), name)
    except LookupError as exc:
        return f"target {target!r}: {exc} in mesoweyl.{module}"
    return None


def _passes(src: Path, suites) -> bool:
    env = dict(os.environ, PYTHONPATH=str(src))
    try:
        done = subprocess.run([sys.executable, "-c", RUNNER, *suites], env=env, cwd=src,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def scan(src: Path, targets, suites):
    """Print each target's score and its surviving mutants."""
    with tempfile.TemporaryDirectory(prefix="mutation-scan-") as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(src / "mesoweyl", copy / "mesoweyl", ignore=shutil.ignore_patterns("__pycache__"))
        if not _passes(copy, suites):
            raise SystemExit("the unmutated package fails the chosen suites")
        for target in targets:
            module, _, name = target.rpartition(".")
            path = copy / "mesoweyl" / f"{module}.py"
            original = path.read_text()
            caught, survivors, total = 0, [], 0
            try:
                for line, flip, mutated in mutants(original, name):
                    total += 1
                    path.write_text(mutated)
                    if _passes(copy, suites):
                        survivors.append(f"line {line}: {flip}")
                    else:
                        caught += 1
            finally:
                path.write_text(original)
            print(f"{target}: {caught} of {total} caught", flush=True)
            for s in survivors:
                print(f"  survives: {s}", flush=True)


def main(argv=None):
    here = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("targets", nargs="+", help="functions as module.function, e.g. states.weyl")
    parser.add_argument("--suites", default=",".join(SUITES),
                        help="comma-separated verify suites (default: all five)")
    parser.add_argument("--src", type=Path, default=here / "src", help="directory holding the mesoweyl package")
    args = parser.parse_args(argv)
    suites = [s for s in args.suites.split(",") if s]
    unknown = sorted(set(suites) - set(SUITES))
    if unknown:
        parser.error(f"unknown suites {unknown}; choose from {list(SUITES)}")
    src = args.src.resolve()
    # every target is checked before the unmutated run, so a typo costs nothing
    for target in args.targets:
        error = _target_error(src, target)
        if error:
            parser.error(error)
    scan(src, args.targets, suites)


if __name__ == "__main__":
    main()
