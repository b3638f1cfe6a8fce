import ast
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "mutation_scan.py"
_SPEC = importlib.util.spec_from_file_location("mutation_scan", _PATH)
mutation_scan = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutation_scan)

SOURCE = '''
def outside(a, b):
    return a + b


def target(a, b, c):
    x = a + b * c - a / b
    x += c
    x *= a ** 2 // b % c
    x -= (lambda y: y / 2)(x)
    return -x if a < b else x @ c
'''
# target's flippable sites: + * - / in its first line, += and *=, -= and the
# lambda's /; ** // % @ and the unary minus are not flipped, nor outside's +
TARGET_SITES = 8


def _sites(tree):
    """Every + - * / node of ``tree``, in walk order."""
    return [n for n in ast.walk(tree)
            if isinstance(n, (ast.BinOp, ast.AugAssign)) and type(n.op) in mutation_scan.FLIPS]


def test_one_mutant_per_site_each_flipping_one_operator():
    source = ast.parse(SOURCE)
    original = [type(n.op) for n in _sites(source)]
    mutants = list(mutation_scan.mutants(SOURCE, "target"))
    assert len(mutants) == TARGET_SITES
    flipped = set()
    for line, flip, mutated in mutants:
        tree = ast.parse(mutated)
        sites = _sites(tree)
        # the mutant has the source's tree shape, so its sites pair up with
        # the source's by walk order
        assert len(sites) == len(original)
        changed = [i for i, (old, n) in enumerate(zip(original, sites)) if type(n.op) is not old]
        assert len(changed) == 1
        (i,) = changed
        old, node = original[i], sites[i]
        assert type(node.op) is mutation_scan.FLIPS[old]
        assert line == _sites(source)[i].lineno  # the source's line, not the unparsed one's
        assert flip == f"{mutation_scan.SYMBOLS[old]} -> {mutation_scan.SYMBOLS[type(node.op)]}"
        flipped.add(i)
        # nothing else moves: flipping the operator back restores the source
        node.op = old()
        assert ast.dump(tree) == ast.dump(source)
    assert len(flipped) == TARGET_SITES
    assert all(_sites(source)[i].lineno >= 6 for i in flipped)  # none in outside


@pytest.mark.parametrize("targets", [
    ["nosuch.f"],
    ["states.nosuch"],
    ["weyl"],
    ["states."],
    ["states.weyl", "nosuch.f"],  # a bad target after a good one
    ["states.CoherentState"],     # a class is not a module-level function
])
def test_a_bad_target_exits_2_naming_it_before_any_run(monkeypatch, capsys, targets):
    def no_run(*args, **kwargs):
        raise AssertionError("a subprocess was started")

    monkeypatch.setattr(mutation_scan.subprocess, "run", no_run)
    with pytest.raises(SystemExit) as exc:
        mutation_scan.main(targets)
    assert exc.value.code == 2
    assert f"error: target {targets[-1]!r}" in capsys.readouterr().err
