"""The branch collector of tools/branch_coverage.py on a toy module."""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "branch_coverage.py"

TOY = '''\
"""A toy module."""


def f(x):
    """Sum the odd numbers below x."""
    total = 0
    for i in range(x):
        if i % 2:
            total += i
        elif i > 100:
            total -= 1
    while total > 100:
        total -= 1
    if [k for k in range(x) if k]:
        total += 1
    return total


def g(x):
    if int(x):
        return 1


def h(x):
    if any(k for k in x):
        return 1
    return 0
'''


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_toy_module(tmp_path):
    collector = _load("branch_coverage", TOOL)
    path = tmp_path / "toy.py"
    path.write_text(TOY)

    def run():
        toy = _load("toy", path)
        assert (toy.f(3), toy.f(0), toy.h([1])) == (2, 0, 1)
        try:
            toy.g("a")  # int("a") raises in the head: neither direction is taken
        except ValueError:
            pass

    outer = sys.gettrace()
    arcs = collector.collect(run, tmp_path)
    assert sys.gettrace() is outer
    assert collector.untaken(TOY, arcs[str(path)]) == [
        (10, "if true"), (11, "statement"),  # the elif
        (12, "while true"), (13, "statement"),
        (20, "if false"), (20, "if true"), (21, "statement"),
        (25, "if false"), (27, "statement"),  # the generator's frame is not a direction
    ]
