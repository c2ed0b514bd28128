"""The mutation runner of tools/mutants.py on a toy package, and its list on src/."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"


def _load():
    spec = importlib.util.spec_from_file_location("mutants", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_toy_package(tmp_path):
    tool = _load()
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "toy.py").write_text("def half(x):\n    return x / 2\n\n\n"
                                             "def twice(x):\n    return 2 * x\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_toy.py").write_text(
        "from toy import half, twice\n\n\ndef test_one():\n    assert twice(1) == 2\n\n\n"
        "def test_half():\n    assert half(4) == 2\n")
    (tmp_path / "tests" / "test_mutants.py").write_text("def test_left_out():\n    assert False\n")
    mutant = tool.Mutant
    assert tool.verdict(mutant("a third", "src/toy.py", "x / 2", "x / 3", "soundness"),
                        tmp_path) == "tests/test_toy.py::test_half"
    assert tool.verdict(mutant("a sum", "src/toy.py", "2 * x", "x + x", "benign"),
                        tmp_path) == "SURVIVED"
    assert tool.verdict(mutant("gone", "src/toy.py", "x ** 2", "x", "speed"),
                        tmp_path) == "STALE"
    assert (tmp_path / "src" / "toy.py").read_text().count("x / 2") == 1  # the copy changed


def test_every_mutant_applies_to_src():
    tool = _load()
    assert len({m.name for m in tool.MUTANTS}) == len(tool.MUTANTS)
    for m in tool.MUTANTS:
        assert m.kind in ("soundness", "speed", "benign")
        assert (tool.ROOT / m.file).read_text().count(m.old) == 1, m.name
