"""Seed one fault at a time into src/banachlab and name the Tier-1 test that catches it.

    python tools/mutants.py

For each mutant of MUTANTS, copies the repository to a temporary directory, replaces one
text by another in one file of the copy, runs `pytest -x -q tests` there on the copy's
src/, and prints the mutant's name, its kind and the first failing test, or SURVIVED.
tests/test_mutants.py is left out: it checks that each mutant's text occurs once in src/,
which no mutated copy passes.  A mutant whose text no longer occurs exactly
once prints STALE and does not run.

Kinds: `soundness`, a fault that changes what the package answers (a value, a bracket, a
certificate, or a failure where there was an answer), which Tier-1 must catch; `speed`, a
fault that leaves every answer right and only costs time; and `benign`, one that can change
a result only to another valid one.  A mutant costs up to one Tier-1 run (about 40 s on
2 CPUs), so a full run is not part of the test suite.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(os.path.abspath(__file__)).parent.parent
TIMEOUT = 900  # seconds per mutant: a run this long counts as a hang
TIER1 = ("tests", "--ignore=tests/test_mutants.py")


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    kind: str  # soundness, speed or benign


def _m(name, file, old, new, kind="soundness"):
    return Mutant(name, "src/banachlab/" + file, old, new, kind)


MUTANTS = [
    _m("solver-certifies-at-4x-tol", "engine.py", "<= self.tol * self.best_u < math.inf",
       "<= 4.0 * self.tol * self.best_u < math.inf"),
    _m("weak-duality-without-slack", "engine.py",
       "float(y.sum() + np.maximum(self.c - ay, 0.0).sum())", "float(y.sum())"),
    _m("children-tol-16x-looser", "engine.py", "tol=max(self.tol * 0.25, 1e-10)",
       "tol=max(self.tol * 4.0, 1e-10)"),
    _m("tree-splits-on-ties", "schlumprecht.py", "if top > largest:", "if top >= largest:",
       "benign"),
    _m("lower-bound-unclamped", "engine.py", "return min(self.zscale * self.lower_u, self.value)",
       "return self.zscale * self.lower_u"),
    _m("kkt-test-at-1e-6", "engine.py", "optimal = now[4].max() <= ROUNDING * now[1]",
       "optimal = now[4].max() <= 1e-6 * now[1]"),
    _m("analytic-row-weight-1/f(n-1)", "schlumprecht.py", "[[1.0 / f(float(n))] * n]",
       "[[1.0 / f(float(n - 1))] * n]"),
    _m("(a) dual-gap-test-100x-looser", "engine.py", "DUAL_GAP_TOL = 1e-7", "DUAL_GAP_TOL = 1e-5"),
    _m("(b) dual-feasibility-at-1e-6", "engine.py", "DUAL_FEAS_TOL = 1e-9",
       "DUAL_FEAS_TOL = 1e-6"),
    _m("(c) analytic-path-within-1e-3", "schlumprecht.py", "<= 1e-15 * max(vals)",
       "<= 1e-3 * max(vals)"),
    _m("(d) holder-partner-outside-the-ball", "engine.py", "h = (y / low) ** (self.q / self.s)",
       "h = (y / low) ** (self.q / self.s) * (1.0 + 1e-9)"),
    _m("(e) dual-maximizer-not-rescaled", "engine.py", "fix = 1.0 / nv if nv > 1.0 else 1.0",
       "fix = 1.0"),
    _m("(f) mixed-lower-bound-inflated", "engine.py", "low = float(m.sum())",
       "low = float(m.sum()) * (1.0 + 1e-9)"),
    _m("(g) bland-rule-alone", "engine.py",
       "if len(bad) > 1 and self.degenerate < self._patience():", "if False:", "speed"),
    _m("(h) atom-dedup-at-1e-6", "engine.py", "> 1e-12 * f.max()", "> 1e-6 * f.max()", "benign"),
    _m("(i) upper-bound-rises-1e-9", "engine.py", "if u < self.best_u:",
       "if u < self.best_u * (1.0 + 1e-9):", "benign"),
]


def verdict(mutant: Mutant, root: Path = ROOT) -> str:
    """The first test that fails with mutant applied to a copy of root, SURVIVED or STALE."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(root, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks"))
        path = copy / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            return "STALE"
        path.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        try:
            run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p",
                                  "no:cacheprovider", *TIER1], cwd=copy, env=env,
                                 capture_output=True, text=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return f"HANG (over {TIMEOUT} s)"
    if run.returncode == 0:
        return "SURVIVED"
    for line in run.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" - ")[0].split(" ", 1)[1]
    return f"KILLED (pytest exit {run.returncode})"


if __name__ == "__main__":
    for m in MUTANTS:
        print(f"{m.name} [{m.kind}]: {verdict(m)}", flush=True)
