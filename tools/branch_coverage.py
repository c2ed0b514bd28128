"""List the statements and if/while/for directions of src/banachlab that Tier-1 never takes.

    PYTHONPATH=src python tools/branch_coverage.py [PYTEST_ARGS...]

runs pytest in this process under `sys.settrace` and prints `path:line statement`,
`path:line if false` and so on.  An arc is a step from line to line in a frame, minus the
code's first line standing for entry or exit.  A statement ran when an arc enters its head
(a compound one's lines before its body).  A direction is true when an arc leaves the head
for the body's first statement; false, for anywhere else but code that starts in the head.
Line events miss one-line and/or and conditional expressions.  Tracing slows the run
several-fold, which can trip a wall-time bound: this reports coverage, not verdicts.
"""

import ast
import os
import sys
from pathlib import Path

SRC = Path(os.path.abspath(__file__)).parent.parent / "src" / "banachlab"


def collect(run, root) -> dict:
    """Call run() under tracing; the arcs of each file under root, by its code's file name."""
    root, arcs, last = os.path.abspath(root) + os.sep, {}, {}

    def trace(frame, event, arg):  # one function for every frame: no cycle through frames
        code, key = frame.f_code, id(frame)
        if event == "call":
            if not code.co_filename.startswith(root):
                return None
            last[key] = -code.co_firstlineno
        elif event == "exception":  # where the frame goes next is no branch direction
            last[key] = None
        else:  # a line, or the frame's exit
            line = frame.f_lineno if event == "line" else -code.co_firstlineno
            arcs.setdefault(code.co_filename, set()).add((last[key], line))
            last[key] = line
        return trace

    outer = sys.gettrace()  # a collector may run inside another one's run
    sys.settrace(trace)
    try:
        run()
    finally:
        sys.settrace(outer)
    return arcs


def _head(s: ast.stmt) -> set:
    first = min([s.lineno] + [d.lineno for d in getattr(s, "decorator_list", [])])
    body = getattr(s, "body", None)
    return set(range(first, max(body[0].lineno, s.lineno + 1) if body else s.end_lineno + 1))


def untaken(source: str, arcs: set) -> list:
    """(line, what) for each statement and if/while/for direction no arc takes, by line."""
    tree, found, into = ast.parse(source), [], {b for _, b in arcs}
    docs = {id(n.body[0]) for n in ast.walk(tree) if isinstance(n, (ast.Module, ast.ClassDef,
            ast.FunctionDef, ast.AsyncFunctionDef)) and ast.get_docstring(n)}
    for s in ast.walk(tree):
        if not isinstance(s, ast.stmt) or isinstance(s, (ast.Global, ast.Nonlocal)) \
                or id(s) in docs:
            continue
        if not (head := _head(s)) & into:
            found.append((s.lineno, "statement"))
        if isinstance(s, (ast.If, ast.While, ast.For)):
            body, dest = _head(s.body[0]), {b for a, b in arcs if a in head}
            other = dest - body - head - {-a for a in head}
            for way, taken in (("true", dest & body), ("false", other)):
                if not taken:
                    found.append((s.lineno, f"{type(s).__name__.lower()} {way}"))
    return sorted(found)


if __name__ == "__main__":
    import pytest
    found = collect(lambda: pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[1:]]), SRC)
    for path in sorted(SRC.glob("*.py")):
        for line, what in untaken(path.read_text(), found.get(str(path), set())):
            print(f"{path.relative_to(SRC.parent.parent)}:{line} {what}")
