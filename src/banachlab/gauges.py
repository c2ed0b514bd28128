"""Gauge functions f: [1, inf) -> [1, inf) and their class checks.

A gauge is admissible (class check) when f(1) = 1 with f(x) < x for
x > 1, x/f(x) is concave, and f is submultiplicative.  All checks are
numeric, over a finite grid; concavity is tested through second divided
differences.  The canonical gauge is f(x) = log2(x + 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, List, Sequence, Tuple

from .errors import ValidationError

__all__ = [
    "GaugeFunction",
    "GaugeClassReport",
    "LOG2P1",
    "SQRT",
    "ONE",
    "gauge_by_name",
    "default_grid",
    "check_gauge_class",
    "check_prop5_hypothesis",
]

#: absolute tolerance for every gauge inequality check
CHECK_TOL = 1e-10
#: points per doubling of `default_grid`
GRID_PER_OCTAVE = 8


@dataclass(frozen=True)
class GaugeFunction:
    """A gauge: evaluator plus a display name; equality takes both, as caches key on it."""

    name: str
    fn: Callable[[float], float] = field(repr=False)

    def __call__(self, x: float) -> float:
        if x < 1.0:
            raise ValidationError(f"gauge {self.name} evaluated at x = {x} < 1")
        return self.fn(x)


LOG2P1 = GaugeFunction("log2p1", lambda x: math.log2(x + 1.0))
SQRT = GaugeFunction("sqrt", math.sqrt)
ONE = GaugeFunction("one", lambda x: 1.0)
IDENTITY = GaugeFunction("identity", lambda x: x)

_NAMED = {f.name: f for f in (LOG2P1, SQRT, ONE, IDENTITY)}
GAUGE_TOKENS = frozenset(_NAMED) | {"pow"}  # the first token of each name; pow:<a> has two


@lru_cache(maxsize=64)  # one object per name, so parsed descriptors compare equal
def gauge_by_name(name: str) -> GaugeFunction:
    """Resolve a CLI gauge name: log2p1, sqrt, one, identity, pow:<a>."""
    if name in _NAMED:
        return _NAMED[name]
    if name.startswith("pow:"):
        try:
            a = float(name[4:])
        except ValueError:
            raise ValidationError(f"bad power gauge {name!r}") from None
        if not 0.0 < a <= 1.0:
            raise ValidationError(f"pow gauge needs exponent in (0, 1], got {a}")
        return GaugeFunction(name, lambda x, a=a: x**a)
    raise ValidationError(f"unknown gauge {name!r}")


def default_grid(top_exponent: int = 20) -> List[float]:
    """Geometric grid 1 .. 2**top_exponent with ratio 2**(1/GRID_PER_OCTAVE)."""
    n = top_exponent * GRID_PER_OCTAVE
    return [1.0] + [2.0 ** (k / GRID_PER_OCTAVE) for k in range(1, n + 1)]


@dataclass
class GaugeClassReport:
    """Outcome of the admissibility checks over one grid."""

    condition1_ok: bool
    condition2_ok: bool
    condition3_ok: bool
    condition_prop5_ok: bool
    worst_violation: float
    witness: List[float]

    @property
    def in_class(self) -> bool:
        return self.condition1_ok and self.condition2_ok and self.condition3_ok


def check_gauge_class(
    f: GaugeFunction,
    grid: Sequence[float] | None = None,
    prop5_a: float = 0.1,
) -> GaugeClassReport:
    """Run the three admissibility checks (plus the decay hypothesis).

    Condition 1 is pointwise: f(1) = 1, f nondecreasing with f(x) >= 1,
    and f(x) < x strictly for grid points x > 1.  Condition 2 tests
    concavity of x/f(x) by requiring nonpositive second divided
    differences over consecutive grid triples.  Condition 3 tests
    f(xy) <= f(x) f(y) on all grid pairs with xy <= max(grid).
    """
    if grid is None:
        grid = default_grid()
    grid = list(grid)
    if len(grid) < 3 or grid[0] != 1.0 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValidationError("grid must be sorted, start at 1, and have >= 3 points")

    vals = [f(x) for x in grid]
    worst = 0.0
    witness: List[float] = []

    def flag(violation: float, x: float) -> bool:
        nonlocal worst
        if violation > CHECK_TOL:
            worst = max(worst, violation)
            if x not in witness:
                witness.append(x)
            return True
        return False

    # (1) f(1)=1, f(x)<x for x>1, nondecreasing, f >= 1
    cond1 = True
    if flag(abs(vals[0] - 1.0), grid[0]):
        cond1 = False
    prev = vals[0]
    for x, fx in zip(grid[1:], vals[1:]):
        if flag(fx - x + 2 * CHECK_TOL, x):  # strict f(x) < x: equality must fail
            cond1 = False
        if flag(prev - fx, x):  # nondecreasing
            cond1 = False
        if flag(1.0 - fx, x):
            cond1 = False
        prev = fx

    # (2) concavity of g(x) = x/f(x): second divided differences <= 0
    cond2 = True
    g = [x / fx for x, fx in zip(grid, vals)]
    for k in range(len(grid) - 2):
        x0, x1, x2 = grid[k : k + 3]
        dd = ((g[k + 2] - g[k + 1]) / (x2 - x1) - (g[k + 1] - g[k]) / (x1 - x0)) / (x2 - x0)
        if flag(dd, x1):
            cond2 = False

    # (3) submultiplicativity on grid pairs with product inside the grid span
    cond3 = True
    top = grid[-1]
    for i, x in enumerate(grid):
        for y in grid[i:]:
            xy = x * y
            if xy > top:
                break
            if flag(f(xy) - f(x) * f(y), xy):
                cond3 = False

    prop5_ok, _ = check_prop5_hypothesis(f, prop5_a)
    return GaugeClassReport(cond1, cond2, cond3, prop5_ok, worst, witness)


def check_prop5_hypothesis(f: GaugeFunction, a: float) -> Tuple[bool, List[Tuple[float, float]]]:
    """Decide whether f(x) * x**(-a) decays along the tail of the grid.

    Accepts when the sampled ratio t(x) peaks strictly before the end of
    the grid, is nonincreasing beyond its peak, and has dropped to at
    most 90% of the peak by the last point.  Returns the decision and the
    sampled (x, t) table.
    """
    if not 0.0 < a < math.inf:
        raise ValidationError(f"decay check needs finite a > 0, got {a}")
    trend = [(x, f(x) * x ** (-a)) for x in default_grid(top_exponent=30)]
    ts = [t for _, t in trend]
    peak = max(range(len(ts)), key=lambda i: ts[i])
    ok = peak < len(ts) - 1
    if ok:
        tail = ts[peak:]
        ok = all(b <= t0 * (1 + 1e-12) for t0, b in zip(tail, tail[1:]))
    if ok:
        ok = ts[-1] <= 0.9 * ts[peak]
    return ok, trend
