"""Norm evaluation engine for all space descriptors.

Every lattice norm here is spreading invariant: the norm of x depends
only on the absolute values of its support, in support order, not on
the coordinates.  So the evaluator has one core,

* ``norming_values(v)`` - for a positive numpy array v in support
  order, the norm value (certified upper bound for optimizer branches,
  exact up to rounding for closed forms and the DP) and the weights of
  a norming functional g at the same positions, with ||g||_* <= 1 and
  <v, g> equal to the norm up to the accuracy of its branch.

It is the only place that dispatches on the descriptor kind of a lattice
norm, and its recursion across the descriptor tree stays on arrays.
``norm``, ``norming`` and ``factorize`` are boundary wrappers: they pass
|x| in support order to the core and put the coordinates and signs back.
``norm`` keeps three exceptions: the exact closed form of lp, the
non-lattice distorted norm and the Schlumprecht norm, which reads the
DP table's top cell (`s_norm_top`) and builds no norming functional.
The caches are keyed by position too, so a vector with gaps hits the
entry of its compressed twin.

Each piece of state has one owner and one bound.  An evaluator owns its
norm cache (NORM_CACHE_SIZE entries) and the evaluators of its factors,
built on first use, so a new NormEvaluator is cold all the way down.
``get_evaluator`` is the only place evaluators are shared; its module
registry keeps REGISTRY_SIZE of them.  Every bound drops the oldest
entries first.  A cache entry holds what a cold call computes, so a hit
returns the same bits: no value depends on what was computed before.

The core drives the Calderon-product solver.  The norm of X^(1-t) Y^t
at z is max { sum_i |z_i| gx_i^(1-t) gy_i^t : gx in B(X*), gy in B(Y*) },
so every pair (gx, gy) gives a certified lower bound.  The solver is
simplicial decomposition (fully-corrective Frank-Wolfe), whose linear
oracle over B(X*) is X's norming call.  Each side keeps atoms (scaled
unit vectors and the norming functionals found so far); an lp side
keeps none, as Hölder's equality case answers the other side in closed
form.  Each round maximizes the pairing over the atoms' convex hulls
exactly, by an active-set Newton method on the atom weights, then norms
the gradient directions cx = |z| gx^-t gy^t and cy = |z| gx^(1-t) gy^(t-1):
since cx^(1-t) cy^t = |z|, they witness the upper bound
K = ||cx||^(1-t) ||cy||^t, and their norming functionals become atoms
(a reading that moves neither bound and adds no atom is repeated nearer
the atoms' mean).  The solver stops when upper - lower <= tol * upper;
it raises a ConvergenceError with the bracket when the budget of norm
evaluations runs out, or when the hull optimum meets the KKT condition
(no atom's slope beats the mixture's by more than ROUNDING) and the
oracle returns no new atom, so the lower bound is optimal up to
rounding.  A tol at or below ROUNDING is refused before the solve.

The dual of the Schlumprecht space stays Dual(S) after normalization.
Its norm (and, generically, the dual norm of any space with an exact
norming oracle) is computed by a cutting-plane LP over the polyhedral
unit ball: maximize <g, x> subject to lazily generated partition-tree
constraints; the separation oracle is the DP itself.  Each call starts
from the box alone, so the LP is a function of its input; the Dual
evaluator caches its whole results (value and maximizer) like norms.
The LPs are small (one variable per support point plus the call's own
cuts), so one dense simplex tableau in numpy serves a whole call: each
new cut is one more row, and dual simplex pivots restart from the
previous optimal basis.  The LP's upper end comes from its dual
multipliers by weak duality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from .descriptors import (
    CalderonProduct,
    Convexified,
    Dual,
    Lp,
    Schlumprecht,
    SpaceDescriptor,
    YDistortion,
    conjugate_exponent,
    dual_descriptor,
    space_to_str,
)
from .errors import (
    ConvergenceError,
    UnsupportedSpaceError,
    ValidationError,
)
# s_norm stays bound here: perfbench's tracer wraps it by name in this module
from .schlumprecht import s_norm, s_norm_top, s_norm_weights
from .vectors import SeqVector, lp_norm, pairing

__all__ = [
    "NormingResult",
    "Factorization",
    "NormEvaluator",
    "get_evaluator",
    "calderon_norm",
]

# default relative tolerance; only the Calderon solver and _child read it
TOL_ITERATIVE = 1e-6

DEFAULT_BUDGET = 10_000

# bounds on evaluator state; each drops its oldest entries first
NORM_CACHE_SIZE = 1 << 14  # norms (dual results on Dual) cached per evaluator
REGISTRY_SIZE = 64  # evaluators shared by get_evaluator

# stopping rules of the dual cutting-plane LP
DUAL_FEAS_TOL = 1e-9  # an LP vertex this close to the ball counts as feasible
DUAL_GAP_TOL = 1e-7  # relative gap that closes the bracket otherwise
DUAL_MAX_ROUNDS = 400


class NormingResult(NamedTuple):
    value: float
    functional: SeqVector


@dataclass
class Factorization:
    """Witness |z| = |x|^(1-theta) |y|^theta with balanced norms."""

    x: SeqVector
    y: SeqVector
    achieved_value: float
    lower_bound: float

    @property
    def relative_gap(self) -> float:
        if self.achieved_value == 0.0:
            return 0.0
        return (self.achieved_value - self.lower_bound) / self.achieved_value


def _memo(cache: dict, key, make, size: int):
    """cache[key], made on a miss; beyond `size` entries the oldest goes."""
    got = cache.get(key)
    if got is None:
        got = make()
        if len(cache) >= size:
            del cache[next(iter(cache))]
        cache[key] = got
    return got


def _normalize(d: SpaceDescriptor) -> SpaceDescriptor:
    """Push Dual constructors down to closed forms; only Dual(S) remains."""
    if isinstance(d, Dual):
        return dual_descriptor(_normalize(d.base))
    if isinstance(d, Convexified):
        return Convexified(_normalize(d.base), d.p)
    if isinstance(d, CalderonProduct):
        return CalderonProduct(_normalize(d.x), _normalize(d.y), d.theta)
    return d


class NormEvaluator:
    """Deterministic norm/norming evaluator with a positional cache.

    It owns the evaluators of its factors, so a new instance is cold all
    the way down.
    """

    def __init__(
        self,
        descriptor: SpaceDescriptor,
        tol: float = TOL_ITERATIVE,
        budget: int = DEFAULT_BUDGET,
    ):
        if budget < 1:
            raise ValidationError(f"the evaluation budget must be at least 1, got {budget}")
        if not 0.0 < tol < math.inf:
            raise ValidationError(f"the tolerance must be positive and finite, got {tol}")
        self.descriptor = descriptor
        self.impl = _normalize(descriptor)
        self.budget = budget
        self.tol = tol
        self._norm_cache: Dict[tuple, object] = {}  # a norm, or (value, weights) on Dual
        self._children: Dict[SpaceDescriptor, NormEvaluator] = {}

    # -- configuration ----------------------------------------------------

    def _child(self, desc: SpaceDescriptor) -> "NormEvaluator":
        child = self._children.get(desc)
        if child is None:
            child = NormEvaluator(desc, tol=max(self.tol * 0.25, 1e-10), budget=self.budget)
            self._children[desc] = child
        return child

    # -- the norming core ---------------------------------------------------

    def norming_values(self, v: np.ndarray) -> Tuple[float, np.ndarray]:
        """Norm and norming weights of a positive array in support order.

        The weights are the absolute values of a norming functional at the
        same positions.  This is the only dispatch on the descriptor kind
        for lattice norms.
        """
        d = self.impl
        if isinstance(d, Lp):
            if math.isinf(d.p):
                j = int(np.argmax(v))
                w = np.zeros(len(v))
                w[j] = 1.0
                return float(v[j]), w
            if d.p == 1.0:
                return float(v.sum()), np.ones(len(v))
            nv = float(np.linalg.norm(v, d.p))
            return nv, (v / nv) ** (d.p - 1.0)
        if isinstance(d, Schlumprecht):
            nv, w = s_norm_weights(v.tolist(), d.gauge)
            return nv, np.array(w)
        if isinstance(d, Dual):
            return _memo(self._norm_cache, tuple(v.tolist()),
                         lambda: _frozen(_cutting_plane_dual(self._child(d.base), v)),
                         NORM_CACHE_SIZE)
        if isinstance(d, Convexified):
            nb, wb = self._child(d.base).norming_values(v**d.p)
            nv = nb ** (1.0 / d.p)
            if nv == 0.0:
                return 0.0, np.zeros(len(v))
            return nv, v ** (d.p - 1.0) * wb / nb ** ((d.p - 1.0) / d.p)
        if isinstance(d, CalderonProduct):
            sol = self._solve_product(v)
            gx, gy = sol.pair
            return sol.value, gx ** (1.0 - d.theta) * gy**d.theta
        raise UnsupportedSpaceError(f"no norming functional for {space_to_str(d)}")

    def _cached_norm(self, v: Tuple[float, ...]) -> float:
        """The norm of positive values in support order, cached by them."""
        d = self.impl
        if isinstance(d, Schlumprecht):  # the DP's top cell, no extremal tree
            return _memo(self._norm_cache, v, lambda: s_norm_top(list(v), d.gauge),
                         NORM_CACHE_SIZE)
        if isinstance(d, Dual):  # the entry norming_values keeps
            return self.norming_values(np.array(v))[0]
        return _memo(self._norm_cache, v, lambda: self.norming_values(np.array(v))[0],
                     NORM_CACHE_SIZE)

    # -- boundary wrappers on SeqVectors ------------------------------------

    def norm(self, x: SeqVector) -> float:
        if not x:
            return 0.0
        d = self.impl
        if isinstance(d, Lp):
            return lp_norm(x, d.p)
        if isinstance(d, YDistortion):
            fam = d.family
            hit = max(abs(pairing(x, z)) for z in fam.members)
            return max(lp_norm(x, 2.0), fam.r * hit)
        return self._cached_norm(tuple(map(abs, x.values_in_order())))

    def norming(self, x: SeqVector) -> NormingResult:
        if not x:
            return NormingResult(0.0, SeqVector())
        value, w = self.norming_values(_positive(x))
        return NormingResult(value, _signed(x, w))

    def _solve_product(self, v: np.ndarray) -> "_Solve":
        d = self.impl
        if self.tol <= ROUNDING:
            raise ConvergenceError(
                f"Calderon solver cannot certify {space_to_str(d)}: tol {self.tol:g} is at or "
                f"below the rounding level {ROUNDING:g}", lower=0.0, upper=math.inf)
        sol = _calderon_solve(self._child(d.x), self._child(d.y), d.theta, v, self.tol, self.budget)
        if not sol.converged:
            budget_out = sol.evals >= self.budget
            why = "the budget ran out" if budget_out else "a round improved neither bound"
            gap = (sol.value - sol.lower) / sol.value
            raise ConvergenceError(
                f"Calderon solver did not certify {space_to_str(d)}: {why} after "
                f"{sol.evals} of {self.budget} norm evaluations at relative gap {gap:.4g}",
                lower=sol.lower,
                upper=sol.value,
            )
        return sol

    def factorize(self, z: SeqVector) -> Tuple[float, Factorization]:
        """Norm plus the balanced witness factorization (products only)."""
        d = self.impl
        if not isinstance(d, CalderonProduct):
            raise UnsupportedSpaceError(
                f"factorize needs a Calderon product, got {space_to_str(d)}"
            )
        sol = self._solve_product(_positive(z))
        return sol.value, sol.factorization(z.support)


def _positive(x: SeqVector) -> np.ndarray:
    """|x| in support order: what the norming core sees of x."""
    return np.abs(np.array(x.values_in_order()))


def _frozen(result: Tuple[float, np.ndarray]) -> Tuple[float, np.ndarray]:
    """A cached (value, weights) whose weights no caller can change."""
    result[1].flags.writeable = False
    return result


def _signed(x: SeqVector, w: np.ndarray) -> SeqVector:
    """Put the support and the signs of x back on positional weights w."""
    return SeqVector(zip(x.support, np.copysign(w, x.values_in_order()).tolist()))


# -- cutting-plane dual norm ------------------------------------------------

LP_TOL = 1e-12  # a right-hand side or reduced cost this far below 0 counts as negative
LP_PIVOT_TOL = 1e-9  # least magnitude of a pivot element
LP_PIVOTS_PER_LABEL = 20  # a solve fails after this many pivots per tableau row and column


class _LPFailure(Exception):
    """The simplex could not finish; _cutting_plane_dual adds the bracket."""


class _Tableau:
    """max c.x subject to cut.x <= 1 for every cut and 0 <= x <= u, by simplex.

    A condensed (Tucker) tableau: row 0 is the objective, row i >= 1 reads
    basic_i = t[i, -1] - sum_k t[i, k] nonbasic_k, and t[0] has -c in the
    x = 0 basis.  Variables are labelled x_j -> j, the slack of x_j <= u
    -> n + j and the slack of cut k -> 2n + k.  It starts with the box rows
    alone; x = 0 is feasible, so the primal simplex needs no phase 1.  A
    new cut is appended as one row in the current nonbasic variables; the
    objective row stays nonnegative, so dual-simplex pivots from the
    previous optimal basis restore feasibility (the warm start).  Both
    pivot rules take the lowest label among ties (Bland), which rules out
    cycling.
    """

    def __init__(self, c: np.ndarray, u: float):
        n = len(c)
        self.c, self.u, self.cuts = c, u, []
        top = np.append(-c, 0.0)
        box = np.hstack([np.eye(n), np.full((n, 1), u)])
        self.t = np.vstack([top, box])
        self.basic = np.arange(n, 2 * n)  # labels of rows 1..m
        self.nonbasic = np.arange(n)  # labels of the columns

    def add(self, a: np.ndarray) -> None:
        """Append the cut a.x <= 1, written in the current nonbasic variables."""
        n = len(self.c)
        on_row = np.zeros(len(self.t))
        xrows = self.basic < n
        on_row[1:][xrows] = a[self.basic[xrows]]
        row = -(on_row @ self.t)
        xcols = self.nonbasic < n
        row[:-1][xcols] += a[self.nonbasic[xcols]]
        row[-1] += 1.0
        self.t = np.vstack([self.t, row])
        self.basic = np.append(self.basic, 2 * n + len(self.cuts))
        self.cuts.append(a)

    def _pivot(self, r: int, s: int) -> None:
        t = self.t
        p = t[r, s]
        t[r] /= p
        col = t[:, s].copy()
        col[r] = 0.0
        t -= col[:, None] * t[r]
        t[:, s] = -col / p
        t[r, s] = 1.0 / p
        self.basic[r - 1], self.nonbasic[s] = self.nonbasic[s], self.basic[r - 1]

    def _step(self) -> bool:
        """One pivot; False once the basis is optimal.  Raises on failure."""
        t = self.t
        bad = np.nonzero(t[1:, -1] < -LP_TOL)[0]
        if bad.size:  # dual simplex: the lowest infeasible row leaves
            r = 1 + bad[self.basic[bad].argmin()]
            cand = np.nonzero(t[r, :-1] < -LP_PIVOT_TOL)[0]
            if not cand.size:
                raise _LPFailure("no pivot restores a cut")
            ratio = np.maximum(t[0, cand], 0.0) / -t[r, cand]
            tie = cand[ratio <= ratio.min() + LP_TOL]
            self._pivot(r, tie[self.nonbasic[tie].argmin()])
            return True
        enter = np.nonzero(t[0, :-1] < -LP_TOL)[0]
        if not enter.size:
            return False
        s = enter[self.nonbasic[enter].argmin()]  # primal simplex
        cand = np.nonzero(t[1:, s] > LP_PIVOT_TOL)[0]
        if not cand.size:
            raise _LPFailure("unbounded ray")
        ratio = np.maximum(t[1 + cand, -1], 0.0) / t[1 + cand, s]
        tie = cand[ratio <= ratio.min() + LP_TOL]
        self._pivot(1 + tie[self.basic[tie].argmin()], s)
        return True

    def solve(self) -> Tuple[np.ndarray, float]:
        """The optimal x and an upper bound on the LP value from its multipliers.

        The bound is weak duality, sum(y) + u sum(max(c - A^T y, 0)) with
        y >= 0 read from the objective row, so it holds whether or not the
        basis is optimal.
        """
        t = self.t
        cap = LP_PIVOTS_PER_LABEL * sum(t.shape)
        for _ in range(cap):
            if not self._step():
                break
        else:
            raise _LPFailure(f"no optimum after {cap} pivots")
        n = len(self.c)
        x = np.zeros(n)
        xrows = self.basic < n
        x[self.basic[xrows]] = t[1:, -1][xrows]
        x[x < LP_TOL] = 0.0  # a degenerate zero; the oracle sees positive coordinates only
        cutcols = self.nonbasic >= 2 * n
        y = np.maximum(t[0, :-1][cutcols], 0.0)
        ay = np.zeros(n)
        for k, yk in zip(self.nonbasic[cutcols] - 2 * n, y):
            ay += yk * self.cuts[k]
        return x, float(y.sum() + self.u * np.maximum(self.c - ay, 0.0).sum())


def _cutting_plane_dual(oracle: NormEvaluator, c: np.ndarray) -> Tuple[float, np.ndarray]:
    """max { <x, c> : ||x||_oracle <= 1 } for a positive c, with lazy cuts.

    Returns the value and a maximizer, nonnegative and in the positions
    of c.  Cuts are functionals with dual norm at most one, so each LP
    value is an upper bound; every point the oracle sees, rescaled onto
    the unit sphere, is feasible and gives a lower bound.  The result is
    a certified two-sided bracket: width DUAL_FEAS_TOL on polyhedral
    balls, where the LP vertex itself turns out feasible, and DUAL_GAP_TOL
    on smooth ones, where the bracket closes gradually.

    The LP is max c.x subject to cut.x <= 1 and 0 <= x <= 1/||e_1||,
    solved by one _Tableau per call: built from the box rows and solved
    by primal simplex, then warm-started by dual simplex after each new
    cut.  Its upper end is the weak-duality bound of the
    tableau's multipliers, not c.x*, so it does not rest on the solver
    having reached the optimum.

    Separation is stabilized by in-out separation (Ben-Ameur & Neto
    2007).  While the rescaled LP vertex is the best feasible point, the
    oracle is queried at the vertex (a Kelley cut).  Otherwise the LP has
    stalled, typically on a degenerate optimal face, and the oracle is
    queried at the midpoint of the vertex and the best feasible point.
    If the midpoint lies outside the ball, its norming functional still
    cuts the vertex off, since the best point satisfies the cut; if it
    lies inside, the lower bound gains at least half the gap.
    """
    n = len(c)
    scale = float(c.max())  # dual norms are homogeneous; keep the LP well scaled
    c = c / scale
    box = 1.0 / oracle._cached_norm((1.0,))  # no coordinate of the ball exceeds it
    tab = _Tableau(c, box)

    def probe(x: np.ndarray) -> Tuple[float, np.ndarray]:
        # LP points have zero coordinates; the oracle norms the positive ones
        pos = x > 0.0
        nx, w = oracle.norming_values(x[pos])
        row = np.zeros(n)
        row[pos] = w
        return nx, row

    def closed() -> bool:
        return lpval - best_val <= DUAL_GAP_TOL * max(lpval, 1.0)

    best_val, best_x = 0.0, np.zeros(n)
    lpval = box * float(c.sum())  # weak duality with zero multipliers
    for _ in range(DUAL_MAX_ROUNDS):
        try:
            xstar, lpval = tab.solve()
        except _LPFailure as err:
            raise ConvergenceError(f"dual-norm LP failed ({err})",
                                   scale * best_val, scale * lpval) from None
        val = float(c @ xstar)
        nv, vrow = probe(xstar)  # the vertex's norming row is its Kelley cut
        if nv <= 1.0 + DUAL_FEAS_TOL:
            fix = 1.0 / nv if nv > 1.0 else 1.0
            return scale * val * fix, xstar * fix
        row = None
        if best_val < val / nv:
            best_val, best_x = val / nv, xstar / nv
        else:
            while not closed():
                q = 0.5 * (xstar + best_x)
                nq, qrow = probe(q)
                gain = float(c @ q) / nq > best_val
                if gain:
                    best_val, best_x = float(c @ q) / nq, q / nq
                if float(qrow @ xstar) > 1.0 + 0.5 * DUAL_FEAS_TOL:
                    row = qrow
                    break
                if not gain:
                    break
        if closed():
            return scale * best_val, best_x
        if row is None:
            row = vrow
        if float(row @ xstar) <= 1.0 + 0.5 * DUAL_FEAS_TOL:
            raise ConvergenceError("dual-norm LP stalled (oracle cut did not separate)",
                                   scale * best_val, scale * lpval)
        tab.add(row)
    raise ConvergenceError("dual-norm LP exceeded round limit",
                           scale * best_val, scale * lpval)


# -- Calderon product solver --------------------------------------------------

ROUNDING = 1e-14  # KKT level and line-search slack of a hull solve; no finer tol is accepted
# where the hull optimum g* has tiny coordinates, its gradient can be a poor
# witness, so the upper bound is also read at (1 - eta) g* + eta mean(atoms)
HULL_SHIFTS = (1e-8, 1e-6, 1e-4)
HULL_MAX_STEPS = 200  # trial points per hull solve: a hang guard; it also ends the rare
# solve whose optimum leaves an atom a tiny weight, which halving only creeps to


def _holder(a: np.ndarray, p: float, beta: float) -> np.ndarray:
    """The maximizer h of sum a h^beta over the positive unit ball of (l_p)*.

    With s the dual exponent of p, substitute u = h^beta: the ball becomes
    ||u||_{s/beta} <= 1, and Hölder's equality case gives h ~ a^(1/(s-beta)).
    """
    s = conjugate_exponent(p)
    h = (a / a.max()) ** (1.0 / (s - beta))  # h = 1 for s = inf
    return h / np.linalg.norm(h, s)


class _Solve:
    """One Calderon solve: its state while it runs, its result once it has.

    The solver works at unit scale, v = z / max z (homogeneity).  Side 0 is
    X and side 1 is Y.  One lp side is solved in closed form (_holder): a
    smooth one if there is one, and of two smooth ones the larger p (on
    criterion 03's lp pairs that takes the fewest evaluations).  Each other
    side keeps atoms, rows of scaled unit vectors and of norming
    functionals in its dual ball, and weights over them on the simplex,
    the warm start of the next hull solve.
    """

    def __init__(self, evx: NormEvaluator, evy: NormEvaluator, theta: float,
                 z: np.ndarray, tol: float, budget: int):
        self.evs = (evx, evy)
        self.expo = (1.0 - theta, theta)
        self.tol, self.budget = tol, budget
        self.zscale = float(z.max())
        self.v = z / self.zscale
        ps = {k: ev.impl.p for k, ev in enumerate(self.evs) if isinstance(ev.impl, Lp)}
        self.closed = min(ps, key=lambda k: (math.isinf(ps[k]), ps[k] == 1.0, -ps[k]), default=None)
        if self.closed is not None:  # the pairing is ||v g^e||_q in the other mixture g
            s, b = conjugate_exponent(ps[self.closed]), self.expo[self.closed]
            self.q = 1.0 if math.isinf(s) else s / (s - b)
            self.k = -b if math.isinf(s) else b * (1.0 - s) / (s - b)  # e q - 1, 0 for l-infinity
        n = len(z)
        # e_i / ||e_i||_* lies in the dual ball, and ||e_i||_* = 1 / ||e_1||
        self.atoms = {k: np.eye(n) * self.evs[k]._cached_norm((1.0,))
                      for k in (0, 1) if k != self.closed}
        self.weights = {k: np.full(n, 1.0 / n) for k in self.atoms}
        self.evals = 0
        self.found = 0  # new atoms, duplicates not counted
        self.best_u = math.inf  # least upper bound K seen, at unit scale
        self.witness: Optional[Tuple[np.ndarray, np.ndarray]] = None  # its cx/|cx|, cy/|cy|
        self.lower_u = 0.0  # certified lower bound, at unit scale
        self.pair: Optional[Tuple[np.ndarray, np.ndarray]] = None  # certifying (gx, gy)

    @property
    def value(self) -> float:
        """The certified upper bound, the least value seen."""
        return self.zscale * self.best_u

    @property
    def lower(self) -> float:
        return min(self.zscale * self.lower_u, self.value)  # rounding must not invert it

    @property
    def converged(self) -> bool:
        return self.best_u - self.lower_u <= self.tol * self.best_u

    def rate(self, gs: Dict[int, np.ndarray]):
        """((gx, gy), m, (cx, cy)) from atom mixtures gs, m = v gx^(1-t) gy^t.

        sum(m) raises the certified lower bound.  The closed side takes its
        best answer to the other side.  The gradient directions c = m / g,
        with cx^(1-t) cy^t = v, are inf or nan where a mixture vanishes; the
        closed side's partner has c = v^q g^(eq-1) low^(1-q), finite at 0
        when the closed side is l-infinity (eq = 1).
        """
        o, c = 0, self.closed
        if c is not None:
            o = 1 - c
            gs = {o: gs[o], c: _holder(self.v * gs[o] ** self.expo[o],
                                       self.evs[c].impl.p, self.expo[c])}
        g = (gs[0], gs[1])
        m = self.v * g[0] ** self.expo[0] * g[1] ** self.expo[1]
        low = float(m.sum())
        if low > self.lower_u:
            self.lower_u, self.pair = low, g
        with np.errstate(divide="ignore", invalid="ignore"):
            cs = [m / g[0], m / g[1]]
            if c is not None:
                cs[o] = self.v ** self.q * g[o] ** self.k * low ** (1.0 - self.q)
                cs[c] = (self.v / cs[o] ** self.expo[o]) ** (1.0 / self.expo[c])
        return g, m, cs

    def point(self, cx: np.ndarray, cy: np.ndarray) -> None:
        """Norm cx and cy: the upper bound K with its witness, and new atoms."""
        self.evals += 2
        (nx, ax), (ny, ay) = (ev.norming_values(c) for ev, c in zip(self.evs, (cx, cy)))
        u = nx ** self.expo[0] * ny ** self.expo[1]
        if u < self.best_u:
            self.best_u = u
            self.witness = (cx / nx, cy / ny)
        for k in self.atoms:
            self.add_atom(k, (ax, ay)[k])
        self.rate({k: (ax, ay)[k] for k in self.atoms})  # the witness's own functionals

    def add_atom(self, k: int, a: np.ndarray) -> None:
        """Append a norming functional to side k's atoms unless it is one already."""
        atoms = self.atoms[k]
        if np.max(np.abs(atoms - a), axis=1).min() > 1e-12 * a.max():
            self.atoms[k] = np.vstack([atoms, a])
            self.weights[k] = np.append(self.weights[k], 0.0)
            self.found += 1

    def hull_optimum(self) -> Tuple[Dict[int, np.ndarray], bool]:
        """Maximize low = sum(m) over the atoms' hulls by active-set Newton steps.

        Atom j's slope is a_j . c - low, c the gradient direction of its
        side: the rate at which weight moved onto atom j raises low.  A step
        ends at the first weight it takes to 0, which drops that atom, and is
        halved until c stays finite and low does not fall by more than
        ROUNDING.  Returns the mixtures and whether no slope exceeds ROUNDING
        low, the KKT condition on the simplices.
        """
        sides = list(self.atoms)
        a = np.vstack([self.atoms[k] for k in sides])
        side = np.repeat(np.arange(len(sides)), [len(self.atoms[k]) for k in sides])

        def state(w: np.ndarray):  # (g, m, c, low, slope), or None where c is not finite
            g, m, c = self.rate({k: w[side == i] @ self.atoms[k] for i, k in enumerate(sides)})
            c = np.array([c[k] for k in sides])
            if not np.isfinite(c).all():
                return None
            low = float(m.sum())
            return g, m, c, low, (a * c[side]).sum(axis=1) - low

        w = np.concatenate([self.weights[k] for k in sides])
        now, t, optimal = state(w), 0.0, False
        for _ in range(HULL_MAX_STEPS):
            if t == 0.0:  # a new Newton direction
                optimal = now[4].max() <= ROUNDING * now[3]
                if optimal:
                    break
                d = self.newton(w, a, side, now)
                down = d < 0.0
                ratio = np.where(down, w, math.inf) / np.where(down, -d, 1.0)
                t = min(1.0, ratio.min())
            wt = np.where(ratio <= t, 0.0, np.maximum(w + t * d, 0.0))
            wt /= np.bincount(side, wt)[side]
            new = state(wt)
            if new is not None and new[3] >= now[3] * (1.0 - ROUNDING):
                w, now, t = wt, new, 0.0
            else:
                t *= 0.5
        self.weights = {k: w[side == i] for i, k in enumerate(sides)}
        return {k: now[0][k] for k in sides}, optimal

    def newton(self, w: np.ndarray, a: np.ndarray, side: np.ndarray, now) -> np.ndarray:
        """The Newton direction on the atoms with weight or a positive slope.

        The Hessian of low is U D U^T: with both sides mixed, D_i = -t(1-t) m_i
        and U's column i stacks X's atoms over gx_i and Y's over -gy_i; with a
        closed side, low = ||v g^e||_q, D_i = e(eq-1) m_i and U = atoms / g,
        plus the rank-one e^2(1-q) (a c)(a c)^T / low.  Each side's weights
        keep their sum.  The system is scaled by the curvature plus the slope
        of each atom (an atom along which low is linear runs to its face) and
        regularized by the norm of its right-hand side.
        """
        g, m, c, low, slope = now
        e = np.array([self.expo[k] for k in self.atoms])[side]
        if self.closed is None:
            u = a / np.array(g)[side] * (1 - 2 * side)[:, None]
            neg_h = e[0] * e[-1] * (u * m) @ u.T
        else:
            neg_h = (self.q - 1.0) * e[0] ** 2 * np.outer(slope + low, slope + low) / low
            if self.k:  # 0 for l-infinity, whose pairing is linear in g under a power
                neg_h -= e[0] * self.k * (a * c[0] / g[1 - self.closed]) @ a.T
        grad = e * slope
        diag = np.diag(neg_h) + np.abs(grad)
        scale = 1.0 / np.sqrt(np.where(diag > 0.0, diag, 1.0))
        play = (w > 0.0) | (slope > 0.0)
        while True:  # an idle atom that the step pushes below 0 leaves play
            idx = np.nonzero(play)[0]
            sc, n = scale[idx], len(idx)
            r = np.append(sc * grad[idx], np.zeros(side[-1] + 1))
            kkt = np.zeros((len(r), len(r)))  # each side's sum is a constraint row
            kkt[:n, :n] = sc[:, None] * neg_h[idx][:, idx] * sc + math.sqrt(r @ r) * np.eye(n)
            kkt[n:, :n] = (side[idx] == np.arange(side[-1] + 1)[:, None]) * sc
            kkt[:n, n:] = kkt[n:, :n].T
            d = np.zeros(len(w))
            d[idx] = sc * np.linalg.solve(kkt, r)[:n]
            if not (d[w == 0.0] < 0.0).any():
                return d
            play &= (w > 0.0) | (d >= 0.0)

    def run(self) -> None:
        """Fully-corrective Frank-Wolfe rounds until the bracket closes.

        A spent budget stops the solve unclosed, and so does a round whose hull
        optimum meets the KKT condition while the oracle adds no atom.
        """
        self.point(self.v, self.v)  # x = y = z: the interpolation bound
        while not self.converged and self.evals < self.budget:
            found = self.found
            gs, optimal = self.hull_optimum()
            mean = {k: atoms.mean(axis=0) for k, atoms in self.atoms.items()}
            for eta in (0.0, *HULL_SHIFTS):  # until a reading moves a bound or adds an atom
                before = self.best_u, self.lower_u, self.found
                if self.converged or self.evals >= self.budget:
                    return
                self.point(*self.rate({k: (1.0 - eta) * g + eta * mean[k]
                                       for k, g in gs.items()})[2])
                if (self.best_u, self.lower_u, self.found) != before:
                    break
            if optimal and self.found == found:
                return

    def factorization(self, support: Tuple[int, ...]) -> Factorization:
        """The witness at the least upper bound; both norms equal the value."""
        ux, uy = self.witness
        return Factorization(
            SeqVector(zip(support, self.value * ux)), SeqVector(zip(support, self.value * uy)),
            self.value, self.lower,
        )


def _calderon_solve(evx: NormEvaluator, evy: NormEvaluator, theta: float, v: np.ndarray,
                    tol: float, budget: int) -> _Solve:
    """Run simplicial decomposition over the dual balls until it stops."""
    solve = _Solve(evx, evy, theta, v, tol, budget)
    solve.run()
    return solve


# -- public API ----------------------------------------------------------------


_registry: Dict[tuple, NormEvaluator] = {}


def get_evaluator(
    descriptor: SpaceDescriptor,
    tol: float = TOL_ITERATIVE,
    budget: int = DEFAULT_BUDGET,
) -> NormEvaluator:
    """The shared evaluator of (descriptor, tol, budget).

    Its caches persist across calls; the registry keeps the newest
    REGISTRY_SIZE evaluators.
    """
    return _memo(_registry, (descriptor, tol, budget),
                 lambda: NormEvaluator(descriptor, tol=tol, budget=budget), REGISTRY_SIZE)


def convexified_norm(base: SpaceDescriptor, p: float, x: SeqVector) -> float:
    """The p-convexification N_base(|x|^p)^(1/p) of a base lattice norm."""
    if p == 1.0:
        return get_evaluator(base).norm(x)
    return get_evaluator(Convexified(base, p)).norm(x)


def calderon_norm(
    x_space: SpaceDescriptor,
    y_space: SpaceDescriptor,
    theta: float,
    z: SeqVector,
    tol: float = TOL_ITERATIVE,
    budget: int = DEFAULT_BUDGET,
) -> Tuple[float, Factorization]:
    """The Calderon product norm of z with a balanced witness.

    Raises UnsupportedSpaceError for non-lattice factors, ValidationError
    for an empty z, and ConvergenceError (carrying the bracket) if the
    certified gap cannot be closed within the evaluation budget.
    """
    if not z:
        raise ValidationError("Calderon norm needs a nonzero vector")
    desc = CalderonProduct(x_space, y_space, theta)
    ev = get_evaluator(desc, tol=tol, budget=budget)
    return ev.factorize(z)
