"""Norm evaluation engine for all space descriptors.

Every lattice norm here is spreading invariant: the norm of x depends
only on the absolute values of its support, in support order, not on
the coordinates.  So the evaluator has one core,

* ``norming_values(v, above)`` - for a positive numpy array v in
  support order, the norm value (certified upper bound for optimizer
  branches, exact up to rounding for closed forms and the DP) and rows
  of functionals in the dual ball at the same positions.  Row 0 is the
  weights of a norming functional g, with ||g||_* <= 1 and <v, g> equal
  to the norm up to the accuracy of its branch.  On S, the rows after it
  are all the m-split functionals of the same DP table whose split value
  at v exceeds `above`.

It is the only place that dispatches on the descriptor kind of a lattice
norm, and its recursion across the descriptor tree stays on arrays.
``norm``, ``norms``, ``norming`` and ``factorize`` are boundary wrappers:
they pass |x| in support order (`SeqVector.magnitudes`) to the core and put
the coordinates back, with the signs of x on a norming functional
(`SeqVector.signed`).
``norm`` keeps three exceptions: the exact closed form of lp, the
non-lattice distorted norm and the Schlumprecht norm, which reads the
DP table's top cell (`s_norm_top`) and builds no norming functional.
``norms`` is ``norm`` over a list, the same floats; on S it sends the
cache misses through `s_norm_tops`, one DP wavefront per support size, and
fills the same norm cache.
The caches are keyed by position too, so a vector with gaps hits the
entry of its compressed twin.

Each piece of state has one owner and one bound.  An evaluator owns its
norm cache (NORM_CACHE_SIZE entries) and the evaluators of its factors,
built on first use, so a new NormEvaluator is cold all the way down.
On S the norm cache holds DP top cells, which ``norm`` and ``norms``
write; on Dual, Convexified and CalderonProduct it holds each whole
(value, rows) that ``norming_values`` computes, and ``norm`` reads it.
``get_evaluator`` is the only place evaluators are shared; its module
registry keeps REGISTRY_SIZE of them.  Every bound drops the oldest
entries first.  A cache entry holds what a cold call computes, so a hit
returns the same bits: no value depends on what was computed before.

The core drives the Calderon-product solver.  The norm of X^(1-t) Y^t
at z is max { sum_i |z_i| gx_i^(1-t) gy_i^t : gx in B(X*), gy in B(Y*) },
so every pair (gx, gy) gives a certified lower bound.  The solver is
simplicial decomposition (fully-corrective Frank-Wolfe), whose linear
oracle over B(X*) is X's norming call.  Each side keeps atoms (the
unit vectors and the norming functionals found so far); an lp side
keeps none, as Hölder's equality case answers the other side in closed
form.  Each round maximizes the pairing over the atoms' convex hulls
exactly, by an active-set Newton method on the atom weights (a step that
would zero a coordinate of a mixture beside a closed side stops where a
power-law model of the pairing peaks), then norms the gradient directions
cx = |z| gx^-t gy^t and cy = |z| gx^(1-t) gy^(t-1): since cx^(1-t) cy^t
= |z|, they witness the upper bound K = ||cx||^(1-t) ||cy||^t, and their
norming functionals become atoms.  Beside a closed side, S's oracle
also offers the m-split functionals of its DP table with a positive
slope, which become atoms too (not on two mixed sides, where they made
a nested product creep and stall).  The solver stops when upper - lower
<= tol * upper; it raises a ConvergenceError with the bracket when the
budget of norm evaluations runs out, or when the oracle returns no new
atom and the hull optimum meets the KKT condition (no atom's slope beats
the mixture's by more than ROUNDING: the lower bound is optimal up to
rounding) or the hull solve moved no weight.  A tol at or below ROUNDING
is refused before the solve.

The dual of the Schlumprecht space stays Dual(S) after normalization.
Its norm (and, generically, the dual norm of any space with an exact
norming oracle) is computed by a cutting-plane LP over the polyhedral
unit ball: maximize <g, x> subject to lazily generated partition-tree
constraints; the separation oracle is the DP itself.  Each round is a
plain Kelley step: solve the LP, probe its vertex once, append the
vertex's norming row.  On S the DP table of the vertex also yields its
best m-split functionals, each in B(S*), and every one the vertex
violates joins the round's block (from the second vertex on: the first
is the box corner).  Each call starts from the box alone, so the LP is a
function of its input; the Dual evaluator caches its whole results
(value and maximizer), as every iterative branch does.  The LPs are
small (one variable per support point plus the call's own cuts), so one
dense simplex tableau in numpy serves a whole call: a round's cuts are
appended as one block of rows, and dual simplex pivots restart from the
previous optimal basis, the leaving row priced by its right-hand side
over its norm.  The LP's upper end comes from its dual multipliers by
weak duality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

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
# perfbench's tracer wraps s_norm and s_norm_weights by name in this module;
# s_norm is bound here only for it
from .schlumprecht import s_norm, s_norm_top, s_norm_tops, s_norm_weights
from .vectors import SeqVector, lp_norm, lp_of, pairing

__all__ = [
    "NormingResult",
    "Factorization",
    "NormEvaluator",
    "get_evaluator",
    "calderon_norm",
]

# the default tol of evaluators, calderon_norm, dual_norm and the CLI
TOL_ITERATIVE = 1e-6

DEFAULT_BUDGET = 10_000  # norm evaluations per Calderon solve

# bounds on evaluator state; each drops its oldest entries first
NORM_CACHE_SIZE = 1 << 14  # S norms, or whole norming results, cached per evaluator
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
    """Push Dual constructors down to closed forms, only Dual(S) remains; a
    1-convexification becomes its base."""
    if isinstance(d, Dual):
        return dual_descriptor(_normalize(d.base))
    if isinstance(d, Convexified):
        base = _normalize(d.base)
        return base if d.p == 1.0 else Convexified(base, d.p)
    if isinstance(d, CalderonProduct):
        return CalderonProduct(_normalize(d.x), _normalize(d.y), d.theta)
    return d


class NormEvaluator:
    """Deterministic norm/norming evaluator with a positional cache.

    It owns the evaluators of its factors, so a new instance is cold all
    the way down.
    """

    def __init__(self, descriptor: SpaceDescriptor, tol: float = TOL_ITERATIVE):
        if not 0.0 < tol < math.inf:
            raise ValidationError(f"the tolerance must be positive and finite, got {tol}")
        self.impl = _normalize(descriptor)
        self.tol = tol
        self._norm_cache: Dict[tuple, object] = {}  # a norm on S, else a (value, rows)
        self._children: Dict[SpaceDescriptor, NormEvaluator] = {}

    # -- configuration ----------------------------------------------------

    def _child(self, desc: SpaceDescriptor) -> "NormEvaluator":
        child = self._children.get(desc)
        if child is None:
            child = NormEvaluator(desc, tol=max(self.tol * 0.25, 1e-10))
            self._children[desc] = child
        return child

    # -- the norming core ---------------------------------------------------

    def norming_values(self, v: np.ndarray,
                       above: float = math.inf) -> Tuple[float, np.ndarray]:
        """Norm of a positive array in support order and rows in B(X*).

        Row 0 holds the absolute values of a norming functional at the same
        positions.  On S the best m-split functionals of `s_norm_weights`
        whose split value at v exceeds `above` follow, in block-count order.
        The default `above` asks for row 0 alone.  Off lp and S the branch
        ignores `above`, and the norm cache keeps its whole result, frozen.
        This is the only dispatch on the descriptor kind for lattice norms.
        """
        d = self.impl
        if isinstance(d, Lp):
            nv = lp_of(v.tolist(), d.p)
            if math.isinf(d.p):  # one-hot at the first argmax
                return nv, (np.arange(len(v)) == np.argmax(v)).astype(float)[None]
            return nv, ((v / nv) ** (d.p - 1.0))[None]
        if isinstance(d, Schlumprecht):
            nv, rows = s_norm_weights(v.tolist(), d.gauge, above)
            return nv, np.array(rows)

        def solve() -> Tuple[float, np.ndarray]:  # the value and the weights of row 0
            if isinstance(d, Dual):
                return _cutting_plane_dual(self._child(d.base), v)
            if isinstance(d, Convexified):  # at unit scale: u has a coordinate 1
                top = float(v.max())
                u = v / top
                nb, wb = self._child(d.base).norming_values(u**d.p)
                return top * nb ** (1.0 / d.p), u ** (d.p - 1.0) * wb[0] / nb ** ((d.p - 1.0) / d.p)
            if isinstance(d, CalderonProduct):
                sol = self._solve_product(v)
                gx, gy = sol.pair
                return sol.value, gx ** (1.0 - d.theta) * gy**d.theta
            raise UnsupportedSpaceError(f"no norming functional for {space_to_str(d)}")

        return _memo(self._norm_cache, tuple(v.tolist()), lambda: _frozen(*solve()),
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
        v = x.magnitudes()
        if isinstance(d, Schlumprecht):  # the DP's top cell, no extremal tree
            return _memo(self._norm_cache, v, lambda: s_norm_top(v, d.gauge), NORM_CACHE_SIZE)
        return self.norming_values(np.array(v))[0]  # the entry norming_values keeps

    def norms(self, xs: Sequence[SeqVector]) -> List[float]:
        """[self.norm(x) for x in xs], the same floats.

        On S the cache misses go through `s_norm_tops` in one batch, first
        occurrence first, and fill the norm cache as `norm` would.
        """
        d = self.impl
        if not isinstance(d, Schlumprecht):
            return [self.norm(x) for x in xs]
        keys = [x.magnitudes() for x in xs]
        found = {v: self._norm_cache.get(v) for v in keys if v}
        misses = [v for v, value in found.items() if value is None]
        for v, value in zip(misses, s_norm_tops(misses, d.gauge)):
            found[v] = _memo(self._norm_cache, v, lambda: value, NORM_CACHE_SIZE)
        return [found[v] if v else 0.0 for v in keys]

    def norming(self, x: SeqVector) -> NormingResult:
        if not x:
            return NormingResult(0.0, SeqVector())
        value, rows = self.norming_values(np.array(x.magnitudes()))
        return NormingResult(value, x.signed(rows[0]))

    def _solve_product(self, v: np.ndarray) -> "_Solve":
        d = self.impl
        if self.tol <= ROUNDING:
            raise ConvergenceError(
                f"Calderon solver cannot certify {space_to_str(d)}: tol {self.tol:g} is at or "
                f"below the rounding level {ROUNDING:g}", lower=0.0, upper=math.inf)
        sol = _calderon_solve(self._child(d.x), self._child(d.y), d.theta, v, self.tol)
        if not sol.converged:
            budget_out = sol.evals >= DEFAULT_BUDGET
            why = "the budget ran out" if budget_out else "a round improved neither bound"
            gap = (sol.value - sol.lower) / sol.value if sol.value < math.inf else 1.0  # its limit
            raise ConvergenceError(
                f"Calderon solver did not certify {space_to_str(d)}: {why} after "
                f"{sol.evals} of {DEFAULT_BUDGET} norm evaluations at relative gap {gap:.4g}",
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
        if not z:
            raise ValidationError("Calderon norm needs a nonzero vector")
        sol = self._solve_product(np.array(z.magnitudes()))
        return sol.value, sol.factorization(z.support)


def _frozen(value: float, weights: np.ndarray) -> Tuple[float, np.ndarray]:
    """An iterative branch's cache entry: (value, rows), the weights as its one row, read-only."""
    rows = weights[None]
    rows.flags.writeable = False
    return value, rows


# -- cutting-plane dual norm ------------------------------------------------

LP_TOL = 1e-12  # a right-hand side or reduced cost this far below 0 counts as negative
LP_PIVOT_TOL = 1e-9  # least magnitude of a pivot element
LP_PIVOTS_PER_LABEL = 20  # a solve fails after this many pivots per tableau row and column


class _LPFailure(Exception):
    """The simplex could not finish; _cutting_plane_dual adds the bracket."""


class _Tableau:
    """max c.x subject to cut.x <= 1 for every cut and 0 <= x <= 1, by dual simplex.

    A condensed (Tucker) tableau: row 0 reads c.x = t[0, -1] - sum_k t[0, k]
    nonbasic_k and row i >= 1 reads basic_i = t[i, -1] - sum_k t[i, k]
    nonbasic_k.  Variables are labelled x_j -> j, the slack of x_j <= 1
    -> n + j and the slack of cut k -> 2n + k.  With the box rows alone the
    optimum is known, x_j = 1 where c_j > LP_TOL and 0 elsewhere, so the
    tableau starts there: x_j basic in box row j, or its slack, and row 0
    holds |c|.  New cuts are appended as rows in the current nonbasic
    variables; the objective row stays nonnegative up to the ratio test's
    LP_TOL, so dual-simplex pivots from the previous optimal basis restore
    feasibility (the warm start).  The leaving row is the infeasible one
    with the most negative rhs / ||row||, the norm over the nonbasic
    columns (a cheap stand-in for dual steepest edge); the entering column
    takes the lowest label among ratio ties.  Once a run of degenerate
    pivots (least ratio at most LP_TOL) is as long as the tableau has
    rows, the lowest infeasible label leaves (Bland) until the next
    non-degenerate pivot.  That rules out cycling: a cycle has degenerate
    pivots only, Bland's rule cannot cycle, and each non-degenerate pivot
    strictly lowers the objective's bound.
    """

    def __init__(self, c: np.ndarray):
        n = len(c)
        self.c, self.cuts = c, []
        up = c > LP_TOL  # x_j basic at its bound 1
        top = np.append(np.where(up, c, -c), sum(c[up].tolist()))
        box = np.hstack([np.eye(n), np.ones((n, 1))])
        self.t = np.vstack([top, box])
        labels = np.arange(n)
        self.basic = np.where(up, labels, n + labels)  # labels of rows 1..m
        self.nonbasic = np.where(up, n + labels, labels)  # labels of the columns

    def add(self, a: np.ndarray) -> None:
        """Append the cuts a_k.x <= 1 of the 2-D block a, one row each, written
        in the current nonbasic variables: one stack and one label append."""
        n = len(self.c)
        on_rows = np.zeros((len(a), len(self.t)))
        xrows = (self.basic < n).nonzero()[0]
        on_rows[:, 1 + xrows] = a[:, self.basic[xrows]]
        rows = -(on_rows @ self.t)
        xcols = (self.nonbasic < n).nonzero()[0]
        rows[:, xcols] += a[:, self.nonbasic[xcols]]
        rows[:, -1] += 1.0
        self.t = np.concatenate((self.t, rows))
        self.basic = np.concatenate((self.basic, 2 * n + len(self.cuts) + np.arange(len(a))))
        self.cuts.extend(a)

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

    def _patience(self) -> int:
        """Degenerate pivots in a row after which the lowest label leaves: one per row."""
        return len(self.basic)

    def _step(self) -> bool:
        """One dual-simplex pivot; False once every row is feasible.  Raises on failure."""
        t = self.t
        bad = (t[1:, -1] < -LP_TOL).nonzero()[0]
        if not len(bad):
            return False
        if len(bad) > 1 and self.degenerate < self._patience():
            # priced: the most negative rhs / ||row||; a zero row has no pivot,
            # and its -inf picks it to raise
            rows = t[1 + bad]
            sq = (rows[:, :-1] ** 2).sum(axis=1)
            price = np.divide(rows[:, -1], np.sqrt(sq), out=np.full(len(bad), -np.inf),
                              where=sq > 0.0)
            r = 1 + bad[price.argmin()]
        else:  # Bland, or one infeasible row: the lowest infeasible label leaves
            r = 1 + bad[self.basic[bad].argmin()]
        # the ratio test on lists: a row has n entries, too few to pay for numpy calls
        row, top = t[r, :-1].tolist(), t[0, :-1].tolist()
        cand = [j for j, a in enumerate(row) if a < -LP_PIVOT_TOL]
        if not cand:
            raise _LPFailure("no pivot restores a cut")
        ratio = [max(top[j], 0.0) / -row[j] for j in cand]
        least = min(ratio)
        self.degenerate = self.degenerate + 1 if least <= LP_TOL else 0
        low = least + LP_TOL
        labels = self.nonbasic.tolist()
        self._pivot(r, min((j for j, q in zip(cand, ratio) if q <= low), key=labels.__getitem__))
        return True

    def solve(self) -> Tuple[np.ndarray, float]:
        """The optimal x and an upper bound on the LP value from its multipliers.

        The bound is weak duality, sum(y) + sum(max(c - A^T y, 0)) with
        y >= 0 read from the objective row, so it holds whether or not the
        basis is optimal.
        """
        t = self.t
        cap = LP_PIVOTS_PER_LABEL * sum(t.shape)
        self.degenerate = 0  # the current run of degenerate pivots
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
        return x, float(y.sum() + np.maximum(self.c - ay, 0.0).sum())


def _cutting_plane_dual(oracle: NormEvaluator, c: np.ndarray) -> Tuple[float, np.ndarray]:
    """max { <x, c> : ||x||_oracle <= 1 } for a positive c, with lazy cuts.

    Returns the value and a maximizer, nonnegative and in the positions
    of c.  Cuts are functionals with dual norm at most one, so each LP
    value is an upper bound; every point the oracle sees, rescaled onto
    the unit sphere, is feasible and gives a lower bound.  The result is
    a certified two-sided bracket: width DUAL_FEAS_TOL on polyhedral
    balls, where the LP vertex itself turns out feasible, and DUAL_GAP_TOL
    on smooth ones, where the bracket closes gradually.

    The LP is max c.x subject to cut.x <= 1 and 0 <= x <= 1 (the ball of
    a normalized lattice lies in that box), solved by one _Tableau per
    call: it starts at the box's optimum and is warm-started by dual
    simplex after each round's cuts.  Its upper end is the weak-duality
    bound of the tableau's multipliers, not c.x*, so it does not rest on
    the solver having reached the optimum.

    Each round is one Kelley step: the oracle is queried once, at the LP
    vertex, by `norming_values` on its positive coordinates.  The vertex's
    norming row cuts it off, and every further row in the dual ball that
    the vertex violates joins it in one block, most violated first (on S
    the m-split functionals of the same DP table whose split value exceeds
    1 + DUAL_FEAS_TOL).  The first vertex is the box's optimum, x_j = 1
    where c_j is positive, so it adds its norming row alone: split rows
    there only lengthen the walk, on constant vectors most of all.
    """
    n = len(c)
    scale = float(c.max())  # dual norms are homogeneous; keep the LP well scaled
    c = c / scale
    tab = _Tableau(c)
    best_val, best_x = 0.0, np.zeros(n)
    lpval = float(c.sum())  # weak duality with zero multipliers
    for _ in range(DUAL_MAX_ROUNDS):
        try:
            xstar, lpval = tab.solve()
        except _LPFailure as err:
            raise ConvergenceError(f"dual-norm LP failed ({err})",
                                   scale * best_val, scale * lpval) from None
        val = float(c @ xstar)
        pos = xstar > 0.0  # LP points have zero coordinates; the oracle norms the positive ones
        nv, w = oracle.norming_values(xstar[pos], 1.0 + DUAL_FEAS_TOL if tab.cuts else math.inf)
        if nv <= 1.0 + DUAL_FEAS_TOL:
            fix = 1.0 / nv if nv > 1.0 else 1.0
            return scale * val * fix, xstar * fix
        if best_val < val / nv:
            best_val, best_x = val / nv, xstar / nv
        if lpval - best_val <= DUAL_GAP_TOL * lpval:
            return scale * best_val, best_x
        rows = np.zeros((len(w), n))
        rows[:, pos] = w
        if float(rows[0] @ xstar) <= 1.0 + 0.5 * DUAL_FEAS_TOL:
            raise ConvergenceError("dual-norm LP stalled (oracle cut did not separate)",
                                   scale * best_val, scale * lpval)
        rows[1:] = rows[1 + np.argsort(-(rows[1:] @ xstar), kind="stable")]  # most violated first
        tab.add(rows)
    raise ConvergenceError("dual-norm LP exceeded round limit",
                           scale * best_val, scale * lpval)


# -- Calderon product solver --------------------------------------------------

ROUNDING = 1e-14  # KKT level and line-search slack of a hull solve; no finer tol is accepted
HULL_MAX_STEPS = 200  # trial points per hull solve: a hang guard


class _Solve:
    """One Calderon solve: its state while it runs, its result once it has.

    The solver works at unit scale, v = z / max z (homogeneity).  Side 0 is
    X and side 1 is Y.  One lp side is solved in closed form by Hölder: a
    smooth one if there is one, and of two smooth ones the larger p (on
    criterion 03's lp pairs that takes the fewest evaluations).  Each other
    side, in `sides`, keeps atoms in its dual ball (the unit vectors,
    norming and split functionals) and weights over them on the simplex,
    the warm start of the next hull solve.  The atoms are the rows of one
    block-diagonal matrix, each side's rows contiguous, so w @ atoms
    stacks the mixtures of `sides`.
    """

    def __init__(self, evx: NormEvaluator, evy: NormEvaluator, theta: float,
                 z: np.ndarray, tol: float):
        self.evs = (evx, evy)
        self.expo = (1.0 - theta, theta)
        self.tol = tol
        self.zscale = float(z.max())
        self.v = z / self.zscale
        ps = {k: ev.impl.p for k, ev in enumerate(self.evs) if isinstance(ev.impl, Lp)}
        self.closed = min(ps, key=lambda k: (math.isinf(ps[k]), ps[k] == 1.0, -ps[k]), default=None)
        self.sides = (0, 1) if self.closed is None else (1 - self.closed,)
        self.alpha = 1.0  # low ~ (T - t)^alpha near a face at T; 1: no face model
        if self.closed is not None:  # the pairing is ||v g^e||_q in the other mixture g
            s, b = conjugate_exponent(ps[self.closed]), self.expo[self.closed]
            self.s, self.q = s, 1.0 if math.isinf(s) else s / (s - b)
            self.k = -b if math.isinf(s) else b * (1.0 - s) / (s - b)  # e q - 1, 0 for l-infinity
            self.vq, self.alpha = self.v**self.q, self.k + 1.0
        n = len(z)
        self.atoms = np.eye(len(self.sides) * n)  # each e_i, in the dual ball as ||e_i|| = 1
        self.side = np.repeat(np.arange(len(self.sides)), n)  # the place in sides of each atom
        self.w = np.full(len(self.side), 1.0 / n)
        self.evals = 0
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
        return self.best_u - self.lower_u <= self.tol * self.best_u < math.inf

    def rate(self, g: np.ndarray):
        """(low, c, m) at the stacked mixtures g of `sides`; callers ignore divide warnings.

        low = sum(m), m = v gx^(1-t) gy^t, raises the certified lower bound.
        A closed side takes Hölder's answer h to the other mixture g, so
        low = ||v g^e||_q (m is not formed).  c stacks the gradient directions
        m / g of `sides`, inf or nan where a mixture vanishes; a closed side's
        partner has c = v^q g^(eq-1) low^(1-q), finite at 0 when the closed
        side is l-infinity (eq = 1).
        """
        if self.closed is None:
            gx, gy = np.split(g, 2)
            m = self.v * gx ** self.expo[0] * gy ** self.expo[1]
            low = float(m.sum())
            if low > self.lower_u:
                self.lower_u, self.pair = low, (gx, gy)
            return low, np.concatenate((m, m)) / g, m
        y = self.v * g ** self.expo[self.sides[0]]
        low = lp_of(y.tolist(), self.q)
        if low > self.lower_u:  # Hölder's equality case: ||h||_s = 1
            h = (y / low) ** (self.q / self.s)
            self.lower_u, self.pair = low, (g, h) if self.closed else (h, g)
        return low, self.vq * g ** self.k * low ** (1.0 - self.q), None

    def trial(self, w: np.ndarray):
        """(g, low, c, m, slope) at atom weights w, None where c is not finite.
        Atom j's slope a_j . c - low is the rate at which weight on it raises low."""
        g = w @ self.atoms
        low, c, m = self.rate(g)
        slope = self.atoms @ c - low
        if not math.isfinite(slope.sum()):  # the atoms are non-negative, none is 0
            return None
        return g, low, c, m, slope

    def point(self, cx: np.ndarray, cy: np.ndarray) -> None:
        """Norm cx and cy: the upper bound K with its witness, and new atoms.
        Beside a closed side the oracle adds the split rows that pair with c
        above lower_u (a positive slope); two mixed sides get none."""
        self.evals += 2
        cs, above = (cx, cy), math.inf if self.closed is None else self.lower_u
        (nx, ax), (ny, ay) = (ev.norming_values(c, above) for ev, c in zip(self.evs, cs))
        u = nx ** self.expo[0] * ny ** self.expo[1]
        if u < self.best_u:
            self.best_u = u
            self.witness = (cx / nx, cy / ny)
        rows = (ax, ay)
        for i, k in enumerate(self.sides):
            self.add_atoms(i, rows[k])
        with np.errstate(divide="ignore", invalid="ignore"):
            self.rate(np.concatenate([rows[k][0] for k in self.sides]))  # the witness's pair

    def add_atoms(self, i: int, fs: np.ndarray) -> None:
        """Insert after sides[i]'s atoms each row of fs that is not an atom."""
        n = fs.shape[1]
        block = slice(i * n, (i + 1) * n)
        atoms = old = self.atoms[self.side == i, block]
        for f in fs:
            if np.max(np.abs(atoms - f), axis=1).min() > 1e-12 * f.max():
                atoms = np.vstack((atoms, f))
        if len(atoms) > len(old):  # else self.w stays the hull solve's: run() reads that
            new = np.zeros((len(atoms) - len(old), self.atoms.shape[1]))
            new[:, block] = atoms[len(old):]
            at = np.full(len(new), np.searchsorted(self.side, i, side="right"))
            self.atoms = np.insert(self.atoms, at, new, axis=0)
            self.side, self.w = np.insert(self.side, at, i), np.insert(self.w, at, 0.0)

    def hull_optimum(self):
        """Maximize low over the atoms' hulls by active-set Newton steps.

        A step ends at the first weight it takes to 0, which drops that
        atom.  Where c is not finite there, a mixture coordinate vanishes at
        that face T; with a closed side, low ~ low0 + beta t + A (T - t)^alpha
        along the step with alpha = eq, and the step goes to the maximizer of
        that model, fitted to low's slope and curvature at t = 0, so the
        weight stays small but positive.  (Two mixed sides get no model: the
        one tried left weights so near a face that Newton crept back.)  Other
        steps are halved until c stays finite and low does not fall by more
        than ROUNDING.  Returns the gradient directions (cx, cy) and whether
        no slope exceeds ROUNDING low, the KKT condition on the simplices.
        """
        onehot = (self.side == np.arange(len(self.sides))[:, None]).astype(float)  # sides' sums
        e = np.array([self.expo[k] for k in self.sides])[self.side]
        w = self.w
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            now, t, optimal = self.trial(w), 0.0, False
            for _ in range(HULL_MAX_STEPS):
                if t == 0.0:  # a new Newton direction
                    optimal = now[4].max() <= ROUNDING * now[1]
                    step = None if optimal else self.newton(w, onehot, e, now)
                    if step is None:  # optimal, or a Newton system beyond the float range
                        break
                    d, grad, neg_h = step
                    down = d < 0.0
                    ratio = np.where(down, w, math.inf) / np.where(down, -d, 1.0)
                    j = int(ratio.argmin())
                    face, t = ratio[j], min(1.0, ratio[j])
                    fit, gap = 0.0 < self.alpha < 1.0, 0.0
                wt = np.where(ratio <= t, 0.0, np.maximum(w + t * d, 0.0))
                if gap:  # w + t d would cancel to the rounding level
                    wt[j] = -d[j] * gap
                wt /= (onehot @ wt) @ onehot
                new = self.trial(wt)
                if new is not None and new[1] >= now[1] * (1.0 - ROUNDING):
                    w, now, t = wt, new, 0.0
                elif new is None and t == face and fit:  # the model's maximizer, once
                    slope, curve, power = grad @ d, d @ neg_h @ d, 1.0 / (1.0 - self.alpha)
                    gap = 0.5 * face  # halving, where the model has no maximizer
                    if slope > 0.0 and curve > 0.0:
                        gap = face * math.exp(-power * math.log1p(slope / (power * curve * face)))
                    t, fit = face - gap, False
                else:
                    t, gap = 0.5 * t, 0.0
            cs = np.split(now[2], len(self.sides))
            if self.closed is not None:  # the partner of cs[0], with cx^(1-t) cy^t = v
                cs.insert(self.closed, (self.v / cs[0] ** self.expo[self.sides[0]])
                          ** (1.0 / self.expo[self.closed]))
        self.w = w
        return cs, optimal

    def newton(self, w: np.ndarray, onehot: np.ndarray, e: np.ndarray, now):
        """The Newton direction d on the atoms with weight or a positive slope.

        The Hessian H of low is U D U^T: with both sides mixed, D_i = -t(1-t)
        m_i and U's column i stacks X's atoms over gx_i and Y's over -gy_i;
        with a closed side, low = ||v g^e||_q, D_i = e(eq-1) m_i and
        U = atoms / g, plus the rank-one e^2(1-q) (a c)(a c)^T / low.  Each
        side's weights keep their sum (the rows of onehot).  The system is
        scaled by the curvature plus the slope of each atom (an atom along
        which low is linear runs to its face) and regularized by the norm of
        its right-hand side, at least ROUNDING.  Returns d, the gradient and
        -H, or None where they are not finite.
        """
        g, low, c, m, slope = now
        a = self.atoms
        if self.closed is None:
            u = np.subtract(*np.split(a / g, 2, axis=1))
            neg_h = self.expo[0] * self.expo[1] * (u * m) @ u.T
        else:
            ac = (slope + low) * (e[0] * math.sqrt((self.q - 1.0) / low))
            neg_h = ac[:, None] * ac
            if self.k:  # 0 for l-infinity, whose pairing is linear in g under a power
                neg_h -= (a * (e[0] * self.k * c / g)) @ a.T
        if not np.isfinite(neg_h).all():
            return None
        grad, n = e * slope, len(w)
        diag = neg_h.diagonal() + np.abs(grad)
        sc = np.where(diag > 0.0, diag, 1.0) ** -0.5
        kkt = np.zeros((n + len(onehot),) * 2)  # each side's sum is a constraint row
        kkt[:n, :n] = sc[:, None] * neg_h * sc
        kkt[n:, :n] = onehot * sc
        kkt[:n, n:] = kkt[n:, :n].T
        rhs = np.concatenate((sc * grad, np.zeros(len(onehot))))
        idle = w == 0.0
        play = np.concatenate((~idle | (slope > 0.0), np.ones(len(onehot), dtype=bool)))
        while True:  # an idle atom that the step pushes below 0 leaves play
            keep = np.flatnonzero(play)
            sub, r = kkt[keep[:, None], keep], rhs[keep]
            free = len(keep) - len(onehot)
            sub.flat[:free * (len(keep) + 1):len(keep) + 1] += max(math.sqrt(r @ r), ROUNDING)
            d = np.zeros(n)
            d[keep[:free]] = sc[keep[:free]] * np.linalg.solve(sub, r)[:free]
            if not (d[idle] < 0.0).any():
                return (d, grad, neg_h) if np.isfinite(d).all() else None
            play[:n] &= ~idle | (d >= 0.0)

    def run(self) -> None:
        """Fully-corrective Frank-Wolfe rounds until the bracket closes.

        A spent budget stops the solve unclosed, and so does a round that adds
        no atom while its hull optimum meets the KKT condition or its hull
        solve moved no weight: the next round would repeat it.
        """
        self.point(self.v, self.v)  # x = y = z: the interpolation bound
        while not self.converged and self.evals < DEFAULT_BUDGET:
            atoms, w = len(self.side), self.w
            cs, optimal = self.hull_optimum()
            self.point(*cs)
            if len(self.side) == atoms and (optimal or self.w is w):
                return

    def factorization(self, support: Tuple[int, ...]) -> Factorization:
        """The witness at the least upper bound; both norms equal the value."""
        ux, uy = self.witness
        return Factorization(
            SeqVector(zip(support, self.value * ux)), SeqVector(zip(support, self.value * uy)),
            self.value, self.lower,
        )


def _calderon_solve(evx: NormEvaluator, evy: NormEvaluator, theta: float, v: np.ndarray,
                    tol: float) -> _Solve:
    """Run simplicial decomposition over the dual balls until it stops."""
    solve = _Solve(evx, evy, theta, v, tol)
    solve.run()
    return solve


# -- public API ----------------------------------------------------------------


_registry: Dict[tuple, NormEvaluator] = {}


def get_evaluator(descriptor: SpaceDescriptor, tol: float = TOL_ITERATIVE) -> NormEvaluator:
    """The shared evaluator of (descriptor, tol).

    Its caches persist across calls; the registry keeps the newest
    REGISTRY_SIZE evaluators.
    """
    return _memo(_registry, (descriptor, tol), lambda: NormEvaluator(descriptor, tol=tol),
                 REGISTRY_SIZE)


def convexified_norm(base: SpaceDescriptor, p: float, x: SeqVector) -> float:
    """The p-convexification N_base(|x|^p)^(1/p) of a base lattice norm."""
    return get_evaluator(Convexified(base, p)).norm(x)


def calderon_norm(
    x_space: SpaceDescriptor,
    y_space: SpaceDescriptor,
    theta: float,
    z: SeqVector,
    tol: float = TOL_ITERATIVE,
) -> Tuple[float, Factorization]:
    """The Calderon product norm of z with a balanced witness.

    Raises UnsupportedSpaceError for non-lattice factors, ValidationError
    for an empty z, and ConvergenceError (carrying the bracket) if the
    certified gap cannot be closed within DEFAULT_BUDGET norm evaluations.
    """
    desc = CalderonProduct(x_space, y_space, theta)
    ev = get_evaluator(desc, tol=tol)
    return ev.factorize(z)
