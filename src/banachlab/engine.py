"""Norm evaluation engine for all space descriptors.

Every lattice norm here is spreading invariant: the norm of x depends
only on the absolute values of its support, in support order, not on
the coordinates.  So the evaluator has one core,

* ``norming_values(v)`` - for a positive numpy array v in support
  order, the norm value (certified upper bound for optimizer branches,
  exact up to rounding for closed forms and the DP) and the weights of
  a norming functional g at the same positions, with ||g||_* <= 1 and
  <v, g> equal to the norm up to the evaluator tolerance.

It is the only place that dispatches on the descriptor kind of a lattice
norm, and its recursion across the descriptor tree stays on arrays.
``norm``, ``norming`` and ``factorize`` are boundary wrappers: they pass
|x| in support order to the core and put the coordinates and signs back.
``norm`` keeps two exceptions, the exact closed form of lp and the
non-lattice distorted norm.  The caches are keyed by position too, so a
vector with gaps hits the entry of its compressed twin.

The core drives the Calderon-product solver: the norm of X^(1-t) Y^t at
z is minimized over the log-parameterization x_i = |z_i| e^{t s_i},
y_i = |z_i| e^{-(1-t) s_i} (which enforces |x|^(1-t) |y|^t = |z|
identically), and every iterate's norming functionals produce the
certified lower bound

    sum_i |z_i| gx_i^(1-t) gy_i^t  <=  ||z||_Z,

valid for any gx, gy in the respective dual balls.  The solver has two
stages.  L-BFGS-B descends from s = 0 and certifies smooth optima.  A
Kelley cutting-plane LP in an adaptive trust box (the box-proximal
bundle method) then runs until the bracket closes; its LP marginals are
the aggregate multipliers, whose mixtures of norming functionals certify
kinked optima.  It stops when upper - lower <= tol * upper, when the
evaluation budget runs out or when the LP fails; the last two raise a
ConvergenceError carrying the bracket and the reason.

Dual norms of the Schlumprecht space (and, generically, of any space
with an exact norming oracle) are computed by a cutting-plane LP over
the polyhedral unit ball: maximize <g, x> subject to lazily generated
partition-tree constraints; the separation oracle is the DP itself, and
the cut pool is kept by the evaluator of the ball it cuts.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, NamedTuple, Optional, Tuple

import numpy as np
from scipy import optimize as _sciopt

from .descriptors import (
    CalderonProduct,
    Convexified,
    Dual,
    DualSchlumprecht,
    Lp,
    Schlumprecht,
    SpaceDescriptor,
    YDistortion,
    dual_descriptor,
    space_to_str,
)
from .errors import (
    ConvergenceError,
    UnsupportedSpaceError,
    ValidationError,
)
from .schlumprecht import DEFAULT_DP_CAP, s_norm, s_norm_weights
from .vectors import SeqVector, lp_norm, pairing

__all__ = [
    "NormingResult",
    "Factorization",
    "NormEvaluator",
    "get_evaluator",
    "calderon_norm",
    "contains_non_lattice",
]

# default relative tolerances by evaluation branch
TOL_CLOSED = 1e-12
TOL_DP = 1e-9
TOL_ITERATIVE = 1e-6

DEFAULT_BUDGET = 10_000


class NormingResult(NamedTuple):
    value: float
    functional: SeqVector
    pairing: float

    @property
    def gap(self) -> float:
        return self.value - self.pairing


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


def contains_non_lattice(d: SpaceDescriptor) -> bool:
    if isinstance(d, YDistortion):
        return True
    if isinstance(d, Convexified):
        return contains_non_lattice(d.base)
    if isinstance(d, CalderonProduct):
        return contains_non_lattice(d.x) or contains_non_lattice(d.y)
    if isinstance(d, Dual):
        return contains_non_lattice(d.base)
    return False


def _normalize(d: SpaceDescriptor) -> SpaceDescriptor:
    """Push Dual constructors down to closed forms."""
    if isinstance(d, Dual):
        return _normalize(dual_descriptor(_normalize(d.base)))
    if isinstance(d, Convexified):
        return Convexified(_normalize(d.base), d.p)
    if isinstance(d, CalderonProduct):
        return CalderonProduct(_normalize(d.x), _normalize(d.y), d.theta)
    return d


class NormEvaluator:
    """Deterministic norm/norming evaluator with a positional cache."""

    def __init__(
        self,
        descriptor: SpaceDescriptor,
        tol: Optional[float] = None,
        budget: int = DEFAULT_BUDGET,
    ):
        if budget < 1:
            raise ValidationError(f"the evaluation budget must be at least 1, got {budget}")
        self.descriptor = descriptor
        self.impl = _normalize(descriptor)
        self.budget = budget
        self.tol = tol if tol is not None else self._default_tol()
        self._norm_cache: Dict[tuple, float] = {}
        self._sol_cache: Dict[tuple, "_CalderonSolution"] = {}
        self._dual_cuts: Dict[int, List[np.ndarray]] = {}  # cuts of this unit ball

    # -- configuration ----------------------------------------------------

    def _default_tol(self) -> float:
        d = self.impl
        if isinstance(d, (Lp, YDistortion)):
            return TOL_CLOSED
        if isinstance(d, (Schlumprecht, DualSchlumprecht, Convexified)):
            return TOL_DP
        return TOL_ITERATIVE

    def _child(self, desc: SpaceDescriptor) -> "NormEvaluator":
        return get_evaluator(desc, tol=max(self.tol * 0.25, 1e-10), budget=self.budget)

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
            if len(v) <= DEFAULT_DP_CAP:
                nv, w = s_norm_weights(v.tolist(), d.gauge)
                return nv, np.array(w)
            # beyond the cap: the analytic constant-block path or SizeCapError
            nv, cert = s_norm(SeqVector.from_values(v), d.gauge)
            return nv, np.array(cert.functional().values_in_order())
        if isinstance(d, DualSchlumprecht):
            return _cutting_plane_dual(self._child(Schlumprecht(d.gauge)), v)
        if isinstance(d, Convexified):
            nb, wb = self._child(d.base).norming_values(v**d.p)
            nv = nb ** (1.0 / d.p)
            if nv == 0.0:
                return 0.0, np.zeros(len(v))
            return nv, v ** (d.p - 1.0) * wb / nb ** ((d.p - 1.0) / d.p)
        if isinstance(d, CalderonProduct):
            sol = self._solve_product(v)
            return sol.value, sol.gx ** (1.0 - d.theta) * sol.gy**d.theta
        raise UnsupportedSpaceError(f"no norming functional for {space_to_str(d)}")

    def _cached_norm(self, v: np.ndarray) -> float:
        key = tuple(v.tolist())
        got = self._norm_cache.get(key)
        if got is None:
            got = self._norm_cache[key] = self.norming_values(v)[0]
        return got

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
        return self._cached_norm(_positive(x))

    def norming(self, x: SeqVector) -> NormingResult:
        if not x:
            return NormingResult(0.0, SeqVector(), 0.0)
        value, w = self.norming_values(_positive(x))
        func = _signed(x, w)
        return NormingResult(value, func, pairing(x, func))

    def _solve_product(self, v: np.ndarray) -> "_CalderonSolution":
        d = self.impl
        assert isinstance(d, CalderonProduct)
        key = tuple(v.tolist())
        sol = self._sol_cache.get(key)
        if sol is None:
            evx, evy = self._child(d.x), self._child(d.y)
            sol = _calderon_solve(evx, evy, d.theta, v, self.tol, self.budget)
            self._sol_cache[key] = sol
        if not sol.converged:
            budget_out = sol.evals >= self.budget
            why = "the budget ran out" if budget_out else "the cutting-plane LP failed"
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
        return sol.value, sol.factorization(d.theta, z.support)


def _positive(x: SeqVector) -> np.ndarray:
    """|x| in support order: what the norming core sees of x."""
    return np.abs(np.array(x.values_in_order()))


def _signed(x: SeqVector, w: np.ndarray) -> SeqVector:
    """Put the support and the signs of x back on positional weights w."""
    return SeqVector(zip(x.support, np.copysign(w, x.values_in_order()).tolist()))


# -- cutting-plane dual norm ------------------------------------------------


def _cutting_plane_dual(
    oracle: NormEvaluator,
    c: np.ndarray,
    feas_tol: float = 1e-9,
    gap_tol: float = 1e-7,
    max_rounds: int = 400,
) -> Tuple[float, np.ndarray]:
    """max { <x, c> : ||x||_oracle <= 1 } for a positive c, with lazy cuts.

    Returns the value and a maximizer, nonnegative and in the positions
    of c.  Cuts are functionals with dual norm at most one, so each LP
    value is an upper bound; every point the oracle sees, rescaled onto
    the unit sphere, is feasible and gives a lower bound.  The result is
    a certified two-sided bracket: width feas_tol on polyhedral balls,
    where the LP vertex itself turns out feasible, and gap_tol on smooth
    ones, where the bracket closes gradually.

    Separation is stabilized by in-out separation (Ben-Ameur & Neto
    2007).  While the rescaled LP vertex is the best feasible point, the
    oracle is queried at the vertex (a Kelley cut).  Otherwise the LP has
    stalled, typically on a degenerate optimal face, and the oracle is
    queried at the midpoint of the vertex and the best feasible point.
    If the midpoint lies outside the ball, its norming functional still
    cuts the vertex off, since the best point satisfies the cut; if it
    lies inside, the lower bound gains at least half the gap.

    The cut pool belongs to the ball it cuts, oracle._dual_cuts, and maps
    a support size to cut rows by position (all implemented spaces are
    spreading invariant).  It is a warm start only: the call copies the
    rows for its size, works on the copy and writes the copy back when it
    ends, so no call sees a pool that changes under it.
    """
    n = len(c)
    scale = float(c.max())  # dual norms are homogeneous; keep the LP well scaled
    c = c / scale
    unit = oracle._cached_norm(np.ones(1))
    bounds = [(0.0, 1.0 / unit)] * n
    cuts = list(oracle._dual_cuts.get(n, ()))

    def probe(x: np.ndarray) -> Tuple[float, np.ndarray]:
        # LP points have zero coordinates; the oracle norms the positive ones
        pos = x > 0.0
        nx, w = oracle.norming_values(x[pos])
        row = np.zeros(n)
        row[pos] = w
        return nx, row

    def closed() -> bool:
        return lpval - best_val <= gap_tol * max(lpval, 1.0)

    best_val, best_x = 0.0, np.zeros(n)
    lpval = math.inf
    healed = False
    try:
        for _ in range(max_rounds):
            a_ub = np.vstack(cuts) if cuts else None
            b_ub = np.ones(len(cuts)) if cuts else None
            res = _sciopt.linprog(-c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
            if res.status != 0:
                raise ConvergenceError(
                    f"dual-norm LP failed with status {res.status}",
                    scale * best_val, scale * lpval,
                )
            xstar = np.maximum(res.x, 0.0)
            if not healed and cuts and float(c @ xstar) < best_val * (1 - 1e-9):
                # a relaxation value below a feasible value means a pooled
                # cut is numerically invalid; rebuild this call's rows once
                cuts = []
                healed = True
                continue
            lpval = float(c @ xstar)
            nv = oracle._cached_norm(xstar[xstar > 0.0])  # warm LPs often repeat a vertex
            if nv <= 1.0 + feas_tol:
                fix = 1.0 / nv if nv > 1.0 else 1.0
                return scale * lpval * fix, xstar * fix
            row = None
            if best_val < lpval / nv:
                best_val, best_x = lpval / nv, xstar / nv
            else:
                while not closed():
                    q = 0.5 * (xstar + best_x)
                    nq, qrow = probe(q)
                    gain = float(c @ q) / nq > best_val
                    if gain:
                        best_val, best_x = float(c @ q) / nq, q / nq
                    if float(qrow @ xstar) > 1.0 + 0.5 * feas_tol:
                        row = qrow
                        break
                    if not gain:
                        break
            if closed():
                return scale * best_val, best_x
            if row is None:
                row = probe(xstar)[1]
            if float(row @ xstar) <= 1.0 + 0.5 * feas_tol:
                raise ConvergenceError("dual-norm LP stalled (oracle cut did not separate)",
                                       scale * best_val, scale * lpval)
            cuts.append(row)
        raise ConvergenceError("dual-norm LP exceeded round limit",
                               scale * best_val, scale * lpval)
    finally:
        oracle._dual_cuts[n] = cuts


# -- Calderon product solver --------------------------------------------------


@dataclass
class _CalderonSolution:
    v: np.ndarray
    s: np.ndarray
    value: float  # min observed balanced value (certified upper bound)
    lower: float
    nx: float
    ny: float
    gx: np.ndarray  # best certifying dual pair (unit dual balls)
    gy: np.ndarray
    evals: int
    converged: bool

    def factorization(self, theta: float, support: Tuple[int, ...]) -> Factorization:
        xv = self.v * np.exp(theta * self.s)
        yv = self.v * np.exp(-(1.0 - theta) * self.s)
        # rebalance so both norms equal the achieved value
        c = math.log(self.ny / self.nx) if self.nx > 0 and self.ny > 0 else 0.0
        xv = xv * math.exp(theta * c)
        yv = yv * math.exp(-(1.0 - theta) * c)
        return Factorization(
            SeqVector(zip(support, xv)),
            SeqVector(zip(support, yv)),
            self.value,
            self.lower,
        )


class _BudgetExhausted(Exception):
    pass


def _calderon_solve(
    evx: NormEvaluator,
    evy: NormEvaluator,
    theta: float,
    v_raw: np.ndarray,
    tol: float,
    budget: int,
) -> _CalderonSolution:
    zscale = float(v_raw.max())  # homogeneity: solve at unit scale
    v = v_raw / zscale
    n = len(v)
    thc = 1.0 - theta
    bound = 40.0 / max(theta, thc)

    pool_x: List[np.ndarray] = []
    pool_y: List[np.ndarray] = []
    seen_x: set = set()
    seen_y: set = set()
    # the cuts of the Kelley LP: (s, phi, grad, gx, gy) of the latest points
    history: Deque[Tuple[np.ndarray, float, np.ndarray, np.ndarray, np.ndarray]] = deque(
        maxlen=120
    )
    state = {
        "evals": 0,
        "best_u": math.inf,
        "best": None,  # (s, nx, ny)
        "lower": 0.0,
    }

    def record_pool(pool: List[np.ndarray], arr: np.ndarray) -> None:
        seen = seen_x if pool is pool_x else seen_y
        key = np.round(arr, 12).tobytes()
        if key in seen:
            return
        seen.add(key)
        pool.append(arr)
        if len(pool) > 48:
            del pool[0]

    def flat_candidates(vals: np.ndarray, ev: NormEvaluator) -> List[np.ndarray]:
        # extra dual candidates for sup-norm sides: uniform weight over
        # near-maximal coordinates (any convex mix of vertices is feasible)
        if not (isinstance(ev.impl, Lp) and math.isinf(ev.impl.p)):
            return []
        m = vals.max()
        out = []
        for delta in (1e-12, 1e-9, 1e-6, 1e-3):
            mask = vals >= (1.0 - delta) * m
            k = int(mask.sum())
            if k > 1:
                out.append(mask.astype(float) / k)
        return out

    def eval_point(s: np.ndarray) -> Tuple[float, np.ndarray]:
        if state["evals"] >= budget:
            raise _BudgetExhausted
        state["evals"] += 2
        xv = v * np.exp(theta * s)
        yv = v * np.exp(-thc * s)
        nx, gx = evx.norming_values(xv)
        ny, gy = evy.norming_values(yv)
        record_pool(pool_x, gx)
        record_pool(pool_y, gy)
        for cand in flat_candidates(xv, evx):
            record_pool(pool_x, cand)
        for cand in flat_candidates(yv, evy):
            record_pool(pool_y, cand)
        phi = thc * math.log(nx) + theta * math.log(ny)
        u = math.exp(phi)
        if u < state["best_u"]:
            state["best_u"] = u
            state["best"] = (s.copy(), nx, ny)
        grad = theta * thc * (xv * gx / nx - yv * gy / ny)
        history.append((s.copy(), phi, grad, gx, gy))
        return phi, grad

    best_pair: List[np.ndarray] = []

    def certified() -> bool:
        if pool_x and pool_y:
            cands_x = pool_x + ([np.mean(pool_x, axis=0)] if len(pool_x) > 1 else [])
            cands_y = pool_y + ([np.mean(pool_y, axis=0)] if len(pool_y) > 1 else [])
            ax = np.asarray(cands_x) ** thc * v  # rows scaled by |z|
            by = np.asarray(cands_y) ** theta
            lb = ax @ by.T
            i, j = np.unravel_index(int(np.argmax(lb)), lb.shape)
            if lb[i, j] > state["lower"] or not best_pair:
                state["lower"] = max(state["lower"], float(lb[i, j]))
                best_pair[:] = [cands_x[i], cands_y[j]]
        u = state["best_u"]
        return u - state["lower"] <= tol * u

    def kelley_phase() -> None:
        # Cutting-plane descent with an adaptive trust box (the box-proximal
        # bundle method).  The LP duals give convex mixtures of recent
        # norming functionals, fed back into the certification pools: at a
        # kinked optimum the certifying pair is such a mixture.
        radius = 4.0
        for k in itertools.count(1):
            s_best = state["best"][0]
            lo = np.maximum(s_best - radius, -bound)
            hi = np.minimum(s_best + radius, bound)
            c_lp = np.zeros(n + 1)
            c_lp[n] = 1.0
            a_ub = np.zeros((len(history), n + 1))
            b_ub = np.zeros(len(history))
            for j, (sj, fj, gj, _, _) in enumerate(history):
                a_ub[j, :n] = gj
                a_ub[j, n] = -1.0
                b_ub[j] = float(gj @ sj) - fj
            lp_bounds = [(lo[i], hi[i]) for i in range(n)] + [(None, None)]
            res = _sciopt.linprog(
                c_lp, A_ub=a_ub, b_ub=b_ub, bounds=lp_bounds, method="highs"
            )
            if res.status != 0:
                return
            if res.ineqlin is not None:
                lam = np.abs(np.asarray(res.ineqlin.marginals))
                tot = lam.sum()
                if tot > 0:
                    lam = lam / tot
                    record_pool(pool_x, sum(l * c[3] for l, c in zip(lam, history)))
                    record_pool(pool_y, sum(l * c[4] for l, c in zip(lam, history)))
            prev_best = state["best_u"]
            phi_new, _ = eval_point(np.asarray(res.x[:n]))
            if math.exp(phi_new) < prev_best - 1e-14 * prev_best:
                radius = min(radius * 1.6, 16.0)
            else:
                radius = max(radius * 0.5, 1e-3)
            if k % 5 == 0 and certified():
                return

    s0 = np.zeros(n)
    try:
        eval_point(s0)
        if not certified():
            _sciopt.minimize(
                eval_point,
                s0,
                jac=True,
                method="L-BFGS-B",
                bounds=[(-bound, bound)] * n,
                options={"maxiter": 80, "ftol": 1e-15, "gtol": 1e-12},
            )
            if not certified():
                kelley_phase()
    except _BudgetExhausted:
        pass
    converged = certified()

    s_best, nx, ny = state["best"]
    value = zscale * state["best_u"]
    return _CalderonSolution(
        v=v_raw,
        s=s_best,
        value=value,
        lower=min(zscale * state["lower"], value),  # rounding must not invert the bracket
        nx=zscale * nx,
        ny=zscale * ny,
        gx=best_pair[0],
        gy=best_pair[1],
        evals=state["evals"],
        converged=converged,
    )


# -- public API ----------------------------------------------------------------


_registry: Dict[tuple, NormEvaluator] = {}


def get_evaluator(
    descriptor: SpaceDescriptor,
    tol: Optional[float] = None,
    budget: int = DEFAULT_BUDGET,
) -> NormEvaluator:
    """Shared evaluator instances (caches persist across calls)."""
    key = (descriptor, tol, budget)
    ev = _registry.get(key)
    if ev is None:
        ev = NormEvaluator(descriptor, tol=tol, budget=budget)
        _registry[key] = ev
    return ev


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
    if contains_non_lattice(x_space) or contains_non_lattice(y_space):
        raise UnsupportedSpaceError("Calderon product factors must be lattice norms")
    if not z:
        raise ValidationError("Calderon norm needs a nonzero vector")
    desc = CalderonProduct(x_space, y_space, theta)
    ev = get_evaluator(desc, tol=tol, budget=budget)
    return ev.factorize(z)
