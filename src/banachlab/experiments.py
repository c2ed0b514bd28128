"""Experiment drivers for the quantitative constructions.

Covers l1^m-averages and block growth, the dyadic v_n averages and
their equivalence constants, the coordinate projection bound, the beta_n
dual estimate, the distorted-norm unconditionality mechanism, moduli of
convexity/smoothness estimation, and the class membership verifier for
the squeeze/convexity/lower-estimate conditions.

Randomized drivers draw one generator stream per sample index (split
from the seed), so results are independent of any parallel scheduling
and reproducible from the seed alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .descriptors import (
    FunctionalFamily,
    SpaceDescriptor,
    YDistortion,
    conjugate_exponent,
    space_to_str,
)
from .duality import dual_norm
from .engine import NormEvaluator, get_evaluator
from .errors import ValidationError
from .gauges import GaugeFunction
from .reports import ExperimentReport
from .vectors import Interval, SeqVector, lp_norm, lp_of, pairing, restrict

__all__ = [
    "BlockSequence",
    "FunctionalFamily",
    "l1_average",
    "block_sum_growth",
    "vn_averages",
    "equivalence_constant",
    "projection_bound",
    "beta_estimate",
    "distortion_y_norm",
    "unconditionality_ratio",
    "modulus_convexity_estimate",
    "modulus_smoothness_estimate",
    "classX_verify",
]


def _rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, k]))


@dataclass(frozen=True)
class BlockSequence:
    """Vectors with pairwise disjoint, strictly increasing interval supports."""

    blocks: Tuple[SeqVector, ...]

    def __post_init__(self):
        for b in self.blocks:
            if not b:
                raise ValidationError("blocks must be nonzero")
        for u, w in zip(self.blocks, self.blocks[1:]):
            if u.max_index() >= w.min_index():
                raise ValidationError("block supports must be strictly increasing")

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    def __getitem__(self, k: int) -> SeqVector:
        return self.blocks[k]

    @classmethod
    def basis(cls, count: int) -> "BlockSequence":
        return cls(tuple(SeqVector.basis(1 + k) for k in range(count)))


def l1_average(m: int, offset: int, x_space: SpaceDescriptor) -> SeqVector:
    """The constant block on coordinates offset+1 .. offset+m, normalized."""
    if m < 1:
        raise ValidationError(f"average length must be >= 1, got {m}")
    ev = get_evaluator(x_space)
    raw = SeqVector.from_values([1.0] * m, start=offset + 1)
    return raw * (1.0 / ev.norm(raw))


def block_sum_growth(
    x_space: SpaceDescriptor, p: float, seq: BlockSequence
) -> ExperimentReport:
    """Rows (n, ||u_1+...+u_n||, n^(1/p), ratio) over prefixes of seq."""
    ev = get_evaluator(x_space)
    for b in seq:
        if abs(ev.norm(b) - 1.0) > 1e-6:
            raise ValidationError("blocks must be normalized in the target space")
    report = ExperimentReport(
        ["n", "block_sum_norm", "n_pow_1_over_p", "ratio"],
        metadata={"space": space_to_str(x_space), "p": p},
    )
    acc = SeqVector()
    for n, b in enumerate(seq, start=1):
        acc = acc + b
        val = ev.norm(acc)
        target = n ** (1.0 / p)
        report.add_row(n, val, target, val / target)
    return report


def vn_averages(
    x_space: SpaceDescriptor, p: float, u: BlockSequence, n_max: int
) -> ExperimentReport:
    """Dyadic averages v_n = 2^(-n/p) sum_{i=2^n+1}^{2^(n+1)} u_i.

    Rows (n, ||v_n||, gap) with gap = 2^n (1 - ||v_n||); the vanishing of
    the gap along a block sequence is the subsequence-extraction
    hypothesis.
    """
    if len(u) < 2 ** (n_max + 1):
        raise ValidationError(
            f"need at least 2^(n_max+1) = {2 ** (n_max + 1)} blocks, got {len(u)}"
        )
    ev = get_evaluator(x_space)
    report = ExperimentReport(
        ["n", "vn_norm", "gap"],
        metadata={"space": space_to_str(x_space), "p": p, "n_max": n_max},
    )
    for n in range(1, n_max + 1):
        acc = SeqVector()
        for i in range(2**n, 2 ** (n + 1)):  # 0-based slice of 1-based 2^n+1 .. 2^(n+1)
            acc = acc + u[i]
        vn = acc * (2.0 ** (-n / p))
        val = ev.norm(vn)
        report.add_row(n, val, (2.0**n) * (1.0 - val))
    return report


def equivalence_constant(
    x_space: SpaceDescriptor,
    w: BlockSequence,
    samples: int,
    dim: int,
    seed: int = 0,
) -> float:
    """Certified lower bound on the basis-equivalence constant of (w_n).

    Samples coefficient vectors d and returns the largest observed
    two-sided ratio between ||sum d_n w_n|| and ||d||; sampling can only
    certify from below.
    """
    if dim > len(w):
        raise ValidationError(f"dim {dim} exceeds the {len(w)} available blocks")
    ev = get_evaluator(x_space)
    k_lower = 1.0
    for k in range(samples):
        rng = _rng(seed, k)
        d_len = int(rng.integers(1, dim + 1))
        coeffs = rng.uniform(-1.0, 1.0, d_len)
        coeffs[np.abs(coeffs) < 1e-3] = 1e-3
        image = SeqVector()
        for c, b in zip(coeffs, w):
            image = image + float(c) * b
        d_vec = SeqVector.from_values(coeffs)
        a = ev.norm(image)
        b = ev.norm(d_vec)
        if a > 0 and b > 0:
            k_lower = max(k_lower, a / b, b / a)
    return k_lower


def projection_bound(
    x_space: SpaceDescriptor,
    w: BlockSequence,
    g: BlockSequence,
    samples: int,
    seed: int = 0,
) -> Tuple[float, float]:
    """Sampled norm of Px = sum <x, g_n> w_n plus the dual bound M.

    Requires supp(w_n) inside supp(g_n), <w_n, g_n> = 1, and disjoint
    g-supports.  Returns (max observed ||Px||/||x||, max_n ||g_n||_X*).
    """
    if len(w) != len(g):
        raise ValidationError("w and g must pair up")
    for wn, gn in zip(w, g):
        if not set(wn.support) <= set(gn.support):
            raise ValidationError("supp(w_n) must lie inside supp(g_n)")
        if abs(pairing(wn, gn) - 1.0) > 1e-9:
            raise ValidationError("<w_n, g_n> must equal 1 within 1e-9")
    ev = get_evaluator(x_space)
    coords = sorted(set().union(*(gn.support for gn in g)))
    norm_lower = 0.0
    for k in range(samples):
        rng = _rng(seed, k)
        x = SeqVector(zip(coords, rng.normal(0.0, 1.0, len(coords))))
        px = SeqVector()
        for wn, gn in zip(w, g):
            px = px + pairing(x, gn) * wn
        nx = ev.norm(x)
        if nx > 0:
            norm_lower = max(norm_lower, ev.norm(px) / nx)
    m_bound = max(dual_norm(x_space, gn).value for gn in g)
    return norm_lower, m_bound


def beta_estimate(
    x_space: SpaceDescriptor,
    p: float,
    f: GaugeFunction,
    n: int,
    budget: int = 50,
    seed: int = 0,
) -> Tuple[float, float, float]:
    """Bracket the least norm of a sum of n normalized dual blocks.

    Returns (lower, upper, best_found): lower = n^(1/q) from
    q-concavity of the dual, upper = f(n) n^(1/q) from the block dual
    estimate, and best_found the smallest ||sum u_i*|| over a seeded
    randomized search of normalized dual block sequences.
    """
    q = conjugate_exponent(p)
    nq = float(n) ** (1.0 / q)
    lower = nq
    upper = f(float(n)) * nq
    if n == 1:
        return lower, upper, 1.0

    def candidate_value(widths: Sequence[int], shapes: List[np.ndarray]) -> float:
        total = SeqVector()
        start = 1
        for width, shape in zip(widths, shapes):
            block = SeqVector(zip(range(start, start + width), shape))
            unit = block * (1.0 / dual_norm(x_space, block).value)
            total = total + unit
            start += width
        return dual_norm(x_space, total).value

    best = candidate_value([1] * n, [np.ones(1)] * n)  # pure spikes
    for width in (2, 4):
        best = min(best, candidate_value([width] * n, [np.ones(width)] * n))
    for k in range(max(0, budget - 3)):
        rng = _rng(seed, k)
        widths = [int(rng.integers(1, 5)) for _ in range(n)]
        shapes = [rng.uniform(0.2, 1.0, wd) for wd in widths]
        best = min(best, candidate_value(widths, shapes))
    return lower, upper, best


def distortion_y_norm(family: FunctionalFamily, x: SeqVector) -> float:
    """max(||x||_2, r max |<x, z*>|) over the family."""
    return get_evaluator(YDistortion(family)).norm(x)


def unconditionality_ratio(
    family: FunctionalFamily, z: BlockSequence
) -> Tuple[float, float, float]:
    """Distorted norms of the plain and alternating block sums.

    The ratio plus/minus is a lower bound for the unconditional basis
    constant of (z_i) under the distorted norm.
    """
    if len(z) < 2:
        raise ValidationError("need at least two blocks")
    plus_vec = SeqVector()
    minus_vec = SeqVector()
    for i, b in enumerate(z, start=1):
        plus_vec = plus_vec + b
        minus_vec = minus_vec + ((-1.0) ** i) * b
    plus = distortion_y_norm(family, plus_vec)
    minus = distortion_y_norm(family, minus_vec)
    return plus, minus, plus / minus


# -- moduli of convexity and smoothness ----------------------------------


def _seed_pairs(dim: int) -> List[Tuple[SeqVector, SeqVector]]:
    pairs = []
    for i in range(1, dim + 1):
        for j in range(i + 1, dim + 1):
            pairs.append((SeqVector.basis(i), SeqVector.basis(j)))
    pairs.append((SeqVector.basis(1), SeqVector.basis(1, -1.0)))
    return pairs


def _unit(ev: NormEvaluator, v: SeqVector) -> Optional[SeqVector]:
    nv = ev.norm(v)
    return v * (1.0 / nv) if nv > 0 else None


def _search_pairs(
    ev: NormEvaluator,
    consider: Callable[[SeqVector, SeqVector], None],
    best: list,
    samples: int,
    dim: int,
    seed: int,
) -> None:
    """Feed unit pairs to consider: the seed pairs, `samples` random pairs,
    then random perturbations of the incumbent pair best[1]."""
    for x, y in _seed_pairs(dim):
        consider(x, y)
    for k in range(samples):
        rng = _rng(seed, k)
        x = _unit(ev, SeqVector.from_values(rng.normal(0.0, 1.0, dim)))
        y = _unit(ev, SeqVector.from_values(rng.normal(0.0, 1.0, dim)))
        if x is not None and y is not None:
            consider(x, y)
    refine = _rng(seed, samples + 1)
    sigma = 0.3
    for _ in range(min(300, samples)):
        x, y = best[1]
        xp = _unit(ev, x + SeqVector.from_values(refine.normal(0.0, sigma, dim)))
        yp = _unit(ev, y + SeqVector.from_values(refine.normal(0.0, sigma, dim)))
        if xp is not None and yp is not None:
            consider(xp, yp)
        sigma = max(sigma * 0.98, 1e-3)


def modulus_convexity_estimate(
    x_space: SpaceDescriptor,
    eps: float,
    samples: int,
    dim: int = 4,
    seed: int = 0,
) -> float:
    """Upper estimate of delta_X(eps) = inf 1 - ||(x+y)/2|| over the
    unit sphere with ||x - y|| >= eps.

    Sampling approaches the infimum from above: deterministic basis
    pairs, random pairs, a bisection pulling each pair onto the distance
    boundary, and a local perturbation descent around the incumbent.
    """
    if not 0.0 < eps <= 2.0:
        raise ValidationError(f"eps must lie in (0, 2], got {eps}")
    ev = get_evaluator(x_space)
    best = [math.inf, None]

    def consider(x: SeqVector, y: SeqVector) -> None:
        d = ev.norm(x - y)
        if d < eps:
            return
        raw = 1.0 - ev.norm((x + y) * 0.5)
        if raw < best[0]:
            best[0], best[1] = raw, (x, y)
        # pull y toward x until ||x-y|| hits eps; skip hopeless chords
        if raw > best[0] + 0.35:
            return
        lo, hi, feas = 0.0, 1.0, y
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            cand = _unit(ev, (1.0 - mid) * y + mid * x)
            if cand is None:
                hi = mid
                continue
            if ev.norm(x - cand) >= eps:
                lo, feas = mid, cand
            else:
                hi = mid
        obj = 1.0 - ev.norm((x + feas) * 0.5)
        if obj < best[0]:
            best[0], best[1] = obj, (x, feas)

    _search_pairs(ev, consider, best, samples, dim, seed)
    return best[0]


def modulus_smoothness_estimate(
    x_space: SpaceDescriptor,
    tau: float,
    samples: int,
    dim: int = 4,
    seed: int = 0,
) -> float:
    """Lower estimate of rho_X(tau) = sup (||x+ty|| + ||x-ty||)/2 - 1
    over unit x, y; sampling approaches the supremum from below."""
    if not 0.0 < tau <= 1.0:
        raise ValidationError(f"tau must lie in (0, 1], got {tau}")
    ev = get_evaluator(x_space)
    best = [-math.inf, None]

    def consider(x: SeqVector, y: SeqVector) -> None:
        obj = 0.5 * (ev.norm(x + tau * y) + ev.norm(x - tau * y)) - 1.0
        if obj > best[0]:
            best[0], best[1] = obj, (x, y)

    _search_pairs(ev, consider, best, samples, dim, seed)
    return best[0]


# -- class membership verifier ---------------------------------------------

CLASSX_DIM = 8  # the largest support of classX_verify's sample vectors


def _lattice_sum(xs: List[SeqVector], s: float) -> SeqVector:
    """(sum_j |x_j|^s)^(1/s) coordinatewise by `lp_of`; the max of the |x_j| at s = inf."""
    acc: dict = {}
    for x in xs:
        for i, v in x:
            acc.setdefault(i, []).append(abs(v))
    return SeqVector((i, lp_of(a, s)) for i, a in acc.items())


def classX_verify(
    x_space: SpaceDescriptor,
    p: float,
    r: float,
    f: GaugeFunction,
    samples: int,
    seed: int = 0,
    tol: float = 1e-8,
) -> ExperimentReport:
    """Check the squeeze, convexity/concavity, and lower f-estimate.

    Reports the worst violation (positive slack) per condition over the
    random suite; sample index -1 is the canonical two-coordinate probe
    that separates the sup-norm from admissible spaces.
    """
    ev = get_evaluator(x_space)
    q_exp = 1.0 / p - 1.0 / r
    worst = {"squeeze": 0.0, "convexity": 0.0, "lower_estimate": 0.0}

    def check_squeeze(x: SeqVector) -> None:
        nx = ev.norm(x)
        worst["squeeze"] = max(
            worst["squeeze"], lp_norm(x, r) - nx, nx - lp_norm(x, p)
        )

    def check_convexity(tup: List[SeqVector]) -> None:
        norms = [ev.norm(xj) for xj in tup]
        # p-convexity with constant one
        lhs = ev.norm(_lattice_sum(tup, p))
        worst["convexity"] = max(worst["convexity"], lhs - lp_of(norms, p))
        # r-concavity with constant one
        rhs_c = ev.norm(_lattice_sum(tup, r))
        worst["convexity"] = max(worst["convexity"], lp_of(norms, r) - rhs_c)

    def check_lower_estimate(x: SeqVector, intervals: List[Interval]) -> None:
        n = len(intervals)
        # lp_norm drops the blocks that miss the support of x, all of them at times
        inner = lp_norm(SeqVector.from_values([ev.norm(restrict(x, e)) for e in intervals]), p)
        bound = inner / f(float(n)) ** q_exp
        worst["lower_estimate"] = max(worst["lower_estimate"], bound - ev.norm(x))

    # canonical probe: two unit coordinates against singleton blocks
    probe = SeqVector.from_values([1.0, 1.0])
    check_squeeze(probe)
    check_convexity([SeqVector.basis(1), SeqVector.basis(2)])
    check_lower_estimate(probe, [Interval(1, 1), Interval(2, 2)])

    for k in range(samples):
        rng = _rng(seed, k)
        d = int(rng.integers(2, CLASSX_DIM + 1))
        vals = rng.uniform(0.2, 1.5, d) * rng.choice([-1.0, 1.0], d)
        x = SeqVector.from_values(vals)
        check_squeeze(x)
        tup = []
        for _ in range(int(rng.integers(2, 4))):
            dj = int(rng.integers(1, CLASSX_DIM + 1))
            tup.append(SeqVector.from_values(rng.uniform(0.1, 1.0, dj)))
        check_convexity(tup)
        n_blocks = int(rng.integers(2, 5))
        cuts = sorted(rng.choice(np.arange(1, d + n_blocks * 2 + 1),
                                 size=2 * n_blocks, replace=False))
        intervals = [Interval(int(cuts[2 * j]), int(cuts[2 * j + 1])) for j in range(n_blocks)]
        check_lower_estimate(x, intervals)

    report = ExperimentReport(
        ["condition", "worst_slack", "pass"],
        metadata={
            "space": space_to_str(x_space),
            "p": p,
            "r": r,
            "gauge": f.name,
            "samples": samples,
            "seed": seed,
            "tolerance": tol,
        },
    )
    report.add_row("squeeze", worst["squeeze"], worst["squeeze"] <= tol)
    report.add_row("convexity", worst["convexity"], worst["convexity"] <= tol)
    report.add_row(
        "lower_estimate", worst["lower_estimate"], worst["lower_estimate"] <= tol
    )
    return report
