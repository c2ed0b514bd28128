"""Dual norms, the pairing, and duality-based identities.

Routing for dual_norm(X, g) = sup { <x, g> : ||x||_X <= 1 }:

* lp leaves use the conjugate closed form;
* Schlumprecht leaves stay Dual(S) and run the cutting-plane LP over
  partition-tree functionals (the separation oracle is the norm DP
  itself);
* convexifications and Calderon products go through the duality theorem
  (X^(1-t) Y^t)* = (X*)^(1-t) (Y*)^t and the certified product solver;
* duals of duals are computed honestly, by the generic cutting-plane
  over the inner dual ball, so finite-dimensional reflexivity is a
  numerical check rather than a rewrite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .descriptors import (
    Dual,
    SpaceDescriptor,
    conjugate_exponent,
    space_to_str,
)
from .engine import _cutting_plane_dual, _positive, _signed, calderon_norm, get_evaluator
from .errors import ValidationError
from .gauges import GaugeFunction
from .reports import ExperimentReport
from .vectors import SeqVector, lp_norm, lp_of, pairing

__all__ = [
    "DualEvaluation",
    "pairing",
    "dual_norm",
    "lozanovskii_check",
    "dual_block_bound",
]

BLOCK_BOUND_TOL = 1e-6  # dual_block_bound's tol for its dual norms and its slack relative to rhs


@dataclass
class DualEvaluation:
    """Dual norm value with a feasible maximizer attaining it."""

    value: float
    maximizer: SeqVector


def dual_norm(x_space: SpaceDescriptor, g: SeqVector, tol: float = 1e-6) -> DualEvaluation:
    """Evaluate ||g|| in the dual of x_space, with maximizer."""
    if not g:
        return DualEvaluation(0.0, SeqVector())
    if isinstance(x_space, Dual):
        # honest bidual: cutting-plane over the inner dual ball
        value, x = _cutting_plane_dual(get_evaluator(x_space, tol=tol), _positive(g))
        return DualEvaluation(value, _signed(g, x))
    ev = get_evaluator(Dual(x_space), tol=tol)
    res = ev.norming(g)
    return DualEvaluation(res.value, res.functional)


def lozanovskii_check(
    x_space: SpaceDescriptor,
    samples: int,
    dim: int,
    seed: int = 0,
    tol: float = 1e-5,
) -> ExperimentReport:
    """Compare X^(1/2) (X*)^(1/2) against l2 on random nonnegative vectors."""
    report = ExperimentReport(
        ["sample", "dim", "product_norm", "l2_norm", "rel_deviation"],
        metadata={
            "space": space_to_str(x_space),
            "samples": samples,
            "max_dim": dim,
            "seed": seed,
            "tolerance": tol,
        },
    )
    worst = 0.0
    for k in range(samples):
        rng = np.random.default_rng(np.random.SeedSequence([seed, k]))
        d = int(rng.integers(1, dim + 1))
        z = SeqVector.from_values(rng.uniform(0.1, 2.0, d))
        val, _ = calderon_norm(x_space, Dual(x_space), 0.5, z, tol=tol)
        ref = lp_norm(z, 2.0)
        dev = abs(val - ref) / ref
        worst = max(worst, dev)
        report.add_row(k, d, val, ref, dev)
    report.metadata["max_rel_deviation"] = worst
    return report


def dual_block_bound(
    x_space: SpaceDescriptor,
    p: float,
    f: GaugeFunction,
    blocks: Sequence[SeqVector],
) -> Tuple[float, float, bool]:
    """Check ||sum u_i*|| <= f(n) (sum ||u_i*||^q)^(1/q) in the dual.

    Blocks must be successive: strictly increasing, pairwise disjoint
    interval supports.  q is conjugate to p (max when q = inf).
    """
    blocks = list(blocks)
    if not blocks:
        raise ValidationError("need at least one block")
    for u, w in zip(blocks, blocks[1:]):
        if not u or not w or u.max_index() >= w.min_index():
            raise ValidationError("blocks must have strictly increasing disjoint supports")
    q = conjugate_exponent(p)
    n = len(blocks)
    total = blocks[0]
    for u in blocks[1:]:
        total = total + u
    lhs = dual_norm(x_space, total, tol=BLOCK_BOUND_TOL).value
    parts = [dual_norm(x_space, u, tol=BLOCK_BOUND_TOL).value for u in blocks]
    rhs = f(float(n)) * lp_of(parts, q)
    return lhs, rhs, lhs <= rhs + BLOCK_BOUND_TOL * max(1.0, rhs)
