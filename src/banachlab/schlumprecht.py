"""Exact evaluation of the Schlumprecht-type norm by interval-partition DP.

The norm on finitely supported x is the unique fixed point of

    N(x) = max( ||x||_inf,  max_{n>=2} max_{E_1<...<E_n} (1/f(n)) sum_i N(E_i x) )

where the E_i range over successive integer intervals and f is a gauge.
Because the blocks of an n >= 2 split are strictly shorter intervals,
the recursion is well founded and a single bottom-up pass over intervals
in increasing length computes it exactly.

Two reductions make the DP finite and are cross-checked by the
exhaustive reference evaluator below:

* positions are immaterial (only the order of support values matters:
  interval boundaries can always be placed between consecutive support
  points), so the DP runs over support positions;
* optimal blocks may be taken contiguous and covering (gaps can be
  absorbed into a neighboring block without decreasing any term, by
  lattice monotonicity), so splits are covering partitions.

The pass fills one table, `_dp_core`'s (best, bp, split), read by every
consumer: the norm, the certificate tree and the best n-way partition.
One walk of the extremal tree, `_tree_weights`, gives both the weights of
`s_norm_weights` and the norming functional stored in the certificate.

The reference evaluator makes neither reduction over block placement:
it enumerates every sequence of two or more disjoint runs, gaps
included, at every recursion level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List, Sequence, Tuple, Union

from .errors import SizeCapError, ValidationError
from .gauges import GaugeFunction
from .reports import ExperimentReport
from .vectors import Interval, SeqVector, lp_norm, restrict

__all__ = [
    "DEFAULT_DP_CAP",
    "Leaf",
    "Split",
    "PartitionCertificate",
    "s_norm",
    "s_norm_value",
    "best_partition",
    "fixed_point_check",
    "summing_norm_table",
    "reference_norm",
    "iterate_defining_map",
]

DEFAULT_DP_CAP = 64


# -- certificates -------------------------------------------------------


@dataclass(frozen=True)
class Leaf:
    """A single coordinate with its sign; functional value sign * x_i."""

    index: int
    sign: float


@dataclass(frozen=True)
class Split:
    """An n-way split over successive subintervals, weighted 1/f(n)."""

    interval: Interval
    count: int
    weight: float
    children: Tuple["CertNode", ...]


CertNode = Union[Leaf, Split]


class PartitionCertificate:
    """The extremal partition tree witnessing a norm value.

    Doubles as a norming functional: the induced linear functional is
    the product of split weights down each root-leaf path times the sign
    at the leaf.  It attains the norm on the witnessed vector and never
    exceeds the norm on any other vector (dual feasibility).  `s_norm`
    stores that functional, computed by the same walk as `s_norm_weights`.
    """

    def __init__(self, root: CertNode, value: float, functional: SeqVector, analytic: bool = False):
        self.root = root
        self.value = value
        self.analytic = analytic
        self._functional = functional

    def functional(self) -> SeqVector:
        return self._functional

    def evaluate(self, x: SeqVector) -> float:
        return math.fsum(v * x[i] for i, v in self.functional())

    def render(self, indent: str = "  ") -> str:
        lines: List[str] = []
        stack: List[Tuple[CertNode, int]] = [(self.root, 0)]
        while stack:
            node, depth = stack.pop()
            pad = indent * depth
            if isinstance(node, Leaf):
                sgn = "+" if node.sign >= 0 else "-"
                lines.append(f"{pad}leaf [{node.index}] sign={sgn}")
            else:
                lines.append(
                    f"{pad}split n={node.count} w={node.weight:.6g} "
                    f"[{node.interval.lo}..{node.interval.hi}]"
                )
                stack.extend((child, depth + 1) for child in reversed(node.children))
        return "\n".join(lines)


# -- the DP table --------------------------------------------------------


def _dp_core(vals: Sequence[float], f: GaugeFunction):
    """The DP table (best, bp, split) over positions a..b (0-based, inclusive).

    * best[m][a][b], m >= 2: the maximal sum of block norms over covering
      partitions of a..b into m blocks; best[1][a][b]: the norm of a..b.
    * bp[m][a][b], m >= 2: the end of the first block of the earliest such
      partition; bp[1][a][b]: the leaf, the position of the largest value
      in a..b, earliest on ties.
    * split[a][b]: the block count attaining best[1][a][b], 1 for the leaf;
      a split must beat the leaf strictly, the smallest m winning ties.
    """
    n = len(vals)
    split = [[1] * n for _ in range(n)]
    best = [[[0.0] * n for _ in range(n)] for _ in range(n + 1)]
    bp = [[[0] * n for _ in range(n)] for _ in range(n + 1)]
    norms, leaves = best[1], bp[1]

    finv = [0.0, 1.0] + [1.0 / f(float(m)) for m in range(2, n + 1)]

    for a in range(n):
        norms[a][a] = vals[a]
        leaves[a][a] = a

    for length in range(2, n + 1):
        for a in range(n - length + 1):
            b = a + length - 1
            # covering partitions into m blocks; first block a..k
            for m in range(2, length + 1):
                rows_prev = best[m - 1]
                ga = norms[a]
                top = -1.0
                arg = a
                for k in range(a, b - m + 2):
                    cand = ga[k] + rows_prev[k + 1][b]
                    if cand > top:
                        top = cand
                        arg = k
                best[m][a][b] = top
                bp[m][a][b] = arg
            # leaf candidate: largest value, earliest on ties
            arg = leaves[a][b - 1]
            leaves[a][b] = arg = b if vals[b] > vals[arg] else arg
            top = vals[arg]
            for m in range(2, length + 1):
                cand = best[m][a][b] * finv[m]
                if cand > top:
                    top = cand
                    split[a][b] = m
            norms[a][b] = top

    return best, bp, split


def _blocks_of(bp: List[List[List[int]]], a: int, b: int, m: int) -> List[Tuple[int, int]]:
    """The m blocks of the earliest maximizing partition of positions a..b."""
    blocks = []
    while m > 1:
        k = bp[m][a][b]
        blocks.append((a, k))
        a, m = k + 1, m - 1
    blocks.append((a, b))
    return blocks


def _tree_weights(bp, split, f: GaugeFunction, n: int) -> List[float]:
    """Per-position products of 1/f(m) down the extremal tree to each leaf.

    A loop, not a recursive closure: a closure cycle would keep the O(N^3)
    tables alive until a full GC.  No position is the leaf of two nodes.
    """
    weights = [0.0] * n
    stack = [(0, n - 1, 1.0)]
    while stack:
        a, b, w = stack.pop()
        m = split[a][b]
        if m == 1:
            weights[bp[1][a][b]] += w
        else:
            wm = w / f(float(m))
            for s, e in _blocks_of(bp, a, b, m):
                stack.append((s, e, wm))
    return weights


def _build_cert(coords, signs, bp, split, f: GaugeFunction, a: int, b: int) -> CertNode:
    m = split[a][b]
    if m == 1:
        i = bp[1][a][b]
        return Leaf(coords[i], signs[i])
    children = tuple(
        _build_cert(coords, signs, bp, split, f, s, e) for s, e in _blocks_of(bp, a, b, m)
    )
    return Split(Interval(coords[a], coords[b]), m, 1.0 / f(float(m)), children)


def s_norm_weights(vals: Sequence[float], f: GaugeFunction) -> Tuple[float, List[float]]:
    """Array fast path: norm and norming-functional weights by position.

    Assumes strictly positive values (callers pass only the positive
    entries); returns the DP value and per-position weights of the
    extremal partition tree, skipping certificate construction.
    """
    n = len(vals)
    if n == 1:
        return vals[0], [1.0]
    best, bp, split = _dp_core(vals, f)
    return best[1][0][n - 1], _tree_weights(bp, split, f, n)


def s_norm(
    x: SeqVector, f: GaugeFunction, cap: int = DEFAULT_DP_CAP
) -> Tuple[float, PartitionCertificate]:
    """Norm of x with its witnessing partition certificate.

    Supports up to `cap` points run through the DP.  Larger vectors are
    accepted only on the analytic fast path (all |values| equal, where
    the norm is value * N / f(N) by the summing identity, witnessed by
    the N-way singleton split); anything else raises SizeCapError.
    """
    if not x:
        raise ValidationError("s_norm requires a nonempty vector")
    entries = x.canonical()
    n = len(entries)
    coords = [i for i, _ in entries]
    signs = [1.0 if v >= 0 else -1.0 for _, v in entries]
    vals = [abs(v) for _, v in entries]
    if n <= cap:
        best, bp, split = _dp_core(vals, f)
        value = best[1][0][n - 1]
        weights = _tree_weights(bp, split, f, n)
        root = _build_cert(coords, signs, bp, split, f, 0, n - 1)
    elif max(vals) - min(vals) <= 1e-15 * max(vals):
        weights = [1.0 / f(float(n))] * n
        value = vals[0] * n / f(float(n))
        leaves = tuple(map(Leaf, coords, signs))
        root = Split(Interval(coords[0], coords[-1]), n, weights[0], leaves)
    else:
        raise SizeCapError("support exceeds DP cap", needed=n, cap=cap)
    func = SeqVector(zip(coords, [w * s for w, s in zip(weights, signs)]))
    return value, PartitionCertificate(root, value, func, analytic=n > cap)


def s_norm_value(x: SeqVector, f: GaugeFunction, cap: int = DEFAULT_DP_CAP) -> float:
    if not x:
        return 0.0
    return s_norm(x, f, cap)[0]


def best_partition(
    x: SeqVector,
    f: GaugeFunction,
    e: Interval,
    n: int,
    cap: int = DEFAULT_DP_CAP,
) -> Tuple[float, List[Interval]]:
    """Best n-way split of x over e: max (1/f(n)) sum ||E_i x||.

    Blocks are contiguous intervals covering e (gap-filling is free by
    lattice monotonicity).  Blocks holding no support contribute zero;
    the returned partition places them after the support, earliest
    first.
    """
    if n < 2:
        raise ValidationError(f"a split needs n >= 2 blocks, got {n}")
    if n > len(e):
        raise ValidationError(f"cannot split {e} into {n} nonempty blocks")
    entries = restrict(x, e).canonical()
    size = len(entries)
    if size > cap:
        raise SizeCapError("support exceeds DP cap", needed=size, cap=cap)

    # A block ends at each entry of `ends` and at e.hi; every support run
    # but the last ends a block.  The spare blocks hold no support: each
    # gap (first cut, room) takes up to `room` of them, the trailing gap
    # first (its first cut ends the last run), then the leading gap, then
    # inner gaps left to right.  They always fit, since with n >= size
    # every run is a single support point.
    if size:
        coords = [i for i, _ in entries]
        best, bp, _ = _dp_core([abs(v) for _, v in entries], f)
        m = min(n, size)
        total = best[m][0][size - 1]
        runs = [(coords[s], coords[t]) for s, t in _blocks_of(bp, 0, size - 1, m)]
        gaps = [(runs[-1][1], e.hi - runs[-1][1]), (e.lo, runs[0][0] - e.lo)]
        gaps += [(t + 1, s - t - 1) for (_, t), (s, _) in zip(runs, runs[1:])]
        ends = [t for _, t in runs[:-1]]
    else:
        total, m, gaps, ends = 0.0, 1, [(e.lo, len(e))], []
    spare = n - m
    for first, room in gaps:
        take = min(spare, room)
        ends.extend(range(first, first + take))
        spare -= take
    ends.sort()
    starts = [e.lo] + [t + 1 for t in ends]
    return total / f(float(n)), [Interval(s, t) for s, t in zip(starts, ends + [e.hi])]


def fixed_point_check(
    x: SeqVector,
    f: GaugeFunction,
    value_fn: Callable[[SeqVector], float],
) -> float:
    """Re-apply one step of the defining max to claimed norm values.

    value_fn must evaluate the claimed norm on restrictions of x.  The
    step takes the max of ||x||_inf and all covering-partition split
    values computed from value_fn; a self-consistent engine returns a
    residual at rounding level.
    """
    if not x:
        raise ValidationError("fixed_point_check requires a nonempty vector")
    coords = x.support
    n = len(coords)
    claimed = value_fn(x)

    val = [[0.0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            val[a][b] = value_fn(restrict(x, Interval(coords[a], coords[b])))

    # best[m][a] = max sum over partitions of a..n-1 into m blocks
    stepped = lp_norm(x, math.inf)
    prev = [val[a][n - 1] for a in range(n)]
    for m in range(2, n + 1):
        cur = [0.0] * n
        for a in range(n - m + 1):
            cur[a] = max(val[a][k] + prev[k + 1] for k in range(a, n - m + 1))
        prev = cur
        stepped = max(stepped, prev[0] / f(float(m)))
    return abs(stepped - claimed)


def summing_norm_table(
    n_max: int, f: GaugeFunction, cap: int = DEFAULT_DP_CAP
) -> ExperimentReport:
    """Rows (n, dp_value, n/f(n), abs difference) for n = 1..n_max."""
    if n_max > cap:
        raise SizeCapError("summing table exceeds DP cap", needed=n_max, cap=cap)
    report = ExperimentReport(
        ["n", "dp_value", "closed_form", "abs_diff"],
        metadata={"gauge": f.name, "dp_cap": cap},
    )
    norms = _dp_core([1.0] * n_max, f)[0][1]
    for n in range(1, n_max + 1):
        dp = norms[0][n - 1]
        ref = n / f(float(n))
        report.add_row(n, dp, ref, abs(dp - ref))
    return report


# -- exhaustive reference (oracle) ---------------------------------------

REFERENCE_CAP = 12


@lru_cache(maxsize=None)
def _run_sequences(length: int) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """All sequences of >= 2 disjoint increasing runs inside 0..length-1."""
    # tails[s]: the run sequences inside s..length-1, filled from the right
    tails = [((),)] * (length + 1)
    for s in range(length - 1, -1, -1):
        out = list(tails[s + 1])  # position s unused
        for e in range(s, length):
            out.extend(((s, e),) + rest for rest in tails[e + 1])
        tails[s] = tuple(out)
    return tuple(seq for seq in tails[0] if len(seq) >= 2)


def reference_norm(x: SeqVector, f: GaugeFunction, cap: int = REFERENCE_CAP) -> float:
    """Exhaustive evaluation over all partition trees, gaps allowed.

    Every node either picks a single coordinate or a sequence of n >= 2
    disjoint runs of support positions (runs need not abut or cover),
    weighting the recursive values by 1/f(n).  Extra empty blocks are
    never enumerated: they only raise n and f is nondecreasing, so they
    cannot increase any value.
    """
    if not x:
        return 0.0
    if len(x) > cap:
        raise SizeCapError("reference evaluator cap", needed=len(x), cap=cap)
    vals = tuple(abs(v) for _, v in x)
    n = len(vals)
    # value[a][b] for positions a..b, by increasing length: every run of a
    # sequence is shorter than the interval it lies in
    value = [[0.0] * n for _ in range(n)]
    for length in range(1, n + 1):
        seqs = _run_sequences(length)
        for a in range(n - length + 1):
            b = a + length - 1
            best = max(vals[a : b + 1])
            for seq in seqs:
                total = math.fsum(value[a + s][a + e] for s, e in seq)
                cand = total / f(float(len(seq)))
                if cand > best:
                    best = cand
            value[a][b] = best
    return value[0][n - 1]


def iterate_defining_map(
    x: SeqVector, f: GaugeFunction, max_steps: int | None = None
) -> List[float]:
    """Iterate the defining map from the sup-norm seed (validation mode).

    Returns the sequence of whole-vector values, starting at ||x||_inf,
    produced by repeatedly applying the defining max to the previous
    interval-value table.  The sequence is nondecreasing and stabilizes
    at the DP value in at most N-1 steps for support size N.
    """
    if not x:
        raise ValidationError("iterate_defining_map requires a nonempty vector")
    vals = tuple(abs(v) for _, v in x)
    n = len(vals)
    if max_steps is None:
        max_steps = max(1, n - 1)

    table = [
        [max(vals[a : b + 1]) if b >= a else 0.0 for b in range(n)] for a in range(n)
    ]
    history = [table[0][n - 1]]
    for _ in range(max_steps):
        new = [[0.0] * n for _ in range(n)]
        for length in range(1, n + 1):
            for a in range(n - length + 1):
                b = a + length - 1
                top = max(vals[a : b + 1])
                prev = [table[c][b] for c in range(n)]
                for m in range(2, length + 1):
                    cur = [0.0] * n
                    for c in range(b - m + 2 - 1, a - 1, -1):
                        cur[c] = max(
                            table[c][k] + prev[k + 1] for k in range(c, b - m + 2)
                        )
                    prev = cur
                    top = max(top, prev[a] / f(float(m)))
                new[a][b] = top
        if all(
            new[a][b] == table[a][b] for a in range(n) for b in range(a, n)
        ):
            history.append(new[0][n - 1])
            break
        table = new
        history.append(table[0][n - 1])
    return history
