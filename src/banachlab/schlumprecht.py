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

The reference evaluator makes neither reduction over block placement:
it enumerates every sequence of two or more disjoint runs, gaps
included, at every recursion level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Sequence, Tuple, Union

from .errors import SizeCapError, ValidationError
from .gauges import GaugeFunction
from .reports import ExperimentReport
from .vectors import Interval, SeqVector, lp_norm, restrict

__all__ = [
    "DEFAULT_DP_CAP",
    "Leaf",
    "Split",
    "PartitionCertificate",
    "DpTable",
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
    exceeds the norm on any other vector (dual feasibility).
    """

    def __init__(self, root: CertNode, value: float, analytic: bool = False):
        self.root = root
        self.value = value
        self.analytic = analytic
        self._functional: SeqVector | None = None

    def functional(self) -> SeqVector:
        if self._functional is None:
            weights: Dict[int, float] = {}

            def walk(node: CertNode, w: float) -> None:
                if isinstance(node, Leaf):
                    weights[node.index] = weights.get(node.index, 0.0) + w * node.sign
                else:
                    for child in node.children:
                        walk(child, w * node.weight)

            walk(self.root, 1.0)
            self._functional = SeqVector(weights)
        return self._functional

    def evaluate(self, x: SeqVector) -> float:
        return math.fsum(v * x[i] for i, v in self.functional())

    def render(self, indent: str = "  ") -> str:
        lines: List[str] = []

        def walk(node: CertNode, depth: int) -> None:
            pad = indent * depth
            if isinstance(node, Leaf):
                sgn = "+" if node.sign >= 0 else "-"
                lines.append(f"{pad}leaf [{node.index}] sign={sgn}")
            else:
                lines.append(
                    f"{pad}split n={node.count} w={node.weight:.6g} "
                    f"[{node.interval.lo}..{node.interval.hi}]"
                )
                for child in node.children:
                    walk(child, depth + 1)

        walk(self.root, 0)
        return "\n".join(lines)


# -- the DP table --------------------------------------------------------


@dataclass
class DpTable:
    """Per-interval norm values and partition maxima with back-pointers.

    g[a][b] is the norm of the restriction to support positions a..b
    (0-based, inclusive); best[n][a][b] the maximal sum of block norms
    over covering partitions of a..b into n blocks; bp[n][a][b] the end
    of the first block of the earliest maximizing partition.  choice
    records how g[a][b] was attained.
    """

    coords: Tuple[int, ...]
    values: Tuple[float, ...]
    signs: Tuple[float, ...]
    g: List[List[float]]
    best: List[List[List[float]]]
    bp: List[List[List[int]]]
    choice: List[List[Tuple[str, int]]]

    @property
    def size(self) -> int:
        return len(self.coords)

    def norm(self) -> float:
        return self.g[0][self.size - 1]


def _build_table(x: SeqVector, f: GaugeFunction) -> DpTable:
    entries = x.canonical()
    coords = tuple(i for i, _ in entries)
    signs = tuple(1.0 if v >= 0 else -1.0 for _, v in entries)
    vals = tuple(abs(v) for _, v in entries)
    g, best, bp, choice = _dp_core(vals, f)
    return DpTable(coords, vals, signs, g, best, bp, choice)


def _dp_core(vals: Sequence[float], f: GaugeFunction):
    n = len(vals)

    g = [[0.0] * n for _ in range(n)]
    choice: List[List[Tuple[str, int]]] = [[("leaf", 0)] * n for _ in range(n)]
    # best[m] / bp[m] indexed [a][b]; m = 0 unused
    best = [[[0.0] * n for _ in range(n)] for _ in range(n + 1)]
    bp = [[[0] * n for _ in range(n)] for _ in range(n + 1)]

    finv = [0.0, 1.0] + [1.0 / f(float(m)) for m in range(2, n + 1)]

    for a in range(n):
        g[a][a] = vals[a]
        choice[a][a] = ("leaf", a)
        best[1][a][a] = vals[a]

    for length in range(2, n + 1):
        for a in range(n - length + 1):
            b = a + length - 1
            # covering partitions into m blocks; first block a..k
            for m in range(2, length + 1):
                rows_prev = best[m - 1]
                ga = g[a]
                top = -1.0
                arg = a
                for k in range(a, b - m + 2):
                    cand = ga[k] + rows_prev[k + 1][b]
                    if cand > top:
                        top = cand
                        arg = k
                best[m][a][b] = top
                bp[m][a][b] = arg
            # leaf candidate: largest coordinate, earliest on ties
            top = -1.0
            arg = a
            for i in range(a, b + 1):
                if vals[i] > top:
                    top = vals[i]
                    arg = i
            kind, idx = "leaf", arg
            for m in range(2, length + 1):
                cand = best[m][a][b] * finv[m]
                if cand > top:
                    top = cand
                    kind, idx = "split", m
            g[a][b] = top
            choice[a][b] = (kind, idx)
            best[1][a][b] = top

    return g, best, bp, choice


def s_norm_weights(vals: Sequence[float], f: GaugeFunction) -> Tuple[float, List[float]]:
    """Array fast path: norm and norming-functional weights by position.

    Assumes strictly positive values (callers pass only the positive
    entries); returns the DP value and per-position weights of the
    extremal partition tree, skipping certificate construction.
    """
    n = len(vals)
    if n == 1:
        return vals[0], [1.0]
    g, best, bp, choice = _dp_core(vals, f)
    weights = [0.0] * n

    def walk(a: int, b: int, w: float) -> None:
        kind, idx = choice[a][b]
        if kind == "leaf":
            weights[idx] += w
            return
        wm = w / f(float(idx))
        for s, e in _blocks_of(bp, a, b, idx):
            walk(s, e, wm)

    walk(0, n - 1, 1.0)
    return g[0][n - 1], weights


def _blocks_of(bp: List[List[List[int]]], a: int, b: int, m: int) -> List[Tuple[int, int]]:
    """The m blocks of the earliest maximizing partition of positions a..b."""
    blocks = []
    while m > 1:
        k = bp[m][a][b]
        blocks.append((a, k))
        a, m = k + 1, m - 1
    blocks.append((a, b))
    return blocks


def _build_cert(table: DpTable, a: int, b: int, f: GaugeFunction) -> CertNode:
    kind, idx = table.choice[a][b]
    if kind == "leaf":
        return Leaf(table.coords[idx], table.signs[idx])
    children = tuple(_build_cert(table, s, e, f) for s, e in _blocks_of(table.bp, a, b, idx))
    return Split(
        Interval(table.coords[a], table.coords[b]), idx, 1.0 / f(float(idx)), children
    )


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
    n = len(x)
    if n > cap:
        vals = [abs(v) for _, v in x]
        if max(vals) - min(vals) <= 1e-15 * max(vals):
            c = vals[0]
            value = c * n / f(float(n))
            leaves = tuple(Leaf(i, 1.0 if v >= 0 else -1.0) for i, v in x)
            root = Split(Interval.spanning(x), n, 1.0 / f(float(n)), leaves)
            return value, PartitionCertificate(root, value, analytic=True)
        raise SizeCapError("support exceeds DP cap", needed=n, cap=cap)
    table = _build_table(x, f)
    value = table.norm()
    return value, PartitionCertificate(_build_cert(table, 0, n - 1, f), value)


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
    xe = restrict(x, e)
    if not xe:
        cuts = [Interval(e.lo + i, e.lo + i) for i in range(n - 1)]
        return 0.0, cuts + [Interval(e.lo + n - 1, e.hi)]
    if len(xe) > cap:
        raise SizeCapError("support exceeds DP cap", needed=len(xe), cap=cap)

    table = _build_table(xe, f)
    m = min(n, table.size)
    total = table.best[m][0][table.size - 1]
    runs = _blocks_of(table.bp, 0, table.size - 1, m)

    # Map support runs to covering intervals of e, cutting right after
    # each run.  Spare blocks (n > m) hold no support; they are carved as
    # singletons from the trailing gap first, then the leading gap, then
    # inner gaps left to right.
    coords = table.coords
    run_iv = [(coords[s], coords[t]) for s, t in runs]
    spare = n - m
    tail_room = e.hi - run_iv[-1][1]
    lead_room = run_iv[0][0] - e.lo
    inner_room = [run_iv[j + 1][0] - run_iv[j][1] - 1 for j in range(m - 1)]

    alloc_tail = min(spare, tail_room)
    rest = spare - alloc_tail
    alloc_lead = min(rest, lead_room)
    rest -= alloc_lead
    alloc_inner = []
    for room in inner_room:
        take = min(rest, room)
        alloc_inner.append(take)
        rest -= take
    if rest > 0:
        raise ValidationError(f"cannot fit {n} blocks around the support inside {e}")

    blocks: List[Interval] = []
    cursor = e.lo
    for _ in range(alloc_lead):
        blocks.append(Interval(cursor, cursor))
        cursor += 1
    for j, (_, ce) in enumerate(run_iv[:-1]):
        blocks.append(Interval(cursor, ce))
        cursor = ce + 1
        for _ in range(alloc_inner[j]):
            blocks.append(Interval(cursor, cursor))
            cursor += 1
    if alloc_tail == 0:
        blocks.append(Interval(cursor, e.hi))
    else:
        blocks.append(Interval(cursor, run_iv[-1][1]))
        cursor = run_iv[-1][1] + 1
        for k in range(alloc_tail):
            hi = cursor if k < alloc_tail - 1 else e.hi
            blocks.append(Interval(cursor, hi))
            cursor = hi + 1
    return total / f(float(n)), blocks


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
    table = _build_table(SeqVector.from_values([1.0] * n_max), f) if n_max > 1 else None
    for n in range(1, n_max + 1):
        dp = 1.0 if n == 1 else table.g[0][n - 1]
        ref = n / f(float(n))
        report.add_row(n, dp, ref, abs(dp - ref))
    return report


# -- exhaustive reference (oracle) ---------------------------------------

REFERENCE_CAP = 12


@lru_cache(maxsize=None)
def _run_sequences(length: int) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """All sequences of >= 2 disjoint increasing runs inside 0..length-1."""

    @lru_cache(maxsize=None)
    def tails(start: int) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
        if start >= length:
            return ((),)
        out = list(tails(start + 1))  # position unused
        for s in (start,):
            for e in range(s, length):
                for rest in tails(e + 1):
                    out.append(((s, e),) + rest)
        return tuple(out)

    seqs = tuple(seq for seq in tails(0) if len(seq) >= 2)
    tails.cache_clear()
    return seqs


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

    memo: Dict[Tuple[int, int], float] = {}

    def rec(a: int, b: int) -> float:
        key = (a, b)
        got = memo.get(key)
        if got is not None:
            return got
        best = max(vals[a : b + 1])
        for seq in _run_sequences(b - a + 1):
            total = math.fsum(rec(a + s, a + e) for s, e in seq)
            cand = total / f(float(len(seq)))
            if cand > best:
                best = cand
        memo[key] = best
        return best

    return rec(0, len(vals) - 1)


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
