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

The pass fills one table, `_dp_core`'s `best`: per interval and block
count the largest sum of block norms, with the norm itself at count 1.
It stores maxima only.  Every consumer reads it: the norm, the best
n-way partition, whose block ends `_blocks_of` recovers, and the
extremal tree, which one walk, `_tree`, derives from it as a preorder
node list, the tree's only format, with its weights by position.  One
reader, `_extremal`, turns the table into functionals: the norming
functional, which `s_norm_weights` hands out and `s_norm`'s certificate
holds, and on request the walks below each best m-way partition's blocks.
A norm alone, `s_norm_top`, reads the top cell and walks no tree.  Beyond
DEFAULT_DP_CAP positions only constant values are accepted, on the
analytic path; `s_norm_top` and `_extremal` hold that rule, and no other
module reads the cap.  The readers fill the table at
unit scale (`_unit`), so its sums cannot overflow on representable values;
the reference evaluator and the validation map run there too.

The table is flat and holds B_m(a, b), the count-m cell of positions a..b,
at `_cell(N, m, a, b)` = (m * N + b - a) * N + a: by block count, then
length, then start, so the cells of one count and length lie side by side.
It has two implementations with equal entries.  Below `DP_NUMPY_MIN` (11)
positions a pure-Python loop fills it: the Calderon solver and the dual LP
call the DP tens of thousands of times at N <= 12, where numpy's per-call
overhead costs more (0.014 against 0.047 ms at N = 5 on a 2-CPU host;
0.10 against 0.11 ms at N = 10, and from 11 on numpy wins).  From
11 on a numpy wavefront over interval length fills it, O(N^4) work in
O(N) array steps: per length one add of two views that are contiguous
in the start and one elementwise max over contiguous planes (0.64 ms
at N = 32, 6.8 against 57 ms for the loop at N = 64).
`BENCH_30.json` has the per-N times.  Both read out Python floats.

The reference evaluator makes neither reduction over block placement:
it enumerates every sequence of two or more disjoint runs, gaps
included, at every recursion level.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain, islice
from operator import add, mul
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .errors import SizeCapError, ValidationError
from .gauges import GaugeFunction
from .reports import ExperimentReport
from .vectors import Interval, SeqVector, pairing, restrict

__all__ = [
    "DEFAULT_DP_CAP",
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
# support size from which `_dp_core` runs the numpy wavefront (see there)
DP_NUMPY_MIN = 11
Tree = List[Tuple[int, int, int]]  # preorder nodes (lo, hi, m), see PartitionCertificate


# -- certificates -------------------------------------------------------


class PartitionCertificate:
    """The extremal partition tree witnessing a norm value.

    The tree is the list `nodes` of the DP's extremal tree in preorder,
    over coordinates: a node (lo, hi, m) with m >= 2 splits lo..hi into
    m blocks, whose subtrees follow it, and a leaf at coordinate i is
    (i, i, 1).  `split_weights[m - 2]` is the weight 1/f(m) of an m-way
    split.

    Doubles as a norming functional: a leaf's weight is 1.0 divided by
    f(m) at each split above it, signed as x there, and `render` reads
    the leaf signs from it.  It attains the norm on the witnessed vector
    and never exceeds the norm on any other vector (dual feasibility).
    `s_norm` stores it, from the walk of `_extremal`.
    """

    def __init__(self, nodes: Tree, split_weights: Sequence[float], value: float,
                 functional: SeqVector, analytic: bool = False):
        self.nodes = nodes
        self.split_weights = split_weights
        self.value = value
        self.analytic = analytic
        self._functional = functional

    def functional(self) -> SeqVector:
        return self._functional

    def evaluate(self, x: SeqVector) -> float:
        return pairing(self.functional(), x)

    def render(self) -> str:
        lines: List[str] = []
        depths = [0]  # the depth of each subtree still to be entered
        for lo, hi, m in self.nodes:
            depth = depths.pop()
            pad = "  " * depth
            if m == 1:
                sgn = "+" if self._functional[lo] >= 0 else "-"
                lines.append(f"{pad}leaf [{lo}] sign={sgn}")
            else:
                lines.append(f"{pad}split n={m} w={self.split_weights[m - 2]:.6g} [{lo}..{hi}]")
                depths.extend([depth + 1] * m)
        return "\n".join(lines)


# -- the DP table --------------------------------------------------------


def _cell(n: int, m: int, a: int, b: int) -> int:
    """The flat index of B_m(a, b) in the `_dp_core` table over n positions."""
    return (m * n + b - a) * n + a


def _dp_core(vals: Sequence[float], f: GaugeFunction) -> Sequence[float]:
    """The flat DP table over N positions: B_m(a, b) at best[(m * N + b - a) * N + a].

    The cells run by block count m, then interval length b - a + 1, then
    start a; `_cell` gives the index.  For m >= 2 a cell holds the maximal
    sum of block norms over covering partitions of a..b into m blocks, for
    m = 1 the norm of a..b, so the norms of one length lie side by side
    and the norm of all N positions is at `_cell(N, 1, 0, N - 1)`.  Below
    DP_NUMPY_MIN positions it is a list from `_dp_loop`, from there on a
    memoryview of the array from `_dp_numpy`; both read out Python floats
    and agree wherever a <= b and 1 <= m <= b - a + 1 (elsewhere 0.0 and
    -inf).
    """
    if len(vals) >= DP_NUMPY_MIN:
        return _dp_numpy(vals, f)
    return _dp_loop(vals, f)


@lru_cache(maxsize=256)
def _finv(f: GaugeFunction, n: int) -> Tuple[float, ...]:
    """1/f(m) for m = 2..n: the split weights that the DP and `_tree` apply."""
    return tuple(1.0 / f(float(m)) for m in range(2, n + 1))


def _dp_loop(vals: Sequence[float], f: GaugeFunction) -> List[float]:
    """`_dp_core` in pure Python: the small-N path, and the reference for
    the numpy table."""
    n = len(vals)
    nn = n * n
    best = [0.0] * ((n + 1) * nn)
    finv = _finv(f, n)
    best[nn : nn + n] = vals  # the norms of length 1
    vmax = list(vals)  # vmax[a]: the largest value in a..a+length-1
    back = n - 1  # the rest's step as j grows: one position shorter, one later

    for length in range(2, n + 1):
        for a in range(n - length + 1):
            b = a + length - 1
            top = vmax[a] = max(vmax[a], vals[b])
            norm = cell = (n + length - 1) * n + a  # _cell(n, 1, a, b), the norm of a..b
            firsts = best[nn + a : norm : n]  # the norms of a..a+j, j = 0..length-2
            after = cell - back  # the rest of j = 0 at m = 2: 1 block of a+1..b
            # covering partitions into m blocks: the first block a..a+j plus
            # m - 1 blocks of a+j+1..b, j = 0..length-m
            for m in range(2, length + 1):
                rest = after
                s = -1.0
                for first in firsts[: length - m + 1]:
                    cand = first + best[rest]
                    if cand > s:
                        s = cand
                    rest -= back
                cell += nn
                after += nn
                best[cell] = s
                s *= finv[m - 2]
                if s > top:
                    top = s
            best[norm] = top
    return best


def _strided(table: np.ndarray, offset: int, shape, strides) -> np.ndarray:
    """A view of `table` from flat element `offset`, strides in elements."""
    size = table.itemsize
    return np.ndarray(shape, table.dtype, table, offset * size, [t * size for t in strides])


def _dp_numpy(vals: Sequence[float], f: GaugeFunction) -> memoryview:
    """`_dp_core` as a numpy wavefront: one length L at a time, all (j, m, a).

    With b = a + L - 1 and the first block a..a+j, both terms of
    B_1(a, a+j) + B_{m-1}(a+j+1, b) are affine in (j, m, a) on the flat
    table and contiguous in a, so two strided views add into one C-ordered
    (L-1, L-1, N-L+1) block of candidates.  Its max over j, the outermost
    axis, is an elementwise max of contiguous planes, written into the
    cells B_m(a, b) for m = 2..L.  A cell with no partition of a+j+1..b into
    m-1 blocks reads -inf and never wins.  The loop's float operations give
    the loop's bits.
    """
    n = len(vals)
    nn = n * n
    v = np.asarray(vals, dtype=float)
    best = np.full((n + 1) * nn, -np.inf)
    finv = np.array(_finv(f, n))

    best[nn : nn + n] = v
    vmax = v  # vmax[a]: the largest value in a..a+L-1
    for length in range(2, n + 1):
        width = n - length + 1  # intervals of this length
        shape = (length - 1, length - 1, width)  # (j, m - 2, a)
        cand = np.add(
            _strided(best, _cell(n, 1, 0, 0), shape, (n, 0, 1)),  # B_1(a, a+j)
            _strided(best, _cell(n, 1, 1, length - 1), shape, (1 - n, nn, 1)),  # B_{m-1}(a+j+1, b)
            order="C",
        )
        cells = _strided(best, _cell(n, 2, 0, length - 1), shape[1:], (nn, 1))  # B_m(a, b)
        top = np.maximum.reduce(cand, axis=0, out=cells)
        vmax = np.maximum(vmax[:-1], v[length - 1 :])
        first = _cell(n, 1, 0, length - 1)
        norms = best[first : first + width]  # B_1(a, b)
        np.maximum((top * finv[: length - 1, None]).max(axis=0), vmax, out=norms)
    return memoryview(best)


def _blocks_of(best: Sequence[float], n: int, a: int, b: int, m: int) -> List[Tuple[int, int]]:
    """The m blocks of the earliest maximizing partition of positions a..b."""
    blocks = []
    while m > 1:
        # first block a..a+j: the norm of a..a+j plus m - 1 blocks of a+j+1..b
        count = b - a - m + 2
        first = _cell(n, 1, a, a)
        firsts = best[first : first + count * n : n]
        rest = _cell(n, m - 1, a + 1, b)
        rests = best[rest : rest - count * (n - 1) : 1 - n]
        sums = list(map(add, firsts, rests))
        k = a + sums.index(best[_cell(n, m, a, b)])  # the earliest k attaining the max
        blocks.append((a, k))
        a, m = k + 1, m - 1
    blocks.append((a, b))
    return blocks


def _tree(best: Sequence[float], vals: List[float], f: GaugeFunction,
          roots: Sequence[Tuple[int, int, float]] = ()) -> Tuple[Tree, List[float]]:
    """The extremal tree of the DP table over `vals` in preorder, and its weights.

    A node (a, b, m) splits a..b into the m blocks of `_blocks_of`, whose
    subtrees follow it; a leaf at position i is (i, i, 1).  The leaf is
    the largest value, earliest on ties; a split must beat it strictly,
    the smallest m winning ties.  A split of weight w gives each block
    w / f(m), and a leaf keeps its weight; positions without a leaf weigh
    0.0.  The walk starts at `roots` (a, b, w), last first, or (0, N-1, 1.0).
    A loop, not a recursive closure, whose cycle would keep the table
    alive until a full GC.
    """
    n = len(vals)
    finv = _finv(f, n)
    nodes = []
    weights = [0.0] * n
    stack = list(roots) or [(0, n - 1, 1.0)]
    while stack:
        a, b, w = stack.pop()
        if a == b:
            nodes.append((a, a, 1))
            weights[a] = w
            continue
        largest = max(vals[a : b + 1])
        scaled = list(map(mul, best[_cell(n, 2, a, b) :: n * n], finv[: b - a]))  # m = 2, 3, ...
        top = max(scaled)
        if top > largest:
            m = scaled.index(top) + 2
            nodes.append((a, b, m))
            child = w / f(float(m))
            stack.extend((c, d, child) for c, d in reversed(_blocks_of(best, n, a, b, m)))
        else:
            leaf = vals.index(largest, a)
            nodes.append((leaf, leaf, 1))
            weights[leaf] = w
    return nodes, weights


def _unit(vals: Sequence[float]) -> Tuple[List[float], float]:
    """vals times 2**-e, with e such that the largest lies in [1, 2), and 2.0**e.

    The readers run the DP there and multiply by 2**e after (inf where the
    norm overflows): a power of two moves no bit of a normal float.
    """
    e = math.frexp(max(vals))[1] - 1
    return [math.ldexp(v, -e) for v in vals], 2.0**e


def s_norm_top(vals: List[float], f: GaugeFunction) -> float:
    """The norm alone of positive values in support order.

    Up to DEFAULT_DP_CAP values it is the DP table's top cell, the float
    that `_extremal` returns, with no extremal tree.
    Beyond it, constant values take the analytic path (value * N / f(N)
    by the summing identity) and anything else raises SizeCapError.
    Both run at the unit scale of `_unit`.
    """
    n = len(vals)
    u, scale = _unit(vals)
    if n <= DEFAULT_DP_CAP:
        return _dp_core(u, f)[_cell(n, 1, 0, n - 1)] * scale
    if max(vals) - min(vals) <= 1e-15 * max(vals):
        return u[0] * n / f(float(n)) * scale
    raise SizeCapError("support exceeds DP cap", needed=n, cap=DEFAULT_DP_CAP)


def _extremal(vals: List[float], f: GaugeFunction,
              above: float = math.inf) -> Tuple[float, Tree, List[List[float]]]:
    """The norm, extremal tree and rows in B(S*) of positive values in support order.

    Up to DEFAULT_DP_CAP values: the DP table's top cell and `_tree`, whose
    weights are row 0, the norming functional.  Then, in m order, one row
    per block count m = 2..N but the root's whose split value, the top
    cell best[m] times 1/f(m), exceeds `above` (with no `above` none is
    read): 1/f(m) times the extremal subtrees of the m blocks of
    `_blocks_of`, which pairs with any y to at most (1/f(m)) sum_i ||E_i y||
    <= ||y||.  Beyond the cap: `s_norm_top`, the analytic value or
    SizeCapError, witnessed by the N-way split into singletons, each of
    weight 1/f(N), and that one row.
    """
    n = len(vals)
    if n > DEFAULT_DP_CAP:
        tree = [(0, n - 1, n)] + [(i, i, 1) for i in range(n)]
        return s_norm_top(vals, f), tree, [[1.0 / f(float(n))] * n]
    u, scale = _unit(vals)
    best = _dp_core(u, f)
    nodes, *rows = _tree(best, u, f)  # rows: the norming weights first
    if above < math.inf:
        finv = _finv(f, n)
        above /= scale  # compared at unit scale too
        for m in range(2, n + 1):
            if m != nodes[0][2] and best[_cell(n, m, 0, n - 1)] * finv[m - 2] > above:
                roots = [(a, b, finv[m - 2]) for a, b in reversed(_blocks_of(best, n, 0, n - 1, m))]
                rows.append(_tree(best, u, f, roots)[1])
    return best[_cell(n, 1, 0, n - 1)] * scale, nodes, rows


def s_norm_weights(vals: List[float], f: GaugeFunction,
                   above: float = math.inf) -> Tuple[float, List[List[float]]]:
    """The norm of positive values in support order and rows in B(S*) by position.

    The value and rows of `_extremal`: the norming functional's weights,
    then the best m-split rows whose split value exceeds `above`.
    """
    value, _, rows = _extremal(vals, f, above)
    return value, rows


def s_norm(x: SeqVector, f: GaugeFunction) -> Tuple[float, PartitionCertificate]:
    """Norm of x with its witnessing partition certificate.

    The value, the tree and the weights of the one row of `_extremal`;
    beyond the DP cap the certificate is flagged `analytic`.
    """
    if not x:
        raise ValidationError("s_norm requires a nonempty vector")
    entries = x.canonical()
    n = len(entries)
    coords = [i for i, _ in entries]
    value, nodes, [weights] = _extremal([abs(v) for _, v in entries], f)
    func = SeqVector(zip(coords, [math.copysign(w, v) for w, (_, v) in zip(weights, entries)]))
    tree = [(coords[a], coords[b], m) for a, b, m in nodes]
    cert = PartitionCertificate(tree, _finv(f, n), value, func, analytic=n > DEFAULT_DP_CAP)
    return value, cert


def s_norm_value(x: SeqVector, f: GaugeFunction) -> float:
    """The norm of x without its certificate; 0.0 on the empty vector."""
    if not x:
        return 0.0
    return s_norm_top([abs(v) for v in x.values_in_order()], f)


def best_partition(
    x: SeqVector,
    f: GaugeFunction,
    e: Interval,
    n: int,
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
    if size > DEFAULT_DP_CAP:
        raise SizeCapError("support exceeds DP cap", needed=size, cap=DEFAULT_DP_CAP)

    # A block ends at each entry of `ends` and at e.hi; every support run
    # but the last ends a block.  The n - m spare blocks hold no support
    # and end at the first candidates of `spare`: the trailing gap first
    # (its first end closes the last run), then the leading gap, then inner
    # gaps left to right.  They always fit, since with n >= size every run
    # is a single support point.
    if size:
        coords = [i for i, _ in entries]
        u, scale = _unit([abs(v) for _, v in entries])
        best = _dp_core(u, f)
        m = min(n, size)
        total = best[_cell(size, m, 0, size - 1)] / f(float(n)) * scale
        runs = [(coords[s], coords[t]) for s, t in _blocks_of(best, size, 0, size - 1, m)]
        ends = [t for _, t in runs[:-1]]
        spare = chain(range(runs[-1][1], e.hi), range(e.lo, runs[0][0]),
                      *(range(t + 1, s) for (_, t), (s, _) in zip(runs, runs[1:])))
    else:
        total, m, ends, spare = 0.0, 1, [], range(e.lo, e.hi)
    ends += islice(spare, n - m)
    ends.sort()
    starts = [e.lo] + [t + 1 for t in ends]
    return total, [Interval(s, t) for s, t in zip(starts, ends + [e.hi])]


def _defining_map_at(vals: Sequence[float], table: List[List[float]], f: GaugeFunction,
                     b: int) -> List[float]:
    """The defining map at every interval a..b, a = 0..b, from block values.

    table[c][k] is the value taken for the block of positions c..k.  The
    map at a..b is the max of max(vals[a..b]) and, for m = 2..b-a+1, the
    best sum of table values over covering partitions of a..b into m
    blocks, times 1/f(m), the float the DP multiplies by.  The best m-block
    sums over every c..b come from the (m-1)-block ones, so one pass over
    m serves every a.
    """
    new = [max(vals[a : b + 1]) for a in range(b + 1)]
    part = [table[c][b] for c in range(b + 1)]  # part[c]: best sum over c..b in m blocks
    for m in range(2, b + 2):
        part = [max(table[c][k] + part[k + 1] for k in range(c, b - m + 2))
                for c in range(b - m + 2)]
        w = 1.0 / f(float(m))
        for a in range(b - m + 2):
            new[a] = max(new[a], part[a] * w)
    return new


def fixed_point_check(
    x: SeqVector,
    f: GaugeFunction,
    value_fn: Callable[[SeqVector], float],
) -> float:
    """Re-apply one step of the defining max to claimed norm values.

    value_fn must evaluate the claimed norm on restrictions of x.  The
    step takes the max of ||x||_inf and all covering-partition split
    values computed from value_fn (`_defining_map_at` over the whole
    support); a self-consistent engine returns a residual at rounding
    level.  The step runs on the claimed values divided by the scale of
    `_unit`, and the residual is multiplied back.
    """
    if not x:
        raise ValidationError("fixed_point_check requires a nonempty vector")
    coords = x.support
    n = len(coords)
    vals, scale = _unit([abs(v) for v in x.values_in_order()])
    claimed = value_fn(x) / scale

    val = [[0.0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            val[a][b] = value_fn(restrict(x, Interval(coords[a], coords[b]))) / scale
    return abs(_defining_map_at(vals, val, f, n - 1)[0] - claimed) * scale


def summing_norm_table(n_max: int, f: GaugeFunction) -> ExperimentReport:
    """Rows (n, dp_value, n/f(n), abs difference) for n = 1..n_max."""
    if n_max > DEFAULT_DP_CAP:
        raise SizeCapError("summing table exceeds DP cap", needed=n_max, cap=DEFAULT_DP_CAP)
    report = ExperimentReport(
        ["n", "dp_value", "closed_form", "abs_diff"],
        metadata={"gauge": f.name, "dp_cap": DEFAULT_DP_CAP},
    )
    best = _dp_core([1.0] * n_max, f)
    for n in range(1, n_max + 1):
        dp = best[_cell(n_max, 1, 0, n - 1)]
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


def reference_norm(x: SeqVector, f: GaugeFunction) -> float:
    """Exhaustive evaluation over all partition trees, gaps allowed.

    Every node either picks a single coordinate or a sequence of n >= 2
    disjoint runs of support positions (runs need not abut or cover),
    weighting the recursive values by 1/f(n).  Extra empty blocks are
    never enumerated: they only raise n and f is nondecreasing, so they
    cannot increase any value.  Runs at the unit scale of `_unit`.
    """
    if not x:
        return 0.0
    if len(x) > REFERENCE_CAP:
        raise SizeCapError("reference evaluator cap", needed=len(x), cap=REFERENCE_CAP)
    vals, scale = _unit([abs(v) for _, v in x])
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
    return value[0][n - 1] * scale


def iterate_defining_map(x: SeqVector, f: GaugeFunction) -> List[float]:
    """Iterate the defining map from the sup-norm seed (validation mode).

    Returns the sequence of whole-vector values, starting at ||x||_inf,
    produced by repeatedly applying the defining max (`_defining_map_at`
    at every right end) to the previous interval-value table.  The
    sequence is nondecreasing and stabilizes at the DP value in at most
    N-1 steps for support size N; no more are taken.  The map runs at the
    unit scale of `_unit`, and each value is multiplied back.
    """
    if not x:
        raise ValidationError("iterate_defining_map requires a nonempty vector")
    vals, scale = _unit([abs(v) for _, v in x])
    n = len(vals)

    table = [
        [max(vals[a : b + 1]) if b >= a else 0.0 for b in range(n)] for a in range(n)
    ]
    history = [table[0][n - 1]]
    for _ in range(max(1, n - 1)):
        new = [[0.0] * n for _ in range(n)]
        for b in range(n):
            for a, value in enumerate(_defining_map_at(vals, table, f, b)):
                new[a][b] = value
        history.append(new[0][n - 1])
        if new == table:
            break
        table = new
    return [v * scale for v in history]
