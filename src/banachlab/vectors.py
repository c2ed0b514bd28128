"""Finite-support sequence vectors and elementary lattice operations.

Vectors live in c_00: finitely many nonzero real coordinates, indexed by
positive integers (1-based, matching the basis notation e_1, e_2, ...).
Zero values are never stored, so the support is exactly the key set and
the canonical form can serve as a cache key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Mapping, Sequence, Tuple

from .errors import ValidationError

__all__ = [
    "SeqVector",
    "Interval",
    "BlockSequence",
    "lp_norm",
    "pairing",
    "restrict",
    "pointwise_power",
    "parse_vector",
]


class SeqVector:
    """A finitely supported real sequence.

    Reading an absent coordinate yields exactly 0.  Two vectors compare
    equal iff their entry maps are equal.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[int, float] | Iterable[Tuple[int, float]] = ()):
        items = entries.items() if isinstance(entries, Mapping) else entries
        store: Dict[int, float] = {}
        for idx, val in items:
            i = int(idx)
            if i != idx or i < 1:
                raise ValidationError(f"coordinate index must be a positive integer, got {idx!r}")
            v = float(val)
            if v != 0.0:
                store[i] = v
        self._entries = store

    # -- constructors -------------------------------------------------

    @classmethod
    def _adopt(cls, store: Dict[int, float]) -> "SeqVector":
        """A vector on a dict of checked indices and nonzero values, not copied."""
        out = cls.__new__(cls)
        out._entries = store
        return out

    @classmethod
    def from_values(cls, values: Sequence[float], start: int = 1) -> "SeqVector":
        """Dense constructor: values occupy coordinates start, start+1, ..."""
        return cls((start + k, v) for k, v in enumerate(values))

    @classmethod
    def basis(cls, i: int, value: float = 1.0) -> "SeqVector":
        """The scaled basis vector value * e_i."""
        return cls([(i, value)])

    # -- mapping protocol ----------------------------------------------

    def __getitem__(self, idx: int) -> float:
        return self._entries.get(idx, 0.0)

    def __iter__(self) -> Iterator[Tuple[int, float]]:
        return iter(sorted(self._entries.items()))

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SeqVector):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self):
        return hash(self.canonical())

    def canonical(self) -> Tuple[Tuple[int, float], ...]:
        """Sorted (index, value) pairs; stable cache key."""
        return tuple(sorted(self._entries.items()))

    @property
    def support(self) -> Tuple[int, ...]:
        return tuple(sorted(self._entries))

    def values_in_order(self) -> Tuple[float, ...]:
        return tuple(v for _, v in sorted(self._entries.items()))

    def magnitudes(self) -> Tuple[float, ...]:
        """|x_i| in support order: all that a lattice norm sees of x."""
        return tuple(math.fabs(v) for _, v in sorted(self._entries.items()))

    def signed(self, weights: Iterable[float]) -> "SeqVector":
        """Positional weights put back on the support of x, with the signs of x."""
        return SeqVector(zip(self.support, map(math.copysign, weights, self.values_in_order())))

    def min_index(self) -> int:
        return min(self._entries)

    def max_index(self) -> int:
        return max(self._entries)

    # -- arithmetic ----------------------------------------------------

    def _plus(self, terms: Iterable[Tuple[int, float]]) -> "SeqVector":
        """self plus nonzero terms (index, value), in one pass."""
        out = dict(self._entries)
        for i, v in terms:
            w = out.get(i, 0.0) + v
            if w != 0.0:
                out[i] = w
            else:  # only an index of self can cancel
                del out[i]
        return SeqVector._adopt(out)

    def __add__(self, other: "SeqVector") -> "SeqVector":
        return self._plus(other._entries.items())

    def __sub__(self, other: "SeqVector") -> "SeqVector":
        return self._plus((i, -1.0 * v) for i, v in other._entries.items())

    def __mul__(self, scalar: float) -> "SeqVector":
        s = float(scalar)
        return SeqVector._adopt({i: w for i, v in self._entries.items() if (w := s * v) != 0.0})

    __rmul__ = __mul__

    def __neg__(self) -> "SeqVector":
        return (-1.0) * self

    def __repr__(self) -> str:
        body = ",".join(f"{i}:{v:.6g}" for i, v in self)
        return f"SeqVector({body})"


@dataclass(frozen=True, order=False)
class Interval:
    """The integer interval {lo, ..., hi}; E1 < E2 means hi(E1) < lo(E2)."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo < 1 or self.hi < self.lo:
            raise ValidationError(f"bad interval [{self.lo}, {self.hi}]")

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    def __contains__(self, idx: int) -> bool:
        return self.lo <= idx <= self.hi

    def __lt__(self, other: "Interval") -> bool:
        return self.hi < other.lo

    def __repr__(self) -> str:
        return f"[{self.lo}..{self.hi}]"


@dataclass(frozen=True)
class BlockSequence:
    """Nonzero vectors with pairwise disjoint, strictly increasing supports."""

    blocks: Tuple[SeqVector, ...]

    def __post_init__(self):
        b = self.blocks
        if not all(b) or any(u.max_index() >= w.min_index() for u, w in zip(b, b[1:])):
            raise ValidationError(
                "blocks must be nonzero, with strictly increasing disjoint supports")

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    def __getitem__(self, k: int) -> SeqVector:
        return self.blocks[k]

    def sum(self, coeffs: Iterable[float] | None = None) -> SeqVector:
        """sum_k c_k u_k over the blocks that coeffs reaches, all with c_k = 1 by default.

        The supports are disjoint, so it is a plain union of the scaled
        blocks in block order, in one pass.
        """
        if coeffs is None:
            return SeqVector._adopt({i: v for u in self.blocks for i, v in u._entries.items()})
        out: Dict[int, float] = {}
        for c, u in zip(coeffs, self.blocks):
            out.update((u * c)._entries)
        return SeqVector._adopt(out)

    @classmethod
    def basis(cls, count: int) -> "BlockSequence":
        return cls(tuple(SeqVector.basis(1 + k) for k in range(count)))


# -- elementary operations ---------------------------------------------


def lp_of(values: Sequence[float], p: float) -> float:
    """The lp norm of nonnegative floats, not all 0, at unit scale.

    max at p = inf, fsum at p = 1 (inf where the sum overflows) and math.hypot
    at p = 2; any other p divides by the max before the powers, so nothing
    overflows or flushes to 0 while the norm is representable.  Free of the
    values' order; pass arrays as .tolist().
    """
    if math.isinf(p):
        return max(values)
    if p == 1.0:
        try:
            return math.fsum(values)
        except OverflowError:  # a partial sum of nonnegative terms left the range
            return math.inf
    if p == 2.0:
        return math.hypot(*values)
    m = max(values)
    return m * math.fsum([(v / m) ** p for v in values]) ** (1.0 / p)


def lp_norm(x: SeqVector, p: float) -> float:
    """(sum |x_i|^p)^(1/p), or max |x_i| for p = inf, by `lp_of`; 0 on the empty vector."""
    if not p >= 1.0:
        raise ValidationError(f"lp_norm requires p >= 1, got {p}")
    if not x:
        return 0.0
    return lp_of([math.fabs(v) for v in x._entries.values()], p)


def pairing(x: SeqVector, g: SeqVector) -> float:
    """sum x_i g_i over the common support of finite entries, by fsum.

    Where a product or a partial sum leaves the float range, the products
    are summed exactly as fractions and the sum is rounded once (inf with
    its sign where that overflows).
    """
    if len(x) > len(g):
        x, g = g, x
    try:
        total = math.fsum([v * g[i] for i, v in x])
        if not math.isinf(total):  # inf only from a product past the range
            return total
    except (OverflowError, ValueError):  # a partial sum past the range, or inf - inf
        pass
    from fractions import Fraction  # here only: importing it costs about 2 ms
    exact = sum([Fraction(v) * Fraction(g[i]) for i, v in x])
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def restrict(x: SeqVector, e: Interval) -> SeqVector:
    """The vector agreeing with x on e and zero elsewhere (Ex = x.chi_E)."""
    return SeqVector((i, v) for i, v in x._entries.items() if e.lo <= i <= e.hi)


def pointwise_power(x: SeqVector, alpha: float) -> SeqVector:
    """|x_i|^alpha coordinatewise on the support."""
    if not alpha > 0:
        raise ValidationError(f"pointwise_power requires alpha > 0, got {alpha}")
    return SeqVector((i, math.fabs(v) ** alpha) for i, v in x._entries.items())


def parse_vector(text: str) -> SeqVector:
    """Parse the CLI vector literal.

    Either comma-separated dense reals ("1,0,2.5" -> coords 1..3) or
    sparse "idx:value" pairs ("1:1,5:2.5"), each index at most once.  The
    two styles cannot be mixed.
    """
    text = text.strip()
    if not text:
        raise ValidationError("empty vector literal")
    parts = [p.strip() for p in text.split(",")]
    sparse = any(":" in p for p in parts)
    try:
        if sparse:
            pairs = []
            for p in parts:
                idx, _, val = p.partition(":")
                pairs.append((int(idx), float(val)))
        else:
            pairs = list(enumerate(map(float, parts), start=1))
    except ValueError as exc:
        raise ValidationError(f"bad vector literal {text!r}: {exc}") from None
    if not all(math.isfinite(v) for _, v in pairs):
        raise ValidationError(f"bad vector literal {text!r}: entries must be finite")
    seen = set()
    for i, _ in pairs:
        if i in seen:
            raise ValidationError(f"bad vector literal {text!r}: index {i} is repeated")
        seen.add(i)
    return SeqVector(pairs)
