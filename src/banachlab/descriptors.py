"""Space descriptors: closed terms naming a lattice norm.

The grammar used by the CLI and config files:

    l<p>                        lp space (linf for p = infinity)
    s | s:<gauge>               Schlumprecht space (default gauge log2p1)
    conv:<space>:<p>            p-convexification of a base space
    cal:<space>:<space>:<theta> Calderon product X^(1-theta) Y^theta
    dual:<space>                dual space

Gauge names: log2p1, sqrt, one, identity, pow:<a>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple, Union

from .errors import UnsupportedSpaceError, ValidationError
from .gauges import GAUGE_TOKENS, GaugeFunction, gauge_by_name
from .vectors import SeqVector

__all__ = [
    "Lp",
    "Schlumprecht",
    "Convexified",
    "CalderonProduct",
    "Dual",
    "FunctionalFamily",
    "YDistortion",
    "SpaceDescriptor",
    "parse_space",
    "space_to_str",
    "dual_descriptor",
    "conjugate_exponent",
]


@dataclass(frozen=True)
class Lp:
    p: float

    def __post_init__(self):
        if not self.p >= 1.0:
            raise ValidationError(f"lp space needs p >= 1, got {self.p}")


@dataclass(frozen=True)
class Schlumprecht:
    gauge: GaugeFunction


@dataclass(frozen=True)
class Convexified:
    base: "SpaceDescriptor"
    p: float

    def __post_init__(self):
        if not 1.0 <= self.p < math.inf:
            raise ValidationError(f"convexification needs finite p >= 1, got {self.p}")


@dataclass(frozen=True)
class CalderonProduct:
    x: "SpaceDescriptor"
    y: "SpaceDescriptor"
    theta: float

    def __post_init__(self):
        if not 0.0 < self.theta < 1.0:
            raise ValidationError(
                f"Calderon product needs theta strictly inside (0,1), got {self.theta}"
            )


@dataclass(frozen=True)
class Dual:
    base: "SpaceDescriptor"


@dataclass(frozen=True)
class FunctionalFamily:
    """A finite family of functionals z* with the integer weight r."""

    members: Tuple[SeqVector, ...]
    r: int

    def __post_init__(self):
        if not self.members:
            raise ValidationError("functional family must be nonempty")
        if self.r < 1:
            raise ValidationError(f"family weight r must be a positive integer, got {self.r}")


@dataclass(frozen=True)
class YDistortion:
    """The distorted norm max(||x||_2, r max |<x, z*>|) over a family."""

    family: FunctionalFamily


SpaceDescriptor = Union[
    Lp, Schlumprecht, Convexified, CalderonProduct, Dual, YDistortion
]


def _parse_tokens(toks: List[str], pos: int) -> Tuple[SpaceDescriptor, int]:
    if pos >= len(toks):
        raise ValidationError("truncated space expression")
    t = toks[pos]
    if t.startswith("l") and t != "log2p1":
        try:
            return Lp(float(t[1:])), pos + 1
        except ValueError:
            raise ValidationError(f"bad lp space {t!r}") from None
    if t == "s":
        if pos + 1 < len(toks) and toks[pos + 1] in GAUGE_TOKENS:
            gauge, pos = _parse_gauge(toks, pos + 1)
            return Schlumprecht(gauge), pos
        return Schlumprecht(gauge_by_name("log2p1")), pos + 1
    if t == "conv":
        base, pos = _parse_tokens(toks, pos + 1)
        p, pos = _parse_float(toks, pos, "convexification exponent")
        return Convexified(base, p), pos
    if t == "cal":
        x, pos = _parse_tokens(toks, pos + 1)
        y, pos = _parse_tokens(toks, pos)
        theta, pos = _parse_float(toks, pos, "theta")
        return CalderonProduct(x, y, theta), pos
    if t == "dual":
        base, pos = _parse_tokens(toks, pos + 1)
        return Dual(base), pos
    raise ValidationError(f"unknown space token {t!r}")


def _parse_gauge(toks: List[str], pos: int) -> Tuple[GaugeFunction, int]:
    name = toks[pos]
    if name == "pow":
        if pos + 1 >= len(toks):
            raise ValidationError("pow gauge needs an exponent")
        return gauge_by_name(f"pow:{toks[pos + 1]}"), pos + 2
    return gauge_by_name(name), pos + 1


def _parse_float(toks: List[str], pos: int, what: str) -> Tuple[float, int]:
    if pos >= len(toks):
        raise ValidationError(f"missing {what}")
    body = toks[pos]
    try:
        return float(body), pos + 1
    except ValueError:
        raise ValidationError(f"bad {what} {body!r}") from None


def parse_space(text: str) -> SpaceDescriptor:
    toks = text.strip().split(":")
    desc, pos = _parse_tokens(toks, 0)
    if pos != len(toks):
        raise ValidationError(f"trailing tokens in space expression {text!r}")
    return desc


def _num(p: float) -> str:
    if math.isinf(p):
        return "inf"
    return format(p, "g")


def space_to_str(d: SpaceDescriptor) -> str:
    if isinstance(d, Lp):
        return f"l{_num(d.p)}"
    if isinstance(d, Schlumprecht):
        return f"s:{d.gauge.name}"
    if isinstance(d, Convexified):
        return f"conv:{space_to_str(d.base)}:{_num(d.p)}"
    if isinstance(d, CalderonProduct):
        return f"cal:{space_to_str(d.x)}:{space_to_str(d.y)}:{_num(d.theta)}"
    if isinstance(d, Dual):
        return f"dual:{space_to_str(d.base)}"
    if isinstance(d, YDistortion):
        return f"ydistortion(r={d.family.r},#{len(d.family.members)})"
    raise ValidationError(f"unknown descriptor {d!r}")


def conjugate_exponent(p: float) -> float:
    if not p >= 1.0:
        raise ValidationError(f"exponent must be >= 1, got {p}")
    if p == 1.0:
        return math.inf
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


def dual_descriptor(d: SpaceDescriptor) -> SpaceDescriptor:
    """Push one Dual constructor through a descriptor.

    Uses the classical closed forms: (lp)* = lq, and the duality theorem
    for lattice products (X^(1-t) Y^t)* = (X*)^(1-t) (Y*)^t.  A
    p-convexification is first rewritten as base^(1/p) linf^(1/q).  The
    dual of a Schlumprecht space has no closed form and stays Dual(S),
    which the engine norms by a cutting-plane LP.
    """
    if isinstance(d, Lp):
        return Lp(conjugate_exponent(d.p))
    if isinstance(d, Schlumprecht):
        return Dual(d)
    if isinstance(d, Convexified):
        if d.p == 1.0:
            return dual_descriptor(d.base)
        theta = 1.0 - 1.0 / d.p
        return CalderonProduct(dual_descriptor(d.base), Lp(1.0), theta)
    if isinstance(d, CalderonProduct):
        return CalderonProduct(dual_descriptor(d.x), dual_descriptor(d.y), d.theta)
    if isinstance(d, Dual):
        return d.base
    raise UnsupportedSpaceError(f"no dual for {space_to_str(d)} (non-lattice descriptor)")
