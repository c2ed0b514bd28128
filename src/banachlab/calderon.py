"""The interpolation family S_{p,r} and closed-form product oracles.

S_{p,r} is the Calderon product l_t^(1-theta) S^theta with
theta = 1/p - 1/r and t = (1-theta) r; for r = infinity it degenerates
to the p-convexification of S.  Its summing identity

    || e_1 + ... + e_n ||  =  n^(1/p) f(n)^(1/r - 1/p)

is the quantitative handle used throughout the experiment drivers.
"""

from __future__ import annotations

import math
from typing import Tuple

from .descriptors import CalderonProduct, Convexified, Lp, Schlumprecht, SpaceDescriptor
from .engine import get_evaluator
from .errors import ValidationError
from .gauges import GaugeFunction
from .vectors import SeqVector

__all__ = [
    "space_spr",
    "lp_product_oracle",
    "spr_summing_identity",
    "spr_summing_expected",
]

SUMMING_TOL = 1e-7  # the product solver's tol in spr_summing_identity


def space_spr(p: float, r: float, f: GaugeFunction) -> SpaceDescriptor:
    """Descriptor of S_{p,r}(f); requires 1 <= p < r <= inf."""
    if not (1.0 <= p < r):
        raise ValidationError(f"need 1 <= p < r, got p={p}, r={r}")
    if math.isinf(r):
        if p == 1.0:
            return Schlumprecht(f)
        return Convexified(Schlumprecht(f), p)
    theta = 1.0 / p - 1.0 / r
    t = (1.0 - theta) * r
    return CalderonProduct(Lp(t), Schlumprecht(f), theta)


def lp_product_oracle(p0: float, p1: float, theta: float) -> float:
    """Exponent of the lp space equal to lp0^(1-theta) lp1^theta."""
    if not (p0 >= 1.0 and p1 >= 1.0):
        raise ValidationError("lp exponents must be >= 1")
    if not 0.0 < theta < 1.0:
        raise ValidationError(f"theta must lie in (0,1), got {theta}")
    inv = (1.0 - theta) * (1.0 / p0) + theta * (1.0 / p1)
    if inv == 0.0:
        return math.inf
    return 1.0 / inv


def spr_summing_expected(n: int, p: float, r: float, f: GaugeFunction) -> float:
    exponent = 1.0 / r - 1.0 / p
    return n ** (1.0 / p) * f(float(n)) ** exponent


def spr_summing_identity(
    n: int,
    p: float,
    r: float,
    f: GaugeFunction,
) -> Tuple[float, float, float]:
    """(expected, computed, |difference|) for the summing vector of S_{p,r}."""
    if n < 1:
        raise ValidationError(f"n must be positive, got {n}")
    expected = spr_summing_expected(n, p, r, f)
    desc = space_spr(p, r, f)
    ev = get_evaluator(desc, tol=SUMMING_TOL)
    computed = ev.norm(SeqVector.from_values([1.0] * n))
    return expected, computed, abs(expected - computed)
