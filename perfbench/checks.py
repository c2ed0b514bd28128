"""Output checks, made apart from the code paths they check.

Each checker takes plain inputs and outputs and returns a list of
problems, empty when the output is correct. Norms of lp spaces and the
gauge log2(n + 1) are computed here with numpy and math, not with the
package. Where a check needs a Schlumprecht norm it is passed in by the
caller, computed by a different route than the one checked (the
exhaustive `reference_norm`, or `s_norm_value` on a factor).
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np


def gauge(n: float) -> float:
    """f(n) = log2(n + 1), the gauge every workload uses."""
    return math.log2(n + 1.0)


def lp_norm(values: Iterable[float], p: float) -> float:
    a = np.abs(np.asarray(list(values), dtype=float))
    if a.size == 0:
        return 0.0
    if math.isinf(p):
        return float(a.max())
    scale = float(a.max())
    return scale * float(np.sum((a / scale) ** p)) ** (1.0 / p)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# -- exact DP ---------------------------------------------------------------


def dp_norm(
    x: Sequence[float],
    value: float,
    attained: float,
    reference: Optional[float] = None,
    closed_form: Optional[float] = None,
    exact_l1: bool = False,
) -> List[str]:
    """A Schlumprecht norm and the certificate functional evaluated at x."""
    out = []
    if abs(attained - value) > 1e-12 * max(1.0, value):
        out.append(f"certificate functional gives {attained!r}, norm is {value!r}")
    sup, l1 = lp_norm(x, math.inf), math.fsum(abs(v) for v in x)
    if not sup * (1 - 1e-12) <= value <= l1 * (1 + 1e-12):
        out.append(f"norm {value!r} outside [sup {sup!r}, l1 {l1!r}]")
    if reference is not None and abs(value - reference) > 1e-12 * max(1.0, reference):
        out.append(f"DP {value!r} differs from exhaustive enumeration {reference!r}")
    if closed_form is not None and abs(value - closed_form) > 1e-9:
        out.append(f"summing vector norm {value!r}, closed form {closed_form!r}")
    if exact_l1 and value != l1:
        out.append(f"f = 1 on dyadic input gives {value!r}, l1 is {l1!r}")
    return out


# -- Calderon products ------------------------------------------------------


def factorization(
    z: Sequence[Tuple[int, float]],
    value: float,
    achieved: float,
    lower: float,
    x: Sequence[Tuple[int, float]],
    y: Sequence[Tuple[int, float]],
    theta: float,
    norm_x: float,
    norm_y: float,
    tol: float,
) -> List[str]:
    """A certified bracket [lower, value] and a balanced witness |z| = |x|^(1-t) |y|^t."""
    out = []
    if achieved != value:
        out.append(f"witness achieves {achieved!r}, returned norm is {value!r}")
    if not (lower <= value * (1 + 1e-12) and value - lower <= tol * value):
        out.append(f"bracket [{lower!r}, {value!r}] is not certified to {tol:g}")
    zd, xd, yd = dict(z), dict(x), dict(y)
    if not set(xd) == set(yd) == set(zd):
        out.append("factors and z have different supports")
        return out
    worst = max(
        _rel(abs(xd[i]) ** (1.0 - theta) * abs(yd[i]) ** theta, abs(zd[i])) for i in zd
    )
    if worst > 1e-9:
        out.append(f"|x|^(1-t)|y|^t differs from |z| by {worst:.3g} (relative)")
    for label, n in (("x", norm_x), ("y", norm_y)):
        if _rel(n, value) > 1e-9:
            out.append(f"factor {label} has norm {n!r}, product norm is {value!r}")
    return out


def within(value: float, expected: float, rel: float, what: str) -> List[str]:
    if abs(value - expected) > rel * abs(expected) + 1e-12:
        return [f"{what}: {value!r}, expected {expected!r} within {rel:g}"]
    return []


def squeeze(value: float, low: float, high: float, what: str) -> List[str]:
    """low <= value <= high, up to rounding."""
    if not low * (1 - 1e-9) <= value <= high * (1 + 1e-9):
        return [f"{what}: {value!r} outside [{low!r}, {high!r}]"]
    return []


def product_exponent(p0: float, p1: float, theta: float) -> float:
    """The p with l_p = l_p0^(1-theta) l_p1^theta: 1/p = (1-theta)/p0 + theta/p1."""
    inv = (1.0 - theta) / p0 + theta / p1  # 1/inf == 0.0
    return math.inf if inv == 0.0 else 1.0 / inv


def parallelogram(nx: float, ny: float, nxy: float, nxmy: float, p: float, q: float) -> List[str]:
    """Criterion 08: p-type and q-type parallelogram inequalities."""
    slack_p = 0.5 * (nxy**p + nxmy**p) - nx**p - ny**p
    slack_q = nx**q + ny**q - 0.5 * (nxy**q + nxmy**q)
    out = []
    if slack_p > 1e-8:
        out.append(f"p-inequality violated by {slack_p:.3g}")
    if slack_q > 1e-8:
        out.append(f"q-inequality violated by {slack_q:.3g}")
    return out


# -- dual norms -------------------------------------------------------------


def dual_norm(
    value: float,
    attained: float,
    maximizer_norm: float,
    primal: Sequence[Tuple[float, float]],
    closed_form: Optional[float] = None,
    tol: float = 1e-6,
) -> List[str]:
    """A dual norm with its maximizer.

    attained is <maximizer, g>, maximizer_norm the primal norm of the
    maximizer, and primal a list of (<x, g>, ||x||) for other x, which
    weak duality bounds by value * ||x||.
    """
    out = []
    if maximizer_norm > 1.0 + 1e-8:
        out.append(f"maximizer has norm {maximizer_norm!r} > 1")
    if abs(attained - value) > 1e-9 * max(1.0, value):
        out.append(f"<maximizer, g> = {attained!r}, dual norm is {value!r}")
    for pair, nx in primal:
        if pair > value * nx * (1.0 + tol) + 1e-12:
            out.append(f"weak duality fails: <x, g> = {pair!r} > {value!r} * {nx!r}")
    if closed_form is not None and abs(value - closed_form) > tol:
        out.append(f"dual summing norm {value!r}, closed form {closed_form!r}")
    return out


# -- experiment drivers -----------------------------------------------------


def summing_rows(rows) -> List[str]:
    out = []
    for n, dp, _, abs_diff in rows:
        if abs_diff > 1e-9 or abs(dp - n / gauge(n)) > 1e-9:
            out.append(f"summing n={n}: {dp!r}, closed form {n / gauge(n)!r}")
    return out


def block_growth_rows(rows, m: int) -> List[str]:
    """n normalized successive blocks: n / f(n) <= ||sum|| <= n; two give 2 f(m) / f(2m)."""
    out = []
    for n, value, _, _ in rows:
        if not n / gauge(n) * (1 - 1e-9) <= value <= n * (1 + 1e-9):
            out.append(f"block-growth n={n}: {value!r} outside [n/f(n), n]")
        if n == 2 and abs(value - 2 * gauge(m) / gauge(2 * m)) > 1e-9:
            out.append(f"block-growth two blocks of {m}: {value!r}")
    return out


def vn_rows(rows) -> List[str]:
    return [
        f"v_{n} = {value!r}, expected 1/f(2^{n})"
        for n, value, _ in rows
        if abs(value - 1.0 / gauge(2.0**n)) > 1e-9
    ]


def beta_row(row) -> List[str]:
    lower, upper, best = row
    if not lower <= best <= upper:
        return [f"beta: best {best!r} outside [{lower!r}, {upper!r}]"]
    return []


def distortion_row(r: int, count: int, row) -> List[str]:
    """plus = max(sqrt(c), r c), minus = max(sqrt(c), r (c mod 2)); (16, 2, 8) at r = c = 4."""
    plus, minus, ratio = row
    exp_plus = max(math.sqrt(count), r * count)
    exp_minus = max(math.sqrt(count), r * (count % 2))
    out = []
    if _rel(plus, exp_plus) > 1e-12 or _rel(minus, exp_minus) > 1e-12 or _rel(ratio, plus / minus) > 1e-12:
        out.append(f"distortion r={r} count={count}: {row!r}")
    if (r, count) == (4, 4) and tuple(row) != (16.0, 2.0, 8.0):
        out.append(f"distortion r=4 count=4 gives {row!r}, not exactly (16, 2, 8)")
    return out


def moduli_row(space: str, row) -> List[str]:
    """Sampled moduli: delta is an upper estimate, rho a lower one.

    In l2 both are known: delta(e) = 1 - sqrt(1 - e^2/4), rho(t) = sqrt(1 + t^2) - 1.
    In any space 0 <= delta <= 1 and rho <= t (triangle inequality).
    """
    eps, delta, tau, rho = row
    out = []
    if not (-1e-12 <= delta <= 1.0 and rho <= tau + 1e-12):
        out.append(f"moduli {space}: delta {delta!r}, rho {rho!r} out of range")
    if space == "l2":
        d_true = 1.0 - math.sqrt(1.0 - eps * eps / 4.0)
        r_true = math.sqrt(1.0 + tau * tau) - 1.0
        if not d_true - 1e-12 <= delta <= d_true + 0.01:
            out.append(f"moduli l2: delta({eps!r}) = {delta!r}, exact {d_true!r}")
        if not r_true - 0.01 <= rho <= r_true + 1e-12:
            out.append(f"moduli l2: rho({tau!r}) = {rho!r}, exact {r_true!r}")
    return out


def classx_rows(rows, member: bool) -> List[str]:
    passed = {name: ok for name, _, ok in rows}
    if member and not all(passed.values()):
        return [f"classx: a member space fails {passed!r}"]
    if not member and passed.get("lower_estimate", True):
        return ["classx: linf is not flagged on the lower estimate"]
    return []


def identical(a: str, b: str, what: str) -> List[str]:
    return [] if a == b else [f"{what}: rerun differs"]


def lozanovskii_rows(rows) -> List[str]:
    """X^(1/2) (X*)^(1/2) = l2 (criterion 06): each product norm within 1e-4 of l2."""
    return [
        f"lozanovskii sample {sample}: {value!r} against l2 {l2!r}"
        for sample, _, value, l2, _ in rows
        if not l2 > 0 or abs(value - l2) > 1e-4 * l2
    ]
