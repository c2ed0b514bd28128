"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.  Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np

from banachlab import (
    FunctionalFamily,
    LOG2P1,
    Lp,
    ONE,
    Schlumprecht,
    SeqVector,
    BlockSequence,
    calderon_norm,
    check_gauge_class,
    check_prop5_hypothesis,
    classX_verify,
    dual_norm,
    get_evaluator,
    l1_average,
    lozanovskii_check,
    lp_norm,
    lp_product_oracle,
    modulus_convexity_estimate,
    modulus_smoothness_estimate,
    reference_norm,
    s_norm,
    s_norm_value,
    space_spr,
    unconditionality_ratio,
    vn_averages,
)
from banachlab.cli import run_experiment
from banachlab.gauges import IDENTITY, SQRT

F = LOG2P1
S = Schlumprecht(F)


def report(num: int, description: str, ok: bool, detail: str = "") -> bool:
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{tag}] criterion {num:2d}: {description}{suffix}")
    return ok


def test_criterion_01_summing_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(1, 25):
        value = s_norm_value(SeqVector.from_values([1.0] * n), F)
        worst = max(worst, abs(value - n / math.log2(n + 1)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed <= 10.0
    assert report(1, "summing identity n <= 24", ok,
                  f"worst abs {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_spr_summing_identity():
    t0 = time.perf_counter()
    worst_closed = 0.0
    worst_iter = 0.0
    for p, r in [(2.0, math.inf), (1.0, 2.0), (2.0, 4.0), (1.5, 3.0)]:
        ev = get_evaluator(space_spr(p, r, F), tol=1e-7)
        for n in range(1, 13):
            expected = n ** (1.0 / p) * F(float(n)) ** (
                (0.0 if math.isinf(r) else 1.0 / r) - 1.0 / p
            )
            computed = ev.norm(SeqVector.from_values([1.0] * n))
            rel = abs(computed - expected) / expected
            if math.isinf(r):
                worst_closed = max(worst_closed, rel)
            else:
                worst_iter = max(worst_iter, rel)
    elapsed = time.perf_counter() - t0
    ok = worst_closed <= 1e-9 and worst_iter <= 1e-5 and elapsed <= 60.0
    assert report(2, "S_{p,r} summing identity", ok,
                  f"closed {worst_closed:.2e}, optimizer {worst_iter:.2e}, {elapsed:.1f}s")


def test_criterion_03_lp_product_oracle():
    worst = 0.0
    for k in range(100):
        rng = np.random.default_rng(np.random.SeedSequence([23, k]))
        choices = [1.0, math.inf, float(rng.uniform(1.0, 8.0)), float(rng.uniform(1.0, 8.0))]
        p0 = choices[int(rng.integers(0, 4))]
        p1 = choices[int(rng.integers(0, 4))]
        theta = float(rng.uniform(0.1, 0.9))
        d = int(rng.integers(1, 9))
        z = SeqVector.from_values(rng.uniform(0.1, 2.0, d))
        value, _ = calderon_norm(Lp(p0), Lp(p1), theta, z, tol=1e-7)
        ref = lp_norm(z, lp_product_oracle(p0, p1, theta))
        worst = max(worst, abs(value - ref) / ref)
    assert report(3, "Calderon lp oracle, 100 random vectors", worst <= 1e-6,
                  f"worst rel {worst:.2e}")


def test_criterion_04_brute_force_equivalence():
    worst = 0.0
    for k in range(200):
        rng = np.random.default_rng(np.random.SeedSequence([29, k]))
        d = int(rng.integers(1, 11))
        x = SeqVector.from_values(rng.uniform(0.05, 2.0, d) * rng.choice([-1, 1], d))
        dp = s_norm_value(x, F)
        bf = reference_norm(x, F)
        worst = max(worst, abs(dp - bf) / max(1.0, bf))
    exact = True
    for k in range(50):
        rng = np.random.default_rng(np.random.SeedSequence([31, k]))
        d = int(rng.integers(1, 11))
        vals = rng.integers(1, 2**20, d) / 1024.0  # dyadics: sums are exact
        x = SeqVector.from_values(vals)
        exact = exact and s_norm_value(x, ONE) == lp_norm(x, 1)
    ok = worst <= 1e-12 and exact
    assert report(4, "DP equals exhaustive enumeration; f=1 gives l1 exactly", ok,
                  f"worst {worst:.2e}, l1 exact {exact}")


def test_criterion_05_dual_summing():
    worst = 0.0
    for n in range(1, 11):
        value = dual_norm(S, SeqVector.from_values([1.0] * n)).value
        worst = max(worst, abs(value - math.log2(n + 1)))
    assert report(5, "dual summing identity n <= 10", worst <= 1e-6,
                  f"worst abs {worst:.2e}")


def test_criterion_06_lozanovskii():
    worsts = {}
    for name, desc in [("l1", Lp(1)), ("l3", Lp(3)), ("S", S)]:
        rep = lozanovskii_check(desc, 50, 6, seed=5, tol=1e-5)
        worsts[name] = rep.metadata["max_rel_deviation"]
    worst = max(worsts.values())
    assert report(6, "Lozanovskii: X^(1/2)(X*)^(1/2) = l2", worst <= 1e-4,
                  ", ".join(f"{k} {v:.2e}" for k, v in worsts.items()))


def test_criterion_07_class_verifier():
    ok = True
    details = []
    for p, r in [(1.0, math.inf), (2.0, math.inf)]:
        rep = classX_verify(space_spr(p, r, F), p, r, F, 500, seed=1, tol=1e-8)
        worst = max(row[1] for row in rep.rows)
        ok = ok and all(row[2] for row in rep.rows)
        details.append(f"S_({p:g},{r:g}) slack {worst:.1e}")
    counter = classX_verify(Lp(math.inf), 1.0, math.inf, F, 100, seed=1, tol=1e-8)
    by_name = {row[0]: row for row in counter.rows}
    flagged = not by_name["lower_estimate"][2]
    ok = ok and flagged
    details.append(f"linf flagged {flagged}")
    assert report(7, "class verifier: members pass, sup-norm flagged", ok,
                  ", ".join(details))


def test_criterion_08_theta_hilbertian_inequalities():
    p, q = 4.0 / 3.0, 4.0
    ev = get_evaluator(space_spr(p, q, F), tol=1e-6)
    worst_p = worst_q = -math.inf
    for k in range(200):
        rng = np.random.default_rng(np.random.SeedSequence([11, k]))
        d = int(rng.integers(2, 6))
        x = SeqVector.from_values(rng.uniform(-1, 1, d))
        y = SeqVector.from_values(rng.uniform(-1, 1, d))
        if not x or not y:
            continue
        nxy, nxmy = ev.norm(x + y), ev.norm(x - y)
        nx, ny = ev.norm(x), ev.norm(y)
        worst_p = max(worst_p, 0.5 * (nxy**p + nxmy**p) - nx**p - ny**p)
        worst_q = max(worst_q, nx**q + ny**q - 0.5 * (nxy**q + nxmy**q))
    ok = worst_p <= 1e-8 and worst_q <= 1e-8
    assert report(8, "parallelogram-type inequalities in S_{4/3,4}", ok,
                  f"slacks {worst_p:.2e}, {worst_q:.2e}")


def test_criterion_09_block_growth():
    worst = 0.0
    for m in (2, 4, 8, 16):
        u1 = l1_average(m, 0, S)
        u2 = l1_average(m, m, S)
        value = s_norm_value(u1 + u2, F)
        expected = 2 * F(float(m)) / F(float(2 * m))
        worst = max(worst, abs(value - expected))
    seq = []
    analytic_used = False
    for k in range(1, 11):
        m = 2**k
        c = F(float(m)) / m
        value, cert = s_norm(SeqVector.from_values([c] * (2 * m)), F)
        analytic_used = analytic_used or cert.analytic
        seq.append(value)
    increasing = all(b > a for a, b in zip(seq, seq[1:]))
    ok = worst <= 1e-9 and increasing and analytic_used
    assert report(9, "block growth 2f(m)/f(2m), strictly increasing in k", ok,
                  f"worst {worst:.2e}, increasing {increasing}")


def test_criterion_10_vn_table():
    rep = vn_averages(S, 1.0, BlockSequence.basis(32), 4)
    worst = max(
        abs(row[1] - 1.0 / F(float(2 ** row[0]))) for row in rep.rows
    )
    assert report(10, "v_n norms equal 1/f(2^n) for the raw basis", worst <= 1e-9,
                  f"worst abs {worst:.2e}")


def test_criterion_11_distortion_mechanism():
    fam = FunctionalFamily((SeqVector.from_values([1.0, 1.0, 1.0, 1.0]),), 4)
    plus, minus, ratio = unconditionality_ratio(fam, BlockSequence.basis(4))
    ok = (plus, minus, ratio) == (16.0, 2.0, 8.0) and ratio == 4.0**1.5
    assert report(11, "unconditionality ratio (16, 2, 8) = r^(3/2)", ok,
                  f"got ({plus:g}, {minus:g}, {ratio:g})")


def test_criterion_12_moduli_oracles():
    delta2 = modulus_convexity_estimate(Lp(2), 1.0, 10_000, seed=0)
    rho2 = modulus_smoothness_estimate(Lp(2), 1.0, 10_000, seed=0)
    delta1 = modulus_convexity_estimate(Lp(1), 1.0, 10_000, seed=0)
    err_d = abs(delta2 - (1 - math.sqrt(0.75)))
    err_r = abs(rho2 - (math.sqrt(2) - 1))
    ok = err_d <= 0.01 and err_r <= 0.01 and delta1 <= 0.01
    assert report(12, "moduli estimators vs closed forms", ok,
                  f"conv err {err_d:.1e}, smooth err {err_r:.1e}, l1 conv {delta1:.1e}")


def test_criterion_13_gauge_class():
    log_ok = check_gauge_class(F).in_class
    sqrt_ok = check_gauge_class(SQRT).in_class
    identity_report = check_gauge_class(IDENTITY)
    identity_rejected = not identity_report.condition1_ok
    accept_log, _ = check_prop5_hypothesis(F, 0.1)
    reject_sqrt, _ = check_prop5_hypothesis(SQRT, 0.25)
    ok = log_ok and sqrt_ok and identity_rejected and accept_log and not reject_sqrt
    assert report(13, "gauge class checks and decay hypothesis", ok,
                  f"log {log_ok}, sqrt {sqrt_ok}, identity rejected {identity_rejected}")


def test_criterion_14_determinism():
    cfg_a = {"space": "s:log2p1", "p": 1, "r": "inf", "samples": 40, "seed": 9}
    classx_same = (
        run_experiment("classx", dict(cfg_a)).to_csv()
        == run_experiment("classx", dict(cfg_a)).to_csv()
    )
    cfg_b = {"space": "s:log2p1", "count": 2, "m": 4, "samples": 25, "seed": 3}
    proj_same = (
        run_experiment("projection", dict(cfg_b)).to_csv()
        == run_experiment("projection", dict(cfg_b)).to_csv()
    )
    ok = classx_same and proj_same
    assert report(14, "same seed gives byte-identical CSV", ok,
                  f"classx {classx_same}, projection {proj_same}")


def test_criterion_15_lozanovskii_on_the_family():
    # each sample runs the DP, the dual LP and the inner and outer product
    # solves of S_{p,r} and its dual against the exact answer ||z||_2
    t0 = time.perf_counter()
    worsts = {}
    for p, r in [(4.0 / 3.0, 4.0), (1.0, 2.0), (2.0, 4.0), (1.5, 3.0)]:
        rep = lozanovskii_check(space_spr(p, r, F), 10, 6, seed=5, tol=1e-5)
        worsts[f"S_({p:g},{r:g})"] = rep.metadata["max_rel_deviation"]
    elapsed = time.perf_counter() - t0
    ok = max(worsts.values()) <= 1e-4 and elapsed <= 10.0
    assert report(15, "Lozanovskii on S_{p,r}: X^(1/2)(X*)^(1/2) = l2", ok,
                  ", ".join(f"{k} {v:.2e}" for k, v in worsts.items()) + f", {elapsed:.1f} s")
