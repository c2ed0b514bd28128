"""Norm-axiom invariants sampled across every implemented space kind.

Closed-form and DP-backed norms must satisfy the axioms to 1e-10;
optimizer-backed product norms to their certification tolerance.
"""

import math

import numpy as np
import pytest

from banachlab import (
    Convexified,
    Dual,
    LOG2P1,
    Lp,
    NormEvaluator,
    ONE,
    Schlumprecht,
    SeqVector,
    convexified_norm,
    get_evaluator,
    lp_norm,
    s_norm_value,
    space_spr,
)
from banachlab import engine
from banachlab.descriptors import CalderonProduct

F = LOG2P1
S = Schlumprecht(F)

EXACT_SPACES = [
    Lp(1),
    Lp(2),
    Lp(math.inf),
    S,
    Schlumprecht(ONE),
    Convexified(S, 2.0),
    Dual(S),
]
ITERATIVE_SPACES = [
    CalderonProduct(Lp(1), Lp(math.inf), 0.5),
    CalderonProduct(Lp(2), S, 0.25),
]


def sample_pair(k, dmax=6):
    rng = np.random.default_rng(np.random.SeedSequence([101, k]))
    d = int(rng.integers(1, dmax + 1))
    x = SeqVector.from_values(rng.uniform(0.05, 2.0, d) * rng.choice([-1, 1], d))
    y = SeqVector.from_values(rng.uniform(0.05, 2.0, d) * rng.choice([-1, 1], d))
    lam = float(rng.uniform(0.1, 4.0))
    return x, y, lam


@pytest.mark.parametrize("desc", EXACT_SPACES, ids=str)
def test_norm_axioms_exact_spaces(desc):
    ev = get_evaluator(desc)
    for k in range(200):
        x, y, lam = sample_pair(k)
        nx, ny = ev.norm(x), ev.norm(y)
        assert ev.norm(x + y) <= nx + ny + 1e-10 * (nx + ny)
        assert ev.norm(lam * x) == pytest.approx(lam * nx, rel=1e-10)


@pytest.mark.parametrize("desc", EXACT_SPACES, ids=str)
def test_lattice_monotonicity_exact_spaces(desc):
    ev = get_evaluator(desc)
    for k in range(100):
        rng = np.random.default_rng(np.random.SeedSequence([103, k]))
        x, _, _ = sample_pair(k)
        shrink = SeqVector(
            (i, v * float(rng.uniform(0.0, 1.0))) for i, v in x
        )
        if shrink:
            assert ev.norm(shrink) <= ev.norm(x) * (1 + 1e-10)


@pytest.mark.parametrize("desc", ITERATIVE_SPACES, ids=str)
def test_norm_axioms_iterative_spaces(desc):
    ev = get_evaluator(desc, tol=1e-7)
    for k in range(25):
        x, y, lam = sample_pair(k, dmax=5)
        nx, ny = ev.norm(x), ev.norm(y)
        assert ev.norm(x + y) <= (nx + ny) * (1 + 2e-6)
        assert ev.norm(lam * x) == pytest.approx(lam * nx, rel=2e-6)


def test_nesting_between_sup_and_l1():
    for k in range(200):
        x, _, _ = sample_pair(k, dmax=8)
        v = s_norm_value(x, F)
        assert lp_norm(x, math.inf) <= v * (1 + 1e-10)
        assert v <= lp_norm(x, 1) * (1 + 1e-10)


def test_evaluator_determinism():
    a = get_evaluator(CalderonProduct(Lp(1), S, 0.5), tol=1e-7)
    x = SeqVector.from_values([0.4, 1.1, 0.7])
    first = a.norm(x)
    again = a.norm(x)
    fresh = get_evaluator(CalderonProduct(Lp(1), S, 0.5), tol=2e-7).norm(x)
    assert first == again
    assert first == pytest.approx(fresh, rel=1e-6)


def test_registry_keeps_the_newest(monkeypatch):
    monkeypatch.setattr(engine, "_registry", {})
    monkeypatch.setattr(engine, "REGISTRY_SIZE", 3)
    x = SeqVector.from_values([0.4, 1.1, 0.7])
    products = [CalderonProduct(Lp(1 + k / 4), Lp(math.inf), 0.5) for k in range(10)]
    first = [get_evaluator(d).norm(x) for d in products]
    assert len(engine._registry) <= 3
    assert [get_evaluator(d).norm(x) for d in products] == first


@pytest.mark.parametrize("desc", [S, Dual(S), Convexified(S, 2.0)], ids=str)
def test_small_norm_cache(monkeypatch, desc):
    vectors = [sample_pair(k, dmax=6)[0] for k in range(6)]
    ref = [NormEvaluator(desc).norm(x) for x in vectors]
    monkeypatch.setattr(engine, "NORM_CACHE_SIZE", 2)
    ev = NormEvaluator(desc)
    for _ in range(2):
        assert [ev.norm(x) for x in vectors] == pytest.approx(ref, rel=1e-6)
    assert len(ev._norm_cache) <= 2


@pytest.mark.parametrize(
    "desc", [Lp(3), S, Dual(S), Convexified(S, 2.0), space_spr(4 / 3, 4, F)], ids=str
)
def test_positional_cache_key(desc):
    # caches are keyed by support position, so a vector with gaps hits the
    # entry of its compressed twin; spreading invariance makes that exact
    compressed = SeqVector.from_values([0.7, -1.3, 0.4, 1.1])
    spread = SeqVector(zip((2, 5, 6, 11), compressed.values_in_order()))
    warm = NormEvaluator(desc)
    warm.norm(compressed)
    first = warm.norming(compressed)
    warm_value = warm.norm(spread)
    fresh = NormEvaluator(desc)
    ref = fresh.norming(spread)
    assert warm_value == pytest.approx(fresh.norm(spread), rel=warm.tol)
    assert first.value == pytest.approx(ref.value, rel=warm.tol)
    to_spread = dict(zip(compressed.support, spread.support))
    moved = SeqVector((to_spread[i], v) for i, v in first.functional)
    assert [moved[i] for i in spread.support] == pytest.approx(
        [ref.functional[i] for i in spread.support], abs=warm.tol
    )


class TestConvexifiedNormOp:
    def test_l1_two_convexification_is_l2(self):
        assert convexified_norm(Lp(1), 2.0, SeqVector.from_values([1, 1])) == (
            pytest.approx(math.sqrt(2), abs=1e-12)
        )

    def test_schlumprecht_two_coordinates(self):
        value = convexified_norm(S, 2.0, SeqVector.from_values([1, 1]))
        assert value == pytest.approx(math.sqrt(2 / math.log2(3)), abs=1e-12)

    def test_basis_vector(self):
        assert convexified_norm(S, 2.0, SeqVector.basis(1)) == pytest.approx(1.0)
