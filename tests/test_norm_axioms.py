"""Norm-axiom invariants sampled across every implemented space kind.

Closed-form and DP-backed norms must satisfy the axioms to 1e-10;
optimizer-backed product norms to their certification tolerance.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    parse_space,
    s_norm_value,
    space_spr,
)
from banachlab import engine
from banachlab.descriptors import CalderonProduct
from banachlab.errors import ConvergenceError
from banachlab.vectors import pairing

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


# one of each descriptor kind: lp, S under three gauges, duals, convexifications,
# products (nested, of duals, of convexifications) and duals of products
NORMALIZED = ["l1", "l1.5", "l2", "l3", "linf", "s:log2p1", "s:sqrt", "s:pow:0.5", "s:one",
              "dual:s:log2p1", "dual:s:sqrt", "conv:s:log2p1:2", "conv:dual:s:log2p1:1.5",
              "cal:l2:s:log2p1:0.5", "cal:s:log2p1:s:sqrt:0.3",
              "cal:cal:l2:s:log2p1:0.5:s:sqrt:0.5", "cal:conv:s:log2p1:2:dual:s:sqrt:0.4",
              "dual:cal:l2:s:log2p1:0.5", "dual:cal:s:log2p1:dual:s:log2p1:0.5",
              "dual:conv:s:log2p1:2", "dual:dual:s:log2p1"]


@pytest.mark.parametrize("tol", [1e-6, 1e-8])
@pytest.mark.parametrize("space", NORMALIZED)
def test_every_space_is_normalized(space, tol):
    # ||e_1|| = 1 exactly: the dual LP's box 0 <= x <= 1 and the Calderon
    # solver's unit-vector atoms rest on it
    assert NormEvaluator(parse_space(space), tol=tol).norm(SeqVector.basis(1)) == 1.0


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
    "desc, tol",
    [pytest.param(d, tol, id=str(d)) for d, tol in [
        (Lp(3), 1e-12), (S, 1e-9), (Dual(S), 1e-9), (Convexified(S, 2.0), 1e-9),
        (space_spr(4 / 3, 4, F), 1e-6)]],
)
def test_positional_cache_key(desc, tol):
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
    assert warm_value == pytest.approx(fresh.norm(spread), rel=tol)
    assert first.value == pytest.approx(ref.value, rel=tol)
    to_spread = dict(zip(compressed.support, spread.support))
    moved = SeqVector((to_spread[i], v) for i, v in first.functional)
    assert [moved[i] for i in spread.support] == pytest.approx(
        [ref.functional[i] for i in spread.support], abs=tol
    )


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 8.0, math.inf])
def test_lp_norm_is_the_norming_value(p):
    # norm takes lp_norm on the entries in insertion order, norming takes the
    # core on them in support order; both reach the same lp_of, bit for bit
    rng = np.random.default_rng(3)
    for _ in range(200):
        d = int(rng.integers(1, 12))
        values = rng.uniform(-2.0, 2.0, d)
        x = SeqVector(zip(rng.permutation(d) + 1, values.tolist()))
        ev = NormEvaluator(Lp(p))
        assert ev.norm(x) == ev.norming(x).value


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

    @pytest.mark.parametrize("base", [S, Lp(3.0)], ids=["s", "l3"])
    def test_one_convexification_is_its_base_bit_for_bit(self, base):
        # the evaluator folds conv:X:1 to X, so every entry point takes X's
        # path; on S the convexified path differed in the last bits
        for k in range(200):
            rng = np.random.default_rng(np.random.SeedSequence([71, k]))
            x = SeqVector.from_values(rng.uniform(-2.0, 2.0, int(rng.integers(1, 12))).tolist())
            value = NormEvaluator(base).norm(x)
            assert NormEvaluator(Convexified(base, 1.0)).norm(x) == value
            assert convexified_norm(base, 1.0, x) == value

    def test_zero_vector_norming(self):
        res = NormEvaluator(Convexified(S, 2.0)).norming(SeqVector())
        assert res.value == 0.0 and res.functional == SeqVector()


# the grammar to depth 2: its atoms, then conv, cal and dual over them twice
_ATOMS = st.sampled_from(["l1", "l1.5", "l2", "l4", "linf", "s:log2p1", "s:sqrt", "s:pow:0.5"])


def _built_over(inner):
    return st.one_of(
        st.builds("conv:{}:{}".format, inner, st.sampled_from(["1.5", "2", "3"])),
        st.builds("cal:{}:{}:{}".format, inner, inner, st.sampled_from(["0.25", "0.5", "0.75"])),
        st.builds("dual:{}".format, inner),
    )


_DEPTH_1 = st.one_of(_ATOMS, _built_over(_ATOMS))
_GRAMMAR = st.one_of(_DEPTH_1, _built_over(_DEPTH_1))
_VECTORS = st.builds(
    lambda mags, signs, scale: SeqVector.from_values(
        [m * s * scale for m, s in zip(mags, signs)]),
    st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=8),
    st.lists(st.sampled_from([1.0, -1.0]), min_size=8, max_size=8),
    st.sampled_from([1.0, 2.0**-500, 2.0**500]),
)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(_GRAMMAR, _VECTORS)
def test_grammar_norming_and_homogeneity(space, x):
    # on every descriptor the grammar builds: the norming value is the norm,
    # the functional attains it within tol, and halving x halves the norm
    # exactly (every branch runs at unit scale); only a product solve that
    # cannot certify may raise
    ev = NormEvaluator(parse_space(space))
    try:
        value = ev.norm(x)
        res = ev.norming(x)
        half = ev.norm(x * 0.5)
    except ConvergenceError:
        return
    assert res.value == value
    assert abs(pairing(res.functional, x) - value) <= ev.tol * value
    assert half == 0.5 * value
