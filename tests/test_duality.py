import math

import numpy as np
import pytest

from banachlab import (
    Convexified,
    Dual,
    LOG2P1,
    Lp,
    NormEvaluator,
    Schlumprecht,
    SeqVector,
    dual_block_bound,
    dual_norm,
    get_evaluator,
    lozanovskii_check,
    lp_norm,
    pairing,
    s_norm,
    s_norm_value,
)
from banachlab import engine
from banachlab.calderon import lp_product_oracle
from banachlab.descriptors import CalderonProduct
from banachlab.errors import ValidationError

F = LOG2P1
S = Schlumprecht(F)


def rand_vec(rng, dmax=6):
    d = int(rng.integers(1, dmax + 1))
    return SeqVector.from_values(rng.uniform(0.1, 2.0, d) * rng.choice([-1, 1], d))


class TestPairing:
    def test_simple(self):
        assert pairing(SeqVector.from_values([1, 2]), SeqVector.from_values([3, 4])) == 11.0

    def test_empty(self):
        assert pairing(SeqVector.from_values([1, 2]), SeqVector()) == 0.0

    def test_certificate_pairing(self):
        x = SeqVector.from_values([1, 1])
        _, cert = s_norm(x, F)
        assert pairing(x, cert.functional()) == pytest.approx(
            2 / math.log2(3), abs=1e-12
        )


class TestClosedForms:
    def test_l2_self_dual(self):
        g = SeqVector.from_values([3, 4])
        res = dual_norm(Lp(2), g)
        assert res.value == pytest.approx(5.0, abs=1e-12)
        assert lp_norm(res.maximizer, 2) == pytest.approx(1.0, abs=1e-12)
        assert pairing(res.maximizer, g) == pytest.approx(5.0, abs=1e-12)

    def test_l1_dual_is_sup(self):
        res = dual_norm(Lp(1), SeqVector.from_values([1, -2, 3]))
        assert res.value == 3.0
        assert res.maximizer == SeqVector.basis(3)

    def test_linf_dual_is_l1(self):
        res = dual_norm(Lp(math.inf), SeqVector.from_values([1, -2]))
        assert res.value == 3.0


class TestSchlumprechtDual:
    def test_dual_summing_identity(self):
        for n in range(1, 11):
            g = SeqVector.from_values([1.0] * n)
            res = dual_norm(S, g)
            assert res.value == pytest.approx(math.log2(n + 1), abs=1e-6)
            # maximizer feasible and attaining
            assert s_norm_value(res.maximizer, F) <= 1.0 + 1e-8
            assert pairing(res.maximizer, g) == pytest.approx(res.value, rel=1e-6)

    def test_two_coordinates(self):
        res = dual_norm(S, SeqVector.from_values([1, 1]))
        assert res.value == pytest.approx(math.log2(3), abs=1e-9)

    def test_holder_inequality(self):
        rng = np.random.default_rng(12)
        ev = get_evaluator(S)
        for _ in range(30):
            x, g = rand_vec(rng), rand_vec(rng)
            assert abs(pairing(x, g)) <= ev.norm(x) * dual_norm(S, g).value + 1e-8


class TestWarmCutPool:
    """Pooled cuts are a warm start only: no value depends on earlier calls."""

    def test_cold_and_warm_evaluator_agree(self):
        rng = np.random.default_rng(17)
        vectors = [SeqVector.from_values([1.0] * n) for n in range(1, 11)]
        vectors += [rand_vec(rng, dmax=10) for _ in range(6)]
        ev = NormEvaluator(Dual(S))  # a private tree: its S child and cut pool start empty
        cold = [ev.norming(g) for g in vectors]
        warm = [ev.norming(g) for g in vectors]
        for g, a, b in zip(vectors, cold, warm):
            assert b.value == pytest.approx(a.value, abs=1e-6)
            for res in (a, b):
                assert s_norm_value(res.functional, F) <= 1.0 + 1e-8
                assert pairing(res.functional, g) == pytest.approx(res.value, rel=1e-6)

    def test_new_evaluator_is_cold_all_the_way_down(self):
        shared = get_evaluator(Dual(S))
        shared.norming(SeqVector.from_values([1.0, 0.5, 0.25]))
        assert shared._child(S)._dual_cuts
        assert NormEvaluator(Dual(S))._child(S)._dual_cuts == {}

    def test_pools_keep_the_newest_rows(self, monkeypatch):
        monkeypatch.setattr(engine, "CUT_POOL_SIZE", 4)
        rng = np.random.default_rng(19)
        vectors = [rand_vec(rng, dmax=8) for _ in range(8)]
        cold = [NormEvaluator(Dual(S)).norming(g).value for g in vectors]
        ev = NormEvaluator(Dual(S))
        for _ in range(2):
            warm = [ev.norming(g).value for g in vectors]
            assert warm == pytest.approx(cold, abs=1e-6)
        pools = ev._child(S)._dual_cuts
        assert pools and max(len(rows) for rows in pools.values()) <= 4

    @pytest.mark.parametrize("space", [S, Lp(3)])
    def test_bidual_repeat_agrees(self, space):
        rng = np.random.default_rng(18)
        ev = NormEvaluator(space)
        vectors = [rand_vec(rng, dmax=8) for _ in range(6)]
        first = [dual_norm(Dual(space), x).value for x in vectors]
        again = [dual_norm(Dual(space), x).value for x in vectors]
        for x, a, b in zip(vectors, first, again):
            assert b == pytest.approx(a, abs=1e-6)
            assert b == pytest.approx(ev.norm(x), rel=1e-5)


class TestBidual:
    @pytest.mark.parametrize("space", [S, Lp(3)])
    def test_reflexivity_numerically(self, space):
        rng = np.random.default_rng(13)
        ev = get_evaluator(space)
        for _ in range(8):
            x = rand_vec(rng, dmax=6)
            again = dual_norm(Dual(space), x).value
            assert again == pytest.approx(ev.norm(x), rel=1e-5)


class TestLozanovskii:
    def test_l1(self):
        rep = lozanovskii_check(Lp(1), 12, 6, seed=3)
        assert rep.metadata["max_rel_deviation"] <= 1e-4

    def test_l2_fixed_point(self):
        rep = lozanovskii_check(Lp(2), 12, 6, seed=3)
        assert rep.metadata["max_rel_deviation"] <= 1e-6

    def test_schlumprecht(self):
        rep = lozanovskii_check(S, 6, 5, seed=3)
        assert rep.metadata["max_rel_deviation"] <= 1e-4


class TestDualBlockBound:
    def test_two_spikes_attain_equality(self):
        lhs, rhs, ok = dual_block_bound(S, 1.0, F, [SeqVector.basis(1), SeqVector.basis(2)])
        assert ok
        assert lhs == pytest.approx(math.log2(3), abs=1e-6)
        assert rhs == pytest.approx(math.log2(3), abs=1e-9)

    def test_single_block_trivial(self):
        u = SeqVector.from_values([0.4, 0.8])
        lhs, rhs, ok = dual_block_bound(S, 1.0, F, [u])
        assert ok and lhs == pytest.approx(rhs, rel=1e-9)

    def test_convexified_four_spikes(self):
        blocks = [SeqVector.basis(i) for i in range(1, 5)]
        lhs, rhs, ok = dual_block_bound(Convexified(S, 2.0), 2.0, F, blocks)
        assert ok
        assert rhs == pytest.approx(math.log2(5) * 2.0, rel=1e-6)
        assert lhs <= rhs + 1e-6

    def test_overlapping_supports_rejected(self):
        with pytest.raises(ValidationError):
            dual_block_bound(S, 1.0, F, [SeqVector.from_values([1, 1]), SeqVector.basis(2)])

    def test_random_blocks_satisfy_bound(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            widths = rng.integers(1, 4, 3)
            blocks, start = [], 1
            for w in widths:
                blocks.append(
                    SeqVector(zip(range(start, start + w), rng.uniform(0.2, 1.0, w)))
                )
                start += w + int(rng.integers(0, 3))
            lhs, rhs, ok = dual_block_bound(S, 1.0, F, blocks)
            assert ok


class TestDualityTheoremProducts:
    @pytest.mark.parametrize("theta", [0.25, 0.5])
    def test_product_with_dual_matches_closed_exponent(self, theta):
        # l1^((1+t)/2) linf^((1-t)/2) has exponent 2/(1+t); its dual 2/(1-t)
        rng = np.random.default_rng(15)
        w = (1.0 - theta) / 2.0
        primal = CalderonProduct(Lp(1), Lp(math.inf), w)
        dual_side = CalderonProduct(Lp(1), Lp(math.inf), (1.0 + theta) / 2.0)
        p_primal = 2.0 / (1.0 + theta)
        p_dual = 2.0 / (1.0 - theta)
        assert lp_product_oracle(1, math.inf, w) == pytest.approx(p_primal)
        ev1, ev2 = get_evaluator(primal, tol=1e-7), get_evaluator(dual_side, tol=1e-7)
        for _ in range(6):
            z = rand_vec(rng, dmax=5)
            assert ev1.norm(z) == pytest.approx(lp_norm(z, p_primal), rel=1e-5)
            assert ev2.norm(z) == pytest.approx(lp_norm(z, p_dual), rel=1e-5)

    def test_dual_descriptor_of_product(self):
        # duality theorem applied through the descriptor transform
        rng = np.random.default_rng(16)
        prod = CalderonProduct(Lp(1), Lp(3), 0.5)
        q = lp_product_oracle(math.inf, 1.5, 0.5)
        for _ in range(5):
            z = rand_vec(rng, dmax=5)
            assert dual_norm(prod, z).value == pytest.approx(lp_norm(z, q), rel=1e-5)
