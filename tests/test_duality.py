import math
from functools import lru_cache

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

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
    parse_space,
    s_norm,
    s_norm_value,
    space_to_str,
)
from banachlab import engine
from banachlab.calderon import lp_product_oracle
from banachlab.descriptors import CalderonProduct, FunctionalFamily, YDistortion
from banachlab.errors import ConvergenceError, UnsupportedSpaceError, ValidationError
from banachlab.gauges import gauge_by_name

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

    def test_dual_token_parses(self):
        assert parse_space("dual:s:log2p1") == Dual(S)
        assert space_to_str(Dual(S)) == "dual:s:log2p1"

    def test_distorted_norm_has_no_dual(self):
        fam = FunctionalFamily((SeqVector.basis(1),), 2)
        with pytest.raises(UnsupportedSpaceError):
            dual_norm(YDistortion(fam), SeqVector.from_values([1, -2]))


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
    """A warm evaluator returns what a cold one computes: no value depends on earlier calls."""

    def test_cold_and_warm_evaluator_agree(self):
        rng = np.random.default_rng(17)
        vectors = [SeqVector.from_values([1.0] * n) for n in range(1, 11)]
        vectors += [rand_vec(rng, dmax=10) for _ in range(6)]
        ev = NormEvaluator(Dual(S))  # a private tree: its caches start empty
        cold = [ev.norming(g) for g in vectors]
        warm = [ev.norming(g) for g in vectors]
        for g, a, b in zip(vectors, cold, warm):
            assert b.value == a.value and b.functional == a.functional
            for res in (a, b):
                assert s_norm_value(res.functional, F) <= 1.0 + 1e-8
                assert pairing(res.functional, g) == pytest.approx(res.value, rel=1e-6)

    def test_shared_evaluator_equals_fresh_ones(self):
        rng = np.random.default_rng(5)
        vectors = [SeqVector.from_values(rng.uniform(-1, 1, int(rng.integers(2, 13))))
                   for _ in range(24)]
        fresh = [NormEvaluator(Dual(S)).norming(g) for g in vectors]
        shared = get_evaluator(Dual(S))
        for order in (vectors, vectors[::-1]):
            for g in order:
                shared.norming(g)
        for g, ref in zip(vectors, fresh):
            res = shared.norming(g)
            assert res.value == ref.value and res.functional == ref.functional
            assert shared.norm(g) == ref.value

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


def dual_shaped_lp(rng, degenerate):
    """c, u and cut rows shaped like the dual LP's: c scaled to max 1, rows >= 0."""
    n = int(rng.integers(1, 13))
    c = rng.uniform(0.05, 1.0, n)
    c /= c.max()
    u = float(rng.choice([0.5, 1.0, 2.0]))
    rows = []
    for _ in range(int(rng.integers(0, 257))):
        a = rng.uniform(0.0, 1.0, n) * (rng.random(n) < 0.7)
        if degenerate and rows and rng.random() < 0.3:
            a = rows[int(rng.integers(len(rows)))].copy()  # a duplicated row
        elif degenerate and rng.random() < 0.3:
            a = np.zeros(n)  # tight where x sits on its bound u
            on = rng.random(n) < 0.5
            a[on] = 1.0 / (u * max(on.sum(), 1))
        elif a.max() > 0.0:
            a /= a @ rng.uniform(0.3, 1.0, n) * u  # about as tight as a cut
        rows.append(a)
    return c, u, rows


class TestDualSimplex:
    """The dual LP's tableau against scipy's linprog (HiGHS) as reference."""

    def check(self, c, u, rows, x, bound):
        a = np.array(rows).reshape(len(rows), len(c))
        ref = linprog(-c, A_ub=a if rows else None, b_ub=np.ones(len(rows)) if rows else None,
                      bounds=[(0.0, u)] * len(c), method="highs")
        assert ref.status == 0
        assert float(c @ x) == pytest.approx(-ref.fun, rel=1e-9)
        assert x.min() >= 0.0 and x.max() <= u + 1e-12
        assert (a @ x).max(initial=0.0) <= 1.0 + 1e-12
        # weak duality; HiGHS's value carries its own rounding
        assert bound >= -ref.fun * (1.0 - 1e-14)

    @pytest.mark.parametrize("degenerate", [False, True])
    def test_fresh_and_warm_agree_with_linprog(self, degenerate):
        # rows arrive in blocks of 1 to 4, as a dual-LP round appends its cuts
        rng, blocks = np.random.default_rng(21 + degenerate), np.random.default_rng(24)
        for _ in range(12):
            c, u, rows = dual_shaped_lp(rng, degenerate)
            tab = engine._Tableau(c, u)
            tab.solve()
            k = 0
            while k < len(rows):
                step = int(blocks.integers(1, 5))
                tab.add(np.array(rows[k:k + step]))
                tab.solve()
                k += step
            self.check(c, u, rows, *tab.solve())

    def test_fresh_tableau_starts_at_the_box_optimum(self, monkeypatch):
        # with the box rows alone the optimum is known: x_j = u where c_j > LP_TOL
        pivots = []
        monkeypatch.setattr(engine._Tableau, "_pivot", lambda tab, r, s: pivots.append(r))
        rng = np.random.default_rng(23)
        for _ in range(12):
            c, u, _ = dual_shaped_lp(rng, False)
            c[rng.random(len(c)) < 0.2] = 1e-13  # at or below LP_TOL: x_j stays 0
            x, bound = engine._Tableau(c, u).solve()
            assert pivots == []
            assert x.tolist() == np.where(c > engine.LP_TOL, u, 0.0).tolist()
            assert bound == u * c.sum()

    def test_pivot_cap_raises_with_bracket(self, monkeypatch):
        z = SeqVector.from_values([1.0, 0.5, 0.3, 0.8])
        value = NormEvaluator(Dual(S)).norm(z)
        monkeypatch.setattr(engine, "LP_PIVOTS_PER_LABEL", 0)
        with pytest.raises(ConvergenceError, match="dual-norm LP failed") as err:
            NormEvaluator(Dual(S)).norm(z)
        assert 0.0 <= err.value.lower <= value <= err.value.upper


def dp_lp_dual_norm(g, f):
    """||g||_S* as one LP, independent of the cutting plane: max |g|.x over
    x >= 0 with table values N(a, b) and B_m(a, b) that satisfy the DP's
    recursions as inequalities, N(i, i) >= x_i, N(a, b) >= N(a, b-1) and
    N(a+1, b), f(m) N(a, b) >= B_m(a, b), B_m(a, b) >= N(a, k) + B_(m-1)(k+1, b)
    with B_1 = N, and N(0, n-1) <= 1.  The DP table is the least solution, so
    the x part of the polytope is the positive part of B(S).  HiGHS's dual
    simplex solves it at feasibility tolerance 1e-10."""
    n = len(g)
    index = {}

    def var(*key):
        return index.setdefault(key, len(index))

    xs = [var("x", i) for i in range(n)]  # the first n variables
    rows = [[(xs[i], 1.0), (var(1, i, i), -1.0)] for i in range(n)]  # sum of terms <= 0
    for length in range(2, n + 1):
        for a in range(n - length + 1):
            b = a + length - 1
            rows.append([(var(1, a, b - 1), 1.0), (var(1, a, b), -1.0)])
            rows.append([(var(1, a + 1, b), 1.0), (var(1, a, b), -1.0)])
            for m in range(2, length + 1):
                rows.append([(var(m, a, b), 1.0), (var(1, a, b), -f(float(m)))])
                rows.extend([(var(1, a, k), 1.0), (var(m - 1, k + 1, b), 1.0), (var(m, a, b), -1.0)]
                            for k in range(a, b - m + 2))
    rows.append([(var(1, 0, n - 1), 1.0)])  # <= 1
    r, k, c = zip(*((i, k, c) for i, terms in enumerate(rows) for k, c in terms))
    b_ub = np.zeros(len(rows))
    b_ub[-1] = 1.0
    cost = np.zeros(len(index))
    cost[:n] = -np.abs(g)
    res = linprog(cost, A_ub=coo_matrix((c, (r, k)), shape=(len(rows), len(index))), b_ub=b_ub,
                  method="highs-ds", options={"primal_feasibility_tolerance": 1e-10,
                                              "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0
    return -res.fun


HIGHS_TOL = 1e-9  # relative slack of the reference beside DUAL_GAP_TOL


@lru_cache(maxsize=1)
def dp_lp_references():
    """24 seeded vectors of support 2-20 under three gauges, with their references."""
    cases = []
    for k in range(24):
        rng = np.random.default_rng(np.random.SeedSequence([16, k]))
        f = gauge_by_name(("log2p1", "sqrt", "pow:0.5")[k % 3])
        n = int(rng.integers(2, 13)) if k % 4 else int(rng.integers(13, 21))
        g = rng.uniform(-1.0, 1.0, n)
        cases.append((f, g, dp_lp_dual_norm(g, f)))
    return cases


class TestDualAgainstTheDpLp:
    """Dual(S) against one LP written from the DP, solved by HiGHS."""

    @staticmethod
    def misses():
        out = []
        for f, g, ref in dp_lp_references():
            value = NormEvaluator(Dual(Schlumprecht(f))).norm(SeqVector.from_values(g))
            if abs(value - ref) > (engine.DUAL_GAP_TOL + HIGHS_TOL) * ref:
                out.append((f.name, len(g), value, ref))
        return out

    def test_reference_reproduces_the_summing_values(self):
        for n in range(1, 11):
            assert dp_lp_dual_norm(np.ones(n), F) == pytest.approx(math.log2(n + 1),
                                                                    rel=HIGHS_TOL, abs=0)

    def test_cutting_plane_matches_the_reference(self):
        assert self.misses() == []

    def test_reference_sees_cut_rows_scaled_by_one_plus_1e6(self, monkeypatch):
        # a wrong oracle whose rows are 1 + 1e-6 times too large shrinks the LP
        def too_large(real):
            def oracle(*args):
                value, rows = real(*args)
                return value, (np.array(rows) * (1.0 + 1e-6)).tolist()
            return oracle

        monkeypatch.setattr(engine, "s_norm_weights", too_large(engine.s_norm_weights))
        assert len(self.misses()) == len(dp_lp_references())


class TestSplitCuts:
    @pytest.mark.parametrize("s, value", [(0, 7.30707673842), (1, 7.30734135396)])
    def test_support_32_in_few_tableau_solves(self, monkeypatch, s, value):
        # the violated split rows of each vertex's DP table go in with its cut
        solves = []
        solve = engine._Tableau.solve
        monkeypatch.setattr(engine._Tableau, "solve", lambda tab: solves.append(1) or solve(tab))
        rng = np.random.default_rng(np.random.SeedSequence([11, 32, s]))
        g = SeqVector.from_values(rng.uniform(0.1, 2.0, 32))
        assert NormEvaluator(Dual(S)).norm(g) == pytest.approx(value, rel=engine.DUAL_GAP_TOL)
        assert len(solves) < 120


class TestCuttingPlaneFailures:
    z = SeqVector.from_values([1.0, 0.5, 0.3, 0.8])

    def test_round_limit(self, monkeypatch):
        monkeypatch.setattr(engine, "DUAL_MAX_ROUNDS", 1)
        with pytest.raises(ConvergenceError, match="exceeded round limit") as err:
            NormEvaluator(Dual(S)).norm(self.z)
        assert err.value.lower == pytest.approx(1.509, abs=1e-3)
        assert err.value.upper == pytest.approx(2.6, rel=1e-12)

    def test_stall(self, monkeypatch):
        # an oracle that repeats its first rows per size cuts nothing new at
        # the vertex
        ev = NormEvaluator(Dual(S))
        oracle = ev._child(S)
        real, stale = oracle.norming_values, {}

        def norming_values(v, *limits):
            value, rows = real(v, *limits)
            return value, stale.setdefault(len(v), rows)

        monkeypatch.setattr(oracle, "norming_values", norming_values)
        with pytest.raises(ConvergenceError, match="oracle cut did not separate") as err:
            ev.norm(self.z)
        assert 0.0 < err.value.lower <= err.value.upper


class TestBidual:
    @pytest.mark.parametrize("space", [S, Lp(3)])
    def test_reflexivity_numerically(self, space):
        rng = np.random.default_rng(13)
        ev = get_evaluator(space)
        for _ in range(8):
            x = rand_vec(rng, dmax=6)
            again = dual_norm(Dual(space), x).value
            assert again == pytest.approx(ev.norm(x), rel=1e-5)

    def test_tolerance_reaches_the_inner_solves(self, monkeypatch):
        # the bidual's oracle norms in cal(l2, S, 1/2)* by Calderon solves at
        # the caller's tolerance
        tols = []
        solve = engine._calderon_solve
        monkeypatch.setattr(engine, "_registry", {})
        monkeypatch.setattr(engine, "_calderon_solve",
                            lambda *args: tols.append(args[-1]) or solve(*args))
        g = SeqVector.from_values([1.0, 0.5, 0.3])
        dual_norm(Dual(CalderonProduct(Lp(2), S, 0.5)), g, tol=1e-10)
        assert tols and set(tols) == {1e-10}


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
