import math
import os
import subprocess
import sys

import numpy as np
import pytest

from banachlab import (
    CalderonProduct,
    Convexified,
    Dual,
    LOG2P1,
    Lp,
    NormEvaluator,
    Schlumprecht,
    SeqVector,
    calderon_norm,
    get_evaluator,
    lp_norm,
    lp_product_oracle,
    parse_space,
    pointwise_power,
    space_spr,
    spr_summing_identity,
)
from banachlab import engine
from banachlab.errors import (
    ConvergenceError,
    UnsupportedSpaceError,
    ValidationError,
)
from banachlab.descriptors import FunctionalFamily, YDistortion

F = LOG2P1
S = Schlumprecht(F)
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def rand_vec(rng, lo, hi, dmin=1, dmax=8):
    d = int(rng.integers(dmin, dmax + 1))
    return SeqVector.from_values(rng.uniform(lo, hi, d))


class TestLpProductOracle:
    def test_harmonic_mean(self):
        assert lp_product_oracle(1, math.inf, 0.5) == pytest.approx(2.0)

    def test_identity_case(self):
        assert lp_product_oracle(2, 2, 0.3) == pytest.approx(2.0)

    def test_mixed(self):
        assert lp_product_oracle(1, 3, 0.5) == pytest.approx(1.5)

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValidationError):
            lp_product_oracle(0.5, 2, 0.5)

    def test_rejects_theta_outside_the_open_interval(self):
        with pytest.raises(ValidationError, match="theta"):
            lp_product_oracle(1, 2, 0.0)


class TestCalderonNorm:
    def test_l1_linf_pair_is_l2(self):
        value, _ = calderon_norm(Lp(1), Lp(math.inf), 0.5, SeqVector.from_values([1, 1]))
        assert value == pytest.approx(math.sqrt(2), rel=1e-9)

    def test_grid_search_cross_check(self):
        # independent oracle: dense grid over the factorization parameters
        z = SeqVector.from_values([1, 1])
        best = math.inf
        for s1 in np.linspace(-4, 4, 81):
            for s2 in np.linspace(-4, 4, 81):
                x = SeqVector({1: math.exp(0.5 * s1), 2: math.exp(0.5 * s2)})
                y = SeqVector({1: math.exp(-0.5 * s1), 2: math.exp(-0.5 * s2)})
                best = min(best, max(lp_norm(x, 1), lp_norm(y, math.inf)))
        value, _ = calderon_norm(Lp(1), Lp(math.inf), 0.5, z)
        assert value <= best + 1e-9
        assert value == pytest.approx(best, abs=5e-3)  # grid resolution

    def test_basis_vector_forced(self):
        for xs, ys in [(Lp(1), Lp(3)), (S, Lp(2)), (Lp(2), S)]:
            value, _ = calderon_norm(xs, ys, 0.25, SeqVector.basis(4))
            assert value == pytest.approx(1.0, rel=1e-9)

    def test_l1_schlumprecht_summing(self):
        value, _ = calderon_norm(Lp(1), S, 0.5, SeqVector.from_values([1, 1, 1]))
        assert value == pytest.approx(3 / math.sqrt(2), rel=1e-9)

    def test_rejects_empty_vector(self):
        with pytest.raises(ValidationError):
            calderon_norm(Lp(1), Lp(2), 0.5, SeqVector())

    def test_rejects_non_lattice_factor(self):
        fam = FunctionalFamily((SeqVector.basis(1),), 2)
        with pytest.raises(UnsupportedSpaceError):
            calderon_norm(YDistortion(fam), Lp(2), 0.5, SeqVector.basis(1))

    def test_budget_exhaustion_carries_bracket(self, monkeypatch):
        # the unbudgeted solve certifies after 14 norm evaluations
        z = SeqVector.from_values([1.0, 0.3, 0.2, 0.5, 0.2, 0.7, 1.1, 0.5, 1.0, 0.4, 0.3,
                                   0.7, 0.4, 0.3, 1.2, 0.6, 0.7, 0.8, 1.0, 0.2, 0.5])
        monkeypatch.setattr(engine, "DEFAULT_BUDGET", 12)
        with pytest.raises(ConvergenceError) as err:
            calderon_norm(Lp(2), S, 1 / 3, z, tol=1e-13)
        assert err.value.upper >= err.value.lower > 0
        assert "the budget ran out after 12 of 12 norm evaluations" in str(err.value)
        assert "relative gap" in str(err.value)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("call", ["norm", "factorize"])
    def test_no_finite_upper_bound_certifies_nothing(self, monkeypatch, bad, call):
        # an S oracle whose values are never finite leaves the upper bound at
        # inf, and inf - lower <= tol * inf holds: the solve must still fail
        ev = NormEvaluator(CalderonProduct(Lp(2), S, 0.5))
        oracle = ev._child(S)
        real = oracle.norming_values
        monkeypatch.setattr(oracle, "norming_values",
                            lambda v, *limits: (bad, real(v, *limits)[1]))
        with pytest.raises(ConvergenceError, match="a round improved neither bound") as err:
            getattr(ev, call)(SeqVector.from_values([1.0, 0.5, 0.3]))
        assert err.value.upper == math.inf and err.value.lower > 0

    def test_factorize_needs_a_product(self):
        with pytest.raises(UnsupportedSpaceError, match="factorize needs a Calderon product"):
            NormEvaluator(S).factorize(SeqVector.basis(1))

    def test_zero_factorization_has_no_gap(self):
        assert engine.Factorization(SeqVector(), SeqVector(), 0.0, 0.0).relative_gap == 0.0

    def test_stall_is_reported(self, monkeypatch):
        # an oracle that repeats its first functional adds no atom, so the
        # second round improves neither bound
        z = SeqVector.from_values([1.0, 0.7, 0.3, 1.2, 0.5])
        ev = NormEvaluator(CalderonProduct(Lp(1), S, 0.5), tol=1e-13)
        oracle = ev._child(S)
        real, stale = oracle.norming_values, {}

        def norming_values(v, *limits):
            value, rows = real(v, *limits)
            return value, stale.setdefault(len(v), rows[:1])

        monkeypatch.setattr(oracle, "norming_values", norming_values)
        with pytest.raises(ConvergenceError) as err:
            ev.norm(z)
        assert "a round improved neither bound after" in str(err.value)
        assert err.value.upper >= err.value.lower > 0

    def test_no_linprog_in_the_solver(self):
        # the package runs without scipy: a fresh interpreter that imports it
        # and its CLI has not loaded scipy
        probe = "import sys, banachlab, banachlab.cli; print('scipy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": SRC})
        assert out.stdout.strip() == "False"
        z = SeqVector.from_values([0.3, -1.2, 0.5, 0.8])
        value, fac = NormEvaluator(space_spr(4 / 3, 4, F), tol=1e-6).factorize(z)
        assert 0.0 <= fac.relative_gap <= 1e-6
        value, fac = calderon_norm(Lp(1), Lp(math.inf), 0.5, z, tol=1e-7)
        assert value == pytest.approx(lp_norm(z, 2.0), rel=1e-6)
        assert 0.0 <= fac.relative_gap <= 1e-7
        # the dual LP of Dual(S), alone and inside Lozanovskii's S x Dual(S) = l2
        assert NormEvaluator(Dual(S)).norm(SeqVector.from_values([1.0, 1.0])) == pytest.approx(
            math.log2(3), rel=1e-9)
        value, fac = calderon_norm(S, Dual(S), 0.5, z, tol=1e-5)
        assert value == pytest.approx(lp_norm(z, 2.0), rel=1e-4)


class TestExactHull:
    """Solves that once stopped as stalls: an inexact hull solve left a gap
    that no new atom could close."""

    @pytest.mark.parametrize("tol", [1e-5, 1e-6, 1e-7])
    def test_s153_vector_certifies_cold(self, tol):
        z = SeqVector.from_values(
            [1.1511297751479348, 0.9548323592404372, 0.7053044916321193, 0.9567752011640045,
             0.6625185919840687, 0.1258638494489136, 0.8763399930294086, 0.9309263718197578])
        value, fac = NormEvaluator(parse_space("cal:l2:s:log2p1:0.333333"), tol).factorize(z)
        assert 0.0 <= fac.relative_gap <= tol

    def test_tiny_mixture_coordinates(self, monkeypatch):
        # the hull optimum puts almost no weight on the second coordinate; a
        # new atom there has a positive slope against a huge curvature
        z = SeqVector.from_values(
            [0.05579619066319369, 0.0001548734535690946, -0.008643493717604452,
             -0.7464331312064092, -0.11504752050043492, -0.062412468720513134,
             -0.013677056314384392, -0.027196238788307618, 0.10699213353622483])
        monkeypatch.setattr(engine, "DEFAULT_BUDGET", 400)
        value, fac = NormEvaluator(CalderonProduct(Lp(3), S, 0.8), tol=1e-6).factorize(z)
        assert 0.0 <= fac.relative_gap <= 1e-6

    @pytest.mark.parametrize("theta", [0.2, 0.5, 0.8])
    def test_closed_linf_side_meets_kkt(self, theta, monkeypatch):
        # with l-infinity solved in closed form the pairing is a power of a
        # linear function of the mixture, so the hull optimum is a vertex
        # with zero coordinates; a closed l3 side leaves optima with tiny
        # coordinates, which the face step reaches; every hull solve must
        # meet the KKT test
        flags = []
        hull = engine._Solve.hull_optimum

        def record(solve):
            gs, optimal = hull(solve)
            flags.append(optimal)
            return gs, optimal

        monkeypatch.setattr(engine._Solve, "hull_optimum", record)
        for k in range(12):
            rng = np.random.default_rng(np.random.SeedSequence([5, k]))
            z = SeqVector.from_values(rng.uniform(-1, 1, int(rng.integers(2, 11))))
            for desc in (CalderonProduct(Lp(math.inf), S, theta),
                         CalderonProduct(S, Lp(math.inf), theta),
                         CalderonProduct(Lp(3), S, theta),
                         CalderonProduct(S, Lp(3), theta)):
                NormEvaluator(desc, tol=1e-8).norm(z)
        assert flags and all(flags)

    def test_face_step_ends_the_creep(self, monkeypatch):
        # the first hull optimum gives the small coordinate a mixture weight
        # of about 2.6e-9; halving toward that face took 56 trial points
        counts, flags = [], []
        trial, hull = engine._Solve.trial, engine._Solve.hull_optimum

        def count(solve, *args):
            counts[-1] += 1
            return trial(solve, *args)

        def record(solve):
            counts.append(0)
            cs, optimal = hull(solve)
            flags.append(optimal)
            return cs, optimal

        monkeypatch.setattr(engine._Solve, "trial", count)
        monkeypatch.setattr(engine._Solve, "hull_optimum", record)
        z = SeqVector.from_values([-0.00144427511977008, 0.20299671524671492])
        NormEvaluator(space_spr(4 / 3, 4, F), tol=1e-6).factorize(z)
        assert flags[0] and counts[0] <= 15

    def test_face_step_keeps_a_small_weight(self, monkeypatch):
        # over the unit atoms, l3^(1/5) S^(4/5) at v has its hull optimum at
        # g ~ v^(q / (1 - eq)) = v^15 (q = 15/13, eq = 12/13): the face step
        # must leave the first atom a weight of 3.3e-11, not drop it
        v = np.array([0.2, 1.0])
        solve = engine._Solve(NormEvaluator(Lp(3)), NormEvaluator(S), 0.8, v, 1e-6)
        calls = []
        trial = engine._Solve.trial
        monkeypatch.setattr(engine._Solve, "trial",
                            lambda solve, *args: calls.append(args) or trial(solve, *args))
        cs, optimal = solve.hull_optimum()
        assert optimal and len(calls) <= 15
        np.testing.assert_allclose(solve.w, v**15 / np.sum(v**15), rtol=1e-9)

    def test_hull_solve_that_cannot_move_stalls(self):
        # halving toward a two-sided face crept to subnormal weights, where
        # the Newton system overflows; the solve must stop with its bracket,
        # neither raising LinAlgError nor spending its budget on equal rounds
        rng = np.random.default_rng(np.random.SeedSequence([9, 9]))
        z = SeqVector.from_values(rng.uniform(-1, 1, int(rng.integers(2, 11))))
        nested = CalderonProduct(CalderonProduct(Lp(2), S, 0.5), S, 0.5)
        with pytest.raises(ConvergenceError, match="improved neither bound after 26 of"):
            NormEvaluator(nested, tol=1e-6).norm(z)

    def test_tol_at_rounding_is_refused(self):
        z = SeqVector.from_values([0.3, 1.2, 0.5])
        with pytest.raises(ConvergenceError, match="at or below the rounding level"):
            NormEvaluator(CalderonProduct(Lp(1), S, 0.5), tol=1e-14).norm(z)

    def test_dropping_an_atom_of_no_weight(self, monkeypatch):
        # an inner product's hull optimum moves all weight off a unit atom
        # that keeps about 1e-17; only dropping it lets the step go on
        z = SeqVector.from_values(
            [0.05579619066319369, 0.0001548734535690946, -0.008643493717604452,
             -0.7464331312064092, -0.11504752050043492, -0.062412468720513134,
             -0.013677056314384392, -0.027196238788307618, 0.10699213353622483])
        nested = CalderonProduct(CalderonProduct(Lp(2), S, 0.5), S, 0.5)
        monkeypatch.setattr(engine, "DEFAULT_BUDGET", 400)
        assert NormEvaluator(nested, tol=1e-6).norm(z) > 0.0

    @staticmethod
    def spread(k):
        r = np.random.default_rng(np.random.SeedSequence([99, k]))
        return r.uniform(10 ** r.uniform(-3, 0), 1, 6) * r.choice([-1, 1], 6)

    @staticmethod
    def uniform(k):
        r = np.random.default_rng(np.random.SeedSequence([7, k]))
        return r.uniform(0.1, 2, int(r.integers(1, 7)))

    @pytest.mark.parametrize(
        "p0, p1, theta, gen, k",
        [(math.inf, 6.0, 0.5065, "spread", k) for k in (2, 19, 30)]
        + [(1.0, math.inf, 0.5, "uniform", k) for k in (112, 179)]
        + [(math.inf, 6.0, 0.5065, "uniform", k) for k in (65, 67, 134, 195)],
    )
    def test_lp_products_at_tol_1e_8(self, p0, p1, theta, gen, k):
        # the l-infinity side's atoms span its whole dual ball, so the hull
        # optimum is the product norm itself
        z = SeqVector.from_values(getattr(self, gen)(k))
        value = NormEvaluator(CalderonProduct(Lp(p0), Lp(p1), theta), tol=1e-8).norm(z)
        assert value == pytest.approx(lp_norm(z, lp_product_oracle(p0, p1, theta)), rel=1e-12)


class TestSprCertification:
    """S_{4/3,4} vectors on which the solver once stopped short or inverted its bracket."""

    @pytest.mark.parametrize(
        "z",
        [
            SeqVector.from_values(
                np.random.default_rng(np.random.SeedSequence([512, 4])).uniform(-1, 1, 12)
            ),
            SeqVector.from_values(
                [-0.07298847597496194, 0.028176939580592864, -0.018395992830107843,
                 0.0492645883326468, -1.606960612048186, 1.1619192889697132]
            ),
        ],
        ids=["seed-512-4", "support-6"],
    )
    def test_certifies(self, z):
        ev = NormEvaluator(space_spr(4 / 3, 4, F), tol=1e-6)
        value, fac = ev.factorize(z)
        assert fac.achieved_value == value
        # a tenth of the tolerance: certification must not hinge on the last bits
        assert 0.0 <= fac.relative_gap <= 1e-7

    def test_bracket_never_inverted(self):
        z = SeqVector.from_values([0.6758160930140471, -0.9098447725352661,
                                   -0.7684231033990523, 1.231844742801593,
                                   -0.9407319259947873])
        value, fac = NormEvaluator(space_spr(4 / 3, 4, F), tol=1e-6).factorize(z)
        assert fac.lower_bound <= value

    def test_split_atoms_save_hull_solves(self, monkeypatch):
        # the DP table of each S-side call also gives the best m-split
        # functionals; as atoms they spare rounds.  Criterion 08's first 20
        # pairs (80 vectors) took 212 hull solves with the norming functional
        # as the only atom per call
        counts = []
        hull = engine._Solve.hull_optimum
        monkeypatch.setattr(engine._Solve, "hull_optimum",
                            lambda solve: counts.append(1) or hull(solve))
        ev = NormEvaluator(space_spr(4 / 3, 4, F), tol=1e-6)
        for k in range(20):
            rng = np.random.default_rng(np.random.SeedSequence([11, k]))
            d = int(rng.integers(2, 6))
            x = SeqVector.from_values(rng.uniform(-1, 1, d))
            y = SeqVector.from_values(rng.uniform(-1, 1, d))
            for z in (x, y, x + y, x - y):
                ev.norm(z)
        assert len(counts) <= 0.7 * 212


class TestWitness:
    def test_factorization_constraints(self):
        rng = np.random.default_rng(3)
        for k in range(10):
            theta = float(rng.uniform(0.15, 0.85))
            z = rand_vec(rng, 0.1, 2.0, dmin=2, dmax=6)
            value, fac = calderon_norm(Lp(1.5), S, theta, z, tol=1e-7)
            for i, zv in z:
                recon = fac.x[i] ** (1 - theta) * fac.y[i] ** theta
                assert recon == pytest.approx(abs(zv), rel=1e-9)
            nx = lp_norm(fac.x, 1.5)
            ny = get_evaluator(S).norm(fac.y)
            # balance and feasibility of the witness
            assert abs(nx - ny) <= 1e-6 * value
            assert max(nx, ny) == pytest.approx(value, rel=1e-7)
            assert fac.lower_bound <= value + 1e-12
            assert fac.relative_gap <= 1e-6

    def test_interpolation_upper_bound(self):
        rng = np.random.default_rng(4)
        evx, evy = get_evaluator(Lp(1)), get_evaluator(S)
        for k in range(20):
            theta = float(rng.uniform(0.1, 0.9))
            z = rand_vec(rng, 0.1, 2.0, dmin=1, dmax=6)
            value, _ = calderon_norm(Lp(1), S, theta, z, tol=1e-7)
            bound = evx.norm(z) ** (1 - theta) * evy.norm(z) ** theta
            assert value <= bound + 1e-6 * bound


class TestOracleAgreement:
    def test_random_lp_products(self):
        worst = 0.0
        for k in range(40):
            rng = np.random.default_rng(np.random.SeedSequence([23, k]))
            choices = [1.0, math.inf, float(rng.uniform(1.0, 8.0)), float(rng.uniform(1.0, 8.0))]
            p0 = choices[int(rng.integers(0, 4))]
            p1 = choices[int(rng.integers(0, 4))]
            theta = float(rng.uniform(0.1, 0.9))
            z = rand_vec(rng, 0.1, 2.0, dmin=2, dmax=8)
            value, _ = calderon_norm(Lp(p0), Lp(p1), theta, z, tol=1e-7)
            ref = lp_norm(z, lp_product_oracle(p0, p1, theta))
            worst = max(worst, abs(value - ref) / ref)
        assert worst <= 1e-6


def test_every_dp_table_is_built_under_two_engine_names(monkeypatch):
    # the engine reaches S's DP through s_norm_weights (norming and split
    # rows) and s_norm_top (a norm alone), the names perfbench's tracer wraps
    from banachlab import schlumprecht

    depth, calls = [0], []  # per DP table: whether one of the names is running
    for name in ("s_norm_weights", "s_norm_top"):
        def entry(*args, real=getattr(engine, name)):
            depth[0] += 1
            try:
                return real(*args)
            finally:
                depth[0] -= 1
        monkeypatch.setattr(engine, name, entry)
    dp = schlumprecht._dp_core
    monkeypatch.setattr(schlumprecht, "_dp_core",
                        lambda vals, f: calls.append(depth[0] > 0) or dp(vals, f))
    z = SeqVector.from_values([0.3, -1.2, 0.5, 0.8, 0.1, 0.9, -0.4, 0.7])
    NormEvaluator(space_spr(4 / 3, 4, F)).factorize(z)
    NormEvaluator(Dual(S)).norm(z)
    assert calls and all(calls)


class TestSpaceSpr:
    def test_p1_r_inf_is_plain_space(self):
        assert space_spr(1, math.inf, F) == S

    def test_p2_r_inf_is_convexification(self):
        assert space_spr(2, math.inf, F) == Convexified(S, 2.0)

    def test_p1_r2_product_parameters(self):
        desc = space_spr(1, 2, F)
        assert desc == CalderonProduct(Lp(1.0), S, 0.5)

    def test_rejects_p_not_below_r(self):
        with pytest.raises(ValidationError):
            space_spr(2, 2, F)


class TestSummingIdentity:
    def test_convexified_closed_form(self):
        expected, computed, diff = spr_summing_identity(2, 2, math.inf, F)
        assert expected == pytest.approx(math.sqrt(2 / math.log2(3)), abs=1e-12)
        assert diff <= 1e-12

    def test_quarter_power(self):
        expected, computed, diff = spr_summing_identity(2, 2, 4, F)
        assert expected == pytest.approx(math.sqrt(2) * math.log2(3) ** -0.25, abs=1e-12)
        assert diff <= 1e-5 * expected

    def test_unit_vector(self):
        expected, computed, diff = spr_summing_identity(1, 1.5, 3, F)
        assert expected == 1.0
        assert computed == pytest.approx(1.0, rel=1e-7)

    def test_rejects_an_empty_summing_vector(self):
        with pytest.raises(ValidationError, match="n must be positive"):
            spr_summing_identity(0, 1.0, 2.0, F)

    @pytest.mark.parametrize("k", [7, 10])
    def test_convexified_product_default_tolerance(self, k):
        # a convexified product takes the product's default tolerance; a
        # tighter one made these vectors exhaust the evaluation budget
        rng = np.random.default_rng(np.random.SeedSequence([77, k]))
        z = SeqVector.from_values(rng.uniform(-1, 1, int(rng.integers(2, 6))))
        spr = space_spr(4 / 3, 4, F)
        value = NormEvaluator(Convexified(spr, 2.0)).norm(z)
        expected = NormEvaluator(spr).norm(pointwise_power(z, 2.0)) ** 0.5
        assert value == pytest.approx(expected, rel=1e-6)

    def test_convexified_product_certifies(self):
        # the product factor must certify this vector within the default budget
        rng = np.random.default_rng(np.random.SeedSequence([77, 4]))
        z = SeqVector.from_values(rng.uniform(-1, 1, int(rng.integers(2, 6))))
        value = NormEvaluator(parse_space("conv:cal:l2:s:log2p1:0.5:2")).norm(z)
        inner = NormEvaluator(CalderonProduct(Lp(2), S, 0.5)).norm(pointwise_power(z, 2.0))
        assert value == pytest.approx(inner**0.5, rel=1e-6)

    def test_convexified_spot_values(self):
        ev = get_evaluator(space_spr(2, math.inf, F))
        assert ev.norm(SeqVector.from_values([1, 1])) == pytest.approx(
            1.1233252009738386, abs=1e-9
        )
        assert ev.norm(SeqVector.basis(1)) == pytest.approx(1.0, abs=1e-12)


class TestMinimality:
    def test_product_norm_below_lp(self):
        # the family norm never exceeds the lp member norm
        rng = np.random.default_rng(9)
        for (p, r) in [(2, math.inf), (1, 2)]:
            ev = get_evaluator(space_spr(p, r, F), tol=1e-7)
            for _ in range(10):
                z = rand_vec(rng, 0.1, 2.0, dmin=1, dmax=6)
                assert ev.norm(z) <= lp_norm(z, p) * (1 + 1e-6)

    def test_subsymmetric_basis(self):
        ev = get_evaluator(space_spr(1, 2, F), tol=1e-7)
        rng = np.random.default_rng(10)
        for _ in range(5):
            vals = rng.uniform(0.2, 1.5, 4)
            plain = SeqVector.from_values(vals)
            gaps = np.cumsum(rng.integers(1, 7, 4))
            spread = SeqVector(zip(gaps, vals))
            assert ev.norm(plain) == pytest.approx(ev.norm(spread), rel=1e-6)
