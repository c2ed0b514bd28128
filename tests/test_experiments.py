import math

import pytest

from banachlab import (
    BlockSequence,
    Convexified,
    FunctionalFamily,
    LOG2P1,
    Lp,
    Schlumprecht,
    SeqVector,
    beta_estimate,
    block_sum_growth,
    classX_verify,
    distortion_y_norm,
    equivalence_constant,
    l1_average,
    modulus_convexity_estimate,
    modulus_smoothness_estimate,
    pairing,
    projection_bound,
    s_norm,
    unconditionality_ratio,
    vn_averages,
)
from banachlab.errors import ValidationError
from banachlab.experiments import _lattice_sum

F = LOG2P1
S = Schlumprecht(F)


class TestBlockSequence:
    def test_rejects_overlap(self):
        with pytest.raises(ValidationError):
            BlockSequence((SeqVector.from_values([1, 1]), SeqVector.basis(2)))

    def test_rejects_empty_block(self):
        with pytest.raises(ValidationError):
            BlockSequence((SeqVector(),))

    def test_one_class_under_three_names(self):
        import banachlab
        from banachlab import experiments, vectors
        assert banachlab.BlockSequence is experiments.BlockSequence is vectors.BlockSequence

    def test_sum_is_the_union_of_the_scaled_blocks(self):
        seq = BlockSequence(
            (SeqVector({1: 0.3, 2: -2.0}), SeqVector({4: 0.7}), SeqVector({6: 3.0})))
        added = seq[0] + seq[1] + seq[2]
        assert list(seq.sum()) == list(added)
        assert list(seq.sum([0.1, -1.0, 0.0])) == list(0.1 * seq[0] + (-1.0) * seq[1])
        assert seq.sum(iter([2.0])) == 2.0 * seq[0]  # the blocks that the coefficients reach


class TestL1Average:
    def test_constant_value_in_s(self):
        u = l1_average(8, 0, S)
        assert u[1] == pytest.approx(math.log2(9) / 8, abs=1e-12)
        assert u.support == tuple(range(1, 9))

    def test_single_coordinate(self):
        assert l1_average(1, 5, S) == SeqVector.basis(6)

    def test_l2_normalization(self):
        u = l1_average(4, 0, Lp(2))
        assert u[2] == pytest.approx(0.5, abs=1e-12)

    def test_empty_average_rejected(self):
        with pytest.raises(ValidationError, match="average length"):
            l1_average(0, 0, S)


class TestBlockGrowth:
    def test_two_l1_averages(self):
        seq = BlockSequence((l1_average(8, 0, S), l1_average(8, 8, S)))
        report = block_sum_growth(S, 1.0, seq)
        expected = 2 * math.log2(9) / math.log2(17)
        assert report.rows[1][1] == pytest.approx(expected, abs=1e-9)

    def test_basis_pair(self):
        report = block_sum_growth(S, 1.0, BlockSequence.basis(2))
        assert report.rows[1][1] == pytest.approx(2 / math.log2(3), abs=1e-12)
        assert report.rows[1][2] == 2.0

    def test_l1_blocks_are_additive(self):
        blocks = BlockSequence(
            (SeqVector.basis(1), SeqVector.from_values([0.5, 0.5], start=2))
        )
        report = block_sum_growth(Lp(1), 1.0, blocks)
        assert [row[1] for row in report.rows] == pytest.approx([1.0, 2.0], abs=1e-12)

    def test_requires_normalized_blocks(self):
        with pytest.raises(ValidationError):
            block_sum_growth(S, 1.0, BlockSequence((SeqVector.basis(1, 2.0),)))

    @pytest.mark.parametrize("p", [0.0, 0.5, math.nan])
    def test_exponent_below_one_rejected(self, p):
        with pytest.raises(ValidationError, match="p must be >= 1"):
            block_sum_growth(S, p, BlockSequence.basis(2))


class TestVnAverages:
    def test_basis_in_s(self):
        report = vn_averages(S, 1.0, BlockSequence.basis(16), 3)
        assert report.rows[-1][1] == pytest.approx(1 / math.log2(9), abs=1e-9)
        assert report.rows[-1][2] == pytest.approx(8 * (1 - 1 / math.log2(9)), abs=1e-6)

    def test_l1_has_no_gap(self):
        report = vn_averages(Lp(1), 1.0, BlockSequence.basis(16), 3)
        assert max(abs(row[2]) for row in report.rows) <= 1e-9

    def test_convexified(self):
        report = vn_averages(Convexified(S, 2.0), 2.0, BlockSequence.basis(8), 2)
        assert report.rows[-1][1] == pytest.approx(math.log2(5) ** -0.5, abs=1e-9)

    def test_too_few_blocks(self):
        with pytest.raises(ValidationError):
            vn_averages(S, 1.0, BlockSequence.basis(4), 2)

    @pytest.mark.parametrize("p", [0.0, 0.5, math.nan])
    def test_exponent_below_one_rejected(self, p):
        with pytest.raises(ValidationError, match="p must be >= 1"):
            vn_averages(S, p, BlockSequence.basis(8), 2)


class TestEquivalenceConstant:
    def test_identity_map(self):
        assert equivalence_constant(S, BlockSequence.basis(6), 40, 4, seed=1) == 1.0

    def test_l2_disjoint_blocks_isometric(self):
        blocks = BlockSequence(
            (SeqVector.from_values([0.6, 0.8]), SeqVector.basis(3))
        )
        k = equivalence_constant(Lp(2), blocks, 60, 2, seed=1)
        assert k == pytest.approx(1.0, abs=1e-9)

    def test_l1_averages_certify_distortion(self):
        w = BlockSequence(tuple(l1_average(8, 8 * k, S) for k in range(4)))
        k = equivalence_constant(S, w, 80, 4, seed=1)
        assert 1.0 < k < 4.0

    def test_dim_beyond_the_blocks_rejected(self):
        with pytest.raises(ValidationError, match="exceeds the 2 available blocks"):
            equivalence_constant(S, BlockSequence.basis(2), 5, 3)

    @pytest.mark.parametrize("dim", [0, -1])
    def test_dim_below_one_rejected(self, dim):
        with pytest.raises(ValidationError, match="below 1"):
            equivalence_constant(Lp(2), BlockSequence.basis(3), 3, dim)


class TestProjectionBound:
    def test_basis_projection(self):
        basis = BlockSequence.basis(4)
        norm_lower, m = projection_bound(Lp(2), basis, basis, 40, seed=2)
        assert norm_lower == pytest.approx(1.0, abs=1e-9)
        assert m == pytest.approx(1.0, abs=1e-9)

    def test_restriction_in_s(self):
        basis = BlockSequence.basis(3)
        norm_lower, m = projection_bound(S, basis, basis, 40, seed=2)
        assert norm_lower <= 1.0 + 1e-9
        assert m == pytest.approx(1.0, abs=1e-6)

    def test_l1_average_blocks(self):
        w = BlockSequence(tuple(l1_average(4, 4 * k, S) for k in range(2)))
        g = BlockSequence(tuple(s_norm(b, F)[1].functional() for b in w))
        for wn, gn in zip(w, g):
            assert pairing(wn, gn) == pytest.approx(1.0, abs=1e-9)
        norm_lower, m = projection_bound(S, w, g, 30, seed=2)
        assert 0.0 < norm_lower < 3.0
        assert m <= 1.0 + 1e-9
        # the batched norms keep the bits of the norms one by one
        assert (norm_lower, m) == (float.fromhex("0x1.a8bbabf00cfbap-1"),
                                   float.fromhex("0x1.fffffffffffffp-1"))

    def test_bad_pairing_rejected(self):
        w = BlockSequence.basis(2)
        g = BlockSequence((SeqVector.basis(1, 2.0), SeqVector.basis(2)))
        with pytest.raises(ValidationError):
            projection_bound(S, w, g, 5)

    def test_unpaired_blocks_rejected(self):
        with pytest.raises(ValidationError, match="pair up"):
            projection_bound(S, BlockSequence.basis(2), BlockSequence.basis(3), 5)
        with pytest.raises(ValidationError, match="pair up, at least one pair"):
            projection_bound(S, BlockSequence(()), BlockSequence(()), 3)

    def test_w_outside_the_support_of_g_rejected(self):
        w = BlockSequence((SeqVector.from_values([0.5, 0.5]),))
        with pytest.raises(ValidationError, match="supp"):
            projection_bound(S, w, BlockSequence.basis(1), 5)


class TestBetaEstimate:
    def test_s_bounds(self):
        lower, upper, best = beta_estimate(S, 1.0, F, 4, budget=12, seed=2)
        assert lower == 1.0
        assert upper == pytest.approx(math.log2(5), abs=1e-12)
        assert lower - 1e-6 <= best <= upper + 1e-6

    def test_single_block(self):
        assert beta_estimate(S, 1.0, F, 1) == (1.0, 1.0, 1.0)

    def test_convexified_bounds(self):
        lower, upper, best = beta_estimate(Convexified(S, 2.0), 2.0, F, 2, budget=6, seed=2)
        assert lower == pytest.approx(math.sqrt(2), abs=1e-12)
        assert upper == pytest.approx(math.log2(3) * math.sqrt(2), abs=1e-12)
        assert best >= lower - 1e-6


class TestDistortion:
    def test_pairing_dominates(self):
        fam = FunctionalFamily((SeqVector.from_values([1, 1]),), 2)
        assert distortion_y_norm(fam, SeqVector.from_values([1, 1])) == 4.0

    def test_l2_fallback(self):
        fam = FunctionalFamily((SeqVector.basis(9),), 3)
        x = SeqVector.from_values([3, 4])
        assert distortion_y_norm(fam, x) == 5.0

    def test_unit_vector(self):
        fam = FunctionalFamily((SeqVector.basis(1),), 1)
        assert distortion_y_norm(fam, SeqVector.basis(1)) == 1.0


class TestUnconditionalityRatio:
    def test_flat_functional_instance(self):
        fam = FunctionalFamily((SeqVector.from_values([1, 1, 1, 1]),), 4)
        plus, minus, ratio = unconditionality_ratio(fam, BlockSequence.basis(4))
        assert (plus, minus, ratio) == (16.0, 2.0, 8.0)
        assert ratio == 4.0**1.5  # r^(3/2)

    def test_orthogonal_family_gives_ratio_one(self):
        fam = FunctionalFamily((SeqVector.basis(9),), 5)
        plus, minus, ratio = unconditionality_ratio(fam, BlockSequence.basis(4))
        assert ratio == pytest.approx(1.0, abs=1e-12)

    def test_single_spike_functional(self):
        fam = FunctionalFamily((SeqVector.basis(1),), 3)
        plus, minus, ratio = unconditionality_ratio(fam, BlockSequence.basis(2))
        assert (plus, minus, ratio) == (3.0, 3.0, 1.0)

    def test_scale_invariance_in_z(self):
        fam = FunctionalFamily((SeqVector.from_values([1, 1, 1, 1]),), 4)
        z = BlockSequence.basis(4)
        z_scaled = BlockSequence(tuple(2.5 * b for b in z))
        p1, m1, r1 = unconditionality_ratio(fam, z)
        p2, m2, r2 = unconditionality_ratio(fam, z_scaled)
        assert p2 == pytest.approx(2.5 * p1)
        assert m2 == pytest.approx(2.5 * m1)
        assert r2 == pytest.approx(r1)

    def test_one_block_rejected(self):
        fam = FunctionalFamily((SeqVector.basis(1),), 3)
        with pytest.raises(ValidationError, match="at least two blocks"):
            unconditionality_ratio(fam, BlockSequence.basis(1))


class TestModuli:
    def test_l2_convexity_closed_form(self):
        est = modulus_convexity_estimate(Lp(2), 1.0, 2000, seed=0)
        assert est == pytest.approx(1 - math.sqrt(0.75), abs=0.01)

    def test_l2_smoothness_closed_form(self):
        est = modulus_smoothness_estimate(Lp(2), 1.0, 2000, seed=0)
        assert est == pytest.approx(math.sqrt(2) - 1, abs=0.01)

    def test_l2_convexity_vanishes_at_zero(self):
        assert modulus_convexity_estimate(Lp(2), 0.05, 500, seed=0) <= 5e-3

    def test_smoothness_vanishes_at_zero(self):
        assert modulus_smoothness_estimate(Lp(2), 0.01, 500, seed=0) <= 5e-3

    def test_l1_not_uniformly_convex(self):
        assert modulus_convexity_estimate(Lp(1), 1.0, 500, seed=0) <= 1e-9

    def test_l1_not_uniformly_smooth(self):
        assert modulus_smoothness_estimate(Lp(1), 1.0, 500, seed=0) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_eps_domain(self):
        with pytest.raises(ValidationError):
            modulus_convexity_estimate(Lp(2), 2.5, 10)

    def test_tau_domain(self):
        with pytest.raises(ValidationError, match="tau"):
            modulus_smoothness_estimate(Lp(2), 0.0, 10)

    @pytest.mark.parametrize("estimate", [modulus_convexity_estimate, modulus_smoothness_estimate])
    def test_dim_domain(self, estimate):
        # an empty draw has no unit vector
        with pytest.raises(ValidationError, match="dim must be >= 1, got 0"):
            estimate(Lp(2), 1.0, 3, dim=0)

    def test_antipodal_pair_alone(self):
        # the one seed pair (e_1, -e_1) has midpoint 0: the bisection's
        # chords through 0 have no unit vector, and the pair keeps 1
        assert modulus_convexity_estimate(Lp(2), 1.0, 0, dim=1) == 1.0


class TestClassXVerify:
    def test_schlumprecht_passes(self):
        report = classX_verify(S, 1.0, math.inf, F, 120, seed=1)
        assert all(row[2] for row in report.rows)
        assert max(row[1] for row in report.rows) <= 1e-8

    @pytest.mark.parametrize("samples, convexity", [(120, "0x0.0p+0"), (500, "0x1.0p-50")])
    def test_pinned_slacks(self, samples, convexity):
        # the samples are normed in one batch and keep the bits of the norms
        # one by one
        report = classX_verify(S, 1.0, math.inf, F, samples, seed=1)
        assert report.rows == [["squeeze", 0.0, True],
                               ["convexity", float.fromhex(convexity), True],
                               ["lower_estimate", 0.0, True]]

    def test_lp_member_passes(self):
        report = classX_verify(Lp(1.5), 1.5, 3.0, F, 120, seed=1)
        assert all(row[2] for row in report.rows)

    @pytest.mark.parametrize("p, r", [(0.0, 2.0), (0.5, 2.0), (3.0, 2.0), (2.0, 2.0),
                                      (math.inf, math.inf), (math.nan, 2.0), (1.0, math.nan)])
    def test_exponents_outside_the_class_rejected(self, p, r):
        # S_{p,r} needs 1 <= p < r
        with pytest.raises(ValidationError, match="p must be >= 1 and below r"):
            classX_verify(S, p, r, F, 3)

    @pytest.mark.parametrize("s", [1.0, 2.0, 3.0, math.inf])
    def test_lattice_sum_at_unit_scale(self, s):
        # powers of a lone coordinate must neither flush to 0 nor overflow
        tiny = SeqVector.from_values([1e-200, 1.0])
        assert _lattice_sum([tiny], s) == tiny
        assert _lattice_sum([SeqVector.basis(1, 1e200)], s) == SeqVector.basis(1, 1e200)

    def test_sup_norm_flagged(self):
        report = classX_verify(Lp(math.inf), 1.0, math.inf, F, 40, seed=1)
        by_name = {row[0]: row for row in report.rows}
        assert by_name["squeeze"][2]
        assert by_name["convexity"][2]
        assert not by_name["lower_estimate"][2]
        assert by_name["lower_estimate"][1] >= 2 / math.log2(3) - 1 - 1e-9
