import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banachlab import Interval, SeqVector, lp_norm, parse_vector, pointwise_power, restrict
from banachlab.vectors import lp_of, pairing
from banachlab.errors import ValidationError


def vec(*values):
    return SeqVector.from_values(values)


class TestLpNorm:
    def test_two_unit_coordinates(self):
        assert lp_norm(vec(1, 1), 2) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_pythagorean(self):
        assert lp_norm(vec(3, 4), 2) == pytest.approx(5.0, abs=1e-12)

    def test_sup_norm(self):
        assert lp_norm(vec(1, -2, 3), math.inf) == 3.0

    def test_empty_vector(self):
        assert lp_norm(SeqVector(), 7.0) == 0.0

    def test_rejects_p_below_one(self):
        with pytest.raises(ValidationError):
            lp_norm(vec(1), 0.5)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 50.0])
    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_unit_scale(self, p, scale):
        # the powers run on values / max, so neither end of the range flushes
        expected = 2 ** (1 / p) * scale
        assert lp_norm(vec(scale, -scale), p) == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_lp_of_closed_forms(self):
        assert lp_of([3.0, 4.0], 2.0) == 5.0
        assert lp_of([0.1] * 10, 1.0) == 1.0  # the exactly rounded sum
        assert lp_of([1.0, 3.0, 2.0], math.inf) == 3.0
        assert lp_of([1.0, 0.0], 7.0) == 1.0

    def test_sum_past_the_float_range(self):
        # fsum raises on a partial sum that overflows; the l1 norm is then inf
        assert lp_norm(vec(1e308, 1e308), 1) == math.inf
        assert lp_of([1e308, 1.0, 1e308], 1.0) == math.inf


class TestPairing:
    def test_partial_sums_past_the_float_range(self):
        # the terms are summed at unit scale, so a finite pairing stays exact
        assert pairing(vec(1e308, 1e308, -1e308), vec(1, 1, 1)) == 1e308
        assert pairing(vec(1e308, 1e308, -1e308, -1e308), vec(1, 1, 1, 0.5)) == 5e307
        assert pairing(vec(1e308, 1e308), vec(1, 1)) == math.inf
        assert pairing(vec(1, 2), vec(3, 0.5)) == 4.0

    def test_products_past_the_float_range(self):
        # each product overflows on its own; the factors are summed at their
        # unit scales, so two of opposite signs do not meet as inf - inf
        assert pairing(vec(1e200, 1e200), vec(1e200, -1e200)) == 0.0
        assert pairing(vec(1e200, 1e200), vec(1e200, 1e200)) == math.inf
        assert pairing(vec(1e200, 1e200), vec(-1e200, -1e200)) == -math.inf
        assert pairing(vec(1e308, 1, 1), vec(2, -1.5e308, -1.5e308)) == pytest.approx(-1e308)

    def test_small_terms_beside_cancelling_overflows(self):
        # the two products past the range cancel exactly; the sum keeps 1 * 3
        assert pairing(vec(1e200, 1e200, 1), vec(1e200, -1e200, 3)) == 3.0
        assert pairing(vec(1e200, 1e200, 1), vec(1e200, -1e200, -3e-300)) == -3e-300


class TestRestrict:
    def test_inner_interval(self):
        assert restrict(vec(1, 2, 3), Interval(2, 3)) == SeqVector({2: 2, 3: 3})

    def test_disjoint_interval(self):
        assert restrict(vec(1, 2, 3), Interval(5, 7)) == SeqVector()

    def test_identity_case(self):
        x = vec(1, 2, 3)
        assert restrict(x, Interval(1, 3)) == x


class TestPointwisePower:
    def test_square_root(self):
        assert pointwise_power(vec(4, 9), 0.5) == vec(2, 3)

    def test_identity_exponent(self):
        assert pointwise_power(vec(2), 1.0) == vec(2)

    def test_fixed_point_of_powers(self):
        assert pointwise_power(vec(1, 1), 3.0) == vec(1, 1)


class TestSeqVector:
    def test_absent_coordinate_reads_zero(self):
        assert vec(1, 2)[17] == 0.0

    def test_zero_values_not_stored(self):
        assert SeqVector({1: 0.0, 2: 1.0}).support == (2,)

    def test_equality_is_entrywise(self):
        assert SeqVector({2: 1.0}) == SeqVector.basis(2)
        assert SeqVector({2: 1.0}) != SeqVector({2: 1.0 + 1e-12})

    def test_equality_with_a_non_vector_is_false(self):
        assert (SeqVector() == 0) is False

    def test_negation_and_repr(self):
        x = SeqVector({1: 0.5, 4: -2.0})
        assert -x == SeqVector({1: -0.5, 4: 2.0})
        assert repr(x) == "SeqVector(1:0.5,4:-2)"

    def test_rejects_nonpositive_index(self):
        with pytest.raises(ValidationError):
            SeqVector({0: 1.0})

    @pytest.mark.parametrize("bad", [0, -3, 1.5])
    def test_public_constructors_reject_bad_indices(self, bad):
        with pytest.raises(ValidationError):
            SeqVector({bad: 1.0})
        with pytest.raises(ValidationError):
            SeqVector([(bad, 1.0)])
        with pytest.raises(ValidationError):
            SeqVector.basis(bad)

    def test_arithmetic_drops_zeros(self):
        x = SeqVector({1: 1.0, 3: -2.0})
        assert (x - x).support == ()
        assert (x + SeqVector({1: -1.0})) == SeqVector({3: -2.0})
        assert (0.0 * x).support == ()
        assert (2.0 * x) == SeqVector({1: 2.0, 3: -4.0})
        assert list(1e-300 * SeqVector({1: 1e-300, 2: 1.0})) == [(2, 1e-300)]  # underflow

    def test_magnitudes_and_signed_in_support_order(self):
        x = SeqVector({7: -2.0, 2: 0.5, 4: 3.0})
        assert x.magnitudes() == (0.5, 3.0, 2.0)
        # positional weights, a numpy row as the norming core returns them; 0 drops out
        assert list(x.signed(np.array([1.0, 0.0, 0.25]))) == [(2, 1.0), (7, -0.25)]
        assert x.signed(x.magnitudes()) == x

    def test_subtraction_adds_the_negative(self):
        x = SeqVector({1: 0.3, 2: -1.7, 5: 2.5})
        for y in (SeqVector({2: 0.1, 5: 2.5, 7: -4.0}), SeqVector({3: 1.1, 9: -0.2})):
            assert list(x - y) == list(x + (-1.0) * y)
        assert list(x - SeqVector({3: 1.1})) == [(1, 0.3), (2, -1.7), (3, -1.1), (5, 2.5)]


class TestIntervals:
    def test_ordering_is_strict_gap(self):
        assert Interval(1, 2) < Interval(3, 5)
        assert not Interval(1, 3) < Interval(3, 5)

    def test_rejects_reversed_endpoints(self):
        with pytest.raises(ValidationError):
            Interval(4, 2)

    def test_rejects_a_start_below_1(self):
        with pytest.raises(ValidationError, match=r"bad interval \[0, 2\]"):
            Interval(0, 2)

    def test_membership(self):
        assert 3 in Interval(1, 5)
        assert 6 not in Interval(1, 5)


class TestParseVector:
    def test_dense(self):
        assert parse_vector("1,0,2.5") == SeqVector({1: 1.0, 3: 2.5})

    def test_sparse(self):
        assert parse_vector("1:1,5:2.5") == SeqVector({1: 1.0, 5: 2.5})

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            parse_vector("")

    def test_non_number_rejected(self):
        with pytest.raises(ValidationError, match="bad vector literal"):
            parse_vector("1,a")

    @pytest.mark.parametrize("text", ["nan,1", "inf,1", "1,-inf", "2:nan", "1:1,3:inf"])
    def test_non_finite_rejected(self, text):
        with pytest.raises(ValidationError, match="finite"):
            parse_vector(text)

    @pytest.mark.parametrize("text, index", [("1:1,1:2", 1), ("2:1,5:0,05:3", 5)])
    def test_repeated_index_rejected(self, text, index):
        with pytest.raises(ValidationError, match=f"index {index} is repeated"):
            parse_vector(text)


coords = st.integers(min_value=1, max_value=30)
values = st.floats(min_value=-10, max_value=10, allow_nan=False).filter(
    lambda v: v == 0.0 or abs(v) > 1e-6
)
vectors = st.dictionaries(coords, values, min_size=1, max_size=8).map(SeqVector)
intervals = st.tuples(coords, coords).map(lambda t: Interval(min(t), max(t)))


@settings(max_examples=80, deadline=None)
@given(vectors, intervals)
def test_restrict_idempotent(x, e):
    assert restrict(restrict(x, e), e) == restrict(x, e)


@settings(max_examples=80, deadline=None)
@given(vectors, intervals, st.floats(min_value=0.25, max_value=3.0))
def test_restrict_commutes_with_power(x, e, alpha):
    a = restrict(pointwise_power(x, alpha), e)
    b = pointwise_power(restrict(x, e), alpha)
    assert a == b


@settings(max_examples=80, deadline=None)
@given(vectors, vectors, st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]))
def test_lp_triangle_inequality(x, y, p):
    assert lp_norm(x + y, p) <= lp_norm(x, p) + lp_norm(y, p) + 1e-10


@settings(max_examples=80, deadline=None)
@given(vectors, vectors, st.floats(min_value=-4, max_value=4, allow_nan=False))
def test_arithmetic_entry_for_entry(x, y, s):
    assert list(x - y) == list(x + (-1.0) * y)
    assert list(x + y) == sorted((i, x[i] + y[i]) for i in set(x.support) | set(y.support)
                                 if x[i] + y[i] != 0.0)
    assert list(s * x) == [(i, s * v) for i, v in x if s * v != 0.0]
