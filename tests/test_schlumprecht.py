import gc
import hashlib
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banachlab import (
    Interval,
    LOG2P1,
    ONE,
    NormEvaluator,
    Schlumprecht,
    SeqVector,
    best_partition,
    fixed_point_check,
    lp_norm,
    parse_space,
    reference_norm,
    restrict,
    s_norm,
    s_norm_value,
    summing_norm_table,
)
from banachlab import schlumprecht
from banachlab.errors import SizeCapError, ValidationError
from banachlab.gauges import IDENTITY, SQRT
from banachlab.schlumprecht import (
    DEFAULT_DP_CAP,
    DP_NUMPY_MIN,
    _blocks_of,
    _cell,
    _dp_core,
    _dp_loop,
    _dp_numpy,
    _tree,
    iterate_defining_map,
    s_norm_weights,
)

F = LOG2P1


def vec(*values):
    return SeqVector.from_values(values)


def rand_vector(rng, max_dim=8):
    d = int(rng.integers(1, max_dim + 1))
    vals = rng.uniform(0.1, 2.0, d) * rng.choice([-1.0, 1.0], d)
    return SeqVector.from_values(vals)


class TestSummingIdentity:
    @pytest.mark.parametrize("n,expected", [(2, 2 / math.log2(3)), (7, 7 / 3), (1, 1.0)])
    def test_hand_values(self, n, expected):
        value, _ = s_norm(SeqVector.from_values([1.0] * n), F)
        assert value == pytest.approx(expected, abs=1e-12)

    def test_scaled_singleton(self):
        assert s_norm_value(SeqVector.basis(1, 2.0), F) == 2.0

    def test_table(self):
        report = summing_norm_table(8, F)
        assert report.rows[2][1] == pytest.approx(1.5, abs=1e-12)
        assert report.rows[7][1] == pytest.approx(8 / math.log2(9), abs=1e-12)
        assert max(row[3] for row in report.rows) <= 1e-12

    def test_table_past_the_cap_rejected(self):
        with pytest.raises(SizeCapError):
            summing_norm_table(DEFAULT_DP_CAP + 1, F)


class TestBruteForceAgreement:
    def test_mixed_vector(self):
        x = vec(1, 1, 1, 0.5)
        assert s_norm_value(x, F) == pytest.approx(1.5073679532568758, abs=1e-12)
        assert s_norm_value(x, F) == pytest.approx(reference_norm(x, F), abs=1e-12)

    def test_random_suite(self):
        for k in range(40):
            rng = np.random.default_rng(np.random.SeedSequence([41, k]))
            x = rand_vector(rng, max_dim=8)
            dp = s_norm_value(x, F)
            bf = reference_norm(x, F)
            assert abs(dp - bf) <= 1e-12 * max(1.0, bf)

    def test_degenerate_gauge_is_l1(self):
        for k in range(20):
            rng = np.random.default_rng(np.random.SeedSequence([42, k]))
            x = rand_vector(rng)
            assert s_norm_value(x, ONE) == pytest.approx(lp_norm(x, 1), rel=1e-14)


class TestCertificates:
    def test_certificate_attains_value(self):
        for k in range(25):
            rng = np.random.default_rng(np.random.SeedSequence([43, k]))
            x = rand_vector(rng)
            value, cert = s_norm(x, F)
            assert cert.evaluate(x) == pytest.approx(value, abs=1e-9)

    def test_certificate_dual_feasible(self):
        # the certificate of x never exceeds the norm of any other y
        rng = np.random.default_rng(7)
        x = vec(1, 1, 1, 0.5)
        _, cert = s_norm(x, F)
        for _ in range(50):
            y = rand_vector(rng, max_dim=4)
            assert cert.evaluate(y) <= s_norm_value(y, F) + 1e-9

    def test_weights_fast_path_matches(self):
        for k in range(25):
            rng = np.random.default_rng(np.random.SeedSequence([44, k]))
            vals = list(rng.uniform(0.05, 2.0, int(rng.integers(1, 9))))
            value, [weights] = s_norm_weights(vals, F)
            x = SeqVector.from_values(vals)
            ref, cert = s_norm(x, F)
            assert value == ref
            func = cert.functional()
            assert weights == [func[i] for i in x.support]
        # signed, with gaps: |functional| is the weights position by position
        x = SeqVector({1: 1.8, 4: -1.6, 6: -0.5, 8: 0.7, 10: -1.8, 12: -0.1, 14: -1.7, 16: 1.6})
        value, [weights] = s_norm_weights([abs(v) for _, v in x], F)
        ref, cert = s_norm(x, F)
        func = cert.functional()
        assert value == ref
        assert [abs(func[i]) for i in x.support] == weights
        assert all(func[i] * v >= 0.0 for i, v in x)

    def test_render_mentions_split(self):
        _, cert = s_norm(vec(1, 1, 1), F)
        text = cert.render()
        assert "split n=3" in text and "leaf" in text


def test_no_reference_cycles():
    # the oracle and the renderer leave nothing for the cyclic collector
    x = vec(1, 0.5, 0.3, 0.9, 0.2, 0.7, 0.4, 0.6)
    _, cert = s_norm(x, F)
    reference_norm(x, F)  # fills the run-sequence cache
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for call in (lambda: reference_norm(x, F), cert.render):
            call()
            assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


class TestTies:
    def test_leaf_preferred_on_singleton(self):
        _, cert = s_norm(SeqVector.basis(3, 5.0), F)
        assert cert.render().startswith("leaf [3]")

    def test_determinism(self):
        x = vec(0.3, 1.2, 0.3, 0.9, 0.5)
        r1 = s_norm(x, F)[1].render()
        r2 = s_norm(x, F)[1].render()
        assert r1 == r2


class TestDpPaths:
    """The numpy wavefront and the pure-Python loop fill the same table."""

    @staticmethod
    def inputs(n):
        rng = np.random.default_rng(np.random.SeedSequence([46, n]))
        yield "uniform", list(rng.uniform(0.05, 2.0, n))
        yield "constant", [1.0] * n  # every partition ties
        yield "dyadic", list(rng.integers(1, 5, n) / 4.0)  # exact sums tie

    @pytest.mark.parametrize("f", [LOG2P1, ONE], ids=lambda f: f.name)
    def test_tables_equal_entry_by_entry(self, f):
        # one row, a batch of one and a batch of the three kinds: row by row
        # the cells the loop defines hold the loop's bits
        for n in (*range(1, 41), DEFAULT_DP_CAP):
            m, a, b = np.ogrid[: n + 1, :n, :n]
            cells = _cell(n, m, a, b)[(m >= 1) & (m <= b - a + 1)]  # the cells the table defines
            kinds, rows = zip(*self.inputs(n))
            batch = np.asarray(_dp_numpy(rows, f)).reshape(-1, len(rows))  # a column per row
            for kind, vals, column in zip(kinds, rows, batch.T):
                loop, wave = np.asarray(_dp_loop(vals, f)), np.asarray(_dp_numpy(vals, f))
                assert (loop[cells] == wave[cells]).all(), (f.name, kind, n)
                assert (loop[cells] == column[cells]).all(), (f.name, kind, n)
                assert np.asarray(_dp_numpy([vals], f)).tobytes() == wave.tobytes()

    @pytest.mark.parametrize("f", [LOG2P1, ONE, IDENTITY], ids=lambda f: f.name)
    def test_trees_equal(self, f):
        for n in range(1, 41):
            for kind, vals in self.inputs(n):
                loop, wave = _dp_loop(vals, f), _dp_numpy(vals, f)
                assert _tree(loop, vals, f) == _tree(wave, vals, f), (f.name, kind, n)
                for m in range(2, n + 1):
                    assert _blocks_of(loop, n, 0, n - 1, m) == _blocks_of(wave, n, 0, n - 1, m)

    @pytest.mark.parametrize("n", [2, DP_NUMPY_MIN + 1])
    @pytest.mark.parametrize("numpy_min", [1, 100], ids=["numpy", "loop"])
    def test_values_near_overflow(self, monkeypatch, n, numpy_min):
        # every reader runs at unit scale, so 1e308s read as their 2**-1000
        # multiples times 2**1000 (inf where that overflows) on both paths,
        # with no overflow warning
        monkeypatch.setattr(schlumprecht, "DP_NUMPY_MIN", numpy_min)

        def readers(x):
            vals = [abs(v) for v in x.values_in_order()]
            value, rows = s_norm_weights(vals, F, 0.0)
            return (s_norm_value(x, F), s_norm(x, F)[0], value,
                    best_partition(x, F, Interval(1, n), 2)[0]), rows

        big = vec(*[1e308] * n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, rows = readers(big)
            want, want_rows = readers(big * 2.0**-1000)
        assert got == tuple(v * 2.0**1000 for v in want) and rows == want_rows
        exact = 2 / math.log2(3) * 1e308 if n == 2 else math.inf
        assert got[0] == pytest.approx(exact, rel=1e-15)

    def test_dispatch_on_support_size(self):
        assert DP_NUMPY_MIN == 11
        assert type(_dp_core([1.0] * (DP_NUMPY_MIN - 1), F)) is list
        assert type(_dp_core([1.0] * DP_NUMPY_MIN, F)) is memoryview

    def test_readers_return_python_numbers(self):
        rng = np.random.default_rng(47)
        vals = rng.uniform(0.05, 2.0, 20)
        assert len(vals) >= DP_NUMPY_MIN
        x = SeqVector({2 * i + 1: v for i, v in enumerate(vals)})
        value, cert = s_norm(x, F)
        assert type(value) is float
        assert all(type(w) is float for _, w in cert.functional())
        assert all(type(c) is int for node in cert.nodes for c in node)
        value, [weights] = s_norm_weights(list(vals), F)
        assert type(value) is float and all(type(w) is float for w in weights)
        total, blocks = best_partition(x, F, Interval(1, 45), 5)
        assert type(total) is float
        assert all(type(e.lo) is int and type(e.hi) is int for e in blocks)
        for row in summing_norm_table(20, F).rows:
            assert [type(c) for c in row] == [int, float, float, float]


GOLDEN_GAUGES = (LOG2P1, ONE, SQRT, IDENTITY)  # f(n) = n ties leaves with splits


def golden_vectors():
    """(|values|, vector) pairs seeded per N, with ties and gaps, N up to 64."""
    for n in (*range(1, 6), *range(7, 14), 15, 16, 17, 20, 24, 31, 32, 40, 48, 57, 64):
        rng = np.random.default_rng(np.random.SeedSequence([52, n]))
        signs = rng.choice([-1.0, 1.0], n)
        for vals in (
            rng.uniform(0.05, 2.0, n),
            rng.integers(1, 5, n) / 4.0,  # dyadic: exact sums tie
            np.ones(n),  # every partition ties
        ):
            coords = np.cumsum(rng.integers(1, 3, n)).tolist()
            yield vals, SeqVector(zip(coords, (vals * signs).tolist()))


def golden_lines():
    """Reprs of every DP reader on the golden vectors."""
    for f in GOLDEN_GAUGES:
        for vals, x in golden_vectors():
            value, cert = s_norm(x, f)
            yield repr((value, cert.render(), list(cert.functional())))
            value, rows = s_norm_weights(vals.tolist(), f)
            yield repr((value, rows[0]))
            e = Interval(1, x.max_index() + 2)
            n = len(vals)
            for k in sorted({2, 3, max(n, 2), n + 2}):
                yield repr(best_partition(x, f, e, k))
        for n_max in (12, 64):
            yield repr(summing_norm_table(n_max, f).rows)


def test_golden_digest():
    # every value, certificate, weight, partition and summing row, bit for
    # bit as the DP with back-pointer tables computed them
    text = "\n".join(golden_lines())
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "0af8ee527b7fa5adb537e7ed545f5ae82d9831033e634874b0f07419c9b07cc6"
    )


def test_split_functionals():
    # one DP table: the norming weights, then the best m-split functional
    # for each block count m = 2..N but the extremal root's
    for f in GOLDEN_GAUGES:
        ys = {}  # 100 nonnegative vectors and their norms per support size
        for vals, x in golden_vectors():
            n = len(vals)
            if n not in ys:
                rng = np.random.default_rng(np.random.SeedSequence([53, n]))
                y = rng.uniform(0.0, 2.0, (100, n)) * (rng.random((100, n)) < 0.8)
                ys[n] = y, np.array([s_norm_value(SeqVector.from_values(r), f) for r in y])
            value, rows = s_norm_weights(vals.tolist(), f, -math.inf)
            assert s_norm_weights(vals.tolist(), f) == (value, rows[:1])  # no `above`: row 0
            root = s_norm(x, f)[1].nodes[0][2]
            ms = [m for m in range(2, n + 1) if m != root]
            assert len(rows) == 1 + len(ms)
            best = _dp_core(vals.tolist(), f)
            for m, row in zip(ms, rows[1:]):
                split = best[_cell(n, m, 0, n - 1)] / f(float(m))  # the best m-way split's value
                assert math.fsum(row * vals) == pytest.approx(split, rel=1e-15, abs=0)
            y, norms = ys[n]
            assert (np.array(rows) @ y.T <= norms * (1 + 1e-14)).all()  # plus rounding


def test_split_threshold():
    # `above` keeps exactly the split rows whose split value, the top cell
    # best[m] times 1/f(m), exceeds it: the same bits in m order; row 0
    # always stays
    for f in GOLDEN_GAUGES:
        for vals, _ in golden_vectors():
            v, n = vals.tolist(), len(vals)
            value, rows = s_norm_weights(v, f, -math.inf)
            best = _dp_core(v, f)
            root = _tree(best, v, f)[0][0][2]
            split = [best[_cell(n, m, 0, n - 1)] * (1.0 / f(float(m)))
                     for m in range(2, n + 1) if m != root]
            least, median = (min(split), sorted(split)[len(split) // 2]) if split else (0.0, 0.0)
            for above in (least, median, value):
                got = s_norm_weights(v, f, above)
                assert got == (value, rows[:1] + [r for r, s in zip(rows[1:], split) if s > above])


class TestValueOnlyNorm:
    def test_bit_identical_to_the_certificate(self):
        for f in GOLDEN_GAUGES:
            ev = NormEvaluator(Schlumprecht(f))
            for _, x in golden_vectors():
                assert ev.norm(x) == s_norm(x, f)[0] == s_norm_value(x, f)

    def test_walks_no_tree(self, monkeypatch):
        xs = [x for _, x in golden_vectors()][::7]
        assert {len(x) < DP_NUMPY_MIN for x in xs} == {True, False}
        expected = [s_norm(x, F)[0] for x in xs]

        def no_tree(*args):
            raise AssertionError("a norm alone walked the extremal tree")

        monkeypatch.setattr(schlumprecht, "_tree", no_tree)
        ev = NormEvaluator(Schlumprecht(F))
        assert [ev.norm(x) for x in xs] == [s_norm_value(x, F) for x in xs] == expected

    def test_beyond_the_cap(self, monkeypatch):
        ev = NormEvaluator(Schlumprecht(F))
        flat = SeqVector.from_values([-0.5] * 80)
        assert ev.norm(flat) == s_norm_value(flat, F) == s_norm(flat, F)[0] == 0.5 * 80 / F(80.0)
        # equal |values| with mixed signs: the analytic N-way singleton split
        signed = SeqVector.from_values([0.5 if k % 3 == 0 else -0.5 for k in range(80)])
        value, cert = s_norm(signed, F)
        assert cert.analytic
        assert ev.norming(signed).functional == cert.functional()
        for above in (math.inf, -math.inf):  # beyond the cap no split row
            assert s_norm_weights([0.5] * 80, F, above) == (value, [[1 / F(80.0)] * 80])
        assert hashlib.sha256(cert.render().encode()).hexdigest() == (
            "f228f2bd9f28fd58a66dd62f2bad1c6407b57fceb46faa370baacd1fabcf2fd6"
        )
        bumpy = SeqVector.from_values([1.0] * 64 + [2.0])
        for norm in (
            ev.norm,
            ev.norming,
            lambda x: s_norm_value(x, F),
            lambda x: s_norm(x, F),
            lambda x: s_norm_weights(x.values_in_order(), F),
            lambda x: s_norm_weights(x.values_in_order(), F, -math.inf),
        ):
            with pytest.raises(SizeCapError):
                norm(bumpy)
        # the engine reads the cap of the schlumprecht module at call time
        monkeypatch.setattr(schlumprecht, "DEFAULT_DP_CAP", 8)
        ev = NormEvaluator(Schlumprecht(F))
        flat = SeqVector.from_values([0.5, -0.5] * 6)
        assert ev.norming(flat).functional == s_norm(flat, F)[1].functional()
        for norm in (ev.norm, ev.norming):
            with pytest.raises(SizeCapError):
                norm(SeqVector.from_values([1.0] * 8 + [0.5]))

    def test_beyond_the_cap_nearly_constant_values_are_not_constant(self):
        # values 1e-12 apart relative are no summing vector: no analytic value
        nearly = SeqVector.from_values([1.0, 1.0 + 1e-12] * 40)
        for norm in (NormEvaluator(Schlumprecht(F)).norm, lambda x: s_norm_value(x, F),
                     lambda x: s_norm(x, F)):
            with pytest.raises(SizeCapError):
                norm(nearly)


class TestBatchedNorms:
    """`NormEvaluator.norms` is `[norm(x) for x in xs]`, the same floats."""

    @staticmethod
    def both(desc, xs):
        """norms(xs) and the norm of each x, each on a fresh evaluator, with
        the norm caches they leave."""
        batched, single = NormEvaluator(desc), NormEvaluator(desc)
        return (batched.norms(xs), [single.norm(x) for x in xs],
                list(batched._norm_cache.items()), list(single._norm_cache.items()))

    def test_equal_to_the_norms_one_by_one(self, monkeypatch):
        rng = np.random.default_rng(np.random.SeedSequence([48]))
        mixed = [rand_vector(rng, max_dim=20) for _ in range(60)]
        gapped = [SeqVector({3 * i + 2: v for i, v in enumerate(x.values_in_order())})
                  for x in mixed[:10]]  # the positional twins of the first ten
        dozen = [SeqVector.from_values(rng.uniform(0.1, 2.0, 12)) for _ in range(300)]
        flat = [SeqVector.from_values([c] * 80) for c in (0.5, -2.0, 0.5)]
        tables = []
        dp_numpy = schlumprecht._dp_numpy

        def counted(rows, f):
            k, n = np.atleast_2d(np.asarray(rows)).shape
            tables.append((n, k))
            return dp_numpy(rows, f)

        monkeypatch.setattr(schlumprecht, "_dp_numpy", counted)
        for name, xs in [
            ("duplicates", mixed[:5] * 3 + gapped),
            ("empty", [SeqVector(), mixed[0], SeqVector(), mixed[1]]),
            ("mixed sizes", mixed),
            ("beyond one chunk", dozen),
            ("constant beyond the cap", flat + mixed[:3]),
            ("none", []),
        ]:
            for f in (F, SQRT):
                got, want, cache, want_cache = self.both(Schlumprecht(f), xs)
                assert got == want and cache == want_cache, (name, f.name)
        cap_cells = (DEFAULT_DP_CAP + 1) * DEFAULT_DP_CAP**2
        assert max((n + 1) * n * n * k for n, k in tables) <= cap_cells
        assert (12, 142) in tables and (12, 300 - 2 * 142) in tables  # 300 rows in three chunks

    def test_beyond_the_cap_raises_like_norm(self):
        ev = NormEvaluator(Schlumprecht(F))
        bumpy = SeqVector.from_values([1.0] * 64 + [2.0])
        with pytest.raises(SizeCapError) as single:
            ev.norm(bumpy)
        with pytest.raises(SizeCapError) as batched:
            ev.norms([vec(1.0, 2.0), bumpy, vec(2.0, 1.0), bumpy])
        assert str(batched.value) == str(single.value)

    @pytest.mark.parametrize("space", ["l1.5", "dual:s:log2p1", "conv:s:log2p1:2",
                                       "cal:l2:s:log2p1:0.5"])
    def test_other_spaces_norm_one_by_one(self, space):
        rng = np.random.default_rng(np.random.SeedSequence([49]))
        xs = [rand_vector(rng, max_dim=5) for _ in range(6)]
        got, want, _, _ = self.both(parse_space(space), xs + xs[:2] + [SeqVector()])
        assert got == want


class TestBestPartition:
    def test_three_singletons(self):
        value, blocks = best_partition(vec(1, 1, 1), F, Interval(1, 3), 3)
        assert value == pytest.approx(1.5, abs=1e-12)
        assert blocks == [Interval(1, 1), Interval(2, 2), Interval(3, 3)]

    def test_two_blocks(self):
        value, _ = best_partition(vec(1, 1, 1), F, Interval(1, 3), 2)
        expected = (1 + 2 / math.log2(3)) / math.log2(3)
        assert value == pytest.approx(expected, abs=1e-12)

    def test_spike_with_trailing_zeros(self):
        value, blocks = best_partition(SeqVector.basis(1, 5.0), F, Interval(1, 3), 2)
        assert value == pytest.approx(5 / math.log2(3), abs=1e-12)
        assert blocks[0] == Interval(1, 1)

    def test_brute_force_partitions(self):
        # every covering n-partition of e, enumerated by its block ends
        for lo in (1, 4):
            for length in range(2, 7):
                e = Interval(lo, lo + length - 1)
                around = range(max(1, lo - 2), e.hi + 3)
                for k in range(4):
                    rng = np.random.default_rng(np.random.SeedSequence([47, lo, length, k]))
                    size = int(rng.integers(1, 5))
                    coords = rng.choice(around, size=min(size, len(around)), replace=False)
                    vals = rng.uniform(0.1, 2.0, len(coords)) * rng.choice([-1.0, 1.0], len(coords))
                    x = SeqVector(zip(coords.tolist(), vals.tolist()))
                    for n in range(2, length + 1):
                        value, blocks = best_partition(x, F, e, n)
                        assert len(blocks) == n
                        assert blocks[0].lo == e.lo and blocks[-1].hi == e.hi
                        assert all(p.hi + 1 == q.lo for p, q in zip(blocks, blocks[1:]))
                        total = sum(s_norm_value(restrict(x, b), F) for b in blocks)
                        assert total / F(float(n)) == pytest.approx(value, abs=1e-12)
                        top = max(
                            sum(
                                s_norm_value(restrict(x, Interval(s, t)), F)
                                for s, t in zip((lo,) + tuple(c + 1 for c in cuts), cuts + (e.hi,))
                            )
                            for cuts in itertools.combinations(range(lo, e.hi), n - 1)
                        )
                        assert value == pytest.approx(top / F(float(n)), abs=1e-12)

    def test_too_many_blocks_rejected(self):
        with pytest.raises(ValidationError):
            best_partition(vec(1, 1), F, Interval(1, 2), 3)

    def test_one_block_rejected(self):
        with pytest.raises(ValidationError, match="n >= 2"):
            best_partition(vec(1, 1), F, Interval(1, 2), 1)

    def test_support_past_the_cap_rejected(self):
        n = DEFAULT_DP_CAP + 1
        with pytest.raises(SizeCapError):
            best_partition(SeqVector.from_values([1.0] * n), F, Interval(1, n), 2)


class TestFixedPoint:
    def test_engine_self_consistent(self):
        x = vec(1, 1, 1, 0.5)
        residual = fixed_point_check(x, F, lambda y: s_norm_value(y, F) if y else 0.0)
        assert residual <= 1e-12

    def test_sup_norm_seed_improves(self):
        residual = fixed_point_check(vec(1, 1), F, lambda y: lp_norm(y, math.inf))
        assert residual == pytest.approx(2 / math.log2(3) - 1, abs=1e-12)

    def test_singleton_has_no_split(self):
        residual = fixed_point_check(
            SeqVector.basis(1), F, lambda y: s_norm_value(y, F) if y else 0.0
        )
        assert residual == 0.0

    def test_validation_paths_near_overflow(self):
        # the reference, the iteration and the fixed-point step run at the
        # DP's unit scale, so 1e308s give the finite norm and residual 0
        x = vec(1e308, 1e308)
        value = s_norm_value(x, F)
        assert reference_norm(x, F) == pytest.approx(value, rel=1e-15)
        assert iterate_defining_map(x, F) == [1e308, value]
        assert fixed_point_check(x, F, lambda y: s_norm_value(y, F)) == 0.0

    def test_empty_vector(self):
        assert reference_norm(SeqVector(), F) == 0.0
        with pytest.raises(ValidationError):
            fixed_point_check(SeqVector(), F, lambda y: 0.0)
        with pytest.raises(ValidationError):
            iterate_defining_map(SeqVector(), F)

    def test_reference_past_its_cap_rejected(self):
        with pytest.raises(SizeCapError):
            reference_norm(SeqVector.from_values([1.0] * (schlumprecht.REFERENCE_CAP + 1)), F)


class TestMonotoneImprovement:
    def test_iteration_from_sup_seed(self):
        for k in range(10):
            rng = np.random.default_rng(np.random.SeedSequence([45, k]))
            x = rand_vector(rng, max_dim=7)
            history = iterate_defining_map(x, F)
            assert all(b >= a - 1e-15 for a, b in zip(history, history[1:]))
            assert len(history) <= len(x) + 1
            assert history[-1] == pytest.approx(s_norm_value(x, F), abs=1e-12)


class TestAnalyticFastPath:
    def test_matches_dp_on_constant_vectors(self, monkeypatch):
        for n in (8, 16, 32):
            x = SeqVector.from_values([0.7] * n)
            monkeypatch.setattr(schlumprecht, "DEFAULT_DP_CAP", 64)
            dp = s_norm(x, F)[0]
            monkeypatch.setattr(schlumprecht, "DEFAULT_DP_CAP", 4)
            fast_value, fast_cert = s_norm(x, F)
            assert fast_cert.analytic
            assert abs(dp - fast_value) <= 1e-9

    def test_nonconstant_overflow_rejected(self, monkeypatch):
        monkeypatch.setattr(schlumprecht, "DEFAULT_DP_CAP", 8)
        x = SeqVector.from_values([1.0] * 9 + [0.5])
        with pytest.raises(SizeCapError):
            s_norm(x, F)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            s_norm(SeqVector(), F)


class TestLatticeProperties:
    def test_squeeze_between_sup_and_l1(self):
        for k in range(60):
            rng = np.random.default_rng(np.random.SeedSequence([46, k]))
            x = rand_vector(rng)
            v = s_norm_value(x, F)
            assert lp_norm(x, math.inf) <= v + 1e-12
            assert v <= lp_norm(x, 1) + 1e-12

    def test_spreading_invariance(self):
        # the norm depends only on the ordered value sequence
        rng = np.random.default_rng(11)
        for _ in range(20):
            vals = rng.uniform(0.1, 2.0, 5)
            base = SeqVector.from_values(vals)
            gaps = np.cumsum(rng.integers(1, 9, 5))
            spread = SeqVector(zip(gaps, vals))
            assert s_norm_value(base, F) == pytest.approx(
                s_norm_value(spread, F), abs=1e-12
            )


values_strategy = st.floats(min_value=0.05, max_value=5.0)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(values_strategy, min_size=1, max_size=6),
    st.lists(values_strategy, min_size=1, max_size=6),
)
def test_triangle_inequality_property(a, b):
    pad = max(len(a), len(b))
    x = SeqVector.from_values(a + [0.0] * (pad - len(a)))
    y = SeqVector.from_values(b + [0.0] * (pad - len(b)))
    assert s_norm_value(x + y, F) <= s_norm_value(x, F) + s_norm_value(y, F) + 1e-10


@settings(max_examples=40, deadline=None)
@given(st.lists(values_strategy, min_size=1, max_size=6), st.floats(0.1, 4.0))
def test_homogeneity_property(a, scale):
    x = SeqVector.from_values(a)
    assert s_norm_value(scale * x, F) == pytest.approx(
        scale * s_norm_value(x, F), rel=1e-12
    )


@settings(max_examples=40, deadline=None)
@given(st.lists(values_strategy, min_size=1, max_size=6), st.data())
def test_lattice_monotonicity_property(a, data):
    x = SeqVector.from_values(a)
    shrink = [data.draw(st.floats(0.0, 1.0)) for _ in a]
    y = SeqVector.from_values([v * s for v, s in zip(a, shrink)])
    assert s_norm_value(y, F) <= s_norm_value(x, F) + 1e-10 if y else True
