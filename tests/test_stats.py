import itertools
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    beta_mc_prob_q_gt_p,
    enumerate_ks_pvalue,
    exact_binom_sf,
    integer_ks_pvalue,
    mc_disagreement_oracle,
    posterior_3f2_exact,
    reference_ks_exact_pvalue,
    terminating_3f2,
)
from shiftguard import stats
from shiftguard.numerics import rng_stream
from shiftguard.stats import (
    NullReference,
    PosteriorInputs,
    binomial_pvalue,
    disagreement_bound_pstar,
    empirical_quantile,
    ks_two_sample,
    posterior_prob_shift,
)


class TestKsTwoSample:
    def test_identical_multisets(self):
        res = ks_two_sample([1.0, 2.0, 2.0], [2.0, 1.0, 2.0])
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_fully_separated_pairs(self):
        res = ks_two_sample([1.0, 2.0], [3.0, 4.0])
        assert res.statistic == pytest.approx(1.0)
        # 2 of the C(4,2)=6 assignments attain D = 1
        assert res.p_value == 1.0 / 3.0
        assert res.method == "exact"

    def test_exact_matches_enumeration_small_samples(self):
        # both are correctly rounded ratios of integer counts
        rng = np.random.default_rng(0)
        for n in range(1, 10):
            for m in range(1, 11 - n):
                xs = rng.normal(size=n)
                ys = rng.normal(size=m) + rng.uniform(-1, 1)
                res = ks_two_sample(xs, ys)
                assert res.p_value == enumerate_ks_pvalue(xs, ys), (n, m)

    def test_exact_matches_enumeration_with_ties(self):
        cases = [
            ([1.0, 1.0, 2.0], [1.0, 3.0]),
            ([0.0, 0.0], [0.0, 0.0, 1.0]),
            ([1.0, 2.0, 2.0, 3.0], [2.0, 2.0]),
            ([5.0], [5.0, 5.0, 6.0]),
        ]
        for xs, ys in cases:
            res = ks_two_sample(xs, ys)
            assert res.p_value == enumerate_ks_pvalue(xs, ys), (xs, ys)

    def test_exact_matches_scipy(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = int(rng.integers(3, 30))
            m = int(rng.integers(3, 30))
            xs = rng.normal(size=n)
            ys = rng.normal(size=m) + rng.uniform(0, 1)
            res = ks_two_sample(xs, ys)
            ref = scipy.stats.ks_2samp(xs, ys, method="exact")
            assert res.statistic == pytest.approx(ref.statistic, abs=1e-12)
            assert res.p_value == pytest.approx(ref.pvalue, abs=1e-9)

    def test_exact_and_asymptotic_agree_at_n100(self):
        # mean shift of three standard errors puts the p-value mid-range,
        # where the branch comparison is informative
        rng = np.random.default_rng(2)
        xs = rng.normal(size=100)
        ys = rng.normal(size=100) + 3.0 / math.sqrt(100)
        res = ks_two_sample(xs, ys)  # n*m = 10_000 -> exact branch
        assert res.method == "exact"
        from shiftguard.stats import _ks_asymptotic_pvalue
        asym = _ks_asymptotic_pvalue(res.statistic, 100, 100)
        assert 0.001 < res.p_value < 0.999
        assert abs(res.p_value - asym) < 0.02

    def test_asymptotic_branch_selected(self):
        rng = np.random.default_rng(3)
        res = ks_two_sample(rng.normal(size=150), rng.normal(size=150))
        assert res.method == "asymptotic"
        assert 0.0 <= res.p_value <= 1.0

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            ks_two_sample([], [1.0])

    def test_nan_refused(self):
        with pytest.raises(ValueError, match="NaN"):
            ks_two_sample([0.1, float("nan")], [0.2, 0.3])


def _exact_pvalue(xs, ys, d):
    counts = np.unique(np.concatenate([xs, ys]), return_counts=True)[1]
    return stats._ks_exact_pvalue(counts, xs.size, ys.size, d)


def _lattice_ds(rng, n, m):
    """A lattice value |i/n - k/m| > 0 of the CDF gap, the values 1e-13
    either side of it, which straddle the counter's 1e-12 tolerance, and
    the value 1e-12 above it, where d - 1e-12 can land on the gap itself."""
    d = 0.0
    while d == 0.0:
        d = abs(int(rng.integers(0, n + 1)) / n - int(rng.integers(0, m + 1)) / m)
    return [d, d - 1e-13, d + 1e-13, d + 1e-12]


def _bit_cases(family: str):
    """Seeded (xs, ys) pairs of one family."""
    rng = np.random.default_rng(["tie_free", "integer_ties", "cross_ties",
                                 "shapes"].index(family) + 404)
    cases = []
    if family == "shapes":
        for n, m in [(10, 990), (20, 380), (100, 100), (1, 10000), (10000, 1)]:
            cases.append((rng.normal(size=n), rng.normal(size=m) + 0.2))
            cases.append((rng.integers(0, 8, size=n).astype(float),
                          rng.integers(0, 9, size=m).astype(float)))
        for _ in range(4):
            cases.append((rng.normal(size=10), rng.normal(size=990) + 1.0))
        return cases
    for _ in range({"tie_free": 200, "integer_ties": 160,
                    "cross_ties": 140}[family]):
        n, m = (int(v) for v in rng.integers(1, 41, size=2))
        if family == "tie_free":
            xs = rng.normal(size=n)
            ys = rng.normal(size=m) + rng.uniform(-1.5, 1.5)
        elif family == "integer_ties":
            k = int(rng.integers(1, 7))
            xs = rng.integers(0, k, size=n).astype(float)
            ys = rng.integers(0, k + 1, size=m).astype(float)
        else:
            xs = rng.normal(size=n)
            shared = rng.choice(xs, size=int(rng.integers(1, m + 1)))
            ys = np.concatenate([shared, rng.normal(size=m - shared.size)])
            rng.shuffle(ys)
        cases.append((xs, ys))
    return cases


class TestKsExactBits:
    """The lattice count is exact: every p-value is the correctly rounded
    (total - survivors) / total of the integer group walk, and stays within
    1e-9 of the float log-space walk the library used before."""

    @pytest.mark.parametrize("family", ["tie_free", "integer_ties",
                                        "cross_ties", "shapes"])
    def test_matches_reference_bits(self, family):
        rng = np.random.default_rng(7)
        for xs, ys in _bit_cases(family):
            n, m = xs.size, ys.size
            res = ks_two_sample(xs, ys)
            assert res.method == "exact"
            if res.statistic > 0.0:
                want = integer_ks_pvalue(xs, ys, res.statistic)
                assert res.p_value.hex() == want.hex(), (n, m, res.statistic)
            for d in [res.statistic, *_lattice_ds(rng, n, m)]:
                want = integer_ks_pvalue(xs, ys, d)
                got = _exact_pvalue(xs, ys, d)
                assert got.hex() == want.hex(), (n, m, d.hex())
                assert abs(got - reference_ks_exact_pvalue(xs, ys, d)) <= 1e-9

    @pytest.mark.parametrize("n, m", [(1, 10000), (10000, 1)])
    def test_band_is_window_sized(self, n, m):
        # the live-point grid holds (min(n, m) + 1)(max(n, m) + 2) = 20,004
        # cells; a full (n + m) x (n + 1) grid at (10000, 1) would be 10^8
        # cells, 95 MiB even as booleans
        rng = np.random.default_rng(n)
        xs, ys = rng.normal(size=n), rng.normal(size=m)
        ks_two_sample(xs, ys)
        tracemalloc.start()
        try:
            res = ks_two_sample(xs, ys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.method == "exact" and res.statistic > 0.0
        assert res.p_value.hex() == integer_ks_pvalue(
            xs, ys, res.statistic).hex()
        assert abs(res.p_value - reference_ks_exact_pvalue(
            xs, ys, res.statistic)) <= 1e-9
        assert peak < 8 * 2**20

    def test_case_count(self):
        assert sum(len(_bit_cases(f)) for f in
                   ("tie_free", "integer_ties", "cross_ties", "shapes")) >= 500

    def test_no_surviving_path(self):
        # fully separated singletons: both orders reach the gap D = 1
        xs, ys = np.array([0.0]), np.array([1.0])
        assert reference_ks_exact_pvalue(xs, ys, 1.0) == 1.0
        assert _exact_pvalue(xs, ys, 1.0) == 1.0
        assert ks_two_sample(xs, ys).p_value == 1.0
        # a d below the first step kills every path at the first group
        xs, ys = np.arange(3.0), np.arange(3.0) + 10.0
        for d in (0.0, 1e-14, 0.3):
            assert _exact_pvalue(xs, ys, d).hex() == \
                integer_ks_pvalue(xs, ys, d).hex() == (1.0).hex()

    def test_separated_samples_keep_their_tail(self):
        # only the two fully separated orders reach D = 1; the float walk's
        # 1 - exp(log survivors - log total) rounded this to 0.0
        xs, ys = np.arange(10.0), np.arange(990.0) + 10.0
        want = 2 / math.comb(1000, 10)
        assert ks_two_sample(xs, ys).p_value == want
        assert ks_two_sample(ys, xs).p_value == want

    @settings(max_examples=300, deadline=None)
    @given(
        xs=st.lists(st.integers(0, 3), min_size=1, max_size=9),
        ys=st.lists(st.integers(0, 3), min_size=1, max_size=9),
        d=st.one_of(st.none(), st.floats(0.0, 1.0)),
    )
    def test_small_tied_samples(self, xs, ys, d):
        xs = np.array(xs, dtype=float)
        ys = np.array(ys, dtype=float)
        if d is None:
            d = ks_two_sample(xs, ys).statistic
            if xs.size + ys.size <= 10:
                assert ks_two_sample(xs, ys).p_value == \
                    enumerate_ks_pvalue(xs, ys)
        got = _exact_pvalue(xs, ys, d)
        assert got.hex() == integer_ks_pvalue(xs, ys, d).hex()
        assert abs(got - reference_ks_exact_pvalue(xs, ys, d)) <= 1e-9


class TestBinomialPvalue:
    def test_zero_successes_greater(self):
        assert binomial_pvalue(0, 17, 0.3) == 1.0

    def test_exact_halves(self):
        assert binomial_pvalue(3, 5, 0.5) == 0.5
        assert binomial_pvalue(6, 10, 0.5) == 386 / 1024

    @pytest.mark.parametrize("p0", [0.123, 0.5, 0.77, Fraction(1, 3),
                                    Fraction(7, 20), Fraction(999, 1000)])
    def test_correctly_rounded_all_n_up_to_60(self, p0):
        # the same bits as the tail summed in Fraction, for a float p0 and
        # for an exact rate
        for n in range(61):
            for x in range(n + 1):
                assert binomial_pvalue(x, n, p0).hex() == \
                    exact_binom_sf(x, n, p0).hex(), (x, n)

    def test_matches_scipy(self):
        for x, n, p0 in [(3, 20, 0.1), (12, 15, 0.5), (1, 9, 0.77)]:
            assert binomial_pvalue(x, n, p0) == pytest.approx(
                scipy.stats.binomtest(x, n, p0, alternative="greater").pvalue,
                abs=1e-12)

    def test_monotone_in_x(self):
        vals = [binomial_pvalue(x, 25, 0.4) for x in range(26)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            binomial_pvalue(-1, 5, 0.5)
        with pytest.raises(ValueError):
            binomial_pvalue(6, 5, 0.5)
        with pytest.raises(ValueError):
            binomial_pvalue(2, 5, 0.0)

    @pytest.mark.parametrize("bad", [2.5, True])
    def test_non_int_counts_refused(self, bad):
        for counts in ((bad, 5), (2, bad)):
            with pytest.raises(TypeError, match="counts must be int"):
                binomial_pvalue(*counts, 0.5)


class TestEmpiricalQuantile:
    def test_hundred_point_convention(self):
        values = np.arange(100) / 100.0
        assert empirical_quantile(values, 0.95) == pytest.approx(0.94)

    def test_extremes(self):
        values = [3.0, -1.0, 7.0, 2.0]
        assert empirical_quantile(values, 1.0) == 7.0
        assert empirical_quantile(values, 0.0) == -1.0

    def test_permutation_invariant(self):
        rng = np.random.default_rng(4)
        values = rng.normal(size=37)
        q = empirical_quantile(values, 0.8)
        for _ in range(5):
            assert empirical_quantile(rng.permutation(values), 0.8) == q

    def test_integer_boundary_fuzz(self):
        # 0.05 * 20 is 1.0000000000000002 in floats; convention wants the
        # 1st order statistic
        values = np.arange(20, dtype=float)
        assert empirical_quantile(values, 0.05) == 0.0

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            empirical_quantile([], 0.5)


class TestNullReference:
    @pytest.mark.parametrize("upper, q, shift_side", [
        (True, 0.95, math.inf),
        (False, 0.05, -math.inf),
    ], ids=["upper-disagreement", "lower-p-value"])
    def test_rule_at_the_threshold(self, upper, q, shift_side):
        """A statistic equal to the threshold never flags, the next float
        past it on the shift side does, and the next float back does not.
        The null rates of a disagreement test tie, so the draws do too."""
        values = np.random.default_rng(7).integers(0, 6, size=40) / 20
        null = NullReference(tuple(values), 0.05, upper)
        assert null.values == tuple(np.sort(values))
        assert null.threshold == empirical_quantile(values, q)
        assert not null.rejects(null.threshold)
        assert null.rejects(math.nextafter(null.threshold, shift_side))
        assert not null.rejects(math.nextafter(null.threshold, -shift_side))


class TestDisagreementBound:
    def test_enumerated_small_n(self):
        # n=1: P(X>Y) = p(1-p) maximized at 1/4; bound = 1/4
        assert disagreement_bound_pstar(1) == pytest.approx(0.25, abs=1e-14)
        # n=2 at p=1/2: P(X>Y) = 5/16
        assert disagreement_bound_pstar(2) == pytest.approx(0.3125, abs=1e-14)

    def test_strictly_below_half_and_increasing(self):
        prev = 0.0
        for n in (1, 2, 3, 5, 10, 50, 1000, 100_000):
            v = disagreement_bound_pstar(n)
            assert prev < v < 0.5
            prev = v

    def test_inverse_sqrt_gap(self):
        # 1/2 - p*(n) = 4^-n C(2n,n) / 2 ~ 1 / (2 sqrt(pi n))
        for n in (10_000, 1_000_000):
            gap = 0.5 - disagreement_bound_pstar(n)
            assert gap == pytest.approx(0.5 / math.sqrt(math.pi * n), rel=1e-3)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            disagreement_bound_pstar(0)


class TestMcDisagreementOracle:
    def test_degenerate_rates(self):
        rng = rng_stream(0, 0)
        assert mc_disagreement_oracle(4, 0.0, 1000, rng)[0] == 0.0
        assert mc_disagreement_oracle(4, 1.0, 1000, rng)[0] == 0.0

    def test_matches_bound_at_half(self):
        est, se = mc_disagreement_oracle(1, 0.5, 1_000_000, rng_stream(1, 0))
        assert abs(est - 0.25) <= 3 * se

    def test_dominated_by_bound_spot(self):
        for n, p in [(2, 0.3), (5, 0.7), (10, 0.5)]:
            est, se = mc_disagreement_oracle(n, p, 200_000, rng_stream(2, n))
            assert est <= disagreement_bound_pstar(n) + 3 * se


class TestPosteriorProbShift:
    def test_symmetric_cases_are_half(self):
        for n, N in [(0, 1), (1, 2), (3, 7), (10, 20), (25, 50)]:
            v = posterior_prob_shift(PosteriorInputs(n, N, n, N))
            assert v == pytest.approx(0.5, abs=1e-9)

    def test_hand_integral_case(self):
        # p ~ Beta(1, 2), q ~ Beta(2, 1): P(q > p) = 5/6
        v = posterior_prob_shift(PosteriorInputs(0, 1, 1, 1))
        assert v == pytest.approx(5.0 / 6.0, abs=1e-9)

    def test_complement_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            N = int(rng.integers(1, 60))
            M = int(rng.integers(1, 60))
            n = int(rng.integers(0, N + 1))
            m = int(rng.integers(0, M + 1))
            a = posterior_prob_shift(PosteriorInputs(n, N, m, M))
            b = posterior_prob_shift(PosteriorInputs(m, M, n, N))
            assert a + b == pytest.approx(1.0, abs=1e-9), (n, N, m, M)

    def test_monotone_in_m(self):
        prev = -1.0
        for m in range(11):
            v = posterior_prob_shift(PosteriorInputs(2, 10, m, 10))
            assert v > prev
            prev = v

    def test_correctly_rounded_against_3f2_form(self):
        # the paper's prefactor x 3F2, summed in Fraction: every cell up to
        # N, M = 8, three counts on each side up to 60, and a few at 200
        small = [(n, N) for N in range(1, 9) for n in range(N + 1)]
        cells = [(n, N, m, M) for n, N in small for m, M in small]
        sizes = [*range(1, 61, 2), 60]
        cells += [(n, N, m, M) for N in sizes for M in sizes
                  for n in {0, N // 3, N} for m in {0, M // 2, M}]
        cells += [(0, 200, 0, 200), (67, 200, 100, 200), (13, 200, 150, 180),
                  (200, 200, 199, 200), (100, 150, 0, 200)]
        for cell in cells:
            assert posterior_prob_shift(PosteriorInputs(*cell)).hex() == \
                posterior_3f2_exact(*cell).hex(), cell

    @pytest.mark.parametrize("params", [
        (2, -100, 104, 3, 105), (51, -50, 120, 52, 153), (1, -30, 33, 2, 35),
        (12, -75, 90, 13, 168)])
    def test_oracle_3f2_matches_mpmath(self, params):
        # (m - M)_k alternates sign, so a float sum of these series cancels
        expected = float(mpmath.hyp3f2(*params, 1))
        assert float(terminating_3f2(*params)) == pytest.approx(
            expected, rel=1e-12)

    def test_matches_beta_monte_carlo_small_grid(self):
        rng = rng_stream(7, 0)
        for n, m in itertools.product(range(4), range(4)):
            closed = posterior_prob_shift(PosteriorInputs(n, 3, m, 3))
            mc = beta_mc_prob_q_gt_p(n, 3, m, 3, 200_000, rng.split(4 * n + m))
            assert closed == pytest.approx(mc, abs=0.006), (n, m)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            PosteriorInputs(2, 1, 0, 1)
        with pytest.raises(ValueError):
            PosteriorInputs(0, 0, 0, 1)

    @pytest.mark.parametrize("bad", [2.5, True])
    def test_non_int_counts_refused(self, bad):
        # each field in turn: the exact sum runs over int counts only
        for i in range(4):
            counts = [2, 5, 2, 5]
            counts[i] = bad
            with pytest.raises(TypeError, match="counts must be int"):
                PosteriorInputs(*counts)
