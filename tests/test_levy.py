"""Tempered-stable tail integrals and jump samplers."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy import special, stats

from statvol.levy import (
    _upper_gamma,
    TemperedStableMeasure,
    TruncationPolicy,
    compound_poisson_increment,
    compound_poisson_sum,
    sample_jump_above,
    sample_jumps_above,
    small_jump_variance,
    tail_intensities_closed,
    tail_intensity,
    tail_intensity_closed,
)
from statvol.rng import stream
from statvol.schedule import make_polynomial_schedule

BENCH = TemperedStableMeasure(c=0.01, lam=1.0, alpha=0.5)
STABLE = TemperedStableMeasure(c=0.01, lam=0.0, alpha=0.5)
SCHED = make_polynomial_schedule(1.0, 1.0 / 3.0, 1.0, 1.0 / 3.0)  # the benchmark schedule


def _mp_tail(m, u, order=0):
    with mp.workdps(40):
        f = lambda y: m.c * y ** (order - 1 - mp.mpf(m.alpha)) * mp.e ** (-m.lam * y)
        return float(mp.quad(f, [u, u + 1.0, mp.inf]))


def _per_threshold_rates(m, us):
    """The closed form on Python floats, one threshold at a time, with the same ``_upper_gamma``."""
    us = np.asarray(us).tolist()
    if m.lam == 0.0:
        return [m.c * u ** (-m.alpha) / m.alpha for u in us]
    s = -m.alpha
    xs = [m.lam * u for u in us]
    upper = _upper_gamma(s + 1.0, np.array(xs)).tolist()
    scale = m.c * m.lam**m.alpha
    return [scale * ((x**s * math.exp(-x) - g) / (-s)) for x, g in zip(xs, upper)]


def _ulps(got, want) -> int:
    """The most units in the last place between two arrays of non-negative floats."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert (got >= 0.0).all() and (want >= 0.0).all()
    return int(np.abs(got.view(np.int64) - want.view(np.int64)).max())


class TestMeasureValidation:
    @pytest.mark.parametrize("c,lam,alpha", [(-1, 1, 0.5), (0, 1, 0.5),
                                             (0.01, -1, 0.5), (0.01, 1, 0.0),
                                             (0.01, 1, 1.0)])
    def test_rejects_bad_parameters(self, c, lam, alpha):
        with pytest.raises(ValueError):
            TemperedStableMeasure(c=c, lam=lam, alpha=alpha)

    def test_mean_rate_closed_form(self):
        # int y pi(dy) = c Gamma(1-alpha) lam^{alpha-1}
        assert BENCH.mean_rate() == pytest.approx(0.01 * math.gamma(0.5), rel=1e-14)

    def test_truncation_policy(self):
        pol = TruncationPolicy()
        assert pol.thresholds((0.2,))[0] == 0.2
        assert pol.thresholds((3.0,))[0] == 1.0  # capped at 1
        sq = TruncationPolicy(power=2.0)
        assert sq.thresholds((0.2,))[0] == pytest.approx(0.04)
        # the cap needs no power: 2.0 ** 2000 would overflow
        assert TruncationPolicy(power=2000.0).thresholds((2.0,))[0] == 1.0
        with pytest.raises(ValueError):
            TruncationPolicy(power=0.5)

    @pytest.mark.parametrize("power,at_least",
                             [(2.0, 100), (1.5, 5000), (3.0, 5000), (1.0, 0)])
    def test_thresholds_are_pythons_pow(self, power, at_least):
        # the thresholds set the jump sizes.  np.power is SIMD-dispatched and
        # rounds some steps of the benchmark schedule differently, at power 2
        # too; np.float_power's float64 loop is the C pow that Python's ** calls
        gam = SCHED.gamma_slice(1, 200_001)
        want = [g**power for g in gam.tolist()]  # every step is at most 1
        assert (np.power(gam, power) != want).sum() >= at_least
        assert TruncationPolicy(power).thresholds(gam).tolist() == want


class TestTailIntensity:
    def test_untempered_closed_form(self):
        assert tail_intensity(STABLE, 0.01) == pytest.approx(0.2, rel=1e-12)

    def test_quadrature_vs_mpmath(self):
        for u in (1e-6, 1e-3, 0.01, 0.1, 1.0, 5.0):
            assert tail_intensity(BENCH, u) == pytest.approx(_mp_tail(BENCH, u), rel=1e-9)

    def test_closed_form_matches_quadrature(self):
        for u in (1e-6, 1e-3, 0.01, 0.1, 1.0, 5.0):
            assert tail_intensity_closed(BENCH, u) == pytest.approx(
                tail_intensity(BENCH, u), rel=1e-9)

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            tail_intensity(BENCH, 0.0)
        for m in (BENCH, STABLE):
            with pytest.raises(ValueError):
                tail_intensity_closed(m, 0.0)
            with pytest.raises(ValueError):
                tail_intensities_closed(m, [0.1, -0.1])


class TestUpperGamma:
    """The closed form's own ``Gamma(a, x)`` for ``0 < a < 1``, against scipy and mpmath."""

    @pytest.mark.parametrize("a", [0.05, 0.3, 0.5, 0.7, 0.95])
    def test_matches_scipy(self, a):
        # the log grid, and points on both sides of the switch from the
        # series (x < a + 1) to the continued fraction
        switch = a + 1.0
        xs = np.concatenate((np.logspace(-12, 3, 301),
                             [np.nextafter(switch, 0.0), switch, np.nextafter(switch, 3.0)],
                             switch + np.array([-0.1, -1e-3, -1e-9, 1e-9, 1e-3, 0.1])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _upper_gamma(a, xs)
        want = special.gammaincc(a, xs) * math.gamma(a)
        # from x ~ 707 up both are subnormal or 0, so the bound there is absolute
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=np.finfo(float).tiny)

    def test_closed_form_matches_mpmath(self):
        us = [1e-6, 1e-3, 0.01, 0.1, 1.0, 5.0]
        for u, rate in zip(us, tail_intensities_closed(BENCH, us)):
            assert rate == pytest.approx(_mp_tail(BENCH, u), rel=1e-12)

    def test_rate_does_not_depend_on_its_block(self):
        us = [5.0, 1.0, 0.3, 1e-3, 1e-9]
        assert np.array_equal(tail_intensities_closed(BENCH, us),
                              [tail_intensity_closed(BENCH, u) for u in us])

    def test_empty_block(self):
        # BnsDriver.advance passes no thresholds when a block's first one underflows
        for m in (BENCH, STABLE):
            rates = tail_intensities_closed(m, [])
            assert rates.shape == (0,) and rates.dtype == np.float64

    def test_large_lambda_u_is_finite_and_warning_free(self):
        # lam * u from 690 to 1000: e**-x turns subnormal, then 0
        m = TemperedStableMeasure(c=0.01, lam=1e3, alpha=0.5)
        us = [1.0] + np.linspace(0.69, 0.76, 71).tolist()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rates = tail_intensities_closed(m, us)
        assert all(math.isfinite(r) and r >= 0.0 for r in rates)

    def test_untempered_power_law(self):
        us = [1e-9, 1e-3, 0.5, 1.0, 4.0]
        assert _ulps(tail_intensities_closed(STABLE, us),
                     [0.01 * u**-0.5 / 0.5 for u in us]) <= 2

    @pytest.mark.parametrize("m", [BENCH, STABLE, TemperedStableMeasure(c=0.3, lam=7.0, alpha=0.8)],
                             ids=["bench", "stable", "steep"])
    def test_block_rates_equal_the_per_threshold_formula(self, m):
        # lam * u spans both _upper_gamma branches; where the two terms nearly
        # cancel (lam * u up to 758) numpy's pow and exp move a rate by more
        # ulps than elsewhere, still within the mpmath check's 1e-12
        rng = np.random.default_rng(19)
        us = np.concatenate((np.logspace(-12, 2.88, 100_000) / max(m.lam, 1.0),
                             rng.uniform(0.0, 3.0, 20_000) + 1e-300))
        if m.lam > 0.0:
            assert min(m.lam * us) < 1.0 - m.alpha < max(m.lam * us)
        np.testing.assert_allclose(tail_intensities_closed(m, us), _per_threshold_rates(m, us),
                                   rtol=1e-12, atol=0.0)
        # on the driver's own blocks: 4096 steps of the benchmark schedule
        for first in (20_000, 10**6, 10**7):
            gam = SCHED.gamma_slice(first, first + 4096)
            for power in (1.0, 2.0):
                us = TruncationPolicy(power).thresholds(gam)
                assert _ulps(tail_intensities_closed(m, us), _per_threshold_rates(m, us)) <= 4

    @pytest.mark.parametrize("bad", [0.0, -0.1, math.nan, -math.inf])
    def test_rejects_any_bad_threshold_in_a_block(self, bad):
        # min() over [0.1, nan] is 0.1: the check must see every threshold
        for m in (BENCH, STABLE):
            for us in ([bad], [0.1, bad], [bad, 0.1], [0.1, 0.2, bad, 0.3]):
                with pytest.raises(ValueError, match="threshold must be positive"):
                    tail_intensities_closed(m, us)


class TestSmallJumpVariance:
    def test_untempered_closed_form(self):
        assert small_jump_variance(STABLE, 1.0) == pytest.approx(0.01 / 1.5, rel=1e-12)

    def test_monotone_in_threshold(self):
        assert small_jump_variance(BENCH, 0.5) < small_jump_variance(BENCH, 1.0)


class TestRejectionSampler:
    def test_support(self):
        rng = stream(5, 0)
        u = 0.05
        for _ in range(500):
            assert sample_jump_above(BENCH, u, rng) > u * (1.0 - 1e-15)

    def test_untempered_is_exact_pareto(self):
        # lam = 0: every proposal accepted; (u/Y)^alpha is uniform
        rng = stream(6, 0)
        u = 0.2
        ys = sample_jumps_above(STABLE, u, 20000, rng)
        v = (u / ys) ** STABLE.alpha
        d = stats.kstest(v, "uniform")
        assert d.pvalue > 0.01

    def test_mean_matches_quadrature(self):
        rng = stream(7, 0)
        u = 0.1
        n = 10**6
        ys = sample_jumps_above(BENCH, u, n, rng)
        target = _mp_tail(BENCH, u, order=1) / _mp_tail(BENCH, u, order=0)
        se = ys.std(ddof=1) / math.sqrt(n)
        assert abs(ys.mean() - target) < 3.0 * se

    def test_ks_against_quadrature_cdf(self):
        # acceptance-level test: 1e5 samples vs the tail CDF at level 0.01
        rng = stream(8, 0)
        u = 0.05
        n = 10**5
        ys = sample_jumps_above(BENCH, u, n, rng)
        lam_u = tail_intensity_closed(BENCH, u)

        def cdf(y):
            y = np.asarray(y, dtype=float)
            return 1.0 - np.array([tail_intensity_closed(BENCH, yy) for yy in y]) / lam_u

        d = stats.kstest(np.sort(ys)[:: max(1, n // 2000)], cdf)
        assert d.pvalue > 0.01


class TestCompoundPoissonIncrement:
    def test_zero_without_compensation_possible(self):
        # with a huge threshold the jump count is almost surely zero
        rng = stream(9, 0)
        val = compound_poisson_increment(BENCH, 50.0, 0.01, rng)
        assert val == 0.0

    def test_mean_and_variance(self):
        rng = stream(11, 0)
        u, gamma = 0.01, 2.0  # ~0.3 jumps per draw keeps the kurtosis sane
        n = 10**5
        mean = gamma * tail_intensity_closed(BENCH, u)
        draws = np.array([compound_poisson_sum(BENCH, u, mean, rng) for _ in range(n)])
        # the increment is the sum at mean gamma * Lambda(u), so the sample is
        # the increments' own, bit for bit
        fresh = stream(11, 0)
        assert [compound_poisson_increment(BENCH, u, gamma, fresh)
                for _ in range(100)] == draws[:100].tolist()
        assert draws.min() >= 0.0
        target_mean = gamma * _mp_tail(BENCH, u, order=1)
        target_var = gamma * _mp_tail(BENCH, u, order=2)
        se_mean = draws.std(ddof=1) / math.sqrt(n)
        assert abs(draws.mean() - target_mean) < 3.0 * se_mean
        # size the variance-estimator noise from the sample's own kurtosis
        centered = draws - draws.mean()
        kurt = (centered**4).mean() / draws.var() ** 2
        se_var = target_var * math.sqrt(max(kurt - 1.0, 0.0) / n)
        assert abs(draws.var(ddof=1) - target_var) < 3.0 * se_var
