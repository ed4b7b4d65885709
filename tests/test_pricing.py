"""Payoffs, estimators, parity, Black-Scholes, implied volatility."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from statvol import engine, pricing
from statvol.engine import MarginalAccumulator
from statvol.levy import TemperedStableMeasure, TruncationPolicy
from statvol.models import (
    BNSParams,
    BnsDriver,
    HestonDriver,
    HestonParams,
    growth_rate,
)
from statvol.pricing import (
    AsianSpec,
    BandViolationError,
    bs_call,
    discounted_average_forward,
    implied_vol,
    parity_rhs,
    price_asian_grid,
    price_european_grid,
)
from statvol.rng import stream
from statvol.schedule import make_polynomial_schedule


def bench_heston(**kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return HestonParams(s0=50.0, r=0.05, rho=kw.pop("rho", 0.5), k=2.0,
                            theta=0.01, sigma_v=0.1, **kw)


class ZeroVolDriver(HestonDriver):
    """Degenerate model: v = 0 and y = 0 forever, rho = 0."""

    def __init__(self):
        super().__init__(bench_heston(rho=0.0))

    def initial_state(self):
        return (0.0, 0.0)

    def advance(self, state, first, gam, rng):
        return np.zeros((2, len(gam)))


class TestAsianPayoff:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            AsianSpec(K=-1.0, T=1.0)
        with pytest.raises(ValueError):
            AsianSpec(K=50.0, T=0.0)
        with pytest.raises(ValueError):
            AsianSpec(K=50.0, T=1.0, kind="straddle")


class TestParityRhs:
    def test_benchmark_value_high_precision(self):
        with mp.workdps(40):
            expect = float(mp.mpf(50) / (mp.mpf("0.05") * 1) * (1 - mp.e ** mp.mpf("-0.05"))
                           - 50 * mp.e ** mp.mpf("-0.05"))
        assert parity_rhs(50.0, 0.05, 1.0, 50.0) == pytest.approx(expect, abs=1e-10)
        assert parity_rhs(50.0, 0.05, 1.0, 50.0) == pytest.approx(1.2091042742502903, abs=1e-10)

    def test_zero_rate_limit(self):
        assert parity_rhs(50.0, 0.0, 1.0, 50.0) == 0.0
        # continuity: tiny r approaches the limit
        assert parity_rhs(50.0, 1e-12, 1.0, 50.0) == pytest.approx(0.0, abs=1e-9)

    def test_worthless_put(self):
        got = parity_rhs(50.0, 0.05, 1.0, 0.0)
        assert got == pytest.approx(50.0 / 0.05 * (1 - math.exp(-0.05)), rel=1e-14)

    def test_heston_gap_consistency(self):
        # the model-aware discounted average forward reproduces parity_rhs
        p = bench_heston()
        for K in (44.0, 50.0, 56.0):
            gap = discounted_average_forward(p, 1.0) - K * math.exp(-0.05)
            assert gap == pytest.approx(parity_rhs(50.0, 0.05, 1.0, K), rel=1e-12)


class TestZeroVolDegenerate:
    def test_asian_closed_form(self):
        # every window path is s0 e^{rt}: in the money, out of the money
        # (exactly 0), and Lipschitz in the strike with constant e^{-rT}
        driver = ZeroVolDriver()
        s = make_polynomial_schedule(1, 1 / 3, 1, 1 / 3)
        strikes = (40.0, 41.0, 44.0, 49.5, 50.7, 56.0, 60.0, 63.0)
        specs = [AsianSpec(K=k, T=1.0, kind="call", r=0.05) for k in strikes]
        ests = price_asian_grid(driver, s, specs, 200, stream(2, 0), use_parity=False)
        a = 50.0 * (math.exp(0.05) - 1.0) / 0.05
        disc = math.exp(-0.05)
        for est in ests:
            assert est.mean_average == pytest.approx(a, rel=1e-12)
            if est.K < a:
                assert est.value == pytest.approx(disc * (a - est.K), rel=1e-12)
            else:
                assert est.value == 0.0
        value = dict(zip(strikes, (e.value for e in ests)))
        for k1, k2 in ((40.0, 41.0), (49.5, 50.7), (60.0, 63.0)):
            assert abs(value[k1] - value[k2]) <= disc * abs(k1 - k2) + 1e-12

    def test_european_closed_form(self):
        driver = ZeroVolDriver()
        s = make_polynomial_schedule(1, 1 / 3, 1, 1 / 3)
        spec = AsianSpec(K=44.0, T=1.0, kind="call", r=0.05)
        [est] = price_european_grid(driver, s, [spec], 200, stream(2, 0))
        assert est.value == pytest.approx(
            math.exp(-0.05) * (50.0 * math.exp(0.05) - 44.0), rel=1e-12)


@pytest.fixture(scope="module")
def heston_run():
    s = make_polynomial_schedule(1, 1 / 3, 1, 1 / 3)
    driver = HestonDriver(bench_heston())
    specs = [AsianSpec(K=k, T=1.0, kind="call", r=0.05)
             for k in (44.0, 50.0, 56.0)]
    return pricing.price_asian_grid(driver, s, specs, 30_000, stream(3, 0),
                                    use_parity=True)


class TestPriceAsianGrid:

    def test_exact_estimator_parity(self, heston_run):
        disc = math.exp(-0.05)
        for est in heston_run:
            lhs = est.direct - est.other_direct
            rhs = disc * (est.mean_average - est.K)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_leg_selection(self, heston_run):
        fwd = pricing.forward_average(50.0, 0.05, 1.0)
        for est in heston_run:
            if est.K <= fwd:
                gap = discounted_average_forward(bench_heston(), 1.0) \
                    - est.K * math.exp(-0.05)
                assert est.value == pytest.approx(est.other_direct + gap, rel=1e-12)
            else:
                assert est.value == est.direct

    def test_checkpoints_present(self, heston_run):
        ns = [n for n, _ in heston_run[0].checkpoints]
        assert ns == [1, 10, 100, 1000, 10000, 30000]
        # diagnostic: the last two checkpoints are close on the MC scale
        last, prev = heston_run[0].checkpoints[-1][1], heston_run[0].checkpoints[-2][1]
        assert abs(last - prev) < 5.0 * max(heston_run[0].se, 1e-3) * 10

    def test_values_nonnegative(self, heston_run):
        for est in heston_run:
            assert est.value >= 0.0
            assert est.direct >= 0.0

    def test_mixed_maturities_rejected(self):
        s = make_polynomial_schedule(1, 1 / 3, 1, 1 / 3)
        driver = HestonDriver(bench_heston())
        specs = [AsianSpec(K=50.0, T=1.0, r=0.05), AsianSpec(K=50.0, T=2.0, r=0.05)]
        with pytest.raises(ValueError):
            price_asian_grid(driver, s, specs, 100, stream(0, 0))

    def test_put_grid_parity_reconstruction(self):
        s = make_polynomial_schedule(1, 1 / 3, 1, 1 / 3)
        driver = HestonDriver(bench_heston())
        spec = AsianSpec(K=56.0, T=1.0, kind="put", r=0.05)
        [est] = price_asian_grid(driver, s, [spec], 20_000, stream(4, 0), use_parity=True)
        # K=56 is above the forward average: the put is reconstructed
        gap = discounted_average_forward(bench_heston(), 1.0) - 56.0 * math.exp(-0.05)
        assert est.value == pytest.approx(est.other_direct - gap, rel=1e-12)


class TestEuropeanMonotonicity:
    def test_decreasing_in_strike_on_shared_stream(self):
        s = make_polynomial_schedule(1, 1 / 3, 1, 1 / 3)
        driver = HestonDriver(bench_heston())
        specs = [AsianSpec(K=k, T=1.0, kind="call", r=0.05)
                 for k in (44.0, 48.0, 52.0, 56.0)]
        ests = pricing.price_european_grid(driver, s, specs, 20_000, stream(5, 0))
        vals = [e.value for e in ests]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestBlackScholes:
    def test_zero_vol_intrinsic(self):
        assert bs_call(50.0, 44.0, 1.0, 0.05, 0.0) == pytest.approx(
            50.0 - 44.0 * math.exp(-0.05), rel=1e-12)

    def test_atm_flat_rate_value(self):
        # frozen from an independent high-precision normal-CDF evaluation
        with mp.workdps(40):
            d = mp.mpf("0.1")
            expect = float(100 * (mp.ncdf(d) - mp.ncdf(-d)))
        assert bs_call(100.0, 100.0, 1.0, 0.0, 0.2) == pytest.approx(expect, rel=1e-12)
        assert bs_call(100.0, 100.0, 1.0, 0.0, 0.2) == pytest.approx(7.965567455405804, rel=1e-10)

    def test_monotone_in_vol(self):
        prices = [bs_call(50.0, 52.0, 1.0, 0.05, s) for s in np.linspace(0.05, 2.0, 40)]
        assert all(b > a for a, b in zip(prices, prices[1:]))

    def test_zero_strike(self):
        assert bs_call(50.0, 0.0, 1.0, 0.05, 0.3) == 50.0


class TestImpliedVol:
    def test_round_trip_grid(self):
        for sigma in np.linspace(0.01, 3.0, 25):
            price = bs_call(50.0, 52.0, 1.0, 0.05, float(sigma))
            assert implied_vol(price, 50.0, 52.0, 1.0, 0.05) == pytest.approx(
                float(sigma), abs=1e-8)

    def test_band_edges_raise(self):
        intrinsic = max(50.0 - 44.0 * math.exp(-0.05), 0.0)
        with pytest.raises(BandViolationError):
            implied_vol(intrinsic, 50.0, 44.0, 1.0, 0.05)
        with pytest.raises(BandViolationError):
            implied_vol(50.0, 50.0, 44.0, 1.0, 0.05)
        with pytest.raises(BandViolationError):
            implied_vol(55.0, 50.0, 44.0, 1.0, 0.05)

    def test_tiny_premium_gives_tiny_vol(self):
        # sigma -> 0 as the premium approaches intrinsic (below ~1e-4 the
        # time value of this ITM call hits the float plateau, so probe the
        # limit at resolvable premiums)
        intrinsic = 50.0 - 44.0 * math.exp(-0.05)
        sigmas = [implied_vol(intrinsic + eps, 50.0, 44.0, 1.0, 0.05)
                  for eps in (1e-2, 1e-3, 1e-4)]
        assert sigmas[0] > sigmas[1] > sigmas[2]
        assert sigmas[2] < 0.06

    def test_near_spot_price_converges(self):
        # deep band edge: the root sits beyond the initial bracket
        sigma = implied_vol(0.999 * 50.0, 50.0, 50.0, 1.0, 0.0)
        assert bs_call(50.0, 50.0, 1.0, 0.0, sigma) == pytest.approx(
            49.95, abs=1e-10 * 50.0)
        assert sigma > 5.0

    @pytest.mark.parametrize("K, sigma", [(80.0, 0.5), (30.0, 1.0), (80.0, 6.0)])
    def test_bisection_fallback_reprices(self, K, sigma):
        # far from the money at T = 0.1 the vega at Newton's start 0.2 is
        # below 1e-11, so its first step leaves (1e-12, 10) and bisection
        # finds the root; at sigma = 6 it first doubles its upper edge 5
        price = bs_call(50.0, K, 0.1, 0.0, sigma)
        got = implied_vol(price, 50.0, K, 0.1, 0.0)
        assert bs_call(50.0, K, 0.1, 0.0, got) == pytest.approx(price, abs=1e-10 * 50.0)
        assert got == pytest.approx(sigma, rel=1e-6)


class TestBnsParityUsesModelGrowth:
    def test_gap_differs_from_martingale_parity(self):
        p = BNSParams(s0=50.0, r=0.05, rho=-1.0, mu=1.0,
                      jump=TemperedStableMeasure(c=0.01, lam=1.0, alpha=0.5))
        daf = discounted_average_forward(p, 1.0)
        mart = parity_rhs(50.0, 0.05, 1.0, 0.0)
        assert daf < mart  # leverage jumps drag the discounted mean down
        g = growth_rate(p)
        expect = 50.0 * math.exp(-0.05) * (math.exp(g) - 1.0) / g
        assert daf == pytest.approx(expect, rel=1e-12)


class TestGoldenValues:
    """Exact outputs of a fixed-seed run, pinned so that refactors which
    promise an unchanged random stream are checked to the last bit (to
    1e-12 relative where only a summation order changed)."""

    SPECS = [AsianSpec(K=k, T=1.0, kind="call", r=0.05) for k in (44.0, 50.0, 56.0)]

    def test_heston_asian_grid(self):
        s = make_polynomial_schedule(1, 1 / 3, 1, 1 / 3)
        ests = price_asian_grid(HestonDriver(bench_heston()), s, self.SPECS, 2000,
                                stream(31, 0))
        # the block potential reassociates each window's log-price sums, so
        # the stream is unchanged but the last bits may move
        assert [x for e in ests for x in (e.value, e.se)] == pytest.approx([
            6.919196706327032, 0.0013903072753365063,
            1.6512561577103937, 0.024250195489724322,
            0.07435733153406464, 0.010783160397189578,
        ], rel=1e-12)

    def test_bns_asian_grid(self):
        p = BNSParams(s0=50.0, r=0.05, rho=-1.0, mu=1.0,
                      jump=TemperedStableMeasure(c=0.01, lam=1.0, alpha=0.5),
                      truncation=TruncationPolicy(power=2.0))
        s = make_polynomial_schedule(1, 1 / 3, 1, 1 / 3)
        ests = price_asian_grid(BnsDriver(p), s, self.SPECS, 2000, stream(31, 0))
        # each window's average is one reduceat term, not np.dot, so the
        # stream is unchanged but the last bits may move
        assert [x for e in ests for x in (e.value, e.se)] == pytest.approx([
            6.6662240895651825, 0.025528908894944656,
            1.2554656859885516, 0.0457952637954362,
            0.11261774006174287, 0.027418091791226513,
        ], rel=1e-12)

    def test_heston_european_grid(self):
        s = make_polynomial_schedule(1, 1 / 3, 1, 1 / 3)
        ests = price_european_grid(HestonDriver(bench_heston()), s, self.SPECS, 2000,
                                   stream(31, 0))
        assert [x for e in ests for x in (e.value, e.se)] == pytest.approx([
            8.404568784623004, 0.11655445375836747,
            3.387068287610896, 0.09670392041167043,
            0.8116639478734459, 0.05283316788365681,
        ], rel=1e-12)

    def test_bns_european_grid(self):
        # a stepwise path: the terminal value grows by exp(0) = 1 over each tail
        p = BNSParams(s0=50.0, r=0.05, rho=-1.0, mu=1.0,
                      jump=TemperedStableMeasure(c=0.01, lam=1.0, alpha=0.5),
                      truncation=TruncationPolicy(power=2.0))
        s = make_polynomial_schedule(1, 1 / 3, 1, 1 / 3)
        ests = price_european_grid(BnsDriver(p), s, self.SPECS, 2000, stream(31, 0))
        assert [x for e in ests for x in (e.value, e.se)] == pytest.approx([
            7.993400072733735, 0.09271778117446554,
            2.68116834806546, 0.07878024713477771,
            0.34334240799058235, 0.05837084642174359,
        ], rel=1e-12)

    def test_heston_stationary_marginal(self):
        s = make_polynomial_schedule(1, 1 / 3, 1, 1 / 3)
        marg = MarginalAccumulator(dim=2, bins=50, lo=0.0, hi=0.05)
        engine.run(HestonDriver(bench_heston()), s, None, T=1.0, n_iters=2000,
                   rng=stream(31, 0), marginal=marg)
        st = marg.stats()
        assert list(st.mean) == [0.010710947204741864, -0.002214274498947398]
        assert list(st.variance) == [3.182583959911934e-05, 0.00462308975131223]
        assert float(st.histogram[0].max()) == 0.08547685858895404

    def test_heston_variance_marginal(self):
        # the one-coordinate fold of every stationary-stats run
        s = make_polynomial_schedule(1, 1 / 3, 1, 1 / 3)
        marg = MarginalAccumulator(dim=1, bins=50, lo=0.0, hi=0.05)
        engine.run(HestonDriver(bench_heston()), s, None, T=1.0, n_iters=2000,
                   rng=stream(31, 0), marginal=marg)
        st = marg.stats()
        assert list(st.mean) == [0.010710947204741864]
        assert list(st.variance) == [3.182583959911934e-05]
        assert float(st.histogram[0].max()) == 0.08547685858895404
