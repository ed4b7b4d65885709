"""Independent oracles: classical MC price, engine validation, quadrature."""

import copy
import math
import warnings
from dataclasses import dataclass

import mpmath as mp
import pytest

from statvol.levy import (
    TemperedStableMeasure,
    small_jump_variance,
)
from statvol.models import HestonParams, heston_invariant_gamma
from statvol.oracles import cir_direct_stationary_price, ou_stationary_check
from statvol.pricing import AsianSpec, price_asian_grid
from statvol.rng import stream
from statvol.schedule import make_polynomial_schedule

BENCH = TemperedStableMeasure(c=0.01, lam=1.0, alpha=0.5)


@dataclass(frozen=True)
class LevyMoments:
    tail: float  # int_u^inf y^order pi(dy)
    head: float  # int_0^u  y^order pi(dy)


def levy_moment_oracle(m: TemperedStableMeasure, u: float, order: int) -> LevyMoments:
    """High-precision quadrature of ``int y^order pi(dy)`` over the tail and head.

    Independent of the package's own quadrature: evaluated with mpmath's
    tanh-sinh integration at 30 working digits (tolerance well below 1e-12).
    With ``lam = 0`` the tail moment diverges and is reported as ``inf``.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    if not u > 0.0:
        raise ValueError(f"threshold must be positive, got {u}")
    with mp.workdps(30):
        c, lam, alpha = mp.mpf(m.c), mp.mpf(m.lam), mp.mpf(m.alpha)
        uu = mp.mpf(u)

        def f(yv):
            return c * yv ** (order - 1 - alpha) * mp.e ** (-lam * yv)

        head = mp.quad(f, [0, uu])
        if m.lam == 0.0:
            tail = mp.inf
        else:
            tail = mp.quad(f, [uu, uu + 1 / lam, mp.inf])
        return LevyMoments(tail=float(tail), head=float(head))


def bench_heston():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return HestonParams(s0=50.0, r=0.05, rho=0.5, k=2.0, theta=0.01,
                            sigma_v=0.1)


class TestCirDirectOracle:
    def test_zero_strike_put_is_worthless(self):
        p = bench_heston()
        spec = AsianSpec(K=0.0, T=1.0, kind="put", r=0.05)
        est = cir_direct_stationary_price(p, spec, 2000, 1e-3, stream(1, 0))
        assert est.value == 0.0

    def test_fine_step_precondition(self):
        p = bench_heston()
        with pytest.raises(ValueError):
            cir_direct_stationary_price(p, AsianSpec(K=50.0, T=1.0, r=0.05),
                                        100, 0.01, stream(1, 0))

    def test_sampled_v0_moments(self):
        p = bench_heston()
        shape, scale = heston_invariant_gamma(p)
        rng = stream(2, 0)
        v0 = rng.gamma(shape, scale, 200_000)
        se_mean = v0.std(ddof=1) / math.sqrt(len(v0))
        assert abs(v0.mean() - 0.01) < 3.0 * se_mean
        target_var = 2.5e-5
        # Var(sample var) = m2^2 (2 + 6/shape)/n for a Gamma law
        se_var = target_var * math.sqrt((2.0 + 6.0 / shape) / len(v0))
        assert abs(v0.var(ddof=1) - target_var) < 3.0 * se_var

    def test_discounted_mean_average_is_exact(self):
        # the oracle's average-price mean must match s0(e^{rT}-1)/(rT)
        p = bench_heston()
        spec = AsianSpec(K=0.0, T=1.0, kind="call", r=0.05)
        est = cir_direct_stationary_price(p, spec, 30_000, 1e-3, stream(3, 0))
        target = math.exp(-0.05) * 50.0 * (math.exp(0.05) - 1.0) / 0.05
        assert abs(est.value - target) < 3.0 * est.se


class TestOuStationaryCheck:
    def test_degenerate_at_zero(self):
        s = make_polynomial_schedule(1, 1 / 3, 1, 1 / 3)
        rep = ou_stationary_check(0.0, s, 2000, stream(4, 0))
        assert rep.mean == 0.0
        assert rep.variance == 0.0

    def test_unit_noise_variance(self):
        s = make_polynomial_schedule(1, 1 / 3, 1, 1 / 3)
        rep = ou_stationary_check(1.0, s, 300_000, stream(5, 0))
        assert rep.expected_variance == 0.5
        assert rep.variance == pytest.approx(0.5, rel=0.05)
        assert abs(rep.mean) < 0.02


class TestFaultInjection:
    def test_broken_main_sampler_disagrees_with_oracle(self):
        # the oracle must not share the main path's stepping code: inflating
        # the vol-of-vol inside the driver's variance step (the price
        # reconstruction keeps the true one) moves the engine estimate far
        # outside the combined band while the oracle stays put
        import statvol.models as models

        class BrokenKernel(models.HestonDriver):
            def advance(self, state, first, gam, rng):
                true = self.params
                self.params = copy.copy(true)
                object.__setattr__(self.params, "sigma_v", 3.0 * true.sigma_v)
                try:
                    return super().advance(state, first, gam, rng)
                finally:
                    self.params = true

        p = bench_heston()
        s = make_polynomial_schedule(1, 1 / 3, 1, 1 / 3)
        spec = AsianSpec(K=50.0, T=1.0, kind="call", r=0.05)
        [broken] = price_asian_grid(BrokenKernel(p), s, [spec], 20_000,
                                    stream(6, 0), use_parity=False)
        oracle = cir_direct_stationary_price(p, spec, 4000, 1e-3, stream(6, 1))
        band = 3.0 * math.hypot(broken.se, oracle.se)
        assert abs(broken.value - oracle.value) > 3.0 * band


class TestLevyMomentOracle:
    def test_invalid_order(self):
        with pytest.raises(ValueError):
            levy_moment_oracle(BENCH, 0.1, 3)

    def test_untempered_head_closed_form(self):
        stable = TemperedStableMeasure(c=0.01, lam=0.0, alpha=0.5)
        mo = levy_moment_oracle(stable, 1.0, 2)
        assert mo.head == pytest.approx(0.01 / 1.5, rel=1e-12)
        assert mo.tail == math.inf

    def test_split_consistency(self):
        # tail(u) + head(u) independent of u for order 2
        totals = [levy_moment_oracle(BENCH, u, 2).tail
                  + levy_moment_oracle(BENCH, u, 2).head
                  for u in (0.05, 0.5, 2.0)]
        assert totals[0] == pytest.approx(totals[1], rel=1e-11)
        assert totals[1] == pytest.approx(totals[2], rel=1e-11)

    def test_matches_package_quadrature(self):
        for u in (0.01, 0.3, 1.5):
            mo1 = levy_moment_oracle(BENCH, u, 1)
            assert BENCH.mean_rate() == pytest.approx(mo1.head + mo1.tail, rel=1e-9)
            mo2 = levy_moment_oracle(BENCH, u, 2)
            assert small_jump_variance(BENCH, u) == pytest.approx(mo2.head, rel=1e-9)
