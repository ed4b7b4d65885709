"""Model dynamics, drivers, and price-path reconstruction."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy import special

from statvol import engine, levy
from statvol.engine import DriverStepError, Window, WindowBlock
from statvol.levy import TemperedStableMeasure, TruncationPolicy
from statvol.models import (
    BNSParams,
    BnsDriver,
    HestonDriver,
    HestonParams,
    bns_jump_cumulant_rate,
    growth_rate,
    heston_invariant_gamma,
)
from statvol.oracles import _OUDriver
from statvol.rng import stream
from statvol.schedule import make_polynomial_schedule
from statvol.schemes import cir_reflected_step, ou_companion_step


def bench_heston(**kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return HestonParams(s0=50.0, r=0.05, rho=kw.pop("rho", 0.5), k=2.0,
                            theta=0.01, sigma_v=0.1, **kw)


def bench_bns(**kw):
    return BNSParams(s0=50.0, r=0.05, rho=kw.pop("rho", -1.0), mu=1.0,
                     jump=TemperedStableMeasure(c=0.01, lam=1.0, alpha=0.5), **kw)


def make_window(states, lengths, T):
    """Assemble a one-window block from explicit per-grid-point states."""
    cols = np.ascontiguousarray(np.array(states, dtype=float).T)
    lengths = np.asarray(lengths, dtype=float)
    gam = np.concatenate(([0.0], lengths[:-1]))  # gam[0] precedes the window: unread
    t = np.concatenate(([0.0], np.cumsum(lengths[:-1])))
    b = len(lengths) - 1
    return Window(WindowBlock(cols, 0, T, gam, t, np.array([b])), 0, b)


def grid_times(w):
    """Local times of a window's grid points."""
    Gam = w.block.Gam
    return Gam[w.a : w.b + 1] - Gam[w.a]


def heston_price_path(w, params):
    """The driver's price path of one window (built on a fresh driver)."""
    return HestonDriver(params).price_path(w)


def bns_price_path(w, params):
    return BnsDriver(params).price_path(w)


class ReferenceNormals:
    """Scalar take of normals drawn 8192 at a time, as the per-step drivers had it."""

    def __init__(self, rng):
        self.rng, self.buf, self.pos = rng, [], 0

    def take(self):
        if self.pos >= len(self.buf):
            self.buf, self.pos = self.rng.standard_normal(8192).tolist(), 0
        self.pos += 1
        return self.buf[self.pos - 1]


def reference_heston_steps(params, state, gam, rng):
    """States after each step of ``gam``, by the per-step Heston arithmetic."""
    normals = ReferenceNormals(rng)
    v, y = state
    out = []
    for g in gam:
        sg = math.sqrt(g)
        dw2 = sg * normals.take()
        dw1 = sg * normals.take()
        v, y = (cir_reflected_step(v, g, params.k, params.theta, params.sigma_v, dw2),
                ou_companion_step(y, g, v, dw1))
        out.append((v, y))
    return np.array(out).T


def reference_tail_rate(m, u):
    """The jump rate above ``u`` by the per-step closed-form arithmetic (lam > 0)."""
    s, x = -m.alpha, m.lam * u
    upper = (x**s * math.exp(-x) - special.gammaincc(s + 1.0, x) * math.gamma(s + 1.0)) / (-s)
    return m.c * m.lam**m.alpha * upper


def reference_bns_steps(params, state, gam, rng, normals=None):
    """States after each step of ``gam``, by the per-step BNS arithmetic.

    ``normals`` continues the chunked normals of an earlier call on ``rng``.
    """
    normals = ReferenceNormals(rng) if normals is None else normals
    v, x = state
    out = []
    for g in gam:
        u = params.truncation.thresholds((g,))[0]
        dz = 0.0
        for _ in range(int(rng.poisson(g * reference_tail_rate(params.jump, u)))):
            dz += levy.sample_jump_above(params.jump, u, rng)
        dw = math.sqrt(g) * normals.take()
        x = x + g * (params.r - 0.5 * v) + math.sqrt(v) * dw + params.rho * dz
        v = v - g * params.mu * v + dz
        assert v >= 0.0
        out.append((v, x))
    return np.array(out).T


def advance_in_pieces(driver, state, gam, rng, cuts, rng_states=None):
    """``driver.advance`` over ``gam`` in blocks split at the step offsets ``cuts``.

    ``rng_states`` receives the rng's state after each piece.
    """
    pieces = []
    for lo, hi in zip((0, *cuts), (*cuts, len(gam))):
        pieces.append(driver.advance(state, 1 + lo, gam[lo:hi], rng))
        state = pieces[-1][:, -1].tolist()
        if rng_states is not None:
            rng_states.append(rng.bit_generator.state)
    return np.concatenate(pieces, axis=1)


def reference_bns_states(params, state, gam, rng, cuts):
    """The rng's states after the pieces of ``advance_in_pieces``, step by step."""
    normals, rng_states = ReferenceNormals(rng), []
    for lo, hi in zip((0, *cuts), (*cuts, len(gam))):
        state = reference_bns_steps(params, state, gam[lo:hi], rng, normals)[:, -1].tolist()
        rng_states.append(rng.bit_generator.state)
    return rng_states


class ZeroRng:
    def standard_normal(self, size=None):
        return np.zeros(size) if size is not None else 0.0

    def poisson(self, lam):
        return 0

    def random(self, size=None):
        return np.zeros(size) if size is not None else 0.0


class OneJumpRng(ZeroRng):
    """One jump on the first step, of size ``4u`` at a small threshold ``u``.

    The step's first uniform lies above ``exp(-mean)``, so it has a jump;
    the second ends its count at one; the jump's proposal ``u * 0.5**(-1/alpha)``
    (``4u`` at ``alpha = 1/2``) is accepted by the uniform 0.5 while
    ``exp(-lam * 3u) >= 0.5``.
    """

    def __init__(self):
        self.uniforms = iter([1.0 - 1e-12, 0.5, 0.5, 0.5])

    def random(self, size=None):
        if size is None:
            return next(self.uniforms)
        return np.array([next(self.uniforms) for _ in range(size)])


class FirstUniformRng(OneJumpRng):
    """:class:`OneJumpRng` with the first uniform ``first``."""

    def __init__(self, first):
        self.uniforms = iter([first, 0.5, 0.5, 0.5])


class TestParamValidation:
    def test_positivity_condition_enforced(self):
        with pytest.raises(ValueError):
            HestonParams(s0=50, r=0.05, rho=0.5, k=0.5, theta=0.01, sigma_v=0.5)

    def test_scheme_condition_only_warns(self):
        with pytest.warns(RuntimeWarning):
            HestonParams(s0=50, r=0.05, rho=0.5, k=2.0, theta=0.01, sigma_v=0.1)

    def test_default_inits(self):
        p = bench_heston()
        assert HestonDriver(p).initial_state() == (p.theta, 0.0)
        b = bench_bns()
        v, x = BnsDriver(b).initial_state()
        assert v == pytest.approx(b.jump.mean_rate() / b.mu)
        assert x == 0.0

    def test_bns_needs_tempering(self):
        # lam = 0: v has no stationary mean to start from
        with pytest.raises(ValueError):
            BNSParams(s0=50.0, r=0.05, rho=-1.0, mu=1.0,
                      jump=TemperedStableMeasure(c=0.01, lam=0.0, alpha=0.5))

    def test_bns_rejects_positive_leverage(self):
        with pytest.raises(ValueError):
            bench_bns(rho=0.5)

    def test_invariant_law(self):
        p = bench_heston()
        shape, scale = heston_invariant_gamma(p)
        assert shape == pytest.approx(4.0)
        assert shape * scale == pytest.approx(0.01)  # mean theta
        assert shape * scale**2 == pytest.approx(2.5e-5)  # variance theta sigma_v^2 / 2k


class TestHestonJointStep:
    """The joint (v, y) transition of :class:`HestonDriver`."""

    def test_equilibrium_fixed_point(self):
        p = bench_heston()
        v, y = HestonDriver(p).step((p.theta, 0.0), 1, 0.1, ZeroRng())
        assert (v, y) == (pytest.approx(p.theta), pytest.approx(0.0))

    def test_deterministic_contraction(self):
        p = bench_heston()
        v, y = HestonDriver(p).step((0.01, 1.0), 1, 0.1, ZeroRng())
        assert v == pytest.approx(0.01)
        assert y == pytest.approx(0.9)

    def test_positivity(self):
        p = bench_heston()
        driver = HestonDriver(p)
        rng = stream(3, 0)
        state = (0.0001, 0.0)
        for k in range(1, 2001):
            state = driver.step(state, k, 0.3, rng)
            assert state[0] >= 0.0


class TestBlockAdvance:
    """``advance`` is the per-step scheme bit for bit, however a span is split.

    The reference takes its normals 8192 at a time, as the per-step drivers
    did.  A Heston block draws its normals in one call, so the Heston case
    shows that per-block draws equal that chunked stream.  A BNS step takes
    one normal from the driver's own 8192-draw chunks, after its Poisson
    and jump draws, so its cuts fall on odd steps just before and after each
    refill.  A BNS block draws its steps' uniforms in batches, so its cases
    also check the rng's state after every piece against the per-step
    scheme's: the driver draws exactly what that scheme draws, no more.
    """

    SCHED = make_polynomial_schedule(1, 1 / 3, 1, 1 / 3)

    def _check(self, make_driver, reference, n, cuts, gam=None):
        gam = self.SCHED.gamma_slice(1, n + 1) if gam is None else gam
        driver = make_driver()
        state = list(driver.initial_state())
        ref = reference(driver.params, state, gam.tolist(), stream(21, 0))
        whole = make_driver().advance(state, 1, gam, stream(21, 0))
        rng_states = []
        split = advance_in_pieces(make_driver(), state, gam, stream(21, 0), cuts, rng_states)
        assert ref.shape == whole.shape == split.shape == (2, n)
        assert np.array_equal(whole, ref)
        assert np.array_equal(split, ref)
        if reference is reference_bns_steps:
            # draw for draw: after each piece the stream stands where the
            # per-step scheme leaves it, so no uniform was drawn ahead across
            # a block's end or a refill of the normals
            np.testing.assert_equal(
                rng_states, reference_bns_states(driver.params, state, gam.tolist(),
                                                 stream(21, 0), cuts))

    def test_heston_matches_per_step_scheme(self):
        # 9001 steps take 18002 > 2 * 8192 normals: the reference refills at
        # steps 4096 and 8192, each piece draws its own in one call
        self._check(lambda: HestonDriver(bench_heston()), reference_heston_steps,
                    9001, (1, 4095, 4097, 8191, 8193))

    def test_bns_matches_per_step_scheme(self):
        # power 2 as in the benchmark; refills at steps 8192 and 16384
        p = bench_bns(truncation=TruncationPolicy(power=2.0))
        self._check(lambda: BnsDriver(p), reference_bns_steps,
                    16_501, (3, 8191, 8193, 16383, 16385))

    def test_bns_with_frequent_jumps(self, monkeypatch):
        # c = 0.5 makes a jump every few steps; the jumps draw from the
        # same stream between the normals' refills
        jumps = []
        sample = levy.sample_jump_above

        def counting(m, u, rng):
            jumps.append(u)
            return sample(m, u, rng)

        monkeypatch.setattr(levy, "sample_jump_above", counting)
        p = BNSParams(s0=50.0, r=0.05, rho=-1.0, mu=1.0,
                      jump=TemperedStableMeasure(c=0.5, lam=1.0, alpha=0.5))
        n = 9001
        self._check(lambda: BnsDriver(p), reference_bns_steps, n, (5, 8191, 8193))
        # three passes over the span: the reference, one call, the pieces
        assert len(jumps) % 3 == 0 and len(jumps) // 3 >= n / 300

    def test_bns_zero_and_ptrs_counts(self):
        # at lam = 1000 and power 20 a step of 1 or 0.99 has the threshold 1
        # or 0.82, where the tail rate is exactly 0.0: it draws nothing, as
        # rng.poisson(0) does; steps of 0.6 and 0.5 expect 14 and 97 jumps,
        # drawn by numpy's PTRS sampler; 0.7 expects 0.6 and 0.8 6e-7, both
        # drawn by multiplying uniforms; the cuts fall next to each kind
        p = BNSParams(s0=50.0, r=0.05, rho=-1.0, mu=1.0,
                      jump=TemperedStableMeasure(c=0.1, lam=1000.0, alpha=0.5),
                      truncation=TruncationPolicy(power=20.0))
        pattern = [1.0, 0.7, 0.6, 0.8, 0.99, 0.5] + [0.8] * 7 + [0.7] * 7
        means = [g * levy.tail_intensity_closed(p.jump, u)
                 for g, u in zip(pattern, p.truncation.thresholds(pattern))]
        assert means[0] == means[4] == 0.0
        assert 10.0 <= means[2] < means[5] <= 1e7
        assert 0.0 < means[3] < means[1] < 10.0
        n = 8400
        gam = np.array(pattern * (n // len(pattern)))
        self._check(lambda: BnsDriver(p), reference_bns_steps, n,
                    (1, 2, 3, 5, 6, 8191, 8192, 8193), gam)

    def test_ou_oracle_driver_split_invariance(self):
        # one call of standard_normal per block: any split, and the chunked
        # reference stream, give the same trajectory
        n = 20_000
        gam = self.SCHED.gamma_slice(1, n + 1)
        driver = _OUDriver(1.0)
        whole = driver.advance([0.0], 1, gam, stream(21, 0))
        split = advance_in_pieces(driver, [0.0], gam, stream(21, 0), (1, 8191, 8193))
        normals, y, ref = ReferenceNormals(stream(21, 0)), 0.0, []
        for g in gam.tolist():
            y = ou_companion_step(y, g, driver.var, math.sqrt(g) * normals.take())
            ref.append(y)
        assert whole.shape == (1, n)
        assert np.array_equal(split, whole)
        assert np.array_equal(whole, [ref])

    def test_step_is_one_column_advance(self):
        for make in (lambda: HestonDriver(bench_heston()), lambda: BnsDriver(bench_bns())):
            driver = make()
            state = list(driver.initial_state())
            cols = make().advance(state, 1, np.array([0.3]), stream(2, 0))
            assert driver.step(state, 1, 0.3, stream(2, 0)) == tuple(cols[:, 0])

    def test_bns_failure_names_its_step_inside_the_block(self):
        # gamma * mu = 2 on the fourth step of a block starting at index 17
        p = bench_bns()
        gam = np.array([0.1, 0.1, 0.1, 2.0, 0.1])
        with pytest.raises(DriverStepError) as err:
            BnsDriver(p).advance([0.01, 0.0], 17, gam, ZeroRng())
        assert err.value.index == 20
        assert "variance went negative" in str(err.value)

    def test_bns_threshold_failure_names_its_step(self):
        # power 100: 1e-5 ** 100 underflows to a zero threshold, which fails
        # its own step after the steps before it (steps of 0.95, whose
        # threshold 0.006 expects few jumps; at 0.1 the threshold 1e-100
        # would expect 2e47 and fail first); at power 2000 a step of
        # 2 has the threshold 1 (2 ** 2000 is never taken) and fails only
        # on its negative variance, while a step of 0.9 has the threshold
        # 1e-92 and expects about 1e44 jumps, which fails before the later
        # zero threshold
        ok = bench_bns(truncation=TruncationPolicy(power=100.0))
        steep = dataclasses.replace(ok, truncation=TruncationPolicy(power=2000.0))
        cases = (
            (ok, [0.95, 0.95, 1e-5, 0.95], 19, "threshold must be positive"),
            (ok, [0.95, 2.0, 1e-5], 18, "variance went negative"),
            (steep, [0.9999, 2.0, 0.1], 18, "variance went negative"),
            (steep, [1.0, 0.9, 1e-5], 18, "jumps in one step"),
        )
        for p, gam, index, msg in cases:
            with pytest.raises(DriverStepError) as err:
                BnsDriver(p).advance([0.01, 0.0], 17, np.array(gam), ZeroRng())
            assert err.value.index == index
            assert msg in str(err.value)

    def test_empty_block_draws_nothing(self):
        for make in (lambda: HestonDriver(bench_heston()), lambda: BnsDriver(bench_bns())):
            driver = make()
            rng = stream(4, 0)
            cols = driver.advance(list(driver.initial_state()), 17, np.array([]), rng)
            assert cols.shape == (2, 0)
            assert cols.dtype == np.float64
            assert rng.random() == stream(4, 0).random()

    def test_bns_negative_start_fails_at_its_first_step(self):
        # with OneJumpRng the first step (u = gamma = 0.01) jumps by 0.04
        p = bench_bns()
        driver = BnsDriver(p)
        for gam, rng in (([0.1, 0.1], ZeroRng()), ([0.01], OneJumpRng())):
            with pytest.raises(DriverStepError) as err:
                driver.advance([-0.01, 0.0], 17, np.array(gam), rng)
            assert err.value.index == 17
        # from that start the jump alone would make v_1 >= 0
        jump = driver.advance([0.0, 0.0], 17, np.array([0.01]), OneJumpRng())[0, 0]
        assert -0.01 * (1.0 - 0.01 * p.mu) + jump >= 0.0

    def test_bns_count_goes_on_above_the_c_exp(self):
        # numpy's multiplication method goes on counting while the product of
        # uniforms is above exp(-mean), from the C exp; at this mean np.exp is
        # one ulp above it, so a limit from np.exp would miss the jump of a
        # first uniform one ulp above the C value
        means = np.random.default_rng(3).uniform(1e-3, 0.1, 10_000).tolist()
        mean = next(x for x in means if np.exp(np.array([-x]))[0] > math.exp(-x))
        limit = math.exp(-mean)
        driver = BnsDriver(bench_bns())
        for first, jumps in ((limit, False), (np.nextafter(limit, 1.0), True)):
            dz, _ = driver._draws(np.array([0.01]), np.array([mean]), FirstUniformRng(first))
            assert (dz[0] > 0.0) == jumps

    def test_bns_runaway_jump_count_fails_before_any_draw(self):
        class NoDraws:
            def __getattr__(self, name):
                raise AssertionError(f"drew from rng.{name}")

        steep = bench_bns(truncation=TruncationPolicy(power=2000.0))
        with pytest.raises(DriverStepError, match="jumps in one step") as err:
            BnsDriver(steep).advance([0.01, 0.0], 17, np.array([0.9, 0.1]), NoDraws())
        assert err.value.index == 17


class TestHestonPricePath:
    def test_zero_volatility_reduction(self):
        # rho = 0 so the mean-reversion drift in Lambda cannot leak into a
        # frozen v = 0 path; the reconstruction then reduces to s0 e^{rt}
        p = bench_heston(rho=0.0)
        w = make_window([(0.0, 0.0)] * 4, [0.5, 0.5, 0.5, 0.25], 1.75)
        path = heston_price_path(w, p)
        assert path.values == pytest.approx(p.s0 * np.exp(p.r * grid_times(w)), rel=1e-14)
        # and the time-average integral is the exact closed form
        a = path.average()
        exact = p.s0 * (math.exp(p.r * 1.75) - 1.0) / (p.r * 1.75)
        assert a == pytest.approx(exact, rel=1e-14)

    def test_starts_at_spot(self):
        p = bench_heston()
        # the one-point window has no segment before its last grid point
        for w in (make_window([(0.012, 0.3), (0.009, 0.1)], [0.4, 0.2], 0.6),
                  make_window([(0.012, 0.3)], [0.6], 0.6)):
            path = heston_price_path(w, p)
            assert len(path.values) == len(w)
            assert path.values[0] == pytest.approx(p.s0)

    def test_constant_mean_variance_kills_lambda(self):
        # v identically theta: Lambda(t) = 0, so rho never enters
        y_path = [0.0, 0.2, -0.1]
        w = make_window([(0.01, y) for y in y_path], [0.5, 0.5, 0.5], 1.5)
        p0 = bench_heston(rho=0.0)
        p5 = bench_heston(rho=0.5)
        v0 = heston_price_path(w, p0).values
        v5 = heston_price_path(w, p5).values
        # with rho = 0.5 the sqrt(1-rho^2) factor changes the M term only
        base = (0.05 - 0.5 * 0.01) * grid_times(w)  # r t - (1/2) int v ds
        lam_free = np.log(v5 / p5.s0) - base
        mart = np.array([0.0, 0.2 - 0.0 + 0.0, -0.1 - 0.0 + (0.0 * 0.5 + 0.2 * 0.5)])
        assert lam_free == pytest.approx(math.sqrt(0.75) * mart, abs=1e-12)
        assert np.log(v0 / p0.s0) - base == pytest.approx(mart, abs=1e-12)

    def test_y_shift_invariance_of_M(self):
        # M computed from (y - y0) equals y_t - y_0 + int y ds recomputed
        # directly, and the whole S path is unchanged by re-basing y
        p = bench_heston()
        rng = stream(4, 0)
        v = 0.01 + 0.002 * rng.standard_normal(6).cumsum() ** 2
        y = 0.1 * rng.standard_normal(6).cumsum()
        lengths = [0.3, 0.3, 0.3, 0.3, 0.3, 0.15]
        w = make_window(list(zip(v, y)), lengths, 1.65)
        path = heston_price_path(w, p)
        iy = np.concatenate(([0.0], np.cumsum(y[:-1] * np.asarray(lengths[:-1]))))
        direct = y - y[0] + iy
        shifted = (y + 7.3) - (y[0] + 7.3) + iy
        assert direct == pytest.approx(shifted, abs=1e-12)
        w2 = make_window(list(zip(v, y + 7.3)), lengths, 1.65)
        # adding a constant c to y changes int y ds, so only the re-based
        # construction keeps S invariant; verify M directly instead
        p2 = heston_price_path(w2, p)
        iy2 = np.concatenate(([0.0], np.cumsum((y[:-1] + 7.3) * np.asarray(lengths[:-1]))))
        m2 = (y + 7.3) - (y[0] + 7.3) + iy2
        assert m2 - direct == pytest.approx(7.3 * grid_times(w), rel=1e-12)


class TestBnsJointStep:
    """The joint (v, x) transition of :class:`BnsDriver`."""

    def test_deterministic_drift(self):
        p = bench_bns()
        v, x = BnsDriver(p).step((0.0, 1.0), 1, 0.2, ZeroRng())
        assert x == pytest.approx(1.0 + 0.2 * p.r)
        assert v == 0.0

    def test_leverage_signs(self):
        # a jump dz > 0 moves x down (rho < 0) and v up by the same dz
        p = bench_bns()
        x0, v0 = 0.0, 0.01
        v, x = BnsDriver(p).step((v0, x0), 1, 1e-9, OneJumpRng())
        dv = v - v0 * (1.0 - 1e-9 * p.mu)
        assert dv > 0.0
        assert x - x0 == pytest.approx(p.rho * dv, abs=1e-8)

    def test_variance_stays_nonnegative(self):
        p = bench_bns()
        s = make_polynomial_schedule(1, 1 / 3, 1, 1 / 3)  # gamma_1 * mu = 1
        driver = BnsDriver(p)
        rng = stream(6, 0)
        mins = []

        def functional(w):
            mins.append(float(np.min(w.states(0))))
            return 0.0

        engine.run(driver, s, functional, T=1.0, n_iters=3000, rng=rng)
        assert min(mins) >= 0.0

    def test_negative_variance_fails_at_its_own_index(self):
        # gamma_1 * mu = 5 and no jumps: the step to index 1 returns
        # v = -4 times its start, the last state a two-point marginal sweep folds
        p = dataclasses.replace(bench_bns(), mu=5.0)
        s = make_polynomial_schedule(1, 1 / 3, 1, 1 / 3)
        marg = engine.MarginalAccumulator(dim=1)
        with pytest.raises(DriverStepError) as err:
            engine.run(BnsDriver(p), s, None, T=None, n_iters=2, rng=ZeroRng(),
                       marginal=marg)
        assert err.value.index == 1
        assert marg.count == 1


class TestBnsPricePath:
    def test_constant_x_gives_spot(self):
        p = bench_bns()
        w = make_window([(0.01, 0.7)] * 3, [0.5, 0.5, 0.5], 1.5)
        path = bns_price_path(w, p)
        assert path.values == pytest.approx([50.0, 50.0, 50.0])

    def test_rebased_exponential(self):
        p = bench_bns()
        w = make_window([(0.01, 0.0), (0.01, 0.1)], [1.0, 0.5], 1.5)
        path = bns_price_path(w, p)
        assert path.values == pytest.approx([50.0, 50.0 * math.exp(0.1)])
        w2 = make_window([(0.01, 5.0), (0.01, 5.1)], [1.0, 0.5], 1.5)
        assert bns_price_path(w2, p).values == pytest.approx(path.values)

    def test_positivity(self):
        p = bench_bns()
        rng = stream(8, 0)
        xs = rng.standard_normal(20).cumsum()
        w = make_window([(0.01, x) for x in xs], [0.1] * 20, 2.0)
        assert np.all(bns_price_path(w, p).values > 0.0)


class TestWindowStats:
    """``window_stats`` of a block, over any range of it, is each window's ``price_path``."""

    @pytest.mark.parametrize("driver", [HestonDriver(bench_heston(rho=-0.9)),
                                        BnsDriver(bench_bns())], ids=["heston", "bns"])
    def test_ranges_match_price_path(self, driver):
        s = make_polynomial_schedule(1, 1 / 3, 1, 1 / 3)
        windows = []
        engine.run(driver, s, lambda w: windows.append(w) or 0.0, T=1.0,
                   n_iters=engine._BLOCK + 700, rng=stream(4, 0))
        blocks = {}
        for w in windows:
            blocks.setdefault(w.block, []).append(w)
        assert len(blocks) == 2
        for block, ws in blocks.items():
            averages, terminals = driver.window_stats(block)
            assert len(averages) == len(terminals) == len(ws)
            cuts = [0, 1, 333, len(ws)]
            for lo, hi in zip(cuts, cuts[1:]):
                paths = [driver.price_path(w) for w in ws[lo:hi]]
                assert averages[lo:hi] == pytest.approx([p.average() for p in paths], rel=1e-14)
                assert terminals[lo:hi] == pytest.approx([p.terminal() for p in paths], rel=1e-14)

    def test_one_point_window(self):
        # the window is all tail: no segment weight is read
        w = make_window([(0.012, 0.3)], [0.6], 0.6)
        for driver in (HestonDriver(bench_heston()), BnsDriver(bench_bns())):
            path = driver.price_path(w)
            average, terminal = driver.window_stats(w.block)
            assert average == pytest.approx([path.average()], rel=1e-15)
            assert terminal == pytest.approx([path.terminal()], rel=1e-15)


class TestGrowthRate:
    def test_heston_is_martingale(self):
        assert growth_rate(bench_heston()) == 0.05

    def test_bns_cumulant_closed_form(self):
        p = bench_bns()
        # c Gamma(1-a) (lam^a - (lam-rho)^a)/a at c=.01, lam=1, a=.5, rho=-1
        expect = 0.01 * math.gamma(0.5) * (1.0 - math.sqrt(2.0)) / 0.5
        assert bns_jump_cumulant_rate(p) == pytest.approx(expect, rel=1e-14)
        assert growth_rate(p) == pytest.approx(0.05 + expect)

    def test_zero_leverage_no_correction(self):
        assert bns_jump_cumulant_rate(bench_bns(rho=0.0)) == 0.0


class TestStationaryMarginal:
    def test_heston_marginal_short_run(self):
        # coarse check at n = 2e5; the acceptance suite runs n = 1e6
        p = bench_heston()
        s = make_polynomial_schedule(1, 1 / 3, 1, 1 / 3)
        marg = engine.MarginalAccumulator(dim=2, bins=100, lo=0.0, hi=0.05)
        engine.run(HestonDriver(p), s, None, T=s.gamma(1), n_iters=200_000,
                   rng=stream(9, 0), marginal=marg)
        st = marg.stats()
        assert st.mean[0] == pytest.approx(0.01, rel=0.05)
        assert st.variance[0] == pytest.approx(2.5e-5, rel=0.25)
