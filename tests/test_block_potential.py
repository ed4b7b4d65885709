"""Window statistics of whole blocks against a per-window reference.

The pricing functional takes each window's time average or terminal value
from the driver's ``window_stats``, which it calls once per block and which
builds the statistics of every window of the block from chunked prefix and
suffix sums (for Heston, of one log-price potential per block); the driver
keeps none of it between calls.  The reference below rebuilds every window
from its own states instead, as the scheme is written, and runs as a
per-window functional through ``engine.run`` on the same trajectory; it is
also compared with a block's statistics directly.
Both must give the same estimator at every checkpoint, to 1e-12 relative,
because they differ only in the order of their sums.

The payoff legs are measured against the larger of themselves and the
discounted average ``e^{-rT} a`` they are payoffs of: a leg moves by at
most ``e^{-rT}`` times as much as ``a`` does, so a leg of a few 1e-5 (the
put at K = 56 when ``r = 0.5``) can differ by 1e-11 of itself while ``a``
agrees to 1e-15.
"""

import math
import warnings

import numpy as np
import pytest

from statvol import engine, pricing
from statvol.levy import TemperedStableMeasure, TruncationPolicy
from statvol.models import (BNSParams, BnsDriver, HestonDriver, HestonParams,
                            PricePathView, _expm1_over)
from statvol.pricing import AsianSpec
from statvol.rng import stream
from statvol.schedule import make_polynomial_schedule

STRIKES = tuple(float(k) for k in range(44, 57))


def _cumsum0(x):
    return np.concatenate(([0.0], np.cumsum(x)))


def tail(window):
    """Length of the window's last segment, from its last grid point to ``T``."""
    Gam = window.block.Gam
    return window.T - (Gam[window.b] - Gam[window.a])


def seg_lengths(window):
    """The window's segment lengths: ``gam[a + 1 .. b]`` and then its tail."""
    ell = np.empty(len(window))
    ell[:-1] = window.block.gam[window.a + 1 : window.b + 1]
    ell[-1] = tail(window)
    return ell


def reference_heston_path(window, params):
    """Price path of one (v, y) window, reconstructed from the window alone.

    ``Lam(t) = (v_t - v_0 - k theta t + k int v ds)/sigma_v`` and
    ``M_t = y_t - y_0 + int y ds``; then
    ``S_t = s0 exp(r t - int v ds/2 + rho Lam(t) + sqrt(1-rho^2) M_t)``,
    and the log price grows at the frozen state's rate on each segment.
    """
    v = window.states(0)
    y = window.states(1)
    Gam = window.block.Gam
    t = Gam[window.a : window.b + 1] - Gam[window.a]
    ell = seg_lengths(window)
    iv = _cumsum0(v[:-1] * ell[:-1])
    iy = _cumsum0(y[:-1] * ell[:-1])
    rho_c = math.sqrt(1.0 - params.rho**2)
    lam = (v - v[0] - params.k * params.theta * t + params.k * iv) / params.sigma_v
    mart = y - y[0] + iy
    values = params.s0 * np.exp(params.r * t - 0.5 * iv + params.rho * lam + rho_c * mart)
    slopes = (params.r - 0.5 * v + params.rho * params.k * (v - params.theta) / params.sigma_v
              + rho_c * y)
    return PricePathView(values, ell * _expm1_over(slopes * ell), window.T,
                         math.exp(slopes[-1] * ell[-1]))


def reference_bns_path(window, params):
    """Price path of one (v, x) window: stepwise, re-based at its own start."""
    x = window.states(1)
    return PricePathView(params.s0 * np.exp(x - x[0]), seg_lengths(window), window.T)


def reference_functional(path_of, statistic, T, r):
    """Per window: discounted call and put legs, the statistic, squared legs."""
    strikes = np.array(STRIKES)
    disc = math.exp(-r * T)

    def functional(window):
        a = statistic(path_of(window))
        legs = disc * np.maximum(np.concatenate((a - strikes, strikes - a)), 0.0)
        return np.concatenate((legs, [a], legs**2))

    return functional


def heston(r, rho):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return HestonParams(s0=50.0, r=r, rho=rho, k=2.0, theta=0.01, sigma_v=0.1)


def bns(r, rho):
    return BNSParams(s0=50.0, r=r, rho=rho, mu=1.0,
                     jump=TemperedStableMeasure(c=0.01, lam=1.0, alpha=0.5),
                     truncation=TruncationPolicy(power=2.0))


MODELS = {
    "heston": (heston, HestonDriver, reference_heston_path),
    "bns": (bns, BnsDriver, reference_bns_path),
}


def _grid_run(driver, sched, specs, n, european, parity, monkeypatch):
    """The grid's estimates, its raw engine result and every window's folded row.

    The functional returns each window's statistic and the engine folds the
    row that ``rows`` maps it to; the row recorded here is that map applied
    to the one statistic.  The sweep calls ``window_stats`` once per block,
    in the engine's order, and leaves nothing on the driver but its
    parameters and, for BNS, the normals drawn for the next block.
    """
    results, blocks, values = [], [], []
    run, stats = engine.run, type(driver).window_stats

    def keep(drv, s, functional, *args, **kwargs):
        def recorded(window):
            value = functional(window)
            values.append(kwargs["rows"](np.array([value]))[0])
            return value

        results.append(run(drv, s, recorded, *args, **kwargs))
        return results[-1]

    def spy(drv, block):
        blocks.append(block)
        return stats(drv, block)

    monkeypatch.setattr(engine, "run", keep)
    monkeypatch.setattr(type(driver), "window_stats", spy)
    if european:
        ests = pricing.price_european_grid(driver, sched, specs, n, stream(5, 0))
    else:
        ests = pricing.price_asian_grid(driver, sched, specs, n, stream(5, 0),
                                        use_parity=parity)
    monkeypatch.setattr(engine, "run", run)
    assert [b.start for b in blocks] == list(range(0, n, engine._BLOCK))
    assert sum(len(b.ends) for b in blocks) == n
    assert set(vars(driver)) == ({"params", "_normals"} if isinstance(driver, BnsDriver)
                                 else {"params"})
    return ests, results[0], values


def _split(vec):
    """Legs, the statistic and the legs' spread (se up to a common factor)."""
    vec = np.asarray(vec, dtype=float)
    m = 2 * len(STRIKES)
    legs, a, sq = vec[:m], vec[m], vec[m + 1:]
    return legs, a, np.sqrt(np.maximum(sq - legs**2, 0.0))


def _agree(x, ref, scale=0.0):
    """``|x - ref| <= 1e-12 * max(|ref|, scale)`` elementwise."""
    x, ref = np.asarray(x, dtype=float), np.asarray(ref, dtype=float)
    return bool(np.all(np.abs(x - ref) <= 1e-12 * np.maximum(np.abs(ref), scale)))


CASES = [
    # (model, r, rho, c2, T, n): benchmark rates and steps, two blocks
    # crossed, so ranges start inside blocks
    ("heston", 0.05, 0.5, 1.0, 0.1, 9000),
    ("heston", 0.05, 0.5, 1.0, 1.0, 9000),
    ("heston", 0.05, 0.5, 1.0, 8.0, 9000),
    # large rate and large steps: r * Gamma_n reaches about 290 in the first block
    ("heston", 0.5, 0.5, 1.5, 1.0, 9000),
    # no discounting and strong negative correlation
    ("heston", 0.0, -0.9, 1.0, 1.0, 9000),
    ("bns", 0.05, -1.0, 1.0, 1.0, 9000),
    ("bns", 0.05, -1.0, 1.0, 8.0, 9000),
    # T < gamma_4096: the last window of the first block has one point, so
    # no state of it carries over to the next block
    ("heston", 0.05, 0.5, 1.0, 0.05, 9000),
    ("bns", 0.05, -1.0, 1.0, 0.05, 9000),
]


@pytest.mark.parametrize("european,parity", [(False, True), (False, False), (True, False)])
@pytest.mark.parametrize("model,r,rho,c2,T,n", CASES)
def test_window_stats_match_per_window_reference(model, r, rho, c2, T, n, european, parity,
                                                  monkeypatch):
    make_params, make_driver, reference_path = MODELS[model]
    params = make_params(r, rho)
    sched = make_polynomial_schedule(1.0, 1 / 3, c2, 1 / 3)
    assert n > 2 * engine._BLOCK
    specs = [AsianSpec(K=k, T=T, kind="call", r=r) for k in STRIKES]
    got, res, _ = _grid_run(make_driver(params), sched, specs, n, european, parity,
                            monkeypatch)

    statistic = PricePathView.terminal if european else PricePathView.average
    ref_res = engine.run(make_driver(params), sched,
                         reference_functional(lambda w: reference_path(w, params),
                                              statistic, T, r),
                         T, n, stream(5, 0))
    ref = pricing._assemble(specs, np.array(STRIKES), ref_res, params,
                            parity and not european, T, r)
    disc = math.exp(-r * T)
    assert [c for c, _ in res.checkpoints] == [c for c, _ in ref_res.checkpoints]
    for (c, vec), (_, ref_vec) in zip(res.checkpoints, ref_res.checkpoints):
        (legs, a, spread), (ref_legs, ref_a, ref_spread) = _split(vec), _split(ref_vec)
        assert _agree(a, ref_a), c
        assert _agree(legs, ref_legs, disc * ref_a), c
        assert _agree(spread, ref_spread, disc * ref_a), c
    for e, f in zip(got, ref):
        assert _agree(e.mean_average, f.mean_average)
        scale = disc * f.mean_average
        for field in ("value", "se", "direct", "other_direct"):
            assert _agree(getattr(e, field), getattr(f, field), scale), field


@pytest.mark.parametrize("parity", [True, False])
@pytest.mark.parametrize("model,r,rho", [("heston", 0.05, 0.5), ("heston", 0.0, -0.9),
                                         ("bns", 0.05, -1.0)])
def test_chunk_fold_matches_per_window_recurrence(model, r, rho, parity, monkeypatch):
    # the engine maps a chunk of windows' statistics to rows and folds them in
    # one update; each window's row, mapped alone and folded one window at a
    # time by the recurrence, gives the same estimator at every checkpoint, up
    # to the order of the sums
    make_params, make_driver, _ = MODELS[model]
    params = make_params(r, rho)
    sched = make_polynomial_schedule(1.0, 1 / 3, 1.0, 1 / 3)
    T, n = 1.0, 9000
    assert n > 2 * engine._BLOCK
    specs = [AsianSpec(K=k, T=T, kind="call", r=r) for k in STRIKES]
    got, res, values = _grid_run(make_driver(params), sched, specs, n, False, parity,
                                 monkeypatch)
    assert len(values) == n

    avg, ref_checkpoints = engine.FunctionalAverage(), []
    grid = [10**i for i in range(len(str(n))) if 10**i < n] + [n]
    for k, value in enumerate(values, start=1):
        avg.update(sched.eta(k), value)
        if k in grid:
            ref_checkpoints.append((k, avg.value))
    ref_res = engine.RunResult(average=avg, checkpoints=ref_checkpoints)
    ref = pricing._assemble(specs, np.array(STRIKES), ref_res, params, parity, T, r)

    disc = math.exp(-r * T)
    assert [c for c, _ in res.checkpoints] == grid
    for (c, vec), (_, ref_vec) in zip(res.checkpoints, ref_checkpoints):
        (legs, a, spread), (ref_legs, ref_a, ref_spread) = _split(vec), _split(ref_vec)
        assert _agree(a, ref_a), c
        assert _agree(legs, ref_legs, disc * ref_a), c
        assert _agree(spread, ref_spread, disc * ref_a), c
    assert res.average.weight_total == pytest.approx(sched.H(n), rel=1e-12)
    for e, f in zip(got, ref):
        scale = disc * f.mean_average
        for field in ("value", "se", "direct", "other_direct"):
            assert _agree(getattr(e, field), getattr(f, field), scale), field
        assert [v for _, v in e.checkpoints] == pytest.approx(
            [v for _, v in f.checkpoints], rel=1e-12, abs=1e-12 * scale)


BLOCK_CASES = [
    # (model, r, rho, T, n, shape): the first block at T = 0.1 holds one-point
    # windows (T < gamma) up to j = 998 and two-point ones after them; at T = 8
    # its windows grow from 15 to 129 points, so the late ones span many chunks
    # of the shortest window's length; and no discounting with rho = -0.9
    ("heston", 0.05, 0.5, 0.1, engine._BLOCK, "one-point"),
    ("bns", 0.05, -1.0, 0.1, engine._BLOCK, "one-point"),
    ("heston", 0.05, 0.5, 8.0, engine._BLOCK, "many chunks"),
    ("bns", 0.05, -1.0, 8.0, engine._BLOCK, "many chunks"),
    ("heston", 0.0, -0.9, 1.0, 2 * engine._BLOCK + 500, "r = 0"),
]


@pytest.mark.parametrize("model,r,rho,T,n,shape", BLOCK_CASES)
def test_block_stats_match_per_window_reference(model, r, rho, T, n, shape):
    # every window of a block, its average and terminal value and their
    # payoff legs, against the window rebuilt from its own states
    make_params, make_driver, reference_path = MODELS[model]
    params = make_params(r, rho)
    sched = make_polynomial_schedule(1.0, 1 / 3, 1.0, 1 / 3)
    driver = make_driver(params)
    blocks = []
    engine.run(driver, sched, lambda w: (w.a == 0 and blocks.append(w.block)) or 0.0, T, n,
               stream(5, 0))
    assert len(blocks) == -(-n // engine._BLOCK)
    disc = math.exp(-r * T)
    strikes = np.array(STRIKES)

    def legs(stat):
        return disc * np.maximum(np.concatenate((stat[:, None] - strikes, strikes - stat[:, None]),
                                                axis=1), 0.0)

    for block in blocks:
        a = np.arange(len(block.ends))
        segs = block.ends - a
        if shape == "one-point":
            assert (segs == 0).any() and (segs > 0).any()
        elif shape == "many chunks":
            assert segs.max() >= 3 * segs[segs > 0].min()
        paths = [reference_path(engine.Window(block, i, int(b)), params)
                 for i, b in enumerate(block.ends)]
        got = driver.window_stats(block)
        for stat, statistic in zip(got, (PricePathView.average, PricePathView.terminal)):
            ref = np.array([statistic(p) for p in paths])
            assert _agree(stat, ref)
            assert _agree(legs(stat), legs(ref), disc * ref[:, None])


def test_potential_far_past_the_exp_range():
    # r = 5: r * Gamma_n passes 709, where e^{r Gamma_n} overflows, near
    # n = 900; only differences inside one window are exponentiated
    sched = make_polynomial_schedule(1.0, 1 / 3, 1.0, 1 / 3)
    n = 6000
    assert 5.0 * sched.Gamma(n - 1) > 2000.0
    specs = [AsianSpec(K=k, T=1.0, kind="call", r=5.0) for k in STRIKES]
    with np.errstate(over="raise", invalid="raise"):
        ests = pricing.price_asian_grid(HestonDriver(heston(5.0, 0.5)), sched, specs, n,
                                        stream(5, 0), use_parity=False)
    assert all(math.isfinite(e.value) and math.isfinite(e.se) for e in ests)
    # (1/T) int_0^T 50 e^{5t} dt is about 1474
    assert ests[0].mean_average == pytest.approx(50.0 * math.expm1(5.0) / 5.0, rel=0.05)
