"""Payoffs, windowed-average price estimators, parity, and implied vol.

The Asian estimators fold discounted payoffs of the reconstructed price
path over shifted windows into the engine's weighted average.  Because the
call and the put are evaluated on the same windows, the pathwise identity
``(A - K)+ - (K - A)+ = A - K`` carries over to the estimators:

    C_n - P_n = e^{-rT} * (weighted mean of A - K)        (exactly)

and the exact call-put gap ``e^{-rT} (E[A] - K)`` is known in closed form
(for a martingale model it is the classical Asian parity
``(s0/(rT)) (1 - e^{-rT}) - K e^{-rT}``).  Estimating the out-of-the-money
leg and reconstructing the other through the gap is the variance-reduced
("parity on") estimator.

The functional hands the engine one float per window, the window's
average (or terminal value), read from the driver's ``window_stats``,
which it calls once per block.  The payoffs are built once per chunk of
the engine's fold: the engine passes a chunk's statistics to the row map,
which builds the discounted payoffs of every strike for the whole chunk as
one 2-D array, with the same elementwise operations a single window would
use.

Standard errors come from the squared payoffs, which the functional
returns after the payoffs so that the engine's one weighted average folds
both, with effective sample size ``H_n^2 / sum eta_k^2``; overlapping
windows make consecutive payoffs strongly correlated, so these bands
understate the error of a single run.  Replication-level spread (fresh seeds) is the
honest band and is what the cross-validation checks use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import engine
from .models import growth_rate
from .schedule import Schedule

__all__ = [
    "AsianSpec",
    "PriceEstimate",
    "BandViolationError",
    "parity_rhs",
    "discounted_average_forward",
    "forward_average",
    "price_asian_grid",
    "price_european_grid",
    "bs_call",
    "implied_vol",
]

_IV_TOL_FACTOR = 1e-10
_SQRT2 = math.sqrt(2.0)


class BandViolationError(ValueError):
    """Price outside the no-arbitrage band, so no implied volatility exists."""


@dataclass(frozen=True)
class AsianSpec:
    """Fixed-strike average-price option on ``(1/T) int_0^T S ds``."""

    K: float
    T: float
    kind: str = "call"
    r: float = 0.0

    def __post_init__(self):
        if self.K < 0.0:
            raise ValueError(f"strike must be >= 0, got {self.K}")
        if not self.T > 0.0:
            raise ValueError(f"maturity must be positive, got {self.T}")
        if self.kind not in ("call", "put"):
            raise ValueError(f"kind must be 'call' or 'put', got {self.kind!r}")


@dataclass
class PriceEstimate:
    """A windowed-average price estimate of one strike of a grid.

    ``K`` is the strike.  ``value`` is the reported price: the direct
    estimator, or, for a grid priced with parity, the parity-reconstructed
    one when the option is in the money against the forward average.
    ``se`` is the naive standard error of the leg that was estimated.
    ``direct`` and ``other_direct`` are the raw legs of this option and of
    its parity partner, estimated on the same windows, and ``mean_average``
    is the weighted mean of the windows' statistic.  ``checkpoints`` holds
    ``(n, value)`` after the first ``n = 1, 10, 100, ...`` windows and after
    the last: the convergence trace, which no command prints yet and which
    the run report (ROADMAP item 8) is to write out.
    """

    K: float
    value: float
    se: float
    direct: float
    other_direct: float
    mean_average: float
    checkpoints: list = field(default_factory=list)  # (n, value) pairs


def _mean_exp_growth(g: float, T: float) -> float:
    """(e^{gT} - 1) / (gT), continuously extended to 1 at g = 0."""
    x = g * T
    if x == 0.0:
        return 1.0
    return math.expm1(x) / x


def parity_rhs(s0: float, r: float, T: float, K: float) -> float:
    """Exact Asian call-put gap for a martingale model:
    ``(s0/(rT)) (1 - e^{-rT}) - K e^{-rT}``, with the removable ``r = 0``
    limit ``s0 - K`` handled analytically."""
    if not T > 0.0:
        raise ValueError(f"maturity must be positive, got {T}")
    if r == 0.0:
        return s0 - K
    return s0 * (-math.expm1(-r * T)) / (r * T) - K * math.exp(-r * T)


def discounted_average_forward(params, T: float) -> float:
    """``e^{-rT} E[(1/T) int_0^T S ds]`` under the model's own growth rate.

    For a martingale model this is ``(s0/(rT)) (1 - e^{-rT})``; with
    uncompensated leverage jumps the growth rate differs from ``r`` and the
    exact gap must use it, otherwise the reconstructed leg inherits a flat
    bias across all strikes.
    """
    g = growth_rate(params)
    return params.s0 * math.exp(-params.r * T) * _mean_exp_growth(g, T)


def forward_average(s0: float, r: float, T: float) -> float:
    """Undiscounted martingale average forward ``s0 (e^{rT} - 1)/(rT)``.

    Used only as the moneyness threshold that picks which leg to estimate.
    """
    return s0 * _mean_exp_growth(r, T)


# -- estimators ---------------------------------------------------------------


def _common_T_r(specs: list[AsianSpec]) -> tuple[float, float]:
    Ts = {s.T for s in specs}
    rs = {s.r for s in specs}
    if len(Ts) != 1 or len(rs) != 1:
        raise ValueError("all specs in one grid run must share maturity and rate")
    return Ts.pop(), rs.pop()


def _naive_se(avg: engine.FunctionalAverage, n_legs: int) -> np.ndarray:
    """Weighted standard errors of the first ``n_legs`` values.

    The functional returns their squares last, after the one statistic.
    """
    vec = np.asarray(avg.value, dtype=float)
    mean = vec[:n_legs]
    var = np.maximum(vec[n_legs + 1:] - mean**2, 0.0)
    return np.sqrt(var * avg.weight_sq_total) / avg.weight_total


def _assemble(
    specs: list[AsianSpec],
    strikes: np.ndarray,
    result: engine.RunResult,
    params,
    use_parity: bool,
    T: float,
    r: float,
) -> list[PriceEstimate]:
    nk = len(strikes)
    vec = np.asarray(result.average.value, dtype=float)
    se = _naive_se(result.average, 2 * nk)
    disc = math.exp(-r * T)
    daf = discounted_average_forward(params, T)
    fwd = forward_average(params.s0, r, T)
    mean_a = float(vec[2 * nk])

    out = []
    for i, spec in enumerate(specs):
        # The spec's own leg, its parity partner, and the shift that maps the
        # partner onto the own leg (C - P = gap).
        gap = daf - spec.K * disc
        own, other, shift = (i, nk + i, gap) if spec.kind == "call" else (nk + i, i, -gap)
        # Parity estimates the out-of-the-money leg (the call when K > fwd,
        # the put otherwise) and reconstructs the other; a constant shift
        # leaves the estimated leg's se unchanged.
        reconstruct = use_parity and (spec.K > fwd) != (spec.kind == "call")

        def value_of(v: np.ndarray) -> float:
            return max(float(v[other]) + shift, 0.0) if reconstruct else float(v[own])

        out.append(
            PriceEstimate(
                K=spec.K,
                value=value_of(vec),
                se=float(se[other if reconstruct else own]),
                direct=float(vec[own]),
                other_direct=float(vec[other]),
                mean_average=mean_a,
                checkpoints=[(n, value_of(np.asarray(v, dtype=float)))
                             for n, v in result.checkpoints],
            )
        )
    return out


def _price_grid(
    driver,
    sched: Schedule,
    specs: list[AsianSpec],
    n_iters: int,
    rng: np.random.Generator,
    statistic: int,
    use_parity: bool,
) -> list[PriceEstimate]:
    """Call and put prices on one statistic of the price path for a strike grid.

    ``statistic`` picks it from the driver's ``window_stats``: 0 for the
    time average, 1 for the terminal value.  One sweep folds, per window,
    the discounted call and put payoffs of every strike, the statistic
    itself and the squared payoffs.  The functional calls ``window_stats``
    once per block, on the block's first window, keeps only that block's
    statistic as a list of floats and returns each window's one float.
    ``engine.run`` hands each chunk's floats to ``range_rows``, which
    builds the chunk's rows at once.
    """
    T, r = _common_T_r(specs)
    strikes = np.array([s.K for s in specs], dtype=float)
    disc = math.exp(-r * T)
    nk = len(strikes)
    # the put leg is the call leg of -a at strike -K: (-a) - (-K) == -(a - K)
    signs = np.repeat([1.0, -1.0], nk)
    signed_strikes = signs * np.tile(strikes, 2)

    def range_rows(stat: np.ndarray) -> np.ndarray:
        """The rows the engine folds for the windows whose statistic is ``stat``, one each."""
        a = stat[:, None]
        rows = np.empty((len(stat), 4 * nk + 1))
        legs = rows[:, : 2 * nk]
        np.multiply(a, signs, out=legs)
        legs -= signed_strikes
        np.maximum(legs, 0.0, out=legs)
        legs *= disc
        rows[:, 2 * nk : 2 * nk + 1] = a
        np.multiply(legs, legs, out=rows[:, 2 * nk + 1 :])
        return rows

    memo = (None, None)  # (block, its windows' statistic as floats)

    def functional(window: engine.Window) -> float:
        nonlocal memo
        if memo[0] is not window.block:
            memo = window.block, driver.window_stats(window.block)[statistic].tolist()
        return memo[1][window.a]

    result = engine.run(driver, sched, functional, T, n_iters, rng, rows=range_rows)
    return _assemble(specs, strikes, result, driver.params, use_parity, T, r)


def price_asian_grid(
    driver,
    sched: Schedule,
    specs: list[AsianSpec],
    n_iters: int,
    rng: np.random.Generator,
    use_parity: bool = True,
) -> list[PriceEstimate]:
    """Estimate a strike grid of Asian prices from one trajectory."""
    return _price_grid(driver, sched, specs, n_iters, rng, 0, use_parity)


def price_european_grid(
    driver,
    sched: Schedule,
    specs: list[AsianSpec],
    n_iters: int,
    rng: np.random.Generator,
) -> list[PriceEstimate]:
    """Estimate terminal-value (European) prices on a shared trajectory."""
    return _price_grid(driver, sched, specs, n_iters, rng, 1, False)


# -- Black-Scholes and implied volatility -------------------------------------


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / _SQRT2)


def _norm_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def bs_call(s0: float, K: float, T: float, r: float, sigma: float) -> float:
    """Black-Scholes European call; ``sigma = 0`` returns the discounted intrinsic."""
    if not T > 0.0:
        raise ValueError(f"maturity must be positive, got {T}")
    if sigma < 0.0:
        raise ValueError(f"volatility must be >= 0, got {sigma}")
    if K <= 0.0:
        return s0
    if sigma == 0.0:
        return max(s0 - K * math.exp(-r * T), 0.0)
    st = sigma * math.sqrt(T)
    d1 = (math.log(s0 / K) + (r + 0.5 * sigma * sigma) * T) / st
    d2 = d1 - st
    return s0 * _norm_cdf(d1) - K * math.exp(-r * T) * _norm_cdf(d2)


def _vega(s0: float, K: float, T: float, r: float, sigma: float) -> float:
    st = sigma * math.sqrt(T)
    d1 = (math.log(s0 / K) + (r + 0.5 * sigma * sigma) * T) / st
    return s0 * math.sqrt(T) * _norm_pdf(d1)


def implied_vol(price: float, s0: float, K: float, T: float, r: float) -> float:
    """Invert the Black-Scholes call price for sigma.

    Newton from sigma = 0.2, falling back to bisection when 50 iterations
    have not converged (or Newton leaves the admissible range).  The
    bisection bracket starts at [1e-6, 5] and doubles its upper edge until
    it covers the root, which exists for any price strictly inside the
    no-arbitrage band ``((s0 - K e^{-rT})+, s0)``.
    """
    intrinsic = max(s0 - K * math.exp(-r * T), 0.0)
    if not (intrinsic < price < s0):
        raise BandViolationError(
            f"price {price} outside the no-arbitrage band ({intrinsic}, {s0})"
        )
    tol = _IV_TOL_FACTOR * s0
    sigma = 0.2
    for _ in range(50):
        diff = bs_call(s0, K, T, r, sigma) - price
        if abs(diff) <= tol:
            return sigma
        vega = _vega(s0, K, T, r, sigma)
        if vega <= 0.0 or not math.isfinite(vega):
            break
        step = diff / vega
        nxt = sigma - step
        if not (1e-12 < nxt < 10.0):
            break
        sigma = nxt
    else:
        diff = bs_call(s0, K, T, r, sigma) - price
        if abs(diff) <= tol:
            return sigma

    lo, hi = 1e-6, 5.0
    while bs_call(s0, K, T, r, hi) < price:
        hi *= 2.0
        if hi > 1e4:
            raise BandViolationError(f"no volatility below {hi} reproduces price {price}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        diff = bs_call(s0, K, T, r, mid) - price
        if abs(diff) <= tol:
            return mid
        if diff < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
