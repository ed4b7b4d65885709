"""Independent brute-force checks for tests and acceptance runs.

Everything here deliberately re-derives its answer through a route the
main estimators never touch: classical fixed-grid Monte Carlo started from
the exact invariant law, and engine sweeps on a process with a known
stationary law.
Keep it that way -- the value of these oracles is that a bug in the main
path shows up as a disagreement here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import engine
from .models import HestonParams, heston_invariant_gamma
from .pricing import AsianSpec
from .schedule import Schedule
from .schemes import ou_companion_step

__all__ = [
    "OracleEstimate",
    "MomentReport",
    "cir_direct_stationary_price",
    "ou_stationary_check",
]

_BURN_TIME = 10.0  # time units of burn-in before the priced window


@dataclass(frozen=True)
class OracleEstimate:
    value: float
    se: float
    n_paths: int


@dataclass(frozen=True)
class MomentReport:
    mean: float
    variance: float
    expected_variance: float


def cir_direct_stationary_price(
    params: HestonParams,
    spec: AsianSpec,
    n_paths: int,
    fine_step: float,
    rng: np.random.Generator,
) -> OracleEstimate:
    """Classical Monte Carlo price started from the exact invariant law.

    Each path samples v0 from the Gamma invariant distribution, runs v on
    the fine grid for a 10-time-unit burn-in, then simulates (v, S) on it,
    integrating S by the trapezoid rule.  Every step draws the price's
    normal and then v's, the burn-in included, so the stream's layout does
    not depend on what the burn-in reads.  The price
    path is simulated directly in log space -- it never goes through the
    window-reconstruction formulas this oracle is meant to check.
    """
    if not fine_step <= 1e-3 * spec.T:
        raise ValueError(
            f"fine_step must be <= 1e-3 * T = {1e-3 * spec.T}, got {fine_step}"
        )
    p = params
    shape, scale = heston_invariant_gamma(p)
    v = rng.gamma(shape, scale, n_paths)

    h = fine_step
    sh = math.sqrt(h)
    n_burn = int(round(_BURN_TIME / h))
    for _ in range(n_burn):
        sv = np.sqrt(v)
        rng.standard_normal(n_paths)  # the price's noise: unread while burning in
        z2 = rng.standard_normal(n_paths)
        v = np.abs(v + p.k * h * (p.theta - v) + p.sigma_v * sv * sh * z2)

    n_steps = int(round(spec.T / fine_step))
    h = spec.T / n_steps  # land on T exactly
    sh = math.sqrt(h)
    rho_c = math.sqrt(1.0 - p.rho**2)
    s = np.full(n_paths, p.s0)
    integral = np.zeros(n_paths)
    for _ in range(n_steps):
        sv = np.sqrt(v)
        z1 = rng.standard_normal(n_paths)
        z2 = rng.standard_normal(n_paths)
        dlog = (p.r - 0.5 * v) * h + sv * sh * (rho_c * z1 + p.rho * z2)
        s_new = s * np.exp(dlog)
        integral += 0.5 * (s + s_new) * h
        v = np.abs(v + p.k * h * (p.theta - v) + p.sigma_v * sv * sh * z2)
        s = s_new

    avg = integral / spec.T
    disc = math.exp(-spec.r * spec.T)
    if spec.kind == "call":
        payoff = disc * np.maximum(avg - spec.K, 0.0)
    else:
        payoff = disc * np.maximum(spec.K - avg, 0.0)
    value = float(payoff.mean())
    se = float(payoff.std(ddof=1) / math.sqrt(n_paths))
    return OracleEstimate(value=value, se=se, n_paths=n_paths)


class _OUDriver:
    """dy = -y dt + sigma dW as an engine driver (constant variance)."""

    def __init__(self, sigma: float):
        self.var = sigma * sigma

    def initial_state(self):
        return (0.0,)

    def advance(self, state, first, gam, rng):
        y = state[0]
        ys = []
        for g, z in zip(gam.tolist(), rng.standard_normal(len(gam)).tolist()):
            y = ou_companion_step(y, g, self.var, math.sqrt(g) * z)
            ys.append(y)
        return np.array([ys])


def ou_stationary_check(
    sigma: float, sched: Schedule, n_iters: int, rng: np.random.Generator
) -> MomentReport:
    """Engine validation against the known stationary law N(0, sigma^2 / 2).

    Runs the marginal accumulator on the unit-rate mean-reverting driver and
    reports its weighted mean and variance next to the exact variance (the
    exact mean is 0).
    """
    if sigma < 0.0:
        raise ValueError(f"noise scale must be >= 0, got {sigma}")
    half_width = 5.0 * sigma / math.sqrt(2.0) if sigma > 0.0 else 1.0
    marg = engine.MarginalAccumulator(dim=1, bins=200, lo=-half_width, hi=half_width)
    engine.run(_OUDriver(sigma), sched, functional=None, T=None, n_iters=n_iters,
               rng=rng, marginal=marg)
    st = marg.stats()
    return MomentReport(
        mean=float(st.mean[0]),
        variance=float(st.variance[0]),
        expected_variance=0.5 * sigma * sigma,
    )
