"""Stationary stochastic volatility dynamics packaged as engine drivers.

Two models are provided, each as a driver for the windowed-average engine
that supplies only its dynamics and the arrays of its log price along a
block: ``advance`` runs a block of steps, and ``_path_arrays`` gives the
block's log price, segment weights and segment rates.  The shared base
(:class:`_Driver`) maps a state window to the corresponding price path
over ``[0, T]`` from these arrays, and keeps no block between calls:
``window_stats(block)`` gives the time averages and terminal values of
every window of a block, with O(1) work per window from chunked prefix and
suffix sums, and the pricing functional calls it once per block;
``price_path`` gives one window's path, the per-window reference.  Both
states carry the variance ``v`` first, so a marginal accumulator of
dimension 1 folds the variance alone in either model.  Each scheme starts
``v`` at its stationary mean.

Square-root (Heston-type) model
    d S = S (r dt + sqrt((1-rho^2) v) dW1 + rho sqrt(v) dW2)
    d v = k (theta - v) dt + sigma_v sqrt(v) dW2

  The scheme evolves the stationary pair ``(v, y)`` where
  ``d y = -y dt + sqrt(v) dW1~`` is an auxiliary mean-reverting process.
  The price path is reconstructed from a window without simulating any
  stochastic integral: the v-equation gives

      int_0^t sqrt(v) dW2 = (v_t - v_0 - k theta t + k int_0^t v ds) / sigma_v

  exactly (call it ``Lam(t)``), and ``M_t = int sqrt(v) dW1 = y_t - y_0 +
  int_0^t y ds`` is invariant to the window's ``y_0`` (the scheme starts
  ``y`` at 0, its stationary mean).  Then

      S_t = s0 * exp(r t - 0.5 int_0^t v ds + rho Lam(t) + sqrt(1-rho^2) M_t),

  so the log price inside a window is ``E_k - E_j`` for one potential ``E``
  along the trajectory (:meth:`HestonDriver._path_arrays`).  ``window_stats``
  builds ``E`` once per engine block of windows and reads every window's
  statistics from it.

  The invariant law of ``v`` is Gamma with shape ``2 k theta / sigma_v**2``
  and mean ``theta``.

Log-price/subordinator (BNS-type) model
    d X = (r - v/2) dt + sqrt(v) dW + rho dZ      (rho <= 0)
    d v = -mu v dt + dZ

  with ``Z`` a tempered-stable subordinator.  One subordinator increment
  feeds both equations (leverage).  The scheme evolves ``(v, X)``; only
  ``v`` and the increments of ``X`` are stationary, so each window is
  re-based at its own start: ``S_t = s0 * exp(X_t - X_0)``.

  Each step draws its Poisson jump count, then its jumps, then one normal
  from chunks of 8192.  A block makes the same draws in the same order, but
  draws the uniforms of numpy's multiplication-method counts (mean below
  10) ``rng.random(k)`` at a time, ``k`` one per step still to come before
  the next draw of another kind: each such step takes one uniform at
  least, so a batch never draws ahead (:class:`BnsDriver`).  Once a block's
  draws are made, only ``v`` is a recursion: ``v`` runs as one loop over
  Python floats, and ``X``, a running sum of per-step terms of the
  previous ``v``, is one left-to-right ``np.cumsum`` that adds the terms
  in the per-step order, so every state is the step by step scheme's.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import levy
from .engine import DriverStepError, Window, WindowBlock
from .levy import TemperedStableMeasure, TruncationPolicy

__all__ = [
    "HestonParams",
    "BNSParams",
    "PricePathView",
    "HestonDriver",
    "BnsDriver",
    "heston_invariant_gamma",
    "bns_jump_cumulant_rate",
    "growth_rate",
]

_SQRT6 = math.sqrt(6.0)


@dataclass(frozen=True)
class HestonParams:
    """Square-root SSV parameters.

    Requires the positivity condition ``2 k theta > sigma_v**2`` (the
    variance process then never hits 0 from a positive start).  The
    stronger sufficient condition ``2 k theta / sigma_v**2 > 1 + 2
    sqrt(6)/sigma_v`` under which scheme convergence is actually proved is
    only warned about: the benchmark parameter set violates it and works
    fine in practice.
    """

    s0: float
    r: float
    rho: float
    k: float
    theta: float
    sigma_v: float

    def __post_init__(self):
        if not self.s0 > 0.0:
            raise ValueError(f"spot must be positive, got {self.s0}")
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError(f"correlation must lie in [-1, 1], got {self.rho}")
        for name in ("k", "theta", "sigma_v"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not 2.0 * self.k * self.theta > self.sigma_v**2:
            raise ValueError(
                "need 2*k*theta > sigma_v**2 for a positive variance process; "
                f"got 2*k*theta = {2.0 * self.k * self.theta}, sigma_v**2 = {self.sigma_v**2}"
            )
        ratio = 2.0 * self.k * self.theta / self.sigma_v**2
        if not ratio > 1.0 + 2.0 * _SQRT6 / self.sigma_v:
            warnings.warn(
                f"2*k*theta/sigma_v**2 = {ratio:.4g} does not satisfy the sufficient "
                f"scheme-convergence condition (> {1.0 + 2.0 * _SQRT6 / self.sigma_v:.4g}); "
                "proceeding anyway",
                RuntimeWarning,
                stacklevel=2,
            )


@dataclass(frozen=True)
class BNSParams:
    """Log-price/subordinator SSV parameters.

    The scheme's log price starts at 0: each window re-bases it at its own
    start, so no starting value would reach a price.  ``truncation`` sets
    the jump-size threshold of the subordinator increments, which are never
    compensated (the variance only jumps up).
    """

    s0: float
    r: float
    rho: float
    mu: float
    jump: TemperedStableMeasure
    truncation: TruncationPolicy = field(default_factory=TruncationPolicy)

    def __post_init__(self):
        if not self.s0 > 0.0:
            raise ValueError(f"spot must be positive, got {self.s0}")
        if self.rho > 0.0:
            raise ValueError(f"leverage rho must be <= 0, got {self.rho}")
        if not self.mu > 0.0:
            raise ValueError(f"reversion mu must be positive, got {self.mu}")
        if not self.jump.lam > 0.0:
            # the stationary mean of v, the scheme's start, is mean_rate() / mu
            raise ValueError(f"tempering rate lambda must be positive, got {self.jump.lam}")


def heston_invariant_gamma(params: HestonParams) -> tuple[float, float]:
    """(shape, scale) of the Gamma invariant law of v; mean is theta."""
    shape = 2.0 * params.k * params.theta / params.sigma_v**2
    scale = params.sigma_v**2 / (2.0 * params.k)
    return shape, scale


def bns_jump_cumulant_rate(params: BNSParams) -> float:
    """Exponential growth correction ``int (e^{rho y} - 1) pi(dy)`` (<= 0).

    ``E[S_t] = s0 * exp((r + this) * t)``: with uncompensated leverage jumps
    the discounted price is not a martingale, and this rate quantifies the
    drift deficit.
    """
    m, rho = params.jump, params.rho
    if rho == 0.0:
        return 0.0
    a = m.alpha
    return m.c * math.gamma(1.0 - a) * (m.lam**a - (m.lam - rho) ** a) / a


def growth_rate(params) -> float:
    """Exponential growth rate g with ``E[S_t] = s0 * e^{g t}`` for the model."""
    if isinstance(params, HestonParams):
        return params.r
    if isinstance(params, BNSParams):
        return params.r + bns_jump_cumulant_rate(params)
    raise TypeError(f"unsupported parameter record {type(params).__name__}")


# -- price path views ---------------------------------------------------------


def _expm1_over(x: np.ndarray) -> np.ndarray:
    """(e^x - 1)/x elementwise, continuously extended to 1 at 0."""
    out = np.empty_like(x)
    small = np.abs(x) < 1e-8
    out[small] = 1.0 + 0.5 * x[small]
    xs = x[~small]
    out[~small] = np.expm1(xs) / xs
    return out


class PricePathView:
    """Price path over a window ``[0, T]``: its grid values and segment weights.

    Between the grid points the driving state is frozen, so the log price
    is linear on each segment: segment ``i`` starts at ``values[i]`` and has
    length ``l`` and exponential rate ``b``, and ``weights[i] = l (e^{bl} -
    1)/(bl)`` is its exact integral of ``S / values[i]``.  Stepwise paths
    (the log-price model) have ``b = 0``, so their weights are the lengths.
    ``growth`` is the last segment's ``e^{bl}``.  These closed forms make
    the Asian integral exact given the discrete state path.
    """

    __slots__ = ("values", "weights", "horizon", "growth")

    def __init__(self, values: np.ndarray, weights: np.ndarray, horizon: float,
                 growth: float = 1.0):
        self.values = values
        self.weights = weights
        self.horizon = horizon
        self.growth = growth

    def average(self) -> float:
        """Time average ``(1/T) int_0^T S ds``, exact for the discrete path."""
        return float(np.dot(self.values, self.weights)) / self.horizon

    def terminal(self) -> float:
        """Path value at the right edge of the window."""
        return float(self.values[-1] * self.growth)


# -- drivers ------------------------------------------------------------------


class _Driver:
    """The engine driver of a model with state ``(v, .)``.

    A model supplies ``initial_state`` (the stationary mean of ``v``, then
    0), ``advance`` and ``_path_arrays(block)``: the block's log price at
    each column, the weight of each interior segment and each column's
    log-price rate (zero for a stepwise path).  The driver keeps no
    block: :meth:`window_stats` builds these arrays and from them the time
    average and terminal value of every window of a block, and the pricing
    functional calls it once per block.  A window's price is ``s0 exp`` of
    its log price less its value at the window's start.
    """

    def __init__(self, params):
        self.params = params

    def step(self, state, index, gamma, rng):
        """The state at ``index``: :meth:`advance` over the one step ``gamma``."""
        return tuple(self.advance(state, index, np.array([gamma]), rng)[:, 0].tolist())

    def window_stats(self, block: WindowBlock):
        """``(average, terminal)``: every window's time average and terminal value.

        These are :meth:`PricePathView.average` and ``terminal`` of each
        window of ``block``, built from the block's ``_path_arrays`` with O(1)
        work per window on every call: the driver keeps nothing, and the
        pricing functional calls this once per block.

        Window ``a``, columns ``a .. b = ends[a]``, integrates ``S/s0`` to
        ``sum_{a <= i < b} e^{E_i - E_a} w_i`` over its segments plus
        ``e^{E_b - E_a}`` times its tail's weight, with ``E`` the log price
        and ``w`` the segment weights.  The block's segments are cut into
        chunks of ``c`` columns, ``c`` the fewest segments of a window that
        has any, and each chunk's terms ``e^{E_i - E_s} w_i`` are rebased at
        its first column ``s`` and summed from both ends.  A window of ``c``
        segments or more ends in a later chunk than it starts, so its sum is
        the suffix of its first chunk, the whole chunks between and the
        prefix of its last chunk before ``b``, each rescaled by the ``exp``
        of a difference inside the window: nothing is subtracted, so nothing
        cancels, and nothing overflows.  The chunks between are one or none
        once a block's windows differ less than twofold in length (van Herk
        1992; Gil & Werman 1993, applied to sums).  A one-point window has no
        segment before its tail.
        """
        log_price, seg_weights, rates = self._path_arrays(block)
        width = len(log_price)
        b = block.ends
        a = np.arange(len(b))
        segs = b - a
        c = int(np.min(segs, where=segs > 0, initial=width))
        chunks = -(-width // c)
        base = log_price[::c]  # each chunk's first column
        terms = np.zeros(chunks * c)
        terms[: width - 1] = np.exp(log_price[:-1] - np.repeat(base, c)[: width - 1])
        terms[: width - 1] *= seg_weights
        terms = terms.reshape(chunks, c)
        prefix = np.zeros_like(terms)  # each chunk's terms before each column
        np.cumsum(terms[:, :-1], axis=1, out=prefix[:, 1:])
        suffix = np.cumsum(terms[:, ::-1], axis=1)[:, ::-1]  # and from each column on
        ka, kb = a // c, b // c
        start = log_price[a]
        interior = (np.exp(base[ka] - start) * suffix.ravel()[a]
                    + np.exp(base[kb] - start) * prefix.ravel()[b])
        between = kb - ka - 1  # whole chunks ka + 1 .. kb - 1 (-1 for a one-point window)
        for i in range(1, int(between.max()) + 1):
            w = np.flatnonzero(between >= i)  # the windows with an i-th whole chunk
            k = ka[w] + i
            interior[w] += np.exp(base[k] - start[w]) * suffix[k, 0]
        interior[segs == 0] = 0.0
        tail_weight, growth = _tails(block, a, b, rates)
        end = np.exp(log_price[b] - start)
        end *= self.params.s0
        return (self.params.s0 * interior + end * tail_weight) / block.T, end * growth

    def price_path(self, window: Window) -> PricePathView:
        """The window's price path, sliced from the block's arrays."""
        log_price, seg_weights, rates = self._path_arrays(window.block)
        a, b = window.a, window.b
        values = np.exp(log_price[a : b + 1] - log_price[a])
        values *= self.params.s0
        tail_weight, growth = _tails(window.block, np.array([a]), np.array([b]), rates)
        return PricePathView(values, np.append(seg_weights[a:b], tail_weight), window.T,
                             float(growth[0]))


def _tails(block: WindowBlock, a: np.ndarray, b: np.ndarray, rates):
    """Weight and growth of the last segment of each window, columns ``a .. b``.

    The tail ``T - (Gam[b] - Gam[a])`` weighs ``tail * expm1over(x)`` and
    grows by ``e^x``, with ``x = rates[b] * tail``: a zero rate gives the
    tail and 1 exactly.
    """
    tail = block.T - (block.Gam[b] - block.Gam[a])
    x = rates[b] * tail
    return tail * _expm1_over(x), np.exp(x)


# -- square-root model --------------------------------------------------------


class HestonDriver(_Driver):
    """Engine driver for the (v, y) scheme.

    Each step takes two independent scaled Brownian increments, dW2 for v
    first, then dW1 for y; the correlation rho enters only through the
    price path (:meth:`_path_arrays`), never the state dynamics.
    :meth:`advance` draws a block's normals in one call (the Philox stream
    gives the same normals however its draws are split, so any split of a
    span is the same trajectory) and runs its steps as one loop over
    Python floats, with the arithmetic of
    :func:`~statvol.schemes.cir_reflected_step` and
    :func:`~statvol.schemes.ou_companion_step` inlined in their own order.
    """

    def initial_state(self) -> tuple[float, float]:
        """``(theta, 0)``: the stationary means of ``v`` and ``y``."""
        return (self.params.theta, 0.0)

    def advance(self, state, first, gam, rng) -> np.ndarray:
        """States at indices ``first ..``, one per step length in ``gam``."""
        p = self.params
        k, theta, sig = p.k, p.theta, p.sigma_v
        dw = rng.standard_normal((len(gam), 2))
        dw *= np.sqrt(gam)[:, None]
        v, y = state
        vs, ys = [], []
        for g, dw2, dw1 in zip(gam.tolist(), dw[:, 0].tolist(), dw[:, 1].tolist()):
            sv = math.sqrt(v)
            y = y * (1.0 - g) + sv * dw1
            v = abs(v + k * g * (theta - v) + sig * sv * dw2)
            vs.append(v)
            ys.append(y)
        return np.array((vs, ys))

    def _path_arrays(self, block: WindowBlock):
        """Log-price potential ``E``, interior segment weights and segment rates of a block.

        With (v, y) frozen between grid points, the log price of any window
        starting at block column ``a`` is ``E[a + i] - E[a]`` at its grid point
        ``i``, where ``t``, ``IV = int v ds`` and ``IY = int y ds`` run from the
        block's first index:

            E = r t - IV/2 + (rho/sigma_v)(v - k theta t + k IV) + sqrt(1-rho^2)(y + IY).

        This is the window reconstruction ``r t - IV/2 + rho Lam(t) +
        sqrt(1-rho^2) M_t`` with every window's integrals read as differences
        of one block-wide prefix sum.  Between grid points the log price is
        linear with rate ``r - v/2 + rho k (v - theta)/sigma_v + sqrt(1-rho^2) y``;
        the interior weight of the segment after column ``i`` is
        ``gam[i+1] * expm1over(rate[i] gam[i+1])``.  Only differences of ``E``
        inside one window are ever exponentiated, so nothing overflows however
        long the trajectory.
        """
        p = self.params
        v, y = block.cols
        gam = block.gam[1:]
        t = block.Gam - block.Gam[0]
        iv = np.concatenate(([0.0], np.cumsum(v[:-1] * gam)))
        iy = np.concatenate(([0.0], np.cumsum(y[:-1] * gam)))
        rho_c = math.sqrt(1.0 - p.rho**2)
        k, theta, sig = p.k, p.theta, p.sigma_v
        potential = (p.r * t - 0.5 * iv + (p.rho / sig) * (v - k * theta * t + k * iv)
                     + rho_c * (y + iy))
        rates = p.r - 0.5 * v + p.rho * k * (v - theta) / sig + rho_c * y
        return potential, gam * _expm1_over(rates[:-1] * gam), rates


# -- log-price/subordinator model ---------------------------------------------


_CHUNK = 8192  # standard normals per draw from the RNG
_MAX_STEP_JUMPS = 1e7  # largest expected jump count of one BNS step
_MULT_MAX = 10.0  # numpy draws a Poisson count of mean below this by multiplying uniforms


class _Uniforms:
    """The uniforms of a run of steps that draw nothing else, ``rng.random(k)`` at a time.

    Each step of the run draws its Poisson count by numpy's multiplication
    method, so it takes at least one uniform; a batch of at most one per
    step still to come therefore never reaches past the run's last draw.
    Inside a step whose first uniform ``first`` found a jump, the object
    stands in for the rng of :func:`~statvol.levy.compound_poisson_sum`:
    ``poisson`` continues the count from ``first`` and ``random`` hands out
    the next uniforms, drawing one at a time once the batch is used up.
    """

    __slots__ = ("rng", "buf", "pos", "first")

    def __init__(self, rng):
        self.rng = rng
        self.buf = np.empty(0)
        self.pos = 0
        self.first = 0.0

    def ahead(self, k: int) -> np.ndarray:
        """The next ``k`` uniforms, without taking them; those not yet drawn in one call."""
        short = k - (len(self.buf) - self.pos)
        if short > 0:
            self.buf = np.concatenate((self.buf[self.pos :], self.rng.random(short)))
            self.pos = 0
        return self.buf[self.pos : self.pos + k]

    def random(self) -> float:
        if self.pos == len(self.buf):
            return float(self.rng.random())
        self.pos += 1
        return float(self.buf[self.pos - 1])

    def poisson(self, mean: float) -> int:
        """``Generator.poisson(mean)`` for ``0 < mean < 10``, its first uniform already drawn."""
        count, prod, limit = 0, self.first, math.exp(-mean)
        while prod > limit:
            count += 1
            prod *= self.random()
        return count


def _jump_sums(m, us, means, limits, steps, rng, dz) -> None:
    """Write into ``dz`` the jump sums of ``steps``, a run of steps with ``0 < mean < 10``.

    Step ``i`` has no jump when its first uniform is at most ``limits[i] =
    exp(-means[i])``, the test numpy's multiplication method makes; a step
    that finds one draws the rest of its count and its jumps, in the
    per-step order, through :func:`~statvol.levy.compound_poisson_sum`.
    """
    src = _Uniforms(rng)
    lim = limits[steps]
    k, t = len(steps), 0
    while t < k:
        u = src.ahead(k - t)  # one uniform per step left: each step draws one at least
        above = u > lim[t:]
        hit = int(above.argmax())
        if not above[hit]:
            src.pos += k - t
            break
        src.pos += hit + 1
        t += hit + 1
        i = int(steps[t - 1])
        src.first = float(u[hit])
        dz[i] = levy.compound_poisson_sum(m, us[i], means[i], src)


class BnsDriver(_Driver):
    """Engine driver for the (v, x) scheme: variance first, as in :class:`HestonDriver`.

    The subordinator increment over each step is the truncated compound
    Poisson sum of the jumps above the policy's threshold ``u_n``.
    :meth:`advance` computes the thresholds, jump rates and expected jump
    counts of a whole block as float arrays
    (:func:`~statvol.levy.tail_intensities_closed`, on numpy alone, so
    neither building the driver nor running it loads scipy).  A step whose
    threshold is not positive (it underflows to 0), whose expected jump
    count ``gamma * Lambda(u)`` exceeds ``_MAX_STEP_JUMPS = 1e7`` or is NaN
    (its jumps are drawn one at a time, about a microsecond each; benchmark
    and paper-scale steps expect at most 0.02), or whose new variance is
    negative (``gamma * mu > 1``), raises :class:`DriverStepError` with its
    index once the steps before it have run, so no state it returns has
    ``v < 0``.  The first two checks are one array scan each and come
    before any draw.  The log price is stepwise, so each
    window's path is ``s0 exp(x - x_start)`` on the segment lengths.

    Draw order.  Each step draws its Poisson count, then its jumps
    (:func:`~statvol.levy.compound_poisson_sum`), then one standard normal;
    the normals come ``_CHUNK`` at a time, each chunk drawn by the step that
    needs its first normal, after that step's jumps.  :meth:`advance` makes
    exactly these draws, in this order, without one call per step:

    - A count of mean below 10 is numpy's multiplication method: uniforms
      are multiplied until their product is at most ``exp(-mean)``, so a
      step takes one uniform when it has no jump and more when it has one.
      Between two normal chunks and the steps of mean 10 or more, the block
      draws these uniforms with ``rng.random(k)``, where ``k`` is one per
      step still to come: every such step draws one at least, so a batch
      never draws ahead of a chunk of normals, a count of mean 10 or more
      (numpy's PTRS sampler, left to ``rng.poisson`` at its own place in
      the stream) or the end of the block.  A step is decided against
      ``math.exp(-mean)``, the C ``exp`` numpy's sampler calls (``np.exp``
      differs from it in the last bit for some inputs).
    - The rare step with a jump draws the rest of its count and its jumps
      through the unchanged :func:`~statvol.levy.compound_poisson_sum` and
      :func:`~statvol.levy.sample_jump_above`, on the batch's remaining
      uniforms and then on a new batch of the same lower bound.
    - A step with mean 0 draws nothing, as ``rng.poisson(0)`` does.

    So the stream, every state and every jump count are those of the step
    by step scheme however a span is split into blocks.  A block draws all
    its steps' jumps and normals before it runs the recursion; a step that
    fails ends the run, so nothing drawn after it is ever read.

    Recursion.  The step from ``(v, x)`` over ``g`` with jump sum ``d`` and
    normal ``z`` is

        x' = ((x + g (r - v/2)) + sqrt(v) (sqrt(g) z)) + rho d
        v' = (v - (g mu) v) + d

    with the operations grouped as Python evaluates the per-step
    expressions.  Only ``v'`` reads its own past, so :meth:`advance` runs
    ``v`` alone as a loop over Python floats, with ``g mu`` computed for the
    block by numpy (the same correctly rounded product).  Given every
    step's starting ``v``, the three terms of each step's ``x`` are numpy
    arrays, laid out step by step after ``x0`` in one flat array, and
    ``np.cumsum`` (``np.add.accumulate``, which adds strictly left to right)
    gives ``x`` at every third entry: the same additions in the same order,
    so ``x`` is bit for bit the per-step value.  The first negative ``v`` is
    found after the loop and raises at its step, before a threshold or
    jump-count failure later in the block; a negative starting ``v`` fails
    the block's first step, whose ``sqrt(v)`` it would be.
    """

    _normals: tuple | None = None  # (rng, its drawn normals not yet taken)

    def initial_state(self) -> tuple[float, float]:
        """The stationary mean of ``v``, the mean jump rate over ``mu``, and ``x = 0``."""
        p = self.params
        return (p.jump.mean_rate() / p.mu, 0.0)

    def advance(self, state, first, gam, rng) -> np.ndarray:
        """States at indices ``first ..``, one per step length in ``gam``."""
        p = self.params
        m, r, rho, mu = p.jump, p.r, p.rho, p.mu
        # thresholds up to the first one that is not positive, then expected
        # jump counts up to the first one above the cap or NaN; the failing
        # step raises once the steps before it have run
        us = p.truncation.thresholds(gam)
        failure = None
        bad = ~(us > 0.0)
        if bad.any():
            n = int(bad.argmax())
            failure = ValueError(f"threshold must be positive, got {us[n]}")
            us = us[:n]
        means = gam[: len(us)] * levy.tail_intensities_closed(m, us)
        bad = ~(means <= _MAX_STEP_JUMPS)
        if bad.any():
            n = int(bad.argmax())
            failure = ValueError(
                f"expected {means[n]:.3g} jumps in one step, above {_MAX_STEP_JUMPS:.0e}"
            )
            us, means = us[:n], means[:n]
        n = len(means)
        dz, normals = self._draws(us, means, rng)
        v, x0 = state
        vs = [v]  # the variance before each step, then after the last
        for gm, d in zip((gam[:n] * mu).tolist(), dz.tolist()):
            v = v - gm * v + d
            vs.append(v)
        v_path = np.array(vs)
        # a negative start fails the first step, whose sqrt(v) it would be
        negative = np.flatnonzero(v_path < 0.0)
        if n and len(negative):
            j = int(negative[0])
            raise DriverStepError(
                first + max(j - 1, 0), f"variance went negative ({vs[j]}); need gamma*mu <= 1")
        if failure is not None:
            raise DriverStepError(first + n, str(failure)) from failure
        # x adds ((x + drift) + diffusion) + jump per step; cumsum adds left to right
        g, v_prev = gam[:n], v_path[:-1]
        flat = np.empty(3 * n + 1)
        flat[0] = x0
        terms = flat[1:].reshape(n, 3)
        terms[:, 0] = g * (r - 0.5 * v_prev)
        terms[:, 1] = np.sqrt(v_prev) * (np.sqrt(g) * normals[:n])
        # One subordinator increment enters both equations: the log price
        # jumps by rho * dz <= 0 exactly when the variance jumps by dz >= 0.
        terms[:, 2] = rho * dz
        return np.array((v_path[1:], np.cumsum(flat, out=flat)[3::3]))

    def _draws(self, us, means, rng) -> tuple[np.ndarray, np.ndarray]:
        """Each step's jump sum and standard normal, drawn in the per-step order.

        ``us`` and ``means`` are the steps' thresholds and expected jump
        counts.  Both results are float arrays; the normals may run past the
        block's last step.  The normals not taken by one block stay for the
        next on the same ``rng``; a new ``rng`` starts afresh.  Step
        ``len(normals)`` takes the first normal of a new chunk, so its jumps
        come before the chunk.
        """
        m, n = self.params.jump, len(means)
        cached = self._normals
        normals = cached[1] if cached is not None and cached[0] is rng else np.empty(0)
        plain = (means > 0.0) & (means < _MULT_MAX)
        # The C exp numpy's sampler calls: a uniform equal to the limit ends
        # the count, and np.exp is one ulp off it for some means.
        limits = np.fromiter(map(math.exp, (-means).tolist()), float, n)
        dz = np.zeros(n)
        lo = 0
        while lo < n:
            hi = min(len(normals) + 1, n)  # steps lo .. hi-1 draw before the next chunk
            a = lo
            for b in (np.flatnonzero(means[lo:hi] >= _MULT_MAX) + lo).tolist() + [hi]:
                steps = np.flatnonzero(plain[a:b]) + a
                if len(steps):
                    _jump_sums(m, us, means, limits, steps, rng, dz)
                if b < hi:  # a count for numpy's PTRS sampler, at its own place
                    dz[b] = levy.compound_poisson_sum(m, us[b], means[b], rng)
                a = b + 1
            if len(normals) < hi:
                normals = np.concatenate((normals, rng.standard_normal(_CHUNK)))
            lo = hi
        self._normals = (rng, normals[n:])
        return dz, normals

    def _path_arrays(self, block: WindowBlock):
        x = block.cols[1]
        return x, block.gam[1:], np.zeros(len(x))
