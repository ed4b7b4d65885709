"""Tempered-stable subordinator: tail integrals and jump samplers.

The driving noise is a pure-jump subordinator with Levy density

    pi(dy) = c * exp(-lambda * y) * y**(-1 - alpha) dy   on y > 0,

with ``alpha in (0, 1)`` (finite variation, infinite activity).  Exact
increments are not simulable, so a step uses only the jumps above a
vanishing threshold ``u``: a compound Poisson increment from the jumps with
size > u.  It is never compensated: a subordinator is non-decreasing, and
the variance it drives must only jump up.  :class:`TruncationPolicy` gives
a block's thresholds in one ``np.float_power`` call, the C library ``pow``
that Python's ``**`` calls, not the SIMD ``np.power``, so each threshold and
each jump size it sets is the one-float formula's.

Tail quantities are integrated by adaptive quadrature to 1e-10 relative
accuracy (:func:`tail_intensity`, and :func:`small_jump_variance` for the
discarded jumps; both import ``scipy.integrate`` on first use, and no
command calls them); :func:`tail_intensities_closed` evaluates the jump
rates of a block of thresholds through the upper incomplete gamma function,
which is what the model's block driver calls, and
:func:`tail_intensity_closed` is its one-threshold case.  The closed form
is numpy arithmetic on the threshold array (:func:`_upper_gamma` for the
incomplete gamma function), so importing this module loads no scipy and no
command does.
Tests pin the two routes against each other and against an independent
high-precision oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TemperedStableMeasure",
    "TruncationPolicy",
    "tail_intensity",
    "tail_intensity_closed",
    "tail_intensities_closed",
    "small_jump_variance",
    "sample_jump_above",
    "sample_jumps_above",
    "compound_poisson_sum",
    "compound_poisson_increment",
]

_QUAD_RTOL = 1e-10
_EPS = float(np.finfo(float).eps)  # where the incomplete gamma's terms stop


@dataclass(frozen=True)
class TemperedStableMeasure:
    """Parameters (c, lambda, alpha) of the tempered-stable Levy density.

    ``lam = 0`` (the untempered stable case) is accepted so closed-form
    power integrals can be exercised in tests; samplers and first moments
    require ``lam > 0``.
    """

    c: float
    lam: float
    alpha: float

    def __post_init__(self):
        if not self.c > 0.0:
            raise ValueError(f"intensity scale c must be positive, got {self.c}")
        if self.lam < 0.0:
            raise ValueError(f"tempering rate lambda must be >= 0, got {self.lam}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"stability index alpha must lie in (0, 1), got {self.alpha}")

    def mean_rate(self) -> float:
        """First moment of the full measure, ``int_0^inf y pi(dy)`` (needs lam > 0)."""
        if self.lam == 0.0:
            raise ValueError("full first moment diverges without tempering")
        return self.c * math.gamma(1.0 - self.alpha) * self.lam ** (self.alpha - 1.0)


@dataclass(frozen=True)
class TruncationPolicy:
    """Jump-size threshold rule ``u_n = min(1, gamma_n ** power)``.

    Must be positive and non-increasing with ``u_n -> 0``; any power >= 1
    applied to a non-increasing step sequence satisfies this.  ``power=1``
    (threshold equal to the step) is the default; larger powers retain more
    small jumps per step, shrinking the truncation bias at a modest cost in
    extra Poisson draws.
    """

    power: float = 1.0

    def __post_init__(self):
        if not self.power >= 1.0:
            raise ValueError(f"threshold power must be >= 1, got {self.power}")

    def thresholds(self, gammas) -> np.ndarray:
        """The threshold of each step length in ``gammas``, as a float array.

        The cap comes first, so no power of a base above 1 can overflow, and
        ``1.0 ** power`` is exactly 1.  The power is ``np.float_power``,
        whose float64 loop calls the C library ``pow`` that Python's
        ``g ** power`` calls, so every threshold is bit-identical to that
        formula on one float.  The thresholds set the jump sizes, and
        ``np.power``, which dispatches to SIMD code, rounds some of them
        differently, at power 2 too.
        """
        return np.float_power(np.minimum(np.asarray(gammas, dtype=float), 1.0), self.power)


# -- tail integrals ----------------------------------------------------------


def _check_u(u: float) -> None:
    if not u > 0.0:
        raise ValueError(f"threshold must be positive, got {u}")


def tail_intensity(m: TemperedStableMeasure, u: float) -> float:
    """Arrival rate of jumps above ``u``: ``int_u^inf pi(dy)`` by quadrature.

    Substituting ``w = y**-alpha`` absorbs the power factor into the
    Jacobian exactly, leaving ``(c/alpha) * int_0^{u**-alpha}
    exp(-lam * w**(-1/alpha)) dw``: a bounded smooth integrand on a finite
    interval, well conditioned for any threshold.
    """
    _check_u(u)
    if m.lam == 0.0:
        return m.c * u ** (-m.alpha) / m.alpha
    inv_alpha = 1.0 / m.alpha

    def f(w: float) -> float:
        return math.exp(-m.lam * w ** (-inv_alpha)) if w > 0.0 else 0.0

    from scipy import integrate  # imported here, so importing statvol skips it
    val, _ = integrate.quad(
        f, 0.0, u ** (-m.alpha), epsabs=0.0, epsrel=_QUAD_RTOL, limit=200
    )
    return m.c * val / m.alpha


def tail_intensity_closed(m: TemperedStableMeasure, u: float) -> float:
    """Closed form of :func:`tail_intensity` through incomplete gamma functions."""
    return float(tail_intensities_closed(m, [u])[0])


def tail_intensities_closed(m: TemperedStableMeasure, us) -> np.ndarray:
    """Closed form of :func:`tail_intensity` at each threshold of ``us``, as a float array.

    For ``lam > 0`` the rate is ``c * lam**alpha * Gamma(-alpha, lam * u)``,
    the upper incomplete gamma function taken one recurrence step up to
    ``Gamma(1 - alpha, lam * u)``, whose parameter lies in ``(0, 1)``:
    with ``x = lam * u``, ``scale * ((x**-alpha * e**-x - Gamma(1 - alpha, x))
    / alpha)`` and ``scale = c * lam**alpha``; for ``lam = 0`` it is
    ``c * u**-alpha / alpha``.  The thresholds are checked once, as an
    array, and the formula is numpy arithmetic on that array, with one
    :func:`_upper_gamma` call.  A rate can differ by a few ulps from the
    formula on one threshold in Python floats, whose ``pow`` and ``exp``
    round some inputs differently.  The BNS driver's draws read a rate only
    through comparisons of ``exp(-gamma * rate)`` with uniforms, which a few
    ulps change only when a uniform falls between the two floats.
    """
    u = np.asarray(us, dtype=float)
    bad = ~(u > 0.0)  # catches NaN
    if bad.any():
        raise ValueError(f"threshold must be positive, got {u[bad.argmax()]}")
    if m.lam == 0.0:
        return m.c * u ** -m.alpha / m.alpha
    s = -m.alpha
    scale = m.c * m.lam**m.alpha
    x = m.lam * u
    return scale * ((x**s * np.exp(-x) - _upper_gamma(s + 1.0, x)) / (-s))


def _upper_gamma(a: float, x: np.ndarray) -> np.ndarray:
    """The upper incomplete gamma function ``Gamma(a, x)`` for ``0 < a < 1``, at each ``x > 0``.

    Below ``x = a + 1`` it is ``Gamma(a)`` less the lower function, whose
    power series ``gamma(a, x) = x**a e**-x sum_n x**n / (a (a+1) .. (a+n))``
    has positive terms.  From ``a + 1`` up it is ``x**a e**-x`` times the
    continued fraction ``1/(x+1-a - 1(1-a)/(x+3-a - 2(2-a)/(x+5-a - ..)))``,
    evaluated by the modified Lentz method (Numerical Recipes, 3rd ed.,
    section 6.2).  Each element stops at the first term that moves it by at
    most an ulp, so its value does not depend on the other elements of ``x``;
    about 20 series terms or at most about 90 fraction levels.  Both branches
    agree with mpmath to about 1e-14 relative (``tests/test_levy.py``).
    """
    out = np.empty_like(x)
    low = x < a + 1.0
    xl, xh = x[low], x[~low]
    out[low] = math.gamma(a) - _lower_series(a, xl) * (xl**a * np.exp(-xl))
    out[~low] = _upper_fraction(a, xh) * (xh**a * np.exp(-xh))
    return out


def _lower_series(a: float, x: np.ndarray) -> np.ndarray:
    """``sum_n x**n / (a (a+1) .. (a+n))`` at each ``x``, until a term is below an ulp."""
    out = np.empty_like(x)
    live = np.arange(x.size)
    term = np.full(x.size, 1.0 / a)
    total = term.copy()
    n = a
    while live.size:
        n += 1.0
        term *= x / n
        total += term
        done = term <= total * _EPS
        out[live[done]] = total[done]
        keep = ~done
        live, x, term, total = live[keep], x[keep], term[keep], total[keep]
    return out


def _upper_fraction(a: float, x: np.ndarray) -> np.ndarray:
    """``1/(x+1-a - 1(1-a)/(x+3-a - ..))`` at each ``x >= a + 1``, by modified Lentz."""
    out = np.empty_like(x)
    live = np.arange(x.size)
    b = x + (1.0 - a)
    c = np.full(x.size, 1.0 / np.finfo(float).tiny)
    d = 1.0 / b
    h = d.copy()
    i = 0
    while live.size:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = c * d
        h *= delta
        done = np.abs(delta - 1.0) <= _EPS
        out[live[done]] = h[done]
        keep = ~done
        live, b, c, d, h = live[keep], b[keep], c[keep], d[keep], h[keep]
    return out


def small_jump_variance(m: TemperedStableMeasure, u: float) -> float:
    """Variance rate of the discarded jumps: ``int_0^u y^2 pi(dy)`` by quadrature.

    The substitution ``y = s**2`` removes the mild singularity of the
    integrand's derivative at 0.
    """
    _check_u(u)

    def f(s: float) -> float:
        y = s * s
        return 2.0 * s * y ** (1.0 - m.alpha) * math.exp(-m.lam * y)

    from scipy import integrate
    val, _ = integrate.quad(
        f, 0.0, math.sqrt(u), epsabs=0.0, epsrel=_QUAD_RTOL, limit=200
    )
    return m.c * val


# -- samplers ----------------------------------------------------------------


def sample_jump_above(m: TemperedStableMeasure, u: float, rng: np.random.Generator) -> float:
    """One jump size from the tail density ``pi`` restricted to ``(u, inf)``.

    Rejection sampling: propose from the Pareto density
    ``alpha * u**alpha * y**(-1-alpha)`` (exact inverse CDF) and accept with
    probability ``exp(-lam * (y - u))``; at ``lam = 0`` every proposal is
    accepted.
    """
    _check_u(u)
    inv_alpha = 1.0 / m.alpha
    while True:
        y = u * (1.0 - rng.random()) ** (-inv_alpha)
        if m.lam == 0.0 or rng.random() <= math.exp(-m.lam * (y - u)):
            return y


def sample_jumps_above(
    m: TemperedStableMeasure, u: float, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Vectorized batch variant of :func:`sample_jump_above`."""
    _check_u(u)
    out = np.empty(size)
    filled = 0
    inv_alpha = 1.0 / m.alpha
    while filled < size:
        k = size - filled
        y = u * (1.0 - rng.random(k)) ** (-inv_alpha)
        accept = rng.random(k) <= np.exp(-m.lam * (y - u))
        n_acc = int(accept.sum())
        if n_acc:
            out[filled : filled + n_acc] = y[accept]
            filled += n_acc
    return out


def compound_poisson_sum(
    m: TemperedStableMeasure, u: float, mean: float, rng: np.random.Generator
) -> float:
    """Sum of ``Poisson(mean)`` jumps, each drawn from the tail density above ``u``."""
    total = 0.0
    for _ in range(int(rng.poisson(mean))):
        total += sample_jump_above(m, u, rng)
    return total


def compound_poisson_increment(
    m: TemperedStableMeasure,
    u: float,
    gamma: float,
    rng: np.random.Generator,
) -> float:
    """Increment over a step of length ``gamma`` from the jumps above ``u``.

    Draws ``Poisson(gamma * Lambda(u))`` jumps, each from the tail density,
    and returns their sum: non-negative, with mean ``gamma * int_{y>u} y
    pi(dy)`` and variance ``gamma * int_{y>u} y^2 pi(dy)``.
    """
    if not gamma > 0.0:
        raise ValueError(f"step must be positive, got {gamma}")
    return compound_poisson_sum(m, u, gamma * tail_intensity_closed(m, u), rng)
