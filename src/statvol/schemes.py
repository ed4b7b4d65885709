"""One-step kernels of the square-root model's decreasing-step scheme.

Both kernels freeze coefficients at the left endpoint of the step and take
their Brownian increment already scaled, i.e. as ``sqrt(gamma) * N(0, 1)``:
the reflected square-root step for the variance and the unit-rate
mean-reverting companion step.
"""

from __future__ import annotations

import math

__all__ = [
    "cir_reflected_step",
    "ou_companion_step",
]


def cir_reflected_step(
    v: float, gamma: float, k: float, theta: float, sigma_v: float, dW: float
) -> float:
    """Reflected square-root step: |v + k*gamma*(theta - v) + sigma_v*sqrt(v)*dW|.

    The reflection keeps the variance non-negative for every draw, which the
    genuine Euler scheme cannot do.
    """
    return abs(v + k * gamma * (theta - v) + sigma_v * math.sqrt(v) * dW)


def ou_companion_step(y: float, gamma: float, v: float, dW1: float) -> float:
    """Unit-rate mean-reverting step y*(1 - gamma) + sqrt(v)*dW1.

    The companion process that turns the running stochastic integral
    ``int sqrt(v) dW1`` into a functional of a stationary pair.
    """
    return y * (1.0 - gamma) + math.sqrt(v) * dW1
