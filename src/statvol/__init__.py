"""Ergodic Monte Carlo pricing in stationary stochastic volatility models.

A single decreasing-step trajectory, swept through shifted windows and
folded into weighted averages, approximates expectations of path
functionals under the stationary law -- which is exactly what pricing a
path-dependent option in a stationary stochastic volatility model asks
for.  See the README for the layout and the CLI front-end.
"""

from .engine import FunctionalAverage, MarginalAccumulator, Window, run
from .levy import TemperedStableMeasure, TruncationPolicy
from .models import BNSParams, BnsDriver, HestonDriver, HestonParams
from .pricing import (
    AsianSpec,
    PriceEstimate,
    bs_call,
    implied_vol,
    parity_rhs,
    price_asian_grid,
)
from .rng import stream
from .schedule import Schedule, make_polynomial_schedule

__version__ = "0.1.0"

__all__ = [
    "AsianSpec",
    "BNSParams",
    "BnsDriver",
    "FunctionalAverage",
    "HestonDriver",
    "HestonParams",
    "MarginalAccumulator",
    "PriceEstimate",
    "Schedule",
    "TemperedStableMeasure",
    "TruncationPolicy",
    "Window",
    "bs_call",
    "implied_vol",
    "make_polynomial_schedule",
    "parity_rhs",
    "price_asian_grid",
    "run",
    "stream",
    "__version__",
]
