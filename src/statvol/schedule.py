"""Polynomial step/weight schedules and the window index arithmetic.

A schedule pairs a non-increasing step sequence ``gamma_n = c2 * n**-rho2``
(which sets the simulation clock ``Gamma_n = gamma_1 + ... + gamma_n``) with
a weight sequence ``eta_n = c1 * n**-rho1`` (which sets the averaging mass
``H_n = eta_1 + ... + eta_n``).  Steps shrink to zero while their sum
diverges, so a single trajectory sweeps ever finer discretizations of an
unbounded time range; the weights control how window functionals are folded
into the running average.

Two index maps drive the windowed averaging:

* ``horizon_index(n, T)`` -- the largest ``k`` with ``Gamma_k - Gamma_n <= T``,
  i.e. the last grid index inside the window of physical length ``T`` that
  starts at index ``n``.
* ``window_start(n, T)`` -- the smallest ``k`` with ``Gamma_n - Gamma_k <= T``,
  the reverse map used for bookkeeping bounds.

Both are defined through the single floating-point predicate
``Gamma[a] - Gamma[b] <= T`` so that the duality
``horizon_index(k-1, T) <= n-1  <=>  window_start(n, T) >= k``
holds exactly, not just up to rounding.

The ``check_*`` functions report whether a schedule satisfies the standard
step/weight admissibility conditions for ergodic averaging, giving both the
closed-form verdict for the polynomial family and numerical evidence over a
documented scan range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Schedule",
    "ScheduleError",
    "Diagnostic",
    "make_polynomial_schedule",
    "check_weight_step_condition",
    "check_invariance_condition",
    "check_series_condition",
]

# Prefix sums are extended in blocks: within a block numpy's cumsum is used
# (error <= block_size * eps of the block sum) and block offsets are chained
# with exactly rounded block totals (math.fsum) plus Kahan compensation, so
# Gamma_n at n ~ 1e6 stays within ~1e-13 relative of the exact sum.
_BLOCK = 4096


class ScheduleError(ValueError):
    """Invalid schedule parameters or arguments."""


def _read_only(view: np.ndarray) -> np.ndarray:
    # A view shares memory with the cache that every run on this schedule
    # reads.  It stays valid when ensure() later grows the cache, because
    # growth copies into new arrays and leaves the viewed values in place.
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class Diagnostic:
    """Outcome of a schedule admissibility check.

    ``passed`` is the closed-form verdict for the polynomial family;
    ``evidence`` carries the numerical scan results backing it up.
    """

    name: str
    passed: bool
    summary: str
    evidence: dict = field(default_factory=dict)

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"{self.name}: {status} ({self.summary})"


class Schedule:
    """Cached polynomial step/weight sequences with extendable prefix sums.

    Instances are effectively immutable: ``ensure(n)`` may grow the cached
    prefix arrays (single-writer; not thread safe), after which any number
    of threads may read concurrently.  Index 0 is the empty prefix
    (``Gamma_0 = H_0 = 0``); sequence values start at index 1.
    """

    __slots__ = ("c1", "rho1", "c2", "rho2", "_gam", "_Gam", "_eta", "_H", "_n")

    def __init__(self, c1: float, rho1: float, c2: float, rho2: float):
        if not (c1 > 0.0 and c2 > 0.0):
            raise ScheduleError(f"scales must be positive, got c1={c1}, c2={c2}")
        if not 0.0 < rho2 <= 1.0:
            raise ScheduleError(f"step exponent rho2 must lie in (0, 1], got {rho2}")
        if not 0.0 <= rho1 <= 1.0:
            raise ScheduleError(f"weight exponent rho1 must lie in [0, 1], got {rho1}")
        self.c1 = float(c1)
        self.rho1 = float(rho1)
        self.c2 = float(c2)
        self.rho2 = float(rho2)
        cap = _BLOCK
        self._gam = np.zeros(cap)
        self._eta = np.zeros(cap)
        self._Gam = np.zeros(cap)
        self._H = np.zeros(cap)
        self._n = 0  # largest index with valid cached values
        self.ensure(_BLOCK - 1)

    # -- cache management -------------------------------------------------

    def ensure(self, n: int) -> None:
        """Extend cached sequences/prefix sums through index ``n``.

        Single-writer: callers running concurrent readers must call this
        up front (the CLI extends through ``engine.window_sweep_reach``
        before its replication fan-out).
        """
        if n <= self._n:
            return
        # Always materialize whole aligned blocks (indices m*B+1 .. (m+1)*B)
        # so the cached values at any index are independent of the ensure()
        # call pattern.
        target = ((n + _BLOCK - 1) // _BLOCK) * _BLOCK
        cap = len(self._gam)
        if target + 1 > cap:
            new_cap = cap
            while new_cap < target + 1:
                new_cap *= 2
            for name in ("_gam", "_eta", "_Gam", "_H"):
                old = getattr(self, name)
                grown = np.zeros(new_cap)
                grown[: len(old)] = old
                setattr(self, name, grown)
        lo = self._n + 1
        while lo <= target:
            hi = lo + _BLOCK  # block covers indices lo .. hi-1
            idx = np.arange(lo, hi, dtype=np.float64)
            g = self.c2 * idx ** (-self.rho2)
            e = self.c1 * idx ** (-self.rho1)
            self._gam[lo:hi] = g
            self._eta[lo:hi] = e
            self._Gam[lo:hi] = self._Gam[lo - 1] + np.cumsum(g)
            self._H[lo:hi] = self._H[lo - 1] + np.cumsum(e)
            # Re-anchor the block boundary with an exactly rounded block sum
            # so cumsum error does not compound across blocks.
            self._Gam[hi - 1] = self._Gam[lo - 1] + math.fsum(g.tolist())
            self._H[hi - 1] = self._H[lo - 1] + math.fsum(e.tolist())
            lo = hi
        self._n = target

    # -- sequence access --------------------------------------------------

    def gamma(self, n: int) -> float:
        if n < 1:
            raise ScheduleError(f"gamma is defined for n >= 1, got {n}")
        self.ensure(n)
        return float(self._gam[n])

    def eta(self, n: int) -> float:
        if n < 1:
            raise ScheduleError(f"eta is defined for n >= 1, got {n}")
        self.ensure(n)
        return float(self._eta[n])

    def Gamma(self, n: int) -> float:
        if n < 0:
            raise ScheduleError(f"Gamma is defined for n >= 0, got {n}")
        self.ensure(n)
        return float(self._Gam[n])

    def H(self, n: int) -> float:
        if n < 0:
            raise ScheduleError(f"H is defined for n >= 0, got {n}")
        self.ensure(n)
        return float(self._H[n])

    def gamma_slice(self, lo: int, hi: int) -> np.ndarray:
        """Read-only view of ``gamma_lo .. gamma_{hi-1}``."""
        self.ensure(hi - 1)
        return _read_only(self._gam[lo:hi])

    def eta_slice(self, lo: int, hi: int) -> np.ndarray:
        """Read-only view of ``eta_lo .. eta_{hi-1}``."""
        self.ensure(hi - 1)
        return _read_only(self._eta[lo:hi])

    def Gamma_slice(self, lo: int, hi: int) -> np.ndarray:
        """Read-only view of ``Gamma_lo .. Gamma_{hi-1}``."""
        self.ensure(hi - 1)
        return _read_only(self._Gam[lo:hi])

    # -- window index maps --------------------------------------------------

    def _diff_le(self, a: int, b: int, T: float) -> bool:
        # Canonical predicate Gamma[a] - Gamma[b] <= T.  Both index maps are
        # defined through this exact expression; see module docstring.
        return self._Gam[a] - self._Gam[b] <= T

    def horizon_index(self, n: int, T: float) -> int:
        """Largest ``k`` with ``Gamma_k - Gamma_n <= T``.

        Gallops up from ``n`` to bracket the boundary, then bisects: one
        search costs O(log(k - n)).  Sweeps over many starts use
        :meth:`horizon_indices`, which calls this once for its largest start.
        """
        if n < 0:
            raise ScheduleError(f"window start must be >= 0, got {n}")
        if not T > 0.0:
            raise ScheduleError(f"horizon must be positive, got {T}")
        lo = n
        # gallop to bracket the boundary, then bisect
        step = 1
        hi = lo + 1
        self.ensure(hi)
        while self._diff_le(hi, n, T):
            lo = hi
            step *= 2
            hi = lo + step
            self.ensure(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self._diff_le(mid, n, T):
                lo = mid
            else:
                hi = mid
        return lo

    def window_start(self, n: int, T: float) -> int:
        """Smallest ``k`` with ``Gamma_n - Gamma_k <= T`` (so ``k <= n``)."""
        if n < 0:
            raise ScheduleError(f"index must be >= 0, got {n}")
        if not T > 0.0:
            raise ScheduleError(f"horizon must be positive, got {T}")
        self.ensure(n)
        if self._diff_le(n, 0, T):
            return 0
        lo, hi = 0, n  # predicate false at lo, true at hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self._diff_le(n, mid, T):
                hi = mid
            else:
                lo = mid
        return hi

    def horizon_indices(self, ks: np.ndarray, T: float) -> np.ndarray:
        """Vectorized ``horizon_index`` over start indices: the engine's window-end map."""
        ks = np.asarray(ks, dtype=np.int64)
        if ks.size == 0:
            return ks.copy()
        kmax = int(ks.max())
        # upper bound on any answer: gallop from kmax
        upper = self.horizon_index(kmax, T) + 1
        self.ensure(upper)
        G = self._Gam
        # searchsorted gives a near-answer; fix up with the canonical
        # predicate so results agree bit-for-bit with horizon_index.
        cand = np.searchsorted(G[: upper + 1], G[ks] + T, side="right") - 1
        cand = np.minimum(cand, upper - 1)
        while True:
            over = G[cand] - G[ks] > T
            if over.any():
                cand[over] -= 1
                continue
            under = (cand < upper - 1) & (G[cand + 1] - G[ks] <= T)
            if under.any():
                cand[under] += 1
                continue
            break
        return cand

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Schedule(c1={self.c1}, rho1={self.rho1}, "
            f"c2={self.c2}, rho2={self.rho2})"
        )


def make_polynomial_schedule(c1: float, rho1: float, c2: float, rho2: float) -> Schedule:
    """Build the schedule ``eta_n = c1 * n**-rho1``, ``gamma_n = c2 * n**-rho2``."""
    return Schedule(c1, rho1, c2, rho2)


# -- admissibility diagnostics ---------------------------------------------


def check_weight_step_condition(
    sched: Schedule, eps: float, n_max: int = 10**6
) -> Diagnostic:
    """Check ``eta_n <= C * gamma_n * H_n**eps`` for some finite constant C.

    The closed-form verdict compares the polynomial growth exponents; the
    scan reports the observed supremum of ``eta_n / (gamma_n * H_n**eps)``
    over ``n <= n_max``, which is the smallest admissible C on that range.
    """
    if not eps < 1.0:
        raise ScheduleError(f"eps must be < 1, got {eps}")
    r1, r2 = sched.rho1, sched.rho2
    # eta/gamma ~ n**(rho2-rho1); H**eps ~ n**(eps*(1-rho1)) for rho1 < 1,
    # ~ (log n)**eps for rho1 = 1.
    a = (r2 - r1) - eps * (1.0 - r1)
    if a < 0.0:
        passed = True
    elif a > 0.0:
        passed = False
    else:
        passed = not (r1 == 1.0 and eps < 0.0 and r2 == 1.0)
    sched.ensure(n_max)
    ratio_sup = 0.0
    argmax = 0
    for lo in range(1, n_max + 1, 2**18):
        hi = min(lo + 2**18, n_max + 1)
        e = sched._eta[lo:hi]
        g = sched._gam[lo:hi]
        h = sched._H[lo:hi]
        ratio = e / (g * h**eps)
        i = int(np.argmax(ratio))
        if ratio[i] > ratio_sup:
            ratio_sup = float(ratio[i])
            argmax = lo + i
    margin = 0.0 if a == 0.0 else -a
    summary = (
        f"exponent margin {margin:+.4g}; observed sup C = {ratio_sup:.6g} "
        f"at n = {argmax} (scan n <= {n_max})"
    )
    return Diagnostic(
        name="weight-step bound",
        passed=passed,
        summary=summary,
        evidence={"observed_constant": ratio_sup, "argmax": argmax, "scan_max": n_max,
                  "exponent_margin": margin},
    )


def check_invariance_condition(sched: Schedule, n_max: int = 10**5) -> Diagnostic:
    """Check the weight-variation condition forcing invariance of weak limits.

    For the polynomial family the closed form is: pass iff ``rho1 == 0`` or
    ``max(0, 2*rho2 - 1) < rho1 < 1``.  The evidence is the Cesaro average
    ``(1/H_n) * sum_{k<=n} max_{l>k} |eta_l - eta_{l-1}| / gamma_l`` at
    ``n = n_max`` (tail maxima truncated at the scan bound), which should
    drift to 0 when the condition holds.
    """
    r1, r2 = sched.rho1, sched.rho2
    passed = r1 == 0.0 or (max(0.0, 2.0 * r2 - 1.0) < r1 < 1.0)
    sched.ensure(n_max + 1)
    eta = sched._eta[1 : n_max + 2]
    gam = sched._gam[1 : n_max + 2]
    dratio = np.abs(np.diff(eta)) / gam[1:]  # entry l-2 is |d eta_l| / gamma_l, l >= 2
    # suffix maxima: tail_max[k-1] = max over l >= k+1 (within the scan)
    tail_max = np.maximum.accumulate(dratio[::-1])[::-1]
    cesaro = float(np.sum(tail_max) / sched._H[n_max])
    mid = n_max // 10
    cesaro_mid = float(np.sum(tail_max[:mid]) / sched._H[mid]) if mid >= 1 else math.nan
    summary = (
        f"closed form {'holds' if passed else 'violated'} "
        f"(rho1={r1}, rho2={r2}); Cesaro average {cesaro:.3e} at n={n_max} "
        f"(vs {cesaro_mid:.3e} at n={mid})"
    )
    return Diagnostic(
        name="weight variation (invariance)",
        passed=passed,
        summary=summary,
        evidence={"cesaro_at_n": cesaro, "cesaro_at_n_over_10": cesaro_mid, "scan_max": n_max},
    )


def check_series_condition(
    sched: Schedule, s: float, eps: float = 0.0, T: float = 1.0, k_max: int = 10**5
) -> Diagnostic:
    """Check summability of ``dN(k, T) / H_k**(s*(1-eps))``.

    For polynomial schedules with ``rho2 <= rho1 < 1`` the series converges
    iff ``s*(1-eps) > 1/(1-rho1)``.  ``rho1 = 1`` makes the criterion void
    and raises.  The evidence reports partial sums at ``k_max/10`` and
    ``k_max`` so growth of the tail is visible.
    """
    if not s > 1.0:
        raise ScheduleError(f"moment order s must exceed 1, got {s}")
    if sched.rho1 == 1.0:
        raise ScheduleError("series criterion requires rho1 < 1")
    if k_max < 10:
        raise ScheduleError(f"scan bound k_max must be >= 10, got {k_max}")
    sigma = s * (1.0 - eps)
    passed = sigma > 1.0 / (1.0 - sched.rho1)
    ks = np.arange(1, k_max + 1, dtype=np.int64)
    N = sched.horizon_indices(ks, T)
    N0 = sched.horizon_index(0, T)
    dN = np.diff(np.concatenate(([N0], N))).astype(np.float64)
    terms = dN / sched._H[1 : k_max + 1] ** sigma
    partial = np.cumsum(terms)
    summary = (
        f"s_eff={sigma:.4g} vs threshold {1.0 / (1.0 - sched.rho1):.4g}; "
        f"partial sums {partial[k_max // 10 - 1]:.6g} (k={k_max // 10}) -> "
        f"{partial[-1]:.6g} (k={k_max})"
    )
    return Diagnostic(
        name="window-increment series",
        passed=passed,
        summary=summary,
        evidence={
            "partial_sum": float(partial[-1]),
            "partial_sum_tenth": float(partial[k_max // 10 - 1]),
            "scan_max": k_max,
            "threshold": 1.0 / (1.0 - sched.rho1),
            "s_effective": sigma,
        },
    )
