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

import bisect
import functools
import math
import threading
from dataclasses import dataclass

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

# Prefix sums are built in aligned blocks of indices m*B+1 .. (m+1)*B.  Within
# a block numpy's cumsum runs from the block's anchor (error <= B * eps of the
# block sum); the block's last entry, which is the next block's anchor, is the
# anchor plus the exactly rounded block total (math.fsum), so cumsum error does
# not carry across blocks and Gamma_n at n ~ 1e6 stays within ~1e-13 relative
# of the exact sum.
_BLOCK = 4096
# Blocks kept built: an engine block reads the schedule blocks before, at and
# after its starts, in turn for each slice it takes.
_MEMO = 3


def _block_powers(c1: float, rho1: float, c2: float, rho2: float, m: int) -> np.ndarray:
    # Rows gamma and eta over block m, always as one whole aligned block,
    # so every value is independent of the call pattern.
    idx = np.arange(m * _BLOCK + 1, (m + 1) * _BLOCK + 1, dtype=np.float64)
    powers = np.stack((c2 * idx ** (-rho2), c1 * idx ** (-rho1)))
    powers.flags.writeable = False
    return powers


def _block_rows(powers, anchors: list, m: int) -> np.ndarray:
    # Rows gamma, eta, Gamma, H of block m; the caller has ensured its anchors.
    (G0, H0), (G1, H1) = anchors[m], anchors[m + 1]
    g, e = powers(m)
    block = np.stack((g, e, G0 + np.cumsum(g), H0 + np.cumsum(e)))
    block[2:, -1] = G1, H1  # the fsum-anchored block end
    block.flags.writeable = False
    return block


class ScheduleError(ValueError):
    """Invalid schedule parameters or arguments."""


@dataclass(frozen=True)
class Diagnostic:
    """Outcome of a schedule admissibility check.

    ``passed`` is the closed-form verdict for the polynomial family;
    ``summary`` reports the numerical scan results backing it up.
    """

    name: str
    passed: bool
    summary: str


class Schedule:
    """Polynomial step/weight sequences and their prefix sums, regenerated on demand.

    The schedule stores one ``(Gamma, H)`` anchor per aligned block of
    ``_BLOCK`` indices and rebuilds any block from its anchor, so its memory
    grows by one anchor per block, not by arrays over every index reached.
    ``ensure(n)`` extends the anchors under a lock, so any number of threads
    may share one schedule.  ``gamma`` and ``eta`` are closed forms, so
    :meth:`gamma_slice` and :meth:`eta_slice` read a block's powers without
    its anchors: a sweep that reads only them (the marginal sweep) extends
    no anchor and sums no prefix.  The only other shared state is two
    ``functools.lru_cache`` memos of the last ``_MEMO`` blocks asked for,
    one of powers and one of prefix rows; the anchors and the prefix rows
    read the same cached powers, so each block's powers are computed once
    while it is in use.  Index 0 is the empty prefix
    (``gamma_0 = eta_0 = Gamma_0 = H_0 = 0``); sequence values start at
    index 1.
    """

    __slots__ = ("c1", "rho1", "c2", "rho2", "_anchors", "_lock", "_powers", "_block")

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
        self._anchors = [(0.0, 0.0)]  # (Gamma, H) at index m*B, for block m
        self._lock = threading.Lock()
        # The caches wrap module functions bound to the parameters and the
        # anchor list, not methods: they hold no reference to the schedule,
        # so a dropped schedule frees its blocks without the cyclic collector.
        cache = functools.lru_cache(_MEMO)
        self._powers = cache(functools.partial(_block_powers, self.c1, self.rho1,
                                               self.c2, self.rho2))
        self._block = cache(functools.partial(_block_rows, self._powers, self._anchors))

    def ensure(self, n: int) -> None:
        """Extend the anchors through the end of the block holding index ``n``.

        Concurrent callers are safe: extension holds the schedule's lock.
        """
        need = (n - 1) // _BLOCK + 2
        if len(self._anchors) >= need:
            return
        with self._lock:
            anchors = self._anchors
            while len(anchors) < need:
                G0, H0 = anchors[-1]
                g, e = self._powers(len(anchors) - 1)
                anchors.append((G0 + math.fsum(memoryview(g)), H0 + math.fsum(memoryview(e))))

    def _value(self, row: int, n: int) -> float:
        if n == 0:
            return 0.0
        m, i = divmod(n - 1, _BLOCK)
        if row < 2:  # gamma and eta are closed forms: no anchor needed
            return float(self._powers(m)[row, i])
        self.ensure(n)
        return float(self._block(m)[row, i])

    def _range(self, row, lo: int, hi: int, blocks=None) -> np.ndarray:
        """Fresh read-only array of ``row`` over indices ``lo .. hi-1``.

        Rows are 0 gamma, 1 eta, 2 Gamma and 3 H; a list of rows gives a 2-D
        array.  ``blocks`` maps a block number to its rows; the default is
        ``_block``, whose prefix rows need the anchors, which it extends.
        """
        if blocks is None:
            self.ensure(hi - 1)
            blocks = self._block
        parts = [np.zeros((4, 1))[row, lo:hi]]  # index 0, the empty prefix
        first = max(lo, 1)
        for m in range((first - 1) // _BLOCK, (hi - 2) // _BLOCK + 1):
            base = m * _BLOCK + 1
            parts.append(blocks(m)[row, max(first - base, 0) : hi - base])
        out = np.concatenate(parts, axis=-1)
        out.flags.writeable = False
        return out

    # -- sequence access --------------------------------------------------

    def gamma(self, n: int) -> float:
        if n < 1:
            raise ScheduleError(f"gamma is defined for n >= 1, got {n}")
        return self._value(0, n)

    def eta(self, n: int) -> float:
        if n < 1:
            raise ScheduleError(f"eta is defined for n >= 1, got {n}")
        return self._value(1, n)

    def Gamma(self, n: int) -> float:
        if n < 0:
            raise ScheduleError(f"Gamma is defined for n >= 0, got {n}")
        return self._value(2, n)

    def H(self, n: int) -> float:
        if n < 0:
            raise ScheduleError(f"H is defined for n >= 0, got {n}")
        return self._value(3, n)

    def gamma_slice(self, lo: int, hi: int) -> np.ndarray:
        """Fresh read-only array of ``gamma_lo .. gamma_{hi-1}``; extends no anchor."""
        return self._range(0, lo, hi, self._powers)

    def eta_slice(self, lo: int, hi: int) -> np.ndarray:
        """Fresh read-only array of ``eta_lo .. eta_{hi-1}``; extends no anchor."""
        return self._range(1, lo, hi, self._powers)

    def Gamma_slice(self, lo: int, hi: int) -> np.ndarray:
        """Fresh read-only array of ``Gamma_lo .. Gamma_{hi-1}``."""
        return self._range(2, lo, hi)

    # -- window index maps --------------------------------------------------
    #
    # Both maps are defined through the canonical predicate
    # Gamma[a] - Gamma[b] <= T; see the module docstring.

    def horizon_index(self, n: int, T: float) -> int:
        """Largest ``k`` with ``Gamma_k - Gamma_n <= T``.

        Gallops up from ``n`` to bracket the boundary, then bisects the
        bracket with :func:`bisect.bisect_left`: one search costs
        O(log(k - n)).  Sweeps over many starts use :meth:`horizon_indices`,
        which calls this once for its largest start.
        """
        if n < 0:
            raise ScheduleError(f"window start must be >= 0, got {n}")
        _check_horizon(T)
        Gn = self.Gamma(n)
        lo = n
        # gallop until the predicate fails at hi; it holds at lo
        step = 1
        hi = lo + 1
        while self.Gamma(hi) - Gn <= T:
            lo = hi
            step *= 2
            hi = lo + step
        # one before the first index of lo+1 .. hi where the predicate fails
        return lo + bisect.bisect_left(range(lo + 1, hi), True,
                                       key=lambda k: not self.Gamma(k) - Gn <= T)

    def window_start(self, n: int, T: float) -> int:
        """Smallest ``k`` with ``Gamma_n - Gamma_k <= T`` (so ``k <= n``).

        Bisects ``1 .. n`` with :func:`bisect.bisect_left`.  No sweep calls
        it; it is the reverse map of :meth:`horizon_index`, kept so the
        duality between the two can be checked.
        """
        if n < 0:
            raise ScheduleError(f"index must be >= 0, got {n}")
        _check_horizon(T)
        Gn = self.Gamma(n)
        if Gn <= T:  # Gamma_n - Gamma_0
            return 0
        # the predicate fails at 0 and holds at n: the first index of 1 .. n where it holds
        return 1 + bisect.bisect_left(range(1, n), True, key=lambda k: Gn - self.Gamma(k) <= T)

    def horizon_indices(self, ks: np.ndarray, T: float) -> np.ndarray:
        """Vectorized ``horizon_index`` over start indices: the engine's window-end map.

        It builds one ``Gamma`` slice from the smallest start to the window
        end of the largest, so its time and memory follow the span of the
        starts, not their number.  The engine and
        :func:`check_series_condition` pass contiguous starts.
        """
        ks = np.asarray(ks, dtype=np.int64)
        if ks.size == 0:
            return ks.copy()
        kmin = int(ks.min())
        # upper bound on any answer: gallop from the largest start
        upper = self.horizon_index(int(ks.max()), T) + 1
        G = self.Gamma_slice(kmin, upper + 1)  # G[i] is Gamma_{kmin + i}
        Gk = G[ks - kmin]
        # searchsorted gives a near-answer; fix up with the canonical
        # predicate so results agree bit-for-bit with horizon_index.
        cand = np.searchsorted(G, Gk + T, side="right") - 1
        cand = np.minimum(cand, upper - 1 - kmin)
        while True:
            over = G[cand] - Gk > T
            if over.any():
                cand[over] -= 1
                continue
            under = (cand < upper - 1 - kmin) & (G[cand + 1] - Gk <= T)
            if under.any():
                cand[under] += 1
                continue
            break
        return cand + kmin


def _check_horizon(T: float) -> None:
    if not 0.0 < T < math.inf:
        raise ScheduleError(f"horizon must be positive and finite, got {T}")


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
    ratio_sup = 0.0
    argmax = 0
    for lo in range(1, n_max + 1, 2**18):
        g, e, h = sched._range([0, 1, 3], lo, min(lo + 2**18, n_max + 1))
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
    return Diagnostic(name="weight-step bound", passed=passed, summary=summary)


def check_invariance_condition(sched: Schedule, n_max: int = 10**5) -> Diagnostic:
    """Check the weight-variation condition forcing invariance of weak limits.

    For the polynomial family the closed form is: pass iff ``rho1 == 0`` or
    ``max(0, 2*rho2 - 1) < rho1 < 1``.  The summary reports the Cesaro average
    ``(1/H_n) * sum_{k<=n} max_{l>k} |eta_l - eta_{l-1}| / gamma_l`` at
    ``n = n_max`` (tail maxima truncated at the scan bound), which should
    drift to 0 when the condition holds.
    """
    r1, r2 = sched.rho1, sched.rho2
    passed = r1 == 0.0 or (max(0.0, 2.0 * r2 - 1.0) < r1 < 1.0)
    gam, eta = sched._range([0, 1], 1, n_max + 2)
    dratio = np.abs(np.diff(eta)) / gam[1:]  # entry l-2 is |d eta_l| / gamma_l, l >= 2
    # suffix maxima: tail_max[k-1] = max over l >= k+1 (within the scan)
    tail_max = np.maximum.accumulate(dratio[::-1])[::-1]
    cesaro = float(np.sum(tail_max) / sched.H(n_max))
    mid = n_max // 10
    cesaro_mid = float(np.sum(tail_max[:mid]) / sched.H(mid)) if mid >= 1 else math.nan
    summary = (
        f"closed form {'holds' if passed else 'violated'} "
        f"(rho1={r1}, rho2={r2}); Cesaro average {cesaro:.3e} at n={n_max} "
        f"(vs {cesaro_mid:.3e} at n={mid})"
    )
    return Diagnostic(name="weight variation (invariance)", passed=passed, summary=summary)


def check_series_condition(
    sched: Schedule, s: float, eps: float = 0.0, T: float = 1.0, k_max: int = 10**5
) -> Diagnostic:
    """Check summability of ``dN(k, T) / H_k**(s*(1-eps))``.

    For polynomial schedules with ``rho2 <= rho1 < 1`` the series converges
    iff ``s*(1-eps) > 1/(1-rho1)``.  ``rho1 = 1`` makes the criterion void
    and raises.  The summary reports partial sums at ``k_max/10`` and
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
    terms = dN / sched._range(3, 1, k_max + 1) ** sigma
    partial = np.cumsum(terms)
    summary = (
        f"s_eff={sigma:.4g} vs threshold {1.0 / (1.0 - sched.rho1):.4g}; "
        f"partial sums {partial[k_max // 10 - 1]:.6g} (k={k_max // 10}) -> "
        f"{partial[-1]:.6g} (k={k_max})"
    )
    return Diagnostic(name="window-increment series", passed=passed, summary=summary)
