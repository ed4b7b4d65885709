"""Single-trajectory engine for weighted window averages.

One engine run owns one trajectory of a stepwise-constant scheme and folds
it into exactly one of the two weighted estimators, each a straight loop
that keeps only what it reads.

*Window sweep* (a path functional).  Iteration ``j`` exposes the shifted
window starting at grid index ``j`` (physical span
``[Gamma_j, Gamma_j + T]``) and evaluates the functional on it.  The values
are folded into a running weighted average a chunk of windows at a time:
with ``H`` the weight total after the chunk,

    value <- value + sum_k (eta_k / H) * (F(window_{k-1}) - value),

the one-window recurrence generalised to a range, which reproduces the
explicit weighted mean ``(1/H_n) sum eta_k F(window_{k-1})`` without
storing the history.  A chunk holds at most ``_RANGE_WINDOWS`` windows and
is cut at every checkpoint, so each checkpoint is the value after exactly
its ``n`` windows.  ``F`` may be split in two: the functional returns one
statistic per window, and a row map ``rows`` turns a chunk's statistics
into the chunk's values at once, so ``F(window) = rows([stat(window)])[0]``
and the per-window call does no array work.  There is no engine-side
second moment: a caller that wants one returns the squares as part of
``F``'s value.  The sweep works in blocks of up to ``_BLOCK`` window
starts ``j0 .. j1-1``.  A block takes its window ends ``N_j = N(j, T)``
from :meth:`Schedule.horizon_indices` and holds the states of
``[j0, N_{j1-1}]`` in one ``(dim, width)`` array that begins with the
previous block's overlap ``[j0, N_{j0-1}]``, together with gamma and Gamma
over the same span and every window's end column, in a
:class:`WindowBlock`.  Each window is that block plus its column range, so
no per-window array is built; a model may build block-wide arrays and
statistics once, and a functional may read each window's from them.
Stored states span one block of starts plus one window, whatever ``n``,
and a chunk's values at most ``_RANGE_WINDOWS`` rows, whatever ``T``.
The trajectory runs exactly to the last window's end, ``N(n-1, T)``.

*Marginal sweep* (a marginal accumulator).  Iteration ``j`` folds the state
at grid index ``j`` with weight ``eta_{j+1}`` into the weighted occupation
measure of the coordinates the accumulator was built for.  It stores no
states and builds no windows, simulates nothing past index ``n-1``, needs
no horizon ``T`` and reads only gamma and eta of the schedule, so it sums
no prefix.  Each run of points between two checkpoints is folded by one
C-level ``map`` of :meth:`MarginalAccumulator.update` over the run's
weights and the tuples of the accumulator's ``dim`` coordinates, drained by
a zero-length ``deque``, so no Python loop runs in the engine per point.
The update is still called once per point: the benchmark's tracer wraps it
and counts one call per point, and a block fold waits until that boundary
moves to blocks.

The trajectory itself is produced by a *driver*: any object with

    ``dim``            -- state dimension d
    ``initial_state()``-- the state at grid index 0
    ``advance(state, first, gam, rng)`` -- the states at grid indices
                          ``first .. first + len(gam) - 1``, as a
                          ``(dim, len(gam))`` float array, given the state at
                          index ``first - 1`` and the step lengths
                          ``gam = (gamma_first, ...)`` (a float array).

Each sweep makes one ``advance`` call per block.  A driver that fails at a
step raises :class:`DriverStepError` with that step's index; the engine
raises it at the first non-finite state a block returns.  Drivers are
strictly sequential (each step depends on the last); parallelism belongs at
the replication level with one RNG stream per engine run.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from itertools import islice, repeat
from typing import Callable, Sequence

import numpy as np

from .schedule import Schedule

__all__ = [
    "DriverStepError",
    "Window",
    "WindowBlock",
    "FunctionalAverage",
    "MarginalAccumulator",
    "MarginalStats",
    "RunResult",
    "run",
]

# Window starts per block of the window sweep.
_BLOCK = 4096
# Windows per chunk of the fold, and so per call of a row map.
_RANGE_WINDOWS = 256


class DriverStepError(RuntimeError):
    """Driver failure, carrying the offending grid index."""

    def __init__(self, index: int, message: str):
        super().__init__(f"driver step to index {index} failed: {message}")
        self.index = index


@dataclass(eq=False, slots=True)
class WindowBlock:
    """The trajectory and schedule that one block of windows reads.

    ``cols`` holds the states of global indices ``[j0, N_{j1-1}]`` from
    ``start = j0`` on, one row per coordinate; ``gam`` and ``Gam`` hold gamma
    and Gamma over the same indices, so column ``i`` is index ``start + i``.
    The window starting at column ``a`` ends at column ``ends[a]``.  A model
    may derive block-wide arrays and window statistics from it once and read
    each window's from them.
    """

    cols: np.ndarray
    start: int
    T: float
    gam: np.ndarray
    Gam: np.ndarray
    ends: np.ndarray


class Window:
    """Stepwise-constant path over ``[0, T]``, shifted to start at grid index ``start``.

    The window is columns ``a .. b`` of its ``block``, i.e. global indices
    ``start .. end``.  Grid point ``i`` sits at local time
    ``Gam[a + i] - Gam[a]`` and holds its state for the next step, so the
    segment lengths are ``gam[a + 1 .. b]`` followed by the partial piece
    ``T - (Gam[b] - Gam[a])`` (possibly zero); they sum to ``T``.  A window
    holds only its block and columns; ``start``, ``end`` and ``T`` are read
    from the block when asked for.
    """

    __slots__ = ("block", "a", "b")

    def __init__(self, block: WindowBlock, a: int, b: int):
        self.block = block
        self.a = a
        self.b = b

    @property
    def start(self) -> int:
        return self.block.start + self.a

    @property
    def end(self) -> int:
        return self.block.start + self.b

    @property
    def T(self) -> float:
        return self.block.T

    def __len__(self) -> int:
        return self.b - self.a + 1

    def states(self, coord: int) -> np.ndarray:
        """Values of one state coordinate at the window grid points (a view)."""
        return self.block.cols[coord, self.a : self.b + 1]


class FunctionalAverage:
    """Running weighted mean, folded one window or one chunk of windows at a time.

    After updates with weights ``eta_k`` and values ``f_k``, ``value``
    equals ``(1/H_n) * sum_k eta_k f_k`` up to rounding, where
    ``H_n = sum eta_k`` is kept in ``weight_total`` (and ``sum eta_k^2`` in
    ``weight_sq_total``).  An update takes either one window, a scalar
    ``eta`` with its value, or a chunk, a 1-D ``eta`` with the values
    stacked along the first axis.  Both are the one formula

        value <- value + sum_k (eta_k / H) * (f_k - value),

    with ``H`` the weight total after the update; for one window it is the
    classic recurrence.  Values may be scalars or 1-D numpy arrays (updated
    componentwise); the fold never writes into them.
    """

    __slots__ = ("weight_total", "weight_sq_total", "value")

    def __init__(self) -> None:
        self.weight_total = 0.0
        self.weight_sq_total = 0.0
        self.value: float | np.ndarray = 0.0

    def update(self, eta, f_value) -> "FunctionalAverage":
        if not np.all(eta > 0.0):
            raise ValueError(f"weights must be positive, got {eta}")
        self.weight_total += np.sum(eta)
        self.weight_sq_total += np.dot(eta, eta)
        self.value = self.value + np.dot(eta / self.weight_total, f_value - self.value)
        return self

    def copy_value(self):
        return np.array(self.value, copy=True) if isinstance(self.value, np.ndarray) else self.value


@dataclass
class MarginalStats:
    """Weighted moments and normalized histogram of trajectory marginals."""

    mean: np.ndarray
    variance: np.ndarray
    histogram: np.ndarray  # shape (dim, bins + 2): [underflow, bins..., overflow]
    bin_edges: np.ndarray  # shape (bins + 1,)


class MarginalAccumulator:
    """Weighted moment sums and fixed-bin histograms of the point marginal.

    Fed with ``(eta_k, state at grid index k-1)`` pairs, it tracks the
    weighted occupation of the first ``dim`` state coordinates (later ones
    are not read): per-coordinate first and second moment sums plus a
    histogram with explicit under/overflow bins.  Total accumulated weight
    equals ``H_n``.  :meth:`update` folds one point; with ``dim == 1`` it
    folds that coordinate without the per-coordinate loop, making the same
    float operations in the same order.
    """

    def __init__(self, dim: int, bins: int = 200, lo: float = 0.0, hi: float = 1.0):
        if bins < 1:
            raise ValueError("need at least one histogram bin")
        if not hi > lo:
            raise ValueError(f"histogram range must be increasing, got ({lo}, {hi})")
        self.dim = dim
        self.bins = bins
        self.lo = float(lo)
        self.hi = float(hi)
        self._inv_width = bins / (hi - lo)
        self.weight_total = 0.0
        self._m1 = [0.0] * dim
        self._m2 = [0.0] * dim
        self._hist = [[0.0] * (bins + 2) for _ in range(dim)]
        self.count = 0

    def update(self, eta: float, state: Sequence[float]) -> None:
        self.weight_total += eta
        lo, inv_width, bins = self.lo, self._inv_width, self.bins
        if self.dim == 1:
            # the one coordinate, without the loop: the same operations as below
            x = state[0]
            ex = eta * x
            self._m1[0] += ex
            self._m2[0] += ex * x
            b = int((x - lo) * inv_width)  # raises on a NaN or infinite x
            row = self._hist[0]
            if x < lo:
                row[0] += eta
            elif b < bins:
                row[b + 1] += eta
            else:
                row[bins + 1] += eta
        else:
            m1, m2 = self._m1, self._m2
            for c, row in enumerate(self._hist):
                x = state[c]
                ex = eta * x
                m1[c] += ex
                m2[c] += ex * x  # eta * x * x, which Python evaluates as (eta * x) * x
                b = int((x - lo) * inv_width)  # raises on a NaN or infinite x
                if x < lo:
                    row[0] += eta
                elif b < bins:
                    row[b + 1] += eta
                else:
                    row[bins + 1] += eta
        self.count += 1

    def stats(self) -> MarginalStats:
        if self.count == 0:
            raise ValueError("marginal accumulator is empty")
        w = self.weight_total
        mean = np.array(self._m1) / w
        return MarginalStats(
            mean=mean,
            variance=np.maximum(np.array(self._m2) / w - mean**2, 0.0),
            histogram=np.array(self._hist) / w,
            bin_edges=np.linspace(self.lo, self.hi, self.bins + 1),
        )


@dataclass
class RunResult:
    """Outcome of an engine sweep."""

    n_iters: int
    average: FunctionalAverage | None
    checkpoints: list = field(default_factory=list)  # (n, value) pairs
    marginal_checkpoints: list = field(default_factory=list)  # (n, mean, variance)


def _checkpoint_grid(n_iters: int) -> list[int]:
    grid = []
    p = 1
    while p <= n_iters:
        grid.append(p)
        p *= 10
    if not grid or grid[-1] != n_iters:
        grid.append(n_iters)
    return grid


def _advance(driver, state, first: int, gam: np.ndarray, rng) -> np.ndarray:
    """The driver's states at ``first ..``, failing at the first non-finite one."""
    cols = driver.advance(state, first, gam, rng)
    bad = ~np.isfinite(cols).all(axis=0)
    if bad.any():
        i = int(bad.argmax())
        raise DriverStepError(first + i, f"non-finite state {tuple(cols[:, i].tolist())}")
    return cols


def run(
    driver,
    sched: Schedule,
    functional: Callable[[Window], object] | None,
    T: float | None,
    n_iters: int,
    rng: np.random.Generator,
    marginal: MarginalAccumulator | None = None,
    rows: Callable[[np.ndarray], np.ndarray] | None = None,
) -> RunResult:
    """Sweep ``n_iters`` iterations along one trajectory.

    Exactly one of ``functional`` and ``marginal`` must be given.

    With a ``functional``, iteration ``j`` (zero-based) evaluates it on the
    window of length ``T`` starting at grid index ``j`` and folds its value
    in with weight ``eta_{j+1}``; no other statistic of the value is kept.
    Starts go in blocks of up to ``_BLOCK``: a block first simulates every
    state its windows read, up to the end of its last window, then
    evaluates its windows in order and folds their values a chunk at a
    time, ``value <- value + sum_k (eta_k / H) * (F_k - value)`` over the
    chunk's windows ``k`` with ``H`` the weight total after it
    (:meth:`FunctionalAverage.update`).  A chunk holds at most
    ``_RANGE_WINDOWS`` windows and is cut at every checkpoint.  Without
    ``rows`` the chunk's values are the functional's, stacked; with it they
    are ``rows(np.array(values))``, one row per window, so a functional
    that returns one float per window has its rows built once per chunk.
    ``rows`` needs a functional.  The trajectory ends at
    ``horizon_index(n_iters - 1, T)``.  A failing step raises
    :class:`DriverStepError` carrying its own index.

    With a ``marginal`` accumulator, iteration ``j`` feeds it the state at
    index ``j`` with weight ``eta_{j+1}``; the trajectory ends at index
    ``n_iters - 1`` and ``T`` is not read (pass ``None``).  Iterations go
    in blocks of up to ``_BLOCK``: a block folds the state at its first
    index ``j0``, simulates the rest of its states in one ``advance`` call,
    then folds their first ``marginal.dim`` coordinates.  Points are folded
    a run between checkpoints at a time,
    ``deque(map(marginal.update, eta, points), 0)``: the loop runs in C, but
    each point is still one ``update`` call, which the benchmark counts.
    When a step fails, its block folds none of the states it simulated, so
    the accumulator holds the points ``0 .. j0``.

    Estimates are checkpointed at ``n = 1, 10, 100, ...`` and at the final
    iteration.
    """
    if n_iters < 1:
        raise ValueError(f"need at least one iteration, got {n_iters}")
    if (functional is None) == (marginal is None):
        raise ValueError("give exactly one of a functional and a marginal accumulator")
    if rows is not None and functional is None:
        raise ValueError("a row map needs a functional")
    if functional is not None and (T is None or not 0.0 < T < math.inf):
        raise ValueError(f"window horizon must be positive and finite, got {T}")

    state = [float(x) for x in driver.initial_state()]

    grid = iter(_checkpoint_grid(n_iters))
    cp = next(grid)

    if marginal is not None:
        marginal_checkpoints = []

        def fold(j0, lo, hi, eta, points):
            # the points of block-local indices lo .. hi-1, a run between checkpoints at a time
            nonlocal cp
            while lo < hi:
                stop = min(hi, cp - j0)
                deque(map(marginal.update, eta[lo:stop], islice(points, stop - lo)), 0)
                if j0 + stop == cp:
                    st = marginal.stats()
                    marginal_checkpoints.append((cp, st.mean.copy(), st.variance.copy()))
                    cp = next(grid, n_iters)
                lo = stop

        for j0 in range(0, n_iters, _BLOCK):
            j1 = min(j0 + _BLOCK, n_iters)
            # the block folds indices j0 .. j1-1 and simulates j0+1 .. j1, the
            # next block's first state, but nothing past index n_iters - 1
            last = min(j1, n_iters - 1)
            eta = sched.eta_slice(j0 + 1, j1 + 1).tolist()
            fold(j0, 0, 1, eta, iter((state,)))
            cols = _advance(driver, state, j0 + 1, sched.gamma_slice(j0 + 1, last + 1), rng)
            fold(j0, 1, j1 - j0, eta, zip(*cols[: marginal.dim, : j1 - j0 - 1].tolist()))
            if last > j0:
                state = cols[:, -1].tolist()
        return RunResult(n_iters=n_iters, average=None,
                         marginal_checkpoints=marginal_checkpoints)

    avg = FunctionalAverage()
    checkpoints = []
    cols = np.array(state)[:, None]  # states from index j0 on; `state` is the last one simulated
    for j0 in range(0, n_iters, _BLOCK):
        j1 = min(j0 + _BLOCK, n_iters)
        # the block's window ends and schedule over [j0, N_{j1-1}], as columns from j0
        ends = sched.horizon_indices(np.arange(j0, j1), T) - j0
        last = j0 + int(ends[-1])
        gam = sched.gamma_slice(j0, last + 1)
        Gam = sched.Gamma_slice(j0, last + 1)
        eta = sched.eta_slice(j0 + 1, j1 + 1)
        first = j0 + cols.shape[1]
        cols = np.concatenate((cols, _advance(driver, state, first, gam[first - j0 :], rng)),
                              axis=1)
        block = WindowBlock(cols, j0, T, gam, Gam, ends)

        ends_list = ends.tolist()
        lo = 0
        while lo < j1 - j0:
            # a chunk of windows lo .. hi-1, cut at the next checkpoint
            hi = min(lo + _RANGE_WINDOWS, j1 - j0, cp - j0)
            values = np.array(list(map(functional, map(Window, repeat(block), range(lo, hi),
                                                        ends_list[lo:hi]))))
            avg.update(eta[lo:hi], values if rows is None else rows(values))
            if j0 + hi == cp:
                checkpoints.append((cp, avg.copy_value()))
                cp = next(grid, n_iters)
            lo = hi
        # the overlap [j1, N_{j1-1}] stays for the next block; it is empty when
        # the last window has one point, so the next block starts from `state`
        state = cols[:, -1].tolist()
        cols = cols[:, j1 - j0 :]

    return RunResult(n_iters=n_iters, average=avg, checkpoints=checkpoints)
