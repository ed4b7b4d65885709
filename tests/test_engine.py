"""Engine: running averages, block/window bookkeeping, marginals.

The marginal sweep folds its points a run up to the next checkpoint at a time,
through C-level ``map``; :func:`reference_marginal_run` keeps the plain
per-point loop, with the accumulator's update written out as
:class:`ReferenceMarginal`, and the engine must agree with it exactly.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statvol import engine, schedule
from statvol.engine import DriverStepError, FunctionalAverage, MarginalAccumulator
from statvol.models import HestonDriver, HestonParams, PricePathView
from statvol.pricing import AsianSpec, price_asian_grid
from statvol.rng import stream
from statvol.schedule import Schedule, make_polynomial_schedule


class StepDriver:
    """A test driver written one step at a time: ``advance`` loops over ``step``."""

    def advance(self, state, first, gam, rng):
        cols = np.empty((self.dim, len(gam)))
        for i, g in enumerate(gam.tolist()):
            try:
                state = self.step(state, first + i, g, rng)
            except Exception as exc:
                raise DriverStepError(first + i, str(exc)) from exc
            cols[:, i] = state
        return cols


class ConstantDriver(StepDriver):
    """Frozen trajectory: every step returns the initial state."""

    dim = 1

    def __init__(self, x0=3.5):
        self.x0 = x0

    def initial_state(self):
        return (self.x0,)

    def step(self, state, index, gamma, rng):
        return state


class CountingDriver(ConstantDriver):
    """Records which indices were simulated, for bookkeeping tests."""

    def __init__(self):
        super().__init__(0.0)
        self.simulated = []

    def step(self, state, index, gamma, rng):
        self.simulated.append(index)
        return (float(index),)


class FailingDriver(ConstantDriver):
    def __init__(self, bad):
        super().__init__()
        self.bad = bad

    def step(self, state, index, gamma, rng):
        if index == self.bad:
            raise ValueError("boom")
        return state


class ReferenceMarginal(MarginalAccumulator):
    """The accumulator with its update written plainly, one float operation at a time."""

    def update(self, eta, state):
        self.weight_total += eta
        m1, m2, hist = self._m1, self._m2, self._hist
        lo, inv_width, bins = self.lo, self._inv_width, self.bins
        for c in range(self.dim):
            x = state[c]
            m1[c] += eta * x
            m2[c] += eta * x * x
            b = int((x - lo) * inv_width)
            if x < lo:
                b = -1
            elif b >= bins:
                b = bins
            hist[c][b + 1] += eta
        self.count += 1


def checkpoint_grid(n):
    """The checkpoints of an ``n``-iteration sweep: the powers of ten below ``n``, then ``n``."""
    return [10**i for i in range(len(str(n))) if 10**i < n] + [n]


def reference_marginal_run(driver, sched, n_iters, rng, marginal):
    """The marginal sweep as a per-point loop; returns its checkpoints ``(n, mean, variance)``."""
    cp_grid = set(checkpoint_grid(n_iters))
    checkpoints = []

    def checkpoint(count):
        st_ = marginal.stats()
        checkpoints.append((count, st_.mean.copy(), st_.variance.copy()))

    state = [float(x) for x in driver.initial_state()]
    for j0 in range(0, n_iters, engine._BLOCK):
        j1 = min(j0 + engine._BLOCK, n_iters)
        last = min(j1, n_iters - 1)
        eta = sched.eta_slice(j0 + 1, j1 + 1).tolist()
        marginal.update(eta[0], state)
        if j0 + 1 in cp_grid:
            checkpoint(j0 + 1)
        cols = engine._advance(driver, state, j0 + 1, sched.gamma_slice(j0 + 1, last + 1), rng)
        for j, x in zip(range(j0 + 1, j1), cols.T.tolist()):
            marginal.update(eta[j - j0], x)
            if j + 1 in cp_grid:
                checkpoint(j + 1)
        if last > j0:
            state = cols[:, -1].tolist()
    return checkpoints


# histogram range of EdgeDriver's states
EDGE_LO, EDGE_HI = -0.3, 1.7
EDGES = (EDGE_LO, EDGE_HI, math.nextafter(EDGE_LO, -math.inf), math.nextafter(EDGE_LO, math.inf),
         math.nextafter(EDGE_HI, -math.inf), math.nextafter(EDGE_HI, math.inf),
         EDGE_LO - 1.0, EDGE_HI + 1.0)


class EdgeDriver:
    """States below ``EDGE_LO``, exactly at it, inside, exactly at ``EDGE_HI`` and above it.

    Every third index takes the edge values of ``EDGES`` in turn (shifted by
    one per coordinate); the others are uniform on ``[lo - 1, hi + 1]``.
    """

    def __init__(self, dim):
        self.dim = dim

    def initial_state(self):
        return (EDGE_LO,) * self.dim

    def advance(self, state, first, gam, rng):
        idx = np.arange(first, first + len(gam))
        cols = rng.uniform(EDGE_LO - 1.0, EDGE_HI + 1.0, (self.dim, len(gam)))
        edge = idx % 3 == 0
        pick = (idx[edge] // 3 + np.arange(self.dim)[:, None]) % len(EDGES)
        cols[:, edge] = np.array(EDGES)[pick]
        return cols


class TestFunctionalAverage:
    def test_first_update_equals_value(self):
        avg = FunctionalAverage()
        avg.update(0.7, 42.0)
        assert avg.value == 42.0
        assert avg.weight_total == 0.7

    def test_constant_stream_is_fixed_point(self):
        avg = FunctionalAverage()
        for k in range(1, 200):
            avg.update(1.0 / k, 3.25)
        assert avg.value == pytest.approx(3.25, rel=1e-14)

    def test_two_point_weighted_mean(self):
        avg = FunctionalAverage()
        avg.update(1.0, 2.0)
        avg.update(0.5, 5.0)
        assert avg.value == pytest.approx(3.0, rel=1e-15)

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            FunctionalAverage().update(0.0, 1.0)

    @given(st.lists(st.tuples(st.floats(0.01, 10.0), st.floats(-100.0, 100.0)),
                    min_size=1, max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_recurrence_matches_direct_weighted_mean(self, pairs):
        avg = FunctionalAverage()
        for w, f in pairs:
            avg.update(w, f)
        direct = sum(w * f for w, f in pairs) / sum(w for w, _ in pairs)
        scale = max(1.0, abs(direct))
        assert abs(avg.value - direct) / scale < 1e-10

    def test_long_random_stream_tolerance(self):
        rng = np.random.default_rng(3)
        ws = rng.uniform(0.1, 2.0, 10**4)
        fs = rng.normal(5.0, 2.0, 10**4)
        avg = FunctionalAverage()
        for w, f in zip(ws, fs):
            avg.update(w, f)
        direct = float(np.dot(ws, fs) / ws.sum())
        assert abs(avg.value - direct) / abs(direct) < 1e-10

    def test_vector_values(self):
        avg = FunctionalAverage()
        avg.update(1.0, np.array([2.0, 0.0]))
        avg.update(0.5, np.array([5.0, 3.0]))
        assert avg.value == pytest.approx([3.0, 1.0])

    def test_vector_updates_own_their_value(self):
        # a functional may hand over views of one array of rows: the fold
        # must never write into them
        rows = np.array([[2.0, 0.0], [5.0, 3.0]])
        avg = FunctionalAverage()
        avg.update(1.0, rows[0])
        avg.update(0.5, rows[1])
        assert np.array_equal(rows, [[2.0, 0.0], [5.0, 3.0]])
        value = np.array([2.0, 0.0])
        value = value + (0.5 / 1.5) * (rows[1] - value)
        assert np.array_equal(avg.value, value)

    def test_one_row_chunk_equals_scalar_update(self):
        # a chunk of one window is the recurrence: the same value to rounding,
        # and the rows it reads stay as they were
        rng = np.random.default_rng(5)
        rows = rng.normal(3.0, 2.0, (50, 4))
        etas = rng.uniform(0.1, 2.0, 50)
        before = rows.copy()
        scalar, chunked = FunctionalAverage(), FunctionalAverage()
        for i, eta in enumerate(etas.tolist()):
            scalar.update(eta, rows[i])
            chunked.update(np.array([eta]), rows[None, i])
            assert np.all(np.abs(chunked.value - scalar.value)
                          <= 1e-15 * np.abs(scalar.value)), i
            assert chunked.weight_total == pytest.approx(scalar.weight_total, rel=1e-15)
        assert np.array_equal(rows, before)

    def test_chunk_update_is_the_weighted_mean(self):
        rng = np.random.default_rng(6)
        etas = rng.uniform(0.1, 2.0, 300)
        rows = rng.normal(5.0, 2.0, (300, 3))
        avg = FunctionalAverage()
        for lo, hi in ((0, 1), (1, 10), (10, 256), (256, 300)):
            avg.update(etas[lo:hi], rows[lo:hi])
            direct = etas[:hi] @ rows[:hi] / etas[:hi].sum()
            assert avg.value == pytest.approx(direct, rel=1e-13)
        assert avg.weight_total == pytest.approx(etas.sum(), rel=1e-14)
        assert avg.weight_sq_total == pytest.approx(etas @ etas, rel=1e-14)
        with pytest.raises(ValueError):
            avg.update(np.array([1.0, 0.0]), rows[:2])


class TestRunBookkeeping:
    def test_constant_functional_gives_one(self):
        s = make_polynomial_schedule(1, 1 / 3, 1, 1 / 3)
        res = engine.run(ConstantDriver(), s, lambda w: 1.0, T=1.0,
                         n_iters=500, rng=stream(0, 0))
        assert res.average.value == pytest.approx(1.0, abs=1e-14)

    def test_frozen_trajectory_returns_start(self):
        s = make_polynomial_schedule(1, 1 / 3, 1, 1 / 3)
        res = engine.run(ConstantDriver(2.25), s, lambda w: w.states(0)[0],
                         T=1.0, n_iters=300, rng=stream(0, 0))
        assert res.average.value == pytest.approx(2.25, abs=1e-14)

    def test_unit_step_window_pairs_and_eviction(self):
        # constant step 1, T = 1.5: window j spans indices (j, j+1), and the
        # trajectory ends at the last window's end N(2, T) = 3
        s = make_polynomial_schedule(1.0, 0.0, 1.0, 1e-12)
        driver = CountingDriver()
        seen = []

        def functional(w):
            seen.append((w.start, w.end))
            return 0.0

        engine.run(driver, s, functional, T=1.5, n_iters=3, rng=stream(0, 0))
        assert seen == [(0, 1), (1, 2), (2, 3)]
        assert driver.simulated == [1, 2, 3]

    def test_one_fold_per_window(self, monkeypatch):
        # the engine folds each window's weight exactly once, in order, with
        # that window's value, a chunk of windows per update, and keeps no
        # statistic of its own beside it
        s = make_polynomial_schedule(1, 1 / 3, 1, 1 / 3)
        n = 9000
        assert n > 2 * engine._BLOCK
        folds, values = [], []
        update = FunctionalAverage.update

        def counting(self, eta, f_value):
            folds.append(np.array(eta, copy=True))
            values.append(np.array(f_value, copy=True))
            return update(self, eta, f_value)

        monkeypatch.setattr(FunctionalAverage, "update", counting)
        res = engine.run(ConstantDriver(), s, lambda w: float(w.start), T=1.0, n_iters=n,
                         rng=stream(0, 0))
        assert all(1 <= len(eta) <= engine._RANGE_WINDOWS for eta in folds)
        assert np.concatenate(folds).tolist() == [s.eta(k) for k in range(1, n + 1)]
        assert np.concatenate(values).tolist() == list(range(n))
        direct = sum(s.eta(k) * (k - 1) for k in range(1, n + 1)) / s.H(n)
        assert res.average.value == pytest.approx(direct, rel=1e-12)

    def test_marginal_sweep_is_window_free(self, monkeypatch):
        # without a functional the sweep reads states 0..n-1 only: no
        # horizon search, nothing simulated past index n-1
        s = make_polynomial_schedule(1, 1 / 3, 1, 1 / 3)
        searches = []
        horizon_index = Schedule.horizon_index

        def counting(self, *args, **kwargs):
            searches.append(args)
            return horizon_index(self, *args, **kwargs)

        monkeypatch.setattr(Schedule, "horizon_index", counting)
        driver = CountingDriver()
        acc = MarginalAccumulator(dim=1, bins=10, lo=0.0, hi=10.0)
        engine.run(driver, s, None, T=None, n_iters=5, rng=stream(0, 0), marginal=acc)
        assert driver.simulated == [1, 2, 3, 4]
        assert searches == []
        assert acc.count == 5
        assert acc.stats().mean[0] == pytest.approx(
            sum(k * s.eta(k + 1) for k in range(5)) / s.H(5), rel=1e-14)

    def test_needs_exactly_one_estimator(self):
        s = make_polynomial_schedule(1, 1 / 3, 1, 1 / 3)
        acc = MarginalAccumulator(dim=1)
        with pytest.raises(ValueError, match="exactly one"):
            engine.run(ConstantDriver(), s, lambda w: 0.0, T=1.0, n_iters=5,
                       rng=stream(0, 0), marginal=acc)
        with pytest.raises(ValueError, match="exactly one"):
            engine.run(ConstantDriver(), s, None, T=1.0, n_iters=5, rng=stream(0, 0))
        with pytest.raises(ValueError, match="needs a functional"):
            engine.run(ConstantDriver(), s, None, T=None, n_iters=5, rng=stream(0, 0),
                       marginal=acc, rows=lambda x: x)
        assert acc.count == 0

    def test_nonfinite_horizon_rejected(self):
        s = make_polynomial_schedule(1, 1 / 3, 1, 1 / 3)
        for T in (math.inf, math.nan, 0.0, None):
            with pytest.raises(ValueError, match="positive and finite"):
                engine.run(ConstantDriver(), s, lambda w: 0.0, T=T, n_iters=5,
                           rng=stream(0, 0))

    def test_storage_contract_after_each_step(self):
        # n_iters crosses two block boundaries; the driver's state is its
        # index, so each window shows exactly which states it was handed
        s = make_polynomial_schedule(1, 1 / 3, 1, 1 / 3)
        T, n = 1.0, 9000
        assert n > 2 * engine._BLOCK
        # window lengths grow with the start, so the last window is the longest
        widest = engine._BLOCK + s.horizon_index(n - 1, T) - (n - 1)
        starts, bad = [], []

        def functional(w):
            starts.append(w.start)
            if not (w.end == s.horizon_index(w.start, T)
                    and w.block.ends[w.a] == w.b
                    and np.array_equal(w.states(0), np.arange(w.start, w.end + 1))
                    and w.states(0).base.shape[1] <= widest):
                bad.append(w.start)
            return 0.0

        engine.run(CountingDriver(), s, functional, T=T, n_iters=n, rng=stream(0, 0))
        assert starts == list(range(n))
        assert bad == []

    # Index 5000 lies past the first block's states [0, N(4095, 3.0)], so the
    # failure surfaces while the second block simulates.
    def test_driver_error_carries_index(self):
        s = make_polynomial_schedule(1, 1 / 3, 1, 1 / 3)
        assert s.horizon_index(engine._BLOCK - 1, 3.0) < 5000
        for bad, n in ((5, 50), (5000, 6000)):
            with pytest.raises(DriverStepError) as err:
                engine.run(FailingDriver(bad), s, lambda w: 0.0, T=3.0,
                           n_iters=n, rng=stream(0, 0))
            assert err.value.index == bad

    def test_marginal_failure_folds_none_of_its_block(self):
        # the failing block folds only the state at its first index j0
        s = make_polynomial_schedule(1, 1 / 3, 1, 1 / 3)
        for bad, n, folded in ((7, 20, 1), (5000, 6000, engine._BLOCK + 1)):
            acc = MarginalAccumulator(dim=1)
            with pytest.raises(DriverStepError) as err:
                engine.run(FailingDriver(bad), s, None, T=None, n_iters=n,
                           rng=stream(0, 0), marginal=acc)
            assert err.value.index == bad
            assert acc.count == folded

    def test_nonfinite_state_rejected(self):
        class NanDriver(FailingDriver):
            def step(self, state, index, gamma, rng):
                return (math.nan,) if index == self.bad else state

        s = make_polynomial_schedule(1, 1 / 3, 1, 1 / 3)
        assert s.horizon_index(engine._BLOCK - 1, 3.0) < 5000
        for bad, n in ((3, 50), (5000, 6000)):
            with pytest.raises(DriverStepError) as err:
                engine.run(NanDriver(bad), s, lambda w: 0.0, T=3.0,
                           n_iters=n, rng=stream(0, 0))
            assert err.value.index == bad

    def test_ranges_fit_the_window_budget(self):
        # the chunks the row map receives tile each block's windows in order,
        # each at most _RANGE_WINDOWS rows, however long the windows: T = 16
        # makes the first block's last window 259 segments long
        s = make_polynomial_schedule(1, 1 / 3, 1, 1 / 3)
        n = engine._BLOCK + 300
        blocks, chunks = [], []

        def functional(w):
            if w.a == 0:
                blocks.append(w.block)
            return float(w.start)

        def rows(values):
            chunks.append(values.tolist())
            return values

        engine.run(ConstantDriver(), s, functional, T=16.0, n_iters=n, rng=stream(0, 0),
                   rows=rows)
        block = blocks[0]
        assert block.ends[-1] - (len(block.ends) - 1) > engine._RANGE_WINDOWS
        assert [start for chunk in chunks for start in chunk] == list(range(n))
        assert all(1 <= len(chunk) <= engine._RANGE_WINDOWS for chunk in chunks)
        assert all(chunk[0] // engine._BLOCK == chunk[-1] // engine._BLOCK for chunk in chunks)

    def test_row_map_folds_as_the_mapped_functional(self):
        # mapping a chunk of values to rows at once folds what a functional
        # that returned each window's row would, at every checkpoint; n = 9000
        # crosses two blocks, and the checkpoint 1000 falls inside a chunk
        s = make_polynomial_schedule(1, 1 / 3, 1, 1 / 3)
        n = 9000
        assert n > 2 * engine._BLOCK and 1000 % engine._RANGE_WINDOWS != 0

        def F(w):
            return math.sqrt(w.start) + 0.1 * len(w)

        def G(x):
            return np.stack((x, x * x, np.maximum(x - 5.0, 0.0)), axis=1)

        mapped = engine.run(CountingDriver(), s, F, T=1.0, n_iters=n, rng=stream(0, 0), rows=G)
        ref = engine.run(CountingDriver(), s, lambda w: G(np.array([F(w)]))[0], T=1.0,
                         n_iters=n, rng=stream(0, 0))
        assert [c for c, _ in mapped.checkpoints] == [1, 10, 100, 1000, n]
        assert ([(c, v.tolist()) for c, v in mapped.checkpoints]
                == [(c, v.tolist()) for c, v in ref.checkpoints])
        assert mapped.average.value.tolist() == ref.average.value.tolist()

    @pytest.mark.parametrize("n", [1, 10, 137, 1000, engine._BLOCK, engine._BLOCK + 1, 10**4])
    def test_cuts_follow_the_reference_grid(self, n):
        # both sweeps checkpoint at the reference grid, each n once, and every
        # chunk the row map receives ends at the earliest of its start plus
        # _RANGE_WINDOWS, its block's end and the next checkpoint
        s = make_polynomial_schedule(1, 1 / 3, 1, 1 / 3)
        grid = checkpoint_grid(n)
        assert grid == sorted(set(grid)) and grid[-1] == n
        if n in (137, 1000):
            assert grid == [1, 10, 100, n]
        chunks = []

        def rows(values):
            chunks.append(values.tolist())
            return values

        res = engine.run(ConstantDriver(), s, lambda w: float(w.start), T=0.5, n_iters=n,
                         rng=stream(0, 0), rows=rows)
        assert [c for c, _ in res.checkpoints] == grid
        assert [start for chunk in chunks for start in chunk] == list(range(n))
        for chunk in chunks:
            lo = int(chunk[0])
            block_end = min((lo // engine._BLOCK + 1) * engine._BLOCK, n)
            next_cp = min(c for c in grid if c > lo)
            assert lo + len(chunk) == min(lo + engine._RANGE_WINDOWS, block_end, next_cp), lo
        acc = MarginalAccumulator(dim=1)
        res = engine.run(ConstantDriver(), s, None, T=None, n_iters=n, rng=stream(0, 0),
                         marginal=acc)
        assert [c for c, _, _ in res.marginal_checkpoints] == grid
        assert acc.count == n

    @pytest.mark.parametrize("T", [1.0, 8.0])
    def test_window_sweep_builds_each_schedule_block_once(self, T):
        # an engine block reads the schedule blocks before, at and after its
        # own starts, in turn for each slice it takes, so the memos of three
        # blocks build each of the four blocks the sweep touches once: its
        # powers (the anchor, ensure, reads them) and its prefix rows
        s = make_polynomial_schedule(1, 1 / 3, 1, 1 / 3)
        n = 3 * engine._BLOCK + 100
        params = HestonParams(s0=50.0, r=0.05, rho=0.5, k=2.0, theta=0.01, sigma_v=0.1)
        specs = [AsianSpec(K=50.0, T=T, r=0.05)]
        price_asian_grid(HestonDriver(params), s, specs, n, stream(0, 0))
        assert s._powers.cache_info().misses == s._block.cache_info().misses == 4
        assert (s.horizon_index(n - 1, T) - 1) // schedule._BLOCK == 3

    def test_marginal_sweep_reads_no_prefix_sums(self):
        # the marginal sweep reads gamma and eta alone: it extends no anchor,
        # builds each schedule block's powers once and no prefix rows
        s = make_polynomial_schedule(1, 1 / 3, 1, 1 / 3)
        n = 3 * engine._BLOCK + 100
        acc = MarginalAccumulator(dim=1, bins=10, lo=0.0, hi=0.04)
        params = HestonParams(s0=50.0, r=0.05, rho=0.5, k=2.0, theta=0.01, sigma_v=0.1)
        engine.run(HestonDriver(params), s, None, T=None, n_iters=n, rng=stream(0, 0),
                   marginal=acc)
        assert acc.count == n
        assert s._anchors == [(0.0, 0.0)]
        assert s._powers.cache_info().misses == 4
        assert s._block.cache_info().misses == 0


class TestWindowIntegral:
    """Exact time integral of a stepwise path over its window: ``T * average``."""

    def _path(self, values, lengths, T):
        return PricePathView(np.asarray(values, dtype=float),
                             np.asarray(lengths, dtype=float), T)

    def test_unit_functional_gives_T(self):
        path = self._path([1.0, 1.0], [1.0, 0.5], 1.5)
        assert 1.5 * path.average() == pytest.approx(1.5, rel=1e-15)

    def test_constant_path_identity(self):
        path = self._path([4.0, 4.0, 4.0], [0.5, 0.5, 0.25], 1.25)
        assert 1.25 * path.average() == pytest.approx(5.0, rel=1e-15)

    def test_two_segment_hand_sum(self):
        path = self._path([1.0, 3.0], [1.0, 0.5], 1.5)
        assert 1.5 * path.average() == pytest.approx(2.5, rel=1e-15)


class TestMarginalAccumulator:
    def test_single_update(self):
        acc = MarginalAccumulator(dim=1, bins=10, lo=0.0, hi=1.0)
        acc.update(1.0, (0.35,))
        st_ = acc.stats()
        assert st_.mean[0] == 0.35
        assert st_.variance[0] == pytest.approx(0.0, abs=1e-16)

    def test_two_point_moments(self):
        acc = MarginalAccumulator(dim=1, bins=10, lo=-1.0, hi=3.0)
        acc.update(1.0, (0.0,))
        acc.update(1.0, (2.0,))
        st_ = acc.stats()
        assert st_.mean[0] == pytest.approx(1.0)
        assert st_.variance[0] == pytest.approx(1.0)

    def test_weight_total_is_H(self):
        s = make_polynomial_schedule(1, 1 / 3, 1, 1 / 3)
        acc = MarginalAccumulator(dim=1, bins=10, lo=-1.0, hi=1.0)
        engine.run(ConstantDriver(0.0), s, None, T=0.5, n_iters=250,
                   rng=stream(0, 0), marginal=acc)
        assert acc.weight_total == pytest.approx(s.H(250), rel=1e-12)

    def test_histogram_mass_normalized_with_overflow(self):
        acc = MarginalAccumulator(dim=1, bins=4, lo=0.0, hi=1.0)
        for x in (-0.5, 0.1, 0.3, 0.9, 2.0):
            acc.update(2.0, (x,))
        st_ = acc.stats()
        assert st_.histogram[0].sum() == pytest.approx(1.0, abs=1e-12)
        assert st_.histogram[0][0] == pytest.approx(0.2)   # underflow
        assert st_.histogram[0][-1] == pytest.approx(0.2)  # overflow

    def test_empty_accumulator_raises(self):
        with pytest.raises(ValueError):
            MarginalAccumulator(dim=1).stats()

    @pytest.mark.parametrize("kwargs,match", [
        # dim = 0 would fold only each block's first point and report no moments
        ({"dim": 0}, "state coordinate"),
        ({"dim": 1, "bins": 0}, "histogram bin"),
        ({"dim": 1, "lo": 1.0, "hi": 1.0}, "increasing"),
        ({"dim": 1, "lo": 2.0, "hi": 1.0}, "increasing"),
    ], ids=["dim=0", "bins=0", "hi=lo", "hi<lo"])
    def test_constructor_rejects(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            MarginalAccumulator(**kwargs)

    @pytest.mark.parametrize("dim,width", [(1, 1), (2, 2), (1, 3), (2, 3)],
                             ids=["1", "2", "1-of-3", "2-of-3"])
    @pytest.mark.parametrize("n", [1, 2, 10, 11, engine._BLOCK + 1, 2 * engine._BLOCK + 17])
    def test_fold_matches_per_point_reference(self, n, dim, width):
        # same floats in the same order: every sum, cell and checkpoint is
        # equal, on the one-coordinate path and the general one, also when
        # the driver's states carry coordinates the accumulator does not read
        s = make_polynomial_schedule(1, 1 / 3, 1, 1 / 3)
        got = MarginalAccumulator(dim=dim, bins=7, lo=EDGE_LO, hi=EDGE_HI)
        res = engine.run(EdgeDriver(width), s, None, T=None, n_iters=n, rng=stream(4, 0),
                         marginal=got)
        want = ReferenceMarginal(dim=dim, bins=7, lo=EDGE_LO, hi=EDGE_HI)
        want_cps = reference_marginal_run(EdgeDriver(width), s, n, stream(4, 0), want)
        assert (got._m1, got._m2, got._hist) == (want._m1, want._m2, want._hist)
        assert (got.weight_total, got.count) == (want.weight_total, want.count)
        assert got.count == n
        assert [(c, m.tolist(), v.tolist()) for c, m, v in res.marginal_checkpoints] == \
            [(c, m.tolist(), v.tolist()) for c, m, v in want_cps]
        # the edge values reach the under- and overflow cells in every coordinate
        if n > 20:
            assert all(row[0] > 0.0 and row[-1] > 0.0 for row in got._hist)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_each_point_matches_reference(self, dim):
        # one point per accumulator, so no running sum can absorb a last-bit
        # difference: (eta * x) * x differs from eta * (x * x) for about a
        # third of these points
        rng = np.random.default_rng(8)
        points = rng.uniform(EDGE_LO - 1.0, EDGE_HI + 1.0, (500, 3)).tolist() + [
            [x, EDGES[i - 1], 0.5] for i, x in enumerate(EDGES)]
        for eta, state in zip(rng.uniform(0.01, 1.0, len(points)).tolist(), points):
            got = MarginalAccumulator(dim=dim, bins=7, lo=EDGE_LO, hi=EDGE_HI)
            want = ReferenceMarginal(dim=dim, bins=7, lo=EDGE_LO, hi=EDGE_HI)
            got.update(eta, state)
            want.update(eta, state)
            assert (got._m1, got._m2, got._hist) == (want._m1, want._m2, want._hist), state

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_coordinate_raises(self, bad):
        # dim 1 takes the one-coordinate path, dim 2 the loop; a coordinate
        # past dim is not read
        for dim, state in ((1, (bad,)), (1, (bad, 0.5)), (2, (bad, 0.5)), (2, (0.5, bad))):
            with pytest.raises(Exception) as want:
                ReferenceMarginal(dim=dim, bins=7, lo=EDGE_LO, hi=EDGE_HI).update(0.5, state)
            with pytest.raises(want.type, match=re.escape(str(want.value))):
                MarginalAccumulator(dim=dim, bins=7, lo=EDGE_LO, hi=EDGE_HI).update(0.5, state)
        acc = MarginalAccumulator(dim=1, bins=7, lo=EDGE_LO, hi=EDGE_HI)
        acc.update(0.5, (0.5, bad))
        assert acc.count == 1
