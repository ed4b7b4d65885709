"""Schedule construction, window index maps, and admissibility diagnostics."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from statvol import schedule as sch


@pytest.fixture(scope="module")
def benchmark_schedule():
    return sch.make_polynomial_schedule(1.0, 1.0 / 3.0, 1.0, 1.0 / 3.0)


class TestMakePolynomialSchedule:
    def test_benchmark_values(self, benchmark_schedule):
        s = benchmark_schedule
        assert s.gamma(1) == 1.0
        assert s.eta(1) == 1.0
        assert s.H(3) == pytest.approx(1.0 + 2.0 ** (-1 / 3) + 3.0 ** (-1 / 3), rel=1e-15)

    def test_zero_weight_exponent(self):
        s = sch.make_polynomial_schedule(1.0, 0.0, 1.0, 1.0)
        assert s.eta(17) == 1.0
        assert s.gamma(4) == pytest.approx(0.25)

    @pytest.mark.parametrize(
        "c1,rho1,c2,rho2",
        [(0.0, 0.3, 1.0, 0.3), (1.0, 0.3, -1.0, 0.3), (1.0, 0.3, 1.0, 0.0),
         (1.0, 0.3, 1.0, 1.5), (1.0, -0.1, 1.0, 0.5), (1.0, 1.1, 1.0, 0.5)],
    )
    def test_domain_errors(self, c1, rho1, c2, rho2):
        with pytest.raises(sch.ScheduleError):
            sch.make_polynomial_schedule(c1, rho1, c2, rho2)

    def test_gamma_nonincreasing_H_increasing(self, benchmark_schedule):
        s = benchmark_schedule
        s.ensure(5000)
        g = s.gamma_slice(1, 5001)
        assert np.all(np.diff(g) <= 0.0)
        H = np.array([s.H(n) for n in range(0, 200)])
        assert np.all(np.diff(H) > 0.0)

    def test_slices_are_read_only_views(self, benchmark_schedule):
        s = benchmark_schedule
        for view, value in ((s.gamma_slice(1, 10), s.gamma(5)),
                            (s.eta_slice(1, 10), s.eta(5)),
                            (s.Gamma_slice(1, 10), s.Gamma(5))):
            assert view[4] == value
            with pytest.raises(ValueError):
                view[4] = 0.0

    @pytest.mark.parametrize("lo", [0, 1, 4095, 4096, 4097])
    def test_power_slices_equal_anchored_block_rows(self, lo):
        # gamma_slice and eta_slice read a block's powers without its anchor;
        # they equal the rows of the anchored blocks, within one block and
        # across block boundaries (block m holds indices m*4096+1 .. (m+1)*4096)
        params = (0.8, 0.6, 1.5, 0.25)
        anchored = sch.make_polynomial_schedule(*params)
        anchored.ensure(4 * 4096)
        rows = np.concatenate((np.zeros((2, 1)), *(anchored._block(m)[:2] for m in range(4))),
                              axis=1)  # column i is index i
        for hi in (lo + 1, lo + 2, 4096, 4097, 4098, 8193, 8194, lo + 2 * 4096 + 5):
            if hi <= lo:
                continue
            fresh = sch.make_polynomial_schedule(*params)
            assert np.array_equal(fresh.gamma_slice(lo, hi), rows[0, lo:hi]), hi
            assert np.array_equal(fresh.eta_slice(lo, hi), rows[1, lo:hi]), hi
            assert fresh._anchors == [(0.0, 0.0)]

    def test_prefix_sums_match_exact_summation_at_1e6(self, benchmark_schedule):
        s = benchmark_schedule
        n = 10**6
        s.ensure(n)
        terms = np.arange(1, n + 1, dtype=float) ** (-1.0 / 3.0)
        exact = math.fsum(terms.tolist())
        assert abs(s.Gamma(n) - exact) / exact < 1e-12
        assert abs(s.H(n) - exact) / exact < 1e-12

    # (n, gamma_n, eta_n, Gamma_n, H_n), captured from the growable-cache
    # schedule this one replaced; block 0, both sides of the first block
    # boundary, and far blocks must all be regenerated bit for bit.
    PINNED = {
        (1.0, 1.0 / 3.0, 1.0, 1.0 / 3.0): [
            (1, "0x1.0000000000000p+0", "0x1.0000000000000p+0",
             "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
            (4096, "0x1.0000000000001p-4", "0x1.0000000000001p-4",
             "0x1.7f0ed1d5c1a9ap+8", "0x1.7f0ed1d5c1a9ap+8"),
            (4097, "0x1.fff555c716ea4p-5", "0x1.fff555c716ea4p-5",
             "0x1.7f1ed1806fe25p+8", "0x1.7f1ed1806fe25p+8"),
            (100003, "0x1.60faa302f83b8p-6", "0x1.60faa302f83b8p-6",
             "0x1.93d8216b7e18bp+11", "0x1.93d8216b7e18bp+11"),
            (10**6, "0x1.47ae147ae147cp-7", "0x1.47ae147ae147cp-7",
             "0x1.d4b840cc578b5p+13", "0x1.d4b840cc578b5p+13"),
            (4 * 10**6, "0x1.9cd9d686321fbp-8", "0x1.9cd9d686321fbp-8",
             "0x1.27495294218e7p+15", "0x1.27495294218e7p+15"),
        ],
        (0.8, 0.6, 1.5, 0.25): [
            (1, "0x1.8000000000000p+0", "0x1.999999999999ap-1",
             "0x1.8000000000000p+0", "0x1.999999999999ap-1"),
            (4096, "0x1.8000000000000p-3", "0x1.6493d7be31a81p-8",
             "0x1.ff6fd9b565249p+9", "0x1.b13f2261b1242p+5"),
            (4097, "0x1.7ffa003bfd302p-3", "0x1.648679446cb33p-8",
             "0x1.ff87d95568e46p+9", "0x1.b14a46957b478p+5"),
            (100003, "0x1.597ffab0a79dap-4", "0x1.a36c3fed11157p-11",
             "0x1.5f6f36ea51308p+13", "0x1.8ce19f9acd95ep+7"),
            (10**6, "0x1.8494a75f057abp-5", "0x1.a56cb36416f7fp-13",
             "0x1.ee18b6c9138e8p+15", "0x1.f4d0b4b92a7e1p+8"),
            (4 * 10**6, "0x1.12c49dd0cc1e9p-5", "0x1.6edf1645fd6f2p-14",
             "0x1.5d621e1636824p+17", "0x1.b490545604376p+9"),
        ],
    }

    def test_regenerated_values_pinned(self):
        for params, rows in self.PINNED.items():
            s = sch.make_polynomial_schedule(*params)
            for n, *expected in rows:
                got = (s.gamma(n), s.eta(n), s.Gamma(n), s.H(n))
                assert got == tuple(map(float.fromhex, expected)), (params, n)

    def test_memory_bounded_by_block_not_index(self):
        s = sch.make_polynomial_schedule(1.0, 1.0 / 3.0, 1.0, 1.0 / 3.0)
        tracemalloc.start()
        try:
            s.ensure(4_000_000)
            s.Gamma(4_000_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestHorizonIndex:
    def test_constant_step_double(self):
        # gamma = 1 (rho2 -> 0 is outside the domain; c2=1, rho2 tiny is the
        # documented stand-in, but an exact constant step comes from eta's
        # zero-exponent family applied to gamma via rho2 -> use a tiny rho2)
        s = sch.make_polynomial_schedule(1.0, 0.0, 1.0, 1e-12)
        assert s.horizon_index(0, 2.5) == 2
        assert s.horizon_index(5, 2.5) == 7

    def test_tiny_horizon_stays_at_start(self, benchmark_schedule):
        s = benchmark_schedule
        n = 100
        T = 0.5 * s.gamma(n + 1)
        assert s.horizon_index(n, T) == n

    def test_against_linear_scan(self, benchmark_schedule):
        s = benchmark_schedule
        for n in (0, 1, 7, 150):
            for T in (0.3, 1.0, 4.7):
                N = s.horizon_index(n, T)
                k = n
                while s.Gamma(k + 1) - s.Gamma(n) <= T:
                    k += 1
                assert N == k

    def test_monotone_in_n(self, benchmark_schedule):
        s = benchmark_schedule
        Ns = [s.horizon_index(n, 1.0) for n in range(500)]
        assert all(b >= a for a, b in zip(Ns, Ns[1:]))

    def test_vectorized_matches_scalar(self, benchmark_schedule):
        s = benchmark_schedule
        ks = np.arange(0, 400)
        vec = s.horizon_indices(ks, 0.8)
        scal = np.array([s.horizon_index(int(k), 0.8) for k in ks])
        assert np.array_equal(vec, scal)


    def test_nonfinite_horizon_rejected(self, benchmark_schedule):
        s = benchmark_schedule
        for T in (math.inf, math.nan, 0.0, -1.0):
            with pytest.raises(sch.ScheduleError):
                s.horizon_index(5, T)
            with pytest.raises(sch.ScheduleError):
                s.horizon_indices(np.arange(3), T)
            with pytest.raises(sch.ScheduleError):
                s.window_start(5, T)


class TestWindowStart:
    def test_constant_step(self):
        s = sch.make_polynomial_schedule(1.0, 0.0, 1.0, 1e-12)
        assert s.window_start(5, 2.5) == 3

    def test_zero_start(self, benchmark_schedule):
        assert benchmark_schedule.window_start(0, 1.0) == 0

    def test_duality_exhaustive(self, benchmark_schedule):
        s = benchmark_schedule
        for T in (0.5, 1.0, 2.5):
            for n in range(1, 201):
                tau = s.window_start(n, T)
                for k in range(1, 201):
                    assert (s.horizon_index(k - 1, T) <= n - 1) == (tau >= k)

    def test_gap_bracket(self, benchmark_schedule):
        # T - gamma_{tau-1} <= Gamma_n - Gamma_tau <= T
        s = benchmark_schedule
        T = 1.3
        for n in range(2, 400):
            tau = s.window_start(n, T)
            gap = s.Gamma(n) - s.Gamma(tau)
            assert gap <= T
            if tau >= 2:
                assert gap >= T - s.gamma(tau - 1)


class TestWindowInvariants:
    def test_bracket_up_to_1e4(self, benchmark_schedule):
        s = benchmark_schedule
        ks = np.arange(0, 10**4 + 1)
        for T in (0.5, 1.0, 2.5):
            N = s.horizon_indices(ks, T)
            s.ensure(int(N[-1]) + 1)
            GN = np.array([s.Gamma(int(i)) for i in N])
            GN1 = np.array([s.Gamma(int(i) + 1) for i in N])
            Gk = np.array([s.Gamma(int(k)) for k in ks])
            assert np.all(GN - Gk <= T)
            assert np.all(GN1 - Gk > T)
            assert np.all(np.diff(N) >= 0)

    def test_shift_count_identity(self, benchmark_schedule):
        # Card{n <= n_max : tau(n, T) = k} == N(k, T) - N(k-1, T) for interior
        # k; follows from tau(n, T) >= k  <=>  N(k-1, T) <= n-1
        s = benchmark_schedule
        T = 1.0
        n_max = 2000
        taus = [s.window_start(n, T) for n in range(1, n_max + 1)]
        counts = {}
        for t in taus:
            counts[t] = counts.get(t, 0) + 1
        k_max = max(k for k in counts if k < max(taus))
        for k in range(1, k_max):
            assert counts.get(k, 0) == s.horizon_index(k, T) - s.horizon_index(k - 1, T)


class TestConcurrentReaders:
    def test_threads_sharing_a_fresh_schedule_read_single_thread_values(self):
        # Far-apart readers race to extend the same anchors; a lost or
        # duplicated anchor would shift every block after it.
        params = (1.0, 1.0 / 3.0, 1.0, 1.0 / 3.0)
        starts = (100_000, 300_000, 200_003, 300_000)

        def read(s, lo):
            return (s.Gamma_slice(lo, lo + 5000), s.eta_slice(lo, lo + 5000),
                    s.gamma_slice(lo, lo + 5000),
                    s.horizon_indices(np.arange(lo, lo + 2000), 1.0))

        reference = {lo: read(sch.make_polynomial_schedule(*params), lo) for lo in starts}
        shared = sch.make_polynomial_schedule(*params)
        results, errors = {}, []

        def worker(i, lo):
            try:
                results[i] = read(shared, lo)
            except Exception as exc:  # surfaced by the assertions below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i, lo)) for i, lo in enumerate(starts)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        for i, lo in enumerate(starts):
            for got, want in zip(results[i], reference[lo]):
                assert np.array_equal(got, want), lo


class TestDiagnostics:
    def test_weight_step_equal_sequences(self, benchmark_schedule):
        d = sch.check_weight_step_condition(benchmark_schedule, 0.0, n_max=10**4)
        assert d.passed
        assert d.evidence["observed_constant"] == pytest.approx(1.0)

    def test_weight_step_fast_weights(self):
        s = sch.make_polynomial_schedule(1.0, 1.0, 1.0, 1.0 / 3.0)
        d = sch.check_weight_step_condition(s, 0.0, n_max=10**4)
        assert d.passed

    def test_weight_step_fails_when_weights_too_slow(self):
        s = sch.make_polynomial_schedule(1.0, 1.0 / 3.0, 1.0, 1.0)
        d = sch.check_weight_step_condition(s, 0.0, n_max=10**6)
        assert not d.passed
        # ratio eta/gamma = n^{2/3}: the scan supremum sits at the boundary
        assert d.evidence["argmax"] == 10**6

    def test_weight_step_eps_domain(self, benchmark_schedule):
        with pytest.raises(sch.ScheduleError):
            sch.check_weight_step_condition(benchmark_schedule, 1.0)

    def test_invariance_pass_cases(self, benchmark_schedule):
        assert sch.check_invariance_condition(benchmark_schedule, n_max=10**4).passed
        s0 = sch.make_polynomial_schedule(1.0, 0.0, 1.0, 1.0)
        assert sch.check_invariance_condition(s0, n_max=10**4).passed

    def test_invariance_boundary_exclusion(self):
        s = sch.make_polynomial_schedule(1.0, 1.0, 1.0, 1.0)
        assert not sch.check_invariance_condition(s, n_max=10**4).passed

    def test_series_condition_cases(self, benchmark_schedule):
        assert sch.check_series_condition(benchmark_schedule, 2.0, k_max=10**4).passed
        assert not sch.check_series_condition(benchmark_schedule, 1.4, k_max=10**4).passed
        s = sch.make_polynomial_schedule(1.0, 0.5, 1.0, 0.5)
        assert not sch.check_series_condition(s, 2.0, k_max=10**4).passed

    def test_series_condition_domain_errors(self, benchmark_schedule):
        with pytest.raises(sch.ScheduleError):
            sch.check_series_condition(benchmark_schedule, 1.0)
        with pytest.raises(sch.ScheduleError):
            sch.check_series_condition(benchmark_schedule, 2.0, k_max=9)
        s1 = sch.make_polynomial_schedule(1.0, 1.0, 1.0, 1.0)
        with pytest.raises(sch.ScheduleError):
            sch.check_series_condition(s1, 2.0)
