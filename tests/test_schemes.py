"""One-step kernels: hand arithmetic and positivity."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statvol.schemes import cir_reflected_step, ou_companion_step


class TestCirReflectedStep:
    def test_drift_vanishes_at_mean(self):
        assert cir_reflected_step(0.01, 0.1, 2.0, 0.01, 0.1, 0.0) == pytest.approx(0.01)

    def test_diffusion_vanishes_at_zero(self):
        out = cir_reflected_step(0.0, 0.1, 2.0, 0.01, 0.1, -123.0)
        assert out == pytest.approx(2.0 * 0.1 * 0.01)

    def test_hand_arithmetic_reflection(self):
        out = cir_reflected_step(0.01, 0.1, 2.0, 0.01, 0.1, -0.5)
        assert out == pytest.approx(0.005, rel=1e-15)

    @given(st.floats(0.0, 5.0), st.floats(0.001, 1.0), st.floats(-10.0, 10.0))
    @settings(max_examples=300, deadline=None)
    def test_nonnegative_always(self, v, gamma, dw):
        assert cir_reflected_step(v, gamma, 2.0, 0.01, 0.1, dw) >= 0.0


class TestOuCompanionStep:
    def test_absorbing_noiseless(self):
        assert ou_companion_step(0.0, 0.3, 0.0, 0.0) == 0.0

    def test_pure_contraction(self):
        assert ou_companion_step(1.0, 0.5, 7.0, 0.0) == pytest.approx(0.5)

    def test_hand_arithmetic(self):
        assert ou_companion_step(2.0, 0.25, 4.0, 0.3) == pytest.approx(2.1, rel=1e-15)
