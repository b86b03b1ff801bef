"""Transform and functional calculus: unitarity, derivative multiplier,
causal antiderivative, general symbols.

Oracles: direct sums for Parseval, centered finite differences for the
derivative, hand quadrature of indicator integrands for the antiderivative.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evoq
from evoq import (
    NotInvertibleError,
    SymbolError,
    TimeGrid,
    WeightedSignal,
    antiderivative,
    fourier_laplace,
    grid_frequencies,
    inverse_fourier_laplace,
    spectral_multiplier,
    time_derivative,
    time_reverse,
)
from evoq.waveforms import band_limited_signal, bump_signal, random_signal, smooth_bump


class TestFourierLaplace:
    def test_impulse_has_flat_magnitude(self):
        g = TimeGrid(-1.0, 1.0, 64)
        phi = np.zeros((64, 1))
        phi[10] = 1.0
        spec = fourier_laplace(WeightedSignal(g, 1.0, phi))
        mags = np.abs(spec.hat[:, 0])
        assert np.allclose(mags, mags[0], rtol=1e-12)

    def test_constant_concentrates_at_zero(self):
        g = TimeGrid(-1.0, 1.0, 64)
        spec = fourier_laplace(WeightedSignal(g, 1.0, np.ones((64, 1))))
        hat = np.abs(spec.hat[:, 0])
        assert hat[0] > 0
        assert np.max(hat[1:]) <= 1e-12 * hat[0]

    def test_parseval_direct_sums(self):
        g = TimeGrid(-2.0, 2.0, 128)
        sig = random_signal(g, 1.0, 3, np.random.default_rng(0))
        spec = fourier_laplace(sig)
        lhs = g.dt * np.sum(np.abs(sig.phi) ** 2)
        rhs = np.sum(np.abs(spec.hat) ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_unitary_roundtrip(self, seed):
        g = TimeGrid(-2.0, 2.0, 64)
        sig = random_signal(g, 0.8, 2, np.random.default_rng(seed))
        back = inverse_fourier_laplace(fourier_laplace(sig))
        assert np.abs(back.phi - sig.phi).max() <= 1e-12 * np.abs(sig.phi).max()
        assert fourier_laplace(sig).norm == pytest.approx(sig.norm, rel=1e-12)

    def test_nyquist_on_positive_branch(self):
        g = TimeGrid(-1.0, 1.0, 16)
        xi = grid_frequencies(g)
        assert xi[8] == pytest.approx(np.pi / g.dt)
        assert xi.max() == xi[8]


class TestTimeDerivative:
    def test_grid_eigenfunction(self):
        g = TimeGrid(-2.0, 2.0, 128)
        omega = 2.0 * np.pi * 5 / (g.n * g.dt)
        phi = np.exp(1j * omega * g.times)
        out = time_derivative(WeightedSignal(g, 1.5, phi))
        assert np.allclose(out.phi[:, 0], (1j * omega + 1.5) * phi, rtol=1e-12)

    def test_constant_maps_to_nu_times_itself(self):
        g = TimeGrid(-2.0, 2.0, 64)
        sig = WeightedSignal(g, 0.7, np.ones((64, 2)))
        out = time_derivative(sig)
        assert np.allclose(out.phi, 0.7 * sig.phi, atol=1e-13)

    def test_against_centered_differences(self):
        # second-order finite differences converge to the spectral derivative
        errs = []
        for n in (256, 512):
            g = TimeGrid(-4.0, 4.0, n)
            phi = smooth_bump(g.times, 0.0, 1.5)
            sig = WeightedSignal(g, 1.0, phi)
            spectral = time_derivative(sig).phi[:, 0]
            fd = (np.roll(phi, -1) - np.roll(phi, 1)) / (2 * g.dt) + 1.0 * phi
            errs.append(np.abs(spectral - fd).max())
        assert errs[1] <= errs[0] / 3.0  # order approx 2

    def test_normality_as_multiplier_commutativity(self):
        # the adjoint multiplier is the conjugate; diagonal symbols commute
        g = TimeGrid(-2.0, 2.0, 128)
        sig = random_signal(g, 1.0, 1, np.random.default_rng(1))
        xi = grid_frequencies(g)
        deriv_then_adj = spectral_multiplier(
            time_derivative(sig), lambda x: complex(-1j * x + 1.0))
        adj_then_deriv = time_derivative(
            spectral_multiplier(sig, lambda x: complex(-1j * x + 1.0)))
        assert np.abs(deriv_then_adj.phi - adj_then_deriv.phi).max() <= 1e-10

    def test_reversal_intertwining(self):
        # reverse(d f) = -d_{-nu}(reverse f) on band-limited signals
        g = TimeGrid(-2.0, 2.0, 128)
        sig = band_limited_signal(g, 1.0, 2, np.random.default_rng(2))
        lhs = time_reverse(time_derivative(sig))
        rhs = -1.0 * time_derivative(time_reverse(sig))
        gap = (lhs - rhs).norm / max(lhs.norm, 1e-300)
        assert gap <= 1e-8


class TestAntiderivative:
    def test_indicator_gives_ramp(self):
        # running integral of the unit indicator is the clipped ramp
        g = TimeGrid(-2.0, 2.0, 256)
        sig = evoq.signal_from_function(
            g, 1.0, lambda t: ((t >= 0) & (t < 1)).astype(float))
        ramp = antiderivative(sig).values()[:, 0]
        expected = np.clip(g.times, 0.0, 1.0)
        assert np.abs(ramp - expected).max() <= g.dt

    def test_zero_in_zero_out(self):
        g = TimeGrid(-2.0, 2.0, 64)
        out = antiderivative(evoq.zero_signal(g, 1.0, 2))
        assert np.all(out.phi == 0)

    def test_anticausal_branch_hand_quadrature(self):
        # minus the tail integral of the indicator: clip(t,0,1) - 1
        g = TimeGrid(-2.0, 2.0, 256)
        sig = evoq.signal_from_function(
            g, -1.0, lambda t: ((t >= 0) & (t < 1)).astype(float))
        out = antiderivative(sig).values()[:, 0]
        expected = np.clip(g.times, 0.0, 1.0) - 1.0
        assert np.abs(out - expected).max() <= g.dt

    def test_nu_zero_not_invertible(self):
        g = TimeGrid(-1.0, 1.0, 16)
        with pytest.raises(NotInvertibleError):
            antiderivative(evoq.zero_signal(g, 0.0, 1))

    def test_derivative_inverts_antiderivative(self):
        # the weight and span are chosen so the flat tail of the running
        # integral decays out before the grid edge; otherwise the spectral
        # derivative sees the periodic wrap jump
        gaps = []
        for n in (256, 512):
            g = TimeGrid(-8.0, 8.0, n)
            sig = bump_signal(g, 2.0, 1, center=0.0, width=1.0)
            roundtrip = time_derivative(antiderivative(sig))
            gaps.append((roundtrip - sig).norm / sig.norm)
        assert gaps[0] <= 1e-2
        assert gaps[1] <= gaps[0] / 3.0  # quadrature is second order

    def test_exactly_causal(self):
        g = TimeGrid(-4.0, 4.0, 256)
        phi = np.zeros((256, 1))
        start = 130
        phi[start:start + 20, 0] = 1.0
        out = antiderivative(WeightedSignal(g, 2.0, phi))
        assert np.all(out.phi[:start] == 0)

    def test_anticausal_support(self):
        g = TimeGrid(-4.0, 4.0, 256)
        phi = np.zeros((256, 1))
        phi[100:120, 0] = 1.0
        out = antiderivative(WeightedSignal(g, -2.0, phi))
        assert np.all(out.phi[120:] == 0)

    @pytest.mark.parametrize("nu, m", [(2.5, 3), (-0.7, 3), (1.0, 1)])
    def test_recurrence_has_the_bits_of_lfilter(self, nu, m):
        # the reference is scipy's direct-form-II-transposed filter with the
        # trapezoid's coefficients; the leading zeros check signed zeros too
        from scipy.signal import lfilter

        g = TimeGrid(-3.0, 4.0, 500)  # dt / 2 not a power of two
        rng = np.random.default_rng(6)
        phi = rng.standard_normal((500, m)) + 1j * rng.standard_normal((500, m))
        phi[:100] = 0.0
        decay = np.exp(-nu * g.dt) if nu > 0 else np.exp(nu * g.dt)
        b, a = (g.dt / 2.0) * np.array([1.0, decay]), np.array([1.0, -decay])
        if nu > 0:
            expected = lfilter(b, a, phi, axis=0)
        else:
            expected = -lfilter(b, a, phi[::-1], axis=0)[::-1]
        out = antiderivative(WeightedSignal(g, nu, phi)).phi
        assert out.tobytes() == np.ascontiguousarray(expected).tobytes()


class TestSpectralMultiplier:
    def test_identity_symbol(self):
        g = TimeGrid(-1.0, 1.0, 64)
        sig = random_signal(g, 1.0, 2, np.random.default_rng(3))
        out = spectral_multiplier(sig, lambda xi: np.eye(2))
        assert np.abs(out.phi - sig.phi).max() <= 1e-13

    def test_reproduces_time_derivative(self):
        g = TimeGrid(-1.0, 1.0, 64)
        sig = random_signal(g, 1.2, 2, np.random.default_rng(4))
        via_symbol = spectral_multiplier(sig, lambda xi: (1j * xi + 1.2) * np.eye(2))
        direct = time_derivative(sig)
        assert np.abs(via_symbol.phi - direct.phi).max() <= 1e-10

    def test_spectral_inverse_vs_cumulative_quadrature(self):
        # periodic inverse against the causal trapezoid; the gap is the
        # wrap-around of the periodic kernel plus O(dt^2) quadrature
        g = TimeGrid(-8.0, 8.0, 1024)
        nu = 2.0
        sig = bump_signal(g, nu, 1, center=0.0, width=1.0)
        spectral = spectral_multiplier(sig, lambda xi: 1.0 / (1j * xi + nu))
        causal = antiderivative(sig)
        gap = (spectral - causal).norm / causal.norm
        assert gap <= 2e-4

    def test_nonfinite_symbol_rejected(self):
        g = TimeGrid(-1.0, 1.0, 64)
        sig = random_signal(g, 1.0, 1, np.random.default_rng(5))
        with pytest.raises(SymbolError):
            spectral_multiplier(sig, lambda xi: np.nan if xi == 0 else 1.0)

    def test_scalar_symbol_broadcasts(self):
        g = TimeGrid(-1.0, 1.0, 64)
        sig = random_signal(g, 1.0, 3, np.random.default_rng(6))
        out = spectral_multiplier(sig, lambda xi: 2.0)
        assert np.abs(out.phi - 2.0 * sig.phi).max() <= 1e-12
