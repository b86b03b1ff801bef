"""Weighted signals: grids, pairing, flip, reversal, restriction, leakage.

Oracle for everything weighted: direct quadrature with explicit exponential
factors, evaluated only where |nu * t| stays small enough for doubles.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import evoq
from evoq import (
    GridError,
    PairingError,
    SupportWindow,
    TimeGrid,
    WeightedSignal,
    WindowError,
    nu_product,
    restrict,
    support_leakage,
    time_reverse,
    weight_flip,
)
from evoq.solver import _leakage
from evoq.transform import block_solve, fourier_laplace
from evoq.waveforms import random_signal


def direct_weighted_norm(sig):
    """Independent oracle: reconstruct f(t_j) and integrate e^{-2 nu t}|f|^2."""
    t = sig.grid.times
    f = np.exp(sig.nu * t)[:, None] * sig.phi
    return math.sqrt(sig.grid.dt * float(np.sum(np.exp(-2 * sig.nu * t)[:, None]
                                                * np.abs(f) ** 2)))


def direct_pairing(f, g):
    """Independent oracle: dt * sum <f(t), g(t)> with reconstructed values."""
    t = f.grid.times
    fv = np.exp(f.nu * t)[:, None] * f.phi
    gv = np.exp(g.nu * t)[:, None] * g.phi
    return complex(f.grid.dt * np.sum(np.conj(fv) * gv))


class TestTimeGrid:
    def test_basic_fields(self):
        g = TimeGrid(-2.0, 2.0, 8)
        assert g.dt == 0.5
        assert np.allclose(g.times, -2.0 + 0.5 * np.arange(8))
        assert g.symmetric

    def test_rejects_bad_bounds(self):
        with pytest.raises(GridError):
            TimeGrid(1.0, -1.0, 8)
        with pytest.raises(GridError):
            TimeGrid(0.0, 1.0, 1)

    def test_asymmetric_flag(self):
        assert not TimeGrid(-1.0, 2.0, 8).symmetric

    def test_index_at_or_after_snaps_to_grid_points(self):
        g = TimeGrid(-2.0, 2.0, 400)
        assert g.index_at_or_after(g.times[37]) == 37
        assert g.index_at_or_after(g.times[37] + 0.3 * g.dt) == 38
        assert g.index_at_or_after(-5.0) == 0
        assert g.index_at_or_after(5.0) == g.n

    def test_padding_keeps_dt(self):
        g = TimeGrid(-2.0, 2.0, 100)
        padded, p = g.padded(0.25)
        assert p == 25
        assert padded.n == 150
        assert padded.dt == pytest.approx(g.dt, rel=1e-15)
        same, zero = g.padded(0.0)
        assert same is g and zero == 0


class TestWeightedSignal:
    def test_shape_validation(self):
        g = TimeGrid(0.0, 1.0, 4)
        with pytest.raises(GridError):
            WeightedSignal(g, 1.0, np.zeros((3, 2)))

    def test_rejects_nonfinite(self):
        g = TimeGrid(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            WeightedSignal(g, 1.0, np.array([1.0, np.nan, 0.0, 0.0]))

    def test_phi_is_read_only(self):
        sig = random_signal(TimeGrid(0.0, 1.0, 8), 1.0, 2, np.random.default_rng(0))
        with pytest.raises(ValueError):
            sig.phi[0, 0] = 1.0

    def test_flat_norm_matches_direct_quadrature(self):
        # |nu t| <= 30 so the explicit weights stay representable
        g = TimeGrid(-10.0, 10.0, 300)
        sig = random_signal(g, 3.0, 2, np.random.default_rng(1))
        assert sig.norm == pytest.approx(direct_weighted_norm(sig), rel=1e-12)

    def test_tiny_signal_has_a_positive_norm(self):
        # every square underflows, and the rescaled norm is the unscaled
        # signal's norm times 2^-1000, to rounding
        g = TimeGrid(-10.0, 10.0, 300)
        sig = random_signal(g, 3.0, 2, np.random.default_rng(1))
        tiny = sig * 2.0 ** -1000
        assert float(np.linalg.norm(tiny.phi)) == 0.0
        assert tiny.norm == pytest.approx(sig.norm * 2.0 ** -1000, rel=1e-14)
        assert WeightedSignal(g, 3.0, np.full((300, 2), 1e-300 + 0j)).norm > 0.0
        assert WeightedSignal(g, 3.0, np.zeros((300, 2))).norm == 0.0

    def test_values_roundtrip(self):
        g = TimeGrid(-4.0, 4.0, 64)
        rng = np.random.default_rng(2)
        vals = rng.standard_normal((64, 3)) + 1j * rng.standard_normal((64, 3))
        sig = evoq.signal_from_values(g, 1.5, vals)
        assert np.allclose(sig.values(), vals, rtol=1e-12)


def scales_normally(x, k):
    """True when every real and imaginary part of x, and of 2^k x, is a
    normal double."""
    parts = np.abs(np.concatenate([x.real.ravel(), x.imag.ravel()]))
    if not parts.min() >= 2.0 ** -1022:
        return False
    return (-1021 - math.frexp(parts.min())[1] <= k <= 1024 - math.frexp(parts.max())[1])


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestOneNormRule:
    """Every norm goes through one rule, which scales data out of range by a
    power of two: norms scale exactly with the data, and relative values do
    not move, wherever the data's parts are normal doubles at both scales."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(e=st.integers(-24, 24), k=st.integers(-1000, 1000))
    @example(e=21, k=1000)  # the unweighted sum passes the largest double, the norm does not
    @example(e=-24, k=-1000)  # every square underflows
    def test_a_power_of_two_scales_the_norm_exactly(self, e, k):
        s = random_signal(TimeGrid(-1.0, 1.0, 64), 1.0, 2, np.random.default_rng(0)) * 2.0 ** e
        assume(scales_normally(s.phi, k))
        scaled = s * 2.0 ** k
        assert scaled.norm == math.ldexp(s.norm, k)
        if scales_normally(np.fft.fft(s.phi, axis=0), k):  # else the DFT itself overflows
            assert fourier_laplace(scaled).norm == math.ldexp(fourier_laplace(s).norm, k)
            assert fourier_laplace(scaled).norm == pytest.approx(scaled.norm, rel=1e-13)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(k=st.integers(-1000, 1000))
    def test_a_power_of_two_leaves_the_leakage(self, k):
        u = crandn(np.random.default_rng(1), 64, 3)
        assert scales_normally(u, k)
        assert _leakage(u * 2.0 ** k, slice(0, 20)) == _leakage(u, slice(0, 20))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(k=st.integers(-1000, 1000))
    def test_a_power_of_two_leaves_the_block_residual(self, k):
        rng = np.random.default_rng(2)
        blocks = 4.0 * np.eye(3) + crandn(rng, 32, 3, 3)
        # the solve takes its data into range first, so the defect behind
        # the residual stays normal however far the data are scaled down
        phi = crandn(rng, 32, 3)
        assert scales_normally(phi, k)
        assert (block_solve(blocks, phi * 2.0 ** k, residual=True)[1]
                == block_solve(blocks, phi, residual=True)[1])


class TestNuProduct:
    def test_weights_cancel_on_unit_indicator(self):
        # flat arrays both identically 1 on [0, 1): the pairing is its measure
        g = TimeGrid(-2.0, 2.0, 400)
        keep = (g.times >= 0.0) & (g.times < 1.0)
        phi = keep.astype(complex)[:, None]
        f = WeightedSignal(g, 1.3, phi)
        h = WeightedSignal(g, -1.3, phi)
        assert nu_product(f, h) == pytest.approx(1.0, abs=1e-14)

    def test_zero_right_factor(self):
        g = TimeGrid(-1.0, 1.0, 16)
        f = random_signal(g, 1.0, 2, np.random.default_rng(3))
        assert nu_product(f, evoq.zero_signal(g, -1.0, 2)) == 0.0

    def test_flip_attains_squared_norm(self):
        # the norm-attainment identity, checked against the direct quadrature
        g = TimeGrid(-8.0, 8.0, 200)
        f = random_signal(g, 1.5, 3, np.random.default_rng(4))
        value = nu_product(f, weight_flip(f))
        assert value == pytest.approx(direct_pairing(f, weight_flip(f)), rel=1e-12)
        assert value == pytest.approx(f.norm ** 2, rel=1e-12)

    def test_mismatches_raise(self):
        g = TimeGrid(-1.0, 1.0, 16)
        rng = np.random.default_rng(5)
        f = random_signal(g, 1.0, 2, rng)
        with pytest.raises(PairingError):
            nu_product(f, random_signal(g, -2.0, 2, rng))
        with pytest.raises(PairingError):
            nu_product(f, random_signal(g, -1.0, 3, rng))
        with pytest.raises(PairingError):
            nu_product(f, random_signal(TimeGrid(-1.0, 1.0, 32), -1.0, 2, rng))

    def test_cauchy_schwarz(self):
        g = TimeGrid(-2.0, 2.0, 64)
        rng = np.random.default_rng(6)
        for _ in range(20):
            f = random_signal(g, 0.7, 2, rng)
            h = random_signal(g, -0.7, 2, rng)
            assert abs(nu_product(f, h)) <= f.norm * h.norm * (1 + 1e-12)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_conjugate_symmetry(self, seed):
        g = TimeGrid(-1.0, 1.0, 32)
        rng = np.random.default_rng(seed)
        f = random_signal(g, 0.9, 2, rng)
        h = random_signal(g, -0.9, 2, rng)
        assert np.conj(nu_product(f, h)) == pytest.approx(nu_product(h, f), rel=1e-12)

    def test_norm_attained_on_unit_ball(self):
        g = TimeGrid(-2.0, 2.0, 64)
        rng = np.random.default_rng(7)
        f = random_signal(g, 1.0, 2, rng)
        attained = weight_flip(f) * (1.0 / f.norm)
        assert abs(nu_product(f, attained)) == pytest.approx(f.norm, rel=1e-12)
        for _ in range(50):
            h = random_signal(g, -1.0, 2, rng)
            h = h * (1.0 / h.norm)
            assert abs(nu_product(f, h)) <= f.norm * (1 + 1e-12)


class TestWeightFlip:
    def test_flat_identity(self):
        g = TimeGrid(0.0, 3.0, 3)
        sig = WeightedSignal(g, 1.0, np.array([1.0, 2.0, 3.0]))
        flipped = weight_flip(sig)
        assert flipped.nu == -1.0
        assert np.array_equal(flipped.phi, sig.phi)

    def test_involution(self):
        g = TimeGrid(-1.0, 1.0, 16)
        sig = random_signal(g, 0.5, 2, np.random.default_rng(8))
        again = weight_flip(weight_flip(sig))
        assert again.nu == sig.nu
        assert np.array_equal(again.phi, sig.phi)

    def test_unitary_against_quadrature(self):
        g = TimeGrid(-6.0, 6.0, 128)
        sig = random_signal(g, 2.0, 2, np.random.default_rng(9))
        flipped = weight_flip(sig)
        assert flipped.norm == pytest.approx(direct_weighted_norm(flipped), rel=1e-12)
        assert flipped.norm == pytest.approx(sig.norm, rel=1e-14)


class TestTimeReverse:
    def test_plain_array_reversal(self):
        g = TimeGrid(-2.0, 2.0, 4)
        sig = WeightedSignal(g, 1.0, np.array([1.0, 2.0, 3.0, 4.0]))
        rev = time_reverse(sig)
        assert rev.nu == -1.0
        assert np.array_equal(rev.phi[:, 0], [4.0, 3.0, 2.0, 1.0])

    def test_involution(self):
        g = TimeGrid(-1.0, 1.0, 32)
        sig = random_signal(g, 1.0, 3, np.random.default_rng(10))
        assert np.array_equal(time_reverse(time_reverse(sig)).phi, sig.phi)

    def test_requires_symmetric_grid(self):
        sig = random_signal(TimeGrid(0.0, 1.0, 8), 1.0, 1, np.random.default_rng(11))
        with pytest.raises(GridError):
            time_reverse(sig)

    def test_norm_preserved_against_quadrature(self):
        g = TimeGrid(-7.0, 7.0, 100)
        sig = random_signal(g, 2.0, 2, np.random.default_rng(12))
        rev = time_reverse(sig)
        assert rev.norm == pytest.approx(direct_weighted_norm(rev), rel=1e-12)
        assert rev.norm == pytest.approx(sig.norm, rel=1e-14)

    def test_intertwines_restrictions_on_grid_points(self):
        # reversing after keeping t >= T equals keeping t < -T after reversing
        g = TimeGrid(-2.0, 2.0, 64)
        T = g.times[40]  # a grid point, so the identity is exact
        sig = random_signal(g, 1.0, 2, np.random.default_rng(13))
        lhs = time_reverse(restrict(sig, SupportWindow.at_least(T)))
        rhs = restrict(time_reverse(sig), SupportWindow.at_most(-T))
        assert np.allclose(lhs.phi, rhs.phi, atol=0)


class TestRestrict:
    def test_window_containing_support_is_identity(self):
        g = TimeGrid(-4.0, 4.0, 128)
        f = evoq.signal_from_function(
            g, 1.0, lambda t: ((t >= 0) & (t < 1)).astype(float))
        out = restrict(f, SupportWindow.at_most(2.0))
        assert np.array_equal(out.phi, f.phi)

    def test_window_past_grid_end_zeroes(self):
        g = TimeGrid(-4.0, 4.0, 128)
        f = random_signal(g, 1.0, 1, np.random.default_rng(14))
        out = restrict(f, SupportWindow.at_least(4.0))
        assert np.all(out.phi == 0)

    def test_window_outside_grid_raises(self):
        g = TimeGrid(-4.0, 4.0, 128)
        f = random_signal(g, 1.0, 1, np.random.default_rng(15))
        with pytest.raises(WindowError):
            restrict(f, SupportWindow.at_least(5.0))

    def test_unknown_window_kind_rejected(self):
        with pytest.raises(WindowError):
            SupportWindow("sideways", 0.0)

    def test_idempotent_and_complementary(self):
        g = TimeGrid(-4.0, 4.0, 128)
        f = random_signal(g, 1.0, 2, np.random.default_rng(16))
        w = SupportWindow.at_least(0.37)
        once = restrict(f, w)
        assert np.array_equal(restrict(once, w).phi, once.phi)
        below = restrict(f, SupportWindow.at_most(0.37))
        assert np.array_equal(once.phi + below.phi, f.phi)

    def test_self_adjoint_in_pairing(self):
        g = TimeGrid(-4.0, 4.0, 128)
        rng = np.random.default_rng(17)
        f = random_signal(g, 1.0, 2, rng)
        h = random_signal(g, -1.0, 2, rng)
        w = SupportWindow.at_least(1.1)
        lhs = nu_product(restrict(f, w), h)
        rhs = nu_product(f, restrict(h, w))
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestSupportLeakage:
    def test_inside_zero_outside_one(self):
        g = TimeGrid(-4.0, 4.0, 256)
        f = evoq.signal_from_function(
            g, 1.0, lambda t: ((t >= 0) & (t < 1)).astype(float))
        assert support_leakage(f, SupportWindow.at_least(-1.0)) == 0.0
        assert support_leakage(f, SupportWindow.at_least(2.0)) == pytest.approx(1.0)

    def test_zero_signal_reports_zero(self):
        g = TimeGrid(-4.0, 4.0, 64)
        z = evoq.zero_signal(g, 1.0, 2)
        assert support_leakage(z, SupportWindow.at_least(0.0)) == 0.0

    def test_half_mass_outside(self):
        # two bumps of equal flat mass; window keeps exactly one of them
        g = TimeGrid(-4.0, 4.0, 256)
        phi = np.zeros((256, 1))
        left = (g.times >= -2.0) & (g.times < -1.0)
        right = (g.times >= 1.0) & (g.times < 2.0)
        phi[left, 0] = 1.0
        phi[right, 0] = 1.0
        f = WeightedSignal(g, 1.0, phi)
        leak = support_leakage(f, SupportWindow.at_least(0.0))
        assert leak == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)


class TestSerialization:
    def test_roundtrip_full_precision(self, tmp_path):
        g = TimeGrid(-3.0, 5.0, 96)
        sig = random_signal(g, 1.25, 3, np.random.default_rng(18))
        base = str(tmp_path / "sig")
        evoq.save_signal(sig, base)
        back = evoq.load_signal(base)
        assert back.grid == sig.grid
        assert back.nu == sig.nu
        assert np.array_equal(back.phi, sig.phi)  # %.17g reproduces doubles

    @pytest.mark.parametrize("n, m, special", [
        (2, 3, False), (16, 1, False), (2048, 9, False), (4, 2, True),
    ], ids=["n2", "m1", "n2048-m9", "signed-zero-subnormal-huge"])
    def test_csv_bytes_are_those_of_savetxt(self, tmp_path, n, m, special):
        # the one-format-string writer against the np.savetxt call it replaced,
        # on the smallest grid (2 samples), one component, a long signal, and
        # -0.0, subnormals and the largest doubles
        sig = random_signal(TimeGrid(-3.0, 5.0, n), 1.25, m, np.random.default_rng(n))
        if special:
            sig = sig.with_phi(np.array([[-0.0 + 1e-310j, 1e308 - 0.0j],
                                         [-1e-310 + 0.0j, -1e308 + 1e308j],
                                         [5e-324 - 5e-324j, 0.0 - 0.0j],
                                         [1.0 + 0.1j, -2.5e-300 + 1.7976931348623157e308j]]))
        evoq.save_signal(sig, str(tmp_path / "sig"))
        names = (["t"] + [f"re_phi_{i + 1}" for i in range(m)]
                 + [f"im_phi_{i + 1}" for i in range(m)])
        np.savetxt(tmp_path / "ref.csv",
                   np.column_stack([sig.grid.times, sig.phi.real, sig.phi.imag]),
                   fmt="%.17g", delimiter=",", header=",".join(names), comments="")
        assert (tmp_path / "sig.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
